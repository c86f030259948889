//! Machine-readable benchmark baselines (`BENCH_<n>.json`).
//!
//! Emitted by `repro bench [--quick]`, one file per perf PR, so the
//! repository accumulates a performance trajectory that later PRs can
//! extend and compare against.
//!
//! Two measurement families:
//!
//! * **Pipelining hot path, before/after** — the same 4-worker
//!   producer/router/pipelining-join dataflow run twice: once with the
//!   seed's data movement (deep-copied tuples, `concat().project()`
//!   projection, a fresh `Vec` per flushed batch) and once with the
//!   zero-copy path (shared/inline tuples, scratch projection, pooled
//!   batch buffers). The ratio is the representation change in isolation,
//!   measured on this machine, by this binary.
//! * **Real engine per strategy** — wall clock, tuples/sec, and peak
//!   logical hash-table bytes for the four strategies on the threaded
//!   engine, recording that `est_bytes` still reports the paper's
//!   *logical* memory (RD < FP must hold even though tuples are shared).

use std::sync::Arc;
use std::time::Instant;

use mj_core::generator::{generate, GeneratorInput};
use mj_core::plan_ir::ParallelPlan;
use mj_core::strategy::Strategy;
use mj_exec::stream::{operand_channels, Msg, Router};
use mj_exec::{run_plan, Engine, ExecConfig, ExecOutcome, QueryBinding};
use mj_join::{JoinTable, PipeliningJoinState};
use mj_plan::cardinality::{node_cards, UniformOneToOne};
use mj_plan::cost::{tree_costs, CostModel};
use mj_plan::query::regular_join_spec;
use mj_plan::shapes::{build, Shape};
use mj_relalg::column::ColumnLayout;
use mj_relalg::{Result, Tuple};
use mj_storage::{Catalog, WisconsinGenerator};
use serde::{JsonValue, Serialize};

/// Workers (producer and consumer instances) in the hot-path benchmark;
/// the acceptance floor is 4.
pub const HOT_PATH_WORKERS: usize = 4;

/// One timed mode of the hot-path benchmark.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HotPathRun {
    /// Tuples pushed through the dataflow.
    pub tuples: u64,
    /// Result tuples produced by the joins.
    pub matches: u64,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Input tuples per second.
    pub tuples_per_sec: f64,
}

/// Before/after measurement of the pipelining hot path.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HotPathComparison {
    /// Producer/consumer worker instances.
    pub workers: usize,
    /// Seed-equivalent data movement: deep copies everywhere.
    pub baseline_deep_copy: HotPathRun,
    /// Zero-copy data movement: shared tuples, scratch projection, pooled
    /// batches.
    pub shared_zero_copy: HotPathRun,
    /// `shared_zero_copy.tuples_per_sec / baseline_deep_copy.tuples_per_sec`.
    pub speedup: f64,
}

/// One strategy measured on the real threaded engine.
#[derive(Clone, Debug, Serialize)]
pub struct StrategyRun {
    /// Strategy label (SP/SE/RD/FP).
    pub strategy: String,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Total tuples consumed by all operators per second.
    pub tuples_per_sec: f64,
    /// Peak logical hash-table bytes summed across instances.
    pub peak_table_bytes: u64,
    /// Result cardinality (must equal tuples per relation).
    pub result_tuples: u64,
}

/// The whole `BENCH_1.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct BenchReport {
    /// Monotone bench index (`BENCH_<bench>.json`).
    pub bench: u32,
    /// True for a shrunken `--quick` smoke run (written to
    /// `BENCH_quick.json`, never to the checked-in baseline).
    pub quick: bool,
    /// Tuples per relation used by the engine runs.
    pub tuples_per_relation: u64,
    /// Relations in the engine query.
    pub relations: usize,
    /// Logical processors given to the engine.
    pub processors: usize,
    /// Channel batch size.
    pub batch_size: usize,
    /// The isolated hot-path comparison.
    pub pipelining_hot_path: HotPathComparison,
    /// Full-engine runs, one per strategy.
    pub strategies: Vec<StrategyRun>,
}

/// How tuples move through the hot-path benchmark.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Movement {
    /// The seed representation's behaviour: every hop deep-copies, every
    /// projection materializes the concatenated row, every flush allocates
    /// a fresh batch buffer.
    DeepCopy,
    /// The zero-copy path as the engine now runs it.
    Shared,
}

/// Runs a `workers`-way partition → route → pipelining-join dataflow over
/// `n` build and `n` probe tuples of arity 6 (wide enough to defeat the
/// inline fast path, so `DeepCopy` vs `Shared` isolates payload sharing;
/// the projection output is arity 3 and exercises the inline path in
/// `Shared` mode).
fn hot_path(n: usize, workers: usize, movement: Movement) -> Result<HotPathRun> {
    let spec = regular_join_spec(6);
    let gen = WisconsinGenerator::new(n, 17);
    let wide = |stream: usize| -> Vec<Tuple> {
        // Arity-6 all-int rows: unique1, unique2, and four payload ints.
        let base = gen.generate(stream);
        base.iter()
            .map(|t| {
                let u1 = t.int(0).expect("unique1");
                let u2 = t.int(1).expect("unique2");
                Tuple::from_ints(&[u1, u2, u1, u2, u1, u2])
            })
            .collect()
    };
    let left = wide(0);
    let right = wide(1);

    let started = Instant::now();

    // Partition the build side by index (Shared) or row-by-row deep copy
    // (DeepCopy), mirroring the seed's `split_by` clone-per-row.
    let mut build_parts: Vec<Vec<Tuple>> = (0..workers).map(|_| Vec::new()).collect();
    for t in &left {
        let dest = mj_relalg::hash::bucket_of(t.int(0)?, workers);
        build_parts[dest].push(match movement {
            Movement::DeepCopy => t.deep_clone(),
            Movement::Shared => t.clone(),
        });
    }

    let (txs, rxs, pool) = operand_channels(
        workers,
        workers,
        ExecConfig::default().channel_capacity,
        ColumnLayout::ints(6),
    );
    let batch = ExecConfig::default().batch_size;

    // Consumers: one pipelining-join instance per worker; the build side
    // is immediate, the probe side streams.
    let consumers: Vec<_> = rxs
        .into_iter()
        .zip(build_parts)
        .map(|(rx, build)| {
            let spec = spec.clone();
            std::thread::spawn(move || -> Result<(u64, u64)> {
                let mut out = Vec::with_capacity(batch);
                let mut seen = 0u64;
                let mut matches = 0u64;
                match movement {
                    Movement::Shared => {
                        let mut state = PipeliningJoinState::with_capacity(spec, build.len(), 0);
                        for t in build {
                            state.push_left(t, &mut out)?;
                        }
                        matches += out.len() as u64;
                        out.clear();
                        let mut remaining = workers;
                        while remaining > 0 {
                            match rx.recv() {
                                Ok(Msg::Batch(mut b)) => {
                                    for t in b.drain() {
                                        seen += 1;
                                        state.push_right(t, &mut out)?;
                                        if out.len() >= batch {
                                            matches += out.len() as u64;
                                            out.clear();
                                        }
                                    }
                                }
                                Ok(Msg::End) => remaining -= 1,
                                Err(_) => break,
                            }
                        }
                    }
                    Movement::DeepCopy => {
                        // Seed semantics, spelled out against the raw join
                        // table: deep-copy on insert, probe emitting via
                        // concat().project(), a second table fed with deep
                        // copies — exactly what the pre-sharing
                        // PipeliningJoinState did physically.
                        let mut left_table = JoinTable::with_capacity(build.len());
                        let mut right_table = JoinTable::new();
                        for t in build {
                            left_table.insert(t.int(spec.left_key)?, t.deep_clone());
                        }
                        let mut remaining = workers;
                        while remaining > 0 {
                            match rx.recv() {
                                Ok(Msg::Batch(b)) => {
                                    for t in &b.to_tuples() {
                                        seen += 1;
                                        let key = t.int(spec.right_key)?;
                                        for l in left_table.probe(key) {
                                            out.push(l.concat(t).project(spec.projection.cols())?);
                                        }
                                        right_table.insert(key, t.deep_clone());
                                        if out.len() >= batch {
                                            matches += out.len() as u64;
                                            out.clear();
                                        }
                                    }
                                }
                                Ok(Msg::End) => remaining -= 1,
                                Err(_) => break,
                            }
                        }
                    }
                }
                matches += out.len() as u64;
                Ok((seen, matches))
            })
        })
        .collect();

    // Producers: route the probe side, split `workers` ways.
    // Exactly `workers` producer slices (possibly empty), so the End
    // protocol's producer count always matches.
    let mut right_parts: Vec<Vec<Tuple>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, t) in right.iter().enumerate() {
        right_parts[i % workers].push(t.clone());
    }
    let producers: Vec<_> = right_parts
        .into_iter()
        .map(|part| {
            let txs = txs.clone();
            let pool = pool.clone();
            std::thread::spawn(move || -> Result<()> {
                match movement {
                    Movement::Shared => {
                        let mut router = Router::new(txs, 0, batch, pool);
                        for t in part {
                            router.route(t)?;
                        }
                        router.finish()?;
                    }
                    Movement::DeepCopy => {
                        // Seed semantics: per-destination buffers, a deep
                        // copy per routed tuple, and a *fresh* Vec per
                        // flushed batch.
                        let mut buffers: Vec<Vec<Tuple>> =
                            txs.iter().map(|_| Vec::with_capacity(batch)).collect();
                        for t in part {
                            let dest = mj_relalg::hash::bucket_of(t.int(0)?, txs.len());
                            buffers[dest].push(t.deep_clone());
                            if buffers[dest].len() >= batch {
                                let full = std::mem::replace(
                                    &mut buffers[dest],
                                    Vec::with_capacity(batch),
                                );
                                txs[dest]
                                    .send(Msg::Batch(mj_exec::stream::Batch::from_tuples(&full)?))
                                    .map_err(|_| {
                                        mj_relalg::RelalgError::InvalidPlan(
                                            "consumer hung up".into(),
                                        )
                                    })?;
                            }
                        }
                        for (dest, buf) in buffers.into_iter().enumerate() {
                            if !buf.is_empty() {
                                txs[dest]
                                    .send(Msg::Batch(mj_exec::stream::Batch::from_tuples(&buf)?))
                                    .map_err(|_| {
                                        mj_relalg::RelalgError::InvalidPlan(
                                            "consumer hung up".into(),
                                        )
                                    })?;
                            }
                        }
                        for tx in &txs {
                            tx.send(Msg::End).map_err(|_| {
                                mj_relalg::RelalgError::InvalidPlan("consumer hung up".into())
                            })?;
                        }
                    }
                }
                Ok(())
            })
        })
        .collect();
    drop(txs);

    for p in producers {
        p.join().expect("producer thread")?;
    }
    let mut seen = 0u64;
    let mut matches = 0u64;
    for c in consumers {
        let (s, m) = c.join().expect("consumer thread")?;
        seen += s;
        matches += m;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let total = (left.len() + right.len()) as u64;
    debug_assert_eq!(seen, right.len() as u64);
    Ok(HotPathRun {
        tuples: total,
        matches,
        elapsed_s: elapsed,
        tuples_per_sec: total as f64 / elapsed,
    })
}

/// Measures the hot path in both modes, best-of-`reps`.
pub fn hot_path_comparison(n: usize, reps: usize) -> Result<HotPathComparison> {
    let best = |movement: Movement| -> Result<HotPathRun> {
        let mut best: Option<HotPathRun> = None;
        for _ in 0..reps.max(1) {
            let run = hot_path(n, HOT_PATH_WORKERS, movement)?;
            if best.map(|b| run.elapsed_s < b.elapsed_s).unwrap_or(true) {
                best = Some(run);
            }
        }
        Ok(best.expect("at least one rep"))
    };
    let baseline = best(Movement::DeepCopy)?;
    let shared = best(Movement::Shared)?;
    Ok(HotPathComparison {
        workers: HOT_PATH_WORKERS,
        baseline_deep_copy: baseline,
        shared_zero_copy: shared,
        speedup: shared.tuples_per_sec / baseline.tuples_per_sec,
    })
}

/// Runs the four strategies on the real engine (right-linear regular
/// query) and reports wall clock, throughput, and peak table bytes.
pub fn strategy_runs(relations: usize, n: usize, processors: usize) -> Result<Vec<StrategyRun>> {
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(n, 42).generate_named("R", relations) {
        catalog.register(name, rel);
    }
    let tree = build(Shape::RightLinear, relations).expect("tree shape");
    let cards = node_cards(&tree, &UniformOneToOne { n: n as u64 });
    let costs = tree_costs(&tree, &cards, &CostModel::default());
    let binding = QueryBinding::regular(&tree, catalog.as_ref())?;
    let mut out = Vec::new();
    for strategy in Strategy::ALL {
        let mut input = GeneratorInput::new(&tree, &cards, &costs, processors);
        input.allow_oversubscribe = processors < tree.join_count();
        let plan = generate(strategy, &input)?;
        let outcome = run_plan(&plan, &binding, catalog.as_ref(), &ExecConfig::default())?;
        let consumed: u64 = outcome
            .metrics
            .ops
            .iter()
            .map(|o| o.tuples_in[0] + o.tuples_in[1])
            .sum();
        let peak: u64 = outcome.metrics.ops.iter().map(|o| o.table_bytes).sum();
        out.push(StrategyRun {
            strategy: strategy.label().to_string(),
            elapsed_s: outcome.elapsed.as_secs_f64(),
            tuples_per_sec: consumed as f64 / outcome.elapsed.as_secs_f64(),
            peak_table_bytes: peak,
            result_tuples: outcome.relation.len() as u64,
        });
    }
    Ok(out)
}

/// Produces the full report. `quick` shrinks the workload for CI smoke
/// runs; the checked-in baseline uses the full size.
pub fn bench_report(quick: bool) -> Result<BenchReport> {
    let (hot_n, reps, n, relations, processors) = if quick {
        (20_000, 1, 2_000, 5, 4)
    } else {
        (200_000, 3, 20_000, 10, 8)
    };
    Ok(BenchReport {
        bench: 1,
        quick,
        tuples_per_relation: n as u64,
        relations,
        processors,
        batch_size: ExecConfig::default().batch_size,
        pipelining_hot_path: hot_path_comparison(hot_n, reps)?,
        strategies: strategy_runs(relations, n, processors)?,
    })
}

/// One timed mode of the concurrency benchmark.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ConcurrentRun {
    /// Queries executed.
    pub queries: u64,
    /// Tuples consumed by all operators across all queries.
    pub tuples: u64,
    /// Wall-clock seconds for the whole set.
    pub elapsed_s: f64,
    /// Operator-consumed tuples per second.
    pub tuples_per_sec: f64,
}

/// N-queries-in-flight throughput on one shared engine vs the same
/// queries run back-to-back — the worker-pool scheduler's reason to exist.
#[derive(Clone, Debug, Serialize)]
pub struct ConcurrentComparison {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Queries in flight.
    pub queries: usize,
    /// Relations per query.
    pub relations: usize,
    /// Tuples per relation.
    pub tuples_per_relation: u64,
    /// Logical processors per query plan (kept small so a single query
    /// cannot saturate the pool by itself).
    pub procs_per_query: usize,
    /// Per-operation-process startup cost in milliseconds, set to the
    /// simulator's PRISMA-calibrated `t_init`. Startup is the §3.5
    /// overhead the shared pool exists to hide: while one query's
    /// processes initialize, the workers run other queries' tuples. Set
    /// to 0 and back-to-back ≈ concurrent on a single-core host (the
    /// pool is already saturated); on multicore hosts concurrency
    /// additionally overlaps execution.
    pub startup_cost_ms: f64,
    /// The same engine, queries issued one at a time.
    pub back_to_back: ConcurrentRun,
    /// All queries issued at once from separate client threads.
    pub concurrent: ConcurrentRun,
    /// `concurrent.tuples_per_sec / back_to_back.tuples_per_sec`.
    pub speedup: f64,
    /// Worker threads spawned by the engine over the whole benchmark —
    /// must equal `workers` no matter how many queries ran.
    pub worker_threads_spawned: u64,
}

/// The whole `BENCH_2.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct Bench2Report {
    /// Monotone bench index (`BENCH_<bench>.json`).
    pub bench: u32,
    /// True for a shrunken `--quick` smoke run.
    pub quick: bool,
    /// The concurrency scenario.
    pub concurrent: ConcurrentComparison,
}

fn consumed_tuples(outcome: &ExecOutcome) -> u64 {
    outcome
        .metrics
        .ops
        .iter()
        .map(|o| o.tuples_in[0] + o.tuples_in[1])
        .sum()
}

/// Measures N pipelining queries through one shared engine, back-to-back
/// and then concurrently. Every query is FP (all edges live streams) on a
/// deliberately small logical processor count, so one query leaves pool
/// headroom; each operation process pays the simulator's PRISMA-calibrated
/// startup cost (`SimParams::default().t_init`, §3.5). Back-to-back, every
/// query's startup stalls the whole pool; concurrently, the pool hides one
/// query's startup behind the others' tuple work — and on multicore hosts
/// additionally overlaps execution.
pub fn concurrent_comparison(
    relations: usize,
    n: usize,
    workers: usize,
    queries: usize,
    reps: usize,
) -> Result<ConcurrentComparison> {
    const PROCS_PER_QUERY: usize = 1;
    let startup = std::time::Duration::from_secs_f64(mj_sim::SimParams::default().t_init);
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(n, 23).generate_named("R", relations) {
        catalog.register(name, rel);
    }
    let tree = build(Shape::RightLinear, relations).expect("tree shape");
    let cards = node_cards(&tree, &UniformOneToOne { n: n as u64 });
    let costs = tree_costs(&tree, &cards, &CostModel::default());
    let binding = QueryBinding::regular(&tree, catalog.as_ref())?;
    let mut input = GeneratorInput::new(&tree, &cards, &costs, PROCS_PER_QUERY);
    input.allow_oversubscribe = true;
    let plan: ParallelPlan = generate(Strategy::FP, &input)?;

    let engine = Engine::new(
        catalog.clone(),
        ExecConfig {
            workers,
            startup_cost: Some(startup),
            ..ExecConfig::default()
        },
    )?;

    // Warm-up: fill allocator/page caches so both modes measure steady
    // state.
    consumed_tuples(&engine.run(&plan, &binding)?);

    let back_to_back = |queries: usize| -> Result<ConcurrentRun> {
        let started = Instant::now();
        let mut tuples = 0u64;
        for _ in 0..queries {
            tuples += consumed_tuples(&engine.run(&plan, &binding)?);
        }
        let elapsed = started.elapsed().as_secs_f64();
        Ok(ConcurrentRun {
            queries: queries as u64,
            tuples,
            elapsed_s: elapsed,
            tuples_per_sec: tuples as f64 / elapsed,
        })
    };
    let concurrent = |queries: usize| -> Result<ConcurrentRun> {
        let started = Instant::now();
        let mut tuples = 0u64;
        std::thread::scope(|scope| -> Result<()> {
            let handles: Vec<_> = (0..queries)
                .map(|_| {
                    let engine = &engine;
                    let plan = &plan;
                    let binding = &binding;
                    scope.spawn(move || engine.run(plan, binding).map(|o| consumed_tuples(&o)))
                })
                .collect();
            for h in handles {
                tuples += h.join().expect("client thread")?;
            }
            Ok(())
        })?;
        let elapsed = started.elapsed().as_secs_f64();
        Ok(ConcurrentRun {
            queries: queries as u64,
            tuples,
            elapsed_s: elapsed,
            tuples_per_sec: tuples as f64 / elapsed,
        })
    };

    // Best-of-reps for both modes (same discipline as the hot-path bench).
    let mut best_seq: Option<ConcurrentRun> = None;
    let mut best_conc: Option<ConcurrentRun> = None;
    for _ in 0..reps.max(1) {
        let s = back_to_back(queries)?;
        if best_seq.map(|b| s.elapsed_s < b.elapsed_s).unwrap_or(true) {
            best_seq = Some(s);
        }
        let c = concurrent(queries)?;
        if best_conc.map(|b| c.elapsed_s < b.elapsed_s).unwrap_or(true) {
            best_conc = Some(c);
        }
    }
    let back_to_back = best_seq.expect("at least one rep");
    let concurrent = best_conc.expect("at least one rep");
    // Per-pool count (not the process-global spawn counter, which other
    // pools in the same process would race): the engine's pool holds
    // exactly this many threads for its whole lifetime.
    let spawned = engine.pool().threads() as u64;

    Ok(ConcurrentComparison {
        workers,
        queries,
        relations,
        tuples_per_relation: n as u64,
        procs_per_query: PROCS_PER_QUERY,
        startup_cost_ms: startup.as_secs_f64() * 1e3,
        back_to_back,
        concurrent,
        speedup: concurrent.tuples_per_sec / back_to_back.tuples_per_sec,
        worker_threads_spawned: spawned,
    })
}

/// Produces the `BENCH_2.json` report: 4 pipelining queries on a 4-worker
/// shared engine (the acceptance configuration). `quick` shrinks the
/// workload for CI smoke runs.
pub fn bench2_report(quick: bool) -> Result<Bench2Report> {
    let (relations, n, reps) = if quick { (3, 2_000, 1) } else { (3, 6_000, 3) };
    Ok(Bench2Report {
        bench: 2,
        quick,
        concurrent: concurrent_comparison(relations, n, 4, 4, reps)?,
    })
}

/// Renders a `BENCH_2.json` report as pretty-enough JSON.
pub fn bench2_to_json(report: &Bench2Report) -> String {
    let json = serde_json::to_string(&report.to_json()).expect("serialization is total");
    json.replace("\"concurrent\":{", "\n\"concurrent\":{\n  ")
        .replace("\"back_to_back\":", "\n  \"back_to_back\":")
        .replace(
            "\"concurrent\":{\n  \"queries\"",
            "\n  \"concurrent\":{\"queries\"",
        )
        .replace("\"speedup\":", "\n  \"speedup\":")
        .replace("{\"bench\"", "{\n\"bench\"")
}

/// Validates the schema of an emitted `BENCH_2.json` (CI smoke run).
pub fn validate_bench2_json(text: &str) -> std::result::Result<(), String> {
    let v: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for key in ["bench", "quick", "concurrent"] {
        if v.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    let c = v.get("concurrent").expect("checked");
    for key in [
        "workers",
        "queries",
        "relations",
        "tuples_per_relation",
        "procs_per_query",
        "startup_cost_ms",
        "back_to_back",
        "concurrent",
        "speedup",
        "worker_threads_spawned",
    ] {
        if c.get(key).is_none() {
            return Err(format!("missing key `concurrent.{key}`"));
        }
    }
    for mode in ["back_to_back", "concurrent"] {
        let m = c.get(mode).expect("checked");
        for key in ["queries", "tuples", "elapsed_s", "tuples_per_sec"] {
            if m.get(key).is_none() {
                return Err(format!("missing key `concurrent.{mode}.{key}`"));
            }
        }
    }
    Ok(())
}

/// One fixed strategy measured against the planner on one query family.
#[derive(Clone, Debug, Serialize)]
pub struct FixedStrategyRun {
    /// Strategy label (SP/SE/RD/FP).
    pub strategy: String,
    /// The planner's estimated schedule cost for this strategy's best
    /// candidate (§4.3 cost units).
    pub est_cost: f64,
    /// Best (minimum) wall-clock seconds over the benchmark repetitions.
    pub elapsed_s: f64,
}

/// Planner pick vs the fixed-strategy grid on one query family.
#[derive(Clone, Debug, Serialize)]
pub struct PlannerFamilyRun {
    /// Family label (chain/star/skewed).
    pub family: String,
    /// Relations in the query.
    pub relations: usize,
    /// Base relation size.
    pub tuples: usize,
    /// The strategy the planner picked.
    pub planner_pick: String,
    /// The planner's estimated cost of its pick.
    pub planner_est_cost: f64,
    /// Best (minimum) wall-clock seconds of the planner's plan.
    pub planner_elapsed_s: f64,
    /// Every fixed strategy, measured on the same engine.
    pub strategies: Vec<FixedStrategyRun>,
    /// Fastest fixed strategy (measured).
    pub best_fixed: String,
    /// Its best wall-clock seconds.
    pub best_fixed_elapsed_s: f64,
    /// Slowest fixed strategy (measured).
    pub worst_fixed: String,
    /// Its best wall-clock seconds.
    pub worst_fixed_elapsed_s: f64,
    /// `planner_elapsed_s / best_fixed_elapsed_s` — the acceptance metric
    /// (<= 1.10 means the planner is within 10% of the best fixed
    /// strategy).
    pub ratio_vs_best: f64,
    /// Result cardinality (identical across all plans, engine-verified).
    pub result_tuples: u64,
    /// Worst per-operator cardinality q-error of the planner's plan.
    pub max_q_error: f64,
}

/// The whole `BENCH_3.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct Bench3Report {
    /// Monotone bench index (`BENCH_<bench>.json`).
    pub bench: u32,
    /// True for a shrunken `--quick` smoke run.
    pub quick: bool,
    /// Logical processors per plan.
    pub processors: usize,
    /// Repetitions per measurement (best-of-reps minimum taken).
    pub reps: usize,
    /// One entry per query family.
    pub families: Vec<PlannerFamilyRun>,
}

fn best_elapsed(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Benchmarks the planner's pick against every fixed strategy on one
/// query family. All plans run the planner's phase-1 tree selection (a
/// fixed strategy still gets the planner-chosen tree and allocation for
/// that strategy), so the comparison isolates *strategy choice*.
fn planner_family_run(
    family: mj_exec::QueryFamily,
    k: usize,
    n: usize,
    processors: usize,
    reps: usize,
    seed: u64,
) -> Result<PlannerFamilyRun> {
    use mj_exec::{generate_family, Planner, PlannerOptions};

    let instance = generate_family(family, k, n, seed)?;
    let config = ExecConfig::default();

    let auto = Planner::new(PlannerOptions::new(processors)).plan(&instance.query)?;
    let planner_pick = auto.strategy().label().to_string();

    // Plan all four fixed strategies up front.
    let fixed: Vec<mj_exec::PlannedQuery> = Strategy::ALL
        .iter()
        .map(|&strategy| {
            let mut options = PlannerOptions::new(processors);
            options.strategy = Some(strategy);
            Planner::new(options).plan(&instance.query)
        })
        .collect::<Result<_>>()?;

    // Warm-up + best-of-reps, with the repetitions *interleaved* across
    // strategies (round-robin): host jitter and thermal drift then hit
    // every strategy alike instead of biasing whichever ran last. Rep 0
    // is an untimed warm-up filling allocator and page caches.
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); fixed.len()];
    let mut result_tuples = 0u64;
    let mut max_q_error = 1.0f64;
    for rep in 0..reps.max(1) + 1 {
        for (i, planned) in fixed.iter().enumerate() {
            let outcome = run_plan(
                &planned.plan,
                &planned.binding,
                instance.catalog.as_ref(),
                &config,
            )?;
            let tuples = outcome.relation.len() as u64;
            if rep == 0 && i == 0 {
                result_tuples = tuples;
            } else if tuples != result_tuples {
                return Err(mj_relalg::RelalgError::InvalidPlan(format!(
                    "{} returned {tuples} tuples, expected {result_tuples}",
                    planned.strategy()
                )));
            }
            if planned.plan == auto.plan {
                max_q_error = outcome.metrics.max_q_error();
            }
            if rep > 0 {
                samples[i].push(outcome.elapsed.as_secs_f64());
            }
        }
    }

    let strategies: Vec<FixedStrategyRun> = fixed
        .iter()
        .zip(&samples)
        .map(|(planned, s)| FixedStrategyRun {
            strategy: planned.strategy().label().to_string(),
            est_cost: planned.estimate.makespan,
            elapsed_s: best_elapsed(s),
        })
        .collect();
    // The planner's pick *is* one of the fixed candidates; reusing its
    // measurement (instead of timing the identical plan twice) keeps the
    // ratio free of between-measurement noise.
    let planner_elapsed_s = fixed
        .iter()
        .zip(&strategies)
        .find(|(planned, _)| planned.plan == auto.plan)
        .map(|(_, run)| run.elapsed_s)
        .unwrap_or_else(|| {
            strategies
                .iter()
                .find(|r| r.strategy == planner_pick)
                .expect("pick is one of the four strategies")
                .elapsed_s
        });
    let best = strategies
        .iter()
        .min_by(|a, b| a.elapsed_s.partial_cmp(&b.elapsed_s).unwrap())
        .expect("four strategies")
        .clone();
    let worst = strategies
        .iter()
        .max_by(|a, b| a.elapsed_s.partial_cmp(&b.elapsed_s).unwrap())
        .expect("four strategies")
        .clone();

    Ok(PlannerFamilyRun {
        family: family.label().to_string(),
        relations: k,
        tuples: n,
        planner_pick,
        planner_est_cost: auto.estimate.makespan,
        planner_elapsed_s,
        ratio_vs_best: planner_elapsed_s / best.elapsed_s,
        best_fixed: best.strategy,
        best_fixed_elapsed_s: best.elapsed_s,
        worst_fixed: worst.strategy,
        worst_fixed_elapsed_s: worst.elapsed_s,
        strategies,
        result_tuples,
        max_q_error,
    })
}

/// Produces the `BENCH_3.json` report: the planner's pick vs the best and
/// worst fixed strategy on the three query families. `quick` shrinks the
/// workload for CI smoke runs.
pub fn bench3_report(quick: bool) -> Result<Bench3Report> {
    let (k, n, processors, reps) = if quick {
        (5, 800, 4, 3)
    } else {
        (6, 20_000, 4, 11)
    };
    let mut families = Vec::new();
    for family in mj_exec::QueryFamily::ALL {
        families.push(planner_family_run(family, k, n, processors, reps, 42)?);
    }
    Ok(Bench3Report {
        bench: 3,
        quick,
        processors,
        reps,
        families,
    })
}

/// Renders a `BENCH_3.json` report as pretty-enough JSON.
pub fn bench3_to_json(report: &Bench3Report) -> String {
    let json = serde_json::to_string(&report.to_json()).expect("serialization is total");
    json.replace("{\"bench\"", "{\n\"bench\"")
        .replace("\"families\":[", "\"families\":[\n  ")
        .replace("},{\"family\"", "},\n  {\"family\"")
        .replace("\"strategies\":[", "\n    \"strategies\":[\n      ")
        .replace("},{\"strategy\"", "},\n      {\"strategy\"")
        .replace("],\"best_fixed\"", "],\n    \"best_fixed\"")
        .replace("]}", "\n]}")
}

/// Validates the schema of an emitted `BENCH_3.json` (CI smoke run).
pub fn validate_bench3_json(text: &str) -> std::result::Result<(), String> {
    let v: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for key in ["bench", "quick", "processors", "reps", "families"] {
        if v.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    let families = match v.get("families") {
        Some(JsonValue::Arr(items)) if items.len() == 3 => items,
        _ => return Err("`families` must be an array of 3 runs".into()),
    };
    for f in families {
        for key in [
            "family",
            "relations",
            "tuples",
            "planner_pick",
            "planner_est_cost",
            "planner_elapsed_s",
            "strategies",
            "best_fixed",
            "best_fixed_elapsed_s",
            "worst_fixed",
            "worst_fixed_elapsed_s",
            "ratio_vs_best",
            "result_tuples",
            "max_q_error",
        ] {
            if f.get(key).is_none() {
                return Err(format!("missing key `families[].{key}`"));
            }
        }
        match f.get("strategies") {
            Some(JsonValue::Arr(items)) if items.len() == 4 => {}
            _ => return Err("`families[].strategies` must be an array of 4 runs".into()),
        }
    }
    Ok(())
}

/// The streamed run of the session benchmark: when the first batch
/// reached the client vs when the stream fully drained.
#[derive(Clone, Debug, Serialize)]
pub struct SessionStreamRun {
    /// Wall-clock seconds from submit to the first batch at the client.
    pub first_batch_s: f64,
    /// Wall-clock seconds from submit to the stream's final `End`.
    pub full_stream_s: f64,
    /// Batches delivered.
    pub batches: u64,
    /// Result tuples delivered.
    pub result_tuples: u64,
}

/// Time-to-first-batch vs time-to-full-materialization for one FP chain
/// query submitted through the session facade — the reason the root
/// output streams instead of materializing into `ExecOutcome.relation`.
#[derive(Clone, Debug, Serialize)]
pub struct SessionComparison {
    /// Relations in the chain query.
    pub relations: usize,
    /// Tuples per base relation.
    pub tuples_per_relation: u64,
    /// Worker threads in the engine pool.
    pub workers: usize,
    /// The forced strategy (FP: every edge a live pipeline).
    pub strategy: String,
    /// The text query submitted through `Database::query`.
    pub query: String,
    /// The streamed run (best-of-reps on full drain; first-batch is the
    /// minimum observed).
    pub streamed: SessionStreamRun,
    /// Wall-clock seconds for the same plan via the materializing wrapper
    /// (`Engine::run`), which only returns once everything is drained.
    pub materialized_s: f64,
    /// `materialized_s / streamed.first_batch_s` — how much sooner a
    /// streaming client sees its first results (> 1 is the acceptance
    /// criterion).
    pub first_batch_speedup: f64,
}

/// The whole `BENCH_4.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct Bench4Report {
    /// Monotone bench index (`BENCH_<bench>.json`).
    pub bench: u32,
    /// True for a shrunken `--quick` smoke run.
    pub quick: bool,
    /// The session streaming scenario.
    pub session: SessionComparison,
}

/// Measures time-to-first-batch vs time-to-full-materialization for an FP
/// chain query submitted through the session facade. Both paths run the
/// *same* planned query on the same engine; the streamed path is measured
/// from submit to first batch and to full drain, the materialized path is
/// `Engine::run` (drain-then-return). Best-of-`reps` each.
pub fn session_comparison(
    relations: usize,
    n: usize,
    workers: usize,
    reps: usize,
) -> Result<SessionComparison> {
    use mj_exec::{generate_family, Database, DbConfig, PlannerOptions, QueryFamily};
    use mj_relalg::RelationProvider;

    let instance = generate_family(QueryFamily::Chain, relations, n, 42)?;
    let mut config = DbConfig::default();
    config.exec.workers = workers;
    let mut planner = PlannerOptions::new(8);
    planner.strategy = Some(Strategy::FP);
    config.planner = planner;
    let db = Database::open(config)
        .map_err(|e| mj_relalg::RelalgError::InvalidPlan(format!("open session database: {e}")))?;
    let mut names = instance.catalog.names();
    names.sort();
    for name in &names {
        db.register(name, instance.catalog.relation(name)?)
            .map_err(|e| mj_relalg::RelalgError::InvalidPlan(e.to_string()))?;
    }
    db.analyze()
        .map_err(|e| mj_relalg::RelalgError::InvalidPlan(e.to_string()))?;

    let query = mj_exec::chain_query_sql(relations);
    let planned = db
        .plan(&query)
        .map_err(|e| mj_relalg::RelalgError::InvalidPlan(e.to_string()))?;
    let engine = db.engine();

    // Warm-up: fill allocator/page caches so both modes measure steady
    // state.
    engine.run(&planned.plan, &planned.binding)?;

    let mut best_stream: Option<SessionStreamRun> = None;
    let mut best_first = f64::INFINITY;
    let mut best_materialized = f64::INFINITY;
    for _ in 0..reps.max(1) {
        // Streamed: submit, stamp the first batch, drain.
        let started = Instant::now();
        let mut handle = engine.submit(&planned.plan, &planned.binding)?;
        let mut stream = handle.stream();
        let mut first_batch_s = None;
        let mut batches = 0u64;
        let mut tuples = 0u64;
        while let Some(batch) = stream.next_batch() {
            if first_batch_s.is_none() {
                first_batch_s = Some(started.elapsed().as_secs_f64());
            }
            batches += 1;
            tuples += batch.len() as u64;
        }
        drop(stream);
        handle.outcome()?;
        let full_stream_s = started.elapsed().as_secs_f64();
        let first = first_batch_s.unwrap_or(full_stream_s);
        best_first = best_first.min(first);
        if best_stream
            .as_ref()
            .map(|b| full_stream_s < b.full_stream_s)
            .unwrap_or(true)
        {
            best_stream = Some(SessionStreamRun {
                first_batch_s: first,
                full_stream_s,
                batches,
                result_tuples: tuples,
            });
        }

        // Materialized: the wrapper returns only after the full drain.
        let started = Instant::now();
        let outcome = engine.run(&planned.plan, &planned.binding)?;
        debug_assert_eq!(outcome.relation.len() as u64, tuples);
        best_materialized = best_materialized.min(started.elapsed().as_secs_f64());
    }
    let mut streamed = best_stream.expect("at least one rep");
    streamed.first_batch_s = best_first;

    Ok(SessionComparison {
        relations,
        tuples_per_relation: n as u64,
        workers,
        strategy: planned.strategy().label().to_string(),
        query,
        first_batch_speedup: best_materialized / streamed.first_batch_s,
        streamed,
        materialized_s: best_materialized,
    })
}

/// Produces the `BENCH_4.json` report: first-batch latency vs full
/// materialization for an FP chain query through the session facade.
/// `quick` shrinks the workload for CI smoke runs.
pub fn bench4_report(quick: bool) -> Result<Bench4Report> {
    let (relations, n, reps) = if quick { (4, 3_000, 1) } else { (6, 40_000, 5) };
    Ok(Bench4Report {
        bench: 4,
        quick,
        session: session_comparison(relations, n, 4, reps)?,
    })
}

/// Renders a `BENCH_4.json` report as pretty-enough JSON.
pub fn bench4_to_json(report: &Bench4Report) -> String {
    let json = serde_json::to_string(&report.to_json()).expect("serialization is total");
    json.replace("{\"bench\"", "{\n\"bench\"")
        .replace("\"session\":{", "\n\"session\":{\n  ")
        .replace("\"streamed\":", "\n  \"streamed\":")
        .replace("\"materialized_s\":", "\n  \"materialized_s\":")
        .replace("}}", "}\n}")
}

/// Validates the schema of an emitted `BENCH_4.json` (CI smoke run).
pub fn validate_bench4_json(text: &str) -> std::result::Result<(), String> {
    let v: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for key in ["bench", "quick", "session"] {
        if v.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    let s = v.get("session").expect("checked");
    for key in [
        "relations",
        "tuples_per_relation",
        "workers",
        "strategy",
        "query",
        "streamed",
        "materialized_s",
        "first_batch_speedup",
    ] {
        if s.get(key).is_none() {
            return Err(format!("missing key `session.{key}`"));
        }
    }
    let run = s.get("streamed").expect("checked");
    for key in ["first_batch_s", "full_stream_s", "batches", "result_tuples"] {
        if run.get(key).is_none() {
            return Err(format!("missing key `session.streamed.{key}`"));
        }
    }
    Ok(())
}

/// One pushdown mode of the operator benchmark.
#[derive(Clone, Debug, Serialize)]
pub struct PushdownRun {
    /// Whether the planner pushed the WHERE filter below the joins.
    pub pushdown: bool,
    /// Strategy the planner picked in this mode.
    pub strategy: String,
    /// Best-of-reps wall-clock seconds for the full query (setup-inclusive;
    /// pushed filters run inside the scanning instances).
    pub elapsed_s: f64,
    /// Result tuples (must agree across modes).
    pub result_tuples: u64,
}

/// Filter pushdown on a selective chain query: the same WHERE query
/// planned with pushdown on (filters at the scans, selectivity folded
/// into every estimate) vs off (a residual `FilterOp` stage above the
/// root join) — the headline number of the operator-framework PR.
#[derive(Clone, Debug, Serialize)]
pub struct OperatorComparison {
    /// Relations in the chain.
    pub relations: usize,
    /// Tuples per base relation.
    pub tuples_per_relation: u64,
    /// Worker threads in each engine pool.
    pub workers: usize,
    /// The text query (WHERE keeps ~2% of the filtered relation).
    pub query: String,
    /// Pushdown enabled (the default planner behaviour).
    pub pushdown_on: PushdownRun,
    /// Pushdown disabled (filter runs above the joins).
    pub pushdown_off: PushdownRun,
    /// `pushdown_off.elapsed_s / pushdown_on.elapsed_s` (> 1 means the
    /// pushdown wins; the checked-in baseline must show >= 1.5).
    pub pushdown_speedup: f64,
}

/// The whole `BENCH_5.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct Bench5Report {
    /// Monotone bench index (`BENCH_<bench>.json`).
    pub bench: u32,
    /// True for a shrunken `--quick` smoke run.
    pub quick: bool,
    /// The filter-pushdown scenario.
    pub operators: OperatorComparison,
}

/// Measures the selective filtered chain with pushdown on vs off. Both
/// modes run the *same* text query on identically seeded databases;
/// elapsed time is wall clock around a materializing run (best of `reps`)
/// and includes setup, since pushed filters execute during base
/// fragmentation. Results are checked multiset-equal across modes.
pub fn operator_comparison(
    relations: usize,
    n: usize,
    workers: usize,
    reps: usize,
) -> Result<OperatorComparison> {
    use mj_exec::{generate_family, Database, DbConfig, QueryFamily};
    use mj_relalg::RelationProvider;

    let err = |e: mj_exec::MjError| mj_relalg::RelalgError::InvalidPlan(e.to_string());
    let instance = generate_family(QueryFamily::Chain, relations, n, 42)?;
    // ~2% of the filtered relation survives.
    let query = format!(
        "{} WHERE R0.id < {}",
        mj_exec::chain_query_sql(relations),
        (n / 50).max(1)
    );

    let mut runs: Vec<PushdownRun> = Vec::new();
    let mut results: Vec<mj_relalg::Relation> = Vec::new();
    for pushdown in [true, false] {
        let mut config = DbConfig::default();
        config.exec.workers = workers;
        config.planner.pushdown = pushdown;
        let db = Database::open(config).map_err(err)?;
        let mut names = instance.catalog.names();
        names.sort();
        for name in &names {
            db.register(name, instance.catalog.relation(name)?)
                .map_err(err)?;
        }
        db.analyze().map_err(err)?;
        let planned = db.plan(&query).map_err(err)?;
        // Warm-up run (also captures the result for cross-mode checks).
        let warm = db.engine().run(&planned.plan, &planned.binding)?;
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let started = Instant::now();
            let outcome = db.engine().run(&planned.plan, &planned.binding)?;
            best = best.min(started.elapsed().as_secs_f64());
            debug_assert_eq!(outcome.relation.len(), warm.relation.len());
        }
        runs.push(PushdownRun {
            pushdown,
            strategy: planned.strategy().label().to_string(),
            elapsed_s: best,
            result_tuples: warm.relation.len() as u64,
        });
        results.push(warm.relation);
    }
    if !results[0].multiset_eq(&results[1]) {
        return Err(mj_relalg::RelalgError::InvalidPlan(format!(
            "pushdown changed the result: {} vs {} rows",
            results[0].len(),
            results[1].len()
        )));
    }
    let off = runs.pop().expect("two runs");
    let on = runs.pop().expect("two runs");
    Ok(OperatorComparison {
        relations,
        tuples_per_relation: n as u64,
        workers,
        query,
        pushdown_speedup: off.elapsed_s / on.elapsed_s,
        pushdown_on: on,
        pushdown_off: off,
    })
}

/// Produces the `BENCH_5.json` report: filter pushdown on a selective
/// chain query. `quick` shrinks the workload for CI smoke runs.
pub fn bench5_report(quick: bool) -> Result<Bench5Report> {
    let (relations, n, reps) = if quick { (4, 4_000, 2) } else { (6, 40_000, 5) };
    Ok(Bench5Report {
        bench: 5,
        quick,
        operators: operator_comparison(relations, n, 4, reps)?,
    })
}

/// Renders a `BENCH_5.json` report as pretty-enough JSON.
pub fn bench5_to_json(report: &Bench5Report) -> String {
    let json = serde_json::to_string(&report.to_json()).expect("serialization is total");
    json.replace("{\"bench\"", "{\n\"bench\"")
        .replace("\"operators\":{", "\n\"operators\":{\n  ")
        .replace("\"pushdown_on\":", "\n  \"pushdown_on\":")
        .replace("\"pushdown_off\":", "\n  \"pushdown_off\":")
        .replace("\"pushdown_speedup\":", "\n  \"pushdown_speedup\":")
        .replace("}}", "}\n}")
}

/// Validates the schema of an emitted `BENCH_5.json` (CI smoke run).
pub fn validate_bench5_json(text: &str) -> std::result::Result<(), String> {
    let v: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for key in ["bench", "quick", "operators"] {
        if v.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    let o = v.get("operators").expect("checked");
    for key in [
        "relations",
        "tuples_per_relation",
        "workers",
        "query",
        "pushdown_on",
        "pushdown_off",
        "pushdown_speedup",
    ] {
        if o.get(key).is_none() {
            return Err(format!("missing key `operators.{key}`"));
        }
    }
    for mode in ["pushdown_on", "pushdown_off"] {
        let run = o.get(mode).expect("checked");
        for key in ["pushdown", "strategy", "elapsed_s", "result_tuples"] {
            if run.get(key).is_none() {
                return Err(format!("missing key `operators.{mode}.{key}`"));
            }
        }
    }
    Ok(())
}

/// One guardrail mode of the overhead benchmark.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GuardrailRun {
    /// Best-of-reps wall-clock seconds for the join workload.
    pub elapsed_s: f64,
    /// Operator-consumed tuples per second at that best time.
    pub tuples_per_sec: f64,
}

/// Guardrails-on vs guardrails-off on the BENCH_1 join hot path.
///
/// Both modes run the identical FP right-linear chain on engines over the
/// same catalog; the *on* engine additionally carries a (generous)
/// deadline, a stall watchdog, a memory budget, and admission control, so
/// the ratio isolates the per-step limit checks, the coordinator's
/// watchdog tick, the budget sync, and the admission handshake. The
/// acceptance bar is `overhead_ratio <= 1.05`.
#[derive(Clone, Debug, Serialize)]
pub struct OverheadComparison {
    /// Relations in the chain query.
    pub relations: usize,
    /// Tuples per base relation.
    pub tuples_per_relation: u64,
    /// Worker threads in each engine pool.
    pub workers: usize,
    /// The strategy both modes run (FP: the pipelining hot path).
    pub strategy: String,
    /// No deadline, no stall watchdog, no budget cap, no admission —
    /// `ExecConfig::default()`, the pre-guardrail engine.
    pub guardrails_off: GuardrailRun,
    /// Every guardrail armed with limits the workload never reaches.
    pub guardrails_on: GuardrailRun,
    /// `guardrails_on.elapsed_s / guardrails_off.elapsed_s` (1.0 = free;
    /// the checked-in baseline must stay <= 1.05).
    pub overhead_ratio: f64,
}

/// Latency distribution of the well-behaved queries in one admission mode.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct NoisyNeighborRun {
    /// p99 (with 8 samples per rep: the worst latency) in seconds,
    /// best-of-reps.
    pub p99_s: f64,
    /// Mean latency in seconds over all samples of the best rep.
    pub mean_s: f64,
    /// Light-query latency samples per repetition.
    pub samples: u64,
}

/// Well-behaved query latency under budget-busting noisy neighbors, with
/// the guardrail layer on vs off.
///
/// Four noisy chain queries large enough to monopolize the pool are
/// launched, then eight small "well-behaved" queries are timed submit to
/// drain. *Unprotected*, everything shares the pool and the small queries
/// inherit the neighbors' runtime. *Protected*, admission control bounds
/// in-flight queries (FIFO queue, no rejection at this depth) and each
/// noisy query carries a memory budget it immediately busts, so the
/// guardrails abort it with `ResourceExhausted` and the slot frees for the
/// well-behaved traffic. The acceptance bar is `p99_improvement >= 1.5`.
#[derive(Clone, Debug, Serialize)]
pub struct AdmissionComparison {
    /// Worker threads in each engine pool.
    pub workers: usize,
    /// Well-behaved queries timed per repetition.
    pub light_queries: usize,
    /// Noisy-neighbor queries launched per repetition.
    pub noisy_queries: usize,
    /// Tuples per relation of the well-behaved chain.
    pub light_tuples: u64,
    /// Tuples per relation of the noisy chain.
    pub noisy_tuples: u64,
    /// `ExecConfig::max_concurrent` in the protected engine.
    pub max_concurrent: usize,
    /// Per-query memory budget (bytes) given to noisy queries in the
    /// protected engine — sized so they bust it within a few steps.
    pub noisy_budget_bytes: u64,
    /// No admission control, no budgets: everyone shares the pool.
    pub unprotected: NoisyNeighborRun,
    /// Admission control + noisy budgets: the guardrail layer at work.
    pub protected: NoisyNeighborRun,
    /// Budget aborts recorded by the protected engine (at least
    /// `noisy_queries * reps`: every noisy query must have been shed).
    pub noisy_budget_aborts: u64,
    /// `unprotected.p99_s / protected.p99_s` (> 1 means the guardrails
    /// protect the well-behaved tenants; the checked-in baseline must
    /// show >= 1.5).
    pub p99_improvement: f64,
}

/// The whole `BENCH_6.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct Bench6Report {
    /// Monotone bench index (`BENCH_<bench>.json`).
    pub bench: u32,
    /// True for a shrunken `--quick` smoke run.
    pub quick: bool,
    /// Guardrails-on vs off on the join hot path.
    pub overhead: OverheadComparison,
    /// Noisy-neighbor p99 with vs without the guardrail layer.
    pub admission: AdmissionComparison,
}

/// Warm-up once, then best-of-`reps` on one engine.
fn guardrail_run(
    engine: &Engine,
    plan: &ParallelPlan,
    binding: &QueryBinding,
    reps: usize,
) -> Result<GuardrailRun> {
    consumed_tuples(&engine.run(plan, binding)?);
    let mut best: Option<GuardrailRun> = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let tuples = consumed_tuples(&engine.run(plan, binding)?);
        let elapsed = started.elapsed().as_secs_f64();
        if best.map(|b| elapsed < b.elapsed_s).unwrap_or(true) {
            best = Some(GuardrailRun {
                elapsed_s: elapsed,
                tuples_per_sec: tuples as f64 / elapsed,
            });
        }
    }
    Ok(best.expect("at least one rep"))
}

/// Measures the guardrail layer's overhead on the BENCH_1-style join
/// workload: the same FP chain plan on a bare engine vs one with every
/// guardrail armed (at limits the workload never reaches, so the cost is
/// pure bookkeeping).
pub fn overhead_comparison(
    relations: usize,
    n: usize,
    workers: usize,
    reps: usize,
) -> Result<OverheadComparison> {
    let catalog = Arc::new(Catalog::new());
    for (name, rel) in WisconsinGenerator::new(n, 42).generate_named("R", relations) {
        catalog.register(name, rel);
    }
    let tree = build(Shape::RightLinear, relations).expect("tree shape");
    let cards = node_cards(&tree, &UniformOneToOne { n: n as u64 });
    let costs = tree_costs(&tree, &cards, &CostModel::default());
    let binding = QueryBinding::regular(&tree, catalog.as_ref())?;
    let mut input = GeneratorInput::new(&tree, &cards, &costs, workers);
    input.allow_oversubscribe = workers < tree.join_count();
    let plan = generate(Strategy::FP, &input)?;

    let off_cfg = ExecConfig {
        workers,
        ..ExecConfig::default()
    };
    let on_cfg = ExecConfig {
        workers,
        deadline: Some(std::time::Duration::from_secs(300)),
        stall_timeout: Some(std::time::Duration::from_secs(30)),
        memory_budget: Some(4 << 30),
        max_concurrent: Some(8),
        ..ExecConfig::default()
    };
    let off_engine = Engine::new(catalog.clone(), off_cfg)?;
    let on_engine = Engine::new(catalog.clone(), on_cfg)?;
    // Interleave the repetitions (same discipline as BENCH_3): host
    // jitter and thermal drift then hit both modes alike instead of
    // biasing whichever ran last.
    let mut off: Option<GuardrailRun> = None;
    let mut on: Option<GuardrailRun> = None;
    for _ in 0..reps.max(1) {
        let o = guardrail_run(&off_engine, &plan, &binding, 1)?;
        if off.map(|b| o.elapsed_s < b.elapsed_s).unwrap_or(true) {
            off = Some(o);
        }
        let o = guardrail_run(&on_engine, &plan, &binding, 1)?;
        if on.map(|b| o.elapsed_s < b.elapsed_s).unwrap_or(true) {
            on = Some(o);
        }
    }
    let off = off.expect("at least one rep");
    let on = on.expect("at least one rep");

    Ok(OverheadComparison {
        relations,
        tuples_per_relation: n as u64,
        workers,
        strategy: Strategy::FP.label().to_string(),
        overhead_ratio: on.elapsed_s / off.elapsed_s,
        guardrails_off: off,
        guardrails_on: on,
    })
}

/// The chain-family SQL with relations registered under `prefix{i}`
/// instead of `R{i}` (so light and noisy relation sets coexist in one
/// catalog).
fn prefixed_chain_sql(prefix: &str, k: usize) -> String {
    let mut q = format!("SELECT * FROM {prefix}0");
    for i in 1..k {
        q.push_str(&format!(
            " JOIN {prefix}{i} ON {prefix}{}.b = {prefix}{i}.a",
            i - 1
        ));
    }
    q
}

/// Measures light-query p99 under noisy neighbors with the guardrail
/// layer off (`protect = false`: plain shared pool) and on (`protect =
/// true`: admission control bounds in-flight queries and every noisy
/// query carries a budget it busts).
pub fn admission_comparison(
    light_k: usize,
    light_n: usize,
    noisy_k: usize,
    noisy_n: usize,
    workers: usize,
    reps: usize,
) -> Result<AdmissionComparison> {
    use mj_exec::{generate_family, Database, DbConfig, QueryFamily, QueryOptions};
    use mj_relalg::RelationProvider;

    const NOISY: usize = 4;
    const LIGHT: usize = 8;
    const MAX_CONCURRENT: usize = 2;
    const NOISY_BUDGET: u64 = 128 * 1024;

    let err = |e: mj_exec::MjError| mj_relalg::RelalgError::InvalidPlan(e.to_string());
    let lights = generate_family(QueryFamily::Chain, light_k, light_n, 5)?;
    let noisy = generate_family(QueryFamily::Chain, noisy_k, noisy_n, 6)?;
    let light_sql = prefixed_chain_sql("L", light_k);
    let noisy_sql = prefixed_chain_sql("N", noisy_k);

    let open_db = |protect: bool| -> Result<Database> {
        let mut config = DbConfig::default();
        config.exec.workers = workers;
        if protect {
            config.exec.max_concurrent = Some(MAX_CONCURRENT);
        }
        let db = Database::open(config).map_err(err)?;
        for i in 0..light_k {
            db.register(format!("L{i}"), lights.catalog.relation(&format!("R{i}"))?)
                .map_err(err)?;
        }
        for i in 0..noisy_k {
            db.register(format!("N{i}"), noisy.catalog.relation(&format!("R{i}"))?)
                .map_err(err)?;
        }
        db.analyze().map_err(err)?;
        Ok(db)
    };

    let run_mode = |db: &Database, protect: bool| -> Result<NoisyNeighborRun> {
        // Warm-up: allocator and page caches, and the light plan itself.
        db.query(&light_sql).map_err(err)?.collect()?;
        let mut best: Option<NoisyNeighborRun> = None;
        for _ in 0..reps.max(1) {
            let latencies: Vec<f64> = std::thread::scope(|scope| -> Result<Vec<f64>> {
                // Noisy neighbors first, so they are established by the
                // time the well-behaved queries arrive. Protected, each
                // carries a budget it busts within a few quanta —
                // `ResourceExhausted` here is the guardrail working, so
                // only submission errors are real failures.
                let noisy_handles: Vec<_> = (0..NOISY)
                    .map(|_| {
                        scope.spawn(|| {
                            let opts = if protect {
                                QueryOptions::new().with_memory_budget(NOISY_BUDGET)
                            } else {
                                QueryOptions::default()
                            };
                            db.query_with(&noisy_sql, opts).map(|h| {
                                let _ = h.collect();
                            })
                        })
                    })
                    .collect();
                std::thread::sleep(std::time::Duration::from_millis(10));
                let light_handles: Vec<_> = (0..LIGHT)
                    .map(|_| {
                        scope.spawn(|| -> Result<f64> {
                            let started = Instant::now();
                            db.query(&light_sql).map_err(err)?.collect()?;
                            Ok(started.elapsed().as_secs_f64())
                        })
                    })
                    .collect();
                let mut latencies = Vec::with_capacity(LIGHT);
                for h in light_handles {
                    latencies.push(h.join().expect("light client thread")?);
                }
                for h in noisy_handles {
                    h.join().expect("noisy client thread").map_err(err)?;
                }
                Ok(latencies)
            })?;
            let p99 = latencies.iter().copied().fold(0.0f64, f64::max);
            let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
            if best.map(|b| p99 < b.p99_s).unwrap_or(true) {
                best = Some(NoisyNeighborRun {
                    p99_s: p99,
                    mean_s: mean,
                    samples: latencies.len() as u64,
                });
            }
        }
        Ok(best.expect("at least one rep"))
    };

    let unprotected_db = open_db(false)?;
    let protected_db = open_db(true)?;
    let unprotected = run_mode(&unprotected_db, false)?;
    let protected = run_mode(&protected_db, true)?;
    let noisy_budget_aborts = protected_db.stats().budget_aborts;

    Ok(AdmissionComparison {
        workers,
        light_queries: LIGHT,
        noisy_queries: NOISY,
        light_tuples: light_n as u64,
        noisy_tuples: noisy_n as u64,
        max_concurrent: MAX_CONCURRENT,
        noisy_budget_bytes: NOISY_BUDGET,
        p99_improvement: unprotected.p99_s / protected.p99_s,
        unprotected,
        protected,
        noisy_budget_aborts,
    })
}

/// Produces the `BENCH_6.json` report: guardrail overhead on the join hot
/// path plus noisy-neighbor p99 with vs without the guardrail layer.
/// `quick` shrinks the workload for CI smoke runs.
pub fn bench6_report(quick: bool) -> Result<Bench6Report> {
    let (relations, n, reps) = if quick { (4, 2_000, 2) } else { (6, 20_000, 5) };
    let (light_n, noisy_n, adm_reps) = if quick {
        (500, 4_000, 1)
    } else {
        (1_000, 8_000, 3)
    };
    Ok(Bench6Report {
        bench: 6,
        quick,
        overhead: overhead_comparison(relations, n, 4, reps)?,
        admission: admission_comparison(3, light_n, 4, noisy_n, 4, adm_reps)?,
    })
}

/// Renders a `BENCH_6.json` report as pretty-enough JSON.
pub fn bench6_to_json(report: &Bench6Report) -> String {
    let json = serde_json::to_string(&report.to_json()).expect("serialization is total");
    json.replace("{\"bench\"", "{\n\"bench\"")
        .replace("\"overhead\":{", "\n\"overhead\":{\n  ")
        .replace("\"guardrails_off\":", "\n  \"guardrails_off\":")
        .replace("\"guardrails_on\":", "\n  \"guardrails_on\":")
        .replace("\"admission\":{", "\n\"admission\":{\n  ")
        .replace("\"unprotected\":", "\n  \"unprotected\":")
        .replace("\"protected\":", "\n  \"protected\":")
        .replace("\"p99_improvement\":", "\n  \"p99_improvement\":")
        .replace("}}", "}\n}")
}

/// Validates the schema of an emitted `BENCH_6.json` (CI smoke run).
pub fn validate_bench6_json(text: &str) -> std::result::Result<(), String> {
    let v: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for key in ["bench", "quick", "overhead", "admission"] {
        if v.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    let o = v.get("overhead").expect("checked");
    for key in [
        "relations",
        "tuples_per_relation",
        "workers",
        "strategy",
        "guardrails_off",
        "guardrails_on",
        "overhead_ratio",
    ] {
        if o.get(key).is_none() {
            return Err(format!("missing key `overhead.{key}`"));
        }
    }
    for mode in ["guardrails_off", "guardrails_on"] {
        let run = o.get(mode).expect("checked");
        for key in ["elapsed_s", "tuples_per_sec"] {
            if run.get(key).is_none() {
                return Err(format!("missing key `overhead.{mode}.{key}`"));
            }
        }
    }
    let a = v.get("admission").expect("checked");
    for key in [
        "workers",
        "light_queries",
        "noisy_queries",
        "light_tuples",
        "noisy_tuples",
        "max_concurrent",
        "noisy_budget_bytes",
        "unprotected",
        "protected",
        "noisy_budget_aborts",
        "p99_improvement",
    ] {
        if a.get(key).is_none() {
            return Err(format!("missing key `admission.{key}`"));
        }
    }
    for mode in ["unprotected", "protected"] {
        let run = a.get(mode).expect("checked");
        for key in ["p99_s", "mean_s", "samples"] {
            if run.get(key).is_none() {
                return Err(format!("missing key `admission.{mode}.{key}`"));
            }
        }
    }
    Ok(())
}

/// One timed kernel mode of the columnar-vs-row benchmark.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct KernelRun {
    /// Probe rows pushed through the kernel.
    pub rows: u64,
    /// Join matches produced (must agree across modes).
    pub matches: u64,
    /// Best-of-reps wall-clock seconds (build + probe + output assembly).
    pub elapsed_s: f64,
    /// Probe rows per second at that best time.
    pub rows_per_sec: f64,
}

/// The BENCH_1 join hot path re-measured kernel-for-kernel: the retained
/// row-at-a-time join ([`SimpleJoinState`](mj_join::SimpleJoinState):
/// per-`Tuple` build, per-`Tuple` probe, one output `Tuple` per match)
/// against the columnar kernel ([`ColumnarTable`](mj_join::ColumnarTable):
/// batch build over a dense key column, `probe_into` match-pair vectors,
/// `append_concat_gather` output assembly). Both consume the same
/// relations in the same batch rhythm and must produce the same match
/// count. The checked-in baseline must show `speedup >= 1.3`.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct JoinKernelComparison {
    /// Rows per relation.
    pub rows: u64,
    /// Probe-batch granularity (the engine's default batch size).
    pub batch_rows: usize,
    /// Timing repetitions (best-of).
    pub reps: usize,
    /// The seed's per-tuple kernel.
    pub row_path: KernelRun,
    /// The vectorized kernel.
    pub columnar: KernelRun,
    /// `row_path.elapsed_s / columnar.elapsed_s` (> 1 means the columnar
    /// kernel wins).
    pub speedup: f64,
}

/// The whole `BENCH_7.json` document: the columnar flip measured three
/// ways — the join kernel in isolation, and the BENCH_5 pushdown chain
/// plus the BENCH_6 guardrail-overhead scenario re-run end-to-end on the
/// columnar engine (CI gates the latter two against the row-era
/// baselines: no more than 5% regression).
#[derive(Clone, Debug, Serialize)]
pub struct Bench7Report {
    /// Monotone bench index (`BENCH_<bench>.json`).
    pub bench: u32,
    /// True for a shrunken `--quick` smoke run.
    pub quick: bool,
    /// Columnar vs row-path join kernels.
    pub join_kernels: JoinKernelComparison,
    /// The BENCH_5 selective pushdown chain on the columnar engine.
    pub pushdown: OperatorComparison,
    /// The BENCH_6 guardrails-on/off chain on the columnar engine.
    pub guardrail_overhead: OverheadComparison,
}

/// Measures the row-path and columnar join kernels over identical data:
/// `n`-row build and probe relations in the Wisconsin shape
/// (`unique1, unique2, filler`), joined on a permutation key (every probe
/// row matches exactly once), output projected to three columns. Probes
/// arrive in `batch_rows` chunks and the output buffer is drained per
/// chunk — the engine's flush rhythm — so neither mode gets to amortize
/// into one giant allocation.
pub fn join_kernel_comparison(n: usize, reps: usize) -> Result<JoinKernelComparison> {
    use mj_relalg::column::ColumnBatch;
    use mj_relalg::{EquiJoin, Projection};

    const BATCH_ROWS: usize = 1024;
    let mut rels = WisconsinGenerator::new(n, 7).generate_named("J", 2);
    let (_, probe_rel) = rels.pop().expect("two relations");
    let (_, build_rel) = rels.pop().expect("two relations");
    // Join on unique1 = unique1, keep (build.unique2, key, probe.unique2).
    let spec = EquiJoin::new(0, 0, Projection::new(vec![1, 0, 4]));

    // Row path: the seed's per-tuple kernel, kept in mj-join.
    let mut row = KernelRun {
        rows: n as u64,
        matches: 0,
        elapsed_s: f64::INFINITY,
        rows_per_sec: 0.0,
    };
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let mut state = mj_join::SimpleJoinState::with_capacity(spec.clone(), n);
        for t in build_rel.tuples() {
            state.build(t.clone())?;
        }
        state.finish_build();
        let mut matches = 0u64;
        let mut out: Vec<Tuple> = Vec::new();
        for chunk in probe_rel.tuples().chunks(BATCH_ROWS) {
            for t in chunk {
                state.probe(t, &mut out)?;
            }
            matches += out.len() as u64;
            out.clear(); // flushed downstream
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed < row.elapsed_s {
            row.elapsed_s = elapsed;
            row.rows_per_sec = n as f64 / elapsed;
        }
        row.matches = matches;
    }

    // Columnar path: batch build, vectorized probe, gathered output.
    let mut col = KernelRun {
        rows: n as u64,
        matches: 0,
        elapsed_s: f64::INFINITY,
        rows_per_sec: 0.0,
    };
    let build_cols = ColumnBatch::from_relation(&build_rel)?;
    let probe_cols = ColumnBatch::from_relation(&probe_rel)?;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let mut table = mj_join::ColumnarTable::with_capacity(n);
        table.insert_batch(&build_cols, spec.left_key, 0..build_cols.rows())?;
        let keys = probe_cols.int_col(spec.right_key)?;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut out = ColumnBatch::shapeless();
        let mut matches = 0u64;
        let mut start = 0;
        while start < probe_cols.rows() {
            let end = (start + BATCH_ROWS).min(probe_cols.rows());
            pairs.clear();
            table.probe_into(keys, start..end, &mut pairs);
            out.append_concat_gather(table.rows(), &probe_cols, spec.projection.cols(), &pairs)?;
            matches += out.rows() as u64;
            out.clear(); // flushed downstream (buffer recycled)
            start = end;
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed < col.elapsed_s {
            col.elapsed_s = elapsed;
            col.rows_per_sec = n as f64 / elapsed;
        }
        col.matches = matches;
    }

    if row.matches != col.matches {
        return Err(mj_relalg::RelalgError::InvalidPlan(format!(
            "kernel disagreement: row path {} matches, columnar {}",
            row.matches, col.matches
        )));
    }
    Ok(JoinKernelComparison {
        rows: n as u64,
        batch_rows: BATCH_ROWS,
        reps: reps.max(1),
        speedup: row.elapsed_s / col.elapsed_s,
        row_path: row,
        columnar: col,
    })
}

/// Produces the `BENCH_7.json` report. `quick` shrinks the workload for
/// CI smoke runs; the checked-in baseline uses the full size.
pub fn bench7_report(quick: bool) -> Result<Bench7Report> {
    let (kernel_n, kernel_reps) = if quick { (50_000, 2) } else { (400_000, 5) };
    // Same workload shapes as the BENCH_5 / BENCH_6 baselines so the
    // end-to-end numbers are directly comparable across the flip.
    let (p_relations, p_n, p_reps) = if quick { (4, 4_000, 2) } else { (6, 40_000, 5) };
    let (o_relations, o_n, o_reps) = if quick { (4, 2_000, 2) } else { (6, 20_000, 5) };
    Ok(Bench7Report {
        bench: 7,
        quick,
        join_kernels: join_kernel_comparison(kernel_n, kernel_reps)?,
        pushdown: operator_comparison(p_relations, p_n, 4, p_reps)?,
        guardrail_overhead: overhead_comparison(o_relations, o_n, 4, o_reps)?,
    })
}

/// Renders a `BENCH_7.json` report as pretty-enough JSON.
pub fn bench7_to_json(report: &Bench7Report) -> String {
    let json = serde_json::to_string(&report.to_json()).expect("serialization is total");
    json.replace("{\"bench\"", "{\n\"bench\"")
        .replace("\"join_kernels\":{", "\n\"join_kernels\":{\n  ")
        .replace("\"row_path\":", "\n  \"row_path\":")
        .replace("\"columnar\":", "\n  \"columnar\":")
        .replace("\"speedup\":", "\n  \"speedup\":")
        .replace("\"pushdown\":{", "\n\"pushdown\":{\n  ")
        .replace("\"pushdown_on\":", "\n  \"pushdown_on\":")
        .replace("\"pushdown_off\":", "\n  \"pushdown_off\":")
        .replace("\"pushdown_speedup\":", "\n  \"pushdown_speedup\":")
        .replace("\"guardrail_overhead\":{", "\n\"guardrail_overhead\":{\n  ")
        .replace("\"guardrails_off\":", "\n  \"guardrails_off\":")
        .replace("\"guardrails_on\":", "\n  \"guardrails_on\":")
        .replace("}}", "}\n}")
}

/// Validates the schema of an emitted `BENCH_7.json` (CI smoke run).
pub fn validate_bench7_json(text: &str) -> std::result::Result<(), String> {
    let v: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for key in [
        "bench",
        "quick",
        "join_kernels",
        "pushdown",
        "guardrail_overhead",
    ] {
        if v.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    let k = v.get("join_kernels").expect("checked");
    for key in [
        "rows",
        "batch_rows",
        "reps",
        "row_path",
        "columnar",
        "speedup",
    ] {
        if k.get(key).is_none() {
            return Err(format!("missing key `join_kernels.{key}`"));
        }
    }
    for mode in ["row_path", "columnar"] {
        let run = k.get(mode).expect("checked");
        for key in ["rows", "matches", "elapsed_s", "rows_per_sec"] {
            if run.get(key).is_none() {
                return Err(format!("missing key `join_kernels.{mode}.{key}`"));
            }
        }
    }
    let p = v.get("pushdown").expect("checked");
    for key in ["pushdown_on", "pushdown_off", "pushdown_speedup"] {
        if p.get(key).is_none() {
            return Err(format!("missing key `pushdown.{key}`"));
        }
    }
    let o = v.get("guardrail_overhead").expect("checked");
    for key in ["guardrails_off", "guardrails_on", "overhead_ratio"] {
        if o.get(key).is_none() {
            return Err(format!("missing key `guardrail_overhead.{key}`"));
        }
    }
    Ok(())
}

/// One microbenchmarked SIMD kernel: the scalar reference against the
/// runtime-dispatched vector path over identical inputs.
#[derive(Clone, Debug, Serialize)]
pub struct SimdKernelBench {
    /// Kernel name (`select_cmp`, `gather`, `gather_pairs`, `aggregate`,
    /// `bucket_hash`).
    pub name: String,
    /// Best-of-reps scalar seconds.
    pub scalar_s: f64,
    /// Best-of-reps vector-path seconds (falls back to scalar on hosts
    /// without AVX2, where `speedup` hovers near 1.0).
    pub simd_s: f64,
    /// `scalar_s / simd_s`.
    pub speedup: f64,
    /// Which variant the engine actually ships for this kernel
    /// (`"simd"` behind runtime detection, or `"scalar"` when the vector
    /// path did not pay — bucket hashing ships scalar).
    pub shipped: String,
}

/// The per-kernel SIMD section of `BENCH_8.json`.
#[derive(Clone, Debug, Serialize)]
pub struct SimdSection {
    /// Whether the measuring host dispatched the AVX2 paths.
    pub simd_enabled: bool,
    /// Elements per kernel invocation.
    pub elements: u64,
    /// Kernel passes per timed rep (amortizes clock granularity).
    pub passes: usize,
    /// Timing repetitions (best-of).
    pub reps: usize,
    /// One entry per kernel.
    pub kernels: Vec<SimdKernelBench>,
}

/// One end-to-end arm of the late-vs-eager comparison.
#[derive(Clone, Debug, Serialize)]
pub struct LateRun {
    /// The `LateMode` forced for this arm.
    pub late_mode: String,
    /// Best-of-reps wall-clock seconds.
    pub elapsed_s: f64,
    /// Result rows (must agree across arms).
    pub result_tuples: u64,
}

/// The end-to-end late-materialization comparison: a wide 6-relation
/// chain evaluated eagerly (payloads copied through every join) and late
/// (joins move refs, one gather at the root). Both arms must return the
/// same multiset; the checked-in baseline must show
/// `late_speedup >= 1.3`.
#[derive(Clone, Debug, Serialize)]
pub struct LateComparison {
    /// Relations in the chain.
    pub relations: usize,
    /// Rows per relation.
    pub tuples_per_relation: u64,
    /// Payload columns per relation (beyond the two chain keys).
    pub payload_cols: usize,
    /// Worker threads.
    pub workers: usize,
    /// The SQL text.
    pub query: String,
    /// The ref-carrying arm (`LateMode::Always`).
    pub late: LateRun,
    /// The payload-copying arm (`LateMode::Never`).
    pub eager: LateRun,
    /// `eager.elapsed_s / late.elapsed_s`.
    pub late_speedup: f64,
}

/// The BENCH_5/6/7 scenarios re-run on the SIMD + late-materialization
/// engine. CI gates each headline within 5% of its original acceptance
/// bar (pushdown >= 1.43x, overhead <= 1.10x, kernel >= 1.24x), so the
/// new hot paths cannot regress what earlier PRs banked.
#[derive(Clone, Debug, Serialize)]
pub struct Bench8Reruns {
    /// The BENCH_5 selective pushdown chain.
    pub pushdown: OperatorComparison,
    /// The BENCH_6 guardrails-on/off chain.
    pub guardrail_overhead: OverheadComparison,
    /// The BENCH_7 row-vs-columnar join kernels.
    pub join_kernels: JoinKernelComparison,
}

/// The whole `BENCH_8.json` document: per-kernel scalar-vs-SIMD
/// microbenchmarks, the end-to-end late-vs-eager chain, and the
/// BENCH_5/6/7 regression re-runs.
#[derive(Clone, Debug, Serialize)]
pub struct Bench8Report {
    /// Monotone bench index (`BENCH_<bench>.json`).
    pub bench: u32,
    /// True for a shrunken `--quick` smoke run.
    pub quick: bool,
    /// Scalar vs AVX2 kernel microbenchmarks.
    pub simd_kernels: SimdSection,
    /// End-to-end late materialization on the wide chain.
    pub late_materialization: LateComparison,
    /// BENCH_5/6/7 regression re-runs.
    pub reruns: Bench8Reruns,
}

/// Times `f` as `reps` best-of measurements of `passes` calls each.
fn best_of(reps: usize, passes: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        for _ in 0..passes.max(1) {
            f();
        }
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
}

/// Microbenchmarks every SIMD kernel against its scalar reference over
/// identical inputs, in the shapes the engine feeds them: selection over
/// a full key column, gathers driven by a half-selective selection
/// vector, pair-gathers from join match pairs, whole-column aggregation,
/// and partition bucketing. `n` is sized like the engine's working sets
/// (tens of thousands of rows per fragment column, cache-resident) —
/// at DRAM-bound sizes every kernel converges on memory bandwidth and
/// the comparison measures the machine, not the code.
pub fn simd_kernel_benches(n: usize, passes: usize, reps: usize) -> SimdSection {
    use mj_relalg::simd;
    use mj_relalg::CmpOp;

    let shipped = |on: bool| if on { "simd" } else { "scalar" }.to_string();
    let keys: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % n as i64).collect();
    let lit = n as i64 / 2;
    let mut kernels = Vec::new();

    // select_cmp: full-column compare into a selection vector.
    let mut sel: Vec<u32> = Vec::with_capacity(n);
    let scalar_s = best_of(reps, passes, || {
        sel.clear();
        simd::select_cmp_scalar(&keys, CmpOp::Lt, lit, &mut sel);
    });
    let simd_s = best_of(reps, passes, || {
        sel.clear();
        simd::select_cmp(&keys, CmpOp::Lt, lit, &mut sel);
    });
    kernels.push(SimdKernelBench {
        name: "select_cmp".into(),
        scalar_s,
        simd_s,
        speedup: scalar_s / simd_s,
        shipped: shipped(simd::SELECT_CMP_SIMD),
    });

    // gather: survivors of the (half-selective) selection above.
    sel.clear();
    simd::select_cmp(&keys, CmpOp::Lt, lit, &mut sel);
    let mut dst: Vec<i64> = Vec::with_capacity(sel.len());
    let scalar_s = best_of(reps, passes, || {
        dst.clear();
        simd::gather_i64_scalar(&keys, &sel, &mut dst);
    });
    let simd_s = best_of(reps, passes, || {
        dst.clear();
        simd::gather_i64(&keys, &sel, &mut dst);
    });
    kernels.push(SimdKernelBench {
        name: "gather".into(),
        scalar_s,
        simd_s,
        speedup: scalar_s / simd_s,
        shipped: shipped(simd::GATHER_SIMD),
    });

    // gather_pairs: join-emission shape (build,probe) index pairs.
    let pairs: Vec<(u32, u32)> = sel
        .iter()
        .map(|&i| (i, (n as u32 - 1).saturating_sub(i)))
        .collect();
    let scalar_s = best_of(reps, passes, || {
        dst.clear();
        simd::gather_pairs_i64_scalar(&keys, &pairs, true, &mut dst);
    });
    let simd_s = best_of(reps, passes, || {
        dst.clear();
        simd::gather_pairs_i64(&keys, &pairs, true, &mut dst);
    });
    kernels.push(SimdKernelBench {
        name: "gather_pairs".into(),
        scalar_s,
        simd_s,
        speedup: scalar_s / simd_s,
        shipped: shipped(simd::GATHER_PAIRS_SIMD),
    });

    // aggregate: the SUM/MIN/MAX slice folds of the aggregate operator.
    let mut sink = 0i64;
    let scalar_s = best_of(reps, passes, || {
        sink = sink.wrapping_add(simd::sum_i64_scalar(&keys));
        sink = sink.wrapping_add(simd::min_i64_scalar(&keys).unwrap_or(0));
        sink = sink.wrapping_add(simd::max_i64_scalar(&keys).unwrap_or(0));
    });
    let simd_s = best_of(reps, passes, || {
        sink = sink.wrapping_add(simd::sum_i64(&keys));
        sink = sink.wrapping_add(simd::min_i64(&keys).unwrap_or(0));
        sink = sink.wrapping_add(simd::max_i64(&keys).unwrap_or(0));
    });
    std::hint::black_box(sink);
    kernels.push(SimdKernelBench {
        name: "aggregate".into(),
        scalar_s,
        simd_s,
        speedup: scalar_s / simd_s,
        shipped: shipped(simd::AGG_SIMD),
    });

    // bucket_hash: partition bucketing (ships scalar — the multiply-
    // shift hash did not pay off vectorized; measured to prove it).
    let mut buckets: Vec<u32> = Vec::with_capacity(n);
    let scalar_s = best_of(reps, passes, || {
        buckets.clear();
        simd::bucket_keys_scalar(&keys, 8, &mut buckets);
    });
    let simd_s = best_of(reps, passes, || {
        buckets.clear();
        simd::bucket_keys_simd_for_bench(&keys, 8, &mut buckets);
    });
    kernels.push(SimdKernelBench {
        name: "bucket_hash".into(),
        scalar_s,
        simd_s,
        speedup: scalar_s / simd_s,
        shipped: shipped(simd::BUCKET_HASH_SIMD),
    });

    SimdSection {
        simd_enabled: mj_relalg::simd::simd_enabled(),
        elements: n as u64,
        passes,
        reps,
        kernels,
    }
}

/// Measures the wide chain late-vs-eager: `relations` relations of
/// `(a, b, p0..p<payload_cols>)` rows chained on `b = a`, `SELECT *` so
/// every payload column must reach the client. The eager arm copies all
/// payloads through every join; the late arm moves refs and gathers once
/// at the root.
pub fn late_comparison(
    relations: usize,
    n: usize,
    payload_cols: usize,
    workers: usize,
    reps: usize,
) -> Result<LateComparison> {
    use mj_exec::{Database, DbConfig, LateMode};
    use mj_relalg::{Attribute, Relation, Schema, Tuple, Value};

    let err = |e: mj_exec::MjError| mj_relalg::RelalgError::InvalidPlan(e.to_string());
    let query = mj_exec::chain_query_sql(relations);

    // Chain relations: `a` unique 0..n, `b` a permutation of 0..n (every
    // join matches exactly once), `payload_cols` payload columns.
    let mut attrs = vec![Attribute::int("a"), Attribute::int("b")];
    for p in 0..payload_cols {
        attrs.push(Attribute::int(format!("p{p}")));
    }
    let schema = Schema::new(attrs).shared();
    let mut catalog: Vec<(String, Arc<Relation>)> = Vec::with_capacity(relations);
    for r in 0..relations {
        let tuples = (0..n as i64)
            .map(|i| {
                let mut vals = Vec::with_capacity(2 + payload_cols);
                vals.push(Value::Int(i));
                vals.push(Value::Int((i * 7919 + r as i64) % n as i64));
                for p in 0..payload_cols as i64 {
                    vals.push(Value::Int(i * 100 + p));
                }
                Tuple::new(vals)
            })
            .collect();
        catalog.push((
            format!("R{r}"),
            Arc::new(Relation::new_unchecked(schema.clone(), tuples)),
        ));
    }

    let mut runs: Vec<LateRun> = Vec::new();
    let mut results: Vec<mj_relalg::Relation> = Vec::new();
    for late in [LateMode::Always, LateMode::Never] {
        let mut config = DbConfig::default();
        config.exec.workers = workers;
        config.exec.late = late;
        let db = Database::open(config).map_err(err)?;
        for (name, rel) in &catalog {
            db.register(name, rel.clone()).map_err(err)?;
        }
        db.analyze().map_err(err)?;
        let planned = db.plan(&query).map_err(err)?;
        let warm = db.engine().run(&planned.plan, &planned.binding)?;
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let started = Instant::now();
            let outcome = db.engine().run(&planned.plan, &planned.binding)?;
            best = best.min(started.elapsed().as_secs_f64());
            debug_assert_eq!(outcome.relation.len(), warm.relation.len());
        }
        runs.push(LateRun {
            late_mode: format!("{late:?}"),
            elapsed_s: best,
            result_tuples: warm.relation.len() as u64,
        });
        results.push(warm.relation);
    }
    if !results[0].multiset_eq(&results[1]) {
        return Err(mj_relalg::RelalgError::InvalidPlan(format!(
            "late materialization changed the result: {} vs {} rows",
            results[0].len(),
            results[1].len()
        )));
    }
    let eager = runs.pop().expect("two runs");
    let late = runs.pop().expect("two runs");
    Ok(LateComparison {
        relations,
        tuples_per_relation: n as u64,
        payload_cols,
        workers,
        query,
        late_speedup: eager.elapsed_s / late.elapsed_s,
        late,
        eager,
    })
}

/// Produces the `BENCH_8.json` report. `quick` shrinks the workload for
/// CI smoke runs; the checked-in baseline uses the full size.
pub fn bench8_report(quick: bool) -> Result<Bench8Report> {
    let (simd_n, passes, simd_reps) = if quick {
        (1 << 14, 8, 2)
    } else {
        (1 << 16, 64, 5)
    };
    let (l_relations, l_n, l_payload, l_reps) = if quick {
        (4, 4_000, 6, 2)
    } else {
        (6, 40_000, 6, 5)
    };
    // The original BENCH_5/6/7 workload shapes, so the re-runs are
    // directly comparable to the checked-in baselines.
    let (p_relations, p_n, p_reps) = if quick { (4, 4_000, 2) } else { (6, 40_000, 5) };
    let (o_relations, o_n, o_reps) = if quick { (4, 2_000, 2) } else { (6, 20_000, 5) };
    let (kernel_n, kernel_reps) = if quick { (50_000, 2) } else { (400_000, 5) };
    Ok(Bench8Report {
        bench: 8,
        quick,
        simd_kernels: simd_kernel_benches(simd_n, passes, simd_reps),
        late_materialization: late_comparison(l_relations, l_n, l_payload, 4, l_reps)?,
        reruns: Bench8Reruns {
            pushdown: operator_comparison(p_relations, p_n, 4, p_reps)?,
            guardrail_overhead: overhead_comparison(o_relations, o_n, 4, o_reps)?,
            join_kernels: join_kernel_comparison(kernel_n, kernel_reps)?,
        },
    })
}

/// Renders a `BENCH_8.json` report as pretty-enough JSON.
pub fn bench8_to_json(report: &Bench8Report) -> String {
    let json = serde_json::to_string(&report.to_json()).expect("serialization is total");
    json.replace("{\"bench\"", "{\n\"bench\"")
        .replace("\"simd_kernels\":{", "\n\"simd_kernels\":{\n  ")
        .replace("\"kernels\":[", "\n  \"kernels\":[\n    ")
        .replace("},{\"name\"", "},\n    {\"name\"")
        .replace(
            "\"late_materialization\":{",
            "\n\"late_materialization\":{\n  ",
        )
        .replace("\"late\":{", "\n  \"late\":{")
        .replace("\"eager\":{", "\n  \"eager\":{")
        .replace("\"late_speedup\":", "\n  \"late_speedup\":")
        .replace("\"reruns\":{", "\n\"reruns\":{\n  ")
        .replace("\"pushdown\":{", "\n  \"pushdown\":{")
        .replace("\"guardrail_overhead\":{", "\n  \"guardrail_overhead\":{")
        .replace("\"join_kernels\":{", "\n  \"join_kernels\":{")
        .replace("}}", "}\n}")
}

/// Validates the schema of an emitted `BENCH_8.json` (CI smoke run).
pub fn validate_bench8_json(text: &str) -> std::result::Result<(), String> {
    let v: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for key in [
        "bench",
        "quick",
        "simd_kernels",
        "late_materialization",
        "reruns",
    ] {
        if v.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    let s = v.get("simd_kernels").expect("checked");
    for key in ["simd_enabled", "elements", "passes", "reps", "kernels"] {
        if s.get(key).is_none() {
            return Err(format!("missing key `simd_kernels.{key}`"));
        }
    }
    let kernels = match s.get("kernels") {
        Some(JsonValue::Arr(items)) if items.len() == 5 => items,
        _ => return Err("`simd_kernels.kernels` must list the 5 kernels".into()),
    };
    for k in kernels {
        for key in ["name", "scalar_s", "simd_s", "speedup", "shipped"] {
            if k.get(key).is_none() {
                return Err(format!("missing key `simd_kernels.kernels[].{key}`"));
            }
        }
    }
    let l = v.get("late_materialization").expect("checked");
    for key in [
        "relations",
        "tuples_per_relation",
        "payload_cols",
        "workers",
        "query",
        "late",
        "eager",
        "late_speedup",
    ] {
        if l.get(key).is_none() {
            return Err(format!("missing key `late_materialization.{key}`"));
        }
    }
    for arm in ["late", "eager"] {
        let run = l.get(arm).expect("checked");
        for key in ["late_mode", "elapsed_s", "result_tuples"] {
            if run.get(key).is_none() {
                return Err(format!("missing key `late_materialization.{arm}.{key}`"));
            }
        }
    }
    let r = v.get("reruns").expect("checked");
    for key in ["pushdown", "guardrail_overhead", "join_kernels"] {
        if r.get(key).is_none() {
            return Err(format!("missing key `reruns.{key}`"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// BENCH_9: the query server — wire throughput, concurrency, noisy
// neighbors over the wire, and a guardrail-overhead rerun proving the
// metrics registry costs < 5%.
// ---------------------------------------------------------------------------

/// One timed server workload: some clients each running some queries
/// against one shared served engine.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ServerRun {
    /// Concurrent wire clients.
    pub clients: u64,
    /// Total queries completed across all clients.
    pub queries: u64,
    /// Wall-clock seconds from first send to last reply.
    pub elapsed_s: f64,
    /// Sustained queries per second over that wall-clock window.
    pub qps: f64,
    /// Median per-query wire latency (send to terminal frame) in ms.
    pub p50_ms: f64,
    /// 99th-percentile per-query wire latency in ms.
    pub p99_ms: f64,
}

/// The noisy-neighbor section, measured over the wire: a paced light
/// client sampled while budget-shedding noisy clients hammer the same
/// server.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct NoisyServerRun {
    /// Continuously querying noisy clients.
    pub noisy_clients: u64,
    /// Per-noisy-query memory budget (bytes) sent as a wire option; the
    /// noisy query busts it, so the engine sheds the load with typed
    /// `resource_exhausted` errors.
    pub noisy_budget_bytes: u64,
    /// Light-query latency samples taken.
    pub samples: u64,
    /// Light p50 under noise, ms.
    pub light_p50_ms: f64,
    /// Light p99 under noise, ms.
    pub light_p99_ms: f64,
    /// Idle p50 (the back-to-back section's p50), ms.
    pub idle_p50_ms: f64,
    /// The headline gate: light p99 under noise over idle p50.
    pub p99_vs_idle_p50: f64,
    /// Noisy queries the engine aborted for busting their budget —
    /// nonzero proves the shedding actually engaged.
    pub noisy_budget_aborts: u64,
}

/// Liveness accounting after the concurrent hammer.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ServerLiveness {
    /// Engine worker threads configured.
    pub engine_workers: u64,
    /// Engine worker threads alive after the load (must equal
    /// `engine_workers`).
    pub engine_workers_alive: u64,
    /// Connection workers configured.
    pub conn_workers: u64,
    /// Fresh post-load probe connections that answered (one per
    /// connection worker, dealt round-robin — must equal `conn_workers`).
    pub post_load_probes_ok: u64,
    /// Operator-task panics the engine contained during the whole bench.
    pub panics_contained: u64,
}

/// The `BENCH_9.json` report.
#[derive(Clone, Debug, Serialize)]
pub struct Bench9Report {
    /// Monotone bench index (`BENCH_<bench>.json`).
    pub bench: u32,
    /// True for a shrunken `--quick` smoke run.
    pub quick: bool,
    /// Chain length of the benchmark query.
    pub relations: u64,
    /// Base tuples per light relation.
    pub tuples_per_relation: u64,
    /// The paper's per-process startup cost (ms) configured on the
    /// engine — the latency that concurrency must overlap to win.
    pub startup_cost_ms: u64,
    /// One client, back-to-back queries: the sequential wire baseline.
    pub back_to_back: ServerRun,
    /// Many clients on one shared engine.
    pub concurrent: ServerRun,
    /// `concurrent.qps / back_to_back.qps` — the headline gate (≥ 1.5:
    /// overlapped startup + pipelined connections must beat sequential).
    pub concurrency_speedup: f64,
    /// Light-query latency under budget-shedding noisy wire clients.
    pub noisy: NoisyServerRun,
    /// Worker-thread liveness after the hammer.
    pub liveness: ServerLiveness,
    /// BENCH_6's guardrail-overhead workload, re-run with the metrics
    /// registry wired in — bands against the checked-in BENCH_6 prove
    /// the metrics cost stays under 5%.
    pub guardrail_rerun: OverheadComparison,
}

/// Percentile over unsorted latency samples (nearest-rank).
fn percentile_ms(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] * 1e3
}

/// Builds the served database for the wire benchmark: a light chain
/// family `R0..` and a heavier noisy chain `N0..` in one catalog, with
/// the paper's startup cost configured.
fn bench9_db(
    relations: usize,
    n: usize,
    noisy_n: usize,
    startup_ms: u64,
    workers: usize,
) -> Result<Arc<mj_exec::Database>> {
    use mj_exec::{generate_family, Database, DbConfig, QueryFamily};
    use mj_relalg::RelationProvider;

    let err = |e: mj_exec::MjError| mj_relalg::RelalgError::InvalidPlan(e.to_string());
    let light = generate_family(QueryFamily::Chain, relations, n, 5)?;
    let noisy = generate_family(QueryFamily::Chain, relations + 1, noisy_n, 6)?;
    let mut config = DbConfig::default();
    config.exec.workers = workers;
    config.exec.startup_cost = Some(std::time::Duration::from_millis(startup_ms));
    let db = Database::open(config).map_err(err)?;
    for i in 0..relations {
        db.register(format!("R{i}"), light.catalog.relation(&format!("R{i}"))?)
            .map_err(err)?;
    }
    for i in 0..relations + 1 {
        db.register(format!("N{i}"), noisy.catalog.relation(&format!("R{i}"))?)
            .map_err(err)?;
    }
    db.analyze().map_err(err)?;
    Ok(Arc::new(db))
}

/// Runs `clients` wire clients, each issuing `per_client` queries
/// back-to-back, all against `addr`. Clients connect first, then start
/// together off a barrier so the wall-clock window measures sustained
/// concurrent load, not connection setup.
fn server_hammer(
    addr: std::net::SocketAddr,
    query: &str,
    clients: usize,
    per_client: usize,
) -> Result<ServerRun> {
    use mj_server::Client;
    use std::sync::Barrier;

    let barrier = Arc::new(Barrier::new(clients));
    let query = Arc::new(query.to_string());
    let wire_err = |e: mj_server::ClientError| mj_relalg::RelalgError::InvalidPlan(e.to_string());

    let mut latencies: Vec<f64> = Vec::with_capacity(clients * per_client);
    let started = std::thread::scope(|scope| -> Result<Instant> {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = barrier.clone();
                let query = query.clone();
                scope.spawn(
                    move || -> std::result::Result<Vec<f64>, mj_server::ClientError> {
                        // Connect before the barrier: setup is excluded from
                        // the measured window.
                        let mut client =
                            Client::connect_timeout(addr, std::time::Duration::from_secs(30))?;
                        barrier.wait();
                        let mut lats = Vec::with_capacity(per_client);
                        for _ in 0..per_client {
                            let sent = Instant::now();
                            let reply = client.query(&query)?;
                            debug_assert!(!reply.rows.is_empty());
                            lats.push(sent.elapsed().as_secs_f64());
                        }
                        Ok(lats)
                    },
                )
            })
            .collect();
        let started = Instant::now();
        for h in handles {
            latencies.extend(h.join().expect("client thread").map_err(wire_err)?);
        }
        Ok(started)
    })?;
    // `started` is captured after spawning (threads hold at the barrier
    // until all are connected); elapsed covers barrier release to last
    // reply, minus a negligible connect tail.
    let elapsed = started.elapsed().as_secs_f64();
    let queries = latencies.len() as u64;
    let p50 = percentile_ms(&mut latencies, 0.50);
    let p99 = percentile_ms(&mut latencies, 0.99);
    Ok(ServerRun {
        clients: clients as u64,
        queries,
        elapsed_s: elapsed,
        qps: queries as f64 / elapsed,
        p50_ms: p50,
        p99_ms: p99,
    })
}

/// The noisy-neighbor section: `noisy_clients` wire clients loop a
/// heavier query carrying a memory budget it busts (typed
/// `resource_exhausted` shedding), while one light client takes paced
/// latency samples. Best-of-`reps` by p99, same discipline as BENCH_6.
#[allow(clippy::too_many_arguments)]
fn noisy_server_run(
    addr: std::net::SocketAddr,
    db: &mj_exec::Database,
    light_query: &str,
    noisy_query: &str,
    noisy_clients: usize,
    noisy_budget: u64,
    samples: usize,
    idle_p50_ms: f64,
    reps: usize,
) -> Result<NoisyServerRun> {
    use mj_server::{Client, ClientError};
    use std::sync::atomic::{AtomicBool, Ordering};

    let wire_err = |e: ClientError| mj_relalg::RelalgError::InvalidPlan(e.to_string());
    let mut best: Option<(f64, f64)> = None; // (p99_ms, p50_ms)
    for _ in 0..reps.max(1) {
        let stop = Arc::new(AtomicBool::new(false));
        let light = std::thread::scope(|scope| -> Result<Vec<f64>> {
            let noisy_handles: Vec<_> = (0..noisy_clients)
                .map(|_| {
                    let stop = stop.clone();
                    scope.spawn(move || -> std::result::Result<(), ClientError> {
                        let mut client =
                            Client::connect_timeout(addr, std::time::Duration::from_secs(30))?;
                        while !stop.load(Ordering::Relaxed) {
                            client.send_query_with(noisy_query, None, Some(noisy_budget))?;
                            match client.collect_reply() {
                                // The budget doing its job is not a failure.
                                Ok(_) | Err(ClientError::Server(_)) => {}
                                Err(e) => return Err(e),
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            // Let the noise establish itself.
            std::thread::sleep(std::time::Duration::from_millis(30));
            let mut client = Client::connect_timeout(addr, std::time::Duration::from_secs(30))
                .map_err(wire_err)?;
            let mut lats = Vec::with_capacity(samples);
            for _ in 0..samples {
                let sent = Instant::now();
                client.query(light_query).map_err(wire_err)?;
                lats.push(sent.elapsed().as_secs_f64());
                std::thread::sleep(std::time::Duration::from_millis(15));
            }
            stop.store(true, Ordering::Relaxed);
            for h in noisy_handles {
                h.join().expect("noisy client thread").map_err(wire_err)?;
            }
            Ok(lats)
        })?;
        let mut lats = light;
        let p50 = percentile_ms(&mut lats, 0.50);
        let p99 = percentile_ms(&mut lats, 0.99);
        if best.map(|(b, _)| p99 < b).unwrap_or(true) {
            best = Some((p99, p50));
        }
    }
    let (p99, p50) = best.expect("at least one rep");
    Ok(NoisyServerRun {
        noisy_clients: noisy_clients as u64,
        noisy_budget_bytes: noisy_budget,
        samples: samples as u64,
        light_p50_ms: p50,
        light_p99_ms: p99,
        idle_p50_ms,
        p99_vs_idle_p50: p99 / idle_p50_ms,
        noisy_budget_aborts: db.stats().budget_aborts,
    })
}

/// Produces the `BENCH_9.json` report: wire throughput back-to-back vs
/// ~1k concurrent clients on one shared engine, noisy-neighbor latency
/// over the wire, post-load worker liveness, and the BENCH_6 guardrail
/// rerun. `quick` shrinks the workload for CI smoke runs.
pub fn bench9_report(quick: bool) -> Result<Bench9Report> {
    use mj_server::{Client, MetricsFormat, Server, ServerConfig};

    const RELATIONS: usize = 3;
    const STARTUP_MS: u64 = 12;
    const ENGINE_WORKERS: usize = 2;
    const CONN_WORKERS: usize = 4;

    let (n, noisy_n) = if quick { (300, 2_000) } else { (400, 4_000) };
    let (b2b_queries, clients, per_client) = if quick { (30, 64, 3) } else { (120, 1_000, 5) };
    let (noisy_clients, noisy_samples, noisy_reps) = if quick { (2, 15, 1) } else { (4, 40, 3) };
    let (o_relations, o_n, o_reps) = if quick { (4, 2_000, 2) } else { (6, 20_000, 5) };

    // The guardrail rerun goes first, before the wire hammer churns the
    // allocator: it is banded against BENCH_6, which also measured on a
    // fresh process.
    let guardrail_rerun = overhead_comparison(o_relations, o_n, 4, o_reps)?;

    let db = bench9_db(RELATIONS, n, noisy_n, STARTUP_MS, ENGINE_WORKERS)?;
    let server = Server::start(
        db.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            conn_workers: CONN_WORKERS,
            // Headroom above the concurrent fleet plus probes.
            max_clients: clients + 64,
        },
    )
    .map_err(|e| mj_relalg::RelalgError::InvalidPlan(format!("server start: {e}")))?;
    let addr = server.local_addr();
    let light_query = prefixed_chain_sql("R", RELATIONS);
    let noisy_query = prefixed_chain_sql("N", RELATIONS + 1);

    // Warm up the planner and allocator out of band.
    server_hammer(addr, &light_query, 1, 5)?;

    let back_to_back = server_hammer(addr, &light_query, 1, b2b_queries)?;
    let concurrent = server_hammer(addr, &light_query, clients, per_client)?;

    // Liveness after the hammer: the engine pool is intact and every
    // connection worker still answers a fresh probe (probes are dealt
    // round-robin, so `conn_workers` consecutive connects cover the pool).
    let stats = db.stats();
    let mut probes_ok = 0u64;
    for _ in 0..CONN_WORKERS {
        let mut probe = Client::connect_timeout(addr, std::time::Duration::from_secs(10))
            .map_err(|e| mj_relalg::RelalgError::InvalidPlan(e.to_string()))?;
        if probe.metrics(MetricsFormat::Json).is_ok() {
            probes_ok += 1;
        }
    }
    let liveness = ServerLiveness {
        engine_workers: ENGINE_WORKERS as u64,
        engine_workers_alive: stats.workers_total,
        conn_workers: CONN_WORKERS as u64,
        post_load_probes_ok: probes_ok,
        panics_contained: stats.panics_contained,
    };

    let noisy = noisy_server_run(
        addr,
        &db,
        &light_query,
        &noisy_query,
        noisy_clients,
        128 * 1024,
        noisy_samples,
        back_to_back.p50_ms,
        noisy_reps,
    )?;
    server.shutdown();

    Ok(Bench9Report {
        bench: 9,
        quick,
        relations: RELATIONS as u64,
        tuples_per_relation: n as u64,
        startup_cost_ms: STARTUP_MS,
        concurrency_speedup: concurrent.qps / back_to_back.qps,
        back_to_back,
        concurrent,
        noisy,
        liveness,
        guardrail_rerun,
    })
}

/// Renders a `BENCH_9.json` report as pretty-enough JSON.
pub fn bench9_to_json(report: &Bench9Report) -> String {
    let json = serde_json::to_string(&report.to_json()).expect("serialization is total");
    json.replace("{\"bench\"", "{\n\"bench\"")
        .replace("\"back_to_back\":{", "\n\"back_to_back\":{")
        .replace("\"concurrent\":{", "\n\"concurrent\":{")
        .replace("\"concurrency_speedup\":", "\n\"concurrency_speedup\":")
        .replace("\"noisy\":{", "\n\"noisy\":{")
        .replace("\"liveness\":{", "\n\"liveness\":{")
        .replace("\"guardrail_rerun\":{", "\n\"guardrail_rerun\":{\n  ")
        .replace("\"guardrails_off\":", "\n  \"guardrails_off\":")
        .replace("\"guardrails_on\":", "\n  \"guardrails_on\":")
        .replace("}}", "}\n}")
}

/// Validates the schema of an emitted `BENCH_9.json` (CI smoke run).
pub fn validate_bench9_json(text: &str) -> std::result::Result<(), String> {
    let v: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for key in [
        "bench",
        "quick",
        "relations",
        "tuples_per_relation",
        "startup_cost_ms",
        "back_to_back",
        "concurrent",
        "concurrency_speedup",
        "noisy",
        "liveness",
        "guardrail_rerun",
    ] {
        if v.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    for section in ["back_to_back", "concurrent"] {
        let run = v.get(section).expect("checked");
        for key in ["clients", "queries", "elapsed_s", "qps", "p50_ms", "p99_ms"] {
            if run.get(key).is_none() {
                return Err(format!("missing key `{section}.{key}`"));
            }
        }
    }
    let n = v.get("noisy").expect("checked");
    for key in [
        "noisy_clients",
        "noisy_budget_bytes",
        "samples",
        "light_p50_ms",
        "light_p99_ms",
        "idle_p50_ms",
        "p99_vs_idle_p50",
        "noisy_budget_aborts",
    ] {
        if n.get(key).is_none() {
            return Err(format!("missing key `noisy.{key}`"));
        }
    }
    let l = v.get("liveness").expect("checked");
    for key in [
        "engine_workers",
        "engine_workers_alive",
        "conn_workers",
        "post_load_probes_ok",
        "panics_contained",
    ] {
        if l.get(key).is_none() {
            return Err(format!("missing key `liveness.{key}`"));
        }
    }
    let g = v.get("guardrail_rerun").expect("checked");
    for key in ["overhead_ratio", "guardrails_off", "guardrails_on"] {
        if g.get(key).is_none() {
            return Err(format!("missing key `guardrail_rerun.{key}`"));
        }
    }
    Ok(())
}

/// One single-client payload-throughput run of the wide-result query —
/// the unit of the BENCH_10 JSON-vs-binary comparison. Throughput is
/// measured client-side: rows fully decoded per wall-clock second.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PayloadRun {
    /// Queries issued back-to-back over one connection.
    pub queries: u64,
    /// Total rows decoded across all queries.
    pub rows: u64,
    /// Wall-clock seconds for the whole run.
    pub elapsed_s: f64,
    /// Client-side decoded-row throughput.
    pub rows_per_s: f64,
}

/// The prepared-statement section of BENCH_10: a short-query hammer
/// where planning dominates execution, ad-hoc (re-plan every time) vs
/// prepare-once + execute (shared plan cache + parameter binding).
#[derive(Clone, Debug, Serialize)]
pub struct PreparedBench {
    /// Chain length of the hammered query.
    pub relations: u64,
    /// Tuples per relation (tiny on purpose: execution is the noise
    /// floor, planning is the signal).
    pub tuples_per_relation: u64,
    /// Every query sent as fresh text: parse + bind + plan per request.
    pub adhoc: ServerRun,
    /// One `prepare` per client, then parameterized `execute`s.
    pub prepared: ServerRun,
    /// `prepared.qps / adhoc.qps` — the headline gate (≥ 2.0).
    pub speedup: f64,
    /// Plan-cache hits observed during this section.
    pub plan_cache_hits: u64,
    /// Plan-cache misses observed during this section.
    pub plan_cache_misses: u64,
    /// Plan-cache evictions observed during this section.
    pub plan_cache_evictions: u64,
}

/// The wire-format section of BENCH_10: the same wide result streamed
/// as row-pivoted JSON vs binary columnar frames.
#[derive(Clone, Debug, Serialize)]
pub struct WireFormatBench {
    /// Chain length of the payload query (short: payload dominates).
    pub relations: u64,
    /// Tuples per relation.
    pub tuples_per_relation: u64,
    /// Result rows per query (measured).
    pub rows_per_query: u64,
    /// Row-pivoted JSON `batch` lines.
    pub json: PayloadRun,
    /// Length-prefixed binary columnar frames.
    pub bin: PayloadRun,
    /// `bin.rows_per_s / json.rows_per_s` — the headline gate (≥ 1.5).
    pub bin_speedup: f64,
}

/// The `BENCH_10.json` report.
#[derive(Clone, Debug, Serialize)]
pub struct Bench10Report {
    /// Monotone bench index (`BENCH_<bench>.json`).
    pub bench: u32,
    /// True for a shrunken `--quick` smoke run.
    pub quick: bool,
    /// Prepared statements + shared plan cache vs ad-hoc re-planning.
    pub prepared: PreparedBench,
    /// Binary columnar vs JSON result encoding.
    pub wire_format: WireFormatBench,
    /// The full BENCH_9 wire benchmark re-run with the plan cache and
    /// binary encoder compiled in — its gates must still pass, and CI
    /// bands its concurrency speedup against the checked-in BENCH_9.
    pub bench9_rerun: Bench9Report,
}

/// Builds a served chain-family database for the BENCH_10 sections.
fn bench10_db(
    relations: usize,
    n: usize,
    seed: u64,
    workers: usize,
) -> Result<Arc<mj_exec::Database>> {
    use mj_exec::{generate_family, Database, DbConfig, QueryFamily};
    use mj_relalg::RelationProvider;

    let err = |e: mj_exec::MjError| mj_relalg::RelalgError::InvalidPlan(e.to_string());
    let instance = generate_family(QueryFamily::Chain, relations, n, seed)?;
    let mut config = DbConfig::default();
    config.exec.workers = workers;
    let db = Database::open(config).map_err(err)?;
    for i in 0..relations {
        db.register(
            format!("R{i}"),
            instance.catalog.relation(&format!("R{i}"))?,
        )
        .map_err(err)?;
    }
    db.analyze().map_err(err)?;
    Ok(Arc::new(db))
}

/// Runs `clients` wire clients issuing `per_client` filtered chain
/// queries each, either as fresh ad-hoc text (`prepared = false`, a full
/// parse/bind/plan per request) or through one prepared statement per
/// client (`prepared = true`). The filter argument rotates through
/// `0..arg_mod` so both modes sweep the same literals; prepare and
/// connect both happen before the barrier, so the measured window is
/// pure request throughput.
fn prepared_hammer(
    addr: std::net::SocketAddr,
    base: &str,
    filter_col: &str,
    arg_mod: usize,
    clients: usize,
    per_client: usize,
    prepared: bool,
) -> Result<ServerRun> {
    use mj_server::Client;
    use std::sync::Barrier;

    let barrier = Arc::new(Barrier::new(clients));
    let base = Arc::new(base.to_string());
    let filter_col = Arc::new(filter_col.to_string());
    let wire_err = |e: mj_server::ClientError| mj_relalg::RelalgError::InvalidPlan(e.to_string());

    let mut latencies: Vec<f64> = Vec::with_capacity(clients * per_client);
    let started = std::thread::scope(|scope| -> Result<Instant> {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = barrier.clone();
                let base = base.clone();
                let filter_col = filter_col.clone();
                scope.spawn(
                    move || -> std::result::Result<Vec<f64>, mj_server::ClientError> {
                        let mut client =
                            Client::connect_timeout(addr, std::time::Duration::from_secs(30))?;
                        let stmt = if prepared {
                            Some(client.prepare(&format!("{base} WHERE {filter_col} < ?1"))?)
                        } else {
                            None
                        };
                        barrier.wait();
                        let mut lats = Vec::with_capacity(per_client);
                        for i in 0..per_client {
                            let arg = (i % arg_mod) as i64;
                            let sent = Instant::now();
                            match &stmt {
                                Some(s) => {
                                    client.execute(s.id, &[arg])?;
                                }
                                None => {
                                    client.query(&format!("{base} WHERE {filter_col} < {arg}"))?;
                                }
                            }
                            lats.push(sent.elapsed().as_secs_f64());
                        }
                        Ok(lats)
                    },
                )
            })
            .collect();
        let started = Instant::now();
        for h in handles {
            latencies.extend(h.join().expect("client thread").map_err(wire_err)?);
        }
        Ok(started)
    })?;
    let elapsed = started.elapsed().as_secs_f64();
    let queries = latencies.len() as u64;
    let p50 = percentile_ms(&mut latencies, 0.50);
    let p99 = percentile_ms(&mut latencies, 0.99);
    Ok(ServerRun {
        clients: clients as u64,
        queries,
        elapsed_s: elapsed,
        qps: queries as f64 / elapsed,
        p50_ms: p50,
        p99_ms: p99,
    })
}

/// One client, `queries` wide-payload queries back-to-back, decoding
/// every row — `bin` switches the result stream to binary columnar
/// frames.
fn payload_run(
    addr: std::net::SocketAddr,
    query: &str,
    queries: usize,
    bin: bool,
) -> Result<PayloadRun> {
    use mj_server::Client;

    let wire_err = |e: mj_server::ClientError| mj_relalg::RelalgError::InvalidPlan(e.to_string());
    let mut client =
        Client::connect_timeout(addr, std::time::Duration::from_secs(30)).map_err(wire_err)?;
    let started = Instant::now();
    let mut rows = 0u64;
    for _ in 0..queries {
        if bin {
            let reply = client.query_bin(query).map_err(wire_err)?;
            // The decode is already typed; touch the columns so the
            // compiler cannot elide it.
            let decoded: usize = reply.batches.iter().map(|b| b.row_count).sum();
            assert_eq!(decoded as u64, reply.rows, "bin decode row count");
            rows += reply.rows;
        } else {
            let reply = client.query(query).map_err(wire_err)?;
            rows += reply.rows.len() as u64;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    Ok(PayloadRun {
        queries: queries as u64,
        rows,
        elapsed_s: elapsed,
        rows_per_s: rows as f64 / elapsed,
    })
}

/// Produces the `BENCH_10.json` report: prepared statements + the shared
/// plan cache vs ad-hoc re-planning on a short-query hammer, binary
/// columnar vs JSON encoding on a wide-payload stream, and the full
/// BENCH_9 wire benchmark re-run on the new serving path. `quick`
/// shrinks every section for CI smoke runs.
pub fn bench10_report(quick: bool) -> Result<Bench10Report> {
    use mj_exec::chain_query_sql;
    use mj_server::{Server, ServerConfig};

    let server_err =
        |e: std::io::Error| mj_relalg::RelalgError::InvalidPlan(format!("server start: {e}"));

    // --- Prepared section: planning is the signal, execution the noise
    // floor. A 14-relation chain over tiny relations puts the cost-based
    // planner's join-order search squarely in the request path (~ms)
    // while execution stays ~100 µs — the workload prepared statements
    // exist for.
    const P_RELATIONS: usize = 14;
    const P_TUPLES: usize = 50;
    let (p_clients, p_per_client) = if quick { (4, 25) } else { (8, 150) };

    let db = bench10_db(P_RELATIONS, P_TUPLES, 41, 2)?;
    let server = Server::start(
        db.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            conn_workers: 4,
            max_clients: 256,
        },
    )
    .map_err(server_err)?;
    let addr = server.local_addr();
    let base = chain_query_sql(P_RELATIONS);

    // Warm both paths out of band.
    prepared_hammer(addr, &base, "R1.id", P_TUPLES, 1, 5, false)?;
    prepared_hammer(addr, &base, "R1.id", P_TUPLES, 1, 5, true)?;

    let before = db.stats();
    let adhoc = prepared_hammer(
        addr,
        &base,
        "R1.id",
        P_TUPLES,
        p_clients,
        p_per_client,
        false,
    )?;
    let prepared_run = prepared_hammer(
        addr,
        &base,
        "R1.id",
        P_TUPLES,
        p_clients,
        p_per_client,
        true,
    )?;
    let after = db.stats();
    server.shutdown();
    let prepared = PreparedBench {
        relations: P_RELATIONS as u64,
        tuples_per_relation: P_TUPLES as u64,
        speedup: prepared_run.qps / adhoc.qps,
        adhoc,
        prepared: prepared_run,
        plan_cache_hits: after.plan_cache_hits - before.plan_cache_hits,
        plan_cache_misses: after.plan_cache_misses - before.plan_cache_misses,
        plan_cache_evictions: after.plan_cache_evictions - before.plan_cache_evictions,
    };

    // --- Wire-format section: payload is the signal (short chain, many
    // rows, every row decoded client-side).
    const W_RELATIONS: usize = 2;
    let w_n = if quick { 4_000 } else { 30_000 };
    let w_queries = if quick { 4 } else { 10 };

    let db = bench10_db(W_RELATIONS, w_n, 43, 2)?;
    let server = Server::start(
        db.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            conn_workers: 2,
            max_clients: 16,
        },
    )
    .map_err(server_err)?;
    let addr = server.local_addr();
    let wide = chain_query_sql(W_RELATIONS);
    payload_run(addr, &wide, 1, false)?;
    payload_run(addr, &wide, 1, true)?;
    let json = payload_run(addr, &wide, w_queries, false)?;
    let bin = payload_run(addr, &wide, w_queries, true)?;
    server.shutdown();
    let wire_format = WireFormatBench {
        relations: W_RELATIONS as u64,
        tuples_per_relation: w_n as u64,
        rows_per_query: json.rows / json.queries.max(1),
        bin_speedup: bin.rows_per_s / json.rows_per_s,
        json,
        bin,
    };

    // --- BENCH_9 rerun: the previous wire benchmark, unchanged, on the
    // serving path that now carries the plan cache and binary encoder.
    let bench9_rerun = bench9_report(quick)?;

    Ok(Bench10Report {
        bench: 10,
        quick,
        prepared,
        wire_format,
        bench9_rerun,
    })
}

/// Renders a `BENCH_10.json` report as pretty-enough JSON.
pub fn bench10_to_json(report: &Bench10Report) -> String {
    let json = serde_json::to_string(&report.to_json()).expect("serialization is total");
    json.replace("{\"bench\"", "{\n\"bench\"")
        .replace(
            "\"prepared\":{\"relations\"",
            "\n\"prepared\":{\n  \"relations\"",
        )
        .replace("\"adhoc\":{", "\n  \"adhoc\":{")
        .replace("\"prepared\":{\"clients\"", "\n  \"prepared\":{\"clients\"")
        .replace("\"speedup\":", "\n  \"speedup\":")
        .replace("\"wire_format\":{", "\n\"wire_format\":{\n  ")
        .replace("\"json\":{", "\n  \"json\":{")
        .replace("\"bin\":{", "\n  \"bin\":{")
        .replace("\"bin_speedup\":", "\n  \"bin_speedup\":")
        .replace("\"bench9_rerun\":{", "\n\"bench9_rerun\":{\n  ")
        .replace("}}", "}\n}")
}

/// Validates the schema of an emitted `BENCH_10.json` (CI smoke run).
pub fn validate_bench10_json(text: &str) -> std::result::Result<(), String> {
    let v: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for key in ["bench", "quick", "prepared", "wire_format", "bench9_rerun"] {
        if v.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    let p = v.get("prepared").expect("checked");
    for key in [
        "relations",
        "tuples_per_relation",
        "adhoc",
        "prepared",
        "speedup",
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_evictions",
    ] {
        if p.get(key).is_none() {
            return Err(format!("missing key `prepared.{key}`"));
        }
    }
    for section in ["adhoc", "prepared"] {
        let run = p.get(section).expect("checked");
        for key in ["clients", "queries", "elapsed_s", "qps", "p50_ms", "p99_ms"] {
            if run.get(key).is_none() {
                return Err(format!("missing key `prepared.{section}.{key}`"));
            }
        }
    }
    let w = v.get("wire_format").expect("checked");
    for key in [
        "relations",
        "tuples_per_relation",
        "rows_per_query",
        "json",
        "bin",
        "bin_speedup",
    ] {
        if w.get(key).is_none() {
            return Err(format!("missing key `wire_format.{key}`"));
        }
    }
    for section in ["json", "bin"] {
        let run = w.get(section).expect("checked");
        for key in ["queries", "rows", "elapsed_s", "rows_per_s"] {
            if run.get(key).is_none() {
                return Err(format!("missing key `wire_format.{section}.{key}`"));
            }
        }
    }
    // The rerun must carry the full BENCH_9 schema.
    let rerun = serde_json::to_string(v.get("bench9_rerun").expect("checked"))
        .map_err(|e| e.to_string())?;
    validate_bench9_json(&rerun).map_err(|e| format!("bench9_rerun: {e}"))?;
    Ok(())
}

/// Renders a report as pretty-enough JSON (one strategy per line).
pub fn report_to_json(report: &BenchReport) -> String {
    // The shim's serializer is compact; expand the two top-level arrays a
    // little for reviewability.
    let json = serde_json::to_string(&report.to_json()).expect("serialization is total");
    json.replace("},{", "},\n  {")
        .replace("\"strategies\":[", "\"strategies\":[\n  ")
        .replace("\"pipelining_hot_path\":", "\n\"pipelining_hot_path\":\n  ")
        .replace("]}", "\n]}")
        .replace("{\"bench\"", "{\n\"bench\"")
}

/// Validates the schema of an emitted report (used by the CI smoke run).
pub fn validate_report_json(text: &str) -> std::result::Result<(), String> {
    let v: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for key in [
        "bench",
        "tuples_per_relation",
        "relations",
        "processors",
        "batch_size",
        "pipelining_hot_path",
        "strategies",
    ] {
        if v.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    let hot = v.get("pipelining_hot_path").expect("checked");
    for key in [
        "workers",
        "baseline_deep_copy",
        "shared_zero_copy",
        "speedup",
    ] {
        if hot.get(key).is_none() {
            return Err(format!("missing key `pipelining_hot_path.{key}`"));
        }
    }
    match v.get("strategies") {
        Some(JsonValue::Arr(items)) if items.len() == 4 => {}
        _ => return Err("`strategies` must be an array of 4 runs".into()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickest_report_is_valid_and_faster_shared() {
        let hot = hot_path_comparison(8_000, 1).unwrap();
        assert_eq!(hot.baseline_deep_copy.tuples, hot.shared_zero_copy.tuples);
        assert_eq!(
            hot.baseline_deep_copy.matches, hot.shared_zero_copy.matches,
            "both movements must compute the same join"
        );
        assert!(hot.speedup > 0.0);
    }

    #[test]
    fn strategy_runs_cover_all_strategies() {
        let runs = strategy_runs(4, 300, 3).unwrap();
        assert_eq!(runs.len(), 4);
        for r in &runs {
            assert_eq!(r.result_tuples, 300, "{}", r.strategy);
            assert!(r.tuples_per_sec > 0.0);
        }
    }

    #[test]
    fn concurrent_comparison_runs_and_bounds_threads() {
        // Tiny workload: correctness of the measurement plumbing, not
        // performance. The engine must stay within its fixed pool.
        let c = concurrent_comparison(3, 300, 2, 2, 1).unwrap();
        assert_eq!(c.workers, 2);
        assert_eq!(c.back_to_back.queries, 2);
        assert_eq!(c.concurrent.queries, 2);
        assert_eq!(
            c.back_to_back.tuples, c.concurrent.tuples,
            "both modes run the same queries"
        );
        assert!(c.back_to_back.tuples_per_sec > 0.0);
        assert!(c.concurrent.tuples_per_sec > 0.0);
        assert_eq!(
            c.worker_threads_spawned, 2,
            "query count must not grow the pool"
        );
    }

    #[test]
    fn bench7_runs_and_validates_on_a_tiny_workload() {
        let k = join_kernel_comparison(2_000, 1).unwrap();
        assert_eq!(k.row_path.matches, k.columnar.matches);
        assert_eq!(k.row_path.matches, 2_000, "permutation join: 1:1 matches");
        assert!(k.speedup > 0.0);
        let report = Bench7Report {
            bench: 7,
            quick: true,
            join_kernels: k,
            pushdown: operator_comparison(3, 400, 2, 1).unwrap(),
            guardrail_overhead: overhead_comparison(3, 300, 2, 1).unwrap(),
        };
        let json = bench7_to_json(&report);
        validate_bench7_json(&json).unwrap();
        assert!(validate_bench7_json("{}").is_err());
        assert!(validate_bench7_json("{\"bench\":7,\"quick\":true}").is_err());
    }

    #[test]
    fn bench2_json_schema_validates() {
        let report = Bench2Report {
            bench: 2,
            quick: true,
            concurrent: ConcurrentComparison {
                workers: 4,
                queries: 4,
                relations: 3,
                tuples_per_relation: 10,
                procs_per_query: 1,
                startup_cost_ms: 12.0,
                back_to_back: ConcurrentRun {
                    queries: 4,
                    tuples: 100,
                    elapsed_s: 1.0,
                    tuples_per_sec: 100.0,
                },
                concurrent: ConcurrentRun {
                    queries: 4,
                    tuples: 100,
                    elapsed_s: 0.5,
                    tuples_per_sec: 200.0,
                },
                speedup: 2.0,
                worker_threads_spawned: 4,
            },
        };
        let json = bench2_to_json(&report);
        validate_bench2_json(&json).unwrap();
        assert!(validate_bench2_json("{}").is_err());
        assert!(validate_bench2_json("{\"bench\":2,\"quick\":true}").is_err());
    }

    #[test]
    fn bench3_runs_and_validates_on_a_tiny_workload() {
        let run = planner_family_run(mj_exec::QueryFamily::Chain, 4, 200, 3, 1, 7).unwrap();
        assert_eq!(run.strategies.len(), 4);
        // planner_elapsed_s reuses one of the fixed measurements, so the
        // ratio against their minimum is >= 1 by construction.
        assert!(run.ratio_vs_best >= 1.0);
        assert!(run.result_tuples > 0);
        let report = Bench3Report {
            bench: 3,
            quick: true,
            processors: 3,
            reps: 1,
            families: vec![run.clone(), run.clone(), run],
        };
        let json = bench3_to_json(&report);
        validate_bench3_json(&json).unwrap();
        assert!(validate_bench3_json("{}").is_err());
        assert!(validate_bench3_json("{\"bench\":3,\"quick\":true}").is_err());
    }

    #[test]
    fn bench4_runs_and_validates_on_a_tiny_workload() {
        let c = session_comparison(3, 400, 2, 1).unwrap();
        assert_eq!(c.relations, 3);
        assert!(c.streamed.result_tuples > 0);
        assert!(c.streamed.batches >= 1);
        assert!(c.streamed.first_batch_s <= c.streamed.full_stream_s);
        assert!(c.strategy == "FP");
        let report = Bench4Report {
            bench: 4,
            quick: true,
            session: c,
        };
        let json = bench4_to_json(&report);
        validate_bench4_json(&json).unwrap();
        assert!(validate_bench4_json("{}").is_err());
        assert!(validate_bench4_json("{\"bench\":4,\"quick\":true}").is_err());
    }

    #[test]
    fn bench6_runs_and_validates_on_a_tiny_workload() {
        let overhead = overhead_comparison(3, 300, 2, 1).unwrap();
        assert!(overhead.guardrails_off.elapsed_s > 0.0);
        assert!(overhead.guardrails_on.elapsed_s > 0.0);
        assert!(overhead.overhead_ratio > 0.0);
        let admission = admission_comparison(3, 200, 3, 600, 2, 1).unwrap();
        assert_eq!(admission.unprotected.samples, 8);
        assert_eq!(admission.protected.samples, 8);
        assert!(admission.protected.p99_s > 0.0);
        assert!(
            admission.noisy_budget_aborts >= admission.noisy_queries as u64,
            "every noisy query must bust its budget (got {})",
            admission.noisy_budget_aborts
        );
        let report = Bench6Report {
            bench: 6,
            quick: true,
            overhead,
            admission,
        };
        let json = bench6_to_json(&report);
        validate_bench6_json(&json).unwrap();
        assert!(validate_bench6_json("{}").is_err());
        assert!(validate_bench6_json("{\"bench\":6,\"quick\":true}").is_err());
    }

    #[test]
    fn bench10_measurement_plumbing_works_on_a_tiny_server() {
        // Tiny workload: correctness of the hammer/payload plumbing, not
        // performance — the speedup gates run under `repro bench-wire`.
        use mj_server::{Server, ServerConfig};
        let db = bench10_db(3, 40, 99, 1).unwrap();
        let server = Server::start(
            db.clone(),
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                conn_workers: 2,
                max_clients: 8,
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let base = mj_exec::chain_query_sql(3);

        let adhoc = prepared_hammer(addr, &base, "R1.id", 40, 2, 3, false).unwrap();
        // Plan the text once on another connection first: two clients that
        // prepare at the same instant can both miss (each plans before the
        // other's entry lands), so only prepares after it are sure to hit.
        mj_server::Client::connect(addr)
            .unwrap()
            .prepare(&format!("{base} WHERE R1.id < ?1"))
            .unwrap();
        let prepared = prepared_hammer(addr, &base, "R1.id", 40, 2, 3, true).unwrap();
        assert_eq!(adhoc.queries, 6);
        assert_eq!(prepared.queries, 6);
        assert!(adhoc.qps > 0.0 && prepared.qps > 0.0);
        assert!(prepared.p50_ms >= 0.0 && prepared.p99_ms >= prepared.p50_ms);
        let stats = db.stats();
        assert!(
            stats.plan_cache_hits > 0,
            "two prepared clients on one text must share the plan cache"
        );

        let json = payload_run(addr, &base, 2, false).unwrap();
        let bin = payload_run(addr, &base, 2, true).unwrap();
        assert_eq!(json.queries, 2);
        assert_eq!(
            json.rows, bin.rows,
            "both formats must deliver the same row count"
        );
        assert!(json.rows_per_s > 0.0 && bin.rows_per_s > 0.0);
        server.shutdown();

        assert!(validate_bench10_json("{}").is_err());
        assert!(validate_bench10_json("{\"bench\":10,\"quick\":true}").is_err());
    }

    #[test]
    fn report_json_schema_validates() {
        let report = BenchReport {
            bench: 1,
            quick: false,
            tuples_per_relation: 10,
            relations: 2,
            processors: 2,
            batch_size: 8,
            pipelining_hot_path: HotPathComparison {
                workers: 4,
                baseline_deep_copy: HotPathRun {
                    tuples: 1,
                    matches: 1,
                    elapsed_s: 1.0,
                    tuples_per_sec: 1.0,
                },
                shared_zero_copy: HotPathRun {
                    tuples: 1,
                    matches: 1,
                    elapsed_s: 0.5,
                    tuples_per_sec: 2.0,
                },
                speedup: 2.0,
            },
            strategies: (0..4)
                .map(|i| StrategyRun {
                    strategy: format!("S{i}"),
                    elapsed_s: 1.0,
                    tuples_per_sec: 1.0,
                    peak_table_bytes: 1,
                    result_tuples: 1,
                })
                .collect(),
        };
        let json = report_to_json(&report);
        validate_report_json(&json).unwrap();
        assert!(validate_report_json("{}").is_err());
    }
}
