//! Plan interpretation on the shared worker pool: build operator tasks,
//! wire streams, schedule phases, stream the result to the client.
//!
//! The [`Engine`] owns a fixed-size [`WorkerPool`] and a shared
//! [`FragmentStore`]; queries are submitted with [`Engine::submit`], which
//! returns a [`QueryHandle`] immediately — the query's operator instances
//! are multiplexed onto the same bounded worker set (the paper's fixed
//! processor pool, §4) while a per-query coordinator thread tracks
//! completions. The root operator's instances feed a bounded client
//! channel instead of materializing the result: the handle's
//! [`ResultStream`] pulls batches while the query is still running, and a
//! slow client backpressures the worker pool. [`Engine::run`] and
//! [`run_plan`] remain as thin wrappers that drain the stream into a
//! materialized [`ExecOutcome`].
//!
//! Per-query state (tuple streams, metrics, the coordinator waiting on
//! instance completions) lives on the coordinator; materialized
//! intermediates go into the shared store under a per-query namespace that
//! is reclaimed when the query finishes — including when it is cancelled:
//! the handle's cancel token is observed by every task on its next
//! scheduling step, each reports exactly once, and the coordinator
//! reclaims the namespace before the outcome is released.
//!
//! Scheduling order follows the right-deep segmentation: every operator
//! task is submitted with its segment's topological wave index
//! ([`Segmentation::node_waves`](mj_plan::segment::Segmentation)) as its
//! priority, so deeper segments start first and independent segments of
//! one wave interleave on the pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use mj_core::plan_ir::{OperandSource, ParallelPlan, PlanOp};
use mj_core::validate::validate_plan;
use mj_plan::segment::segments;
use mj_relalg::column::{ColumnBatch, ColumnLayout};
use mj_relalg::{RelalgError, Relation, Result, Tuple};
use mj_storage::{
    BucketIndex, Catalog, ColumnScan, FragmentStore, ResidentRelation, Rows, StoredFragment,
};

use crate::binding::{QueryBinding, StageKind};
use crate::budget::MemoryBudget;
use crate::config::{ExecConfig, QueryOptions};
use crate::handle::{QueryCtrl, QueryHandle, QueryOutcome, ResultStream};
use crate::metrics::counters::EngineCounters;
use crate::metrics::{EngineStats, Metrics, MetricsSnapshot};
use crate::operator::task::{DoneMsg, OpTask};
use crate::operator::{AggregateOp, FilterOp, LimitOp, OutputPort, PhysicalOp};
use crate::sched::WorkerPool;
use crate::source::Source;
use crate::stream::{client_channel, operand_channels, BatchPool, ClientSink, Msg, Router};

/// The producer side of one redistribution edge: senders to the consumer's
/// instances, the consumer's routing key column, and the edge's shared
/// batch-buffer pool.
type OutEdge = (Vec<Sender<Msg>>, usize, Arc<BatchPool>);

/// Producer op id -> its output edge.
type OutStreams = HashMap<usize, OutEdge>;

/// The endpoints of the query's root-result channel before the root
/// operation spawns.
type ClientEdge = (Sender<Msg>, Arc<BatchPool>);

/// The column-resident relations one query reads, by catalog name —
/// looked up once per query so every scan and the late-materialization
/// registry see the same catalog generation even if a relation is
/// re-registered while the query runs.
pub(crate) type Residents = HashMap<String, Arc<ResidentRelation>>;

/// Snapshots the resident copy of every base relation `plan` scans.
pub(crate) fn residents(plan: &ParallelPlan, catalog: &Catalog) -> Result<Residents> {
    let mut out = Residents::new();
    for op in &plan.ops {
        for operand in [&op.left, &op.right] {
            if let OperandSource::Base { relation } = operand {
                if !out.contains_key(relation) {
                    out.insert(relation.clone(), catalog.resident(relation)?);
                }
            }
        }
    }
    Ok(out)
}

/// One base operand's scan before it is split per instance: the stored
/// columns with the operand's filter and shape, plus the cached bucket
/// lists that give instance `i` its ideal fragment (`None` at degree 1).
struct BaseScan {
    scan: ColumnScan,
    buckets: Option<Arc<BucketIndex>>,
}

impl BaseScan {
    /// The scan instance `i` reads.
    fn instance(&self, i: usize) -> ColumnScan {
        match &self.buckets {
            Some(index) => self.scan.clone().rows(Rows::Bucket(index.clone(), i)),
            None => self.scan.clone(),
        }
    }
}

/// The materialized result of executing a plan to completion — what the
/// blocking wrappers ([`Engine::run`], [`run_plan`]) assemble by draining
/// the [`ResultStream`]. Streaming clients use [`Engine::submit`] and
/// never materialize this.
#[derive(Debug)]
pub struct ExecOutcome {
    /// The query result (the root join's output, drained from the stream).
    pub relation: Relation,
    /// Response time: scheduling start to last operation process exit
    /// (the paper's metric). Base relations are already column-resident
    /// and ideally fragmented (§4.1) by cached bucket lists, so what
    /// precedes it is only binding the query's scans to the stored
    /// columns; pushed-down filters and bucket selections are evaluated
    /// inside the timed window, by the scanning instances.
    pub elapsed: Duration,
    /// End-to-end time from submission to the first result batch reaching
    /// the draining client; `None` when the query produced no batches.
    pub time_to_first_batch: Option<Duration>,
    /// Execution metrics.
    pub metrics: Metrics,
}

/// A shared, concurrency-safe execution engine: one fixed worker pool and
/// one fragment store serving any number of in-flight queries.
///
/// ```text
/// let engine = Engine::new(catalog, ExecConfig::default())?;   // N workers
/// // from any number of threads:
/// let mut handle = engine.submit(&plan, &binding)?;            // streaming
/// for batch in handle.stream() { /* incremental consumption */ }
/// let outcome = engine.run(&plan, &binding)?;                  // materialized
/// ```
///
/// Thread count of the *worker pool* is bounded by `config.workers` for
/// the engine's whole lifetime — running more queries multiplexes more
/// tasks onto the same workers instead of spawning threads. (Each
/// submitted query additionally holds one mostly-idle coordinator thread
/// for its own lifetime; coordinators never execute operator work.)
pub struct Engine {
    catalog: Arc<Catalog>,
    config: ExecConfig,
    pool: Arc<WorkerPool>,
    store: Arc<FragmentStore>,
    next_query: AtomicU64,
    admission: Option<Arc<Admission>>,
    counters: Arc<EngineCounters>,
}

/// Admission control: a counting gate of `max` concurrently running
/// queries fronted by a bounded FIFO ticket queue. Submissions beyond the
/// queue bound are rejected with [`RelalgError::Overloaded`].
struct Admission {
    max: usize,
    queue_limit: usize,
    state: Mutex<AdmissionState>,
    ready: Condvar,
}

struct AdmissionState {
    /// Queries currently holding a run slot.
    active: usize,
    /// Next ticket to hand out to a waiter.
    next_ticket: u64,
    /// Ticket currently at the head of the FIFO queue.
    serving: u64,
}

impl Admission {
    fn new(max: usize, queue_limit: usize) -> Arc<Self> {
        Arc::new(Admission {
            max,
            queue_limit,
            state: Mutex::new(AdmissionState {
                active: 0,
                next_ticket: 0,
                serving: 0,
            }),
            ready: Condvar::new(),
        })
    }

    /// Takes a run slot, waiting FIFO behind earlier submissions if the
    /// engine is saturated; errors with `Overloaded` when the wait queue
    /// is full. The returned permit releases the slot on drop.
    fn acquire(self: &Arc<Self>, counters: &EngineCounters) -> Result<AdmissionPermit> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let waiting = (s.next_ticket - s.serving) as usize;
        if s.active < self.max && waiting == 0 {
            s.active += 1;
            return Ok(AdmissionPermit {
                admission: self.clone(),
            });
        }
        if waiting >= self.queue_limit {
            counters.note_rejected();
            return Err(RelalgError::Overloaded {
                queue_depth: waiting,
            });
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        while !(s.serving == ticket && s.active < self.max) {
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.serving += 1;
        s.active += 1;
        drop(s);
        // The next waiter's ticket may already be serviceable (several
        // slots freed at once); make sure it rechecks.
        self.ready.notify_all();
        Ok(AdmissionPermit {
            admission: self.clone(),
        })
    }

    fn release(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.active -= 1;
        drop(s);
        self.ready.notify_all();
    }
}

/// RAII run slot: held by the query's coordinator for the query's whole
/// lifetime, released (waking FIFO waiters) when the coordinator finishes.
struct AdmissionPermit {
    admission: Arc<Admission>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.admission.release();
    }
}

impl Engine {
    /// Creates an engine over `catalog` (the column-resident base
    /// relations shared by all queries) with `config.workers` pool
    /// threads.
    pub fn new(catalog: Arc<Catalog>, config: ExecConfig) -> Result<Engine> {
        config.validate().map_err(RelalgError::InvalidPlan)?;
        Ok(Engine {
            catalog,
            config,
            pool: WorkerPool::new(config.workers),
            store: Arc::new(FragmentStore::new(0)),
            next_query: AtomicU64::new(0),
            admission: config
                .max_concurrent
                .map(|max| Admission::new(max, config.admission_queue)),
            counters: Arc::new(EngineCounters::default()),
        })
    }

    /// Engine-lifetime robustness counters: completions, rejections,
    /// timeouts, stalls, budget aborts, contained panics, peak bytes,
    /// latency histograms — one atomically consistent snapshot (all
    /// per-query counters read under a single lock), overlaid with the
    /// worker pool's live busy/idle gauges.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.counters.snapshot();
        stats.workers_total = self.pool.workers() as u64;
        stats.workers_busy = self.pool.busy().min(stats.workers_total);
        stats
    }

    /// The accept-listed metrics export built from [`stats`](Self::stats):
    /// only the series in [`crate::metrics::METRICS_ACCEPT_LIST`], ready
    /// to render as Prometheus text or JSON.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_stats(&self.stats())
    }

    /// The engine configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Worker threads in the shared pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The shared scheduler pool (diagnostics).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The shared fragment store holding materialized intermediates of all
    /// in-flight queries (query-namespaced; reclaimed per query).
    pub fn store(&self) -> &Arc<FragmentStore> {
        &self.store
    }

    /// Submits `plan` for execution and returns a [`QueryHandle`]
    /// immediately. Callable concurrently from many threads; each query
    /// gets its own handle, stream, metrics, and cancel token while all of
    /// them share the engine's fixed worker pool.
    pub fn submit(&self, plan: &ParallelPlan, binding: &QueryBinding) -> Result<QueryHandle> {
        self.submit_with(plan, binding, QueryOptions::default())
    }

    /// [`submit`](Engine::submit) with per-query [`QueryOptions`]
    /// (deadline, memory budget, fault plan). Per-query options override
    /// the engine-wide [`ExecConfig`] defaults.
    ///
    /// When `max_concurrent` admission control is configured, this call
    /// blocks FIFO behind earlier submissions while the engine is
    /// saturated, and returns [`RelalgError::Overloaded`] once the wait
    /// queue is also full.
    pub fn submit_with(
        &self,
        plan: &ParallelPlan,
        binding: &QueryBinding,
        opts: QueryOptions,
    ) -> Result<QueryHandle> {
        // Submission instant: anchors both the duration histogram and the
        // client-side time-to-first-batch measurement.
        let submitted_at = Instant::now();
        // Count the submission before admission control so rejected
        // submissions are included in `queries_submitted` — that is what
        // keeps every terminal-outcome counter summing to at most it.
        self.counters.note_submitted();
        let permit = match &self.admission {
            Some(admission) => Some(admission.acquire(&self.counters)?),
            None => None,
        };
        let (client, stream, ctrl) = open_result_channel(
            plan,
            binding,
            &self.config,
            &opts,
            submitted_at,
            Some(self.counters.clone()),
        )?;
        self.counters.note_started();

        let plan = plan.clone();
        let binding = binding.clone();
        let catalog = self.catalog.clone();
        let config = self.config;
        let pool = self.pool.clone();
        let store = self.store.clone();
        let query_id = self.next_query.fetch_add(1, Ordering::Relaxed);
        let coord_ctrl = ctrl.clone();
        let counters = self.counters.clone();
        let coordinator = std::thread::Builder::new()
            .name("mj-coordinator".into())
            .spawn(move || {
                let result = run_query(
                    &plan,
                    &binding,
                    catalog.as_ref(),
                    &config,
                    &opts,
                    &pool,
                    &store,
                    query_id,
                    client,
                    &coord_ctrl,
                );
                coord_ctrl.finish(&result);
                counters.record(
                    &result,
                    coord_ctrl.panics(),
                    coord_ctrl.budget().peak(),
                    submitted_at.elapsed(),
                );
                // Release the admission slot only after the query has
                // fully quiesced and its fragments are reclaimed, so the
                // concurrency cap bounds actual resource use.
                drop(permit);
                result
            })
            .map_err(|e| {
                // The query was counted active but its coordinator never
                // ran; record the failure here so the gauge and terminal
                // counters stay consistent.
                let err: Result<QueryOutcome> = Err(RelalgError::InvalidPlan(format!(
                    "cannot spawn coordinator: {e}"
                )));
                self.counters.record(&err, 0, 0, submitted_at.elapsed());
                RelalgError::InvalidPlan(format!("cannot spawn coordinator: {e}"))
            })?;
        Ok(QueryHandle::new(stream, ctrl, coordinator))
    }

    /// Executes `plan` to completion, draining the result stream into a
    /// materialized [`ExecOutcome`]. Callable concurrently from many
    /// threads; each call gets its own [`Metrics`].
    pub fn run(&self, plan: &ParallelPlan, binding: &QueryBinding) -> Result<ExecOutcome> {
        let mut handle = self.submit(plan, binding)?;
        let mut stream = handle.stream();
        let schema = stream.schema().clone();
        let mut tuples: Vec<Tuple> = Vec::new();
        while let Some(mut batch) = stream.next_batch() {
            tuples.extend(batch.drain());
        }
        drop(stream); // fully drained: dropping a finished stream is a no-op
        let outcome = handle.outcome()?;
        Ok(ExecOutcome {
            relation: Relation::new_unchecked(schema, tuples),
            elapsed: outcome.elapsed,
            time_to_first_batch: outcome.time_to_first_batch,
            metrics: outcome.metrics,
        })
    }
}

/// Executes `plan` against the relations in `catalog` on a transient
/// single-query engine (a pool of `config.workers` threads is created for
/// the call and joined before it returns), draining the stream into a
/// materialized [`ExecOutcome`]. Long-lived callers, concurrent
/// workloads, and streaming clients should hold an [`Engine`] instead.
pub fn run_plan(
    plan: &ParallelPlan,
    binding: &QueryBinding,
    catalog: &Catalog,
    config: &ExecConfig,
) -> Result<ExecOutcome> {
    let opts = QueryOptions::default();
    let (client, mut stream, ctrl) =
        open_result_channel(plan, binding, config, &opts, Instant::now(), None)?;
    let schema = stream.schema().clone();
    let pool = WorkerPool::new(config.workers);
    let store = Arc::new(FragmentStore::new(plan.processors));

    std::thread::scope(|scope| {
        let pool = &pool;
        let store = &store;
        let ctrl_ref = &ctrl;
        let opts_ref = &opts;
        let coordinator = scope.spawn(move || {
            run_query(
                plan, binding, catalog, config, opts_ref, pool, store, 0, client, ctrl_ref,
            )
        });
        let mut tuples: Vec<Tuple> = Vec::new();
        while let Some(mut batch) = stream.next_batch() {
            tuples.extend(batch.drain());
        }
        let outcome = coordinator
            .join()
            .map_err(|_| RelalgError::Internal("coordinator thread panicked".into()))??;
        Ok(ExecOutcome {
            relation: Relation::new_unchecked(schema.clone(), tuples),
            elapsed: outcome.elapsed,
            time_to_first_batch: ctrl.time_to_first_batch(),
            metrics: outcome.metrics,
        })
    })
}

/// Validates the configuration and plan, locates the root operation, and
/// opens one query's bounded result channel: the producer-side
/// [`ClientEdge`] for the coordinator, the client-side [`ResultStream`],
/// and the shared cancel/status block. The single setup path behind both
/// [`Engine::submit`] and [`run_plan`].
fn open_result_channel(
    plan: &ParallelPlan,
    binding: &QueryBinding,
    config: &ExecConfig,
    opts: &QueryOptions,
    submitted_at: Instant,
    counters: Option<Arc<EngineCounters>>,
) -> Result<(ClientEdge, ResultStream, Arc<QueryCtrl>)> {
    config.validate().map_err(RelalgError::InvalidPlan)?;
    validate_plan(plan)?;
    let root = plan.tree.root();
    let root_degree = plan
        .op_for_join(root)
        .map(PlanOp::degree)
        .ok_or_else(|| RelalgError::InvalidPlan("plan has no root operation".into()))?;
    // With pipeline stages attached, the *last stage* feeds the client.
    let producers = binding.stages().last().map_or(root_degree, |s| s.degree);
    let schema = binding.result_schema(root)?.clone();
    // The client edge's buffer pool is typed with the result's column
    // layout so its budget accounting charges real columnar bytes.
    let (tx, rx, bpool) = client_channel(
        producers,
        config.channel_capacity,
        ColumnLayout::of(&schema),
    );
    // Per-query limits override engine-wide defaults.
    let deadline = opts
        .deadline()
        .or(config.deadline)
        .map(|d| Instant::now() + d);
    let budget = match opts.memory_budget().or(config.memory_budget) {
        Some(limit) => MemoryBudget::with_limit(limit),
        None => MemoryBudget::unlimited(),
    };
    bpool.set_budget(budget.clone());
    let ctrl = QueryCtrl::with_limits(deadline, budget);
    let stream = ResultStream::new(rx, producers, schema, ctrl.clone(), submitted_at, counters);
    Ok(((tx, bpool), stream, ctrl))
}

/// Per-query coordinator state while its tasks run on the pool.
struct QueryRun<'a> {
    plan: &'a ParallelPlan,
    /// The binding operators are wired from: the narrow rewrite of a
    /// late-materialized query, otherwise the original.
    binding: &'a QueryBinding,
    config: &'a ExecConfig,
    pool: &'a WorkerPool,
    store: &'a Arc<FragmentStore>,
    ctrl: &'a Arc<QueryCtrl>,
    /// Fragment-name namespace of this query in the shared store.
    ns: String,
    /// Per-op scheduling priority: the op's segment wave (§4 order).
    priorities: Vec<usize>,
    /// base_scans[(op, side)] = the base operand's scan, split per
    /// instance at spawn.
    base_scans: HashMap<(usize, usize), BaseScan>,
    /// Receivers for stream operands, taken at consumer spawn.
    stream_rx: HashMap<(usize, usize), Vec<Receiver<Msg>>>,
    /// Senders for stream outputs, taken at producer spawn.
    out_stream: OutStreams,
    /// Producer op -> the materializing consumer's (key column, degree),
    /// which the stored fragments are bucket-indexed on.
    out_materialized: Vec<Option<(usize, usize)>>,
    /// Per-stage input receivers (taken when the stages spawn).
    stage_rx: Vec<Vec<Receiver<Msg>>>,
    /// Per-stage output senders; `None` for the last stage (it feeds the
    /// client channel).
    stage_out: Vec<Option<OutEdge>>,
    /// Root-result channel endpoints, taken when the sink task spawns
    /// (the last stage, or the root op when no stages are attached);
    /// dropping the master sender lets the stream observe teardown.
    client: Option<ClientEdge>,
    done_tx: mpsc::Sender<DoneMsg>,
    spawned: Vec<bool>,
    spawned_instances: usize,
    metrics: Metrics,
    /// Late-materialization resolver, attached to the root join's tasks.
    resolver: Option<Arc<crate::late::Resolver>>,
    /// Deterministic fault-injection plan (test harness only).
    #[cfg(feature = "faults")]
    fault_plan: Option<crate::faults::FaultPlan>,
}

impl QueryRun<'_> {
    /// Submits every op whose dependencies are met as pool tasks.
    fn spawn_ready(&mut self, deps_remaining: &[usize]) -> Result<()> {
        let root_join = self.plan.tree.root();
        for op in &self.plan.ops {
            if self.spawned[op.id] || deps_remaining[op.id] > 0 {
                continue;
            }
            self.spawned[op.id] = true;
            self.spawn_op(op, root_join)?;
        }
        Ok(())
    }

    fn spawn_op(&mut self, op: &PlanOp, root_join: usize) -> Result<()> {
        let spec = self.binding.spec(op.join)?;
        let degree = op.degree();
        self.metrics.ops[op.id].instances = degree;
        self.metrics.processes += degree;

        // Per-side instance source builders.
        let mut rxs: [Option<Vec<Receiver<Msg>>>; 2] = [
            self.stream_rx.remove(&(op.id, 0)),
            self.stream_rx.remove(&(op.id, 1)),
        ];
        let mut mat_fragments: [Option<Vec<Arc<StoredFragment>>>; 2] = [None, None];
        for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
            if let OperandSource::Materialized { from } = operand {
                let frags = self.store.collect(&format!("{}op{from}", self.ns));
                if frags.is_empty() {
                    return Err(RelalgError::InvalidPlan(format!(
                        "op {} reads op{from} before it materialized",
                        op.id
                    )));
                }
                mat_fragments[side] = Some(frags);
            }
        }
        let out = self.out_stream.remove(&op.id);
        // The sink op (no stream consumer, no materializing consumer)
        // feeds the client's result channel.
        let client = if out.is_none() && self.out_materialized[op.id].is_none() {
            debug_assert_eq!(op.join, root_join, "only the root op feeds the client");
            Some(self.client.take().ok_or_else(|| {
                RelalgError::InvalidPlan("plan has more than one sink operation".into())
            })?)
        } else {
            None
        };

        // `i` indexes channels, fragments, and procs alike.
        #[allow(clippy::needless_range_loop)]
        for i in 0..degree {
            let mut sources: Vec<Source> = Vec::with_capacity(2);
            for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
                let source = match operand {
                    OperandSource::Base { .. } => {
                        let base = self.base_scans.get(&(op.id, side)).ok_or_else(|| {
                            RelalgError::InvalidPlan(format!("op {} lost its base scan", op.id))
                        })?;
                        Source::Scan(vec![base.instance(i)])
                    }
                    OperandSource::Materialized { .. } => Source::Scan(
                        mat_fragments[side]
                            .iter()
                            .flatten()
                            .map(|f| f.scan(i))
                            .collect(),
                    ),
                    OperandSource::Stream { from } => Source::Stream {
                        rx: rxs[side].as_mut().expect("channels created")[i].clone(),
                        producers: self.plan.ops[*from].degree(),
                    },
                };
                sources.push(source);
            }
            let right = sources.pop().expect("two sides");
            let left = sources.pop().expect("two sides");

            let output = match (&out, self.out_materialized[op.id]) {
                (Some((txs, key_col, pool)), _) => OutputPort::Stream(Router::new(
                    txs.clone(),
                    *key_col,
                    self.config.batch_size,
                    pool.clone(),
                )),
                (None, Some((key_col, of))) => OutputPort::Materialize {
                    store: self.store.clone(),
                    proc: op.procs[i],
                    name: format!("{}op{}", self.ns, op.id),
                    buffer: ColumnBatch::for_schema(self.binding.schema(op.join)?),
                    key_col,
                    of,
                    budget: Some(self.ctrl.budget().clone()),
                },
                (None, None) => {
                    let (tx, bpool) = client.as_ref().expect("taken above");
                    OutputPort::Client(ClientSink::new(
                        tx.clone(),
                        self.config.batch_size,
                        bpool.clone(),
                    ))
                }
            };

            let fail = self
                .config
                .fail
                .map(|f| f.op == op.id && f.instance == i)
                .unwrap_or(false);
            #[cfg_attr(not(feature = "faults"), allow(unused_mut))]
            let mut task = OpTask::join(
                op.algorithm,
                spec.clone(),
                left,
                right,
                output,
                self.config.batch_size,
                op.id,
                i,
                self.done_tx.clone(),
                self.config.startup_cost,
                fail,
                Some(self.ctrl.clone()),
            );
            if op.join == root_join {
                if let Some(resolver) = &self.resolver {
                    task.set_resolver(resolver.clone());
                }
            }
            #[cfg(feature = "faults")]
            if let Some(plan) = &self.fault_plan {
                task.arm_fault(plan.arm("join", op.id, i));
            }
            self.pool.submit(self.priorities[op.id], Box::new(task));
            self.spawned_instances += 1;
        }
        // `client` (the master sender) drops here once the sink op has
        // spawned: from now on only the sink instances hold senders.
        Ok(())
    }

    /// Spawns every post-join pipeline stage (residual filter, partitioned
    /// aggregate, limit). Stages consume only streams, so they are all
    /// submitted at query start and simply idle (blocked, yielding their
    /// worker) until the root join produces.
    fn spawn_stages(&mut self) -> Result<()> {
        let n_ops = self.plan.ops.len();
        let root = self.plan.tree.root();
        let mut producers = self
            .plan
            .op_for_join(root)
            .map(PlanOp::degree)
            .ok_or_else(|| RelalgError::InvalidPlan("plan has no root operation".into()))?;
        for (i, stage) in self.binding.stages().iter().enumerate() {
            let op_id = n_ops + i;
            let rxs = std::mem::take(&mut self.stage_rx[i]);
            if rxs.len() != stage.degree {
                return Err(RelalgError::InvalidPlan(format!(
                    "stage {i} expects {} input channels, got {}",
                    stage.degree,
                    rxs.len()
                )));
            }
            let out_entry = self.stage_out[i].take();
            let client = if out_entry.is_none() {
                Some(self.client.take().ok_or_else(|| {
                    RelalgError::InvalidPlan("plan has more than one sink operation".into())
                })?)
            } else {
                None
            };
            self.metrics.ops[op_id].instances = stage.degree;
            self.metrics.processes += stage.degree;
            for (inst, rx) in rxs.iter().enumerate() {
                let source = Source::Stream {
                    rx: rx.clone(),
                    producers,
                };
                let output = match &out_entry {
                    Some((txs, key_col, pool)) => OutputPort::Stream(Router::new(
                        txs.clone(),
                        *key_col,
                        self.config.batch_size,
                        pool.clone(),
                    )),
                    None => {
                        let (tx, bpool) = client.as_ref().expect("taken above");
                        OutputPort::Client(ClientSink::new(
                            tx.clone(),
                            self.config.batch_size,
                            bpool.clone(),
                        ))
                    }
                };
                let op: Box<dyn PhysicalOp> = match &stage.kind {
                    StageKind::Filter {
                        predicate,
                        projection,
                    } => Box::new(FilterOp::new(predicate.clone(), projection.clone())),
                    StageKind::Aggregate {
                        group,
                        aggs,
                        projection,
                    } => Box::new(AggregateOp::new(
                        group.clone(),
                        aggs.clone(),
                        projection.clone(),
                    )),
                    StageKind::Limit { k } => Box::new(LimitOp::new(*k)),
                };
                let fail = self
                    .config
                    .fail
                    .map(|f| f.op == op_id && f.instance == inst)
                    .unwrap_or(false);
                #[cfg_attr(not(feature = "faults"), allow(unused_mut))]
                let mut task = OpTask::new(
                    op,
                    vec![source],
                    output,
                    self.config.batch_size,
                    op_id,
                    inst,
                    self.done_tx.clone(),
                    self.config.startup_cost,
                    fail,
                    Some(self.ctrl.clone()),
                );
                #[cfg(feature = "faults")]
                if let Some(plan) = &self.fault_plan {
                    let label = match &stage.kind {
                        StageKind::Filter { .. } => "filter",
                        StageKind::Aggregate { .. } => "aggregate",
                        StageKind::Limit { .. } => "limit",
                    };
                    task.arm_fault(plan.arm(label, op_id, inst));
                }
                self.pool.submit(self.priorities[op_id], Box::new(task));
                self.spawned_instances += 1;
            }
            producers = stage.degree;
        }
        Ok(())
    }

    /// Drops the channel endpoints of not-yet-spawned ops so already
    /// running producers/consumers observe a disconnect and unwind.
    fn release_unspawned_endpoints(&mut self) {
        self.stream_rx.clear();
        self.out_stream.clear();
        self.stage_rx.clear();
        self.stage_out.clear();
        self.client = None;
    }
}

/// Runs one query's plan on a (shared) pool and store, streaming the root
/// output into `client`. `query_id` namespaces the query's materialized
/// fragments within the store. Returns once the query has quiesced: every
/// submitted task has reported exactly once, and the query's fragment
/// namespace has been reclaimed.
#[allow(clippy::too_many_arguments)]
fn run_query(
    plan: &ParallelPlan,
    binding: &QueryBinding,
    catalog: &Catalog,
    config: &ExecConfig,
    opts: &QueryOptions,
    pool: &WorkerPool,
    store: &Arc<FragmentStore>,
    query_id: u64,
    client: ClientEdge,
    ctrl: &Arc<QueryCtrl>,
) -> Result<QueryOutcome> {
    #[cfg(not(feature = "faults"))]
    let _ = opts; // options beyond deadline/budget are resolved upstream
                  // Config and plan were validated by `open_result_channel` — both
                  // callers go through it before spawning this coordinator.
    let n_ops = plan.ops.len();
    let n_stages = binding.stages().len();
    let n_tasks = n_ops + n_stages;
    let ns = format!("q{query_id}:");
    store.ensure_nodes(plan.processors);

    // --- Setup (not timed): bind every base operand to the catalog's
    // column-resident copy. The ideal fragmentation of §4.1 is already
    // there — the cached bucket lists of (relation, key column, degree),
    // computed once per catalog generation — so a base scan is just a
    // selection vector over stored columns. Pushed-down filters are not
    // evaluated here: each instance applies its relation's filter to its
    // own bucket when it first reads it.
    let residents = residents(plan, catalog)?;

    // Late materialization (planning-time rewrite). When eligible, the
    // join pipeline runs on narrow ref-carrying scans bound by
    // `late.narrow`, the stored batches stay pinned in the rewrite's
    // registry, and the root join's tasks resolve refs back to the
    // original schema — so everything from the root's output port on
    // (stages, client channel) is untouched.
    let late = crate::late::plan_late(plan, binding, &residents, config.late)?;
    let exec_binding: &QueryBinding = late.as_ref().map_or(binding, |l| &l.narrow);

    let mut base_scans: HashMap<(usize, usize), BaseScan> = HashMap::new();
    for op in &plan.ops {
        let spec = exec_binding.spec(op.join)?;
        for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
            let OperandSource::Base { relation } = operand else {
                continue;
            };
            let resident = residents
                .get(relation)
                .ok_or_else(|| RelalgError::UnknownRelation(relation.clone()))?;
            let mut key_col = if side == 0 {
                spec.left_key
            } else {
                spec.right_key
            };
            // A late plan scans the narrow shape; its key column indexes
            // the narrow leaf, the bucket lists the stored column.
            let narrow = late.as_ref().and_then(|l| l.leaves.get(relation).cloned());
            if let Some(n) = &narrow {
                key_col = *n.cols.get(key_col).ok_or_else(|| {
                    RelalgError::InvalidPlan(format!("late plan lost the key of {relation}"))
                })?;
            }
            let buckets = match op.degree() {
                1 => None,
                of => Some(resident.buckets(key_col, of)?),
            };
            let scan = ColumnScan::new(resident.columns()?.clone())
                .filter(binding.scan_filter(relation).cloned().map(Arc::new))
                .narrow(narrow);
            base_scans.insert((op.id, side), BaseScan { scan, buckets });
        }
    }

    // Stream channels, created up front (receivers taken at consumer
    // spawn, senders at producer spawn). Edge pools are sized from both
    // endpoint degrees.
    let mut stream_rx: HashMap<(usize, usize), Vec<Receiver<Msg>>> = HashMap::new();
    let mut out_stream: OutStreams = HashMap::new();
    let mut out_materialized: Vec<Option<(usize, usize)>> = vec![None; n_ops];
    for op in &plan.ops {
        let spec = exec_binding.spec(op.join)?;
        for (side, operand) in [(0usize, &op.left), (1usize, &op.right)] {
            let key_col = if side == 0 {
                spec.left_key
            } else {
                spec.right_key
            };
            match operand {
                OperandSource::Stream { from } => {
                    // The edge carries the producer op's output rows; its
                    // pool is typed with that schema's column layout.
                    let layout = ColumnLayout::of(exec_binding.schema(plan.ops[*from].join)?);
                    let (txs, rxs, pool) = operand_channels(
                        plan.ops[*from].degree(),
                        op.degree(),
                        config.channel_capacity,
                        layout,
                    );
                    pool.set_budget(ctrl.budget().clone());
                    stream_rx.insert((op.id, side), rxs);
                    if out_stream.insert(*from, (txs, key_col, pool)).is_some() {
                        return Err(RelalgError::InvalidPlan(format!(
                            "op {from} has multiple stream consumers"
                        )));
                    }
                }
                OperandSource::Materialized { from } => {
                    out_materialized[*from] = Some((key_col, op.degree()));
                }
                OperandSource::Base { .. } => {}
            }
        }
    }

    // Post-join pipeline channels: the root op streams into stage 0, each
    // stage into the next, and the last stage into the client channel.
    let mut stage_rx: Vec<Vec<Receiver<Msg>>> = Vec::with_capacity(n_stages);
    let mut stage_out: Vec<Option<OutEdge>> = (0..n_stages).map(|_| None).collect();
    let mut stage_streams = 0usize;
    if n_stages > 0 {
        let root_op = plan
            .op_for_join(plan.tree.root())
            .ok_or_else(|| RelalgError::InvalidPlan("plan has no root operation".into()))?;
        let mut prev_degree = root_op.degree();
        for (i, stage) in binding.stages().iter().enumerate() {
            // Edge i carries the previous producer's output: the root
            // join's schema for stage 0, else the prior stage's.
            let in_schema = if i == 0 {
                binding.schema(root_op.join)?
            } else {
                &binding.stages()[i - 1].schema
            };
            let (txs, rxs, bpool) = operand_channels(
                prev_degree,
                stage.degree,
                config.channel_capacity,
                ColumnLayout::of(in_schema),
            );
            bpool.set_budget(ctrl.budget().clone());
            stage_streams += prev_degree * stage.degree;
            stage_rx.push(rxs);
            let entry = (txs, stage.partition_col, bpool);
            if i == 0 {
                if out_stream.insert(root_op.id, entry).is_some() {
                    return Err(RelalgError::InvalidPlan(
                        "root op already has a stream consumer".into(),
                    ));
                }
            } else {
                stage_out[i - 1] = Some(entry);
            }
            prev_degree = stage.degree;
        }
    }

    // Scheduling priority: the op's right-deep segment wave (§4 order);
    // pipeline stages run after the root, in later waves still.
    let node_waves = segments(&plan.tree).node_waves();
    let mut priorities: Vec<usize> = plan
        .ops
        .iter()
        .map(|op| node_waves.get(op.join).copied().flatten().unwrap_or(0))
        .collect();
    let stage_base = priorities.iter().copied().max().unwrap_or(0) + 1;
    priorities.extend((0..n_stages).map(|i| stage_base + i));

    // --- Scheduling (timed). ---
    let started = Instant::now();
    let (done_tx, done_rx) = mpsc::channel::<DoneMsg>();

    let mut deps_remaining: Vec<usize> = plan.ops.iter().map(|o| o.start_after.len()).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
    for op in &plan.ops {
        for &d in &op.start_after {
            dependents[d].push(op.id);
        }
    }

    let mut metrics = Metrics::new(n_tasks);
    metrics.streams = plan.stats().tuple_streams + stage_streams;
    for op in &plan.ops {
        metrics.ops[op.id].est_out = op.est_out;
    }
    for (i, stage) in binding.stages().iter().enumerate() {
        metrics.ops[n_ops + i].est_out = stage.est_out;
        metrics.ops[n_ops + i].kind = stage.kind.metrics_kind();
    }
    let mut run = QueryRun {
        plan,
        binding: exec_binding,
        config,
        pool,
        store,
        ctrl,
        ns: ns.clone(),
        priorities,
        base_scans,
        stream_rx,
        out_stream,
        out_materialized,
        stage_rx,
        stage_out,
        client: Some(client),
        done_tx,
        spawned: vec![false; n_ops],
        spawned_instances: 0,
        metrics,
        resolver: late.as_ref().map(|l| l.resolver.clone()),
        #[cfg(feature = "faults")]
        fault_plan: opts.fault_plan().cloned(),
    };

    let mut instances_left: Vec<usize> = plan
        .ops
        .iter()
        .map(|o| o.degree())
        .chain(binding.stages().iter().map(|s| s.degree))
        .collect();
    let mut received = 0usize;
    let mut first_err: Option<RelalgError> = None;

    if ctrl.is_canceled() {
        first_err = Some(RelalgError::Canceled);
        run.release_unspawned_endpoints();
    } else if let Err(e) = run
        .spawn_ready(&deps_remaining)
        .and_then(|()| run.spawn_stages())
    {
        // Setup failed part-way: any already-submitted tasks unwind via
        // dropped endpoints; keep draining below so the query is quiescent
        // (and the shared store clean) before we return.
        first_err = Some(e);
        run.release_unspawned_endpoints();
    }

    // Coordinator watchdog: with a deadline or stall timeout configured,
    // poll for completions on a short tick so limits are enforced even
    // when every task is parked (e.g. wedged on a dead peer). Without
    // limits, block exactly as before — zero overhead on the happy path.
    let watchdog_tick = Duration::from_millis(5);
    let watchdog = ctrl.deadline().is_some() || config.stall_timeout.is_some();
    let mut last_progress = (ctrl.progress(), Instant::now());

    while received < run.spawned_instances {
        let msg = if watchdog {
            match done_rx.recv_timeout(watchdog_tick) {
                Ok(msg) => Some(msg),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(RelalgError::Internal("scheduler channel broke".into()));
                }
            }
        } else {
            Some(
                done_rx
                    .recv()
                    .map_err(|_| RelalgError::Internal("scheduler channel broke".into()))?,
            )
        };
        let Some((op_id, res)) = msg else {
            // Watchdog tick: enforce the deadline centrally (tasks also
            // check it per step) and detect stalled pipelines.
            if !ctrl.is_aborted() && !ctrl.is_canceled() {
                if ctrl.deadline_exceeded() {
                    ctrl.abort(RelalgError::DeadlineExceeded);
                } else if let Some(timeout) = config.stall_timeout {
                    let progress = ctrl.progress();
                    if progress != last_progress.0 {
                        last_progress = (progress, Instant::now());
                    } else if last_progress.1.elapsed() >= timeout {
                        let dump = progress_dump(plan, binding, &instances_left, &run.metrics);
                        ctrl.abort(RelalgError::Stalled(dump));
                    }
                }
            }
            continue;
        };
        received += 1;
        // Completions are progress too: don't let a long-running final
        // drain that makes no per-step progress look like a stall.
        last_progress = (ctrl.progress(), Instant::now());
        if ctrl.is_canceled() && first_err.is_none() {
            // Cancellation arrived while tasks were in flight: stop
            // spawning new waves and let running tasks observe the token.
            first_err = Some(RelalgError::Canceled);
            run.release_unspawned_endpoints();
        }
        match res {
            Ok(stats) => {
                let m = &mut run.metrics.ops[op_id];
                m.tuples_in[0] += stats.tuples_in[0];
                m.tuples_in[1] += stats.tuples_in[1];
                m.tuples_out += stats.tuples_out;
                m.table_bytes += stats.table_bytes;
                run.metrics.sched_steps += stats.steps;
                run.metrics.sched_blocked += stats.blocked;
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                    // Unblock instances wired to never-spawned peers.
                    run.release_unspawned_endpoints();
                }
            }
        }
        instances_left[op_id] -= 1;
        // Pipeline stages (ids >= n_ops) have no dependents in the plan DAG.
        if op_id < n_ops && instances_left[op_id] == 0 && first_err.is_none() {
            // Op complete: release dependents.
            for &d in &dependents[op_id].clone() {
                deps_remaining[d] -= 1;
            }
            if let Err(e) = run.spawn_ready(&deps_remaining) {
                first_err = Some(e);
                run.release_unspawned_endpoints();
            }
        }
    }
    let elapsed = started.elapsed();

    // The query is quiescent: every submitted instance has reported.
    // Reclaim its namespace in the shared store, crediting the freed
    // fragment bytes back to the query's budget.
    ctrl.budget().credit(store.remove_prefix(&ns));
    run.metrics.peak_bytes = ctrl.budget().peak();
    run.metrics.panics_contained = ctrl.panics();

    if let Some(e) = first_err {
        // A cancelled query reports `Canceled` even when teardown surfaced
        // racing stream errors first; likewise an aborted query reports
        // its typed abort reason (deadline / budget / stall / contained
        // panic), not whichever secondary teardown error arrived first.
        return Err(if ctrl.is_canceled() {
            RelalgError::Canceled
        } else if let Some(abort) = ctrl.abort_error() {
            abort
        } else {
            e
        });
    }
    // A guardrail can trip on the very last step of the last instance
    // (e.g. an allocation pushes past the budget while that instance
    // completes): the abort slot is set but no task is left running to
    // observe it, so every completion arrived `Ok`. The typed abort still
    // wins over an otherwise clean finish.
    if let Some(abort) = ctrl.abort_error() {
        return Err(abort);
    }
    if run.spawned.iter().any(|s| !s) {
        return Err(RelalgError::InvalidPlan(
            "not all ops became ready (dependency cycle?)".into(),
        ));
    }

    Ok(QueryOutcome {
        elapsed,
        // Recorded client-side by the stream; `QueryHandle::wait` patches
        // it in after the coordinator returns.
        time_to_first_batch: None,
        metrics: run.metrics,
    })
}

/// Renders one line per operation for [`RelalgError::Stalled`]: the op's
/// kind and how many of its instances have finished, so a stall dump shows
/// where the pipeline wedged.
fn progress_dump(
    plan: &ParallelPlan,
    binding: &QueryBinding,
    instances_left: &[usize],
    metrics: &Metrics,
) -> String {
    let degrees: Vec<usize> = plan
        .ops
        .iter()
        .map(PlanOp::degree)
        .chain(binding.stages().iter().map(|s| s.degree))
        .collect();
    degrees
        .iter()
        .enumerate()
        .map(|(op, degree)| {
            let done = degree - instances_left.get(op).copied().unwrap_or(0);
            format!("op{op}[{}] {done}/{degree}", metrics.ops[op].kind.label())
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::QueryStatus;
    use mj_core::generator::{generate, GeneratorInput};
    use mj_core::strategy::Strategy;
    use mj_plan::cardinality::{node_cards, UniformOneToOne};
    use mj_plan::cost::{tree_costs, CostModel};
    use mj_plan::query::to_xra;
    use mj_plan::shapes::{build, Shape};
    use mj_relalg::JoinAlgorithm;
    use mj_storage::{Catalog, WisconsinGenerator};

    fn setup(k: usize, n: usize) -> (Arc<Catalog>, u64) {
        let catalog = Arc::new(Catalog::new());
        let gen = WisconsinGenerator::new(n, 42);
        for (name, rel) in gen.generate_named("R", k) {
            catalog.register(name, rel);
        }
        (catalog, n as u64)
    }

    fn run(
        shape: Shape,
        strategy: Strategy,
        k: usize,
        n: usize,
        procs: usize,
    ) -> (ExecOutcome, Relation) {
        let (catalog, nn) = setup(k, n);
        let tree = build(shape, k).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n: nn });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, procs);
        input.allow_oversubscribe = procs < tree.join_count();
        let plan = generate(strategy, &input).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let outcome = run_plan(&plan, &binding, catalog.as_ref(), &ExecConfig::default()).unwrap();
        // Oracle: sequential evaluation of the same logical plan.
        let xra = to_xra(&tree, 3, JoinAlgorithm::Simple);
        let expected = xra.eval(catalog.as_ref()).unwrap();
        (outcome, expected)
    }

    #[test]
    fn every_strategy_matches_the_sequential_oracle() {
        for strategy in Strategy::ALL {
            for shape in [Shape::LeftLinear, Shape::WideBushy, Shape::RightLinear] {
                let (outcome, expected) = run(shape, strategy, 5, 200, 4);
                assert_eq!(outcome.relation.len(), 200, "{strategy} {shape}");
                assert!(
                    outcome.relation.multiset_eq(&expected),
                    "{strategy} {shape}: parallel result differs from oracle"
                );
            }
        }
    }

    #[test]
    fn ten_relation_paper_query_all_strategies() {
        for strategy in Strategy::ALL {
            let (outcome, expected) = run(Shape::RightBushy, strategy, 10, 100, 9);
            assert_eq!(outcome.relation.len(), 100, "{strategy}");
            assert!(outcome.relation.multiset_eq(&expected), "{strategy}");
        }
    }

    #[test]
    fn metrics_reflect_the_plan() {
        let (outcome, _) = run(Shape::LeftLinear, Strategy::SP, 5, 200, 4);
        // SP: 4 joins x 4 processors.
        assert_eq!(outcome.metrics.processes, 16);
        // Every join outputs 200 tuples.
        for m in &outcome.metrics.ops {
            assert_eq!(m.tuples_out, 200);
            assert_eq!(m.instances, 4);
        }
        assert!(outcome.elapsed.as_nanos() > 0);
    }

    #[test]
    fn fp_uses_less_processes_but_more_table_memory() {
        let (sp, _) = run(Shape::WideBushy, Strategy::SP, 5, 400, 4);
        let (fp, _) = run(Shape::WideBushy, Strategy::FP, 5, 400, 4);
        assert!(sp.metrics.processes > fp.metrics.processes);
        let sp_bytes: u64 = sp.metrics.ops.iter().map(|o| o.table_bytes).sum();
        let fp_bytes: u64 = fp.metrics.ops.iter().map(|o| o.table_bytes).sum();
        assert!(fp_bytes > sp_bytes, "pipelining joins hold two tables");
    }

    #[test]
    fn oversubscribed_plan_still_correct() {
        // 9 joins on 2 "processors" with sharing allowed.
        let (outcome, expected) = run(Shape::WideBushy, Strategy::FP, 10, 50, 2);
        assert!(outcome.relation.multiset_eq(&expected));
    }

    #[test]
    fn single_processor_execution() {
        let (outcome, expected) = run(Shape::LeftLinear, Strategy::SP, 4, 64, 1);
        assert!(outcome.relation.multiset_eq(&expected));
    }

    /// Runs with a fault injected at (op, instance) and asserts the engine
    /// reports the failure without hanging or panicking.
    fn run_with_failure(shape: Shape, strategy: Strategy, fail: crate::config::FailPoint) {
        let (catalog, n) = setup(6, 128);
        let tree = build(shape, 6).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 4);
        input.allow_oversubscribe = true;
        let plan = generate(strategy, &input).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let config = ExecConfig {
            fail: Some(fail),
            ..ExecConfig::default()
        };
        let err = run_plan(&plan, &binding, catalog.as_ref(), &config)
            .expect_err("injected failure must surface");
        let msg = err.to_string();
        assert!(
            msg.contains("injected failure")
                // Racing teardown may surface a stream error first; both
                // prove the dataflow unwound instead of hanging.
                || msg.contains("closed before End")
                || msg.contains("consumer hung up"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn injected_failure_in_pipelined_plan_terminates() {
        // FP: every op is live-streaming; killing the bottom producer must
        // unwind the whole pipeline.
        run_with_failure(
            Shape::RightLinear,
            Strategy::FP,
            crate::config::FailPoint { op: 0, instance: 0 },
        );
    }

    #[test]
    fn injected_failure_in_materialized_plan_terminates() {
        // SP: sequential materialized phases; downstream ops must never
        // spawn after the failure.
        run_with_failure(
            Shape::LeftLinear,
            Strategy::SP,
            crate::config::FailPoint { op: 2, instance: 1 },
        );
    }

    #[test]
    fn injected_failure_at_the_root_terminates() {
        run_with_failure(
            Shape::WideBushy,
            Strategy::FP,
            crate::config::FailPoint { op: 4, instance: 0 },
        );
    }

    fn plan_for(
        tree: &mj_plan::tree::JoinTree,
        strategy: Strategy,
        n: u64,
        procs: usize,
    ) -> ParallelPlan {
        let cards = node_cards(tree, &UniformOneToOne { n });
        let costs = tree_costs(tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(tree, &cards, &costs, procs);
        input.allow_oversubscribe = procs < tree.join_count();
        generate(strategy, &input).unwrap()
    }

    #[test]
    fn engine_runs_many_queries_on_one_fixed_pool() {
        let (catalog, n) = setup(6, 200);
        let config = ExecConfig {
            workers: 3,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        assert_eq!(engine.workers(), 3);
        let tree = build(Shape::RightBushy, 6).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let xra = to_xra(&tree, 3, JoinAlgorithm::Simple);
        let expected = xra.eval(catalog.as_ref()).unwrap();
        for strategy in Strategy::ALL {
            let plan = plan_for(&tree, strategy, n, 4);
            let outcome = engine.run(&plan, &binding).unwrap();
            assert!(outcome.relation.multiset_eq(&expected), "{strategy}");
            assert!(outcome.metrics.sched_steps > 0);
        }
        assert_eq!(
            engine.pool().threads(),
            3,
            "four queries must not grow the worker-thread count"
        );
    }

    #[test]
    fn concurrent_queries_share_the_engine() {
        let (catalog, n) = setup(5, 150);
        let config = ExecConfig {
            workers: 4,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let expected = to_xra(&tree, 3, JoinAlgorithm::Simple)
            .eval(catalog.as_ref())
            .unwrap();
        std::thread::scope(|scope| {
            for strategy in [Strategy::FP, Strategy::SP, Strategy::RD, Strategy::FP] {
                let engine = &engine;
                let binding = &binding;
                let expected = &expected;
                let tree = &tree;
                scope.spawn(move || {
                    let plan = plan_for(tree, strategy, n, 3);
                    let outcome = engine.run(&plan, binding).unwrap();
                    assert!(
                        outcome.relation.multiset_eq(expected),
                        "{strategy} diverged under concurrency"
                    );
                });
            }
        });
        assert_eq!(
            engine.pool().threads(),
            4,
            "concurrent queries must share the fixed pool"
        );
        // All per-query namespaces were reclaimed from the shared store.
        assert_eq!(engine.store().total_bytes(), 0);
    }

    #[test]
    fn single_worker_pool_still_completes_pipelined_plans() {
        // The cooperative scheduler must finish an FP dataflow even when
        // one worker multiplexes every producer and consumer.
        let (catalog, n) = setup(6, 120);
        let config = ExecConfig {
            workers: 1,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 6).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let expected = to_xra(&tree, 3, JoinAlgorithm::Simple)
            .eval(catalog.as_ref())
            .unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let outcome = engine.run(&plan, &binding).unwrap();
        assert!(outcome.relation.multiset_eq(&expected));
    }

    #[test]
    fn failure_on_every_single_point_terminates() {
        // Exhaustive small-scale sweep: no (op, instance) fault anywhere in
        // an RD plan can deadlock the engine.
        let (catalog, n) = setup(5, 64);
        let tree = build(Shape::RightBushy, 5).unwrap();
        let cards = node_cards(&tree, &UniformOneToOne { n });
        let costs = tree_costs(&tree, &cards, &CostModel::default());
        let mut input = GeneratorInput::new(&tree, &cards, &costs, 4);
        input.allow_oversubscribe = true;
        let plan = generate(Strategy::RD, &input).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        for op in 0..plan.ops.len() {
            for instance in 0..plan.ops[op].degree() {
                let config = ExecConfig {
                    fail: Some(crate::config::FailPoint { op, instance }),
                    ..ExecConfig::default()
                };
                run_plan(&plan, &binding, catalog.as_ref(), &config)
                    .expect_err("fault must surface");
            }
        }
    }

    // --- Streaming + handles ---

    #[test]
    fn submit_streams_batches_before_outcome() {
        let (catalog, n) = setup(5, 300);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let mut handle = engine.submit(&plan, &binding).unwrap();
        let mut stream = handle.stream();
        assert_eq!(stream.schema().arity(), 3);
        let mut total = 0usize;
        let mut batches = 0usize;
        while let Some(batch) = stream.next_batch() {
            total += batch.len();
            batches += 1;
        }
        drop(stream);
        let outcome = handle.outcome().unwrap();
        assert_eq!(total, 300);
        assert!(batches >= 1);
        assert_eq!(outcome.metrics.total_tuples_out(), 4 * 300);
        assert_eq!(engine.store().total_bytes(), 0);
    }

    #[test]
    fn collect_drains_and_checks_outcome() {
        let (catalog, n) = setup(4, 128);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 4).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 3);
        let relation = engine.submit(&plan, &binding).unwrap().collect().unwrap();
        assert_eq!(relation.len(), 128);
    }

    #[test]
    fn cancel_mid_stream_quiesces_and_engine_is_reusable() {
        let (catalog, n) = setup(5, 4_000);
        // Tiny batches and a capacity-1 channel: the root blocks on client
        // backpressure almost immediately, so the query is guaranteed to
        // still be in flight when we cancel.
        let config = ExecConfig {
            workers: 2,
            batch_size: 16,
            channel_capacity: 1,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let mut handle = engine.submit(&plan, &binding).unwrap();
        let mut stream = handle.stream();
        let first = stream.next_batch();
        assert!(first.is_some(), "a first batch must arrive");
        assert_eq!(handle.status(), QueryStatus::Running);
        handle.cancel();
        // The stream ends (possibly after a few in-flight batches).
        while stream.next_batch().is_some() {}
        drop(stream);
        let err = handle.outcome().expect_err("cancelled query must error");
        assert!(matches!(err, RelalgError::Canceled), "got {err}");
        // Quiescent: fragments reclaimed, pool intact and reusable.
        assert_eq!(engine.store().total_bytes(), 0);
        let outcome = engine.run(&plan, &binding).unwrap();
        assert_eq!(outcome.relation.len(), 4_000);
        assert_eq!(engine.pool().threads(), 2);
    }

    #[test]
    fn dropping_a_live_handle_cancels_and_quiesces() {
        let (catalog, n) = setup(5, 2_000);
        let config = ExecConfig {
            workers: 2,
            batch_size: 16,
            channel_capacity: 1,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let handle = engine.submit(&plan, &binding).unwrap();
        assert!(matches!(
            handle.status(),
            QueryStatus::Running | QueryStatus::Finished
        ));
        drop(handle); // cancels, drains, joins the coordinator
        assert_eq!(engine.store().total_bytes(), 0);
        // Engine still serves queries.
        let outcome = engine.run(&plan, &binding).unwrap();
        assert_eq!(outcome.relation.len(), 2_000);
    }

    #[test]
    fn status_reaches_finished_after_outcome() {
        let (catalog, n) = setup(3, 64);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 3).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 2);
        let mut handle = engine.submit(&plan, &binding).unwrap();
        let relation = handle.stream().collect_relation();
        assert_eq!(relation.len(), 64);
        // The coordinator records the terminal state shortly after the
        // last End; poll briefly instead of racing it.
        for _ in 0..5_000 {
            if handle.status() == QueryStatus::Finished {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(handle.status(), QueryStatus::Finished);
        handle.outcome().unwrap();
    }

    // --- Guardrails: deadlines, budgets, admission control ---

    #[test]
    fn expired_deadline_aborts_with_typed_error_and_reclaims() {
        let (catalog, n) = setup(5, 2_000);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::SP, n, 4);
        // A zero-remaining deadline: every task sees it expired on its
        // first step, so the query aborts deterministically.
        let opts = QueryOptions::new().with_deadline(Duration::from_nanos(1));
        let err = engine
            .submit_with(&plan, &binding, opts)
            .unwrap()
            .collect()
            .expect_err("expired deadline must abort");
        assert!(matches!(err, RelalgError::DeadlineExceeded), "got {err}");
        assert_eq!(engine.store().total_bytes(), 0, "fragments reclaimed");
        // Engine unaffected: the same plan completes without a deadline.
        let outcome = engine.run(&plan, &binding).unwrap();
        assert_eq!(outcome.relation.len(), 2_000);
        let stats = engine.stats();
        assert_eq!(stats.queries_timed_out, 1);
        assert_eq!(stats.queries_completed, 1);
    }

    #[test]
    fn tiny_memory_budget_aborts_with_resource_exhausted() {
        let (catalog, n) = setup(5, 2_000);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        // SP materializes intermediates and builds hash tables: plenty of
        // charged bytes against a 1-byte budget.
        let plan = plan_for(&tree, Strategy::SP, n, 4);
        let opts = QueryOptions::new().with_memory_budget(1);
        let err = engine
            .submit_with(&plan, &binding, opts)
            .unwrap()
            .collect()
            .expect_err("1-byte budget must trip");
        match err {
            RelalgError::ResourceExhausted { used, budget } => {
                assert_eq!(budget, 1);
                assert!(used > 1, "reported usage exceeds the budget: {used}");
            }
            other => panic!("expected ResourceExhausted, got {other}"),
        }
        assert_eq!(engine.store().total_bytes(), 0, "fragments reclaimed");
        let outcome = engine.run(&plan, &binding).unwrap();
        assert_eq!(outcome.relation.len(), 2_000, "engine intact after abort");
        assert_eq!(engine.stats().budget_aborts, 1);
    }

    #[test]
    fn generous_budget_does_not_disturb_results_and_reports_peak() {
        let (catalog, n) = setup(4, 256);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 4).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::SP, n, 3);
        let opts = QueryOptions::new().with_memory_budget(1 << 30);
        let mut handle = engine.submit_with(&plan, &binding, opts).unwrap();
        let relation = handle.stream().collect_relation();
        assert_eq!(relation.len(), 256);
        let outcome = handle.outcome().unwrap();
        assert!(
            outcome.metrics.peak_bytes > 0,
            "SP plans charge materialized fragments and hash tables"
        );
        assert_eq!(outcome.metrics.panics_contained, 0);
        assert_eq!(engine.stats().peak_bytes, outcome.metrics.peak_bytes);
    }

    #[test]
    fn admission_rejects_beyond_queue_and_recovers() {
        let (catalog, n) = setup(5, 4_000);
        let config = ExecConfig {
            workers: 2,
            batch_size: 16,
            channel_capacity: 1,
            max_concurrent: Some(1),
            admission_queue: 0, // pure queue-or-reject: no waiting at all
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        // First query holds the only slot (it blocks on client
        // backpressure, so it stays in flight until we drain it).
        let mut first = engine.submit(&plan, &binding).unwrap();
        let mut stream = first.stream();
        assert!(stream.next_batch().is_some());
        let err = engine
            .submit(&plan, &binding)
            .expect_err("second query must be rejected");
        assert!(matches!(err, RelalgError::Overloaded { .. }), "got {err}");
        // Drain the first; its slot frees and the engine admits again.
        while stream.next_batch().is_some() {}
        drop(stream);
        first.outcome().unwrap();
        let outcome = engine.run(&plan, &binding).unwrap();
        assert_eq!(outcome.relation.len(), 4_000);
        let stats = engine.stats();
        assert_eq!(stats.queries_rejected, 1);
        assert_eq!(stats.queries_completed, 2);
    }

    #[test]
    fn admission_queue_serves_waiters_fifo() {
        let (catalog, n) = setup(4, 512);
        let config = ExecConfig {
            workers: 2,
            max_concurrent: Some(1),
            admission_queue: 8,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 4).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 3);
        // Four threads submit through a 1-slot gate; all must complete.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = &engine;
                let plan = &plan;
                let binding = &binding;
                scope.spawn(move || {
                    let outcome = engine.run(plan, binding).unwrap();
                    assert_eq!(outcome.relation.len(), 512);
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.queries_completed, 4);
        assert_eq!(stats.queries_rejected, 0);
        assert_eq!(engine.store().total_bytes(), 0);
    }

    #[test]
    fn duration_histogram_buckets_sum_to_queries_total() {
        let (catalog, n) = setup(4, 256);
        let engine = Engine::new(catalog.clone(), ExecConfig::default()).unwrap();
        let tree = build(Shape::RightLinear, 4).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 3);
        for _ in 0..3 {
            let outcome = engine.run(&plan, &binding).unwrap();
            // TTFB is end-to-end (submission to client pull), so it can
            // exceed `elapsed` (which excludes teardown) only by the
            // drain gap; it must at least exist for a non-empty result.
            assert!(outcome.time_to_first_batch.is_some());
        }
        // One canceled query also reaches a terminal state and must be
        // observed by the duration histogram.
        let handle = engine.submit(&plan, &binding).unwrap();
        handle.cancel();
        let _ = handle.outcome();
        let stats = engine.stats();
        assert_eq!(
            stats.queries_total(),
            stats.queries_completed + stats.queries_canceled
        );
        assert_eq!(stats.query_duration.count, stats.queries_total());
        assert_eq!(
            stats.query_duration.buckets.iter().sum::<u64>(),
            stats.queries_total(),
            "histogram buckets must sum to queries_total"
        );
        assert!(stats.time_to_first_batch.count >= 3);
        assert_eq!(
            stats.time_to_first_batch.buckets.iter().sum::<u64>(),
            stats.time_to_first_batch.count
        );
        assert!(stats.query_duration.sum_us > 0);
    }

    #[test]
    fn stats_snapshot_is_consistent_while_hammered() {
        // Regression test for the racy field-by-field snapshot: N threads
        // hammer queries (some admitted, some rejected) while a poller
        // reads stats. Every snapshot must satisfy
        //   terminal outcomes + rejected <= submitted
        // which only holds if all counters are read consistently.
        let (catalog, n) = setup(3, 96);
        let config = ExecConfig {
            workers: 2,
            max_concurrent: Some(1),
            admission_queue: 1,
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 3).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 2);
        let done = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = &engine;
                let plan = &plan;
                let binding = &binding;
                let done = &done;
                scope.spawn(move || {
                    for _ in 0..8 {
                        match engine.submit(plan, binding) {
                            Ok(handle) => {
                                let _ = handle.collect();
                            }
                            Err(RelalgError::Overloaded { queue_depth }) => {
                                assert_eq!(queue_depth, 1);
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            let engine = &engine;
            let done = &done;
            scope.spawn(move || {
                let mut polls = 0u64;
                while done.load(Ordering::Relaxed) < 4 || polls == 0 {
                    let s = engine.stats();
                    let terminal = s.queries_total();
                    assert!(
                        terminal + s.queries_rejected <= s.queries_submitted,
                        "inconsistent snapshot: {terminal} terminal + {} rejected > {} submitted",
                        s.queries_rejected,
                        s.queries_submitted
                    );
                    assert!(s.queries_active <= 2, "active beyond max_concurrent+queue");
                    assert_eq!(s.query_duration.count, terminal);
                    polls += 1;
                    std::thread::yield_now();
                }
            });
        });
        // Quiesced: every submission is accounted for exactly once.
        let s = engine.stats();
        assert_eq!(s.queries_submitted, 32);
        assert_eq!(s.queries_total() + s.queries_rejected, 32);
        assert_eq!(s.queries_active, 0);
        assert_eq!(s.query_duration.count, s.queries_total());
    }

    #[test]
    fn stall_watchdog_aborts_an_undrained_stream() {
        let (catalog, n) = setup(5, 4_000);
        // Opt-in stall detection: an idle client IS a stall under this
        // config, which is exactly what this test exploits.
        let config = ExecConfig {
            workers: 2,
            batch_size: 16,
            channel_capacity: 1,
            stall_timeout: Some(Duration::from_millis(100)),
            ..ExecConfig::default()
        };
        let engine = Engine::new(catalog.clone(), config).unwrap();
        let tree = build(Shape::RightLinear, 5).unwrap();
        let binding = QueryBinding::regular(&tree, catalog.as_ref()).unwrap();
        let plan = plan_for(&tree, Strategy::FP, n, 4);
        let mut handle = engine.submit(&plan, &binding).unwrap();
        let mut stream = handle.stream();
        // Pull one batch, then stop draining: the pipeline wedges on
        // client backpressure and the watchdog must fire.
        assert!(stream.next_batch().is_some());
        std::thread::sleep(Duration::from_millis(300));
        while stream.next_batch().is_some() {}
        drop(stream);
        let err = handle.outcome().expect_err("stall must abort");
        match err {
            RelalgError::Stalled(dump) => {
                assert!(dump.contains("op0[join]"), "dump names ops: {dump}")
            }
            other => panic!("expected Stalled, got {other}"),
        }
        assert_eq!(engine.store().total_bytes(), 0);
        assert_eq!(engine.stats().queries_stalled, 1);
    }
}
