//! The traced run's per-layer numbers, timed from outside each layer:
//! every stage below is one call to a public function of the layer it
//! is named after. An in-process replay runs each request stage by
//! stage — the calls the server makes for it — alternating with the same
//! request over the wire; short repeated timings cover the calls a
//! request makes only on some paths (parse, bind, plan, register).
//!
//! Timing from outside measures the cost of one call, not how often the
//! engine makes that call internally.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mj_exec::stream::Batch;
use mj_exec::{Database, EngineStats, QueryOptions};
use mj_join::columnar::ColumnarTable;
use mj_relalg::ColumnBatch;
use mj_server::protocol::{
    batch_frame_bin_into, batch_frame_into, decode_bin_payload, parse_request,
};
use mj_storage::Catalog;
use serde::JsonValue;

use crate::stats::{median, metric, percentile, unattributed_share, Digest, Metric, Trace};
use crate::wire::{digest_json_batch, WireClient};
use crate::workload::{literal_text, BenchResult, Format, Req, Workload};

/// Root span of one in-process request.
pub const INPROC_ROOT: &str = "inproc.request";

/// Spans plus the row counts behind the per-row stages.
pub struct Replay {
    pub trace: Trace,
    /// Encode buffers, reused across batches as a connection reuses its own.
    bin: Vec<u8>,
    json: String,
    pub rows: BTreeMap<&'static str, u64>,
    pub inproc_ms: Vec<f64>,
    pub wire_ms: Vec<f64>,
    pub mismatches: usize,
}

impl Replay {
    pub fn new(origin: Instant) -> Self {
        Replay {
            trace: Trace::new(origin),
            bin: Vec::new(),
            json: String::new(),
            rows: BTreeMap::new(),
            inproc_ms: Vec::new(),
            wire_ms: Vec::new(),
            mismatches: 0,
        }
    }

    /// Total duration of every span named `name`, in nanoseconds.
    fn total_ns(&self, name: &str) -> u64 {
        let spans = self.trace.spans.iter().filter(|s| s.name == name);
        spans.map(|s| s.dur_ns()).sum()
    }

    fn ns_per_row(&self, name: &'static str) -> f64 {
        self.total_ns(name) as f64 / self.rows.get(name).copied().unwrap_or(0).max(1) as f64
    }

    /// Per-request durations of the spans named `name`: the spans of one
    /// request are summed.
    fn per_request_ns(&self, name: &str) -> Vec<f64> {
        let mut by_req: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.trace.spans.iter().filter(|s| s.name == name) {
            *by_req.entry(s.request).or_default() += s.dur_ns();
        }
        by_req.into_values().map(|ns| ns as f64).collect()
    }

    /// Encodes `batch` in `format` as the server does, decodes it as the
    /// client does, and folds its rows into `digest`, one span per step.
    fn codec(
        &mut self,
        format: Format,
        batch: &Batch,
        parent: Option<usize>,
        rid: u64,
        digest: &mut Digest,
    ) -> BenchResult<()> {
        let rows = batch.len() as u64;
        let t0 = Instant::now();
        let t2 = match format {
            Format::Bin => {
                batch_frame_bin_into(batch, &mut self.bin).map_err(|e| e.message)?;
                let t1 = Instant::now();
                self.stage("server.encode_bin", parent, rid, t0, t1, rows);
                let decoded = decode_bin_payload(&self.bin[5..]).map_err(|e| e.message)?;
                let t2 = Instant::now();
                self.stage("client.decode_bin", parent, rid, t1, t2, rows);
                digest.add_wire_batch(&decoded);
                t2
            }
            Format::Json => {
                batch_frame_into(batch, &mut self.json).map_err(|e| e.message)?;
                let t1 = Instant::now();
                self.stage("server.encode_json", parent, rid, t0, t1, rows);
                let frame: JsonValue =
                    serde_json::from_str(&self.json).map_err(|e| e.to_string())?;
                let t2 = Instant::now();
                self.stage("client.decode_json", parent, rid, t1, t2, rows);
                let batch_rows = frame.get("batch").ok_or("frame without batch")?;
                digest_json_batch(batch_rows, digest)?;
                t2
            }
        };
        self.trace
            .record("bench.verify", parent, rid, t2, Instant::now());
        Ok(())
    }

    fn stage(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rid: u64,
        start: Instant,
        end: Instant,
        rows: u64,
    ) {
        self.trace.record(name, parent, rid, start, end);
        *self.rows.entry(name).or_default() += rows;
    }

    /// Runs `req` in process through the calls the server makes for it:
    /// plan (ad hoc) or prepare plus parameter binding, submission, the
    /// result stream, and the reply encoding (plus the client's decode).
    /// Then, outside the request, encodes the same batches in the other
    /// format, so both encoders are timed on every workload.
    pub fn run_inproc(
        &mut self,
        db: &Database,
        w: &Workload,
        req: &Req,
        rid: u64,
    ) -> BenchResult<Digest> {
        let err = |e: mj_exec::MjError| e.to_string();
        let start = Instant::now();
        let root_id = self.trace.open(INPROC_ROOT, None, rid, start);
        let root = Some(root_id);
        let planned = match req {
            Req::Adhoc(text) => {
                let planned = db.plan(text).map_err(err)?;
                self.trace
                    .record("session.plan", root, rid, start, Instant::now());
                planned
            }
            Req::Exec { stmt, args } => {
                let prepared = db.prepare(&w.statements[*stmt]).map_err(err)?;
                let t = Instant::now();
                self.trace.record("session.prepare", root, rid, start, t);
                if args.is_empty() {
                    prepared.planned().clone()
                } else {
                    let bound = prepared
                        .planned()
                        .bind_params(args)
                        .map_err(|e| e.to_string());
                    self.trace
                        .record("session.bind_params", root, rid, t, Instant::now());
                    bound?
                }
            }
        };
        let t = Instant::now();
        let mut handle = db
            .engine()
            .submit_with(&planned.plan, &planned.binding, QueryOptions::default())
            .map_err(|e| e.to_string())?;
        self.trace
            .record("engine.submit", root, rid, t, Instant::now());
        let mut stream = handle.stream();
        let mut batches = Vec::new();
        let mut digest = Digest::default();
        let mut name = "engine.first_batch";
        loop {
            let t = Instant::now();
            let next = stream.next_batch();
            self.trace.record(name, root, rid, t, Instant::now());
            name = "engine.next_batch";
            let Some(batch) = next else { break };
            self.codec(w.format, &batch, root, rid, &mut digest)?;
            batches.push(batch);
        }
        drop(stream);
        let t = Instant::now();
        let outcome = handle.outcome();
        let end = Instant::now();
        self.trace.record("engine.outcome", root, rid, t, end);
        self.trace.close(root_id, end);
        outcome.map_err(|e| e.to_string())?;
        self.inproc_ms.push((end - start).as_secs_f64() * 1e3);
        let other = match w.format {
            Format::Bin => Format::Json,
            Format::Json => Format::Bin,
        };
        let mut other_digest = Digest::default();
        for batch in &batches {
            self.codec(other, batch, None, rid, &mut other_digest)?;
        }
        // Both encodings of one result must decode to the same rows.
        self.mismatches += usize::from(other_digest != digest);
        Ok(digest)
    }

    /// Runs a stretch of each client's script over the wire, one
    /// request at a time on that client's connection, then the same
    /// requests in process, until `budget` is spent (at least
    /// `min_requests` each way). Requests run back to back in each
    /// block, so the server's connection workers stay as busy as under
    /// a closed loop and the two blocks differ by the wire alone.
    pub fn run(
        &mut self,
        clients: &mut [WireClient],
        w: &Workload,
        db: &Database,
        expected: &[Digest],
        budget: Duration,
        min_requests: usize,
    ) -> BenchResult<()> {
        let until = Instant::now() + budget;
        let mut problems = Vec::new();
        let mut rid = 1u64 << 62;
        while Instant::now() < until || self.inproc_ms.len() < min_requests {
            let mut block = Vec::new();
            for c in clients.iter_mut() {
                for _ in 0..8 {
                    let r = c.next_request();
                    let sample = c
                        .step(w, db, expected, r, None, &mut problems)
                        .map_err(|_| format!("wire replay lost its connection: {problems:?}"))?;
                    self.mismatches += usize::from(!sample.ok);
                    self.wire_ms.push(sample.latency_ms);
                    block.push(r);
                }
            }
            for r in block {
                rid += 1;
                if self.run_inproc(db, w, &w.requests[r], rid)? != expected[r] {
                    self.mismatches += 1;
                }
            }
        }
        Ok(())
    }
}

/// Median of `reps` timings of `f`, in microseconds.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Evenly spaced picks of at most `n` items.
fn spread<T: Clone>(items: &[T], n: usize) -> Vec<T> {
    let step = items.len().div_ceil(n).max(1);
    items.iter().step_by(step).cloned().collect()
}

/// The request line the blocking client sends for `req`.
fn request_line(w: &Workload, req: &Req, prepare_each: bool) -> Vec<String> {
    let s = |t: &str| serde_json::to_string(&JsonValue::Str(t.to_string())).expect("string");
    let bin = if w.format == Format::Bin {
        r#","format":"bin""#
    } else {
        ""
    };
    match req {
        Req::Adhoc(text) => vec![format!(r#"{{"query":{}{bin}}}"#, s(text))],
        Req::Exec { stmt, args } => {
            let args: Vec<String> = args.iter().map(i64::to_string).collect();
            let exec = format!(
                r#"{{"execute":{{"id":7,"args":[{}]}}{bin}}}"#,
                args.join(",")
            );
            let mut lines = vec![exec];
            if prepare_each {
                lines.push(format!(
                    r#"{{"prepare":{{"query":{}}}}}"#,
                    s(&w.statements[*stmt])
                ));
                lines.push(r#"{"close":{"id":7}}"#.to_string());
            }
            lines
        }
    }
}

/// Relations in a query text: one more than its joins.
fn width(text: &str) -> usize {
    text.matches(" JOIN ").count() + 1
}

/// Session-layer timings over the workload's distinct requests, plus the
/// plan time per join width (for the report).
pub fn session_layer(
    db: &Database,
    w: &Workload,
) -> BenchResult<(Vec<Metric>, BTreeMap<usize, f64>)> {
    const REPS: usize = 5;
    let err = |e: mj_exec::MjError| e.to_string();
    let texts: Vec<String> = w.requests.iter().map(|r| literal_text(w, r)).collect();
    let (mut parse, mut bind, mut plan) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_width: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for text in spread(&texts, 48) {
        let p = time_us(REPS, || {
            mj_plan::parse_query(&text).expect("workload text parses")
        });
        let b = time_us(REPS, || db.bind(&text).map_err(err));
        let q = time_us(REPS, || db.plan(&text).map_err(err));
        db.plan(&text).map_err(err)?;
        parse.push(p);
        bind.push(b - p);
        plan.push(q - b);
        by_width.entry(width(&text)).or_default().push(q - b);
    }
    let mut hit = Vec::new();
    for text in &w.statements {
        db.prepare(text).map_err(err)?;
        hit.push(time_us(REPS, || db.prepare(text).map_err(err)));
    }
    let mut bind_params = Vec::new();
    for req in spread(&w.requests, 48) {
        if let Req::Exec { stmt, args } = req {
            let prepared = db.prepare(&w.statements[stmt]).map_err(err)?;
            bind_params.push(time_us(REPS, || prepared.planned().bind_params(&args)));
        }
    }
    let mut lines = Vec::new();
    for c in &w.clients {
        for &r in spread(&c.script, 32).iter() {
            lines.extend(request_line(w, &w.requests[r], c.prepare_each));
        }
    }
    let parse_request_us = median(
        &lines
            .iter()
            .map(|l| {
                time_us(REPS, || {
                    parse_request(l.as_bytes()).expect("own request parses")
                })
            })
            .collect::<Vec<_>>(),
    );
    let metrics = vec![
        metric(
            "server.parse_request_us",
            "us",
            parse_request_us,
            lines.len(),
        ),
        metric("plan.parse_us", "us", median(&parse), parse.len()),
        metric("session.bind_us", "us", median(&bind), bind.len()),
        metric("session.plan_us", "us", median(&plan), plan.len()),
        metric("session.prepare_hit_us", "us", median(&hit), hit.len()),
        metric(
            "session.bind_params_us",
            "us",
            median(&bind_params),
            bind_params.len(),
        ),
    ];
    let widths = by_width.into_iter().map(|(k, v)| (k, median(&v))).collect();
    Ok((metrics, widths))
}

/// Storage and join kernels on the workload's own relations.
pub fn storage_join_layer(w: &Workload) -> BenchResult<Vec<Metric>> {
    const REPS: usize = 5;
    let e = |e: mj_relalg::RelalgError| e.to_string();
    let rows: usize = w.relations.iter().map(|(_, r)| r.len()).sum();
    let pivot_us: f64 = w
        .relations
        .iter()
        .map(|(_, r)| {
            time_us(REPS, || {
                ColumnBatch::from_relation(r).expect("relation pivots")
            })
        })
        .sum();
    let catalog = Catalog::new();
    let (mut register, mut analyze) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (name, rel) in &w.relations {
            let t = Instant::now();
            catalog.register(name.clone(), rel.clone());
            let a = Instant::now();
            catalog.analyze(name).map_err(e)?;
            register.push((a - t).as_secs_f64() * 1e3);
            analyze.push(a.elapsed().as_secs_f64() * 1e3);
        }
    }
    let (b, bc, p, pc) = w.join_edge;
    let build = ColumnBatch::from_relation(&w.relations[b].1).map_err(e)?;
    let probe = ColumnBatch::from_relation(&w.relations[p].1).map_err(e)?;
    let probe_keys = probe.int_col(pc).map_err(e)?;
    let mut table = ColumnarTable::with_capacity(build.rows());
    let build_us = time_us(REPS, || {
        table = ColumnarTable::with_capacity(build.rows());
        table.insert_batch(&build, bc, 0..build.rows())
    });
    let mut pairs = Vec::with_capacity(probe.rows() * 2);
    let probe_us = time_us(REPS, || {
        pairs.clear();
        table.probe_into(probe_keys, 0..probe_keys.len(), &mut pairs);
        pairs.len()
    });
    let relations = w.relations.len();
    Ok(vec![
        metric(
            "storage.pivot_ns_per_row",
            "ns/row",
            pivot_us * 1e3 / rows as f64,
            relations,
        ),
        metric(
            "storage.register_ms",
            "ms",
            median(&register),
            register.len(),
        ),
        metric("storage.analyze_ms", "ms", median(&analyze), analyze.len()),
        metric(
            "join.build_ns_per_row",
            "ns/row",
            build_us * 1e3 / build.rows() as f64,
            REPS,
        ),
        metric(
            "join.probe_ns_per_row",
            "ns/row",
            probe_us * 1e3 / probe.rows() as f64,
            REPS,
        ),
    ])
}

/// Engine counters over a window: `before` and `after` bracket it.
pub fn engine_layer(before: &EngineStats, after: &EngineStats) -> Vec<Metric> {
    let d = |f: fn(&EngineStats) -> u64| f(after).saturating_sub(f(before)) as f64;
    let ratio = |good: f64, all: f64| if all == 0.0 { 1.0 } else { good / all };
    let queries = d(|s| s.queries_completed).max(1.0);
    let (hits, misses) = (d(|s| s.plan_cache_hits), d(|s| s.plan_cache_misses));
    let (takes, pool_misses) = (d(|s| s.batch_pool_takes), d(|s| s.batch_pool_misses));
    let failed =
        d(|s| s.queries_failed + s.queries_timed_out + s.queries_stalled + s.budget_aborts);
    let n = queries as usize;
    vec![
        metric(
            "plan_cache.hit_rate",
            "ratio",
            ratio(hits, hits + misses),
            n,
        ),
        metric("plan_cache.misses", "count", misses, n),
        metric(
            "plan_cache.evictions",
            "count",
            d(|s| s.plan_cache_evictions),
            n,
        ),
        metric(
            "engine.batch_pool_hit_rate",
            "ratio",
            ratio(takes - pool_misses, takes),
            n,
        ),
        metric(
            "engine.gather_rows_per_query",
            "rows",
            d(|s| s.gather_rows) / queries,
            n,
        ),
        metric(
            "engine.simd_dispatches_per_query",
            "count",
            d(|s| s.simd_kernel_dispatches) / queries,
            n,
        ),
        metric("engine.peak_bytes", "bytes", after.peak_bytes as f64, n),
        metric("engine.rejected", "count", d(|s| s.queries_rejected), n),
        metric("engine.failed", "count", failed, n),
    ]
}

/// Per-stage numbers of the replay.
pub fn replay_layer(r: &Replay) -> Vec<Metric> {
    let med_us = |name| median(&r.per_request_ns(name)) / 1e3;
    let drain: Vec<f64> = {
        let next = r.per_request_ns("engine.next_batch");
        let outcome = r.per_request_ns("engine.outcome");
        next.iter()
            .zip(&outcome)
            .map(|(a, b)| (a + b) / 1e6)
            .collect()
    };
    let p50 = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.5).unwrap_or(f64::NAN)
    };
    let n = r.inproc_ms.len();
    let per_row = |name, span| metric(name, "ns/row", r.ns_per_row(span), n);
    vec![
        metric(
            "server.wire_overhead_us",
            "us",
            (p50(&r.wire_ms) - p50(&r.inproc_ms)) * 1e3,
            n.min(r.wire_ms.len()),
        ),
        per_row("server.encode_bin_ns_per_row", "server.encode_bin"),
        per_row("client.decode_bin_ns_per_row", "client.decode_bin"),
        per_row("server.encode_json_ns_per_row", "server.encode_json"),
        metric("engine.submit_us", "us", med_us("engine.submit"), n),
        metric(
            "engine.first_batch_us",
            "us",
            med_us("engine.first_batch"),
            n,
        ),
        metric("engine.drain_ms", "ms", median(&drain), n),
        metric(
            "trace.unattributed_share",
            "ratio",
            unattributed_share(&r.trace.spans, INPROC_ROOT),
            n,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::self_times;
    use crate::workload::{build, open_db, oracle};

    /// Share of a request's wall time its stage spans may leave
    /// uncovered: the gaps hold only the clock reads between stages.
    const LAYER_SUM_TOLERANCE: f64 = 0.05;

    #[test]
    fn stage_spans_add_up_to_the_in_process_wall_time() {
        let w = build("point-prepared", 3).unwrap();
        let expected = oracle(&w).unwrap();
        let db = open_db(&w).unwrap();
        let mut replay = Replay::new(Instant::now());
        for (rid, &r) in w.clients[0].script.iter().take(64).enumerate() {
            let digest = replay
                .run_inproc(&db, &w, &w.requests[r], rid as u64)
                .unwrap();
            assert_eq!(digest, expected[r], "request {:?}", w.requests[r]);
        }
        let spans = &replay.trace.spans;
        let own = self_times(spans);
        let mut shares = Vec::new();
        for (i, root) in spans.iter().enumerate() {
            if root.parent.is_some() {
                continue;
            }
            if root.name != INPROC_ROOT {
                // Other-format encodes run outside the request.
                continue;
            }
            let children: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(|s| s.dur_ns())
                .sum();
            // Stages run one after another: their plain sum is the time
            // they cover, never more than the request's.
            assert_eq!(children + own[i], root.dur_ns(), "stages overlap");
            shares.push(own[i] as f64 / root.dur_ns() as f64);
        }
        assert_eq!(shares.len(), 64);
        let within = shares.iter().filter(|&&s| s <= LAYER_SUM_TOLERANCE).count();
        assert!(within * 10 >= shares.len() * 9, "shares {shares:?}");
        let share = unattributed_share(spans, INPROC_ROOT);
        assert!(share <= LAYER_SUM_TOLERANCE, "unattributed share {share}");
    }
}
