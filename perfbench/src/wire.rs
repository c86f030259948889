//! Closed-loop wire clients: each sends its next request only after the
//! previous reply has arrived, and checks every reply against the
//! oracle digest of that request.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mj_exec::Database;
use mj_server::{Client, ClientError, ServerError};
use serde::JsonValue;

use crate::stats::{Digest, RowHash, Trace};
use crate::workload::{BenchResult, ClientPlan, Format, Req, Workload};

/// One answered (or failed) request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub latency_ms: f64,
    pub ttfb_ms: f64,
    pub rows: u64,
    pub ok: bool,
    /// When the reply completed.
    pub done: Instant,
}

/// Samples of one window, all clients merged.
pub struct Window {
    pub start: Instant,
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    /// The first few wrong answers or errors, for the report.
    pub problems: Vec<String>,
    pub trace: Option<Trace>,
}

impl Window {
    pub fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }
}

/// A connected client and where it is in its script.
pub struct WireClient {
    index: usize,
    client: Client,
    plan: ClientPlan,
    /// Wire statement id per statement index, prepared at set-up.
    stmt_ids: Vec<Option<u64>>,
    pos: usize,
    sent: usize,
    writes: usize,
}

pub fn connect(
    addr: SocketAddr,
    w: &Workload,
    index: usize,
    plan: &ClientPlan,
) -> BenchResult<WireClient> {
    let mut client = Client::connect_timeout(addr, Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;
    let mut stmt_ids = vec![None; w.statements.len()];
    if !plan.prepare_each {
        for &r in &plan.script {
            if let Req::Exec { stmt, .. } = &w.requests[r] {
                if stmt_ids[*stmt].is_none() {
                    let p = client
                        .prepare(&w.statements[*stmt])
                        .map_err(|e| format!("prepare: {e}"))?;
                    stmt_ids[*stmt] = Some(p.id);
                }
            }
        }
    }
    Ok(WireClient {
        index,
        client,
        plan: plan.clone(),
        stmt_ids,
        pos: 0,
        sent: 0,
        writes: 0,
    })
}

/// Folds a JSON `batch` frame's rows into `digest`.
pub fn digest_json_batch(batch: &JsonValue, digest: &mut Digest) -> Result<(), String> {
    let JsonValue::Arr(rows) = batch else {
        return Err("batch is not an array".into());
    };
    for row in rows {
        let JsonValue::Arr(cells) = row else {
            return Err("row is not an array".into());
        };
        let mut h = RowHash::new();
        for cell in cells {
            match cell {
                JsonValue::Int(i) => h.int(*i),
                JsonValue::UInt(u) => h.int(*u as i64),
                JsonValue::Str(s) => h.str(s),
                other => return Err(format!("bad cell {other:?}")),
            }
        }
        digest.add(h);
    }
    Ok(())
}

/// What one request returned.
struct Reply {
    digest: Digest,
    /// Client-side time from send to the first result frame.
    ttfb: Duration,
}

/// What goes on the wire: ad-hoc text, or a statement id with arguments.
enum Send<'a> {
    Text(&'a str),
    Stmt(u64, &'a [i64]),
}

fn bad(msg: impl Into<String>) -> ClientError {
    ClientError::BadFrame(msg.into())
}

impl WireClient {
    /// Sends one request and collects its reply. `trace` receives the
    /// request's client-side stages as children of `root`.
    fn request(
        &mut self,
        w: &Workload,
        req: &Req,
        mut trace: Option<(&mut Trace, usize, u64)>,
    ) -> Result<Reply, ClientError> {
        let sent = Instant::now();
        let mut stage = |name, start: Instant| {
            if let Some((t, root, rid)) = trace.as_mut() {
                t.record(name, Some(*root), *rid, start, Instant::now());
            }
        };
        let mut closing = None;
        let send = match req {
            Req::Adhoc(text) => Send::Text(text),
            Req::Exec { stmt, args } if self.plan.prepare_each => {
                let t = Instant::now();
                let p = self.client.prepare(&w.statements[*stmt])?;
                stage("client.prepare", t);
                closing = Some(p.id);
                Send::Stmt(p.id, args)
            }
            Req::Exec { stmt, args } => {
                Send::Stmt(self.stmt_ids[*stmt].ok_or_else(|| bad("unprepared"))?, args)
            }
        };
        let t = Instant::now();
        let reply = match w.format {
            Format::Bin => {
                let reply = match send {
                    Send::Text(text) => self.client.query_bin(text)?,
                    Send::Stmt(id, args) => self.client.execute_bin(id, args)?,
                };
                stage("client.execute", t);
                let v = Instant::now();
                let mut digest = Digest::default();
                reply.batches.iter().for_each(|b| digest.add_wire_batch(b));
                stage("bench.verify", v);
                if digest.rows != reply.rows {
                    return Err(bad(format!(
                        "done frame says {} rows, batches held {}",
                        reply.rows, digest.rows
                    )));
                }
                // The blocking client hands back binary replies whole, so
                // the first frame's arrival is not visible from outside.
                // The server reports when the first batch left the engine
                // and when the query quiesced; what follows the first
                // batch is subtracted from the client's own latency.
                let total = sent.elapsed().as_secs_f64() * 1e3;
                let after_first =
                    reply.elapsed_ms - reply.time_to_first_batch_ms.unwrap_or(reply.elapsed_ms);
                let ttfb_ms = (total - after_first.max(0.0)).max(0.0);
                Reply {
                    digest,
                    ttfb: Duration::from_secs_f64(ttfb_ms / 1e3),
                }
            }
            Format::Json => {
                match send {
                    Send::Text(text) => self.client.send_query(text)?,
                    Send::Stmt(id, args) => self.client.send_execute(id, args, false)?,
                }
                self.read_json(sent, &mut stage, t)?
            }
        };
        if let Some(id) = closing {
            let t = Instant::now();
            self.client.close(id)?;
            stage("client.close", t);
        }
        Ok(reply)
    }

    fn read_json(
        &mut self,
        sent: Instant,
        stage: &mut impl FnMut(&'static str, Instant),
        t: Instant,
    ) -> Result<Reply, ClientError> {
        let mut digest = Digest::default();
        let mut ttfb = None;
        loop {
            let frame = self
                .client
                .read_frame()?
                .ok_or_else(|| bad("connection closed mid-reply"))?;
            ttfb.get_or_insert_with(|| sent.elapsed());
            if let Some(batch) = frame.get("batch") {
                digest_json_batch(batch, &mut digest).map_err(bad)?;
            } else if frame.get("done").is_some() {
                stage("client.execute", t);
                return Ok(Reply {
                    digest,
                    ttfb: ttfb.unwrap_or_default(),
                });
            } else if let Some(err) = frame.get("error") {
                let text = |key| match err.get(key) {
                    Some(JsonValue::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                return Err(ClientError::Server(ServerError {
                    code: text("code"),
                    message: text("message"),
                    queue_depth: None,
                }));
            } else {
                return Err(bad(format!("unexpected frame {frame:?}")));
            }
        }
    }

    /// Runs one request through the wire and checks it: `Ok(sample)`
    /// when the connection is still usable, `Err` when it is not.
    pub fn step(
        &mut self,
        w: &Workload,
        db: &Database,
        expected: &[Digest],
        req_idx: usize,
        trace: Option<&mut Trace>,
        problems: &mut Vec<String>,
    ) -> Result<Sample, Sample> {
        let rid = (self.index as u64) << 32 | self.sent as u64;
        let started = Instant::now();
        let (reply, trace) = match trace {
            Some(t) => {
                let root = t.open("wire.request", None, rid, started);
                let reply = self.request(w, &w.requests[req_idx], Some((&mut *t, root, rid)));
                t.close(root, Instant::now());
                (reply, Some(t))
            }
            None => (self.request(w, &w.requests[req_idx], None), None),
        };
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        self.sent += 1;
        let mut sample = Sample {
            latency_ms,
            ttfb_ms: latency_ms,
            rows: 0,
            ok: false,
            done: Instant::now(),
        };
        let mut note = |msg: String| {
            if problems.len() < 5 {
                problems.push(msg);
            }
        };
        let result = match reply {
            Ok(r) if r.digest == expected[req_idx] => {
                sample.ok = true;
                sample.rows = r.digest.rows;
                sample.ttfb_ms = r.ttfb.as_secs_f64() * 1e3;
                Ok(sample)
            }
            Ok(r) => {
                note(format!(
                    "wrong answer to {:?}: {:?}, oracle {:?}",
                    w.requests[req_idx], r.digest, expected[req_idx]
                ));
                Ok(sample)
            }
            // A typed error frame leaves the connection usable.
            Err(ClientError::Server(e)) => {
                note(format!("error reply to {:?}: {e}", w.requests[req_idx]));
                Ok(sample)
            }
            Err(e) => {
                note(format!("connection lost on {:?}: {e}", w.requests[req_idx]));
                Err(sample)
            }
        };
        if let Some(every) = self.plan.write_every {
            if self.sent.is_multiple_of(every) {
                catalog_write(w, db, self.writes, trace);
                self.writes += 1;
            }
        }
        result
    }

    /// The next request of the script (cycled).
    pub fn next_request(&mut self) -> usize {
        let r = self.plan.script[self.pos % self.plan.script.len()];
        self.pos += 1;
        r
    }
}

/// Re-registers one relation with its own rows and re-analyzes it: the
/// catalog generation moves, so every cached plan goes stale, while every
/// answer stays what the oracle computed.
fn catalog_write(w: &Workload, db: &Database, n: usize, trace: Option<&mut Trace>) {
    let (name, rel) = &w.relations[w.writable[n % w.writable.len()]];
    let t0 = Instant::now();
    db.catalog()
        .register(name.clone(), Arc::new(rel.as_ref().clone()));
    let t1 = Instant::now();
    let analyzed = db.catalog().analyze(name);
    let t2 = Instant::now();
    analyzed.expect("re-analyzing a registered relation cannot fail");
    if let Some(t) = trace {
        let rid = 1 << 63 | n as u64;
        t.record("storage.register", None, rid, t0, t1);
        t.record("storage.analyze", None, rid, t1, t2);
    }
}

/// Runs every client in its own thread until `seconds` have passed.
pub fn run_window(
    clients: &mut [WireClient],
    w: &Workload,
    db: &Database,
    expected: &[Digest],
    seconds: f64,
    origin: Option<Instant>,
) -> Window {
    let barrier = Barrier::new(clients.len() + 1);
    type ClientResult = (Vec<Sample>, Vec<String>, Option<Trace>);
    let (start, results): (Instant, Vec<ClientResult>) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut trace = origin.map(Trace::new);
                    let mut samples = Vec::new();
                    let mut problems = Vec::new();
                    barrier.wait();
                    let end = Instant::now() + Duration::from_secs_f64(seconds);
                    while Instant::now() < end {
                        let r = c.next_request();
                        match c.step(w, db, expected, r, trace.as_mut(), &mut problems) {
                            Ok(s) => samples.push(s),
                            Err(s) => {
                                samples.push(s);
                                break;
                            }
                        }
                    }
                    (samples, problems, trace)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (start, results)
    });
    let mut window = Window {
        start,
        samples: Vec::new(),
        elapsed_s: 0.0,
        problems: Vec::new(),
        trace: origin.map(Trace::new),
    };
    for (samples, problems, trace) in results {
        window.samples.extend(samples);
        window.problems.extend(problems);
        if let (Some(all), Some(t)) = (window.trace.as_mut(), trace) {
            all.absorb(t);
        }
    }
    window.problems.truncate(5);
    let last = window.samples.iter().map(|s| s.done).max().unwrap_or(start);
    window.elapsed_s = (last - start).as_secs_f64();
    window
}
