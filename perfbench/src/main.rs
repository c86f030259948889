//! The repository benchmark. It generates seeded data, starts an
//! in-process `mj_server::Server` (default configuration) over a
//! `Database` (default configuration), and drives one named workload
//! through the public `mj_server::Client`, checking every reply against
//! the sequential XRA oracle.
//!
//! ```text
//! perfbench --workload <point-prepared|analytic-join|adhoc-churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a traced run and writes its spans to
//! `perfbench/out/`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 1 when any reply was wrong or failed, 2 on a usage or set-up
//! error. `perfbench/METRICS.md` maps each per-layer metric to the
//! end-to-end metric and workload it should move.

mod layers;
mod stats;
mod wire;
mod workload;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mj_exec::{Database, DbConfig};
use mj_server::{Server, ServerConfig};

use stats::{median, metric, percentile, Metric};
use wire::{run_window, Window, WireClient};
use workload::{BenchResult, Workload};

/// Set-ups run in groups of `SETUP_GROUP`: at least one group, then more
/// until `SETUP_MIN_SECONDS` have passed or `SETUP_MAX_GROUPS` are done.
/// `setup_s` is the median over groups of each group's mean. On a small
/// workload a set-up that meets a server thread in its idle nap takes
/// about 2 ms longer than one that does not; a group's mean follows the
/// share of such set-ups steadily, where the median of single set-ups
/// jumps between the two.
const SETUP_GROUP: usize = 5;
const SETUP_MAX_GROUPS: usize = 40;
const SETUP_MIN_SECONDS: f64 = 0.5;

/// Untimed closed-loop traffic before the first timed window.
const WARMUP_SECONDS: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> BenchResult<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            workload::WORKLOADS
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    Ok(args)
}

/// A served database with its connected clients.
struct Served {
    db: Arc<Database>,
    server: Server,
    clients: Vec<WireClient>,
}

impl Served {
    fn shut_down(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Generates the data, registers and analyzes it, starts the server and
/// connects and prepares every client: everything before the first timed
/// request.
fn set_up(name: &str, seed: u64) -> BenchResult<(Workload, Served)> {
    let w = workload::build(name, seed)?;
    let db = Arc::new(workload::open_db(&w)?);
    let server = Server::start(db.clone(), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let clients = w
        .clients
        .iter()
        .enumerate()
        .map(|(i, plan)| wire::connect(server.local_addr(), &w, i, plan))
        .collect::<BenchResult<Vec<_>>>()?;
    Ok((
        w,
        Served {
            db,
            server,
            clients,
        },
    ))
}

/// `/proc/self/status` field in its own unit (kB for memory).
fn proc_status(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// User plus system CPU time of the whole process (every thread, live or
/// exited), in milliseconds. `/proc` reports clock ticks of USER_HZ, which
/// Linux fixes at 100 per second.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// The git revision of the checkout, when it is one.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, w: &Workload) -> String {
    let db = DbConfig::default();
    let server = ServerConfig::default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance: nproc={nproc} avx2={} git={} rustc=\"{}\"\n\
         config: exec.workers={} exec.batch_size={} exec.channel_capacity={} \
         exec.startup_cost={:?} exec.max_concurrent={:?} exec.late={:?} \
         planner.processors={} planner.pushdown={} server.conn_workers={} \
         server.max_clients={} plan_cache_capacity={}\n\
         workload: {} seed={} seconds={} clients={} format={:?} relations={} \
         rows={} statements={} distinct_requests={}",
        mj_relalg::simd::simd_enabled(),
        git_revision(),
        rustc_version(),
        db.exec.workers,
        db.exec.batch_size,
        db.exec.channel_capacity,
        db.exec.startup_cost,
        db.exec.max_concurrent,
        db.exec.late,
        db.planner.processors,
        db.planner.pushdown,
        server.conn_workers,
        server.max_clients,
        mj_exec::PLAN_CACHE_CAPACITY,
        w.name,
        args.seed,
        args.seconds,
        w.clients.len(),
        w.format,
        w.relations.len(),
        w.relations.iter().map(|(_, r)| r.len()).sum::<usize>(),
        w.statements.len(),
        w.requests.len(),
    )
}

/// End-to-end metrics of one untraced window. Percentiles without ten
/// samples beyond them go to `omitted`.
fn end_to_end(win: &Window, setup: &[f64], cpu_ms: f64, omitted: &mut Vec<String>) -> Vec<Metric> {
    let ok: Vec<_> = win.samples.iter().filter(|s| s.ok).collect();
    let mut lat: Vec<f64> = ok.iter().map(|s| s.latency_ms).collect();
    let mut ttfb: Vec<f64> = ok.iter().map(|s| s.ttfb_ms).collect();
    lat.sort_by(f64::total_cmp);
    ttfb.sort_by(f64::total_cmp);
    let rows: u64 = ok.iter().map(|s| s.rows).sum();
    let n = ok.len();
    let group_means: Vec<f64> = setup
        .chunks(SETUP_GROUP)
        .map(|g| g.iter().sum::<f64>() / g.len() as f64)
        .collect();
    // Throughput per tenth of the window shows host interference that
    // the window's totals average away.
    let slice_s = win.elapsed_s / 10.0;
    let mut slices = [0usize; 10];
    for s in &ok {
        let i = ((s.done - win.start).as_secs_f64() / slice_s) as usize;
        slices[i.min(9)] += 1;
    }
    let rates: Vec<String> = slices
        .iter()
        .map(|&c| format!("{:.0}", c as f64 / slice_s))
        .collect();
    println!(
        "timeline: qps per {slice_s:.2} s slice: {}",
        rates.join(" ")
    );
    let attempted = win.samples.len();
    let mut out = vec![metric("qps", "1/s", n as f64 / win.elapsed_s, n)];
    for (name, q, v) in [
        ("p50_ms", 0.5, &lat),
        ("p90_ms", 0.9, &lat),
        ("p99_ms", 0.99, &lat),
        ("ttfb_p50_ms", 0.5, &ttfb),
    ] {
        match percentile(v, q) {
            Some(x) => out.push(metric(name, "ms", x, n)),
            None => omitted.push(format!(
                "{name}: fewer than {} of {n} samples lie beyond it",
                stats::MIN_TAIL_SAMPLES
            )),
        }
    }
    out.extend([
        metric("rows_per_s", "rows/s", rows as f64 / win.elapsed_s, n),
        metric(
            "error_rate",
            "ratio",
            (attempted - n) as f64 / attempted.max(1) as f64,
            attempted,
        ),
        metric("setup_s", "s", median(&group_means), setup.len()),
        metric("rss_peak_mb", "MiB", proc_status("VmHWM:") / 1024.0, 1),
        metric("cpu_ms_per_query", "ms", cpu_ms / n.max(1) as f64, n),
    ]);
    out
}

/// End-to-end metrics `BENCHMARK.json` lists: every one must be present
/// in an untraced run's result line.
const CONTRACT_END_TO_END: [&str; 8] = [
    "qps",
    "p50_ms",
    "p90_ms",
    "ttfb_p50_ms",
    "rows_per_s",
    "setup_s",
    "rss_peak_mb",
    "cpu_ms_per_query",
];

/// Samples threads and worker occupancy every 5 ms while `run`
/// executes: the peak thread count, the mean busy share, the probes.
fn sampled<T>(db: &Database, run: impl FnOnce() -> T) -> (T, f64, f64, usize) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let (mut threads, mut busy, mut total, mut probes) = (0f64, 0u64, 0u64, 0);
            while !stop.load(Ordering::Relaxed) {
                probes += 1;
                threads = threads.max(proc_status("Threads:"));
                let s = db.stats();
                busy += s.workers_busy;
                total += s.workers_total;
                std::thread::sleep(Duration::from_millis(5));
            }
            (threads, busy as f64 / total.max(1) as f64, probes)
        });
        let out = run();
        stop.store(true, Ordering::Relaxed);
        let (threads, busy, probes) = sampler.join().expect("sampler thread");
        (out, threads, busy, probes)
    })
}

/// Writes the spans as JSON lines under `perfbench/out/`.
fn write_spans(path: &str, trace: &stats::Trace) -> std::io::Result<()> {
    std::fs::create_dir_all("perfbench/out")?;
    let mut text = String::new();
    for s in &trace.spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    std::fs::write(path, text)
}

/// Runs the oracle in a child process, so its memory stays out of this
/// process's `VmHWM`, and reads back one `index rows sum` line per
/// distinct request.
fn oracle_in_child(args: &Args, requests: usize) -> BenchResult<Vec<stats::Digest>> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--oracle", &args.workload, "--seed", &args.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("oracle process: {e}"))?;
    if !out.status.success() {
        return Err(format!("oracle process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let digests: Vec<stats::Digest> = text
        .lines()
        .map(|l| {
            let v: Vec<u64> = l.split(' ').filter_map(|x| x.parse().ok()).collect();
            stats::Digest {
                rows: v.get(1).copied().unwrap_or(u64::MAX),
                sum: v.get(2).copied().unwrap_or(0),
            }
        })
        .collect();
    if digests.len() != requests {
        return Err(format!(
            "oracle returned {} of {requests} answers",
            digests.len()
        ));
    }
    Ok(digests)
}

fn run(args: &Args) -> BenchResult<(bool, usize, usize, Vec<Metric>)> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut served = None;
    while !setup_s.len().is_multiple_of(SETUP_GROUP)
        || setup_s.is_empty()
        || (setup_s.len() < SETUP_GROUP * SETUP_MAX_GROUPS
            && setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        if let Some((_, old)) = served.take() {
            Served::shut_down(old);
        }
        let t = Instant::now();
        let (w, s) = set_up(&args.workload, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        served = Some((w, s));
    }
    let (w, mut served) = served.expect("at least one set-up");
    let expected = oracle_in_child(args, w.requests.len())?;
    println!("{}", provenance(args, &w));

    let mut omitted = Vec::new();
    let (db, clients) = (served.db.clone(), &mut served.clients);
    // Untimed warm-up: fills caches and pools and lets lazy set-up
    // finish. Its replies are checked like every other.
    let warm = run_window(clients, &w, &db, &expected, WARMUP_SECONDS, None);
    warm.problems.iter().for_each(|p| println!("problem: {p}"));
    let (attempted, failed, metrics) = if !args.trace {
        let cpu0 = cpu_ms();
        let win = run_window(clients, &w, &db, &expected, args.seconds, None);
        let cpu = cpu_ms() - cpu0;
        win.problems.iter().for_each(|p| println!("problem: {p}"));
        let metrics = end_to_end(&win, &setup_s, cpu, &mut omitted);
        let failed = win.samples.len() - win.ok();
        (win.samples.len(), failed, metrics)
    } else {
        let half = args.seconds / 2.0;
        let plain = run_window(clients, &w, &db, &expected, half, None);
        let origin = Instant::now();
        let before = db.stats();
        let (traced, threads, busy, probes) = sampled(&db, || {
            run_window(clients, &w, &db, &expected, half, Some(origin))
        });
        let after = db.stats();
        let mut replay = layers::Replay::new(origin);
        replay.run(
            clients,
            &w,
            &db,
            &expected,
            Duration::from_secs_f64(half / 2.0),
            21,
        )?;
        let (session, widths) = layers::session_layer(&db, &w)?;
        let qps = |win: &Window| win.ok() as f64 / win.elapsed_s;
        let overhead = qps(&traced) / qps(&plain);
        let mut metrics = vec![
            metric("process.threads_peak", "count", threads, probes),
            metric("engine.workers_busy_share", "ratio", busy, probes),
            metric("trace.overhead", "ratio", overhead, traced.samples.len()),
        ];
        metrics.extend(layers::replay_layer(&replay));
        metrics.extend(session);
        metrics.extend(layers::engine_layer(&before, &after));
        metrics.extend(layers::storage_join_layer(&w)?);
        let plan_by_width: Vec<String> = widths
            .iter()
            .map(|(k, us)| format!("k{k}={us:.1}us"))
            .collect();
        println!("session.plan_us by join width: {}", plan_by_width.join(" "));
        for p in plain.problems.iter().chain(&traced.problems) {
            println!("problem: {p}");
        }
        let path = format!("perfbench/out/spans-{}-seed{}.jsonl", w.name, args.seed);
        let attempted = plain.samples.len() + traced.samples.len() + 2 * replay.inproc_ms.len();
        let failed = plain.samples.len() - plain.ok() + traced.samples.len() - traced.ok()
            + replay.mismatches;
        let mut trace = traced.trace.expect("a traced window records spans");
        trace.absorb(replay.trace);
        match write_spans(&path, &trace) {
            Ok(()) => println!("spans: {} written to {path}", trace.spans.len()),
            Err(e) => println!("spans: not written ({e})"),
        }
        (attempted, failed, metrics)
    };
    served.shut_down();
    for m in &metrics {
        println!(
            "  {:<34} {:>14.4} {:<7} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for o in &omitted {
        println!("  omitted {o}");
    }
    let attempted = attempted + warm.samples.len();
    let failed = failed + warm.samples.len() - warm.ok();
    Ok((failed == 0, attempted, failed, metrics))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--oracle") {
        let seed = argv.get(4).and_then(|s| s.parse().ok()).unwrap_or(0);
        let digests = argv
            .get(2)
            .ok_or_else(|| "--oracle needs a workload".to_string())
            .and_then(|name| workload::build(name, seed))
            .and_then(|w| workload::oracle(&w));
        match digests {
            Ok(d) => d
                .iter()
                .enumerate()
                .for_each(|(i, d)| println!("{i} {} {}", d.rows, d.sum)),
            Err(e) => {
                eprintln!("perfbench oracle: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (correct, attempted, failed, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = String::new();
    for m in &metrics {
        let listed = args.trace || CONTRACT_END_TO_END.contains(&m.name);
        if listed {
            let _ = write!(
                out,
                r#"{}"{}":{{"value":{},"unit":"{}"}}"#,
                if out.is_empty() { "" } else { "," },
                m.name,
                if m.value.is_finite() { m.value } else { -1.0 },
                m.unit
            );
        }
    }
    if !args.trace {
        if let Some(missing) = CONTRACT_END_TO_END
            .iter()
            .find(|n| !metrics.iter().any(|m| m.name == **n))
        {
            eprintln!("perfbench: run too short to report {missing}");
            std::process::exit(2);
        }
    }
    println!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{out}}}}}"#
    );
    if !correct {
        std::process::exit(1);
    }
}
