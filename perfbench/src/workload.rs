//! The three workloads: seeded data, the distinct requests, each
//! client's request script, and the oracle answer of every request.
//!
//! Every input is a function of `--seed`. The seed changes the data,
//! the arguments and the order of requests; the mix of statement shapes
//! and its proportions are fixed, so two seeds load the same layers in
//! the same proportions.

use std::sync::Arc;

use mj_exec::{generate_family, Database, DbConfig, MjError, QueryFamily};
use mj_relalg::{JoinAlgorithm, Relation, RelationProvider};

use crate::stats::Digest;

pub type BenchResult<T> = Result<T, String>;

/// How result batches travel back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Bin,
    Json,
}

/// One distinct request.
#[derive(Clone, Debug)]
pub enum Req {
    /// Ad-hoc text: parse, bind and plan on every send.
    Adhoc(String),
    /// Prepared statement `stmt` (an index into `Workload::statements`).
    Exec { stmt: usize, args: Vec<i64> },
}

/// One closed-loop client.
#[derive(Clone, Debug)]
pub struct ClientPlan {
    /// Indices into `Workload::requests`, sent in order and cycled.
    pub script: Vec<usize>,
    /// Prepare, execute and close on every request instead of preparing
    /// each statement once up front.
    pub prepare_each: bool,
    /// Re-register and analyze one relation in process after every
    /// this many requests.
    pub write_every: Option<usize>,
}

pub struct Workload {
    pub name: &'static str,
    pub format: Format,
    /// Relations to register, under their benchmark names.
    pub relations: Vec<(String, Arc<Relation>)>,
    /// Statement texts with `?N` placeholders.
    pub statements: Vec<String>,
    pub requests: Vec<Req>,
    pub clients: Vec<ClientPlan>,
    /// Relations a catalog write may replace (by index into `relations`).
    pub writable: Vec<usize>,
    /// A join edge of the workload, `(build rel, build col, probe rel,
    /// probe col)` by index, for the join-kernel timings.
    pub join_edge: (usize, usize, usize, usize),
}

pub const WORKLOADS: [&str; 3] = ["point-prepared", "analytic-join", "adhoc-churn"];

/// Small deterministic generator for scripts and arguments (the data
/// itself comes from the engine's seeded family generators).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x243F_6A88_85A3_08D3)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        crate::stats::mix(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generates `family` at `k` relations of base size `n` and renames its
/// relations `R0..` to `{prefix}0..`.
fn family(
    prefix: &str,
    fam: QueryFamily,
    k: usize,
    n: usize,
    seed: u64,
) -> BenchResult<Vec<(String, Arc<Relation>)>> {
    let inst = generate_family(fam, k, n, seed).map_err(|e| e.to_string())?;
    (0..k)
        .map(|i| {
            let rel = inst
                .catalog
                .relation(&format!("R{i}"))
                .map_err(|e| e.to_string())?;
            Ok((format!("{prefix}{i}"), rel))
        })
        .collect()
}

/// `SELECT <items> FROM p0 JOIN p1 ON p0.b = p1.a ...` over the first
/// `w` relations of a chain (or skewed) family named `p0..`.
pub fn chain_from(p: &str, w: usize) -> String {
    let mut q = format!("FROM {p}0");
    for i in 1..w {
        q.push_str(&format!(" JOIN {p}{i} ON {p}{}.b = {p}{i}.a", i - 1));
    }
    q
}

/// The star family's join: dimensions `p0..p{w-2}` against the fact
/// `p{fact}`.
pub fn star_from(p: &str, w: usize, fact: usize) -> String {
    let mut q = format!("FROM {p}0 JOIN {p}{fact} ON {p}0.key = {p}{fact}.fk0");
    for d in 1..w - 1 {
        q.push_str(&format!(" JOIN {p}{d} ON {p}{d}.key = {p}{fact}.fk{d}"));
    }
    q
}

/// Four filter arguments spread over a column's value domain `0..domain`.
fn quartiles(domain: i64) -> Vec<i64> {
    (1..=4).map(|i| domain * i / 4).collect()
}

/// Adds one request per argument of `stmt` and returns their indices.
fn exec_requests(requests: &mut Vec<Req>, stmt: usize, args: &[i64]) -> Vec<usize> {
    args.iter()
        .map(|&a| {
            requests.push(Req::Exec {
                stmt,
                args: vec![a],
            });
            requests.len() - 1
        })
        .collect()
}

pub fn build(name: &str, seed: u64) -> BenchResult<Workload> {
    match name {
        "point-prepared" => point_prepared(seed),
        "analytic-join" => analytic_join(seed),
        "adhoc-churn" => adhoc_churn(seed),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Two clients executing a few `?1` statements over tiny k=6 chain, star
/// and skewed instances in `format:bin`: the fixed per-query cost is the
/// whole cost, and every statement stays in the plan cache.
fn point_prepared(seed: u64) -> BenchResult<Workload> {
    const K: usize = 6;
    const N: usize = 50;
    let mut relations = family("C", QueryFamily::Chain, K, N, seed)?;
    relations.extend(family("S", QueryFamily::Star, K, N, seed ^ 1)?);
    relations.extend(family("K", QueryFamily::Skewed, K, N, seed ^ 2)?);
    // Result sizes stay independent of the seed: the star's filter
    // selects exactly `?1` fact rows (its `measure` column numbers them),
    // and the chain and skewed statements aggregate to one row, since the
    // length of a random chain join swings widely from seed to seed.
    let (chain, star, skewed) = (
        chain_from("C", K),
        star_from("S", K, K - 1),
        chain_from("K", K),
    );
    let statements = vec![
        format!("SELECT COUNT(*), SUM(C5.id) {chain} WHERE C0.id < ?1"),
        format!("SELECT * {star} WHERE S5.measure < ?1"),
        format!("SELECT COUNT(*), SUM(K5.id) {skewed} WHERE K1.id < ?1"),
        format!("SELECT S5.fk0, COUNT(*) {star} WHERE S5.measure < ?1 GROUP BY S5.fk0"),
    ];
    let domains = [N as i64, 2 * N as i64, N as i64, 2 * N as i64];
    let mut requests = Vec::new();
    let ids: Vec<usize> = (0..statements.len())
        .flat_map(|s| exec_requests(&mut requests, s, &quartiles(domains[s])))
        .collect();
    let clients = (0..2u64)
        .map(|c| {
            let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c));
            ClientPlan {
                script: (0..4096).map(|_| ids[rng.below(ids.len())]).collect(),
                prepare_each: false,
                write_every: None,
            }
        })
        .collect();
    Ok(Workload {
        name: "point-prepared",
        format: Format::Bin,
        relations,
        statements,
        requests,
        clients,
        writable: Vec::new(),
        join_edge: (1, 0, 0, 1), // C1.a built, C0.b probing
    })
}

/// One client running large k=6 joins at n=20,000 one at a time: full
/// results in `format:bin` alternating with filtered GROUP BY variants.
fn analytic_join(seed: u64) -> BenchResult<Workload> {
    const K: usize = 6;
    const N: usize = 20_000;
    let mut relations = family("C", QueryFamily::Chain, K, N, seed)?;
    relations.extend(family("S", QueryFamily::Star, K, N, seed ^ 1)?);
    relations.extend(family("K", QueryFamily::Skewed, K, N, seed ^ 2)?);
    let (chain, star, skewed) = (
        chain_from("C", K),
        star_from("S", K, K - 1),
        chain_from("K", K),
    );
    let statements = vec![
        format!("SELECT * {chain}"),
        format!("SELECT * {star}"),
        format!("SELECT * {skewed}"),
        format!("SELECT C0.a, COUNT(*) {chain} WHERE C0.a < ?1 GROUP BY C0.a"),
        format!(
            "SELECT S0.payload, COUNT(*), SUM(S5.measure) {star} \
             WHERE S0.payload < ?1 GROUP BY S0.payload"
        ),
        format!("SELECT K0.a, COUNT(*) {skewed} WHERE K0.id < ?1 GROUP BY K0.a"),
    ];
    let mut requests: Vec<Req> = (0..3)
        .map(|stmt| Req::Exec {
            stmt,
            args: Vec::new(),
        })
        .collect();
    let filtered: Vec<Vec<usize>> = [(3, 400), (4, 40), (5, 2000)]
        .iter()
        .map(|&(stmt, domain)| exec_requests(&mut requests, stmt, &quartiles(domain)))
        .collect();
    // One cycle: each full result once, each filtered variant once, and
    // the chain's full result a second time. The uneven weight keeps the
    // median and the 90th percentile inside a query class rather than on
    // the step between two classes, where a small shift would swap them.
    let mut rng = Rng::new(seed.wrapping_mul(37));
    let mut script = Vec::new();
    for _ in 0..512 {
        let mut pick = |f: usize| filtered[f][rng.below(4)];
        script.extend([0, pick(0), 1, pick(1), 2, pick(2), 0]);
    }
    Ok(Workload {
        name: "analytic-join",
        format: Format::Bin,
        relations,
        statements,
        requests,
        clients: vec![ClientPlan {
            script,
            prepare_each: false,
            write_every: None,
        }],
        writable: Vec::new(),
        join_edge: (1, 0, 0, 1),
    })
}

/// Chain and star statement texts for the churn client, each with the
/// value domain of its filter column, hottest first under the Zipf
/// draw. Widths are interleaved so the hot set spans cheap and
/// expensive plans alike.
fn churn_statements(k: usize, n: i64) -> Vec<(String, i64)> {
    let fact = k - 1;
    let mut widths = Vec::new();
    let (mut lo, mut hi) = (2, k);
    while lo <= hi {
        widths.push(lo);
        if hi != lo {
            widths.push(hi);
        }
        lo += 1;
        hi -= 1;
    }
    // As in `point-prepared`, chain statements aggregate to one row and
    // star statements select rows by the fact's numbering column, so
    // result sizes do not depend on the seed.
    let mut out = Vec::new();
    for variant in 0..8 {
        for &w in &widths {
            let (c, s) = (chain_from("C", w), star_from("S", w, fact));
            let last = w - 1;
            out.push(match variant {
                0 => (format!("SELECT COUNT(*) {c} WHERE C0.id < ?1"), n),
                1 => (format!("SELECT * {s} WHERE S{fact}.measure < ?1"), 2 * n),
                2 => (
                    format!("SELECT COUNT(*), SUM(C{last}.id) {c} WHERE C{last}.a < ?1"),
                    n,
                ),
                3 => (
                    format!(
                        "SELECT S0.payload, COUNT(*) {s} WHERE S{fact}.measure < ?1 \
                         GROUP BY S0.payload"
                    ),
                    2 * n,
                ),
                4 => (
                    format!("SELECT COUNT(*), SUM(C0.b) {c} WHERE C{}.b < ?1", w / 2),
                    n,
                ),
                5 => (
                    format!("SELECT S{fact}.measure, S0.payload {s} WHERE S{fact}.measure < ?1"),
                    2 * n,
                ),
                6 => (
                    format!("SELECT C0.a, COUNT(*) {c} WHERE C0.a < ?1 GROUP BY C0.a"),
                    n / 5,
                ),
                _ => (
                    format!("SELECT COUNT(*) {s} WHERE S{}.payload < ?1", w - 2),
                    1000,
                ),
            });
        }
    }
    out.truncate(96);
    out
}

/// Two JSON clients over small chain and star instances up to k=14:
/// one sends ad-hoc text (parse, bind and plan every time), the other
/// prepares, executes and closes statements drawn from more texts than
/// the plan cache holds, with a catalog write every 200 requests.
fn adhoc_churn(seed: u64) -> BenchResult<Workload> {
    const K: usize = 14;
    const N: usize = 50;
    let mut relations = family("C", QueryFamily::Chain, K, N, seed)?;
    relations.extend(family("S", QueryFamily::Star, K, N, seed ^ 1)?);
    let (statements, domains): (Vec<String>, Vec<i64>) =
        churn_statements(K, N as i64).into_iter().unzip();
    let mut requests = Vec::new();
    let mut rng = Rng::new(seed.wrapping_mul(41));

    // Client A: widths 2..=14 in turn, each with a seeded literal.
    let adhoc: Vec<Vec<usize>> = (2..=K)
        .map(|w| {
            quartiles(N as i64)
                .into_iter()
                .map(|lit| {
                    requests.push(Req::Adhoc(format!(
                        "SELECT COUNT(*), SUM(C{}.id) {} WHERE C{}.id < {lit}",
                        w - 1,
                        chain_from("C", w),
                        w / 2
                    )));
                    requests.len() - 1
                })
                .collect()
        })
        .collect();
    let script_a: Vec<usize> = (0..4096)
        .map(|i| adhoc[i % adhoc.len()][rng.below(4)])
        .collect();

    // Client B: Zipf(1.0) over the statement ranks.
    let per_stmt: Vec<Vec<usize>> = domains
        .iter()
        .enumerate()
        .map(|(s, &d)| exec_requests(&mut requests, s, &quartiles(d)))
        .collect();
    let weights: Vec<f64> = (1..=statements.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let script_b: Vec<usize> = (0..4096)
        .map(|_| {
            let mut u = rng.unit() * total;
            let rank = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(weights.len() - 1);
            per_stmt[rank][rng.below(4)]
        })
        .collect();

    Ok(Workload {
        name: "adhoc-churn",
        format: Format::Json,
        relations,
        statements,
        requests,
        clients: vec![
            ClientPlan {
                script: script_a,
                prepare_each: false,
                write_every: None,
            },
            ClientPlan {
                script: script_b,
                prepare_each: true,
                write_every: Some(200),
            },
        ],
        // Chain relations only: rewriting one with its own rows keeps
        // every answer equal to the oracle's while bumping the catalog
        // generation, which makes every cached plan stale.
        writable: (0..K).collect(),
        join_edge: (1, 0, 0, 1),
    })
}

/// Opens a default-configured database holding the workload's data.
pub fn open_db(w: &Workload) -> BenchResult<Database> {
    let err = |e: MjError| e.to_string();
    let db = Database::open(DbConfig::default()).map_err(err)?;
    for (name, rel) in &w.relations {
        db.register(name.clone(), rel.clone()).map_err(err)?;
    }
    db.analyze().map_err(err)?;
    Ok(db)
}

/// The literal text of a request, for tools that cannot take
/// placeholders (`Database::plan`, the ad-hoc path).
pub fn literal_text(w: &Workload, req: &Req) -> String {
    match req {
        Req::Adhoc(text) => text.clone(),
        Req::Exec { stmt, args } => args
            .iter()
            .enumerate()
            .fold(w.statements[*stmt].clone(), |t, (i, a)| {
                t.replace(&format!("?{}", i + 1), &a.to_string())
            }),
    }
}

/// Evaluates every distinct request with the sequential XRA oracle on a
/// scratch database and returns the expected digests, by request index.
/// Each evaluation is sequential; independent requests are spread over
/// the available cores, since the oracle's nested-loop joins dominate a
/// run's wall time on the large workload.
pub fn oracle(w: &Workload) -> BenchResult<Vec<Digest>> {
    let db = open_db(w)?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let eval = |req: &Req| -> BenchResult<Digest> {
        let planned = match req {
            Req::Adhoc(text) => db.plan(text).map_err(|e| e.render(text))?,
            Req::Exec { stmt, args } => {
                let text = &w.statements[*stmt];
                let prepared = db.prepare(text).map_err(|e| e.render(text))?;
                prepared
                    .planned()
                    .bind_params(args)
                    .map_err(|e| e.to_string())?
            }
        };
        let rel = planned
            .oracle_xra(JoinAlgorithm::Simple)
            .and_then(|x| x.eval(db.catalog().as_ref()))
            .map_err(|e| e.to_string())?;
        let mut digest = Digest::default();
        rel.iter().for_each(|t| digest.add_values(t.values()));
        Ok(digest)
    };
    let mut out = vec![Digest::default(); w.requests.len()];
    std::thread::scope(|scope| -> BenchResult<()> {
        let eval = &eval;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..w.requests.len())
                        .step_by(threads)
                        .map(|i| Ok((i, eval(&w.requests[i])?)))
                        .collect::<BenchResult<Vec<_>>>()
                })
            })
            .collect();
        for h in handles {
            for (i, d) in h.join().expect("oracle thread panicked")? {
                out[i] = d;
            }
        }
        Ok(())
    })?;
    Ok(out)
}
