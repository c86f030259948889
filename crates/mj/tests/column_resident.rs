//! Seeded differential suite for column-resident execution.
//!
//! Every base scan reads the catalog's pivoted columns through cached
//! hash-bucket row lists and pushed-down filters, and every materialized
//! intermediate is stored and re-read as columns. This suite checks the
//! whole path against the sequential XRA oracle: chain, star and skewed
//! data; all four strategies; every `LateMode`; batch sizes around the
//! 256-row boundary; prepared (`?N`) and ad-hoc text; no filter, and
//! pushed-down filters that keep some, none, or all rows. It also checks
//! that re-registering a relation retires its old columns and bucket
//! lists, and that columnar intermediates are charged to the query's
//! memory budget exactly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use multijoin::core::Strategy;
use multijoin::exec::{
    chain_query_sql, generate_family, star_query_sql, Database, DbConfig, LateMode, MemoryBudget,
    QueryFamily, QueryOptions,
};
use multijoin::relalg::{Attribute, JoinAlgorithm, Relation, RelationProvider, Schema, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 4;
const N: usize = 48;

/// A database over `family`'s relations under the given knobs.
fn open(relations: &[(String, Arc<Relation>)], config: DbConfig) -> Database {
    let db = Database::open(config).unwrap();
    for (name, rel) in relations {
        db.register(name.clone(), rel.clone()).unwrap();
    }
    db.analyze().unwrap();
    db
}

fn family_relations(family: QueryFamily, seed: u64) -> Vec<(String, Arc<Relation>)> {
    let instance = generate_family(family, K, N, seed).unwrap();
    (0..K)
        .map(|i| {
            let name = format!("R{i}");
            let rel = instance.catalog.relation(&name).unwrap();
            (name, rel)
        })
        .collect()
}

/// The oracle's answer to literal `text` over `db`'s current catalog.
fn oracle(db: &Database, text: &str) -> Relation {
    db.plan(text)
        .unwrap_or_else(|e| panic!("{}", e.render(text)))
        .oracle_xra(JoinAlgorithm::Simple)
        .unwrap()
        .eval(db.catalog().as_ref())
        .unwrap()
}

fn bind(text: &str, args: &[i64]) -> String {
    args.iter()
        .enumerate()
        .rev()
        .fold(text.to_string(), |t, (i, a)| {
            t.replace(&format!("?{}", i + 1), &a.to_string())
        })
}

/// Runs `text` ad hoc and, when it has placeholders, prepared; both must
/// equal the oracle. Returns the row count.
fn check(db: &Database, text: &str, args: &[i64], ctx: &str) -> usize {
    let literal = bind(text, args);
    let expected = oracle(db, &literal);
    let adhoc = db
        .query(&literal)
        .unwrap_or_else(|e| panic!("{ctx}: {}", e.render(&literal)))
        .collect()
        .unwrap_or_else(|e| panic!("{ctx}: {literal}: {e}"));
    assert!(
        adhoc.multiset_eq(&expected),
        "{ctx}: {literal}: engine {} rows, oracle {}",
        adhoc.len(),
        expected.len()
    );
    if !args.is_empty() {
        let stmt = db.prepare(text).unwrap();
        let prepared = db
            .execute_prepared(&stmt, args)
            .unwrap()
            .collect()
            .unwrap_or_else(|e| panic!("{ctx}: prepared {text} {args:?}: {e}"));
        assert!(
            prepared.multiset_eq(&expected),
            "{ctx}: prepared {text} {args:?}: engine {} rows, oracle {}",
            prepared.len(),
            expected.len()
        );
    }
    expected.len()
}

/// The unfiltered join and a two-relation filtered variant of `family`.
fn queries(family: QueryFamily) -> (String, String) {
    match family {
        QueryFamily::Star => {
            let base = star_query_sql(K);
            let fact = K - 1;
            let filtered = format!("{base} WHERE R{fact}.measure < ?1 AND R0.payload >= ?2");
            (base, filtered)
        }
        _ => {
            let base = chain_query_sql(K);
            let filtered = format!("{base} WHERE R0.id < ?1 AND R2.a >= ?2");
            (base, filtered)
        }
    }
}

#[test]
fn every_strategy_late_mode_and_batch_size_matches_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC01_5CA7);
    for family in QueryFamily::ALL {
        let relations = family_relations(family, rng.gen_range(0..1_000u64));
        let (base, filtered) = queries(family);
        for strategy in Strategy::ALL {
            for late in [LateMode::Auto, LateMode::Always, LateMode::Never] {
                for batch in [1usize, 255, 256, 257] {
                    let mut config = DbConfig::default();
                    config.planner.strategy = Some(strategy);
                    config.exec.late = late;
                    config.exec.batch_size = batch;
                    let db = open(&relations, config);
                    let ctx = format!("{family:?} {strategy} {late:?} batch={batch}");
                    let full = check(&db, &base, &[], &ctx);
                    assert!(full > 0, "{ctx}: the unfiltered join is non-empty");
                    // The pushed filters select nothing, everything, and
                    // a random share.
                    assert_eq!(check(&db, &filtered, &[0, 0], &ctx), 0, "{ctx}");
                    let all = check(&db, &filtered, &[i64::MAX, 0], &ctx);
                    assert_eq!(all, full, "{ctx}: an all-rows filter keeps everything");
                    let some = [rng.gen_range(1..2 * N as i64), rng.gen_range(0..N as i64)];
                    check(&db, &filtered, &some, &ctx);
                }
            }
        }
    }
}

#[test]
fn filters_are_pushed_down_to_the_column_scans() {
    let relations = family_relations(QueryFamily::Chain, 5);
    let db = open(&relations, DbConfig::default());
    let (_, filtered) = queries(QueryFamily::Chain);
    let planned = db.plan(&bind(&filtered, &[10, 3])).unwrap();
    assert_eq!(
        planned.binding.scan_filters().len(),
        2,
        "both predicates run as scan filters"
    );
    check(&db, &filtered, &[10, 3], "pushed");
    // The same answers with pushdown off (residual filter stage).
    let mut config = DbConfig::default();
    config.planner.pushdown = false;
    let db = open(&relations, config);
    check(&db, &filtered, &[10, 3], "residual");
}

/// A one-column relation `(k)` holding `keys`.
fn keys_relation(keys: impl Iterator<Item = i64>) -> Arc<Relation> {
    let schema = Schema::new(vec![Attribute::int("k"), Attribute::int("v")]).shared();
    Arc::new(
        Relation::new(
            schema,
            keys.map(|k| Tuple::from_ints(&[k, k * 3])).collect(),
        )
        .unwrap(),
    )
}

#[test]
fn re_registration_retires_old_columns_and_bucket_lists() {
    let db = Database::open(DbConfig::default()).unwrap();
    db.register("A", keys_relation(0..200)).unwrap();
    db.register("B", keys_relation(0..200)).unwrap();
    db.register("C", keys_relation(0..200)).unwrap();
    db.analyze().unwrap();
    let text = "SELECT * FROM A JOIN B ON A.k = B.k JOIN C ON B.k = C.k WHERE A.k < ?1";
    let stmt = db.prepare(text).unwrap();
    let run_prepared = |limit: i64| {
        db.execute_prepared(&stmt, &[limit])
            .unwrap()
            .collect()
            .unwrap()
    };
    let run_adhoc = |limit: i64| db.query(&bind(text, &[limit])).unwrap().collect().unwrap();
    assert_eq!(run_prepared(150).len(), 150);
    assert_eq!(run_adhoc(150).len(), 150);

    // The first queries computed B's bucket lists on its resident copy.
    let old = db.catalog().resident("B").unwrap();
    assert!(old.cached_buckets() > 0, "bucket lists cached on first use");
    let old_generation = old.generation();
    let retired = Arc::downgrade(&old);
    drop(old);

    // Re-register B with different rows: odd keys only, shifted payload.
    db.catalog()
        .register("B", keys_relation((0..200).map(|k| 2 * k + 1)));
    let new = db.catalog().resident("B").unwrap();
    assert!(new.generation() > old_generation);
    assert_eq!(new.cached_buckets(), 0, "a new generation starts uncached");
    assert!(
        retired.upgrade().is_none(),
        "the old generation's columns and bucket lists are released"
    );

    // Between two executes of one prepared statement, and between two
    // ad-hoc runs, the answer follows the new rows and equals the oracle.
    let literal = bind(text, &[150]);
    let expected = oracle(&db, &literal);
    assert_eq!(expected.len(), 75, "odd keys below 150 survive");
    assert!(run_prepared(150).multiset_eq(&expected));
    assert!(run_adhoc(150).multiset_eq(&expected));
    assert!(
        new.cached_buckets() > 0,
        "the new generation caches its own"
    );
}

/// Waits for `budget` to drain: the coordinator credits stored fragments
/// before the outcome is released, and batch pools credit their buffers
/// as the last task holding them is dropped by its worker.
fn settles_to_zero(budget: &MemoryBudget) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while budget.used() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    budget.used() == 0
}

#[test]
fn catalog_resident_columns_are_charged_to_no_query() {
    // Large relations, a late plan that pins every stored batch for the
    // root gather, and a filter that keeps no row: the scans read every
    // resident column, yet the query's peak stays far below their size.
    let instance = generate_family(QueryFamily::Chain, 3, 20_000, 3).unwrap();
    let relations: Vec<(String, Arc<Relation>)> = (0..3)
        .map(|i| {
            let name = format!("R{i}");
            let rel = instance.catalog.relation(&name).unwrap();
            (name, rel)
        })
        .collect();
    let mut config = DbConfig::default();
    config.exec.late = LateMode::Always;
    config.planner.strategy = Some(Strategy::SP);
    let db = open(&relations, config);
    let resident = db.catalog().resident_bytes();
    let text = format!("{} WHERE R0.id < ?1", chain_query_sql(3));
    let stmt = db.prepare(&text).unwrap();
    let handle = db
        .execute_prepared_with(&stmt, &[0], QueryOptions::new().with_memory_budget(1 << 30))
        .unwrap();
    let budget = handle.budget();
    assert!(handle.collect().unwrap().is_empty());
    assert!(
        budget.peak() * 4 < resident,
        "peak {} B charges catalog-resident columns ({resident} B)",
        budget.peak()
    );
    assert!(settles_to_zero(&budget));
}

#[test]
fn columnar_intermediates_are_charged_and_credited_exactly() {
    let relations = family_relations(QueryFamily::Chain, 9);
    let mut config = DbConfig::default();
    // SP materializes every intermediate into the fragment store.
    config.planner.strategy = Some(Strategy::SP);
    let db = open(&relations, config);
    let text = chain_query_sql(K);

    // Completion: the stored columnar fragments are charged, then
    // credited back at reclaim.
    let handle = db
        .query_with(&text, QueryOptions::new().with_memory_budget(1 << 30))
        .unwrap();
    let budget = handle.budget();
    handle.collect().unwrap();
    assert!(budget.peak() > 0, "intermediates were charged");
    assert!(
        settles_to_zero(&budget),
        "completion left {} B",
        budget.used()
    );
    assert_eq!(db.engine().store().total_bytes(), 0);

    // Cancel: reclaim still credits everything.
    let handle = db.query(&text).unwrap();
    let budget = handle.budget();
    handle.cancel();
    let _ = handle.collect();
    assert!(settles_to_zero(&budget), "cancel left {} B", budget.used());
    assert_eq!(db.engine().store().total_bytes(), 0);

    // A tiny budget aborts with a typed error and leaks nothing.
    let handle = db
        .query_with(&text, QueryOptions::new().with_memory_budget(64))
        .unwrap();
    let budget = handle.budget();
    assert!(handle.collect().is_err(), "64 bytes cannot hold the join");
    assert!(settles_to_zero(&budget), "abort left {} B", budget.used());
    assert_eq!(db.engine().store().total_bytes(), 0);
}
