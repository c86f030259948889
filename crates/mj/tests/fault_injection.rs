//! Deterministic fault-injection sweep over the query-lifecycle guardrails.
//!
//! Drives the `faults` harness of `mj-exec` end to end through the session
//! facade: a seeded [`FaultPlan`] forces a panic, an allocation spike, or a
//! stall at a chosen step of every named operator of a realistic pipeline
//! (joins, residual filter, partitioned aggregate, limit), and each
//! injection must surface as the *correct typed* [`MjError`] — never a
//! process abort — with the shared fragment store drained, the engine
//! reusable, and concurrently running sibling queries unaffected.

use std::sync::Once;

use multijoin::exec::{
    generate_family, Database, DbConfig, FaultKind, FaultPlan, FaultPoint, MjError, QueryFamily,
    QueryOptions,
};
use multijoin::relalg::{Relation, RelationProvider};

/// Silences the default panic hook for injected panics only, so the sweep
/// does not spray backtraces while still reporting real test failures.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .map(|s| s.contains("injected panic"))
                .or_else(|| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| s.contains("injected panic"))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// A session whose plans exercise every operator label the fault harness
/// can target: pushdown is disabled so the WHERE clause runs as a residual
/// `filter` stage, GROUP BY adds an `aggregate` stage, and a huge LIMIT
/// adds a `limit` stage without early-stopping the pipeline. Small batches
/// keep per-task step counts high so early-step injection points exist.
fn guardrail_db() -> Database {
    let instance = generate_family(QueryFamily::Chain, 4, 96, 0xFA17).expect("family");
    let mut config = DbConfig::default();
    config.planner.pushdown = false;
    config.exec.batch_size = 16;
    config.exec.stall_timeout = Some(std::time::Duration::from_millis(150));
    let db = Database::open(config).expect("open");
    let mut names = instance.catalog.names();
    names.sort();
    for name in &names {
        db.register(name, instance.catalog.relation(name).expect("relation"))
            .expect("register");
    }
    db.analyze().expect("analyze");
    db
}

/// Joins + WHERE + GROUP BY + LIMIT: every fault label has a stage.
fn pipeline_sql() -> String {
    "SELECT R0.a, COUNT(*) FROM R0 \
     JOIN R1 ON R0.b = R1.a \
     JOIN R2 ON R1.b = R2.a \
     JOIN R3 ON R2.b = R3.a \
     WHERE R0.id >= 0 GROUP BY R0.a LIMIT 1000000"
        .to_string()
}

fn collect_with(db: &Database, text: &str, opts: QueryOptions) -> Result<Relation, MjError> {
    db.query_with(text, opts)?.collect().map_err(MjError::from)
}

#[test]
fn fault_sweep_every_operator_and_kind_fails_clean() {
    quiet_injected_panics();
    let db = guardrail_db();
    let text = pipeline_sql();
    let baseline = collect_with(&db, &text, QueryOptions::default()).expect("baseline");
    assert!(!baseline.is_empty(), "pipeline produces rows");

    let kinds = [
        FaultKind::Panic,
        FaultKind::AllocSpike { bytes: 1 << 40 },
        FaultKind::Stall,
    ];
    for label in ["join", "filter", "aggregate", "limit"] {
        for kind in kinds {
            for at_step in [1u64, 3] {
                let ctx = format!("{label}/{kind:?}/step{at_step}");
                let plan =
                    FaultPlan::seeded(0xC0FFEE).with_point(FaultPoint::new(label, at_step, kind));
                // A generous budget the workload never reaches by itself,
                // so only the injected spike can trip it.
                let opts = QueryOptions::new()
                    .with_memory_budget(1 << 30)
                    .with_faults(plan);
                let handle = db.query_with(&text, opts).expect("submit");
                let budget = handle.budget();
                let err = handle
                    .collect()
                    .map_err(MjError::from)
                    .expect_err(&format!("{ctx}: injected fault must surface"));
                match kind {
                    FaultKind::Panic => assert!(
                        matches!(err, MjError::Internal(_)),
                        "{ctx}: expected Internal, got {err}"
                    ),
                    FaultKind::AllocSpike { .. } => assert!(
                        matches!(err, MjError::ResourceExhausted { .. }),
                        "{ctx}: expected ResourceExhausted, got {err}"
                    ),
                    FaultKind::Stall => assert!(
                        matches!(err, MjError::Stalled(_)),
                        "{ctx}: expected Stalled, got {err}"
                    ),
                }
                // The faulted query left nothing behind: its stored
                // columnar fragments and every other charge (an injected
                // spike included) are credited back...
                assert_eq!(
                    db.engine().store().total_bytes(),
                    0,
                    "{ctx}: fragments leaked"
                );
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while budget.used() != 0 && std::time::Instant::now() < deadline {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                assert_eq!(budget.used(), 0, "{ctx}: budget not returned");
                // ...and the engine still answers the same query correctly.
                let after = collect_with(&db, &text, QueryOptions::default())
                    .unwrap_or_else(|e| panic!("{ctx}: engine unusable after fault: {e}"));
                assert!(
                    after.multiset_eq(&baseline),
                    "{ctx}: post-fault result diverged"
                );
            }
        }
    }
    let stats = db.stats();
    assert!(stats.panics_contained >= 8, "panic sweep counted");
    assert!(stats.budget_aborts >= 8, "spike sweep counted");
    assert!(stats.queries_stalled >= 8, "stall sweep counted");
}

#[test]
fn faulted_query_leaves_concurrent_sibling_intact() {
    quiet_injected_panics();
    let db = guardrail_db();
    let text = pipeline_sql();
    let baseline = collect_with(&db, &text, QueryOptions::default()).expect("baseline");

    std::thread::scope(|scope| {
        // Sibling: clean query racing the faulted one on the same pool.
        let sibling = scope.spawn(|| collect_with(&db, &text, QueryOptions::default()));
        let plan = FaultPlan::seeded(7).with_point(FaultPoint::new("join", 2, FaultKind::Panic));
        let err = collect_with(&db, &text, QueryOptions::new().with_faults(plan))
            .expect_err("injected panic must surface");
        assert!(matches!(err, MjError::Internal(_)), "got {err}");
        let sibling = sibling
            .join()
            .expect("sibling thread")
            .expect("sibling query");
        assert!(
            sibling.multiset_eq(&baseline),
            "sibling query was disturbed by a contained panic"
        );
    });
    assert_eq!(db.engine().store().total_bytes(), 0);
}

#[test]
fn cancel_parked_at_every_pipeline_stage_is_exactly_once() {
    quiet_injected_panics();
    let db = guardrail_db();
    let text = pipeline_sql();
    let baseline = collect_with(&db, &text, QueryOptions::default()).expect("baseline");

    // A stall parks the pipeline at the named stage; cancelling then must
    // win over the stall (exactly-once `Canceled`, fragments reclaimed,
    // engine reusable). `join@1` parks during scan/build, `join@3` during
    // probe/feed (join instances here finish within ~4 steps, so later
    // steps would never fire); the stage labels park the post-join
    // pipeline at filter, aggregate and limit.
    let park_points = [
        ("join", 1u64),
        ("join", 3),
        ("filter", 2),
        ("aggregate", 2),
        ("limit", 2),
    ];
    for (label, at_step) in park_points {
        let ctx = format!("cancel parked at {label}@{at_step}");
        let plan =
            FaultPlan::seeded(11).with_point(FaultPoint::new(label, at_step, FaultKind::Stall));
        let handle = db
            .query_with(&text, QueryOptions::new().with_faults(plan))
            .expect("submit");
        // Let the pipeline run into the stall, then cancel.
        std::thread::sleep(std::time::Duration::from_millis(30));
        handle.cancel();
        let err = handle.outcome().expect_err("cancelled query must error");
        assert!(
            matches!(MjError::from(err.clone()), MjError::Canceled),
            "{ctx}: expected Canceled, got {err}"
        );
        assert_eq!(db.engine().store().total_bytes(), 0, "{ctx}: leaked");
        let after = collect_with(&db, &text, QueryOptions::default()).expect("engine reusable");
        assert!(after.multiset_eq(&baseline), "{ctx}: post-cancel diverged");
    }
}

#[test]
fn empty_fault_plan_matches_the_oracle_on_all_families() {
    // Differential guard: compiling the harness in and passing an *empty*
    // plan must not perturb results on any seeded family.
    for (family, seed) in [
        (QueryFamily::Chain, 21u64),
        (QueryFamily::Star, 22),
        (QueryFamily::Skewed, 23),
    ] {
        let k = 5;
        let instance = generate_family(family, k, 80, seed).expect("family");
        let db = Database::open(DbConfig::default()).expect("open");
        let mut names = instance.catalog.names();
        names.sort();
        for name in &names {
            db.register(name, instance.catalog.relation(name).expect("relation"))
                .expect("register");
        }
        db.analyze().expect("analyze");
        let text = match family {
            QueryFamily::Star => multijoin::exec::star_query_sql(k),
            _ => multijoin::exec::chain_query_sql(k),
        };
        // Oracle: sequential XRA evaluation of the planner's own lowering.
        let planned = db.plan(&text).expect("plan");
        let oracle = planned
            .lowered
            .to_xra(&planned.tree, multijoin::relalg::JoinAlgorithm::Simple)
            .expect("oracle plan")
            .eval(db.catalog().as_ref())
            .expect("oracle eval");
        let empty = QueryOptions::new().with_faults(FaultPlan::new());
        let result = collect_with(&db, &text, empty).expect("query");
        assert!(
            result.multiset_eq(&oracle),
            "{family}: empty fault plan changed the result \
             ({} vs {} tuples)",
            result.len(),
            oracle.len()
        );
    }
}
