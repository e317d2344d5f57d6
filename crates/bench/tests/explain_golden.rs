//! Golden-file tests for `EXPLAIN` output of the paper's queries.
//!
//! The rendered plan of Q1–Q4 (q-commerce order monitoring, §VIII) and the
//! NEXMark q6 join is compared line-for-line against checked-in golden
//! files under `tests/golden/`. Regenerate after an intentional planner or
//! renderer change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p squery-bench --test explain_golden
//! ```

use squery::{SQuery, SQueryConfig, StateConfig};
use squery_nexmark::{q6_job, NexmarkConfig};
use squery_qcommerce::{order_monitoring_job, QCommerceConfig, QUERY_1, QUERY_2, QUERY_3, QUERY_4};
use std::path::PathBuf;
use std::time::Duration;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Render `<prefix> <sql>` as one newline-terminated string.
fn explain_with(system: &SQuery, prefix: &str, sql: &str) -> String {
    let rs = system
        .query(&format!("{prefix} {sql}"))
        .unwrap_or_else(|e| panic!("{prefix} failed for {sql:?}: {e}"));
    let mut out = String::new();
    for row in rs.rows() {
        out.push_str(row[0].as_str().expect("plan lines are strings"));
        out.push('\n');
    }
    out
}

/// Render `EXPLAIN <sql>` as one newline-terminated string.
fn explain(system: &SQuery, sql: &str) -> String {
    explain_with(system, "EXPLAIN", sql)
}

/// Compare against the golden file, or rewrite it when `UPDATE_GOLDEN` is
/// set.
fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "EXPLAIN output for {name} drifted from {} — \
         rerun with UPDATE_GOLDEN=1 if the change is intentional",
        path.display()
    );
}

#[test]
fn explain_of_paper_queries_q1_to_q4_matches_golden() {
    let system =
        SQuery::new(SQueryConfig::default().with_state(StateConfig::live_and_snapshot())).unwrap();
    let cfg = QCommerceConfig {
        orders: 40,
        riders: 10,
        events_per_instance: 320,
        rate_per_instance: None,
        prefill_passes: 0,
    };
    let mut job = system.submit(order_monitoring_job(cfg, 1, 2)).unwrap();
    job.drain_and_checkpoint(Duration::from_secs(60)).unwrap();
    for (name, sql) in [
        ("q1", QUERY_1),
        ("q2", QUERY_2),
        ("q3", QUERY_3),
        ("q4", QUERY_4),
    ] {
        check(name, &explain(&system, sql));
    }
    job.stop();
}

/// `EXPLAIN ANALYZE` on Q1–Q4 reports measured per-operator rows and wall
/// time, and the forced profile spans land in `sys_spans` with the plan
/// operators nested under each query's root span.
#[test]
fn explain_analyze_of_q1_to_q4_is_consistent_with_sys_spans() {
    let system =
        SQuery::new(SQueryConfig::default().with_state(StateConfig::live_and_snapshot())).unwrap();
    let cfg = QCommerceConfig {
        orders: 40,
        riders: 10,
        events_per_instance: 320,
        rate_per_instance: None,
        prefill_passes: 0,
    };
    let mut job = system.submit(order_monitoring_job(cfg, 1, 2)).unwrap();
    job.drain_and_checkpoint(Duration::from_secs(60)).unwrap();
    for sql in [QUERY_1, QUERY_2, QUERY_3, QUERY_4] {
        let plan = explain_with(&system, "EXPLAIN ANALYZE", sql);
        // Every instrumented node carries measured stats, and the scans
        // actually read the 40-order snapshot.
        for needle in ["Scan", "HashJoin", "Filter", "Aggregate"] {
            let line = plan
                .lines()
                .find(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("no {needle} node in: {plan}"));
            assert!(line.contains("(rows="), "unannotated {needle}: {line}");
            assert!(line.contains(" wall="), "no wall time on {needle}: {line}");
        }
        assert!(
            plan.lines()
                .any(|l| l.contains("Scan") && l.contains("rows=40")),
            "scans saw the snapshot: {plan}"
        );
    }
    // Each ANALYZE forced one root query span; the morsel driver's spans
    // (per-unit scan slices, hash builds, the aggregate merge) hang off
    // those roots and fit inside them on the timeline. Probe and filter
    // work folds into its nodes without spans of its own.
    let roots = system
        .query("SELECT id, duration_us FROM sys_spans WHERE kind = 'query'")
        .unwrap();
    assert_eq!(roots.rows().len(), 4, "one forced root per ANALYZE");
    for kind in ["scan", "join", "filter"] {
        let spans = system
            .query(&format!("SELECT id FROM sys_spans WHERE kind = '{kind}'"))
            .unwrap();
        assert!(spans.is_empty(), "a {kind} span outside the morsel driver");
    }
    for kind in ["slice", "join_build", "aggregate"] {
        let children = system
            .query(&format!(
                "SELECT parent, duration_us FROM sys_spans WHERE kind = '{kind}'"
            ))
            .unwrap();
        assert!(!children.rows().is_empty(), "no {kind} spans recorded");
        for child in children.rows() {
            let root = roots
                .rows()
                .iter()
                .find(|r| r[0] == child[0])
                .unwrap_or_else(|| panic!("orphan {kind} span: {child:?}"));
            assert!(
                child[1].as_int().unwrap() <= root[1].as_int().unwrap(),
                "{kind} span outlives its query root"
            );
        }
    }
    job.stop();
}

/// The cost model picks the smaller side as the hash-join build input; when
/// the table sizes invert, the decision flips. Captured as a golden so the
/// `[build=… est_rows=…]` rendering is pinned too.
#[test]
fn cost_model_flips_build_side_when_table_sizes_invert() {
    use squery_common::Value;
    use squery_sql::{GridCatalog, SqlEngine};
    use squery_storage::Grid;

    let grid = Grid::single_node();
    let big = grid.map("big");
    let small = grid.map("small");
    for i in 0..50i64 {
        big.put(Value::Int(i), Value::Int(i * 10));
    }
    for i in 0..3i64 {
        small.put(Value::Int(i), Value::Int(i * 100));
    }
    let engine = SqlEngine::new(GridCatalog::new(grid));
    let explain = |sql: &str| {
        let rs = engine.query(sql).unwrap();
        let mut out = String::new();
        for row in rs.rows() {
            out.push_str(row[0].as_str().expect("plan lines are strings"));
            out.push('\n');
        }
        out
    };
    // big ⨝ small: build from the right (small) side — query-text order
    // already agrees with the cost model.
    let right = explain("EXPLAIN SELECT * FROM big JOIN small USING(partitionKey)");
    // small ⨝ big: query-text order would build from the 50-row side; the
    // cost model flips the build to the left (small) input.
    let left = explain("EXPLAIN SELECT * FROM small JOIN big USING(partitionKey)");
    assert!(right.contains("[build=right est_rows=3]"), "{right}");
    assert!(left.contains("[build=left est_rows=3]"), "{left}");
    check("cost_model_build_side", &format!("{right}{left}"));
}

#[test]
fn explain_of_nexmark_q6_join_matches_golden() {
    let system =
        SQuery::new(SQueryConfig::default().with_state(StateConfig::live_and_snapshot())).unwrap();
    let cfg = NexmarkConfig {
        sellers: 10,
        active_auctions: 20,
        events_per_instance: 400,
        rate_per_instance: None,
    };
    let mut job = system.submit(q6_job(cfg, 1, 2)).unwrap();
    job.drain_and_checkpoint(Duration::from_secs(60)).unwrap();
    let sql = "SELECT prices FROM \"snapshot_average\" a JOIN \"snapshot_maxbid\" b \
               ON a.partitionKey = b.seller LIMIT 10";
    check("nexmark_q6", &explain(&system, sql));
    job.stop();
}
