//! Property: parallel query execution is invisible in results. For any
//! degree of parallelism, every query returns **row-for-row identical**
//! output (same rows, same order) to sequential execution — including over
//! sys tables and while checkpoints commit concurrently.

mod common;

use squery::{SQuery, SQueryConfig, StateConfig};
use squery_common::Value;
use squery_nexmark::{q6_job, NexmarkConfig};
use squery_qcommerce::{
    order_monitoring_job, QCommerceConfig, ORDER_STATES, QUERY_1, QUERY_2, QUERY_3, QUERY_4,
};
use std::time::Duration;

const DOPS: [usize; 3] = [2, 4, 8];

/// Row-for-row equality, with one documented relaxation (DESIGN.md §5):
/// float aggregates may differ by a few ulps because the parallel merge
/// reassociates float addition. Everything else must be bit-identical.
fn rows_equivalent(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Value::Float(x), Value::Float(y)) => {
                        x == y || (x - y).abs() <= 8.0 * f64::EPSILON * x.abs().max(y.abs())
                    }
                    _ => va == vb,
                })
        })
}

fn assert_dop_equivalence(system: &SQuery, queries: &[&str]) {
    for sql in queries {
        let sequential = system.query_with_dop(sql, 1).expect(sql);
        for dop in DOPS {
            let parallel = system.query_with_dop(sql, dop).expect(sql);
            assert!(
                rows_equivalent(parallel.rows(), sequential.rows()),
                "dop {dop} differs from sequential for: {sql}\n parallel: {:?}\n sequential: {:?}",
                parallel.rows(),
                sequential.rows()
            );
        }
    }
}

#[test]
fn paper_queries_are_dop_invariant() {
    const ORDERS: u64 = 1_000;
    let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
    let system = SQuery::new(config).unwrap();
    let cfg = QCommerceConfig {
        orders: ORDERS,
        riders: 100,
        events_per_instance: ORDERS * ORDER_STATES.len() as u64,
        rate_per_instance: None,
        prefill_passes: 0,
    };
    let mut job = system.submit(order_monitoring_job(cfg, 1, 2)).unwrap();
    job.drain_and_checkpoint(Duration::from_secs(120)).unwrap();

    assert_dop_equivalence(
        &system,
        &[
            QUERY_1,
            QUERY_2,
            QUERY_3,
            QUERY_4,
            // Live-table scan with a join back onto snapshot state.
            "SELECT COUNT(*) AS n FROM orderinfo JOIN snapshot_orderstate USING(partitionKey)",
            // A three-table chain over snapshot and live state.
            "SELECT o.deliveryZone, COUNT(*) AS n FROM snapshot_orderinfo \
             JOIN snapshot_orderstate USING(partitionKey) JOIN orderinfo o USING(partitionKey) \
             GROUP BY o.deliveryZone",
            // Multi-version scan: every retained ssid materialized.
            "SELECT ssid, COUNT(*) FROM snapshot_orderinfo WHERE ssid >= 0 GROUP BY ssid",
            // Non-aggregate ORDER BY + LIMIT over a parallel scan.
            "SELECT partitionKey, deliveryZone FROM snapshot_orderinfo \
             ORDER BY partitionKey LIMIT 50",
        ],
    );
    job.stop();
}

#[test]
fn q6_and_sys_table_queries_are_dop_invariant() {
    let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
    let system = SQuery::new(config).unwrap();
    let cfg = NexmarkConfig {
        sellers: 200,
        active_auctions: 400,
        events_per_instance: 5_000,
        rate_per_instance: None,
    };
    let mut job = system.submit(q6_job(cfg, 1, 2)).unwrap();
    job.drain_and_checkpoint(Duration::from_secs(120)).unwrap();

    assert_dop_equivalence(
        &system,
        &[
            "SELECT COUNT(*) AS n, AVG(average) AS m FROM snapshot_average",
            "SELECT partitionKey, average FROM snapshot_average ORDER BY partitionKey LIMIT 20",
            "SELECT COUNT(*) FROM snapshot_average JOIN snapshot_maxbid USING(partitionKey)",
            // Sys tables are Whole scans: the parallel driver chunks them.
            "SELECT operator, snapshot_entries FROM sys_operators ORDER BY operator",
            "SELECT store, ssid, entries, committed FROM sys_snapshots ORDER BY store, ssid",
            "SELECT job, COUNT(*) FROM sys_checkpoints GROUP BY job",
        ],
    );
    job.stop();
}

/// Queries pinned to an explicit snapshot id stay dop-invariant while later
/// checkpoints commit concurrently: all workers read the pinned version and
/// retention is high enough that it is never pruned mid-comparison.
#[test]
fn pinned_snapshot_queries_are_dop_invariant_under_checkpoints() {
    let (system, job, allowance) = {
        let keys = 64;
        let state = StateConfig::live_and_snapshot();
        let config = SQueryConfig::default().with_state(state).with_retention(10);
        let system = SQuery::new(config).unwrap();
        let allowance = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut b = squery::JobSpec::builder("gated-counter");
        let src = b.source(
            "events",
            1,
            std::sync::Arc::new(common::GatedFactory {
                keys,
                allowance: std::sync::Arc::clone(&allowance),
            }),
        );
        let op = b.stateful_with_schema(
            "count",
            2,
            common::counter_factory(),
            squery_common::schema::schema(vec![("this", squery_common::DataType::Int)]),
        );
        let sink = b.sink(
            "sink",
            1,
            std::sync::Arc::new(squery_streaming::dag::adapters::NullSinkFactory),
        );
        b.edge(src, op, squery_streaming::EdgeKind::Keyed);
        b.edge(op, sink, squery_streaming::EdgeKind::Forward);
        let job = system.submit(b.build().unwrap()).unwrap();
        (system, job, allowance)
    };

    common::advance(&job, &allowance, 64);
    let pinned = job.checkpoint_now().unwrap();
    let sql = format!(
        "SELECT partitionKey, this FROM snapshot_count WHERE ssid = {} ORDER BY partitionKey",
        pinned.0
    );
    let baseline = system.query_with_dop(&sql, 1).unwrap();
    assert_eq!(baseline.len(), 64);

    // Six more checkpoints commit while the comparison loop runs; with
    // retention 10 the pinned id is never pruned or folded away.
    std::thread::scope(|scope| {
        let querier = scope.spawn(|| {
            for round in 0..60 {
                for dop in DOPS {
                    let parallel = system.query_with_dop(&sql, dop).unwrap();
                    assert_eq!(
                        parallel.rows(),
                        baseline.rows(),
                        "round {round}, dop {dop}: pinned-snapshot result changed"
                    );
                }
            }
        });
        for step in 1..=6u64 {
            common::advance(&job, &allowance, 64 + step * 64);
            job.checkpoint_now().unwrap();
        }
        querier.join().unwrap();
    });
    job.stop();
}
