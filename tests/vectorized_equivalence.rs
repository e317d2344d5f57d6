//! Property: the columnar executor is invisible in results. For every
//! query and every degree of parallelism, it returns **row-for-row
//! identical** output (same rows, same order) to the sequential row
//! reference — including over sys tables, join chains, over pinned
//! snapshots while checkpoints commit concurrently, and when kernels only
//! cover part of the work and batches row-evaluate the filter.

mod common;

use squery::{SQuery, SQueryConfig, StateConfig};
use squery_common::Value;
use squery_nexmark::{q6_job, NexmarkConfig};
use squery_qcommerce::{
    order_monitoring_job, QCommerceConfig, ORDER_STATES, QUERY_1, QUERY_2, QUERY_3, QUERY_4,
};
use std::time::Duration;

const DOPS: [usize; 3] = [1, 4, 8];

/// Row-for-row equality with the same documented relaxation as the parallel
/// equivalence suite (DESIGN.md §5): float aggregates may differ by a few
/// ulps because per-batch accumulation and the parallel merge reassociate
/// float addition. Everything else must be bit-identical.
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

/// For each query: the row reference is the baseline; the columnar
/// executor must match it at every DOP.
fn assert_vectorized_equivalence(system: &SQuery, queries: &[&str]) {
    for sql in queries {
        let baseline = system.query_reference(sql).expect(sql);
        for dop in DOPS {
            let got = system.query_with_dop(sql, dop).expect(sql);
            assert!(
                rows_equivalent(got.rows(), baseline.rows()),
                "dop {dop} differs from the row reference for: {sql}\n \
                 got: {:?}\n baseline: {:?}",
                got.rows(),
                baseline.rows()
            );
        }
    }
}

/// Two snapshot tables and the live order table, chained on the order key.
const CHAIN: &str = "SELECT o.deliveryZone, COUNT(*) AS n FROM snapshot_orderinfo \
     JOIN snapshot_orderstate USING(partitionKey) JOIN orderinfo o USING(partitionKey) \
     GROUP BY o.deliveryZone";

#[test]
fn paper_queries_match_row_engine_at_every_dop() {
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

    assert_vectorized_equivalence(
        &system,
        &[
            QUERY_1,
            QUERY_2,
            QUERY_3,
            QUERY_4,
            // Live-table scan joined back onto snapshot state.
            "SELECT COUNT(*) AS n FROM orderinfo JOIN snapshot_orderstate USING(partitionKey)",
            // A three-table chain over snapshot and live state.
            CHAIN,
            // Multi-version scan: every retained ssid materialized.
            "SELECT ssid, COUNT(*) FROM snapshot_orderinfo WHERE ssid >= 0 GROUP BY ssid",
            // Non-aggregate ORDER BY + LIMIT over a parallel batched scan.
            "SELECT partitionKey, deliveryZone FROM snapshot_orderinfo \
             ORDER BY partitionKey LIMIT 50",
        ],
    );
    job.stop();
}

#[test]
fn q6_and_sys_table_queries_match_row_engine() {
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

    assert_vectorized_equivalence(
        &system,
        &[
            "SELECT COUNT(*) AS n, AVG(average) AS m FROM snapshot_average",
            "SELECT partitionKey, average FROM snapshot_average ORDER BY partitionKey LIMIT 20",
            "SELECT COUNT(*) FROM snapshot_average JOIN snapshot_maxbid USING(partitionKey)",
            // Sys tables are Whole scans: the vectorized driver batches them
            // at the morsel boundary instead of the slice boundary.
            "SELECT operator, snapshot_entries FROM sys_operators ORDER BY operator",
            "SELECT store, ssid, entries, committed FROM sys_snapshots ORDER BY store, ssid",
            "SELECT job, COUNT(*) FROM sys_checkpoints GROUP BY job",
        ],
    );
    job.stop();
}

/// Plans the kernels cover only partially must still agree with the row
/// reference: filters outside the compilable subset (scalar functions,
/// arithmetic) row-evaluate every batch, and mixed-type columns degrade
/// single batches to boxed values with per-batch row evaluation — all
/// under the same cost-model join planning.
#[test]
fn forced_fallback_and_mixed_batches_match_row_engine() {
    let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
    let system = SQuery::new(config).unwrap();

    // A raw live map with deliberately mixed value types: the `this` column
    // degrades to a boxed Any column, so comparison kernels refuse it and
    // batches row-evaluate. Ints and floats still compare numerically.
    let mixed = system.grid().map("mixed");
    for i in 0..300i64 {
        let v = match i % 3 {
            0 => Value::Int(i),
            1 => Value::Float(i as f64 + 0.5),
            _ => Value::str(format!("s{i}")),
        };
        mixed.put(Value::Int(i), v);
    }
    // A typed companion table so join + cost model engage.
    let sizes = system.grid().map("sizes");
    for i in 0..40i64 {
        sizes.put(Value::Int(i), Value::Int(i * 2));
    }

    assert_vectorized_equivalence(
        &system,
        &[
            // Mixed-type batches: kernel refuses, per-batch row fallback.
            "SELECT partitionKey FROM mixed WHERE this IN (0, 3.5, '' ) ORDER BY partitionKey",
            "SELECT COUNT(*) FROM mixed WHERE this IS NOT NULL",
            // Arithmetic in the filter: not compilable, every batch
            // row-evaluates it.
            "SELECT partitionKey FROM sizes WHERE this + 1 > 10 ORDER BY partitionKey",
            // Kernel filter over the probe output of a cost-model-planned
            // join (40-row build side under a 300-row probe side).
            "SELECT COUNT(*) FROM mixed JOIN sizes USING(partitionKey) \
             WHERE partitionKey >= 10",
        ],
    );

    // The same mixed-vs-typed disagreement must also *error* identically:
    // ordering a string against an int fails on both executors.
    let sql = "SELECT partitionKey FROM mixed WHERE this > 5";
    assert!(system.query_reference(sql).is_err());
    for dop in DOPS {
        assert!(system.query_with_dop(sql, dop).is_err(), "dop {dop}");
    }
}

/// Pinned-ssid scans stay equivalent across executors while later
/// checkpoints commit concurrently: the reference and every columnar worker
/// read the pinned version.
#[test]
fn pinned_snapshot_queries_match_row_engine_under_checkpoints() {
    let (system, job, allowance) = common::gated_counter_system_with(
        SQueryConfig::default()
            .with_state(StateConfig::live_and_snapshot())
            .with_retention(10),
        64,
        2,
    );

    common::advance(&job, &allowance, 64);
    let pinned = job.checkpoint_now().unwrap();
    let sql = format!(
        "SELECT partitionKey, this FROM snapshot_count WHERE ssid = {} ORDER BY partitionKey",
        pinned.0
    );
    let baseline = system.query_reference(&sql).unwrap();
    assert_eq!(baseline.len(), 64);

    // Six more checkpoints commit while the comparison loop runs; with
    // retention 10 the pinned id is never pruned or folded away.
    std::thread::scope(|scope| {
        let querier = scope.spawn(|| {
            for round in 0..40 {
                for dop in DOPS {
                    let vectorized = system.query_with_dop(&sql, dop).unwrap();
                    assert_eq!(
                        vectorized.rows(),
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
