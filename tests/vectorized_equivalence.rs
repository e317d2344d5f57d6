//! Property: the columnar executor is invisible in results. For every
//! query and every degree of parallelism, it returns **row-for-row
//! identical** output (same rows, same order) to the sequential row
//! reference — including over sys tables, join chains, over pinned
//! snapshots while checkpoints commit concurrently, and when kernels only
//! cover part of the work and batches row-evaluate the filter.

mod common;

use squery::{SQuery, SQueryConfig, StateConfig};
use squery_common::schema::schema;
use squery_common::{DataType, Value};
use squery_nexmark::{q6_job, NexmarkConfig};
use squery_qcommerce::queries::{expected_query2, expected_query3};
use squery_qcommerce::{
    order_monitoring_job, QCommerceConfig, ORDER_STATES, QUERY_1, QUERY_2, QUERY_3, QUERY_4,
};
use std::collections::BTreeMap;
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

/// `WHERE` conjuncts that each read one scan filter that scan before the
/// joins; every shape of pushdown — and every `WHERE` that stays after the
/// joins — matches the reference at every DOP.
#[test]
fn pushed_down_filters_match_row_engine() {
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

    // Two live maps joined on a nullable column `k`: 300 rows and 40 rows,
    // so the cost model builds on the 40-row side whichever comes first.
    let rec = schema(vec![("k", DataType::Int), ("tag", DataType::Str)]);
    for (name, n, null_every, tags) in [("lhs", 300i64, 11, 4), ("rhs", 40, 5, 3)] {
        let map = system.grid().map(name);
        map.set_value_schema(rec.clone());
        for i in 0..n {
            let k = if i % null_every == 0 {
                Value::Null
            } else {
                Value::Int(i % 7)
            };
            let tag = Value::str(format!("t{}", i % tags));
            map.put(Value::Int(i), Value::record(&rec, vec![k, tag]));
        }
    }
    let flipped =
        "SELECT r.partitionKey, l.partitionKey, l.tag FROM rhs r JOIN lhs l ON r.k = l.k \
                   WHERE r.tag = 't1' AND l.partitionKey >= 100";
    let plan = explain(&system, &format!("EXPLAIN {flipped}"));
    assert!(plan.contains("[build=left"), "{plan}");
    assert!(!plan.contains("Filter"), "{plan}");

    let queries = [
        // Probe side only (orderinfo probes, orderstate builds).
        "SELECT vendorCategory, COUNT(*) FROM snapshot_orderinfo \
         JOIN snapshot_orderstate USING(partitionKey) \
         WHERE deliveryZone IN ('north', 'south') GROUP BY vendorCategory",
        // Build side only, without an aggregate.
        "SELECT partitionKey, deliveryZone, orderState FROM snapshot_orderinfo \
         JOIN snapshot_orderstate USING(partitionKey) WHERE orderState = 'DELIVERED'",
        // Both sides: LIKE on the probe, IN and IS NOT NULL on the build.
        "SELECT deliveryZone, COUNT(*) FROM snapshot_orderinfo \
         JOIN snapshot_orderstate USING(partitionKey) \
         WHERE vendorCategory LIKE 'p%' AND orderState IN ('NOTIFIED', 'ACCEPTED') \
         AND lateTimestamp IS NOT NULL GROUP BY deliveryZone",
        // NULL join keys never match, filtered or not.
        "SELECT l.partitionKey, r.partitionKey, r.tag FROM lhs l JOIN rhs r ON l.k = r.k \
         WHERE l.tag = 't1' AND r.partitionKey IS NOT NULL",
        "SELECT COUNT(*) FROM lhs l JOIN rhs r ON l.k = r.k WHERE l.k IS NULL",
        "SELECT l.tag, COUNT(*) FROM lhs l JOIN rhs r ON l.k = r.k \
         WHERE r.tag IN ('t0', 't2') GROUP BY l.tag",
        // The cost model flipped the build side to the filtered `rhs`.
        flipped,
        // A three-table chain with a conjunct on the middle scan.
        "SELECT o.deliveryZone, COUNT(*) AS n FROM snapshot_orderinfo \
         JOIN snapshot_orderstate USING(partitionKey) JOIN orderinfo o USING(partitionKey) \
         WHERE orderState = 'DELIVERED' GROUP BY o.deliveryZone",
    ];
    for sql in queries {
        let plan = explain(&system, &format!("EXPLAIN {sql}"));
        assert!(
            plan.contains("[filter: ") && !plan.contains("Filter"),
            "{plan}"
        );
    }
    assert_vectorized_equivalence(&system, &queries);
    // A cross-scan OR stays after the join.
    let cross = "SELECT deliveryZone, COUNT(*) FROM snapshot_orderinfo \
                 JOIN snapshot_orderstate USING(partitionKey) \
                 WHERE vendorCategory LIKE 'p%' OR orderState = 'NOTIFIED' GROUP BY deliveryZone";
    let plan = explain(&system, &format!("EXPLAIN {cross}"));
    assert!(
        !plan.contains("[filter: ") && plan.contains("Filter"),
        "{plan}"
    );
    assert_vectorized_equivalence(&system, &[cross]);

    // Two predicates over the same build scan are two cached tables: Q2
    // then Q3, each cold then warm on one snapshot, each match their
    // oracle.
    for (sql, group, expected) in [
        (QUERY_2, "vendorCategory", expected_query2(ORDERS)),
        (QUERY_2, "vendorCategory", expected_query2(ORDERS)),
        (QUERY_3, "deliveryZone", expected_query3(ORDERS)),
        (QUERY_3, "deliveryZone", expected_query3(ORDERS)),
    ] {
        let rs = system.query(sql).unwrap();
        let got: BTreeMap<String, i64> = rs
            .column(group)
            .unwrap()
            .iter()
            .zip(rs.column("COUNT(*)").unwrap())
            .map(|(g, c)| (g.as_str().unwrap().to_string(), c.as_int().unwrap()))
            .collect();
        let expected: BTreeMap<String, i64> = expected
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(got, expected, "{sql}");
        assert_vectorized_equivalence(&system, &[sql]);
    }
    job.stop();
}

/// A pushed kernel that declines a batch (a mixed-type column) reruns the
/// query with the `WHERE` after the joins, so errors and results follow
/// the reference: an error the reference raises on a joined row is
/// raised, and a bad value on a build row no probe row joins is not.
#[test]
fn declined_pushdown_matches_row_engine() {
    let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
    let system = SQuery::new(config).unwrap();
    // `mixed` (300 rows) mixes ints, floats and strings in `this`, `nums`
    // (300 rows) ints and floats; `sizes` (40 rows) is typed; `odd` (21
    // rows) is typed except for one string on a key no `sizes` row has.
    let mixed = system.grid().map("mixed");
    for i in 0..300i64 {
        let v = match i % 3 {
            0 => Value::Int(i),
            1 => Value::Float(i as f64 + 0.5),
            _ => Value::str(format!("s{i}")),
        };
        mixed.put(Value::Int(i), v);
    }
    let sizes = system.grid().map("sizes");
    for i in 0..40i64 {
        sizes.put(Value::Int(i), Value::Int(i * 2));
    }
    let nums = system.grid().map("nums");
    for i in 0..300i64 {
        let v = if i % 2 == 0 {
            Value::Int(i)
        } else {
            Value::Float(i as f64)
        };
        nums.put(Value::Int(i), v);
    }
    let odd = system.grid().map("odd");
    for i in 0..20i64 {
        odd.put(Value::Int(i), Value::Int(i));
    }
    odd.put(Value::Int(1_000), Value::str("bad"));

    // The mixed column sits on the probe side of the join: the strings on
    // joined rows make the reference fail, and the columnar driver too.
    let sql = "SELECT COUNT(*) FROM sizes JOIN mixed USING(partitionKey) WHERE mixed.this > 5";
    assert!(explain(&system, &format!("EXPLAIN {sql}")).contains("[filter: "));
    assert!(system.query_reference(sql).is_err());
    for dop in DOPS {
        assert!(system.query_with_dop(sql, dop).is_err(), "dop {dop}");
    }
    // Ints and floats alone compare numerically: a decline, no error.
    let sql = "SELECT partitionKey, nums.this FROM sizes JOIN nums USING(partitionKey) \
               WHERE nums.this > 10.5 AND sizes.this > 2";
    assert_eq!(system.query_reference(sql).unwrap().len(), 29);
    assert_vectorized_equivalence(&system, &[sql]);
    // The string sits on the filtered build side, on a row nothing joins:
    // both executors succeed with the same rows.
    let sql = "SELECT partitionKey, sizes.this FROM sizes JOIN odd USING(partitionKey) \
               WHERE odd.this > 5";
    assert!(explain(&system, &format!("EXPLAIN {sql}")).contains("[filter: "));
    let reference = system.query_reference(sql).unwrap();
    assert_eq!(reference.len(), 14);
    assert_vectorized_equivalence(&system, &[sql]);
    // `query_rows_scanned_total` counts both runs of a declined query: the
    // rerun scans what the reference scans, and the declined run adds the
    // `odd` rows it decoded before it stopped. A query that declines
    // nothing scans exactly what the reference scans.
    let scanned = || {
        system
            .telemetry()
            .counter_value("query_rows_scanned_total", &[])
            .unwrap_or(0)
    };
    let delta = |f: &dyn Fn()| {
        let before = scanned();
        f();
        scanned() - before
    };
    let reference = delta(&|| {
        system.query_reference(sql).unwrap();
    });
    assert_eq!(reference, 40 + 21);
    for dop in DOPS {
        let columnar = delta(&|| {
            system.query_with_dop(sql, dop).unwrap();
        });
        assert!(
            columnar > reference && columnar <= reference + 21,
            "dop {dop}: {columnar} rows scanned, reference {reference}"
        );
    }
    let clean = "SELECT partitionKey, sizes.this FROM sizes JOIN odd USING(partitionKey) \
                 WHERE sizes.this > 5";
    assert!(explain(&system, &format!("EXPLAIN {clean}")).contains("[filter: "));
    let reference = delta(&|| {
        system.query_reference(clean).unwrap();
    });
    for dop in DOPS {
        let columnar = delta(&|| {
            system.query_with_dop(clean, dop).unwrap();
        });
        assert_eq!(columnar, reference, "dop {dop}");
    }
}

/// `EXPLAIN` output as one string.
fn explain(system: &SQuery, sql: &str) -> String {
    let rs = system.query(sql).unwrap();
    rs.rows()
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
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
