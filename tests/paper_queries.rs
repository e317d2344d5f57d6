//! End-to-end reproduction of the paper's query listings: Figure 4's
//! live/snapshot queries and §VIII's Queries 1–4, at a larger scale than the
//! crate-level unit tests.

mod common;

use squery::{SQuery, SQueryConfig, StateConfig};
use squery_common::Value;
use squery_qcommerce::queries::{
    expected_query1, expected_query2, expected_query3, expected_query4,
};
use squery_qcommerce::{
    order_monitoring_job, QCommerceConfig, ORDER_STATES, QUERY_1, QUERY_2, QUERY_3, QUERY_4,
};
use std::collections::BTreeMap;
use std::time::Duration;

const ORDERS: u64 = 2_000;

fn monitoring_system() -> (SQuery, squery::JobHandle) {
    let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
    let system = SQuery::new(config).unwrap();
    let cfg = QCommerceConfig {
        orders: ORDERS,
        riders: 200,
        events_per_instance: ORDERS * ORDER_STATES.len() as u64,
        rate_per_instance: None,
        prefill_passes: 0,
    };
    let mut job = system.submit(order_monitoring_job(cfg, 1, 2)).unwrap();
    job.drain_and_checkpoint(Duration::from_secs(120)).unwrap();
    (system, job)
}

fn result_map(rs: &squery::ResultSet, group_col: &str) -> BTreeMap<String, i64> {
    rs.column(group_col)
        .unwrap()
        .iter()
        .zip(rs.column("COUNT(*)").unwrap())
        .map(|(g, c)| (g.as_str().unwrap().to_string(), c.as_int().unwrap()))
        .collect()
}

fn owned(m: BTreeMap<&'static str, i64>) -> BTreeMap<String, i64> {
    m.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

#[test]
fn paper_queries_1_to_4_at_scale() {
    let (system, job) = monitoring_system();
    assert_eq!(
        result_map(&system.query(QUERY_1).unwrap(), "deliveryZone"),
        owned(expected_query1(ORDERS)),
        "Query 1 (late orders per area)"
    );
    assert_eq!(
        result_map(&system.query(QUERY_2).unwrap(), "vendorCategory"),
        owned(expected_query2(ORDERS)),
        "Query 2 (ready for pickup per category)"
    );
    assert_eq!(
        result_map(&system.query(QUERY_3).unwrap(), "deliveryZone"),
        owned(expected_query3(ORDERS)),
        "Query 3 (in preparation per area)"
    );
    assert_eq!(
        result_map(&system.query(QUERY_4).unwrap(), "deliveryZone"),
        owned(expected_query4(ORDERS)),
        "Query 4 (in transit per area)"
    );
    job.stop();
}

/// The queries answer from the committed snapshot: concurrent live updates
/// between checkpoints must not change their results.
#[test]
fn snapshot_queries_ignore_concurrent_live_updates() {
    let (system, job) = monitoring_system();
    let before = result_map(&system.query(QUERY_3).unwrap(), "deliveryZone");
    // Mutate live state directly (as continued stream processing would).
    let live = system.grid().get_map("orderstate").unwrap();
    let schema = squery_qcommerce::events::order_state_schema();
    for o in 0..ORDERS as i64 {
        live.put(
            Value::Int(o),
            Value::record(&schema, vec![Value::str("DELIVERED"), Value::Timestamp(0)]),
        );
    }
    let after = result_map(&system.query(QUERY_3).unwrap(), "deliveryZone");
    assert_eq!(before, after, "snapshot isolation shields the query");
    // A live query over the same state does see the change.
    let rs = system
        .query("SELECT COUNT(*) AS n FROM orderstate WHERE orderState = 'DELIVERED'")
        .unwrap();
    assert_eq!(rs.scalar("n"), Some(&Value::Int(ORDERS as i64)));
    job.stop();
}

/// Figure 4's two queries, live and pinned-snapshot, against a real job.
#[test]
fn figure4_live_and_snapshot_queries() {
    let (system, mut job, allowance) =
        common::gated_counter_system(StateConfig::live_and_snapshot(), 2, 1);
    common::advance(&job, &allowance, 6); // key0=3, key1=3
    let s_old = job.checkpoint_now().unwrap();
    common::advance(&job, &allowance, 10); // key0=5, key1=5
    let s_new = job.checkpoint_now().unwrap();

    // Live query (Figure 4 left): current values.
    let rs = system
        .query("SELECT this FROM count WHERE partitionKey = 1")
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Int(5));

    // Snapshot query with explicit ssid (Figure 4 right): the older version.
    let rs = system
        .query(&format!(
            "SELECT this FROM snapshot_count WHERE ssid = {} AND partitionKey = 1",
            s_old.0
        ))
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Int(3));

    // Both retained versions side by side ("integrate the state of multiple
    // snapshot versions with explicit mention of each pair's version").
    let rs = system
        .query(
            "SELECT ssid, this FROM snapshot_count WHERE ssid >= 0 AND partitionKey = 1 \
             ORDER BY ssid",
        )
        .unwrap();
    assert_eq!(
        rs.rows(),
        &[
            vec![Value::Int(s_old.0 as i64), Value::Int(3)],
            vec![Value::Int(s_new.0 as i64), Value::Int(5)],
        ]
    );
    job.crash();
    job.recover().unwrap();
    job.stop();
}

/// The SQL layer's aggregate/join surface over realistic state: answers
/// computed two different ways must agree.
#[test]
fn sql_cross_checks_on_monitoring_state() {
    let (system, job) = monitoring_system();
    // COUNT per zone summed over zones == COUNT(*) overall.
    let per_zone = system
        .query("SELECT deliveryZone, COUNT(*) AS n FROM snapshot_orderinfo GROUP BY deliveryZone")
        .unwrap();
    let total: i64 = per_zone
        .column("n")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .sum();
    let overall = system
        .query("SELECT COUNT(*) AS n FROM snapshot_orderinfo")
        .unwrap();
    assert_eq!(Some(&Value::Int(total)), overall.scalar("n"));
    assert_eq!(total, ORDERS as i64);

    // HAVING prunes groups consistently with a client-side filter.
    let big_zones = system
        .query(
            "SELECT deliveryZone, COUNT(*) AS n FROM snapshot_orderinfo \
             GROUP BY deliveryZone HAVING COUNT(*) > 250 ORDER BY n DESC",
        )
        .unwrap();
    for row in big_zones.rows() {
        assert!(row[1].as_int().unwrap() > 250);
    }

    // Join cardinality: orderinfo ⋈ orderstate on the key is 1:1.
    let joined = system
        .query(
            "SELECT COUNT(*) AS n FROM snapshot_orderinfo \
             JOIN snapshot_orderstate USING(partitionKey)",
        )
        .unwrap();
    assert_eq!(joined.scalar("n"), Some(&Value::Int(ORDERS as i64)));
    job.stop();
}

/// `rows=`/`slices=` of every node line containing `node` in an EXPLAIN
/// ANALYZE rendering, in plan order (wall times and staleness vary run to
/// run).
fn accounting(rs: &squery::ResultSet, node: &str) -> Vec<Vec<String>> {
    rs.rows()
        .iter()
        .map(|r| r[0].to_string())
        .filter(|l| l.contains(node))
        .map(|l| {
            l.split([' ', '(', ')'])
                .filter(|t| t.starts_with("rows=") || t.starts_with("slices="))
                .map(str::to_string)
                .collect()
        })
        .collect()
}

/// Query 1 cold (executor-cache miss) and warm (hit) at DOP 1 and DOP 2:
/// both scan nodes render the same counts either way, and the scanned-rows
/// counter advances by the same amount — a cache hit replays the scan's
/// accounting rather than hiding it. Every node renders the same
/// `rows=`/`slices=` at DOP 1 as at DOP 2: one driver, one accounting.
#[test]
fn explain_analyze_scan_accounting_survives_cache_hits() {
    let (system, job) = monitoring_system();
    let sql = format!("EXPLAIN ANALYZE {QUERY_1}");
    let scanned = || {
        system
            .telemetry()
            .counter_value("query_rows_scanned_total", &[])
            .unwrap_or(0)
    };
    let mut per_dop = Vec::new();
    for dop in [1usize, 2] {
        // A fresh snapshot id starts from an empty executor cache.
        job.checkpoint_now().unwrap();
        let mut runs = Vec::new();
        let mut nodes = Vec::new();
        for _ in 0..2 {
            let before = scanned();
            let rs = system.query_with_dop(&sql, dop).unwrap();
            runs.push((accounting(&rs, "Scan snapshot_"), scanned() - before));
            // Every annotated node.
            nodes.push(accounting(&rs, "(rows="));
        }
        let (cold, warm) = (&runs[0], &runs[1]);
        assert_eq!(cold.0.len(), 2, "dop {dop}: two scan nodes: {cold:?}");
        for node in &cold.0 {
            assert_eq!(node[0], format!("rows={ORDERS}"), "dop {dop}: {cold:?}");
        }
        assert_eq!(cold, warm, "dop {dop}: miss vs hit");
        assert_eq!(cold.1, 2 * ORDERS, "dop {dop}: both scans counted");
        assert_eq!(nodes[0], nodes[1], "dop {dop}: every node, miss vs hit");
        per_dop.push(nodes.swap_remove(0));
    }
    assert_eq!(
        per_dop[0].len(),
        5,
        "Aggregate, Filter, HashJoin, two Scans"
    );
    assert_eq!(per_dop[0], per_dop[1], "every node, DOP 1 vs DOP 2");
    job.stop();
}
