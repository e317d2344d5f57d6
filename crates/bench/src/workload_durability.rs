//! Workload-level durability check: the paper's SQL workload state
//! (q-commerce `orderinfo`/`orderstate`, NEXMark q6 `maxbid`/`average`)
//! written under a WAL, sealed and committed, then the whole system dropped
//! and cold-started from the directory alone. Q1–Q4, the NEXMark q6 join,
//! and direct `get_many` reads must come back byte-identical to the
//! pre-kill captures — the acceptance shape of the durability story, run
//! by the `durability` soak binary on every CI push.

use crate::util::{nexmark_fixture, populate_snapshot, qcommerce_fixture};
use squery::{FsyncMode, SQuery, SQueryConfig, StateConfig, StateView};
use squery_common::{SnapshotId, Value};
use squery_nexmark::q6::{average_state_schema, maxbid_state_schema};
use squery_qcommerce::{QUERY_1, QUERY_2, QUERY_3, QUERY_4};
use std::path::Path;

/// The q6 analytics join over the two operator states, aggregated so the
/// result is scale-independent.
const NEXMARK_Q6: &str = "SELECT COUNT(*), AVG(average) FROM \"snapshot_average\" a \
                          JOIN \"snapshot_maxbid\" b ON a.partitionKey = b.seller";

const ORDERS: u64 = 600;
const SELLERS: u64 = 40;
const DOP: usize = 4;

fn config(wal_dir: &Path) -> SQueryConfig {
    SQueryConfig::default()
        .with_state(StateConfig::live_and_snapshot())
        .with_wal_dir(wal_dir)
        .with_fsync(FsyncMode::OnCommit)
        .with_wal_retention(4)
}

/// Value schemas are application setup, re-registered on every start (a
/// resumed job's operators would do the same) — recovery restores bytes,
/// not catalog metadata.
fn set_schemas(system: &SQuery) {
    let grid = system.grid();
    grid.snapshot_store("orderinfo")
        .set_value_schema(squery_qcommerce::events::order_info_schema());
    grid.snapshot_store("orderstate")
        .set_value_schema(squery_qcommerce::events::order_state_schema());
    grid.snapshot_store("maxbid")
        .set_value_schema(maxbid_state_schema());
    grid.snapshot_store("average")
        .set_value_schema(average_state_schema());
}

/// Write the full workload fixture as one sealed, committed checkpoint
/// round.
fn populate(system: &SQuery) -> SnapshotId {
    let mut fixtures = qcommerce_fixture(ORDERS);
    fixtures.extend(nexmark_fixture(SELLERS));
    populate_snapshot(system, fixtures)
}

/// `Value`'s `Display` walks struct fields in schema order, unlike `Debug`
/// (whose field-index map is a `HashMap` with unstable iteration order) —
/// the captures must be canonical bytes.
fn render_rows(rows: &[Vec<Value>]) -> String {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(Value::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

fn render_direct(pairs: &[(Value, Option<Value>)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| match v {
            Some(v) => format!("{k}={v}"),
            None => format!("{k}=<missing>"),
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// Every result the acceptance criterion names, as one canonical string:
/// Q1–Q4 and the q6 join via SQL (sorted rows), plus direct `get_many`
/// over a key sample of both workloads pinned to `ssid`.
fn capture(system: &SQuery, ssid: SnapshotId) -> Result<String, String> {
    let mut out = String::new();
    for (name, sql) in [
        ("q1", QUERY_1),
        ("q2", QUERY_2),
        ("q3", QUERY_3),
        ("q4", QUERY_4),
        ("nexmark_q6", NEXMARK_Q6),
    ] {
        let rows = system
            .query_with_dop(sql, DOP)
            .map_err(|e| format!("{name} failed: {e}"))?
            .sorted_rows();
        out.push_str(&format!("{name}:{}\n", render_rows(&rows)));
    }
    let order_keys: Vec<Value> = (0..ORDERS)
        .step_by(17)
        .map(|o| Value::Int(o as i64))
        .collect();
    let direct_orders = system
        .direct()
        .get_many("orderstate", &order_keys, StateView::Snapshot(ssid))
        .map_err(|e| format!("direct get_many(orderstate) failed: {e}"))?;
    out.push_str(&format!(
        "direct_orderstate:{}\n",
        render_direct(&direct_orders)
    ));
    let bid_keys: Vec<Value> = (0..SELLERS * 5)
        .step_by(7)
        .map(|a| Value::Int(a as i64))
        .collect();
    let direct_bids = system
        .direct()
        .get_many("maxbid", &bid_keys, StateView::Snapshot(ssid))
        .map_err(|e| format!("direct get_many(maxbid) failed: {e}"))?;
    out.push_str(&format!("direct_maxbid:{}\n", render_direct(&direct_bids)));
    Ok(out)
}

/// Populate, capture, kill (drop every in-memory structure), cold-start
/// from the WAL directory alone, and require the post-restart captures to
/// be byte-identical. Returns the shared fingerprint. The directory is
/// created fresh and removed on success.
pub fn run_workload_kill_restart(wal_dir: &Path) -> Result<String, String> {
    let _ = std::fs::remove_dir_all(wal_dir);

    let system = SQuery::new(config(wal_dir)).map_err(|e| format!("first start failed: {e}"))?;
    set_schemas(&system);
    let ssid = populate(&system);
    let pre_kill = capture(&system, ssid)?;
    drop(system); // the kill: nothing survives but the directory

    let system = SQuery::new(config(wal_dir)).map_err(|e| format!("cold start failed: {e}"))?;
    set_schemas(&system);
    let recovered = system
        .latest_snapshot()
        .ok_or_else(|| "cold start recovered no committed snapshot".to_string())?;
    if recovered != ssid {
        return Err(format!(
            "cold start recovered v{} instead of v{}",
            recovered.0, ssid.0
        ));
    }
    let post_kill = capture(&system, ssid)?;
    if post_kill != pre_kill {
        return Err(format!(
            "recovered results differ from pre-kill results:\n--- pre-kill\n{pre_kill}\n--- recovered\n{post_kill}"
        ));
    }

    let _ = std::fs::remove_dir_all(wal_dir);
    Ok(format!("v{}|{post_kill}", recovered.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_q4_and_q6_survive_a_cold_start_byte_identically() {
        let dir =
            std::env::temp_dir().join(format!("squery-workload-durability-{}", std::process::id()));
        let fingerprint = run_workload_kill_restart(&dir).unwrap();
        assert!(fingerprint.starts_with("v1|q1:"));
        assert!(fingerprint.contains("nexmark_q6:"));
        assert!(fingerprint.contains("direct_maxbid:"));
    }
}
