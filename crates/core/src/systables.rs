//! The `sys_*` tables: engine internals exposed through the SQL surface.
//!
//! The paper opens operator *state* to queries; this module applies the same
//! idea to the engine's own telemetry. Fourteen virtual tables are registered
//! in every [`SQuery`](crate::SQuery) deployment's catalog and recompute
//! their rows on every scan:
//!
//! | table             | one row per…                         |
//! |-------------------|---------------------------------------|
//! | `sys_metrics`     | metric (counter, gauge, or histogram) |
//! | `sys_events`      | retained engine event                 |
//! | `sys_operators`   | operator (state + record counters)    |
//! | `sys_checkpoints` | committed checkpoint round, per job   |
//! | `sys_snapshots`   | retained snapshot version, per store  |
//! | `sys_faults`      | injected fault, with recovery outcome |
//! | `sys_spans`       | recorded trace span                   |
//! | `sys_query_log`   | completed (or failed) SQL query       |
//! | `sys_partitions`  | non-empty partition, live or snapshot |
//! | `sys_state_stats` | table's state-statistics summary      |
//! | `sys_hot_keys`    | heavy-hitter key, per table           |
//! | `sys_wal`         | operator's write-ahead-log footprint  |
//! | `sys_watermarks`  | operator instance's event-time frontier |
//! | `sys_freshness`   | committed snapshot's staleness bound  |
//!
//! Because they are ordinary [`Table`]s, sys tables compose with the full
//! dialect — joins (including self-joins), aggregation, `ORDER BY` — and
//! with the regular state tables.

use parking_lot::Mutex;
use squery_common::lockorder::{self, LockClass};
use squery_common::schema::{schema, Schema};
use squery_common::telemetry::MetricsRegistry;
use squery_common::{DataType, Value};
use squery_sql::{GridCatalog, QueryLog, SysTable, Table};
use squery_storage::Grid;
use squery_streaming::checkpoint::CheckpointStats;
use std::sync::Arc;

/// Per-job checkpoint logs, shared between [`crate::SQuery`] and the
/// `sys_checkpoints` provider. Jobs are appended at submit time.
pub(crate) type JobLog = Arc<Mutex<Vec<(String, CheckpointStats)>>>;

fn opt_str(v: Option<&str>) -> Value {
    v.map(Value::str).unwrap_or(Value::Null)
}

fn opt_u64(v: Option<u64>) -> Value {
    v.map(|n| Value::Int(n as i64)).unwrap_or(Value::Null)
}

/// The operator a metric belongs to, from whichever label the subsystem used.
fn metric_operator(key: &squery_common::telemetry::MetricKey) -> Value {
    opt_str(
        key.label("operator")
            .or_else(|| key.label("map"))
            .or_else(|| key.label("store")),
    )
}

fn sys_metrics_schema() -> Arc<Schema> {
    schema(vec![
        ("name", DataType::Str),
        ("kind", DataType::Str),
        ("operator", DataType::Str),
        ("value", DataType::Int),
        ("count", DataType::Int),
        ("p50_us", DataType::Int),
        ("p90_us", DataType::Int),
        ("p99_us", DataType::Int),
        ("max_us", DataType::Int),
    ])
}

fn sys_metrics_rows(registry: &MetricsRegistry) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for (key, value) in registry.counters() {
        rows.push(vec![
            Value::str(&key.name),
            Value::str("counter"),
            metric_operator(&key),
            Value::Int(value as i64),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ]);
    }
    for (key, value) in registry.gauges() {
        rows.push(vec![
            Value::str(&key.name),
            Value::str("gauge"),
            metric_operator(&key),
            Value::Int(value),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ]);
    }
    for (key, hist) in registry.histograms() {
        rows.push(vec![
            Value::str(&key.name),
            Value::str("histogram"),
            metric_operator(&key),
            Value::Null,
            Value::Int(hist.count() as i64),
            Value::Int(hist.percentile(0.50) as i64),
            Value::Int(hist.percentile(0.90) as i64),
            Value::Int(hist.percentile(0.99) as i64),
            Value::Int(hist.max() as i64),
        ]);
    }
    rows
}

fn sys_events_schema() -> Arc<Schema> {
    schema(vec![
        ("seq", DataType::Int),
        ("at_us", DataType::Int),
        ("kind", DataType::Str),
        ("operator", DataType::Str),
        ("ssid", DataType::Int),
        ("duration_us", DataType::Int),
        ("detail", DataType::Str),
    ])
}

fn sys_events_rows(registry: &MetricsRegistry) -> Vec<Vec<Value>> {
    registry
        .events()
        .snapshot()
        .into_iter()
        .map(|ev| {
            vec![
                Value::Int(ev.seq as i64),
                Value::Int(ev.at_us as i64),
                Value::str(ev.kind.as_str()),
                opt_str(ev.operator.as_deref()),
                opt_u64(ev.ssid),
                opt_u64(ev.duration_us),
                Value::str(&ev.detail),
            ]
        })
        .collect()
}

fn sys_operators_schema() -> Arc<Schema> {
    schema(vec![
        ("operator", DataType::Str),
        ("live_entries", DataType::Int),
        ("live_bytes", DataType::Int),
        ("snapshot_versions", DataType::Int),
        ("snapshot_entries", DataType::Int),
        ("snapshot_bytes", DataType::Int),
        ("records_in", DataType::Int),
        ("records_out", DataType::Int),
        ("state_updates", DataType::Int),
    ])
}

fn sys_operators_rows(grid: &Grid) -> Vec<Vec<Value>> {
    let registry = grid.telemetry();
    // Union of operators holding state and operators only known through
    // their worker counters (sources and sinks have no maps).
    let mut names: Vec<String> = grid
        .map_names()
        .into_iter()
        .chain(
            grid.snapshot_table_names()
                .into_iter()
                .map(|t| t.strip_prefix("snapshot_").unwrap_or(&t).to_string()),
        )
        .chain(registry.counters().into_iter().filter_map(|(k, _)| {
            (k.name == "operator_records_in_total")
                .then(|| k.label("operator").map(str::to_string))
                .flatten()
        }))
        .filter(|n| !n.starts_with("__"))
        .collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|operator| {
            let live = grid.get_map(&operator);
            let stats = grid.get_snapshot_store(&operator).map(|s| s.stats());
            let labels = [("operator", operator.as_str())];
            let counter = |name: &str| opt_u64(registry.counter_value(name, &labels));
            vec![
                Value::str(&operator),
                live.as_ref()
                    .map(|m| Value::Int(m.len() as i64))
                    .unwrap_or(Value::Null),
                live.as_ref()
                    .map(|m| Value::Int(m.approximate_bytes() as i64))
                    .unwrap_or(Value::Null),
                Value::Int(stats.as_ref().map_or(0, |s| s.retained_versions) as i64),
                Value::Int(stats.as_ref().map_or(0, |s| s.stored_entries) as i64),
                Value::Int(stats.as_ref().map_or(0, |s| s.approx_bytes) as i64),
                counter("operator_records_in_total"),
                counter("operator_records_out_total"),
                counter("state_updates_total"),
            ]
        })
        .collect()
}

fn sys_checkpoints_schema() -> Arc<Schema> {
    schema(vec![
        ("job", DataType::Str),
        ("ssid", DataType::Int),
        ("began_at_us", DataType::Int),
        ("phase1_us", DataType::Int),
        ("total_us", DataType::Int),
        ("watermark_us", DataType::Int),
    ])
}

fn sys_checkpoints_rows(jobs: &JobLog) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    let _lo = lockorder::acquired(LockClass::CoreJobs);
    for (job, stats) in jobs.lock().iter() {
        for r in stats.records() {
            rows.push(vec![
                Value::str(job),
                Value::Int(r.ssid.0 as i64),
                Value::Int(r.began_at_us as i64),
                Value::Int(r.phase1_us as i64),
                Value::Int(r.total_us as i64),
                if r.watermark_us > 0 {
                    Value::Int(r.watermark_us as i64)
                } else {
                    Value::Null
                },
            ]);
        }
    }
    rows
}

fn sys_snapshots_schema() -> Arc<Schema> {
    schema(vec![
        ("store", DataType::Str),
        ("ssid", DataType::Int),
        ("entries", DataType::Int),
        ("bytes", DataType::Int),
        ("committed", DataType::Int),
    ])
}

fn sys_snapshots_rows(grid: &Grid) -> Vec<Vec<Value>> {
    let committed = grid.registry().committed_ssids();
    let mut rows = Vec::new();
    for table in grid.snapshot_table_names() {
        let op = table.strip_prefix("snapshot_").unwrap_or(&table);
        if op.starts_with("__") {
            continue;
        }
        let Some(store) = grid.get_snapshot_store(op) else {
            continue;
        };
        for (ssid, entries, bytes) in store.version_stats() {
            rows.push(vec![
                Value::str(&table),
                Value::Int(ssid.0 as i64),
                Value::Int(entries as i64),
                Value::Int(bytes as i64),
                Value::Int(committed.contains(&ssid) as i64),
            ]);
        }
    }
    rows
}

fn sys_faults_schema() -> Arc<Schema> {
    schema(vec![
        ("seq", DataType::Int),
        ("at_us", DataType::Int),
        ("point", DataType::Str),
        ("action", DataType::Str),
        ("operator", DataType::Str),
        ("instance", DataType::Int),
        ("ssid", DataType::Int),
        ("partition", DataType::Int),
        ("outcome", DataType::Str),
        ("detail", DataType::Str),
    ])
}

fn sys_faults_rows(grid: &Grid) -> Vec<Vec<Value>> {
    let Some(injector) = grid.fault_injector() else {
        return Vec::new();
    };
    injector
        .records()
        .into_iter()
        .map(|r| {
            vec![
                Value::Int(r.seq as i64),
                Value::Int(r.at_us as i64),
                Value::str(r.point.as_str()),
                Value::str(r.action.as_str()),
                opt_str(r.operator.as_deref()),
                r.instance
                    .map(|i| Value::Int(i as i64))
                    .unwrap_or(Value::Null),
                opt_u64(r.ssid),
                r.partition
                    .map(|p| Value::Int(p as i64))
                    .unwrap_or(Value::Null),
                Value::str(&r.outcome),
                Value::str(&r.detail),
            ]
        })
        .collect()
}

fn sys_spans_schema() -> Arc<Schema> {
    schema(vec![
        ("id", DataType::Int),
        ("parent", DataType::Int),
        ("kind", DataType::Str),
        ("operator", DataType::Str),
        ("start_us", DataType::Int),
        ("end_us", DataType::Int),
        ("duration_us", DataType::Int),
        ("labels", DataType::Str),
    ])
}

fn sys_spans_rows(registry: &MetricsRegistry) -> Vec<Vec<Value>> {
    registry
        .spans()
        .snapshot()
        .into_iter()
        .map(|s| {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            vec![
                Value::Int(s.id as i64),
                s.parent
                    .map(|p| Value::Int(p as i64))
                    .unwrap_or(Value::Null),
                Value::str(s.kind),
                opt_str(s.label("operator")),
                Value::Int(s.start_us as i64),
                Value::Int(s.end_us as i64),
                Value::Int(s.duration_us() as i64),
                Value::str(labels.join(",")),
            ]
        })
        .collect()
}

fn sys_partitions_schema() -> Arc<Schema> {
    schema(vec![
        ("table", DataType::Str),
        ("partition", DataType::Int),
        ("ssid", DataType::Int),
        ("rows", DataType::Int),
        ("bytes", DataType::Int),
        ("writes", DataType::Int),
        ("removes", DataType::Int),
    ])
}

/// One row per *non-empty* partition: live maps report write-path
/// accounting (`ssid` NULL), snapshot stores one row per committed version
/// with `writes`/`removes` NULL (a snapshot does not churn).
fn sys_partitions_rows(grid: &Grid) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for name in grid.map_names() {
        if name.starts_with("__") {
            continue;
        }
        let Some(map) = grid.get_map(&name) else {
            continue;
        };
        for (pid, s) in map.partition_stats().into_iter().enumerate() {
            if s == squery_storage::PartitionStats::default() {
                continue;
            }
            rows.push(vec![
                Value::str(&name),
                Value::Int(pid as i64),
                Value::Null,
                Value::Int(s.rows as i64),
                Value::Int(s.bytes as i64),
                Value::Int(s.writes as i64),
                Value::Int(s.removes as i64),
            ]);
        }
    }
    let committed = grid.registry().committed_ssids();
    for table in grid.snapshot_table_names() {
        let op = table.strip_prefix("snapshot_").unwrap_or(&table);
        if op.starts_with("__") {
            continue;
        }
        let Some(store) = grid.get_snapshot_store(op) else {
            continue;
        };
        for &ssid in &committed {
            let Ok(parts) = store.resolved_partition_stats(ssid) else {
                continue;
            };
            for (pid, (entries, bytes)) in parts.into_iter().enumerate() {
                if entries == 0 && bytes == 0 {
                    continue;
                }
                rows.push(vec![
                    Value::str(&table),
                    Value::Int(pid as i64),
                    Value::Int(ssid.0 as i64),
                    Value::Int(entries as i64),
                    Value::Int(bytes as i64),
                    Value::Null,
                    Value::Null,
                ]);
            }
        }
    }
    rows
}

fn sys_state_stats_schema() -> Arc<Schema> {
    schema(vec![
        ("table", DataType::Str),
        ("rows", DataType::Int),
        ("bytes", DataType::Int),
        ("writes", DataType::Int),
        ("removes", DataType::Int),
        ("write_rate_per_s", DataType::Float),
        ("remove_rate_per_s", DataType::Float),
        ("distinct_keys", DataType::Int),
        ("skew", DataType::Float),
        ("hot_keys", DataType::Int),
        ("samples", DataType::Int),
    ])
}

fn sys_state_stats_rows(stats: &crate::stats::StatsCatalog) -> Vec<Vec<Value>> {
    stats
        .snapshot()
        .into_iter()
        .map(|t| {
            vec![
                Value::str(&t.table),
                Value::Int(t.rows as i64),
                Value::Int(t.bytes as i64),
                Value::Int(t.writes as i64),
                Value::Int(t.removes as i64),
                Value::Float(t.write_rate_per_s),
                Value::Float(t.remove_rate_per_s),
                Value::Int(t.distinct_keys as i64),
                Value::Float(t.skew),
                Value::Int(t.hot_keys.len() as i64),
                Value::Int(t.samples as i64),
            ]
        })
        .collect()
}

fn sys_hot_keys_schema() -> Arc<Schema> {
    schema(vec![
        ("table", DataType::Str),
        ("key", DataType::Str),
        ("count", DataType::Int),
        ("error", DataType::Int),
        ("share", DataType::Float),
    ])
}

/// Heavy hitters per table, hottest first; `share` is the key's estimated
/// fraction of all writes observed since arming, `error` the SpaceSaving
/// overcount bound (true count ≥ count − error).
fn sys_hot_keys_rows(stats: &crate::stats::StatsCatalog) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for t in stats.snapshot() {
        let observed: u64 = t.hot_keys.iter().map(|h| h.count).sum();
        for h in &t.hot_keys {
            rows.push(vec![
                Value::str(&t.table),
                Value::str(h.key.to_string()),
                Value::Int(h.count as i64),
                Value::Int(h.error as i64),
                Value::Float(if observed == 0 {
                    0.0
                } else {
                    h.count as f64 / observed as f64
                }),
            ]);
        }
    }
    rows
}

fn sys_wal_schema() -> Arc<Schema> {
    schema(vec![
        ("store", DataType::Str),
        ("segments", DataType::Int),
        ("bytes", DataType::Int),
        ("sealed_min", DataType::Int),
        ("sealed_max", DataType::Int),
        ("last_compaction_us", DataType::Int),
        ("torn_truncations", DataType::Int),
    ])
}

/// One row per store with a WAL footprint; empty when the deployment runs
/// without a WAL directory. `store` joins with `sys_snapshots` through
/// `'snapshot_' || store`, and `sealed_min`/`sealed_max` bound the versions a
/// cold start could replay. `last_compaction_us` is 0 until a compaction has
/// rewritten one of the store's segments.
fn sys_wal_rows(grid: &Grid) -> Vec<Vec<Value>> {
    let Some(manager) = grid.wal() else {
        return Vec::new();
    };
    manager
        .store_stats()
        .into_iter()
        .map(|s| {
            vec![
                Value::str(&s.store),
                Value::Int(s.segments as i64),
                Value::Int(s.bytes as i64),
                opt_u64(s.sealed_min),
                opt_u64(s.sealed_max),
                Value::Int(s.last_compaction_us as i64),
                Value::Int(s.torn_truncations as i64),
            ]
        })
        .collect()
}

fn sys_watermarks_schema() -> Arc<Schema> {
    schema(vec![
        ("operator", DataType::Str),
        ("instance", DataType::Int),
        ("watermark_us", DataType::Int),
        ("lag_us", DataType::Int),
    ])
}

/// One row per operator instance that has advanced its event-time frontier:
/// `watermark_us` is the low watermark (every record the instance will ever
/// see carries `src_ts` at or above it) in µs since the unix epoch — the
/// workers rebase the gauge so it is comparable to persisted seal stamps —
/// and `lag_us` its distance behind epoch "now". Instances that never saw
/// a timestamped record have no row.
fn sys_watermarks_rows(registry: &MetricsRegistry) -> Vec<Vec<Value>> {
    let now = registry.clock().epoch_micros();
    let mut rows: Vec<(String, i64, u64)> = registry
        .gauges()
        .into_iter()
        .filter(|(key, value)| key.name == "watermark_us" && *value > 0)
        .map(|(key, value)| {
            (
                key.label("operator").unwrap_or("").to_string(),
                key.label("instance")
                    .and_then(|i| i.parse().ok())
                    .unwrap_or(0),
                value as u64,
            )
        })
        .collect();
    rows.sort();
    rows.into_iter()
        .map(|(operator, instance, wm)| {
            vec![
                Value::str(&operator),
                Value::Int(instance),
                Value::Int(wm as i64),
                Value::Int(now.saturating_sub(wm) as i64),
            ]
        })
        .collect()
}

fn sys_freshness_schema() -> Arc<Schema> {
    schema(vec![
        ("ssid", DataType::Int),
        ("watermark_us", DataType::Int),
        ("sealed_at_us", DataType::Int),
        ("staleness_us", DataType::Int),
        ("lag_vs_live_us", DataType::Int),
    ])
}

/// One row per retained committed snapshot. `staleness_us` bounds how far
/// behind real time a query pinned to the snapshot reads: epoch "now" minus
/// the snapshot's global low watermark (falling back to seal time when the
/// round carried no watermark, NULL when neither is known — pre-watermark
/// WAL history recovers that way). Freshness stamps are persisted in the
/// unix-epoch domain, so this subtraction stays a true age even for
/// snapshots recovered from a previous process. `lag_vs_live_us` compares
/// against the slowest *live* frontier instead, so it stays meaningful
/// while ingestion is paused.
fn sys_freshness_rows(grid: &Grid) -> Vec<Vec<Value>> {
    let registry = grid.telemetry();
    let now = registry.clock().epoch_micros();
    let live_frontier = registry
        .gauges()
        .into_iter()
        .filter(|(key, value)| key.name == "watermark_us" && *value > 0)
        .map(|(_, value)| value as u64)
        .min();
    grid.registry()
        .freshness_all()
        .into_iter()
        .map(|(ssid, f)| {
            let staleness = if f.watermark_us > 0 {
                Some(now.saturating_sub(f.watermark_us))
            } else if f.sealed_at_us > 0 {
                Some(now.saturating_sub(f.sealed_at_us))
            } else {
                None
            };
            let lag_vs_live = match live_frontier {
                Some(live) if f.watermark_us > 0 => Some(live.saturating_sub(f.watermark_us)),
                _ => None,
            };
            vec![
                Value::Int(ssid.0 as i64),
                if f.watermark_us > 0 {
                    Value::Int(f.watermark_us as i64)
                } else {
                    Value::Null
                },
                if f.sealed_at_us > 0 {
                    Value::Int(f.sealed_at_us as i64)
                } else {
                    Value::Null
                },
                opt_u64(staleness),
                opt_u64(lag_vs_live),
            ]
        })
        .collect()
}

fn sys_query_log_schema() -> Arc<Schema> {
    schema(vec![
        ("seq", DataType::Int),
        ("sql", DataType::Str),
        ("status", DataType::Str),
        ("rows", DataType::Int),
        ("parse_us", DataType::Int),
        ("plan_us", DataType::Int),
        ("exec_us", DataType::Int),
        ("total_us", DataType::Int),
        ("dop", DataType::Int),
        ("started_at_us", DataType::Int),
    ])
}

fn sys_query_log_rows(log: &QueryLog) -> Vec<Vec<Value>> {
    log.snapshot()
        .into_iter()
        .map(|e| {
            vec![
                Value::Int(e.seq as i64),
                Value::str(&e.sql),
                Value::str(&e.status),
                Value::Int(e.rows as i64),
                Value::Int(e.parse_us as i64),
                Value::Int(e.plan_us as i64),
                Value::Int(e.exec_us as i64),
                Value::Int(e.total_us as i64),
                Value::Int(e.dop as i64),
                Value::Int(e.started_at_us as i64),
            ]
        })
        .collect()
}

/// Register the fourteen `sys_*` tables in `catalog`.
pub(crate) fn register_sys_tables(
    catalog: &GridCatalog,
    grid: Arc<Grid>,
    jobs: JobLog,
    query_log: QueryLog,
) {
    let metric_grid = Arc::clone(&grid);
    catalog.register(Arc::new(SysTable::new(
        "sys_metrics",
        sys_metrics_schema(),
        Arc::new(move || sys_metrics_rows(metric_grid.telemetry())),
    )) as Arc<dyn Table>);
    let event_grid = Arc::clone(&grid);
    catalog.register(Arc::new(SysTable::new(
        "sys_events",
        sys_events_schema(),
        Arc::new(move || sys_events_rows(event_grid.telemetry())),
    )));
    let op_grid = Arc::clone(&grid);
    catalog.register(Arc::new(SysTable::new(
        "sys_operators",
        sys_operators_schema(),
        Arc::new(move || sys_operators_rows(&op_grid)),
    )));
    catalog.register(Arc::new(SysTable::new(
        "sys_checkpoints",
        sys_checkpoints_schema(),
        Arc::new(move || sys_checkpoints_rows(&jobs)),
    )));
    let fault_grid = Arc::clone(&grid);
    catalog.register(Arc::new(SysTable::new(
        "sys_faults",
        sys_faults_schema(),
        Arc::new(move || sys_faults_rows(&fault_grid)),
    )));
    let span_grid = Arc::clone(&grid);
    catalog.register(Arc::new(SysTable::new(
        "sys_spans",
        sys_spans_schema(),
        Arc::new(move || sys_spans_rows(span_grid.telemetry())),
    )));
    catalog.register(Arc::new(SysTable::new(
        "sys_query_log",
        sys_query_log_schema(),
        Arc::new(move || sys_query_log_rows(&query_log)),
    )));
    let part_grid = Arc::clone(&grid);
    catalog.register(Arc::new(SysTable::new(
        "sys_partitions",
        sys_partitions_schema(),
        Arc::new(move || sys_partitions_rows(&part_grid)),
    )));
    let state_stats = crate::stats::StatsCatalog::new(Arc::clone(&grid));
    catalog.register(Arc::new(SysTable::new(
        "sys_state_stats",
        sys_state_stats_schema(),
        Arc::new(move || sys_state_stats_rows(&state_stats)),
    )));
    let hot_stats = crate::stats::StatsCatalog::new(Arc::clone(&grid));
    catalog.register(Arc::new(SysTable::new(
        "sys_hot_keys",
        sys_hot_keys_schema(),
        Arc::new(move || sys_hot_keys_rows(&hot_stats)),
    )));
    let wal_grid = Arc::clone(&grid);
    catalog.register(Arc::new(SysTable::new(
        "sys_wal",
        sys_wal_schema(),
        Arc::new(move || sys_wal_rows(&wal_grid)),
    )));
    let wm_grid = Arc::clone(&grid);
    catalog.register(Arc::new(SysTable::new(
        "sys_watermarks",
        sys_watermarks_schema(),
        Arc::new(move || sys_watermarks_rows(wm_grid.telemetry())),
    )));
    let fresh_grid = Arc::clone(&grid);
    catalog.register(Arc::new(SysTable::new(
        "sys_freshness",
        sys_freshness_schema(),
        Arc::new(move || sys_freshness_rows(&fresh_grid)),
    )));
    catalog.register(Arc::new(SysTable::new(
        "sys_snapshots",
        sys_snapshots_schema(),
        Arc::new(move || sys_snapshots_rows(&grid)),
    )));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SQueryConfig;
    use crate::system::SQuery;
    use squery_common::SnapshotId;

    fn populated_system() -> SQuery {
        let system = SQuery::new(SQueryConfig::default()).unwrap();
        let grid = system.grid();
        let live = grid.map("orders");
        live.put(Value::Int(1), Value::str("x"));
        live.put(Value::Int(2), Value::str("y"));
        let store = grid.snapshot_store("orders");
        let ssid = grid.registry().begin().unwrap();
        store.write_partition(
            ssid,
            store.partition_of(&Value::Int(1)),
            vec![(Value::Int(1), Some(Value::str("x")))],
            true,
        );
        grid.registry().commit(ssid).unwrap();
        system
    }

    #[test]
    fn sys_metrics_reports_live_counters() {
        let system = populated_system();
        let rs = system
            .query("SELECT value FROM sys_metrics WHERE name = 'map_writes_total'")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(2)]]);
        // Histograms expose percentiles, not a scalar value.
        let rs = system
            .query(
                "SELECT count FROM sys_metrics \
                 WHERE name = 'map_write_us' AND kind = 'histogram'",
            )
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(2)]]);
    }

    #[test]
    fn sys_operators_matches_overview() {
        let system = populated_system();
        let rs = system
            .query(
                "SELECT live_entries, snapshot_versions FROM sys_operators \
                 WHERE operator = 'orders'",
            )
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(2), Value::Int(1)]]);
        let overview = system.overview();
        assert_eq!(overview.operators[0].live_entries, Some(2));
    }

    #[test]
    fn sys_snapshots_lists_versions_with_commit_flag() {
        let system = populated_system();
        let rs = system
            .query(
                "SELECT store, ssid, committed FROM sys_snapshots \
                 WHERE entries > 0",
            )
            .unwrap();
        assert_eq!(
            rs.rows(),
            &[vec![
                Value::str("snapshot_orders"),
                Value::Int(1),
                Value::Int(1)
            ]]
        );
        let _ = SnapshotId(1);
    }

    #[test]
    fn sys_events_capture_queries_against_the_engine() {
        let system = populated_system();
        // The metrics query itself lands in the event log, so a second
        // query over sys_events can observe the first.
        system
            .query("SELECT name FROM sys_metrics LIMIT 1")
            .unwrap();
        let rs = system
            .query("SELECT COUNT(*) AS n FROM sys_events WHERE kind = 'query_started'")
            .unwrap();
        assert!(
            rs.scalar("n").unwrap().as_int().unwrap() >= 1,
            "prior query_started event visible"
        );
    }

    #[test]
    fn sys_query_log_records_engine_queries() {
        let system = populated_system();
        system
            .query("SELECT name FROM sys_metrics LIMIT 1")
            .unwrap();
        assert!(system.query("SELECT nope FROM orders").is_err());
        let rs = system
            .query("SELECT seq, sql, status, rows, dop FROM sys_query_log ORDER BY seq")
            .unwrap();
        assert_eq!(
            rs.rows()[0][1],
            Value::str("SELECT name FROM sys_metrics LIMIT 1")
        );
        assert_eq!(rs.rows()[0][2], Value::str("ok"));
        assert_eq!(rs.rows()[0][3], Value::Int(1));
        assert!(
            rs.rows()[1][2].to_string().starts_with("error:"),
            "{:?}",
            rs.rows()[1]
        );
    }

    #[test]
    fn sys_spans_exposes_explain_analyze_profiles() {
        let system = populated_system();
        assert!(!system.config().tracing, "untraced deployment");
        let rs = system
            .query("EXPLAIN ANALYZE SELECT partitionKey FROM orders")
            .unwrap();
        assert!(
            rs.rows()
                .iter()
                .any(|r| r[0].to_string().contains("rows=2")),
            "{rs}"
        );
        // The forced profile landed in sys_spans: one query root, the scan's
        // per-unit slice children nested under it.
        let root = system
            .query("SELECT id FROM sys_spans WHERE kind = 'query'")
            .unwrap();
        let root_id = root.rows()[0][0].clone();
        let children = system
            .query("SELECT parent, duration_us FROM sys_spans WHERE kind = 'slice'")
            .unwrap();
        assert!(!children.is_empty());
        for child in children.rows() {
            assert_eq!(child[0], root_id);
        }
    }

    #[test]
    fn traced_deployment_spans_every_query() {
        let system = SQuery::new(SQueryConfig::default().with_tracing(true)).unwrap();
        system
            .query("SELECT COUNT(*) AS n FROM sys_events")
            .unwrap();
        let rs = system
            .query("SELECT COUNT(*) AS n FROM sys_spans WHERE kind = 'query'")
            .unwrap();
        assert!(rs.scalar("n").unwrap().as_int().unwrap() >= 1);
    }

    #[test]
    fn sys_partitions_covers_live_and_snapshot_state() {
        let system = populated_system();
        // Two live keys in distinct partitions plus one snapshot entry.
        let rs = system
            .query(
                "SELECT COUNT(*) AS n, SUM(rows) AS r FROM sys_partitions \
                 WHERE table = 'orders'",
            )
            .unwrap();
        assert_eq!(rs.scalar("n"), Some(&Value::Int(2)));
        assert_eq!(rs.scalar("r"), Some(&Value::Int(2)));
        let rs = system
            .query(
                "SELECT ssid, rows FROM sys_partitions \
                 WHERE table = 'snapshot_orders'",
            )
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(1), Value::Int(1)]]);
        // Live rows carry NULL ssid.
        let rs = system
            .query("SELECT COUNT(*) AS n FROM sys_partitions WHERE ssid IS NULL")
            .unwrap();
        assert_eq!(rs.scalar("n"), Some(&Value::Int(2)));
    }

    #[test]
    fn sys_state_stats_and_hot_keys_follow_sampling() {
        let system = populated_system();
        system.grid().arm_stats(true);
        let map = system.grid().map("orders");
        for i in 0..50 {
            map.put(Value::Int(i % 10), Value::Int(i));
        }
        let rs = system
            .query("SELECT samples FROM sys_state_stats WHERE table = 'orders'")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(0)]], "no sample yet");
        system.sample_stats_now();
        let rs = system
            .query(
                "SELECT distinct_keys, hot_keys FROM sys_state_stats \
                 WHERE table = 'orders'",
            )
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(10));
        assert!(rs.rows()[0][1].as_int().unwrap() >= 1);
        let rs = system
            .query(
                "SELECT table, count FROM sys_hot_keys \
                 WHERE table = 'orders' ORDER BY count DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::str("orders"));
        assert!(rs.rows()[0][1].as_int().unwrap() >= 5);
    }

    #[test]
    fn sys_wal_is_empty_without_a_wal_directory() {
        let system = SQuery::new(SQueryConfig::default()).unwrap();
        let rs = system.query("SELECT COUNT(*) AS n FROM sys_wal").unwrap();
        assert_eq!(rs.scalar("n"), Some(&Value::Int(0)));
    }

    #[test]
    fn sys_wal_reports_segments_and_joins_sys_snapshots() {
        let dir = std::env::temp_dir().join(format!(
            "squery-syswal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let system = SQuery::new(SQueryConfig::default().with_wal_dir(&dir)).unwrap();
        let grid = system.grid();
        let store = grid.snapshot_store("orders");
        let ssid = grid.registry().begin().unwrap();
        store.write_partition(
            ssid,
            store.partition_of(&Value::Int(1)),
            vec![(Value::Int(1), Some(Value::str("x")))],
            true,
        );
        grid.wal_seal(ssid).unwrap();
        grid.registry().commit(ssid).unwrap();
        let rs = system
            .query(
                "SELECT segments, sealed_min, sealed_max, torn_truncations \
                 FROM sys_wal WHERE store = 'orders'",
            )
            .unwrap();
        assert_eq!(
            rs.rows(),
            &[vec![
                Value::Int(1),
                Value::Int(1),
                Value::Int(1),
                Value::Int(0)
            ]]
        );
        assert!(
            rs.rows()[0][0].as_int().unwrap() >= 1,
            "one partition segment on disk"
        );
        // The commit's WAL time is split out: one timed phase-1 append.
        let rs = system
            .query("SELECT count FROM sys_metrics WHERE name = 'wal_append_us'")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(1)]]);
        // Joinable with sys_snapshots: the sealed range bounds the versions
        // a cold start replays, which are exactly the retained ones.
        let rs = system
            .query(
                "SELECT s.store, s.entries FROM sys_wal w \
                 JOIN sys_snapshots s ON s.ssid = w.sealed_max \
                 WHERE w.store = 'orders'",
            )
            .unwrap();
        assert_eq!(
            rs.rows(),
            &[vec![Value::str("snapshot_orders"), Value::Int(1)]]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sys_watermarks_reports_instance_frontiers_and_lag() {
        let system = populated_system();
        let tel = system.grid().telemetry();
        // The registry clock's zero is system creation, so tiny frontiers
        // are guaranteed to sit behind "now".
        tel.gauge("watermark_us", &[("instance", "0"), ("operator", "bids")])
            .set(10);
        tel.gauge("watermark_us", &[("instance", "1"), ("operator", "bids")])
            .set(20);
        let rs = system
            .query(
                "SELECT operator, instance, watermark_us FROM sys_watermarks \
                 ORDER BY instance",
            )
            .unwrap();
        assert_eq!(
            rs.rows(),
            &[
                vec![Value::str("bids"), Value::Int(0), Value::Int(10)],
                vec![Value::str("bids"), Value::Int(1), Value::Int(20)],
            ]
        );
        // Lag is measured against the registry's own clock, so it is always
        // at least wall-now minus the frontier.
        let rs = system
            .query("SELECT COUNT(*) AS n FROM sys_watermarks WHERE lag_us > 0")
            .unwrap();
        assert_eq!(rs.scalar("n"), Some(&Value::Int(2)));
    }

    #[test]
    fn sys_freshness_bounds_committed_snapshot_staleness() {
        let system = populated_system();
        let grid = system.grid();
        // Freshness stamps live in the unix-epoch domain; fabricate a seal
        // 5 ms stale against epoch "now".
        let now = grid.telemetry().clock().epoch_micros();
        let ssid = grid.registry().begin().unwrap();
        grid.registry()
            .commit_with_freshness(
                ssid,
                squery_storage::SnapshotFreshness {
                    watermark_us: now.saturating_sub(5_000),
                    sealed_at_us: now,
                },
            )
            .unwrap();
        let rs = system
            .query(
                "SELECT ssid, staleness_us, lag_vs_live_us FROM sys_freshness \
                 ORDER BY ssid",
            )
            .unwrap();
        // Two committed rounds: the helper's (pre-watermark, all-zero
        // freshness → NULL staleness) and ours, at least 5 ms stale.
        assert_eq!(rs.rows().len(), 2);
        assert_eq!(rs.rows()[0][1], Value::Null);
        assert!(rs.rows()[1][1].as_int().unwrap() >= 5_000, "{rs}");
        // No live frontier gauges in this deployment → NULL lag_vs_live.
        assert_eq!(rs.rows()[1][2], Value::Null);
        // With a live frontier published, the snapshot's lag against it is
        // the frontier delta, independent of the wall clock.
        grid.telemetry()
            .gauge("watermark_us", &[("instance", "0"), ("operator", "bids")])
            .set(now as i64);
        let rs = system
            .query("SELECT lag_vs_live_us FROM sys_freshness WHERE staleness_us >= 0")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(5_000)]]);
    }

    /// The review's cold-start failure mode: freshness stamps must be
    /// unix-epoch values, so a restarted process reports a recovered
    /// snapshot's *true* age — not ~0 against its own freshly-zeroed clock.
    #[test]
    fn sys_freshness_staleness_survives_cold_start_as_true_age() {
        let dir = std::env::temp_dir().join(format!(
            "squery-coldfresh-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (ssid, sealed_wm) = {
            // Incarnation 1: seal a round whose watermark already lags epoch
            // "now" by 10 ms, exactly as the coordinator stamps it.
            let system = SQuery::new(SQueryConfig::default().with_wal_dir(&dir)).unwrap();
            let grid = system.grid();
            let store = grid.snapshot_store("orders");
            let ssid = grid.registry().begin().unwrap();
            store.write_partition(
                ssid,
                store.partition_of(&Value::Int(1)),
                vec![(Value::Int(1), Some(Value::str("x")))],
                true,
            );
            let now = grid.telemetry().clock().epoch_micros();
            let wm = now.saturating_sub(10_000);
            grid.wal_seal_with(ssid, wm, now).unwrap();
            grid.registry().commit(ssid).unwrap();
            (ssid, wm)
        };
        // Incarnation 2: a brand-new process-equivalent (fresh clocks) whose
        // cold start recovers the sealed round from the WAL.
        let system = SQuery::new(SQueryConfig::default().with_wal_dir(&dir)).unwrap();
        let rs = system
            .query("SELECT ssid, watermark_us, staleness_us FROM sys_freshness")
            .unwrap();
        assert_eq!(rs.rows().len(), 1);
        assert_eq!(rs.rows()[0][0], Value::Int(ssid.0 as i64));
        // The persisted watermark survives verbatim…
        assert_eq!(rs.rows()[0][1], Value::Int(sealed_wm as i64));
        // …and its staleness reads as at least the age it had at the seal,
        // not the near-zero a process-relative stamp would produce (small
        // slack for the two incarnations' epoch-anchor sampling).
        assert!(
            rs.rows()[0][2].as_int().unwrap() >= 9_000,
            "recovered staleness is a true age: {rs}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sys_events_ring_stays_bounded_at_event_capacity() {
        let system = SQuery::new(SQueryConfig::default().with_event_capacity(4)).unwrap();
        for _ in 0..6 {
            system
                .query("SELECT name FROM sys_metrics LIMIT 1")
                .unwrap();
        }
        let rs = system
            .query("SELECT COUNT(*) AS n, MIN(seq) AS oldest FROM sys_events")
            .unwrap();
        assert!(
            rs.scalar("n").unwrap().as_int().unwrap() <= 4,
            "ring bounded: {rs}"
        );
        // More events were recorded than retained, so the oldest surviving
        // sequence number has moved past the first few.
        assert!(
            rs.scalar("oldest").unwrap().as_int().unwrap() > 1,
            "oldest events dropped: {rs}"
        );
    }

    #[test]
    fn sys_tables_are_listed_in_the_catalog() {
        let system = SQuery::new(SQueryConfig::default()).unwrap();
        let rs = system
            .query("SELECT COUNT(*) AS n FROM sys_checkpoints")
            .unwrap();
        assert_eq!(rs.scalar("n"), Some(&Value::Int(0)), "no jobs yet");
        let rs = system
            .query("SELECT COUNT(*) AS n FROM sys_events")
            .unwrap();
        assert!(rs.scalar("n").unwrap().as_int().unwrap() >= 0);
    }
}
