//! The SQL entry point and result sets.

use crate::ast::Statement;
use crate::catalog::{Catalog, ExecContext, ExecTrace, SsidMode};
use crate::exec::execute;
use crate::explain::{render_plan, render_plan_analyzed};
use crate::parser::parse_statement;
use crate::plan::plan;
use parking_lot::Mutex;
use squery_common::config::Parallelism;
use squery_common::metrics::SharedHistogram;
use squery_common::schema::{schema, Schema};
use squery_common::telemetry::{Counter, EventKind, MetricsRegistry};
use squery_common::time::Clock;
use squery_common::trace::SpanCollector;
use squery_common::{DataType, SqResult, Value};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A query result: schema plus rows.
#[derive(Clone, Debug)]
pub struct ResultSet {
    schema: Arc<Schema>,
    rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Build a result set (row arity is trusted to match the schema).
    pub fn new(schema: Arc<Schema>, rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet { schema, rows }
    }

    /// Output schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All values of the named column.
    pub fn column(&self, name: &str) -> Option<Vec<Value>> {
        let i = self.schema.index_of(name)?;
        Some(self.rows.iter().map(|r| r[i].clone()).collect())
    }

    /// The single value of a one-row result, by column name.
    pub fn scalar(&self, name: &str) -> Option<&Value> {
        if self.rows.len() != 1 {
            return None;
        }
        let i = self.schema.index_of(name)?;
        self.rows.first().map(|r| &r[i])
    }

    /// Rows sorted by total value order (handy for order-insensitive asserts).
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self
            .schema
            .fields()
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        writeln!(f, "{}", names.join(" | "))?;
        writeln!(f, "{}", "-".repeat(names.join(" | ").len().max(4)))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        write!(f, "({} rows)", self.rows.len())
    }
}

/// Default number of entries the query log retains.
pub const DEFAULT_QUERY_LOG_CAPACITY: usize = 1024;

/// One completed (or failed) query, as exposed by `sys_query_log`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// Monotonic sequence number (assigned at record time).
    pub seq: u64,
    /// SQL text, truncated to the event prefix length.
    pub sql: String,
    /// `"ok"` or `"error: …"`.
    pub status: String,
    /// Result rows (0 on error).
    pub rows: u64,
    /// Parse phase wall time.
    pub parse_us: u64,
    /// Plan phase wall time.
    pub plan_us: u64,
    /// Execute phase wall time (0 on error or plain `EXPLAIN`).
    pub exec_us: u64,
    /// End-to-end wall time inside the engine.
    pub total_us: u64,
    /// Degree of parallelism the query ran with.
    pub dop: u64,
    /// Engine-clock microsecond timestamp at query start.
    pub started_at_us: u64,
}

struct QueryLogState {
    next_seq: u64,
    capacity: usize,
    entries: VecDeque<QueryLogEntry>,
}

/// A bounded, shareable ring of per-query records — the backing store of the
/// `sys_query_log` virtual table. Oldest entries are evicted at capacity.
#[derive(Clone)]
pub struct QueryLog {
    inner: Arc<Mutex<QueryLogState>>,
}

impl QueryLog {
    /// A log retaining up to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> QueryLog {
        QueryLog {
            inner: Arc::new(Mutex::new(QueryLogState {
                next_seq: 0,
                capacity: capacity.max(1),
                entries: VecDeque::new(),
            })),
        }
    }

    /// Record one query, assigning its sequence number.
    pub fn record(&self, mut entry: QueryLogEntry) {
        let mut state = self.inner.lock();
        entry.seq = state.next_seq;
        state.next_seq += 1;
        if state.entries.len() == state.capacity {
            state.entries.pop_front();
        }
        state.entries.push_back(entry);
    }

    /// All retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<QueryLogEntry> {
        self.inner.lock().entries.iter().cloned().collect()
    }
}

impl Default for QueryLog {
    fn default() -> Self {
        QueryLog::new(DEFAULT_QUERY_LOG_CAPACITY)
    }
}

/// Per-engine query telemetry handles, resolved once at attach time.
struct EngineTelemetry {
    queries: Counter,
    query_errors: Counter,
    rows_scanned: Counter,
    rows_returned: Counter,
    parse_us: SharedHistogram,
    plan_us: SharedHistogram,
    exec_us: SharedHistogram,
    parallel_workers: SharedHistogram,
    worker_scan_us: SharedHistogram,
    registry: MetricsRegistry,
}

/// Longest SQL prefix kept in `query_started`/`query_finished` event details.
const EVENT_SQL_PREFIX: usize = 120;

fn sql_prefix(sql: &str) -> String {
    let trimmed = sql.trim();
    let mut end = trimmed.len().min(EVENT_SQL_PREFIX);
    while !trimmed.is_char_boundary(end) {
        end -= 1;
    }
    if end < trimmed.len() {
        format!("{}…", &trimmed[..end])
    } else {
        trimmed.to_string()
    }
}

/// The SQL engine: parse → plan → execute against a catalog.
pub struct SqlEngine<C: Catalog> {
    catalog: C,
    clock: Clock,
    telemetry: Option<EngineTelemetry>,
    parallelism: Parallelism,
    query_log: Option<QueryLog>,
}

impl<C: Catalog> SqlEngine<C> {
    /// An engine over `catalog` with a wall clock for `LOCALTIMESTAMP`.
    pub fn new(catalog: C) -> SqlEngine<C> {
        SqlEngine {
            catalog,
            clock: Clock::wall(),
            telemetry: None,
            parallelism: Parallelism::sequential(),
            query_log: None,
        }
    }

    /// An engine with an explicit clock (deterministic tests).
    pub fn with_clock(catalog: C, clock: Clock) -> SqlEngine<C> {
        SqlEngine {
            catalog,
            clock,
            telemetry: None,
            parallelism: Parallelism::sequential(),
            query_log: None,
        }
    }

    /// Record every query (including failures) into `log`.
    pub fn with_query_log(mut self, log: QueryLog) -> SqlEngine<C> {
        self.query_log = Some(log);
        self
    }

    /// Set the default degree of parallelism for every query this engine
    /// runs (overridable per query via [`SqlEngine::query_with_dop`]).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> SqlEngine<C> {
        self.parallelism = parallelism;
        self
    }

    /// The engine's default parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Attach a metrics registry: per-phase latency histograms
    /// (`query_parse_us`/`query_plan_us`/`query_exec_us`), query and row
    /// counters, and `query_started`/`query_finished` events.
    pub fn with_telemetry(mut self, registry: &MetricsRegistry) -> SqlEngine<C> {
        self.telemetry = Some(EngineTelemetry {
            queries: registry.counter("queries_total", &[]),
            query_errors: registry.counter("query_errors_total", &[]),
            rows_scanned: registry.counter("query_rows_scanned_total", &[]),
            rows_returned: registry.counter("query_rows_returned_total", &[]),
            parse_us: registry.histogram("query_parse_us", &[]),
            plan_us: registry.histogram("query_plan_us", &[]),
            exec_us: registry.histogram("query_exec_us", &[]),
            parallel_workers: registry.histogram("sql_parallel_workers", &[]),
            worker_scan_us: registry.histogram("sql_worker_scan_us", &[]),
            registry: registry.clone(),
        });
        self
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &C {
        &self.catalog
    }

    /// Run one `SELECT` statement.
    ///
    /// The snapshot context (latest committed id + retained ids) and
    /// `LOCALTIMESTAMP` are captured once, before execution, so every table
    /// in the query reads one consistent snapshot.
    pub fn query(&self, sql: &str) -> SqResult<ResultSet> {
        self.query_at(sql, self.parallelism, true)
    }

    /// Run one `SELECT` with an explicit degree of parallelism, overriding
    /// the engine default for this query only. `dop == 1` runs every morsel
    /// on the calling thread; the morsel size is inherited from the engine
    /// default.
    pub fn query_with_dop(&self, sql: &str, dop: usize) -> SqResult<ResultSet> {
        self.query_at(
            sql,
            Parallelism {
                degree: dop.max(1),
                ..self.parallelism
            },
            true,
        )
    }

    /// Run one `SELECT` on the sequential row reference instead of the
    /// columnar driver: the oracle the equivalence tests compare every
    /// DOP's output against.
    pub fn query_reference(&self, sql: &str) -> SqResult<ResultSet> {
        self.query_at(
            sql,
            Parallelism {
                degree: 1,
                ..self.parallelism
            },
            false,
        )
    }

    fn query_at(
        &self,
        sql: &str,
        parallelism: Parallelism,
        vectorized: bool,
    ) -> SqResult<ResultSet> {
        match &self.telemetry {
            None => self.run(sql, None, parallelism, vectorized),
            Some(tel) => {
                tel.queries.inc();
                tel.parallel_workers.record(parallelism.degree as u64);
                tel.registry
                    .event(EventKind::QueryStarted, None, None, None, sql_prefix(sql));
                let started = Instant::now();
                let result = self.run(sql, Some(tel), parallelism, vectorized);
                let elapsed = started.elapsed().as_micros() as u64;
                match &result {
                    Ok(rs) => {
                        tel.rows_returned.add(rs.len() as u64);
                        tel.registry.event(
                            EventKind::QueryFinished,
                            None,
                            None,
                            Some(elapsed),
                            format!("{} rows", rs.len()),
                        );
                    }
                    Err(e) => {
                        tel.query_errors.inc();
                        tel.registry.event(
                            EventKind::QueryFinished,
                            None,
                            None,
                            Some(elapsed),
                            format!("error: {e}"),
                        );
                    }
                }
                result
            }
        }
    }

    fn run(
        &self,
        sql: &str,
        tel: Option<&EngineTelemetry>,
        parallelism: Parallelism,
        vectorized: bool,
    ) -> SqResult<ResultSet> {
        let started_at_us = self.clock.now_micros();
        let t0 = Instant::now();
        let mut phases = Phases::default();
        let result = self.run_statement(sql, tel, parallelism, vectorized, &mut phases);
        if let Some(log) = &self.query_log {
            let (status, rows) = match &result {
                Ok(rs) => ("ok".to_string(), rs.len() as u64),
                Err(e) => (format!("error: {e}"), 0),
            };
            log.record(QueryLogEntry {
                seq: 0,
                sql: sql_prefix(sql),
                status,
                rows,
                parse_us: phases.parse_us,
                plan_us: phases.plan_us,
                exec_us: phases.exec_us,
                total_us: t0.elapsed().as_micros() as u64,
                dop: parallelism.degree as u64,
                started_at_us,
            });
        }
        result
    }

    fn run_statement(
        &self,
        sql: &str,
        tel: Option<&EngineTelemetry>,
        parallelism: Parallelism,
        vectorized: bool,
        phases: &mut Phases,
    ) -> SqResult<ResultSet> {
        let t0 = Instant::now();
        let stmt = parse_statement(sql)?;
        let t1 = Instant::now();
        phases.parse_us = (t1 - t0).as_micros() as u64;
        let (explain, analyze, ast) = match stmt {
            Statement::Select(q) => (false, false, q),
            Statement::Explain { analyze, query } => (true, analyze, query),
        };
        let physical = plan(&ast, &self.catalog)?;
        let t2 = Instant::now();
        phases.plan_us = (t2 - t1).as_micros() as u64;

        if explain && !analyze {
            if let Some(t) = tel {
                t.parse_us.record(phases.parse_us);
                t.plan_us.record(phases.plan_us);
                t.exec_us.record(0);
            }
            return Ok(plan_result(render_plan(&physical)));
        }

        // A traced query (collector enabled) gets a root "query" span; an
        // `EXPLAIN ANALYZE` gets a *forced* one that records even while the
        // deployment is untraced — into the shared collector when the engine
        // has telemetry (so `sys_spans` sees the profile), else a throwaway.
        let trace_root = if analyze {
            let collector = tel
                .map(|t| t.registry.spans().clone())
                .unwrap_or_else(|| SpanCollector::new(self.clock.clone()));
            let mut root = collector.forced("query", None);
            root.label("sql", sql_prefix(sql));
            root.label("dop", parallelism.degree);
            let id = root.id().expect("forced span is active");
            Some((ExecTrace::new(collector, id, true), root))
        } else {
            tel.map(|t| t.registry.spans().clone())
                .filter(|c| c.is_enabled())
                .and_then(|collector| {
                    let mut root = collector.start("query");
                    root.label("sql", sql_prefix(sql));
                    root.label("dop", parallelism.degree);
                    root.id()
                        .map(|id| (ExecTrace::new(collector, id, false), root))
                })
        };

        let (query_ssid, retained_ssids) = self.catalog.snapshot_context();
        let ctx = ExecContext {
            query_ssid,
            retained_ssids,
            now_micros: self.clock.now_micros() as i64,
            rows_scanned: tel.map(|t| t.rows_scanned.clone()),
            parallelism,
            worker_scan_us: tel.map(|t| t.worker_scan_us.clone()),
            trace: trace_root.as_ref().map(|(t, _)| t.clone()),
            vectorized,
        };
        let exec_result = execute(&physical, &ctx);
        phases.exec_us = t2.elapsed().as_micros() as u64;
        let rows = match exec_result {
            Ok(rows) => rows,
            Err(e) => {
                if let Some((_, mut root)) = trace_root {
                    root.label("error", &e);
                }
                return Err(e);
            }
        };
        if let Some(t) = tel {
            t.parse_us.record(phases.parse_us);
            t.plan_us.record(phases.plan_us);
            t.exec_us.record(phases.exec_us);
        }
        if let Some((trace, mut root)) = trace_root {
            root.label("rows", rows.len());
            drop(root);
            if analyze {
                // Per-scan staleness bounds: every snapshot scan reports how
                // far behind real time the version it pinned reads. An
                // ssid-range scan reads several versions; its result is as
                // fresh as the latest one, so that bound annotates it.
                let mut staleness = std::collections::BTreeMap::new();
                for (i, scan) in physical.scans.iter().enumerate() {
                    if !scan.table.is_snapshot() {
                        continue;
                    }
                    let ssid = match scan.hints.ssid {
                        SsidMode::Exact(s) => Some(s),
                        SsidMode::Latest | SsidMode::AllRetained => ctx.query_ssid,
                    };
                    if let Some(st) = ssid.and_then(|s| self.catalog.snapshot_staleness_us(s)) {
                        staleness.insert(format!("scan{i}"), st);
                    }
                }
                return Ok(plan_result(render_plan_analyzed(
                    &physical,
                    &trace.stats(),
                    &staleness,
                )));
            }
        }
        Ok(ResultSet::new(Arc::clone(&physical.output_schema), rows))
    }
}

/// Per-query phase timings, captured for the query log.
#[derive(Default)]
struct Phases {
    parse_us: u64,
    plan_us: u64,
    exec_us: u64,
}

/// An `EXPLAIN` result: one `plan` text column, one row per plan line.
fn plan_result(lines: Vec<String>) -> ResultSet {
    let schema = schema(vec![("plan", DataType::Str)]);
    let rows = lines.into_iter().map(|l| vec![Value::str(l)]).collect();
    ResultSet::new(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemCatalog, MemTable, Table};
    use squery_common::schema::schema;
    use squery_common::DataType;

    fn engine() -> SqlEngine<MemCatalog> {
        let t = schema(vec![("a", DataType::Int), ("b", DataType::Str)]);
        let rows = vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(2), Value::str("y")],
        ];
        SqlEngine::new(MemCatalog::new(vec![Arc::new(MemTable::new("t", t, rows))]))
    }

    #[test]
    fn end_to_end_query() {
        let rs = engine().query("SELECT a FROM t WHERE b = 'y'").unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(2)]]);
        assert_eq!(rs.len(), 1);
        assert!(!rs.is_empty());
    }

    #[test]
    fn column_and_scalar_accessors() {
        let rs = engine().query("SELECT a, b FROM t").unwrap();
        assert_eq!(rs.column("a").unwrap(), vec![Value::Int(1), Value::Int(2)]);
        assert!(rs.column("nope").is_none());
        assert!(rs.scalar("a").is_none(), "two rows: no scalar");
        let rs = engine().query("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(rs.scalar("n"), Some(&Value::Int(2)));
    }

    #[test]
    fn display_renders_table() {
        let rs = engine().query("SELECT a FROM t ORDER BY a").unwrap();
        let text = rs.to_string();
        assert!(text.contains('a'), "{text}");
        assert!(text.contains("(2 rows)"), "{text}");
    }

    #[test]
    fn parse_errors_bubble_up() {
        assert!(engine().query("SELEC a FROM t").is_err());
        assert!(engine().query("SELECT a FROM missing").is_err());
    }

    #[test]
    fn localtimestamp_uses_engine_clock() {
        let t = schema(vec![("a", DataType::Int)]);
        let clock = Clock::manual();
        clock.advance(42);
        let e = SqlEngine::with_clock(
            MemCatalog::new(vec![Arc::new(MemTable::new(
                "t",
                t,
                vec![vec![Value::Int(1)]],
            ))]),
            clock,
        );
        let rs = e.query("SELECT LOCALTIMESTAMP AS now FROM t").unwrap();
        assert_eq!(rs.scalar("now"), Some(&Value::Timestamp(42)));
    }

    #[test]
    fn telemetry_records_phases_counters_and_events() {
        use squery_common::telemetry::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let t = schema(vec![("a", DataType::Int), ("b", DataType::Str)]);
        let rows = vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(2), Value::str("y")],
        ];
        let e = SqlEngine::new(MemCatalog::new(vec![Arc::new(MemTable::new("t", t, rows))]))
            .with_telemetry(&registry);

        let rs = e.query("SELECT a FROM t WHERE b = 'y'").unwrap();
        assert_eq!(rs.len(), 1);
        assert!(e.query("SELECT nope FROM missing").is_err());

        assert_eq!(registry.counter_value("queries_total", &[]), Some(2));
        assert_eq!(registry.counter_value("query_errors_total", &[]), Some(1));
        // Scan saw both base rows; only one survived the filter.
        assert_eq!(
            registry.counter_value("query_rows_scanned_total", &[]),
            Some(2)
        );
        assert_eq!(
            registry.counter_value("query_rows_returned_total", &[]),
            Some(1)
        );
        let phase_counts: Vec<u64> = registry
            .histograms()
            .into_iter()
            .filter(|(k, _)| k.name.starts_with("query_"))
            .map(|(_, h)| h.count())
            .collect();
        assert_eq!(phase_counts, vec![1, 1, 1], "parse/plan/exec each once");
        let kinds: Vec<&str> = registry
            .events()
            .snapshot()
            .iter()
            .map(|ev| ev.kind.as_str())
            .collect();
        assert_eq!(
            kinds,
            vec![
                "query_started",
                "query_finished",
                "query_started",
                "query_finished"
            ]
        );
        let events = registry.events().snapshot();
        assert!(events[1].detail.contains("1 rows"), "{}", events[1].detail);
        assert!(
            events[3].detail.starts_with("error:"),
            "{}",
            events[3].detail
        );
    }

    #[test]
    fn event_sql_detail_is_truncated() {
        let long = format!("SELECT a FROM t WHERE b = '{}'", "x".repeat(500));
        let prefix = super::sql_prefix(&long);
        assert!(prefix.chars().count() <= super::EVENT_SQL_PREFIX + 1);
        assert!(prefix.ends_with('…'));
        assert_eq!(super::sql_prefix("SELECT 1 FROM t"), "SELECT 1 FROM t");
    }

    #[test]
    fn sorted_rows_helper() {
        let rs = engine().query("SELECT a FROM t ORDER BY a DESC").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(2)]);
        assert_eq!(rs.sorted_rows()[0], vec![Value::Int(1)]);
    }

    #[test]
    fn explain_renders_plan_without_executing() {
        use squery_common::telemetry::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let t = schema(vec![("a", DataType::Int), ("b", DataType::Str)]);
        let rows = vec![vec![Value::Int(1), Value::str("x")]];
        let e = SqlEngine::new(MemCatalog::new(vec![Arc::new(MemTable::new("t", t, rows))]))
            .with_telemetry(&registry);
        let rs = e.query("EXPLAIN SELECT a FROM t WHERE b = 'x'").unwrap();
        assert_eq!(rs.schema().fields()[0].name, "plan");
        let lines: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
        assert!(lines[0].contains("Project [a]"), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("Filter")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("Scan t")), "{lines:?}");
        // Plan-only: nothing was scanned.
        assert_eq!(
            registry.counter_value("query_rows_scanned_total", &[]),
            Some(0)
        );
    }

    #[test]
    fn explain_analyze_annotates_nodes_and_records_spans() {
        use squery_common::telemetry::MetricsRegistry;
        let registry = MetricsRegistry::new();
        assert!(!registry.spans().is_enabled(), "tracing off by default");
        let t = schema(vec![("a", DataType::Int), ("b", DataType::Str)]);
        let rows = vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(2), Value::str("y")],
        ];
        let e = SqlEngine::new(MemCatalog::new(vec![Arc::new(MemTable::new("t", t, rows))]))
            .with_telemetry(&registry);
        let rs = e
            .query("EXPLAIN ANALYZE SELECT a FROM t WHERE b = 'y'")
            .unwrap();
        let lines: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
        let scan = lines.iter().find(|l| l.contains("Scan t")).unwrap();
        assert!(scan.contains("rows=2"), "{scan}");
        let filter = lines.iter().find(|l| l.contains("Filter")).unwrap();
        assert!(filter.contains("rows=1"), "{filter}");

        // Forced spans landed in the shared (disabled) collector: one
        // `slice` span per claimed unit of scan0, each under the query root,
        // and the reported wall time is exactly the sum of their durations.
        let spans = registry.spans().snapshot();
        let root = spans.iter().find(|s| s.kind == "query").unwrap();
        let slices: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == "slice" && s.label("node") == Some("scan0"))
            .collect();
        assert!(!slices.is_empty());
        assert!(slices.iter().all(|s| s.parent == Some(root.id)));
        let wall: u64 = slices.iter().map(|s| s.duration_us()).sum();
        assert!(
            scan.contains(&format!("wall={wall}us slices={})", slices.len())),
            "{scan} vs {} slice spans summing to {wall}us",
            slices.len()
        );
    }

    /// EXPLAIN ANALYZE of a join + filter + GROUP BY over 60k in-memory
    /// rows: the probe, filter and aggregate work of every unit lands on
    /// its own node, a pushed-down filter's on the scan it filters, and at
    /// DOP 1 — where every node's work runs on the caller's thread, one
    /// after another — the node walls add up to no more than the query's
    /// root span.
    #[test]
    fn explain_analyze_attributes_unit_work_to_its_nodes() {
        use squery_common::telemetry::MetricsRegistry;
        const N: i64 = 60_000;
        let orders = schema(vec![
            ("partitionKey", DataType::Int),
            ("total", DataType::Int),
            ("zone", DataType::Str),
        ]);
        let info = schema(vec![
            ("partitionKey", DataType::Int),
            ("category", DataType::Str),
        ]);
        let zones = ["north", "south", "east"];
        let orders_rows = (0..N)
            .map(|i| {
                let zone = Value::str(zones[i as usize % 3]);
                vec![Value::Int(i), Value::Int(i % 100), zone]
            })
            .collect();
        let info_rows = (0..N)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "food" } else { "pharma" }),
                ]
            })
            .collect();
        let tables: Vec<Arc<dyn Table>> = vec![
            Arc::new(MemTable::new("orders", orders, orders_rows)),
            Arc::new(MemTable::new("info", info, info_rows)),
        ];
        // Single-scan conjuncts filter their scans before the join; a
        // cross-scan WHERE runs after it as a Filter node.
        let pushed = "WHERE category = 'food' AND total > 10";
        let residual = "WHERE category = 'food' OR total > 10";
        for (clause, dop) in [(pushed, 1usize), (pushed, 2), (residual, 1), (residual, 2)] {
            let sql = format!(
                "EXPLAIN ANALYZE SELECT zone, COUNT(*), SUM(total) FROM orders \
                 JOIN info USING(partitionKey) {clause} GROUP BY zone"
            );
            let registry = MetricsRegistry::new();
            let e = SqlEngine::new(MemCatalog::new(tables.clone())).with_telemetry(&registry);
            let rs = e.query_with_dop(&sql, dop).unwrap();
            let lines: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
            let wall = |l: &str| -> u64 {
                let w = l.split("wall=").nth(1).expect("annotated node");
                w[..w.find("us").unwrap()].parse().unwrap()
            };
            let line = |node: &str| lines.iter().find(|l| l.contains(node));
            if clause == pushed {
                assert!(line("Filter").is_none(), "dop {dop}: {lines:#?}");
                // Every order decodes; 89 in 100 have total > 10, half the
                // info rows are food, and 44 in 100 orders are both.
                let orders = line("Scan orders").unwrap();
                assert!(orders.contains("(rows=60000 kept=53400 "), "{orders}");
                let info = line("Scan info").unwrap();
                assert!(info.contains("(rows=60000 kept=30000 "), "{info}");
                let join = line("HashJoin").unwrap();
                assert!(join.contains("(rows=26400 "), "{join}");
                assert!(wall(join) > 0, "dop {dop}: {join}");
            } else {
                for node in ["Filter", "HashJoin"] {
                    let l = line(node).unwrap();
                    assert!(wall(l) > 0, "dop {dop}: {l}");
                }
            }
            if dop == 1 {
                let root = registry
                    .spans()
                    .snapshot()
                    .into_iter()
                    .find(|s| s.kind == "query")
                    .unwrap();
                let total: u64 = lines
                    .iter()
                    .filter(|l| l.contains(" wall="))
                    .map(|l| wall(l))
                    .sum();
                assert!(
                    total <= root.duration_us(),
                    "node walls {total}us exceed the query's {}us: {lines:#?}",
                    root.duration_us()
                );
            }
        }
    }

    #[test]
    fn explain_analyze_works_without_telemetry() {
        let rs = engine()
            .query("EXPLAIN ANALYZE SELECT a, b FROM t ORDER BY a LIMIT 1")
            .unwrap();
        let lines: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
        assert!(lines[0].contains("Sort (keys: 1, limit: 1)"), "{lines:?}");
        assert!(lines[0].contains("rows=1"), "{lines:?}");
        assert!(
            lines.iter().any(|l| l.contains("Scan t (rows=2")),
            "{lines:?}"
        );
    }

    #[test]
    fn enabled_collector_traces_plain_queries() {
        use squery_common::telemetry::MetricsRegistry;
        let registry = MetricsRegistry::new();
        registry.spans().set_enabled(true);
        let t = schema(vec![("a", DataType::Int), ("b", DataType::Str)]);
        let rows = vec![vec![Value::Int(1), Value::str("x")]];
        let e = SqlEngine::new(MemCatalog::new(vec![Arc::new(MemTable::new("t", t, rows))]))
            .with_telemetry(&registry);
        e.query("SELECT a FROM t").unwrap();
        let spans = registry.spans().snapshot();
        let root = spans.iter().find(|s| s.kind == "query").unwrap();
        assert_eq!(root.label("dop"), Some("1"));
        assert_eq!(root.label("rows"), Some("1"));
        assert!(spans
            .iter()
            .any(|s| s.kind == "slice" && s.parent == Some(root.id)));
    }

    #[test]
    fn query_log_records_successes_and_failures() {
        let log = QueryLog::new(2);
        let e = engine().with_query_log(log.clone());
        e.query("SELECT a FROM t").unwrap();
        assert!(e.query("SELECT nope FROM t").is_err());
        e.query("SELECT b FROM t WHERE a = 2").unwrap();
        // Capacity 2: the first entry was evicted.
        let entries = log.snapshot();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seq, 1);
        assert!(entries[0].status.starts_with("error:"), "{:?}", entries[0]);
        assert_eq!(entries[0].rows, 0);
        assert_eq!(entries[1].seq, 2);
        assert_eq!(entries[1].status, "ok");
        assert_eq!(entries[1].rows, 1);
        assert_eq!(entries[1].dop, 1);
        assert_eq!(entries[1].sql, "SELECT b FROM t WHERE a = 2");
    }
}
