//! Catalog abstractions: tables, scan hints, execution context.

use crate::batch::ColumnarBatch;
use parking_lot::Mutex;
use squery_common::config::Parallelism;
use squery_common::metrics::SharedHistogram;
use squery_common::schema::Schema;
use squery_common::telemetry::Counter;
use squery_common::trace::{SpanCollector, SpanGuard};
use squery_common::{SnapshotId, SqResult, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Which snapshot version(s) a snapshot-table scan should resolve.
///
/// Derived by the planner from the query's `ssid` predicates:
/// * no mention of `ssid` → [`SsidMode::Latest`] (paper §II: "By default, the
///   latest snapshot id is implied"),
/// * `ssid = <n>` equality → [`SsidMode::Exact`],
/// * any other `ssid` predicate (range, `IN`, …) → [`SsidMode::AllRetained`]:
///   every retained version is scanned with its `ssid` column materialized
///   and the predicate filters rows (the multi-version result sets of §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsidMode {
    /// Resolve the latest committed snapshot, fixed once per query.
    Latest,
    /// Resolve one explicitly requested snapshot id.
    Exact(SnapshotId),
    /// Scan every retained committed version.
    AllRetained,
}

/// Planner-extracted hints a table scan may exploit.
#[derive(Debug, Clone)]
pub struct ScanHints {
    /// Snapshot resolution mode (ignored by live tables).
    pub ssid: SsidMode,
    /// Equality constraint on the key column, enabling a point read.
    pub key_eq: Option<Value>,
}

impl Default for ScanHints {
    fn default() -> Self {
        ScanHints {
            ssid: SsidMode::Latest,
            key_eq: None,
        }
    }
}

/// Per-query execution context.
///
/// Built once per query so that every snapshot table in a join reads the
/// *same* snapshot id — the consistency the paper's 2PC publication
/// guarantees — and so `LOCALTIMESTAMP` is a single instant.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// The latest committed snapshot at query start, if any.
    pub query_ssid: Option<SnapshotId>,
    /// All retained committed snapshot ids at query start, ascending.
    pub retained_ssids: Vec<SnapshotId>,
    /// Microsecond timestamp for `LOCALTIMESTAMP`.
    pub now_micros: i64,
    /// Telemetry counter bumped with every row a scan materializes
    /// (`None` when the engine runs without a metrics registry).
    pub rows_scanned: Option<Counter>,
    /// Degree of parallelism for this query (1 = the caller's thread alone
    /// runs the morsel loop).
    pub parallelism: Parallelism,
    /// Per-worker slice-scan latency histogram (`sql_worker_scan_us`),
    /// recorded once per claimed slice.
    pub worker_scan_us: Option<SharedHistogram>,
    /// Span/per-node-statistics sink, present when the query is traced
    /// (collector enabled) or profiled (`EXPLAIN ANALYZE`).
    pub trace: Option<ExecTrace>,
    /// `true` runs the columnar driver; `false` runs the sequential row
    /// reference (at any DOP), the oracle of the equivalence tests.
    pub(crate) vectorized: bool,
}

impl ExecContext {
    /// A context with no snapshots (live-only catalogs, unit tests).
    pub fn live_only(now_micros: i64) -> ExecContext {
        ExecContext {
            query_ssid: None,
            retained_ssids: Vec::new(),
            now_micros,
            rows_scanned: None,
            parallelism: Parallelism::sequential(),
            worker_scan_us: None,
            trace: None,
            vectorized: true,
        }
    }

    /// The same context with a different degree of parallelism.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> ExecContext {
        self.parallelism = parallelism;
        self
    }

    /// The same context on the columnar driver (`true`) or the row
    /// reference (`false`).
    #[cfg(test)]
    pub(crate) fn with_vectorized(mut self, vectorized: bool) -> ExecContext {
        self.vectorized = vectorized;
        self
    }
}

/// Aggregated execution statistics for one plan node.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeStat {
    /// Rows the node produced (scans: rows materialized).
    pub rows: u64,
    /// Wall time spent in the node, summed over its spans and per-unit
    /// stage times (at DOP > 1 per-slice work of concurrent workers adds
    /// up, so this can exceed elapsed query time).
    pub wall_us: u64,
    /// Scan slices claimed (0 for other nodes and the row reference).
    pub slices: u64,
}

struct ExecTraceInner {
    collector: SpanCollector,
    root: u64,
    forced: bool,
    stats: Mutex<BTreeMap<String, NodeStat>>,
}

/// Per-query tracing: a handle every executor stage uses to open child
/// spans under the query's root span and fold per-node statistics
/// (`EXPLAIN ANALYZE`'s row counts, slices, and wall time).
///
/// Cloneable and thread-safe: morsel workers record concurrently.
#[derive(Clone)]
pub struct ExecTrace {
    inner: Arc<ExecTraceInner>,
}

impl fmt::Debug for ExecTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExecTrace(root={})", self.inner.root)
    }
}

impl ExecTrace {
    /// A trace rooted at span `root` in `collector`. With `forced`, child
    /// spans record even while the collector is disabled (`EXPLAIN
    /// ANALYZE` on an untraced deployment).
    pub fn new(collector: SpanCollector, root: u64, forced: bool) -> ExecTrace {
        ExecTrace {
            inner: Arc::new(ExecTraceInner {
                collector,
                root,
                forced,
                stats: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The query's root span id.
    pub fn root(&self) -> u64 {
        self.inner.root
    }

    /// Open a span directly under the query root.
    pub fn span(&self, kind: &'static str) -> SpanGuard {
        self.span_under(kind, self.inner.root)
    }

    /// Open a span under an explicit parent span.
    pub fn span_under(&self, kind: &'static str, parent: u64) -> SpanGuard {
        if self.inner.forced {
            self.inner.collector.forced(kind, Some(parent))
        } else {
            self.inner.collector.child(kind, parent)
        }
    }

    /// Close a node's span (labelling it with `rows`) and fold its duration
    /// plus the given counts into the node's statistics.
    pub fn close_node(&self, key: &str, mut guard: SpanGuard, rows: u64, slices: u64) {
        guard.label("rows", rows);
        let wall_us = guard.finish().map_or(0, |s| s.duration_us());
        self.add(key, rows, wall_us, slices);
    }

    /// Fold counts into a node's statistics without a span.
    pub fn add(&self, key: &str, rows: u64, wall_us: u64, slices: u64) {
        let mut stats = self.inner.stats.lock();
        let entry = stats.entry(key.to_string()).or_default();
        entry.rows += rows;
        entry.wall_us += wall_us;
        entry.slices += slices;
    }

    /// The node statistics accumulated so far, keyed by plan-node key
    /// (`scan0`, `join1`, `filter`, `aggregate`, `sort`, …).
    pub fn stats(&self) -> BTreeMap<String, NodeStat> {
        self.inner.stats.lock().clone()
    }
}

/// The sliced form of a table scan: independently scannable slices whose
/// concatenation, in slice order, is the table's canonical row order.
/// Partitioned tables expose one slice per grid partition; every other scan
/// (sys tables, point reads, test tables) wraps its materialized rows in
/// morsel-sized row chunks. The morsel driver claims slices as units.
///
/// Implementations must be safe to call from several threads at once and
/// must resolve *all* per-query state (notably snapshot ids) before
/// construction, so every worker reads the same pinned snapshot.
pub trait ScanSlices: Send + Sync {
    /// Number of slices.
    fn slice_count(&self) -> u32;

    /// Materialize one slice as columnar batches (the vectorized scan
    /// boundary), restricted to the given schema columns. `cols` is a
    /// strictly ascending subset of the table's column indices; batch
    /// column `j` holds schema column `cols[j]`. Concatenating the batch
    /// rows of every slice, in slice order, equals [`Table::scan`]
    /// projected to `cols`.
    fn scan_slice_batches(&self, slice: u32, cols: &[usize]) -> SqResult<Vec<ColumnarBatch>>;

    /// Look up a memoized executor structure for `(kind, slice, cols)`.
    ///
    /// Sources whose scanned state is immutable (committed snapshots) may
    /// memoize derived read-only structures — decoded column batches, frozen
    /// join tables — across queries. `slice` is a slice index for per-slice
    /// structures or `u32::MAX` for whole-scan ones; `cols` is whatever
    /// column fingerprint the structure was derived under. Mutable sources
    /// keep the default no-op, which disables caching entirely.
    fn cache_get(
        &self,
        kind: &str,
        slice: u32,
        cols: &[usize],
    ) -> Option<Arc<dyn std::any::Any + Send + Sync>> {
        let _ = (kind, slice, cols);
        None
    }

    /// Store a memoized executor structure; see [`ScanSlices::cache_get`].
    fn cache_put(
        &self,
        kind: &str,
        slice: u32,
        cols: &[usize],
        value: Arc<dyn std::any::Any + Send + Sync>,
    ) {
        let _ = (kind, slice, cols, value);
    }
}

/// One slice's decoded column batches, shared via the slice source's
/// executor cache when the underlying state is immutable. Cache misses
/// decode through [`ScanSlices::scan_slice_batches`] and populate the cache;
/// sources without caching (the default hooks) just decode every time.
pub(crate) fn slice_batches_cached(
    sl: &dyn ScanSlices,
    slice: u32,
    cols: &[usize],
) -> SqResult<Vec<Arc<ColumnarBatch>>> {
    if let Some(hit) = sl.cache_get("batches", slice, cols) {
        if let Ok(batches) = hit.downcast::<Vec<Arc<ColumnarBatch>>>() {
            return Ok((*batches).clone());
        }
    }
    let batches: Vec<Arc<ColumnarBatch>> = sl
        .scan_slice_batches(slice, cols)?
        .into_iter()
        .map(Arc::new)
        .collect();
    sl.cache_put("batches", slice, cols, Arc::new(batches.clone()));
    Ok(batches)
}

/// Materialized rows as a slice source: chunks of at least
/// `min_morsel_rows` rows, sized so `degree` workers get about four each.
pub fn row_chunks(rows: Vec<Vec<Value>>, parallelism: &Parallelism) -> Arc<dyn ScanSlices> {
    let chunk = parallelism
        .min_morsel_rows
        .max(rows.len().div_ceil(parallelism.degree * 4))
        .max(1);
    Arc::new(RowChunks { rows, chunk })
}

struct RowChunks {
    rows: Vec<Vec<Value>>,
    chunk: usize,
}

impl ScanSlices for RowChunks {
    fn slice_count(&self) -> u32 {
        self.rows.len().div_ceil(self.chunk) as u32
    }

    fn scan_slice_batches(&self, slice: u32, cols: &[usize]) -> SqResult<Vec<ColumnarBatch>> {
        let start = slice as usize * self.chunk;
        let end = (start + self.chunk).min(self.rows.len());
        Ok(ColumnarBatch::from_rows_chunked_cols(
            &self.rows[start..end],
            cols,
        ))
    }
}

/// A queryable table.
pub trait Table: Send + Sync {
    /// The table's name.
    fn name(&self) -> &str;

    /// The table's schema.
    fn schema(&self) -> Arc<Schema>;

    /// Materialize the rows visible to this scan. Row arity must match
    /// [`Table::schema`].
    fn scan(&self, hints: &ScanHints, ctx: &ExecContext) -> SqResult<Vec<Vec<Value>>>;

    /// The scan as claimable slices, the executor's only scan entry point.
    ///
    /// The default materializes [`Table::scan`] and cuts it into row chunks
    /// ([`row_chunks`]); partitioned tables override it to expose
    /// per-partition slices.
    fn scan_partitions(
        &self,
        hints: &ScanHints,
        ctx: &ExecContext,
    ) -> SqResult<Arc<dyn ScanSlices>> {
        Ok(row_chunks(self.scan(hints, ctx)?, &ctx.parallelism))
    }

    /// Estimated row count this scan would materialize, from whatever
    /// statistics the table keeps (the stats catalog's write-path
    /// accounting for grid tables). `None` (the default) means no estimate
    /// is available and `EXPLAIN` omits the annotation.
    fn estimated_rows(&self, _hints: &ScanHints) -> Option<u64> {
        None
    }

    /// Whether this table reads pinned snapshot versions (so its scans can
    /// carry a per-snapshot staleness bound). Live and sys tables keep the
    /// default.
    fn is_snapshot(&self) -> bool {
        false
    }
}

/// A source of tables plus the snapshot metadata queries need.
pub trait Catalog: Send + Sync {
    /// Resolve a table by name.
    fn table(&self, name: &str) -> Option<Arc<dyn Table>>;

    /// Names of all tables (for error messages and discovery).
    fn table_names(&self) -> Vec<String>;

    /// Snapshot metadata captured at query start; live-only catalogs return
    /// an empty context.
    fn snapshot_context(&self) -> (Option<SnapshotId>, Vec<SnapshotId>) {
        (None, Vec::new())
    }

    /// Event-time staleness bound of a committed snapshot, in microseconds:
    /// how far behind real time a scan pinned to `ssid` reads. `None` (the
    /// default, and the answer for unknown or pre-watermark snapshots)
    /// omits the `EXPLAIN ANALYZE` annotation.
    fn snapshot_staleness_us(&self, _ssid: SnapshotId) -> Option<u64> {
        None
    }
}

/// An in-memory table for tests and examples.
pub struct MemTable {
    name: String,
    schema: Arc<Schema>,
    rows: Vec<Vec<Value>>,
}

impl MemTable {
    /// Build from a schema and rows; panics on arity mismatch (programming
    /// error in test setup).
    pub fn new(name: impl Into<String>, schema: Arc<Schema>, rows: Vec<Vec<Value>>) -> MemTable {
        for r in &rows {
            assert_eq!(r.len(), schema.len(), "row arity must match schema");
        }
        MemTable {
            name: name.into(),
            schema,
            rows,
        }
    }
}

impl Table for MemTable {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn scan(&self, _hints: &ScanHints, _ctx: &ExecContext) -> SqResult<Vec<Vec<Value>>> {
        Ok(self.rows.clone())
    }
}

/// A catalog over a fixed set of [`MemTable`]s.
pub struct MemCatalog {
    tables: Vec<Arc<dyn Table>>,
}

impl MemCatalog {
    /// Build from tables.
    pub fn new(tables: Vec<Arc<dyn Table>>) -> MemCatalog {
        MemCatalog { tables }
    }
}

impl Catalog for MemCatalog {
    fn table(&self, name: &str) -> Option<Arc<dyn Table>> {
        self.tables.iter().find(|t| t.name() == name).cloned()
    }

    fn table_names(&self) -> Vec<String> {
        self.tables.iter().map(|t| t.name().to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squery_common::schema::schema;
    use squery_common::DataType;

    #[test]
    fn mem_table_scans_its_rows() {
        let s = schema(vec![("a", DataType::Int)]);
        let t = MemTable::new("t", s, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let rows = t
            .scan(&ScanHints::default(), &ExecContext::live_only(0))
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(t.name(), "t");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mem_table_rejects_bad_rows() {
        let s = schema(vec![("a", DataType::Int), ("b", DataType::Int)]);
        MemTable::new("t", s, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn mem_catalog_resolves_by_name() {
        let s = schema(vec![("a", DataType::Int)]);
        let t: Arc<dyn Table> = Arc::new(MemTable::new("orders", s, vec![]));
        let c = MemCatalog::new(vec![t]);
        assert!(c.table("orders").is_some());
        assert!(c.table("nope").is_none());
        assert_eq!(c.table_names(), vec!["orders"]);
        assert_eq!(c.snapshot_context(), (None, Vec::new()));
    }

    #[test]
    fn default_hints_scan_latest() {
        let h = ScanHints::default();
        assert_eq!(h.ssid, SsidMode::Latest);
        assert!(h.key_eq.is_none());
    }
}
