//! Grid-backed tables: live-state maps and snapshot stores as SQL tables.
//!
//! The mapping follows the paper's §V-B exactly:
//!
//! * live table `<operator>`: columns `partitionKey` + the state object's
//!   fields (Table I);
//! * snapshot table `snapshot_<operator>`: columns `partitionKey`, `ssid` +
//!   the state object's fields (Table II, Figure 4).
//!
//! State objects that are not structs (or operators that registered no value
//! schema) expose a single `this` column holding the raw value, mirroring
//! how IMDG exposes non-decomposable values.

use crate::batch::{ColumnBuilder, ColumnarBatch, BATCH_ROWS};
use crate::catalog::{row_chunks, Catalog, ExecContext, ScanHints, ScanSlices, SsidMode, Table};
use parking_lot::RwLock;
use squery_common::schema::{Field, Schema, KEY_COLUMN, SSID_COLUMN};
use squery_common::value::StructValue;
use squery_common::{DataType, PartitionId, SnapshotId, SqError, SqResult, Value};
use squery_storage::grid::SNAPSHOT_TABLE_PREFIX;
use squery_storage::{Grid, IMap, SnapshotStore};
use std::collections::HashMap;
use std::sync::Arc;

/// Column name for undecomposed state objects.
pub const THIS_COLUMN: &str = "this";

fn value_fields(value_schema: Option<&Arc<Schema>>) -> Vec<Field> {
    match value_schema {
        Some(s) => s.fields().to_vec(),
        None => vec![Field {
            name: THIS_COLUMN.into(),
            dtype: DataType::Any,
        }],
    }
}

/// Field `i` of the value schema in struct `sv`: positional when the struct
/// carries the registered schema itself (the common case — operators build
/// their state from it), by name otherwise.
fn field_of<'v>(sv: &'v StructValue, schema: &Arc<Schema>, i: usize) -> &'v Value {
    if Arc::ptr_eq(sv.schema(), schema) {
        sv.field_at(i)
    } else {
        sv.field(&schema.fields()[i].name).unwrap_or(&Value::Null)
    }
}

/// Explode a state object into the value columns of `value_schema`.
fn explode(value: &Value, value_schema: Option<&Arc<Schema>>) -> Vec<Value> {
    match value_schema {
        None => vec![value.clone()],
        Some(schema) => match value.as_struct() {
            Some(sv) => (0..schema.len())
                .map(|i| field_of(sv, schema, i).clone())
                .collect(),
            None if schema.len() == 1 => vec![value.clone()],
            None => vec![Value::Null; schema.len()],
        },
    }
}

/// Like [`explode`] but streaming and column-pruned: hands only the value
/// columns whose indices appear in `fields` (ascending indices into the
/// value schema) to `f`, in that order. Each handed value is exactly what
/// [`explode`] would produce at that position — typed columnar scans rely
/// on it.
fn explode_cols(
    value: &Value,
    value_schema: Option<&Arc<Schema>>,
    fields: &[usize],
    mut f: impl FnMut(&Value),
) {
    match value_schema {
        // Schemaless state exposes the single `this` column (index 0).
        None => {
            for _ in fields {
                f(value);
            }
        }
        Some(schema) => match value.as_struct() {
            Some(sv) => {
                for &i in fields {
                    f(field_of(sv, schema, i));
                }
            }
            None if schema.len() == 1 => {
                for _ in fields {
                    f(value);
                }
            }
            None => {
                for _ in fields {
                    f(&Value::Null);
                }
            }
        },
    }
}

/// Builds [`ColumnarBatch`]es of at most [`BATCH_ROWS`] rows straight from
/// scanned cell values — the typed extraction at the scan boundary. Cells
/// arrive row-major (each row's columns in order); batches are cut on row
/// boundaries, so concatenating the batches' rows reproduces the row scan.
struct BatchWriter {
    builders: Vec<ColumnBuilder>,
    col: usize,
    rows: usize,
    out: Vec<ColumnarBatch>,
}

impl BatchWriter {
    fn new(width: usize) -> BatchWriter {
        BatchWriter {
            builders: (0..width).map(|_| ColumnBuilder::new()).collect(),
            col: 0,
            rows: 0,
            out: Vec::new(),
        }
    }

    fn push(&mut self, v: &Value) {
        self.builders[self.col].push(v);
        self.col += 1;
        if self.col == self.builders.len() {
            self.col = 0;
            self.rows += 1;
            if self.rows == BATCH_ROWS {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        debug_assert_eq!(self.col, 0, "flush mid-row");
        if self.rows == 0 {
            return;
        }
        let width = self.builders.len();
        let done = std::mem::replace(
            &mut self.builders,
            (0..width).map(|_| ColumnBuilder::new()).collect(),
        );
        self.out.push(ColumnarBatch::new(
            done.into_iter().map(ColumnBuilder::finish).collect(),
        ));
        self.rows = 0;
    }

    fn finish(mut self) -> Vec<ColumnarBatch> {
        self.flush();
        self.out
    }
}

/// A live-state map as a table.
pub struct LiveTable {
    map: Arc<IMap>,
    schema: Arc<Schema>,
}

impl LiveTable {
    /// Wrap a live map, deriving the table schema from its value schema.
    pub fn new(map: Arc<IMap>) -> LiveTable {
        let mut fields = vec![Field {
            name: KEY_COLUMN.into(),
            dtype: DataType::Any,
        }];
        fields.extend(value_fields(map.value_schema().as_ref()));
        LiveTable {
            schema: Arc::new(Schema::from_fields(fields)),
            map,
        }
    }
}

impl Table for LiveTable {
    fn name(&self) -> &str {
        self.map.name()
    }

    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn scan(&self, hints: &ScanHints, _ctx: &ExecContext) -> SqResult<Vec<Vec<Value>>> {
        let value_schema = self.map.value_schema();
        let mut rows = Vec::new();
        if let Some(key) = &hints.key_eq {
            if let Some(v) = self.map.get(key) {
                let mut row = vec![key.clone()];
                row.extend(explode(&v, value_schema.as_ref()));
                rows.push(row);
            }
            return Ok(rows);
        }
        rows.reserve(self.map.len());
        self.map.for_each(|k, v| {
            let mut row = Vec::with_capacity(self.schema.len());
            row.push(k.clone());
            row.extend(explode(v, value_schema.as_ref()));
            rows.push(row);
        });
        Ok(rows)
    }

    fn scan_partitions(
        &self,
        hints: &ScanHints,
        ctx: &ExecContext,
    ) -> SqResult<Arc<dyn ScanSlices>> {
        if hints.key_eq.is_some() {
            // Point reads touch one partition; nothing to parallelize.
            return Ok(row_chunks(self.scan(hints, ctx)?, &ctx.parallelism));
        }
        Ok(Arc::new(LiveSlices {
            map: Arc::clone(&self.map),
            value_schema: self.map.value_schema(),
        }))
    }

    fn estimated_rows(&self, hints: &ScanHints) -> Option<u64> {
        if hints.key_eq.is_some() {
            // A point read returns at most one row.
            return Some(1);
        }
        // Write-path accounting: exact up to in-flight relaxed updates.
        Some(self.map.partition_stats().iter().map(|s| s.rows).sum())
    }
}

/// One slice per grid partition of a live map. Slice order is partition
/// order, matching [`IMap::for_each`], so slice concatenation equals the
/// sequential scan.
struct LiveSlices {
    map: Arc<IMap>,
    value_schema: Option<Arc<Schema>>,
}

impl ScanSlices for LiveSlices {
    fn slice_count(&self) -> u32 {
        self.map.partitioner().partition_count()
    }

    fn scan_slice_batches(&self, slice: u32, cols: &[usize]) -> SqResult<Vec<ColumnarBatch>> {
        // Typed extraction: cells go straight from the map into column
        // vectors, never building a row and never touching pruned columns. Layout: column 0 is the key, the
        // rest are value-schema fields.
        let want_key = cols.first() == Some(&0);
        let fields: Vec<usize> = cols.iter().filter(|&&c| c > 0).map(|&c| c - 1).collect();
        let mut w = BatchWriter::new(cols.len());
        self.map.for_each_in_partition(PartitionId(slice), |k, v| {
            if want_key {
                w.push(k);
            }
            explode_cols(v, self.value_schema.as_ref(), &fields, |x| w.push(x));
        });
        Ok(w.finish())
    }
}

/// A snapshot store as a table.
pub struct SnapshotTable {
    store: Arc<SnapshotStore>,
    schema: Arc<Schema>,
}

impl SnapshotTable {
    /// Wrap a snapshot store, deriving the table schema from its value schema.
    pub fn new(store: Arc<SnapshotStore>) -> SnapshotTable {
        let mut fields = vec![
            Field {
                name: KEY_COLUMN.into(),
                dtype: DataType::Any,
            },
            Field {
                name: SSID_COLUMN.into(),
                dtype: DataType::Int,
            },
        ];
        fields.extend(value_fields(store.value_schema().as_ref()));
        SnapshotTable {
            schema: Arc::new(Schema::from_fields(fields)),
            store,
        }
    }

    fn resolve_ssids(&self, hints: &ScanHints, ctx: &ExecContext) -> SqResult<Vec<SnapshotId>> {
        match hints.ssid {
            SsidMode::Latest => match ctx.query_ssid {
                Some(s) => Ok(vec![s]),
                None => Err(SqError::NotFound(format!(
                    "no committed snapshot available for {}",
                    self.store.name()
                ))),
            },
            SsidMode::Exact(s) => {
                if ctx.retained_ssids.contains(&s) {
                    Ok(vec![s])
                } else {
                    Err(SqError::NotFound(format!(
                        "snapshot {s} of {} is not committed/retained",
                        self.store.name()
                    )))
                }
            }
            SsidMode::AllRetained => Ok(ctx.retained_ssids.clone()),
        }
    }
}

impl Table for SnapshotTable {
    fn name(&self) -> &str {
        self.store.name()
    }

    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn scan(&self, hints: &ScanHints, ctx: &ExecContext) -> SqResult<Vec<Vec<Value>>> {
        let ssids = self.resolve_ssids(hints, ctx)?;
        let value_schema = self.store.value_schema();
        let mut rows = Vec::new();
        if let Some(key) = &hints.key_eq {
            for ssid in &ssids {
                if let Some(v) = self.store.read_at(*ssid, key)? {
                    let mut row = vec![key.clone(), Value::Int(ssid.0 as i64)];
                    row.extend(explode(&v, value_schema.as_ref()));
                    rows.push(row);
                }
            }
            return Ok(rows);
        }
        for ssid in &ssids {
            let (entries, _) = self.store.scan_at(*ssid)?;
            rows.reserve(entries.len());
            for (k, v) in entries {
                let mut row = Vec::with_capacity(self.schema.len());
                row.push(k);
                row.push(Value::Int(ssid.0 as i64));
                row.extend(explode(&v, value_schema.as_ref()));
                rows.push(row);
            }
        }
        Ok(rows)
    }

    fn scan_partitions(
        &self,
        hints: &ScanHints,
        ctx: &ExecContext,
    ) -> SqResult<Arc<dyn ScanSlices>> {
        if hints.key_eq.is_some() {
            return Ok(row_chunks(self.scan(hints, ctx)?, &ctx.parallelism));
        }
        // Snapshot ids resolve here, once, from the pinned query context —
        // every worker then scans the same committed version(s).
        let ssids = self.resolve_ssids(hints, ctx)?;
        Ok(Arc::new(SnapshotSlices {
            store: Arc::clone(&self.store),
            value_schema: self.store.value_schema(),
            parts: self.store.partition_count(),
            ssids,
        }))
    }

    fn estimated_rows(&self, hints: &ScanHints) -> Option<u64> {
        if hints.key_eq.is_some() {
            return Some(1);
        }
        // Per-version stored-entry counts; for incremental snapshots this
        // is the delta size, an underestimate of the resolved view — cheap
        // and good enough for a planner annotation.
        let versions = self.store.version_stats();
        match hints.ssid {
            SsidMode::Exact(s) => versions
                .iter()
                .find(|(id, _, _)| *id == s)
                .map(|(_, entries, _)| *entries as u64),
            SsidMode::Latest => versions.last().map(|(_, entries, _)| *entries as u64),
            SsidMode::AllRetained => {
                Some(versions.iter().map(|(_, entries, _)| *entries as u64).sum())
            }
        }
    }

    fn is_snapshot(&self) -> bool {
        true
    }
}

/// Slices of a snapshot scan: ssid-major, partition-minor — the same
/// `(ssid, partition)` order the sequential `scan`/`scan_at` path walks, so
/// slice concatenation reproduces its row order exactly.
struct SnapshotSlices {
    store: Arc<SnapshotStore>,
    value_schema: Option<Arc<Schema>>,
    parts: u32,
    /// Pre-resolved committed ids (the query's pinned snapshot context).
    ssids: Vec<SnapshotId>,
}

impl ScanSlices for SnapshotSlices {
    fn slice_count(&self) -> u32 {
        self.ssids.len() as u32 * self.parts
    }

    fn scan_slice_batches(&self, slice: u32, cols: &[usize]) -> SqResult<Vec<ColumnarBatch>> {
        let ssid = self.ssids[(slice / self.parts) as usize];
        let pid = PartitionId(slice % self.parts);
        let ssid_cell = Value::Int(ssid.0 as i64);
        // Layout: column 0 is the key, column 1 the ssid, the rest are
        // value-schema fields.
        let want_key = cols.contains(&0);
        let want_ssid = cols.contains(&1);
        let fields: Vec<usize> = cols.iter().filter(|&&c| c > 1).map(|&c| c - 2).collect();
        let mut w = BatchWriter::new(cols.len());
        // Streams the resolved partition view in `scan_partition_at` order,
        // so batch rows concatenate to the (projected) `scan_at` rows exactly.
        self.store.for_each_partition_at(ssid, pid, |k, v| {
            if want_key {
                w.push(k);
            }
            if want_ssid {
                w.push(&ssid_cell);
            }
            explode_cols(v, self.value_schema.as_ref(), &fields, |x| w.push(x));
        })?;
        Ok(w.finish())
    }

    // Committed snapshots are immutable, so derived executor structures are
    // safe to memoize in the store, keyed by this scan's pinned snapshot
    // ids. The store purges entries when ids are pruned/discarded/erased.
    fn cache_get(
        &self,
        kind: &str,
        slice: u32,
        cols: &[usize],
    ) -> Option<Arc<dyn std::any::Any + Send + Sync>> {
        self.store.exec_cache_get(kind, &self.ssids, slice, cols)
    }

    fn cache_put(
        &self,
        kind: &str,
        slice: u32,
        cols: &[usize],
        value: Arc<dyn std::any::Any + Send + Sync>,
    ) {
        self.store
            .exec_cache_put(kind, &self.ssids, slice, cols, value)
    }
}

/// Catalog over a storage grid, plus registered extra tables (`sys_*`).
pub struct GridCatalog {
    grid: Arc<Grid>,
    extras: RwLock<HashMap<String, Arc<dyn Table>>>,
}

impl GridCatalog {
    /// Wrap a grid.
    pub fn new(grid: Arc<Grid>) -> GridCatalog {
        GridCatalog {
            grid,
            extras: RwLock::new(HashMap::new()),
        }
    }

    /// The wrapped grid.
    pub fn grid(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// Register an extra table (e.g. a [`crate::systables::SysTable`]).
    /// Extras shadow grid tables of the same name.
    pub fn register(&self, table: Arc<dyn Table>) {
        self.extras.write().insert(table.name().to_string(), table);
    }
}

impl Catalog for GridCatalog {
    fn table(&self, name: &str) -> Option<Arc<dyn Table>> {
        if let Some(t) = self.extras.read().get(name) {
            return Some(Arc::clone(t));
        }
        if let Some(op) = name.strip_prefix(SNAPSHOT_TABLE_PREFIX) {
            let store = self.grid.get_snapshot_store(op)?;
            Some(Arc::new(SnapshotTable::new(store)))
        } else {
            let map = self.grid.get_map(name)?;
            Some(Arc::new(LiveTable::new(map)))
        }
    }

    fn table_names(&self) -> Vec<String> {
        let mut names = self.grid.all_table_names();
        names.extend(self.extras.read().keys().cloned());
        names.sort();
        names.dedup();
        names
    }

    fn snapshot_context(&self) -> (Option<SnapshotId>, Vec<SnapshotId>) {
        // One atomic registry read: reading `latest_committed()` and
        // `committed_ssids()` separately would let a checkpoint commit in
        // between, handing joined scans of one query different ssids.
        self.grid.registry().query_context()
    }

    fn snapshot_staleness_us(&self, ssid: SnapshotId) -> Option<u64> {
        // Freshness stamps are persisted in the unix-epoch domain, so any
        // clock's epoch "now" yields a valid age — including for snapshots
        // sealed by a previous process and recovered from the WAL.
        let f = self.grid.registry().freshness(ssid)?;
        let now = self.grid.telemetry().clock().epoch_micros();
        if f.watermark_us > 0 {
            Some(now.saturating_sub(f.watermark_us))
        } else if f.sealed_at_us > 0 {
            Some(now.saturating_sub(f.sealed_at_us))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SqlEngine;
    use squery_common::schema::schema;
    use squery_common::PartitionId;

    fn avg_schema() -> Arc<Schema> {
        schema(vec![("count", DataType::Int), ("total", DataType::Int)])
    }

    /// The paper's Figure 4 fixture: live {1:(3,30), 2:(2,20)} and snapshots
    /// 8/9 with evolving counts.
    fn figure4_grid() -> Arc<Grid> {
        let grid = Grid::single_node();
        let live = grid.map("average");
        live.set_value_schema(avg_schema());
        live.put(
            Value::Int(1),
            Value::record(&avg_schema(), vec![Value::Int(3), Value::Int(30)]),
        );
        live.put(
            Value::Int(2),
            Value::record(&avg_schema(), vec![Value::Int(2), Value::Int(20)]),
        );
        let store = grid.snapshot_store("average");
        store.set_value_schema(avg_schema());
        let write = |ssid: u64, key: i64, count: i64, total: i64| {
            store.write_partition(
                SnapshotId(ssid),
                store.partition_of(&Value::Int(key)),
                vec![(
                    Value::Int(key),
                    Some(Value::record(
                        &avg_schema(),
                        vec![Value::Int(count), Value::Int(total)],
                    )),
                )],
                false,
            );
        };
        // Snapshot 8: key1=(2,30), key2=(1,5); snapshot 9: key1=(3,45), key2=(2,20).
        let s8 = grid.registry().begin().unwrap();
        write(8, 1, 2, 30);
        write(8, 2, 1, 5);
        assert_eq!(s8, SnapshotId(1));
        grid.registry().commit(s8).unwrap();
        // Use the registry's real ids: we wrote at 8/9 manually, so instead
        // rewrite with the registry-issued ids for consistency.
        grid
    }

    /// A grid with registry-consistent snapshot ids.
    fn grid_with_snapshots() -> Arc<Grid> {
        let grid = Grid::single_node();
        let store = grid.snapshot_store("average");
        store.set_value_schema(avg_schema());
        for (count, total) in [(2i64, 30i64), (3, 45)] {
            let ssid = grid.registry().begin().unwrap();
            store.write_partition(
                ssid,
                store.partition_of(&Value::Int(1)),
                vec![(
                    Value::Int(1),
                    Some(Value::record(
                        &avg_schema(),
                        vec![Value::Int(count), Value::Int(total)],
                    )),
                )],
                true,
            );
            grid.registry().commit(ssid).unwrap();
        }
        grid
    }

    #[test]
    fn live_table_schema_and_scan() {
        let grid = figure4_grid();
        let engine = SqlEngine::new(GridCatalog::new(grid));
        // The paper's Figure 4 live query.
        let rs = engine
            .query("SELECT count, total FROM average WHERE partitionKey = 1")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(3), Value::Int(30)]]);
    }

    #[test]
    fn snapshot_table_defaults_to_latest_committed() {
        let grid = grid_with_snapshots();
        let engine = SqlEngine::new(GridCatalog::new(grid));
        let rs = engine
            .query("SELECT count, total FROM snapshot_average")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(3), Value::Int(45)]]);
    }

    #[test]
    fn snapshot_table_exact_ssid() {
        let grid = grid_with_snapshots();
        let engine = SqlEngine::new(GridCatalog::new(grid));
        let rs = engine
            .query("SELECT count, total FROM snapshot_average WHERE ssid = 1")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(2), Value::Int(30)]]);
        // Uncommitted / unknown ssid errors.
        assert!(engine
            .query("SELECT count FROM snapshot_average WHERE ssid = 99")
            .is_err());
    }

    #[test]
    fn snapshot_table_all_retained_versions() {
        let grid = grid_with_snapshots();
        let engine = SqlEngine::new(GridCatalog::new(grid));
        let rs = engine
            .query("SELECT ssid, count FROM snapshot_average WHERE ssid >= 0 ORDER BY ssid")
            .unwrap();
        assert_eq!(
            rs.rows(),
            &[
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(3)],
            ]
        );
    }

    #[test]
    fn no_committed_snapshot_is_an_error() {
        let grid = Grid::single_node();
        grid.snapshot_store("average");
        let engine = SqlEngine::new(GridCatalog::new(grid));
        let err = engine.query("SELECT * FROM snapshot_average").unwrap_err();
        assert!(matches!(err, SqError::NotFound(_)), "{err}");
    }

    #[test]
    fn key_point_read_on_snapshot_table() {
        let grid = grid_with_snapshots();
        let engine = SqlEngine::new(GridCatalog::new(grid));
        let rs = engine
            .query("SELECT total FROM snapshot_average WHERE partitionKey = 1")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(45)]]);
        let rs = engine
            .query("SELECT total FROM snapshot_average WHERE partitionKey = 42")
            .unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn unregistered_value_schema_exposes_this() {
        let grid = Grid::single_node();
        grid.map("raw").put(Value::Int(1), Value::str("blob"));
        let engine = SqlEngine::new(GridCatalog::new(grid));
        let rs = engine.query("SELECT this FROM raw").unwrap();
        assert_eq!(rs.rows(), &[vec![Value::str("blob")]]);
    }

    #[test]
    fn catalog_lists_grid_tables() {
        let grid = Grid::single_node();
        grid.map("orders");
        grid.snapshot_store("orders");
        let catalog = GridCatalog::new(grid);
        assert_eq!(catalog.table_names(), vec!["orders", "snapshot_orders"]);
        assert!(catalog.table("orders").is_some());
        assert!(catalog.table("snapshot_orders").is_some());
        assert!(catalog.table("snapshot_missing").is_none());
    }

    #[test]
    fn registered_sys_tables_resolve_and_list() {
        use crate::systables::SysTable;
        let grid = Grid::single_node();
        grid.map("orders");
        let catalog = GridCatalog::new(grid);
        catalog.register(Arc::new(SysTable::new(
            "sys_demo",
            schema(vec![("n", DataType::Int)]),
            Arc::new(|| vec![vec![Value::Int(41)], vec![Value::Int(42)]]),
        )));
        assert_eq!(catalog.table_names(), vec!["orders", "sys_demo"]);
        let engine = SqlEngine::new(catalog);
        let rs = engine.query("SELECT n FROM sys_demo WHERE n > 41").unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(42)]]);
        // Self-join over the same sys table works like any other table.
        let rs = engine
            .query("SELECT a.n FROM sys_demo a JOIN sys_demo b ON a.n = b.n ORDER BY a.n")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(41)], vec![Value::Int(42)]]);
    }

    /// The rows of every slice's `scan_slice_batches` at columns `cols`,
    /// concatenated in slice order.
    fn slice_rows(slices: &dyn ScanSlices, cols: &[usize]) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for i in 0..slices.slice_count() {
            for b in slices.scan_slice_batches(i, cols).unwrap() {
                rows.extend((0..b.len()).map(|r| b.row_at(r)));
            }
        }
        rows
    }

    /// `rows` projected to `cols`.
    fn project(rows: Vec<Vec<Value>>, cols: &[usize]) -> Vec<Vec<Value>> {
        rows.into_iter()
            .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
            .collect()
    }

    #[test]
    fn slices_concatenate_to_the_sequential_scan() {
        let hints = ScanHints::default();
        // Live table: one slice per partition, partition order.
        let grid = figure4_grid();
        let live = LiveTable::new(grid.get_map("average").unwrap());
        let ctx = ExecContext::live_only(0);
        let all: Vec<usize> = (0..live.schema().len()).collect();
        let seq = live.scan(&hints, &ctx).unwrap();
        assert_eq!(seq.len(), 2);
        let slices = live.scan_partitions(&hints, &ctx).unwrap();
        assert_eq!(slices.slice_count(), grid.partitioner().partition_count());
        assert_eq!(slice_rows(&*slices, &all), seq);
        assert_eq!(slice_rows(&*slices, &[0, 2]), project(seq, &[0, 2]));

        // Snapshot table with two retained versions: ssid-major slice order.
        let grid = grid_with_snapshots();
        let snap = SnapshotTable::new(grid.get_snapshot_store("average").unwrap());
        let (latest, retained) = grid.registry().query_context();
        let ctx = ExecContext {
            query_ssid: latest,
            retained_ssids: retained,
            ..ExecContext::live_only(0)
        };
        let all_hints = ScanHints {
            ssid: SsidMode::AllRetained,
            ..ScanHints::default()
        };
        let all: Vec<usize> = (0..snap.schema().len()).collect();
        for h in [&hints, &all_hints] {
            let seq = snap.scan(h, &ctx).unwrap();
            assert!(!seq.is_empty());
            let slices = snap.scan_partitions(h, &ctx).unwrap();
            assert_eq!(slice_rows(&*slices, &all), seq);
            assert_eq!(slice_rows(&*slices, &[1, 3]), project(seq, &[1, 3]));
        }

        // Point reads wrap the scanned rows in one row chunk.
        let point = ScanHints {
            key_eq: Some(Value::Int(1)),
            ..ScanHints::default()
        };
        let seq = snap.scan(&point, &ctx).unwrap();
        assert_eq!(seq.len(), 1);
        let slices = snap.scan_partitions(&point, &ctx).unwrap();
        assert_eq!(slices.slice_count(), 1);
        assert_eq!(slice_rows(&*slices, &all), seq);
    }

    #[test]
    fn explain_carries_catalog_row_estimates() {
        let grid = figure4_grid();
        let engine = SqlEngine::new(GridCatalog::new(Arc::clone(&grid)));
        let rs = engine.query("EXPLAIN SELECT count FROM average").unwrap();
        assert!(
            rs.rows()
                .iter()
                .any(|r| r[0].to_string().contains("Scan average [est_rows=2]")),
            "{rs}"
        );
        // A key-equality hint collapses the estimate to a point read.
        let rs = engine
            .query("EXPLAIN SELECT count FROM average WHERE partitionKey = 1")
            .unwrap();
        assert!(
            rs.rows()
                .iter()
                .any(|r| r[0].to_string().contains("[point=1] [est_rows=1]")),
            "{rs}"
        );
        // Snapshot tables estimate from per-version stored entries.
        let grid = grid_with_snapshots();
        let engine = SqlEngine::new(GridCatalog::new(grid));
        let rs = engine
            .query("EXPLAIN SELECT count FROM snapshot_average WHERE ssid >= 0")
            .unwrap();
        assert!(
            rs.rows()
                .iter()
                .any(|r| r[0].to_string().contains("[ssid=all] [est_rows=2]")),
            "{rs}"
        );
    }

    #[test]
    fn explain_analyze_annotates_snapshot_scan_staleness() {
        use squery_storage::SnapshotFreshness;
        let grid = Grid::single_node();
        let store = grid.snapshot_store("average");
        store.set_value_schema(avg_schema());
        let ssid = grid.registry().begin().unwrap();
        store.write_partition(
            ssid,
            store.partition_of(&Value::Int(1)),
            vec![(
                Value::Int(1),
                Some(Value::record(
                    &avg_schema(),
                    vec![Value::Int(2), Value::Int(30)],
                )),
            )],
            true,
        );
        // A tiny positive watermark sits firmly behind the telemetry clock,
        // so the staleness bound is a positive microsecond count.
        grid.registry()
            .commit_with_freshness(
                ssid,
                SnapshotFreshness {
                    watermark_us: 1,
                    sealed_at_us: 2,
                },
            )
            .unwrap();
        let engine = SqlEngine::new(GridCatalog::new(Arc::clone(&grid)));
        let rs = engine
            .query("EXPLAIN ANALYZE SELECT count FROM snapshot_average")
            .unwrap();
        assert!(
            rs.rows()
                .iter()
                .any(|r| r[0].to_string().contains("Scan snapshot_average")
                    && r[0].to_string().contains("[staleness=")),
            "{rs}"
        );
        // Live scans never carry the annotation.
        grid.map("average").put(Value::Int(1), Value::Int(1));
        let rs = engine
            .query("EXPLAIN ANALYZE SELECT partitionKey FROM average")
            .unwrap();
        assert!(
            !rs.rows()
                .iter()
                .any(|r| r[0].to_string().contains("[staleness=")),
            "{rs}"
        );
    }

    #[test]
    fn point_read_on_partition_with_write_partition() {
        // write_partition with an explicit pid must agree with partition_of
        // for reads to find the key.
        let grid = grid_with_snapshots();
        let store = grid.get_snapshot_store("average").unwrap();
        assert_eq!(
            store
                .read_at(SnapshotId(2), &Value::Int(1))
                .unwrap()
                .map(|v| v.as_struct().unwrap().field("total").cloned().unwrap()),
            Some(Value::Int(45))
        );
        let _ = store.partition_of(&Value::Int(1));
        let _ = PartitionId(0);
    }
}
