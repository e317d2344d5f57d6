//! # squery-sql
//!
//! The SQL engine over S-QUERY state tables.
//!
//! Hazelcast IMDG ships a SQL interface over its distributed maps; the paper
//! extends it with joins (§VI-A: "S-QUERY extends the SQL interface exposed by
//! Hazelcast IMDG with join operations"). This crate is that queryable layer,
//! built from scratch: a lexer, a recursive-descent parser, a binder/planner,
//! and a pull-based executor, covering the dialect the paper's evaluation
//! exercises:
//!
//! * `SELECT` projections with expressions and aliases,
//! * `WHERE` with `AND`/`OR`/`NOT`, comparisons, arithmetic, `IS [NOT] NULL`,
//! * `JOIN … USING(col)` and `JOIN … ON a = b` (hash joins),
//! * `GROUP BY` with `COUNT(*)`, `COUNT`, `SUM`, `AVG`, `MIN`, `MAX`, `HAVING`,
//! * `ORDER BY … [ASC|DESC]`, `LIMIT`,
//! * `LOCALTIMESTAMP` (the paper's Query 1 compares deadlines against it),
//! * double-quoted table identifiers (`FROM "snapshot_orderinfo"`).
//!
//! Tables come from a [`catalog::Catalog`]. [`tables::GridCatalog`] adapts a
//! `squery-storage` grid: every live map is a table named after its operator
//! (key exposed as the `partitionKey` column), every snapshot store is a
//! `snapshot_<operator>` table with an additional `ssid` column. Snapshot
//! scans default to the latest committed snapshot id, resolved **once per
//! query** so a multi-table join reads one consistent snapshot — the
//! serializable-isolation path of the paper's §VII-B.
//!
//! `EXPLAIN <select>` renders the physical plan tree ([`explain`]);
//! `EXPLAIN ANALYZE <select>` executes the query under a forced trace and
//! annotates each node with measured rows, wall time, and claimed slices.

pub mod ast;
pub mod batch;
pub mod catalog;
pub mod display;
pub mod engine;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod systables;
pub mod tables;
pub mod vectorized;

pub use batch::{ColumnarBatch, BATCH_ROWS};
pub use catalog::{
    Catalog, ExecContext, ExecTrace, NodeStat, ScanHints, ScanSlices, SsidMode, Table,
};
pub use engine::{QueryLog, QueryLogEntry, ResultSet, SqlEngine};
pub use squery_common::config::Parallelism;
pub use systables::{SysRowProvider, SysTable};
pub use tables::GridCatalog;
