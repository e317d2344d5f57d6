//! # squery-common
//!
//! Shared primitives for the S-QUERY reproduction (ICDE 2022,
//! "S-QUERY: Opening the Black Box of Internal Stream Processor State").
//!
//! This crate holds everything the substrates agree on:
//!
//! * [`value::Value`] — the dynamic value model used for stream events, operator
//!   state objects, and SQL rows. State objects stored in the grid are usually
//!   [`value::Value::Struct`] values, which is what lets the SQL layer see
//!   their fields as columns (mirroring how Hazelcast IMDG exposes object
//!   fields to its SQL engine).
//! * [`schema::Schema`] — named, typed field lists for struct values and tables.
//! * [`codec`] — a compact self-describing binary encoding for values, used to
//!   size snapshots, ship replication traffic, and hash keys deterministically.
//! * [`partition::Partitioner`] — the single hash-partitioning function shared
//!   by the stream engine's keyed exchanges and the storage grid's partition
//!   table. Sharing it is what makes the paper's *co-location of state and
//!   compute* (§II, §V-A) possible: the operator instance that owns a key and
//!   the grid partition that stores the key's live state land on the same node.
//! * [`metrics`] — log-linear histograms with the high-percentile reporting
//!   the paper's evaluation uses (0th–99.99th on an inverted log scale).
//! * [`telemetry`] — the engine-wide [`telemetry::MetricsRegistry`] of
//!   counters/gauges/histograms plus the bounded [`telemetry::EventLog`] of
//!   structured engine events; the backing store for the `sys_*` SQL tables
//!   and the Prometheus/JSON exports.
//! * [`trace`] — structured span tracing: the lock-sharded
//!   [`trace::SpanCollector`] of `Span { id, parent, kind, labels, start_us,
//!   end_us }` trees behind `sys_spans`, `EXPLAIN ANALYZE`, and the Chrome
//!   trace-event export.
//! * [`time::Clock`] — wall or manually-driven clocks so integration tests can
//!   be deterministic.
//! * [`fault`] — deterministic, seeded fault injection: the [`fault::FaultPlan`]
//!   / [`fault::FaultInjector`] the engine's injection points consult, plus the
//!   hand-rolled [`fault::SplitMix64`] PRNG and jittered-backoff helper.
//! * [`lockorder`] — the runtime lock-order validator: a thread-local stack of
//!   held [`lockorder::LockClass`]es that panics (and records a violation) on
//!   any acquisition contradicting the canonical order `squery-lint` proves
//!   statically. Off by default; `SQUERY_LOCK_ORDER=1` arms it.
//! * [`morsel`] — the one worker pool: [`morsel::claim_units`] runs numbered
//!   work units on the caller's thread plus `dop - 1` scoped helpers and
//!   returns results in unit order; the SQL executor and the direct object
//!   interface both fan out through it.
//! * [`names`] — the registry of every metric, span, and event name the
//!   engine may emit; `squery-lint` SQ003 keeps call sites honest against it.
//! * [`error`] — the shared error type.

pub mod codec;
pub mod config;
pub mod error;
pub mod fault;
pub mod ids;
pub mod lockorder;
pub mod metrics;
pub mod morsel;
pub mod names;
pub mod partition;
pub mod schema;
pub mod sketch;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod value;

pub use error::{SqError, SqResult};
pub use ids::{NodeId, OperatorId, PartitionId, SnapshotId};
pub use partition::Partitioner;
pub use schema::{DataType, Field, Schema};
pub use value::Value;
