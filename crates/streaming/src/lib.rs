//! # squery-streaming
//!
//! A shared-nothing DAG stream processor — this reproduction's analogue of
//! Hazelcast Jet, the host system of the paper's S-QUERY implementation
//! (§VI-A). It provides everything S-QUERY's mechanisms hook into:
//!
//! * **Dataflow model** (§IV "Streaming Model"): jobs are DAGs of operators;
//!   partitioned operators run as parallel single-threaded instances connected
//!   by forward or keyed (hash-partitioned) edges. Keyed routing uses the
//!   *same* partitioner as the storage grid, so instance `i`'s keys live in
//!   grid partitions owned by instance `i`'s node — the co-partitioning
//!   contract (§II).
//! * **Aligned checkpoints** (§IV, Figure 3): the checkpoint coordinator
//!   injects markers at the sources; multi-input operators align (buffering
//!   records from channels whose marker already arrived), freeze their
//!   state and forward the marker, while a background writer persists the
//!   frozen state and acks. Exactly-once rollback recovery
//!   restores operator state and source offsets from the latest committed
//!   snapshot.
//! * **2PC snapshot commit** (§IX-C): phase 1 = all instances have written
//!   their snapshot data and acked; phase 2 = the snapshot registry's atomic
//!   flip plus retention pruning. Both phase durations are recorded at the
//!   coordinator, exactly where the paper measures them.
//! * **State backends** ([`state`]): local-only (the plain-Jet baseline with
//!   opaque blob snapshots), queryable snapshots (full or incremental per-key
//!   entries), and live write-through into the grid's `IMap`s — the
//!   live/snapshot/both configurations of Figure 8.
//! * **Latency stamping**: sources stamp records at their *scheduled* emission
//!   time (avoiding coordinated omission under offered load); sinks record
//!   source-to-sink latency into shared histograms, the measurement of
//!   Figures 8 and 9.
//! * **Supervised recovery** ([`runtime::SupervisedJob`]): a monitor thread
//!   detects dead workers and killed coordinators and re-runs rollback
//!   recovery under a bounded restart policy with exponential backoff —
//!   queries keep serving the last committed snapshot throughout. Faults can
//!   be injected deterministically via
//!   [`squery_common::fault::FaultInjector`] hooks threaded through the
//!   workers and the coordinator.

pub mod checkpoint;
pub mod dag;
pub mod message;
pub mod runtime;
pub mod source;
pub mod state;
pub mod worker;

pub use dag::{EdgeKind, JobSpec, VertexKind, VertexSpec};
pub use message::{Item, Record};
pub use runtime::{
    EngineConfig, JobHandle, JobReport, RestartPolicy, StateConfig, StreamEnv, SupervisedJob,
    SupervisorStatus,
};
pub use source::{GeneratorSource, SourceStatus};
