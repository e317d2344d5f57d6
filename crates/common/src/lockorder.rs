//! Runtime lock-order validation.
//!
//! `squery-lint`'s SQ001 check proves the *static* lock-acquisition graph is
//! acyclic; this module validates the same canonical order against *real*
//! executions. Every named lock in the engine is wrapped in a
//! [`LockClass`] with a fixed rank, and instrumented acquisition sites call
//! [`acquired`] just before taking the lock. When tracking is enabled, a
//! thread-local stack of currently-held classes is maintained and any
//! acquisition whose rank is lower than a rank already held — i.e. an
//! acquisition that contradicts the canonical order documented in
//! DESIGN.md §9 — records a [`Violation`] into a global list and panics.
//!
//! Tracking is off by default and costs a single relaxed atomic load per
//! acquisition. It is switched on by the `SQUERY_LOCK_ORDER` environment
//! variable (`1`/`true`) — the chaos soak in CI runs with it set — or
//! programmatically via [`set_enabled`] from tests. Because worker threads
//! run under `catch_unwind`, a violation panic alone could be swallowed by
//! the recovery path; the global [`violations`] list exists so harnesses can
//! assert the soak stayed clean even when every panic was recovered.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Every named lock family in the engine, ranked in canonical
/// acquisition order (outermost first). Acquiring a class while holding a
/// class with a *higher* rank is an order violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockClass {
    /// `Supervisor.status` — restart bookkeeping, taken by the monitor loop
    /// and health probes.
    SupervisorStatus,
    /// `Supervisor.job` — the supervised job handle; held across recovery.
    SupervisorJob,
    /// `squery-core` job table (`jobs` mutex in the engine front-end).
    CoreJobs,
    /// `SnapshotRegistry.in_progress` — the 2PC phase-1 reservation slot.
    RegistryInProgress,
    /// `SnapshotRegistry.committed` — the committed-snapshot deque; taken
    /// inside `in_progress` during phase-2 commit.
    RegistryCommitted,
    /// A job's phase-1 capture fence (`CaptureFence.round`): a background
    /// snapshot writer holds it (read) across one partition write, so it
    /// ranks before every storage lock that write takes.
    CaptureFence,
    /// `Grid.maps` / `Grid.snapshots` / `Grid.faults` — catalog of named
    /// maps and snapshot stores.
    GridCatalog,
    /// Partition placement table.
    PartitionTable,
    /// Replicator backup store and fault hook.
    Replication,
    /// A per-partition WAL segment file (appends, seals, truncation, and
    /// compaction all serialize on it). Acquired *before* the partition's
    /// in-memory snapshot data so the durable record always lands ahead of
    /// the version map it describes.
    WalSegment,
    /// Per-partition snapshot store data.
    SnapshotPartition,
    /// `SnapshotStore.exec_cache` — memoized executor structures (decoded
    /// column batches, frozen join tables) over committed snapshots; taken
    /// after the partition data locks are released, never inside them.
    ExecCache,
    /// `LockStripes` — the key-level stripe a live read/write holds for
    /// read-committed isolation.
    KeyStripe,
    /// `IMap` partition data map; taken inside the key stripe.
    PartitionMap,
    /// `IMap` metadata (value schema, write listener, telemetry hook).
    MapMeta,
    /// `IMap` recent-key ring feeding the heavy-hitter sketch; pushed to
    /// from the write path while the key stripe is still held.
    StatsRing,
    /// Per-table sketch state (`StateStats.tables`) — HLL, SpaceSaving,
    /// and rate baselines, taken by the sampler and catalog readers.
    SketchState,
    /// Checkpoint coordinator statistics.
    CheckpointStats,
    /// Metrics registry instrument maps (counters/gauges/histograms).
    Telemetry,
    /// Event-log ring buffer.
    EventRing,
    /// One of the span collector's sharded rings.
    SpanShard,
    /// A single histogram's bucket state.
    Histogram,
    /// Fault-injector plan/armed state.
    FaultState,
    /// A state backend's `release` lock, under which a frozen partition's
    /// handle is dropped (by its snapshot writer, or by the copy-on-write
    /// copy of a put). A leaf: only memory is freed under it.
    CaptureRelease,
}

impl LockClass {
    /// Canonical rank, outermost (acquired first) = lowest.
    pub fn rank(self) -> u8 {
        match self {
            LockClass::SupervisorStatus => 0,
            LockClass::SupervisorJob => 1,
            LockClass::CoreJobs => 2,
            LockClass::RegistryInProgress => 3,
            LockClass::RegistryCommitted => 4,
            LockClass::CaptureFence => 5,
            LockClass::GridCatalog => 6,
            LockClass::PartitionTable => 7,
            LockClass::Replication => 8,
            LockClass::WalSegment => 9,
            LockClass::SnapshotPartition => 10,
            LockClass::ExecCache => 11,
            LockClass::KeyStripe => 12,
            LockClass::PartitionMap => 13,
            LockClass::MapMeta => 14,
            LockClass::StatsRing => 15,
            LockClass::SketchState => 16,
            LockClass::CheckpointStats => 17,
            LockClass::Telemetry => 18,
            LockClass::EventRing => 19,
            LockClass::SpanShard => 20,
            LockClass::Histogram => 21,
            LockClass::FaultState => 22,
            LockClass::CaptureRelease => 23,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            LockClass::SupervisorStatus => "SupervisorStatus",
            LockClass::SupervisorJob => "SupervisorJob",
            LockClass::CoreJobs => "CoreJobs",
            LockClass::RegistryInProgress => "RegistryInProgress",
            LockClass::RegistryCommitted => "RegistryCommitted",
            LockClass::CaptureFence => "CaptureFence",
            LockClass::GridCatalog => "GridCatalog",
            LockClass::PartitionTable => "PartitionTable",
            LockClass::Replication => "Replication",
            LockClass::WalSegment => "WalSegment",
            LockClass::SnapshotPartition => "SnapshotPartition",
            LockClass::ExecCache => "ExecCache",
            LockClass::KeyStripe => "KeyStripe",
            LockClass::PartitionMap => "PartitionMap",
            LockClass::MapMeta => "MapMeta",
            LockClass::StatsRing => "StatsRing",
            LockClass::SketchState => "SketchState",
            LockClass::CheckpointStats => "CheckpointStats",
            LockClass::Telemetry => "Telemetry",
            LockClass::EventRing => "EventRing",
            LockClass::SpanShard => "SpanShard",
            LockClass::Histogram => "Histogram",
            LockClass::FaultState => "FaultState",
            LockClass::CaptureRelease => "CaptureRelease",
        }
    }
}

/// One recorded ordering violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Class being acquired when the violation was detected.
    pub acquiring: LockClass,
    /// Highest-ranked class already held by the thread.
    pub held: LockClass,
    /// Name of the offending thread, if it has one.
    pub thread: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lock-order violation: acquiring {} (rank {}) while holding {} (rank {}) on thread '{}'",
            self.acquiring.name(),
            self.acquiring.rank(),
            self.held.name(),
            self.held.rank(),
            self.thread
        )
    }
}

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static ENABLED: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static VIOLATIONS: Mutex<Vec<Violation>> = Mutex::new(Vec::new());

thread_local! {
    static HELD: RefCell<Vec<(u64, LockClass)>> = const { RefCell::new(Vec::new()) };
    static NEXT_TOKEN: RefCell<u64> = const { RefCell::new(0) };
}

fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = std::env::var("SQUERY_LOCK_ORDER")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false);
            ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Programmatically switch tracking on or off, overriding the environment.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Whether tracking is currently active.
pub fn is_enabled() -> bool {
    enabled()
}

/// Snapshot of all violations recorded so far (process-wide).
pub fn violations() -> Vec<Violation> {
    VIOLATIONS.lock().clone()
}

/// Drain and return all recorded violations.
pub fn take_violations() -> Vec<Violation> {
    std::mem::take(&mut *VIOLATIONS.lock())
}

/// RAII handle marking `class` as held by the current thread until drop.
///
/// Guards may be dropped in any order (not necessarily LIFO); each guard
/// removes exactly its own entry from the thread's held set.
#[must_use = "the lock is only considered held while the guard is alive"]
pub struct LockOrderGuard {
    token: u64,
    active: bool,
}

impl Drop for LockOrderGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|(t, _)| *t == self.token) {
                held.remove(pos);
            }
        });
    }
}

/// Record that the current thread is about to acquire a lock of `class`.
///
/// Call immediately *before* the actual lock call and keep the returned
/// guard alive for as long as the lock guard lives. When tracking is
/// disabled this is a single relaxed atomic load.
///
/// # Panics
///
/// Panics (after recording a [`Violation`]) if the thread already holds a
/// class with a higher canonical rank, since that acquisition order could
/// deadlock against a thread acquiring in the canonical order.
pub fn acquired(class: LockClass) -> LockOrderGuard {
    if !enabled() {
        return LockOrderGuard {
            token: 0,
            active: false,
        };
    }
    let rank = class.rank();
    let worst = HELD.with(|held| {
        held.borrow()
            .iter()
            .map(|&(_, c)| c)
            .max_by_key(|c| c.rank())
    });
    if let Some(held_class) = worst {
        if held_class.rank() > rank {
            let v = Violation {
                acquiring: class,
                held: held_class,
                thread: std::thread::current()
                    .name()
                    .unwrap_or("<unnamed>")
                    .to_string(),
            };
            VIOLATIONS.lock().push(v.clone());
            panic!("{v}");
        }
    }
    let token = NEXT_TOKEN.with(|t| {
        let mut t = t.borrow_mut();
        *t += 1;
        *t
    });
    HELD.with(|held| held.borrow_mut().push((token, class)));
    LockOrderGuard {
        token,
        active: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests mutate the process-wide enable flag and violation list, so they
    // serialize on this mutex.
    static TEST_SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_tracker_is_inert() {
        let _serial = TEST_SERIAL.lock();
        set_enabled(false);
        let _a = acquired(LockClass::PartitionMap);
        let _b = acquired(LockClass::KeyStripe); // would violate if enabled
        assert!(violations().is_empty());
    }

    #[test]
    fn canonical_order_is_silent() {
        let _serial = TEST_SERIAL.lock();
        set_enabled(true);
        take_violations();
        {
            let _a = acquired(LockClass::RegistryInProgress);
            let _b = acquired(LockClass::RegistryCommitted);
            let _c = acquired(LockClass::SpanShard);
        }
        // Non-LIFO drop order must also unwind cleanly.
        {
            let a = acquired(LockClass::KeyStripe);
            let b = acquired(LockClass::PartitionMap);
            drop(a);
            let _c = acquired(LockClass::MapMeta);
            drop(b);
        }
        set_enabled(false);
        assert!(take_violations().is_empty());
    }

    #[test]
    fn ab_ba_interleaving_fires() {
        let _serial = TEST_SERIAL.lock();
        set_enabled(true);
        take_violations();
        // Thread 1: A (KeyStripe) then B (PartitionMap) — canonical.
        // Thread 2: B then A — must panic and record a violation.
        let t1 = std::thread::Builder::new()
            .name("ab".into())
            .spawn(|| {
                let _a = acquired(LockClass::KeyStripe);
                let _b = acquired(LockClass::PartitionMap);
            })
            .unwrap();
        t1.join().unwrap();
        let t2 = std::thread::Builder::new()
            .name("ba".into())
            .spawn(|| {
                let _b = acquired(LockClass::PartitionMap);
                let _a = acquired(LockClass::KeyStripe);
            })
            .unwrap();
        let joined = t2.join();
        set_enabled(false);
        assert!(joined.is_err(), "B->A acquisition must panic");
        let vs = take_violations();
        assert_eq!(vs.len(), 1, "exactly one violation recorded: {vs:?}");
        assert_eq!(vs[0].acquiring, LockClass::KeyStripe);
        assert_eq!(vs[0].held, LockClass::PartitionMap);
        assert_eq!(vs[0].thread, "ba");
        assert!(vs[0].to_string().contains("lock-order violation"));
    }

    #[test]
    fn same_class_reentry_is_allowed() {
        let _serial = TEST_SERIAL.lock();
        set_enabled(true);
        take_violations();
        {
            // Two span shards (read paths iterate all shards in order).
            let _a = acquired(LockClass::SpanShard);
            let _b = acquired(LockClass::SpanShard);
        }
        set_enabled(false);
        assert!(take_violations().is_empty());
    }
}
