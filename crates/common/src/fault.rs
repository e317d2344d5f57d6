//! Deterministic fault injection.
//!
//! The availability claims of the paper (§IV–§V) only mean something if the
//! failure schedules are *reachable*: a worker dying between checkpoint
//! phase 1 and phase 2, a phase-1 ack that never arrives, a replication
//! backlog spike during node loss. This module provides a seeded
//! [`FaultPlan`] — injection points × trigger predicates — and a
//! [`FaultInjector`] whose hooks the engine consults at each injection
//! point. With no injector attached every hook site is a cheap `Option`
//! check; with one attached, the same seed reproduces the same fault
//! schedule, which is what makes the chaos soak deterministic.
//!
//! Every fired fault is appended to a log ([`FaultRecord`]) that backs the
//! `sys_faults` virtual table, so `SELECT * FROM sys_faults` shows each
//! injected fault with its injection point and eventual recovery outcome.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// SplitMix64 — a tiny deterministic PRNG (Steele et al., "Fast splittable
/// pseudorandom number generators"). The workspace vendors no `rand` crate;
/// this is all the randomness fault plans and jittered backoff need.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next pseudorandom 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[lo, hi)` (returns `lo` when the range is empty).
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        den != 0 && self.next_u64() % den < num
    }

    /// A uniformly chosen element of `items` (panics on an empty slice).
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_range(0, items.len() as u64) as usize]
    }
}

/// Exponential backoff with deterministic jitter: `base · 2^attempt`,
/// capped at `max`, plus up to 25% seeded jitter. Used by both the
/// checkpoint retry loop and the supervisor's restart policy.
pub fn backoff_with_jitter(base: Duration, attempt: u32, max: Duration, seed: u64) -> Duration {
    let exp = base.saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX));
    let capped = exp.min(max);
    let mut rng = SplitMix64::new(seed ^ ((u64::from(attempt) + 1) << 32));
    let jitter_us = rng.gen_range(0, (capped.as_micros() as u64 / 4).max(1));
    capped + Duration::from_micros(jitter_us)
}

/// Where in the engine a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionPoint {
    /// A worker (source or operator) instance, at its Nth record.
    WorkerRecord,
    /// A worker instance right after it acked phase 1 of a checkpoint —
    /// i.e. between phase 1 and phase 2 of the 2PC snapshot commit.
    WorkerPostAck,
    /// The coordinator receiving a phase-1 ack.
    Phase1Ack,
    /// The coordinator about to run phase 2 (the registry commit).
    Phase2Commit,
    /// The replicator applying a backup write.
    Replication,
    /// A whole node failing with backup promotion (`Grid::fail_node`).
    NodeLoss,
    /// A WAL delta append during checkpoint phase 1 (kill-during-write).
    WalAppend,
    /// The coordinator about to seal the round's WAL records with commit
    /// markers (kill-before-commit-marker).
    WalSeal,
    /// The coordinator just sealed the round on disk but has not yet run
    /// the in-memory registry commit (kill-after-commit-marker).
    WalSealed,
    /// WAL segment compaction after `prune_below` (kill-mid-compaction).
    WalCompact,
    /// A stateful instance's background snapshot writer, mid-capture:
    /// before the last partition write of its round.
    SnapshotCapture,
}

impl InjectionPoint {
    /// Stable snake_case label (the `point` column of `sys_faults`).
    pub fn as_str(&self) -> &'static str {
        match self {
            InjectionPoint::WorkerRecord => "worker_record",
            InjectionPoint::WorkerPostAck => "worker_post_ack",
            InjectionPoint::Phase1Ack => "phase1_ack",
            InjectionPoint::Phase2Commit => "phase2_commit",
            InjectionPoint::Replication => "replication",
            InjectionPoint::NodeLoss => "node_loss",
            InjectionPoint::WalAppend => "wal_append",
            InjectionPoint::WalSeal => "wal_seal",
            InjectionPoint::WalSealed => "wal_sealed",
            InjectionPoint::WalCompact => "wal_compact",
            InjectionPoint::SnapshotCapture => "snapshot_capture",
        }
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic the worker thread (its unwind is caught; the supervisor must
    /// escalate to rollback recovery).
    PanicWorker,
    /// Stall the worker for the given duration (alignment-stall pressure).
    StallWorker {
        /// Stall duration in microseconds.
        micros: u64,
    },
    /// Silently drop a phase-1 ack at the coordinator (forces an abort).
    DropAck,
    /// Delay a phase-1 ack at the coordinator.
    DelayAck {
        /// Delay in microseconds.
        micros: u64,
    },
    /// Fail the phase-2 registry commit (the round aborts and is retried).
    FailCommit,
    /// Kill the coordinator between phase 1 and phase 2: the round aborts
    /// and the coordinator stops serving triggers until recovery.
    KillCoordinator,
    /// Delay the replicator while applying one backup write (backlog spike).
    DelayReplication {
        /// Delay in microseconds.
        micros: u64,
    },
    /// Simulate a process kill mid-write: persist only the first
    /// `keep_bytes` of the record being appended, then freeze the WAL (all
    /// later disk writes silently vanish, as after a real kill).
    TornWrite {
        /// Bytes of the in-flight record that reach the disk.
        keep_bytes: u32,
    },
    /// Simulate a clean process kill: freeze the WAL so no later append,
    /// seal, truncate, or compaction reaches the disk. The in-memory system
    /// keeps running; recovery is validated by a cold start from the
    /// directory.
    FreezeWal,
}

impl FaultAction {
    /// Stable snake_case label (the `action` column of `sys_faults`).
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultAction::PanicWorker => "panic_worker",
            FaultAction::StallWorker { .. } => "stall_worker",
            FaultAction::DropAck => "drop_ack",
            FaultAction::DelayAck { .. } => "delay_ack",
            FaultAction::FailCommit => "fail_commit",
            FaultAction::KillCoordinator => "kill_coordinator",
            FaultAction::DelayReplication { .. } => "delay_replication",
            FaultAction::TornWrite { .. } => "torn_write",
            FaultAction::FreezeWal => "freeze_wal",
        }
    }

    /// Whether the action needs recovery to resolve (vs. being absorbed
    /// in-line, like a stall or delay).
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            FaultAction::PanicWorker
                | FaultAction::DropAck
                | FaultAction::FailCommit
                | FaultAction::KillCoordinator
                | FaultAction::TornWrite { .. }
                | FaultAction::FreezeWal
        )
    }
}

/// Trigger predicates selecting *when* a [`FaultSpec`] fires. Unset fields
/// match anything, except `at_record`, which is required for
/// [`InjectionPoint::WorkerRecord`] (a record fault must name its record).
#[derive(Debug, Clone, Default)]
pub struct FaultTrigger {
    /// Fire at the worker's Nth record (1-based, exact match).
    pub at_record: Option<u64>,
    /// Fire during this checkpoint round (snapshot id).
    pub at_ssid: Option<u64>,
    /// Restrict to one operator/source by name.
    pub operator: Option<String>,
    /// Restrict to one worker instance (or, at `Phase1Ack`, the 0-based
    /// ordinal of the ack within the round).
    pub instance: Option<u32>,
    /// Restrict to one grid partition (replication faults).
    pub partition: Option<u32>,
}

/// One planned fault: a point, an action, and trigger predicates.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Where it fires.
    pub point: InjectionPoint,
    /// What it does.
    pub action: FaultAction,
    /// When it fires.
    pub trigger: FaultTrigger,
    /// Fire at most once (the default for fatal actions in seeded plans).
    pub once: bool,
}

/// A seeded set of [`FaultSpec`]s. Build one explicitly for a targeted
/// scenario, or sample one with [`FaultPlan::seeded`] for the chaos soak.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// The planned faults.
    pub specs: Vec<FaultSpec>,
}

/// Shape of the randomized plans [`FaultPlan::seeded`] samples.
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Fatal faults to sample (1..=max, at least one).
    pub max_fatal: u32,
    /// Benign faults to sample (0..=max).
    pub max_benign: u32,
    /// Candidate `at_record` window (lo inclusive, hi exclusive).
    pub record_range: (u64, u64),
    /// Candidate `at_ssid` window (lo inclusive, hi exclusive).
    pub ssid_range: (u64, u64),
    /// Candidate operator names for worker faults.
    pub operators: Vec<String>,
    /// Instances per operator (worker faults pick one).
    pub instances: u32,
}

impl FaultPlan {
    /// An empty plan with a seed label.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Add a fault.
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// Sample a randomized plan from `seed`: 1..=`max_fatal` fatal faults
    /// with crash points spread across checkpoint phases (worker record,
    /// post-ack, ack drop, phase-2 failure, coordinator kill, snapshot
    /// writer death) plus up to `max_benign` stalls/delays (worker,
    /// ack, replication, snapshot writer). The same seed always yields the
    /// same plan.
    pub fn seeded(seed: u64, profile: &ChaosProfile) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new(seed);
        let n_fatal = rng.gen_range(1, u64::from(profile.max_fatal) + 1) as u32;
        for _ in 0..n_fatal {
            let spec = match rng.gen_range(0, 6) {
                0 => FaultSpec {
                    point: InjectionPoint::WorkerRecord,
                    action: FaultAction::PanicWorker,
                    trigger: FaultTrigger {
                        at_record: Some(
                            rng.gen_range(profile.record_range.0, profile.record_range.1),
                        ),
                        operator: Some(rng.pick(&profile.operators).clone()),
                        instance: Some(rng.gen_range(0, u64::from(profile.instances)) as u32),
                        ..FaultTrigger::default()
                    },
                    once: true,
                },
                1 => FaultSpec {
                    point: InjectionPoint::WorkerPostAck,
                    action: FaultAction::PanicWorker,
                    trigger: FaultTrigger {
                        at_ssid: Some(rng.gen_range(profile.ssid_range.0, profile.ssid_range.1)),
                        operator: Some(rng.pick(&profile.operators).clone()),
                        instance: Some(rng.gen_range(0, u64::from(profile.instances)) as u32),
                        ..FaultTrigger::default()
                    },
                    once: true,
                },
                2 => FaultSpec {
                    point: InjectionPoint::Phase1Ack,
                    action: FaultAction::DropAck,
                    trigger: FaultTrigger {
                        at_ssid: Some(rng.gen_range(profile.ssid_range.0, profile.ssid_range.1)),
                        ..FaultTrigger::default()
                    },
                    once: true,
                },
                5 => FaultSpec {
                    point: InjectionPoint::SnapshotCapture,
                    action: FaultAction::PanicWorker,
                    trigger: FaultTrigger {
                        at_ssid: Some(rng.gen_range(profile.ssid_range.0, profile.ssid_range.1)),
                        operator: Some(rng.pick(&profile.operators).clone()),
                        instance: Some(rng.gen_range(0, u64::from(profile.instances)) as u32),
                        ..FaultTrigger::default()
                    },
                    once: true,
                },
                3 => FaultSpec {
                    point: InjectionPoint::Phase2Commit,
                    action: FaultAction::FailCommit,
                    trigger: FaultTrigger {
                        at_ssid: Some(rng.gen_range(profile.ssid_range.0, profile.ssid_range.1)),
                        ..FaultTrigger::default()
                    },
                    once: true,
                },
                _ => FaultSpec {
                    point: InjectionPoint::Phase2Commit,
                    action: FaultAction::KillCoordinator,
                    trigger: FaultTrigger {
                        at_ssid: Some(rng.gen_range(profile.ssid_range.0, profile.ssid_range.1)),
                        ..FaultTrigger::default()
                    },
                    once: true,
                },
            };
            plan.specs.push(spec);
        }
        let n_benign = rng.gen_range(0, u64::from(profile.max_benign) + 1) as u32;
        for _ in 0..n_benign {
            let micros = rng.gen_range(200, 3_000);
            let spec = match rng.gen_range(0, 4) {
                0 => FaultSpec {
                    point: InjectionPoint::WorkerRecord,
                    action: FaultAction::StallWorker { micros },
                    trigger: FaultTrigger {
                        at_record: Some(
                            rng.gen_range(profile.record_range.0, profile.record_range.1),
                        ),
                        operator: Some(rng.pick(&profile.operators).clone()),
                        ..FaultTrigger::default()
                    },
                    once: true,
                },
                3 => FaultSpec {
                    point: InjectionPoint::SnapshotCapture,
                    action: FaultAction::StallWorker { micros },
                    trigger: FaultTrigger {
                        at_ssid: Some(rng.gen_range(profile.ssid_range.0, profile.ssid_range.1)),
                        operator: Some(rng.pick(&profile.operators).clone()),
                        ..FaultTrigger::default()
                    },
                    once: true,
                },
                1 => FaultSpec {
                    point: InjectionPoint::Phase1Ack,
                    action: FaultAction::DelayAck { micros },
                    trigger: FaultTrigger {
                        at_ssid: Some(rng.gen_range(profile.ssid_range.0, profile.ssid_range.1)),
                        ..FaultTrigger::default()
                    },
                    once: true,
                },
                _ => FaultSpec {
                    point: InjectionPoint::Replication,
                    action: FaultAction::DelayReplication { micros },
                    trigger: FaultTrigger::default(),
                    once: true,
                },
            };
            plan.specs.push(spec);
        }
        plan
    }
}

/// One fired fault, as listed by `sys_faults`.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// Firing order (1-based).
    pub seq: u64,
    /// Microseconds since the injector was created.
    pub at_us: u64,
    /// Where it fired.
    pub point: InjectionPoint,
    /// What it did.
    pub action: FaultAction,
    /// The operator/source it hit, if point-specific.
    pub operator: Option<String>,
    /// The worker instance (or ack ordinal) it hit.
    pub instance: Option<u32>,
    /// The checkpoint round it hit.
    pub ssid: Option<u64>,
    /// The grid partition it hit.
    pub partition: Option<u32>,
    /// Human-readable context.
    pub detail: String,
    /// Recovery outcome: `pending` until the supervisor or checkpoint-retry
    /// loop resolves it (`recovered`, `recovered_by_retry`, `gave_up`), or
    /// set immediately for in-line faults (`absorbed`, `promoted`).
    pub outcome: String,
}

struct ArmedSpec {
    spec: FaultSpec,
    fired: u64,
}

/// The engine-side fault driver: holds a plan, matches hook calls against
/// it, and logs every firing. Attached to the grid (`Grid::
/// attach_fault_injector`) so every subsystem reaches it the same way.
pub struct FaultInjector {
    armed: Mutex<Vec<ArmedSpec>>,
    log: Mutex<Vec<FaultRecord>>,
    seq: AtomicU64,
    started: Instant,
    seed: u64,
}

/// Panic messages raised by injected faults start with this prefix, so the
/// process-wide hook below can tell a *planned* crash from a real bug.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault: ";

/// Install (once per process) a panic hook that swallows the default stderr
/// report for panics whose message starts with [`INJECTED_PANIC_PREFIX`].
/// Those panics are raised on purpose by the injector and caught by the
/// supervisor's unwind path; printing them only buries real failures in
/// expected noise (and, under ThreadSanitizer, two workers panicking at once
/// trip false races inside std's uninstrumented stderr serialization). Every
/// other panic still goes through the previously installed hook.
fn silence_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if msg.is_some_and(|m| m.starts_with(INJECTED_PANIC_PREFIX)) {
                return;
            }
            previous(info);
        }));
    });
}

impl FaultInjector {
    /// An injector driving `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        silence_injected_panics();
        FaultInjector {
            seed: plan.seed,
            armed: Mutex::new(
                plan.specs
                    .into_iter()
                    .map(|spec| ArmedSpec { spec, fired: 0 })
                    .collect(),
            ),
            log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Worker hook: `operator` instance `instance` is about to process its
    /// `nth` record (1-based). Returns the action to apply, if any.
    pub fn on_worker_record(&self, operator: &str, instance: u32, nth: u64) -> Option<FaultAction> {
        self.fire(InjectionPoint::WorkerRecord, |t| {
            t.at_record == Some(nth)
                && t.operator.as_deref().is_none_or(|o| o == operator)
                && t.instance.is_none_or(|i| i == instance)
        })
        .inspect(|&action| {
            self.record(
                action,
                InjectionPoint::WorkerRecord,
                Some(operator),
                Some(instance),
                None,
                None,
                format!("at record {nth}"),
            );
        })
    }

    /// Worker hook: `operator` instance `instance` just acked phase 1 of
    /// checkpoint `ssid` (and has not yet forwarded the marker).
    pub fn on_worker_post_ack(
        &self,
        operator: &str,
        instance: u32,
        ssid: u64,
    ) -> Option<FaultAction> {
        self.fire(InjectionPoint::WorkerPostAck, |t| {
            t.at_ssid.is_none_or(|s| s == ssid)
                && t.operator.as_deref().is_none_or(|o| o == operator)
                && t.instance.is_none_or(|i| i == instance)
        })
        .inspect(|&action| {
            self.record(
                action,
                InjectionPoint::WorkerPostAck,
                Some(operator),
                Some(instance),
                Some(ssid),
                None,
                "between checkpoint phase 1 and phase 2".into(),
            );
        })
    }

    /// Writer hook: the background snapshot writer of `operator` instance
    /// `instance` is mid-capture of round `ssid` (about to make its last
    /// partition write).
    pub fn on_snapshot_capture(
        &self,
        operator: &str,
        instance: u32,
        ssid: u64,
    ) -> Option<FaultAction> {
        self.fire(InjectionPoint::SnapshotCapture, |t| {
            t.at_ssid.is_none_or(|s| s == ssid)
                && t.operator.as_deref().is_none_or(|o| o == operator)
                && t.instance.is_none_or(|i| i == instance)
        })
        .inspect(|&action| {
            self.record(
                action,
                InjectionPoint::SnapshotCapture,
                Some(operator),
                Some(instance),
                Some(ssid),
                None,
                "mid-capture, before the last partition write".into(),
            );
        })
    }

    /// Coordinator hook: the `ordinal`-th phase-1 ack of round `ssid`
    /// arrived.
    pub fn on_phase1_ack(&self, ssid: u64, ordinal: u32) -> Option<FaultAction> {
        self.fire(InjectionPoint::Phase1Ack, |t| {
            t.at_ssid.is_none_or(|s| s == ssid) && t.instance.is_none_or(|i| i == ordinal)
        })
        .inspect(|&action| {
            self.record(
                action,
                InjectionPoint::Phase1Ack,
                None,
                Some(ordinal),
                Some(ssid),
                None,
                format!("ack {ordinal} of round {ssid}"),
            );
        })
    }

    /// Coordinator hook: phase 2 (registry commit) of round `ssid` is about
    /// to run — all phase-1 acks are in.
    pub fn on_phase2(&self, ssid: u64) -> Option<FaultAction> {
        self.fire(InjectionPoint::Phase2Commit, |t| {
            t.at_ssid.is_none_or(|s| s == ssid)
        })
        .inspect(|&action| {
            self.record(
                action,
                InjectionPoint::Phase2Commit,
                None,
                None,
                Some(ssid),
                None,
                "before registry commit".into(),
            );
        })
    }

    /// Replicator hook: a backup write for `partition` is being applied.
    pub fn on_replication_op(&self, partition: u32) -> Option<FaultAction> {
        self.fire(InjectionPoint::Replication, |t| {
            t.partition.is_none_or(|p| p == partition)
        })
        .inspect(|&action| {
            self.record(
                action,
                InjectionPoint::Replication,
                None,
                None,
                None,
                Some(partition),
                "while applying backup write".into(),
            );
        })
    }

    /// WAL hook: `store` is about to append a phase-1 delta record for
    /// partition `partition` of round `ssid`.
    pub fn on_wal_append(&self, store: &str, ssid: u64, partition: u32) -> Option<FaultAction> {
        self.fire(InjectionPoint::WalAppend, |t| {
            t.at_ssid.is_none_or(|s| s == ssid)
                && t.operator.as_deref().is_none_or(|o| o == store)
                && t.partition.is_none_or(|p| p == partition)
        })
        .inspect(|&action| {
            self.record(
                action,
                InjectionPoint::WalAppend,
                Some(store),
                None,
                Some(ssid),
                Some(partition),
                "during phase-1 WAL append".into(),
            );
        })
    }

    /// WAL hook: the coordinator is about to seal round `ssid` on disk
    /// (write commit markers to every touched segment).
    pub fn on_wal_seal(&self, ssid: u64) -> Option<FaultAction> {
        self.fire(InjectionPoint::WalSeal, |t| {
            t.at_ssid.is_none_or(|s| s == ssid)
        })
        .inspect(|&action| {
            self.record(
                action,
                InjectionPoint::WalSeal,
                None,
                None,
                Some(ssid),
                None,
                "before WAL commit markers".into(),
            );
        })
    }

    /// WAL hook: round `ssid` is sealed on disk; the in-memory registry
    /// commit has not run yet.
    pub fn on_wal_sealed(&self, ssid: u64) -> Option<FaultAction> {
        self.fire(InjectionPoint::WalSealed, |t| {
            t.at_ssid.is_none_or(|s| s == ssid)
        })
        .inspect(|&action| {
            self.record(
                action,
                InjectionPoint::WalSealed,
                None,
                None,
                Some(ssid),
                None,
                "after WAL commit markers, before registry commit".into(),
            );
        })
    }

    /// WAL hook: segment compaction is rewriting `store` partition
    /// `partition` (fires between writing the replacement file and the
    /// atomic rename).
    pub fn on_wal_compact(&self, store: &str, partition: u32) -> Option<FaultAction> {
        self.fire(InjectionPoint::WalCompact, |t| {
            t.operator.as_deref().is_none_or(|o| o == store)
                && t.partition.is_none_or(|p| p == partition)
        })
        .inspect(|&action| {
            self.record(
                action,
                InjectionPoint::WalCompact,
                Some(store),
                None,
                None,
                Some(partition),
                "mid-compaction, before rename".into(),
            );
        })
    }

    /// Grid hook: node `node` was failed and `promoted` backup partitions
    /// took over (record-only — the loss itself is driven by the caller).
    pub fn on_node_loss(&self, node: u32, promoted: usize) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let _lo = crate::lockorder::acquired(crate::lockorder::LockClass::FaultState);
        self.log.lock().push(FaultRecord {
            seq,
            at_us: self.started.elapsed().as_micros() as u64,
            point: InjectionPoint::NodeLoss,
            action: FaultAction::PanicWorker,
            operator: None,
            instance: Some(node),
            ssid: None,
            partition: None,
            detail: format!("node {node} lost, {promoted} partitions promoted"),
            outcome: format!("promoted_{promoted}"),
        });
    }

    fn fire(
        &self,
        point: InjectionPoint,
        matches: impl Fn(&FaultTrigger) -> bool,
    ) -> Option<FaultAction> {
        let _lo = crate::lockorder::acquired(crate::lockorder::LockClass::FaultState);
        let mut armed = self.armed.lock();
        for a in armed.iter_mut() {
            if a.spec.point != point || (a.spec.once && a.fired > 0) {
                continue;
            }
            if matches(&a.spec.trigger) {
                a.fired += 1;
                return Some(a.spec.action);
            }
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        action: FaultAction,
        point: InjectionPoint,
        operator: Option<&str>,
        instance: Option<u32>,
        ssid: Option<u64>,
        partition: Option<u32>,
        detail: String,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let _lo = crate::lockorder::acquired(crate::lockorder::LockClass::FaultState);
        self.log.lock().push(FaultRecord {
            seq,
            at_us: self.started.elapsed().as_micros() as u64,
            point,
            action,
            operator: operator.map(str::to_string),
            instance,
            ssid,
            partition,
            detail,
            outcome: if action.is_fatal() {
                "pending".into()
            } else {
                "absorbed".into()
            },
        });
    }

    /// Snapshot of every fired fault, in firing order.
    pub fn records(&self) -> Vec<FaultRecord> {
        let _lo = crate::lockorder::acquired(crate::lockorder::LockClass::FaultState);
        self.log.lock().clone()
    }

    /// How many faults have fired.
    pub fn fired(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Stamp every `pending` record with `outcome` (called by the
    /// checkpoint retry loop and the supervisor once recovery settles).
    /// Returns how many records were resolved.
    pub fn resolve_pending(&self, outcome: &str) -> usize {
        let _lo = crate::lockorder::acquired(crate::lockorder::LockClass::FaultState);
        let mut log = self.log.lock();
        let mut n = 0;
        for r in log.iter_mut() {
            if r.outcome == "pending" {
                r.outcome = outcome.to_string();
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut dedup = xs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), xs.len(), "no collisions in 32 draws");
        let mut c = SplitMix64::new(42);
        for _ in 0..100 {
            let v = c.gen_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(100);
        let b0 = backoff_with_jitter(base, 0, max, 7);
        let b3 = backoff_with_jitter(base, 3, max, 7);
        let b9 = backoff_with_jitter(base, 9, max, 7);
        assert!(b0 >= base && b0 < base * 2);
        assert!(b3 >= base * 8);
        assert!(b9 <= max + max / 4, "jitter bounded by 25% of the cap");
        assert_eq!(b3, backoff_with_jitter(base, 3, max, 7));
        // Overflow-safe at absurd attempt counts.
        let _ = backoff_with_jitter(base, u32::MAX, max, 7);
    }

    #[test]
    fn worker_record_trigger_matches_exactly_once() {
        let plan = FaultPlan::new(0).with(FaultSpec {
            point: InjectionPoint::WorkerRecord,
            action: FaultAction::PanicWorker,
            trigger: FaultTrigger {
                at_record: Some(5),
                operator: Some("count".into()),
                instance: Some(1),
                ..FaultTrigger::default()
            },
            once: true,
        });
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_worker_record("count", 1, 4), None);
        assert_eq!(inj.on_worker_record("other", 1, 5), None);
        assert_eq!(inj.on_worker_record("count", 0, 5), None);
        assert_eq!(
            inj.on_worker_record("count", 1, 5),
            Some(FaultAction::PanicWorker)
        );
        // `once` — a replayed 5th record does not re-fire.
        assert_eq!(inj.on_worker_record("count", 1, 5), None);
        let records = inj.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].point.as_str(), "worker_record");
        assert_eq!(records[0].outcome, "pending");
    }

    #[test]
    fn snapshot_capture_trigger_keys_on_operator_and_round() {
        let plan = FaultPlan::new(0).with(FaultSpec {
            point: InjectionPoint::SnapshotCapture,
            action: FaultAction::StallWorker { micros: 5 },
            trigger: FaultTrigger {
                at_ssid: Some(3),
                operator: Some("count".into()),
                ..FaultTrigger::default()
            },
            once: true,
        });
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_snapshot_capture("count", 0, 2), None);
        assert_eq!(inj.on_snapshot_capture("other", 0, 3), None);
        assert_eq!(
            inj.on_snapshot_capture("count", 1, 3),
            Some(FaultAction::StallWorker { micros: 5 })
        );
        let records = inj.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].point.as_str(), "snapshot_capture");
        assert_eq!(records[0].ssid, Some(3));
        assert_eq!(records[0].outcome, "absorbed");
    }

    #[test]
    fn pending_outcomes_resolve() {
        let plan = FaultPlan::new(0)
            .with(FaultSpec {
                point: InjectionPoint::Phase2Commit,
                action: FaultAction::FailCommit,
                trigger: FaultTrigger::default(),
                once: true,
            })
            .with(FaultSpec {
                point: InjectionPoint::Phase1Ack,
                action: FaultAction::DelayAck { micros: 10 },
                trigger: FaultTrigger::default(),
                once: true,
            });
        let inj = FaultInjector::new(plan);
        assert!(inj.on_phase2(1).is_some());
        assert!(inj.on_phase1_ack(2, 0).is_some());
        assert_eq!(inj.resolve_pending("recovered_by_retry"), 1);
        let outcomes: Vec<_> = inj.records().into_iter().map(|r| r.outcome).collect();
        assert!(outcomes.contains(&"recovered_by_retry".to_string()));
        assert!(outcomes.contains(&"absorbed".to_string()));
    }

    #[test]
    fn seeded_plans_reproduce_and_contain_a_fatal_fault() {
        let profile = ChaosProfile {
            max_fatal: 2,
            max_benign: 2,
            record_range: (1, 100),
            ssid_range: (1, 4),
            operators: vec!["count".into(), "events".into()],
            instances: 2,
        };
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, &profile);
            let b = FaultPlan::seeded(seed, &profile);
            assert_eq!(a.specs.len(), b.specs.len());
            for (x, y) in a.specs.iter().zip(&b.specs) {
                assert_eq!(x.point, y.point);
                assert_eq!(x.action, y.action);
                assert_eq!(x.trigger.at_record, y.trigger.at_record);
                assert_eq!(x.trigger.at_ssid, y.trigger.at_ssid);
                assert_eq!(x.trigger.operator, y.trigger.operator);
            }
            assert!(
                a.specs.iter().any(|s| s.action.is_fatal()),
                "every chaos plan exercises at least one fatal fault"
            );
        }
    }

    #[test]
    fn node_loss_records_promotion_outcome() {
        let inj = FaultInjector::new(FaultPlan::new(0));
        inj.on_node_loss(2, 7);
        let r = inj.records();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].point, InjectionPoint::NodeLoss);
        assert_eq!(r[0].outcome, "promoted_7");
    }
}
