//! The checkpoint coordinator: marker injection and 2PC snapshot commit.
//!
//! One coordinator thread per job. Each round (periodic, or manually
//! triggered for deterministic tests):
//!
//! 1. **begin** — allocate the next snapshot id at the registry (probe t₀,
//!    the paper's "before phase 1 begins");
//! 2. **phase 1** — inject `Marker(ssid)` into every source instance and wait
//!    for one ack per live instance: every ack means that instance has
//!    snapshotted its state (probe t₁, "after phase 1 completes");
//! 3. **phase 2** — atomically commit the id at the registry and prune every
//!    snapshot store to the retention horizon (probe t₂, "after phase 2
//!    completes").
//!
//! The recorded `(t₁−t₀, t₂−t₀)` pairs are exactly the snapshot-2PC latency
//! distribution of the paper's Figures 10–12. If acks do not arrive in time
//! (a crashed worker), the checkpoint aborts: phase-1 writes are discarded
//! and the registry releases the id — queries keep reading the previous
//! committed snapshot throughout, as in Figure 1.
//!
//! Stateful instances persist their phase-1 state on a background writer
//! (`crate::state`), which may still be writing when a round aborts. The
//! job's [`CaptureFence`] orders the two: the round is open from marker
//! injection until phase 1 ends, each partition write runs inside the
//! fence, and closing the round waits for the writes in flight. An abort
//! therefore discards after the round's last write, and no write of the
//! round lands after the discard.

use crate::worker::{Ack, Shared, SourceCommand};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use squery_common::fault::{backoff_with_jitter, FaultAction};
use squery_common::lockorder::{self, LockClass};
use squery_common::telemetry::EventKind;
use squery_common::trace::{SpanCollector, SpanGuard};
use squery_common::{SnapshotId, SqError, SqResult};
use squery_storage::{Grid, SnapshotFreshness, SnapshotStore};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Timing record of one committed checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// The committed snapshot id.
    pub ssid: SnapshotId,
    /// t₀ on the engine clock: when the round began (marker injection), in µs.
    pub began_at_us: u64,
    /// t₁−t₀: marker injection until the last phase-1 ack, in µs.
    pub phase1_us: u64,
    /// t₂−t₀: full 2PC duration including commit + pruning, in µs.
    pub total_us: u64,
    /// The round's global low watermark — the minimum event-time frontier
    /// over all phase-1 acks — rebased into µs since the unix epoch so it
    /// stays meaningful after recovery (0 = no instance reported one).
    pub watermark_us: u64,
    /// Seal stamp in µs since the unix epoch, taken immediately before the
    /// durable seal. Epoch-domain so a restarted process can still bound
    /// the snapshot's age.
    pub sealed_at_us: u64,
}

/// Shared, append-only log of committed checkpoints.
#[derive(Clone, Default)]
pub struct CheckpointStats {
    records: Arc<Mutex<Vec<CheckpointRecord>>>,
    aborted: Arc<Mutex<u64>>,
}

impl CheckpointStats {
    /// A new empty log.
    pub fn new() -> CheckpointStats {
        CheckpointStats::default()
    }

    fn push(&self, record: CheckpointRecord) {
        let _lo = lockorder::acquired(LockClass::CheckpointStats);
        self.records.lock().push(record);
    }

    fn count_abort(&self) {
        let _lo = lockorder::acquired(LockClass::CheckpointStats);
        let _lo = lockorder::acquired(LockClass::CheckpointStats);
        *self.aborted.lock() += 1;
    }

    /// All committed checkpoint timings so far.
    pub fn records(&self) -> Vec<CheckpointRecord> {
        let _lo = lockorder::acquired(LockClass::CheckpointStats);
        self.records.lock().clone()
    }

    /// Number of aborted checkpoint attempts.
    pub fn aborted(&self) -> u64 {
        let _lo = lockorder::acquired(LockClass::CheckpointStats);
        *self.aborted.lock()
    }
}

/// The phase-1 write fence of one job (see the module docs).
#[derive(Default)]
pub struct CaptureFence {
    /// The round whose writes are admitted. A write runs under the read
    /// lock; closing takes the write lock, so it waits out every write in
    /// flight.
    round: RwLock<Option<SnapshotId>>,
}

impl CaptureFence {
    /// Admit phase-1 writes of round `ssid` (and of no other round).
    pub fn open(&self, ssid: SnapshotId) {
        let _lo = lockorder::acquired(LockClass::CaptureFence);
        *self.round.write() = Some(ssid);
    }

    /// Run `write` as a write of round `ssid` if that round is open. False,
    /// without running it, once the round is closed: the writer must write
    /// nothing more.
    pub fn admit(&self, ssid: SnapshotId, write: impl FnOnce()) -> bool {
        let _lo = lockorder::acquired(LockClass::CaptureFence);
        let round = self.round.read();
        if *round != Some(ssid) {
            return false;
        }
        write();
        true
    }

    /// Close round `ssid`, waiting until no write of it is in flight.
    pub fn close(&self, ssid: SnapshotId) {
        let _lo = lockorder::acquired(LockClass::CaptureFence);
        let mut round = self.round.write();
        if *round == Some(ssid) {
            *round = None;
        }
    }
}

/// Everything one checkpoint round needs.
pub struct CoordinatorContext {
    /// The grid (registry + pruning targets).
    pub grid: Arc<Grid>,
    /// Control channels into every source instance.
    pub source_controls: Vec<Sender<SourceCommand>>,
    /// Phase-1 ack stream from all instances.
    pub ack_rx: Receiver<Ack>,
    /// Shared worker state (live-instance count, clock, poison).
    pub shared: Arc<Shared>,
    /// Snapshot stores this job writes (for pruning and abort-discard),
    /// including the `__offsets` store.
    pub stores: Vec<Arc<SnapshotStore>>,
    /// Timing log.
    pub stats: CheckpointStats,
    /// How long to wait for phase-1 acks before aborting.
    pub ack_timeout: Duration,
    /// How many times an aborted round is retried with backoff before the
    /// error surfaces (0 = the pre-supervision behaviour).
    pub retries: u32,
    /// Base backoff between retries (exponential, jittered).
    pub retry_backoff: Duration,
}

/// RAII wrapper around a round's `checkpoint_round` root span. Publishes
/// the root id as the collector's *current round* so worker threads can
/// parent their marker-alignment spans under it, and clears the publication
/// on every exit path (the root span itself files when the inner guard
/// drops, after the clear). Inert when tracing is disabled.
struct RoundSpan {
    collector: SpanCollector,
    guard: SpanGuard,
}

impl RoundSpan {
    fn begin(collector: &SpanCollector, ssid: SnapshotId) -> RoundSpan {
        let mut guard = collector.start("checkpoint_round");
        guard.label("ssid", ssid.0);
        collector.set_current_round(guard.id());
        RoundSpan {
            collector: collector.clone(),
            guard,
        }
    }

    /// A phase span nested under the round root (inert when the root is).
    fn child(&self, kind: &'static str) -> SpanGuard {
        match self.guard.id() {
            Some(id) => self.collector.child(kind, id),
            None => SpanGuard::inert(),
        }
    }
}

impl Drop for RoundSpan {
    fn drop(&mut self) {
        self.collector.set_current_round(None);
    }
}

/// Funnel for *every* early exit of [`run_checkpoint`]: close the round
/// (waiting out its in-flight writes), discard phase-1 writes from all
/// stores, release the registry id, count and log the abort. The registry
/// abort is tolerant — a concurrent `crash()` may have already released the
/// id — so an aborted round can never wedge the next `begin()`.
fn abort_round(ctx: &CoordinatorContext, ssid: SnapshotId, reason: &str) -> SqError {
    let spans = ctx.grid.telemetry().spans();
    let mut abort_span = match spans.current_round() {
        Some(root) => spans.child("checkpoint_abort", root),
        None => spans.start("checkpoint_abort"),
    };
    abort_span.label("ssid", ssid.0);
    abort_span.label("reason", reason);
    ctx.shared.captures.close(ssid);
    for store in &ctx.stores {
        store.discard(ssid);
    }
    if let Err(e) = ctx.grid.registry().abort(ssid) {
        // Already released by a racing crash/abort — log, don't fail: the
        // invariant we need (nothing left in-progress under this id) holds.
        ctx.grid.telemetry().event(
            EventKind::CheckpointAborted,
            None,
            Some(ssid.0),
            None,
            format!("registry already released: {e}"),
        );
    }
    ctx.stats.count_abort();
    ctx.grid.telemetry().event(
        EventKind::CheckpointAborted,
        None,
        Some(ssid.0),
        None,
        reason.to_string(),
    );
    SqError::Runtime(format!("checkpoint {ssid} aborted: {reason}"))
}

/// Run one complete checkpoint round; returns the committed id.
pub fn run_checkpoint(ctx: &CoordinatorContext) -> SqResult<SnapshotId> {
    // Drain stale acks from a previously aborted round.
    while ctx.ack_rx.try_recv().is_ok() {}

    let registry = ctx.grid.registry();
    let telemetry = ctx.grid.telemetry();
    let injector = ctx.grid.fault_injector();
    let t0 = ctx.shared.clock.now_micros();
    let ssid = registry.begin()?;
    let round = RoundSpan::begin(telemetry.spans(), ssid);
    let mut phase1_span = round.child("checkpoint_phase1");
    telemetry.event(EventKind::CheckpointBegin, None, Some(ssid.0), None, "");
    // Read the ack quota *before* injecting markers: a worker that acks and
    // then dies in reaction to the marker must not deflate `expected` first,
    // or the wait loop and the dead-worker abort guard (both conditioned on
    // `acked < expected`) are skipped and the torn round commits. Graceful
    // exits in the window are still handled by the in-loop `acked >= live`
    // re-check.
    let expected = ctx.shared.live_instances.load(Ordering::Acquire) as usize;
    ctx.shared.captures.open(ssid);
    for ctl in &ctx.source_controls {
        // A dropped source control means the job is shutting down.
        if ctl.send(SourceCommand::Marker(ssid)).is_err() {
            return Err(abort_round(ctx, ssid, "job is shutting down"));
        }
    }
    let mut acked = 0usize;
    let mut ack_ordinal = 0u32;
    // Global low watermark of the consistent cut: min over the frontiers
    // the acks carry. Zero frontiers (instance saw no event time yet) are
    // excluded so one cold instance doesn't erase the known bound.
    let mut low_wm = u64::MAX;
    let deadline = std::time::Instant::now() + ctx.ack_timeout;
    while acked < expected {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            break;
        }
        match ctx
            .ack_rx
            .recv_timeout(remaining.min(Duration::from_millis(20)))
        {
            Ok(ack) if ack.ssid == ssid => {
                let action = injector
                    .as_ref()
                    .and_then(|i| i.on_phase1_ack(ssid.0, ack_ordinal));
                ack_ordinal += 1;
                match action {
                    // Lost on the wire: the instance snapshotted, but the
                    // coordinator never learns — the round times out.
                    Some(FaultAction::DropAck) => continue,
                    Some(FaultAction::DelayAck { micros }) => {
                        std::thread::sleep(Duration::from_micros(micros));
                        acked += 1;
                    }
                    _ => acked += 1,
                }
                if ack.watermark_us > 0 {
                    low_wm = low_wm.min(ack.watermark_us);
                }
            }
            Ok(_) => {} // stale ack from an aborted round
            Err(_) => {
                // A panicked worker can never ack: stop waiting right away.
                if ctx.shared.dead_workers.load(Ordering::Acquire) > 0 {
                    break;
                }
                // Re-check: instances may have exited (lowering `expected`).
                let live = ctx.shared.live_instances.load(Ordering::Acquire) as usize;
                if acked >= live {
                    break;
                }
                if ctx.shared.poison.load(Ordering::Acquire) {
                    break;
                }
            }
        }
    }
    // A worker *death* (as opposed to a graceful exit during shutdown)
    // makes the round unsalvageable: instances downstream of the dead one
    // tear down without snapshotting, so committing whatever acks arrived
    // would publish a torn snapshot — exactly the state recovery would
    // then restore. Abort and leave the last committed snapshot in place.
    let dead = ctx.shared.dead_workers.load(Ordering::Acquire);
    if acked < expected && dead > 0 {
        return Err(abort_round(
            ctx,
            ssid,
            &format!("{acked}/{expected} acks, {dead} dead worker(s)"),
        ));
    }
    let live_now = ctx.shared.live_instances.load(Ordering::Acquire) as usize;
    if acked < expected.min(live_now.max(acked)) && acked < expected {
        // Not everyone acked: abort, discard phase-1 writes.
        return Err(abort_round(ctx, ssid, &format!("{acked}/{expected} acks")));
    }
    // Phase 1 is over: every ack means that instance's writes are done.
    ctx.shared.captures.close(ssid);
    let t1 = ctx.shared.clock.now_micros();
    phase1_span.label("acks", acked);
    drop(phase1_span);
    let mut phase2_span = round.child("checkpoint_phase2");
    telemetry.event(
        EventKind::CheckpointPhase1,
        None,
        Some(ssid.0),
        Some(t1 - t0),
        format!("{acked} acks"),
    );
    // The window between phases: phase-1 writes are durable but the id is
    // not yet published. Faults here are the interesting 2PC crash points.
    if let Some(injector) = &injector {
        match injector.on_phase2(ssid.0) {
            Some(FaultAction::FailCommit) => {
                return Err(abort_round(ctx, ssid, "injected commit failure"));
            }
            Some(FaultAction::KillCoordinator) => {
                ctx.shared.coordinator_dead.store(true, Ordering::SeqCst);
                return Err(abort_round(
                    ctx,
                    ssid,
                    "injected coordinator kill between phases",
                ));
            }
            _ => {}
        }
    }
    // Freshness stamps are persisted (WAL seal) to outlive this process, so
    // they are rebased from the engine clock into the unix-epoch domain
    // here, at the durability boundary. A recovered process's own epoch
    // "now" is then directly comparable: staleness of an old snapshot reads
    // as its true age, not ~0 against a freshly-zeroed clock.
    let watermark_us = if low_wm == u64::MAX {
        0
    } else {
        ctx.shared.clock.to_epoch_micros(low_wm)
    };
    let sealed_at_us = ctx.shared.clock.epoch_micros();
    // Durable seal first: the WAL's commit record lands *before* the
    // in-memory publication. A kill between the two leaves a sealed round
    // the in-memory side was about to publish anyway — recovery restores
    // it, and snapshot monotonicity holds. The reverse order would publish
    // a round a crash could then lose. A seal failure aborts like any
    // other phase-2 failure (phase-1 WAL deltas become an unsealed tail).
    // The seal record carries the round's freshness so it survives a cold
    // start alongside the state it bounds.
    if ctx.grid.wal().is_some() {
        let mut seal_span = round.child("wal_seal");
        seal_span.label("ssid", ssid.0);
        if let Err(e) = ctx.grid.wal_seal_with(ssid, watermark_us, sealed_at_us) {
            drop(seal_span);
            return Err(abort_round(ctx, ssid, &format!("WAL seal failed: {e}")));
        }
    }
    // Phase 2: atomic publication + retention pruning.
    let horizon = match registry.commit_with_freshness(
        ssid,
        SnapshotFreshness {
            watermark_us,
            sealed_at_us,
        },
    ) {
        Ok(h) => h,
        Err(e) => return Err(abort_round(ctx, ssid, &format!("commit failed: {e}"))),
    };
    for store in &ctx.stores {
        store.prune_below(horizon);
    }
    phase2_span.label("horizon", horizon.0);
    drop(phase2_span);
    let t2 = ctx.shared.clock.now_micros();
    telemetry.event(
        EventKind::CheckpointCommitted,
        None,
        Some(ssid.0),
        Some(t2 - t0),
        "",
    );
    telemetry
        .histogram("checkpoint_phase1_us", &[])
        .record(t1 - t0);
    telemetry
        .histogram("checkpoint_total_us", &[])
        .record(t2 - t0);
    if watermark_us > 0 {
        // How stale this snapshot already was at its own seal instant.
        telemetry
            .histogram("snapshot_staleness_us", &[])
            .record(sealed_at_us.saturating_sub(watermark_us));
    }
    ctx.stats.push(CheckpointRecord {
        ssid,
        began_at_us: t0,
        phase1_us: t1 - t0,
        total_us: t2 - t0,
        watermark_us,
        sealed_at_us,
    });
    Ok(ssid)
}

/// Run a checkpoint round, retrying aborted rounds with exponential
/// backoff + jitter up to `ctx.retries` extra attempts.
///
/// Retrying is pointless once a worker has died, the coordinator has been
/// killed, or the job is poisoned — those need the supervisor's full
/// rollback recovery, not another marker round — so such errors surface
/// immediately.
pub fn run_checkpoint_with_retry(ctx: &CoordinatorContext) -> SqResult<SnapshotId> {
    let telemetry = ctx.grid.telemetry();
    let mut attempt = 0u32;
    loop {
        match run_checkpoint(ctx) {
            Ok(ssid) => {
                if attempt > 0 {
                    if let Some(injector) = ctx.grid.fault_injector() {
                        injector.resolve_pending("recovered_by_retry");
                    }
                }
                return Ok(ssid);
            }
            Err(e) => {
                let unrecoverable = ctx.shared.poison.load(Ordering::Acquire)
                    || ctx.shared.coordinator_dead.load(Ordering::SeqCst)
                    || ctx.shared.dead_workers.load(Ordering::Acquire) > 0;
                if unrecoverable || attempt >= ctx.retries {
                    return Err(e);
                }
                telemetry.counter("checkpoint_retries_total", &[]).inc();
                telemetry.event(
                    EventKind::CheckpointRetried,
                    None,
                    None,
                    None,
                    format!("attempt {} failed: {e}", attempt + 1),
                );
                // The retry span covers the backoff wait before the next
                // attempt (the attempt itself records its own round span).
                let mut retry_span = telemetry.spans().start("checkpoint_retry");
                retry_span.label("attempt", attempt + 1);
                retry_span.label("error", &e);
                let seed = ctx
                    .grid
                    .fault_injector()
                    .map(|i| i.seed())
                    .unwrap_or_default();
                std::thread::sleep(backoff_with_jitter(
                    ctx.retry_backoff,
                    attempt,
                    ctx.retry_backoff * 20,
                    seed ^ u64::from(attempt),
                ));
                drop(retry_span);
                attempt += 1;
            }
        }
    }
}

/// Control messages into the coordinator thread.
enum CoordMsg {
    /// Run a checkpoint now; reply with the result.
    Trigger(Sender<SqResult<SnapshotId>>),
    /// Shut the coordinator down.
    Stop,
}

/// Handle to the coordinator thread.
pub struct Coordinator {
    control_tx: Sender<CoordMsg>,
    thread: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Start the coordinator; `interval = None` means manual triggering only.
    pub fn start(ctx: CoordinatorContext, interval: Option<Duration>) -> Coordinator {
        let (control_tx, control_rx) = unbounded::<CoordMsg>();
        let thread = std::thread::Builder::new()
            .name("squery-checkpoint-coordinator".into())
            .spawn(move || {
                let tick = interval.unwrap_or(Duration::from_secs(3600));
                loop {
                    match control_rx.recv_timeout(tick) {
                        Ok(CoordMsg::Stop) => break,
                        Ok(CoordMsg::Trigger(reply)) => {
                            let result = run_checkpoint_with_retry(&ctx);
                            let _ = reply.send(result);
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            if interval.is_some()
                                && !ctx.shared.poison.load(Ordering::Acquire)
                                && !ctx.shared.coordinator_dead.load(Ordering::SeqCst)
                                && ctx.shared.live_instances.load(Ordering::Acquire) > 0
                            {
                                let _ = run_checkpoint_with_retry(&ctx);
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                    }
                }
            })
            .expect("spawn coordinator");
        Coordinator {
            control_tx,
            thread: Some(thread),
        }
    }

    /// Run a checkpoint now and wait for it to commit (or fail).
    pub fn trigger(&self) -> SqResult<SnapshotId> {
        let (reply_tx, reply_rx) = bounded(1);
        self.control_tx
            .send(CoordMsg::Trigger(reply_tx))
            .map_err(|_| SqError::Runtime("coordinator stopped".into()))?;
        reply_rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| SqError::Runtime("checkpoint trigger timed out".into()))?
    }

    /// Stop the coordinator thread (no further checkpoints).
    pub fn stop(mut self) {
        let _ = self.control_tx.send(CoordMsg::Stop);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        let _ = self.control_tx.send(CoordMsg::Stop);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squery_common::metrics::SharedHistogram;
    use squery_common::time::Clock;
    use squery_common::Partitioner;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64};

    fn context(
        n_sources: usize,
        live: u32,
    ) -> (
        CoordinatorContext,
        Vec<Receiver<SourceCommand>>,
        Sender<Ack>,
    ) {
        let grid = Grid::single_node();
        let (ack_tx, ack_rx) = unbounded();
        let mut controls = Vec::new();
        let mut control_rxs = Vec::new();
        for _ in 0..n_sources {
            let (tx, rx) = unbounded();
            controls.push(tx);
            control_rxs.push(rx);
        }
        let shared = Arc::new(Shared {
            clock: Clock::wall(),
            poison: AtomicBool::new(false),
            ack_tx: ack_tx.clone(),
            latency: SharedHistogram::new(),
            sink_count: AtomicU64::new(0),
            source_count: AtomicU64::new(0),
            live_instances: AtomicU32::new(live),
            exhausted_sources: AtomicU32::new(0),
            partitioner: Partitioner::new(16),
            telemetry: grid.telemetry().clone(),
            faults: grid.fault_injector(),
            dead_workers: AtomicU32::new(0),
            coordinator_dead: AtomicBool::new(false),
            failure: Mutex::new(None),
            captures: CaptureFence::default(),
        });
        let stores = vec![grid.snapshot_store("op")];
        (
            CoordinatorContext {
                grid,
                source_controls: controls,
                ack_rx,
                shared,
                stores,
                stats: CheckpointStats::new(),
                ack_timeout: Duration::from_millis(300),
                retries: 0,
                retry_backoff: Duration::from_millis(5),
            },
            control_rxs,
            ack_tx,
        )
    }

    /// The fence admits writes of the open round only, and closing the
    /// round waits for a write in flight.
    #[test]
    fn capture_fence_closes_behind_the_last_write() {
        let fence = Arc::new(CaptureFence::default());
        assert!(!fence.admit(SnapshotId(1), || {}), "nothing open yet");
        fence.open(SnapshotId(1));
        assert!(!fence.admit(SnapshotId(2), || {}), "another round");
        let (started_tx, started_rx) = bounded(1);
        let finished = Arc::new(AtomicBool::new(false));
        let writer = {
            let (fence, finished) = (Arc::clone(&fence), Arc::clone(&finished));
            std::thread::spawn(move || {
                fence.admit(SnapshotId(1), || {
                    started_tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(30));
                    finished.store(true, Ordering::SeqCst);
                })
            })
        };
        started_rx.recv().unwrap();
        fence.close(SnapshotId(1));
        assert!(
            finished.load(Ordering::SeqCst),
            "close waited for the write"
        );
        assert!(writer.join().unwrap(), "the admitted write ran");
        assert!(!fence.admit(SnapshotId(1), || panic!("closed")));
    }

    #[test]
    fn checkpoint_commits_after_all_acks() {
        let (ctx, control_rxs, ack_tx) = context(1, 2);
        // Simulate the two instances: respond to the marker with acks.
        let responder = std::thread::spawn(move || {
            let cmd = control_rxs[0].recv().unwrap();
            let SourceCommand::Marker(ssid) = cmd else {
                panic!("expected marker")
            };
            ack_tx
                .send(Ack {
                    ssid,
                    watermark_us: 0,
                })
                .unwrap();
            ack_tx
                .send(Ack {
                    ssid,
                    watermark_us: 0,
                })
                .unwrap();
        });
        let ssid = run_checkpoint(&ctx).unwrap();
        responder.join().unwrap();
        assert_eq!(ssid, SnapshotId(1));
        assert_eq!(ctx.grid.registry().latest_committed(), ssid);
        let records = ctx.stats.records();
        assert_eq!(records.len(), 1);
        assert!(records[0].total_us >= records[0].phase1_us);
        assert!(
            records[0].began_at_us > 0,
            "wall-clock begin stamp recorded"
        );
        // The round leaves a begin → phase1 → committed event trail.
        let kinds: Vec<&'static str> = ctx
            .grid
            .telemetry()
            .events()
            .snapshot()
            .iter()
            .map(|e| e.kind.as_str())
            .collect();
        assert_eq!(
            kinds,
            vec![
                "checkpoint_begin",
                "checkpoint_phase1",
                "checkpoint_committed"
            ]
        );
    }

    #[test]
    fn traced_round_nests_phases_under_the_round_root() {
        let (ctx, control_rxs, ack_tx) = context(1, 1);
        ctx.grid.telemetry().spans().set_enabled(true);
        let responder = std::thread::spawn(move || {
            let SourceCommand::Marker(ssid) = control_rxs[0].recv().unwrap() else {
                panic!("expected marker")
            };
            ack_tx
                .send(Ack {
                    ssid,
                    watermark_us: 0,
                })
                .unwrap();
        });
        run_checkpoint(&ctx).unwrap();
        responder.join().unwrap();
        let spans = ctx.grid.telemetry().spans().snapshot();
        let root = spans
            .iter()
            .find(|s| s.kind == "checkpoint_round")
            .expect("round root span");
        assert_eq!(root.label("ssid"), Some("1"));
        assert_eq!(root.parent, None);
        let p1 = spans
            .iter()
            .find(|s| s.kind == "checkpoint_phase1")
            .expect("phase1 span");
        assert_eq!(p1.parent, Some(root.id));
        assert_eq!(p1.label("acks"), Some("1"));
        let p2 = spans
            .iter()
            .find(|s| s.kind == "checkpoint_phase2")
            .expect("phase2 span");
        assert_eq!(p2.parent, Some(root.id));
        assert!(p2.start_us >= p1.end_us, "phases do not overlap");
        // The round publication is cleared once the round is over.
        assert_eq!(ctx.grid.telemetry().spans().current_round(), None);
    }

    #[test]
    fn traced_abort_span_parents_under_the_failed_round() {
        let (ctx, _control_rxs, ack_tx) = context(1, 1);
        ctx.grid.telemetry().spans().set_enabled(true);
        drop(ack_tx); // nobody will ack: the round times out and aborts
        run_checkpoint(&ctx).unwrap_err();
        let spans = ctx.grid.telemetry().spans().snapshot();
        let root = spans
            .iter()
            .find(|s| s.kind == "checkpoint_round")
            .expect("round root span");
        let abort = spans
            .iter()
            .find(|s| s.kind == "checkpoint_abort")
            .expect("abort span");
        assert_eq!(abort.parent, Some(root.id));
        assert_eq!(abort.label("reason"), Some("0/1 acks"));
        assert_eq!(ctx.grid.telemetry().spans().current_round(), None);
    }

    #[test]
    fn retried_round_records_a_retry_span() {
        use squery_common::fault::{
            FaultInjector, FaultPlan, FaultSpec, FaultTrigger, InjectionPoint,
        };
        let (mut ctx, control_rxs, ack_tx) = context(1, 1);
        ctx.retries = 2;
        ctx.grid.telemetry().spans().set_enabled(true);
        let plan = FaultPlan::new(7).with(FaultSpec {
            point: InjectionPoint::Phase1Ack,
            action: FaultAction::DropAck,
            trigger: FaultTrigger::default(),
            once: true,
        });
        ctx.grid
            .attach_fault_injector(Arc::new(FaultInjector::new(plan)));
        let responder = std::thread::spawn(move || {
            while let Ok(cmd) = control_rxs[0].recv() {
                if let SourceCommand::Marker(ssid) = cmd {
                    let _ = ack_tx.send(Ack {
                        ssid,
                        watermark_us: 0,
                    });
                }
            }
        });
        run_checkpoint_with_retry(&ctx).unwrap();
        let spans = ctx.grid.telemetry().spans().snapshot();
        let retry = spans
            .iter()
            .find(|s| s.kind == "checkpoint_retry")
            .expect("retry span");
        assert_eq!(retry.label("attempt"), Some("1"));
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.kind == "checkpoint_round")
                .count(),
            2,
            "one aborted round, one committed round"
        );
        drop(ctx);
        responder.join().unwrap();
    }

    #[test]
    fn missing_acks_abort_and_discard() {
        let (ctx, _control_rxs, ack_tx) = context(1, 2);
        // Phase-1 write that must be discarded on abort.
        ctx.stores[0].write_partition(
            SnapshotId(1),
            squery_common::PartitionId(0),
            vec![(
                squery_common::Value::Int(1),
                Some(squery_common::Value::Int(1)),
            )],
            true,
        );
        drop(ack_tx); // nobody will ack
        let err = run_checkpoint(&ctx).unwrap_err();
        assert!(matches!(err, SqError::Runtime(_)), "{err}");
        assert_eq!(ctx.grid.registry().latest_committed(), SnapshotId::NONE);
        assert_eq!(ctx.grid.registry().in_progress(), None, "id released");
        assert!(ctx.stores[0].stored_ssids().is_empty(), "write discarded");
        assert!(
            !ctx.shared.captures.admit(SnapshotId(1), || {}),
            "the aborted round is closed to late writes"
        );
        assert_eq!(ctx.stats.aborted(), 1);
    }

    /// A worker death mid-round must abort even though the dying cascade
    /// also drops `live_instances` below the ack count — committing the
    /// partial phase-1 writes would publish a torn snapshot that recovery
    /// then restores (losing every record since the previous checkpoint).
    #[test]
    fn worker_death_mid_round_aborts_instead_of_committing_torn_snapshot() {
        let (ctx, control_rxs, ack_tx) = context(1, 4);
        let shared = Arc::clone(&ctx.shared);
        let responder = std::thread::spawn(move || {
            let SourceCommand::Marker(ssid) = control_rxs[0].recv().unwrap() else {
                panic!("expected marker")
            };
            // The source acks (and saves a partial phase-1 write), then
            // panics; everything downstream tears down without acking.
            ack_tx
                .send(Ack {
                    ssid,
                    watermark_us: 0,
                })
                .unwrap();
            shared.dead_workers.fetch_add(1, Ordering::AcqRel);
            shared.live_instances.store(0, Ordering::Release);
        });
        let err = run_checkpoint(&ctx).unwrap_err();
        responder.join().unwrap();
        assert!(err.to_string().contains("dead worker"), "{err}");
        assert_eq!(
            ctx.grid.registry().latest_committed(),
            SnapshotId::NONE,
            "torn round must not publish"
        );
        assert_eq!(ctx.grid.registry().in_progress(), None, "id released");
        assert_eq!(ctx.stats.aborted(), 1);
    }

    /// The committed round's freshness is the min over the acks' nonzero
    /// frontiers, recorded both in the registry and the checkpoint log.
    #[test]
    fn commit_records_min_watermark_over_acks() {
        let (ctx, control_rxs, ack_tx) = context(1, 3);
        let responder = std::thread::spawn(move || {
            let SourceCommand::Marker(ssid) = control_rxs[0].recv().unwrap() else {
                panic!("expected marker")
            };
            ack_tx
                .send(Ack {
                    ssid,
                    watermark_us: 500,
                })
                .unwrap();
            ack_tx
                .send(Ack {
                    ssid,
                    watermark_us: 300,
                })
                .unwrap();
            // A zero frontier is "unknown", not "behind": excluded from min.
            ack_tx
                .send(Ack {
                    ssid,
                    watermark_us: 0,
                })
                .unwrap();
        });
        let ssid = run_checkpoint(&ctx).unwrap();
        responder.join().unwrap();
        let fresh = ctx.grid.registry().freshness(ssid).expect("recorded");
        // Stamps are rebased into the unix-epoch domain at the seal.
        let expected_wm = ctx.shared.clock.to_epoch_micros(300);
        assert_eq!(fresh.watermark_us, expected_wm);
        assert!(
            fresh.sealed_at_us >= ctx.shared.clock.epoch_anchor_micros(),
            "seal stamp is epoch-domain"
        );
        let rec = ctx.stats.records()[0];
        assert_eq!(rec.watermark_us, expected_wm);
        assert_eq!(rec.sealed_at_us, fresh.sealed_at_us);
        let staleness = ctx
            .grid
            .telemetry()
            .histograms()
            .into_iter()
            .find(|(k, _)| k.name == "snapshot_staleness_us")
            .expect("staleness histogram fed at commit")
            .1;
        assert_eq!(staleness.count(), 1);
    }

    #[test]
    fn commit_prunes_to_retention_horizon() {
        let (ctx, control_rxs, ack_tx) = context(1, 1);
        let responder = std::thread::spawn(move || {
            for _ in 0..3 {
                if let Ok(SourceCommand::Marker(ssid)) = control_rxs[0].recv() {
                    ack_tx
                        .send(Ack {
                            ssid,
                            watermark_us: 0,
                        })
                        .unwrap();
                }
            }
        });
        for _ in 0..3 {
            run_checkpoint(&ctx).unwrap();
        }
        responder.join().unwrap();
        // Default retention is 2: after committing 1,2,3 only 2,3 remain
        // queryable.
        assert_eq!(
            ctx.grid.registry().committed_ssids(),
            vec![SnapshotId(2), SnapshotId(3)]
        );
    }

    #[test]
    fn coordinator_thread_manual_trigger() {
        let (ctx, control_rxs, ack_tx) = context(1, 1);
        let stats = ctx.stats.clone();
        let responder = std::thread::spawn(move || {
            while let Ok(cmd) = control_rxs[0].recv() {
                if let SourceCommand::Marker(ssid) = cmd {
                    let _ = ack_tx.send(Ack {
                        ssid,
                        watermark_us: 0,
                    });
                }
            }
        });
        let coordinator = Coordinator::start(ctx, None);
        let s1 = coordinator.trigger().unwrap();
        let s2 = coordinator.trigger().unwrap();
        assert_eq!(s1, SnapshotId(1));
        assert_eq!(s2, SnapshotId(2));
        assert_eq!(stats.records().len(), 2);
        coordinator.stop();
        responder.join().unwrap();
    }

    #[test]
    fn marker_send_failure_discards_and_releases_registry() {
        let (ctx, control_rxs, _ack_tx) = context(1, 1);
        // Phase-1 write that must not survive the abort.
        ctx.stores[0].write_partition(
            SnapshotId(1),
            squery_common::PartitionId(0),
            vec![(
                squery_common::Value::Int(1),
                Some(squery_common::Value::Int(1)),
            )],
            true,
        );
        drop(control_rxs); // marker send now fails: "job is shutting down"
        let err = run_checkpoint(&ctx).unwrap_err();
        assert!(err.to_string().contains("shutting down"), "{err}");
        assert_eq!(ctx.grid.registry().in_progress(), None, "id released");
        assert!(ctx.stores[0].stored_ssids().is_empty(), "write discarded");
        assert_eq!(ctx.stats.aborted(), 1, "abort counted on this path too");
    }

    #[test]
    fn injected_ack_drop_aborts_then_retry_commits() {
        use squery_common::fault::{
            FaultInjector, FaultPlan, FaultSpec, FaultTrigger, InjectionPoint,
        };
        let (mut ctx, control_rxs, ack_tx) = context(1, 1);
        ctx.retries = 2;
        let plan = FaultPlan::new(7).with(FaultSpec {
            point: InjectionPoint::Phase1Ack,
            action: FaultAction::DropAck,
            trigger: FaultTrigger::default(),
            once: true,
        });
        ctx.grid
            .attach_fault_injector(Arc::new(FaultInjector::new(plan)));
        let responder = std::thread::spawn(move || {
            while let Ok(cmd) = control_rxs[0].recv() {
                if let SourceCommand::Marker(ssid) = cmd {
                    let _ = ack_tx.send(Ack {
                        ssid,
                        watermark_us: 0,
                    });
                }
            }
        });
        // Round 1 loses its only ack and times out; the retry commits.
        let ssid = run_checkpoint_with_retry(&ctx).unwrap();
        assert_eq!(ssid, SnapshotId(2), "first id burned by the abort");
        assert_eq!(ctx.stats.aborted(), 1);
        assert_eq!(
            ctx.grid
                .telemetry()
                .counter_value("checkpoint_retries_total", &[]),
            Some(1)
        );
        let records = ctx.grid.fault_injector().unwrap().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, "recovered_by_retry");
        drop(ctx);
        responder.join().unwrap();
    }

    #[test]
    fn injected_coordinator_kill_aborts_without_retry() {
        use squery_common::fault::{
            FaultInjector, FaultPlan, FaultSpec, FaultTrigger, InjectionPoint,
        };
        let (mut ctx, control_rxs, ack_tx) = context(1, 1);
        ctx.retries = 3;
        let plan = FaultPlan::new(9).with(FaultSpec {
            point: InjectionPoint::Phase2Commit,
            action: FaultAction::KillCoordinator,
            trigger: FaultTrigger::default(),
            once: true,
        });
        ctx.grid
            .attach_fault_injector(Arc::new(FaultInjector::new(plan)));
        let responder = std::thread::spawn(move || {
            while let Ok(cmd) = control_rxs[0].recv() {
                if let SourceCommand::Marker(ssid) = cmd {
                    let _ = ack_tx.send(Ack {
                        ssid,
                        watermark_us: 0,
                    });
                }
            }
        });
        let err = run_checkpoint_with_retry(&ctx).unwrap_err();
        assert!(err.to_string().contains("coordinator kill"), "{err}");
        assert!(ctx.shared.coordinator_dead.load(Ordering::SeqCst));
        // A dead coordinator must not be retried in-place — that's the
        // supervisor's job.
        assert_eq!(
            ctx.grid
                .telemetry()
                .counter_value("checkpoint_retries_total", &[]),
            None
        );
        assert_eq!(ctx.grid.registry().latest_committed(), SnapshotId::NONE);
        assert_eq!(ctx.grid.registry().in_progress(), None);
        drop(ctx);
        responder.join().unwrap();
    }

    #[test]
    fn periodic_coordinator_checkpoints_on_its_own() {
        let (ctx, control_rxs, ack_tx) = context(1, 1);
        let grid = Arc::clone(&ctx.grid);
        let responder = std::thread::spawn(move || {
            while let Ok(cmd) = control_rxs[0].recv() {
                if let SourceCommand::Marker(ssid) = cmd {
                    let _ = ack_tx.send(Ack {
                        ssid,
                        watermark_us: 0,
                    });
                }
            }
        });
        let coordinator = Coordinator::start(ctx, Some(Duration::from_millis(20)));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while grid.registry().latest_committed().0 < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "no periodic checkpoints happened"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        coordinator.stop();
        responder.join().unwrap();
    }
}
