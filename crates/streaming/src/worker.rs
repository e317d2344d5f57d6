//! Instance workers: the per-thread execution loops.
//!
//! Every vertex instance runs on its own thread. Source workers pull batches
//! from their [`crate::source::Source`] and poll a control channel for
//! checkpoint markers and stop commands; operator workers consume a single
//! tagged input queue and implement the marker-alignment protocol of the
//! paper's Figure 3: once a channel delivers the marker for the in-flight
//! checkpoint, its subsequent records are buffered until every channel has
//! delivered (or reached end-of-stream); then a stateful instance freezes
//! its state (phase 1's only step on the operator thread), the marker is
//! forwarded, and the buffered records are replayed, while a background
//! writer persists the frozen state and sends the ack to the coordinator
//! with the frontier captured at the marker. A stateless or sink instance
//! acks at once. The snapshot's content is fixed at the marker either way,
//! which is what makes the written snapshots *consistent* and the recovery
//! exactly-once. A writer death (panic, WAL error) counts as a worker
//! death, so the coordinator aborts the round and the supervisor recovers.

use crate::checkpoint::CaptureFence;
use crate::dag::{EdgeKind, Sink, Stateful, Stateless};
use crate::message::{Item, Record, Tagged};
use crate::source::{Source, SourceStatus};
use crate::state::StateBackend;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use squery_common::fault::{FaultAction, FaultInjector, INJECTED_PANIC_PREFIX};
use squery_common::metrics::SharedHistogram;
use squery_common::telemetry::{Counter, EventKind, Gauge, MetricsRegistry};
use squery_common::time::Clock;
use squery_common::trace::SpanGuard;
use squery_common::{Partitioner, SnapshotId, SqResult, Value};
use squery_storage::SnapshotStore;
use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Marker-alignment stalls at or above this many µs also emit an
/// `alignment_stall` engine event (every stall lands in the histogram).
pub const ALIGN_STALL_EVENT_US: u64 = 10_000;

/// Per-vertex telemetry handles, shared by all instances of the vertex
/// (counters aggregate across instances; events carry the instance in
/// their detail).
pub struct WorkerTelemetry {
    /// The vertex name the handles are labelled with.
    pub operator: String,
    /// Records entering this vertex (for sources: none).
    pub records_in: Counter,
    /// Records leaving this vertex (for sinks: none).
    pub records_out: Counter,
    /// Time from the first marker of a checkpoint round to full alignment.
    pub align_stall_us: SharedHistogram,
    /// Wall-clock minus event-time frontier, sampled at each frontier
    /// advance (how far behind real time this vertex's watermark runs).
    pub watermark_lag: SharedHistogram,
    /// Wall-clock minus `src_ts` per sink record (end-to-end event-time
    /// lag; only sinks feed it).
    pub e2e_lag: SharedHistogram,
    /// The registry, for lifecycle/stall events.
    pub registry: MetricsRegistry,
}

impl WorkerTelemetry {
    /// Resolve the vertex's handles out of `registry`.
    pub fn for_operator(registry: &MetricsRegistry, operator: &str) -> WorkerTelemetry {
        let labels = [("operator", operator)];
        WorkerTelemetry {
            operator: operator.to_string(),
            records_in: registry.counter("operator_records_in_total", &labels),
            records_out: registry.counter("operator_records_out_total", &labels),
            align_stall_us: registry.histogram("operator_align_stall_us", &labels),
            watermark_lag: registry.histogram("watermark_lag_us", &labels),
            e2e_lag: registry.histogram("e2e_lag_us", &labels),
            registry: registry.clone(),
        }
    }

    /// The live event-time frontier gauge for one instance of this vertex
    /// (`sys_watermarks` reads these back out of the registry).
    pub fn watermark_gauge(&self, instance: u32) -> Gauge {
        let instance = instance.to_string();
        self.registry.gauge(
            "watermark_us",
            &[("instance", &instance), ("operator", &self.operator)],
        )
    }

    fn started(&self, instance: u32) {
        self.registry.event(
            EventKind::WorkerStarted,
            Some(&self.operator),
            None,
            None,
            format!("instance {instance}"),
        );
    }

    fn stopped(&self, instance: u32) {
        self.registry.event(
            EventKind::WorkerStopped,
            Some(&self.operator),
            None,
            None,
            format!("instance {instance}"),
        );
    }

    fn aligned(&self, ssid: SnapshotId, stall_us: u64) {
        self.align_stall_us.record(stall_us);
        if stall_us >= ALIGN_STALL_EVENT_US {
            self.registry.event(
                EventKind::AlignmentStall,
                Some(&self.operator),
                Some(ssid.0),
                Some(stall_us),
                "marker alignment",
            );
        }
    }
}

/// A phase-1 acknowledgement from one instance.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// The checkpoint being acknowledged.
    pub ssid: SnapshotId,
    /// The acking instance's event-time frontier at its snapshot point
    /// (0 = unknown), on the engine clock that stamped `Record::src_ts`.
    /// The coordinator's minimum over all acks is the consistent cut's
    /// global low watermark; it rebases the min into the unix-epoch domain
    /// before sealing it, so the persisted bound survives a restart.
    pub watermark_us: u64,
}

/// Commands the coordinator/runtime sends to source instances.
#[derive(Debug, Clone, Copy)]
pub enum SourceCommand {
    /// Begin checkpoint: snapshot the offset, ack, forward the marker.
    Marker(SnapshotId),
    /// Finish: emit end-of-stream and exit.
    Stop,
}

/// State shared by all workers of one job.
pub struct Shared {
    /// Engine clock (latency stamps, 2PC probes).
    pub clock: Clock,
    /// Set to force-crash every worker (failure injection).
    pub poison: AtomicBool,
    /// Phase-1 ack channel into the coordinator.
    pub ack_tx: Sender<Ack>,
    /// Source-to-sink latency across all sink instances.
    pub latency: SharedHistogram,
    /// Records consumed by sinks.
    pub sink_count: AtomicU64,
    /// Records produced by sources.
    pub source_count: AtomicU64,
    /// Instances currently running (coordinator's expected ack count).
    pub live_instances: AtomicU32,
    /// Source instances that have exhausted their input.
    pub exhausted_sources: AtomicU32,
    /// The shared partitioner (keyed routing).
    pub partitioner: Partitioner,
    /// The engine-wide metrics/event registry (the grid's).
    pub telemetry: MetricsRegistry,
    /// The attached fault injector, if any (cheap `None` check otherwise).
    pub faults: Option<Arc<FaultInjector>>,
    /// Workers whose panic was caught. Non-zero means the job cannot make
    /// progress and needs supervised recovery.
    pub dead_workers: AtomicU32,
    /// Set when the checkpoint coordinator was (fault-)killed between
    /// phases; it stops serving until recovery rebuilds it.
    pub coordinator_dead: AtomicBool,
    /// The first caught panic message (`worker_failure`).
    pub failure: Mutex<Option<String>>,
    /// The phase-1 write fence the coordinator opens and closes per round.
    pub captures: CaptureFence,
}

impl Shared {
    fn ack(&self, ssid: SnapshotId, watermark_us: u64) {
        let _ = self.ack_tx.send(Ack { ssid, watermark_us });
    }

    fn poisoned(&self) -> bool {
        // Acquire pairs with the SeqCst store in `crash()`: a worker that
        // observes the poison flag also observes the failure record that
        // was published before it.
        self.poison.load(Ordering::Acquire)
    }

    /// Record a caught worker panic. Key locks and channel senders were
    /// already released by the unwind itself (parking_lot guards unlock on
    /// drop); this makes the death *observable* so `wait_for_sink_count`
    /// and the supervisor stop waiting on a worker that will never run.
    fn note_worker_panic(&self, operator: &str, instance: u32, msg: &str) {
        self.dead_workers.fetch_add(1, Ordering::AcqRel);
        let mut failure = self.failure.lock();
        if failure.is_none() {
            *failure = Some(format!("{operator}#{instance}: {msg}"));
        }
        drop(failure);
        self.telemetry.counter("worker_panics_total", &[]).inc();
        self.telemetry.event(
            EventKind::WorkerPanicked,
            Some(operator),
            None,
            None,
            format!("instance {instance}: {msg}"),
        );
    }

    /// The first caught panic message, if any worker died.
    pub fn worker_failure(&self) -> Option<String> {
        self.failure.lock().clone()
    }

    /// Fault hook: about to process the worker's `nth` record. A planned
    /// `PanicWorker` fault panics here so it exercises the *real* unwind
    /// path; a `StallWorker` sleeps in-line.
    fn worker_record_fault(&self, operator: &str, instance: u32, nth: u64) {
        let Some(injector) = &self.faults else { return };
        match injector.on_worker_record(operator, instance, nth) {
            Some(FaultAction::PanicWorker) => {
                self.fault_event(operator, None, format!("panic at record {nth}"));
                panic!("{INJECTED_PANIC_PREFIX}worker panic at record {nth}");
            }
            Some(FaultAction::StallWorker { micros }) => {
                self.fault_event(operator, None, format!("stall {micros}us at record {nth}"));
                std::thread::sleep(Duration::from_micros(micros));
            }
            _ => {}
        }
    }

    /// Fault hook: the worker finished its phase-1 step of `ssid` and has
    /// not yet forwarded the marker — the window between checkpoint phase 1
    /// and phase 2. Before a planned kill, `settle` waits for the instance's
    /// ack to be out (a stateful instance joins its snapshot writer).
    fn post_ack_fault(
        &self,
        operator: &str,
        instance: u32,
        ssid: SnapshotId,
        settle: impl FnOnce(),
    ) {
        let Some(injector) = &self.faults else { return };
        if let Some(FaultAction::PanicWorker) =
            injector.on_worker_post_ack(operator, instance, ssid.0)
        {
            settle();
            self.fault_event(operator, Some(ssid.0), "killed after phase-1 ack".into());
            panic!("{INJECTED_PANIC_PREFIX}worker killed between phases of checkpoint {ssid}");
        }
    }

    /// Fault hook on a background snapshot writer, before the last
    /// partition write of its capture of `ssid`: a planned `PanicWorker`
    /// kills the writer mid-capture, a `StallWorker` holds it (outside the
    /// capture fence, so an abort need not wait the stall out).
    fn capture_fault(&self, operator: &str, instance: u32, ssid: SnapshotId) {
        let Some(injector) = &self.faults else { return };
        match injector.on_snapshot_capture(operator, instance, ssid.0) {
            Some(FaultAction::PanicWorker) => {
                self.fault_event(operator, Some(ssid.0), "snapshot writer killed".into());
                panic!("{INJECTED_PANIC_PREFIX}snapshot writer killed mid-capture of {ssid}");
            }
            Some(FaultAction::StallWorker { micros }) => {
                self.fault_event(
                    operator,
                    Some(ssid.0),
                    format!("snapshot writer stalled {micros}us"),
                );
                std::thread::sleep(Duration::from_micros(micros));
            }
            _ => {}
        }
    }

    fn fault_event(&self, operator: &str, ssid: Option<u64>, detail: String) {
        self.telemetry
            .event(EventKind::FaultInjected, Some(operator), ssid, None, detail);
    }
}

/// Start a span parented under the in-flight checkpoint round when the
/// coordinator has published one (the round root lives on the coordinator
/// thread), else a root span. Inert when tracing is disabled.
fn span_under_round(shared: &Shared, kind: &'static str) -> SpanGuard {
    let collector = shared.telemetry.spans();
    match collector.current_round() {
        Some(round) => collector.child(kind, round),
        None => collector.start(kind),
    }
}

/// Render a caught panic payload (the `&str`/`String` panics the engine and
/// the injector raise; anything else gets a generic label).
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// One output edge of an instance.
pub struct OutputPort {
    /// Routing mode.
    pub kind: EdgeKind,
    /// Senders to every downstream instance of the edge.
    pub senders: Vec<Sender<Tagged>>,
    /// The channel tag this instance's items carry at the receiver.
    pub tag: u32,
    /// The input-port number of this edge at the receiving vertex.
    pub port: u8,
}

/// Saves one source instance's offset into the offsets snapshot store.
pub struct OffsetSaver {
    /// The `__offsets` store.
    pub store: Arc<SnapshotStore>,
    /// This instance's offset key (`"<vertex>#<instance>"`).
    pub key: Value,
}

impl OffsetSaver {
    /// Phase-1 write of the current offset.
    pub fn save(&self, ssid: SnapshotId, offset: Value) {
        let pid = self.store.partition_of(&self.key);
        self.store
            .write_partition(ssid, pid, vec![(self.key.clone(), Some(offset))], true);
    }

    /// Read back the offset stored at `ssid`, if any.
    pub fn load(&self, ssid: SnapshotId) -> Option<Value> {
        self.store.read_at(ssid, &self.key).ok().flatten()
    }
}

/// Route one record along every output port; returns false if a downstream
/// channel is gone (job shutting down or crashed).
fn route_record(
    record: &Record,
    outs: &[OutputPort],
    my_instance: u32,
    partitioner: &Partitioner,
) -> bool {
    for out in outs {
        let n = out.senders.len() as u32;
        let idx = match out.kind {
            EdgeKind::Forward => my_instance % n,
            EdgeKind::Keyed => partitioner.instance_of(&record.key, n),
        };
        let mut r = record.clone();
        r.port = out.port;
        if out.senders[idx as usize]
            .send(Tagged {
                from: out.tag,
                item: Item::Record(r),
            })
            .is_err()
        {
            return false;
        }
    }
    true
}

/// Broadcast a marker, watermark, or Eos to every downstream instance of
/// every port.
fn broadcast(item: &Item, outs: &[OutputPort]) {
    for out in outs {
        for sender in &out.senders {
            let _ = sender.send(Tagged {
                from: out.tag,
                item: item.clone(),
            });
        }
    }
}

/// The source-instance worker. The production loop runs under
/// `catch_unwind` so a panicking source (organic or injected) cannot leave
/// the job hanging: the death is recorded on [`Shared`] and the live count
/// still drops exactly once.
#[allow(clippy::too_many_arguments)]
pub fn run_source(
    source: Box<dyn Source>,
    control: Receiver<SourceCommand>,
    outs: Vec<OutputPort>,
    my_instance: u32,
    batch_size: usize,
    shared: Arc<Shared>,
    offsets: OffsetSaver,
    tel: WorkerTelemetry,
) {
    tel.started(my_instance);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        source_loop(
            source,
            control,
            outs,
            my_instance,
            batch_size,
            &shared,
            offsets,
            &tel,
        )
    }));
    if let Err(payload) = result {
        shared.note_worker_panic(&tel.operator, my_instance, &panic_text(payload));
    }
    shared.live_instances.fetch_sub(1, Ordering::AcqRel);
    tel.stopped(my_instance);
}

#[allow(clippy::too_many_arguments)]
fn source_loop(
    mut source: Box<dyn Source>,
    control: Receiver<SourceCommand>,
    outs: Vec<OutputPort>,
    my_instance: u32,
    batch_size: usize,
    shared: &Shared,
    offsets: OffsetSaver,
    tel: &WorkerTelemetry,
) {
    let partitioner = shared.partitioner;
    let mut batch: Vec<Record> = Vec::with_capacity(batch_size);
    let mut exhausted = false;
    let mut produced: u64 = 0;
    // Source frontier: the max `src_ts` emitted so far. The in-tree sources
    // stamp monotonically (scheduled emission time under offered load, `now`
    // otherwise), making this the exact low watermark of everything still to
    // come. A user `Source` may supply its own, possibly out-of-order event
    // times — for which "max emitted" over-promises — so monotonicity is
    // *checked* per record below: the first regression freezes watermark
    // emission and demotes the acked frontier to unknown, every regression
    // is counted, and downstream freshness degrades to "no bound" instead of
    // an invalid one. (A bounded-lateness policy is the eventual refinement.)
    let mut frontier: u64 = 0;
    let mut last_ts: u64 = 0;
    let mut unordered = false;
    let wm_gauge = tel.watermark_gauge(my_instance);
    let wm_violations = tel
        .registry
        .counter("watermark_violations_total", &[("operator", &tel.operator)]);
    loop {
        if shared.poisoned() {
            break;
        }
        // Control first: markers must not wait behind data production.
        match control.try_recv() {
            Ok(SourceCommand::Marker(ssid)) => {
                offsets.save(ssid, source.offset());
                shared.ack(ssid, if unordered { 0 } else { frontier });
                shared.post_ack_fault(&tel.operator, my_instance, ssid, || {});
                broadcast(&Item::Marker(ssid), &outs);
                continue;
            }
            Ok(SourceCommand::Stop) => {
                broadcast(&Item::Eos, &outs);
                break;
            }
            Err(_) => {}
        }
        if exhausted {
            // Keep serving control (checkpoints must still complete) but stop
            // producing. Block on control to avoid spinning.
            match control.recv_timeout(Duration::from_millis(20)) {
                Ok(SourceCommand::Marker(ssid)) => {
                    offsets.save(ssid, source.offset());
                    shared.ack(ssid, if unordered { 0 } else { frontier });
                    shared.post_ack_fault(&tel.operator, my_instance, ssid, || {});
                    broadcast(&Item::Marker(ssid), &outs);
                }
                Ok(SourceCommand::Stop) => {
                    broadcast(&Item::Eos, &outs);
                    break;
                }
                Err(_) => {}
            }
            continue;
        }
        batch.clear();
        let status = source.next_batch(batch_size, shared.clock.now_micros(), &mut batch);
        shared
            .source_count
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        tel.records_out.add(batch.len() as u64);
        let mut batch_span = if batch.is_empty() {
            SpanGuard::inert()
        } else {
            shared.telemetry.spans().start("batch")
        };
        if batch_span.is_active() {
            batch_span.label("operator", &tel.operator);
            batch_span.label("instance", my_instance);
            batch_span.label("records", batch.len());
        }
        let mut batch_max_ts = 0u64;
        for record in &batch {
            produced += 1;
            shared.worker_record_fault(&tel.operator, my_instance, produced);
            if record.src_ts < last_ts {
                // Out-of-order stamping: the already-emitted watermark's
                // promise just broke. Surface every violation, note the
                // breach once, and stop promising below.
                wm_violations.inc();
                if !unordered {
                    unordered = true;
                    shared.telemetry.event(
                        EventKind::WatermarkRegressed,
                        Some(&tel.operator),
                        None,
                        None,
                        format!(
                            "instance {my_instance}: src_ts {} below {} — \
                             watermark emission suspended",
                            record.src_ts, last_ts
                        ),
                    );
                }
            }
            last_ts = last_ts.max(record.src_ts);
            batch_max_ts = batch_max_ts.max(record.src_ts);
            if !route_record(record, &outs, my_instance, &partitioner) {
                return;
            }
        }
        drop(batch_span);
        if !unordered && batch_max_ts > frontier {
            // One watermark per advancing batch, after its records: the
            // promise "nothing below this comes later" holds only while the
            // source has stamped monotonically (checked above).
            frontier = batch_max_ts;
            wm_gauge.set(shared.clock.to_epoch_micros(frontier) as i64);
            tel.watermark_lag
                .record(shared.clock.now_micros().saturating_sub(frontier));
            broadcast(&Item::Watermark(frontier), &outs);
        }
        match status {
            SourceStatus::Exhausted => {
                // Stay alive and keep serving checkpoints: Eos flows only on
                // an explicit Stop, so a finished input does not tear down
                // the (possibly still busy) downstream operators, and a
                // triggered checkpoint can still act as a barrier behind
                // every produced record.
                exhausted = true;
                shared.exhausted_sources.fetch_add(1, Ordering::AcqRel);
            }
            SourceStatus::Idle => {
                std::thread::sleep(Duration::from_micros(200));
            }
            SourceStatus::Active => {}
        }
    }
}

/// What an operator worker runs.
pub enum OperatorKind {
    /// Stateless transform.
    Stateless(Box<dyn Stateless>),
    /// Stateful operator plus its engine-managed state.
    Stateful {
        /// User logic.
        op: Box<dyn Stateful>,
        /// Engine-managed keyed state (snapshotting, write-through).
        state: Box<StateBackend>,
    },
    /// Terminal consumer; the worker records sink latency around it.
    Sink(Box<dyn Sink>),
}

/// The operator/sink-instance worker with marker alignment. Like
/// [`run_source`], the loop runs under `catch_unwind`: a panicking operator
/// releases its key locks and channels via the unwind itself (parking_lot
/// guards and crossbeam senders unlock/close on drop), and the caught death
/// is surfaced on [`Shared`] instead of leaving the job wedged.
pub fn run_operator(
    rx: Receiver<Tagged>,
    n_channels: u32,
    kind: OperatorKind,
    outs: Vec<OutputPort>,
    my_instance: u32,
    shared: Arc<Shared>,
    tel: WorkerTelemetry,
) {
    tel.started(my_instance);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        operator_loop(rx, n_channels, kind, outs, my_instance, &shared, &tel)
    }));
    if let Err(payload) = result {
        shared.note_worker_panic(&tel.operator, my_instance, &panic_text(payload));
    }
    shared.live_instances.fetch_sub(1, Ordering::AcqRel);
    tel.stopped(my_instance);
}

fn operator_loop(
    rx: Receiver<Tagged>,
    n_channels: u32,
    kind: OperatorKind,
    outs: Vec<OutputPort>,
    instance: u32,
    shared: &Arc<Shared>,
    tel: &WorkerTelemetry,
) {
    let mut w = OperatorWorker {
        kind,
        outs,
        instance,
        shared,
        tel,
        out_buf: Vec::new(),
        n_channels: n_channels as usize,
        aligned: HashSet::new(),
        eos: HashSet::new(),
        pending_marker: None,
        align_started: None,
        align_span: None,
        buffer: Vec::new(),
        channel_wm: vec![0; n_channels as usize],
        deferred_wm: vec![0; n_channels as usize],
        frontier: 0,
        wm_gauge: tel.watermark_gauge(instance),
    };
    let mut received: u64 = 0;
    loop {
        if shared.poisoned() {
            break;
        }
        let tagged = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(t) => t,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        };
        match tagged.item {
            Item::Record(record) => {
                tel.records_in.inc();
                received += 1;
                shared.worker_record_fault(&tel.operator, instance, received);
                if w.pending_marker.is_some() && w.aligned.contains(&tagged.from) {
                    // Figure 3a: this channel already delivered the marker;
                    // its records belong to the next checkpoint epoch.
                    w.buffer.push(record);
                } else if !w.process(record) {
                    break;
                }
            }
            Item::Marker(ssid) => {
                w.aligned.insert(tagged.from);
                if w.pending_marker.is_none() {
                    w.align_started = Some(Instant::now());
                    let mut span = span_under_round(shared, "marker_align");
                    span.label("operator", &tel.operator);
                    span.label("instance", instance);
                    span.label("ssid", ssid.0);
                    w.align_span = Some(span);
                }
                w.pending_marker = Some(ssid);
                if w.all_aligned() && !w.complete_round(ssid) {
                    break;
                }
            }
            Item::Watermark(wm) => {
                if w.pending_marker.is_some() && w.aligned.contains(&tagged.from) {
                    // Post-marker watermark on an aligned channel: its
                    // records are buffered out of the cut, so its promise
                    // must not raise the acked frontier (nor overtake the
                    // buffered records downstream). Park it until alignment
                    // completes — deferring a watermark only loosens it,
                    // which is always sound.
                    if let Some(slot) = w.deferred_wm.get_mut(tagged.from as usize) {
                        *slot = (*slot).max(wm);
                    }
                } else {
                    if let Some(slot) = w.channel_wm.get_mut(tagged.from as usize) {
                        *slot = (*slot).max(wm);
                    }
                    w.advance_frontier();
                }
            }
            Item::Eos => {
                let was_aligned = w.pending_marker.is_some() && w.aligned.contains(&tagged.from);
                w.eos.insert(tagged.from);
                // A finished channel stops gating the watermark min — but if
                // it already delivered this round's marker, its buffered
                // post-marker records are outside the cut, so the release is
                // deferred with the rest of its next-epoch watermarks.
                if was_aligned {
                    if let Some(slot) = w.deferred_wm.get_mut(tagged.from as usize) {
                        *slot = u64::MAX;
                    }
                } else {
                    if let Some(slot) = w.channel_wm.get_mut(tagged.from as usize) {
                        *slot = u64::MAX;
                    }
                    w.advance_frontier();
                }
                // An Eos channel counts as aligned for any pending marker.
                if let Some(ssid) = w.pending_marker {
                    if w.all_aligned() && !w.complete_round(ssid) {
                        break;
                    }
                }
                if w.eos.len() >= w.n_channels {
                    broadcast(&Item::Eos, &w.outs);
                    break;
                }
            }
        }
    }
}

/// One operator instance's loop state: what it runs, where its output
/// goes, and the marker round it has open.
struct OperatorWorker<'a> {
    kind: OperatorKind,
    outs: Vec<OutputPort>,
    instance: u32,
    shared: &'a Arc<Shared>,
    tel: &'a WorkerTelemetry,
    out_buf: Vec<Record>,
    n_channels: usize,
    /// Channels that delivered the open round's marker.
    aligned: HashSet<u32>,
    /// Channels that reached end-of-stream.
    eos: HashSet<u32>,
    pending_marker: Option<SnapshotId>,
    align_started: Option<Instant>,
    align_span: Option<SpanGuard>,
    /// Records of aligned channels, held until the round completes.
    buffer: Vec<Record>,
    /// Per-input-channel watermark; the operator frontier is their min.
    channel_wm: Vec<u64>,
    /// Watermarks (and Eos releases) arriving on an already-aligned channel
    /// while a marker round is open: like post-marker records, they belong
    /// to the next checkpoint epoch, so they park here (u64::MAX = deferred
    /// Eos release) and apply only after the round completes — otherwise
    /// the acked frontier would claim event-time completeness for records
    /// that are merely buffered, and a watermark could overtake them
    /// downstream.
    deferred_wm: Vec<u64>,
    frontier: u64,
    wm_gauge: Gauge,
}

impl OperatorWorker<'_> {
    /// Run one record through the operator and route its output; false if
    /// a downstream channel is gone.
    fn process(&mut self, record: Record) -> bool {
        self.out_buf.clear();
        match &mut self.kind {
            OperatorKind::Stateless(op) => op.process(record, &mut self.out_buf),
            OperatorKind::Stateful { op, state } => {
                op.process(record, &mut **state, &mut self.out_buf)
            }
            OperatorKind::Sink(sink) => {
                let now = self.shared.clock.now_micros();
                let lag = now.saturating_sub(record.src_ts);
                self.shared.latency.record(lag);
                self.tel.e2e_lag.record(lag);
                self.shared.sink_count.fetch_add(1, Ordering::Relaxed);
                sink.consume(record);
            }
        }
        self.tel.records_out.add(self.out_buf.len() as u64);
        let partitioner = self.shared.partitioner;
        self.out_buf
            .iter()
            .all(|r| route_record(r, &self.outs, self.instance, &partitioner))
    }

    /// Whether every channel delivered the open round's marker or ended.
    fn all_aligned(&self) -> bool {
        self.aligned.len()
            + self
                .eos
                .iter()
                .filter(|c| !self.aligned.contains(c))
                .count()
            >= self.n_channels
    }

    /// Figure 3b/3c: every channel aligned on `ssid`. Phase 1 on this
    /// thread — freeze the state (its writer acks) or ack — then forward
    /// the marker, replay the buffered records, and apply the deferred
    /// watermarks. False when the loop must stop.
    fn complete_round(&mut self, ssid: SnapshotId) -> bool {
        let aligned_at = Instant::now();
        if let Some(s) = self.align_started.take() {
            self.tel.aligned(ssid, s.elapsed().as_micros() as u64);
        }
        drop(self.align_span.take());
        let (shared, tel, instance) = (self.shared, self.tel, self.instance);
        match &mut self.kind {
            OperatorKind::Stateful { state, .. } => {
                let mut span = span_under_round(shared, "snapshot_write");
                span.label("operator", &tel.operator);
                span.label("ssid", ssid.0);
                if freeze_state(state, ssid, self.frontier, shared, &tel.operator, instance)
                    .is_err()
                {
                    return false;
                }
            }
            _ => shared.ack(ssid, self.frontier),
        }
        shared.post_ack_fault(&tel.operator, instance, ssid, || {
            if let OperatorKind::Stateful { state, .. } = &mut self.kind {
                let _ = state.settle();
            }
        });
        broadcast(&Item::Marker(ssid), &self.outs);
        if let OperatorKind::Stateful { state, .. } = &self.kind {
            state.record_capture_stall(aligned_at.elapsed());
        }
        self.pending_marker = None;
        self.aligned.clear();
        let mut buffer = std::mem::take(&mut self.buffer);
        for record in buffer.drain(..) {
            if !self.process(record) {
                return false;
            }
        }
        self.buffer = buffer;
        // Next epoch begins: watermarks deferred during the round apply
        // after the replayed records they followed.
        self.apply_deferred_watermarks();
        true
    }

    /// Advance the event-time frontier to the minimum of the input
    /// channels' watermarks (an Eos channel holds `u64::MAX` so it stops
    /// gating the min). The frontier is monotonic; on advance it is
    /// published to the instance gauge (rebased into the unix-epoch domain
    /// so sys tables can compare it against persisted seal stamps and
    /// across clocks), sampled into the lag histogram, and forwarded on the
    /// engine clock.
    fn advance_frontier(&mut self) {
        let min = self.channel_wm.iter().copied().min().unwrap_or(0);
        if min != u64::MAX && min > self.frontier {
            self.frontier = min;
            self.wm_gauge
                .set(self.shared.clock.to_epoch_micros(min) as i64);
            self.tel
                .watermark_lag
                .record(self.shared.clock.now_micros().saturating_sub(min));
            broadcast(&Item::Watermark(min), &self.outs);
        }
    }

    /// Fold watermarks (and Eos releases, `u64::MAX`) parked during marker
    /// alignment into the live per-channel watermarks and re-derive the
    /// frontier. Runs after the round's phase-1 step and buffer replay, so
    /// the frontier only ever claims completeness for records that have
    /// actually been processed — and any resulting downstream watermark
    /// follows the records it promises about.
    fn apply_deferred_watermarks(&mut self) {
        let mut any = false;
        for (slot, d) in self.channel_wm.iter_mut().zip(self.deferred_wm.iter_mut()) {
            if *d > 0 {
                *slot = (*slot).max(*d);
                *d = 0;
                any = true;
            }
        }
        if any {
            self.advance_frontier();
        }
    }
}

/// Phase 1 of a stateful instance on its own thread: freeze the state for
/// `ssid` and hand it to a background writer. The writer writes through the
/// job's capture fence, then acks with `frontier` (captured here, at the
/// marker); a writer the fence stopped does not ack, and a writer panic is
/// recorded as a worker death so the coordinator aborts at once.
fn freeze_state(
    state: &mut StateBackend,
    ssid: SnapshotId,
    frontier: u64,
    shared: &Arc<Shared>,
    operator: &str,
    instance: u32,
) -> SqResult<()> {
    let admit = {
        let shared = Arc::clone(shared);
        let operator = operator.to_string();
        move |i: usize, n: usize, write: &mut dyn FnMut()| {
            if i + 1 == n {
                shared.capture_fault(&operator, instance, ssid);
            }
            shared.captures.admit(ssid, write)
        }
    };
    let done = {
        let shared = Arc::clone(shared);
        let operator = operator.to_string();
        move |outcome: std::thread::Result<bool>| match outcome {
            Ok(true) => shared.ack(ssid, frontier),
            Ok(false) => {}
            Err(payload) => shared.note_worker_panic(
                &operator,
                instance,
                &format!("snapshot writer: {}", panic_text(payload)),
            ),
        }
    };
    state.capture(ssid, admit, done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn shared() -> (Arc<Shared>, Receiver<Ack>) {
        let (ack_tx, ack_rx) = unbounded();
        (
            Arc::new(Shared {
                clock: Clock::manual(),
                poison: AtomicBool::new(false),
                ack_tx,
                latency: SharedHistogram::new(),
                sink_count: AtomicU64::new(0),
                source_count: AtomicU64::new(0),
                live_instances: AtomicU32::new(1),
                exhausted_sources: AtomicU32::new(0),
                partitioner: Partitioner::new(16),
                telemetry: MetricsRegistry::new(),
                faults: None,
                dead_workers: AtomicU32::new(0),
                coordinator_dead: AtomicBool::new(false),
                failure: Mutex::new(None),
                captures: CaptureFence::default(),
            }),
            ack_rx,
        )
    }

    fn tel(shared: &Shared, operator: &str) -> WorkerTelemetry {
        WorkerTelemetry::for_operator(&shared.telemetry, operator)
    }

    /// A sink worker with two input channels must align markers: records
    /// arriving on an already-aligned channel wait until the other channel's
    /// marker arrives.
    #[test]
    fn marker_alignment_buffers_post_marker_records() {
        let (shared, ack_rx) = shared();
        let (tx, rx) = unbounded::<Tagged>();
        use parking_lot::Mutex;
        let seen: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        struct CollectSink(Arc<Mutex<Vec<i64>>>);
        impl Sink for CollectSink {
            fn consume(&mut self, r: Record) {
                self.0.lock().push(r.key.as_int().unwrap());
            }
        }
        let worker = {
            let shared = Arc::clone(&shared);
            let tel = tel(&shared, "collect");
            std::thread::spawn(move || {
                run_operator(
                    rx,
                    2,
                    OperatorKind::Sink(Box::new(CollectSink(seen2))),
                    vec![],
                    0,
                    shared,
                    tel,
                )
            })
        };
        let rec = |from: u32, k: i64| Tagged {
            from,
            item: Item::Record(Record::new(k, 0i64)),
        };
        let marker = |from: u32| Tagged {
            from,
            item: Item::Marker(SnapshotId(1)),
        };
        // Channel 0: r1, marker, r3 (r3 must wait). Channel 1: r2, marker.
        tx.send(rec(0, 1)).unwrap();
        tx.send(marker(0)).unwrap();
        tx.send(rec(0, 3)).unwrap();
        tx.send(rec(1, 2)).unwrap();
        tx.send(marker(1)).unwrap();
        tx.send(Tagged {
            from: 0,
            item: Item::Eos,
        })
        .unwrap();
        tx.send(Tagged {
            from: 1,
            item: Item::Eos,
        })
        .unwrap();
        worker.join().unwrap();
        let order = seen.lock().clone();
        assert_eq!(order, vec![1, 2, 3], "r3 processed only after alignment");
        let ack = ack_rx.try_recv().unwrap();
        assert_eq!(ack.ssid, SnapshotId(1));
        assert_eq!(shared.sink_count.load(Ordering::Relaxed), 3);
        // Telemetry: 3 records in, a worker started+stopped pair, and one
        // alignment-stall sample for the completed round.
        let l = [("operator", "collect")];
        assert_eq!(
            shared
                .telemetry
                .counter_value("operator_records_in_total", &l),
            Some(3)
        );
        let kinds: Vec<_> = shared
            .telemetry
            .events()
            .snapshot()
            .iter()
            .map(|e| e.kind.as_str().to_string())
            .collect();
        assert!(kinds.contains(&"worker_started".to_string()));
        assert!(kinds.contains(&"worker_stopped".to_string()));
        let stalls = shared
            .telemetry
            .histograms()
            .into_iter()
            .find(|(k, _)| k.name == "operator_align_stall_us")
            .expect("stall histogram exists")
            .1;
        assert_eq!(stalls.count(), 1);
    }

    #[test]
    fn eos_channel_counts_as_aligned() {
        let (shared, ack_rx) = shared();
        let (tx, rx) = unbounded::<Tagged>();
        struct Null;
        impl Sink for Null {
            fn consume(&mut self, _r: Record) {}
        }
        let worker = {
            let shared = Arc::clone(&shared);
            let tel = tel(&shared, "null");
            std::thread::spawn(move || {
                run_operator(
                    rx,
                    2,
                    OperatorKind::Sink(Box::new(Null)),
                    vec![],
                    0,
                    shared,
                    tel,
                )
            })
        };
        // Channel 1 ends before the checkpoint; channel 0's marker alone
        // must complete it.
        tx.send(Tagged {
            from: 1,
            item: Item::Eos,
        })
        .unwrap();
        tx.send(Tagged {
            from: 0,
            item: Item::Marker(SnapshotId(7)),
        })
        .unwrap();
        tx.send(Tagged {
            from: 0,
            item: Item::Eos,
        })
        .unwrap();
        worker.join().unwrap();
        assert_eq!(ack_rx.try_recv().unwrap().ssid, SnapshotId(7));
    }

    #[test]
    fn poison_stops_worker() {
        let (shared, _ack) = shared();
        let (_tx, rx) = unbounded::<Tagged>();
        struct Null;
        impl Sink for Null {
            fn consume(&mut self, _r: Record) {}
        }
        shared.poison.store(true, Ordering::Relaxed);
        let s2 = Arc::clone(&shared);
        let t2 = tel(&shared, "null");
        let worker = std::thread::spawn(move || {
            run_operator(rx, 1, OperatorKind::Sink(Box::new(Null)), vec![], 0, s2, t2)
        });
        worker.join().unwrap();
        assert_eq!(shared.live_instances.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn panicking_sink_is_caught_and_flagged() {
        let (shared, _ack) = shared();
        let (tx, rx) = unbounded::<Tagged>();
        struct ExplodingSink;
        impl Sink for ExplodingSink {
            fn consume(&mut self, _r: Record) {
                panic!("sink exploded");
            }
        }
        let s2 = Arc::clone(&shared);
        let t2 = tel(&shared, "boom");
        let worker = std::thread::spawn(move || {
            run_operator(
                rx,
                1,
                OperatorKind::Sink(Box::new(ExplodingSink)),
                vec![],
                0,
                s2,
                t2,
            )
        });
        tx.send(Tagged {
            from: 0,
            item: Item::Record(Record::new(1i64, 1i64)),
        })
        .unwrap();
        // The worker thread itself must NOT propagate the panic: join
        // succeeds, the death is flagged, and the live count still dropped.
        worker.join().expect("unwind was caught inside the worker");
        assert_eq!(shared.dead_workers.load(Ordering::Acquire), 1);
        assert_eq!(shared.live_instances.load(Ordering::Acquire), 0);
        let failure = shared.worker_failure().expect("failure recorded");
        assert!(failure.contains("boom#0"), "names the instance: {failure}");
        assert!(failure.contains("sink exploded"));
        let kinds: Vec<_> = shared
            .telemetry
            .events()
            .snapshot()
            .iter()
            .map(|e| e.kind.as_str().to_string())
            .collect();
        assert!(kinds.contains(&"worker_panicked".to_string()));
    }

    #[test]
    fn injected_record_fault_panics_worker_deterministically() {
        use squery_common::fault::{
            FaultAction, FaultInjector, FaultPlan, FaultSpec, FaultTrigger, InjectionPoint,
        };
        let (ack_tx, _ack_rx) = unbounded();
        let plan = FaultPlan::new(7).with(FaultSpec {
            point: InjectionPoint::WorkerRecord,
            action: FaultAction::PanicWorker,
            trigger: FaultTrigger {
                at_record: Some(3),
                operator: Some("victim".into()),
                ..FaultTrigger::default()
            },
            once: true,
        });
        let injector = Arc::new(FaultInjector::new(plan));
        let shared = Arc::new(Shared {
            clock: Clock::manual(),
            poison: AtomicBool::new(false),
            ack_tx,
            latency: SharedHistogram::new(),
            sink_count: AtomicU64::new(0),
            source_count: AtomicU64::new(0),
            live_instances: AtomicU32::new(1),
            exhausted_sources: AtomicU32::new(0),
            partitioner: Partitioner::new(16),
            telemetry: MetricsRegistry::new(),
            faults: Some(Arc::clone(&injector)),
            dead_workers: AtomicU32::new(0),
            coordinator_dead: AtomicBool::new(false),
            failure: Mutex::new(None),
            captures: CaptureFence::default(),
        });
        let (tx, rx) = unbounded::<Tagged>();
        struct Null;
        impl Sink for Null {
            fn consume(&mut self, _r: Record) {}
        }
        let s2 = Arc::clone(&shared);
        let t2 = tel(&shared, "victim");
        let worker = std::thread::spawn(move || {
            run_operator(rx, 1, OperatorKind::Sink(Box::new(Null)), vec![], 0, s2, t2)
        });
        for k in 0..5i64 {
            let _ = tx.send(Tagged {
                from: 0,
                item: Item::Record(Record::new(k, 0i64)),
            });
        }
        worker.join().unwrap();
        // Records 1 and 2 were consumed; the fault fired at the 3rd.
        assert_eq!(shared.sink_count.load(Ordering::Relaxed), 2);
        assert_eq!(shared.dead_workers.load(Ordering::Acquire), 1);
        let records = injector.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].point, InjectionPoint::WorkerRecord);
        assert_eq!(records[0].operator.as_deref(), Some("victim"));
    }

    /// The operator frontier is the min across input channels, monotonic,
    /// released by Eos, published to the instance gauge, and carried on the
    /// phase-1 ack.
    #[test]
    fn watermark_frontier_is_min_across_channels() {
        let (shared, ack_rx) = shared();
        let (tx, rx) = unbounded::<Tagged>();
        struct Null;
        impl Sink for Null {
            fn consume(&mut self, _r: Record) {}
        }
        let worker = {
            let shared = Arc::clone(&shared);
            let tel = tel(&shared, "wm");
            std::thread::spawn(move || {
                run_operator(
                    rx,
                    2,
                    OperatorKind::Sink(Box::new(Null)),
                    vec![],
                    0,
                    shared,
                    tel,
                )
            })
        };
        let wm = |from: u32, w: u64| Tagged {
            from,
            item: Item::Watermark(w),
        };
        // Channel 0 at 100, channel 1 at 50 → frontier 50.
        tx.send(wm(0, 100)).unwrap();
        tx.send(wm(1, 50)).unwrap();
        // Channel 1 jumps to 200 → frontier min(100, 200) = 100; the marker
        // ack then carries that frontier.
        tx.send(wm(1, 200)).unwrap();
        tx.send(Tagged {
            from: 0,
            item: Item::Marker(SnapshotId(3)),
        })
        .unwrap();
        tx.send(Tagged {
            from: 1,
            item: Item::Marker(SnapshotId(3)),
        })
        .unwrap();
        // Channel 0 finishes → it stops gating the min → frontier 200.
        tx.send(Tagged {
            from: 0,
            item: Item::Eos,
        })
        .unwrap();
        tx.send(Tagged {
            from: 1,
            item: Item::Eos,
        })
        .unwrap();
        worker.join().unwrap();
        let ack = ack_rx.try_recv().unwrap();
        assert_eq!(ack.ssid, SnapshotId(3));
        assert_eq!(ack.watermark_us, 100, "ack carries the frontier at align");
        let gauge = shared
            .telemetry
            .gauges()
            .into_iter()
            .find(|(k, _)| k.name == "watermark_us")
            .expect("instance frontier gauge exists");
        assert_eq!(gauge.1, 200, "Eos releases the finished channel");
        let lag_samples = shared
            .telemetry
            .histograms()
            .into_iter()
            .find(|(k, _)| k.name == "watermark_lag_us")
            .expect("lag histogram exists")
            .1;
        assert_eq!(lag_samples.count(), 3, "one sample per frontier advance");
    }

    /// Post-marker watermarks from an already-aligned channel must not raise
    /// the frontier the snapshot ack carries: like post-marker records they
    /// belong to the next epoch, and apply only after alignment completes.
    #[test]
    fn post_marker_watermarks_defer_until_alignment() {
        let (shared, ack_rx) = shared();
        let (tx, rx) = unbounded::<Tagged>();
        struct Null;
        impl Sink for Null {
            fn consume(&mut self, _r: Record) {}
        }
        let worker = {
            let shared = Arc::clone(&shared);
            let tel = tel(&shared, "defer");
            std::thread::spawn(move || {
                run_operator(
                    rx,
                    2,
                    OperatorKind::Sink(Box::new(Null)),
                    vec![],
                    0,
                    shared,
                    tel,
                )
            })
        };
        let wm = |from: u32, w: u64| Tagged {
            from,
            item: Item::Watermark(w),
        };
        tx.send(wm(0, 100)).unwrap();
        tx.send(wm(1, 200)).unwrap(); // frontier = min(100, 200) = 100
        tx.send(Tagged {
            from: 0,
            item: Item::Marker(SnapshotId(7)),
        })
        .unwrap();
        // Channel 0 races ahead of the open round: a record (buffered out of
        // the cut) and a watermark promising event-time past it.
        tx.send(Tagged {
            from: 0,
            item: Item::Record(Record::new(1i64, 1i64).at(450)),
        })
        .unwrap();
        tx.send(wm(0, 500)).unwrap();
        tx.send(Tagged {
            from: 1,
            item: Item::Marker(SnapshotId(7)),
        })
        .unwrap();
        tx.send(Tagged {
            from: 0,
            item: Item::Eos,
        })
        .unwrap();
        tx.send(Tagged {
            from: 1,
            item: Item::Eos,
        })
        .unwrap();
        worker.join().unwrap();
        let ack = ack_rx.try_recv().unwrap();
        // The snapshot excludes the buffered record, so the ack must not
        // carry channel 0's post-marker promise (applying it eagerly would
        // ack min(500, 200) = 200).
        assert_eq!(ack.watermark_us, 100, "acked frontier predates the marker");
        // Once the round sealed, the deferred watermark applied: min(500, 200).
        let gauge = shared
            .telemetry
            .gauges()
            .into_iter()
            .find(|(k, _)| k.name == "watermark_us")
            .expect("instance frontier gauge exists");
        assert_eq!(gauge.1, 200, "deferred watermark applies after the ack");
        assert_eq!(
            shared.sink_count.load(Ordering::Relaxed),
            1,
            "buffered record replayed"
        );
    }

    /// Eos arriving on a channel that already delivered this round's marker
    /// must not release that channel's watermark gate before the ack — the
    /// release is next-epoch, exactly like a deferred watermark.
    #[test]
    fn eos_on_aligned_channel_defers_release_until_alignment() {
        let (shared, ack_rx) = shared();
        let (tx, rx) = unbounded::<Tagged>();
        struct Null;
        impl Sink for Null {
            fn consume(&mut self, _r: Record) {}
        }
        let worker = {
            let shared = Arc::clone(&shared);
            let tel = tel(&shared, "eosdefer");
            std::thread::spawn(move || {
                run_operator(
                    rx,
                    2,
                    OperatorKind::Sink(Box::new(Null)),
                    vec![],
                    0,
                    shared,
                    tel,
                )
            })
        };
        let wm = |from: u32, w: u64| Tagged {
            from,
            item: Item::Watermark(w),
        };
        tx.send(wm(0, 100)).unwrap();
        tx.send(wm(1, 200)).unwrap(); // frontier 100, gated by channel 0
        tx.send(Tagged {
            from: 0,
            item: Item::Marker(SnapshotId(9)),
        })
        .unwrap();
        // Aligned channel finishes mid-round: an eager release would lift
        // channel 0's gate and ack 200.
        tx.send(Tagged {
            from: 0,
            item: Item::Eos,
        })
        .unwrap();
        tx.send(Tagged {
            from: 1,
            item: Item::Marker(SnapshotId(9)),
        })
        .unwrap();
        tx.send(Tagged {
            from: 1,
            item: Item::Eos,
        })
        .unwrap();
        worker.join().unwrap();
        let ack = ack_rx.try_recv().unwrap();
        assert_eq!(ack.ssid, SnapshotId(9));
        assert_eq!(ack.watermark_us, 100, "Eos release deferred past the ack");
    }

    /// A source stamping out-of-order `src_ts` breaks the max-based
    /// watermark promise: emission is suspended, every violation counted,
    /// and the marker ack demotes its frontier to unknown (0).
    #[test]
    fn unordered_source_suspends_watermarks_and_acks_unknown() {
        struct Unordered {
            batches: usize,
        }
        impl Source for Unordered {
            fn next_batch(
                &mut self,
                _max: usize,
                _now: u64,
                out: &mut Vec<Record>,
            ) -> SourceStatus {
                self.batches += 1;
                match self.batches {
                    1 => {
                        out.push(Record::new(1i64, 1i64).at(100));
                        SourceStatus::Active
                    }
                    2 => {
                        // Regression: below the already-promised 100.
                        out.push(Record::new(2i64, 2i64).at(50));
                        SourceStatus::Exhausted
                    }
                    _ => SourceStatus::Exhausted,
                }
            }
            fn offset(&self) -> Value {
                Value::Int(self.batches as i64)
            }
            fn rewind(&mut self, _offset: &Value) {}
        }
        let (shared, ack_rx) = shared();
        let grid = squery_storage::Grid::single_node();
        let saver = OffsetSaver {
            store: grid.snapshot_store("__offsets"),
            key: Value::str("src#0"),
        };
        let (ctl_tx, ctl_rx) = unbounded();
        let worker = {
            let shared = Arc::clone(&shared);
            let tel = tel(&shared, "unordered");
            std::thread::spawn(move || {
                run_source(
                    Box::new(Unordered { batches: 0 }),
                    ctl_rx,
                    vec![],
                    0,
                    8,
                    shared,
                    saver,
                    tel,
                )
            })
        };
        // Both records (and thus the regression) must land before the marker.
        while shared.source_count.load(Ordering::Relaxed) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        ctl_tx.send(SourceCommand::Marker(SnapshotId(1))).unwrap();
        let ack = ack_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            ack.watermark_us, 0,
            "regressed source acks an unknown frontier, not the stale max"
        );
        ctl_tx.send(SourceCommand::Stop).unwrap();
        worker.join().unwrap();
        let violations = shared
            .telemetry
            .counter_value("watermark_violations_total", &[("operator", "unordered")])
            .expect("violation counter exists");
        assert_eq!(violations, 1);
        let kinds: Vec<_> = shared
            .telemetry
            .events()
            .snapshot()
            .iter()
            .map(|e| e.kind.as_str().to_string())
            .collect();
        assert!(kinds.contains(&"watermark_regressed".to_string()));
    }

    #[test]
    fn offset_saver_roundtrip() {
        let grid = squery_storage::Grid::single_node();
        let saver = OffsetSaver {
            store: grid.snapshot_store("__offsets"),
            key: Value::str("src#0"),
        };
        saver.save(SnapshotId(1), Value::Int(42));
        assert_eq!(saver.load(SnapshotId(1)), Some(Value::Int(42)));
        assert_eq!(saver.load(SnapshotId(2)), Some(Value::Int(42)));
    }
}
