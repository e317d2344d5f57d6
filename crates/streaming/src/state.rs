//! Keyed operator state and its backends.
//!
//! A stateful operator sees its state as a [`KeyedState`] map. The engine
//! wraps it in a [`StateBackend`] that implements the configurations the
//! paper evaluates (Figure 8):
//!
//! * **live write-through** — every update is mirrored into the operator's
//!   grid `IMap` (Table I), making the *live state* externally queryable;
//!   the mirroring cost is exactly the live-state overhead of Figure 8;
//! * **queryable snapshots** — at each checkpoint the backend writes per-key
//!   entries into the operator's `snapshot_<name>` store (Table II), either
//!   the full state or only the keys dirtied since the previous checkpoint
//!   (incremental, §VI-A);
//! * **blob snapshots** — the plain-Jet baseline: the whole state serializes
//!   into one opaque byte blob ("Formerly, snapshot state in the KV store was
//!   a mere blob structure"). Cheap to write, impossible to query.
//!
//! The state is held as one map per grid partition. A checkpoint is
//! captured in two halves, after the Lightweight Asynchronous Snapshots
//! design: at the marker the operator thread only *freezes* the state
//! ([`StateBackend::capture`]) — it moves each non-empty partition into an
//! `Arc`, keeps one handle and gives one to the capture, and takes the
//! dirty keys, O(partitions) — and resumes; a background writer then
//! encodes the frozen partitions into the snapshot store (and, through it,
//! the WAL) and reports back. A put to a partition the writer still holds
//! copies that partition first, so the capture keeps the content it had at
//! the marker; the writer drops each handle once its partition is encoded,
//! and a put to a released partition takes the map back without a copy.
//! All three sinks share this one capture path. Each backend has one writer
//! thread, which runs its captures in order, one at a time: the next
//! capture and a restore wait for the one in flight, and drop joins the
//! thread.
//!
//! A frozen partition's last reference can be dropped on either thread: by
//! the writer releasing its handle, or by a put replacing the partition
//! with its copy. Both happen under the backend's `release` lock. `Arc`
//! orders a last-reference drop through an `Acquire` fence, which
//! ThreadSanitizer does not model; the lock gives the same edge in a form
//! it sees. (Taking a map back needs no lock: `Arc::get_mut` reads the
//! count with `Acquire`.)
//!
//! In incremental mode, a capture whose round was discarded (aborted) makes
//! the next capture a full one, so no change is lost to an abort.
//!
//! The backend also restores state from a committed snapshot during rollback
//! recovery, rebuilding the live map for its own partitions.

use bytes::{BufMut, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use squery_common::codec;
use squery_common::lockorder::{self, LockClass};
use squery_common::metrics::SharedHistogram;
use squery_common::telemetry::{Counter, MetricsRegistry};
use squery_common::trace::{SpanCollector, SpanGuard};
use squery_common::{PartitionId, Partitioner, SnapshotId, SqError, SqResult, Value};
use squery_storage::{IMap, SnapshotMode, SnapshotStore};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-operator state-update telemetry (shared by a vertex's instances).
struct BackendTelemetry {
    /// Puts + removes through [`KeyedState`].
    state_updates: Counter,
    /// Wall time of the live-map write-through mirror, per update.
    live_mirror_us: SharedHistogram,
    /// Wall time of one background capture write (the persisting half of
    /// phase 1).
    snapshot_us: SharedHistogram,
    /// Marker-to-resume time on the operator thread (the stalling half).
    capture_stall_us: SharedHistogram,
    /// The registry's span collector (`mirror_write`, `snapshot_capture`).
    spans: SpanCollector,
}

/// The keyed-state view an operator programs against.
pub trait KeyedState {
    /// Read the state object for `key`.
    fn get(&self, key: &Value) -> Option<Value>;
    /// Insert or overwrite the state object for `key`.
    fn put(&mut self, key: Value, value: Value);
    /// Remove `key`'s state object.
    fn remove(&mut self, key: &Value) -> Option<Value>;
    /// Number of keys held.
    fn len(&self) -> usize;
    /// Whether no keys are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where checkpoints write this operator's state.
pub enum SnapshotSink {
    /// No checkpointing (ephemeral state).
    None,
    /// Queryable per-key entries (S-QUERY).
    Queryable {
        /// The operator's snapshot store.
        store: Arc<SnapshotStore>,
        /// Full or incremental checkpoints.
        mode: SnapshotMode,
    },
    /// One opaque blob per instance (the plain-Jet baseline).
    Blob {
        /// The store holding the blob entries.
        store: Arc<SnapshotStore>,
    },
}

/// A partition map as a capture freezes it.
type PartitionMap = Arc<HashMap<Value, Value>>;

/// One partition of the state: owned outright, or frozen by a capture
/// whose writer may still read it. A put takes a frozen partition back (or
/// copies it, while the writer holds it); an owned one costs no atomic.
enum Part {
    Own(HashMap<Value, Value>),
    Frozen(PartitionMap),
}

impl Default for Part {
    fn default() -> Part {
        Part::Own(HashMap::new())
    }
}

impl Part {
    fn map(&self) -> &HashMap<Value, Value> {
        match self {
            Part::Own(map) => map,
            Part::Frozen(map) => map,
        }
    }
}

/// The engine-managed state of one stateful-operator instance.
pub struct StateBackend {
    name: String,
    instance: u32,
    partitioner: Partitioner,
    /// The contiguous partition range this instance owns.
    owned: Range<u32>,
    /// One map per grid partition, indexed by partition id (a key outside
    /// `owned` is kept too, in its own partition).
    parts: Vec<Part>,
    /// Taken to drop a frozen partition's handle (see the module docs).
    release: Arc<Mutex<()>>,
    /// Per partition, the keys changed (put or removed) since the last
    /// capture. Kept only for an incremental sink.
    dirty: Vec<HashSet<Value>>,
    track_dirty: bool,
    len: usize,
    live: Option<Arc<IMap>>,
    sink: SnapshotSink,
    /// First checkpoint after (re)start writes a complete view even in
    /// incremental mode, so every chain has a base.
    has_snapshotted: bool,
    telemetry: Option<Arc<BackendTelemetry>>,
    /// The background writer, started at the first capture.
    writer: Option<Writer>,
    /// The round of the last capture.
    last_capture: Option<SnapshotId>,
}

/// One capture's work for the writer thread.
type Job = Box<dyn FnOnce() + Send>;

/// A stateful instance's snapshot writer: one thread for the backend's
/// life that runs its captures one at a time, in order. (A thread per
/// round spread the written versions over ever more malloc arenas and
/// raised peak RSS.)
struct Writer {
    jobs: Option<Sender<Job>>,
    finished: Receiver<()>,
    in_flight: bool,
    thread: Option<JoinHandle<()>>,
}

impl Writer {
    fn start(name: String) -> SqResult<Writer> {
        let (jobs, queue) = unbounded::<Job>();
        let (finish, finished) = unbounded();
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                while let Ok(job) = queue.recv() {
                    job();
                    if finish.send(()).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| SqError::Runtime(format!("cannot start a snapshot writer: {e}")))?;
        Ok(Writer {
            jobs: Some(jobs),
            finished,
            in_flight: false,
            thread: Some(thread),
        })
    }

    fn run(&mut self, job: Job) -> SqResult<()> {
        let sent = self
            .jobs
            .as_ref()
            .is_some_and(|jobs| jobs.send(job).is_ok());
        if !sent {
            return Err(SqError::Runtime("the snapshot writer has stopped".into()));
        }
        self.in_flight = true;
        Ok(())
    }

    /// Wait for the capture in flight, if any; false when the thread died.
    fn settle(&mut self) -> bool {
        !std::mem::take(&mut self.in_flight) || self.finished.recv().is_ok()
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A writer's handle on one frozen partition; dropping it takes the
/// backend's `release` lock.
struct FrozenMap {
    map: PartitionMap,
    release: Arc<Mutex<()>>,
}

impl Drop for FrozenMap {
    fn drop(&mut self) {
        let _lo = lockorder::acquired(LockClass::CaptureRelease);
        let _held = self.release.lock();
        drop(std::mem::take(&mut self.map));
    }
}

/// One frozen partition of a capture.
struct Frozen {
    pid: u32,
    /// Released as soon as the partition is encoded.
    map: Option<FrozenMap>,
    /// The delta's keys (empty for a full capture).
    dirty: HashSet<Value>,
}

impl Frozen {
    /// The partition's entries to write — all of them, or the delta's keys
    /// with their frozen values (absent ⇒ tombstone) — releasing the frozen
    /// handle. Empty once released.
    fn encode(&mut self, full: bool) -> Vec<(Value, Option<Value>)> {
        let Some(mut frozen) = self.map.take() else {
            return Vec::new();
        };
        if !full {
            return self
                .dirty
                .iter()
                .map(|k| (k.clone(), frozen.map.get(k).cloned()))
                .collect();
        }
        match Arc::get_mut(&mut frozen.map) {
            // The operator copied the partition: this is the last handle,
            // so move the entries out.
            Some(map) => std::mem::take(map)
                .into_iter()
                .map(|(k, v)| (k, Some(v)))
                .collect(),
            None => frozen
                .map
                .iter()
                .map(|(k, v)| (k.clone(), Some(v.clone())))
                .collect(),
        }
    }
}

/// Where a capture writes.
enum Target {
    Queryable(Arc<SnapshotStore>),
    Blob {
        store: Arc<SnapshotStore>,
        key: Value,
        pid: PartitionId,
    },
}

/// The content of one checkpoint, fixed at the marker.
struct Capture {
    ssid: SnapshotId,
    full: bool,
    target: Target,
    parts: Vec<Frozen>,
    operator: String,
    instance: u32,
    telemetry: Option<Arc<BackendTelemetry>>,
    /// The checkpoint round's root span, read at the marker.
    round: Option<u64>,
}

impl Capture {
    /// Partition writes this capture makes.
    fn writes(&self) -> usize {
        match self.target {
            Target::Queryable(_) => self.parts.len(),
            Target::Blob { .. } => 1,
        }
    }

    /// Encode and write every frozen partition. Write `i` of `n` runs
    /// through `admit(i, n, write)`, which runs it and returns true, or
    /// returns false without running it to stop the capture (its round was
    /// closed); the capture then returns false.
    fn write(&mut self, admit: &mut impl FnMut(usize, usize, &mut dyn FnMut()) -> bool) -> bool {
        let start = Instant::now();
        let mut span = match &self.telemetry {
            Some(t) => match self.round {
                Some(round) => t.spans.child("snapshot_capture", round),
                None => t.spans.start("snapshot_capture"),
            },
            None => SpanGuard::inert(),
        };
        if span.is_active() {
            span.label("operator", &self.operator);
            span.label("instance", self.instance);
            span.label("ssid", self.ssid.0);
        }
        let n = self.writes();
        let (ssid, full) = (self.ssid, self.full);
        match &self.target {
            Target::Queryable(store) => {
                // A delta reads only its own keys: it reads them all up
                // front, releasing every frozen partition before its first
                // write. A full capture encodes each partition inside its
                // write, one copy of the entries at a time.
                let mut deltas: Vec<_> = if full {
                    Vec::new()
                } else {
                    self.parts.iter_mut().map(|p| p.encode(false)).collect()
                };
                for (i, part) in self.parts.iter_mut().enumerate() {
                    let mut write = || {
                        let entries = match deltas.get_mut(i) {
                            Some(delta) => std::mem::take(delta),
                            None => part.encode(true),
                        };
                        store.write_partition(ssid, PartitionId(part.pid), entries, full);
                    };
                    if !admit(i, n, &mut write) {
                        return false;
                    }
                }
            }
            Target::Blob { store, key, pid } => {
                let parts = &mut self.parts;
                let mut write = || {
                    let blob =
                        encode_blob(parts.iter().filter_map(|p| Some(&*p.map.as_ref()?.map)));
                    for part in parts.iter_mut() {
                        part.map = None;
                    }
                    store.write_partition(ssid, *pid, vec![(key.clone(), Some(blob))], true);
                };
                if !admit(0, n, &mut write) {
                    return false;
                }
            }
        }
        if let Some(t) = &self.telemetry {
            t.snapshot_us.record(start.elapsed().as_micros() as u64);
        }
        true
    }
}

impl StateBackend {
    /// A backend for instance `instance` of `total` of operator `name`.
    pub fn new(
        name: impl Into<String>,
        instance: u32,
        total: u32,
        partitioner: Partitioner,
        live: Option<Arc<IMap>>,
        sink: SnapshotSink,
    ) -> StateBackend {
        let owned = partitioner.partitions_of_instance(instance, total);
        let owned = match (owned.first(), owned.last()) {
            (Some(first), Some(last)) => first.0..last.0 + 1,
            _ => 0..0,
        };
        let count = partitioner.partition_count() as usize;
        let track_dirty = matches!(
            sink,
            SnapshotSink::Queryable {
                mode: SnapshotMode::Incremental,
                ..
            }
        );
        StateBackend {
            name: name.into(),
            instance,
            partitioner,
            owned,
            parts: (0..count).map(|_| Part::default()).collect(),
            release: Arc::default(),
            dirty: (0..count).map(|_| HashSet::new()).collect(),
            track_dirty,
            len: 0,
            live,
            sink,
            has_snapshotted: false,
            telemetry: None,
            writer: None,
            last_capture: None,
        }
    }

    /// Wire this backend into `registry`: a `state_updates_total` counter
    /// plus `state_live_mirror_us` / `state_snapshot_us` /
    /// `state_capture_stall_us` histograms, all labelled `operator=<name>`.
    pub fn with_telemetry(mut self, registry: &MetricsRegistry) -> StateBackend {
        let labels = [("operator", self.name.as_str())];
        self.telemetry = Some(Arc::new(BackendTelemetry {
            state_updates: registry.counter("state_updates_total", &labels),
            live_mirror_us: registry.histogram("state_live_mirror_us", &labels),
            snapshot_us: registry.histogram("state_snapshot_us", &labels),
            capture_stall_us: registry.histogram("state_capture_stall_us", &labels),
            spans: registry.spans().clone(),
        }));
        self
    }

    /// A `mirror_write` span for one live write-through. Inert when the
    /// backend has no telemetry or tracing is disabled.
    fn mirror_span(&self) -> SpanGuard {
        match &self.telemetry {
            Some(t) => {
                let mut g = t.spans.start("mirror_write");
                g.label("operator", &self.name);
                g
            }
            None => SpanGuard::inert(),
        }
    }

    /// Run the live write-through mirror for one update.
    fn mirror(&self, write: impl FnOnce(&IMap)) {
        let Some(live) = &self.live else { return };
        let start = self.telemetry.as_ref().map(|_| Instant::now());
        let span = self.mirror_span();
        write(live);
        drop(span);
        if let (Some(t), Some(s)) = (&self.telemetry, start) {
            t.live_mirror_us.record(s.elapsed().as_micros() as u64);
        }
    }

    /// The operator name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The grid partitions this instance owns.
    pub fn owned_partitions(&self) -> Vec<PartitionId> {
        self.owned.clone().map(PartitionId).collect()
    }

    /// Phase 1 on the operator thread: wait for the previous capture, freeze
    /// the state for checkpoint `ssid`, and hand it to the backend's writer
    /// thread, which persists it. The writer makes its partition write `i`
    /// of `n` through `admit(i, n, write)`, which runs `write` and returns
    /// true, or returns false to stop the capture. It then calls `done` with
    /// the outcome: `Ok(true)` when every partition was written, `Ok(false)`
    /// when `admit` stopped it, the panic payload when it panicked. Errs
    /// when the previous writer panicked outside its capture or no writer
    /// could be started.
    pub fn capture(
        &mut self,
        ssid: SnapshotId,
        mut admit: impl FnMut(usize, usize, &mut dyn FnMut()) -> bool + Send + 'static,
        done: impl FnOnce(std::thread::Result<bool>) + Send + 'static,
    ) -> SqResult<()> {
        self.settle()?;
        if let (Some(prev), SnapshotSink::Queryable { store, .. }) = (self.last_capture, &self.sink)
        {
            // The last capture's round was aborted: its delta is gone, so
            // this one writes a complete view.
            if store.is_discarded(prev) {
                self.has_snapshotted = false;
            }
        }
        let target = match &self.sink {
            SnapshotSink::None => {
                done(Ok(true));
                return Ok(());
            }
            SnapshotSink::Queryable { store, .. } => Target::Queryable(Arc::clone(store)),
            SnapshotSink::Blob { store } => {
                let key = blob_key(&self.name, self.instance);
                let pid = self.partitioner.partition_of(&key);
                Target::Blob {
                    store: Arc::clone(store),
                    key,
                    pid,
                }
            }
        };
        let full = match &self.sink {
            SnapshotSink::Queryable {
                mode: SnapshotMode::Incremental,
                ..
            } => !self.has_snapshotted,
            _ => true,
        };
        // Every owned partition is written, empty or not, so the version
        // exists store-wide; a foreign partition only when it has content.
        let mut parts = Vec::with_capacity(self.owned.len());
        for pid in 0..self.parts.len() {
            let dirty = std::mem::take(&mut self.dirty[pid]);
            let owned = self.owned.contains(&(pid as u32));
            let has_content = if full {
                !self.parts[pid].map().is_empty()
            } else {
                !dirty.is_empty()
            };
            if owned || has_content {
                // An empty partition or delta needs no frozen map.
                parts.push(Frozen {
                    pid: pid as u32,
                    map: has_content.then(|| FrozenMap {
                        map: self.freeze(pid),
                        release: Arc::clone(&self.release),
                    }),
                    dirty: if full { HashSet::new() } else { dirty },
                });
            }
        }
        let mut capture = Capture {
            ssid,
            full,
            target,
            parts,
            operator: self.name.clone(),
            instance: self.instance,
            round: self
                .telemetry
                .as_ref()
                .and_then(|t| t.spans.current_round()),
            telemetry: self.telemetry.clone(),
        };
        self.has_snapshotted = true;
        self.last_capture = Some(ssid);
        let writer = match &mut self.writer {
            Some(writer) => writer,
            None => self.writer.insert(Writer::start(format!(
                "{}#{}-capture",
                self.name, self.instance
            ))?),
        };
        writer.run(Box::new(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| capture.write(&mut admit)));
            drop(capture);
            done(outcome);
        }))
    }

    /// Write this instance's state for checkpoint `ssid` and wait for it:
    /// [`StateBackend::capture`] with an always-open admission, joined.
    pub fn snapshot(&mut self, ssid: SnapshotId) -> SqResult<()> {
        self.capture(
            ssid,
            |_, _, write| {
                write();
                true
            },
            |outcome| {
                if let Err(payload) = outcome {
                    std::panic::resume_unwind(payload);
                }
            },
        )?;
        self.settle()
    }

    /// Wait for the capture in flight, if any. Errs when its writer
    /// panicked outside the capture's own `catch_unwind`; the next capture
    /// starts a fresh writer.
    pub fn settle(&mut self) -> SqResult<()> {
        if self.writer.as_mut().is_none_or(Writer::settle) {
            return Ok(());
        }
        self.writer = None;
        Err(SqError::Runtime(format!(
            "snapshot writer of '{}#{}' panicked",
            self.name, self.instance
        )))
    }

    /// Record one marker-to-resume stall (`state_capture_stall_us`).
    pub fn record_capture_stall(&self, stall: Duration) {
        if let Some(t) = &self.telemetry {
            t.capture_stall_us.record(stall.as_micros() as u64);
        }
    }

    /// Restore this instance's state from committed snapshot `ssid`
    /// (rollback recovery), rebuilding the live map for owned partitions.
    pub fn restore(&mut self, ssid: SnapshotId) -> SqResult<()> {
        // A writer still running would race the rebuilt state; its outcome
        // no longer matters.
        let _ = self.settle();
        self.last_capture = None;
        for part in &mut self.parts {
            *part = Part::default();
        }
        for keys in &mut self.dirty {
            keys.clear();
        }
        self.len = 0;
        self.has_snapshotted = false;
        match &self.sink {
            SnapshotSink::None => {
                return Err(SqError::Runtime(format!(
                    "operator '{}' has no snapshot sink to restore from",
                    self.name
                )))
            }
            SnapshotSink::Queryable { store, .. } => {
                for pid in self.owned.clone() {
                    let rows: HashMap<Value, Value> = store
                        .scan_partition_at(ssid, PartitionId(pid))?
                        .into_iter()
                        .collect();
                    self.len += rows.len();
                    self.parts[pid as usize] = Part::Own(rows);
                }
            }
            SnapshotSink::Blob { store } => {
                let key = blob_key(&self.name, self.instance);
                if let Some(blob) = store.read_at(ssid, &key)? {
                    for (k, v) in decode_blob(&blob)? {
                        let pid = self.partitioner.partition_of(&k).0 as usize;
                        if self.partition_mut(pid).insert(k, v).is_none() {
                            self.len += 1;
                        }
                    }
                }
            }
        }
        if let Some(live) = &self.live {
            live.clear_partitions(&self.owned_partitions());
            live.load_silent(
                self.entries()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            );
        }
        Ok(())
    }

    /// Number of dirty keys (drives incremental-snapshot cost; test hook).
    pub fn dirty_len(&self) -> usize {
        self.dirty.iter().map(HashSet::len).sum()
    }

    /// Iterate the local entries.
    pub fn entries(&self) -> impl Iterator<Item = (&Value, &Value)> {
        self.parts.iter().flat_map(|p| p.map().iter())
    }

    fn slot(&self, key: &Value) -> usize {
        self.partitioner.partition_of(key).0 as usize
    }

    /// A handle on partition `pid` for a capture, freezing the partition.
    fn freeze(&mut self, pid: usize) -> PartitionMap {
        let map = match std::mem::take(&mut self.parts[pid]) {
            Part::Own(map) => Arc::new(map),
            Part::Frozen(map) => map,
        };
        self.parts[pid] = Part::Frozen(Arc::clone(&map));
        map
    }

    /// Partition `slot` for writing. A frozen partition is taken back once
    /// its writer released it, and copied while the writer still holds it;
    /// the copy drops this backend's handle, so it runs under the `release`
    /// lock.
    fn partition_mut(&mut self, slot: usize) -> &mut HashMap<Value, Value> {
        if let Part::Frozen(frozen) = &mut self.parts[slot] {
            if let Some(map) = Arc::get_mut(frozen) {
                let own = std::mem::take(map);
                self.parts[slot] = Part::Own(own);
            } else {
                let _lo = lockorder::acquired(LockClass::CaptureRelease);
                let _held = self.release.lock();
                let copy = HashMap::clone(frozen);
                self.parts[slot] = Part::Own(copy);
            }
        }
        match &mut self.parts[slot] {
            Part::Own(map) => map,
            Part::Frozen(frozen) => Arc::make_mut(frozen),
        }
    }
}

impl Drop for StateBackend {
    fn drop(&mut self) {
        let _ = self.settle();
    }
}

impl KeyedState for StateBackend {
    fn get(&self, key: &Value) -> Option<Value> {
        self.parts[self.slot(key)].map().get(key).cloned()
    }

    fn put(&mut self, key: Value, value: Value) {
        self.mirror(|live| {
            live.put(key.clone(), value.clone());
        });
        if let Some(t) = &self.telemetry {
            t.state_updates.inc();
        }
        let slot = self.slot(&key);
        if self.track_dirty {
            self.dirty[slot].insert(key.clone());
        }
        if self.partition_mut(slot).insert(key, value).is_none() {
            self.len += 1;
        }
    }

    fn remove(&mut self, key: &Value) -> Option<Value> {
        self.mirror(|live| {
            live.remove(key);
        });
        if let Some(t) = &self.telemetry {
            t.state_updates.inc();
        }
        let slot = self.slot(key);
        // Only a present key costs a (copy-on-write) mutable borrow.
        if !self.parts[slot].map().contains_key(key) {
            return None;
        }
        let old = self.partition_mut(slot).remove(key);
        self.len -= 1;
        if self.track_dirty {
            self.dirty[slot].insert(key.clone());
        }
        old
    }

    fn len(&self) -> usize {
        self.len
    }
}

fn blob_key(name: &str, instance: u32) -> Value {
    Value::str(format!("__blob_{name}_{instance}"))
}

fn encode_blob<'a>(maps: impl Iterator<Item = &'a HashMap<Value, Value>> + Clone) -> Value {
    let n: usize = maps.clone().map(HashMap::len).sum();
    let mut buf = BytesMut::with_capacity(n * 32 + 8);
    buf.put_u64(n as u64);
    for (k, v) in maps.flat_map(|m| m.iter()) {
        codec::encode_into(k, &mut buf);
        codec::encode_into(v, &mut buf);
    }
    Value::Bytes(Arc::from(&buf[..]))
}

fn decode_blob(blob: &Value) -> SqResult<HashMap<Value, Value>> {
    let Value::Bytes(bytes) = blob else {
        return Err(SqError::Codec("blob snapshot is not bytes".into()));
    };
    let mut buf: &[u8] = bytes;
    if buf.len() < 8 {
        return Err(SqError::Codec("blob snapshot truncated".into()));
    }
    let n = u64::from_be_bytes(buf[..8].try_into().expect("checked length"));
    buf = &buf[8..];
    let mut out = HashMap::with_capacity(n as usize);
    for _ in 0..n {
        let k = codec::decode_from(&mut buf)?;
        let v = codec::decode_from(&mut buf)?;
        out.insert(k, v);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use squery_storage::Grid;

    fn partitioner() -> Partitioner {
        Partitioner::new(16)
    }

    fn queryable_backend(mode: SnapshotMode, grid: &Arc<Grid>) -> StateBackend {
        StateBackend::new(
            "op",
            0,
            1,
            grid.partitioner(),
            None,
            SnapshotSink::Queryable {
                store: grid.snapshot_store("op"),
                mode,
            },
        )
    }

    #[test]
    fn keyed_state_basics() {
        let mut b = StateBackend::new("op", 0, 1, partitioner(), None, SnapshotSink::None);
        assert!(b.is_empty());
        b.put(Value::Int(1), Value::Int(10));
        assert_eq!(b.get(&Value::Int(1)), Some(Value::Int(10)));
        assert_eq!(b.len(), 1);
        assert_eq!(b.remove(&Value::Int(1)), Some(Value::Int(10)));
        assert_eq!(b.remove(&Value::Int(1)), None);
        assert!(b.is_empty());
    }

    #[test]
    fn live_write_through_mirrors_updates() {
        let grid = Grid::single_node();
        let live = grid.map("op");
        let mut b = StateBackend::new(
            "op",
            0,
            1,
            grid.partitioner(),
            Some(Arc::clone(&live)),
            SnapshotSink::None,
        );
        b.put(Value::Int(1), Value::Int(10));
        assert_eq!(live.get(&Value::Int(1)), Some(Value::Int(10)));
        b.put(Value::Int(1), Value::Int(11));
        assert_eq!(live.get(&Value::Int(1)), Some(Value::Int(11)));
        b.remove(&Value::Int(1));
        assert_eq!(live.get(&Value::Int(1)), None);
    }

    #[test]
    fn full_snapshot_writes_complete_view() {
        let grid = Grid::single_node();
        let mut b = queryable_backend(SnapshotMode::Full, &grid);
        b.put(Value::Int(1), Value::Int(10));
        b.put(Value::Int(2), Value::Int(20));
        b.snapshot(SnapshotId(1)).unwrap();
        b.remove(&Value::Int(2));
        b.snapshot(SnapshotId(2)).unwrap();
        let store = grid.get_snapshot_store("op").unwrap();
        let (mut s1, _) = store.scan_at(SnapshotId(1)).unwrap();
        s1.sort();
        assert_eq!(s1.len(), 2);
        let (s2, _) = store.scan_at(SnapshotId(2)).unwrap();
        assert_eq!(s2, vec![(Value::Int(1), Value::Int(10))]);
    }

    #[test]
    fn incremental_snapshot_writes_only_dirty_keys() {
        let grid = Grid::single_node();
        let mut b = queryable_backend(SnapshotMode::Incremental, &grid);
        for i in 0..10i64 {
            b.put(Value::Int(i), Value::Int(i));
        }
        b.snapshot(SnapshotId(1)).unwrap(); // first: complete
        assert_eq!(b.dirty_len(), 0);
        b.put(Value::Int(3), Value::Int(333));
        b.remove(&Value::Int(4));
        assert_eq!(b.dirty_len(), 2);
        b.snapshot(SnapshotId(2)).unwrap();
        let store = grid.get_snapshot_store("op").unwrap();
        // Only the two dirty keys were stored at ssid 2 (12 entries total).
        assert_eq!(store.stats().stored_entries, 12);
        // Differential resolution still yields the complete view.
        let (s2, _) = store.scan_at(SnapshotId(2)).unwrap();
        assert_eq!(s2.len(), 9, "10 keys minus 1 removed");
        assert!(s2.contains(&(Value::Int(3), Value::Int(333))));
        assert!(s2.contains(&(Value::Int(0), Value::Int(0))));
        assert!(!s2.iter().any(|(k, _)| *k == Value::Int(4)));
    }

    #[test]
    fn queryable_restore_roundtrips() {
        let grid = Grid::single_node();
        let mut b = queryable_backend(SnapshotMode::Incremental, &grid);
        for i in 0..50i64 {
            b.put(Value::Int(i), Value::Int(i * 2));
        }
        b.snapshot(SnapshotId(1)).unwrap();
        b.put(Value::Int(0), Value::Int(999));
        b.snapshot(SnapshotId(2)).unwrap();

        let mut restored = queryable_backend(SnapshotMode::Incremental, &grid);
        restored.restore(SnapshotId(2)).unwrap();
        assert_eq!(restored.len(), 50);
        assert_eq!(restored.get(&Value::Int(0)), Some(Value::Int(999)));
        // Restoring the older snapshot rolls the update back.
        restored.restore(SnapshotId(1)).unwrap();
        assert_eq!(restored.get(&Value::Int(0)), Some(Value::Int(0)));
    }

    #[test]
    fn restore_rebuilds_live_map() {
        let grid = Grid::single_node();
        let live = grid.map("op");
        let store = grid.snapshot_store("op");
        let mut b = StateBackend::new(
            "op",
            0,
            1,
            grid.partitioner(),
            Some(Arc::clone(&live)),
            SnapshotSink::Queryable {
                store,
                mode: SnapshotMode::Full,
            },
        );
        b.put(Value::Int(1), Value::Int(10));
        b.snapshot(SnapshotId(1)).unwrap();
        b.put(Value::Int(1), Value::Int(99)); // dirty live state
        assert_eq!(live.get(&Value::Int(1)), Some(Value::Int(99)));
        b.restore(SnapshotId(1)).unwrap();
        // The paper's Figure 5c: after recovery the live state shows the
        // snapshot value again — the pre-failure read was a dirty read.
        assert_eq!(live.get(&Value::Int(1)), Some(Value::Int(10)));
    }

    #[test]
    fn blob_snapshot_roundtrips() {
        let grid = Grid::single_node();
        let store = grid.snapshot_store("op");
        let mut b = StateBackend::new(
            "op",
            0,
            1,
            grid.partitioner(),
            None,
            SnapshotSink::Blob {
                store: Arc::clone(&store),
            },
        );
        for i in 0..20i64 {
            b.put(Value::Int(i), Value::str(format!("v{i}")));
        }
        b.snapshot(SnapshotId(1)).unwrap();
        // One blob entry, not 20 queryable entries.
        assert_eq!(store.stats().stored_entries, 1);
        let mut restored = StateBackend::new(
            "op",
            0,
            1,
            grid.partitioner(),
            None,
            SnapshotSink::Blob { store },
        );
        restored.restore(SnapshotId(1)).unwrap();
        assert_eq!(restored.len(), 20);
        assert_eq!(restored.get(&Value::Int(7)), Some(Value::str("v7")));
    }

    #[test]
    fn telemetry_counts_updates_and_mirror_latency() {
        let grid = Grid::single_node();
        let live = grid.map("op");
        let mut b = StateBackend::new(
            "op",
            0,
            1,
            grid.partitioner(),
            Some(live),
            SnapshotSink::None,
        )
        .with_telemetry(grid.telemetry());
        b.put(Value::Int(1), Value::Int(10));
        b.remove(&Value::Int(1));
        let l = [("operator", "op")];
        assert_eq!(
            grid.telemetry().counter_value("state_updates_total", &l),
            Some(2)
        );
        let mirror = grid
            .telemetry()
            .histograms()
            .into_iter()
            .find(|(k, _)| k.name == "state_live_mirror_us")
            .expect("mirror histogram exists")
            .1;
        assert_eq!(mirror.count(), 2, "one sample per put/remove");
    }

    /// Copy-on-write isolation: the capture's content is fixed at the
    /// freeze. A put to a frozen partition while the writer is held is
    /// absent from that snapshot and present in the next one.
    #[test]
    fn capture_is_isolated_from_puts_during_the_write() {
        let grid = Grid::single_node();
        let mut b = queryable_backend(SnapshotMode::Full, &grid);
        for i in 0..40i64 {
            b.put(Value::Int(i), Value::Int(i));
        }
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        b.capture(
            SnapshotId(1),
            move |i, _, write| {
                if i == 0 {
                    go_rx.recv().expect("test releases the writer");
                }
                write();
                true
            },
            move |outcome| done_tx.send(outcome.is_ok_and(|all| all)).unwrap(),
        )
        .unwrap();
        // The writer is parked before its first write: every partition is
        // still frozen, so these puts clone the partitions they touch.
        b.put(Value::Int(7), Value::Int(700));
        b.put(Value::Int(99), Value::Int(99));
        b.remove(&Value::Int(8));
        assert_eq!(b.get(&Value::Int(7)), Some(Value::Int(700)));
        go_tx.send(()).unwrap();
        b.settle().unwrap();
        assert!(done_rx.recv().unwrap(), "every partition written");
        let store = grid.get_snapshot_store("op").unwrap();
        let read = |ssid: u64, k: i64| store.read_at(SnapshotId(ssid), &Value::Int(k)).unwrap();
        assert_eq!(read(1, 7), Some(Value::Int(7)));
        assert_eq!(read(1, 8), Some(Value::Int(8)));
        assert_eq!(read(1, 99), None);
        assert_eq!(store.scan_at(SnapshotId(1)).unwrap().0.len(), 40);
        b.snapshot(SnapshotId(2)).unwrap();
        assert_eq!(read(2, 7), Some(Value::Int(700)));
        assert_eq!(read(2, 8), None);
        assert_eq!(read(2, 99), Some(Value::Int(99)));
        assert_eq!(b.len(), 40);
    }

    /// A capture stopped by its admission writes nothing more and reports
    /// `Ok(false)` (its round was closed).
    #[test]
    fn stopped_capture_writes_nothing_more() {
        let grid = Grid::single_node();
        let mut b = queryable_backend(SnapshotMode::Full, &grid);
        for i in 0..40i64 {
            b.put(Value::Int(i), Value::Int(i));
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        b.capture(
            SnapshotId(1),
            |i, _, write| {
                if i > 0 {
                    return false;
                }
                write();
                true
            },
            move |outcome| done_tx.send(outcome.ok()).unwrap(),
        )
        .unwrap();
        b.settle().unwrap();
        assert_eq!(done_rx.recv().unwrap(), Some(false));
        let store = grid.get_snapshot_store("op").unwrap();
        let written: usize = store.version_stats().iter().map(|v| v.1).sum();
        assert!(written < 40, "only the first partition was written");
    }

    /// An incremental capture whose round was discarded makes the next
    /// capture a complete view, so the aborted delta's changes are kept.
    #[test]
    fn a_discarded_capture_makes_the_next_one_full() {
        let grid = Grid::single_node();
        let store = grid.snapshot_store("op");
        let mut b = queryable_backend(SnapshotMode::Incremental, &grid);
        for i in 0..10i64 {
            b.put(Value::Int(i), Value::Int(i));
        }
        b.snapshot(SnapshotId(1)).unwrap();
        b.put(Value::Int(3), Value::Int(333));
        b.remove(&Value::Int(4));
        b.snapshot(SnapshotId(2)).unwrap();
        store.discard(SnapshotId(2));
        b.put(Value::Int(5), Value::Int(555));
        b.snapshot(SnapshotId(3)).unwrap();
        let (mut s3, _) = store.scan_at(SnapshotId(3)).unwrap();
        s3.sort();
        let mut live: Vec<(Value, Value)> =
            b.entries().map(|(k, v)| (k.clone(), v.clone())).collect();
        live.sort();
        assert_eq!(s3, live, "the aborted delta's changes are in");
        let entries_at = |ssid: u64| {
            store
                .version_stats()
                .into_iter()
                .find(|v| v.0 == SnapshotId(ssid))
                .unwrap()
                .1
        };
        assert_eq!(entries_at(3), 9, "ssid 3 is a complete view");
        b.put(Value::Int(6), Value::Int(666));
        b.snapshot(SnapshotId(4)).unwrap();
        assert_eq!(entries_at(4), 1, "then deltas again");
    }

    #[test]
    fn restore_without_sink_errors() {
        let mut b = StateBackend::new("op", 0, 1, partitioner(), None, SnapshotSink::None);
        assert!(b.restore(SnapshotId(1)).is_err());
    }

    #[test]
    fn multi_instance_backends_cover_disjoint_partitions() {
        let grid = Grid::single_node();
        let store = grid.snapshot_store("op");
        let mut backends: Vec<StateBackend> = (0..4)
            .map(|i| {
                StateBackend::new(
                    "op",
                    i,
                    4,
                    grid.partitioner(),
                    None,
                    SnapshotSink::Queryable {
                        store: Arc::clone(&store),
                        mode: SnapshotMode::Full,
                    },
                )
            })
            .collect();
        // Route each key to its owning instance, as the keyed exchange would.
        for i in 0..200i64 {
            let key = Value::Int(i);
            let owner = grid.partitioner().instance_of(&key, 4);
            backends[owner as usize].put(key, Value::Int(i));
        }
        for b in &mut backends {
            b.snapshot(SnapshotId(1)).unwrap();
        }
        let (all, _) = store.scan_at(SnapshotId(1)).unwrap();
        assert_eq!(
            all.len(),
            200,
            "instances cover all partitions exactly once"
        );
        // Restore each instance and check disjoint coverage.
        let total: usize = backends
            .iter_mut()
            .map(|b| {
                b.restore(SnapshotId(1)).unwrap();
                b.len()
            })
            .sum();
        assert_eq!(total, 200);
    }
}
