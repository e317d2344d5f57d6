//! Job runtime: wiring, lifecycle, failure injection, recovery.
//!
//! [`StreamEnv::submit`] turns a [`JobSpec`] into running threads: one per
//! vertex instance, channels along the edges, a checkpoint coordinator, and
//! the state plumbing configured by [`StateConfig`] — the four configurations
//! of the paper's Figure 8 are four values of this struct.
//!
//! [`JobHandle::crash`] poisons every worker (simulating a process failure
//! with loss of all operator state); [`JobHandle::recover`] rebuilds the job
//! from the latest committed snapshot: operator state restored from the
//! snapshot stores, sources rewound to their snapshotted offsets — the
//! rollback recovery of §IV that underpins both exactly-once processing and
//! the isolation-level semantics of §VII.

use crate::checkpoint::{
    CaptureFence, CheckpointRecord, CheckpointStats, Coordinator, CoordinatorContext,
};
use crate::dag::{JobSpec, VertexKind};
use crate::message::Tagged;
use crate::state::{SnapshotSink, StateBackend};
use crate::worker::{
    run_operator, run_source, OffsetSaver, OperatorKind, OutputPort, Shared, SourceCommand,
    WorkerTelemetry,
};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use squery_common::fault::backoff_with_jitter;
use squery_common::lockorder::{self, LockClass};
use squery_common::metrics::{Histogram, SharedHistogram};
use squery_common::telemetry::EventKind;
use squery_common::time::Clock;
use squery_common::{SnapshotId, SqError, SqResult, Value};
use squery_storage::{Grid, SnapshotMode, SnapshotStore};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The snapshot-store name holding source offsets (not a user table).
pub const OFFSETS_STORE: &str = "__offsets";

/// Which S-QUERY state mechanisms are active — the four curves of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateConfig {
    /// Mirror every state update into the operator's live `IMap` (Table I).
    pub live_state: bool,
    /// Write checkpoints as queryable per-key entries (Table II) instead of
    /// the baseline's opaque blobs.
    pub queryable_snapshots: bool,
    /// Full or incremental checkpoints (only meaningful when queryable).
    pub snapshot_mode: SnapshotMode,
}

impl StateConfig {
    /// "S-Query live+snap": both mechanisms on.
    pub fn live_and_snapshot() -> StateConfig {
        StateConfig {
            live_state: true,
            queryable_snapshots: true,
            snapshot_mode: SnapshotMode::Full,
        }
    }

    /// "S-Query live": live mirroring only; snapshots stay blobs.
    pub fn live_only() -> StateConfig {
        StateConfig {
            live_state: true,
            queryable_snapshots: false,
            snapshot_mode: SnapshotMode::Full,
        }
    }

    /// "S-Query snap": queryable snapshots only (the configuration the paper
    /// focuses its evaluation on).
    pub fn snapshot_only() -> StateConfig {
        StateConfig {
            live_state: false,
            queryable_snapshots: true,
            snapshot_mode: SnapshotMode::Full,
        }
    }

    /// "S-Query snap" with incremental snapshots (§VI-A optimization).
    pub fn snapshot_incremental() -> StateConfig {
        StateConfig {
            live_state: false,
            queryable_snapshots: true,
            snapshot_mode: SnapshotMode::Incremental,
        }
    }

    /// Plain Jet: no live mirror, blob snapshots.
    pub fn jet_baseline() -> StateConfig {
        StateConfig {
            live_state: false,
            queryable_snapshots: false,
            snapshot_mode: SnapshotMode::Full,
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// State mechanism configuration.
    pub state: StateConfig,
    /// Periodic checkpoint interval (`None` = manual triggering only).
    pub checkpoint_interval: Option<Duration>,
    /// Bounded channel capacity between instances (backpressure depth).
    pub channel_capacity: usize,
    /// Maximum records a source produces per scheduling quantum.
    pub source_batch: usize,
    /// Phase-1 ack timeout before a checkpoint aborts.
    pub ack_timeout: Duration,
    /// How many times the coordinator retries an aborted checkpoint round
    /// in place (with exponential backoff) before the error surfaces.
    pub checkpoint_retries: u32,
    /// Base backoff between checkpoint retries.
    pub retry_backoff: Duration,
    /// State-statistics sampler interval (`None` = sampler off; live maps
    /// then pay only one relaxed atomic load per write).
    pub stats_interval: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            state: StateConfig::snapshot_only(),
            checkpoint_interval: Some(Duration::from_secs(1)),
            channel_capacity: 1024,
            source_batch: 256,
            ack_timeout: Duration::from_secs(10),
            checkpoint_retries: 0,
            retry_backoff: Duration::from_millis(50),
            stats_interval: None,
        }
    }
}

/// The execution environment: a grid plus engine configuration.
///
/// When `config.stats_interval` is set, the environment owns the
/// state-statistics sampler: a named background thread that arms the grid's
/// recent-key collection and runs [`squery_storage::StateStats::sample`]
/// every interval. The thread is stopped and joined when the environment
/// drops.
pub struct StreamEnv {
    grid: Arc<Grid>,
    config: EngineConfig,
    clock: Clock,
    sampler: Option<StatsSampler>,
}

struct StatsSampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StatsSampler {
    fn start(grid: Arc<Grid>, interval: Duration) -> StatsSampler {
        grid.arm_stats(true);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = spawn_named("stats-sampler".to_string(), {
            let stop = Arc::clone(&stop);
            move || {
                let tick = Duration::from_millis(10).min(interval);
                let mut last = Instant::now();
                while !stop.load(Ordering::Acquire) {
                    // Sleep in short slices so a dropping StreamEnv never
                    // waits a whole interval for the join.
                    std::thread::sleep(tick);
                    if last.elapsed() >= interval {
                        grid.stats().sample(&grid);
                        last = Instant::now();
                    }
                }
            }
        });
        StatsSampler {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for StatsSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl StreamEnv {
    /// An environment over `grid`.
    pub fn new(grid: Arc<Grid>, config: EngineConfig) -> StreamEnv {
        let sampler = config
            .stats_interval
            .map(|interval| StatsSampler::start(Arc::clone(&grid), interval));
        StreamEnv {
            grid,
            config,
            clock: Clock::wall(),
            sampler,
        }
    }

    /// The environment's grid.
    pub fn grid(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// Whether the background stats sampler is running.
    pub fn stats_sampler_running(&self) -> bool {
        self.sampler.is_some()
    }

    /// Submit a job; threads start immediately.
    pub fn submit(&self, spec: JobSpec) -> SqResult<JobHandle> {
        spec.validate()?;
        self.grid.telemetry().event(
            EventKind::JobSubmitted,
            Some(&spec.name),
            None,
            None,
            format!("{} vertices", spec.vertices.len()),
        );
        let stats = CheckpointStats::new();
        let (running, shared) = build_runtime(
            &spec,
            &self.grid,
            &self.config,
            &self.clock,
            None,
            stats.clone(),
        )?;
        Ok(JobHandle {
            spec,
            grid: Arc::clone(&self.grid),
            config: self.config,
            clock: self.clock.clone(),
            started: Instant::now(),
            stats,
            running: Some(running),
            shared: Some(shared),
            base_latency: Histogram::new(),
            base_sink: 0,
            base_source: 0,
        })
    }

    /// Submit a job resuming from the latest committed snapshot — the
    /// cold-start counterpart of [`JobHandle::recover`], for a fresh process
    /// whose grid was just rebuilt (e.g. from the write-ahead log): operator
    /// state is restored from the snapshot stores and sources rewind to
    /// their snapshotted offsets, so exactly-once holds across the restart.
    ///
    /// Falls back to a plain [`StreamEnv::submit`] when no committed
    /// snapshot exists (nothing was ever durable, so there is nothing to
    /// resume from).
    pub fn submit_restored(&self, spec: JobSpec) -> SqResult<JobHandle> {
        spec.validate()?;
        let latest = self.grid.registry().latest_committed();
        if !latest.is_some() {
            return self.submit(spec);
        }
        self.grid.telemetry().event(
            EventKind::Recovery,
            Some(&spec.name),
            Some(latest.0),
            None,
            "cold start from latest committed snapshot",
        );
        let mut span = self.grid.telemetry().spans().start("recovery");
        span.label("job", &spec.name);
        span.label("mode", "cold_start");
        span.label("ssid", latest.0);
        let stats = CheckpointStats::new();
        let (running, shared) = build_runtime(
            &spec,
            &self.grid,
            &self.config,
            &self.clock,
            Some(latest),
            stats.clone(),
        )?;
        Ok(JobHandle {
            spec,
            grid: Arc::clone(&self.grid),
            config: self.config,
            clock: self.clock.clone(),
            started: Instant::now(),
            stats,
            running: Some(running),
            shared: Some(shared),
            base_latency: Histogram::new(),
            base_sink: 0,
            base_source: 0,
        })
    }

    /// Submit a job and put it under a supervisor: worker deaths and
    /// coordinator kills are detected and recovered automatically under
    /// `policy`.
    pub fn submit_supervised(
        &self,
        spec: JobSpec,
        policy: RestartPolicy,
    ) -> SqResult<SupervisedJob> {
        Ok(SupervisedJob::supervise(self.submit(spec)?, policy))
    }
}

struct Running {
    threads: Vec<JoinHandle<()>>,
    source_controls: Vec<Sender<SourceCommand>>,
    coordinator: Coordinator,
}

/// Final report of a stopped job.
#[derive(Clone)]
pub struct JobReport {
    /// Source-to-sink latency distribution (µs).
    pub latency: Histogram,
    /// Records consumed by sinks.
    pub sink_records: u64,
    /// Records produced by sources.
    pub source_records: u64,
    /// Wall-clock duration from submit to stop.
    pub duration: Duration,
    /// Committed checkpoint timings.
    pub checkpoints: Vec<CheckpointRecord>,
    /// Aborted checkpoint attempts.
    pub aborted_checkpoints: u64,
}

impl JobReport {
    /// Mean sink throughput in records/second over the job's lifetime.
    pub fn throughput(&self) -> f64 {
        if self.duration.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.sink_records as f64 / self.duration.as_secs_f64()
    }
}

/// Handle to a submitted job.
pub struct JobHandle {
    spec: JobSpec,
    grid: Arc<Grid>,
    config: EngineConfig,
    clock: Clock,
    started: Instant,
    stats: CheckpointStats,
    running: Option<Running>,
    shared: Option<Arc<Shared>>,
    base_latency: Histogram,
    base_sink: u64,
    base_source: u64,
}

impl JobHandle {
    /// Whether worker threads are currently running.
    pub fn is_running(&self) -> bool {
        self.running.is_some()
    }

    /// The grid this job runs on.
    pub fn grid(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// Trigger a checkpoint now and wait for commit.
    pub fn checkpoint_now(&self) -> SqResult<SnapshotId> {
        match &self.running {
            Some(r) => r.coordinator.trigger(),
            None => Err(SqError::Runtime("job is not running".into())),
        }
    }

    /// Checkpoint timing log.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.stats.clone()
    }

    /// Current merged latency histogram.
    pub fn latency(&self) -> Histogram {
        let mut h = self.base_latency.clone();
        if let Some(s) = &self.shared {
            h.merge(&s.latency.snapshot());
        }
        h
    }

    /// Records consumed by sinks so far.
    pub fn sink_count(&self) -> u64 {
        self.base_sink
            + self
                .shared
                .as_ref()
                .map(|s| s.sink_count.load(Ordering::Relaxed))
                .unwrap_or(0)
    }

    /// Records produced by sources so far.
    pub fn source_count(&self) -> u64 {
        self.base_source
            + self
                .shared
                .as_ref()
                .map(|s| s.source_count.load(Ordering::Relaxed))
                .unwrap_or(0)
    }

    /// Discard latency samples collected so far (typically at the end of a
    /// warmup period, mirroring the paper's 20 s warmup before measuring).
    pub fn reset_latency(&mut self) {
        self.base_latency = Histogram::new();
        if let Some(s) = &self.shared {
            s.latency.clear();
        }
    }

    /// Block until sinks have consumed at least `n` records (test helper).
    pub fn wait_for_sink_count(&self, n: u64, timeout: Duration) -> SqResult<()> {
        let deadline = Instant::now() + timeout;
        while self.sink_count() < n {
            // A dead worker means the count may never arrive — fail fast
            // instead of spinning until the timeout.
            if let Some(msg) = self.worker_failure() {
                return Err(SqError::WorkerDied(msg));
            }
            if Instant::now() > deadline {
                return Err(SqError::Runtime(format!(
                    "timed out waiting for {n} sink records (got {})",
                    self.sink_count()
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Whether this incarnation needs supervisor attention: a worker thread
    /// has panicked, the coordinator was killed, or the job is not running
    /// at all.
    pub fn needs_recovery(&self) -> bool {
        let Some(shared) = &self.shared else {
            return true;
        };
        self.running.is_none()
            || shared.dead_workers.load(Ordering::Acquire) > 0
            || shared.coordinator_dead.load(Ordering::SeqCst)
    }

    /// First worker-panic message of this incarnation, if any.
    pub fn worker_failure(&self) -> Option<String> {
        self.shared.as_ref().and_then(|s| s.worker_failure())
    }

    /// Block until every source instance has exhausted its (finite) input.
    ///
    /// Exhausted sources stay alive to serve checkpoints, so a subsequent
    /// [`JobHandle::checkpoint_now`] acts as a barrier behind every produced
    /// record: when it commits, every operator has processed everything.
    pub fn wait_sources_exhausted(&self, timeout: Duration) -> SqResult<()> {
        let sources: u32 = self
            .spec
            .source_indexes()
            .iter()
            .map(|&i| self.spec.vertices[i].parallelism)
            .sum();
        let deadline = Instant::now() + timeout;
        loop {
            let exhausted = self
                .shared
                .as_ref()
                .map(|s| s.exhausted_sources.load(Ordering::Acquire))
                .unwrap_or(0);
            if exhausted >= sources {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(SqError::Runtime(format!(
                    "timed out: {exhausted}/{sources} sources exhausted"
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// [`JobHandle::wait_sources_exhausted`] followed by a checkpoint
    /// barrier: on return, every record has been fully processed by every
    /// operator and captured in the committed snapshot.
    pub fn drain_and_checkpoint(&mut self, timeout: Duration) -> SqResult<SnapshotId> {
        self.wait_sources_exhausted(timeout)?;
        self.checkpoint_now()
    }

    /// Simulate a process failure: every worker dies, in-memory operator
    /// state and in-flight records are lost. The grid (snapshot stores, live
    /// maps) survives — it is the durable substrate recovery reads.
    pub fn crash(&mut self) {
        let Some(running) = self.running.take() else {
            return;
        };
        if let Some(shared) = &self.shared {
            shared.poison.store(true, Ordering::SeqCst);
        }
        running.coordinator.stop();
        for t in running.threads {
            let _ = t.join();
        }
        drop(running.source_controls);
        self.fold_metrics();
        // A checkpoint caught mid-flight by the crash stays in progress at
        // the registry; release it so recovery can checkpoint again.
        if let Some(ssid) = self.grid.registry().in_progress() {
            for name in self.spec.stateful_names() {
                self.grid.snapshot_store(&name).discard(ssid);
            }
            self.grid.snapshot_store(OFFSETS_STORE).discard(ssid);
            let _ = self.grid.registry().abort(ssid);
        }
    }

    /// Rebuild the job from the latest committed snapshot (rollback
    /// recovery): operator state restored, sources rewound, live maps rebuilt
    /// to the snapshot's contents.
    pub fn recover(&mut self) -> SqResult<()> {
        if self.running.is_some() {
            return Err(SqError::Runtime("job is still running".into()));
        }
        let latest = self.grid.registry().latest_committed();
        if !latest.is_some() {
            return Err(SqError::NotFound(
                "no committed snapshot to recover from".into(),
            ));
        }
        self.grid.telemetry().event(
            EventKind::Recovery,
            Some(&self.spec.name),
            Some(latest.0),
            None,
            "rollback to latest committed snapshot",
        );
        let mut span = self.grid.telemetry().spans().start("recovery");
        span.label("job", &self.spec.name);
        span.label("mode", "rollback");
        span.label("ssid", latest.0);
        let (running, shared) = build_runtime(
            &self.spec,
            &self.grid,
            &self.config,
            &self.clock,
            Some(latest),
            self.stats.clone(),
        )?;
        self.running = Some(running);
        self.shared = Some(shared);
        Ok(())
    }

    /// [`JobHandle::recover`] when a committed snapshot exists; otherwise
    /// roll back to the *initial* state: clear any read-uncommitted live-map
    /// writes the dead incarnation left behind and rebuild from scratch.
    ///
    /// This is what a supervisor needs when a fault strikes before the first
    /// checkpoint ever commits — plain `recover()` would return `NotFound`.
    pub fn recover_or_restart(&mut self) -> SqResult<()> {
        if self.running.is_some() {
            return Err(SqError::Runtime("job is still running".into()));
        }
        if self.grid.registry().latest_committed().is_some() {
            return self.recover();
        }
        if self.config.state.live_state {
            for name in self.spec.stateful_names() {
                if let Some(map) = self.grid.get_map(&name) {
                    map.clear();
                }
            }
        }
        self.grid.telemetry().event(
            EventKind::Recovery,
            Some(&self.spec.name),
            None,
            None,
            "no committed snapshot; restart from initial state",
        );
        let mut span = self.grid.telemetry().spans().start("recovery");
        span.label("job", &self.spec.name);
        span.label("mode", "restart");
        let (running, shared) = build_runtime(
            &self.spec,
            &self.grid,
            &self.config,
            &self.clock,
            None,
            self.stats.clone(),
        )?;
        self.running = Some(running);
        self.shared = Some(shared);
        Ok(())
    }

    /// Graceful shutdown: stop checkpoints, drain sources, join workers,
    /// return the final report.
    pub fn stop(mut self) -> JobReport {
        self.stop_in_place()
    }

    fn stop_in_place(&mut self) -> JobReport {
        if let Some(running) = self.running.take() {
            running.coordinator.stop();
            for ctl in &running.source_controls {
                let _ = ctl.send(SourceCommand::Stop);
            }
            for t in running.threads {
                let _ = t.join();
            }
        }
        self.fold_metrics();
        self.grid.telemetry().event(
            EventKind::JobStopped,
            Some(&self.spec.name),
            None,
            Some(self.started.elapsed().as_micros() as u64),
            "",
        );
        JobReport {
            latency: self.base_latency.clone(),
            sink_records: self.base_sink,
            source_records: self.base_source,
            duration: self.started.elapsed(),
            checkpoints: self.stats.records(),
            aborted_checkpoints: self.stats.aborted(),
        }
    }

    fn fold_metrics(&mut self) {
        if let Some(shared) = self.shared.take() {
            self.base_latency.merge(&shared.latency.snapshot());
            self.base_sink += shared.sink_count.load(Ordering::Relaxed);
            self.base_source += shared.source_count.load(Ordering::Relaxed);
        }
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        if self.running.is_some() {
            self.crash();
        }
    }
}

/// Bounded-restart policy for a [`SupervisedJob`].
#[derive(Debug, Clone, Copy)]
pub struct RestartPolicy {
    /// Total restart budget over the supervised job's lifetime (it does not
    /// reset after a successful recovery — a crash-looping job gives up).
    pub max_restarts: u32,
    /// Base delay before the first restart; doubles per restart.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// How often the monitor thread checks job health.
    pub poll_interval: Duration,
    /// Seed for backoff jitter (deterministic for a fixed seed).
    pub jitter_seed: u64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 5,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            poll_interval: Duration::from_millis(5),
            jitter_seed: 0,
        }
    }
}

/// What the supervisor has done so far.
#[derive(Debug, Clone, Default)]
pub struct SupervisorStatus {
    /// Restarts performed (successful or not).
    pub restarts: u32,
    /// The restart budget is exhausted; the job stays down.
    pub gave_up: bool,
    /// Most recent failure message (worker panic or recovery error).
    pub last_error: Option<String>,
}

/// A [`JobHandle`] watched by a monitor thread that detects dead workers and
/// killed coordinators, then crashes and recovers the job under a bounded
/// exponential-backoff [`RestartPolicy`] — no manual
/// [`JobHandle::recover`] call needed.
///
/// Queries are isolated from all of this: SQL and direct reads go through
/// the grid (registry + stores), never through the job lock, so throughout
/// detection, backoff, and recovery they keep serving the last *committed*
/// snapshot.
pub struct SupervisedJob {
    job: Arc<Mutex<JobHandle>>,
    stats: CheckpointStats,
    stop_flag: Arc<AtomicBool>,
    status: Arc<Mutex<SupervisorStatus>>,
    monitor: Option<JoinHandle<()>>,
}

impl SupervisedJob {
    /// Put `job` under supervision.
    pub fn supervise(job: JobHandle, policy: RestartPolicy) -> SupervisedJob {
        let grid = Arc::clone(job.grid());
        let stats = job.checkpoint_stats();
        let job = Arc::new(Mutex::new(job));
        let stop_flag = Arc::new(AtomicBool::new(false));
        let status = Arc::new(Mutex::new(SupervisorStatus::default()));
        let monitor_job = Arc::clone(&job);
        let monitor_stop = Arc::clone(&stop_flag);
        let monitor_status = Arc::clone(&status);
        let monitor = std::thread::Builder::new()
            .name("squery-supervisor".into())
            .spawn(move || {
                while !monitor_stop.load(Ordering::Acquire) {
                    std::thread::sleep(policy.poll_interval);
                    let (needs, failure) = {
                        let _lo = lockorder::acquired(LockClass::SupervisorJob);
                        let j = monitor_job.lock();
                        (j.needs_recovery(), j.worker_failure())
                    };
                    if !needs {
                        continue;
                    }
                    let attempt = {
                        let _lo = lockorder::acquired(LockClass::SupervisorStatus);
                        monitor_status.lock().restarts
                    };
                    if attempt >= policy.max_restarts {
                        grid.telemetry().event(
                            EventKind::SupervisorGaveUp,
                            None,
                            None,
                            None,
                            format!("restart budget of {} exhausted", policy.max_restarts),
                        );
                        // Take the job fully down (joins every remaining
                        // worker) and stamp its fault records BEFORE
                        // publishing the terminal status: an observer that
                        // sees `gave_up` must also see the resolved
                        // outcome, never a `pending` record.
                        {
                            let _lo = lockorder::acquired(LockClass::SupervisorJob);
                            monitor_job.lock().crash();
                        }
                        if let Some(injector) = grid.fault_injector() {
                            injector.resolve_pending("gave_up");
                        }
                        {
                            let _lo = lockorder::acquired(LockClass::SupervisorStatus);
                            let mut st = monitor_status.lock();
                            st.gave_up = true;
                            if st.last_error.is_none() {
                                st.last_error = failure;
                            }
                        }
                        break;
                    }
                    grid.telemetry()
                        .counter("supervisor_restarts_total", &[])
                        .inc();
                    grid.telemetry().event(
                        EventKind::SupervisorRestart,
                        None,
                        None,
                        None,
                        failure.clone().unwrap_or_else(|| "job not running".into()),
                    );
                    let mut restart_span = grid.telemetry().spans().start("supervisor_restart");
                    restart_span.label("attempt", attempt + 1);
                    if let Some(f) = &failure {
                        restart_span.label("failure", f);
                    }
                    std::thread::sleep(backoff_with_jitter(
                        policy.base_backoff,
                        attempt,
                        policy.max_backoff,
                        policy.jitter_seed ^ u64::from(attempt),
                    ));
                    if monitor_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let began = Instant::now();
                    let result = {
                        let _lo = lockorder::acquired(LockClass::SupervisorJob);
                        let mut j = monitor_job.lock();
                        j.crash();
                        // Between crash() (old workers joined) and the
                        // rebuild (new workers not yet spawned), exactly the
                        // dead incarnation's faults are pending — resolve
                        // them here so a fresh fault in the next incarnation
                        // can't be mislabeled.
                        if let Some(injector) = grid.fault_injector() {
                            injector.resolve_pending("recovered");
                        }
                        j.recover_or_restart()
                    };
                    {
                        let _lo = lockorder::acquired(LockClass::SupervisorStatus);
                        let mut st = monitor_status.lock();
                        st.restarts += 1;
                        match &result {
                            Ok(()) => st.last_error = failure,
                            Err(e) => st.last_error = Some(e.to_string()),
                        }
                    }
                    if result.is_ok() {
                        grid.telemetry()
                            .histogram("recovery_duration_us", &[])
                            .record(began.elapsed().as_micros() as u64);
                        // Live maps were cleared and reloaded: re-anchor the
                        // stats rate baselines so the next sampler pass does
                        // not report the restore as churn.
                        grid.stats().note_recovery(&grid);
                    }
                }
            })
            .expect("spawn supervisor");
        SupervisedJob {
            job,
            stats,
            stop_flag,
            status,
            monitor: Some(monitor),
        }
    }

    /// Run `f` against the underlying job handle.
    ///
    /// Held only briefly by the monitor except while a recovery is actually
    /// in flight — queries don't come through here.
    pub fn with_job<R>(&self, f: impl FnOnce(&mut JobHandle) -> R) -> R {
        let _lo = lockorder::acquired(LockClass::SupervisorJob);
        f(&mut self.job.lock())
    }

    /// Supervisor bookkeeping so far.
    pub fn status(&self) -> SupervisorStatus {
        let _lo = lockorder::acquired(LockClass::SupervisorStatus);
        self.status.lock().clone()
    }

    /// Checkpoint timing log (survives restarts).
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.stats.clone()
    }

    /// Whether the job is currently running and needs no attention.
    pub fn is_healthy(&self) -> bool {
        // Canonical order: status before job (§9); both guards are
        // statement temporaries, so they overlap for the `&&`.
        let _so = lockorder::acquired(LockClass::SupervisorStatus);
        let _jo = lockorder::acquired(LockClass::SupervisorJob);
        !self.status.lock().gave_up && !self.job.lock().needs_recovery()
    }

    /// Block until the supervisor has the job running cleanly (or give-up /
    /// timeout).
    pub fn wait_healthy(&self, timeout: Duration) -> SqResult<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let gave_up = {
                let _lo = lockorder::acquired(LockClass::SupervisorStatus);
                self.status.lock().gave_up
            };
            if gave_up {
                return Err(SqError::Runtime("supervisor gave up".into()));
            }
            if self.is_healthy() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(SqError::Runtime(
                    "timed out waiting for supervised recovery".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn halt_monitor(&mut self) {
        self.stop_flag.store(true, Ordering::Release);
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
    }

    /// Stop supervision and the job; return the final report.
    pub fn stop(mut self) -> JobReport {
        self.halt_monitor();
        let _lo = lockorder::acquired(LockClass::SupervisorJob);
        self.job.lock().stop_in_place()
    }
}

impl Drop for SupervisedJob {
    fn drop(&mut self) {
        // The inner JobHandle's own Drop crashes the job.
        self.halt_monitor();
    }
}

/// Build channels, state backends, and threads for one job incarnation.
fn build_runtime(
    spec: &JobSpec,
    grid: &Arc<Grid>,
    config: &EngineConfig,
    clock: &Clock,
    restore: Option<SnapshotId>,
    stats: CheckpointStats,
) -> SqResult<(Running, Arc<Shared>)> {
    let (ack_tx, ack_rx) = unbounded();
    let shared = Arc::new(Shared {
        clock: clock.clone(),
        poison: AtomicBool::new(false),
        ack_tx,
        latency: SharedHistogram::new(),
        sink_count: AtomicU64::new(0),
        source_count: AtomicU64::new(0),
        live_instances: AtomicU32::new(spec.total_instances()),
        exhausted_sources: AtomicU32::new(0),
        partitioner: grid.partitioner(),
        telemetry: grid.telemetry().clone(),
        faults: grid.fault_injector(),
        dead_workers: AtomicU32::new(0),
        coordinator_dead: AtomicBool::new(false),
        failure: parking_lot::Mutex::new(None),
        captures: CaptureFence::default(),
    });

    // Input channels for every non-source instance.
    let mut input_tx: Vec<Vec<Option<Sender<Tagged>>>> = Vec::new();
    let mut input_rx: Vec<Vec<Option<Receiver<Tagged>>>> = Vec::new();
    for v in &spec.vertices {
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..v.parallelism {
            if matches!(v.kind, VertexKind::Source(_)) {
                txs.push(None);
                rxs.push(None);
            } else {
                let (tx, rx) = bounded(config.channel_capacity);
                txs.push(Some(tx));
                rxs.push(Some(rx));
            }
        }
        input_tx.push(txs);
        input_rx.push(rxs);
    }

    // Channel-tag layout at each vertex: incoming edges in declaration order,
    // each contributing one channel per upstream instance.
    let tag_base = |vertex: usize, edge_index: usize| -> u32 {
        let mut base = 0u32;
        for (ei, e) in spec.incoming(vertex) {
            if ei == edge_index {
                return base;
            }
            base += spec.vertices[e.from].parallelism;
        }
        unreachable!("edge {edge_index} not incoming at vertex {vertex}")
    };
    let n_channels = |vertex: usize| -> u32 {
        spec.incoming(vertex)
            .iter()
            .map(|(_, e)| spec.vertices[e.from].parallelism)
            .sum()
    };
    let outputs = |vertex: usize, instance: u32| -> Vec<OutputPort> {
        spec.outgoing(vertex)
            .into_iter()
            .map(|(edge_index, e)| {
                let port = spec
                    .incoming(e.to)
                    .iter()
                    .position(|(ei, _)| *ei == edge_index)
                    .expect("edge is incoming at its target") as u8;
                OutputPort {
                    kind: e.kind,
                    senders: input_tx[e.to]
                        .iter()
                        .map(|t| t.clone().expect("non-source target has inputs"))
                        .collect(),
                    tag: tag_base(e.to, edge_index) + instance,
                    port,
                }
            })
            .collect()
    };

    let offsets_store = grid.snapshot_store(OFFSETS_STORE);
    let mut stores: Vec<Arc<SnapshotStore>> = vec![Arc::clone(&offsets_store)];
    let mut threads = Vec::new();
    let mut source_controls = Vec::new();

    for (vi, v) in spec.vertices.iter().enumerate() {
        match &v.kind {
            VertexKind::Source(factory) => {
                for i in 0..v.parallelism {
                    let (ctl_tx, ctl_rx) = unbounded();
                    source_controls.push(ctl_tx);
                    let mut source = factory.create(i, v.parallelism);
                    let saver = OffsetSaver {
                        store: Arc::clone(&offsets_store),
                        key: Value::str(format!("{}#{i}", v.name)),
                    };
                    if let Some(ssid) = restore {
                        if let Some(offset) = saver.load(ssid) {
                            source.rewind(&offset);
                        }
                    }
                    let outs = outputs(vi, i);
                    let shared = Arc::clone(&shared);
                    let batch = config.source_batch;
                    let tel = WorkerTelemetry::for_operator(grid.telemetry(), &v.name);
                    threads.push(spawn_named(format!("{}#{i}", v.name), move || {
                        run_source(source, ctl_rx, outs, i, batch, shared, saver, tel)
                    }));
                }
            }
            VertexKind::Stateless(factory) => {
                for i in 0..v.parallelism {
                    let rx = input_rx[vi][i as usize].take().expect("input channel");
                    let op = factory.create(i, v.parallelism);
                    let outs = outputs(vi, i);
                    let shared = Arc::clone(&shared);
                    let channels = n_channels(vi);
                    let tel = WorkerTelemetry::for_operator(grid.telemetry(), &v.name);
                    threads.push(spawn_named(format!("{}#{i}", v.name), move || {
                        run_operator(
                            rx,
                            channels,
                            OperatorKind::Stateless(op),
                            outs,
                            i,
                            shared,
                            tel,
                        )
                    }));
                }
            }
            VertexKind::Stateful(factory) => {
                let store = grid.snapshot_store(&v.name);
                if !stores.iter().any(|s| Arc::ptr_eq(s, &store)) {
                    stores.push(Arc::clone(&store));
                }
                let live = config.state.live_state.then(|| grid.map(&v.name));
                if let Some(schema) = &v.state_schema {
                    store.set_value_schema(Arc::clone(schema));
                    if let Some(l) = &live {
                        l.set_value_schema(Arc::clone(schema));
                    }
                }
                for i in 0..v.parallelism {
                    let rx = input_rx[vi][i as usize].take().expect("input channel");
                    let sink = if config.state.queryable_snapshots {
                        SnapshotSink::Queryable {
                            store: Arc::clone(&store),
                            mode: config.state.snapshot_mode,
                        }
                    } else {
                        SnapshotSink::Blob {
                            store: Arc::clone(&store),
                        }
                    };
                    let mut backend = StateBackend::new(
                        v.name.clone(),
                        i,
                        v.parallelism,
                        grid.partitioner(),
                        live.clone(),
                        sink,
                    )
                    .with_telemetry(grid.telemetry());
                    if let Some(ssid) = restore {
                        backend.restore(ssid)?;
                    }
                    let op = factory.create(i, v.parallelism);
                    let outs = outputs(vi, i);
                    let shared = Arc::clone(&shared);
                    let channels = n_channels(vi);
                    let tel = WorkerTelemetry::for_operator(grid.telemetry(), &v.name);
                    threads.push(spawn_named(format!("{}#{i}", v.name), move || {
                        run_operator(
                            rx,
                            channels,
                            OperatorKind::Stateful {
                                op,
                                state: Box::new(backend),
                            },
                            outs,
                            i,
                            shared,
                            tel,
                        )
                    }));
                }
            }
            VertexKind::Sink(factory) => {
                for i in 0..v.parallelism {
                    let rx = input_rx[vi][i as usize].take().expect("input channel");
                    let sink = factory.create(i, v.parallelism);
                    let outs = outputs(vi, i);
                    let shared = Arc::clone(&shared);
                    let channels = n_channels(vi);
                    let tel = WorkerTelemetry::for_operator(grid.telemetry(), &v.name);
                    threads.push(spawn_named(format!("{}#{i}", v.name), move || {
                        run_operator(rx, channels, OperatorKind::Sink(sink), outs, i, shared, tel)
                    }));
                }
            }
        }
    }

    let coordinator = Coordinator::start(
        CoordinatorContext {
            grid: Arc::clone(grid),
            source_controls: source_controls.clone(),
            ack_rx,
            shared: Arc::clone(&shared),
            stores,
            stats,
            ack_timeout: config.ack_timeout,
            retries: config.checkpoint_retries,
            retry_backoff: config.retry_backoff,
        },
        config.checkpoint_interval,
    );

    Ok((
        Running {
            threads,
            source_controls,
            coordinator,
        },
        shared,
    ))
}

fn spawn_named(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("spawn worker thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::adapters::{FnSink, FnStateful, FnStatefulOp, NullSinkFactory};
    use crate::dag::{EdgeKind, Sink, SourceFactory, Stateful};
    use crate::message::Record;
    use crate::source::{GeneratorSource, Source};
    use crate::state::KeyedState;

    /// Source producing ints 0..limit keyed by `i % keys`.
    struct IntSourceFactory {
        limit: u64,
        keys: i64,
    }

    impl SourceFactory for IntSourceFactory {
        fn create(&self, instance: u32, total: u32) -> Box<dyn Source> {
            // Split the range across instances by residue.
            let keys = self.keys;
            let limit = self.limit;
            let (instance, total) = (instance as u64, total as u64);
            let count = limit / total + u64::from(instance < limit % total);
            Box::new(GeneratorSource::new(count, move |i| {
                let n = (i * total + instance) as i64;
                Some(Record::new(n % keys, n))
            }))
        }
    }

    /// Stateful op: per-key running sum, emits the new sum.
    fn summing_factory() -> Arc<FnStateful<impl Fn(u32, u32) -> Box<dyn Stateful> + Send + Sync>> {
        Arc::new(FnStateful(|_, _| {
            Box::new(FnStatefulOp(
                |r: Record, state: &mut dyn KeyedState, out: &mut Vec<Record>| {
                    let prev = state.get(&r.key).and_then(|v| v.as_int()).unwrap_or(0);
                    let next = prev + r.value.as_int().unwrap_or(0);
                    state.put(r.key.clone(), Value::Int(next));
                    out.push(Record {
                        key: r.key,
                        value: Value::Int(next),
                        src_ts: r.src_ts,
                        port: 0,
                    });
                },
            )) as Box<dyn Stateful>
        }))
    }

    fn sum_job(limit: u64, keys: i64, par: u32) -> JobSpec {
        let mut b = JobSpec::builder("sum");
        let src = b.source("src", 1, Arc::new(IntSourceFactory { limit, keys }));
        let op = b.stateful("sums", par, summing_factory());
        let sink = b.sink("sink", 1, Arc::new(NullSinkFactory));
        b.edge(src, op, EdgeKind::Keyed);
        b.edge(op, sink, EdgeKind::Forward);
        b.build().unwrap()
    }

    fn env(state: StateConfig) -> StreamEnv {
        let config = EngineConfig {
            state,
            checkpoint_interval: None,
            ..EngineConfig::default()
        };
        StreamEnv::new(Grid::single_node(), config)
    }

    /// Expected per-key sums for ints 0..limit keyed by i % keys.
    fn expected_sums(limit: i64, keys: i64) -> Vec<(Value, Value)> {
        let mut sums = vec![0i64; keys as usize];
        for n in 0..limit {
            sums[(n % keys) as usize] += n;
        }
        sums.into_iter()
            .enumerate()
            .map(|(k, s)| (Value::Int(k as i64), Value::Int(s)))
            .collect()
    }

    #[test]
    fn stats_sampler_lifecycle_follows_the_env() {
        let grid = Grid::single_node();
        let config = EngineConfig {
            state: StateConfig::live_and_snapshot(),
            checkpoint_interval: None,
            stats_interval: Some(Duration::from_millis(5)),
            ..EngineConfig::default()
        };
        let env = StreamEnv::new(Arc::clone(&grid), config);
        assert!(env.stats_sampler_running());
        assert!(grid.stats().is_armed(), "env arms the grid");
        grid.map("orders").put(Value::Int(1), Value::Int(1));
        let deadline = Instant::now() + Duration::from_secs(10);
        while grid.stats().samples_total() == 0 {
            assert!(Instant::now() < deadline, "sampler never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(grid.stats().table(&grid, "orders").is_some());
        drop(env);
        // After the drop the thread is joined: the sample count freezes.
        let frozen = grid.stats().samples_total();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(grid.stats().samples_total(), frozen);
    }

    #[test]
    fn sampler_disabled_by_default() {
        let env = env(StateConfig::live_and_snapshot());
        assert!(!env.stats_sampler_running());
        assert!(!env.grid().stats().is_armed());
    }

    #[test]
    fn pipeline_processes_everything() {
        let env = env(StateConfig::live_and_snapshot());
        let mut job = env.submit(sum_job(1000, 10, 4)).unwrap();
        job.wait_for_sink_count(1000, Duration::from_secs(20))
            .unwrap();
        job.drain_and_checkpoint(Duration::from_secs(20)).unwrap();
        // Live state holds the exact final sums.
        let live = env.grid().get_map("sums").unwrap();
        let mut entries = live.entries();
        entries.sort();
        assert_eq!(entries, expected_sums(1000, 10));
        let report = job.stop();
        assert_eq!(report.sink_records, 1000);
        assert_eq!(report.source_records, 1000);
        assert_eq!(report.latency.count(), 1000);
    }

    #[test]
    fn checkpoint_now_produces_queryable_snapshot() {
        let env = env(StateConfig::snapshot_only());
        let mut job = env.submit(sum_job(500, 5, 2)).unwrap();
        job.wait_for_sink_count(500, Duration::from_secs(20))
            .unwrap();
        let ssid = job.drain_and_checkpoint(Duration::from_secs(20)).unwrap();
        assert_eq!(env.grid().registry().latest_committed(), ssid);
        let store = env.grid().get_snapshot_store("sums").unwrap();
        let (mut entries, _) = store.scan_at(ssid).unwrap();
        entries.sort();
        assert_eq!(entries, expected_sums(500, 5));
        let stats = job.checkpoint_stats();
        assert_eq!(stats.records().len(), 1);
        job.stop();
    }

    #[test]
    fn crash_and_recover_is_exactly_once() {
        let env = env(StateConfig::live_and_snapshot());
        let mut job = env.submit(sum_job(20_000, 10, 2)).unwrap();
        // Let some records through, checkpoint, let more through, crash.
        job.wait_for_sink_count(2_000, Duration::from_secs(20))
            .unwrap();
        job.checkpoint_now().unwrap();
        job.wait_for_sink_count(5_000, Duration::from_secs(20))
            .unwrap();
        job.crash();
        assert!(!job.is_running());
        // Recover and drain to completion (checkpoint barrier guarantees the
        // operators applied every replayed record before we inspect state).
        job.recover().unwrap();
        job.drain_and_checkpoint(Duration::from_secs(30)).unwrap();
        // Exactly-once: every input contributed to the sums exactly once,
        // even though records between the checkpoint and the crash were
        // processed twice from the sink's point of view.
        let live = env.grid().get_map("sums").unwrap();
        let mut entries = live.entries();
        entries.sort();
        assert_eq!(entries, expected_sums(20_000, 10));
        job.stop();
    }

    #[test]
    fn recovery_records_a_span_when_tracing_enabled() {
        let env = env(StateConfig::live_and_snapshot());
        env.grid().telemetry().spans().set_enabled(true);
        let mut job = env.submit(sum_job(500, 5, 2)).unwrap();
        job.wait_for_sink_count(500, Duration::from_secs(20))
            .unwrap();
        job.drain_and_checkpoint(Duration::from_secs(20)).unwrap();
        job.crash();
        job.recover().unwrap();
        let spans = env.grid().telemetry().spans().snapshot();
        let rec = spans
            .iter()
            .find(|s| s.kind == "recovery")
            .expect("recovery span");
        assert_eq!(rec.label("mode"), Some("rollback"));
        assert_eq!(rec.label("job"), Some("sum"));
        assert_eq!(rec.label("ssid"), Some("1"));
        // The traced checkpoint round also left its phase spans behind.
        assert!(spans.iter().any(|s| s.kind == "checkpoint_round"));
        assert!(spans.iter().any(|s| s.kind == "snapshot_write"));
        assert!(spans.iter().any(|s| s.kind == "mirror_write"));
        job.stop();
    }

    /// Phase 1 explains its own cost: every committed round leaves one
    /// marker-to-resume stall sample and one writer-time sample per stateful
    /// instance, and every writer's `snapshot_capture` span nests under the
    /// root span of its own round.
    #[test]
    fn committed_rounds_account_capture_stall_writer_time_and_spans() {
        let env = env(StateConfig::live_and_snapshot());
        env.grid().telemetry().spans().set_enabled(true);
        let job = env.submit(sum_job(600, 6, 2)).unwrap();
        job.wait_for_sink_count(600, Duration::from_secs(20))
            .unwrap();
        let rounds = 3u64;
        for _ in 0..rounds {
            job.checkpoint_now().unwrap();
        }
        // Joining the workers joins their writers: every sample is in.
        job.stop();
        let telemetry = env.grid().telemetry();
        let samples = |name: &str| {
            telemetry
                .histograms()
                .into_iter()
                .find(|(k, _)| k.name == name)
                .map(|(_, h)| h.count())
                .unwrap_or(0)
        };
        assert_eq!(samples("state_capture_stall_us"), rounds * 2);
        assert_eq!(samples("state_snapshot_us"), rounds * 2);
        let spans = telemetry.spans().snapshot();
        let captures: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == "snapshot_capture")
            .collect();
        assert_eq!(captures.len() as u64, rounds * 2);
        for capture in captures {
            let round = spans
                .iter()
                .find(|s| Some(s.id) == capture.parent)
                .expect("capture span has a parent");
            assert_eq!(round.kind, "checkpoint_round");
            assert_eq!(round.label("ssid"), capture.label("ssid"));
            assert!(capture.end_us <= round.end_us, "written before commit");
        }
    }

    #[test]
    fn recover_without_snapshot_fails() {
        let env = env(StateConfig::snapshot_only());
        let mut job = env.submit(sum_job(100, 5, 1)).unwrap();
        job.crash();
        assert!(matches!(job.recover(), Err(SqError::NotFound(_))));
    }

    #[test]
    fn periodic_checkpoints_run() {
        let config = EngineConfig {
            state: StateConfig::snapshot_only(),
            checkpoint_interval: Some(Duration::from_millis(25)),
            ..EngineConfig::default()
        };
        let env = StreamEnv::new(Grid::single_node(), config);
        // Unbounded source paced at 50k/s.
        struct Paced;
        impl SourceFactory for Paced {
            fn create(&self, _i: u32, _n: u32) -> Box<dyn Source> {
                Box::new(
                    GeneratorSource::new(0, |i| Some(Record::new((i % 100) as i64, i as i64)))
                        .with_rate(50_000.0),
                )
            }
        }
        let mut b = JobSpec::builder("periodic");
        let src = b.source("src", 1, Arc::new(Paced));
        let op = b.stateful("state", 2, summing_factory());
        let sink = b.sink("sink", 1, Arc::new(NullSinkFactory));
        b.edge(src, op, EdgeKind::Keyed);
        b.edge(op, sink, EdgeKind::Forward);
        let job = env.submit(b.build().unwrap()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while env.grid().registry().latest_committed().0 < 3 {
            assert!(Instant::now() < deadline, "periodic checkpoints stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
        let report = job.stop();
        assert!(report.checkpoints.len() >= 3);
        assert!(report.throughput() > 0.0);
        for c in &report.checkpoints {
            assert!(c.total_us >= c.phase1_us);
        }
    }

    #[test]
    fn two_input_operator_aligns_and_joins_streams() {
        // Port 0 adds, port 1 subtracts; both keyed to the same state.
        let env = env(StateConfig::snapshot_only());
        struct Ints {
            limit: u64,
        }
        impl SourceFactory for Ints {
            fn create(&self, _i: u32, _n: u32) -> Box<dyn Source> {
                let limit = self.limit;
                Box::new(GeneratorSource::new(limit, |i| {
                    Some(Record::new((i % 7) as i64, 1i64))
                }))
            }
        }
        let op_factory = Arc::new(FnStateful(|_, _| {
            Box::new(FnStatefulOp(
                |r: Record, state: &mut dyn KeyedState, _out: &mut Vec<Record>| {
                    let prev = state.get(&r.key).and_then(|v| v.as_int()).unwrap_or(0);
                    let delta = if r.port == 0 { 1 } else { -1 };
                    state.put(r.key.clone(), Value::Int(prev + delta));
                },
            )) as Box<dyn Stateful>
        }));
        let mut b = JobSpec::builder("two-input");
        let plus = b.source("plus", 1, Arc::new(Ints { limit: 700 }));
        let minus = b.source("minus", 1, Arc::new(Ints { limit: 350 }));
        let op = b.stateful("balance", 2, op_factory);
        let sink = b.sink("sink", 1, Arc::new(NullSinkFactory));
        b.edge(plus, op, EdgeKind::Keyed);
        b.edge(minus, op, EdgeKind::Keyed);
        b.edge(op, sink, EdgeKind::Forward);
        let mut job = env.submit(b.build().unwrap()).unwrap();
        let ssid = job.drain_and_checkpoint(Duration::from_secs(20)).unwrap();
        let store = env.grid().get_snapshot_store("balance").unwrap();
        let (entries, _) = store.scan_at(ssid).unwrap();
        assert_eq!(entries.len(), 7);
        for (_k, v) in entries {
            assert_eq!(v, Value::Int(100 - 50), "700/7 pluses minus 350/7 minuses");
        }
        job.stop();
    }

    #[test]
    fn sink_latency_is_recorded() {
        use parking_lot::Mutex;
        let env = env(StateConfig::jet_baseline());
        let got: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        struct Collect(Arc<Mutex<Vec<i64>>>);
        impl Sink for Collect {
            fn consume(&mut self, r: Record) {
                self.0.lock().push(r.value.as_int().unwrap());
            }
        }
        let mut b = JobSpec::builder("latency");
        let src = b.source(
            "src",
            1,
            Arc::new(IntSourceFactory {
                limit: 100,
                keys: 100,
            }),
        );
        let sink = b.sink(
            "sink",
            1,
            Arc::new(FnSink(move |_, _| {
                Box::new(Collect(Arc::clone(&got2))) as Box<dyn Sink>
            })),
        );
        b.edge(src, sink, EdgeKind::Forward);
        let job = env.submit(b.build().unwrap()).unwrap();
        job.wait_for_sink_count(100, Duration::from_secs(10))
            .unwrap();
        let report = job.stop();
        assert_eq!(report.latency.count(), 100);
        assert_eq!(got.lock().len(), 100);
    }

    fn panic_plan(at_record: u64, once: bool) -> squery_common::fault::FaultPlan {
        use squery_common::fault::*;
        FaultPlan::new(11).with(FaultSpec {
            point: InjectionPoint::WorkerRecord,
            action: FaultAction::PanicWorker,
            trigger: FaultTrigger {
                at_record: Some(at_record),
                operator: Some("sums".into()),
                ..FaultTrigger::default()
            },
            once,
        })
    }

    #[test]
    fn supervisor_restarts_panicked_job_and_reaches_exact_sums() {
        use squery_common::fault::FaultInjector;
        let grid = Grid::single_node();
        grid.attach_fault_injector(Arc::new(FaultInjector::new(panic_plan(50, true))));
        let config = EngineConfig {
            state: StateConfig::live_and_snapshot(),
            checkpoint_interval: None,
            ..EngineConfig::default()
        };
        let env = StreamEnv::new(Arc::clone(&grid), config);
        let policy = RestartPolicy {
            max_restarts: 3,
            base_backoff: Duration::from_millis(2),
            poll_interval: Duration::from_millis(2),
            jitter_seed: 1,
            ..RestartPolicy::default()
        };
        let job = env.submit_supervised(sum_job(2000, 10, 2), policy).unwrap();
        // The injected panic fires once; the supervisor restarts the job
        // from the initial state (no snapshot committed yet) and it reruns
        // to completion — no manual recover() anywhere.
        let deadline = Instant::now() + Duration::from_secs(20);
        while job.status().restarts < 1 {
            assert!(Instant::now() < deadline, "supervisor never restarted");
            std::thread::sleep(Duration::from_millis(2));
        }
        job.wait_healthy(Duration::from_secs(20)).unwrap();
        job.with_job(|j| j.drain_and_checkpoint(Duration::from_secs(20)))
            .unwrap();
        let live = grid.get_map("sums").unwrap();
        let mut entries = live.entries();
        entries.sort();
        assert_eq!(entries, expected_sums(2000, 10));
        let status = job.status();
        assert_eq!(status.restarts, 1);
        assert!(!status.gave_up);
        assert!(status.last_error.unwrap().contains("injected fault"));
        assert_eq!(
            grid.telemetry()
                .counter_value("supervisor_restarts_total", &[]),
            Some(1)
        );
        let fault_log = grid.fault_injector().unwrap().records();
        assert_eq!(fault_log.len(), 1);
        assert_eq!(fault_log[0].outcome, "recovered");
        job.stop();
    }

    #[test]
    fn supervisor_gives_up_after_restart_budget() {
        use squery_common::fault::FaultInjector;
        let grid = Grid::single_node();
        // `once: false`: the worker re-panics at the same record after every
        // restart — a crash loop the budget must bound.
        grid.attach_fault_injector(Arc::new(FaultInjector::new(panic_plan(10, false))));
        let config = EngineConfig {
            state: StateConfig::live_and_snapshot(),
            checkpoint_interval: None,
            ..EngineConfig::default()
        };
        let env = StreamEnv::new(Arc::clone(&grid), config);
        let policy = RestartPolicy {
            max_restarts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            poll_interval: Duration::from_millis(2),
            jitter_seed: 2,
        };
        let job = env.submit_supervised(sum_job(2000, 10, 2), policy).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while !job.status().gave_up {
            assert!(Instant::now() < deadline, "supervisor never gave up");
            std::thread::sleep(Duration::from_millis(2));
        }
        let status = job.status();
        assert_eq!(status.restarts, 2, "budget is total, not per-incident");
        let events: Vec<String> = grid
            .telemetry()
            .events()
            .snapshot()
            .iter()
            .map(|e| e.kind.as_str().to_string())
            .collect();
        assert!(events.iter().any(|k| k == "supervisor_gave_up"));
        let fault_log = grid.fault_injector().unwrap().records();
        assert_eq!(fault_log.last().unwrap().outcome, "gave_up");
        job.stop();
    }

    #[test]
    fn wait_for_sink_count_fails_fast_on_worker_death() {
        use squery_common::fault::FaultInjector;
        let grid = Grid::single_node();
        grid.attach_fault_injector(Arc::new(FaultInjector::new(panic_plan(5, true))));
        let config = EngineConfig {
            state: StateConfig::live_and_snapshot(),
            checkpoint_interval: None,
            ..EngineConfig::default()
        };
        let env = StreamEnv::new(Arc::clone(&grid), config);
        // Unsupervised: the panic must surface as WorkerDied, not a hang
        // until the (long) timeout.
        let job = env.submit(sum_job(2000, 1, 1)).unwrap();
        let err = job
            .wait_for_sink_count(2000, Duration::from_secs(30))
            .unwrap_err();
        assert!(matches!(err, SqError::WorkerDied(_)), "{err}");
        assert!(err.to_string().contains("sums#0"), "{err}");
    }

    #[test]
    fn cold_start_from_wal_resumes_exactly_once() {
        use squery_storage::{FsyncMode, WalManager};
        let dir = std::env::temp_dir().join(format!(
            "squery-wal-runtime-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            state: StateConfig::live_and_snapshot(),
            checkpoint_interval: None,
            ..EngineConfig::default()
        };
        // Incarnation 1: process part of the input, checkpoint (sealing the
        // round in the WAL), then die taking every in-memory structure along.
        {
            let grid = Grid::single_node();
            grid.attach_wal(Arc::new(WalManager::new(&dir, FsyncMode::OnCommit, 4)));
            let env = StreamEnv::new(Arc::clone(&grid), config);
            let mut job = env.submit(sum_job(2000, 10, 2)).unwrap();
            job.wait_for_sink_count(500, Duration::from_secs(20))
                .unwrap();
            job.checkpoint_now().unwrap();
            job.crash();
        }
        // Incarnation 2: a brand-new grid rebuilt from the WAL directory
        // alone, then the job resubmitted against the recovered snapshot.
        let grid = Grid::single_node();
        grid.attach_wal(Arc::new(WalManager::new(&dir, FsyncMode::OnCommit, 4)));
        let latest = grid
            .recover_from_wal()
            .unwrap()
            .expect("a sealed round on disk");
        assert_eq!(grid.registry().latest_committed(), latest);
        let env = StreamEnv::new(Arc::clone(&grid), config);
        let mut job = env.submit_restored(sum_job(2000, 10, 2)).unwrap();
        job.drain_and_checkpoint(Duration::from_secs(30)).unwrap();
        // Exactly-once across the cold start: sources rewound to the
        // recovered offsets, so every input contributed exactly once.
        let live = grid.get_map("sums").unwrap();
        let mut entries = live.entries();
        entries.sort();
        assert_eq!(entries, expected_sums(2000, 10));
        job.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_restored_without_snapshot_is_plain_submit() {
        let env = env(StateConfig::live_and_snapshot());
        let mut job = env.submit_restored(sum_job(100, 5, 1)).unwrap();
        job.drain_and_checkpoint(Duration::from_secs(10)).unwrap();
        let live = env.grid().get_map("sums").unwrap();
        let mut entries = live.entries();
        entries.sort();
        assert_eq!(entries, expected_sums(100, 5));
        job.stop();
    }

    #[test]
    fn jet_baseline_writes_blobs_not_queryable_entries() {
        let env = env(StateConfig::jet_baseline());
        let mut job = env.submit(sum_job(100, 10, 2)).unwrap();
        job.drain_and_checkpoint(Duration::from_secs(10)).unwrap();
        let store = env.grid().get_snapshot_store("sums").unwrap();
        // 2 instances → 2 blob entries, not 10 queryable key entries.
        assert_eq!(store.stats().stored_entries, 2);
        // And no live map was created.
        assert!(env.grid().get_map("sums").is_none());
        job.stop();
    }
}
