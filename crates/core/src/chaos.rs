//! Deterministic chaos harness: a seeded fault plan against a supervised
//! counting job, with invariant checks at the end.
//!
//! One [`run_seed`] call is one soak iteration: sample a [`FaultPlan`] from
//! the seed, run a keyed counting job under supervision while the plan
//! kills workers, drops acks, fails commits, and kills the coordinator at
//! its chosen points, then verify that none of it is observable in the
//! final state:
//!
//! * exactly-once — the per-key counts equal a fault-free pass;
//! * snapshot-id monotonicity across every abort and recovery;
//! * live ≡ snapshot equivalence behind the final checkpoint barrier;
//! * every fired fault resolved (`recovered`, `recovered_by_retry`,
//!   `absorbed`, …) — nothing left `pending`;
//! * `sys_faults` (the SQL path) agrees with the injector's log.
//!
//! The same seed always produces the same plan, and a plan whose triggers
//! key off record counts and snapshot ids (not wall-clock) reproduces the
//! same fault firings run after run — the [`ChaosReport::fingerprint`] makes
//! that checkable.

use crate::config::SQueryConfig;
use crate::invariants;
use crate::system::SQuery;
use squery_common::fault::{ChaosProfile, FaultPlan, FaultRecord};
use squery_common::schema::schema;
use squery_common::{DataType, SqError, SqResult, Value};
use squery_streaming::dag::adapters::{FnStateful, FnStatefulOp, NullSinkFactory};
use squery_streaming::dag::{SourceFactory, Stateful};
use squery_streaming::source::{Source, SourceStatus};
use squery_streaming::state::KeyedState;
use squery_streaming::{EdgeKind, JobSpec, Record, RestartPolicy, StateConfig, SupervisedJob};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload shape for one chaos iteration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Total records the source produces.
    pub events: u64,
    /// Distinct keys (record `i` gets key `i % keys`).
    pub keys: i64,
    /// Parallelism of the counting operator.
    pub parallelism: u32,
    /// Checkpoint rounds spread across the run.
    pub rounds: u32,
    /// Phase-1 ack timeout (short: aborted rounds must fail fast).
    pub ack_timeout: Duration,
    /// In-place checkpoint retries before the supervisor takes over.
    pub checkpoint_retries: u32,
    /// Supervisor restart budget.
    pub max_restarts: u32,
    /// Whole-iteration wall-clock budget.
    pub deadline: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            events: 120,
            keys: 6,
            parallelism: 2,
            rounds: 4,
            ack_timeout: Duration::from_millis(250),
            checkpoint_retries: 2,
            max_restarts: 8,
            deadline: Duration::from_secs(30),
        }
    }
}

impl ChaosConfig {
    /// The plan shape matching this workload: crash points spread across
    /// worker records, post-ack windows, and the checkpoint rounds the run
    /// will actually perform.
    pub fn profile(&self) -> ChaosProfile {
        ChaosProfile {
            max_fatal: 2,
            max_benign: 2,
            record_range: (
                1,
                (self.events / u64::from(self.parallelism).max(1)) / 2 + 2,
            ),
            ssid_range: (1, u64::from(self.rounds) + 1),
            operators: vec!["count".into(), "src".into()],
            instances: self.parallelism,
        }
    }
}

/// Outcome of one chaos iteration (the invariants already passed if this
/// is returned at all — violations surface as `Err`).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the plan came from (0 for explicit plans).
    pub seed: u64,
    /// Faults that actually fired, with resolved outcomes.
    pub faults: Vec<FaultRecord>,
    /// Supervisor restarts performed.
    pub restarts: u32,
    /// In-place checkpoint retries performed.
    pub checkpoint_retries: u64,
    /// Checkpoint rounds aborted along the way.
    pub aborted_checkpoints: u64,
    /// Canonical digest of final state + fault firings: identical across
    /// runs of the same plan.
    pub fingerprint: String,
}

/// Shared gate: the source produces `index` while `index < allowance`.
pub(crate) struct GatedSource {
    index: u64,
    keys: i64,
    allowance: Arc<AtomicU64>,
}

impl Source for GatedSource {
    fn next_batch(&mut self, max: usize, _now_us: u64, out: &mut Vec<Record>) -> SourceStatus {
        let allowed = self.allowance.load(Ordering::Acquire);
        let budget = allowed.saturating_sub(self.index).min(max as u64);
        if budget == 0 {
            return SourceStatus::Idle;
        }
        for _ in 0..budget {
            out.push(Record::new((self.index as i64) % self.keys, 1i64));
            self.index += 1;
        }
        SourceStatus::Active
    }

    fn offset(&self) -> Value {
        Value::Int(self.index as i64)
    }

    fn rewind(&mut self, offset: &Value) {
        self.index = offset.as_int().expect("int offset") as u64;
    }
}

pub(crate) struct GatedFactory {
    pub(crate) keys: i64,
    pub(crate) allowance: Arc<AtomicU64>,
}

impl SourceFactory for GatedFactory {
    fn create(&self, _i: u32, _n: u32) -> Box<dyn Source> {
        Box::new(GatedSource {
            index: 0,
            keys: self.keys,
            allowance: Arc::clone(&self.allowance),
        })
    }
}

pub(crate) fn counting_factory(
) -> Arc<FnStateful<impl Fn(u32, u32) -> Box<dyn Stateful> + Send + Sync>> {
    Arc::new(FnStateful(|_, _| {
        Box::new(FnStatefulOp(
            |r: Record, state: &mut dyn KeyedState, out: &mut Vec<Record>| {
                let next = state.get(&r.key).and_then(|v| v.as_int()).unwrap_or(0) + 1;
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

fn chaos_job(cfg: &ChaosConfig, allowance: &Arc<AtomicU64>) -> JobSpec {
    let mut b = JobSpec::builder("chaos-count");
    let src = b.source(
        "src",
        1,
        Arc::new(GatedFactory {
            keys: cfg.keys,
            allowance: Arc::clone(allowance),
        }),
    );
    let op = b.stateful_with_schema(
        "count",
        cfg.parallelism,
        counting_factory(),
        schema(vec![("this", DataType::Int)]),
    );
    let sink = b.sink("sink", 1, Arc::new(NullSinkFactory));
    b.edge(src, op, EdgeKind::Keyed);
    b.edge(op, sink, EdgeKind::Forward);
    b.build().expect("valid chaos job")
}

/// The per-key counts a fault-free pass over the input produces.
pub fn expected_counts(events: u64, keys: i64) -> Vec<(Value, Value)> {
    let mut counts = vec![0i64; keys as usize];
    for i in 0..events {
        counts[(i as i64 % keys) as usize] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .filter(|(_, c)| *c > 0)
        .map(|(k, c)| (Value::Int(k as i64), Value::Int(c)))
        .collect()
}

/// Sum of the live per-key counts — the number of *distinct* input records
/// whose effect is currently in state (replays don't inflate it).
pub(crate) fn live_progress(system: &SQuery) -> i64 {
    system
        .grid()
        .get_map("count")
        .map(|m| {
            m.entries()
                .iter()
                .filter_map(|(_, v)| v.as_int())
                .sum::<i64>()
        })
        .unwrap_or(0)
}

/// [`live_progress`] of the latest committed snapshot.
fn snapshot_progress(system: &SQuery) -> SqResult<i64> {
    let grid = system.grid();
    let store = grid
        .get_snapshot_store("count")
        .ok_or_else(|| SqError::NotFound("no snapshot store for count".into()))?;
    let (rows, _) = store.scan_at(grid.registry().latest_committed())?;
    Ok(rows.iter().filter_map(|(_, v)| v.as_int()).sum())
}

fn fail_if_gave_up(job: &SupervisedJob) -> SqResult<()> {
    let status = job.status();
    if status.gave_up {
        return Err(SqError::Runtime(format!(
            "supervisor gave up after {} restarts: {}",
            status.restarts,
            status.last_error.unwrap_or_default()
        )));
    }
    Ok(())
}

/// Wait until the state reflects `target` distinct records (recovery dips
/// are expected; the supervisor must bring it back).
fn wait_progress(
    system: &SQuery,
    job: &SupervisedJob,
    target: i64,
    deadline: Instant,
) -> SqResult<()> {
    loop {
        fail_if_gave_up(job)?;
        if live_progress(system) >= target {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(SqError::Runtime(format!(
                "chaos run stalled at {}/{} records",
                live_progress(system),
                target
            )));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Trigger a checkpoint, riding out fault-induced aborts and restarts.
fn checkpoint_with_patience(job: &SupervisedJob, deadline: Instant) -> SqResult<()> {
    loop {
        fail_if_gave_up(job)?;
        match job.with_job(|j| j.checkpoint_now()) {
            Ok(_) => return Ok(()),
            Err(e) => {
                if Instant::now() > deadline {
                    return Err(SqError::Runtime(format!(
                        "no checkpoint committed before the deadline: {e}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Run the seeded plan for `seed` — see the module docs for what one
/// iteration does and checks.
pub fn run_seed(cfg: &ChaosConfig, seed: u64) -> SqResult<ChaosReport> {
    run_plan(cfg, FaultPlan::seeded(seed, &cfg.profile()))
}

/// Run an explicit fault plan against the chaos workload.
pub fn run_plan(cfg: &ChaosConfig, plan: FaultPlan) -> SqResult<ChaosReport> {
    let seed = plan.seed;
    let system = SQuery::new(
        SQueryConfig::default()
            .with_state(StateConfig::live_and_snapshot())
            .with_ack_timeout(cfg.ack_timeout)
            .with_checkpoint_retries(cfg.checkpoint_retries, Duration::from_millis(2)),
    )?;
    let injector = system.inject_faults(plan);
    let allowance = Arc::new(AtomicU64::new(0));
    let job = system.submit_supervised(
        chaos_job(cfg, &allowance),
        RestartPolicy {
            max_restarts: cfg.max_restarts,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            poll_interval: Duration::from_millis(2),
            jitter_seed: seed,
        },
    )?;
    let deadline = Instant::now() + cfg.deadline;

    // Feed the input in `rounds` slices with a checkpoint after each, so
    // ssid-triggered faults land between meaningful phase-1/phase-2 rounds.
    let per_round = (cfg.events / u64::from(cfg.rounds)).max(1);
    let mut released = 0u64;
    let mut restarts_before_commit = 0;
    for round in 0..cfg.rounds {
        released = if round + 1 == cfg.rounds {
            cfg.events
        } else {
            (released + per_round).min(cfg.events)
        };
        allowance.store(released, Ordering::Release);
        restarts_before_commit = job.status().restarts;
        wait_progress(&system, &job, released as i64, deadline)?;
        checkpoint_with_patience(&job, deadline)?;
    }

    // Settle: a fault that fired during the *final* checkpoint round (e.g.
    // a post-ack worker kill with every ack already in) lets the commit
    // succeed while the supervisor is still about to act on the dead
    // worker. Wait until every fired fault has a terminal outcome and
    // progress has re-converged after any such late restart. A restart can
    // also restore an older snapshot just before the final round's commit,
    // which then captures the restored state while the replay runs past
    // it. Only in that case commit again and settle again: a snapshot that
    // misses records with no restart since its round began is a capture
    // fault, left for `check_live_matches_snapshot` to report.
    loop {
        while invariants::check_faults_resolved(&injector).is_err() {
            fail_if_gave_up(&job)?;
            if Instant::now() > deadline {
                return Err(SqError::Runtime(
                    "faults still unresolved at the deadline".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Blocks on the job lock, so an in-flight restore finishes first.
        job.wait_healthy(deadline.saturating_duration_since(Instant::now()))?;
        let restarts_before_wait = job.status().restarts;
        wait_progress(&system, &job, cfg.events as i64, deadline)?;
        if snapshot_progress(&system)? >= cfg.events as i64
            || job.status().restarts == restarts_before_commit
        {
            break;
        }
        restarts_before_commit = restarts_before_wait;
        checkpoint_with_patience(&job, deadline)?;
    }

    // Converged: verify the run left no fault visible in the state.
    let grid = system.grid();
    invariants::check_exactly_once(grid, "count", &expected_counts(cfg.events, cfg.keys))?;
    let latest = grid.registry().latest_committed();
    invariants::check_live_matches_snapshot(grid, "count", latest)?;
    invariants::check_snapshot_monotonic(grid.telemetry())?;
    invariants::check_faults_resolved(&injector)?;
    invariants::check_lock_order_clean()?;

    // The SQL surface must agree with the injector's own log.
    let sys_rows = system
        .query("SELECT COUNT(*) AS n FROM sys_faults")?
        .scalar("n")
        .and_then(Value::as_int)
        .unwrap_or(-1);
    let fired = injector.records();
    if sys_rows != fired.len() as i64 {
        return Err(SqError::Runtime(format!(
            "sys_faults lists {sys_rows} rows but the injector fired {}",
            fired.len()
        )));
    }

    let status = job.status();
    let report = ChaosReport {
        seed,
        fingerprint: fingerprint(grid, &fired),
        faults: fired,
        restarts: status.restarts,
        checkpoint_retries: grid
            .telemetry()
            .counter_value("checkpoint_retries_total", &[])
            .unwrap_or(0),
        aborted_checkpoints: job.checkpoint_stats().aborted(),
    };
    job.stop();
    Ok(report)
}

/// Canonical digest of the final operator state plus the *stable* fields of
/// every fault firing (not timestamps): byte-identical across runs of the
/// same plan.
fn fingerprint(grid: &squery_storage::Grid, faults: &[FaultRecord]) -> String {
    let mut out = String::from("state:");
    if let Some(map) = grid.get_map("count") {
        let mut entries = map.entries();
        entries.sort();
        for (k, v) in entries {
            out.push_str(&format!("{k:?}={v:?};"));
        }
    }
    out.push_str("|faults:");
    for f in faults {
        out.push_str(&format!(
            "{}/{}/{}/{}/{};",
            f.point.as_str(),
            f.action.as_str(),
            f.operator.as_deref().unwrap_or("-"),
            f.instance.map(|i| i.to_string()).unwrap_or("-".into()),
            f.outcome,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use squery_common::fault::{FaultAction, FaultSpec, FaultTrigger, InjectionPoint};

    /// A quick profile so unit tests stay fast; the ≥50-seed soak lives in
    /// `tests/chaos_soak.rs`.
    fn quick() -> ChaosConfig {
        ChaosConfig {
            events: 60,
            rounds: 3,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn fault_free_plan_passes_all_invariants() {
        let report = run_plan(&quick(), FaultPlan::new(0)).unwrap();
        assert_eq!(report.restarts, 0);
        assert!(report.faults.is_empty());
        assert!(report.fingerprint.starts_with("state:"));
    }

    #[test]
    fn worker_kill_between_phases_recovers_and_reproduces() {
        // The acceptance scenario: a worker dies after acking phase 1 of
        // checkpoint 1 but before forwarding the marker (so phase 2 never
        // starts); the supervisor recovers without any manual recover().
        let plan = || {
            FaultPlan::new(0).with(FaultSpec {
                point: InjectionPoint::WorkerPostAck,
                action: FaultAction::PanicWorker,
                trigger: FaultTrigger {
                    at_ssid: Some(1),
                    operator: Some("count".into()),
                    instance: Some(0),
                    ..FaultTrigger::default()
                },
                once: true,
            })
        };
        let a = run_plan(&quick(), plan()).unwrap();
        let b = run_plan(&quick(), plan()).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint, "byte-identical reruns");
        assert!(a.restarts >= 1, "supervisor had to act");
        assert_eq!(a.faults.len(), 1);
        assert_eq!(a.faults[0].outcome, "recovered");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let cfg = quick();
        let p1 = FaultPlan::seeded(42, &cfg.profile());
        let p2 = FaultPlan::seeded(42, &cfg.profile());
        assert_eq!(format!("{p1:?}"), format!("{p2:?}"));
    }
}
