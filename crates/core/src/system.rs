//! The S-QUERY system facade: stream processor + state store + query system.

use crate::config::SQueryConfig;
use crate::direct::DirectQuery;
use crate::stats::StatsCatalog;
use crate::systables::{register_sys_tables, JobLog};
use parking_lot::Mutex;
use squery_common::fault::{FaultInjector, FaultPlan};
use squery_common::lockorder::{self, LockClass};
use squery_common::telemetry::MetricsRegistry;
use squery_common::time::Clock;
use squery_common::{SnapshotId, SqResult};
use squery_sql::{GridCatalog, QueryLog, ResultSet, SqlEngine};
use squery_storage::{Grid, WalManager};
use squery_streaming::{JobHandle, JobSpec, RestartPolicy, StreamEnv, SupervisedJob};
use std::sync::Arc;

/// A complete S-QUERY deployment (the paper's Figure 1): a stream processor
/// whose operators store their live and snapshot state in a partitioned KV
/// grid, plus the query system exposing both through SQL and direct object
/// interfaces.
pub struct SQuery {
    grid: Arc<Grid>,
    env: StreamEnv,
    sql: SqlEngine<GridCatalog>,
    config: SQueryConfig,
    jobs: JobLog,
    query_log: QueryLog,
}

impl SQuery {
    /// Bring up a deployment for `config`.
    pub fn new(config: SQueryConfig) -> SqResult<SQuery> {
        config.validate()?;
        let telemetry = MetricsRegistry::with_capacity(config.event_capacity, Clock::wall());
        telemetry.spans().set_enabled(config.tracing);
        let grid = Grid::new_with_telemetry(config.cluster, telemetry)?;
        grid.registry()
            .set_retained_versions(config.retained_versions);
        grid.stats().set_hot_key_capacity(config.stats_hot_keys);
        if let Some(wal_dir) = &config.wal_dir {
            // Durable snapshots: every checkpoint's phase-1 writes land in
            // the WAL and phase 2 seals them; any sealed rounds already on
            // disk are replayed now, before the first query can run.
            grid.attach_wal(Arc::new(WalManager::new(
                wal_dir,
                config.wal_fsync,
                config.wal_retention,
            )));
            grid.recover_from_wal()?;
        }
        let env = StreamEnv::new(Arc::clone(&grid), config.engine_config());
        let jobs: JobLog = Arc::new(Mutex::new(Vec::new()));
        let query_log = QueryLog::default();
        let catalog = GridCatalog::new(Arc::clone(&grid));
        register_sys_tables(
            &catalog,
            Arc::clone(&grid),
            Arc::clone(&jobs),
            query_log.clone(),
        );
        let sql = SqlEngine::new(catalog)
            .with_telemetry(grid.telemetry())
            .with_parallelism(config.query_parallelism)
            .with_query_log(query_log.clone());
        Ok(SQuery {
            grid,
            env,
            sql,
            config,
            jobs,
            query_log,
        })
    }

    /// The underlying state store.
    pub fn grid(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// The engine-wide metrics/event registry (also behind `sys_metrics`
    /// and `sys_events`).
    pub fn telemetry(&self) -> &MetricsRegistry {
        self.grid.telemetry()
    }

    /// The per-query log (also behind `sys_query_log`).
    pub fn query_log(&self) -> &QueryLog {
        &self.query_log
    }

    /// The continuous state-statistics catalog (also behind
    /// `sys_partitions`, `sys_state_stats`, and `sys_hot_keys`).
    pub fn stats(&self) -> StatsCatalog {
        StatsCatalog::new(Arc::clone(&self.grid))
    }

    /// Run one synchronous statistics sampling pass — for deterministic
    /// tests and on-demand refreshes; the background sampler (enabled with
    /// [`SQueryConfig::with_stats_interval`]) does the same on a timer.
    pub fn sample_stats_now(&self) -> usize {
        self.stats().sample_now()
    }

    /// The configuration this deployment runs with.
    pub fn config(&self) -> &SQueryConfig {
        &self.config
    }

    /// Submit a streaming job. The job's checkpoint log is retained for
    /// `sys_checkpoints`.
    pub fn submit(&self, spec: JobSpec) -> SqResult<JobHandle> {
        let name = spec.name.clone();
        let handle = self.env.submit(spec)?;
        let _lo = lockorder::acquired(LockClass::CoreJobs);
        self.jobs.lock().push((name, handle.checkpoint_stats()));
        Ok(handle)
    }

    /// Submit a streaming job resuming from the latest committed snapshot —
    /// used after a cold start whose WAL recovery restored one ([`SQuery::new`]
    /// with a WAL directory): operator state is restored and sources rewind
    /// to their recovered offsets, so exactly-once holds across the process
    /// kill. Falls back to a plain submit when nothing was recovered.
    pub fn submit_recovered(&self, spec: JobSpec) -> SqResult<JobHandle> {
        let name = spec.name.clone();
        let handle = self.env.submit_restored(spec)?;
        let _lo = lockorder::acquired(LockClass::CoreJobs);
        self.jobs.lock().push((name, handle.checkpoint_stats()));
        Ok(handle)
    }

    /// Submit a streaming job under supervision: worker deaths and killed
    /// coordinators are detected and recovered automatically per `policy`,
    /// while queries keep serving the last committed snapshot.
    pub fn submit_supervised(
        &self,
        spec: JobSpec,
        policy: RestartPolicy,
    ) -> SqResult<SupervisedJob> {
        Ok(SupervisedJob::supervise(self.submit(spec)?, policy))
    }

    /// Arm a deterministic fault plan. Jobs submitted *after* this call
    /// thread the injector through their workers; the checkpoint
    /// coordinator, replicator, and node-failure paths consult it
    /// immediately. Every firing lands in `sys_faults`.
    pub fn inject_faults(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let injector = Arc::new(FaultInjector::new(plan));
        self.grid.attach_fault_injector(Arc::clone(&injector));
        injector
    }

    /// Run a SQL query against the live and snapshot state tables.
    ///
    /// Live tables are named after their operator; snapshot tables are
    /// `snapshot_<operator>` with an extra `ssid` column defaulting to the
    /// latest committed snapshot (paper §V).
    pub fn query(&self, sql: &str) -> SqResult<ResultSet> {
        self.sql.query(sql)
    }

    /// Run a SQL query with an explicit degree of parallelism, overriding
    /// the configured `query_parallelism` for this query only.
    pub fn query_with_dop(&self, sql: &str, dop: usize) -> SqResult<ResultSet> {
        self.sql.query_with_dop(sql, dop)
    }

    /// Run a SQL query on the sequential row reference instead of the
    /// columnar driver — the oracle the equivalence tests compare every
    /// DOP's output against over identical state.
    pub fn query_reference(&self, sql: &str) -> SqResult<ResultSet> {
        self.sql.query_reference(sql)
    }

    /// The direct object interface (point/multi-key reads, Figure 14).
    /// Multi-key reads inherit the configured `query_parallelism`.
    pub fn direct(&self) -> DirectQuery {
        DirectQuery::new(Arc::clone(&self.grid)).with_parallelism(self.config.query_parallelism)
    }

    /// The latest committed snapshot id, if any checkpoint has completed.
    pub fn latest_snapshot(&self) -> Option<SnapshotId> {
        let latest = self.grid.registry().latest_committed();
        latest.is_some().then_some(latest)
    }

    /// All committed snapshot ids currently retained (oldest first).
    pub fn retained_snapshots(&self) -> Vec<SnapshotId> {
        self.grid.registry().committed_ssids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::StateView;
    use squery_common::schema::schema;
    use squery_common::{DataType, Value};
    use squery_streaming::dag::adapters::{FnStateful, FnStatefulOp, NullSinkFactory};
    use squery_streaming::dag::{SourceFactory, Stateful};
    use squery_streaming::source::{Source, SourceStatus};
    use squery_streaming::state::KeyedState;
    use squery_streaming::{EdgeKind, Record, StateConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// A source whose production is gated by a shared allowance counter —
    /// lets tests decide exactly how many records exist before/after a
    /// checkpoint (needed for the Figure 5/6 scenarios).
    pub struct GatedSource {
        index: u64,
        allowance: Arc<AtomicU64>,
    }

    impl Source for GatedSource {
        fn next_batch(&mut self, max: usize, _now: u64, out: &mut Vec<Record>) -> SourceStatus {
            let allowed = self.allowance.load(Ordering::Acquire);
            let budget = (allowed.saturating_sub(self.index)).min(max as u64);
            if budget == 0 {
                return SourceStatus::Idle;
            }
            for _ in 0..budget {
                // A constant-keyed counter increment stream.
                out.push(Record::new(0i64, 1i64));
                self.index += 1;
            }
            SourceStatus::Active
        }

        fn offset(&self) -> Value {
            Value::Int(self.index as i64)
        }

        fn rewind(&mut self, offset: &Value) {
            self.index = offset.as_int().unwrap() as u64;
        }
    }

    struct GatedFactory(Arc<AtomicU64>);
    impl SourceFactory for GatedFactory {
        fn create(&self, _i: u32, _n: u32) -> Box<dyn Source> {
            Box::new(GatedSource {
                index: 0,
                allowance: Arc::clone(&self.0),
            })
        }
    }

    fn counter_factory() -> Arc<FnStateful<impl Fn(u32, u32) -> Box<dyn Stateful> + Send + Sync>> {
        Arc::new(FnStateful(|_, _| {
            Box::new(FnStatefulOp(
                |r: Record, state: &mut dyn KeyedState, out: &mut Vec<Record>| {
                    let prev = state.get(&r.key).and_then(|v| v.as_int()).unwrap_or(0);
                    state.put(r.key.clone(), Value::Int(prev + 1));
                    out.push(Record {
                        key: r.key,
                        value: Value::Int(prev + 1),
                        src_ts: r.src_ts,
                        port: 0,
                    });
                },
            )) as Box<dyn Stateful>
        }))
    }

    /// A count job over a gated source; returns (system, job, allowance).
    fn counter_system(
        config: SQueryConfig,
    ) -> (SQuery, squery_streaming::JobHandle, Arc<AtomicU64>) {
        let system = SQuery::new(config).unwrap();
        let allowance = Arc::new(AtomicU64::new(0));
        let mut b = JobSpec::builder("counter-job");
        let src = b.source("src", 1, Arc::new(GatedFactory(Arc::clone(&allowance))));
        let op = b.stateful_with_schema(
            "count",
            1,
            counter_factory(),
            schema(vec![("this", DataType::Int)]),
        );
        let sink = b.sink("sink", 1, Arc::new(NullSinkFactory));
        b.edge(src, op, EdgeKind::Keyed);
        b.edge(op, sink, EdgeKind::Forward);
        let job = system.submit(b.build().unwrap()).unwrap();
        (system, job, allowance)
    }

    fn live_count(system: &SQuery) -> Option<i64> {
        system
            .direct()
            .get("count", &Value::Int(0), StateView::Live)
            .unwrap()
            .and_then(|v| v.as_int())
    }

    /// The paper's Figure 5: a live-state query observes an uncommitted
    /// value that a failure subsequently rolls back — a dirty read,
    /// demonstrating the read-uncommitted level of live queries.
    #[test]
    fn figure5_live_state_dirty_read() {
        let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
        let (system, mut job, allowance) = counter_system(config);

        // Counter reaches 4; checkpoint captures it (snapshot id 1).
        allowance.store(4, Ordering::Release);
        job.wait_for_sink_count(4, Duration::from_secs(10)).unwrap();
        let ssid = job.checkpoint_now().unwrap();

        // One more increment: live shows 5 (uncommitted).
        allowance.store(5, Ordering::Release);
        job.wait_for_sink_count(5, Duration::from_secs(10)).unwrap();
        assert_eq!(live_count(&system), Some(5), "Figure 5b: live query sees 5");

        // The job fails before the next checkpoint; recovery rolls back.
        // Lower the gate first so the rolled-back 5th event is not instantly
        // replayed before we can observe the restored state.
        job.crash();
        allowance.store(4, Ordering::Release);
        job.recover().unwrap();
        assert_eq!(
            live_count(&system),
            Some(4),
            "Figure 5c: the earlier read of 5 was dirty"
        );
        // The snapshot query was and remains 4.
        assert_eq!(
            system
                .direct()
                .get("count", &Value::Int(0), StateView::Snapshot(ssid))
                .unwrap(),
            Some(Value::Int(4))
        );
        job.stop();
    }

    /// The paper's Figure 6: a query pinned to a snapshot id returns the
    /// same value before and after a failure — serializable isolation.
    #[test]
    fn figure6_snapshot_queries_survive_failure() {
        let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
        let (system, mut job, allowance) = counter_system(config);

        allowance.store(2, Ordering::Release);
        job.wait_for_sink_count(2, Duration::from_secs(10)).unwrap();
        let ssid = job.checkpoint_now().unwrap();

        allowance.store(3, Ordering::Release);
        job.wait_for_sink_count(3, Duration::from_secs(10)).unwrap();
        let read_before = system
            .direct()
            .get("count", &Value::Int(0), StateView::Snapshot(ssid))
            .unwrap();
        assert_eq!(read_before, Some(Value::Int(2)), "Figure 6b");

        job.crash();
        allowance.store(2, Ordering::Release);
        job.recover().unwrap();
        let read_after = system
            .direct()
            .get("count", &Value::Int(0), StateView::Snapshot(ssid))
            .unwrap();
        assert_eq!(read_after, read_before, "Figure 6c: still 2");
        job.stop();
    }

    /// End-to-end SQL over a running job's live and snapshot state.
    #[test]
    fn sql_over_live_and_snapshot_tables() {
        let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
        let (system, job, allowance) = counter_system(config);
        allowance.store(10, Ordering::Release);
        job.wait_for_sink_count(10, Duration::from_secs(10))
            .unwrap();
        let ssid = job.checkpoint_now().unwrap();
        allowance.store(12, Ordering::Release);
        job.wait_for_sink_count(12, Duration::from_secs(10))
            .unwrap();

        let live = system
            .query("SELECT this FROM count WHERE partitionKey = 0")
            .unwrap();
        assert_eq!(live.rows()[0][0], Value::Int(12));

        let snap = system
            .query("SELECT this, ssid FROM snapshot_count WHERE partitionKey = 0")
            .unwrap();
        assert_eq!(snap.rows()[0][0], Value::Int(10));
        assert_eq!(snap.rows()[0][1], Value::Int(ssid.0 as i64));
        job.stop();
    }

    #[test]
    fn retention_is_configurable_through_squery() {
        let config = SQueryConfig::default().with_retention(3);
        let (system, job, allowance) = counter_system(config);
        allowance.store(1, Ordering::Release);
        job.wait_for_sink_count(1, Duration::from_secs(10)).unwrap();
        for _ in 0..5 {
            job.checkpoint_now().unwrap();
        }
        assert_eq!(system.retained_snapshots().len(), 3);
        assert_eq!(system.latest_snapshot(), Some(SnapshotId(5)));
        job.stop();
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let config = SQueryConfig {
            retained_versions: 0,
            ..SQueryConfig::default()
        };
        assert!(SQuery::new(config).is_err());
    }
}
