//! Shared fixtures for the integration tests.
#![allow(dead_code)] // not every test binary uses every fixture

use squery::{SQuery, SQueryConfig, StateConfig};
use squery_common::schema::schema;
use squery_common::{DataType, Value};
use squery_streaming::dag::adapters::{FnStateful, FnStatefulOp, NullSinkFactory};
use squery_streaming::dag::{SourceFactory, Stateful};
use squery_streaming::source::{Source, SourceStatus};
use squery_streaming::state::KeyedState;
use squery_streaming::{EdgeKind, JobHandle, JobSpec, Record};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A source gated by a shared allowance counter: tests decide exactly how
/// many records exist at any point, making checkpoint placement
/// deterministic.
pub struct GatedSource {
    index: u64,
    keys: u64,
    allowance: Arc<AtomicU64>,
}

impl Source for GatedSource {
    fn next_batch(&mut self, max: usize, _now: u64, out: &mut Vec<Record>) -> SourceStatus {
        let allowed = self.allowance.load(Ordering::Acquire);
        let budget = allowed.saturating_sub(self.index).min(max as u64);
        if budget == 0 {
            return SourceStatus::Idle;
        }
        for _ in 0..budget {
            out.push(Record::new((self.index % self.keys) as i64, 1i64));
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

/// Factory handing each instance the same allowance gate.
pub struct GatedFactory {
    pub keys: u64,
    pub allowance: Arc<AtomicU64>,
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

/// A per-key counting operator (state = plain Int exposed as column `this`).
pub fn counter_factory() -> Arc<dyn squery_streaming::dag::StatefulFactory> {
    Arc::new(FnStateful(|_, _| {
        Box::new(FnStatefulOp(
            |r: Record, state: &mut dyn KeyedState, out: &mut Vec<Record>| {
                let n = state.get(&r.key).and_then(|v| v.as_int()).unwrap_or(0) + 1;
                state.put(r.key.clone(), Value::Int(n));
                out.push(Record {
                    key: r.key,
                    value: Value::Int(n),
                    src_ts: r.src_ts,
                    port: 0,
                });
            },
        )) as Box<dyn Stateful>
    }))
}

/// A gated counting job over `keys` keys with `parallelism` operator
/// instances; returns the system, the job, and the allowance gate.
pub fn gated_counter_system(
    state: StateConfig,
    keys: u64,
    parallelism: u32,
) -> (SQuery, JobHandle, Arc<AtomicU64>) {
    gated_counter_system_with(SQueryConfig::default().with_state(state), keys, parallelism)
}

/// [`gated_counter_system`] with full control over the deployment config.
pub fn gated_counter_system_with(
    config: SQueryConfig,
    keys: u64,
    parallelism: u32,
) -> (SQuery, JobHandle, Arc<AtomicU64>) {
    let system = SQuery::new(config).expect("bring up S-QUERY");
    let (job, allowance) = gated_counter_job(&system, keys, parallelism);
    (system, job, allowance)
}

/// Submit the gated counting job (source `events` → stateful `count` →
/// sink) to an existing system, e.g. one with a fault injector attached.
pub fn gated_counter_job(
    system: &SQuery,
    keys: u64,
    parallelism: u32,
) -> (JobHandle, Arc<AtomicU64>) {
    let allowance = Arc::new(AtomicU64::new(0));
    let mut b = JobSpec::builder("gated-counter");
    let src = b.source(
        "events",
        1,
        Arc::new(GatedFactory {
            keys,
            allowance: Arc::clone(&allowance),
        }),
    );
    let op = b.stateful_with_schema(
        "count",
        parallelism,
        counter_factory(),
        schema(vec![("this", DataType::Int)]),
    );
    let sink = b.sink("sink", 1, Arc::new(NullSinkFactory));
    b.edge(src, op, EdgeKind::Keyed);
    b.edge(op, sink, EdgeKind::Forward);
    let job = system
        .submit(b.build().expect("valid spec"))
        .expect("submit");
    (job, allowance)
}

/// Release `n` more events and wait for them to reach the sink.
pub fn advance(job: &JobHandle, allowance: &AtomicU64, to_total: u64) {
    allowance.store(to_total, Ordering::Release);
    job.wait_for_sink_count(to_total, std::time::Duration::from_secs(30))
        .expect("events drain to sink");
}
