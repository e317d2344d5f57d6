//! Rollback-recovery latency: crash a running job (workers joined, state
//! torn down) and restore it from the last committed snapshot, as the
//! supervisor does after a fatal fault. State size sweeps show the restore
//! cost growing with the keyspace — the recovery-time side of the paper's
//! fault-tolerance story. The process-death path (a cold start from the
//! write-ahead log alone) is perfbench's `recovery_s` and its
//! `storage.wal.recover` probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use squery::{SQuery, SQueryConfig, StateConfig};
use squery_bench::util::{submit_monitoring, wait_for_fill};
use squery_streaming::JobHandle;
use std::time::Duration;

fn prepared_job(orders: u64) -> (SQuery, JobHandle) {
    let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
    let system = SQuery::new(config).unwrap();
    let job = submit_monitoring(&system, orders, None, 2);
    let fill = orders + orders * 8 + (orders / 5).max(10);
    wait_for_fill(&job, fill, Duration::from_secs(120));
    job.checkpoint_now().unwrap();
    (system, job)
}

fn recovery_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_time");
    group.sample_size(10);
    for orders in [1_000u64, 5_000, 20_000] {
        let (_system, mut job) = prepared_job(orders);
        group.bench_with_input(
            BenchmarkId::new("crash_recover", orders),
            &orders,
            |b, _| {
                b.iter(|| {
                    job.crash();
                    job.recover().unwrap();
                });
            },
        );
        job.stop();
    }
    group.finish();
}

criterion_group!(benches, recovery_time);
criterion_main!(benches);
