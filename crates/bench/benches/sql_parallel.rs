//! Partition-parallel SQL execution: Query 1 (join + group-by over snapshot
//! state) and a full snapshot scan, swept over degrees of parallelism.
//!
//! The interesting comparison is `dop=1` (the sequential executor) vs
//! `dop=4` on the 100K-key population — the acceptance shape for the
//! parallel execution layer. On single-core hosts the dop>1 numbers mostly
//! measure coordination overhead; the result-equality assertion still holds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use squery::{SQuery, SQueryConfig, StateConfig};
use squery_bench::util::{populate_snapshot, qcommerce_fixture};
use squery_qcommerce::QUERY_1;
use std::time::Duration;

/// An S-QUERY system whose orderinfo/orderstate snapshot state is populated
/// for `orders` keys (written directly, no job, for bench setup speed).
fn populated_system(orders: u64) -> SQuery {
    let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
    populated_system_with(orders, config)
}

fn populated_system_with(orders: u64, config: SQueryConfig) -> SQuery {
    let system = SQuery::new(config).unwrap();
    populate_snapshot(&system, qcommerce_fixture(orders));
    system
}

fn query1_dop_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_parallel_query1_100k");
    group.sample_size(10);
    let system = populated_system(100_000);
    let baseline = system.query_with_dop(QUERY_1, 1).unwrap().sorted_rows();
    for dop in [1usize, 2, 4, 8] {
        let rows = system.query_with_dop(QUERY_1, dop).unwrap().sorted_rows();
        assert_eq!(rows, baseline, "dop {dop} must match sequential results");
        group.bench_with_input(BenchmarkId::from_parameter(dop), &dop, |b, &dop| {
            b.iter(|| system.query_with_dop(QUERY_1, dop).unwrap())
        });
    }
    group.finish();
}

fn snapshot_scan_dop_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_parallel_scan_aggregate_100k");
    group.sample_size(10);
    let system = populated_system(100_000);
    let sql = "SELECT deliveryZone, COUNT(*) FROM snapshot_orderinfo GROUP BY deliveryZone";
    for dop in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(dop), &dop, |b, &dop| {
            b.iter(|| system.query_with_dop(sql, dop).unwrap())
        });
    }
    group.finish();
}

/// The stats-subsystem overhead gate: Query 1 at DOP 4 with the background
/// sampler armed and sampling every 10 ms vs fully off. Write-path
/// accounting is always on; arming additionally routes every live write
/// through the recent-key ring. The acceptance shape is the armed number
/// within ~2% of the off number — compare the two criterion ids.
fn stats_sampler_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_parallel_stats_overhead_100k");
    group.sample_size(10);
    let base = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
    for (label, interval) in [
        ("sampler-off", None),
        ("sampler-on-10ms", Some(Duration::from_millis(10))),
    ] {
        let system = populated_system_with(100_000, base.clone().with_stats_interval(interval));
        // Live writes on the side so the armed run exercises the ring.
        let map = system.grid().map("orderinfo");
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut i = 0u64;
            b.iter(|| {
                map.put(
                    squery_common::Value::Int((i % 1024) as i64),
                    squery_common::Value::Int(i as i64),
                );
                i += 1;
                system.query_with_dop(QUERY_1, 4).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    query1_dop_sweep,
    snapshot_scan_dop_sweep,
    stats_sampler_overhead
);
criterion_main!(benches);
