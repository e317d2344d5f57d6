//! Micro-benchmarks of the SQL layer: parsing, point reads via hint
//! pushdown, Query 1's join+aggregate pipeline (the Figure 13 workload).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use squery::{SQuery, SQueryConfig, StateConfig};
use squery_bench::util::{populate_snapshot, qcommerce_fixture};
use squery_common::Value;
use squery_qcommerce::events::order_info_event;
use squery_qcommerce::QUERY_1;
use squery_sql::parser::parse;

/// An S-QUERY system whose orderinfo/orderstate snapshot state is populated
/// for `orders` keys (written directly, no job, for bench setup speed).
fn populated_system(orders: u64) -> SQuery {
    let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
    let system = SQuery::new(config).unwrap();
    populate_snapshot(&system, qcommerce_fixture(orders));
    let info_live = system.grid().map("orderinfo");
    info_live.set_value_schema(squery_qcommerce::events::order_info_schema());
    for o in 0..orders {
        let info = order_info_event(o);
        info_live.put(info.key, info.value);
    }
    system
}

fn parsing(c: &mut Criterion) {
    c.bench_function("parse_query1", |b| b.iter(|| parse(QUERY_1).unwrap()));
    c.bench_function("parse_point_select", |b| {
        b.iter(|| parse("SELECT count, total FROM average WHERE partitionKey = 1").unwrap())
    });
}

fn point_reads(c: &mut Criterion) {
    let system = populated_system(10_000);
    let mut i = 0i64;
    c.bench_function("sql_point_read_live_10k", |b| {
        b.iter(|| {
            i = (i + 1) % 10_000;
            system
                .query(&format!(
                    "SELECT deliveryZone FROM orderinfo WHERE partitionKey = {i}"
                ))
                .unwrap()
        })
    });
    c.bench_function("sql_point_read_snapshot_10k", |b| {
        b.iter(|| {
            i = (i + 1) % 10_000;
            system
                .query(&format!(
                    "SELECT deliveryZone FROM snapshot_orderinfo WHERE partitionKey = {i}"
                ))
                .unwrap()
        })
    });
}

fn query1_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("query1_join_groupby");
    group.sample_size(20);
    for orders in [1_000u64, 10_000] {
        let system = populated_system(orders);
        group.bench_with_input(BenchmarkId::from_parameter(orders), &orders, |b, _| {
            b.iter(|| system.query(QUERY_1).unwrap())
        });
    }
    group.finish();
}

fn aggregates(c: &mut Criterion) {
    let system = populated_system(10_000);
    c.bench_function("group_by_zone_10k", |b| {
        b.iter(|| {
            system
                .query(
                    "SELECT deliveryZone, COUNT(*) FROM snapshot_orderinfo GROUP BY deliveryZone",
                )
                .unwrap()
        })
    });
    let _ = Value::Null;
}

criterion_group!(benches, parsing, point_reads, query1_join, aggregates);
criterion_main!(benches);
