//! Q-commerce event generation (index-deterministic).

use squery_common::schema::Schema;
use squery_common::{DataType, Value};
use squery_streaming::dag::SourceFactory;
use squery_streaming::source::{GeneratorSource, Source};
use squery_streaming::Record;
use std::sync::{Arc, OnceLock};

/// The order state machine of §VIII (several intermediate states the paper
/// omits "for space savings" are represented by the ones its queries use).
pub const ORDER_STATES: [&str; 8] = [
    "ORDER_RECEIVED",
    "VENDOR_ACCEPTED",
    "NOTIFIED",
    "ACCEPTED",
    "PICKED_UP",
    "LEFT_PICKUP",
    "NEAR_CUSTOMER",
    "DELIVERED",
];

/// Delivery zones orders group by (Queries 1, 3, 4).
pub const ZONES: [&str; 8] = [
    "centrum", "north", "east", "south", "west", "harbor", "airport", "campus",
];

/// Vendor categories deliveries group by (Query 2).
pub const CATEGORIES: [&str; 5] = [
    "restaurant",
    "groceries",
    "pharmacy",
    "convenience",
    "flowers",
];

/// A far-future deadline (µs) for orders that are not late.
pub const FAR_DEADLINE_US: i64 = i64::MAX / 4;

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct QCommerceConfig {
    /// Distinct orders (the paper's experiments use 1 K / 10 K / 100 K).
    pub orders: u64,
    /// Distinct delivery riders.
    pub riders: u64,
    /// Status events per source instance (0 = unbounded cycling).
    pub events_per_instance: u64,
    /// Offered rate per source instance (`None` = full speed).
    pub rate_per_instance: Option<f64>,
    /// Full passes over the key space each source emits at full speed before
    /// pacing starts (state build-up for the snapshot-size experiments).
    pub prefill_passes: u32,
}

impl Default for QCommerceConfig {
    fn default() -> Self {
        QCommerceConfig {
            orders: 10_000,
            riders: 2_000,
            events_per_instance: 0,
            rate_per_instance: None,
            prefill_passes: 0,
        }
    }
}

/// SplitMix64 hash (deterministic per-entity attributes).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---- deterministic per-order attributes (also used by test oracles) -------

/// How many state-machine steps order `o` reaches (1..=8).
pub fn steps_of_order(o: u64) -> usize {
    1 + (mix(o ^ 0x5157_4550) % ORDER_STATES.len() as u64) as usize
}

/// The final (current) state name of order `o` once its events are ingested.
pub fn final_state_of_order(o: u64) -> &'static str {
    ORDER_STATES[steps_of_order(o) - 1]
}

/// Whether order `o` has a deadline in the past ("late", Query 1).
pub fn order_is_late(o: u64) -> bool {
    mix(o ^ 0x4c41_5445).is_multiple_of(4)
}

/// Delivery zone of order `o`.
pub fn zone_of_order(o: u64) -> &'static str {
    ZONES[(mix(o ^ 0x5a4f_4e45) % ZONES.len() as u64) as usize]
}

/// Vendor category of order `o`.
pub fn category_of_order(o: u64) -> &'static str {
    CATEGORIES[(mix(o ^ 0x4341_5445) % CATEGORIES.len() as u64) as usize]
}

// ---- schemas ---------------------------------------------------------------
//
// Each schema is built once per process and shared, so every state object
// carries the very `Arc` its operator registers and scans read its fields
// by position.

/// State-object schema of the `orderinfo` operator (the one-time order event).
pub fn order_info_schema() -> Arc<Schema> {
    static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
    Arc::clone(SCHEMA.get_or_init(|| {
        Schema::interned(vec![
            ("deliveryZone", DataType::Str),
            ("vendorCategory", DataType::Str),
            ("customerLat", DataType::Float),
            ("customerLon", DataType::Float),
            ("vendorLat", DataType::Float),
            ("vendorLon", DataType::Float),
        ])
    }))
}

/// State-object schema of the `orderstate` operator (latest status).
pub fn order_state_schema() -> Arc<Schema> {
    static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
    Arc::clone(SCHEMA.get_or_init(|| {
        Schema::interned(vec![
            ("orderState", DataType::Str),
            ("lateTimestamp", DataType::Timestamp),
        ])
    }))
}

/// State-object schema of the `riderlocation` operator (Figure 14's state:
/// two doubles and the last-update time).
pub fn rider_location_schema() -> Arc<Schema> {
    static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
    Arc::clone(SCHEMA.get_or_init(|| {
        Schema::interned(vec![
            ("lat", DataType::Float),
            ("lon", DataType::Float),
            ("updated", DataType::Timestamp),
        ])
    }))
}

fn coord(seed: u64, base: f64) -> f64 {
    base + (mix(seed) % 20_000) as f64 / 100_000.0
}

// ---- event builders ---------------------------------------------------------

/// The order-info event for order `o` (one per order).
pub fn order_info_event(o: u64) -> Record {
    Record::new(
        o as i64,
        Value::record(
            &order_info_schema(),
            vec![
                Value::str(zone_of_order(o)),
                Value::str(category_of_order(o)),
                Value::Float(coord(o ^ 1, 52.0)),
                Value::Float(coord(o ^ 2, 4.3)),
                Value::Float(coord(o ^ 3, 52.0)),
                Value::Float(coord(o ^ 4, 4.3)),
            ],
        ),
    )
}

/// The `k`-th status event of order `o` (clamped to the order's final state).
pub fn order_status_event(o: u64, k: usize) -> Record {
    let step = k.min(steps_of_order(o) - 1);
    let deadline = if order_is_late(o) { 1 } else { FAR_DEADLINE_US };
    Record::new(
        o as i64,
        Value::record(
            &order_state_schema(),
            vec![Value::str(ORDER_STATES[step]), Value::Timestamp(deadline)],
        ),
    )
}

/// A rider-location ping.
pub fn rider_location_event(rider: u64, seq: u64) -> Record {
    Record::new(
        rider as i64,
        Value::record(
            &rider_location_schema(),
            vec![
                Value::Float(coord(rider ^ seq, 52.0)),
                Value::Float(coord(rider ^ seq ^ 7, 4.3)),
                Value::Timestamp(seq as i64),
            ],
        ),
    )
}

// ---- sources ------------------------------------------------------------------

/// Order-info source: one event per order, cycling when unbounded.
pub fn order_info_source(cfg: QCommerceConfig, instance: u32, total: u32) -> GeneratorSource {
    let (instance, total) = (u64::from(instance), u64::from(total.max(1)));
    let mut src = GeneratorSource::new(cfg.events_per_instance, move |i| {
        let o = (i * total + instance) % cfg.orders;
        Some(order_info_event(o))
    });
    if let Some(rate) = cfg.rate_per_instance {
        src = src.with_rate(rate);
    }
    src.with_prefill(u64::from(cfg.prefill_passes) * cfg.orders / total)
}

/// Order-status source: 8 slots per order, emitting the order's progression.
pub fn order_status_source(cfg: QCommerceConfig, instance: u32, total: u32) -> GeneratorSource {
    let (instance, total) = (u64::from(instance), u64::from(total.max(1)));
    let slots = ORDER_STATES.len() as u64;
    let mut src = GeneratorSource::new(cfg.events_per_instance, move |i| {
        let g = i * total + instance;
        let o = (g / slots) % cfg.orders;
        let k = (g % slots) as usize;
        Some(order_status_event(o, k))
    });
    if let Some(rate) = cfg.rate_per_instance {
        src = src.with_rate(rate);
    }
    src.with_prefill(u64::from(cfg.prefill_passes) * cfg.orders * slots / total)
}

/// Rider-location source: round-robin pings over the rider population.
pub fn rider_location_source(cfg: QCommerceConfig, instance: u32, total: u32) -> GeneratorSource {
    let (instance, total) = (u64::from(instance), u64::from(total.max(1)));
    let mut src = GeneratorSource::new(cfg.events_per_instance, move |i| {
        let g = i * total + instance;
        let rider = g % cfg.riders;
        let seq = g / cfg.riders;
        Some(rider_location_event(rider, seq))
    });
    if let Some(rate) = cfg.rate_per_instance {
        src = src.with_rate(rate);
    }
    src.with_prefill(u64::from(cfg.prefill_passes) * cfg.riders / total)
}

/// Factory for [`order_info_source`].
pub struct OrderInfoSourceFactory(pub QCommerceConfig);
impl SourceFactory for OrderInfoSourceFactory {
    fn create(&self, instance: u32, total: u32) -> Box<dyn Source> {
        Box::new(order_info_source(self.0, instance, total))
    }
}

/// Factory for [`order_status_source`].
pub struct OrderStatusSourceFactory(pub QCommerceConfig);
impl SourceFactory for OrderStatusSourceFactory {
    fn create(&self, instance: u32, total: u32) -> Box<dyn Source> {
        Box::new(order_status_source(self.0, instance, total))
    }
}

/// Factory for [`rider_location_source`].
pub struct RiderLocationSourceFactory(pub QCommerceConfig);
impl SourceFactory for RiderLocationSourceFactory {
    fn create(&self, instance: u32, total: u32) -> Box<dyn Source> {
        Box::new(rider_location_source(self.0, instance, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_is_the_papers() {
        assert_eq!(ORDER_STATES[0], "ORDER_RECEIVED");
        assert_eq!(ORDER_STATES[7], "DELIVERED");
        assert!(ORDER_STATES.contains(&"VENDOR_ACCEPTED"));
        assert!(ORDER_STATES.contains(&"PICKED_UP"));
        assert!(ORDER_STATES.contains(&"NEAR_CUSTOMER"));
    }

    #[test]
    fn order_attributes_are_deterministic_and_spread() {
        let mut finals = std::collections::HashMap::new();
        let mut late = 0;
        for o in 0..10_000u64 {
            assert_eq!(steps_of_order(o), steps_of_order(o));
            *finals.entry(final_state_of_order(o)).or_insert(0) += 1;
            if order_is_late(o) {
                late += 1;
            }
        }
        assert_eq!(finals.len(), 8, "every final state occurs");
        assert!((2000..3000).contains(&late), "~25% late: {late}");
    }

    #[test]
    fn status_progression_clamps_at_final_state() {
        let o = (0..1000).find(|&o| steps_of_order(o) == 3).unwrap();
        let e2 = order_status_event(o, 2);
        let e7 = order_status_event(o, 7);
        let s2 = e2.value.as_struct().unwrap().field("orderState").cloned();
        let s7 = e7.value.as_struct().unwrap().field("orderState").cloned();
        assert_eq!(s2, s7, "later slots repeat the final state");
        assert_eq!(s2, Some(Value::str("NOTIFIED")));
    }

    #[test]
    fn late_orders_have_past_deadlines() {
        let late = (0..1000).find(|&o| order_is_late(o)).unwrap();
        let on_time = (0..1000).find(|&o| !order_is_late(o)).unwrap();
        let d_late = order_status_event(late, 0)
            .value
            .as_struct()
            .unwrap()
            .field("lateTimestamp")
            .unwrap()
            .as_timestamp()
            .unwrap();
        let d_ok = order_status_event(on_time, 0)
            .value
            .as_struct()
            .unwrap()
            .field("lateTimestamp")
            .unwrap()
            .as_timestamp()
            .unwrap();
        assert!(d_late < 1_000);
        assert_eq!(d_ok, FAR_DEADLINE_US);
    }

    #[test]
    fn sources_cover_all_orders() {
        let cfg = QCommerceConfig {
            orders: 100,
            riders: 10,
            events_per_instance: 100,
            rate_per_instance: None,
            prefill_passes: 0,
        };
        let mut src = order_info_source(cfg, 0, 1);
        let mut out = Vec::new();
        src.next_batch(200, 0, &mut out);
        let keys: std::collections::HashSet<_> = out.iter().map(|r| r.key.clone()).collect();
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn status_source_covers_full_progressions() {
        let cfg = QCommerceConfig {
            orders: 10,
            riders: 10,
            events_per_instance: 80, // 10 orders × 8 slots
            rate_per_instance: None,
            prefill_passes: 0,
        };
        let mut src = order_status_source(cfg, 0, 1);
        let mut out = Vec::new();
        src.next_batch(200, 0, &mut out);
        assert_eq!(out.len(), 80);
        // The last event of each order is its final state.
        for o in 0..10u64 {
            let last = out
                .iter()
                .rev()
                .find(|r| r.key == Value::Int(o as i64))
                .unwrap();
            assert_eq!(
                last.value.as_struct().unwrap().field("orderState"),
                Some(&Value::str(final_state_of_order(o)))
            );
        }
    }

    #[test]
    fn rider_pings_update_timestamps() {
        let cfg = QCommerceConfig {
            orders: 10,
            riders: 5,
            events_per_instance: 20,
            rate_per_instance: None,
            prefill_passes: 0,
        };
        let mut src = rider_location_source(cfg, 0, 1);
        let mut out = Vec::new();
        src.next_batch(20, 0, &mut out);
        // Rider 0 pinged at seq 0,1,2,3.
        let pings: Vec<_> = out
            .iter()
            .filter(|r| r.key == Value::Int(0))
            .map(|r| {
                r.value
                    .as_struct()
                    .unwrap()
                    .field("updated")
                    .unwrap()
                    .as_timestamp()
                    .unwrap()
            })
            .collect();
        assert_eq!(pings, vec![0, 1, 2, 3]);
    }

    #[test]
    fn multi_instance_sources_partition_the_stream() {
        let cfg = QCommerceConfig {
            orders: 100,
            riders: 10,
            events_per_instance: 50,
            rate_per_instance: None,
            prefill_passes: 0,
        };
        let mut a = order_info_source(cfg, 0, 2);
        let mut b = order_info_source(cfg, 1, 2);
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        a.next_batch(50, 0, &mut oa);
        b.next_batch(50, 0, &mut ob);
        let ka: std::collections::HashSet<_> = oa.iter().map(|r| r.key.clone()).collect();
        let kb: std::collections::HashSet<_> = ob.iter().map(|r| r.key.clone()).collect();
        assert!(ka.is_disjoint(&kb), "instances emit disjoint orders");
    }
}
