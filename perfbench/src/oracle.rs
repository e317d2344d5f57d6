//! Closed-form expected answers for the q-commerce state at a committed
//! snapshot.
//!
//! The generator is index-deterministic, so the state a snapshot holds is a
//! function of the order-status source's offset at that snapshot. Once one
//! full pass over the 8 status slots of every order has been ingested, every
//! order sits in its final state except, at most, the one order whose
//! progression the source was re-emitting when the snapshot was cut. The
//! expected answers are `expected_query1..4(orders)` with that single
//! order's contribution moved from its final state to its partial one.

use squery_common::Value;
use squery_qcommerce::events::{
    category_of_order, order_is_late, order_status_event, steps_of_order, zone_of_order,
};
use squery_qcommerce::queries::{
    expected_query1, expected_query2, expected_query3, expected_query4,
};
use squery_qcommerce::ORDER_STATES;
use std::collections::BTreeMap;

/// Status slots per order in the status stream.
const SLOTS: u64 = ORDER_STATES.len() as u64;

/// Expected state of the three operators at one snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Oracle {
    orders: u64,
    /// The order whose progression is half re-emitted, and the last slot
    /// emitted for it.
    partial: Option<(u64, usize)>,
}

impl Oracle {
    /// The oracle for a snapshot whose order-status source offset (events
    /// emitted before the barrier) is `status_offset`. Requires that at
    /// least one full pass was ingested.
    pub fn at_offset(orders: u64, status_offset: u64) -> Result<Oracle, String> {
        if status_offset < orders * SLOTS {
            return Err(format!(
                "status offset {status_offset} is below one full pass ({})",
                orders * SLOTS
            ));
        }
        let next_slot = status_offset % SLOTS;
        let partial =
            (next_slot != 0).then(|| ((status_offset / SLOTS) % orders, next_slot as usize - 1));
        Ok(Oracle { orders, partial })
    }

    /// Orders (rows of `snapshot_orderinfo` and `snapshot_orderstate`).
    pub fn orders(&self) -> u64 {
        self.orders
    }

    /// Expected `orderstate` value of order `o`.
    pub fn status_value(&self, o: u64) -> Value {
        let slot = match self.partial {
            Some((p, k)) if p == o => k,
            _ => SLOTS as usize - 1,
        };
        order_status_event(o, slot).value
    }

    /// Expected `(group, COUNT(*))` of paper query `q` (1..=4).
    pub fn query(&self, q: u8) -> BTreeMap<String, i64> {
        let base = match q {
            1 => expected_query1(self.orders),
            2 => expected_query2(self.orders),
            3 => expected_query3(self.orders),
            4 => expected_query4(self.orders),
            _ => panic!("no query {q}"),
        };
        let mut out: BTreeMap<String, i64> =
            base.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        if let Some((o, slot)) = self.partial {
            let final_state = ORDER_STATES[steps_of_order(o) - 1];
            let now_state = ORDER_STATES[slot.min(steps_of_order(o) - 1)];
            if let Some(g) = group_of(q, o, final_state) {
                let c = out.get_mut(g).expect("final state was counted");
                *c -= 1;
                if *c == 0 {
                    out.remove(g);
                }
            }
            if let Some(g) = group_of(q, o, now_state) {
                *out.entry(g.to_string()).or_insert(0) += 1;
            }
        }
        out
    }
}

/// The group order `o` in `state` counts toward in query `q`, if any — the
/// WHERE clause and GROUP BY key of the paper's Queries 1–4.
fn group_of(q: u8, o: u64, state: &str) -> Option<&'static str> {
    let counted = match q {
        1 => state == "VENDOR_ACCEPTED" && order_is_late(o),
        2 => state == "NOTIFIED" || state == "ACCEPTED",
        3 => state == "VENDOR_ACCEPTED",
        4 => matches!(state, "PICKED_UP" | "LEFT_PICKUP" | "NEAR_CUSTOMER"),
        _ => panic!("no query {q}"),
    };
    counted.then(|| {
        if q == 2 {
            category_of_order(o)
        } else {
            zone_of_order(o)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pass_boundary_matches_the_library_oracles() {
        let o = Oracle::at_offset(1000, 1000 * SLOTS).unwrap();
        for q in 1..=4 {
            let lib: BTreeMap<String, i64> = match q {
                1 => expected_query1(1000),
                2 => expected_query2(1000),
                3 => expected_query3(1000),
                _ => expected_query4(1000),
            }
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
            assert_eq!(o.query(q), lib);
        }
        assert_eq!(o.status_value(7), order_status_event(7, 7).value);
    }

    #[test]
    fn partial_order_is_counted_in_its_current_state() {
        // Offset 1000*8 + 8*5 + 1: order 5 re-emitted only slot 0.
        let o = Oracle::at_offset(1000, 1000 * SLOTS + 5 * SLOTS + 1).unwrap();
        assert_eq!(o.status_value(5), order_status_event(5, 0).value);
        assert_eq!(o.status_value(6), order_status_event(6, 7).value);
        let total: i64 = (1..=4).map(|q| o.query(q).values().sum::<i64>()).sum();
        let full = Oracle::at_offset(1000, 1000 * SLOTS).unwrap();
        let full_total: i64 = (1..=4).map(|q| full.query(q).values().sum::<i64>()).sum();
        // ORDER_RECEIVED counts in no query; the final state counted in at
        // most two (Queries 1 and 3 overlap).
        assert!(full_total - total <= 2 && full_total >= total);
    }

    #[test]
    fn offsets_below_one_pass_are_refused() {
        assert!(Oracle::at_offset(1000, 10).is_err());
    }
}
