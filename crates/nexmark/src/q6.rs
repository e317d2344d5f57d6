//! NEXMark query 6: average selling price per seller (last 10 auctions).
//!
//! Dataflow (the streaming job of the paper's §IX-B/E):
//!
//! ```text
//! bids ─────┐ port 0
//!           ├──▶ maxbid (keyed by auction) ──▶ average (keyed by seller) ──▶ sink
//! auctions ─┘ port 1        │                       │
//!                   winning (seller, price)   ring buffer of last 10
//!                   on auction CLOSE          closing prices → mean
//! ```
//!
//! Both stateful operators register their state-object schemas, so S-QUERY
//! exposes them as queryable tables: `maxbid` / `snapshot_maxbid` with
//! columns `(partitionKey, seller, best, open)` and `average` /
//! `snapshot_average` with `(partitionKey, count, total, average, prices)` —
//! the scalability experiment's "10 latest auction prices" query reads the
//! `prices` column.

use crate::generator::{AuctionSourceFactory, BidSourceFactory, NexmarkConfig};
use squery_common::schema::Schema;
use squery_common::{DataType, Value};
use squery_streaming::dag::adapters::NullSinkFactory;
use squery_streaming::dag::{Stateful, StatefulFactory};
use squery_streaming::state::KeyedState;
use squery_streaming::{EdgeKind, JobSpec, Record};
use std::sync::{Arc, OnceLock};

/// Window width: the paper averages over the last 10 auctions per seller.
pub const LAST_N_AUCTIONS: usize = 10;

/// Names of the job's queryable operators.
#[derive(Debug, Clone)]
pub struct Q6Vertices {
    /// The per-auction max-bid operator.
    pub maxbid: &'static str,
    /// The per-seller averaging operator (10 K sellers in the paper).
    pub average: &'static str,
}

/// Schema of the `maxbid` operator's state objects (one shared `Arc` per
/// process, so state objects carry the registered schema itself).
pub fn maxbid_state_schema() -> Arc<Schema> {
    static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
    Arc::clone(SCHEMA.get_or_init(|| {
        Schema::interned(vec![
            ("seller", DataType::Int),
            ("best", DataType::Float),
            ("open", DataType::Bool),
        ])
    }))
}

/// Schema of the `average` operator's state objects (shared like
/// [`maxbid_state_schema`]).
pub fn average_state_schema() -> Arc<Schema> {
    static SCHEMA: OnceLock<Arc<Schema>> = OnceLock::new();
    Arc::clone(SCHEMA.get_or_init(|| {
        Schema::interned(vec![
            ("count", DataType::Int),
            ("total", DataType::Float),
            ("average", DataType::Float),
            ("prices", DataType::List),
        ])
    }))
}

/// Per-auction highest-bid tracking; emits `(seller, price)` on CLOSE.
struct MaxBidOp;

impl Stateful for MaxBidOp {
    fn process(&mut self, record: Record, state: &mut dyn KeyedState, out: &mut Vec<Record>) {
        let sv = match record.value.as_struct() {
            Some(sv) => sv.clone(),
            None => return,
        };
        if record.port == 0 {
            // Bid: raise the auction's best price if the auction is open.
            let Some(current) = state.get(&record.key) else {
                return; // bid for an unknown/closed auction
            };
            let cur = current.as_struct().expect("maxbid state is a struct");
            let best = cur.field("best").and_then(Value::as_f64).unwrap_or(0.0);
            let price = sv.field("price").and_then(Value::as_f64).unwrap_or(0.0);
            if price > best {
                let updated = cur
                    .with_field("best", Value::Float(price))
                    .expect("schema has best");
                state.put(record.key, Value::Struct(updated));
            }
        } else {
            // Auction lifecycle event.
            let kind = sv.field("kind").and_then(Value::as_str).unwrap_or("");
            match kind {
                "NEW" => {
                    let seller = sv.field("seller").cloned().unwrap_or(Value::Null);
                    let reserve = sv.field("reserve").cloned().unwrap_or(Value::Float(0.0));
                    state.put(
                        record.key,
                        Value::record(
                            &maxbid_state_schema(),
                            vec![seller, reserve, Value::Bool(true)],
                        ),
                    );
                }
                "CLOSE" => {
                    if let Some(current) = state.remove(&record.key) {
                        let cur = current.as_struct().expect("maxbid state is a struct");
                        let seller = cur.field("seller").cloned().unwrap_or(Value::Null);
                        let best = cur.field("best").cloned().unwrap_or(Value::Float(0.0));
                        out.push(Record {
                            key: seller,
                            value: best,
                            src_ts: record.src_ts,
                            port: 0,
                        });
                    }
                }
                _ => {}
            }
        }
    }
}

struct MaxBidFactory;
impl StatefulFactory for MaxBidFactory {
    fn create(&self, _instance: u32, _total: u32) -> Box<dyn Stateful> {
        Box::new(MaxBidOp)
    }
}

/// Per-seller average over the last [`LAST_N_AUCTIONS`] closing prices.
struct AverageOp;

impl Stateful for AverageOp {
    fn process(&mut self, record: Record, state: &mut dyn KeyedState, out: &mut Vec<Record>) {
        let price = match record.value.as_f64() {
            Some(p) => p,
            None => return,
        };
        let mut prices: Vec<Value> = state
            .get(&record.key)
            .and_then(|v| {
                v.as_struct()
                    .and_then(|sv| sv.field("prices").cloned())
                    .and_then(|p| p.as_list().map(<[Value]>::to_vec))
            })
            .unwrap_or_default();
        prices.push(Value::Float(price));
        if prices.len() > LAST_N_AUCTIONS {
            prices.remove(0);
        }
        let total: f64 = prices.iter().filter_map(Value::as_f64).sum();
        let average = total / prices.len() as f64;
        let count = prices.len() as i64;
        state.put(
            record.key.clone(),
            Value::record(
                &average_state_schema(),
                vec![
                    Value::Int(count),
                    Value::Float(total),
                    Value::Float(average),
                    Value::list(prices),
                ],
            ),
        );
        out.push(Record {
            key: record.key,
            value: Value::Float(average),
            src_ts: record.src_ts,
            port: 0,
        });
    }
}

struct AverageFactory;
impl StatefulFactory for AverageFactory {
    fn create(&self, _instance: u32, _total: u32) -> Box<dyn Stateful> {
        Box::new(AverageOp)
    }
}

/// Build the query-6 job.
///
/// `parallelism` applies to both stateful operators; sources and sink run at
/// the given `source_parallelism` / 1 respectively (the stateful operators
/// dominate the work, mirroring Jet's deployment).
pub fn q6_job(cfg: NexmarkConfig, source_parallelism: u32, parallelism: u32) -> JobSpec {
    let mut b = JobSpec::builder("nexmark-q6");
    let bids = b.source("bids", source_parallelism, Arc::new(BidSourceFactory(cfg)));
    let auctions = b.source(
        "auctions",
        source_parallelism,
        Arc::new(AuctionSourceFactory(cfg)),
    );
    let maxbid = b.stateful_with_schema(
        "maxbid",
        parallelism,
        Arc::new(MaxBidFactory),
        maxbid_state_schema(),
    );
    let average = b.stateful_with_schema(
        "average",
        parallelism,
        Arc::new(AverageFactory),
        average_state_schema(),
    );
    let sink = b.sink("sink", 1, Arc::new(NullSinkFactory));
    b.edge(bids, maxbid, EdgeKind::Keyed); // port 0
    b.edge(auctions, maxbid, EdgeKind::Keyed); // port 1
    b.edge(maxbid, average, EdgeKind::Keyed);
    b.edge(average, sink, EdgeKind::Forward);
    b.build().expect("q6 spec is valid")
}

/// The job's queryable operator names.
pub fn q6_vertices() -> Q6Vertices {
    Q6Vertices {
        maxbid: "maxbid",
        average: "average",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squery::{SQuery, SQueryConfig, StateConfig};
    use std::time::Duration;

    fn small_cfg() -> NexmarkConfig {
        NexmarkConfig {
            sellers: 50,
            active_auctions: 100,
            events_per_instance: 5_000,
            rate_per_instance: None,
        }
    }

    #[test]
    fn q6_runs_and_builds_seller_state() {
        let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
        let system = SQuery::new(config).unwrap();
        let mut job = system.submit(q6_job(small_cfg(), 1, 2)).unwrap();
        let ssid = job.drain_and_checkpoint(Duration::from_secs(30)).unwrap();

        // Averages accumulated per seller, queryable via SQL.
        let rs = system
            .query("SELECT COUNT(*) AS sellers FROM average")
            .unwrap();
        let sellers = rs.scalar("sellers").unwrap().as_int().unwrap();
        assert!(sellers > 10, "many sellers saw closed auctions: {sellers}");

        // Snapshot view agrees with live view after the barrier.
        let rs = system
            .query("SELECT COUNT(*) AS sellers FROM snapshot_average")
            .unwrap();
        assert_eq!(rs.scalar("sellers").unwrap().as_int().unwrap(), sellers);
        assert_eq!(system.latest_snapshot(), Some(ssid));

        // Averages are sane: between min and max generated price bounds.
        let rs = system
            .query("SELECT MIN(average) AS lo, MAX(average) AS hi FROM average")
            .unwrap();
        let lo = rs.scalar("lo").unwrap().as_f64().unwrap();
        let hi = rs.scalar("hi").unwrap().as_f64().unwrap();
        assert!(lo >= 10.0 && hi <= 1010.1, "lo={lo} hi={hi}");
        job.stop();
    }

    #[test]
    fn average_window_is_bounded_to_last_10() {
        let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
        let system = SQuery::new(config).unwrap();
        let mut job = system.submit(q6_job(small_cfg(), 1, 1)).unwrap();
        job.drain_and_checkpoint(Duration::from_secs(30)).unwrap();
        let rs = system.query("SELECT MAX(count) AS m FROM average").unwrap();
        let m = rs.scalar("m").unwrap().as_int().unwrap();
        assert!(m <= LAST_N_AUCTIONS as i64, "ring buffer capped: {m}");
        assert!(m >= 2, "windows actually filled: {m}");
        job.stop();
    }

    #[test]
    fn scalability_query_reads_price_lists() {
        // The Figure 15 workload queries "the list of the 10 latest auction
        // prices" — the prices column of the average table.
        let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
        let system = SQuery::new(config).unwrap();
        let mut job = system.submit(q6_job(small_cfg(), 1, 1)).unwrap();
        job.drain_and_checkpoint(Duration::from_secs(30)).unwrap();
        let rs = system
            .query("SELECT partitionKey, prices FROM snapshot_average LIMIT 5")
            .unwrap();
        assert!(!rs.is_empty());
        for row in rs.rows() {
            assert!(row[1].as_list().is_some(), "prices is a list");
        }
        job.stop();
    }

    #[test]
    fn maxbid_state_stays_bounded_by_active_auctions() {
        let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
        let system = SQuery::new(config).unwrap();
        let cfg = small_cfg();
        let mut job = system.submit(q6_job(cfg, 1, 2)).unwrap();
        job.drain_and_checkpoint(Duration::from_secs(30)).unwrap();
        let live = system.grid().get_map("maxbid").unwrap();
        assert!(
            live.len() <= cfg.active_auctions as usize,
            "closed auctions are removed from state: {}",
            live.len()
        );
        job.stop();
    }

    /// Crash/recover invariants for q6. Results of the two-stream join are
    /// interleaving-dependent (the paper's §VII notes nondeterministic
    /// computations can diverge after recovery), so instead of byte-equality
    /// with a golden run we check the invariants that must hold under any
    /// interleaving: recovery restores a committed snapshot, processing
    /// resumes, and after a final barrier the live and snapshot views agree
    /// and every window stays within bounds.
    #[test]
    fn crash_and_recover_preserves_q6_invariants() {
        let config = SQueryConfig::default().with_state(StateConfig::live_and_snapshot());
        let system = SQuery::new(config).unwrap();
        let mut job = system.submit(q6_job(small_cfg(), 1, 2)).unwrap();
        job.wait_for_sink_count(200, Duration::from_secs(30))
            .unwrap();
        let mid = job.checkpoint_now().unwrap();
        job.crash();
        // While crashed, nothing processes: the snapshot at `mid` is what
        // recovery will restore. (Right after recover() the sources resume
        // immediately, so the rolled-back live view is only observable in a
        // gated setup — the core crate's Figure 5 test covers that.)
        let (mut snap_mid, _) = system
            .grid()
            .get_snapshot_store("average")
            .unwrap()
            .scan_at(mid)
            .unwrap();
        snap_mid.sort();
        job.recover().unwrap();

        // Processing resumes and completes.
        let end = job.drain_and_checkpoint(Duration::from_secs(30)).unwrap();
        assert!(end > mid);
        let mut live_end = system.grid().get_map("average").unwrap().entries();
        let (mut snap_end, _) = system
            .grid()
            .get_snapshot_store("average")
            .unwrap()
            .scan_at(end)
            .unwrap();
        live_end.sort();
        snap_end.sort();
        assert_eq!(live_end, snap_end, "final barrier: views agree");
        assert!(live_end.len() >= snap_mid.len(), "state kept growing");
        for (_k, v) in &live_end {
            let count = v
                .as_struct()
                .unwrap()
                .field("count")
                .unwrap()
                .as_int()
                .unwrap();
            assert!((1..=LAST_N_AUCTIONS as i64).contains(&count));
        }
        job.stop();
    }
}
