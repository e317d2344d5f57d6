//! End-to-end and per-layer benchmark of S-QUERY on the paper's q-commerce
//! order-monitoring job.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload query|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run drives the real `order_monitoring_job` through the public
//! `SQuery`, `JobHandle` and `DirectQuery` facade: 100 000 orders, 5 000
//! riders, operator and source parallelism 1, one client thread, query DOP
//! at most 2. No state is written behind the job's back. The last line of
//! standard output is one JSON object with the fields `correct`,
//! `attempted`, `failed` and `metrics`. The lines before it give every
//! figure with its unit and sample count, raw and at reference speed. With
//! `--trace 0` the JSON holds the end-to-end metrics at reference speed,
//! timed with no spans recorded. With `--trace 1` it holds the per-layer
//! metrics of a separate traced run. That run's span cost is reported on
//! its own, as `trace.overhead_pct`.
//!
//! # Host speed
//!
//! The host's speed drifts by up to half over minutes, as other tenants
//! load the hardware it shares, and a longer run does not average that away.
//! So the client thread times a fixed reference pass of the benchmark's own
//! code (`host.rs`) every quarter second through the run: while a prefill
//! drains, between open-loop waits, and before every commit, query and
//! cold start, never inside a burst of reads. Every timed sample is scaled
//! by the reference's speed within ten seconds of it: times divided, and
//! `ingest_evps` multiplied, by the slowdown against the fixed reference
//! pass time. The raw figures are printed beside the scaled ones. Only
//! `peak_rss_mb` is not a time and is reported as measured, less the
//! reference's own table.
//!
//! # Phases
//!
//! * **Set-up** (`setup_s`, `ingest_evps`): the workload's deployment is
//!   built twice, each time fresh and with its own WAL directory; the first
//!   build is dropped and the second serves the rest of the run. In each
//!   build the job's sources first emit one unpaced pass over every key
//!   space, the fixed input: 100 000 order-info events, 800 000
//!   order-status events and 5 000 rider pings. `ingest_evps` is those
//!   events over the wall time from submitting the job until the last key
//!   of every operator is in its live state. `setup_s` runs from
//!   `SQuery::new` until the first checkpoint after the pass has committed.
//!   Both are medians over the builds. The sources then run open loop at
//!   the workload's fixed offered rate; the prefill pass is never inside a
//!   latency window. Snapshots go to the write-ahead log under the `Never`
//!   fsync policy: durable against process kills, not power loss, so device
//!   flush latency stays out of every figure.
//! * **Gate**: row counts and Queries 1–4 on the set-up's committed
//!   snapshot are checked against the oracle.
//! * **Open loop**: checkpoints are triggered on the workload's fixed
//!   cadence, so the number of rounds is fixed. Event latency is taken from
//!   each event's scheduled time, so stalls are charged. Each checkpoint
//!   interval (a commit and the time until the next tick) gives its p50 and
//!   p99; the 1 s before the first tick is the discarded warm-up.
//!   `event_p50_ms` and `event_p99_ms` are the means of the interval p50s
//!   and p99s without the highest and the lowest (the median of three). A
//!   mean resolves shifts smaller than one histogram sub-bucket (about
//!   3 %), and the intervals differ by design (a commit that folds the WAL,
//!   a costlier query before it), so a plain median jumps between intervals
//!   from seed to seed; dropping the extremes keeps one interval that a
//!   slow spell of the host backlogged from moving the figure. The p99 of
//!   the whole window is set by its one or two longest stalls and swings
//!   from run to run, so it is printed but not gated. A run fails when the
//!   achieved rate falls more than 5 % below the offered rate.
//! * **Quiescent rounds**: the job is resubmitted from its last snapshot
//!   over an exhausted input, so nothing is ingested. Each round commits a
//!   fresh snapshot and runs a cold paper query on it (the first query
//!   after a commit). Every round ends with one cold start (`recovery_s`):
//!   `SQuery::new` on a copy of the WAL taken before the rounds, checked to
//!   recover the copied snapshot. The cold starts are thus spread over the
//!   rounds and not bunched into a few seconds.
//!
//! `direct_p99_us` is the median, over blocks of 1 000 consecutive reads
//! (a `query` round's reads), of each block's p99: the first reads after a
//! query find cold caches and bunch near the pooled p99 rank, which made a
//! pooled p99 jump between two levels from run to run.
//!
//! The first sample of every repeated measurement is discarded as warm-up.
//! The first cold query at each DOP is Query 1, the warm-up; the kept ones
//! are whole seeded permutations of Queries 1–4, so every run times the
//! same multiset of queries and the seed only changes their order. Every
//! query, read, count and replay is checked against the closed-form oracle
//! (`oracle.rs`). Failed operations are an `Err`, an oracle mismatch, an
//! aborted checkpoint, or an offered rate not sustained. Any failed
//! operation fails the run. ROADMAP item numbers below refer to the
//! repository's ROADMAP.md.
//!
//! # Workloads
//!
//! * **`query`**: full snapshots. The open loop runs at 30 000 ev/s with a
//!   3 s cadence and no query. The quiescent rounds take most of the
//!   window: cold at DOP 1 and at DOP 2 in turn, each repeated warm (the
//!   same query at DOP 1 on the same snapshot), then `SELECT * … LIMIT 2`,
//!   1 000 100-key `get_many` reads and a cold start from the set-up's one
//!   full snapshot. `checkpoint_p50_ms` here is
//!   a quiesced full-snapshot commit, written through to the WAL. The WAL
//!   keeps every round uncompacted: folding a full snapshot takes seconds,
//!   and would otherwise land on every fourth commit. This workload
//!   exercises SQL, snapshot scan and read, the executor cache, direct
//!   reads and WAL recovery (items 3 and 4). Its queries bypass the
//!   streaming write path, so asynchronous capture (item 5) should read "no
//!   change" on its `query_*` and `direct_*` figures. Its open loop
//!   exercises full-snapshot capture, the WAL and the registry under load
//!   (items 4 and 5) with SQL bypassed, so an executor change should read
//!   "no change" on its `ingest_evps` and `event_*`.
//! * **`mixed`**: incremental snapshots. The open loop runs at
//!   30 000 ev/s with a 2 s cadence. After each commit the one client thread
//!   runs one of Queries 1–4 cold at DOP 1 on it, repeats it warm, then
//!   issues paced `get_many` reads until the next tick. Commit and queries
//!   take about half of a tick, so the pipeline catches up before each
//!   commit and a slow tick does not push the later ones into saturation.
//!   The quiescent rounds that follow each run one cold DOP 2 query,
//!   `SELECT * … LIMIT 2` and a cold start from the WAL as the open loop
//!   left it (a base folded with its incremental deltas). At DOP 2 a query
//!   takes both vCPUs and starves the pipeline, which made every figure
//!   swing run to run when it ran under ingest. This is the only workload
//!   that reads through the incremental delta-merge path, logs incremental
//!   snapshots under load (the write half of item 4), and shares the
//!   machine between writes and reads. A gain for one side that costs the
//!   other shows on its `event_*`, `checkpoint_p50_ms`,
//!   `query_cold_p50_ms`, `query_warm_p50_ms` and `direct_*`.
//!
//! The rates and cadences are fixed constants, never calibrated per run.
//! 30 000 ev/s is about a sixth of the unpaced capacity of a 2-vCPU host:
//! with full snapshots written through to the WAL, 60 000 ev/s saturated
//! the pipeline on a slow run. A full-snapshot commit stalls the pipeline
//! for a third of a second or more and then writes the snapshot to the WAL
//! beside it; `query`'s 3 s cadence keeps the events delayed by a commit
//! well below half of each interval, so `event_p50_ms` stays clear of the
//! stalls even when the host runs slow (at 1.5 and 2 s, a slow run's
//! median event waited out the stall).
//!
//! # Tracing
//!
//! Tracing (`--trace 1`) re-runs the same workload with spans around the
//! benchmark's calls into each layer, so its end-to-end figures are not
//! reported. After the rounds it probes the SQL layer and replays the last
//! committed state through the storage layers' public write and read
//! functions, each into a fresh store, and checks that every replay
//! touches exactly the committed key count. `trace.overhead_pct` is the
//! cost of a span at its densest call site: the same batches of `get_many`
//! reads alternately with spans off and on, medians compared. It is
//! measured inside the traced run because the traced and untraced runs
//! are separate processes, whose end-to-end times differ by more through
//! host load than through spans; it may come out slightly negative.

use squery::{FsyncMode, JobHandle, SQuery, SQueryConfig, StateConfig, StateView};
use squery_common::metrics::Histogram;
use squery_common::{PartitionId, Partitioner, SnapshotId, Value};
use squery_perfbench::host::Reference;
use squery_perfbench::oracle::Oracle;
use squery_perfbench::stats::{
    block_percentile, discard_warmup, failed_share, hist_percentile, median, trimmed_mean, Series,
};
use squery_perfbench::trace::Tracer;
use squery_qcommerce::{
    order_monitoring_job, QCommerceConfig, OPERATOR_ORDER_INFO, OPERATOR_ORDER_STATE,
    OPERATOR_RIDER, QUERY_1, QUERY_2, QUERY_3, QUERY_4,
};
use squery_storage::{IMap, SnapshotRegistry, SnapshotStore, WalManager};
use squery_streaming::runtime::OFFSETS_STORE;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Distinct orders in the state (rows of each order table).
const ORDERS: u64 = 100_000;
/// Distinct riders.
const RIDERS: u64 = 5_000;
/// Events in the unpaced prefill pass: one per order, eight status slots
/// per order, one ping per rider.
const PREFILL_EVENTS: u64 = ORDERS + 8 * ORDERS + RIDERS;

/// State builds per run, each in a fresh deployment; `setup_s` and
/// `ingest_evps` are medians over them.
const SETUP_BUILDS: usize = 2;
/// Reference passes timed before each state build, while no deployment
/// runs (the drain that follows is sampled at the usual pace).
const IDLE_PASSES: usize = 8;
/// Sealed rounds a WAL segment may hold before compaction rewrites it, in
/// `query`: more than a run commits, so no full-snapshot commit in its
/// window compacts (folding a full snapshot takes seconds).
const QUERY_WAL_RETENTION: usize = 1_000;
/// Offered events per second per source in the open loops (three sources).
const RATE_PER_SOURCE: f64 = 10_000.0;
/// The open loop's first, discarded interval, before its first tick.
const OPEN_WARMUP: Duration = Duration::from_secs(1);
/// Largest shortfall of achieved against offered rate a run may show.
const RATE_MARGIN: f64 = 0.05;
/// Budgeted wall time of one quiescent `query` round and of one `mixed`
/// tail round: the round counts are fixed from `--seconds` with them, never
/// by a clock.
const QUERY_ROUND: Duration = Duration::from_millis(2200);
const TAIL_ROUND: Duration = Duration::from_millis(2200);
/// Part of the `mixed` window spent in its quiescent tail.
const MIXED_TAIL: Duration = Duration::from_secs(11);
/// Keys per `get_many` call.
const READ_KEYS: usize = 100;
/// `get_many` calls per quiescent `query` round.
const READS_PER_ROUND: usize = 1000;
/// Pause between paced `get_many` calls in `mixed`.
const READ_PACE: Duration = Duration::from_millis(2);
/// Fewest `get_many` calls after each `mixed` tick's query set.
const READS_PER_TICK: usize = 80;
/// The order-status source instance whose offset fixes the state.
const STATUS_SOURCE: &str = "orderstatus_events#0";
const LIMIT_QUERY: &str = "SELECT * FROM snapshot_orderinfo LIMIT 2";
const QUERIES: [&str; 4] = [QUERY_1, QUERY_2, QUERY_3, QUERY_4];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Query,
    Mixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "query" => Some(Workload::Query),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Query => "query",
            Workload::Mixed => "mixed",
        }
    }

    /// Checkpoint cadence of the open loop: as short as keeps the events a
    /// commit delays, and in `mixed` its queries, well under half of each
    /// tick, so the pipeline catches up before the next commit (see the
    /// module docs).
    fn cadence(self) -> Duration {
        match self {
            Workload::Query => Duration::from_millis(3000),
            Workload::Mixed => Duration::from_millis(2000),
        }
    }

    /// How a measured window of `window` is spent: open-loop ticks, then
    /// quiescent rounds. The cold queries of each DOP come to one discarded
    /// warm-up plus whole seeded permutations of Queries 1–4 (see
    /// [`rotation`]), so every run times the same multiset of queries.
    fn plan(self, window: Duration) -> (u32, usize) {
        let cadence = self.cadence().as_secs_f64();
        // A warm-up plus whole permutations, from a budget of `n` of them.
        let perms = |n: f64| 1 + 4 * ((n - 1.0) / 4.0).round().max(1.0) as usize;
        match self {
            Workload::Query => {
                let ticks = (window.as_secs_f64() * 0.3 / cadence).max(2.0) as u32;
                let rest = window.as_secs_f64() - ticks as f64 * cadence;
                (ticks, 2 * perms(rest / QUERY_ROUND.as_secs_f64() / 2.0))
            }
            Workload::Mixed => {
                let open = window.saturating_sub(MIXED_TAIL).as_secs_f64();
                let tail = MIXED_TAIL.as_secs_f64() / TAIL_ROUND.as_secs_f64();
                (perms(open / cadence) as u32, perms(tail))
            }
        }
    }

    /// The deployment's configuration: snapshots logged to the WAL in
    /// `wal` under the `Never` fsync policy.
    fn config(self, wal: &Path) -> SQueryConfig {
        let config = SQueryConfig::default_config()
            .with_state(StateConfig::live_and_snapshot())
            .with_wal_dir(wal)
            .with_fsync(FsyncMode::Never);
        match self {
            Workload::Query => config.with_wal_retention(QUERY_WAL_RETENTION),
            Workload::Mixed => config.incremental(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("no workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s >= 10)
            .ok_or("--seconds of at least 10 is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64: the seeded source of key samples and query rotations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Attempted and failed operations, with the first failure reasons.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ops {
    /// Count one operation; `Err` counts it failed.
    fn check(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 20 {
                    self.failures.push(format!("{what}: {e}"));
                }
                false
            }
        }
    }
}

/// Event latency over a whole open loop, in ms (printed, not gated).
struct EventLatency {
    /// p99 over every event of the window.
    p99_all: f64,
    count: u64,
}

/// Everything one run accumulates.
struct Run {
    args: Args,
    started: Instant,
    dir: PathBuf,
    rng: Rng,
    /// The current query order at DOP 1 and at DOP 2, and the draws made
    /// from each (see [`rotation`]).
    perm: [[u8; 4]; 2],
    turns: [usize; 2],
    ops: Ops,
    tracer: Tracer,
    /// End-to-end samples by series name, raw, and when each was taken
    /// (s since `started`, the middle of what it timed).
    series: BTreeMap<&'static str, Series>,
    times: BTreeMap<&'static str, Vec<f64>>,
    /// The host-speed reference, paced through the run.
    reference: Reference,
    events: Option<EventLatency>,
    /// Source lag behind its schedule (ms), sampled through the open loop.
    lag_ms: Series,
    /// Phase split of the checkpoint rounds in `checkpoint_ms`.
    phase1_ms: Series,
    phase2_ms: Series,
    per_layer: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Record one raw sample of `name`, taken from `since` until now.
    fn record(&mut self, name: &'static str, raw: f64, since: Instant) {
        let mid = (since.duration_since(self.started) + self.started.elapsed()) / 2;
        self.series.entry(name).or_default().push(raw);
        self.times.entry(name).or_default().push(mid.as_secs_f64());
    }

    /// The samples of `name` at reference speed (see `host.rs`): times
    /// divided, and `ingest_evps` multiplied, by the host's slowdown when
    /// each was taken.
    fn at_reference_speed(&self, name: &str) -> Vec<f64> {
        let (Some(series), Some(times)) = (self.series.get(name), self.times.get(name)) else {
            return Vec::new();
        };
        series
            .samples()
            .iter()
            .zip(times)
            .map(|(&v, &t)| {
                let slowdown = self.reference.slowdown_at(t).unwrap_or(1.0);
                if name == "ingest_evps" {
                    v * slowdown
                } else {
                    v / slowdown
                }
            })
            .collect()
    }

    fn phase(&self, name: &str) {
        println!("[{:7.2} s] {name}", self.started.elapsed().as_secs_f64());
    }
}

/// The job's input: `rate` per source after `prefill` unpaced passes, or
/// an input of `events` per source when unpaced.
fn job(rate: Option<f64>, prefill: u32, events: u64) -> squery::JobSpec {
    let cfg = QCommerceConfig {
        orders: ORDERS,
        riders: RIDERS,
        events_per_instance: events,
        rate_per_instance: rate,
        prefill_passes: prefill,
    };
    order_monitoring_job(cfg, 1, 1)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".perfbench").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let started = Instant::now();
    let mut run = Run {
        rng: Rng(args.seed ^ 0x5155_4552_5942_4e43),
        perm: [[1, 2, 3, 4]; 2],
        turns: [0; 2],
        tracer: Tracer::new(args.trace),
        args,
        started,
        dir,
        ops: Ops::default(),
        series: BTreeMap::new(),
        times: BTreeMap::new(),
        reference: Reference::new(started),
        events: None,
        lag_ms: Series::new(),
        phase1_ms: Series::new(),
        phase2_ms: Series::new(),
        per_layer: BTreeMap::new(),
    };
    let outcome = execute(&mut run);
    let _ = std::fs::remove_dir_all(&run.dir);
    // Only when empty: another run may be using it.
    let _ = std::fs::remove_dir(".perfbench");
    if let Err(e) = outcome {
        eprintln!("perfbench: run aborted: {e}");
        std::process::exit(1);
    }
    report(&run);
    if run.ops.failed > 0 {
        std::process::exit(1);
    }
}

fn execute(run: &mut Run) -> Result<(), String> {
    let workload = run.args.workload;
    let window = Duration::from_secs(run.args.seconds);
    let (ticks, rounds) = workload.plan(window);
    let offered = 3.0 * RATE_PER_SOURCE;
    run.phase("set-up");
    let (system, mut streaming, first, wal) = set_up(run)?;
    run.phase("gate");
    gate(run, &system, first);
    // The cold starts recover a copy of the WAL: in `query` the state as
    // set up, in `mixed` the log of its open loop.
    let recovery = run.dir.join("recovery");
    let copy = |want| {
        copy_dir(&wal, &recovery)
            .map(|()| (recovery.clone(), want))
            .map_err(|e| format!("copying the WAL: {e}"))
    };
    let mut cold_starts = None;
    if workload == Workload::Query {
        cold_starts = Some(copy(first)?);
    }
    run.phase("open loop");
    let mixed = workload == Workload::Mixed;
    let last = open_loop(run, &system, &mut streaming, offered, ticks, mixed);
    streaming.stop();
    let last = last?;
    let cold_starts = match cold_starts {
        Some(c) => c,
        None => copy(last)?,
    };
    let quiet = quiesce(&system)?;
    run.phase("quiescent rounds");
    // In `mixed`, DOP 2 and LIMIT run here, with ingest stopped: at DOP 2 a
    // query takes both vCPUs and starves the pipeline, and with it every
    // figure swung run to run.
    let set = if mixed {
        QuerySet::tail
    } else {
        QuerySet::alternating
    };
    query_rounds(run, &system, &quiet, rounds, set, !mixed, &cold_starts);
    if run.args.trace {
        run.phase("layer probes");
        layer_probes(run, &system, &quiet);
    }
    quiet.stop();
    run.phase("done");
    Ok(())
}

/// Build the workload's state [`SETUP_BUILDS`] times, each in a fresh
/// deployment with its own WAL directory, and keep the last one with its
/// first ssid and WAL directory. Each build is the job's unpaced prefill
/// pass, drained, then its first checkpoint. It gives one `setup_s` sample
/// (`SQuery::new` until that checkpoint has committed) and one
/// `ingest_evps` sample (the pass's events over the wall time from
/// submitting the job until the pass is drained). The job keeps running
/// open loop at the workload's offered rate.
fn set_up(run: &mut Run) -> Result<(SQuery, JobHandle, SnapshotId, PathBuf), String> {
    let mut built: Option<(SQuery, JobHandle, SnapshotId, PathBuf)> = None;
    for i in 0..SETUP_BUILDS {
        if let Some((system, job, _, wal)) = built.take() {
            job.stop();
            drop(system);
            let _ = std::fs::remove_dir_all(wal);
        }
        // Reference passes while no deployment runs (see `host.rs`).
        for _ in 0..IDLE_PASSES {
            run.reference.pass();
        }
        let wal = run.dir.join(format!("wal{i}"));
        let start = Instant::now();
        let config = run.args.workload.config(&wal);
        let system = SQuery::new(config).map_err(|e| e.to_string())?;
        let submitted = Instant::now();
        let job = system
            .submit(job(Some(RATE_PER_SOURCE), 1, 0))
            .map_err(|e| e.to_string())?;
        let evps = drain_prefill(&mut run.reference, &system, &job, submitted)?;
        run.record("ingest_evps", evps, submitted);
        let (ssid, _) = checkpoint(run, &job).ok_or("the set-up checkpoint failed")?;
        run.record("setup_s", start.elapsed().as_secs_f64(), start);
        built = Some((system, job, ssid, wal));
    }
    built.ok_or_else(|| "no state build".to_string())
}

/// The same state served with no ingest: the job resubmitted from the last
/// committed snapshot over an exhausted input.
fn quiesce(system: &SQuery) -> Result<JobHandle, String> {
    system
        .submit_recovered(job(None, 0, 1))
        .map_err(|e| e.to_string())
}

/// Wait until the unpaced prefill pass has drained; returns the pass's
/// events per second.
///
/// Each source emits its key space in order, so the pass has been ingested
/// once the last key of every operator shows up in the live state.
fn drain_prefill(
    reference: &mut Reference,
    system: &SQuery,
    job: &JobHandle,
    start: Instant,
) -> Result<f64, String> {
    let direct = system.direct();
    let last_keys = [
        (OPERATOR_ORDER_INFO, ORDERS - 1),
        (OPERATOR_ORDER_STATE, ORDERS - 1),
        (OPERATOR_RIDER, RIDERS - 1),
    ];
    loop {
        reference.pace();
        std::thread::sleep(Duration::from_millis(5));
        let drained = last_keys.iter().all(|&(op, key)| {
            matches!(
                direct.get(op, &Value::Int(key as i64), StateView::Live),
                Ok(Some(_))
            )
        });
        if drained {
            return Ok(PREFILL_EVENTS as f64 / start.elapsed().as_secs_f64());
        }
        if let Some(f) = job.worker_failure() {
            return Err(format!("worker died during prefill: {f}"));
        }
        if start.elapsed() > Duration::from_secs(120) {
            return Err("prefill did not drain within 120 s".into());
        }
    }
}

/// Commit a checkpoint, counting it; returns the ssid and its wall time.
fn checkpoint(run: &mut Run, job: &JobHandle) -> Option<(SnapshotId, f64)> {
    let t = Instant::now();
    let committed = job.checkpoint_now();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match committed {
        Ok(ssid) => {
            run.ops.check("checkpoint", Ok(()));
            Some((ssid, ms))
        }
        Err(e) => {
            run.ops.check("checkpoint", Err(e.to_string()));
            None
        }
    }
}

/// Count aborted rounds since `aborted_before` as failed, and record the
/// phase split of every round after the first `skip` records.
fn account_rounds(run: &mut Run, job: &JobHandle, skip: usize, aborted_before: u64) {
    let stats = job.checkpoint_stats();
    for _ in aborted_before..stats.aborted() {
        run.ops.check("checkpoint round", Err("aborted".into()));
    }
    for r in stats.records().iter().skip(skip) {
        run.phase1_ms.push(r.phase1_us as f64 / 1e3);
        run.phase2_ms.push((r.total_us - r.phase1_us) as f64 / 1e3);
    }
}

/// The open loop: `ticks` checkpoints on the cadence, and with `queries` a
/// cold and a warm DOP 1 query plus paced reads after each. Each checkpoint
/// opens one latency interval that lasts until the next tick; the interval
/// before the first tick is the discarded warm-up. Returns the last
/// committed ssid.
fn open_loop(
    run: &mut Run,
    system: &SQuery,
    job: &mut JobHandle,
    offered: f64,
    ticks: u32,
    queries: bool,
) -> Result<SnapshotId, String> {
    let skip = job.checkpoint_stats().records().len();
    let aborted_before = job.checkpoint_stats().aborted();
    job.reset_latency();
    let start = Instant::now();
    let c0 = job.source_count();
    let mut last = None;
    let mut all = Histogram::new();
    let mut opened = start;
    for tick in 1..=ticks + 1 {
        let due = start + OPEN_WARMUP + run.args.workload.cadence() * (tick - 1);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let behind = offered * (now - start).as_secs_f64() - (job.source_count() - c0) as f64;
            run.lag_ms.push((behind / offered * 1e3).max(0.0));
            if !queries {
                run.reference.pace();
            }
            match last {
                Some(ssid) if queries => {
                    direct_reads(run, system, ssid, 1);
                    std::thread::sleep(
                        READ_PACE.min(due.saturating_duration_since(Instant::now())),
                    );
                }
                _ => std::thread::sleep(Duration::from_millis(20).min(due - now)),
            }
        }
        let interval = job.latency();
        job.reset_latency();
        if tick > 1 {
            all.merge(&interval);
            for (name, q) in [("event_p50_ms", 0.5), ("event_p99_ms", 0.99)] {
                if let Some(us) = hist_percentile(&interval, q) {
                    run.record(name, us / 1e3, opened);
                }
            }
        }
        opened = Instant::now();
        if tick > ticks {
            break;
        }
        run.reference.pace();
        if let Some((ssid, ms)) = checkpoint(run, job) {
            last = Some(ssid);
            if queries {
                run.record("checkpoint_ms", ms, opened);
                let set = QuerySet {
                    dop: 1,
                    warm: true,
                    limit: false,
                    reads: 0,
                    cold_start: false,
                };
                query_set(run, system, ssid, set);
                direct_reads(run, system, ssid, READS_PER_TICK);
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let achieved = (job.source_count() - c0) as f64 / elapsed;
    // Only the checkpoints reported as `checkpoint_ms` give the phase split.
    let skip = if queries { skip } else { usize::MAX };
    account_rounds(run, job, skip, aborted_before);
    println!(
        "  open loop: offered {offered:.0} ev/s, achieved {achieved:.0} ev/s over {elapsed:.2} s, \
         {ticks} cadence checkpoints"
    );
    let sustained = if achieved >= offered * (1.0 - RATE_MARGIN) {
        Ok(())
    } else {
        Err(format!(
            "achieved {achieved:.0} ev/s, offered {offered:.0} ev/s"
        ))
    };
    run.ops.check("offered rate sustained", sustained);
    if let Some(p99_all) = hist_percentile(&all, 0.99) {
        run.events = Some(EventLatency {
            p99_all: p99_all / 1e3,
            count: all.count(),
        });
    }
    last.ok_or_else(|| "no checkpoint committed in the open loop".to_string())
}

/// `rounds` quiescent rounds: a fresh commit, then `set(round)` on it.
/// With `commits`, the commits are the run's `checkpoint_ms` samples.
fn query_rounds(
    run: &mut Run,
    system: &SQuery,
    job: &JobHandle,
    rounds: usize,
    set: fn(usize) -> QuerySet,
    commits: bool,
    (wal, want): &(PathBuf, SnapshotId),
) {
    let skip = job.checkpoint_stats().records().len();
    let aborted_before = job.checkpoint_stats().aborted();
    for round in 0..rounds {
        let set = set(round);
        run.reference.pace();
        let t = Instant::now();
        if let Some((ssid, ms)) = checkpoint(run, job) {
            if commits {
                run.record("checkpoint_ms", ms, t);
            }
            query_set(run, system, ssid, set);
            direct_reads(run, system, ssid, set.reads);
        }
        if set.cold_start {
            cold_start(run, wal, *want, round == 0);
        }
    }
    let skip = if commits { skip } else { usize::MAX };
    account_rounds(run, job, skip, aborted_before);
}

/// What runs on one fresh commit: one paper query cold at `dop`, then
/// optionally the same query warm at DOP 1, `SELECT * … LIMIT 2`, `reads`
/// `get_many` calls, and a cold start.
#[derive(Clone, Copy)]
struct QuerySet {
    dop: usize,
    warm: bool,
    limit: bool,
    reads: usize,
    cold_start: bool,
}

impl QuerySet {
    /// Round `round` of the `query` workload: cold at DOP 1 and 2 in turn,
    /// then the warm repeat, LIMIT, reads and a cold start.
    fn alternating(round: usize) -> QuerySet {
        QuerySet {
            dop: if round.is_multiple_of(2) { 1 } else { 2 },
            warm: true,
            limit: true,
            reads: READS_PER_ROUND,
            cold_start: true,
        }
    }

    /// A round of the `mixed` tail: cold at DOP 2, LIMIT and a cold start.
    fn tail(_round: usize) -> QuerySet {
        QuerySet {
            dop: 2,
            warm: false,
            limit: true,
            reads: 0,
            cold_start: true,
        }
    }
}

fn query_set(run: &mut Run, system: &SQuery, ssid: SnapshotId, set: QuerySet) {
    let q = rotation(run, set.dop);
    let cold = if set.dop == 1 {
        "query_cold_ms"
    } else {
        "query_dop2_ms"
    };
    run.reference.pace();
    if paper_query(run, system, ssid, q, set.dop, cold) && set.warm {
        run.reference.pace();
        paper_query(run, system, ssid, q, 1, "query_warm_ms");
    }
    if set.limit {
        run.reference.pace();
        let t = Instant::now();
        let result = system.query_with_dop(LIMIT_QUERY, 1);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let outcome = match result {
            Err(e) => Err(e.to_string()),
            Ok(rs) if rs.len() == 2 => Ok(()),
            Ok(rs) => Err(format!("LIMIT 2 returned {} rows", rs.len())),
        };
        if run.ops.check("LIMIT query", outcome) {
            run.record("query_limit_ms", ms, t);
        }
    }
}

/// The paper query the next cold run at `dop` uses. The first draw of each
/// DOP is Query 1, the discarded warm-up; after it each DOP draws from its
/// own seeded permutation of 1–4, reshuffled every four draws, so every
/// query runs equally often at each DOP.
fn rotation(run: &mut Run, dop: usize) -> u8 {
    let turn = run.turns[dop - 1];
    run.turns[dop - 1] += 1;
    if turn == 0 {
        return 1;
    }
    let slot = (turn - 1) % 4;
    if slot == 0 {
        let perm = &mut run.perm[dop - 1];
        for i in (1..4).rev() {
            let j = run.rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
    }
    run.perm[dop - 1][slot]
}

/// Run paper query `q` at `dop` on the latest snapshot, which is `ssid`
/// (only the benchmark commits). Checks it against the oracle and records
/// its wall time under `series` when correct.
fn paper_query(
    run: &mut Run,
    system: &SQuery,
    ssid: SnapshotId,
    q: u8,
    dop: usize,
    series: &'static str,
) -> bool {
    let t = Instant::now();
    let result = system.query_with_dop(QUERIES[q as usize - 1], dop);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = check_query(system, ssid, q, result);
    let ok = run.ops.check("paper query", outcome);
    if ok {
        run.record(series, ms, t);
    }
    ok
}

fn check_query(
    system: &SQuery,
    ssid: SnapshotId,
    q: u8,
    result: squery_common::SqResult<squery::ResultSet>,
) -> Result<(), String> {
    let rs = result.map_err(|e| e.to_string())?;
    let expected = oracle_at(system, ssid)?.query(q);
    let group = if q == 2 {
        "vendorCategory"
    } else {
        "deliveryZone"
    };
    let counts = rs.column("COUNT(*)").unwrap_or_default();
    let groups = rs.column(group).unwrap_or_default();
    let got: BTreeMap<String, i64> = groups
        .iter()
        .zip(counts)
        .map(|(g, c)| {
            (
                g.as_str().unwrap_or("?").to_string(),
                c.as_int().unwrap_or(-1),
            )
        })
        .collect();
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "Q{q} on {ssid:?}: got {got:?}, expected {expected:?}"
        ))
    }
}

/// `calls` checked 100-key `get_many` reads of `orderstate` at `ssid`.
fn direct_reads(run: &mut Run, system: &SQuery, ssid: SnapshotId, calls: usize) {
    let oracle = match oracle_at(system, ssid) {
        Ok(o) => o,
        Err(e) => {
            run.ops.check("offset read", Err(e));
            return;
        }
    };
    let direct = system.direct();
    for _ in 0..calls {
        let orders: Vec<u64> = (0..READ_KEYS).map(|_| run.rng.below(ORDERS)).collect();
        let keys: Vec<Value> = orders.iter().map(|&o| Value::Int(o as i64)).collect();
        let t = Instant::now();
        let result = run
            .tracer
            .span("core.direct.get_many", READ_KEYS as u64, || {
                direct.get_many(OPERATOR_ORDER_STATE, &keys, StateView::Snapshot(ssid))
            });
        let us = t.elapsed().as_secs_f64() * 1e6;
        let outcome = match result {
            Err(e) => Err(e.to_string()),
            Ok(values) => orders
                .iter()
                .zip(&values)
                .find(|(&o, (_, v))| v.as_ref() != Some(&oracle.status_value(o)))
                .map_or(Ok(()), |(o, (_, v))| Err(format!("order {o}: got {v:?}"))),
        };
        if run.ops.check("get_many", outcome) {
            run.record("direct_us", us, t);
        }
    }
}

/// The oracle for committed snapshot `ssid`, from the status source's
/// offset recorded in that snapshot.
fn oracle_at(system: &SQuery, ssid: SnapshotId) -> Result<Oracle, String> {
    let offset = system
        .direct()
        .get(
            OFFSETS_STORE,
            &Value::str(STATUS_SOURCE),
            StateView::Snapshot(ssid),
        )
        .map_err(|e| e.to_string())?
        .and_then(|v| v.as_int())
        .ok_or_else(|| format!("no status offset at {ssid:?}"))?;
    Oracle::at_offset(ORDERS, offset as u64)
}

/// `COUNT(*)` of `table` at the latest snapshot, checked against `want`.
fn count_rows(system: &SQuery, table: &str, want: u64) -> Result<(), String> {
    let rs = system
        .query(&format!("SELECT COUNT(*) FROM {table}"))
        .map_err(|e| e.to_string())?;
    match rs.rows().first().and_then(|r| r[0].as_int()) {
        Some(n) if n == want as i64 => Ok(()),
        Some(n) => Err(format!("{table} has {n} rows, expected {want}")),
        None => Err(format!("COUNT(*) of {table} returned no row")),
    }
}

/// Correctness gate on the latest snapshot `ssid`: row counts and
/// Queries 1–4 against the oracle. Untimed.
fn gate(run: &mut Run, system: &SQuery, ssid: SnapshotId) {
    for (table, want) in [
        ("snapshot_orderinfo", ORDERS),
        ("snapshot_orderstate", ORDERS),
        ("snapshot_riderlocation", RIDERS),
    ] {
        run.ops.check("row count", count_rows(system, table, want));
    }
    for q in 1..=4u8 {
        let outcome = check_query(system, ssid, q, system.query(QUERIES[q as usize - 1]));
        run.ops.check("gate query", outcome);
    }
}

/// One `recovery_s` sample: a deployment rebuilt from the WAL copy in
/// `wal`, which must recover `want`; with `count`, its row count is
/// checked too (untimed).
fn cold_start(run: &mut Run, wal: &Path, want: SnapshotId, count: bool) {
    run.reference.pace();
    let config = run.args.workload.config(wal);
    let start = Instant::now();
    let system = SQuery::new(config);
    let secs = start.elapsed().as_secs_f64();
    let outcome = match &system {
        Err(e) => Err(e.to_string()),
        Ok(s) if s.latest_snapshot() != Some(want) => Err(format!(
            "recovered {:?}, expected {want:?}",
            s.latest_snapshot()
        )),
        Ok(_) => Ok(()),
    };
    if run.ops.check("cold start", outcome) {
        run.record("recovery_s", secs, start);
    }
    if let (true, Ok(s)) = (count, &system) {
        let outcome = count_rows(s, "snapshot_orderstate", ORDERS);
        run.ops.check("recovered row count", outcome);
    }
}

/// Copy directory `from` to `to`, recursively.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Per-layer probes of the traced run (see the module docs).
fn layer_probes(run: &mut Run, system: &SQuery, job: &JobHandle) {
    sql_probes(run, system, job);
    let Some(ssid) = system.latest_snapshot() else {
        run.ops
            .check("layer probes", Err("no committed snapshot".into()));
        return;
    };
    // Span cost on its densest site: the same reads with spans off and on,
    // alternating, medians compared.
    let keys: Vec<Value> = (0..READ_KEYS)
        .map(|_| Value::Int(run.rng.below(ORDERS) as i64))
        .collect();
    let direct = system.direct();
    let silent = Tracer::new(false);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for i in 0..41 {
        for (tracer, out) in [(&silent, &mut off), (&run.tracer, &mut on)] {
            let t = Instant::now();
            for _ in 0..50 {
                let r = tracer.span("trace.overhead.get_many", 0, || {
                    direct.get_many(OPERATOR_ORDER_STATE, &keys, StateView::Snapshot(ssid))
                });
                std::hint::black_box(r.ok());
            }
            if i > 0 {
                out.push(t.elapsed().as_secs_f64());
            }
        }
    }
    if let (Some(a), Some(b)) = (median(&off), median(&on)) {
        run.per_layer
            .insert("trace.overhead_pct", (b - a) / a * 100.0);
    }
    storage_replay(run, system, ssid);
}

fn sql_probes(run: &mut Run, system: &SQuery, job: &JobHandle) {
    let explain = format!("EXPLAIN {QUERY_1}");
    let mut plan = Vec::new();
    for _ in 0..11 {
        let t = Instant::now();
        let r = system.query(&explain);
        plan.push(t.elapsed().as_secs_f64() * 1e6);
        run.ops
            .check("EXPLAIN", r.map(|_| ()).map_err(|e| e.to_string()));
    }
    if let Some(m) = median(discard_warmup(&plan, 1)) {
        run.per_layer.insert("sql.plan_us", m);
    }
    let (mut cold, mut warm, mut join) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        // Two one-table scans, each cold then warm, on a fresh snapshot.
        if checkpoint(run, job).is_none() {
            continue;
        }
        let mut scans_ms = 0.0;
        for table in ["snapshot_orderinfo", "snapshot_orderstate"] {
            for pass in 0..2 {
                let t = Instant::now();
                let n = count_rows(system, table, ORDERS);
                let secs = t.elapsed().as_secs_f64();
                run.ops.check("probe scan", n);
                if pass == 0 {
                    cold.push(secs * 1e9 / ORDERS as f64);
                    scans_ms += secs * 1e3;
                } else {
                    warm.push(secs * 1e9 / ORDERS as f64);
                }
            }
        }
        // Cold Q1 on a second fresh snapshot, less the two cold scans.
        let Some((ssid, _)) = checkpoint(run, job) else {
            continue;
        };
        if paper_query(run, system, ssid, 1, 1, "probe_q1_ms") {
            let q1 = run.series["probe_q1_ms"]
                .samples()
                .last()
                .copied()
                .unwrap_or(0.0);
            join.push(q1 - scans_ms);
        }
    }
    for (name, v) in [
        ("sql.scan_cold_ns_per_row", &cold),
        ("sql.scan_warm_ns_per_row", &warm),
        ("sql.join_agg_cold_ms", &join),
    ] {
        if let Some(m) = median(v) {
            run.per_layer.insert(name, m);
        }
    }
}

/// Replay the committed state of all three operators through each storage
/// layer's public functions, into fresh stores.
fn storage_replay(run: &mut Run, system: &SQuery, ssid: SnapshotId) {
    let direct = system.direct();
    let mut state: Vec<(&str, Vec<(Value, Value)>)> = Vec::new();
    for op in [OPERATOR_ORDER_INFO, OPERATOR_ORDER_STATE, OPERATOR_RIDER] {
        match direct.scan(op, StateView::Snapshot(ssid)) {
            Ok(entries) => state.push((op, entries)),
            Err(e) => {
                run.ops.check("state scan", Err(e.to_string()));
                return;
            }
        }
    }
    let keys: u64 = state.iter().map(|(_, e)| e.len() as u64).sum();
    let committed = 2 * ORDERS + RIDERS;
    let touched = |what: &'static str, n: u64| -> (&'static str, Result<(), String>) {
        let ok = if n == committed {
            Ok(())
        } else {
            Err(format!("touched {n} of {committed} keys"))
        };
        (what, ok)
    };
    let mut checks = vec![touched("committed state", keys)];
    let partitioner = system.grid().partitioner();
    let parts = partitioner.partition_count();
    let tracer = &run.tracer;

    // storage.imap: live-map puts into fresh maps.
    let (mut puts, mut imap_bytes) = (0u64, 0usize);
    for (op, entries) in &state {
        let map = IMap::new(format!("replay_{op}"), partitioner);
        tracer.span("storage.imap.put", entries.len() as u64, || {
            for (k, v) in entries {
                map.put(k.clone(), v.clone());
            }
        });
        puts += map.len() as u64;
        imap_bytes += map.approximate_bytes();
    }
    checks.push(touched("imap put", puts));

    // storage.snapshot and storage.wal: one batch per partition into a
    // fresh store and a fresh log, then scans, point reads, seal, recovery.
    let wal_dir = run.dir.join("replay-wal");
    let wal = WalManager::new(&wal_dir, FsyncMode::Never, 4);
    let replay = SnapshotId(1);
    let (mut scanned, mut read, mut appended, mut snap_bytes) = (0u64, 0u64, 0u64, 0usize);
    for (op, entries) in &state {
        let batches = by_partition(&partitioner, entries);
        let store = SnapshotStore::new(op, partitioner);
        tracer.span(
            "storage.snapshot.write_partition",
            entries.len() as u64,
            || {
                for (pid, batch) in batches.iter().enumerate() {
                    store.write_partition(replay, PartitionId(pid as u32), batch.clone(), true);
                }
            },
        );
        snap_bytes += store.stats().approx_bytes;
        let log = wal.store_wal(op, parts as usize);
        tracer.span("storage.wal.append", entries.len() as u64, || {
            for (pid, batch) in batches.iter().enumerate() {
                if log.append(replay.0, pid as u32, true, batch).is_ok() {
                    appended += batch.len() as u64;
                }
            }
        });
        tracer.span(
            "storage.snapshot.scan_partition_at",
            entries.len() as u64,
            || {
                for pid in 0..parts {
                    scanned += store
                        .scan_partition_at(replay, PartitionId(pid))
                        .map_or(0, |v| v.len() as u64);
                }
            },
        );
        tracer.span("storage.snapshot.read_at", entries.len() as u64, || {
            for (k, v) in entries {
                if store.read_at(replay, k).ok().flatten().as_ref() == Some(v) {
                    read += 1;
                }
            }
        });
    }
    checks.push(touched("snapshot scan", scanned));
    checks.push(touched("snapshot read", read));
    checks.push(touched("wal append", appended));
    let sealed = tracer.span("storage.wal.seal_round", 1, || wal.seal_round(replay.0));
    checks.push(("wal seal", sealed.map_err(|e| e.to_string())));
    let wal_bytes: u64 = wal.store_stats().iter().map(|s| s.bytes).sum();
    drop(wal);
    let recovered = tracer.span("storage.wal.recover", keys, || {
        WalManager::new(&wal_dir, FsyncMode::Never, 4).recover(parts as usize)
    });
    match recovered {
        Ok(r) => {
            let n = r
                .stores
                .iter()
                .flat_map(|(_, s)| s.versions.iter())
                .map(|(_, _, _, e)| e.len() as u64)
                .sum();
            checks.push(touched("wal recover", n));
        }
        Err(e) => checks.push(("wal recover", Err(e.to_string()))),
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    // storage.registry: begin + commit on a fresh registry.
    let registry = SnapshotRegistry::new();
    let mut commit_us = Vec::new();
    for _ in 0..201 {
        let t = Instant::now();
        let ok = registry.begin().and_then(|s| registry.commit(s));
        commit_us.push(t.elapsed().as_secs_f64() * 1e6);
        checks.push(("registry commit", ok.map(|_| ()).map_err(|e| e.to_string())));
    }
    for (what, outcome) in checks {
        run.ops.check(what, outcome);
    }
    let ns_per_item = |name: &str| {
        let (ns, n) = run.tracer.total(name);
        ns as f64 / n.max(1) as f64
    };
    let layers = [
        (
            "storage.imap.put_ns_per_key",
            ns_per_item("storage.imap.put"),
        ),
        (
            "storage.imap.bytes_per_key",
            imap_bytes as f64 / keys as f64,
        ),
        (
            "storage.snapshot.write_ns_per_key",
            ns_per_item("storage.snapshot.write_partition"),
        ),
        (
            "storage.snapshot.scan_ns_per_row",
            ns_per_item("storage.snapshot.scan_partition_at"),
        ),
        (
            "storage.snapshot.read_ns_per_key",
            ns_per_item("storage.snapshot.read_at"),
        ),
        (
            "storage.snapshot.bytes_per_key",
            snap_bytes as f64 / keys as f64,
        ),
        (
            "storage.wal.append_ns_per_key",
            ns_per_item("storage.wal.append"),
        ),
        (
            "storage.wal.seal_us",
            ns_per_item("storage.wal.seal_round") / 1e3,
        ),
        ("storage.wal.bytes_per_key", wal_bytes as f64 / keys as f64),
        (
            "storage.wal.recover_ns_per_key",
            ns_per_item("storage.wal.recover"),
        ),
        (
            "storage.registry.commit_us",
            median(discard_warmup(&commit_us, 1)).unwrap_or(0.0),
        ),
        (
            "core.direct.ns_per_key",
            ns_per_item("core.direct.get_many"),
        ),
    ];
    for (k, v) in layers {
        run.per_layer.insert(k, v);
    }
}

fn by_partition(
    partitioner: &Partitioner,
    entries: &[(Value, Value)],
) -> Vec<Vec<(Value, Option<Value>)>> {
    let mut out = vec![Vec::new(); partitioner.partition_count() as usize];
    for (k, v) in entries {
        out[partitioner.partition_of(k).0 as usize].push((k.clone(), Some(v.clone())));
    }
    out
}

/// Peak resident set (MB) from `/proc/self/status`, less the host-speed
/// reference's table, which is the benchmark's and not the program's.
fn peak_rss_mb(reference: &Reference) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some((kb * 1024.0 - reference.table_bytes() as f64) / (1024.0 * 1024.0))
}

/// Series with no warm-up sample of their own to discard: one sample per
/// state build, or per open-loop interval (whose warm-up interval is
/// already left out).
const WHOLE: [&str; 4] = ["setup_s", "ingest_evps", "event_p50_ms", "event_p99_ms"];

/// Print every figure, then the JSON line.
fn report(run: &Run) {
    let workload = run.args.workload;
    println!(
        "workload={} seed={} seconds={} trace={} orders={ORDERS} riders={RIDERS} \
         offered={:.0}ev/s cadence={}ms fsync=never cpus={}",
        workload.name(),
        run.args.seed,
        run.args.seconds,
        u8::from(run.args.trace),
        3.0 * RATE_PER_SOURCE,
        workload.cadence().as_millis(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    // The measured samples of a series: warm-up discarded, raw or at
    // reference speed.
    let kept = |name: &str, samples: Vec<f64>| {
        let warmup = usize::from(!WHOLE.contains(&name));
        discard_warmup(&samples, warmup).to_vec()
    };
    let raw = |name: &str| {
        let samples = run.series.get(name).map(|s| s.samples().to_vec());
        kept(name, samples.unwrap_or_default())
    };
    let scaled = |name: &str| kept(name, run.at_reference_speed(name));
    let passes = Series::from_samples(&run.reference.pass_ns());
    println!("  reference pass   {} ns (CPU time)", passes.summary());
    for (name, s) in &run.series {
        let warmup = if WHOLE.contains(name) {
            "none discarded".to_string()
        } else {
            format!("first of {} discarded", s.len())
        };
        let (raw, scaled) = (raw(name), scaled(name));
        println!(
            "  {name:<16} raw       {} ({warmup})",
            Series::from_samples(&raw).summary()
        );
        println!(
            "  {name:<16} reference {}",
            Series::from_samples(&scaled).summary()
        );
        if scaled.len() <= 20 {
            println!("    in order: {scaled:.1?}");
        }
    }
    if let Some(e) = &run.events {
        println!(
            "  event latency    p99 of the whole window={:.4}ms over n={} events (not gated)",
            e.p99_all, e.count
        );
    }
    println!("  source lag ms    {}", run.lag_ms.summary());
    println!(
        "  ops              attempted={} failed={} ops_failed_share={}",
        run.ops.attempted,
        run.ops.failed,
        failed_share(run.ops.attempted, run.ops.failed)
    );
    for f in &run.ops.failures {
        println!("  FAILED: {f}");
    }

    let mut metrics: Vec<(&str, Option<f64>, &str)> = Vec::new();
    if run.args.trace {
        metrics.push((
            "streaming.checkpoint.phase1_ms",
            run.phase1_ms.median(),
            "ms",
        ));
        metrics.push((
            "streaming.checkpoint.phase2_ms",
            run.phase2_ms.median(),
            "ms",
        ));
        let lag = run.lag_ms.samples();
        let mean_lag = lag.iter().sum::<f64>() / lag.len().max(1) as f64;
        metrics.push(("streaming.source.lag_ms", Some(mean_lag), "ms"));
        for (name, v) in &run.per_layer {
            metrics.push((name, Some(*v), unit_of(name)));
        }
    } else {
        let med = |name: &str| median(&scaled(name));
        metrics.extend([
            ("setup_s", med("setup_s"), "s"),
            ("ingest_evps", med("ingest_evps"), "ev/s"),
            ("event_p50_ms", trimmed_mean(&scaled("event_p50_ms")), "ms"),
            ("event_p99_ms", trimmed_mean(&scaled("event_p99_ms")), "ms"),
            ("checkpoint_p50_ms", med("checkpoint_ms"), "ms"),
            ("query_cold_p50_ms", med("query_cold_ms"), "ms"),
            ("query_warm_p50_ms", med("query_warm_ms"), "ms"),
            ("query_dop2_p50_ms", med("query_dop2_ms"), "ms"),
            ("query_limit_p50_ms", med("query_limit_ms"), "ms"),
            ("direct_p50_us", med("direct_us"), "us"),
            (
                "direct_p99_us",
                block_percentile(&scaled("direct_us"), READS_PER_ROUND, 99.0),
                "us",
            ),
            ("recovery_s", med("recovery_s"), "s"),
            ("peak_rss_mb", peak_rss_mb(&run.reference), "MB"),
        ]);
    }
    let mut json = String::from("{\"correct\": ");
    let _ = write!(
        json,
        "{}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.ops.failed == 0,
        run.ops.attempted,
        run.ops.failed
    );
    let mut first = true;
    for (name, v, unit) in metrics {
        match v {
            Some(v) => {
                let sep = if first { "" } else { ", " };
                first = false;
                let _ = write!(
                    json,
                    "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                );
            }
            None => println!("  MISSING: {name} (too few samples)"),
        }
    }
    json.push_str("}}");
    println!("{json}");
}

/// The unit of per-layer metric `name`, from its suffix.
fn unit_of(name: &str) -> &'static str {
    if name.contains("ns_per_") {
        "ns"
    } else if name.ends_with("bytes_per_key") {
        "B"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else {
        "%"
    }
}
