//! The SQL benchmark regression gate (`scripts/check.sh --only bench`).
//!
//! A short fixed-iteration smoke over the paper's SQL workload: Q1–Q4
//! (q-commerce order monitoring) and the NEXMark q6 join, each run at DOP 4
//! on both engines — the columnar (vectorized) executor and the row engine.
//! Per-query best wall time and throughput land in a JSON report
//! (`BENCH_sql.json` at the repo root, committed as the baseline).
//!
//! With `--check`, the run compares its per-query columnar-vs-row speedup
//! against the committed baseline and **fails (exit 1) when any query's
//! speedup drops more than 15%**. Raw wall time is machine-dependent, so
//! the row engine acts as the per-query machine-speed canary: both engines
//! are timed in interleaved iterations of the same window, and only their
//! ratio is compared across hosts. A uniformly or transiently slower
//! machine cancels out; the columnar engine getting slower *relative to
//! the row engine on the same query* fails.
//!
//! ```text
//! bench-gate [--check] [--baseline PATH] [--out PATH] [--summary PATH]
//!            [--iters N] [--orders N] [--sellers N]
//! ```

use squery::{SQuery, SQueryConfig, StateConfig};
use squery_bench::util::{nexmark_fixture, populate_snapshot, qcommerce_fixture, SnapshotFixture};
use squery_qcommerce::{QUERY_1, QUERY_2, QUERY_3, QUERY_4};
use std::fmt::Write as _;
use std::time::Instant;

/// The q6 analytics join over the two operator states (the golden file's
/// join shape, aggregated so the result is scale-independent).
const NEXMARK_Q6: &str = "SELECT COUNT(*), AVG(average) FROM \"snapshot_average\" a \
                          JOIN \"snapshot_maxbid\" b ON a.partitionKey = b.seller";

const DOP: usize = 4;
/// A query whose columnar-vs-row speedup drops below 85% of its baseline
/// speedup fails the gate.
const REGRESSION_FLOOR: f64 = 0.85;

struct Args {
    check: bool,
    baseline: String,
    out: String,
    summary: Option<String>,
    iters: usize,
    orders: u64,
    sellers: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        check: false,
        baseline: "BENCH_sql.json".into(),
        out: "BENCH_sql.json".into(),
        summary: None,
        iters: 25,
        orders: 20_000,
        sellers: 4_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--check" => args.check = true,
            "--baseline" => args.baseline = val("--baseline"),
            "--out" => args.out = val("--out"),
            "--summary" => args.summary = Some(val("--summary")),
            "--iters" => args.iters = val("--iters").parse().expect("--iters: integer"),
            "--orders" => args.orders = val("--orders").parse().expect("--orders: integer"),
            "--sellers" => args.sellers = val("--sellers").parse().expect("--sellers: integer"),
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

/// A system whose snapshot stores hold `fixtures` as one committed round
/// (written directly, no job, for setup speed).
fn fixture_system(fixtures: Vec<SnapshotFixture>) -> SQuery {
    let system =
        SQuery::new(SQueryConfig::default().with_state(StateConfig::live_and_snapshot())).unwrap();
    populate_snapshot(&system, fixtures);
    system
}

/// Best (minimum) wall times (µs) for `(row, columnar)` over `iters`
/// interleaved runs, after one warmup of each engine.
///
/// Two noise defenses, both needed on shared CI runners: the *minimum* is
/// the low-variance estimator of a query's true cost (scheduler and
/// neighbor noise is strictly additive), and *interleaving* the engines
/// within one window means a load burst hits both timings alike, so their
/// ratio — the only thing the gate compares across hosts — stays stable.
fn measure_pair_us(system: &SQuery, sql: &str, iters: usize) -> (u64, u64) {
    let one = |vectorized: bool| {
        let t = Instant::now();
        let rs = system
            .query_with_opts(sql, DOP, vectorized)
            .unwrap_or_else(|e| panic!("query failed ({sql}): {e}"));
        std::hint::black_box(rs.rows().len());
        t.elapsed().as_micros().max(1) as u64
    };
    let _ = (one(false), one(true)); // warmup (and columnar cache fill)
    let (mut row_best, mut vec_best) = (u64::MAX, u64::MAX);
    for _ in 0..iters {
        row_best = row_best.min(one(false));
        vec_best = vec_best.min(one(true));
    }
    (row_best, vec_best)
}

struct QueryReport {
    name: String,
    row_wall_us: u64,
    vec_wall_us: u64,
    row_qps: f64,
    vec_qps: f64,
    speedup: f64,
}

fn run_query(system: &SQuery, name: &str, sql: &str, iters: usize) -> QueryReport {
    // Both engines must agree before their timings mean anything.
    let row = system
        .query_with_opts(sql, DOP, false)
        .unwrap()
        .sorted_rows();
    let vec = system
        .query_with_opts(sql, DOP, true)
        .unwrap()
        .sorted_rows();
    assert_eq!(row, vec, "{name}: vectorized and row results differ");
    let (row_wall_us, vec_wall_us) = measure_pair_us(system, sql, iters);
    let report = QueryReport {
        name: name.to_string(),
        row_wall_us,
        vec_wall_us,
        row_qps: 1e6 / row_wall_us as f64,
        vec_qps: 1e6 / vec_wall_us as f64,
        speedup: row_wall_us as f64 / vec_wall_us as f64,
    };
    eprintln!(
        "  {name}: row {}us, columnar {}us ({:.2}x)",
        report.row_wall_us, report.vec_wall_us, report.speedup
    );
    report
}

fn render_json(args: &Args, reports: &[QueryReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"dop\": {DOP}, \"iters\": {}, \"orders\": {}, \"sellers\": {},",
        args.iters, args.orders, args.sellers
    );
    out.push_str("  \"queries\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"row_wall_us\": {}, \"vec_wall_us\": {}, \
             \"row_qps\": {:.3}, \"vec_qps\": {:.3}, \"speedup\": {:.3}}}",
            r.name, r.row_wall_us, r.vec_wall_us, r.row_qps, r.vec_qps, r.speedup
        );
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_markdown(reports: &[QueryReport]) -> String {
    let mut out = String::new();
    out.push_str("### SQL engine: columnar vs row (DOP 4, best wall time)\n\n");
    out.push_str("| query | row (µs) | columnar (µs) | speedup |\n");
    out.push_str("|---|---:|---:|---:|\n");
    for r in reports {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2}× |",
            r.name, r.row_wall_us, r.vec_wall_us, r.speedup
        );
    }
    out
}

/// Pull `"key": <number>` out of one line of our own JSON format.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

struct BaselineEntry {
    name: String,
    speedup: f64,
}

fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    text.lines()
        .filter_map(|line| {
            Some(BaselineEntry {
                name: json_str(line, "name")?,
                speedup: json_num(line, "speedup")?,
            })
        })
        .collect()
}

/// Compare against the committed baseline; returns the failure messages.
///
/// The comparison is per-query and host-independent: each query's
/// columnar-vs-row speedup (both engines timed interleaved on *this* host)
/// must stay within 15% of the baseline speedup. Absolute throughputs never
/// cross hosts, so machine speed and transient load cancel out.
fn check_regressions(reports: &[QueryReport], baseline: &[BaselineEntry]) -> Vec<String> {
    if !baseline
        .iter()
        .any(|b| reports.iter().any(|r| r.name == b.name))
    {
        return vec!["baseline has no queries in common with this run".into()];
    }
    let mut failures = Vec::new();
    for b in baseline {
        let Some(r) = reports.iter().find(|r| r.name == b.name) else {
            failures.push(format!("{}: present in baseline but not measured", b.name));
            continue;
        };
        if r.speedup < REGRESSION_FLOOR * b.speedup {
            failures.push(format!(
                "{}: columnar speedup {:.2}x is {:.0}% of baseline {:.2}x (floor {:.0}%)",
                r.name,
                r.speedup,
                r.speedup / b.speedup * 100.0,
                b.speedup,
                REGRESSION_FLOOR * 100.0,
            ));
        }
    }
    failures
}

/// One full measurement pass over every gated query.
fn measure_all(args: &Args) -> Vec<QueryReport> {
    let qsys = fixture_system(qcommerce_fixture(args.orders));
    let mut reports = Vec::new();
    for (name, sql) in [
        ("q1", QUERY_1),
        ("q2", QUERY_2),
        ("q3", QUERY_3),
        ("q4", QUERY_4),
    ] {
        reports.push(run_query(&qsys, name, sql, args.iters));
    }
    drop(qsys);
    let nsys = fixture_system(nexmark_fixture(args.sellers));
    reports.push(run_query(&nsys, "nexmark_q6", NEXMARK_Q6, args.iters));
    reports
}

/// Full measurement passes a suspected regression may consume before the
/// gate believes it.
const MAX_ATTEMPTS: usize = 3;

fn main() {
    let args = parse_args();
    // Read the committed baseline *before* the report overwrites it.
    let baseline = if args.check {
        let text = std::fs::read_to_string(&args.baseline).unwrap_or_else(|e| {
            panic!(
                "--check needs a committed baseline at {}: {e}",
                args.baseline
            )
        });
        let entries = parse_baseline(&text);
        assert!(
            !entries.is_empty(),
            "baseline {} holds no query entries",
            args.baseline
        );
        Some(entries)
    } else {
        None
    };

    eprintln!(
        "bench-gate: {} orders / {} sellers, dop {DOP}, {} iterations",
        args.orders, args.sellers, args.iters
    );
    let mut reports = measure_all(&args);

    // A sub-millisecond query can have its whole measurement window covered
    // by one sustained load burst, which no ratio or minimum can cancel. A
    // true regression reproduces, transient load does not — so a suspected
    // regression earns up to two full re-measurements, keeping each query's
    // best observed speedup.
    let failures = baseline.as_ref().map(|b| {
        let mut failures = check_regressions(&reports, b);
        for attempt in 2..=MAX_ATTEMPTS {
            if failures.is_empty() {
                break;
            }
            eprintln!(
                "bench-gate: suspected regression, re-measuring (attempt {attempt}/{MAX_ATTEMPTS})"
            );
            for fresh in measure_all(&args) {
                if let Some(r) = reports.iter_mut().find(|r| r.name == fresh.name) {
                    if fresh.speedup > r.speedup {
                        *r = fresh;
                    }
                }
            }
            failures = check_regressions(&reports, b);
        }
        failures
    });

    std::fs::write(&args.out, render_json(&args, &reports))
        .unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    eprintln!("wrote {}", args.out);
    if let Some(path) = &args.summary {
        std::fs::write(path, render_markdown(&reports))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }

    if let Some(failures) = failures {
        if !failures.is_empty() {
            eprintln!("bench-gate: REGRESSION");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "bench-gate: no query regressed more than {:.0}% vs {}",
            (1.0 - REGRESSION_FLOOR) * 100.0,
            args.baseline
        );
    }
}
