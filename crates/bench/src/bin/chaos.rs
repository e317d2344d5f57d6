//! Chaos soak driver: run the seeded fault-injection harness over a range
//! of seeds inside a wall-clock budget, exit non-zero on any invariant
//! violation. Wired into CI as `scripts/check.sh --only chaos`.
//!
//! ```text
//! cargo run -p squery-bench --release --bin chaos
//! cargo run -p squery-bench --release --bin chaos -- --seeds 200 --time-budget-secs 300
//! cargo run -p squery-bench --release --bin chaos -- --base-seed 1000 --seeds 50
//! ```

use squery::chaos::{run_seed, ChaosConfig};
use std::time::{Duration, Instant};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut seeds = 50u64;
    let mut base_seed = 1u64;
    let mut budget = Duration::from_secs(60);
    while let Some(a) = args.next() {
        let mut num = |flag: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("{flag} requires a non-negative integer");
                    std::process::exit(2);
                })
        };
        match a.as_str() {
            "--seeds" => seeds = num("--seeds"),
            "--base-seed" => base_seed = num("--base-seed"),
            "--time-budget-secs" => budget = Duration::from_secs(num("--time-budget-secs")),
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: chaos [--seeds N] [--base-seed S] [--time-budget-secs T]");
                std::process::exit(2);
            }
        }
    }

    let cfg = ChaosConfig::default();
    let start = Instant::now();
    let mut ran = 0u64;
    let mut failures = 0u64;
    let mut faults = 0usize;
    let mut restarts = 0u32;
    let mut retries = 0u64;
    for seed in base_seed..base_seed + seeds {
        if start.elapsed() > budget {
            println!("time budget exhausted after {ran}/{seeds} seeds");
            break;
        }
        match run_seed(&cfg, seed) {
            Ok(report) => {
                ran += 1;
                faults += report.faults.len();
                restarts += report.restarts;
                retries += report.checkpoint_retries;
                let points: Vec<String> = report
                    .faults
                    .iter()
                    .map(|f| format!("{}/{}", f.point.as_str(), f.action.as_str()))
                    .collect();
                println!(
                    "seed {seed}: ok ({} faults, {} restarts, {} retries, {} aborted rounds) [{}]",
                    report.faults.len(),
                    report.restarts,
                    report.checkpoint_retries,
                    report.aborted_checkpoints,
                    points.join(" ")
                );
            }
            Err(e) => {
                ran += 1;
                failures += 1;
                eprintln!("seed {seed}: FAILED: {e}");
            }
        }
    }
    println!(
        "chaos soak: {ran} seeds in {:.1}s — {faults} faults fired, \
         {restarts} supervisor restarts, {retries} checkpoint retries, {failures} failures",
        start.elapsed().as_secs_f64()
    );
    if failures > 0 || ran == 0 {
        std::process::exit(1);
    }
}
