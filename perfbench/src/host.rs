//! A fixed reference workload that tracks the host's current speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed, for the
//! same code, drifts as other tenants load the hardware it shares. On the
//! 2-vCPU cloud host the bounds were set on, a fixed loop's medians over
//! consecutive 10 s windows ranged over a factor of 1.5 within eight
//! minutes, and 50 s windows spread as widely as 5 s ones, so a longer run
//! cannot average the drift away. The run therefore times one pass of
//! [`Reference`]'s fixed work about every [`PACE`] throughout, and every
//! timed figure is expressed at a fixed reference speed: scaled by
//! [`REFERENCE_NS`] over the median pass within [`HALF_WINDOW`] of when the
//! figure was measured.
//!
//! A pass is timed in the calling thread's CPU time, not wall time, so
//! waiting for a core behind the program's own threads does not count;
//! what counts is how fast the host runs the work once it is on a core.
//! The work is the benchmark's own code and never calls into the program.
//! It is mostly dependent random reads over a table far larger than the
//! caches (probes into a large state: memory latency dominates, as in the
//! program's scans and reads), then hashing with small string allocations
//! and a sort. The table is so large, and each pass starts its chain of
//! reads at a new slot, that a pass finds almost nothing in the caches
//! whatever ran before it. A program change can still move the passes
//! taken while its own threads run (a prefill or an open loop) by loading
//! the memory system they share, which is why the raw figures are printed
//! beside the scaled ones.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::{Duration, Instant};

/// One pass's CPU time (ns) at the reference speed. Only a scale: a figure
/// at reference speed is its raw value times `REFERENCE_NS` over the
/// measured pass time. It is about the median pass of whole runs on the
/// 2-vCPU host the bounds were set on, so figures there read close to raw.
pub const REFERENCE_NS: f64 = 4_400_000.0;

/// Wall time between passes.
pub const PACE: Duration = Duration::from_millis(250);

/// Passes within this distance (s) of a figure give its speed.
pub const HALF_WINDOW: f64 = 10.0;

/// Table slots (128 MiB of `u64`): far more than any cache holds, so
/// nearly every read of a pass misses them whatever ran before it.
const TABLE: usize = 1 << 24;

/// The reference work and the passes timed so far.
pub struct Reference {
    started: Instant,
    next: Instant,
    table: Vec<u64>,
    /// When each pass ran (s since `started`) and its CPU time (ns).
    passes: Vec<(f64, f64)>,
}

impl Reference {
    /// The reference work over a fixed pseudo-random table; times are
    /// taken from `started`.
    pub fn new(started: Instant) -> Reference {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let table = (0..TABLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference {
            started,
            next: started,
            table,
            passes: Vec::new(),
        }
    }

    /// Time one pass when [`PACE`] has passed since the last one.
    pub fn pace(&mut self) {
        let now = Instant::now();
        if now >= self.next {
            self.pass();
            self.next = now + PACE;
        }
    }

    /// Time one pass of the fixed work.
    pub fn pass(&mut self) {
        let at = self.started.elapsed().as_secs_f64();
        let first = self.passes.len().wrapping_mul(0x9e37_79b9) & (TABLE - 1);
        let cpu = thread_cpu_ns();
        std::hint::black_box(work(std::hint::black_box(&self.table), first));
        self.passes.push((at, (thread_cpu_ns() - cpu) as f64));
    }

    /// Memory held by the reference table, which the process's peak
    /// resident set includes.
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u64>()
    }

    /// The CPU time (ns) of every pass, in order.
    pub fn pass_ns(&self) -> Vec<f64> {
        self.passes.iter().map(|&(_, ns)| ns).collect()
    }

    /// The slowdown against the reference speed at `at` (s since the
    /// start): the median pass within [`HALF_WINDOW`] of it over
    /// [`REFERENCE_NS`], above 1 when the host runs slow. Falls back to the
    /// median of all passes; `None` when none was timed.
    pub fn slowdown_at(&self, at: f64) -> Option<f64> {
        Some(near_median(&self.passes, at)? / REFERENCE_NS)
    }
}

/// The median pass time of `passes` (each when it ran and its time) within
/// [`HALF_WINDOW`] of `at`, or of all of them when none is that near.
pub fn near_median(passes: &[(f64, f64)], at: f64) -> Option<f64> {
    let near: Vec<f64> = passes
        .iter()
        .filter(|&&(t, _)| (t - at).abs() <= HALF_WINDOW)
        .map(|&(_, ns)| ns)
        .collect();
    let all = || passes.iter().map(|&(_, ns)| ns).collect::<Vec<_>>();
    crate::stats::median(&near).or_else(|| crate::stats::median(&all()))
}

/// CPU time of the calling thread (ns).
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on the
    // 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One pass of the fixed work from slot `first`; the result only keeps it
/// from being elided.
fn work(table: &[u64], first: usize) -> u64 {
    let mask = table.len() - 1;
    // Dependent random reads: each slot's value picks the next slot.
    let (mut at, mut acc) = (first, 0u64);
    for _ in 0..12_000 {
        let v = table[at];
        acc = acc.wrapping_add(v);
        at = (v ^ acc) as usize & mask;
    }
    // Hashing with small allocations, then lookups.
    let mut map: HashMap<u64, String, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for k in 0..1_000u64 {
        map.insert(
            table[(acc.wrapping_add(k) as usize) & mask],
            format!("order-{k}"),
        );
    }
    let found: usize = (0..1_000u64)
        .filter_map(|k| map.get(&table[(acc.wrapping_add(k) as usize) & mask]))
        .map(String::len)
        .sum();
    // A sort of a slice of the table.
    let from = (at & !4095) % (table.len() - 4096);
    let mut run = table[from..from + 4096].to_vec();
    run.sort_unstable();
    acc ^ found as u64 ^ run[2048]
}
