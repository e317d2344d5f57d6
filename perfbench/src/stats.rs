//! Statistics helpers for the benchmark's reported figures.
//!
//! Every latency is reported as a median plus the highest standard
//! percentile that still has at least [`MIN_TAIL`] samples beyond it, with
//! its sample count. Percentiles use the nearest-rank definition, so every
//! reported value is one that was actually measured. Event latencies come
//! from the engine's log-linear histogram instead, whose percentiles are
//! sub-bucket midpoints (about 3 % resolution).

use squery_common::metrics::Histogram;

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// The percentiles tried, highest first, when picking the reportable tail.
pub const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`.
///
/// Returns `None` when fewer than [`MIN_TAIL`] samples lie beyond the rank,
/// i.e. when the sample cannot support the percentile.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps exact ranks such as 99.9 % of 20 000 from rounding
    // up past themselves in floating point.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty. The median is always reported, whatever the count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Mean of `samples` without their highest and lowest value; the median
/// when there are fewer than four. `None` when empty.
pub fn trimmed_mean(samples: &[f64]) -> Option<f64> {
    if samples.len() < 4 {
        return median(samples);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let inner = &sorted[1..sorted.len() - 1];
    Some(inner.iter().sum::<f64>() / inner.len() as f64)
}

/// The highest of [`TAILS`] the sample supports, with its value.
pub fn reportable_tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&p| percentile(samples, p).map(|v| (p, v)))
}

/// Quantile `q` in `(0, 1)` of the engine's latency [`Histogram`], as
/// `Histogram::percentile` reports it; `None` when fewer than [`MIN_TAIL`]
/// recorded values lie beyond the quantile.
pub fn hist_percentile(h: &Histogram, q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile out of range: {q}");
    let n = h.count();
    let rank = (q * n as f64 - 1e-9).ceil() as u64;
    (n >= rank + MIN_TAIL as u64).then(|| h.percentile(q) as f64)
}

/// Median over consecutive blocks of `block` samples of each block's
/// percentile `p` (a partial last block is left out); `None` when no block
/// can report `p`. Slow samples that bunch in a few blocks move those
/// blocks' tails, not the figure.
pub fn block_percentile(samples: &[f64], block: usize, p: f64) -> Option<f64> {
    let tails: Vec<f64> = samples
        .chunks_exact(block)
        .filter_map(|b| percentile(b, p))
        .collect();
    median(&tails)
}

/// Drop the first `n` samples of a repeated measurement (warm-up).
pub fn discard_warmup(samples: &[f64], n: usize) -> &[f64] {
    &samples[n.min(samples.len())..]
}

/// Failed operations as a share of attempted ones; 0 when none attempted.
pub fn failed_share(attempted: u64, failed: u64) -> f64 {
    assert!(
        failed <= attempted,
        "{failed} failed of {attempted} attempted"
    );
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// A named series of samples of one measured quantity.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    /// An empty series.
    pub fn new() -> Series {
        Series::default()
    }

    /// A series holding `samples`.
    pub fn from_samples(samples: &[f64]) -> Series {
        Series {
            samples: samples.to_vec(),
        }
    }

    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// All samples in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Median of the samples; `None` when empty.
    pub fn median(&self) -> Option<f64> {
        median(&self.samples)
    }

    /// One-line summary: median, the reportable tail, and the count.
    pub fn summary(&self) -> String {
        let med = self.median().map_or("-".to_string(), |m| format!("{m:.4}"));
        let tail = reportable_tail(&self.samples)
            .filter(|&(p, _)| p > 50.0)
            .map_or("no tail (too few samples)".to_string(), |(p, v)| {
                format!("p{p}={v:.4}")
            });
        let lo = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        format!(
            "p50={med} {tail} min={lo:.4} max={hi:.4} n={}",
            self.samples.len()
        )
    }
}
