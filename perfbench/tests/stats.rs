//! Self-tests of the benchmark's statistics helpers.

use squery_common::metrics::Histogram;
use squery_perfbench::stats::{
    block_percentile, discard_warmup, failed_share, hist_percentile, median, percentile,
    reportable_tail, trimmed_mean, Series, MIN_TAIL,
};

fn one_to(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_is_nearest_rank() {
    let mut s = one_to(1000);
    s.reverse(); // order of recording must not matter
    assert_eq!(percentile(&s, 50.0), Some(500.0));
    assert_eq!(percentile(&s, 90.0), Some(900.0));
    assert_eq!(percentile(&s, 99.0), Some(990.0));
    // Rank ceil(0.333 * 1000) = 333.
    assert_eq!(percentile(&s, 33.3), Some(333.0));
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond() {
    let s = one_to(100);
    // p90 of 100 leaves exactly 10 beyond: reportable.
    assert_eq!(percentile(&s, 90.0), Some(90.0));
    // p99 of 100 leaves 1 beyond: refused.
    assert_eq!(percentile(&s, 99.0), None);
    assert_eq!(percentile(&one_to(MIN_TAIL), 50.0), None);
    assert_eq!(percentile(&[], 50.0), None);
    // 1000 samples: p99 is rank 990, 10 beyond; 999 leave only 9.
    assert_eq!(percentile(&one_to(1000), 99.0), Some(990.0));
    assert_eq!(percentile(&one_to(999), 99.0), None);
}

#[test]
fn reportable_tail_is_the_highest_supported() {
    assert_eq!(reportable_tail(&one_to(100)), Some((90.0, 90.0)));
    assert_eq!(reportable_tail(&one_to(2000)), Some((99.0, 1980.0)));
    assert_eq!(reportable_tail(&one_to(20_000)), Some((99.9, 19_980.0)));
    assert_eq!(reportable_tail(&one_to(5)), None);
}

#[test]
fn block_percentile_is_the_median_block_tail() {
    // Three blocks of 1 000; the middle one has a burst of slow samples.
    let mut s = one_to(1000);
    s.extend((1..=1000).map(|i| if i > 900 { 1e6 } else { i as f64 }));
    s.extend(one_to(1000).iter().map(|v| v + 10.0));
    s.extend(one_to(999)); // partial block, left out
    assert_eq!(block_percentile(&s, 1000, 99.0), Some(1000.0));
    // No block supports p99 when blocks are too small.
    assert_eq!(block_percentile(&s, 100, 99.0), None);
    assert_eq!(block_percentile(&one_to(999), 1000, 99.0), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn trimmed_mean_drops_the_extremes() {
    assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 4.0, 100.0]), Some(5.0));
    assert_eq!(trimmed_mean(&[1.0, 50.0, 3.0]), Some(3.0));
    assert_eq!(trimmed_mean(&[]), None);
}

#[test]
fn warmup_discard_drops_the_first_samples() {
    let s = [100.0, 1.0, 2.0, 3.0];
    assert_eq!(discard_warmup(&s, 1), &[1.0, 2.0, 3.0]);
    assert_eq!(median(discard_warmup(&s, 1)), Some(2.0));
    assert!(discard_warmup(&s, 9).is_empty());
    let series = Series::from_samples(&s);
    assert_eq!(series.len(), 4);
    assert!(series.summary().contains("n=4"));
}

#[test]
fn failed_share_is_failed_over_attempted() {
    assert_eq!(failed_share(0, 0), 0.0);
    assert_eq!(failed_share(200, 0), 0.0);
    assert_eq!(failed_share(200, 3), 0.015);
    assert_eq!(failed_share(4, 4), 1.0);
}

#[test]
#[should_panic]
fn failed_share_rejects_more_failures_than_attempts() {
    failed_share(1, 2);
}

#[test]
fn histogram_percentile_refuses_a_thin_tail() {
    let mut h = Histogram::new();
    for v in 0..100u64 {
        h.record(v);
    }
    assert_eq!(hist_percentile(&h, 0.9), Some(h.percentile(0.9) as f64));
    assert!(hist_percentile(&h, 0.99).is_none());
    assert!(hist_percentile(&Histogram::new(), 0.5).is_none());
}
