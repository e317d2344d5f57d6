//! Self-tests of the host-speed reference.

use squery_perfbench::host::{near_median, Reference, HALF_WINDOW};
use std::time::Instant;

#[test]
fn near_median_takes_the_passes_around_a_time() {
    let passes = [
        (0.0, 1.0),
        (1.0, 2.0),
        (2.0, 3.0),
        (30.0, 10.0),
        (31.0, 11.0),
    ];
    assert_eq!(near_median(&passes, 1.0), Some(2.0));
    assert_eq!(near_median(&passes, 30.5), Some(10.5));
    // Nothing within the window of 15.5: the median of every pass.
    const { assert!(HALF_WINDOW < 13.5) };
    assert_eq!(near_median(&passes, 15.5), Some(3.0));
    assert_eq!(near_median(&[], 0.0), None);
}

#[test]
fn slowdown_is_known_once_a_pass_ran() {
    let mut reference = Reference::new(Instant::now());
    assert_eq!(reference.slowdown_at(0.0), None);
    reference.pass();
    let slowdown = reference.slowdown_at(0.0).expect("a pass ran");
    assert!(slowdown > 0.0 && slowdown.is_finite());
    assert_eq!(reference.pass_ns().len(), 1);
    assert!(reference.table_bytes() >= 1 << 20);
}
