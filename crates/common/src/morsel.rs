//! The system's one worker pool: morsel-driven claiming of numbered work
//! units (Leis et al., SIGMOD 2014).
//!
//! [`claim_units`] runs a closure over unit indexes `0..n` on up to `dop`
//! workers. The caller's thread is worker 0 and the pool spawns only the
//! `dop.min(n) - 1` helpers, so a degree of 1 runs every unit inline, in
//! unit order, without spawning a thread. [`claim_units_until`] adds a stop
//! hook that ends claiming once the completed unit-order prefix is enough
//! (the SQL executor's `LIMIT` and its pushed-filter rerun). The SQL
//! executor's scans and the direct object interface's partition-grouped
//! multi-key reads both run here.

use crate::{SqError, SqResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Run `f` on every unit index in `0..n_units` with up to `dop` workers
/// claiming indexes from an atomic cursor. Results come back **in unit
/// order** — the ordering contract every deterministic merge relies on.
/// The first error stops further claims; the error of the lowest-numbered
/// failed unit is returned.
pub fn claim_units<R: Send>(
    n_units: usize,
    dop: usize,
    f: impl Fn(usize) -> SqResult<R> + Sync,
) -> SqResult<Vec<R>> {
    claim_units_until(n_units, dop, f, |_| false)
}

/// The completion side of the pool: unit results, the length of the
/// completed unit-order prefix, and where the stop hook ended it.
struct Completed<R, S> {
    results: Vec<Option<R>>,
    prefix: usize,
    end: Option<usize>,
    enough: S,
}

/// [`claim_units`] with a stop hook. `enough` sees each unit's result once
/// every lower-numbered unit has completed too — in unit order, under the
/// pool's lock, whichever worker finished it. Once it returns `true` no
/// worker claims another unit, and the result is the prefix up to and
/// including that unit; units already in flight past it finish and are
/// dropped, errors included. So the returned prefix (or error) is the same
/// at every degree; at degree 1 nothing past the stopping unit runs.
pub fn claim_units_until<R: Send>(
    n_units: usize,
    dop: usize,
    f: impl Fn(usize) -> SqResult<R> + Sync,
    enough: impl FnMut(&R) -> bool + Send,
) -> SqResult<Vec<R>> {
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<(usize, SqError)>> = Mutex::new(None);
    let done = Mutex::new(Completed {
        results: (0..n_units).map(|_| None).collect(),
        prefix: 0,
        end: None,
        enough,
    });
    let work = || loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n_units {
            return;
        }
        match f(i) {
            Ok(r) => {
                let mut guard = done.lock();
                let c = &mut *guard;
                c.results[i] = Some(r);
                while c.end.is_none() {
                    let Some(Some(r)) = c.results.get(c.prefix) else {
                        break;
                    };
                    c.prefix += 1;
                    if (c.enough)(r) {
                        c.end = Some(c.prefix);
                        stop.store(true, Ordering::Release);
                    }
                }
            }
            Err(e) => {
                stop.store(true, Ordering::Release);
                let mut first = first_error.lock();
                if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    *first = Some((i, e));
                }
                return;
            }
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..dop.min(n_units)).map(|_| scope.spawn(work)).collect();
        work();
        // Join each helper explicitly rather than at the scope's end: the
        // OS-level join is the happens-before edge ThreadSanitizer sees.
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let done = done.into_inner();
    let end = done.end.unwrap_or(n_units);
    if let Some((i, e)) = first_error.into_inner() {
        if i < end {
            return Err(e);
        }
    }
    Ok(done
        .results
        .into_iter()
        .take(end)
        .map(|r| r.expect("every unit completed"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    #[test]
    fn dop_one_runs_every_unit_on_the_callers_thread_in_order() {
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::new());
        let out = claim_units(16, 1, |i| {
            seen.lock().push((i, thread::current().id()));
            Ok(i * 10)
        })
        .unwrap();
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
        let seen = seen.into_inner();
        assert_eq!(
            seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            (0..16).collect::<Vec<_>>(),
            "units claimed in order"
        );
        assert!(seen.iter().all(|(_, t)| *t == caller), "no helper thread");
    }

    #[test]
    fn parallel_results_keep_unit_order() {
        let out = claim_units(200, 4, |i| {
            // Uneven unit costs, so completion order differs from unit order.
            if i % 7 == 0 {
                thread::yield_now();
            }
            Ok(i)
        })
        .unwrap();
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn the_caller_is_worker_zero_beside_dop_minus_one_helpers() {
        // Every unit waits until all four are running at once, so exactly
        // four workers each hold one unit: the three helpers and the caller.
        let barrier = Barrier::new(4);
        let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        claim_units(4, 4, |_| {
            threads.lock().insert(thread::current().id());
            barrier.wait();
            Ok(())
        })
        .unwrap();
        let threads = threads.into_inner();
        assert_eq!(threads.len(), 4);
        assert!(threads.contains(&thread::current().id()));
    }

    #[test]
    fn parallel_returns_the_first_error() {
        for dop in [1, 4] {
            let err = claim_units(64, dop, |i| {
                if i == 5 {
                    Err(SqError::Exec(format!("unit {i} failed")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert!(
                matches!(&err, SqError::Exec(m) if m == "unit 5 failed"),
                "dop {dop}: {err}"
            );
        }
    }

    #[test]
    fn stop_hook_ends_claiming_at_an_enough_prefix() {
        // Unit `i` yields `i % 3` rows; the hook wants 9 rows, which the
        // prefix first holds at unit 8 (units 0..=7 sum to 7, unit 8 adds
        // 2). Every degree returns exactly that prefix.
        for dop in [1, 2, 4] {
            let claimed = AtomicUsize::new(0);
            let mut rows = 0;
            let out = claim_units_until(
                1000,
                dop,
                |i| {
                    claimed.fetch_add(1, Ordering::Relaxed);
                    Ok(i % 3)
                },
                |&n| {
                    rows += n;
                    rows >= 9
                },
            )
            .unwrap();
            assert_eq!(out, (0..9).map(|i| i % 3).collect::<Vec<_>>(), "dop {dop}");
            let claimed = claimed.into_inner();
            if dop == 1 {
                assert_eq!(claimed, 9, "nothing past the stopping unit runs");
            } else {
                // Each helper may hold one unit past the stop.
                assert!(claimed < 9 + dop, "dop {dop}: {claimed} units claimed");
            }
        }
    }

    #[test]
    fn stop_hook_drops_errors_past_the_stop_and_keeps_earlier_ones() {
        for dop in [1, 4] {
            // Unit 2 is enough; unit 3 fails only if a helper reached it.
            let out = claim_units_until(
                8,
                dop,
                |i| {
                    if i == 3 {
                        Err(SqError::Exec("past the stop".into()))
                    } else {
                        Ok(i)
                    }
                },
                |&i| i == 2,
            )
            .unwrap();
            assert_eq!(out, vec![0, 1, 2], "dop {dop}");
            // A failure before the stop still fails the whole claim.
            let err = claim_units_until(
                8,
                dop,
                |i| {
                    if i == 1 {
                        Err(SqError::Exec("unit 1 failed".into()))
                    } else {
                        Ok(i)
                    }
                },
                |&i| i == 2,
            )
            .unwrap_err();
            assert!(
                matches!(&err, SqError::Exec(m) if m == "unit 1 failed"),
                "dop {dop}: {err}"
            );
        }
    }

    #[test]
    fn zero_units_and_oversized_pools_are_fine() {
        assert!(claim_units(0, 4, Ok).unwrap().is_empty());
        assert_eq!(claim_units(2, 8, |i| Ok(i + 1)).unwrap(), vec![1, 2]);
    }
}
