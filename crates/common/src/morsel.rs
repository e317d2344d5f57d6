//! The system's one worker pool: morsel-driven claiming of numbered work
//! units (Leis et al., SIGMOD 2014).
//!
//! [`claim_units`] runs a closure over unit indexes `0..n` on up to `dop`
//! workers. The caller's thread is worker 0 and the pool spawns only the
//! `dop.min(n) - 1` helpers, so a degree of 1 runs every unit inline, in
//! unit order, without spawning a thread. The SQL executor's scans and the
//! direct object interface's partition-grouped multi-key reads both run
//! here.

use crate::SqResult;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Run `f` on every unit index in `0..n_units` with up to `dop` workers
/// claiming indexes from an atomic cursor. Results come back **in unit
/// order** — the ordering contract every deterministic merge relies on.
/// The first error stops further claims and is returned.
pub fn claim_units<R: Send>(
    n_units: usize,
    dop: usize,
    f: impl Fn(usize) -> SqResult<R> + Sync,
) -> SqResult<Vec<R>> {
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let first_error = Mutex::new(None);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n_units).map(|_| None).collect());
    let work = || loop {
        if failed.load(Ordering::Acquire) {
            return;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n_units {
            return;
        }
        match f(i) {
            Ok(r) => results.lock()[i] = Some(r),
            Err(e) => {
                failed.store(true, Ordering::Release);
                first_error.lock().get_or_insert(e);
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
    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    Ok(results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every unit completed"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SqError;
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
    fn zero_units_and_oversized_pools_are_fine() {
        assert!(claim_units(0, 4, Ok).unwrap().is_empty());
        assert_eq!(claim_units(2, 8, |i| Ok(i + 1)).unwrap(), vec![1, 2]);
    }
}
