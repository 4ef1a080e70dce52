//! The fan-out that deletion maintenance runs on, and its thread budget.
//!
//! `fan_out` runs the two parallel parts of deletion maintenance, under
//! the [`MaintenanceThreads`] budget of the dynamic facade
//! ([`crate::engine::Pipeline`]):
//!
//! * the classification sweeps of a deletion batch, which only read;
//! * the `DecUPDATE` repair sweeps. §6 of the paper leaves parallel updates
//!   open because each sweep prunes against labels the higher-ranked sweeps
//!   before it have just repaired. The pipeline therefore runs blocks of
//!   sweeps read-only against the index as of the block start, commits
//!   their logs in rank order on the calling thread, and re-runs a sweep
//!   whose reads an earlier commit of its block changed. So the result is
//!   the sequential one at every thread count.
//!
//! Builds, re-ranks and insertions stay on the calling thread. Queries
//! need no fan-out of their own: each serving reader answers on its own
//! thread against an immutable published snapshot.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread budget for index maintenance (the knob behind
/// [`crate::dynamic::Dynamic::set_maintenance_threads`]): how many threads a deletion — one edge or a batch —
/// classifies its endpoint tasks and speculates its repair sweeps on.
///
/// * [`MaintenanceThreads::Auto`] (the default) resolves to
///   `std::thread::available_parallelism()`.
/// * [`MaintenanceThreads::Fixed(1)`](MaintenanceThreads::Fixed) runs
///   everything on the calling thread, one repair sweep at a time.
///
/// Classification only reads, and its results merge in input order.
/// Repair sweeps speculate read-only in blocks of 16 and commit in rank
/// order, re-running any sweep an earlier commit of its block invalidated;
/// a deletion therefore uses at most 16 threads. So the index, query
/// answers, and every counter are identical at every thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MaintenanceThreads {
    /// Use `std::thread::available_parallelism()` (fallback 1).
    #[default]
    Auto,
    /// Use exactly this many worker threads (clamped to at least 1).
    Fixed(usize),
}

impl MaintenanceThreads {
    /// The concrete thread count this knob stands for.
    pub fn resolve(self) -> usize {
        match self {
            MaintenanceThreads::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            MaintenanceThreads::Fixed(n) => n.max(1),
        }
    }
}

/// Runs `work` over `items` on the caller's `workers`, one thread per
/// worker, returning results in input order. The first worker runs on the
/// calling thread and the others on scoped threads, as many as there are
/// items beyond the first. Workers claim items one at a time through a
/// shared atomic cursor, so a worker that drew cheap items takes more of
/// them. One worker (or one item) runs everything inline. Workers keep
/// their scratch across calls, so a call allocates only the result
/// storage. A panicking worker fails the call: the scope joins every
/// thread, then the panic resumes on the calling thread.
///
/// # Panics
/// If `workers` is empty.
pub(crate) fn fan_out<T, S, R>(
    items: &[T],
    workers: &mut [S],
    work: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    S: Send,
    R: Send,
{
    let active = workers.len().min(items.len()).max(1);
    let (first, helpers) = workers[..active]
        .split_first_mut()
        .expect("fan_out needs a worker");
    if helpers.is_empty() {
        return items.iter().map(|t| work(first, t)).collect();
    }
    // `Relaxed` suffices: the cursor only hands out indices, each once.
    // The items reach the threads through the scope's spawn, and the
    // results come back through its join.
    let cursor = AtomicUsize::new(0);
    let drain = |worker: &mut S| {
        let mut claimed = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return claimed;
            };
            claimed.push((i, work(worker, item)));
        }
    };
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let place = |slots: &mut Vec<Option<R>>, claimed: Vec<(usize, R)>| {
        for (i, r) in claimed {
            slots[i] = Some(r);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|worker| scope.spawn(|| drain(worker)))
            .collect();
        place(&mut slots, drain(first));
        for handle in handles {
            match handle.join() {
                Ok(claimed) => place(&mut slots, claimed),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintenance_threads_resolution() {
        assert!(MaintenanceThreads::Auto.resolve() >= 1);
        assert_eq!(MaintenanceThreads::Fixed(0).resolve(), 1);
        assert_eq!(MaintenanceThreads::Fixed(6).resolve(), 6);
        assert_eq!(MaintenanceThreads::default(), MaintenanceThreads::Auto);
    }

    #[test]
    fn fan_out_runs_on_the_callers_workers() {
        // Every item runs on one of the caller's workers, whose scratch
        // outlives the call: nothing per call, nothing per thread.
        let items: Vec<usize> = (0..23).collect();
        for threads in [1usize, 2, 4, 8] {
            let mut workers = vec![0usize; threads];
            for round in 1..=2 {
                let out = fan_out(&items, &mut workers, |runs, &i| {
                    *runs += 1;
                    i * 10
                });
                assert_eq!(out, items.iter().map(|&i| i * 10).collect::<Vec<_>>());
                assert_eq!(
                    workers.iter().sum::<usize>(),
                    round * items.len(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn fan_out_resumes_a_worker_panic() {
        let items: Vec<usize> = (0..8).collect();
        for threads in [1usize, 2, 4] {
            let outcome = std::panic::catch_unwind(|| {
                fan_out(&items, &mut vec![(); threads], |_, &i| {
                    assert_ne!(i, 5, "item 5 fails");
                    i
                })
            });
            assert!(
                outcome.is_err(),
                "threads={threads}: the panic reaches the caller"
            );
        }
    }

    #[test]
    fn fan_out_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1usize, 2, 5, 64] {
            let out = fan_out(&items, &mut vec![0usize; threads], |scratch, &i| {
                *scratch += 1;
                i * 3
            });
            assert_eq!(out, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
        }
        assert!(fan_out(&[] as &[usize], &mut [()], |_, &i| i).is_empty());
    }
}
