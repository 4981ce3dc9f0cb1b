//! # vss-parallel
//!
//! A small, deterministic parallel-map primitive for the VSS GOP pipeline.
//!
//! VSS decomposes every read, write and cache operation into independent
//! GOPs; the paper's prototype exploits that with hardware-parallel encoders.
//! This crate provides the software equivalent: [`par_map`] runs a function
//! over a slice of inputs on `threads` scoped worker threads and returns the
//! outputs **in input order**, so the parallel pipeline is bit-identical to
//! the sequential one regardless of scheduling. (The full `rayon` crate is
//! unavailable in this offline build environment; this is the subset the
//! workspace needs, with the same ordered-collect semantics as
//! `par_iter().map(..).collect()`.)
//!
//! Work distribution is a shared atomic cursor: each thread — the caller is
//! one of them — claims the next unprocessed index, which load-balances
//! uneven GOP sizes without any channel traffic or per-item allocation
//! beyond the output slot.
//!
//! [`with_crew`] is the same idea for work *inside* a GOP: batch after batch
//! of a few indexed tasks, drained by the caller and helpers that are
//! started once and park between batches ([`Crew`]).

#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Number of worker threads the machine can usefully run.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Resolves a configured thread-count knob: `0` means "use every core".
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        available_parallelism()
    } else {
        configured
    }
}

/// Maps `f` over `items` using up to `threads` worker threads, returning the
/// results in input order.
///
/// With `threads <= 1` (or a single item) this degenerates to a plain
/// sequential loop on the calling thread — no threads are spawned, so the
/// single-threaded configuration reproduces the historical behaviour exactly.
/// Panics in `f` propagate to the caller.
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = resolve_threads(threads).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let mut slots: Vec<Option<U>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let cursor = AtomicUsize::new(0);
    // Every thread, the caller included, claims the next unprocessed index
    // and collects its own (index, value) pairs; the caller fills the slots.
    let work = || {
        let mut produced: Vec<(usize, U)> = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= items.len() {
                break;
            }
            produced.push((index, f(index, &items[index])));
        }
        produced
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut produced = work();
        for handle in handles {
            // A worker's panic is `f`'s: resume it, as if the caller had hit it.
            produced.extend(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        for (index, value) in produced {
            slots[index] = Some(value);
        }
    });
    slots.into_iter().map(|slot| slot.expect("every index produced")).collect()
}

/// Like [`par_map`] for fallible functions: returns the first error by input
/// order, or all results in input order.
pub fn try_par_map<T, U, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    let results = par_map(threads, items, |i, item| f(i, item));
    let mut out = Vec::with_capacity(results.len());
    for result in results {
        out.push(result?);
    }
    Ok(out)
}

/// Spends a budget of `threads` on `jobs` independent jobs first: the
/// threads each job may use inside itself (at least one) when the jobs run
/// under [`par_map`] with the same budget, so nothing is oversubscribed.
pub fn threads_per_job(threads: usize, jobs: usize) -> usize {
    (resolve_threads(threads) / jobs.max(1)).max(1)
}

/// The calling thread plus `threads − 1` scoped helpers, for work that comes
/// as many small batches of indexed tasks with a sequential step between
/// them — the planes of one frame, then the next frame. Where [`par_map`]
/// pays a spawn and a join per call, a crew's helpers are started once by
/// [`with_crew`], park between batches and are joined before it returns.
///
/// Tasks are claimed in index order, so a caller that numbers its largest
/// tasks first gets the longest-processing-time schedule. The hand-off is a
/// mutex and two condvars and never spins: on a single CPU the thread that
/// holds the work always gets to run.
pub struct Crew<'a, E> {
    task: &'a (dyn Fn(usize) -> Result<(), E> + Sync),
    /// `None` on a crew of one.
    shared: Option<&'a CrewShared<E>>,
}

struct CrewShared<E> {
    batch: Mutex<Batch<E>>,
    /// Helpers park here; signalled when a batch opens and on close.
    opened: Condvar,
    /// The caller waits here for a batch's last task to finish.
    finished: Condvar,
}

struct Batch<E> {
    /// Tasks in the open batch, and the first one nobody has claimed.
    count: usize,
    next: usize,
    /// Tasks of the batch not yet finished, claimed or not.
    unfinished: usize,
    /// The failure of the lowest-indexed task that failed.
    failed: Option<(usize, E)>,
    /// A helper's task panicked; the caller re-raises.
    panicked: bool,
    /// No more batches: helpers return.
    closed: bool,
}

/// Runs `body` with a crew of `threads` (resolved via [`resolve_threads`])
/// whose tasks are calls of `task` by index. With one thread nothing is
/// spawned and no lock is taken. Every helper has exited when this returns,
/// also when `body` or a task panics.
pub fn with_crew<E: Send, R>(
    threads: usize,
    task: impl Fn(usize) -> Result<(), E> + Sync,
    body: impl FnOnce(&Crew<'_, E>) -> R,
) -> R {
    let helpers = resolve_threads(threads) - 1;
    if helpers == 0 {
        return body(&Crew { task: &task, shared: None });
    }
    let shared = CrewShared {
        batch: Mutex::new(Batch {
            count: 0,
            next: 0,
            unfinished: 0,
            failed: None,
            panicked: false,
            closed: false,
        }),
        opened: Condvar::new(),
        finished: Condvar::new(),
    };
    /// Closes the crew when `body` returns or unwinds, so the scope's join
    /// cannot wait on a parked helper.
    struct Close<'a, E>(&'a CrewShared<E>);
    impl<E> Drop for Close<'_, E> {
        fn drop(&mut self) {
            self.0.lock().closed = true;
            self.0.opened.notify_all();
        }
    }
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers).map(|_| scope.spawn(|| shared.work(&task, true))).collect();
        let result = {
            let _close = Close(&shared);
            body(&Crew { task: &task, shared: Some(&shared) })
        };
        // The scope itself only waits until the helpers' closures return,
        // not until their threads exit; joining waits for that too.
        for helper in helpers {
            helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
        result
    })
}

impl<E> Crew<'_, E> {
    /// Runs tasks `0..count` on the crew and returns when all have finished:
    /// `Ok`, or the error of the lowest-indexed task that failed — the same
    /// error on a crew of any size. (A crew of one stops at that task; a
    /// larger one still runs the rest of the batch.)
    ///
    /// # Panics
    ///
    /// Re-raises a panic of a task that ran on a helper.
    pub fn run(&self, count: usize) -> Result<(), E> {
        let Some(shared) = self.shared else {
            return (0..count).try_for_each(self.task);
        };
        {
            let mut batch = shared.lock();
            (batch.count, batch.next, batch.unfinished) = (count, 0, count);
        }
        shared.opened.notify_all();
        shared.work(self.task, false);
        let mut batch = shared.lock();
        while batch.unfinished > 0 {
            batch = shared.finished.wait(batch).unwrap_or_else(|e| e.into_inner());
        }
        assert!(!batch.panicked, "crew helper panicked");
        batch.failed.take().map_or(Ok(()), |(_, error)| Err(error))
    }
}

impl<E> CrewShared<E> {
    /// The batch state is valid after every update, so a poisoned lock (a
    /// panic elsewhere on the crew) is still safe to read.
    fn lock(&self) -> std::sync::MutexGuard<'_, Batch<E>> {
        self.batch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Claims and runs tasks until the batch has none left (the caller) or
    /// the crew closes (a helper, which parks between batches).
    fn work(&self, task: &(dyn Fn(usize) -> Result<(), E> + Sync), helper: bool) {
        /// Accounts for a claimed task when it finishes — or unwinds, so the
        /// caller is never left waiting for it.
        struct Claimed<'a, E> {
            shared: &'a CrewShared<E>,
            index: usize,
            result: Option<Result<(), E>>,
        }
        impl<E> Drop for Claimed<'_, E> {
            fn drop(&mut self) {
                let mut batch = self.shared.lock();
                match self.result.take() {
                    None => batch.panicked = true,
                    Some(Err(error)) if batch.failed.as_ref().is_none_or(|(at, _)| self.index < *at) => {
                        batch.failed = Some((self.index, error));
                    }
                    Some(_) => {}
                }
                batch.unfinished -= 1;
                if batch.unfinished == 0 {
                    self.shared.finished.notify_one();
                }
            }
        }
        loop {
            let index = {
                let mut batch = self.lock();
                while batch.closed || batch.next >= batch.count {
                    if !helper || batch.closed {
                        return;
                    }
                    batch = self.opened.wait(batch).unwrap_or_else(|e| e.into_inner());
                }
                batch.next += 1;
                batch.next - 1
            };
            let mut claimed = Claimed { shared: self, index, result: None };
            claimed.result = Some(task(index));
        }
    }
}

/// Splits `total` items into contiguous `(start, end)` chunks of at most
/// `chunk_size`, in order — the GOP boundaries of an encode.
pub fn chunk_ranges(total: usize, chunk_size: usize) -> Vec<(usize, usize)> {
    let chunk_size = chunk_size.max(1);
    let mut ranges = Vec::with_capacity(total.div_ceil(chunk_size));
    let mut start = 0;
    while start < total {
        let end = (start + chunk_size).min(total);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 8] {
            let doubled = par_map(threads, &items, |_, &v| v * 2);
            assert_eq!(doubled, items.iter().map(|v| v * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_output_is_identical_to_sequential() {
        let items: Vec<u64> = (0..100).collect();
        let sequential = par_map(1, &items, |i, &v| v.wrapping_mul(31).wrapping_add(i as u64));
        let parallel = par_map(4, &items, |i, &v| v.wrapping_mul(31).wrapping_add(i as u64));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn try_par_map_surfaces_first_error_by_index() {
        let items: Vec<u32> = (0..50).collect();
        let result: Result<Vec<u32>, u32> =
            try_par_map(4, &items, |_, &v| if v == 7 || v == 31 { Err(v) } else { Ok(v) });
        assert_eq!(result.unwrap_err(), 7);
        let ok: Result<Vec<u32>, u32> = try_par_map(4, &items, |_, &v| Ok(v));
        assert_eq!(ok.unwrap(), items);
    }

    #[test]
    fn par_map_runs_items_on_the_calling_thread_too() {
        // Every item waits until `threads` items are running at once, so each
        // thread of the map runs exactly one, and records who ran it.
        for threads in [2usize, 4] {
            let barrier = std::sync::Barrier::new(threads);
            let items: Vec<usize> = (0..threads).collect();
            let ran_on = par_map(threads, &items, |_, _| {
                barrier.wait();
                std::thread::current().id()
            });
            assert!(ran_on.contains(&std::thread::current().id()), "{threads} threads");
        }
    }

    #[test]
    fn threads_per_job_spends_the_budget_on_jobs_first() {
        assert_eq!(threads_per_job(4, 1), 4);
        assert_eq!(threads_per_job(4, 2), 2);
        assert_eq!(threads_per_job(4, 3), 1);
        assert_eq!(threads_per_job(2, 5), 1);
        assert_eq!(threads_per_job(1, 0), 1);
        assert_eq!(threads_per_job(0, 1), available_parallelism());
    }

    #[test]
    fn crew_runs_every_task_of_every_batch_once() {
        for threads in [1usize, 2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
            let batches = with_crew(
                threads,
                |index| {
                    hits[index].fetch_add(1, Ordering::SeqCst);
                    Ok::<(), ()>(())
                },
                |crew| {
                    // A sequential step between batches sees the whole batch.
                    for batch in 1..=50 {
                        crew.run(6).unwrap();
                        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == batch));
                    }
                    crew.run(0).unwrap();
                    50
                },
            );
            assert_eq!(batches, 50);
        }
    }

    #[test]
    fn a_crew_returns_only_once_its_helpers_have_exited() {
        // Each helper holds a thread-local whose destructor runs as its
        // thread exits, after its closure has returned: when the crew waited
        // for the closures only (the scope's own wait), it returned before
        // most of these ran.
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! { static ON_EXIT: OnExit = const { OnExit }; }
        for round in 1..=100 {
            // Three tasks that wait for each other: every thread runs one.
            let barrier = std::sync::Barrier::new(3);
            let caller = std::thread::current().id();
            let task = |_| {
                barrier.wait();
                if std::thread::current().id() != caller {
                    ON_EXIT.with(|_| {});
                }
                Ok::<(), ()>(())
            };
            with_crew(3, task, |crew| crew.run(3)).unwrap();
            assert_eq!(EXITED.load(Ordering::SeqCst), 2 * round, "round {round}");
        }
    }

    #[test]
    fn crew_helpers_take_tasks_off_the_caller() {
        // Both tasks wait for each other: one thread cannot run the batch.
        let barrier = std::sync::Barrier::new(2);
        let ran_on = Mutex::new(Vec::new());
        with_crew(
            2,
            |_| {
                barrier.wait();
                ran_on.lock().unwrap().push(std::thread::current().id());
                Ok::<(), ()>(())
            },
            |crew| crew.run(2).unwrap(),
        );
        let ran_on = ran_on.into_inner().unwrap();
        assert!(ran_on.contains(&std::thread::current().id()));
        assert_ne!(ran_on[0], ran_on[1]);
    }

    #[test]
    fn crew_reports_the_lowest_failed_task_on_any_size_and_keeps_going() {
        for threads in [1usize, 2, 3, 4, 8] {
            let outcome = with_crew(
                threads,
                |index| if index == 2 || index == 4 { Err(index) } else { Ok(()) },
                |crew| {
                    let failed = crew.run(6);
                    // The failure is the batch's, not the crew's.
                    (failed, crew.run(2))
                },
            );
            assert_eq!(outcome, (Err(2), Ok(())), "{threads} threads");
        }
    }

    #[test]
    fn crew_task_panics_propagate_whichever_thread_ran_them() {
        for threads in [1usize, 2, 4] {
            let unwound = std::panic::catch_unwind(|| {
                with_crew(
                    threads,
                    |index| {
                        if index == 3 {
                            panic!("boom");
                        }
                        Ok::<(), ()>(())
                    },
                    |crew| crew.run(8),
                )
            });
            assert!(unwound.is_err(), "{threads} threads");
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        assert_eq!(chunk_ranges(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(chunk_ranges(0, 4), Vec::<(usize, usize)>::new());
        assert_eq!(chunk_ranges(3, 0), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(chunk_ranges(4, 4), vec![(0, 4)]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(4, &empty, |_, &v| v).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u8> = (0..16).collect();
        par_map(2, &items, |_, &v| {
            if v == 9 {
                panic!("boom");
            }
            v
        });
    }
}
