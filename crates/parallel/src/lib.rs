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

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

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
        for _ in 0..helpers {
            scope.spawn(|| shared.work(&task, true));
        }
        let _close = Close(&shared);
        body(&Crew { task: &task, shared: Some(&shared) })
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

/// A bounded, in-order background prefetcher: a pool of worker threads maps
/// `f` over a list of owned work items, delivering the results **in input
/// order** through [`recv`](OrderedPrefetch::recv) while never running more
/// than `depth` items ahead of the consumer.
///
/// This is the pipelining counterpart of [`par_map`]: where `par_map` is a
/// barrier (the caller blocks until every output exists), `OrderedPrefetch`
/// overlaps production with consumption — the VSS streaming read path uses it
/// to decode GOP *n + k* on a worker while the consumer is still processing
/// GOP *n*. The in-order delivery makes the consumer's view identical to a
/// sequential loop over the items, so pipelined output is byte-identical to
/// synchronous output by construction.
///
/// Work items are **moved in** (and shared behind an `Arc`), so the bounds on
/// this type never force callers to make *their* data `'static` — the
/// prefetcher owns everything it touches, which is what lets `ReadStream`
/// keep its snapshot-then-iterate API unchanged.
///
/// Dropping the prefetcher cancels it: unclaimed items are abandoned, workers
/// finish (at most) the item they are currently computing, and every worker
/// thread is joined before `drop` returns — no threads outlive the value.
pub struct OrderedPrefetch<T> {
    shared: Arc<PrefetchShared<T>>,
    workers: Vec<JoinHandle<()>>,
}

struct PrefetchShared<T> {
    state: Mutex<PrefetchState<T>>,
    /// Signalled when a claim becomes available (consumer advanced) or on
    /// cancellation; workers wait here.
    work_ready: Condvar,
    /// Signalled when a result lands (or on worker panic / cancellation);
    /// the consumer waits here.
    result_ready: Condvar,
}

struct PrefetchState<T> {
    /// Completed results awaiting in-order delivery, keyed by input index.
    done: BTreeMap<usize, T>,
    /// Next input index a worker may claim.
    next_claim: usize,
    /// Next input index the consumer will receive.
    next_deliver: usize,
    total: usize,
    /// Maximum claimed-but-undelivered items (the lookahead window).
    depth: usize,
    cancelled: bool,
    /// Set when a worker's closure panicked, so the consumer fails loudly
    /// instead of waiting forever for an index that will never arrive.
    poisoned: bool,
}

/// Marks the prefetcher poisoned if the worker closure unwinds.
struct PoisonGuard<'a, T> {
    shared: &'a PrefetchShared<T>,
    armed: bool,
}

impl<T> Drop for PoisonGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).poisoned = true;
            self.shared.result_ready.notify_all();
        }
    }
}

impl<T: Send + 'static> OrderedPrefetch<T> {
    /// Spawns a prefetcher over `items` with up to `threads` workers
    /// (resolved via [`resolve_threads`], then capped by `depth` and the item
    /// count) and a lookahead window of `depth` items (minimum 1).
    pub fn spawn<I, F>(threads: usize, depth: usize, items: Vec<I>, f: F) -> Self
    where
        I: Send + Sync + 'static,
        F: Fn(usize, &I) -> T + Send + Sync + 'static,
    {
        let depth = depth.max(1);
        let total = items.len();
        let workers = resolve_threads(threads).min(depth).min(total.max(1));
        let shared = Arc::new(PrefetchShared {
            state: Mutex::new(PrefetchState {
                done: BTreeMap::new(),
                next_claim: 0,
                next_deliver: 0,
                total,
                depth,
                cancelled: false,
                poisoned: false,
            }),
            work_ready: Condvar::new(),
            result_ready: Condvar::new(),
        });
        let items = Arc::new(items);
        let f = Arc::new(f);
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let items = Arc::clone(&items);
                let f = Arc::clone(&f);
                std::thread::spawn(move || loop {
                    let index = {
                        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                        loop {
                            if state.cancelled || state.next_claim >= state.total {
                                return;
                            }
                            if state.next_claim < state.next_deliver + state.depth {
                                break;
                            }
                            state =
                                shared.work_ready.wait(state).unwrap_or_else(|e| e.into_inner());
                        }
                        let index = state.next_claim;
                        state.next_claim += 1;
                        index
                    };
                    let mut guard = PoisonGuard { shared: &shared, armed: true };
                    let value = f(index, &items[index]);
                    guard.armed = false;
                    drop(guard);
                    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                    if state.cancelled {
                        return;
                    }
                    state.done.insert(index, value);
                    shared.result_ready.notify_all();
                })
            })
            .collect();
        Self { shared, workers: handles }
    }

    /// Receives the next result in input order, blocking until a worker
    /// produces it. Returns `None` once every item has been delivered.
    ///
    /// # Panics
    ///
    /// Panics if a worker's closure panicked (the work that index represents
    /// can never be delivered).
    pub fn recv(&mut self) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            assert!(!state.poisoned, "prefetch worker panicked");
            if state.next_deliver >= state.total {
                return None;
            }
            let next = state.next_deliver;
            if let Some(value) = state.done.remove(&next) {
                state.next_deliver += 1;
                // Advancing the consumer cursor frees one claim slot.
                self.shared.work_ready.notify_all();
                return Some(value);
            }
            state = self.shared.result_ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Items claimed by workers but not yet delivered (bounded by `depth`).
    pub fn in_flight(&self) -> usize {
        let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.next_claim - state.next_deliver
    }
}

impl<T> Drop for OrderedPrefetch<T> {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.cancelled = true;
        }
        self.shared.work_ready.notify_all();
        self.shared.result_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
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
    fn ordered_prefetch_delivers_in_input_order() {
        let items: Vec<u64> = (0..64).collect();
        for (threads, depth) in [(1, 1), (2, 2), (4, 4), (4, 8)] {
            let mut prefetch =
                OrderedPrefetch::spawn(threads, depth, items.clone(), |i, &v| (i, v * 3));
            let mut received = Vec::new();
            while let Some(value) = prefetch.recv() {
                received.push(value);
            }
            let expected: Vec<(usize, u64)> =
                items.iter().enumerate().map(|(i, &v)| (i, v * 3)).collect();
            assert_eq!(received, expected);
            assert!(prefetch.recv().is_none(), "exhausted prefetch stays exhausted");
        }
    }

    #[test]
    fn ordered_prefetch_respects_the_lookahead_window() {
        // With depth 2 and a blocked consumer, workers may run at most 2
        // items ahead; the produced counter can never exceed consumed + 2.
        let produced = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&produced);
        let items: Vec<u32> = (0..32).collect();
        let mut prefetch = OrderedPrefetch::spawn(4, 2, items, move |_, &v| {
            counter.fetch_add(1, Ordering::SeqCst);
            v
        });
        let mut consumed = 0usize;
        while prefetch.recv().is_some() {
            consumed += 1;
            let ahead = produced.load(Ordering::SeqCst).saturating_sub(consumed);
            assert!(ahead <= 2, "workers ran {ahead} items ahead of a depth-2 window");
        }
        assert_eq!(consumed, 32);
    }

    #[test]
    fn ordered_prefetch_drop_cancels_and_joins() {
        // Drop after one receive: remaining work is abandoned, all workers
        // join, and far fewer than `total` items were computed.
        let produced = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&produced);
        let items: Vec<u32> = (0..1000).collect();
        let mut prefetch = OrderedPrefetch::spawn(4, 3, items, move |_, &v| {
            counter.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            v
        });
        assert_eq!(prefetch.recv(), Some(0));
        drop(prefetch); // joins every worker before returning
        let total = produced.load(Ordering::SeqCst);
        assert!(total <= 16, "cancellation should abandon unclaimed work, computed {total}");
    }

    #[test]
    fn ordered_prefetch_empty_input_is_exhausted_immediately() {
        let mut prefetch = OrderedPrefetch::spawn(4, 4, Vec::<u8>::new(), |_, &v| v);
        assert_eq!(prefetch.recv(), None);
    }

    #[test]
    #[should_panic(expected = "prefetch worker panicked")]
    fn ordered_prefetch_worker_panics_surface_on_recv() {
        let items: Vec<u8> = (0..8).collect();
        let mut prefetch = OrderedPrefetch::spawn(2, 2, items, |_, &v| {
            if v == 0 {
                panic!("boom");
            }
            v
        });
        while prefetch.recv().is_some() {}
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
