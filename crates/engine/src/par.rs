//! Fan-out over independent work.
//!
//! One simulation is sequential by construction; what the experiments have
//! many of is *independent runs* — seeds of a sweep, curves of a panel,
//! overlay families of a table — and what one run's measurement has many
//! of is independent pairs of a pair list. [`map`] spreads runs over the
//! machine's cores and [`map_init`] spreads pairs, each worker keeping one
//! state (a flood scratch) for every pair it takes; [`map`] is the case
//! with no state. Both hand the results back in input order, so the output
//! of a caller never depends on how many cores there were.

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

thread_local! {
    /// Set on a thread while it works for [`map_on`] — the caller's
    /// included: a nested `map` runs inline instead of multiplying threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Holds what [`IN_WORKER`] was before this thread started working, and
/// puts it back when dropped — on the calling thread too when `f` unwinds.
struct Working(bool);

impl Drop for Working {
    fn drop(&mut self) {
        IN_WORKER.set(self.0);
    }
}

/// How many items a worker claims from the shared counter at once, at
/// most: small, so the workers finish close together, and never more than
/// the caller's `min_len`, so [`map`]'s items — whole runs — go one by one.
const BATCH: usize = 16;

/// `f` applied to every item, results in input order. Runs on up to one
/// thread per available core, the calling thread one of them; inline when
/// there is one core or one item, or when called from inside another `map`.
/// A panic in `f` is re-raised here.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    map_init(items, 1, || (), |(), item| f(item))
}

/// `f` applied to every item with a state of its worker's own, results in
/// input order: `init` makes a worker's state when the worker claims its
/// first items, and the worker keeps it for every item it takes after. One
/// worker per `min_len` items (0 counts as 1), up to one per core, so a
/// list of at most `min_len` items is done inline, with one state. Workers
/// claim a few items at a time from one counter, so none is left with a
/// long tail. Which worker took which item — and so which state saw it —
/// depends on the machine: only what `f` returns for an item reaches the
/// caller. A panic in `init` or `f` is re-raised here.
pub fn map_init<T: Sync, S, R: Send>(
    items: &[T],
    min_len: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    map_on(cores, items, min_len, init, f)
}

/// How many workers `len` items get on `cores` cores when each must be
/// given at least `min_len` (not 0) of them.
fn worker_count(cores: usize, len: usize, min_len: usize) -> usize {
    cores.min(len.div_ceil(min_len))
}

fn map_on<T: Sync, S, R: Send>(
    cores: usize,
    items: &[T],
    min_len: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let min_len = min_len.max(1);
    let workers = worker_count(cores, items.len(), min_len);
    if workers <= 1 || IN_WORKER.get() {
        let mut state = None;
        return items.iter().map(|item| f(state.get_or_insert_with(&init), item)).collect();
    }
    let batch = BATCH.min(min_len);
    // Relaxed: the counter hands out indices and publishes nothing else;
    // `items` is shared before the spawn and results come back through join.
    let next = AtomicUsize::new(0);
    let work = || {
        let _working = Working(IN_WORKER.replace(true));
        let (mut state, mut done) = (None, Vec::new());
        loop {
            let start = next.fetch_add(batch, Ordering::Relaxed);
            if start >= items.len() {
                break done;
            }
            let claimed = &items[start..items.len().min(start + batch)];
            let state = state.get_or_insert_with(&init);
            done.extend(claimed.iter().enumerate().map(|(i, item)| (start + i, f(state, item))));
        }
    };
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let mut fill = |done: Vec<(usize, R)>| done.into_iter().for_each(|(i, r)| slots[i] = Some(r));
    thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        fill(work());
        for handle in handles {
            match handle.join() {
                Ok(done) => fill(done),
                Err(panic) => resume_unwind(panic),
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every index was handed to exactly one worker")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// [`map`] on a given number of workers.
    fn map_n<T: Sync, R: Send>(workers: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        map_on(workers, items, 1, || (), |(), item| f(item))
    }

    #[test]
    fn order_is_kept_at_every_worker_count() {
        let items: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [1, 2, 3, 7] {
            assert_eq!(map_n(workers, &items, |x| x * x + 1), expect, "{workers} workers");
        }
        assert_eq!(map(&items, |x| x * x + 1), expect);
    }

    #[test]
    fn more_workers_than_items_and_empty_input() {
        assert_eq!(map_n(16, &[1, 2, 3], |x| x + 1), vec![2, 3, 4]);
        assert_eq!(map_n(4, &[] as &[u8], |x| *x), Vec::<u8>::new());
        assert_eq!(map_n(4, &[9], |x| *x), vec![9]);
    }

    #[test]
    fn workers_really_run_side_by_side() {
        // Every item waits for all the others: this finishes only if the
        // three items are on three live threads at once.
        let barrier = Barrier::new(3);
        let ids = map_n(3, &[0, 1, 2], |_| {
            barrier.wait();
            thread::current().id()
        });
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
    }

    #[test]
    fn the_caller_is_one_of_the_workers_and_a_second_map_still_fans_out() {
        let me = thread::current().id();
        for call in 0..2 {
            // Both items wait for each other, so they run on two live
            // threads at once — and with two workers one is the caller's.
            let barrier = Barrier::new(2);
            let ids = map_n(2, &[0, 1], |_| {
                barrier.wait();
                thread::current().id()
            });
            assert!(ids[0] != ids[1] && ids.contains(&me), "call {call}: {ids:?}");
            // Left set, the next call would run inline and wait forever.
            assert!(!IN_WORKER.get(), "call {call} left the caller marked a worker");
        }
    }

    #[test]
    fn nested_call_runs_inline() {
        let outer = map_n(2, &[10, 20], |&base| {
            let me = thread::current().id();
            let inner = map_n(4, &[1, 2, 3], |&x| (thread::current().id(), base + x));
            assert!(inner.iter().all(|(id, _)| *id == me), "nested map left its worker");
            inner.into_iter().map(|(_, v)| v).collect::<Vec<_>>()
        });
        assert_eq!(outer, vec![vec![11, 12, 13], vec![21, 22, 23]]);
    }

    #[test]
    #[should_panic(expected = "item 5 is bad")]
    fn a_workers_panic_is_re_raised() {
        map_n(3, &(0..9).collect::<Vec<u32>>(), |&x| {
            assert!(x != 5, "item {x} is bad");
            x
        });
    }

    /// The per-worker state: at every worker count and share, each index is
    /// claimed once and comes back in its place, and a worker makes its
    /// state once — only if it claims something — and keeps it for every
    /// item it takes. A list of at most `min_len` items stays on the
    /// calling thread.
    #[test]
    fn per_worker_state_is_made_once_and_results_keep_their_places() {
        let shares = [(0, 16), (1, 16), (16, 16), (17, 16), (100, 1), (100, 10), (600, 256)];
        for workers in [1, 2, 3, 7] {
            for (len, min_len) in shares {
                let at = format!("{workers} workers, {len} items, min_len {min_len}");
                let items: Vec<usize> = (0..len).collect();
                let claims: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
                let made = AtomicUsize::new(0);
                let init = || {
                    made.fetch_add(1, Ordering::Relaxed);
                    (thread::current().id(), 0)
                };
                let out = map_on(workers, &items, min_len, init, |(owner, seen), &i| {
                    claims[i].fetch_add(1, Ordering::Relaxed);
                    assert_eq!(*owner, thread::current().id(), "{at}: a state crossed threads");
                    *seen += 1;
                    (i, *owner, *seen)
                });
                assert!(claims.iter().all(|c| c.load(Ordering::Relaxed) == 1), "{at}: claims");
                assert_eq!(out.iter().map(|o| o.0).collect::<Vec<_>>(), items, "{at}: order");
                // A worker's count of the items its state saw runs 1, 2, 3, …:
                // a second state on one thread would start it again.
                let mut seen: HashMap<ThreadId, Vec<usize>> = HashMap::new();
                for &(_, id, n) in &out {
                    seen.entry(id).or_default().push(n);
                }
                for counts in seen.values_mut() {
                    counts.sort_unstable();
                    assert!(counts.iter().copied().eq(1..=counts.len()), "{at}: {counts:?}");
                }
                assert_eq!(made.into_inner(), seen.len(), "{at}: states made");
                assert!(seen.len() <= worker_count(workers, len, min_len), "{at}: workers");
                if len <= min_len {
                    let me = thread::current().id();
                    assert!(out.iter().all(|o| o.1 == me), "{at}: a short list left the caller");
                }
            }
        }
    }

    #[test]
    fn one_worker_per_min_len_items_up_to_the_core_count() {
        for (cores, len, min_len, want) in [
            (2, 0, 256, 0),
            (2, 1, 256, 1),
            (2, 256, 256, 1),
            (2, 257, 256, 2),
            (2, 600, 256, 2),
            (7, 600, 256, 3),
            (1, 600, 256, 1),
            (7, 100, 1, 7),
            (3, 2, 1, 2),
        ] {
            assert_eq!(worker_count(cores, len, min_len), want, "{cores} cores, {len} / {min_len}");
        }
    }

    #[test]
    #[should_panic(expected = "item 40 is bad")]
    fn a_workers_panic_is_re_raised_with_state() {
        let items: Vec<u32> = (0..100).collect();
        map_on(
            3,
            &items,
            10,
            || 0u32,
            |n, &x| {
                assert!(x != 40, "item {x} is bad");
                *n += 1;
                x
            },
        );
    }
}
