//! Fan-out over independent runs.
//!
//! One simulation is sequential by construction; what the experiments have
//! many of is *independent runs* — seeds of a sweep, curves of a panel,
//! overlay families of a table. [`map`] spreads those over the machine's
//! cores and hands the results back in input order, so the output of a
//! caller never depends on how many cores there were.

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

thread_local! {
    /// Set on the threads [`map_on`] spawns: a nested `map` runs inline
    /// instead of multiplying threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `f` applied to every item, results in input order. Runs on up to one
/// thread per available core; inline when there is one core or one item, or
/// when called from inside another `map`. A panic in `f` is re-raised here.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    map_on(cores, items, f)
}

fn map_on<T: Sync, R: Send>(workers: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 || IN_WORKER.get() {
        return items.iter().map(f).collect();
    }
    // Relaxed: the counter hands out indices and publishes nothing else;
    // `items` is shared before the spawn and results come back through join.
    let next = AtomicUsize::new(0);
    let work = || {
        IN_WORKER.set(true);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break done };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
                Err(panic) => resume_unwind(panic),
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every index was handed to exactly one worker")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn order_is_kept_at_every_worker_count() {
        let items: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [1, 2, 3, 7] {
            assert_eq!(map_on(workers, &items, |x| x * x + 1), expect, "{workers} workers");
        }
        assert_eq!(map(&items, |x| x * x + 1), expect);
    }

    #[test]
    fn more_workers_than_items_and_empty_input() {
        assert_eq!(map_on(16, &[1, 2, 3], |x| x + 1), vec![2, 3, 4]);
        assert_eq!(map_on(4, &[] as &[u8], |x| *x), Vec::<u8>::new());
        assert_eq!(map_on(4, &[9], |x| *x), vec![9]);
    }

    #[test]
    fn workers_really_run_side_by_side() {
        // Every item waits for all the others: this finishes only if the
        // three items are on three live threads at once.
        let barrier = Barrier::new(3);
        let ids = map_on(3, &[0, 1, 2], |_| {
            barrier.wait();
            thread::current().id()
        });
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
    }

    #[test]
    fn nested_call_runs_inline() {
        let outer = map_on(2, &[10, 20], |&base| {
            let me = thread::current().id();
            let inner = map_on(4, &[1, 2, 3], |&x| (thread::current().id(), base + x));
            assert!(inner.iter().all(|(id, _)| *id == me), "nested map left its worker");
            inner.into_iter().map(|(_, v)| v).collect::<Vec<_>>()
        });
        assert_eq!(outer, vec![vec![11, 12, 13], vec![21, 22, 23]]);
    }

    #[test]
    #[should_panic(expected = "item 5 is bad")]
    fn a_workers_panic_is_re_raised() {
        map_on(3, &(0..9).collect::<Vec<u32>>(), |&x| {
            assert!(x != 5, "item {x} is bad");
            x
        });
    }
}
