//! Heap-allocation accounting for perf proofs.
//!
//! The drivers claim **zero heap allocations per steady-state Walk-mode
//! trial** (DESIGN §16). That claim is only worth committing if a test can
//! falsify it, so this module provides a [`CountingAllocator`]: a
//! pass-through wrapper over the [`System`] allocator that counts every
//! `alloc`/`realloc` call in a process-global atomic.
//!
//! A binary (or integration-test binary — `#[global_allocator]` is
//! per-binary) opts in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: prop_engine::CountingAllocator = prop_engine::CountingAllocator;
//! ```
//!
//! [`allocation_count`] then reads the running total, and a window's
//! allocations are `after - before`. [`thread_allocation_count`] is the same
//! count for the calling thread alone, for a window that the process's
//! other threads (a test harness's among them) must not land in. In a
//! binary that did *not* install the
//! allocator the counter never moves; [`counting_active`] distinguishes the
//! two so metric producers (the `perf` binary's `allocs_per_trial` field)
//! can report "not measured" instead of a vacuous zero.
//!
//! Deallocations are deliberately not tracked: the regression target is
//! "the hot path never enters the allocator", and `alloc + realloc` is the
//! precise count of such entries that can grow memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates, so the allocator itself may touch it.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count_entry() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// A `#[global_allocator]` wrapper over [`System`] that counts every
/// allocator entry (`alloc`, `alloc_zeroed`, `realloc`), process-wide and
/// per thread.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_entry();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_entry();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_entry();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Total allocator entries since process start, as counted by
/// [`CountingAllocator`]. Stays at 0 forever if the allocator was never
/// installed as `#[global_allocator]`.
#[inline]
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocator entries made by the calling thread since it started, as
/// counted by [`CountingAllocator`] (0 forever without it).
#[inline]
pub fn thread_allocation_count() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Is the counting allocator actually installed in this binary? Probes by
/// performing one boxed allocation and checking whether the counter moved.
pub fn counting_active() -> bool {
    let before = allocation_count();
    let probe = Box::new(0u64);
    std::hint::black_box(&probe);
    drop(probe);
    allocation_count() > before
}

#[cfg(test)]
mod tests {
    use super::*;

    // The engine's own unit-test binary does not install the allocator, so
    // only the passive behaviors are testable here; the armed path is
    // exercised by prop-core's alloc_regression integration test.
    #[test]
    fn inactive_binary_reports_inactive() {
        assert!(!counting_active());
        assert_eq!(allocation_count(), 0);
        assert_eq!(thread_allocation_count(), 0);
    }
}
