//! # prop-engine — discrete-event simulation substrate
//!
//! The PROP protocols are *asynchronous*: every peer runs its own probe timer
//! with Markov-style exponential backoff, churn arrives as a Poisson process,
//! and the paper's evaluation plots metrics against wall-clock simulation
//! time. This crate provides the minimal, deterministic kernel all of that
//! runs on:
//!
//! * [`SimTime`] / [`Duration`] — a millisecond-granularity simulated clock.
//! * [`EventQueue`] — a stable (FIFO within a timestamp) pending-event set:
//!   a hierarchical timer wheel with amortized O(1) schedule/pop.
//! * [`SimRng`] — seedable, stream-splittable ChaCha8 randomness so every
//!   experiment is reproducible bit-for-bit.
//! * [`json`] — the workspace's JSON wire format: scenario files in, reports
//!   and sweep state out.
//! * [`par`] — fan-out over independent runs (seeds, curves), results in
//!   input order.
//! * [`MarkovTimer`] — the paper's §3.2 probe-interval controller (double on
//!   failure, reset on success or on exceeding `MAX_TIMER`).
//! * [`alloc_track`] — an opt-in counting global allocator so perf claims
//!   ("zero allocations per steady-state trial") are testable, not folklore.
//!
//! The kernel is intentionally *pull-based*: the simulation driver pops
//! `(time, event)` pairs and dispatches them itself. This keeps the kernel
//! free of trait objects and borrows, which matters because handlers need
//! `&mut` access to large shared state (the overlay, the latency oracle).

pub mod alloc_track;
pub mod backoff;
pub mod json;
pub mod par;
pub mod queue;
pub mod rng;
pub mod time;

pub use alloc_track::{
    allocation_count, counting_active, thread_allocation_count, CountingAllocator,
};
pub use backoff::MarkovTimer;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{window_overlap_ms, Duration, SimTime};
