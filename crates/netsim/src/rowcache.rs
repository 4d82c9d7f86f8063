//! Sharded LRU cache of latency-oracle rows.
//!
//! One entry is a full source row: `d(src, ·)` over all members, 4 bytes a
//! member. Rows are expensive to make (a search of the physical graph)
//! and cheap to keep, so the cache is bounded in **bytes**, not entries:
//! the capacity is split evenly over `shards` independently-locked LRU
//! shards (a source's rows always live in shard `src % shards`), and each
//! shard evicts its least-recently-used rows when over budget.
//!
//! Invariant: a shard never evicts its *last* row, so a single over-sized
//! row still caches (resident bytes then exceed the configured capacity by
//! at most `shards × row_bytes`; with any sane configuration
//! `row_bytes × shards ≪ capacity` and residency stays under the cap —
//! asserted by `tests/scale_cap.rs`).
//!
//! Hit/miss/eviction counters are plain relaxed atomics — they are
//! reporting, not synchronization.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Snapshot of the row cache's counters, for experiment reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Queries answered from a resident row.
    pub hits: u64,
    /// Queries that forced a row computation (those via `warm` count
    /// one miss per computed row).
    pub misses: u64,
    /// Rows dropped by the LRU policy.
    pub evictions: u64,
    /// Rows currently resident.
    pub resident_rows: usize,
    /// Bytes currently resident (rows only, excluding bookkeeping).
    pub resident_bytes: usize,
    /// High-water mark of `resident_bytes` over the cache's lifetime.
    pub peak_resident_bytes: usize,
    /// Configured byte budget.
    pub capacity_bytes: usize,
}

impl CacheStats {
    /// Fraction of queries served from a resident row, in `[0, 1]`
    /// (`NaN`-free: 0 when nothing was asked yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference versus an earlier snapshot (gauges are kept from
    /// `self`).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            ..*self
        }
    }
}

struct Entry {
    row: Arc<[u32]>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    rows: HashMap<usize, Entry>,
    /// Monotonic use counter; higher = more recently used.
    tick: u64,
}

/// The sharded, byte-bounded LRU row store.
pub struct RowCache {
    shards: Box<[Mutex<Shard>]>,
    /// Byte budget per shard.
    shard_capacity: usize,
    /// Bytes one row occupies (`4 × n`).
    row_bytes: usize,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident_bytes: AtomicUsize,
    peak_resident_bytes: AtomicUsize,
}

impl RowCache {
    /// A cache for rows of `row_len` `u32`s, bounded by `capacity_bytes`
    /// split over `shards` locks.
    pub fn new(row_len: usize, capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        RowCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity_bytes / shards,
            row_bytes: row_len * std::mem::size_of::<u32>(),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            peak_resident_bytes: AtomicUsize::new(0),
        }
    }

    /// Lock the shard that holds `src`. A poisoned lock hands back its
    /// guard: a shard is a map of whole rows and a tick, valid after every
    /// single update, so a panic elsewhere while it was held leaves nothing
    /// half-written (at worst a reporting counter is one row off).
    #[inline]
    fn shard(&self, src: usize) -> MutexGuard<'_, Shard> {
        self.shards[src % self.shards.len()].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fetch the row for `src` if resident, bumping its recency and the hit
    /// counter. Misses are *not* counted here — the caller records one miss
    /// per row it actually computes (a `d(a, b)` query probes both `a` and
    /// `b`, and must not count twice).
    pub fn get(&self, src: usize) -> Option<Arc<[u32]>> {
        let mut shard = self.shard(src);
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.rows.get_mut(&src)?;
        entry.last_used = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.row))
    }

    /// Is the row for `src` resident? No counter or recency side effects.
    pub fn contains(&self, src: usize) -> bool {
        self.shard(src).rows.contains_key(&src)
    }

    /// Record one computed row.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert a freshly computed row, evicting LRU rows while the shard is
    /// over budget. A concurrent duplicate insert is benign: the second
    /// copy replaces the first.
    pub fn insert(&self, src: usize, row: Arc<[u32]>) {
        debug_assert_eq!(row.len() * std::mem::size_of::<u32>(), self.row_bytes);
        let mut shard = self.shard(src);
        shard.tick += 1;
        let tick = shard.tick;
        if shard.rows.insert(src, Entry { row, last_used: tick }).is_none() {
            self.add_resident(self.row_bytes);
        }
        while shard.rows.len() * self.row_bytes > self.shard_capacity && shard.rows.len() > 1 {
            let (&lru, _) = shard
                .rows
                .iter()
                .filter(|&(&k, _)| k != src)
                .min_by_key(|(_, e)| e.last_used)
                .expect("len > 1 so another key exists");
            shard.rows.remove(&lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.resident_bytes.fetch_sub(self.row_bytes, Ordering::Relaxed);
        }
    }

    fn add_resident(&self, bytes: usize) {
        let now = self.resident_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_resident_bytes.fetch_max(now, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let resident_bytes = self.resident_bytes.load(Ordering::Relaxed);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_rows: resident_bytes / self.row_bytes.max(1),
            resident_bytes,
            peak_resident_bytes: self.peak_resident_bytes.load(Ordering::Relaxed),
            capacity_bytes: self.capacity_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(len: usize, fill: u32) -> Arc<[u32]> {
        vec![fill; len].into()
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = RowCache::new(8, 1 << 20, 4);
        assert!(c.get(0).is_none());
        c.record_miss();
        c.insert(0, row(8, 7));
        let r = c.get(0).expect("resident");
        assert_eq!(r[3], 7);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_rows, 1);
        assert_eq!(s.resident_bytes, 32);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent_within_shard() {
        // One shard, room for exactly two 32-byte rows.
        let c = RowCache::new(8, 64, 1);
        c.insert(0, row(8, 0));
        c.insert(1, row(8, 1));
        assert!(c.get(0).is_some()); // 0 now more recent than 1
        c.insert(2, row(8, 2)); // over budget ⇒ evict 1
        assert!(c.contains(0));
        assert!(!c.contains(1));
        assert!(c.contains(2));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= 64);
    }

    #[test]
    fn never_evicts_the_only_row() {
        // Capacity smaller than a single row: the fresh row must survive.
        let c = RowCache::new(8, 16, 1);
        c.insert(0, row(8, 0));
        assert!(c.contains(0));
        c.insert(1, row(8, 1));
        assert!(c.contains(1));
        assert!(!c.contains(0), "old row evicted in favor of the fresh one");
        assert_eq!(c.stats().resident_rows, 1);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let c = RowCache::new(8, 32, 1); // one row fits
        c.insert(0, row(8, 0));
        c.insert(1, row(8, 1));
        let s = c.stats();
        assert_eq!(s.resident_bytes, 32);
        // Insert-then-evict briefly held two rows.
        assert_eq!(s.peak_resident_bytes, 64);
    }

    #[test]
    fn shards_are_independent() {
        let c = RowCache::new(8, 128, 4); // 32 B per shard = 1 row each
        for src in 0..4 {
            c.insert(src, row(8, src as u32));
        }
        for src in 0..4 {
            assert!(c.contains(src), "each shard holds its own row");
        }
    }

    #[test]
    fn since_diffs_counters_only() {
        let c = RowCache::new(8, 1 << 20, 1);
        c.record_miss();
        c.insert(0, row(8, 0));
        let early = c.stats();
        c.get(0);
        c.get(0);
        let diff = c.stats().since(&early);
        assert_eq!((diff.hits, diff.misses), (2, 0));
        assert_eq!(diff.resident_rows, 1);
    }

    #[test]
    fn since_saturates_on_reversed_snapshots() {
        let c = RowCache::new(8, 32, 1); // one row fits
        let early = c.stats();
        c.record_miss();
        c.insert(0, row(8, 0));
        c.get(0);
        c.insert(1, row(8, 1)); // evicts 0
        let late = c.stats();
        assert_eq!((late.hits, late.misses, late.evictions), (1, 1, 1));
        // Snapshots handed over in the wrong order read zero, not a
        // debug-build overflow panic (as `Overhead::since` does).
        let diff = early.since(&late);
        assert_eq!((diff.hits, diff.misses, diff.evictions), (0, 0, 0));
    }
}
