//! Sharded LRU cache of latency-oracle rows.
//!
//! One entry is the row its store keeps for one source member, 2 bytes a
//! cell ([`RowMs`]: the physical model prices a link at 100, 20 or 5 ms,
//! and `RowStore::try_build` refuses a member set whose latencies could
//! pass the type). On a graph the row kernel decomposes that is `d(src, ·)`
//! over the hosts of the source's own stub domain — every other pair is
//! answered without a row — and on any other graph `d(src, ·)` over all
//! members. The cache does not know which: an entry is accounted by its own
//! length, so rows of different domains share one budget. Rows are
//! expensive to make (a search of the physical graph) and cheap to keep, so
//! the cache is bounded in **bytes**, not entries: the capacity is split
//! evenly over `shards` independently-locked LRU shards (a source's row
//! always lives in shard `src % shards`), and each shard evicts its
//! least-recently-used rows while over budget.
//!
//! Invariant: a shard never evicts its *last* row, so a single over-sized
//! row still caches (resident bytes then exceed the configured capacity by
//! at most `shards ×` the widest row; with any sane configuration that is
//! far below the capacity and residency stays under the cap — asserted by
//! `tests/scale_cap.rs`).
//!
//! Hit/miss/eviction counters are plain relaxed atomics — they are
//! reporting, not synchronization.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One stored latency, ms. The only width a kept row has; `d` widens it to
/// the `u32` every caller reads.
pub(crate) type RowMs = u16;

/// Snapshot of the row cache's counters, for experiment reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Queries answered from a resident row.
    pub hits: u64,
    /// Rows computed and stored: one per `d` miss, the only way a row
    /// enters the cache.
    pub misses: u64,
    /// Rows dropped by the LRU policy.
    pub evictions: u64,
    /// Rows currently resident, of whatever lengths.
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
    row: Arc<[RowMs]>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    rows: HashMap<usize, Entry>,
    /// Bytes of the rows above, each by its own length.
    bytes: usize,
    /// Monotonic use counter; higher = more recently used.
    tick: u64,
}

impl Shard {
    /// Make `src`'s row, if resident, the shard's most recently used.
    fn bump(&mut self, src: usize) -> Option<&Entry> {
        self.tick += 1;
        let entry = self.rows.get_mut(&src)?;
        entry.last_used = self.tick;
        Some(entry)
    }
}

/// The sharded, byte-bounded LRU row store.
pub struct RowCache {
    shards: Box<[Mutex<Shard>]>,
    /// Byte budget per shard.
    shard_capacity: usize,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident_rows: AtomicUsize,
    resident_bytes: AtomicUsize,
    peak_resident_bytes: AtomicUsize,
}

impl RowCache {
    /// A cache of [`RowMs`] rows, bounded by `capacity_bytes` split over
    /// `shards` locks.
    pub fn new(capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        RowCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity_bytes / shards,
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_rows: AtomicUsize::new(0),
            resident_bytes: AtomicUsize::new(0),
            peak_resident_bytes: AtomicUsize::new(0),
        }
    }

    /// Lock the shard that holds `src`. A poisoned lock hands back its
    /// guard: a shard is a map of finished rows, their byte total and a
    /// tick, valid after every single update, so a panic elsewhere while it
    /// was held leaves nothing half-written (at worst a reporting counter is
    /// one row off).
    #[inline]
    fn shard(&self, src: usize) -> MutexGuard<'_, Shard> {
        self.shards[src % self.shards.len()].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fetch the row for `src` if resident, bumping its recency and the hit
    /// counter. Misses are *not* counted here — [`Self::insert`] counts
    /// one per row it stores (a `d(a, b)` query probes both `a` and `b`,
    /// and must not count twice).
    pub fn get(&self, src: usize) -> Option<Arc<[RowMs]>> {
        let row = Arc::clone(&self.shard(src).bump(src)?.row);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(row)
    }

    /// Is the row for `src` resident? No counter or recency side effects.
    #[cfg(test)]
    fn contains(&self, src: usize) -> bool {
        self.shard(src).rows.contains_key(&src)
    }

    /// Insert the row a miss just computed, counting that miss, and evict
    /// LRU rows while the shard is over budget. A concurrent duplicate
    /// insert is benign: the second copy replaces the first.
    pub fn insert(&self, src: usize, row: Arc<[RowMs]>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let bytes = std::mem::size_of_val(&*row);
        let mut shard = self.shard(src);
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(old) = shard.rows.insert(src, Entry { row, last_used: tick }) {
            self.drop_resident(&mut shard, &old);
        }
        shard.bytes += bytes;
        self.resident_rows.fetch_add(1, Ordering::Relaxed);
        let now = self.resident_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_resident_bytes.fetch_max(now, Ordering::Relaxed);
        while shard.bytes > self.shard_capacity && shard.rows.len() > 1 {
            let (&lru, _) = shard
                .rows
                .iter()
                .filter(|&(&k, _)| k != src)
                .min_by_key(|(_, e)| e.last_used)
                .expect("len > 1 so another key exists");
            let evicted = shard.rows.remove(&lru).expect("the key was just found");
            self.drop_resident(&mut shard, &evicted);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take a row that has left `shard`'s map out of the byte and row counts.
    fn drop_resident(&self, shard: &mut Shard, gone: &Entry) {
        let bytes = std::mem::size_of_val(&*gone.row);
        shard.bytes -= bytes;
        self.resident_rows.fetch_sub(1, Ordering::Relaxed);
        self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_rows: self.resident_rows.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak_resident_bytes.load(Ordering::Relaxed),
            capacity_bytes: self.capacity_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries of the 32-byte row the byte budgets below are written in.
    const LEN: usize = 16;

    fn row(fill: RowMs) -> Arc<[RowMs]> {
        vec![fill; LEN].into()
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = RowCache::new(1 << 20, 4);
        assert!(c.get(0).is_none());
        c.insert(0, row(7));
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
        let c = RowCache::new(64, 1);
        c.insert(0, row(0));
        c.insert(1, row(1));
        assert!(c.get(0).is_some()); // 0 now more recent than 1
        c.insert(2, row(2)); // over budget ⇒ evict 1
        assert!(c.contains(0));
        assert!(!c.contains(1));
        assert!(c.contains(2));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= 64);
    }

    #[test]
    fn a_budget_of_b_bytes_keeps_b_over_2n_rows() {
        // Two bytes a member is the claim: a four-byte row keeps half of
        // these and evicts from row `fit / 2` on. One shard of sixteen, at
        // the benchmark's n = 3000 under 12 MiB and S5's n = 100,000 under
        // 512 MiB: 131 and 167 rows.
        for (n, budget) in [(LEN, 4096), (3_000, (12 << 20) / 16), (100_000, (512 << 20) / 16)] {
            let fit = budget / (2 * n);
            let c = RowCache::new(budget, 1);
            let blank: Arc<[RowMs]> = vec![0; n].into();
            for src in 0..fit {
                c.insert(src, Arc::clone(&blank));
            }
            let s = c.stats();
            assert_eq!((s.resident_rows, s.evictions), (fit, 0), "n = {n}");
            assert_eq!(s.resident_bytes, fit * 2 * n, "n = {n}");
            c.insert(fit, blank);
            let s = c.stats();
            assert_eq!((s.resident_rows, s.evictions), (fit, 1), "n = {n}: the next row evicts");
        }
    }

    #[test]
    fn rows_of_unequal_length_are_counted_and_evicted_by_their_own_bytes() {
        // One shard of 64 bytes: a 32-byte row and two of 8 fit (48); a
        // 24-byte one makes 72, and evicting the oldest — the long one —
        // is enough, where a row count would have evicted on the fourth
        // insert whatever its size.
        let c = RowCache::new(64, 1);
        let of = |cells: usize| -> Arc<[RowMs]> { vec![0; cells].into() };
        c.insert(0, row(0));
        c.insert(1, of(4));
        c.insert(2, of(4));
        let s = c.stats();
        assert_eq!((s.resident_rows, s.resident_bytes, s.evictions), (3, 48, 0));
        c.insert(3, of(12));
        let s = c.stats();
        assert_eq!((s.resident_rows, s.resident_bytes, s.evictions), (3, 40, 1));
        assert_eq!(s.peak_resident_bytes, 72);
        assert!(!c.contains(0) && c.contains(1) && c.contains(2) && c.contains(3));
        // A second copy of a source's row replaces the first, at its size.
        c.insert(3, of(4));
        let s = c.stats();
        assert_eq!((s.resident_rows, s.resident_bytes, s.evictions), (3, 24, 1));
    }

    #[test]
    fn never_evicts_the_only_row() {
        // Capacity smaller than a single row: the fresh row must survive.
        let c = RowCache::new(16, 1);
        c.insert(0, row(0));
        assert!(c.contains(0));
        c.insert(1, row(1));
        assert!(c.contains(1));
        assert!(!c.contains(0), "old row evicted in favor of the fresh one");
        assert_eq!(c.stats().resident_rows, 1);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let c = RowCache::new(32, 1); // one row fits
        c.insert(0, row(0));
        c.insert(1, row(1));
        let s = c.stats();
        assert_eq!(s.resident_bytes, 32);
        // Insert-then-evict briefly held two rows.
        assert_eq!(s.peak_resident_bytes, 64);
    }

    #[test]
    fn shards_are_independent() {
        let c = RowCache::new(128, 4); // 32 B per shard = 1 row each
        for src in 0..4 {
            c.insert(src, row(src as RowMs));
        }
        for src in 0..4 {
            assert!(c.contains(src), "each shard holds its own row");
        }
    }

    #[test]
    fn since_diffs_counters_only() {
        let c = RowCache::new(1 << 20, 1);
        c.insert(0, row(0));
        let early = c.stats();
        c.get(0);
        c.get(0);
        let diff = c.stats().since(&early);
        assert_eq!((diff.hits, diff.misses), (2, 0));
        assert_eq!(diff.resident_rows, 1);
    }

    #[test]
    fn since_saturates_on_reversed_snapshots() {
        let c = RowCache::new(32, 1); // one row fits
        let early = c.stats();
        c.insert(0, row(0));
        c.get(0);
        c.insert(1, row(1)); // evicts 0
        let late = c.stats();
        assert_eq!((late.hits, late.misses, late.evictions), (1, 2, 1));
        // Snapshots handed over in the wrong order read zero, not a
        // debug-build overflow panic (as `Overhead::since` does).
        let diff = early.since(&late);
        assert_eq!((diff.hits, diff.misses, diff.evictions), (0, 0, 0));
    }
}
