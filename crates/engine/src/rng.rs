//! Deterministic randomness.
//!
//! Every stochastic choice in the reproduction — topology generation, overlay
//! wiring, probe walks, workload sampling — draws from a [`SimRng`]. A run is
//! fully determined by one `u64` experiment seed; independent subsystems get
//! *derived streams* (`fork`) so adding randomness to one subsystem never
//! shifts the stream consumed by another.
//!
//! The stream is a published one, reproduced here word for word so that the
//! committed `results/*.json` stay reproducible: the generator is ChaCha8 as
//! `rand_chacha 0.3.1` runs it, and the samplers consume its words exactly as
//! `rand 0.8.5` does (`seed_from_u64`, `gen::<u64>`/`gen::<f64>`, `gen_range`,
//! `SliceRandom::{choose, shuffle}`). Only what `SimRng` hands out is
//! implemented; `tests::stream_is_pinned` holds the result to constants
//! captured from those crates' semantics.

use std::ops::{Range, RangeInclusive};

const BUF_WORDS: usize = 64;
const BLOCKS_PER_REFILL: u64 = 4;

/// ChaCha at 8 rounds over a 256-bit key, a 64-bit block counter in words
/// 12–13 and a zero stream id in words 14–15, generated four blocks (64
/// words) at a time and handed out by `rand_core`'s `BlockRng` index rules.
#[derive(Clone, Debug)]
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

#[inline(always)]
fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

fn block(key: &[u32; 8], counter: u64, out: &mut [u32]) {
    let mut init = [0u32; 16];
    // "expand 32-byte k"
    init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    init[4..12].copy_from_slice(key);
    init[12] = counter as u32;
    init[13] = (counter >> 32) as u32;
    let mut x = init;
    for _ in 0..4 {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (o, (w, i)) in out.iter_mut().zip(x.iter().zip(init.iter())) {
        *o = w.wrapping_add(*i);
    }
}

impl ChaCha8 {
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        // An exhausted buffer: the first draw generates.
        ChaCha8 { key, counter: 0, buf: [0; BUF_WORDS], index: BUF_WORDS }
    }

    /// `rand_core 0.6`'s `seed_from_u64`: one PCG32 output per four seed bytes.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
        }
        Self::from_seed(seed)
    }

    fn refill(&mut self, index: usize) {
        for b in 0..BLOCKS_PER_REFILL {
            let at = b as usize * 16;
            block(&self.key, self.counter.wrapping_add(b), &mut self.buf[at..at + 16]);
        }
        self.counter = self.counter.wrapping_add(BLOCKS_PER_REFILL);
        self.index = index;
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill(0);
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    /// Two buffered words, low first. A read straddling the buffer end takes
    /// its low word from the old buffer and its high word from the new one.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUF_WORDS - 1 {
            self.index += 2;
            u64::from(self.buf[index + 1]) << 32 | u64::from(self.buf[index])
        } else if index >= BUF_WORDS {
            self.refill(2);
            u64::from(self.buf[1]) << 32 | u64::from(self.buf[0])
        } else {
            let lo = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill(1);
            u64::from(self.buf[0]) << 32 | lo
        }
    }

    /// `Standard` for `f64`: 53 random bits scaled into `[0, 1)`.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
        (self.next_u64() >> 11) as f64 * SCALE
    }
}

mod sealed {
    pub trait Sealed {}
    impl<T> Sealed for std::ops::Range<T> {}
    impl<T> Sealed for std::ops::RangeInclusive<T> {}
}

/// A range [`SimRng::range`] can sample a `T` from: `a..b` and `a..=b` over
/// `u32`, `u64` and `usize`, and `a..b` over `f64` — the ranges the workspace
/// draws. Sealed: each impl reproduces one row of rand's `UniformInt` /
/// `UniformFloat` tables and there is nothing a caller could usefully add.
pub trait SampleRange<T>: sealed::Sealed {
    #[doc(hidden)]
    fn sample(self, rng: &mut SimRng) -> T;
}

// rand's `UniformInt::sample_single_inclusive`: a widening multiply with the
// leading-zeros rejection zone. `$next` is the word actually drawn — a `u32`
// for 32-bit types, a `u64` above — and `$wide` holds the product.
macro_rules! uniform_int {
    ($ty:ty, $word:ty, $wide:ty, $next:ident) => {
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $ty {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $word;
                if range == 0 {
                    // The whole type: any word will do.
                    return rng.inner.$next() as $ty;
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let product = (rng.inner.$next() as $wide) * (range as $wide);
                    if product as $word <= zone {
                        return low.wrapping_add((product >> <$word>::BITS) as $ty);
                    }
                }
            }
        }

        impl SampleRange<$ty> for Range<$ty> {
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).sample(rng)
            }
        }
    };
}

uniform_int!(u32, u32, u64, next_u32);
uniform_int!(u64, u64, u128, next_u64);
#[cfg(target_pointer_width = "64")]
uniform_int!(usize, u64, u128, next_u64);

/// rand's `UniformFloat::sample_single`.
impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut SimRng) -> f64 {
        let (low, high) = (self.start, self.end);
        assert!(low < high, "cannot sample empty range");
        let mut scale = high - low;
        assert!(scale.is_finite(), "range overflow");
        loop {
            // 52 random mantissa bits under exponent 0: a value in [1, 2).
            let value1_2 = f64::from_bits((rng.inner.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + low;
            if res < high {
                return res;
            }
            // Rounding reached `high`: shrink the scale by one ulp and redraw.
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }
}

/// A seedable, forkable random stream.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: ChaCha8,
}

impl SimRng {
    /// A root stream for an experiment seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng { inner: ChaCha8::seed_from_u64(seed) }
    }

    /// Derive an independent stream for a named subsystem.
    ///
    /// The label participates in the derivation, so
    /// `rng.fork("overlay") != rng.fork("workload")` even when called on
    /// clones of the same parent, and forking does **not** advance the
    /// parent's stream.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the parent's seed-word stream
        // position. Cheap, stable, and collision-resistant enough for a
        // handful of subsystem labels.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        // Use the *current* state deterministically without advancing
        // self: clone, draw one word.
        let salt = self.inner.clone().next_u64();
        SimRng::seed_from(h ^ salt.rotate_left(17))
    }

    /// Derive an independent stream for an indexed entity (peer, trial, …).
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        let salt = self.fork(label).inner.next_u64();
        SimRng::seed_from(salt ^ index.wrapping_mul(0x9e3779b97f4a7c15))
    }

    /// Uniform sample from a range (empty ranges panic).
    #[inline]
    pub fn range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// A uniform f64 in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.next_f64()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Uniformly pick an element of a slice. `None` on an empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        self.pick_rank(xs.len()).map(|i| &xs[i])
    }

    /// Uniformly pick an index into a collection of length `len`, drawing a
    /// `usize` range (one 64-bit word).
    #[inline]
    pub fn pick_index(&mut self, len: usize) -> Option<usize> {
        (len > 0).then(|| self.range(0..len))
    }

    /// Uniformly pick a *rank* in `0..len`, consuming the stream exactly as
    /// [`SimRng::pick`] does on a slice of length `len`.
    ///
    /// Like `rand 0.8`'s `SliceRandom::choose`, this draws a `u32` range
    /// when the length fits in one (it always does here), which is a
    /// *different* stream than `pick_index`'s `usize` draw. Callers replacing
    /// a materialized `collect() + pick(&v)` with an index structure (the
    /// drivers' live-slot rank select, DESIGN §16) use this helper to keep
    /// the run bit-identical to the allocating form.
    #[inline]
    pub fn pick_rank(&mut self, len: usize) -> Option<usize> {
        if len == 0 {
            return None;
        }
        Some(if len <= u32::MAX as usize {
            self.range(0..len as u32) as usize
        } else {
            self.range(0..len)
        })
    }

    /// Fisher–Yates shuffle in place, from the top down (rand's order).
    #[inline]
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.pick_rank(i + 1).expect("i + 1 > 0");
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct elements (by value) without replacement.
    /// Returns fewer than `k` if the slice is shorter than `k`.
    pub fn sample_distinct<T: Copy>(&mut self, xs: &[T], k: usize) -> Vec<T> {
        let k = k.min(xs.len());
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        // Partial Fisher–Yates: only the first k positions need settling.
        for i in 0..k {
            let j = self.range(i..idx.len());
            idx.swap(i, j);
        }
        idx[..k].iter().map(|&i| xs[i]).collect()
    }

    /// The `k` *ranks* in `0..len` that [`SimRng::sample_distinct`] would
    /// pick from a slice of length `len`, in the same order and consuming
    /// the stream exactly as it does (the same `range(i..len)` draws).
    ///
    /// The partial Fisher–Yates runs over a sparse map of the displaced
    /// positions instead of a `len`-wide index vector: O(k²) work and two
    /// `k`-element buffers, whatever `len` is. Callers that used to
    /// `collect()` a population only to sample it (a Gnutella join picking
    /// its targets among every live slot) resolve the ranks through an index
    /// structure instead.
    pub fn sample_distinct_ranks(&mut self, len: usize, k: usize) -> Vec<usize> {
        let k = k.min(len);
        let mut picked = Vec::with_capacity(k);
        // (position, value there) for every position whose value is no
        // longer its own index; at most one entry per draw.
        let mut displaced: Vec<(usize, usize)> = Vec::with_capacity(k);
        let at = |p: usize, displaced: &[(usize, usize)]| {
            displaced.iter().find(|&&(q, _)| q == p).map_or(p, |&(_, v)| v)
        };
        for i in 0..k {
            let j = self.range(i..len);
            let (vi, vj) = (at(i, &displaced), at(j, &displaced));
            // swap(i, j): position i is settled (later draws start above
            // it), so only j's new value needs remembering.
            picked.push(vj);
            match displaced.iter_mut().find(|(q, _)| *q == j) {
                Some(entry) => entry.1 = vi,
                None => displaced.push((j, vi)),
            }
        }
        picked
    }

    /// Exponentially distributed duration with the given mean, in
    /// milliseconds — used for Poisson churn inter-arrival times.
    pub fn exp_millis(&mut self, mean_ms: f64) -> u64 {
        let u = 1.0 - self.unit(); // in (0, 1]
        (-mean_ms * u.ln()).round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.range(0u64..1_000_000), b.range(0u64..1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let va: Vec<u64> = (0..16).map(|_| a.range(0..u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.range(0..u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let root = SimRng::seed_from(42);
        let mut x1 = root.fork("overlay");
        let mut x2 = root.fork("overlay");
        let mut y = root.fork("workload");
        let a: u64 = x1.range(0..u64::MAX);
        assert_eq!(a, x2.range(0..u64::MAX), "same label ⇒ same stream");
        assert_ne!(a, y.range(0..u64::MAX), "different label ⇒ different stream");
    }

    #[test]
    fn fork_does_not_advance_parent() {
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        let _ = a.fork("x");
        let _ = a.fork_indexed("y", 3);
        assert_eq!(a.range(0u64..u64::MAX), b.range(0u64..u64::MAX));
    }

    #[test]
    fn indexed_forks_differ() {
        let root = SimRng::seed_from(5);
        let mut f0 = root.fork_indexed("peer", 0);
        let mut f1 = root.fork_indexed("peer", 1);
        assert_ne!(f0.range(0..u64::MAX), f1.range(0..u64::MAX));
    }

    #[test]
    fn sample_distinct_has_no_duplicates() {
        let mut rng = SimRng::seed_from(11);
        let xs: Vec<u32> = (0..50).collect();
        let s = rng.sample_distinct(&xs, 20);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
    }

    #[test]
    fn sample_distinct_truncates_to_population() {
        let mut rng = SimRng::seed_from(11);
        let xs = [1, 2, 3];
        let s = rng.sample_distinct(&xs, 10);
        let mut s = s;
        s.sort_unstable();
        assert_eq!(s, vec![1, 2, 3]);
    }

    /// Differential twin: the sparse-map ranks against the dense index
    /// vector, element for element and on the draw that follows. Checked
    /// against: reading `at(j)` after the write, leaving a position that is
    /// displaced a second time at its first value, and drawing
    /// `range(0..len)` instead of `i..len`.
    #[test]
    fn sample_distinct_ranks_is_sample_distinct() {
        const CASES: u64 = 512;
        let mut sizes = SimRng::seed_from(0xd15);
        for case in 0..CASES {
            // Small populations force repeated and self draws (j == i, a j
            // drawn twice); k runs past len to cover the truncation.
            let len = if case % 4 == 0 { sizes.range(0..6usize) } else { sizes.range(0..200usize) };
            let k = sizes.range(0..=len.min(12) + 2);
            let xs: Vec<usize> = (0..len).collect();
            let mut a = SimRng::seed_from(case);
            let mut b = a.clone();
            let dense = a.sample_distinct(&xs, k);
            let sparse = b.sample_distinct_ranks(len, k);
            assert_eq!(dense, sparse, "case {case}: len {len}, k {k}");
            assert_eq!(
                a.range(0u64..u64::MAX),
                b.range(0u64..u64::MAX),
                "case {case}: streams diverged after len {len}, k {k}"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.1));
    }

    #[test]
    fn exp_millis_mean_roughly_right() {
        let mut rng = SimRng::seed_from(13);
        let n = 20_000;
        let mean = 500.0;
        let total: u64 = (0..n).map(|_| rng.exp_millis(mean)).sum();
        let observed = total as f64 / n as f64;
        assert!((observed - mean).abs() < mean * 0.05, "observed {observed}");
    }

    #[test]
    fn pick_empty_is_none() {
        let mut rng = SimRng::seed_from(1);
        let empty: [u8; 0] = [];
        assert!(rng.pick(&empty).is_none());
        assert!(rng.pick_index(0).is_none());
        assert!(rng.pick_rank(0).is_none());
    }

    #[test]
    fn pick_rank_consumes_identically_to_pick() {
        // The whole point of pick_rank: same state + same length ⇒ the same
        // element `pick` would have chosen, and the streams stay in lockstep
        // afterwards.
        for len in [1usize, 2, 3, 7, 100, 4096] {
            let xs: Vec<usize> = (0..len).collect();
            let mut a = SimRng::seed_from(17 ^ len as u64);
            let mut b = a.clone();
            for _ in 0..50 {
                let picked = *a.pick(&xs).unwrap();
                let rank = b.pick_rank(len).unwrap();
                assert_eq!(picked, rank, "len {len}");
            }
            assert_eq!(a.range(0u64..u64::MAX), b.range(0u64..u64::MAX), "streams diverged");
        }
    }

    /// draft-strombergson-chacha-test-vectors TC1, 256-bit key, 8 rounds:
    /// all-zero key and IV, keystream blocks 0 and 1.
    #[test]
    fn zero_key_keystream_matches_the_published_vector() {
        let mut rng = ChaCha8::from_seed([0; 32]);
        let expect: [u8; 32] = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1, 0x2c, 0x84, 0x0e, 0xc3, 0xce, 0x9a, 0x7f, 0x3b, 0x18, 0x1b, 0xe1, 0x88,
            0xef, 0x71, 0x1a, 0x1e,
        ];
        let mut got = Vec::new();
        for _ in 0..8 {
            got.extend_from_slice(&rng.next_u32().to_le_bytes());
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn u64_reads_straddle_the_buffer_like_block_rng() {
        let mut words = ChaCha8::seed_from_u64(9);
        let stream: Vec<u32> = (0..130).map(|_| words.next_u32()).collect();
        let mut rng = ChaCha8::seed_from_u64(9);
        for w in &stream[..63] {
            assert_eq!(rng.next_u32(), *w);
        }
        // index 63: low word is the last of this buffer, high the first of the next.
        assert_eq!(rng.next_u64(), u64::from(stream[64]) << 32 | u64::from(stream[63]));
        assert_eq!(rng.next_u64(), u64::from(stream[66]) << 32 | u64::from(stream[65]));
    }

    #[test]
    fn int_ranges_stay_in_bounds_and_cover() {
        let mut rng = SimRng::seed_from(1);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[rng.range(0..7usize)] = true;
            assert!((3..=5).contains(&rng.range(3..=5u32)));
            assert!((10..20).contains(&rng.range(10..20u64)));
        }
        assert!(seen.iter().all(|&s| s));
        // A one-value range and the whole type are both legal.
        assert_eq!(rng.range(9..=9u64), 9);
        let _: u64 = rng.range(0..=u64::MAX);
    }

    #[test]
    fn floats_are_half_open() {
        let mut rng = SimRng::seed_from(7);
        for _ in 0..500 {
            assert!((0.0..1.0).contains(&rng.unit()));
            assert!((2.0..3.0).contains(&rng.range(2.0..3.0)));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::seed_from(1).range(5..5u32);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(3);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..50).collect::<Vec<_>>());
    }

    /// Everything `SimRng` hands out, drawn once from a root stream and from
    /// both kinds of fork. The spans just over half the type's width make
    /// the widening-multiply sampler reject about every other word, so the
    /// rejection loop is part of what is pinned.
    fn pinned_draws(mut r: SimRng) -> Vec<u64> {
        let mut out = Vec::new();
        for _ in 0..4 {
            out.push(r.range(0..10u32) as u64);
            out.push(r.range(5..50u32) as u64);
            out.push(r.range(0..1_000_000u64));
            out.push(r.range(1..=40u64));
            out.push(r.range(0..3usize) as u64);
            out.push(r.range(12..=40usize) as u64);
        }
        for _ in 0..8 {
            out.push(r.range(0..u32::MAX / 2 + 2) as u64);
            out.push(r.range(0..u64::MAX / 2 + 2));
            out.push(r.range(1..=u64::MAX / 2 + 2));
            out.push(r.range(0..usize::MAX / 2 + 2) as u64);
            out.push(r.range(0..=usize::MAX / 2 + 1) as u64);
        }
        out.push(r.range(0..u64::MAX));
        for _ in 0..4 {
            out.push(r.range(0.0..1.0f64).to_bits());
            out.push(r.range(2.5..1e9f64).to_bits());
            out.push(r.unit().to_bits());
            out.push(r.exp_millis(500.0));
            out.push(r.chance(0.3) as u64);
        }
        let xs: Vec<u64> = (100..117).collect();
        for _ in 0..4 {
            out.push(*r.pick(&xs).unwrap());
            out.push(r.pick_rank(1000).unwrap() as u64);
            out.push(r.pick_index(1000).unwrap() as u64);
        }
        let mut shuffled = xs.clone();
        r.shuffle(&mut shuffled);
        out.extend(shuffled);
        out.extend(r.sample_distinct(&xs, 5));
        out.push(r.range(0..u64::MAX));
        out
    }

    // Captured from the build against rand 0.8.5 + rand_chacha 0.3.1 semantics that
    // `results/fig5a.json` was produced with (benchmark/run.sh --verify-ref).
    #[rustfmt::skip]
    const PINNED_ROOT: [u64; 120] = [
        2, 35, 950275, 18, 0, 35, 6, 42, 536468, 16, 2, 40, 1, 17, 981630, 25, 1, 23, 2, 13, 337292,
        21, 2, 20, 435157070, 2021816226763580918, 3913805721910573081, 8130607438556926106,
        6051664685982598602, 1015626185, 2670831831937069428, 8707897339450368160,
        5827842678585485307, 3492645961308305338, 1857440533, 2129029170240289513,
        3378749838720817435, 4077458282464529548, 1269815056785573977, 2109981113,
        8356960713175337400, 7741288986323831555, 5575448452303866328, 6981285117486208173,
        746262210, 332373446105067566, 2894035854493544044, 6077280017354835701,
        7799289295441432682, 1298578550, 8499532231006048789, 3576273284715848067,
        4250525761524187772, 3200087622671113165, 686824298, 571781823538465986,
        6609056168053145631, 5580740912073064740, 1001436042748482201, 218683878,
        1034654103737574844, 8990274503654613236, 3361674651743970056, 8475393571188954225,
        17811977381319994915, 4599247091865142572, 4731575507505497977, 4606552251900370486, 1183,
        0, 4590078839944858896, 4738254666784012235, 4598265004225497798, 164, 1,
        4602897718229233784, 4740701437767167083, 4597641187676518836, 1349, 1, 4601255891075133152,
        4728755230506702625, 4596510239959277320, 989, 0, 115, 889, 226, 111, 716, 599, 103, 967,
        907, 110, 399, 544, 114, 100, 101, 110, 109, 103, 107, 112, 105, 113, 115, 116, 108, 104,
        106, 111, 102, 110, 109, 106, 104, 114, 16593647956177315884
    ];
    #[rustfmt::skip]
    const PINNED_FORK: [u64; 120] = [
        4, 40, 466800, 25, 1, 23, 4, 43, 21296, 36, 2, 40, 6, 27, 774919, 39, 1, 31, 8, 47, 447510,
        14, 1, 34, 1966087084, 4250471283055113244, 7836248743564064784, 1667020578495083899,
        855278014584596405, 1273998354, 130819293503891263, 6631377326441177458,
        6967073555256202911, 1101729744305214720, 1930281012, 8390280864129039254,
        6345975696996417604, 6405971417792841366, 1765966578015445660, 485082335,
        8818355519774788097, 1177846606877614868, 1710079849507090293, 1146098274180929122,
        702623745, 8499600452712949966, 1786728648525206587, 7773404483427291483,
        1302730500563569839, 213403862, 1466549148524069466, 970625789988735999, 781639987516612109,
        5589394010540104840, 1937700199, 1981484130838342798, 5723999034580587045,
        1597142546190441708, 628605565578247369, 1333011184, 3278888690930533379,
        7232364716468676634, 8237425960412462295, 6277438453365376650, 7970292517898636297,
        4597836574260300776, 4736966351574602285, 4589035704160711744, 620, 0, 4584716816426211328,
        4741033381703625679, 4602729246940899375, 80, 1, 4605463617262529166, 4727184877840019927,
        4605127726578565091, 543, 1, 4604077123163605014, 4737132280860781532, 4597747948094206028,
        550, 0, 100, 472, 851, 113, 307, 450, 111, 799, 42, 115, 211, 731, 103, 111, 105, 115, 112,
        102, 110, 114, 109, 107, 106, 113, 101, 104, 100, 108, 116, 115, 104, 101, 113, 100,
        2573707953640812580
    ];
    #[rustfmt::skip]
    const PINNED_FORK_INDEXED: [u64; 120] = [
        5, 46, 211058, 1, 0, 24, 3, 49, 461190, 24, 1, 34, 3, 15, 82283, 36, 0, 13, 5, 42, 281521,
        21, 1, 36, 432925426, 6221448620676793628, 3765756322199450954, 1022079457082704028,
        6628973872137964662, 600918916, 6269804459421893551, 5643492572180726458,
        4280770152249926220, 1995927562469552888, 273460154, 1308260505077740605,
        4481142725102312574, 3085489924245500799, 5925376596255782910, 663216150,
        624723173718620442, 8094304695190760831, 8686091487337408580, 3819744115042028662,
        1959131265, 6071101508196204108, 3611077273550017172, 4416905145026571668,
        1242096051836919666, 430578066, 3456133576004932403, 7937956393785141289,
        5740532662665909670, 5769758710015081207, 1138617485, 8242978692387146894,
        482829487462884302, 318109836649574427, 3586349159034934080, 835396914, 60628139118647781,
        2951306339870808711, 123747866593858874, 1515315507315559488, 10389544217463409077,
        4594887215701076176, 4740810956844790538, 4605554252035502680, 50, 0, 4602547198075192284,
        4739831316025784494, 4605775618897186347, 1307, 0, 4585511295429686656, 4729897803200770186,
        4590734809198792400, 1205, 0, 4605786569732799446, 4740810080946248287, 4595682466799560084,
        160, 1, 113, 478, 786, 115, 18, 204, 114, 146, 407, 107, 43, 650, 113, 107, 109, 103, 100,
        112, 108, 111, 115, 114, 106, 101, 110, 102, 116, 104, 105, 111, 109, 108, 103, 101,
        13380557878650111132
    ];

    #[test]
    fn stream_is_pinned() {
        let root = SimRng::seed_from(42);
        assert_eq!(pinned_draws(root.clone()), PINNED_ROOT, "root stream");
        assert_eq!(pinned_draws(root.fork("overlay")), PINNED_FORK, "fork(\"overlay\")");
        assert_eq!(
            pinned_draws(root.fork_indexed("peer", 3)),
            PINNED_FORK_INDEXED,
            "fork_indexed(\"peer\", 3)"
        );
    }
}
