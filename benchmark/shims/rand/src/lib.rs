//! Stand-in for `rand 0.8.5`, limited to what `prop_engine::SimRng` calls and
//! written to consume an `RngCore` word-for-word as the published crate does:
//!
//! * `SeedableRng::seed_from_u64` — the PCG32 seed expander of `rand_core 0.6`;
//! * `Standard` for `u32`/`u64`/`usize`/`f64` (53-bit multiply form);
//! * `gen_range` through `UniformInt::sample_single[_inclusive]` (widening
//!   multiply with the leading-zeros rejection zone; 8/16/32-bit types draw a
//!   `u32`, 64-bit types a `u64`) and `UniformFloat::sample_single`;
//! * `SliceRandom::{choose, shuffle}` through the `u32` `gen_index` path.
//!
//! A simulated statistic therefore matches a run against the real crates.
//! Anything else in rand's API is absent on purpose.

pub mod distributions;
pub mod seq;

pub mod prelude {
    pub use crate::distributions::Distribution;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

use distributions::uniform::{SampleRange, SampleUniform};
use distributions::{Distribution, Standard};

/// The word source. `next_u64` is the generator's own (block generators read
/// two buffered words), not two `next_u32` calls glued by this crate.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// `rand_core 0.6`'s expander: one PCG32 output per four seed bytes.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&x[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

pub trait Rng: RngCore {
    #[inline]
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    #[inline]
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        assert!(!range.is_empty(), "cannot sample empty range");
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// A counter "generator": makes the samplers' arithmetic checkable by hand.
    struct Step(u64);

    impl RngCore for Step {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            self.0
        }
    }

    #[test]
    fn int_ranges_stay_in_bounds_and_cover() {
        let mut rng = Step(1);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v: usize = rng.gen_range(0..7usize);
            seen[v] = true;
            let w: u32 = rng.gen_range(3..=5u32);
            assert!((3..=5).contains(&w));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn float_is_half_open_unit() {
        let mut rng = Step(7);
        for _ in 0..500 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let g: f64 = rng.gen_range(2.0..3.0);
            assert!((2.0..3.0).contains(&g));
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_choose_hits_members() {
        let mut rng = Step(3);
        let mut xs: Vec<u32> = (0..50).collect();
        xs.shuffle(&mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(xs.contains(xs.choose(&mut rng).unwrap()));
        assert!(<[u32]>::choose(&[], &mut rng).is_none());
    }
}
