//! `Standard` and the uniform range samplers.

pub mod uniform;

use crate::Rng;

pub trait Distribution<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Full-range integers; `f64` uniform in `[0, 1)` with 53 random bits.
#[derive(Clone, Copy, Debug)]
pub struct Standard;

impl Distribution<u32> for Standard {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Distribution<u64> for Standard {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

#[cfg(target_pointer_width = "64")]
impl Distribution<usize> for Standard {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Distribution<f64> for Standard {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
        (rng.next_u64() >> 11) as f64 * SCALE
    }
}
