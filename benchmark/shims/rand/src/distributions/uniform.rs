//! `gen_range`'s single-sample paths from rand 0.8.5.

use super::{Distribution, Standard};
use crate::Rng;
use std::ops::{Range, RangeInclusive};

/// A type `gen_range` can sample. rand routes this through a per-type
/// `UniformSampler`; only its two single-sample entry points are needed here.
pub trait SampleUniform: Sized + PartialOrd {
    fn sample_single<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    fn sample_single_inclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

pub trait SampleRange<T> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
    fn is_empty(&self) -> bool;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_single(self.start, self.end, rng)
    }

    #[inline]
    fn is_empty(&self) -> bool {
        !(self.start < self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_single_inclusive(low, high, rng)
    }

    #[inline]
    fn is_empty(&self) -> bool {
        !(self.start() <= self.end())
    }
}

// `$large` is the word actually drawn: u32 for types up to 32 bits, u64 (or
// usize) above, exactly rand's `uniform_int_impl!` table. `$wide` holds the
// widening product.
macro_rules! uniform_int {
    ($ty:ty, $unsigned:ty, $large:ty, $wide:ty) => {
        impl SampleUniform for $ty {
            #[inline]
            fn sample_single<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "UniformSampler::sample_single: low >= high");
                Self::sample_single_inclusive(low, high - 1, rng)
            }

            #[inline]
            fn sample_single_inclusive<R: Rng + ?Sized>(
                low: Self,
                high: Self,
                rng: &mut R,
            ) -> Self {
                assert!(low <= high, "UniformSampler::sample_single_inclusive: low > high");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                if range == 0 {
                    // The whole type: any word will do.
                    let any: $large = Standard.sample(rng);
                    return any as $ty;
                }
                let zone = if <$unsigned>::MAX as u64 <= u16::MAX as u64 {
                    let ints_to_reject = (<$large>::MAX - range + 1) % range;
                    <$large>::MAX - ints_to_reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v: $large = Standard.sample(rng);
                    let product = (v as $wide) * (range as $wide);
                    let hi = (product >> <$large>::BITS) as $large;
                    let lo = product as $large;
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}

uniform_int!(u8, u8, u32, u64);
uniform_int!(u16, u16, u32, u64);
uniform_int!(u32, u32, u32, u64);
uniform_int!(i32, u32, u32, u64);
uniform_int!(u64, u64, u64, u128);
uniform_int!(i64, u64, u64, u128);
#[cfg(target_pointer_width = "64")]
uniform_int!(usize, usize, usize, u128);

impl SampleUniform for f64 {
    fn sample_single<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        let mut scale = high - low;
        assert!(scale.is_finite(), "UniformSampler::sample_single: range overflow");
        loop {
            // 52 random mantissa bits under exponent 0: a value in [1, 2).
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + low;
            if res < high {
                return res;
            }
            // Rounding reached `high`: rand shrinks the scale by one ulp and
            // redraws.
            assert!(
                low.is_finite() && high.is_finite(),
                "Uniform::sample_single: low and high must be finite"
            );
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }

    fn sample_single_inclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        // rand builds a `Uniform::new_inclusive` here; its scale is the
        // largest one for which the top mantissa value still maps to <= high.
        let max_rand = f64::from_bits(((1u64 << 52) - 1) | (1023u64 << 52)) - 1.0;
        let mut scale = (high - low) / max_rand;
        assert!(scale.is_finite(), "Uniform::new_inclusive: range overflow");
        while scale * max_rand + low > high {
            scale = f64::from_bits(scale.to_bits() - 1);
        }
        let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
        (value1_2 - 1.0) * scale + low
    }
}
