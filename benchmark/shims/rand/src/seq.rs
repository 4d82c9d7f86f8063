//! `SliceRandom::{choose, shuffle}`. Both index through `gen_index`, which
//! draws a `u32` range whenever the bound fits one — a different stream from
//! `gen_range(0..len)` on `usize`, and the one `SimRng::pick_rank` mirrors.

use crate::Rng;

#[inline]
fn gen_index<R: Rng + ?Sized>(rng: &mut R, ubound: usize) -> usize {
    if ubound <= u32::MAX as usize {
        rng.gen_range(0..ubound as u32) as usize
    } else {
        rng.gen_range(0..ubound)
    }
}

pub trait SliceRandom {
    type Item;

    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    #[inline]
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[gen_index(rng, self.len())])
        }
    }

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, gen_index(rng, i + 1));
        }
    }
}
