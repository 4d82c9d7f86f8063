//! Serial stand-in for rayon. Every "parallel" iterator is the std iterator
//! underneath, visited in order on the calling thread — the order the kernel
//! crates' parallel code is specified to be bit-identical to. Only the entry
//! points those crates call exist; `reduce` keeps rayon's
//! `(identity, op)` signature, which is why the wrapper is not a bare alias.

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSlice};
}

/// A std iterator behind rayon's method names.
pub struct Serial<I>(I);

impl<I: Iterator> Iterator for Serial<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        self.0.next()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

// Inherent adaptors shadow `Iterator`'s so the chain stays a `Serial` and
// `reduce` below resolves to rayon's form, not `Iterator::reduce`.
impl<I: Iterator> Serial<I> {
    #[inline]
    pub fn map<B, F: FnMut(I::Item) -> B>(self, f: F) -> Serial<std::iter::Map<I, F>> {
        Serial(self.0.map(f))
    }

    #[inline]
    pub fn enumerate(self) -> Serial<std::iter::Enumerate<I>> {
        Serial(self.0.enumerate())
    }

    #[inline]
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> I::Item
    where
        ID: Fn() -> I::Item,
        OP: Fn(I::Item, I::Item) -> I::Item,
    {
        self.0.fold(identity(), op)
    }
}

pub trait IntoParallelIterator {
    type Iter: Iterator<Item = Self::Item>;
    type Item;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: IntoIterator> IntoParallelIterator for T {
    type Iter = Serial<T::IntoIter>;
    type Item = T::Item;

    #[inline]
    fn into_par_iter(self) -> Self::Iter {
        Serial(self.into_iter())
    }
}

pub trait IntoParallelRefIterator<'a> {
    type Iter: Iterator<Item = Self::Item>;
    type Item: 'a;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: 'a + ?Sized> IntoParallelRefIterator<'a> for T
where
    &'a T: IntoIterator,
    <&'a T as IntoIterator>::Item: 'a,
{
    type Iter = Serial<<&'a T as IntoIterator>::IntoIter>;
    type Item = <&'a T as IntoIterator>::Item;

    #[inline]
    fn par_iter(&'a self) -> Self::Iter {
        Serial(self.into_iter())
    }
}

pub trait ParallelSlice<T> {
    fn par_chunks(&self, chunk_size: usize) -> Serial<std::slice::Chunks<'_, T>>;
}

impl<T> ParallelSlice<T> for [T] {
    #[inline]
    fn par_chunks(&self, chunk_size: usize) -> Serial<std::slice::Chunks<'_, T>> {
        Serial(self.chunks(chunk_size))
    }
}
