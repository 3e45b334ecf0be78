//! Offline stand-in for the subset of the `rayon` API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal data-parallelism layer with rayon's names and call
//! signatures. The index space of a parallel call is split into
//! contiguous blocks, one per worker, and results are concatenated in
//! order, so `collect()` preserves input order exactly like rayon's
//! indexed parallel iterators. Block 0 runs on the calling thread and the
//! others on persistent helper threads that the calling thread keeps
//! parked between calls (the `pool` module), so a call costs two thread
//! wake-ups rather than a thread spawn per worker.
//!
//! Supported surface (everything the workspace calls):
//!
//! * `slice.par_iter()`, `slice.par_chunks(n)`, `slice.par_iter_mut()`,
//!   `slice.par_chunks_mut(n)`
//! * `range.into_par_iter()` (over `usize`), `vec.into_par_iter()`
//! * adapters `.enumerate()`, `.map(f)`; terminals `.collect::<Vec<_>>()`,
//!   `.for_each(f)`, `.sum()`
//! * `par_sort_unstable()` / `par_sort_unstable_by_key()` (sequential
//!   delegation to the std sorts — correct, just not parallel)
//! * `ThreadPoolBuilder::new().num_threads(n).build()` and
//!   `ThreadPool::install(f)`, which sets the worker count for every
//!   parallel call made inside `f` on this thread; a call nested inside
//!   one of those calls' blocks uses the default count, in every block
//! * `current_num_threads()`
//!
//! The scheduling is static (equal contiguous blocks) rather than
//! work-stealing; for the irregular workloads here that costs some load
//! balance but keeps the implementation dependency-free and auditable,
//! and it makes every partition a function of the worker count alone.

// The raw-pointer sources below and the pool's job hand-off are the one
// unsafe surface of the workspace; every operation inside an unsafe fn
// must be justified.
#![deny(unsafe_op_in_unsafe_fn)]

mod pool;

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// The machine's available parallelism, read once per process: on Linux
/// each read re-parses the cgroup files, which would cost more than a
/// whole parallel call.
fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

thread_local! {
    static POOL_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads parallel calls on this thread will use.
pub fn current_num_threads() -> usize {
    POOL_OVERRIDE
        .with(std::cell::Cell::get)
        .unwrap_or_else(default_threads)
}

// --------------------------------------------------------------------------
// thread pool facade
// --------------------------------------------------------------------------

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`]; construction cannot fail
/// here but the signature matches rayon's.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A worker-count setting rather than a pool of its own: parallel calls
/// made inside [`ThreadPool::install`] run on the calling thread's
/// persistent helpers, as every other call does, with this many workers.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    #[must_use]
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// `0` means "use the default" (available parallelism), as in rayon.
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count governing every parallel
    /// call `op` makes on the current thread. Calls nested inside the
    /// blocks of those calls use the default count.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_OVERRIDE.with(|c| c.set(self.0));
            }
        }
        let _guard = Restore(POOL_OVERRIDE.with(|c| c.replace(Some(self.num_threads))));
        op()
    }

    #[must_use]
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

// --------------------------------------------------------------------------
// core trait + executor
// --------------------------------------------------------------------------

/// An indexed parallel iterator: a known length plus a producer that yields
/// the item at each index exactly once.
pub trait ParallelIterator: Sized + Sync {
    type Item: Send;

    fn par_len(&self) -> usize;

    /// Yields the item at `i`. The executor calls this exactly once per
    /// index in `0..par_len()`, possibly from different threads.
    fn produce(&self, i: usize) -> Self::Item;

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        execute(&self, &|item| f(item));
    }

    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send,
    {
        execute(&self, &|item| item).into_iter().sum()
    }

    fn count(self) -> usize {
        self.par_len()
    }
}

/// Runs `f` over every index block-wise and returns results in input order.
fn execute<I, R>(it: &I, f: &(impl Fn(I::Item) -> R + Sync)) -> Vec<R>
where
    I: ParallelIterator,
    R: Send,
{
    let n = it.par_len();
    let workers = current_num_threads().min(n).max(1);
    if workers <= 1 {
        return (0..n).map(|i| f(it.produce(i))).collect();
    }
    let per = n.div_ceil(workers);
    let parts: Vec<Mutex<Vec<R>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    pool::run(workers, &|t| {
        let lo = t * per;
        let hi = ((t + 1) * per).min(n);
        let block = (lo..hi).map(|i| f(it.produce(i))).collect();
        *parts[t].lock().unwrap_or_else(PoisonError::into_inner) = block;
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.append(&mut p.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    out
}

/// Conversion from a parallel iterator, mirroring rayon's trait of the
/// same name. Only `Vec` is needed here.
pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Vec<T> {
        execute(&it, &|item| item)
    }
}

// --------------------------------------------------------------------------
// adapters
// --------------------------------------------------------------------------

pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    fn produce(&self, i: usize) -> R {
        (self.f)(self.base.produce(i))
    }
}

pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    fn produce(&self, i: usize) -> (usize, I::Item) {
        (i, self.base.produce(i))
    }
}

// --------------------------------------------------------------------------
// sources
// --------------------------------------------------------------------------

pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;

    fn par_len(&self) -> usize {
        self.slice.len()
    }

    fn produce(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

pub struct Chunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];

    fn par_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn produce(&self, i: usize) -> &'a [T] {
        let lo = i * self.size;
        let hi = (lo + self.size).min(self.slice.len());
        &self.slice[lo..hi]
    }
}

/// Mutable-slice source; a raw pointer lets disjoint indices be handed to
/// different threads. Soundness relies on the executor's exactly-once
/// produce contract.
pub struct SliceIterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut T>,
}

// SAFETY: the source only hands out disjoint `&mut T` (one per index,
// exactly once — the executor's produce contract), so sharing the source
// across threads cannot alias; `T: Send` lets the references cross threads.
unsafe impl<T: Send> Sync for SliceIterMut<'_, T> {}
// SAFETY: same disjointness argument; moving the source is strictly weaker
// than sharing it.
unsafe impl<T: Send> Send for SliceIterMut<'_, T> {}

impl<'a, T: Send> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;

    fn par_len(&self) -> usize {
        self.len
    }

    fn produce(&self, i: usize) -> &'a mut T {
        assert!(i < self.len);
        // SAFETY: `i < len` is asserted, the pointer spans `len` initialized
        // elements borrowed mutably for 'a, and the executor calls produce
        // exactly once per index, so no two references alias.
        unsafe { &mut *self.ptr.add(i) }
    }
}

pub struct ChunksMut<'a, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _marker: PhantomData<&'a mut T>,
}

// SAFETY: chunks are disjoint subslices (one per index, exactly once), so
// concurrent produce calls never alias; `T: Send` permits the transfer.
unsafe impl<T: Send> Sync for ChunksMut<'_, T> {}
// SAFETY: same disjointness argument as `Sync`.
unsafe impl<T: Send> Send for ChunksMut<'_, T> {}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn par_len(&self) -> usize {
        self.len.div_ceil(self.size)
    }

    fn produce(&self, i: usize) -> &'a mut [T] {
        let lo = i * self.size;
        let hi = (lo + self.size).min(self.len);
        assert!(lo < self.len);
        // SAFETY: `lo..hi` is in bounds (`hi` is clamped to `len`), chunk
        // ranges for distinct `i` are disjoint, and the executor produces
        // each index exactly once — no aliasing mutable slices.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }
}

pub struct RangeIter {
    range: Range<usize>,
}

impl ParallelIterator for RangeIter {
    type Item = usize;

    fn par_len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }

    fn produce(&self, i: usize) -> usize {
        self.range.start + i
    }
}

/// Owning source over a `Vec`. Elements are moved out by `ptr::read`; the
/// length is zeroed up front so dropping the source frees the buffer
/// without double-dropping elements (unconsumed elements leak only if a
/// sibling task panics).
pub struct VecIntoIter<T> {
    buf: Vec<T>,
    len: usize,
}

// SAFETY: each element is moved out at most once (exactly-once produce
// contract over distinct indices), so concurrent reads never touch the
// same slot; `T: Send` permits moving elements across threads.
unsafe impl<T: Send> Sync for VecIntoIter<T> {}

impl<T: Send> ParallelIterator for VecIntoIter<T> {
    type Item = T;

    fn par_len(&self) -> usize {
        self.len
    }

    fn produce(&self, i: usize) -> T {
        assert!(i < self.len);
        // SAFETY: `i < len` is asserted and slots `0..len` were initialized
        // before `set_len(0)`; the executor reads each index exactly once,
        // so no value is duplicated, and Vec's drop won't double-free.
        unsafe { std::ptr::read(self.buf.as_ptr().add(i)) }
    }
}

// --------------------------------------------------------------------------
// entry-point traits
// --------------------------------------------------------------------------

pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = RangeIter;

    fn into_par_iter(self) -> RangeIter {
        RangeIter { range: self }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIntoIter<T>;

    fn into_par_iter(mut self) -> VecIntoIter<T> {
        let len = self.len();
        // SAFETY: elements beyond len 0 stay initialized in the buffer and
        // are read exactly once by `produce`; Vec's drop then frees the
        // buffer without running element destructors.
        unsafe { self.set_len(0) };
        VecIntoIter { buf: self, len }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;

    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> SliceIter<'_, T>;
    fn par_chunks(&self, size: usize) -> Chunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SliceIter<'_, T> {
        SliceIter { slice: self }
    }

    fn par_chunks(&self, size: usize) -> Chunks<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        Chunks { slice: self, size }
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> SliceIterMut<'_, T>;
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T>;
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
    fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, key: F);
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> SliceIterMut<'_, T> {
        SliceIterMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: PhantomData,
        }
    }

    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ChunksMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            size,
            _marker: PhantomData,
        }
    }

    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        self.sort_unstable();
    }

    fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, key: F) {
        self.sort_unstable_by_key(key);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn slice_enumerate_map() {
        let data = [3.0f64, 1.0, 4.0, 1.0, 5.0];
        let out: Vec<(usize, f64)> = data
            .par_iter()
            .enumerate()
            .map(|(i, &x)| (i, x + 1.0))
            .collect();
        assert_eq!(out, vec![(0, 4.0), (1, 2.0), (2, 5.0), (3, 2.0), (4, 6.0)]);
    }

    #[test]
    fn chunks_cover_everything() {
        let data: Vec<u32> = (0..103).collect();
        let sums: Vec<u32> = data.par_chunks(10).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.iter().sum::<u32>(), data.iter().sum::<u32>());
    }

    #[test]
    fn par_iter_mut_writes_every_slot() {
        let mut data = vec![0usize; 257];
        data.par_iter_mut().enumerate().for_each(|(i, x)| *x = i);
        assert!(data.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn par_chunks_mut_disjoint_writes() {
        let mut data = vec![0usize; 100];
        data.par_chunks_mut(7).enumerate().for_each(|(ci, chunk)| {
            for x in chunk.iter_mut() {
                *x = ci;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i / 7);
        }
    }

    #[test]
    fn vec_into_par_iter_moves_items() {
        let v: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        let out: Vec<String> = v.into_par_iter().map(|s| s + "!").collect();
        assert_eq!(out[49], "49!");
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn install_bounds_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        pool.install(|| assert_eq!(current_num_threads(), 3));
        let pool1 = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let out: Vec<usize> = pool1.install(|| (0..10).into_par_iter().map(|i| i).collect());
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs() {
        let v: Vec<usize> = Vec::new().into_par_iter().map(|i: usize| i).collect();
        assert!(v.is_empty());
        let data: [f64; 0] = [];
        let out: Vec<f64> = data.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }
}
