//! Minimal parallel-iterator facade over index ranges and slices.
//!
//! Only the combinators the workspace actually uses are provided; each
//! executes through `par_ranges`: at most [`crate::effective_threads`]
//! tasks of at least the `with_min_len` grain each, run by the caller
//! and by as many pool workers as it can reserve (by the caller alone
//! when it can reserve none), which claim blocks of the index space
//! from one cursor. Closures must be `Sync` exactly as with rayon, and
//! slice-chunk tasks receive disjoint sub-slices, so the soundness
//! contracts match upstream.

use std::ops::Range;

use crate::{effective_threads, global};

/// Blocks each task's share of an index space is cut into. The caller
/// and its helpers claim blocks from one cursor, so a helper that
/// starts late (or is descheduled) leaves the rest to whoever is free
/// instead of holding a fixed `1 / tasks` of the work.
const BLOCKS_PER_TASK: usize = 4;

/// Run `body` over disjoint sub-ranges that cover `[0, n)`, in parallel
/// when it pays: at most [`crate::effective_threads`] tasks of at least
/// `min_len` indices each (`n < 2 * min_len` never splits), the range
/// cut into [`BLOCKS_PER_TASK`] blocks per task that the caller and its
/// helpers claim from one atomic cursor. With no helper to be had the
/// caller runs `body(0..n)` whole. Which thread runs which block is
/// unspecified; every index is visited exactly once.
fn par_ranges<F>(n: usize, min_len: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let tasks = effective_threads().min(n / min_len.max(1));
    if tasks <= 1 {
        if n > 0 {
            body(0..n);
        }
        return;
    }
    let block = n.div_ceil(tasks * BLOCKS_PER_TASK);
    global().for_each_block(n, block, tasks, &body);
}

/// Conversion into a parallel iterator (rayon's entry-point trait).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Convert `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = RangeParIter;
    fn into_par_iter(self) -> RangeParIter {
        RangeParIter {
            range: self,
            min_len: 1,
        }
    }
}

/// Parallel iterator over `Range<usize>`.
pub struct RangeParIter {
    range: Range<usize>,
    min_len: usize,
}

impl RangeParIter {
    /// Set the minimum number of indices handled per task.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len;
        self
    }

    /// Run `f` for every index.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let lo = self.range.start;
        let n = self.range.end.saturating_sub(lo);
        par_ranges(n, self.min_len, |r| {
            for i in r {
                f(lo + i);
            }
        });
    }
}

/// Parallel mutable chunk iteration over slices (`par_chunks_mut`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable chunks of at most `chunk_size`
    /// elements; the final chunk is shorter when the length is not a
    /// multiple (as with `chunks_mut`).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutParIter<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutParIter<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ChunksMutParIter {
            slice: self,
            chunk_size,
            min_len: 1,
        }
    }
}

/// Raw pointer wrapper for sending a chunk base address across threads;
/// chunk tasks receive provably disjoint sub-slices.
struct SendPtr<T>(*mut T);
// SAFETY: each chunk task reborrows a sub-slice at a distinct offset,
// so no two threads touch the same element; `T: Send` because the
// elements are mutated from the receiving thread.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same argument — tasks never share an element, they partition
// the slice by disjoint chunk offsets.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Parallel iterator over disjoint `&mut [T]` chunks with a shorter
/// final chunk (the `chunks_mut` analogue).
pub struct ChunksMutParIter<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
    min_len: usize,
}

impl<'a, T: Send> ChunksMutParIter<'a, T> {
    /// Set the minimum number of chunks handled per task.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len;
        self
    }

    fn run<F>(self, f: F)
    where
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = self.chunk_size;
        let n = self.slice.len();
        let chunks = n.div_ceil(chunk);
        let base = SendPtr(self.slice.as_mut_ptr());
        let base = &base;
        par_ranges(chunks, self.min_len, move |r| {
            for c in r {
                let start = c * chunk;
                let len = chunk.min(n - start);
                // SAFETY: chunk `c` covers `[start, start+len)`, in
                // bounds by construction; distinct `c` are disjoint and
                // each is visited by exactly one task.
                let sub = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), len) };
                f(c, sub);
            }
        });
    }

    /// Pair every chunk with its index.
    pub fn enumerate(self) -> EnumChunksMutParIter<'a, T> {
        EnumChunksMutParIter { inner: self }
    }
}

/// Enumerated variant of [`ChunksMutParIter`].
pub struct EnumChunksMutParIter<'a, T> {
    inner: ChunksMutParIter<'a, T>,
}

impl<'a, T: Send> EnumChunksMutParIter<'a, T> {
    /// Run `f` on every `(index, chunk)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        self.inner.run(|c, sub| f((c, sub)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn range_for_each_visits_every_index() {
        let n = 10_000usize;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        (0..n).into_par_iter().with_min_len(64).for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunks_mut_covers_remainder() {
        let mut v = vec![0u32; 1003]; // remainder chunk of 3
        v.par_chunks_mut(100).enumerate().for_each(|(i, chunk)| {
            let expect = if i < 10 { 100 } else { 3 };
            assert_eq!(chunk.len(), expect);
            for c in chunk.iter_mut() {
                *c = i as u32 + 1;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 100) as u32 + 1, "i={i}");
        }
    }
}
