//! Internal utilities: disjoint parallel writes.

use std::cell::UnsafeCell;

/// A slice wrapper allowing concurrent writes to **provably disjoint**
/// indices from multiple rayon tasks.
///
/// List ranking's output is a scatter: each sublist task writes the scan
/// values of its own vertices, and sublists partition the vertex set, so
/// no two tasks ever touch the same index. An in-place scan along a
/// kept rank array reads and replaces each vertex's element from the
/// one block of positions that holds it. Rust cannot see that
/// disjointness through an index set, hence this narrowly-scoped unsafe
/// cell (the only unsafe code in the crate).
pub struct DisjointWriter<'a, T> {
    slice: &'a [UnsafeCell<T>],
}

// SAFETY: access is only through `write` and `replace`, whose contracts
// require callers to guarantee index-disjointness across threads; with
// disjoint indices there is no aliasing and `T: Send` suffices.
unsafe impl<T: Send> Sync for DisjointWriter<'_, T> {}

impl<'a, T> DisjointWriter<'a, T> {
    /// Wrap a mutable slice for disjoint parallel writing.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `&mut [T]` grants exclusive access; `UnsafeCell<T>` has
        // the same layout as `T`, so reinterpreting the unique borrow as
        // a shared slice of cells is sound (std's Cell::from_mut does the
        // same transposition).
        let ptr = slice.as_mut_ptr() as *const UnsafeCell<T>;
        let len = slice.len();
        Self { slice: unsafe { std::slice::from_raw_parts(ptr, len) } }
    }

    /// Number of elements.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.slice.len()
    }

    /// Whether the underlying slice is empty.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.slice.is_empty()
    }

    /// Write `value` at `index`.
    ///
    /// # Safety
    /// No other thread may read or write `index` for the lifetime of
    /// this writer. Callers uphold this by partitioning the index space
    /// (each sublist owns its vertices).
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        // SAFETY: caller guarantees exclusive use of `index`.
        unsafe { *self.slice[index].get() = value };
    }

    /// Prefetch the element at `index` ahead of a later access: a cache
    /// hint that reads and writes nothing, so it needs no exclusivity.
    /// Out-of-range indices are ignored.
    #[inline]
    pub fn prefetch(&self, index: usize) {
        listkit::walk::prefetch_read(self.slice, index);
    }

    /// Write `value` at `index` and return the element it replaces: the
    /// read-then-write of an in-place scan.
    ///
    /// # Safety
    /// As for [`Self::write`]: no other thread may read or write `index`
    /// for the lifetime of this writer.
    #[inline]
    pub unsafe fn replace(&self, index: usize, value: T) -> T {
        // SAFETY: caller guarantees exclusive use of `index`, so this is
        // the only reference to the element while it lives.
        unsafe { std::mem::replace(&mut *self.slice[index].get(), value) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn parallel_disjoint_writes_land() {
        let mut data = vec![0usize; 10_000];
        {
            let w = DisjointWriter::new(&mut data);
            // Each task owns a distinct residue class: disjoint.
            (0..4usize).into_par_iter().for_each(|r| {
                for i in (r..w.len()).step_by(4) {
                    // SAFETY: residue classes mod 4 are disjoint.
                    unsafe { w.write(i, i * 3) };
                }
            });
        }
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i * 3);
        }
    }

    #[test]
    fn parallel_disjoint_replaces_return_the_old_elements() {
        let mut data: Vec<usize> = (0..10_000).collect();
        {
            let w = DisjointWriter::new(&mut data);
            (0..4usize).into_par_iter().for_each(|r| {
                for i in (r..w.len()).step_by(4) {
                    // SAFETY: residue classes mod 4 are disjoint.
                    let old = unsafe { w.replace(i, i * 3) };
                    assert_eq!(old, i);
                }
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn len_reports() {
        let mut data = vec![0u8; 7];
        let w = DisjointWriter::new(&mut data);
        assert_eq!(w.len(), 7);
        assert!(!w.is_empty());
    }
}
