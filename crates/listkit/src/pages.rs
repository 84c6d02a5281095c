//! List-sized buffers on transparent huge pages.
//!
//! A fresh 32 MiB `Vec` on 4 KiB pages takes 8,192 page faults as it
//! is first written, and every random access of a gather or scatter
//! over it risks a TLB miss. [`vec_with_capacity`] asks the kernel to
//! back a large buffer with 2 MiB pages (`madvise(MADV_HUGEPAGE)`)
//! before any of its pages is touched, so the same buffer faults in
//! 16 pages and a 2 MiB TLB entry covers 512 of its small ones.
//!
//! The advice is a hint: a kernel with transparent huge pages off, or
//! too fragmented to find a free 2 MiB page, keeps 4 KiB pages, and a
//! failed `madvise` is ignored. Off Linux the helper is
//! `Vec::with_capacity`. The raw declaration lives in this module with
//! a scoped `allow`, as the crate's other unsafe code does.
//!
//! A buffer that a socket read fills is a second use: [`zeroed_vec`]
//! takes its pages zeroed from the kernel (`calloc`) and advises them
//! before anything writes them, and [`bytes_mut`] hands a buffer of
//! [`Word`]s to `read` as bytes, so the kernel's copy is the only pass
//! over a fresh list-sized buffer.
#![allow(unsafe_code)]

use crate::ops::Affine;
use std::alloc::Layout;

/// The smallest buffer, in bytes, that is advised: 4 MiB always holds
/// one 2 MiB-aligned huge page, wherever the allocator placed it.
pub const ADVISE_MIN_BYTES: usize = 4 << 20;

/// `Vec::with_capacity(n)`, with the buffer's page-aligned interior
/// advised onto huge pages when it is at least [`ADVISE_MIN_BYTES`].
/// The allocation is exactly the one `Vec::with_capacity` makes.
pub fn vec_with_capacity<T>(n: usize) -> Vec<T> {
    let v = Vec::with_capacity(n);
    let bytes = n * std::mem::size_of::<T>();
    if bytes >= ADVISE_MIN_BYTES {
        advise_huge(v.as_ptr() as usize, bytes);
    }
    v
}

/// A copy of `src` in a buffer from [`vec_with_capacity`].
pub fn copied<T: Copy>(src: &[T]) -> Vec<T> {
    let mut v = vec_with_capacity(src.len());
    v.extend_from_slice(src);
    v
}

mod sealed {
    pub trait Sealed {}
}

/// A word type whose memory a `read` may fill: `u8`, `u32`, `i64`,
/// `u64` and [`Affine`] (`#[repr(C)]`, two `i64`). Each has no padding
/// and every bit pattern of its size is a valid value, which is what
/// [`bytes_mut`] and [`zeroed_vec`] rely on; the trait is sealed so
/// that no other type can claim it.
pub trait Word: Copy + sealed::Sealed {
    /// The all-zero value.
    const ZERO: Self;
    /// The value whose little-endian encoding is `le`'s bytes; the
    /// identity on a little-endian target.
    fn from_le(le: Self) -> Self;
}

macro_rules! word_int {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Word for $t {
            const ZERO: Self = 0;
            fn from_le(le: Self) -> Self {
                <$t>::from_le(le)
            }
        }
    )*};
}

word_int!(u8, u32, i64, u64);

impl sealed::Sealed for Affine {}
impl Word for Affine {
    const ZERO: Self = Affine { a: 0, b: 0 };
    fn from_le(le: Self) -> Self {
        Affine { a: i64::from_le(le.a), b: i64::from_le(le.b) }
    }
}

/// `n` zero words in an allocation that is zeroed by the allocator
/// (`calloc`) and, from [`ADVISE_MIN_BYTES`], advised onto huge pages
/// before any of its pages is touched. A list-sized `calloc` is a fresh
/// mapping whose pages the kernel supplies already zero, so no pass
/// writes the zeros. The allocation is exact: capacity `n`.
pub fn zeroed_vec<T: Word>(n: usize) -> Vec<T> {
    let layout = Layout::array::<T>(n).expect("buffer size overflows");
    if layout.size() == 0 {
        return Vec::new();
    }
    // SAFETY: the layout has a nonzero size.
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<T>();
    if ptr.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    if layout.size() >= ADVISE_MIN_BYTES {
        advise_huge(ptr as usize, layout.size());
    }
    // SAFETY: `ptr` comes from the global allocator with the layout of
    // `n` words, the one a `Vec<T>` of capacity `n` frees with, and its
    // `n` words are initialised: all-zero bytes are a valid `Word`.
    unsafe { Vec::from_raw_parts(ptr, n, n) }
}

/// Make `v` hold `n` words for a read to overwrite: a buffer whose
/// capacity suffices keeps its memory (zeroing only words it did not
/// hold), a smaller one is replaced by a [`zeroed_vec`] without copying
/// its contents.
pub fn resize_zeroed<T: Word>(v: &mut Vec<T>, n: usize) {
    if n > v.capacity() {
        *v = zeroed_vec(n);
    } else {
        v.resize(n, T::ZERO);
    }
}

/// `words`' memory as bytes, for a `read` to fill. Whatever is written
/// through the view leaves valid words behind ([`Word`]): their
/// in-memory representation, which [`from_le_in_place`] turns into the
/// values a little-endian wire meant.
pub fn bytes_mut<T: Word>(words: &mut [T]) -> &mut [u8] {
    let len = std::mem::size_of_val(words);
    // SAFETY: the view covers exactly the memory of `words`, which it
    // borrows mutably for its lifetime; `u8` has alignment 1, and any
    // bytes written through it form valid `Word`s (no padding, every bit
    // pattern valid).
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) }
}

/// Turn words filled with little-endian bytes into their values: a
/// no-op compiled away on a little-endian target.
pub fn from_le_in_place<T: Word>(words: &mut [T]) {
    if cfg!(target_endian = "big") {
        for w in words {
            *w = T::from_le(*w);
        }
    }
}

#[cfg(target_os = "linux")]
fn advise_huge(start: usize, bytes: usize) {
    const PAGE: usize = 4096;
    const MADV_HUGEPAGE: std::ffi::c_int = 14;
    extern "C" {
        fn madvise(
            addr: *mut std::ffi::c_void,
            len: usize,
            advice: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }
    let lo = start.next_multiple_of(PAGE);
    let hi = (start + bytes) / PAGE * PAGE;
    // SAFETY: `[lo, hi)` lies inside one live allocation this caller
    // owns, and MADV_HUGEPAGE changes only how its pages are backed,
    // never their contents or protection. The result is ignored: a
    // refused hint leaves the buffer on small pages.
    unsafe {
        madvise(lo as *mut std::ffi::c_void, hi - lo, MADV_HUGEPAGE);
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge(_start: usize, _bytes: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_vec_is_exact_and_zero() {
        assert_eq!(zeroed_vec::<u64>(0).capacity(), 0);
        let v = zeroed_vec::<Affine>(1000);
        assert_eq!((v.len(), v.capacity()), (1000, 1000));
        assert!(v.iter().all(|&w| w == Affine::ZERO));
        let big = zeroed_vec::<u32>(ADVISE_MIN_BYTES / 4);
        assert_eq!(big.capacity(), ADVISE_MIN_BYTES / 4);
        assert!(big.iter().all(|&w| w == 0));
    }

    #[test]
    fn bytes_written_little_endian_read_back_as_values() {
        let want = [Affine::new(-3, 1 << 40), Affine::new(7, -1)];
        let wire: Vec<u8> =
            want.iter().flat_map(|f| [f.a.to_le_bytes(), f.b.to_le_bytes()]).flatten().collect();
        let mut got = zeroed_vec::<Affine>(2);
        bytes_mut(&mut got).copy_from_slice(&wire);
        from_le_in_place(&mut got);
        assert_eq!(got, want);

        let mut words = zeroed_vec::<i64>(3);
        assert_eq!(bytes_mut(&mut words).len(), 24);
        bytes_mut(&mut words)[8..16].copy_from_slice(&(-5i64).to_le_bytes());
        from_le_in_place(&mut words);
        assert_eq!(words, [0, -5, 0]);
    }

    #[test]
    fn resize_zeroed_keeps_a_large_enough_buffer() {
        let mut v = zeroed_vec::<u64>(100);
        v.iter_mut().for_each(|w| *w = 9);
        let at = v.as_ptr();
        resize_zeroed(&mut v, 10);
        assert_eq!((v.len(), v.as_ptr()), (10, at), "a shrink keeps the memory");
        resize_zeroed(&mut v, 60);
        assert_eq!((v.len(), v.as_ptr()), (60, at), "a regrowth within capacity too");
        assert!(v[10..].iter().all(|&w| w == 0), "the words it did not hold are zero");
        resize_zeroed(&mut v, 500);
        assert_eq!((v.len(), v.capacity()), (500, 500));
        assert!(v.iter().all(|&w| w == 0), "a replaced buffer is all zero");
    }
}
