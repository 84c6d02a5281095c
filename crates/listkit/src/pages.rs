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
#![allow(unsafe_code)]

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
