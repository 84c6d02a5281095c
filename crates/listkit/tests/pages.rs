//! `listkit::pages` on Linux: a buffer of at least
//! [`pages::ADVISE_MIN_BYTES`] lies in a mapping the kernel marks for
//! huge pages (`hg` among its `VmFlags` in `/proc/self/smaps`), and a
//! smaller one does not; a list-sized `zeroed_vec` is advised too. Whether the kernel then found a free 2 MiB page
//! (`AnonHugePages`) depends on fragmentation, so it is not asserted.
//! Skipped where transparent huge pages are missing or set to `never`.
#![cfg(target_os = "linux")]

use listkit::pages;

fn huge_pages_enabled() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|mode| !mode.contains("[never]"))
}

/// Whether the `/proc/self/smaps` mapping that holds `addr` is marked
/// for huge pages.
fn advised(addr: usize) -> bool {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut inside = false;
    for line in smaps.lines() {
        let range = line.split_whitespace().next().and_then(|r| r.split_once('-'));
        if let Some((Ok(lo), Ok(hi))) =
            range.map(|(lo, hi)| (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16)))
        {
            inside = (lo..hi).contains(&addr);
        } else if let Some(flags) = line.strip_prefix("VmFlags:").filter(|_| inside) {
            return flags.split_whitespace().any(|f| f == "hg");
        }
    }
    panic!("no mapping holds {addr:#x}");
}

/// The address halfway into `v`'s buffer, well inside its advised
/// interior.
fn middle<T>(v: &Vec<T>) -> usize {
    v.as_ptr() as usize + v.capacity() * std::mem::size_of::<T>() / 2
}

// One test, small buffer first: the small one must not land in memory
// an earlier advised buffer left behind.
#[test]
fn list_sized_buffers_are_advised_and_small_ones_are_not() {
    if !huge_pages_enabled() {
        eprintln!("transparent huge pages unavailable; skipped");
        return;
    }
    let small: Vec<u64> = pages::vec_with_capacity((1 << 20) / 8);
    assert_eq!(small.capacity(), (1 << 20) / 8);
    assert!(!advised(middle(&small)), "a 1 MiB buffer is left on small pages");

    for bytes in [pages::ADVISE_MIN_BYTES, 32 << 20] {
        let big: Vec<u32> = pages::vec_with_capacity(bytes / 4);
        assert_eq!(big.capacity(), bytes / 4, "the allocation is exact");
        assert!(advised(middle(&big)), "a {bytes}-byte buffer is advised");
    }

    let src: Vec<u32> = (0..(8 << 20) / 4).collect();
    let copy = pages::copied(&src);
    assert_eq!(copy, src);
    assert!(advised(middle(&copy)), "a list-sized copy is advised");

    let zeroed: Vec<u64> = pages::zeroed_vec((8 << 20) / 8);
    assert_eq!(zeroed.capacity(), (8 << 20) / 8, "the allocation is exact");
    assert!(advised(middle(&zeroed)), "a list-sized zeroed buffer is advised");
}
