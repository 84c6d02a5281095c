//! Log₂-bucketed latency histograms with sub-bucket resolution.
//!
//! The design is the classic HDR layout: values below [`SUB`] get one
//! exact bucket each; above that, each power-of-two range is split into
//! [`SUB`] equal sub-buckets, so every bucket's width is at most
//! `1/SUB` (6.25%) of its lower bound. That makes the bucket index
//! computable with two bit operations — O(1), no search — while keeping
//! every reported percentile within a guaranteed relative error bound.
//!
//! Two flavors share the same bucket math:
//!
//! * [`Histogram`] — plain and single-owner. This is the math type: it
//!   records with `&mut self` under saturating arithmetic, travels over
//!   the wire in the `STATS_V2` frame, and renders percentiles.
//! * [`AtomicHistogram`] — the lock-free concurrent recorder used on
//!   the engine's hot paths. Bucket slots are plain `AtomicU64`s;
//!   `count`/`sum` go through a [`Striped`] counter so concurrent
//!   workers don't serialize on one cache line. `snapshot()` collapses
//!   it into a [`Histogram`].

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// log₂ of the sub-bucket count: each power-of-two range is split into
/// `2^SUB_BITS` sub-buckets.
pub const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two range (and the bound below which every
/// value gets an exact bucket).
pub const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: one linear group of [`SUB`] exact buckets plus
/// `64 - SUB_BITS` exponential groups of [`SUB`] sub-buckets, covering
/// all of `u64`.
pub const SLOTS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Bucket index of a value. O(1): a leading-zeros count and a shift.
#[inline]
pub fn index_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let h = 63 - v.leading_zeros(); // highest set bit, ≥ SUB_BITS
        let group = (h - SUB_BITS + 1) as usize;
        let sub = ((v >> (h - SUB_BITS)) & (SUB - 1)) as usize;
        (group << SUB_BITS) + sub
    }
}

/// Smallest value that lands in bucket `i` (the bucket's inclusive
/// lower bound).
#[inline]
pub fn lower_bound(i: usize) -> u64 {
    debug_assert!(i < SLOTS);
    if i < SUB as usize {
        i as u64
    } else {
        let group = (i >> SUB_BITS) as u32;
        let sub = (i as u64) & (SUB - 1);
        let h = group + SUB_BITS - 1;
        (1u64 << h) + (sub << (h - SUB_BITS))
    }
}

/// Largest value that lands in bucket `i` (the bucket's inclusive
/// upper bound).
#[inline]
pub fn upper_bound(i: usize) -> u64 {
    if i + 1 >= SLOTS {
        u64::MAX
    } else {
        lower_bound(i + 1) - 1
    }
}

fn saturating_fetch_add(cell: &AtomicU64, add: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(add);
        if next == cur {
            return; // already saturated
        }
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A lock-free counter striped across cache lines.
///
/// Hot-path increments land on a per-thread stripe (no shared cache
/// line between workers); reads sum the stripes. Totals saturate at
/// `u64::MAX` instead of wrapping.
pub struct Striped {
    stripes: Box<[Stripe]>,
}

/// One cache line worth of counter.
#[repr(align(64))]
#[derive(Default)]
struct Stripe {
    value: AtomicU64,
}

/// Number of stripes: enough that a handful of workers rarely collide.
const STRIPES: usize = 16;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE_SEED: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed);
}

fn stripe_of(len: usize) -> usize {
    STRIPE_SEED.with(|s| *s) % len
}

impl Striped {
    /// A zeroed striped counter.
    pub fn new() -> Self {
        Striped { stripes: (0..STRIPES).map(|_| Stripe::default()).collect() }
    }

    /// Add `v` on this thread's stripe (lock-free, saturating).
    #[inline]
    pub fn add(&self, v: u64) {
        saturating_fetch_add(&self.stripes[stripe_of(self.stripes.len())].value, v);
    }

    /// Sum of all stripes (saturating).
    pub fn get(&self) -> u64 {
        self.stripes.iter().fold(0u64, |acc, s| acc.saturating_add(s.value.load(Ordering::Relaxed)))
    }
}

impl Default for Striped {
    fn default() -> Self {
        Self::new()
    }
}

/// A plain log₂/sub-bucket histogram (see module docs). All arithmetic
/// saturates at `u64::MAX`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: vec![0; SLOTS], count: 0, sum: 0, max: 0 }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `weight` samples of value `v` (saturating).
    #[inline]
    pub fn record_n(&mut self, v: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        let i = index_of(v);
        self.counts[i] = self.counts[i].saturating_add(weight);
        self.count = self.count.saturating_add(weight);
        self.sum = self.sum.saturating_add(v.saturating_mul(weight));
        self.max = self.max.max(v);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact (not bucketized) sum of all recorded values, saturating.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (exact), or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The bucket `(lower, upper)` bounds containing the `p`-th
    /// percentile sample (`p` in `[0, 100]`), or `(0, 0)` if empty.
    ///
    /// The bound guarantee: at least `⌈p/100 · count⌉` samples are ≤
    /// `upper`, and fewer than that are < `lower` — i.e. the true
    /// percentile sample's value lies in `[lower, upper]`, a range no
    /// wider than `1/SUB` (6.25%) of its lower bound.
    pub fn percentile_bounds(&self, p: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                // The exact max tightens the top bucket's upper bound.
                return (lower_bound(i), upper_bound(i).min(self.max));
            }
        }
        (self.max, self.max) // unreachable unless counts were mutated externally
    }

    /// A point estimate of the `p`-th percentile: the midpoint of the
    /// bucket containing it (always within [`percentile_bounds`]).
    ///
    /// [`percentile_bounds`]: Histogram::percentile_bounds
    pub fn percentile(&self, p: f64) -> u64 {
        let (lo, hi) = self.percentile_bounds(p);
        lo + (hi - lo) / 2
    }

    /// Non-empty buckets as `(bucket index, count)` pairs — the sparse
    /// form the wire encoding uses.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c != 0).map(|(i, &c)| (i as u16, c))
    }

    /// Rebuild a histogram from its sparse parts (wire decode).
    /// Returns `None` if a bucket index is out of range.
    pub fn from_parts(buckets: &[(u16, u64)], count: u64, sum: u64, max: u64) -> Option<Histogram> {
        let mut h = Histogram::new();
        for &(i, c) in buckets {
            if (i as usize) >= SLOTS {
                return None;
            }
            h.counts[i as usize] = h.counts[i as usize].saturating_add(c);
        }
        h.count = count;
        h.sum = sum;
        h.max = max;
        Some(h)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The concurrent, lock-free histogram recorder (see module docs).
pub struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    count: Striped,
    sum: Striped,
    max: AtomicU64,
}

impl AtomicHistogram {
    /// An empty atomic histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            counts: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
            count: Striped::new(),
            sum: Striped::new(),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Lock-free and O(1): one indexed saturating
    /// add on the bucket, two striped adds, one `fetch_max`.
    ///
    /// The count is published last, behind a release fence, and
    /// [`snapshot`](Self::snapshot) reads it first: a reader that sees
    /// `count == k` also sees every write this thread made before its
    /// k-th sample, including the sample's own bucket, sum and max.
    #[inline]
    pub fn record(&self, v: u64) {
        saturating_fetch_add(&self.counts[index_of(v)], 1);
        self.sum.add(v);
        self.max.fetch_max(v, Ordering::Relaxed);
        fence(Ordering::Release);
        self.count.add(1);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Collapse into a plain [`Histogram`] for math/encode.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        h.count = self.count.get();
        fence(Ordering::Acquire);
        for (dst, src) in h.counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.sum = self.sum.get();
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_u64() {
        // Every bucket's lower bound maps back to that bucket, and
        // bucket i+1 starts right after bucket i ends.
        for i in 0..SLOTS {
            let lo = lower_bound(i);
            assert_eq!(index_of(lo), i, "lower bound of bucket {i}");
            let hi = upper_bound(i);
            assert_eq!(index_of(hi), i, "upper bound of bucket {i}");
            if i + 1 < SLOTS {
                assert_eq!(lower_bound(i + 1), hi + 1);
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB {
            assert_eq!(index_of(v), v as usize);
            assert_eq!(lower_bound(v as usize), v);
            assert_eq!(upper_bound(v as usize), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[17u64, 1000, 65_535, 1 << 30, u64::MAX / 3, u64::MAX] {
            let i = index_of(v);
            let (lo, hi) = (lower_bound(i), upper_bound(i));
            assert!(lo <= v && v <= hi);
            // Bucket width ≤ lo / SUB for the exponential groups.
            if v >= SUB {
                assert!(hi - lo <= lo / SUB + 1, "bucket {i} too wide: [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn percentiles_of_known_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 1000 * 1001 / 2);
        assert_eq!(h.max(), 1000);
        for &(p, expect) in &[(50.0, 500u64), (95.0, 950), (99.0, 990), (100.0, 1000)] {
            let (lo, hi) = h.percentile_bounds(p);
            assert!(lo <= expect && expect <= hi, "p{p}: true value {expect} outside [{lo}, {hi}]");
            let mid = h.percentile(p);
            assert!(lo <= mid && mid <= hi);
        }
        // p0 = the smallest sample's bucket.
        let (lo, hi) = h.percentile_bounds(0.0);
        assert!(lo <= 1 && 1 <= hi);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile_bounds(50.0), (0, 0));
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn saturation_does_not_wrap() {
        let mut h = Histogram::new();
        h.record_n(7, u64::MAX);
        h.record_n(7, 5);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn atomic_matches_plain() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 999, 1 << 20, u64::MAX] {
            a.record(v);
            p.record(v);
        }
        assert_eq!(a.snapshot(), p);
    }

    #[test]
    fn atomic_recording_is_thread_safe() {
        let a = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let a = std::sync::Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        a.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = a.snapshot();
        assert_eq!(s.count(), 40_000);
        assert_eq!(s.max(), 3 * 10_000 + 9_999);
    }

    #[test]
    fn sparse_round_trip() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 250, 1 << 33] {
            h.record(v);
        }
        let buckets: Vec<(u16, u64)> = h.nonzero_buckets().collect();
        let back = Histogram::from_parts(&buckets, h.count(), h.sum(), h.max()).unwrap();
        assert_eq!(back, h);
        assert!(Histogram::from_parts(&[(u16::MAX, 1)], 1, 1, 1).is_none());
    }

    #[test]
    fn striped_counter_sums_across_threads() {
        let s = std::sync::Arc::new(Striped::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.add(3);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.get(), 8 * 1000 * 3);
        s.add(u64::MAX);
        assert_eq!(s.get(), u64::MAX);
    }
}
