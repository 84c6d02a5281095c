//! K-lane interleaved traversal: memory-level parallelism for
//! pointer-chasing hot paths.
//!
//! Reid-Miller's C-90 speedup comes from traversing many independent
//! sublists *simultaneously* so the vector pipeline always has a memory
//! operation in flight. The modern analogue on a scalar multicore is
//! **memory-level parallelism**: a single cursor chasing `next[cur]`
//! stalls on one DRAM load per step (~80–100 ns on a miss), while `K`
//! interleaved cursors over independent chains keep `K` misses in
//! flight and amortize the latency to roughly `miss / K`. This module
//! is that engine, shared by every multi-chain hot path in the
//! workspace:
//!
//! * Reid-Miller Phase 1 (sublist reduce) and Phase 3 (prefix expand) —
//!   the *boundary-terminated* walks ([`reduce_chains`],
//!   [`expand_chains`] and their rank specializations);
//! * the shard-local fragment walks of [`crate::sharded`] — the
//!   *length-terminated* walks ([`reduce_runs`], [`expand_runs`],
//!   [`expand_rank_runs`]);
//! * the Phase-0 head gather ([`gather_links`]);
//! * structural validation of untrusted link arrays
//!   ([`crate::validate::validate_links`]), which counts strided
//!   sublists with the boundary-terminated driver under a step budget.
//!
//! Interleaving never changes the order in which any single chain is
//! visited, so every result is **byte-identical** to the one-cursor
//! walk for any operator, commutative or not, at any lane count.
//!
//! ## Safety
//!
//! The hot loops use unchecked indexing. This is sound because every
//! entry point takes a [`LinkedList`], whose construction validates
//! `links[v] < n` for all `v` (and `LinkedList::from_raw_trusted`
//! debug-asserts the same), and because each wrapper asserts up front
//! that chain heads, value arrays and the boundary bitset cover the
//! list. A `debug_assert!` shadows every unchecked access, so debug
//! builds (and the test suite) still bounds-check every step. The one
//! entry without a [`LinkedList`], the crate-private validation count,
//! is an `unsafe fn` whose caller has range-checked every link.

#![allow(unsafe_code)]

use crate::list::{Idx, LinkedList};
use crate::ops::ScanOp;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default lane count. Modern cores sustain ~10–12 outstanding L1
/// misses (fill-buffer limit); 8 lanes captures most of that headroom
/// while keeping the lane state comfortably in registers/L1. Keep in
/// sync with `rankmodel::predict::DEFAULT_LANES`, the cost model's
/// mirror of this constant (neither crate depends on the other, so it
/// cannot be imported; a workspace test pins the two together).
pub const DEFAULT_LANES: usize = 8;

/// Hard cap on the lane count: beyond the miss-buffer depth extra lanes
/// only add refill bookkeeping.
pub const MAX_LANES: usize = 64;

/// Distance (in elements) the [`gather_links`] pass prefetches ahead.
const GATHER_PREFETCH_DIST: usize = 16;

/// Issue a best-effort prefetch of `slice[i]` into all cache levels.
/// A no-op on architectures without an exposed prefetch intrinsic.
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if i < slice.len() {
        // SAFETY: `i` is in bounds; prefetch has no observable effect
        // beyond cache state and is safe on any mapped address anyway.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                slice.as_ptr().add(i) as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, i);
    }
}

/// How a walk interleaves: lane count and whether to issue software
/// prefetches for the next step's loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkPolicy {
    /// Cursors kept in flight per worker (clamped to `1..=`[`MAX_LANES`]).
    pub lanes: usize,
    /// Software-prefetch `links`/values/boundary for each lane's next
    /// vertex as soon as it is known.
    pub prefetch: bool,
}

impl Default for WalkPolicy {
    fn default() -> Self {
        WalkPolicy { lanes: DEFAULT_LANES, prefetch: true }
    }
}

impl WalkPolicy {
    /// A policy with the given lane count and prefetch enabled.
    pub fn with_lanes(lanes: usize) -> Self {
        WalkPolicy { lanes, ..Self::default() }
    }

    /// The clamped lane count actually used.
    #[inline]
    pub fn effective_lanes(&self) -> usize {
        self.lanes.clamp(1, MAX_LANES)
    }
}

/// Per-walk occupancy telemetry: `steps` vertices were visited across
/// `slots` lane-slots (sweeps × lane count). `steps / slots` is the
/// fraction of lane capacity that held a live cursor — low occupancy
/// means chains ran dry faster than refill could feed them (e.g. many
/// fewer chains than lanes, or a drain-out tail after one skewed chain).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Vertices visited.
    pub steps: u64,
    /// Lane-slots available while the walk ran.
    pub slots: u64,
}

impl LaneStats {
    /// Fraction of lane-slots that performed a visit (`0.0` when the
    /// walk never ran).
    pub fn occupancy(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.steps as f64 / self.slots as f64
        }
    }

    /// Fold another walk's stats into this one.
    pub fn merge(&mut self, other: &LaneStats) {
        self.steps += other.steps;
        self.slots += other.slots;
    }
}

/// Shared accumulator for [`LaneStats`] from concurrent walkers
/// (rayon tasks add their local stats; readers snapshot).
#[derive(Debug, Default)]
pub struct LaneTelemetry {
    steps: AtomicU64,
    slots: AtomicU64,
}

impl LaneTelemetry {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one walker's stats in (relaxed; counters are advisory).
    pub fn add(&self, stats: &LaneStats) {
        self.steps.fetch_add(stats.steps, Ordering::Relaxed);
        self.slots.fetch_add(stats.slots, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> LaneStats {
        LaneStats {
            steps: self.steps.load(Ordering::Relaxed),
            slots: self.slots.load(Ordering::Relaxed),
        }
    }

    /// Zero the totals (start of a new measured region).
    pub fn reset(&self) {
        self.steps.store(0, Ordering::Relaxed);
        self.slots.store(0, Ordering::Relaxed);
    }
}

/// A packed `u64` bitset over vertex indices — the boundary bitmap of
/// Reid-Miller Phase 0/1/3 at 1/8th the memory traffic of a
/// `Vec<bool>` (for a 2²³-vertex list the bitmap is 1 MiB and sits in
/// L2 instead of 8 MiB thrashing L3).
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset addresses zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reserve capacity for at least `bits` bits.
    pub fn reserve(&mut self, bits: usize) {
        self.words.reserve(bits.div_ceil(64));
    }

    /// Bits this set can address without reallocating.
    pub fn capacity(&self) -> usize {
        self.words.capacity() * 64
    }

    /// Resize to exactly `bits` bits, all cleared. Reuses the backing
    /// allocation when capacity suffices (the scratch-pool contract).
    pub fn reset(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = bits;
    }

    /// Set bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Read bit `i` without bounds checking.
    ///
    /// # Safety
    /// `i < self.len()` must hold.
    #[inline(always)]
    pub unsafe fn get_unchecked(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        // SAFETY: i < len ⇒ i/64 < words.len() (len bits fit in words).
        (unsafe { *self.words.get_unchecked(i >> 6) } >> (i & 63)) & 1 != 0
    }

    /// Prefetch the word holding bit `i`.
    #[inline(always)]
    fn prefetch(&self, i: usize) {
        prefetch_read(&self.words, i >> 6);
    }

    /// Heap footprint of the backing storage, in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// Chunk length for splitting `chains` chains across `workers` workers
/// while keeping each chunk ≥ 4·`lanes` chains, so every walker has
/// enough independent chains to refill its lanes and the scheduler has
/// a few chunks per worker to balance skewed chain lengths.
pub fn chunk_len(chains: usize, workers: usize, lanes: usize) -> usize {
    let lanes = lanes.clamp(1, MAX_LANES);
    let target_chunks = workers.max(1) * 4;
    chains.div_ceil(target_chunks).max(4 * lanes).max(1)
}

/// One in-flight cursor of a boundary-terminated walk.
struct Lane<S> {
    chain: u32,
    cur: Idx,
    state: S,
}

/// The boundary-terminated K-lane driver: each chain starts at
/// `heads[i]` and ends at the first vertex whose `boundary` bit is set
/// (inclusive — that vertex is still visited). Lanes refill from the
/// next unstarted chain the moment one finishes.
///
/// `budget` bounds the total vertices visited, checked once per sweep:
/// past it the walk stops and returns `false`, leaving unfinished
/// chains unreported. A chain caught in a boundary-free cycle never
/// ends on its own, so walks over untrusted links pass `n`; walks over
/// a [`LinkedList`] pass `u64::MAX`.
///
/// # Safety
/// Every entry of `links` must be `< links.len()`.
#[allow(clippy::too_many_arguments)]
unsafe fn drive_chains_raw<S>(
    links: &[Idx],
    heads: &[Idx],
    boundary: &BitSet,
    policy: WalkPolicy,
    budget: u64,
    stats: &mut LaneStats,
    mut init: impl FnMut(usize) -> S,
    mut visit: impl FnMut(&mut S, usize),
    mut finish: impl FnMut(usize, S, Idx),
    prefetch_value: impl Fn(usize),
) -> bool {
    let n = links.len();
    assert_eq!(boundary.len(), n, "boundary bitset must cover the list");
    for &h in heads {
        assert!((h as usize) < n, "chain head {h} out of bounds for {n} vertices");
    }
    let k = policy.effective_lanes();
    let mut lanes: Vec<Lane<S>> = Vec::with_capacity(k.min(heads.len()));
    let mut next = 0usize;
    while next < heads.len() && lanes.len() < k {
        lanes.push(Lane { chain: next as u32, cur: heads[next], state: init(next) });
        next += 1;
    }
    let (mut steps, mut sweeps) = (0u64, 0u64);
    while !lanes.is_empty() && steps <= budget {
        sweeps += 1;
        let mut l = 0;
        while l < lanes.len() {
            let cur = lanes[l].cur as usize;
            debug_assert!(cur < n);
            visit(&mut lanes[l].state, cur);
            steps += 1;
            // SAFETY: cur < n == boundary.len() (heads asserted above;
            // successors stay < n by the caller's link-range contract).
            if unsafe { boundary.get_unchecked(cur) } {
                let done = if next < heads.len() {
                    let fresh = Lane { chain: next as u32, cur: heads[next], state: init(next) };
                    next += 1;
                    l += 1;
                    std::mem::replace(&mut lanes[l - 1], fresh)
                } else {
                    // No refill left: retire the lane; the swapped-in
                    // lane takes slot `l` and runs this sweep.
                    lanes.swap_remove(l)
                };
                finish(done.chain as usize, done.state, cur as Idx);
            } else {
                // SAFETY: cur < n; the caller guarantees links[cur] < n.
                let nx = unsafe { *links.get_unchecked(cur) };
                debug_assert!((nx as usize) < n, "range-checked links stay in bounds");
                lanes[l].cur = nx;
                if policy.prefetch {
                    prefetch_read(links, nx as usize);
                    boundary.prefetch(nx as usize);
                    prefetch_value(nx as usize);
                }
                l += 1;
            }
        }
    }
    stats.steps += steps;
    stats.slots += sweeps * k as u64;
    lanes.is_empty()
}

/// [`drive_chains_raw`] over a validated list, with no step budget.
#[allow(clippy::too_many_arguments)]
fn drive_chains<S>(
    list: &LinkedList,
    heads: &[Idx],
    boundary: &BitSet,
    policy: WalkPolicy,
    stats: &mut LaneStats,
    init: impl FnMut(usize) -> S,
    visit: impl FnMut(&mut S, usize),
    finish: impl FnMut(usize, S, Idx),
    prefetch_value: impl Fn(usize),
) {
    // SAFETY: LinkedList construction validated links[v] < n.
    unsafe {
        drive_chains_raw(
            list.links(),
            heads,
            boundary,
            policy,
            u64::MAX,
            stats,
            init,
            visit,
            finish,
            prefetch_value,
        );
    }
}

/// Chain lengths over a bare link array: [`count_chains`] without a
/// [`LinkedList`], stopping once more than `budget` vertices have been
/// visited (checked once per sweep). Returns `false` on such an early
/// stop, with `out` only partly written. Structural validation counts
/// its chains with this before any list exists.
///
/// # Safety
/// Every entry of `links` must be `< links.len()`.
pub(crate) unsafe fn count_chains_within(
    links: &[Idx],
    heads: &[Idx],
    boundary: &BitSet,
    policy: WalkPolicy,
    budget: u64,
    out: &mut [(u64, Idx)],
) -> bool {
    assert_eq!(out.len(), heads.len(), "one output slot per chain");
    let mut stats = LaneStats::default();
    // SAFETY: forwarded from the caller.
    unsafe {
        drive_chains_raw(
            links,
            heads,
            boundary,
            policy,
            budget,
            &mut stats,
            |_| 0u64,
            |len, _| *len += 1,
            |i, len, term| out[i] = (len, term),
            |_| {},
        )
    }
}

/// One in-flight cursor of a length-terminated walk.
struct RunLane<S> {
    run: u32,
    cur: Idx,
    left: u32,
    state: S,
}

/// The length-terminated K-lane driver: run `i` starts at `heads[i]`
/// and visits exactly `lens[i]` vertices. Zero-length runs are finished
/// immediately without visiting anything. Used for the shard-local
/// fragment walks, where fragment lengths are known from the build.
#[allow(clippy::too_many_arguments)]
fn drive_runs<S>(
    local: &LinkedList,
    heads: &[Idx],
    lens: &[u32],
    policy: WalkPolicy,
    stats: &mut LaneStats,
    mut init: impl FnMut(usize) -> S,
    mut visit: impl FnMut(&mut S, usize),
    mut finish: impl FnMut(usize, S),
    prefetch_value: impl Fn(usize),
) {
    let n = local.len();
    let links = local.links();
    assert_eq!(heads.len(), lens.len(), "one length per run");
    for &h in heads {
        assert!((h as usize) < n, "run head {h} out of bounds for {n} vertices");
    }
    let k = policy.effective_lanes();
    let mut lanes: Vec<RunLane<S>> = Vec::with_capacity(k.min(heads.len()));
    let mut next = 0usize;
    // Produce the next *live* run, finishing zero-length runs on the
    // way; shared by the initial fill and mid-walk refill.
    let next_live = |next: &mut usize,
                     init: &mut dyn FnMut(usize) -> S,
                     finish: &mut dyn FnMut(usize, S)|
     -> Option<RunLane<S>> {
        while *next < heads.len() {
            let i = *next;
            *next += 1;
            if lens[i] == 0 {
                finish(i, init(i));
                continue;
            }
            return Some(RunLane { run: i as u32, cur: heads[i], left: lens[i], state: init(i) });
        }
        None
    };
    while lanes.len() < k {
        match next_live(&mut next, &mut init, &mut finish) {
            Some(lane) => lanes.push(lane),
            None => break,
        }
    }
    let (mut steps, mut sweeps) = (0u64, 0u64);
    while !lanes.is_empty() {
        sweeps += 1;
        let mut l = 0;
        while l < lanes.len() {
            let cur = lanes[l].cur as usize;
            debug_assert!(cur < n);
            visit(&mut lanes[l].state, cur);
            steps += 1;
            lanes[l].left -= 1;
            if lanes[l].left == 0 {
                // Refill in place like `drive_chains`: the fresh run
                // waits for the next sweep (advancing `l` past it), so
                // a sweep never visits more than its starting lane
                // count and occupancy stays ≤ 1 even when every run is
                // a singleton.
                let done = match next_live(&mut next, &mut init, &mut finish) {
                    Some(fresh) => {
                        l += 1;
                        std::mem::replace(&mut lanes[l - 1], fresh)
                    }
                    // No refill left: retire the lane; the swapped-in
                    // lane takes slot `l` and runs this sweep.
                    None => lanes.swap_remove(l),
                };
                finish(done.run as usize, done.state);
            } else {
                // SAFETY: cur < n; construction validated links[cur] < n.
                let nx = unsafe { *links.get_unchecked(cur) };
                debug_assert!((nx as usize) < n, "validated list keeps links in bounds");
                lanes[l].cur = nx;
                if policy.prefetch {
                    prefetch_read(links, nx as usize);
                    prefetch_value(nx as usize);
                }
                l += 1;
            }
        }
    }
    stats.steps += steps;
    stats.slots += sweeps * k as u64;
}

/// Phase-1 reduce: for each chain starting at `heads[i]`, combine the
/// values of its vertices in chain order until (and including) the
/// first boundary vertex. `out[i]` receives `(operator sum, terminal
/// vertex)`. Byte-identical to a one-cursor walk for any lane count.
#[allow(clippy::too_many_arguments)]
pub fn reduce_chains<T, Op>(
    list: &LinkedList,
    values: &[T],
    op: &Op,
    heads: &[Idx],
    boundary: &BitSet,
    policy: WalkPolicy,
    out: &mut [(T, Idx)],
    stats: &mut LaneStats,
) where
    T: Copy,
    Op: ScanOp<T>,
{
    assert_eq!(values.len(), list.len(), "value array length mismatch");
    assert_eq!(out.len(), heads.len(), "one output slot per chain");
    drive_chains(
        list,
        heads,
        boundary,
        policy,
        stats,
        |_| op.identity(),
        // SAFETY: the driver only passes v < list.len() == values.len().
        |acc, v| *acc = op.combine(*acc, unsafe { *values.get_unchecked(v) }),
        |i, acc, term| out[i] = (acc, term),
        |v| prefetch_read(values, v),
    );
}

/// Phase-1 reduce specialized to ranking: `out[i]` = (chain length,
/// terminal vertex). No value array is touched.
pub fn count_chains(
    list: &LinkedList,
    heads: &[Idx],
    boundary: &BitSet,
    policy: WalkPolicy,
    out: &mut [(u64, Idx)],
    stats: &mut LaneStats,
) {
    assert_eq!(out.len(), heads.len(), "one output slot per chain");
    drive_chains(
        list,
        heads,
        boundary,
        policy,
        stats,
        |_| 0u64,
        |len, _| *len += 1,
        |i, len, term| out[i] = (len, term),
        |_| {},
    );
}

/// Phase-3 expand: chain `i` starts at `heads[i]` with prefix
/// `seeds[i]`; every visited vertex `v` gets `write(v, prefix-so-far)`
/// and the prefix is extended by `values[v]`, until (and including) the
/// boundary vertex. `write` receives each vertex exactly once across
/// all chains (chains partition their vertices by construction).
#[allow(clippy::too_many_arguments)]
pub fn expand_chains<T, Op>(
    list: &LinkedList,
    values: &[T],
    op: &Op,
    heads: &[Idx],
    seeds: &[T],
    boundary: &BitSet,
    policy: WalkPolicy,
    mut write: impl FnMut(usize, T),
    stats: &mut LaneStats,
) where
    T: Copy,
    Op: ScanOp<T>,
{
    assert_eq!(values.len(), list.len(), "value array length mismatch");
    assert_eq!(seeds.len(), heads.len(), "one seed per chain");
    drive_chains(
        list,
        heads,
        boundary,
        policy,
        stats,
        |i| seeds[i],
        |acc, v| {
            write(v, *acc);
            // SAFETY: the driver only passes v < list.len() == values.len().
            *acc = op.combine(*acc, unsafe { *values.get_unchecked(v) });
        },
        |_, _, _| {},
        |v| prefetch_read(values, v),
    );
}

/// Phase-3 expand specialized to ranking: chain `i` starts at rank
/// `seeds[i]`; each visited vertex gets `write(v, rank)` with the rank
/// incrementing along the chain.
pub fn expand_rank_chains(
    list: &LinkedList,
    heads: &[Idx],
    seeds: &[u64],
    boundary: &BitSet,
    policy: WalkPolicy,
    mut write: impl FnMut(usize, u64),
    stats: &mut LaneStats,
) {
    assert_eq!(seeds.len(), heads.len(), "one seed per chain");
    drive_chains(
        list,
        heads,
        boundary,
        policy,
        stats,
        |i| seeds[i],
        |r, v| {
            write(v, *r);
            *r += 1;
        },
        |_, _, _| {},
        |_| {},
    );
}

/// Length-terminated reduce: run `i` combines the values of
/// `lens[i]` vertices starting at `heads[i]` (local coordinates) into
/// `out[i]`. A zero-length run yields the identity.
#[allow(clippy::too_many_arguments)]
pub fn reduce_runs<T, Op>(
    local: &LinkedList,
    values: &[T],
    op: &Op,
    heads: &[Idx],
    lens: &[u32],
    policy: WalkPolicy,
    out: &mut [T],
    stats: &mut LaneStats,
) where
    T: Copy,
    Op: ScanOp<T>,
{
    assert_eq!(values.len(), local.len(), "value array length mismatch");
    assert_eq!(out.len(), heads.len(), "one output slot per run");
    drive_runs(
        local,
        heads,
        lens,
        policy,
        stats,
        |_| op.identity(),
        // SAFETY: the driver only passes v < local.len() == values.len().
        |acc, v| *acc = op.combine(*acc, unsafe { *values.get_unchecked(v) }),
        |i, acc| out[i] = acc,
        |v| prefetch_read(values, v),
    );
}

/// Length-terminated expand: run `i` starts at `heads[i]` with prefix
/// `seeds[i]`; each visited local vertex `v` gets
/// `out[v] = prefix-so-far`, extended by `values[v]`. `out` is indexed
/// by local vertex and must cover the local list; runs partition their
/// vertices, so each slot is written at most once.
#[allow(clippy::too_many_arguments)]
pub fn expand_runs<T, Op>(
    local: &LinkedList,
    values: &[T],
    op: &Op,
    heads: &[Idx],
    lens: &[u32],
    seeds: &[T],
    policy: WalkPolicy,
    out: &mut [T],
    stats: &mut LaneStats,
) where
    T: Copy,
    Op: ScanOp<T>,
{
    assert_eq!(values.len(), local.len(), "value array length mismatch");
    assert_eq!(out.len(), local.len(), "output is indexed by local vertex");
    assert_eq!(seeds.len(), heads.len(), "one seed per run");
    let out_ptr = out;
    drive_runs(
        local,
        heads,
        lens,
        policy,
        stats,
        |i| seeds[i],
        |acc, v| {
            // SAFETY: v < local.len() == out.len() == values.len().
            unsafe {
                *out_ptr.get_unchecked_mut(v) = *acc;
                *acc = op.combine(*acc, *values.get_unchecked(v));
            }
        },
        |_, _| {},
        |v| prefetch_read(values, v),
    );
}

/// Length-terminated rank expand: run `i` starts at rank `seeds[i]`;
/// each visited local vertex `v` gets `out[v] = rank`, incrementing
/// along the run. The shard-local half of sharded ranking.
#[allow(clippy::too_many_arguments)]
pub fn expand_rank_runs(
    local: &LinkedList,
    heads: &[Idx],
    lens: &[u32],
    seeds: &[u64],
    policy: WalkPolicy,
    out: &mut [u64],
    stats: &mut LaneStats,
) {
    assert_eq!(out.len(), local.len(), "output is indexed by local vertex");
    assert_eq!(seeds.len(), heads.len(), "one seed per run");
    let out_ptr = out;
    drive_runs(
        local,
        heads,
        lens,
        policy,
        stats,
        |i| seeds[i],
        |r, v| {
            // SAFETY: v < local.len() == out.len().
            unsafe { *out_ptr.get_unchecked_mut(v) = *r };
            *r += 1;
        },
        |_, _| {},
        |_| {},
    );
}

/// Batched link gather with look-ahead prefetch: appends
/// `links[at[i]]` for each position to `out`. The Phase-0
/// boundary-splitting pass uses this to turn split vertices into
/// sublist heads — a pure random gather whose loads are all
/// independent, so prefetching `GATHER_PREFETCH_DIST` (16) positions
/// ahead keeps them in flight.
pub fn gather_links(list: &LinkedList, at: &[Idx], policy: WalkPolicy, out: &mut Vec<Idx>) {
    let links = list.links();
    out.reserve(at.len());
    for (i, &v) in at.iter().enumerate() {
        if policy.prefetch {
            if let Some(&ahead) = at.get(i + GATHER_PREFETCH_DIST) {
                prefetch_read(links, ahead as usize);
            }
        }
        out.push(links[v as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::ops::AddOp;

    #[test]
    fn bitset_set_get_reset() {
        let mut b = BitSet::new();
        b.reset(130);
        assert_eq!(b.len(), 130);
        assert!(!b.get(0) && !b.get(129));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65));
        b.reset(10);
        assert!(!b.get(0), "reset clears previous bits");
        assert_eq!(b.len(), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitset_bounds_checked() {
        let mut b = BitSet::new();
        b.reset(8);
        let _ = b.get(8);
    }

    #[test]
    fn chunk_len_keeps_lanes_fed() {
        assert!(chunk_len(10_000, 4, 8) >= 32);
        assert_eq!(chunk_len(5, 4, 8), 32);
        assert!(chunk_len(0, 1, 1) >= 1);
        // Many chains on few workers: over-decomposed ~4× per worker.
        let c = chunk_len(64_000, 2, 8);
        assert!(64_000usize.div_ceil(c) <= 8 + 1);
    }

    #[test]
    fn occupancy_full_on_balanced_chains() {
        // 8 chains of equal length on 8 lanes: every sweep is full.
        let list = gen::sequential_list(64);
        let mut boundary = BitSet::new();
        boundary.reset(64);
        let heads: Vec<Idx> = (0..8).map(|i| i * 8).collect();
        for i in 0..8 {
            boundary.set((i * 8 + 7) as usize);
        }
        let mut out = vec![(0u64, 0 as Idx); 8];
        let mut stats = LaneStats::default();
        count_chains(&list, &heads, &boundary, WalkPolicy::with_lanes(8), &mut out, &mut stats);
        assert_eq!(stats.steps, 64);
        assert!((stats.occupancy() - 1.0).abs() < 1e-9, "{stats:?}");
        for &(len, _) in &out {
            assert_eq!(len, 8);
        }
    }

    #[test]
    fn gather_links_matches_plain_index() {
        let list = gen::random_list(500, 3);
        let at: Vec<Idx> = (0..500).step_by(7).map(|v| v as Idx).collect();
        let mut out = Vec::new();
        gather_links(&list, &at, WalkPolicy::default(), &mut out);
        let want: Vec<Idx> = at.iter().map(|&v| list.links()[v as usize]).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn reduce_and_expand_agree_with_single_lane() {
        // Multi-lane vs single-lane on the same random chains must be
        // byte-identical (the deeper zoo lives in tests/walk.rs).
        let list = gen::random_list(1000, 11);
        let mut boundary = BitSet::new();
        boundary.reset(1000);
        boundary.set(list.tail() as usize);
        let mut heads = vec![list.head()];
        for (pos, v) in list.iter().enumerate() {
            if pos % 37 == 36 && !list.is_tail(v) {
                boundary.set(v as usize);
                heads.push(list.next_of(v));
            }
        }
        let values: Vec<i64> = (0..1000).map(|i| (i % 13) - 6).collect();
        let run = |lanes: usize| {
            let mut sums = vec![(0i64, 0 as Idx); heads.len()];
            let mut stats = LaneStats::default();
            reduce_chains(
                &list,
                &values,
                &AddOp,
                &heads,
                &boundary,
                WalkPolicy::with_lanes(lanes),
                &mut sums,
                &mut stats,
            );
            let mut out = vec![0i64; 1000];
            let seeds: Vec<i64> = sums.iter().map(|&(s, _)| s).collect();
            expand_chains(
                &list,
                &values,
                &AddOp,
                &heads,
                &seeds,
                &boundary,
                WalkPolicy::with_lanes(lanes),
                |v, x| out[v] = x,
                &mut stats,
            );
            (sums, out)
        };
        let one = run(1);
        for lanes in [2usize, 3, 8, 16, 64] {
            assert_eq!(run(lanes), one, "lanes = {lanes}");
        }
    }
}
