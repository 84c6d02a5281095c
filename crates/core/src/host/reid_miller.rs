//! Reid-Miller's sublist algorithm (paper §2.5), host backend.
//!
//! Phase 0 splits the list at `m` random vertices into `m+1` independent
//! sublists; Phase 1 reduces each sublist to its operator-sum; Phase 2
//! scans the reduced list of sums (serially, with Wyllie, or
//! recursively); Phase 3 expands the Phase-2 prefixes back across the
//! sublists. Work ≈ 2× serial (each vertex is touched once in Phase 1
//! and once in Phase 3), constants small, extra space `O(m)`.
//!
//! On a multicore, the paper's virtual processors become rayon tasks:
//! `m ≫ #threads` over-decomposes the work so that work stealing evens
//! out the exponentially distributed sublist lengths — the same role
//! the C90 implementation's pack-based load balancing plays.
//! This backend is **non-destructive** (boundaries live in a side
//! bitmap instead of spliced self-loops).

use crate::host::scratch::RankScratch;
use crate::util::DisjointWriter;
use listkit::walk::{self, LaneStats, WalkPolicy};
use listkit::{gen, Idx, LinkedList, ScanOp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Phase-2 strategy for the reduced list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Phase2 {
    /// Choose by reduced-list size (serial below the recursion cutoff).
    #[default]
    Auto,
    /// Serial scan of the reduced list.
    Serial,
    /// Wyllie pointer jumping on the reduced list.
    Wyllie,
    /// Recursive application of this algorithm.
    Recurse,
}

/// Reid-Miller list scan/rank.
#[derive(Clone, Copy, Debug)]
pub struct ReidMiller {
    /// Seed for the random split positions.
    pub seed: u64,
    /// Number of split positions `m` (`None` = heuristic: a few
    /// thousand vertices per sublist, at least 8 tasks per thread).
    pub m: Option<usize>,
    /// Phase-2 strategy.
    pub phase2: Phase2,
    /// Lists up to this length run serially outright.
    pub serial_cutoff: usize,
    /// Reduced lists longer than this recurse under [`Phase2::Auto`].
    pub recurse_cutoff: usize,
    /// Interleaved traversal lanes per worker in Phases 1 and 3 (the
    /// paper's vectorized sublist traversal as memory-level
    /// parallelism; see [`listkit::walk`]). Never changes results —
    /// only how many cache misses each worker keeps in flight.
    pub lanes: usize,
}

/// Chunked Phase-1 work items: a slice of chain heads paired with the
/// matching slice of per-chain result slots.
type ChainWork<'a, R> = Vec<(&'a [Idx], &'a mut [R])>;

impl Default for ReidMiller {
    fn default() -> Self {
        Self {
            seed: 0x11157,
            m: None,
            phase2: Phase2::Auto,
            serial_cutoff: 2048,
            recurse_cutoff: 8192,
            lanes: walk::DEFAULT_LANES,
        }
    }
}

impl ReidMiller {
    /// With an explicit seed, otherwise defaults.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Fix the number of split positions.
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }

    /// Fix the Phase-2 strategy.
    pub fn with_phase2(mut self, p2: Phase2) -> Self {
        self.phase2 = p2;
        self
    }

    /// Fix the interleaved-lane count for Phases 1 and 3.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// The heuristic `m` for a list of `n` vertices at the default lane
    /// count; see [`Self::default_m_for`].
    pub fn default_m(n: usize) -> usize {
        Self::default_m_for(n, walk::DEFAULT_LANES)
    }

    /// The heuristic `m` for a list of `n` vertices walked with `lanes`
    /// interleaved lanes: targets sublists of ~2048 vertices, but at
    /// least `8·lanes` tasks per worker thread — each worker needs ≥
    /// `lanes` *live* sublists to keep its lanes full, and the 8×
    /// over-decomposition on top lets work stealing level the
    /// exponential sublist-length distribution.
    pub fn default_m_for(n: usize, lanes: usize) -> usize {
        let threads = rayon::current_num_threads();
        (n / 2048).max(threads * 8 * lanes.max(1)).min(n / 4).max(1)
    }

    /// Exclusive list scan.
    pub fn scan<T, Op>(&self, list: &LinkedList, values: &[T], op: &Op) -> Vec<T>
    where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        let mut scratch = RankScratch::new();
        let mut out = Vec::new();
        self.scan_into(list, values, op, &mut scratch, &mut out);
        out
    }

    /// [`Self::scan`] into caller-provided buffers: `scratch` holds the
    /// O(n) working arrays and `out` receives the result; both are
    /// reused across calls without reallocating once grown. This is the
    /// entry point batch executors (`engine`) drive with pooled buffers.
    pub fn scan_into<T, Op>(
        &self,
        list: &LinkedList,
        values: &[T],
        op: &Op,
        scratch: &mut RankScratch,
        out: &mut Vec<T>,
    ) where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        out.clear();
        out.resize(list.len(), op.identity());
        self.scan_mapped(list, values, op, scratch, out, |x| x);
    }

    /// [`Self::scan_into`] through an output sink: Phase 3 writes
    /// `out[v] = map(prefix at v)` for every vertex, exactly once, so
    /// `out` may be any initialized region of one slot per vertex — a
    /// reply frame's payload viewed as little-endian words included.
    pub fn scan_mapped<T, Op, O>(
        &self,
        list: &LinkedList,
        values: &[T],
        op: &Op,
        scratch: &mut RankScratch,
        out: &mut [O],
        map: impl Fn(T) -> O + Sync,
    ) where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
        O: Send,
    {
        assert_eq!(values.len(), list.len());
        assert_eq!(out.len(), list.len(), "output length mismatch");
        let n = list.len();
        let m_req = self.m.unwrap_or_else(|| Self::default_m_for(n, self.lanes));
        if n <= self.serial_cutoff.max(4) || m_req < 2 || !self.phase0_split(list, m_req, scratch) {
            listkit::serial::scan_mapped(list, values, op, out, map);
            return;
        }
        let links = list.links();
        let RankScratch { boundary, heads, sub_of_head, next_sub, telemetry, .. } = scratch;
        let (boundary, heads, sub_of_head) = (&*boundary, &heads[..], &sub_of_head[..]);
        let telemetry = &*telemetry;
        let policy = WalkPolicy::with_lanes(self.lanes);
        let chunk =
            walk::chunk_len(heads.len(), rayon::current_num_threads(), policy.effective_lanes());

        // ---- Phase 1: sum each sublist. Each worker interleaves K
        // lanes over its chunk of sublists, keeping K independent
        // cache misses in flight (the paper's vectorized traversal).
        let k = heads.len();
        let mut sums: Vec<(T, Idx)> = vec![(op.identity(), 0); k];
        {
            let work: ChainWork<'_, (T, Idx)> =
                heads.chunks(chunk).zip(sums.chunks_mut(chunk)).collect();
            work.into_par_iter().with_min_len(1).for_each(|(hs, sums_chunk)| {
                let mut stats = LaneStats::default();
                walk::reduce_chains(list, values, op, hs, boundary, policy, sums_chunk, &mut stats);
                telemetry.add(&stats);
            });
        }

        // ---- Reduced list.
        fill_next_sub(&sums, links, sub_of_head, list.tail(), next_sub);
        let totals: Vec<T> = sums.iter().map(|&(s, _)| s).collect();

        // ---- Phase 2: exclusive scan of the reduced list.
        let pre = self.phase2_scan(next_sub, &totals, op, k);

        // ---- Phase 3: expand prefixes over the sublists (parallel
        // disjoint writes: sublists partition the vertex set), again
        // K-lane interleaved per worker.
        {
            let (writer, map) = (DisjointWriter::new(out), &map);
            let work: Vec<(&[Idx], &[T])> = heads.chunks(chunk).zip(pre.chunks(chunk)).collect();
            work.into_par_iter().with_min_len(1).for_each(|(hs, seeds)| {
                let mut stats = LaneStats::default();
                walk::expand_chains(
                    list,
                    values,
                    op,
                    hs,
                    seeds,
                    boundary,
                    policy,
                    // SAFETY: each vertex belongs to exactly one
                    // sublist, and exactly one chunk's walker visits
                    // that sublist.
                    |v, val| unsafe { writer.write(v, map(val)) },
                    &mut stats,
                );
                telemetry.add(&stats);
            });
        }
    }

    /// Phase 0, shared by [`Self::rank_into`] and [`Self::scan_into`]:
    /// pick `m_req` random distinct non-tail split vertices and fill
    /// `scratch`'s boundary bitmap, sublist-head list and head→sublist
    /// map. Returns `false` when no split survived (caller falls back
    /// to the serial path).
    fn phase0_split(&self, list: &LinkedList, m_req: usize, scratch: &mut RankScratch) -> bool {
        let n = list.len();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let splits = gen::random_split_positions(list, m_req, &mut rng);
        if splits.is_empty() {
            return false;
        }
        let boundary = &mut scratch.boundary;
        boundary.reset(n);
        boundary.set(list.tail() as usize);
        for &r in &splits {
            boundary.set(r as usize);
        }
        // Sublist heads: the whole-list head plus each split's
        // successor — a pure random gather, prefetched ahead.
        let heads = &mut scratch.heads;
        heads.clear();
        heads.push(list.head());
        walk::gather_links(list, &splits, WalkPolicy::with_lanes(self.lanes), heads);
        let sub_of_head = &mut scratch.sub_of_head;
        if sub_of_head.capacity() < n {
            // Grown as `resize` would grow it, on huge pages.
            *sub_of_head = listkit::pages::vec_with_capacity(n.max(2 * sub_of_head.capacity()));
        }
        sub_of_head.clear();
        sub_of_head.resize(n, u32::MAX);
        for (i, &h) in heads.iter().enumerate() {
            sub_of_head[h as usize] = i as u32;
        }
        true
    }

    /// Phase-2 dispatch on the reduced list (`k` sublists, links
    /// `next_sub`, head = sublist 0).
    fn phase2_scan<T, Op>(&self, next_sub: &[Idx], totals: &[T], op: &Op, k: usize) -> Vec<T>
    where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        let strategy = match self.phase2 {
            Phase2::Auto if k > self.recurse_cutoff => Phase2::Recurse,
            Phase2::Auto => Phase2::Serial,
            other => other,
        };
        match strategy {
            Phase2::Serial | Phase2::Auto => {
                // Walk the reduced list directly; no LinkedList needed.
                let mut pre = vec![op.identity(); k];
                let mut acc = op.identity();
                let mut cur = 0usize;
                loop {
                    pre[cur] = acc;
                    acc = op.combine(acc, totals[cur]);
                    if next_sub[cur] as usize == cur {
                        break;
                    }
                    cur = next_sub[cur] as usize;
                }
                pre
            }
            Phase2::Wyllie => {
                let reduced = LinkedList::new(next_sub.to_vec(), 0)
                    .expect("reduced list is a valid single path");
                super::wyllie::Wyllie.scan(&reduced, totals, op)
            }
            Phase2::Recurse => {
                let reduced = LinkedList::new(next_sub.to_vec(), 0)
                    .expect("reduced list is a valid single path");
                // Fresh seed per level, and — crucially — drop any
                // explicit `m` override: the heuristic re-derives `m`
                // for the smaller list (an inherited large `m` would
                // barely shrink the problem and recurse unboundedly).
                let inner = Self {
                    seed: self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
                    m: None,
                    ..*self
                };
                inner.scan(&reduced, totals, op)
            }
        }
    }

    /// List ranking (the scan of all-ones, specialized to counting: no
    /// value array is materialized and Phase 1 only measures lengths).
    pub fn rank(&self, list: &LinkedList) -> Vec<u64> {
        let mut scratch = RankScratch::new();
        let mut out = Vec::new();
        self.rank_into(list, &mut scratch, &mut out);
        out
    }

    /// [`Self::rank`] into caller-provided buffers: `scratch` holds the
    /// O(n) working arrays, `out` receives the ranks; both are reused
    /// across calls without reallocating once grown. Identical output
    /// to [`Self::rank`] for the same seed.
    pub fn rank_into(&self, list: &LinkedList, scratch: &mut RankScratch, out: &mut Vec<u64>) {
        out.clear();
        out.resize(list.len(), 0);
        self.rank_mapped(list, scratch, out, |r| r);
    }

    /// [`Self::rank_into`] through an output sink: Phase 3 writes
    /// `out[v] = map(rank of v)` for every vertex, exactly once (see
    /// [`Self::scan_mapped`]).
    pub fn rank_mapped<O: Send>(
        &self,
        list: &LinkedList,
        scratch: &mut RankScratch,
        out: &mut [O],
        map: impl Fn(u64) -> O + Sync,
    ) {
        assert_eq!(out.len(), list.len(), "output length mismatch");
        let n = list.len();
        let m_req = self.m.unwrap_or_else(|| Self::default_m_for(n, self.lanes));
        if n <= self.serial_cutoff.max(4) || m_req < 2 || !self.phase0_split(list, m_req, scratch) {
            listkit::serial::rank_mapped(list, out, map);
            return;
        }
        let links = list.links();
        let RankScratch { boundary, heads, sub_of_head, next_sub, pre, telemetry, .. } = scratch;
        let (boundary, heads, sub_of_head) = (&*boundary, &heads[..], &sub_of_head[..]);
        let telemetry = &*telemetry;
        let policy = WalkPolicy::with_lanes(self.lanes);
        let chunk =
            walk::chunk_len(heads.len(), rayon::current_num_threads(), policy.effective_lanes());

        // Phase 1: lengths only, K-lane interleaved per worker.
        let mut lens: Vec<(u64, Idx)> = vec![(0, 0); heads.len()];
        {
            let work: ChainWork<'_, (u64, Idx)> =
                heads.chunks(chunk).zip(lens.chunks_mut(chunk)).collect();
            work.into_par_iter().with_min_len(1).for_each(|(hs, lens_chunk)| {
                let mut stats = LaneStats::default();
                walk::count_chains(list, hs, boundary, policy, lens_chunk, &mut stats);
                telemetry.add(&stats);
            });
        }
        let lens = &lens[..];

        // Reduced list + serial exclusive prefix of lengths (the reduced
        // list is short; ranking it recursively would be overkill —
        // matches the paper's serial Phase 2 for practical m).
        let k = heads.len();
        fill_next_sub(lens, links, sub_of_head, list.tail(), next_sub);
        pre.clear();
        pre.resize(k, 0);
        let mut acc = 0u64;
        let mut cur = 0usize;
        loop {
            pre[cur] = acc;
            acc += lens[cur].0;
            if next_sub[cur] as usize == cur {
                break;
            }
            cur = next_sub[cur] as usize;
        }
        let pre = &*pre;

        // Phase 3: write ranks, K-lane interleaved per worker.
        {
            let (writer, map) = (DisjointWriter::new(out), &map);
            let work: Vec<(&[Idx], &[u64])> = heads.chunks(chunk).zip(pre.chunks(chunk)).collect();
            work.into_par_iter().with_min_len(1).for_each(|(hs, seeds)| {
                let mut stats = LaneStats::default();
                walk::expand_rank_chains(
                    list,
                    hs,
                    seeds,
                    boundary,
                    policy,
                    // SAFETY: sublists partition the vertex set.
                    |v, r| unsafe { writer.write(v, map(r)) },
                    &mut stats,
                );
                telemetry.add(&stats);
            });
        }
    }
}

/// Build the reduced list's successor indices from Phase-1 results:
/// sublist `i`'s successor is the sublist starting right after sublist
/// `i`'s terminal vertex (self-loop at the list's final sublist).
fn fill_next_sub<X: Copy>(
    terms: &[(X, Idx)],
    links: &[Idx],
    sub_of_head: &[u32],
    tail: Idx,
    next_sub: &mut Vec<Idx>,
) {
    next_sub.clear();
    next_sub.extend(terms.iter().enumerate().map(|(i, &(_, term))| {
        if term == tail {
            i as Idx
        } else {
            sub_of_head[links[term as usize] as usize]
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use listkit::gen;
    use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, XorOp};

    #[test]
    fn rank_matches_serial_across_sizes() {
        for n in [1usize, 2, 3, 100, 2048, 2049, 10_000, 50_000] {
            let list = gen::random_list(n, n as u64);
            assert_eq!(ReidMiller::new(1).rank(&list), listkit::serial::rank(&list), "n = {n}");
        }
    }

    #[test]
    fn scan_matches_serial() {
        let list = gen::random_list(30_000, 77);
        let vals: Vec<i64> = (0..30_000).map(|i| (i as i64 % 1001) - 500).collect();
        assert_eq!(
            ReidMiller::new(3).scan(&list, &vals, &AddOp),
            listkit::serial::scan(&list, &vals, &AddOp)
        );
        assert_eq!(
            ReidMiller::new(3).scan(&list, &vals, &MaxOp),
            listkit::serial::scan(&list, &vals, &MaxOp)
        );
    }

    #[test]
    fn scan_noncommutative() {
        let list = gen::random_list(12_000, 5);
        let vals: Vec<Affine> =
            (0..12_000).map(|i| Affine::new((i % 5) as i64 - 2, (i % 11) as i64 - 5)).collect();
        assert_eq!(
            ReidMiller::new(9).scan(&list, &vals, &AffineOp),
            listkit::serial::scan(&list, &vals, &AffineOp)
        );
    }

    #[test]
    fn xor_scan_u64() {
        let list = gen::random_list(9_000, 66);
        let vals: Vec<u64> = (0..9_000u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        assert_eq!(
            ReidMiller::new(2).scan(&list, &vals, &XorOp),
            listkit::serial::scan(&list, &vals, &XorOp)
        );
    }

    #[test]
    fn explicit_m_values() {
        let list = gen::random_list(20_000, 4);
        let reference = listkit::serial::rank(&list);
        for m in [2usize, 16, 100, 1000, 4999] {
            assert_eq!(ReidMiller::new(7).with_m(m).rank(&list), reference, "m = {m}");
        }
    }

    #[test]
    fn all_phase2_strategies_agree() {
        let list = gen::random_list(25_000, 12);
        let vals: Vec<i64> = (0..25_000).map(|i| i as i64 % 17).collect();
        let reference = listkit::serial::scan(&list, &vals, &AddOp);
        for p2 in [Phase2::Serial, Phase2::Wyllie, Phase2::Recurse, Phase2::Auto] {
            let rm = ReidMiller::new(5).with_m(3000).with_phase2(p2);
            assert_eq!(rm.scan(&list, &vals, &AddOp), reference, "{p2:?}");
        }
    }

    #[test]
    fn deep_recursion_via_tiny_cutoffs() {
        let mut rm = ReidMiller::new(8).with_m(10_000).with_phase2(Phase2::Recurse);
        rm.serial_cutoff = 64;
        rm.recurse_cutoff = 64;
        let list = gen::random_list(40_000, 3);
        assert_eq!(rm.rank(&list), listkit::serial::rank(&list));
        let vals = vec![2i64; 40_000];
        assert_eq!(rm.scan(&list, &vals, &AddOp), listkit::serial::scan(&list, &vals, &AddOp));
    }

    #[test]
    fn different_seeds_same_answer() {
        let list = gen::random_list(15_000, 1);
        let a = ReidMiller::new(100).rank(&list);
        let b = ReidMiller::new(200).rank(&list);
        assert_eq!(a, b);
    }

    #[test]
    fn sequential_and_blocked_layouts() {
        let s = gen::sequential_list(10_000);
        assert_eq!(ReidMiller::new(1).rank(&s), listkit::serial::rank(&s));
        let b = gen::list_with_layout(10_000, gen::Layout::Blocked(64), 9);
        assert_eq!(ReidMiller::new(1).rank(&b), listkit::serial::rank(&b));
    }

    #[test]
    fn every_lane_count_is_byte_identical() {
        // The tentpole invariant: interleaving never changes results —
        // rank and non-commutative scan agree with the serial oracle at
        // every lane count, on friendly and hostile layouts.
        use listkit::ops::{Affine, AffineOp};
        let n = 30_000;
        for layout in [gen::Layout::Random, gen::Layout::Blocked(64), gen::Layout::Sequential] {
            let list = gen::list_with_layout(n, layout, 41);
            let rank_ref = listkit::serial::rank(&list);
            let funcs: Vec<Affine> =
                (0..n).map(|i| Affine::new((i % 5) as i64 - 2, (i % 11) as i64 - 5)).collect();
            let scan_ref = listkit::serial::scan(&list, &funcs, &AffineOp);
            for lanes in [1usize, 2, 4, 8, 16] {
                let rm = ReidMiller::new(6).with_lanes(lanes);
                assert_eq!(rm.rank(&list), rank_ref, "{layout:?}, lanes = {lanes}");
                assert_eq!(rm.scan(&list, &funcs, &AffineOp), scan_ref, "{layout:?} lanes {lanes}");
            }
        }
    }

    #[test]
    fn lane_telemetry_accumulates() {
        let list = gen::random_list(50_000, 7);
        let mut scratch = RankScratch::new();
        let mut out = Vec::new();
        ReidMiller::new(1).rank_into(&list, &mut scratch, &mut out);
        let stats = scratch.telemetry.snapshot();
        // Phases 1 and 3 each visit every vertex once.
        assert_eq!(stats.steps, 2 * 50_000);
        assert!(stats.slots >= stats.steps, "occupancy cannot exceed 1");
        assert!(stats.occupancy() > 0.5, "balanced chains keep lanes mostly full: {stats:?}");
    }

    #[test]
    fn default_m_scales_with_lanes() {
        // Each worker wants ≥ K live sublists: the per-thread task
        // floor is 8·K, so (below the n/2048 regime) m grows with K.
        let threads = rayon::current_num_threads();
        let n = 1_000_000;
        assert!(ReidMiller::default_m_for(n, 1) >= threads * 8);
        assert!(ReidMiller::default_m_for(n, 16) >= threads * 8 * 16);
        assert_eq!(ReidMiller::default_m(n), ReidMiller::default_m_for(n, walk::DEFAULT_LANES));
        // The n/4 cap still wins on tiny lists.
        assert!(ReidMiller::default_m_for(40, 16) <= 10);
    }

    #[test]
    fn default_m_sane() {
        assert!(ReidMiller::default_m(1_000_000) >= 8);
        assert!(ReidMiller::default_m(1_000_000) <= 250_000);
        assert!(ReidMiller::default_m(10) >= 1);
    }
}
