//! Shard-parallel representation for lists too large for one worker.
//!
//! Reid-Miller's trade — a little extra work for locality and long
//! vectors — generalizes one level up: a list whose link array exceeds a
//! worker's scratch budget is **sharded** into contiguous index ranges.
//! Each shard stores the list structure restricted to its own vertices
//! as a *per-shard successor array*, and the edges that leave a shard
//! are contracted into a [`BoundaryTable`]. Ranking then proceeds in
//! three phases:
//!
//! 1. **Shard-local rank** — inside a shard the list decomposes into
//!    *fragments* (maximal runs of the global traversal that stay in the
//!    shard). The fragments are chained head-to-tail into one valid
//!    local list, so the existing no-alloc serial ranker
//!    ([`crate::serial::rank_into`]) computes every vertex's offset
//!    within its fragment in one cache-friendly pass. All shards run in
//!    parallel on the rayon pool.
//! 2. **Stitch** — the contracted boundary list (one vertex per
//!    fragment, weighted by fragment length) is scanned to find each
//!    fragment's global starting rank. This list is tiny when the input
//!    has locality and can itself be ranked by any backend (see
//!    [`BoundaryTable::to_list`]); [`BoundaryTable::serial_prefix`] is
//!    the serial reference. Higher layers dispatch this step through
//!    `rankmodel::predict`.
//! 3. **Broadcast** — each shard adds its fragments' global offsets to
//!    the local ranks and writes its contiguous slice of the output, in
//!    parallel, with pure array arithmetic (no pointer chasing).
//!
//! The result is byte-identical to [`crate::serial::rank`] for every
//! topology: ranks are exact integers, so there is no tolerance to
//! negotiate.
//!
//! ```
//! use listkit::sharded::ShardedList;
//!
//! let list = listkit::gen::list_with_layout(10_000, listkit::gen::Layout::Blocked(64), 7);
//! let sharded = ShardedList::build(&list, 1024);
//! assert_eq!(sharded.rank(), listkit::serial::rank(&list));
//! ```

use crate::list::{Idx, LinkedList};
use crate::ops::ScanOp;
use crate::walk::{self, LaneStats, LaneTelemetry, WalkPolicy};
use rayon::prelude::*;

/// The contracted list of fragments: one vertex per fragment, linked by
/// the cross-shard edges, weighted by fragment length.
///
/// `next[f]` is the fragment the global traversal enters after fragment
/// `f` ends (self-loop at the fragment containing the global tail);
/// `lens[f]` is the number of vertices in fragment `f`.
#[derive(Clone, Debug)]
pub struct BoundaryTable {
    next: Vec<Idx>,
    head: Idx,
    lens: Vec<u32>,
}

impl BoundaryTable {
    /// Number of fragments.
    pub fn fragment_count(&self) -> usize {
        self.next.len()
    }

    /// The fragment containing the global head.
    pub fn head(&self) -> Idx {
        self.head
    }

    /// Fragment successor links (self-loop at the final fragment).
    pub fn links(&self) -> &[Idx] {
        &self.next
    }

    /// Per-fragment vertex counts.
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// The contracted list as a validated [`LinkedList`], so any
    /// ranking/scan backend can run the stitch phase.
    pub fn to_list(&self) -> LinkedList {
        LinkedList::new(self.next.clone(), self.head)
            .expect("contracted boundary list is a single valid path by construction")
    }

    /// Serial stitch reference: `prefix[f]` = number of vertices before
    /// fragment `f`'s first vertex in global list order (an exclusive
    /// scan of `lens` along the contracted list).
    pub fn serial_prefix(&self) -> Vec<u64> {
        let mut prefix = Vec::new();
        self.serial_prefix_into(&mut prefix);
        prefix
    }

    /// [`Self::serial_prefix`] into a caller-provided buffer (cleared
    /// and resized; its allocation is reused when capacity suffices) —
    /// the no-alloc entry batch executors stitch through.
    pub fn serial_prefix_into(&self, prefix: &mut Vec<u64>) {
        prefix.clear();
        prefix.resize(self.next.len(), 0);
        let mut acc = 0u64;
        let mut cur = self.head as usize;
        loop {
            prefix[cur] = acc;
            acc += self.lens[cur] as u64;
            if self.next[cur] as usize == cur {
                break;
            }
            cur = self.next[cur] as usize;
        }
    }

    /// Generic serial stitch: the exclusive op-scan of per-fragment
    /// values (e.g. fragment totals from
    /// [`ShardedList::fragment_totals`]) along the contracted list —
    /// the scan analogue of [`Self::serial_prefix`]. Fragment order
    /// along the contracted list *is* global list order, so this is
    /// safe for non-commutative operators.
    pub fn serial_exclusive<T: Copy, Op: ScanOp<T>>(&self, totals: &[T], op: &Op) -> Vec<T> {
        let mut prefix = Vec::new();
        self.serial_exclusive_into(totals, op, &mut prefix);
        prefix
    }

    /// [`Self::serial_exclusive`] into a caller-provided buffer
    /// (cleared and resized; its allocation is reused when capacity
    /// suffices) — the generic-`T` counterpart of
    /// [`Self::serial_prefix_into`]. Unlike the rank stitch, whose
    /// `u64` prefix lives in a pooled scratch buffer, a generic scan's
    /// prefix buffer is owned by the caller (a `Vec<T>` cannot be
    /// pooled monomorphically), so reuse is per call site.
    pub fn serial_exclusive_into<T: Copy, Op: ScanOp<T>>(
        &self,
        totals: &[T],
        op: &Op,
        prefix: &mut Vec<T>,
    ) {
        assert_eq!(totals.len(), self.next.len(), "one total per fragment");
        prefix.clear();
        prefix.resize(self.next.len(), op.identity());
        let mut acc = op.identity();
        let mut cur = self.head as usize;
        loop {
            prefix[cur] = acc;
            acc = op.combine(acc, totals[cur]);
            if self.next[cur] as usize == cur {
                break;
            }
            cur = self.next[cur] as usize;
        }
    }
}

/// One shard: the list structure restricted to a contiguous vertex
/// range, with its fragments chained into a single local list.
#[derive(Clone, Debug)]
struct Shard {
    /// Per-shard successor array: the shard's fragments chained
    /// head-to-tail in discovery order, over local indices.
    local: LinkedList,
    /// Local head vertex of each fragment, discovery order — the chain
    /// seeds the K-lane fragment walker interleaves over.
    frag_heads_local: Vec<Idx>,
    /// Global id of this shard's first fragment (its fragments are the
    /// contiguous id range `frag_off..frag_off + frag_cnt`, in the same
    /// discovery order the chaining uses).
    frag_off: usize,
    /// Number of fragments in this shard.
    frag_cnt: usize,
}

/// Per-shard build output, assembled into [`ShardedList`] afterwards.
struct ShardBuild {
    local_next: Vec<Idx>,
    local_head: Idx,
    local_tail: Idx,
    /// Global head vertex of each fragment, discovery order.
    frag_heads: Vec<Idx>,
    /// Vertex count of each fragment.
    frag_lens: Vec<u32>,
    /// Global vertex the traversal enters after each fragment
    /// (`Idx::MAX` for the fragment ending at the global tail).
    frag_exits: Vec<Idx>,
}

/// A list chunked into contiguous index-range shards (see the module
/// docs for the ranking pipeline).
#[derive(Debug)]
pub struct ShardedList {
    n: usize,
    shard_size: usize,
    shards: Vec<Shard>,
    boundary: BoundaryTable,
    /// Lane policy for the shard-local fragment walks.
    policy: WalkPolicy,
    /// Accumulated lane occupancy across this list's walks.
    telemetry: LaneTelemetry,
}

impl ShardedList {
    /// Shard `list` into contiguous index ranges of at most
    /// `shard_size` vertices. Shards are built in parallel; each build
    /// reads only the global link array.
    ///
    /// # Panics
    /// Panics if `shard_size == 0`.
    pub fn build(list: &LinkedList, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard size must be positive");
        let n = list.len();
        let shard_count = n.div_ceil(shard_size);
        let builds: Vec<ShardBuild> = (0..shard_count)
            .into_par_iter()
            .with_min_len(1)
            .map(|s| {
                let lo = s * shard_size;
                let hi = (lo + shard_size).min(n);
                build_shard(list, lo, hi)
            })
            .collect();

        // Assemble the boundary table: fragments get globally
        // contiguous ids in (shard, discovery) order, and exits resolve
        // through a head-vertex -> fragment-id map.
        let total_frags: usize = builds.iter().map(|b| b.frag_heads.len()).sum();
        let mut head_frag = vec![u32::MAX; n];
        let mut off = 0usize;
        for b in &builds {
            for (j, &h) in b.frag_heads.iter().enumerate() {
                head_frag[h as usize] = (off + j) as u32;
            }
            off += b.frag_heads.len();
        }
        let mut next = Vec::with_capacity(total_frags);
        let mut lens = Vec::with_capacity(total_frags);
        let mut shards = Vec::with_capacity(shard_count);
        let mut off = 0usize;
        let mut shard_lo = 0usize;
        for b in builds {
            let frag_cnt = b.frag_heads.len();
            for (j, (&exit, &len)) in b.frag_exits.iter().zip(&b.frag_lens).enumerate() {
                let f = off + j;
                next.push(if exit == Idx::MAX { f as Idx } else { head_frag[exit as usize] });
                lens.push(len);
            }
            let frag_heads_local =
                b.frag_heads.iter().map(|&h| (h as usize - shard_lo) as Idx).collect();
            shards.push(Shard {
                local: LinkedList::from_raw_trusted(b.local_next, b.local_head, b.local_tail),
                frag_heads_local,
                frag_off: off,
                frag_cnt,
            });
            off += frag_cnt;
            shard_lo += shard_size;
        }
        let head = head_frag[list.head() as usize];
        debug_assert_ne!(head, u32::MAX, "global head starts a fragment");
        ShardedList {
            n,
            shard_size,
            shards,
            boundary: BoundaryTable { next, head, lens },
            policy: WalkPolicy::default(),
            telemetry: LaneTelemetry::new(),
        }
    }

    /// Set the lane count for this list's shard-local fragment walks
    /// (see [`crate::walk`]). Lane count never changes results — only
    /// how many cache misses stay in flight per worker.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.policy = WalkPolicy::with_lanes(lanes);
        self
    }

    /// The lane policy the fragment walks run under.
    pub fn policy(&self) -> WalkPolicy {
        self.policy
    }

    /// Lane-occupancy telemetry accumulated over every walk this list
    /// has run (see [`LaneStats`]).
    pub fn lane_stats(&self) -> LaneStats {
        self.telemetry.snapshot()
    }

    /// Number of vertices in the underlying list.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never empty (lists have ≥ 1 vertex).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The per-shard vertex budget this list was built with.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of fragments across all shards (the contracted list's
    /// length — the cross-shard "surface area" of this topology).
    pub fn fragment_count(&self) -> usize {
        self.boundary.fragment_count()
    }

    /// The contracted boundary list.
    pub fn boundary(&self) -> &BoundaryTable {
        &self.boundary
    }

    /// Rank the list: shard-local ranking and broadcast run in
    /// parallel, the stitch is the serial reference. Byte-identical to
    /// [`crate::serial::rank`].
    pub fn rank(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.rank_into(&mut out);
        out
    }

    /// [`Self::rank`] into a caller-provided buffer.
    pub fn rank_into(&self, out: &mut Vec<u64>) {
        let prefix = self.boundary.serial_prefix();
        out.clear();
        out.resize(self.n, 0);
        self.rank_mapped_with_prefix(&prefix, out, |r| r);
    }

    /// Shard-local rank + broadcast, given the stitch result: `prefix[f]`
    /// must be the global rank of fragment `f`'s first vertex (as
    /// produced by [`BoundaryTable::serial_prefix`] or by any scan of
    /// [`BoundaryTable::lens`] along [`BoundaryTable::to_list`]).
    /// Writes `out[v] = map(rank of v)` for every vertex, so `out` may
    /// be any initialized region of one slot per vertex.
    ///
    /// Shards run in parallel; each writes exactly its contiguous slice
    /// of `out`.
    pub fn rank_mapped_with_prefix<O: Send>(
        &self,
        prefix: &[u64],
        out: &mut [O],
        map: impl Fn(u64) -> O + Sync,
    ) {
        assert_eq!(
            prefix.len(),
            self.boundary.fragment_count(),
            "stitch prefix length must equal the fragment count"
        );
        assert_eq!(out.len(), self.n, "output length mismatch");
        let boundary = &self.boundary;
        let (policy, telemetry, map) = (self.policy, &self.telemetry, &map);
        let work: Vec<(&Shard, &mut [O])> =
            self.shards.iter().zip(out.chunks_mut(self.shard_size)).collect();
        work.into_par_iter().with_min_len(1).for_each(|(shard, chunk)| {
            // K-lane interleaved fragment walk: fragment `j` starts at
            // its local head with global rank `prefix[frag_off + j]`
            // and writes ranks straight into the shard's output chunk —
            // no local-rank array, no adjust pass, K misses in flight.
            let lens = &boundary.lens[shard.frag_off..shard.frag_off + shard.frag_cnt];
            let seeds = &prefix[shard.frag_off..shard.frag_off + shard.frag_cnt];
            let mut stats = LaneStats::default();
            walk::expand_rank_runs(
                &shard.local,
                &shard.frag_heads_local,
                lens,
                seeds,
                policy,
                chunk,
                map,
                &mut stats,
            );
            telemetry.add(&stats);
        });
    }

    /// Per-fragment operator totals: `totals[f]` = op-sum of the values
    /// of fragment `f`'s vertices in list order — the generic scan's
    /// Phase-1 analogue of [`BoundaryTable::lens`]. All shards run in
    /// parallel; each walks its cache-resident local list once.
    pub fn fragment_totals<T, Op>(&self, values: &[T], op: &Op) -> Vec<T>
    where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        assert_eq!(values.len(), self.n, "value array length mismatch");
        let boundary = &self.boundary;
        let mut totals = vec![op.identity(); boundary.fragment_count()];
        // Fragment ids are contiguous per shard, so the totals array
        // splits into disjoint per-shard chunks.
        let mut work: Vec<(usize, &Shard, &mut [T])> = Vec::with_capacity(self.shards.len());
        let mut rest: &mut [T] = &mut totals;
        for (s, shard) in self.shards.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(shard.frag_cnt);
            work.push((s, shard, chunk));
            rest = tail;
        }
        let (policy, telemetry) = (self.policy, &self.telemetry);
        work.into_par_iter().with_min_len(1).for_each(|(s, shard, tchunk)| {
            let lo = s * self.shard_size;
            let lens = &boundary.lens[shard.frag_off..shard.frag_off + shard.frag_cnt];
            let vchunk = &values[lo..lo + shard.local.len()];
            let mut stats = LaneStats::default();
            walk::reduce_runs(
                &shard.local,
                vchunk,
                op,
                &shard.frag_heads_local,
                lens,
                policy,
                tchunk,
                &mut stats,
            );
            telemetry.add(&stats);
        });
        totals
    }

    /// Generic exclusive scan along the list: shard-local passes and
    /// broadcast run in parallel, the stitch is the serial reference.
    /// Byte-identical to [`crate::serial::scan`] for any associative
    /// operator (commutative or not).
    pub fn scan<T, Op>(&self, values: &[T], op: &Op) -> Vec<T>
    where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        let mut out = Vec::new();
        self.scan_into(values, op, &mut out);
        out
    }

    /// [`Self::scan`] into a caller-provided buffer.
    pub fn scan_into<T, Op>(&self, values: &[T], op: &Op, out: &mut Vec<T>)
    where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        let totals = self.fragment_totals(values, op);
        let prefix = self.boundary.serial_exclusive(&totals, op);
        out.clear();
        out.resize(self.n, op.identity());
        self.scan_mapped_with_prefix(values, op, &prefix, out, |x| x);
    }

    /// Phase 3 of the generic scan, given the stitch result:
    /// `prefix[f]` must be the exclusive op-scan of fragment totals
    /// along the contracted list (from [`BoundaryTable::
    /// serial_exclusive`] or any scan backend run over
    /// [`BoundaryTable::to_list`]). Each shard re-walks its local list
    /// seeding every fragment with its global prefix — one fused pass,
    /// no per-vertex fragment map. Writes `out[v] = map(prefix at v)`
    /// for every vertex (see [`Self::rank_mapped_with_prefix`]).
    pub fn scan_mapped_with_prefix<T, Op, O>(
        &self,
        values: &[T],
        op: &Op,
        prefix: &[T],
        out: &mut [O],
        map: impl Fn(T) -> O + Sync,
    ) where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
        O: Send,
    {
        assert_eq!(values.len(), self.n, "value array length mismatch");
        assert_eq!(
            prefix.len(),
            self.boundary.fragment_count(),
            "stitch prefix length must equal the fragment count"
        );
        assert_eq!(out.len(), self.n, "output length mismatch");
        let boundary = &self.boundary;
        let (policy, telemetry, map) = (self.policy, &self.telemetry, &map);
        let work: Vec<((usize, &Shard), &mut [O])> =
            self.shards.iter().enumerate().zip(out.chunks_mut(self.shard_size)).collect();
        work.into_par_iter().with_min_len(1).for_each(|((s, shard), chunk)| {
            let lo = s * self.shard_size;
            let lens = &boundary.lens[shard.frag_off..shard.frag_off + shard.frag_cnt];
            let seeds = &prefix[shard.frag_off..shard.frag_off + shard.frag_cnt];
            let vchunk = &values[lo..lo + shard.local.len()];
            let mut stats = LaneStats::default();
            walk::expand_runs(
                &shard.local,
                vchunk,
                op,
                &shard.frag_heads_local,
                lens,
                seeds,
                policy,
                chunk,
                map,
                &mut stats,
            );
            telemetry.add(&stats);
        });
    }
}

/// Build one shard covering global vertices `lo..hi`: identify fragment
/// heads (vertices whose global predecessor lies outside the shard),
/// walk each fragment recording its length and exit edge, and chain the
/// fragments into one valid local list.
fn build_shard(list: &LinkedList, lo: usize, hi: usize) -> ShardBuild {
    let links = list.links();
    let len = hi - lo;
    // A vertex with an in-shard predecessor is interior to a fragment;
    // everything else (including the global head, which has no
    // predecessor at all) starts one.
    let mut is_head = vec![true; len];
    for (off, &nx) in links[lo..hi].iter().enumerate() {
        let (v, nx) = (lo + off, nx as usize);
        if nx != v && (lo..hi).contains(&nx) {
            is_head[nx - lo] = false;
        }
    }
    let mut local_next = vec![0 as Idx; len];
    let mut frag_heads = Vec::new();
    let mut frag_lens = Vec::new();
    let mut frag_exits = Vec::new();
    let mut local_head = 0 as Idx;
    let mut prev_tail: Option<usize> = None;
    for lv in (0..len).filter(|&lv| is_head[lv]) {
        if frag_heads.is_empty() {
            local_head = lv as Idx;
        }
        if let Some(pt) = prev_tail {
            local_next[pt] = lv as Idx; // chain the previous fragment here
        }
        let mut cur = lo + lv;
        let mut flen = 1u32;
        let exit = loop {
            let nx = links[cur] as usize;
            if nx == cur {
                break Idx::MAX; // global tail ends this fragment
            }
            if !(lo..hi).contains(&nx) {
                break nx as Idx; // cross-shard edge
            }
            local_next[cur - lo] = (nx - lo) as Idx;
            cur = nx;
            flen += 1;
        };
        frag_heads.push((lo + lv) as Idx);
        frag_lens.push(flen);
        frag_exits.push(exit);
        prev_tail = Some(cur - lo);
    }
    let local_tail = prev_tail.expect("non-empty shard has at least one fragment") as Idx;
    local_next[local_tail as usize] = local_tail;
    ShardBuild {
        local_next,
        local_head,
        local_tail: local_tail as Idx,
        frag_heads,
        frag_lens,
        frag_exits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Layout};

    fn check_parity(list: &LinkedList, shard_size: usize) {
        let sharded = ShardedList::build(list, shard_size);
        assert_eq!(
            sharded.rank(),
            crate::serial::rank(list),
            "n = {}, shard_size = {shard_size}",
            list.len()
        );
    }

    #[test]
    fn parity_across_layouts_and_shard_sizes() {
        for n in [1usize, 2, 3, 7, 64, 65, 1000] {
            for layout in
                [Layout::Sequential, Layout::Reversed, Layout::Random, Layout::Blocked(16)]
            {
                let list = gen::list_with_layout(n, layout, n as u64);
                for shard_size in [1usize, 3, 16, 64, n.max(1), 2 * n.max(1)] {
                    check_parity(&list, shard_size);
                }
            }
        }
    }

    #[test]
    fn sequential_list_contracts_to_one_fragment_per_shard() {
        let list = gen::sequential_list(1000);
        let sharded = ShardedList::build(&list, 128);
        assert_eq!(sharded.shard_count(), 8);
        assert_eq!(sharded.fragment_count(), 8, "one unbroken run per shard");
        let bt = sharded.boundary();
        assert_eq!(bt.head(), 0);
        let prefix = bt.serial_prefix();
        assert_eq!(prefix, (0..8).map(|i| i * 128).collect::<Vec<u64>>());
    }

    #[test]
    fn random_list_is_boundary_heavy() {
        // A random permutation crosses shards almost every step: the
        // contracted list barely contracts. This is the adversarial
        // topology for sharding, and it must still be exact.
        let list = gen::random_list(4096, 9);
        let sharded = ShardedList::build(&list, 512);
        assert!(sharded.fragment_count() > 3000, "{} fragments", sharded.fragment_count());
        check_parity(&list, 512);
    }

    #[test]
    fn boundary_list_is_a_valid_list_and_lens_sum_to_n() {
        for (n, shard) in [(1usize, 1usize), (500, 64), (1000, 1), (317, 100)] {
            let list = gen::random_list(n, 3);
            let sharded = ShardedList::build(&list, shard);
            let contracted = sharded.boundary().to_list();
            assert_eq!(contracted.len(), sharded.fragment_count());
            let total: u64 = sharded.boundary().lens().iter().map(|&l| l as u64).sum();
            assert_eq!(total, n as u64);
        }
    }

    #[test]
    fn external_stitch_prefix_matches_serial_stitch() {
        // Rank the contracted list by scanning lens along it with the
        // generic serial scanner — the path a parallel stitch backend
        // takes — and check the broadcast agrees with the built-in.
        let list = gen::list_with_layout(5000, Layout::Blocked(32), 11);
        let sharded = ShardedList::build(&list, 600);
        let bt = sharded.boundary();
        let contracted = bt.to_list();
        let lens: Vec<i64> = bt.lens().iter().map(|&l| l as i64).collect();
        let scanned = crate::serial::scan(&contracted, &lens, &crate::ops::AddOp);
        let prefix: Vec<u64> = scanned.iter().map(|&x| x as u64).collect();
        assert_eq!(prefix, bt.serial_prefix());
        // Mapped straight into little-endian words, as a reply frame
        // payload takes them.
        let mut out = vec![[0u8; 8]; list.len()];
        sharded.rank_mapped_with_prefix(&prefix, &mut out, u64::to_le_bytes);
        let want: Vec<[u8; 8]> =
            crate::serial::rank(&list).into_iter().map(u64::to_le_bytes).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn generic_scan_matches_serial_across_layouts() {
        use crate::ops::{AddOp, MaxOp};
        for n in [1usize, 2, 3, 7, 64, 65, 1000] {
            for layout in
                [Layout::Sequential, Layout::Reversed, Layout::Random, Layout::Blocked(16)]
            {
                let list = gen::list_with_layout(n, layout, 3 * n as u64 + 1);
                let values: Vec<i64> = (0..n as i64).map(|i| (i % 17) - 8).collect();
                for shard_size in [1usize, 3, 16, n.max(1), 2 * n.max(1)] {
                    let sharded = ShardedList::build(&list, shard_size);
                    assert_eq!(
                        sharded.scan(&values, &AddOp),
                        crate::serial::scan(&list, &values, &AddOp),
                        "add n = {n}, shard_size = {shard_size}"
                    );
                    assert_eq!(
                        sharded.scan(&values, &MaxOp),
                        crate::serial::scan(&list, &values, &MaxOp),
                        "max n = {n}, shard_size = {shard_size}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_commutative_scan_respects_list_order() {
        // AffineOp is the ordering trap: any path that swaps operand
        // order (e.g. combining a fragment's total *after* its local
        // prefix) produces wrong results here.
        use crate::ops::{Affine, AffineOp};
        let n = 5000;
        let list = gen::random_list(n, 77);
        let funcs: Vec<Affine> =
            (0..n).map(|i| Affine::new((i % 5) as i64 - 2, (i % 11) as i64 - 5)).collect();
        let want = crate::serial::scan(&list, &funcs, &AffineOp);
        for shard_size in [1usize, 64, 700, n] {
            let sharded = ShardedList::build(&list, shard_size);
            assert_eq!(sharded.scan(&funcs, &AffineOp), want, "shard_size = {shard_size}");
        }
    }

    #[test]
    fn segmented_op_scans_through_shards() {
        use crate::ops::AddOp;
        use crate::segmented::{self, SegOp};
        let n = 3000;
        let list = gen::list_with_layout(n, Layout::Blocked(32), 13);
        let values: Vec<i64> = (0..n as i64).map(|i| (i % 9) - 4).collect();
        let mut starts = vec![false; n];
        for (pos, v) in list.iter().enumerate() {
            starts[v as usize] = pos % 41 == 0;
        }
        let wrapped = segmented::wrap(&values, &starts);
        let sharded = ShardedList::build(&list, 256);
        let got =
            segmented::unwrap_exclusive(&sharded.scan(&wrapped, &SegOp(AddOp)), &starts, &AddOp);
        assert_eq!(got, segmented::serial_segmented_scan(&list, &values, &starts, &AddOp));
    }

    #[test]
    fn scan_of_ones_equals_rank() {
        use crate::ops::AddOp;
        let list = gen::list_with_layout(2048, Layout::Blocked(64), 5);
        let ones = vec![1i64; 2048];
        let sharded = ShardedList::build(&list, 300);
        let scanned = sharded.scan(&ones, &AddOp);
        let ranks = sharded.rank();
        assert!(scanned.iter().zip(&ranks).all(|(&s, &r)| s as u64 == r));
    }

    #[test]
    fn external_generic_stitch_matches_builtin() {
        // Stitch the generic scan through an external backend path
        // (scan fragment totals along the contracted list) and feed the
        // prefix back — the route
        // `listrank::host::scan_sharded_prebuilt_mapped` takes.
        use crate::ops::AddOp;
        let list = gen::list_with_layout(4000, Layout::Blocked(50), 21);
        let values: Vec<i64> = (0..4000).map(|i| (i % 13) as i64).collect();
        let sharded = ShardedList::build(&list, 512);
        let totals = sharded.fragment_totals(&values, &AddOp);
        let contracted = sharded.boundary().to_list();
        let prefix = crate::serial::scan(&contracted, &totals, &AddOp);
        assert_eq!(prefix, sharded.boundary().serial_exclusive(&totals, &AddOp));
        let mut out = vec![0i64; list.len()];
        sharded.scan_mapped_with_prefix(&values, &AddOp, &prefix, &mut out, |x| x);
        assert_eq!(out, crate::serial::scan(&list, &values, &AddOp));
    }

    #[test]
    #[should_panic(expected = "shard size must be positive")]
    fn zero_shard_size_rejected() {
        let list = gen::sequential_list(10);
        let _ = ShardedList::build(&list, 0);
    }

    #[test]
    #[should_panic(expected = "stitch prefix length")]
    fn wrong_prefix_length_rejected() {
        let list = gen::sequential_list(100);
        let sharded = ShardedList::build(&list, 10);
        let mut out = vec![0u64; 100];
        sharded.rank_mapped_with_prefix(&[0], &mut out, |r| r);
    }
}
