//! Shard-parallel huge-list ranking and scan with a model-dispatched
//! stitch.
//!
//! The representation and the parallel shard-local/broadcast phases
//! live in [`listkit::sharded`]; this module supplies the policy the
//! substrate deliberately leaves open: **how to scan the contracted
//! boundary list**. The stitch is itself a list-scan problem — a
//! weighted scan over one vertex per fragment — so it is dispatched
//! through the paper's cost model ([`rankmodel::predict::predict_best`])
//! exactly like a top-level job: a serial walk when the contracted list
//! is small, Reid-Miller when a fragment-heavy topology leaves it long
//! enough to amortize a parallel pass. Ranking and generic scans share
//! that dispatch, its timing and its telemetry; they differ only in the
//! stitch values (fragment lengths vs. fragment operator totals) and
//! in the final expand walk.

use crate::api::Algorithm;
use crate::host::RankScratch;
use listkit::ops::AddOp;
use listkit::sharded::ShardedList;
use listkit::walk::LaneStats;
use listkit::{LinkedList, ScanOp};
use rankmodel::predict::{predict_best, AlgChoice};
use std::time::Instant;

/// Execution metadata of one sharded rank or scan run.
#[derive(Clone, Copy, Debug)]
pub struct ShardedReport {
    /// Shards the list was split into.
    pub shards: usize,
    /// Fragments in the contracted boundary list.
    pub fragments: usize,
    /// Algorithm the stitch phase was dispatched to.
    pub stitch_algorithm: Algorithm,
    /// Nanoseconds spent in the stitch phase (contracted-list scan).
    pub stitch_ns: u64,
}

/// Rank through an **already-built** [`ShardedList`] (byte-identical
/// to [`listkit::serial::rank`] at every lane count) — the resident-
/// dataset fast path: the shard decomposition, boundary table, and lane
/// policy were fixed at build time (or fetched from an artifact cache),
/// so this run pays only the stitch and the final prefix walk.
/// `scratch` serves the stitch phase — its dedicated prefix buffer when
/// the contracted list ranks serially (no per-call allocation), its
/// working arrays when the contracted list is long enough to rank in
/// parallel — and accumulates the walkers' lane-occupancy telemetry.
/// The final expand writes `out[v] = map(rank of v)` for every vertex,
/// so `out` may be any initialized region of one slot per vertex.
pub fn rank_sharded_prebuilt_mapped<O: Send>(
    sharded: &ShardedList,
    seed: u64,
    scratch: &mut RankScratch,
    out: &mut [O],
    map: impl Fn(u64) -> O + Sync,
) -> ShardedReport {
    // The stitch values, the fragment lengths, were reduced at build
    // time; the prefix lands in the scratch's dedicated buffer.
    stitched(
        sharded,
        std::mem::size_of::<u64>(),
        scratch,
        || (),
        |choice, (), scratch| match choice {
            Algorithm::Serial => sharded.boundary().serial_prefix_into(&mut scratch.stitch_pre),
            _ => {
                let lens: Vec<i64> = sharded.boundary().lens().iter().map(|&l| l as i64).collect();
                let scanned = parallel_stitch(sharded, &lens, &AddOp, seed, scratch);
                scratch.stitch_pre.clear();
                scratch.stitch_pre.extend(scanned.iter().map(|&x| x as u64));
            }
        },
        |(), scratch| sharded.rank_mapped_with_prefix(&scratch.stitch_pre, out, map),
    )
}

/// Convenience wrapper: build the sharded list (default lanes) and
/// rank it into fresh buffers.
pub fn rank_sharded(list: &LinkedList, shard_size: usize, seed: u64) -> (Vec<u64>, ShardedReport) {
    let sharded = ShardedList::build(list, shard_size);
    let mut out = vec![0; list.len()];
    let report =
        rank_sharded_prebuilt_mapped(&sharded, seed, &mut RankScratch::new(), &mut out, |r| r);
    (out, report)
}

/// Exclusive **generic-operator scan** through an already-built
/// [`ShardedList`]: per-fragment operator totals are computed
/// shard-locally in parallel (the generic analogue of the boundary
/// table's fragment lengths), the contracted list of totals is
/// op-scanned as the stitch — dispatched by the value width like the
/// rank's — and every fragment is re-walked seeded with its global
/// prefix. Byte-identical to [`listkit::serial::scan`] for any
/// associative operator, commutative or not: fragment order along the
/// contracted list *is* global list order. Same scratch and telemetry
/// contract as [`rank_sharded_prebuilt_mapped`], whose output sink this
/// shares.
pub fn scan_sharded_prebuilt_mapped<T, Op, O>(
    sharded: &ShardedList,
    values: &[T],
    op: &Op,
    seed: u64,
    scratch: &mut RankScratch,
    out: &mut [O],
    map: impl Fn(T) -> O + Sync,
) -> ShardedReport
where
    T: Copy + Send + Sync,
    Op: ScanOp<T>,
    O: Send,
{
    stitched(
        sharded,
        std::mem::size_of::<T>(),
        scratch,
        || sharded.fragment_totals(values, op),
        |choice, totals, scratch| match choice {
            Algorithm::Serial => sharded.boundary().serial_exclusive(&totals, op),
            _ => parallel_stitch(sharded, &totals, op, seed, scratch),
        },
        |prefix, _| sharded.scan_mapped_with_prefix(values, op, &prefix, out, map),
    )
}

/// Convenience wrapper: build the sharded list (default lanes) and
/// scan it into fresh buffers.
pub fn scan_sharded<T, Op>(
    list: &LinkedList,
    values: &[T],
    op: &Op,
    shard_size: usize,
    seed: u64,
) -> (Vec<T>, ShardedReport)
where
    T: Copy + Send + Sync,
    Op: ScanOp<T>,
{
    let sharded = ShardedList::build(list, shard_size);
    let mut out = vec![op.identity(); list.len()];
    let mut scratch = RankScratch::new();
    let report =
        scan_sharded_prebuilt_mapped(&sharded, values, op, seed, &mut scratch, &mut out, |x| x);
    (out, report)
}

/// The three phases every sharded run shares, with only their bodies
/// supplied by the caller: `reduce` the per-fragment stitch values
/// shard-locally, `stitch` them along the contracted list with the
/// backend [`stitch_choice`] picks for `elem_bytes`-wide values (the
/// only timed step), and `expand` the stitched prefixes back over every
/// shard. The sharded representation's lane telemetry is cumulative
/// across runs; only this run's delta is folded into
/// `scratch.telemetry` so shared artifacts don't double-count
/// (concurrent runs over the same artifact may attribute each other's
/// steps — the counters are advisory).
fn stitched<V, P>(
    sharded: &ShardedList,
    elem_bytes: usize,
    scratch: &mut RankScratch,
    reduce: impl FnOnce() -> V,
    stitch: impl FnOnce(Algorithm, V, &mut RankScratch) -> P,
    expand: impl FnOnce(P, &mut RankScratch),
) -> ShardedReport {
    let before = sharded.lane_stats();
    let values = reduce();
    let fragments = sharded.fragment_count();
    let choice = stitch_choice(fragments, elem_bytes, sharded.policy().lanes);
    let t0 = Instant::now();
    let prefix = stitch(choice, values, scratch);
    let stitch_ns = t0.elapsed().as_nanos() as u64;
    expand(prefix, scratch);
    let after = sharded.lane_stats();
    scratch.telemetry.add(&LaneStats {
        steps: after.steps.saturating_sub(before.steps),
        slots: after.slots.saturating_sub(before.slots),
    });
    ShardedReport { shards: sharded.shard_count(), fragments, stitch_algorithm: choice, stitch_ns }
}

/// Exclusive Reid-Miller scan of per-fragment `values` along the
/// contracted boundary list, at the artifact's lane count.
fn parallel_stitch<T, Op>(
    sharded: &ShardedList,
    values: &[T],
    op: &Op,
    seed: u64,
    scratch: &mut RankScratch,
) -> Vec<T>
where
    T: Copy + Send + Sync,
    Op: ScanOp<T>,
{
    let contracted = sharded.boundary().to_list();
    let mut rm = crate::host::ReidMiller::new(seed).with_lanes(sharded.policy().lanes);
    rm.m = None;
    let mut scanned = Vec::new();
    rm.scan_into(&contracted, values, op, scratch, &mut scanned);
    scanned
}

/// One dispatch rule for every stitch (rank and generic scan): the
/// op-width-aware cost model picks the backend for the contracted
/// length, the ambient thread budget, and the lane count the stitch
/// would actually run with (a single-lane pin must not be promised the
/// multi-lane discount). Reid-Miller is the host's only work-efficient
/// parallel algorithm, so every parallel pick maps there (same
/// reasoning as the engine planner's prior).
fn stitch_choice(fragments: usize, elem_bytes: usize, lanes: usize) -> Algorithm {
    match predict_best(fragments, rayon::current_num_threads(), elem_bytes, lanes) {
        AlgChoice::Serial => Algorithm::Serial,
        _ => Algorithm::ReidMiller,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use listkit::gen::{self, Layout};

    #[test]
    fn sharded_rank_matches_serial_and_reports() {
        let list = gen::list_with_layout(60_000, Layout::Blocked(128), 5);
        let (ranks, report) = rank_sharded(&list, 4096, 0x1994);
        assert_eq!(ranks, listkit::serial::rank(&list));
        assert_eq!(report.shards, 60_000usize.div_ceil(4096));
        // One fragment per block, minus the blocks that happen to land
        // adjacent to their traversal predecessor inside one shard.
        let blocks = 60_000usize.div_ceil(128);
        assert!(
            report.fragments <= blocks && report.fragments >= blocks / 2,
            "{} fragments for {blocks} blocks",
            report.fragments
        );
        assert_eq!(report.stitch_algorithm, Algorithm::Serial, "a few hundred rank serially");
    }

    #[test]
    fn fragment_heavy_topology_dispatches_parallel_stitch() {
        // A random permutation contracts to ≈ n fragments; the model
        // must route a list that long to the parallel stitch — and the
        // result must still be exact.
        let n = 200_000;
        let list = gen::random_list(n, 3);
        let (ranks, report) = rank_sharded(&list, 16_384, 7);
        assert_eq!(ranks, listkit::serial::rank(&list));
        assert!(report.fragments > n / 2);
        if rayon::current_num_threads() >= 2 {
            assert_eq!(report.stitch_algorithm, Algorithm::ReidMiller);
        }
    }

    #[test]
    fn tiny_and_degenerate_sizes() {
        for n in [1usize, 2, 3, 5] {
            let list = gen::random_list(n, n as u64);
            let (ranks, report) = rank_sharded(&list, 2, 0);
            assert_eq!(ranks, listkit::serial::rank(&list), "n = {n}");
            assert_eq!(report.shards, n.div_ceil(2));
        }
    }

    #[test]
    fn generic_scan_sharded_matches_serial() {
        use listkit::ops::{Affine, AffineOp, MaxOp};
        let n = 50_000;
        let list = gen::list_with_layout(n, Layout::Blocked(128), 5);
        let vals: Vec<i64> = (0..n as i64).map(|i| (i % 19) - 9).collect();
        let (got, report) = scan_sharded(&list, &vals, &MaxOp, 4096, 0x1994);
        assert_eq!(got, listkit::serial::scan(&list, &vals, &MaxOp));
        assert_eq!(report.shards, n.div_ceil(4096));
        // The non-commutative trap through the full dispatched path,
        // on the fragment-heavy topology that forces a parallel stitch.
        let list = gen::random_list(n, 9);
        let funcs: Vec<Affine> =
            (0..n).map(|i| Affine::new((i % 3) as i64 - 1, (i % 7) as i64)).collect();
        let want = listkit::serial::scan(&list, &funcs, &AffineOp);
        let (got, report) = scan_sharded(&list, &funcs, &AffineOp, 4096, 7);
        assert_eq!(got, want);
        assert!(report.fragments > n / 2, "random permutation barely contracts");
        // The stitch follows the model's own pick for the ambient pool
        // (on few threads that can legitimately be Serial) ...
        let lanes = listkit::walk::DEFAULT_LANES;
        assert_eq!(
            report.stitch_algorithm,
            stitch_choice(report.fragments, std::mem::size_of::<Affine>(), lanes)
        );
        // ... and a wide pool must take the non-commutative Reid-Miller
        // stitch, which has to stay exact.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(8).build().expect("8-thread pool");
        let (got, report) = pool.install(|| scan_sharded(&list, &funcs, &AffineOp, 4096, 7));
        assert_eq!(got, want);
        assert_eq!(report.stitch_algorithm, Algorithm::ReidMiller);
    }
}
