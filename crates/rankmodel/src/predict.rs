//! Cost prediction: Eq. (3), Eq. (5), and the multiprocessor form (Eq. 6).
//!
//! Eq. (3) (per phase, `p` processors, bandwidth contention folded into
//! the per-element coefficients):
//!
//! ```text
//! T = Σ_k (S_{k+1} − S_k)·(a·g(S_k)/p + b)     traversal
//!   + Σ_k (c·g(S_k)/p + d)                      load balancing
//! ```
//!
//! plus `e(m+1)/p + f` terms for initialization, reduced-list
//! construction, Phase 2 and restoration.

use crate::coeffs::{ModelCoeffs, PhaseCoeffs};
use crate::expdist;
use crate::schedule::Schedule;

/// How Phase 2 (the scan of the reduced list of `m+1` sums) is done.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase2Choice {
    /// Serial traversal (best for small reduced lists).
    Serial,
    /// Wyllie pointer jumping (moderate sizes: vectorizes, `log` small).
    Wyllie,
    /// Recursive application of the full algorithm (large reduced lists).
    Recurse,
}

/// A cost prediction with per-phase breakdown (cycles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// List length.
    pub n: usize,
    /// Number of split positions (`m+1` sublists).
    pub m: usize,
    /// First load-balance point.
    pub s1: f64,
    /// Load balances in Phase 1.
    pub l1: usize,
    /// Load balances in Phase 3.
    pub l3: usize,
    /// Initialization cycles.
    pub init: f64,
    /// Phase 1 cycles (traversal + packs).
    pub phase1: f64,
    /// Reduced-list construction cycles.
    pub findsub: f64,
    /// Phase 2 cycles.
    pub phase2: f64,
    /// Phase 2 strategy assumed.
    pub phase2_choice: Phase2Choice,
    /// Phase 3 cycles.
    pub phase3: f64,
    /// Restoration cycles.
    pub restore: f64,
    /// Total cycles.
    pub total: f64,
}

/// Evaluate one phase of Eq. (3) for a given schedule.
///
/// `p` divides vector lengths across processors (Eq. 6); `te_factor`
/// scales per-element costs (memory contention).
pub fn phase_time(
    n: f64,
    m: f64,
    sched: &Schedule,
    ph: &PhaseCoeffs,
    p: f64,
    te_factor: f64,
) -> f64 {
    let a = ph.a * te_factor;
    let c = ph.c * te_factor;
    let seg = sched.segments();
    let mut t = 0.0;
    // Traversal: between boundaries, vector length is g(at segment start).
    for w in seg.windows(2) {
        let live = expdist::g(w[0], n, m);
        t += (w[1] - w[0]) * (a * live / p + ph.b);
    }
    // Packs: the k-th pack compresses the vector live since the previous
    // boundary.
    for (k, _) in sched.points.iter().enumerate() {
        let prev = if k == 0 { 0.0 } else { sched.points[k - 1] };
        let live = expdist::g(prev, n, m);
        t += c * live / p + ph.d;
    }
    t
}

/// Phase-2 cost of scanning a reduced list of `x` vertices serially.
pub fn phase2_serial(coeffs: &ModelCoeffs, x: usize) -> f64 {
    coeffs.serial_per_vertex * x as f64
}

/// Phase-2 cost via Wyllie pointer jumping: `⌈log2(x−1)⌉` rounds over a
/// list of `x` vertices, `p` processors.
pub fn phase2_wyllie(coeffs: &ModelCoeffs, x: usize, p: f64, te_factor: f64) -> f64 {
    if x <= 1 {
        return 0.0;
    }
    let rounds = ((x - 1) as f64).log2().ceil().max(1.0);
    let (te, t0) = coeffs.wyllie_round;
    rounds * (te * te_factor * x as f64 / p + t0)
}

/// Full prediction for the algorithm at `(n, m, s1)` with an explicit
/// Phase-2 cost (supplied by the tuner, which may recurse).
#[allow(clippy::too_many_arguments)]
pub fn predict_with_phase2(
    coeffs: &ModelCoeffs,
    n: usize,
    m: usize,
    s1: f64,
    p: usize,
    te_factor: f64,
    stop_g: f64,
    phase2: (f64, Phase2Choice),
) -> Prediction {
    let nf = n as f64;
    let mf = m as f64;
    let pf = p as f64;
    let x = (m + 1) as f64;

    let sched1 = Schedule::from_s1(nf, mf, s1, coeffs.phase1.c_over_a(), stop_g);
    let sched3 = Schedule::from_s1(nf, mf, s1, coeffs.phase3.c_over_a(), stop_g);

    let init = coeffs.init.0 * te_factor * x / pf + coeffs.init.1;
    let phase1 = phase_time(nf, mf, &sched1, &coeffs.phase1, pf, te_factor);
    let findsub = coeffs.findsub.0 * te_factor * x / pf + coeffs.findsub.1;
    let phase3 = phase_time(nf, mf, &sched3, &coeffs.phase3, pf, te_factor);
    let restore = coeffs.restore.0 * te_factor * x / pf + coeffs.restore.1;
    let (phase2_cost, phase2_choice) = phase2;

    Prediction {
        n,
        m,
        s1,
        l1: sched1.len(),
        l3: sched3.len(),
        init,
        phase1,
        findsub,
        phase2: phase2_cost,
        phase2_choice,
        phase3,
        restore,
        total: init + phase1 + findsub + phase2_cost + phase3 + restore,
    }
}

/// The closed-form Eq. (5) estimate (1 CPU, list scan):
///
/// ```text
/// T(n) ≈ 8n + 62 (n/m) ln m + (8 S1 + 96)(m+1) + 2150 l + 2750
/// ```
///
/// The paper notes this *over*-estimates the measured time (Eq. 3 with
/// the real schedule is the accurate one); we reproduce it for the
/// model-check experiment.
pub fn eq5_estimate(n: f64, m: f64, s1: f64, l: f64) -> f64 {
    8.0 * n + 62.0 * (n / m) * m.ln() + (8.0 * s1 + 96.0) * (m + 1.0) + 2150.0 * l + 2750.0
}

/// An algorithm family the dispatcher can pick, mirroring the five
/// implementations in `listrank` (kept as a separate enum because this
/// crate sits *below* `listrank` in the dependency graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgChoice {
    /// Pointer-chasing serial traversal.
    Serial,
    /// Wyllie pointer jumping.
    Wyllie,
    /// Miller–Reif random mate.
    MillerReif,
    /// Anderson–Miller random mate with queues.
    AndersonMiller,
    /// Reid-Miller sublists.
    ReidMiller,
}

impl AlgChoice {
    /// All five choices, in the paper's presentation order.
    pub const ALL: [AlgChoice; 5] = [
        AlgChoice::Serial,
        AlgChoice::Wyllie,
        AlgChoice::MillerReif,
        AlgChoice::AndersonMiller,
        AlgChoice::ReidMiller,
    ];
}

/// Default interleaved-lane count of the host's multi-chain walker.
/// Mirrors `listkit::walk::DEFAULT_LANES` (this crate sits below
/// `listkit` in the dependency graph, so the constant is mirrored
/// rather than imported; a workspace test pins the two together).
pub const DEFAULT_LANES: usize = 8;

/// Outstanding-miss depth the core can actually sustain (line-fill
/// buffers); lanes beyond this add bookkeeping, not parallelism.
const LANE_MISS_DEPTH: f64 = 10.0;

/// Fraction of a random-gather visit that is pure DRAM latency — the
/// part K interleaved lanes divide by K. The remaining ~15% (address
/// generation, the combine, bandwidth) is irreducible.
const LANE_LATENCY_FRACTION: f64 = 0.85;

/// Below this many vertices the working set (~12 bytes/vertex) is
/// cache-resident, latency is small, and interleaving has nothing to
/// hide: the discount does not apply.
pub const LANE_EFFECTIVE_MIN: usize = 1 << 16;

/// Residual per-visit cost of a multi-chain pointer chase walked with
/// `lanes` interleaved cursors, relative to the one-cursor walk
/// (Eq. (3)'s traversal term, reinterpreted: the C-90's vector
/// pipeline kept one element's gather in flight per pipeline slot; a
/// scalar host keeps one cache miss in flight per lane, so interleaved
/// visits cost ~`miss/K` instead of `miss`, down to a bandwidth
/// floor). `1.0` for single-lane walks and for lists small enough to
/// sit in cache.
pub fn lane_discount(n: usize, lanes: usize) -> f64 {
    if lanes <= 1 || n <= LANE_EFFECTIVE_MIN {
        return 1.0;
    }
    let k = (lanes as f64).min(LANE_MISS_DEPTH);
    (1.0 - LANE_LATENCY_FRACTION) + LANE_LATENCY_FRACTION / k
}

/// The lane count the model recommends for an `n`-vertex multi-chain
/// walk: 1 while the list is cache-resident (interleaving has nothing
/// to hide), the walker default above.
pub fn default_lanes(n: usize) -> usize {
    if n <= LANE_EFFECTIVE_MIN {
        1
    } else {
        DEFAULT_LANES
    }
}

/// Per-job fixed overhead of a parallel dispatch, in serial-element
/// units: split generation, reduced-list setup, thread-pool fan-out.
const HOST_JOB_OVERHEAD: f64 = 16_384.0;

/// Per-round fixed overhead of the round-based algorithms.
const HOST_ROUND_OVERHEAD: f64 = 2_048.0;

/// Element width of a ranking job's payload (the `u64` rank), the unit
/// the serial-element coefficients were fitted at. Scan jobs over wider
/// operator carriers (affine maps, segmented pairs) scale the
/// per-element terms up from here.
pub const RANK_ELEM_BYTES: usize = 8;

/// Coarse predicted cost of scanning an `n`-vertex list of
/// `elem_bytes`-byte values (a ranking is the [`RANK_ELEM_BYTES`]
/// case) with `alg` on a `p`-thread **scalar multicore host** whose
/// multi-chain walks keep `lanes` interleaved cursors, in
/// *serial-element units* (one unit = one pointer-chase visit of the
/// serial ranker). This is the dispatch model for the host backend,
/// where — unlike on the paper's vector machine, whose faithful model
/// lives in [`predict_with_phase2`] — there is no vectorization
/// discount:
///
/// * Serial visits each vertex once on one thread: `n`.
/// * Reid-Miller is work-efficient but touches every vertex twice
///   (Phases 1 and 3) across `p` threads, plus per-job setup.
/// * Wyllie does `n log n` work; the random-mate algorithms inflate
///   work by their expected-touch constants (§2.3–2.4: ≈ `e·n` and
///   ≈ `2.7n`) with heavier per-touch costs — so none of the three ever
///   beats both Serial and Reid-Miller, matching the paper's Fig. 1
///   ordering.
///
/// **Width.** Every visit moves the 8-byte link plus the value, so the
/// `n`-proportional terms scale by `(8 + elem_bytes) / 16` relative to
/// the rank baseline; fixed per-job/per-round overheads do not. Wider
/// operators therefore shift the serial/parallel crossover slightly
/// *down* (more memory traffic to amortize the parallel startup
/// against), which is exactly the measured direction.
///
/// **Lanes.** Only Reid-Miller's traversal term earns the
/// [`lane_discount`]: its Phases 1 and 3 walk many independent
/// sublists, so a worker can keep `lanes` misses in flight, while
/// Serial chases a single chain (one outstanding miss, structurally —
/// no lane can help it) and the round-based algorithms are already
/// array-parallel passes the hardware pipelines on its own. This is
/// what moves the serial/Reid-Miller crossover *down* — including onto
/// one thread, where interleaving is the only parallelism there is (the
/// paper's actual C-90 insight: 2× work beats 1× work when the
/// traversal hides memory latency).
pub fn predicted_cost(alg: AlgChoice, n: usize, p: usize, elem_bytes: usize, lanes: usize) -> f64 {
    let nf = n as f64 * traffic_factor(elem_bytes);
    let pf = p.max(1) as f64;
    let rounds = if n > 2 { ((n - 1) as f64).log2().ceil().max(1.0) } else { 1.0 };
    match alg {
        // Serial pointer-chasing cannot use extra processors — or
        // extra lanes: one chain has one cursor.
        AlgChoice::Serial => nf,
        AlgChoice::Wyllie => 1.2 * nf * rounds / pf + rounds * HOST_ROUND_OVERHEAD,
        AlgChoice::MillerReif => {
            // ≈ 4n total touches (Σ (3/4)^k), ~1.3 units per touch
            // (coin, gather, conditional splice).
            4.0 * 1.3 * nf / pf + rounds * HOST_ROUND_OVERHEAD
        }
        AlgChoice::AndersonMiller => {
            // ≈ 2.7n expected touches, ~1.8 units each (queue upkeep).
            2.7 * 1.8 * nf / pf + rounds * HOST_ROUND_OVERHEAD
        }
        AlgChoice::ReidMiller => {
            // 2 visits per vertex with a small constant for the
            // boundary-bitmap checks, spread over p threads, each
            // visit latency-discounted by the interleaved lanes.
            2.2 * nf * lane_discount(n, lanes) / pf + HOST_JOB_OVERHEAD
        }
    }
}

/// Memory traffic of one visit relative to the rank baseline: 8 bytes
/// of link plus `elem_bytes` of value, over the baseline's 8 + 8.
fn traffic_factor(elem_bytes: usize) -> f64 {
    (8.0 + elem_bytes.max(1) as f64) / (8.0 + RANK_ELEM_BYTES as f64)
}

/// The cheapest algorithm for an `n`-vertex job carrying
/// `elem_bytes`-byte values, walked with `lanes` interleaved cursors on
/// a `p`-thread host, by [`predicted_cost`] — the prior of the engine
/// planner and of the sharded stitch. Serial below the break-even
/// point, Reid-Miller above it; with the walker's default lanes the
/// break-even exists even at `p = 1` (the paper's C-90 insight
/// transplanted to memory-level parallelism), and a single-lane pin
/// restores "Serial always wins on one thread". Wyllie and the
/// random-mate algorithms are work-inefficient and never win,
/// mirroring Fig. 1.
pub fn predict_best(n: usize, p: usize, elem_bytes: usize, lanes: usize) -> AlgChoice {
    let mut best = AlgChoice::Serial;
    let mut best_cost = f64::INFINITY;
    for alg in AlgChoice::ALL {
        let cost = predicted_cost(alg, n, p, elem_bytes, lanes);
        if cost < best_cost {
            best = alg;
            best_cost = cost;
        }
    }
    best
}

/// Per-shard fixed overhead of the shard-parallel path, in
/// serial-element units: fragment discovery, local-list assembly and
/// task spawn for one shard.
const HOST_SHARD_OVERHEAD: f64 = 4_096.0;

/// Cost of one *streaming* pass over a vertex (build, broadcast),
/// relative to the serial ranker's random-gather visit that defines one
/// serial-element unit: sequential reads/writes run at DRAM bandwidth
/// while the unit-defining gather eats a full miss latency.
/// (Recalibrated down from 0.35 when the lane discount landed: with
/// interleaved gathers costing ~miss/K, pricing a hardware-prefetched
/// stream at a third of a *full* miss was inconsistent — a stream
/// moves ~16 bytes/vertex at bandwidth, roughly an eighth of the
/// latency-bound visit.)
const SHARD_STREAM_PASS: f64 = 0.12;

/// Cost of the shard-local pointer-chase visit: still a chase, but
/// confined to a shard sized to the per-worker budget, so the link
/// array is cache-resident rather than gathering across the whole list.
const SHARD_LOCAL_VISIT: f64 = 0.6;

/// Coarse predicted cost of ranking an `n`-vertex list with the
/// shard-parallel path (`listkit::sharded`) on a `p`-thread host, in
/// serial-element units. `shard_size` is the per-worker vertex budget
/// and `fragments` the contracted boundary list's length (the number of
/// maximal in-shard runs — `n / block` for a blocked layout, ≈ `n` for
/// a random permutation):
///
/// * build + broadcast: one *streaming* pass each over every vertex
///   (sequential memory order — cheaper per element than a gather),
///   spread over `p` threads;
/// * shard-local rank: one pointer-chase pass confined to a
///   cache-resident shard (discounted accordingly). It is a multi-chain
///   chase (one chain per fragment) walked with `lanes` cursors, so it
///   earns the [`lane_discount`] — keyed on the *shard* size, not `n`,
///   because that is the walk's working set (a shard sized under the
///   cache budget was already cheap; lanes help the bigger-than-cache
///   shards);
/// * stitch: a serial scan of the contracted list — the term that
///   makes fragment-heavy topologies expensive, exactly as measured.
pub fn predicted_sharded_cost(
    n: usize,
    shard_size: usize,
    fragments: usize,
    p: usize,
    lanes: usize,
) -> f64 {
    let nf = n as f64;
    let pf = p.max(1) as f64;
    let shard_size = shard_size.max(1);
    let shards = n.div_ceil(shard_size) as f64;
    let streaming = 2.0 * SHARD_STREAM_PASS * nf / pf; // build + broadcast
    let local_rank = SHARD_LOCAL_VISIT * lane_discount(shard_size.min(n), lanes) * nf / pf;
    let stitch = fragments as f64;
    streaming + local_rank + stitch + HOST_SHARD_OVERHEAD * shards / pf + HOST_JOB_OVERHEAD
}

/// Balanced shard size for an `n`-vertex list under a per-worker budget
/// of `budget` vertices, on a `p`-thread host: take the smallest shard
/// count that respects the budget, round it up to a multiple of `p`,
/// and size shards for that count. The returned size never exceeds the
/// budget. Because callers re-derive the count as `n.div_ceil(size)`,
/// integer granularity can land the *actual* count slightly below the
/// rounded target on small `n`; in the regime sharding exists for
/// (`n ≫ p · budget`-granularity) the count comes out an exact
/// multiple of `p`, so threads start evenly loaded.
pub fn shard_size_for(n: usize, budget: usize, p: usize) -> usize {
    let budget = budget.max(1);
    if n <= budget {
        return n.max(1);
    }
    let mut shards = n.div_ceil(budget);
    let p = p.max(1);
    shards = shards.div_ceil(p) * p;
    n.div_ceil(shards).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coeffs() -> ModelCoeffs {
        ModelCoeffs::c90_scan()
    }

    fn predict1(n: usize, m: usize, s1: f64) -> Prediction {
        let c = coeffs();
        let p2 = (phase2_serial(&c, m + 1), Phase2Choice::Serial);
        predict_with_phase2(&c, n, m, s1, 1, 1.0, 1.0, p2)
    }

    #[test]
    fn breakdown_sums_to_total() {
        let p = predict1(10_000, 199, 25.0);
        let sum = p.init + p.phase1 + p.findsub + p.phase2 + p.phase3 + p.restore;
        assert!((sum - p.total).abs() < 1e-9);
        assert!(p.total > 0.0);
    }

    #[test]
    fn traversal_dominates_for_long_lists() {
        let p = predict1(1_000_000, 20_000, 25.0);
        assert!(p.phase1 + p.phase3 > 0.6 * p.total);
    }

    #[test]
    fn per_vertex_cost_approaches_combined_a() {
        // Asymptotically the model approaches a1 + a3 = 8 cycles/vertex
        // (Eq. 5's leading term) plus overheads. With these *fixed*
        // (untuned) parameters the overhang is larger than at the tuned
        // optimum (the tuner test pins that one down to < 10.5).
        let n = 4_000_000;
        let m = n / 60;
        let p = predict1(n, m, 30.0);
        let per_vertex = p.total / n as f64;
        assert!(
            per_vertex > 8.0 && per_vertex < 15.0,
            "per-vertex {per_vertex:.2} should be somewhat above 8"
        );
    }

    #[test]
    fn more_processors_reduce_time() {
        let c = coeffs();
        let p2 = (phase2_serial(&c, 20_000), Phase2Choice::Serial);
        let t1 = predict_with_phase2(&c, 1_000_000, 19_999, 30.0, 1, 1.0, 1.0, p2).total;
        let t8 = predict_with_phase2(&c, 1_000_000, 19_999, 30.0, 8, 1.19, 1.0, p2).total;
        assert!(t8 < t1 / 4.0, "8 CPUs should be ≥ 4× faster: {t1} vs {t8}");
        assert!(t8 > t1 / 8.0, "contention and startups forbid perfect speedup");
    }

    #[test]
    fn wyllie_beats_serial_on_moderate_lists_only() {
        let c = coeffs();
        // Moderate: a few hundred vertices.
        assert!(phase2_wyllie(&c, 256, 1.0, 1.0) < phase2_serial(&c, 256));
        // Long: log factor catches up.
        assert!(phase2_wyllie(&c, 100_000, 1.0, 1.0) > phase2_serial(&c, 100_000));
        // Trivial list.
        assert_eq!(phase2_wyllie(&c, 1, 1.0, 1.0), 0.0);
    }

    #[test]
    fn eq5_overestimates_eq3() {
        // Paper §4.4: "Eq. (3) accurately predicts and Eq. (5) over
        // estimates the actual execution time."
        let (n, m, s1) = (100_000usize, 2_500usize, 28.0);
        let p = predict1(n, m, s1);
        let e5 = eq5_estimate(n as f64, m as f64, s1, p.l1 as f64);
        assert!(e5 > p.total, "Eq5 ({e5:.0}) should over-estimate Eq3 ({:.0})", p.total);
        // ...but not absurdly (same order).
        assert!(e5 < 2.0 * p.total);
    }

    #[test]
    fn predict_best_dispatches_by_size() {
        let best = |n, p| predict_best(n, p, RANK_ELEM_BYTES, DEFAULT_LANES);
        // Tiny lists: serial wins (no startup costs to amortize).
        assert_eq!(best(100, 4), AlgChoice::Serial);
        assert_eq!(best(1000, 4), AlgChoice::Serial);
        // Large lists on a parallel machine: Reid-Miller wins.
        assert_eq!(best(1_000_000, 4), AlgChoice::ReidMiller);
        assert_eq!(best(10_000_000, 8), AlgChoice::ReidMiller);
        // On one thread, small lists stay serial (cache-resident, no
        // latency for lanes to hide, and nothing amortizes Reid-
        // Miller's 2× work)...
        for n in [100usize, 10_000, LANE_EFFECTIVE_MIN] {
            assert_eq!(best(n, 1), AlgChoice::Serial, "n = {n}");
        }
        // ...but large lists flip to Reid-Miller even at p = 1: the
        // K-lane interleaved traversal hides DRAM latency the serial
        // chain structurally cannot (the paper's C-90 story).
        for n in [1_000_000usize, 100_000_000] {
            assert_eq!(best(n, 1), AlgChoice::ReidMiller, "n = {n}");
        }
        // With lanes forced to 1 the old single-thread rule returns.
        for n in [1_000_000usize, 100_000_000] {
            let serial = predicted_cost(AlgChoice::Serial, n, 1, RANK_ELEM_BYTES, 1);
            let rm = predicted_cost(AlgChoice::ReidMiller, n, 1, RANK_ELEM_BYTES, 1);
            assert!(serial < rm, "n = {n}: single-lane RM must not beat serial on one thread");
        }
    }

    #[test]
    fn lane_discount_shape() {
        // No discount for single-lane walks or cache-resident lists.
        assert_eq!(lane_discount(1 << 24, 1), 1.0);
        assert_eq!(lane_discount(LANE_EFFECTIVE_MIN, 8), 1.0);
        // Monotone in lanes, floored by the bandwidth fraction.
        let d4 = lane_discount(1 << 24, 4);
        let d8 = lane_discount(1 << 24, 8);
        let d64 = lane_discount(1 << 24, 64);
        assert!(d4 > d8 && d8 > d64);
        assert!(d64 >= 1.0 - LANE_LATENCY_FRACTION, "floor: {d64}");
        // Saturates at the miss-buffer depth.
        assert_eq!(lane_discount(1 << 24, 16), lane_discount(1 << 24, 32));
        // The model's recommended lane count follows the same split.
        assert_eq!(default_lanes(1000), 1);
        assert_eq!(default_lanes(1 << 24), DEFAULT_LANES);
    }

    #[test]
    fn op_width_scales_cost_but_keeps_ordering() {
        // Wider values (16-byte affine maps, 24-byte segmented pairs)
        // cost strictly more, and the crossover moves down, never up:
        // any n the 8-byte model sends to Reid-Miller, the wider model
        // must too.
        let n = 2_000_000;
        assert!(
            predicted_cost(AlgChoice::Serial, n, 4, 16, DEFAULT_LANES)
                > predicted_cost(AlgChoice::Serial, n, 4, 8, DEFAULT_LANES)
        );
        for n in [1000usize, 100_000, 1_000_000] {
            if predict_best(n, 4, 8, DEFAULT_LANES) == AlgChoice::ReidMiller {
                assert_eq!(predict_best(n, 4, 16, DEFAULT_LANES), AlgChoice::ReidMiller, "n = {n}");
            }
        }
        // One thread, big list: Reid-Miller wins at every width (the
        // lane discount applies to the traversal term regardless of
        // how wide the values are).
        for bytes in [8usize, 16, 24] {
            assert_eq!(predict_best(10_000_000, 1, bytes, DEFAULT_LANES), AlgChoice::ReidMiller);
        }
    }

    #[test]
    fn predicted_cost_sane() {
        let cost = |alg, n, p| predicted_cost(alg, n, p, RANK_ELEM_BYTES, DEFAULT_LANES);
        // Work-inefficient algorithms cost more than Reid-Miller at scale.
        let n = 1_000_000;
        let rm = cost(AlgChoice::ReidMiller, n, 4);
        assert!(cost(AlgChoice::Wyllie, n, 4) > rm);
        assert!(cost(AlgChoice::MillerReif, n, 4) > rm);
        assert!(cost(AlgChoice::AndersonMiller, n, 4) > rm);
        // Costs are positive and monotone in n.
        for alg in AlgChoice::ALL {
            assert!(cost(alg, 1000, 1) > 0.0);
            assert!(cost(alg, 100_000, 1) > cost(alg, 1000, 1));
        }
        // More threads help every parallel algorithm.
        assert!(cost(AlgChoice::ReidMiller, n, 8) < cost(AlgChoice::ReidMiller, n, 2));
    }

    #[test]
    fn sharded_cost_beats_monolithic_on_local_topologies() {
        // A huge blocked-layout list (few fragments) should be cheaper
        // sharded than monolithic Reid-Miller; a random permutation
        // (≈ n fragments) pays a linear serial stitch and should not.
        let (n, p) = (100_000_000usize, 8usize);
        let shard = 1 << 21;
        let mono = predicted_cost(AlgChoice::ReidMiller, n, p, RANK_ELEM_BYTES, DEFAULT_LANES);
        let local = predicted_sharded_cost(n, shard, n / 4096, p, DEFAULT_LANES);
        let scattered = predicted_sharded_cost(n, shard, n, p, DEFAULT_LANES);
        assert!(local < mono, "local: sharded {local:.0} vs monolithic {mono:.0}");
        assert!(scattered > local, "fragment count must drive the stitch term");
    }

    #[test]
    fn shard_size_respects_budget_and_balances() {
        // Fits the budget outright: one shard of exactly n.
        assert_eq!(shard_size_for(1000, 4096, 8), 1000);
        // Above budget in the real sharding regime: size stays within
        // the budget and the count callers re-derive from it
        // (`n.div_ceil(size)` — what `ShardedList::build` does) is an
        // exact multiple of p.
        let (n, budget, p) = (10_000_000usize, (1usize << 21) + 13, 6usize);
        let size = shard_size_for(n, budget, p);
        assert!(size <= budget);
        let shards = n.div_ceil(size);
        assert_eq!(shards % p, 0, "{shards} shards not a multiple of {p}");
        assert!(size * shards >= n && (size - 1) * shards < n, "unbalanced: {size} x {shards}");
        // The budget cap holds even at small n, where integer
        // granularity may undercut the multiple-of-p target
        // (shard_size_for(13, 4, 3) → size 3 → 5 shards, not 6).
        for (n, budget, p) in [(13usize, 4usize, 3usize), (100, 7, 3), (17, 2, 8)] {
            let size = shard_size_for(n, budget, p);
            assert!((1..=budget).contains(&size), "n={n}: size {size} breaks the budget");
        }
        // Degenerate inputs normalize instead of panicking.
        assert_eq!(shard_size_for(1, 0, 0), 1);
    }

    #[test]
    fn contention_increases_cost() {
        let c = coeffs();
        let p2 = (phase2_serial(&c, 200), Phase2Choice::Serial);
        let base = predict_with_phase2(&c, 10_000, 199, 25.0, 2, 1.0, 1.0, p2).total;
        let cont = predict_with_phase2(&c, 10_000, 199, 25.0, 2, 1.2, 1.0, p2).total;
        assert!(cont > base);
    }
}
