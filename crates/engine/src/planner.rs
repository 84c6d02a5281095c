//! Adaptive algorithm selection: model prior + measured history.
//!
//! The planner makes two decisions, each a `Contest` between two
//! candidates: Serial vs Reid-Miller for every query, keyed by (size
//! bucket × **op kind**), and rebuild vs patch for every mutated
//! sharded artifact, keyed by size bucket. A closed-form cost model is
//! each contest's prior ([`rankmodel::predict::predict_best`],
//! keyed on the job's value width, and
//! [`rankmodel::predict::predict_patch`]); as jobs complete the planner
//! folds measured costs into per-key EWMAs, so the dispatch threshold
//! migrates to wherever *this* machine's crossover actually sits **for
//! that operator** — a wide affine-composition scan moves twice the
//! memory of a ranking and can cross over at a different size, and
//! their histories must not contaminate each other.
//!
//! Every decision is O(1): a few table reads and one closed-form prior,
//! never a model search. Reid-Miller's parameters are not tuned by
//! trial runs: its lane count is [`rankmodel::predict::default_lanes`]
//! of the size being walked, and its split count `m` is derived inside
//! the worker's inner pool
//! ([`listrank::host::ReidMiller::default_m_for`]). Lists at or below
//! Reid-Miller's serial cutoff always run Serial: Reid-Miller would run
//! the identical serial walk there, so there is nothing to contest.

use crate::op::OpKind;
use crate::telemetry::log::Level;
use crate::telemetry::{AtomicHistogram, Histogram, Ring};
use listrank::Algorithm;
use rankmodel::predict::{default_lanes, predict_best, predict_patch, AlgChoice};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Size buckets are powers of two: bucket `b` holds `2^(b-1) ≤ n < 2^b`.
const BUCKETS: usize = usize::BITS as usize + 1;
const ALGS: usize = Algorithm::ALL.len();
const OPS: usize = OpKind::ALL.len();

/// EWMA smoothing factor for new measurements.
const ALPHA: f64 = 0.25;

/// Probe the unmeasured contender once in this many dispatches per
/// bucket, so measured history covers both candidates.
const PROBE_EVERY: u64 = 16;

/// The algorithm contest's slots. Only these two keep history: above
/// the cutoff, Reid-Miller is the host's only work-efficient parallel
/// algorithm, so a pinned run of any other algorithm is not recorded.
const CONTENDERS: [Algorithm; 2] = [Algorithm::Serial, Algorithm::ReidMiller];

/// The maintenance contest's slots: rebuild the decomposition from
/// scratch, or patch the dirty shards in place.
const REBUILD: usize = 0;
const PATCH: usize = 1;

fn bucket_of(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

fn alg_index(alg: Algorithm) -> usize {
    Algorithm::ALL.iter().position(|&a| a == alg).expect("algorithm in ALL")
}

/// `alg`'s slot in the algorithm contest, if it is a contender.
fn contender_slot(alg: Algorithm) -> Option<usize> {
    CONTENDERS.iter().position(|&c| c == alg)
}

/// The algorithm contest's key: (size bucket, op kind).
fn alg_key(n: usize, op: OpKind) -> usize {
    bucket_of(n) * OPS + op.index()
}

/// The work-unit count a maintenance EWMA normalizes by: the vertices
/// actually re-derived plus the contracted rows re-assembled. Using
/// per-unit times (rather than per-job) lets one bucket's history
/// predict across different dirty fractions.
fn maint_units(n: usize, shard_size: usize, fragments: usize, dirty: usize, slot: usize) -> f64 {
    let touched = if slot == PATCH { (dirty * shard_size.max(1)).min(n) } else { n };
    (touched + fragments).max(1) as f64
}

/// One dispatch decision.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Interleaved traversal lanes for the multi-chain walks:
    /// [`default_lanes`] of the job size for Reid-Miller, `1` for
    /// algorithms without one (a serial chain has a single cursor,
    /// structurally).
    pub lanes: usize,
}

/// The plan branch for sharded requests: lists that fit the per-worker
/// budget fall back to the ordinary monolithic dispatch, larger ones go
/// to the shard-parallel path with a balanced shard size from the cost
/// model.
#[derive(Clone, Copy, Debug)]
pub enum ShardDecision {
    /// The list fits one worker's budget (or the caller pinned an
    /// algorithm): run it like a plain monolithic job.
    Monolithic(Plan),
    /// Split into shards of `shard_size` vertices.
    Sharded {
        /// Per-shard vertex count (balanced; ≤ the budget).
        shard_size: usize,
        /// Number of shards the list will split into.
        shards: usize,
        /// Interleaved lanes for the shard-local fragment walks
        /// ([`default_lanes`] of the shard size).
        lanes: usize,
    },
}

/// The maintenance decision for one mutated artifact: patch the dirty
/// shards in place, or rebuild the decomposition from scratch. Returned
/// by [`Planner::choose_maintenance`].
#[derive(Clone, Copy, Debug)]
pub struct MutateDecision {
    /// `true` = patch dirty shards incrementally; `false` = rebuild.
    pub incremental: bool,
    /// Dirty shards the decision was made for.
    pub dirty: usize,
    /// Total shards of the decomposition.
    pub shards: usize,
    /// The EWMA's predicted ns for the chosen strategy at decision
    /// time, or `0.0` when the bucket had no measurement yet
    /// (prior-driven decision).
    pub predicted_ns: f64,
}

/// A measured per-unit cost; `cost` is `0.0` until the first sample.
#[derive(Clone, Copy, Default)]
struct Ewma {
    cost: f64,
    samples: u64,
}

/// One contest key's history: the two candidates' measured per-unit
/// costs and the number of picks made for the key.
#[derive(Clone, Copy, Default)]
struct Row {
    ewma: [Ewma; 2],
    picks: u64,
}

/// A two-candidate cost contest per key: measured per-unit costs
/// behind one lock, and the pick rule both planner decisions share.
/// Callers evaluate the cost-model prior before they call in, so no
/// model ever runs under the lock.
struct Contest {
    rows: Mutex<Vec<Row>>,
}

impl Contest {
    fn new(keys: usize) -> Self {
        Contest { rows: Mutex::new(vec![Row::default(); keys]) }
    }

    /// Pick a slot for `key`: the `prior` while the prior is
    /// unmeasured; the unmeasured slot when `tick` (default: the key's
    /// own pick count) lands on the probe cadence; otherwise the
    /// cheaper measured slot, slot 0 winning ties. `units` scales each
    /// slot's per-unit cost to this decision. Returns the slot and its
    /// predicted cost, `0.0` while that slot is unmeasured.
    fn pick(&self, key: usize, prior: usize, tick: Option<u64>, units: [f64; 2]) -> (usize, f64) {
        let mut rows = self.rows.lock().expect("planner poisoned");
        let row = &mut rows[key];
        let tick = tick.unwrap_or(row.picks);
        row.picks += 1;
        let [a, b] = row.ewma;
        let slot = if row.ewma[prior].samples == 0 {
            prior
        } else if a.samples == 0 || b.samples == 0 {
            if tick % PROBE_EVERY == PROBE_EVERY - 1 {
                1 - prior
            } else {
                prior
            }
        } else {
            usize::from(a.cost * units[0] > b.cost * units[1])
        };
        (slot, row.ewma[slot].cost * units[slot])
    }

    /// Fold one measured per-unit cost into `(key, slot)`. Returns the
    /// measured/predicted ratio when the slot already held a
    /// prediction.
    fn fold(&self, key: usize, slot: usize, cost: f64) -> Option<f64> {
        let mut rows = self.rows.lock().expect("planner poisoned");
        let e = &mut rows[key].ewma[slot];
        let ratio = (e.samples > 0 && e.cost > 0.0).then(|| cost / e.cost);
        e.cost = if e.samples == 0 { cost } else { (1.0 - ALPHA) * e.cost + ALPHA * cost };
        e.samples += 1;
        ratio
    }

    /// The measured per-unit cost of `(key, slot)`, `0.0` while
    /// unmeasured.
    fn estimate(&self, key: usize, slot: usize) -> f64 {
        self.rows.lock().expect("planner poisoned")[key].ewma[slot].cost
    }
}

/// How many recent dispatch decisions the introspection ring keeps.
const DECISION_RING_CAPACITY: usize = 128;

/// Scale of the mispredict-ratio histogram: a recorded value of
/// [`MISPREDICT_SCALE`] means measured cost == predicted cost; `2×` the
/// scale means the job ran twice as slow as predicted.
pub const MISPREDICT_SCALE: u64 = 1000;

/// One dispatch decision, as kept in the planner's introspection log
/// ([`Planner::recent_decisions`]) and printed by `RANKD_LOG=debug`.
#[derive(Clone, Copy, Debug)]
pub struct PlanDecision {
    /// Job size.
    pub n: usize,
    /// Operation kind the dispatch was keyed on.
    pub op: OpKind,
    /// Chosen algorithm (stitch algorithm is not known yet for sharded
    /// dispatches; this is the monolithic pick or `Serial` placeholder).
    pub algorithm: Algorithm,
    /// Chosen interleaved-lane count.
    pub lanes: usize,
    /// Shards the job will split into (`0` = monolithic).
    pub shards: usize,
    /// The EWMA's predicted ns/element for the chosen algorithm at
    /// decision time, or `0.0` when the bucket had no measurement yet
    /// (prior-driven dispatch) or the dispatch is sharded.
    pub predicted_ns_per_elem: f64,
    /// Whether the caller pinned the algorithm.
    pub pinned: bool,
}

/// The adaptive planner. Thread-safe; shared by all workers.
pub struct Planner {
    /// Parallelism available to a single job.
    p: usize,
    /// Reid-Miller's serial cutoff: unpinned jobs up to this size run
    /// Serial without a contest.
    serial_cutoff: usize,
    /// Serial vs Reid-Miller, keyed by (bucket, op kind), in ns per
    /// element.
    algorithms: Contest,
    /// Dispatch counts by (bucket, algorithm) — the stats surface that
    /// makes "different algorithms by job size" visible, and the
    /// algorithm contest's probe clock.
    dispatched: Vec<[AtomicU64; ALGS]>,
    /// Dispatch counts by (op kind, algorithm) — the op dimension of
    /// the stats surface.
    dispatched_by_op: Vec<[AtomicU64; ALGS]>,
    /// Recent dispatch decisions (introspection; `RANKD_LOG=debug`
    /// prints them live).
    decisions: Ring<PlanDecision>,
    /// Mispredict ratios: for every completion whose (bucket, op,
    /// algorithm) EWMA held a prediction, `measured/predicted ×`
    /// [`MISPREDICT_SCALE`]. A tight mode at the scale value means the
    /// EWMA layer predicts well; heavy tails mean it is being surprised.
    mispredict: AtomicHistogram,
    /// Rebuild vs patch, keyed by bucket, in ns per maintenance unit
    /// (see `maint_units`). Kept apart from the query contest —
    /// maintenance touches different code (shard builds and boundary
    /// stitching, no ranking) and its history must not contaminate
    /// dispatch.
    maintenance: Contest,
}

impl Planner {
    /// A planner whose cold prior assumes `p` threads per job: the
    /// engine passes its whole shared budget (`inner_threads`), the
    /// share a lone job gets. Measured history overrides the prior.
    pub fn new(p: usize) -> Self {
        Planner {
            p: p.max(1),
            serial_cutoff: listrank::host::ReidMiller::default().serial_cutoff,
            algorithms: Contest::new(BUCKETS * OPS),
            dispatched: (0..BUCKETS).map(|_| std::array::from_fn(|_| AtomicU64::new(0))).collect(),
            dispatched_by_op: (0..OPS)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            decisions: Ring::new(DECISION_RING_CAPACITY),
            mispredict: AtomicHistogram::new(),
            maintenance: Contest::new(BUCKETS),
        }
    }

    /// Choose the algorithm (plus the lane count) for an `n`-vertex job
    /// computing `op` over `elem_bytes`-byte values. `pinned` overrides
    /// adaptivity (but still records the dispatch).
    ///
    /// The contest's cold-start prior is the `rankmodel` prediction at
    /// the lane count the job will run with: it locates the size below
    /// which startup costs dominate (→ Serial) for the job's value
    /// width; above it, the host's only *work-efficient* parallel
    /// algorithm is Reid-Miller, so every parallel pick maps there.
    /// (The C90 model can prefer the random-mate algorithms because
    /// vector hardware runs them wide even at `p = 1`; a multicore host
    /// has no such discount.) With the K-lane walker the model crosses
    /// over to Reid-Miller even on one thread for large lists —
    /// interleaved chains are the single-core parallelism the paper's
    /// vector pipeline provided.
    pub fn choose(
        &self,
        n: usize,
        op: OpKind,
        elem_bytes: usize,
        pinned: Option<Algorithm>,
    ) -> Plan {
        let b = bucket_of(n);
        let key = alg_key(n, op);
        let (algorithm, predicted_ns_per_elem) = match pinned {
            None if n > self.serial_cutoff => {
                let prior = match predict_best(n, self.p, elem_bytes, default_lanes(n)) {
                    AlgChoice::Serial => 0,
                    _ => 1,
                };
                let tick = self.dispatched[b].iter().map(|c| c.load(Ordering::Relaxed)).sum();
                let (slot, predicted) = self.algorithms.pick(key, prior, Some(tick), [1.0; 2]);
                (CONTENDERS[slot], predicted)
            }
            _ => {
                let algorithm = pinned.unwrap_or(Algorithm::Serial);
                let predicted = contender_slot(algorithm).map(|s| self.algorithms.estimate(key, s));
                (algorithm, predicted.unwrap_or(0.0))
            }
        };
        self.dispatched[b][alg_index(algorithm)].fetch_add(1, Ordering::Relaxed);
        self.dispatched_by_op[op.index()][alg_index(algorithm)].fetch_add(1, Ordering::Relaxed);
        let lanes = if algorithm == Algorithm::ReidMiller { default_lanes(n) } else { 1 };
        self.log_decision(PlanDecision {
            n,
            op,
            algorithm,
            lanes,
            shards: 0,
            predicted_ns_per_elem,
            pinned: pinned.is_some(),
        });
        Plan { algorithm, lanes }
    }

    /// Record one decision in the introspection ring (and at
    /// `RANKD_LOG=debug`, on stderr).
    fn log_decision(&self, d: PlanDecision) {
        if crate::telemetry::log::enabled(Level::Debug) {
            crate::telemetry::log::write(
                Level::Debug,
                "planner",
                &format!(
                    "dispatch n={} op={} alg={} lanes={} shards={} predicted_ns_per_elem={:.2}{}",
                    d.n,
                    d.op,
                    d.algorithm.name(),
                    d.lanes,
                    d.shards,
                    d.predicted_ns_per_elem,
                    if d.pinned { " pinned" } else { "" }
                ),
            );
        }
        self.decisions.push(d);
    }

    /// The plan branch for sharded requests. Budget-aware: a list of at
    /// most `budget` vertices is dispatched monolithically through
    /// [`Self::choose`]; a pinned algorithm also forces the monolithic
    /// path (pinning means "run exactly this backend"). Above the
    /// budget, [`rankmodel::predict::shard_size_for`] balances the
    /// shard size over the job's thread budget.
    pub fn choose_sharded(
        &self,
        n: usize,
        budget: usize,
        op: OpKind,
        elem_bytes: usize,
        pinned: Option<Algorithm>,
    ) -> ShardDecision {
        if pinned.is_some() || n <= budget.max(1) {
            return ShardDecision::Monolithic(self.choose(n, op, elem_bytes, pinned));
        }
        let shard_size = rankmodel::predict::shard_size_for(n, budget, self.p);
        // The shard-local fragment walks interleave like Reid-Miller's
        // phases; key the lane count on the shard size (the walk's
        // working set).
        let lanes = default_lanes(shard_size);
        // Sharded executions are counted at completion time by the
        // engine's `Counters` (the stats surface); the planner keeps no
        // duplicate tally.
        let shards = n.div_ceil(shard_size);
        // The stitch algorithm is chosen downstream by the sharded
        // runner; log the shard-local phase (a serial walk per shard).
        self.log_decision(PlanDecision {
            n,
            op,
            algorithm: Algorithm::Serial,
            lanes,
            shards,
            predicted_ns_per_elem: 0.0,
            pinned: false,
        });
        ShardDecision::Sharded { shard_size, shards, lanes }
    }

    /// Fold one completed job into the (bucket, op) history, scoring
    /// the EWMA's prediction against the measurement on the way in.
    /// Runs of algorithms outside the contest are not recorded.
    pub fn record(&self, n: usize, op: OpKind, alg: Algorithm, exec_ns: u64) {
        let Some(slot) = contender_slot(alg) else { return };
        if n == 0 {
            return;
        }
        let per_elem = exec_ns as f64 / n as f64;
        if let Some(ratio) = self.algorithms.fold(alg_key(n, op), slot, per_elem) {
            let scaled = ratio * MISPREDICT_SCALE as f64;
            self.mispredict.record(scaled.clamp(0.0, u64::MAX as f64) as u64);
        }
    }

    /// Choose how to bring an `n`-vertex sharded decomposition
    /// (`shards` shards of `shard_size`, `fragments` contracted rows)
    /// up to date after a mutation batch dirtied `dirty` shards: patch
    /// the dirty shards in place, or rebuild from scratch.
    ///
    /// Same contest as [`Self::choose`]: the cost model
    /// ([`rankmodel::predict::predict_patch`]) is the cold-start prior;
    /// once the size bucket has measured history for both strategies,
    /// the cheaper expected time wins; with one strategy unmeasured,
    /// the measured one runs but the other is probed on the
    /// `PROBE_EVERY` cadence of the bucket's own decisions so history
    /// covers both sides of the crossover.
    pub fn choose_maintenance(
        &self,
        n: usize,
        shard_size: usize,
        fragments: usize,
        dirty: usize,
    ) -> MutateDecision {
        let shards = n.div_ceil(shard_size.max(1)).max(1);
        let dirty = dirty.min(shards);
        let b = bucket_of(n);
        let units = [REBUILD, PATCH].map(|s| maint_units(n, shard_size, fragments, dirty, s));
        let (slot, predicted_ns) = if dirty >= shards {
            // A fully-dirty batch has nothing clean to reuse: patching
            // is a rebuild with extra bookkeeping, so there is no
            // contest.
            (REBUILD, self.maintenance.estimate(b, REBUILD) * units[REBUILD])
        } else {
            let lanes = default_lanes(shard_size.min(n));
            let patch = predict_patch(n, shard_size, fragments, dirty, self.p, lanes);
            self.maintenance.pick(b, usize::from(patch), None, units)
        };
        let incremental = slot == PATCH;
        if crate::telemetry::log::enabled(Level::Debug) {
            crate::telemetry::log::write(
                Level::Debug,
                "planner",
                &format!(
                    "maintenance n={n} shard_size={shard_size} dirty={dirty}/{shards} \
                     fragments={fragments} -> {} predicted_ns={predicted_ns:.0}",
                    if incremental { "incremental" } else { "rebuild" }
                ),
            );
        }
        MutateDecision { incremental, dirty, shards, predicted_ns }
    }

    /// Fold one completed maintenance pass into the (bucket, strategy)
    /// history.
    pub fn record_maintenance(
        &self,
        n: usize,
        shard_size: usize,
        fragments: usize,
        dirty: usize,
        incremental: bool,
        exec_ns: u64,
    ) {
        if n == 0 {
            return;
        }
        let slot = usize::from(incremental);
        let units = maint_units(n, shard_size, fragments, dirty, slot);
        self.maintenance.fold(bucket_of(n), slot, exec_ns as f64 / units);
    }

    /// Dispatch counts per algorithm, summed over all size buckets
    /// (order matches [`Algorithm::ALL`]).
    pub fn dispatch_totals(&self) -> [u64; ALGS] {
        let mut totals = [0u64; ALGS];
        for row in &self.dispatched {
            for (t, c) in totals.iter_mut().zip(row) {
                *t += c.load(Ordering::Relaxed);
            }
        }
        totals
    }

    /// Non-empty rows of the (size-bucket × algorithm) dispatch matrix:
    /// `(upper size bound of bucket, per-algorithm counts)`.
    pub fn dispatch_by_bucket(&self) -> Vec<(usize, [u64; ALGS])> {
        let mut rows = Vec::new();
        for (b, row) in self.dispatched.iter().enumerate() {
            let counts: [u64; ALGS] = std::array::from_fn(|i| row[i].load(Ordering::Relaxed));
            if counts.iter().any(|&c| c > 0) {
                let hi = if b >= usize::BITS as usize { usize::MAX } else { 1usize << b };
                rows.push((hi, counts));
            }
        }
        rows
    }

    /// The up-to-`k` most recent dispatch decisions, oldest first.
    pub fn recent_decisions(&self, k: usize) -> Vec<PlanDecision> {
        self.decisions.recent(k)
    }

    /// Snapshot of the mispredict-ratio histogram (values are
    /// `measured/predicted ×` [`MISPREDICT_SCALE`]; only completions
    /// whose bucket already held a prediction are scored).
    pub fn mispredict_histogram(&self) -> Histogram {
        self.mispredict.snapshot()
    }

    /// Non-empty rows of the (op kind × algorithm) dispatch matrix.
    pub fn dispatch_by_op(&self) -> Vec<(OpKind, [u64; ALGS])> {
        let mut rows = Vec::new();
        for (k, row) in self.dispatched_by_op.iter().enumerate() {
            let counts: [u64; ALGS] = std::array::from_fn(|i| row[i].load(Ordering::Relaxed));
            if counts.iter().any(|&c| c > 0) {
                rows.push((OpKind::ALL[k], counts));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default dimension most tests dispatch under.
    const RANK: OpKind = OpKind::Rank;
    const RB: usize = 8;

    fn choose1(planner: &Planner, n: usize, pinned: Option<Algorithm>) -> Plan {
        planner.choose(n, RANK, RB, pinned)
    }

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
    }

    #[test]
    fn prior_dispatches_by_size() {
        let planner = Planner::new(4);
        assert_eq!(choose1(&planner, 100, None).algorithm, Algorithm::Serial);
        let big = choose1(&planner, 2_000_000, None);
        assert_eq!(big.algorithm, Algorithm::ReidMiller);
        assert_eq!(big.lanes, default_lanes(2_000_000), "cold bucket takes the lane prior");
    }

    #[test]
    fn measurements_override_prior() {
        let planner = Planner::new(4);
        let n = 1 << 20;
        // Feed history claiming serial is far cheaper in this bucket.
        for _ in 0..8 {
            planner.record(n, RANK, Algorithm::Serial, 1_000);
            planner.record(n, RANK, Algorithm::ReidMiller, 1_000_000_000);
        }
        assert_eq!(choose1(&planner, n, None).algorithm, Algorithm::Serial);
    }

    #[test]
    fn history_is_keyed_per_op_kind() {
        // Rank history claiming Serial wins must not leak into the
        // affine dimension of the same bucket: affine still follows its
        // own (parallel) prior, and once affine history lands it drives
        // affine dispatch independently.
        let planner = Planner::new(4);
        let n = 1 << 21;
        for _ in 0..8 {
            planner.record(n, OpKind::Rank, Algorithm::Serial, 1_000);
            planner.record(n, OpKind::Rank, Algorithm::ReidMiller, 1_000_000_000);
        }
        assert_eq!(planner.choose(n, OpKind::Rank, 8, None).algorithm, Algorithm::Serial);
        assert_eq!(
            planner.choose(n, OpKind::Affine, 16, None).algorithm,
            Algorithm::ReidMiller,
            "affine dimension starts from its own prior"
        );
        for _ in 0..8 {
            planner.record(n, OpKind::Affine, Algorithm::Serial, 2_000_000_000);
            planner.record(n, OpKind::Affine, Algorithm::ReidMiller, 1_000);
        }
        assert_eq!(planner.choose(n, OpKind::Affine, 16, None).algorithm, Algorithm::ReidMiller);
        assert_eq!(
            planner.choose(n, OpKind::Rank, 8, None).algorithm,
            Algorithm::Serial,
            "rank dimension unchanged by affine history"
        );
    }

    #[test]
    fn pinned_sample_does_not_poison_bucket() {
        // One pinned ReidMiller job leaves an RM-only measurement in a
        // bucket; unpinned dispatch must still follow the prior
        // (Serial on a 1-thread engine) rather than the stray sample.
        let planner = Planner::new(1);
        let n = 1 << 14;
        planner.record(n, RANK, Algorithm::ReidMiller, 1_000);
        for _ in 0..8 {
            assert_eq!(choose1(&planner, n, None).algorithm, Algorithm::Serial);
        }
    }

    #[test]
    fn ewma_history_overrides_prior_in_both_directions() {
        // The converse of `measurements_override_prior`: a bucket whose
        // prior is Serial (above the serial cutoff, on one thread) must
        // flip to Reid-Miller once measured history says Reid-Miller is
        // cheaper there.
        let planner = Planner::new(1);
        let n = 1 << 14;
        assert_eq!(choose1(&planner, n, None).algorithm, Algorithm::Serial, "prior");
        for _ in 0..8 {
            planner.record(n, RANK, Algorithm::Serial, 1_000_000);
            planner.record(n, RANK, Algorithm::ReidMiller, 1_000);
        }
        assert_eq!(choose1(&planner, n, None).algorithm, Algorithm::ReidMiller);
    }

    #[test]
    fn ewma_converges_past_a_first_sample_outlier() {
        // The first sample seeds the EWMA outright; sustained later
        // samples must pull it to the true level (α = 0.25 closes an
        // initial 100× gap well within 20 observations).
        let planner = Planner::new(4);
        let n = 1 << 20;
        planner.record(n, RANK, Algorithm::Serial, 100_000_000); // outlier: 100ns/elem
        for _ in 0..20 {
            planner.record(n, RANK, Algorithm::Serial, 1_000_000); // steady: 1ns/elem
        }
        planner.record(n, RANK, Algorithm::ReidMiller, 10_000_000); // 10ns/elem
        assert_eq!(
            choose1(&planner, n, None).algorithm,
            Algorithm::Serial,
            "EWMA must have converged below Reid-Miller's 10ns/elem"
        );
    }

    #[test]
    fn probing_still_exercises_the_unmeasured_contender() {
        // Prior (Reid-Miller at this size / parallelism) measured, the
        // contender not: every PROBE_EVERY-th dispatch in the bucket
        // must go to the unmeasured algorithm so history covers both.
        let planner = Planner::new(4);
        let n = 2_000_000;
        assert_eq!(choose1(&planner, n, None).algorithm, Algorithm::ReidMiller);
        planner.record(n, RANK, Algorithm::ReidMiller, 1_000);
        let picks: Vec<Algorithm> =
            (0..2 * PROBE_EVERY).map(|_| choose1(&planner, n, None).algorithm).collect();
        let serial = picks.iter().filter(|&&a| a == Algorithm::Serial).count();
        assert!(serial >= 1, "no probe of the unmeasured contender in {picks:?}");
        assert!(
            serial <= 2 * (PROBE_EVERY as usize).div_ceil(8),
            "probing should be rare: {serial} of {} dispatches",
            picks.len()
        );
    }

    #[test]
    fn bucket_boundaries_dispatch_stably() {
        // 2^k - 1 and 2^k sit in different buckets; history recorded in
        // one must not leak into the other, and every n inside one
        // bucket sees the same decision.
        assert_ne!(bucket_of((1 << 14) - 1), bucket_of(1 << 14));
        assert_eq!(bucket_of(1 << 14), bucket_of((1 << 15) - 1));
        let planner = Planner::new(4);
        for _ in 0..8 {
            planner.record(1 << 14, RANK, Algorithm::Serial, 1_000_000_000);
            planner.record(1 << 14, RANK, Algorithm::ReidMiller, 1_000);
        }
        assert_eq!(choose1(&planner, 1 << 14, None).algorithm, Algorithm::ReidMiller);
        assert_eq!(choose1(&planner, (1 << 15) - 1, None).algorithm, Algorithm::ReidMiller);
        // The bucket below holds no history: prior (Serial at 4 threads
        // for 2^14 - 1 vertices? the model decides — but stably).
        let below = choose1(&planner, (1 << 14) - 1, None).algorithm;
        for _ in 0..4 {
            assert_eq!(choose1(&planner, (1 << 14) - 1, None).algorithm, below);
        }
    }

    #[test]
    fn sharded_decision_is_budget_aware() {
        let planner = Planner::new(4);
        let budget = 1 << 20;
        // Fits: monolithic, and not counted as a sharded dispatch.
        match planner.choose_sharded(budget, budget, RANK, RB, None) {
            ShardDecision::Monolithic(_) => {}
            other => panic!("expected monolithic fallback, got {other:?}"),
        }
        // Above budget: sharded, balanced, within budget.
        match planner.choose_sharded(10 * budget + 17, budget, RANK, RB, None) {
            ShardDecision::Sharded { shard_size, shards, lanes } => {
                assert!(shard_size <= budget);
                assert_eq!(shards, (10 * budget + 17usize).div_ceil(shard_size));
                assert_eq!(lanes, default_lanes(shard_size));
            }
            other => panic!("expected sharded dispatch, got {other:?}"),
        }
        // Pinning forces the monolithic path even above budget.
        match planner.choose_sharded(10 * budget, budget, RANK, RB, Some(Algorithm::Wyllie)) {
            ShardDecision::Monolithic(plan) => assert_eq!(plan.algorithm, Algorithm::Wyllie),
            other => panic!("pinned must be monolithic, got {other:?}"),
        }
    }

    #[test]
    fn single_thread_prior_uses_lanes_for_big_jobs() {
        // p = 1 is no longer auto-Serial: above the cache-resident
        // threshold the lane-discounted model sends big jobs to
        // Reid-Miller even on one thread (and small jobs stay Serial).
        let planner = Planner::new(1);
        assert_eq!(choose1(&planner, 10_000, None).algorithm, Algorithm::Serial);
        let plan = choose1(&planner, 1 << 23, None);
        assert_eq!(plan.algorithm, Algorithm::ReidMiller);
        assert!(plan.lanes >= 2, "latency hiding needs lanes: {plan:?}");
    }

    #[test]
    fn pinned_overrides_everything() {
        let planner = Planner::new(4);
        assert_eq!(choose1(&planner, 100, Some(Algorithm::Wyllie)).algorithm, Algorithm::Wyllie);
        let totals = planner.dispatch_totals();
        assert_eq!(totals[alg_index(Algorithm::Wyllie)], 1);
    }

    #[test]
    fn mispredict_histogram_scores_predictions() {
        let planner = Planner::new(4);
        let n = 1 << 20;
        // First sample seeds the EWMA — nothing to score yet.
        planner.record(n, RANK, Algorithm::Serial, n as u64); // 1 ns/elem
        assert!(planner.mispredict_histogram().is_empty());
        // Second sample runs 2× the prediction: ratio ≈ 2 × SCALE.
        planner.record(n, RANK, Algorithm::Serial, 2 * n as u64);
        let h = planner.mispredict_histogram();
        assert_eq!(h.count(), 1);
        let (lo, hi) = h.percentile_bounds(50.0);
        assert!(
            lo <= 2 * MISPREDICT_SCALE && 2 * MISPREDICT_SCALE <= hi,
            "2× mispredict outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn decision_log_records_dispatches() {
        let planner = Planner::new(4);
        planner.choose(100, OpKind::Rank, 8, None);
        planner.choose(2_000_000, OpKind::Add, 8, None);
        let ds = planner.recent_decisions(8);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].n, 100);
        assert_eq!(ds[0].op, OpKind::Rank);
        assert!(!ds[0].pinned);
        assert_eq!(ds[1].op, OpKind::Add);
        // A measured bucket reports its prediction with the decision.
        planner.record(100, OpKind::Rank, ds[0].algorithm, 1_000);
        planner.choose(100, OpKind::Rank, 8, None);
        let last = planner.recent_decisions(1);
        assert!(last[0].predicted_ns_per_elem > 0.0);
        // Sharded dispatches log their shard count.
        planner.choose_sharded(1 << 24, 1 << 20, OpKind::Rank, 8, None);
        let last = planner.recent_decisions(1);
        assert!(last[0].shards > 1, "sharded decision logged: {:?}", last[0]);
    }

    /// The paper-scale dynamic case the rankmodel prior is pinned on:
    /// 2^22 vertices, 64 shards of 2^16, blocked-topology fragments.
    const MAINT_N: usize = 1 << 22;
    const MAINT_SHARD: usize = 1 << 16;
    const MAINT_FRAGS: usize = MAINT_N / 4096;

    #[test]
    fn maintenance_prior_pins_both_crossover_sides() {
        let planner = Planner::new(8);
        let shards = MAINT_N / MAINT_SHARD;
        // ≤ 5% dirty: patch in place.
        let mut decisions = Vec::new();
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, shards / 20);
        assert!(d.incremental, "low dirty fraction must go incremental: {d:?}");
        assert_eq!((d.dirty, d.shards), (shards / 20, shards));
        assert_eq!(d.predicted_ns, 0.0, "cold bucket has no EWMA prediction");
        decisions.push(d);
        // Most shards dirty: fall back to a from-scratch build.
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, (9 * shards) / 10);
        assert!(!d.incremental, "high dirty fraction must rebuild: {d:?}");
        decisions.push(d);
        // Fully dirty short-circuits (nothing clean to reuse).
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, shards);
        assert!(!d.incremental);
        decisions.push(d);
        // Fragment-heavy topologies pay the serial re-assembly: rebuild
        // even at one dirty shard.
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_N, 1);
        assert!(!d.incremental, "fragment-heavy must rebuild: {d:?}");
        decisions.push(d);
        let incr = decisions.iter().filter(|d| d.incremental).count();
        assert_eq!((incr, decisions.len() - incr), (1, 3));
    }

    #[test]
    fn maintenance_history_overrides_prior_in_both_directions() {
        let shards = MAINT_N / MAINT_SHARD;
        // Measured history claiming patching is ruinously slow must
        // flip a prior-incremental bucket to rebuild...
        let planner = Planner::new(8);
        for _ in 0..8 {
            planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3, true, u64::MAX >> 20);
            planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, shards, false, 1_000);
        }
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3);
        assert!(!d.incremental, "measured-slow patching must fall back: {d:?}");
        assert!(d.predicted_ns > 0.0, "measured bucket reports its prediction");
        // ...and cheap measured patching must rescue a prior-rebuild
        // dirty fraction.
        let planner = Planner::new(8);
        for _ in 0..8 {
            planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 57, true, 1_000);
            planner.record_maintenance(
                MAINT_N,
                MAINT_SHARD,
                MAINT_FRAGS,
                shards,
                false,
                u64::MAX >> 20,
            );
        }
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, (9 * shards) / 10);
        assert!(d.incremental, "measured-cheap patching must win: {d:?}");
        // But never on a fully-dirty batch, whatever the history says.
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, shards);
        assert!(!d.incremental, "fully dirty is a rebuild by construction");
    }

    #[test]
    fn maintenance_probes_the_unmeasured_strategy() {
        let planner = Planner::new(8);
        // Only the prior side (incremental at 3/64 dirty) measured:
        // the probe cadence must still exercise rebuild.
        planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3, true, 1_000);
        let picks: Vec<bool> = (0..2 * PROBE_EVERY)
            .map(|_| planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3).incremental)
            .collect();
        let rebuilds = picks.iter().filter(|&&i| !i).count();
        assert!(rebuilds >= 1, "no probe of the unmeasured rebuild in {picks:?}");
        assert!(rebuilds <= 4, "probing should be rare: {rebuilds} of {}", picks.len());
    }

    #[test]
    fn contest_ties_go_to_slot_zero() {
        // Equal measured costs pick slot 0 (Serial, Rebuild) whatever
        // the prior; unequal units break the tie.
        let contest = Contest::new(1);
        contest.fold(0, 0, 2.0);
        contest.fold(0, 1, 2.0);
        assert_eq!(contest.pick(0, 1, None, [1.0; 2]), (0, 2.0));
        assert_eq!(contest.pick(0, 0, None, [3.0, 1.0]), (1, 2.0));
    }

    #[test]
    fn op_dispatch_matrix_tracks_kinds() {
        let planner = Planner::new(4);
        planner.choose(100, OpKind::Rank, 8, None);
        planner.choose(100, OpKind::Max, 8, None);
        planner.choose(100, OpKind::Max, 8, None);
        let rows = planner.dispatch_by_op();
        let get = |k: OpKind| {
            rows.iter().find(|(op, _)| *op == k).map(|(_, c)| c.iter().sum::<u64>()).unwrap_or(0)
        };
        assert_eq!(get(OpKind::Rank), 1);
        assert_eq!(get(OpKind::Max), 2);
        assert_eq!(get(OpKind::Xor), 0);
    }
}
