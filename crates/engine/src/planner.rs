//! Adaptive algorithm selection: model prior + measured history.
//!
//! The planner decides, per job, which of the five algorithms to run and
//! (for Reid-Miller) how many interleaved lanes its walks use. Its prior
//! is the host cost model ([`rankmodel::predict::predict_best_op_lanes`],
//! a closed form keyed on the job's value width); as jobs complete it
//! folds measured per-element times into per-(size bucket × **op kind**)
//! EWMAs, so the dispatch threshold migrates to wherever *this*
//! machine's crossover actually sits **for that operator** — a wide
//! affine-composition scan moves twice the memory of a ranking and can
//! cross over at a different size, and their histories must not
//! contaminate each other.
//!
//! Every decision is O(1): a few table reads and one closed-form prior,
//! never a model search. Reid-Miller's split count `m` is not planned
//! here; the host backend derives it inside the worker's inner pool
//! ([`listrank::host::ReidMiller::default_m_for`]). Lists at or below
//! Reid-Miller's serial cutoff always run Serial: Reid-Miller would run
//! the identical serial walk there, so there is nothing to contest.

use crate::op::OpKind;
use crate::telemetry::log::Level;
use crate::telemetry::{AtomicHistogram, Histogram, Ring};
use listrank::Algorithm;
use rankmodel::predict::{default_lanes, predict_best_op_lanes, predict_patch, AlgChoice};
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

/// Lane counts the per-bucket lane tuner picks between. The model's
/// prior seeds the choice; measured Reid-Miller completions at each
/// candidate migrate it to wherever *this* machine's miss-buffer depth
/// and cache sizes actually put the optimum.
pub const LANE_CANDIDATES: [usize; 5] = [1, 2, 4, 8, 16];

const LANE_SLOTS: usize = LANE_CANDIDATES.len();

pub(crate) fn bucket_of(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

pub(crate) fn alg_index(alg: Algorithm) -> usize {
    Algorithm::ALL.iter().position(|&a| a == alg).expect("algorithm in ALL")
}

/// One dispatch decision.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Interleaved traversal lanes for the multi-chain walks (always
    /// `1` for algorithms without one — a serial chain has a single
    /// cursor, structurally).
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
        /// Interleaved lanes for the shard-local fragment walks.
        lanes: usize,
    },
}

#[derive(Clone, Copy, Default)]
struct Ewma {
    ns_per_elem: f64,
    samples: u64,
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

/// Maintenance-strategy slots in the mutate EWMA table.
const MAINT_INCREMENTAL: usize = 0;
const MAINT_REBUILD: usize = 1;

/// The work-unit count a maintenance EWMA normalizes by: the vertices
/// actually re-derived plus the contracted rows re-assembled. Using
/// per-unit times (rather than per-job) lets one bucket's history
/// predict across different dirty fractions.
fn maint_units(n: usize, shard_size: usize, fragments: usize, dirty: usize, kind: usize) -> u64 {
    let touched = if kind == MAINT_REBUILD { n } else { (dirty * shard_size.max(1)).min(n) };
    (touched + fragments).max(1) as u64
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
    /// (prior-driven dispatch).
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
    /// Pinned lane count (`None` = tune per bucket).
    lanes_override: Option<usize>,
    /// Measured per-element times by (bucket, op kind, algorithm).
    measured: Mutex<Vec<[[Ewma; ALGS]; OPS]>>,
    /// Measured per-element times of Reid-Miller jobs by (bucket, lane
    /// candidate) — the lane tuner's history. Kept separate from the
    /// algorithm EWMAs: lane counts only vary *within* the Reid-Miller
    /// dispatch, and mixing lane experiments into the serial/RM contest
    /// would double-count them.
    lane_measured: Mutex<Vec<[Ewma; LANE_SLOTS]>>,
    /// Dispatch counts by (bucket, algorithm) — the stats surface that
    /// makes "different algorithms by job size" visible.
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
    /// Measured per-unit maintenance times by (size bucket × strategy):
    /// slot [`MAINT_INCREMENTAL`] holds dirty-shard patching, slot
    /// [`MAINT_REBUILD`] holds from-scratch decomposition. Kept apart
    /// from the query EWMAs — maintenance touches different code (shard
    /// builds and boundary stitching, no ranking) and its history must
    /// not contaminate dispatch.
    maint_measured: Mutex<Vec<[Ewma; 2]>>,
    /// Maintenance dispatch counts: `[incremental, rebuild]`.
    maint_dispatched: [AtomicU64; 2],
    /// Mispredict ratios for maintenance decisions, same scale and
    /// scoring rule as [`Planner::mispredict`] but fed by
    /// [`Planner::record_maintenance`].
    maint_mispredict: AtomicHistogram,
}

impl Planner {
    /// A planner for jobs that may use up to `p` threads each, tuning
    /// the lane count per size bucket.
    pub fn new(p: usize) -> Self {
        Planner {
            p: p.max(1),
            serial_cutoff: listrank::host::ReidMiller::default().serial_cutoff,
            lanes_override: None,
            measured: Mutex::new(vec![[[Ewma::default(); ALGS]; OPS]; BUCKETS]),
            lane_measured: Mutex::new(vec![[Ewma::default(); LANE_SLOTS]; BUCKETS]),
            dispatched: (0..BUCKETS).map(|_| std::array::from_fn(|_| AtomicU64::new(0))).collect(),
            dispatched_by_op: (0..OPS)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            decisions: Ring::new(DECISION_RING_CAPACITY),
            mispredict: AtomicHistogram::new(),
            maint_measured: Mutex::new(vec![[Ewma::default(); 2]; BUCKETS]),
            maint_dispatched: std::array::from_fn(|_| AtomicU64::new(0)),
            maint_mispredict: AtomicHistogram::new(),
        }
    }

    /// Pin the lane count instead of tuning it (`None` restores
    /// tuning). The engine threads `EngineConfig::lanes` through here.
    pub fn with_lanes_override(mut self, lanes: Option<usize>) -> Self {
        self.lanes_override = lanes.map(|k| k.max(1));
        self
    }

    /// Choose the algorithm (plus the lane count) for an `n`-vertex job
    /// computing `op` over `elem_bytes`-byte values. `pinned` overrides
    /// adaptivity (but still records the dispatch).
    pub fn choose(
        &self,
        n: usize,
        op: OpKind,
        elem_bytes: usize,
        pinned: Option<Algorithm>,
    ) -> Plan {
        let algorithm = pinned.unwrap_or_else(|| self.adaptive_choice(n, op, elem_bytes));
        self.dispatched[bucket_of(n)][alg_index(algorithm)].fetch_add(1, Ordering::Relaxed);
        self.dispatched_by_op[op.index()][alg_index(algorithm)].fetch_add(1, Ordering::Relaxed);
        let lanes = if algorithm == Algorithm::ReidMiller { self.tuned_lanes(n) } else { 1 };
        let plan = Plan { algorithm, lanes };
        self.log_decision(n, op, algorithm, lanes, 0, pinned.is_some());
        plan
    }

    /// Record one decision in the introspection ring (and at
    /// `RANKD_LOG=debug`, on stderr).
    fn log_decision(
        &self,
        n: usize,
        op: OpKind,
        algorithm: Algorithm,
        lanes: usize,
        shards: usize,
        pinned: bool,
    ) {
        let predicted_ns_per_elem = {
            let measured = self.measured.lock().expect("planner poisoned");
            let e = measured[bucket_of(n)][op.index()][alg_index(algorithm)];
            if e.samples > 0 {
                e.ns_per_elem
            } else {
                0.0
            }
        };
        let d = PlanDecision { n, op, algorithm, lanes, shards, predicted_ns_per_elem, pinned };
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

    /// Cold-start prior. The `rankmodel` prediction locates the size
    /// threshold below which startup costs dominate (→ Serial) for the
    /// job's value width; above it, the host's only *work-efficient*
    /// parallel algorithm is Reid-Miller, so every parallel pick maps
    /// there. (The C90 model can prefer the random-mate algorithms
    /// because vector hardware runs them wide even at `p = 1`; a
    /// multicore host has no such discount.) With the K-lane walker the
    /// model crosses over to Reid-Miller even on one thread for large
    /// lists — interleaved chains are the single-core parallelism the
    /// paper's vector pipeline provided. The prior is keyed on the
    /// lane count the job would actually run with (override included),
    /// so pinning `--lanes 1` restores the old serial-on-one-thread
    /// rule instead of promising a discount the walker won't deliver.
    fn prior_choice(&self, n: usize, elem_bytes: usize) -> Algorithm {
        let lanes = self.lanes_override.unwrap_or_else(|| default_lanes(n));
        match predict_best_op_lanes(n, self.p, elem_bytes, lanes) {
            AlgChoice::Serial => Algorithm::Serial,
            _ => Algorithm::ReidMiller,
        }
    }

    /// The lane count for an `n`-vertex Reid-Miller job: the override
    /// if pinned, else the bucket's best measured candidate, probing
    /// unmeasured candidates on the probe cadence, seeded by the
    /// model's prior.
    fn tuned_lanes(&self, n: usize) -> usize {
        if let Some(k) = self.lanes_override {
            return k;
        }
        let b = bucket_of(n);
        let row = { self.lane_measured.lock().expect("planner poisoned")[b] };
        let measured_any = row.iter().any(|e| e.samples > 0);
        let unmeasured_any = row.iter().any(|e| e.samples == 0);
        if measured_any && unmeasured_any {
            // Probe the least-sampled candidate periodically so the
            // bucket's history eventually covers the whole ladder.
            let rm = self.dispatched[b][alg_index(Algorithm::ReidMiller)].load(Ordering::Relaxed);
            if rm % PROBE_EVERY == PROBE_EVERY - 1 {
                let (i, _) = row
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.samples)
                    .expect("candidate ladder is non-empty");
                return LANE_CANDIDATES[i];
            }
        }
        if measured_any {
            let (i, _) = row
                .iter()
                .enumerate()
                .filter(|(_, e)| e.samples > 0)
                .min_by(|(_, a), (_, b)| {
                    a.ns_per_elem.partial_cmp(&b.ns_per_elem).expect("EWMAs are finite")
                })
                .expect("measured_any");
            LANE_CANDIDATES[i]
        } else {
            default_lanes(n)
        }
    }

    fn adaptive_choice(&self, n: usize, op: OpKind, elem_bytes: usize) -> Algorithm {
        if n <= self.serial_cutoff {
            return Algorithm::Serial;
        }
        let b = bucket_of(n);
        let prior = self.prior_choice(n, elem_bytes);
        let measured = self.measured.lock().expect("planner poisoned");
        let serial = measured[b][op.index()][alg_index(Algorithm::Serial)];
        let rm = measured[b][op.index()][alg_index(Algorithm::ReidMiller)];
        drop(measured);
        match (serial.samples, rm.samples) {
            // Nothing measured for this (bucket, op) yet: trust the
            // model.
            (0, 0) => prior,
            // One contender unmeasured. If it is the *prior* that lacks
            // a sample (e.g. the measured one arrived via a pinned
            // job), dispatch the prior so it gets measured — otherwise a
            // single pinned job would poison the bucket onto the
            // non-prior contender. If the prior is the measured one,
            // keep it and probe the other periodically (Reid-Miller
            // only where it could plausibly win: p ≥ 2).
            (0, _) | (_, 0) => {
                let prior_measured = match prior {
                    Algorithm::Serial => serial.samples > 0,
                    _ => rm.samples > 0,
                };
                if !prior_measured {
                    return prior;
                }
                let other = if prior == Algorithm::Serial {
                    Algorithm::ReidMiller
                } else {
                    Algorithm::Serial
                };
                let count: u64 = self.dispatched[b].iter().map(|c| c.load(Ordering::Relaxed)).sum();
                let probe = count % PROBE_EVERY == PROBE_EVERY - 1;
                // Reid-Miller is a plausible winner even at p = 1 now
                // (lanes hide latency without threads), so both
                // contenders are probe-worthy everywhere.
                if probe {
                    other
                } else {
                    prior
                }
            }
            // Both measured: cheapest expected time wins.
            _ => {
                if serial.ns_per_elem <= rm.ns_per_elem {
                    Algorithm::Serial
                } else {
                    Algorithm::ReidMiller
                }
            }
        }
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
        // phases; key the lane choice on the shard size (the walk's
        // working set), overridable like everything else.
        let lanes = self.lanes_override.unwrap_or_else(|| default_lanes(shard_size));
        // Sharded executions are counted at completion time by the
        // engine's `Counters` (the stats surface); the planner keeps no
        // duplicate tally.
        let shards = n.div_ceil(shard_size);
        // The stitch algorithm is chosen downstream by the sharded
        // runner; log the shard-local phase (a serial walk per shard).
        self.log_decision(n, op, Algorithm::Serial, lanes, shards, false);
        ShardDecision::Sharded { shard_size, shards, lanes }
    }

    /// Fold one completed Reid-Miller job into the (bucket, lane)
    /// history. `lanes` snaps to the nearest candidate rung.
    pub fn record_lanes(&self, n: usize, lanes: usize, exec_ns: u64) {
        if n == 0 {
            return;
        }
        let slot = LANE_CANDIDATES
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c.abs_diff(lanes))
            .map(|(i, _)| i)
            .expect("candidate ladder is non-empty");
        let per_elem = exec_ns as f64 / n as f64;
        let mut measured = self.lane_measured.lock().expect("planner poisoned");
        let e = &mut measured[bucket_of(n)][slot];
        e.ns_per_elem = if e.samples == 0 {
            per_elem
        } else {
            (1.0 - ALPHA) * e.ns_per_elem + ALPHA * per_elem
        };
        e.samples += 1;
    }

    /// Fold one completed job into the (bucket, op) history, scoring
    /// the EWMA's prediction against the measurement on the way in.
    pub fn record(&self, n: usize, op: OpKind, alg: Algorithm, exec_ns: u64) {
        if n == 0 {
            return;
        }
        let per_elem = exec_ns as f64 / n as f64;
        let mut measured = self.measured.lock().expect("planner poisoned");
        let e = &mut measured[bucket_of(n)][op.index()][alg_index(alg)];
        if e.samples > 0 && e.ns_per_elem > 0.0 {
            // The pre-update EWMA is what `choose` would have predicted
            // for this job; its measured/predicted ratio (scaled by
            // MISPREDICT_SCALE) is the planner's self-assessment.
            let ratio = (per_elem / e.ns_per_elem) * MISPREDICT_SCALE as f64;
            self.mispredict.record(ratio.clamp(0.0, u64::MAX as f64) as u64);
        }
        e.ns_per_elem = if e.samples == 0 {
            per_elem
        } else {
            (1.0 - ALPHA) * e.ns_per_elem + ALPHA * per_elem
        };
        e.samples += 1;
    }

    /// Choose how to bring an `n`-vertex sharded decomposition
    /// (`shards` shards of `shard_size`, `fragments` contracted rows)
    /// up to date after a mutation batch dirtied `dirty` shards: patch
    /// the dirty shards in place, or rebuild from scratch.
    ///
    /// Same layering as [`Self::choose`]: the cost model
    /// ([`rankmodel::predict::predict_patch`]) is the cold-start prior;
    /// once the size bucket has measured history for both strategies,
    /// the cheaper expected time wins; with one strategy unmeasured,
    /// the measured one runs but the other is probed on the
    /// `PROBE_EVERY` cadence so history covers both sides of the
    /// crossover.
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
        let lanes = self.lanes_override.unwrap_or_else(|| default_lanes(shard_size.min(n)));
        let prior = dirty < shards && predict_patch(n, shard_size, fragments, dirty, self.p, lanes);
        let row = { self.maint_measured.lock().expect("planner poisoned")[b] };
        let incr = row[MAINT_INCREMENTAL];
        let reb = row[MAINT_REBUILD];
        // A fully-dirty batch has nothing clean to reuse: patching is a
        // rebuild with extra bookkeeping, so never "probe" it.
        let incremental = if dirty >= shards {
            false
        } else {
            match (incr.samples, reb.samples) {
                (0, 0) => prior,
                (0, _) | (_, 0) => {
                    let prior_measured = if prior { incr.samples > 0 } else { reb.samples > 0 };
                    if !prior_measured {
                        prior
                    } else {
                        let count: u64 =
                            self.maint_dispatched.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                        if count % PROBE_EVERY == PROBE_EVERY - 1 {
                            !prior
                        } else {
                            prior
                        }
                    }
                }
                _ => {
                    let incr_ns = incr.ns_per_elem
                        * maint_units(n, shard_size, fragments, dirty, MAINT_INCREMENTAL) as f64;
                    let reb_ns = reb.ns_per_elem
                        * maint_units(n, shard_size, fragments, dirty, MAINT_REBUILD) as f64;
                    incr_ns < reb_ns
                }
            }
        };
        let kind = if incremental { MAINT_INCREMENTAL } else { MAINT_REBUILD };
        self.maint_dispatched[kind].fetch_add(1, Ordering::Relaxed);
        let chosen = row[kind];
        let predicted_ns = if chosen.samples > 0 {
            chosen.ns_per_elem * maint_units(n, shard_size, fragments, dirty, kind) as f64
        } else {
            0.0
        };
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
    /// history, scoring the EWMA's prediction against the measurement
    /// on the way in (same rule as [`Self::record`], into the separate
    /// maintenance mispredict histogram).
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
        let kind = if incremental { MAINT_INCREMENTAL } else { MAINT_REBUILD };
        let per_unit = exec_ns as f64 / maint_units(n, shard_size, fragments, dirty, kind) as f64;
        let mut measured = self.maint_measured.lock().expect("planner poisoned");
        let e = &mut measured[bucket_of(n)][kind];
        if e.samples > 0 && e.ns_per_elem > 0.0 {
            let ratio = (per_unit / e.ns_per_elem) * MISPREDICT_SCALE as f64;
            self.maint_mispredict.record(ratio.clamp(0.0, u64::MAX as f64) as u64);
        }
        e.ns_per_elem = if e.samples == 0 {
            per_unit
        } else {
            (1.0 - ALPHA) * e.ns_per_elem + ALPHA * per_unit
        };
        e.samples += 1;
    }

    /// Maintenance dispatch counts: `(incremental, rebuild)`.
    pub fn maintenance_dispatches(&self) -> (u64, u64) {
        (
            self.maint_dispatched[MAINT_INCREMENTAL].load(Ordering::Relaxed),
            self.maint_dispatched[MAINT_REBUILD].load(Ordering::Relaxed),
        )
    }

    /// Snapshot of the maintenance mispredict-ratio histogram (same
    /// scale as [`Self::mispredict_histogram`]).
    pub fn maint_mispredict_histogram(&self) -> Histogram {
        self.maint_mispredict.snapshot()
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
                assert!(lanes >= 1);
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
    fn lane_override_pins_every_bucket() {
        let planner = Planner::new(2).with_lanes_override(Some(4));
        for n in [100usize, 1 << 18, 1 << 24] {
            let plan = planner.choose(n, RANK, RB, None);
            if plan.algorithm == Algorithm::ReidMiller {
                assert_eq!(plan.lanes, 4);
            }
        }
        match planner.choose_sharded(1 << 24, 1 << 20, RANK, RB, None) {
            ShardDecision::Sharded { lanes, .. } => assert_eq!(lanes, 4),
            other => panic!("expected sharded dispatch, got {other:?}"),
        }
    }

    #[test]
    fn lane_history_overrides_prior_and_probes_the_ladder() {
        let planner = Planner::new(4);
        let n = 1 << 22;
        // Cold start: the model's prior (default lanes above the
        // cache-resident threshold).
        assert_eq!(choose1(&planner, n, None).lanes, rankmodel::predict::default_lanes(n), "prior");
        // Feed history claiming 2 lanes beat the default in this
        // bucket: the tuner must follow the measurement.
        for _ in 0..8 {
            planner.record_lanes(n, 2, 1_000_000);
            planner.record_lanes(n, rankmodel::predict::default_lanes(n), 64_000_000);
        }
        let picks: Vec<usize> =
            (0..2 * PROBE_EVERY).map(|_| choose1(&planner, n, None).lanes).collect();
        assert!(
            picks.iter().filter(|&&k| k == 2).count() >= picks.len() / 2,
            "measured best must dominate: {picks:?}"
        );
        // The unmeasured rungs (1, 4, 16) still get probed.
        assert!(
            picks.iter().any(|&k| k != 2 && k != rankmodel::predict::default_lanes(n)),
            "no probe of unmeasured lane candidates in {picks:?}"
        );
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
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, shards / 20);
        assert!(d.incremental, "low dirty fraction must go incremental: {d:?}");
        assert_eq!((d.dirty, d.shards), (shards / 20, shards));
        assert_eq!(d.predicted_ns, 0.0, "cold bucket has no EWMA prediction");
        // Most shards dirty: fall back to a from-scratch build.
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, (9 * shards) / 10);
        assert!(!d.incremental, "high dirty fraction must rebuild: {d:?}");
        // Fully dirty short-circuits (nothing clean to reuse).
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, shards);
        assert!(!d.incremental);
        // Fragment-heavy topologies pay the serial re-assembly: rebuild
        // even at one dirty shard.
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_N, 1);
        assert!(!d.incremental, "fragment-heavy must rebuild: {d:?}");
        let (incr, reb) = planner.maintenance_dispatches();
        assert_eq!((incr, reb), (1, 3));
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
    fn maintenance_mispredict_histogram_scores_predictions() {
        let planner = Planner::new(8);
        // First sample seeds the EWMA — nothing to score yet.
        planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3, true, 1_000_000);
        assert!(planner.maint_mispredict_histogram().is_empty());
        // Second sample runs 2× the prediction: ratio ≈ 2 × SCALE.
        planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3, true, 2_000_000);
        let h = planner.maint_mispredict_histogram();
        assert_eq!(h.count(), 1);
        let (lo, hi) = h.percentile_bounds(50.0);
        assert!(
            lo <= 2 * MISPREDICT_SCALE && 2 * MISPREDICT_SCALE <= hi,
            "2× mispredict outside [{lo}, {hi}]"
        );
        // The query-plane histogram is untouched.
        assert!(planner.mispredict_histogram().is_empty());
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
