//! Mixed-workload generation and the engine-vs-baseline throughput
//! harness (shared by the `rankd` CLI and the criterion benchmark).

use crate::engine::Engine;
use crate::job::{JobHandle, Request};
use listkit::gen;
use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, MinOp, XorOp};
use listkit::segmented::{self, SegOp};
use listkit::LinkedList;
use listrank::{Algorithm, HostRunner};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which scan operators the mixed workload routes through the engine
/// (`rankd --op`): one specific operator, or the full rotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpSelect {
    /// Rotate through every operator (including a segmented case).
    Mixed,
    /// `+`-scans only.
    Add,
    /// max-scans only.
    Max,
    /// min-scans only.
    Min,
    /// xor-scans only.
    Xor,
    /// Affine-composition scans only (non-commutative).
    Affine,
    /// Segmented `+`-scans only.
    Segmented,
}

impl OpSelect {
    /// Parse a `rankd --op` value.
    pub fn parse(s: &str) -> Option<OpSelect> {
        Some(match s {
            "mixed" => OpSelect::Mixed,
            "add" => OpSelect::Add,
            "max" => OpSelect::Max,
            "min" => OpSelect::Min,
            "xor" => OpSelect::Xor,
            "affine" => OpSelect::Affine,
            "seg" | "segmented" => OpSelect::Segmented,
            _ => return None,
        })
    }

    /// The scan kind the `i`-th generated variant carries.
    fn kind_for(self, i: usize) -> ScanKind {
        const ROTATION: [ScanKind; 6] = [
            ScanKind::Add,
            ScanKind::Max,
            ScanKind::Xor,
            ScanKind::Affine,
            ScanKind::Seg,
            ScanKind::Min,
        ];
        match self {
            OpSelect::Mixed => ROTATION[i % ROTATION.len()],
            OpSelect::Add => ScanKind::Add,
            OpSelect::Max => ScanKind::Max,
            OpSelect::Min => ScanKind::Min,
            OpSelect::Xor => ScanKind::Xor,
            OpSelect::Affine => ScanKind::Affine,
            OpSelect::Segmented => ScanKind::Seg,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum ScanKind {
    Add,
    Max,
    Min,
    Xor,
    Affine,
    Seg,
}

/// Parameters of a mixed ranking/scan workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Smallest job size decade: jobs of ≥ `10^min_exp` vertices.
    pub min_exp: u32,
    /// Largest job size decade: jobs up to `10^max_exp` vertices.
    pub max_exp: u32,
    /// Element budget per decade: decade `e` gets about
    /// `elems_per_decade / 10^e` jobs (clamped to `max_jobs_per_decade`,
    /// minimum 1), so every decade contributes comparable total work.
    pub elems_per_decade: u64,
    /// Cap on the job count of any decade (keeps 10² from dominating).
    pub max_jobs_per_decade: usize,
    /// Fraction of jobs that are scans instead of rankings.
    pub scan_frac: f64,
    /// Which scan operators the scan jobs use.
    pub op: OpSelect,
    /// Generator seed (lists, sizes and the submission order are all
    /// deterministic functions of it).
    pub seed: u64,
    /// Distinct lists generated per decade (jobs share them via `Arc`).
    pub lists_per_decade: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            min_exp: 2,
            max_exp: 7,
            elems_per_decade: 2_000_000,
            max_jobs_per_decade: 3000,
            scan_frac: 0.3,
            op: OpSelect::Mixed,
            seed: 0xC90,
            lists_per_decade: 3,
        }
    }
}

/// One pre-generated job: the list plus the payload of its designated
/// operator. An enum over the concrete operators keeps the harness
/// allocation-free at submit time (every submit just clones `Arc`s into
/// a typed [`Request`]).
#[derive(Clone)]
enum WorkJob {
    Rank(Arc<LinkedList>),
    Add(Arc<LinkedList>, Arc<Vec<i64>>),
    Max(Arc<LinkedList>, Arc<Vec<i64>>),
    Min(Arc<LinkedList>, Arc<Vec<i64>>),
    Xor(Arc<LinkedList>, Arc<Vec<u64>>),
    Affine(Arc<LinkedList>, Arc<Vec<Affine>>),
    Seg(Arc<LinkedList>, Arc<Vec<i64>>, Arc<Vec<bool>>),
}

/// An in-flight job: the typed handles a mixed workload produces.
enum Pending {
    U64(JobHandle<Vec<u64>>),
    I64(JobHandle<Vec<i64>>),
    Aff(JobHandle<Vec<Affine>>),
}

impl Pending {
    /// Await the job and fold its typed output into a digest.
    fn wait_digest(self) -> u64 {
        match self {
            Pending::U64(h) => fold_u64(&h.wait().expect("job completed").output),
            Pending::I64(h) => fold_i64(&h.wait().expect("job completed").output),
            Pending::Aff(h) => fold_affine(&h.wait().expect("job completed").output),
        }
    }
}

impl WorkJob {
    fn len(&self) -> usize {
        match self {
            WorkJob::Rank(list)
            | WorkJob::Add(list, _)
            | WorkJob::Max(list, _)
            | WorkJob::Min(list, _)
            | WorkJob::Xor(list, _)
            | WorkJob::Affine(list, _)
            | WorkJob::Seg(list, _, _) => list.len(),
        }
    }

    /// Submit through the typed request API.
    fn submit(&self, engine: &Engine) -> Pending {
        let accepted = "engine accepting work";
        match self {
            WorkJob::Rank(l) => {
                Pending::U64(engine.submit(Request::rank(Arc::clone(l))).expect(accepted))
            }
            WorkJob::Add(l, v) => Pending::I64(
                engine.submit(Request::scan(Arc::clone(l), Arc::clone(v), AddOp)).expect(accepted),
            ),
            WorkJob::Max(l, v) => Pending::I64(
                engine.submit(Request::scan(Arc::clone(l), Arc::clone(v), MaxOp)).expect(accepted),
            ),
            WorkJob::Min(l, v) => Pending::I64(
                engine.submit(Request::scan(Arc::clone(l), Arc::clone(v), MinOp)).expect(accepted),
            ),
            WorkJob::Xor(l, v) => Pending::U64(
                engine.submit(Request::scan(Arc::clone(l), Arc::clone(v), XorOp)).expect(accepted),
            ),
            WorkJob::Affine(l, v) => Pending::Aff(
                engine
                    .submit(Request::scan(Arc::clone(l), Arc::clone(v), AffineOp))
                    .expect(accepted),
            ),
            WorkJob::Seg(l, v, s) => Pending::I64(
                engine
                    .submit(Request::segmented_scan(
                        Arc::clone(l),
                        Arc::clone(v),
                        Arc::clone(s),
                        AddOp,
                    ))
                    .expect(accepted),
            ),
        }
    }

    /// What callers did before `rankd`: a one-shot fixed-algorithm
    /// `HostRunner` call with fresh allocations. Returns the digest of
    /// the output (must agree with the engine path byte for byte).
    fn run_baseline(&self, runner: &HostRunner) -> u64 {
        match self {
            WorkJob::Rank(l) => fold_u64(&runner.rank(l)),
            WorkJob::Add(l, v) => fold_i64(&runner.scan(l, v, &AddOp)),
            WorkJob::Max(l, v) => fold_i64(&runner.scan(l, v, &MaxOp)),
            WorkJob::Min(l, v) => fold_i64(&runner.scan(l, v, &MinOp)),
            WorkJob::Xor(l, v) => fold_u64(&runner.scan(l, v, &XorOp)),
            WorkJob::Affine(l, v) => fold_affine(&runner.scan(l, v, &AffineOp)),
            WorkJob::Seg(l, v, s) => {
                let wrapped = segmented::wrap(v, s);
                let scanned = runner.scan(l, &wrapped, &SegOp(AddOp));
                fold_i64(&segmented::unwrap_exclusive(&scanned, s, &AddOp))
            }
        }
    }
}

/// Scan payload generators: cheap, deterministic per-vertex patterns.
fn i64_values(n: usize) -> Arc<Vec<i64>> {
    Arc::new((0..n as i64).map(|i| (i % 23) - 11).collect())
}

fn u64_values(n: usize) -> Arc<Vec<u64>> {
    Arc::new((0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i).collect())
}

fn affine_values(n: usize) -> Arc<Vec<Affine>> {
    Arc::new((0..n as i64).map(|i| Affine::new((i % 5) - 2, (i % 7) - 3)).collect())
}

fn seg_starts(n: usize) -> Arc<Vec<bool>> {
    Arc::new((0..n).map(|v| v % 64 == 0).collect())
}

/// A pre-generated job mix (generation cost is paid before timing).
pub struct Workload {
    /// The jobs, in submission order.
    jobs: Vec<WorkJob>,
    /// Total vertices across all jobs.
    pub total_elements: u64,
}

impl Workload {
    /// Generate the mixed workload described by `cfg`.
    pub fn generate(cfg: &WorkloadConfig) -> Self {
        assert!(cfg.min_exp <= cfg.max_exp, "min_exp must be ≤ max_exp");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut jobs: Vec<WorkJob> = Vec::new();
        for e in cfg.min_exp..=cfg.max_exp {
            let base = 10u64.pow(e) as usize;
            // Distinct lists for this decade, sizes jittered log-uniform
            // within [10^e, 10^(e+1)) — except the top decade, which is
            // pinned to exactly 10^max_exp so the workload's size range
            // is the configured [10^min_exp, 10^max_exp]. Each variant
            // carries the payload of one designated scan operator, so
            // the full rotation appears across variants and decades
            // without multiplying the value-array memory.
            let variants: Vec<(Arc<LinkedList>, WorkJob)> = (0..cfg.lists_per_decade.max(1))
                .map(|v| {
                    let factor = if e == cfg.max_exp {
                        1.0
                    } else {
                        10f64.powf(rng.random_range(0.0f64..1.0))
                    };
                    let n = ((base as f64) * factor) as usize;
                    let list = Arc::new(gen::random_list(n, cfg.seed ^ (e as u64) << 8 ^ v as u64));
                    let kind = cfg.op.kind_for(v + e as usize);
                    let scan = match kind {
                        ScanKind::Add => WorkJob::Add(Arc::clone(&list), i64_values(n)),
                        ScanKind::Max => WorkJob::Max(Arc::clone(&list), i64_values(n)),
                        ScanKind::Min => WorkJob::Min(Arc::clone(&list), i64_values(n)),
                        ScanKind::Xor => WorkJob::Xor(Arc::clone(&list), u64_values(n)),
                        ScanKind::Affine => WorkJob::Affine(Arc::clone(&list), affine_values(n)),
                        ScanKind::Seg => {
                            WorkJob::Seg(Arc::clone(&list), i64_values(n), seg_starts(n))
                        }
                    };
                    (list, scan)
                })
                .collect();
            let count = (cfg.elems_per_decade / base as u64)
                .clamp(1, cfg.max_jobs_per_decade as u64) as usize;
            for j in 0..count {
                let (list, scan) = &variants[j % variants.len()];
                let job = if rng.random_range(0.0f64..1.0) < cfg.scan_frac {
                    scan.clone()
                } else {
                    WorkJob::Rank(Arc::clone(list))
                };
                jobs.push(job);
            }
        }
        // Interleave decades so the queue always sees a mix of sizes.
        gen::fisher_yates(&mut jobs, &mut rng);
        let total_elements = jobs.iter().map(|j| j.len() as u64).sum();
        Workload { jobs, total_elements }
    }

    /// Number of jobs in the mix.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }
}

/// Outcome of driving one workload through an executor.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Wall-clock time for the whole workload.
    pub elapsed: Duration,
    /// Jobs completed.
    pub jobs: usize,
    /// Vertices processed.
    pub elements: u64,
    /// Order-independent digest of all outputs (keeps work honest and
    /// catches divergence between executors on the same workload):
    /// per-job position-sensitive folds, aggregated by wrapping
    /// addition so duplicated jobs cannot cancel as they would under
    /// XOR.
    pub checksum: u64,
}

impl RunResult {
    /// Elements per second.
    pub fn elements_per_sec(&self) -> f64 {
        self.elements as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Jobs per second.
    pub fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

// Position-mixed folds: a rank vector is always a permutation of 0..n,
// so a position-blind XOR would be identical for any misassignment of
// correct values to wrong vertices — mix the vertex index into each
// term.
fn fold_u64(xs: &[u64]) -> u64 {
    xs.iter()
        .enumerate()
        .fold(0u64, |a, (v, &x)| a ^ (x ^ (v as u64) << 32).wrapping_mul(0x9e3779b9))
}

fn fold_i64(xs: &[i64]) -> u64 {
    xs.iter()
        .enumerate()
        .fold(0u64, |a, (v, &x)| a ^ (x as u64 ^ (v as u64) << 32).wrapping_mul(0x85ebca6b))
}

fn fold_affine(xs: &[Affine]) -> u64 {
    xs.iter().enumerate().fold(0u64, |acc, (v, f)| {
        acc ^ (f.a as u64 ^ (v as u64) << 32).wrapping_mul(0xc2b2ae35)
            ^ (f.b as u64 ^ (v as u64) << 32).wrapping_mul(0x27d4eb2f)
    })
}

/// Drive the workload through the engine: submit everything (blocking
/// submits exercise backpressure), then await all handles.
pub fn run_engine(engine: &Engine, workload: &Workload) -> RunResult {
    let t0 = Instant::now();
    let pending: Vec<Pending> = workload.jobs.iter().map(|job| job.submit(engine)).collect();
    let mut checksum = 0u64;
    let mut jobs = 0usize;
    for p in pending {
        checksum = checksum.wrapping_add(p.wait_digest());
        jobs += 1;
    }
    RunResult { elapsed: t0.elapsed(), jobs, elements: workload.total_elements, checksum }
}

/// The naive baseline the engine must beat: submit-and-wait each job in
/// order through a one-shot `HostRunner` with a fixed algorithm and
/// fresh allocations — exactly what callers did before `rankd` existed.
pub fn run_baseline(workload: &Workload) -> RunResult {
    let runner = HostRunner::new(Algorithm::ReidMiller);
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for job in &workload.jobs {
        checksum = checksum.wrapping_add(job.run_baseline(&runner));
    }
    RunResult {
        elapsed: t0.elapsed(),
        jobs: workload.jobs.len(),
        elements: workload.total_elements,
        checksum,
    }
}

/// Parameters of the huge-list sharded-ranking scenario: a few jobs
/// over one list far above the per-worker budget, run once through the
/// shard-parallel path and once through the monolithic fallback.
#[derive(Clone, Debug)]
pub struct HugeListConfig {
    /// Vertices in the huge list (scales to 10^8 virtual elements; the
    /// list is shared by every job via `Arc`, so memory holds one copy).
    pub n: usize,
    /// Ranking jobs submitted over the list per pass.
    pub jobs: usize,
    /// Blocked-layout block size: the locality knob. Real huge lists
    /// arrive as concatenations of locally-built chunks; `block`
    /// vertices stay contiguous while blocks land in random order.
    pub block: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for HugeListConfig {
    fn default() -> Self {
        HugeListConfig { n: 1 << 24, jobs: 4, block: 4096, seed: 0xC90 }
    }
}

/// Both passes of the huge-list scenario, checksum-verified against
/// each other.
#[derive(Clone, Copy, Debug)]
pub struct ShardedComparison {
    /// The shard-parallel pass ([`Request::sharded`]).
    pub sharded: RunResult,
    /// The monolithic pass ([`Request::rank`], planner-dispatched).
    pub monolithic: RunResult,
}

impl ShardedComparison {
    /// Sharded throughput over monolithic throughput.
    pub fn speedup(&self) -> f64 {
        self.monolithic.elapsed.as_secs_f64() / self.sharded.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Drive the huge-list scenario through `engine`: submit `cfg.jobs`
/// sharded ranking jobs, await them, then the same jobs monolithically,
/// and check both passes produce identical bytes.
///
/// # Panics
/// Panics if the two passes' checksums diverge.
pub fn run_sharded_scenario(engine: &Engine, cfg: &HugeListConfig) -> ShardedComparison {
    let list =
        Arc::new(gen::list_with_layout(cfg.n, gen::Layout::Blocked(cfg.block.max(1)), cfg.seed));
    let pass = |req_for: &dyn Fn() -> Request<Vec<u64>>| -> RunResult {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..cfg.jobs.max(1))
            .map(|_| engine.submit(req_for()).expect("engine accepting work"))
            .collect();
        let mut checksum = 0u64;
        let mut jobs = 0usize;
        for h in handles {
            let report = h.wait().expect("job completed");
            checksum = checksum.wrapping_add(fold_u64(&report.output));
            jobs += 1;
        }
        RunResult {
            elapsed: t0.elapsed(),
            jobs,
            elements: cfg.n as u64 * cfg.jobs.max(1) as u64,
            checksum,
        }
    };
    let sharded = pass(&|| Request::rank(Arc::clone(&list)).sharded());
    let monolithic = pass(&|| Request::rank(Arc::clone(&list)));
    assert_eq!(
        sharded.checksum, monolithic.checksum,
        "sharded and monolithic passes diverged on the same list"
    );
    ShardedComparison { sharded, monolithic }
}
