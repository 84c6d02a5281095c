//! Integration tests: engine results must be byte-identical to direct
//! `HostRunner` results, under concurrency, batching, cancellation and
//! backpressure; the adaptive planner must demonstrably dispatch
//! different algorithms by job size; and the typed request API must
//! route **every** `listkit::ops` operator through the engine.

use engine::{Engine, EngineConfig, JobError, JobOptions, OpKind, Request};
use listkit::gen;
use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, MinOp, XorOp};
use listkit::segmented::{self, SegOp};
use listkit::LinkedList;
use listrank::{Algorithm, HostRunner};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

fn shared_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Engine::new(EngineConfig::default().with_workers(2).with_queue_capacity(256))
    })
}

fn values_for(n: usize) -> Arc<Vec<i64>> {
    Arc::new((0..n as i64).map(|i| (i % 31) - 15).collect())
}

#[test]
fn engine_matches_host_runner_all_algorithms_and_sizes() {
    let engine = shared_engine();
    // Sizes straddle the serial cutoff, the batching cutoff and the
    // parallel regime.
    for &n in &[1usize, 2, 3, 100, 2048, 2049, 10_000, 60_000] {
        let list = Arc::new(gen::random_list(n, n as u64 ^ 0xBEEF));
        let values = values_for(n);
        for alg in Algorithm::ALL {
            let seed = 0x1994 ^ n as u64;
            let opts = JobOptions { seed, algorithm: Some(alg), ..Default::default() };
            let rank_handle =
                engine.submit_with(Request::rank(Arc::clone(&list)), opts).expect("submit rank");
            let scan_handle = engine
                .submit_with(Request::scan(Arc::clone(&list), Arc::clone(&values), AddOp), opts)
                .expect("submit scan");

            let runner = HostRunner::new(alg).with_seed(seed);
            let rank_report = rank_handle.wait().expect("rank completes");
            assert_eq!(rank_report.algorithm, alg);
            assert_eq!(rank_report.op, OpKind::Rank);
            assert_eq!(rank_report.output, runner.rank(&list), "rank parity: {alg} n={n}");
            let scan_report = scan_handle.wait().expect("scan completes");
            assert_eq!(scan_report.op, OpKind::Add);
            assert_eq!(
                scan_report.output,
                runner.scan(&list, &values, &AddOp),
                "scan parity: {alg} n={n}"
            );
        }
    }
}

#[test]
fn every_operator_routes_through_the_typed_api() {
    // The tentpole claim: every `listkit::ops` operator — plus a
    // segmented and a non-commutative case — is submittable through the
    // typed request API and agrees with the serial oracle, with no
    // output enum to unwrap anywhere.
    let engine = shared_engine();
    for &n in &[1usize, 2, 257, 5000] {
        let list = Arc::new(gen::random_list(n, 0xA11 ^ n as u64));
        let i64s = values_for(n);
        let u64s: Arc<Vec<u64>> = Arc::new((0..n as u64).map(|i| i.wrapping_mul(0x9e37)).collect());
        let affs: Arc<Vec<Affine>> =
            Arc::new((0..n as i64).map(|i| Affine::new((i % 5) - 2, i % 9)).collect());
        let starts: Arc<Vec<bool>> = Arc::new((0..n).map(|v| v % 13 == 0).collect());

        let add =
            engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&i64s), AddOp)).unwrap();
        let max =
            engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&i64s), MaxOp)).unwrap();
        let min =
            engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&i64s), MinOp)).unwrap();
        let xor =
            engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&u64s), XorOp)).unwrap();
        let aff =
            engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&affs), AffineOp)).unwrap();
        let seg = engine
            .submit(Request::segmented_scan(
                Arc::clone(&list),
                Arc::clone(&i64s),
                Arc::clone(&starts),
                AddOp,
            ))
            .unwrap();

        assert_eq!(add.wait().unwrap().output, listkit::serial::scan(&list, &i64s, &AddOp));
        assert_eq!(max.wait().unwrap().output, listkit::serial::scan(&list, &i64s, &MaxOp));
        assert_eq!(min.wait().unwrap().output, listkit::serial::scan(&list, &i64s, &MinOp));
        assert_eq!(xor.wait().unwrap().output, listkit::serial::scan(&list, &u64s, &XorOp));
        let aff_report = aff.wait().unwrap();
        assert_eq!(aff_report.op, OpKind::Affine);
        assert_eq!(aff_report.output, listkit::serial::scan(&list, &affs, &AffineOp));
        let seg_report = seg.wait().unwrap();
        assert_eq!(seg_report.op, OpKind::Segmented);
        assert_eq!(
            seg_report.output,
            segmented::serial_segmented_scan(&list, &i64s, &starts, &AddOp)
        );
    }
    // The op dimension shows up in the stats surface.
    let stats = shared_engine().stats();
    for kind in
        [OpKind::Add, OpKind::Max, OpKind::Min, OpKind::Xor, OpKind::Affine, OpKind::Segmented]
    {
        assert!(
            stats.per_op.iter().any(|row| row.op == kind && row.completed > 0),
            "{kind} missing from per-op stats"
        );
        assert!(
            stats
                .dispatch_by_op
                .iter()
                .any(|(op, counts)| *op == kind && counts.iter().sum::<u64>() > 0),
            "{kind} missing from the op dispatch matrix"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_rank_matches_host_for_random_jobs(
        n in 1usize..30_000,
        seed in any::<u64>(),
        alg_ix in 0usize..5,
    ) {
        let engine = shared_engine();
        let alg = Algorithm::ALL[alg_ix];
        let list = Arc::new(gen::random_list(n, seed));
        let opts = JobOptions { seed, algorithm: Some(alg), ..Default::default() };
        let handle = engine
            .submit_with(Request::rank(Arc::clone(&list)), opts)
            .expect("submit");
        let report = handle.wait().expect("completes");
        let want = HostRunner::new(alg).with_seed(seed).rank(&list);
        prop_assert_eq!(report.output, want);
    }

    #[test]
    fn engine_adaptive_rank_is_correct(n in 1usize..50_000, seed in any::<u64>()) {
        // No pinning: whatever the planner picks must still be right.
        let engine = shared_engine();
        let list = Arc::new(gen::random_list(n, seed));
        let handle = engine.submit(Request::rank(Arc::clone(&list))).expect("submit");
        let report = handle.wait().expect("completes");
        prop_assert_eq!(report.output, listkit::serial::rank(&list));
    }
}

#[test]
fn sixty_four_jobs_in_flight_all_correct() {
    let engine = Engine::new(EngineConfig::default().with_workers(4).with_queue_capacity(256));
    // Occupy all four workers with sizeable jobs so the small jobs
    // below deterministically pile up in the queue.
    let big = Arc::new(gen::random_list(2_000_000, 99));
    let blockers: Vec<_> = (0..4)
        .map(|_| engine.submit(Request::rank(Arc::clone(&big))).expect("submit blocker"))
        .collect();

    // Pre-generate a handful of lists; 96 jobs reference them.
    let lists: Vec<Arc<listkit::LinkedList>> =
        (0..8).map(|i| Arc::new(gen::random_list(1000 * (i + 1), i as u64))).collect();
    let expected: Vec<Vec<u64>> = lists.iter().map(|l| listkit::serial::rank(l)).collect();

    let handles: Vec<_> = (0..96)
        .map(|i| engine.submit(Request::rank(Arc::clone(&lists[i % lists.len()]))).expect("submit"))
        .collect();
    // All 96 were submitted before any wait: ≥64 genuinely in flight.
    for (i, h) in handles.into_iter().enumerate() {
        let report = h.wait().expect("job completes");
        assert_eq!(report.output, expected[i % lists.len()], "job {i}");
    }
    for b in blockers {
        b.wait().expect("blocker completes");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.completed, 100);
    assert!(
        stats.peak_queue_depth >= 64,
        "peak queue depth {} should show ≥64 jobs in flight",
        stats.peak_queue_depth
    );
}

#[test]
fn planner_dispatches_different_algorithms_by_size() {
    // Planner believes jobs get 4 threads (the dispatch decision under
    // test is independent of the machine the test runs on).
    let engine = Engine::new(
        EngineConfig::default().with_workers(2).with_inner_threads(4).with_queue_capacity(256),
    );
    let small = Arc::new(gen::random_list(200, 7));
    let large = Arc::new(gen::random_list(1_500_000, 8));
    let mut handles = Vec::new();
    for _ in 0..12 {
        handles.push(engine.submit(Request::rank(Arc::clone(&small))).unwrap());
    }
    for _ in 0..4 {
        handles.push(engine.submit(Request::rank(Arc::clone(&large))).unwrap());
    }
    let mut small_algs = Vec::new();
    let mut large_algs = Vec::new();
    for h in handles {
        let report = h.wait().expect("completes");
        if report.n == 200 {
            small_algs.push(report.algorithm);
        } else {
            large_algs.push(report.algorithm);
        }
    }
    assert!(
        small_algs.iter().all(|&a| a == Algorithm::Serial),
        "small jobs must go serial, got {small_algs:?}"
    );
    assert!(
        large_algs.iter().all(|&a| a == Algorithm::ReidMiller),
        "large jobs must go to Reid-Miller, got {large_algs:?}"
    );

    // The dispatch split is visible in the stats surface.
    let stats = engine.shutdown();
    let serial_ix = Algorithm::ALL.iter().position(|&a| a == Algorithm::Serial).unwrap();
    let rm_ix = Algorithm::ALL.iter().position(|&a| a == Algorithm::ReidMiller).unwrap();
    assert!(stats.dispatch[serial_ix] >= 12);
    assert!(stats.dispatch[rm_ix] >= 4);
    let rendered = format!("{stats}");
    assert!(rendered.contains("serial") && rendered.contains("reid-miller"));
    // Small and large jobs land in different bucket rows.
    let small_bucket =
        stats.dispatch_by_bucket.iter().find(|(hi, _)| *hi == 256).expect("bucket for n=200");
    assert!(small_bucket.1[serial_ix] >= 12);
    assert_eq!(small_bucket.1[rm_ix], 0);
    let large_bucket = stats
        .dispatch_by_bucket
        .iter()
        .find(|(hi, _)| *hi == (1 << 21))
        .expect("bucket for n=1.5M");
    assert!(large_bucket.1[rm_ix] >= 4);
    // Everything above was a ranking: the op matrix says exactly that.
    let (op, counts) = stats.dispatch_by_op.first().expect("one op row");
    assert_eq!(*op, OpKind::Rank);
    assert_eq!(counts.iter().sum::<u64>(), 16);
}

#[test]
fn small_jobs_get_batched() {
    let engine = Engine::new(
        EngineConfig::default().with_workers(1).with_queue_capacity(512).with_batching(4096, 64),
    );
    // Occupy the single worker so the small jobs pile up behind it.
    let big = Arc::new(gen::random_list(2_000_000, 3));
    let blocker = engine.submit(Request::rank(Arc::clone(&big))).unwrap();
    let small = Arc::new(gen::random_list(500, 4));
    let handles: Vec<_> =
        (0..100).map(|_| engine.submit(Request::rank(Arc::clone(&small))).unwrap()).collect();
    blocker.wait().expect("big job done");
    let mut batched_jobs = 0;
    for h in handles {
        if h.wait().expect("small job done").batched {
            batched_jobs += 1;
        }
    }
    let stats = engine.shutdown();
    assert!(stats.batches > 0, "expected at least one batch");
    assert!(batched_jobs > 0, "some jobs should report batched execution");
    assert!(stats.batched_jobs >= batched_jobs);
    // The scratch pool served repeat acquisitions.
    assert!(stats.pool.hits > 0, "pool should be re-serving scratches");
}

#[test]
fn malformed_specs_rejected_at_every_submit_path() {
    // Submit-time validation is centralized in the spec's `validate`
    // (exhaustive over request kinds): both the blocking and
    // non-blocking paths must reject a malformed request, and malformed
    // *successor arrays* cannot even reach a request — `LinkedList`
    // construction rejects them, so every request is structurally
    // sound.
    let engine = shared_engine();
    let list = Arc::new(gen::random_list(100, 1));
    let values = Arc::new(vec![0i64; 99]); // one short
    assert_eq!(
        engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&values), AddOp)).map(|h| h.id()),
        Err(engine::SubmitError::Invalid)
    );
    assert_eq!(
        engine.try_submit(Request::scan(Arc::clone(&list), values, AddOp)).map(|h| h.id()),
        Err(engine::SubmitError::Invalid)
    );
    // Segmented requests validate both arrays (and survive a
    // values/starts length mismatch without panicking in the builder).
    let good_vals = Arc::new(vec![1i64; 100]);
    let short_starts = Arc::new(vec![false; 40]);
    assert_eq!(
        engine
            .submit(Request::segmented_scan(
                Arc::clone(&list),
                Arc::clone(&good_vals),
                short_starts,
                AddOp
            ))
            .map(|h| h.id()),
        Err(engine::SubmitError::Invalid)
    );
    // Malformed successor arrays: a rho-shaped cycle, an out-of-range
    // link, and a two-tailed structure are all stopped at list
    // construction — no request can carry them.
    assert!(listkit::LinkedList::new(vec![1, 2, 0], 0).is_err(), "cycle");
    assert!(listkit::LinkedList::new(vec![1, 9, 2], 0).is_err(), "out of range");
    assert!(listkit::LinkedList::new(vec![0, 1], 0).is_err(), "two tails");
    let h = engine
        .submit(Request::scan(list, Arc::new(vec![0i64; 100]), AddOp))
        .expect("valid request accepted");
    h.wait().expect("valid job completes");
}

#[test]
fn rank_sharded_matches_serial_across_topologies() {
    // A tiny budget forces real sharding; parity must hold on the
    // sharding-friendly (blocked) and sharding-adversarial (random)
    // topologies, across sizes straddling the budget.
    let engine = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_inner_threads(2)
            .with_shard_budget(4096)
            .with_queue_capacity(64),
    );
    let mut handles = Vec::new();
    let mut expected = Vec::new();
    for n in [1usize, 100, 4096, 4097, 30_000, 100_000] {
        for (kind, list) in [
            ("random", gen::random_list(n, n as u64)),
            ("blocked", gen::list_with_layout(n, gen::Layout::Blocked(64), n as u64)),
        ] {
            expected.push((n, kind, listkit::serial::rank(&list)));
            handles.push(engine.submit(Request::rank(Arc::new(list)).sharded()).expect("submit"));
        }
    }
    for (h, (n, kind, want)) in handles.into_iter().zip(&expected) {
        let report = h.wait().expect("completes");
        assert_eq!(&report.output, want, "{kind} n={n}");
        if *n > 4096 {
            assert!(report.shards >= 2, "{kind} n={n} should shard, got {}", report.shards);
        } else {
            assert_eq!(report.shards, 0, "{kind} n={n} fits the budget");
        }
    }
    let stats = engine.shutdown();
    assert!(stats.sharded_jobs >= 6, "sharded jobs counted: {}", stats.sharded_jobs);
    assert!(stats.shards_ranked > stats.sharded_jobs, "multiple shards per sharded job");
    let rendered = format!("{stats}");
    assert!(rendered.contains("sharded:"), "stats surface the sharded line:\n{rendered}");
}

#[test]
fn scan_sharded_stitches_generic_ops() {
    // The sharded path is not rank-only: generic (and non-commutative)
    // scans route through the stitched shard-parallel path and agree
    // with the serial oracle.
    let engine = Engine::new(
        EngineConfig::default().with_workers(1).with_inner_threads(2).with_shard_budget(2048),
    );
    let n = 40_000;
    let list = Arc::new(gen::list_with_layout(n, gen::Layout::Blocked(64), 77));
    let i64s = values_for(n);
    let affs: Arc<Vec<Affine>> =
        Arc::new((0..n as i64).map(|i| Affine::new((i % 3) - 1, i % 5)).collect());
    let max = engine
        .submit(Request::scan(Arc::clone(&list), Arc::clone(&i64s), MaxOp).sharded())
        .unwrap();
    let aff = engine
        .submit(Request::scan(Arc::clone(&list), Arc::clone(&affs), AffineOp).sharded())
        .unwrap();
    let starts: Arc<Vec<bool>> = Arc::new((0..n).map(|v| v % 97 == 0).collect());
    let seg = engine
        .submit(
            Request::segmented_scan(
                Arc::clone(&list),
                Arc::clone(&i64s),
                Arc::clone(&starts),
                AddOp,
            )
            .sharded(),
        )
        .unwrap();
    let max_report = max.wait().expect("completes");
    assert!(max_report.shards >= 2, "budget 2048 must shard n=40k");
    assert_eq!(max_report.output, listkit::serial::scan(&list, &i64s, &MaxOp));
    let aff_report = aff.wait().expect("completes");
    assert!(aff_report.shards >= 2);
    assert_eq!(aff_report.output, listkit::serial::scan(&list, &affs, &AffineOp));
    let seg_report = seg.wait().expect("completes");
    assert!(seg_report.shards >= 2, "segmented requests shard too");
    assert_eq!(seg_report.output, segmented::serial_segmented_scan(&list, &i64s, &starts, &AddOp));
    engine.shutdown();
}

#[test]
fn rank_sharded_pinned_algorithm_forces_monolithic() {
    let engine = Engine::new(
        EngineConfig::default().with_workers(1).with_inner_threads(2).with_shard_budget(1000),
    );
    let list = Arc::new(gen::random_list(50_000, 21));
    let opts =
        JobOptions { seed: 0x1994, algorithm: Some(Algorithm::ReidMiller), ..Default::default() };
    let h = engine.submit_with(Request::rank(Arc::clone(&list)).sharded(), opts).unwrap();
    let report = h.wait().expect("completes");
    assert_eq!(report.shards, 0, "pinning selects the monolithic backend");
    assert_eq!(report.algorithm, Algorithm::ReidMiller);
    assert_eq!(report.output, HostRunner::new(Algorithm::ReidMiller).with_seed(0x1994).rank(&list));
    engine.shutdown();
}

/// Rank one blocked-layout list `jobs` times through the sharded path,
/// then `jobs` times monolithically: every output must equal the serial
/// oracle, only the sharded pass may shard, and every sharded job must
/// time its stitch.
fn sharded_and_monolithic_agree(engine: Engine, n: usize, block: usize, jobs: usize) {
    let list = Arc::new(gen::list_with_layout(n, gen::Layout::Blocked(block), 0xC90));
    let expected = listkit::serial::rank(&list);
    for sharded in [true, false] {
        let handles: Vec<_> = (0..jobs)
            .map(|_| Request::rank(Arc::clone(&list)))
            .map(|r| engine.submit(if sharded { r.sharded() } else { r }).expect("submit"))
            .collect();
        for h in handles {
            let report = h.wait().expect("job completes");
            assert!(report.output == expected, "sharded = {sharded}: ranks diverged");
            assert_eq!(report.shards > 0, sharded, "{} shards", report.shards);
        }
    }
    let stats = engine.shutdown();
    assert_eq!(stats.sharded_jobs, jobs as u64);
    assert!(stats.stitch_ns > 0, "stitch time is measured");
}

#[test]
fn sharded_scenario_passes_agree() {
    // One worker, so each job gets the whole thread budget, and a shard
    // budget well below the list: 2·10^6 vertices in 512-vertex blocks.
    let engine = Engine::new(EngineConfig::default().with_workers(1).with_shard_budget(250_000));
    sharded_and_monolithic_agree(engine, 2_000_000, 512, 2);
}

#[test]
#[ignore = "2^24 vertices: run by the nightly --include-ignored pass"]
fn sharded_scenario_passes_agree_at_2_24_vertices() {
    // The huge-list shape at the default shard budget (2^21 vertices).
    let engine = Engine::new(EngineConfig::default().with_workers(1));
    sharded_and_monolithic_agree(engine, 1 << 24, 4096, 2);
}

#[test]
fn cancellation_before_execution() {
    let engine = Engine::new(EngineConfig::default().with_workers(1));
    // Worker is busy with this one...
    let big = Arc::new(gen::random_list(2_000_000, 5));
    let blocker = engine.submit(Request::rank(big)).unwrap();
    // ...so this one is still queued and can be cancelled.
    let victim_list = Arc::new(gen::random_list(10_000, 6));
    let victim = engine.submit(Request::rank(victim_list)).unwrap();
    assert!(victim.cancel(), "queued job should cancel");
    assert_eq!(victim.wait().map(|r| r.id).unwrap_err(), JobError::Cancelled);
    blocker.wait().expect("big job completes");
    let stats = engine.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn backpressure_rejects_when_full() {
    let engine = Engine::new(EngineConfig::default().with_workers(1).with_queue_capacity(2));
    let big = Arc::new(gen::random_list(3_000_000, 9));
    let small = Arc::new(gen::random_list(100, 10));
    // Occupy the worker, then fill the queue.
    let mut handles = vec![engine.submit(Request::rank(big)).unwrap()];
    let mut rejected = 0;
    for _ in 0..64 {
        match engine.try_submit(Request::rank(Arc::clone(&small))) {
            Ok(h) => handles.push(h),
            Err(engine::SubmitError::Full) => rejected += 1,
            Err(e) => panic!("unexpected submit error {e:?}"),
        }
    }
    assert!(rejected > 0, "a 2-deep queue must reject some of 64 instant submits");
    for h in handles {
        h.wait().expect("accepted jobs complete");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.rejected_full, rejected);
}

/// One list with every payload a job over it may scan.
struct Inputs {
    list: Arc<LinkedList>,
    i64s: Arc<Vec<i64>>,
    u64s: Arc<Vec<u64>>,
    affines: Arc<Vec<Affine>>,
    starts: Arc<Vec<bool>>,
}

impl Inputs {
    fn new(n: usize, seed: u64) -> Arc<Self> {
        Arc::new(Inputs {
            list: Arc::new(gen::random_list(n, seed)),
            i64s: values_for(n),
            u64s: Arc::new(
                (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i).collect(),
            ),
            affines: Arc::new(
                (0..n as i64).map(|i| Affine::new((i % 5) - 2, (i % 7) - 3)).collect(),
            ),
            starts: Arc::new((0..n).map(|v| v % 64 == 0).collect()),
        })
    }
}

/// A job: the inputs it reads and what it computes over them.
type Job = (Arc<Inputs>, OpKind);

/// A job's output, whatever its element type.
#[derive(PartialEq)]
enum Output {
    U64(Vec<u64>),
    I64(Vec<i64>),
    Affine(Vec<Affine>),
}

/// A submitted job: waiting on it yields its output.
type Pending = Box<dyn FnOnce() -> Output>;

/// A mixed batch over lists of 10^2 to 10^5 vertices. Decade `e` gets
/// `elems_per_decade / 10^e` jobs (1 to `max_jobs` of them) over two
/// lists; every fourth job is a scan, rotating through the six scan
/// kinds, and submission takes the decades round-robin.
fn mixed_jobs(elems_per_decade: usize, max_jobs: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    for e in 2..=5u32 {
        let base = 10usize.pow(e);
        let lists = [Inputs::new(base, e as u64), Inputs::new(base * 17 / 10, e as u64 + 100)];
        for j in 0..(elems_per_decade / base).clamp(1, max_jobs) {
            let kind = if j % 4 == 1 { OpKind::ALL[1 + j / 4 % 6] } else { OpKind::Rank };
            jobs.push((j, (Arc::clone(&lists[j % 2]), kind)));
        }
    }
    jobs.sort_by_key(|&(j, _)| j);
    jobs.into_iter().map(|(_, job)| job).collect()
}

/// Submit one job; waiting on it also checks the report's op kind.
fn submit(engine: &Engine, (inputs, kind): &Job) -> Pending {
    fn go<R: Send + 'static>(
        engine: &Engine,
        kind: OpKind,
        request: Request<R>,
        out: fn(R) -> Output,
    ) -> Pending {
        let handle = engine.submit(request).expect("engine accepts the job");
        Box::new(move || {
            let report = handle.wait().expect("job completes");
            assert_eq!(report.op, kind);
            out(report.output)
        })
    }
    let (list, i64s, kind) = (Arc::clone(&inputs.list), Arc::clone(&inputs.i64s), *kind);
    match kind {
        OpKind::Rank => go(engine, kind, Request::rank(list), Output::U64),
        OpKind::Add => go(engine, kind, Request::scan(list, i64s, AddOp), Output::I64),
        OpKind::Max => go(engine, kind, Request::scan(list, i64s, MaxOp), Output::I64),
        OpKind::Min => go(engine, kind, Request::scan(list, i64s, MinOp), Output::I64),
        OpKind::Xor => {
            go(engine, kind, Request::scan(list, Arc::clone(&inputs.u64s), XorOp), Output::U64)
        }
        OpKind::Affine => {
            let affines = Arc::clone(&inputs.affines);
            go(engine, kind, Request::scan(list, affines, AffineOp), Output::Affine)
        }
        OpKind::Segmented => {
            let starts = Arc::clone(&inputs.starts);
            go(engine, kind, Request::segmented_scan(list, i64s, starts, AddOp), Output::I64)
        }
        OpKind::Other => unreachable!("mixed batches use the built-in operators"),
    }
}

/// Submit every job, then wait for them all in order.
fn run_engine(engine: &Engine, jobs: &[Job]) -> Vec<Output> {
    let pending: Vec<Pending> = jobs.iter().map(|job| submit(engine, job)).collect();
    pending.into_iter().map(|wait| wait()).collect()
}

/// One job solved directly on `runner`, with fresh allocations.
fn solve(runner: &HostRunner, (inputs, kind): &Job) -> Output {
    let (list, i64s) = (&inputs.list, &inputs.i64s);
    match kind {
        OpKind::Rank => Output::U64(runner.rank(list)),
        OpKind::Add => Output::I64(runner.scan(list, i64s, &AddOp)),
        OpKind::Max => Output::I64(runner.scan(list, i64s, &MaxOp)),
        OpKind::Min => Output::I64(runner.scan(list, i64s, &MinOp)),
        OpKind::Xor => Output::U64(runner.scan(list, &inputs.u64s, &XorOp)),
        OpKind::Affine => Output::Affine(runner.scan(list, &inputs.affines, &AffineOp)),
        OpKind::Segmented => {
            let wrapped = segmented::wrap(i64s, &inputs.starts);
            let scanned = runner.scan(list, &wrapped, &SegOp(AddOp));
            Output::I64(segmented::unwrap_exclusive(&scanned, &inputs.starts, &AddOp))
        }
        OpKind::Other => unreachable!("mixed batches use the built-in operators"),
    }
}

/// Every output must be byte-equal to the sequential solve of its job.
fn assert_parity(jobs: &[Job], got: &[Output], want: &[Output], pass: &str) {
    assert_eq!(got.len(), jobs.len(), "{pass}: job count");
    for (i, ((inputs, kind), (got, want))) in jobs.iter().zip(got.iter().zip(want)).enumerate() {
        assert!(got == want, "{pass}: job {i} ({kind:?}, n = {}) diverged", inputs.list.len());
    }
}

#[test]
fn mixed_batch_fills_the_stats_surface() {
    // Every job kind over three decades of sizes, on a planner that
    // gives each job four threads: lists at or below the serial cutoff
    // run Serial, the 10^5 decade Reid-Miller. The stats report must
    // count every job and fill the exec phase row.
    let jobs = mixed_jobs(200_000, 300);
    let engine = Engine::new(EngineConfig::default().with_inner_threads(4));
    let outputs = run_engine(&engine, &jobs);
    let serial = HostRunner::new(Algorithm::Serial);
    let expected: Vec<Output> = jobs.iter().map(|job| solve(&serial, job)).collect();
    assert_parity(&jobs, &outputs, &expected, "four threads");

    let stats = engine.stats();
    let report = stats.to_string();
    assert!(report.starts_with(&format!("jobs: {} completed", jobs.len())), "{report}");
    let exec_row = report.lines().find_map(|line| line.trim_start().strip_prefix("exec "));
    let samples = exec_row.and_then(|row| row.split_whitespace().next()?.parse::<u64>().ok());
    assert!(samples.is_some_and(|c| c > 0), "exec row in\n{report}");
    let dispatched = |alg| stats.dispatch[Algorithm::ALL.iter().position(|&a| a == alg).unwrap()];
    assert!(dispatched(Algorithm::Serial) > 0, "no Serial dispatch in\n{report}");
    assert!(dispatched(Algorithm::ReidMiller) > 0, "no Reid-Miller dispatch in\n{report}");
    engine.shutdown();
}

#[test]
fn engine_beats_naive_sequential_baseline() {
    // The naive baseline: each job in order through a one-shot
    // fixed-algorithm HostRunner with fresh allocations. Sizes span
    // three decades so both planner regimes engage, and every operator
    // is in the mix.
    let jobs = mixed_jobs(300_000, 500);
    let elements: usize = jobs.iter().map(|(inputs, _)| inputs.list.len()).sum();
    let engine = Engine::with_defaults();
    // Warm pass (planner measurements, pool population), then the
    // measured pass — mirroring a server's steady state.
    let warm = run_engine(&engine, &jobs);
    let t0 = Instant::now();
    let measured = run_engine(&engine, &jobs);
    let engine_rate = elements as f64 / t0.elapsed().as_secs_f64();
    engine.shutdown();
    let runner = HostRunner::new(Algorithm::ReidMiller);
    let t0 = Instant::now();
    let expected: Vec<Output> = jobs.iter().map(|job| solve(&runner, job)).collect();
    let baseline_rate = elements as f64 / t0.elapsed().as_secs_f64();
    assert_parity(&jobs, &warm, &expected, "default config, warm pass");
    assert_parity(&jobs, &measured, &expected, "default config, measured pass");
    assert!(
        engine_rate >= baseline_rate * 0.9,
        "engine ({:.1} Melem/s) should at least match the naive baseline ({:.1} Melem/s)",
        engine_rate / 1e6,
        baseline_rate / 1e6
    );
    // Parity holds on a two-thread budget too.
    let engine = Engine::new(EngineConfig::default().with_inner_threads(2));
    assert_parity(&jobs, &run_engine(&engine, &jobs), &expected, "two threads");
    engine.shutdown();
}

#[test]
fn lane_stats_and_model_lanes_flow_through_the_engine() {
    // Reid-Miller runs at the cost model's lane count, so it must (a)
    // produce byte-identical results to a direct HostRunner call at
    // `default_lanes(n)`, and (b) surface lane occupancy in the stats.
    let engine = Engine::new(EngineConfig::default().with_workers(1).with_inner_threads(2));
    let list = Arc::new(gen::random_list(200_000, 0xAB));
    let opts =
        JobOptions { seed: 0x1994, algorithm: Some(Algorithm::ReidMiller), ..Default::default() };
    let report = engine
        .submit_with(Request::rank(Arc::clone(&list)), opts)
        .expect("submit")
        .wait()
        .expect("job completes");
    let lanes = rankmodel::predict::default_lanes(200_000);
    assert_eq!(
        report.output,
        HostRunner::new(Algorithm::ReidMiller).with_seed(0x1994).with_lanes(lanes).rank(&list),
        "engine must match the runner at the model's lane count byte for byte"
    );
    let stats = engine.shutdown();
    assert!(stats.lane_steps >= 2 * 200_000, "phases 1+3 both walk: {}", stats.lane_steps);
    let occ = stats.lane_occupancy();
    assert!(occ > 0.0 && occ <= 1.0, "occupancy in (0, 1]: {occ}");
}

/// Run one Reid-Miller rank of a 2^16-vertex list on `engine` and check
/// it against the serial oracle; returns the batch's thread grant.
fn lone_reid_miller_grant(engine: &Engine, seed: u64) -> usize {
    let list = Arc::new(gen::random_list(1 << 16, seed));
    let opts = JobOptions { seed, algorithm: Some(Algorithm::ReidMiller), ..Default::default() };
    let report = engine
        .submit_with(Request::rank(Arc::clone(&list)), opts)
        .expect("submit")
        .wait()
        .expect("job completes");
    assert_eq!(report.algorithm, Algorithm::ReidMiller);
    assert_eq!(report.output, listkit::serial::rank(&list), "parity at {} threads", report.threads);
    report.threads
}

#[test]
fn a_lone_job_gets_the_whole_thread_budget() {
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    assert_eq!(EngineConfig::default().inner_threads, avail, "the default budget is every core");
    let engine = Engine::new(EngineConfig::default().with_workers(2).with_inner_threads(2));
    assert_eq!(lone_reid_miller_grant(&engine, 0x10E), 2, "a lone job is granted the budget");
    engine.shutdown();
    let engine = Engine::new(EngineConfig::default().with_workers(2).with_inner_threads(1));
    assert_eq!(lone_reid_miller_grant(&engine, 0x10F), 1, "a budget of 1 grants 1");
    engine.shutdown();
}

#[test]
fn a_worker_panic_frees_its_busy_slot() {
    // Every batch ends in an injected worker panic while it still holds
    // its grant. Each job is submitted only after the previous worker
    // has unwound and respawned, so it is alone: if an unwind leaked
    // its busy slot, the next lone job would be granted 1 thread.
    let fault = Arc::new(engine::FaultPlane::new(engine::FaultConfig {
        worker_panic: 1.0,
        ..engine::FaultConfig::default()
    }));
    let engine = Engine::new(
        EngineConfig::default().with_workers(2).with_inner_threads(2).with_fault(fault),
    );
    for i in 1..=5u64 {
        assert_eq!(lone_reid_miller_grant(&engine, 0x9A1 ^ i), 2, "lone job {i}");
        let t0 = std::time::Instant::now();
        while engine.stats().workers_respawned < i {
            assert!(t0.elapsed().as_secs() < 30, "worker {i} never respawned");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    assert!(engine.shutdown().workers_respawned >= 5);
}
