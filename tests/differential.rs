//! Differential-oracle harness: adversarial list topologies, ranked by
//! every `Algorithm::ALL` host backend *and* the shard-parallel path,
//! asserted byte-identical to the `listkit::serial` oracle — under
//! fixed seeds, so a failure replays exactly.
//!
//! Topology zoo (each is adversarial for a different implementation
//! detail):
//!
//! * **single chain** (sequential layout) — fragments never break, the
//!   degenerate best case for sharding;
//! * **reversed** — tests that nothing confuses index order with list
//!   order;
//! * **all-singleton fragments** (stride ≥ shard size) — every vertex
//!   exits its shard immediately: the contracted boundary list is as
//!   long as the input;
//! * **random permutation** — the paper's workload and the
//!   shard-boundary-heavy case;
//! * **tiny blocks** — fragment boundaries land just past every block;
//! * sizes 0 / 1 / 2 / odd / pow2 ± 1 — off-by-one soup around every
//!   cutoff in the stack.

use engine::{Engine, EngineConfig, JobOptions, Request};
use listkit::gen::{self, Layout};
use listkit::sharded::ShardedList;
use listkit::LinkedList;
use listrank::host::rank_sharded;
use listrank::{Algorithm, HostRunner};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Fixed master seed: every generated list below is a deterministic
/// function of it, the size and the topology tag.
const SEED: u64 = 0xD1FF_0C90;

/// The adversarial sizes: degenerate, odd, and power-of-two straddles
/// around the serial/batching/sharding cutoffs used in the tests.
const SIZES: [usize; 11] = [1, 2, 3, 5, 127, 128, 129, 1023, 1024, 1025, 20_000];

fn coprime_stride(n: usize, at_least: usize) -> usize {
    let mut s = at_least.max(2).min(n.saturating_sub(1).max(1));
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    while gcd(s, n) != 1 {
        s += 1;
    }
    s
}

/// Every topology in the zoo at size `n` (skipping the ones a given
/// `n` cannot express, e.g. strides on lists of ≤ 2 vertices).
fn topologies(n: usize) -> Vec<(String, LinkedList)> {
    let seed = SEED ^ (n as u64).wrapping_mul(0x9e37_79b9);
    let mut out = vec![
        ("single-chain".to_string(), gen::sequential_list(n)),
        ("reversed".to_string(), gen::list_with_layout(n, Layout::Reversed, seed)),
        ("random".to_string(), gen::list_with_layout(n, Layout::Random, seed)),
        ("tiny-blocks".to_string(), gen::list_with_layout(n, Layout::Blocked(3), seed)),
    ];
    if n > 2 {
        // Stride past the shard size used below: every fragment is a
        // singleton, the worst case for the boundary table.
        let stride = coprime_stride(n, 70);
        if stride < n {
            out.push((
                format!("stride-{stride}"),
                gen::list_with_layout(n, Layout::Strided(stride), seed),
            ));
        }
    }
    out
}

#[test]
fn empty_lists_cannot_exist() {
    // Size 0 has no oracle: the representation rejects it everywhere,
    // so no backend can be handed an empty list in the first place.
    assert!(LinkedList::new(vec![], 0).is_err());
    assert!(LinkedList::from_order(&[]).is_err());
}

#[test]
fn every_backend_matches_serial_on_every_topology() {
    for n in SIZES {
        for (name, list) in topologies(n) {
            let oracle = listkit::serial::rank(&list);
            for alg in Algorithm::ALL {
                let got = HostRunner::new(alg).with_seed(SEED ^ n as u64).rank(&list);
                assert_eq!(got, oracle, "{alg} diverged on {name} n={n}");
            }
        }
    }
}

#[test]
fn sharded_path_matches_serial_on_every_topology() {
    for n in SIZES {
        for (name, list) in topologies(n) {
            let oracle = listkit::serial::rank(&list);
            // Shard sizes below, at, and above the boundary-heavy
            // stride, plus the degenerate one-vertex-per-shard split.
            for shard_size in [1usize, 7, 64, 4096] {
                let sharded = ShardedList::build(&list, shard_size);
                assert_eq!(
                    sharded.rank(),
                    oracle,
                    "substrate sharded rank diverged on {name} n={n} shard={shard_size}"
                );
                let (got, report) = rank_sharded(&list, shard_size, SEED ^ n as u64);
                assert_eq!(
                    got, oracle,
                    "dispatched sharded rank diverged on {name} n={n} shard={shard_size}"
                );
                assert_eq!(report.shards, n.div_ceil(shard_size));
                // The boundary table always partitions the vertices.
                let covered: u64 = sharded.boundary().lens().iter().map(|&l| l as u64).sum();
                assert_eq!(covered, n as u64);
            }
        }
    }
}

/// The shard budget of [`engine_sharded_jobs_match_serial_on_every_topology`].
const SHARD_BUDGET: usize = 512;

/// Submit `req` through the sharded path; the returned check waits for
/// it, byte-compares it with `oracle` and asserts that it sharded
/// exactly when it exceeds [`SHARD_BUDGET`].
fn submit_sharded<T: PartialEq + Send + 'static>(
    engine: &Engine,
    req: Request<Vec<T>>,
    opts: JobOptions,
    oracle: Vec<T>,
    what: String,
) -> Box<dyn FnOnce()> {
    let n = req.len();
    let handle = engine.submit_with(req.sharded(), opts).expect("submit");
    Box::new(move || {
        let report = handle.wait().expect("job completes");
        assert!(report.output == oracle, "engine sharded {what} diverged");
        assert_eq!(report.shards > 0, n > SHARD_BUDGET, "budget decides sharding for {what}");
    })
}

#[test]
fn engine_sharded_jobs_match_serial_on_every_topology() {
    // The same zoo through the engine's sharded path — a rank, a
    // non-commutative affine scan and a segmented add scan per list —
    // with a budget small enough that the larger sizes genuinely shard.
    // One engine serves every job (exactly the serving-system
    // configuration).
    use listkit::ops::{AddOp, Affine, AffineOp};
    use listkit::segmented::serial_segmented_scan;
    let engine = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_inner_threads(2)
            .with_shard_budget(SHARD_BUDGET)
            .with_queue_capacity(128),
    );
    let mut checks = Vec::new();
    for n in SIZES {
        for (name, list) in topologies(n) {
            let list = Arc::new(list);
            let opts = JobOptions { seed: SEED ^ n as u64, algorithm: None, ..Default::default() };
            let what = |kind: &str| format!("{kind} on {name} n={n}");
            let affs: Arc<Vec<Affine>> =
                Arc::new((0..n as i64).map(|i| Affine::new((i % 5) - 2, (i % 11) - 5)).collect());
            let i64s: Arc<Vec<i64>> = Arc::new((0..n as i64).map(|i| i * 3 - 7).collect());
            let starts: Arc<Vec<bool>> = Arc::new((0..n).map(|v| v % 13 == 0).collect());
            let rank = Request::rank(Arc::clone(&list));
            let oracle = listkit::serial::rank(&list);
            checks.push(submit_sharded(&engine, rank, opts, oracle, what("rank")));
            let affine = Request::scan(Arc::clone(&list), Arc::clone(&affs), AffineOp);
            let oracle = listkit::serial::scan(&list, &affs, &AffineOp);
            checks.push(submit_sharded(&engine, affine, opts, oracle, what("affine")));
            let seg = Request::segmented_scan(
                Arc::clone(&list),
                Arc::clone(&i64s),
                Arc::clone(&starts),
                AddOp,
            );
            let oracle = serial_segmented_scan(&list, &i64s, &starts, &AddOp);
            checks.push(submit_sharded(&engine, seg, opts, oracle, what("segmented add")));
        }
    }
    checks.into_iter().for_each(|check| check());
    let stats = engine.shutdown();
    assert!(stats.sharded_jobs > 0, "the zoo exercised the sharded path");
}

#[test]
fn scan_backends_match_serial_oracle() {
    // The differential net over the scan entry points (the engine's
    // other job kind), with a value pattern that detects misalignment.
    use listkit::ops::AddOp;
    for n in [1usize, 2, 129, 1025] {
        for (name, list) in topologies(n) {
            let values: Vec<i64> = (0..n as i64).map(|i| i * 3 - 7).collect();
            let oracle = listkit::serial::scan(&list, &values, &AddOp);
            for alg in Algorithm::ALL {
                let got =
                    HostRunner::new(alg).with_seed(SEED ^ n as u64).scan(&list, &values, &AddOp);
                assert_eq!(got, oracle, "{alg} scan diverged on {name} n={n}");
            }
        }
    }
}

/// One engine serves every generic-op differential job below (the
/// serving-system configuration: histories accumulate across cases).
fn ops_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Engine::new(EngineConfig::default().with_workers(2).with_queue_capacity(256))
    })
}

/// Route every operator through the engine's typed API over `list` and
/// byte-compare with the `listkit::serial` oracle. `seed` perturbs the
/// value patterns so proptest explores the payload space too.
fn check_all_ops_against_serial(name: &str, list: LinkedList, seed: u64) {
    use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, MinOp, XorOp};
    use listkit::segmented;
    let n = list.len();
    let engine = ops_engine();
    let list = Arc::new(list);
    let s = seed as i64 | 1;
    let i64s: Arc<Vec<i64>> =
        Arc::new((0..n as i64).map(|i| (i.wrapping_mul(s) % 37) - 18).collect());
    let u64s: Arc<Vec<u64>> =
        Arc::new((0..n as u64).map(|i| i.wrapping_mul(seed | 1) ^ (i << 7)).collect());
    // Affine is the non-commutative ordering trap: coefficients vary by
    // vertex so any operand swap or fragment reorder shows up.
    let affs: Arc<Vec<Affine>> = Arc::new(
        (0..n as i64).map(|i| Affine::new((i.wrapping_add(s) % 5) - 2, (i % 11) - 5)).collect(),
    );
    let starts: Arc<Vec<bool>> =
        Arc::new((0..n as u64).map(|v| v.wrapping_mul(seed | 1) % 17 == 0).collect());

    let add = engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&i64s), AddOp)).unwrap();
    let max = engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&i64s), MaxOp)).unwrap();
    let min = engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&i64s), MinOp)).unwrap();
    let xor = engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&u64s), XorOp)).unwrap();
    let aff = engine.submit(Request::scan(Arc::clone(&list), Arc::clone(&affs), AffineOp)).unwrap();
    let seg = engine
        .submit(Request::segmented_scan(
            Arc::clone(&list),
            Arc::clone(&i64s),
            Arc::clone(&starts),
            AddOp,
        ))
        .unwrap();

    assert_eq!(
        add.wait().unwrap().output,
        listkit::serial::scan(&list, &i64s, &AddOp),
        "add diverged on {name} n={n}"
    );
    assert_eq!(
        max.wait().unwrap().output,
        listkit::serial::scan(&list, &i64s, &MaxOp),
        "max diverged on {name} n={n}"
    );
    assert_eq!(
        min.wait().unwrap().output,
        listkit::serial::scan(&list, &i64s, &MinOp),
        "min diverged on {name} n={n}"
    );
    assert_eq!(
        xor.wait().unwrap().output,
        listkit::serial::scan(&list, &u64s, &XorOp),
        "xor diverged on {name} n={n}"
    );
    assert_eq!(
        aff.wait().unwrap().output,
        listkit::serial::scan(&list, &affs, &AffineOp),
        "affine diverged on {name} n={n}"
    );
    assert_eq!(
        seg.wait().unwrap().output,
        segmented::serial_segmented_scan(&list, &i64s, &starts, &AddOp),
        "segmented diverged on {name} n={n}"
    );
}

#[test]
fn every_op_through_engine_matches_serial_on_every_topology() {
    // The whole zoo, every operator (including the segmented and the
    // non-commutative cases), through one adaptive engine.
    for n in [1usize, 2, 129, 1025, 20_000] {
        for (name, list) in topologies(n) {
            check_all_ops_against_serial(&name, list, SEED ^ n as u64);
        }
    }
}

#[test]
fn jobs_under_mixed_thread_grants_match_serial() {
    // Two workers share a budget of 2 threads, so each Reid-Miller job
    // runs at 2 threads when it is alone and at 1 while the other worker
    // is busy. Two submitters keep both cases coming; every output must
    // still be byte-identical to the serial oracle. Which grant a job
    // gets is a race, so the mix is printed, not asserted.
    use listkit::ops::{AddOp, Affine, AffineOp};
    let engine = Engine::new(EngineConfig::default().with_workers(2).with_inner_threads(2));
    let grants: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..2u64)
            .map(|t| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut grants = Vec::new();
                    for k in 0..3u64 {
                        let seed = SEED ^ (t << 8 | k);
                        let n = (1 << 16) + (seed.wrapping_mul(0x9e37_79b9) % (3 << 16)) as usize;
                        let list = Arc::new(gen::list_with_layout(n, Layout::Random, seed));
                        let i64s: Arc<Vec<i64>> =
                            Arc::new((0..n as i64).map(|i| (i % 37) - 18).collect());
                        let affs: Arc<Vec<Affine>> = Arc::new(
                            (0..n as i64).map(|i| Affine::new((i % 5) - 2, (i % 11) - 5)).collect(),
                        );
                        let opts = JobOptions {
                            seed,
                            algorithm: Some(Algorithm::ReidMiller),
                            ..Default::default()
                        };
                        let rank =
                            engine.submit_with(Request::rank(Arc::clone(&list)), opts).unwrap();
                        let add = engine
                            .submit_with(
                                Request::scan(Arc::clone(&list), Arc::clone(&i64s), AddOp),
                                opts,
                            )
                            .unwrap();
                        let aff = engine
                            .submit_with(
                                Request::scan(Arc::clone(&list), Arc::clone(&affs), AffineOp),
                                opts,
                            )
                            .unwrap();
                        let rank = rank.wait().unwrap();
                        assert_eq!(rank.output, listkit::serial::rank(&list), "rank n={n}");
                        let add = add.wait().unwrap();
                        assert_eq!(
                            add.output,
                            listkit::serial::scan(&list, &i64s, &AddOp),
                            "add n={n}"
                        );
                        let aff = aff.wait().unwrap();
                        assert_eq!(
                            aff.output,
                            listkit::serial::scan(&list, &affs, &AffineOp),
                            "affine n={n}"
                        );
                        grants.extend([rank.threads, add.threads, aff.threads]);
                    }
                    grants
                })
            })
            .collect();
        submitters.into_iter().map(|s| s.join().expect("submitter")).collect()
    });
    println!("thread grants per submitter: {grants:?}");
    assert!(grants.iter().flatten().all(|&t| t == 1 || t == 2), "grants within the budget");
    engine.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential-oracle property: for *any* size, topology and
    /// value seed, every operator routed through the engine is
    /// byte-identical to `listkit::serial::scan`.
    #[test]
    fn engine_ops_differential(n in 1usize..3000, topo in 0usize..5, seed in any::<u64>()) {
        let zoo = topologies(n);
        let (name, list) = zoo[topo % zoo.len()].clone();
        check_all_ops_against_serial(&name, list, seed);
    }
}

/// Every topology generator really is a permutation of `0..n` — the
/// oracle itself is only meaningful if the inputs are valid lists.
#[test]
fn topology_zoo_is_structurally_valid() {
    for n in SIZES {
        for (name, list) in topologies(n) {
            assert_eq!(list.len(), n, "{name}");
            let mut order = list.order();
            order.sort_unstable();
            assert!(
                order.iter().enumerate().all(|(i, &v)| v as usize == i),
                "{name} n={n} is not a permutation"
            );
        }
    }
}

#[test]
fn resident_dataset_rank_matches_serial_on_every_topology() {
    // The handle path's engine half: datasets resident in a
    // `DatasetStore`, ranked through the prebuilt-artifact fast path
    // (`Request::with_artifacts`), byte-compared with the serial
    // oracle. Each dataset is ranked twice so both halves of the
    // artifact cache — the build and the reuse — face the zoo, then a
    // third time after a length-changing MUTATE, which must rank the
    // maintained artifact of the post-mutation list.
    use engine::{DatasetStore, Planner};
    use listkit::dynamic::Edit;
    let engine = Engine::new(
        EngineConfig::default().with_workers(2).with_shard_budget(512).with_queue_capacity(128),
    );
    let planner = Planner::new(2);
    let store = Arc::new(DatasetStore::new(1 << 30));
    for n in [127usize, 1025, 20_000] {
        for (name, list) in topologies(n) {
            let receipt = store.put(1, Arc::new(list)).expect("put fits the budget");
            let entry = store.get(receipt.handle, 1).expect("resident");
            for pass in 0..3 {
                if pass == 2 {
                    let append = [Edit::Append { count: 3 }];
                    engine::dynamic::mutate(&store, &planner, receipt.handle, 1, &append)
                        .expect("append");
                }
                let list = entry.list();
                let req =
                    Request::rank(Arc::clone(&list)).sharded().with_artifacts(entry.artifacts());
                let opts =
                    JobOptions { seed: SEED ^ n as u64, algorithm: None, ..Default::default() };
                let report = engine.submit_with(req, opts).expect("submit").wait().expect("job");
                assert_eq!(
                    report.output,
                    listkit::serial::rank(&list),
                    "prebuilt rank diverged on {name} n={n} pass={pass}"
                );
            }
            store.drop_dataset(receipt.handle, 1).expect("drop");
        }
    }
    let st = store.stats();
    assert!(st.artifacts_built > 0, "large zoo members built sharded artifacts");
    assert!(st.artifacts_reused > 0, "second passes reused cached artifacts");
    engine.shutdown();
}

#[test]
fn resident_dataset_ops_match_serial_on_every_topology() {
    // Every operator (add/max/min/xor/affine/segmented) over a
    // *resident* dataset, prebuilt artifacts attached, vs the same op
    // submitted inline over the identical list — both must equal the
    // serial oracle, so the handle data plane can never drift from the
    // inline one.
    use engine::DatasetStore;
    use listkit::ops::{AddOp, AffineOp, MaxOp, MinOp, XorOp};
    use listkit::segmented;
    let engine = ops_engine();
    let store = Arc::new(DatasetStore::new(1 << 30));
    for n in [2usize, 129, 1025] {
        for (name, list) in topologies(n) {
            let receipt = store.put(7, Arc::new(list)).expect("put fits");
            let entry = store.get(receipt.handle, 7).expect("resident");
            let list = entry.list();
            let seed = SEED ^ n as u64;
            let s = seed as i64 | 1;
            let i64s: Arc<Vec<i64>> =
                Arc::new((0..n as i64).map(|i| (i.wrapping_mul(s) % 37) - 18).collect());
            let u64s: Arc<Vec<u64>> =
                Arc::new((0..n as u64).map(|i| i.wrapping_mul(seed | 1) ^ (i << 7)).collect());
            let affs: Arc<Vec<listkit::ops::Affine>> = Arc::new(
                (0..n as i64)
                    .map(|i| listkit::ops::Affine::new((i.wrapping_add(s) % 5) - 2, (i % 11) - 5))
                    .collect(),
            );
            let starts: Arc<Vec<bool>> =
                Arc::new((0..n as u64).map(|v| v.wrapping_mul(seed | 1) % 17 == 0).collect());

            let rank = Request::rank(Arc::clone(&list)).with_artifacts(entry.artifacts());
            let add = Request::scan(Arc::clone(&list), Arc::clone(&i64s), AddOp)
                .with_artifacts(entry.artifacts());
            let max = Request::scan(Arc::clone(&list), Arc::clone(&i64s), MaxOp)
                .with_artifacts(entry.artifacts());
            let min = Request::scan(Arc::clone(&list), Arc::clone(&i64s), MinOp)
                .with_artifacts(entry.artifacts());
            let xor = Request::scan(Arc::clone(&list), Arc::clone(&u64s), XorOp)
                .with_artifacts(entry.artifacts());
            let aff = Request::scan(Arc::clone(&list), Arc::clone(&affs), AffineOp)
                .with_artifacts(entry.artifacts());
            let seg = Request::segmented_scan(
                Arc::clone(&list),
                Arc::clone(&i64s),
                Arc::clone(&starts),
                AddOp,
            )
            .with_artifacts(entry.artifacts());

            let rank = engine.submit(rank).unwrap();
            let add = engine.submit(add).unwrap();
            let max = engine.submit(max).unwrap();
            let min = engine.submit(min).unwrap();
            let xor = engine.submit(xor).unwrap();
            let aff = engine.submit(aff).unwrap();
            let seg = engine.submit(seg).unwrap();

            assert_eq!(
                rank.wait().unwrap().output,
                listkit::serial::rank(&list),
                "resident rank diverged on {name} n={n}"
            );
            assert_eq!(
                add.wait().unwrap().output,
                listkit::serial::scan(&list, &i64s, &AddOp),
                "resident add diverged on {name} n={n}"
            );
            assert_eq!(
                max.wait().unwrap().output,
                listkit::serial::scan(&list, &i64s, &MaxOp),
                "resident max diverged on {name} n={n}"
            );
            assert_eq!(
                min.wait().unwrap().output,
                listkit::serial::scan(&list, &i64s, &MinOp),
                "resident min diverged on {name} n={n}"
            );
            assert_eq!(
                xor.wait().unwrap().output,
                listkit::serial::scan(&list, &u64s, &XorOp),
                "resident xor diverged on {name} n={n}"
            );
            assert_eq!(
                aff.wait().unwrap().output,
                listkit::serial::scan(&list, &affs, &AffineOp),
                "resident affine diverged on {name} n={n}"
            );
            assert_eq!(
                seg.wait().unwrap().output,
                segmented::serial_segmented_scan(&list, &i64s, &starts, &AddOp),
                "resident segmented diverged on {name} n={n}"
            );
            store.drop_dataset(receipt.handle, 7).expect("drop");
        }
    }
    assert_eq!(store.stats().resident_count, 0, "every dataset was dropped");
}

/// One valid random batch of edits against `snapshot`: a short-run
/// splice (walked along the real successor links so it is always a
/// run), usually a delete, and an append — composition varies with the
/// seed stream so sequences explore interleavings, not one shape.
fn random_edit_batch(
    snapshot: &LinkedList,
    rng: &mut impl FnMut() -> u64,
) -> Vec<listkit::dynamic::Edit> {
    use listkit::dynamic::Edit;
    let len = snapshot.len() as u64;
    let mut edits = Vec::new();
    if len >= 4 {
        let links = snapshot.links();
        let first = (rng() % len) as u32;
        let mut last = first;
        let mut run = vec![first];
        for _ in 0..rng() % 3 {
            let nxt = links[last as usize];
            if nxt == last {
                break; // the run reached the tail
            }
            last = nxt;
            run.push(last);
        }
        let after = if rng().is_multiple_of(8) {
            None
        } else {
            // Any target outside the run (len ≥ 4 > run length ≤ 3
            // guarantees one exists within a few probes).
            let mut b = (rng() % len) as u32;
            while run.contains(&b) {
                b = (b + 1) % len as u32;
            }
            Some(b)
        };
        edits.push(Edit::Splice { first, last, after });
        if rng().is_multiple_of(2) {
            edits.push(Edit::Delete { v: (rng() % len) as u32 });
        }
    } else if len >= 2 && rng().is_multiple_of(2) {
        edits.push(Edit::Delete { v: (rng() % len) as u32 });
    }
    edits.push(Edit::Append { count: 1 + (rng() % 6) as u32 });
    edits
}

/// The dynamic-lists oracle: one resident copy of `list` per
/// `shard_sizes` × `lanes_set` plan, each primed with that plan's
/// artifact, all fed the same `batches` random mutation batches. After
/// every batch each dataset's maintained artifact (patched or rebuilt,
/// per the planner) must be the one the next query reuses, and its rank
/// *and* add-scan must byte-match a from-scratch serial pass over the
/// post-mutation list.
fn check_mutation_sequences(
    name: &str,
    list: LinkedList,
    seed: u64,
    batches: usize,
    shard_sizes: &[usize],
    lanes_set: &[usize],
) {
    use engine::{DatasetStore, Planner};
    use listkit::dynamic::MutableList;
    use listkit::ops::AddOp;
    const CONN: u64 = 11;
    let store = Arc::new(DatasetStore::new(1 << 30));
    let planner = Planner::new(4);
    let mut mirror = MutableList::from_list(&list);
    let list = Arc::new(list);
    let mut datasets = Vec::new();
    for &shard in shard_sizes {
        for &lanes in lanes_set {
            let receipt = store.put(CONN, Arc::clone(&list)).expect("put fits");
            let entry = store.get(receipt.handle, CONN).expect("resident");
            entry.artifacts().get_or_build(&entry.list(), shard, lanes);
            datasets.push((shard, lanes, entry));
        }
    }
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for batch in 0..batches {
        let edits = random_edit_batch(&mirror.snapshot(), &mut rng);
        mirror.apply(&edits).expect("mirror accepts the batch");
        let expected = mirror.snapshot();
        let oracle = listkit::serial::rank(&expected);
        let values: Vec<i64> = (0..expected.len() as i64).map(|i| (i % 29) - 14).collect();
        let scan_oracle = listkit::serial::scan(&expected, &values, &AddOp);
        for (shard, lanes, entry) in &datasets {
            let ctx = format!("{name} batch {batch} shard={shard} lanes={lanes}");
            let out = engine::dynamic::mutate(&store, &planner, entry.handle(), CONN, &edits)
                .expect("store accepts the batch");
            assert_eq!(out.len as usize, expected.len(), "{ctx}: length drift");
            assert_eq!(out.artifacts, 1, "{ctx}: the primed artifact is maintained");
            let snapshot = entry.list();
            assert_eq!(
                snapshot.links(),
                expected.links(),
                "{ctx}: server and mirror applied different lists"
            );
            let built = store.stats().artifacts_built;
            let a = entry.artifacts().get_or_build(&snapshot, *shard, *lanes);
            assert_eq!(store.stats().artifacts_built, built, "{ctx}: maintained artifact unused");
            assert_eq!(a.rank(), oracle, "{ctx}: rank diverged");
            assert_eq!(a.scan(&values, &AddOp), scan_oracle, "{ctx}: scan diverged");
        }
    }
    assert_eq!(store.mutation_stats().mutations, (batches * datasets.len()) as u64);
    for (_, _, entry) in datasets {
        let handle = entry.handle();
        drop(entry);
        store.drop_dataset(handle, CONN).expect("drop");
    }
    assert_eq!(store.stats().resident_bytes, 0, "drop released lists, mirrors, and artifacts");
}

#[test]
fn mutated_datasets_match_serial_on_every_topology_lane_and_budget() {
    // The dynamic-lists acceptance matrix: the topology zoo × lanes
    // {1, 4, 8} × two shard budgets, each under a random mutation
    // sequence, byte-compared to serial after every batch. The planner
    // is free to pick incremental or rebuild per pass — the contract
    // is that the choice is invisible in the bytes.
    for n in [129usize, 1025, 20_000] {
        for (name, list) in topologies(n) {
            check_mutation_sequences(&name, list, SEED ^ n as u64, 5, &[64, 512], &[1, 4, 8]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential-oracle property for mutations: any topology, any
    /// size, any edit sequence — every maintained artifact stays
    /// byte-identical to a from-scratch serial solve.
    #[test]
    fn mutation_differential(n in 4usize..1500, topo in 0usize..5, seed in any::<u64>()) {
        let zoo = topologies(n);
        let (name, list) = zoo[topo % zoo.len()].clone();
        check_mutation_sequences(&name, list, seed, 4, &[7, 64], &[1, 4]);
    }
}

/// Nightly-depth random-mutation sweep: many more sequences over a
/// wider size range, run with `cargo test -- --include-ignored`.
#[test]
#[ignore = "deep mutation sweep; nightly CI runs it via --include-ignored"]
fn mutation_sweep_deep() {
    let mut seed = 0xDEC0_DE5Eu64;
    for case in 0..160 {
        let mut next = || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let n = 4 + (next() % 5000) as usize;
        let zoo = topologies(n);
        let (name, list) = zoo[(next() as usize) % zoo.len()].clone();
        check_mutation_sequences(&name, list, next(), 6, &[16, 256], &[1, 4, 8]);
        let _ = case;
    }
}

/// The all-singleton stride topology really produces singleton
/// fragments (the adversarial property the name claims).
#[test]
fn stride_topology_is_all_singletons() {
    let n = 20_000;
    let stride = coprime_stride(n, 70);
    let list = gen::list_with_layout(n, Layout::Strided(stride), 1);
    let sharded = ShardedList::build(&list, 64);
    assert_eq!(sharded.fragment_count(), n, "every vertex must be its own fragment");
    assert_eq!(sharded.rank(), listkit::serial::rank(&list));
}
