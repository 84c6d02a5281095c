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
    // `DatasetStore`, ranked with their artifact slot attached
    // (`Request::with_artifacts`), byte-compared with the serial
    // oracle. Each dataset is ranked twice, so both the rank-array
    // build and the rank served from the kept array face the zoo, then
    // a third time after a length-changing MUTATE, which dropped the
    // array: that rank builds the post-mutation list's.
    use engine::DatasetStore;
    use listkit::dynamic::Edit;
    let engine = Engine::new(
        EngineConfig::default().with_workers(2).with_shard_budget(512).with_queue_capacity(128),
    );
    let store = Arc::new(DatasetStore::new(1 << 30));
    let mut datasets = 0;
    for n in [127usize, 1025, 20_000] {
        for (name, list) in topologies(n) {
            let receipt = store.put(1, Arc::new(list)).expect("put fits the budget");
            let entry = store.get(receipt.handle, 1).expect("resident");
            for pass in 0..3 {
                if pass == 2 {
                    let append = [Edit::Append { count: 3 }];
                    engine::dynamic::mutate(&store, receipt.handle, 1, &append).expect("append");
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
                    "resident rank diverged on {name} n={n} pass={pass}"
                );
                assert_eq!(report.shards, 0, "{name} n={n}: served from a rank array");
            }
            store.drop_dataset(receipt.handle, 1).expect("drop");
            datasets += 1;
        }
    }
    let st = store.stats();
    assert_eq!(st.artifacts_built, 2 * datasets, "passes 0 and 2 built");
    assert_eq!(st.artifacts_reused, datasets, "pass 1 reused");
    engine.shutdown();
}

/// The values every resident-ops check scans: `i64`s for add, max,
/// min and segmented add, `u64`s for xor, affine maps, start flags.
struct OpInputs {
    i64s: Arc<Vec<i64>>,
    u64s: Arc<Vec<u64>>,
    affs: Arc<Vec<listkit::ops::Affine>>,
    starts: Arc<Vec<bool>>,
}

impl OpInputs {
    fn new(n: usize, seed: u64) -> Self {
        let s = seed as i64 | 1;
        OpInputs {
            i64s: Arc::new((0..n as i64).map(|i| (i.wrapping_mul(s) % 37) - 18).collect()),
            u64s: Arc::new((0..n as u64).map(|i| i.wrapping_mul(seed | 1) ^ (i << 7)).collect()),
            affs: Arc::new(
                (0..n as i64)
                    .map(|i| listkit::ops::Affine::new((i.wrapping_add(s) % 5) - 2, (i % 11) - 5))
                    .collect(),
            ),
            starts: Arc::new((0..n as u64).map(|v| v.wrapping_mul(seed | 1) % 17 == 0).collect()),
        }
    }
}

/// One handle-routed round of every operator — rank, add, max, min,
/// xor, affine and segmented add — on `list`, resolved against
/// `entry`'s artifact slot, each byte-compared with the serial oracle.
/// The rank goes first and alone, so that when it builds the array the
/// six scans after it are served from the kept one.
fn check_resident_ops(
    engine: &Engine,
    entry: &engine::DatasetRef,
    list: &Arc<LinkedList>,
    sharded: bool,
    seed: u64,
    ctx: &str,
) {
    use listkit::ops::{AddOp, AffineOp, MaxOp, MinOp, XorOp};
    use listkit::segmented;
    let l = || Arc::clone(list);
    let OpInputs { i64s, u64s, affs, starts } = OpInputs::new(list.len(), seed);
    fn submit<R: Send + 'static>(
        engine: &Engine,
        entry: &engine::DatasetRef,
        req: Request<R>,
        sharded: bool,
    ) -> engine::JobHandle<R> {
        let req = if sharded { req.sharded() } else { req };
        engine.submit(req.with_artifacts(entry.artifacts())).expect("submit")
    }
    let go = |req| submit(engine, entry, req, sharded);
    let rank = submit(engine, entry, Request::rank(l()), sharded).wait().expect("rank");
    assert_eq!(rank.output, listkit::serial::rank(list), "{ctx}: rank");
    assert_eq!(rank.shards, 0, "{ctx}: served from a rank array");
    let add = go(Request::scan(l(), Arc::clone(&i64s), AddOp));
    let max = go(Request::scan(l(), Arc::clone(&i64s), MaxOp));
    let min = go(Request::scan(l(), Arc::clone(&i64s), MinOp));
    let xor = submit(engine, entry, Request::scan(l(), Arc::clone(&u64s), XorOp), sharded);
    let aff = submit(engine, entry, Request::scan(l(), Arc::clone(&affs), AffineOp), sharded);
    let seg = go(Request::segmented_scan(l(), Arc::clone(&i64s), Arc::clone(&starts), AddOp));
    fn out<T: 'static>(handle: engine::JobHandle<Vec<T>>) -> Vec<T> {
        handle.wait().expect("scan").output
    }
    assert_eq!(out(add), listkit::serial::scan(list, &i64s, &AddOp), "{ctx}: add");
    assert_eq!(out(max), listkit::serial::scan(list, &i64s, &MaxOp), "{ctx}: max");
    assert_eq!(out(min), listkit::serial::scan(list, &i64s, &MinOp), "{ctx}: min");
    assert_eq!(out(xor), listkit::serial::scan(list, &u64s, &XorOp), "{ctx}: xor");
    assert_eq!(out(aff), listkit::serial::scan(list, &affs, &AffineOp), "{ctx}: affine");
    let want = segmented::serial_segmented_scan(list, &i64s, &starts, &AddOp);
    assert_eq!(out(seg), want, "{ctx}: segmented add");
}

#[test]
fn resident_dataset_ops_match_serial_on_every_topology() {
    // Every operator (add/max/min/xor/affine/segmented) over a
    // *resident* dataset, artifacts attached: one round that builds the
    // rank array, one served wholly from it. Both must equal the serial
    // oracle, so the handle data plane can never drift from the inline
    // one.
    use engine::DatasetStore;
    let engine = ops_engine();
    let store = Arc::new(DatasetStore::new(1 << 30));
    for n in [2usize, 129, 1025] {
        for (name, list) in topologies(n) {
            let receipt = store.put(7, Arc::new(list)).expect("put fits");
            let entry = store.get(receipt.handle, 7).expect("resident");
            let list = entry.list();
            let built = store.stats().artifacts_built;
            for round in ["build", "reuse"] {
                let ctx = format!("{name} n={n} {round}");
                check_resident_ops(engine, &entry, &list, false, SEED ^ n as u64, &ctx);
            }
            assert_eq!(store.stats().artifacts_built, built + 1, "{name} n={n}: one build");
            store.drop_dataset(receipt.handle, 7).expect("drop");
        }
    }
    assert_eq!(store.stats().resident_count, 0, "every dataset was dropped");
}

#[test]
fn served_resident_ops_match_serial_on_every_topology() {
    // The same operators through a `rankd` server over its socket: a
    // served scan from a kept array scatters into the reply payload and
    // gathers into the request's own values, a path in-process jobs do
    // not take. Each dataset is queried, mutated, and queried again.
    use engine::{Call, Client, ServeConfig, Server};
    use listkit::dynamic::{Edit, MutableList};
    use listkit::ops::{AddOp, AffineOp, MaxOp, MinOp, XorOp};
    use listkit::segmented;
    let dir = std::env::temp_dir().join(format!("differential-served-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket directory");
    let path = dir.join("rankd.sock");
    let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(2)));
    let server = Server::bind(engine, ServeConfig::new(&path)).expect("bind");
    let control = server.control();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&path).expect("connect");
    let mut datasets = 0;
    for n in [1usize, 2, 129, 1025, 20_000] {
        for (name, list) in topologies(n) {
            datasets += 1;
            let handle = client.put(&list).expect("put").handle;
            let mut mirror = MutableList::from_list(&list);
            for round in 0..4 {
                if round == 2 {
                    let edits = [Edit::Append { count: 5 }, Edit::Delete { v: 0 }];
                    mirror.apply(&edits).expect("valid batch");
                    client.mutate(handle, &edits).expect("mutate");
                }
                let list = mirror.snapshot();
                let ctx = format!("{name} n={n} round {round}");
                let OpInputs { i64s, u64s, affs, starts } =
                    OpInputs::new(list.len(), SEED ^ n as u64);
                let rank = client.call(&Call::rank(handle)).expect("rank_h");
                assert_eq!(rank.output, listkit::serial::rank(&list), "{ctx}: rank");
                assert_eq!(rank.meta.shards, 0, "{ctx}: served from a rank array");
                let add = client.call(&Call::scan(handle, &i64s, AddOp)).expect("add").output;
                assert_eq!(add, listkit::serial::scan(&list, &i64s, &AddOp), "{ctx}: add");
                let max = client.call(&Call::scan(handle, &i64s, MaxOp)).expect("max").output;
                assert_eq!(max, listkit::serial::scan(&list, &i64s, &MaxOp), "{ctx}: max");
                let min = client.call(&Call::scan(handle, &i64s, MinOp)).expect("min").output;
                assert_eq!(min, listkit::serial::scan(&list, &i64s, &MinOp), "{ctx}: min");
                let xor = client.call(&Call::scan(handle, &u64s, XorOp)).expect("xor").output;
                assert_eq!(xor, listkit::serial::scan(&list, &u64s, &XorOp), "{ctx}: xor");
                let aff = client.call(&Call::scan(handle, &affs, AffineOp)).expect("aff").output;
                assert_eq!(aff, listkit::serial::scan(&list, &affs, &AffineOp), "{ctx}: affine");
                let seg = Call::segmented(handle, &i64s, &starts, AddOp).sharded();
                let want = segmented::serial_segmented_scan(&list, &i64s, &starts, &AddOp);
                assert_eq!(client.call(&seg).expect("segmented").output, want, "{ctx}: seg");
            }
            client.drop_handle(handle).expect("drop");
        }
    }
    // 4 rounds of 7 queries per dataset; rounds 0 and 2 open with the
    // rank that builds the array.
    let st = client.stats_v2().expect("stats").store;
    assert_eq!((st.artifacts_built, st.artifacts_reused), (2 * datasets, 26 * datasets));
    control.request_shutdown();
    drop(client);
    daemon.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
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

/// The dynamic-lists oracle: `list` resident in a store, fed `batches`
/// random mutation batches. Before the first batch and after every one,
/// every operator on the dataset — the round that builds the rank array
/// and the one served from it — must byte-match a from-scratch serial
/// pass over the mirror. Each batch also races a rank resolved before
/// it and run after it: that job ranks its own pre-batch snapshot and
/// must leave no array for the new one.
fn check_mutation_sequences(
    engine: &Engine,
    sharded: bool,
    name: &str,
    list: LinkedList,
    seed: u64,
    batches: usize,
) {
    use engine::DatasetStore;
    use listkit::dynamic::MutableList;
    const CONN: u64 = 11;
    let store = Arc::new(DatasetStore::new(1 << 30));
    let mut mirror = MutableList::from_list(&list);
    let receipt = store.put(CONN, Arc::new(list)).expect("put fits");
    let entry = store.get(receipt.handle, CONN).expect("resident");
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for batch in 0..=batches {
        let ctx = format!("{name} sharded={sharded} batch {batch}");
        let before = entry.list();
        if batch > 0 {
            let edits = random_edit_batch(&mirror.snapshot(), &mut rng);
            mirror.apply(&edits).expect("mirror accepts the batch");
            let stale = Request::rank(Arc::clone(&before)).with_artifacts(entry.artifacts());
            let out = engine::dynamic::mutate(&store, entry.handle(), CONN, &edits)
                .expect("store accepts the batch");
            assert_eq!(out.len as usize, mirror.len(), "{ctx}: length drift");
            let ranked = engine.submit(stale).expect("submit").wait().expect("stale rank");
            assert_eq!(ranked.output, listkit::serial::rank(&before), "{ctx}: stale rank");
            assert!(entry.snapshot().1.is_none(), "{ctx}: the stale rank kept an array");
        }
        let snapshot = entry.list();
        assert_eq!(snapshot.links(), mirror.snapshot().links(), "{ctx}: server and mirror differ");
        for round in ["build", "reuse"] {
            check_resident_ops(engine, &entry, &snapshot, sharded, seed, &format!("{ctx} {round}"));
        }
    }
    assert_eq!(store.mutation_stats().mutations, batches as u64);
    drop(entry);
    store.drop_dataset(receipt.handle, CONN).expect("drop");
    assert_eq!(store.stats().resident_bytes, 0, "drop released the list, mirror and array");
}

#[test]
fn mutated_datasets_match_serial_on_every_topology_lane_and_budget() {
    // The dynamic-lists acceptance matrix: the topology zoo under a
    // random mutation sequence, byte-compared to serial after every
    // batch, on one engine whose jobs get one thread and plain requests
    // and on one whose jobs get two threads, with sharded requests
    // under a small shard budget. Handle requests are served from the
    // rank array either way.
    let engines = [
        (Engine::new(EngineConfig::default().with_workers(2).with_inner_threads(1)), false),
        (Engine::new(EngineConfig::default().with_workers(2).with_shard_budget(64)), true),
    ];
    for n in [129usize, 1025, 20_000] {
        for (name, list) in topologies(n) {
            for (engine, sharded) in &engines {
                check_mutation_sequences(engine, *sharded, &name, list.clone(), SEED ^ n as u64, 5);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential-oracle property for mutations: any topology, any
    /// size, any edit sequence — every operator on the mutated dataset
    /// stays byte-identical to a from-scratch serial solve.
    #[test]
    fn mutation_differential(n in 4usize..1500, topo in 0usize..5, seed in any::<u64>()) {
        let zoo = topologies(n);
        let (name, list) = zoo[topo % zoo.len()].clone();
        check_mutation_sequences(ops_engine(), seed % 2 == 0, &name, list, seed, 4);
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
        check_mutation_sequences(ops_engine(), case % 2 == 0, &name, list, next(), 6);
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
