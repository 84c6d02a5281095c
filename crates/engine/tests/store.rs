//! Property tests for the resident dataset store: the byte budget is
//! never exceeded, LRU order matches a shadow model op for op,
//! refcounted entries survive eviction pressure, the counter algebra
//! holds (`hits + misses == lookups`), and concurrent PUT/query/DROP
//! interleavings never panic or serve another connection's data.
//!
//! The proptest cases run a random operation tape against both the
//! real [`DatasetStore`] and a straight-line shadow model; any
//! divergence in recency order, resident bytes, or counters fails with
//! the tape visible. `store_model_deep` re-runs the same check over a
//! much larger tape population and is `#[ignore]`d for nightly CI
//! (`--include-ignored`). The artifact tests pin the one snapshot-bound
//! rank-array slot per dataset, two of them end to end through `Engine`
//! and MUTATE.

use engine::dynamic::mutate;
use engine::store::{artifact_footprint, list_footprint, DatasetStore, StoreError};
use engine::{Engine, EngineConfig, Request};
use listkit::dynamic::Edit;
use listkit::{gen, serial, LinkedList};
use listrank::host::RankScratch;
use listrank::{Algorithm, HostRunner};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Shadow model of the store: a recency queue of `(handle, bytes)`
/// plus the counters, with the exact eviction semantics of
/// `DatasetStore::evict_to_fit` (no pins exist in the single-threaded
/// tape, so every entry is evictable).
#[derive(Default)]
struct Model {
    budget: u64,
    order: VecDeque<(u64, u64)>,
    next_handle: u64,
    resident: u64,
    puts: u64,
    drops: u64,
    lookups: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    put_rejected: u64,
}

impl Model {
    fn new(budget: u64) -> Self {
        Model { budget, next_handle: 1, ..Default::default() }
    }

    fn put(&mut self, bytes: u64) -> Option<u64> {
        while self.resident + bytes > self.budget {
            match self.order.pop_front() {
                Some((_, b)) => {
                    self.resident -= b;
                    self.evictions += 1;
                }
                None => {
                    self.put_rejected += 1;
                    return None;
                }
            }
        }
        let handle = self.next_handle;
        self.next_handle += 1;
        self.order.push_back((handle, bytes));
        self.resident += bytes;
        self.puts += 1;
        Some(handle)
    }

    fn get(&mut self, handle: u64) -> bool {
        self.lookups += 1;
        if let Some(pos) = self.order.iter().position(|&(h, _)| h == handle) {
            let entry = self.order.remove(pos).expect("position just found");
            self.order.push_back(entry);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn drop_dataset(&mut self, handle: u64) -> bool {
        if let Some(pos) = self.order.iter().position(|&(h, _)| h == handle) {
            let (_, b) = self.order.remove(pos).expect("position just found");
            self.resident -= b;
            self.drops += 1;
            true
        } else {
            false
        }
    }
}

/// Decode one tape word into an operation and drive both the store and
/// the model, asserting they agree after every step.
fn run_tape(budget: u64, tape: &[u64]) {
    const CONN: u64 = 1;
    let store = Arc::new(DatasetStore::new(budget));
    let mut model = Model::new(budget);
    let mut issued: Vec<u64> = Vec::new();

    for (step, &w) in tape.iter().enumerate() {
        match w % 4 {
            0 | 1 => {
                // PUT a list sized to make evictions and rejections
                // both reachable under small budgets.
                let n = 1 + ((w >> 8) % 300) as usize;
                let list = Arc::new(gen::sequential_list(n));
                let bytes = list_footprint(&list);
                let got = store.put(CONN, list);
                match model.put(bytes) {
                    Some(handle) => {
                        let receipt = got.unwrap_or_else(|e| {
                            panic!("step {step}: model admitted {bytes} B, store said {e}")
                        });
                        assert_eq!(receipt.handle, handle, "step {step}: handle sequence");
                        assert_eq!(receipt.bytes, bytes, "step {step}: charged bytes");
                        issued.push(handle);
                    }
                    None => {
                        assert_eq!(
                            got.expect_err(&format!("step {step}: model rejected {bytes} B")),
                            StoreError::StoreFull
                        );
                    }
                }
            }
            2 => {
                // GET: mostly a previously issued handle, sometimes one
                // that never existed.
                let handle = if issued.is_empty() || w % 16 == 2 {
                    u64::MAX - (w >> 32) % 7
                } else {
                    issued[((w >> 16) as usize) % issued.len()]
                };
                let got = store.get(handle, CONN);
                if model.get(handle) {
                    let guard = got.unwrap_or_else(|e| {
                        panic!("step {step}: model resolved handle {handle}, store said {e}")
                    });
                    assert_eq!(guard.handle(), handle);
                    drop(guard); // release the pin before the next op
                } else {
                    assert_eq!(
                        got.expect_err(&format!("step {step}: model missed handle {handle}")),
                        StoreError::StaleHandle
                    );
                }
            }
            _ => {
                let handle = if issued.is_empty() {
                    42
                } else {
                    issued[((w >> 16) as usize) % issued.len()]
                };
                let got = store.drop_dataset(handle, CONN);
                if model.drop_dataset(handle) {
                    got.unwrap_or_else(|e| {
                        panic!("step {step}: model dropped handle {handle}, store said {e}")
                    });
                } else {
                    assert_eq!(got, Err(StoreError::StaleHandle), "step {step}");
                }
            }
        }

        // Invariants after every step.
        let st = store.stats();
        assert!(st.resident_bytes <= budget, "step {step}: budget exceeded ({st:?})");
        assert_eq!(st.resident_bytes, model.resident, "step {step}: resident bytes");
        assert_eq!(st.hits + st.misses, st.lookups, "step {step}: counter algebra");
        let want: Vec<u64> = model.order.iter().map(|&(h, _)| h).collect();
        assert_eq!(store.resident_handles(), want, "step {step}: LRU order diverged");
    }

    let st = store.stats();
    assert_eq!(
        (st.puts, st.drops, st.lookups, st.hits, st.misses, st.evictions, st.put_rejected),
        (
            model.puts,
            model.drops,
            model.lookups,
            model.hits,
            model.misses,
            model.evictions,
            model.put_rejected
        ),
        "final counters diverged from the model"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The store agrees with the shadow model on every random tape:
    /// budget never exceeded, LRU order identical, counters identical.
    #[test]
    fn store_matches_the_shadow_model(
        budget in 600u64..6000,
        tape in vec(any::<u64>(), 1..120),
    ) {
        run_tape(budget, &tape);
    }
}

/// The nightly-depth variant of the model check: far more tapes, run
/// with `cargo test -- --include-ignored` (CI's nightly-full job).
#[test]
#[ignore = "deep property sweep; nightly CI runs it via --include-ignored"]
fn store_model_deep() {
    let mut seed = 0x5EED_5709u64;
    for case in 0..1500 {
        // Splitmix-style tape derivation: deterministic, independent of
        // the proptest shim's per-test RNG.
        let mut next = || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let budget = 600 + next() % 8000;
        let len = 1 + (next() % 200) as usize;
        let tape: Vec<u64> = (0..len).map(|_| next()).collect();
        run_tape(budget, &tape);
        let _ = case;
    }
}

#[test]
fn pinned_entries_survive_eviction_pressure() {
    // Budget fits two 1000-vertex datasets; one is pinned by a live
    // guard. Fifty more PUTs each force an eviction — and every victim
    // is the idle flood entry, never the pinned one.
    let store = Arc::new(DatasetStore::new(10_000));
    let pinned_list = Arc::new(gen::random_list(1_000, 0x71D));
    let pinned = store.put(1, Arc::clone(&pinned_list)).expect("pinned fits");
    let guard = store.get(pinned.handle, 1).expect("pin");

    for i in 0..50u64 {
        let r = store.put(1, Arc::new(gen::random_list(1_000, i))).expect("flood put");
        assert_ne!(r.handle, pinned.handle);
        assert!(store.stats().resident_bytes <= 10_000);
    }
    // The pinned dataset is still resident and still the same data.
    assert_eq!(guard.list().links(), pinned_list.links());
    store.get(pinned.handle, 1).expect("pinned entry survived 50 evictions");
    assert!(store.stats().evictions >= 49, "flood entries were evicted instead");
    drop(guard);
}

#[test]
fn a_pin_can_force_store_full_and_releases_on_drop() {
    // Budget holds exactly one dataset. While it is pinned, a second
    // PUT cannot evict it and fails typed; once the guard drops, the
    // same PUT succeeds by evicting the now-idle entry.
    let store = Arc::new(DatasetStore::new(5_000));
    let first = store.put(1, Arc::new(gen::random_list(1_000, 1))).expect("fits");
    let guard = store.get(first.handle, 1).expect("pin");
    let second = Arc::new(gen::random_list(1_000, 2));
    assert_eq!(
        store.put(1, Arc::clone(&second)).expect_err("pinned entry is not evictable"),
        StoreError::StoreFull
    );
    drop(guard);
    store.put(1, second).expect("idle entry evicted once unpinned");
    assert_eq!(store.get(first.handle, 1).expect_err("first was evicted"), StoreError::StaleHandle);
}

/// The planner's rank for a rank-array build, and a scratch for it.
fn rank_runner() -> (HostRunner, RankScratch) {
    (HostRunner::new(Algorithm::ReidMiller), RankScratch::default())
}

#[test]
fn artifact_cache_builds_once_reuses_and_charges_the_budget() {
    let store = Arc::new(DatasetStore::new(100_000));
    let list = Arc::new(gen::random_list(1_000, 9));
    let receipt = store.put(1, Arc::clone(&list)).expect("put");
    let entry = store.get(receipt.handle, 1).expect("get");
    let (runner, mut scratch) = rank_runner();

    let base = store.stats().resident_bytes;
    let (a1, built) = entry.artifacts().get_or_build(&list, &runner, &mut scratch);
    assert!(built.is_some(), "the first call ranks the list");
    let st = store.stats();
    assert_eq!((st.artifacts_built, st.artifacts_reused), (1, 0));
    assert_eq!(artifact_footprint(&a1), 8 * 1_000 + 96, "two u32s per vertex");
    assert_eq!(st.resident_bytes, base + artifact_footprint(&a1), "kept array is charged");
    let want: Vec<u32> = serial::rank(&list).into_iter().map(|r| r as u32).collect();
    assert_eq!(a1.as_slice(), &want[..], "the kept ranks are the list's ranks");

    let (a2, built) = entry.artifacts().get_or_build(&list, &runner, &mut scratch);
    assert!(Arc::ptr_eq(&a1, &a2), "same snapshot returns the kept array");
    assert!(built.is_none(), "a reuse ranks nothing");
    assert_eq!(store.stats().artifacts_reused, 1);

    // One array per dataset: another runner asking for the same
    // snapshot reuses the slot instead of building and charging again.
    let serial_runner = HostRunner::new(Algorithm::Serial);
    let a3 = entry.artifacts().get_or_build(&list, &serial_runner, &mut scratch).0;
    assert!(Arc::ptr_eq(&a1, &a3), "the runner shapes only a cold build");
    assert_eq!(a3.algorithm(), Algorithm::ReidMiller, "built by the first runner");
    let st = store.stats();
    assert_eq!((st.artifacts_built, st.artifacts_reused), (1, 2));
    assert_eq!(st.resident_bytes, base + artifact_footprint(&a1), "charged once");

    // Dropping the dataset releases the list *and* its array.
    drop(entry);
    store.drop_dataset(receipt.handle, 1).expect("drop");
    assert_eq!(store.stats().resident_bytes, 0);
}

#[test]
fn artifact_that_cannot_be_charged_is_used_uncached() {
    // The budget fits the list with no room for its rank array (the
    // entry itself is never evicted to make room for its own array):
    // the build must still be returned, just not kept.
    let list = Arc::new(gen::random_list(1_000, 9));
    let budget = list_footprint(&list) + 64;
    let store = Arc::new(DatasetStore::new(budget));
    let receipt = store.put(1, Arc::clone(&list)).expect("put");
    let entry = store.get(receipt.handle, 1).expect("get");
    let (runner, mut scratch) = rank_runner();

    let built = entry.artifacts().get_or_build(&list, &runner, &mut scratch).0;
    assert_eq!(built.len(), 1_000, "an array that is not kept still serves the query");
    assert_eq!(store.stats().resident_bytes, list_footprint(&list), "nothing was charged");
    assert!(entry.artifacts().kept(&list).is_none());

    // Nothing was kept, so the next query builds again.
    let again = entry.artifacts().get_or_build(&list, &runner, &mut scratch).0;
    assert!(!Arc::ptr_eq(&built, &again), "a build that was not kept is never reused");
    let st = store.stats();
    assert_eq!((st.artifacts_built, st.artifacts_reused), (2, 0));
    assert_eq!(st.resident_bytes, list_footprint(&list), "budget never exceeded");
}

#[test]
fn sharded_rank_resolved_before_a_splice_never_poisons_the_artifact() {
    // Two jobs resolved before a length-preserving splice but run after
    // it: one whose snapshot had its ranks kept, one whose had none.
    // Each ranks its own (pre-splice) snapshot. Neither may use or keep
    // an array for the dataset: the next rank resolves the post-splice
    // list, builds its array, and must match the serial oracle over it.
    const CONN: u64 = 3;
    let engine = Engine::new(EngineConfig::default().with_workers(1).with_shard_budget(1024));
    let store = Arc::new(DatasetStore::new(1 << 30));
    let order = |list: &LinkedList| list.order();
    for keep_first in [false, true] {
        let list = Arc::new(gen::random_list(20_000, 5));
        let receipt = store.put(CONN, Arc::clone(&list)).expect("put");
        let entry = store.get(receipt.handle, CONN).expect("get");
        let rank = |list: Arc<LinkedList>| {
            let req = Request::rank(list).sharded().with_artifacts(entry.artifacts());
            engine.submit(req).expect("submit").wait().expect("rank")
        };
        if keep_first {
            assert_eq!(rank(entry.list()).output, serial::rank(&list), "the first rank");
        }
        let stale = Request::rank(entry.list()).sharded().with_artifacts(entry.artifacts());
        let o = order(&list);
        let splice = Edit::Splice { first: o[1], last: o[2], after: Some(o[15_000]) };
        let out = mutate(&store, receipt.handle, CONN, &[splice]).expect("splice");
        assert_eq!(out.len, 20_000, "the splice preserves the length");

        let built = store.stats().artifacts_built;
        let ranked = engine.submit(stale).expect("submit").wait().expect("stale rank");
        assert_eq!(ranked.output, serial::rank(&list), "the stale job ranks its own snapshot");
        assert_eq!(ranked.shards, 0, "served from a rank array");
        let stale_builds = u64::from(!keep_first);
        assert_eq!(store.stats().artifacts_built, built + stale_builds, "keep_first {keep_first}");

        let current = entry.list();
        assert!(!Arc::ptr_eq(&current, &list), "the splice published a new snapshot");
        assert!(entry.artifacts().kept(&current).is_none(), "the stale job kept nothing");
        assert_eq!(rank(Arc::clone(&current)).output, serial::rank(&current), "sees the splice");
        assert_eq!(store.stats().artifacts_built, built + stale_builds + 1, "the next rank built");
        assert!(entry.artifacts().kept(&current).is_some(), "and kept its array");
        drop(entry);
        store.drop_dataset(receipt.handle, CONN).expect("drop");
    }
    assert_eq!(store.stats().resident_bytes, 0, "lists, mirrors and arrays released");
    engine.shutdown();
}

#[test]
fn mutations_drop_the_array_and_the_next_rank_rebuilds_it() {
    // Every batch drops the kept array in O(1): the first rank after it
    // builds the post-batch snapshot's array, the second reuses it.
    const CONN: u64 = 4;
    let engine = Engine::new(EngineConfig::default().with_workers(1).with_shard_budget(1 << 16));
    let store = Arc::new(DatasetStore::new(1 << 30));
    let receipt = store.put(CONN, Arc::new(gen::random_list(1 << 20, 6))).expect("put");
    let entry = store.get(receipt.handle, CONN).expect("get");
    let rank = || {
        let req = Request::rank(entry.list()).sharded().with_artifacts(entry.artifacts());
        engine.submit(req).expect("submit").wait().expect("rank").output
    };
    rank();
    assert_eq!(store.stats().artifacts_built, 1);
    for append in 1..=3u64 {
        mutate(&store, receipt.handle, CONN, &[Edit::Append { count: 1 }]).expect("append");
        assert!(entry.snapshot().1.is_none(), "append {append}: the array was dropped");
        assert_eq!(rank(), serial::rank(&entry.list()), "append {append}: rank diverged");
        assert_eq!(rank(), serial::rank(&entry.list()), "append {append}: reuse diverged");
        let st = store.stats();
        assert_eq!(st.artifacts_built, 1 + append, "append {append}: the next rank rebuilt");
        assert_eq!(st.artifacts_reused, append, "append {append}: the one after reused");
    }
    engine.shutdown();
}

#[test]
fn drop_during_artifact_build_never_leaks_budget() {
    // A build charges its array to the entry under the slot lock, and
    // only while the entry is resident. A DROP subtracts the entry's
    // total (which includes every charge made so far), so a charge
    // landing after it would leak, and a charge counted twice would
    // double-credit the budget. Race two same-snapshot builders
    // against a drop over many rounds and pin the only observable
    // invariant: once every handle is dropped, zero bytes are
    // resident, no matter where the drop landed.
    use std::sync::Barrier;
    let store = Arc::new(DatasetStore::new(1_000_000));
    for round in 0..80u64 {
        let list = Arc::new(gen::random_list(2_000, round));
        let receipt = store.put(1, Arc::clone(&list)).expect("fits");
        let cache = store.get(receipt.handle, 1).expect("get").artifacts();
        let barrier = Arc::new(Barrier::new(3));
        let builders: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let list = Arc::clone(&list);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    // Same snapshot: the second builder waits for the
                    // first and reuses its array, and a build that lands
                    // after the drop finds no entry to charge.
                    let (runner, mut scratch) = rank_runner();
                    let built = cache.get_or_build(&list, &runner, &mut scratch).0;
                    assert_eq!(built.len(), 2_000, "build serves even when uncached");
                })
            })
            .collect();
        barrier.wait();
        // Stagger the drop across the build window round by round.
        for _ in 0..round % 7 {
            std::thread::yield_now();
        }
        store.drop_dataset(receipt.handle, 1).expect("drop");
        for b in builders {
            b.join().expect("builder");
        }
        let st = store.stats();
        assert_eq!(
            st.resident_bytes, 0,
            "round {round}: all handles dropped yet {} bytes still charged",
            st.resident_bytes
        );
        assert_eq!(st.resident_count, 0, "round {round}");
    }
}

#[test]
fn concurrent_put_query_drop_interleavings_never_serve_foreign_data() {
    // Four connections hammer one small store. Every successful GET
    // must resolve to exactly the list that connection PUT (pointer
    // identity — the store hands back the same Arc); foreign handles
    // must always be stale; the budget must hold at every probe; and
    // teardown must reap precisely what is left.
    const THREADS: u64 = 4;
    const ITERS: u64 = 300;
    let store = Arc::new(DatasetStore::new(40_000));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut state = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut mine: Vec<(u64, Arc<LinkedList>)> = Vec::new();
                for i in 0..ITERS {
                    match rng() % 5 {
                        0 | 1 => {
                            let n = 100 + (rng() % 900) as usize;
                            let list = Arc::new(gen::random_list(n, t * ITERS + i));
                            if let Ok(receipt) = store.put(t, Arc::clone(&list)) {
                                mine.push((receipt.handle, list));
                            }
                        }
                        2 | 3 if !mine.is_empty() => {
                            let idx = (rng() as usize) % mine.len();
                            let (handle, expected) = &mine[idx];
                            match store.get(*handle, t) {
                                Ok(guard) => {
                                    assert!(
                                        Arc::ptr_eq(&guard.list(), expected),
                                        "conn {t} got a different dataset for its own handle"
                                    );
                                }
                                // Evicted under pressure: legal, forget it.
                                Err(StoreError::StaleHandle) => {
                                    mine.swap_remove(idx);
                                }
                                Err(e) => panic!("unexpected get error: {e}"),
                            }
                        }
                        4 if !mine.is_empty() => {
                            let idx = (rng() as usize) % mine.len();
                            let (handle, _) = mine.swap_remove(idx);
                            // Ok, or StaleHandle if eviction got there
                            // first — both legal, nothing else is.
                            if let Err(e) = store.drop_dataset(handle, t) {
                                assert_eq!(e, StoreError::StaleHandle);
                            }
                        }
                        _ => {}
                    }
                    // A handle owned by this connection must never
                    // resolve for any other connection.
                    if let Some((handle, _)) = mine.last() {
                        let other = (t + 1) % THREADS;
                        assert_eq!(
                            store.get(*handle, other).expect_err("foreign handle resolved"),
                            StoreError::StaleHandle
                        );
                    }
                    assert!(store.stats().resident_bytes <= 40_000, "budget exceeded");
                }
                store.drop_connection(t)
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }
    let st = store.stats();
    assert_eq!(st.resident_count, 0, "teardown reaped everything");
    assert_eq!(st.resident_bytes, 0);
    assert_eq!(st.hits + st.misses, st.lookups);
    assert!(store.resident_handles().is_empty());
}
