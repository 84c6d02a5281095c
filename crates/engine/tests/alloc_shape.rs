//! Latency-shape invariant: no request-path work that scales with `n`
//! outside exec. A served job writes its elements straight into its
//! pooled reply frame, so once a warm-up request has grown the pools and
//! kept the dataset's rank array, a served `RANK_H` on a resident 2¹⁸
//! list allocates nothing of `8·n` bytes or more on any daemon thread —
//! no output `Vec`, no fresh frame.
//!
//! `SCAN_H` and `SEGSCAN_H` are pinned the same way. Their requests
//! carry `n` values, far more than the reactor's 64 KiB read chunk, so
//! the reactor reads each request into a pooled buffer of its own,
//! which becomes the reply: the OUTPUT header goes ahead of the
//! values, nothing copies or decodes them into a fresh `Vec`, and
//! served from the kept ranks the scan runs in place in that payload,
//! so no thread allocates a list-sized buffer at all. One pooled
//! buffer holds a rank reply, a scan frame or a segmented scan frame
//! for the same `n`. A segmented scan's starts travel to position
//! order as an n-bit set, and nothing wraps the values with their
//! flags.
//!
//! The first query on a snapshot builds its rank array: exactly two
//! allocations of `4·n` bytes or more, the `u32` ranks and the `u32`
//! position order.
//!
//! In process, a segmented scan served from a kept rank array makes its
//! one typed `8·n` output, a copy of the values that it scans in place:
//! nothing of `16·n` wraps the values with their flags.
//!
//! The client reads an OUTPUT payload straight into its output buffer,
//! so its own list-sized allocations are pinned too. The first
//! `Client::call` of a `RANK_H` makes exactly one allocation of `8·n`
//! bytes or more, the output, which comes zeroed from the allocator;
//! the reply buffer never grows to hold the payload. A `SCAN_H` makes
//! that one and its encoded request. `Client::call_into` a buffer that
//! already holds `n` words makes none for a `RANK_H`, and only the
//! encoded request for a `SCAN_H`.
//!
//! A counting global allocator records every allocation at or above a
//! threshold together with the kind of thread that made it: the test's
//! client thread, the reactor thread, or any other (the engine's
//! workers and their inner pool threads). The sizes are exact: a
//! list-sized buffer advised onto huge pages (`listkit::pages`) is
//! still the one allocation `Vec::with_capacity` makes.
#![cfg(unix)]

use engine::client::{Call, Client};
use engine::server::{ServeConfig, Server};
use engine::{DatasetStore, Engine, EngineConfig, Request};
use listkit::gen;
use listkit::ops::AddOp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Which side of the socket a thread is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    /// An engine worker or inner pool thread.
    Engine,
    /// The test's client thread.
    Client,
    /// The server's reactor thread.
    Reactor,
}

thread_local! {
    static SIDE: Cell<Side> = const { Cell::new(Side::Engine) };
}

/// Allocations below this many bytes are not recorded.
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
const SLOTS: usize = 64;
static SEEN: AtomicUsize = AtomicUsize::new(0);
static SIZES: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];
static SIDES: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];

fn note(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        let slot = SEEN.fetch_add(1, Ordering::Relaxed);
        if slot < SLOTS {
            SIZES[slot].store(size, Ordering::Relaxed);
            SIDES[slot].store(SIDE.with(Cell::get) as usize, Ordering::Relaxed);
        }
    }
}

struct Counting;

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping touches only atomics and a const-initialized thread local
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The record is global: one test records at a time.
static RECORDING: Mutex<()> = Mutex::new(());

/// Record allocations of at least `bytes` while `f` runs, on every
/// thread.
fn allocs_during(bytes: usize, f: impl FnOnce()) -> Vec<(usize, Side)> {
    SEEN.store(0, Ordering::Relaxed);
    THRESHOLD.store(bytes, Ordering::Relaxed);
    f();
    THRESHOLD.store(usize::MAX, Ordering::Relaxed);
    let seen = SEEN.load(Ordering::Relaxed);
    assert!(seen <= SLOTS, "{seen} large allocations overflow the record");
    let side = |s: usize| [Side::Engine, Side::Client, Side::Reactor][s];
    (0..seen)
        .map(|i| (SIZES[i].load(Ordering::Relaxed), side(SIDES[i].load(Ordering::Relaxed))))
        .collect()
}

/// [`allocs_during`], keeping the ones made off the client thread.
fn daemon_allocs_during(bytes: usize, f: impl FnOnce()) -> Vec<(usize, Side)> {
    allocs_during(bytes, f).into_iter().filter(|&(_, s)| s != Side::Client).collect()
}

/// The sizes of the client thread's allocations among `allocs`.
fn client_sizes(allocs: &[(usize, Side)]) -> Vec<usize> {
    allocs.iter().filter(|&&(_, s)| s == Side::Client).map(|&(size, _)| size).collect()
}

#[test]
fn served_rank_and_scan_allocate_nothing_of_order_n_outside_exec() {
    const N: usize = 1 << 18;
    let _recording = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    SIDE.with(|s| s.set(Side::Client));
    let path = std::env::temp_dir().join(format!("rankd-alloc-shape-{}.sock", std::process::id()));
    let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(2)));
    let server = Server::bind(engine, ServeConfig::new(&path)).expect("bind");
    let control = server.control();
    let join = std::thread::spawn(move || {
        SIDE.with(|s| s.set(Side::Reactor));
        server.run()
    });

    let list = gen::random_list(N, 0xa110c);
    let values: Vec<i64> = (0..N as i64).map(|i| i % 31 - 15).collect();
    let ranks = listkit::serial::rank(&list);
    let sums = listkit::serial::scan(&list, &values, &AddOp);
    let starts: Vec<bool> = (0..N).map(|v| v % 97 == 5).collect();
    let seg_sums = listkit::segmented::serial_segmented_scan(&list, &values, &starts, &AddOp);
    let mut client = Client::connect(&path).expect("connect");
    let handle = client.put(&list).expect("PUT").handle;
    let rank = Call::rank(handle);
    let scan = Call::scan(handle, &values, AddOp);
    let segscan = Call::segmented(handle, &values, &starts, AddOp);
    // Warm-up: grows the reply pool and the scratch pool to this size.
    // The client's first calls allocate each output once, and the scan
    // its encoded request; the reply buffer holds only the metadata.
    let big = 8 * N;
    let scan_request = scan.encode().1.capacity();
    let mut served = None;
    let first = allocs_during(big, || served = Some(client.call(&rank).expect("warm rank")));
    assert!(served.expect("served").output == ranks);
    assert_eq!(client_sizes(&first), [8 * N], "the first RANK_H allocates its output only");
    let mut served = None;
    let first = allocs_during(big, || served = Some(client.call(&scan).expect("warm scan")));
    assert!(served.expect("served").output == sums);
    assert_eq!(client_sizes(&first), [scan_request, 8 * N], "the request and the output");
    assert!(client.call(&segscan).expect("warm segscan").output == seg_sums);

    // A warm buffer: call_into allocates nothing of order n.
    let mut out = vec![0u64; N];
    let during = allocs_during(big, || {
        client.call_into(&rank, &mut out).expect("rank into");
    });
    assert!(out == ranks, "rank into a warm buffer diverged from the serial oracle");
    assert_eq!(during, [], "a warm call_into of a RANK_H allocated O(n) bytes");
    let mut out = vec![0i64; N];
    let during = allocs_during(big, || {
        client.call_into(&scan, &mut out).expect("scan into");
    });
    assert!(out == sums, "scan into a warm buffer diverged from the serial oracle");
    assert_eq!(during, [(scan_request, Side::Client)], "a warm SCAN_H allocates its request");

    let mut served = None;
    let during = daemon_allocs_during(big, || served = Some(client.call(&rank).expect("rank")));
    assert!(served.expect("served").output == ranks, "rank diverged from the serial oracle");
    assert_eq!(during, [], "a served RANK_H allocated O(n) bytes outside exec");

    let reused = client.stats_v2().expect("stats").store.artifacts_reused;
    let mut served = None;
    let during = daemon_allocs_during(big, || served = Some(client.call(&scan).expect("scan")));
    assert!(served.expect("served").output == sums, "scan diverged from the serial oracle");
    assert_eq!(during, [], "a served SCAN_H allocated O(n) bytes");
    let st = client.stats_v2().expect("stats").store;
    assert_eq!(st.artifacts_reused, reused + 1, "the scan was served from the kept ranks");

    let mut served = None;
    let during = daemon_allocs_during(big, || served = Some(client.call(&segscan).expect("seg")));
    assert!(served.expect("served").output == seg_sums, "segscan diverged from the serial oracle");
    assert_eq!(during, [], "a served SEGSCAN_H allocated O(n) bytes");
    let st = client.stats_v2().expect("stats").store;
    assert_eq!(st.artifacts_reused, reused + 2, "the segscan was served from the kept ranks");

    // A second dataset of the same size: its first query builds the
    // array, and nothing else of 4·n bytes or more is allocated.
    let other = gen::random_list(N, 0xb111d);
    let other_handle = client.put(&other).expect("PUT").handle;
    let built = st.artifacts_built;
    let mut served = None;
    let during = daemon_allocs_during(4 * N, || {
        served = Some(client.call(&Call::rank(other_handle)).expect("first rank"))
    });
    let want = listkit::serial::rank(&other);
    assert!(served.expect("served").output == want, "the build's rank diverged");
    let arrays = [(4 * N, Side::Engine), (4 * N, Side::Engine)];
    assert_eq!(during, arrays, "the build allocates the u32 ranks and position order only");
    let st = client.stats_v2().expect("stats").store;
    assert_eq!(st.artifacts_built, built + 1, "the first query built the array");

    control.request_shutdown();
    drop(client);
    join.join().expect("server thread").expect("server run");
}

#[test]
fn an_in_process_segmented_scan_from_kept_ranks_wraps_nothing() {
    const N: usize = 1 << 18;
    let _recording = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(EngineConfig::default().with_workers(1));
    let store = Arc::new(DatasetStore::new(1 << 30));
    let list = Arc::new(gen::random_list(N, 0x5e65));
    let handle = store.put(1, Arc::clone(&list)).expect("put").handle;
    let dataset = store.get(handle, 1).expect("get");
    let values = Arc::new((0..N as i64).map(|i| i % 29 - 14).collect::<Vec<_>>());
    let starts = Arc::new((0..N).map(|v| v % 83 == 2).collect::<Vec<_>>());
    let want = listkit::segmented::serial_segmented_scan(&list, &values, &starts, &AddOp);
    let segscan = || {
        let req = Request::segmented_scan(dataset.list(), values.clone(), starts.clone(), AddOp)
            .with_artifacts(dataset.artifacts());
        engine.submit(req).expect("submit").wait().expect("segscan").output
    };
    // The first builds and keeps the rank array.
    assert!(segscan() == want, "the build's segscan diverged from the serial oracle");
    let mut output = None;
    let during = daemon_allocs_during(8 * N, || output = Some(segscan()));
    assert!(output.expect("served") == want, "segscan diverged from the serial oracle");
    assert_eq!(store.stats().artifacts_reused, 1, "served from the kept ranks");
    assert_eq!(during, [(8 * N, Side::Engine)], "one typed output, nothing wrapped");
}
