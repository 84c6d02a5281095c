//! Layer monotonicity on a `resident_big`-shaped workload: a random
//! list ranked and add-scanned by handle over a Unix socket. Time must
//! not decrease from each layer to the next, within a noise band:
//! `walk` → `listrank` → `engine` exec → `engine` submit→wait → client.
//! The server's phases must also fit inside the client-observed time.
//! No absolute numbers are checked.
//!
//! The daemon here is the `rankd serve` reactor (`engine::Server`) run
//! in process with its default configuration, so the test needs no
//! prebuilt binary; the benchmark itself drives the real executable.

use engine::{Engine, EngineConfig, Phase, ServeConfig, Server};
use listkit::gen::Layout;
use perfbench::inputs::Dataset;
use perfbench::layers::{self, chain_violations};
use perfbench::session::{Kind, QueryConn, Session, Stage};
use perfbench::snapshot::{hist_delta, Snapshot};
use perfbench::stats::median;
use std::sync::Arc;

const N: usize = 1 << 18;
const ROUNDS: usize = 12;
const BAND: f64 = perfbench::run::CHAIN_BAND;

#[test]
fn layers_are_monotone_and_server_phases_fit_in_client_time() {
    let ds = Dataset::new(N, Layout::Random, 42);
    let walk = layers::walk_sweep(&ds.list, &ds.values, &[8], 7);
    let walk_ms = walk[0].ns_per_elem * N as f64 / 1e6;
    let lib = layers::listrank_layer(&ds, layers::inner_threads()).expect("listrank layer");
    let eng = layers::engine_layer(&ds, 1).expect("engine layer");

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("layer-chain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test directory");
    let socket = dir.join("rankd.sock");
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let server = Server::bind(engine, ServeConfig::new(&socket)).expect("bind");
    let control = server.control();
    let daemon = std::thread::spawn(move || server.run());

    let client = engine::Client::connect(&socket).expect("connect");
    let mut ctl = engine::Client::connect(&socket).expect("connect control");
    let mut q = QueryConn::open(Session::new(client), &ds.list, &ds.values).expect("PUT");
    q.s.rank_h(Kind::Rank, &q.rank_body, &ds.ranks).expect("warm rank");
    q.s.scan_h(&q.scan_body, &ds.scan).expect("warm scan");
    let s0 = Snapshot::take(&mut ctl).expect("stats");
    q.s.stage = Stage::Window;
    for _ in 0..ROUNDS {
        q.s.rank_h(Kind::Rank, &q.rank_body, &ds.ranks).expect("rank");
        q.s.scan_h(&q.scan_body, &ds.scan).expect("scan");
    }
    let s1 = Snapshot::take(&mut ctl).expect("stats");
    let tally = std::mem::take(&mut q.s.tally);
    control.request_shutdown();
    drop((q, ctl));
    daemon.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);

    let client_rank = median(tally.window.of(Kind::Rank)).expect("rank samples");
    let client_scan = median(tally.window.of(Kind::Scan)).expect("scan samples");
    let mut violations = Vec::new();
    for (lib_ms, exec_ms, wait_ms, client_ms) in [
        (lib.rank_ms, eng.exec_ms, eng.rank_wait_ms, client_rank),
        (lib.scan_ms, eng.scan_exec_ms, eng.scan_wait_ms, client_scan),
    ] {
        let levels = [
            ("walk", walk_ms),
            ("listrank", lib_ms),
            ("engine.exec", exec_ms),
            ("engine.submit_wait", wait_ms),
            ("client", client_ms),
        ];
        violations.extend(chain_violations(&levels, BAND));
    }
    assert!(violations.is_empty(), "layer chain not monotone: {violations:?}");

    // Every window request is a job; the server's six phases, summed
    // over the window, must not exceed the client-observed total.
    assert_eq!(tally.jobs, 2 * ROUNDS as u64);
    let phase_ms: f64 = Phase::ALL
        .iter()
        .map(|p| hist_delta(&s1.v2.phase[p.index()], &s0.v2.phase[p.index()]).sum() as f64 / 1e6)
        .sum();
    assert!(
        phase_ms <= tally.job_client_ms,
        "server phases {phase_ms:.3} ms exceed client-observed {:.3} ms",
        tally.job_client_ms
    );
}
