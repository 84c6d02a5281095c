//! Integration tests for the `rankd serve` socket front-end: parity
//! with `HostRunner` over the real wire, protocol error handling, the
//! queue's backpressure as admission control, and graceful shutdown.
#![cfg(unix)]

use engine::client::{Call, Client, ClientError};
use engine::protocol::{self, ErrorCode, FrameKind, ReadFrameError, WireOp, MAX_FRAME_DEFAULT};
use engine::server::{ServeConfig, Server, ServerControl, ServerStats};
use engine::{Engine, EngineConfig};
use listkit::gen;
use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, MinOp, XorOp};
use listkit::segmented::{self, SegOp};
use listrank::{Algorithm, HostRunner};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

/// A per-test socket path that cannot collide across parallel tests or
/// stale runs.
fn sock_path(tag: &str) -> PathBuf {
    let seq = SOCK_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rankd-test-{}-{tag}-{seq}.sock", std::process::id()))
}

struct Running {
    control: ServerControl,
    path: PathBuf,
    join: std::thread::JoinHandle<std::io::Result<ServerStats>>,
}

impl Running {
    fn stop(self) -> ServerStats {
        self.control.request_shutdown();
        self.join.join().expect("server thread").expect("server run")
    }
}

fn start(
    tag: &str,
    engine_cfg: EngineConfig,
    tune: impl FnOnce(ServeConfig) -> ServeConfig,
) -> Running {
    let path = sock_path(tag);
    let cfg = tune(ServeConfig::new(&path).with_drain_grace(Duration::from_secs(10)));
    let engine = Arc::new(Engine::new(engine_cfg));
    let server = Server::bind(engine, cfg).expect("bind test socket");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());
    Running { control, path, join }
}

fn small_engine() -> EngineConfig {
    EngineConfig::default().with_workers(2).with_inner_threads(1)
}

/// Raw-socket helper: write one frame, read one frame.
fn roundtrip(stream: &mut UnixStream, kind: u8, body: &[u8]) -> protocol::Frame {
    protocol::write_frame(stream, kind, body).expect("write frame");
    protocol::read_frame(stream, MAX_FRAME_DEFAULT).expect("read frame").expect("reply frame")
}

fn expect_error(frame: &protocol::Frame, code: ErrorCode) {
    assert_eq!(FrameKind::from_u8(frame.kind), Some(FrameKind::Error), "want error frame");
    let (_, decoded, msg) = protocol::decode_error(&frame.body).expect("decodable error");
    assert_eq!(decoded, Some(code), "unexpected error code (message: {msg})");
}

#[test]
fn every_operator_parity_with_host_runner() {
    let server = start("ops", small_engine(), |c| c);
    let mut client = Client::connect(&server.path).expect("connect");
    let runner = HostRunner::new(Algorithm::ReidMiller);
    for &n in &[1usize, 2, 97, 4096, 20_000] {
        let list = gen::random_list(n, 0xC90 ^ n as u64);
        let i64s: Vec<i64> = (0..n as i64).map(|i| (i % 23) - 11).collect();
        let u64s: Vec<u64> =
            (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) ^ i).collect();
        let affs: Vec<Affine> =
            (0..n as i64).map(|i| Affine::new((i % 5) - 2, (i % 7) - 3)).collect();
        let starts: Vec<bool> = (0..n).map(|v| v % 7 == 0).collect();

        assert_eq!(client.call(&Call::rank(&list)).expect("rank").output, runner.rank(&list));
        assert_eq!(
            client.call(&Call::scan(&list, &i64s, AddOp)).expect("add").output,
            runner.scan(&list, &i64s, &AddOp)
        );
        assert_eq!(
            client.call(&Call::scan(&list, &i64s, MaxOp)).expect("max").output,
            runner.scan(&list, &i64s, &MaxOp)
        );
        assert_eq!(
            client.call(&Call::scan(&list, &i64s, MinOp)).expect("min").output,
            runner.scan(&list, &i64s, &MinOp)
        );
        assert_eq!(
            client.call(&Call::scan(&list, &u64s, XorOp)).expect("xor").output,
            runner.scan(&list, &u64s, &XorOp)
        );
        assert_eq!(
            client.call(&Call::scan(&list, &affs, AffineOp)).expect("affine").output,
            runner.scan(&list, &affs, &AffineOp)
        );
        let wrapped = segmented::wrap(&i64s, &starts);
        let seg_expected = segmented::unwrap_exclusive(
            &runner.scan(&list, &wrapped, &SegOp(AddOp)),
            &starts,
            &AddOp,
        );
        assert_eq!(
            client.call(&Call::segmented(&list, &i64s, &starts, AddOp)).expect("seg add").output,
            seg_expected
        );
        let wrapped_max = segmented::wrap(&i64s, &starts);
        let seg_max_expected = segmented::unwrap_exclusive(
            &runner.scan(&list, &wrapped_max, &SegOp(MaxOp)),
            &starts,
            &MaxOp,
        );
        assert_eq!(
            client.call(&Call::segmented(&list, &i64s, &starts, MaxOp)).expect("seg max").output,
            seg_max_expected
        );
    }
    // Sharded-path routing over the wire agrees too.
    let big = gen::random_list(50_000, 7);
    assert_eq!(
        client.call(&Call::rank(&big).sharded()).expect("rank sharded").output,
        runner.rank(&big)
    );
    let vals: Vec<i64> = (0..50_000).map(|i| (i % 13) - 6).collect();
    assert_eq!(
        client.call(&Call::scan(&big, &vals, AddOp).sharded()).expect("scan sharded").output,
        runner.scan(&big, &vals, &AddOp)
    );
    drop(client);
    server.stop();
}

#[test]
fn multiple_concurrent_clients_all_get_correct_answers() {
    let server = start("multi", small_engine(), |c| c);
    let path = server.path.clone();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).expect("connect");
                let runner = HostRunner::new(Algorithm::ReidMiller);
                for j in 0..6 {
                    let n = 500 + 700 * t + 113 * j;
                    let list = gen::random_list(n, (t * 31 + j) as u64);
                    let vals: Vec<i64> = (0..n as i64).map(|i| (i % 19) - 9).collect();
                    assert_eq!(
                        client.call(&Call::rank(&list)).expect("rank").output,
                        runner.rank(&list)
                    );
                    assert_eq!(
                        client.call(&Call::scan(&list, &vals, AddOp)).expect("scan").output,
                        runner.scan(&list, &vals, &AddOp)
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let stats = server.stop();
    assert_eq!(stats.connections_total, 4);
    assert!(stats.frames_in >= 4 + 4 * 12, "hello + 12 requests per client");
    assert_eq!(stats.connections_active, 0);
}

#[test]
fn malformed_frames_get_error_replies_without_killing_the_connection() {
    let server = start("malformed", small_engine(), |c| c);
    let mut stream = UnixStream::connect(&server.path).expect("connect raw");

    // A request before HELLO is answered (with a typed error), not
    // dropped.
    let reply = roundtrip(&mut stream, FrameKind::Stats as u8, &[]);
    expect_error(&reply, ErrorCode::ExpectedHello);

    let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &protocol::hello_body());
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::HelloOk));

    // Unknown frame kind: typed error, connection lives.
    let reply = roundtrip(&mut stream, 0x7F, &[1, 2, 3]);
    expect_error(&reply, ErrorCode::UnknownKind);

    // Truncated RANK body (claims 4 vertices, carries none).
    let mut bad = vec![0u8]; // flags
    bad.extend_from_slice(&0u32.to_le_bytes()); // head
    bad.extend_from_slice(&4u32.to_le_bytes()); // n = 4, but no successors
    let reply = roundtrip(&mut stream, FrameKind::Rank as u8, &bad);
    expect_error(&reply, ErrorCode::Malformed);

    // Structurally invalid successor array (out-of-range link).
    let mut invalid = vec![0u8];
    invalid.extend_from_slice(&0u32.to_le_bytes());
    invalid.extend_from_slice(&2u32.to_le_bytes());
    invalid.extend_from_slice(&9u32.to_le_bytes()); // next[0] = 9 out of range
    invalid.extend_from_slice(&1u32.to_le_bytes());
    let reply = roundtrip(&mut stream, FrameKind::Rank as u8, &invalid);
    expect_error(&reply, ErrorCode::Malformed);

    // Unknown operator byte.
    let list = gen::random_list(4, 1);
    let (_, mut unknown_op) = Call::scan(&list, &[1i64, 2, 3, 4], AddOp).encode();
    unknown_op[1] = 0x63;
    let reply = roundtrip(&mut stream, FrameKind::Scan as u8, &unknown_op);
    expect_error(&reply, ErrorCode::UnknownOp);

    // Trailing garbage after a well-formed body.
    let mut trailing = Call::rank(&list).encode().1;
    trailing.extend_from_slice(&[0xAA, 0xBB]);
    let reply = roundtrip(&mut stream, FrameKind::Rank as u8, &trailing);
    expect_error(&reply, ErrorCode::Malformed);

    // After all of that abuse, a valid request still works.
    let reply = roundtrip(&mut stream, FrameKind::Rank as u8, &Call::rank(&list).encode().1);
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::Output));
    let (_, ranks) = protocol::decode_output::<u64>(&reply.body).expect("output");
    assert_eq!(ranks, HostRunner::new(Algorithm::Serial).rank(&list));

    let stats = server.stop();
    assert!(stats.errors_sent >= 6);
}

#[test]
fn handshake_failures_close_the_connection() {
    let server = start("handshake", small_engine(), |c| c);

    // Version mismatch.
    let mut stream = UnixStream::connect(&server.path).expect("connect");
    let mut hello = protocol::hello_body();
    hello[4] = 0xFF; // clobber the version field
    hello[5] = 0xFF;
    let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &hello);
    expect_error(&reply, ErrorCode::VersionMismatch);
    assert!(
        matches!(protocol::read_frame(&mut stream, MAX_FRAME_DEFAULT), Ok(None)),
        "server should close after a version mismatch"
    );

    // Bad magic.
    let mut stream = UnixStream::connect(&server.path).expect("connect");
    let mut hello = protocol::hello_body();
    hello[0] ^= 0xFF;
    let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &hello);
    expect_error(&reply, ErrorCode::BadMagic);
    assert!(matches!(protocol::read_frame(&mut stream, MAX_FRAME_DEFAULT), Ok(None)));

    // The typed client surfaces the mismatch as a server error.
    // (Simulated by a too-large frame cap probe instead: connect still
    // succeeds with the well-formed handshake.)
    let client = Client::connect(&server.path).expect("well-formed handshake still accepted");
    drop(client);
    server.stop();
}

#[test]
fn oversized_frames_are_rejected_and_fatal() {
    let server = start("oversize", small_engine(), |c| c.with_max_frame(1024));

    // HELLO_OK advertises the cap this server actually enforces, not
    // the protocol default.
    let probe = Client::connect(&server.path).expect("connect typed");
    assert_eq!(probe.server_max_frame(), 1024);
    drop(probe);

    let mut stream = UnixStream::connect(&server.path).expect("connect");
    let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &protocol::hello_body());
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::HelloOk));

    // Claim a 2 MiB frame against a 1 KiB cap: the server answers with
    // FrameTooLarge and closes (framing is no longer trustworthy). The
    // prefix and kind go out in one write: the server may close as
    // soon as it has read the prefix, and a second write would race
    // that close.
    use std::io::Write as _;
    let mut head = (2u32 << 20).to_le_bytes().to_vec();
    head.push(FrameKind::Rank as u8);
    stream.write_all(&head).expect("write oversized prefix and kind");
    stream.flush().expect("flush");
    let reply = protocol::read_frame(&mut stream, MAX_FRAME_DEFAULT).expect("read").expect("reply");
    expect_error(&reply, ErrorCode::FrameTooLarge);
    // Closed from the server side: clean EOF, or ECONNRESET when the
    // unread remainder of the oversized frame was still queued.
    assert!(matches!(
        protocol::read_frame(&mut stream, MAX_FRAME_DEFAULT),
        Ok(None) | Err(ReadFrameError::Io(_))
    ));
    server.stop();
}

#[test]
fn client_surfaces_typed_server_errors() {
    let server = start("typed-errors", small_engine(), |c| c);
    let mut client = Client::connect(&server.path).expect("connect");
    // A length mismatch the protocol can express but submit validation
    // rejects: 4-vertex list, 3 values. Build the body by hand (the
    // typed client API makes this impossible to construct).
    let list = gen::random_list(4, 2);
    let mut body = Vec::new();
    body.push(0u8);
    body.push(WireOp::Add as u8);
    body.extend_from_slice(&list.head().to_le_bytes());
    body.extend_from_slice(&4u32.to_le_bytes());
    for &s in list.links() {
        body.extend_from_slice(&s.to_le_bytes());
    }
    // Only 3 values → decoder sees a truncated value array.
    for v in [1i64, 2, 3] {
        body.extend_from_slice(&v.to_le_bytes());
    }
    let mut stream = UnixStream::connect(&server.path).expect("raw connect");
    let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &protocol::hello_body());
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::HelloOk));
    let reply = roundtrip(&mut stream, FrameKind::Scan as u8, &body);
    expect_error(&reply, ErrorCode::Malformed);

    // The typed client keeps working on its own connection, and typed
    // errors decode into ClientError::Server with the right code.
    match client.stats() {
        Ok(stats) => assert!(stats.errors_sent >= 1),
        Err(e) => panic!("stats after another client's error: {e}"),
    }
    drop(client);
    server.stop();
}

#[test]
fn backpressure_blocks_flooding_clients_instead_of_failing_them() {
    // A deliberately tiny engine: one worker, a one-slot queue. Six
    // clients each push six jobs as fast as the socket allows; every
    // job must complete (blocking submit = admission control), and the
    // engine must never report a non-blocking rejection.
    let cfg = EngineConfig::default()
        .with_workers(1)
        .with_inner_threads(1)
        .with_queue_capacity(1)
        .with_batching(1, 1);
    let server = start("flood", cfg, |c| c);
    let path = server.path.clone();
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).expect("connect");
                let runner = HostRunner::new(Algorithm::ReidMiller);
                for j in 0..6 {
                    let n = 5_000 + 997 * t + j;
                    let list = gen::random_list(n, (t * 7 + j) as u64);
                    assert_eq!(
                        client.call(&Call::rank(&list)).expect("rank").output,
                        runner.rank(&list)
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("flooding client");
    }
    let mut probe = Client::connect(&server.path).expect("probe");
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.engine_completed, 36, "every flooded job completed");
    drop(probe);
    let server_stats = server.stop();
    assert_eq!(server_stats.busy_rejected, 0);
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let server = start("drain", small_engine(), |c| c);

    // Client B gets a big job in flight…
    let path_b = server.path.clone();
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(&path_b).expect("connect B");
        let list = gen::random_list(400_000, 0xD12A);
        let ranks = client.call(&Call::rank(&list)).expect("in-flight job must complete").output;
        assert_eq!(ranks, HostRunner::new(Algorithm::ReidMiller).rank(&list));
    });
    // …while client A asks the daemon to shut down.
    std::thread::sleep(Duration::from_millis(30));
    let client_a = Client::connect(&server.path).expect("connect A");
    client_a.shutdown().expect("SHUTDOWN acknowledged");

    worker.join().expect("client B");
    let stats = server.join.join().expect("server thread").expect("server run");
    assert_eq!(stats.connections_active, 0, "all handlers drained");
    // The socket file is gone; a new connection is refused.
    assert!(Client::connect(&server.path).is_err(), "daemon is down");
}

#[test]
fn busy_rejection_at_max_clients() {
    let server = start("busy", small_engine(), |c| c.with_max_clients(1));
    let first = Client::connect(&server.path).expect("first client");
    // Give the accept loop a beat to register the first connection.
    std::thread::sleep(Duration::from_millis(100));
    match Client::connect(&server.path) {
        Err(e) => assert_eq!(e.server_code(), Some(ErrorCode::Busy), "got {e}"),
        Ok(_) => panic!("second client should be rejected at max-clients 1"),
    }
    drop(first);
    let stats = server.stop();
    assert_eq!(stats.busy_rejected, 1);
    assert_eq!(stats.connections_total, 1);
}

#[test]
fn stats_frame_reports_engine_and_serving_counters() {
    let server = start("stats", small_engine(), |c| c);
    let mut client = Client::connect(&server.path).expect("connect");
    let list = gen::random_list(1000, 3);
    client.call(&Call::rank(&list)).expect("rank");
    client.call(&Call::scan(&list, &vec![1i64; 1000], AddOp)).expect("scan");
    let stats = client.stats().expect("stats");
    assert!(stats.engine_completed >= 2);
    assert!(stats.engine_elements >= 2000);
    assert_eq!(stats.connections_active, 1);
    assert!(stats.frames_in >= 3);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    assert!(stats.text.contains("jobs:"), "rendered engine report present:\n{}", stats.text);
    assert!(stats.text.contains("connections:"), "serving section present:\n{}", stats.text);
    drop(client);
    server.stop();
}

#[test]
fn serve_secs_deadline_expires_on_its_own() {
    let path = sock_path("deadline");
    let cfg = ServeConfig::new(&path)
        .with_serve_secs(Some(1))
        .with_drain_grace(Duration::from_millis(200));
    let engine = Arc::new(Engine::new(small_engine()));
    let server = Server::bind(engine, cfg).expect("bind");
    let t0 = Instant::now();
    let stats = server.run().expect("run to deadline");
    let elapsed = t0.elapsed();
    assert!(elapsed >= Duration::from_secs(1), "served the full window");
    assert!(elapsed < Duration::from_secs(5), "exited promptly after the deadline");
    assert_eq!(stats.connections_total, 0);
    assert!(!path.exists(), "socket file removed");
}

#[test]
fn stalled_mid_frame_client_cannot_block_shutdown() {
    // A client that sends a partial frame and then goes silent must
    // not pin its handler (and with it, the daemon's shutdown)
    // forever: once the drain grace expires, the half-received frame
    // is abandoned and the handler exits.
    let path = sock_path("stall");
    let cfg = ServeConfig::new(&path).with_drain_grace(Duration::from_millis(300));
    let engine = Arc::new(Engine::new(small_engine()));
    let server = Server::bind(engine, cfg).expect("bind");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    use std::io::Write as _;
    let mut stream = UnixStream::connect(&path).expect("connect");
    protocol::write_frame(&mut stream, FrameKind::Hello as u8, &protocol::hello_body())
        .expect("hello");
    let _ = protocol::read_frame(&mut stream, MAX_FRAME_DEFAULT).expect("hello ok");
    // Start a RANK frame: length prefix only, then stall.
    stream.write_all(&100u32.to_le_bytes()).expect("partial frame");
    stream.flush().expect("flush");

    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    control.request_shutdown();
    let stats = join.join().expect("server thread").expect("server run");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown must not wait on a stalled mid-frame client"
    );
    assert_eq!(stats.connections_active, 0);
    drop(stream);
}

#[test]
fn bind_refuses_to_steal_a_live_socket_but_reclaims_a_stale_one() {
    let server = start("bindsafe", small_engine(), |c| c);
    // A second server on the same live path must fail AddrInUse, not
    // silently unlink the running daemon's socket.
    let engine2 = Arc::new(Engine::new(small_engine()));
    match Server::bind(engine2, ServeConfig::new(&server.path)) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "got {e}"),
        Ok(_) => panic!("second bind on a live socket must fail"),
    }
    // The first daemon is unharmed.
    let mut client = Client::connect(&server.path).expect("original daemon still reachable");
    client.stats().expect("still serving");
    drop(client);
    server.stop();

    // A *stale* file (daemon gone, file left behind) is reclaimed.
    let stale = sock_path("stale");
    {
        let e = Arc::new(Engine::new(small_engine()));
        let s = Server::bind(e, ServeConfig::new(&stale)).expect("bind");
        drop(s); // bound but never run: socket file stays behind
    }
    assert!(stale.exists(), "stale socket file left behind");
    let engine3 = Arc::new(Engine::new(small_engine()));
    let reclaimed = Server::bind(engine3, ServeConfig::new(&stale)).expect("reclaim stale socket");
    let control = reclaimed.control();
    let join = std::thread::spawn(move || reclaimed.run());
    Client::connect(&stale).expect("reclaimed daemon serves");
    control.request_shutdown();
    join.join().expect("server thread").expect("run");
}

#[test]
fn client_that_never_reads_its_reply_cannot_block_shutdown() {
    // The reply to a 300k-vertex rank (~2.4 MB) far exceeds the socket
    // buffer, so the handler blocks writing it while this client
    // refuses to read. Shutdown must still complete: once the drain
    // grace expires the stalled write is abandoned and the handler
    // exits.
    let path = sock_path("noread");
    let cfg = ServeConfig::new(&path).with_drain_grace(Duration::from_millis(300));
    let engine = Arc::new(Engine::new(small_engine()));
    let server = Server::bind(engine, cfg).expect("bind");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let mut stream = UnixStream::connect(&path).expect("connect");
    protocol::write_frame(&mut stream, FrameKind::Hello as u8, &protocol::hello_body())
        .expect("hello");
    let _ = protocol::read_frame(&mut stream, MAX_FRAME_DEFAULT).expect("hello ok");
    let list = gen::random_list(300_000, 0xBAD);
    protocol::write_frame(&mut stream, FrameKind::Rank as u8, &Call::rank(&list).encode().1)
        .expect("rank request");
    // Give the job time to execute and the reply write time to fill
    // the socket buffer and stall… then never read.
    std::thread::sleep(Duration::from_millis(500));

    let t0 = Instant::now();
    control.request_shutdown();
    let stats = join.join().expect("server thread").expect("server run");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shutdown must not wait on a client that never drains its replies"
    );
    assert_eq!(stats.connections_active, 0);
    drop(stream);
}

// ---- resident dataset store (protocol v3) --------------------------

/// A small adversarial topology zoo for the wire-level handle parity
/// tests (mirrors `tests/differential.rs`, scaled for socket traffic).
fn wire_zoo(n: usize) -> Vec<(String, listkit::LinkedList)> {
    use listkit::gen::Layout;
    let seed = 0xC90 ^ n as u64;
    let mut out = vec![
        ("chain".to_string(), gen::sequential_list(n)),
        ("reversed".to_string(), gen::list_with_layout(n, Layout::Reversed, seed)),
        ("random".to_string(), gen::list_with_layout(n, Layout::Random, seed)),
        ("blocked".to_string(), gen::list_with_layout(n, Layout::Blocked(3), seed)),
    ];
    if n > 71 {
        // 71 is prime and divides none of the zoo sizes, so the strided
        // layout stays a permutation.
        out.push(("strided".to_string(), gen::list_with_layout(n, Layout::Strided(71), seed)));
    }
    out
}

#[test]
fn handle_queries_are_byte_identical_to_inline_for_every_op() {
    // The wire half of the handle differential oracle: every
    // handle-routed op kind must produce byte-identical output to the
    // same op shipped inline, across the topology zoo and the
    // off-by-one sizes.
    let server = start("handle-parity", small_engine(), |c| c);
    let mut client = Client::connect(&server.path).expect("connect");
    for &n in &[1usize, 2, 3, 127, 1024, 1025] {
        for (name, list) in wire_zoo(n) {
            let i64s: Vec<i64> = (0..n as i64).map(|i| (i % 23) - 11).collect();
            let u64s: Vec<u64> =
                (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) ^ i).collect();
            let affs: Vec<Affine> =
                (0..n as i64).map(|i| Affine::new((i % 5) - 2, (i % 7) - 3)).collect();
            let starts: Vec<bool> = (0..n).map(|v| v % 7 == 0).collect();

            let receipt = client.put(&list).expect("put");
            let h = receipt.handle;
            assert!(receipt.bytes >= 4 * n as u64, "receipt charges at least the links");

            assert_eq!(
                client.call(&Call::rank(h)).expect("rank_h").output,
                client.call(&Call::rank(&list)).expect("rank").output,
                "rank diverged on {name} n={n}"
            );
            assert_eq!(
                client.call(&Call::scan(h, &i64s, AddOp)).expect("add_h").output,
                client.call(&Call::scan(&list, &i64s, AddOp)).expect("add").output,
                "add diverged on {name} n={n}"
            );
            assert_eq!(
                client.call(&Call::scan(h, &i64s, MaxOp)).expect("max_h").output,
                client.call(&Call::scan(&list, &i64s, MaxOp)).expect("max").output,
                "max diverged on {name} n={n}"
            );
            assert_eq!(
                client.call(&Call::scan(h, &i64s, MinOp)).expect("min_h").output,
                client.call(&Call::scan(&list, &i64s, MinOp)).expect("min").output,
                "min diverged on {name} n={n}"
            );
            assert_eq!(
                client.call(&Call::scan(h, &u64s, XorOp)).expect("xor_h").output,
                client.call(&Call::scan(&list, &u64s, XorOp)).expect("xor").output,
                "xor diverged on {name} n={n}"
            );
            assert_eq!(
                client.call(&Call::scan(h, &affs, AffineOp)).expect("affine_h").output,
                client.call(&Call::scan(&list, &affs, AffineOp)).expect("affine").output,
                "affine diverged on {name} n={n}"
            );
            assert_eq!(
                client.call(&Call::segmented(h, &i64s, &starts, AddOp)).expect("seg_add_h").output,
                client
                    .call(&Call::segmented(&list, &i64s, &starts, AddOp))
                    .expect("seg_add")
                    .output,
                "segmented add diverged on {name} n={n}"
            );
            assert_eq!(
                client.call(&Call::segmented(h, &i64s, &starts, MaxOp)).expect("seg_max_h").output,
                client
                    .call(&Call::segmented(&list, &i64s, &starts, MaxOp))
                    .expect("seg_max")
                    .output,
                "segmented max diverged on {name} n={n}"
            );
            client.drop_handle(h).expect("drop");
        }
    }
    // Sharded routing by handle agrees with sharded routing inline.
    let big = gen::random_list(50_000, 7);
    let h = client.put(&big).expect("put big").handle;
    assert_eq!(
        client.call(&Call::rank(h).sharded()).expect("rank_h sharded").output,
        client.call(&Call::rank(&big).sharded()).expect("rank sharded").output
    );
    let vals: Vec<i64> = (0..50_000).map(|i| (i % 13) - 6).collect();
    assert_eq!(
        client.call(&Call::scan(h, &vals, AddOp).sharded()).expect("scan_h sharded").output,
        client.call(&Call::scan(&big, &vals, AddOp).sharded()).expect("scan sharded").output
    );

    // The store counters saw all of it: every handle query was a hit.
    let v2 = client.stats_v2().expect("stats_v2");
    assert!(v2.store.hits > 0, "handle queries hit the store");
    assert_eq!(v2.store.misses, 0, "no handle query missed");
    assert_eq!(v2.store.hits, v2.store.lookups, "hits + misses == lookups");
    assert!(v2.store.puts > 0);
    drop(client);
    server.stop();
}

#[test]
fn stale_and_foreign_handles_fail_typed_on_a_surviving_connection() {
    let server = start("handle-stale", small_engine(), |c| c);
    let mut a = Client::connect(&server.path).expect("connect a");
    let list = gen::random_list(64, 5);
    let h = a.put(&list).expect("put").handle;

    // Another connection cannot see (or drop) a's handle.
    let mut b = Client::connect(&server.path).expect("connect b");
    assert_eq!(
        b.call(&Call::rank(h)).expect_err("foreign handle").server_code(),
        Some(ErrorCode::StaleHandle)
    );
    assert_eq!(
        b.drop_handle(h).expect_err("foreign drop").server_code(),
        Some(ErrorCode::StaleHandle)
    );
    b.call(&Call::rank(&list)).expect("b's connection survives the stale handle");

    // A handle that was never issued.
    assert_eq!(
        a.call(&Call::rank(0xDEAD_BEEF)).expect_err("unknown handle").server_code(),
        Some(ErrorCode::StaleHandle)
    );

    // Use-after-DROP and double-DROP.
    a.drop_handle(h).expect("first drop succeeds");
    assert_eq!(
        a.call(&Call::rank(h)).expect_err("use after drop").server_code(),
        Some(ErrorCode::StaleHandle)
    );
    assert_eq!(
        a.call(&Call::scan(h, &[1i64; 64], AddOp)).expect_err("scan after drop").server_code(),
        Some(ErrorCode::StaleHandle)
    );
    assert_eq!(
        a.drop_handle(h).expect_err("double drop").server_code(),
        Some(ErrorCode::StaleHandle)
    );
    a.call(&Call::rank(&list)).expect("a's connection survives all of it");

    // Connection teardown reaps b's datasets — and only b's.
    let ha = a.put(&list).expect("fresh put on a").handle;
    let hb = b.put(&list).expect("put on b").handle;
    drop(b);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        a.call(&Call::rank(hb)).expect_err("handle died with b").server_code(),
        Some(ErrorCode::StaleHandle)
    );
    a.call(&Call::rank(ha)).expect("a's dataset survived b's teardown");
    let v2 = a.stats_v2().expect("stats_v2");
    assert_eq!(v2.store.resident_count, 1, "only b's dataset was reaped");
    drop(a);
    server.stop();
}

#[test]
fn malformed_put_and_handle_frames_recover_with_typed_errors() {
    let server = start("put-malformed", small_engine(), |c| c);
    let mut stream = UnixStream::connect(&server.path).expect("connect raw");
    let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &protocol::hello_body());
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::HelloOk));

    // Truncated PUT (claims 4 vertices, carries none).
    let mut truncated = vec![0u8];
    truncated.extend_from_slice(&0u32.to_le_bytes());
    truncated.extend_from_slice(&4u32.to_le_bytes());
    let reply = roundtrip(&mut stream, FrameKind::Put as u8, &truncated);
    expect_error(&reply, ErrorCode::Malformed);

    // Reserved flag bits must be zero.
    let list = gen::random_list(4, 1);
    let mut flagged = protocol::put_body(&list);
    flagged[0] = 0x01;
    let reply = roundtrip(&mut stream, FrameKind::Put as u8, &flagged);
    expect_error(&reply, ErrorCode::Malformed);

    // Oversized body: trailing bytes after a well-formed PUT.
    let mut trailing = protocol::put_body(&list);
    trailing.push(0xAA);
    let reply = roundtrip(&mut stream, FrameKind::Put as u8, &trailing);
    expect_error(&reply, ErrorCode::Malformed);

    // Structurally invalid successor array (out-of-range link).
    let mut invalid = vec![0u8];
    invalid.extend_from_slice(&0u32.to_le_bytes());
    invalid.extend_from_slice(&2u32.to_le_bytes());
    invalid.extend_from_slice(&9u32.to_le_bytes());
    invalid.extend_from_slice(&1u32.to_le_bytes());
    let reply = roundtrip(&mut stream, FrameKind::Put as u8, &invalid);
    expect_error(&reply, ErrorCode::Malformed);

    // Truncated RANK_H (handle cut short).
    let reply = roundtrip(&mut stream, FrameKind::RankH as u8, &[0u8, 1, 2, 3]);
    expect_error(&reply, ErrorCode::Malformed);

    // A real PUT on the abused connection still works…
    let reply = roundtrip(&mut stream, FrameKind::Put as u8, &protocol::put_body(&list));
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::PutOk));
    let (handle, bytes) = protocol::decode_put_ok(&reply.body).expect("put_ok");
    assert!(bytes > 0);

    // …a SCAN_H whose value count disagrees with the resident dataset
    // fails submit validation, typed, without killing the connection…
    let (_, body) = Call::scan(handle, &[1i64, 2, 3], AddOp).encode();
    let reply = roundtrip(&mut stream, FrameKind::ScanH as u8, &body);
    expect_error(&reply, ErrorCode::InvalidRequest);

    // …and the handle still resolves afterwards.
    let reply = roundtrip(&mut stream, FrameKind::RankH as u8, &Call::rank(handle).encode().1);
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::Output));
    let (_, ranks) = protocol::decode_output::<u64>(&reply.body).expect("output");
    assert_eq!(ranks, HostRunner::new(Algorithm::Serial).rank(&list));

    let stats = server.stop();
    assert!(stats.errors_sent >= 6);
}

#[test]
fn put_with_a_planted_cycle_is_malformed_and_the_next_put_succeeds() {
    let server = start("put-cycle", small_engine(), |c| c);
    let mut stream = UnixStream::connect(&server.path).expect("connect raw");
    let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &protocol::hello_body());
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::HelloOk));

    // A random 2^16 list whose vertex at position 3n/4 links back to the
    // one at n/4: the walk from the head circles and never reaches the
    // tail. PUT body: flags (1) + head (4) + n (4) + n links (4 each).
    let n = 1 << 16;
    let list = gen::random_list(n, 0xC1C);
    let order = list.order();
    let mut cyclic = protocol::put_body(&list);
    let at = 9 + 4 * order[3 * n / 4] as usize;
    cyclic[at..at + 4].copy_from_slice(&order[n / 4].to_le_bytes());
    let reply = roundtrip(&mut stream, FrameKind::Put as u8, &cyclic);
    expect_error(&reply, ErrorCode::Malformed);

    // The next valid PUT on the same connection is admitted and served.
    let reply = roundtrip(&mut stream, FrameKind::Put as u8, &protocol::put_body(&list));
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::PutOk));
    let (handle, _) = protocol::decode_put_ok(&reply.body).expect("put_ok");
    let reply = roundtrip(&mut stream, FrameKind::RankH as u8, &Call::rank(handle).encode().1);
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::Output));
    let (_, ranks) = protocol::decode_output::<u64>(&reply.body).expect("output");
    assert_eq!(ranks, HostRunner::new(Algorithm::Serial).rank(&list));

    let stats = server.stop();
    assert_eq!(stats.errors_sent, 1);
}

#[test]
fn put_past_budget_is_store_full_and_lru_eviction_frees_idle_datasets() {
    // Budget fits two 1000-vertex datasets (4*1000 + 96 = 4096 bytes
    // each) but not three; a dataset bigger than the whole budget can
    // never be admitted.
    let server = start("budget", small_engine(), |c| c.with_store_budget(10_000));
    let mut client = Client::connect(&server.path).expect("connect");

    let big = gen::random_list(5_000, 1);
    assert_eq!(
        client.put(&big).expect_err("exceeds whole budget").server_code(),
        Some(ErrorCode::StoreFull)
    );
    client.call(&Call::rank(&big)).expect("connection survives StoreFull");

    let h1 = client.put(&gen::random_list(1_000, 1)).expect("first fits").handle;
    let h2 = client.put(&gen::random_list(1_000, 2)).expect("second fits").handle;
    let h3 = client.put(&gen::random_list(1_000, 3)).expect("third evicts the LRU").handle;

    // h1 was least recently used and idle → evicted; h2 and h3 live.
    assert_eq!(
        client.call(&Call::rank(h1)).expect_err("evicted handle").server_code(),
        Some(ErrorCode::StaleHandle)
    );
    client.call(&Call::rank(h2)).expect("h2 still resident");
    client.call(&Call::rank(h3)).expect("h3 still resident");

    let v2 = client.stats_v2().expect("stats_v2");
    assert_eq!(v2.store.evictions, 1);
    assert_eq!(v2.store.put_rejected, 1);
    assert_eq!(v2.store.resident_count, 2);
    assert!(v2.store.resident_bytes <= 10_000, "budget is never exceeded");
    drop(client);
    server.stop();
}

#[test]
fn only_v6_handshakes_are_accepted() {
    // The server speaks one dialect: MIN_VERSION = VERSION = 6. Every
    // other HELLO version — the older v1–v5 and a future v7 — is
    // answered with VERSION_MISMATCH and the connection is closed.
    assert_eq!((protocol::MIN_VERSION, protocol::VERSION), (6, 6));
    let server = start("versions", small_engine(), |c| c);
    for version in [1u16, 2, 3, 4, 5, 6, 7] {
        let mut stream = UnixStream::connect(&server.path).expect("connect");
        let mut hello = protocol::hello_body();
        hello[4..6].copy_from_slice(&version.to_le_bytes());
        let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &hello);
        if version == 6 {
            assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::HelloOk));
            let (v, _) = protocol::decode_hello_ok(&reply.body).expect("hello_ok");
            assert_eq!(v, 6);
            let list = gen::random_list(8, 3);
            let reply =
                roundtrip(&mut stream, FrameKind::Rank as u8, &Call::rank(&list).encode().1);
            assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::Output));
        } else {
            expect_error(&reply, ErrorCode::VersionMismatch);
            assert!(
                matches!(protocol::read_frame(&mut stream, MAX_FRAME_DEFAULT), Ok(None)),
                "v{version} connection is closed"
            );
        }
    }
    server.stop();
}

// ---- dynamic lists / mutation plane (protocol v4) ------------------

/// The live-socket half of the mutation differential oracle: drive
/// random (but always valid) edit batches through `Client::mutate`
/// while maintaining a client-side [`MutableList`] mirror, and demand
/// that every post-mutation handle query is byte-identical to a serial
/// from-scratch rank/scan of the mirror's snapshot.
#[test]
fn mutations_then_handle_queries_are_byte_identical_to_serial() {
    use listkit::dynamic::{Edit, MutableList};
    let server = start("mutate-parity", small_engine(), |c| c);
    let mut client = Client::connect(&server.path).expect("connect");
    let serial = HostRunner::new(Algorithm::Serial);

    for &n in &[4usize, 127, 1025, 20_000] {
        for (name, list) in wire_zoo(n) {
            let handle = client.put(&list).expect("put").handle;
            let mut mirror = MutableList::from_list(&list);
            let mut rng = 0x5EED_0C90u64 ^ (n as u64) << 7;
            let mut pick = move |m: u64| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) % m.max(1)
            };
            for _ in 0..4 {
                let len = mirror.len() as u64;
                let a = pick(len) as u32;
                let mut b = pick(len) as u32;
                if b == a {
                    b = (a + 1) % len as u32;
                }
                let after = if pick(8) == 0 { None } else { Some(b) };
                let edits = [
                    Edit::Splice { first: a, last: a, after },
                    Edit::Delete { v: pick(len) as u32 },
                    Edit::Append { count: 1 + pick(5) as u32 },
                ];
                mirror.apply(&edits).expect("batch valid against the mirror");
                let ok = client.mutate(handle, &edits).expect("MUTATE accepted");
                assert_eq!(ok.applied as usize, edits.len(), "{name} n={n}: whole batch");
                assert_eq!(ok.len as usize, mirror.len(), "{name} n={n}: length parity");

                let snapshot = mirror.snapshot();
                assert_eq!(
                    client.call(&Call::rank(handle)).expect("rank_h").output,
                    serial.rank(&snapshot),
                    "rank diverged after mutation on {name} n={n}"
                );
                let vals: Vec<i64> = (0..mirror.len() as i64).map(|i| (i % 17) - 8).collect();
                assert_eq!(
                    client.call(&Call::scan(handle, &vals, AddOp)).expect("scan_h").output,
                    serial.scan(&snapshot, &vals, &AddOp),
                    "scan diverged after mutation on {name} n={n}"
                );
            }
            client.drop_handle(handle).expect("drop");
        }
    }

    // The mutation plane's gauges saw the traffic.
    let v2 = client.stats_v2().expect("stats_v2");
    assert!(v2.mutate.mutations > 0, "mutation batches counted");
    assert_eq!(v2.mutate.edits, v2.mutate.mutations * 3, "three edits per batch");
    assert_eq!(
        v2.mutate.incremental + v2.mutate.full,
        0,
        "no sharded artifacts existed at these sizes, so no maintenance passes"
    );
    drop(client);
    server.stop();
}

#[test]
fn adversarial_mutations_fail_typed_on_a_surviving_connection() {
    use listkit::dynamic::Edit;
    let server = start("mutate-adversarial", small_engine(), |c| c);
    let mut a = Client::connect(&server.path).expect("connect a");
    let list = gen::random_list(64, 9);
    let h = a.put(&list).expect("put").handle;
    let baseline = a.call(&Call::rank(h)).expect("baseline rank").output;

    // Foreign handle: another connection cannot mutate a's dataset.
    let mut b = Client::connect(&server.path).expect("connect b");
    assert_eq!(
        b.mutate(h, &[Edit::Delete { v: 0 }]).expect_err("foreign mutate").server_code(),
        Some(ErrorCode::StaleHandle)
    );
    b.call(&Call::rank(&list)).expect("b survives the foreign mutation attempt");

    // A handle that was never issued.
    assert_eq!(
        a.mutate(0xDEAD_BEEF, &[Edit::Append { count: 1 }])
            .expect_err("unknown handle")
            .server_code(),
        Some(ErrorCode::StaleHandle)
    );

    // Empty batch.
    assert_eq!(
        a.mutate(h, &[]).expect_err("empty batch").server_code(),
        Some(ErrorCode::BadMutation)
    );

    // Out-of-range splice target and out-of-range delete.
    assert_eq!(
        a.mutate(h, &[Edit::Splice { first: 999, last: 999, after: None }])
            .expect_err("splice out of range")
            .server_code(),
        Some(ErrorCode::BadMutation)
    );
    assert_eq!(
        a.mutate(h, &[Edit::Delete { v: 10_000 }]).expect_err("delete out of range").server_code(),
        Some(ErrorCode::BadMutation)
    );

    // Splicing a run in front of a vertex inside that run.
    assert_eq!(
        a.mutate(h, &[Edit::Splice { first: 5, last: 5, after: Some(5) }])
            .expect_err("target in run")
            .server_code(),
        Some(ErrorCode::BadMutation)
    );

    // Rejected batches are atomic over the wire: a valid edit followed
    // by an invalid one leaves the dataset byte-identical.
    let poisoned = [Edit::Append { count: 3 }, Edit::Delete { v: 10_000 }];
    assert_eq!(
        a.mutate(h, &poisoned).expect_err("poisoned batch").server_code(),
        Some(ErrorCode::BadMutation)
    );
    assert_eq!(
        a.call(&Call::rank(h)).expect("handle still serves").output,
        baseline,
        "rejected batch must not change the dataset"
    );

    // A raw truncated MUTATE body is a framing error, not a mutation
    // error, and the raw connection survives it.
    let mut stream = UnixStream::connect(&server.path).expect("connect raw");
    let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &protocol::hello_body());
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::HelloOk));
    let reply = roundtrip(&mut stream, FrameKind::Mutate as u8, &[1, 2, 3]);
    expect_error(&reply, ErrorCode::Malformed);
    let reply = roundtrip(&mut stream, FrameKind::Stats as u8, &[]);
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::StatsOk));

    // Mutate-after-drop (and a valid mutation on a live handle works).
    a.mutate(h, &[Edit::Append { count: 2 }]).expect("valid mutation on the abused connection");
    a.drop_handle(h).expect("drop");
    assert_eq!(
        a.mutate(h, &[Edit::Delete { v: 0 }]).expect_err("mutate after drop").server_code(),
        Some(ErrorCode::StaleHandle)
    );
    a.call(&Call::rank(&list)).expect("a's connection survives everything");
    drop(a);
    drop(b);
    server.stop();
}

#[test]
fn client_error_read_frame_surfaces() {
    // Pure codec check used by the docs: an oversized prefix read with
    // a small cap fails as TooLarge, not as a misdecoded frame.
    let mut bytes: &[u8] = &[0xFF, 0xFF, 0xFF, 0x7F, 0x02];
    match protocol::read_frame(&mut bytes, 1024) {
        Err(ReadFrameError::TooLarge { len, max }) => {
            assert_eq!(len, 0x7FFF_FFFF);
            assert_eq!(max, 1024);
        }
        other => panic!("want TooLarge, got {other:?}"),
    }
    // And ClientError's Display paths don't panic.
    let e = ClientError::Server { code: 8, kind: ErrorCode::from_u16(8), message: "busy".into() };
    assert!(e.to_string().contains("busy"));
}

// ---------------------------------------------------------------------------
// Resilience: deadlines, shedding, panic isolation, signals, fault audit.
// ---------------------------------------------------------------------------

#[test]
fn zero_deadline_expires_typed_and_connection_survives() {
    let server = start("deadline-zero", small_engine(), |c| c);
    let mut client = Client::connect(&server.path).expect("connect");
    let list = gen::random_list(2000, 0xDEAD);

    // deadline_ms = 0 has always "waited too long" by the time the
    // worker dequeues it — a deterministic expiry.
    match client.call(&Call::rank(&list).deadline_ms(0)) {
        Err(e) => assert_eq!(e.server_code(), Some(ErrorCode::DeadlineExceeded), "got {e}"),
        Ok(_) => panic!("a zero deadline must expire in the queue"),
    }
    // A generous deadline sails through, byte-identical, on the SAME
    // connection — the expiry was a typed reply, not a hangup.
    let served = client.call(&Call::rank(&list).deadline_ms(60_000)).expect("generous deadline");
    assert_eq!(served.output, HostRunner::new(Algorithm::ReidMiller).rank(&list));
    // The expiry is visible in the resilience gauges.
    let v2 = client.stats_v2().expect("stats_v2");
    assert!(v2.fault.deadline_expired >= 1, "expiry counted: {:?}", v2.fault);
    drop(client);
    server.stop();
}

#[test]
fn deadline_by_handle_and_mixed_flag_bits_decode_correctly() {
    let server = start("deadline-h", small_engine(), |c| c);
    let mut client = Client::connect(&server.path).expect("connect");
    let list = gen::random_list(3000, 0xD11);
    let handle = client.put(&list).expect("put").handle;
    let served = client.call(&Call::rank(handle).deadline_ms(60_000)).expect("rank_h + deadline");
    assert_eq!(served.output, HostRunner::new(Algorithm::ReidMiller).rank(&list));

    // FLAG_SHARDED | FLAG_DEADLINE together: both decode, answer is
    // still byte-identical.
    let served =
        client.call(&Call::rank(handle).sharded().deadline_ms(60_000)).expect("both flags");
    assert_eq!(served.output, HostRunner::new(Algorithm::ReidMiller).rank(&list));
    client.drop_handle(handle).expect("drop");
    drop(client);
    server.stop();
}

#[test]
fn queue_shedding_returns_overloaded_under_flood() {
    // One worker, one-slot queue, shed watermark at depth 1: while the
    // worker is busy and one job is parked, any further request must be
    // refused with a typed OVERLOADED (not blocked, not dropped).
    let cfg = EngineConfig::default()
        .with_workers(1)
        .with_inner_threads(1)
        .with_queue_capacity(1)
        .with_batching(1, 1);
    let server = start("shed-queue", cfg, |c| c.with_shed_queue_depth(1));
    let path = server.path.clone();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).expect("connect");
                let runner = HostRunner::new(Algorithm::ReidMiller);
                let mut shed = 0u64;
                for j in 0..40 {
                    let list = gen::random_list(20_000, (t * 13 + j) as u64);
                    match client.call(&Call::rank(&list)) {
                        Ok(served) => assert_eq!(served.output, runner.rank(&list)),
                        Err(e) => {
                            assert_eq!(
                                e.server_code(),
                                Some(ErrorCode::Overloaded),
                                "only typed shedding may fail a flooder: {e}"
                            );
                            shed += 1;
                        }
                    }
                }
                shed
            })
        })
        .collect();
    let shed: u64 = threads.into_iter().map(|t| t.join().expect("flooder")).sum();
    assert!(shed >= 1, "watermark at depth 1 under a 4-client flood must shed");
    // The daemon is healthy after the storm.
    let mut probe = Client::connect(&server.path).expect("probe");
    let list = gen::random_list(500, 9);
    assert_eq!(
        probe.call(&Call::rank(&list)).expect("post-flood rank").output,
        HostRunner::new(Algorithm::ReidMiller).rank(&list)
    );
    let v2 = probe.stats_v2().expect("stats_v2");
    assert_eq!(v2.fault.shed_queue, shed, "gauge counts every queue shed");
    drop(probe);
    server.stop();
}

#[test]
fn store_shedding_returns_overloaded_before_admission() {
    // A 1-byte pressure watermark: the first PUT lands (store is
    // empty), every further PUT is refused typed while the resident
    // bytes stay above the mark.
    let server = start("shed-store", small_engine(), |c| c.with_shed_store_bytes(1));
    let mut client = Client::connect(&server.path).expect("connect");
    let list = gen::random_list(1000, 4);
    let handle = client.put(&list).expect("first PUT under the watermark").handle;
    match client.put(&list) {
        Err(e) => {
            assert_eq!(e.server_code(), Some(ErrorCode::Overloaded), "got {e}");
            assert!(e.to_string().contains("retry_after_ms"), "retry hint present: {e}");
        }
        Ok(_) => panic!("second PUT must shed at a 1-byte watermark"),
    }
    // Same connection: resident queries still work, and dropping the
    // dataset re-opens admission.
    let served = client.call(&Call::rank(handle)).expect("resident query during pressure");
    assert_eq!(served.output, HostRunner::new(Algorithm::ReidMiller).rank(&list));
    client.drop_handle(handle).expect("drop");
    let handle = client.put(&list).expect("admission re-opens once pressure clears").handle;
    client.drop_handle(handle).expect("drop");
    let v2 = client.stats_v2().expect("stats_v2");
    assert_eq!(v2.fault.shed_store, 1);
    drop(client);
    server.stop();
}

#[test]
fn panicking_job_is_isolated_to_a_typed_error() {
    // exec_panic = 1.0: every job panics inside the worker. The panic
    // must surface as a typed INTERNAL_ERROR to the one caller, the
    // connection must survive, and the engine must keep serving.
    let plane = Arc::new(engine::FaultPlane::new(engine::FaultConfig {
        exec_panic: 1.0,
        ..engine::FaultConfig::default()
    }));
    let server = start("panic-isolation", small_engine().with_fault(Arc::clone(&plane)), |c| {
        c.with_fault(Arc::clone(&plane))
    });
    let mut client = Client::connect(&server.path).expect("connect");
    let list = gen::random_list(500, 5);
    for _ in 0..3 {
        match client.call(&Call::rank(&list)) {
            Err(e) => assert_eq!(e.server_code(), Some(ErrorCode::InternalError), "got {e}"),
            Ok(_) => panic!("every job must panic at exec_panic=1.0"),
        }
    }
    // Non-job frames still answer on the same connection, and the
    // recovery gauges saw every panic.
    let v2 = client.stats_v2().expect("stats_v2 after panics");
    assert_eq!(v2.fault.injected_exec_panics, 3);
    assert_eq!(v2.fault.panics_recovered, 3);
    drop(client);
    server.stop();
}

#[test]
fn worker_panics_respawn_and_jobs_keep_completing() {
    // worker_panic = 1.0: the worker thread blows up between batches,
    // every time. The respawn loop must keep the lane staffed and
    // every job must still complete correctly.
    let plane = Arc::new(engine::FaultPlane::new(engine::FaultConfig {
        worker_panic: 1.0,
        ..engine::FaultConfig::default()
    }));
    let server = start("respawn", small_engine().with_fault(Arc::clone(&plane)), |c| {
        c.with_fault(Arc::clone(&plane))
    });
    let mut client = Client::connect(&server.path).expect("connect");
    let runner = HostRunner::new(Algorithm::ReidMiller);
    for i in 0..4 {
        let list = gen::random_list(1000 + i * 37, i as u64);
        assert_eq!(
            client.call(&Call::rank(&list)).expect("rank across respawns").output,
            runner.rank(&list)
        );
    }
    let v2 = client.stats_v2().expect("stats_v2");
    assert!(v2.fault.workers_respawned >= 1, "respawns counted: {:?}", v2.fault);
    drop(client);
    server.stop();
}

#[test]
fn client_killed_mid_reply_leaves_daemon_serving() {
    // A client that hangs up after sending its request (before reading
    // the reply) must cost the daemon nothing but that one connection:
    // the reply write fails, the handler exits, everyone else keeps
    // getting answers. With SIGPIPE mishandled this kills the process.
    let server = start("hangup", small_engine(), |c| c);
    for i in 0..3 {
        let mut stream = UnixStream::connect(&server.path).expect("raw connect");
        let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &protocol::hello_body());
        assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::HelloOk));
        let list = gen::random_list(200_000, i);
        protocol::write_frame(&mut stream, FrameKind::Rank as u8, &Call::rank(&list).encode().1)
            .expect("send request");
        // Hang up without reading the (large) reply.
        drop(stream);
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut client = Client::connect(&server.path).expect("daemon still accepting");
    let list = gen::random_list(1500, 77);
    assert_eq!(
        client.call(&Call::rank(&list)).expect("daemon still serving").output,
        HostRunner::new(Algorithm::ReidMiller).rank(&list)
    );
    drop(client);
    server.stop();
}

#[test]
fn sigterm_drains_the_rankd_daemon_gracefully() {
    // The real binary: SIGTERM must drain and exit 0, exactly like a
    // SHUTDOWN frame — not die with the default signal disposition.
    let path = sock_path("sigterm");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_rankd"))
        .args(["serve", "--socket"])
        .arg(&path)
        .args(["--workers", "1"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn rankd serve");
    // Wait for the socket, prove it serves, then TERM it.
    let mut client = None;
    for _ in 0..100 {
        if let Ok(c) = Client::connect(&path) {
            client = Some(c);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut client = client.expect("daemon came up within 5s");
    let list = gen::random_list(1000, 11);
    assert_eq!(
        client.call(&Call::rank(&list)).expect("pre-TERM rank").output,
        HostRunner::new(Algorithm::ReidMiller).rank(&list)
    );
    drop(client);
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM delivered");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "SIGTERM is a graceful drain, got {status:?}");
    assert!(Client::connect(&path).is_err(), "socket withdrawn after drain");
}

#[test]
fn adversarial_lengths_fail_typed_without_allocation() {
    // Audit regressions: every length field a client controls, pushed
    // to its extreme, must come back as a typed MALFORMED on a live
    // connection — never an OOM, a panic, or a dead handler.
    let server = start("adversarial-lengths", small_engine(), |c| c);
    let mut stream = UnixStream::connect(&server.path).expect("raw connect");
    let reply = roundtrip(&mut stream, FrameKind::Hello as u8, &protocol::hello_body());
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::HelloOk));

    // RANK claiming u32::MAX links (4·2³² bytes): the checked multiply
    // must refuse before any allocation.
    let mut body = vec![0u8];
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    let reply = roundtrip(&mut stream, FrameKind::Rank as u8, &body);
    expect_error(&reply, ErrorCode::Malformed);

    // SCAN_H claiming u32::MAX values behind an 8-byte handle.
    let mut body = vec![0u8, WireOp::Add as u8];
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    let reply = roundtrip(&mut stream, FrameKind::ScanH as u8, &body);
    expect_error(&reply, ErrorCode::Malformed);

    // MUTATE claiming u32::MAX edits with an empty edit array.
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    let reply = roundtrip(&mut stream, FrameKind::Mutate as u8, &body);
    expect_error(&reply, ErrorCode::Malformed);

    // FLAG_DEADLINE promising 8 bytes but delivering 4.
    let mut body = vec![protocol::FLAG_DEADLINE];
    body.extend_from_slice(&1000u32.to_le_bytes());
    let reply = roundtrip(&mut stream, FrameKind::Rank as u8, &body);
    expect_error(&reply, ErrorCode::Malformed);

    // After the whole gauntlet the same connection still ranks.
    let list = gen::random_list(300, 3);
    let reply = roundtrip(&mut stream, FrameKind::Rank as u8, &Call::rank(&list).encode().1);
    assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::Output));
    drop(stream);
    server.stop();
}
