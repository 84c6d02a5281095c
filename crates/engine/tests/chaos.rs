//! Chaos tests: the serving stack under deterministic fault injection.
//!
//! N clients drive a fault-armed daemon with a mixed PUT /
//! rank-by-handle / mutate workload, and three invariants must hold no
//! matter what the fault plane does:
//!
//! 1. every successful reply is byte-identical to a serial oracle;
//! 2. every failure is *typed* (an injected transport error or a
//!    known error code) — nothing silent, nothing unknown;
//! 3. after all clients disconnect the store is empty and the server
//!    drains to a clean exit.
//!
//! Protocol v6 adds a pipelined variant of the storm: the same
//! invariants, but with up to 8 request-id-tagged frames in flight per
//! connection (over the Unix socket *and* the TCP listener), injected
//! short reads/writes landing mid-pipeline, and clients killed with a
//! full window outstanding — after which the store must be empty and
//! the scheduler's in-flight gauges must drain to zero.
//!
//! The soaks take the address of the daemon they drive, so one storm
//! runs against an in-process server and against the real `rankd
//! serve` binary with its fault plane armed from the command line.
//! The quick soaks ride every CI run; the heavy ones are `#[ignore]`d
//! and picked up by the nightly `--include-ignored` pass.
#![cfg(unix)]

use engine::client::{Call, Client, ClientError, RetryPolicy};
use engine::protocol::{self, ErrorCode, FrameKind, WireStatsV2};
use engine::{EngineConfig, FaultConfig, FaultPlane};
use listkit::dynamic::MutableList;
use listkit::gen;
use listrank::{Algorithm, HostRunner};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{count_then, line_after, start, Daemon, EditStream, Running};

/// Silence the default panic report for *injected* worker panics (they
/// are caught and recovered by design); real panics keep reporting.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|m| m.contains("injected"))
                .or_else(|| info.payload().downcast_ref::<String>().map(|m| m.contains("injected")))
                .unwrap_or(false);
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// Where a soak's clients connect: a daemon's Unix socket or its TCP
/// listener.
#[derive(Clone)]
enum Target {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

impl Target {
    /// Connect with the library's retry policy, jittered by `seed`.
    fn connect(&self, seed: u64) -> Client {
        let policy = RetryPolicy::default().with_seed(seed);
        match self {
            Target::Unix(path) => Client::connect_with_retry(path, policy).expect("connect"),
            Target::Tcp(addr) => {
                Client::connect_tcp_with_retry(addr.to_string(), policy).expect("connect tcp")
            }
        }
    }
}

/// An in-process daemon (2 workers) with `spec`'s fault plane armed in
/// both the serving layer and the engine, optionally on TCP too.
fn faulted(tag: &str, spec: &str, tcp: bool) -> (Running, Arc<FaultPlane>) {
    quiet_injected_panics();
    let plane = Arc::new(FaultPlane::new(FaultConfig::parse(spec).expect("valid fault spec")));
    let engine_cfg = EngineConfig::default().with_workers(2).with_fault(Arc::clone(&plane));
    let server = start(tag, engine_cfg, |c| {
        let c = c.with_fault(Arc::clone(&plane));
        if tcp {
            c.with_tcp(Some("127.0.0.1:0".to_string()))
        } else {
            c
        }
    });
    (server, plane)
}

/// Run `storm` against a faulted in-process daemon, then require its
/// clean exit. Returns the injected-fault total so callers can assert
/// the storm was real.
fn in_process(tag: &str, spec: &str, tcp: bool, storm: impl FnOnce(&Target)) -> u64 {
    let (server, plane) = faulted(tag, spec, tcp);
    let target = match server.tcp {
        Some(addr) => Target::Tcp(addr),
        None => Target::Unix(server.path.clone()),
    };
    storm(&target);
    server.stop();
    plane.snapshot().total()
}

/// Upload the mirror under a fresh handle, riding out injected faults.
fn reput(client: &mut Client, mirror: &MutableList) -> u64 {
    let snapshot = mirror.snapshot();
    for _ in 0..200 {
        match client.put(&snapshot) {
            Ok(receipt) => return receipt.handle,
            Err(ClientError::Io(_)) => {
                let _ = client.reconnect();
            }
            Err(e) if e.server_code().is_some() => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => panic!("un-typed PUT failure: {e}"),
        }
    }
    panic!("PUT could not be placed in 200 attempts");
}

/// Exact store and scheduler accounting once every client has
/// disconnected: no resident dataset or byte, and both in-flight gauges
/// drained. The probe goes through the fault plane too, so a failed
/// STATS is retried, up to 20 times.
fn settle(target: &Target) -> WireStatsV2 {
    let mut probe = target.connect(0x960BE);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut failures = 0;
    let v2 = loop {
        match probe.stats_v2() {
            Ok(v2)
                if v2.sched.inflight_interactive == 0 && v2.sched.inflight_batch == 0
                    || Instant::now() >= deadline =>
            {
                break v2
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                failures += 1;
                assert!(failures < 20, "stats probe could not get through: {e}");
                let _ = probe.reconnect();
            }
        }
    };
    assert_eq!(v2.store.resident_count, 0, "resident datasets after full disconnect");
    assert_eq!(v2.store.resident_bytes, 0, "resident bytes after full disconnect");
    assert_eq!(v2.sched.inflight_interactive, 0, "interactive in-flight gauge must drain");
    assert_eq!(v2.sched.inflight_batch, 0, "batch in-flight gauge must drain");
    v2
}

/// The serial storm: every client PUTs a list, then ranks it by handle
/// (every third request with a deadline) and sends a MUTATE batch every
/// fifth request. Panics on any broken invariant.
fn soak(target: &Target, clients: usize, requests: usize, n: usize) {
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let target = target.clone();
            std::thread::spawn(move || {
                let mut client = target.connect(0xC4A05 ^ (c as u64) << 8);
                let runner = HostRunner::new(Algorithm::ReidMiller);
                let fixed = gen::random_list(n, c as u64 * 7919);
                let mut mirror = MutableList::from_list(&fixed);
                let mut expected = runner.rank(&fixed);
                let mut batches = EditStream::new(c);
                let mut handle = reput(&mut client, &mirror);
                for r in 0..requests {
                    if r % 5 == 4 {
                        // MUTATE: never retried; the mirror advances
                        // only on a confirmed apply, any failure
                        // resyncs from the unchanged mirror.
                        let edits = batches.batch(mirror.len());
                        let body = protocol::mutate_body(handle, &edits);
                        match client.mutate_encoded(&body) {
                            Ok(reply) if reply.applied as usize == edits.len() => {
                                mirror.apply(&edits).expect("valid batch");
                                assert_eq!(reply.len, mirror.len() as u64, "length parity");
                                expected = runner.rank(&mirror.snapshot());
                            }
                            Ok(reply) => {
                                panic!("partial mutate: {} of {}", reply.applied, edits.len())
                            }
                            Err(e) => {
                                match &e {
                                    ClientError::Io(_) => {
                                        let _ = client.reconnect();
                                    }
                                    _ if e.server_code().is_some() => {}
                                    _ => panic!("un-typed mutate failure: {e}"),
                                }
                                handle = reput(&mut client, &mirror);
                            }
                        }
                    } else {
                        let reply = if r % 3 == 0 {
                            client.call(&Call::rank(handle).deadline_ms(30_000))
                        } else {
                            let body = protocol::rank_h_body(handle, false);
                            client.request_encoded::<u64>(FrameKind::RankH, &body)
                        };
                        match reply {
                            Ok(served) => {
                                assert_eq!(served.output, expected, "rank parity (client {c})")
                            }
                            Err(ClientError::Io(_)) => {
                                let _ = client.reconnect();
                                handle = reput(&mut client, &mirror);
                            }
                            Err(e) => match e.server_code() {
                                Some(ErrorCode::StaleHandle) => {
                                    handle = reput(&mut client, &mirror);
                                }
                                Some(_) => {}
                                None => panic!("un-typed rank failure: {e}"),
                            },
                        }
                    }
                }
                let _ = client.drop_handle(handle);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("chaos client must uphold the oracle");
    }
    settle(target);
}

/// The pipelined storm: every client keeps up to `depth` request-id
/// tagged rank-by-handle frames in flight on one connection while the
/// fault plane injects I/O errors, delays, and short reads/writes
/// mid-pipeline. Invariants are the serial soak's, plus: a connection
/// killed by a fault forfeits its outstanding window (those replies
/// are gone with the socket), and the client must be able to resync —
/// reconnect, re-PUT, restart the pipeline — without the oracle ever
/// drifting.
fn pipelined_soak(target: &Target, clients: usize, requests: usize, n: usize, depth: usize) {
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let target = target.clone();
            std::thread::spawn(move || {
                let mut client = target.connect(0xC4A05 ^ (c as u64) << 8);
                let runner = HostRunner::new(Algorithm::ReidMiller);
                let fixed = gen::random_list(n, c as u64 * 7919);
                let mirror = MutableList::from_list(&fixed);
                let expected = runner.rank(&fixed);
                let mut handle = reput(&mut client, &mirror);

                let mut sent = 0usize;
                let mut received = 0usize;
                let mut next_id = 1u64;
                while received < requests {
                    // Fill the window. `send_encoded` is fire-and-forget:
                    // a failed send means the connection is gone and the
                    // whole outstanding window is forfeit.
                    let mut broke = false;
                    while sent - received < depth && sent < requests {
                        let mut call = Call::rank(handle).id(next_id);
                        if sent.is_multiple_of(3) {
                            call = call.deadline_ms(30_000);
                        }
                        match client.send(&call) {
                            Ok(()) => {
                                sent += 1;
                                next_id += 1;
                            }
                            Err(_) => {
                                broke = true;
                                break;
                            }
                        }
                    }
                    if !broke {
                        match client.recv_pipelined::<u64>() {
                            Ok((_id, Ok(served))) => {
                                assert_eq!(
                                    served.output, expected,
                                    "pipelined rank parity (client {c})"
                                );
                                received += 1;
                            }
                            Ok((_id, Err(e))) => {
                                // Typed per-request refusal mid-pipeline
                                // (deadline, stale handle, shed, quota…).
                                match e.server_code() {
                                    Some(ErrorCode::StaleHandle) => {
                                        handle = reput(&mut client, &mirror);
                                    }
                                    Some(_) => {}
                                    None => panic!("un-typed pipelined refusal: {e}"),
                                }
                                received += 1;
                            }
                            Err(ClientError::Io(_)) => broke = true,
                            Err(e) => panic!("un-typed pipelined failure: {e}"),
                        }
                    }
                    if broke {
                        // Killed mid-pipeline: the outstanding window is
                        // lost with the socket. Resync and carry on.
                        received = sent;
                        let _ = client.reconnect();
                        handle = reput(&mut client, &mirror);
                    }
                }
                let _ = client.drop_handle(handle);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("pipelined chaos client must uphold the oracle");
    }
    let v2 = settle(target);
    assert!(v2.sched.pipelined_requests > 0, "the storm must actually have pipelined");
}

#[test]
fn quick_soak_under_default_fault_rates() {
    let injected = in_process("quick", "default", false, |t| soak(t, 3, 40, 600));
    assert!(injected >= 1, "default rates over 120 requests must inject something");
}

#[test]
fn quick_soak_with_heavy_exec_panics() {
    // Panic-dominated storm: every ~20th job blows up in the worker;
    // the oracle and the store accounting must be untouched.
    let spec = "exec_panic=0.05,io_err=0.01,short_write=0.01";
    let injected = in_process("panics", spec, false, |t| soak(t, 3, 40, 400));
    assert!(injected >= 1);
}

#[test]
fn quick_pipelined_soak_under_faults_unix() {
    // Short reads/writes and I/O errors landing mid-pipeline over the
    // Unix socket; depth-8 windows.
    let spec = "io_err=0.01,short_write=0.03,delay=1ms@0.03,seed=11";
    let injected = in_process("pipe-unix", spec, false, |t| pipelined_soak(t, 3, 60, 600, 8));
    assert!(injected >= 1, "the pipelined storm must inject something");
}

#[test]
fn quick_pipelined_soak_under_faults_tcp() {
    // Same storm through the TCP listener: one reactor, two transports,
    // identical invariants.
    let spec = "io_err=0.01,short_write=0.03,exec_panic=0.02,seed=13";
    let injected = in_process("pipe-tcp", spec, true, |t| pipelined_soak(t, 3, 60, 600, 8));
    assert!(injected >= 1, "the pipelined storm must inject something");
}

/// The real binary under fault injection armed from its command line,
/// worker panics and store errors included, so batches unwind while
/// holding their thread grant. Three soaks: serial, pipelined, and
/// serial on 20 000-vertex lists, above the 2048-vertex serial cutoff,
/// so Reid-Miller's parallel phases run on granted threads. Then the
/// dashboard must show the storm (the subcommand rides the fault plane
/// too, so it gets five tries), and SIGTERM must still drain to exit 0.
#[test]
fn fault_armed_rankd_survives_the_soaks() {
    let faults = "io_err=0.02,delay=2ms@0.05,short_write=0.02,exec_panic=0.05,worker_panic=0.02,store_err=0.02";
    let args = ["--serve-secs", "180", "--workers", "2", "--fault", faults];
    let daemon = Daemon::spawn("chaos-rankd", &args);
    let target = Target::Unix(daemon.path.clone());
    soak(&target, 4, 80, 2_000);
    pipelined_soak(&target, 4, 80, 2_000, 8);
    soak(&target, 4, 80, 20_000);

    let dash = (0..5)
        .find_map(|attempt| {
            if attempt > 0 {
                std::thread::sleep(Duration::from_secs(1));
            }
            daemon.dashboard()
        })
        .expect("rankd stats got through in 5 attempts");
    assert!(count_then(line_after(&dash, "faults: "), " injected") > Some(0), "{dash}");
    let resilience = line_after(&dash, "resilience: ");
    assert!(count_then(resilience, " panics recovered") > Some(0), "{dash}");
    daemon.terminate();
}

/// A client killed with a full window of 8 frames in flight: the
/// daemon must finish or discard the orphaned jobs, settle the quota
/// ledger via `drop_tenant`, release every resident dataset, and drain
/// the scheduler's in-flight gauges to exactly zero — no faults armed,
/// so the accounting must be *exact*, not approximate.
#[test]
fn client_killed_with_eight_frames_in_flight_settles_accounting() {
    let server =
        start("kill8", EngineConfig::default().with_workers(2), |c| c.with_inflight_quota(8));
    let mut client = Client::connect(&server.path).expect("connect");
    let fixed = gen::random_list(60_000, 9);
    let handle = client.put(&fixed).expect("put").handle;
    for id in 1..=8u64 {
        client.send(&Call::rank(handle).id(id)).expect("pipelined send");
    }
    // Kill the connection with the full window outstanding.
    drop(client);

    let mut probe = Client::connect(&server.path).expect("probe");
    let deadline = Instant::now() + Duration::from_secs(10);
    let v2 = loop {
        let v2 = probe.stats_v2().expect("stats_v2");
        let drained = v2.sched.inflight_interactive == 0
            && v2.sched.inflight_batch == 0
            && v2.store.resident_count == 0;
        if drained || Instant::now() >= deadline {
            break v2;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(v2.store.resident_count, 0, "orphaned handle must be released");
    assert_eq!(v2.store.resident_bytes, 0, "orphaned bytes must be released");
    assert_eq!(v2.sched.inflight_interactive, 0, "in-flight gauge must drain after the kill");
    assert_eq!(v2.sched.inflight_batch, 0);
    assert_eq!(v2.sched.pipelined_requests, 8, "all eight frames were admitted");
    assert_eq!(v2.sched.quota_rejected_inflight, 0, "the window exactly fills the quota");
    drop(probe);
    server.stop();
}

/// The deterministic form of the kill above: a peer that hangs up with
/// a reply unread makes the server's next read fail with ECONNRESET
/// once the frames it sent are in. That must read as EOF — the eight
/// frames already buffered are still admitted — not as a dead
/// connection. A 300 ms delay on every socket read and write makes
/// sure the hang-up lands before the server reads the window.
#[test]
fn peer_reset_with_a_reply_unread_still_admits_its_buffered_frames() {
    use engine::poll::{poll, PollFd, POLLIN};
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    let plane = Arc::new(FaultPlane::new(FaultConfig::parse("delay=300ms@1.0").expect("spec")));
    let engine_cfg = EngineConfig::default().with_workers(2).with_fault(Arc::clone(&plane));
    let server = start("reset", engine_cfg, |c| c.with_inflight_quota(8).with_fault(plane));

    let mut stream = UnixStream::connect(&server.path).expect("connect");
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, FrameKind::Hello as u8, &protocol::hello_body()).unwrap();
    let list = gen::random_list(60_000, 9);
    protocol::write_frame(&mut wire, FrameKind::Put as u8, &protocol::put_body(&list)).unwrap();
    stream.write_all(&wire).expect("HELLO + PUT");
    let hello = protocol::read_frame(&mut stream, u32::MAX).expect("read").expect("HELLO_OK");
    assert_eq!(FrameKind::from_u8(hello.kind), Some(FrameKind::HelloOk));
    let put = protocol::read_frame(&mut stream, u32::MAX).expect("read").expect("PUT_OK");
    let (handle, _) = protocol::decode_put_ok(&put.body).expect("PUT_OK decodes");

    // Leave a STATS reply unread: wait until it has arrived.
    protocol::write_frame(&mut stream, FrameKind::Stats as u8, &[]).expect("STATS");
    let mut fds = [PollFd::new(stream.as_raw_fd(), POLLIN)];
    while !fds[0].readable() {
        poll(&mut fds, 10_000).expect("poll");
    }
    let mut window = Vec::new();
    for id in 1..=8u64 {
        let (kind, body) = Call::rank(handle).id(id).encode();
        protocol::write_frame(&mut window, kind as u8, &body).expect("encode");
    }
    stream.write_all(&window).expect("write the window");
    drop(stream);

    let mut probe = Client::connect(&server.path).expect("probe");
    let deadline = Instant::now() + Duration::from_secs(20);
    let v2 = loop {
        let v2 = probe.stats_v2().expect("stats_v2");
        let settled = v2.sched.pipelined_requests == 8 && v2.store.resident_count == 0;
        if settled || Instant::now() >= deadline {
            break v2;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(v2.sched.pipelined_requests, 8, "all eight buffered frames were admitted");
    assert_eq!(v2.store.resident_count, 0, "the hung-up peer's handle must be released");
    drop(probe);
    server.stop();
}

/// A short write that lands while a connection's queue holds large
/// pipelined replies truncates the front frame and closes the
/// connection. Each attempt sends four 2¹⁸-vertex inline requests
/// (add-scans and ranks, 2 MiB replies) after a handshake; the client
/// must read only whole, oracle-exact OUTPUT_P frames and then a frame
/// cut short or a close — never a frame out of step with the stream.
#[test]
fn short_write_behind_large_pipelined_replies_truncates_and_closes() {
    use engine::protocol::ReadFrameError;
    use std::os::unix::net::UnixStream;
    const N: usize = 1 << 18;

    let (server, plane) = faulted("shortbig", "short_write=0.3,seed=23", false);

    let list = gen::random_list(N, 0x5407);
    let values: Vec<i64> = (0..N as i64).map(|i| i % 97 - 48).collect();
    let want_ranks = listkit::serial::rank(&list);
    let want_sums = listkit::serial::scan(&list, &values, &listkit::ops::AddOp);
    let mut window = Vec::new();
    for id in 1..=4u64 {
        let (kind, body) = match id % 2 {
            1 => Call::scan(&list, &values, listkit::ops::AddOp).id(id).encode(),
            _ => Call::rank(&list).id(id).encode(),
        };
        protocol::write_frame(&mut window, kind as u8, &body).expect("encode");
    }
    let window = Arc::new(window);

    let mut truncated = 0;
    for _attempt in 0..64 {
        if truncated == 3 {
            break;
        }
        let mut stream = UnixStream::connect(&server.path).expect("connect");
        protocol::write_frame(&mut stream, FrameKind::Hello as u8, &protocol::hello_body())
            .expect("HELLO");
        match protocol::read_frame(&mut stream, u32::MAX) {
            Ok(Some(f)) => assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::HelloOk)),
            // The HELLO_OK itself was cut short: try a fresh connection.
            Ok(None) | Err(ReadFrameError::Io(_)) => continue,
            Err(e) => panic!("handshake reply out of step: {e}"),
        }
        // From here on only the four large replies are ever queued.
        let mut writer = stream.try_clone().expect("clone stream");
        let frames = Arc::clone(&window);
        // The server closing mid-send is the expected outcome.
        let sender = std::thread::spawn(move || {
            let _ = std::io::Write::write_all(&mut writer, &frames);
        });
        let mut seen = Vec::new();
        loop {
            let frame = match protocol::read_frame(&mut stream, u32::MAX) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(ReadFrameError::Io(e)) => {
                    assert!(
                        matches!(
                            e.kind(),
                            std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
                        ),
                        "a truncated frame reads as EOF, got {e}"
                    );
                    truncated += 1;
                    break;
                }
                Err(e) => panic!("reply stream out of step: {e}"),
            };
            assert_eq!(FrameKind::from_u8(frame.kind), Some(FrameKind::OutputP), "reply kind");
            let (id, inner) = protocol::decode_pipelined(&frame.body).expect("envelope decodes");
            assert!((1..=4).contains(&id) && !seen.contains(&id), "id {id} out of step");
            seen.push(id);
            if id % 2 == 1 {
                let (_, sums) = protocol::decode_output::<i64>(inner).expect("scan decodes");
                assert!(sums == want_sums, "scan {id} diverged from the serial oracle");
            } else {
                let (_, ranks) = protocol::decode_output::<u64>(inner).expect("rank decodes");
                assert!(ranks == want_ranks, "rank {id} diverged from the serial oracle");
            }
            if seen.len() == 4 {
                // Every reply arrived whole: no short write hit this
                // connection, and the server keeps it open for more
                // requests, so another read would wait forever.
                break;
            }
        }
        drop(stream);
        sender.join().expect("writer thread");
    }
    assert_eq!(truncated, 3, "short writes must have cut large replies short");
    assert!(plane.snapshot().short_writes >= 3);
    server.stop();
}

/// A served job whose exec panics after the worker has opened its
/// reply frame is answered with a well-formed ERROR_P(internal_error),
/// never the half-written OUTPUT_P; the frame's buffer goes back to
/// the reply pool (the held count does not drop), and the next request
/// on the same connection is oracle-exact.
#[test]
fn exec_panic_mid_frame_answers_a_typed_error_and_recycles_its_buffer() {
    const N: usize = 1 << 18;
    quiet_injected_panics();
    // Only exec panics draw from the plane, so a seed fixes the three
    // requests' fates: served, panicked, served.
    let spec = |seed| FaultConfig { exec_panic: 0.5, seed, ..FaultConfig::default() };
    let fates = |seed| {
        let plane = FaultPlane::new(spec(seed));
        [plane.exec_panic(), plane.exec_panic(), plane.exec_panic()]
    };
    let seed = (0..).find(|&seed| fates(seed) == [false, true, false]).expect("a seed");
    let plane = Arc::new(FaultPlane::new(spec(seed)));
    let engine_cfg = EngineConfig::default().with_workers(1).with_fault(Arc::clone(&plane));
    let server = start("midframe", engine_cfg, |c| c.with_fault(Arc::clone(&plane)));
    // A written reply returns to the pool right after the socket took
    // it, which can trail the client's read by a moment: wait until the
    // pool holds a buffer that fits a reply and at least `bufs` in all.
    let frame_bytes = 8 * N as u64;
    let pool_holds = |bufs: u64| {
        let t0 = Instant::now();
        loop {
            let s = server.control.stats();
            if s.reply_bytes_pooled >= frame_bytes && s.reply_bufs_pooled >= bufs {
                return true;
            }
            if t0.elapsed() > Duration::from_secs(5) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    let list = gen::random_list(N, 0x9a71c);
    let want = listkit::serial::rank(&list);
    let mut client = Client::connect(&server.path).expect("connect");
    let mut rank = |id: u64| {
        client.send(&Call::rank(&list).id(id)).expect("send");
        let (echoed, reply) = client.recv_pipelined::<u64>().expect("a whole reply frame");
        assert_eq!(echoed, id, "reply routed to its request");
        reply
    };
    let warm = rank(1).expect("warm-up served");
    assert!(warm.output == want, "warm-up rank diverged from the serial oracle");
    assert!(pool_holds(1), "the warm-up frame went back to the pool");
    let held = server.control.stats().reply_bufs_pooled;

    match rank(2) {
        Err(e) => assert_eq!(e.server_code(), Some(ErrorCode::InternalError), "{e}"),
        Ok(_) => panic!("a job that panicked mid-frame must not answer OUTPUT"),
    }
    assert_eq!(plane.snapshot().exec_panics, 1);
    assert!(pool_holds(held), "the panicked job's frame buffer was lost to the pool");

    let after = rank(3).expect("the connection keeps serving");
    assert!(after.output == want, "rank after the panic diverged from the serial oracle");
    drop(client);
    server.stop();
}

/// The nightly long soak (`cargo test -- --include-ignored`): a
/// sustained storm at elevated rates, large enough that every fault
/// kind fires many times.
#[test]
#[ignore = "long soak; nightly runs it via --include-ignored"]
fn long_soak_at_elevated_rates() {
    let spec = "io_err=0.02,delay=2ms@0.05,short_write=0.02,exec_panic=0.02,store_err=0.01,seed=7";
    let injected = in_process("nightly", spec, false, |t| soak(t, 8, 400, 2_000));
    assert!(injected >= 100, "an hour of storm must show a real fault count, got {injected}");
}

/// The nightly pipelined storm: elevated fault rates, deep windows,
/// over TCP — the harshest path through the reactor (partial frames on
/// both sides of every connection, windows forfeited and resynced).
#[test]
#[ignore = "long pipelined storm; nightly runs it via --include-ignored"]
fn long_pipelined_storm_over_tcp() {
    let spec = "io_err=0.02,delay=2ms@0.05,short_write=0.04,exec_panic=0.02,seed=17";
    let injected = in_process("pipe-nightly", spec, true, |t| pipelined_soak(t, 8, 400, 2_000, 8));
    assert!(injected >= 100, "a real storm must show a real fault count, got {injected}");
}
