//! Chaos tests: the serving stack under deterministic fault injection.
//!
//! A compact in-process version of `examples/chaos_soak`: N clients
//! drive a fault-armed daemon with a mixed PUT / rank-by-handle /
//! mutate workload, and three invariants must hold no matter what the
//! fault plane does:
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
//! The quick soaks ride every CI run; the heavy ones are `#[ignore]`d
//! and picked up by the nightly `--include-ignored` pass.
#![cfg(unix)]

use engine::client::{Call, Client, ClientError, RetryPolicy};
use engine::protocol::{self, ErrorCode, FrameKind};
use engine::server::{ServeConfig, Server};
use engine::{Engine, EngineConfig, FaultConfig, FaultPlane};
use listkit::dynamic::{Edit, MutableList};
use listkit::gen;
use listrank::{Algorithm, HostRunner};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Run the soak; panics on any broken invariant. Returns the total
/// injected-fault count so callers can assert the storm was real.
fn soak(tag: &str, clients: usize, requests: usize, n: usize, spec: &str) -> u64 {
    quiet_injected_panics();
    let plane = Arc::new(FaultPlane::new(FaultConfig::parse(spec).expect("valid fault spec")));
    let path = std::env::temp_dir()
        .join(format!("rankd-chaos-{tag}-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let engine = Arc::new(Engine::new(
        EngineConfig::default().with_workers(2).with_fault(Arc::clone(&plane)),
    ));
    let server =
        Server::bind(Arc::clone(&engine), ServeConfig::new(&path).with_fault(Arc::clone(&plane)))
            .expect("bind chaos socket");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let path = path.clone();
            std::thread::spawn(move || {
                let policy = RetryPolicy::default().with_seed(0xC4A05 ^ (c as u64) << 8);
                let mut client = Client::connect_with_retry(&path, policy).expect("connect");
                let runner = HostRunner::new(Algorithm::ReidMiller);
                let fixed = gen::random_list(n, c as u64 * 7919);
                let mut mirror = MutableList::from_list(&fixed);
                let mut expected = runner.rank(&fixed);
                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (c as u64) << 17;
                let mut pick = move |m: u64| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (rng >> 33) % m.max(1)
                };
                let mut handle = reput(&mut client, &mirror);
                for r in 0..requests {
                    if r % 5 == 4 {
                        // MUTATE: never retried; the mirror advances
                        // only on a confirmed apply, any failure
                        // resyncs from the unchanged mirror.
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
                            Edit::Append { count: 1 + pick(8) as u32 },
                        ];
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

    // Exact store accounting once every connection is gone.
    let mut probe = Client::connect_with_retry(&path, RetryPolicy::default().with_seed(0x960BE))
        .expect("probe");
    let v2 = probe.stats_v2().expect("stats_v2");
    assert_eq!(v2.store.resident_count, 0, "resident datasets after full disconnect");
    assert_eq!(v2.store.resident_bytes, 0, "resident bytes after full disconnect");
    drop(probe);

    // Clean daemon exit.
    control.request_shutdown();
    join.join().expect("server thread").expect("server run");
    drop(engine);
    plane.snapshot().total()
}

/// The pipelined storm: every client keeps up to `depth` request-id
/// tagged rank-by-handle frames in flight on one connection while the
/// fault plane injects I/O errors, delays, and short reads/writes
/// mid-pipeline. Invariants are the serial soak's, plus: a connection
/// killed by a fault forfeits its outstanding window (those replies
/// are gone with the socket), and the client must be able to resync —
/// reconnect, re-PUT, restart the pipeline — without the oracle ever
/// drifting. Runs over the Unix socket or the TCP listener.
fn pipelined_soak(
    tag: &str,
    clients: usize,
    requests: usize,
    n: usize,
    spec: &str,
    depth: usize,
    tcp: bool,
) -> u64 {
    quiet_injected_panics();
    let plane = Arc::new(FaultPlane::new(FaultConfig::parse(spec).expect("valid fault spec")));
    let path = std::env::temp_dir()
        .join(format!("rankd-chaos-{tag}-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let engine = Arc::new(Engine::new(
        EngineConfig::default().with_workers(2).with_fault(Arc::clone(&plane)),
    ));
    let mut cfg = ServeConfig::new(&path).with_fault(Arc::clone(&plane));
    if tcp {
        cfg = cfg.with_tcp(Some("127.0.0.1:0".to_string()));
    }
    let server = Server::bind(Arc::clone(&engine), cfg).expect("bind chaos socket");
    let tcp_addr = server.tcp_local_addr().map(|a| a.to_string());
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let connect = move |path: &str, tcp_addr: &Option<String>, seed: u64| -> Client {
        let policy = RetryPolicy::default().with_seed(seed);
        match tcp_addr {
            Some(addr) => {
                Client::connect_tcp_with_retry(addr.as_str(), policy).expect("connect tcp")
            }
            None => Client::connect_with_retry(path, policy).expect("connect"),
        }
    };

    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let path = path.clone();
            let tcp_addr = tcp_addr.clone();
            std::thread::spawn(move || {
                let mut client = connect(&path, &tcp_addr, 0xC4A05 ^ (c as u64) << 8);
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

    // Exact store + scheduler accounting once every connection is gone:
    // no resident bytes, and the in-flight gauges fully drained.
    let mut probe = connect(&path, &tcp_addr, 0x960BE);
    let deadline = Instant::now() + Duration::from_secs(10);
    let v2 = loop {
        match probe.stats_v2() {
            Ok(v2) if v2.sched.inflight_interactive == 0 && v2.sched.inflight_batch == 0 => {
                break v2
            }
            Ok(_) | Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
                let _ = probe.reconnect();
            }
            Ok(v2) => break v2,
            Err(e) => panic!("stats probe could not get through: {e}"),
        }
    };
    assert_eq!(v2.store.resident_count, 0, "resident datasets after full disconnect");
    assert_eq!(v2.store.resident_bytes, 0, "resident bytes after full disconnect");
    assert_eq!(v2.sched.inflight_interactive, 0, "interactive in-flight gauge must drain");
    assert_eq!(v2.sched.inflight_batch, 0, "batch in-flight gauge must drain");
    assert!(v2.sched.pipelined_requests > 0, "the storm must actually have pipelined");
    drop(probe);

    control.request_shutdown();
    join.join().expect("server thread").expect("server run");
    drop(engine);
    plane.snapshot().total()
}

#[test]
fn quick_soak_under_default_fault_rates() {
    let injected = soak("quick", 3, 40, 600, "default");
    assert!(injected >= 1, "default rates over 120 requests must inject something");
}

#[test]
fn quick_soak_with_heavy_exec_panics() {
    // Panic-dominated storm: every ~20th job blows up in the worker;
    // the oracle and the store accounting must be untouched.
    let injected = soak("panics", 3, 40, 400, "exec_panic=0.05,io_err=0.01,short_write=0.01");
    assert!(injected >= 1);
}

#[test]
fn quick_pipelined_soak_under_faults_unix() {
    // Short reads/writes and I/O errors landing mid-pipeline over the
    // Unix socket; depth-8 windows.
    let injected = pipelined_soak(
        "pipe-unix",
        3,
        60,
        600,
        "io_err=0.01,short_write=0.03,delay=1ms@0.03,seed=11",
        8,
        false,
    );
    assert!(injected >= 1, "the pipelined storm must inject something");
}

#[test]
fn quick_pipelined_soak_under_faults_tcp() {
    // Same storm through the TCP listener: one reactor, two transports,
    // identical invariants.
    let injected = pipelined_soak(
        "pipe-tcp",
        3,
        60,
        600,
        "io_err=0.01,short_write=0.03,exec_panic=0.02,seed=13",
        8,
        true,
    );
    assert!(injected >= 1, "the pipelined storm must inject something");
}

/// A client killed with a full window of 8 frames in flight: the
/// daemon must finish or discard the orphaned jobs, settle the quota
/// ledger via `drop_tenant`, release every resident dataset, and drain
/// the scheduler's in-flight gauges to exactly zero — no faults armed,
/// so the accounting must be *exact*, not approximate.
#[test]
fn client_killed_with_eight_frames_in_flight_settles_accounting() {
    let path = std::env::temp_dir()
        .join(format!("rankd-chaos-kill8-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(2)));
    let server = Server::bind(Arc::clone(&engine), ServeConfig::new(&path).with_inflight_quota(8))
        .expect("bind chaos socket");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&path).expect("connect");
    let fixed = gen::random_list(60_000, 9);
    let handle = client.put(&fixed).expect("put").handle;
    for id in 1..=8u64 {
        client.send(&Call::rank(handle).id(id)).expect("pipelined send");
    }
    // Kill the connection with the full window outstanding.
    drop(client);

    let mut probe = Client::connect(&path).expect("probe");
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

    control.request_shutdown();
    join.join().expect("server thread").expect("server run");
    drop(engine);
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

    let path = std::env::temp_dir()
        .join(format!("rankd-chaos-reset-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let plane = Arc::new(FaultPlane::new(FaultConfig::parse("delay=300ms@1.0").expect("spec")));
    let engine = Arc::new(Engine::new(
        EngineConfig::default().with_workers(2).with_fault(Arc::clone(&plane)),
    ));
    let cfg = ServeConfig::new(&path).with_inflight_quota(8).with_fault(plane);
    let server = Server::bind(Arc::clone(&engine), cfg).expect("bind chaos socket");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let mut stream = UnixStream::connect(&path).expect("connect");
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

    let mut probe = Client::connect(&path).expect("probe");
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

    control.request_shutdown();
    join.join().expect("server thread").expect("server run");
    drop(engine);
}

/// The nightly long soak (`cargo test -- --include-ignored`): a
/// sustained storm at elevated rates, large enough that every fault
/// kind fires many times.
#[test]
#[ignore = "long soak; nightly runs it via --include-ignored"]
fn long_soak_at_elevated_rates() {
    let injected = soak(
        "nightly",
        8,
        400,
        2_000,
        "io_err=0.02,delay=2ms@0.05,short_write=0.02,exec_panic=0.02,store_err=0.01,seed=7",
    );
    assert!(injected >= 100, "an hour of storm must show a real fault count, got {injected}");
}

/// The nightly pipelined storm: elevated fault rates, deep windows,
/// over TCP — the harshest path through the reactor (partial frames on
/// both sides of every connection, windows forfeited and resynced).
#[test]
#[ignore = "long pipelined storm; nightly runs it via --include-ignored"]
fn long_pipelined_storm_over_tcp() {
    let injected = pipelined_soak(
        "pipe-nightly",
        8,
        400,
        2_000,
        "io_err=0.02,delay=2ms@0.05,short_write=0.04,exec_panic=0.02,seed=17",
        8,
        true,
    );
    assert!(injected >= 100, "a real storm must show a real fault count, got {injected}");
}
