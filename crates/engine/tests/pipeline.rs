//! Pipelining differential tests (protocol v6): one connection, many
//! requests in flight, replies in completion order — every reply
//! byte-identical to what a serial v5-style conversation produces for
//! the same request, matched back by `request_id`.
//!
//! Also pinned here: the adversarial client that stops reading replies
//! mid-pipeline (write backpressure must stall that one connection,
//! never the reactor), a serial request parked behind a pipelined
//! window, duplicate / zero request ids rejected as typed malformed,
//! and both per-tenant quotas (in-flight jobs, resident store bytes)
//! answering typed `quota_exceeded`.
#![cfg(unix)]

use engine::client::{Call, Client};
use engine::protocol::{self, ErrorCode, Frame, FrameKind, MAX_FRAME_DEFAULT};
use engine::server::{ServeConfig, Server};
use engine::Engine;
use listkit::dynamic::Edit;
use listkit::gen;
use listkit::ops::AddOp;
use listkit::LinkedList;
use listrank::{Algorithm, HostRunner};
use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{small_engine, sock_path, start};

/// Deterministic per-test randomness (splitmix64 finalizer).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Raw v6 handshake on a bare stream.
fn handshake(stream: &mut UnixStream) {
    protocol::write_frame(stream, FrameKind::Hello as u8, &protocol::hello_body()).expect("hello");
    let f = read_one(stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::HelloOk), "handshake reply");
}

fn read_one(stream: &mut UnixStream) -> Frame {
    protocol::read_frame(stream, MAX_FRAME_DEFAULT).expect("read frame").expect("frame present")
}

/// The OUTPUT body's dispatch/timing metadata prefix: `algorithm: u8`,
/// `shards: u32`, `queued_ns: u64`, `exec_ns: u64`, `trace_id: u64`.
/// Timings and trace ids legitimately vary run to run (and the planner
/// may pick a different algorithm as its history warms), so byte
/// parity is asserted on everything *after* this prefix — the count
/// and the output values, which must be exact.
const OUTPUT_META_LEN: usize = 29;

fn payload(body: &[u8]) -> &[u8] {
    assert!(body.len() > OUTPUT_META_LEN, "OUTPUT body too short: {}", body.len());
    &body[OUTPUT_META_LEN..]
}

/// PUT `list` on a raw stream, returning the connection-scoped handle.
fn put(stream: &mut UnixStream, list: &LinkedList) -> u64 {
    protocol::write_frame(stream, FrameKind::Put as u8, &protocol::put_body(list)).expect("PUT");
    let f = read_one(stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::PutOk), "PUT reply");
    protocol::decode_put_ok(&f.body).expect("PUT_OK decodes").0
}

/// The tentpole differential: N randomly interleaved rank / scan /
/// handle requests with shuffled request ids, all written before any
/// reply is read. Every pipelined reply must be byte-identical (minus
/// the variable OUTPUT metadata prefix) to the serial oracle's reply
/// for the same request, matched by id, and every id must come back
/// exactly once.
#[test]
fn pipelined_mix_is_byte_identical_to_serial_oracle() {
    const N: usize = 32;
    let server = start("diff", small_engine(), |c| c);

    let resident = gen::random_list(257, 0xD1FF);
    let mut rng_state = 0x1994_2026u64;
    let mut rng = move || {
        rng_state = rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(rng_state)
    };

    // Serial oracle: same daemon, separate connection, no request ids.
    let mut oracle = UnixStream::connect(&server.path).expect("oracle connect");
    handshake(&mut oracle);
    let oracle_handle = put(&mut oracle, &resident);
    let mut piped = UnixStream::connect(&server.path).expect("pipelined connect");
    handshake(&mut piped);
    let piped_handle = put(&mut piped, &resident);
    let mut ids: Vec<u64> = (1..=N as u64).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, (rng() % (i as u64 + 1)) as usize);
    }

    // The request mix, each request encoded twice: for the oracle (its
    // handle, no id) and for the pipelined connection (its handle, a
    // shuffled id).
    let mut serial_frames = Vec::with_capacity(N);
    let mut piped_frames = Vec::with_capacity(N);
    for &id in &ids {
        let n = 40 + (rng() % 400) as usize;
        let vals = |n: usize, r: &mut dyn FnMut() -> u64| -> Vec<i64> {
            (0..n).map(|_| (r() % 97) as i64 - 48).collect()
        };
        let (serial_frame, piped_frame) = match rng() % 5 {
            0 => {
                let list = gen::random_list(n, rng());
                (Call::rank(&list).encode(), Call::rank(&list).id(id).encode())
            }
            1 => {
                let list = gen::random_list(n, rng());
                let v = vals(n, &mut rng);
                let call = Call::scan(&list, &v, AddOp);
                (call.encode(), call.id(id).encode())
            }
            2 => (Call::rank(oracle_handle).encode(), Call::rank(piped_handle).id(id).encode()),
            3 => {
                let v = vals(resident.len(), &mut rng);
                (
                    Call::scan(oracle_handle, &v, AddOp).encode(),
                    Call::scan(piped_handle, &v, AddOp).id(id).encode(),
                )
            }
            _ => {
                let starts: Vec<bool> = (0..resident.len()).map(|_| rng() % 4 == 0).collect();
                let v = vals(resident.len(), &mut rng);
                (
                    Call::segmented(oracle_handle, &v, &starts, AddOp).encode(),
                    Call::segmented(piped_handle, &v, &starts, AddOp).id(id).encode(),
                )
            }
        };
        serial_frames.push(serial_frame);
        piped_frames.push(piped_frame);
    }

    let mut expected: Vec<Vec<u8>> = Vec::with_capacity(N);
    for (kind, body) in &serial_frames {
        protocol::write_frame(&mut oracle, *kind as u8, body).expect("oracle request");
        let f = read_one(&mut oracle);
        assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::Output), "oracle reply");
        expected.push(f.body);
    }

    // Pipelined connection: everything written up front.
    let mut wire = Vec::new();
    for (kind, body) in &piped_frames {
        protocol::write_frame(&mut wire, *kind as u8, body).expect("encode to Vec");
    }
    piped.write_all(&wire).expect("write pipeline burst");

    // Replies arrive in completion order; collect and match by id.
    let mut got: HashMap<u64, Vec<u8>> = HashMap::new();
    for _ in 0..N {
        let f = read_one(&mut piped);
        assert_eq!(
            FrameKind::from_u8(f.kind),
            Some(FrameKind::OutputP),
            "pipelined replies are OUTPUT_P"
        );
        let (id, inner) = protocol::decode_pipelined(&f.body).expect("pipelined body");
        assert!(got.insert(id, inner.to_vec()).is_none(), "id {id} answered twice");
    }
    for (idx, want) in expected.iter().enumerate() {
        let id = ids[idx];
        let reply = got.get(&id).unwrap_or_else(|| panic!("id {id} never answered"));
        assert_eq!(
            payload(reply),
            payload(want),
            "request {idx} (id {id}): pipelined payload diverged from the serial oracle"
        );
    }

    // The scheduler gauges saw the pipeline.
    let mut client = Client::connect(&server.path).expect("stats connect");
    let v2 = client.stats_v2().expect("stats_v2");
    assert_eq!(v2.sched.pipelined_requests, N as u64);
    assert!(v2.sched.max_pipeline_depth >= 1, "depth gauge never moved");
    assert_eq!(v2.pipeline_depth.count(), N as u64, "one depth sample per pipelined admission");

    drop(oracle);
    drop(piped);
    drop(client);
    server.stop();
}

/// Adversarial pipelining: the client writes a burst whose replies
/// exceed the server's write high-watermark, then refuses to read
/// until every request is submitted. The reactor must park that
/// connection (stop reading it, keep flushing opportunistically) while
/// other clients stay fully served — and once the adversary finally
/// drains, every reply must be present exactly once.
#[test]
fn non_reading_pipeline_client_stalls_only_itself() {
    const BURST: u64 = 48;
    const N: usize = 4000; // 32 KB per reply → ~1.5 MB total, past the 1 MiB watermark
    let server = start("noread", small_engine(), |c| c);

    let list = gen::random_list(N, 0xBAD);
    let mut adversary = UnixStream::connect(&server.path).expect("connect");
    handshake(&mut adversary);
    let mut wire = Vec::new();
    for id in 1..=BURST {
        let (kind, body) = Call::rank(&list).id(id).encode();
        protocol::write_frame(&mut wire, kind as u8, &body).expect("encode");
    }
    adversary.write_all(&wire).expect("write burst");

    // Let the replies pile up against the unread socket.
    std::thread::sleep(Duration::from_millis(300));

    // The reactor is still alive for everyone else.
    let mut bystander = Client::connect(&server.path).expect("bystander connect");
    let small = gen::random_list(64, 7);
    let served = bystander.call(&Call::rank(&small)).expect("bystander served mid-stall");
    assert_eq!(served.output.len(), 64);

    // Now drain: all BURST replies, each id exactly once, each intact.
    let mut seen = std::collections::HashSet::new();
    for _ in 0..BURST {
        let f = read_one(&mut adversary);
        assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::OutputP));
        let (id, inner) = protocol::decode_pipelined(&f.body).expect("pipelined body");
        assert!(seen.insert(id), "id {id} answered twice");
        let (_, ranks) = protocol::decode_output::<u64>(inner).expect("OUTPUT decodes");
        assert_eq!(ranks.len(), N);
    }
    assert_eq!(seen.len(), BURST as usize);

    drop(adversary);
    drop(bystander);
    server.stop();
}

/// Frames without an id — PUT, STATS, MUTATE, DROP and an id-less
/// rank — that arrive while a pipelined window of 8 is in flight wait
/// undecoded in the read buffer and are decoded once, when the window
/// has drained: every one of their replies comes after the window's
/// last OUTPUT_P, in send order. The window reads the list as it was
/// before the MUTATE, and the rank matches the serial oracle.
#[test]
fn serial_rank_parked_behind_a_pipelined_window_is_answered_after_it() {
    let server = start("park", small_engine(), |c| c);
    let mut stream = UnixStream::connect(&server.path).expect("connect");
    handshake(&mut stream);

    // The window: 8 by-handle ranks of a 2^17 list — milliseconds of
    // work each, behind 17-byte frames — then the id-less frames.
    let resident = gen::random_list(1 << 17, 0x9A4C);
    let handle = put(&mut stream, &resident);
    let list = gen::random_list(1 << 16, 0x5E41);
    let mut wire = Vec::new();
    for id in 1..=8 {
        let (kind, body) = Call::rank(handle).id(id).encode();
        protocol::write_frame(&mut wire, kind as u8, &body).expect("encode");
    }
    let small = gen::random_list(64, 0x5A11);
    let edits = [Edit::Append { count: 3 }];
    let serial = [
        (FrameKind::Put, protocol::put_body(&small)),
        (FrameKind::Stats, Vec::new()),
        (FrameKind::Mutate, protocol::mutate_body(handle, &edits)),
        (FrameKind::Drop, protocol::drop_body(handle)),
        Call::rank(&list).encode(),
    ];
    for (kind, body) in &serial {
        protocol::write_frame(&mut wire, *kind as u8, body).expect("encode");
    }
    // Write from a second thread so the megabytes of replies can be
    // drained while the serial frames are still going out.
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || writer.write_all(&wire));

    let oracle = HostRunner::new(Algorithm::Serial);
    let want = oracle.rank(&resident);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..8 {
        let f = read_one(&mut stream);
        assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::OutputP), "window answered first");
        let (id, inner) = protocol::decode_pipelined(&f.body).expect("pipelined body");
        assert!(seen.insert(id), "id {id} answered twice");
        let (_, ranks) = protocol::decode_output::<u64>(inner).expect("OUTPUT decodes");
        assert_eq!(ranks, want, "pipelined id {id} diverged from the oracle");
    }
    let replies: Vec<Frame> = serial.iter().map(|_| read_one(&mut stream)).collect();
    let kinds: Vec<_> = replies.iter().map(|f| FrameKind::from_u8(f.kind)).collect();
    let want_kinds = [
        FrameKind::PutOk,
        FrameKind::StatsOk,
        FrameKind::MutateOk,
        FrameKind::DropOk,
        FrameKind::Output,
    ];
    assert_eq!(kinds, want_kinds.map(Some), "id-less replies follow the window, in order");
    let ok = protocol::decode_mutate_ok(&replies[2].body).expect("MUTATE_OK decodes");
    assert_eq!((ok.applied, ok.len), (1, (1 << 17) + 3), "MUTATE applied after the window");
    let (_, ranks) = protocol::decode_output::<u64>(&replies[4].body).expect("OUTPUT decodes");
    assert_eq!(ranks, oracle.rank(&list), "parked serial rank diverged from the oracle");
    sender.join().expect("writer thread").expect("write window");

    drop(stream);
    server.stop();
}

/// SHUTDOWN while an id-less frame waits behind a window of 8 ranks of
/// 2^20 vertices, with a 50 ms drain grace: the window still completes
/// and its replies arrive, and the waiting frame — abandoned past the
/// grace like a partial frame — cannot keep the daemon from exiting.
#[test]
fn shutdown_abandons_a_frame_waiting_behind_a_window() {
    let server =
        start("drain-wait", small_engine(), |c| c.with_drain_grace(Duration::from_millis(50)));
    let mut stream = UnixStream::connect(&server.path).expect("connect");
    handshake(&mut stream);
    let resident = gen::random_list(1 << 20, 0xD7A1);
    let handle = put(&mut stream, &resident);
    let mut wire = Vec::new();
    for id in 1..=8 {
        let (kind, body) = Call::rank(handle).id(id).encode();
        protocol::write_frame(&mut wire, kind as u8, &body).expect("encode");
    }
    let (kind, body) = Call::rank(handle).encode();
    protocol::write_frame(&mut wire, kind as u8, &body).expect("encode");
    stream.write_all(&wire).expect("write window");

    // HELLO, PUT and the 8 ranks decoded: the window is submitted and
    // the id-less rank waits behind it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.control.stats().frames_in < 10 {
        assert!(Instant::now() < deadline, "the window was never decoded");
        std::thread::sleep(Duration::from_millis(5));
    }
    Client::connect(&server.path).expect("connect").shutdown().expect("SHUTDOWN acknowledged");

    let want = HostRunner::new(Algorithm::Serial).rank(&resident);
    for _ in 0..8 {
        let f = read_one(&mut stream);
        assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::OutputP), "window answered");
        let (id, inner) = protocol::decode_pipelined(&f.body).expect("pipelined body");
        let (_, ranks) = protocol::decode_output::<u64>(inner).expect("OUTPUT decodes");
        assert_eq!(ranks, want, "pipelined id {id} diverged from the oracle");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.join.is_finished() {
        assert!(Instant::now() < deadline, "Server::run must return within 10 s");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.join.join().expect("server thread").expect("server run");
}

/// Reusing a request id while it is still in flight is typed
/// malformed (answered on the pipelined path so the client can match
/// it), and the original request still completes.
#[test]
fn duplicate_request_id_is_typed_malformed() {
    let server = start("dup", small_engine(), |c| c);
    let mut stream = UnixStream::connect(&server.path).expect("connect");
    handshake(&mut stream);

    // Big rank (stays in flight) + tiny rank reusing its id, one write.
    let big = gen::random_list(200_000, 1);
    let tiny = gen::random_list(8, 2);
    let mut wire = Vec::new();
    for list in [&big, &tiny] {
        let (kind, body) = Call::rank(list).id(7).encode();
        protocol::write_frame(&mut wire, kind as u8, &body).expect("encode");
    }
    stream.write_all(&wire).expect("write");

    // First reply: the duplicate, refused without waiting for the job.
    let f = read_one(&mut stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::ErrorP), "dup refusal is pipelined");
    let (id, inner) = protocol::decode_pipelined(&f.body).expect("pipelined body");
    assert_eq!(id, 7);
    let (_, code, msg) = protocol::decode_error(inner).expect("error decodes");
    assert_eq!(code, Some(ErrorCode::Malformed));
    assert!(msg.contains("already in flight"), "unexpected message: {msg}");

    // Second reply: the original request, unharmed.
    let f = read_one(&mut stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::OutputP));
    let (id, inner) = protocol::decode_pipelined(&f.body).expect("pipelined body");
    assert_eq!(id, 7);
    let (_, ranks) = protocol::decode_output::<u64>(inner).expect("OUTPUT decodes");
    assert_eq!(ranks.len(), 200_000);

    drop(stream);
    server.stop();
}

/// Request id 0 is reserved: the frame is rejected as typed malformed
/// at decode (no pipelined attribution possible) and the connection
/// survives.
#[test]
fn request_id_zero_is_reserved() {
    let server = start("zero", small_engine(), |c| c);
    let mut stream = UnixStream::connect(&server.path).expect("connect");
    handshake(&mut stream);

    let list = gen::random_list(16, 3);
    let (_, mut body) = Call::rank(&list).id(1).encode();
    body[1..9].fill(0); // stamp the id field (right after the flags byte) to 0
    protocol::write_frame(&mut stream, FrameKind::Rank as u8, &body).expect("write");
    let f = read_one(&mut stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::Error), "plain error: no id to echo");
    let (_, code, msg) = protocol::decode_error(&f.body).expect("error decodes");
    assert_eq!(code, Some(ErrorCode::Malformed));
    assert!(msg.contains("reserved"), "unexpected message: {msg}");

    // Connection survives; a well-formed request still works.
    protocol::write_frame(&mut stream, FrameKind::Rank as u8, &Call::rank(&list).encode().1)
        .expect("write");
    let f = read_one(&mut stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::Output));

    drop(stream);
    server.stop();
}

/// The per-tenant in-flight quota refuses the excess request with a
/// typed, id-attributed `quota_exceeded` while the admitted request
/// completes normally — and a freed slot admits again.
#[test]
fn inflight_quota_answers_typed_quota_exceeded() {
    let server = start("quota", small_engine(), |c| c.with_inflight_quota(1));
    let mut stream = UnixStream::connect(&server.path).expect("connect");
    handshake(&mut stream);

    let big = gen::random_list(300_000, 5);
    let tiny = gen::random_list(8, 6);
    let mut wire = Vec::new();
    for (id, list) in [(1, &big), (2, &tiny)] {
        let (kind, body) = Call::rank(list).id(id).encode();
        protocol::write_frame(&mut wire, kind as u8, &body).expect("encode");
    }
    stream.write_all(&wire).expect("write");

    // The refusal (id 2) outruns the big job (id 1).
    let f = read_one(&mut stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::ErrorP));
    let (id, inner) = protocol::decode_pipelined(&f.body).expect("pipelined body");
    assert_eq!(id, 2);
    let (_, code, msg) = protocol::decode_error(inner).expect("error decodes");
    assert_eq!(code, Some(ErrorCode::QuotaExceeded), "{msg}");

    let f = read_one(&mut stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::OutputP));
    let (id, _) = protocol::decode_pipelined(&f.body).expect("pipelined body");
    assert_eq!(id, 1);

    // The slot is free again: a fresh pipelined request is admitted.
    let (kind, body) = Call::rank(&tiny).id(3).encode();
    protocol::write_frame(&mut stream, kind as u8, &body).expect("write");
    let f = read_one(&mut stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::OutputP));

    // Exactly one rejection on the gauge.
    let mut client = Client::connect(&server.path).expect("stats connect");
    let v2 = client.stats_v2().expect("stats_v2");
    assert_eq!(v2.sched.quota_rejected_inflight, 1);

    drop(stream);
    drop(client);
    server.stop();
}

/// The per-tenant store quota refuses a PUT from a connection already
/// at its byte cap — typed `quota_exceeded`, not `overloaded` (the
/// tenant must DROP, not retry) — and DROP frees the budget.
#[test]
fn store_quota_answers_typed_quota_exceeded() {
    let server = start("squota", small_engine(), |c| c.with_store_quota(200));
    let mut stream = UnixStream::connect(&server.path).expect("connect");
    handshake(&mut stream);

    // First PUT (owned 0 < 200): admitted, footprint 4·100 + 96 = 496.
    let list = gen::random_list(100, 8);
    let handle = put(&mut stream, &list);

    // Second PUT (owned 496 ≥ 200): refused.
    protocol::write_frame(&mut stream, FrameKind::Put as u8, &protocol::put_body(&list))
        .expect("PUT");
    let f = read_one(&mut stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::Error));
    let (_, code, msg) = protocol::decode_error(&f.body).expect("error decodes");
    assert_eq!(code, Some(ErrorCode::QuotaExceeded), "{msg}");
    assert!(msg.contains("store quota"), "unexpected message: {msg}");

    // DROP frees the tenant's bytes; the next PUT is admitted.
    protocol::write_frame(&mut stream, FrameKind::Drop as u8, &protocol::drop_body(handle))
        .expect("DROP");
    let f = read_one(&mut stream);
    assert_eq!(FrameKind::from_u8(f.kind), Some(FrameKind::DropOk));
    put(&mut stream, &list);

    let mut client = Client::connect(&server.path).expect("stats connect");
    let v2 = client.stats_v2().expect("stats_v2");
    assert_eq!(v2.sched.quota_rejected_store, 1);

    drop(stream);
    drop(client);
    server.stop();
}

/// The typed client pipelining API over TCP: the daemon's TCP listener
/// shares the reactor and the protocol, so a depth-4 pipeline of ranks
/// matches the Unix-socket serial answers exactly.
#[test]
fn client_pipeline_api_over_tcp_matches_unix_serial() {
    let server = start("tcp", small_engine(), |c| c.with_tcp(Some("127.0.0.1:0".to_string())));
    let addr = server.tcp.expect("tcp listener bound");

    let lists: Vec<LinkedList> =
        (0..4).map(|i| gen::random_list(500 + i * 131, i as u64)).collect();

    let mut serial = Client::connect(&server.path).expect("unix connect");
    let want: Vec<Vec<u64>> =
        lists.iter().map(|l| serial.call(&Call::rank(l)).expect("serial rank").output).collect();

    let mut tcp = Client::connect_tcp(addr.to_string()).expect("tcp connect");
    for (i, list) in lists.iter().enumerate() {
        tcp.send(&Call::rank(list).id(i as u64 + 1)).expect("pipelined send");
    }
    let mut got: HashMap<u64, Vec<u64>> = HashMap::new();
    for _ in 0..lists.len() {
        let (id, res) = tcp.recv_pipelined::<u64>().expect("pipelined recv");
        got.insert(id, res.expect("per-request success").output);
    }
    for (i, want) in want.iter().enumerate() {
        assert_eq!(got.get(&(i as u64 + 1)), Some(want), "list {i} diverged over TCP");
    }

    drop(serial);
    drop(tcp);
    server.stop();
}

/// Four pipelined 2¹⁸-vertex requests — add-scans and ranks of one
/// resident list — in flight on one connection whose client reads
/// nothing until all four have completed, so their 2 MiB reply frames
/// queue behind one another on the server. Every reply must match the
/// serial oracle byte for byte, and every id must come back once.
#[test]
fn large_pipelined_replies_queue_behind_one_another_intact() {
    const N: usize = 1 << 18;
    let path = sock_path("large");
    let engine = Arc::new(Engine::new(small_engine()));
    let cfg = ServeConfig::new(&path).with_drain_grace(Duration::from_secs(10));
    let server = Server::bind(Arc::clone(&engine), cfg).expect("bind");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let list = gen::random_list(N, 0x1A26E);
    let values: Vec<i64> = (0..N as i64).map(|i| (i * 7919) % 1001 - 500).collect();
    let want_ranks = listkit::serial::rank(&list);
    let want_sums = listkit::serial::scan(&list, &values, &AddOp);

    let mut stream = UnixStream::connect(&path).expect("connect");
    handshake(&mut stream);
    let handle = put(&mut stream, &list);
    // Odd ids scan, even ids rank; the scans' 2 MiB request bodies go
    // first so all four are read before the first job can finish.
    let frames: Vec<(FrameKind, Vec<u8>)> = (1..=4u64)
        .map(|id| match id % 2 {
            1 => Call::scan(handle, &values, AddOp).id(id).encode(),
            _ => Call::rank(handle).id(id).encode(),
        })
        .collect();
    let done_before = engine.stats().completed;
    let mut writer = stream.try_clone().expect("clone stream");
    // A separate writer: the reactor stops reading a connection whose
    // pending replies pass its watermark, so a writer that also had to
    // read could deadlock against it.
    let sender = std::thread::spawn(move || {
        for (kind, body) in &frames {
            protocol::write_frame(&mut writer, *kind as u8, body).expect("pipelined send");
        }
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.stats().completed < done_before + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut seen = Vec::new();
    for _ in 0..4 {
        let reply = read_one(&mut stream);
        assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::OutputP), "reply kind");
        let (id, inner) = protocol::decode_pipelined(&reply.body).expect("envelope decodes");
        if id % 2 == 1 {
            let (_, sums) = protocol::decode_output::<i64>(inner).expect("scan OUTPUT decodes");
            assert!(sums == want_sums, "scan {id} diverged from the serial oracle");
        } else {
            let (_, ranks) = protocol::decode_output::<u64>(inner).expect("rank OUTPUT decodes");
            assert!(ranks == want_ranks, "rank {id} diverged from the serial oracle");
        }
        seen.push(id);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![1, 2, 3, 4], "every id answered exactly once");
    sender.join().expect("writer thread");

    drop(stream);
    control.request_shutdown();
    join.join().expect("server thread").expect("server run");
}
