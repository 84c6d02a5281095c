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
//! answering typed `quota_exceeded`. The transport batches at both
//! ends: the server shares writes among replies at depth, and the
//! client decodes replies however they arrive.
//!
//! The client's reply reader, against a fake daemon that scripts its
//! replies byte for byte: an OUTPUT / OUTPUT_P payload read straight
//! into the output buffer comes out as `decode_output` makes it,
//! however the frame is split on the wire; an ERROR_P between two
//! OUTPUT_P frames; a miscounted OUTPUT is a protocol error that keeps
//! the stream in step; EOF inside a payload is `UnexpectedEof`; and
//! `Client::call_into` reuses, shrinks and grows the caller's buffer.
#![cfg(unix)]

use engine::client::{Call, Client, ClientError};
use engine::protocol::{
    self, ErrorCode, Frame, FrameKind, OutputMeta, WireElem, MAX_FRAME_DEFAULT,
};
use engine::server::{ServeConfig, Server};
use engine::Engine;
use listkit::dynamic::Edit;
use listkit::gen;
use listkit::ops::{AddOp, Affine, AffineOp, XorOp};
use listkit::LinkedList;
use listrank::{Algorithm, HostRunner};
use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
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

/// Frames longer than the server's read chunk are read into buffers of
/// their own and answered from them: a by-handle scan, a segmented scan
/// and an inline scan of 2^18 values, pipelined in one write behind a
/// small RANK_H, each reply matched by id against the serial oracle.
#[test]
fn big_scans_in_one_write_behind_a_small_rank_match_the_serial_oracle() {
    const N: usize = 1 << 18;
    let server = start("big-one-write", small_engine(), |c| c);
    let list = gen::random_list(N, 0xB16);
    let small = gen::random_list(777, 0x5A11);
    let values: Vec<i64> = (0..N as i64).map(|i| (i * 31) % 97 - 48).collect();
    let starts: Vec<bool> = (0..N).map(|v| v % 61 == 7).collect();
    let mut stream = UnixStream::connect(&server.path).expect("connect");
    handshake(&mut stream);
    let (handle, small_handle) = (put(&mut stream, &list), put(&mut stream, &small));

    let sums = listkit::serial::scan(&list, &values, &AddOp);
    let seg = listkit::segmented::serial_segmented_scan(&list, &values, &starts, &AddOp);
    let frames = [
        Call::rank(small_handle).id(1).encode(),
        Call::scan(handle, &values, AddOp).deadline_ms(60_000).id(2).encode(),
        Call::segmented(handle, &values, &starts, AddOp).id(3).encode(),
        Call::scan(&list, &values, AddOp).deadline_ms(60_000).id(4).encode(),
    ];
    let mut bytes = Vec::new();
    for (kind, body) in &frames {
        protocol::write_frame(&mut bytes, *kind as u8, body).expect("frame to a Vec");
    }
    // A separate writer, as the reactor stops reading a connection whose
    // replies pass its watermark.
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || writer.write_all(&bytes).expect("one write"));
    let mut seen = Vec::new();
    for _ in 0..frames.len() {
        let reply = read_one(&mut stream);
        assert_eq!(FrameKind::from_u8(reply.kind), Some(FrameKind::OutputP), "reply kind");
        let (id, inner) = protocol::decode_pipelined(&reply.body).expect("envelope decodes");
        if id == 1 {
            let (_, ranks) = protocol::decode_output::<u64>(inner).expect("rank OUTPUT");
            assert!(ranks == listkit::serial::rank(&small), "the small rank diverged");
        } else {
            let (_, got) = protocol::decode_output::<i64>(inner).expect("scan OUTPUT");
            let want = if id == 3 { &seg } else { &sums };
            assert!(&got == want, "request {id} diverged from the serial oracle");
        }
        seen.push(id);
    }
    seen.sort_unstable();
    assert_eq!(seen, [1, 2, 3, 4], "every id answered exactly once");
    sender.join().expect("writer thread");
    drop(stream);
    server.stop();
}

/// The reactor writes each connection once per tick, many frames per
/// `writev`, and a worker batch's replies reach it together: over TCP
/// at depth 8, the server needs fewer writes than the OUTPUT frames it
/// sends.
#[test]
fn replies_at_depth_eight_share_writes() {
    const DEPTH: u64 = 8;
    const ROUNDS: u64 = 100;
    let server = start("writes", small_engine(), |c| c.with_tcp(Some("127.0.0.1:0".to_string())));
    let addr = server.tcp.expect("tcp listener bound");
    let list = gen::random_list(256, 0x3117E);
    let want = listkit::serial::rank(&list);

    let mut client = Client::connect_tcp(addr.to_string()).expect("tcp connect");
    let before = server.control.stats();
    for _ in 0..ROUNDS {
        for id in 1..=DEPTH {
            client.send(&Call::rank(&list).id(id)).expect("pipelined send");
        }
        for _ in 0..DEPTH {
            let (_, res) = client.recv_pipelined::<u64>().expect("pipelined recv");
            assert!(res.expect("served").output == want, "rank diverged from the serial oracle");
        }
    }
    let after = server.control.stats();
    let outputs = after.frames_out - before.frames_out;
    let writes = after.writes - before.writes;
    assert_eq!(outputs, DEPTH * ROUNDS, "one OUTPUT_P per request");
    assert!(writes < outputs, "{writes} writes for {outputs} OUTPUT frames");

    drop(client);
    server.stop();
}

/// Metadata with every field set, so a misread field shows.
const META: OutputMeta = OutputMeta {
    algorithm: Algorithm::ReidMiller,
    shards: 2,
    queued_ns: 11,
    exec_ns: 22,
    trace_id: 33,
};

/// A whole OUTPUT frame, or OUTPUT_P for `id`, around `body`.
fn reply_frame(id: Option<u64>, body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    protocol::reply_frame_into(&mut frame, FrameKind::Output, id, body.len(), |f| {
        f.extend_from_slice(body)
    })
    .expect("frame fits");
    frame
}

/// The client reads replies through one buffer: three replies that
/// arrive in one write and a fourth that arrives a byte at a time all
/// decode, in order, through `recv_pipelined`. The two sends queued
/// before the first receive reach the server before that receive
/// waits, or the server would never answer.
#[test]
fn client_decodes_coalesced_and_trickled_replies_in_order() {
    let path = sock_path("fake");
    let listener = UnixListener::bind(&path).expect("bind the fake server");
    let list = gen::random_list(100, 0xFA4E);
    let ranks = listkit::serial::rank(&list);
    let body = protocol::output_body(&META, &ranks);
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        // A client that never writes its queue fails the test, not hangs it.
        conn.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        assert_eq!(read_one(&mut conn).kind, FrameKind::Hello as u8);
        let hello_ok = protocol::hello_ok_body(protocol::VERSION, MAX_FRAME_DEFAULT);
        protocol::write_frame(&mut conn, FrameKind::HelloOk as u8, &hello_ok).expect("HELLO_OK");
        for _ in 0..2 {
            assert_eq!(read_one(&mut conn).kind, FrameKind::Rank as u8, "a queued send");
        }
        let three: Vec<u8> = (1..=3).flat_map(|id| reply_frame(Some(id), &body)).collect();
        conn.write_all(&three).expect("three replies in one write");
        for byte in reply_frame(Some(4), &body) {
            conn.write_all(&[byte]).expect("one byte");
        }
    });

    let mut client = Client::connect(&path).expect("connect to the fake server");
    for id in 1..=2 {
        client.send(&Call::rank(&list).id(id)).expect("queued send");
    }
    for want in 1..=4 {
        let (id, res) = client.recv_pipelined::<u64>().expect("reply decodes");
        assert_eq!(id, want, "replies decode in the order they were sent");
        assert!(res.expect("an OUTPUT_P").output == ranks, "reply {id} payload intact");
    }
    fake.join().expect("fake server");
    let _ = std::fs::remove_file(&path);
}

/// Four RANK_H on a fresh handle, all in flight before the first runs,
/// rank the list once: the jobs resolved with no array kept wait for
/// the one build and are served from its array. Two workers pull them,
/// so two builds would start at once if nothing held them apart.
#[test]
fn pipelined_ranks_on_a_fresh_handle_build_one_array() {
    let server = start("one-build", small_engine(), |c| c);
    let mut client = Client::connect(&server.path).expect("connect");
    let list = gen::random_list(1 << 16, 0xB11D);
    let expected = listkit::serial::rank(&list);
    let handle = client.put(&list).expect("put").handle;
    for id in 1..=4 {
        client.send(&Call::rank(handle).id(id)).expect("pipelined send");
    }
    for _ in 0..4 {
        let (id, res) = client.recv_pipelined::<u64>().expect("reply");
        assert!(res.expect("rank served").output == expected, "rank {id} diverged");
    }
    let store = client.stats_v2().expect("stats").store;
    assert_eq!((store.artifacts_built, store.artifacts_reused), (1, 3), "built, reused");
    drop(client);
    server.stop();
}

/// One step of a [`fake_daemon`]'s script: read `reads` request frames,
/// then write `bytes` in pieces cut at `cuts`.
struct Step {
    reads: usize,
    bytes: Vec<u8>,
    cuts: Vec<usize>,
}

/// A fake daemon on `path`: it answers the handshake, then plays
/// `script`, pausing a millisecond between the pieces of a step so that
/// each piece reaches the client on its own, and closes the connection
/// after the last step.
fn fake_daemon(path: &std::path::Path, script: Vec<Step>) -> std::thread::JoinHandle<()> {
    let listener = UnixListener::bind(path).expect("bind the fake daemon");
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        assert_eq!(read_one(&mut conn).kind, FrameKind::Hello as u8);
        let hello_ok = protocol::hello_ok_body(protocol::VERSION, MAX_FRAME_DEFAULT);
        protocol::write_frame(&mut conn, FrameKind::HelloOk as u8, &hello_ok).expect("HELLO_OK");
        for step in script {
            for _ in 0..step.reads {
                read_one(&mut conn);
            }
            let mut from = 0;
            for to in step.cuts.iter().copied().chain([step.bytes.len()]) {
                conn.write_all(&step.bytes[from..to]).expect("write a piece");
                from = to;
                if to < step.bytes.len() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    })
}

/// The ways the fake daemon cuts one frame of `n` words of `bytes`
/// each: byte by byte; at each header, metadata and payload boundary
/// alone (and in the middle of the first word); and at all of them at
/// once.
fn cut_plans(frame_len: usize, pipelined: bool, bytes: usize, n: usize) -> Vec<Vec<usize>> {
    let header = if pipelined { 13 } else { 5 };
    let meta_end = header + 33;
    let mut bounds = vec![4, 5];
    bounds.extend(pipelined.then_some(13));
    bounds.extend([meta_end, meta_end + bytes / 2]);
    bounds.extend((1..n).map(|k| meta_end + k * bytes));
    let mut plans = vec![(1..frame_len).collect::<Vec<_>>()];
    plans.extend(bounds.iter().map(|&b| vec![b]));
    plans.push(bounds);
    plans
}

/// One request's worth of reader cases for `values`: the OUTPUT and the
/// OUTPUT_P (id `id`) that carry them, each under every cut plan.
fn cases<T: WireElem>(values: &[T], id: u64) -> Vec<(Option<u64>, Vec<u8>, Vec<usize>)> {
    let body = protocol::output_body(&META, values);
    let mut cases = Vec::new();
    for id in [None, Some(id)] {
        let frame = reply_frame(id, &body);
        for cuts in cut_plans(frame.len(), id.is_some(), T::BYTES, values.len()) {
            cases.push((id, body.clone(), cuts));
        }
    }
    cases
}

/// Read one scripted case back through the client: a `Client::call` for
/// an OUTPUT, a send and `recv_pipelined` for an OUTPUT_P. The output
/// and metadata must be what `decode_output` makes of the same body.
fn read_back<T: WireElem + PartialEq + std::fmt::Debug>(
    client: &mut Client,
    call: Call<'_, T>,
    id: Option<u64>,
    body: &[u8],
) {
    let want = protocol::decode_output::<T>(body).expect("the body decodes");
    let got = match id {
        None => client.call(&call).expect("an OUTPUT"),
        Some(id) => {
            client.send(&call.id(id)).expect("pipelined send");
            let (got_id, res) = client.recv_pipelined::<T>().expect("a reply");
            assert_eq!(got_id, id, "the echoed id");
            res.expect("an OUTPUT_P")
        }
    };
    assert_eq!((got.meta, got.output), want);
}

/// The client reads an OUTPUT payload straight into its output buffer:
/// however the frame is split on the wire — byte by byte, or at any
/// header, metadata or payload boundary — a rank (`u64`) and the `i64`,
/// `u64` and `Affine` scans, as OUTPUT and OUTPUT_P, come out equal to
/// `decode_output` of the same body.
#[test]
fn client_reads_outputs_split_anywhere() {
    let path = sock_path("split");
    let ranks: Vec<u64> = vec![2, 0, 1];
    let sums: Vec<i64> = vec![-7, 0, i64::MIN];
    let xors: Vec<u64> = vec![u64::MAX, 0x0102_0304_0506_0708, 5];
    let maps = vec![Affine::new(1, 0), Affine::new(-2, 1 << 40), Affine::new(i64::MAX, -1)];
    let rank_cases = cases(&ranks, 1);
    let sum_cases = cases(&sums, 2);
    let xor_cases = cases(&xors, 3);
    let map_cases = cases(&maps, 4);
    let all = [&rank_cases, &sum_cases, &xor_cases, &map_cases];
    let script = all
        .iter()
        .flat_map(|cases| cases.iter())
        .map(|(id, body, cuts)| Step {
            reads: 1,
            bytes: reply_frame(*id, body),
            cuts: cuts.clone(),
        })
        .collect();
    let fake = fake_daemon(&path, script);

    let mut client = Client::connect(&path).expect("connect to the fake daemon");
    let h = 1u64;
    for (id, body, _) in &rank_cases {
        read_back(&mut client, Call::rank(h), *id, body);
    }
    for (id, body, _) in &sum_cases {
        read_back(&mut client, Call::scan(h, &sums, AddOp), *id, body);
    }
    for (id, body, _) in &xor_cases {
        read_back(&mut client, Call::scan(h, &xors, XorOp), *id, body);
    }
    for (id, body, _) in &map_cases {
        read_back(&mut client, Call::scan(h, &maps, AffineOp), *id, body);
    }
    fake.join().expect("fake daemon");
    let _ = std::fs::remove_file(&path);
}

/// An ERROR_P between two OUTPUT_P frames in one write: the error is
/// that request's own result, and the OUTPUT_P after it still reads.
#[test]
fn client_reads_an_error_p_between_two_outputs() {
    let path = sock_path("error-p");
    let ranks: Vec<u64> = (0..100).rev().collect();
    let body = protocol::output_body(&META, &ranks);
    let error = protocol::error_body(ErrorCode::DeadlineExceeded, "too late");
    let mut bytes = reply_frame(Some(1), &body);
    protocol::reply_frame_into(&mut bytes, FrameKind::Error, Some(2), error.len(), |f| {
        f.extend_from_slice(&error)
    })
    .expect("frame fits");
    bytes.extend(reply_frame(Some(3), &body));
    let fake = fake_daemon(&path, vec![Step { reads: 3, bytes, cuts: vec![] }]);

    let mut client = Client::connect(&path).expect("connect to the fake daemon");
    for id in 1..=3 {
        client.send(&Call::rank(1).id(id)).expect("pipelined send");
    }
    let (id, res) = client.recv_pipelined::<u64>().expect("reply 1");
    assert_eq!((id, res.expect("an OUTPUT_P").output), (1, ranks.clone()));
    let (id, res) = client.recv_pipelined::<u64>().expect("reply 2");
    let err = res.expect_err("an ERROR_P");
    assert_eq!((id, err.server_code()), (2, Some(ErrorCode::DeadlineExceeded)));
    let (id, res) = client.recv_pipelined::<u64>().expect("reply 3");
    assert_eq!((id, res.expect("an OUTPUT_P").output), (3, ranks));
    fake.join().expect("fake daemon");
    let _ = std::fs::remove_file(&path);
}

/// An OUTPUT_P whose element count disagrees with its frame length is a
/// protocol error, whether the payload is short or long; the rest of
/// the bad frame is dropped, so the OUTPUT_P after it still reads.
#[test]
fn client_refuses_an_output_whose_count_disagrees_with_its_length() {
    let path = sock_path("bad-count");
    let ranks: Vec<u64> = (0..10).collect();
    let good = protocol::output_body(&META, &ranks);
    let recount = |n: u32| {
        let mut bad = good.clone();
        bad[29..33].copy_from_slice(&n.to_le_bytes());
        bad
    };
    let mut bytes = Vec::new();
    for (id, body) in [(1, recount(11)), (2, good.clone()), (3, recount(9)), (4, good.clone())] {
        bytes.extend(reply_frame(Some(id), &body));
    }
    let fake = fake_daemon(&path, vec![Step { reads: 4, bytes, cuts: vec![] }]);

    let mut client = Client::connect(&path).expect("connect to the fake daemon");
    for id in 1..=4 {
        client.send(&Call::rank(1).id(id)).expect("pipelined send");
    }
    for id in [2, 4] {
        match client.recv_pipelined::<u64>() {
            Err(ClientError::Protocol(m)) => assert!(m.contains("OUTPUT payload"), "{m}"),
            other => panic!("a miscounted OUTPUT_P read as {other:?}"),
        }
        let (got, res) = client.recv_pipelined::<u64>().expect("the next reply");
        assert_eq!((got, res.expect("an OUTPUT_P").output), (id, ranks.clone()));
    }
    fake.join().expect("fake daemon");
    let _ = std::fs::remove_file(&path);
}

/// A connection that closes inside an OUTPUT payload is a truncated
/// frame: `Io(UnexpectedEof)`.
#[test]
fn client_reports_eof_inside_a_payload() {
    let path = sock_path("eof-payload");
    let ranks: Vec<u64> = (0..1000).collect();
    let mut bytes = reply_frame(None, &protocol::output_body(&META, &ranks));
    bytes.truncate(bytes.len() - 100);
    let fake = fake_daemon(&path, vec![Step { reads: 1, bytes, cuts: vec![] }]);

    let mut client = Client::connect(&path).expect("connect to the fake daemon");
    match client.call(&Call::rank(1)) {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("a truncated OUTPUT read as {other:?}"),
    }
    fake.join().expect("fake daemon");
    let _ = std::fs::remove_file(&path);
}

/// `call_into` reuses the caller's buffer: a shorter reply shrinks it
/// in place and a longer one within its capacity regrows it there; one
/// beyond its capacity gets an exact new buffer, and an empty reply
/// empties it.
#[test]
fn call_into_shrinks_and_grows_a_reused_buffer() {
    let path = sock_path("call-into");
    let sizes = [50usize, 10, 30, 200, 0];
    let outputs: Vec<Vec<u64>> =
        sizes.iter().map(|&n| (0..n as u64).map(|i| splitmix64(i ^ n as u64)).collect()).collect();
    let script = outputs
        .iter()
        .map(|o| Step {
            reads: 1,
            bytes: reply_frame(None, &protocol::output_body(&META, o)),
            cuts: vec![],
        })
        .collect();
    let fake = fake_daemon(&path, script);

    let mut client = Client::connect(&path).expect("connect to the fake daemon");
    let mut out = Vec::new();
    let mut at = None;
    for (want, &n) in outputs.iter().zip(&sizes) {
        let meta = client.call_into(&Call::rank(1), &mut out).expect("an OUTPUT");
        assert_eq!((meta, &out), (META, want), "reply of {n}");
        match n {
            50 => at = Some(out.as_ptr()),
            10 | 30 => assert_eq!((Some(out.as_ptr()), out.capacity()), (at, 50), "kept in place"),
            200 => assert_eq!(out.capacity(), 200, "a larger reply gets an exact buffer"),
            _ => assert!(out.is_empty()),
        }
    }
    fake.join().expect("fake daemon");
    let _ = std::fs::remove_file(&path);
}
