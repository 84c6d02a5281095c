//! `chaos_soak` — correctness-under-faults driver for `rankd serve`.
//!
//! Spawns an engine + server in-process with the fault plane armed (or
//! targets an already-faulted daemon with `--socket`), then drives it
//! with N concurrent clients running a mixed PUT / rank-by-handle /
//! mutate / inline-rank workload, every request raced against injected
//! I/O errors, delays, short writes, and worker panics. The invariant
//! under test is the resilience contract:
//!
//! * **Byte-correct or typed-error.** Every successful reply is
//!   checked byte-for-byte against a serial oracle (a from-scratch
//!   [`HostRunner`] solve of the client's local mirror). Every failed
//!   request must carry a *typed* error the client understands —
//!   an injected transport failure or a known protocol error code.
//!   An unknown error code or a protocol violation aborts the soak.
//! * **Exact store accounting.** Resident handles are
//!   connection-scoped; once every client has disconnected, the store
//!   must report zero resident datasets and zero resident bytes.
//! * **Clean daemon exit.** After the soak the server drains and
//!   `Server::run` returns `Ok` — no handler thread died, no panic
//!   escaped the isolation boundaries.
//!
//! Clients heal with the library's own [`RetryPolicy`] (distinct
//! jitter seeds per client) plus a re-PUT state machine: any surfaced
//! transport error or stale handle re-uploads the local mirror under a
//! fresh handle, so the oracle never drifts from the server.
//!
//! `--pipeline` switches the workload to protocol v6 pipelining: each
//! client keeps up to 8 request-id-tagged rank-by-handle frames in
//! flight, so injected short reads/writes land *mid-pipeline* and a
//! killed connection forfeits a whole outstanding window (the client
//! resyncs and the accounting assertions still must hold exactly).
//! `--tcp` runs the same storm through the daemon's TCP listener.
//!
//! ```sh
//! cargo run --release --example chaos_soak -- --clients 4 --requests 80
//! cargo run --release --example chaos_soak -- --fault \
//!     "io_err=0.02,delay=2ms@0.05,short_write=0.02,exec_panic=0.05" \
//!     --clients 8 --requests 100
//! cargo run --release --example chaos_soak -- --pipeline --tcp \
//!     --clients 4 --requests 200
//! ```

#[cfg(not(unix))]
fn main() {
    eprintln!("chaos_soak requires unix domain sockets");
    std::process::exit(2);
}

#[cfg(unix)]
fn main() {
    use engine::client::{Call, Client, ClientError, RetryPolicy};
    use engine::protocol::{self, ErrorCode, FrameKind};
    use engine::server::{ServeConfig, Server};
    use engine::{Engine, EngineConfig, FaultConfig, FaultPlane};
    use listkit::dynamic::{Edit, MutableList};
    use listkit::gen;
    use listrank::{Algorithm, HostRunner};
    use std::sync::Arc;
    use std::time::Instant;

    let mut clients = 4usize;
    let mut requests = 60usize;
    let mut n = 2_000usize;
    let mut fault_spec = String::from("default");
    let mut socket: Option<String> = None;
    let mut pipeline = false;
    let mut tcp = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--clients" => clients = val("--clients").parse().expect("count"),
            "--requests" => requests = val("--requests").parse().expect("count"),
            "--n" => n = val("--n").parse().expect("vertices"),
            "--fault" => fault_spec = val("--fault"),
            "--socket" => socket = Some(val("--socket")),
            "--pipeline" => pipeline = true,
            "--tcp" => tcp = true,
            other => {
                eprintln!(
                    "unknown flag {other}\nUSAGE: chaos_soak [--clients N] [--requests M] [--n V] [--fault SPEC] [--pipeline] [--tcp] [--socket PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    // Injected worker panics are caught by the engine's isolation
    // boundary, but the default panic hook would still spam stderr for
    // each one. Silence exactly those; real panics keep the default
    // report (and fail the soak via the oracle or the clean-exit
    // assertions).
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

    if tcp && socket.is_some() {
        eprintln!("--tcp drives the in-process daemon's TCP listener; with an external daemon pass --socket only");
        std::process::exit(2);
    }

    // In-process daemon with the fault plane armed, unless pointed at
    // an external (presumably already-faulted) daemon.
    let mut spawned = None;
    let mut tcp_addr: Option<String> = None;
    let path = match socket {
        Some(p) => p,
        None => {
            let cfg = FaultConfig::parse(&fault_spec).unwrap_or_else(|e| {
                eprintln!("bad --fault spec: {e}");
                std::process::exit(2);
            });
            let plane = Arc::new(FaultPlane::new(cfg));
            let p = std::env::temp_dir()
                .join(format!("rankd-chaos-soak-{}.sock", std::process::id()))
                .to_string_lossy()
                .into_owned();
            let engine =
                Arc::new(Engine::new(EngineConfig::default().with_fault(Arc::clone(&plane))));
            let mut serve_cfg = ServeConfig::new(&p).with_fault(Arc::clone(&plane));
            if tcp {
                serve_cfg = serve_cfg.with_tcp(Some("127.0.0.1:0".to_string()));
            }
            let server = Server::bind(Arc::clone(&engine), serve_cfg).expect("bind soak socket");
            tcp_addr = server.tcp_local_addr().map(|a| a.to_string());
            let control = server.control();
            let join = std::thread::spawn(move || server.run());
            spawned = Some((engine, control, join, plane));
            p
        }
    };
    let connect = |tcp_addr: &Option<String>, path: &str, seed: u64| -> Client {
        let policy = RetryPolicy::default().with_seed(seed);
        match tcp_addr {
            Some(addr) => {
                Client::connect_tcp_with_retry(addr.as_str(), policy).expect("connect tcp")
            }
            None => Client::connect_with_retry(path, policy).expect("connect"),
        }
    };

    let workload = if pipeline { "pipelined (depth 8)" } else { "serial" };
    let transport = match &tcp_addr {
        Some(addr) => format!("tcp {addr}"),
        None => format!("socket {path}"),
    };
    println!(
        "chaos_soak: {clients} clients × {requests} requests, {n}-vertex lists, {workload} workload, faults [{fault_spec}], {transport}"
    );
    let t0 = Instant::now();

    // Per-client tallies: (ok replies, typed server errors, surfaced
    // transport errors, re-PUT resyncs).
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let path = path.clone();
            let tcp_addr = tcp_addr.clone();
            std::thread::spawn(move || {
                let mut client = connect(&tcp_addr, &path, 0xC4A05_u64 ^ (c as u64) << 8);
                let runner = HostRunner::new(Algorithm::ReidMiller);

                // The serial oracle: a local mirror of the resident
                // dataset, solved from scratch after every mutation.
                let fixed = gen::random_list(n, c as u64 * 7919);
                let mut mirror = MutableList::from_list(&fixed);
                let mut expected = runner.rank(&fixed);
                let mut ok = 0u64;
                let mut typed = 0u64;
                let mut transport = 0u64;
                let mut resyncs = 0u64;

                let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (c as u64) << 17;
                let mut pick = move |m: u64| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (rng >> 33) % m.max(1)
                };

                // Upload the mirror; retried here (and on every
                // resync) because an injected fault can kill the
                // connection mid-PUT — the broken connection drops its
                // handles server-side, so a retried PUT never leaks.
                let reput = |client: &mut Client, mirror: &MutableList| -> u64 {
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
                };
                let mut handle = reput(&mut client, &mirror);

                if pipeline {
                    // Pipelined workload: up to 8 request-id-tagged
                    // rank-by-handle frames in flight. A connection
                    // killed mid-pipeline forfeits its outstanding
                    // window; the client resyncs (reconnect + re-PUT)
                    // and the oracle never drifts.
                    const DEPTH: usize = 8;
                    let mut sent = 0usize;
                    let mut received = 0usize;
                    let mut next_id = 1u64;
                    while received < requests {
                        let mut broke = false;
                        while sent - received < DEPTH && sent < requests {
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
                                    ok += 1;
                                    received += 1;
                                }
                                Ok((_id, Err(e))) => {
                                    match e.server_code() {
                                        Some(ErrorCode::StaleHandle) => {
                                            handle = reput(&mut client, &mirror);
                                            resyncs += 1;
                                        }
                                        Some(_) => {}
                                        None => panic!("un-typed pipelined refusal: {e}"),
                                    }
                                    typed += 1;
                                    received += 1;
                                }
                                Err(ClientError::Io(_)) => broke = true,
                                Err(e) => panic!("un-typed pipelined failure: {e}"),
                            }
                        }
                        if broke {
                            transport += 1;
                            received = sent;
                            let _ = client.reconnect();
                            handle = reput(&mut client, &mirror);
                            resyncs += 1;
                        }
                    }
                    let _ = client.drop_handle(handle);
                    return (ok, typed, transport, resyncs);
                }

                for r in 0..requests {
                    if r % 5 == 4 {
                        // MUTATE — never retried by the client (a
                        // replayed batch could double-apply). The
                        // mirror only advances on a confirmed apply;
                        // any failure resyncs server state from the
                        // unchanged mirror under a fresh handle.
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
                                ok += 1;
                            }
                            Ok(reply) => {
                                panic!("partial mutate: {} of {} applied", reply.applied, 3)
                            }
                            Err(e) => {
                                match &e {
                                    ClientError::Io(_) => {
                                        transport += 1;
                                        let _ = client.reconnect();
                                    }
                                    _ if e.server_code().is_some() => typed += 1,
                                    _ => panic!("un-typed mutate failure: {e}"),
                                }
                                handle = reput(&mut client, &mirror);
                                resyncs += 1;
                            }
                        }
                    } else {
                        // Rank by handle; every third request carries
                        // a deadline to exercise the v5 path.
                        let reply = if r % 3 == 0 {
                            client.call(&Call::rank(handle).deadline_ms(30_000))
                        } else {
                            let body = protocol::rank_h_body(handle, false);
                            client.request_encoded::<u64>(FrameKind::RankH, &body)
                        };
                        match reply {
                            Ok(served) => {
                                assert_eq!(served.output, expected, "rank parity (client {c})");
                                ok += 1;
                            }
                            Err(ClientError::Io(_)) => {
                                // Retries exhausted; the dead
                                // connection took our handle with it.
                                transport += 1;
                                let _ = client.reconnect();
                                handle = reput(&mut client, &mirror);
                                resyncs += 1;
                            }
                            Err(e) => match e.server_code() {
                                Some(ErrorCode::StaleHandle) => {
                                    // A mid-burst reconnect inside the
                                    // retry loop invalidated the
                                    // handle.
                                    typed += 1;
                                    handle = reput(&mut client, &mirror);
                                    resyncs += 1;
                                }
                                Some(_) => typed += 1,
                                None => panic!("un-typed rank failure: {e}"),
                            },
                        }
                    }
                }

                // Best-effort drop; a failed drop is fine because the
                // disconnect below releases the handle anyway — the
                // store-accounting assertion at the end proves it.
                let _ = client.drop_handle(handle);
                (ok, typed, transport, resyncs)
            })
        })
        .collect();

    let (mut ok, mut typed, mut transport, mut resyncs) = (0u64, 0u64, 0u64, 0u64);
    for w in workers {
        let (o, t, x, s) = w.join().expect("client thread");
        ok += o;
        typed += t;
        transport += x;
        resyncs += s;
    }
    let elapsed = t0.elapsed();
    println!(
        "{} requests in {:.3}s — {ok} byte-checked replies, {typed} typed errors, {transport} transport errors, {resyncs} resyncs",
        clients * requests,
        elapsed.as_secs_f64(),
    );

    // Exact store accounting: every connection is closed, so the store
    // must be empty — a leak here means a fault path dropped a handle
    // on the floor without releasing its budget.
    let mut probe = connect(&tcp_addr, &path, 0x960BE_u64);
    // The probe itself runs through the fault plane, so ride out any
    // injected error on the stats exchange too.
    let mut attempts = 0;
    let v2 = loop {
        match probe.stats_v2() {
            Ok(v2) => break v2,
            Err(e) => {
                attempts += 1;
                assert!(attempts < 20, "stats probe could not get through: {e}");
                let _ = probe.reconnect();
            }
        }
    };
    assert_eq!(v2.store.resident_count, 0, "resident datasets after full disconnect");
    assert_eq!(v2.store.resident_bytes, 0, "resident bytes after full disconnect");
    println!(
        "store accounting exact: {} puts / {} drops, 0 resident after disconnect",
        v2.store.puts, v2.store.drops
    );
    println!(
        "faults injected: {} io, {} delays, {} short writes, {} exec panics, {} store; {} panics recovered, {} workers respawned, {} deadlines expired",
        v2.fault.injected_io_errors,
        v2.fault.injected_delays,
        v2.fault.injected_short_writes,
        v2.fault.injected_exec_panics,
        v2.fault.injected_store_errors,
        v2.fault.panics_recovered,
        v2.fault.workers_respawned,
        v2.fault.deadline_expired,
    );
    drop(probe);

    if let Some((engine, control, join, plane)) = spawned {
        control.request_shutdown();
        join.join().expect("server thread").expect("server run — clean daemon exit");
        println!("daemon exited cleanly with {} total injected faults", plane.snapshot().total());
        drop(engine);
    }
    println!("chaos_soak PASS");
}
