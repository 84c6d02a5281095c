//! `serve_bench` — workload driver for the `rankd serve` socket layer.
//!
//! Spawns an engine + server in-process on a temporary socket (or
//! targets an already-running daemon with `--socket`), then drives it
//! with N concurrent clients × M rank/scan requests each, checks
//! every reply byte-for-byte against a local `HostRunner`, and reports
//! request throughput plus the serving-layer counters — i.e. what the
//! wire protocol and the per-client handler threads cost on top of the
//! bare engine.
//!
//! Three query modes isolate where the per-request time goes:
//!
//! * `--mode oneshot` (default) — a fresh random list per request, the
//!   original mixed workload: encode + ship + validate + solve every
//!   time.
//! * `--mode inline` — one list per client, re-shipped inline with
//!   every request: the server re-validates and re-plans the same
//!   dataset each time.
//! * `--mode handle` — one PUT per client, then every request queries
//!   by 8-byte handle: the resident dataset store's repeated-query
//!   path (protocol v3).
//! * `--mode mutate` — one PUT per client, then a mutate-then-query
//!   loop: every `--mutate-every`-th request sends a MUTATE batch
//!   (splice + delete + append), the rest rank by handle. Each client
//!   keeps a local mirror of its dataset and checks every rank reply
//!   byte-for-byte against a from-scratch solve of the mirror — the
//!   dynamic-lists path (protocol v4) under live traffic.
//! * `--mode pipeline` — one PUT per client, then rank-by-handle with
//!   up to `--pipeline-depth` requests in flight on one connection
//!   (protocol v6 request ids). With no explicit depth the bench
//!   sweeps depths {1, 4, 8, 16} and reports the speedup over the
//!   depth-1 (serial) baseline; every reply is still checked against
//!   the local oracle, so the speedup comes with byte parity.
//!
//! `--tcp` runs the same workload over the daemon's TCP listener
//! (in-process servers bind `127.0.0.1:0`) instead of the Unix
//! socket.
//!
//! Latency histograms time the round trip from *after* the request
//! body is encoded to the decoded reply, so client-side encode cost
//! never pollutes the serving-layer numbers.
//!
//! ```sh
//! cargo run --release --example serve_bench -- --clients 8 --requests 50
//! cargo run --release --example serve_bench -- --mode handle --n 8388608 \
//!     --clients 1 --requests 32
//! cargo run --release --example serve_bench -- --mode mutate --n 100000 \
//!     --clients 4 --requests 40 --mutate-every 4
//! cargo run --release --example serve_bench -- --mode pipeline --tcp \
//!     --clients 2 --requests 64 --n 20000
//! ```

#[cfg(not(unix))]
fn main() {
    eprintln!("serve_bench requires unix domain sockets");
    std::process::exit(2);
}

#[cfg(unix)]
fn main() {
    use engine::client::{Call, Client};
    use engine::protocol::{self, FrameKind};
    use engine::server::{ServeConfig, Server};
    use engine::{Engine, EngineConfig};
    use listkit::dynamic::{Edit, MutableList};
    use listkit::gen;
    use listkit::ops::AddOp;
    use listrank::{Algorithm, HostRunner};
    use std::sync::Arc;
    use std::time::Instant;

    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        Oneshot,
        Inline,
        Handle,
        Mutate,
        Pipeline,
    }

    /// Where the client threads connect: the daemon's Unix socket or
    /// its TCP listener — same protocol, same parity checks.
    #[derive(Clone)]
    enum Target {
        Unix(String),
        Tcp(String),
    }

    impl Target {
        fn connect(&self) -> Client {
            match self {
                Target::Unix(p) => Client::connect(p).expect("connect"),
                Target::Tcp(a) => Client::connect_tcp(a.as_str()).expect("connect tcp"),
            }
        }

        fn describe(&self) -> String {
            match self {
                Target::Unix(p) => format!("socket {p}"),
                Target::Tcp(a) => format!("tcp {a}"),
            }
        }
    }

    let mut clients = 4usize;
    let mut requests = 25usize;
    let mut n = 20_000usize;
    let mut socket: Option<String> = None;
    let mut mode = Mode::Oneshot;
    let mut mutate_every = 4usize;
    let mut pipeline_depth = 0usize; // 0 = sweep {1, 4, 8, 16}
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
            "--socket" => socket = Some(val("--socket")),
            "--mode" => {
                mode = match val("--mode").as_str() {
                    "oneshot" => Mode::Oneshot,
                    "inline" => Mode::Inline,
                    "handle" => Mode::Handle,
                    "mutate" => Mode::Mutate,
                    "pipeline" => Mode::Pipeline,
                    other => {
                        eprintln!(
                            "unknown --mode {other} (want oneshot|inline|handle|mutate|pipeline)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--pipeline-depth" => {
                pipeline_depth = val("--pipeline-depth").parse().expect("depth");
            }
            "--tcp" => tcp = true,
            "--mutate-every" => {
                mutate_every = val("--mutate-every").parse().expect("ratio");
                if mutate_every == 0 {
                    eprintln!("--mutate-every must be ≥ 1");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!(
                    "unknown flag {other}\nUSAGE: serve_bench [--clients N] [--requests M] [--n V] [--mode oneshot|inline|handle|mutate|pipeline] [--mutate-every K] [--pipeline-depth D] [--tcp] [--socket PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    if tcp && socket.is_some() {
        eprintln!("--tcp drives the in-process daemon's TCP listener; with an external daemon pass --socket only");
        std::process::exit(2);
    }

    // In-process daemon unless pointed at an external one.
    let mut spawned = None;
    let mut tcp_addr = None;
    let path = match socket {
        Some(p) => p,
        None => {
            let p = std::env::temp_dir()
                .join(format!("rankd-serve-bench-{}.sock", std::process::id()))
                .to_string_lossy()
                .into_owned();
            let engine = Arc::new(Engine::new(EngineConfig::default()));
            let mut cfg = ServeConfig::new(&p);
            if tcp {
                cfg = cfg.with_tcp(Some("127.0.0.1:0".to_string()));
            }
            let server = Server::bind(Arc::clone(&engine), cfg).expect("bind bench socket");
            tcp_addr = server.tcp_local_addr().map(|a| a.to_string());
            let control = server.control();
            let join = std::thread::spawn(move || server.run());
            spawned = Some((engine, control, join));
            p
        }
    };
    let target = match tcp_addr {
        Some(addr) => Target::Tcp(addr),
        None => Target::Unix(path.clone()),
    };

    // Pipelined mode has its own driver: a windowed in-flight loop per
    // connection, swept over depths so the serial baseline and the
    // pipelined runs come from the same process and dataset shapes.
    if mode == Mode::Pipeline {
        let depths: Vec<usize> =
            if pipeline_depth == 0 { vec![1, 4, 8, 16] } else { vec![pipeline_depth] };
        println!(
            "serve_bench: {clients} clients × {requests} requests, {n}-vertex resident lists, mode pipeline, depths {depths:?}, {}",
            target.describe()
        );
        let mut base_rps: Option<f64> = None;
        for &depth in &depths {
            assert!(depth >= 1, "--pipeline-depth must be ≥ 1");
            let t_depth = Instant::now();
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    let target = target.clone();
                    std::thread::spawn(move || {
                        let mut client = target.connect();
                        let runner = HostRunner::new(Algorithm::ReidMiller);
                        let fixed = gen::random_list(n, c as u64 * 1009);
                        let expected = runner.rank(&fixed);
                        let handle = client.put(&fixed).expect("put").handle;
                        let mut inflight = 0usize;
                        let mut next_id = 1u64;
                        let mut done = 0usize;
                        while done < requests {
                            while inflight < depth && next_id as usize <= requests {
                                client
                                    .send(&Call::rank(handle).id(next_id))
                                    .expect("pipelined send");
                                next_id += 1;
                                inflight += 1;
                            }
                            let (_id, res) = client.recv_pipelined::<u64>().expect("recv");
                            let served = res.expect("pipelined request served");
                            assert_eq!(served.output, expected, "pipelined rank parity");
                            inflight -= 1;
                            done += 1;
                        }
                        client.drop_handle(handle).expect("drop handle");
                        (requests * n) as u64
                    })
                })
                .collect();
            let mut elements = 0u64;
            for w in workers {
                elements += w.join().expect("client");
            }
            let elapsed = t_depth.elapsed().as_secs_f64();
            let total = clients * requests;
            let rps = total as f64 / elapsed;
            let base = *base_rps.get_or_insert(rps);
            println!(
                "pipeline depth {depth:>2}: {total} requests ({elements} vertices) in {elapsed:.3}s — {rps:.1} req/s, {:.2}× vs depth {}, all parity-checked",
                rps / base,
                depths[0]
            );
        }

        let mut probe = target.connect();
        let v2 = probe.stats_v2().expect("stats_v2");
        let sc = &v2.sched;
        println!(
            "scheduler gauges: {} pipelined requests, max depth {}, {} reordered replies, {} interactive / {} batch dispatched",
            sc.pipelined_requests,
            sc.max_pipeline_depth,
            sc.reply_reorders,
            sc.dispatched_interactive,
            sc.dispatched_batch
        );
        drop(probe);
        if let Some((engine, control, join)) = spawned {
            control.request_shutdown();
            join.join().expect("server thread").expect("server run");
            drop(engine);
        }
        return;
    }

    let mode_name = match mode {
        Mode::Oneshot => "oneshot",
        Mode::Inline => "inline",
        Mode::Handle => "handle",
        Mode::Mutate => "mutate",
        Mode::Pipeline => unreachable!("pipeline mode returned above"),
    };
    match mode {
        Mode::Mutate => println!(
            "serve_bench: {clients} clients × {requests} requests, {n}-vertex lists, mode mutate (1 mutation per {mutate_every} requests), {}",
            target.describe()
        ),
        _ => println!(
            "serve_bench: {clients} clients × {requests} requests, {n}-vertex lists, mode {mode_name}, {}",
            target.describe()
        ),
    }
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let target = target.clone();
            std::thread::spawn(move || {
                let mut client = target.connect();
                let runner = HostRunner::new(Algorithm::ReidMiller);
                let mut elements = 0u64;
                // Client-observed wall-clock latency per op kind,
                // timed from after the request body is encoded.
                let mut rank_lat = engine::Histogram::new();
                let mut scan_lat = engine::Histogram::new();
                let mut mut_lat = engine::Histogram::new();
                let values: Vec<i64> = (0..n as i64).map(|i| (i % 23) - 11).collect();

                if mode == Mode::Mutate {
                    // Mutate-then-query loop: the client mirrors its
                    // dataset locally, applies the same edit batches to
                    // the mirror, and checks every rank reply against a
                    // from-scratch solve of the mirror — end-to-end
                    // byte-identity under live mutation traffic.
                    let fixed = gen::random_list(n, c as u64 * 1009);
                    let handle = client.put(&fixed).expect("put").handle;
                    let mut mirror = MutableList::from_list(&fixed);
                    let mut expected = runner.rank(&fixed);
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (c as u64) << 17;
                    let mut pick = move |m: u64| {
                        rng =
                            rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        (rng >> 33) % m.max(1)
                    };
                    for r in 0..requests {
                        if r % mutate_every == 0 {
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
                            mirror.apply(&edits).expect("valid batch");
                            let body = protocol::mutate_body(handle, &edits);
                            let t_req = Instant::now();
                            let reply = client.mutate_encoded(&body).expect("mutate");
                            mut_lat.record(t_req.elapsed().as_nanos() as u64);
                            assert_eq!(reply.applied, 3, "whole batch applied");
                            assert_eq!(reply.len, mirror.len() as u64, "length parity");
                            expected = runner.rank(&mirror.snapshot());
                        } else {
                            let body = protocol::rank_h_body(handle, true);
                            let t_req = Instant::now();
                            let served = client
                                .request_encoded::<u64>(FrameKind::RankH, &body)
                                .expect("rank_h");
                            rank_lat.record(t_req.elapsed().as_nanos() as u64);
                            assert_eq!(served.output, expected, "post-mutation rank parity");
                        }
                        elements += mirror.len() as u64;
                    }
                    client.drop_handle(handle).expect("drop handle");
                    return (elements, rank_lat, scan_lat, mut_lat);
                }

                // Inline/handle modes query one dataset repeatedly, so
                // the expected outputs (and the request bodies, minus
                // what the mode re-ships) are computed once.
                let fixed = gen::random_list(n, c as u64 * 1009);
                let (expected_rank, expected_scan) = match mode {
                    Mode::Oneshot => (Vec::new(), Vec::new()),
                    _ => (runner.rank(&fixed), runner.scan(&fixed, &values, &AddOp)),
                };
                let handle = match mode {
                    Mode::Handle => Some(client.put(&fixed).expect("put").handle),
                    _ => None,
                };
                let ((rank_kind, rank_body), (scan_kind, scan_body)) = match mode {
                    Mode::Oneshot => ((FrameKind::Rank, Vec::new()), (FrameKind::Scan, Vec::new())),
                    Mode::Inline => {
                        (Call::rank(&fixed).encode(), Call::scan(&fixed, &values, AddOp).encode())
                    }
                    Mode::Handle => {
                        let h = handle.expect("put issued a handle");
                        (Call::rank(h).encode(), Call::scan(h, &values, AddOp).encode())
                    }
                    Mode::Mutate | Mode::Pipeline => {
                        unreachable!("mutate/pipeline modes returned above")
                    }
                };

                for r in 0..requests {
                    if mode == Mode::Oneshot {
                        let list = gen::random_list(n, (c * 1009 + r) as u64);
                        if r % 2 == 0 {
                            let (kind, body) = Call::rank(&list).encode();
                            let t_req = Instant::now();
                            let served = client.request_encoded::<u64>(kind, &body).expect("rank");
                            rank_lat.record(t_req.elapsed().as_nanos() as u64);
                            assert_eq!(served.output, runner.rank(&list), "rank parity");
                        } else {
                            let (kind, body) = Call::scan(&list, &values, AddOp).encode();
                            let t_req = Instant::now();
                            let served = client.request_encoded::<i64>(kind, &body).expect("scan");
                            scan_lat.record(t_req.elapsed().as_nanos() as u64);
                            assert_eq!(
                                served.output,
                                runner.scan(&list, &values, &AddOp),
                                "scan parity"
                            );
                        }
                    } else if r % 2 == 0 {
                        let t_req = Instant::now();
                        let served =
                            client.request_encoded::<u64>(rank_kind, &rank_body).expect("rank");
                        rank_lat.record(t_req.elapsed().as_nanos() as u64);
                        assert_eq!(served.output, expected_rank, "rank parity");
                    } else {
                        let t_req = Instant::now();
                        let served =
                            client.request_encoded::<i64>(scan_kind, &scan_body).expect("scan");
                        scan_lat.record(t_req.elapsed().as_nanos() as u64);
                        assert_eq!(served.output, expected_scan, "scan parity");
                    }
                    elements += n as u64;
                }
                if let Some(h) = handle {
                    client.drop_handle(h).expect("drop handle");
                }
                (elements, rank_lat, scan_lat, mut_lat)
            })
        })
        .collect();
    // Merge the per-thread histograms (merge is associative and
    // commutative, so join order does not matter).
    let mut elements = 0u64;
    let mut rank_lat = engine::Histogram::new();
    let mut scan_lat = engine::Histogram::new();
    let mut mut_lat = engine::Histogram::new();
    for w in workers {
        let (e, r, s, m) = w.join().expect("client");
        elements += e;
        rank_lat.merge(&r);
        scan_lat.merge(&s);
        mut_lat.merge(&m);
    }
    let elapsed = t0.elapsed();
    let total = clients * requests;
    println!(
        "{total} requests ({elements} vertices) in {:.3}s — {:.1} req/s, {:.2} M elem/s, all parity-checked",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64(),
        elements as f64 / elapsed.as_secs_f64() / 1e6
    );
    for (name, h) in [("rank", &rank_lat), ("scan_add", &scan_lat), ("mutate", &mut_lat)] {
        if !h.is_empty() {
            println!(
                "client latency {name:>9}: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms  ({} requests)",
                h.percentile(50.0) as f64 / 1e6,
                h.percentile(95.0) as f64 / 1e6,
                h.percentile(99.0) as f64 / 1e6,
                h.max() as f64 / 1e6,
                h.count()
            );
        }
    }

    let mut probe = target.connect();
    if mode == Mode::Handle || mode == Mode::Mutate {
        let v2 = probe.stats_v2().expect("stats_v2");
        let s = &v2.store;
        println!(
            "store: {} hits / {} lookups, {} puts, {} evictions, {} artifacts built / {} reused",
            s.hits, s.lookups, s.puts, s.evictions, s.artifacts_built, s.artifacts_reused
        );
        if mode == Mode::Mutate {
            let m = &v2.mutate;
            println!(
                "mutations: {} batches ({} edits), maintenance {} incremental / {} full, {} dirty shards patched, {} artifacts patched",
                m.mutations, m.edits, m.incremental, m.full, m.dirty_shards_patched, m.artifacts_patched
            );
        }
    }
    let stats = probe.stats().expect("stats");
    println!("\n-- daemon stats --\n{}", stats.text);
    drop(probe);

    if let Some((engine, control, join)) = spawned {
        control.request_shutdown();
        join.join().expect("server thread").expect("server run");
        drop(engine);
    }
}
