//! The serving smokes against the real `rankd serve` binary: each test
//! starts the daemon with the flags under test, drives parity-checked
//! traffic at it over its Unix socket, and then reads the counters the
//! traffic must leave behind twice, once from STATS_V2 and once from
//! the `rankd stats` dashboard run as a subprocess. The pipelining
//! sweep drives an in-process daemon over TCP instead, as it needs a
//! kernel-assigned port.
#![cfg(unix)]

use engine::client::{Call, Client};
use engine::EngineConfig;
use listkit::dynamic::MutableList;
use listkit::gen;
use listkit::ops::AddOp;
use listrank::{Algorithm, HostRunner};
use std::collections::HashSet;

mod common;
use common::{count_then, line_after, rankd, start, table_samples, Daemon, EditStream};

/// Run `client(c)` for each of `clients` clients on its own thread; a
/// panic on any of them fails the test.
fn each_client(clients: usize, client: impl Fn(usize) + Sync) {
    std::thread::scope(|s| {
        for c in 0..clients {
            let client = &client;
            s.spawn(move || client(c));
        }
    });
}

/// The add-scan values every scan request sends.
fn values(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i % 23) - 11).collect()
}

/// `requests` ranks by handle of client `c`'s list (seed `c·1009`),
/// with at most `depth` in flight on one connection. Every reply must
/// answer a request id in flight and match the serial oracle.
fn pipelined_ranks(mut client: Client, c: usize, n: usize, requests: usize, depth: usize) {
    let list = gen::random_list(n, c as u64 * 1009);
    let expected = HostRunner::new(Algorithm::ReidMiller).rank(&list);
    let handle = client.put(&list).expect("put").handle;
    let mut in_flight = HashSet::new();
    let mut next_id = 1u64;
    for _ in 0..requests {
        while in_flight.len() < depth && next_id as usize <= requests {
            client.send(&Call::rank(handle).id(next_id)).expect("pipelined send");
            in_flight.insert(next_id);
            next_id += 1;
        }
        let (id, reply) = client.recv_pipelined::<u64>().expect("pipelined recv");
        assert!(in_flight.remove(&id), "reply id {id} answers no request in flight");
        let served = reply.expect("pipelined rank served");
        assert!(served.output == expected, "pipelined rank {id} diverged from the oracle");
    }
    client.drop_handle(handle).expect("drop handle");
}

/// Mixed one-shot traffic (4 clients × 20 requests on fresh
/// 20 000-vertex lists, ranks and add-scans alternating) fills the
/// dashboard's exec table for both ops and its phase table from decode
/// to reply-write.
#[test]
fn traffic_fills_the_dashboard_latency_tables() {
    let daemon = Daemon::spawn("telemetry", &["--serve-secs", "120", "--workers", "2"]);
    let n = 20_000;
    let values = values(n);
    each_client(4, |c| {
        let mut client = Client::connect(&daemon.path).expect("connect");
        let runner = HostRunner::new(Algorithm::ReidMiller);
        for r in 0..20 {
            let list = gen::random_list(n, (c * 1009 + r) as u64);
            if r % 2 == 0 {
                let served = client.call(&Call::rank(&list)).expect("rank");
                assert!(served.output == runner.rank(&list), "rank parity");
            } else {
                let served = client.call(&Call::scan(&list, &values, AddOp)).expect("scan");
                assert!(served.output == runner.scan(&list, &values, &AddOp), "scan parity");
            }
        }
    });

    let dash = daemon.dashboard().expect("rankd stats");
    for op in ["rank", "add"] {
        assert!(table_samples(&dash, "exec latency by op (ms):", op) > 0, "{op} row:\n{dash}");
    }
    for phase in ["decode", "reply-write"] {
        assert!(table_samples(&dash, "latency by phase (ms):", phase) > 0, "{phase} row:\n{dash}");
    }
    daemon.terminate();
}

/// Each of 2 clients PUTs its 20 000-vertex list once and then sends 25
/// queries by handle: every lookup hits, and both STATS_V2 and the
/// dashboard say so.
#[test]
fn handle_queries_hit_the_store_every_time() {
    let args = ["--serve-secs", "120", "--workers", "2", "--store-budget", "256m"];
    let daemon = Daemon::spawn("store", &args);
    let n = 20_000;
    let values = values(n);
    each_client(2, |c| {
        let mut client = Client::connect(&daemon.path).expect("connect");
        let list = gen::random_list(n, c as u64 * 1009);
        let runner = HostRunner::new(Algorithm::ReidMiller);
        let (ranks, sums) = (runner.rank(&list), runner.scan(&list, &values, &AddOp));
        let handle = client.put(&list).expect("put").handle;
        for r in 0..25 {
            if r % 2 == 0 {
                let served = client.call(&Call::rank(handle)).expect("rank_h");
                assert!(served.output == ranks, "rank parity");
            } else {
                let served = client.call(&Call::scan(handle, &values, AddOp)).expect("scan_h");
                assert!(served.output == sums, "scan parity");
            }
        }
        client.drop_handle(handle).expect("drop handle");
    });

    let v2 = Client::connect(&daemon.path).expect("connect").stats_v2().expect("stats_v2");
    let store = v2.store;
    assert_eq!((store.hits, store.lookups, store.puts), (50, 50, 2), "hits, lookups, puts");
    let dash = daemon.dashboard().expect("rankd stats");
    let line = line_after(&dash, "store: ");
    assert!(line.contains("hits: 50/50 lookups (100.0% hit rate)"), "{dash}");
    daemon.terminate();
}

/// Each of 2 clients PUTs a 20 000-vertex list, then sends 24 requests:
/// an edit batch every fourth, sharded ranks by handle otherwise, each
/// checked against a mirror of the list that took the same edits. A
/// sharded rank by handle is served from the dataset's kept rank array.
/// Every batch drops that array, so the rank after it builds a new one
/// and the two after that reuse it: per client 6 batches, 6 builds and
/// 12 reuses.
#[test]
fn mutations_drop_the_kept_rank_array() {
    let args = ["--serve-secs", "120", "--workers", "2", "--shard-budget", "4096"];
    let daemon = Daemon::spawn("mutate", &args);
    let n = 20_000;
    each_client(2, |c| {
        let mut client = Client::connect(&daemon.path).expect("connect");
        let runner = HostRunner::new(Algorithm::ReidMiller);
        let list = gen::random_list(n, c as u64 * 1009);
        let handle = client.put(&list).expect("put").handle;
        let mut mirror = MutableList::from_list(&list);
        let mut expected = runner.rank(&list);
        let mut batches = EditStream::new(c);
        for r in 0..24 {
            if r % 4 == 0 {
                let edits = batches.batch(mirror.len());
                mirror.apply(&edits).expect("valid batch");
                let reply = client.mutate(handle, &edits).expect("mutate");
                assert_eq!(reply.applied, 3, "whole batch applied");
                assert_eq!(reply.len, mirror.len() as u64, "length parity");
                let maintained = (reply.incremental, reply.dirty_shards, reply.artifacts);
                assert_eq!(maintained, (false, 0, 0), "a batch only drops the array");
                expected = runner.rank(&mirror.snapshot());
            } else {
                let served = client.call(&Call::rank(handle).sharded()).expect("sharded rank_h");
                assert!(served.output == expected, "post-mutation rank parity");
                assert_eq!(served.meta.shards, 0, "served from the kept ranks");
            }
        }
        client.drop_handle(handle).expect("drop handle");
    });

    let v2 = Client::connect(&daemon.path).expect("connect").stats_v2().expect("stats_v2");
    assert_eq!((v2.mutate.mutations, v2.mutate.edits), (12, 36), "STATS_V2 counts the batches");
    assert_eq!(v2.mutate.artifacts_patched, 0, "nothing is maintained across a batch");
    let artifacts = (v2.store.artifacts_built, v2.store.artifacts_reused);
    assert_eq!(artifacts, (12, 24), "rank arrays built, reused");
    let dash = daemon.dashboard().expect("rankd stats");
    assert_eq!(line_after(&dash, "mutations: "), "12 batches (36 edits)", "{dash}");
    daemon.terminate();
}

/// One client sends 4000 ranks of a 256-vertex list over TCP at each
/// pipeline depth 1, 4, 8 and 16: the scheduler counts pipelined
/// requests, and its depth high-water mark is the deepest window.
#[test]
fn pipelining_sweep_over_tcp_reaches_depth_16() {
    let tcp = Some("127.0.0.1:0".to_string());
    let server = start("sweep", EngineConfig::default(), |c| c.with_tcp(tcp));
    let addr = server.tcp.expect("tcp listener bound").to_string();
    for depth in [1, 4, 8, 16] {
        let client = Client::connect_tcp(addr.as_str()).expect("connect tcp");
        pipelined_ranks(client, 0, 256, 4000, depth);
    }
    let sched = Client::connect_tcp(addr).expect("connect tcp").stats_v2().expect("stats_v2").sched;
    assert!(sched.pipelined_requests > 0, "pipelined requests counted");
    assert_eq!(sched.max_pipeline_depth, 16, "depth high-water mark");
    server.stop();
}

/// 2 clients × 400 ranks of 2000-vertex lists, 8 in flight each, fill
/// the dashboard's scheduler and pipeline lines.
#[test]
fn pipelined_traffic_fills_the_scheduler_lines() {
    let daemon = Daemon::spawn("pipeline", &["--serve-secs", "120", "--workers", "2"]);
    each_client(2, |c| {
        let client = Client::connect(&daemon.path).expect("connect");
        pipelined_ranks(client, c, 2_000, 400, 8);
    });

    let dash = daemon.dashboard().expect("rankd stats");
    let sched = line_after(&dash, "scheduler: ");
    assert!(count_then(sched, " interactive / ") > Some(0), "{dash}");
    let (_, batch) = sched.split_once(" interactive / ").expect("interactive count");
    assert!(count_then(batch, " batch dispatched").is_some(), "{dash}");
    let pipe = line_after(&dash, "pipeline: ");
    assert!(count_then(pipe, " pipelined requests, max depth 8,") > Some(0), "{dash}");
    daemon.terminate();
}

#[test]
fn stats_names_a_bad_watch_interval() {
    let out = rankd(&["stats", "--watch", "x"]);
    assert_eq!(out.status.code(), Some(2), "usage exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad value for --watch"), "{stderr}");
}
