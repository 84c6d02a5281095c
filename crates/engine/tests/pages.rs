//! A client's list-sized output is allocated on huge pages
//! (`listkit::pages`), both where `decode_output` decodes a staged body
//! and where `Client::call` reads a served OUTPUT's payload off the
//! socket straight into it: the `/proc/self/smaps` mapping that holds it
//! carries `hg` among its `VmFlags`. Whether the kernel found a free
//! 2 MiB page (`AnonHugePages`) depends on fragmentation, so it is not
//! asserted. Skipped where transparent huge pages are missing or set to
//! `never`.
#![cfg(target_os = "linux")]

use engine::client::{Call, Client};
use engine::protocol::{self, OutputMeta};
use engine::server::{ServeConfig, Server};
use engine::{Engine, EngineConfig};
use listrank::Algorithm;
use std::sync::Arc;

fn huge_pages_enabled() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|mode| !mode.contains("[never]"))
}

/// Whether the `/proc/self/smaps` mapping that holds `addr` is marked
/// for huge pages.
fn advised(addr: usize) -> bool {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut inside = false;
    for line in smaps.lines() {
        let range = line.split_whitespace().next().and_then(|r| r.split_once('-'));
        if let Some((Ok(lo), Ok(hi))) =
            range.map(|(lo, hi)| (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16)))
        {
            inside = (lo..hi).contains(&addr);
        } else if let Some(flags) = line.strip_prefix("VmFlags:").filter(|_| inside) {
            return flags.split_whitespace().any(|f| f == "hg");
        }
    }
    panic!("no mapping holds {addr:#x}");
}

#[test]
fn decoded_output_of_a_list_sized_reply_is_advised() {
    if !huge_pages_enabled() {
        eprintln!("transparent huge pages unavailable; skipped");
        return;
    }
    let meta = OutputMeta {
        algorithm: Algorithm::ReidMiller,
        shards: 0,
        queued_ns: 1,
        exec_ns: 2,
        trace_id: 3,
    };
    let ranks: Vec<u64> = (0..1 << 20).rev().collect();
    let body = protocol::output_body(&meta, &ranks);
    let (got_meta, got) = protocol::decode_output::<u64>(&body).expect("decodes");
    assert_eq!(got_meta, meta);
    assert!(got == ranks, "the payload round-trips");
    assert_eq!(got.capacity(), got.len(), "the allocation is exact");
    let middle = got.as_ptr() as usize + 4 * got.len();
    assert!(advised(middle), "the 8 MiB decode is on huge pages");
}

#[test]
fn a_served_output_read_by_the_client_is_advised() {
    if !huge_pages_enabled() {
        eprintln!("transparent huge pages unavailable; skipped");
        return;
    }
    let path = std::env::temp_dir().join(format!("rankd-pages-{}.sock", std::process::id()));
    let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(1)));
    let server = Server::bind(engine, ServeConfig::new(&path)).expect("bind");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let list = listkit::gen::random_list(1 << 20, 0x9a6e);
    let mut client = Client::connect(&path).expect("connect");
    let got = client.call(&Call::rank(&list)).expect("rank").output;
    assert!(got == listkit::serial::rank(&list), "the served ranks match the serial oracle");
    assert_eq!(got.capacity(), got.len(), "the allocation is exact");
    let middle = got.as_ptr() as usize + 4 * got.len();
    assert!(advised(middle), "the 8 MiB output is on huge pages");

    control.request_shutdown();
    drop(client);
    join.join().expect("server thread").expect("server run");
}
