//! Wire-matrix smoke client for a running `rankd serve` daemon (used by
//! CI).
//!
//! ```sh
//! cargo run --release -p engine --bin rankd -- serve --socket /tmp/rankd.sock &
//! cargo run --release --example serve_smoke -- /tmp/rankd.sock
//! ```
//!
//! Connects over the Unix socket and drives every job frame through
//! [`engine::Client::call`]: {inline list, resident handle} × {rank,
//! add/max/min/xor/affine scan, segmented add}, each once as sent and
//! once routed through the shard-parallel path (`Call::sharded`; the
//! reply's shard count is printed), then one pipelined window of 4
//! through `send` / `recv_pipelined`. Every reply is
//! checked byte for byte against a local [`listrank::HostRunner`] on
//! the same inputs. Finally it prints the daemon's STATS report and
//! sends SHUTDOWN.

#[cfg(not(unix))]
fn main() {
    eprintln!("serve_smoke requires unix domain sockets");
    std::process::exit(2);
}

#[cfg(unix)]
fn main() {
    use engine::client::{Call, Client, Source};
    use engine::protocol::{OutputMeta, WireElem};
    use listkit::gen;
    use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, MinOp, XorOp};
    use listkit::segmented::{self, SegOp};
    use listrank::{Algorithm, HostRunner};

    /// `call` as sent, or routed through the shard-parallel path.
    fn route<T: WireElem>(call: Call<'_, T>, sharded: bool) -> Call<'_, T> {
        if sharded {
            call.sharded()
        } else {
            call
        }
    }

    let socket = std::env::args().nth(1).unwrap_or_else(|| "/tmp/rankd.sock".to_string());
    // The daemon may still be binding; retry briefly before giving up.
    let mut client = None;
    for _ in 0..50 {
        match Client::connect(&socket) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    }
    let mut client = client.unwrap_or_else(|| {
        eprintln!("serve_smoke: no daemon reachable at {socket}");
        std::process::exit(1);
    });
    println!("connected to {socket} (server protocol v{})", client.server_version());

    let n = 50_000;
    let list = gen::random_list(n, 0xC90);
    let i64s: Vec<i64> = (0..n as i64).map(|i| (i % 23) - 11).collect();
    let u64s: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let affs: Vec<Affine> = (0..n as i64).map(|i| Affine::new((i % 5) - 2, (i % 7) - 3)).collect();
    let starts: Vec<bool> = (0..n).map(|v| v % 97 == 0).collect();
    let runner = HostRunner::new(Algorithm::ReidMiller);
    let ranks = runner.rank(&list);
    let seg_add = segmented::unwrap_exclusive(
        &runner.scan(&list, &segmented::wrap(&i64s, &starts), &SegOp(AddOp)),
        &starts,
        &AddOp,
    );

    let handle = client.put(&list).expect("PUT").handle;
    for (name, src) in [("inline", Source::Inline(&list)), ("handle", Source::Handle(handle))] {
        // Every kind as sent, then through the shard-parallel branch.
        for sharded in [false, true] {
            let check = |what: &str, ok: bool, meta: &OutputMeta| {
                assert!(ok, "{name} {what} (sharded: {sharded}) must be byte-identical");
                assert_ne!(meta.trace_id, 0, "server must echo a nonzero trace id");
                if sharded {
                    println!("{name} sharded {what}({n}): parity OK [shards {}]", meta.shards);
                } else {
                    let (alg, ms) = (meta.algorithm.name(), meta.exec_ns as f64 / 1e6);
                    println!("{name} {what}({n}): parity OK  [algorithm {alg}, exec {ms:.3} ms]");
                }
            };
            let got = client.call(&route(Call::rank(src), sharded)).expect("rank");
            check("rank", got.output == ranks, &got.meta);
            let got = client.call(&route(Call::scan(src, &i64s, AddOp), sharded)).expect("add");
            check("add", got.output == runner.scan(&list, &i64s, &AddOp), &got.meta);
            let got = client.call(&route(Call::scan(src, &i64s, MaxOp), sharded)).expect("max");
            check("max", got.output == runner.scan(&list, &i64s, &MaxOp), &got.meta);
            let got = client.call(&route(Call::scan(src, &i64s, MinOp), sharded)).expect("min");
            check("min", got.output == runner.scan(&list, &i64s, &MinOp), &got.meta);
            let got = client.call(&route(Call::scan(src, &u64s, XorOp), sharded)).expect("xor");
            check("xor", got.output == runner.scan(&list, &u64s, &XorOp), &got.meta);
            let got =
                client.call(&route(Call::scan(src, &affs, AffineOp), sharded)).expect("affine");
            check("affine", got.output == runner.scan(&list, &affs, &AffineOp), &got.meta);
            let seg = route(Call::segmented(src, &i64s, &starts, AddOp), sharded);
            let got = client.call(&seg).expect("seg");
            check("segmented add", got.output == seg_add, &got.meta);
        }
    }

    // One pipelined window of 4, alternating inline and by-handle
    // ranks; replies come back in completion order, matched by id.
    for id in 1..=4u64 {
        let src = if id % 2 == 0 { Source::Handle(handle) } else { Source::Inline(&list) };
        client.send(&Call::rank(src).id(id)).expect("pipelined send");
    }
    let mut seen = [false; 4];
    for _ in 0..4 {
        let (id, reply) = client.recv_pipelined::<u64>().expect("pipelined recv");
        assert_eq!(reply.expect("pipelined rank").output, ranks, "pipelined id {id} parity");
        seen[(id - 1) as usize] = true;
    }
    assert_eq!(seen, [true; 4], "every pipelined id answered once");
    println!("pipelined window of 4: parity OK");
    client.drop_handle(handle).expect("DROP");

    let stats = client.stats().expect("stats");
    println!("\n-- daemon stats --\n{}", stats.text);

    client.shutdown().expect("daemon acknowledged shutdown");
    println!("shutdown acknowledged; smoke test passed");
}
