//! Criterion: shard-parallel huge-list ranking vs the monolithic
//! backends on one 2^21-vertex list (the engine test
//! `sharded_scenario_passes_agree` checks the same comparison's bytes).
//! Topology locality (the blocked-layout block size) is swept because
//! it decides the contracted boundary list's length and stitch cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use listkit::gen::{self, Layout};
use listkit::sharded::ShardedList;
use listrank::host::rank_sharded;
use listrank::{Algorithm, HostRunner};
use std::hint::black_box;

const N: usize = 1 << 21;
const SHARD: usize = 1 << 17;

fn bench_sharded(c: &mut Criterion) {
    for (tag, block) in [("blocked4k", 4096usize), ("blocked64", 64), ("random", 1)] {
        let list = if block > 1 {
            gen::list_with_layout(N, Layout::Blocked(block), 0xC90)
        } else {
            gen::random_list(N, 0xC90)
        };
        let mut g = c.benchmark_group(format!("sharded_rank/{tag}"));
        g.throughput(Throughput::Elements(N as u64));

        g.bench_function("sharded", |b| b.iter(|| black_box(rank_sharded(&list, SHARD, 0x1994).0)));
        // The build is reusable across ranks of the same list; measure
        // the steady-state cost separately from the end-to-end cost.
        let built = ShardedList::build(&list, SHARD);
        g.bench_function("sharded_prebuilt", |b| b.iter(|| black_box(built.rank())));
        g.bench_function("monolithic_serial", |b| {
            b.iter(|| black_box(HostRunner::new(Algorithm::Serial).rank(&list)))
        });
        g.bench_function("monolithic_reid_miller", |b| {
            b.iter(|| black_box(HostRunner::new(Algorithm::ReidMiller).rank(&list)))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
