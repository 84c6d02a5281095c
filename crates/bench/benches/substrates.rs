//! Criterion: substrate micro-benchmarks — list generation, serial
//! traversal, predecessor building, packed encoding, link validation,
//! the cache simulator and banked memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use listkit::gen::Layout;
use listkit::packed::PackedList;
use listkit::validate::validate_links;
use listkit::{gen, serial};
use std::hint::black_box;
use vmach::cache::{CacheConfig, CacheSim};
use vmach::memory::BankSim;

fn bench_listkit(c: &mut Criterion) {
    let mut g = c.benchmark_group("listkit");
    g.sample_size(10);
    let n = 1usize << 20;
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function(BenchmarkId::new("random_list", n), |b| {
        b.iter(|| black_box(gen::random_list(black_box(n), 42)))
    });
    let list = gen::random_list(n, 42);
    g.bench_function(BenchmarkId::new("serial_rank", n), |b| {
        b.iter(|| black_box(serial::rank(black_box(&list))))
    });
    g.bench_function(BenchmarkId::new("predecessors", n), |b| {
        b.iter(|| black_box(listrank::host::prev::build_prev(black_box(&list))))
    });
    let packed = PackedList::for_ranking(&list);
    g.bench_function(BenchmarkId::new("packed_serial_rank", n), |b| {
        b.iter(|| black_box(packed.serial_rank()))
    });
    g.finish();
}

/// `validate_links` — what every PUT and inline request pays before a
/// list exists — on the paper's random layout and a blocked one.
fn bench_validate(c: &mut Criterion) {
    let mut g = c.benchmark_group("validate_links");
    g.sample_size(10);
    let n = 1usize << 22;
    g.throughput(Throughput::Elements(n as u64));
    for (tag, layout) in [("random", Layout::Random), ("blocked4k", Layout::Blocked(4096))] {
        let list = gen::list_with_layout(n, layout, 42);
        g.bench_function(BenchmarkId::new(tag, n), |b| {
            b.iter(|| black_box(validate_links(black_box(list.links()), list.head())))
        });
    }
    g.finish();
}

fn bench_vmach_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("vmach_models");
    g.sample_size(10);
    let n = 1usize << 18;
    g.throughput(Throughput::Elements(n as u64));
    let list = gen::random_list(n, 7);
    g.bench_function(BenchmarkId::new("cache_sim_traversal", n), |b| {
        b.iter(|| {
            let mut sim = CacheSim::new(CacheConfig::alpha_board_cache());
            let mut v = list.head();
            for _ in 0..n {
                sim.access(v as u64 * 4);
                v = list.next_of(v);
            }
            black_box(sim.stats())
        })
    });
    g.bench_function(BenchmarkId::new("bank_sim_stream", n), |b| {
        b.iter(|| {
            let mut sim = BankSim::new(1024, 6);
            black_box(sim.run((0..n).map(|i| i.wrapping_mul(0x9e37_79b9) % (1 << 24))))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_listkit, bench_validate, bench_vmach_models);
criterion_main!(benches);
