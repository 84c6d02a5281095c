//! Criterion: `rankd` engine throughput on the mixed workload — the
//! pooled engine vs the naive sequential-submit baseline (one-shot `HostRunner` per job, fresh
//! allocations). The same scenario is the `rankd` CLI's default shape,
//! scaled down so the benchmark converges quickly.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use engine::workload::{run_baseline, run_engine, OpSelect, Workload, WorkloadConfig};
use engine::{Engine, EngineConfig};
use std::hint::black_box;

fn scenario() -> WorkloadConfig {
    WorkloadConfig {
        min_exp: 2,
        max_exp: 5,
        elems_per_decade: 300_000,
        max_jobs_per_decade: 600,
        scan_frac: 0.3,
        op: OpSelect::Mixed,
        seed: 0xC90,
        lists_per_decade: 2,
    }
}

fn bench_engine(c: &mut Criterion) {
    let workload = Workload::generate(&scenario());
    let mut g = c.benchmark_group("engine_throughput");
    g.throughput(Throughput::Elements(workload.total_elements));

    let pooled = Engine::new(EngineConfig::default());
    // Warm pass: planner history and pool population, as in steady state.
    run_engine(&pooled, &workload);
    g.bench_function("engine_pooled", |b| {
        b.iter(|| black_box(run_engine(&pooled, &workload).checksum))
    });

    g.bench_function("naive_sequential", |b| {
        b.iter(|| black_box(run_baseline(&workload).checksum))
    });
    g.finish();

    println!("\npooled engine stats after benchmark:\n{}", pooled.stats());
    pooled.shutdown();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
