//! The reply codec at `resident_big`'s size, 2²² elements: where a
//! 32 MiB reply's time goes when its buffer is fresh versus reused.
//!
//! A buffer of 32 MiB or more is a fresh mapping from the allocator on
//! every allocation, so encoding into a fresh `Vec` pays a page fault
//! per 4 KiB touched; a reused buffer keeps its pages. Two pairs:
//!
//! * `encode/*`: the server side — `output_body` into a fresh `Vec`
//!   against `output_body_into` a reused one (what a worker does with
//!   its pooled reply buffer);
//! * `decode/*`: the client side — read the frame off the wire into a
//!   fresh buffer (`read_frame`) or a reused one (`read_frame_into`),
//!   then `decode_output` the ranks.
//!
//! `CRITERION_QUICK=1` shortens runs; `cargo bench -p repro --bench
//! reply_codec` runs the full pass.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use engine::protocol::{self, FrameKind, OutputMeta};
use listrank::Algorithm;
use std::hint::black_box;

const N: usize = 1 << 22;

fn meta() -> OutputMeta {
    OutputMeta { algorithm: Algorithm::Serial, shards: 0, queued_ns: 1, exec_ns: 2, trace_id: 3 }
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("reply_codec/encode");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    let ranks: Vec<u64> = (0..N as u64).rev().collect();
    let meta = meta();
    g.bench_function("output_body_fresh", |b| {
        b.iter(|| black_box(protocol::output_body(&meta, black_box(&ranks))).len())
    });
    let mut reused = Vec::new();
    g.bench_function("output_body_into_reused", |b| {
        b.iter(|| {
            reused.clear();
            protocol::output_body_into(&meta, black_box(&ranks), &mut reused);
            black_box(&reused).len()
        })
    });
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("reply_codec/decode");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    let ranks: Vec<u64> = (0..N as u64).rev().collect();
    let mut wire = Vec::new();
    let body = protocol::output_body(&meta(), &ranks);
    protocol::write_frame(&mut wire, FrameKind::Output as u8, &body).expect("frame to a Vec");
    let cap = u32::MAX;
    g.bench_function("read_frame_fresh", |b| {
        b.iter(|| {
            let frame = protocol::read_frame(&mut black_box(&wire[..]), cap)
                .expect("reads")
                .expect("one frame");
            protocol::decode_output::<u64>(&frame.body).expect("decodes").1.len()
        })
    });
    let mut reused = Vec::new();
    g.bench_function("read_frame_into_reused", |b| {
        b.iter(|| {
            protocol::read_frame_into(&mut black_box(&wire[..]), cap, &mut reused)
                .expect("reads")
                .expect("one frame");
            protocol::decode_output::<u64>(&reused).expect("decodes").1.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
