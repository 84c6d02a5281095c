//! The reply codec at `resident_big`'s size, 2²² elements: where a
//! 32 MiB reply's time goes when its buffer is fresh versus reused, and
//! on 4 KiB versus 2 MiB pages.
//!
//! A buffer of 32 MiB or more is a fresh mapping from the allocator on
//! every allocation, so writing a fresh `Vec` on 4 KiB pages pays 8,192
//! page faults; a reused buffer keeps its pages, but a random access
//! into it still misses the TLB once the buffer outgrows the TLB's
//! reach (a few MiB of 4 KiB pages). `listkit::pages` advises such a
//! buffer onto 2 MiB transparent huge pages before its first touch,
//! which cuts both. Four groups:
//!
//! * `exec/*`: a served rank on a random 2²² list (Reid-Miller, 2
//!   threads) — `exec_then_encode` ranks into a fresh `Vec` and then
//!   encodes it into a reused frame buffer (the served path before
//!   exec wrote the frame); `exec_into_frame` has the Phase-3 expand
//!   write each rank's little-endian bytes straight into the reused
//!   frame's 8-aligned payload (`HostRunner::rank_mapped`), as a
//!   worker does now;
//! * `encode/*`: the server side — `output_body` into a fresh `Vec`
//!   against `output_body_into` a reused one;
//! * `decode/*`: the client side — read the frame off the wire into a
//!   fresh buffer (`read_frame`) or a reused one (`read_frame_into`),
//!   then `decode_output` the ranks; and the payload decode alone, the
//!   per-element `chunks_exact` loop the slice codec replaced against
//!   `protocol::decode_slice` (which now also allocates on huge pages;
//!   `pages/*` separates the two gains);
//! * `pages/*`: plain `Vec` buffers against ones from
//!   `listkit::pages::vec_with_capacity` — a fresh 2²² decode, and the
//!   served scan's scatter of the values into the reply payload and
//!   gather back, along the kept ranks of a random 2²² list, with both
//!   buffers reused across iterations as the reply pool reuses them.
//!
//! `CRITERION_QUICK=1` shortens runs; `cargo bench -p repro --bench
//! reply_codec` runs the full pass.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use engine::protocol::{self, FrameKind, OutputMeta, WireElem};
use listkit::pages;
use listrank::host::{RankArray, RankScratch};
use listrank::{Algorithm, HostRunner};
use std::hint::black_box;

const N: usize = 1 << 22;

fn meta() -> OutputMeta {
    OutputMeta { algorithm: Algorithm::Serial, shards: 0, queued_ns: 1, exec_ns: 2, trace_id: 3 }
}

fn bench_exec(c: &mut Criterion) {
    let mut g = c.benchmark_group("reply_codec/exec");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    let list = listkit::gen::random_list(N, 0x2222);
    let runner = HostRunner::new(Algorithm::ReidMiller).with_threads(2);
    let meta = meta();
    let mut scratch = RankScratch::new();
    let mut frame = Vec::new();
    g.bench_function("exec_then_encode", |b| {
        b.iter(|| {
            let mut ranks = Vec::new();
            runner.rank_into(&list, &mut scratch, &mut ranks);
            frame.clear();
            protocol::output_body_into(&meta, &ranks, &mut frame);
            black_box(&frame).len()
        })
    });
    // The frame header plus metadata is 38 bytes; skip ahead so the
    // payload starts on an 8-byte boundary, as a worker's frame does.
    let head = 38;
    frame.resize(8 + head + 8 * N, 0);
    let lead = (frame.as_ptr() as usize + head).wrapping_neg() % 8;
    let payload = &mut frame[lead + head..lead + head + 8 * N];
    g.bench_function("exec_into_frame", |b| {
        b.iter(|| {
            let words = u64::le_chunks_mut(payload);
            runner.rank_mapped(&list, &mut scratch, words, u64::to_wire);
            black_box(&payload[..8]);
        })
    });
    g.finish();
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
    let payload = &body[body.len() - 8 * N..];
    g.bench_function("payload_per_element", |b| {
        b.iter(|| {
            let words: Vec<u64> = black_box(payload)
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            black_box(words).len()
        })
    });
    g.bench_function("payload_decode_slice", |b| {
        b.iter(|| black_box(protocol::decode_slice::<u64>(black_box(payload))).len())
    });
    g.finish();
}

fn bench_pages(c: &mut Criterion) {
    let mut g = c.benchmark_group("reply_codec/pages");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    let words: Vec<u64> = (0..N as u64).rev().collect();
    let body = protocol::output_body(&meta(), &words);
    let payload = &body[body.len() - 8 * N..];
    g.bench_function("decode_fresh_plain", |b| {
        b.iter(|| {
            let le = u64::le_chunks(black_box(payload));
            black_box(le.iter().map(|&w| u64::from_wire(w)).collect::<Vec<u64>>()).len()
        })
    });
    g.bench_function("decode_fresh_advised", |b| {
        b.iter(|| black_box(protocol::decode_slice::<u64>(black_box(payload))).len())
    });

    let list = listkit::gen::random_list(N, 0x2222);
    let runner = HostRunner::new(Algorithm::ReidMiller).with_threads(2);
    let ranks = RankArray::build(&runner, &list, &mut RankScratch::new());
    let values: Vec<i64> = (0..N as i64).map(|i| i % 31 - 15).collect();
    fn fresh<T>(n: usize, advised: bool) -> Vec<T> {
        if advised {
            pages::vec_with_capacity(n)
        } else {
            Vec::with_capacity(n)
        }
    }
    for (name, advised) in [("plain", false), ("advised", true)] {
        let (mut pos, mut vals) = (fresh(8 * N, advised), fresh(N, advised));
        pos.resize(8 * N, 0u8);
        vals.extend_from_slice(&values);
        g.bench_function(format!("scatter_{name}"), |b| {
            b.iter(|| ranks.scatter(&vals, i64::le_chunks_mut(&mut pos), |v| v.to_wire()))
        });
        g.bench_function(format!("gather_{name}"), |b| {
            b.iter(|| ranks.gather(i64::le_chunks(&pos), &mut vals, |&p| i64::from_wire(p)))
        });
        black_box((&pos, &vals));
    }
    g.finish();
}

criterion_group!(benches, bench_exec, bench_encode, bench_decode, bench_pages);
criterion_main!(benches);
