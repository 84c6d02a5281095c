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
//! which cuts both. Six groups:
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
//! * `pages/*`: a fresh 2²² decode into a plain `Vec` against one from
//!   `listkit::pages::vec_with_capacity`;
//! * `ranked/*`: the served `SCAN_H` on a resident random 2²² list,
//!   step by step, on 2 threads — `build` is the first query's
//!   `RankArray::build` (the rank kernel, the permutation check and the
//!   scatter of the position order); `scan_in_place` is the worker's
//!   add-scan of the request's 32 MiB of value encodings where the
//!   daemon read them, in the buffer that becomes the reply
//!   (`RankArray::scan_in_place`): a sequential pass in vertex order
//!   for the blocks' carries, then one random pass along the kept
//!   position order, prefetching ahead. It is the whole served scan
//!   between decode and reply, and a first pass outside the timing
//!   checks that it leaves the serial list scan;
//!   `scan_in_place_affine` scans 2²² affine maps (16 bytes each), a
//!   non-commutative operator, so both of its passes walk the position
//!   order. Interleaved runs on a 2-CPU x86-64 VM (THP `madvise`) read
//!   `build` 85–107 ms, `scan_in_place` 18.3–19.0 ms (36.0–36.2 with
//!   two random passes and no prefetch) and `scan_in_place_affine`
//!   46.7–52.4 ms (96.7–169.6 without the prefetch);
//! * `client/*`: a client reading a 2²² OUTPUT off a Unix socket pair,
//!   which a writer thread keeps full, through a 64 KiB `BufReader` as
//!   `Client` does — `staged` reads the whole body into a reused buffer
//!   (`read_frame_into`) and then decodes it into a fresh `Vec`
//!   (`decode_output`), as the client did before it read payloads in
//!   place; `one_copy_fresh` is `client::read_reply` into a fresh
//!   buffer, the payload read straight into zeroed, advised pages, as
//!   `Client::call` does; `one_copy_warm` reads into a buffer kept from
//!   the last iteration, as `Client::call_into` does. Two quick runs on
//!   a 2-CPU x86-64 VM (THP `madvise`) read `staged` 23.4–23.8 ms,
//!   `one_copy_fresh` 16.6–17.3 ms and `one_copy_warm` 9.3–13.5 ms.
//!
//! `CRITERION_QUICK=1` shortens runs; `cargo bench -p repro --bench
//! reply_codec` runs the full pass, and a trailing word runs only the
//! benchmarks whose name contains it
//! (`cargo bench -p repro --bench reply_codec -- client`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use engine::client;
use engine::protocol::{self, FrameKind, OutputMeta, WireElem};
use listkit::ops::{AddOp, Affine, AffineOp};
use listkit::pages;
use listrank::host::{RankArray, RankScratch};
use listrank::{Algorithm, HostRunner};
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;

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
    g.finish();
}

fn bench_ranked(c: &mut Criterion) {
    let mut g = c.benchmark_group("reply_codec/ranked");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    let list = listkit::gen::random_list(N, 0x2222);
    let runner = HostRunner::new(Algorithm::ReidMiller).with_threads(2);
    let mut scratch = RankScratch::new();
    g.bench_function("build", |b| {
        b.iter(|| black_box(RankArray::build(&runner, &list, &mut scratch)).len())
    });
    let ranks = RankArray::build(&runner, &list, &mut scratch);
    let values: Vec<i64> = (0..N as i64).map(|i| i % 31 - 15).collect();
    let mut payload = pages::vec_with_capacity(8 * N);
    payload.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("2-thread pool");
    let scan = |payload: &mut [u8]| {
        let words = i64::le_chunks_mut(payload);
        ranks.scan_in_place(words, &AddOp, None, |&w| i64::from_wire(w), i64::to_wire);
    };
    // Once on the values, outside the timed loop: the payload then holds
    // the serial list scan.
    pool.install(|| scan(&mut payload));
    let got: Vec<i64> = i64::le_chunks(&payload).iter().map(|&w| i64::from_wire(w)).collect();
    assert!(got == listkit::serial::scan(&list, &values, &AddOp), "the scan is the list scan");
    g.bench_function("scan_in_place", |b| b.iter(|| pool.install(|| scan(&mut payload))));
    // The non-commutative scan keeps the position-order reduce.
    let affines: Vec<u8> =
        (0..N as i64).flat_map(|i| Affine::new(i % 3 - 1, i % 7 - 3).to_wire()).collect();
    let mut payload = pages::vec_with_capacity(16 * N);
    payload.extend_from_slice(&affines);
    g.bench_function("scan_in_place_affine", |b| {
        b.iter(|| {
            pool.install(|| {
                let words = Affine::le_chunks_mut(&mut payload);
                ranks.scan_in_place(
                    words,
                    &AffineOp,
                    None,
                    |&w| Affine::from_wire(w),
                    Affine::to_wire,
                );
            })
        })
    });
    black_box(&payload);
    g.finish();
}

fn bench_client(c: &mut Criterion) {
    let mut g = c.benchmark_group("reply_codec/client");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    let ranks: Vec<u64> = (0..N as u64).rev().collect();
    let mut frame = Vec::new();
    let body = protocol::output_body(&meta(), &ranks);
    protocol::write_frame(&mut frame, FrameKind::Output as u8, &body).expect("frame to a Vec");
    let (mut tx, rx) = UnixStream::pair().expect("a Unix socket pair");
    // Frames back to back until the reading end closes.
    let writer = std::thread::spawn(move || while tx.write_all(&frame).is_ok() {});
    let mut rx = BufReader::with_capacity(64 * 1024, rx);
    let cap = u32::MAX;
    let mut reply = Vec::new();
    g.bench_function("staged", |b| {
        b.iter(|| {
            protocol::read_frame_into(&mut rx, cap, &mut reply).expect("reads").expect("a frame");
            protocol::decode_output::<u64>(&reply).expect("decodes").1.len()
        })
    });
    g.bench_function("one_copy_fresh", |b| {
        b.iter(|| {
            let mut out = Vec::<u64>::new();
            client::read_reply(&mut rx, cap, &mut reply, &mut out).expect("reads");
            black_box(out).len()
        })
    });
    g.bench_function("one_copy_warm", |b| {
        let mut out = Vec::<u64>::new();
        b.iter(|| {
            client::read_reply(&mut rx, cap, &mut reply, &mut out).expect("reads");
            black_box(&out).len()
        });
        assert!(out == ranks, "the payload read intact");
    });
    drop(rx);
    writer.join().expect("writer thread");
    g.finish();
}

criterion_group!(
    benches,
    bench_exec,
    bench_encode,
    bench_decode,
    bench_pages,
    bench_ranked,
    bench_client
);
criterion_main!(benches);
