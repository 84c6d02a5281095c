//! In-process timings of the layers below the daemon, each by calling
//! the layer's public functions on the workload's own list:
//!
//! * `walk` — `listkit::walk::reduce_chains` over Reid-Miller's sublists;
//! * `listrank` — `HostRunner::rank_into` / `scan_into` (Reid-Miller);
//! * `engine` — `Engine::submit` → `wait` with the daemon's default
//!   configuration;
//! * `protocol` — the OUTPUT codec and request decode.
//!
//! Each call is timed on its own after one untimed warm-up call, and a
//! layer reports the median call. Outputs are checked against the
//! serial oracle so a timing never describes a wrong answer.

use crate::inputs::{same_ranks, Dataset};
use crate::stats::{median, ratio};
use engine::protocol::{self, Frame, FrameKind, OutputMeta, WireOp};
use engine::{Engine, EngineConfig, JobHandle, Request};
use listkit::ops::AddOp;
use listkit::walk::{self, BitSet, LaneStats, WalkPolicy};
use listkit::{Idx, LinkedList};
use listrank::host::{RankScratch, ReidMiller};
use listrank::{Algorithm, HostRunner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls timed per measurement: at least this many…
const MIN_CALLS: usize = 3;
/// …and for at least this long, up to [`MAX_CALLS`].
const MIN_TIME: Duration = Duration::from_millis(50);
const MAX_CALLS: usize = 20_000;

/// Median ns of one call of `f`, after one untimed warm-up call.
fn time_calls(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < MIN_CALLS || (start.elapsed() < MIN_TIME && ns.len() < MAX_CALLS) {
        let t = Instant::now();
        f();
        ns.push(t.elapsed().as_nanos() as f64);
    }
    median(&ns).expect("at least one call")
}

/// The engine's inner thread budget under its default configuration.
pub fn inner_threads() -> usize {
    EngineConfig::default().inner_threads
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("build a thread pool")
}

/// One row of the walk-kernel sweep.
#[derive(Clone, Copy, Debug)]
pub struct WalkRow {
    /// Interleaved lanes.
    pub lanes: usize,
    /// Median ns per vertex of one `reduce_chains` pass.
    pub ns_per_elem: f64,
    /// Lane occupancy over the timed passes.
    pub occupancy: f64,
}

/// Bytes `reduce_chains` touches per vertex, computed (not measured): a
/// `u32` link, an `i64` value and one boundary bit.
pub const WALK_BYTES_PER_ELEM: f64 = 4.0 + 8.0 + 1.0 / 8.0;

/// Time Reid-Miller's Phase-1 reduce (`walk::reduce_chains`, add over
/// i64) on one thread at each lane count, over the sublists Phase 0
/// would draw for that lane count.
pub fn walk_sweep(list: &LinkedList, values: &[i64], lanes: &[usize], seed: u64) -> Vec<WalkRow> {
    let n = list.len();
    let one = pool(1);
    lanes
        .iter()
        .map(|&k| {
            let m = one.install(|| ReidMiller::default_m_for(n, k));
            let splits =
                listkit::gen::random_split_positions(list, m, &mut StdRng::seed_from_u64(seed));
            let mut boundary = BitSet::new();
            boundary.reset(n);
            boundary.set(list.tail() as usize);
            for &r in &splits {
                boundary.set(r as usize);
            }
            let policy = WalkPolicy::with_lanes(k);
            let mut heads = vec![list.head()];
            walk::gather_links(list, &splits, policy, &mut heads);
            let mut out: Vec<(i64, Idx)> = vec![(0, 0); heads.len()];
            let mut stats = LaneStats::default();
            let ns = time_calls(|| {
                walk::reduce_chains(
                    list, values, &AddOp, &heads, &boundary, policy, &mut out, &mut stats,
                );
                black_box(&out);
            });
            WalkRow { lanes: k, ns_per_elem: ns / n as f64, occupancy: stats.occupancy() }
        })
        .collect()
}

/// `listrank` layer: median ms of one Reid-Miller rank and add-scan.
#[derive(Clone, Copy, Debug)]
pub struct ListrankRow {
    /// `HostRunner::rank_into`, ms.
    pub rank_ms: f64,
    /// `HostRunner::scan_into` (add, i64), ms.
    pub scan_ms: f64,
}

/// Time `HostRunner::rank_into` / `scan_into` on a pool of `threads`.
pub fn listrank_layer(ds: &Dataset, threads: usize) -> Result<ListrankRow, String> {
    let pool = pool(threads);
    let runner = HostRunner::new(Algorithm::ReidMiller);
    let mut scratch = RankScratch::new();
    let mut ranks = Vec::new();
    let rank_ns =
        time_calls(|| pool.install(|| runner.rank_into(&ds.list, &mut scratch, &mut ranks)));
    if !same_ranks(&ranks, &ds.ranks) {
        return Err("HostRunner::rank_into differs from the serial oracle".to_string());
    }
    let mut scan = Vec::new();
    let scan_ns = time_calls(|| {
        pool.install(|| runner.scan_into(&ds.list, &ds.values, &AddOp, &mut scratch, &mut scan))
    });
    if scan != ds.scan {
        return Err("HostRunner::scan_into differs from the serial oracle".to_string());
    }
    Ok(ListrankRow { rank_ms: rank_ns / 1e6, scan_ms: scan_ns / 1e6 })
}

/// `engine` layer, in process.
#[derive(Clone, Copy, Debug)]
pub struct EngineRow {
    /// Median rank exec, ms.
    pub exec_ms: f64,
    /// Median add-scan exec, ms.
    pub scan_exec_ms: f64,
    /// Median plan after the first job, ms.
    pub plan_ms: f64,
    /// Plan of the first (cold) job, ms.
    pub plan_first_ms: f64,
    /// Median queue wait, ms.
    pub queue_wait_ms: f64,
    /// Median submit→wait minus exec, ms.
    pub self_ms: f64,
    /// Median rank submit→wait, ms.
    pub rank_wait_ms: f64,
    /// Median add-scan submit→wait, ms.
    pub scan_wait_ms: f64,
    /// Jobs per worker dispatch (small-job batching).
    pub batch_size: f64,
    /// Scratch-pool hit ratio.
    pub pool_hit_ratio: f64,
}

enum Pending {
    Rank(JobHandle<Vec<u64>>, Instant),
    Scan(JobHandle<Vec<i64>>, Instant),
}

/// Drive a fresh default-configured engine: one cold rank (its plan is
/// `plan_first_ms`), then rounds of `depth` jobs alternating rank and
/// add-scan, each round submitted together and then waited for, until
/// at least 16 jobs and half a second have passed.
pub fn engine_layer(ds: &Dataset, depth: usize) -> Result<EngineRow, String> {
    let engine = Engine::new(EngineConfig::default());
    let list = Arc::new(ds.list.clone());
    let values = Arc::new(ds.values.clone());
    let submit_err = |e: engine::SubmitError| format!("engine submit: {e:?}");
    let wait_err = |e: engine::JobError| format!("engine job: {e:?}");

    let first = engine.submit(Request::rank(Arc::clone(&list))).map_err(submit_err)?;
    let first = first.wait().map_err(wait_err)?;
    if !same_ranks(&first.output, &ds.ranks) {
        return Err("engine rank differs from the serial oracle".to_string());
    }
    let plan_first_ms = first.plan_ns as f64 / 1e6;

    let (mut exec, mut scan_exec, mut plan, mut queue, mut own) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut rank_wait, mut scan_wait) = (vec![], vec![]);
    let start = Instant::now();
    let mut jobs = 0usize;
    while jobs < 16 || start.elapsed() < Duration::from_millis(500) {
        let mut round = Vec::with_capacity(depth);
        for i in 0..depth {
            let t = Instant::now();
            round.push(if (jobs + i).is_multiple_of(2) {
                Pending::Rank(
                    engine.submit(Request::rank(Arc::clone(&list))).map_err(submit_err)?,
                    t,
                )
            } else {
                let req = Request::scan(Arc::clone(&list), Arc::clone(&values), AddOp);
                Pending::Scan(engine.submit(req).map_err(submit_err)?, t)
            });
        }
        jobs += depth;
        for p in round {
            let (t, report, is_rank) = match p {
                Pending::Rank(h, t) => {
                    let r = h.wait().map_err(wait_err)?;
                    if !same_ranks(&r.output, &ds.ranks) {
                        return Err("engine rank differs from the serial oracle".to_string());
                    }
                    (t, (r.queued_ns, r.plan_ns, r.exec_ns), true)
                }
                Pending::Scan(h, t) => {
                    let r = h.wait().map_err(wait_err)?;
                    if r.output != ds.scan {
                        return Err("engine scan differs from the serial oracle".to_string());
                    }
                    (t, (r.queued_ns, r.plan_ns, r.exec_ns), false)
                }
            };
            let done = Instant::now();
            let (queued_ns, plan_ns, exec_ns) = report;
            let wait_ms = done.duration_since(t).as_secs_f64() * 1e3;
            let exec_ms = exec_ns as f64 / 1e6;
            if is_rank {
                exec.push(exec_ms);
                rank_wait.push(wait_ms);
            } else {
                scan_exec.push(exec_ms);
                scan_wait.push(wait_ms);
            }
            plan.push(plan_ns as f64 / 1e6);
            queue.push(queued_ns as f64 / 1e6);
            own.push(wait_ms - exec_ms);
        }
    }
    let stats = engine.shutdown();
    let dispatches = stats.completed.saturating_sub(stats.batched_jobs) + stats.batches;
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    Ok(EngineRow {
        exec_ms: med(&exec),
        scan_exec_ms: med(&scan_exec),
        plan_ms: med(&plan),
        plan_first_ms,
        queue_wait_ms: med(&queue),
        self_ms: med(&own),
        rank_wait_ms: med(&rank_wait),
        scan_wait_ms: med(&scan_wait),
        batch_size: ratio(stats.completed as f64, dispatches as f64),
        pool_hit_ratio: stats.pool.hit_rate(),
    })
}

/// `protocol` layer, in process.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolRow {
    /// `output_body::<u64>` of the rank reply, ms.
    pub output_encode_ms: f64,
    /// `decode_output::<u64>` of the rank reply, ms.
    pub output_decode_ms: f64,
    /// `decode_request` of a PUT, including list validation, ms.
    pub put_decode_ms: f64,
    /// `decode_request` of a `SCAN_H` (add), ms.
    pub scan_h_decode_ms: f64,
    /// Rank reply frame bytes per vertex.
    pub reply_bytes_per_elem: f64,
}

/// Time the codec on the dataset's rank reply, PUT and `SCAN_H` frames.
pub fn protocol_layer(ds: &Dataset) -> Result<ProtocolRow, String> {
    let ranks: Vec<u64> = ds.ranks.iter().map(|&r| u64::from(r)).collect();
    let meta = OutputMeta {
        algorithm: Algorithm::ReidMiller,
        shards: 0,
        queued_ns: 0,
        exec_ns: 0,
        trace_id: 1,
    };
    let mut body = Vec::new();
    let encode_ns = time_calls(|| body = black_box(protocol::output_body(&meta, &ranks)));
    let decode_ns = time_calls(|| {
        black_box(protocol::decode_output::<u64>(&body).ok());
    });
    match protocol::decode_output::<u64>(&body) {
        Ok((m, v)) if m == meta && v == ranks => {}
        _ => return Err("OUTPUT codec does not round-trip".to_string()),
    }
    let put = Frame { kind: FrameKind::Put as u8, body: protocol::put_body(&ds.list) };
    let scan = Frame {
        kind: FrameKind::ScanH as u8,
        body: protocol::scan_h_body(1, &ds.values, WireOp::Add, false),
    };
    for f in [&put, &scan] {
        protocol::decode_request(f).map_err(|e| format!("decode_request: {e}"))?;
    }
    let put_ns = time_calls(|| {
        black_box(protocol::decode_request(&put).ok());
    });
    let scan_ns = time_calls(|| {
        black_box(protocol::decode_request(&scan).ok());
    });
    Ok(ProtocolRow {
        output_encode_ms: encode_ns / 1e6,
        output_decode_ms: decode_ns / 1e6,
        put_decode_ms: put_ns / 1e6,
        scan_h_decode_ms: scan_ns / 1e6,
        // 4-byte length prefix + 1-byte kind around the body.
        reply_bytes_per_elem: (body.len() + 5) as f64 / ds.n() as f64,
    })
}

/// Check that time does not decrease from each layer to the next by
/// more than `band` (a share of the lower layer). Returns one message
/// per violation.
pub fn chain_violations(levels: &[(&str, f64)], band: f64) -> Vec<String> {
    levels
        .windows(2)
        .filter(|w| w[1].1 < w[0].1 * (1.0 - band))
        .map(|w| format!("{} ({:.3} ms) < {} ({:.3} ms)", w[1].0, w[1].1, w[0].0, w[0].1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use listkit::gen::Layout;

    #[test]
    fn chain_allows_noise_inside_the_band() {
        let ok = [("walk", 10.0), ("listrank", 9.5), ("engine", 30.0)];
        assert!(chain_violations(&ok, 0.1).is_empty());
        let bad = [("walk", 10.0), ("listrank", 5.0), ("engine", 30.0)];
        assert_eq!(chain_violations(&bad, 0.1).len(), 1);
    }

    #[test]
    fn layers_agree_with_the_oracle_on_a_small_list() {
        let ds = Dataset::new(1 << 12, Layout::Random, 5);
        let rows = walk_sweep(&ds.list, &ds.values, &[1, 8], 3);
        assert!(rows.iter().all(|r| r.ns_per_elem > 0.0 && r.occupancy > 0.0));
        listrank_layer(&ds, 1).expect("listrank matches the oracle");
        let e = engine_layer(&ds, 2).expect("engine matches the oracle");
        assert!(e.rank_wait_ms >= e.exec_ms);
        let p = protocol_layer(&ds).expect("codec round-trips");
        assert!(p.reply_bytes_per_elem > 8.0);
    }
}
