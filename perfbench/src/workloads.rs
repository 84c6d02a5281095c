//! The two ledger workloads: inputs, set-up, timed window and probes.
//!
//! | workload | connections | loop | traffic |
//! |---|---|---|---|
//! | `resident_big` | 1 Unix | closed, 1 in flight | `RANK_H`/`SCAN_H` on one n = 2²² random list |
//! | `small_pipelined` | 2 TCP | closed, 8 in flight each (v6 ids) | `RANK_H`/`SCAN_H` on an n = 2¹⁰ list each |
//!
//! PUT, MUTATE and sharded rank, which neither window makes, are
//! measured in traced runs by closed-loop probes on the workload's first
//! connection and list after the window closes, so they cannot disturb it.

use crate::daemon::Daemon;
use crate::inputs::{same_ranks, Dataset, WriterPlan};
use crate::session::{Kind, QueryConn, Session, Stage, Tally};
use engine::protocol::{self, FrameKind, ReqFlags, WireOp};
use listkit::gen::Layout;
use std::path::Path;
use std::time::{Duration, Instant};

/// n of the big list.
pub const BIG_N: usize = 1 << 22;
/// n of the small lists.
pub const SMALL_N: usize = 1 << 10;
/// Requests each `small_pipelined` connection keeps in flight.
pub const PIPELINE_DEPTH: usize = 8;

/// A workload of the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One big resident list, rank and scan, closed loop.
    ResidentBig,
    /// Two small resident lists, pipelined over TCP.
    SmallPipelined,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::ResidentBig, Workload::SmallPipelined];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ResidentBig => "resident_big",
            Workload::SmallPipelined => "small_pipelined",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A workload's inputs, all derived from the seed.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// One resident dataset per query connection.
    pub query: Vec<Dataset>,
    /// The script the post-window writer probes run, on the first
    /// query list.
    pub writer: WriterPlan,
}

/// Derive an independent stream seed from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finaliser over the seed and stream number.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generate `workload`'s inputs for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let query = match workload {
            Workload::ResidentBig => vec![Dataset::new(BIG_N, Layout::Random, sub_seed(seed, 1))],
            Workload::SmallPipelined => vec![
                Dataset::new(SMALL_N, Layout::Random, sub_seed(seed, 1)),
                Dataset::new(SMALL_N, Layout::Random, sub_seed(seed, 3)),
            ],
        };
        let writer = WriterPlan::new(query[0].list.clone(), PROBE_ROUNDS, sub_seed(seed, 2));
        Inputs { workload, query, writer }
    }
}

/// A daemon with its warmed-up connections.
pub struct Live {
    /// The daemon.
    pub daemon: Daemon,
    /// Query connections, one per dataset in [`Inputs::query`].
    pub query: Vec<QueryConn>,
}

impl Live {
    fn set_stage(&mut self, stage: Stage) {
        for q in &mut self.query {
            q.s.stage = stage;
        }
    }

    /// Close every connection, stop the daemon, and hand back what the
    /// sessions measured.
    pub fn finish(self) -> Result<Tally, String> {
        let Live { daemon, query } = self;
        let mut tally = Tally::default();
        for q in query {
            let Session { client, tally: t, .. } = q.s;
            drop(client);
            tally.merge(t);
        }
        daemon.stop()?;
        Ok(tally)
    }
}

/// Start a daemon and warm it up: socket ready, dataset PUTs and the
/// first request of each kind the window makes. Returns the set-up time
/// in seconds, which is what `setup_s` reports.
pub fn setup(inputs: &Inputs, rankd: &Path, dir: &Path) -> Result<(f64, Live), String> {
    let t0 = Instant::now();
    let tcp = inputs.workload == Workload::SmallPipelined;
    let daemon = Daemon::start(rankd, dir, tcp)?;
    let mut query = Vec::new();
    for ds in &inputs.query {
        let client = if tcp { daemon.connect_tcp()? } else { daemon.connect()? };
        let mut q = QueryConn::open(Session::new(client), &ds.list, &ds.values)?;
        q.s.rank_h(Kind::Rank, &q.rank_body, &ds.ranks)?;
        q.s.scan_h(&q.scan_body, &ds.scan)?;
        query.push(q);
    }
    Ok((t0.elapsed().as_secs_f64(), Live { daemon, query }))
}

/// Drive the timed window for `secs` seconds. Returns its start.
pub fn window(inputs: &Inputs, live: &mut Live, secs: f64) -> Result<Instant, String> {
    live.set_stage(Stage::Window);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    match inputs.workload {
        Workload::ResidentBig => {
            let (q, ds) = (&mut live.query[0], &inputs.query[0]);
            while Instant::now() < deadline && !q.s.broken {
                q.s.rank_h(Kind::Rank, &q.rank_body, &ds.ranks)?;
                if Instant::now() >= deadline || q.s.broken {
                    break;
                }
                q.s.scan_h(&q.scan_body, &ds.scan)?;
            }
        }
        Workload::SmallPipelined => std::thread::scope(|scope| {
            let runs: Vec<_> = live
                .query
                .iter_mut()
                .zip(&inputs.query)
                .map(|(q, ds)| scope.spawn(move || pipelined(q, ds, deadline)))
                .collect();
            runs.into_iter().try_for_each(|h| h.join().expect("load thread panicked"))
        })?,
    }
    Ok(start)
}

/// After the window: closed-loop writer cycles — the kinds the window
/// does not make — on the first query connection.
pub fn probes(inputs: &Inputs, live: &mut Live) -> Result<(), String> {
    live.set_stage(Stage::Probe);
    let cycles = match inputs.workload {
        Workload::ResidentBig => RESIDENT_PROBE_CYCLES,
        Workload::SmallPipelined => SMALL_PROBE_CYCLES,
    };
    for _ in 0..cycles {
        writer_cycle(&mut live.query[0].s, &inputs.writer)?;
    }
    Ok(())
}

/// Writer cycles probed per run — `resident_big`, `small_pipelined` —
/// and MUTATE rounds per cycle.
const RESIDENT_PROBE_CYCLES: usize = 3;
const SMALL_PROBE_CYCLES: usize = 40;
const PROBE_ROUNDS: usize = 3;

/// One writer cycle: PUT, sharded rank (builds the artifact), then one
/// (MUTATE, sharded rank) round per batch of `plan`, then DROP.
pub fn writer_cycle(s: &mut Session, plan: &WriterPlan) -> Result<(), String> {
    let Some(handle) = s.put(&plan.list)? else { return Ok(()) };
    let body = protocol::rank_h_body(handle, true);
    if let Some(m) = s.rank_h(Kind::ShardedRank, &body, &plan.expected[0])? {
        s.tally.build_exec_ms.push(m.exec_ns as f64 / 1e6);
    }
    for (batch, want) in plan.batches.iter().zip(&plan.expected[1..]) {
        if s.broken || s.mutate(handle, batch, want.len())?.is_none() {
            break;
        }
        if let Some(m) = s.rank_h(Kind::ShardedRank, &body, want)? {
            s.tally.reuse_exec_ms.push(m.exec_ns as f64 / 1e6);
        }
    }
    if !s.broken {
        s.drop_handle(handle)?;
    }
    Ok(())
}

/// Closed window of [`PIPELINE_DEPTH`] requests in flight, alternating
/// `RANK_H` and `SCAN_H`, matched back by v6 request id. Slot `i` uses
/// id `i + 1`; a slot is refilled as soon as its reply is in.
fn pipelined(q: &mut QueryConn, ds: &Dataset, deadline: Instant) -> Result<(), String> {
    let flags = |slot: usize| ReqFlags::default().with_request_id(slot as u64 + 1);
    let rank: Vec<Vec<u8>> =
        (0..PIPELINE_DEPTH).map(|i| protocol::rank_h_body_flags(q.handle, flags(i))).collect();
    let scan: Vec<Vec<u8>> = (0..PIPELINE_DEPTH)
        .map(|i| protocol::scan_h_body_flags(q.handle, &ds.values, WireOp::Add, flags(i)))
        .collect();
    let mut inflight: Vec<Option<(Kind, Instant)>> = vec![None; PIPELINE_DEPTH];
    let mut sent = 0u64;
    let mut send = |q: &mut QueryConn, slot: usize| -> Result<Option<(Kind, Instant)>, String> {
        let (kind, frame, body) = if sent.is_multiple_of(2) {
            (Kind::Rank, FrameKind::RankH, &rank[slot])
        } else {
            (Kind::Scan, FrameKind::ScanH, &scan[slot])
        };
        sent += 1;
        let t = Instant::now();
        let r = q.s.client.send_encoded(frame, body);
        Ok(q.s.settle(kind, r)?.map(|()| (kind, t)))
    };
    for (slot, entry) in inflight.iter_mut().enumerate() {
        *entry = send(q, slot)?;
    }
    while inflight.iter().any(Option::is_some) && !q.s.broken {
        let (id, reply) = match q.s.client.recv_pipelined::<u64>() {
            Ok(r) => r,
            Err(e) => {
                // The stream is gone: every request in flight is lost.
                for (kind, _) in inflight.iter_mut().filter_map(Option::take) {
                    q.s.settle::<()>(kind, Err(engine::ClientError::Protocol(e.to_string())))?;
                }
                break;
            }
        };
        let done = Instant::now();
        let slot = usize::try_from(id).ok().and_then(|id| id.checked_sub(1));
        let Some((kind, t0)) = slot.and_then(|s| inflight.get_mut(s)).and_then(Option::take) else {
            return Err(format!("reply for request id {id}, which is not in flight"));
        };
        if let Some(out) = q.s.settle(kind, reply)? {
            let ok = match kind {
                Kind::Rank => same_ranks(&out.output, &ds.ranks),
                _ => {
                    out.output.iter().zip(&ds.scan).all(|(&g, &w)| g == w as u64)
                        && out.output.len() == ds.scan.len()
                }
            };
            if !ok {
                return Err(format!(
                    "pipelined {} reply differs from the serial oracle",
                    kind.name()
                ));
            }
            q.s.book(kind, t0, done, Some(&out.meta), ds.n());
        }
        let slot = slot.expect("matched above");
        if Instant::now() < deadline && !q.s.broken {
            inflight[slot] = send(q, slot)?;
        }
    }
    Ok(())
}
