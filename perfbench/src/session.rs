//! One client connection of the load generator: its requests, their
//! latency samples and their correctness checks.
//!
//! Every reply is compared with the serial oracle before it is booked;
//! a mismatch is an `Err` that fails the whole run. A typed error frame
//! is booked as a failure under its code and the connection goes on. A
//! transport or protocol failure is booked under `transport` and marks
//! the session broken, since its stream can no longer be trusted.

use crate::inputs::same_ranks;
use engine::protocol::{self, FrameKind, OutputMeta, WireMutateOk, WireOp};
use engine::{Client, ClientError};
use listkit::dynamic::Edit;
use listkit::LinkedList;
use listrank::Algorithm;
use std::collections::BTreeMap;
use std::time::Instant;

/// The request kinds the ledger keeps latencies for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `RANK_H`, monolithic.
    Rank,
    /// `SCAN_H` (add, i64), monolithic.
    Scan,
    /// `PUT`.
    Put,
    /// `MUTATE`.
    Mutate,
    /// `RANK_H` on the sharded path.
    ShardedRank,
    /// `DROP`.
    Drop,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 6] =
        [Kind::Rank, Kind::Scan, Kind::Put, Kind::Mutate, Kind::ShardedRank, Kind::Drop];

    /// Index into per-kind arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The kind's name in progress and error messages.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Rank => "client.rank_h",
            Kind::Scan => "client.scan_h",
            Kind::Put => "client.put",
            Kind::Mutate => "client.mutate",
            Kind::ShardedRank => "client.rank_h_sharded",
            Kind::Drop => "client.drop",
        }
    }
}

/// Where in a run a request was made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Warm-up inside `setup_s`: checked, not booked; any error fails the run.
    Setup,
    /// The timed window.
    Window,
    /// After the window: requests of kinds the window did not make.
    Probe,
}

/// Latency samples (ms) per kind.
#[derive(Clone, Debug, Default)]
pub struct Lat(pub [Vec<f64>; Kind::ALL.len()]);

impl Lat {
    /// The samples of one kind.
    pub fn of(&self, kind: Kind) -> &[f64] {
        &self.0[kind.index()]
    }

    fn merge(&mut self, other: Lat) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            a.extend(b);
        }
    }
}

/// Everything a session measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latencies in the timed window.
    pub window: Lat,
    /// Latencies of the post-window probes.
    pub probe: Lat,
    /// Requests attempted (window and probes).
    pub attempted: u64,
    /// Requests that failed (typed error or transport).
    pub failed: u64,
    /// Requests completed in the window.
    pub window_done: u64,
    /// Vertices ranked or scanned in the window.
    pub window_elems: u64,
    /// Completion time of the last window request.
    pub window_end: Option<Instant>,
    /// Failures by error code name (`transport` for broken streams).
    pub errors: BTreeMap<String, u64>,
    /// Dispatches by kind and algorithm, from OUTPUT metadata.
    pub dispatch: [[u64; Algorithm::ALL.len()]; Kind::ALL.len()],
    /// Times a kind's dispatched algorithm differed from its previous one.
    pub flips: u64,
    last_alg: [Option<Algorithm>; Kind::ALL.len()],
    /// Sum of client-observed ms over window job requests (rank/scan).
    pub job_client_ms: f64,
    /// Window job requests.
    pub jobs: u64,
    /// `exec_ns` of MUTATE_OK replies, ms.
    pub mutate_exec_ms: Vec<f64>,
    /// Exec of the first sharded rank after each PUT (builds the artifact), ms.
    pub build_exec_ms: Vec<f64>,
    /// Exec of later sharded ranks (reuse or patched artifact), ms.
    pub reuse_exec_ms: Vec<f64>,
}

impl Tally {
    /// Fold another session's tally into this one.
    pub fn merge(&mut self, o: Tally) {
        self.window.merge(o.window);
        self.probe.merge(o.probe);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.window_done += o.window_done;
        self.window_elems += o.window_elems;
        self.window_end = self.window_end.max(o.window_end);
        for (k, v) in o.errors {
            *self.errors.entry(k).or_default() += v;
        }
        for (a, b) in self.dispatch.iter_mut().zip(o.dispatch) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.flips += o.flips;
        self.job_client_ms += o.job_client_ms;
        self.jobs += o.jobs;
        self.mutate_exec_ms.extend(o.mutate_exec_ms);
        self.build_exec_ms.extend(o.build_exec_ms);
        self.reuse_exec_ms.extend(o.reuse_exec_ms);
    }

    /// The window's and the probes' samples of `kind`.
    pub fn samples(&self, kind: Kind) -> Vec<f64> {
        [self.window.of(kind), self.probe.of(kind)].concat()
    }
}

/// A connected load-generator session.
pub struct Session {
    /// The connection.
    pub client: Client,
    /// What it measured.
    pub tally: Tally,
    /// Where in the run it is.
    pub stage: Stage,
    /// Set once a transport failure made the stream unusable.
    pub broken: bool,
}

impl Session {
    /// A session over `client`, starting in the setup stage.
    pub fn new(client: Client) -> Session {
        Session { client, tally: Tally::default(), stage: Stage::Setup, broken: false }
    }

    /// Book a reply's outcome: `Some(value)` on success, `None` after a
    /// booked failure. Any failure during setup fails the run.
    pub fn settle<T>(
        &mut self,
        kind: Kind,
        r: Result<T, ClientError>,
    ) -> Result<Option<T>, String> {
        if self.stage != Stage::Setup {
            self.tally.attempted += 1;
        }
        let e = match r {
            Ok(v) => return Ok(Some(v)),
            Err(e) => e,
        };
        if self.stage == Stage::Setup {
            return Err(format!("set-up {}: {e}", kind.name()));
        }
        self.tally.failed += 1;
        let code = match &e {
            ClientError::Server { kind: Some(k), .. } => format!("{k:?}"),
            ClientError::Server { code, .. } => format!("code{code}"),
            ClientError::Io(_) | ClientError::Protocol(_) => {
                self.broken = true;
                "transport".to_string()
            }
        };
        eprintln!("perfbench: {} failed: {e}", kind.name());
        *self.tally.errors.entry(code).or_default() += 1;
        Ok(None)
    }

    /// Book a completed, verified request sent at `from`.
    pub fn book(
        &mut self,
        kind: Kind,
        from: Instant,
        done: Instant,
        meta: Option<&OutputMeta>,
        elems: usize,
    ) {
        let ms = done.saturating_duration_since(from).as_secs_f64() * 1e3;
        let t = &mut self.tally;
        match self.stage {
            Stage::Setup => return,
            Stage::Window => {
                t.window.0[kind.index()].push(ms);
                t.window_done += 1;
                t.window_elems += elems as u64;
                t.window_end = t.window_end.max(Some(done));
                if meta.is_some() {
                    t.job_client_ms += ms;
                    t.jobs += 1;
                }
            }
            Stage::Probe => t.probe.0[kind.index()].push(ms),
        }
        if let Some(m) = meta {
            let alg = Algorithm::ALL.iter().position(|a| *a == m.algorithm).unwrap_or(0);
            t.dispatch[kind.index()][alg] += 1;
            let last = &mut t.last_alg[kind.index()];
            if last.is_some_and(|a| a != m.algorithm) {
                t.flips += 1;
            }
            *last = Some(m.algorithm);
        }
    }

    /// `RANK_H` with a pre-encoded body; the reply must equal `want`.
    pub fn rank_h(
        &mut self,
        kind: Kind,
        body: &[u8],
        want: &[u32],
    ) -> Result<Option<OutputMeta>, String> {
        let t0 = Instant::now();
        let r = self.client.request_encoded::<u64>(FrameKind::RankH, body);
        let t1 = Instant::now();
        let Some(out) = self.settle(kind, r)? else { return Ok(None) };
        if !same_ranks(&out.output, want) {
            return Err(format!("{} reply differs from the serial oracle", kind.name()));
        }
        self.book(kind, t0, t1, Some(&out.meta), want.len());
        Ok(Some(out.meta))
    }

    /// `SCAN_H` (add) with a pre-encoded body; the reply must equal `want`.
    pub fn scan_h(&mut self, body: &[u8], want: &[i64]) -> Result<Option<OutputMeta>, String> {
        let t0 = Instant::now();
        let r = self.client.request_encoded::<i64>(FrameKind::ScanH, body);
        let t1 = Instant::now();
        let Some(out) = self.settle(Kind::Scan, r)? else { return Ok(None) };
        if out.output != want {
            return Err("client.scan_h reply differs from the serial oracle".to_string());
        }
        self.book(Kind::Scan, t0, t1, Some(&out.meta), want.len());
        Ok(Some(out.meta))
    }

    /// `PUT` of `list`; returns the handle.
    pub fn put(&mut self, list: &LinkedList) -> Result<Option<u64>, String> {
        let t0 = Instant::now();
        let r = self.client.put(list);
        let t1 = Instant::now();
        let Some(receipt) = self.settle(Kind::Put, r)? else { return Ok(None) };
        self.book(Kind::Put, t0, t1, None, 0);
        Ok(Some(receipt.handle))
    }

    /// `MUTATE` of `handle` with `batch`; the reply must report every
    /// edit applied and the mirror's new length.
    pub fn mutate(
        &mut self,
        handle: u64,
        batch: &[Edit],
        want_len: usize,
    ) -> Result<Option<WireMutateOk>, String> {
        let body = protocol::mutate_body(handle, batch);
        let t0 = Instant::now();
        let r = self.client.mutate_encoded(&body);
        let t1 = Instant::now();
        let Some(ok) = self.settle(Kind::Mutate, r)? else { return Ok(None) };
        if ok.applied as usize != batch.len() || ok.len != want_len as u64 {
            return Err(format!(
                "MUTATE_OK reports {} edits and {} vertices, expected {} and {want_len}",
                ok.applied,
                ok.len,
                batch.len()
            ));
        }
        self.book(Kind::Mutate, t0, t1, None, 0);
        if self.stage != Stage::Setup {
            self.tally.mutate_exec_ms.push(ok.exec_ns as f64 / 1e6);
        }
        Ok(Some(ok))
    }

    /// `DROP` of `handle`.
    pub fn drop_handle(&mut self, handle: u64) -> Result<(), String> {
        let t0 = Instant::now();
        let r = self.client.drop_handle(handle);
        let t1 = Instant::now();
        if self.settle(Kind::Drop, r)?.is_some() {
            self.book(Kind::Drop, t0, t1, None, 0);
        }
        Ok(())
    }
}

/// A query connection: a session plus its resident dataset's handle
/// and pre-encoded request bodies (encoding stays out of the latency).
pub struct QueryConn {
    /// The session.
    pub s: Session,
    /// The resident dataset's handle.
    pub handle: u64,
    /// `RANK_H` body.
    pub rank_body: Vec<u8>,
    /// `SCAN_H` (add) body.
    pub scan_body: Vec<u8>,
}

impl QueryConn {
    /// PUT `list` on `s` and encode its query bodies.
    pub fn open(mut s: Session, list: &LinkedList, values: &[i64]) -> Result<QueryConn, String> {
        let handle = s.put(list)?.ok_or("PUT refused")?;
        let rank_body = protocol::rank_h_body(handle, false);
        let scan_body = protocol::scan_h_body(handle, values, WireOp::Add, false);
        Ok(QueryConn { s, handle, rank_body, scan_body })
    }
}
