//! End-to-end telemetry: latency histograms, request tracing, and the
//! structured logger.
//!
//! Reid-Miller's paper is a *measurement* paper — its argument rests on
//! per-phase timing breakdowns — and this module gives the serving
//! stack the same discipline. Three pieces, all std-only and all
//! O(1)/lock-free on the recording path:
//!
//! * [`hist`] — log₂-bucketed, sub-bucket-resolved latency histograms
//!   ([`Histogram`] for math and the wire, [`AtomicHistogram`] for
//!   concurrent recording) plus cache-line [`Striped`] counters.
//! * [`trace`] — per-request [trace ids](trace::next_trace_id), the
//!   [`Phase`] taxonomy (decode → queue-wait → plan → exec → stitch →
//!   reply-write), and a [`Ring`] of recent [`Span`] timelines.
//! * [`log`] — the `RANKD_LOG`-leveled stderr logger and the
//!   [`rankd_log!`](crate::rankd_log) macro.
//!
//! [`Telemetry`] is the per-engine registry that owns the histograms
//! and the span ring; the worker loop and the socket server record
//! into it, [`crate::EngineStats`] snapshots it, and the `STATS_V2`
//! wire frame ships it to `rankd stats`.

pub mod hist;
pub mod log;
pub mod trace;

pub use hist::{AtomicHistogram, Histogram, Striped};
pub use trace::{next_trace_id, Phase, Ring, Span};

use crate::op::OpKind;
use log::Level;

/// How many completed-request spans the ring keeps.
const SPAN_RING_CAPACITY: usize = 256;

/// Default slow-request threshold (total phase time) when neither
/// `EngineConfig::slow_request_ms` nor `RANKD_SLOW_MS` is set.
pub const DEFAULT_SLOW_MS: u64 = 250;

/// The per-engine telemetry registry: per-phase and per-op latency
/// histograms, the span ring, and the slow-request policy.
///
/// Recording is lock-free and O(1) (see [`AtomicHistogram`]) and
/// always on: these histograms are the only record of completions,
/// exec and queue time (see [`crate::EngineStats`]).
pub struct Telemetry {
    slow_ns: u64,
    phase: [AtomicHistogram; Phase::ALL.len()],
    per_op: [AtomicHistogram; OpKind::ALL.len()],
    spans: Ring<Span>,
}

impl Telemetry {
    /// A registry. `slow_ms` is the slow-request log threshold; pass
    /// `None` to take `RANKD_SLOW_MS` (or [`DEFAULT_SLOW_MS`]).
    pub fn new(slow_ms: Option<u64>) -> Self {
        let slow_ms = slow_ms.unwrap_or_else(|| {
            std::env::var("RANKD_SLOW_MS")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(DEFAULT_SLOW_MS)
        });
        Telemetry {
            slow_ns: slow_ms.saturating_mul(1_000_000),
            phase: std::array::from_fn(|_| AtomicHistogram::new()),
            per_op: std::array::from_fn(|_| AtomicHistogram::new()),
            spans: Ring::new(SPAN_RING_CAPACITY),
        }
    }

    /// The slow-request threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_ns
    }

    /// Record one phase duration.
    #[inline]
    pub fn record_phase(&self, phase: Phase, ns: u64) {
        self.phase[phase.index()].record(ns);
    }

    /// Record one completed job's execution time under its op kind.
    #[inline]
    pub fn record_op(&self, op: OpKind, exec_ns: u64) {
        self.per_op[op.index()].record(exec_ns);
    }

    /// Record a completed request's span: pushes it on the ring and
    /// emits the slow-request warning line when the total phase time
    /// crosses the threshold.
    pub fn record_span(&self, span: Span) {
        let total = span.total_ns();
        if total >= self.slow_ns && log::enabled(Level::Warn) {
            log::write(
                Level::Warn,
                "engine",
                &format!(
                    "slow request trace={} op={} n={} alg={} shards={} total={:.3}ms {}",
                    span.trace_id,
                    span.op,
                    span.n,
                    span.algorithm.name(),
                    span.shards,
                    total as f64 / 1e6,
                    span.timeline()
                ),
            );
        } else if log::enabled(Level::Trace) {
            log::write(
                Level::Trace,
                "engine",
                &format!(
                    "span trace={} op={} n={} total={:.3}ms {}",
                    span.trace_id,
                    span.op,
                    span.n,
                    total as f64 / 1e6,
                    span.timeline()
                ),
            );
        }
        self.spans.push(span);
    }

    /// Snapshot one phase histogram.
    pub fn phase_snapshot(&self, phase: Phase) -> Histogram {
        self.phase[phase.index()].snapshot()
    }

    /// Snapshot every phase histogram, indexed by [`Phase::index`].
    /// Exec is read first: the engine records it last for each job, so
    /// every job it counts has its other phase samples in this snapshot.
    pub fn phase_snapshots(&self) -> [Histogram; Phase::ALL.len()] {
        let exec = Phase::Exec.index();
        let first = self.phase[exec].snapshot();
        let mut out: [Histogram; Phase::ALL.len()] = std::array::from_fn(|i| {
            if i == exec {
                Histogram::new()
            } else {
                self.phase[i].snapshot()
            }
        });
        out[exec] = first;
        out
    }

    /// Snapshot every per-op exec-latency histogram, indexed by
    /// [`OpKind::ALL`] order.
    pub fn op_snapshots(&self) -> [Histogram; OpKind::ALL.len()] {
        std::array::from_fn(|i| self.per_op[i].snapshot())
    }

    /// The up-to-`k` most recent request spans, oldest first.
    pub fn recent_spans(&self, k: usize) -> Vec<Span> {
        self.spans.recent(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_accumulates() {
        let t = Telemetry::new(Some(1_000_000)); // high threshold: no log spam
        t.record_phase(Phase::QueueWait, 500);
        t.record_phase(Phase::QueueWait, 1500);
        t.record_op(OpKind::Add, 2500);
        let q = t.phase_snapshot(Phase::QueueWait);
        assert_eq!(q.count(), 2);
        assert_eq!(q.sum(), 2000);
        assert_eq!(t.op_snapshots()[OpKind::Add.index()].count(), 1);
        let mut span = Span {
            trace_id: 9,
            op: OpKind::Add,
            n: 10,
            algorithm: listrank::Algorithm::Serial,
            shards: 0,
            phase_ns: [0; 6],
        };
        span.phase_ns[Phase::Exec.index()] = 2500;
        t.record_span(span);
        let recent = t.recent_spans(8);
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].trace_id, 9);
    }

    #[test]
    fn slow_threshold_from_explicit_config() {
        let t = Telemetry::new(Some(7));
        assert_eq!(t.slow_threshold_ns(), 7_000_000);
    }
}
