//! Request tracing: trace ids, request phases, and the span ring.
//!
//! Every request gets a process-unique trace id
//! ([`super::next_trace_id`]) at its earliest
//! observation point — frame decode in the server, `submit` for
//! in-process callers — which rides through the job queue, comes back
//! on the [`crate::JobHandle`], and is echoed in the OUTPUT wire frame
//! so a client log line and a daemon log line can be joined on one
//! number.
//!
//! Completed requests leave a [`Span`] — the per-phase nanosecond
//! timeline — in a fixed-capacity [`Ring`]: the most recent spans are
//! always inspectable ([`Ring::recent`]) without unbounded memory, and
//! recording is O(1) (an atomic slot claim plus one uncontended
//! per-slot lock; two writers only touch the same lock when the ring
//! has wrapped all the way around between them).

use crate::op::OpKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The request phases instrumented end to end, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Parsing the request frame body into a typed request (server).
    Decode,
    /// Waiting in the engine's bounded job queue.
    QueueWait,
    /// Planner dispatch: choosing algorithm / lanes / shards.
    Plan,
    /// Executing the rank/scan itself.
    Exec,
    /// The sharded path's boundary-list stitch (0 for monolithic runs).
    Stitch,
    /// The OUTPUT reply from the reactor draining it to the first write
    /// that carries its bytes: queue + first write (server).
    ReplyWrite,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Decode,
        Phase::QueueWait,
        Phase::Plan,
        Phase::Exec,
        Phase::Stitch,
        Phase::ReplyWrite,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::QueueWait => "queue-wait",
            Phase::Plan => "plan",
            Phase::Exec => "exec",
            Phase::Stitch => "stitch",
            Phase::ReplyWrite => "reply-write",
        }
    }

    /// Index into [`Phase::ALL`]-shaped arrays (also the wire id of
    /// this phase's histogram block in STATS_V2).
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// Inverse of [`Phase::index`] (wire decode).
    pub fn from_index(i: usize) -> Option<Phase> {
        Phase::ALL.get(i).copied()
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate the next process-unique trace id (monotonic, starts at 1;
/// 0 is reserved as "no trace").
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The completed timeline of one request: per-phase nanoseconds plus
/// identity. Phases a request never entered are 0.
#[derive(Clone, Debug)]
pub struct Span {
    /// The request's trace id.
    pub trace_id: u64,
    /// What the request computed.
    pub op: OpKind,
    /// List length.
    pub n: usize,
    /// Executing algorithm (stitch algorithm for sharded runs).
    pub algorithm: listrank::Algorithm,
    /// Shard count; 0 = monolithic.
    pub shards: usize,
    /// Nanoseconds per phase, indexed by [`Phase::index`].
    pub phase_ns: [u64; Phase::ALL.len()],
}

impl Span {
    /// Sum of all phase durations.
    pub fn total_ns(&self) -> u64 {
        self.phase_ns.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// The `phase=duration_ms` timeline, for log lines.
    pub fn timeline(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for p in Phase::ALL {
            let ns = self.phase_ns[p.index()];
            if !out.is_empty() {
                out.push(' ');
            }
            let _ = write!(out, "{}={:.3}ms", p.name(), ns as f64 / 1e6);
        }
        out
    }
}

/// A fixed-capacity overwrite-oldest ring of recent values.
///
/// `push` claims a slot with one atomic increment and takes that
/// slot's (uncontended) lock — O(1), no global lock, no allocation
/// after construction. Used for request [`Span`]s and the planner's
/// decision log.
pub struct Ring<T> {
    slots: Box<[Mutex<Option<T>>]>,
    head: AtomicU64,
}

impl<T: Clone> Ring<T> {
    /// A ring holding the `capacity` most recent pushes (capacity is
    /// rounded up to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring { slots: (0..capacity).map(|_| Mutex::new(None)).collect(), head: AtomicU64::new(0) }
    }

    /// Record a value, overwriting the oldest once full.
    pub fn push(&self, value: T) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
    }

    /// Total values ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The up-to-`k` most recent values, oldest first.
    pub fn recent(&self, k: usize) -> Vec<T> {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let len = head.min(cap).min(k as u64);
        let mut out = Vec::with_capacity(len as usize);
        for i in (0..len).rev() {
            let seq = head - 1 - i;
            let slot = (seq % cap) as usize;
            if let Some(v) = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner()).clone() {
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_round_trip() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Phase::from_index(i), Some(*p));
        }
        assert_eq!(Phase::from_index(Phase::ALL.len()), None);
        assert_eq!(format!("{}", Phase::QueueWait), "queue-wait");
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert!(b > a);
    }

    #[test]
    fn ring_keeps_most_recent() {
        let r: Ring<u32> = Ring::new(4);
        for v in 0..10u32 {
            r.push(v);
        }
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.recent(10), vec![6, 7, 8, 9]);
        assert_eq!(r.recent(2), vec![8, 9]);
    }

    #[test]
    fn ring_under_capacity() {
        let r: Ring<u32> = Ring::new(8);
        r.push(1);
        r.push(2);
        assert_eq!(r.recent(8), vec![1, 2]);
    }

    #[test]
    fn span_total_and_timeline() {
        let mut s = Span {
            trace_id: 7,
            op: OpKind::Rank,
            n: 100,
            algorithm: listrank::Algorithm::Serial,
            shards: 0,
            phase_ns: [0; 6],
        };
        s.phase_ns[Phase::QueueWait.index()] = 1_500_000;
        s.phase_ns[Phase::Exec.index()] = 2_000_000;
        assert_eq!(s.total_ns(), 3_500_000);
        let t = s.timeline();
        assert!(t.contains("queue-wait=1.500ms"));
        assert!(t.contains("exec=2.000ms"));
        assert!(t.contains("decode=0.000ms"));
    }
}
