//! Engine metrics: counters, snapshot, the printable report, and the
//! table renderers it shares with the `rankd stats` dashboard.

use crate::op::OpKind;
use crate::planner::{Planner, MISPREDICT_SCALE};
use crate::pool::PoolStats;
use crate::sched::SchedSnapshot;
use crate::telemetry::{Histogram, Phase, Telemetry};
use listrank::Algorithm;
use std::fmt::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Live counters (atomics; updated by workers and submitters). Only
/// values no histogram holds live here: completions, exec, queue and
/// stitch time are read from the telemetry histograms instead.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) rejected_full: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_jobs: AtomicU64,
    pub(crate) elements: AtomicU64,
    pub(crate) shards_ranked: AtomicU64,
    pub(crate) lane_steps: AtomicU64,
    pub(crate) lane_slots: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
    pub(crate) panics_recovered: AtomicU64,
    pub(crate) workers_respawned: AtomicU64,
    /// Vertices processed per op kind, indexed by [`OpKind::ALL`] order.
    pub(crate) op_elements: [AtomicU64; OpKind::ALL.len()],
}

/// Per-op-kind throughput snapshot (one row of the stats surface's op
/// dimension).
#[derive(Clone, Copy, Debug)]
pub struct OpThroughput {
    /// The operation kind.
    pub op: OpKind,
    /// Jobs of this kind completed.
    pub completed: u64,
    /// Vertices processed by jobs of this kind.
    pub elements: u64,
    /// Total execution nanoseconds of jobs of this kind.
    pub exec_ns: u64,
}

impl OpThroughput {
    /// Mean execution nanoseconds per element.
    pub fn ns_per_element(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.exec_ns as f64 / self.elements as f64
        }
    }

    /// Elements per second of execution time (per-worker rate: sums
    /// over workers, so it exceeds wall-clock throughput when several
    /// workers run this kind concurrently).
    pub fn elements_per_exec_sec(&self) -> f64 {
        if self.exec_ns == 0 {
            0.0
        } else {
            self.elements as f64 / (self.exec_ns as f64 / 1e9)
        }
    }
}

/// A point-in-time view of the engine's metrics.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Seconds since the engine started.
    pub uptime_s: f64,
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs cancelled before execution.
    pub cancelled: u64,
    /// Jobs whose execution panicked (completed with `JobError::Failed`).
    pub failed: u64,
    /// Non-blocking submissions rejected because the queue was full.
    pub rejected_full: u64,
    /// Small-job batches executed.
    pub batches: u64,
    /// Jobs that rode in a batch.
    pub batched_jobs: u64,
    /// Total vertices processed.
    pub elements: u64,
    /// Total execution nanoseconds (sum over jobs; overlaps across
    /// workers, so divide by workers for wall-clock intuition).
    pub exec_ns: u64,
    /// Total nanoseconds jobs spent queued.
    pub queued_ns: u64,
    /// Jobs executed through the shard-parallel path (lists above the
    /// per-worker budget).
    pub sharded_jobs: u64,
    /// Total shards ranked across all sharded jobs.
    pub shards_ranked: u64,
    /// Total nanoseconds sharded jobs spent in their stitch phase
    /// (ranking the contracted boundary list).
    pub stitch_ns: u64,
    /// Vertices visited by K-lane interleaved walks (Reid-Miller
    /// Phases 1/3 and the shard-local fragment walks).
    pub lane_steps: u64,
    /// Lane-slots available while those walks ran (sweeps × lanes);
    /// `lane_steps / lane_slots` is the mean lane occupancy.
    pub lane_slots: u64,
    /// Jobs dropped at dequeue because their queue deadline expired.
    pub deadline_expired: u64,
    /// Worker panics caught by the per-job `catch_unwind` isolation
    /// (equals `failed`'s panic share; the waiter got a typed error).
    pub panics_recovered: u64,
    /// Worker threads that re-entered their loop after an unexpected
    /// panic outside job execution.
    pub workers_respawned: u64,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Highest queue depth observed.
    pub peak_queue_depth: usize,
    /// Dispatch counts in [`Algorithm::ALL`] order.
    pub dispatch: [u64; Algorithm::ALL.len()],
    /// Non-empty `(bucket upper bound, dispatch counts)` rows.
    pub dispatch_by_bucket: Vec<(usize, [u64; Algorithm::ALL.len()])>,
    /// Non-empty `(op kind, dispatch counts)` rows — which algorithms
    /// served which operators.
    pub dispatch_by_op: Vec<(OpKind, [u64; Algorithm::ALL.len()])>,
    /// Per-op-kind completion/throughput rows (non-empty kinds only,
    /// [`OpKind::ALL`] order).
    pub per_op: Vec<OpThroughput>,
    /// Scratch-pool statistics.
    pub pool: PoolStats,
    /// Latency histogram per request phase, indexed by
    /// [`Phase::index`]. The job totals above are read from these:
    /// `completed`/`exec_ns` are the exec histogram's count/sum,
    /// `queued_ns` the queue-wait sum, `sharded_jobs`/`stitch_ns` the
    /// stitch count/sum.
    pub phase_hist: [Histogram; Phase::ALL.len()],
    /// Exec-latency histogram per op kind, indexed by [`OpKind::ALL`]
    /// order (empty histograms for kinds that never ran).
    pub op_hist: [Histogram; OpKind::ALL.len()],
    /// The planner's mispredict-ratio histogram (values are
    /// `measured/predicted × 1000`; see
    /// [`crate::planner::MISPREDICT_SCALE`]).
    pub mispredict: Histogram,
    /// QoS scheduler counters: per-class queued / dispatched /
    /// finished totals and aging-valve fires.
    pub sched: SchedSnapshot,
}

impl EngineStats {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gather(
        started: Instant,
        counters: &Counters,
        planner: &Planner,
        telemetry: &Telemetry,
        pool: PoolStats,
        queue_depth: usize,
        peak_queue_depth: usize,
        sched: SchedSnapshot,
    ) -> Self {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let phase_hist = telemetry.phase_snapshots();
        let op_hist = telemetry.op_snapshots();
        let per_op = OpKind::ALL
            .iter()
            .zip(&op_hist)
            .zip(&counters.op_elements)
            .filter(|((_, h), _)| !h.is_empty())
            .map(|((&op, h), elements)| OpThroughput {
                op,
                completed: h.count(),
                elements: load(elements),
                exec_ns: h.sum(),
            })
            .collect();
        let exec = &phase_hist[Phase::Exec.index()];
        let stitch = &phase_hist[Phase::Stitch.index()];
        EngineStats {
            uptime_s: started.elapsed().as_secs_f64(),
            submitted: load(&counters.submitted),
            completed: exec.count(),
            cancelled: load(&counters.cancelled),
            failed: load(&counters.failed),
            rejected_full: load(&counters.rejected_full),
            batches: load(&counters.batches),
            batched_jobs: load(&counters.batched_jobs),
            elements: load(&counters.elements),
            exec_ns: exec.sum(),
            queued_ns: phase_hist[Phase::QueueWait.index()].sum(),
            sharded_jobs: stitch.count(),
            shards_ranked: load(&counters.shards_ranked),
            stitch_ns: stitch.sum(),
            lane_steps: load(&counters.lane_steps),
            lane_slots: load(&counters.lane_slots),
            deadline_expired: load(&counters.deadline_expired),
            panics_recovered: load(&counters.panics_recovered),
            workers_respawned: load(&counters.workers_respawned),
            queue_depth,
            peak_queue_depth,
            dispatch: planner.dispatch_totals(),
            dispatch_by_bucket: planner.dispatch_by_bucket(),
            dispatch_by_op: planner.dispatch_by_op(),
            per_op,
            pool,
            phase_hist,
            op_hist,
            mispredict: planner.mispredict_histogram(),
            sched,
        }
    }

    /// Completed jobs per second of uptime.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.uptime_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.uptime_s
        }
    }

    /// Vertices processed per second of uptime.
    pub fn elements_per_sec(&self) -> f64 {
        if self.uptime_s <= 0.0 {
            0.0
        } else {
            self.elements as f64 / self.uptime_s
        }
    }

    /// Mean lane occupancy of the interleaved walks: the fraction of
    /// lane-slots that held a live cursor (`0.0` when no interleaved
    /// walk ran). Low occupancy means jobs had too few live chains for
    /// their lane count — the tuner's cue to drop K.
    pub fn lane_occupancy(&self) -> f64 {
        if self.lane_slots == 0 {
            0.0
        } else {
            self.lane_steps as f64 / self.lane_slots as f64
        }
    }

    /// Mean shards per sharded job (`0.0` when none ran sharded).
    pub fn mean_shards_per_sharded_job(&self) -> f64 {
        if self.sharded_jobs == 0 {
            0.0
        } else {
            self.shards_ranked as f64 / self.sharded_jobs as f64
        }
    }

    /// Mean queue latency per completed job, milliseconds.
    pub fn mean_queue_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.queued_ns as f64 / self.completed as f64 / 1e6
        }
    }
}

/// A compact count or rate: `1.23G`, `4.56M`, `7.89k`, or a whole
/// number. Shared by every stats surface.
pub fn format_count(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

/// One `samples p50 p95 p99 max` row (milliseconds) for a histogram of
/// nanosecond samples.
pub fn hist_row(h: &Histogram) -> String {
    format!(
        "{:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
        h.count(),
        h.percentile(50.0) as f64 / 1e6,
        h.percentile(95.0) as f64 / 1e6,
        h.percentile(99.0) as f64 / 1e6,
        h.max() as f64 / 1e6
    )
}

fn latency_table<'a>(
    w: &mut impl Write,
    heading: &str,
    key: &str,
    rows: impl Iterator<Item = (&'a str, &'a Histogram)>,
) -> fmt::Result {
    let rows: Vec<_> = rows.filter(|(_, h)| !h.is_empty()).collect();
    if rows.is_empty() {
        return Ok(());
    }
    writeln!(w, "{heading}")?;
    writeln!(
        w,
        "  {key:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "samples", "p50", "p95", "p99", "max"
    )?;
    for (name, h) in rows {
        writeln!(w, "  {name:>12} {}", hist_row(h))?;
    }
    Ok(())
}

/// The per-phase and per-op latency tables (milliseconds); empty
/// histograms get no row and an all-empty table is left out.
pub fn write_latency_tables(
    w: &mut impl Write,
    phase: &[Histogram; Phase::ALL.len()],
    per_op: &[Histogram; OpKind::ALL.len()],
) -> fmt::Result {
    let phases = Phase::ALL.iter().map(|p| (p.name(), &phase[p.index()]));
    latency_table(w, "latency by phase (ms):", "phase", phases)?;
    let ops = OpKind::ALL.iter().map(|op| (op.name(), &per_op[op.index()]));
    latency_table(w, "exec latency by op (ms):", "op", ops)
}

/// A planner dispatch matrix: a heading, a header row of algorithm
/// names, then one `label count…` row per entry ([`Algorithm::ALL`]
/// order). Left out when there are no rows.
pub fn write_dispatch_table<'a>(
    w: &mut impl Write,
    heading: &str,
    key: &str,
    rows: impl IntoIterator<Item = (String, &'a [u64])>,
) -> fmt::Result {
    let mut rows = rows.into_iter().peekable();
    if rows.peek().is_none() {
        return Ok(());
    }
    writeln!(w, "{heading}")?;
    write!(w, "  {key:>12}")?;
    for alg in Algorithm::ALL {
        write!(w, " {:>15}", alg.name())?;
    }
    writeln!(w)?;
    for (label, counts) in rows {
        write!(w, "  {label:>12}")?;
        for c in counts {
            write!(w, " {c:>15}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// The planner's mispredict line (left out while nothing was scored).
pub fn write_mispredict(w: &mut impl Write, mispredict: &Histogram) -> fmt::Result {
    if mispredict.is_empty() {
        return Ok(());
    }
    let ratio = |p: f64| mispredict.percentile(p) as f64 / MISPREDICT_SCALE as f64;
    writeln!(
        w,
        "planner mispredict (measured/predicted): p50 {:.2}x, p95 {:.2}x, p99 {:.2}x over {} scored",
        ratio(50.0),
        ratio(95.0),
        ratio(99.0),
        mispredict.count()
    )
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "jobs: {} completed / {} submitted ({} cancelled, {} failed, {} rejected) in {:.2}s",
            self.completed,
            self.submitted,
            self.cancelled,
            self.failed,
            self.rejected_full,
            self.uptime_s
        )?;
        writeln!(
            f,
            "throughput: {} jobs/s, {} elem/s   queue: depth {} (peak {}), mean wait {:.3} ms",
            format_count(self.jobs_per_sec()),
            format_count(self.elements_per_sec()),
            self.queue_depth,
            self.peak_queue_depth,
            self.mean_queue_ms()
        )?;
        writeln!(
            f,
            "batching: {} batches covering {} jobs   pool: {:.0}% hit rate ({} hits / {} misses, {} idle)",
            self.batches,
            self.batched_jobs,
            self.pool.hit_rate() * 100.0,
            self.pool.hits,
            self.pool.misses,
            self.pool.idle
        )?;
        if self.deadline_expired > 0 || self.panics_recovered > 0 || self.workers_respawned > 0 {
            writeln!(
                f,
                "resilience: {} panics recovered, {} workers respawned, {} deadlines expired",
                self.panics_recovered, self.workers_respawned, self.deadline_expired
            )?;
        }
        if self.sched.dispatched[1] > 0 || self.sched.aged > 0 {
            // Only printed once batch-class or aging activity exists, so
            // all-interactive workloads keep the historical report shape.
            writeln!(
                f,
                "scheduler: {} interactive / {} batch dispatched ({} / {} in flight), {} aged to the front",
                self.sched.dispatched[0],
                self.sched.dispatched[1],
                self.sched.inflight(crate::sched::Priority::Interactive),
                self.sched.inflight(crate::sched::Priority::Batch),
                self.sched.aged
            )?;
        }
        if self.lane_slots > 0 {
            writeln!(
                f,
                "lanes: {:.0}% occupancy over {} interleaved steps",
                self.lane_occupancy() * 100.0,
                format_count(self.lane_steps as f64),
            )?;
        }
        if self.sharded_jobs > 0 {
            writeln!(
                f,
                "sharded: {} jobs over {} shards ({:.1} shards/job), stitch total {:.3} ms",
                self.sharded_jobs,
                self.shards_ranked,
                self.mean_shards_per_sharded_job(),
                self.stitch_ns as f64 / 1e6
            )?;
        }
        if !self.per_op.is_empty() {
            writeln!(f, "by op (execution-time rates, summed across workers):")?;
            for row in &self.per_op {
                writeln!(
                    f,
                    "  {:>10}: {:>8} jobs, {:>8} elems, {:>8} elem/s, {:.2} ns/elem",
                    row.op.name(),
                    row.completed,
                    format_count(row.elements as f64),
                    format_count(row.elements_per_exec_sec()),
                    row.ns_per_element()
                )?;
            }
        }
        let by_size =
            self.dispatch_by_bucket.iter().map(|(hi, c)| (format_count(*hi as f64), &c[..]));
        write_dispatch_table(
            f,
            "dispatch by size (rows are job-size upper bounds):",
            "n <",
            by_size.chain([("total".to_string(), &self.dispatch[..])]),
        )?;
        let by_op = self.dispatch_by_op.iter().map(|(op, c)| (op.name().to_string(), &c[..]));
        write_dispatch_table(f, "dispatch by op:", "op", by_op)?;
        write_latency_tables(f, &self.phase_hist, &self.op_hist)?;
        write_mispredict(f, &self.mispredict)
    }
}
