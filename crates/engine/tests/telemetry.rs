//! Telemetry contract tests: histogram math (property-based),
//! trace-id propagation through submit → handle → report, engine-level
//! sum-consistency between the phase histograms and the per-job
//! timings, and zero-sample `Display` regressions for both stats
//! surfaces.

use engine::telemetry::hist;
use engine::{Engine, EngineConfig, Histogram, JobOptions, OpKind, Phase, Request, ServerStats};
use listkit::gen;
use proptest::prelude::*;
use std::sync::Arc;

/// A job's samples are recorded just *after* its handle is fulfilled,
/// so a `wait()`er can observe the snapshot a beat early; settle on
/// the completed total (the Exec histogram's count, recorded last)
/// before asserting.
fn await_completed(engine: &Engine, jobs: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while engine.stats().completed < jobs {
        assert!(std::time::Instant::now() < deadline, "completed counter never reached {jobs}");
        std::thread::yield_now();
    }
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `percentile(p)` must land inside `percentile_bounds(p)`, and
    /// the bucket containing it must be no wider than `1/SUB` (6.25%)
    /// of its lower bound — the HDR resolution guarantee.
    #[test]
    fn percentile_lies_within_its_bucket_bounds(
        values in proptest::collection::vec(any::<u64>(), 1..200),
        p in 0.0f64..100.0,
    ) {
        let h = hist_of(&values);
        for q in [0.0, p, 50.0, 95.0, 99.0, 100.0] {
            let (lo, hi) = h.percentile_bounds(q);
            let point = h.percentile(q);
            prop_assert!(lo <= point && point <= hi, "p{q}: {point} outside [{lo}, {hi}]");
            prop_assert!(
                hi.saturating_sub(lo) <= (lo / hist::SUB).max(1),
                "p{q}: bucket [{lo}, {hi}] wider than 1/{} of its lower bound",
                hist::SUB
            );
        }
        // The extremes are exact: p100's bucket holds the true max.
        let (lo, hi) = h.percentile_bounds(100.0);
        let max = *values.iter().max().unwrap();
        prop_assert!(lo <= max && max <= hi);
        prop_assert_eq!(h.max(), max);
    }

    /// The wire codec round trip: `nonzero_buckets` + summary fields
    /// reconstruct the histogram exactly via `from_parts`.
    #[test]
    fn from_parts_round_trips_nonzero_buckets(
        values in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let h = hist_of(&values);
        let buckets: Vec<(u16, u64)> = h.nonzero_buckets().collect();
        let back = Histogram::from_parts(&buckets, h.count(), h.sum(), h.max())
            .expect("self-consistent parts must parse");
        prop_assert_eq!(back, h);
    }
}

#[test]
fn counters_saturate_instead_of_wrapping() {
    let mut h = Histogram::new();
    h.record_n(u64::MAX, 3);
    assert_eq!(h.sum(), u64::MAX, "sum saturates");
    assert_eq!(h.count(), 3);
    assert_eq!(h.max(), u64::MAX);
    h.record_n(1, u64::MAX);
    assert_eq!(h.count(), u64::MAX, "count saturates");
    // Percentile queries stay well-defined at the saturation point.
    let (lo, hi) = h.percentile_bounds(99.0);
    assert!(lo <= hi);
}

#[test]
fn trace_ids_propagate_from_submit_to_report() {
    let engine = Engine::new(EngineConfig::default().with_workers(1));
    let list = Arc::new(gen::random_list(64, 7));

    // An upstream-assigned id is carried through verbatim.
    let opts = JobOptions::default().with_trace_id(0xDEAD_BEEF);
    let handle = engine.submit_with(Request::rank(Arc::clone(&list)), opts).expect("submit");
    assert_eq!(handle.trace_id(), 0xDEAD_BEEF);
    let report = handle.wait().expect("rank completes");
    assert_eq!(report.trace_id, 0xDEAD_BEEF);

    // Without one, the engine allocates distinct nonzero ids.
    let h1 = engine.submit_with(Request::rank(Arc::clone(&list)), JobOptions::default()).unwrap();
    let h2 = engine.submit_with(Request::rank(Arc::clone(&list)), JobOptions::default()).unwrap();
    let (t1, t2) = (h1.trace_id(), h2.trace_id());
    assert_ne!(t1, 0);
    assert_ne!(t2, 0);
    assert_ne!(t1, t2, "auto-assigned trace ids must be unique");
    assert_eq!(h1.wait().unwrap().trace_id, t1);
    assert_eq!(h2.wait().unwrap().trace_id, t2);
}

#[test]
fn phase_histograms_are_sum_consistent_with_job_reports() {
    let engine = Engine::new(EngineConfig::default().with_workers(2));
    let mut total_exec = 0u64;
    let mut total_queued = 0u64;
    let mut total_plan = 0u64;
    let jobs = 5;
    for i in 0..jobs {
        let list = Arc::new(gen::random_list(3000 + i * 117, i as u64));
        let report = engine
            .submit_with(Request::rank(list), JobOptions::default())
            .expect("submit")
            .wait()
            .expect("rank completes");
        total_exec += report.exec_ns;
        total_queued += report.queued_ns;
        total_plan += report.plan_ns;
    }
    await_completed(&engine, jobs as u64);

    let stats = engine.stats();
    let exec = &stats.phase_hist[Phase::Exec.index()];
    let queued = &stats.phase_hist[Phase::QueueWait.index()];
    let plan = &stats.phase_hist[Phase::Plan.index()];
    assert_eq!(exec.count(), jobs as u64);
    assert_eq!(exec.sum(), total_exec, "Exec phase sum must equal the reports' exec_ns");
    assert_eq!(queued.sum(), total_queued, "QueueWait phase sum must equal queued_ns");
    assert_eq!(plan.sum(), total_plan, "Plan phase sum must equal plan_ns");

    // Every job here was a rank, so the per-op view agrees too.
    let per_op = &stats.op_hist[OpKind::Rank.index()];
    assert_eq!(per_op.count(), jobs as u64);
    assert_eq!(per_op.sum(), total_exec);

    // The scalar totals are read from the same histograms.
    assert_eq!(stats.completed, jobs as u64);
    assert_eq!(stats.exec_ns, total_exec);
    assert_eq!(stats.queued_ns, total_queued);
    assert_eq!((stats.sharded_jobs, stats.stitch_ns), (0, 0));
    let rank = stats.per_op.iter().find(|r| r.op == OpKind::Rank).expect("rank row");
    assert_eq!((rank.completed, rank.exec_ns), (jobs as u64, total_exec));

    // In-process submits never touch the wire phases.
    assert!(stats.phase_hist[Phase::Decode.index()].is_empty());
    assert!(stats.phase_hist[Phase::ReplyWrite.index()].is_empty());
}

/// Zero-sample regression: both stats `Display` impls must render a
/// fresh (all-zero) snapshot without panicking and without `NaN`/`inf`
/// artifacts from divide-by-zero percentiles or rates.
#[test]
fn zero_sample_stats_render_cleanly() {
    let engine = Engine::new(EngineConfig::default().with_workers(1));
    let rendered = format!("{}", engine.stats());
    assert!(!rendered.contains("NaN"), "engine stats rendered NaN:\n{rendered}");
    assert!(!rendered.contains("inf"), "engine stats rendered inf:\n{rendered}");
    assert!(rendered.contains("jobs:"), "sanity: report still renders:\n{rendered}");

    let server = format!("{}", ServerStats::default());
    assert!(!server.contains("NaN"), "server stats rendered NaN:\n{server}");
    assert!(!server.contains("inf"), "server stats rendered inf:\n{server}");
}
