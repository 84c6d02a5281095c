//! Latency-shape and split-count invariants of the planner: every
//! decision is O(1) with no model search, lists at or below
//! Reid-Miller's serial cutoff never enter the serial/Reid-Miller
//! contest, and Reid-Miller's `m` is the host closed form, pinned here.

use engine::{OpKind, Planner};
use listrank::host::ReidMiller;
use listrank::Algorithm;
use std::time::{Duration, Instant};

/// Value width of a ranking job.
const RB: usize = 8;

/// `ReidMiller::default_m_for(n, lanes)` as a `threads`-thread inner
/// pool derives it.
fn m_in_pool(threads: usize, n: usize, lanes: usize) -> usize {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
    pool.install(|| ReidMiller::default_m_for(n, lanes))
}

#[test]
fn first_choose_is_cheap_at_every_bucket() {
    // Planning is table reads plus a closed-form prior: a fresh
    // planner's first decision in each bucket takes microseconds, even
    // in a debug build. A per-bucket model search (seconds at 2^23 in a
    // release build) cannot meet this bound.
    let planner = Planner::new(4);
    for b in 1..=26 {
        let n = 1usize << b;
        for op in [OpKind::Rank, OpKind::Add] {
            let t = Instant::now();
            planner.choose(n, op, RB, None);
            let took = t.elapsed();
            assert!(
                took < Duration::from_millis(50),
                "first choose at n = 2^{b}, op = {op} took {took:?}"
            );
        }
    }
}

#[test]
fn serial_at_or_below_the_cutoff_whatever_the_history() {
    // Reid-Miller runs the serial walk itself up to its cutoff, so the
    // planner never contests or probes there: history claiming
    // Reid-Miller is far cheaper changes nothing, over two probe periods.
    let cutoff = ReidMiller::default().serial_cutoff;
    let planner = Planner::new(4);
    for n in [1, 2, 100, 1024, cutoff] {
        for op in [OpKind::Rank, OpKind::Add] {
            for _ in 0..8 {
                planner.record(n, op, Algorithm::Serial, 1_000_000_000);
                planner.record(n, op, Algorithm::ReidMiller, 1);
            }
            for _ in 0..32 {
                let plan = planner.choose(n, op, RB, None);
                assert_eq!(plan.algorithm, Algorithm::Serial, "n = {n}, op = {op}");
                assert_eq!(plan.lanes, 1);
            }
        }
    }
    // Just above the cutoff the contest is back on.
    let n = cutoff + 1;
    for _ in 0..8 {
        planner.record(n, OpKind::Rank, Algorithm::Serial, 1_000_000_000);
        planner.record(n, OpKind::Rank, Algorithm::ReidMiller, 1);
    }
    assert_eq!(planner.choose(n, OpKind::Rank, RB, None).algorithm, Algorithm::ReidMiller);
    // Pinning still overrides the cutoff.
    let pinned = planner.choose(100, OpKind::Rank, RB, Some(Algorithm::ReidMiller));
    assert_eq!(pinned.algorithm, Algorithm::ReidMiller);
}

#[test]
fn default_m_is_pinned_at_one_thread() {
    // n/2048 sublists, at least 8·p·K, at most n/4.
    assert_eq!(m_in_pool(1, 1 << 12, 8), 64);
    assert_eq!(m_in_pool(1, 1 << 18, 8), 128);
    assert_eq!(m_in_pool(1, 1 << 20, 8), 512);
    assert_eq!(m_in_pool(1, 1 << 22, 8), 2048);
    assert_eq!(m_in_pool(1, 1 << 12, 16), 128);
}

#[test]
fn default_m_scales_with_planned_lanes() {
    // The m/lanes contract: with K lanes each worker wants ≥ K live
    // sublists, so the task floor is p·8·K, and the m a planned
    // Reid-Miller job derives in its p-thread inner pool must clear it
    // (until the n/4 cap binds).
    let n = 1 << 22;
    let plan = Planner::new(4).choose(n, OpKind::Rank, RB, None);
    assert_eq!(plan.algorithm, Algorithm::ReidMiller);
    let m = m_in_pool(4, n, plan.lanes);
    assert!(m >= 4 * 8 * plan.lanes, "m = {m} below the 8·K floor for lanes = {}", plan.lanes);
    assert!(m <= n / 4);
    // Pinning a taller lane count raises the floor accordingly.
    let plan = Planner::new(4).with_lanes_override(Some(16)).choose(n, OpKind::Rank, RB, None);
    assert_eq!(plan.lanes, 16);
    assert!(m_in_pool(4, n, plan.lanes) >= 4 * 8 * 16);
    // The n/4 cap binds on lists too short for the floor.
    assert_eq!(m_in_pool(4, 1024, 16), 256);
}
