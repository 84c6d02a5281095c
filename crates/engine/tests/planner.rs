//! Latency-shape and parameter invariants of the planner: every
//! decision is O(1) with no model search, lists at or below
//! Reid-Miller's serial cutoff never enter the serial/Reid-Miller
//! contest, Reid-Miller's `m` and lane count are the host closed
//! forms, pinned here, and a replay of a closed-loop benchmark's
//! dispatch sequence pins the contest's decisions.

use engine::{OpKind, Planner};
use listrank::host::ReidMiller;
use listrank::Algorithm;
use rankmodel::predict::default_lanes;
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
    assert_eq!(plan.lanes, default_lanes(n));
    // A taller lane count raises the floor accordingly.
    assert!(m_in_pool(4, n, 16) >= 4 * 8 * 16);
    // The n/4 cap binds on lists too short for the floor.
    assert_eq!(m_in_pool(4, 1024, 16), 256);
}

/// Fixed exec times for the replay: Reid-Miller at 8 lanes ranks a
/// random 2^22 list in about 145 ms and add-scans it in about 245 ms;
/// one-cursor Serial walks are several times slower.
fn replay_exec_ns(op: OpKind, alg: Algorithm) -> u64 {
    match (op, alg) {
        (OpKind::Rank, Algorithm::ReidMiller) => 145_000_000,
        (_, Algorithm::ReidMiller) => 245_000_000,
        (OpKind::Rank, _) => 520_000_000,
        _ => 610_000_000,
    }
}

#[test]
fn resident_big_replay_probes_serial_once_and_runs_model_lanes() {
    // The `resident_big` closed loop: one client alternating RANK_H and
    // an add SCAN_H on a resident 2^22 list, one thread per job. The
    // contest probes Serial once, on the add at the bucket's 16th
    // dispatch (no rank lands on the probe tick), measures it slower
    // and stays on Reid-Miller; every Reid-Miller walk uses the model's
    // lane count, with no lane probes.
    let n = 1usize << 22;
    let planner = Planner::new(1);
    let mut serial = Vec::new();
    for i in 0..128 {
        let op = if i % 2 == 0 { OpKind::Rank } else { OpKind::Add };
        let plan = planner.choose(n, op, RB, None);
        match plan.algorithm {
            Algorithm::ReidMiller => assert_eq!(plan.lanes, default_lanes(n), "dispatch {i}"),
            Algorithm::Serial => serial.push(i),
            other => panic!("dispatch {i} ran {other:?}"),
        }
        planner.record(n, op, plan.algorithm, replay_exec_ns(op, plan.algorithm));
    }
    assert_eq!(serial, [15], "one Serial probe, on an add");
}
