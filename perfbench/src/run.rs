//! One benchmark run: the end-to-end run (`--trace 0`) and the traced
//! per-layer run (`--trace 1`).

use crate::layers::{self, WalkRow, WALK_BYTES_PER_ELEM};
use crate::ledger::{snake_case, END_TO_END, ERROR_CODES, PER_LAYER, WALK_LANES};
use crate::session::{Kind, Tally};
use crate::snapshot::{hist_delta, Snapshot};
use crate::stats::{median, percentile, ratio};
use crate::workloads::{self, sub_seed, Inputs, Workload, PIPELINE_DEPTH};
use engine::Phase;
use listkit::gen::Layout;
use listrank::Algorithm;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Daemon start-ups per end-to-end run: at least [`SETUP_MIN_REPS`], and
/// more while they have taken under [`SETUP_MIN_SECS`] in total (cheap
/// set-ups are noisy), up to [`SETUP_MAX_REPS`]. `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_SECS: f64 = 1.0;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 25;
/// Noise band of the layer-monotonicity check, as a share of the lower layer.
pub const CHAIN_BAND: f64 = 0.25;
/// Where runs keep their sockets and daemon logs.
pub const WORK_ROOT: &str = ".bench_build/perfbench";

/// What to run.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed window length.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// The `rankd` binary.
    pub rankd: PathBuf,
}

/// A finished run: the counts and the metrics the ledger declares.
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// `(name, value, unit)` in ledger order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Run once. The run's directory is removed afterwards.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = Path::new(WORK_ROOT).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let out = if args.trace { traced(args, &dir) } else { end_to_end(args, &dir) };
    let _ = std::fs::remove_dir_all(&dir);
    out.and_then(
        |o| if o.attempted == 0 { Err("no request was attempted".to_string()) } else { Ok(o) },
    )
}

/// Order `values` as `declared` lists them, failing on a missing or
/// non-finite value.
fn in_ledger_order(
    declared: &'static [(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    declared
        .iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(v) if v.is_finite() => Ok((name, *v, unit)),
            Some(v) => Err(format!("{name} is {v}")),
            None => Err(format!("{name} was not measured")),
        })
        .collect()
}

fn p(tally: &Tally, kind: Kind, pct: f64) -> Result<f64, String> {
    percentile(&tally.samples(kind), pct)
        .ok_or_else(|| format!("no {} samples (every request failed?)", kind.name()))
}

/// Print each percentile with the sample count behind it.
fn report_samples(tally: &Tally) {
    for kind in Kind::ALL {
        let (w, p) = (tally.window.of(kind).len(), tally.probe.of(kind).len());
        if w + p > 0 {
            eprintln!("perfbench:   {:<22} {w:>7} window + {p:>4} probe samples", kind.name());
        }
    }
    let algs: Vec<String> = Kind::ALL
        .iter()
        .flat_map(|k| {
            Algorithm::ALL
                .iter()
                .zip(tally.dispatch[k.index()])
                .filter(|(_, c)| *c > 0)
                .map(move |(a, c)| format!("{}/{}={c}", k.name(), a.name()))
        })
        .collect();
    eprintln!("perfbench:   dispatch {} (flips {})", algs.join(" "), tally.flips);
    eprintln!(
        "perfbench:   failed {} of {} attempted {:?}",
        tally.failed, tally.attempted, tally.errors
    );
}

fn end_to_end(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let inputs = Inputs::new(args.workload, args.seed);
    let mut setups: Vec<f64> = Vec::new();
    let mut live = None;
    while setups.len() < SETUP_MIN_REPS
        || (setups.iter().sum::<f64>() < SETUP_MIN_SECS && setups.len() < SETUP_MAX_REPS)
    {
        if let Some(previous) = live.take() {
            workloads::Live::finish(previous)?;
        }
        let (secs, l) = workloads::setup(&inputs, &args.rankd, dir)?;
        setups.push(secs);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    let start = workloads::window(&inputs, &mut live, args.seconds)?;
    let rss = live.daemon.peak_rss_mb()?;
    let tally = live.finish()?;
    let elapsed = tally.window_end.map_or(0.0, |end| end.duration_since(start).as_secs_f64());

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("setup_s", median(&setups).expect("set-ups ran"));
    m.insert("rank_p50_ms", p(&tally, Kind::Rank, 50.0)?);
    m.insert("scan_p50_ms", p(&tally, Kind::Scan, 50.0)?);
    m.insert("req_per_s", ratio(tally.window_done as f64, elapsed));
    m.insert("melem_per_s", ratio(tally.window_elems as f64 / 1e6, elapsed));
    m.insert("rss_peak_mb", rss);
    eprintln!(
        "perfbench: {} seed {}: {} set-ups (median {:.4} s), window {elapsed:.3} s, failed_frac {}",
        args.workload.name(),
        args.seed,
        setups.len(),
        median(&setups).expect("set-ups ran"),
        ratio(tally.failed as f64, tally.attempted as f64)
    );
    report_samples(&tally);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: in_ledger_order(END_TO_END, &m)?,
    })
}

fn walk_ms(rows: &[WalkRow], lanes: usize, n: usize) -> f64 {
    rows.iter().find(|r| r.lanes == lanes).map_or(0.0, |r| r.ns_per_elem * n as f64 / 1e6)
}

/// Share of the served rank and add-scan replies whose OUTPUT metadata
/// names another algorithm than that kind's most common one: the
/// planner's algorithm probes and flips. A lane probe keeps the
/// algorithm, so it is not visible on the wire and not counted.
fn probe_share(tally: &Tally) -> f64 {
    let rows = [Kind::Rank, Kind::Scan].map(|k| tally.dispatch[k.index()]);
    let total: u64 = rows.iter().flatten().sum();
    let modal: u64 = rows.iter().map(|r| r.iter().max().copied().unwrap_or(0)).sum();
    ratio((total - modal) as f64, total as f64)
}

fn traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let inputs = Inputs::new(args.workload, args.seed);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // ---- In-process layers on the first query list (random layout),
    // before any daemon exists. The walk sweep also runs on a blocked4k
    // list of the same n.
    let ds = &inputs.query[0];
    let n = ds.n();
    let threads = layers::inner_threads();
    let blocked = listkit::gen::list_with_layout(n, Layout::Blocked(4096), sub_seed(args.seed, 6));
    let random = layers::walk_sweep(&ds.list, &ds.values, &WALK_LANES, args.seed);
    let blocked4k = layers::walk_sweep(&blocked, &ds.values, &WALK_LANES, args.seed);
    drop(blocked);
    const WALK_NAMES: [[&str; 5]; 2] = [
        [
            "walk.reduce_ns_per_elem.random.lanes1",
            "walk.reduce_ns_per_elem.random.lanes2",
            "walk.reduce_ns_per_elem.random.lanes4",
            "walk.reduce_ns_per_elem.random.lanes8",
            "walk.reduce_ns_per_elem.random.lanes16",
        ],
        [
            "walk.reduce_ns_per_elem.blocked4k.lanes1",
            "walk.reduce_ns_per_elem.blocked4k.lanes2",
            "walk.reduce_ns_per_elem.blocked4k.lanes4",
            "walk.reduce_ns_per_elem.blocked4k.lanes8",
            "walk.reduce_ns_per_elem.blocked4k.lanes16",
        ],
    ];
    for (names, rows) in WALK_NAMES.iter().zip([&random, &blocked4k]) {
        for (name, row) in names.iter().zip(rows.iter()) {
            m.insert(name, row.ns_per_elem);
        }
    }
    m.insert("walk.bytes_per_elem", WALK_BYTES_PER_ELEM);
    let lanes8 = random.iter().find(|r| r.lanes == 8).expect("sweep covers 8 lanes");
    m.insert("walk.lane_occupancy", lanes8.occupancy);

    let lr = layers::listrank_layer(ds, threads)?;
    m.insert("listrank.rank_ns_per_elem", lr.rank_ms * 1e6 / n as f64);
    m.insert("listrank.scan_add_ns_per_elem", lr.scan_ms * 1e6 / n as f64);

    let depth = if args.workload == Workload::SmallPipelined { PIPELINE_DEPTH } else { 1 };
    let eng = layers::engine_layer(ds, depth)?;
    m.insert("engine.exec_ms", eng.exec_ms);
    m.insert("engine.plan_ms", eng.plan_ms);
    m.insert("engine.plan_first_ms", eng.plan_first_ms);
    m.insert("engine.queue_wait_ms", eng.queue_wait_ms);
    m.insert("engine.self_ms", eng.self_ms);
    m.insert("engine.batch_size", eng.batch_size);
    m.insert("engine.pool_hit_ratio", eng.pool_hit_ratio);

    let proto = layers::protocol_layer(ds)?;
    m.insert("protocol.output_encode_ms", proto.output_encode_ms);
    m.insert("protocol.output_decode_ms", proto.output_decode_ms);
    m.insert("protocol.put_decode_ms", proto.put_decode_ms);
    m.insert("protocol.scan_h_decode_ms", proto.scan_h_decode_ms);
    m.insert("protocol.reply_bytes_per_elem", proto.reply_bytes_per_elem);

    // ---- The daemon: one set-up, the window, the probes.
    let (_, mut live) = workloads::setup(&inputs, &args.rankd, dir)?;
    let mut ctl = live.daemon.connect()?;
    let s0 = Snapshot::take(&mut ctl)?;
    let start = workloads::window(&inputs, &mut live, args.seconds)?;
    let s1 = Snapshot::take(&mut ctl)?;
    workloads::probes(&inputs, &mut live)?;
    let s2 = Snapshot::take(&mut ctl)?;
    drop(ctl);
    let tally = live.finish()?;
    let elapsed = tally.window_end.map_or(0.0, |end| end.duration_since(start).as_secs_f64());

    let total: u64 = tally.dispatch.iter().flatten().sum();
    let rm = Algorithm::ALL.iter().position(|a| *a == Algorithm::ReidMiller).expect("known");
    let rm_count: u64 = tally.dispatch.iter().map(|row| row[rm]).sum();
    m.insert("engine.probe_share", probe_share(&tally));
    m.insert("engine.dispatch_flips", tally.flips as f64);
    m.insert("engine.reid_miller_share", ratio(rm_count as f64, total as f64));

    // Store: window plus probes (the probes are where the workloads
    // build, patch and reuse artifacts).
    let (st0, st2) = (&s0.v2.store, &s2.v2.store);
    let (mu0, mu2) = (&s0.v2.mutate, &s2.v2.mutate);
    m.insert(
        "store.hit_ratio",
        ratio((st2.hits - st0.hits) as f64, (st2.lookups - st0.lookups) as f64),
    );
    m.insert("store.artifacts_built", (st2.artifacts_built - st0.artifacts_built) as f64);
    m.insert("store.artifacts_reused", (st2.artifacts_reused - st0.artifacts_reused) as f64);
    m.insert("store.artifacts_patched", (mu2.artifacts_patched - mu0.artifacts_patched) as f64);
    m.insert(
        "store.incremental_share",
        ratio((mu2.incremental - mu0.incremental) as f64, (mu2.mutations - mu0.mutations) as f64),
    );
    m.insert("store.evictions", (st2.evictions - st0.evictions) as f64);
    m.insert("store.mutate_exec_ms", median(&tally.mutate_exec_ms).unwrap_or(0.0));
    m.insert("store.put_p50_ms", p(&tally, Kind::Put, 50.0)?);
    m.insert("store.mutate_p50_ms", p(&tally, Kind::Mutate, 50.0)?);
    m.insert("store.sharded_rank_p50_ms", p(&tally, Kind::ShardedRank, 50.0)?);
    m.insert(
        "store.artifact_build_ms",
        median(&tally.build_exec_ms).unwrap_or(0.0) - median(&tally.reuse_exec_ms).unwrap_or(0.0),
    );

    // Server: the window alone.
    let phase = |ph: Phase| hist_delta(&s1.v2.phase[ph.index()], &s0.v2.phase[ph.index()]);
    m.insert("server.decode_p99_ms", phase(Phase::Decode).percentile(99.0) as f64 / 1e6);
    m.insert("server.reply_write_p50_ms", phase(Phase::ReplyWrite).percentile(50.0) as f64 / 1e6);
    let phase_ms: f64 = Phase::ALL.iter().map(|&ph| phase(ph).sum() as f64 / 1e6).sum();
    let residual_ms = ratio(tally.job_client_ms - phase_ms, tally.jobs as f64);
    m.insert("server.residual_ms", residual_ms);
    let (v0, v1) = (&s0.v1, &s1.v1);
    let reqs = tally.window_done as f64;
    m.insert(
        "server.bytes_per_req",
        ratio(((v1.bytes_in + v1.bytes_out) - (v0.bytes_in + v0.bytes_out)) as f64, reqs),
    );
    m.insert(
        "server.frames_per_req",
        ratio(((v1.frames_in + v1.frames_out) - (v0.frames_in + v0.frames_out)) as f64, reqs),
    );
    m.insert(
        "server.reply_reorders",
        (s1.v2.sched.reply_reorders - s0.v2.sched.reply_reorders) as f64,
    );
    let depth_hist = hist_delta(&s1.v2.pipeline_depth, &s0.v2.pipeline_depth);
    m.insert("server.pipeline_depth_p50", depth_hist.percentile(50.0) as f64);
    m.insert("server.failed_frac", ratio(tally.failed as f64, tally.attempted as f64));
    let mut errors: BTreeMap<String, u64> = BTreeMap::new();
    for (code, count) in &tally.errors {
        let code = snake_case(code);
        let key = if ERROR_CODES.contains(&code.as_str()) { code } else { "other".to_string() };
        *errors.entry(key).or_default() += count;
    }
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("server.errors.")) {
        let code = &name["server.errors.".len()..];
        m.insert(name, errors.get(code).copied().unwrap_or(0) as f64);
    }

    // Load generator. A p99 over fewer than 1000 samples (resident_big
    // holds about a hundred ranks) is the tail, not a true p99.
    m.insert("loadgen.rank_p90_ms", p(&tally, Kind::Rank, 90.0)?);
    m.insert("loadgen.rank_p99_ms", p(&tally, Kind::Rank, 99.0)?);
    m.insert("loadgen.scan_p90_ms", p(&tally, Kind::Scan, 90.0)?);
    for (name, kind) in [
        ("loadgen.rank_samples", Kind::Rank),
        ("loadgen.scan_samples", Kind::Scan),
        ("loadgen.put_samples", Kind::Put),
        ("loadgen.mutate_samples", Kind::Mutate),
        ("loadgen.sharded_rank_samples", Kind::ShardedRank),
    ] {
        m.insert(name, tally.samples(kind).len() as f64);
    }

    // The traced run's own rank p50: its gap to the end-to-end run's
    // `rank_p50_ms` on the same seed is the tracing overhead.
    let rank_p50 = p(&tally, Kind::Rank, 50.0)?;
    let scan_p50 = p(&tally, Kind::Scan, 50.0)?;
    m.insert("trace.rank_p50_ms", rank_p50);

    // Layer monotonicity: each layer costs at least the one below it.
    // The walk level applies where Reid-Miller walks at all (below its
    // serial cutoff it ranks serially).
    let walks = n > listrank::host::ReidMiller::default().serial_cutoff;
    let mut violations = Vec::new();
    for (walk, lib, exec, wait, client) in [
        (walk_ms(&random, 8, n), lr.rank_ms, eng.exec_ms, eng.rank_wait_ms, rank_p50),
        (walk_ms(&random, 8, n), lr.scan_ms, eng.scan_exec_ms, eng.scan_wait_ms, scan_p50),
    ] {
        let mut levels = vec![
            ("listrank", lib),
            ("engine.exec", exec),
            ("engine.submit_wait", wait),
            ("client", client),
        ];
        if walks {
            levels.insert(0, ("walk", walk));
        }
        eprintln!("perfbench:   chain {levels:?}");
        violations.extend(layers::chain_violations(&levels, CHAIN_BAND));
    }
    if residual_ms < 0.0 {
        violations
            .push(format!("server phases exceed client-observed time by {:.3} ms", -residual_ms));
    }
    for v in &violations {
        eprintln!("perfbench:   chain violation: {v}");
    }
    m.insert("chain.violations", violations.len() as f64);

    eprintln!(
        "perfbench: {} seed {} traced: window {elapsed:.3} s",
        args.workload.name(),
        args.seed
    );
    report_samples(&tally);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: in_ledger_order(PER_LAYER, &m)?,
    })
}

/// The result line: one JSON object.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
