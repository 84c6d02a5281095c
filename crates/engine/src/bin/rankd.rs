//! `rankd` — drive a sustained mixed ranking/scan workload through the
//! batch engine and report throughput against the naive
//! sequential-submit baseline, or (`rankd serve`) run the engine as a
//! long-lived daemon behind a Unix-domain-socket wire protocol.
//!
//! ```sh
//! cargo run --release -p engine --bin rankd -- --help
//! cargo run --release -p engine --bin rankd -- serve --socket /tmp/rankd.sock
//! ```

use engine::stats::format_count;
use engine::workload::{
    run_baseline, run_engine, run_sharded_scenario, HugeListConfig, OpSelect, Workload,
    WorkloadConfig,
};
#[cfg(unix)]
use engine::{Client, ServeConfig, Server};
use engine::{Engine, EngineConfig};
use std::sync::Arc;

/// Minimal signal plumbing for `rankd serve`, declared directly
/// against the C runtime so the daemon needs no extra dependency:
/// SIGPIPE ignored (a dead client must surface as a write error on
/// its own connection, not kill the daemon), SIGTERM latched into an
/// atomic that a watcher thread turns into a graceful drain.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Latched by the SIGTERM handler; polled by the watcher thread.
    pub static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGPIPE: i32 = 13;
    const SIGTERM: i32 = 15;
    const SIG_IGN: usize = 1;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Async-signal-safe: one relaxed store, nothing else.
    extern "C" fn on_term(_sig: i32) {
        TERM_REQUESTED.store(true, Ordering::Relaxed);
    }

    /// Install both dispositions; call once before serving.
    pub fn install() {
        unsafe {
            signal(SIGPIPE, SIG_IGN);
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }
}

struct Args {
    workload: WorkloadConfig,
    engine: EngineConfig,
    skip_baseline: bool,
    repeats: u32,
    sharded_scenario: bool,
    huge: HugeListConfig,
    /// Whether --workers / --inner-threads were given explicitly (the
    /// sharded scenario picks its own defaults otherwise).
    workers_set: bool,
    inner_threads_set: bool,
}

fn usage() -> ! {
    eprintln!(
        "rankd — batch list-ranking engine throughput driver

USAGE: rankd [OPTIONS]
       rankd serve [OPTIONS]     long-running socket daemon (see rankd serve --help)
       rankd stats [OPTIONS]     live telemetry dashboard for a daemon (see rankd stats --help)

Workload:
  --min-exp E            smallest job decade, 10^E vertices   [default 2]
  --max-exp E            largest job decade, 10^E vertices    [default 7]
  --elems-per-decade N   element budget per decade            [default 2000000]
  --max-jobs-per-decade N  job-count cap per decade           [default 3000]
  --scan-frac F          fraction of scan (vs rank) jobs      [default 0.3]
  --op OP                scan operator: add|max|min|xor|affine|seg|mixed
                         (mixed rotates through all of them)  [default mixed]
  --seed S               workload seed                        [default 0xC90]
  --repeats R            run the workload R times through the engine
                         (planner history carries over)       [default 1]

Engine:
  --workers W            worker threads                 [default: cores/2, 2..8]
  --inner-threads T      threads per job                [default: cores/workers]
  --queue-cap Q          queue capacity (backpressure)  [default 1024]
  --small-cutoff N       batch jobs up to N vertices    [default 4096]
  --batch-max B          max jobs per batch             [default 64]
  --lanes K              interleaved traversal lanes per worker for the
                         multi-chain walks; 0 = let the planner tune K
                         per size bucket                    [default 0]
  --shard-budget N       per-worker vertex budget: RankSharded jobs
                         above N split into shards    [default 2097152]
  --slow-ms MS           slow-request warn threshold in ms (also
                         RANKD_SLOW_MS)                  [default 250]
  --skip-baseline        skip the naive sequential-submit baseline

Logging: set RANKD_LOG=error|warn|info|debug|trace   [default warn]

Huge-list sharded scenario (replaces the mixed workload):
  --sharded-scenario     rank one huge list sharded vs monolithic
  --huge-n N             vertices in the huge list (up to 10^8)
                                                   [default 16777216]
  --huge-jobs J          ranking jobs per pass             [default 4]
  --huge-block B         blocked-layout block size      [default 4096]"
    );
    std::process::exit(2)
}

/// Consume one engine-sizing flag (shared between the workload driver
/// and `rankd serve`). `Ok(true)` = consumed, `Ok(false)` = not an
/// engine flag, `Err(())` = the flag's value failed to parse — the
/// caller reports it with its own usage screen (workload vs serve).
fn parse_engine_flag(
    flag: &str,
    engine: &mut EngineConfig,
    val: &mut dyn FnMut(&str) -> String,
) -> Result<bool, ()> {
    fn num<T: std::str::FromStr>(s: String) -> Result<T, ()> {
        s.parse().map_err(|_| ())
    }
    match flag {
        "--workers" => engine.workers = num(val("--workers"))?,
        "--inner-threads" => engine.inner_threads = num(val("--inner-threads"))?,
        "--queue-cap" => engine.queue_capacity = num(val("--queue-cap"))?,
        "--small-cutoff" => engine.small_cutoff = num(val("--small-cutoff"))?,
        "--batch-max" => engine.batch_max = num(val("--batch-max"))?,
        "--lanes" => {
            let k: usize = num(val("--lanes"))?;
            engine.lanes = (k > 0).then_some(k);
        }
        "--shard-budget" => engine.shard_budget = num(val("--shard-budget"))?,
        "--slow-ms" => engine.slow_request_ms = Some(num(val("--slow-ms"))?),
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        workload: WorkloadConfig::default(),
        engine: EngineConfig::default(),
        skip_baseline: false,
        repeats: 1,
        sharded_scenario: false,
        huge: HugeListConfig::default(),
        workers_set: false,
        inner_threads_set: false,
    };
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--min-exp" => {
                args.workload.min_exp = val("--min-exp").parse().unwrap_or_else(|_| usage())
            }
            "--max-exp" => {
                args.workload.max_exp = val("--max-exp").parse().unwrap_or_else(|_| usage())
            }
            "--elems-per-decade" => {
                args.workload.elems_per_decade =
                    val("--elems-per-decade").parse().unwrap_or_else(|_| usage())
            }
            "--max-jobs-per-decade" => {
                args.workload.max_jobs_per_decade =
                    val("--max-jobs-per-decade").parse().unwrap_or_else(|_| usage())
            }
            "--scan-frac" => {
                args.workload.scan_frac = val("--scan-frac").parse().unwrap_or_else(|_| usage())
            }
            "--op" => {
                args.workload.op = OpSelect::parse(&val("--op")).unwrap_or_else(|| {
                    eprintln!("unknown --op (want add|max|min|xor|affine|seg|mixed)");
                    usage()
                })
            }
            "--seed" => args.workload.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--repeats" => args.repeats = val("--repeats").parse().unwrap_or_else(|_| usage()),
            "--sharded-scenario" => args.sharded_scenario = true,
            "--huge-n" => args.huge.n = val("--huge-n").parse().unwrap_or_else(|_| usage()),
            "--huge-jobs" => {
                args.huge.jobs = val("--huge-jobs").parse().unwrap_or_else(|_| usage())
            }
            "--huge-block" => {
                args.huge.block = val("--huge-block").parse().unwrap_or_else(|_| usage())
            }
            "--skip-baseline" => args.skip_baseline = true,
            "--help" | "-h" => usage(),
            other => match parse_engine_flag(other, &mut args.engine, &mut val) {
                Ok(true) => match other {
                    "--workers" => args.workers_set = true,
                    "--inner-threads" => args.inner_threads_set = true,
                    _ => {}
                },
                Ok(false) => {
                    eprintln!("unknown flag {other}");
                    usage()
                }
                Err(()) => {
                    eprintln!("bad value for {other}");
                    usage()
                }
            },
        }
    }
    args
}

#[cfg(unix)]
fn serve_usage() -> ! {
    eprintln!(
        "rankd serve — long-running socket daemon for the batch engine

USAGE: rankd serve [OPTIONS]

Accepts concurrent clients over a Unix domain socket speaking the
length-prefixed binary protocol in docs/PROTOCOL.md; every frame maps
onto the engine's typed request API, and the bounded queue's
backpressure becomes per-client admission control.

Serving:
  --socket PATH          Unix socket path            [default /tmp/rankd.sock]
  --tcp HOST:PORT        also listen on a TCP address (same protocol,
                         same reactor); port 0 picks a free port
                                                          [default off]
  --max-clients N        concurrent client cap; excess connections get
                         a typed `busy` error             [default 64]
  --serve-secs S         exit after S seconds; 0 = serve until a client
                         sends SHUTDOWN                    [default 0]
  --store-budget BYTES   resident dataset store byte budget for PUT
                         datasets + cached artifacts; accepts k/m/g
                         suffixes (e.g. 256m, 2g)          [default 1g]

Resilience:
  --fault SPEC           seeded fault injection for chaos testing, e.g.
                         \"io_err=0.01,delay=5ms@0.05,short_write=0.02,\\
                         exec_panic=0.001,store_err=0.01,seed=7\" —
                         \"default\" enables documented default rates;
                         falls back to RANKD_FAULT          [default off]
  --shed-queue N         shed job requests with a typed `overloaded`
                         while queue depth ≥ N; 0 = rely on blocking
                         backpressure                       [default 0]
  --shed-store BYTES     shed PUTs with a typed `overloaded` while the
                         store holds ≥ BYTES (k/m/g suffixes); 0 = off
                                                            [default 0]

QoS (protocol v6):
  --inflight-quota N     per-connection cap on pipelined requests in
                         flight; excess gets a typed `quota_exceeded`;
                         0 = unlimited                     [default 64]
  --store-quota BYTES    per-connection cap on resident store bytes
                         (k/m/g suffixes); 0 = only the global budget
                                                            [default 0]

Engine (as in plain rankd):
  --workers W --inner-threads T --queue-cap Q --small-cutoff N
  --batch-max B --lanes K --shard-budget N --slow-ms MS

Signals: SIGTERM drains gracefully (in-flight replies complete, socket
file removed, stats printed); SIGPIPE is ignored (dead clients surface
as write errors on their own connection only).

Logging: set RANKD_LOG=error|warn|info|debug|trace   [default warn]"
    );
    std::process::exit(2)
}

#[cfg(unix)]
fn parse_serve_args(mut it: impl Iterator<Item = String>) -> (ServeConfig, EngineConfig) {
    let mut cfg = ServeConfig::new("/tmp/rankd.sock");
    let mut engine = EngineConfig::default();
    let mut fault_spec: Option<String> = None;
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                serve_usage()
            })
        };
        match flag.as_str() {
            "--socket" => cfg.socket = val("--socket").into(),
            "--tcp" => cfg = cfg.with_tcp(Some(val("--tcp"))),
            "--inflight-quota" => {
                cfg = cfg.with_inflight_quota(
                    val("--inflight-quota").parse().unwrap_or_else(|_| serve_usage()),
                )
            }
            "--store-quota" => {
                let bytes = parse_bytes(&val("--store-quota")).unwrap_or_else(|| {
                    eprintln!("bad --store-quota (want BYTES with optional k/m/g suffix)");
                    serve_usage()
                });
                cfg = cfg.with_store_quota(bytes);
            }
            "--max-clients" => {
                cfg = cfg.with_max_clients(
                    val("--max-clients").parse().unwrap_or_else(|_| serve_usage()),
                )
            }
            "--serve-secs" => {
                let s: u64 = val("--serve-secs").parse().unwrap_or_else(|_| serve_usage());
                cfg = cfg.with_serve_secs((s > 0).then_some(s));
            }
            "--store-budget" => {
                let bytes = parse_bytes(&val("--store-budget")).unwrap_or_else(|| {
                    eprintln!("bad --store-budget (want BYTES with optional k/m/g suffix)");
                    serve_usage()
                });
                cfg = cfg.with_store_budget(bytes);
            }
            "--fault" => fault_spec = Some(val("--fault")),
            "--shed-queue" => {
                cfg = cfg.with_shed_queue_depth(
                    val("--shed-queue").parse().unwrap_or_else(|_| serve_usage()),
                )
            }
            "--shed-store" => {
                let bytes = parse_bytes(&val("--shed-store")).unwrap_or_else(|| {
                    eprintln!("bad --shed-store (want BYTES with optional k/m/g suffix)");
                    serve_usage()
                });
                cfg = cfg.with_shed_store_bytes(bytes);
            }
            "--help" | "-h" => serve_usage(),
            other => match parse_engine_flag(other, &mut engine, &mut val) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("unknown flag {other}");
                    serve_usage()
                }
                Err(()) => {
                    eprintln!("bad value for {other}");
                    serve_usage()
                }
            },
        }
    }
    // One plane shared by the serving layer (socket/store injection)
    // and the engine (worker-exec injection), so a single seed drives
    // one reproducible decision stream.
    let fault_spec = fault_spec.or_else(|| std::env::var("RANKD_FAULT").ok());
    if let Some(spec) = fault_spec {
        let fc = engine::FaultConfig::parse(&spec).unwrap_or_else(|e| {
            eprintln!("bad --fault spec: {e}");
            serve_usage()
        });
        let plane = Arc::new(engine::FaultPlane::new(fc));
        cfg = cfg.with_fault(Arc::clone(&plane));
        engine = engine.with_fault(plane);
    }
    (cfg, engine)
}

#[cfg(unix)]
fn run_serve(cfg: ServeConfig, engine_cfg: EngineConfig) {
    signals::install();
    let max_clients = cfg.max_clients;
    let serve_secs = cfg.serve_secs;
    let store_budget = cfg.store_budget;
    let faults_on = cfg.fault.is_enabled();
    let engine = Arc::new(Engine::new(engine_cfg));
    let server = Server::bind(Arc::clone(&engine), cfg).unwrap_or_else(|e| {
        eprintln!("rankd serve: bind failed: {e}");
        std::process::exit(1);
    });
    // SIGTERM → graceful drain: the handler only flips an atomic; this
    // watcher turns it into the same shutdown path a SHUTDOWN frame
    // takes. Daemon thread — dies with the process.
    {
        let control = server.control();
        std::thread::Builder::new()
            .name("rankd-signals".to_string())
            .spawn(move || {
                use std::sync::atomic::Ordering;
                while !signals::TERM_REQUESTED.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                eprintln!("rankd serve: SIGTERM, draining");
                control.request_shutdown();
            })
            .expect("spawn signal watcher");
    }
    if let Some(addr) = server.tcp_local_addr() {
        println!("rankd serve: tcp listening on {addr}");
    }
    println!(
        "rankd serve: listening on {} ({} workers × {} inner threads, queue {}, ≤{} clients, store {}, {}{})",
        server.socket_path().display(),
        engine.config().workers,
        engine.config().inner_threads,
        engine.config().queue_capacity,
        max_clients,
        fmt_bytes(store_budget),
        match serve_secs {
            Some(s) => format!("serving {s}s"),
            None => "serving until SHUTDOWN".to_string(),
        },
        if faults_on { ", FAULT INJECTION ON" } else { "" }
    );
    let failed = match server.run() {
        Ok(stats) => {
            println!("\n-- serving stats --\n{stats}");
            false
        }
        Err(e) => {
            eprintln!("rankd serve: accept loop failed: {e}");
            true
        }
    };
    // All handler threads are joined by `run`, so this is the last Arc.
    if let Ok(engine) = Arc::try_unwrap(engine) {
        println!("\n-- engine stats --\n{}", engine.shutdown());
    }
    if failed {
        // Supervisors (and the CI smoke job's `wait`) must see a
        // crashed accept loop as a failure, not a clean exit.
        std::process::exit(1);
    }
}

#[cfg(unix)]
fn stats_usage() -> ! {
    eprintln!(
        "rankd stats — live telemetry dashboard for a rankd serve daemon

USAGE: rankd stats [OPTIONS]

Polls the daemon's STATS_V2 frame and renders per-op / per-phase
latency percentiles, throughput, queue depth, lane occupancy, and the
planner's dispatch matrix.

  --socket PATH          daemon socket path       [default /tmp/rankd.sock]
  --watch N              refresh every N seconds until interrupted
                         (omit for a single snapshot)"
    );
    std::process::exit(2)
}

#[cfg(unix)]
fn parse_stats_args(mut it: impl Iterator<Item = String>) -> (String, Option<u64>) {
    let mut socket = "/tmp/rankd.sock".to_string();
    let mut watch = None;
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                stats_usage()
            })
        };
        match flag.as_str() {
            "--socket" => socket = val("--socket"),
            "--watch" => {
                let n: u64 = val("--watch").parse().unwrap_or_else(|_| stats_usage());
                watch = Some(n.max(1));
            }
            "--help" | "-h" => stats_usage(),
            other => {
                eprintln!("unknown flag {other}");
                stats_usage()
            }
        }
    }
    (socket, watch)
}

/// Render one STATS_V2 snapshot as the top-style dashboard.
#[cfg(unix)]
fn render_dashboard(socket: &str, v2: &engine::protocol::WireStatsV2) -> String {
    use engine::stats::{write_dispatch_table, write_latency_tables, write_mispredict};
    use std::fmt::Write;

    let g = &v2.gauges;
    let uptime_s = g.uptime_ns as f64 / 1e9;
    let mut out = String::new();
    let _ = writeln!(out, "rankd stats — {socket}  (daemon uptime {uptime_s:.1}s)");
    let _ = writeln!(
        out,
        "jobs: {} completed / {} submitted ({} cancelled, {} failed, {} rejected)",
        g.completed, g.submitted, g.cancelled, g.failed, g.rejected_full
    );
    let jobs_per_sec = if uptime_s > 0.0 { g.completed as f64 / uptime_s } else { 0.0 };
    let elems_per_sec = if uptime_s > 0.0 { g.elements as f64 / uptime_s } else { 0.0 };
    let occupancy = if g.lane_slots > 0 {
        format!("{:.0}%", g.lane_steps as f64 / g.lane_slots as f64 * 100.0)
    } else {
        "-".to_string()
    };
    let _ = writeln!(
        out,
        "throughput: {} jobs/s, {} elems/s   queue: {} (peak {})   lanes: {} occupancy   conns: {} open / {} total",
        format_count(jobs_per_sec),
        format_count(elems_per_sec),
        g.queue_depth,
        g.peak_queue_depth,
        occupancy,
        g.connections_active,
        g.connections_total
    );
    let s = &v2.store;
    let hit_rate = if s.lookups > 0 {
        format!("{:.1}%", s.hits as f64 / s.lookups as f64 * 100.0)
    } else {
        "-".to_string()
    };
    let _ = writeln!(
        out,
        "store: {} datasets, {} / {} resident   hits: {}/{} lookups ({} hit rate)   evictions: {}   puts: {} ({} rejected)   artifacts: {} built / {} reused",
        s.resident_count,
        fmt_bytes(s.resident_bytes),
        fmt_bytes(s.budget_bytes),
        s.hits,
        s.lookups,
        hit_rate,
        s.evictions,
        s.puts,
        s.put_rejected,
        s.artifacts_built,
        s.artifacts_reused
    );
    let m = &v2.mutate;
    if m.mutations > 0 {
        let passes = m.incremental + m.full;
        let patch_rate = if m.incremental > 0 {
            format!(
                "{:.1} dirty shards/patch",
                m.dirty_shards_patched as f64 / m.incremental as f64
            )
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "mutations: {} batches ({} edits)   maintenance: {} incremental / {} full of {} passes   {}   artifacts patched: {}",
            m.mutations,
            m.edits,
            m.incremental,
            m.full,
            passes,
            patch_rate,
            m.artifacts_patched
        );
    }
    let fg = &v2.fault;
    let injected = fg.injected_io_errors
        + fg.injected_delays
        + fg.injected_short_writes
        + fg.injected_exec_panics
        + fg.injected_store_errors;
    if injected > 0 {
        let _ = writeln!(
            out,
            "faults: {} injected ({} io, {} delay, {} short-write, {} exec-panic, {} store)",
            injected,
            fg.injected_io_errors,
            fg.injected_delays,
            fg.injected_short_writes,
            fg.injected_exec_panics,
            fg.injected_store_errors
        );
    }
    if fg.panics_recovered > 0
        || fg.workers_respawned > 0
        || fg.deadline_expired > 0
        || fg.shed_queue > 0
        || fg.shed_store > 0
    {
        let _ = writeln!(
            out,
            "resilience: {} panics recovered, {} workers respawned, {} deadlines expired, shed {} (queue) / {} (store)",
            fg.panics_recovered,
            fg.workers_respawned,
            fg.deadline_expired,
            fg.shed_queue,
            fg.shed_store
        );
    }
    let sc = &v2.sched;
    let _ = writeln!(
        out,
        "scheduler: {} interactive / {} batch dispatched ({}/{} in flight), {} aged",
        sc.dispatched_interactive,
        sc.dispatched_batch,
        sc.inflight_interactive,
        sc.inflight_batch,
        sc.aged_dispatches
    );
    let _ = writeln!(
        out,
        "pipeline: {} pipelined requests, max depth {}, {} reordered replies; quota rejections: {} in-flight / {} store",
        sc.pipelined_requests,
        sc.max_pipeline_depth,
        sc.reply_reorders,
        sc.quota_rejected_inflight,
        sc.quota_rejected_store
    );
    if !v2.pipeline_depth.is_empty() {
        let d = &v2.pipeline_depth;
        let _ = writeln!(
            out,
            "pipeline depth at admission: p50 {}  p95 {}  p99 {}  max {} over {} samples",
            d.percentile(50.0),
            d.percentile(95.0),
            d.percentile(99.0),
            d.max(),
            d.count()
        );
    }
    let _ = writeln!(out);
    let _ = write_latency_tables(&mut out, &v2.phase, &v2.per_op);
    let rows = v2.dispatch_by_op.iter().map(|(op, row)| (op.name().to_string(), &row[..]));
    let _ =
        write_dispatch_table(&mut out, "planner dispatch (completions per algorithm):", "op", rows);
    let _ = write_mispredict(&mut out, &v2.mispredict);
    out
}

#[cfg(unix)]
fn run_stats(socket: String, watch: Option<u64>) {
    loop {
        let v2 = Client::connect(&socket).and_then(|mut c| c.stats_v2()).unwrap_or_else(|e| {
            eprintln!("rankd stats: {e}");
            std::process::exit(1);
        });
        if watch.is_some() {
            // ANSI clear + home, like top(1).
            print!("\x1B[2J\x1B[H");
        }
        println!("{}", render_dashboard(&socket, &v2));
        match watch {
            Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
            None => return,
        }
    }
}

/// Parse a byte count with an optional k/m/g suffix (powers of 1024),
/// case-insensitive: `1g`, `256M`, `65536`.
#[cfg(unix)]
fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_shl(shift)
}

/// Render a byte count with a binary-unit suffix.
#[cfg(unix)]
fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// The huge-list scenario: job-level parallelism is pointless when one
/// job saturates the machine, so *unless overridden on the command
/// line* run one worker with the full thread budget inside it, and
/// compare the shard-parallel path against the monolithic fallback on
/// the same engine.
fn run_sharded_cli(args: &Args) {
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut cfg = args.engine.clone();
    if !args.workers_set {
        cfg = cfg.with_workers(1);
    }
    if !args.inner_threads_set {
        cfg = cfg.with_inner_threads(avail);
    }
    eprintln!(
        "generating huge list: {} vertices, block {}, seed {:#x} ...",
        args.huge.n, args.huge.block, args.huge.seed
    );
    let engine = Engine::new(cfg);
    println!(
        "engine: {} worker(s) × {} inner threads, shard budget {} vertices",
        engine.config().workers,
        engine.config().inner_threads,
        engine.config().shard_budget
    );
    let cmp = run_sharded_scenario(&engine, &args.huge);
    let stats = engine.stats();
    println!(
        "sharded:    {} jobs in {:.3}s  ({} elems/s)  [{} jobs over {} shards, stitch {:.3} ms]",
        cmp.sharded.jobs,
        cmp.sharded.elapsed.as_secs_f64(),
        format_count(cmp.sharded.elements_per_sec()),
        stats.sharded_jobs,
        stats.shards_ranked,
        stats.stitch_ns as f64 / 1e6,
    );
    println!(
        "monolithic: {} jobs in {:.3}s  ({} elems/s)",
        cmp.monolithic.jobs,
        cmp.monolithic.elapsed.as_secs_f64(),
        format_count(cmp.monolithic.elements_per_sec()),
    );
    println!("\nsharded vs monolithic: {:.2}× throughput", cmp.speedup());
    println!("\n-- engine stats --\n{}", engine.stats());
    engine.shutdown();
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("serve") {
        argv.next();
        #[cfg(unix)]
        {
            let (cfg, engine_cfg) = parse_serve_args(argv);
            run_serve(cfg, engine_cfg);
            return;
        }
        #[cfg(not(unix))]
        {
            eprintln!("rankd serve requires unix domain sockets");
            std::process::exit(2);
        }
    }
    if argv.peek().map(String::as_str) == Some("stats") {
        argv.next();
        #[cfg(unix)]
        {
            let (socket, watch) = parse_stats_args(argv);
            run_stats(socket, watch);
            return;
        }
        #[cfg(not(unix))]
        {
            eprintln!("rankd stats requires unix domain sockets");
            std::process::exit(2);
        }
    }
    let args = parse_args(argv);
    if args.sharded_scenario {
        run_sharded_cli(&args);
        return;
    }
    if args.workload.min_exp > args.workload.max_exp {
        eprintln!(
            "--min-exp ({}) must be ≤ --max-exp ({})",
            args.workload.min_exp, args.workload.max_exp
        );
        std::process::exit(2);
    }

    eprintln!(
        "generating workload: decades 10^{}..10^{}, ~{} elems/decade, {:.0}% scans, seed {:#x} ...",
        args.workload.min_exp,
        args.workload.max_exp,
        args.workload.elems_per_decade,
        args.workload.scan_frac * 100.0,
        args.workload.seed
    );
    let workload = Workload::generate(&args.workload);
    println!(
        "workload: {} jobs, {} total vertices (sizes 10^{}..10^{})",
        workload.num_jobs(),
        workload.total_elements,
        args.workload.min_exp,
        args.workload.max_exp
    );

    let engine = Engine::new(args.engine.clone());
    println!(
        "engine: {} workers × {} inner threads, queue {} (batch ≤{} jobs ≤{} vertices, lanes {})",
        engine.config().workers,
        engine.config().inner_threads,
        engine.config().queue_capacity,
        engine.config().batch_max,
        engine.config().small_cutoff,
        match engine.config().lanes {
            Some(k) => k.to_string(),
            None => "auto".to_string(),
        }
    );

    let mut engine_result = None;
    for r in 0..args.repeats.max(1) {
        let res = run_engine(&engine, &workload);
        println!(
            "engine pass {}: {} jobs in {:.3}s  ({} jobs/s, {} elems/s)",
            r + 1,
            res.jobs,
            res.elapsed.as_secs_f64(),
            format_count(res.jobs_per_sec()),
            format_count(res.elements_per_sec()),
        );
        engine_result = Some(res);
    }
    let engine_result = engine_result.expect("at least one pass");

    // The stats Display includes the per-op throughput lines ("by op:")
    // alongside the dispatch-by-size and dispatch-by-op matrices.
    println!("\n-- engine stats --\n{}", engine.stats());

    if !args.skip_baseline {
        eprintln!("running naive sequential-submit baseline ...");
        let base = run_baseline(&workload);
        println!(
            "baseline: {} jobs in {:.3}s  ({} jobs/s, {} elems/s)",
            base.jobs,
            base.elapsed.as_secs_f64(),
            format_count(base.jobs_per_sec()),
            format_count(base.elements_per_sec()),
        );
        assert_eq!(base.checksum, engine_result.checksum, "engine and baseline outputs diverged");
        let speedup = base.elapsed.as_secs_f64() / engine_result.elapsed.as_secs_f64();
        println!(
            "\nengine vs baseline: {speedup:.2}× throughput ({} vs {} elems/s)",
            format_count(engine_result.elements_per_sec()),
            format_count(base.elements_per_sec()),
        );
    }

    engine.shutdown();
}
