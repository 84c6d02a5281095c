//! `rankd` — the batch engine as a long-lived daemon. `rankd serve`
//! runs an `engine::Engine` behind a Unix domain socket (and
//! optionally TCP) speaking the binary protocol in `docs/PROTOCOL.md`;
//! `rankd stats` renders a running daemon's telemetry as a dashboard.
//!
//! ```sh
//! cargo run --release -p engine --bin rankd -- serve --socket /tmp/rankd.sock
//! cargo run --release -p engine --bin rankd -- stats --socket /tmp/rankd.sock
//! ```
//!
//! The in-process API (`Engine`, `Request`, `JobHandle`) needs no
//! daemon: see `examples/batch_engine.rs`.

#[cfg(unix)]
fn main() {
    daemon::run()
}

#[cfg(not(unix))]
fn main() {
    eprintln!("rankd requires unix domain sockets");
    std::process::exit(2)
}

#[cfg(unix)]
mod daemon {
    use engine::stats::format_count;
    use engine::{Client, Engine, EngineConfig, ServeConfig, Server};
    use std::str::FromStr;
    use std::sync::Arc;

    /// Minimal signal plumbing for `rankd serve`, declared directly
    /// against the C runtime so the daemon needs no extra dependency:
    /// SIGPIPE ignored (a dead client must surface as a write error on
    /// its own connection, not kill the daemon), SIGTERM latched into an
    /// atomic that a watcher thread turns into a graceful drain.
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

    /// Print a usage screen and exit with status 2.
    fn exit_usage(usage: &str) -> ! {
        eprintln!("{usage}");
        std::process::exit(2)
    }

    const USAGE: &str = "rankd — the batch list-ranking engine as a socket daemon

USAGE: rankd serve [OPTIONS]     long-running socket daemon (see rankd serve --help)
       rankd stats [OPTIONS]     live telemetry dashboard for a daemon (see rankd stats --help)

Logging: set RANKD_LOG=error|warn|info|debug|trace   [default warn]";

    pub fn run() {
        let mut argv = std::env::args().skip(1);
        match argv.next().as_deref() {
            Some("serve") => {
                let (cfg, engine_cfg) = parse_serve_args(argv);
                run_serve(cfg, engine_cfg);
            }
            Some("stats") => {
                let (socket, watch) = parse_stats_args(argv);
                run_stats(socket, watch);
            }
            _ => exit_usage(USAGE),
        }
    }

    const SERVE_USAGE: &str = "rankd serve — long-running socket daemon for the batch engine

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

Engine:
  --workers W            worker threads                 [default: cores/2, 2..8]
  --inner-threads T      thread budget busy workers split [default: cores]
  --queue-cap Q          queue capacity (backpressure)  [default 1024]
  --small-cutoff N       batch jobs up to N vertices    [default 4096]
  --batch-max B          max jobs per batch             [default 64]
  --shard-budget N       per-worker vertex budget: sharded requests
                         above N split into shards    [default 2097152]
  --slow-ms MS           slow-request warn threshold in ms (also
                         RANKD_SLOW_MS)                  [default 250]
  (walk lanes follow the cost model: 1 up to 2^16 vertices, 8 above)

Signals: SIGTERM drains gracefully (in-flight replies complete, socket
file removed, stats printed); SIGPIPE is ignored (dead clients surface
as write errors on their own connection only).

Logging: set RANKD_LOG=error|warn|info|debug|trace   [default warn]";

    /// Parse a flag's number, or report it and exit with `usage`.
    fn num<T: FromStr>(flag: &str, s: String, usage: &str) -> T {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {flag}");
            exit_usage(usage)
        })
    }

    /// Parse a serve flag's byte count, or report it and exit with the
    /// usage.
    fn bytes(flag: &str, s: String) -> u64 {
        parse_bytes(&s).unwrap_or_else(|| {
            eprintln!("bad {flag} (want BYTES with optional k/m/g suffix)");
            exit_usage(SERVE_USAGE)
        })
    }

    fn parse_serve_args(mut it: impl Iterator<Item = String>) -> (ServeConfig, EngineConfig) {
        let mut cfg = ServeConfig::new("/tmp/rankd.sock");
        let mut engine = EngineConfig::default();
        let mut fault_spec: Option<String> = None;
        while let Some(flag) = it.next() {
            let mut val = || {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    exit_usage(SERVE_USAGE)
                })
            };
            match flag.as_str() {
                "--socket" => cfg.socket = val().into(),
                "--tcp" => cfg = cfg.with_tcp(Some(val())),
                "--inflight-quota" => cfg = cfg.with_inflight_quota(num(&flag, val(), SERVE_USAGE)),
                "--store-quota" => cfg = cfg.with_store_quota(bytes(&flag, val())),
                "--max-clients" => cfg = cfg.with_max_clients(num(&flag, val(), SERVE_USAGE)),
                "--serve-secs" => {
                    let s: u64 = num(&flag, val(), SERVE_USAGE);
                    cfg = cfg.with_serve_secs((s > 0).then_some(s));
                }
                "--store-budget" => cfg = cfg.with_store_budget(bytes(&flag, val())),
                "--fault" => fault_spec = Some(val()),
                "--shed-queue" => cfg = cfg.with_shed_queue_depth(num(&flag, val(), SERVE_USAGE)),
                "--shed-store" => cfg = cfg.with_shed_store_bytes(bytes(&flag, val())),
                "--workers" => engine.workers = num(&flag, val(), SERVE_USAGE),
                "--inner-threads" => engine.inner_threads = num(&flag, val(), SERVE_USAGE),
                "--queue-cap" => engine.queue_capacity = num(&flag, val(), SERVE_USAGE),
                "--small-cutoff" => engine.small_cutoff = num(&flag, val(), SERVE_USAGE),
                "--batch-max" => engine.batch_max = num(&flag, val(), SERVE_USAGE),
                "--shard-budget" => engine.shard_budget = num(&flag, val(), SERVE_USAGE),
                "--slow-ms" => engine.slow_request_ms = Some(num(&flag, val(), SERVE_USAGE)),
                "--help" | "-h" => exit_usage(SERVE_USAGE),
                other => {
                    eprintln!("unknown flag {other}");
                    exit_usage(SERVE_USAGE)
                }
            }
        }
        // One plane shared by the serving layer (socket/store injection)
        // and the engine (worker-exec injection), so a single seed drives
        // one reproducible decision stream.
        let fault_spec = fault_spec.or_else(|| std::env::var("RANKD_FAULT").ok());
        if let Some(spec) = fault_spec {
            let fc = engine::FaultConfig::parse(&spec).unwrap_or_else(|e| {
                eprintln!("bad --fault spec: {e}");
                exit_usage(SERVE_USAGE)
            });
            let plane = Arc::new(engine::FaultPlane::new(fc));
            cfg = cfg.with_fault(Arc::clone(&plane));
            engine = engine.with_fault(plane);
        }
        (cfg, engine)
    }

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
            "rankd serve: listening on {} ({} workers sharing {} threads, queue {}, ≤{} clients, store {}, {}{})",
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

    const STATS_USAGE: &str = "rankd stats — live telemetry dashboard for a rankd serve daemon

USAGE: rankd stats [OPTIONS]

Polls the daemon's STATS_V2 frame and renders per-op / per-phase
latency percentiles, throughput, queue depth, lane occupancy, and the
planner's dispatch matrix.

  --socket PATH          daemon socket path       [default /tmp/rankd.sock]
  --watch N              refresh every N seconds until interrupted
                         (omit for a single snapshot)";

    fn parse_stats_args(mut it: impl Iterator<Item = String>) -> (String, Option<u64>) {
        let mut socket = "/tmp/rankd.sock".to_string();
        let mut watch = None;
        while let Some(flag) = it.next() {
            let mut val = || {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    exit_usage(STATS_USAGE)
                })
            };
            match flag.as_str() {
                "--socket" => socket = val(),
                "--watch" => watch = Some(num::<u64>(&flag, val(), STATS_USAGE).max(1)),
                "--help" | "-h" => exit_usage(STATS_USAGE),
                other => {
                    eprintln!("unknown flag {other}");
                    exit_usage(STATS_USAGE)
                }
            }
        }
        (socket, watch)
    }

    /// Render one STATS_V2 snapshot as the top-style dashboard.
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
        let _ = write_dispatch_table(
            &mut out,
            "planner dispatch (completions per algorithm):",
            "op",
            rows,
        );
        let _ = write_mispredict(&mut out, &v2.mispredict);
        out
    }

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
}
