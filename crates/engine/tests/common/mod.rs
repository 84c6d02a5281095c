//! Test support shared by the serving suites: an in-process daemon on
//! a fresh socket, the real `rankd` binary as a child process, and the
//! edit batches that mutation traffic sends.
#![allow(dead_code)]

use engine::server::{ServeConfig, Server, ServerControl, ServerStats};
use engine::{Engine, EngineConfig};
use listkit::dynamic::Edit;
use std::net::SocketAddr;
use std::os::unix::fs::FileTypeExt;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

/// A per-test socket path that cannot collide across parallel tests or
/// stale runs.
pub fn sock_path(tag: &str) -> PathBuf {
    let seq = SOCK_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rankd-test-{}-{tag}-{seq}.sock", std::process::id()))
}

/// An in-process daemon serving on its own thread.
pub struct Running {
    pub control: ServerControl,
    pub path: PathBuf,
    /// The TCP listener's bound address, when the config asked for one.
    pub tcp: Option<SocketAddr>,
    pub join: std::thread::JoinHandle<std::io::Result<ServerStats>>,
}

impl Running {
    /// Shut the daemon down and require a clean exit.
    pub fn stop(self) -> ServerStats {
        self.control.request_shutdown();
        self.join.join().expect("server thread").expect("server run")
    }
}

pub fn start(
    tag: &str,
    engine_cfg: EngineConfig,
    tune: impl FnOnce(ServeConfig) -> ServeConfig,
) -> Running {
    let path = sock_path(tag);
    let cfg = tune(ServeConfig::new(&path).with_drain_grace(Duration::from_secs(10)));
    let engine = Arc::new(Engine::new(engine_cfg));
    let server = Server::bind(engine, cfg).expect("bind test socket");
    let control = server.control();
    let tcp = server.tcp_local_addr();
    let join = std::thread::spawn(move || server.run());
    Running { control, path, tcp, join }
}

pub fn small_engine() -> EngineConfig {
    EngineConfig::default().with_workers(2).with_inner_threads(1)
}

/// Run the `rankd` binary with `args` to completion, capturing its
/// output.
pub fn rankd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rankd")).args(args).output().expect("run rankd")
}

/// The real `rankd serve` as a child process. Dropping it kills a
/// daemon that is still running, so a failed test leaves none behind.
pub struct Daemon {
    pub path: PathBuf,
    child: Child,
}

impl Daemon {
    /// Spawn `rankd serve --socket <fresh path> ARGS` and wait until
    /// the socket exists.
    pub fn spawn(tag: &str, args: &[&str]) -> Daemon {
        let path = sock_path(tag);
        let child = Command::new(env!("CARGO_BIN_EXE_rankd"))
            .arg("serve")
            .arg("--socket")
            .arg(&path)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rankd serve");
        let mut daemon = Daemon { path, child };
        let t0 = Instant::now();
        while !std::fs::metadata(&daemon.path).is_ok_and(|m| m.file_type().is_socket()) {
            if let Some(status) = daemon.child.try_wait().expect("poll rankd serve") {
                panic!("rankd serve exited before binding: {status}");
            }
            assert!(t0.elapsed() < Duration::from_secs(20), "rankd serve did not bind in 20 s");
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    /// The `rankd stats` dashboard for this daemon, or `None` if the
    /// subcommand failed.
    pub fn dashboard(&self) -> Option<String> {
        let out = rankd(&["stats", "--socket", self.path.to_str().expect("utf-8 socket path")]);
        out.status.success().then(|| String::from_utf8(out.stdout).expect("utf-8 dashboard"))
    }

    /// Send SIGTERM and require the graceful drain's exit status 0.
    pub fn terminate(mut self) {
        let term = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(term.success(), "kill -TERM delivered");
        let status = self.child.wait().expect("daemon exit");
        assert!(status.success(), "SIGTERM is a graceful drain, got {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// The edit batches of mutation traffic, one stream per client: each
/// batch splices one vertex, deletes one and appends up to eight.
pub struct EditStream {
    rng: u64,
}

impl EditStream {
    pub fn new(client: usize) -> EditStream {
        EditStream { rng: 0x9E37_79B9_7F4A_7C15u64 ^ (client as u64) << 17 }
    }

    fn pick(&mut self, m: u64) -> u64 {
        self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.rng >> 33) % m.max(1)
    }

    /// The next batch for a list of `len` vertices.
    pub fn batch(&mut self, len: usize) -> [Edit; 3] {
        let len = len as u64;
        let a = self.pick(len) as u32;
        let mut b = self.pick(len) as u32;
        if b == a {
            b = (a + 1) % len as u32;
        }
        let after = if self.pick(8) == 0 { None } else { Some(b) };
        [
            Edit::Splice { first: a, last: a, after },
            Edit::Delete { v: self.pick(len) as u32 },
            Edit::Append { count: 1 + self.pick(8) as u32 },
        ]
    }
}

/// The rest of the first dashboard line that starts with `prefix`;
/// panics, showing the dashboard, if no line does.
pub fn line_after<'a>(dash: &'a str, prefix: &str) -> &'a str {
    dash.lines()
        .find_map(|line| line.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no line starts with {prefix:?} in\n{dash}"))
}

/// The count that opens `text`, if `suffix` follows it:
/// `count_then("12 batches (36 edits)", " batches")` is `Some(12)`.
pub fn count_then(text: &str, suffix: &str) -> Option<u64> {
    let rest = text.trim_start_matches(|c: char| c.is_ascii_digit());
    let digits = &text[..text.len() - rest.len()];
    if rest.starts_with(suffix) {
        digits.parse().ok()
    } else {
        None
    }
}

/// The sample count of `row` in the dashboard's latency table under
/// `heading`; 0 if the table has no such row.
pub fn table_samples(dash: &str, heading: &str, row: &str) -> u64 {
    dash.lines()
        .skip_while(|line| *line != heading)
        .skip(1)
        .take_while(|line| line.starts_with(' '))
        .find_map(|line| {
            let mut cells = line.split_whitespace();
            if cells.next() == Some(row) {
                cells.next()?.parse().ok()
            } else {
                None
            }
        })
        .unwrap_or(0)
}
