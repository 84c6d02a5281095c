//! A real `rankd serve` child process with its default configuration.
//!
//! The only flags passed are the listener addresses: a Unix socket in
//! the run's directory and, for TCP workloads, `--tcp 127.0.0.1:0`.
//! Everything else — workers, inner threads, queue, store budget,
//! quotas, telemetry — is the daemon's default, and no fault plane is
//! armed. Dropping a [`Daemon`] kills and reaps the child, so an early
//! return on a failed check never leaves a daemon behind.

use engine::Client;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to bind, and to exit after SHUTDOWN.
const START_TIMEOUT: Duration = Duration::from_secs(30);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `rankd serve`.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    tcp: Option<String>,
    log: PathBuf,
}

impl Daemon {
    /// Spawn `rankd serve` with its socket and log in `dir`, and wait
    /// until it listens.
    pub fn start(rankd: &Path, dir: &Path, tcp: bool) -> Result<Daemon, String> {
        let socket = dir.join("rankd.sock");
        let log = dir.join("rankd.log");
        let _ = std::fs::remove_file(&socket);
        let out =
            std::fs::File::create(&log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| format!("dup log handle: {e}"))?;
        let mut cmd = Command::new(rankd);
        cmd.arg("serve").arg("--socket").arg(&socket);
        if tcp {
            cmd.args(["--tcp", "127.0.0.1:0"]);
        }
        cmd.stdin(Stdio::null()).stdout(out).stderr(err);
        let child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", rankd.display()))?;
        let mut daemon = Daemon { child: Some(child), socket, tcp: None, log };
        daemon.wait_listening(tcp)?;
        Ok(daemon)
    }

    /// Poll the daemon's log for its `listening on` line (and the TCP
    /// address it picked), failing fast if the child exits.
    fn wait_listening(&mut self, tcp: bool) -> Result<(), String> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(&self.log).unwrap_or_default();
            if tcp && self.tcp.is_none() {
                self.tcp = text
                    .lines()
                    .find_map(|l| l.strip_prefix("rankd serve: tcp listening on "))
                    .map(|a| a.trim().to_string());
            }
            if text.contains("rankd serve: listening on") && (!tcp || self.tcp.is_some()) {
                return Ok(());
            }
            if let Some(status) = self.child_mut()?.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("rankd exited during start-up ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err("rankd did not start listening in time".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn child_mut(&mut self) -> Result<&mut Child, String> {
        self.child.as_mut().ok_or_else(|| "daemon already stopped".to_string())
    }

    /// Open a Unix-socket client.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// Open a TCP client.
    pub fn connect_tcp(&self) -> Result<Client, String> {
        let addr = self.tcp.clone().ok_or_else(|| "daemon has no TCP listener".to_string())?;
        Client::connect_tcp(addr).map_err(|e| format!("connect tcp: {e}"))
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().ok_or("daemon already stopped")?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read daemon status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line in the daemon's status")?;
        Ok(kb / 1024.0)
    }

    /// Send SHUTDOWN and wait for the daemon to drain and exit.
    pub fn stop(mut self) -> Result<(), String> {
        let shutdown = self.connect().and_then(|c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + STOP_TIMEOUT;
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                shutdown.map_err(|e| format!("shutdown: {e}"))?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("rankd exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("rankd did not exit after SHUTDOWN".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
