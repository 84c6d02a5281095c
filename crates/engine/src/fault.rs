//! Deterministic fault injection for resilience testing.
//!
//! A [`FaultPlane`] is a seeded source of *injected* failures that the
//! serving stack consults at four points: socket reads/writes (I/O
//! errors, artificial delays, short writes), worker job execution
//! (panics), and store admission (transient rejections). It exists so
//! the chaos harness (`examples/chaos_soak.rs`) and the CI chaos smoke
//! job can drive the daemon through real failure paths — panic
//! isolation, client retry, typed overload — on demand and
//! *reproducibly*: every decision is a pure function of the seed and a
//! global decision counter, so a given spec replays the same fault
//! pattern run after run (modulo thread interleaving of the counter).
//!
//! The plane is **off by default and zero-cost when disabled**: every
//! decision method starts with one branch on a plain `bool` and touches
//! no atomics when the plane is disabled.
//!
//! Specs are parsed from the `--fault` CLI flag / `RANKD_FAULT`
//! environment variable:
//!
//! ```text
//! io_err=0.01,delay=5ms@0.05,short_write=0.02,exec_panic=0.001
//! ```
//!
//! Each `key=rate` sets a per-decision probability in `[0, 1]`;
//! `delay` takes `DURATION@rate`. The keyword `default` selects the
//! rates above. This module also carries the pure deadline arithmetic
//! helper ([`deadline_expired`]) shared by the worker loop and the
//! proptest suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Parsed fault-injection rates (probabilities in `[0, 1]`), plus the
/// deterministic seed. Construct via [`FaultConfig::parse`] or
/// [`FaultConfig::default_rates`]; `FaultConfig::default()` is
/// all-zero (nothing injected).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that a socket read or write fails with an injected
    /// I/O error (the connection is dropped, as a real peer failure
    /// would).
    pub io_err: f64,
    /// Injected latency before a socket operation: `(duration, rate)`.
    pub delay: Duration,
    /// Probability of injecting [`FaultConfig::delay`].
    pub delay_rate: f64,
    /// Probability that a reply write is cut short mid-frame (the
    /// connection is closed after a partial write, so the client sees
    /// a truncated frame / EOF).
    pub short_write: f64,
    /// Probability that a job's execution panics inside the worker
    /// (exercises `catch_unwind` isolation and the typed
    /// `internal_error` reply).
    pub exec_panic: f64,
    /// Probability that a worker panics *outside* per-job execution,
    /// after a job completes (exercises the worker respawn wrapper).
    pub worker_panic: f64,
    /// Probability that a store admission (PUT) is rejected with a
    /// transient typed `overloaded` error.
    pub store_err: f64,
    /// Seed for the deterministic decision stream.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            io_err: 0.0,
            delay: Duration::ZERO,
            delay_rate: 0.0,
            short_write: 0.0,
            exec_panic: 0.0,
            worker_panic: 0.0,
            store_err: 0.0,
            seed: 0xC90_FA17,
        }
    }
}

impl FaultConfig {
    /// The documented default chaos rates — what `--fault default`
    /// selects: `io_err=0.01,delay=5ms@0.05,short_write=0.02,`
    /// `exec_panic=0.001,store_err=0.01`.
    pub fn default_rates() -> Self {
        FaultConfig {
            io_err: 0.01,
            delay: Duration::from_millis(5),
            delay_rate: 0.05,
            short_write: 0.02,
            exec_panic: 0.001,
            worker_panic: 0.0,
            store_err: 0.01,
            ..FaultConfig::default()
        }
    }

    /// Parse a `--fault` / `RANKD_FAULT` spec string.
    ///
    /// Grammar: comma-separated `key=value` entries. Keys: `io_err`,
    /// `short_write`, `exec_panic`, `worker_panic`, `store_err` (all
    /// `rate` in `[0,1]`), `delay` (`DURATION@rate`, duration with
    /// `s`/`ms`/`us` suffix, bare numbers are ms), `seed` (u64). The
    /// bare keyword `default` selects [`FaultConfig::default_rates`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "default" || spec == "defaults" {
            return Ok(Self::default_rates());
        }
        let mut cfg = FaultConfig::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?}: want key=value"))?;
            match key.trim() {
                "io_err" => cfg.io_err = parse_rate(value)?,
                "short_write" => cfg.short_write = parse_rate(value)?,
                "exec_panic" => cfg.exec_panic = parse_rate(value)?,
                "worker_panic" => cfg.worker_panic = parse_rate(value)?,
                "store_err" => cfg.store_err = parse_rate(value)?,
                "delay" => {
                    let (dur, rate) = value
                        .split_once('@')
                        .ok_or_else(|| format!("fault delay {value:?}: want DURATION@rate"))?;
                    cfg.delay = parse_duration(dur)?;
                    cfg.delay_rate = parse_rate(rate)?;
                }
                "seed" => {
                    cfg.seed =
                        value.trim().parse().map_err(|e| format!("fault seed {value:?}: {e}"))?;
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        Ok(cfg)
    }

    /// Whether any injection is actually configured.
    pub fn any_enabled(&self) -> bool {
        self.io_err > 0.0
            || self.delay_rate > 0.0
            || self.short_write > 0.0
            || self.exec_panic > 0.0
            || self.worker_panic > 0.0
            || self.store_err > 0.0
    }
}

fn parse_rate(s: &str) -> Result<f64, String> {
    let rate: f64 = s.trim().parse().map_err(|e| format!("fault rate {s:?}: {e}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("fault rate {s:?}: must be in [0, 1]"));
    }
    Ok(rate)
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (digits, scale_ns) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1_000_000u64)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1_000u64)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1_000_000_000u64)
    } else {
        (s, 1_000_000u64) // bare numbers are milliseconds
    };
    let n: u64 = digits.trim().parse().map_err(|e| format!("fault duration {s:?}: {e}"))?;
    Ok(Duration::from_nanos(n.saturating_mul(scale_ns)))
}

/// SplitMix64: the decision stream's mixing function. Full-period,
/// stateless, good enough avalanche that per-rate thresholds behave
/// like independent coin flips. Also the client retry policy's
/// deterministic jitter source.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scale a probability to a 53-bit threshold (f64's exact integer
/// range) for comparison against the top 53 bits of a mixed draw.
fn threshold(rate: f64) -> u64 {
    (rate.clamp(0.0, 1.0) * (1u64 << 53) as f64) as u64
}

/// Counts of injected faults, by kind. Snapshot of a live
/// [`FaultPlane`]; feeds the STATS_V2 fault/resilience gauge block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Socket reads/writes failed by injection.
    pub io_errors: u64,
    /// Artificial socket delays injected.
    pub delays: u64,
    /// Reply writes cut short by injection.
    pub short_writes: u64,
    /// Worker executions panicked by injection.
    pub exec_panics: u64,
    /// Store admissions rejected by injection.
    pub store_errors: u64,
}

impl FaultSnapshot {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.io_errors + self.delays + self.short_writes + self.exec_panics + self.store_errors
    }
}

/// The live fault-injection plane: seeded deterministic decisions plus
/// injected-fault counters. One plane is shared by the server (socket
/// and store injection points) and the engine (worker injection
/// points); [`FaultPlane::disabled`] is the default everywhere and
/// costs one branch per decision.
pub struct FaultPlane {
    enabled: bool,
    seed: u64,
    io_err: u64,
    delay_rate: u64,
    delay: Duration,
    short_write: u64,
    exec_panic: u64,
    worker_panic: u64,
    store_err: u64,
    /// Global decision counter: each decision consumes one draw.
    draws: AtomicU64,
    io_errors: AtomicU64,
    delays: AtomicU64,
    short_writes: AtomicU64,
    exec_panics: AtomicU64,
    store_errors: AtomicU64,
}

impl std::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.enabled {
            return f.write_str("FaultPlane(disabled)");
        }
        write!(f, "FaultPlane(seed = {:#x}, injected = {})", self.seed, self.snapshot().total())
    }
}

impl Default for FaultPlane {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultPlane {
    /// A plane that never injects anything (the default). Decisions
    /// are a single branch; no atomics are touched.
    pub fn disabled() -> Self {
        Self::build(FaultConfig::default(), false)
    }

    /// A plane driven by `config`. If the config has every rate at
    /// zero the plane is constructed disabled.
    pub fn new(config: FaultConfig) -> Self {
        let enabled = config.any_enabled();
        Self::build(config, enabled)
    }

    fn build(config: FaultConfig, enabled: bool) -> Self {
        FaultPlane {
            enabled,
            seed: config.seed,
            io_err: threshold(config.io_err),
            delay_rate: threshold(config.delay_rate),
            delay: config.delay,
            short_write: threshold(config.short_write),
            exec_panic: threshold(config.exec_panic),
            worker_panic: threshold(config.worker_panic),
            store_err: threshold(config.store_err),
            draws: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
            exec_panics: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
        }
    }

    /// Whether any injection is configured. When `false`, every
    /// decision method returns its "no fault" answer after one branch.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// One deterministic draw against a 53-bit threshold. `salt`
    /// separates the decision kinds so each kind sees an independent
    /// stream for the same seed.
    fn decide(&self, salt: u64, cutoff: u64) -> bool {
        if cutoff == 0 {
            return false;
        }
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        (splitmix64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n) >> 11) < cutoff
    }

    /// Should this socket read/write fail with an injected I/O error?
    pub fn io_error(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let hit = self.decide(1, self.io_err);
        if hit {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The artificial delay to sleep before this socket operation, if
    /// one was drawn.
    pub fn delay(&self) -> Option<Duration> {
        if !self.enabled {
            return None;
        }
        if self.decide(2, self.delay_rate) {
            self.delays.fetch_add(1, Ordering::Relaxed);
            Some(self.delay)
        } else {
            None
        }
    }

    /// Should this reply write be cut short mid-frame?
    pub fn short_write(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let hit = self.decide(3, self.short_write);
        if hit {
            self.short_writes.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should this job's execution panic inside the worker?
    pub fn exec_panic(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let hit = self.decide(4, self.exec_panic);
        if hit {
            self.exec_panics.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should the worker panic outside per-job execution (after the
    /// current job completed)? Exercises the respawn wrapper; not
    /// counted as an exec panic because no job result is lost.
    pub fn worker_panic(&self) -> bool {
        if !self.enabled {
            return false;
        }
        self.decide(5, self.worker_panic)
    }

    /// Should this store admission be rejected with a transient typed
    /// error?
    pub fn store_error(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let hit = self.decide(6, self.store_err);
        if hit {
            self.store_errors.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Snapshot the injected-fault counters.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            io_errors: self.io_errors.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            exec_panics: self.exec_panics.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
        }
    }
}

/// Whether a job that has waited `waited` in the queue has blown a
/// `deadline_ms` millisecond deadline. Pure and overflow-free: the
/// comparison is done in `u128` milliseconds, so `deadline_ms ==
/// u64::MAX` (and any elapsed time) cannot overflow — a deadline of
/// `u64::MAX` ms (~584 million years) never expires in practice.
pub fn deadline_expired(waited: Duration, deadline_ms: u64) -> bool {
    waited.as_millis() >= u128::from(deadline_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_injects_nothing() {
        let plane = FaultPlane::disabled();
        for _ in 0..10_000 {
            assert!(!plane.io_error());
            assert!(plane.delay().is_none());
            assert!(!plane.short_write());
            assert!(!plane.exec_panic());
            assert!(!plane.store_error());
        }
        assert_eq!(plane.snapshot(), FaultSnapshot::default());
    }

    #[test]
    fn rates_are_roughly_honored_and_counted() {
        let cfg = FaultConfig { io_err: 0.25, seed: 7, ..FaultConfig::default() };
        let plane = FaultPlane::new(cfg);
        let hits = (0..40_000).filter(|_| plane.io_error()).count();
        // 10k expected; a 25% band around it is far beyond 6 sigma.
        assert!((7_500..=12_500).contains(&hits), "got {hits} hits at rate 0.25");
        assert_eq!(plane.snapshot().io_errors, hits as u64);
    }

    #[test]
    fn same_seed_same_decision_stream() {
        let cfg = FaultConfig::parse("io_err=0.1,seed=42").expect("parse");
        let a = FaultPlane::new(cfg);
        let b = FaultPlane::new(cfg);
        let stream_a: Vec<bool> = (0..512).map(|_| a.io_error()).collect();
        let stream_b: Vec<bool> = (0..512).map(|_| b.io_error()).collect();
        assert_eq!(stream_a, stream_b);
        let c = FaultPlane::new(FaultConfig::parse("io_err=0.1,seed=43").expect("parse"));
        let stream_c: Vec<bool> = (0..512).map(|_| c.io_error()).collect();
        assert_ne!(stream_a, stream_c, "a different seed draws a different stream");
    }

    #[test]
    fn spec_parsing_round_trips_the_documented_example() {
        let cfg =
            FaultConfig::parse("io_err=0.01,delay=5ms@0.05,short_write=0.02,exec_panic=0.001")
                .expect("documented spec parses");
        assert_eq!(cfg.io_err, 0.01);
        assert_eq!(cfg.delay, Duration::from_millis(5));
        assert_eq!(cfg.delay_rate, 0.05);
        assert_eq!(cfg.short_write, 0.02);
        assert_eq!(cfg.exec_panic, 0.001);
        assert_eq!(FaultConfig::parse("default").expect("keyword"), FaultConfig::default_rates());
        assert!(FaultConfig::parse("io_err=2.0").is_err(), "rates above 1 rejected");
        assert!(FaultConfig::parse("bogus=0.1").is_err(), "unknown keys rejected");
        assert!(FaultConfig::parse("delay=5ms").is_err(), "delay needs @rate");
        let us = FaultConfig::parse("delay=250us@1.0").expect("us suffix");
        assert_eq!(us.delay, Duration::from_micros(250));
        let secs = FaultConfig::parse("delay=2s@0.5").expect("s suffix");
        assert_eq!(secs.delay, Duration::from_secs(2));
    }

    #[test]
    fn deadline_arithmetic_is_saturating_at_the_extremes() {
        assert!(!deadline_expired(Duration::ZERO, 1));
        assert!(deadline_expired(Duration::ZERO, 0), "a zero deadline is already expired");
        assert!(deadline_expired(Duration::from_millis(5), 5));
        assert!(!deadline_expired(Duration::from_millis(4), 5));
        // No overflow at the extreme: u64::MAX ms compared in u128.
        assert!(!deadline_expired(Duration::from_secs(u64::MAX / 1_000_000), u64::MAX));
        assert!(deadline_expired(Duration::MAX, u64::MAX));
    }
}
