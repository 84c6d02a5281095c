//! Offline shim for the `criterion` API surface used by this workspace.
//!
//! Benchmarks register through [`criterion_group!`] / [`criterion_main!`]
//! and measure with [`Bencher::iter`]. The shim does a fixed warm-up,
//! then times batches until it has a stable sample, and prints a
//! plain-text report (mean time per iteration, plus derived throughput
//! when [`BenchmarkGroup::throughput`] was set). No statistics machinery,
//! no HTML — enough to compare configurations locally and in CI logs.
//!
//! As with criterion, the first command-line argument that is not a
//! flag filters by substring: `cargo bench --bench b -- decode` runs
//! only the benchmarks whose `group/name` contains `decode` (a group
//! with none prints nothing). A group's setup code outside its
//! `bench_function` closures still runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
pub struct Criterion {
    target_time: Duration,
    /// Run only benchmarks whose full name contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // CRITERION_QUICK=1 shortens runs (used by CI smoke builds).
        let quick = std::env::var_os("CRITERION_QUICK").is_some();
        Criterion {
            target_time: Duration::from_millis(if quick { 50 } else { 400 }),
            // `cargo bench` passes `--bench` along with the user's words.
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), throughput: None, announced: false }
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        let id = id.into();
        if !self.selects(&id.0) {
            return;
        }
        let mut b = Bencher::new(self.target_time);
        f(&mut b);
        b.report(&id.0, None);
    }

    /// Whether the filter lets the benchmark named `label` run.
    fn selects(&self, label: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| label.contains(f))
    }
}

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// Just a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(format!("{parameter}"))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Units for derived throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A named group of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    /// Whether the group's heading is printed (at its first run).
    announced: bool,
}

impl BenchmarkGroup<'_> {
    /// Set the per-iteration throughput used in reports.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for API compatibility; the shim sizes samples by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.criterion.target_time = t;
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        self.run(id.into(), |b| f(b));
    }

    /// Run one benchmark with an explicit input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) {
        self.run(id.into(), |b| f(b, input));
    }

    /// Measure and report `f` as `group/id`, unless the filter skips it.
    fn run(&mut self, id: BenchmarkId, f: impl FnOnce(&mut Bencher)) {
        let label = format!("{}/{}", self.name, id.0);
        if !self.criterion.selects(&label) {
            return;
        }
        if !self.announced {
            println!("\n== {}", self.name);
            self.announced = true;
        }
        let mut b = Bencher::new(self.criterion.target_time);
        f(&mut b);
        b.report(&label, self.throughput);
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    target_time: Duration,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    fn new(target_time: Duration) -> Self {
        Bencher { target_time, iters: 0, elapsed: Duration::ZERO }
    }

    /// Measure `f`, called repeatedly until the sample is stable.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up + calibration: one untimed call.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));

        // Aim for the target time, capped to keep giant cases bounded.
        let iters = (self.target_time.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
        self.iters = iters;
    }

    fn report(&self, label: &str, throughput: Option<Throughput>) {
        if self.iters == 0 {
            println!("{label:<48} (no measurement)");
            return;
        }
        let per_iter = self.elapsed.as_secs_f64() / self.iters as f64;
        let time = format_time(per_iter);
        match throughput {
            Some(Throughput::Elements(n)) => {
                let rate = n as f64 / per_iter;
                println!("{label:<48} {time:>12}/iter  {:>14}/s", format_count(rate));
            }
            Some(Throughput::Bytes(n)) => {
                let rate = n as f64 / per_iter;
                println!("{label:<48} {time:>12}/iter  {:>12}B/s", format_count(rate));
            }
            None => println!("{label:<48} {time:>12}/iter  ({} iters)", self.iters),
        }
    }
}

fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn format_count(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2} G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2} M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2} k", x / 1e3)
    } else {
        format!("{x:.1}")
    }
}

/// Bundle benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names of the benchmarks that run under `filter`, out of two
    /// groups and a standalone one.
    fn ran(filter: Option<&str>) -> Vec<String> {
        let mut c = Criterion {
            target_time: Duration::from_micros(10),
            filter: filter.map(str::to_string),
        };
        let mut ran = Vec::new();
        for group in ["codec/decode", "codec/client"] {
            let mut g = c.benchmark_group(group);
            for name in ["staged", "one_copy"] {
                g.bench_function(name, |b| {
                    ran.push(format!("{group}/{name}"));
                    b.iter(|| 1)
                });
            }
            g.bench_with_input(BenchmarkId::new("input", 7), &7, |b, &i| {
                ran.push(format!("{group}/input/{i}"));
                b.iter(|| i)
            });
            g.finish();
        }
        c.bench_function("standalone", |b| {
            ran.push("standalone".to_string());
            b.iter(|| 1)
        });
        ran
    }

    #[test]
    fn a_filter_runs_only_the_benchmarks_whose_name_contains_it() {
        assert_eq!(ran(None).len(), 7, "no filter runs everything");
        assert_eq!(
            ran(Some("client")),
            ["codec/client/staged", "codec/client/one_copy", "codec/client/input/7"]
        );
        assert_eq!(ran(Some("one_copy")), ["codec/decode/one_copy", "codec/client/one_copy"]);
        assert_eq!(ran(Some("input/7")), ["codec/decode/input/7", "codec/client/input/7"]);
        assert_eq!(ran(Some("standalone")), ["standalone"]);
        assert!(ran(Some("nothing")).is_empty());
    }
}
