//! Unified dispatch over the five algorithms and two backends.

use crate::host;
use crate::sim;
use crate::sim::machine::SimRun;
use crate::tuning::SimParams;
use listkit::{LinkedList, ScanOp};
use vmach::MachineConfig;

/// The five list-ranking/list-scan algorithms the paper implements (§2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Pointer-chasing serial traversal (§2.1).
    Serial,
    /// Wyllie's pointer jumping (§2.2): `O(log n)` time, `O(n log n)`
    /// work.
    Wyllie,
    /// Miller–Reif random mate with per-round packing (§2.3).
    MillerReif,
    /// Anderson–Miller random mate with queues and a biased coin (§2.4).
    AndersonMiller,
    /// The paper's sublist algorithm (§2.5): work-efficient, small
    /// constants.
    ReidMiller,
}

impl Algorithm {
    /// All five, in the paper's presentation order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Serial,
        Algorithm::Wyllie,
        Algorithm::MillerReif,
        Algorithm::AndersonMiller,
        Algorithm::ReidMiller,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Serial => "serial",
            Algorithm::Wyllie => "wyllie",
            Algorithm::MillerReif => "miller-reif",
            Algorithm::AndersonMiller => "anderson-miller",
            Algorithm::ReidMiller => "reid-miller",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs algorithms on the **host backend** (rayon, real parallelism).
#[derive(Clone, Copy, Debug)]
pub struct HostRunner {
    /// Which algorithm.
    pub algorithm: Algorithm,
    /// RNG seed (randomized algorithms).
    pub seed: u64,
    /// Worker threads (`None` = the ambient rayon pool).
    pub threads: Option<usize>,
    /// Reid-Miller split count override.
    pub m: Option<usize>,
    /// Reid-Miller interleaved-lane override (`None` = the backend's
    /// default; see [`listkit::walk`]).
    pub lanes: Option<usize>,
}

impl HostRunner {
    /// A runner with default settings.
    pub fn new(algorithm: Algorithm) -> Self {
        Self { algorithm, seed: 0x1994, threads: None, m: None, lanes: None }
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run on a dedicated pool of `t` threads (speedup experiments).
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = Some(t);
        self
    }

    /// Override Reid-Miller's split count.
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }

    /// Override Reid-Miller's interleaved-lane count.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes.max(1));
        self
    }

    /// The configured Reid-Miller backend (seed, `m`, lanes applied).
    fn reid_miller(&self) -> host::ReidMiller {
        let mut rm = host::ReidMiller::new(self.seed);
        rm.m = self.m;
        if let Some(lanes) = self.lanes {
            rm.lanes = lanes.max(1);
        }
        rm
    }

    fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match self.threads {
            None => f(),
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("thread pool construction")
                .install(f),
        }
    }

    /// List ranking.
    pub fn rank(&self, list: &LinkedList) -> Vec<u64> {
        self.install(|| match self.algorithm {
            Algorithm::Serial => host::serial::rank(list),
            Algorithm::Wyllie => host::Wyllie.rank(list),
            Algorithm::MillerReif => host::MillerReif::new(self.seed).rank(list),
            Algorithm::AndersonMiller => host::AndersonMiller::new(self.seed).rank(list),
            Algorithm::ReidMiller => self.reid_miller().rank(list),
        })
    }

    /// List ranking into caller-provided buffers — the no-alloc entry
    /// point batch executors drive with pooled memory. Output is
    /// byte-identical to [`Self::rank`] for the same configuration.
    /// Serial and Reid-Miller reuse `scratch`/`out` allocations fully;
    /// the other algorithms compute normally and move their result into
    /// `out` (their per-round buffers resist pooling).
    pub fn rank_into(
        &self,
        list: &LinkedList,
        scratch: &mut host::RankScratch,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        out.resize(list.len(), 0);
        self.rank_mapped(list, scratch, out, |r| r);
    }

    /// List ranking through an output sink: `out[v] = map(rank of v)`
    /// for every vertex, `out` holding one initialized slot per vertex.
    /// Serial and Reid-Miller write each slot once, straight from their
    /// final pass — into a reply frame's payload viewed as
    /// little-endian words, say; the other algorithms compute their
    /// result and map it over.
    pub fn rank_mapped<O: Send>(
        &self,
        list: &LinkedList,
        scratch: &mut host::RankScratch,
        out: &mut [O],
        map: impl Fn(u64) -> O + Sync,
    ) {
        let map = &map;
        self.install(|| match self.algorithm {
            Algorithm::Serial => listkit::serial::rank_mapped(list, out, map),
            Algorithm::ReidMiller => self.reid_miller().rank_mapped(list, scratch, out, map),
            Algorithm::Wyllie => map_over(host::Wyllie.rank(list), out, map),
            Algorithm::MillerReif => {
                map_over(host::MillerReif::new(self.seed).rank(list), out, map)
            }
            Algorithm::AndersonMiller => {
                map_over(host::AndersonMiller::new(self.seed).rank(list), out, map)
            }
        })
    }

    /// Exclusive list scan into caller-provided buffers (see
    /// [`Self::rank_into`]).
    pub fn scan_into<T, Op>(
        &self,
        list: &LinkedList,
        values: &[T],
        op: &Op,
        scratch: &mut host::RankScratch,
        out: &mut Vec<T>,
    ) where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        out.clear();
        out.resize(list.len(), op.identity());
        self.scan_mapped(list, values, op, scratch, out, |x| x);
    }

    /// Exclusive list scan through an output sink (see
    /// [`Self::rank_mapped`]).
    pub fn scan_mapped<T, Op, O>(
        &self,
        list: &LinkedList,
        values: &[T],
        op: &Op,
        scratch: &mut host::RankScratch,
        out: &mut [O],
        map: impl Fn(T) -> O + Sync,
    ) where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
        O: Send,
    {
        let map = &map;
        self.install(|| match self.algorithm {
            Algorithm::Serial => listkit::serial::scan_mapped(list, values, op, out, map),
            Algorithm::ReidMiller => {
                self.reid_miller().scan_mapped(list, values, op, scratch, out, map)
            }
            Algorithm::Wyllie => map_over(host::Wyllie.scan(list, values, op), out, map),
            Algorithm::MillerReif => {
                map_over(host::MillerReif::new(self.seed).scan(list, values, op), out, map)
            }
            Algorithm::AndersonMiller => {
                map_over(host::AndersonMiller::new(self.seed).scan(list, values, op), out, map)
            }
        })
    }

    /// Exclusive list scan.
    pub fn scan<T, Op>(&self, list: &LinkedList, values: &[T], op: &Op) -> Vec<T>
    where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        self.install(|| match self.algorithm {
            Algorithm::Serial => host::serial::scan(list, values, op),
            Algorithm::Wyllie => host::Wyllie.scan(list, values, op),
            Algorithm::MillerReif => host::MillerReif::new(self.seed).scan(list, values, op),
            Algorithm::AndersonMiller => {
                host::AndersonMiller::new(self.seed).scan(list, values, op)
            }
            Algorithm::ReidMiller => self.reid_miller().scan(list, values, op),
        })
    }
}

/// Map a computed result into an output sink, slot for slot.
fn map_over<T, O>(result: Vec<T>, out: &mut [O], map: impl Fn(T) -> O) {
    assert_eq!(out.len(), result.len(), "output length mismatch");
    for (o, x) in out.iter_mut().zip(result) {
        *o = map(x);
    }
}

/// Runs algorithms on the **simulated Cray C90** with cycle accounting.
#[derive(Clone, Debug)]
pub struct SimRunner {
    /// Which algorithm.
    pub algorithm: Algorithm,
    /// Machine configuration (processor count, contention, clock).
    pub machine: MachineConfig,
    /// RNG seed (randomized algorithms).
    pub seed: u64,
    /// Reid-Miller parameter override (`None` = model-tuned).
    pub params: Option<SimParams>,
    /// Anderson–Miller tunables.
    pub am: sim::anderson_miller::AmParams,
}

impl SimRunner {
    /// A runner on a `procs`-CPU C90.
    pub fn new(algorithm: Algorithm, procs: usize) -> Self {
        Self {
            algorithm,
            machine: MachineConfig::c90(procs),
            seed: 0x1994,
            params: None,
            am: sim::anderson_miller::AmParams::default(),
        }
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fix Reid-Miller's parameters (ablations).
    pub fn with_params(mut self, params: SimParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Override the Anderson–Miller tunables.
    pub fn with_am(mut self, am: sim::anderson_miller::AmParams) -> Self {
        self.am = am;
        self
    }

    /// List ranking with cycle accounting.
    pub fn rank(&self, list: &LinkedList) -> SimRun<u64> {
        let cfg = self.machine.clone();
        match self.algorithm {
            Algorithm::Serial => sim::serial::rank(list, cfg),
            Algorithm::Wyllie => sim::wyllie::rank(list, cfg),
            Algorithm::MillerReif => sim::miller_reif::rank(list, cfg, self.seed),
            Algorithm::AndersonMiller => sim::anderson_miller::rank(list, cfg, self.am, self.seed),
            Algorithm::ReidMiller => {
                let params = self
                    .params
                    .clone()
                    .unwrap_or_else(|| SimParams::tuned_rank(list.len(), cfg.n_procs));
                sim::ReidMillerSim { params, seed: self.seed }.rank(list, cfg)
            }
        }
    }

    /// Exclusive list scan with cycle accounting.
    pub fn scan<T, Op>(&self, list: &LinkedList, values: &[T], op: &Op) -> SimRun<T>
    where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        let cfg = self.machine.clone();
        match self.algorithm {
            Algorithm::Serial => sim::serial::scan(list, values, op, cfg),
            Algorithm::Wyllie => sim::wyllie::scan(list, values, op, cfg),
            Algorithm::MillerReif => sim::miller_reif::scan(list, values, op, cfg, self.seed),
            Algorithm::AndersonMiller => {
                sim::anderson_miller::scan(list, values, op, cfg, self.am, self.seed)
            }
            Algorithm::ReidMiller => {
                let params = self
                    .params
                    .clone()
                    .unwrap_or_else(|| SimParams::tuned_scan(list.len(), cfg.n_procs));
                sim::ReidMillerSim { params, seed: self.seed }.scan(list, values, op, cfg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use listkit::gen;
    use listkit::ops::AddOp;

    #[test]
    fn every_host_algorithm_agrees_with_serial() {
        let list = gen::random_list(5000, 17);
        let reference = listkit::serial::rank(&list);
        for alg in Algorithm::ALL {
            assert_eq!(HostRunner::new(alg).rank(&list), reference, "{alg}");
        }
    }

    #[test]
    fn every_sim_algorithm_agrees_with_serial() {
        let list = gen::random_list(5000, 18);
        let reference = listkit::serial::rank(&list);
        for alg in Algorithm::ALL {
            let run = SimRunner::new(alg, 2).rank(&list);
            assert_eq!(run.out, reference, "{alg}");
            assert!(run.cycles.get() > 0.0, "{alg} must charge cycles");
        }
    }

    #[test]
    fn scan_dispatch_all_algorithms() {
        let list = gen::random_list(3000, 19);
        let vals: Vec<i64> = (0..3000).map(|i| (i as i64 % 13) - 6).collect();
        let reference = listkit::serial::scan(&list, &vals, &AddOp);
        for alg in Algorithm::ALL {
            assert_eq!(HostRunner::new(alg).scan(&list, &vals, &AddOp), reference, "{alg}");
            assert_eq!(SimRunner::new(alg, 1).scan(&list, &vals, &AddOp).out, reference, "{alg}");
        }
    }

    #[test]
    fn mapped_sinks_match_the_vec_entries_for_every_algorithm() {
        // The wire sink: little-endian words written straight into a
        // byte region, byte-identical to encoding the typed result.
        let list = gen::random_list(12_000, 21);
        let vals: Vec<i64> = (0..12_000).map(|i| (i as i64 % 29) - 14).collect();
        let ranks: Vec<[u8; 8]> =
            listkit::serial::rank(&list).into_iter().map(u64::to_le_bytes).collect();
        let scans: Vec<[u8; 8]> =
            listkit::serial::scan(&list, &vals, &AddOp).into_iter().map(i64::to_le_bytes).collect();
        let mut scratch = host::RankScratch::new();
        for alg in Algorithm::ALL {
            let runner = HostRunner::new(alg).with_threads(2);
            let mut out = vec![[0u8; 8]; list.len()];
            runner.rank_mapped(&list, &mut scratch, &mut out, u64::to_le_bytes);
            assert_eq!(out, ranks, "{alg} rank");
            runner.scan_mapped(&list, &vals, &AddOp, &mut scratch, &mut out, i64::to_le_bytes);
            assert_eq!(out, scans, "{alg} scan");
        }
    }

    #[test]
    fn host_thread_override() {
        let list = gen::random_list(20_000, 20);
        let reference = listkit::serial::rank(&list);
        for t in [1usize, 2, 4] {
            let r = HostRunner::new(Algorithm::ReidMiller).with_threads(t).rank(&list);
            assert_eq!(r, reference, "threads = {t}");
        }
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Algorithm::ReidMiller.name(), "reid-miller");
        assert_eq!(format!("{}", Algorithm::Wyllie), "wyllie");
        assert_eq!(Algorithm::ALL.len(), 5);
    }
}
