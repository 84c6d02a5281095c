//! A single vector processor: real data operations with cycle charging.
//!
//! Operations execute eagerly on Rust slices so that simulated algorithms
//! produce exact results; each call charges the [`CostProfile`] cost of
//! the corresponding C90 vector instruction sequence to the current
//! *region* (phase label). Strip-mining to the 128-element register
//! length is folded into the Hockney coefficients, as in the paper's own
//! loop timings.

use crate::config::MachineConfig;
use crate::cost::{CostProfile, Kernel, OpKind};
use crate::counter::CycleCounter;
use crate::cycles::Cycles;

/// A simulated vector processor.
#[derive(Clone, Debug)]
pub struct VectorProc {
    profile: CostProfile,
    counter: CycleCounter,
    region: &'static str,
    vlen: usize,
}

impl VectorProc {
    /// Processor with the machine's cost profile (no contention — that is
    /// applied by [`crate::multi::ParallelTimer`]).
    pub fn new(config: &MachineConfig) -> Self {
        Self::with_profile(CostProfile::c90(), config.vector_len)
    }

    /// Processor with an explicit profile (ablations).
    pub fn with_profile(profile: CostProfile, vlen: usize) -> Self {
        Self { profile, counter: CycleCounter::new(), region: "main", vlen }
    }

    /// Vector register length.
    #[inline]
    pub fn vlen(&self) -> usize {
        self.vlen
    }

    /// Number of strips needed for `n` elements.
    #[inline]
    pub fn strips(&self, n: usize) -> usize {
        n.div_ceil(self.vlen)
    }

    /// Set the region (phase label) subsequent charges go to.
    pub fn set_region(&mut self, region: &'static str) {
        self.region = region;
    }

    /// The cost profile in use.
    pub fn profile(&self) -> &CostProfile {
        &self.profile
    }

    /// The accumulated counter.
    pub fn counter(&self) -> &CycleCounter {
        &self.counter
    }

    /// Total cycles so far.
    pub fn elapsed(&self) -> Cycles {
        self.counter.total()
    }

    /// Consume the processor, returning its counter.
    pub fn into_counter(self) -> CycleCounter {
        self.counter
    }

    /// Charge a generic op over `x` elements (no data movement).
    #[inline]
    pub fn charge_op(&mut self, op: OpKind, x: usize) {
        let c = self.profile.op(op);
        self.counter.charge(self.region, c.at(x));
    }

    /// Charge a named kernel over `x` elements (no data movement).
    #[inline]
    pub fn charge_kernel(&mut self, k: Kernel, x: usize) {
        let c = self.profile.kernel(k);
        self.counter.charge(self.region, c.at(x));
    }

    // ------------------------------------------------------------------
    // Data-moving operations.
    // ------------------------------------------------------------------

    /// Gather: `out[i] = src[idx[i]]`.
    pub fn gather<T: Copy>(&mut self, src: &[T], idx: &[u32]) -> Vec<T> {
        self.charge_op(OpKind::Gather, idx.len());
        idx.iter().map(|&i| src[i as usize]).collect()
    }

    /// Scatter: `dst[idx[i]] = vals[i]`. Indices must be distinct (EREW);
    /// enforced in debug builds.
    pub fn scatter<T: Copy>(&mut self, dst: &mut [T], idx: &[u32], vals: &[T]) {
        assert_eq!(idx.len(), vals.len());
        self.charge_op(OpKind::Scatter, idx.len());
        #[cfg(debug_assertions)]
        {
            let mut seen = std::collections::HashSet::new();
            for &i in idx {
                assert!(seen.insert(i), "EREW violation: duplicate scatter index {i}");
            }
        }
        for (&i, &v) in idx.iter().zip(vals) {
            dst[i as usize] = v;
        }
    }

    /// Elementwise map.
    pub fn map<T: Copy, U>(&mut self, src: &[T], f: impl FnMut(T) -> U) -> Vec<U> {
        self.charge_op(OpKind::Elementwise, src.len());
        src.iter().copied().map(f).collect()
    }

    /// Elementwise zip-map of two equal-length vectors.
    pub fn zip_map<A: Copy, B: Copy, U>(
        &mut self,
        a: &[A],
        b: &[B],
        mut f: impl FnMut(A, B) -> U,
    ) -> Vec<U> {
        assert_eq!(a.len(), b.len());
        self.charge_op(OpKind::Elementwise, a.len());
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
    }

    /// In-place elementwise update.
    pub fn update<T: Copy>(&mut self, xs: &mut [T], mut f: impl FnMut(T) -> T) {
        self.charge_op(OpKind::Elementwise, xs.len());
        for x in xs {
            *x = f(*x);
        }
    }

    /// Compress ("pack"): keep elements whose flag is set, preserving
    /// order. The paper's load-balancing primitive.
    pub fn compress<T: Copy>(&mut self, data: &[T], keep: &[bool]) -> Vec<T> {
        assert_eq!(data.len(), keep.len());
        self.charge_op(OpKind::Compress, data.len());
        data.iter().zip(keep).filter_map(|(&d, &k)| if k { Some(d) } else { None }).collect()
    }

    /// Indices of set flags (iota + compress), used to pack many parallel
    /// arrays with one index vector.
    pub fn compress_indices(&mut self, keep: &[bool]) -> Vec<u32> {
        self.charge_op(OpKind::Iota, keep.len());
        self.charge_op(OpKind::Compress, keep.len());
        keep.iter()
            .enumerate()
            .filter_map(|(i, &k)| if k { Some(i as u32) } else { None })
            .collect()
    }

    /// Index vector `0..n`.
    pub fn iota(&mut self, n: usize) -> Vec<u32> {
        self.charge_op(OpKind::Iota, n);
        (0..n as u32).collect()
    }

    /// Constant-fill a vector.
    pub fn fill<T: Copy>(&mut self, n: usize, v: T) -> Vec<T> {
        self.charge_op(OpKind::Store, n);
        vec![v; n]
    }

    /// Sum-reduce.
    pub fn reduce_sum(&mut self, xs: &[i64]) -> i64 {
        self.charge_op(OpKind::Reduce, xs.len());
        xs.iter().sum()
    }

    /// Count set flags (population count reduce).
    pub fn reduce_count(&mut self, flags: &[bool]) -> usize {
        self.charge_op(OpKind::Reduce, flags.len());
        flags.iter().filter(|&&b| b).count()
    }

    /// Elementwise comparison producing a mask.
    pub fn compare<T: Copy>(
        &mut self,
        a: &[T],
        b: &[T],
        mut f: impl FnMut(T, T) -> bool,
    ) -> Vec<bool> {
        assert_eq!(a.len(), b.len());
        self.charge_op(OpKind::Compare, a.len());
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
    }

    /// Masked select: `out[i] = if mask[i] { a[i] } else { b[i] }`.
    pub fn select<T: Copy>(&mut self, mask: &[bool], a: &[T], b: &[T]) -> Vec<T> {
        assert_eq!(mask.len(), a.len());
        assert_eq!(mask.len(), b.len());
        self.charge_op(OpKind::Select, mask.len());
        mask.iter().zip(a.iter().zip(b)).map(|(&m, (&x, &y))| if m { x } else { y }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> VectorProc {
        VectorProc::new(&MachineConfig::c90(1))
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut p = proc();
        let src = vec![10i64, 20, 30, 40];
        let idx = vec![3u32, 0, 2];
        let g = p.gather(&src, &idx);
        assert_eq!(g, vec![40, 10, 30]);
        let mut dst = vec![0i64; 4];
        p.scatter(&mut dst, &idx, &g);
        assert_eq!(dst, vec![10, 0, 30, 40]);
        assert!(p.elapsed().get() > 0.0);
    }

    #[test]
    #[cfg(debug_assertions)] // the check compiles out of release builds
    #[should_panic(expected = "EREW")]
    fn scatter_rejects_duplicate_indices_in_debug() {
        let mut p = proc();
        let mut dst = vec![0i64; 4];
        p.scatter(&mut dst, &[1, 1], &[5, 6]);
    }

    #[test]
    fn compress_keeps_order() {
        let mut p = proc();
        let data = vec![1, 2, 3, 4, 5];
        let keep = vec![true, false, true, false, true];
        assert_eq!(p.compress(&data, &keep), vec![1, 3, 5]);
        assert_eq!(p.compress_indices(&keep), vec![0, 2, 4]);
    }

    #[test]
    fn costs_follow_hockney_model() {
        let mut p = proc();
        let src = vec![0i64; 1000];
        let idx: Vec<u32> = (0..1000).collect();
        let before = p.elapsed().get();
        let _ = p.gather(&src, &idx);
        let after = p.elapsed().get();
        let c = p.profile().op(OpKind::Gather);
        assert!((after - before - c.at(1000)).abs() < 1e-9);
    }

    #[test]
    fn regions_route_charges() {
        let mut p = proc();
        p.set_region("phase1");
        let _ = p.iota(10);
        p.set_region("phase3");
        let _ = p.iota(10);
        assert!(p.counter().region("phase1").get() > 0.0);
        assert!(p.counter().region("phase3").get() > 0.0);
        assert_eq!(p.counter().region("phase1").get(), p.counter().region("phase3").get());
    }

    #[test]
    fn kernel_charges() {
        let mut p = proc();
        p.charge_kernel(Kernel::InitialScan, 100);
        assert!((p.elapsed().get() - (3.4 * 100.0 + 35.0)).abs() < 1e-9);
    }

    #[test]
    fn elementwise_ops() {
        let mut p = proc();
        let xs = vec![1i64, 2, 3];
        assert_eq!(p.map(&xs, |x| x * 2), vec![2, 4, 6]);
        assert_eq!(p.zip_map(&xs, &xs, |a, b| a + b), vec![2, 4, 6]);
        let mut ys = xs.clone();
        p.update(&mut ys, |x| x + 1);
        assert_eq!(ys, vec![2, 3, 4]);
        assert_eq!(p.reduce_sum(&xs), 6);
        assert_eq!(p.reduce_count(&[true, false, true]), 2);
        let mask = p.compare(&xs, &[2i64, 2, 2], |a, b| a > b);
        assert_eq!(mask, vec![false, false, true]);
        assert_eq!(p.select(&mask, &[9i64, 9, 9], &xs), vec![1, 2, 9]);
        assert_eq!(p.fill(3, 7u8), vec![7, 7, 7]);
    }

    #[test]
    fn strips_round_up() {
        let p = proc();
        assert_eq!(p.strips(1), 1);
        assert_eq!(p.strips(128), 1);
        assert_eq!(p.strips(129), 2);
        assert_eq!(p.strips(0), 0);
    }
}
