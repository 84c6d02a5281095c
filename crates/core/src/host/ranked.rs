//! Array scans along a ranked list.
//!
//! The paper's §2 gives the reason to rank a list at all: ranks
//! "reorder the vertices of a linked list into an array in one parallel
//! step". Once a list's ranks are kept, a list scan along it is an array
//! scan (Blelloch's scan primitive): scatter the values into position
//! order, run a blocked prefix over the array, and gather the prefixes
//! back into vertex order. No link is chased again.
//!
//! [`RankArray`] is such a kept rank, as `u32`s — half the bytes of the
//! `u64` ranks the kernels return. Its kernels take their buffers from
//! the caller, and read and write elements through `load`/`store`
//! closures, so a position-order buffer may be a typed `Vec<T>` or a
//! reply frame's payload viewed as little-endian words.
//!
//! The scatter is the one write whose disjointness Rust cannot see, so
//! it goes through the crate's `DisjointWriter`: every position is
//! written once because a rank array is a permutation of `0..n`. Its
//! fields are private and [`RankArray::build`], its only constructor,
//! asserts the permutation (an n-bit pass), so no safe caller can hand
//! the scatter a rank twice.

use crate::api::{Algorithm, HostRunner};
use crate::host::RankScratch;
use crate::util::DisjointWriter;
use listkit::{LinkedList, ScanOp};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Elements per parallel chunk below which a kernel runs inline: the
/// host's pool spawns its threads per operation, which costs more than
/// a pass over a list this short.
const PAR_MIN: usize = 1 << 15;

/// The ranks of one list, `ranks[v]` = position of vertex `v`, kept so
/// that later ranks are a widening copy and later scans are array scans.
#[derive(Debug)]
pub struct RankArray {
    ranks: Vec<u32>,
    algorithm: Algorithm,
}

impl RankArray {
    /// Rank `list` with `runner`, writing each rank as a `u32` straight
    /// from the kernel's final pass: the array is the build's one
    /// list-sized allocation, on huge pages ([`listkit::pages`]).
    ///
    /// # Panics
    /// If the kernel's ranks are not a permutation of `0..n`: the
    /// scatter's memory safety rests on it.
    pub fn build(runner: &HostRunner, list: &LinkedList, scratch: &mut RankScratch) -> Self {
        let mut ranks = listkit::pages::vec_with_capacity(list.len());
        ranks.resize(list.len(), 0u32);
        runner.rank_mapped(list, scratch, &mut ranks, |r| r as u32);
        assert!(is_permutation(&ranks), "{} ranks are a permutation", runner.algorithm.name());
        RankArray { ranks, algorithm: runner.algorithm }
    }

    /// Vertices ranked.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Never true: lists have at least one vertex.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The algorithm that ranked the list.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The ranks, by vertex.
    pub fn as_slice(&self) -> &[u32] {
        &self.ranks
    }

    /// The list ranking again: `out[v] = map(rank of v)`.
    pub fn rank_mapped<O: Send>(&self, out: &mut [O], map: impl Fn(u64) -> O + Sync) {
        map_into(&self.ranks, out, |&r| map(u64::from(r)));
    }

    /// Scatter into position order: `pos[rank of v] = store(&values[v])`.
    pub fn scatter<V: Sync, P: Send>(
        &self,
        values: &[V],
        pos: &mut [P],
        store: impl Fn(&V) -> P + Sync,
    ) {
        assert_eq!(values.len(), self.len(), "values length mismatch");
        assert_eq!(pos.len(), self.len(), "position buffer length mismatch");
        let writer = DisjointWriter::new(pos);
        values.par_iter().enumerate().with_min_len(PAR_MIN).for_each(|(v, x)| {
            // SAFETY: `build` asserted that the ranks are a permutation
            // of `0..n`, so every position is written by exactly one
            // vertex.
            unsafe { writer.write(self.ranks[v] as usize, store(x)) }
        });
    }

    /// Gather back into vertex order: `out[v] = load(&pos[rank of v])`.
    pub fn gather<P: Sync, O: Send>(
        &self,
        pos: &[P],
        out: &mut [O],
        load: impl Fn(&P) -> O + Sync,
    ) {
        assert_eq!(pos.len(), self.len(), "position buffer length mismatch");
        map_into(&self.ranks, out, |&r| load(&pos[r as usize]));
    }

    /// The positions of the vertices `is_start` flags, as an n-bit set:
    /// a segmented scan's restarts in position order.
    pub fn flags<V: Sync>(
        &self,
        values: &[V],
        is_start: impl Fn(&V) -> bool + Sync,
    ) -> PositionFlags {
        assert_eq!(values.len(), self.len(), "flags length mismatch");
        let words: Vec<AtomicU64> =
            (0..self.len().div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        values.par_iter().enumerate().with_min_len(PAR_MIN).for_each(|(v, x)| {
            if is_start(x) {
                let p = self.ranks[v] as usize;
                words[p / 64].fetch_or(1 << (p % 64), Ordering::Relaxed);
            }
        });
        PositionFlags(words.into_iter().map(AtomicU64::into_inner).collect())
    }

    /// Exclusive scan of `values` under `op` along the ranked list:
    /// `out[v] = map(prefix at v)`. Scatters into a fresh position-order
    /// `Vec<T>` on huge pages ([`listkit::pages`]), scans it with
    /// [`prefix`], and gathers.
    pub fn scan_mapped<T, Op, O>(
        &self,
        values: &[T],
        op: &Op,
        out: &mut [O],
        map: impl Fn(T) -> O + Sync,
    ) where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
        O: Send,
    {
        let mut pos = listkit::pages::vec_with_capacity(self.len());
        pos.resize(self.len(), op.identity());
        self.scatter(values, &mut pos, |&x| x);
        prefix(&mut pos, op, None, |&x| x, |x| x);
        self.gather(&pos, out, |&x| map(x));
    }
}

/// `out[i] = map(&src[i])`, in parallel: the widen, the gather, and
/// the encode that follows a gather into a typed array.
pub fn map_into<S: Sync, O: Send>(src: &[S], out: &mut [O], map: impl Fn(&S) -> O + Sync) {
    assert_eq!(src.len(), out.len(), "output length mismatch");
    out.par_iter_mut().with_min_len(PAR_MIN).zip(src.par_iter()).for_each(|(o, x)| *o = map(x));
}

/// Whether `ranks` holds every value of `0..len` once: n bits of
/// `seen`, each set at most once.
fn is_permutation(ranks: &[u32]) -> bool {
    let mut seen = vec![0u64; ranks.len().div_ceil(64)];
    ranks.iter().all(|&r| {
        let (r, bit) = (r as usize, 1u64 << (r % 64));
        let fresh = r < ranks.len() && seen[r / 64] & bit == 0;
        if fresh {
            seen[r / 64] |= bit;
        }
        fresh
    })
}

/// Segment starts in position order, one bit per position
/// ([`RankArray::flags`]).
#[derive(Clone, Debug)]
pub struct PositionFlags(Vec<u64>);

impl PositionFlags {
    #[inline]
    fn get(&self, p: usize) -> bool {
        self.0[p / 64] >> (p % 64) & 1 == 1
    }
}

/// Exclusive scan of a position-order buffer under `op`, in place:
/// each element becomes `store` of the combination of every `load`ed
/// element before it, restarting at the identity at each position
/// `starts` flags.
///
/// Two passes over contiguous blocks, one block per thread: the first
/// reduces each block to its combination since its last start, a
/// serial pass carries the block sums in order, and the second scans
/// each block from its carry. Blocks combine left to right, so the result is
/// exact for non-commutative operators.
pub fn prefix<P, T, Op>(
    pos: &mut [P],
    op: &Op,
    starts: Option<&PositionFlags>,
    load: impl Fn(&P) -> T + Sync,
    store: impl Fn(T) -> P + Sync,
) where
    P: Send + Sync,
    T: Copy + Send + Sync,
    Op: ScanOp<T>,
{
    match starts {
        None => blocked(pos, op, |_| false, load, store),
        Some(flags) => {
            assert!(flags.0.len() * 64 >= pos.len(), "flags cover every position");
            blocked(pos, op, |p| flags.get(p), load, store)
        }
    }
}

fn blocked<P, T, Op>(
    pos: &mut [P],
    op: &Op,
    is_start: impl Fn(usize) -> bool + Sync,
    load: impl Fn(&P) -> T + Sync,
    store: impl Fn(T) -> P + Sync,
) where
    P: Send + Sync,
    T: Copy + Send + Sync,
    Op: ScanOp<T>,
{
    let n = pos.len();
    let blocks =
        if n < 2 * PAR_MIN { 1 } else { rayon::current_num_threads().clamp(1, n / PAR_MIN) };
    let len = n.div_ceil(blocks).max(1);
    let scan_block = |block: &mut [P], lo: usize, mut acc: T| {
        for (i, p) in block.iter_mut().enumerate() {
            let x = load(p);
            if is_start(lo + i) {
                acc = op.identity();
            }
            *p = store(acc);
            acc = op.combine(acc, x);
        }
    };
    if blocks == 1 {
        scan_block(pos, 0, op.identity());
        return;
    }
    // Each block's combination since its last start, and whether it
    // holds one.
    let sums: Vec<(bool, T)> = {
        let pos = &*pos;
        (0..blocks)
            .into_par_iter()
            .with_min_len(1)
            .map(|b| {
                let lo = b * len;
                let block = &pos[lo..(lo + len).min(n)];
                block.iter().enumerate().fold((false, op.identity()), |(seen, acc), (i, p)| {
                    if is_start(lo + i) {
                        (true, load(p))
                    } else {
                        (seen, op.combine(acc, load(p)))
                    }
                })
            })
            .collect()
    };
    let mut carry = op.identity();
    let carries: Vec<T> = sums
        .iter()
        .map(|&(restarts, sum)| {
            let c = carry;
            carry = if restarts { sum } else { op.combine(carry, sum) };
            c
        })
        .collect();
    let work: Vec<(usize, (&mut [P], T))> = pos.chunks_mut(len).zip(carries).enumerate().collect();
    work.into_par_iter().with_min_len(1).for_each(|(b, (block, carry))| {
        scan_block(block, b * len, carry);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use listkit::gen;
    use listkit::ops::{Affine, AffineOp, MaxOp};
    use listkit::segmented::serial_segmented_scan;
    use listkit::serial;

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool")
    }

    #[test]
    fn only_permutations_pass_the_build_check() {
        assert!(is_permutation(&[2, 0, 1]));
        assert!(!is_permutation(&[0, 0, 1]), "a repeated rank");
        assert!(!is_permutation(&[0, 3, 1]), "a rank past n");
        assert!(!is_permutation(&[0, 1, 64]), "a rank past n inside the last word");
    }

    #[test]
    fn widened_ranks_equal_the_kernel_ranks() {
        for alg in Algorithm::ALL {
            let list = gen::random_list(3_000, 7);
            let ranks = RankArray::build(&HostRunner::new(alg), &list, &mut RankScratch::default());
            assert_eq!(ranks.algorithm(), alg);
            let mut out = vec![0u64; list.len()];
            ranks.rank_mapped(&mut out, |r| r);
            assert_eq!(out, serial::rank(&list), "{}", alg.name());
        }
    }

    #[test]
    fn array_scans_equal_list_scans_across_block_counts() {
        // Lengths on both sides of the inline cutoff, 1 to 3 blocks,
        // a non-commutative operator, segmented and not.
        for (n, threads) in [(1usize, 2usize), (1_000, 2), (2 * PAR_MIN + 17, 2), (3 * PAR_MIN, 3)]
        {
            let list = gen::random_list(n, n as u64);
            let runner = HostRunner::new(Algorithm::ReidMiller);
            let ranks = RankArray::build(&runner, &list, &mut RankScratch::default());
            let affs: Vec<Affine> =
                (0..n as i64).map(|i| Affine::new(i % 3 - 1, i % 7 - 3)).collect();
            let vals: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101 - 50).collect();
            let starts: Vec<bool> = (0..n).map(|v| v % 89 == 3).collect();
            pool(threads).install(|| {
                let mut out = vec![Affine::new(1, 0); n];
                ranks.scan_mapped(&affs, &AffineOp, &mut out, |x| x);
                assert_eq!(out, serial::scan(&list, &affs, &AffineOp), "affine n={n}");
                let mut pos = vec![0i64; n];
                ranks.scatter(&vals, &mut pos, |&x| x);
                let flags = ranks.flags(&starts, |&s| s);
                prefix(&mut pos, &MaxOp, Some(&flags), |&x| x, |x| x);
                let mut out = vec![0i64; n];
                ranks.gather(&pos, &mut out, |&x| x);
                let want = serial_segmented_scan(&list, &vals, &starts, &MaxOp);
                assert_eq!(out, want, "segmented max n={n}");
            });
        }
    }

    #[test]
    fn a_position_buffer_can_be_encoded_words() {
        // The buffer a served scan uses: a reply payload viewed as
        // little-endian words, values gathered back into their array.
        let list = gen::random_list(5_000, 3);
        let ranks = RankArray::build(
            &HostRunner::new(Algorithm::Serial),
            &list,
            &mut RankScratch::default(),
        );
        let mut values: Vec<i64> = (0..5_000).map(|i| i % 11 - 5).collect();
        let want = serial::scan(&list, &values, &listkit::ops::AddOp);
        let mut words = vec![[0u8; 8]; 5_000];
        ranks.scatter(&values, &mut words, |x| x.to_le_bytes());
        prefix(
            &mut words,
            &listkit::ops::AddOp,
            None,
            |w| i64::from_le_bytes(*w),
            i64::to_le_bytes,
        );
        ranks.gather(&words, &mut values, |w| i64::from_le_bytes(*w));
        assert_eq!(values, want);
    }
}
