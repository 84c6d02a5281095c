//! Array scans along a ranked list.
//!
//! The paper's §2 gives the reason to rank a list at all: ranks
//! "reorder the vertices of a linked list into an array in one parallel
//! step". Once a list's ranks are kept, a list scan along it is an array
//! scan (Blelloch's scan primitive) over the vertices in position order.
//! No link is chased again.
//!
//! [`RankArray`] is such a kept rank, as `u32`s — half the bytes of the
//! `u64` ranks the kernels return — together with its inverse, the
//! vertex at each position. A scan walks the positions in order and
//! reads and writes each vertex's element where it lies
//! ([`RankArray::scan_in_place`]), so the values are never moved into
//! position order and back. Elements are read and written through
//! `load`/`store` closures, so the buffer may be a typed `Vec<T>` or a
//! reply frame's payload viewed as little-endian words.
//!
//! Each access along the positions is a random one, so the scan makes
//! as few of those passes as its operator allows, and prefetches ahead
//! in each. Under a commutative operator (add, max, min, xor) with no
//! segments, the carry into each thread's block of positions is a sum
//! over the vertices ranked before it, taken in any order, so it comes
//! from a sequential pass over the values in vertex order, and the one
//! random pass writes the prefixes. A non-commutative or segmented scan
//! needs its block sums in position order: two random passes.
//!
//! The position order is the one write whose disjointness Rust cannot
//! see, and so is the scan's prefix pass: both go through the crate's
//! `DisjointWriter`, and both are sound because a rank array is a
//! permutation of `0..n`. Its fields are private and
//! [`RankArray::build`], its only constructor, asserts the permutation
//! (an n-bit pass) before it writes the position order, so no safe
//! caller can hand either pass a vertex twice.

use crate::api::{Algorithm, HostRunner};
use crate::host::RankScratch;
use crate::util::DisjointWriter;
use listkit::walk::prefetch_read;
use listkit::{LinkedList, ScanOp};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Elements per parallel chunk below which a kernel runs inline: the
/// host's pool spawns its threads per operation, which costs more than
/// a pass over a list this short.
const PAR_MIN: usize = 1 << 15;

/// Positions ahead of the current one whose element a position-order
/// loop prefetches: enough random reads in flight to hide most of the
/// memory latency. On the 2²² `reply_codec/ranked` rows, 2 threads of
/// a 2-CPU x86-64 VM, the add-scan read 17.5–22 ms at every distance
/// from 8 to 64, and the affine scan (16-byte elements, two random
/// passes) 47–52 ms at 32, against 55–57 at 64 and 59–91 at 16.
const PREFETCH_AHEAD: usize = 32;

/// Vertices per tile of the vertex-order carry pass: a tile's elements
/// and ranks stay in L1 while each block boundary folds it.
const TILE: usize = 2048;

/// The ranks of one list, `ranks[v]` = position of vertex `v`, and
/// their inverse, `order[p]` = vertex at position `p`, kept so that
/// later ranks are a widening copy and later scans are array scans.
#[derive(Debug)]
pub struct RankArray {
    ranks: Vec<u32>,
    order: Vec<u32>,
    algorithm: Algorithm,
}

impl RankArray {
    /// Rank `list` with `runner`, writing each rank as a `u32` straight
    /// from the kernel's final pass, then scatter the position order
    /// from the ranks. The two arrays are the build's list-sized
    /// allocations, both on huge pages ([`listkit::pages`]).
    ///
    /// # Panics
    /// If the kernel's ranks are not a permutation of `0..n`: the
    /// position order's scatter and the scans' memory safety rest on it.
    pub fn build(runner: &HostRunner, list: &LinkedList, scratch: &mut RankScratch) -> Self {
        let mut ranks = listkit::pages::vec_with_capacity(list.len());
        ranks.resize(list.len(), 0u32);
        runner.rank_mapped(list, scratch, &mut ranks, |r| r as u32);
        Self::from_ranks(ranks, runner.algorithm)
    }

    /// Check that `ranks` is a permutation and scatter its inverse.
    fn from_ranks(ranks: Vec<u32>, algorithm: Algorithm) -> Self {
        assert!(is_permutation(&ranks), "{} ranks are a permutation", algorithm.name());
        let mut order = listkit::pages::vec_with_capacity(ranks.len());
        order.resize(ranks.len(), 0u32);
        let writer = DisjointWriter::new(&mut order);
        ranks.par_iter().enumerate().with_min_len(PAR_MIN).for_each(|(v, &r)| {
            // SAFETY: the ranks were just checked to be a permutation of
            // `0..n`, so every position is written by exactly one vertex.
            unsafe { writer.write(r as usize, v as u32) }
        });
        RankArray { ranks, order, algorithm }
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

    /// Exclusive scan under `op` along the ranked list, in place in a
    /// vertex-order buffer: `buf[v]` becomes `store` of the combination
    /// of every `load`ed element before `v` in list order, restarting at
    /// the identity at each position `starts` flags.
    ///
    /// The positions split into contiguous blocks, one per thread. A
    /// first pass finds each block's carry, the combination of every
    /// element before it; a second pass walks each block's positions,
    /// reading and replacing `buf[order[p]]` with the block's running
    /// prefix from its carry. Each block touches its own vertices
    /// because the position order is a permutation, and the second
    /// pass prefetches `PREFETCH_AHEAD` positions ahead, so that many
    /// random reads are in flight.
    ///
    /// How the first pass finds the carries depends on the operator:
    /// - commutative and unsegmented (add, max, min, xor): each thread
    ///   reads a contiguous chunk of vertices in vertex order, zipping
    ///   `buf` with the ranks, and folds every element into the carry
    ///   of each block past its rank. The chunks' partial carries then
    ///   combine. This pass is sequential, not random, and it is exact
    ///   only because the operator commutes: it combines elements out
    ///   of list order;
    /// - otherwise (affine, or any segmented scan): each block is
    ///   reduced along its positions, prefetching as the second pass
    ///   does, to its combination since its last start, and a serial
    ///   pass carries the block sums left to right, so the result is
    ///   exact for non-commutative operators.
    ///
    /// A list shorter than `2 * PAR_MIN` is scanned inline in one pass.
    pub fn scan_in_place<B, T, Op>(
        &self,
        buf: &mut [B],
        op: &Op,
        starts: Option<&PositionFlags>,
        load: impl Fn(&B) -> T + Sync,
        store: impl Fn(T) -> B + Sync,
    ) where
        B: Send + Sync,
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        let n = self.len();
        assert_eq!(buf.len(), n, "buffer length mismatch");
        if let Some(flags) = starts {
            assert!(flags.0.len() * 64 >= n, "flags cover every position");
        }
        let is_start = |p: usize| starts.is_some_and(|flags| flags.get(p));
        if n < 2 * PAR_MIN {
            let mut acc = op.identity();
            for (p, &v) in self.order.iter().enumerate() {
                if is_start(p) {
                    acc = op.identity();
                }
                let x = std::mem::replace(&mut buf[v as usize], store(acc));
                acc = op.combine(acc, load(&x));
            }
            return;
        }
        let len = n.div_ceil(rayon::current_num_threads().clamp(1, n / PAR_MIN));
        let blocks = n.div_ceil(len);
        let block = |b: usize| (b * len, &self.order[b * len..((b + 1) * len).min(n)]);
        let carries = if blocks == 1 {
            vec![op.identity()]
        } else if Op::COMMUTATIVE && starts.is_none() {
            self.carries_by_vertex(buf, op, len, &load)
        } else {
            // Each block's combination since its last start, and
            // whether it holds one.
            let buf = &*buf;
            let sums: Vec<(bool, T)> = (0..blocks)
                .into_par_iter()
                .with_min_len(1)
                .map(|b| {
                    let (lo, vertices) = block(b);
                    vertices.iter().enumerate().fold(
                        (false, op.identity()),
                        |(seen, acc), (i, &v)| {
                            if let Some(&ahead) = vertices.get(i + PREFETCH_AHEAD) {
                                prefetch_read(buf, ahead as usize);
                            }
                            let x = load(&buf[v as usize]);
                            if is_start(lo + i) {
                                (true, x)
                            } else {
                                (seen, op.combine(acc, x))
                            }
                        },
                    )
                })
                .collect();
            let mut carry = op.identity();
            sums.iter()
                .map(|&(restarts, sum)| {
                    let c = carry;
                    carry = if restarts { sum } else { op.combine(carry, sum) };
                    c
                })
                .collect()
        };
        let writer = DisjointWriter::new(buf);
        (0..blocks).into_par_iter().with_min_len(1).for_each(|b| {
            let (lo, vertices) = block(b);
            let mut acc = carries[b];
            for (i, &v) in vertices.iter().enumerate() {
                if let Some(&ahead) = vertices.get(i + PREFETCH_AHEAD) {
                    writer.prefetch(ahead as usize);
                }
                if is_start(lo + i) {
                    acc = op.identity();
                }
                // SAFETY: `build` checked that the ranks are a permutation
                // and wrote `order` as their inverse, so each vertex sits
                // at one position, in one block: only this block touches
                // `v`.
                let x = unsafe { writer.replace(v as usize, store(acc)) };
                acc = op.combine(acc, load(&x));
            }
        });
    }

    /// The carry into each block of `len` positions under a commutative
    /// `op`: `carries[b]` combines every element ranked below `b * len`.
    ///
    /// One sequential pass: each thread zips its chunk of `buf` with the
    /// same chunk of the ranks, tile by tile, and folds each tile into
    /// one register accumulator per block boundary through a select on
    /// the rank, so the step per element has no division, no
    /// data-dependent branch and no accumulator indexed by the rank.
    fn carries_by_vertex<B, T, Op>(
        &self,
        buf: &[B],
        op: &Op,
        len: usize,
        load: &(impl Fn(&B) -> T + Sync),
    ) -> Vec<T>
    where
        B: Sync,
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        let n = self.len();
        let blocks = n.div_ceil(len);
        // Ranks fit in u32, so every boundary below n does too.
        let bounds: Vec<u32> = (1..blocks).map(|b| (b * len) as u32).collect();
        let partials: Vec<Vec<T>> = (0..blocks)
            .into_par_iter()
            .with_min_len(1)
            .map(|c| {
                let chunk = c * len..((c + 1) * len).min(n);
                let mut below = vec![op.identity(); bounds.len()];
                for (xs, rs) in buf[chunk.clone()].chunks(TILE).zip(self.ranks[chunk].chunks(TILE))
                {
                    for (acc, &bound) in below.iter_mut().zip(&bounds) {
                        *acc = xs.iter().zip(rs).fold(*acc, |acc, (x, &r)| {
                            op.combine(acc, if r < bound { load(x) } else { op.identity() })
                        });
                    }
                }
                below
            })
            .collect();
        let mut carries = vec![op.identity(); blocks];
        for below in partials {
            for (carry, part) in carries[1..].iter_mut().zip(below) {
                *carry = op.combine(*carry, part);
            }
        }
        carries
    }
}

/// `out[i] = map(&src[i])`, in parallel: the widening copy of the ranks.
fn map_into<S: Sync, O: Send>(src: &[S], out: &mut [O], map: impl Fn(&S) -> O + Sync) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use listkit::gen::{self, Layout};
    use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, MinOp, XorOp};
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
    #[should_panic(expected = "ranks are a permutation")]
    fn the_build_refuses_a_repeated_rank() {
        RankArray::from_ranks(vec![1, 0, 1], Algorithm::Serial);
    }

    #[test]
    fn the_position_order_inverts_the_ranks_for_every_algorithm() {
        for alg in Algorithm::ALL {
            let list = gen::random_list(3_000, 7);
            let ranks = RankArray::build(&HostRunner::new(alg), &list, &mut RankScratch::default());
            assert_eq!(ranks.algorithm(), alg);
            let mut out = vec![0u64; list.len()];
            ranks.rank_mapped(&mut out, |r| r);
            assert_eq!(out, serial::rank(&list), "{}", alg.name());
            for (p, &v) in ranks.order.iter().enumerate() {
                assert_eq!(ranks.ranks[v as usize] as usize, p, "{}: position {p}", alg.name());
            }
        }
    }

    /// The little-endian encoding of a value type and its decoding.
    type Le<T, const B: usize> = (fn(T) -> [u8; B], fn([u8; B]) -> T);

    /// Scan `values` in place along `ranks`, segmented at `starts` when
    /// given, once as a typed buffer and once as little-endian words,
    /// and check both against the serial list scan.
    fn check<T, Op, const B: usize>(
        list: &LinkedList,
        ranks: &RankArray,
        values: &[T],
        starts: Option<(&[bool], &PositionFlags)>,
        op: Op,
        (to, from): Le<T, B>,
        what: &str,
    ) where
        T: Copy + Send + Sync + PartialEq + std::fmt::Debug,
        Op: ScanOp<T>,
    {
        let (want, flags) = match starts {
            Some((starts, flags)) => {
                (serial_segmented_scan(list, values, starts, &op), Some(flags))
            }
            None => (serial::scan(list, values, &op), None),
        };
        let mut typed = values.to_vec();
        ranks.scan_in_place(&mut typed, &op, flags, |&x| x, |x| x);
        assert_eq!(typed, want, "{what}: typed buffer");
        let mut words: Vec<[u8; B]> = values.iter().map(|&x| to(x)).collect();
        ranks.scan_in_place(&mut words, &op, flags, |&w| from(w), to);
        let got: Vec<T> = words.into_iter().map(from).collect();
        assert_eq!(got, want, "{what}: word buffer");
    }

    fn affine_le(x: Affine) -> [u8; 16] {
        let mut le = [0u8; 16];
        le[..8].copy_from_slice(&x.a.to_le_bytes());
        le[8..].copy_from_slice(&x.b.to_le_bytes());
        le
    }

    fn affine_from_le(le: [u8; 16]) -> Affine {
        let (a, b) = le.split_at(8);
        Affine::new(
            i64::from_le_bytes(a.try_into().expect("8 bytes")),
            i64::from_le_bytes(b.try_into().expect("8 bytes")),
        )
    }

    #[test]
    fn in_place_scans_equal_list_scans_across_block_counts() {
        // Lengths on both sides of the inline cutoff, 1 to 4 blocks
        // (uneven at 4·PAR_MIN + 3), layouts whose vertex chunks hold
        // all (sequential) or none (reversed) of their own block's
        // positions, every operator (affine is not commutative),
        // segmented and not, typed and as encoded words, and a segment
        // that starts at, one before or one after a block boundary.
        let i64_le: Le<i64, 8> = (i64::to_le_bytes, i64::from_le_bytes);
        let u64_le: Le<u64, 8> = (u64::to_le_bytes, u64::from_le_bytes);
        let aff_le: Le<Affine, 16> = (affine_le, affine_from_le);
        let cases = [
            (1usize, 2usize, Layout::Random),
            (1_000, 2, Layout::Random),
            (2 * PAR_MIN + 17, 2, Layout::Random),
            (3 * PAR_MIN, 3, Layout::Random),
            (4 * PAR_MIN + 3, 4, Layout::Random),
            (2 * PAR_MIN + 17, 2, Layout::Sequential),
            (2 * PAR_MIN + 17, 2, Layout::Reversed),
        ];
        for (n, threads, layout) in cases {
            let list = gen::list_with_layout(n, layout, n as u64);
            let runner = HostRunner::new(Algorithm::ReidMiller);
            let ranks = RankArray::build(&runner, &list, &mut RankScratch::default());
            let i64s: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101 - 50).collect();
            let u64s: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            let affs: Vec<Affine> =
                (0..n as i64).map(|i| Affine::new(i % 3 - 1, i % 7 - 3)).collect();
            let starts: Vec<bool> = (0..n).map(|v| v % 89 == 3).collect();
            let flags = ranks.flags(&starts, |&s| s);
            for threads in 1..=threads {
                let what =
                    |op: &str, seg: &str| format!("{op} n={n} {layout:?} threads={threads} {seg}");
                pool(threads).install(|| {
                    for (seg, name) in [(None, "unsegmented"), (Some((&starts[..], &flags)), "seg")]
                    {
                        check(&list, &ranks, &i64s, seg, AddOp, i64_le, &what("add", name));
                        check(&list, &ranks, &i64s, seg, MaxOp, i64_le, &what("max", name));
                        check(&list, &ranks, &i64s, seg, MinOp, i64_le, &what("min", name));
                        check(&list, &ranks, &u64s, seg, XorOp, u64_le, &what("xor", name));
                        check(&list, &ranks, &affs, seg, AffineOp, aff_le, &what("affine", name));
                    }
                });
                if n < 2 * PAR_MIN || threads == 1 {
                    continue;
                }
                // One start per case, so the blocks after it carry
                // across it rather than restart.
                let len = n.div_ceil(threads);
                for (b, offset) in (1..threads).flat_map(|b| [(b, -1isize), (b, 0), (b, 1)]) {
                    let mut starts = vec![false; n];
                    starts[ranks.order[(b * len).strict_add_signed(offset)] as usize] = true;
                    let flags = ranks.flags(&starts, |&s| s);
                    let seg = Some((&starts[..], &flags));
                    let name = format!("start at boundary {b}{offset:+}");
                    pool(threads).install(|| {
                        check(&list, &ranks, &i64s, seg, AddOp, i64_le, &what("add", &name));
                        check(&list, &ranks, &affs, seg, AffineOp, aff_le, &what("affine", &name));
                    });
                }
            }
        }
    }
}
