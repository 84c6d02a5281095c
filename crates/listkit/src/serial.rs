//! The serial reference algorithms (paper §2.1).
//!
//! "The serial list-scan algorithm simply walks down the list storing the
//! accumulated values of the previous vertices until it reaches the end
//! of the list." All parallel implementations are tested against these.

use crate::list::{Idx, LinkedList};
use crate::ops::ScanOp;

/// Serial list ranking: `rank[v]` = number of vertices before `v`.
pub fn rank(list: &LinkedList) -> Vec<u64> {
    let mut ranks = Vec::new();
    rank_into(list, &mut ranks);
    ranks
}

/// [`rank`] into a caller-provided buffer (cleared and resized; its
/// allocation is reused when capacity suffices). The no-alloc entry
/// point batch executors thread their buffer pools through.
pub fn rank_into(list: &LinkedList, out: &mut Vec<u64>) {
    out.clear();
    out.resize(list.len(), 0);
    rank_mapped(list, out, |r| r);
}

/// [`rank`] through an output sink: `out[v] = map(rank of v)`. `out`
/// must hold one slot per vertex; every slot is written exactly once,
/// so a caller can hand in any initialized region — a reply frame's
/// payload viewed as little-endian words, say — and skip the typed
/// copy.
pub fn rank_mapped<O>(list: &LinkedList, out: &mut [O], map: impl Fn(u64) -> O) {
    assert_eq!(out.len(), list.len(), "output length mismatch");
    for (r, v) in list.iter().enumerate() {
        out[v as usize] = map(r as u64);
    }
}

/// Serial exclusive list scan: `out[v]` = op-sum of the values of all
/// vertices strictly before `v`; the head gets the identity.
pub fn scan<T: Copy, Op: ScanOp<T>>(list: &LinkedList, values: &[T], op: &Op) -> Vec<T> {
    let mut out = Vec::new();
    scan_into(list, values, op, &mut out);
    out
}

/// [`scan`] into a caller-provided buffer (cleared and resized; its
/// allocation is reused when capacity suffices).
pub fn scan_into<T: Copy, Op: ScanOp<T>>(
    list: &LinkedList,
    values: &[T],
    op: &Op,
    out: &mut Vec<T>,
) {
    out.clear();
    out.resize(list.len(), op.identity());
    scan_mapped(list, values, op, out, |x| x);
}

/// [`scan`] through an output sink: `out[v] = map(exclusive prefix at
/// v)`, every slot written exactly once (see [`rank_mapped`]).
pub fn scan_mapped<T: Copy, Op: ScanOp<T>, O>(
    list: &LinkedList,
    values: &[T],
    op: &Op,
    out: &mut [O],
    map: impl Fn(T) -> O,
) {
    assert_eq!(values.len(), list.len(), "value array length mismatch");
    assert_eq!(out.len(), list.len(), "output length mismatch");
    let mut acc = op.identity();
    for v in list.iter() {
        out[v as usize] = map(acc);
        acc = op.combine(acc, values[v as usize]);
    }
}

/// Serial inclusive list scan: `out[v]` includes `values[v]` itself.
pub fn scan_inclusive<T: Copy, Op: ScanOp<T>>(list: &LinkedList, values: &[T], op: &Op) -> Vec<T> {
    let mut out = Vec::new();
    scan_inclusive_into(list, values, op, &mut out);
    out
}

/// [`scan_inclusive`] into a caller-provided buffer (cleared and
/// resized; its allocation is reused when capacity suffices). Returns
/// the final carry — the same value [`total`] computes — so a caller
/// needing both does one walk instead of two.
pub fn scan_inclusive_into<T: Copy, Op: ScanOp<T>>(
    list: &LinkedList,
    values: &[T],
    op: &Op,
    out: &mut Vec<T>,
) -> T {
    assert_eq!(values.len(), list.len(), "value array length mismatch");
    out.clear();
    out.resize(list.len(), op.identity());
    let mut acc = op.identity();
    for v in list.iter() {
        acc = op.combine(acc, values[v as usize]);
        out[v as usize] = acc;
    }
    acc
}

/// Total op-sum of all values in list order (the scan's final carry).
/// Allocation-free: one pointer-chase pass, no output array.
pub fn total<T: Copy, Op: ScanOp<T>>(list: &LinkedList, values: &[T], op: &Op) -> T {
    let mut acc = op.identity();
    for v in list.iter() {
        acc = op.combine(acc, values[v as usize]);
    }
    acc
}

/// Reorder per-vertex data into list order using ranks — the paper's
/// motivating application ("reorder the vertices of a linked list into an
/// array in one parallel step").
pub fn reorder_by_rank<T: Copy + Default>(ranks: &[u64], data: &[T]) -> Vec<T> {
    assert_eq!(ranks.len(), data.len());
    let mut out = vec![T::default(); data.len()];
    for (v, &r) in ranks.iter().enumerate() {
        out[r as usize] = data[v];
    }
    out
}

/// Rebuild the list-order permutation from ranks: `order[r]` = vertex with
/// rank `r`.
pub fn order_from_ranks(ranks: &[u64]) -> Vec<Idx> {
    let mut order = vec![0 as Idx; ranks.len()];
    for (v, &r) in ranks.iter().enumerate() {
        order[r as usize] = v as Idx;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::ops::{AddOp, Affine, AffineOp, MaxOp};

    #[test]
    fn rank_matches_order() {
        let list = gen::random_list(257, 12);
        let ranks = rank(&list);
        let order = list.order();
        for (r, v) in order.iter().enumerate() {
            assert_eq!(ranks[*v as usize], r as u64);
        }
        // ranks are a permutation of 0..n
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..257u64).collect::<Vec<_>>());
    }

    #[test]
    fn scan_of_ones_is_rank() {
        let list = gen::random_list(100, 3);
        let ones = vec![1i64; 100];
        let s = scan(&list, &ones, &AddOp);
        let r = rank(&list);
        for v in 0..100 {
            assert_eq!(s[v] as u64, r[v]);
        }
    }

    #[test]
    fn exclusive_vs_inclusive() {
        let list = gen::random_list(50, 4);
        let vals: Vec<i64> = (0..50).map(|i| i * i - 17).collect();
        let ex = scan(&list, &vals, &AddOp);
        let inc = scan_inclusive(&list, &vals, &AddOp);
        for v in 0..50usize {
            assert_eq!(inc[v], ex[v] + vals[v]);
        }
        assert_eq!(ex[list.head() as usize], 0);
        assert_eq!(inc[list.tail() as usize], vals.iter().sum::<i64>());
    }

    #[test]
    fn max_scan() {
        let list = crate::LinkedList::from_order(&[2, 0, 1]).unwrap();
        // values by vertex: v0=5, v1=9, v2=3; list order: 3, 5, 9
        let vals = vec![5i64, 9, 3];
        let s = scan(&list, &vals, &MaxOp);
        assert_eq!(s[2], i64::MIN); // head: identity
        assert_eq!(s[0], 3);
        assert_eq!(s[1], 5);
    }

    #[test]
    fn affine_scan_respects_order() {
        let list = gen::random_list(64, 8);
        let funcs: Vec<Affine> =
            (0..64).map(|i| Affine::new((i % 5) as i64 - 2, i as i64)).collect();
        let s = scan(&list, &funcs, &AffineOp);
        // Check by direct composition along the order.
        let order = list.order();
        let mut acc = AffineOp.identity();
        for &v in &order {
            assert_eq!(s[v as usize], acc, "exclusive prefix at vertex {v}");
            acc = AffineOp.combine(acc, funcs[v as usize]);
        }
        assert_eq!(total(&list, &funcs, &AffineOp), acc);
    }

    #[test]
    fn reorder_roundtrip() {
        let list = gen::random_list(40, 2);
        let ranks = rank(&list);
        let data: Vec<i64> = (0..40).map(|v| v * 7).collect();
        let in_order = reorder_by_rank(&ranks, &data);
        let order = list.order();
        for (k, &v) in order.iter().enumerate() {
            assert_eq!(in_order[k], data[v as usize]);
        }
        assert_eq!(order_from_ranks(&ranks), order);
    }
}
