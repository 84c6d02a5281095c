//! Segmented list scans.
//!
//! A *segmented* scan restarts at designated segment-start vertices —
//! the workhorse behind flattening nested data parallelism (Blelloch,
//! whom the paper credits with the underlying algorithm). Segmentation
//! composes with **any** scan operator through the classic
//! flag-carrying operator transform, which is associative but not
//! commutative — so it exercises exactly the operator generality this
//! library guarantees.
//!
//! ```
//! use listkit::ops::AddOp;
//! use listkit::segmented::{self, SegOp};
//!
//! let list = listkit::gen::sequential_list(6);
//! let values = [1i64, 2, 3, 4, 5, 6];
//! let starts = [true, false, false, true, false, false]; // two segments
//! let wrapped = segmented::wrap(&values, &starts);
//! let scanned = listkit::serial::scan(&list, &wrapped, &SegOp(AddOp));
//! let out = segmented::unwrap_exclusive(&scanned, &starts, &AddOp);
//! assert_eq!(out, vec![0, 1, 3, 0, 4, 9]); // restarts at vertex 3
//! ```

use crate::ops::ScanOp;
use crate::LinkedList;

/// A value paired with a "segment started here or later" flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segmented<T> {
    /// Whether the covered range contains a segment start.
    pub flag: bool,
    /// Aggregated value since the last segment start in the range.
    pub value: T,
}

/// The segmented transform of an operator `Op`.
///
/// `combine(x, y)` keeps `y.value` alone if `y`'s range starts a new
/// segment, otherwise accumulates across the ranges. Associative for
/// any associative `Op`; never commutative.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegOp<Op>(pub Op);

impl<T: Copy, Op: ScanOp<T>> ScanOp<Segmented<T>> for SegOp<Op> {
    const COMMUTATIVE: bool = false;

    fn identity(&self) -> Segmented<T> {
        Segmented { flag: false, value: self.0.identity() }
    }

    fn combine(&self, a: Segmented<T>, b: Segmented<T>) -> Segmented<T> {
        Segmented {
            flag: a.flag || b.flag,
            value: if b.flag { b.value } else { self.0.combine(a.value, b.value) },
        }
    }
}

/// Wrap per-vertex values and segment-start flags for a segmented scan,
/// on huge pages when list-sized ([`crate::pages`]).
pub fn wrap<T: Copy>(values: &[T], starts: &[bool]) -> Vec<Segmented<T>> {
    assert_eq!(values.len(), starts.len());
    let mut out = crate::pages::vec_with_capacity(values.len());
    out.extend(values.iter().zip(starts).map(|(&value, &flag)| Segmented { flag, value }));
    out
}

/// Extract the exclusive segmented scan from a plain exclusive scan of
/// wrapped values: a segment-start vertex restarts at the identity.
pub fn unwrap_exclusive<T: Copy, Op: ScanOp<T>>(
    scanned: &[Segmented<T>],
    starts: &[bool],
    op: &Op,
) -> Vec<T> {
    let mut out: Vec<T> = scanned.iter().map(|s| s.value).collect();
    restart_segments(&mut out, starts, op.identity());
    out
}

/// The restart half of [`unwrap_exclusive`], in place over any output
/// region: every segment-start slot gets `identity`. A scan mapped
/// through `|s| encode(s.value)` followed by this pass equals the
/// encoded unwrap, with no `Vec<T>` in between.
pub fn restart_segments<O: Copy>(out: &mut [O], starts: &[bool], identity: O) {
    assert_eq!(out.len(), starts.len());
    for (o, _) in out.iter_mut().zip(starts).filter(|(_, &is_start)| is_start) {
        *o = identity;
    }
}

/// Serial reference: exclusive segmented scan (each vertex gets the
/// op-sum of the values strictly before it *within its segment*; the
/// head always starts a segment).
pub fn serial_segmented_scan<T: Copy, Op: ScanOp<T>>(
    list: &LinkedList,
    values: &[T],
    starts: &[bool],
    op: &Op,
) -> Vec<T> {
    assert_eq!(values.len(), list.len());
    assert_eq!(starts.len(), list.len());
    let mut out = vec![op.identity(); list.len()];
    let mut acc = op.identity();
    for v in list.iter() {
        let vi = v as usize;
        if starts[vi] {
            acc = op.identity();
        }
        out[vi] = acc;
        acc = op.combine(acc, values[vi]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::ops::{AddOp, MaxOp};
    use crate::serial;

    fn starts_every(list: &LinkedList, k: usize) -> Vec<bool> {
        let mut starts = vec![false; list.len()];
        for (pos, v) in list.iter().enumerate() {
            if pos % k == 0 {
                starts[v as usize] = true;
            }
        }
        starts
    }

    #[test]
    fn segop_is_associative() {
        let op = SegOp(AddOp);
        let xs = [
            Segmented { flag: false, value: 3i64 },
            Segmented { flag: true, value: 5 },
            Segmented { flag: false, value: 7 },
            Segmented { flag: true, value: -2 },
        ];
        for a in xs {
            for b in xs {
                for c in xs {
                    assert_eq!(op.combine(a, op.combine(b, c)), op.combine(op.combine(a, b), c));
                }
            }
        }
    }

    #[test]
    fn plain_scan_of_wrapped_equals_segmented_reference() {
        let list = gen::random_list(600, 9);
        let values: Vec<i64> = (0..600).map(|i| (i % 13) as i64 - 6).collect();
        let starts = starts_every(&list, 37);
        let wrapped = wrap(&values, &starts);
        let scanned = serial::scan(&list, &wrapped, &SegOp(AddOp));
        let got = unwrap_exclusive(&scanned, &starts, &AddOp);
        let want = serial_segmented_scan(&list, &values, &starts, &AddOp);
        assert_eq!(got, want);
    }

    #[test]
    fn segmented_max() {
        let list = gen::random_list(300, 2);
        let values: Vec<i64> = (0..300).map(|i| ((i * 31) % 100) as i64).collect();
        let starts = starts_every(&list, 25);
        let wrapped = wrap(&values, &starts);
        let scanned = serial::scan(&list, &wrapped, &SegOp(MaxOp));
        let got = unwrap_exclusive(&scanned, &starts, &MaxOp);
        assert_eq!(got, serial_segmented_scan(&list, &values, &starts, &MaxOp));
    }

    #[test]
    fn single_segment_is_plain_scan() {
        let list = gen::random_list(200, 4);
        let values: Vec<i64> = (0..200).map(|i| i as i64).collect();
        let mut starts = vec![false; 200];
        starts[list.head() as usize] = true;
        assert_eq!(
            serial_segmented_scan(&list, &values, &starts, &AddOp),
            serial::scan(&list, &values, &AddOp)
        );
    }

    #[test]
    fn every_vertex_a_segment_gives_identities() {
        let list = gen::random_list(64, 5);
        let values = vec![7i64; 64];
        let starts = vec![true; 64];
        let out = serial_segmented_scan(&list, &values, &starts, &AddOp);
        assert!(out.iter().all(|&x| x == 0));
    }
}
