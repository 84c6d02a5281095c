//! Structural validation of link arrays.
//!
//! List ranking on a malformed list (a rho-shaped cycle, several tails,
//! unreachable vertices) would either loop forever or silently produce
//! garbage; the paper assumes well-formed input, so we enforce it at the
//! API boundary instead of inside the hot loops.

use crate::list::Idx;
use crate::walk::{self, BitSet, WalkPolicy};

/// Why a link array is not a valid linked list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListError {
    /// Lists must have at least one vertex.
    Empty,
    /// The head index is not a vertex.
    HeadOutOfRange {
        /// Offending head index.
        head: Idx,
        /// Number of vertices.
        len: usize,
    },
    /// A link points outside `0..n`.
    LinkOutOfRange {
        /// Vertex holding the bad link.
        at: Idx,
        /// The out-of-range target.
        to: Idx,
        /// Number of vertices.
        len: usize,
    },
    /// No vertex has a self-loop, so the walk from the head never ends
    /// (the structure contains a cycle).
    NoTail,
    /// More than one vertex has a self-loop.
    MultipleTails {
        /// The first two self-loop vertices found.
        first: Idx,
        /// Second self-loop vertex.
        second: Idx,
    },
    /// The walk from the head reaches the tail before visiting every
    /// vertex: some vertices are unreachable (e.g. they form a separate
    /// cycle or a side chain).
    Unreachable {
        /// How many vertices the walk covered.
        visited: usize,
        /// Number of vertices.
        len: usize,
    },
    /// The walk from the head revisits a vertex before reaching a tail
    /// (rho-shaped structure).
    CycleDetected {
        /// The vertex at which the walk exceeded `n` steps.
        at: Idx,
    },
    /// `from_order` input was not a permutation of `0..n`.
    NotAPermutation,
    /// Value array length differs from the list length.
    ValueLengthMismatch {
        /// List length.
        list: usize,
        /// Value array length.
        values: usize,
    },
}

impl std::fmt::Display for ListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListError::Empty => write!(f, "list must have at least one vertex"),
            ListError::HeadOutOfRange { head, len } => {
                write!(f, "head index {head} out of range for {len} vertices")
            }
            ListError::LinkOutOfRange { at, to, len } => {
                write!(f, "link at vertex {at} points to {to}, out of range for {len} vertices")
            }
            ListError::NoTail => write!(f, "no tail self-loop: the links contain a cycle"),
            ListError::MultipleTails { first, second } => {
                write!(f, "multiple tail self-loops (vertices {first} and {second})")
            }
            ListError::Unreachable { visited, len } => {
                write!(f, "only {visited} of {len} vertices reachable from the head")
            }
            ListError::CycleDetected { at } => {
                write!(f, "walk from head revisits vertex {at}: rho-shaped cycle")
            }
            ListError::NotAPermutation => {
                write!(f, "order is not a permutation of 0..n")
            }
            ListError::ValueLengthMismatch { list, values } => {
                write!(f, "value array length {values} does not match list length {list}")
            }
        }
    }
}

impl std::error::Error for ListError {}

/// Facts established by validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListTopology {
    /// The unique tail (self-loop) vertex.
    pub tail: Idx,
}

/// Every `BOUNDARY_STRIDE`-th vertex id (`0`, `stride`, `2·stride`, …)
/// ends a sublist of the reachability walk in [`validate_links`].
pub const BOUNDARY_STRIDE: usize = 2048;

/// Interleaved lanes of the reachability walk.
const LANES: usize = 16;

/// Validate a link array in `O(n)` time and `O(n / BOUNDARY_STRIDE)`
/// extra words (plus an `n`-bit boundary bitmap).
///
/// Checks, in order: non-emptiness, head range, link ranges, tail
/// uniqueness, and full reachability of all `n` vertices from `head`
/// (which also rules out rho-shaped cycles: a walk of `n-1` steps from the
/// head must land exactly on the tail).
///
/// Reachability is checked the way the paper ranks (Phases 0 and 1):
/// the list is cut into sublists at strided vertex ids, the sublist
/// lengths are counted with 16 interleaved cursors
/// ([`crate::walk`]), and the reduced list of sublists must lead from
/// the head to the tail over exactly `n` vertices. Only a rejected
/// list is walked again with one cursor, to name the exact error.
pub fn validate_links(next: &[Idx], head: Idx) -> Result<ListTopology, ListError> {
    let n = next.len();
    if n == 0 {
        return Err(ListError::Empty);
    }
    if head as usize >= n {
        return Err(ListError::HeadOutOfRange { head, len: n });
    }
    let mut tail: Option<Idx> = None;
    for (v, &to) in next.iter().enumerate() {
        if to as usize >= n {
            return Err(ListError::LinkOutOfRange { at: v as Idx, to, len: n });
        }
        if to as usize == v {
            match tail {
                None => tail = Some(v as Idx),
                Some(first) => return Err(ListError::MultipleTails { first, second: v as Idx }),
            }
        }
    }
    let tail = tail.ok_or(ListError::NoTail)?;
    if !reaches_tail_over_all(next, head, tail) {
        walk_one_cursor(next, head, tail)?;
    }
    Ok(ListTopology { tail })
}

/// Whether the walk from `head` reaches `tail` after visiting exactly
/// `n` vertices. Every link must already be range-checked.
///
/// The strided ids and the tail are boundaries. Chain 0 starts at the
/// head, and chain `1 + j` at the successor of the `j`-th strided
/// boundary that is not the tail. On a valid list the chains partition
/// the vertices, so their lengths sum to exactly `n`; the walk stops
/// past that budget, which ends a cycle with no boundary on it. The
/// chains the head's path runs through are then linked end to start.
#[allow(unsafe_code)]
fn reaches_tail_over_all(next: &[Idx], head: Idx, tail: Idx) -> bool {
    let n = next.len();
    let tail_ix = tail as usize;
    let mut boundary = BitSet::new();
    boundary.reset(n);
    boundary.set(tail_ix);
    let mut heads = Vec::with_capacity(n / BOUNDARY_STRIDE + 2);
    heads.push(head);
    for b in (0..n).step_by(BOUNDARY_STRIDE) {
        boundary.set(b);
        if b != tail_ix {
            heads.push(next[b]);
        }
    }
    let mut out = vec![(0u64, 0 as Idx); heads.len()];
    // SAFETY: `validate_links` range-checked every link before calling.
    let finished = unsafe {
        walk::count_chains_within(
            next,
            &heads,
            &boundary,
            WalkPolicy::with_lanes(LANES),
            n as u64,
            &mut out,
        )
    };
    if !finished {
        return false;
    }
    // The chain after strided boundary `b` (which is not the tail).
    let tail_skipped = |b: usize| tail_ix.is_multiple_of(BOUNDARY_STRIDE) && tail_ix < b;
    let chain_after = |b: usize| 1 + b / BOUNDARY_STRIDE - usize::from(tail_skipped(b));
    let (mut chain, mut visited) = (0, 0u64);
    loop {
        let (len, end) = out[chain];
        visited += len;
        if visited > n as u64 {
            return false;
        }
        if end == tail {
            return visited == n as u64;
        }
        chain = chain_after(end as usize);
    }
}

/// The one-cursor reachability walk: names the exact error of a list
/// [`reaches_tail_over_all`] rejected.
fn walk_one_cursor(next: &[Idx], head: Idx, tail: Idx) -> Result<(), ListError> {
    let n = next.len();
    // Walk n-1 steps from the head; a single simple path covering all
    // vertices ends exactly at the tail. Any earlier arrival at the tail
    // means unreachable vertices; never arriving means a rho shape, but a
    // rho requires a second cycle, which the unique-self-loop check above
    // already restricts to "side components", caught here as well.
    let mut cur = head;
    for step in 0..n - 1 {
        if cur == tail {
            return Err(ListError::Unreachable { visited: step + 1, len: n });
        }
        cur = next[cur as usize];
    }
    if cur != tail {
        return Err(ListError::CycleDetected { at: cur });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_lists() {
        assert_eq!(validate_links(&[1, 2, 2], 0).unwrap().tail, 2);
        assert_eq!(validate_links(&[0], 0).unwrap().tail, 0);
        // 2 -> 0 -> 1 (tail)
        assert_eq!(validate_links(&[1, 1, 0], 2).unwrap().tail, 1);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(validate_links(&[], 0), Err(ListError::Empty));
    }

    #[test]
    fn rejects_bad_head() {
        assert_eq!(validate_links(&[0], 3), Err(ListError::HeadOutOfRange { head: 3, len: 1 }));
    }

    #[test]
    fn rejects_out_of_range_link() {
        assert_eq!(
            validate_links(&[1, 7, 2], 0),
            Err(ListError::LinkOutOfRange { at: 1, to: 7, len: 3 })
        );
    }

    #[test]
    fn rejects_pure_cycle() {
        assert_eq!(validate_links(&[1, 2, 0], 0), Err(ListError::NoTail));
    }

    #[test]
    fn rejects_two_tails() {
        // 0 -> 0 and 1 -> 1: two components
        assert_eq!(
            validate_links(&[0, 1], 0),
            Err(ListError::MultipleTails { first: 0, second: 1 })
        );
    }

    #[test]
    fn rejects_unreachable_component() {
        // 0 -> 1 (tail); 2 -> 3 -> 2 is a separate cycle.
        assert_eq!(
            validate_links(&[1, 1, 3, 2], 0),
            Err(ListError::Unreachable { visited: 2, len: 4 })
        );
    }

    #[test]
    fn rejects_early_tail() {
        // head *is* the tail but there are other vertices behind it.
        assert_eq!(
            validate_links(&[0, 0, 1], 0),
            Err(ListError::Unreachable { visited: 1, len: 3 })
        );
        // single tail, but head lands on it too early: 0 -> 2(tail), 1 -> 2.
        assert_eq!(
            validate_links(&[2, 2, 2], 0),
            Err(ListError::Unreachable { visited: 2, len: 3 })
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = validate_links(&[1, 7, 2], 0).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("vertex 1"));
        assert!(msg.contains('7'));
    }
}
