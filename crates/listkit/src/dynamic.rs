//! Mutable list editing: the substrate of the dynamic-list plane.
//!
//! A [`MutableList`] keeps a list's successor *and* predecessor arrays
//! so that structural edits — [`Edit::Splice`], [`Edit::Delete`],
//! [`Edit::Append`] — apply in time proportional to the edit, not the
//! list. Every batch is **atomic** (an invalid edit anywhere in the
//! batch leaves the list untouched) and returns an [`EditReport`]
//! of what it applied. A resident dataset's kept ranks do not survive a
//! batch: the serving layer drops them and the next query ranks the new
//! snapshot.
//!
//! ## The dense-vertex invariant
//!
//! [`LinkedList`] names vertices `0..n`, so edits must keep the vertex
//! set dense:
//!
//! * **Splice** reorders; the vertex set is unchanged.
//! * **Delete** removes vertex `v` and renames the last vertex `n-1`
//!   into slot `v` (a swap-remove), shrinking the list to `n-1`.
//! * **Append** adds `count` fresh vertices `n..n+count` at the tail.
//!
//! Clients replaying edits against their own mirror must apply the
//! same renaming rule; `docs/PROTOCOL.md` documents it as part of the
//! wire contract.
//!
//! ```
//! use listkit::dynamic::{Edit, MutableList};
//! use listkit::LinkedList;
//!
//! let list = LinkedList::from_order(&[0, 1, 2, 3]).unwrap();
//! let mut m = MutableList::from_list(&list);
//! // Move the run [1, 2] to the front: order becomes 1, 2, 0, 3.
//! m.apply(&[Edit::Splice { first: 1, last: 2, after: None }]).unwrap();
//! assert_eq!(m.snapshot().order(), vec![1, 2, 0, 3]);
//! ```

use crate::list::{Idx, LinkedList};
use crate::pages;
use std::fmt;

/// One structural edit against a [`MutableList`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Move the run `first -> ... -> last` (a contiguous stretch of the
    /// current traversal) so that it follows `after`; `None` moves the
    /// run to the front of the list.
    Splice {
        /// First vertex of the run being moved.
        first: Idx,
        /// Last vertex of the run (may equal `first`).
        last: Idx,
        /// The vertex the run is re-attached after (`None` = front).
        after: Option<Idx>,
    },
    /// Remove vertex `v`. The last vertex (`n-1`) is renamed into slot
    /// `v` to keep the vertex set dense (swap-remove).
    Delete {
        /// The vertex to remove.
        v: Idx,
    },
    /// Chain `count` fresh vertices `n..n+count` after the current
    /// tail, in index order.
    Append {
        /// How many vertices to add (must be positive).
        count: u32,
    },
}

/// Why a batch of edits was refused. The batch is atomic: on any error
/// the list is exactly as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// The batch contained no edits.
    EmptyBatch,
    /// An edit named a vertex outside `0..len`.
    VertexOutOfRange {
        /// Position of the offending edit in the batch.
        index: usize,
        /// The out-of-range vertex.
        v: Idx,
        /// List length at the time the edit was checked.
        len: usize,
    },
    /// A splice's `first`/`last` pair is not a run of the current
    /// traversal (walking successors from `first` never reaches
    /// `last`).
    NotARun {
        /// Position of the offending edit in the batch.
        index: usize,
        /// Claimed first vertex of the run.
        first: Idx,
        /// Claimed last vertex of the run.
        last: Idx,
    },
    /// A splice's `after` target lies inside the run being moved (the
    /// splice would disconnect the list).
    TargetInRun {
        /// Position of the offending edit in the batch.
        index: usize,
        /// The offending target.
        after: Idx,
    },
    /// A delete would leave the list empty (lists have ≥ 1 vertex).
    DeleteLastVertex {
        /// Position of the offending edit in the batch.
        index: usize,
    },
    /// An append of zero vertices.
    ZeroAppend {
        /// Position of the offending edit in the batch.
        index: usize,
    },
    /// An append would push the vertex count past `Idx::MAX`.
    TooLong {
        /// Position of the offending edit in the batch.
        index: usize,
        /// Length the append would have produced.
        len: u64,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::EmptyBatch => write!(f, "empty mutation batch"),
            EditError::VertexOutOfRange { index, v, len } => {
                write!(f, "edit {index}: vertex {v} out of range for length {len}")
            }
            EditError::NotARun { index, first, last } => {
                write!(f, "edit {index}: {first}..{last} is not a run of the list")
            }
            EditError::TargetInRun { index, after } => {
                write!(f, "edit {index}: splice target {after} lies inside the moved run")
            }
            EditError::DeleteLastVertex { index } => {
                write!(f, "edit {index}: cannot delete the only vertex")
            }
            EditError::ZeroAppend { index } => write!(f, "edit {index}: append of zero vertices"),
            EditError::TooLong { index, len } => {
                write!(f, "edit {index}: length {len} exceeds the index range")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// What a successfully applied batch did.
#[derive(Clone, Debug)]
pub struct EditReport {
    /// Edits applied (the whole batch).
    pub applied: usize,
    /// Length before the batch.
    pub old_len: usize,
    /// Length after the batch.
    pub new_len: usize,
}

/// A list under mutation: successor and predecessor arrays plus head
/// and tail, with `prev[head] == head` mirroring the tail self-loop.
/// See the [module docs](self) for the edit semantics. Its arrays, and
/// every copy of them, are on huge pages ([`crate::pages`]) once they
/// are list-sized.
#[derive(Debug)]
pub struct MutableList {
    next: Vec<Idx>,
    prev: Vec<Idx>,
    head: Idx,
    tail: Idx,
}

impl Clone for MutableList {
    fn clone(&self) -> Self {
        MutableList {
            next: pages::copied(&self.next),
            prev: pages::copied(&self.prev),
            head: self.head,
            tail: self.tail,
        }
    }
}

impl MutableList {
    /// Start mutating a copy of `list`'s structure.
    pub fn from_list(list: &LinkedList) -> Self {
        MutableList {
            next: pages::copied(list.links()),
            prev: list.predecessors(),
            head: list.head(),
            tail: list.tail(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Never empty (edits preserve the ≥ 1-vertex invariant).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current head vertex.
    pub fn head(&self) -> Idx {
        self.head
    }

    /// The current tail vertex.
    pub fn tail(&self) -> Idx {
        self.tail
    }

    /// Estimated resident footprint: two `u32` arrays plus headers.
    pub fn footprint(&self) -> u64 {
        8 * self.len() as u64 + 96
    }

    /// An immutable snapshot of the current structure. The arrays are
    /// maintained consistent by construction, so this skips the `O(n)`
    /// validation walk (debug builds still check).
    pub fn snapshot(&self) -> LinkedList {
        LinkedList::from_raw_trusted(pages::copied(&self.next), self.head, self.tail)
    }

    /// Apply a batch of edits atomically: either every edit applies (in
    /// order, each validated against the state its predecessors left),
    /// or the first invalid edit is reported and the list is untouched.
    pub fn apply(&mut self, edits: &[Edit]) -> Result<EditReport, EditError> {
        if edits.is_empty() {
            return Err(EditError::EmptyBatch);
        }
        let mut work = self.clone();
        for (index, &edit) in edits.iter().enumerate() {
            work.apply_one(index, edit)?;
        }
        let report = EditReport { applied: edits.len(), old_len: self.len(), new_len: work.len() };
        *self = work;
        Ok(report)
    }

    fn check(&self, index: usize, v: Idx) -> Result<(), EditError> {
        if (v as usize) < self.len() {
            Ok(())
        } else {
            Err(EditError::VertexOutOfRange { index, v, len: self.len() })
        }
    }

    fn apply_one(&mut self, index: usize, edit: Edit) -> Result<(), EditError> {
        match edit {
            Edit::Splice { first, last, after } => self.splice(index, first, last, after),
            Edit::Delete { v } => self.delete(index, v),
            Edit::Append { count } => self.append(index, count),
        }
    }

    fn splice(
        &mut self,
        index: usize,
        first: Idx,
        last: Idx,
        after: Option<Idx>,
    ) -> Result<(), EditError> {
        self.check(index, first)?;
        self.check(index, last)?;
        if let Some(a) = after {
            self.check(index, a)?;
        }
        // Walk the claimed run, confirming `last` is reachable and
        // `after` is not inside it. O(run length).
        let mut cur = first;
        let mut steps = 0usize;
        loop {
            if Some(cur) == after {
                return Err(EditError::TargetInRun { index, after: cur });
            }
            if cur == last {
                break;
            }
            if cur == self.tail || steps >= self.len() {
                return Err(EditError::NotARun { index, first, last });
            }
            cur = self.next[cur as usize];
            steps += 1;
        }
        let p = (first != self.head).then(|| self.prev[first as usize]);
        if p == after {
            return Ok(()); // already in place: a no-op splice
        }
        let s = (last != self.tail).then(|| self.next[last as usize]);
        // Unlink the run.
        match (p, s) {
            (Some(p), Some(s)) => {
                self.next[p as usize] = s;
                self.prev[s as usize] = p;
            }
            (Some(p), None) => {
                self.next[p as usize] = p;
                self.tail = p;
            }
            (None, Some(s)) => {
                self.prev[s as usize] = s;
                self.head = s;
            }
            // The run is the whole list; `after` was inside it (caught
            // above) or `None` (caught by the no-op check).
            (None, None) => unreachable!("whole-list splice is a no-op or TargetInRun"),
        }
        // Relink after the target.
        match after {
            None => {
                let old_head = self.head;
                self.next[last as usize] = old_head;
                self.prev[old_head as usize] = last;
                self.prev[first as usize] = first;
                self.head = first;
            }
            Some(a) => {
                let sa = (a != self.tail).then(|| self.next[a as usize]);
                self.next[a as usize] = first;
                self.prev[first as usize] = a;
                match sa {
                    Some(sa) => {
                        self.next[last as usize] = sa;
                        self.prev[sa as usize] = last;
                    }
                    None => {
                        self.next[last as usize] = last;
                        self.tail = last;
                    }
                }
            }
        }
        Ok(())
    }

    fn delete(&mut self, index: usize, v: Idx) -> Result<(), EditError> {
        self.check(index, v)?;
        if self.len() == 1 {
            return Err(EditError::DeleteLastVertex { index });
        }
        // Unlink v.
        let p = (v != self.head).then(|| self.prev[v as usize]);
        let s = (v != self.tail).then(|| self.next[v as usize]);
        match (p, s) {
            (Some(p), Some(s)) => {
                self.next[p as usize] = s;
                self.prev[s as usize] = p;
            }
            (Some(p), None) => {
                self.next[p as usize] = p;
                self.tail = p;
            }
            (None, Some(s)) => {
                self.prev[s as usize] = s;
                self.head = s;
            }
            (None, None) => unreachable!("singleton delete rejected above"),
        }
        // Swap-remove: rename the last vertex into slot v.
        let w = (self.len() - 1) as Idx;
        if v != w {
            let pw = (w != self.head).then(|| self.prev[w as usize]);
            let sw = (w != self.tail).then(|| self.next[w as usize]);
            self.next[v as usize] = if let Some(sw) = sw { sw } else { v };
            self.prev[v as usize] = if let Some(pw) = pw { pw } else { v };
            if let Some(pw) = pw {
                self.next[pw as usize] = v;
            }
            if let Some(sw) = sw {
                self.prev[sw as usize] = v;
            }
            if self.head == w {
                self.head = v;
            }
            if self.tail == w {
                self.tail = v;
            }
        }
        self.next.pop();
        self.prev.pop();
        Ok(())
    }

    fn append(&mut self, index: usize, count: u32) -> Result<(), EditError> {
        if count == 0 {
            return Err(EditError::ZeroAppend { index });
        }
        let new_len = self.len() as u64 + count as u64;
        if new_len > Idx::MAX as u64 {
            return Err(EditError::TooLong { index, len: new_len });
        }
        let old_tail = self.tail;
        let first_new = self.len() as Idx;
        for i in 0..count {
            let v = first_new + i;
            self.next.push(v + 1);
            self.prev.push(if i == 0 { old_tail } else { v - 1 });
        }
        let new_tail = first_new + count - 1;
        self.next[new_tail as usize] = new_tail;
        self.next[old_tail as usize] = first_new;
        self.tail = new_tail;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Layout};

    /// Independent oracle: the traversal order as a vector, with edits
    /// applied by vector surgery instead of link surgery.
    fn apply_to_order(order: &mut Vec<Idx>, edit: Edit) {
        match edit {
            Edit::Splice { first, last, after } => {
                let i = order.iter().position(|&v| v == first).unwrap();
                let j = order.iter().position(|&v| v == last).unwrap();
                let run: Vec<Idx> = order.drain(i..=j).collect();
                let at = match after {
                    None => 0,
                    Some(a) => order.iter().position(|&v| v == a).unwrap() + 1,
                };
                order.splice(at..at, run);
            }
            Edit::Delete { v } => {
                let w = (order.len() - 1) as Idx;
                order.retain(|&x| x != v);
                if v != w {
                    for x in order.iter_mut() {
                        if *x == w {
                            *x = v;
                        }
                    }
                }
            }
            Edit::Append { count } => {
                let n = order.len() as Idx;
                order.extend(n..n + count as Idx);
            }
        }
    }

    fn check(list: &LinkedList, edits: &[Edit]) -> (MutableList, EditReport) {
        let mut m = MutableList::from_list(list);
        let mut order = list.order();
        let report = m.apply(edits).unwrap();
        for &e in edits {
            apply_to_order(&mut order, e);
        }
        let snap = m.snapshot();
        assert_eq!(snap.order(), order, "edits: {edits:?}");
        // prev stays the exact inverse of next.
        assert_eq!(m.prev, snap.predecessors(), "edits: {edits:?}");
        (m, report)
    }

    #[test]
    fn splice_moves_runs_everywhere() {
        let list = LinkedList::from_order(&[4, 2, 0, 3, 1]).unwrap();
        // To the front.
        check(&list, &[Edit::Splice { first: 0, last: 3, after: None }]);
        // Behind the tail.
        check(&list, &[Edit::Splice { first: 2, last: 0, after: Some(1) }]);
        // Single-vertex run.
        check(&list, &[Edit::Splice { first: 3, last: 3, after: Some(4) }]);
        // Run including the head.
        check(&list, &[Edit::Splice { first: 4, last: 2, after: Some(3) }]);
        // Run including the tail.
        check(&list, &[Edit::Splice { first: 3, last: 1, after: None }]);
    }

    #[test]
    fn noop_splices_touch_nothing() {
        let list = LinkedList::from_order(&[0, 1, 2, 3]).unwrap();
        check(&list, &[Edit::Splice { first: 1, last: 2, after: Some(0) }]);
        check(&list, &[Edit::Splice { first: 0, last: 1, after: None }]);
        // Whole-list splice to the front is also a no-op.
        check(&list, &[Edit::Splice { first: 0, last: 3, after: None }]);
    }

    #[test]
    fn delete_swaps_last_vertex_in() {
        let list = LinkedList::from_order(&[3, 1, 4, 0, 2]).unwrap();
        for v in 0..5 {
            check(&list, &[Edit::Delete { v }]);
        }
        // Delete the head, the tail, and a renamed vertex in sequence.
        check(&list, &[Edit::Delete { v: 3 }, Edit::Delete { v: 2 }, Edit::Delete { v: 0 }]);
    }

    #[test]
    fn append_chains_fresh_vertices() {
        let list = LinkedList::from_order(&[1, 0]).unwrap();
        let (m, _) = check(&list, &[Edit::Append { count: 3 }]);
        assert_eq!(m.len(), 5);
        assert_eq!(m.tail(), 4);
        check(&list, &[Edit::Append { count: 1 }, Edit::Append { count: 2 }]);
    }

    #[test]
    fn mixed_batches_match_the_order_oracle() {
        let list = gen::list_with_layout(40, Layout::Random, 7);
        check(
            &list,
            &[
                Edit::Splice { first: 5, last: 5, after: Some(12) },
                Edit::Delete { v: 39 },
                Edit::Append { count: 4 },
                Edit::Splice { first: 40, last: 42, after: None },
                Edit::Delete { v: 0 },
                Edit::Delete { v: 17 },
            ],
        );
    }

    #[test]
    fn batches_are_atomic() {
        let list = LinkedList::from_order(&[0, 1, 2, 3]).unwrap();
        let mut m = MutableList::from_list(&list);
        let before = m.snapshot();
        let err = m
            .apply(&[
                Edit::Splice { first: 0, last: 1, after: Some(3) }, // valid
                Edit::Delete { v: 9 },                              // invalid
            ])
            .unwrap_err();
        assert_eq!(err, EditError::VertexOutOfRange { index: 1, v: 9, len: 4 });
        assert_eq!(m.snapshot(), before, "failed batch must not apply partially");
    }

    #[test]
    fn invalid_edits_are_typed() {
        let list = LinkedList::from_order(&[0, 2, 1]).unwrap();
        let mut m = MutableList::from_list(&list);
        assert_eq!(m.apply(&[]).unwrap_err(), EditError::EmptyBatch);
        assert_eq!(
            m.apply(&[Edit::Splice { first: 7, last: 0, after: None }]).unwrap_err(),
            EditError::VertexOutOfRange { index: 0, v: 7, len: 3 }
        );
        // 1 precedes nothing that reaches 0 (1 is the tail).
        assert_eq!(
            m.apply(&[Edit::Splice { first: 1, last: 0, after: None }]).unwrap_err(),
            EditError::NotARun { index: 0, first: 1, last: 0 }
        );
        assert_eq!(
            m.apply(&[Edit::Splice { first: 0, last: 2, after: Some(2) }]).unwrap_err(),
            EditError::TargetInRun { index: 0, after: 2 }
        );
        assert_eq!(
            m.apply(&[Edit::Append { count: 0 }]).unwrap_err(),
            EditError::ZeroAppend { index: 0 }
        );
        let mut one = MutableList::from_list(&LinkedList::from_order(&[0]).unwrap());
        assert_eq!(
            one.apply(&[Edit::Delete { v: 0 }]).unwrap_err(),
            EditError::DeleteLastVertex { index: 0 }
        );
    }

    #[test]
    fn report_tracks_lengths() {
        let list = gen::sequential_list(10);
        let mut m = MutableList::from_list(&list);
        let report = m
            .apply(&[Edit::Delete { v: 0 }, Edit::Delete { v: 1 }, Edit::Append { count: 5 }])
            .unwrap();
        assert_eq!((report.applied, report.old_len, report.new_len), (3, 10, 13));
    }
}
