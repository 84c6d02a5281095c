//! The array-of-links linked-list representation used throughout the paper.

use crate::validate::{self, ListError};

/// Vertex index type.
///
/// The paper encodes a (value, link) pair in one 64-bit word, which bounds
/// the list length by `2^32`; `u32` indices match that and halve the memory
/// traffic of the link array relative to `usize`.
pub type Idx = u32;

/// A linked list over vertices `0..n`, represented as a link array.
///
/// Invariants (enforced at construction):
/// * `next[v] < n` for all `v`;
/// * exactly one vertex `t` has `next[t] == t` (the tail self-loop);
/// * every vertex is reachable from `head`, i.e. the links form a single
///   simple path `head -> ... -> tail` covering all `n` vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkedList {
    next: Box<[Idx]>,
    head: Idx,
    tail: Idx,
}

impl LinkedList {
    /// Build a list from a link array and head index, validating all
    /// structural invariants in `O(n)`.
    pub fn new(next: Vec<Idx>, head: Idx) -> crate::Result<Self> {
        let topo = validate::validate_links(&next, head)?;
        Ok(Self { next: next.into_boxed_slice(), head, tail: topo.tail })
    }

    /// Build a list whose traversal order is exactly `order` (a permutation
    /// of `0..n`): `order[0]` is the head, `order[n-1]` the tail.
    ///
    /// Returns an error if `order` is not a permutation.
    pub fn from_order(order: &[Idx]) -> crate::Result<Self> {
        let n = order.len();
        if n == 0 {
            return Err(ListError::Empty);
        }
        let mut next = vec![Idx::MAX; n];
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            if (a as usize) >= n || (b as usize) >= n {
                return Err(ListError::NotAPermutation);
            }
            if next[a as usize] != Idx::MAX {
                return Err(ListError::NotAPermutation);
            }
            next[a as usize] = b;
        }
        let tail = order[n - 1];
        if (tail as usize) >= n || next[tail as usize] != Idx::MAX {
            return Err(ListError::NotAPermutation);
        }
        next[tail as usize] = tail;
        if next.contains(&Idx::MAX) {
            return Err(ListError::NotAPermutation);
        }
        Ok(Self { next: next.into_boxed_slice(), head: order[0], tail })
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// A list is never empty (construction rejects `n == 0`), so this is
    /// always `false`; provided for clippy-idiomatic completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The head vertex (rank 0).
    #[inline]
    pub fn head(&self) -> Idx {
        self.head
    }

    /// The tail vertex (`next[tail] == tail`).
    #[inline]
    pub fn tail(&self) -> Idx {
        self.tail
    }

    /// Successor of `v`.
    #[inline]
    pub fn next_of(&self, v: Idx) -> Idx {
        self.next[v as usize]
    }

    /// The raw link array.
    #[inline]
    pub fn links(&self) -> &[Idx] {
        &self.next
    }

    /// Whether `v` is the tail.
    #[inline]
    pub fn is_tail(&self, v: Idx) -> bool {
        self.next[v as usize] == v
    }

    /// Iterate over vertices in list order, head to tail (exactly `n`
    /// items).
    pub fn iter(&self) -> ListIter<'_> {
        ListIter { list: self, cur: self.head, remaining: self.len() }
    }

    /// The traversal order as a vector: `order[k]` is the vertex with rank
    /// `k`. Inverse of [`LinkedList::from_order`].
    pub fn order(&self) -> Vec<Idx> {
        self.iter().collect()
    }

    /// Predecessor links: `prev[v]` is the vertex whose successor is `v`;
    /// `prev[head] == head` (mirroring the tail self-loop convention).
    ///
    /// Pointer jumping computes an *exclusive prefix* scan by walking
    /// predecessor links, so the baselines need this. `O(n)` serial; the
    /// `listrank` crate has a parallel scatter version.
    pub fn predecessors(&self) -> Vec<Idx> {
        let n = self.len();
        let mut prev: Vec<Idx> = crate::pages::vec_with_capacity(n);
        prev.resize(n, 0);
        prev[self.head as usize] = self.head;
        for (v, &nx) in self.next.iter().enumerate() {
            if nx as usize != v {
                prev[nx as usize] = v as Idx;
            }
        }
        prev
    }

    /// Construct from parts whose invariants the caller (same crate)
    /// has already established — skips the `O(n)` validation walk on
    /// release builds. Used by [`crate::sharded`], which builds each
    /// shard's chained local list correct by construction.
    pub(crate) fn from_raw_trusted(next: Vec<Idx>, head: Idx, tail: Idx) -> Self {
        debug_assert!(
            matches!(validate::validate_links(&next, head), Ok(t) if t.tail == tail),
            "trusted construction received an invalid list"
        );
        Self { next: next.into_boxed_slice(), head, tail }
    }

    /// Consume the list, returning the raw link array and head. Used by
    /// backends that mutate links in place (the paper's implementation is
    /// destructive and restores the list afterwards).
    pub fn into_raw(self) -> (Vec<Idx>, Idx) {
        (self.next.into_vec(), self.head)
    }
}

/// Iterator over vertices in list order.
pub struct ListIter<'a> {
    list: &'a LinkedList,
    cur: Idx,
    remaining: usize,
}

impl Iterator for ListIter<'_> {
    type Item = Idx;

    fn next(&mut self) -> Option<Idx> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let v = self.cur;
        self.cur = self.list.next_of(v);
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ListIter<'_> {}

/// A linked list together with a per-vertex value array (the paper's
/// two-array representation for list scan).
#[derive(Clone, Debug, PartialEq)]
pub struct ValuedList<T> {
    /// The link structure.
    pub list: LinkedList,
    /// `values[v]` is the value at vertex `v` (indexed by vertex, not rank).
    pub values: Vec<T>,
}

impl<T> ValuedList<T> {
    /// Pair a list with values; lengths must agree.
    pub fn new(list: LinkedList, values: Vec<T>) -> crate::Result<Self> {
        if values.len() != list.len() {
            return Err(ListError::ValueLengthMismatch { list: list.len(), values: values.len() });
        }
        Ok(Self { list, values })
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Never empty; see [`LinkedList::is_empty`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Values in list order (head first).
    pub fn values_in_order(&self) -> Vec<T>
    where
        T: Copy,
    {
        self.list.iter().map(|v| self.values[v as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_order_roundtrip() {
        let order: Vec<Idx> = vec![3, 1, 4, 0, 2];
        let list = LinkedList::from_order(&order).unwrap();
        assert_eq!(list.len(), 5);
        assert_eq!(list.head(), 3);
        assert_eq!(list.tail(), 2);
        assert_eq!(list.order(), order);
        assert!(list.is_tail(2));
        assert!(!list.is_tail(3));
    }

    #[test]
    fn singleton_list() {
        let list = LinkedList::from_order(&[0]).unwrap();
        assert_eq!(list.head(), 0);
        assert_eq!(list.tail(), 0);
        assert_eq!(list.order(), vec![0]);
    }

    #[test]
    fn from_order_rejects_duplicates() {
        assert!(LinkedList::from_order(&[0, 1, 1]).is_err());
        assert!(LinkedList::from_order(&[0, 0]).is_err());
        assert!(LinkedList::from_order(&[]).is_err());
        assert!(LinkedList::from_order(&[0, 5]).is_err());
    }

    #[test]
    fn new_validates() {
        // 0 -> 1 -> 2 (tail)
        let list = LinkedList::new(vec![1, 2, 2], 0).unwrap();
        assert_eq!(list.tail(), 2);
        // cycle without tail
        assert!(LinkedList::new(vec![1, 2, 0], 0).is_err());
        // out of range link
        assert!(LinkedList::new(vec![1, 9, 2], 0).is_err());
    }

    #[test]
    fn predecessors_invert_links() {
        let order: Vec<Idx> = vec![2, 0, 4, 1, 3];
        let list = LinkedList::from_order(&order).unwrap();
        let prev = list.predecessors();
        assert_eq!(prev[list.head() as usize], list.head());
        for w in order.windows(2) {
            assert_eq!(prev[w[1] as usize], w[0]);
        }
    }

    #[test]
    fn iter_is_exact_size() {
        let list = LinkedList::from_order(&[1, 0, 2]).unwrap();
        let it = list.iter();
        assert_eq!(it.len(), 3);
        assert_eq!(it.collect::<Vec<_>>(), vec![1, 0, 2]);
    }

    #[test]
    fn valued_list_checks_len() {
        let list = LinkedList::from_order(&[0, 1]).unwrap();
        assert!(ValuedList::new(list.clone(), vec![1i64]).is_err());
        let vl = ValuedList::new(list, vec![10i64, 20]).unwrap();
        assert_eq!(vl.values_in_order(), vec![10, 20]);
    }

    #[test]
    fn values_in_order_follows_links_not_indices() {
        let list = LinkedList::from_order(&[2, 0, 1]).unwrap();
        let vl = ValuedList::new(list, vec![100i64, 200, 300]).unwrap();
        assert_eq!(vl.values_in_order(), vec![300, 100, 200]);
    }

    #[test]
    fn into_raw_roundtrip() {
        let list = LinkedList::from_order(&[1, 2, 0]).unwrap();
        let (links, head) = list.clone().into_raw();
        let rebuilt = LinkedList::new(links, head).unwrap();
        assert_eq!(rebuilt, list);
    }
}
