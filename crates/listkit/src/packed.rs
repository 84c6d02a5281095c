//! The one-gather packed encoding (paper §3).
//!
//! "For list ranking, we are able to improve the performance of the loop
//! further by reducing the number of gather operations to one ... we
//! encode the link and value data for a vertex into a w-bit integer
//! value, which we can do as long as the list length (and therefore the
//! maximum rank) is no more than 2^(w/2)."
//!
//! With `w = 64`: the high 32 bits hold the value (a rank increment, or a
//! running partial rank), the low 32 bits the link. One 64-bit load per
//! traversal step replaces two 32-bit gathers — on the C90 this halves
//! the load on the single gather/scatter pipe.

use crate::list::{Idx, LinkedList};

/// Number of bits reserved for the link (and for the value).
pub const LINK_BITS: u32 = 32;
/// Maximum list length representable in the packed encoding.
pub const MAX_LEN: usize = (1usize << LINK_BITS) - 1;
const LINK_MASK: u64 = (1u64 << LINK_BITS) - 1;

/// Pack a (value, link) pair into one word.
#[inline]
pub fn pack(value: u32, link: Idx) -> u64 {
    ((value as u64) << LINK_BITS) | (link as u64)
}

/// Extract the value (high half).
#[inline]
pub fn value_of(word: u64) -> u32 {
    (word >> LINK_BITS) as u32
}

/// Extract the link (low half).
#[inline]
pub fn link_of(word: u64) -> Idx {
    (word & LINK_MASK) as Idx
}

/// A linked list with per-vertex `u32` values, stored one word per vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedList {
    words: Vec<u64>,
    head: Idx,
}

impl PackedList {
    /// Pack a list with all values 1 (list ranking).
    pub fn for_ranking(list: &LinkedList) -> Self {
        Self::with_values(list, |_| 1)
    }

    /// Pack a list with values given per vertex.
    ///
    /// # Panics
    /// Panics if the list is longer than [`MAX_LEN`].
    pub fn with_values(list: &LinkedList, value: impl Fn(Idx) -> u32) -> Self {
        assert!(list.len() <= MAX_LEN, "list too long for packed encoding");
        let words =
            list.links().iter().enumerate().map(|(v, &nx)| pack(value(v as Idx), nx)).collect();
        Self { words, head: list.head() }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Never empty (built from a non-empty [`LinkedList`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Head vertex.
    #[inline]
    pub fn head(&self) -> Idx {
        self.head
    }

    /// The packed words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Serial rank via single-load traversal: demonstrates the one-gather
    /// inner loop. Each step loads exactly one word, adds its value field
    /// into the accumulator and follows its link field.
    pub fn serial_rank(&self) -> Vec<u32> {
        let mut ranks = vec![0u32; self.len()];
        let mut acc = 0u32;
        let mut cur = self.head;
        loop {
            let w = self.words[cur as usize]; // the single gather
            ranks[cur as usize] = acc;
            acc = acc.wrapping_add(value_of(w));
            let nx = link_of(w);
            if nx == cur {
                break;
            }
            cur = nx;
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::serial;

    #[test]
    fn pack_roundtrip() {
        for &(v, l) in &[(0u32, 0u32), (1, 7), (u32::MAX, 12345), (42, u32::MAX)] {
            let w = pack(v, l);
            assert_eq!(value_of(w), v);
            assert_eq!(link_of(w), l);
        }
    }

    #[test]
    fn packed_rank_matches_serial() {
        let list = gen::random_list(333, 77);
        let packed = PackedList::for_ranking(&list);
        let pr = packed.serial_rank();
        let sr = serial::rank(&list);
        for v in 0..333 {
            assert_eq!(pr[v] as u64, sr[v]);
        }
    }

    #[test]
    fn packed_with_custom_values_scans() {
        let list = gen::random_list(64, 5);
        let packed = PackedList::with_values(&list, |v| v + 1);
        // exclusive prefix of (v+1) in list order, computed two ways
        let pr = packed.serial_rank();
        let vals: Vec<i64> = (0..64).map(|v| (v + 1) as i64).collect();
        let s = serial::scan(&list, &vals, &crate::ops::AddOp);
        for v in 0..64usize {
            assert_eq!(pr[v] as i64, s[v]);
        }
    }

    #[test]
    fn singleton_packed() {
        let list = crate::LinkedList::from_order(&[0]).unwrap();
        let packed = PackedList::for_ranking(&list);
        assert_eq!(packed.serial_rank(), vec![0]);
    }
}
