//! Workload inputs and their expected outputs.
//!
//! Everything here is a pure function of the workload seed and is
//! computed before the daemon starts: the lists, the scan values, the
//! mutation batches, and — from `listkit::serial`, the oracle every
//! reply is compared against — the expected rank and scan of every
//! state a dataset passes through.

use listkit::dynamic::{Edit, MutableList};
use listkit::gen::{self, Layout};
use listkit::ops::AddOp;
use listkit::{Idx, LinkedList};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A resident list with its add-scan values and expected outputs.
#[derive(Clone)]
pub struct Dataset {
    /// The list.
    pub list: LinkedList,
    /// Add-scan input values.
    pub values: Vec<i64>,
    /// Expected ranks (serial oracle).
    pub ranks: Vec<u32>,
    /// Expected exclusive add-scan (serial oracle).
    pub scan: Vec<i64>,
}

impl Dataset {
    /// A list of `n` vertices in `layout`, with values in `[-1000, 1000]`.
    pub fn new(n: usize, layout: Layout, seed: u64) -> Dataset {
        Dataset::from_list(gen::list_with_layout(n, layout, seed), seed ^ 0x5CA1)
    }

    /// Values and expected outputs for an existing list.
    pub fn from_list(list: LinkedList, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<i64> = (0..list.len()).map(|_| rng.random_range(-1000i64..=1000)).collect();
        let ranks = ranks_u32(&list);
        let scan = listkit::serial::scan(&list, &values, &AddOp);
        Dataset { list, values, ranks, scan }
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.list.len()
    }
}

/// Serial ranks, narrowed to `u32` (every list here has n < 2³²), which
/// halves the memory the expected outputs hold.
pub fn ranks_u32(list: &LinkedList) -> Vec<u32> {
    listkit::serial::rank(list).into_iter().map(|r| r as u32).collect()
}

/// Whether served ranks equal the expected ones, element for element.
pub fn same_ranks(got: &[u64], want: &[u32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(&g, &w)| g == u64::from(w))
}

/// The writer's script: PUT `list`, rank it sharded, then for each
/// batch MUTATE and rank it sharded again. `expected[r]` is the rank of
/// the dataset after `r` batches.
pub struct WriterPlan {
    /// The dataset as PUT.
    pub list: LinkedList,
    /// The MUTATE batches, in order.
    pub batches: Vec<Vec<Edit>>,
    /// Expected ranks of each state, `batches.len() + 1` of them.
    pub expected: Vec<Vec<u32>>,
}

impl WriterPlan {
    /// A script of `rounds` small splice/delete/append batches on `list`.
    pub fn new(list: LinkedList, rounds: usize, seed: u64) -> WriterPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mirror = MutableList::from_list(&list);
        let mut expected = vec![ranks_u32(&list)];
        let mut batches = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            batches.push(small_batch(&mut mirror, &mut rng));
            expected.push(ranks_u32(&mirror.snapshot()));
        }
        WriterPlan { list, batches, expected }
    }
}

/// Draw a valid batch — splice a 32-vertex run elsewhere, delete one
/// vertex, append 16 — and apply it to the mirror.
fn small_batch(mirror: &mut MutableList, rng: &mut StdRng) -> Vec<Edit> {
    loop {
        let snap = mirror.snapshot();
        let n = snap.len() as u64;
        let first = rng.random_range(0..n) as Idx;
        let mut run = vec![first];
        let mut last = first;
        while run.len() < 32 && !snap.is_tail(last) {
            last = snap.next_of(last);
            run.push(last);
        }
        let after = loop {
            let a = rng.random_range(0..n) as Idx;
            if !run.contains(&a) {
                break a;
            }
        };
        let batch = vec![
            Edit::Splice { first, last, after: Some(after) },
            Edit::Delete { v: rng.random_range(0..n) as Idx },
            Edit::Append { count: 16 },
        ];
        // A refused batch leaves the mirror untouched; draw again.
        if mirror.apply(&batch).is_ok() {
            return batch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_states_track_the_mirror() {
        let plan = WriterPlan::new(gen::list_with_layout(4096, Layout::Blocked(512), 7), 3, 9);
        assert_eq!(plan.expected.len(), 4);
        let mut m = MutableList::from_list(&plan.list);
        for (batch, want) in plan.batches.iter().zip(&plan.expected[1..]) {
            m.apply(batch).expect("planned batch applies");
            assert_eq!(&ranks_u32(&m.snapshot()), want);
        }
        // Each batch deletes one vertex and appends 16.
        assert_eq!(plan.expected[3].len(), 4096 + 3 * 15);
    }

    #[test]
    fn rank_comparison_is_exact() {
        assert!(same_ranks(&[0, 2, 1], &[0, 2, 1]));
        assert!(!same_ranks(&[0, 2, 1], &[0, 2]));
        assert!(!same_ranks(&[0, 2, 1 << 32], &[0, 2, 0]));
    }
}
