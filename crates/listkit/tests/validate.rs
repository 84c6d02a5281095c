//! Accept/reject parity of `validate_links` against the one-cursor
//! reference walk, over the topology zoo × structural corruptions.
//!
//! The validator counts strided sublists with the K-lane walker and
//! only falls back to one cursor to name a rejection; this suite checks
//! that it accepts exactly the lists the plain walk accepts and returns
//! the same `ListError` for every list it rejects.

use listkit::gen::{self, Layout};
use listkit::validate::{validate_links, ListTopology, BOUNDARY_STRIDE};
use listkit::{Idx, ListError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const STRIDE: usize = BOUNDARY_STRIDE;

/// The one-cursor validator: the same checks in the same order, with
/// reachability decided by walking `n - 1` steps from the head.
fn reference(next: &[Idx], head: Idx) -> Result<ListTopology, ListError> {
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
    Ok(ListTopology { tail })
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One of the zoo's layouts for `n` vertices.
fn layout(ix: usize, n: usize) -> Layout {
    match ix % 6 {
        0 => Layout::Sequential,
        1 => Layout::Reversed,
        2 => Layout::Blocked(17),
        3 => Layout::Blocked(4096),
        4 => Layout::Strided((2..n.max(2)).find(|&s| gcd(s, n) == 1).unwrap_or(1)),
        _ => Layout::Random,
    }
}

/// The structural corruptions: `0` leaves the list valid.
const CORRUPTIONS: usize = 7;

/// Apply corruption `kind` to a valid list's links (and maybe its head).
fn corrupt(next: &mut [Idx], head: &mut Idx, order: &[Idx], kind: usize, rng: &mut StdRng) {
    let n = next.len();
    let tail = order[n - 1];
    let any = |rng: &mut StdRng| rng.random_range(0..n) as Idx;
    match kind {
        // Rewired link: one vertex points somewhere else.
        1 => {
            let v = any(rng);
            next[v as usize] = any(rng);
        }
        // Swapped links of two vertices.
        2 => {
            let (a, b) = (any(rng) as usize, any(rng) as usize);
            next.swap(a, b);
        }
        // Moved head.
        3 => *head = any(rng),
        // A cycle with no strided id and no tail on it: close a run of
        // the traversal order back onto its first vertex.
        4 => {
            let open = |v: Idx| !(v as usize).is_multiple_of(STRIDE) && v != tail;
            let Some(start) = (0..n).map(|_| rng.random_range(0..n)).find(|&p| open(order[p]))
            else {
                return;
            };
            let want = rng.random_range(2..64usize);
            let mut end = start;
            while end + 1 < n && end + 1 - start < want && open(order[end + 1]) {
                end += 1;
            }
            next[order[end] as usize] = order[start];
        }
        // Rho through the head: a later vertex links back to the head.
        5 => {
            let p = rng.random_range(0..n);
            next[order[p] as usize] = order[0];
        }
        // A second self-loop.
        6 => {
            let v = any(rng);
            next[v as usize] = v;
        }
        _ => {}
    }
}

/// Build, corrupt and compare one case.
fn check(n: usize, layout_ix: usize, kind: usize, seed: u64) {
    let list = gen::list_with_layout(n, layout(layout_ix, n), seed);
    let order = list.order();
    let mut next = list.links().to_vec();
    let mut head = list.head();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    corrupt(&mut next, &mut head, &order, kind, &mut rng);
    assert_eq!(
        validate_links(&next, head),
        reference(&next, head),
        "n = {n}, layout = {:?}, corruption = {kind}, seed = {seed}",
        layout(layout_ix, n)
    );
}

/// Sizes around every boundary the stride introduces.
const EDGE_SIZES: [usize; 11] = [
    1,
    2,
    3,
    STRIDE - 1,
    STRIDE,
    STRIDE + 1,
    2 * STRIDE - 1,
    2 * STRIDE,
    2 * STRIDE + 1,
    3 * STRIDE - 1,
    3 * STRIDE,
];

#[test]
fn edge_sizes_match_the_reference_for_every_layout_and_corruption() {
    for &n in &EDGE_SIZES {
        for layout_ix in 0..6 {
            for kind in 0..CORRUPTIONS {
                for seed in 0..4u64 {
                    check(n, layout_ix, kind, seed * 7919 + n as u64);
                }
            }
        }
    }
}

#[test]
fn boundary_free_cycle_terminates_with_the_reference_error() {
    // Sequential ids 1..=100 hold no strided id: closing 100 -> 1 leaves
    // the head's chain circling with no boundary to stop it.
    let n = 3 * STRIDE;
    let mut next: Vec<Idx> = (1..=n as Idx).collect();
    next[n - 1] = (n - 1) as Idx;
    next[100] = 1;
    let got = validate_links(&next, 0);
    assert_eq!(got, reference(&next, 0));
    assert!(matches!(got, Err(ListError::CycleDetected { .. })), "{got:?}");
}

#[test]
fn tail_on_a_strided_id_is_accepted() {
    // The tail sits on a strided boundary, so the chain numbering skips
    // its slot; a valid list must still be accepted.
    for n in [STRIDE + 1, 2 * STRIDE + 1, 3 * STRIDE] {
        for tail in [0usize, STRIDE, 2 * STRIDE] {
            if tail >= n {
                continue;
            }
            let mut order: Vec<Idx> = (0..n as Idx).filter(|&v| v as usize != tail).collect();
            order.push(tail as Idx);
            let list = listkit::LinkedList::from_order(&order).unwrap();
            let got = validate_links(list.links(), list.head());
            assert_eq!(got, Ok(ListTopology { tail: tail as Idx }), "n = {n}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn accept_reject_parity_with_the_one_cursor_walk(
        n in 1usize..3 * STRIDE + 2,
        edge in 0usize..2 * EDGE_SIZES.len(),
        layout_ix in 0usize..6,
        kind in 0usize..CORRUPTIONS,
        seed in any::<u64>(),
    ) {
        // Half the cases take a random size, half an edge size.
        let n = EDGE_SIZES.get(edge).copied().unwrap_or(n);
        check(n, layout_ix, kind, seed);
    }
}
