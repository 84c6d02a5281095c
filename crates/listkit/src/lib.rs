//! # listkit — linked-list substrate for the Reid-Miller reproduction
//!
//! The paper represents a linked list as a pair of arrays: a *link* array
//! (`next[v]` is the index of the successor of vertex `v`) and a *value*
//! array. The tail of the list is a **self-loop**: `next[tail] == tail`.
//! This crate provides:
//!
//! * [`LinkedList`] / [`ValuedList`] — the array-of-links representation,
//!   with validated construction;
//! * [`gen`] — deterministic, seedable workload generators (random
//!   permutation order, sequential, reversed, strided, blocked locality);
//! * [`ScanOp`] and concrete operators — the binary associative "sum" of
//!   the paper's list scan, including a non-commutative operator
//!   ([`ops::AffineOp`]) used to verify that implementations respect list
//!   order;
//! * [`serial`] — reference serial list rank / list scan (paper §2.1);
//! * [`sharded`] — chunked representation for lists beyond one worker's
//!   scratch budget: shard-local ranking plus a contracted boundary
//!   list for the cross-shard stitch;
//! * [`dynamic`] — mutable list editing (splice / delete / append)
//!   applied as atomic batches;
//! * [`packed`] — the one-gather encoding of (value, link) in a single
//!   64-bit word (paper §3, the list-ranking fast path);
//! * [`walk`] — the K-lane interleaved traversal engine: the modern
//!   analogue of the paper's vectorized sublist traversal, keeping K
//!   independent cache misses in flight per worker so pointer-chasing
//!   hot paths hide DRAM latency instead of serializing on it;
//! * [`validate`] — structural validation with precise error reporting;
//! * [`pages`] — list-sized buffers advised onto transparent huge pages.
//!
//! ## Conventions
//!
//! *Rank* of a vertex = number of vertices preceding it (head has rank 0).
//! *Scan* of a vertex = the operator-sum of the **values of all prior
//! vertices** (exclusive prefix; head gets the identity). This matches the
//! paper: list ranking is list scan with integer addition over all-ones.

// `deny` rather than `forbid`: the [`walk`] module's hot loops opt in
// to unchecked indexing (justified by `LinkedList`'s
// validated-at-construction invariants and shadowed by debug asserts),
// [`validate`] drives the same loop over links it has just
// range-checked, and [`pages`] declares `madvise`; everything else
// stays unsafe-free.
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod dynamic;
pub mod gen;
pub mod list;
pub mod ops;
pub mod packed;
pub mod pages;
pub mod segmented;
pub mod serial;
pub mod sharded;
pub mod validate;
pub mod walk;

pub use list::{Idx, LinkedList, ValuedList};
pub use ops::ScanOp;
pub use validate::{ListError, ListTopology};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ListError>;
