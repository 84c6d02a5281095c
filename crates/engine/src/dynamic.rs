//! Dynamic lists: the mutation plane over resident datasets.
//!
//! A resident dataset ([`crate::DatasetStore`]) is no longer frozen at
//! PUT time: clients send batches of splice / delete / append edits
//! against a handle and keep querying. A batch publishes a new snapshot
//! and drops the rank array kept for the old one, in O(1); the next
//! query on the dataset ranks the new snapshot once and keeps that
//! array ([`crate::store`]). Nothing in the batch itself scales with
//! the list beyond the edit mirror's own bookkeeping.
//!
//! Correctness contract, same as everywhere else in this repo: after a
//! mutation, ranking or scanning the dataset is **byte-identical** to a
//! from-scratch serial pass over the post-mutation list.
//! `tests/differential.rs` enforces it with random edit sequences over
//! the topology zoo.

use crate::store::{DatasetStore, StoreError};
use listkit::dynamic::{Edit, EditError};
use std::fmt;
use std::time::Instant;

/// Why a mutation request was refused. The dataset is untouched in
/// every refusal case (batches are atomic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutateError {
    /// The handle does not name a resident dataset owned by this
    /// connection.
    Stale,
    /// The batch was structurally invalid (out-of-range vertex, target
    /// inside the spliced run, empty batch, …).
    Edit(EditError),
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::Stale => write!(f, "stale dataset handle"),
            MutateError::Edit(e) => write!(f, "bad mutation: {e}"),
        }
    }
}

impl std::error::Error for MutateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutateError::Stale => None,
            MutateError::Edit(e) => Some(e),
        }
    }
}

impl From<StoreError> for MutateError {
    fn from(_: StoreError) -> Self {
        // Both store refusals (stale handle, budget) surface as
        // staleness to the mutation plane: a mutation never admits new
        // datasets, so `StoreFull` cannot occur on this path.
        MutateError::Stale
    }
}

impl From<EditError> for MutateError {
    fn from(e: EditError) -> Self {
        MutateError::Edit(e)
    }
}

/// What one applied mutation batch did — the body of the `MUTATE_OK`
/// wire reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Edits applied (the whole batch, or the request failed).
    pub applied: u32,
    /// Post-mutation dataset length.
    pub len: u64,
    /// Wall-clock of the apply, in nanoseconds.
    pub exec_ns: u64,
}

/// Apply one batch of edits to the dataset `handle` owned by
/// connection `conn`, publishing the post-batch snapshot and dropping
/// the rank array kept for the old one.
///
/// The batch is atomic: any invalid edit rejects the whole batch with
/// the dataset, its rank array, and its budget charges untouched.
/// Queries racing the mutation are linearized by the snapshot swap —
/// each one ranks either the full pre-batch or the full post-batch
/// list, never a half-applied state.
pub fn mutate(
    store: &DatasetStore,
    handle: u64,
    conn: u64,
    edits: &[Edit],
) -> Result<MutationOutcome, MutateError> {
    let started = Instant::now();
    let dataset = store.get(handle, conn)?;
    let (report, snapshot) = dataset.apply_edits(edits)?;
    store.note_mutation(report.applied as u64);
    Ok(MutationOutcome {
        applied: report.applied as u32,
        len: snapshot.len() as u64,
        exec_ns: started.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use listkit::LinkedList;
    use listrank::host::RankScratch;
    use listrank::{Algorithm, HostRunner};
    use std::sync::Arc;

    fn ring_list(n: usize) -> Arc<LinkedList> {
        let order: Vec<u32> = (0..n as u32).rev().collect();
        Arc::new(LinkedList::from_order(&order).expect("valid order"))
    }

    fn put(store: &Arc<DatasetStore>, n: usize) -> u64 {
        store.put(7, ring_list(n)).expect("fits").handle
    }

    #[test]
    fn mutate_drops_the_kept_ranks_and_the_next_build_sees_the_edits() {
        let store = Arc::new(DatasetStore::new(u64::MAX));
        let h = put(&store, 5000);
        let runner = HostRunner::new(Algorithm::ReidMiller);
        let mut scratch = RankScratch::default();
        // Keep a rank array, as a handle query would.
        let ds = store.get(h, 7).unwrap();
        ds.artifacts().get_or_build(&ds.list(), &runner, &mut scratch);
        let kept = store.stats().resident_bytes;

        let out = mutate(
            &store,
            h,
            7,
            &[
                Edit::Splice { first: 20, last: 10, after: Some(4000) },
                Edit::Delete { v: 123 },
                Edit::Append { count: 64 },
            ],
        )
        .expect("valid batch");
        assert_eq!((out.applied, out.len), (3, 5000 - 1 + 64));
        let list = ds.list();
        assert_eq!(list.len(), out.len as usize);
        assert!(ds.artifacts().kept(&list).is_none(), "the batch dropped the array");
        assert_eq!(ds.snapshot().1.map(|r| r.len()), None, "nothing kept for any snapshot");

        // The next build ranks the post-mutation list and is kept.
        let ranks = ds.artifacts().get_or_build(&list, &runner, &mut scratch).0;
        let mut got = vec![0u64; list.len()];
        ranks.rank_mapped(&mut got, |r| r);
        assert_eq!(got, listkit::serial::rank(&list), "rebuilt ranks must match serial");
        assert!(Arc::ptr_eq(&ds.artifacts().kept(&list).expect("kept"), &ranks));
        let st = store.stats();
        assert_eq!((st.artifacts_built, st.artifacts_reused), (2, 0));
        assert!(st.resident_bytes > kept, "the new array and the mirror are charged");
        let m = store.mutation_stats();
        assert_eq!((m.mutations, m.edits), (1, 3));
    }

    #[test]
    fn mutate_refusals_are_typed_and_leave_the_dataset_alone() {
        let store = Arc::new(DatasetStore::new(u64::MAX));
        let h = put(&store, 50);
        // Unknown handle and foreign connection are both stale.
        assert_eq!(mutate(&store, h + 1, 7, &[Edit::Append { count: 1 }]), Err(MutateError::Stale));
        assert_eq!(mutate(&store, h, 8, &[Edit::Append { count: 1 }]), Err(MutateError::Stale));
        // A bad edit anywhere in the batch rejects the whole batch.
        let before = store.get(h, 7).unwrap().list();
        let err = mutate(&store, h, 7, &[Edit::Append { count: 9 }, Edit::Delete { v: 999 }])
            .unwrap_err();
        assert!(matches!(err, MutateError::Edit(EditError::VertexOutOfRange { .. })), "{err}");
        let after = store.get(h, 7).unwrap().list();
        assert_eq!(after.len(), before.len(), "atomic batch: nothing applied");
        assert_eq!(store.mutation_stats().mutations, 0);
        // Empty batches are typed too.
        let err = mutate(&store, h, 7, &[]).unwrap_err();
        assert!(matches!(err, MutateError::Edit(EditError::EmptyBatch)));
    }

    #[test]
    fn queries_pinned_before_a_mutation_keep_their_snapshot() {
        let store = Arc::new(DatasetStore::new(u64::MAX));
        let h = put(&store, 200);
        let ds = store.get(h, 7).unwrap();
        let pinned = ds.list();
        mutate(&store, h, 7, &[Edit::Delete { v: 3 }]).unwrap();
        assert_eq!(pinned.len(), 200, "pre-mutation snapshot survives");
        assert_eq!(ds.list().len(), 199, "re-reading sees the new snapshot");
    }
}
