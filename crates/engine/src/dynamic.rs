//! Dynamic lists: the mutation plane over resident datasets.
//!
//! A resident dataset ([`crate::DatasetStore`]) is no longer frozen at
//! PUT time: clients send batches of splice / delete / append edits
//! against a handle and keep querying, and the dataset's one cached
//! sharded artifact is brought up to date *incrementally*, at its own
//! shard size — only the shards a batch dirtied are re-derived
//! ([`ShardedList::rebuild_dirty`]), the clean ones are shared with the
//! pre-mutation artifact by `Arc`. Shards are positional, so a batch
//! that changes the length dirties only the shards it reaches and the
//! next sharded query reuses the maintained artifact. That is the
//! paper's economics transplanted to a dynamic setting: Reid-Miller's
//! three-phase decomposition localizes all per-shard state, so an edit
//! that touches few shards invalidates few shards, and the stitch over
//! the contracted list is the only global work left.
//!
//! Incremental is not always cheaper. A batch that dirties most shards
//! pays nearly the full build *plus* the serial boundary re-assembly,
//! and a fragment-heavy (random-permutation) topology makes that serial
//! term dominate outright. The choice is therefore a planner decision
//! ([`crate::Planner::choose_maintenance`]): the
//! [`rankmodel::predict::predict_patch`] cost model is the cold-start
//! prior, and measured maintenance times (their own EWMA history,
//! separate from query dispatch) migrate the crossover to wherever this
//! machine actually puts it.
//!
//! Correctness contract, same as everywhere else in this repo: after a
//! mutation, ranking the dataset is **byte-identical** to ranking a
//! from-scratch serial pass over the post-mutation list — at every lane
//! count and shard budget. `tests/differential.rs` enforces it with
//! random edit sequences over the topology zoo.

use crate::planner::Planner;
use crate::store::{DatasetStore, StoreError};
use listkit::dynamic::{Edit, EditError};
use listkit::sharded::ShardedList;
use std::fmt;
use std::sync::Arc;
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
    /// `true` when the dataset's artifact was patched in place (also
    /// when there was none to maintain); `false` when it took the
    /// full-recompute fallback.
    pub incremental: bool,
    /// Dirty shards patched by the incremental pass.
    pub dirty_shards: u32,
    /// Artifacts brought up to date: 1 when the dataset held an
    /// artifact of the pre-batch snapshot, else 0.
    pub artifacts: u32,
    /// Wall-clock of apply + maintenance, in nanoseconds.
    pub exec_ns: u64,
}

/// Apply one batch of edits to the dataset `handle` owned by
/// connection `conn`, then bring its cached sharded artifact up to
/// date under planner control (patch dirty shards or rebuild, per
/// [`Planner::choose_maintenance`]). The result is cached only if the
/// batch's snapshot is still current.
///
/// The batch is atomic: any invalid edit rejects the whole batch with
/// the dataset, its artifact, and its budget charges untouched.
/// Queries racing the mutation are linearized by the snapshot swap —
/// each one ranks either the full pre-batch or the full post-batch
/// list, never a half-applied state.
pub fn mutate(
    store: &DatasetStore,
    planner: &Planner,
    handle: u64,
    conn: u64,
    edits: &[Edit],
) -> Result<MutationOutcome, MutateError> {
    let started = Instant::now();
    let dataset = store.get(handle, conn)?;
    let (report, snapshot, old) = dataset.apply_edits(edits)?;
    let n = snapshot.len();

    // Maintenance now, not lazily: the handle's next sharded query
    // should pay stitch + walk, not a surprise rebuild.
    let (mut incremental, mut dirty_patched) = (true, 0);
    if let Some(old) = &old {
        let shard_size = old.shard_size();
        let dirty = report.dirty_shards(shard_size);
        let fragments = old.fragment_count();
        let decision = planner.choose_maintenance(n, shard_size, fragments, dirty.len());
        let pass = Instant::now();
        let rebuilt = if decision.incremental {
            old.rebuild_dirty(&snapshot, &dirty)
        } else {
            ShardedList::build(&snapshot, shard_size).with_lanes(old.policy().lanes)
        };
        planner.record_maintenance(
            n,
            shard_size,
            fragments,
            decision.dirty,
            decision.incremental,
            pass.elapsed().as_nanos() as u64,
        );
        incremental = decision.incremental;
        if incremental {
            dirty_patched = decision.dirty;
        }
        dataset.artifacts().install(&snapshot, &Arc::new(rebuilt));
    }
    let artifacts = u64::from(old.is_some());
    let full = u64::from(!incremental);
    store.note_mutation(report.applied as u64, artifacts - full, full, dirty_patched as u64);

    Ok(MutationOutcome {
        applied: report.applied as u32,
        len: n as u64,
        incremental,
        dirty_shards: dirty_patched.min(u32::MAX as usize) as u32,
        artifacts: artifacts as u32,
        exec_ns: started.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use listkit::serial;
    use listkit::LinkedList;

    fn ring_list(n: usize) -> Arc<LinkedList> {
        let order: Vec<u32> = (0..n as u32).rev().collect();
        Arc::new(LinkedList::from_order(&order).expect("valid order"))
    }

    fn put(store: &Arc<DatasetStore>, n: usize) -> u64 {
        store.put(7, ring_list(n)).expect("fits").handle
    }

    fn serial_ranks(list: &LinkedList) -> Vec<u64> {
        let mut out = Vec::new();
        serial::rank_into(list, &mut out);
        out
    }

    #[test]
    fn mutate_patches_cached_artifacts_byte_identically() {
        let store = Arc::new(DatasetStore::new(u64::MAX));
        let planner = Planner::new(4);
        let h = put(&store, 5000);
        // Prime an artifact, as a handle query would.
        let ds = store.get(h, 7).unwrap();
        ds.artifacts().get_or_build(&ds.list(), 512, 4);
        drop(ds);

        let out = mutate(
            &store,
            &planner,
            h,
            7,
            &[
                Edit::Splice { first: 20, last: 10, after: Some(4000) },
                Edit::Delete { v: 123 },
                Edit::Append { count: 64 },
            ],
        )
        .expect("valid batch");
        assert_eq!(out.applied, 3);
        assert_eq!(out.len, 5000 - 1 + 64);
        assert_eq!(out.artifacts, 1);

        // The patched artifact ranks byte-identically to a serial pass
        // over the post-mutation list.
        let ds = store.get(h, 7).unwrap();
        let list = ds.list();
        assert_eq!(list.len(), out.len as usize);
        let sharded = ds.artifacts().get_or_build(&list, 512, 4);
        let mut got = Vec::new();
        sharded.rank_into(&mut got);
        assert_eq!(got, serial_ranks(&list), "patched artifact must match serial");
        // And it was a maintenance pass, not a cache rebuild from
        // scratch via get_or_build (which would count artifacts_built).
        assert_eq!(store.stats().artifacts_built, 1, "only the priming build");
        let m = store.mutation_stats();
        assert_eq!(m.mutations, 1);
        assert_eq!(m.edits, 3);
        assert_eq!(m.incremental + m.full, 1);
    }

    #[test]
    fn mutate_without_artifacts_is_incremental_with_nothing_patched() {
        let store = Arc::new(DatasetStore::new(u64::MAX));
        let planner = Planner::new(2);
        let h = put(&store, 100);
        let out = mutate(&store, &planner, h, 7, &[Edit::Append { count: 1 }]).unwrap();
        assert!(out.incremental);
        assert_eq!((out.artifacts, out.dirty_shards), (0, 0));
        assert_eq!(out.len, 101);
    }

    #[test]
    fn mutate_refusals_are_typed_and_leave_the_dataset_alone() {
        let store = Arc::new(DatasetStore::new(u64::MAX));
        let planner = Planner::new(2);
        let h = put(&store, 50);
        // Unknown handle and foreign connection are both stale.
        assert_eq!(
            mutate(&store, &planner, h + 1, 7, &[Edit::Append { count: 1 }]),
            Err(MutateError::Stale)
        );
        assert_eq!(
            mutate(&store, &planner, h, 8, &[Edit::Append { count: 1 }]),
            Err(MutateError::Stale)
        );
        // A bad edit anywhere in the batch rejects the whole batch.
        let before = store.get(h, 7).unwrap().list();
        let err =
            mutate(&store, &planner, h, 7, &[Edit::Append { count: 9 }, Edit::Delete { v: 999 }])
                .unwrap_err();
        assert!(matches!(err, MutateError::Edit(EditError::VertexOutOfRange { .. })), "{err}");
        let after = store.get(h, 7).unwrap().list();
        assert_eq!(after.len(), before.len(), "atomic batch: nothing applied");
        assert_eq!(store.mutation_stats().mutations, 0);
        // Empty batches are typed too.
        let err = mutate(&store, &planner, h, 7, &[]).unwrap_err();
        assert!(matches!(err, MutateError::Edit(EditError::EmptyBatch)));
    }

    #[test]
    fn queries_pinned_before_a_mutation_keep_their_snapshot() {
        let store = Arc::new(DatasetStore::new(u64::MAX));
        let planner = Planner::new(2);
        let h = put(&store, 200);
        let ds = store.get(h, 7).unwrap();
        let pinned = ds.list();
        mutate(&store, &planner, h, 7, &[Edit::Delete { v: 3 }]).unwrap();
        assert_eq!(pinned.len(), 200, "pre-mutation snapshot survives");
        assert_eq!(ds.list().len(), 199, "re-reading sees the new snapshot");
    }
}
