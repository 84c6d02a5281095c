//! Resident dataset store: the handle-based data plane.
//!
//! Shipping a successor array on every RANK/SCAN frame means a request
//! on a 10⁸-vertex list moves ~800 MB before any ranking happens — the
//! socket measures memcpy, not the paper's algorithm (Reid-Miller's
//! C-90 numbers assume the list is *resident*). The store fixes the
//! economics: a client `PUT`s a list once, receives a 64-bit handle,
//! and every later query names the handle instead of re-sending (and
//! re-validating) the data.
//!
//! * **Validated once** — the O(n) structural validation in
//!   [`LinkedList::new`] runs at PUT; handle queries skip decode and
//!   validation entirely.
//! * **One artifact per dataset** — the first sharded query against a
//!   dataset builds a [`ShardedList`] (shard decomposition + boundary
//!   table + lane policy) and caches it in the dataset's one slot,
//!   bound to the snapshot it was built from ([`ArtifactCache`]);
//!   later sharded queries on that snapshot reuse it, whatever shard
//!   size they ask for, and pay only stitch + walk.
//! * **Byte-budgeted LRU** — resident bytes (lists + cached artifacts)
//!   never exceed the configured budget. PUT evicts idle
//!   least-recently-used datasets to make room and fails with
//!   [`StoreError::StoreFull`] when the budget cannot be met; an
//!   artifact that doesn't fit is still used for its query, just not
//!   cached (build–use–discard).
//! * **Refcounted eviction** — every resolved query holds a
//!   [`DatasetRef`] guard; entries with live guards are never evicted,
//!   so eviction cannot free a dataset mid-query. `Arc` semantics back
//!   this up: even an explicit DROP only unlinks the entry, in-flight
//!   queries complete on their clone.
//! * **Connection-scoped handles** — like file descriptors, a handle
//!   belongs to the connection that PUT it: queries or DROPs from any
//!   other connection see [`StoreError::StaleHandle`], and a handler
//!   that disconnects drops everything it owned.
//!
//! * **Mutable datasets** — a resident list can be edited in place
//!   (splice / delete / append batches, [`DatasetRef::apply_edits`]):
//!   the entry keeps an editable next+prev mirror, the query-visible
//!   list is an atomically swapped snapshot (in-flight queries finish
//!   on the pre-mutation `Arc`), and footprint deltas are re-charged
//!   against the budget. The snapshot and its artifact share one lock,
//!   so publishing a snapshot takes the old artifact out with it. The
//!   incremental artifact maintenance built on top lives in
//!   [`crate::dynamic`].
//!
//! The store is transport-agnostic (no sockets here); `engine::server`
//! shares one instance across client handlers, and `tests/store.rs`
//! property-tests the invariants directly.

use listkit::dynamic::{Edit, EditError, EditReport, MutableList};
use listkit::sharded::ShardedList;
use listkit::LinkedList;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Default byte budget for resident datasets and artifacts (1 GiB).
pub const DEFAULT_STORE_BUDGET: u64 = 1 << 30;

/// Lock a store mutex, riding through poisoning. A panic inside a
/// client handler (isolated at the serving layer) must not brick the
/// store for every *other* connection: each critical section here
/// re-establishes its invariants from scratch (byte accounting is
/// recomputed against the entry map, never incrementally trusted
/// across a panic), so continuing past a poisoned flag degrades one
/// operation's accounting at worst — strictly better than turning the
/// whole data plane into a panic cascade.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Why a store operation was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The handle does not name a resident dataset owned by this
    /// connection — never issued, already dropped, evicted, or PUT by
    /// a different connection.
    StaleHandle,
    /// Admitting the dataset would exceed the byte budget even after
    /// evicting every idle resident entry.
    StoreFull,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::StaleHandle => write!(f, "stale dataset handle"),
            StoreError::StoreFull => write!(f, "dataset store budget exhausted"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Receipt for a successful PUT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PutReceipt {
    /// Handle naming the resident dataset in later queries.
    pub handle: u64,
    /// Bytes charged against the store budget for the list itself
    /// (artifacts built later are charged separately).
    pub bytes: u64,
}

/// Point-in-time snapshot of the store's counters and occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Configured byte budget.
    pub budget_bytes: u64,
    /// Bytes currently resident (lists + cached artifacts).
    pub resident_bytes: u64,
    /// Datasets currently resident.
    pub resident_count: u64,
    /// Successful PUTs.
    pub puts: u64,
    /// Datasets removed by explicit DROP or connection teardown.
    pub drops: u64,
    /// Handle resolution attempts (`hits + misses == lookups`).
    pub lookups: u64,
    /// Lookups that resolved to a resident dataset.
    pub hits: u64,
    /// Lookups that found no dataset for the (handle, connection).
    pub misses: u64,
    /// Datasets evicted by LRU pressure.
    pub evictions: u64,
    /// PUTs refused because the budget could not be met.
    pub put_rejected: u64,
    /// Sharded artifacts built by queries whose snapshot had none
    /// cached. Maintenance after a mutation is counted in
    /// [`MutationStats`], not here.
    pub artifacts_built: u64,
    /// Sharded queries served the artifact cached for their snapshot.
    pub artifacts_reused: u64,
}

/// Point-in-time snapshot of the store's mutation-plane counters,
/// fed by [`crate::dynamic`] as batches land.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutationStats {
    /// Mutation batches applied.
    pub mutations: u64,
    /// Individual edits applied (batches sum their edit counts).
    pub edits: u64,
    /// Artifact maintenance passes that patched dirty shards in place.
    pub incremental: u64,
    /// Artifact maintenance passes that rebuilt from scratch.
    pub full: u64,
    /// Dirty shards patched by incremental passes.
    pub dirty_shards_patched: u64,
}

/// Estimated resident footprint of a validated list: the `u32`
/// successor array plus fixed header overhead. An estimate, not an
/// allocator measurement — the budget is a capacity-planning knob, not
/// an accounting ledger.
pub fn list_footprint(list: &LinkedList) -> u64 {
    4 * list.len() as u64 + 96
}

/// Estimated resident footprint of a built sharded artifact: shard-
/// local successor arrays (≈4 B/vertex), boundary-table rows, and
/// per-shard headers.
pub fn artifact_footprint(sharded: &ShardedList) -> u64 {
    4 * sharded.len() as u64
        + 16 * sharded.fragment_count() as u64
        + 64 * sharded.shard_count() as u64
        + 96
}

struct DatasetEntry {
    handle: u64,
    owner: u64,
    /// Footprint currently charged for the list (tracks length changes
    /// from mutations). Mutated only under the store lock.
    list_bytes: AtomicU64,
    /// Artifact bytes charged to this entry. Mutated only under the
    /// store lock; atomic so the eviction scan can read it through the
    /// shared `Arc` without aliasing games.
    artifact_bytes: AtomicU64,
    /// Bytes charged for the editable mirror (zero until the first
    /// mutation materializes it). Mutated only under the store lock.
    dynamic_bytes: AtomicU64,
    /// Editable next+prev mirror of the list, materialized by the first
    /// mutation batch. The lock also serializes mutation batches per
    /// dataset: the apply → snapshot → swap sequence runs under it.
    dynamic: Mutex<Option<MutableList>>,
    /// Live [`DatasetRef`] guards. Incremented under the store lock,
    /// decremented lock-free on guard drop; the eviction scan (under
    /// the lock) skips any entry it observes in use, so the race only
    /// ever delays an eviction, never frees a dataset mid-query.
    in_use: AtomicU64,
    /// The query-visible snapshot and the artifact built from it.
    artifacts: Arc<ArtifactCache>,
}

impl DatasetEntry {
    fn total_bytes(&self) -> u64 {
        self.list_bytes.load(Ordering::Relaxed)
            + self.artifact_bytes.load(Ordering::Relaxed)
            + self.dynamic_bytes.load(Ordering::Relaxed)
    }
}

struct Inner {
    entries: HashMap<u64, Arc<DatasetEntry>>,
    /// Handles in recency order: front = least recently used.
    order: Vec<u64>,
    resident_bytes: u64,
    next_handle: u64,
}

/// The byte-budgeted resident dataset store. One instance is shared by
/// every client handler of a server; see the [module docs](self) for
/// the invariants it maintains.
pub struct DatasetStore {
    budget: u64,
    inner: Mutex<Inner>,
    puts: AtomicU64,
    drops: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    put_rejected: AtomicU64,
    artifacts_built: AtomicU64,
    artifacts_reused: AtomicU64,
    mutations: AtomicU64,
    edits: AtomicU64,
    mutate_incremental: AtomicU64,
    mutate_full: AtomicU64,
    dirty_shards_patched: AtomicU64,
}

impl fmt::Debug for DatasetStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("DatasetStore")
            .field("budget", &s.budget_bytes)
            .field("resident_bytes", &s.resident_bytes)
            .field("resident_count", &s.resident_count)
            .finish()
    }
}

impl DatasetStore {
    /// An empty store with the given byte budget.
    pub fn new(budget: u64) -> Self {
        DatasetStore {
            budget,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                order: Vec::new(),
                resident_bytes: 0,
                next_handle: 1,
            }),
            puts: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            put_rejected: AtomicU64::new(0),
            artifacts_built: AtomicU64::new(0),
            artifacts_reused: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            edits: AtomicU64::new(0),
            mutate_incremental: AtomicU64::new(0),
            mutate_full: AtomicU64::new(0),
            dirty_shards_patched: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Admit a validated list for connection `conn`, evicting idle LRU
    /// entries as needed. Handles are sequential, start at 1, and are
    /// never reused.
    pub fn put(
        self: &Arc<Self>,
        conn: u64,
        list: Arc<LinkedList>,
    ) -> Result<PutReceipt, StoreError> {
        let bytes = list_footprint(&list);
        let mut inner = lock_unpoisoned(&self.inner);
        if !self.evict_to_fit(&mut inner, bytes, None) {
            self.put_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::StoreFull);
        }
        let handle = inner.next_handle;
        inner.next_handle += 1;
        let entry = Arc::new(DatasetEntry {
            handle,
            owner: conn,
            list_bytes: AtomicU64::new(bytes),
            artifact_bytes: AtomicU64::new(0),
            dynamic_bytes: AtomicU64::new(0),
            dynamic: Mutex::new(None),
            in_use: AtomicU64::new(0),
            artifacts: Arc::new(ArtifactCache {
                handle,
                store: Arc::downgrade(self),
                slot: Mutex::new(Slot { list, artifact: None }),
            }),
        });
        inner.entries.insert(handle, entry);
        inner.order.push(handle);
        inner.resident_bytes += bytes;
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(PutReceipt { handle, bytes })
    }

    /// Resolve `handle` for connection `conn` into a pinned guard. The
    /// entry moves to most-recently-used and cannot be evicted while
    /// the guard lives.
    pub fn get(&self, handle: u64, conn: u64) -> Result<DatasetRef, StoreError> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut inner = lock_unpoisoned(&self.inner);
        match inner.entries.get(&handle) {
            Some(entry) if entry.owner == conn => {
                let entry = Arc::clone(entry);
                entry.in_use.fetch_add(1, Ordering::Relaxed);
                inner.order.retain(|&h| h != handle);
                inner.order.push(handle);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(DatasetRef { entry })
            }
            _ => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Err(StoreError::StaleHandle)
            }
        }
    }

    /// Drop the dataset named by `handle` if connection `conn` owns
    /// it. In-flight queries holding a [`DatasetRef`] complete on their
    /// pinned clone; the handle is stale from this call on.
    pub fn drop_dataset(&self, handle: u64, conn: u64) -> Result<(), StoreError> {
        let mut inner = lock_unpoisoned(&self.inner);
        match inner.entries.get(&handle) {
            Some(entry) if entry.owner == conn => {
                let entry = inner.entries.remove(&handle).expect("entry just observed");
                inner.order.retain(|&h| h != handle);
                inner.resident_bytes -= entry.total_bytes();
                self.drops.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            _ => Err(StoreError::StaleHandle),
        }
    }

    /// Drop every dataset owned by connection `conn` (handler
    /// teardown). Returns how many were removed.
    pub fn drop_connection(&self, conn: u64) -> usize {
        let mut inner = lock_unpoisoned(&self.inner);
        let doomed: Vec<u64> =
            inner.entries.values().filter(|e| e.owner == conn).map(|e| e.handle).collect();
        for handle in &doomed {
            let entry = inner.entries.remove(handle).expect("listed above");
            inner.resident_bytes -= entry.total_bytes();
        }
        inner.order.retain(|h| !doomed.contains(h));
        self.drops.fetch_add(doomed.len() as u64, Ordering::Relaxed);
        doomed.len()
    }

    /// Bytes currently resident under datasets owned by connection
    /// `conn` — the server's per-tenant store-quota check. A linear
    /// scan over resident entries: the store holds tens of datasets,
    /// not millions, and PUT is already a copy-heavy path.
    pub fn owned_bytes(&self, conn: u64) -> u64 {
        lock_unpoisoned(&self.inner)
            .entries
            .values()
            .filter(|e| e.owner == conn)
            .map(|e| e.total_bytes())
            .sum()
    }

    /// Resident handles in recency order (least recently used first) —
    /// introspection for the property-test harness.
    pub fn resident_handles(&self) -> Vec<u64> {
        lock_unpoisoned(&self.inner).order.clone()
    }

    /// Snapshot of counters and occupancy.
    pub fn stats(&self) -> StoreStats {
        let (resident_bytes, resident_count) = {
            let inner = lock_unpoisoned(&self.inner);
            (inner.resident_bytes, inner.entries.len() as u64)
        };
        StoreStats {
            budget_bytes: self.budget,
            resident_bytes,
            resident_count,
            puts: self.puts.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            put_rejected: self.put_rejected.load(Ordering::Relaxed),
            artifacts_built: self.artifacts_built.load(Ordering::Relaxed),
            artifacts_reused: self.artifacts_reused.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the mutation-plane counters.
    pub fn mutation_stats(&self) -> MutationStats {
        MutationStats {
            mutations: self.mutations.load(Ordering::Relaxed),
            edits: self.edits.load(Ordering::Relaxed),
            incremental: self.mutate_incremental.load(Ordering::Relaxed),
            full: self.mutate_full.load(Ordering::Relaxed),
            dirty_shards_patched: self.dirty_shards_patched.load(Ordering::Relaxed),
        }
    }

    /// Count one applied mutation batch and its artifact maintenance
    /// passes (called by [`crate::dynamic`] after the batch lands).
    pub(crate) fn note_mutation(
        &self,
        edits: u64,
        incremental_passes: u64,
        full_passes: u64,
        dirty_shards: u64,
    ) {
        self.mutations.fetch_add(1, Ordering::Relaxed);
        self.edits.fetch_add(edits, Ordering::Relaxed);
        self.mutate_incremental.fetch_add(incremental_passes, Ordering::Relaxed);
        self.mutate_full.fetch_add(full_passes, Ordering::Relaxed);
        self.dirty_shards_patched.fetch_add(dirty_shards, Ordering::Relaxed);
    }

    /// Evict idle LRU entries (skipping `exclude`) until `need` more
    /// bytes fit under the budget. Returns `false` — evicting nothing
    /// further — when every remaining entry is pinned by a live guard
    /// or excluded.
    fn evict_to_fit(&self, inner: &mut Inner, need: u64, exclude: Option<u64>) -> bool {
        while inner.resident_bytes + need > self.budget {
            let victim = inner.order.iter().copied().find(|&h| {
                Some(h) != exclude
                    && inner.entries.get(&h).is_some_and(|e| e.in_use.load(Ordering::Relaxed) == 0)
            });
            let Some(victim) = victim else { return false };
            let entry = inner.entries.remove(&victim).expect("victim listed in order");
            inner.order.retain(|&h| h != victim);
            inner.resident_bytes -= entry.total_bytes();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Charge `bytes` of freshly built artifact to `handle`, evicting
    /// idle entries (never `handle` itself) to stay within budget.
    /// `false` means the artifact should not be cached.
    fn try_charge(&self, handle: u64, bytes: u64) -> bool {
        let mut inner = lock_unpoisoned(&self.inner);
        let Some(entry) = inner.entries.get(&handle).map(Arc::clone) else {
            return false;
        };
        if !self.evict_to_fit(&mut inner, bytes, Some(handle)) {
            return false;
        }
        inner.resident_bytes += bytes;
        entry.artifact_bytes.fetch_add(bytes, Ordering::Relaxed);
        true
    }

    /// Move one of `handle`'s charged-byte accounts (list, mirror, or
    /// artifact — chosen by `account`) from `old` to `new` bytes,
    /// evicting idle entries on growth. Mutations are applied in
    /// place, so unlike PUT this never fails: if nothing idle can be
    /// evicted the store runs transiently over budget and the next PUT
    /// sheds the pressure.
    ///
    /// No-op when the entry is already gone, and that is load-bearing:
    /// a DROP (or eviction) subtracts the entry's *current*
    /// `total_bytes()`, which includes every charge made so far, so
    /// re-charging a removed entry would double-count. `tests/store.rs`
    /// races drops against artifact builds to pin the end state (all
    /// handles dropped ⇒ zero resident bytes).
    fn recharge(
        &self,
        handle: u64,
        account: impl Fn(&DatasetEntry) -> &AtomicU64,
        old: u64,
        new: u64,
    ) {
        let mut inner = lock_unpoisoned(&self.inner);
        let Some(entry) = inner.entries.get(&handle).map(Arc::clone) else {
            return;
        };
        if new > old {
            self.evict_to_fit(&mut inner, new - old, Some(handle));
            inner.resident_bytes += new - old;
        } else {
            inner.resident_bytes = inner.resident_bytes.saturating_sub(old - new);
        }
        let a = account(&entry);
        let cur = a.load(Ordering::Relaxed);
        a.store((cur + new).saturating_sub(old), Ordering::Relaxed);
    }
}

/// Pinned reference to a resident dataset: while it lives, the entry
/// cannot be evicted. Obtained from [`DatasetStore::get`]; held by the
/// server for the full lifetime of a handle-routed query.
pub struct DatasetRef {
    entry: Arc<DatasetEntry>,
}

impl DatasetRef {
    /// The dataset's handle.
    pub fn handle(&self) -> u64 {
        self.entry.handle
    }

    /// The resident, already-validated list — the current snapshot.
    /// Clones the `Arc` under a brief lock; a concurrent mutation swaps
    /// the entry's snapshot but never this clone.
    pub fn list(&self) -> Arc<LinkedList> {
        Arc::clone(&lock_unpoisoned(&self.entry.artifacts.slot).list)
    }

    /// Vertices in the dataset (its current snapshot).
    pub fn len(&self) -> usize {
        self.list().len()
    }

    /// A pinned dataset is never empty ([`LinkedList`] forbids it).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The dataset's artifact slot, to thread into a
    /// [`Request`](crate::Request) via
    /// [`with_artifacts`](crate::Request::with_artifacts).
    pub fn artifacts(&self) -> Arc<ArtifactCache> {
        Arc::clone(&self.entry.artifacts)
    }

    /// Apply one atomic batch of edits to the resident dataset:
    /// materialize the editable next+prev mirror on first use, apply
    /// the batch (all-or-nothing — a rejected edit leaves the dataset
    /// untouched), publish the post-edit snapshot, and re-charge
    /// footprint deltas against the budget. Publishing takes the
    /// pre-edit snapshot's artifact out of the slot and uncharges it in
    /// the same critical section, so no artifact outlives its list.
    /// Returns the edit report, the new snapshot and the old artifact.
    ///
    /// Concurrent batches against the same handle serialize on the
    /// mirror lock; queries resolved before the swap complete on their
    /// pre-mutation snapshot (`Arc` semantics, same rule as DROP).
    /// Bringing the old artifact up to date is the caller's job — see
    /// [`crate::dynamic`], which patches dirty shards or rebuilds under
    /// planner control.
    pub fn apply_edits(&self, edits: &[Edit]) -> Result<Published, EditError> {
        let entry = &self.entry;
        let mut dynamic = lock_unpoisoned(&entry.dynamic);
        let store = entry.artifacts.store.upgrade();
        if dynamic.is_none() {
            let mirror = MutableList::from_list(&self.list());
            if let Some(store) = &store {
                store.recharge(entry.handle, |e| &e.dynamic_bytes, 0, mirror.footprint());
            }
            *dynamic = Some(mirror);
        }
        let mirror = dynamic.as_mut().expect("materialized above");
        let old_mirror_bytes = mirror.footprint();
        let report = mirror.apply(edits)?;
        let snapshot = Arc::new(mirror.snapshot());
        let old_list_bytes = entry.list_bytes.load(Ordering::Relaxed);
        let old_artifact = {
            let mut slot = lock_unpoisoned(&entry.artifacts.slot);
            slot.list = Arc::clone(&snapshot);
            let old = slot.artifact.take();
            if let (Some(store), Some(old)) = (&store, &old) {
                store.recharge(entry.handle, |e| &e.artifact_bytes, artifact_footprint(old), 0);
            }
            old
        };
        if let Some(store) = &store {
            store.recharge(
                entry.handle,
                |e| &e.list_bytes,
                old_list_bytes,
                list_footprint(&snapshot),
            );
            store.recharge(
                entry.handle,
                |e| &e.dynamic_bytes,
                old_mirror_bytes,
                mirror.footprint(),
            );
        }
        Ok((report, snapshot, old_artifact))
    }
}

impl Drop for DatasetRef {
    fn drop(&mut self) {
        self.entry.in_use.fetch_sub(1, Ordering::Relaxed);
    }
}

impl fmt::Debug for DatasetRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DatasetRef")
            .field("handle", &self.entry.handle)
            .field("len", &self.len())
            .finish()
    }
}

/// What [`DatasetRef::apply_edits`] returns: the edit report, the new
/// snapshot, and the artifact the slot held for the old one.
pub type Published = (EditReport, Arc<LinkedList>, Option<Arc<ShardedList>>);

/// A dataset's query-visible snapshot and the one artifact built from
/// it, under one lock so the two always change together.
struct Slot {
    list: Arc<LinkedList>,
    artifact: Option<Arc<ShardedList>>,
}

/// A resident dataset's current snapshot and its one cached
/// [`ShardedList`] artifact. Workers call
/// [`get_or_build`](ArtifactCache::get_or_build) from the engine's
/// sharded execution arm; the artifact's bytes are charged through the
/// owning store, so it competes for the same budget as the lists. The
/// artifact is bound to its snapshot: a job pinned to an older
/// snapshot can neither reuse nor cache an artifact for the dataset.
pub struct ArtifactCache {
    handle: u64,
    store: Weak<DatasetStore>,
    slot: Mutex<Slot>,
}

impl ArtifactCache {
    /// The sharded artifact of `list`: the cached one when `list` is
    /// the dataset's current snapshot and has one, else a fresh build.
    /// `shard_size` and `lanes` shape only a fresh build. The build is
    /// cached if `list` is still current, the slot is still empty and
    /// the budget can be met; otherwise it serves this query uncached.
    pub fn get_or_build(
        &self,
        list: &Arc<LinkedList>,
        shard_size: usize,
        lanes: usize,
    ) -> Arc<ShardedList> {
        let store = self.store.upgrade();
        let hit = {
            let slot = lock_unpoisoned(&self.slot);
            slot.artifact.clone().filter(|_| Arc::ptr_eq(&slot.list, list))
        };
        if let Some(hit) = hit {
            if let Some(store) = &store {
                store.artifacts_reused.fetch_add(1, Ordering::Relaxed);
            }
            return hit;
        }
        let built = Arc::new(ShardedList::build(list, shard_size).with_lanes(lanes));
        if let Some(store) = &store {
            store.artifacts_built.fetch_add(1, Ordering::Relaxed);
        }
        self.install(list, &built);
        built
    }

    /// Cache `artifact`, built from `list`, if `list` is still the
    /// current snapshot, the slot is empty, and its bytes can be
    /// charged. The charge happens under the slot lock, so a lost race
    /// never charges at all.
    pub(crate) fn install(&self, list: &Arc<LinkedList>, artifact: &Arc<ShardedList>) {
        let Some(store) = self.store.upgrade() else { return };
        let mut slot = lock_unpoisoned(&self.slot);
        if Arc::ptr_eq(&slot.list, list)
            && slot.artifact.is_none()
            && store.try_charge(self.handle, artifact_footprint(artifact))
        {
            slot.artifact = Some(Arc::clone(artifact));
        }
    }
}

impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("handle", &self.handle)
            .field("cached", &lock_unpoisoned(&self.slot).artifact.is_some())
            .finish()
    }
}
