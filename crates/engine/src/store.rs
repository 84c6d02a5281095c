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
//! * **The rank is kept** — the first query on a dataset's snapshot
//!   ranks it once, writing `u32` ranks and their inverse, the position
//!   order, into a [`RankArray`], and keeps the array in the dataset's
//!   one artifact slot, bound to the snapshot it was built from
//!   ([`ArtifactCache`]). Ranks reorder the
//!   list into an array (the paper's §2), so every later query on that
//!   snapshot is an array pass: `RANK_H` widens the kept ranks, and
//!   `SCAN_H`/`SEGSCAN_H` scan their values in place along the kept
//!   position order ([`RankArray::scan_in_place`]). Sharded queries by
//!   handle are served the same way.
//! * **Byte-budgeted LRU** — resident bytes (lists + kept rank arrays)
//!   never exceed the configured budget. PUT evicts idle
//!   least-recently-used datasets to make room and fails with
//!   [`StoreError::StoreFull`] when the budget cannot be met. A rank
//!   array is kept only if its 8 bytes per vertex fit as the budget
//!   stands — it never evicts a dataset; one that does not fit still
//!   serves the query that built it, and is then discarded
//!   (build–use–discard).
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
//!   against the budget. The snapshot and its rank array share one
//!   lock, so publishing a snapshot drops the old array with it, in
//!   O(1); the next query ranks the new snapshot. The mutation plane
//!   built on top lives in [`crate::dynamic`].
//!
//! The store is transport-agnostic (no sockets here); `engine::server`
//! shares one instance across client handlers, and `tests/store.rs`
//! property-tests the invariants directly.

use listkit::dynamic::{Edit, EditError, EditReport, MutableList};
use listkit::LinkedList;
use listrank::host::{RankArray, RankScratch};
use listrank::HostRunner;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

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
    /// Rank arrays built by handle queries whose snapshot had none
    /// kept (kept or not: a build the budget cannot take still counts).
    pub artifacts_built: u64,
    /// Handle queries served from the rank array kept for their
    /// snapshot.
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
}

/// Estimated resident footprint of a validated list: the `u32`
/// successor array plus fixed header overhead. An estimate, not an
/// allocator measurement — the budget is a capacity-planning knob, not
/// an accounting ledger.
pub fn list_footprint(list: &LinkedList) -> u64 {
    4 * list.len() as u64 + 96
}

/// Resident footprint of a kept rank array: two `u32`s per vertex, its
/// rank and the vertex at its position, plus fixed header overhead.
pub fn artifact_footprint(ranks: &RankArray) -> u64 {
    8 * ranks.len() as u64 + 96
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
    /// The query-visible snapshot and the rank array kept for it.
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
                slot: Mutex::new(Slot { list, ranks: None }),
                building: Mutex::new(()),
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
        }
    }

    /// Count one applied mutation batch of `edits` edits (called by
    /// [`crate::dynamic`] after the batch lands).
    pub(crate) fn note_mutation(&self, edits: u64) {
        self.mutations.fetch_add(1, Ordering::Relaxed);
        self.edits.fetch_add(edits, Ordering::Relaxed);
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

    /// Charge `bytes` of freshly built rank array to `handle` if they
    /// fit under the budget as it stands. A kept array only caches what
    /// its dataset can recompute, so it never evicts a dataset: `false`
    /// means the array should not be kept.
    fn try_charge(&self, handle: u64, bytes: u64) -> bool {
        let mut inner = lock_unpoisoned(&self.inner);
        let Some(entry) = inner.entries.get(&handle).map(Arc::clone) else {
            return false;
        };
        if inner.resident_bytes + bytes > self.budget {
            return false;
        }
        inner.resident_bytes += bytes;
        entry.artifact_bytes.fetch_add(bytes, Ordering::Relaxed);
        true
    }

    /// Move one of `handle`'s charged-byte accounts (list, mirror, or
    /// rank array — chosen by `account`) from `old` to `new` bytes,
    /// evicting idle entries on growth. Mutations are applied in
    /// place, so unlike PUT this never fails: if nothing idle can be
    /// evicted the store runs transiently over budget and the next PUT
    /// sheds the pressure.
    ///
    /// No-op when the entry is already gone, and that is load-bearing:
    /// a DROP (or eviction) subtracts the entry's *current*
    /// `total_bytes()`, which includes every charge made so far, so
    /// re-charging a removed entry would double-count. `tests/store.rs`
    /// races drops against rank-array builds to pin the end state (all
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

    /// The current snapshot and the rank array kept for it, read under
    /// one lock: what a handle query resolves.
    pub fn snapshot(&self) -> (Arc<LinkedList>, Option<Arc<RankArray>>) {
        let slot = lock_unpoisoned(&self.entry.artifacts.slot);
        (Arc::clone(&slot.list), slot.ranks.clone())
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
    /// footprint deltas against the budget. Publishing drops the
    /// pre-edit snapshot's rank array from the slot and uncharges it in
    /// the same critical section, so no kept array outlives its list.
    /// Returns the edit report and the new snapshot.
    ///
    /// Concurrent batches against the same handle serialize on the
    /// mirror lock; queries resolved before the swap complete on their
    /// pre-mutation snapshot and its array (`Arc` semantics, same rule
    /// as DROP).
    pub fn apply_edits(&self, edits: &[Edit]) -> Result<(EditReport, Arc<LinkedList>), EditError> {
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
        {
            let mut slot = lock_unpoisoned(&entry.artifacts.slot);
            slot.list = Arc::clone(&snapshot);
            if let (Some(store), Some(old)) = (&store, slot.ranks.take()) {
                store.recharge(entry.handle, |e| &e.artifact_bytes, artifact_footprint(&old), 0);
            }
        }
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
        Ok((report, snapshot))
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

/// A dataset's query-visible snapshot and the rank array kept for it,
/// under one lock so the two always change together.
struct Slot {
    list: Arc<LinkedList>,
    ranks: Option<Arc<RankArray>>,
}

/// A resident dataset's current snapshot and its one kept
/// [`RankArray`]. The array's bytes are charged through the owning
/// store, so it competes for the same budget as the lists. It is bound
/// to its snapshot: a job pinned to an older snapshot can neither use
/// nor keep an array for the dataset.
pub struct ArtifactCache {
    handle: u64,
    store: Weak<DatasetStore>,
    slot: Mutex<Slot>,
    /// Held for the length of a build, so queries that find no array
    /// kept build one at a time, and each one after the first finds the
    /// array its predecessor kept. Separate from `slot`, which the
    /// reactor takes to resolve every handle query.
    building: Mutex<()>,
}

impl ArtifactCache {
    /// The rank array kept for `list`, when `list` is the dataset's
    /// current snapshot and one is kept.
    pub fn kept(&self, list: &Arc<LinkedList>) -> Option<Arc<RankArray>> {
        let slot = lock_unpoisoned(&self.slot);
        slot.ranks.clone().filter(|_| Arc::ptr_eq(&slot.list, list))
    }

    /// The rank array of `list`, and the nanoseconds this call spent
    /// ranking when it had to build it.
    ///
    /// The kept array is reused when there is one. Otherwise the call
    /// waits for any build in progress on this dataset and looks
    /// again, so queries resolved before the first build finished
    /// share its array instead of each ranking the list. Only then does
    /// it rank `list` with `runner` into a fresh array. It keeps that
    /// array if `list` is still the current snapshot, none is kept yet,
    /// and its bytes can be charged. The charge happens under the slot
    /// lock, so a lost race never charges at all. An array that is not
    /// kept still serves its caller.
    pub fn get_or_build(
        &self,
        list: &Arc<LinkedList>,
        runner: &HostRunner,
        scratch: &mut RankScratch,
    ) -> (Arc<RankArray>, Option<u64>) {
        let reuse = |ranks| {
            self.count_reuse();
            (ranks, None)
        };
        if let Some(ranks) = self.kept(list) {
            return reuse(ranks);
        }
        let _building = lock_unpoisoned(&self.building);
        if let Some(ranks) = self.kept(list) {
            return reuse(ranks);
        }
        let t = Instant::now();
        let ranks = Arc::new(RankArray::build(runner, list, scratch));
        let build_ns = t.elapsed().as_nanos() as u64;
        let Some(store) = self.store.upgrade() else { return (ranks, Some(build_ns)) };
        store.artifacts_built.fetch_add(1, Ordering::Relaxed);
        let mut slot = lock_unpoisoned(&self.slot);
        if Arc::ptr_eq(&slot.list, list)
            && slot.ranks.is_none()
            && store.try_charge(self.handle, artifact_footprint(&ranks))
        {
            slot.ranks = Some(Arc::clone(&ranks));
        }
        (ranks, Some(build_ns))
    }

    /// Count one query served from a kept array.
    pub(crate) fn count_reuse(&self) {
        if let Some(store) = self.store.upgrade() {
            store.artifacts_reused.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("handle", &self.handle)
            .field("kept", &lock_unpoisoned(&self.slot).ranks.is_some())
            .finish()
    }
}
