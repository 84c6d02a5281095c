//! Typed requests, type-erased jobs, and the submit/await/cancel handle.
//!
//! The public surface is a **typed request builder** ([`Request`]) and
//! a **typed handle** ([`JobHandle<R>`]): callers say
//! `engine.submit(Request::scan(list, values, MaxOp))` and `wait()`
//! hands back the concrete `Vec<i64>` — no closed output enum to
//! match, no `Option` to unwrap. Internally what a job computes is
//! erased behind the `JobExec` object — a ranking, an in-process
//! [`listkit::ScanOp`] scan (segmented or not) and a served one, whose
//! values are in its reply frame, are its three implementors — so the
//! queue, planner and workers stay monomorphic and carry one job spec;
//! the handle re-types the erased output on the way out (guaranteed to
//! succeed because only the typed builders can construct a request).

use crate::op::{classify_op, OpKind};
use crate::protocol::{self, WireElem};
use crate::queue::SubmitError;
use crate::sched::Priority;
use crate::store::ArtifactCache;
use listkit::segmented::{self, SegOp, Segmented};
use listkit::sharded::ShardedList;
use listkit::{LinkedList, ScanOp};
use listrank::host::{RankArray, RankScratch, ShardedReport};
use listrank::{Algorithm, HostRunner};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex};

/// A type-erased job output, re-typed by the [`JobHandle`] that awaits
/// it.
pub(crate) type ErasedOutput = Box<dyn Any + Send>;

/// How a job runs: the planner's monolithic pick, the stitched
/// shard-parallel path, or array passes over a resident dataset's kept
/// ranks.
#[derive(Clone, Copy)]
pub(crate) enum Run<'a> {
    /// Through the planner-configured runner.
    Monolithic { runner: &'a HostRunner, list: &'a LinkedList },
    /// Against a sharded representation the worker built for this job.
    Sharded { sharded: &'a ShardedList, seed: u64 },
    /// From the job list's rank array: a rank widens it, a scan runs in
    /// place along its position order
    /// ([`RankArray::scan_in_place`]).
    Ranked { ranks: &'a RankArray },
}

impl Run<'_> {
    /// Elements the job writes.
    fn len(&self) -> usize {
        match self {
            Run::Monolithic { list, .. } => list.len(),
            Run::Sharded { sharded, .. } => sharded.len(),
            Run::Ranked { ranks } => ranks.len(),
        }
    }
}

/// Where a job writes its elements. Every kernel writes each slot
/// exactly once through its output sink (`listrank`'s `*_mapped`
/// entries), so both destinations take the result straight from the
/// final pass.
pub(crate) enum Out<'a> {
    /// A fresh typed `Vec`, erased, for [`JobHandle::wait`].
    Typed(&'a mut Option<ErasedOutput>),
    /// Each element's little-endian wire encoding, in place: the
    /// payload of the reply frame a [`FrameReply`] opened. A served
    /// scan's frame already holds the request's values there.
    Wire(&'a mut [u8]),
}

/// The executable body of a job with its output, operator and value
/// types erased: the worker hands it the planner's [`Run`] and an
/// [`Out`], and gets the stitch report of a sharded run back.
pub(crate) trait JobExec: Send + Sync {
    /// Stats/dispatch classification of the job.
    fn op_kind(&self) -> OpKind;
    /// Bytes per produced element (the cost model's width input).
    fn elem_bytes(&self) -> usize;
    /// Submit-time cross-field validation against the job's list.
    fn check(&self, list: &LinkedList) -> bool;
    /// Execute, writing every element into `out`.
    fn run(&self, how: Run<'_>, scratch: &mut RankScratch, out: Out<'_>) -> Option<ShardedReport>;
}

/// Park a filled `Vec`, erased, in `slot`.
fn park<T: Send + 'static>(slot: &mut Option<ErasedOutput>, out: Vec<T>) {
    *slot = Some(Box::new(out));
}

/// Fill a fresh `Vec` that starts as `n` copies of `init` and park it
/// in `slot`. A list-sized one is on huge pages ([`listkit::pages`]).
fn typed<T: Clone + Send + 'static>(
    slot: &mut Option<ErasedOutput>,
    n: usize,
    init: T,
    fill: impl FnOnce(&mut [T]) -> Option<ShardedReport>,
) -> Option<ShardedReport> {
    let mut out = listkit::pages::vec_with_capacity(n);
    out.resize(n, init);
    let report = fill(&mut out);
    park(slot, out);
    report
}

/// `values` scanned under `op` along a kernel or sharded run's list,
/// `out[v] = map(prefix at v)`.
fn scan_run<T, Op, O>(
    how: Run<'_>,
    values: &[T],
    op: &Op,
    scratch: &mut RankScratch,
    out: &mut [O],
    map: impl Fn(T) -> O + Sync,
) -> Option<ShardedReport>
where
    T: Copy + Send + Sync,
    Op: ScanOp<T>,
    O: Send,
{
    match how {
        Run::Monolithic { runner, list } => {
            runner.scan_mapped(list, values, op, scratch, out, map);
            None
        }
        Run::Sharded { sharded, seed } => Some(listrank::host::scan_sharded_prebuilt_mapped(
            sharded, values, op, seed, scratch, out, map,
        )),
        Run::Ranked { .. } => unreachable!("a scan from a rank array runs in place"),
    }
}

/// List ranking: the scan of all-ones under `+`, run by the dedicated
/// rank kernels, which need no values array.
struct RankJob;

impl RankJob {
    fn fill<O: Send>(
        how: Run<'_>,
        scratch: &mut RankScratch,
        out: &mut [O],
        map: impl Fn(u64) -> O + Sync,
    ) -> Option<ShardedReport> {
        match how {
            Run::Monolithic { runner, list } => {
                runner.rank_mapped(list, scratch, out, map);
                None
            }
            Run::Sharded { sharded, seed } => {
                Some(listrank::host::rank_sharded_prebuilt_mapped(sharded, seed, scratch, out, map))
            }
            Run::Ranked { ranks } => {
                ranks.rank_mapped(out, map);
                None
            }
        }
    }
}

impl JobExec for RankJob {
    fn op_kind(&self) -> OpKind {
        OpKind::Rank
    }

    fn elem_bytes(&self) -> usize {
        std::mem::size_of::<u64>()
    }

    fn check(&self, _list: &LinkedList) -> bool {
        true
    }

    fn run(&self, how: Run<'_>, scratch: &mut RankScratch, out: Out<'_>) -> Option<ShardedReport> {
        match out {
            Out::Typed(slot) => {
                typed(slot, how.len(), 0u64, |v| Self::fill(how, scratch, v, |r| r))
            }
            Out::Wire(bytes) => Self::fill(how, scratch, u64::le_chunks_mut(bytes), u64::to_wire),
        }
    }
}

/// What every scan job computes, wherever its values are: the exclusive
/// scan under `op`, restarting at the identity at every vertex `starts`
/// flags when it is segmented.
struct Scan<Op> {
    op: Op,
    starts: Option<Arc<Vec<bool>>>,
    kind: OpKind,
}

impl<Op: 'static> Scan<Op> {
    fn new(op: Op, starts: Option<Arc<Vec<bool>>>) -> Self {
        let kind = if starts.is_some() { OpKind::Segmented } else { classify_op::<Op>() };
        Scan { op, starts, kind }
    }

    /// The planner's width key: a segmented kernel run scans wrapped
    /// elements.
    fn elem_bytes<T>(&self) -> usize {
        match self.starts {
            Some(_) => std::mem::size_of::<Segmented<T>>(),
            None => std::mem::size_of::<T>(),
        }
    }

    /// Whether the segment starts, if any, cover the list.
    fn check(&self, list: &LinkedList) -> bool {
        self.starts.as_ref().is_none_or(|starts| starts.len() == list.len())
    }

    /// A kernel or sharded run from `values`: `out[v] = map(prefix at
    /// v)`. A segmented one wraps the values with their segment flags
    /// (on the worker, per run), scans them under the [`SegOp`]
    /// transform, and restarts every segment start at the identity on
    /// the way out ([`segmented::restart_segments`]), so no wrapped
    /// output array is ever built.
    fn kernel<T, O>(
        &self,
        how: Run<'_>,
        values: &[T],
        scratch: &mut RankScratch,
        out: &mut [O],
        map: impl Fn(T) -> O + Sync,
    ) -> Option<ShardedReport>
    where
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
        O: Copy + Send,
    {
        let Some(starts) = &self.starts else {
            return scan_run(how, values, &self.op, scratch, out, map);
        };
        let wrapped = segmented::wrap(values, starts);
        let report = scan_run(how, &wrapped, &SegOp(&self.op), scratch, out, |s| map(s.value));
        segmented::restart_segments(out, starts, map(self.op.identity()));
        report
    }

    /// A run from a rank array, in place in `buf`, which holds the
    /// values in vertex order. The restarts travel to position order as
    /// an n-bit set ([`RankArray::flags`]), so nothing is wrapped.
    fn in_place<B, T>(
        &self,
        ranks: &RankArray,
        buf: &mut [B],
        load: impl Fn(&B) -> T + Sync,
        store: impl Fn(T) -> B + Sync,
    ) where
        B: Send + Sync,
        T: Copy + Send + Sync,
        Op: ScanOp<T>,
    {
        let flags = self.starts.as_ref().map(|starts| ranks.flags(starts, |&start| start));
        ranks.scan_in_place(buf, &self.op, flags.as_ref(), load, store);
    }
}

/// An in-process scan or segmented scan: the caller's values, scanned
/// into a fresh typed `Vec`. From a rank array that `Vec` starts as a
/// copy of the values and is scanned in place.
struct ScanJob<T, Op> {
    values: Arc<Vec<T>>,
    scan: Scan<Op>,
}

impl<T, Op> JobExec for ScanJob<T, Op>
where
    T: Copy + Send + Sync + 'static,
    Op: ScanOp<T> + Send + Sync + 'static,
{
    fn op_kind(&self) -> OpKind {
        self.scan.kind
    }

    fn elem_bytes(&self) -> usize {
        self.scan.elem_bytes::<T>()
    }

    fn check(&self, list: &LinkedList) -> bool {
        self.values.len() == list.len() && self.scan.check(list)
    }

    fn run(&self, how: Run<'_>, scratch: &mut RankScratch, out: Out<'_>) -> Option<ShardedReport> {
        let Out::Typed(slot) = out else {
            panic!("wire output is only requested of jobs built with Request::frame_scan")
        };
        let scan = &self.scan;
        match how {
            Run::Ranked { ranks } => {
                let mut out = listkit::pages::copied(&self.values);
                scan.in_place(ranks, &mut out, |&x| x, |x| x);
                park(slot, out);
                None
            }
            how => typed(slot, how.len(), scan.op.identity(), |out| {
                scan.kernel(how, &self.values, scratch, out, |x| x)
            }),
        }
    }
}

/// A served scan or segmented scan. Its values arrived as wire
/// encodings and are its reply frame's payload — read there, or copied
/// there at submit — and a scan's output has the same encoding, so a
/// run from a rank array scans that payload in place: it is the run's
/// one list-sized buffer. A kernel or sharded run decodes the values on the worker
/// first.
struct FrameScanJob<T, Op> {
    scan: Scan<Op>,
    _values: PhantomData<fn() -> T>,
}

impl<T, Op> JobExec for FrameScanJob<T, Op>
where
    T: WireElem + Send + Sync + 'static,
    Op: ScanOp<T> + Send + Sync + 'static,
{
    fn op_kind(&self) -> OpKind {
        self.scan.kind
    }

    fn elem_bytes(&self) -> usize {
        self.scan.elem_bytes::<T>()
    }

    fn check(&self, list: &LinkedList) -> bool {
        self.scan.check(list)
    }

    fn run(&self, how: Run<'_>, scratch: &mut RankScratch, out: Out<'_>) -> Option<ShardedReport> {
        let Out::Wire(bytes) = out else { panic!("a served scan's values are in its reply frame") };
        match how {
            Run::Ranked { ranks } => {
                self.scan.in_place(
                    ranks,
                    T::le_chunks_mut(bytes),
                    |&le| T::from_wire(le),
                    T::to_wire,
                );
                None
            }
            how => {
                let values = protocol::decode_slice::<T>(bytes);
                self.scan.kernel(how, &values, scratch, T::le_chunks_mut(bytes), T::to_wire)
            }
        }
    }
}

/// What a job computes (internal, type-erased). Constructed only
/// through the typed [`Request`] builders, which is what guarantees the
/// handle's downcast always succeeds.
#[derive(Clone)]
pub(crate) struct JobSpec {
    /// The list to rank or scan along (shared so many jobs can
    /// reference one workload list without copying).
    pub(crate) list: Arc<LinkedList>,
    /// The erased computation: rank, or operator + values + output
    /// conversion.
    pub(crate) exec: Arc<dyn JobExec>,
    /// Route through the budget-aware shard-parallel plan branch.
    pub(crate) sharded: bool,
    /// A resident dataset's artifact slot, and the rank array it kept
    /// for this job's list when the request was resolved. `None` for
    /// inline requests.
    pub(crate) warm: Option<Warm>,
}

/// A handle query's hold on its dataset's [`ArtifactCache`]: the job is
/// served from `kept` when the slot held a rank array for the job's list
/// at resolve time. Otherwise its worker asks the slot again
/// ([`ArtifactCache::get_or_build`]), which reuses an array a build kept
/// since and builds one only if there is still none. Resolving reads the
/// list and the array under one lock, so a worker serving a kept array
/// takes no store lock at all.
#[derive(Clone)]
pub(crate) struct Warm {
    pub(crate) cache: Arc<ArtifactCache>,
    pub(crate) kept: Option<Arc<RankArray>>,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = self.exec.op_kind();
        write!(f, "JobSpec({kind}, n = {}, sharded = {})", self.len(), self.sharded)
    }
}

impl JobSpec {
    /// Number of vertices this job touches (≥ 1: `listkit` lists cannot
    /// be empty, so there is no empty-list branch anywhere downstream).
    pub(crate) fn len(&self) -> usize {
        self.list.len()
    }

    /// Submit-time validation, shared by every submit path (blocking
    /// and non-blocking) and by every request kind, so none can bypass
    /// it: a malformed spec is rejected here, where the caller can
    /// handle the error, instead of panicking in a worker far from the
    /// bug. Structural list invariants are already enforced by
    /// `LinkedList` construction; what remains is the cross-field
    /// consistency a spec can get wrong.
    pub(crate) fn validate(&self) -> Result<(), SubmitError> {
        if self.exec.check(&self.list) {
            Ok(())
        } else {
            Err(SubmitError::Invalid)
        }
    }
}

/// A typed engine request: what to compute, carrying its result type
/// `R` so [`crate::Engine::submit`] can hand back a [`JobHandle<R>`]
/// whose `wait()` returns the concrete payload directly.
///
/// Construct through the builders ([`Request::rank`],
/// [`Request::scan`], [`Request::segmented_scan`]), optionally routed
/// through the shard-parallel path with [`Request::sharded`]; requests
/// are cheap to clone (all payload is shared via `Arc`), so one request
/// can be submitted many times.
pub struct Request<R> {
    pub(crate) spec: JobSpec,
    _out: PhantomData<fn() -> R>,
}

impl<R> Clone for Request<R> {
    fn clone(&self) -> Self {
        Request { spec: self.spec.clone(), _out: PhantomData }
    }
}

impl<R> std::fmt::Debug for Request<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Request({:?})", self.spec)
    }
}

impl<R> Request<R> {
    fn new(list: Arc<LinkedList>, exec: Arc<dyn JobExec>) -> Self {
        Request { spec: JobSpec { list, exec, sharded: false, warm: None }, _out: PhantomData }
    }

    /// Number of vertices the request touches.
    pub fn len(&self) -> usize {
        self.spec.len()
    }

    /// Never empty: `listkit` lists have ≥ 1 vertex by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The op-kind classification this request will be dispatched and
    /// accounted under.
    pub fn op_kind(&self) -> OpKind {
        self.spec.exec.op_kind()
    }

    /// Route through the budget-aware shard-parallel path: lists above
    /// `EngineConfig::shard_budget` split into cache-resident shards
    /// (stitched by the generic scan, which preserves non-commutative
    /// and segmented operators); smaller ones run monolithically
    /// exactly like the unsharded request. A request with artifacts
    /// attached is served from its dataset's rank array instead.
    pub fn sharded(mut self) -> Self {
        self.spec.sharded = true;
        self
    }

    /// Attach a resident dataset's [`ArtifactCache`]: the job is served
    /// from the rank array the dataset keeps for this request's list,
    /// and the first job on a snapshot builds that array and offers it
    /// to the slot. A job with a pinned algorithm runs that kernel
    /// instead. The server resolves handle-routed queries this way
    /// ([`crate::DatasetRef::artifacts`]).
    pub fn with_artifacts(self, cache: Arc<ArtifactCache>) -> Self {
        let kept = cache.kept(&self.spec.list);
        self.with_warm(Warm { cache, kept })
    }

    /// Attach an already resolved [`Warm`] slot.
    pub(crate) fn with_warm(mut self, warm: Warm) -> Self {
        self.spec.warm = Some(warm);
        self
    }
}

impl Request<Vec<u64>> {
    /// List ranking of `list`; the handle resolves to the rank vector.
    pub fn rank(list: Arc<LinkedList>) -> Self {
        Self::new(list, Arc::new(RankJob))
    }
}

impl<T: Copy + Send + Sync + 'static> Request<Vec<T>> {
    /// Exclusive scan of `values` along `list` under any associative
    /// operator — the paper's generic list scan, end to end through the
    /// engine. The handle resolves to the scanned values.
    pub fn scan<Op>(list: Arc<LinkedList>, values: Arc<Vec<T>>, op: Op) -> Self
    where
        Op: ScanOp<T> + Send + Sync + 'static,
    {
        Self::new(list, Arc::new(ScanJob { values, scan: Scan::new(op, None) }))
    }

    /// Exclusive **segmented** scan: restarts at every vertex whose
    /// `starts` flag is set (the head always starts a segment). A
    /// kernel run wraps the values with their flags, scans them under
    /// the flag-carrying [`SegOp`] transform, and unwraps them back, so
    /// the handle resolves to plain `Vec<T>`. The transform is
    /// associative (never commutative), which is exactly what the
    /// stitched [`Request::sharded`] scan preserves.
    ///
    /// A `values`/`starts` length mismatch is caught at submit time
    /// ([`SubmitError::Invalid`]), like every other malformed spec.
    pub fn segmented_scan<Op>(
        list: Arc<LinkedList>,
        values: Arc<Vec<T>>,
        starts: Arc<Vec<bool>>,
        op: Op,
    ) -> Self
    where
        Op: ScanOp<T> + Clone + Send + Sync + 'static,
    {
        Self::new(list, Arc::new(ScanJob { values, scan: Scan::new(op, Some(starts)) }))
    }
}

impl<T: WireElem + Send + Sync + 'static> Request<Vec<T>> {
    /// The server's scan builder: [`Request::scan`], or with `starts`
    /// [`Request::segmented_scan`], over the values the request's reply
    /// frame holds in its payload when it runs. Only wire output may be
    /// asked of it.
    pub(crate) fn frame_scan<Op>(
        list: Arc<LinkedList>,
        starts: Option<Arc<Vec<bool>>>,
        op: Op,
    ) -> Self
    where
        Op: ScanOp<T> + Send + Sync + 'static,
    {
        let scan = Scan::new(op, starts);
        Self::new(list, Arc::new(FrameScanJob { scan, _values: PhantomData }))
    }
}

/// Per-job options.
#[derive(Clone, Copy, Debug)]
pub struct JobOptions {
    /// RNG seed for randomized algorithms (matches
    /// `HostRunner::default`'s seed so engine output is byte-identical
    /// to a direct `HostRunner::new(alg).rank(..)` call).
    pub seed: u64,
    /// Pin the algorithm instead of letting the planner choose.
    pub algorithm: Option<Algorithm>,
    /// Trace id assigned upstream of submit (the socket server assigns
    /// one at frame decode); `None` lets the engine allocate one via
    /// [`crate::telemetry::next_trace_id`] so every job has a nonzero
    /// id either way.
    pub trace_id: Option<u64>,
    /// Nanoseconds the request spent in its decode phase before submit
    /// (frame-body parsing in the server; `0` for in-process callers).
    /// Carried into the request's telemetry span so slow-request log
    /// lines show the full timeline.
    pub decode_ns: u64,
    /// Queue deadline in milliseconds, measured from enqueue. A job
    /// still queued when the deadline passes is dropped at dequeue —
    /// before any execution — and settles as
    /// [`JobError::DeadlineExceeded`]. `None` (the default) means the
    /// job waits indefinitely. The arithmetic is overflow-free at
    /// `u64::MAX` (see [`crate::fault::deadline_expired`]).
    pub deadline_ms: Option<u64>,
    /// QoS class for dispatch ordering ([`Priority::Interactive`] by
    /// default). Batch jobs dispatch only when no interactive job is
    /// queued, except for the periodic anti-starvation aging tick
    /// (see [`crate::sched::pick_next`]).
    pub priority: Priority,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            seed: 0x1994,
            algorithm: None,
            trace_id: None,
            decode_ns: 0,
            deadline_ms: None,
            priority: Priority::Interactive,
        }
    }
}

impl JobOptions {
    /// Attach an upstream-assigned trace id.
    pub fn with_trace_id(mut self, id: u64) -> Self {
        self.trace_id = Some(id);
        self
    }

    /// Set a queue deadline: drop the job (typed
    /// [`JobError::DeadlineExceeded`]) if a worker has not picked it up
    /// within `ms` milliseconds of enqueue.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Set the QoS priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// A completed job: the typed payload plus execution metadata.
#[derive(Clone, Debug)]
pub struct JobReport<R> {
    /// Engine-assigned job id (submission order).
    pub id: u64,
    /// The request's trace id (assigned at frame decode or submit;
    /// echoed in the OUTPUT wire frame and in slow-request log lines).
    pub trace_id: u64,
    /// Vertices in the job's list.
    pub n: usize,
    /// The operation kind the job was dispatched and accounted under.
    pub op: OpKind,
    /// The algorithm the planner dispatched. For a job that ran the
    /// shard-parallel path this is the *stitch* phase's algorithm (the
    /// shard-local phase is always the serial walker per shard).
    pub algorithm: Algorithm,
    /// Shards the job was split into; `0` for a monolithic execution
    /// (including sharded-path jobs that fit the budget).
    pub shards: usize,
    /// Nanoseconds the shard-parallel path spent in its stitch phase
    /// (`0` for monolithic executions).
    pub stitch_ns: u64,
    /// Whether the job was executed as part of a small-job batch.
    pub batched: bool,
    /// Threads the job's batch was granted from the shared budget
    /// (`EngineConfig::inner_threads` split over the busy workers).
    pub threads: usize,
    /// Nanoseconds spent queued before a worker picked the job up.
    pub queued_ns: u64,
    /// Nanoseconds the planner spent choosing algorithm/lanes/shards.
    pub plan_ns: u64,
    /// Nanoseconds of execution.
    pub exec_ns: u64,
    /// The result payload — already the concrete type (`Vec<u64>` for
    /// rankings, `Vec<T>` for scans over `T`).
    pub output: R,
}

impl JobReport<ErasedOutput> {
    /// Re-type the erased payload. Infallible by construction: the
    /// typed [`Request`] builders are the only way to create a job, and
    /// they pair the spec with the matching handle type.
    pub(crate) fn downcast<R: 'static>(self) -> JobReport<R> {
        let JobReport {
            id,
            trace_id,
            n,
            op,
            algorithm,
            shards,
            stitch_ns,
            batched,
            threads,
            queued_ns,
            plan_ns,
            exec_ns,
            output,
        } = self;
        let output = *output.downcast::<R>().expect("typed handle matches the job output type");
        JobReport {
            id,
            trace_id,
            n,
            op,
            algorithm,
            shards,
            stitch_ns,
            batched,
            threads,
            queued_ns,
            plan_ns,
            exec_ns,
            output,
        }
    }
}

/// Why a job produced no result. There is no shutdown variant:
/// `Engine::shutdown` (and drop) drain the queue fully, so every
/// accepted job settles as completed, cancelled, failed, or
/// deadline-expired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job was cancelled before its result landed.
    Cancelled,
    /// Execution panicked; the worker survived and completed the job
    /// with this error instead of stranding its waiter.
    Failed,
    /// The job's [`JobOptions::deadline_ms`] expired while it was
    /// queued; it was dropped at dequeue without executing.
    DeadlineExceeded,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => f.write_str("job cancelled"),
            JobError::Failed => f.write_str("job execution panicked"),
            JobError::DeadlineExceeded => f.write_str("request deadline exceeded in queue"),
        }
    }
}

impl std::error::Error for JobError {}

pub(crate) enum CellState {
    Pending,
    Done(Result<JobReport<ErasedOutput>, JobError>),
    /// The result was moved out by `wait`.
    Taken,
}

/// Shared completion cell between a [`JobHandle`] and the worker that
/// eventually executes the job.
pub(crate) struct JobCell {
    pub(crate) state: Mutex<CellState>,
    pub(crate) done: Condvar,
}

impl JobCell {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(JobCell { state: Mutex::new(CellState::Pending), done: Condvar::new() })
    }

    /// First completion wins; later attempts (e.g. a worker finishing a
    /// job that was cancelled mid-flight) are dropped. Returns whether
    /// this call's result landed.
    pub(crate) fn complete(&self, result: Result<JobReport<ErasedOutput>, JobError>) -> bool {
        let mut st = self.state.lock().expect("job cell poisoned");
        if matches!(*st, CellState::Pending) {
            *st = CellState::Done(result);
            self.done.notify_all();
            true
        } else {
            false
        }
    }

    pub(crate) fn is_settled(&self) -> bool {
        !matches!(*self.state.lock().expect("job cell poisoned"), CellState::Pending)
    }
}

/// Typed await/cancel handle returned by `Engine::submit`: `wait()`
/// resolves directly to `JobReport<R>` with the concrete output type
/// the request was built with.
pub struct JobHandle<R> {
    pub(crate) id: u64,
    pub(crate) trace_id: u64,
    pub(crate) cell: Arc<JobCell>,
    pub(crate) _out: PhantomData<fn() -> R>,
}

impl<R: 'static> JobHandle<R> {
    /// The engine-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request's trace id (nonzero; equals the id echoed in OUTPUT
    /// replies and printed by slow-request log lines).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Block until the job finishes; consumes the handle and returns
    /// the typed report.
    pub fn wait(self) -> Result<JobReport<R>, JobError> {
        let mut st = self.cell.state.lock().expect("job cell poisoned");
        loop {
            match std::mem::replace(&mut *st, CellState::Taken) {
                CellState::Done(result) => return result.map(JobReport::downcast),
                prev @ CellState::Pending => {
                    *st = prev;
                    st = self.cell.done.wait(st).expect("job cell poisoned");
                }
                CellState::Taken => unreachable!("wait consumes the handle"),
            }
        }
    }

    /// Whether the job has finished (successfully or not).
    pub fn is_done(&self) -> bool {
        self.cell.is_settled()
    }

    /// Cancel the job if it has not finished. Returns `true` if the
    /// cancellation landed (the job will report
    /// [`JobError::Cancelled`]); `false` if the job already finished.
    /// A job already executing when cancellation lands runs to
    /// completion, but its result is discarded and it is counted as
    /// cancelled, not completed.
    pub fn cancel(&self) -> bool {
        let mut st = self.cell.state.lock().expect("job cell poisoned");
        if matches!(*st, CellState::Pending) {
            *st = CellState::Done(Err(JobError::Cancelled));
            self.cell.done.notify_all();
            true
        } else {
            false
        }
    }
}

/// A reply frame a served job writes its result into in place — the
/// server's pooled OUTPUT frame. The worker opens it when the job
/// starts executing and settles it exactly once.
pub(crate) trait FrameReply: Send {
    /// Take the reply buffer, lay the frame out in it and hand back
    /// the payload: one little-endian element per list vertex, each
    /// for the job to overwrite.
    fn payload(&mut self) -> &mut [u8];
    /// Finish the reply: seal the frame with the report's metadata, or
    /// on `Err` reuse the buffer for the ERROR reply, so a job that
    /// failed mid-write never sends a half-written OUTPUT.
    fn settle(self: Box<Self>, result: Result<JobReport<ErasedOutput>, JobError>);
}

/// How a worker delivers a job's settled result (internal). Handle
/// submissions settle a shared [`JobCell`] the caller waits on; the
/// event-driven server instead hands over a [`FrameReply`] that the
/// job writes its elements into and that wakes the reactor when
/// settled — no parked thread per in-flight request, which is what
/// makes pipelining scale.
pub(crate) enum Responder {
    /// Settle a waitable cell (the `submit` / `JobHandle` path).
    Cell(Arc<JobCell>),
    /// Write and send a reply frame (the server's path). `None` once
    /// settled.
    Frame(Option<Box<dyn FrameReply>>),
}

impl Responder {
    /// Where the executing job writes its elements: the reply frame's
    /// payload, or a typed `Vec` parked in `typed`.
    pub(crate) fn out<'a>(&'a mut self, typed: &'a mut Option<ErasedOutput>) -> Out<'a> {
        match self {
            Responder::Frame(Some(frame)) => Out::Wire(frame.payload()),
            _ => Out::Typed(typed),
        }
    }

    /// Deliver the result. First settle wins (a cancelled cell drops
    /// later results); returns whether this call's result landed. A
    /// cell completes at once; a reply frame settles through `replies`,
    /// which holds it until its batch ends.
    pub(crate) fn settle(
        &mut self,
        result: Result<JobReport<ErasedOutput>, JobError>,
        replies: &mut BatchReplies,
    ) -> bool {
        match self {
            Responder::Cell(cell) => cell.complete(result),
            Responder::Frame(frame) => match frame.take() {
                Some(frame) => {
                    replies.settle(frame, result);
                    true
                }
                None => false,
            },
        }
    }

    /// Whether the job has already settled (e.g. cancelled while
    /// queued). Frame responders settle exactly once, at delivery.
    pub(crate) fn is_settled(&self) -> bool {
        match self {
            Responder::Cell(cell) => cell.is_settled(),
            Responder::Frame(frame) => frame.is_none(),
        }
    }
}

/// The reply frames of one worker batch, held until its last job has
/// run and recorded its counters, then settled together: the reactor
/// gets them in one burst behind one wake, and a STATS frame sent after
/// a reply arrived counts that reply's job. Dropping it settles
/// whatever is held — at the batch's end, or when the worker unwinds
/// first, so no caller is stranded.
#[derive(Default)]
pub(crate) struct BatchReplies {
    held: Vec<(Box<dyn FrameReply>, Settled)>,
}

/// A served job's result, as its reply frame settles it.
type Settled = Result<JobReport<ErasedOutput>, JobError>;

impl BatchReplies {
    fn settle(&mut self, frame: Box<dyn FrameReply>, result: Settled) {
        self.held.push((frame, result));
    }
}

impl Drop for BatchReplies {
    fn drop(&mut self) {
        for (frame, result) in self.held.drain(..) {
            frame.settle(result);
        }
    }
}

/// A queued unit of work (internal).
pub(crate) struct QueuedJob {
    pub(crate) id: u64,
    pub(crate) spec: JobSpec,
    pub(crate) opts: JobOptions,
    pub(crate) responder: Responder,
    pub(crate) enqueued: std::time::Instant,
    /// Arrival sequence number, assigned by the queue at push; the
    /// scheduler's FIFO tiebreaker and aging key.
    pub(crate) seq: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, MinOp, XorOp};

    #[test]
    fn every_request_kind_pins_its_planner_keys() {
        let list = Arc::new(listkit::gen::random_list(5, 1));
        let l = || Arc::clone(&list);
        let i64s = Arc::new(vec![1i64; 5]);
        let v = || Arc::clone(&i64s);
        let u64s = Arc::new(vec![1u64; 5]);
        let affs = Arc::new(vec![Affine::new(1, 0); 5]);
        let starts = Arc::new(vec![true, false, false, true, false]);
        let short = Arc::new(vec![true; 4]);
        let seg_add = |starts| Request::segmented_scan(l(), v(), starts, AddOp).spec;
        let seg = std::mem::size_of::<Segmented<i64>>();
        let (ok, bad) = (Ok(()), Err(SubmitError::Invalid));
        let cases = [
            ("rank", Request::rank(l()).spec, OpKind::Rank, 8, ok),
            ("add", Request::scan(l(), v(), AddOp).spec, OpKind::Add, 8, ok),
            ("max", Request::scan(l(), v(), MaxOp).spec, OpKind::Max, 8, ok),
            ("min", Request::scan(l(), v(), MinOp).spec, OpKind::Min, 8, ok),
            ("xor", Request::scan(l(), u64s, XorOp).spec, OpKind::Xor, 8, ok),
            ("affine", Request::scan(l(), affs, AffineOp).spec, OpKind::Affine, 16, ok),
            ("seg", seg_add(starts), OpKind::Segmented, seg, ok),
            ("seg mismatch", seg_add(short), OpKind::Segmented, seg, bad),
        ];
        for (name, spec, kind, bytes, valid) in cases {
            assert_eq!(spec.exec.op_kind(), kind, "{name}: op kind");
            assert_eq!(spec.exec.elem_bytes(), bytes, "{name}: element width");
            assert_eq!(spec.validate(), valid, "{name}: validation");
        }
    }
}
