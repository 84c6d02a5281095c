//! Typed requests, type-erased jobs, and the submit/await/cancel handle.
//!
//! The public surface is a **typed request builder** ([`Request`]) and
//! a **typed handle** ([`JobHandle<R>`]): callers say
//! `engine.submit(Request::scan(list, values, MaxOp))` and `wait()`
//! hands back the concrete `Vec<i64>` — no closed output enum to
//! match, no `Option` to unwrap. Internally what a job computes is
//! erased behind the `JobExec` object — a ranking, a generic
//! [`listkit::ScanOp`] scan or a segmented scan are its three
//! implementors — so the queue, planner and workers stay monomorphic
//! and carry one job spec; the handle re-types the erased output on
//! the way out (guaranteed to succeed because only the typed builders
//! can construct a request).

use crate::op::{classify_op, OpKind};
use crate::queue::SubmitError;
use crate::sched::Priority;
use crate::store::ArtifactCache;
use listkit::segmented::{self, SegOp, Segmented};
use listkit::sharded::ShardedList;
use listkit::{LinkedList, ScanOp};
use listrank::host::{RankScratch, ShardedReport};
use listrank::{Algorithm, HostRunner};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex};

/// A type-erased job output, re-typed by the [`JobHandle`] that awaits
/// it.
pub(crate) type ErasedOutput = Box<dyn Any + Send>;

/// The executable body of a job with its output, operator and value
/// types erased: the worker hands it a configured runner (or the
/// sharded plan) and gets the erased output back.
pub(crate) trait JobExec: Send + Sync {
    /// Stats/dispatch classification of the job.
    fn op_kind(&self) -> OpKind;
    /// Bytes per produced element (the cost model's width input).
    fn elem_bytes(&self) -> usize;
    /// Submit-time cross-field validation against the job's list.
    fn check(&self, list: &LinkedList) -> bool;
    /// Monolithic execution through the planner-configured runner.
    fn run(
        &self,
        runner: &HostRunner,
        list: &LinkedList,
        scratch: &mut RankScratch,
    ) -> ErasedOutput;
    /// Shard-parallel execution (stitched rank or scan) against a
    /// built sharded representation: the resident dataset's cached
    /// artifact, or one the worker built for this job.
    fn run_sharded_prebuilt(
        &self,
        sharded: &ShardedList,
        seed: u64,
        scratch: &mut RankScratch,
    ) -> (ErasedOutput, ShardedReport);
}

/// List ranking: the scan of all-ones under `+`, run by the dedicated
/// rank kernels, which need no values array.
struct RankJob;

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

    fn run(
        &self,
        runner: &HostRunner,
        list: &LinkedList,
        scratch: &mut RankScratch,
    ) -> ErasedOutput {
        let mut out = Vec::new();
        runner.rank_into(list, scratch, &mut out);
        Box::new(out)
    }

    fn run_sharded_prebuilt(
        &self,
        sharded: &ShardedList,
        seed: u64,
        scratch: &mut RankScratch,
    ) -> (ErasedOutput, ShardedReport) {
        let mut out = Vec::new();
        let report = listrank::host::rank_sharded_prebuilt_into(sharded, seed, scratch, &mut out);
        (Box::new(out), report)
    }
}

/// A plain generic scan job: values + operator.
struct ScanJob<T, Op> {
    values: Arc<Vec<T>>,
    op: Op,
    kind: OpKind,
}

impl<T, Op> JobExec for ScanJob<T, Op>
where
    T: Copy + Send + Sync + 'static,
    Op: ScanOp<T> + Send + Sync + 'static,
{
    fn op_kind(&self) -> OpKind {
        self.kind
    }

    fn elem_bytes(&self) -> usize {
        std::mem::size_of::<T>()
    }

    fn check(&self, list: &LinkedList) -> bool {
        self.values.len() == list.len()
    }

    fn run(
        &self,
        runner: &HostRunner,
        list: &LinkedList,
        scratch: &mut RankScratch,
    ) -> ErasedOutput {
        let mut out = Vec::new();
        runner.scan_into(list, &self.values, &self.op, scratch, &mut out);
        Box::new(out)
    }

    fn run_sharded_prebuilt(
        &self,
        sharded: &ShardedList,
        seed: u64,
        scratch: &mut RankScratch,
    ) -> (ErasedOutput, ShardedReport) {
        let mut out = Vec::new();
        let report = listrank::host::scan_sharded_prebuilt_into(
            sharded,
            &self.values,
            &self.op,
            seed,
            scratch,
            &mut out,
        );
        (Box::new(out), report)
    }
}

/// A segmented scan job: values are pre-wrapped with their segment
/// flags (once, at request construction), scanned under the
/// [`SegOp`] transform, and unwrapped back to plain values on the way
/// out — so the caller's output type is `Vec<T>`, not an engine detail.
struct SegScanJob<T, Op> {
    wrapped: Arc<Vec<Segmented<T>>>,
    starts: Arc<Vec<bool>>,
    op: Op,
}

impl<T, Op> JobExec for SegScanJob<T, Op>
where
    T: Copy + Send + Sync + 'static,
    Op: ScanOp<T> + Clone + Send + Sync + 'static,
{
    fn op_kind(&self) -> OpKind {
        OpKind::Segmented
    }

    fn elem_bytes(&self) -> usize {
        std::mem::size_of::<Segmented<T>>()
    }

    fn check(&self, list: &LinkedList) -> bool {
        self.wrapped.len() == list.len() && self.starts.len() == list.len()
    }

    fn run(
        &self,
        runner: &HostRunner,
        list: &LinkedList,
        scratch: &mut RankScratch,
    ) -> ErasedOutput {
        let seg = SegOp(self.op.clone());
        let mut scanned = Vec::new();
        runner.scan_into(list, &self.wrapped, &seg, scratch, &mut scanned);
        Box::new(segmented::unwrap_exclusive(&scanned, &self.starts, &self.op))
    }

    fn run_sharded_prebuilt(
        &self,
        sharded: &ShardedList,
        seed: u64,
        scratch: &mut RankScratch,
    ) -> (ErasedOutput, ShardedReport) {
        let seg = SegOp(self.op.clone());
        let mut scanned = Vec::new();
        let report = listrank::host::scan_sharded_prebuilt_into(
            sharded,
            &self.wrapped,
            &seg,
            seed,
            scratch,
            &mut scanned,
        );
        (Box::new(segmented::unwrap_exclusive(&scanned, &self.starts, &self.op)), report)
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
    /// Resident-dataset artifact slot: the sharded arm reuses (or
    /// builds and caches) the dataset's `ShardedList` here instead of
    /// rebuilding per job. `None` for inline requests.
    pub(crate) warm: Option<Arc<ArtifactCache>>,
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
    /// exactly like the unsharded request.
    pub fn sharded(mut self) -> Self {
        self.spec.sharded = true;
        self
    }

    /// Attach a resident dataset's [`ArtifactCache`]: if the planner
    /// routes the job to the sharded arm, the worker reuses the
    /// dataset's `ShardedList` when it was built from this request's
    /// list (building and caching it on first use) instead of
    /// rebuilding it per job. Used by the server for
    /// handle-routed queries ([`crate::DatasetRef::artifacts`]).
    pub fn with_artifacts(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.spec.warm = Some(cache);
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
        let kind = classify_op::<Op>();
        Self::new(list, Arc::new(ScanJob { values, op, kind }))
    }

    /// Exclusive **segmented** scan: restarts at every vertex whose
    /// `starts` flag is set (the head always starts a segment). Values
    /// are wrapped with their flags once here, scanned under the
    /// flag-carrying [`SegOp`] transform, and unwrapped back, so the
    /// handle resolves to plain `Vec<T>`. The transform is associative
    /// (never commutative), which is exactly what the stitched
    /// [`Request::sharded`] scan preserves.
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
        // A length mismatch cannot be wrapped; an empty wrapped array
        // can never match a (≥ 1 vertex) list, so `validate` rejects it.
        let wrapped = if values.len() == starts.len() {
            Arc::new(segmented::wrap(&values, &starts))
        } else {
            Arc::new(Vec::new())
        };
        Self::new(list, Arc::new(SegScanJob { wrapped, starts, op }))
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

/// How a worker delivers a job's settled result (internal). Handle
/// submissions settle a shared [`JobCell`] the caller waits on; the
/// event-driven server instead registers a one-shot callback that
/// encodes the reply and wakes the reactor — no parked thread per
/// in-flight request, which is what makes pipelining scale.
pub(crate) type CompletionFn = Box<dyn FnOnce(Result<JobReport<ErasedOutput>, JobError>) + Send>;

pub(crate) enum Responder {
    /// Settle a waitable cell (the `submit` / `JobHandle` path).
    Cell(Arc<JobCell>),
    /// Invoke a one-shot callback (the `try_submit_callback` path). `None`
    /// after the callback has fired.
    Callback(Option<CompletionFn>),
}

impl Responder {
    /// Deliver the result. First settle wins (a cancelled cell drops
    /// later results); returns whether this call's result landed.
    pub(crate) fn settle(&mut self, result: Result<JobReport<ErasedOutput>, JobError>) -> bool {
        match self {
            Responder::Cell(cell) => cell.complete(result),
            Responder::Callback(f) => match f.take() {
                Some(f) => {
                    f(result);
                    true
                }
                None => false,
            },
        }
    }

    /// Whether the job has already settled (e.g. cancelled while
    /// queued). Callback responders settle exactly once, at delivery.
    pub(crate) fn is_settled(&self) -> bool {
        match self {
            Responder::Cell(cell) => cell.is_settled(),
            Responder::Callback(f) => f.is_none(),
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
