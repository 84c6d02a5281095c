//! The engine proper: worker pool, dispatch loop, lifecycle.

use crate::fault::FaultPlane;
use crate::job::{
    ErasedOutput, JobCell, JobError, JobHandle, JobOptions, JobReport, QueuedJob, Request,
    Responder,
};
use crate::planner::{Planner, ShardDecision};
use crate::pool::ScratchPool;
use crate::queue::{JobQueue, SubmitError};
use crate::stats::{Counters, EngineStats};
use crate::telemetry::{self, Phase, Span, Telemetry};
use listkit::sharded::ShardedList;
use listrank::HostRunner;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Engine sizing and policy. Telemetry has no switch: the phase and op
/// histograms are the engine's only record of completions and their
/// timings, and scratch buffers are always pooled.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads draining the queue (job-level parallelism).
    pub workers: usize,
    /// Queue capacity; blocking `submit` applies backpressure here.
    pub queue_capacity: usize,
    /// Thread budget for the data-parallel phases inside jobs, shared by
    /// the workers that are running a batch: each batch is granted
    /// `inner_threads / busy` threads (at least 1), where `busy` counts
    /// the workers running a batch, its own included. A lone job gets
    /// the whole budget; under full load each worker gets
    /// `inner_threads / workers`. The planner's cold prior assumes the
    /// lone-job budget.
    pub inner_threads: usize,
    /// Jobs of at most this many vertices are batched together.
    pub small_cutoff: usize,
    /// Maximum jobs per small-job batch.
    pub batch_max: usize,
    /// Per-worker vertex budget for sharded requests
    /// ([`Request::sharded`]): lists of at most this many vertices run
    /// monolithically, larger ones split into shards of at most this
    /// size (≈ the vertex count whose working set a worker can keep
    /// cache-resident).
    pub shard_budget: usize,
    /// Slow-request log threshold in milliseconds (total phase time).
    /// `None` = the `RANKD_SLOW_MS` environment variable, defaulting to
    /// [`crate::telemetry::DEFAULT_SLOW_MS`].
    pub slow_request_ms: Option<u64>,
    /// Fault-injection plane for the worker-side injection points
    /// (`exec_panic`, `worker_panic`). Disabled by default — one branch
    /// per decision, no other cost. The server shares its plane here so
    /// one `--fault` spec drives every layer.
    pub fault: Arc<FaultPlane>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let workers = (avail / 2).clamp(2, 8).min(avail.max(1));
        EngineConfig {
            workers,
            queue_capacity: 1024,
            inner_threads: avail,
            small_cutoff: 4096,
            batch_max: 64,
            shard_budget: 1 << 21,
            slow_request_ms: None,
            fault: Arc::new(FaultPlane::disabled()),
        }
    }
}

impl EngineConfig {
    /// Override the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Override the queue capacity.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Override the thread budget the busy workers share (`1` gives
    /// every job one thread).
    pub fn with_inner_threads(mut self, t: usize) -> Self {
        self.inner_threads = t.max(1);
        self
    }

    /// Override the small-job batching parameters.
    pub fn with_batching(mut self, cutoff: usize, max: usize) -> Self {
        self.small_cutoff = cutoff;
        self.batch_max = max.max(1);
        self
    }

    /// Override the per-worker sharding budget.
    pub fn with_shard_budget(mut self, budget: usize) -> Self {
        self.shard_budget = budget.max(1);
        self
    }

    /// Override the slow-request log threshold in milliseconds.
    pub fn with_slow_request_ms(mut self, ms: u64) -> Self {
        self.slow_request_ms = Some(ms);
        self
    }

    /// Install a fault-injection plane (shared with the server so one
    /// spec drives socket, store, and worker injection points).
    pub fn with_fault(mut self, fault: Arc<FaultPlane>) -> Self {
        self.fault = fault;
        self
    }
}

struct Shared {
    cfg: EngineConfig,
    queue: JobQueue,
    planner: Planner,
    pool: ScratchPool,
    counters: Counters,
    telemetry: Telemetry,
    started: Instant,
    /// Workers currently running a batch; they split `inner_threads`.
    /// Relaxed: the count publishes no other data.
    busy: AtomicUsize,
}

/// The `rankd` batch execution engine: submit many ranking/scan jobs,
/// workers drain them with adaptive per-job algorithm selection and
/// pooled scratch memory.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Engine {
    /// Start an engine with the given configuration. Zero values for
    /// the sizing knobs are normalized up to 1 (an engine with no
    /// workers or no queue could never complete a job).
    pub fn new(mut cfg: EngineConfig) -> Self {
        cfg.workers = cfg.workers.max(1);
        cfg.inner_threads = cfg.inner_threads.max(1);
        cfg.queue_capacity = cfg.queue_capacity.max(1);
        cfg.batch_max = cfg.batch_max.max(1);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_capacity),
            planner: Planner::new(cfg.inner_threads),
            pool: ScratchPool::new(cfg.workers),
            counters: Counters::default(),
            telemetry: Telemetry::new(cfg.slow_request_ms),
            started: Instant::now(),
            busy: AtomicUsize::new(0),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rankd-worker-{i}"))
                    // Respawn wrapper: per-job panics are isolated
                    // inside worker_loop, but a panic *outside* job
                    // execution (poisoned scratch, injected
                    // worker_panic) would otherwise silently kill this
                    // worker and shrink the pool until the daemon
                    // starves. Catch it, count it, re-enter the loop on
                    // the same thread. worker_loop never holds an
                    // uncompleted job across a panic point, so no
                    // waiter is stranded by the unwind.
                    .spawn(move || loop {
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            worker_loop(&shared)
                        }));
                        match run {
                            Ok(()) => break,
                            Err(_) => {
                                shared.counters.workers_respawned.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn engine worker")
            })
            .collect();
        Engine { shared, workers, next_id: AtomicU64::new(0) }
    }

    /// Start with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.cfg
    }

    /// Submit a typed request, blocking while the queue is full
    /// (backpressure). The returned handle's `wait()` resolves directly
    /// to the request's concrete output type.
    pub fn submit<R: Send + 'static>(&self, req: Request<R>) -> Result<JobHandle<R>, SubmitError> {
        self.submit_with(req, JobOptions::default())
    }

    /// Submit with explicit options, blocking while the queue is full.
    pub fn submit_with<R: Send + 'static>(
        &self,
        req: Request<R>,
        opts: JobOptions,
    ) -> Result<JobHandle<R>, SubmitError> {
        self.submit_cell(req, opts, true)
    }

    /// Submit without blocking; fails with [`SubmitError::Full`] when
    /// the queue is at capacity.
    pub fn try_submit<R: Send + 'static>(
        &self,
        req: Request<R>,
    ) -> Result<JobHandle<R>, SubmitError> {
        self.try_submit_with(req, JobOptions::default())
    }

    /// Non-blocking submit with explicit options.
    pub fn try_submit_with<R: Send + 'static>(
        &self,
        req: Request<R>,
        opts: JobOptions,
    ) -> Result<JobHandle<R>, SubmitError> {
        self.submit_cell(req, opts, false)
    }

    /// Submit without blocking, with a one-shot completion callback
    /// instead of a waitable handle. The callback runs on the worker
    /// thread that settles the job — it should hand off promptly (the
    /// event-driven server encodes the reply and wakes its reactor).
    /// Returns the job id. On any error the callback is dropped
    /// *unfired* and the caller answers the request itself.
    /// [`SubmitError::Full`] here is not counted as a client-visible
    /// rejection: the server holds a job frame undecoded while the
    /// queue is full, so it meets `Full` only when another in-process
    /// submitter raced it, and answers that with a typed refusal.
    pub fn try_submit_callback<R: Send + 'static>(
        &self,
        req: Request<R>,
        opts: JobOptions,
        on_done: impl FnOnce(Result<JobReport<R>, JobError>) + Send + 'static,
    ) -> Result<u64, SubmitError> {
        let responder = Responder::Callback(Some(Box::new(
            move |res: Result<JobReport<ErasedOutput>, JobError>| {
                on_done(res.map(JobReport::downcast::<R>))
            },
        )));
        let job = self.make_job(req, opts, responder)?;
        let id = job.id;
        self.shared.queue.try_push(job).map_err(|(e, _job)| e)?;
        self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// The handle submit paths: queue the job (blocking for room when
    /// `block`) and hand back a handle on its cell.
    fn submit_cell<R: Send + 'static>(
        &self,
        req: Request<R>,
        opts: JobOptions,
        block: bool,
    ) -> Result<JobHandle<R>, SubmitError> {
        let cell = JobCell::new();
        let job = self.make_job(req, opts, Responder::Cell(Arc::clone(&cell)))?;
        let handle = JobHandle {
            id: job.id,
            trace_id: job.opts.trace_id.unwrap_or(0),
            cell,
            _out: PhantomData,
        };
        if block {
            self.shared.queue.push(job)?;
        } else if let Err((e, _job)) = self.shared.queue.try_push(job) {
            if e == SubmitError::Full {
                self.shared.counters.rejected_full.fetch_add(1, Ordering::Relaxed);
            }
            return Err(e);
        }
        self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    /// Validate `req` and build its queued job, delivering the result
    /// through `responder`. Trace ids are assigned at the earliest
    /// observation point: the server sets one at frame decode;
    /// in-process requests get theirs here, at submit.
    fn make_job<R>(
        &self,
        req: Request<R>,
        mut opts: JobOptions,
        responder: Responder,
    ) -> Result<QueuedJob, SubmitError> {
        req.spec.validate()?;
        opts.trace_id.get_or_insert_with(telemetry::next_trace_id);
        Ok(QueuedJob {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            spec: req.spec,
            opts,
            responder,
            enqueued: Instant::now(),
            seq: 0,
        })
    }

    /// The engine's telemetry registry (histograms, span ring) — the
    /// socket server records its decode/reply-write phases here so the
    /// whole request pipeline lands in one set of histograms.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// The engine's adaptive planner — shared with the mutation plane
    /// ([`crate::dynamic`]) so maintenance decisions draw on the same
    /// per-bucket history as query dispatch.
    pub(crate) fn planner(&self) -> &Planner {
        &self.shared.planner
    }

    /// Current queue depth (cheap — one lock, no snapshot gathering;
    /// the server's load-shed watermark check polls this per request).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// A point-in-time metrics snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats::gather(
            self.shared.started,
            &self.shared.counters,
            &self.shared.planner,
            &self.shared.telemetry,
            self.shared.pool.stats(),
            self.shared.queue.depth(),
            self.shared.queue.peak_depth(),
            self.shared.queue.sched_snapshot(),
        )
    }

    /// Stop accepting work, drain the queue, join the workers, and
    /// return the final stats.
    pub fn shutdown(mut self) -> EngineStats {
        self.shared.queue.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.queue.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Outcome of one job execution (either path), fed into the report and
/// the counters.
struct Executed {
    output: ErasedOutput,
    algorithm: listrank::Algorithm,
    shards: usize,
    stitch_ns: u64,
}

/// One worker's share of a `budget` of threads while `busy` workers
/// (its own included) run a batch.
fn split(budget: usize, busy: usize) -> usize {
    (budget / busy.max(1)).max(1)
}

/// A worker's busy slot for one batch, holding the batch's thread
/// grant. Dropping it frees the slot, on unwind too, so a panicking
/// batch cannot leave later batches a smaller share.
struct Grant<'a> {
    busy: &'a AtomicUsize,
    threads: usize,
}

impl<'a> Grant<'a> {
    fn take(shared: &'a Shared) -> Self {
        let busy = shared.busy.fetch_add(1, Ordering::Relaxed) + 1;
        Grant { busy: &shared.busy, threads: split(shared.cfg.inner_threads, busy) }
    }
}

impl Drop for Grant<'_> {
    fn drop(&mut self) {
        self.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        if job.responder.is_settled() {
            // Cancelled while queued.
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            shared.queue.note_finished(job.opts.priority);
            continue;
        }
        let n = job.spec.len();
        let class = job.opts.priority;
        let mut batch = vec![job];
        // Small jobs: greedily pull queued same-class siblings so one
        // dequeue, one scratch acquisition and one pool install serve
        // many jobs.
        if n <= shared.cfg.small_cutoff && shared.cfg.batch_max > 1 {
            batch.extend(shared.queue.pop_small_batch(
                shared.cfg.small_cutoff,
                shared.cfg.batch_max - 1,
                class,
            ));
        }
        if batch.len() > 1 {
            shared.counters.batches.fetch_add(1, Ordering::Relaxed);
            shared.counters.batched_jobs.fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        let batched = batch.len() > 1;

        // The busy workers split the thread budget: this batch's share
        // is fixed now and held until the batch ends, so a lone job
        // gets the whole budget. The shim's pool is only a budget (it
        // spawns threads per parallel operation), so one per batch is
        // free.
        let grant = Grant::take(shared);
        let threads = grant.threads;
        let inner_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("engine inner pool");
        let mut scratch = shared.pool.acquire();
        inner_pool.install(|| {
            for mut job in batch {
                if job.responder.is_settled() {
                    shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    shared.queue.note_finished(job.opts.priority);
                    continue;
                }
                // Deadline enforcement happens here, at dequeue and
                // before any execution or queue accounting: an expired
                // job's wait never pollutes the QueueWait histogram.
                if let Some(deadline_ms) = job.opts.deadline_ms {
                    if crate::fault::deadline_expired(job.enqueued.elapsed(), deadline_ms) {
                        shared.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
                        job.responder.settle(Err(JobError::DeadlineExceeded));
                        shared.queue.note_finished(job.opts.priority);
                        continue;
                    }
                }
                let (list, exec, seed) = (&job.spec.list, &job.spec.exec, job.opts.seed);
                let n = list.len();
                let op = exec.op_kind();
                let queued_ns = job.enqueued.elapsed().as_nanos() as u64;
                // Sharded requests get the budget-aware plan branch;
                // all others (and sharded requests that fit the budget)
                // take the ordinary monolithic dispatch. Both are keyed
                // on the op kind and value width.
                let t_plan = Instant::now();
                let (bytes, pinned) = (exec.elem_bytes(), job.opts.algorithm);
                let decision = if job.spec.sharded {
                    shared.planner.choose_sharded(n, shared.cfg.shard_budget, op, bytes, pinned)
                } else {
                    ShardDecision::Monolithic(shared.planner.choose(n, op, bytes, pinned))
                };
                let plan_ns = t_plan.elapsed().as_nanos() as u64;
                let t0 = Instant::now();
                // The walks accumulate lane-occupancy telemetry in the
                // scratch; zero it so this job's delta is attributable.
                scratch.telemetry.reset();
                // Isolate panics: an unwinding job must not kill the
                // worker (stranding every later waiter) — it completes
                // its cell with `Failed` instead. The scratch is safe
                // to reuse afterwards: every entry point re-clears it.
                let exec = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if shared.cfg.fault.exec_panic() {
                        panic!("injected exec panic (fault plane)");
                    }
                    match decision {
                        ShardDecision::Monolithic(plan) => {
                            let runner = HostRunner::new(plan.algorithm)
                                .with_seed(seed)
                                .with_lanes(plan.lanes);
                            let output = exec.run(&runner, list, &mut scratch);
                            Executed { output, algorithm: plan.algorithm, shards: 0, stitch_ns: 0 }
                        }
                        ShardDecision::Sharded { shard_size, lanes, .. } => {
                            // Resident-dataset fast path: reuse (or
                            // build and cache) the dataset's artifact
                            // instead of rebuilding per job; inline
                            // jobs build their own.
                            let sharded = match &job.spec.warm {
                                Some(cache) => cache.get_or_build(list, shard_size, lanes),
                                None => {
                                    Arc::new(ShardedList::build(list, shard_size).with_lanes(lanes))
                                }
                            };
                            let (output, report) =
                                exec.run_sharded_prebuilt(&sharded, seed, &mut scratch);
                            Executed {
                                output,
                                algorithm: report.stitch_algorithm,
                                shards: report.shards,
                                stitch_ns: report.stitch_ns,
                            }
                        }
                    }
                }));
                let exec_ns = t0.elapsed().as_nanos() as u64;
                let lane_stats = scratch.telemetry.snapshot();
                shared.counters.lane_steps.fetch_add(lane_stats.steps, Ordering::Relaxed);
                shared.counters.lane_slots.fetch_add(lane_stats.slots, Ordering::Relaxed);
                let done = match exec {
                    Ok(done) => done,
                    Err(_) => {
                        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                        shared.counters.panics_recovered.fetch_add(1, Ordering::Relaxed);
                        job.responder.settle(Err(JobError::Failed));
                        shared.queue.note_finished(job.opts.priority);
                        continue;
                    }
                };
                // The measurement is valid regardless of a late cancel
                // — but only monolithic runs feed the per-algorithm
                // history (a sharded run is a composite; folding it
                // into one algorithm's EWMA would poison the bucket).
                if done.shards == 0 {
                    shared.planner.record(n, op, done.algorithm, exec_ns);
                }
                let trace_id = job.opts.trace_id.unwrap_or(0);
                let landed = job.responder.settle(Ok(JobReport {
                    id: job.id,
                    trace_id,
                    n,
                    op,
                    algorithm: done.algorithm,
                    shards: done.shards,
                    stitch_ns: done.stitch_ns,
                    batched,
                    threads,
                    queued_ns,
                    plan_ns,
                    exec_ns,
                    output: done.output,
                }));
                shared.queue.note_finished(job.opts.priority);
                if landed {
                    shared.counters.elements.fetch_add(n as u64, Ordering::Relaxed);
                    shared.counters.op_elements[op.index()].fetch_add(n as u64, Ordering::Relaxed);
                    shared.telemetry.record_phase(Phase::QueueWait, queued_ns);
                    shared.telemetry.record_phase(Phase::Plan, plan_ns);
                    if done.shards > 0 {
                        shared
                            .counters
                            .shards_ranked
                            .fetch_add(done.shards as u64, Ordering::Relaxed);
                        shared.telemetry.record_phase(Phase::Stitch, done.stitch_ns);
                    }
                    shared.telemetry.record_op(op, exec_ns);
                    let mut phase_ns = [0u64; Phase::ALL.len()];
                    phase_ns[Phase::Decode.index()] = job.opts.decode_ns;
                    phase_ns[Phase::QueueWait.index()] = queued_ns;
                    phase_ns[Phase::Plan.index()] = plan_ns;
                    phase_ns[Phase::Exec.index()] = exec_ns;
                    phase_ns[Phase::Stitch.index()] = done.stitch_ns;
                    shared.telemetry.record_span(Span {
                        trace_id,
                        op,
                        n,
                        algorithm: done.algorithm,
                        shards: done.shards,
                        phase_ns,
                    });
                    // Last: `EngineStats::completed` is the Exec count,
                    // so a reader that sees this job complete also sees
                    // every sample recorded above.
                    shared.telemetry.record_phase(Phase::Exec, exec_ns);
                } else {
                    // Cancelled while executing: result discarded.
                    shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        shared.pool.release(scratch);
        // The worker-panic injection point sits *between* batches: every
        // popped job has already settled, so the unwind (caught by the
        // respawn wrapper around this loop) strands no waiter. The grant
        // is still held here; its drop frees the busy slot.
        if shared.cfg.fault.worker_panic() {
            panic!("injected worker panic (fault plane)");
        }
        drop(grant);
    }
}

#[cfg(test)]
mod tests {
    use super::split;

    #[test]
    fn busy_workers_split_the_budget() {
        let grants: Vec<usize> = (1..=9).map(|busy| split(8, busy)).collect();
        assert_eq!(grants, [8, 4, 2, 2, 1, 1, 1, 1, 1]);
        assert!((1..=4).all(|busy| split(1, busy) == 1), "a budget of 1 grants 1");
    }
}
