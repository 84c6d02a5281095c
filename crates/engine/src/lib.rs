//! # engine — `rankd`, the batch execution subsystem
//!
//! The paper's algorithms (and this repo's `listrank` crate) answer "how
//! fast can *one* list be scanned"; a serving system asks "how many
//! ranking/scan *requests* per second can this machine sustain". `rankd`
//! is the bridge, and its public boundary carries the paper's full
//! generality: **any binary associative operator**, typed end to end.
//!
//! * **[`Request`]** — typed request builder: [`Request::rank`],
//!   [`Request::scan`] (any [`listkit::ScanOp`], including
//!   non-commutative ones), [`Request::segmented_scan`], and the
//!   budget-aware sharded variants. The operator is type-erased
//!   *inside* the engine; callers never see an output enum.
//! * **[`JobHandle`]** — typed await/cancel handle: `wait()` on the
//!   handle of a `Request<Vec<i64>>` returns `JobReport<Vec<i64>>`
//!   directly.
//! * **[`Engine`]** — a bounded job queue with blocking backpressure,
//!   drained by a worker pool; the busy workers split one thread budget
//!   for their jobs' data-parallel phases, so a lone job gets all of it.
//! * **[`Planner`]** — adaptive algorithm selection keyed on job size
//!   *and* operation kind ([`OpKind`]): the paper's cost model as prior
//!   (op-width aware), refined by measured per-(size, op) execution
//!   history.
//! * **small-job batching**, **[`ScratchPool`]** buffer reuse, and
//!   **[`EngineStats`]** — throughput, queue depth, dispatch matrices
//!   by size and by op kind, per-op throughput.
//! * **[`dynamic`]** — the mutation plane: splice / delete / append
//!   batches against resident datasets, with cached sharded artifacts
//!   maintained incrementally (dirty shards patched, clean shards
//!   shared) or rebuilt, per planner decision.
//! * **`rankd serve`** — the socket front-end: a [`Server`] accepts
//!   concurrent clients over a Unix domain socket speaking the
//!   length-prefixed binary [`protocol`] (spec: `docs/PROTOCOL.md`),
//!   decodes frames into the same typed requests, and turns the
//!   queue's backpressure into per-client admission control. The
//!   in-process [`Client`] is the reference consumer.
//!
//! ```
//! use engine::{Engine, Request};
//! use listkit::ops::MaxOp;
//! use std::sync::Arc;
//!
//! let engine = Engine::with_defaults();
//! let list = Arc::new(listkit::gen::random_list(10_000, 42));
//!
//! // Ranking: the typed handle resolves straight to Vec<u64>.
//! let ranks = engine.submit(Request::rank(Arc::clone(&list))).unwrap()
//!     .wait().unwrap();
//! assert_eq!(ranks.output[list.head() as usize], 0);
//!
//! // Any operator from `listkit::ops` — here a max-scan -> Vec<i64>.
//! let values = Arc::new((0..10_000).map(|i| (i % 97) - 48).collect::<Vec<i64>>());
//! let maxes = engine.submit(Request::scan(Arc::clone(&list), values, MaxOp)).unwrap()
//!     .wait().unwrap();
//! assert_eq!(maxes.output[list.head() as usize], i64::MIN); // head: identity
//! println!("{}", engine.stats());
//! ```

#![deny(missing_docs)]
// `deny` rather than `forbid`: the poll(2) FFI shim in [`poll`] is the
// one module-scoped allow in the workspace (see its docs).
#![deny(unsafe_code)]

#[cfg(unix)]
pub mod client;
pub mod dynamic;
mod engine;
pub mod fault;
pub mod job;
pub mod op;
pub mod planner;
#[cfg(unix)]
pub mod poll;
pub mod pool;
pub mod protocol;
pub mod queue;
pub mod sched;
#[cfg(unix)]
pub mod server;
pub mod stats;
pub mod store;
pub mod telemetry;

pub use crate::engine::{Engine, EngineConfig};
#[cfg(unix)]
pub use client::{Call, Client, ClientError, RetryPolicy, ServedOutput};
pub use dynamic::{MutateError, MutationOutcome};
pub use fault::{FaultConfig, FaultPlane, FaultSnapshot};
pub use job::{JobError, JobHandle, JobOptions, JobReport, Request};
pub use op::OpKind;
pub use planner::{MutateDecision, Plan, PlanDecision, Planner, ShardDecision};
pub use pool::{PoolStats, ScratchPool};
pub use queue::SubmitError;
pub use sched::{Priority, QuotaTable, SchedSnapshot};
#[cfg(unix)]
pub use server::{ServeConfig, Server, ServerControl, ServerStats};
pub use stats::{EngineStats, OpThroughput};
pub use store::{
    ArtifactCache, DatasetRef, DatasetStore, MutationStats, PutReceipt, StoreError, StoreStats,
};
pub use telemetry::{Histogram, Phase, Span, Telemetry};
