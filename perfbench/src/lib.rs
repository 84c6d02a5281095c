//! # perfbench — the `rankd` layer ledger
//!
//! One command starts a real `rankd serve` with its default
//! configuration, drives it from one load-generating process over at
//! most two connections and two threads, checks every reply against
//! the serial oracle, and prints the ledger's end-to-end metrics
//! (`--trace 0`) or, in a separate traced run, the per-layer metrics of
//! the six layers a request passes through (`--trace 1`):
//!
//! | layer | measured through |
//! |---|---|
//! | `walk` | `listkit::walk::reduce_chains`, in process |
//! | `listrank` | `HostRunner::rank_into` / `scan_into`, in process |
//! | `engine` | `Engine::submit` → `wait`, in process; served OUTPUT algorithms |
//! | `store` | the daemon's store and mutation gauges, MUTATE_OK |
//! | `protocol` | `output_body`, `decode_output`, `decode_request`, in process |
//! | `server` | STATS_V2 phase deltas and STATS byte/frame counters over the window |
//!
//! See `README.md` next to this crate for the workloads, the metric
//! mapping and how to run it.

pub mod daemon;
pub mod inputs;
pub mod layers;
pub mod ledger;
pub mod run;
pub mod session;
pub mod snapshot;
pub mod stats;
pub mod workloads;
