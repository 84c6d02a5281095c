//! The ledger's metric names and units — the contract `BENCHMARK.json`
//! declares, kept in one place so the run output and the declaration
//! cannot drift apart (a unit test compares them).

/// End-to-end metrics: what a tenant of `rankd` sees. Printed by every
/// run with `--trace 0`, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rank_p50_ms", "ms"),
    ("scan_p50_ms", "ms"),
    ("req_per_s", "1/s"),
    ("melem_per_s", "Melem/s"),
    ("rss_peak_mb", "MiB"),
];

/// Lane counts of the walk-kernel sweep (the planner's ladder).
pub const WALK_LANES: [usize; 5] = [1, 2, 4, 8, 16];

/// Per-layer metrics. Printed by every run with `--trace 1`, on every
/// workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // walk: `listkit::walk::reduce_chains`, one thread.
    ("walk.reduce_ns_per_elem.random.lanes1", "ns/elem"),
    ("walk.reduce_ns_per_elem.random.lanes2", "ns/elem"),
    ("walk.reduce_ns_per_elem.random.lanes4", "ns/elem"),
    ("walk.reduce_ns_per_elem.random.lanes8", "ns/elem"),
    ("walk.reduce_ns_per_elem.random.lanes16", "ns/elem"),
    ("walk.reduce_ns_per_elem.blocked4k.lanes1", "ns/elem"),
    ("walk.reduce_ns_per_elem.blocked4k.lanes2", "ns/elem"),
    ("walk.reduce_ns_per_elem.blocked4k.lanes4", "ns/elem"),
    ("walk.reduce_ns_per_elem.blocked4k.lanes8", "ns/elem"),
    ("walk.reduce_ns_per_elem.blocked4k.lanes16", "ns/elem"),
    ("walk.bytes_per_elem", "B/elem-computed"),
    ("walk.lane_occupancy", "ratio"),
    // listrank: `HostRunner::rank_into` / `scan_into`, Reid-Miller.
    ("listrank.rank_ns_per_elem", "ns/elem"),
    ("listrank.scan_add_ns_per_elem", "ns/elem"),
    // engine: `Engine::submit` -> `wait`, in process.
    ("engine.exec_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.plan_first_ms", "ms"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.probe_share", "ratio"),
    ("engine.batch_size", "jobs"),
    ("engine.pool_hit_ratio", "ratio"),
    ("engine.dispatch_flips", "count"),
    ("engine.reid_miller_share", "ratio"),
    // store: `engine::store` + `engine::dynamic`, through the daemon.
    ("store.hit_ratio", "ratio"),
    ("store.artifacts_built", "count"),
    ("store.artifacts_reused", "count"),
    ("store.artifacts_patched", "count"),
    ("store.incremental_share", "ratio"),
    ("store.evictions", "count"),
    ("store.mutate_exec_ms", "ms"),
    ("store.artifact_build_ms", "ms"),
    ("store.put_p50_ms", "ms"),
    ("store.mutate_p50_ms", "ms"),
    ("store.sharded_rank_p50_ms", "ms"),
    // protocol: the wire codec, in process.
    ("protocol.output_encode_ms", "ms"),
    ("protocol.output_decode_ms", "ms"),
    ("protocol.put_decode_ms", "ms"),
    ("protocol.scan_h_decode_ms", "ms"),
    ("protocol.reply_bytes_per_elem", "B/elem"),
    // server: reactor + transport, from STATS deltas over the window.
    ("server.decode_p99_ms", "ms"),
    ("server.reply_write_p50_ms", "ms"),
    ("server.residual_ms", "ms"),
    ("server.bytes_per_req", "B"),
    ("server.frames_per_req", "frames"),
    ("server.reply_reorders", "count"),
    ("server.pipeline_depth_p50", "requests"),
    ("server.failed_frac", "ratio"),
    ("server.errors.transport", "count"),
    ("server.errors.busy", "count"),
    ("server.errors.overloaded", "count"),
    ("server.errors.quota_exceeded", "count"),
    ("server.errors.stale_handle", "count"),
    ("server.errors.internal_error", "count"),
    ("server.errors.other", "count"),
    // load generator: tails and the sample counts behind the percentiles.
    ("loadgen.rank_p90_ms", "ms"),
    ("loadgen.rank_p99_ms", "ms"),
    ("loadgen.scan_p90_ms", "ms"),
    ("loadgen.rank_samples", "count"),
    ("loadgen.scan_samples", "count"),
    ("loadgen.put_samples", "count"),
    ("loadgen.mutate_samples", "count"),
    ("loadgen.sharded_rank_samples", "count"),
    // the traced run's rank p50 (against the untraced one: the tracing
    // overhead) and the layer-monotonicity self-check.
    ("trace.rank_p50_ms", "ms"),
    ("chain.violations", "count"),
];

/// Error codes reported one by one; every other code counts as `other`.
pub const ERROR_CODES: [&str; 6] =
    ["transport", "busy", "overloaded", "quota_exceeded", "stale_handle", "internal_error"];

/// `QuotaExceeded` -> `quota_exceeded`.
pub fn snake_case(camel: &str) -> String {
    let mut out = String::new();
    for (i, c) in camel.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one array of `BENCHMARK.json`.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| {
                let name = rest[..rest.find('"').expect("name closes")].to_string();
                let u = &rest[rest.find("\"unit\": \"").expect("unit present") + 9..];
                (name, u[..u.find('"').expect("unit closes")].to_string())
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(declared(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn names_fit_the_ledger_format() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
        }
        assert_eq!(snake_case("QuotaExceeded"), "quota_exceeded");
        assert_eq!(snake_case("Busy"), "busy");
    }
}
