//! Wire-format tests that keep `docs/PROTOCOL.md` honest: the byte
//! strings documented there are replayed, literally, through the real
//! codec (and, on unix, through a live server). If an edit to the
//! protocol changes any documented byte, these tests fail until the
//! document is updated to match.

use engine::protocol::{
    self, Call, ErrorCode, Frame, FrameKind, Job, JobFrame, OutputMeta, ReadFrameError, ReqFlags,
    Source, WireElem, WireOp, WireRequest, WireValues, MAGIC, MAX_FRAME_DEFAULT, VERSION,
};
use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, MinOp, XorOp};
use listkit::LinkedList;
use listrank::Algorithm;
use proptest::prelude::*;

/// The worked example list from PROTOCOL.md: traversal order
/// `1 → 0 → 2`, i.e. `next = [2, 0, 2]` (vertex 2 is the self-loop
/// tail) with head 1. Ranks: `rank[0] = 1`, `rank[1] = 0`,
/// `rank[2] = 2`.
fn example_list() -> LinkedList {
    LinkedList::new(vec![2, 0, 2], 1).expect("example list is valid")
}

/// PROTOCOL.md §"A worked round trip", frame 1: HELLO.
const DOC_HELLO: &[u8] = &[
    0x07, 0x00, 0x00, 0x00, // len = 7
    0x01, // kind = HELLO
    0x52, 0x4E, 0x4B, 0x44, // magic "RNKD"
    0x06, 0x00, // version = 6
];

/// PROTOCOL.md §"A worked round trip", frame 2: HELLO_OK.
const DOC_HELLO_OK: &[u8] = &[
    0x07, 0x00, 0x00, 0x00, // len = 7
    0x81, // kind = HELLO_OK
    0x06, 0x00, // version = 6
    0x00, 0x00, 0x00, 0x10, // max_frame = 0x10000000 (256 MiB)
];

/// PROTOCOL.md §"A worked round trip", frame 3: RANK.
const DOC_RANK: &[u8] = &[
    0x16, 0x00, 0x00, 0x00, // len = 22
    0x02, // kind = RANK
    0x00, // flags (bit 0 clear: monolithic dispatch)
    0x01, 0x00, 0x00, 0x00, // head = 1
    0x03, 0x00, 0x00, 0x00, // n = 3
    0x02, 0x00, 0x00, 0x00, // next[0] = 2
    0x00, 0x00, 0x00, 0x00, // next[1] = 0
    0x02, 0x00, 0x00, 0x00, // next[2] = 2 (self-loop tail)
];

/// PROTOCOL.md §"The same RANK with a queue deadline (v5)": the RANK
/// frame with `FLAG_DEADLINE` set and a 1500 ms budget between the
/// flags byte and the list.
const DOC_RANK_DEADLINE: &[u8] = &[
    0x1E, 0x00, 0x00, 0x00, // len = 30
    0x02, // kind = RANK
    0x02, // flags (bit 1: deadline present)
    0xDC, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // deadline_ms = 1500
    0x01, 0x00, 0x00, 0x00, // head = 1
    0x03, 0x00, 0x00, 0x00, // n = 3
    0x02, 0x00, 0x00, 0x00, // next[0] = 2
    0x00, 0x00, 0x00, 0x00, // next[1] = 0
    0x02, 0x00, 0x00, 0x00, // next[2] = 2 (self-loop tail)
];

/// PROTOCOL.md §"A worked round trip", frame 4: OUTPUT (with the
/// document's placeholder timings — queued 1000 ns, exec 2000 ns — and
/// placeholder trace id 1).
const DOC_OUTPUT: &[u8] = &[
    0x3A, 0x00, 0x00, 0x00, // len = 58
    0x82, // kind = OUTPUT
    0x00, // algorithm = 0 (serial)
    0x00, 0x00, 0x00, 0x00, // shards = 0 (monolithic)
    0xE8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // queued_ns = 1000
    0xD0, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // exec_ns = 2000
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // trace_id = 1
    0x03, 0x00, 0x00, 0x00, // n = 3
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rank[0] = 1
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rank[1] = 0
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rank[2] = 2
];

/// PROTOCOL.md §"STATS_V2 / STATS_V2_OK", the request frame (no body).
const DOC_STATS_V2: &[u8] = &[
    0x01, 0x00, 0x00, 0x00, // len = 1
    0x07, // kind = STATS_V2
];

/// The worked STATS_V2_OK example from PROTOCOL.md: an exec-phase
/// histogram holding two samples (1000 ns and 2000 ns) plus the gauge
/// block. See [`example_stats_v2`] for the semantic content.
const DOC_STATS_V2_OK: &[u8] = &[
    0xF5, 0x01, 0x00, 0x00, // len = 501
    0x87, // kind = STATS_V2_OK
    0x06, 0x00, // block_count = 6
    // block 1: the exec-phase latency histogram
    0x01, // tag = 1 (phase histogram)
    0x03, // id = 3 (phase: exec)
    0x31, 0x00, 0x00, 0x00, // block len = 49
    0x04, // sub_bits = 4
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count = 2
    0xB8, 0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sum = 3000
    0xD0, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // max = 2000
    0x02, 0x00, 0x00, 0x00, // nonzero buckets = 2
    0x6F, 0x00, // bucket index = 111 (values 992..1024)
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // bucket count = 1
    0x7F, 0x00, // bucket index = 127 (values 1984..2048)
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // bucket count = 1
    // block 2: the gauge block
    0x04, // tag = 4 (gauges)
    0x00, // id = 0
    0x69, 0x00, 0x00, 0x00, // block len = 105
    0x0D, // gauge count = 13
    0x00, 0xF2, 0x05, 0x2A, 0x01, 0x00, 0x00, 0x00, // uptime_ns = 5e9
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // submitted = 2
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // completed = 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // cancelled = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // failed = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rejected_full = 0
    0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // elements = 6
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // queue_depth = 0
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // peak_queue_depth = 1
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lane_steps = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lane_slots = 0
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // connections_active = 1
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // connections_total = 1
    // block 3: the dataset-store gauge block (protocol v3)
    0x06, // tag = 6 (store gauges)
    0x00, // id = 0
    0x61, 0x00, 0x00, 0x00, // block len = 97
    0x0C, // store gauge count = 12
    0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, // budget_bytes = 1 GiB
    0x6C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // resident_bytes = 108
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // resident_count = 1
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // puts = 1
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // drops = 0
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lookups = 2
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // hits = 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // misses = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // evictions = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // put_rejected = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // artifacts_built = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // artifacts_reused = 0
    // block 4: the mutation-plane gauge block (protocol v4)
    0x07, // tag = 7 (mutation gauges)
    0x00, // id = 0
    0x31, 0x00, 0x00, 0x00, // block len = 49
    0x06, // mutation gauge count = 6
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // mutations = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // edits = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // incremental = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // full = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // dirty_shards_patched = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // artifacts_patched = 0
    // block 5: the fault/resilience gauge block (protocol v5)
    0x08, // tag = 8 (fault gauges)
    0x00, // id = 0
    0x51, 0x00, 0x00, 0x00, // block len = 81
    0x0A, // fault gauge count = 10
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // injected_io_errors = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // injected_delays = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // injected_short_writes = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // injected_exec_panics = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // injected_store_errors = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // panics_recovered = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // workers_respawned = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // deadline_expired = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // shed_queue = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // shed_store = 0
    // block 6: the scheduler/QoS gauge block (protocol v6)
    0x09, // tag = 9 (scheduler gauges)
    0x00, // id = 0
    0x51, 0x00, 0x00, 0x00, // block len = 81
    0x0A, // sched gauge count = 10
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // inflight_interactive = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // inflight_batch = 0
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // dispatched_interactive = 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // dispatched_batch = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // aged_dispatches = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // quota_rejected_inflight = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // quota_rejected_store = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // reply_reorders = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // pipelined_requests = 0
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // max_pipeline_depth = 0
];

/// The semantic content of [`DOC_STATS_V2_OK`].
fn example_stats_v2() -> protocol::WireStatsV2 {
    let mut v2 = protocol::WireStatsV2::default();
    // 1000 ns lands in bucket 111, 2000 ns in bucket 127 (4 sub-bucket
    // bits: group = floor(log2 v) - 3, sub = top-4-bits-after-leading).
    v2.phase[engine::Phase::Exec.index()].record(1000);
    v2.phase[engine::Phase::Exec.index()].record(2000);
    v2.gauges = protocol::StatsGauges {
        uptime_ns: 5_000_000_000,
        submitted: 2,
        completed: 2,
        cancelled: 0,
        failed: 0,
        rejected_full: 0,
        elements: 6,
        queue_depth: 0,
        peak_queue_depth: 1,
        lane_steps: 0,
        lane_slots: 0,
        connections_active: 1,
        connections_total: 1,
    };
    // One resident 3-vertex dataset (4*3 + 96 = 108 bytes) that served
    // two handle lookups, both hits.
    v2.store = protocol::StoreGauges {
        budget_bytes: 1 << 30,
        resident_bytes: 108,
        resident_count: 1,
        puts: 1,
        drops: 0,
        lookups: 2,
        hits: 2,
        misses: 0,
        evictions: 0,
        put_rejected: 0,
        artifacts_built: 0,
        artifacts_reused: 0,
    };
    // Both ranks dispatched in the (default) interactive class; the
    // conversation was serial, so the pipelining gauges stay zero.
    v2.sched.dispatched_interactive = 2;
    v2
}

#[test]
fn documented_stats_v2_bytes_match_the_codec() {
    // The request frame.
    assert_eq!(framed(FrameKind::StatsV2, &[]), DOC_STATS_V2);
    let frame = parse(DOC_STATS_V2);
    assert!(matches!(protocol::decode_request(&frame).expect("decodes"), WireRequest::StatsV2));

    // The reply: encoder produces exactly the documented bytes, and
    // replaying the documented bytes reproduces the example snapshot.
    let v2 = example_stats_v2();
    let got = framed(FrameKind::StatsV2Ok, &protocol::stats_v2_body(&v2));
    if got != DOC_STATS_V2_OK {
        eprintln!("ACTUAL STATS_V2_OK bytes:");
        for chunk in got.chunks(8) {
            eprintln!(
                "    {},",
                chunk.iter().map(|b| format!("{b:#04X}")).collect::<Vec<_>>().join(", ")
            );
        }
    }
    assert_eq!(got, DOC_STATS_V2_OK);
    let frame = parse(DOC_STATS_V2_OK);
    assert_eq!(frame.kind, FrameKind::StatsV2Ok as u8);
    let decoded = protocol::decode_stats_v2(&frame.body).expect("decodes");
    assert_eq!(decoded, v2);
    let exec = &decoded.phase[engine::Phase::Exec.index()];
    assert_eq!(exec.count(), 2);
    assert_eq!(exec.sum(), 3000);
    assert_eq!(exec.max(), 2000);
}

/// A STATS_V2_OK body in which every gauge of all five gauge blocks
/// holds a distinct value (block × 100 + position), plus a
/// pipeline-depth histogram and one dispatch row. Captured from the
/// codec before the gauge blocks shared one declaration: a swapped or
/// dropped gauge anywhere moves these bytes. Whitespace is cosmetic.
const EVERY_GAUGE_HEX: &[&str] = &[
    "0700",                                                                // block_count = 7
    "040069000000 0d", // tag 4 (gauges), id 0, len 105, count 13
    "6400000000000000 6500000000000000 6600000000000000 6700000000000000", // 100, 101, 102, 103
    "6800000000000000 6900000000000000 6a00000000000000 6b00000000000000", // 104, 105, 106, 107
    "6c00000000000000 6d00000000000000 6e00000000000000 6f00000000000000", // 108, 109, 110, 111
    "7000000000000000", // 112
    "060061000000 0c", // tag 6 (store), id 0, len 97, count 12
    "c800000000000000 c900000000000000 ca00000000000000 cb00000000000000", // 200, 201, 202, 203
    "cc00000000000000 cd00000000000000 ce00000000000000 cf00000000000000", // 204, 205, 206, 207
    "d000000000000000 d100000000000000 d200000000000000 d300000000000000", // 208, 209, 210, 211
    "070031000000 06", // tag 7 (mutate), id 0, len 49, count 6
    "2c01000000000000 2d01000000000000 2e01000000000000 2f01000000000000", // 300, 301, 302, 303
    "3001000000000000 3101000000000000", // 304, 305
    "080051000000 0a", // tag 8 (fault), id 0, len 81, count 10
    "9001000000000000 9101000000000000 9201000000000000 9301000000000000", // 400, 401, 402, 403
    "9401000000000000 9501000000000000 9601000000000000 9701000000000000", // 404, 405, 406, 407
    "9801000000000000 9901000000000000", // 408, 409
    "090051000000 0a", // tag 9 (sched), id 0, len 81, count 10
    "f401000000000000 f501000000000000 f601000000000000 f701000000000000", // 500, 501, 502, 503
    "f801000000000000 f901000000000000 fa01000000000000 fb01000000000000", // 504, 505, 506, 507
    "fc01000000000000 fd01000000000000", // 508, 509
    "0a0031000000",    // tag 10 (pipeline depth), id 0, len 49
    "04 0200000000000000 0900000000000000 0800000000000000 02000000", // sub_bits 4, count 2, sum 9, max 8, 2 buckets
    "0100 0100000000000000 0800 0100000000000000", // buckets 1 and 8: one sample each
    "050129000000 05", // tag 5 (dispatch row), id 1 (add), len 41, count 5
    "5802000000000000 5902000000000000 5a02000000000000 5b02000000000000", // 600, 601, 602, 603
    "5c02000000000000", // 604
];

fn unhex(parts: &[&str]) -> Vec<u8> {
    let digits: Vec<u8> = parts.concat().bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// The semantic content of [`EVERY_GAUGE_HEX`], every field spelled
/// out so the struct literal pins names as well as positions.
fn every_gauge_stats() -> protocol::WireStatsV2 {
    let mut v2 = protocol::WireStatsV2 {
        gauges: protocol::StatsGauges {
            uptime_ns: 100,
            submitted: 101,
            completed: 102,
            cancelled: 103,
            failed: 104,
            rejected_full: 105,
            elements: 106,
            queue_depth: 107,
            peak_queue_depth: 108,
            lane_steps: 109,
            lane_slots: 110,
            connections_active: 111,
            connections_total: 112,
        },
        store: protocol::StoreGauges {
            budget_bytes: 200,
            resident_bytes: 201,
            resident_count: 202,
            puts: 203,
            drops: 204,
            lookups: 205,
            hits: 206,
            misses: 207,
            evictions: 208,
            put_rejected: 209,
            artifacts_built: 210,
            artifacts_reused: 211,
        },
        mutate: protocol::MutGauges {
            mutations: 300,
            edits: 301,
            incremental: 302,
            full: 303,
            dirty_shards_patched: 304,
            artifacts_patched: 305,
        },
        fault: protocol::FaultGauges {
            injected_io_errors: 400,
            injected_delays: 401,
            injected_short_writes: 402,
            injected_exec_panics: 403,
            injected_store_errors: 404,
            panics_recovered: 405,
            workers_respawned: 406,
            deadline_expired: 407,
            shed_queue: 408,
            shed_store: 409,
        },
        sched: protocol::SchedGauges {
            inflight_interactive: 500,
            inflight_batch: 501,
            dispatched_interactive: 502,
            dispatched_batch: 503,
            aged_dispatches: 504,
            quota_rejected_inflight: 505,
            quota_rejected_store: 506,
            reply_reorders: 507,
            pipelined_requests: 508,
            max_pipeline_depth: 509,
        },
        dispatch_by_op: vec![(engine::OpKind::Add, vec![600, 601, 602, 603, 604])],
        ..Default::default()
    };
    v2.pipeline_depth.record(1);
    v2.pipeline_depth.record(8);
    v2
}

#[test]
fn every_gauge_position_is_frozen() {
    let bytes = unhex(EVERY_GAUGE_HEX);
    let v2 = every_gauge_stats();
    assert_eq!(protocol::stats_v2_body(&v2), bytes, "a gauge moved on the wire");
    assert_eq!(protocol::decode_stats_v2(&bytes).expect("decodes"), v2);
}

/// One gauge block's rules, block by block: extra trailing gauges from
/// a newer peer are skipped, a short block is `malformed`, and a block
/// under a tag this reader does not know is skipped whole.
#[test]
fn gauge_blocks_skip_extras_and_unknown_tags_and_reject_short_blocks() {
    type Take = fn(&mut protocol::WireStatsV2, &protocol::WireStatsV2);
    let blocks: [(u8, usize, u64, Take); 5] = [
        (protocol::TAG_GAUGES, protocol::StatsGauges::COUNT, 100, |d, s| d.gauges = s.gauges),
        (protocol::TAG_STORE, protocol::StoreGauges::COUNT, 200, |d, s| d.store = s.store),
        (protocol::TAG_MUTATE, protocol::MutGauges::COUNT, 300, |d, s| d.mutate = s.mutate),
        (protocol::TAG_FAULT, protocol::FaultGauges::COUNT, 400, |d, s| d.fault = s.fault),
        (protocol::TAG_SCHED, protocol::SchedGauges::COUNT, 500, |d, s| d.sched = s.sched),
    ];
    // `(tag, gauges)` blocks → a STATS_V2_OK body.
    let body = |blocks: &[(u8, Vec<u64>)]| {
        let mut b = (blocks.len() as u16).to_le_bytes().to_vec();
        for (tag, gauges) in blocks {
            b.extend_from_slice(&[*tag, 0]);
            b.extend_from_slice(&(1 + 8 * gauges.len() as u32).to_le_bytes());
            b.push(gauges.len() as u8);
            for g in gauges {
                b.extend_from_slice(&g.to_le_bytes());
            }
        }
        b
    };
    let all = every_gauge_stats();
    for (tag, count, base, take) in blocks {
        let gauges = |n: usize| (0..n as u64).map(|i| base + i).collect::<Vec<_>>();
        let mut want = protocol::WireStatsV2::default();
        take(&mut want, &all);

        let extra = protocol::decode_stats_v2(&body(&[(tag, gauges(count + 2))]));
        assert_eq!(extra.expect("extra gauges are skipped"), want, "tag {tag}");

        let err = protocol::decode_stats_v2(&body(&[(tag, gauges(count - 1))]))
            .expect_err("a short gauge block must not decode");
        assert_eq!(err.code, ErrorCode::Malformed, "tag {tag}: {err}");

        let unknown = protocol::decode_stats_v2(&body(&[(0xEE, gauges(3)), (tag, gauges(count))]));
        assert_eq!(unknown.expect("unknown tags are skipped"), want, "tag {tag}");
    }
}

/// Frame a body the way the wire does.
fn framed(kind: FrameKind, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    protocol::write_frame(&mut out, kind as u8, body).expect("write to Vec");
    out
}

/// Frame a [`Call`] the way the client puts it on the wire.
fn framed_call<T: WireElem>(call: &Call<'_, T>) -> Vec<u8> {
    let (kind, body) = call.encode();
    framed(kind, &body)
}

/// Decode a job-bearing frame, failing the test on any other request.
fn job_of(frame: &Frame) -> JobFrame {
    match protocol::decode_request(frame).expect("decodes") {
        WireRequest::Job(job) => job,
        other => panic!("want a job frame, got {other:?}"),
    }
}

/// Read exactly one frame out of a documented byte string.
fn parse(mut bytes: &[u8]) -> Frame {
    let frame = protocol::read_frame(&mut bytes, MAX_FRAME_DEFAULT)
        .expect("documented bytes frame correctly")
        .expect("documented bytes are non-empty");
    assert!(bytes.is_empty(), "documented example has trailing bytes");
    frame
}

#[test]
fn documented_hello_bytes_match_the_codec() {
    assert_eq!(framed(FrameKind::Hello, &protocol::hello_body()), DOC_HELLO);
    let frame = parse(DOC_HELLO);
    match protocol::decode_request(&frame).expect("decodes") {
        WireRequest::Hello { magic, version } => {
            assert_eq!(magic, MAGIC);
            assert_eq!(version, VERSION);
        }
        other => panic!("want Hello, got {other:?}"),
    }
}

#[test]
fn documented_hello_ok_bytes_match_the_codec() {
    assert_eq!(
        framed(FrameKind::HelloOk, &protocol::hello_ok_body(VERSION, MAX_FRAME_DEFAULT)),
        DOC_HELLO_OK
    );
    let frame = parse(DOC_HELLO_OK);
    let (version, max_frame) = protocol::decode_hello_ok(&frame.body).expect("decodes");
    assert_eq!(version, VERSION);
    assert_eq!(max_frame, MAX_FRAME_DEFAULT);
}

#[test]
fn documented_rank_bytes_decode_to_the_example_list() {
    // Encoder side: the documented bytes are exactly what the client
    // produces for the example list.
    assert_eq!(framed_call(&Call::rank(&example_list())), DOC_RANK);
    // Decoder side: replaying the documented bytes yields the list.
    let job = job_of(&parse(DOC_RANK));
    assert_eq!(job.kind(), FrameKind::Rank);
    assert_eq!(
        job,
        JobFrame {
            flags: ReqFlags::default(),
            source: Source::Inline(example_list()),
            job: Job::Rank
        }
    );
}

#[test]
fn documented_deadline_rank_bytes_round_trip() {
    assert_eq!(framed_call(&Call::rank(&example_list()).deadline_ms(1500)), DOC_RANK_DEADLINE);
    let job = job_of(&parse(DOC_RANK_DEADLINE));
    let flags = ReqFlags { deadline_ms: Some(1500), ..ReqFlags::default() };
    assert_eq!(job, JobFrame { flags, source: Source::Inline(example_list()), job: Job::Rank });
}

#[test]
fn documented_output_bytes_round_trip() {
    let meta = OutputMeta {
        algorithm: Algorithm::Serial,
        shards: 0,
        queued_ns: 1000,
        exec_ns: 2000,
        trace_id: 1,
    };
    assert_eq!(framed(FrameKind::Output, &protocol::output_body(&meta, &[1u64, 0, 2])), DOC_OUTPUT);
    let frame = parse(DOC_OUTPUT);
    let (got_meta, ranks) = protocol::decode_output::<u64>(&frame.body).expect("decodes");
    assert_eq!(got_meta, meta);
    assert_eq!(ranks, vec![1, 0, 2]);
}

// ------------------------------------------------------------------
// The documented handle conversation (protocol v3)
// ------------------------------------------------------------------

/// PROTOCOL.md §"A worked handle round trip", frame 1: PUT — the same
/// example list as [`DOC_RANK`], shipped once.
const DOC_PUT: &[u8] = &[
    0x16, 0x00, 0x00, 0x00, // len = 22
    0x08, // kind = PUT
    0x00, // flags (reserved, must be zero)
    0x01, 0x00, 0x00, 0x00, // head = 1
    0x03, 0x00, 0x00, 0x00, // n = 3
    0x02, 0x00, 0x00, 0x00, // next[0] = 2
    0x00, 0x00, 0x00, 0x00, // next[1] = 0
    0x02, 0x00, 0x00, 0x00, // next[2] = 2 (self-loop tail)
];

/// PROTOCOL.md §"A worked handle round trip", frame 2: PUT_OK. A fresh
/// daemon issues handle 1 and charges the 3-vertex list's estimated
/// footprint, 4·3 + 96 = 108 bytes, against `--store-budget`.
const DOC_PUT_OK: &[u8] = &[
    0x11, 0x00, 0x00, 0x00, // len = 17
    0x88, // kind = PUT_OK
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // handle = 1
    0x6C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // bytes = 108
];

/// PROTOCOL.md §"A worked handle round trip", frame 3: RANK_H. The
/// reply is byte-identical to [`DOC_OUTPUT`] — handle routing changes
/// how the dataset reaches the engine, never what comes back.
const DOC_RANK_H: &[u8] = &[
    0x0A, 0x00, 0x00, 0x00, // len = 10
    0x09, // kind = RANK_H
    0x00, // flags (bit 0 clear: monolithic dispatch)
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // handle = 1
];

/// PROTOCOL.md §"A worked handle round trip", frame 5: SCAN_H. An
/// exclusive add-scan over the resident dataset with per-vertex
/// values `v = [5, 7, 9]`; traversal order `1 → 0 → 2` yields
/// `out = [7, 0, 12]`.
const DOC_SCAN_H: &[u8] = &[
    0x27, 0x00, 0x00, 0x00, // len = 39
    0x0A, // kind = SCAN_H
    0x00, // flags
    0x01, // op = 1 (add, i64)
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // handle = 1
    0x03, 0x00, 0x00, 0x00, // count = 3
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // v[0] = 5
    0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // v[1] = 7
    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // v[2] = 9
];

/// PROTOCOL.md §"A worked handle round trip", frame 7: SEGSCAN_H.
/// Same values with a segment restart at vertex 2 (bitmap packs
/// LSB-first: 0b100 = 0x04). The restart zeroes the traversal tail,
/// so `out = [7, 0, 0]`.
const DOC_SEGSCAN_H: &[u8] = &[
    0x28, 0x00, 0x00, 0x00, // len = 40
    0x0B, // kind = SEGSCAN_H
    0x00, // flags
    0x01, // op = 1 (add, i64)
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // handle = 1
    0x03, 0x00, 0x00, 0x00, // count = 3
    0x04, // starts bitmap = 0b100 (vertex 2 restarts a segment)
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // v[0] = 5
    0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // v[1] = 7
    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // v[2] = 9
];

/// PROTOCOL.md §"A worked handle round trip", frame 9: DROP.
const DOC_DROP: &[u8] = &[
    0x09, 0x00, 0x00, 0x00, // len = 9
    0x0C, // kind = DROP
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // handle = 1
];

/// PROTOCOL.md §"A worked handle round trip", frame 10: DROP_OK (no
/// body).
const DOC_DROP_OK: &[u8] = &[
    0x01, 0x00, 0x00, 0x00, // len = 1
    0x89, // kind = DROP_OK
];

/// PROTOCOL.md §"A worked handle round trip", frame 12: the typed
/// ERROR a RANK_H on the dropped handle earns. The connection
/// survives it.
const DOC_ERROR_STALE: &[u8] = &[
    0x21, 0x00, 0x00, 0x00, // len = 33
    0xEE, // kind = ERROR
    0x0C, 0x00, // code = 12 (stale_handle)
    // message = "handle 1: stale dataset handle"
    0x68, 0x61, 0x6E, 0x64, 0x6C, 0x65, 0x20, 0x31, 0x3A, 0x20, 0x73, 0x74, 0x61, 0x6C, 0x65, 0x20,
    0x64, 0x61, 0x74, 0x61, 0x73, 0x65, 0x74, 0x20, 0x68, 0x61, 0x6E, 0x64, 0x6C, 0x65,
];

#[test]
fn documented_put_bytes_round_trip() {
    assert_eq!(framed(FrameKind::Put, &protocol::put_body(&example_list())), DOC_PUT);
    let frame = parse(DOC_PUT);
    match protocol::decode_request(&frame).expect("decodes") {
        WireRequest::Put { list } => {
            assert_eq!(list.head(), 1);
            assert_eq!(list.links(), &[2, 0, 2]);
        }
        other => panic!("want Put, got {other:?}"),
    }

    // PUT_OK: the documented reply charges exactly the store's
    // footprint estimate for the example list.
    assert_eq!(engine::store::list_footprint(&example_list()), 108);
    assert_eq!(framed(FrameKind::PutOk, &protocol::put_ok_body(1, 108)), DOC_PUT_OK);
    let frame = parse(DOC_PUT_OK);
    assert_eq!(frame.kind, FrameKind::PutOk as u8);
    assert_eq!(protocol::decode_put_ok(&frame.body).expect("decodes"), (1, 108));
}

#[test]
fn documented_handle_query_bytes_round_trip() {
    let by_handle = |job| JobFrame { flags: ReqFlags::default(), source: Source::Handle(1), job };
    assert_eq!(framed_call(&Call::rank(1)), DOC_RANK_H);
    assert_eq!(job_of(&parse(DOC_RANK_H)), by_handle(Job::Rank));

    let values = [5i64, 7, 9];
    assert_eq!(framed_call(&Call::scan(1, &values, AddOp)), DOC_SCAN_H);
    assert_eq!(
        job_of(&parse(DOC_SCAN_H)),
        by_handle(Job::Scan { op: WireOp::Add, values: WireValues::I64(values.to_vec()) })
    );

    let starts = [false, false, true];
    assert_eq!(framed_call(&Call::segmented(1, &values, &starts, AddOp)), DOC_SEGSCAN_H);
    assert_eq!(
        job_of(&parse(DOC_SEGSCAN_H)),
        by_handle(Job::SegScan {
            op: WireOp::Add,
            starts: starts.to_vec(),
            values: WireValues::I64(values.to_vec())
        })
    );
}

#[test]
fn documented_drop_bytes_round_trip() {
    assert_eq!(framed(FrameKind::Drop, &protocol::drop_body(1)), DOC_DROP);
    let frame = parse(DOC_DROP);
    assert!(matches!(
        protocol::decode_request(&frame).expect("decodes"),
        WireRequest::Drop { handle: 1 }
    ));

    assert_eq!(framed(FrameKind::DropOk, &[]), DOC_DROP_OK);
    let frame = parse(DOC_DROP_OK);
    assert_eq!(frame.kind, FrameKind::DropOk as u8);
    assert!(frame.body.is_empty());

    // The stale-handle ERROR: documented bytes match the codec's
    // encoding of the server's message format.
    assert_eq!(
        framed(
            FrameKind::Error,
            &protocol::error_body(ErrorCode::StaleHandle, "handle 1: stale dataset handle")
        ),
        DOC_ERROR_STALE
    );
    let frame = parse(DOC_ERROR_STALE);
    let (raw, code, message) = protocol::decode_error(&frame.body).expect("decodes");
    assert_eq!(raw, ErrorCode::StaleHandle as u16);
    assert_eq!(code, Some(ErrorCode::StaleHandle));
    assert_eq!(message, "handle 1: stale dataset handle");
}

/// The full documented conversation against a live daemon: write the
/// PROTOCOL.md byte strings to the socket verbatim, compare the replies
/// byte-for-byte (masking only the two timing fields the document
/// marks as variable).
#[cfg(unix)]
#[test]
fn documented_round_trip_against_a_live_server() {
    use std::io::{Read, Write};
    use std::sync::Arc;

    let path = std::env::temp_dir().join(format!("rankd-protodoc-{}.sock", std::process::id()));
    let engine = Arc::new(engine::Engine::new(
        engine::EngineConfig::default().with_workers(1).with_inner_threads(1),
    ));
    let server = engine::server::Server::bind(engine, engine::server::ServeConfig::new(&path))
        .expect("bind");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    stream.write_all(DOC_HELLO).expect("send documented HELLO");
    let mut hello_ok = vec![0u8; DOC_HELLO_OK.len()];
    stream.read_exact(&mut hello_ok).expect("read HELLO_OK");
    assert_eq!(hello_ok, DOC_HELLO_OK);

    stream.write_all(DOC_RANK).expect("send documented RANK");
    let mut output = vec![0u8; DOC_OUTPUT.len()];
    stream.read_exact(&mut output).expect("read OUTPUT");
    // Mask queued_ns (offset 10..18), exec_ns (18..26), and trace_id
    // (26..34): the document shows placeholder values for these fields.
    let (meta, _) = protocol::decode_output::<u64>(&output[5..]).expect("live OUTPUT decodes");
    assert_ne!(meta.trace_id, 0, "server assigns a nonzero trace id");
    let mut masked = output.clone();
    masked[10..34].copy_from_slice(&DOC_OUTPUT[10..34]);
    assert_eq!(masked, DOC_OUTPUT, "live reply matches the documented bytes");

    // STATS_V2 over the same connection: one rank has completed, so the
    // per-op and per-phase histograms must be populated and
    // sum-consistent with the OUTPUT frame's own timings. The worker
    // publishes counters just *after* fulfilling the job handle, so
    // the snapshot can trail the OUTPUT reply by a beat — poll until
    // the completion is visible.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let v2 = loop {
        stream.write_all(DOC_STATS_V2).expect("send documented STATS_V2");
        let mut reply = &stream;
        let frame = protocol::read_frame(&mut reply, MAX_FRAME_DEFAULT)
            .expect("read STATS_V2_OK")
            .expect("reply present");
        assert_eq!(frame.kind, FrameKind::StatsV2Ok as u8);
        let v2 = protocol::decode_stats_v2(&frame.body).expect("decodes");
        if v2.gauges.completed == 1 && v2.phase[engine::Phase::ReplyWrite.index()].count() == 1 {
            break v2;
        }
        assert!(std::time::Instant::now() < deadline, "completion never became visible: {v2:?}");
        std::thread::yield_now();
    };
    assert_eq!(v2.gauges.completed, 1);
    assert_eq!(v2.per_op[engine::OpKind::Rank.index()].count(), 1);
    assert_eq!(v2.per_op[engine::OpKind::Rank.index()].sum(), meta.exec_ns);
    assert_eq!(v2.phase[engine::Phase::Exec.index()].sum(), meta.exec_ns);
    assert_eq!(v2.phase[engine::Phase::QueueWait.index()].sum(), meta.queued_ns);
    assert_eq!(v2.phase[engine::Phase::Decode.index()].count(), 1);
    assert_eq!(v2.phase[engine::Phase::ReplyWrite.index()].count(), 1);

    drop(stream);
    control.request_shutdown();
    join.join().expect("server thread").expect("server run");
}

/// The documented *handle* conversation against a live daemon
/// (protocol v3): PUT → RANK_H → SCAN_H → SEGSCAN_H → DROP → a stale
/// RANK_H, every request written as the PROTOCOL.md bytes verbatim and
/// every reply compared byte-for-byte (masking only OUTPUT timing
/// fields). A fresh daemon issues handle 1 deterministically, which is
/// what makes the documented PUT_OK exactly reproducible.
#[cfg(unix)]
#[test]
fn documented_handle_conversation_against_a_live_server() {
    use std::io::{Read, Write};
    use std::sync::Arc;

    let path = std::env::temp_dir().join(format!("rankd-protodoc-h-{}.sock", std::process::id()));
    let engine = Arc::new(engine::Engine::new(
        engine::EngineConfig::default().with_workers(1).with_inner_threads(1),
    ));
    let server = engine::server::Server::bind(engine, engine::server::ServeConfig::new(&path))
        .expect("bind");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    let reply_exact = |stream: &mut std::os::unix::net::UnixStream, want: &[u8], what: &str| {
        let mut got = vec![0u8; want.len()];
        stream.read_exact(&mut got).unwrap_or_else(|e| panic!("read {what}: {e}"));
        assert_eq!(got, want, "{what} bytes match the document");
    };

    stream.write_all(DOC_HELLO).expect("send documented HELLO");
    reply_exact(&mut stream, DOC_HELLO_OK, "HELLO_OK");

    // PUT: handle and charged bytes are deterministic on a fresh
    // daemon, so the reply matches the document exactly.
    stream.write_all(DOC_PUT).expect("send documented PUT");
    reply_exact(&mut stream, DOC_PUT_OK, "PUT_OK");

    // RANK_H: the reply is byte-identical to the inline RANK reply
    // (masking the timing/trace fields the document marks variable).
    stream.write_all(DOC_RANK_H).expect("send documented RANK_H");
    let mut output = vec![0u8; DOC_OUTPUT.len()];
    stream.read_exact(&mut output).expect("read RANK_H OUTPUT");
    output[10..34].copy_from_slice(&DOC_OUTPUT[10..34]);
    assert_eq!(output, DOC_OUTPUT, "handle-routed OUTPUT matches the inline reply");

    // SCAN_H and SEGSCAN_H: decode the OUTPUT frames and check the
    // documented expected values.
    for (request, want, what) in
        [(DOC_SCAN_H, vec![7i64, 0, 12], "SCAN_H"), (DOC_SEGSCAN_H, vec![7i64, 0, 0], "SEGSCAN_H")]
    {
        stream.write_all(request).unwrap_or_else(|e| panic!("send documented {what}: {e}"));
        let mut reply = &stream;
        let frame = protocol::read_frame(&mut reply, MAX_FRAME_DEFAULT)
            .expect("read OUTPUT")
            .expect("reply present");
        assert_eq!(frame.kind, FrameKind::Output as u8, "{what} reply kind");
        let (_, out) = protocol::decode_output::<i64>(&frame.body).expect("OUTPUT decodes");
        assert_eq!(out, want, "{what} output matches the documented example");
    }

    stream.write_all(DOC_DROP).expect("send documented DROP");
    reply_exact(&mut stream, DOC_DROP_OK, "DROP_OK");

    // The handle is stale from the DROP on; the documented ERROR comes
    // back byte-for-byte and the connection survives it.
    stream.write_all(DOC_RANK_H).expect("send RANK_H on the dropped handle");
    reply_exact(&mut stream, DOC_ERROR_STALE, "stale-handle ERROR");
    stream.write_all(DOC_STATS_V2).expect("send STATS_V2 after the error");
    let mut reply = &stream;
    let frame = protocol::read_frame(&mut reply, MAX_FRAME_DEFAULT)
        .expect("read STATS_V2_OK")
        .expect("connection survives a stale handle");
    let v2 = protocol::decode_stats_v2(&frame.body).expect("decodes");
    assert_eq!(v2.store.puts, 1);
    assert_eq!(v2.store.drops, 1);
    assert_eq!(v2.store.resident_count, 0);
    assert_eq!(v2.store.hits, 3, "RANK_H + SCAN_H + SEGSCAN_H all hit");
    assert_eq!(v2.store.misses, 1, "the post-DROP RANK_H missed");

    drop(stream);
    control.request_shutdown();
    join.join().expect("server thread").expect("server run");
}

// ------------------------------------------------------------------
// The documented mutation conversation (protocol v4)
// ------------------------------------------------------------------

/// PROTOCOL.md §"A worked mutation round trip": MUTATE against handle
/// 1 with a two-edit batch — splice vertex 0 to the front (traversal
/// `1 → 0 → 2` becomes `0 → 1 → 2`), then append one fresh vertex at
/// the tail (`0 → 1 → 2 → 3`).
const DOC_MUTATE: &[u8] = &[
    0x1F, 0x00, 0x00, 0x00, // len = 31
    0x0D, // kind = MUTATE
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // handle = 1
    0x02, 0x00, 0x00, 0x00, // edit count = 2
    0x01, // edit kind = 1 (splice)
    0x00, 0x00, 0x00, 0x00, // first = 0
    0x00, 0x00, 0x00, 0x00, // last = 0
    0xFF, 0xFF, 0xFF, 0xFF, // after = 0xFFFFFFFF (none: run moves to the front)
    0x03, // edit kind = 3 (append)
    0x01, 0x00, 0x00, 0x00, // count = 1
];

/// PROTOCOL.md §"A worked mutation round trip": the MUTATE_OK reply.
/// Both edits applied, the dataset is 4 vertices long, and a batch
/// only drops the dataset's kept rank array (mode 1, zero shards, zero
/// artifacts). `exec_ns` is the document's placeholder, 3000.
const DOC_MUTATE_OK: &[u8] = &[
    0x1E, 0x00, 0x00, 0x00, // len = 30
    0x8A, // kind = MUTATE_OK
    0x02, 0x00, 0x00, 0x00, // applied = 2
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // len = 4
    0x01, // mode = 1 (full: the kept ranks are dropped)
    0x00, 0x00, 0x00, 0x00, // dirty_shards = 0
    0x00, 0x00, 0x00, 0x00, // artifacts = 0
    0xB8, 0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // exec_ns = 3000
];

#[test]
fn documented_mutate_bytes_round_trip() {
    use listkit::dynamic::Edit;
    let edits = [Edit::Splice { first: 0, last: 0, after: None }, Edit::Append { count: 1 }];
    assert_eq!(framed(FrameKind::Mutate, &protocol::mutate_body(1, &edits)), DOC_MUTATE);
    let frame = parse(DOC_MUTATE);
    match protocol::decode_request(&frame).expect("decodes") {
        WireRequest::Mutate { handle, edits: got } => {
            assert_eq!(handle, 1);
            assert_eq!(got, edits);
        }
        other => panic!("want Mutate, got {other:?}"),
    }

    let ok = protocol::WireMutateOk {
        applied: 2,
        len: 4,
        incremental: false,
        dirty_shards: 0,
        artifacts: 0,
        exec_ns: 3000,
    };
    assert_eq!(framed(FrameKind::MutateOk, &protocol::mutate_ok_body(&ok)), DOC_MUTATE_OK);
    let frame = parse(DOC_MUTATE_OK);
    assert_eq!(frame.kind, FrameKind::MutateOk as u8);
    assert_eq!(protocol::decode_mutate_ok(&frame.body).expect("decodes"), ok);

    // A mode byte the document does not define must not decode.
    let mut future = protocol::mutate_ok_body(&ok);
    future[12] = 2;
    assert!(protocol::decode_mutate_ok(&future).is_err(), "mode byte 2 is malformed");
}

/// The documented mutation conversation against a live daemon
/// (protocol v4): PUT the example list, replay the documented MUTATE
/// bytes verbatim, compare the MUTATE_OK byte-for-byte (masking only
/// `exec_ns`, which the document marks variable), then RANK_H and
/// check the post-mutation traversal `0 → 1 → 2 → 3`.
#[cfg(unix)]
#[test]
fn documented_mutation_conversation_against_a_live_server() {
    use std::io::{Read, Write};
    use std::sync::Arc;

    let path = std::env::temp_dir().join(format!("rankd-protodoc-m-{}.sock", std::process::id()));
    let engine = Arc::new(engine::Engine::new(
        engine::EngineConfig::default().with_workers(1).with_inner_threads(1),
    ));
    let server = engine::server::Server::bind(engine, engine::server::ServeConfig::new(&path))
        .expect("bind");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    let reply_exact = |stream: &mut std::os::unix::net::UnixStream, want: &[u8], what: &str| {
        let mut got = vec![0u8; want.len()];
        stream.read_exact(&mut got).unwrap_or_else(|e| panic!("read {what}: {e}"));
        assert_eq!(got, want, "{what} bytes match the document");
    };

    stream.write_all(DOC_HELLO).expect("send documented HELLO");
    reply_exact(&mut stream, DOC_HELLO_OK, "HELLO_OK");
    stream.write_all(DOC_PUT).expect("send documented PUT");
    reply_exact(&mut stream, DOC_PUT_OK, "PUT_OK");

    stream.write_all(DOC_MUTATE).expect("send documented MUTATE");
    let mut mutate_ok = vec![0u8; DOC_MUTATE_OK.len()];
    stream.read_exact(&mut mutate_ok).expect("read MUTATE_OK");
    // Mask exec_ns (offset 26..34): the document shows a placeholder.
    mutate_ok[26..34].copy_from_slice(&DOC_MUTATE_OK[26..34]);
    assert_eq!(mutate_ok, DOC_MUTATE_OK, "live MUTATE_OK matches the documented bytes");

    // The handle now serves the mutated list: 0 → 1 → 2 → 3.
    stream.write_all(DOC_RANK_H).expect("send RANK_H after the mutation");
    let mut reply = &stream;
    let frame = protocol::read_frame(&mut reply, MAX_FRAME_DEFAULT)
        .expect("read OUTPUT")
        .expect("reply present");
    assert_eq!(frame.kind, FrameKind::Output as u8);
    let (_, ranks) = protocol::decode_output::<u64>(&frame.body).expect("OUTPUT decodes");
    assert_eq!(ranks, vec![0, 1, 2, 3], "ranks reflect the mutation");

    stream.write_all(DOC_DROP).expect("send documented DROP");
    reply_exact(&mut stream, DOC_DROP_OK, "DROP_OK");

    drop(stream);
    control.request_shutdown();
    join.join().expect("server thread").expect("server run");
}

// ------------------------------------------------------------------
// The documented pipelined conversation (protocol v6)
// ------------------------------------------------------------------

/// PROTOCOL.md §"A worked pipelined conversation", frame 1: the
/// example RANK carrying request id 1 (interactive class).
const DOC_RANK_P1: &[u8] = &[
    0x1E, 0x00, 0x00, 0x00, // len = 30
    0x02, // kind = RANK
    0x08, // flags (bit 3: request id present)
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // request_id = 1
    0x01, 0x00, 0x00, 0x00, // head = 1
    0x03, 0x00, 0x00, 0x00, // n = 3
    0x02, 0x00, 0x00, 0x00, // next[0] = 2
    0x00, 0x00, 0x00, 0x00, // next[1] = 0
    0x02, 0x00, 0x00, 0x00, // next[2] = 2 (self-loop tail)
];

/// PROTOCOL.md §"A worked pipelined conversation", frame 2: the same
/// RANK with request id 2 and the batch class declared.
const DOC_RANK_P2_BATCH: &[u8] = &[
    0x1E, 0x00, 0x00, 0x00, // len = 30
    0x02, // kind = RANK
    0x0C, // flags (bit 2: batch class; bit 3: request id present)
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // request_id = 2
    0x01, 0x00, 0x00, 0x00, // head = 1
    0x03, 0x00, 0x00, 0x00, // n = 3
    0x02, 0x00, 0x00, 0x00, // next[0] = 2
    0x00, 0x00, 0x00, 0x00, // next[1] = 0
    0x02, 0x00, 0x00, 0x00, // next[2] = 2 (self-loop tail)
];

/// PROTOCOL.md §"A worked pipelined conversation": the OUTPUT_P reply
/// to request 1 — the echoed id, then the [`DOC_OUTPUT`] body.
const DOC_OUTPUT_P1: &[u8] = &[
    0x42, 0x00, 0x00, 0x00, // len = 66
    0x8B, // kind = OUTPUT_P
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // request_id = 1
    0x00, // algorithm = 0 (serial)
    0x00, 0x00, 0x00, 0x00, // shards = 0 (monolithic)
    0xE8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // queued_ns = 1000
    0xD0, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // exec_ns = 2000
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // trace_id = 1
    0x03, 0x00, 0x00, 0x00, // n = 3
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rank[0] = 1
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rank[1] = 0
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rank[2] = 2
];

/// The OUTPUT_P reply to request 2: byte-identical but for the echoed
/// id — the batch flag changes scheduling, never the payload.
const DOC_OUTPUT_P2: &[u8] = &[
    0x42, 0x00, 0x00, 0x00, // len = 66
    0x8B, // kind = OUTPUT_P
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // request_id = 2
    0x00, // algorithm = 0 (serial)
    0x00, 0x00, 0x00, 0x00, // shards = 0 (monolithic)
    0xE8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // queued_ns = 1000
    0xD0, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // exec_ns = 2000
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // trace_id = 1
    0x03, 0x00, 0x00, 0x00, // n = 3
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rank[0] = 1
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rank[1] = 0
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rank[2] = 2
];

/// PROTOCOL.md §"A worked pipelined conversation": a RANK carrying
/// the reserved request id 0 — [`DOC_RANK_P1`] with the id zeroed.
const DOC_RANK_P0: &[u8] = &[
    0x1E, 0x00, 0x00, 0x00, // len = 30
    0x02, // kind = RANK
    0x08, // flags (bit 3: request id present)
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // request_id = 0 (reserved)
    0x01, 0x00, 0x00, 0x00, // head = 1
    0x03, 0x00, 0x00, 0x00, // n = 3
    0x02, 0x00, 0x00, 0x00, // next[0] = 2
    0x00, 0x00, 0x00, 0x00, // next[1] = 0
    0x02, 0x00, 0x00, 0x00, // next[2] = 2 (self-loop tail)
];

/// The documented reply to [`DOC_RANK_P0`]: a *plain* ERROR (there is
/// no usable id to echo) with the decode-time message, verbatim.
const DOC_ERROR_ID0: &[u8] = &[
    0x1B, 0x00, 0x00, 0x00, // len = 27
    0xEE, // kind = ERROR
    0x03, 0x00, // code = 3 (malformed)
    0x72, 0x65, 0x71, 0x75, 0x65, 0x73, 0x74, 0x5F, // "request_"
    0x69, 0x64, 0x20, 0x30, 0x20, 0x69, 0x73, 0x20, // "id 0 is "
    0x72, 0x65, 0x73, 0x65, 0x72, 0x76, 0x65, 0x64, // "reserved"
];

/// PROTOCOL.md §"A worked pipelined conversation": the ERROR_P a
/// daemon started with `--inflight-quota 1` sends for request 2 while
/// request 1 is still in flight.
const DOC_ERROR_P_QUOTA: &[u8] = &[
    0x2E, 0x00, 0x00, 0x00, // len = 46
    0xEF, // kind = ERROR_P
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // request_id = 2
    0x12, 0x00, // code = 18 (quota_exceeded)
    0x74, 0x65, 0x6E, 0x61, 0x6E, 0x74, 0x20, 0x69, // "tenant i"
    0x6E, 0x2D, 0x66, 0x6C, 0x69, 0x67, 0x68, 0x74, // "n-flight"
    0x20, 0x71, 0x75, 0x6F, 0x74, 0x61, 0x20, 0x28, // " quota ("
    0x31, 0x29, 0x20, 0x65, 0x78, 0x63, 0x65, 0x65, // "1) excee"
    0x64, 0x65, 0x64, // "ded"
];

#[test]
fn documented_pipelined_bytes_round_trip() {
    // Encoder side: the client's flagged rank calls produce the
    // documented request frames byte-for-byte.
    let list = example_list();
    assert_eq!(framed_call(&Call::rank(&list).id(1)), DOC_RANK_P1);
    assert_eq!(framed_call(&Call::rank(&list).batch().id(2)), DOC_RANK_P2_BATCH);

    // Decoder side: flags survive the trip.
    for (bytes, want_id, want_batch) in [(DOC_RANK_P1, 1u64, false), (DOC_RANK_P2_BATCH, 2, true)] {
        let flags =
            ReqFlags { batch: want_batch, request_id: Some(want_id), ..ReqFlags::default() };
        let want = JobFrame { flags, source: Source::Inline(example_list()), job: Job::Rank };
        assert_eq!(job_of(&parse(bytes)), want);
    }

    // OUTPUT_P: the server-side composer (id + OUTPUT body) produces
    // the documented reply, and `decode_pipelined` peels the id back
    // off to expose a plain OUTPUT body.
    let meta = OutputMeta {
        algorithm: Algorithm::Serial,
        shards: 0,
        queued_ns: 1000,
        exec_ns: 2000,
        trace_id: 1,
    };
    let inner = protocol::output_body(&meta, &[1u64, 0, 2]);
    assert_eq!(framed(FrameKind::OutputP, &protocol::pipelined_body(1, &inner)), DOC_OUTPUT_P1);
    assert_eq!(framed(FrameKind::OutputP, &protocol::pipelined_body(2, &inner)), DOC_OUTPUT_P2);
    let frame = parse(DOC_OUTPUT_P2);
    let (id, body) = protocol::decode_pipelined(&frame.body).expect("pipelined envelope decodes");
    assert_eq!(id, 2);
    let (got_meta, ranks) = protocol::decode_output::<u64>(body).expect("inner OUTPUT decodes");
    assert_eq!(got_meta, meta);
    assert_eq!(ranks, vec![1, 0, 2]);

    // The id-0 refusal: decoding the documented request fails with the
    // documented message, and the documented ERROR frame is exactly
    // what the error composer emits for it.
    assert_eq!(framed_call(&Call::rank(&list).id(0)), DOC_RANK_P0);
    let frame = parse(DOC_RANK_P0);
    let err = protocol::decode_request(&frame).expect_err("id 0 is refused at decode");
    assert_eq!(err.message, "request_id 0 is reserved");
    assert_eq!(
        framed(FrameKind::Error, &protocol::error_body(ErrorCode::Malformed, &err.message)),
        DOC_ERROR_ID0
    );

    // The quota refusal: ERROR_P is an ERROR body behind the echoed id.
    let refusal =
        protocol::error_body(ErrorCode::QuotaExceeded, "tenant in-flight quota (1) exceeded");
    assert_eq!(
        framed(FrameKind::ErrorP, &protocol::pipelined_body(2, &refusal)),
        DOC_ERROR_P_QUOTA
    );
    let frame = parse(DOC_ERROR_P_QUOTA);
    let (id, body) = protocol::decode_pipelined(&frame.body).expect("envelope decodes");
    assert_eq!(id, 2);
    let (raw, code, message) = protocol::decode_error(body).expect("inner ERROR decodes");
    assert_eq!(raw, ErrorCode::QuotaExceeded as u16);
    assert_eq!(code, Some(ErrorCode::QuotaExceeded));
    assert_eq!(message, "tenant in-flight quota (1) exceeded");
}

/// The reply frames a worker writes — header and body into one buffer
/// through `reply_frame_into` and `output_body_into` — are the
/// documented bytes with and without the pipelined envelope, and a
/// reused buffer frames each reply exactly as a fresh one would.
#[test]
fn worker_framed_replies_match_the_documented_bytes() {
    let meta = OutputMeta {
        algorithm: Algorithm::Serial,
        shards: 0,
        queued_ns: 1000,
        exec_ns: 2000,
        trace_id: 1,
    };
    let ranks = [1u64, 0, 2];
    let mut frame = Vec::new();
    for (request_id, want) in [(None, DOC_OUTPUT), (Some(1), DOC_OUTPUT_P1), (None, DOC_OUTPUT)] {
        frame.clear();
        let len = protocol::output_body_len::<u64>(ranks.len());
        protocol::reply_frame_into(&mut frame, FrameKind::Output, request_id, len, |f| {
            protocol::output_body_into(&meta, &ranks, f)
        })
        .expect("frames");
        assert_eq!(frame, want, "request id {request_id:?}");
    }
    assert_eq!(protocol::output_body(&meta, &ranks), DOC_OUTPUT[5..], "the wrapper agrees");

    let refusal =
        protocol::error_body(ErrorCode::QuotaExceeded, "tenant in-flight quota (1) exceeded");
    frame.clear();
    protocol::reply_frame_into(&mut frame, FrameKind::Error, Some(2), refusal.len(), |f| {
        f.extend_from_slice(&refusal)
    })
    .expect("frames");
    assert_eq!(frame, DOC_ERROR_P_QUOTA);

    // A body the u32 prefix cannot frame is refused before any byte
    // is written.
    frame.clear();
    let err =
        protocol::reply_frame_into(&mut frame, FrameKind::Output, None, u32::MAX as usize, |_| {
            unreachable!("no body is written for an unframeable length")
        })
        .expect_err("too long to frame");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(frame.is_empty());
}

/// `read_frame_into` reads back-to-back frames of different sizes into
/// one buffer and keeps `read_frame`'s edge cases: `Ok(None)` on a
/// clean close, an error on a zero length, on EOF inside a frame and
/// on a length above the cap.
#[test]
fn read_frame_into_reuses_one_buffer_across_frames() {
    let big = vec![0x5Au8; 3000];
    let mut wire = framed(FrameKind::Output, &big);
    wire.extend_from_slice(DOC_HELLO_OK);
    let mut r = &wire[..];
    let mut body = Vec::new();
    let kind = protocol::read_frame_into(&mut r, MAX_FRAME_DEFAULT, &mut body).expect("reads");
    assert_eq!(kind, Some(FrameKind::Output as u8));
    assert_eq!(body, big);
    let buffer = body.as_ptr();
    let kind = protocol::read_frame_into(&mut r, MAX_FRAME_DEFAULT, &mut body).expect("reads");
    assert_eq!(kind, Some(FrameKind::HelloOk as u8));
    assert_eq!(body, DOC_HELLO_OK[5..]);
    assert_eq!(body.as_ptr(), buffer, "the smaller frame reuses the buffer");
    let eof = protocol::read_frame_into(&mut r, MAX_FRAME_DEFAULT, &mut body);
    assert!(matches!(eof, Ok(None)), "clean close: {eof:?}");

    let mut io_kind =
        |bytes: &[u8]| match protocol::read_frame_into(&mut &bytes[..], 1024, &mut body) {
            Err(ReadFrameError::Io(e)) => e.kind(),
            other => panic!("want an I/O error, got {other:?}"),
        };
    assert_eq!(io_kind(&[0, 0, 0, 0]), std::io::ErrorKind::InvalidData, "zero length");
    assert_eq!(io_kind(&DOC_OUTPUT[..20]), std::io::ErrorKind::UnexpectedEof, "truncated body");
    assert_eq!(io_kind(&[3, 0]), std::io::ErrorKind::UnexpectedEof, "truncated length");
    match protocol::read_frame_into(&mut &[0x01, 0x04, 0, 0, 0x02][..], 1024, &mut body) {
        Err(ReadFrameError::TooLarge { len, max }) => assert_eq!((len, max), (0x401, 1024)),
        other => panic!("want TooLarge, got {other:?}"),
    }
}

/// A writer that records its input and counts the calls it took, with
/// at most `per_call` bytes accepted per call. Only `write_vectored`
/// is overridden, and only to take every slice: with a cap the trait's
/// default (first non-empty slice through `write`) applies.
struct Recorder {
    bytes: Vec<u8>,
    calls: usize,
    per_call: Option<usize>,
}

impl std::io::Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        let k = buf.len().min(self.per_call.unwrap_or(usize::MAX));
        self.bytes.extend_from_slice(&buf[..k]);
        Ok(k)
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        if self.per_call.is_some() {
            let first = bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| &**b);
            return self.write(first);
        }
        self.calls += 1;
        bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
        Ok(bufs.iter().map(|b| b.len()).sum())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `write_frame` puts a frame's header and body on the wire in one
/// vectored write, and a writer that takes a few bytes at a time still
/// receives exactly the frame's bytes.
#[test]
fn write_frame_is_one_write_and_survives_short_writes() {
    let (kind, body) = Call::rank(&example_list()).encode();
    let want = [&(body.len() as u32 + 1).to_le_bytes()[..], &[kind as u8], &body].concat();
    let mut whole = Recorder { bytes: Vec::new(), calls: 0, per_call: None };
    for _ in 0..3 {
        protocol::write_frame(&mut whole, kind as u8, &body).expect("write");
    }
    assert_eq!(whole.calls, 3, "one write call per frame");
    assert_eq!(whole.bytes, want.repeat(3));

    let mut trickle = Recorder { bytes: Vec::new(), calls: 0, per_call: Some(3) };
    let wrote = protocol::write_frame(&mut trickle, kind as u8, &body).expect("write");
    assert_eq!(wrote, want.len() as u64);
    assert_eq!(trickle.bytes, want, "a 3-byte writer receives the exact frame");
    assert_eq!(trickle.calls, want.len().div_ceil(3));
}

/// The documented pipelined conversation against a live daemon
/// (protocol v6): both RANK frames written back-to-back before any
/// reply is read, the two OUTPUT_P replies matched *by id* (the
/// document is explicit that completion order is unspecified), the
/// reserved-id refusal compared byte-for-byte, and the scheduler
/// gauges checked against the documented values.
#[cfg(unix)]
#[test]
fn documented_pipelined_conversation_against_a_live_server() {
    use std::io::{Read, Write};
    use std::sync::Arc;

    let path = std::env::temp_dir().join(format!("rankd-protodoc-p-{}.sock", std::process::id()));
    let engine = Arc::new(engine::Engine::new(
        engine::EngineConfig::default().with_workers(1).with_inner_threads(1),
    ));
    let server = engine::server::Server::bind(engine, engine::server::ServeConfig::new(&path))
        .expect("bind");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    stream.write_all(DOC_HELLO).expect("send documented HELLO");
    let mut hello_ok = vec![0u8; DOC_HELLO_OK.len()];
    stream.read_exact(&mut hello_ok).expect("read HELLO_OK");
    assert_eq!(hello_ok, DOC_HELLO_OK);

    // Both requests in one write, replies read afterwards — the whole
    // point of pipelining. Match replies by echoed id; mask the same
    // timing/trace fields the inline round trip masks (they sit 8
    // bytes deeper here, behind the echoed id).
    let mut both = DOC_RANK_P1.to_vec();
    both.extend_from_slice(DOC_RANK_P2_BATCH);
    stream.write_all(&both).expect("send both pipelined RANKs");
    let mut seen = [false; 2];
    for _ in 0..2 {
        let mut reply = vec![0u8; DOC_OUTPUT_P1.len()];
        stream.read_exact(&mut reply).expect("read OUTPUT_P");
        assert_eq!(reply[4], FrameKind::OutputP as u8);
        let id = u64::from_le_bytes(reply[5..13].try_into().expect("8 id bytes"));
        let want: &[u8] = match id {
            1 => DOC_OUTPUT_P1,
            2 => DOC_OUTPUT_P2,
            other => panic!("unexpected request id {other}"),
        };
        assert!(!seen[(id - 1) as usize], "request id {id} answered twice");
        seen[(id - 1) as usize] = true;
        reply[18..42].copy_from_slice(&want[18..42]);
        assert_eq!(reply, want, "OUTPUT_P for request {id} matches the documented bytes");
    }
    assert_eq!(seen, [true, true], "both pipelined requests answered");

    // The reserved id: the documented plain ERROR, byte-for-byte, and
    // the connection survives it.
    stream.write_all(DOC_RANK_P0).expect("send the reserved-id RANK");
    let mut error = vec![0u8; DOC_ERROR_ID0.len()];
    stream.read_exact(&mut error).expect("read the id-0 ERROR");
    assert_eq!(error, DOC_ERROR_ID0, "id-0 refusal matches the documented bytes");

    // The scheduler gauges the document quotes for this conversation.
    // Completions are published just after the reply is queued, so
    // poll until both are visible.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let v2 = loop {
        stream.write_all(DOC_STATS_V2).expect("send STATS_V2");
        let mut reply = &stream;
        let frame = protocol::read_frame(&mut reply, MAX_FRAME_DEFAULT)
            .expect("read STATS_V2_OK")
            .expect("connection survives the id-0 error");
        let v2 = protocol::decode_stats_v2(&frame.body).expect("decodes");
        if v2.gauges.completed == 2 {
            break v2;
        }
        assert!(std::time::Instant::now() < deadline, "completions never became visible: {v2:?}");
        std::thread::yield_now();
    };
    assert_eq!(v2.sched.pipelined_requests, 2);
    assert_eq!(v2.sched.dispatched_interactive, 1);
    assert_eq!(v2.sched.dispatched_batch, 1);
    assert_eq!(v2.sched.inflight_interactive, 0);
    assert_eq!(v2.sched.inflight_batch, 0);

    drop(stream);
    control.request_shutdown();
    join.join().expect("server thread").expect("server run");
}

/// The documented quota refusal against a live daemon started with an
/// in-flight quota of 1: the same two pipelined RANKs written in one
/// write admit request 1 and refuse request 2 with the documented
/// ERROR_P — delivered first, because the refusal never waits for a
/// worker — then request 1's OUTPUT_P arrives intact.
#[cfg(unix)]
#[test]
fn documented_quota_refusal_against_a_live_server() {
    use std::io::{Read, Write};
    use std::sync::Arc;

    let path = std::env::temp_dir().join(format!("rankd-protodoc-q-{}.sock", std::process::id()));
    let engine = Arc::new(engine::Engine::new(
        engine::EngineConfig::default().with_workers(1).with_inner_threads(1),
    ));
    let server = engine::server::Server::bind(
        engine,
        engine::server::ServeConfig::new(&path).with_inflight_quota(1),
    )
    .expect("bind");
    let control = server.control();
    let join = std::thread::spawn(move || server.run());

    let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    stream.write_all(DOC_HELLO).expect("send documented HELLO");
    let mut hello_ok = vec![0u8; DOC_HELLO_OK.len()];
    stream.read_exact(&mut hello_ok).expect("read HELLO_OK");
    assert_eq!(hello_ok, DOC_HELLO_OK);

    // One write carrying both frames: the reactor parses them in the
    // same readable event, so the quota check on request 2 happens
    // before request 1's completion can possibly be processed — the
    // documented refusal is deterministic.
    let mut both = DOC_RANK_P1.to_vec();
    both.extend_from_slice(DOC_RANK_P2_BATCH);
    stream.write_all(&both).expect("send both pipelined RANKs");

    let mut refusal = vec![0u8; DOC_ERROR_P_QUOTA.len()];
    stream.read_exact(&mut refusal).expect("read the quota ERROR_P");
    assert_eq!(refusal, DOC_ERROR_P_QUOTA, "refusal matches the documented bytes");

    let mut output = vec![0u8; DOC_OUTPUT_P1.len()];
    stream.read_exact(&mut output).expect("read request 1's OUTPUT_P");
    output[18..42].copy_from_slice(&DOC_OUTPUT_P1[18..42]);
    assert_eq!(output, DOC_OUTPUT_P1, "request 1 is unaffected by the refusal");

    // The refusal is counted, and the quota slot is free again: a
    // fresh id on the same connection goes through.
    stream.write_all(DOC_RANK_P2_BATCH).expect("resend request 2 alone");
    let mut retry = vec![0u8; DOC_OUTPUT_P2.len()];
    stream.read_exact(&mut retry).expect("read the retried OUTPUT_P");
    retry[18..42].copy_from_slice(&DOC_OUTPUT_P2[18..42]);
    assert_eq!(retry, DOC_OUTPUT_P2, "the retry succeeds once the slot frees");

    stream.write_all(DOC_STATS_V2).expect("send STATS_V2");
    let mut reply = &stream;
    let frame = protocol::read_frame(&mut reply, MAX_FRAME_DEFAULT)
        .expect("read STATS_V2_OK")
        .expect("reply present");
    let v2 = protocol::decode_stats_v2(&frame.body).expect("decodes");
    assert_eq!(v2.sched.quota_rejected_inflight, 1);

    drop(stream);
    control.request_shutdown();
    join.join().expect("server thread").expect("server run");
}

// ------------------------------------------------------------------
// Codec round trips beyond the documented example
// ------------------------------------------------------------------

/// Apply the flag subset `bits` through the four [`Call`] modifiers.
fn with_flags<T: WireElem>(call: Call<'_, T>, bits: u8, deadline: u64, id: u64) -> Call<'_, T> {
    let call = if bits & protocol::FLAG_SHARDED != 0 { call.sharded() } else { call };
    let call = if bits & protocol::FLAG_DEADLINE != 0 { call.deadline_ms(deadline) } else { call };
    let call = if bits & protocol::FLAG_BATCH != 0 { call.batch() } else { call };
    if bits & protocol::FLAG_REQUEST_ID != 0 {
        call.id(id)
    } else {
        call
    }
}

/// Encode through [`Call`], decode through [`protocol::decode_request`],
/// and demand the same source, job and flags back.
fn assert_round_trip<T: WireElem>(call: Call<'_, T>, source: &Source, job: Job) {
    let (kind, body) = call.encode();
    let got = job_of(&Frame { kind: kind as u8, body });
    assert_eq!(got.kind(), kind);
    assert_eq!(got, JobFrame { flags: call.flags, source: source.clone(), job });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The wire-freeze matrix: {inline, handle} × {rank, then add, max,
    /// min, xor and affine, each as a scan and as a segmented scan} ×
    /// all 16 flag subsets round-trip through the one encoder and the
    /// one decoder.
    #[test]
    fn every_call_round_trips_through_decode(
        n in 1usize..200,
        seed in any::<u64>(),
        handle in any::<u64>(),
        deadline in any::<u64>(),
        id in 1u64..u64::MAX,
    ) {
        let list = listkit::gen::random_list(n, seed);
        let i64s: Vec<i64> = (0..n as u64).map(|i| (seed ^ i.wrapping_mul(0x9E37)) as i64).collect();
        let u64s: Vec<u64> = i64s.iter().map(|&v| v as u64 ^ seed).collect();
        let affs: Vec<Affine> = i64s.iter().map(|&v| Affine::new(v, v.rotate_left(7))).collect();
        let starts: Vec<bool> = (0..n).map(|v| (seed >> (v % 64)) & 1 == 1).collect();
        let i = || WireValues::I64(i64s.clone());
        let scan = |op, values| Job::Scan { op, values };
        let seg = |op, values| Job::SegScan { op, starts: starts.clone(), values };
        for bits in 0..16u8 {
            for source in [Source::Inline(list.clone()), Source::Handle(handle)] {
                let src = match &source {
                    Source::Inline(l) => Source::Inline(l),
                    Source::Handle(h) => Source::Handle(*h),
                };
                let cases: [(Call<'_, i64>, Job); 6] = [
                    (Call::scan(src, &i64s, AddOp), scan(WireOp::Add, i())),
                    (Call::scan(src, &i64s, MaxOp), scan(WireOp::Max, i())),
                    (Call::scan(src, &i64s, MinOp), scan(WireOp::Min, i())),
                    (Call::segmented(src, &i64s, &starts, AddOp), seg(WireOp::Add, i())),
                    (Call::segmented(src, &i64s, &starts, MaxOp), seg(WireOp::Max, i())),
                    (Call::segmented(src, &i64s, &starts, MinOp), seg(WireOp::Min, i())),
                ];
                for (call, job) in cases {
                    assert_round_trip(with_flags(call, bits, deadline, id), &source, job);
                }
                let flagged = |call| with_flags(call, bits, deadline, id);
                assert_round_trip(flagged(Call::rank(src)), &source, Job::Rank);
                let u = || WireValues::U64(u64s.clone());
                for (call, job) in [
                    (Call::scan(src, &u64s, XorOp), scan(WireOp::Xor, u())),
                    (Call::segmented(src, &u64s, &starts, XorOp), seg(WireOp::Xor, u())),
                ] {
                    assert_round_trip(with_flags(call, bits, deadline, id), &source, job);
                }
                let a = || WireValues::Affine(affs.clone());
                for (call, job) in [
                    (Call::scan(src, &affs, AffineOp), scan(WireOp::Affine, a())),
                    (Call::segmented(src, &affs, &starts, AffineOp), seg(WireOp::Affine, a())),
                ] {
                    assert_round_trip(with_flags(call, bits, deadline, id), &source, job);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `values_offset`, read off the first `JOB_HEAD_MAX` body bytes,
    /// finds a scan's values where the full decode does, and they are
    /// the body's tail: {inline, handle} × {rank, scan, segmented scan}
    /// × 8- and 16-byte values × all 16 flag subsets.
    #[test]
    fn values_offset_agrees_with_decode_request_parts(
        n in 1usize..300,
        seed in any::<u64>(),
        handle in any::<u64>(),
        deadline in any::<u64>(),
        id in 1u64..u64::MAX,
    ) {
        let list = listkit::gen::random_list(n, seed);
        let i64s: Vec<i64> = (0..n as i64).map(|i| i ^ seed as i64).collect();
        let affs: Vec<Affine> = i64s.iter().map(|&v| Affine::new(v, -v)).collect();
        let starts: Vec<bool> = (0..n).map(|v| (seed >> (v % 64)) & 1 == 1).collect();
        for bits in 0..16u8 {
            for src in [Source::Inline(&list), Source::Handle(handle)] {
                let calls = [
                    with_flags(Call::rank(src), bits, deadline, id).encode(),
                    with_flags(Call::scan(src, &i64s, AddOp), bits, deadline, id).encode(),
                    with_flags(Call::segmented(src, &i64s, &starts, MaxOp), bits, deadline, id)
                        .encode(),
                    with_flags(Call::scan(src, &affs, AffineOp), bits, deadline, id).encode(),
                    with_flags(Call::segmented(src, &affs, &starts, AffineOp), bits, deadline, id)
                        .encode(),
                ];
                for (kind, body) in calls {
                    let decoded = match protocol::decode_request_parts(kind as u8, &body) {
                        Ok(WireRequest::Job(job)) => job,
                        other => panic!("{kind:?} decodes to a job, got {other:?}"),
                    };
                    let values = match decoded.job {
                        Job::Rank => None,
                        Job::Scan { values, .. } | Job::SegScan { values, .. } => Some(values),
                    };
                    if let Some(values) = &values {
                        prop_assert_eq!(values.end, body.len(), "{:?}: values are the tail", kind);
                    }
                    let head = &body[..protocol::JOB_HEAD_MAX.min(body.len())];
                    let offset = protocol::values_offset(kind as u8, head);
                    prop_assert_eq!(offset, values.map(|v| v.start), "{:?} flags {:#06b}", kind, bits);
                }
            }
        }
    }
}

#[test]
fn start_bitmap_packs_lsb_first_with_partial_final_byte() {
    // 9 flags: 1 bit into the second byte.
    let starts = vec![true, false, false, true, false, false, false, false, true];
    let packed = protocol::pack_starts(&starts);
    assert_eq!(packed, vec![0b0000_1001, 0b0000_0001]);
    let list = LinkedList::from_order(&[0, 1, 2, 3, 4, 5, 6, 7, 8]).expect("chain");
    let (kind, body) = Call::segmented(&list, &[0i64; 9], &starts, AddOp).encode();
    match job_of(&Frame { kind: kind as u8, body }).job {
        Job::SegScan { starts: got, .. } => assert_eq!(got, starts),
        other => panic!("want SegScan, got {other:?}"),
    }
}

#[test]
fn stats_and_error_bodies_round_trip() {
    let stats = protocol::WireStats {
        engine_submitted: 10,
        engine_completed: 9,
        engine_cancelled: 1,
        engine_failed: 0,
        engine_elements: 123_456,
        connections_total: 4,
        connections_active: 2,
        peak_connections: 3,
        frames_in: 40,
        frames_out: 39,
        bytes_in: 10_000,
        bytes_out: 90_000,
        errors_sent: 1,
        busy_rejected: 0,
        text: "jobs: 9 completed".to_string(),
    };
    let decoded = protocol::decode_stats(&protocol::stats_body(&stats)).expect("decodes");
    assert_eq!(decoded, stats);

    let body = protocol::error_body(ErrorCode::Busy, "server at max clients");
    let (raw, code, message) = protocol::decode_error(&body).expect("decodes");
    assert_eq!(raw, ErrorCode::Busy as u16);
    assert_eq!(code, Some(ErrorCode::Busy));
    assert_eq!(message, "server at max clients");

    // An unknown error code still decodes, with the raw value kept.
    let mut future = protocol::error_body(ErrorCode::Busy, "from the future");
    future[0] = 0xFE;
    future[1] = 0x00;
    let (raw, code, _) = protocol::decode_error(&future).expect("decodes");
    assert_eq!(raw, 0xFE);
    assert_eq!(code, None);
}

#[test]
fn decode_rejects_malformed_bodies_with_typed_codes() {
    // Zero-length frames, truncated fields, trailing bytes.
    let cases: Vec<(u8, Vec<u8>, ErrorCode)> = vec![
        (0x7F, vec![], ErrorCode::UnknownKind),
        (FrameKind::Hello as u8, vec![0x52], ErrorCode::Malformed),
        (FrameKind::Rank as u8, vec![0], ErrorCode::Malformed),
        (FrameKind::Scan as u8, vec![0, 99], ErrorCode::UnknownOp),
        (FrameKind::Stats as u8, vec![1, 2], ErrorCode::Malformed), // trailing bytes
        (FrameKind::Output as u8, vec![], ErrorCode::Malformed),    // server→client kind
    ];
    for (kind, body, want) in cases {
        let frame = Frame { kind, body };
        let err = protocol::decode_request(&frame).expect_err("must not decode");
        assert_eq!(err.code, want, "kind {kind:#04x}: {err}");
    }
}

#[test]
fn reserved_flag_bits_are_rejected_not_silently_dropped() {
    // PROTOCOL.md: "other bits must be zero". A future client's
    // unknown flag must fail typed, never execute with the flag
    // ignored.
    let list = LinkedList::new(vec![1, 1], 0).expect("chain");
    for (kind, mut body) in
        [Call::rank(&list).encode(), Call::scan(&list, &[1i64, 2], AddOp).encode()]
    {
        body[0] |= 0x10; // a reserved bit (0x01..0x08 are all assigned as of v6)
        let frame = Frame { kind: kind as u8, body };
        let err = protocol::decode_request(&frame).expect_err("reserved bit must not decode");
        assert_eq!(err.code, ErrorCode::Malformed, "{err}");
    }
    // The sharded bit itself stays fine.
    let (kind, body) = Call::rank(&list).sharded().encode();
    assert!(job_of(&Frame { kind: kind as u8, body }).flags.sharded);
}

/// The exact request bodies the `perfbench` harness builds with the
/// four benchmark-pinned encoders, as literal bytes: a refactor of the
/// encoder may not move a single one of them.
#[test]
fn benchmark_frames_are_frozen() {
    let id3 = protocol::ReqFlags::default().with_request_id(3);
    let cases: [(Vec<u8>, &[u8]); 5] = [
        (protocol::rank_h_body(7, false), &[0x00, 7, 0, 0, 0, 0, 0, 0, 0]),
        (protocol::rank_h_body(7, true), &[0x01, 7, 0, 0, 0, 0, 0, 0, 0]),
        (
            protocol::rank_h_body_flags(7, id3),
            &[0x08, 3, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            protocol::scan_h_body(7, &[1i64, -2], WireOp::Add, false),
            &[
                0x00, 0x01, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xFE, 0xFF,
                0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
            ],
        ),
        (
            protocol::scan_h_body_flags(7, &[1i64, -2], WireOp::Add, id3),
            &[
                0x08, 3, 0, 0, 0, 0, 0, 0, 0, 0x01, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0,
                0, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
            ],
        ),
    ];
    for (i, (got, want)) in cases.iter().enumerate() {
        assert_eq!(got.as_slice(), *want, "benchmark frame {i} moved");
    }
}

#[test]
fn deadline_flag_round_trips_and_truncation_fails_typed() {
    // Protocol v5: FLAG_DEADLINE carries a u64 millisecond budget
    // between the flags byte and the rest of the body, on both the
    // inline and the by-handle request layouts.
    let list = LinkedList::new(vec![1, 1], 0).expect("chain");
    let flags_of =
        |(kind, body): (FrameKind, Vec<u8>)| job_of(&Frame { kind: kind as u8, body }).flags;
    let deadline = |ms| ReqFlags { deadline_ms: Some(ms), ..ReqFlags::default() };
    assert_eq!(flags_of(Call::rank(&list).deadline_ms(1500).encode()), deadline(1500));
    assert_eq!(
        flags_of(Call::rank(7).sharded().deadline_ms(u64::MAX).encode()),
        ReqFlags { sharded: true, ..deadline(u64::MAX) }
    );
    assert_eq!(flags_of(Call::scan(3, &[1i64, 2], AddOp).deadline_ms(250).encode()), deadline(250));

    // A deadline-flagged body truncated at ANY byte — inside the
    // links, the list header, or the deadline field itself — is
    // Malformed, never a misdecode.
    let (_, full) = Call::rank(&list).deadline_ms(1500).encode();
    for cut in 1..full.len() {
        let frame = Frame { kind: FrameKind::Rank as u8, body: full[..full.len() - cut].to_vec() };
        let err = protocol::decode_request(&frame).expect_err("truncated must not decode");
        assert_eq!(err.code, ErrorCode::Malformed, "cut {cut}: {err}");
    }
}
