//! The `rankd` wire protocol: length-prefixed binary frames over a
//! byte stream.
//!
//! This module is the **single codec** for both sides: the server
//! ([`crate::server`]) decodes requests and encodes replies with these
//! functions, and the in-process [`crate::client::Client`] does the
//! reverse — so a frame that round-trips here round-trips on the wire.
//! The byte-level layout is specified (with a fully worked example) in
//! `docs/PROTOCOL.md`; the test suite replays the documented bytes
//! through [`decode_request`] to keep the document honest.
//!
//! ## Framing
//!
//! Every frame, in both directions, is:
//!
//! ```text
//! offset 0: u32 LE  len   — byte length of everything after this field
//! offset 4: u8      kind  — FrameKind discriminant
//! offset 5: ...     body  — len - 1 bytes, layout per kind
//! ```
//!
//! All integers are little-endian. A connection starts with a
//! [`FrameKind::Hello`] handshake carrying [`MAGIC`] and [`VERSION`];
//! requests after a successful handshake decode into typed
//! [`WireRequest`] values; the six job-bearing kinds (RANK, SCAN,
//! SEGSCAN and their by-handle `*_H` twins) all decode into one
//! [`JobFrame`] — a list [`Source`] plus a [`Job`] — and are all
//! encoded by one typed [`Call`]. Malformed bodies produce a typed
//! [`WireError`] (which the server answers with a
//! [`FrameKind::Error`] frame *without* dropping the connection);
//! only unrecoverable conditions — handshake failure, an oversized
//! length prefix — close it.

use crate::op::OpKind;
use crate::telemetry::hist;
use crate::telemetry::{Histogram, Phase};
use listkit::dynamic::Edit;
use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, MinOp, XorOp};
use listkit::LinkedList;
use listrank::Algorithm;
use std::io::{Read, Write};
use std::ops::Range;

/// Handshake magic: the bytes `"RNKD"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"RNKD");

/// Protocol version carried (and checked) in the HELLO handshake.
///
/// Version history: **1** — initial protocol. **2** — OUTPUT gained a
/// `trace_id: u64` field, and the STATS_V2 / STATS_V2_OK frame pair
/// (histogram blocks) was added. **3** — the resident-dataset plane:
/// PUT / PUT_OK, RANK_H / SCAN_H / SEGSCAN_H, DROP / DROP_OK, error
/// codes `stale_handle` and `store_full`, and the STATS_V2 `store`
/// gauge block. **4** — dynamic lists: MUTATE / MUTATE_OK (batched
/// splice / delete / append edits against a resident handle), error
/// code `bad_mutation`, and the STATS_V2 `mutate` gauge block. **5** —
/// resilience: the [`FLAG_DEADLINE`] request flag (an optional
/// `deadline_ms: u64` after the flags byte in the six job-bearing
/// kinds), error codes `internal_error`, `deadline_exceeded`, and
/// `overloaded`, and the STATS_V2 `fault` gauge block. **6** —
/// pipelining and QoS: the [`FLAG_BATCH`] priority flag and the
/// [`FLAG_REQUEST_ID`] flag (an optional client-chosen `request_id:
/// u64` after the deadline field; requests carrying it may overlap on
/// one connection and are answered with [`FrameKind::OutputP`] /
/// [`FrameKind::ErrorP`] frames echoing the id, in completion order),
/// error code `quota_exceeded`, and the STATS_V2 `sched` gauge +
/// `pipeline` histogram blocks. Each version was purely additive, and
/// servers long accepted HELLOs from v2 up, gating each newer flag on
/// the version the connection negotiated. The floor has since been
/// raised to v6 ([`MIN_VERSION`]) with no byte of the v6 wire changed:
/// a server speaks exactly one dialect.
pub const VERSION: u16 = 6;

/// Oldest HELLO version a server accepts: only v6. An older (or newer)
/// HELLO is answered with [`ErrorCode::VersionMismatch`] and the
/// connection is closed.
pub const MIN_VERSION: u16 = 6;

/// Default cap on `len` a peer will accept (256 MiB): large enough for
/// a 10^7-vertex scan with 16-byte values, small enough that a corrupt
/// length prefix cannot trigger a multi-gigabyte allocation.
pub const MAX_FRAME_DEFAULT: u32 = 1 << 28;

/// Frame discriminants. Client→server kinds sit below `0x80`,
/// server→client kinds at or above it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client handshake: magic + version.
    Hello = 0x01,
    /// Rank request: a successor array to rank.
    Rank = 0x02,
    /// Scan request: successor array + operator + value array.
    Scan = 0x03,
    /// Segmented-scan request: scan + a packed segment-start bitmap.
    SegScan = 0x04,
    /// Metrics request (no body).
    Stats = 0x05,
    /// Ask the daemon to drain and exit (no body).
    Shutdown = 0x06,
    /// Histogram-level metrics request (no body).
    StatsV2 = 0x07,
    /// Admit a dataset into the resident store; replied with PUT_OK.
    Put = 0x08,
    /// Rank request against a resident dataset named by handle.
    RankH = 0x09,
    /// Scan request against a resident dataset named by handle.
    ScanH = 0x0A,
    /// Segmented-scan request against a resident dataset by handle.
    SegScanH = 0x0B,
    /// Drop a resident dataset; replied with DROP_OK.
    Drop = 0x0C,
    /// Apply a batch of edits to a resident dataset; replied with
    /// MUTATE_OK.
    Mutate = 0x0D,
    /// Handshake accepted: server version + frame-size cap.
    HelloOk = 0x81,
    /// Job result: execution metadata + output payload.
    Output = 0x82,
    /// Metrics reply: counter block + rendered engine stats.
    StatsOk = 0x85,
    /// Shutdown acknowledged; the daemon is draining.
    ShutdownOk = 0x86,
    /// Histogram-level metrics reply: tagged blocks of latency
    /// histograms, gauges, and planner dispatch rows.
    StatsV2Ok = 0x87,
    /// Dataset admitted: handle + bytes charged to the store budget.
    PutOk = 0x88,
    /// Dataset dropped (no body).
    DropOk = 0x89,
    /// Mutation batch applied: edit count, new length, maintenance
    /// mode, dirty-shard and artifact counts, execution time.
    MutateOk = 0x8A,
    /// Pipelined job result (protocol v6): `request_id: u64` followed
    /// by a standard OUTPUT body. Sent only for requests that carried
    /// [`FLAG_REQUEST_ID`]; replies arrive in completion order.
    OutputP = 0x8B,
    /// Typed error reply: code + UTF-8 message.
    Error = 0xEE,
    /// Pipelined typed error reply (protocol v6): `request_id: u64`
    /// followed by a standard ERROR body. Sent only for requests that
    /// carried [`FLAG_REQUEST_ID`].
    ErrorP = 0xEF,
}

impl FrameKind {
    /// Decode a kind byte.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::Hello,
            0x02 => FrameKind::Rank,
            0x03 => FrameKind::Scan,
            0x04 => FrameKind::SegScan,
            0x05 => FrameKind::Stats,
            0x06 => FrameKind::Shutdown,
            0x07 => FrameKind::StatsV2,
            0x08 => FrameKind::Put,
            0x09 => FrameKind::RankH,
            0x0A => FrameKind::ScanH,
            0x0B => FrameKind::SegScanH,
            0x0C => FrameKind::Drop,
            0x0D => FrameKind::Mutate,
            0x81 => FrameKind::HelloOk,
            0x82 => FrameKind::Output,
            0x85 => FrameKind::StatsOk,
            0x86 => FrameKind::ShutdownOk,
            0x87 => FrameKind::StatsV2Ok,
            0x88 => FrameKind::PutOk,
            0x89 => FrameKind::DropOk,
            0x8A => FrameKind::MutateOk,
            0x8B => FrameKind::OutputP,
            0xEE => FrameKind::Error,
            0xEF => FrameKind::ErrorP,
            _ => return None,
        })
    }
}

/// Scan operators expressible on the wire. The engine's typed API takes
/// *any* [`listkit::ScanOp`]; a byte protocol needs a closed set, so
/// the wire carries the operators the workspace ships. The operator
/// determines the element encoding ([`WireOp::elem_bytes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WireOp {
    /// `i64` wrapping addition ([`listkit::ops::AddOp`]), 8-byte elements.
    Add = 1,
    /// `i64` maximum ([`listkit::ops::MaxOp`]), 8-byte elements.
    Max = 2,
    /// `i64` minimum ([`listkit::ops::MinOp`]), 8-byte elements.
    Min = 3,
    /// `u64` bitwise xor ([`listkit::ops::XorOp`]), 8-byte elements.
    Xor = 4,
    /// Affine-map composition ([`listkit::ops::AffineOp`],
    /// non-commutative), 16-byte elements (`a: i64`, `b: i64`).
    Affine = 5,
}

impl WireOp {
    /// All wire operators, in code order.
    pub const ALL: [WireOp; 5] =
        [WireOp::Add, WireOp::Max, WireOp::Min, WireOp::Xor, WireOp::Affine];

    /// Decode an operator byte.
    pub fn from_u8(b: u8) -> Option<WireOp> {
        Some(match b {
            1 => WireOp::Add,
            2 => WireOp::Max,
            3 => WireOp::Min,
            4 => WireOp::Xor,
            5 => WireOp::Affine,
            _ => return None,
        })
    }

    /// Bytes per value element under this operator.
    pub fn elem_bytes(self) -> usize {
        match self {
            WireOp::Add | WireOp::Max | WireOp::Min | WireOp::Xor => 8,
            WireOp::Affine => 16,
        }
    }

    /// Lower-case operator name (as `OpKind::name` spells it).
    pub fn name(self) -> &'static str {
        match self {
            WireOp::Add => "add",
            WireOp::Max => "max",
            WireOp::Min => "min",
            WireOp::Xor => "xor",
            WireOp::Affine => "affine",
        }
    }
}

/// Typed error codes carried by [`FrameKind::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// HELLO magic was not [`MAGIC`]; the connection is closed.
    BadMagic = 1,
    /// HELLO version differs from [`VERSION`]; the connection is closed.
    VersionMismatch = 2,
    /// A frame body failed to decode (bad lengths, an invalid successor
    /// array, trailing bytes). The connection stays open.
    Malformed = 3,
    /// Unknown operator byte in a SCAN/SEGSCAN frame.
    UnknownOp = 4,
    /// The engine rejected the request at submit-time validation.
    InvalidRequest = 5,
    /// The engine is shutting down and accepts no new work.
    EngineShutdown = 6,
    /// The job was cancelled before completion. (Through protocol v4
    /// this code also covered worker panics; v5 reports those as
    /// [`ErrorCode::InternalError`].) The connection stays open.
    JobFailed = 7,
    /// The daemon is at `--max-clients`; retry later.
    Busy = 8,
    /// The length prefix exceeds the frame cap; the connection is
    /// closed (framing can no longer be trusted).
    FrameTooLarge = 9,
    /// A request arrived before the HELLO handshake.
    ExpectedHello = 10,
    /// Unknown frame kind byte.
    UnknownKind = 11,
    /// A handle named no resident dataset owned by this connection
    /// (never issued, dropped, evicted, or PUT by another connection).
    /// The connection stays open.
    StaleHandle = 12,
    /// A PUT could not fit within `--store-budget` even after evicting
    /// every idle resident dataset. The connection stays open.
    StoreFull = 13,
    /// A MUTATE batch was structurally invalid (out-of-range vertex,
    /// splice target inside the moved run, empty batch, unknown edit
    /// kind, …). The batch is atomic — the dataset is untouched — and
    /// the connection stays open.
    BadMutation = 14,
    /// Job execution panicked inside a worker. The panic was isolated:
    /// only this request is lost, the daemon keeps serving, and the
    /// connection stays open. Added in protocol v5.
    InternalError = 15,
    /// The request's [`FLAG_DEADLINE`] deadline expired while the job
    /// was queued; it was dropped before execution. The connection
    /// stays open. Added in protocol v5.
    DeadlineExceeded = 16,
    /// The daemon shed this request at an overload watermark (queue
    /// depth or store pressure) instead of blocking. The message
    /// carries a `retry_after_ms=N` hint; the connection stays open.
    /// Added in protocol v5.
    Overloaded = 17,
    /// The request exceeded a per-tenant quota (in-flight requests or
    /// resident store bytes, keyed by connection identity). The
    /// request was not admitted; the connection stays open. Added in
    /// protocol v6.
    QuotaExceeded = 18,
}

impl ErrorCode {
    /// Decode an error code.
    pub fn from_u16(c: u16) -> Option<ErrorCode> {
        Some(match c {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::VersionMismatch,
            3 => ErrorCode::Malformed,
            4 => ErrorCode::UnknownOp,
            5 => ErrorCode::InvalidRequest,
            6 => ErrorCode::EngineShutdown,
            7 => ErrorCode::JobFailed,
            8 => ErrorCode::Busy,
            9 => ErrorCode::FrameTooLarge,
            10 => ErrorCode::ExpectedHello,
            11 => ErrorCode::UnknownKind,
            12 => ErrorCode::StaleHandle,
            13 => ErrorCode::StoreFull,
            14 => ErrorCode::BadMutation,
            15 => ErrorCode::InternalError,
            16 => ErrorCode::DeadlineExceeded,
            17 => ErrorCode::Overloaded,
            18 => ErrorCode::QuotaExceeded,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadMagic => "bad handshake magic",
            ErrorCode::VersionMismatch => "protocol version mismatch",
            ErrorCode::Malformed => "malformed frame body",
            ErrorCode::UnknownOp => "unknown scan operator",
            ErrorCode::InvalidRequest => "request failed submit validation",
            ErrorCode::EngineShutdown => "engine shutting down",
            ErrorCode::JobFailed => "job failed before completion",
            ErrorCode::Busy => "server at max clients",
            ErrorCode::FrameTooLarge => "frame exceeds size cap",
            ErrorCode::ExpectedHello => "expected HELLO handshake first",
            ErrorCode::UnknownKind => "unknown frame kind",
            ErrorCode::StaleHandle => "stale dataset handle",
            ErrorCode::StoreFull => "dataset store budget exhausted",
            ErrorCode::BadMutation => "invalid mutation batch",
            ErrorCode::InternalError => "job execution panicked",
            ErrorCode::DeadlineExceeded => "request deadline exceeded",
            ErrorCode::Overloaded => "server overloaded, retry later",
            ErrorCode::QuotaExceeded => "tenant quota exceeded",
        };
        f.write_str(s)
    }
}

/// A decode failure: the error code the server should reply with, plus
/// a human-readable detail message.
#[derive(Clone, Debug)]
pub struct WireError {
    /// The [`ErrorCode`] to put on the wire.
    pub code: ErrorCode,
    /// Detail for the error frame's message field.
    pub message: String,
}

impl WireError {
    fn malformed(message: impl Into<String>) -> WireError {
        WireError { code: ErrorCode::Malformed, message: message.into() }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// One raw frame: the kind byte plus its undecoded body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The kind byte (possibly unknown to this peer).
    pub kind: u8,
    /// The body: `len - 1` bytes.
    pub body: Vec<u8>,
}

/// Why [`read_frame`] failed.
#[derive(Debug)]
pub enum ReadFrameError {
    /// Transport error (including EOF in the middle of a frame).
    Io(std::io::Error),
    /// The length prefix exceeds the configured cap; the stream can no
    /// longer be re-synchronized and must be closed.
    TooLarge {
        /// The offending length prefix.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
}

impl std::fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFrameError::Io(e) => write!(f, "frame read failed: {e}"),
            ReadFrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for ReadFrameError {}

impl From<std::io::Error> for ReadFrameError {
    fn from(e: std::io::Error) -> Self {
        ReadFrameError::Io(e)
    }
}

/// The longest frame header: the `u32` length prefix, the kind byte
/// and a pipelined `request_id: u64`.
pub(crate) const FRAME_HEADER_MAX: usize = 4 + 1 + 8;

/// Append one frame header to `out` — the one writer of frame headers:
/// the `u32` length prefix covering the kind byte, the echoed
/// `request_id` (OUTPUT_P / ERROR_P only) and `body_len` body bytes,
/// then the kind byte and the id. The body follows in the caller's
/// hands. A length that cannot be represented in the prefix is an
/// [`std::io::ErrorKind::InvalidInput`] error and appends nothing —
/// never a silently wrapped prefix that would desync the peer.
fn put_frame_header(
    out: &mut Vec<u8>,
    kind: u8,
    request_id: Option<u64>,
    body_len: usize,
) -> std::io::Result<()> {
    let (header, len) = frame_header(kind, request_id, body_len)?;
    out.extend_from_slice(&header[..len]);
    Ok(())
}

/// The frame header [`put_frame_header`] appends, as bytes and their
/// count.
fn frame_header(
    kind: u8,
    request_id: Option<u64>,
    body_len: usize,
) -> std::io::Result<([u8; FRAME_HEADER_MAX], usize)> {
    let id_len = if request_id.is_some() { 8 } else { 0 };
    let len = u32::try_from(1 + id_len + body_len as u64).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame body of {body_len} bytes exceeds the u32 length prefix"),
        )
    })?;
    let mut header = [0u8; FRAME_HEADER_MAX];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4] = kind;
    if let Some(id) = request_id {
        header[5..].copy_from_slice(&id.to_le_bytes());
    }
    Ok((header, 5 + id_len as usize))
}

/// The pipelined twin of a reply kind when `request_id` is set: OUTPUT
/// goes out as OUTPUT_P and ERROR as ERROR_P.
fn reply_kind(kind: FrameKind, request_id: Option<u64>) -> FrameKind {
    match (request_id, kind) {
        (None, kind) => kind,
        (Some(_), FrameKind::Error) => FrameKind::ErrorP,
        (Some(_), _) => FrameKind::OutputP,
    }
}

/// Append one whole reply frame to `out`: the header — in the
/// pipelined envelope when `request_id` is set, so OUTPUT goes out as
/// OUTPUT_P and ERROR as ERROR_P, the echoed id ahead of the body —
/// then the `body_len` bytes `put_body` appends. A body the `u32`
/// length prefix cannot cover is an
/// [`std::io::ErrorKind::InvalidInput`] error, before `put_body` runs.
///
/// # Panics
/// Panics if `put_body` appends other than `body_len` bytes: the
/// length prefix would no longer frame the stream.
pub fn reply_frame_into(
    out: &mut Vec<u8>,
    kind: FrameKind,
    request_id: Option<u64>,
    body_len: usize,
    put_body: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    put_frame_header(out, reply_kind(kind, request_id) as u8, request_id, body_len)?;
    let start = out.len();
    put_body(out);
    assert_eq!(out.len() - start, body_len, "reply body length disagrees with its header");
    Ok(())
}

/// Write one frame; returns the total bytes put on the wire
/// (`4 + 1 + body.len()`). The body is written from the caller's slice,
/// never copied. A body whose length cannot be represented in the `u32`
/// prefix is an [`std::io::ErrorKind::InvalidInput`] error at the
/// sender — never a silently wrapped prefix that would desync the peer.
pub fn write_frame(w: &mut impl Write, kind: u8, body: &[u8]) -> std::io::Result<u64> {
    let mut header = Vec::with_capacity(FRAME_HEADER_MAX);
    put_frame_header(&mut header, kind, None, body.len())?;
    w.write_all(&header)?;
    w.write_all(body)?;
    w.flush()?;
    Ok((header.len() + body.len()) as u64)
}

/// Read one frame. `Ok(None)` means the peer closed the stream cleanly
/// (EOF before any byte of the next frame); EOF *inside* a frame is an
/// [`ReadFrameError::Io`] error.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Frame>, ReadFrameError> {
    let mut body = Vec::new();
    Ok(read_frame_into(r, max_frame, &mut body)?.map(|kind| Frame { kind, body }))
}

/// [`read_frame`] into a caller-owned buffer: on `Ok(Some(kind))`
/// `body` holds exactly the frame's body. The buffer's capacity is
/// reused across calls, so a reader that keeps one buffer touches no
/// fresh memory for replies no larger than the ones before.
pub fn read_frame_into(
    r: &mut impl Read,
    max_frame: u32,
    body: &mut Vec<u8>,
) -> Result<Option<u8>, ReadFrameError> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first read so a clean close is distinguishable from a
    // truncated frame.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                )
                .into())
            }
            k => got += k,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "zero-length frame (missing kind byte)",
        )
        .into());
    }
    if len > max_frame {
        return Err(ReadFrameError::TooLarge { len, max: max_frame });
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    // Every byte is overwritten below, so only growth is zero-filled.
    body.resize(len as usize - 1, 0);
    r.read_exact(body)?;
    Ok(Some(kind[0]))
}

// ---------------------------------------------------------------------
// Element encoding
// ---------------------------------------------------------------------

/// A value type with a fixed little-endian wire encoding. Sealed in
/// practice to the element types the wire carries: `u32` list links,
/// the operators' `i64` and `u64`, and [`listkit::ops::Affine`].
///
/// Bulk arrays never go element by element through a growing buffer:
/// the codec's slice encoders and [`decode_slice`] view the bytes as
/// `[u8; BYTES]` chunks ([`WireElem::le_chunks`]) and move whole
/// arrays, and a served job writes [`WireElem::to_wire`] straight into
/// its reply frame through the same view.
pub trait WireElem: Copy {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// The encoding, `[u8; BYTES]`.
    type Le: Copy + Send + Sync + 'static;
    /// The little-endian encoding.
    fn to_wire(self) -> Self::Le;
    /// Decode one encoding.
    fn from_wire(le: Self::Le) -> Self;
    /// View `bytes`, exactly a whole number of encodings long, as
    /// encoded elements.
    fn le_chunks(bytes: &[u8]) -> &[Self::Le];
    /// The mutable twin of [`Self::le_chunks`].
    fn le_chunks_mut(bytes: &mut [u8]) -> &mut [Self::Le];
}

/// `WireElem` for a primitive integer: its own `to_le_bytes`.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl WireElem for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            type Le = [u8; std::mem::size_of::<$t>()];
            fn to_wire(self) -> Self::Le {
                self.to_le_bytes()
            }
            fn from_wire(le: Self::Le) -> Self {
                <$t>::from_le_bytes(le)
            }
            fn le_chunks(bytes: &[u8]) -> &[Self::Le] {
                whole(bytes.as_chunks())
            }
            fn le_chunks_mut(bytes: &mut [u8]) -> &mut [Self::Le] {
                whole(bytes.as_chunks_mut())
            }
        }
    )*};
}

wire_int!(u32, i64, u64);

impl WireElem for Affine {
    const BYTES: usize = 16;
    type Le = [u8; 16];
    fn to_wire(self) -> Self::Le {
        let mut le = [0u8; 16];
        le[..8].copy_from_slice(&self.a.to_le_bytes());
        le[8..].copy_from_slice(&self.b.to_le_bytes());
        le
    }
    fn from_wire(le: Self::Le) -> Self {
        let (a, b) = le.split_at(8);
        Affine::new(
            i64::from_le_bytes(a.try_into().expect("8-byte a")),
            i64::from_le_bytes(b.try_into().expect("8-byte b")),
        )
    }
    fn le_chunks(bytes: &[u8]) -> &[Self::Le] {
        whole(bytes.as_chunks())
    }
    fn le_chunks_mut(bytes: &mut [u8]) -> &mut [Self::Le] {
        whole(bytes.as_chunks_mut())
    }
}

/// The chunks of an `as_chunks` split that must leave no remainder.
fn whole<C, R: AsRef<[u8]>>((chunks, rest): (C, R)) -> C {
    assert!(rest.as_ref().is_empty(), "byte length is not a whole number of elements");
    chunks
}

/// Encode `values` into `out`, exactly `values.len() * T::BYTES` bytes.
pub(crate) fn encode_slice<T: WireElem>(values: &[T], out: &mut [u8]) {
    let out = T::le_chunks_mut(out);
    assert_eq!(out.len(), values.len(), "encoded length mismatch");
    for (o, &v) in out.iter_mut().zip(values) {
        *o = v.to_wire();
    }
}

/// Append the encoding of `values` to `out`.
pub(crate) fn put_slice<T: WireElem>(values: &[T], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + values.len() * T::BYTES, 0);
    encode_slice(values, &mut out[start..]);
}

/// Decode a whole number of encodings into a fresh `Vec`.
pub fn decode_slice<T: WireElem>(raw: &[u8]) -> Vec<T> {
    T::le_chunks(raw).iter().map(|&le| T::from_wire(le)).collect()
}

/// A decoded value array, typed by the operator that owns it: `i64` for
/// add/max/min, `u64` for xor, [`Affine`] for affine composition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireValues {
    /// Values for [`WireOp::Add`] / [`WireOp::Max`] / [`WireOp::Min`].
    I64(Vec<i64>),
    /// Values for [`WireOp::Xor`].
    U64(Vec<u64>),
    /// Values for [`WireOp::Affine`].
    Affine(Vec<Affine>),
}

fn decode_values(op: WireOp, n: usize, d: &mut Dec<'_>) -> Result<WireValues, WireError> {
    let total = n
        .checked_mul(op.elem_bytes())
        .ok_or_else(|| WireError::malformed("value array length overflows"))?;
    let raw = d.take(total, "value array")?;
    Ok(match op {
        WireOp::Add | WireOp::Max | WireOp::Min => WireValues::I64(decode_slice(raw)),
        WireOp::Xor => WireValues::U64(decode_slice(raw)),
        WireOp::Affine => WireValues::Affine(decode_slice(raw)),
    })
}

// ---------------------------------------------------------------------
// Body decoding
// ---------------------------------------------------------------------

/// Little cursor over a frame body; every under-run is a typed
/// [`WireError`] naming the field that came up short.
struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| WireError::malformed(format!("truncated {what}")))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// Every body must be consumed exactly; trailing bytes mean the
    /// peer and we disagree about the layout.
    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(WireError::malformed(format!("{} trailing bytes", self.b.len() - self.pos)))
        }
    }
}

/// Request flag bit: route through the budget-aware shard-parallel
/// plan branch ([`crate::Request::sharded`]).
pub const FLAG_SHARDED: u8 = 0b0000_0001;

/// Request flag bit (protocol v5): a `deadline_ms: u64` follows the
/// flags byte. The deadline is relative — "drop this request if it has
/// not started executing within this many milliseconds of arrival" —
/// and is enforced at dequeue with a typed
/// [`ErrorCode::DeadlineExceeded`] reply.
pub const FLAG_DEADLINE: u8 = 0b0000_0010;

/// Request flag bit (protocol v6): schedule this request in the
/// *batch* QoS class — it dispatches only when no interactive request
/// is queued, except for the scheduler's periodic anti-starvation
/// aging tick. No field follows; clear = interactive (the default).
pub const FLAG_BATCH: u8 = 0b0000_0100;

/// Request flag bit (protocol v6): a client-chosen `request_id: u64`
/// follows the flags byte (after `deadline_ms` when both are set).
/// Requests carrying an id may be *pipelined* — multiple in flight on
/// one connection — and are answered with [`FrameKind::OutputP`] /
/// [`FrameKind::ErrorP`] frames echoing the id, in completion order.
/// Id `0` is reserved (malformed); reusing an id while it is still in
/// flight on the same connection is malformed.
pub const FLAG_REQUEST_ID: u8 = 0b0000_1000;

/// Read an undecoded request frame's header: `None` when its kind
/// carries no job, else whether the job's flags byte (the first body
/// byte) sets [`FLAG_REQUEST_ID`]. The server schedules frames from
/// this alone and decodes a frame only once it may be served.
pub fn job_header(kind: u8, body: &[u8]) -> Option<bool> {
    use FrameKind::{Rank, RankH, Scan, ScanH, SegScan, SegScanH};
    let job =
        matches!(FrameKind::from_u8(kind), Some(Rank | Scan | SegScan | RankH | ScanH | SegScanH));
    job.then(|| body.first().is_some_and(|flags| flags & FLAG_REQUEST_ID != 0))
}

/// The decoded request-flags prefix shared by the six job-bearing
/// frame kinds: the flags byte plus its optional trailing fields, in
/// wire order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReqFlags {
    /// [`FLAG_SHARDED`]: route through the shard-parallel plan branch.
    pub sharded: bool,
    /// [`FLAG_DEADLINE`]: queue deadline in ms, if any.
    pub deadline_ms: Option<u64>,
    /// [`FLAG_BATCH`]: batch QoS class instead of interactive.
    pub batch: bool,
    /// [`FLAG_REQUEST_ID`]: pipelining id, if any (never 0).
    pub request_id: Option<u64>,
}

impl ReqFlags {
    /// Attach a pipelining request id (must be nonzero).
    pub fn with_request_id(mut self, id: u64) -> ReqFlags {
        self.request_id = Some(id);
        self
    }

    /// The flags byte this prefix encodes to.
    pub fn bits(&self) -> u8 {
        let mut flags = 0;
        if self.sharded {
            flags |= FLAG_SHARDED;
        }
        if self.deadline_ms.is_some() {
            flags |= FLAG_DEADLINE;
        }
        if self.batch {
            flags |= FLAG_BATCH;
        }
        if self.request_id.is_some() {
            flags |= FLAG_REQUEST_ID;
        }
        flags
    }
}

/// Where a job's list comes from: shipped inline in the frame, or a
/// resident dataset named by the handle a PUT_OK issued on this
/// connection. Decoded frames carry an owned [`LinkedList`];
/// [`Call`]s borrow one (`Source<&LinkedList>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source<L = LinkedList> {
    /// The list itself (validated by [`LinkedList`] construction when
    /// decoded).
    Inline(L),
    /// A resident dataset's handle.
    Handle(u64),
}

impl<'a> From<&'a LinkedList> for Source<&'a LinkedList> {
    fn from(list: &'a LinkedList) -> Self {
        Source::Inline(list)
    }
}

impl From<u64> for Source<&LinkedList> {
    fn from(handle: u64) -> Self {
        Source::Handle(handle)
    }
}

/// What a job frame computes along its [`Source`]. Ranking is the scan
/// with no operand; a by-handle frame's value arrays are checked
/// against the resident list's length at submit, not decode (the
/// decoder doesn't know the dataset).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Job {
    /// Rank the list.
    Rank,
    /// Exclusive scan of `values` under `op`.
    Scan {
        /// The operator (fixes the element type of `values`).
        op: WireOp,
        /// One value per vertex.
        values: WireValues,
    },
    /// Exclusive segmented scan: restarts wherever `starts` is set.
    SegScan {
        /// The operator (fixes the element type of `values`).
        op: WireOp,
        /// Unpacked segment-start flags, one per value.
        starts: Vec<bool>,
        /// One value per vertex.
        values: WireValues,
    },
}

/// A decoded job-bearing frame — any of RANK, SCAN, SEGSCAN, RANK_H,
/// SCAN_H, SEGSCAN_H. The frame kind picks the [`Source`] and the
/// [`Job`]; [`JobFrame::kind`] maps back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobFrame {
    /// Decoded flags prefix (routing, deadline, QoS, pipelining).
    pub flags: ReqFlags,
    /// Where the list comes from.
    pub source: Source,
    /// What to compute along it.
    pub job: Job,
}

/// The frame kind a job travels as: inline or by handle × rank, scan
/// or segmented scan (a rank has no segments).
fn job_kind(by_handle: bool, scan: bool, segmented: bool) -> FrameKind {
    match (by_handle, scan, segmented) {
        (false, false, _) => FrameKind::Rank,
        (false, true, false) => FrameKind::Scan,
        (false, true, true) => FrameKind::SegScan,
        (true, false, _) => FrameKind::RankH,
        (true, true, false) => FrameKind::ScanH,
        (true, true, true) => FrameKind::SegScanH,
    }
}

impl JobFrame {
    /// The frame kind this job travels as.
    pub fn kind(&self) -> FrameKind {
        let by_handle = matches!(self.source, Source::Handle(_));
        match self.job {
            Job::Rank => job_kind(by_handle, false, false),
            Job::Scan { .. } => job_kind(by_handle, true, false),
            Job::SegScan { .. } => job_kind(by_handle, true, true),
        }
    }
}

/// A decoded client→server request. Job-bearing frames arrive as one
/// [`JobFrame`]; an inline successor array has already passed
/// [`LinkedList`] construction — a structurally invalid list never
/// gets past [`decode_request`].
#[derive(Debug)]
pub enum WireRequest {
    /// Handshake (magic and version still unchecked — the server
    /// decides how to answer).
    Hello {
        /// Magic the client sent (must be [`MAGIC`]).
        magic: u32,
        /// Version the client speaks (must be [`VERSION`]).
        version: u16,
    },
    /// Any of the six job-bearing kinds.
    Job(JobFrame),
    /// Admit a dataset into the resident store ([`FrameKind::Put`]).
    Put {
        /// The validated list to make resident.
        list: LinkedList,
    },
    /// Drop a resident dataset ([`FrameKind::Drop`]).
    Drop {
        /// Handle from a PUT_OK on this connection.
        handle: u64,
    },
    /// Apply a batch of edits to a resident dataset
    /// ([`FrameKind::Mutate`]). Semantic validity (vertex ranges, run
    /// structure) is checked at apply time, not decode — the decoder
    /// doesn't know the dataset.
    Mutate {
        /// Handle from a PUT_OK on this connection.
        handle: u64,
        /// The edit batch, applied atomically in order.
        edits: Vec<Edit>,
    },
    /// Metrics snapshot request.
    Stats,
    /// Histogram-level metrics request ([`FrameKind::StatsV2`]).
    StatsV2,
    /// Drain-and-exit request.
    Shutdown,
}

/// Read the request-flags prefix — the flags byte plus its optional
/// trailing fields in wire order (`deadline_ms`, then `request_id`) —
/// enforcing the spec's "other bits must be zero" rule: a future
/// client's unknown flag must fail typed (`malformed`) rather than be
/// silently dropped and the request executed under different semantics
/// than it asked for.
fn decode_flags(d: &mut Dec<'_>) -> Result<ReqFlags, WireError> {
    let flags = d.u8("flags")?;
    if flags & !(FLAG_SHARDED | FLAG_DEADLINE | FLAG_BATCH | FLAG_REQUEST_ID) != 0 {
        return Err(WireError::malformed(format!("reserved flag bits set: {flags:#010b}")));
    }
    let deadline_ms = if flags & FLAG_DEADLINE != 0 { Some(d.u64("deadline_ms")?) } else { None };
    let request_id = if flags & FLAG_REQUEST_ID != 0 {
        let id = d.u64("request_id")?;
        if id == 0 {
            return Err(WireError::malformed("request_id 0 is reserved"));
        }
        Some(id)
    } else {
        None
    };
    Ok(ReqFlags {
        sharded: flags & FLAG_SHARDED != 0,
        deadline_ms,
        batch: flags & FLAG_BATCH != 0,
        request_id,
    })
}

fn decode_list(d: &mut Dec<'_>) -> Result<LinkedList, WireError> {
    let head = d.u32("head")?;
    let n = d.u32("vertex count")? as usize;
    let raw = d.take(
        n.checked_mul(4).ok_or_else(|| WireError::malformed("successor array overflows"))?,
        "successor array",
    )?;
    LinkedList::new(decode_slice(raw), head)
        .map_err(|e| WireError::malformed(format!("invalid list: {e}")))
}

fn decode_starts(n: usize, d: &mut Dec<'_>) -> Result<Vec<bool>, WireError> {
    let raw = d.take(n.div_ceil(8), "segment-start bitmap")?;
    Ok((0..n).map(|v| raw[v / 8] >> (v % 8) & 1 == 1).collect())
}

/// Decode the body of any job-bearing kind. Every layout is the same
/// sequence with optional parts: flags, the operator (scans), the
/// list or the handle, the value count (by-handle scans; an inline
/// list's length is the count), the start bitmap (segmented), values.
fn decode_job(
    (by_handle, scan, segmented): (bool, bool, bool),
    d: &mut Dec<'_>,
) -> Result<JobFrame, WireError> {
    let flags = decode_flags(d)?;
    let op = if scan {
        let op_byte = d.u8("operator")?;
        Some(WireOp::from_u8(op_byte).ok_or(WireError {
            code: ErrorCode::UnknownOp,
            message: format!("operator byte {op_byte:#04x}"),
        })?)
    } else {
        None
    };
    let source =
        if by_handle { Source::Handle(d.u64("handle")?) } else { Source::Inline(decode_list(d)?) };
    let Some(op) = op else { return Ok(JobFrame { flags, source, job: Job::Rank }) };
    let n = match &source {
        Source::Inline(list) => list.len(),
        Source::Handle(_) => d.u32("value count")? as usize,
    };
    let job = if segmented {
        let starts = decode_starts(n, d)?;
        Job::SegScan { op, starts, values: decode_values(op, n, d)? }
    } else {
        Job::Scan { op, values: decode_values(op, n, d)? }
    };
    Ok(JobFrame { flags, source, job })
}

/// Decode a client→server frame into a typed request. Failures carry
/// the [`ErrorCode`] the server should answer with; none of them are
/// connection-fatal (the whole body was already consumed off the wire).
pub fn decode_request(frame: &Frame) -> Result<WireRequest, WireError> {
    decode_request_parts(frame.kind, &frame.body)
}

/// [`decode_request`] of a frame's kind byte and a borrowed body, so a
/// reader decodes straight out of its read buffer.
pub fn decode_request_parts(kind: u8, body: &[u8]) -> Result<WireRequest, WireError> {
    let kind = FrameKind::from_u8(kind).ok_or(WireError {
        code: ErrorCode::UnknownKind,
        message: format!("frame kind {kind:#04x}"),
    })?;
    let mut d = Dec::new(body);
    let req = match kind {
        FrameKind::Hello => {
            let magic = d.u32("magic")?;
            let version = d.u16("version")?;
            WireRequest::Hello { magic, version }
        }
        FrameKind::Rank => WireRequest::Job(decode_job((false, false, false), &mut d)?),
        FrameKind::Scan => WireRequest::Job(decode_job((false, true, false), &mut d)?),
        FrameKind::SegScan => WireRequest::Job(decode_job((false, true, true), &mut d)?),
        FrameKind::RankH => WireRequest::Job(decode_job((true, false, false), &mut d)?),
        FrameKind::ScanH => WireRequest::Job(decode_job((true, true, false), &mut d)?),
        FrameKind::SegScanH => WireRequest::Job(decode_job((true, true, true), &mut d)?),
        FrameKind::Put => {
            let flags = d.u8("flags")?;
            if flags != 0 {
                return Err(WireError::malformed(format!("reserved flag bits set: {flags:#010b}")));
            }
            WireRequest::Put { list: decode_list(&mut d)? }
        }
        FrameKind::Drop => {
            let handle = d.u64("handle")?;
            WireRequest::Drop { handle }
        }
        FrameKind::Mutate => {
            let handle = d.u64("handle")?;
            let count = d.u32("edit count")? as usize;
            let mut edits = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                edits.push(decode_edit(&mut d)?);
            }
            WireRequest::Mutate { handle, edits }
        }
        FrameKind::Stats => WireRequest::Stats,
        FrameKind::StatsV2 => WireRequest::StatsV2,
        FrameKind::Shutdown => WireRequest::Shutdown,
        other => {
            return Err(WireError::malformed(format!("{other:?} is a server→client frame kind")))
        }
    };
    d.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Body encoding (client side, plus server replies)
// ---------------------------------------------------------------------

/// HELLO body: magic + version.
pub fn hello_body() -> Vec<u8> {
    let mut b = Vec::with_capacity(6);
    b.extend_from_slice(&MAGIC.to_le_bytes());
    b.extend_from_slice(&VERSION.to_le_bytes());
    b
}

fn put_list(list: &LinkedList, out: &mut Vec<u8>) {
    out.extend_from_slice(&list.head().to_le_bytes());
    out.extend_from_slice(&(list.len() as u32).to_le_bytes());
    put_slice(list.links(), out);
}

/// Append the request-flags prefix: the flags byte, then `deadline_ms`
/// when a deadline is present ([`FLAG_DEADLINE`], v5), then
/// `request_id` when pipelining ([`FLAG_REQUEST_ID`], v6) — always in
/// that wire order.
fn push_flags(b: &mut Vec<u8>, flags: &ReqFlags) {
    b.push(flags.bits());
    if let Some(ms) = flags.deadline_ms {
        b.extend_from_slice(&ms.to_le_bytes());
    }
    if let Some(id) = flags.request_id {
        b.extend_from_slice(&id.to_le_bytes());
    }
}

/// Pack segment-start flags LSB-first, 8 per byte.
pub fn pack_starts(starts: &[bool]) -> Vec<u8> {
    let mut raw = vec![0u8; starts.len().div_ceil(8)];
    for (v, &s) in starts.iter().enumerate() {
        if s {
            raw[v / 8] |= 1 << (v % 8);
        }
    }
    raw
}

/// A [`listkit::ScanOp`] the wire carries: it names its operator byte
/// and its element type, so a [`Call`] whose values do not match the
/// operator's width does not compile.
pub trait WireScanOp {
    /// The element type the operator scans (and the reply carries).
    type Elem: WireElem;
    /// The operator byte.
    const OP: WireOp;
}

impl WireScanOp for AddOp {
    type Elem = i64;
    const OP: WireOp = WireOp::Add;
}

impl WireScanOp for MaxOp {
    type Elem = i64;
    const OP: WireOp = WireOp::Max;
}

impl WireScanOp for MinOp {
    type Elem = i64;
    const OP: WireOp = WireOp::Min;
}

impl WireScanOp for XorOp {
    type Elem = u64;
    const OP: WireOp = WireOp::Xor;
}

impl WireScanOp for AffineOp {
    type Elem = Affine;
    const OP: WireOp = WireOp::Affine;
}

/// One job request, borrowed and typed: the single encoder for all six
/// job-bearing frame kinds. `T` is the reply's element type — `u64`
/// ranks for [`Call::rank`], the operator's element type for scans —
/// which is what [`crate::client::Client::call`] decodes into.
///
/// ```
/// use engine::protocol::{Call, FrameKind};
/// use listkit::ops::AddOp;
/// let list = listkit::LinkedList::new(vec![2, 0, 2], 1).unwrap();
/// let (kind, _body) = Call::rank(&list).sharded().deadline_ms(1500).encode();
/// assert_eq!(kind, FrameKind::Rank);
/// let (kind, _body) = Call::scan(7, &[5i64, 7, 9], AddOp).id(3).encode();
/// assert_eq!(kind, FrameKind::ScanH);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Call<'a, T> {
    source: Source<&'a LinkedList>,
    /// `None` ranks.
    op: Option<WireOp>,
    /// One value per vertex (empty for a rank).
    values: &'a [T],
    /// Segment-start flags, one per value (segmented scans only).
    starts: Option<&'a [bool]>,
    /// The flags prefix the modifiers build up.
    pub flags: ReqFlags,
}

impl<'a> Call<'a, u64> {
    /// Rank the list (`&LinkedList`) or the resident dataset (`u64`
    /// handle).
    pub fn rank(source: impl Into<Source<&'a LinkedList>>) -> Self {
        Call {
            source: source.into(),
            op: None,
            values: &[],
            starts: None,
            flags: ReqFlags::default(),
        }
    }
}

impl<'a, T: WireElem> Call<'a, T> {
    fn with_op(source: Source<&'a LinkedList>, op: WireOp, values: &'a [T]) -> Self {
        assert_eq!(T::BYTES, op.elem_bytes(), "element width must match the wire operator");
        Call { source, op: Some(op), values, starts: None, flags: ReqFlags::default() }
    }

    /// Exclusive scan of `values` along the source under `op`.
    pub fn scan<Op: WireScanOp<Elem = T>>(
        source: impl Into<Source<&'a LinkedList>>,
        values: &'a [T],
        _op: Op,
    ) -> Self {
        Call::with_op(source.into(), Op::OP, values)
    }

    /// Exclusive segmented scan: restarts wherever `starts` is set (the
    /// head always starts a segment).
    ///
    /// # Panics
    /// Panics if `starts` and `values` differ in length (caught here
    /// rather than as a server-side malformed-frame error).
    pub fn segmented<Op: WireScanOp<Elem = T>>(
        source: impl Into<Source<&'a LinkedList>>,
        values: &'a [T],
        starts: &'a [bool],
        _op: Op,
    ) -> Self {
        assert_eq!(starts.len(), values.len(), "one start flag per value");
        Call { starts: Some(starts), ..Call::with_op(source.into(), Op::OP, values) }
    }

    /// Route through the shard-parallel plan branch ([`FLAG_SHARDED`]).
    pub fn sharded(mut self) -> Self {
        self.flags.sharded = true;
        self
    }

    /// Drop the job unless it starts executing within `ms` of arrival
    /// ([`FLAG_DEADLINE`]).
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.flags.deadline_ms = Some(ms);
        self
    }

    /// Schedule in the batch QoS class ([`FLAG_BATCH`]).
    pub fn batch(mut self) -> Self {
        self.flags.batch = true;
        self
    }

    /// Tag with a nonzero pipelining id ([`FLAG_REQUEST_ID`]).
    pub fn id(mut self, request_id: u64) -> Self {
        self.flags.request_id = Some(request_id);
        self
    }

    /// The frame kind and body: flags prefix, operator (scans), list
    /// or handle, value count (by-handle scans), start bitmap
    /// (segmented), values — the layouts `docs/PROTOCOL.md` specifies.
    pub fn encode(&self) -> (FrameKind, Vec<u8>) {
        let by_handle = matches!(self.source, Source::Handle(_));
        let kind = job_kind(by_handle, self.op.is_some(), self.starts.is_some());
        let list_bytes = match self.source {
            Source::Inline(list) => 8 + 4 * list.len(),
            Source::Handle(_) => 12,
        };
        let starts_bytes = self.starts.map_or(0, |s| s.len().div_ceil(8));
        let mut b =
            Vec::with_capacity(18 + list_bytes + starts_bytes + T::BYTES * self.values.len());
        push_flags(&mut b, &self.flags);
        if let Some(op) = self.op {
            b.push(op as u8);
        }
        match self.source {
            Source::Inline(list) => put_list(list, &mut b),
            Source::Handle(handle) => {
                b.extend_from_slice(&handle.to_le_bytes());
                if self.op.is_some() {
                    b.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
                }
            }
        }
        if let Some(starts) = self.starts {
            b.extend_from_slice(&pack_starts(starts));
        }
        put_slice(self.values, &mut b);
        (kind, b)
    }
}

/// RANK_H body: [`Call::rank`] by handle, optionally sharded.
pub fn rank_h_body(handle: u64, sharded: bool) -> Vec<u8> {
    rank_h_body_flags(handle, ReqFlags { sharded, ..ReqFlags::default() })
}

/// RANK_H body with a full flags prefix.
pub fn rank_h_body_flags(handle: u64, flags: ReqFlags) -> Vec<u8> {
    Call { flags, ..Call::rank(handle) }.encode().1
}

/// SCAN_H body: [`Call::scan`] by handle with a runtime operator.
///
/// # Panics
/// Panics if `T`'s width is not `op`'s element width.
pub fn scan_h_body<T: WireElem>(handle: u64, values: &[T], op: WireOp, sharded: bool) -> Vec<u8> {
    scan_h_body_flags(handle, values, op, ReqFlags { sharded, ..ReqFlags::default() })
}

/// SCAN_H body with a full flags prefix (see [`scan_h_body`]).
pub fn scan_h_body_flags<T: WireElem>(
    handle: u64,
    values: &[T],
    op: WireOp,
    flags: ReqFlags,
) -> Vec<u8> {
    Call { flags, ..Call::with_op(Source::Handle(handle), op, values) }.encode().1
}

/// PUT body: a reserved flags byte (must be zero) + the list's
/// head/length/successor array.
pub fn put_body(list: &LinkedList) -> Vec<u8> {
    let mut b = Vec::with_capacity(1 + 8 + 4 * list.len());
    b.push(0);
    put_list(list, &mut b);
    b
}

/// DROP body: the dataset handle.
pub fn drop_body(handle: u64) -> Vec<u8> {
    handle.to_le_bytes().to_vec()
}

/// Edit kind byte for [`Edit::Splice`] in a MUTATE frame.
pub const EDIT_SPLICE: u8 = 1;
/// Edit kind byte for [`Edit::Delete`] in a MUTATE frame.
pub const EDIT_DELETE: u8 = 2;
/// Edit kind byte for [`Edit::Append`] in a MUTATE frame.
pub const EDIT_APPEND: u8 = 3;

/// Sentinel for `Edit::Splice { after: None }` (move the run to the
/// front): `u32::MAX` is never a valid vertex index, because a list's
/// length is capped at `u32::MAX` vertices.
pub const SPLICE_FRONT: u32 = u32::MAX;

fn put_edit(edit: &Edit, out: &mut Vec<u8>) {
    match *edit {
        Edit::Splice { first, last, after } => {
            out.push(EDIT_SPLICE);
            out.extend_from_slice(&first.to_le_bytes());
            out.extend_from_slice(&last.to_le_bytes());
            out.extend_from_slice(&after.unwrap_or(SPLICE_FRONT).to_le_bytes());
        }
        Edit::Delete { v } => {
            out.push(EDIT_DELETE);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Edit::Append { count } => {
            out.push(EDIT_APPEND);
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
}

fn decode_edit(d: &mut Dec<'_>) -> Result<Edit, WireError> {
    let kind = d.u8("edit kind")?;
    Ok(match kind {
        EDIT_SPLICE => {
            let first = d.u32("splice first")?;
            let last = d.u32("splice last")?;
            let after = d.u32("splice after")?;
            Edit::Splice { first, last, after: (after != SPLICE_FRONT).then_some(after) }
        }
        EDIT_DELETE => Edit::Delete { v: d.u32("delete vertex")? },
        EDIT_APPEND => Edit::Append { count: d.u32("append count")? },
        other => {
            return Err(WireError {
                code: ErrorCode::BadMutation,
                message: format!("unknown edit kind {other:#04x}"),
            })
        }
    })
}

/// MUTATE body: dataset handle + edit count + the edit batch.
pub fn mutate_body(handle: u64, edits: &[Edit]) -> Vec<u8> {
    let mut b = Vec::with_capacity(12 + 13 * edits.len());
    b.extend_from_slice(&handle.to_le_bytes());
    b.extend_from_slice(&(edits.len() as u32).to_le_bytes());
    for e in edits {
        put_edit(e, &mut b);
    }
    b
}

/// What a MUTATE_OK frame reports — the wire projection of
/// [`crate::dynamic::MutationOutcome`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireMutateOk {
    /// Edits applied (the whole batch).
    pub applied: u32,
    /// Post-mutation dataset length.
    pub len: u64,
    /// `true` when the cached artifact was patched incrementally or
    /// there was none (mode byte `0` on the wire; `1` = full recompute).
    pub incremental: bool,
    /// Dirty shards patched by the incremental pass.
    pub dirty_shards: u32,
    /// Cached artifacts brought up to date (0 or 1).
    pub artifacts: u32,
    /// Server-side wall-clock of apply + maintenance, nanoseconds.
    pub exec_ns: u64,
}

/// MUTATE_OK body: applied count, new length, maintenance mode byte,
/// dirty-shard count, artifact count, execution time.
pub fn mutate_ok_body(ok: &WireMutateOk) -> Vec<u8> {
    let mut b = Vec::with_capacity(29);
    b.extend_from_slice(&ok.applied.to_le_bytes());
    b.extend_from_slice(&ok.len.to_le_bytes());
    b.push(if ok.incremental { 0 } else { 1 });
    b.extend_from_slice(&ok.dirty_shards.to_le_bytes());
    b.extend_from_slice(&ok.artifacts.to_le_bytes());
    b.extend_from_slice(&ok.exec_ns.to_le_bytes());
    b
}

/// Decode a MUTATE_OK body.
pub fn decode_mutate_ok(body: &[u8]) -> Result<WireMutateOk, WireError> {
    let mut d = Dec::new(body);
    let applied = d.u32("applied count")?;
    let len = d.u64("new length")?;
    let mode = d.u8("maintenance mode")?;
    if mode > 1 {
        return Err(WireError::malformed(format!("maintenance mode byte {mode}")));
    }
    let dirty_shards = d.u32("dirty shards")?;
    let artifacts = d.u32("artifacts")?;
    let exec_ns = d.u64("exec_ns")?;
    d.finish()?;
    Ok(WireMutateOk { applied, len, incremental: mode == 0, dirty_shards, artifacts, exec_ns })
}

/// PUT_OK body: the issued handle + bytes charged to the store budget.
pub fn put_ok_body(handle: u64, bytes: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(16);
    b.extend_from_slice(&handle.to_le_bytes());
    b.extend_from_slice(&bytes.to_le_bytes());
    b
}

/// Decode a PUT_OK body into `(handle, bytes)`.
pub fn decode_put_ok(body: &[u8]) -> Result<(u64, u64), WireError> {
    let mut d = Dec::new(body);
    let handle = d.u64("handle")?;
    let bytes = d.u64("charged bytes")?;
    d.finish()?;
    Ok((handle, bytes))
}

/// HELLO_OK body: server version + the frame-size cap it enforces.
pub fn hello_ok_body(version: u16, max_frame: u32) -> Vec<u8> {
    let mut b = Vec::with_capacity(6);
    b.extend_from_slice(&version.to_le_bytes());
    b.extend_from_slice(&max_frame.to_le_bytes());
    b
}

/// Decode a HELLO_OK body into `(version, max_frame)`.
pub fn decode_hello_ok(body: &[u8]) -> Result<(u16, u32), WireError> {
    let mut d = Dec::new(body);
    let version = d.u16("version")?;
    let max_frame = d.u32("max frame")?;
    d.finish()?;
    Ok((version, max_frame))
}

/// Execution metadata of an OUTPUT frame — the wire projection of the
/// engine's [`crate::JobReport`] fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutputMeta {
    /// The algorithm the planner dispatched (stitch algorithm for
    /// sharded runs).
    pub algorithm: Algorithm,
    /// Shards the job split into (`0` = monolithic).
    pub shards: u32,
    /// Nanoseconds the job spent queued.
    pub queued_ns: u64,
    /// Nanoseconds of execution.
    pub exec_ns: u64,
    /// The request's trace id (assigned at frame decode; `0` means the
    /// server predates tracing). Echoed so clients can correlate
    /// replies with the daemon's slow-request log lines.
    pub trace_id: u64,
}

/// OUTPUT body bytes ahead of the payload: algorithm, shards, queued
/// and exec nanoseconds, trace id, element count.
pub(crate) const OUTPUT_META_BYTES: usize = 1 + 4 + 8 + 8 + 8 + 4;

/// The length of the OUTPUT body [`output_body`] writes for `n`
/// elements of `T`.
pub fn output_body_len<T: WireElem>(n: usize) -> usize {
    OUTPUT_META_BYTES + T::BYTES * n
}

/// OUTPUT body: metadata + the typed payload.
pub fn output_body<T: WireElem>(meta: &OutputMeta, values: &[T]) -> Vec<u8> {
    let mut b = Vec::new();
    output_body_into(meta, values, &mut b);
    b
}

/// Append the OUTPUT body of [`output_body`] to `out`, so a reply can
/// be framed into a reused buffer behind its header.
pub fn output_body_into<T: WireElem>(meta: &OutputMeta, values: &[T], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + output_body_len::<T>(values.len()), 0);
    let (head, payload) = out[start..].split_at_mut(OUTPUT_META_BYTES);
    write_output_meta(meta, values.len(), head);
    encode_slice(values, payload);
}

/// Write the OUTPUT metadata for `n` payload elements into `out`,
/// exactly [`OUTPUT_META_BYTES`] long.
fn write_output_meta(meta: &OutputMeta, n: usize, out: &mut [u8]) {
    let code = Algorithm::ALL.iter().position(|a| *a == meta.algorithm).expect("known algorithm");
    out[0] = code as u8;
    out[1..5].copy_from_slice(&meta.shards.to_le_bytes());
    out[5..13].copy_from_slice(&meta.queued_ns.to_le_bytes());
    out[13..21].copy_from_slice(&meta.exec_ns.to_le_bytes());
    out[21..29].copy_from_slice(&meta.trace_id.to_le_bytes());
    out[29..OUTPUT_META_BYTES].copy_from_slice(&(n as u32).to_le_bytes());
}

/// Boundary an [`open_output_frame`] payload starts on: the widest
/// element word, so a job's little-endian stores never split a word
/// across cache lines.
pub(crate) const PAYLOAD_ALIGN: usize = 8;

/// An OUTPUT frame laid out in a buffer by [`open_output_frame`]: the
/// payload is the job's to write, the metadata is written last by
/// [`seal_output_frame`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutputFrame {
    /// Bytes skipped ahead of the frame to put its payload on a
    /// [`PAYLOAD_ALIGN`] boundary; the frame's wire bytes are
    /// `buf[lead..]`.
    pub(crate) lead: usize,
    /// Offset of the OUTPUT metadata in the buffer.
    meta_at: usize,
    /// Payload elements.
    n: usize,
}

impl OutputFrame {
    /// The payload's byte range in the buffer.
    pub(crate) fn payload(&self, buf_len: usize) -> Range<usize> {
        self.meta_at + OUTPUT_META_BYTES..buf_len
    }
}

/// Lay out the whole OUTPUT frame (OUTPUT_P with a `request_id`) for
/// `n` elements of `elem_bytes` in `buf`: a lead skip that puts the
/// payload on a [`PAYLOAD_ALIGN`] boundary of `buf`'s memory, the
/// frame header, room for the metadata and the payload itself. The
/// bytes past the header are whatever `buf` held — the job overwrites
/// every payload element and [`seal_output_frame`] the metadata — so a
/// recycled buffer is never cleared. A body the `u32` length prefix
/// cannot cover is an [`std::io::ErrorKind::InvalidInput`] error.
pub(crate) fn open_output_frame(
    buf: &mut Vec<u8>,
    request_id: Option<u64>,
    n: usize,
    elem_bytes: usize,
) -> std::io::Result<OutputFrame> {
    let body_len = n
        .checked_mul(elem_bytes)
        .and_then(|p| p.checked_add(OUTPUT_META_BYTES))
        .ok_or_else(|| std::io::Error::other("OUTPUT body length overflows"))?;
    let kind = reply_kind(FrameKind::Output, request_id) as u8;
    let (header, header_len) = frame_header(kind, request_id, body_len)?;
    let frame_len = header_len + body_len;
    buf.reserve((PAYLOAD_ALIGN - 1 + frame_len).saturating_sub(buf.len()));
    let meta_end = buf.as_ptr() as usize + header_len + OUTPUT_META_BYTES;
    let lead = meta_end.wrapping_neg() % PAYLOAD_ALIGN;
    if buf.len() < lead + frame_len {
        buf.resize(lead + frame_len, 0);
    } else {
        buf.truncate(lead + frame_len);
    }
    buf[lead..lead + header_len].copy_from_slice(&header[..header_len]);
    Ok(OutputFrame { lead, meta_at: lead + header_len, n })
}

/// Write an opened frame's metadata, once the job has filled its
/// payload.
pub(crate) fn seal_output_frame(buf: &mut [u8], frame: &OutputFrame, meta: &OutputMeta) {
    let at = frame.meta_at;
    write_output_meta(meta, frame.n, &mut buf[at..at + OUTPUT_META_BYTES]);
}

/// Decode an OUTPUT body; the caller supplies the element type it
/// asked for (the request's operator determines it).
pub fn decode_output<T: WireElem>(body: &[u8]) -> Result<(OutputMeta, Vec<T>), WireError> {
    let mut d = Dec::new(body);
    let code = d.u8("algorithm")? as usize;
    let algorithm = *Algorithm::ALL
        .get(code)
        .ok_or_else(|| WireError::malformed(format!("algorithm code {code}")))?;
    let shards = d.u32("shards")?;
    let queued_ns = d.u64("queued_ns")?;
    let exec_ns = d.u64("exec_ns")?;
    let trace_id = d.u64("trace_id")?;
    let n = d.u32("element count")? as usize;
    let raw = d.take(
        n.checked_mul(T::BYTES).ok_or_else(|| WireError::malformed("payload overflows"))?,
        "payload",
    )?;
    d.finish()?;
    let values = decode_slice(raw);
    Ok((OutputMeta { algorithm, shards, queued_ns, exec_ns, trace_id }, values))
}

/// The STATS_OK payload: a fixed counter block (engine totals plus the
/// serving layer's connection/frame/byte counters) followed by the
/// rendered [`crate::EngineStats`] report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Engine: jobs accepted.
    pub engine_submitted: u64,
    /// Engine: jobs finished successfully.
    pub engine_completed: u64,
    /// Engine: jobs cancelled.
    pub engine_cancelled: u64,
    /// Engine: jobs whose execution panicked.
    pub engine_failed: u64,
    /// Engine: total vertices processed.
    pub engine_elements: u64,
    /// Server: connections accepted since start.
    pub connections_total: u64,
    /// Server: connections currently open.
    pub connections_active: u64,
    /// Server: highest concurrent connection count observed.
    pub peak_connections: u64,
    /// Server: frames decoded off client sockets.
    pub frames_in: u64,
    /// Server: frames written to client sockets.
    pub frames_out: u64,
    /// Server: bytes read from client sockets.
    pub bytes_in: u64,
    /// Server: bytes written to client sockets.
    pub bytes_out: u64,
    /// Server: error frames sent.
    pub errors_sent: u64,
    /// Server: connections turned away at `--max-clients`.
    pub busy_rejected: u64,
    /// The `Display` rendering of the engine's full stats snapshot
    /// (dispatch matrices, per-op throughput, lanes, pool).
    pub text: String,
}

impl WireStats {
    const COUNTERS: usize = 14;

    fn counters(&self) -> [u64; Self::COUNTERS] {
        [
            self.engine_submitted,
            self.engine_completed,
            self.engine_cancelled,
            self.engine_failed,
            self.engine_elements,
            self.connections_total,
            self.connections_active,
            self.peak_connections,
            self.frames_in,
            self.frames_out,
            self.bytes_in,
            self.bytes_out,
            self.errors_sent,
            self.busy_rejected,
        ]
    }
}

/// STATS_OK body: counter count + counters + UTF-8 stats text.
pub fn stats_body(stats: &WireStats) -> Vec<u8> {
    let counters = stats.counters();
    let mut b = Vec::with_capacity(1 + 8 * counters.len() + stats.text.len());
    b.push(counters.len() as u8);
    for c in counters {
        b.extend_from_slice(&c.to_le_bytes());
    }
    b.extend_from_slice(stats.text.as_bytes());
    b
}

/// Decode a STATS_OK body. Counters beyond the [`WireStats`] fields
/// this version knows are skipped (newer servers may append more).
pub fn decode_stats(body: &[u8]) -> Result<WireStats, WireError> {
    let mut d = Dec::new(body);
    let count = d.u8("counter count")? as usize;
    if count < WireStats::COUNTERS {
        return Err(WireError::malformed(format!(
            "counter block has {count} entries, need {}",
            WireStats::COUNTERS
        )));
    }
    let mut c = [0u64; WireStats::COUNTERS];
    for slot in &mut c {
        *slot = d.u64("counter")?;
    }
    for _ in WireStats::COUNTERS..count {
        d.u64("extra counter")?;
    }
    let text = String::from_utf8(d.take(d.b.len() - d.pos, "stats text")?.to_vec())
        .map_err(|_| WireError::malformed("stats text is not UTF-8"))?;
    Ok(WireStats {
        engine_submitted: c[0],
        engine_completed: c[1],
        engine_cancelled: c[2],
        engine_failed: c[3],
        engine_elements: c[4],
        connections_total: c[5],
        connections_active: c[6],
        peak_connections: c[7],
        frames_in: c[8],
        frames_out: c[9],
        bytes_in: c[10],
        bytes_out: c[11],
        errors_sent: c[12],
        busy_rejected: c[13],
        text,
    })
}

// ---------------------------------------------------------------------
// STATS_V2: tagged histogram blocks
// ---------------------------------------------------------------------

/// STATS_V2_OK block tag: a per-phase latency histogram (block id is
/// [`Phase::index`]).
pub const TAG_PHASE_HIST: u8 = 1;
/// STATS_V2_OK block tag: a per-op exec-latency histogram (block id is
/// [`OpKind::index`]).
pub const TAG_OP_HIST: u8 = 2;
/// STATS_V2_OK block tag: the planner's mispredict-ratio histogram
/// (block id is `0`; values are `measured/predicted ×`
/// [`crate::planner::MISPREDICT_SCALE`]).
pub const TAG_MISPREDICT: u8 = 3;
/// STATS_V2_OK block tag: the gauge block (block id is `0`; payload is
/// `count: u8` followed by `count` LE `u64`s in [`StatsGauges`] field
/// order).
pub const TAG_GAUGES: u8 = 4;
/// STATS_V2_OK block tag: one planner dispatch-matrix row (block id is
/// [`OpKind::index`]; payload is `count: u8` followed by `count` LE
/// `u64`s in [`Algorithm::ALL`] order).
pub const TAG_DISPATCH_OP: u8 = 5;
/// STATS_V2_OK block tag: the resident dataset store's gauge block
/// (block id is `0`; payload is `count: u8` followed by `count` LE
/// `u64`s in [`StoreGauges`] field order). Added in protocol v3; v2
/// readers skip it by tag.
pub const TAG_STORE: u8 = 6;
/// STATS_V2_OK block tag: the mutation plane's gauge block (block id
/// is `0`; payload is `count: u8` followed by `count` LE `u64`s in
/// [`MutGauges`] field order). Added in protocol v4; older readers
/// skip it by tag.
pub const TAG_MUTATE: u8 = 7;
/// STATS_V2_OK block tag: the fault/resilience gauge block (block id
/// is `0`; payload is `count: u8` followed by `count` LE `u64`s in
/// [`FaultGauges`] field order). Added in protocol v5; older readers
/// skip it by tag.
pub const TAG_FAULT: u8 = 8;
/// STATS_V2_OK block tag: the scheduler/QoS gauge block (block id is
/// `0`; payload is `count: u8` followed by `count` LE `u64`s in
/// [`SchedGauges`] field order). Added in protocol v6; older readers
/// skip it by tag.
pub const TAG_SCHED: u8 = 9;
/// STATS_V2_OK block tag: the pipeline-depth histogram — depth of the
/// connection's in-flight set sampled at each pipelined admission
/// (block id is `0`; payload is a histogram like [`TAG_PHASE_HIST`]).
/// Added in protocol v6; omitted while empty; older readers skip it by
/// tag.
pub const TAG_PIPELINE: u8 = 10;

/// A STATS_V2 gauge block: a fixed run of `u64` gauges, encoded as
/// `count: u8` followed by `count` LE `u64`s in field order. The count
/// prefix keeps older readers working: a newer peer appends gauges, and
/// a reader skips the ones past its own [`GaugeBlock::COUNT`].
trait GaugeBlock: Sized {
    const COUNT: usize;
    const TAG: u8;
    /// What the block holds, for decode errors.
    const WHAT: &'static str;
    /// The gauges in wire order.
    fn gauges(&self) -> Vec<u64>;
    /// Rebuild from wire gauges (at least [`GaugeBlock::COUNT`]).
    fn from_gauges(g: &[u64]) -> Self;
}

/// Declares one gauge block: a struct of documented `u64` fields in
/// wire order, its tag and `COUNT`, and its [`GaugeBlock`] view for
/// the one codec ([`put_gauges`] / [`parse_gauges`]). Adding a gauge
/// means appending one documented field to the declaration.
macro_rules! gauge_block {
    (
        $(#[$doc:meta])*
        pub struct $name:ident: $tag:ident, $what:literal {
            $( $(#[$fdoc:meta])* pub $field:ident, )+
        }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fdoc])* pub $field: u64, )+
        }

        impl $name {
            /// Number of gauges this version defines.
            pub const COUNT: usize = [$(stringify!($field)),+].len();
        }

        impl GaugeBlock for $name {
            const COUNT: usize = $name::COUNT;
            const TAG: u8 = $tag;
            const WHAT: &'static str = $what;
            fn gauges(&self) -> Vec<u64> {
                vec![$(self.$field),+]
            }
            fn from_gauges(g: &[u64]) -> Self {
                let mut g = g.iter().copied();
                $name { $($field: g.next().unwrap_or_default(),)+ }
            }
        }
    };
}

gauge_block! {
    /// The fixed gauge block of a STATS_V2_OK frame: point-in-time
    /// scalars the `rankd stats` dashboard needs alongside the histograms.
    pub struct StatsGauges: TAG_GAUGES, "gauge" {
        /// Engine uptime in nanoseconds.
        pub uptime_ns,
        /// Jobs accepted into the queue.
        pub submitted,
        /// Jobs completed successfully.
        pub completed,
        /// Jobs cancelled before execution.
        pub cancelled,
        /// Jobs whose execution panicked.
        pub failed,
        /// Submissions rejected because the queue was full.
        pub rejected_full,
        /// Total vertices processed by completed jobs.
        pub elements,
        /// Current queue depth.
        pub queue_depth,
        /// Highest queue depth observed.
        pub peak_queue_depth,
        /// Vertices visited by K-lane interleaved walks.
        pub lane_steps,
        /// Lane slots offered while those walks ran (`lane_steps /
        /// lane_slots` is the occupancy).
        pub lane_slots,
        /// Server connections currently open.
        pub connections_active,
        /// Server connections accepted since start.
        pub connections_total,
    }
}

gauge_block! {
    /// The resident-dataset store's gauge block of a STATS_V2_OK frame
    /// (mirrors [`crate::store::StoreStats`]). Added in protocol v3.
    pub struct StoreGauges: TAG_STORE, "store gauge" {
        /// Configured byte budget.
        pub budget_bytes,
        /// Bytes currently resident (lists + cached artifacts).
        pub resident_bytes,
        /// Datasets currently resident.
        pub resident_count,
        /// Successful PUTs.
        pub puts,
        /// Datasets removed by DROP or connection teardown.
        pub drops,
        /// Handle resolution attempts.
        pub lookups,
        /// Lookups that resolved to a resident dataset.
        pub hits,
        /// Lookups that found no dataset for the (handle, connection).
        pub misses,
        /// Datasets evicted by LRU pressure.
        pub evictions,
        /// PUTs refused because the budget could not be met.
        pub put_rejected,
        /// Sharded artifacts built.
        pub artifacts_built,
        /// Sharded artifacts served from the cache.
        pub artifacts_reused,
    }
}

gauge_block! {
    /// The mutation plane's gauge block of a STATS_V2_OK frame (mirrors
    /// [`crate::store::MutationStats`]). Added in protocol v4.
    pub struct MutGauges: TAG_MUTATE, "mutate gauge" {
        /// Mutation batches applied.
        pub mutations,
        /// Individual edits applied.
        pub edits,
        /// Maintenance passes that patched dirty shards in place.
        pub incremental,
        /// Maintenance passes that rebuilt from scratch.
        pub full,
        /// Dirty shards patched by incremental passes.
        pub dirty_shards_patched,
        /// Cached artifacts brought up to date (`incremental + full`).
        pub artifacts_patched,
    }
}

gauge_block! {
    /// The fault/resilience gauge block of a STATS_V2_OK frame: what the
    /// fault-injection plane ([`crate::fault::FaultPlane`]) injected, and
    /// what the resilience machinery absorbed (panics isolated, workers
    /// respawned, deadlines expired, requests shed). Added in protocol v5.
    pub struct FaultGauges: TAG_FAULT, "fault gauge" {
        /// Socket reads/writes failed by injection.
        pub injected_io_errors,
        /// Artificial socket delays injected.
        pub injected_delays,
        /// Reply writes cut short by injection.
        pub injected_short_writes,
        /// Worker executions panicked by injection.
        pub injected_exec_panics,
        /// Store admissions rejected by injection.
        pub injected_store_errors,
        /// Worker panics caught and converted to typed `internal_error`
        /// replies (injected or genuine).
        pub panics_recovered,
        /// Worker threads that re-entered their loop after an unexpected
        /// panic outside job execution.
        pub workers_respawned,
        /// Jobs dropped at dequeue because their deadline expired.
        pub deadline_expired,
        /// Requests shed at the queue-depth watermark.
        pub shed_queue,
        /// PUTs shed at the store-pressure watermark.
        pub shed_store,
    }
}

gauge_block! {
    /// The scheduler/QoS gauge block of a STATS_V2_OK frame: what the
    /// two-class scheduler dispatched and holds in flight, what the
    /// per-tenant quotas rejected, and how the pipelining plane behaved.
    /// Added in protocol v6.
    pub struct SchedGauges: TAG_SCHED, "sched gauge" {
        /// Interactive-class requests admitted and not yet finished.
        pub inflight_interactive,
        /// Batch-class requests admitted and not yet finished.
        pub inflight_batch,
        /// Interactive-class dispatches since start.
        pub dispatched_interactive,
        /// Batch-class dispatches since start.
        pub dispatched_batch,
        /// Dispatches where the anti-starvation aging valve bypassed
        /// strict class order.
        pub aged_dispatches,
        /// Requests refused because the tenant's in-flight quota was full.
        pub quota_rejected_inflight,
        /// PUTs refused because the tenant's resident-byte quota was full.
        pub quota_rejected_store,
        /// Pipelined replies delivered out of arrival order.
        pub reply_reorders,
        /// Requests that carried a [`FLAG_REQUEST_ID`] pipelining id.
        pub pipelined_requests,
        /// Deepest in-flight set observed on any one connection.
        pub max_pipeline_depth,
    }
}

/// The decoded payload of a STATS_V2_OK frame: every histogram the
/// telemetry registry keeps, the planner's mispredict histogram and
/// dispatch-by-op matrix, and the gauge block. Histogram slots that
/// were not on the wire (the encoder skips empty ones) decode as empty
/// histograms, so consumers can index without `Option` juggling.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireStatsV2 {
    /// Per-phase latency histograms, indexed by [`Phase::index`].
    pub phase: [Histogram; Phase::ALL.len()],
    /// Per-op exec-latency histograms, indexed by [`OpKind::ALL`] order.
    pub per_op: [Histogram; OpKind::ALL.len()],
    /// The planner's mispredict-ratio histogram.
    pub mispredict: Histogram,
    /// The gauge block.
    pub gauges: StatsGauges,
    /// The resident-dataset store's gauge block (all-zero when the
    /// peer predates protocol v3).
    pub store: StoreGauges,
    /// The mutation plane's gauge block (all-zero when the peer
    /// predates protocol v4).
    pub mutate: MutGauges,
    /// The fault/resilience gauge block (all-zero when the peer
    /// predates protocol v5).
    pub fault: FaultGauges,
    /// The scheduler/QoS gauge block (all-zero when the peer predates
    /// protocol v6).
    pub sched: SchedGauges,
    /// The pipeline-depth histogram (empty when the peer predates
    /// protocol v6 or nothing was pipelined yet).
    pub pipeline_depth: Histogram,
    /// Planner dispatch rows: `(op, completions per algorithm)` in
    /// [`Algorithm::ALL`] order; only ops with completions appear.
    pub dispatch_by_op: Vec<(OpKind, Vec<u64>)>,
}

/// Append one histogram's wire payload: `sub_bits: u8`, `count: u64`,
/// `sum: u64`, `max: u64`, `nonzero: u32`, then `nonzero` ×
/// `(index: u16, count: u64)` sparse bucket pairs.
fn put_hist(h: &Histogram, out: &mut Vec<u8>) {
    out.push(hist::SUB_BITS as u8);
    out.extend_from_slice(&h.count().to_le_bytes());
    out.extend_from_slice(&h.sum().to_le_bytes());
    out.extend_from_slice(&h.max().to_le_bytes());
    let buckets: Vec<(u16, u64)> = h.nonzero_buckets().collect();
    out.extend_from_slice(&(buckets.len() as u32).to_le_bytes());
    for (i, c) in buckets {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
    }
}

fn parse_hist(d: &mut Dec<'_>) -> Result<Histogram, WireError> {
    let sub_bits = d.u8("histogram sub_bits")?;
    if sub_bits as u32 != hist::SUB_BITS {
        return Err(WireError::malformed(format!(
            "histogram sub-bucket resolution {sub_bits} (this peer speaks {})",
            hist::SUB_BITS
        )));
    }
    let count = d.u64("histogram count")?;
    let sum = d.u64("histogram sum")?;
    let max = d.u64("histogram max")?;
    let nonzero = d.u32("histogram bucket count")? as usize;
    let mut buckets = Vec::with_capacity(nonzero.min(hist::SLOTS));
    for _ in 0..nonzero {
        let i = d.u16("bucket index")?;
        let c = d.u64("bucket count")?;
        buckets.push((i, c));
    }
    Histogram::from_parts(&buckets, count, sum, max)
        .ok_or_else(|| WireError::malformed("histogram bucket index out of range"))
}

/// `count: u8` followed by `count` LE `u64`s: the payload of a gauge
/// block and of a dispatch row.
fn put_u64s(values: &[u64], out: &mut Vec<u8>) {
    out.push(values.len() as u8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn parse_u64s(p: &mut Dec<'_>, what: &str) -> Result<Vec<u64>, WireError> {
    let count = p.u8(what)? as usize;
    (0..count).map(|_| p.u64(what)).collect()
}

/// Append one gauge block's payload (see [`GaugeBlock`]).
fn put_gauges<G: GaugeBlock>(block: &G, out: &mut Vec<u8>) {
    put_u64s(&block.gauges(), out);
}

/// Parse one gauge block's payload: a block shorter than
/// [`GaugeBlock::COUNT`] is malformed; gauges past it are skipped.
fn parse_gauges<G: GaugeBlock>(p: &mut Dec<'_>) -> Result<G, WireError> {
    let gauges = parse_u64s(p, G::WHAT)?;
    if gauges.len() < G::COUNT {
        return Err(WireError::malformed(format!(
            "{} block has {} entries, need {}",
            G::WHAT,
            gauges.len(),
            G::COUNT
        )));
    }
    Ok(G::from_gauges(&gauges))
}

/// A STATS_V2_OK body under construction: the encoded blocks and how
/// many there are.
#[derive(Default)]
struct Blocks {
    count: u16,
    bytes: Vec<u8>,
}

impl Blocks {
    /// Append one `(tag, id, len, payload)` block.
    fn put(&mut self, tag: u8, id: usize, payload: impl FnOnce(&mut Vec<u8>)) {
        let mut p = Vec::new();
        payload(&mut p);
        self.bytes.extend_from_slice(&[tag, id as u8]);
        self.bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(&p);
        self.count += 1;
    }

    /// Append a histogram block; empty histograms are left out.
    fn hist(&mut self, tag: u8, id: usize, h: &Histogram) {
        if !h.is_empty() {
            self.put(tag, id, |p| put_hist(h, p));
        }
    }

    fn gauges<G: GaugeBlock>(&mut self, block: &G) {
        self.put(G::TAG, 0, |p| put_gauges(block, p));
    }
}

/// STATS_V2_OK body: `block_count: u16` followed by that many
/// `(tag: u8, id: u8, len: u32, payload)` blocks. Empty histograms are
/// not encoded; a reader skips blocks with tags it does not know
/// (their `len` makes that possible), which is the forward-compat
/// contract: new telemetry = new tags, never a relayout.
pub fn stats_v2_body(stats: &WireStatsV2) -> Vec<u8> {
    let mut b = Blocks::default();
    for phase in Phase::ALL {
        b.hist(TAG_PHASE_HIST, phase.index(), &stats.phase[phase.index()]);
    }
    for op in OpKind::ALL {
        b.hist(TAG_OP_HIST, op.index(), &stats.per_op[op.index()]);
    }
    b.hist(TAG_MISPREDICT, 0, &stats.mispredict);
    b.gauges(&stats.gauges);
    b.gauges(&stats.store);
    b.gauges(&stats.mutate);
    b.gauges(&stats.fault);
    b.gauges(&stats.sched);
    b.hist(TAG_PIPELINE, 0, &stats.pipeline_depth);
    for (op, row) in &stats.dispatch_by_op {
        b.put(TAG_DISPATCH_OP, op.index(), |p| put_u64s(row, p));
    }
    let mut out = Vec::with_capacity(2 + b.bytes.len());
    out.extend_from_slice(&b.count.to_le_bytes());
    out.extend_from_slice(&b.bytes);
    out
}

/// Decode a STATS_V2_OK body. Blocks with unknown tags are skipped;
/// blocks with known tags but out-of-range ids are malformed.
pub fn decode_stats_v2(body: &[u8]) -> Result<WireStatsV2, WireError> {
    let mut d = Dec::new(body);
    let block_count = d.u16("block count")?;
    let mut out = WireStatsV2::default();
    let op_of = |id: u8| {
        OpKind::from_index(id as usize).ok_or_else(|| WireError::malformed(format!("op id {id}")))
    };
    for _ in 0..block_count {
        let tag = d.u8("block tag")?;
        let id = d.u8("block id")?;
        let len = d.u32("block length")? as usize;
        let mut p = Dec::new(d.take(len, "block payload")?);
        match tag {
            TAG_PHASE_HIST => {
                let phase = Phase::from_index(id as usize)
                    .ok_or_else(|| WireError::malformed(format!("phase id {id}")))?;
                out.phase[phase.index()] = parse_hist(&mut p)?;
            }
            TAG_OP_HIST => out.per_op[op_of(id)?.index()] = parse_hist(&mut p)?,
            TAG_MISPREDICT => out.mispredict = parse_hist(&mut p)?,
            TAG_GAUGES => out.gauges = parse_gauges(&mut p)?,
            TAG_STORE => out.store = parse_gauges(&mut p)?,
            TAG_MUTATE => out.mutate = parse_gauges(&mut p)?,
            TAG_FAULT => out.fault = parse_gauges(&mut p)?,
            TAG_SCHED => out.sched = parse_gauges(&mut p)?,
            TAG_PIPELINE => out.pipeline_depth = parse_hist(&mut p)?,
            TAG_DISPATCH_OP => {
                let op = op_of(id)?;
                out.dispatch_by_op.push((op, parse_u64s(&mut p, "dispatch count")?));
            }
            // Unknown tag from a newer peer: the whole payload was
            // already consumed via `len`, so just move on.
            _ => continue,
        }
        p.finish()?;
    }
    d.finish()?;
    Ok(out)
}

/// ERROR body: code + UTF-8 message.
pub fn error_body(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut b = Vec::with_capacity(2 + message.len());
    b.extend_from_slice(&(code as u16).to_le_bytes());
    b.extend_from_slice(message.as_bytes());
    b
}

/// Decode an ERROR body into `(raw code, decoded code, message)`. The
/// raw code is kept so an unknown code from a newer peer still
/// surfaces.
pub fn decode_error(body: &[u8]) -> Result<(u16, Option<ErrorCode>, String), WireError> {
    let mut d = Dec::new(body);
    let raw = d.u16("error code")?;
    let message = String::from_utf8(d.take(d.b.len() - d.pos, "error message")?.to_vec())
        .map_err(|_| WireError::malformed("error message is not UTF-8"))?;
    Ok((raw, ErrorCode::from_u16(raw), message))
}

/// OUTPUT_P / ERROR_P body (protocol v6): the echoed `request_id: u64`
/// followed by the unchanged OUTPUT / ERROR body bytes. One wrapper
/// serves both kinds — only the frame kind differs.
pub fn pipelined_body(request_id: u64, inner: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(8 + inner.len());
    b.extend_from_slice(&request_id.to_le_bytes());
    b.extend_from_slice(inner);
    b
}

/// Split an OUTPUT_P / ERROR_P body into `(request_id, inner body)`;
/// the inner bytes decode with [`decode_output`] / [`decode_error`]
/// according to the frame kind.
pub fn decode_pipelined(body: &[u8]) -> Result<(u64, &[u8]), WireError> {
    let mut d = Dec::new(body);
    let request_id = d.u64("request_id")?;
    Ok((request_id, &body[8..]))
}
