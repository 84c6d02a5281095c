//! In-process client for a `rankd serve` daemon.
//!
//! [`Client`] speaks the [`crate::protocol`] over a Unix domain
//! socket: connect (which performs the HELLO handshake), then
//! [`Client::call`] a [`Call`] — one typed description of any of the
//! six job frames (rank, scan or segmented scan; inline list or
//! resident handle; sharded, deadline, batch-class) — which writes one
//! frame, blocks for the reply, and decodes it into a
//! [`ServedOutput`]:
//!
//! ```no_run
//! use engine::client::{Call, Client};
//! use listkit::ops::AddOp;
//! let mut client = Client::connect("/tmp/rankd.sock")?;
//! let list = listkit::gen::random_list(1000, 7);
//! let ranks = client.call(&Call::rank(&list))?.output;
//! let handle = client.put(&list)?.handle;
//! let values = vec![1i64; 1000];
//! let sums = client.call(&Call::scan(handle, &values, AddOp).sharded())?.output;
//! # let _ = (ranks, sums);
//! # Ok::<(), engine::ClientError>(())
//! ```
//!
//! A server-side [`FrameKind::Error`] reply surfaces as
//! [`ClientError::Server`] with its typed code; the connection stays
//! usable afterwards exactly when the server kept it open (every code
//! except the handshake failures and [`ErrorCode::FrameTooLarge`]).
//!
//! This is the same codec the server uses, so the integration tests
//! and the `serve_bench` driver exercise the real wire format, not a
//! shortcut.
//!
//! ## Transports
//!
//! [`Client::connect`] dials a Unix domain socket;
//! [`Client::connect_tcp`] dials the daemon's optional TCP listener
//! (`rankd serve --tcp HOST:PORT`). Both speak the identical protocol
//! — the transport is invisible above the handshake. TCP connections
//! set `TCP_NODELAY` so small pipelined frames are not held back by
//! Nagle's algorithm.
//!
//! ## Pipelining
//!
//! [`Client::call`] is one-frame-in-flight. A client may instead tag
//! each job with a nonzero request id ([`Call::id`]), write many frames
//! back to back with [`Client::send`], and collect the replies — which
//! arrive in *completion* order, not submission order — with
//! [`Client::recv_pipelined`]. Pipelined sends are never retried by
//! the [`RetryPolicy`]: a reconnect would silently drop every other
//! in-flight request, so any failure mid-pipeline surfaces immediately
//! and the caller decides what to replay.
//!
//! ## Resilience
//!
//! A [`RetryPolicy`] (installed with [`Client::with_retry`]) makes the
//! client ride out *transient* failures on its own: dropped
//! connections and torn replies trigger a reconnect + fresh handshake,
//! typed [`ErrorCode::Busy`]/[`ErrorCode::Overloaded`] refusals back
//! off and resend, all under capped exponential backoff with
//! deterministic jitter. Everything else — including every MUTATE,
//! whose first attempt may have applied before the reply was lost — is
//! surfaced to the caller on the first failure.

use crate::protocol::{
    self, read_frame, write_frame, ErrorCode, Frame, FrameKind, OutputMeta, ReadFrameError,
    WireElem, WireMutateOk, WireStats, WireStatsV2, MAX_FRAME_DEFAULT,
};
pub use crate::protocol::{Call, Source};
use crate::store::PutReceipt;
use listkit::dynamic::Edit;
use listkit::LinkedList;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Where a [`Client`] dials — kept so retry-driven reconnects can
/// re-open the same endpoint.
#[derive(Clone, Debug)]
enum Endpoint {
    /// A Unix domain socket path.
    Unix(PathBuf),
    /// A TCP `host:port` address.
    Tcp(String),
}

impl Endpoint {
    fn open(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                // Pipelined frames are small; Nagle would batch them
                // against the round trip we are trying to hide.
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
        }
    }
}

/// The connected transport, erased behind `Read + Write`.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, unexpected EOF).
    Io(std::io::Error),
    /// The server answered with a typed error frame.
    Server {
        /// Raw error code from the wire.
        code: u16,
        /// The decoded code, when this client version knows it.
        kind: Option<ErrorCode>,
        /// Server-provided detail message.
        message: String,
    },
    /// The reply violated the protocol (wrong kind, undecodable body).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { code, kind, message } => match kind {
                Some(k) => write!(f, "server error {code} ({k}): {message}"),
                None => write!(f, "server error {code}: {message}"),
            },
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The typed error code, when the failure was a server error frame
    /// with a code this client knows.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { kind, .. } => *kind,
            _ => None,
        }
    }
}

/// How a [`Client`] retries transient failures: capped exponential
/// backoff with deterministic jitter.
///
/// The delay before retry `attempt` (0-based) is drawn from
/// `[exp / 2, exp]` where `exp = min(base_delay << attempt,
/// max_delay)` — "equal jitter", so the delay never exceeds
/// `max_delay` and never collapses below half the exponential
/// schedule. The jitter is a pure function of `(jitter_seed,
/// attempt)`, so a fleet of clients seeded differently desynchronises
/// while any single run is exactly reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (`0` disables retrying).
    pub max_retries: u32,
    /// First-retry backoff; doubles each further attempt.
    pub base_delay: Duration,
    /// Backoff ceiling (pre-jitter; jitter never exceeds it).
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 4 retries, 10 ms base, 500 ms ceiling.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The no-retry policy: every failure surfaces immediately (the
    /// behaviour of a plain [`Client::connect`]).
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// Replace the jitter seed (distinct seeds desynchronise a fleet).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The backoff before retry `attempt` (0-based). Pure and total:
    /// saturates instead of overflowing for any `attempt`, and the
    /// result is always within `[exp / 2, exp]` for
    /// `exp = min(base_delay * 2^attempt, max_delay)`.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let base_ns = u64::try_from(self.base_delay.as_nanos()).unwrap_or(u64::MAX);
        let max_ns = u64::try_from(self.max_delay.as_nanos()).unwrap_or(u64::MAX);
        // Widen before shifting: `u64::checked_shl` only guards the
        // shift *amount*, not value overflow, and a silently wrapped
        // exponent would collapse the backoff for large attempts.
        // Capping the shift at 64 keeps the u128 shift defined while
        // preserving saturation (any base ≥ 1 shifted 64 exceeds
        // every u64 ceiling).
        let exp_wide = (u128::from(base_ns) << attempt.min(64)).min(u128::from(max_ns));
        let exp_ns = u64::try_from(exp_wide).unwrap_or(u64::MAX);
        let floor_ns = exp_ns / 2;
        // Span is exp - floor + 1 >= 1, so the modulo is well-defined.
        let span = exp_ns - floor_ns + 1;
        let jitter = crate::fault::splitmix64(self.jitter_seed ^ u64::from(attempt)) % span;
        Duration::from_nanos(floor_ns + jitter)
    }

    /// Whether `error` is worth retrying: transport failures that a
    /// reconnect can heal, plus the server's explicit
    /// back-off-and-come-back refusals ([`ErrorCode::Busy`],
    /// [`ErrorCode::Overloaded`]). Typed application errors (stale
    /// handles, malformed requests, failed jobs…) are not transient.
    pub fn is_transient(error: &ClientError) -> bool {
        match error {
            ClientError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::WriteZero
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::NotFound
            ),
            ClientError::Server { kind, .. } => {
                matches!(kind, Some(ErrorCode::Busy) | Some(ErrorCode::Overloaded))
            }
            ClientError::Protocol(_) => false,
        }
    }
}

/// A served result: the typed output payload plus the execution
/// metadata the OUTPUT frame carries.
#[derive(Clone, Debug)]
pub struct ServedOutput<T> {
    /// The output values (ranks as `Vec<u64>`, scans as the operator's
    /// element type).
    pub output: Vec<T>,
    /// Dispatch/timing metadata of the job that produced them.
    pub meta: OutputMeta,
}

/// A connected, handshaken `rankd serve` client.
pub struct Client {
    stream: Stream,
    /// The dialed endpoint, kept for retry-driven reconnects.
    endpoint: Endpoint,
    retry: RetryPolicy,
    server_version: u16,
    server_max_frame: u32,
}

impl Client {
    fn connect_endpoint(endpoint: Endpoint) -> Result<Client, ClientError> {
        let stream = endpoint.open()?;
        let mut client = Client {
            stream,
            endpoint,
            retry: RetryPolicy::none(),
            server_version: 0,
            server_max_frame: MAX_FRAME_DEFAULT,
        };
        client.handshake()?;
        Ok(client)
    }

    /// Connect to the daemon's socket and perform the HELLO handshake.
    pub fn connect(path: impl AsRef<Path>) -> Result<Client, ClientError> {
        Client::connect_endpoint(Endpoint::Unix(path.as_ref().to_path_buf()))
    }

    /// Connect to the daemon's TCP listener (`rankd serve --tcp
    /// HOST:PORT`) and perform the HELLO handshake. Identical protocol
    /// to [`Client::connect`]; `TCP_NODELAY` is set so pipelined
    /// frames go out immediately.
    pub fn connect_tcp(addr: impl Into<String>) -> Result<Client, ClientError> {
        Client::connect_endpoint(Endpoint::Tcp(addr.into()))
    }

    fn connect_endpoint_with_retry(
        endpoint: Endpoint,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        let mut attempt = 0u32;
        loop {
            match Client::connect_endpoint(endpoint.clone()) {
                Ok(client) => return Ok(client.with_retry(policy)),
                Err(e) if attempt < policy.max_retries && RetryPolicy::is_transient(&e) => {
                    std::thread::sleep(policy.backoff_delay(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Connect under `policy`: a refused/missing socket (daemon still
    /// binding, or briefly restarting) is retried on the policy's
    /// backoff schedule before giving up. The policy stays installed
    /// on the returned client, as if by [`Client::with_retry`].
    pub fn connect_with_retry(
        path: impl AsRef<Path>,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        Client::connect_endpoint_with_retry(Endpoint::Unix(path.as_ref().to_path_buf()), policy)
    }

    /// [`Client::connect_tcp`] under `policy` (see
    /// [`Client::connect_with_retry`]).
    pub fn connect_tcp_with_retry(
        addr: impl Into<String>,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        Client::connect_endpoint_with_retry(Endpoint::Tcp(addr.into()), policy)
    }

    /// Install a retry policy on this client (see [`RetryPolicy`] for
    /// what gets retried).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Perform the HELLO handshake on the current stream.
    fn handshake(&mut self) -> Result<(), ClientError> {
        let reply = self.call_once(FrameKind::Hello, &protocol::hello_body())?;
        match FrameKind::from_u8(reply.kind) {
            Some(FrameKind::HelloOk) => {
                let (version, max_frame) = protocol::decode_hello_ok(&reply.body)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                self.server_version = version;
                self.server_max_frame = max_frame;
                Ok(())
            }
            other => Err(ClientError::Protocol(format!("expected HELLO_OK, got {other:?}"))),
        }
    }

    /// Replace the dead stream with a fresh connection + handshake.
    /// Server-side per-connection state (resident dataset handles!)
    /// died with the old connection; callers holding handles must
    /// re-PUT after a reconnect, which surfaces to them as
    /// [`ErrorCode::StaleHandle`] on the next handle op.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = self.endpoint.open()?;
        self.handshake()
    }

    /// The protocol version the server reported in HELLO_OK.
    pub fn server_version(&self) -> u16 {
        self.server_version
    }

    /// The frame-size cap the server reported in HELLO_OK.
    pub fn server_max_frame(&self) -> u32 {
        self.server_max_frame
    }

    /// The frame-size cap applied when reading replies. The server's
    /// advertised cap bounds *requests*; a reply can legitimately be
    /// larger (a RANK request carries `u32` links but its OUTPUT reply
    /// carries `u64` ranks — twice the payload), so allow 2× plus
    /// header slack.
    fn reply_cap(&self) -> u32 {
        self.server_max_frame.saturating_mul(2).saturating_add(64)
    }

    /// One round trip under the retry policy: transient failures
    /// reconnect (for transport errors) and resend, with backoff.
    /// MUTATE is never retried — its first attempt may have applied
    /// before the reply was lost, and resending would double-apply.
    fn round_trip(&mut self, kind: FrameKind, body: &[u8]) -> Result<Frame, ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match self.call_once(kind, body) {
                Ok(frame) => return Ok(frame),
                Err(e) => e,
            };
            if kind == FrameKind::Mutate
                || attempt >= self.retry.max_retries
                || !RetryPolicy::is_transient(&err)
            {
                return Err(err);
            }
            std::thread::sleep(self.retry.backoff_delay(attempt));
            attempt += 1;
            if matches!(err, ClientError::Io(_)) {
                // A failed reconnect just burns this attempt; the next
                // call_once on the stale stream fails fast and loops.
                let _ = self.reconnect();
            }
        }
    }

    /// Read one reply frame off the stream (no error-frame
    /// conversion; EOF and oversized replies surface as errors).
    fn read_reply_frame(&mut self) -> Result<Frame, ClientError> {
        let reply_cap = self.reply_cap();
        match read_frame(&mut self.stream, reply_cap) {
            Ok(Some(f)) => Ok(f),
            Ok(None) => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Err(ReadFrameError::Io(e)) => Err(ClientError::Io(e)),
            Err(e @ ReadFrameError::TooLarge { .. }) => Err(ClientError::Protocol(e.to_string())),
        }
    }

    /// One round trip: write a frame, read the reply, surface error
    /// frames as [`ClientError::Server`].
    fn call_once(&mut self, kind: FrameKind, body: &[u8]) -> Result<Frame, ClientError> {
        write_frame(&mut self.stream, kind as u8, body)?;
        let frame = self.read_reply_frame()?;
        if FrameKind::from_u8(frame.kind) == Some(FrameKind::Error) {
            let (code, kind, message) = protocol::decode_error(&frame.body)
                .map_err(|e| ClientError::Protocol(e.to_string()))?;
            return Err(ClientError::Server { code, kind, message });
        }
        Ok(frame)
    }

    /// Write one pre-encoded request frame **without** waiting for its
    /// reply — the pipelined send half under [`Client::send`]. The
    /// body should carry a nonzero `request_id` so the
    /// completion-ordered reply can be matched back; collect replies
    /// with [`Client::recv_pipelined`]. Never retried: a reconnect
    /// would orphan the rest of the pipeline.
    pub fn send_encoded(&mut self, kind: FrameKind, body: &[u8]) -> Result<(), ClientError> {
        write_frame(&mut self.stream, kind as u8, body)?;
        Ok(())
    }

    /// Read one pipelined reply: `(request_id, per-request result)`.
    /// Replies arrive in the server's *completion* order, so the id is
    /// how the caller matches a reply to its request. A per-request
    /// failure (deadline, quota, stale handle…) arrives as `Ok((id,
    /// Err(..)))` — the connection is still usable and other
    /// in-flight requests are unaffected. A connection-level error
    /// frame (malformed pipeline bytes, duplicate id the server could
    /// not attribute) or transport failure is the outer `Err`.
    pub fn recv_pipelined<T: WireElem>(
        &mut self,
    ) -> Result<(u64, Result<ServedOutput<T>, ClientError>), ClientError> {
        let frame = self.read_reply_frame()?;
        match FrameKind::from_u8(frame.kind) {
            Some(FrameKind::OutputP) => {
                let (id, inner) = protocol::decode_pipelined(&frame.body)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                let (meta, output) = protocol::decode_output::<T>(inner)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                Ok((id, Ok(ServedOutput { output, meta })))
            }
            Some(FrameKind::ErrorP) => {
                let (id, inner) = protocol::decode_pipelined(&frame.body)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                let (code, kind, message) = protocol::decode_error(inner)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                Ok((id, Err(ClientError::Server { code, kind, message })))
            }
            Some(FrameKind::Error) => {
                let (code, kind, message) = protocol::decode_error(&frame.body)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                Err(ClientError::Server { code, kind, message })
            }
            other => Err(ClientError::Protocol(format!(
                "expected pipelined OUTPUT/ERROR, got {other:?}"
            ))),
        }
    }

    /// Run one job on the server — any source, operator and flags
    /// [`Call`] spells — and decode its OUTPUT into the call's element
    /// type: `u64` ranks byte-identical to a local
    /// [`listrank::HostRunner`] rank, or the scanned values.
    pub fn call<T: WireElem>(
        &mut self,
        call: &Call<'_, T>,
    ) -> Result<ServedOutput<T>, ClientError> {
        let (kind, body) = call.encode();
        self.request_encoded(kind, &body)
    }

    /// Pipelined [`Client::call`]: write the request without waiting
    /// for its reply, and collect the reply with
    /// [`Client::recv_pipelined`].
    ///
    /// # Panics
    /// Panics if the call carries no request id ([`Call::id`]): without
    /// one the reply could not be matched back to it.
    pub fn send<T: WireElem>(&mut self, call: &Call<'_, T>) -> Result<(), ClientError> {
        assert!(call.flags.request_id.is_some(), "a pipelined send needs Call::id");
        let (kind, body) = call.encode();
        self.send_encoded(kind, &body)
    }

    /// Send a pre-encoded request body for `kind` and decode the
    /// OUTPUT reply. Benchmark drivers use this to keep the encode
    /// cost out of their latency measurement.
    pub fn request_encoded<T: WireElem>(
        &mut self,
        kind: FrameKind,
        body: &[u8],
    ) -> Result<ServedOutput<T>, ClientError> {
        let reply = self.round_trip(kind, body)?;
        match FrameKind::from_u8(reply.kind) {
            Some(FrameKind::Output) => {
                let (meta, output) = protocol::decode_output::<T>(&reply.body)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                Ok(ServedOutput { output, meta })
            }
            other => Err(ClientError::Protocol(format!("expected OUTPUT, got {other:?}"))),
        }
    }

    /// Upload `list` into the server's resident dataset store. The
    /// returned receipt carries the handle for subsequent by-handle
    /// [`Call`]s and the bytes charged against the store budget.
    /// Handles are scoped to this connection and die with it.
    pub fn put(&mut self, list: &LinkedList) -> Result<PutReceipt, ClientError> {
        let reply = self.round_trip(FrameKind::Put, &protocol::put_body(list))?;
        match FrameKind::from_u8(reply.kind) {
            Some(FrameKind::PutOk) => {
                let (handle, bytes) = protocol::decode_put_ok(&reply.body)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                Ok(PutReceipt { handle, bytes })
            }
            other => Err(ClientError::Protocol(format!("expected PUT_OK, got {other:?}"))),
        }
    }

    /// Apply a batch of edits to the resident dataset `handle`. The
    /// batch is atomic: either every edit applies (and the dataset's
    /// cached sharded artifact is brought up to date, incrementally or by
    /// rebuild per the server's planner) or the whole batch is refused
    /// — [`ErrorCode::BadMutation`] for a structurally invalid batch,
    /// [`ErrorCode::StaleHandle`] for a handle this connection does
    /// not own. The connection survives either refusal.
    pub fn mutate(&mut self, handle: u64, edits: &[Edit]) -> Result<WireMutateOk, ClientError> {
        self.mutate_encoded(&protocol::mutate_body(handle, edits))
    }

    /// Send a pre-encoded MUTATE body (see
    /// [`protocol::mutate_body`]) and decode the MUTATE_OK reply.
    /// Benchmark drivers use this to keep encode cost out of their
    /// latency measurement, like [`Client::request_encoded`] for
    /// queries.
    pub fn mutate_encoded(&mut self, body: &[u8]) -> Result<WireMutateOk, ClientError> {
        let reply = self.round_trip(FrameKind::Mutate, body)?;
        match FrameKind::from_u8(reply.kind) {
            Some(FrameKind::MutateOk) => protocol::decode_mutate_ok(&reply.body)
                .map_err(|e| ClientError::Protocol(e.to_string())),
            other => Err(ClientError::Protocol(format!("expected MUTATE_OK, got {other:?}"))),
        }
    }

    /// Drop the resident dataset `handle`, releasing its store bytes.
    /// A handle the server does not recognise (already dropped, or
    /// owned by another connection) fails with
    /// [`ErrorCode::StaleHandle`]; the connection survives.
    pub fn drop_handle(&mut self, handle: u64) -> Result<(), ClientError> {
        let reply = self.round_trip(FrameKind::Drop, &protocol::drop_body(handle))?;
        match FrameKind::from_u8(reply.kind) {
            Some(FrameKind::DropOk) => Ok(()),
            other => Err(ClientError::Protocol(format!("expected DROP_OK, got {other:?}"))),
        }
    }

    /// Fetch the daemon's metrics: engine totals, the serving layer's
    /// connection/frame/byte counters, and the rendered stats report.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        let reply = self.round_trip(FrameKind::Stats, &[])?;
        match FrameKind::from_u8(reply.kind) {
            Some(FrameKind::StatsOk) => protocol::decode_stats(&reply.body)
                .map_err(|e| ClientError::Protocol(e.to_string())),
            other => Err(ClientError::Protocol(format!("expected STATS_OK, got {other:?}"))),
        }
    }

    /// Fetch the daemon's histogram-level metrics: per-phase and
    /// per-op latency histograms, the planner's mispredict histogram
    /// and dispatch matrix, and the gauge block — everything the
    /// `rankd stats` dashboard renders.
    pub fn stats_v2(&mut self) -> Result<WireStatsV2, ClientError> {
        let reply = self.round_trip(FrameKind::StatsV2, &[])?;
        match FrameKind::from_u8(reply.kind) {
            Some(FrameKind::StatsV2Ok) => protocol::decode_stats_v2(&reply.body)
                .map_err(|e| ClientError::Protocol(e.to_string())),
            other => Err(ClientError::Protocol(format!("expected STATS_V2_OK, got {other:?}"))),
        }
    }

    /// Ask the daemon to drain in-flight work and exit. Consumes the
    /// client — the server closes this connection once it
    /// acknowledges.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        let reply = self.round_trip(FrameKind::Shutdown, &[])?;
        match FrameKind::from_u8(reply.kind) {
            Some(FrameKind::ShutdownOk) => Ok(()),
            other => Err(ClientError::Protocol(format!("expected SHUTDOWN_OK, got {other:?}"))),
        }
    }
}
