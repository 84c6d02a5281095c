//! In-process client for a `rankd serve` daemon.
//!
//! [`Client`] speaks the [`crate::protocol`] over a Unix domain
//! socket: connect (which performs the HELLO handshake), then
//! [`Client::call`] a [`Call`] — one typed description of any of the
//! six job frames (rank, scan or segmented scan; inline list or
//! resident handle; sharded, deadline, batch-class) — which writes one
//! frame, blocks for the reply, and reads it into a [`ServedOutput`]:
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
//! and the benchmark harness exercise the real wire format, not a
//! shortcut.
//!
//! ## Replies
//!
//! An OUTPUT payload is `n` little-endian words, which is the memory of
//! a `Vec<T>` on a little-endian target. [`read_reply`] reads the
//! frame's header and metadata, then the payload with one `read_exact`
//! straight into the destination `Vec`: a list-sized read bypasses the
//! client's 64 KiB read buffer, so the kernel's copy out of the socket
//! is the only copy, and a small pipelined reply is copied once out of
//! that buffer. [`Client::call`] reads into a fresh buffer whose pages
//! come zeroed from the kernel (`listkit::pages::zeroed_vec`), and
//! [`Client::call_into`] into the caller's buffer, which a caller that
//! keeps one pays no allocation or page fault for.
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
//! [`Client::recv_pipelined`]. Sends are queued and a window leaves in
//! one write, and replies are read through one 64 KiB buffer, so a
//! pipelined request costs a fraction of a syscall at each end (see
//! [`Client::send`] for when the queue is written). Pipelined sends
//! are never retried by
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
    self, read_body, write_frame, ErrorCode, FrameKind, OutputMeta, ReadFrameError, WireElem,
    WireError, WireMutateOk, WireStats, WireStatsV2, MAX_FRAME_DEFAULT, OUTPUT_META_BYTES,
};
pub use crate::protocol::{Call, Source};
use crate::store::PutReceipt;
use listkit::dynamic::Edit;
use listkit::{pages, LinkedList};
use std::io::{BufReader, IoSlice, Read, Write};
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

    /// Forwarded so a frame's header and body leave in one `writev`:
    /// the trait's default would write only the first slice.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
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

/// Capacity of a client's reply read buffer, and the most request
/// bytes [`Client::send`] queues before writing them.
const IO_BUF: usize = 64 * 1024;

/// A connected, handshaken `rankd serve` client.
pub struct Client {
    /// The connection, read through an [`IO_BUF`] buffer so that replies
    /// arriving together cost one `read`. An OUTPUT payload larger than
    /// the buffer bypasses it and is read straight into its destination.
    stream: BufReader<Stream>,
    /// Pipelined request frames [`Client::send`] queued and not yet
    /// written, at most [`IO_BUF`] bytes of them.
    sends: Vec<u8>,
    /// The dialed endpoint, kept for retry-driven reconnects.
    endpoint: Endpoint,
    retry: RetryPolicy,
    server_version: u16,
    server_max_frame: u32,
    /// The last reply's body, or for an OUTPUT / OUTPUT_P its echoed id
    /// and metadata only (see [`read_reply`]). Its capacity is kept
    /// across replies.
    reply: Vec<u8>,
}

/// A reply body that failed to decode is the server breaking the
/// protocol.
fn protocol_error(e: WireError) -> ClientError {
    ClientError::Protocol(e.to_string())
}

impl Client {
    fn connect_endpoint(endpoint: Endpoint) -> Result<Client, ClientError> {
        let mut client = Client {
            stream: BufReader::with_capacity(IO_BUF, endpoint.open()?),
            sends: Vec::new(),
            endpoint,
            retry: RetryPolicy::none(),
            server_version: 0,
            server_max_frame: MAX_FRAME_DEFAULT,
            reply: Vec::new(),
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
        let reply = self.call_once(FrameKind::Hello, &protocol::hello_body(), &mut no_payload())?;
        match reply.kind() {
            Some(FrameKind::HelloOk) => {
                let (version, max_frame) =
                    protocol::decode_hello_ok(&self.reply).map_err(protocol_error)?;
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
        // Queued sends were meant for the dead connection.
        self.sends.clear();
        self.stream = BufReader::with_capacity(IO_BUF, self.endpoint.open()?);
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
    /// An OUTPUT payload is read into `out`, any other body into
    /// `self.reply`.
    fn round_trip<T: WireElem>(
        &mut self,
        kind: FrameKind,
        body: &[u8],
        out: &mut Vec<T>,
    ) -> Result<Reply, ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match self.call_once(kind, body, out) {
                Ok(reply) => return Ok(reply),
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

    /// Write every queued pipelined frame in one write. The queue is
    /// emptied either way: after a failed write the connection is dead.
    fn flush_sends(&mut self) -> Result<(), ClientError> {
        if self.sends.is_empty() {
            return Ok(());
        }
        let wrote = self.stream.get_mut().write_all(&self.sends);
        self.sends.clear();
        Ok(wrote?)
    }

    /// A [`Client::round_trip`] whose reply carries no payload: the
    /// reply's kind, with its body in `self.reply`.
    fn exchange(&mut self, kind: FrameKind, body: &[u8]) -> Result<Option<FrameKind>, ClientError> {
        Ok(self.round_trip(kind, body, &mut no_payload())?.kind())
    }

    /// Read one reply frame off the stream with [`read_reply`] (no
    /// error-frame conversion). Queued sends go out first unless the
    /// read buffer already holds a whole frame: a read that would block
    /// must not wait on requests the server has not been sent.
    fn next_reply<T: WireElem>(&mut self, out: &mut Vec<T>) -> Result<Reply, ClientError> {
        if !whole_frame(self.stream.buffer()) {
            self.flush_sends()?;
        }
        let reply_cap = self.reply_cap();
        read_reply(&mut self.stream, reply_cap, &mut self.reply, out)
    }

    /// One round trip: write a frame, read the reply, surface error
    /// frames as [`ClientError::Server`].
    fn call_once<T: WireElem>(
        &mut self,
        kind: FrameKind,
        body: &[u8],
        out: &mut Vec<T>,
    ) -> Result<Reply, ClientError> {
        self.flush_sends()?;
        write_frame(self.stream.get_mut(), kind as u8, body)?;
        match self.next_reply(out)? {
            Reply::Other(k) if k == FrameKind::Error as u8 => Err(server_error(&self.reply)?),
            reply => Ok(reply),
        }
    }

    /// Queue one pre-encoded request frame **without** waiting for its
    /// reply — the pipelined send half under [`Client::send`], and
    /// queued the same way. The body should carry a nonzero
    /// `request_id` so the completion-ordered reply can be matched
    /// back; collect replies with [`Client::recv_pipelined`]. Never
    /// retried: a reconnect would orphan the rest of the pipeline.
    pub fn send_encoded(&mut self, kind: FrameKind, body: &[u8]) -> Result<(), ClientError> {
        let frame = protocol::FRAME_HEADER_MAX + body.len();
        if self.sends.len() + frame > IO_BUF {
            self.flush_sends()?;
        }
        if frame > IO_BUF {
            write_frame(self.stream.get_mut(), kind as u8, body)?;
        } else {
            write_frame(&mut self.sends, kind as u8, body)?;
        }
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
        let mut output = Vec::new();
        let reply = self.next_reply(&mut output)?;
        if let Reply::OutputP(id, meta) = reply {
            return Ok((id, Ok(ServedOutput { output, meta })));
        }
        match reply.kind() {
            Some(FrameKind::ErrorP) => {
                let (id, inner) =
                    protocol::decode_pipelined(&self.reply).map_err(protocol_error)?;
                Ok((id, Err(server_error(inner)?)))
            }
            Some(FrameKind::Error) => Err(server_error(&self.reply)?),
            other => Err(ClientError::Protocol(format!(
                "expected pipelined OUTPUT/ERROR, got {other:?}"
            ))),
        }
    }

    /// Run one job on the server — any source, operator and flags
    /// [`Call`] spells — and read its OUTPUT into the call's element
    /// type: `u64` ranks byte-identical to a local
    /// [`listrank::HostRunner`] rank, or the scanned values.
    pub fn call<T: WireElem>(
        &mut self,
        call: &Call<'_, T>,
    ) -> Result<ServedOutput<T>, ClientError> {
        let (kind, body) = call.encode();
        self.request_encoded(kind, &body)
    }

    /// [`Client::call`] into a buffer the caller keeps: `output` is
    /// resized to the reply's element count and its memory overwritten
    /// by the payload as it comes off the socket. A buffer whose
    /// capacity already suffices is reused as it is, so a caller that
    /// repeats a call allocates nothing and touches no fresh page; a
    /// smaller one is replaced, not grown, since its old contents would
    /// only be overwritten. On an error `output`'s contents are
    /// unspecified.
    pub fn call_into<T: WireElem>(
        &mut self,
        call: &Call<'_, T>,
        output: &mut Vec<T>,
    ) -> Result<OutputMeta, ClientError> {
        let (kind, body) = call.encode();
        self.request_into(kind, &body, output)
    }

    /// Pipelined [`Client::call`]: send the request without waiting
    /// for its reply, and collect the reply with
    /// [`Client::recv_pipelined`].
    ///
    /// Sends are queued, so that a window of small requests leaves in
    /// one write: the queue goes out once it would pass 64 KiB, when a
    /// receive would otherwise wait on the socket, before any round
    /// trip ([`Client::call`], [`Client::put`], …) and when the client
    /// is dropped. A frame larger than that is written at once. Because
    /// of the queue, a dead peer usually surfaces at the receive, not
    /// at the send.
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
        let mut output = Vec::new();
        let meta = self.request_into(kind, body, &mut output)?;
        Ok(ServedOutput { output, meta })
    }

    /// Send a pre-encoded request and read its OUTPUT into `output`.
    fn request_into<T: WireElem>(
        &mut self,
        kind: FrameKind,
        body: &[u8],
        output: &mut Vec<T>,
    ) -> Result<OutputMeta, ClientError> {
        match self.round_trip(kind, body, output)? {
            Reply::Output(meta) => Ok(meta),
            other => Err(ClientError::Protocol(format!("expected OUTPUT, got {:?}", other.kind()))),
        }
    }

    /// Upload `list` into the server's resident dataset store. The
    /// returned receipt carries the handle for subsequent by-handle
    /// [`Call`]s and the bytes charged against the store budget.
    /// Handles are scoped to this connection and die with it.
    pub fn put(&mut self, list: &LinkedList) -> Result<PutReceipt, ClientError> {
        match self.exchange(FrameKind::Put, &protocol::put_body(list))? {
            Some(FrameKind::PutOk) => {
                let (handle, bytes) =
                    protocol::decode_put_ok(&self.reply).map_err(protocol_error)?;
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
        match self.exchange(FrameKind::Mutate, body)? {
            Some(FrameKind::MutateOk) => {
                protocol::decode_mutate_ok(&self.reply).map_err(protocol_error)
            }
            other => Err(ClientError::Protocol(format!("expected MUTATE_OK, got {other:?}"))),
        }
    }

    /// Drop the resident dataset `handle`, releasing its store bytes.
    /// A handle the server does not recognise (already dropped, or
    /// owned by another connection) fails with
    /// [`ErrorCode::StaleHandle`]; the connection survives.
    pub fn drop_handle(&mut self, handle: u64) -> Result<(), ClientError> {
        match self.exchange(FrameKind::Drop, &protocol::drop_body(handle))? {
            Some(FrameKind::DropOk) => Ok(()),
            other => Err(ClientError::Protocol(format!("expected DROP_OK, got {other:?}"))),
        }
    }

    /// Fetch the daemon's metrics: engine totals, the serving layer's
    /// connection/frame/byte counters, and the rendered stats report.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.exchange(FrameKind::Stats, &[])? {
            Some(FrameKind::StatsOk) => protocol::decode_stats(&self.reply).map_err(protocol_error),
            other => Err(ClientError::Protocol(format!("expected STATS_OK, got {other:?}"))),
        }
    }

    /// Fetch the daemon's histogram-level metrics: per-phase and
    /// per-op latency histograms, the planner's mispredict histogram
    /// and dispatch matrix, and the gauge block — everything the
    /// `rankd stats` dashboard renders.
    pub fn stats_v2(&mut self) -> Result<WireStatsV2, ClientError> {
        match self.exchange(FrameKind::StatsV2, &[])? {
            Some(FrameKind::StatsV2Ok) => {
                protocol::decode_stats_v2(&self.reply).map_err(protocol_error)
            }
            other => Err(ClientError::Protocol(format!("expected STATS_V2_OK, got {other:?}"))),
        }
    }

    /// Ask the daemon to drain in-flight work and exit. Consumes the
    /// client — the server closes this connection once it
    /// acknowledges.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        match self.exchange(FrameKind::Shutdown, &[])? {
            Some(FrameKind::ShutdownOk) => Ok(()),
            other => Err(ClientError::Protocol(format!("expected SHUTDOWN_OK, got {other:?}"))),
        }
    }
}

impl Drop for Client {
    /// Queued sends still reach the server: a client dropped with
    /// requests in flight leaves them to be served and counted, as an
    /// unbuffered one would.
    fn drop(&mut self) {
        let _ = self.flush_sends();
    }
}

/// Whether `buf` starts with a whole frame (length prefix included).
fn whole_frame(buf: &[u8]) -> bool {
    match buf.get(..4) {
        Some(len) => buf.len() - 4 >= u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize,
        None => false,
    }
}

/// The destination of a reply that carries no payload. An OUTPUT that
/// arrives in its place is read into it and then refused by kind.
fn no_payload() -> Vec<u64> {
    Vec::new()
}

/// One reply frame as [`read_reply`] left it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// An OUTPUT frame; its payload is in the destination `Vec`.
    Output(OutputMeta),
    /// An OUTPUT_P frame with its echoed request id; its payload is in
    /// the destination `Vec`.
    OutputP(u64, OutputMeta),
    /// Any other frame, by its kind byte; its body is in the body
    /// buffer.
    Other(u8),
}

impl Reply {
    /// The frame's kind, when this client knows it.
    pub fn kind(&self) -> Option<FrameKind> {
        match self {
            Reply::Output(_) => Some(FrameKind::Output),
            Reply::OutputP(..) => Some(FrameKind::OutputP),
            Reply::Other(kind) => FrameKind::from_u8(*kind),
        }
    }
}

/// Read one reply frame of at most `max_frame` bytes from `r`.
///
/// An OUTPUT or OUTPUT_P frame's echoed id and metadata are read into
/// `body`, and its `n·T::BYTES` payload with one `read_exact` straight
/// into `out`'s memory, which is resized to `n` words first (a buffer
/// too small is replaced by a zeroed one, see
/// [`listkit::pages::resize_zeroed`]). Through a `BufReader` a payload
/// at least as large as its buffer bypasses the buffer, so the only
/// copy is the kernel's. Any other frame's whole body is read into
/// `body`.
///
/// A clean close before the frame and EOF inside it are both
/// [`ClientError::Io`] with [`std::io::ErrorKind::UnexpectedEof`]; a
/// frame over `max_frame`, an unknown algorithm code, or an OUTPUT
/// whose length disagrees with `33 + n·T::BYTES` is a
/// [`ClientError::Protocol`]. After a bad OUTPUT the rest of its frame
/// is read and dropped, so the stream stays in step.
pub fn read_reply<T: WireElem>(
    r: &mut impl Read,
    max_frame: u32,
    body: &mut Vec<u8>,
    out: &mut Vec<T>,
) -> Result<Reply, ClientError> {
    let (kind, len) = match protocol::read_frame_head(r, max_frame) {
        Ok(Some(head)) => head,
        Ok(None) => {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )))
        }
        Err(ReadFrameError::Io(e)) => return Err(ClientError::Io(e)),
        Err(e @ ReadFrameError::TooLarge { .. }) => {
            return Err(ClientError::Protocol(e.to_string()))
        }
    };
    let id_len = match FrameKind::from_u8(kind) {
        Some(FrameKind::Output) => 0,
        Some(FrameKind::OutputP) => 8,
        _ => {
            read_body(r, len, body)?;
            return Ok(Reply::Other(kind));
        }
    };
    let head = id_len + OUTPUT_META_BYTES;
    read_body(r, len.min(head), body)?;
    let payload = len.saturating_sub(head);
    let checked = match body.get(id_len..) {
        Some(meta) => protocol::decode_output_meta(meta).and_then(|(meta, n)| {
            protocol::check_output_payload::<T>(n, payload).map(|()| (meta, n))
        }),
        None => Err(WireError::malformed("truncated request_id")),
    };
    let (meta, n) = match checked {
        Ok(checked) => checked,
        Err(e) => {
            std::io::copy(&mut r.take(payload as u64), &mut std::io::sink())?;
            return Err(protocol_error(e));
        }
    };
    debug_assert_eq!(T::BYTES, std::mem::size_of::<T>(), "a wire word is its memory");
    pages::resize_zeroed(out, n);
    r.read_exact(pages::bytes_mut(out))?;
    pages::from_le_in_place(out);
    Ok(match id_len {
        0 => Reply::Output(meta),
        _ => Reply::OutputP(u64::from_le_bytes(body[..8].try_into().expect("8-byte id")), meta),
    })
}

/// Decode an ERROR body into the [`ClientError::Server`] it reports;
/// the outer `Err` is an undecodable body.
fn server_error(body: &[u8]) -> Result<ClientError, ClientError> {
    let (code, kind, message) = protocol::decode_error(body).map_err(protocol_error)?;
    Ok(ClientError::Server { code, kind, message })
}
