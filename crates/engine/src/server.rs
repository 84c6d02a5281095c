//! `rankd serve` — the event-driven multi-tenant socket front-end.
//!
//! One [`Server`] wraps one [`Engine`]: a single-threaded *reactor*
//! owns every connection fd (Unix domain socket, and optionally TCP
//! via [`ServeConfig::with_tcp`]), multiplexes readiness with
//! `poll(2)` ([`crate::poll`]), and decodes [`crate::protocol`] frames
//! out of per-connection read buffers. Job-bearing frames are
//! submitted through the engine's *non-blocking* callback path; the
//! worker that settles a job pushes the encoded reply into a
//! completion hub and wakes the reactor over a self-pipe. No thread
//! is parked per in-flight request, which is what makes pipelining
//! scale:
//!
//! * **Pipelining (v6).** A request carrying
//!   [`protocol::FLAG_REQUEST_ID`] does not serialize the connection:
//!   many ids may be in flight at once, and replies come back as
//!   [`FrameKind::OutputP`] / [`FrameKind::ErrorP`] frames echoing the
//!   id, in *completion* order. Frames without an id (PUT, MUTATE,
//!   DROP, STATS and id-less jobs alike) keep the classic serial
//!   contract, enforced by the wait rule below.
//! * **One wait rule.** A frame that cannot be served yet stays
//!   undecoded in the connection's read buffer; the rule reads only
//!   its header ([`protocol::job_header`]). An id-less frame waits
//!   while anything is in flight on its connection, and any frame
//!   waits behind an id-less job in flight. A job frame waits while
//!   the engine queue is full — unless the shed watermark is armed at
//!   or below the current depth, when it goes through to be refused
//!   with [`ErrorCode::Overloaded`]. A waiting connection is not read,
//!   so its socket backpressures, and the rule is re-run after every
//!   completion and every tick; a frame still waiting past the drain
//!   grace is abandoned like a partial one.
//! * **QoS (v6).** [`protocol::FLAG_BATCH`] routes a job to the batch
//!   class of the two-class scheduler ([`crate::sched`]): interactive
//!   work dispatches first, deadline-carrying jobs order first within
//!   a class, and a periodic aging valve bounds batch starvation.
//!   Per-tenant quotas — in-flight jobs
//!   ([`ServeConfig::with_inflight_quota`]) and resident store bytes
//!   ([`ServeConfig::with_store_quota`]) — are enforced at admission,
//!   keyed by connection identity, and answered with typed
//!   [`ErrorCode::QuotaExceeded`] refusals.
//! * **Backpressure without deadlock.** A connection past its write
//!   high-watermark (a pipelining client that stops reading replies)
//!   simply stops being *read*; completions still flush
//!   opportunistically, so the reactor never blocks on a slow client,
//!   and a client that never drains is reclaimed by the write-stall
//!   limit.
//!
//! Error handling is deliberately forgiving: a malformed frame body
//! gets a typed [`FrameKind::Error`] reply and the connection keeps
//! serving. Only three conditions close a connection from the server
//! side — a failed handshake, a length prefix above the frame cap
//! (framing can no longer be trusted), and shutdown draining.
//!
//! Shutdown (a client's SHUTDOWN frame, or the `--serve-secs`
//! deadline) is graceful: the listeners stop accepting, every
//! in-flight request still completes and its reply is flushed, and
//! idle connections linger up to [`ServeConfig::drain_grace`] before
//! the reactor closes them and removes the socket file.

use crate::dynamic::MutateError;
use crate::engine::Engine;
use crate::fault::FaultPlane;
use crate::job::{JobError, JobOptions, JobReport, Request};
use crate::poll::{poll, PollFd, POLLIN, POLLOUT};
use crate::protocol::{
    self, error_body, ErrorCode, FaultGauges, Frame, FrameKind, Job, JobFrame, MutGauges,
    SchedGauges, Source, StatsGauges, StoreGauges, WireElem, WireMutateOk, WireOp, WireRequest,
    WireStats, WireStatsV2, WireValues, MAX_FRAME_DEFAULT,
};
use crate::queue::SubmitError;
use crate::rankd_log;
use crate::sched::{Priority, QuotaTable};
use crate::store::{DatasetRef, DatasetStore, StoreError, DEFAULT_STORE_BUDGET};
use crate::telemetry::log::Level;
use crate::telemetry::{self, AtomicHistogram, Phase};
use listkit::ops::{AddOp, AffineOp, MaxOp, MinOp, XorOp};
use listkit::LinkedList;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serving-layer configuration (`rankd serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Filesystem path of the Unix domain socket (`--socket`). A stale
    /// file at this path is removed on bind.
    pub socket: PathBuf,
    /// Optional TCP listen address (`--tcp HOST:PORT`), served by the
    /// same reactor beside the Unix socket. `None` (the default)
    /// disables TCP.
    pub tcp: Option<String>,
    /// Maximum concurrently served clients (`--max-clients`); excess
    /// connections are answered with [`ErrorCode::Busy`] and closed.
    pub max_clients: usize,
    /// Serve for at most this long (`--serve-secs`); `None` serves
    /// until a client sends SHUTDOWN.
    pub serve_secs: Option<u64>,
    /// Per-frame size cap enforced on reads (also advertised to
    /// clients in HELLO_OK).
    pub max_frame: u32,
    /// After shutdown begins, how long the reactor waits for idle
    /// clients to disconnect before closing on them. In-flight
    /// requests always complete regardless.
    pub drain_grace: Duration,
    /// Byte budget for the resident dataset store (`--store-budget`):
    /// PUT lists plus cached sharded artifacts, under LRU eviction.
    pub store_budget: u64,
    /// The fault-injection plane (`--fault`). Disabled by default;
    /// share the same plane with [`crate::EngineConfig::with_fault`]
    /// so socket and worker injection draw from one decision stream.
    pub fault: Arc<FaultPlane>,
    /// Load-shedding watermark on engine queue depth
    /// (`--shed-queue`): job-bearing requests arriving while the
    /// queue is at or past this depth get a typed
    /// [`ErrorCode::Overloaded`] instead of blocking. `0` disables
    /// shedding (the default — backpressure-by-blocking remains the
    /// baseline admission policy).
    pub shed_queue_depth: usize,
    /// Load-shedding watermark on resident store bytes
    /// (`--shed-store`): PUTs arriving while the store holds at least
    /// this many bytes get a typed [`ErrorCode::Overloaded`] (retry
    /// later) rather than forcing LRU churn. `0` disables (default).
    pub shed_store_bytes: u64,
    /// Per-tenant in-flight job quota (`--inflight-quota`): one
    /// connection may have at most this many job-bearing requests
    /// admitted-but-unfinished before admission answers
    /// [`ErrorCode::QuotaExceeded`]. `0` disables the cap.
    pub inflight_quota: u64,
    /// Per-tenant resident store byte quota (`--store-quota`): a PUT
    /// from a connection already owning at least this many resident
    /// bytes is refused with [`ErrorCode::QuotaExceeded`]. `0`
    /// disables (default) — the global store budget still applies.
    pub store_quota: u64,
}

impl ServeConfig {
    /// Configuration with defaults for everything but the socket path.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            tcp: None,
            max_clients: 64,
            serve_secs: None,
            max_frame: MAX_FRAME_DEFAULT,
            drain_grace: Duration::from_secs(2),
            store_budget: DEFAULT_STORE_BUDGET,
            fault: Arc::new(FaultPlane::disabled()),
            shed_queue_depth: 0,
            shed_store_bytes: 0,
            inflight_quota: 64,
            store_quota: 0,
        }
    }

    /// Also listen on a TCP address (`None` = Unix socket only).
    pub fn with_tcp(mut self, addr: Option<String>) -> Self {
        self.tcp = addr;
        self
    }

    /// Override the client cap.
    pub fn with_max_clients(mut self, max: usize) -> Self {
        self.max_clients = max.max(1);
        self
    }

    /// Bound the serving time (`None` = until SHUTDOWN).
    pub fn with_serve_secs(mut self, secs: Option<u64>) -> Self {
        self.serve_secs = secs;
        self
    }

    /// Override the frame-size cap.
    pub fn with_max_frame(mut self, max: u32) -> Self {
        self.max_frame = max.max(64);
        self
    }

    /// Override the post-shutdown drain grace.
    pub fn with_drain_grace(mut self, grace: Duration) -> Self {
        self.drain_grace = grace;
        self
    }

    /// Override the resident dataset store's byte budget.
    pub fn with_store_budget(mut self, bytes: u64) -> Self {
        self.store_budget = bytes;
        self
    }

    /// Install a fault-injection plane (pass the same `Arc` to
    /// [`crate::EngineConfig::with_fault`]).
    pub fn with_fault(mut self, fault: Arc<FaultPlane>) -> Self {
        self.fault = fault;
        self
    }

    /// Set the queue-depth shedding watermark (`0` = off).
    pub fn with_shed_queue_depth(mut self, depth: usize) -> Self {
        self.shed_queue_depth = depth;
        self
    }

    /// Set the store-pressure shedding watermark in bytes (`0` = off).
    pub fn with_shed_store_bytes(mut self, bytes: u64) -> Self {
        self.shed_store_bytes = bytes;
        self
    }

    /// Set the per-tenant in-flight job quota (`0` = off).
    pub fn with_inflight_quota(mut self, quota: u64) -> Self {
        self.inflight_quota = quota;
        self
    }

    /// Set the per-tenant resident store byte quota (`0` = off).
    pub fn with_store_quota(mut self, bytes: u64) -> Self {
        self.store_quota = bytes;
        self
    }
}

/// Serving-layer counters: the connection/frame/byte dimension of the
/// stats surface, surfaced to clients through the STATS frame next to
/// the engine's own [`crate::EngineStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub connections_total: u64,
    /// Connections currently being served.
    pub connections_active: u64,
    /// Highest concurrent connection count observed.
    pub peak_connections: u64,
    /// Frames decoded off client sockets.
    pub frames_in: u64,
    /// Frames written to client sockets (replies and errors).
    pub frames_out: u64,
    /// Bytes read from client sockets.
    pub bytes_in: u64,
    /// Bytes written to client sockets.
    pub bytes_out: u64,
    /// Error frames sent.
    pub errors_sent: u64,
    /// Connections turned away at [`ServeConfig::max_clients`].
    pub busy_rejected: u64,
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "connections: {} total (peak {} concurrent, {} busy-rejected), {} still open",
            self.connections_total,
            self.peak_connections,
            self.busy_rejected,
            self.connections_active
        )?;
        write!(
            f,
            "frames: {} in / {} out ({} errors)   bytes: {} in / {} out",
            self.frames_in, self.frames_out, self.errors_sent, self.bytes_in, self.bytes_out
        )
    }
}

/// State shared between the reactor, the worker completion callbacks,
/// and [`ServerControl`].
struct Shared {
    shutdown: AtomicBool,
    /// Set when shutdown begins; the reactor closes idle connections
    /// past it (in-flight requests still finish).
    drain_deadline: Mutex<Option<Instant>>,
    drain_grace: Duration,
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    peak_connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    errors_sent: AtomicU64,
    busy_rejected: AtomicU64,
    /// The resident dataset store, shared by every connection.
    store: Arc<DatasetStore>,
    /// The fault-injection plane (disabled = every probe is one
    /// predictable branch).
    fault: Arc<FaultPlane>,
    /// Queue-depth shedding watermark (`0` = off).
    shed_queue_depth: usize,
    /// Store-pressure shedding watermark in bytes (`0` = off).
    shed_store_bytes: u64,
    /// Requests shed at the queue watermark.
    shed_queue: AtomicU64,
    /// PUTs shed at the store watermark.
    shed_store: AtomicU64,
    /// Per-tenant in-flight admission ledger (tenant = connection id).
    quota: QuotaTable,
    /// Per-tenant resident store byte quota (`0` = off).
    store_quota: u64,
    /// PUTs refused at the per-tenant store quota.
    quota_rejected_store: AtomicU64,
    /// Pipelined replies delivered out of arrival order.
    reply_reorders: AtomicU64,
    /// In-flight depth observed at each pipelined admission (its count
    /// is the pipelined-request total, its max the deepest set).
    pipeline_depth: AtomicHistogram,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut d = self.drain_deadline.lock().expect("drain deadline poisoned");
        if d.is_none() {
            *d = Some(Instant::now() + self.drain_grace);
        }
    }

    /// Whether an *idle* connection (no frame in progress) should stop
    /// being waited on.
    fn drain_expired(&self) -> bool {
        if !self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        match *self.drain_deadline.lock().expect("drain deadline poisoned") {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            connections_total: self.connections_total.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            errors_sent: self.errors_sent.load(Ordering::Relaxed),
            busy_rejected: self.busy_rejected.load(Ordering::Relaxed),
        }
    }
}

/// A handle for observing and stopping a running [`Server`] from
/// another thread (tests, signal handlers).
#[derive(Clone)]
pub struct ServerControl {
    shared: Arc<Shared>,
}

impl ServerControl {
    /// Ask the server to stop accepting and drain, as if a client had
    /// sent SHUTDOWN.
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Point-in-time serving-layer counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }
}

/// The `rankd serve` daemon: bind with [`Server::bind`], then
/// [`Server::run`] the reactor to completion.
pub struct Server {
    engine: Arc<Engine>,
    cfg: ServeConfig,
    listener: UnixListener,
    tcp: Option<TcpListener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the socket (removing a *stale* file at the path first) and
    /// prepare to serve requests against `engine`. A socket file with
    /// a live daemon behind it is an [`std::io::ErrorKind::AddrInUse`]
    /// error — binding never silently steals another server's path.
    /// When [`ServeConfig::tcp`] is set, the TCP listener is bound
    /// here too and served by the same reactor.
    pub fn bind(engine: Arc<Engine>, cfg: ServeConfig) -> std::io::Result<Server> {
        // A daemon that died without cleanup leaves the socket file
        // behind; rebinding over *that* is the expected restart flow.
        // Distinguish stale from live with a connect probe: refused =
        // nobody listening = safe to unlink.
        if cfg.socket.exists() {
            match UnixStream::connect(&cfg.socket) {
                Ok(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("{} has a live server behind it", cfg.socket.display()),
                    ))
                }
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                    std::fs::remove_file(&cfg.socket)?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        let tcp = match &cfg.tcp {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            drain_grace: cfg.drain_grace,
            connections_total: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            peak_connections: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            errors_sent: AtomicU64::new(0),
            busy_rejected: AtomicU64::new(0),
            store: Arc::new(DatasetStore::new(cfg.store_budget)),
            fault: Arc::clone(&cfg.fault),
            shed_queue_depth: cfg.shed_queue_depth,
            shed_store_bytes: cfg.shed_store_bytes,
            shed_queue: AtomicU64::new(0),
            shed_store: AtomicU64::new(0),
            quota: QuotaTable::new(cfg.inflight_quota),
            store_quota: cfg.store_quota,
            quota_rejected_store: AtomicU64::new(0),
            reply_reorders: AtomicU64::new(0),
            pipeline_depth: AtomicHistogram::new(),
        });
        Ok(Server { engine, cfg, listener, tcp, shared })
    }

    /// The socket path this server is bound to.
    pub fn socket_path(&self) -> &Path {
        &self.cfg.socket
    }

    /// The TCP address actually bound (useful with a `:0` port), if
    /// TCP serving is enabled.
    pub fn tcp_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// A cloneable control handle (shutdown + stats) usable from other
    /// threads while [`Server::run`] blocks.
    pub fn control(&self) -> ServerControl {
        ServerControl { shared: Arc::clone(&self.shared) }
    }

    /// Run the reactor until SHUTDOWN (or the `serve_secs` deadline),
    /// drain every connection, remove the socket file, and return the
    /// final serving-layer counters.
    pub fn run(self) -> std::io::Result<ServerStats> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let hub = Arc::new(Hub { queue: Mutex::new(Vec::new()), wake_tx });
        let mut reactor = Reactor {
            engine: self.engine,
            cfg: self.cfg,
            shared: self.shared,
            unix: self.listener,
            tcp: self.tcp,
            hub,
            wake_rx,
            conns: HashMap::new(),
        };
        let result = reactor.run_loop();
        let _ = std::fs::remove_file(&reactor.cfg.socket);
        result.map(|()| reactor.shared.stats())
    }
}

/// Reactor poll timeout: the cadence for deadline/drain checks and
/// re-running the wait rule on blocked connections when no fd is ready (completions and socket
/// readiness wake it immediately).
const TICK_MS: i32 = 25;

/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;

/// Per-connection write-buffer high watermark: past it the reactor
/// stops *reading* the connection (natural pipelining backpressure —
/// the client must drain replies before submitting more).
const WBUF_HIGH_WATERMARK: usize = 1 << 20;

/// How long a connection's pending reply bytes may sit with zero write
/// progress before the reactor gives the client up for dead. Bounds
/// the damage of a client that submits work and never reads the
/// reply: its buffers (and the `--max-clients` slot it holds) are
/// reclaimed instead of growing forever.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(30);

/// The tighter zero-progress limit applied once the shutdown drain
/// grace has expired: still long enough that an actively-draining
/// client's reply completes, short enough that a dead one cannot
/// stretch shutdown by much.
const DRAIN_WRITE_STALL_LIMIT: Duration = Duration::from_secs(2);

/// One accepted client socket, Unix or TCP, behind one readiness fd.
enum Transport {
    /// A Unix-domain-socket client.
    Unix(UnixStream),
    /// A TCP client (`--tcp`).
    Tcp(TcpStream),
}

impl Transport {
    fn fd(&self) -> RawFd {
        match self {
            Transport::Unix(s) => s.as_raw_fd(),
            Transport::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Transport::Unix(s) => s.set_nonblocking(nb),
            Transport::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Unix(s) => s.read(buf),
            Transport::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Transport::Unix(s) => s.write(buf),
            Transport::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Transport::Unix(s) => s.flush(),
            Transport::Tcp(s) => s.flush(),
        }
    }
}

/// A settled job's reply, pushed by the worker callback and drained by
/// the reactor. `kind` is OUTPUT or ERROR; [`Conn::enqueue`] wraps it
/// in the pipelined envelope when `request_id` is set.
struct Completion {
    conn: u64,
    request_id: Option<u64>,
    arrival_seq: u64,
    kind: FrameKind,
    body: Vec<u8>,
    trace_id: u64,
}

/// The completion hub: worker callbacks push encoded replies here and
/// wake the reactor over the self-pipe.
struct Hub {
    queue: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
}

impl Hub {
    /// Queue one reply. Only the push that finds the hub empty writes a
    /// wake byte: the reactor drains the pipe before the hub, so every
    /// later push rides the wake already pending.
    fn push(&self, c: Completion) {
        let was_empty = {
            let mut queue = self.queue.lock().expect("completion hub poisoned");
            queue.push(c);
            queue.len() == 1
        };
        if was_empty {
            // A full pipe means a wake-up is already pending — exactly
            // what we need, so the result is ignorable.
            let _ = (&self.wake_tx).write(&[1u8]);
        }
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completion hub poisoned"))
    }
}

/// Everything a worker completion callback needs to route its reply.
struct ReplyCtx {
    conn: u64,
    request_id: Option<u64>,
    arrival_seq: u64,
    trace_id: u64,
    /// Eviction pin for handle-routed jobs: the callback holds it, so
    /// the resident dataset cannot be evicted before the reply is
    /// encoded. Never read — its `Drop` is the point.
    _pin: Option<Arc<DatasetRef>>,
}

/// Encode a settled job as its OUTPUT or ERROR reply.
fn job_reply<T: WireElem>(res: Result<JobReport<Vec<T>>, JobError>) -> (FrameKind, Vec<u8>) {
    match res {
        Ok(report) => {
            let meta = protocol::OutputMeta {
                algorithm: report.algorithm,
                shards: report.shards as u32,
                queued_ns: report.queued_ns,
                exec_ns: report.exec_ns,
                trace_id: report.trace_id,
            };
            (FrameKind::Output, protocol::output_body(&meta, &report.output))
        }
        Err(e) => {
            let (code, msg) = match e {
                // The worker caught the panic; only this request is
                // lost and the connection keeps being served.
                JobError::Failed => (ErrorCode::InternalError, "job execution panicked"),
                // The server never cancels its own jobs; defensive arm.
                JobError::Cancelled => (ErrorCode::JobFailed, "job cancelled"),
                JobError::DeadlineExceeded => {
                    (ErrorCode::DeadlineExceeded, "request deadline exceeded in queue")
                }
            };
            (FrameKind::Error, error_body(code, msg))
        }
    }
}

/// Offer one typed request to the engine's non-blocking path; its
/// completion callback encodes the reply and pushes it to the hub.
fn submit<T: WireElem + Send + Sync + 'static>(
    engine: &Engine,
    req: Request<Vec<T>>,
    opts: JobOptions,
    ctx: ReplyCtx,
    hub: Arc<Hub>,
) -> Result<u64, SubmitError> {
    engine.try_submit_callback(req, opts, move |res| {
        let (kind, body) = job_reply::<T>(res);
        hub.push(Completion {
            conn: ctx.conn,
            request_id: ctx.request_id,
            arrival_seq: ctx.arrival_seq,
            kind,
            body,
            trace_id: ctx.trace_id,
        });
    })
}

/// Where a job's list comes from: decoded inline off the frame, or a
/// pinned resident dataset (whose artifacts warm the sharded arm).
enum ListSource {
    Inline(Arc<LinkedList>),
    Resident(Arc<DatasetRef>),
}

impl ListSource {
    fn list(&self) -> Arc<LinkedList> {
        match self {
            ListSource::Inline(l) => Arc::clone(l),
            ListSource::Resident(e) => e.list(),
        }
    }

    /// Route `req` as the frame asked (sharded or not) and attach a
    /// resident dataset's artifact slot.
    fn finish<R>(&self, req: Request<R>, sharded: bool) -> Request<R> {
        let req = if sharded { req.sharded() } else { req };
        match self {
            ListSource::Inline(_) => req,
            ListSource::Resident(e) => req.with_artifacts(e.artifacts()),
        }
    }
}

/// The one typed submit path for every job frame: maps the decoded
/// [`Job`] onto the engine's typed [`Request`] builders, built once and
/// offered once. Scan and segmented scan share one
/// `(WireOp, WireValues)` table.
fn submit_job(
    engine: &Engine,
    src: ListSource,
    job: Job,
    sharded: bool,
    opts: JobOptions,
    ctx: ReplyCtx,
    hub: Arc<Hub>,
) -> Result<u64, SubmitError> {
    fn scan<T, Op>(
        src: &ListSource,
        values: Vec<T>,
        starts: Option<Vec<bool>>,
        op: Op,
        sharded: bool,
    ) -> Request<Vec<T>>
    where
        T: Copy + Send + Sync + 'static,
        Op: listkit::ScanOp<T> + Clone + Send + Sync + 'static,
    {
        let (list, values) = (src.list(), Arc::new(values));
        let req = match starts {
            Some(s) => Request::segmented_scan(list, values, Arc::new(s), op),
            None => Request::scan(list, values, op),
        };
        src.finish(req, sharded)
    }
    let (op, values, starts) = match job {
        Job::Rank => {
            let req = src.finish(Request::rank(src.list()), sharded);
            return submit(engine, req, opts, ctx, hub);
        }
        Job::Scan { op, values } => (op, values, None),
        Job::SegScan { op, starts, values } => (op, values, Some(starts)),
    };
    let src = &src;
    match (op, values) {
        (WireOp::Add, WireValues::I64(v)) => {
            submit(engine, scan(src, v, starts, AddOp, sharded), opts, ctx, hub)
        }
        (WireOp::Max, WireValues::I64(v)) => {
            submit(engine, scan(src, v, starts, MaxOp, sharded), opts, ctx, hub)
        }
        (WireOp::Min, WireValues::I64(v)) => {
            submit(engine, scan(src, v, starts, MinOp, sharded), opts, ctx, hub)
        }
        (WireOp::Xor, WireValues::U64(v)) => {
            submit(engine, scan(src, v, starts, XorOp, sharded), opts, ctx, hub)
        }
        (WireOp::Affine, WireValues::Affine(v)) => {
            submit(engine, scan(src, v, starts, AffineOp, sharded), opts, ctx, hub)
        }
        // decode_values types the array by the operator, so a
        // mismatch cannot be constructed.
        _ => unreachable!("decoder pairs values with their operator"),
    }
}

/// One connection's state in the reactor: the socket, read buffer
/// (partial and waiting frames), pending-reply write buffer,
/// handshake state, and the in-flight set.
struct Conn {
    id: u64,
    sock: Transport,
    /// Unparsed inbound bytes; `rpos` marks how far parsing consumed.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded-but-unflushed reply bytes; `wpos` marks how far the
    /// socket accepted.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Whether a HELLO has been accepted on this connection.
    greeted: bool,
    /// In-flight jobs: request id → arrival sequence, with `None` for
    /// the connection's one id-less (serial) job. The wait rule keeps
    /// the two kinds from ever being in flight together.
    inflight: HashMap<Option<u64>, u64>,
    /// A complete frame waits undecoded at `rpos` under the wait rule;
    /// the connection is not read until it goes through.
    blocked: bool,
    /// Next arrival sequence number (orders reorder detection).
    next_arrival: u64,
    /// Close once `wbuf` fully drains (goodbye frame already queued).
    close_after_flush: bool,
    /// Peer sent EOF: parse what's buffered, flush what's owed, then
    /// close.
    eof: bool,
    /// Connection is finished; reaped at the end of the tick.
    dead: bool,
    /// Last instant the socket accepted reply bytes (write-stall
    /// detection).
    write_progress: Instant,
}

impl Conn {
    fn new(id: u64, sock: Transport) -> Conn {
        Conn {
            id,
            sock,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            greeted: false,
            inflight: HashMap::new(),
            blocked: false,
            next_arrival: 0,
            close_after_flush: false,
            eof: false,
            dead: false,
            write_progress: Instant::now(),
        }
    }

    fn pending_write(&self) -> bool {
        self.wbuf.len() > self.wpos
    }

    /// Whether the reactor should poll this connection for input.
    fn wants_read(&self, drained: bool) -> bool {
        !self.dead
            && !self.eof
            && !self.close_after_flush
            && !drained
            && !self.blocked
            && (self.wbuf.len() - self.wpos) < WBUF_HIGH_WATERMARK
    }

    /// No job in flight and no reply owed. A waiting or partial frame
    /// does not count: past the drain grace it is abandoned.
    fn idle(&self) -> bool {
        self.inflight.is_empty() && !self.pending_write()
    }

    /// Append one reply frame to the write buffer and account it. With
    /// a `request_id`, an OUTPUT or ERROR goes out in the pipelined
    /// envelope: kind OUTPUT_P / ERROR_P, the id ahead of `body`.
    fn enqueue(&mut self, shared: &Shared, kind: FrameKind, request_id: Option<u64>, body: &[u8]) {
        if self.dead {
            return;
        }
        let id = request_id.map(u64::to_le_bytes);
        let id: &[u8] = id.as_ref().map_or(&[], |b| b);
        let Ok(len) = u32::try_from(1 + id.len() + body.len()) else {
            self.dead = true;
            return;
        };
        let is_error = kind == FrameKind::Error;
        let kind = match (request_id, kind) {
            (None, kind) => kind,
            (Some(_), FrameKind::Error) => FrameKind::ErrorP,
            (Some(_), _) => FrameKind::OutputP,
        };
        if !self.pending_write() {
            self.wbuf.clear();
            self.wpos = 0;
            self.write_progress = Instant::now();
        }
        self.wbuf.extend_from_slice(&len.to_le_bytes());
        self.wbuf.push(kind as u8);
        self.wbuf.extend_from_slice(id);
        self.wbuf.extend_from_slice(body);
        shared.frames_out.fetch_add(1, Ordering::Relaxed);
        shared.bytes_out.fetch_add(4 + len as u64, Ordering::Relaxed);
        if is_error {
            shared.errors_sent.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Push pending reply bytes at the socket until it would block.
    /// Fault injection happens once per attempt, before any bytes
    /// move: a disabled plane is a single branch.
    fn flush(&mut self, shared: &Shared) {
        if self.dead {
            return;
        }
        if !self.pending_write() {
            if self.close_after_flush {
                self.dead = true;
            }
            return;
        }
        if shared.fault.is_enabled() {
            if let Some(d) = shared.fault.delay() {
                std::thread::sleep(d);
            }
            if shared.fault.io_error() {
                self.dead = true;
                return;
            }
            let pending = self.wbuf.len() - self.wpos;
            if pending > 1 && shared.fault.short_write() {
                // Leak a prefix onto the wire, then fail: the frame is
                // truncated mid-body exactly as a dying peer would
                // leave it, and the connection closes.
                let _ = self.sock.write(&self.wbuf[self.wpos..self.wpos + pending / 2]);
                self.dead = true;
                return;
            }
        }
        loop {
            let pending = &self.wbuf[self.wpos..];
            if pending.is_empty() {
                break;
            }
            match self.sock.write(pending) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(k) => {
                    self.wpos += k;
                    self.write_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        if self.close_after_flush {
            self.dead = true;
        }
    }
}

/// The wait rule, read off a complete frame's header
/// ([`protocol::job_header`]): whether the frame stays undecoded in
/// the read buffer for now.
fn waits(conn: &Conn, header: Option<bool>, engine: &Engine, shed_queue_depth: usize) -> bool {
    // Serial contract: nothing passes an id-less job in flight, and an
    // id-less frame waits for everything in flight.
    let pipelined = header == Some(true);
    if conn.inflight.contains_key(&None) || (!pipelined && !conn.inflight.is_empty()) {
        return true;
    }
    // Backpressure: a job waits for queue room, unless an armed shed
    // watermark at or below the depth will refuse it anyway.
    header.is_some() && {
        let depth = engine.queue_depth();
        depth >= engine.config().queue_capacity
            && (shed_queue_depth == 0 || depth < shed_queue_depth)
    }
}

/// The single-threaded event loop owning every connection.
struct Reactor {
    engine: Arc<Engine>,
    cfg: ServeConfig,
    shared: Arc<Shared>,
    unix: UnixListener,
    tcp: Option<TcpListener>,
    hub: Arc<Hub>,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
}

impl Reactor {
    fn run_loop(&mut self) -> io::Result<()> {
        let deadline = self.cfg.serve_secs.map(|s| Instant::now() + Duration::from_secs(s));
        loop {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    self.shared.begin_shutdown();
                }
            }
            let shutting = self.shared.shutdown.load(Ordering::SeqCst);
            if shutting && self.conns.is_empty() {
                return Ok(());
            }
            let drained = self.shared.drain_expired();

            // Build this tick's poll set: self-pipe, listeners (only
            // while accepting), and each connection's interest.
            let mut fds = Vec::with_capacity(3 + self.conns.len());
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            let unix_idx = if shutting {
                None
            } else {
                fds.push(PollFd::new(self.unix.as_raw_fd(), POLLIN));
                Some(fds.len() - 1)
            };
            let tcp_idx = match (&self.tcp, shutting) {
                (Some(t), false) => {
                    fds.push(PollFd::new(t.as_raw_fd(), POLLIN));
                    Some(fds.len() - 1)
                }
                _ => None,
            };
            let mut conn_idx: Vec<(u64, usize)> = Vec::with_capacity(self.conns.len());
            for (&id, conn) in &self.conns {
                let mut ev = 0i16;
                if conn.wants_read(drained) {
                    ev |= POLLIN;
                }
                if conn.pending_write() {
                    ev |= POLLOUT;
                }
                if ev != 0 {
                    conn_idx.push((id, fds.len()));
                    fds.push(PollFd::new(conn.sock.fd(), ev));
                }
            }
            poll(&mut fds, TICK_MS)?;

            // Drain the self-pipe (a byte per push, coalesced).
            let mut wake_buf = [0u8; 256];
            loop {
                match (&self.wake_rx).read(&mut wake_buf) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }

            // Completions first: they free in-flight slots, which
            // lets waiting frames through below.
            for c in self.hub.drain() {
                self.handle_completion(c);
            }

            // Accept new clients. A non-transient listener error is
            // fatal: begin shutdown and surface it.
            if unix_idx.is_some_and(|i| fds[i].readable()) {
                if let Err(e) = self.accept_unix() {
                    self.shared.begin_shutdown();
                    return Err(e);
                }
            }
            if tcp_idx.is_some_and(|i| fds[i].readable()) {
                if let Err(e) = self.accept_tcp() {
                    self.shared.begin_shutdown();
                    return Err(e);
                }
            }

            // Pull bytes off ready connections and parse.
            for &(id, i) in &conn_idx {
                if fds[i].readable() {
                    self.read_conn(id);
                    self.parse_conn(id);
                }
            }

            // Re-run the wait rule where a frame waits on a full queue.
            self.retry_blocked();

            // Flush pending replies, enforce the write-stall limit,
            // and settle EOF/drain closes.
            let shared = Arc::clone(&self.shared);
            let now_drained = shared.drain_expired();
            for conn in self.conns.values_mut() {
                if !conn.dead && conn.pending_write() {
                    conn.flush(&shared);
                }
                if !conn.dead && conn.pending_write() {
                    let limit =
                        if now_drained { DRAIN_WRITE_STALL_LIMIT } else { WRITE_STALL_LIMIT };
                    if conn.write_progress.elapsed() >= limit {
                        rankd_log!(
                            Level::Debug,
                            "server",
                            "conn {} not draining replies, closing",
                            conn.id
                        );
                        conn.dead = true;
                    }
                }
                // A waiting frame keeps an EOF'd connection open until
                // it is served, but not past the drain grace.
                if !conn.dead && (now_drained || (conn.eof && !conn.blocked)) && conn.idle() {
                    conn.dead = true;
                }
            }
            self.reap();
        }
    }

    fn accept_unix(&mut self) -> io::Result<()> {
        loop {
            match self.unix.accept() {
                Ok((stream, _addr)) => self.admit(Transport::Unix(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    fn accept_tcp(&mut self) -> io::Result<()> {
        loop {
            let Some(listener) = &self.tcp else { return Ok(()) };
            match listener.accept() {
                Ok((stream, _addr)) => self.admit(Transport::Tcp(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Register one accepted socket, or turn it away at the client
    /// cap with a best-effort typed BUSY (the one blocking write in
    /// the reactor — the socket is new and empty, so it cannot stall
    /// on a full buffer).
    fn admit(&mut self, mut sock: Transport) {
        if self.conns.len() >= self.cfg.max_clients {
            self.shared.busy_rejected.fetch_add(1, Ordering::Relaxed);
            self.shared.errors_sent.fetch_add(1, Ordering::Relaxed);
            let body = error_body(ErrorCode::Busy, "server at max clients");
            let mut frame = Vec::with_capacity(5 + body.len());
            frame.extend_from_slice(&(1 + body.len() as u32).to_le_bytes());
            frame.push(FrameKind::Error as u8);
            frame.extend_from_slice(&body);
            let _ = sock.set_nonblocking(false);
            if sock.write_all(&frame).is_ok() {
                self.shared.frames_out.fetch_add(1, Ordering::Relaxed);
                self.shared.bytes_out.fetch_add(frame.len() as u64, Ordering::Relaxed);
            }
            return;
        }
        // The connection id doubles as the dataset-store ownership key
        // *and* the quota tenant key: handles and admissions are
        // scoped to the connection, like file descriptors.
        let conn_id = self.shared.connections_total.fetch_add(1, Ordering::Relaxed) + 1;
        let now_active = self.shared.connections_active.fetch_add(1, Ordering::Relaxed) + 1;
        self.shared.peak_connections.fetch_max(now_active, Ordering::Relaxed);
        let _ = sock.set_nonblocking(true);
        if let Transport::Tcp(t) = &sock {
            // Replies are small and latency-bound; never Nagle them.
            let _ = t.set_nodelay(true);
        }
        self.conns.insert(conn_id, Conn::new(conn_id, sock));
    }

    /// Pull every available byte off the socket (one fault probe per
    /// tick, not per chunk, so idle connections aren't ground down).
    fn read_conn(&mut self, conn_id: u64) {
        let shared = Arc::clone(&self.shared);
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        if conn.dead || conn.eof {
            return;
        }
        if shared.fault.is_enabled() {
            if let Some(d) = shared.fault.delay() {
                std::thread::sleep(d);
            }
            if shared.fault.io_error() {
                conn.dead = true;
                return;
            }
        }
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match conn.sock.read(&mut buf) {
                // EOF: no more requests will arrive, but frames
                // already buffered still parse and their replies
                // still flush before the connection closes. A peer
                // that hung up with a reply unread reads as
                // ECONNRESET once its last bytes are in: the same EOF.
                Ok(0) => {
                    conn.eof = true;
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {
                    conn.eof = true;
                    return;
                }
                Ok(k) => conn.rbuf.extend_from_slice(&buf[..k]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Extract and dispatch every complete frame in the read buffer,
    /// stopping at a partial frame, at a frame the wait rule holds
    /// back (left undecoded, `blocked` set), or once the connection is
    /// closing.
    fn parse_conn(&mut self, conn_id: u64) {
        let max_frame = self.cfg.max_frame;
        let shared = Arc::clone(&self.shared);
        loop {
            if shared.drain_expired() {
                break;
            }
            let frame = {
                let Some(conn) = self.conns.get_mut(&conn_id) else { return };
                conn.blocked = false;
                if conn.dead || conn.close_after_flush {
                    break;
                }
                let avail = conn.rbuf.len() - conn.rpos;
                if avail < 4 {
                    break;
                }
                let len_bytes: [u8; 4] =
                    conn.rbuf[conn.rpos..conn.rpos + 4].try_into().expect("4 bytes");
                let len = u32::from_le_bytes(len_bytes);
                if len == 0 {
                    // Framing is broken in a way no typed reply can
                    // describe; close silently, as a failed read would.
                    conn.dead = true;
                    break;
                }
                if len > max_frame {
                    conn.enqueue(
                        &shared,
                        FrameKind::Error,
                        None,
                        &error_body(
                            ErrorCode::FrameTooLarge,
                            &format!("frame length {len} exceeds cap {max_frame}"),
                        ),
                    );
                    conn.close_after_flush = true;
                    break;
                }
                let len = len as usize;
                if avail < 4 + len {
                    break;
                }
                let kind = conn.rbuf[conn.rpos + 4];
                let body = &conn.rbuf[conn.rpos + 5..conn.rpos + 4 + len];
                let header = protocol::job_header(kind, body);
                if waits(conn, header, &self.engine, shared.shed_queue_depth) {
                    conn.blocked = true;
                    break;
                }
                let body = body.to_vec();
                conn.rpos += 4 + len;
                Frame { kind, body }
            };
            shared.frames_in.fetch_add(1, Ordering::Relaxed);
            shared.bytes_in.fetch_add(5 + frame.body.len() as u64, Ordering::Relaxed);
            self.guarded(conn_id, |r| r.dispatch(conn_id, &frame));
        }
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            if conn.rpos > 0 {
                conn.rbuf.drain(..conn.rpos);
                conn.rpos = 0;
            }
        }
    }

    /// Panic firewall around request handling: decode and execution
    /// are typed, so a panic below is a server bug — but it must cost
    /// exactly one connection (typed reply, then close), never the
    /// reactor or the daemon.
    fn guarded(&mut self, conn_id: u64, handle: impl FnOnce(&mut Self)) {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle(self)));
        if r.is_err() {
            self.close_after_reply(
                conn_id,
                None,
                ErrorCode::InternalError,
                "request handling panicked",
            );
        }
    }

    /// Queue one reply frame on a connection (pipelined when
    /// `request_id` is set) and flush opportunistically.
    fn enqueue_reply(
        &mut self,
        conn_id: u64,
        kind: FrameKind,
        request_id: Option<u64>,
        body: &[u8],
    ) {
        let shared = Arc::clone(&self.shared);
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.enqueue(&shared, kind, request_id, body);
            conn.flush(&shared);
        }
    }

    /// Queue a typed error reply; with a `request_id` it goes out as a
    /// pipelined [`FrameKind::ErrorP`] echoing the id.
    fn reply_error(&mut self, conn_id: u64, request_id: Option<u64>, code: ErrorCode, msg: &str) {
        self.enqueue_reply(conn_id, FrameKind::Error, request_id, &error_body(code, msg));
    }

    /// Error reply followed by connection close (handshake failures,
    /// engine shutdown).
    fn close_after_reply(
        &mut self,
        conn_id: u64,
        request_id: Option<u64>,
        code: ErrorCode,
        msg: &str,
    ) {
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.close_after_flush = true;
        }
        self.reply_error(conn_id, request_id, code, msg);
    }

    /// Decode and answer one frame the wait rule let through.
    fn dispatch(&mut self, conn_id: u64, frame: &Frame) {
        let t_decode = Instant::now();
        let req = match protocol::decode_request(frame) {
            Ok(req) => req,
            Err(we) => {
                // Decode failures consumed the whole body off the
                // wire, so the stream is still framed correctly:
                // reply and carry on.
                rankd_log!(Level::Debug, "server", "decode failed: {we}");
                self.reply_error(conn_id, None, we.code, &we.message);
                return;
            }
        };
        let decode_ns = t_decode.elapsed().as_nanos() as u64;
        let greeted = self.conns.get(&conn_id).is_some_and(|c| c.greeted);
        match req {
            WireRequest::Hello { magic, version } => {
                if magic != protocol::MAGIC {
                    self.close_after_reply(
                        conn_id,
                        None,
                        ErrorCode::BadMagic,
                        &format!("magic {magic:#010x}, want {:#010x}", protocol::MAGIC),
                    );
                    return;
                }
                if !(protocol::MIN_VERSION..=protocol::VERSION).contains(&version) {
                    self.close_after_reply(
                        conn_id,
                        None,
                        ErrorCode::VersionMismatch,
                        &format!("client speaks v{version}, server speaks v{}", protocol::VERSION),
                    );
                    return;
                }
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.greeted = true;
                }
                // Advertise the cap this server actually enforces
                // (ServeConfig::max_frame), not the protocol default.
                let body = protocol::hello_ok_body(protocol::VERSION, self.cfg.max_frame);
                self.enqueue_reply(conn_id, FrameKind::HelloOk, None, &body);
            }
            _ if !greeted => {
                self.reply_error(
                    conn_id,
                    None,
                    ErrorCode::ExpectedHello,
                    "send HELLO before requests",
                );
            }
            WireRequest::Stats => {
                let body = protocol::stats_body(&self.stats_v1());
                self.enqueue_reply(conn_id, FrameKind::StatsOk, None, &body);
            }
            WireRequest::StatsV2 => {
                let body = protocol::stats_v2_body(&self.stats_v2());
                self.enqueue_reply(conn_id, FrameKind::StatsV2Ok, None, &body);
            }
            WireRequest::Shutdown => {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.close_after_flush = true;
                }
                self.enqueue_reply(conn_id, FrameKind::ShutdownOk, None, &[]);
                self.shared.begin_shutdown();
            }
            WireRequest::Put { list } => self.do_put(conn_id, list),
            WireRequest::Job(job) => self.dispatch_job(conn_id, job, decode_ns),
            WireRequest::Mutate { handle, edits } => self.do_mutate(conn_id, handle, &edits),
            WireRequest::Drop { handle } => self.do_drop(conn_id, handle),
        }
    }

    /// Admit one dataset into the resident store.
    fn do_put(&mut self, conn_id: u64, list: LinkedList) {
        // Injected admission failures and the store-pressure watermark
        // both answer OVERLOADED — a *retryable* refusal, unlike the
        // terminal STORE_FULL (dataset can never fit) or the tenant's
        // own QUOTA_EXCEEDED (the tenant must DROP first).
        if self.shared.fault.store_error() {
            self.reply_error(
                conn_id,
                None,
                ErrorCode::Overloaded,
                "store admission refused (injected), retry_after_ms=50",
            );
            return;
        }
        if self.shared.store_quota > 0
            && self.shared.store.owned_bytes(conn_id) >= self.shared.store_quota
        {
            self.shared.quota_rejected_store.fetch_add(1, Ordering::Relaxed);
            self.reply_error(
                conn_id,
                None,
                ErrorCode::QuotaExceeded,
                &format!("tenant store quota ({} bytes) exceeded", self.shared.store_quota),
            );
            return;
        }
        if self.shared.shed_store_bytes > 0
            && self.shared.store.stats().resident_bytes >= self.shared.shed_store_bytes
        {
            self.shared.shed_store.fetch_add(1, Ordering::Relaxed);
            self.reply_error(
                conn_id,
                None,
                ErrorCode::Overloaded,
                "store over pressure watermark, retry_after_ms=100",
            );
            return;
        }
        match self.shared.store.put(conn_id, Arc::new(list)) {
            Ok(receipt) => {
                rankd_log!(
                    Level::Debug,
                    "server",
                    "conn {conn_id} PUT handle={} ({} bytes resident)",
                    receipt.handle,
                    receipt.bytes
                );
                let body = protocol::put_ok_body(receipt.handle, receipt.bytes);
                self.enqueue_reply(conn_id, FrameKind::PutOk, None, &body);
            }
            Err(e) => self.reply_error(conn_id, None, store_error_code(e), &e.to_string()),
        }
    }

    /// Apply one mutation batch inline. Mutations run on the reactor
    /// thread, not through the job queue: they hold the dataset's
    /// mutation lock anyway, so queueing them would only add latency,
    /// and the engine's planner is still consulted for the maintenance
    /// strategy.
    fn do_mutate(&mut self, conn_id: u64, handle: u64, edits: &[listkit::dynamic::Edit]) {
        match crate::dynamic::mutate(
            &self.shared.store,
            self.engine.planner(),
            handle,
            conn_id,
            edits,
        ) {
            Ok(out) => {
                rankd_log!(
                    Level::Debug,
                    "server",
                    "conn {conn_id} MUTATE handle={handle} applied={} len={} {} \
                     dirty={} artifacts={} in {:.3}ms",
                    out.applied,
                    out.len,
                    if out.incremental { "incremental" } else { "full" },
                    out.dirty_shards,
                    out.artifacts,
                    out.exec_ns as f64 / 1e6
                );
                let body = protocol::mutate_ok_body(&WireMutateOk {
                    applied: out.applied,
                    len: out.len,
                    incremental: out.incremental,
                    dirty_shards: out.dirty_shards,
                    artifacts: out.artifacts,
                    exec_ns: out.exec_ns,
                });
                self.enqueue_reply(conn_id, FrameKind::MutateOk, None, &body);
            }
            Err(e) => {
                let code = match e {
                    MutateError::Stale => ErrorCode::StaleHandle,
                    MutateError::Edit(_) => ErrorCode::BadMutation,
                };
                self.reply_error(conn_id, None, code, &format!("MUTATE handle {handle}: {e}"));
            }
        }
    }

    fn do_drop(&mut self, conn_id: u64, handle: u64) {
        match self.shared.store.drop_dataset(handle, conn_id) {
            Ok(()) => self.enqueue_reply(conn_id, FrameKind::DropOk, None, &[]),
            Err(e) => self.reply_error(
                conn_id,
                None,
                store_error_code(e),
                &format!("DROP handle {handle}: {e}"),
            ),
        }
    }

    /// Admission-control and submit one job-bearing request.
    fn dispatch_job(&mut self, conn_id: u64, job: JobFrame, decode_ns: u64) {
        let kind = job.kind();
        let JobFrame { flags, source, job } = job;
        let dup = flags.request_id.filter(|&id| {
            self.conns.get(&conn_id).is_some_and(|c| c.inflight.contains_key(&Some(id)))
        });
        if let Some(id) = dup {
            self.reply_error(
                conn_id,
                Some(id),
                ErrorCode::Malformed,
                &format!("request_id {id} already in flight"),
            );
            return;
        }
        // Load shedding: past the watermark, tell the client to back
        // off *now*. Checked before quota admission so a shed never
        // needs an admission undone.
        if self.shared.shed_queue_depth > 0
            && self.engine.queue_depth() >= self.shared.shed_queue_depth
        {
            self.shared.shed_queue.fetch_add(1, Ordering::Relaxed);
            self.reply_error(
                conn_id,
                flags.request_id,
                ErrorCode::Overloaded,
                "queue over shed watermark, retry_after_ms=25",
            );
            return;
        }
        if !self.shared.quota.try_admit(conn_id) {
            self.reply_error(
                conn_id,
                flags.request_id,
                ErrorCode::QuotaExceeded,
                &format!("tenant in-flight quota ({}) exceeded", self.shared.quota.max_inflight()),
            );
            return;
        }
        // Job-bearing frames get a trace id at the moment of decode —
        // the earliest point the request exists as a typed value — so
        // the span covers the whole server-side pipeline.
        let trace_id = telemetry::next_trace_id();
        self.engine.telemetry().record_phase(Phase::Decode, decode_ns);
        rankd_log!(
            Level::Trace,
            "server",
            "request trace={trace_id} kind={kind:?} decode={:.3}ms",
            decode_ns as f64 / 1e6
        );
        let mut opts = JobOptions::default().with_trace_id(trace_id);
        opts.decode_ns = decode_ns;
        opts.deadline_ms = flags.deadline_ms;
        opts.priority = if flags.batch { Priority::Batch } else { Priority::Interactive };
        let arrival_seq = {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                self.shared.quota.complete(conn_id);
                return;
            };
            let s = conn.next_arrival;
            conn.next_arrival += 1;
            s
        };
        let mut ctx = ReplyCtx {
            conn: conn_id,
            request_id: flags.request_id,
            arrival_seq,
            trace_id,
            _pin: None,
        };
        let src = match source {
            Source::Inline(list) => ListSource::Inline(Arc::new(list)),
            Source::Handle(handle) => {
                let Some(pin) = self.resolve_pin(conn_id, handle, flags.request_id) else {
                    return;
                };
                ctx._pin = Some(Arc::clone(&pin));
                ListSource::Resident(pin)
            }
        };
        let request_id = flags.request_id;
        let hub = Arc::clone(&self.hub);
        let err = match submit_job(&self.engine, src, job, flags.sharded, opts, ctx, hub) {
            Ok(_job_id) => {
                let Some(conn) = self.conns.get_mut(&conn_id) else { return };
                conn.inflight.insert(request_id, arrival_seq);
                if request_id.is_some() {
                    self.shared.pipeline_depth.record(conn.inflight.len() as u64);
                }
                return;
            }
            Err(e) => e,
        };
        self.shared.quota.complete(conn_id);
        match err {
            // The wait rule holds job frames while the queue is full,
            // so only another in-process submitter can race us here.
            SubmitError::Full => self.reply_error(
                conn_id,
                request_id,
                ErrorCode::Overloaded,
                "queue full, retry_after_ms=25",
            ),
            SubmitError::Shutdown => self.close_after_reply(
                conn_id,
                request_id,
                ErrorCode::EngineShutdown,
                "engine shut down",
            ),
            SubmitError::Invalid => self.reply_error(
                conn_id,
                request_id,
                ErrorCode::InvalidRequest,
                "request failed submit validation",
            ),
        }
    }

    /// Pin a resident dataset for a handle-routed job; on failure the
    /// quota admission is returned and the typed store error replied.
    fn resolve_pin(
        &mut self,
        conn_id: u64,
        handle: u64,
        request_id: Option<u64>,
    ) -> Option<Arc<DatasetRef>> {
        match self.shared.store.get(handle, conn_id) {
            Ok(entry) => Some(Arc::new(entry)),
            Err(e) => {
                self.shared.quota.complete(conn_id);
                self.reply_error(
                    conn_id,
                    request_id,
                    store_error_code(e),
                    &format!("handle {handle}: {e}"),
                );
                None
            }
        }
    }

    /// Deliver one settled job's reply: settle the quota and in-flight
    /// ledgers, queue the frame, and resume parsing (the completion
    /// may let a waiting frame through).
    fn handle_completion(&mut self, c: Completion) {
        // A completion for a reaped connection is discarded: its
        // `drop_tenant` already settled the quota ledger, and the
        // reply has nowhere to go.
        self.shared.quota.complete(c.conn);
        let shared = Arc::clone(&self.shared);
        let Some(conn) = self.conns.get_mut(&c.conn) else { return };
        conn.inflight.remove(&c.request_id);
        // A reply overtaking an earlier-arrived in-flight request is a
        // reorder — the pipelining contract clients must handle (and
        // STATS_V2 counts).
        if conn.inflight.values().any(|&seq| seq < c.arrival_seq) {
            shared.reply_reorders.fetch_add(1, Ordering::Relaxed);
        }
        let t_reply = Instant::now();
        conn.enqueue(&shared, c.kind, c.request_id, &c.body);
        conn.flush(&shared);
        if c.kind != FrameKind::Error {
            let reply_ns = t_reply.elapsed().as_nanos() as u64;
            self.engine.telemetry().record_phase(Phase::ReplyWrite, reply_ns);
            rankd_log!(
                Level::Trace,
                "server",
                "reply trace={} bytes={} reply-write={:.3}ms",
                c.trace_id,
                c.body.len() + 5,
                reply_ns as f64 / 1e6
            );
        }
        self.parse_conn(c.conn);
    }

    /// Re-run the wait rule on every blocked connection: a frame held
    /// on a full queue goes through once a worker has taken a job.
    fn retry_blocked(&mut self) {
        let ids: Vec<u64> =
            self.conns.iter().filter(|(_, c)| c.blocked && !c.dead).map(|(&id, _)| id).collect();
        for id in ids {
            self.parse_conn(id);
        }
    }

    /// Remove finished connections and settle their tenant state.
    fn reap(&mut self) {
        let dead: Vec<u64> = self.conns.iter().filter(|(_, c)| c.dead).map(|(&id, _)| id).collect();
        for conn_id in dead {
            self.conns.remove(&conn_id);
            self.shared.quota.drop_tenant(conn_id);
            let dropped = self.shared.store.drop_connection(conn_id);
            if dropped > 0 {
                rankd_log!(
                    Level::Debug,
                    "server",
                    "conn {conn_id} closed, dropped {dropped} resident dataset(s)"
                );
            }
            self.shared.connections_active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn stats_v1(&self) -> WireStats {
        let es = self.engine.stats();
        let ss = self.shared.stats();
        WireStats {
            engine_submitted: es.submitted,
            engine_completed: es.completed,
            engine_cancelled: es.cancelled,
            engine_failed: es.failed,
            engine_elements: es.elements,
            connections_total: ss.connections_total,
            connections_active: ss.connections_active,
            peak_connections: ss.peak_connections,
            frames_in: ss.frames_in,
            frames_out: ss.frames_out,
            bytes_in: ss.bytes_in,
            bytes_out: ss.bytes_out,
            errors_sent: ss.errors_sent,
            busy_rejected: ss.busy_rejected,
            text: format!("{es}\n-- serving --\n{ss}\n"),
        }
    }

    fn stats_v2(&self) -> WireStatsV2 {
        let es = self.engine.stats();
        let ss = self.shared.stats();
        let st = self.shared.store.stats();
        let ms = self.shared.store.mutation_stats();
        let sn = &es.sched;
        let pipeline_depth = self.shared.pipeline_depth.snapshot();
        WireStatsV2 {
            phase: es.phase_hist,
            per_op: es.op_hist,
            mispredict: es.mispredict,
            gauges: StatsGauges {
                uptime_ns: (es.uptime_s * 1e9) as u64,
                submitted: es.submitted,
                completed: es.completed,
                cancelled: es.cancelled,
                failed: es.failed,
                rejected_full: es.rejected_full,
                elements: es.elements,
                queue_depth: es.queue_depth as u64,
                peak_queue_depth: es.peak_queue_depth as u64,
                lane_steps: es.lane_steps,
                lane_slots: es.lane_slots,
                connections_active: ss.connections_active,
                connections_total: ss.connections_total,
            },
            store: StoreGauges {
                budget_bytes: st.budget_bytes,
                resident_bytes: st.resident_bytes,
                resident_count: st.resident_count,
                puts: st.puts,
                drops: st.drops,
                lookups: st.lookups,
                hits: st.hits,
                misses: st.misses,
                evictions: st.evictions,
                put_rejected: st.put_rejected,
                artifacts_built: st.artifacts_built,
                artifacts_reused: st.artifacts_reused,
            },
            mutate: MutGauges {
                mutations: ms.mutations,
                edits: ms.edits,
                incremental: ms.incremental,
                full: ms.full,
                dirty_shards_patched: ms.dirty_shards_patched,
                artifacts_patched: ms.incremental + ms.full,
            },
            fault: {
                let fs = self.shared.fault.snapshot();
                FaultGauges {
                    injected_io_errors: fs.io_errors,
                    injected_delays: fs.delays,
                    injected_short_writes: fs.short_writes,
                    injected_exec_panics: fs.exec_panics,
                    injected_store_errors: fs.store_errors,
                    panics_recovered: es.panics_recovered,
                    workers_respawned: es.workers_respawned,
                    deadline_expired: es.deadline_expired,
                    shed_queue: self.shared.shed_queue.load(Ordering::Relaxed),
                    shed_store: self.shared.shed_store.load(Ordering::Relaxed),
                }
            },
            sched: SchedGauges {
                inflight_interactive: sn.inflight(Priority::Interactive),
                inflight_batch: sn.inflight(Priority::Batch),
                dispatched_interactive: sn.dispatched[0],
                dispatched_batch: sn.dispatched[1],
                aged_dispatches: sn.aged,
                quota_rejected_inflight: self.shared.quota.rejected(),
                quota_rejected_store: self.shared.quota_rejected_store.load(Ordering::Relaxed),
                reply_reorders: self.shared.reply_reorders.load(Ordering::Relaxed),
                pipelined_requests: pipeline_depth.count(),
                max_pipeline_depth: pipeline_depth.max(),
            },
            pipeline_depth,
            dispatch_by_op: es.dispatch_by_op.iter().map(|(op, row)| (*op, row.to_vec())).collect(),
        }
    }
}

/// The wire error code for a store refusal.
fn store_error_code(e: StoreError) -> ErrorCode {
    match e {
        StoreError::StaleHandle => ErrorCode::StaleHandle,
        StoreError::StoreFull => ErrorCode::StoreFull,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion() -> Completion {
        Completion {
            conn: 1,
            request_id: None,
            arrival_seq: 0,
            kind: FrameKind::Output,
            body: Vec::new(),
            trace_id: 0,
        }
    }

    /// Read every byte waiting in the self-pipe; returns the count.
    fn take_wakes(rx: &UnixStream) -> usize {
        let mut buf = [0u8; 64];
        let mut n = 0;
        while let Ok(k @ 1..) = (&*rx).read(&mut buf) {
            n += k;
        }
        n
    }

    #[test]
    fn hub_writes_a_wake_byte_only_when_it_goes_from_empty_to_non_empty() {
        let (wake_tx, wake_rx) = UnixStream::pair().expect("socket pair");
        wake_tx.set_nonblocking(true).expect("nonblocking tx");
        wake_rx.set_nonblocking(true).expect("nonblocking rx");
        let hub = Hub { queue: Mutex::new(Vec::new()), wake_tx };
        for _ in 0..8 {
            hub.push(completion());
        }
        assert_eq!(take_wakes(&wake_rx), 1, "eight pushes ride one wake");
        assert_eq!(hub.drain().len(), 8);
        hub.push(completion());
        assert_eq!(take_wakes(&wake_rx), 1, "the first push after a drain wakes again");
    }
}
