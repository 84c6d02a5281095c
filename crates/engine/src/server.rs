//! `rankd serve` — the event-driven multi-tenant socket front-end.
//!
//! One [`Server`] wraps one [`Engine`]: a single-threaded *reactor*
//! owns every connection fd (Unix domain socket, and optionally TCP
//! via [`ServeConfig::with_tcp`]), multiplexes readiness with
//! `poll(2)` ([`crate::poll`]), and decodes [`crate::protocol`] frames
//! in place: in per-connection read buffers, or, for a frame longer
//! than a read chunk, in a pooled buffer it was read into, which a
//! scan's reply then reuses around its values. Job-bearing frames are
//! submitted through the engine's *non-blocking* frame path: the
//! worker that runs a job takes a recycled buffer when execution
//! starts, lays the whole OUTPUT frame out in it and has the job write
//! its little-endian elements straight into the payload; it then
//! writes the metadata, pushes the frame into a completion hub and
//! wakes the reactor over a self-pipe; the reactor queues that buffer
//! on the connection and writes it as it is. No thread is parked per
//! in-flight request, which is what makes pipelining scale:
//!
//! * **One write per connection per tick.** Replies — a job's, or one
//!   the reactor answers itself — are only queued while the tick
//!   handles completions and requests; the tick ends by writing each
//!   connection once, up to 32 frames per `writev`. A worker
//!   batch's replies reach the hub together, behind one wake.
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
//!   simply stops being *read*; its replies are still written as the
//!   socket takes them, so the reactor never blocks on a slow client,
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
use crate::job::{ErasedOutput, FrameReply, JobError, JobOptions, JobReport, Request, Warm};
use crate::poll::{poll, PollFd, POLLIN, POLLOUT};
use crate::protocol::{
    self, error_body, ErrorCode, FaultGauges, FrameKind, Job, JobFrame, MutGauges, SchedGauges,
    Source, StatsGauges, StoreGauges, WireElem, WireMutateOk, WireOp, WireRequest, WireStats,
    WireStatsV2, MAX_FRAME_DEFAULT,
};
use crate::queue::SubmitError;
use crate::rankd_log;
use crate::sched::{Priority, QuotaTable};
use crate::store::{DatasetRef, DatasetStore, StoreError, DEFAULT_STORE_BUDGET};
use crate::telemetry::log::Level;
use crate::telemetry::{self, AtomicHistogram, Phase, Telemetry};
use listkit::ops::{AddOp, Affine, AffineOp, MaxOp, MinOp, XorOp};
use listkit::LinkedList;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
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
    /// Frame buffers the pool holds for reuse. A served job's reply
    /// comes from the pool and goes back once written — or, for a job
    /// that failed mid-write, as soon as it fails; a request frame
    /// longer than the read chunk is read into one, and a scan's reply
    /// is written in that same buffer.
    pub reply_bufs_pooled: u64,
    /// Bytes of capacity those pooled buffers hold.
    pub reply_bytes_pooled: u64,
    /// Vectored writes that moved reply bytes. The reactor writes each
    /// connection once per tick, many frames per write, so at pipeline
    /// depth this stays below [`ServerStats::frames_out`].
    pub writes: u64,
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

/// State shared between the reactor, the workers writing reply frames,
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
    writes: AtomicU64,
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
    /// Reply buffers recycled between the workers that write replies
    /// and the reactor that sends them.
    pool: BufPool,
}

impl Shared {
    fn new(cfg: &ServeConfig) -> Shared {
        Shared {
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
            writes: AtomicU64::new(0),
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
            pool: BufPool::default(),
        }
    }

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
        let held = self.pool.held();
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
            reply_bufs_pooled: held.0 as u64,
            reply_bytes_pooled: held.1 as u64,
            writes: self.writes.load(Ordering::Relaxed),
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
        let shared = Arc::new(Shared::new(&cfg));
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
        let mut reactor = self.into_reactor()?;
        let result = reactor.run_loop();
        let _ = std::fs::remove_file(&reactor.cfg.socket);
        result.map(|()| reactor.shared.stats())
    }

    /// The reactor that serves this server's listeners, with its
    /// completion hub and self-pipe.
    fn into_reactor(self) -> std::io::Result<Reactor> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Reactor {
            engine: self.engine,
            cfg: self.cfg,
            shared: self.shared,
            unix: self.listener,
            tcp: self.tcp,
            hub: Arc::new(Hub::new(wake_tx)),
            wake_rx,
            conns: HashMap::new(),
        })
    }
}

/// Reactor poll timeout: the cadence for deadline/drain checks and
/// re-running the wait rule on blocked connections when no fd is ready (completions and socket
/// readiness wake it immediately).
const TICK_MS: i32 = 25;

/// Read chunk size per `read(2)` call into a connection's read buffer,
/// and the split between the two ways a frame is read: one of this
/// size or less arrives in the read buffer and is parsed there, a
/// longer one is read into a pooled buffer of its own ([`FrameBuf`]).
const READ_CHUNK: usize = 64 * 1024;

/// Most queued reply frames one vectored write hands the socket.
const MAX_IOV: usize = 32;

/// Most reply buffers the [`BufPool`] keeps.
const POOL_MAX_BUFS: usize = 8;

/// Most bytes of capacity the [`BufPool`] keeps: one 2²²-element
/// reply or request frame (32 MiB of `u64` ranks or values, its header
/// and a 1/64 margin) fits, a second does not, so a closed-loop client
/// at that size reuses one buffer for both.
const POOL_MAX_BYTES: usize = 64 << 20;

/// Per-connection pending-reply high watermark: past it the reactor
/// stops *reading* the connection (natural pipelining backpressure —
/// the client must drain replies before submitting more).
const PENDING_HIGH_WATERMARK: usize = 1 << 20;

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

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Transport::Unix(s) => s.write_vectored(bufs),
            Transport::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Transport::Unix(s) => s.flush(),
            Transport::Tcp(s) => s.flush(),
        }
    }
}

/// Frame buffers recycled among the reactor that reads requests and
/// sends replies and the workers that write replies. A reused buffer
/// keeps its pages mapped, so a large frame touches no fresh memory;
/// the pool holds at most [`POOL_MAX_BUFS`] buffers and
/// [`POOL_MAX_BYTES`] of capacity. Every buffer is initialised to its
/// full capacity and is never truncated, so a socket read can fill one
/// and a frame can be laid out in one without clearing it first: each
/// frame records the range it occupies, and whoever writes a frame
/// writes every byte of it.
#[derive(Default)]
struct BufPool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    /// A buffer of at least `need` bytes, holding stale bytes: the
    /// smallest pooled one that fits, else a fresh one 1/64 longer than
    /// asked, zeroed by the allocator and, when list-sized, on huge pages
    /// ([`listkit::pages::zeroed_vec`]), which the served scan reads at
    /// random. A segmented scan's start bitmap is 1/64 of its values, so
    /// a rank reply and a scan or segmented scan frame over the same
    /// list fit the same buffer.
    fn take(&self, need: usize) -> Vec<u8> {
        let pooled = {
            let mut bufs = self.bufs.lock().expect("frame pool poisoned");
            let best =
                (0..bufs.len()).filter(|&i| bufs[i].len() >= need).min_by_key(|&i| bufs[i].len());
            best.map(|i| bufs.swap_remove(i))
        };
        pooled.unwrap_or_else(|| listkit::pages::zeroed_vec(need + need / 64))
    }

    /// Return a buffer; it is dropped instead when keeping it would pass
    /// the pool's bound.
    fn give(&self, buf: Vec<u8>) {
        debug_assert_eq!(buf.len(), buf.capacity(), "a pooled buffer is never truncated");
        let mut bufs = self.bufs.lock().expect("frame pool poisoned");
        let held: usize = bufs.iter().map(Vec::capacity).sum();
        if bufs.len() < POOL_MAX_BUFS && held + buf.capacity() <= POOL_MAX_BYTES {
            bufs.push(buf);
        }
    }

    /// Buffers held for reuse, and their bytes of capacity.
    fn held(&self) -> (usize, usize) {
        let bufs = self.bufs.lock().expect("frame pool poisoned");
        (bufs.len(), bufs.iter().map(Vec::capacity).sum())
    }
}

/// One whole reply frame queued for the socket. Its wire bytes are
/// `buf[lead..end]`: a job's OUTPUT frame starts a few bytes into its
/// buffer so that its payload sits on an 8-byte boundary
/// ([`protocol::open_output_frame`]); every other frame has no lead.
struct OutFrame {
    buf: Vec<u8>,
    lead: usize,
    end: usize,
    /// For a job's OUTPUT: when the reactor drained its completion, and
    /// its trace id. The first write that carries the frame's bytes
    /// takes it and records [`Phase::ReplyWrite`].
    drained: Option<(Instant, u64)>,
}

impl OutFrame {
    fn wire(&self) -> &[u8] {
        &self.buf[self.lead..self.end]
    }
}

/// Frame one reply at the start of a pooled buffer with
/// [`protocol::reply_frame_at`]. `None` when the body overflows the
/// `u32` length prefix.
fn frame_reply(
    pool: &BufPool,
    kind: FrameKind,
    request_id: Option<u64>,
    body: &[u8],
) -> Option<OutFrame> {
    let mut buf = pool.take(protocol::FRAME_HEADER_MAX + body.len());
    let end = protocol::reply_frame_at(&mut buf, kind, request_id, body).ok()?;
    Some(OutFrame { buf, lead: 0, end, drained: None })
}

/// A settled job's reply, written by its worker and drained by the
/// reactor, which queues `frame` on the connection as it is. `kind` is
/// OUTPUT or ERROR, whether or not the frame is pipelined.
struct Completion {
    conn: u64,
    request_id: Option<u64>,
    arrival_seq: u64,
    kind: FrameKind,
    frame: OutFrame,
    trace_id: u64,
}

/// The completion hub: workers push settled reply frames here and wake
/// the reactor over the self-pipe.
struct Hub {
    queue: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
}

impl Hub {
    fn new(wake_tx: UnixStream) -> Hub {
        Hub { queue: Mutex::new(Vec::new()), wake_tx }
    }

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

/// Everything a served job's reply needs to be routed.
struct ReplyCtx {
    shared: Arc<Shared>,
    hub: Arc<Hub>,
    conn: u64,
    request_id: Option<u64>,
    arrival_seq: u64,
    trace_id: u64,
    /// Eviction pin for handle-routed jobs: the reply holds it, so
    /// the resident dataset cannot be evicted before the job has run.
    /// Never read — its `Drop` is the point.
    _pin: Option<Arc<DatasetRef>>,
}

/// A served job's OUTPUT frame, written in place by the worker that
/// runs it ([`FrameReply`]): the buffer is taken from the pool when
/// execution starts — a scan's frame opens at submit, over its values
/// — the job writes its `n` elements of `elem_bytes` each straight
/// into the payload, and settling writes the metadata — or, for a
/// failed job, reframes the same buffer as its ERROR reply — and pushes
/// the frame to the hub.
struct ReplyFrame {
    ctx: ReplyCtx,
    n: usize,
    elem_bytes: usize,
    open: Option<(Vec<u8>, protocol::OutputFrame)>,
}

impl ReplyFrame {
    /// Answer with an ERROR frame in a pooled buffer.
    fn refuse(self, code: ErrorCode, msg: &str) {
        let body = error_body(code, msg);
        let frame =
            frame_reply(&self.ctx.shared.pool, FrameKind::Error, self.ctx.request_id, &body)
                .expect("a short error body fits the length prefix");
        self.send(FrameKind::Error, frame);
    }

    /// Hand a settled frame to the reactor.
    fn send(self, kind: FrameKind, frame: OutFrame) {
        let ctx = self.ctx;
        ctx.hub.push(Completion {
            conn: ctx.conn,
            request_id: ctx.request_id,
            arrival_seq: ctx.arrival_seq,
            kind,
            frame,
            trace_id: ctx.trace_id,
        });
    }
}

impl FrameReply for ReplyFrame {
    /// The payload, opening the frame in a pooled buffer the first
    /// time: a scan's frame is opened at submit, to take its values.
    fn payload(&mut self) -> &mut [u8] {
        let (buf, frame) = match &mut self.open {
            Some(open) => open,
            open => {
                let need = protocol::payload_lead_max(0) + self.n * self.elem_bytes;
                let mut buf = self.ctx.shared.pool.take(need);
                let frame = protocol::open_output_frame(
                    &mut buf,
                    self.ctx.request_id,
                    self.n,
                    self.elem_bytes,
                )
                .expect("submit checked that the reply fits its length prefix");
                open.insert((buf, frame))
            }
        };
        &mut buf[frame.payload()]
    }

    fn settle(self: Box<Self>, result: Result<JobReport<ErasedOutput>, JobError>) {
        let mut this = *self;
        let (code, msg) = match (result, this.open.take()) {
            (Ok(report), Some((mut buf, frame))) => {
                let meta = protocol::OutputMeta {
                    algorithm: report.algorithm,
                    shards: report.shards as u32,
                    queued_ns: report.queued_ns,
                    exec_ns: report.exec_ns,
                    trace_id: report.trace_id,
                };
                protocol::seal_output_frame(&mut buf, &frame, &meta);
                let frame = OutFrame { buf, lead: frame.lead, end: frame.end, drained: None };
                return this.send(FrameKind::Output, frame);
            }
            (result, open) => {
                // A half-written OUTPUT frame is never sent; its buffer
                // goes back to the pool for the ERROR reply and later
                // ones.
                if let Some((buf, _)) = open {
                    this.ctx.shared.pool.give(buf);
                }
                match result {
                    Ok(_) => (ErrorCode::InternalError, "reply frame was never opened"),
                    // The worker caught the panic; only this request
                    // is lost and the connection keeps being served.
                    Err(JobError::Failed) => (ErrorCode::InternalError, "job execution panicked"),
                    // The server never cancels its own jobs; defensive
                    // arm.
                    Err(JobError::Cancelled) => (ErrorCode::JobFailed, "job cancelled"),
                    Err(JobError::DeadlineExceeded) => {
                        (ErrorCode::DeadlineExceeded, "request deadline exceeded in queue")
                    }
                }
            }
        };
        this.refuse(code, msg);
    }
}

/// A scan's value encodings as the reactor hands them to [`submit`].
enum Values<'a> {
    /// In the connection's read buffer: copied into the reply frame's
    /// payload.
    Copy(&'a [u8]),
    /// At this range of the request frame's own buffer ([`FrameBuf`]),
    /// which put them on a payload boundary: the reply frame takes the
    /// buffer and opens over them.
    InPlace(&'a mut Vec<u8>, Range<usize>),
}

impl Values<'_> {
    fn len(&self) -> usize {
        match self {
            Values::Copy(values) => values.len(),
            Values::InPlace(_, values) => values.len(),
        }
    }
}

/// Offer one typed request to the engine's non-blocking frame path: a
/// [`ReplyFrame`] for its `n` elements of `T` is written by the worker
/// and pushed to the hub. A reply the `u32` length prefix could not
/// cover is refused here, before the job runs. A scan's `values`, the
/// encodings of its `n` elements, become the frame's payload, where the
/// job scans them: in place, or copied out of the read buffer now, a
/// copy that is part of the request's decode phase.
fn submit<T: WireElem>(
    engine: &Engine,
    req: Request<Vec<T>>,
    values: Option<Values<'_>>,
    mut opts: JobOptions,
    ctx: ReplyCtx,
) -> Result<(), SubmitError> {
    let mut reply = ReplyFrame { ctx, n: req.len(), elem_bytes: T::BYTES, open: None };
    let frame_len = protocol::FRAME_HEADER_MAX + protocol::output_body_len::<T>(reply.n);
    let fits = u32::try_from(frame_len).is_ok();
    let counted = values.as_ref().is_none_or(|values| values.len() == reply.n * T::BYTES);
    match values.filter(|_| fits && counted) {
        Some(Values::Copy(values)) => {
            let t_copy = Instant::now();
            reply.payload().copy_from_slice(values);
            opts.decode_ns += t_copy.elapsed().as_nanos() as u64;
        }
        Some(Values::InPlace(buf, values)) => {
            // The OUTPUT header goes in the lead ahead of the values, and
            // the reply takes their buffer.
            let frame = protocol::open_output_frame_at(
                buf,
                reply.ctx.request_id,
                reply.n,
                T::BYTES,
                values.start,
            )
            .expect("the request frame's lead leaves room for the OUTPUT header");
            reply.open = Some((std::mem::take(buf), frame));
        }
        None => {}
    }
    engine.telemetry().record_phase(Phase::Decode, opts.decode_ns);
    if !fits {
        reply.refuse(ErrorCode::InternalError, "reply exceeds the u32 frame length");
        return Ok(());
    }
    if !counted {
        return Err(SubmitError::Invalid);
    }
    engine.try_submit_frame(req, opts, Box::new(reply)).map(|_job_id| ())
}

/// Where a job's list comes from: decoded inline off the frame, or a
/// pinned resident dataset's snapshot, resolved with its artifact slot
/// and the rank array kept for it under one lock.
enum ListSource {
    Inline(Arc<LinkedList>),
    Resident(Arc<LinkedList>, Warm),
}

impl ListSource {
    fn resident(dataset: &DatasetRef) -> Self {
        let (list, kept) = dataset.snapshot();
        ListSource::Resident(list, Warm { cache: dataset.artifacts(), kept })
    }

    fn list(&self) -> Arc<LinkedList> {
        match self {
            ListSource::Inline(l) | ListSource::Resident(l, _) => Arc::clone(l),
        }
    }

    /// Route `req` as the frame asked (sharded or not) and attach a
    /// resident dataset's artifact slot.
    fn finish<R>(&self, req: Request<R>, sharded: bool) -> Request<R> {
        let req = if sharded { req.sharded() } else { req };
        match self {
            ListSource::Inline(_) => req,
            ListSource::Resident(_, warm) => req.with_warm(warm.clone()),
        }
    }
}

/// The one typed submit path for every job frame: maps the decoded
/// [`Job`] onto the engine's typed [`Request`] builders, built once and
/// offered once. Scan and segmented scan share one operator table; the
/// operator fixes the element type of the value encodings.
fn submit_job(
    engine: &Engine,
    src: ListSource,
    job: Job<Values<'_>>,
    sharded: bool,
    opts: JobOptions,
    ctx: ReplyCtx,
) -> Result<(), SubmitError> {
    let (op, values, starts) = match job {
        Job::Rank => {
            let req = src.finish(Request::rank(src.list()), sharded);
            return submit(engine, req, None, opts, ctx);
        }
        Job::Scan { op, values } => (op, values, None),
        Job::SegScan { op, starts, values } => (op, values, Some(Arc::new(starts))),
    };
    fn scan<T, Op>(
        src: &ListSource,
        starts: Option<Arc<Vec<bool>>>,
        op: Op,
        sharded: bool,
    ) -> Request<Vec<T>>
    where
        T: WireElem + Send + Sync + 'static,
        Op: listkit::ScanOp<T> + Send + Sync + 'static,
    {
        src.finish(Request::frame_scan(src.list(), starts, op), sharded)
    }
    let (src, values) = (&src, Some(values));
    match op {
        WireOp::Add => submit::<i64>(engine, scan(src, starts, AddOp, sharded), values, opts, ctx),
        WireOp::Max => submit::<i64>(engine, scan(src, starts, MaxOp, sharded), values, opts, ctx),
        WireOp::Min => submit::<i64>(engine, scan(src, starts, MinOp, sharded), values, opts, ctx),
        WireOp::Xor => submit::<u64>(engine, scan(src, starts, XorOp, sharded), values, opts, ctx),
        WireOp::Affine => {
            submit::<Affine>(engine, scan(src, starts, AffineOp, sharded), values, opts, ctx)
        }
    }
}

/// A frame longer than [`READ_CHUNK`], read straight into a pooled
/// buffer of its own: its wire bytes go to `buf[lead..end]`, of which
/// `buf[lead..filled]` have arrived. A scan frame's lead puts its values
/// on a payload boundary with room for the OUTPUT header ahead of them
/// ([`protocol::payload_lead`]), so its reply opens over them where they
/// were read; any other frame has no lead and its buffer goes back to
/// the pool once it is answered.
struct FrameBuf {
    buf: Vec<u8>,
    lead: usize,
    filled: usize,
    end: usize,
}

impl FrameBuf {
    fn complete(&self) -> bool {
        self.filled == self.end
    }
}

/// One connection's state in the reactor: the socket, read buffer
/// (partial and waiting frames), pending-reply frame queue,
/// handshake state, and the in-flight set.
struct Conn {
    id: u64,
    sock: Transport,
    /// Unparsed inbound bytes; `rpos` marks how far parsing consumed.
    /// Stays about a chunk long: a longer frame moves to `big`.
    rbuf: Vec<u8>,
    rpos: usize,
    /// A frame longer than [`READ_CHUNK`] in its own buffer, partial or
    /// waiting; it comes before every byte in `rbuf`.
    big: Option<FrameBuf>,
    /// Whole reply frames not yet fully written, oldest first; `wpos`
    /// marks how far the socket accepted the front one's wire bytes.
    wq: VecDeque<OutFrame>,
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
    /// Close once `wq` fully drains (goodbye frame already queued).
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
            big: None,
            wq: VecDeque::new(),
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
        !self.wq.is_empty()
    }

    fn pending_bytes(&self) -> usize {
        self.wq.iter().map(|f| f.wire().len()).sum::<usize>() - self.wpos
    }

    /// Whether the reactor should poll this connection for input.
    fn wants_read(&self, drained: bool) -> bool {
        !self.dead
            && !self.eof
            && !self.close_after_flush
            && !drained
            && !self.blocked
            && self.pending_bytes() < PENDING_HIGH_WATERMARK
    }

    /// No job in flight and no reply owed. A waiting or partial frame
    /// does not count: past the drain grace it is abandoned.
    fn idle(&self) -> bool {
        self.inflight.is_empty() && !self.pending_write()
    }

    /// Move the partial frame at the front of the unparsed bytes, whose
    /// length prefix says it is `frame_len` bytes long, into a pooled
    /// buffer of its own when it is longer than [`READ_CHUNK`] and its
    /// job header has arrived ([`protocol::JOB_HEAD_MAX`] body bytes):
    /// what has arrived is copied once, and later reads go straight to
    /// the rest of the frame.
    fn promote(&mut self, pool: &BufPool, frame_len: usize) {
        let head = &self.rbuf[self.rpos..];
        if frame_len <= READ_CHUNK || head.len() < 5 + protocol::JOB_HEAD_MAX {
            return;
        }
        let values_at = protocol::values_offset(head[4], &head[5..])
            .map(|at| 5 + at)
            .filter(|&at| at <= frame_len);
        let mut buf = pool.take(values_at.map_or(0, protocol::payload_lead_max) + frame_len);
        let lead = values_at.map_or(0, |at| protocol::payload_lead(buf.as_ptr() as usize, at));
        let filled = lead + head.len();
        buf[lead..filled].copy_from_slice(head);
        self.rbuf.truncate(self.rpos);
        self.big = Some(FrameBuf { buf, lead, filled, end: lead + frame_len });
    }

    /// Queue one whole reply frame behind any pending bytes and account
    /// it. The buffer is moved, never copied, and goes back to the pool
    /// once written.
    fn push_frame(&mut self, shared: &Shared, frame: OutFrame, is_error: bool) {
        if self.dead {
            return;
        }
        if !self.pending_write() {
            self.write_progress = Instant::now();
        }
        shared.frames_out.fetch_add(1, Ordering::Relaxed);
        shared.bytes_out.fetch_add(frame.wire().len() as u64, Ordering::Relaxed);
        if is_error {
            shared.errors_sent.fetch_add(1, Ordering::Relaxed);
        }
        self.wq.push_back(frame);
    }

    /// Frame a reply the reactor answers itself (handshake, store,
    /// stats and refusals) into a pooled buffer and queue it, in the
    /// pipelined envelope when `request_id` is set.
    fn enqueue(&mut self, shared: &Shared, kind: FrameKind, request_id: Option<u64>, body: &[u8]) {
        if self.dead {
            return;
        }
        match frame_reply(&shared.pool, kind, request_id, body) {
            Some(frame) => self.push_frame(shared, frame, kind == FrameKind::Error),
            None => self.dead = true,
        }
    }

    /// Push queued reply frames at the socket until it would block,
    /// up to [`MAX_IOV`] frames per vectored write. Fault injection
    /// happens once per attempt, before any bytes move: a disabled
    /// plane is a single branch.
    fn flush(&mut self, shared: &Shared, telemetry: &Telemetry) {
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
            let front = &self.wq[0].wire()[self.wpos..];
            if front.len() > 1 && shared.fault.short_write() {
                // Leak a prefix of the front frame onto the wire, then
                // fail: the frame is truncated mid-body exactly as a
                // dying peer would leave it, and the connection closes.
                let _ = self.sock.write(&front[..front.len() / 2]);
                self.dead = true;
                return;
            }
        }
        while !self.wq.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let mut n = 0;
            for (slot, frame) in iov.iter_mut().zip(&self.wq) {
                let wire = frame.wire();
                *slot = IoSlice::new(if n == 0 { &wire[self.wpos..] } else { wire });
                n += 1;
            }
            match self.sock.write_vectored(&iov[..n]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(k) => {
                    shared.writes.fetch_add(1, Ordering::Relaxed);
                    self.retire(k, &shared.pool, telemetry);
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
        if self.close_after_flush {
            self.dead = true;
        }
    }

    /// Account `k` bytes the socket accepted from the front of the
    /// queue; every frame now fully written goes back to the pool, and
    /// every job's OUTPUT these bytes first reached records its
    /// [`Phase::ReplyWrite`].
    fn retire(&mut self, mut k: usize, pool: &BufPool, telemetry: &Telemetry) {
        while let Some(front) = self.wq.front_mut() {
            if k == 0 {
                return;
            }
            if let Some((drained, trace_id)) = front.drained.take() {
                let reply_ns = drained.elapsed().as_nanos() as u64;
                telemetry.record_phase(Phase::ReplyWrite, reply_ns);
                rankd_log!(
                    Level::Trace,
                    "server",
                    "reply trace={trace_id} bytes={} reply-write={:.3}ms",
                    front.wire().len(),
                    reply_ns as f64 / 1e6
                );
            }
            let rest = front.wire().len() - self.wpos;
            if k < rest {
                self.wpos += k;
                return;
            }
            k -= rest;
            self.wpos = 0;
            pool.give(self.wq.pop_front().expect("front frame").buf);
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
            let telemetry = self.engine.telemetry();
            for conn in self.conns.values_mut() {
                if !conn.dead && conn.pending_write() {
                    conn.flush(&shared, telemetry);
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
            let frame = frame_reply(&self.shared.pool, FrameKind::Error, None, &body)
                .expect("a short error body fits the length prefix");
            let _ = sock.set_nonblocking(false);
            if sock.write_all(frame.wire()).is_ok() {
                self.shared.frames_out.fetch_add(1, Ordering::Relaxed);
                self.shared.bytes_out.fetch_add(frame.wire().len() as u64, Ordering::Relaxed);
            }
            self.shared.pool.give(frame.buf);
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

    /// Pull every available byte off the socket, parsing after each
    /// read, until it would block or the connection stops taking input
    /// (one fault probe per tick, not per read, so idle connections
    /// aren't ground down). Bytes arrive a chunk at a time in the read
    /// buffer, except the rest of a frame that parsing moved to its own
    /// buffer ([`Conn::promote`]), which is read straight into place and
    /// never past its end.
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
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(&conn_id) else { return };
            if conn.dead || conn.eof || conn.blocked || conn.close_after_flush {
                return;
            }
            let read = match &mut conn.big {
                // Parsing answers or holds a whole frame before more
                // bytes are read.
                Some(big) if big.complete() => return,
                Some(big) => conn.sock.read(&mut big.buf[big.filled..big.end]),
                None => conn.sock.read(&mut chunk),
            };
            match read {
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
                Ok(k) => match &mut conn.big {
                    Some(big) => big.filled += k,
                    None => conn.rbuf.extend_from_slice(&chunk[..k]),
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
            self.parse_conn(conn_id);
        }
    }

    /// Dispatch every complete frame — a frame in its own buffer first,
    /// then those in the read buffer — stopping at a partial frame, at a
    /// frame the wait rule holds back (left undecoded, `blocked` set),
    /// or once the connection is closing. Frames are decoded where they
    /// lie; the consumed prefix is dropped from the read buffer at the
    /// end. A partial frame longer than [`READ_CHUNK`] at the front
    /// moves to its own buffer ([`Conn::promote`]).
    fn parse_conn(&mut self, conn_id: u64) {
        let max_frame = self.cfg.max_frame;
        let shared = Arc::clone(&self.shared);
        loop {
            if shared.drain_expired() {
                break;
            }
            // The next frame, lent to `dispatch` and put back below: its
            // kind, the buffer holding it, its body's range there, and
            // whether that buffer is the frame's own.
            let (kind, mut buf, body, own) = {
                let Some(conn) = self.conns.get_mut(&conn_id) else { return };
                conn.blocked = false;
                if conn.dead || conn.close_after_flush {
                    break;
                }
                // The next whole frame's range: in its own buffer, which
                // comes before every unparsed byte, or in the read buffer.
                let frame = match &conn.big {
                    Some(big) if !big.complete() => break,
                    Some(big) => big.lead..big.end,
                    None => {
                        let avail = conn.rbuf.len() - conn.rpos;
                        if avail < 4 {
                            break;
                        }
                        let len_bytes: [u8; 4] =
                            conn.rbuf[conn.rpos..conn.rpos + 4].try_into().expect("4 bytes");
                        let len = u32::from_le_bytes(len_bytes);
                        if len == 0 {
                            // Framing is broken in a way no typed reply
                            // can describe; close silently, as a failed
                            // read would.
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
                            conn.promote(&shared.pool, 4 + len);
                            break;
                        }
                        conn.rpos..conn.rpos + 4 + len
                    }
                };
                let bytes = conn.big.as_ref().map_or(&conn.rbuf, |big| &big.buf);
                let (kind, body) = (bytes[frame.start + 4], frame.start + 5..frame.end);
                let header = protocol::job_header(kind, &bytes[body.clone()]);
                if waits(conn, header, &self.engine, shared.shed_queue_depth) {
                    conn.blocked = true;
                    break;
                }
                match conn.big.take() {
                    Some(big) => (kind, big.buf, body, true),
                    None => {
                        conn.rpos = frame.end;
                        (kind, std::mem::take(&mut conn.rbuf), body, false)
                    }
                }
            };
            shared.frames_in.fetch_add(1, Ordering::Relaxed);
            shared.bytes_in.fetch_add(4 + 1 + body.len() as u64, Ordering::Relaxed);
            self.guarded(conn_id, |r| r.dispatch(conn_id, kind, &mut buf, body, own));
            if own {
                // Back to the pool, unless a scan's reply took it.
                if buf.capacity() > 0 {
                    shared.pool.give(buf);
                }
            } else if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.rbuf = buf;
            }
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
    /// `request_id` is set); the tick's end writes it.
    fn enqueue_reply(
        &mut self,
        conn_id: u64,
        kind: FrameKind,
        request_id: Option<u64>,
        body: &[u8],
    ) {
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.enqueue(&self.shared, kind, request_id, body);
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

    /// Decode and answer one frame the wait rule let through. Its body
    /// is `buf[body]`: in the connection's read buffer or, when `own`,
    /// in the frame's own buffer, which a scan's reply takes.
    fn dispatch(
        &mut self,
        conn_id: u64,
        kind: u8,
        buf: &mut Vec<u8>,
        body: Range<usize>,
        own: bool,
    ) {
        let t_decode = Instant::now();
        let req = match protocol::decode_request_parts(kind, &buf[body.clone()]) {
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
            WireRequest::Job(job) => {
                let job = job.map_values(|v| {
                    let v = body.start + v.start..body.start + v.end;
                    if own {
                        Values::InPlace(buf, v)
                    } else {
                        Values::Copy(&buf[v])
                    }
                });
                self.dispatch_job(conn_id, job, decode_ns)
            }
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
    /// mutation lock anyway, so queueing them would only add latency.
    /// A batch only drops the dataset's rank array, so MUTATE_OK reads
    /// mode 1 ("full") with no shards and no artifacts brought up to
    /// date; the wire keeps those fields until its next version.
    fn do_mutate(&mut self, conn_id: u64, handle: u64, edits: &[listkit::dynamic::Edit]) {
        match crate::dynamic::mutate(&self.shared.store, handle, conn_id, edits) {
            Ok(out) => {
                rankd_log!(
                    Level::Debug,
                    "server",
                    "conn {conn_id} MUTATE handle={handle} applied={} len={} in {:.3}ms",
                    out.applied,
                    out.len,
                    out.exec_ns as f64 / 1e6
                );
                let body = protocol::mutate_ok_body(&WireMutateOk {
                    applied: out.applied,
                    len: out.len,
                    incremental: false,
                    dirty_shards: 0,
                    artifacts: 0,
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
    fn dispatch_job(&mut self, conn_id: u64, job: JobFrame<Values<'_>>, decode_ns: u64) {
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
            shared: Arc::clone(&self.shared),
            hub: Arc::clone(&self.hub),
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
                let src = ListSource::resident(&pin);
                ctx._pin = Some(pin);
                src
            }
        };
        let request_id = flags.request_id;
        let err = match submit_job(&self.engine, src, job, flags.sharded, opts, ctx) {
            Ok(()) => {
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
    /// ledgers, queue the frame for the tick's end to write, and resume
    /// parsing (the completion may let a waiting frame through).
    fn handle_completion(&mut self, mut c: Completion) {
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
        if c.kind != FrameKind::Error {
            c.frame.drained = Some((Instant::now(), c.trace_id));
        }
        conn.push_frame(&shared, c.frame, c.kind == FrameKind::Error);
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
            // A frame abandoned part-read leaves its buffer to the pool.
            if let Some(big) = self.conns.remove(&conn_id).and_then(|c| c.big) {
                self.shared.pool.give(big.buf);
            }
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
            // No artifact is maintained across a batch any more; the
            // maintenance gauges read 0 until the next wire version.
            mutate: MutGauges {
                mutations: ms.mutations,
                edits: ms.edits,
                incremental: 0,
                full: 0,
                dirty_shards_patched: 0,
                artifacts_patched: 0,
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
    use crate::protocol::OutputMeta;

    fn completion() -> Completion {
        Completion {
            conn: 1,
            request_id: None,
            arrival_seq: 0,
            kind: FrameKind::Output,
            frame: OutFrame { buf: Vec::new(), lead: 0, end: 0, drained: None },
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
        let hub = Hub::new(wake_tx);
        for _ in 0..8 {
            hub.push(completion());
        }
        assert_eq!(take_wakes(&wake_rx), 1, "eight pushes ride one wake");
        assert_eq!(hub.drain().len(), 8);
        hub.push(completion());
        assert_eq!(take_wakes(&wake_rx), 1, "the first push after a drain wakes again");
    }

    /// A whole frame of `len` wire bytes whose every byte is `fill`,
    /// behind a `lead` of bytes that must never reach the socket.
    fn frame_of(pool: &BufPool, lead: usize, len: usize, fill: u8) -> OutFrame {
        let mut buf = pool.take(lead + len);
        buf[..lead].fill(0xEE);
        buf[lead..lead + len].fill(fill);
        OutFrame { buf, lead, end: lead + len, drained: None }
    }

    #[test]
    fn queued_reply_frames_are_written_from_their_own_buffers() {
        let (server_end, mut peer) = UnixStream::pair().expect("socket pair");
        server_end.set_nonblocking(true).expect("nonblocking");
        let shared = Shared::new(&ServeConfig::new("/nonexistent/unused.sock"));
        let pool = &shared.pool;
        let mut conn = Conn::new(1, Transport::Unix(server_end));
        let telemetry = Telemetry::new(None);
        let reply_writes = || telemetry.phase_snapshot(Phase::ReplyWrite).count();

        // Large enough that the socket takes the first frame only in
        // part, so the second lands behind pending bytes. Both carry a
        // lead skip, as a job's OUTPUT frame does, and a drain stamp.
        let mut first = frame_of(pool, 2, 4 << 20, 0xA1);
        let mut second = frame_of(pool, 5, 3 << 20, 0xB2);
        first.drained = Some((Instant::now(), 1));
        second.drained = Some((Instant::now(), 2));
        let ptrs = [first.buf.as_ptr(), second.buf.as_ptr()];
        conn.push_frame(&shared, first, false);
        assert_eq!(conn.wq[0].buf.as_ptr(), ptrs[0], "queued on an idle connection, not copied");
        conn.flush(&shared, &telemetry);
        assert!(conn.wpos > 0 && conn.wq.len() == 1, "the socket took part of the first frame");
        assert_eq!(reply_writes(), 1, "the first write that carries a frame records it");
        assert_eq!(shared.stats().writes, 1);
        conn.push_frame(&shared, second, false);
        assert_eq!(conn.wq[1].buf.as_ptr(), ptrs[1], "queued behind pending bytes, not copied");

        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; 7 << 20];
            peer.read_exact(&mut got).expect("both frames arrive");
            got
        });
        while conn.pending_write() {
            // Each frame is written from the buffer it was queued in.
            let front = conn.wq.len();
            assert_eq!(conn.wq[0].buf.as_ptr(), ptrs[2 - front]);
            conn.flush(&shared, &telemetry);
            assert!(!conn.dead, "the peer is reading");
            let (count, bytes) = pool.held();
            assert!(count <= POOL_MAX_BUFS && bytes <= POOL_MAX_BYTES);
        }
        let got = reader.join().expect("reader thread");
        assert!(got[..4 << 20].iter().all(|&b| b == 0xA1), "first frame intact");
        assert!(got[4 << 20..].iter().all(|&b| b == 0xB2), "second frame intact, in order");
        assert_eq!(pool.held().0, 2, "both written buffers went back to the pool");
        assert_eq!(reply_writes(), 2, "each frame recorded once, however many writes it took");
        assert_eq!(shared.stats().bytes_out, 7 << 20);

        // The pool keeps at most its bound, in count and in bytes.
        for _ in 0..2 * POOL_MAX_BUFS {
            pool.give(vec![0; 1024]);
            pool.give(vec![0; POOL_MAX_BYTES / 3]);
        }
        let (count, bytes) = pool.held();
        assert!(count <= POOL_MAX_BUFS, "{count} buffers pooled");
        assert!(bytes <= POOL_MAX_BYTES, "{bytes} bytes pooled");
    }

    /// The frame a typed result encodes to: [`protocol::reply_frame_into`]
    /// around [`protocol::output_body_into`].
    fn typed_frame<T: WireElem>(
        meta: &OutputMeta,
        values: &[T],
        request_id: Option<u64>,
    ) -> Vec<u8> {
        let mut frame = Vec::new();
        let len = protocol::output_body_len::<T>(values.len());
        protocol::reply_frame_into(&mut frame, FrameKind::Output, request_id, len, |b| {
            protocol::output_body_into(meta, values, b)
        })
        .expect("frame fits");
        frame
    }

    /// Check one worker-written OUTPUT frame against the typed
    /// encoding of `want`, and that its payload sits 8-aligned in the
    /// buffer; returns the frame's metadata.
    fn check_frame<T: WireElem>(
        c: &Completion,
        request_id: Option<u64>,
        want: &[T],
        case: &str,
    ) -> OutputMeta {
        assert_eq!(c.kind, FrameKind::Output, "{case}: reply kind");
        assert_eq!(c.request_id, request_id, "{case}: routed id");
        let header = if request_id.is_some() { 13 } else { 5 };
        let payload = &c.frame.buf[c.frame.lead + header + protocol::OUTPUT_META_BYTES..];
        assert_eq!(payload.as_ptr() as usize % 8, 0, "{case}: payload 8-aligned");
        let wire = c.frame.wire();
        let frame =
            protocol::read_frame(&mut &wire[..], u32::MAX).expect("frame").expect("one frame");
        let body = match request_id {
            Some(id) => {
                let (echoed, inner) = protocol::decode_pipelined(&frame.body).expect("envelope");
                assert_eq!(echoed, id, "{case}: echoed id");
                inner
            }
            None => &frame.body[..],
        };
        let (meta, _) = protocol::decode_output::<T>(body).expect("OUTPUT body");
        assert!(wire == typed_frame(&meta, want, request_id), "{case}: frame bytes differ");
        meta
    }

    #[test]
    fn worker_written_frames_are_the_typed_encoding_with_an_aligned_payload() {
        use crate::engine::EngineConfig;
        use listkit::ops::Affine;
        use listkit::segmented;
        use listrank::Algorithm;

        let n = 20_000;
        let engine = Engine::new(
            EngineConfig::default().with_workers(1).with_inner_threads(2).with_shard_budget(4096),
        );
        let shared = Arc::new(Shared::new(&ServeConfig::new("/nonexistent/unused.sock")));
        let (wake_tx, _wake_rx) = UnixStream::pair().expect("socket pair");
        let hub = Arc::new(Hub::new(wake_tx));
        let list = Arc::new(listkit::gen::random_list(n, 0x21));
        let handle = shared.store.put(1, Arc::clone(&list)).expect("PUT").handle;

        let i64s: Vec<i64> = (0..n as i64).map(|i| i % 23 - 11).collect();
        let u64s: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let affs: Vec<Affine> = (0..n as i64).map(|i| Affine::new(i % 5 - 2, i % 7 - 3)).collect();
        let starts: Vec<bool> = (0..n).map(|v| v % 97 == 0).collect();
        // A job frame's values as the reactor hands them over: their
        // encodings, borrowed from the frame body.
        fn wire<T: WireElem>(values: &[T]) -> Vec<u8> {
            let mut bytes = Vec::new();
            protocol::put_slice(values, &mut bytes);
            bytes
        }
        let (i64_le, u64_le, aff_le) = (wire(&i64s), wire(&u64s), wire(&affs));
        let serial = |op: WireOp| match op {
            WireOp::Add => listkit::serial::scan(&list, &i64s, &AddOp),
            WireOp::Max => listkit::serial::scan(&list, &i64s, &MaxOp),
            WireOp::Min => listkit::serial::scan(&list, &i64s, &MinOp),
            _ => unreachable!("i64 operators only"),
        };
        let ranks = listkit::serial::rank(&list);
        let seg = segmented::serial_segmented_scan(&list, &i64s, &starts, &AddOp);
        let i64_ops = [WireOp::Add, WireOp::Max, WireOp::Min].map(|op| (op, serial(op)));
        let copied = |values| Values::Copy(values);

        let routes: [(&str, bool, Option<Algorithm>, bool); 5] = [
            ("serial", false, Some(Algorithm::Serial), false),
            ("reid-miller", false, Some(Algorithm::ReidMiller), false),
            ("wyllie", false, Some(Algorithm::Wyllie), false),
            ("sharded inline", true, None, false),
            ("sharded resident", true, None, true),
        ];
        let mut served = 0;
        for (route, sharded, pin, resident) in routes {
            for request_id in [None, Some(7u64)] {
                let run = |job: Job<Values<'_>>| -> Completion {
                    let src = if resident {
                        ListSource::resident(&shared.store.get(handle, 1).expect("get"))
                    } else {
                        ListSource::Inline(Arc::clone(&list))
                    };
                    let ctx = ReplyCtx {
                        shared: Arc::clone(&shared),
                        hub: Arc::clone(&hub),
                        conn: 1,
                        request_id,
                        arrival_seq: 0,
                        trace_id: 99,
                        _pin: None,
                    };
                    let opts =
                        JobOptions { algorithm: pin, ..JobOptions::default() }.with_trace_id(99);
                    submit_job(&engine, src, job, sharded, opts, ctx).expect("submit");
                    loop {
                        let mut done = hub.drain();
                        if let Some(c) = done.pop() {
                            assert!(done.is_empty(), "one job, one reply");
                            return c;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                };
                let case = |what: &str| format!("{route} {what} (request id {request_id:?})");
                let mut metas =
                    vec![check_frame(&run(Job::Rank), request_id, &ranks, &case("rank"))];
                for (op, want) in &i64_ops {
                    let job = Job::Scan { op: *op, values: copied(&i64_le) };
                    metas.push(check_frame(&run(job), request_id, want, &case("i64 scan")));
                }
                let xor = Job::Scan { op: WireOp::Xor, values: copied(&u64_le) };
                let want = listkit::serial::scan(&list, &u64s, &XorOp);
                metas.push(check_frame(&run(xor), request_id, &want, &case("xor")));
                let aff = Job::Scan { op: WireOp::Affine, values: copied(&aff_le) };
                let want = listkit::serial::scan(&list, &affs, &AffineOp);
                metas.push(check_frame(&run(aff), request_id, &want, &case("affine")));
                let segj = Job::SegScan {
                    op: WireOp::Add,
                    starts: starts.clone(),
                    values: copied(&i64_le),
                };
                metas.push(check_frame(&run(segj), request_id, &seg, &case("segmented add")));
                for meta in &metas {
                    assert_eq!(meta.trace_id, 99, "{route}: trace id sealed in");
                    match (pin, resident) {
                        (Some(alg), _) => {
                            assert_eq!((meta.algorithm, meta.shards), (alg, 0), "{route}")
                        }
                        // Served from the dataset's kept rank array,
                        // under the algorithm that built it.
                        (None, true) => {
                            let (_, kept) = shared.store.get(handle, 1).expect("get").snapshot();
                            let built = kept.expect("the first query kept the ranks").algorithm();
                            assert_eq!((meta.algorithm, meta.shards), (built, 0), "{route}");
                        }
                        (None, false) => assert!(meta.shards > 1, "{route}: ran sharded"),
                    }
                }
                served += metas.len();
            }
        }
        assert_eq!(served, 5 * 2 * 7);
    }

    #[test]
    fn a_big_scan_is_answered_from_the_buffer_its_values_were_read_into() {
        use crate::engine::EngineConfig;
        use protocol::ReqFlags;

        let path =
            std::env::temp_dir().join(format!("rankd-unit-{}-in-place.sock", std::process::id()));
        let engine = Engine::new(EngineConfig::default().with_workers(1).with_inner_threads(1));
        let server = Server::bind(Arc::new(engine), ServeConfig::new(&path)).expect("bind");
        let mut reactor = server.into_reactor().expect("reactor");
        let (server_end, mut peer) = UnixStream::pair().expect("socket pair");
        server_end.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn::new(1, Transport::Unix(server_end));
        conn.greeted = true;
        reactor.conns.insert(1, conn);

        // 256 KiB of values: four read chunks.
        let n = 1 << 15;
        let list = Arc::new(listkit::gen::random_list(n, 0x1b));
        let handle = reactor.shared.store.put(1, Arc::clone(&list)).expect("PUT").handle;
        let values: Vec<i64> = (0..n as i64).map(|i| i % 19 - 9).collect();
        let want = listkit::serial::scan(&list, &values, &AddOp);
        for (deadline_ms, request_id) in [(None, None), (Some(60_000), Some(3))] {
            let flags = ReqFlags { deadline_ms, request_id, ..ReqFlags::default() };
            let body = protocol::scan_h_body_flags(handle, &values, WireOp::Add, flags);
            let mut frame = Vec::new();
            protocol::write_frame(&mut frame, FrameKind::ScanH as u8, &body).expect("frame");
            let values_at =
                5 + protocol::values_offset(FrameKind::ScanH as u8, &body).expect("a scan");

            // The first piece holds the job header: the frame moves to a
            // buffer of its own, its values on a payload boundary.
            peer.write_all(&frame[..4096]).expect("first piece");
            reactor.read_conn(1);
            let big = reactor.conns[&1].big.as_ref().expect("a frame in its own buffer");
            let read_at = big.buf.as_ptr() as usize + big.lead + values_at;
            assert_eq!(read_at % protocol::PAYLOAD_ALIGN, 0, "values on a payload boundary");
            assert!(big.lead + values_at >= protocol::OUTPUT_HEAD_MAX, "room for the header");

            let rest = frame[4096..].to_vec();
            let writer = std::thread::spawn(move || {
                peer.write_all(&rest).expect("the rest");
                peer
            });
            let c = loop {
                reactor.read_conn(1);
                if let Some(c) = reactor.hub.drain().pop() {
                    break c;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            peer = writer.join().expect("writer thread");
            check_frame(&c, request_id, &want, "in-place SCAN_H");
            let header = if request_id.is_some() { 13 } else { 5 };
            let payload_at =
                c.frame.buf.as_ptr() as usize + c.frame.lead + header + protocol::OUTPUT_META_BYTES;
            assert_eq!(payload_at, read_at, "the payload is where the values were read");
            let rbuf = reactor.conns[&1].rbuf.capacity();
            assert!(rbuf <= READ_CHUNK, "the read buffer stayed a chunk, not {rbuf} bytes");
            reactor.handle_completion(c);
        }
        drop(reactor);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pool_hands_out_the_smallest_buffer_that_fits() {
        let pool = BufPool::default();
        for cap in [64usize, 4096, 1 << 20] {
            pool.give(vec![0; cap]);
        }
        assert_eq!(pool.take(100).capacity(), 4096);
        assert_eq!(pool.take(1 << 20).capacity(), 1 << 20);
        let fresh = pool.take(2 << 20);
        assert!(fresh.len() >= 2 << 20, "nothing fits: a fresh buffer");
        assert_eq!(fresh.len(), fresh.capacity(), "initialised to its capacity");
        assert_eq!(pool.held().0, 1, "the 64-byte buffer stays pooled");

        // A rank reply and a segmented scan frame over the same list fit
        // one buffer, whichever of them took it first.
        let n = 1 << 18;
        let rank_reply = protocol::payload_lead_max(0) + 8 * n;
        let segscan_frame = protocol::payload_lead_max(usize::MAX) + 4 + 1 + 14 + n / 8 + 8 * n;
        assert!(pool.take(rank_reply).len() >= segscan_frame);
        assert!(pool.take(segscan_frame).len() >= rank_reply);
    }

    #[test]
    fn small_replies_leave_the_big_pooled_buffer_whole() {
        let pool = BufPool::default();
        let big = pool.take(4 << 20);
        let (ptr, cap) = (big.as_ptr(), big.capacity());
        pool.give(big);
        let body = protocol::put_ok_body(7, 4096);
        let frame = frame_reply(&pool, FrameKind::PutOk, None, &body).expect("a short frame");
        assert_eq!(frame.buf.as_ptr(), ptr, "the only pooled buffer answers the small reply");
        let mut want = Vec::new();
        protocol::write_frame(&mut want, FrameKind::PutOk as u8, &body).expect("frame to a Vec");
        assert_eq!(frame.wire(), &want[..], "the reply is exactly its frame");
        pool.give(frame.buf);
        let big = pool.take(4 << 20);
        assert_eq!(big.as_ptr(), ptr, "the big buffer came back");
        assert_eq!((big.len(), big.capacity()), (cap, cap), "nothing truncated it");
    }
}
