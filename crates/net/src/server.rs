//! The threaded serving runtime: an acceptor thread plus, per
//! connection, a reader / completer pair that carries [`Ticket`]
//! results back onto the socket.
//!
//! The division of labour keeps every blocking point bounded:
//!
//! * the **reader** reassembles frames in a [`FrameReader`] (a frame
//!   split across a read timeout stays buffered, never dropped) and
//!   runs admission control (tenant
//!   limits first, then the backend's `try_submit`), so a saturated
//!   cluster answers with a typed [`Frame::RetryAfter`] instead of a
//!   stalled or dropped connection. Each accepted ticket gets a
//!   [`Ticket::on_complete`] callback that pushes its result onto the
//!   connection's completion queue;
//! * the **completer** blocks until that queue is non-empty, takes
//!   everything in it and delivers it as one write — **out of
//!   submission order**, as the executors finish, with no polling, no
//!   time slices and no sweeps.
//!
//! Both sides write through one `ConnWriter` mutex, each call
//! coalescing its frames into a single `write` — a burst of
//! completions costs one syscall (and one packet on the nodelay
//! socket), and partial writes never interleave. A peer that stops
//! reading eventually blocks the writer mid-send; that backpressure
//! deliberately propagates to the reader rather than growing an
//! unbounded frame queue.
//!
//! Graceful drain ([`WireServer::shutdown`]): the acceptor stops
//! (listener refused), readers refuse new submissions with
//! [`RetryReason::Draining`], completers deliver every accepted
//! in-flight ticket, then each connection says [`Frame::Bye`] and
//! closes. Zero accepted responses are lost.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modsram_bigint::UBig;
use modsram_core::cluster::{ClusterHandle, ClusterSubmitError};
use modsram_core::service::{ServiceError, SubmitError, SubmitHandle, Ticket};

use crate::frame::{write_frame, Frame, FrameReader, RetryReason, WireError, DEFAULT_MAX_PAYLOAD};
use crate::stats::{NetMeter, NetStats};
use crate::tenant::{TenantCell, TenantRefusal, TenantRegistry};

/// What the wire server submits into: a single service tile or a whole
/// cluster. Tile backends exist for tenant-pinned deployments (and are
/// how a live [`drain_tile`](modsram_core::cluster::ServiceCluster::drain_tile)
/// surfaces as [`RetryReason::TilePaused`] at the wire boundary —
/// grab the tile via
/// [`tile_service`](modsram_core::cluster::ServiceCluster::tile_service)).
#[derive(Clone)]
pub enum NetBackend {
    /// One tile's submission handle.
    Tile(SubmitHandle),
    /// A cluster's routing handle.
    Cluster(ClusterHandle),
}

/// Outcome of offering one job to the backend.
enum Admission {
    Accepted(Ticket),
    Retry(RetryReason),
    /// The backend is gone for good — answered as a terminal
    /// [`Frame::JobFailed`], not a retry hint.
    Dead(&'static str),
}

impl NetBackend {
    fn try_submit(&self, job: modsram_core::dispatch::MulJob) -> Admission {
        match self {
            NetBackend::Tile(handle) => match handle.try_submit(job) {
                Ok(ticket) => Admission::Accepted(ticket),
                Err(SubmitError::QueueFull) => Admission::Retry(RetryReason::QueueFull),
                Err(SubmitError::Paused) => Admission::Retry(RetryReason::TilePaused),
                Err(SubmitError::Stopped) => Admission::Dead("tile stopped"),
            },
            NetBackend::Cluster(handle) => match handle.try_submit(job) {
                Ok(ticket) => Admission::Accepted(ticket),
                Err(ClusterSubmitError::AllTilesSaturated { tried }) => {
                    Admission::Retry(RetryReason::Saturated {
                        tried: tried as u32,
                    })
                }
                Err(ClusterSubmitError::Stopped) => Admission::Dead("cluster stopped"),
            },
        }
    }
}

/// Tunables for one [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Per-frame payload cap (oversized frames are refused before
    /// allocation and fail the connection).
    pub max_frame_bytes: u32,
    /// Backoff hint put in [`Frame::RetryAfter`] for backpressure
    /// refusals (rate-limit refusals compute their own from the token
    /// deficit).
    pub retry_after_hint: Duration,
    /// Socket read timeout — the granularity at which idle readers
    /// notice a server drain.
    pub read_timeout: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_frame_bytes: DEFAULT_MAX_PAYLOAD,
            retry_after_hint: Duration::from_millis(1),
            read_timeout: Duration::from_millis(20),
        }
    }
}

struct ServerShared {
    backend: NetBackend,
    registry: Arc<TenantRegistry>,
    config: WireConfig,
    meter: NetMeter,
    draining: AtomicBool,
}

/// One finished job awaiting its terminal frame: request id, admission
/// time, result.
type Finished = (u64, Instant, Result<UBig, ServiceError>);

/// The connection's completion queue: ticket callbacks push, the
/// completer drains.
struct PendingQueue {
    state: Mutex<PendingState>,
    wake: Condvar,
}

struct PendingState {
    /// Finished jobs, in completion order.
    done: Vec<Finished>,
    /// Accepted jobs whose callback has not pushed yet.
    inflight: usize,
    /// The reader admits no more jobs (Goodbye, EOF, error, or an
    /// observed drain), so only callbacks can push from here on.
    admissions_closed: bool,
}

impl PendingQueue {
    /// A ticket callback's push. Only the empty → non-empty transition
    /// wakes the completer: it parks only on an empty queue.
    fn push(&self, finished: Finished) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let was_empty = state.done.is_empty();
        state.done.push(finished);
        state.inflight = state.inflight.saturating_sub(1);
        drop(state);
        if was_empty {
            self.wake.notify_one();
        }
    }

    fn close_admissions(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.admissions_closed = true;
        drop(state);
        self.wake.notify_one();
    }
}

/// The connection's shared write half. Reader (refusals, failures)
/// and completer (deliveries, `Bye`) serialise through the mutex; each
/// [`ConnWriter::send`] coalesces its frames into one buffer and one
/// `write_all`.
struct ConnWriter {
    state: Mutex<ConnWriterState>,
}

struct ConnWriterState {
    stream: TcpStream,
    /// Reused encode buffer.
    buf: Vec<u8>,
    /// Set on the first write failure: the peer vanished, every later
    /// send becomes a no-op so ticket draining can still finish.
    dead: bool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            state: Mutex::new(ConnWriterState {
                stream,
                buf: Vec::with_capacity(4096),
                dead: false,
            }),
        }
    }

    fn send(&self, meter: &NetMeter, tenant: Option<&str>, frames: &[Frame]) {
        if frames.is_empty() {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.dead {
            return;
        }
        let mut buf = std::mem::take(&mut state.buf);
        buf.clear();
        for frame in frames {
            frame.encode(&mut buf);
        }
        meter.frames_out_batch(tenant, frames.len() as u64, buf.len());
        if state.stream.write_all(&buf).is_err() {
            state.dead = true;
        }
        state.buf = buf;
    }

    /// Flushes and shuts the socket down (both directions) — unblocks
    /// a reader parked in `read`, which is how a drain reaches clients
    /// that never say `Goodbye`.
    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = state.stream.flush();
        let _ = state.stream.shutdown(std::net::Shutdown::Both);
        state.dead = true;
    }
}

/// A TCP front-end serving one backend to authenticated tenants.
///
/// Bind with [`WireServer::bind`], connect with
/// [`crate::client::WireClient`], stop with [`WireServer::shutdown`]
/// (graceful drain) — dropping the server also drains it.
pub struct WireServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stopped: bool,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and
    /// starts the acceptor.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: NetBackend,
        registry: Arc<TenantRegistry>,
        config: WireConfig,
    ) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ServerShared {
            backend,
            registry,
            config,
            meter: NetMeter::new(),
            draining: AtomicBool::new(false),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            // bind() already returns io::Result, so a refused thread
            // spawn reports through the same channel as a refused port.
            std::thread::Builder::new()
                .name("wire-acceptor".into())
                .spawn(move || accept_loop(listener, shared, conns))?
        };
        Ok(WireServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            conns,
            stopped: false,
        })
    }

    /// The bound address (the ephemeral port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live metering snapshot.
    pub fn stats(&self) -> NetStats {
        self.shared.meter.snapshot()
    }

    /// `true` once a drain has started.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Graceful drain: refuse the listener, refuse new submissions
    /// with [`RetryReason::Draining`], deliver every accepted
    /// in-flight response, close every connection, and return the
    /// final metering snapshot.
    pub fn shutdown(mut self) -> NetStats {
        self.drain();
        self.shared.meter.snapshot()
    }

    fn drain(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.draining.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Connection threads join their own completer and writer, so
        // draining the vector drains the whole runtime. New handles
        // can't appear: the acceptor is already gone.
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.draining.load(Ordering::Acquire) {
            // Dropping the listener refuses new connections at the OS
            // level while existing ones drain.
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.meter.connection_accepted();
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("wire-conn".into())
                    .spawn(move || connection_main(stream, conn_shared));
                match spawned {
                    Ok(handle) => conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(handle),
                    // Thread exhaustion sheds this connection (the
                    // dropped stream closes the socket) instead of
                    // killing the acceptor for everyone.
                    Err(_) => shared.meter.connection_closed(),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Reads one frame, treating read timeouts as "check the drain flag
/// and keep waiting". `Ok(None)` is a clean EOF. A frame whose bytes
/// straddle a timeout is not lost: `frames` keeps the partial frame.
///
/// With `bail_on_drain` (the handshake phase, where no completer
/// exists yet to close the socket) a drain aborts the read instead of
/// closing admissions.
fn read_frame_patient(
    stream: &mut TcpStream,
    frames: &mut FrameReader,
    shared: &ServerShared,
    pending: &PendingQueue,
    bail_on_drain: bool,
) -> Result<Option<(Frame, usize)>, WireError> {
    loop {
        match frames.read_frame(stream) {
            Ok(got) => return Ok(got),
            Err(WireError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle sockets still observe the drain promptly.
                if shared.draining.load(Ordering::Acquire) {
                    if bail_on_drain {
                        return Err(WireError::ConnectionClosed);
                    }
                    pending.close_admissions();
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn connection_main(mut stream: TcpStream, shared: Arc<ServerShared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));

    let pending = Arc::new(PendingQueue {
        state: Mutex::new(PendingState {
            done: Vec::new(),
            inflight: 0,
            admissions_closed: false,
        }),
        wake: Condvar::new(),
    });

    // ---- handshake: first frame must be Hello -------------------------
    let mut frames = FrameReader::new(shared.config.max_frame_bytes);
    let hello = read_frame_patient(&mut stream, &mut frames, &shared, &pending, true);
    let tenant: Arc<TenantCell> = match hello {
        Ok(Some((Frame::Hello { tenant, key }, bytes))) => {
            shared.meter.frame_in(None, bytes);
            match shared.registry.authenticate(&tenant, key) {
                Ok(cell) => {
                    let ok = Frame::HelloOk {
                        max_inflight: cell.limits().max_inflight,
                    };
                    match write_frame(&mut stream, &ok) {
                        Ok(n) => shared.meter.frame_out(Some(cell.name()), n),
                        Err(_) => {
                            shared.meter.connection_closed();
                            return;
                        }
                    }
                    cell
                }
                Err(why) => {
                    shared.meter.auth_failure();
                    let frame = Frame::HelloErr {
                        reason: why.to_string(),
                    };
                    if let Ok(n) = write_frame(&mut stream, &frame) {
                        shared.meter.frame_out(None, n);
                    }
                    shared.meter.connection_closed();
                    return;
                }
            }
        }
        Ok(Some((_, bytes))) => {
            shared.meter.frame_in(None, bytes);
            shared.meter.auth_failure();
            let frame = Frame::HelloErr {
                reason: "expected Hello as the first frame".into(),
            };
            if let Ok(n) = write_frame(&mut stream, &frame) {
                shared.meter.frame_out(None, n);
            }
            shared.meter.connection_closed();
            return;
        }
        Ok(None) | Err(_) => {
            shared.meter.connection_closed();
            return;
        }
    };

    // ---- completer ----------------------------------------------------
    // A socket that can't be cloned can't carry responses; close it
    // before any job is admitted rather than panic the acceptor's
    // child and strand the tenant session.
    let Ok(write_half) = stream.try_clone() else {
        shared.meter.connection_closed();
        return;
    };
    let writer = Arc::new(ConnWriter::new(write_half));
    let completer = {
        let conn_shared = Arc::clone(&shared);
        let pending = Arc::clone(&pending);
        let tenant = Arc::clone(&tenant);
        let writer = Arc::clone(&writer);
        let spawned = std::thread::Builder::new()
            .name("wire-completer".into())
            .spawn(move || completer_loop(conn_shared, pending, tenant, writer));
        match spawned {
            Ok(handle) => handle,
            // Without a completer no response can ever be delivered;
            // shed the connection while nothing is in flight yet.
            Err(_) => {
                shared.meter.connection_closed();
                return;
            }
        }
    };

    // ---- reader loop (this thread) ------------------------------------
    reader_loop(
        &mut stream,
        &mut frames,
        &shared,
        &pending,
        &tenant,
        &writer,
    );

    let _ = completer.join();
    shared.meter.connection_closed();
}

fn reader_loop(
    stream: &mut TcpStream,
    frames: &mut FrameReader,
    shared: &ServerShared,
    pending: &Arc<PendingQueue>,
    tenant: &Arc<TenantCell>,
    writer: &ConnWriter,
) {
    while let Ok(Some((frame, bytes))) = read_frame_patient(stream, frames, shared, pending, false)
    {
        shared.meter.frame_in(Some(tenant.name()), bytes);
        match frame {
            Frame::SubmitBatch { first_req_id, jobs } => {
                for (i, job) in jobs.into_iter().enumerate() {
                    admit_one(
                        shared,
                        pending,
                        tenant,
                        writer,
                        first_req_id.wrapping_add(i as u64),
                        job,
                    );
                }
            }
            Frame::Goodbye => break,
            // Anything else from a client is a protocol error; close
            // rather than guess.
            _ => break,
        }
    }
    pending.close_admissions();
}

fn admit_one(
    shared: &ServerShared,
    pending: &Arc<PendingQueue>,
    tenant: &Arc<TenantCell>,
    writer: &ConnWriter,
    req_id: u64,
    job: modsram_core::dispatch::MulJob,
) {
    let t0 = Instant::now();
    let hint = shared.config.retry_after_hint.as_millis() as u32;
    // Drain check first: once observed, this reader never admits
    // again, which is what lets the completer exit safely.
    if shared.draining.load(Ordering::Acquire) {
        pending.close_admissions();
        reject(shared, tenant, writer, req_id, RetryReason::Draining, hint);
        return;
    }
    // Tenant limits, then the backend.
    match tenant.begin_job() {
        Err(TenantRefusal::RateLimited { retry_after }) => {
            let millis = (retry_after.as_millis() as u32).max(1);
            reject(
                shared,
                tenant,
                writer,
                req_id,
                RetryReason::RateLimited,
                millis,
            );
        }
        Err(TenantRefusal::InflightFull) => {
            reject(
                shared,
                tenant,
                writer,
                req_id,
                RetryReason::InflightCap,
                hint,
            );
        }
        Ok(()) => match shared.backend.try_submit(job) {
            Admission::Accepted(ticket) => {
                shared.meter.job_accepted(tenant.name());
                // Counted before the callback exists: it may fire at
                // once, and its push must find the job in flight.
                pending
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .inflight += 1;
                let queue = Arc::clone(pending);
                ticket.on_complete(move |result| queue.push((req_id, t0, result)));
            }
            Admission::Retry(reason) => {
                tenant.end_job();
                reject(shared, tenant, writer, req_id, reason, hint);
            }
            Admission::Dead(why) => {
                tenant.end_job();
                shared.meter.job_dead(tenant.name());
                writer.send(
                    &shared.meter,
                    Some(tenant.name()),
                    &[Frame::JobFailed {
                        req_id,
                        reason: why.to_string(),
                    }],
                );
            }
        },
    }
}

fn reject(
    shared: &ServerShared,
    tenant: &Arc<TenantCell>,
    writer: &ConnWriter,
    req_id: u64,
    reason: RetryReason,
    millis: u32,
) {
    shared.meter.job_rejected(tenant.name(), reason);
    writer.send(
        &shared.meter,
        Some(tenant.name()),
        &[Frame::RetryAfter {
            req_id,
            reason,
            millis,
        }],
    );
}

fn completer_loop(
    shared: Arc<ServerShared>,
    pending: Arc<PendingQueue>,
    tenant: Arc<TenantCell>,
    writer: Arc<ConnWriter>,
) {
    let mut delivered: u64 = 0;
    let mut burst: Vec<Finished> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut outcomes = DeliveryOutcomes::default();
    loop {
        {
            let mut state = pending.state.lock().unwrap_or_else(PoisonError::into_inner);
            while state.done.is_empty() && !(state.admissions_closed && state.inflight == 0) {
                state = pending
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.done.is_empty() {
                break;
            }
            std::mem::swap(&mut state.done, &mut burst);
        }
        // The whole burst goes out as one write, with one metering
        // pass covering all of it.
        frames.clear();
        for finished in burst.drain(..) {
            delivered += 1;
            frames.push(resolve_unmetered(&tenant, finished, &mut outcomes));
        }
        outcomes.meter(&shared, &tenant);
        writer.send(&shared.meter, Some(tenant.name()), &frames);
    }
    writer.send(
        &shared.meter,
        Some(tenant.name()),
        &[Frame::Bye {
            completed: delivered,
        }],
    );
    writer.close();
}

/// Outcome tallies for one delivery burst, metered in a single pass
/// once the burst's frames are assembled.
#[derive(Default)]
struct DeliveryOutcomes {
    completed: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
}

impl DeliveryOutcomes {
    fn meter(&mut self, shared: &ServerShared, tenant: &Arc<TenantCell>) {
        shared.meter.jobs_done_batch(
            tenant.name(),
            self.completed,
            self.failed,
            &self.latencies_ns,
        );
        self.completed = 0;
        self.failed = 0;
        self.latencies_ns.clear();
    }
}

/// Turns one finished job into its terminal frame without touching
/// the shared meter; the caller tallies the burst into `outcomes` and
/// meters it once.
fn resolve_unmetered(
    tenant: &Arc<TenantCell>,
    (req_id, t0, result): Finished,
    outcomes: &mut DeliveryOutcomes,
) -> Frame {
    outcomes.latencies_ns.push(t0.elapsed().as_nanos() as u64);
    tenant.end_job();
    match result {
        Ok(product) => {
            outcomes.completed += 1;
            Frame::Done { req_id, product }
        }
        Err(err) => {
            outcomes.failed += 1;
            Frame::JobFailed {
                req_id,
                reason: err.to_string(),
            }
        }
    }
}
