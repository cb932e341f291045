//! The streaming front-end of the serving stack: a [`ModSramService`]
//! accepts individual [`MulJob`]s from any number of threads and keeps
//! the dispatch layer saturated without callers ever staging a batch.
//!
//! The ROADMAP's staged path ([`Dispatcher::dispatch_jobs`]) forces
//! every consumer to materialise a `Vec<MulJob>` before anything runs —
//! fine for a solver that owns its whole workload, wrong for a server
//! multiplexing ECDSA verifications, Pedersen commitments, and NTT
//! stages from independent tenants. The service closes that gap with
//! three pieces:
//!
//! * **Submission handles** — [`ModSramService::handle`] returns a
//!   cloneable [`SubmitHandle`]; [`SubmitHandle::submit`] enqueues one
//!   job and returns a [`Ticket`] redeemable for the product (blocking
//!   [`Ticket::wait`], non-blocking [`Ticket::try_poll`], or pushed to
//!   a [`Ticket::on_complete`] callback).
//! * **Backpressure** — the queue is bounded
//!   ([`ServiceConfig::queue_capacity`]). `submit` blocks until space
//!   frees; [`SubmitHandle::try_submit`] refuses immediately with
//!   [`SubmitError::QueueFull`] so open-loop producers can shed load.
//! * **A coalescing batcher** — a dedicated thread drains the queue
//!   into batches of at most [`ServiceConfig::max_batch`] jobs,
//!   waiting at most [`ServiceConfig::flush_interval`] for stragglers,
//!   sorts each batch **multiplicand-major** (modulus-major, then by
//!   `b`) so the paper's Table 1b reuse survives interleaved tenants,
//!   and executes it through the existing [`Dispatcher`] over a shared
//!   [`ContextPool`]. Results are routed back to tickets in
//!   submission order regardless of the coalesced execution order.
//!
//! Engine-generic consumers (curves, Pedersen committers, NTT stages,
//! ECDSA batch verification) reach the service through [`Backend`], a
//! one-method trait handing out the prepared context for a modulus. Its
//! three implementors are [`ContextPool`] (the pooled context itself),
//! [`ModSramService`] and [`ServiceCluster`] (a context whose batches
//! stream through the queue, so one consumer codebase serves a batch
//! tool, one shared tile, or a multi-tile cluster).
//!
//! [`ModSramService::shutdown`] closes the queue, lets the batcher
//! drain every in-flight ticket, and returns the final
//! [`ServiceStats`] (queue depth, coalesce sizes, and p50/p99 latency
//! in both wall-clock nanoseconds and modelled device cycles).
//!
//! # Examples
//!
//! ```
//! use modsram_bigint::UBig;
//! use modsram_core::service::{ModSramService, ServiceConfig};
//! use modsram_core::dispatch::MulJob;
//!
//! let service = ModSramService::for_engine_name(
//!     "montgomery",
//!     ServiceConfig::default(),
//! ).unwrap();
//! let handle = service.handle();
//! let ticket = handle
//!     .submit(MulJob::new(UBig::from(55u64), UBig::from(44u64), UBig::from(97u64)))
//!     .unwrap();
//! assert_eq!(ticket.wait().unwrap(), UBig::from(55u64 * 44 % 97));
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modsram_bigint::UBig;
use modsram_modmul::{ModMulError, PreparedModMul};

use crate::autotune::{AutotuneStats, TunePolicy};
use crate::cluster::{ClusterHandle, ServiceCluster};
use crate::dispatch::{ContextPool, Dispatcher, MulJob};
use crate::error::CoreError;
use crate::modsram::ModSramConfig;

// The modelled-cycle constants and formulas were defined here before
// `crate::cycles` became their shared home; the re-export keeps every
// historical `service::modelled_*` path compiling.
pub use crate::cycles::{modelled_batch_cycles, modelled_mul_cycles, MODELLED_REFILL_CYCLES};

/// Tuning knobs of a [`ModSramService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Dispatcher workers executing each coalesced batch.
    pub workers: usize,
    /// Bound on queued-but-not-yet-drained jobs: `submit` blocks and
    /// `try_submit` returns [`SubmitError::QueueFull`] beyond it.
    pub queue_capacity: usize,
    /// Coalescing size trigger: a batch is dispatched as soon as this
    /// many jobs have been drained.
    pub max_batch: usize,
    /// Coalescing time trigger: after the first job of a batch is
    /// drained, the batcher waits at most this long for more before
    /// flushing a short batch. `Duration::ZERO` flushes immediately
    /// with whatever the queue held.
    pub flush_interval: Duration,
    /// Executor threads pipelining coalesced batches: while one batch
    /// executes, the next is already being sorted and planned. `1`
    /// serialises batches (deterministic batch order; lowest thread
    /// count); the default of 2 overlaps bookkeeping with execution,
    /// which closed-loop throughput needs to track staged dispatch.
    pub pipeline_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 1024,
            max_batch: 512,
            flush_interval: Duration::from_micros(100),
            pipeline_depth: 2,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full ([`SubmitHandle::try_submit`] only —
    /// the blocking [`SubmitHandle::submit`] waits instead).
    QueueFull,
    /// The service has shut down; no further jobs are accepted.
    Stopped,
    /// Admissions are paused ([`ModSramService::pause_admissions`]) —
    /// the tile is draining or on probation. Already-queued jobs keep
    /// executing; new ones are refused without blocking, so a cluster
    /// router can re-route them instead of wedging a producer on a
    /// tile that will never admit again this epoch.
    Paused,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue is full"),
            SubmitError::Stopped => write!(f, "service has shut down"),
            SubmitError::Paused => write!(f, "service admissions are paused"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted job ultimately failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The service stopped before the job completed: an executor
    /// thread panicked mid-batch (its unwind guard fails the batch's
    /// remaining tickets rather than leaving waiters hung). A graceful
    /// [`ModSramService::shutdown`] never produces this — it drains.
    Stopped,
    /// The execution layer rejected the job (bad modulus for the
    /// configured engine, poisoned pool, …).
    Mul(CoreError),
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceError::Stopped => write!(f, "service stopped before the job ran"),
            ServiceError::Mul(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServiceError> for CoreError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Stopped => CoreError::ServiceStopped,
            ServiceError::Mul(core) => core,
        }
    }
}

/// Where one ticket's result stands.
enum Slot {
    /// Not completed, nothing registered.
    Pending,
    /// Not completed; the [`Ticket::on_complete`] callback takes the
    /// result.
    Callback(Box<dyn FnOnce(Result<UBig, ServiceError>) + Send>),
    /// Completed, held for [`Ticket::wait`] and [`Ticket::try_poll`].
    Done(Result<UBig, ServiceError>),
    /// Completed and handed to the callback.
    Delivered,
}

/// One ticket's completion slot.
struct TicketState {
    slot: Mutex<Slot>,
    ready: Condvar,
}

impl TicketState {
    fn new() -> Arc<Self> {
        Arc::new(TicketState {
            slot: Mutex::new(Slot::Pending),
            ready: Condvar::new(),
        })
    }

    /// Delivers a result if none has been delivered yet; returns
    /// whether this call won the slot (later calls are no-ops, which
    /// makes the executor's panic guard idempotent with normal
    /// delivery). A registered callback runs here, after the slot lock
    /// is released.
    fn complete(&self, result: Result<UBig, ServiceError>) -> bool {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        match std::mem::replace(&mut *slot, Slot::Delivered) {
            Slot::Pending => {
                *slot = Slot::Done(result);
                drop(slot);
                self.ready.notify_all();
            }
            Slot::Callback(f) => {
                drop(slot);
                f(result);
            }
            finished => {
                *slot = finished;
                return false;
            }
        }
        true
    }
}

/// A claim on one submitted job's eventual product.
///
/// Redeem with [`Ticket::wait`] (blocking) or poll with
/// [`Ticket::try_poll`]; both may be called repeatedly and from the
/// thread of your choice. Or hand the ticket to
/// [`Ticket::on_complete`] to have the result pushed to a callback
/// instead.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl core::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Ticket {{ done: {} }}", self.is_done())
    }
}

impl Ticket {
    /// Blocks until the job completes and returns its result.
    pub fn wait(&self) -> Result<UBig, ServiceError> {
        let mut slot = self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Slot::Done(result) = &*slot {
                return result.clone();
            }
            slot = self
                .state
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Consumes the ticket and hands its result to `f` exactly once:
    /// on the executor that completes the job, or at once on this
    /// thread if the job has already finished. `f` runs with no lock
    /// of the service held, so it may take its own.
    pub fn on_complete(self, f: impl FnOnce(Result<UBig, ServiceError>) + Send + 'static) {
        let mut slot = self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match std::mem::replace(&mut *slot, Slot::Delivered) {
            Slot::Done(result) => {
                drop(slot);
                f(result);
            }
            // This consumes the only handle, so the slot is pending.
            _ => *slot = Slot::Callback(Box::new(f)),
        }
    }

    /// Returns the result if the job has completed, `None` while it is
    /// still queued or executing.
    pub fn try_poll(&self) -> Option<Result<UBig, ServiceError>> {
        match &*self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
        {
            Slot::Done(result) => Some(result.clone()),
            _ => None,
        }
    }

    /// `true` once a result (success or failure) is available.
    pub fn is_done(&self) -> bool {
        self.try_poll().is_some()
    }
}

/// One accepted job waiting in the queue.
struct Queued {
    job: MulJob,
    ticket: Arc<TicketState>,
    submitted: Instant,
}

/// Queue state guarded by the service mutex.
struct QueueInner {
    jobs: VecDeque<Queued>,
    closed: bool,
    /// Admissions paused (drain/probation seam): submissions are
    /// refused with [`SubmitError::Paused`] while queued jobs keep
    /// draining. Unlike `closed`, this is reversible.
    paused: bool,
}

/// Fixed-size reservoir sample of `u64` observations with a
/// deterministic xorshift64* replacement stream: bounded memory no
/// matter how long the owner runs, unbiased enough for p50/p99
/// reporting. The service's wall/cycle latencies and the wire server's
/// request-to-response latencies both sample through this one type, so
/// percentile quality matches across their artifacts.
#[derive(Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    samples: Vec<u64>,
}

impl Reservoir {
    /// An empty reservoir keeping at most `cap` samples (at least 1).
    pub fn new(cap: usize) -> Self {
        Reservoir {
            cap: cap.max(1),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic, no external RNG dependency.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Records one observation.
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            let j = self.next_rand() % self.seen;
            if let Some(slot) = self.samples.get_mut(j as usize) {
                *slot = v;
            }
        }
    }

    /// Forgets every observation (the sample and the seen-count); the
    /// replacement stream keeps its position so refilled windows stay
    /// deterministic per owner lifetime.
    pub fn clear(&mut self) {
        self.seen = 0;
        self.samples.clear();
    }

    /// Nearest-rank percentiles over the sample, one per entry of `qs`
    /// (each in `[0, 1]`), from a single sort; 0 when nothing has been
    /// observed.
    pub fn percentiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        qs.map(|q| {
            let rank = (sorted.len().saturating_sub(1) as f64 * q.clamp(0.0, 1.0)).round();
            sorted.get(rank as usize).copied().unwrap_or(0)
        })
    }
}

/// Counters and latency reservoirs shared by handles, the batcher, and
/// stats readers.
///
/// Two lifetimes coexist here: the plain counters (`submitted`,
/// `completed`, `batches`, …) accumulate forever, while the
/// **window** metrics (coalesce shape and the two latency reservoirs)
/// cover the span since construction or the last
/// [`ModSramService::reset_window`] — the distinction sweeps need to
/// measure a steady-state phase instead of a lifetime aggregate.
struct StatsCell {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    executor_panics: AtomicU64,
    health_probes: AtomicU64,
    modelled_cycles_total: AtomicU64,
    window_batches: AtomicU64,
    window_jobs: AtomicU64,
    coalesce_min: AtomicU64,
    coalesce_max: AtomicU64,
    wall_ns: Mutex<Reservoir>,
    cycles: Mutex<Reservoir>,
}

impl StatsCell {
    fn new() -> Self {
        StatsCell {
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            executor_panics: AtomicU64::new(0),
            health_probes: AtomicU64::new(0),
            modelled_cycles_total: AtomicU64::new(0),
            window_batches: AtomicU64::new(0),
            window_jobs: AtomicU64::new(0),
            coalesce_min: AtomicU64::new(u64::MAX),
            coalesce_max: AtomicU64::new(0),
            wall_ns: Mutex::new(Reservoir::new(4096)),
            cycles: Mutex::new(Reservoir::new(4096)),
        }
    }

    /// Clears the window metrics (coalesce min/mean/max and both
    /// latency reservoirs); lifetime counters are untouched.
    fn reset_window(&self) {
        self.window_batches.store(0, Ordering::Relaxed);
        self.window_jobs.store(0, Ordering::Relaxed);
        self.coalesce_min.store(u64::MAX, Ordering::Relaxed);
        self.coalesce_max.store(0, Ordering::Relaxed);
        self.wall_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.cycles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// Queue + stats shared between the service, its handles, and the
/// batcher thread.
struct Shared {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    stats: StatsCell,
}

impl Shared {
    fn lock_inner(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The bounded hand-off between the batcher and the executor pool:
/// coalesced batches queue here so sorting/planning/dispatching of
/// batch `N+1` overlaps the execution of batch `N`.
struct ExecQueue {
    inner: Mutex<(VecDeque<Vec<Queued>>, bool)>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl ExecQueue {
    fn new(capacity: usize) -> Self {
        ExecQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a batch, blocking while the pipeline is full.
    fn push(&self, batch: Vec<Queued>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while inner.0.len() >= self.capacity && !inner.1 {
            inner = self
                .not_full
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inner.0.push_back(batch);
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Dequeues the next batch; `None` once closed and drained.
    fn pop(&self) -> Option<Vec<Queued>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(batch) = inner.0.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(batch);
            }
            if inner.1 {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks the pipeline closed; executors drain what remains.
    fn close(&self) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// A cloneable submission endpoint: cheap to hand to every producer
/// thread; all clones feed the one bounded queue.
#[derive(Clone)]
pub struct SubmitHandle {
    shared: Arc<Shared>,
}

impl core::fmt::Debug for SubmitHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "SubmitHandle {{ queue_depth: {} }}",
            self.shared.lock_inner().jobs.len()
        )
    }
}

impl SubmitHandle {
    fn enqueue(&self, job: MulJob, inner: &mut QueueInner) -> Ticket {
        let state = TicketState::new();
        inner.jobs.push_back(Queued {
            job,
            ticket: Arc::clone(&state),
            submitted: Instant::now(),
        });
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        Ticket { state }
    }

    /// Submits one job, blocking while the queue is at capacity.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once the service has shut down,
    /// [`SubmitError::Paused`] while admissions are paused (returned
    /// without blocking, even if the pause lands mid-wait).
    pub fn submit(&self, job: MulJob) -> Result<Ticket, SubmitError> {
        let mut inner = self.shared.lock_inner();
        loop {
            if inner.closed {
                return Err(SubmitError::Stopped);
            }
            if inner.paused {
                return Err(SubmitError::Paused);
            }
            if inner.jobs.len() < self.shared.capacity {
                break;
            }
            inner = self
                .shared
                .not_full
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let ticket = self.enqueue(job, &mut inner);
        drop(inner);
        self.shared.not_empty.notify_one();
        Ok(ticket)
    }

    /// Submits one job without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the queue is at capacity (the
    /// rejection is counted in [`ServiceStats::rejected`]),
    /// [`SubmitError::Stopped`] after shutdown, [`SubmitError::Paused`]
    /// while admissions are paused.
    pub fn try_submit(&self, job: MulJob) -> Result<Ticket, SubmitError> {
        let mut inner = self.shared.lock_inner();
        if inner.closed {
            return Err(SubmitError::Stopped);
        }
        if inner.paused {
            return Err(SubmitError::Paused);
        }
        if inner.jobs.len() >= self.shared.capacity {
            drop(inner);
            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull);
        }
        let ticket = self.enqueue(job, &mut inner);
        drop(inner);
        self.shared.not_empty.notify_one();
        Ok(ticket)
    }

    /// Submits a whole slice of jobs under one queue acquisition —
    /// per-job locking vanishes from the producer's hot path, while
    /// backpressure still applies (the call blocks whenever the queue
    /// is at capacity, releasing the lock until space frees).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] (or [`SubmitError::Paused`]) if the
    /// service stops admitting before every job is queued. Jobs
    /// already queued by then still execute and drain, but their
    /// tickets are not returned — treat the whole call as failed, or
    /// use [`SubmitHandle::submit_many_partial`] to keep the accepted
    /// prefix's tickets.
    pub fn submit_many(&self, jobs: Vec<MulJob>) -> Result<Vec<Ticket>, SubmitError> {
        let (tickets, err) = self.submit_many_partial(jobs);
        match err {
            None => Ok(tickets),
            Some(e) => Err(e),
        }
    }

    /// Bulk submission that never orphans a ticket: queues jobs in
    /// order under one lock acquisition (blocking on capacity like
    /// [`SubmitHandle::submit_many`]) and, if the service stops or
    /// pauses admissions mid-batch, returns the tickets of the
    /// **accepted prefix** alongside the error instead of dropping
    /// them. The accepted jobs still execute and drain; the remainder
    /// was never queued. This is the primitive a cluster router uses so
    /// a tile stopping mid-batch cannot strand waiters whose jobs will
    /// still run.
    pub fn submit_many_partial(&self, jobs: Vec<MulJob>) -> (Vec<Ticket>, Option<SubmitError>) {
        let mut tickets = Vec::with_capacity(jobs.len());
        let mut inner = self.shared.lock_inner();
        for job in jobs {
            loop {
                if inner.closed {
                    drop(inner);
                    self.shared.not_empty.notify_one();
                    return (tickets, Some(SubmitError::Stopped));
                }
                if inner.paused {
                    drop(inner);
                    self.shared.not_empty.notify_one();
                    return (tickets, Some(SubmitError::Paused));
                }
                if inner.jobs.len() < self.shared.capacity {
                    break;
                }
                self.shared.not_empty.notify_one();
                inner = self
                    .shared
                    .not_full
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            tickets.push(self.enqueue(job, &mut inner));
        }
        drop(inner);
        self.shared.not_empty.notify_one();
        (tickets, None)
    }

    /// Jobs currently queued (excludes the batch being executed).
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_inner().jobs.len()
    }
}

/// Point-in-time statistics snapshot of a running service.
///
/// Lifetime counters (`submitted` through `modelled_cycles_total`)
/// accumulate from construction; the coalesce shape and the latency
/// percentiles are **window** metrics covering the span since
/// construction or the last [`ModSramService::reset_window`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Jobs currently queued (not yet drained into a batch).
    pub queue_depth: usize,
    /// Jobs accepted (blocking and non-blocking submissions).
    pub submitted: u64,
    /// `try_submit` calls refused with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs completed with an error.
    pub failed: u64,
    /// Coalesced batches dispatched.
    pub batches: u64,
    /// Executor panics caught by the unwind guard (each one failed its
    /// batch's undelivered tickets with [`ServiceError::Stopped`]).
    pub executor_panics: u64,
    /// [`ModSramService::health`] probes taken, from every caller:
    /// routing consults health per submission, probation per check,
    /// and statistics snapshots (including
    /// [`ServiceCluster::stats`])
    /// once per tile — so on an idle cluster this climbs with the
    /// monitoring cadence, not with traffic.
    pub health_probes: u64,
    /// Total modelled device occupancy, in cycles: the sum of every
    /// dispatched batch's [`modelled_batch_cycles`] makespan. Batches
    /// on one tile are serialised in the modelled domain, so this is
    /// the tile's busy time — the quantity a multi-tile cluster sweep
    /// takes the per-tile max of.
    pub modelled_cycles_total: u64,
    /// Smallest batch dispatched in the window (0 before the first).
    pub coalesce_min: u64,
    /// Largest batch dispatched in the window.
    pub coalesce_max: u64,
    /// Mean jobs per dispatched batch in the window.
    pub coalesce_mean: f64,
    /// Median submit→complete latency, wall-clock nanoseconds
    /// (includes queue wait and coalescing delay). Window metric.
    pub wall_p50_ns: u64,
    /// 99th-percentile wall-clock latency, nanoseconds. Window metric.
    pub wall_p99_ns: u64,
    /// Median modelled latency in device cycles: the
    /// [`modelled_batch_cycles`] makespan of the batch the job rode in.
    /// Window metric.
    pub modelled_p50_cycles: u64,
    /// 99th-percentile modelled latency, device cycles. Window metric.
    pub modelled_p99_cycles: u64,
    /// Context-pool cache hits.
    pub pool_hits: u64,
    /// Context-pool cache misses (preparations run).
    pub pool_misses: u64,
    /// Context-pool LRU evictions.
    pub pool_evictions: u64,
    /// Self-tuning counters when the tile runs an autotuning pool
    /// ([`ModSramService::auto`]): tuned moduli, races run/skipped,
    /// calibration nanoseconds, per-engine wins. `None` on pinned
    /// pools.
    pub autotune: Option<AutotuneStats>,
}

/// A point-in-time capacity/liveness probe of one service tile — the
/// seam a [`ServiceCluster`] routes on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileHealth {
    /// Jobs currently queued (not yet drained into a batch).
    pub queue_depth: usize,
    /// The bounded queue's capacity.
    pub queue_capacity: usize,
    /// `true` once the tile has shut down.
    pub stopped: bool,
    /// `true` while admissions are paused
    /// ([`ModSramService::pause_admissions`]) — the tile is draining
    /// or sitting out a probation window; queued jobs keep executing.
    pub paused: bool,
    /// Executor panics caught so far — a tile whose panics keep
    /// climbing has a poisoned context and should be routed around.
    pub executor_panics: u64,
}

impl TileHealth {
    /// Queue slots still free.
    pub fn headroom(&self) -> usize {
        self.queue_capacity.saturating_sub(self.queue_depth)
    }

    /// `true` while the tile can accept a non-blocking submission.
    pub fn accepting(&self) -> bool {
        !self.stopped && !self.paused && self.headroom() > 0
    }
}

/// The streaming modular-multiplication service (see the module docs).
pub struct ModSramService {
    shared: Arc<Shared>,
    pool: Arc<ContextPool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    config: ServiceConfig,
}

impl core::fmt::Debug for ModSramService {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ModSramService {{ workers: {}, capacity: {}, queue_depth: {} }}",
            self.config.workers,
            self.config.queue_capacity,
            self.queue_depth()
        )
    }
}

impl ModSramService {
    /// Starts a service executing through `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers`, `config.queue_capacity`, or
    /// `config.max_batch` is zero.
    pub fn new(pool: ContextPool, config: ServiceConfig) -> Self {
        Self::with_shared_pool(Arc::new(pool), config)
    }

    /// Starts a service over an already-shared pool (e.g. one also
    /// serving staged dispatch elsewhere).
    ///
    /// # Panics
    ///
    /// As [`ModSramService::new`], plus when the OS refuses to spawn a
    /// service thread — use
    /// [`ModSramService::try_with_shared_pool`] to handle that case.
    pub fn with_shared_pool(pool: Arc<ContextPool>, config: ServiceConfig) -> Self {
        // analyzer: allow(no_panic, panicking convenience ctor by contract; the fallible path is try_with_shared_pool)
        Self::try_with_shared_pool(pool, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Starts a service over an already-shared pool, surfacing a
    /// thread-spawn refusal as [`CoreError::Spawn`] instead of
    /// panicking — the constructor an admission-controlled front-end
    /// (which must shed load, not unwind) should call.
    ///
    /// # Panics
    ///
    /// As [`ModSramService::new`] for zero `workers`,
    /// `queue_capacity`, `max_batch`, or `pipeline_depth` (those are
    /// caller bugs, not runtime conditions).
    ///
    /// # Errors
    ///
    /// [`CoreError::Spawn`] when the OS cannot start an executor or
    /// batcher thread; every thread spawned before the failure is shut
    /// down cleanly before returning.
    pub fn try_with_shared_pool(
        pool: Arc<ContextPool>,
        config: ServiceConfig,
    ) -> Result<Self, CoreError> {
        for (size, what) in [
            (config.workers, "need at least one worker"),
            (config.queue_capacity, "queue capacity must be positive"),
            (config.max_batch, "max batch must be positive"),
            (config.pipeline_depth, "need at least one executor"),
        ] {
            // analyzer: allow(no_panic, constructor preconditions documented under `# Panics`; a zero size is a caller bug, checked once at startup, never per job)
            assert!(size > 0, "{what}");
        }
        let shared = Arc::new(Shared {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
                paused: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity,
            stats: StatsCell::new(),
        });
        let exec_queue = Arc::new(ExecQueue::new(config.pipeline_depth));
        let mut threads = Vec::with_capacity(1 + config.pipeline_depth);
        for e in 0..config.pipeline_depth {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            let config = config.clone();
            let thread_queue = Arc::clone(&exec_queue);
            let spawned = std::thread::Builder::new()
                .name(format!("modsram-exec-{e}"))
                .spawn(move || executor_loop(shared, pool, config, thread_queue));
            match spawned {
                Ok(handle) => threads.push(handle),
                Err(_) => {
                    // Unwind the partial construction: closing the exec
                    // queue wakes and retires the executors spawned so
                    // far, so no thread outlives the failed ctor.
                    exec_queue.close();
                    for t in threads {
                        let _ = t.join();
                    }
                    return Err(CoreError::Spawn {
                        what: "executor thread",
                    });
                }
            }
        }
        let thread_shared = Arc::clone(&shared);
        let thread_config = config.clone();
        let exec_handoff = Arc::clone(&exec_queue);
        let batcher = std::thread::Builder::new()
            .name("modsram-batcher".into())
            .spawn(move || batcher_loop(thread_shared, thread_config, exec_handoff));
        match batcher {
            Ok(handle) => threads.insert(0, handle),
            Err(_) => {
                exec_queue.close();
                for t in threads {
                    let _ = t.join();
                }
                return Err(CoreError::Spawn {
                    what: "batcher thread",
                });
            }
        }
        Ok(ModSramService {
            shared,
            pool,
            threads: Mutex::new(threads),
            config,
        })
    }

    /// Service over a registry engine by name.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownEngine`] for a name absent from the
    /// registry.
    pub fn for_engine_name(name: &str, config: ServiceConfig) -> Result<Self, CoreError> {
        let pool =
            ContextPool::for_engine_name(name).ok_or_else(|| CoreError::unknown_engine(name))?;
        Ok(Self::new(pool, config))
    }

    /// Service over a pool of cycle-accurate ModSRAM devices (one
    /// modulus-loaded device per distinct modulus).
    pub fn for_modsram(device: ModSramConfig, config: ServiceConfig) -> Self {
        Self::new(ContextPool::for_modsram(device), config)
    }

    /// A self-tuning service: each distinct modulus is served by
    /// whatever engine `policy` decides — pinned, profile-table
    /// lookup, or a prepare-time calibration race (see
    /// [`crate::autotune`]). Tuning counters appear in
    /// [`ServiceStats::autotune`].
    pub fn auto(policy: TunePolicy, config: ServiceConfig) -> Self {
        Self::new(ContextPool::auto(policy), config)
    }

    /// A cloneable submission endpoint for producer threads.
    pub fn handle(&self) -> SubmitHandle {
        SubmitHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Submits one job, blocking while the queue is at capacity (see
    /// [`SubmitHandle::submit`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once the service has shut down.
    pub fn submit(&self, job: MulJob) -> Result<Ticket, SubmitError> {
        self.handle().submit(job)
    }

    /// Submits one job without blocking (see
    /// [`SubmitHandle::try_submit`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::Stopped`]
    /// after shutdown.
    pub fn try_submit(&self, job: MulJob) -> Result<Ticket, SubmitError> {
        self.handle().try_submit(job)
    }

    /// The shared context pool (for staged callers riding the same
    /// preparations).
    pub fn pool(&self) -> &Arc<ContextPool> {
        &self.pool
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Jobs currently queued.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_inner().jobs.len()
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared.stats;
        let window_batches = s.window_batches.load(Ordering::Relaxed);
        let window_jobs = s.window_jobs.load(Ordering::Relaxed);
        let min = s.coalesce_min.load(Ordering::Relaxed);
        let [wall_p50, wall_p99] = s
            .wall_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .percentiles([0.50, 0.99]);
        let [cyc_p50, cyc_p99] = s
            .cycles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .percentiles([0.50, 0.99]);
        ServiceStats {
            queue_depth: self.queue_depth(),
            submitted: s.submitted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            // Acquire pairs with the executor's Release bump so a
            // non-zero panic count implies the ticket failures that
            // accompanied it are visible too.
            executor_panics: s.executor_panics.load(Ordering::Acquire),
            health_probes: s.health_probes.load(Ordering::Relaxed),
            modelled_cycles_total: s.modelled_cycles_total.load(Ordering::Relaxed),
            coalesce_min: if min == u64::MAX { 0 } else { min },
            coalesce_max: s.coalesce_max.load(Ordering::Relaxed),
            coalesce_mean: if window_batches == 0 {
                0.0
            } else {
                window_jobs as f64 / window_batches as f64
            },
            wall_p50_ns: wall_p50,
            wall_p99_ns: wall_p99,
            modelled_p50_cycles: cyc_p50,
            modelled_p99_cycles: cyc_p99,
            pool_hits: self.pool.hits(),
            pool_misses: self.pool.misses(),
            pool_evictions: self.pool.evictions(),
            autotune: self.pool.tuner().map(|t| t.stats()),
        }
    }

    /// Starts a fresh statistics **window**: clears the coalesce
    /// min/mean/max aggregates and both latency reservoirs while
    /// leaving every lifetime counter (submitted, completed, batches,
    /// panics, modelled occupancy) untouched.
    ///
    /// Sweeps call this between phases — e.g. after a warm-up pass that
    /// paid the per-modulus preparation cost — so the percentiles and
    /// coalesce shape they report describe one steady-state phase
    /// instead of a lifetime aggregate that smears phases together.
    pub fn reset_window(&self) {
        self.shared.stats.reset_window();
    }

    /// The capacity/liveness probe a cluster router consults before
    /// targeting this tile. Every probe is counted in
    /// [`ServiceStats::health_probes`].
    pub fn health(&self) -> TileHealth {
        self.shared
            .stats
            .health_probes
            .fetch_add(1, Ordering::Relaxed);
        let inner = self.shared.lock_inner();
        TileHealth {
            queue_depth: inner.jobs.len(),
            queue_capacity: self.config.queue_capacity,
            stopped: inner.closed,
            paused: inner.paused,
            // Acquire pairs with the executor's Release bump: a router
            // steering away from a panicking tile must also observe the
            // failure state that justified the bump.
            executor_panics: self.shared.stats.executor_panics.load(Ordering::Acquire),
        }
    }

    /// Pauses admissions: every subsequent (or currently blocked)
    /// submission is refused with [`SubmitError::Paused`], while the
    /// queue keeps draining and every already-accepted ticket still
    /// completes. This is the drain seam a
    /// [`ServiceCluster`] uses: pause,
    /// wait for [`ModSramService::quiesced`], and the tile is empty
    /// without ever being shut down — so it can
    /// [`resume_admissions`](ModSramService::resume_admissions) after a
    /// probation window instead of being rebuilt. Idempotent.
    pub fn pause_admissions(&self) {
        {
            let mut inner = self.shared.lock_inner();
            inner.paused = true;
        }
        // Wake blocked submitters so they observe the pause and refuse
        // instead of waiting for capacity that may never be offered to
        // them again this epoch.
        self.shared.not_full.notify_all();
    }

    /// Re-opens admissions after [`ModSramService::pause_admissions`].
    /// Idempotent; a no-op on a stopped service.
    pub fn resume_admissions(&self) {
        {
            let mut inner = self.shared.lock_inner();
            inner.paused = false;
        }
        self.shared.not_full.notify_all();
    }

    /// `true` while admissions are paused.
    pub fn admissions_paused(&self) -> bool {
        self.shared.lock_inner().paused
    }

    /// `true` once every accepted job has been delivered (completed or
    /// failed) — with admissions paused, the moment the tile is fully
    /// drained. Meaningful as a drain barrier only while no new
    /// submissions can land (paused or stopped).
    pub fn quiesced(&self) -> bool {
        let s = &self.shared.stats;
        let delivered = s.completed.load(Ordering::Acquire) + s.failed.load(Ordering::Acquire);
        delivered == s.submitted.load(Ordering::Acquire)
    }

    /// Gracefully stops the service: refuses new submissions, lets the
    /// batcher drain and complete every queued ticket, joins the
    /// batcher thread, and returns the final statistics. Idempotent.
    pub fn shutdown(&self) -> ServiceStats {
        {
            let mut inner = self.shared.lock_inner();
            inner.closed = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        // The batcher drains the submission queue, forwards the final
        // batches, and closes the executor pipeline; executors finish
        // whatever is in flight before exiting — so joining in order
        // completes every accepted ticket.
        let threads =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in threads {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for ModSramService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drains queued jobs into `batch` until it holds `max_batch` or the
/// queue runs dry.
fn drain_into(inner: &mut QueueInner, batch: &mut Vec<Queued>, max_batch: usize) {
    while batch.len() < max_batch {
        match inner.jobs.pop_front() {
            Some(q) => batch.push(q),
            None => break,
        }
    }
}

/// The batcher thread: wait → coalesce → forward, until the queue is
/// both closed and empty; then close the executor pipeline.
fn batcher_loop(shared: Arc<Shared>, config: ServiceConfig, exec_queue: Arc<ExecQueue>) {
    loop {
        let mut batch: Vec<Queued> = Vec::new();
        {
            let mut inner = shared.lock_inner();
            while inner.jobs.is_empty() && !inner.closed {
                inner = shared
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if inner.jobs.is_empty() && inner.closed {
                drop(inner);
                exec_queue.close();
                return;
            }
            drain_into(&mut inner, &mut batch, config.max_batch);
            // Coalescing window: give stragglers up to `flush_interval`
            // to join this batch, unless it is already full or the
            // service is draining for shutdown.
            if batch.len() < config.max_batch && !inner.closed && !config.flush_interval.is_zero() {
                let deadline = Instant::now() + config.flush_interval;
                while batch.len() < config.max_batch && !inner.closed {
                    if !inner.jobs.is_empty() {
                        drain_into(&mut inner, &mut batch, config.max_batch);
                        continue;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, timeout) = shared
                        .not_empty
                        .wait_timeout(inner, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    inner = guard;
                    if timeout.timed_out() && inner.jobs.is_empty() {
                        break;
                    }
                }
                drain_into(&mut inner, &mut batch, config.max_batch);
            }
        }
        // Capacity freed: wake every blocked submitter.
        shared.not_full.notify_all();
        exec_queue.push(batch);
    }
}

/// An executor thread: sorts, plans, dispatches, and delivers batches
/// handed over by the batcher, until the pipeline closes and drains.
///
/// Execution runs under an unwind guard: if anything in the dispatch
/// path panics, the batch's undelivered tickets fail with
/// [`ServiceError::Stopped`] instead of hanging their waiters, and the
/// executor keeps serving later batches.
fn executor_loop(
    shared: Arc<Shared>,
    pool: Arc<ContextPool>,
    config: ServiceConfig,
    exec_queue: Arc<ExecQueue>,
) {
    let dispatcher = Dispatcher::new(config.workers);
    while let Some(batch) = exec_queue.pop() {
        let tickets: Vec<Arc<TicketState>> = batch.iter().map(|q| Arc::clone(&q.ticket)).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_batch(&shared, &pool, &dispatcher, &config, batch);
        }));
        if outcome.is_err() {
            // Release so a monitor that observes the bumped count also
            // sees the ticket failures published below it (the counter
            // gates "did anything go wrong" health probes).
            shared.stats.executor_panics.fetch_add(1, Ordering::Release);
            let mut failed = 0u64;
            for ticket in &tickets {
                if ticket.complete(Err(ServiceError::Stopped)) {
                    failed += 1;
                }
            }
            shared.stats.failed.fetch_add(failed, Ordering::Relaxed);
        }
    }
}

/// A cheap grouping key for multiplicand-major coalescing: jobs with
/// equal `(modulus, b)` map to equal keys, so sorting by the key
/// produces the contiguous shared-multiplicand runs the LUT engines
/// amortise — without O(n log n) big-integer comparisons on the
/// batcher's critical path. (A hash collision merely places two
/// unrelated runs next to each other; the chunk planner still splits
/// at real modulus boundaries, so correctness never depends on the
/// key.)
fn group_key(job: &MulJob) -> (u64, u64) {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut h = DefaultHasher::new();
    job.modulus.hash(&mut h);
    let modulus = h.finish();
    let mut h = DefaultHasher::new();
    job.b.hash(&mut h);
    (modulus, h.finish())
}

/// Sorts a drained batch multiplicand-major, executes it through the
/// dispatcher, and delivers each result to its ticket.
fn execute_batch(
    shared: &Shared,
    pool: &ContextPool,
    dispatcher: &Dispatcher,
    config: &ServiceConfig,
    mut batch: Vec<Queued>,
) {
    if batch.is_empty() {
        return;
    }
    let stats = &shared.stats;
    let n = batch.len() as u64;
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.window_batches.fetch_add(1, Ordering::Relaxed);
    stats.window_jobs.fetch_add(n, Ordering::Relaxed);
    stats.coalesce_min.fetch_min(n, Ordering::Relaxed);
    stats.coalesce_max.fetch_max(n, Ordering::Relaxed);

    // Multiplicand-major coalescing: group by modulus, then by `b`, so
    // interleaved tenants still hand the LUT engines long shared-`B`
    // runs. Each entry carries its own ticket, so execution order and
    // delivery need no permutation bookkeeping.
    batch.sort_by_cached_key(|q| group_key(&q.job));
    let mut jobs = Vec::with_capacity(batch.len());
    let mut meta = Vec::with_capacity(batch.len());
    for queued in batch {
        jobs.push(queued.job);
        meta.push((queued.ticket, queued.submitted));
    }

    let chunk_target = dispatcher.chunk_size_for(jobs.len());
    let makespan_cycles = modelled_batch_cycles(&jobs, config.workers, chunk_target);
    stats
        .modelled_cycles_total
        .fetch_add(makespan_cycles, Ordering::Relaxed);

    let outcomes: Vec<Result<UBig, ServiceError>> = match dispatcher.dispatch_jobs(pool, &jobs) {
        Ok((results, _)) => results.into_iter().map(Ok).collect(),
        // A whole-batch failure (one bad modulus, say) must not take
        // innocent coalesced neighbours down with it: fall back to
        // per-job execution and give every ticket its own verdict.
        Err(_) => jobs
            .iter()
            .map(|job| {
                pool.context(&job.modulus)
                    .and_then(|ctx| ctx.mod_mul(&job.a, &job.b).map_err(CoreError::ModMul))
                    .map_err(ServiceError::Mul)
            })
            .collect(),
    };

    let done = Instant::now();
    {
        let mut wall = stats.wall_ns.lock().unwrap_or_else(PoisonError::into_inner);
        let mut cycles = stats.cycles.lock().unwrap_or_else(PoisonError::into_inner);
        for (_, submitted) in &meta {
            wall.push(done.saturating_duration_since(*submitted).as_nanos() as u64);
            cycles.push(makespan_cycles);
        }
    }
    // Completion runs ticket callbacks, which take their owners' locks:
    // the reservoir guards above must be gone by now.
    let (mut ok, mut errs) = (0u64, 0u64);
    for ((ticket, _), outcome) in meta.into_iter().zip(outcomes) {
        match &outcome {
            Ok(_) => ok += 1,
            Err(_) => errs += 1,
        }
        ticket.complete(outcome);
    }
    stats.completed.fetch_add(ok, Ordering::Relaxed);
    stats.failed.fetch_add(errs, Ordering::Relaxed);
}

fn backend_error(e: impl core::fmt::Display) -> ModMulError {
    ModMulError::Backend {
        reason: e.to_string(),
    }
}

/// Unwraps a ticket result into the engine error space: algorithmic
/// errors pass through, service-level failures become
/// [`ModMulError::Backend`].
fn ticket_result(result: Result<UBig, ServiceError>) -> Result<UBig, ModMulError> {
    match result {
        Ok(v) => Ok(v),
        Err(ServiceError::Mul(CoreError::ModMul(e))) => Err(e),
        Err(other) => Err(backend_error(other)),
    }
}

/// Where batch consumers get their modular multiplications executed:
/// one prepared context per modulus, shared by every multiplication the
/// consumer issues for it.
///
/// The curve constructors (`ecc::curves::secp256k1_via` and friends),
/// `NttPlan::forward_via`/`inverse_via`, `PedersenCommitter::new_via`
/// and `apps::ecdsa::verify_batch` take a `&dyn Backend`, so the same
/// verification/NTT/MSM code serves a batch CLI tool and a mixed-tenant
/// server. The three implementors:
///
/// * [`ContextPool`] returns its pooled context, so the consumer runs
///   the multiplications on its own threads;
/// * [`ModSramService`] returns a context whose every batch streams
///   through the service queue, coalescing with other tenants;
/// * [`ServiceCluster`] does the same through the cluster router, each
///   job homing on its modulus's tile.
pub trait Backend: Send + Sync {
    /// A shareable prepared context for `p`.
    ///
    /// # Errors
    ///
    /// A pool's preparation error. The service and cluster never fail
    /// here: an invalid modulus, a paused tile or a stopped queue
    /// surfaces on first use as [`ModMulError::Backend`] (or the
    /// engine's own algorithmic error).
    fn context(&self, p: &UBig) -> Result<Arc<dyn PreparedModMul>, CoreError>;
}

impl Backend for ContextPool {
    fn context(&self, p: &UBig) -> Result<Arc<dyn PreparedModMul>, CoreError> {
        ContextPool::context(self, p)
    }
}

impl Backend for ModSramService {
    fn context(&self, p: &UBig) -> Result<Arc<dyn PreparedModMul>, CoreError> {
        Ok(Arc::new(Streamed {
            queue: Queue::Service(self.handle()),
            p: p.clone(),
        }))
    }
}

impl Backend for ServiceCluster {
    fn context(&self, p: &UBig) -> Result<Arc<dyn PreparedModMul>, CoreError> {
        Ok(Arc::new(Streamed {
            queue: Queue::Cluster(self.handle()),
            p: p.clone(),
        }))
    }
}

/// The submission endpoint a [`Streamed`] context feeds.
enum Queue {
    Service(SubmitHandle),
    Cluster(ClusterHandle),
}

/// The [`PreparedModMul`] a service or cluster hands out from
/// [`Backend::context`]: `mod_mul_batch` submits the whole batch
/// before waiting on any ticket, so independent multiplications
/// coalesce on the tile; `mod_mul` is a one-pair batch. Submission
/// refusals (paused, stopped, saturated) surface as
/// [`ModMulError::Backend`] carrying the refusal's text.
struct Streamed {
    queue: Queue,
    p: UBig,
}

impl PreparedModMul for Streamed {
    fn engine_name(&self) -> &'static str {
        match self.queue {
            Queue::Service(_) => "service",
            Queue::Cluster(_) => "cluster",
        }
    }

    fn modulus(&self) -> &UBig {
        &self.p
    }

    fn mod_mul(&self, a: &UBig, b: &UBig) -> Result<UBig, ModMulError> {
        self.mod_mul_batch(&[(a.clone(), b.clone())])?
            .pop()
            .ok_or_else(|| backend_error("a one-job batch returned no product"))
    }

    fn mod_mul_batch(&self, pairs: &[(UBig, UBig)]) -> Result<Vec<UBig>, ModMulError> {
        let jobs: Vec<MulJob> = pairs
            .iter()
            .map(|(a, b)| MulJob::new(a.clone(), b.clone(), self.p.clone()))
            .collect();
        let tickets = match &self.queue {
            Queue::Service(handle) => handle.submit_many(jobs).map_err(backend_error)?,
            Queue::Cluster(handle) => handle
                .submit_many(jobs)
                .map_err(|failure| backend_error(failure.error))?,
        };
        tickets.iter().map(|t| ticket_result(t.wait())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_mod(p: u64, count: u64) -> Vec<MulJob> {
        (0..count)
            .map(|i| MulJob::new(UBig::from(i * 3 + 1), UBig::from(i * 7 + 2), UBig::from(p)))
            .collect()
    }

    fn tiny_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            flush_interval: Duration::from_micros(50),
            ..Default::default()
        }
    }

    #[test]
    fn submit_wait_roundtrip() {
        let service = ModSramService::for_engine_name("barrett", tiny_config()).unwrap();
        let tickets: Vec<Ticket> = jobs_mod(97, 20)
            .into_iter()
            .map(|j| service.submit(j).unwrap())
            .collect();
        for (i, t) in tickets.iter().enumerate() {
            let i = i as u64;
            assert_eq!(
                t.wait().unwrap(),
                UBig::from((i * 3 + 1) * (i * 7 + 2) % 97)
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.failed, 0);
        assert!(stats.batches >= 1);
        assert!(stats.coalesce_max <= 8);
    }

    #[test]
    fn submit_many_matches_per_job_submission() {
        let service = ModSramService::for_engine_name("barrett", tiny_config()).unwrap();
        let jobs = jobs_mod(1_000_003, 25);
        let tickets = service.handle().submit_many(jobs.clone()).unwrap();
        assert_eq!(tickets.len(), 25);
        for (job, ticket) in jobs.iter().zip(&tickets) {
            assert_eq!(ticket.wait().unwrap(), &(&job.a * &job.b) % &job.modulus);
        }
        // Bulk submission larger than the queue capacity still drains
        // (the call blocks per slot, the batcher frees space).
        let big = jobs_mod(97, 200);
        let tickets = service.handle().submit_many(big.clone()).unwrap();
        for (job, ticket) in big.iter().zip(&tickets) {
            assert_eq!(ticket.wait().unwrap(), &(&job.a * &job.b) % &job.modulus);
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 225);
        // submit_many after shutdown is refused.
        assert_eq!(
            service.handle().submit_many(jobs_mod(97, 2)).err(),
            Some(SubmitError::Stopped)
        );
    }

    #[test]
    fn try_poll_transitions_to_done() {
        let service = ModSramService::for_engine_name("direct", tiny_config()).unwrap();
        let ticket = service
            .submit(MulJob::new(
                UBig::from(6u64),
                UBig::from(7u64),
                UBig::from(97u64),
            ))
            .unwrap();
        let value = ticket.wait().unwrap();
        assert_eq!(value, UBig::from(42u64));
        assert_eq!(ticket.try_poll(), Some(Ok(UBig::from(42u64))));
        assert!(ticket.is_done());
    }

    type TicketResult = Result<UBig, ServiceError>;

    /// Counts a callback's calls and forwards each result.
    fn counting_sink() -> (
        Arc<AtomicU64>,
        std::sync::mpsc::Receiver<TicketResult>,
        impl FnOnce(TicketResult) + Send + 'static,
    ) {
        let calls = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        let counter = Arc::clone(&calls);
        let sink = move |result| {
            counter.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(result);
        };
        (calls, rx, sink)
    }

    #[test]
    fn on_complete_registered_before_completion_fires_once() {
        // A hand-built pending ticket: nothing completes it until the
        // test does, so the callback is registered first for sure.
        let state = TicketState::new();
        let ticket = Ticket {
            state: Arc::clone(&state),
        };
        let (calls, rx, sink) = counting_sink();
        ticket.on_complete(sink);
        assert_eq!(calls.load(Ordering::SeqCst), 0, "nothing completed yet");
        assert!(state.complete(Ok(UBig::from(42u64))));
        assert!(
            !state.complete(Err(ServiceError::Stopped)),
            "a second completion is a no-op"
        );
        assert_eq!(rx.try_recv(), Ok(Ok(UBig::from(42u64))));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn on_complete_after_completion_fires_immediately() {
        let service = ModSramService::for_engine_name("direct", tiny_config()).unwrap();
        let ticket = service
            .submit(MulJob::new(
                UBig::from(6u64),
                UBig::from(7u64),
                UBig::from(97u64),
            ))
            .unwrap();
        assert_eq!(ticket.wait(), Ok(UBig::from(42u64)));
        let (calls, rx, sink) = counting_sink();
        let here = std::thread::current().id();
        ticket.on_complete(move |result| {
            assert_eq!(std::thread::current().id(), here);
            sink(result);
        });
        // Ran before on_complete returned, on this thread.
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(rx.try_recv(), Ok(Ok(UBig::from(42u64))));
        service.shutdown();
    }

    #[test]
    fn on_complete_receives_stopped_from_the_panic_guard_once() {
        let service = ModSramService::new(
            crate::test_util::failing_pool(1, crate::test_util::FailureMode::Panic),
            tiny_config(),
        );
        let ticket = service
            .submit(MulJob::new(
                UBig::from(5u64),
                UBig::from(6u64),
                UBig::from(97u64),
            ))
            .unwrap();
        let (calls, rx, sink) = counting_sink();
        ticket.on_complete(sink);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(30)),
            Ok(Err(ServiceError::Stopped))
        );
        let stats = service.shutdown();
        assert!(stats.executor_panics >= 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "delivered exactly once");
    }

    #[test]
    fn bad_modulus_fails_only_its_own_ticket() {
        // Montgomery rejects even moduli: a coalesced batch mixing good
        // and bad jobs must fail only the bad ones.
        let service = ModSramService::for_engine_name("montgomery", tiny_config()).unwrap();
        let good = service
            .submit(MulJob::new(
                UBig::from(5u64),
                UBig::from(6u64),
                UBig::from(97u64),
            ))
            .unwrap();
        let bad = service
            .submit(MulJob::new(
                UBig::from(5u64),
                UBig::from(6u64),
                UBig::from(96u64),
            ))
            .unwrap();
        assert_eq!(good.wait().unwrap(), UBig::from(30u64));
        assert_eq!(
            bad.wait(),
            Err(ServiceError::Mul(CoreError::ModMul(
                ModMulError::EvenModulus
            )))
        );
        let stats = service.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let service = ModSramService::for_engine_name("direct", tiny_config()).unwrap();
        service.shutdown();
        assert_eq!(
            service
                .submit(MulJob::new(
                    UBig::from(1u64),
                    UBig::from(2u64),
                    UBig::from(97u64)
                ))
                .err(),
            Some(SubmitError::Stopped)
        );
        assert_eq!(
            service
                .try_submit(MulJob::new(
                    UBig::from(1u64),
                    UBig::from(2u64),
                    UBig::from(97u64)
                ))
                .err(),
            Some(SubmitError::Stopped)
        );
    }

    #[test]
    fn service_prepared_context_multiplies() {
        let service = ModSramService::for_engine_name("montgomery", tiny_config()).unwrap();
        let ctx = service.context(&UBig::from(1_000_003u64)).unwrap();
        assert_eq!(ctx.engine_name(), "service");
        assert_eq!(ctx.modulus(), &UBig::from(1_000_003u64));
        assert_eq!(
            ctx.mod_mul(&UBig::from(2024u64), &UBig::from(4096u64))
                .unwrap(),
            UBig::from(2024u64 * 4096 % 1_000_003)
        );
        let pairs = vec![(UBig::from(3u64), UBig::from(5u64)); 4];
        assert_eq!(
            ctx.mod_mul_batch(&pairs).unwrap(),
            vec![UBig::from(15u64); 4]
        );
    }

    #[test]
    fn exec_backend_staged_and_service_agree() {
        let jobs: Vec<MulJob> = jobs_mod(97, 9)
            .into_iter()
            .chain(jobs_mod(1_000_003, 9))
            .collect();
        let pool = ContextPool::for_engine_name("barrett").unwrap();
        let service = ModSramService::for_engine_name("barrett", tiny_config()).unwrap();
        let run = |backend: &dyn Backend| -> Vec<UBig> {
            jobs.chunks(9)
                .flat_map(|same_p| {
                    let pairs: Vec<(UBig, UBig)> =
                        same_p.iter().map(|j| (j.a.clone(), j.b.clone())).collect();
                    let ctx = backend.context(&same_p[0].modulus).unwrap();
                    ctx.mod_mul_batch(&pairs).unwrap()
                })
                .collect()
        };
        let staged = run(&pool);
        let streamed = run(&service);
        assert_eq!(staged, streamed);
        for (job, got) in jobs.iter().zip(&staged) {
            assert_eq!(got, &(&(&job.a * &job.b) % &job.modulus));
        }
    }

    #[test]
    fn modelled_cycles_match_paper_anchor() {
        // One 256-bit multiplication: 767 cycles plus one LUT refill.
        let p = &UBig::pow2(256) - &UBig::from(189u64);
        let jobs = vec![MulJob::new(UBig::from(3u64), UBig::from(4u64), p)];
        assert_eq!(modelled_mul_cycles(256), 767);
        assert_eq!(
            modelled_batch_cycles(&jobs, 1, 1),
            767 + MODELLED_REFILL_CYCLES
        );
        // A shared-multiplicand run pays one refill; distinct
        // multiplicands pay one each.
        let shared: Vec<MulJob> = (0..4u64)
            .map(|i| MulJob::new(UBig::from(i + 1), UBig::from(9u64), UBig::from(97u64)))
            .collect();
        let cycles_97 = modelled_mul_cycles(7);
        assert_eq!(
            modelled_batch_cycles(&shared, 1, 64),
            4 * cycles_97 + MODELLED_REFILL_CYCLES
        );
    }

    #[test]
    fn reservoir_percentiles_are_sane() {
        let mut r = Reservoir::new(128);
        for v in 1..=100u64 {
            r.push(v);
        }
        let [lo, p50, hi] = r.percentiles([0.0, 0.5, 1.0]);
        assert_eq!(lo, 1);
        assert_eq!(hi, 100);
        assert!((49..=52).contains(&p50), "p50 {p50}");
        // Overflow the capacity: samples stay bounded, stats plausible.
        let mut r = Reservoir::new(16);
        for v in 0..10_000u64 {
            r.push(v);
        }
        assert_eq!(r.samples.len(), 16);
        assert!(r.percentiles([1.0])[0] <= 9_999);
    }
}
