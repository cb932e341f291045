//! The load drivers — closed loop and bulk — over any submission front
//! end: the wire client, the cluster handle, or per-tile service
//! handles. Every result is checked against the oracle.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use modsram_bigint::UBig;
use modsram_core::{ClusterHandle, MulJob, SubmitHandle, Ticket};
use modsram_net::{WireClient, WireResponse};

use crate::inputs::Inputs;
use crate::report::Hist;
use crate::trace::Recorder;

/// Largest number of jobs the bulk driver puts in one wire frame.
const FRAME_JOBS: usize = 256;

/// Retry-after answers one job may absorb before it counts as refused.
const MAX_RETRIES: u32 = 1000;

/// A submission endpoint as one load thread sees it.
pub trait Front {
    type Id;
    fn submit(&mut self, job: usize) -> Result<Self::Id, String>;
    fn submit_many(&mut self, jobs: &[usize]) -> Result<Vec<Self::Id>, String>;
    fn wait(&mut self, id: Self::Id) -> Result<UBig, String>;
}

/// The served stack's in-process front end.
pub struct ClusterFront<'a> {
    pub handle: ClusterHandle,
    pub inputs: &'a Inputs,
}

impl Front for ClusterFront<'_> {
    type Id = Ticket;

    fn submit(&mut self, job: usize) -> Result<Ticket, String> {
        let job = self.inputs.jobs[job].clone();
        self.handle.submit(job).map_err(|e| e.to_string())
    }

    fn submit_many(&mut self, jobs: &[usize]) -> Result<Vec<Ticket>, String> {
        let jobs = jobs.iter().map(|&j| self.inputs.jobs[j].clone()).collect();
        self.handle.submit_many(jobs).map_err(|e| e.to_string())
    }

    fn wait(&mut self, ticket: Ticket) -> Result<UBig, String> {
        ticket.wait().map_err(|e| e.to_string())
    }
}

/// Service tiles without the router: the benchmark sends each job to
/// its rendezvous home tile itself, from a precomputed table.
pub struct TilesFront<'a> {
    pub tiles: Vec<SubmitHandle>,
    pub inputs: &'a Inputs,
}

impl Front for TilesFront<'_> {
    type Id = Ticket;

    fn submit(&mut self, job: usize) -> Result<Ticket, String> {
        let tile = self.inputs.home_of(job);
        let job = self.inputs.jobs[job].clone();
        self.tiles[tile].submit(job).map_err(|e| e.to_string())
    }

    fn submit_many(&mut self, jobs: &[usize]) -> Result<Vec<Ticket>, String> {
        let mut per_tile: Vec<(Vec<usize>, Vec<MulJob>)> =
            (0..self.tiles.len()).map(|_| Default::default()).collect();
        for (pos, &j) in jobs.iter().enumerate() {
            let (positions, batch) = &mut per_tile[self.inputs.home_of(j)];
            positions.push(pos);
            batch.push(self.inputs.jobs[j].clone());
        }
        let mut tickets: Vec<Option<Ticket>> = (0..jobs.len()).map(|_| None).collect();
        for (tile, (positions, batch)) in per_tile.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let accepted = self.tiles[tile]
                .submit_many(batch)
                .map_err(|e| e.to_string())?;
            for (pos, ticket) in positions.into_iter().zip(accepted) {
                tickets[pos] = Some(ticket);
            }
        }
        Ok(tickets.into_iter().flatten().collect())
    }

    fn wait(&mut self, ticket: Ticket) -> Result<UBig, String> {
        ticket.wait().map_err(|e| e.to_string())
    }
}

/// One wire connection. A retry-after answer is honoured and the job
/// resubmitted under a fresh id; only a job refused `MAX_RETRIES` times
/// counts as failed.
pub struct WireFront<'a> {
    pub client: WireClient,
    pub inputs: &'a Inputs,
}

impl Front for WireFront<'_> {
    type Id = (u64, usize);

    fn submit(&mut self, job: usize) -> Result<(u64, usize), String> {
        let ids = self
            .client
            .submit_batch_refs(std::iter::once(&self.inputs.jobs[job]))
            .map_err(|e| e.to_string())?;
        Ok((ids.start, job))
    }

    fn submit_many(&mut self, jobs: &[usize]) -> Result<Vec<(u64, usize)>, String> {
        let mut ids = Vec::with_capacity(jobs.len());
        for chunk in jobs.chunks(FRAME_JOBS) {
            let range = self
                .client
                .submit_batch_refs(chunk.iter().map(|&j| &self.inputs.jobs[j]))
                .map_err(|e| e.to_string())?;
            ids.extend(range.zip(chunk.iter().copied()));
        }
        Ok(ids)
    }

    fn wait(&mut self, (mut req, job): (u64, usize)) -> Result<UBig, String> {
        for _ in 0..MAX_RETRIES {
            match self.client.wait(req).map_err(|e| e.to_string())? {
                WireResponse::Done(product) => return Ok(product),
                WireResponse::Failed(reason) => return Err(reason),
                WireResponse::RetryAfter { millis, .. } => {
                    std::thread::sleep(Duration::from_millis(u64::from(millis.clamp(1, 5))));
                    req = self.submit(job)?.0;
                }
            }
        }
        Err(format!("job {job} refused {MAX_RETRIES} times"))
    }
}

/// Splits a timed window into equal segments for per-segment rates.
#[derive(Clone, Copy)]
pub struct Clock {
    pub start: Instant,
    pub width: Duration,
}

/// What one driver pass did.
#[derive(Default)]
pub struct LoopOut {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub mismatched: u64,
    /// Submit-to-result latency of every job, nanoseconds.
    pub latencies: Hist,
    /// Jobs completed correctly in each segment of the window.
    pub segments: Vec<u64>,
    /// Time inside submit and wait calls (traced passes only).
    pub submit_ns: u64,
    pub wait_ns: u64,
}

impl LoopOut {
    pub fn merge(&mut self, other: LoopOut) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.latencies.merge(&other.latencies);
        if self.segments.len() < other.segments.len() {
            self.segments.resize(other.segments.len(), 0);
        }
        for (a, b) in self.segments.iter_mut().zip(&other.segments) {
            *a += b;
        }
        self.submit_ns += other.submit_ns;
        self.wait_ns += other.wait_ns;
    }

    fn settle(
        &mut self,
        inputs: &Inputs,
        job: usize,
        outcome: Result<UBig, String>,
        clock: Clock,
        submitted: Instant,
        done: Instant,
    ) {
        self.latencies.record((done - submitted).as_nanos() as u64);
        match outcome {
            Ok(product) if product == inputs.expected[job] => {
                self.completed += 1;
                let segment =
                    ((done - clock.start).as_nanos() / clock.width.as_nanos().max(1)) as usize;
                if self.segments.len() <= segment {
                    self.segments.resize(segment + 1, 0);
                }
                self.segments[segment] += 1;
            }
            Ok(_) => self.mismatched += 1,
            Err(_) => self.failed += 1,
        }
    }
}

/// Span names of one layer's submit and wait calls.
pub type CallNames = (&'static str, &'static str);

/// What one load thread drives, and until when.
pub struct Pass<'a> {
    pub inputs: &'a Inputs,
    /// The thread's job indices, cycled.
    pub stream: &'a [usize],
    pub deadline: Instant,
    pub clock: Clock,
    pub names: CallNames,
}

/// Closed loop: keep `window` jobs in flight from the stream (starting
/// at `*pos`), submitting the next job as the oldest completes, until
/// the deadline; then drain.
pub fn closed_loop<F: Front>(
    front: &mut F,
    pass: &Pass,
    pos: &mut usize,
    window: usize,
    rec: &mut Recorder,
) -> LoopOut {
    let Pass {
        inputs,
        stream,
        deadline,
        clock,
        names,
    } = *pass;
    let mut out = LoopOut::default();
    let mut inflight: VecDeque<(F::Id, usize, Instant)> = VecDeque::with_capacity(window);
    loop {
        while inflight.len() < window && Instant::now() < deadline {
            let job = stream[*pos % stream.len()];
            *pos += 1;
            out.attempted += 1;
            let t0 = Instant::now();
            let submitted = front.submit(job);
            if rec.on {
                let t1 = Instant::now();
                out.submit_ns += (t1 - t0).as_nanos() as u64;
                rec.span(names.0, job, t0, t1);
            }
            match submitted {
                Ok(id) => inflight.push_back((id, job, t0)),
                Err(_) => out.failed += 1,
            }
        }
        let Some((id, job, t0)) = inflight.pop_front() else {
            break;
        };
        let w0 = if rec.on { Instant::now() } else { t0 };
        let outcome = front.wait(id);
        let done = Instant::now();
        if rec.on {
            out.wait_ns += (done - w0).as_nanos() as u64;
            rec.span(names.1, job, w0, done);
        }
        out.settle(inputs, job, outcome, clock, t0, done);
    }
    out
}

/// Bulk: submit `batch` jobs at once, wait on every one, repeat until
/// the deadline. Latency runs from the batch submission to each result.
pub fn bulk_loop<F: Front>(
    front: &mut F,
    pass: &Pass,
    pos: &mut usize,
    batch: usize,
    rec: &mut Recorder,
) -> LoopOut {
    let Pass {
        inputs,
        stream,
        deadline,
        clock,
        names,
    } = *pass;
    let mut out = LoopOut::default();
    while Instant::now() < deadline {
        let jobs: Vec<usize> = (0..batch)
            .map(|i| stream[(*pos + i) % stream.len()])
            .collect();
        *pos += batch;
        out.attempted += jobs.len() as u64;
        let t0 = Instant::now();
        let submitted = front.submit_many(&jobs);
        if rec.on {
            let t1 = Instant::now();
            out.submit_ns += (t1 - t0).as_nanos() as u64;
            rec.span(names.0, jobs[0], t0, t1);
        }
        let Ok(ids) = submitted else {
            out.failed += jobs.len() as u64;
            continue;
        };
        out.failed += (jobs.len() - ids.len()) as u64;
        for (id, &job) in ids.into_iter().zip(&jobs) {
            let w0 = if rec.on { Instant::now() } else { t0 };
            let outcome = front.wait(id);
            let done = Instant::now();
            if rec.on {
                out.wait_ns += (done - w0).as_nanos() as u64;
                rec.span(names.1, job, w0, done);
            }
            out.settle(inputs, job, outcome, clock, t0, done);
        }
    }
    out
}
