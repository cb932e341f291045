//! The blocking wire client: connect + authenticate, submit jobs (or
//! whole batches) under client-assigned request ids, redeem responses
//! in any order.
//!
//! The client is deliberately **single-threaded**: the thread that
//! calls [`WireClient::wait`] reads the socket itself, filing any
//! out-of-order arrivals into a local response map until the wanted id
//! shows up. No reader thread, no cross-thread handoff — on a busy
//! host that saves a context switch per response, which is exactly
//! the overhead a closed-loop load generator exists to measure.
//!
//! Writes are **corked**. A submit only appends its jobs to one open
//! `SubmitBatch` frame; request ids are consecutive, so every submit
//! between two sends lands in the same frame. The frame goes out in
//! one `write` when [`WireClient::wait`] is about to block on the
//! socket (responses already buffered are filed first, with no
//! syscall), on [`WireClient::flush`], on [`WireClient::close`], or
//! once it reaches 64 KiB. A closed loop that refills its
//! window between reads thus pays one frame header, one syscall and
//! one server wake-up per refill instead of per job.

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;

use modsram_bigint::UBig;
use modsram_core::dispatch::MulJob;

use crate::frame::{
    open_submit_batch, put_submit_job, seal_submit_batch, write_frame, Frame, FrameReader,
    RetryReason, WireError, DEFAULT_MAX_PAYLOAD,
};

/// Corked bytes at which a submit sends the open frame itself — far
/// below the server's [`DEFAULT_MAX_PAYLOAD`], and large enough that a
/// closed-loop window refill never reaches it.
const CORK_BYTES: usize = 64 << 10;

/// A terminal response for one request id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// The product.
    Done(UBig),
    /// Accepted but failed in execution (engine refused the modulus,
    /// tile died, …).
    Failed(String),
    /// Not accepted; resubmit (under a fresh id) after the hinted
    /// backoff.
    RetryAfter {
        /// Why admission refused the job.
        reason: RetryReason,
        /// Suggested backoff in milliseconds.
        millis: u32,
    },
}

/// A connected, authenticated client.
pub struct WireClient {
    stream: TcpStream,
    /// Buffered frame reassembly for the read side (a burst of
    /// coalesced response frames costs one syscall).
    reader: FrameReader,
    /// Responses read while waiting for a different id.
    responses: HashMap<u64, WireResponse>,
    /// Duplicate terminal responses observed per id (protocol
    /// violation by the server; surfaced for the soak assertions).
    duplicates: u64,
    /// Set when the server said [`Frame::Bye`] or the socket closed.
    closed: bool,
    /// The server's delivered-responses count from its `Bye`.
    server_completed: Option<u64>,
    next_req_id: u64,
    max_inflight: u32,
    /// Corked output: the open `SubmitBatch` frame (its jobs are the
    /// `corked` ids just below `next_req_id`), reused across sends.
    write_buf: Vec<u8>,
    corked: u32,
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("next_req_id", &self.next_req_id)
            .field("max_inflight", &self.max_inflight)
            .field("corked", &self.corked)
            .field("unclaimed", &self.unclaimed())
            .field("closed", &self.closed())
            .finish()
    }
}

impl WireClient {
    /// Connects, sends `Hello`, and waits for the verdict.
    ///
    /// # Errors
    ///
    /// [`WireError::AuthRefused`] when the registry rejects the
    /// tenant/key pair; socket and protocol errors otherwise.
    pub fn connect(
        addr: impl ToSocketAddrs,
        tenant: &str,
        key: u64,
    ) -> Result<WireClient, WireError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(
            &mut stream,
            &Frame::Hello {
                tenant: tenant.to_string(),
                key,
            },
        )?;
        let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
        let max_inflight = match reader.read_frame(&mut &stream)? {
            Some((Frame::HelloOk { max_inflight }, _)) => max_inflight,
            Some((Frame::HelloErr { reason }, _)) => return Err(WireError::AuthRefused(reason)),
            Some((other, _)) => {
                return Err(WireError::Malformed(format!(
                    "expected HelloOk/HelloErr, got {other:?}"
                )))
            }
            None => return Err(WireError::ConnectionClosed),
        };
        Ok(WireClient {
            stream,
            reader,
            responses: HashMap::new(),
            duplicates: 0,
            closed: false,
            server_completed: None,
            next_req_id: 1,
            max_inflight,
            write_buf: Vec::new(),
            corked: 0,
        })
    }

    /// The tenant's in-flight cap as echoed by the server's `HelloOk`
    /// — a well-behaved closed loop keeps its window at or below this.
    pub fn max_inflight(&self) -> u32 {
        self.max_inflight
    }

    /// Submits one job; returns its request id. The job is corked:
    /// it reaches the server with the next send (see the module docs).
    ///
    /// # Errors
    ///
    /// Socket failures of a send the cork bound triggers — admission
    /// refusals arrive as [`WireResponse::RetryAfter`] for the
    /// returned id.
    pub fn submit(&mut self, job: MulJob) -> Result<u64, WireError> {
        Ok(self.submit_batch_refs(std::iter::once(&job))?.start)
    }

    /// Submits `jobs` under consecutive ids; returns the id range, in
    /// order. Corked like [`WireClient::submit`].
    ///
    /// # Errors
    ///
    /// As [`WireClient::submit`].
    pub fn submit_batch(&mut self, jobs: Vec<MulJob>) -> Result<Range<u64>, WireError> {
        self.submit_batch_refs(jobs.iter())
    }

    /// [`WireClient::submit_batch`] over borrowed jobs — the closed
    /// loop resubmits the same jobs pass after pass, and cloning three
    /// big integers per job just to encode them is measurable on the
    /// serving hot path.
    ///
    /// # Errors
    ///
    /// As [`WireClient::submit`].
    pub fn submit_batch_refs<'a>(
        &mut self,
        jobs: impl ExactSizeIterator<Item = &'a MulJob>,
    ) -> Result<Range<u64>, WireError> {
        let first_req_id = self.next_req_id;
        for job in jobs {
            if self.corked == 0 {
                self.write_buf.clear();
                open_submit_batch(&mut self.write_buf, self.next_req_id);
            }
            put_submit_job(&mut self.write_buf, job);
            self.corked += 1;
            self.next_req_id += 1;
            if self.write_buf.len() >= CORK_BYTES {
                self.flush()?;
            }
        }
        Ok(first_req_id..self.next_req_id)
    }

    /// Sends the corked jobs now, in one frame and one `write`. A
    /// no-op when nothing is corked.
    ///
    /// # Errors
    ///
    /// Socket failures. The corked jobs are dropped either way: they
    /// never reach the server, and waiting on their ids reports
    /// [`WireError::ConnectionClosed`] once the socket ends.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.seal();
        if self.write_buf.is_empty() {
            return Ok(());
        }
        let sent = self.stream.write_all(&self.write_buf);
        self.write_buf.clear();
        sent.map_err(WireError::Io)
    }

    /// Closes the open frame, leaving it in `write_buf` for the next
    /// `write`.
    fn seal(&mut self) {
        if self.corked > 0 {
            seal_submit_batch(&mut self.write_buf, 0, self.corked);
            self.corked = 0;
        }
    }

    /// Reads and files exactly one incoming frame (blocking). Any
    /// error or protocol violation marks the connection closed; the
    /// caller reports [`WireError::ConnectionClosed`] for unresolved
    /// ids, matching how a vanished server actually presents.
    fn read_one(&mut self) {
        match self.reader.read_frame(&mut &self.stream) {
            Ok(Some((frame, _bytes))) => match frame {
                Frame::Done { req_id, product } => {
                    self.file_response(req_id, WireResponse::Done(product));
                }
                Frame::JobFailed { req_id, reason } => {
                    self.file_response(req_id, WireResponse::Failed(reason));
                }
                Frame::RetryAfter {
                    req_id,
                    reason,
                    millis,
                } => {
                    self.file_response(req_id, WireResponse::RetryAfter { reason, millis });
                }
                Frame::Bye { completed } => {
                    self.server_completed = Some(completed);
                    self.closed = true;
                }
                // Handshake frames out of band or client-direction
                // frames: protocol violation — treat as a broken
                // connection.
                _ => self.closed = true,
            },
            Ok(None) | Err(_) => self.closed = true,
        }
    }

    fn file_response(&mut self, req_id: u64, response: WireResponse) {
        if self.responses.insert(req_id, response).is_some() {
            self.duplicates += 1;
        }
    }

    /// Blocks until `req_id`'s terminal response arrives and removes
    /// it from the response map. Frames for other ids read along the
    /// way are filed and stay claimable. Corked jobs are sent before
    /// any socket read that could block.
    ///
    /// # Errors
    ///
    /// [`WireError::ConnectionClosed`] if the connection ended without
    /// a response for this id; socket failures of the send.
    pub fn wait(&mut self, req_id: u64) -> Result<WireResponse, WireError> {
        loop {
            if let Some(response) = self.responses.remove(&req_id) {
                return Ok(response);
            }
            if self.closed {
                return Err(WireError::ConnectionClosed);
            }
            if !self.reader.has_frame() {
                self.flush()?;
            }
            self.read_one();
        }
    }

    /// Duplicate terminal responses seen so far (must stay `0`; the
    /// soak tests assert on it).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Request ids with a response delivered but not yet waited on.
    pub fn unclaimed(&self) -> usize {
        self.responses.len()
    }

    /// `true` once the server said `Bye` or the socket closed.
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// Sends the corked jobs and a `Goodbye` in one `write`, reads
    /// until the server's `Bye` (in-flight responses land in the map on
    /// the way), and returns the server's delivered-responses count,
    /// `None` if the socket dropped before the `Bye` arrived.
    ///
    /// Responses already in the map remain claimable via
    /// [`WireClient::wait`]… but the connection is gone, so `wait` on
    /// an id that never got a response reports
    /// [`WireError::ConnectionClosed`].
    ///
    /// # Errors
    ///
    /// Socket failures while sending the `Goodbye`.
    pub fn close(mut self) -> Result<Option<u64>, WireError> {
        self.seal();
        Frame::Goodbye.encode(&mut self.write_buf);
        self.flush()?;
        while !self.closed {
            self.read_one();
        }
        Ok(self.server_completed)
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        // The server sees EOF and cleans the connection up on its
        // side. Corked jobs are dropped unsent: nobody is left to wait
        // on them.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}
