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

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;

use modsram_bigint::UBig;
use modsram_core::dispatch::MulJob;

use crate::frame::{
    encode_submit_batch, read_frame, read_frame_into, write_frame, Frame, RetryReason, WireError,
    DEFAULT_MAX_PAYLOAD,
};

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
    /// Buffered read half (a burst of coalesced response frames costs
    /// one syscall).
    reader: std::io::BufReader<TcpStream>,
    /// Write half.
    stream: TcpStream,
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
    /// Reused frame-encode buffer for the submit path.
    write_buf: Vec<u8>,
    /// Reused payload buffer for the read path.
    read_buf: Vec<u8>,
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("next_req_id", &self.next_req_id)
            .field("max_inflight", &self.max_inflight)
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
        let max_inflight = match read_frame(&mut stream, DEFAULT_MAX_PAYLOAD)? {
            Some((Frame::HelloOk { max_inflight }, _)) => max_inflight,
            Some((Frame::HelloErr { reason }, _)) => return Err(WireError::AuthRefused(reason)),
            Some((other, _)) => {
                return Err(WireError::Malformed(format!(
                    "expected HelloOk/HelloErr, got {other:?}"
                )))
            }
            None => return Err(WireError::ConnectionClosed),
        };
        let read_half = stream.try_clone().map_err(WireError::Io)?;
        Ok(WireClient {
            reader: std::io::BufReader::new(read_half),
            stream,
            responses: HashMap::new(),
            duplicates: 0,
            closed: false,
            server_completed: None,
            next_req_id: 1,
            max_inflight,
            write_buf: Vec::new(),
            read_buf: Vec::new(),
        })
    }

    /// The tenant's in-flight cap as echoed by the server's `HelloOk`
    /// — a well-behaved closed loop keeps its window at or below this.
    pub fn max_inflight(&self) -> u32 {
        self.max_inflight
    }

    /// Submits one job; returns its request id.
    ///
    /// # Errors
    ///
    /// Socket failures only — admission refusals arrive as
    /// [`WireResponse::RetryAfter`] for the returned id.
    pub fn submit(&mut self, job: MulJob) -> Result<u64, WireError> {
        Ok(self.submit_batch_refs(std::iter::once(&job))?.start)
    }

    /// Submits `jobs` in one frame; returns the id range, in order.
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
        let count = jobs.len() as u64;
        self.next_req_id += count;
        self.write_buf.clear();
        encode_submit_batch(&mut self.write_buf, first_req_id, jobs);
        self.stream.write_all(&self.write_buf)?;
        Ok(first_req_id..first_req_id + count)
    }

    /// Reads and files exactly one incoming frame (blocking). Any
    /// error or protocol violation marks the connection closed; the
    /// caller reports [`WireError::ConnectionClosed`] for unresolved
    /// ids, matching how a vanished server actually presents.
    fn read_one(&mut self) {
        match read_frame_into(&mut self.reader, DEFAULT_MAX_PAYLOAD, &mut self.read_buf) {
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
    /// way are filed and stay claimable.
    ///
    /// # Errors
    ///
    /// [`WireError::ConnectionClosed`] if the connection ended without
    /// a response for this id.
    pub fn wait(&mut self, req_id: u64) -> Result<WireResponse, WireError> {
        loop {
            if let Some(response) = self.responses.remove(&req_id) {
                return Ok(response);
            }
            if self.closed {
                return Err(WireError::ConnectionClosed);
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

    /// Says `Goodbye`, reads until the server's `Bye` (in-flight
    /// responses land in the map on the way), and returns the server's
    /// delivered-responses count, `None` if the socket dropped before
    /// the `Bye` arrived.
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
        write_frame(&mut self.stream, &Frame::Goodbye)?;
        while !self.closed {
            self.read_one();
        }
        Ok(self.server_completed)
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        // The server sees EOF and cleans the connection up on its
        // side.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}
