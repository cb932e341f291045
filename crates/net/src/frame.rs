//! The wire format: a hand-rolled length-prefixed binary protocol
//! (no crates.io access means no serde/tokio — every byte is spelled
//! out here, little-endian throughout).
//!
//! Every frame is `MSW1 | version | frame-type | reserved(2) |
//! payload-len(4) | payload`, a 12-byte header. Big integers travel as
//! a `u32` limb count followed by that many little-endian `u64` limbs —
//! exactly [`UBig::limbs`], so encoding is copy-shaped on both sides.
//! Strings are `u32` length + UTF-8 bytes.
//!
//! Request ids are client-assigned `u64`s, unique per connection; the
//! server echoes them on every terminal frame ([`Frame::Done`],
//! [`Frame::JobFailed`], [`Frame::RetryAfter`]) so completions can be
//! delivered out of submission order.

use std::io::{self, Read, Write};

use modsram_bigint::UBig;
use modsram_core::dispatch::MulJob;

/// Leading bytes of every frame — "ModSram Wire".
pub const MAGIC: [u8; 4] = *b"MSW1";
/// Protocol version carried in byte 4 of the header. Version 2 dropped
/// the one-job `Submit` frame (type 0x04); a one-job
/// [`Frame::SubmitBatch`] carries a single job.
pub const VERSION: u8 = 2;
/// Bytes before the payload: magic(4) + version(1) + type(1) +
/// reserved(2) + payload length(4).
pub const HEADER_LEN: usize = 12;
/// Default cap on a single frame's payload — a 4 MiB frame already
/// holds ~16k jobs at 256 bits, far past any sane batch.
pub const DEFAULT_MAX_PAYLOAD: u32 = 4 << 20;

/// Why the server refused a submission, carried inside
/// [`Frame::RetryAfter`]. Each variant has a distinct wire code so
/// clients can implement per-cause backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryReason {
    /// The tile's bounded submission queue was full
    /// (`SubmitError::QueueFull`).
    QueueFull,
    /// The tile's admissions are paused — typically a live
    /// `drain_tile` in progress (`SubmitError::Paused`).
    TilePaused,
    /// Every tile the spill policy allows refused
    /// (`ClusterSubmitError::AllTilesSaturated`); `tried` is how many
    /// tiles were offered the job.
    Saturated { tried: u32 },
    /// The server is draining for shutdown and refuses new work while
    /// it delivers in-flight responses.
    Draining,
    /// The tenant's token bucket is empty; retry after the hinted
    /// backoff.
    RateLimited,
    /// The tenant is at its in-flight cap; retry once responses come
    /// back.
    InflightCap,
}

impl RetryReason {
    fn code(self) -> u8 {
        match self {
            RetryReason::QueueFull => 1,
            RetryReason::TilePaused => 2,
            RetryReason::Saturated { .. } => 3,
            RetryReason::Draining => 4,
            RetryReason::RateLimited => 5,
            RetryReason::InflightCap => 6,
        }
    }

    fn detail(self) -> u32 {
        match self {
            RetryReason::Saturated { tried } => tried,
            _ => 0,
        }
    }

    fn from_wire(code: u8, detail: u32) -> Result<Self, WireError> {
        Ok(match code {
            1 => RetryReason::QueueFull,
            2 => RetryReason::TilePaused,
            3 => RetryReason::Saturated { tried: detail },
            4 => RetryReason::Draining,
            5 => RetryReason::RateLimited,
            6 => RetryReason::InflightCap,
            other => return Err(WireError::Malformed(format!("retry reason code {other}"))),
        })
    }

    /// Stable label used in stats maps and sweep artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            RetryReason::QueueFull => "queue_full",
            RetryReason::TilePaused => "tile_paused",
            RetryReason::Saturated { .. } => "saturated",
            RetryReason::Draining => "draining",
            RetryReason::RateLimited => "rate_limited",
            RetryReason::InflightCap => "inflight_cap",
        }
    }
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server, first frame on every connection: authenticate
    /// as `tenant` with its API `key`.
    Hello { tenant: String, key: u64 },
    /// Server → client: authenticated; `max_inflight` echoes the
    /// tenant's in-flight cap so well-behaved clients can self-pace.
    HelloOk { max_inflight: u32 },
    /// Server → client: authentication refused (then the connection
    /// closes).
    HelloErr { reason: String },
    /// Client → server: `jobs.len()` jobs under consecutive
    /// client-chosen ids starting at `first_req_id` — one frame for a
    /// single job or a whole closed-loop window refill.
    SubmitBatch {
        first_req_id: u64,
        jobs: Vec<MulJob>,
    },
    /// Server → client: the job's product.
    Done { req_id: u64, product: UBig },
    /// Server → client: the job was accepted but failed terminally
    /// (e.g. an engine refused the modulus).
    JobFailed { req_id: u64, reason: String },
    /// Server → client: the job was **not** accepted; retry after
    /// `millis`. Typed admission control instead of a dropped
    /// connection.
    RetryAfter {
        req_id: u64,
        reason: RetryReason,
        millis: u32,
    },
    /// Client → server: no more submissions; deliver what is in
    /// flight, answer [`Frame::Bye`], close.
    Goodbye,
    /// Server → client: the connection is complete; `completed` counts
    /// terminal responses delivered on it.
    Bye { completed: u64 },
}

/// Writes the fixed 12-byte header with a zero payload length and
/// returns the frame's start offset for [`end_frame`].
fn begin_frame(buf: &mut Vec<u8>, frame_type: u8) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(frame_type);
    buf.extend_from_slice(&[0u8; 2]);
    buf.extend_from_slice(&[0u8; 4]); // payload length, patched by end_frame
    start
}

/// Patches the payload length of the frame opened at `start`.
fn end_frame(buf: &mut [u8], start: usize) {
    let payload_len = (buf.len() - start - HEADER_LEN) as u32;
    buf[start + 8..start + 12].copy_from_slice(&payload_len.to_le_bytes());
}

/// Appends a complete `SubmitBatch` frame built from borrowed jobs.
/// The closed-loop submit path is the wire's hottest producer; going
/// through an owned [`Frame`] would clone three big integers per job
/// just to throw them away after encoding.
pub fn encode_submit_batch<'a>(
    buf: &mut Vec<u8>,
    first_req_id: u64,
    jobs: impl ExactSizeIterator<Item = &'a MulJob>,
) {
    let count = jobs.len() as u32;
    let start = open_submit_batch(buf, first_req_id);
    for job in jobs {
        put_submit_job(buf, job);
    }
    seal_submit_batch(buf, start, count);
}

/// Opens a `SubmitBatch` frame at the end of `buf` with no jobs yet
/// and returns its start offset. Append jobs with [`put_submit_job`]
/// and close the frame with [`seal_submit_batch`]; the result is
/// byte-identical to [`encode_submit_batch`] over the same jobs.
pub fn open_submit_batch(buf: &mut Vec<u8>, first_req_id: u64) -> usize {
    let start = begin_frame(buf, 0x05);
    put_u64(buf, first_req_id);
    put_u32(buf, 0); // job count, patched by seal_submit_batch
    start
}

/// Appends one job to the `SubmitBatch` frame opened last in `buf`.
pub fn put_submit_job(buf: &mut Vec<u8>, job: &MulJob) {
    put_job(buf, job);
}

/// Patches the job count and payload length of the `SubmitBatch`
/// frame opened at `start`, which must be the last frame in `buf`.
pub fn seal_submit_batch(buf: &mut [u8], start: usize, count: u32) {
    let at = start + HEADER_LEN + 8;
    buf[at..at + 4].copy_from_slice(&count.to_le_bytes());
    end_frame(buf, start);
}

impl Frame {
    fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::HelloOk { .. } => 0x02,
            Frame::HelloErr { .. } => 0x03,
            Frame::SubmitBatch { .. } => 0x05,
            Frame::Done { .. } => 0x06,
            Frame::JobFailed { .. } => 0x07,
            Frame::RetryAfter { .. } => 0x08,
            Frame::Goodbye => 0x09,
            Frame::Bye { .. } => 0x0A,
        }
    }

    /// Appends the full frame (header + payload) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = begin_frame(buf, self.frame_type());
        match self {
            Frame::Hello { tenant, key } => {
                put_str(buf, tenant);
                put_u64(buf, *key);
            }
            Frame::HelloOk { max_inflight } => put_u32(buf, *max_inflight),
            Frame::HelloErr { reason } => put_str(buf, reason),
            Frame::SubmitBatch { first_req_id, jobs } => {
                put_u64(buf, *first_req_id);
                put_u32(buf, jobs.len() as u32);
                for job in jobs {
                    put_job(buf, job);
                }
            }
            Frame::Done { req_id, product } => {
                put_u64(buf, *req_id);
                put_ubig(buf, product);
            }
            Frame::JobFailed { req_id, reason } => {
                put_u64(buf, *req_id);
                put_str(buf, reason);
            }
            Frame::RetryAfter {
                req_id,
                reason,
                millis,
            } => {
                put_u64(buf, *req_id);
                buf.push(reason.code());
                put_u32(buf, reason.detail());
                put_u32(buf, *millis);
            }
            Frame::Goodbye => {}
            Frame::Bye { completed } => put_u64(buf, *completed),
        }
        end_frame(buf, start);
    }

    /// Decodes one frame body; `payload` must be exactly the frame's
    /// payload bytes.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut r = Cursor::new(payload);
        let frame = match frame_type {
            0x01 => Frame::Hello {
                tenant: r.str()?,
                key: r.u64()?,
            },
            0x02 => Frame::HelloOk {
                max_inflight: r.u32()?,
            },
            0x03 => Frame::HelloErr { reason: r.str()? },
            0x05 => {
                let first_req_id = r.u64()?;
                let count = r.u32()? as usize;
                // The payload-length cap has already bounded the real
                // data; this only guards a lying count against a huge
                // upfront allocation.
                let mut jobs = Vec::with_capacity(count.min(payload.len() / 12 + 1));
                for _ in 0..count {
                    jobs.push(r.job()?);
                }
                Frame::SubmitBatch { first_req_id, jobs }
            }
            0x06 => Frame::Done {
                req_id: r.u64()?,
                product: r.ubig()?,
            },
            0x07 => Frame::JobFailed {
                req_id: r.u64()?,
                reason: r.str()?,
            },
            0x08 => {
                let req_id = r.u64()?;
                let code = r.u8()?;
                let detail = r.u32()?;
                let millis = r.u32()?;
                Frame::RetryAfter {
                    req_id,
                    reason: RetryReason::from_wire(code, detail)?,
                    millis,
                }
            }
            0x09 => Frame::Goodbye,
            0x0A => Frame::Bye {
                completed: r.u64()?,
            },
            other => return Err(WireError::UnknownFrameType(other)),
        };
        if !r.rest().is_empty() {
            return Err(WireError::Malformed(format!(
                "{} trailing payload bytes after frame type {frame_type:#04x}",
                r.rest().len()
            )));
        }
        Ok(frame)
    }
}

/// Everything that can go wrong at the framing layer.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(io::Error),
    /// The stream did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Version byte we don't speak.
    BadVersion(u8),
    /// Frame type byte outside the protocol.
    UnknownFrameType(u8),
    /// Declared payload length above the negotiated cap.
    FrameTooLarge { len: u32, max: u32 },
    /// The stream ended inside a frame.
    Truncated,
    /// Structurally invalid payload (bad UTF-8, lying lengths,
    /// unknown enum codes, …).
    Malformed(String),
    /// The peer closed (or the server finished draining) before a
    /// response arrived.
    ConnectionClosed,
    /// The server refused the `Hello`.
    AuthRefused(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?} (want {MAGIC:02x?})"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
            WireError::ConnectionClosed => write!(f, "connection closed"),
            WireError::AuthRefused(why) => write!(f, "authentication refused: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame to `w` and returns the bytes put on the wire.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, WireError> {
    let mut buf = Vec::with_capacity(64);
    frame.encode(&mut buf);
    w.write_all(&buf)?;
    Ok(buf.len())
}

/// Bytes a [`FrameReader`] makes room for per `read` when no header
/// asks for more.
const READ_CHUNK: usize = 16 << 10;

/// Reassembles frames from a byte stream: each `read` takes whatever
/// has arrived (up to 16 KiB, or the rest of a larger frame), so a
/// burst of small frames costs one syscall.
///
/// A failed read loses nothing. Bytes of a frame that is only partly
/// in — because the socket's read timeout fired between two segments,
/// say — stay buffered, and the next [`FrameReader::read_frame`]
/// resumes where the last one stopped. The header is checked before
/// the buffer grows to the declared payload, so an oversized frame is
/// refused before it is allocated.
#[derive(Debug)]
pub struct FrameReader {
    /// Received bytes live in `buf[start..end]`, a frame boundary at
    /// `start`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_payload: u32,
}

impl FrameReader {
    /// An empty reader refusing payloads above `max_payload`.
    pub fn new(max_payload: u32) -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_payload,
        }
    }

    /// The whole length of the frame at `start`, once its header is
    /// buffered and checked; a payload above the cap is refused here,
    /// before anything is allocated for it.
    fn head_len(&self) -> Result<Option<usize>, WireError> {
        if self.end - self.start < HEADER_LEN {
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + HEADER_LEN];
        if header[0..4] != MAGIC {
            return Err(WireError::BadMagic([
                header[0], header[1], header[2], header[3],
            ]));
        }
        if header[4] != VERSION {
            return Err(WireError::BadVersion(header[4]));
        }
        let payload_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if payload_len > self.max_payload {
            return Err(WireError::FrameTooLarge {
                len: payload_len,
                max: self.max_payload,
            });
        }
        Ok(Some(HEADER_LEN + payload_len as usize))
    }

    /// `true` when the next [`FrameReader::read_frame`] returns
    /// without touching the stream: a whole frame (or a header it
    /// will refuse) is already buffered.
    pub fn has_frame(&self) -> bool {
        match self.head_len() {
            Ok(Some(len)) => self.end - self.start >= len,
            Ok(None) => false,
            Err(_) => true,
        }
    }

    /// Returns the next frame, reading from `r` only while no whole
    /// frame is buffered.
    ///
    /// `Ok(None)` is a clean EOF between frames; EOF inside a frame is
    /// [`WireError::Truncated`]. A read error (a timeout included)
    /// keeps the partial frame for the next call. The second tuple
    /// slot reports the frame's bytes, for metering.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<(Frame, usize)>, WireError> {
        loop {
            let need = match self.head_len()? {
                Some(len) if self.end - self.start >= len => {
                    let frame_start = self.start;
                    self.start += len;
                    if self.start == self.end {
                        (self.start, self.end) = (0, 0);
                    }
                    let frame_type = self.buf[frame_start + 5];
                    let payload = &self.buf[frame_start + HEADER_LEN..frame_start + len];
                    return Ok(Some((Frame::decode(frame_type, payload)?, len)));
                }
                Some(len) => len,
                None => HEADER_LEN,
            };
            if !self.fill(r, need)? {
                return if self.start == self.end {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                };
            }
        }
    }

    /// One `read` into the buffer, first making room for `need` bytes
    /// from `start`; `Ok(false)` at EOF.
    fn fill(&mut self, r: &mut impl Read, need: usize) -> Result<bool, WireError> {
        if self.start + need > self.buf.len() && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let room = (self.start + need).max(READ_CHUNK);
        if self.buf.len() < room {
            self.buf.resize(room, 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }
}

// ---- primitive writers ----------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_ubig(buf: &mut Vec<u8>, v: &UBig) {
    let limbs = v.limbs();
    put_u32(buf, limbs.len() as u32);
    for limb in limbs {
        put_u64(buf, *limb);
    }
}

fn put_job(buf: &mut Vec<u8>, job: &MulJob) {
    put_ubig(buf, &job.a);
    put_ubig(buf, &job.b);
    put_ubig(buf, &job.modulus);
}

// ---- primitive reader -----------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(WireError::Truncated)?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let bytes: [u8; 4] = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn ubig(&mut self) -> Result<UBig, WireError> {
        let count = self.u32()? as usize;
        let mut limbs = Vec::with_capacity(count.min(self.rest().len() / 8 + 1));
        for _ in 0..count {
            limbs.push(self.u64()?);
        }
        Ok(UBig::from_limbs(limbs))
    }

    fn job(&mut self) -> Result<MulJob, WireError> {
        let a = self.ubig()?;
        let b = self.ubig()?;
        let modulus = self.ubig()?;
        Ok(MulJob::new(a, b, modulus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first frame of `bytes`, through a fresh reader.
    fn read_frame(bytes: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
        FrameReader::new(DEFAULT_MAX_PAYLOAD).read_frame(&mut &bytes[..])
    }

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let mut r = &buf[..];
        let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
        let (got, consumed) = reader.read_frame(&mut r).unwrap().unwrap();
        assert_eq!(got, frame);
        assert_eq!(consumed, buf.len());
        assert!(
            reader.read_frame(&mut r).unwrap().is_none(),
            "the frame was all of the stream"
        );
    }

    fn job(a: u64, b: u64, p: u64) -> MulJob {
        MulJob::new(UBig::from(a), UBig::from(b), UBig::from(p))
    }

    #[test]
    fn every_frame_round_trips() {
        let wide =
            UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        round_trip(Frame::Hello {
            tenant: "prover-αβ".into(),
            key: 0xDEAD_BEEF_F00D_u64,
        });
        round_trip(Frame::HelloOk { max_inflight: 512 });
        round_trip(Frame::HelloErr {
            reason: "unknown tenant".into(),
        });
        round_trip(Frame::SubmitBatch {
            first_req_id: 7,
            jobs: vec![MulJob::new(wide.clone(), UBig::from(3u64), wide.clone())],
        });
        round_trip(Frame::SubmitBatch {
            first_req_id: u64::MAX - 4,
            jobs: vec![job(1, 2, 97), job(5, 6, 1_000_003), job(0, 0, 3)],
        });
        round_trip(Frame::Done {
            req_id: 9,
            product: UBig::from(0u64),
        });
        round_trip(Frame::Done {
            req_id: 10,
            product: wide,
        });
        round_trip(Frame::JobFailed {
            req_id: 11,
            reason: "even modulus refused by montgomery".into(),
        });
        for reason in [
            RetryReason::QueueFull,
            RetryReason::TilePaused,
            RetryReason::Saturated { tried: 3 },
            RetryReason::Draining,
            RetryReason::RateLimited,
            RetryReason::InflightCap,
        ] {
            round_trip(Frame::RetryAfter {
                req_id: 12,
                reason,
                millis: 25,
            });
        }
        round_trip(Frame::Goodbye);
        round_trip(Frame::Bye { completed: 1234 });
    }

    #[test]
    fn back_to_back_frames_stream_cleanly() {
        let mut buf = Vec::new();
        Frame::Goodbye.encode(&mut buf);
        Frame::Bye { completed: 2 }.encode(&mut buf);
        let mut r = &buf[..];
        let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
        let (first, _) = reader.read_frame(&mut r).unwrap().unwrap();
        assert!(reader.has_frame(), "one read took both frames");
        let (second, _) = reader.read_frame(&mut r).unwrap().unwrap();
        assert_eq!(first, Frame::Goodbye);
        assert_eq!(second, Frame::Bye { completed: 2 });
        assert!(!reader.has_frame());
        assert!(reader.read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn header_violations_are_typed() {
        let mut buf = Vec::new();
        Frame::Goodbye.encode(&mut buf);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_frame(&bad), Err(WireError::BadMagic(_))));
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(matches!(read_frame(&bad), Err(WireError::BadVersion(9))));
        // 0x04 was the one-job `Submit` of protocol version 1.
        for frame_type in [0x7F, 0x04] {
            let mut bad = buf.clone();
            bad[5] = frame_type;
            assert!(matches!(
                read_frame(&bad),
                Err(WireError::UnknownFrameType(t)) if t == frame_type
            ));
        }
        // A frame claiming a payload above the cap is refused before
        // any allocation.
        let mut bad = buf;
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
        assert!(matches!(
            reader.read_frame(&mut &bad[..]),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(reader.buf.len() <= READ_CHUNK);
        // Truncation mid-header and mid-payload are both typed.
        let mut buf = Vec::new();
        Frame::Bye { completed: 5 }.encode(&mut buf);
        assert!(matches!(
            read_frame(&buf[..HEADER_LEN - 3]),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            read_frame(&buf[..HEADER_LEN + 2]),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut buf = Vec::new();
        Frame::Bye { completed: 1 }.encode(&mut buf);
        // Grow the payload by one byte and fix up the declared length.
        buf.push(0xAA);
        let len = (buf.len() - HEADER_LEN) as u32;
        buf[8..12].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(read_frame(&buf), Err(WireError::Malformed(_))));
    }

    #[test]
    fn job_by_job_frames_match_encode_submit_batch() {
        let jobs = [job(1, 2, 97), job(5, 6, 1_000_003), job(0, 0, 3)];
        for n in [0, 1, jobs.len()] {
            let mut whole = vec![0xEE]; // frames need not start at offset 0
            encode_submit_batch(&mut whole, 40, jobs[..n].iter());
            let mut built = vec![0xEE];
            let start = open_submit_batch(&mut built, 40);
            for j in &jobs[..n] {
                put_submit_job(&mut built, j);
            }
            seal_submit_batch(&mut built, start, n as u32);
            assert_eq!(built, whole, "{n} jobs");
        }
    }

    /// Yields its chunks one `read` at a time, failing with a timeout
    /// between any two.
    struct Stutter(Vec<Vec<u8>>, bool);

    impl Read for Stutter {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(io::ErrorKind::TimedOut.into());
            }
            if self.0.is_empty() {
                return Ok(0);
            }
            let chunk = self.0.remove(0);
            out[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn frame_reader_keeps_partial_frames_across_failed_reads() {
        let frames = [
            Frame::SubmitBatch {
                first_req_id: 3,
                jobs: vec![job(6, 7, 97), job(8, 9, 101)],
            },
            Frame::Goodbye,
        ];
        let mut bytes = Vec::new();
        for frame in &frames {
            frame.encode(&mut bytes);
        }
        // Split inside the header, inside the payload, and across the
        // frame boundary.
        let cuts = [5, 20, bytes.len() - 4, bytes.len()];
        let mut from = 0;
        let chunks = cuts
            .iter()
            .map(|&to| {
                let chunk = bytes[from..to].to_vec();
                from = to;
                chunk
            })
            .collect();
        let mut r = Stutter(chunks, false);
        let mut reader = FrameReader::new(DEFAULT_MAX_PAYLOAD);
        let mut got = Vec::new();
        loop {
            match reader.read_frame(&mut r) {
                Ok(Some((frame, _))) => got.push(frame),
                Ok(None) => break,
                Err(WireError::Io(e)) if e.kind() == io::ErrorKind::TimedOut => {
                    assert!(!reader.has_frame());
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(got, frames);
    }
}
