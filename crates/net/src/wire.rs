//! Binary wire protocol for the Eugene gateway.
//!
//! Every frame is a fixed 12-byte header followed by a payload:
//!
//! ```text
//! +----+----+---------+------+-------------+----------------+
//! | magic   | version | kind | len (u32le) | checksum (u32) |
//! | 2 bytes | 1 byte  | 1 B  | 4 bytes     | 4 bytes (le)   |
//! +----+----+---------+------+-------------+----------------+
//! | payload: `len` bytes, FNV-1a-32 checksummed             |
//! +---------------------------------------------------------+
//! ```
//!
//! Integers are little-endian; floats cross as IEEE-754 bits; strings and
//! vectors are `u32` length-prefixed. Payloads are capped at
//! [`MAX_FRAME_LEN`] so a forged header cannot coerce a huge allocation.
//! Decoding is total: any malformed, truncated, or corrupt input yields a
//! [`WireError`], never a panic.
//!
//! Version negotiation: a connection opens with [`Frame::Hello`] carrying
//! the client's highest supported version; the server answers
//! [`Frame::HelloAck`] with the version the connection will speak (the
//! minimum of both sides' maxima). Every subsequent header carries that
//! version and receivers reject frames they cannot speak with
//! [`WireError::UnsupportedVersion`].

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: an Eugene frame starts with these two bytes.
pub const MAGIC: [u8; 2] = [0xEB, 0x9E];

/// Highest protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Maximum payload length (16 MiB): bounds allocation from forged headers.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Header size in bytes: magic + version + kind + len + checksum.
pub const HEADER_LEN: usize = 12;

/// Inference submission as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen correlation id, echoed on every frame answering this
    /// submit. Unique per connection, not globally.
    pub client_tag: u64,
    /// Service class name; the gateway maps it to admission utility.
    pub class: String,
    /// Remaining deadline budget in milliseconds. Budgets, not absolute
    /// deadlines, cross the wire; the server re-anchors against its own
    /// clock, so clocks never need to agree.
    pub budget_ms: u64,
    /// Stream per-stage [`Frame::StageUpdate`]s before the final answer.
    pub want_progress: bool,
    /// Model input.
    pub payload: Vec<f32>,
    /// Sharding affinity: a sharded front tier consistently hashes this
    /// key onto its ring so a client's related requests land on the same
    /// shard. `None` lets the tier fall back to a per-connection key; a
    /// plain [`crate::server::Gateway`] ignores it entirely. Encoded as a
    /// trailing optional field, so pre-sharding peers interoperate: a
    /// payload that ends before this field decodes as `None`.
    pub routing_key: Option<u64>,
    /// Registry addressing: which named model this request targets. A
    /// multi-model gateway resolves it against its model registry;
    /// `None` (and any single-model gateway) means "the default model".
    /// Trailing optional field like `routing_key`: payloads that end
    /// before it decode as `None`, so pre-registry peers interoperate.
    pub model: Option<String>,
    /// Tenant identity for per-tenant admission quotas and fair shedding.
    /// `None` rides the anonymous legacy admission path. Trailing
    /// optional field after `model`; same lenient decoding.
    pub tenant: Option<String>,
    /// Replication metadata: the sharded front tier's ring epoch at the
    /// moment it routed (or failover-replayed) this submit. Purely
    /// observational below the router — a gateway ignores it — but it
    /// lets operators correlate a replayed request with the membership
    /// change that caused the replay. Trailing optional field after
    /// `tenant`; same lenient decoding, protocol stays v1.
    pub epoch: Option<u64>,
}

/// Why a submit was answered with [`Frame::Reject`].
///
/// Encoded as a trailing byte of the `Reject` payload. Decoders accept
/// payloads that end before it (frames from pre-sharding peers) and
/// default to [`RejectReason::Overload`], which was the only reason that
/// existed before the byte was introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RejectReason {
    /// Admission control shed the request; retry after the hinted backoff.
    #[default]
    Overload,
    /// The shard serving this session died mid-flight (or no shard is
    /// available). The request was *not* served; retrying opens a fresh
    /// session that the router admits onto a surviving shard.
    ShardLost,
    /// The submit named a model the gateway's registry does not currently
    /// hold (never loaded, or unloaded while the request was in transit).
    /// Not retryable against the same registry state.
    UnknownModel,
    /// The tenant named on the submit is over its per-tenant in-flight
    /// quota (or its weighted fair share under overload); other tenants'
    /// traffic is unaffected. Retry after the hinted backoff.
    TenantOverQuota,
}

impl RejectReason {
    fn as_byte(self) -> u8 {
        match self {
            RejectReason::Overload => 0,
            RejectReason::ShardLost => 1,
            RejectReason::UnknownModel => 2,
            RejectReason::TenantOverQuota => 3,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, WireError> {
        match byte {
            0 => Ok(RejectReason::Overload),
            1 => Ok(RejectReason::ShardLost),
            2 => Ok(RejectReason::UnknownModel),
            3 => Ok(RejectReason::TenantOverQuota),
            _ => Err(WireError::Malformed("reject reason byte out of range")),
        }
    }
}

/// Final inference answer as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// Predicted label from the last completed stage, if any stage ran.
    pub predicted: Option<u64>,
    /// Confidence of that prediction.
    pub confidence: Option<f32>,
    /// Stages that completed before answer/deadline/early-exit.
    pub stages_executed: u32,
    /// Whether the runtime killed the request at its deadline.
    pub expired: bool,
    /// Server-side latency in microseconds.
    pub latency_us: u64,
    /// Whether the runtime force-exited the request at an earlier stage
    /// under overload (anytime degradation): the answer is usable but
    /// shallower than the confidence threshold asked for. Encoded as a
    /// trailing optional byte, so pre-degradation peers interoperate.
    pub degraded: bool,
}

/// Every message that crosses a gateway connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server connection opener with the highest version the
    /// client speaks.
    Hello {
        max_version: u8,
    },
    /// Server → client handshake answer: the version this connection will
    /// speak.
    HelloAck {
        version: u8,
    },
    /// Client → server inference submission.
    Submit(SubmitRequest),
    /// Server → client per-stage progress for a submit that asked for it.
    StageUpdate {
        client_tag: u64,
        stage: u32,
        confidence: f32,
        predicted: u64,
    },
    /// Server → client final answer for a submit.
    Final {
        client_tag: u64,
        response: WireResponse,
    },
    /// Server → client rejection: the request was not served. `reason`
    /// distinguishes admission-control shedding (retry no sooner than
    /// `retry_after_ms`) from a lost shard (retry opens a new session on
    /// a survivor).
    Reject {
        client_tag: u64,
        retry_after_ms: u64,
        reason: RejectReason,
    },
    /// Liveness probe; answered by [`Frame::Pong`] with the same nonce.
    Ping {
        nonce: u64,
    },
    Pong {
        nonce: u64,
    },
    /// Client → server: no more submits, close after in-flight work.
    Shutdown,
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::HelloAck { .. } => 2,
            Frame::Submit(_) => 3,
            Frame::StageUpdate { .. } => 4,
            Frame::Final { .. } => 5,
            Frame::Reject { .. } => 6,
            Frame::Ping { .. } => 7,
            Frame::Pong { .. } => 8,
            Frame::Shutdown => 9,
        }
    }
}

/// Total decode/IO failure modes. Decoding never panics.
#[derive(Debug)]
pub enum WireError {
    /// First two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Header carried a version this build cannot speak.
    UnsupportedVersion(u8),
    /// Payload checksum mismatch (corruption in transit).
    BadChecksum { expected: u32, actual: u32 },
    /// Header carried an unknown frame kind.
    UnknownKind(u8),
    /// Input ended before the declared frame did.
    Truncated,
    /// Declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// Payload structure invalid for its kind.
    Malformed(&'static str),
    /// Underlying socket/stream failure.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(bytes) => write!(f, "bad frame magic {bytes:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (max {PROTOCOL_VERSION})"
                )
            }
            WireError::BadChecksum { expected, actual } => write!(
                f,
                "payload checksum mismatch (header {expected:#010x}, computed {actual:#010x})"
            ),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized(len) => {
                write!(f, "payload length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// FNV-1a over the payload; cheap, endian-free, catches bit corruption.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for &b in bytes {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn vec_f32(&mut self, v: &[f32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f32(x);
        }
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    fn opt_f32(&mut self, v: Option<f32>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.f32(x);
            }
            None => self.bool(false),
        }
    }

    fn opt_string(&mut self, v: Option<&str>) {
        match v {
            Some(s) => {
                self.bool(true);
                self.string(s);
            }
            None => self.bool(false),
        }
    }
}

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match frame {
        Frame::Hello { max_version } => w.u8(*max_version),
        Frame::HelloAck { version } => w.u8(*version),
        Frame::Submit(req) => {
            w.u64(req.client_tag);
            w.string(&req.class);
            w.u64(req.budget_ms);
            w.bool(req.want_progress);
            w.vec_f32(&req.payload);
            w.opt_u64(req.routing_key);
            w.opt_string(req.model.as_deref());
            w.opt_string(req.tenant.as_deref());
            w.opt_u64(req.epoch);
        }
        Frame::StageUpdate {
            client_tag,
            stage,
            confidence,
            predicted,
        } => {
            w.u64(*client_tag);
            w.u32(*stage);
            w.f32(*confidence);
            w.u64(*predicted);
        }
        Frame::Final {
            client_tag,
            response,
        } => {
            w.u64(*client_tag);
            w.opt_u64(response.predicted);
            w.opt_f32(response.confidence);
            w.u32(response.stages_executed);
            w.bool(response.expired);
            w.u64(response.latency_us);
            w.bool(response.degraded);
        }
        Frame::Reject {
            client_tag,
            retry_after_ms,
            reason,
        } => {
            w.u64(*client_tag);
            w.u64(*retry_after_ms);
            w.u8(reason.as_byte());
        }
        Frame::Ping { nonce } | Frame::Pong { nonce } => w.u64(*nonce),
        Frame::Shutdown => {}
    }
    w.buf
}

/// Encodes one frame (header + payload) into a fresh buffer.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    debug_assert!(payload.len() as u32 <= MAX_FRAME_LEN);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(frame.kind());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Writes one frame to a stream.
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<(), WireError> {
    writer.write_all(&encode_frame(frame))?;
    writer.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader; every accessor errors (never
/// panics) on truncated input.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool byte out of range")),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::Truncated);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string is not UTF-8"))
    }

    fn vec_f32(&mut self) -> Result<Vec<f32>, WireError> {
        let len = self.u32()? as usize;
        // Validate the declared length against what is actually present
        // before allocating, so a forged length cannot balloon memory.
        if len
            .checked_mul(4)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(WireError::Truncated);
        }
        (0..len).map(|_| self.f32()).collect()
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn opt_f32(&mut self) -> Result<Option<f32>, WireError> {
        Ok(if self.bool()? {
            Some(self.f32()?)
        } else {
            None
        })
    }

    fn opt_string(&mut self) -> Result<Option<String>, WireError> {
        Ok(if self.bool()? {
            Some(self.string()?)
        } else {
            None
        })
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = ByteReader::new(payload);
    let frame = match kind {
        1 => Frame::Hello {
            max_version: r.u8()?,
        },
        2 => Frame::HelloAck { version: r.u8()? },
        3 => Frame::Submit(SubmitRequest {
            client_tag: r.u64()?,
            class: r.string()?,
            budget_ms: r.u64()?,
            want_progress: r.bool()?,
            payload: r.vec_f32()?,
            // Trailing optional field: peers that predate sharding end the
            // payload here, which decodes as "no affinity".
            routing_key: if r.remaining() == 0 {
                None
            } else {
                r.opt_u64()?
            },
            // Trailing optional fields again: peers that predate the model
            // registry / tenant quotas end the payload earlier, which
            // decodes as "default model" / "anonymous tenant".
            model: if r.remaining() == 0 {
                None
            } else {
                r.opt_string()?
            },
            tenant: if r.remaining() == 0 {
                None
            } else {
                r.opt_string()?
            },
            // Trailing optional replication metadata (PR 9): peers that
            // predate replicated shard groups end the payload earlier,
            // which decodes as "no epoch stamped".
            epoch: if r.remaining() == 0 {
                None
            } else {
                r.opt_u64()?
            },
        }),
        4 => Frame::StageUpdate {
            client_tag: r.u64()?,
            stage: r.u32()?,
            confidence: r.f32()?,
            predicted: r.u64()?,
        },
        5 => Frame::Final {
            client_tag: r.u64()?,
            response: WireResponse {
                predicted: r.opt_u64()?,
                confidence: r.opt_f32()?,
                stages_executed: r.u32()?,
                expired: r.bool()?,
                latency_us: r.u64()?,
                // Trailing optional field: peers that predate anytime
                // degradation end the payload here, which decodes as
                // "not degraded".
                degraded: if r.remaining() == 0 { false } else { r.bool()? },
            },
        },
        6 => Frame::Reject {
            client_tag: r.u64()?,
            retry_after_ms: r.u64()?,
            // Trailing reason byte; absent from pre-sharding peers, whose
            // only reject cause was admission-control overload.
            reason: if r.remaining() == 0 {
                RejectReason::Overload
            } else {
                RejectReason::from_byte(r.u8()?)?
            },
        },
        7 => Frame::Ping { nonce: r.u64()? },
        8 => Frame::Pong { nonce: r.u64()? },
        9 => Frame::Shutdown,
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(frame)
}

/// Decodes one frame from the start of `bytes`, returning the frame and
/// how many bytes it consumed. Never panics; any malformed, truncated, or
/// corrupt input is a [`WireError`].
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if bytes[0..2] != MAGIC {
        return Err(WireError::BadMagic([bytes[0], bytes[1]]));
    }
    let version = bytes[2];
    if version == 0 || version > PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = bytes[3];
    let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let expected = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let total = HEADER_LEN + len as usize;
    if bytes.len() < total {
        return Err(WireError::Truncated);
    }
    let payload = &bytes[HEADER_LEN..total];
    let actual = checksum(payload);
    if actual != expected {
        return Err(WireError::BadChecksum { expected, actual });
    }
    let frame = decode_payload(kind, payload)?;
    Ok((frame, total))
}

/// Reads one frame from a stream (e.g. a [`std::net::TcpStream`]).
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    let version = header[2];
    if version == 0 || version > PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = header[3];
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let expected = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    let actual = checksum(&payload);
    if actual != expected {
        return Err(WireError::BadChecksum { expected, actual });
    }
    decode_payload(kind, &payload)
}

/// Incremental frame decoder over a polled (read-timeout) stream.
///
/// `read_exact` on a socket with a read timeout can consume a partial
/// header before timing out, silently desynchronizing the stream. This
/// buffer instead accumulates whatever bytes arrive and decodes complete
/// frames out of the front, so timeouts are always safe to retry.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Tries to produce one frame, reading more bytes as needed.
    ///
    /// Returns `Ok(None)` when the underlying read would block or timed
    /// out before a full frame arrived (call again later); `Ok(Some(..))`
    /// for a decoded frame; [`WireError::Truncated`] when the peer closed
    /// the stream; any other [`WireError`] when the stream is corrupt
    /// (the connection should be dropped — there is no resynchronization).
    pub fn poll<R: Read>(&mut self, reader: &mut R) -> Result<Option<Frame>, WireError> {
        loop {
            match decode_frame(&self.buf) {
                Ok((frame, consumed)) => {
                    self.buf.drain(..consumed);
                    return Ok(Some(frame));
                }
                Err(WireError::Truncated) => {}
                Err(other) => return Err(other),
            }
            let mut chunk = [0u8; 4096];
            match reader.read(&mut chunk) {
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                max_version: PROTOCOL_VERSION,
            },
            Frame::HelloAck {
                version: PROTOCOL_VERSION,
            },
            Frame::Submit(SubmitRequest {
                client_tag: 42,
                class: "interactive".to_owned(),
                budget_ms: 250,
                want_progress: true,
                payload: vec![0.25, -1.5, 3.75],
                routing_key: Some(0xFEED_F00D),
                model: Some("resnet-compressed".to_owned()),
                tenant: Some("acme".to_owned()),
                epoch: Some(7),
            }),
            Frame::Submit(SubmitRequest {
                client_tag: 44,
                class: "batch".to_owned(),
                budget_ms: 5_000,
                want_progress: false,
                payload: vec![],
                routing_key: None,
                model: None,
                tenant: None,
                epoch: None,
            }),
            Frame::StageUpdate {
                client_tag: 42,
                stage: 2,
                confidence: 0.875,
                predicted: 7,
            },
            Frame::Final {
                client_tag: 42,
                response: WireResponse {
                    predicted: Some(7),
                    confidence: Some(0.96),
                    stages_executed: 3,
                    expired: false,
                    latency_us: 1234,
                    degraded: false,
                },
            },
            Frame::Final {
                client_tag: 43,
                response: WireResponse {
                    predicted: None,
                    confidence: None,
                    stages_executed: 0,
                    expired: true,
                    latency_us: 50_000,
                    degraded: false,
                },
            },
            Frame::Final {
                client_tag: 44,
                response: WireResponse {
                    predicted: Some(2),
                    confidence: Some(0.55),
                    stages_executed: 1,
                    expired: false,
                    latency_us: 800,
                    degraded: true,
                },
            },
            Frame::Reject {
                client_tag: 9,
                retry_after_ms: 40,
                reason: RejectReason::Overload,
            },
            Frame::Reject {
                client_tag: 10,
                retry_after_ms: 25,
                reason: RejectReason::ShardLost,
            },
            Frame::Reject {
                client_tag: 11,
                retry_after_ms: 0,
                reason: RejectReason::UnknownModel,
            },
            Frame::Reject {
                client_tag: 12,
                retry_after_ms: 15,
                reason: RejectReason::TenantOverQuota,
            },
            Frame::Ping { nonce: 0xDEAD },
            Frame::Pong { nonce: 0xDEAD },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn frames_roundtrip() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let (decoded, consumed) = decode_frame(&bytes).expect("decodes");
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn frames_roundtrip_through_streams() {
        let mut stream = Vec::new();
        for frame in sample_frames() {
            write_frame(&mut stream, &frame).unwrap();
        }
        let mut cursor = io::Cursor::new(stream);
        for frame in sample_frames() {
            assert_eq!(read_frame(&mut cursor).expect("reads"), frame);
        }
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = encode_frame(&Frame::Submit(SubmitRequest {
            client_tag: 1,
            class: "batch".to_owned(),
            budget_ms: 100,
            want_progress: false,
            payload: vec![1.0; 16],
            routing_key: Some(3),
            model: Some("full".to_owned()),
            tenant: Some("t".to_owned()),
            epoch: Some(12),
        }));
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).expect_err("truncation detected");
            assert!(
                matches!(err, WireError::Truncated),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = encode_frame(&Frame::Ping { nonce: 77 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_and_kind_are_rejected() {
        let good = encode_frame(&Frame::Shutdown);

        let mut bad_magic = good.clone();
        bad_magic[0] = 0x00;
        assert!(matches!(
            decode_frame(&bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[2] = PROTOCOL_VERSION + 1;
        assert!(matches!(
            decode_frame(&bad_version),
            Err(WireError::UnsupportedVersion(_))
        ));

        let mut bad_kind = good.clone();
        bad_kind[3] = 0xFF;
        // Kind is not checksummed payload, so the checksum still passes and
        // the decoder must reject on the kind byte itself.
        assert!(matches!(
            decode_frame(&bad_kind),
            Err(WireError::UnknownKind(0xFF))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame::Shutdown);
        bytes[4..8].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(WireError::Oversized(_))));
    }

    #[test]
    fn forged_vec_length_is_truncation_not_allocation() {
        // Hand-build a Submit whose payload claims u32::MAX floats.
        let mut w = Vec::new();
        w.extend_from_slice(&7u64.to_le_bytes()); // client_tag
        w.extend_from_slice(&1u32.to_le_bytes()); // class len
        w.push(b'x');
        w.extend_from_slice(&5u64.to_le_bytes()); // budget
        w.push(0); // want_progress
        w.extend_from_slice(&u32::MAX.to_le_bytes()); // forged vec len
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(PROTOCOL_VERSION);
        bytes.push(3);
        bytes.extend_from_slice(&(w.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&checksum(&w).to_le_bytes());
        bytes.extend_from_slice(&w);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Truncated)));
    }

    #[test]
    fn frame_buffer_reassembles_dribbled_bytes() {
        // Feed a frame one byte at a time through a reader that yields a
        // single byte per call, interleaved with WouldBlock timeouts.
        struct Dribble {
            bytes: Vec<u8>,
            pos: usize,
            parity: bool,
        }
        impl Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                self.parity = !self.parity;
                if self.parity {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "poll"));
                }
                if self.pos >= self.bytes.len() {
                    return Ok(0);
                }
                out[0] = self.bytes[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let frame = Frame::Submit(SubmitRequest {
            client_tag: 5,
            class: "c".to_owned(),
            budget_ms: 9,
            want_progress: true,
            payload: vec![1.0, 2.0],
            routing_key: None,
            model: None,
            tenant: None,
            epoch: None,
        });
        let mut reader = Dribble {
            bytes: encode_frame(&frame),
            pos: 0,
            parity: false,
        };
        let mut buffer = FrameBuffer::new();
        let mut polls = 0;
        loop {
            polls += 1;
            assert!(polls < 1000, "frame never assembled");
            match buffer.poll(&mut reader).expect("no decode error") {
                Some(decoded) => {
                    assert_eq!(decoded, frame);
                    break;
                }
                None => continue,
            }
        }
        // Stream end after the frame reads as peer-closed.
        assert!(matches!(
            buffer.poll(&mut reader),
            Err(WireError::Truncated) | Ok(None)
        ));
    }

    /// Wraps a raw payload in a valid header of the given kind.
    fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(PROTOCOL_VERSION);
        bytes.push(kind);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&checksum(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn legacy_final_without_degraded_flag_decodes_as_not_degraded() {
        // Pre-degradation builds end the Final payload at latency_us; the
        // missing trailing byte must decode as `degraded: false`.
        let mut payload = Vec::new();
        payload.extend_from_slice(&42u64.to_le_bytes()); // client_tag
        payload.push(1); // predicted: Some
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(1); // confidence: Some
        payload.extend_from_slice(&0.96f32.to_le_bytes());
        payload.extend_from_slice(&3u32.to_le_bytes()); // stages_executed
        payload.push(0); // expired
        payload.extend_from_slice(&1234u64.to_le_bytes()); // latency_us
        let (frame, _) = decode_frame(&frame_bytes(5, &payload)).expect("legacy final decodes");
        assert_eq!(
            frame,
            Frame::Final {
                client_tag: 42,
                response: WireResponse {
                    predicted: Some(7),
                    confidence: Some(0.96),
                    stages_executed: 3,
                    expired: false,
                    latency_us: 1234,
                    degraded: false,
                },
            }
        );
    }

    #[test]
    fn legacy_reject_without_reason_decodes_as_overload() {
        // A 16-byte Reject payload (tag + retry hint, no reason byte) is
        // what pre-sharding builds emit; it must keep decoding.
        let mut payload = Vec::new();
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.extend_from_slice(&40u64.to_le_bytes());
        let (frame, _) = decode_frame(&frame_bytes(6, &payload)).expect("legacy reject decodes");
        assert_eq!(
            frame,
            Frame::Reject {
                client_tag: 9,
                retry_after_ms: 40,
                reason: RejectReason::Overload,
            }
        );
    }

    #[test]
    fn unknown_reject_reason_byte_is_malformed() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.extend_from_slice(&40u64.to_le_bytes());
        payload.push(0xFF);
        assert!(matches!(
            decode_frame(&frame_bytes(6, &payload)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn legacy_submit_without_routing_key_decodes_as_none() {
        // A Submit payload that ends right after the float vector (the
        // pre-sharding shape) must decode with routing_key: None.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes()); // client_tag
        payload.extend_from_slice(&1u32.to_le_bytes()); // class len
        payload.push(b'x');
        payload.extend_from_slice(&5u64.to_le_bytes()); // budget_ms
        payload.push(1); // want_progress
        payload.extend_from_slice(&1u32.to_le_bytes()); // vec len
        payload.extend_from_slice(&1.5f32.to_bits().to_le_bytes());
        let (frame, _) = decode_frame(&frame_bytes(3, &payload)).expect("legacy submit decodes");
        assert_eq!(
            frame,
            Frame::Submit(SubmitRequest {
                client_tag: 7,
                class: "x".to_owned(),
                budget_ms: 5,
                want_progress: true,
                payload: vec![1.5],
                routing_key: None,
                model: None,
                tenant: None,
                epoch: None,
            })
        );
    }

    #[test]
    fn pre_registry_submit_with_routing_key_decodes_without_model_or_tenant() {
        // A PR-5-era Submit ends right after the optional routing key;
        // model and tenant must decode as None.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes()); // client_tag
        payload.extend_from_slice(&1u32.to_le_bytes()); // class len
        payload.push(b'x');
        payload.extend_from_slice(&5u64.to_le_bytes()); // budget_ms
        payload.push(0); // want_progress
        payload.extend_from_slice(&0u32.to_le_bytes()); // empty vec
        payload.push(1); // routing key present
        payload.extend_from_slice(&99u64.to_le_bytes());
        let (frame, _) = decode_frame(&frame_bytes(3, &payload)).expect("pre-registry decodes");
        assert_eq!(
            frame,
            Frame::Submit(SubmitRequest {
                client_tag: 7,
                class: "x".to_owned(),
                budget_ms: 5,
                want_progress: false,
                payload: vec![],
                routing_key: Some(99),
                model: None,
                tenant: None,
                epoch: None,
            })
        );
    }

    #[test]
    fn submit_ending_after_model_decodes_tenant_as_none() {
        // A payload carrying a model id but stopping before the tenant
        // field (a peer that knows models but not tenants) still decodes.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes()); // client_tag
        payload.extend_from_slice(&1u32.to_le_bytes()); // class len
        payload.push(b'x');
        payload.extend_from_slice(&5u64.to_le_bytes()); // budget_ms
        payload.push(0); // want_progress
        payload.extend_from_slice(&0u32.to_le_bytes()); // empty vec
        payload.push(0); // routing key absent
        payload.push(1); // model present
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(b"m1");
        let (frame, _) = decode_frame(&frame_bytes(3, &payload)).expect("model-only decodes");
        match frame {
            Frame::Submit(req) => {
                assert_eq!(req.model.as_deref(), Some("m1"));
                assert_eq!(req.tenant, None);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn submit_ending_after_tenant_decodes_epoch_as_none() {
        // A PR-8-era payload carrying a tenant but stopping before the
        // ring-epoch field (a peer that predates replicated shard groups)
        // still decodes, with no epoch stamped.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes()); // client_tag
        payload.extend_from_slice(&1u32.to_le_bytes()); // class len
        payload.push(b'x');
        payload.extend_from_slice(&5u64.to_le_bytes()); // budget_ms
        payload.push(0); // want_progress
        payload.extend_from_slice(&0u32.to_le_bytes()); // empty vec
        payload.push(0); // routing key absent
        payload.push(0); // model absent
        payload.push(1); // tenant present
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(b"t1");
        let (frame, _) = decode_frame(&frame_bytes(3, &payload)).expect("tenant-era decodes");
        match frame {
            Frame::Submit(req) => {
                assert_eq!(req.tenant.as_deref(), Some("t1"));
                assert_eq!(req.epoch, None);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn trailing_payload_bytes_are_malformed() {
        let mut payload = 9u64.to_le_bytes().to_vec();
        payload.push(0xAA); // one byte too many for a Ping
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(PROTOCOL_VERSION);
        bytes.push(7);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }
}
