//! The wire protocol: little-endian, length-prefixed binary frames.
//!
//! ```text
//!            ┌──────────────┬─────────────────────────────────────────┐
//! frame      │ len: u32 LE  │ payload (len bytes, len ≤ MAX_FRAME)    │
//!            └──────────────┴─────────────────────────────────────────┘
//!
//! request    ┌──────────────┬──────────┬──────────────────────────────┐
//! payload    │ req_id: u64  │ op: u8   │ operands                     │
//!            └──────────────┴──────────┴──────────────────────────────┘
//!              GET(0)         key: u64
//!              RANK(1)        key: u64
//!              RANGE_COUNT(2) lo: u64, hi: u64
//!              INSERT(3)      key: u64, value: rest of frame
//!              REMOVE(4)      key: u64
//!
//! reply      ┌──────────────┬──────────┬──────────────────────────────┐
//! payload    │ req_id: u64  │ tag: u8  │ operands                     │
//!            └──────────────┴──────────┴──────────────────────────────┘
//!              VALUE_NONE(0)  —
//!              VALUE_SOME(1)  value: rest of frame
//!              COUNT(2)       count: u64
//!              ACK(3)         —
//! ```
//!
//! Every request carries a caller-chosen `req_id` echoed verbatim in
//! its reply, so clients may pipeline arbitrarily many requests per
//! connection; the server answers each connection's requests **in
//! request order** (see `ist_serve::server`), but matching by id is the
//! portable contract.
//!
//! ## Malformed input is a connection-level error
//!
//! Decoding never panics and never guesses: a truncated length prefix,
//! a length above [`MAX_FRAME`], an unknown opcode, or missing/trailing
//! operand bytes each yield a [`ProtoError`], and the server's response
//! to any of them is to stop reading and **close the connection
//! cleanly** — already-queued replies are still written as complete
//! frames, then the socket shuts down; a partial frame is never
//! emitted. `tests/serve_proto.rs` fuzzes exactly this contract.

use std::io::{self, Read, Write};

/// Hard upper bound on a frame's payload length. A length prefix above
/// this is rejected **before** any allocation or body read — a 4-byte
/// prefix claiming 4 GiB costs the server nothing but the close.
pub const MAX_FRAME: usize = 1 << 20;

const OP_GET: u8 = 0;
const OP_RANK: u8 = 1;
const OP_RANGE_COUNT: u8 = 2;
const OP_INSERT: u8 = 3;
const OP_REMOVE: u8 = 4;

const TAG_VALUE_NONE: u8 = 0;
const TAG_VALUE_SOME: u8 = 1;
const TAG_COUNT: u8 = 2;
const TAG_ACK: u8 = 3;

/// One operation against the served map (`u64` keys, opaque byte-string
/// values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Live value under `key`, if any.
    Get { key: u64 },
    /// Number of live keys strictly below `key`.
    Rank { key: u64 },
    /// Number of live keys in `[lo, hi)` (reversed bounds count 0).
    RangeCount { lo: u64, hi: u64 },
    /// Insert or overwrite; acknowledged, not counted (group commit).
    Insert { key: u64, value: Vec<u8> },
    /// Delete; acknowledged, not counted (group commit).
    Remove { key: u64 },
}

impl Op {
    /// `true` for the mutating operations (routed to the bulk delta
    /// path by the coalescing server).
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert { .. } | Op::Remove { .. })
    }
}

/// A request frame: a caller-chosen id plus the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Echoed verbatim in the reply; uniqueness per connection is the
    /// caller's business (the server never inspects it).
    pub req_id: u64,
    pub op: Op,
}

/// The answer side of a reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// Answer to [`Op::Get`].
    Value(Option<Vec<u8>>),
    /// Answer to [`Op::Rank`] / [`Op::RangeCount`].
    Count(u64),
    /// Answer to [`Op::Insert`] / [`Op::Remove`]: the write is applied
    /// (possibly as part of a coalesced bulk delta — group-commit
    /// semantics; per-key replaced/removed booleans are not reported).
    Ack,
}

/// A reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub req_id: u64,
    pub body: ReplyBody,
}

/// Why a payload (or frame header) was rejected. All variants are
/// connection-fatal: the peer is speaking something other than this
/// protocol, so the only safe move is a clean close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload ended before the operands it promised.
    Truncated,
    /// A length prefix above [`MAX_FRAME`].
    Oversized(usize),
    /// An opcode / reply tag this protocol version does not define.
    UnknownOpcode(u8),
    /// Operand bytes left over after a fixed-size operation.
    TrailingBytes,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame payload truncated"),
            ProtoError::Oversized(n) => write!(f, "frame length {n} exceeds MAX_FRAME"),
            ProtoError::UnknownOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after operands"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for io::Error {
    fn from(e: ProtoError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ----- encoding -----

fn begin_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]); // patched by end_frame
    at
}

fn end_frame(out: &mut [u8], at: usize) {
    let len = out.len() - at - 4;
    debug_assert!(len <= MAX_FRAME, "encoder produced an oversized frame");
    // LINT-ALLOW(serve-no-panic): `begin_frame` reserved exactly these
    // four bytes at `at`, so the range is in bounds by construction.
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Append `req` to `out` as a complete frame (length prefix included).
/// Appending lets callers batch many frames into one buffer and write
/// them with a single syscall — the server's per-tick reply path and
/// any pipelining client lean on this.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    let at = begin_frame(out);
    out.extend_from_slice(&req.req_id.to_le_bytes());
    match &req.op {
        Op::Get { key } => {
            out.push(OP_GET);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Op::Rank { key } => {
            out.push(OP_RANK);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Op::RangeCount { lo, hi } => {
            out.push(OP_RANGE_COUNT);
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        Op::Insert { key, value } => {
            out.push(OP_INSERT);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(value);
        }
        Op::Remove { key } => {
            out.push(OP_REMOVE);
            out.extend_from_slice(&key.to_le_bytes());
        }
    }
    end_frame(out, at);
}

/// Append `rep` to `out` as a complete frame (length prefix included).
pub fn encode_reply(rep: &Reply, out: &mut Vec<u8>) {
    let at = begin_frame(out);
    out.extend_from_slice(&rep.req_id.to_le_bytes());
    match &rep.body {
        ReplyBody::Value(None) => out.push(TAG_VALUE_NONE),
        ReplyBody::Value(Some(v)) => {
            out.push(TAG_VALUE_SOME);
            out.extend_from_slice(v);
        }
        ReplyBody::Count(c) => {
            out.push(TAG_COUNT);
            out.extend_from_slice(&c.to_le_bytes());
        }
        ReplyBody::Ack => out.push(TAG_ACK),
    }
    end_frame(out, at);
}

// ----- decoding -----

struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, ProtoError> {
        let (&b, rest) = self.0.split_first().ok_or(ProtoError::Truncated)?;
        self.0 = rest;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<8>()
            .ok_or(ProtoError::Truncated)?;
        self.0 = rest;
        Ok(u64::from_le_bytes(*head))
    }

    fn rest(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.0).to_vec()
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

/// Decode a request payload (the bytes **after** the length prefix).
/// Total function: every byte string yields `Ok` or a [`ProtoError`],
/// never a panic.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor(payload);
    let req_id = c.u64()?;
    let opcode = c.u8()?;
    let op = match opcode {
        OP_GET => Op::Get { key: c.u64()? },
        OP_RANK => Op::Rank { key: c.u64()? },
        OP_RANGE_COUNT => Op::RangeCount {
            lo: c.u64()?,
            hi: c.u64()?,
        },
        OP_INSERT => Op::Insert {
            key: c.u64()?,
            value: c.rest(),
        },
        OP_REMOVE => Op::Remove { key: c.u64()? },
        other => return Err(ProtoError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(Request { req_id, op })
}

/// Decode a reply payload (the bytes **after** the length prefix).
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtoError> {
    let mut c = Cursor(payload);
    let req_id = c.u64()?;
    let tag = c.u8()?;
    let body = match tag {
        TAG_VALUE_NONE => ReplyBody::Value(None),
        TAG_VALUE_SOME => ReplyBody::Value(Some(c.rest())),
        TAG_COUNT => ReplyBody::Count(c.u64()?),
        TAG_ACK => ReplyBody::Ack,
        other => return Err(ProtoError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(Reply { req_id, body })
}

// ----- stream framing -----

/// Read one frame's payload from `r` into `buf` (replacing its
/// contents).
///
/// * `Ok(true)` — a complete payload is in `buf`.
/// * `Ok(false)` — the stream ended **cleanly** at a frame boundary
///   (EOF before any prefix byte).
/// * `Err` — EOF mid-prefix or mid-payload
///   ([`io::ErrorKind::UnexpectedEof`]), a length prefix above
///   [`MAX_FRAME`] ([`io::ErrorKind::InvalidData`] — rejected before
///   reading or allocating the body), or a transport error.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    // Hand-rolled read_exact for the prefix so EOF-at-boundary (clean
    // close) is distinguishable from EOF-mid-prefix (truncated frame).
    let mut got = 0;
    while got < 4 {
        // LINT-ALLOW(serve-no-panic): `got < 4` is the loop guard, so
        // the range into the 4-byte prefix array is always in bounds.
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    ProtoError::Truncated,
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized(len).into());
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Write `bytes` (one or more complete frames, as produced by the
/// `encode_*` functions) and flush. Frames are only ever handed to the
/// transport whole — this is what "never a partial write" means at the
/// protocol level: a failure before the call leaves the stream at a
/// frame boundary.
pub fn write_frames<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    w.write_all(bytes)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_all_ops() {
        let reqs = [
            Request {
                req_id: 0,
                op: Op::Get { key: u64::MAX },
            },
            Request {
                req_id: 7,
                op: Op::Rank { key: 42 },
            },
            Request {
                req_id: u64::MAX,
                op: Op::RangeCount { lo: 3, hi: 9 },
            },
            Request {
                req_id: 1,
                op: Op::Insert {
                    key: 5,
                    value: vec![0xde, 0xad, 0xbe, 0xef],
                },
            },
            Request {
                req_id: 2,
                op: Op::Insert {
                    key: 5,
                    value: vec![], // empty value is a valid value
                },
            },
            Request {
                req_id: 3,
                op: Op::Remove { key: 11 },
            },
        ];
        let mut wire = Vec::new();
        for r in &reqs {
            encode_request(r, &mut wire);
        }
        // Decode back through the stream framing.
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        for r in &reqs {
            assert!(read_frame(&mut cursor, &mut buf).unwrap());
            assert_eq!(&decode_request(&buf).unwrap(), r);
        }
        assert!(!read_frame(&mut cursor, &mut buf).unwrap()); // clean EOF
    }

    #[test]
    fn reply_roundtrip_all_bodies() {
        let reps = [
            Reply {
                req_id: 9,
                body: ReplyBody::Value(None),
            },
            Reply {
                req_id: 10,
                body: ReplyBody::Value(Some(vec![1, 2, 3])),
            },
            Reply {
                req_id: 11,
                body: ReplyBody::Value(Some(vec![])),
            },
            Reply {
                req_id: 12,
                body: ReplyBody::Count(u64::MAX),
            },
            Reply {
                req_id: 13,
                body: ReplyBody::Ack,
            },
        ];
        let mut wire = Vec::new();
        for r in &reps {
            encode_reply(r, &mut wire);
        }
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        for r in &reps {
            assert!(read_frame(&mut cursor, &mut buf).unwrap());
            assert_eq!(&decode_reply(&buf).unwrap(), r);
        }
        assert!(!read_frame(&mut cursor, &mut buf).unwrap());
    }

    #[test]
    fn oversized_prefix_rejected_before_body() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        // No body at all: the reject must come from the prefix alone.
        let mut cursor = &wire[..];
        let err = read_frame(&mut cursor, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_prefix_is_unexpected_eof() {
        let wire = [5u8, 0]; // 2 of 4 prefix bytes
        let err = read_frame(&mut &wire[..], &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn decode_rejects_junk_without_panicking() {
        assert_eq!(decode_request(&[]), Err(ProtoError::Truncated));
        assert_eq!(decode_request(&[0; 8]), Err(ProtoError::Truncated)); // id, no opcode
        let mut good = Vec::new();
        encode_request(
            &Request {
                req_id: 1,
                op: Op::Get { key: 2 },
            },
            &mut good,
        );
        let payload = &good[4..];
        assert!(decode_request(payload).is_ok());
        assert_eq!(
            decode_request(&payload[..payload.len() - 1]),
            Err(ProtoError::Truncated)
        );
        let mut trailing = payload.to_vec();
        trailing.push(0);
        assert_eq!(decode_request(&trailing), Err(ProtoError::TrailingBytes));
        let mut bad_op = payload.to_vec();
        bad_op[8] = 250;
        assert_eq!(decode_request(&bad_op), Err(ProtoError::UnknownOpcode(250)));
    }
}
