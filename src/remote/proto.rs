//! The versioned binary wire protocol of the remote artifact tier.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! offset  size  field
//!      0     8  magic              b"ASIPRPC\n"
//!      8     4  protocol version   u32 LE (PROTO_VERSION)
//!     12     1  kind               message kind (see `kind`)
//!     13     8  request id         u64 LE, echoed by the response
//!     21     4  body length        u32 LE, at most MAX_BODY_BYTES
//!     25     8  body checksum      u64 LE, XXH64 (seed 0) over the body
//!     33     …  body               ArtifactCodec-encoded message
//! ```
//!
//! The framing reuses the store's building blocks on purpose: the same
//! XXH64 checksum as store entries ([`crate::store`]), the same untagged
//! [`Encoder`]/[`Decoder`] primitives for the body as artifact payloads
//! ([`crate::artifact`]: varint integers and lengths, one-byte booleans
//! and option markers; a stage travels as its index in
//! [`Stage::all`]), and the same failure
//! philosophy — any structural defect (bad magic, oversize length,
//! checksum mismatch, short read) is a typed [`RemoteError`], never a
//! panic or a misread. Version negotiation is
//! all-or-nothing like the store's `FORMAT_VERSION`: a peer announcing
//! a different [`PROTO_VERSION`] is rejected with
//! [`RemoteError::VersionSkew`] before its body is interpreted, and the
//! client degrades to local compute. See `docs/serve.md` for the
//! complete specification and compatibility policy.

use crate::artifact::{varint_len, Decoder, Encoder, Stage};
use crate::error::RemoteError;
use crate::store::checksum;
use crate::tier::TierStats;
use std::io::{Read, Write};

/// Frame magic; distinct from the store's `ASIPART\n` so a store file
/// piped at a socket (or vice versa) is rejected at byte 5.
pub const PROTO_MAGIC: [u8; 8] = *b"ASIPRPC\n";

/// Protocol version. Bump on *any* change to the frame layout or to an
/// existing message's body encoding; peers reject mismatches outright
/// (no negotiation), mirroring the store's `FORMAT_VERSION` policy.
/// Adding a *new* message kind alone does not require a bump — an old
/// server answers an unknown kind with [`Response::Error`], which
/// clients degrade to a miss.
///
/// History: v2 — the [`Response::Overloaded`] kind was added (new kinds
/// alone are bump-free) *and* the `STATS` body grew the daemon
/// hardening counters (overloaded/panics/deadline/idle-reap), which
/// changes an existing body encoding and forces the bump.
/// v3 — the frame's body checksum changed from FNV-1a 64 to XXH64
/// (seed 0), the store's entry checksum, and the `STATS` body grew
/// [`ServeStats::size_truncated`].
/// v4 — bodies use the untagged varint codec of store format v5
/// (integers and lengths are LEB128 varints, booleans and option
/// markers one byte, no type tags), and a stage travels as its index in
/// [`Stage::all`] instead of its name.
pub const PROTO_VERSION: u32 = 4;

/// Upper bound on one frame's body. Generous (the largest suite
/// artifact is a few hundred KiB; a full prefetch batch is a few MiB)
/// while still rejecting a garbage length field before allocating.
pub const MAX_BODY_BYTES: u32 = 64 << 20;

/// Frame header size in bytes.
pub const HEADER_BYTES: usize = 33;

/// Message kinds. Requests have the high bit clear, responses set;
/// `ERROR` is the one response any request may receive.
pub mod kind {
    /// Liveness probe ([`Request::Ping`](super::Request::Ping)).
    pub const PING: u8 = 0x01;
    /// Single-entry read ([`Request::Get`](super::Request::Get)).
    pub const GET: u8 = 0x02;
    /// Bulk read ([`Request::GetBatch`](super::Request::GetBatch)).
    pub const GET_BATCH: u8 = 0x03;
    /// Entry write ([`Request::Put`](super::Request::Put)).
    pub const PUT: u8 = 0x04;
    /// Existence probe ([`Request::Contains`](super::Request::Contains)).
    pub const CONTAINS: u8 = 0x05;
    /// Server statistics ([`Request::Stats`](super::Request::Stats)).
    pub const STATS: u8 = 0x06;
    /// Clean shutdown ([`Request::Shutdown`](super::Request::Shutdown)).
    pub const SHUTDOWN: u8 = 0x07;
    /// Reply to `PING` ([`Response::Pong`](super::Response::Pong)).
    pub const PONG: u8 = 0x81;
    /// Reply to `GET` ([`Response::Value`](super::Response::Value)).
    pub const VALUE: u8 = 0x82;
    /// Reply to `GET_BATCH` ([`Response::Batch`](super::Response::Batch)).
    pub const BATCH: u8 = 0x83;
    /// Reply to `PUT` ([`Response::Done`](super::Response::Done)).
    pub const DONE: u8 = 0x84;
    /// Reply to `CONTAINS` ([`Response::Has`](super::Response::Has)).
    pub const HAS: u8 = 0x85;
    /// Reply to `STATS` ([`Response::Stats`](super::Response::Stats)).
    pub const STATS_REPLY: u8 = 0x86;
    /// Reply to `SHUTDOWN` ([`Response::Closing`](super::Response::Closing)).
    pub const CLOSING: u8 = 0x87;
    /// Load-shed reply to any data request
    /// ([`Response::Overloaded`](super::Response::Overloaded)).
    pub const OVERLOADED: u8 = 0x88;
    /// Error reply ([`Response::Error`](super::Response::Error)).
    pub const ERROR: u8 = 0xFF;
}

/// One client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness/version probe; answered with [`Response::Pong`].
    Ping,
    /// Read one entry; answered with [`Response::Value`].
    Get {
        /// The pipeline stage the entry belongs to.
        stage: Stage,
        /// The content-derived tier key.
        key: u64,
    },
    /// Read many entries in one round trip (the warm-prefetch path);
    /// answered with [`Response::Batch`], one slot per key in order.
    GetBatch {
        /// The `(stage, key)` pairs to probe.
        keys: Vec<(Stage, u64)>,
    },
    /// Write one entry through to the server's persistent tiers;
    /// answered with [`Response::Done`].
    Put {
        /// The pipeline stage the entry belongs to.
        stage: Stage,
        /// The content-derived tier key.
        key: u64,
        /// The complete encoded artifact payload.
        payload: Vec<u8>,
    },
    /// Probe for existence without counting a read; answered with
    /// [`Response::Has`].
    Contains {
        /// The pipeline stage the entry belongs to.
        stage: Stage,
        /// The content-derived tier key.
        key: u64,
    },
    /// Request the server's counters and tier totals; answered with
    /// [`Response::Stats`].
    Stats,
    /// Ask the daemon to stop accepting and drain its connections;
    /// answered with [`Response::Closing`].
    Shutdown,
}

/// One server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The server is alive; carries its version triple.
    Pong(ServerInfo),
    /// The probed entry's payload, or `None` for a miss.
    Value(Option<Vec<u8>>),
    /// One optional payload per requested key, in request order.
    Batch(Vec<Option<Vec<u8>>>),
    /// Whether the write landed on any persistent server tier.
    Done(bool),
    /// Whether the probed entry exists on any server tier.
    Has(bool),
    /// The server's counters, per-stage compute counts and tier totals.
    Stats(ServeStats),
    /// The daemon acknowledged [`Request::Shutdown`] and is draining.
    Closing,
    /// The daemon is at its in-flight request bound and shed this
    /// request. Retryable: clients back off (with jitter) and retry
    /// within their policy, then degrade to a miss — overload never
    /// marks the server unhealthy, because an `Overloaded` reply proves
    /// the daemon is alive.
    Overloaded,
    /// The request was understood but could not be served.
    Error(String),
}

/// The version triple a server announces in [`Response::Pong`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// The server's wire-protocol version ([`PROTO_VERSION`]).
    pub proto_version: u32,
    /// The server's store format version
    /// ([`crate::store::FORMAT_VERSION`]).
    pub format_version: u32,
    /// The server's crate version (`CARGO_PKG_VERSION`). Tier keys
    /// hash the crate version, so clients of a different release
    /// address disjoint entries — a skewed pairing is safe but always
    /// misses; `ping` surfaces it.
    pub crate_version: String,
}

/// A server-side statistics snapshot ([`Request::Stats`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeStats {
    /// Frames served (every request kind, errors included).
    pub requests: u64,
    /// `get` requests served.
    pub gets: u64,
    /// Keys probed via `get_batch` requests.
    pub batch_keys: u64,
    /// `put` requests served.
    pub puts: u64,
    /// `contains` requests served.
    pub contains: u64,
    /// `ping` requests served.
    pub pings: u64,
    /// `get`/`get_batch` probes answered with a payload.
    pub hits: u64,
    /// `get`/`get_batch` probes answered with a miss.
    pub misses: u64,
    /// Frame bytes received (headers included).
    pub bytes_in: u64,
    /// Frame bytes sent (headers included).
    pub bytes_out: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Frames rejected as structurally invalid.
    pub frame_errors: u64,
    /// Requests shed with [`Response::Overloaded`] at the in-flight
    /// bound.
    pub overloaded: u64,
    /// Request handlers that panicked (isolated per connection by
    /// `catch_unwind`; each answered with [`Response::Error`]).
    pub panics: u64,
    /// Batch keys left unserved because a request ran past its
    /// deadline (each answered as a miss).
    pub deadline_truncated: u64,
    /// Batch keys left unserved because their payload would have pushed
    /// the response body past [`MAX_BODY_BYTES`] (each answered as a
    /// miss, as is every key after the first such one).
    pub size_truncated: u64,
    /// Connections reaped after sitting idle past the idle timeout.
    pub idle_reaped: u64,
    /// Per-stage computation counts from the server session's own
    /// cache stats (`misses` == times the stage actually ran on the
    /// server) — the observable for single-flight assertions.
    pub stage_computes: Vec<(String, u64)>,
    /// `(tier name, summed stats)` for every tier in the server's
    /// stack, top to bottom.
    pub tier_totals: Vec<(String, TierStats)>,
}

impl ServeStats {
    /// Total stage computations the server has performed.
    pub fn total_computes(&self) -> u64 {
        self.stage_computes.iter().map(|(_, n)| *n).sum()
    }
}

// -- body encoding -----------------------------------------------------

fn put_stage_key(enc: &mut Encoder, stage: Stage, key: u64) {
    enc.put_u64(stage as u64);
    enc.put_u64(key);
}

fn get_stage_key(dec: &mut Decoder<'_>) -> Result<(Stage, u64), RemoteError> {
    let stage = dec.code(&Stage::all(), "stage").map_err(body_err)?;
    let key = dec.u64().map_err(body_err)?;
    Ok((stage, key))
}

fn put_opt_payload(enc: &mut Encoder, payload: Option<&[u8]>) {
    match payload {
        Some(p) => {
            enc.put_bool(true);
            enc.put_bytes(p);
        }
        None => enc.put_bool(false),
    }
}

/// Encoded size of a [`Response::Batch`] body whose every slot is a
/// miss: the varint slot count plus one `None` marker byte per slot.
pub(crate) fn batch_miss_body_bytes(slots: usize) -> usize {
    varint_len(slots as u64) + slots
}

/// Body bytes a hit of `payload_len` bytes adds over a miss slot in a
/// [`Response::Batch`] body: the varint byte length and the payload.
pub(crate) fn batch_hit_extra_bytes(payload_len: usize) -> usize {
    varint_len(payload_len as u64) + payload_len
}

fn get_opt_payload(dec: &mut Decoder<'_>) -> Result<Option<Vec<u8>>, RemoteError> {
    if dec.bool().map_err(body_err)? {
        Ok(Some(dec.bytes().map_err(body_err)?))
    } else {
        Ok(None)
    }
}

fn put_tier_stats(enc: &mut Encoder, t: &TierStats) {
    enc.put_u64(t.hits);
    enc.put_u64(t.misses);
    enc.put_u64(t.writes);
    enc.put_u64(t.corrupt);
    enc.put_u64(t.entries);
    enc.put_u64(t.bytes);
}

fn get_tier_stats(dec: &mut Decoder<'_>) -> Result<TierStats, RemoteError> {
    Ok(TierStats {
        hits: dec.u64().map_err(body_err)?,
        misses: dec.u64().map_err(body_err)?,
        writes: dec.u64().map_err(body_err)?,
        corrupt: dec.u64().map_err(body_err)?,
        entries: dec.u64().map_err(body_err)?,
        bytes: dec.u64().map_err(body_err)?,
    })
}

fn body_err(e: crate::error::CodecError) -> RemoteError {
    RemoteError::Frame {
        detail: format!("body decode failed: {e}"),
    }
}

impl Request {
    /// The frame kind byte this request travels under.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Ping => kind::PING,
            Request::Get { .. } => kind::GET,
            Request::GetBatch { .. } => kind::GET_BATCH,
            Request::Put { .. } => kind::PUT,
            Request::Contains { .. } => kind::CONTAINS,
            Request::Stats => kind::STATS,
            Request::Shutdown => kind::SHUTDOWN,
        }
    }

    /// Encode the frame body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Request::Ping | Request::Stats | Request::Shutdown => {}
            Request::Get { stage, key } | Request::Contains { stage, key } => {
                put_stage_key(&mut enc, *stage, *key);
            }
            Request::GetBatch { keys } => {
                enc.put_seq(keys.len());
                for &(stage, key) in keys {
                    put_stage_key(&mut enc, stage, key);
                }
            }
            Request::Put {
                stage,
                key,
                payload,
            } => {
                put_stage_key(&mut enc, *stage, *key);
                enc.put_bytes(payload);
            }
        }
        enc.into_bytes()
    }

    /// Decode a request from its frame kind and body.
    pub fn decode(kind_byte: u8, body: &[u8]) -> Result<Request, RemoteError> {
        let mut dec = Decoder::new(body);
        let req = match kind_byte {
            kind::PING => Request::Ping,
            kind::STATS => Request::Stats,
            kind::SHUTDOWN => Request::Shutdown,
            kind::GET => {
                let (stage, key) = get_stage_key(&mut dec)?;
                Request::Get { stage, key }
            }
            kind::CONTAINS => {
                let (stage, key) = get_stage_key(&mut dec)?;
                Request::Contains { stage, key }
            }
            kind::GET_BATCH => {
                let n = dec.seq().map_err(body_err)?;
                let mut keys = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    keys.push(get_stage_key(&mut dec)?);
                }
                Request::GetBatch { keys }
            }
            kind::PUT => {
                let (stage, key) = get_stage_key(&mut dec)?;
                let payload = dec.bytes().map_err(body_err)?;
                Request::Put {
                    stage,
                    key,
                    payload,
                }
            }
            other => {
                return Err(RemoteError::Frame {
                    detail: format!("unknown request kind {other:#04x}"),
                })
            }
        };
        dec.finish().map_err(body_err)?;
        Ok(req)
    }
}

impl Response {
    /// The frame kind byte this response travels under.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Pong(_) => kind::PONG,
            Response::Value(_) => kind::VALUE,
            Response::Batch(_) => kind::BATCH,
            Response::Done(_) => kind::DONE,
            Response::Has(_) => kind::HAS,
            Response::Stats(_) => kind::STATS_REPLY,
            Response::Closing => kind::CLOSING,
            Response::Overloaded => kind::OVERLOADED,
            Response::Error(_) => kind::ERROR,
        }
    }

    /// Encode the frame body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Response::Closing | Response::Overloaded => {}
            Response::Pong(info) => {
                enc.put_u64(u64::from(info.proto_version));
                enc.put_u64(u64::from(info.format_version));
                enc.put_str(&info.crate_version);
            }
            Response::Value(payload) => put_opt_payload(&mut enc, payload.as_deref()),
            Response::Batch(slots) => {
                enc.put_seq(slots.len());
                for slot in slots {
                    put_opt_payload(&mut enc, slot.as_deref());
                }
            }
            Response::Done(landed) => enc.put_bool(*landed),
            Response::Has(present) => enc.put_bool(*present),
            Response::Error(detail) => enc.put_str(detail),
            Response::Stats(s) => {
                enc.put_u64(s.requests);
                enc.put_u64(s.gets);
                enc.put_u64(s.batch_keys);
                enc.put_u64(s.puts);
                enc.put_u64(s.contains);
                enc.put_u64(s.pings);
                enc.put_u64(s.hits);
                enc.put_u64(s.misses);
                enc.put_u64(s.bytes_in);
                enc.put_u64(s.bytes_out);
                enc.put_u64(s.connections);
                enc.put_u64(s.frame_errors);
                enc.put_u64(s.overloaded);
                enc.put_u64(s.panics);
                enc.put_u64(s.deadline_truncated);
                enc.put_u64(s.size_truncated);
                enc.put_u64(s.idle_reaped);
                enc.put_seq(s.stage_computes.len());
                for (name, n) in &s.stage_computes {
                    enc.put_str(name);
                    enc.put_u64(*n);
                }
                enc.put_seq(s.tier_totals.len());
                for (name, t) in &s.tier_totals {
                    enc.put_str(name);
                    put_tier_stats(&mut enc, t);
                }
            }
        }
        enc.into_bytes()
    }

    /// Decode a response from its frame kind and body.
    pub fn decode(kind_byte: u8, body: &[u8]) -> Result<Response, RemoteError> {
        let mut dec = Decoder::new(body);
        let resp = match kind_byte {
            kind::CLOSING => Response::Closing,
            kind::OVERLOADED => Response::Overloaded,
            kind::PONG => {
                let proto_version = dec.u32().map_err(body_err)?;
                let format_version = dec.u32().map_err(body_err)?;
                let crate_version = dec.str().map_err(body_err)?;
                Response::Pong(ServerInfo {
                    proto_version,
                    format_version,
                    crate_version,
                })
            }
            kind::VALUE => Response::Value(get_opt_payload(&mut dec)?),
            kind::BATCH => {
                let n = dec.seq().map_err(body_err)?;
                let mut slots = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    slots.push(get_opt_payload(&mut dec)?);
                }
                Response::Batch(slots)
            }
            kind::DONE => Response::Done(dec.bool().map_err(body_err)?),
            kind::HAS => Response::Has(dec.bool().map_err(body_err)?),
            kind::ERROR => Response::Error(dec.str().map_err(body_err)?),
            kind::STATS_REPLY => {
                let mut s = ServeStats {
                    requests: dec.u64().map_err(body_err)?,
                    gets: dec.u64().map_err(body_err)?,
                    batch_keys: dec.u64().map_err(body_err)?,
                    puts: dec.u64().map_err(body_err)?,
                    contains: dec.u64().map_err(body_err)?,
                    pings: dec.u64().map_err(body_err)?,
                    hits: dec.u64().map_err(body_err)?,
                    misses: dec.u64().map_err(body_err)?,
                    bytes_in: dec.u64().map_err(body_err)?,
                    bytes_out: dec.u64().map_err(body_err)?,
                    connections: dec.u64().map_err(body_err)?,
                    frame_errors: dec.u64().map_err(body_err)?,
                    overloaded: dec.u64().map_err(body_err)?,
                    panics: dec.u64().map_err(body_err)?,
                    deadline_truncated: dec.u64().map_err(body_err)?,
                    size_truncated: dec.u64().map_err(body_err)?,
                    idle_reaped: dec.u64().map_err(body_err)?,
                    stage_computes: Vec::new(),
                    tier_totals: Vec::new(),
                };
                let n = dec.seq().map_err(body_err)?;
                for _ in 0..n {
                    let name = dec.str().map_err(body_err)?;
                    let count = dec.u64().map_err(body_err)?;
                    s.stage_computes.push((name, count));
                }
                let n = dec.seq().map_err(body_err)?;
                for _ in 0..n {
                    let name = dec.str().map_err(body_err)?;
                    let t = get_tier_stats(&mut dec)?;
                    s.tier_totals.push((name, t));
                }
                Response::Stats(s)
            }
            other => {
                return Err(RemoteError::Frame {
                    detail: format!("unknown response kind {other:#04x}"),
                })
            }
        };
        dec.finish().map_err(body_err)?;
        Ok(resp)
    }
}

// -- frame i/o ---------------------------------------------------------

/// Write one frame. Returns the total bytes written (header + body).
///
/// # Errors
///
/// [`RemoteError::Frame`] for a body over [`MAX_BODY_BYTES`] (nothing
/// is written: every reader would reject the frame). Propagates socket
/// write failures (timeouts surface as [`RemoteError::Timeout`]).
pub fn write_frame(
    w: &mut dyn Write,
    kind_byte: u8,
    request_id: u64,
    body: &[u8],
) -> Result<u64, RemoteError> {
    write_frame_versioned(w, PROTO_VERSION, kind_byte, request_id, body)
}

/// As [`write_frame`] with an explicit protocol version in the header.
/// Exists for version-skew testing and future protocol evolution; every
/// production frame is written with [`PROTO_VERSION`].
///
/// # Errors
///
/// As [`write_frame`].
pub fn write_frame_versioned(
    w: &mut dyn Write,
    version: u32,
    kind_byte: u8,
    request_id: u64,
    body: &[u8],
) -> Result<u64, RemoteError> {
    if body.len() as u64 > u64::from(MAX_BODY_BYTES) {
        return Err(RemoteError::Frame {
            detail: format!("body length {} exceeds {MAX_BODY_BYTES}", body.len()),
        });
    }
    let mut frame = Vec::with_capacity(HEADER_BYTES + body.len());
    frame.extend_from_slice(&PROTO_MAGIC);
    frame.extend_from_slice(&version.to_le_bytes());
    frame.push(kind_byte);
    frame.extend_from_slice(&request_id.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&checksum(body).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len() as u64)
}

/// One parsed frame: kind, request id, validated body, and the total
/// bytes read off the wire.
#[derive(Debug)]
pub struct Frame {
    /// The message kind byte.
    pub kind: u8,
    /// The request id (echoed between request and response).
    pub request_id: u64,
    /// The checksum-validated body bytes.
    pub body: Vec<u8>,
    /// Total frame size on the wire (header + body).
    pub wire_bytes: u64,
}

/// Read and validate one complete frame.
///
/// # Errors
///
/// [`RemoteError::Frame`] for structural damage (bad magic, oversize
/// length, checksum mismatch), [`RemoteError::VersionSkew`] for a
/// mismatched protocol version, [`RemoteError::Timeout`]/
/// [`RemoteError::Io`] for socket failures and truncation.
pub fn read_frame(r: &mut dyn Read) -> Result<Frame, RemoteError> {
    let mut first = [0u8; 1];
    r.read_exact(&mut first)?;
    read_frame_after(first[0], r)
}

/// As [`read_frame`] when the first header byte was already consumed —
/// the server reads that byte under a short poll timeout (so shutdown
/// stays responsive on idle connections) and hands it here once a frame
/// has actually started.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_after(first: u8, r: &mut dyn Read) -> Result<Frame, RemoteError> {
    let mut header = [0u8; HEADER_BYTES];
    header[0] = first;
    r.read_exact(&mut header[1..])?;
    if header[..8] != PROTO_MAGIC {
        return Err(RemoteError::Frame {
            detail: "bad frame magic".into(),
        });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != PROTO_VERSION {
        return Err(RemoteError::VersionSkew { peer: version });
    }
    let kind = header[12];
    let request_id = u64::from_le_bytes(header[13..21].try_into().expect("8 bytes"));
    let body_len = u32::from_le_bytes(header[21..25].try_into().expect("4 bytes"));
    if body_len > MAX_BODY_BYTES {
        return Err(RemoteError::Frame {
            detail: format!("body length {body_len} exceeds {MAX_BODY_BYTES}"),
        });
    }
    let expected_sum = u64::from_le_bytes(header[25..33].try_into().expect("8 bytes"));
    let mut body = vec![0u8; body_len as usize];
    r.read_exact(&mut body)?;
    if checksum(&body) != expected_sum {
        return Err(RemoteError::Frame {
            detail: "body checksum mismatch".into(),
        });
    }
    let wire_bytes = (HEADER_BYTES + body.len()) as u64;
    Ok(Frame {
        kind,
        request_id,
        body,
        wire_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut wire = Vec::new();
        let n = write_frame(&mut wire, req.kind(), 42, &req.encode_body()).expect("writes");
        assert_eq!(n as usize, wire.len());
        let frame = read_frame(&mut wire.as_slice()).expect("reads");
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.wire_bytes, n);
        assert_eq!(
            Request::decode(frame.kind, &frame.body).expect("decodes"),
            req
        );
    }

    fn round_trip_response(resp: Response) {
        let mut wire = Vec::new();
        write_frame(&mut wire, resp.kind(), 7, &resp.encode_body()).expect("writes");
        let frame = read_frame(&mut wire.as_slice()).expect("reads");
        assert_eq!(
            Response::decode(frame.kind, &frame.body).expect("decodes"),
            resp
        );
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Get {
            stage: Stage::Compile,
            key: 0xdead_beef,
        });
        round_trip_request(Request::Contains {
            stage: Stage::EvaluateSuite,
            key: u64::MAX,
        });
        round_trip_request(Request::GetBatch {
            keys: vec![(Stage::Compile, 1), (Stage::Profile, 2), (Stage::Design, 3)],
        });
        round_trip_request(Request::Put {
            stage: Stage::Schedule,
            key: 9,
            payload: vec![1, 2, 3, 0xFF],
        });
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::Closing);
        round_trip_response(Response::Pong(ServerInfo {
            proto_version: PROTO_VERSION,
            format_version: crate::store::FORMAT_VERSION,
            crate_version: "1.2.3".into(),
        }));
        round_trip_response(Response::Value(None));
        round_trip_response(Response::Value(Some(vec![0, 1, 2])));
        round_trip_response(Response::Batch(vec![Some(vec![5]), None, Some(vec![])]));
        round_trip_response(Response::Done(true));
        round_trip_response(Response::Has(false));
        round_trip_response(Response::Overloaded);
        round_trip_response(Response::Error("nope".into()));
        round_trip_response(Response::Stats(ServeStats {
            requests: 10,
            gets: 4,
            hits: 3,
            misses: 1,
            overloaded: 2,
            panics: 1,
            deadline_truncated: 7,
            size_truncated: 5,
            idle_reaped: 3,
            stage_computes: vec![("compile".into(), 12), ("profile".into(), 12)],
            tier_totals: vec![(
                "disk".into(),
                TierStats {
                    hits: 5,
                    entries: 120,
                    bytes: 1 << 20,
                    ..TierStats::default()
                },
            )],
            ..ServeStats::default()
        }));
    }

    #[test]
    fn batch_body_size_matches_its_encoding() {
        // payload lengths on both sides of the one- and two-byte varint
        // boundaries, and a slot count that needs a two-byte varint
        let mut slots = vec![
            None,
            Some(vec![7; 100]),
            None,
            Some(Vec::new()),
            Some(vec![1; 127]),
            Some(vec![2; 128]),
            Some(vec![3; 16_384]),
        ];
        slots.resize(130, None);
        let expected = batch_miss_body_bytes(slots.len())
            + slots
                .iter()
                .flatten()
                .map(|p| batch_hit_extra_bytes(p.len()))
                .sum::<usize>();
        assert_eq!(Response::Batch(slots).encode_body().len(), expected);
    }

    #[test]
    fn stages_travel_as_their_index() {
        for (i, stage) in Stage::all().into_iter().enumerate() {
            let body = Request::Get { stage, key: 300 }.encode_body();
            assert_eq!(body, [i as u8, 0xAC, 0x02], "{stage}");
        }
        assert!(matches!(
            Request::decode(kind::GET, &[9, 0]),
            Err(RemoteError::Frame { detail }) if detail.contains("stage")
        ));
    }

    #[test]
    fn oversize_body_is_refused_before_writing() {
        let mut wire = Vec::new();
        let body = vec![0u8; MAX_BODY_BYTES as usize + 1];
        assert!(matches!(
            write_frame(&mut wire, kind::BATCH, 1, &body),
            Err(RemoteError::Frame { detail }) if detail.contains("exceeds")
        ));
        assert!(wire.is_empty());
    }

    #[test]
    fn bad_magic_is_a_frame_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind::PING, 1, &[]).expect("writes");
        wire[0] = b'X';
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(RemoteError::Frame { .. })
        ));
    }

    #[test]
    fn version_skew_is_detected_before_the_body() {
        let mut wire = Vec::new();
        write_frame_versioned(&mut wire, PROTO_VERSION + 1, kind::PING, 1, &[]).expect("writes");
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(RemoteError::VersionSkew { peer }) if peer == PROTO_VERSION + 1
        ));
    }

    #[test]
    fn corrupt_body_fails_the_checksum() {
        let req = Request::Get {
            stage: Stage::Compile,
            key: 5,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, req.kind(), 1, &req.encode_body()).expect("writes");
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(RemoteError::Frame { detail }) if detail.contains("checksum")
        ));
    }

    #[test]
    fn truncated_frame_is_an_io_error_not_a_panic() {
        let req = Request::Put {
            stage: Stage::Compile,
            key: 5,
            payload: vec![9; 64],
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, req.kind(), 1, &req.encode_body()).expect("writes");
        for cut in [1, HEADER_BYTES - 1, HEADER_BYTES + 3] {
            let err = read_frame(&mut &wire[..cut]).unwrap_err();
            assert!(matches!(err, RemoteError::Io { .. }), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversize_length_is_rejected_before_allocating() {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind::GET, 1, &[]).expect("writes");
        wire[21..25].copy_from_slice(&(MAX_BODY_BYTES + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(RemoteError::Frame { detail }) if detail.contains("exceeds")
        ));
    }

    #[test]
    fn unknown_kinds_are_typed_errors() {
        assert!(Request::decode(0x7E, &[]).is_err());
        assert!(Response::decode(0x00, &[]).is_err());
    }

    #[test]
    fn trailing_body_bytes_are_rejected() {
        let mut body = Request::Ping.encode_body();
        body.extend_from_slice(&[1, 2, 3]);
        assert!(Request::decode(kind::PING, &body).is_err());
    }
}
