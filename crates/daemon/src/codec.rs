//! The wire form of the protocol: `[u32 LE length][payload]` frames
//! with single-byte tags and fixed-width little-endian fields.
//!
//! Scalars are `u8`/`u32`/`u64` little-endian; `f64` travels as its
//! IEEE-754 bit pattern (so summaries survive the wire bit-exactly);
//! `bool` is one byte (`0`/`1`, anything else rejected); strings are a
//! `u32` length plus UTF-8 bytes. Decoding is strict: a frame that is
//! truncated, oversized, carries an unknown tag, or leaves trailing
//! bytes is an error — never a panic, never a silent acceptance.

use std::io::{self, Read, Write};

use dosn_core::{ModelKind, PolicyKind};
use dosn_interval::le::{Dec, DecodeError, Enc, MAX_FIELD_BYTES};
use dosn_node::DisseminationMode;

use crate::protocol::{
    DatasetFamily, ReportParts, Request, Response, SimSpec, SummaryParts,
};

/// Hard cap on one frame's payload, generous for every protocol frame
/// (the largest — `Report` — is under 200 bytes; `Error` carries a
/// short message). Anything larger is a corrupt or hostile stream.
pub const MAX_FRAME_BYTES: usize = MAX_FIELD_BYTES;

/// A malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// The frame header announces more than [`MAX_FRAME_BYTES`].
    Oversized {
        /// The announced payload length.
        announced: u64,
    },
    /// The payload's leading tag names no known frame.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A field carried an invalid encoding (bad bool, bad enum arm,
    /// invalid UTF-8).
    BadValue {
        /// Which field was malformed.
        field: &'static str,
    },
    /// The frame decoded fully but bytes remained.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized { announced } => {
                write!(f, "frame announces {announced} bytes (max {MAX_FRAME_BYTES})")
            }
            WireError::UnknownTag { tag } => write!(f, "unknown frame tag {tag}"),
            WireError::BadValue { field } => write!(f, "malformed field {field}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::BadValue { field } => WireError::BadValue { field },
            DecodeError::TrailingBytes { extra } => WireError::TrailingBytes { extra },
        }
    }
}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------
// Compound fields

fn enc_model(e: &mut Enc, model: ModelKind) {
    match model {
        ModelKind::Sporadic { session_secs } => {
            e.u8(0);
            e.u32(session_secs);
            e.u32(0);
        }
        ModelKind::FixedLength { window_secs } => {
            e.u8(1);
            e.u32(window_secs);
            e.u32(0);
        }
        ModelKind::RandomLength { min_secs, max_secs } => {
            e.u8(2);
            e.u32(min_secs);
            e.u32(max_secs);
        }
    }
}

fn dec_model(d: &mut Dec<'_>) -> Result<ModelKind, WireError> {
    let tag = d.u8()?;
    let a = d.u32()?;
    let b = d.u32()?;
    match tag {
        0 => Ok(ModelKind::Sporadic { session_secs: a }),
        1 => Ok(ModelKind::FixedLength { window_secs: a }),
        2 => Ok(ModelKind::RandomLength { min_secs: a, max_secs: b }),
        _ => Err(WireError::BadValue { field: "model" }),
    }
}

fn enc_policy(e: &mut Enc, policy: PolicyKind) {
    e.u8(match policy {
        PolicyKind::MaxAv => 0,
        PolicyKind::MaxAvOnDemandTime => 1,
        PolicyKind::MaxAvOnDemandActivity => 2,
        PolicyKind::MostActive => 3,
        PolicyKind::Random => 4,
    });
}

fn dec_policy(d: &mut Dec<'_>) -> Result<PolicyKind, WireError> {
    match d.u8()? {
        0 => Ok(PolicyKind::MaxAv),
        1 => Ok(PolicyKind::MaxAvOnDemandTime),
        2 => Ok(PolicyKind::MaxAvOnDemandActivity),
        3 => Ok(PolicyKind::MostActive),
        4 => Ok(PolicyKind::Random),
        _ => Err(WireError::BadValue { field: "policy" }),
    }
}

fn enc_summary(e: &mut Enc, s: &SummaryParts) {
    e.u64(s.count);
    e.f64(s.sum);
    e.f64(s.sum_sq);
    e.f64(s.min);
    e.f64(s.max);
}

fn dec_summary(d: &mut Dec<'_>) -> Result<SummaryParts, WireError> {
    Ok(SummaryParts {
        count: d.u64()?,
        sum: d.f64()?,
        sum_sq: d.f64()?,
        min: d.f64()?,
        max: d.f64()?,
    })
}

// ---------------------------------------------------------------------
// SimSpec body (shared by the Open frame and the journal log header)

fn enc_spec(e: &mut Enc, spec: &SimSpec) {
    e.u8(match spec.family {
        DatasetFamily::Facebook => 0,
        DatasetFamily::Twitter => 1,
    });
    e.u32(spec.users);
    e.u64(spec.dataset_seed);
    e.u64(spec.config_seed);
    enc_model(e, spec.model);
    enc_policy(e, spec.policy);
    e.u32(spec.replication_degree);
    e.bool(spec.unconrep);
    match spec.dissemination {
        DisseminationMode::FriendToFriend => {
            e.u8(0);
            e.u64(0);
        }
        DisseminationMode::Cloud { latency_secs } => {
            e.u8(1);
            e.u64(latency_secs);
        }
    }
}

fn dec_spec(d: &mut Dec<'_>) -> Result<SimSpec, WireError> {
    let family = match d.u8()? {
        0 => DatasetFamily::Facebook,
        1 => DatasetFamily::Twitter,
        _ => return Err(WireError::BadValue { field: "family" }),
    };
    let users = d.u32()?;
    let dataset_seed = d.u64()?;
    let config_seed = d.u64()?;
    let model = dec_model(d)?;
    let policy = dec_policy(d)?;
    let replication_degree = d.u32()?;
    let unconrep = d.bool("unconrep")?;
    let dissemination = match d.u8()? {
        0 => {
            let _reserved = d.u64()?;
            DisseminationMode::FriendToFriend
        }
        1 => DisseminationMode::Cloud { latency_secs: d.u64()? },
        _ => return Err(WireError::BadValue { field: "dissemination" }),
    };
    Ok(SimSpec {
        family,
        users,
        dataset_seed,
        config_seed,
        model,
        policy,
        replication_degree,
        unconrep,
        dissemination,
    })
}

/// Encodes a spec standalone — the form a journal log's header metadata
/// stores, so a restarted daemon can check the recovered journal
/// belongs to the session being opened.
pub fn encode_spec(spec: &SimSpec) -> Vec<u8> {
    // Reuse the Open frame's field layout, minus its frame tag.
    let mut e = Enc::default();
    enc_spec(&mut e, spec);
    e.buf
}

/// Decodes a standalone spec (see [`encode_spec`]).
///
/// # Errors
///
/// Any [`WireError`]: the payload must parse completely with no bytes
/// to spare.
pub fn decode_spec(payload: &[u8]) -> Result<SimSpec, WireError> {
    let mut d = Dec::new(payload);
    let spec = dec_spec(&mut d)?;
    d.finish()?;
    Ok(spec)
}

// ---------------------------------------------------------------------
// Frame payloads

/// Encodes one request as a frame payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Hello { version } => {
            let mut e = Enc::new(0);
            e.u32(*version);
            e.buf
        }
        Request::Open(spec) => {
            let mut e = Enc::new(1);
            enc_spec(&mut e, spec);
            e.buf
        }
        Request::Post { index, creator, receiver, at_secs } => {
            let mut e = Enc::new(2);
            e.u32(*index);
            e.u32(*creator);
            e.u32(*receiver);
            e.u64(*at_secs);
            e.buf
        }
        Request::Read { seq, owner, reader, at_secs } => {
            let mut e = Enc::new(3);
            e.u64(*seq);
            e.u32(*owner);
            e.u32(*reader);
            e.u64(*at_secs);
            e.buf
        }
        Request::Finish => Enc::new(4).buf,
        Request::Ping => Enc::new(5).buf,
        Request::Shutdown => Enc::new(6).buf,
    }
}

/// Decodes one request payload.
///
/// # Errors
///
/// Any [`WireError`]: the payload must parse completely with no bytes
/// to spare.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut d = Dec::new(payload);
    let req = match d.u8()? {
        0 => Request::Hello { version: d.u32()? },
        1 => Request::Open(dec_spec(&mut d)?),
        2 => Request::Post {
            index: d.u32()?,
            creator: d.u32()?,
            receiver: d.u32()?,
            at_secs: d.u64()?,
        },
        3 => Request::Read {
            seq: d.u64()?,
            owner: d.u32()?,
            reader: d.u32()?,
            at_secs: d.u64()?,
        },
        4 => Request::Finish,
        5 => Request::Ping,
        6 => Request::Shutdown,
        tag => return Err(WireError::UnknownTag { tag }),
    };
    d.finish()?;
    Ok(req)
}

/// Encodes one response as a frame payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Welcome { version } => {
            let mut e = Enc::new(0);
            e.u32(*version);
            e.buf
        }
        Response::Opened { users, span_days, posts, recovered } => {
            let mut e = Enc::new(1);
            e.u32(*users);
            e.u64(*span_days);
            e.u32(*posts);
            e.u64(*recovered);
            e.buf
        }
        Response::PostAck { delivered } => {
            let mut e = Enc::new(2);
            e.bool(*delivered);
            e.buf
        }
        Response::ReadAck { served } => {
            let mut e = Enc::new(3);
            e.bool(*served);
            e.buf
        }
        Response::Report(parts) => {
            let mut e = Enc::new(4);
            e.u64(parts.posts_total);
            e.u64(parts.posts_delivered);
            enc_summary(&mut e, &parts.staleness_hours);
            e.u64(parts.incomplete_dissemination);
            e.u64(parts.reads_total);
            e.u64(parts.reads_served);
            enc_summary(&mut e, &parts.stored_updates);
            enc_summary(&mut e, &parts.messages_sent);
            e.buf
        }
        Response::Pong => Enc::new(5).buf,
        Response::ShuttingDown => Enc::new(6).buf,
        Response::Error { message } => {
            let mut e = Enc::new(7);
            e.str(message);
            e.buf
        }
    }
}

/// Decodes one response payload.
///
/// # Errors
///
/// Any [`WireError`]: the payload must parse completely with no bytes
/// to spare.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut d = Dec::new(payload);
    let resp = match d.u8()? {
        0 => Response::Welcome { version: d.u32()? },
        1 => Response::Opened {
            users: d.u32()?,
            span_days: d.u64()?,
            posts: d.u32()?,
            recovered: d.u64()?,
        },
        2 => Response::PostAck { delivered: d.bool("delivered")? },
        3 => Response::ReadAck { served: d.bool("served")? },
        4 => Response::Report(ReportParts {
            posts_total: d.u64()?,
            posts_delivered: d.u64()?,
            staleness_hours: dec_summary(&mut d)?,
            incomplete_dissemination: d.u64()?,
            reads_total: d.u64()?,
            reads_served: d.u64()?,
            stored_updates: dec_summary(&mut d)?,
            messages_sent: dec_summary(&mut d)?,
        }),
        5 => Response::Pong,
        6 => Response::ShuttingDown,
        7 => Response::Error { message: d.str("message")? },
        tag => return Err(WireError::UnknownTag { tag }),
    };
    d.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Frame I/O

/// Capacity of a [`FrameReader`]'s buffer: the largest legal frame with
/// its header fits several times over, so a partial frame always has
/// room behind it and the buffer never grows.
const READ_BUFFER_BYTES: usize = 64 * 1024;

const _: () = assert!(READ_BUFFER_BYTES >= MAX_FRAME_BYTES + 4);

/// The payload length a frame header announces.
fn frame_len(header: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized { announced: len as u64 });
    }
    Ok(len)
}

/// Appends one length-prefixed frame to `out`: the one place a frame is
/// built, whether it goes out alone or behind a batch of others.
///
/// # Errors
///
/// [`WireError::Oversized`] for a payload over [`MAX_FRAME_BYTES`]
/// (the encoder never produces one); `out` is then left unchanged.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::Oversized { announced: payload.len() as u64 });
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Writes one length-prefixed frame with a single write.
///
/// # Errors
///
/// Propagates the writer's I/O errors; an over-long payload is a
/// [`WireError::Oversized`] wrapped as `InvalidData` (the encoder never
/// produces one, so hitting this is a caller bug, reported not
/// panicked).
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame_into(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` is a clean EOF at a
/// frame boundary. It reads no byte past the frame, so a caller that
/// takes one frame at a time loses nothing; a server draining a stream
/// uses a [`FrameReader`] instead.
///
/// # Errors
///
/// Propagates the reader's I/O errors; an oversized header or an EOF
/// mid-frame is reported as `InvalidData`/`UnexpectedEof`.
pub fn read_frame(r: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Filled => {}
    }
    let mut payload = vec![0u8; frame_len(header)?];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

enum ReadOutcome {
    Filled,
    Eof,
}

/// `read_exact`, except a clean EOF before the first byte is reported
/// as [`ReadOutcome::Eof`] instead of an error.
fn read_exact_or_eof(r: &mut dyn Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let Some(rest) = buf.get_mut(filled..) else { break };
        match r.read(rest) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Filled)
}

/// Cuts a byte stream into frames: one owned buffer that each
/// [`fill`](FrameReader::fill) tops up with whatever a single `read`
/// delivers, and from which [`next_frame`](FrameReader::next_frame)
/// then slices every complete frame without copying. A client that
/// pipelines its requests thus costs the server one `read` per batch of
/// frames rather than two per frame.
#[derive(Debug)]
pub struct FrameReader {
    buf: Box<[u8]>,
    /// First byte not yet cut into a frame.
    start: usize,
    /// One past the last byte read.
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// An empty reader with a 64 KiB buffer.
    pub fn new() -> FrameReader {
        FrameReader { buf: vec![0u8; READ_BUFFER_BYTES].into_boxed_slice(), start: 0, end: 0 }
    }

    /// Reads once from `r` into the free end of the buffer, first moving
    /// any partial frame to the front. Call it only once
    /// [`next_frame`](FrameReader::next_frame) has returned `Ok(None)`,
    /// so every byte still buffered belongs to one unfinished frame.
    ///
    /// Returns `Ok(true)` when bytes arrived and `Ok(false)` on a clean
    /// close: EOF with nothing buffered, at a frame boundary.
    ///
    /// # Errors
    ///
    /// The reader's errors pass through unchanged (so a caller can treat
    /// a read timeout as a poll point and fill again); EOF inside a frame
    /// is `UnexpectedEof`; a buffer left full of complete frames, which
    /// the calling rule above excludes, is `InvalidInput`.
    pub fn fill(&mut self, r: &mut dyn Read) -> io::Result<bool> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let spare = match self.buf.get_mut(self.end..) {
            Some(spare) if !spare.is_empty() => spare,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "frame buffer full: cut the buffered frames before filling",
                ))
            }
        };
        match r.read(spare)? {
            0 if self.end == 0 => Ok(false),
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.end += n;
                Ok(true)
            }
        }
    }

    /// Cuts the next complete frame out of the buffer and returns its
    /// payload; `Ok(None)` when the buffered bytes hold no complete frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] as soon as a header announcing more than
    /// [`MAX_FRAME_BYTES`] is buffered, before any of its payload is
    /// waited for. Framing is lost from there on, so the stream is done.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let Some(buffered) = self.buf.get(self.start..self.end) else { return Ok(None) };
        let Some(&header) = buffered.first_chunk::<4>() else { return Ok(None) };
        let len = frame_len(header)?;
        let Some(payload) = buffered.get(4..4 + len) else { return Ok(None) };
        self.start += 4 + len;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> SimSpec {
        SimSpec {
            family: DatasetFamily::Twitter,
            users: 1_000,
            dataset_seed: 7,
            config_seed: 99,
            model: ModelKind::RandomLength { min_secs: 600, max_secs: 7_200 },
            policy: PolicyKind::MostActive,
            replication_degree: 3,
            unconrep: true,
            dissemination: DisseminationMode::Cloud { latency_secs: 120 },
        }
    }

    fn every_request() -> Vec<Request> {
        vec![
            Request::Hello { version: PROTOCOL_VERSION },
            Request::Open(sample_spec()),
            Request::Open(SimSpec {
                family: DatasetFamily::Facebook,
                model: ModelKind::sporadic_default(),
                policy: PolicyKind::Random,
                unconrep: false,
                dissemination: DisseminationMode::FriendToFriend,
                ..sample_spec()
            }),
            Request::Post { index: 17, creator: 3, receiver: 9, at_secs: 86_400 },
            Request::Read { seq: 41, owner: 2, reader: 8, at_secs: 3_601 },
            Request::Finish,
            Request::Ping,
            Request::Shutdown,
        ]
    }

    fn every_response() -> Vec<Response> {
        let summary = SummaryParts { count: 3, sum: 4.5, sum_sq: 8.25, min: 0.5, max: 2.5 };
        vec![
            Response::Welcome { version: PROTOCOL_VERSION },
            Response::Opened { users: 1_000, span_days: 28, posts: 44_000, recovered: 0 },
            Response::Opened { users: 1_000, span_days: 28, posts: 44_000, recovered: 512 },
            Response::PostAck { delivered: true },
            Response::PostAck { delivered: false },
            Response::ReadAck { served: true },
            Response::Report(ReportParts {
                posts_total: 100,
                posts_delivered: 93,
                staleness_hours: summary,
                incomplete_dissemination: 2,
                reads_total: 50,
                reads_served: 48,
                stored_updates: summary,
                messages_sent: SummaryParts { count: 0, sum: 0.0, sum_sq: 0.0, min: 0.0, max: 0.0 },
            }),
            Response::Pong,
            Response::ShuttingDown,
            Response::Error { message: "no session open".to_string() },
        ]
    }

    use crate::protocol::PROTOCOL_VERSION;

    #[test]
    fn every_request_roundtrips() {
        for req in every_request() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).expect("roundtrip"), req, "{req:?}");
        }
    }

    #[test]
    fn every_response_roundtrips() {
        for resp in every_response() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).expect("roundtrip"), resp, "{resp:?}");
        }
    }

    #[test]
    fn standalone_specs_roundtrip_and_reject_damage() {
        let spec = sample_spec();
        let bytes = encode_spec(&spec);
        assert_eq!(decode_spec(&bytes).expect("roundtrip"), spec);
        for cut in 0..bytes.len() {
            assert!(decode_spec(&bytes[..cut]).is_err(), "spec decoded from {cut} bytes");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_spec(&trailing), Err(WireError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn truncated_payloads_are_rejected_at_every_length() {
        for req in every_request() {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                assert!(
                    decode_request(&bytes[..cut]).is_err(),
                    "{req:?} decoded from {cut}/{} bytes",
                    bytes.len()
                );
            }
        }
        for resp in every_response() {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                assert!(
                    decode_response(&bytes[..cut]).is_err(),
                    "{resp:?} decoded from {cut}/{} bytes",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for req in every_request() {
            let mut bytes = encode_request(&req);
            bytes.push(0);
            assert_eq!(
                decode_request(&bytes),
                Err(WireError::TrailingBytes { extra: 1 }),
                "{req:?}"
            );
        }
    }

    #[test]
    fn unknown_tags_and_bad_values_are_rejected() {
        assert_eq!(decode_request(&[200]), Err(WireError::UnknownTag { tag: 200 }));
        assert_eq!(decode_response(&[200]), Err(WireError::UnknownTag { tag: 200 }));
        // A PostAck whose bool is neither 0 nor 1.
        assert_eq!(
            decode_response(&[2, 7]),
            Err(WireError::BadValue { field: "delivered" })
        );
        // An Error frame with invalid UTF-8.
        assert_eq!(
            decode_response(&[7, 2, 0, 0, 0, 0xFF, 0xFE]),
            Err(WireError::BadValue { field: "message" })
        );
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let payload = encode_request(&Request::Ping);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("in-memory write");
        let mut cursor = &wire[..];
        let read = read_frame(&mut cursor).expect("well-formed frame");
        assert_eq!(read.as_deref(), Some(&payload[..]));
        // Clean EOF at the boundary.
        assert!(read_frame(&mut cursor).expect("eof is clean").is_none());
        // An oversized header is refused before any allocation.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        let mut cursor = &huge[..];
        let err = read_frame(&mut cursor).expect_err("oversized frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Writing an oversized payload is refused too.
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(write_frame(&mut Vec::new(), &big).is_err());
        // EOF mid-frame is an error, not a silent None.
        let partial = [4u8, 0, 0, 0, 1, 2];
        let mut cursor = &partial[..];
        let err = read_frame(&mut cursor).expect_err("truncated frame");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A `Read` that hands out `bytes` in chunks of the given sizes, in
    /// turn and cycling, then reports EOF.
    struct Chunked<'a> {
        bytes: &'a [u8],
        sizes: Vec<usize>,
        turn: usize,
    }

    impl<'a> Chunked<'a> {
        fn new(bytes: &'a [u8], sizes: &[usize]) -> Self {
            Chunked { bytes, sizes: sizes.iter().map(|&k| k.max(1)).collect(), turn: 0 }
        }
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            let n = size.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Every frame a reader cuts from `src` until a clean close.
    fn drain(src: &mut dyn Read) -> io::Result<Vec<Vec<u8>>> {
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            while let Some(payload) = reader.next_frame()? {
                frames.push(payload.to_vec());
            }
            if !reader.fill(src)? {
                return Ok(frames);
            }
        }
    }

    fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            frame_into(&mut wire, p).expect("payload fits a frame");
        }
        wire
    }

    #[test]
    fn write_frame_is_frame_into() {
        let payload = encode_request(&Request::Ping);
        let mut written = Vec::new();
        write_frame(&mut written, &payload).expect("in-memory write");
        let mut built = Vec::new();
        frame_into(&mut built, &payload).expect("small payload");
        assert_eq!(written, built);
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(frame_into(&mut built, &big).is_err());
        assert_eq!(written, built, "a refused payload leaves the buffer alone");
    }

    #[test]
    fn frame_reader_yields_the_same_frames_at_every_split_point() {
        let payloads: Vec<Vec<u8>> = every_request().iter().map(encode_request).collect();
        let wire = framed(&payloads);
        for split in 1..wire.len() {
            let mut src = Chunked::new(&wire, &[split, wire.len()]);
            assert_eq!(drain(&mut src).expect("well-formed stream"), payloads, "split {split}");
        }
        let mut trickle = Chunked::new(&wire, &[1]);
        assert_eq!(drain(&mut trickle).expect("one byte a read"), payloads);
    }

    #[test]
    fn frame_reader_fits_maximal_frames() {
        let payloads = vec![vec![7u8; MAX_FRAME_BYTES], vec![], vec![9u8; MAX_FRAME_BYTES]];
        let wire = framed(&payloads);
        for size in [1_000, 7_000, MAX_FRAME_BYTES + 4, READ_BUFFER_BYTES] {
            let mut src = Chunked::new(&wire, &[size]);
            assert_eq!(drain(&mut src).expect("legal frames"), payloads, "chunks of {size}");
        }
    }

    #[test]
    fn frame_reader_rejects_an_oversized_header_before_its_payload() {
        /// Delivers a header, then fails any further read.
        struct HeaderOnly(Option<[u8; 4]>);
        impl Read for HeaderOnly {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let header = self.0.take().ok_or_else(|| io::Error::other("payload read"))?;
                buf[..4].copy_from_slice(&header);
                Ok(4)
            }
        }
        let announced = MAX_FRAME_BYTES as u32 + 1;
        let mut src = HeaderOnly(Some(announced.to_le_bytes()));
        let mut reader = FrameReader::new();
        assert!(reader.fill(&mut src).expect("header arrives"));
        assert_eq!(
            reader.next_frame(),
            Err(WireError::Oversized { announced: u64::from(announced) })
        );
    }

    #[test]
    fn frame_reader_reports_eof_inside_a_frame() {
        let wire = framed(&[encode_request(&Request::Ping), encode_request(&Request::Finish)]);
        // Every cut short of a boundary: mid-header (first frame or second)
        // and mid-payload.
        let boundaries = [0, 5, wire.len()];
        for cut in (1..wire.len()).filter(|c| !boundaries.contains(c)) {
            let mut src = Chunked::new(&wire[..cut], &[3]);
            let err = drain(&mut src).expect_err("truncated stream");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
    }

    #[test]
    fn frame_reader_closes_cleanly_at_a_boundary() {
        let mut reader = FrameReader::new();
        assert!(!reader.fill(&mut io::empty()).expect("EOF before any byte is clean"));
        let wire = framed(&[encode_request(&Request::Ping)]);
        assert_eq!(drain(&mut &wire[..]).expect("clean close").len(), 1);
    }

    proptest::proptest! {
        #[test]
        fn frame_reader_is_blind_to_how_reads_are_chunked(
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
                0..12,
            ),
            sizes in proptest::collection::vec(1usize..120, 1..8),
        ) {
            let wire = framed(&payloads);
            let mut src = Chunked::new(&wire, &sizes);
            proptest::prop_assert_eq!(drain(&mut src).expect("well-formed stream"), payloads);
        }
    }
}
