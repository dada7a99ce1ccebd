//! The record codec: one little-endian, CRC-framed record per log
//! entry.
//!
//! On disk every record is a frame `[u32 len][u32 crc(payload)]
//! [payload]`; the payload is a single-byte tag plus fixed-width
//! little-endian fields. Tag 0 is the log header (the first record of
//! segment zero); tags 1–6 mirror [`dosn_node::Event`]'s variants and
//! share a uniform prefix — `at_secs`, `seq`, `chain`, `prev` — so the
//! scheduler's total order key `(time, class, seq)` round-trips exactly
//! (`class` is derived from the tag, `time`/`seq` are stored verbatim).
//!
//! Decoding is strict, mirroring the daemon codec: a payload that is
//! truncated, carries an unknown tag, holds a bad enum arm, or leaves
//! trailing bytes is an error — never a panic, never a silent
//! acceptance.

use dosn_interval::le::{Dec, DecodeError, Enc, MAX_FIELD_BYTES};
use dosn_interval::Timestamp;
use dosn_node::{Event, ScheduledEvent};
use dosn_socialgraph::UserId;

use crate::crc::crc32;
use crate::LogKind;

/// Hard cap on one record's payload. Event records are under 50 bytes;
/// the header carries caller metadata (a `SimSpec`, tens of bytes).
/// Anything larger is a corrupt frame, refused before allocation.
pub const MAX_RECORD_BYTES: usize = MAX_FIELD_BYTES;

/// Bytes of the `[u32 len][u32 crc]` frame header.
pub const FRAME_HEADER_BYTES: u64 = 8;

/// The `prev` link of the first record in a user's chain.
pub const NO_PREV: u64 = u64::MAX;

/// One logged event with its per-user chain linkage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Absolute event time, seconds.
    pub at_secs: u64,
    /// The scheduler tie-break sequence
    /// ([`ScheduledEvent::seq`](dosn_node::ScheduledEvent::seq)).
    pub seq: u64,
    /// The user whose chain this record extends.
    pub chain: u32,
    /// Global byte position of this chain's previous record, or
    /// [`NO_PREV`] at the start of a chain.
    pub prev: u64,
    /// The event payload.
    pub event: Event,
}

impl EventRecord {
    /// Rebuilds the scheduler event. The `(time, class, seq)` queue key
    /// is recovered exactly: `class` is re-derived from the event type
    /// and `(time, seq)` are stored verbatim.
    pub fn scheduled(&self) -> ScheduledEvent {
        ScheduledEvent::new(Timestamp::new(self.at_secs), self.seq, self.event)
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// The log header — always the first record of segment zero, never
    /// anywhere else.
    Header {
        /// What the log holds.
        kind: LogKind,
        /// Opaque caller metadata (the daemon stores its encoded
        /// `SimSpec` here; the store never interprets it).
        meta: Vec<u8>,
    },
    /// A logged event.
    Event(EventRecord),
}

/// A malformed record payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The payload ended before the field being read.
    Truncated,
    /// The payload's leading tag names no known record.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A field carried an invalid encoding.
    BadValue {
        /// Which field was malformed.
        field: &'static str,
    },
    /// The record decoded fully but bytes remained.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record truncated"),
            RecordError::UnknownTag { tag } => write!(f, "unknown record tag {tag}"),
            RecordError::BadValue { field } => write!(f, "malformed record field {field}"),
            RecordError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after record")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl From<DecodeError> for RecordError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => RecordError::Truncated,
            DecodeError::BadValue { field } => RecordError::BadValue { field },
            DecodeError::TrailingBytes { extra } => RecordError::TrailingBytes { extra },
        }
    }
}

// ---------------------------------------------------------------------
// Record payloads

/// Encodes one record as a frame payload (no frame header).
pub fn encode_record(record: &Record) -> Vec<u8> {
    match record {
        Record::Header { kind, meta } => {
            let mut e = Enc::new(0);
            e.u8(kind.as_u8());
            e.bytes(meta);
            e.buf
        }
        Record::Event(rec) => {
            let tag = match rec.event {
                Event::SessionStart { .. } => 1,
                Event::SessionEnd { .. } => 2,
                Event::Post { .. } => 3,
                Event::ProfileRead { .. } => 4,
                Event::Disseminate { .. } => 5,
                Event::CloudFetch { .. } => 6,
            };
            let mut e = Enc::new(tag);
            e.u64(rec.at_secs);
            e.u64(rec.seq);
            e.u32(rec.chain);
            e.u64(rec.prev);
            match rec.event {
                Event::SessionStart { user } | Event::SessionEnd { user } => {
                    e.u32(user.as_u32());
                }
                Event::Post { activity } => e.u32(activity),
                Event::ProfileRead { owner, reader } => {
                    e.u32(owner.as_u32());
                    e.u32(reader.as_u32());
                }
                Event::Disseminate { post, host, source } => {
                    e.u32(post);
                    e.u32(host.as_u32());
                    e.u32(source.as_u32());
                }
                Event::CloudFetch { post, host } => {
                    e.u32(post);
                    e.u32(host.as_u32());
                }
            }
            e.buf
        }
    }
}

/// Decodes one record payload.
///
/// # Errors
///
/// Any [`RecordError`]: the payload must parse completely with no bytes
/// to spare.
pub fn decode_record(payload: &[u8]) -> Result<Record, RecordError> {
    let mut d = Dec::new(payload);
    let tag = d.u8()?;
    let record = if tag == 0 {
        let kind = LogKind::from_u8(d.u8()?).ok_or(RecordError::BadValue { field: "kind" })?;
        let meta = d.bytes()?;
        Record::Header { kind, meta }
    } else {
        let at_secs = d.u64()?;
        let seq = d.u64()?;
        let chain = d.u32()?;
        let prev = d.u64()?;
        let event = match tag {
            1 => Event::SessionStart { user: UserId::new(d.u32()?) },
            2 => Event::SessionEnd { user: UserId::new(d.u32()?) },
            3 => Event::Post { activity: d.u32()? },
            4 => Event::ProfileRead {
                owner: UserId::new(d.u32()?),
                reader: UserId::new(d.u32()?),
            },
            5 => Event::Disseminate {
                post: d.u32()?,
                host: UserId::new(d.u32()?),
                source: UserId::new(d.u32()?),
            },
            6 => Event::CloudFetch { post: d.u32()?, host: UserId::new(d.u32()?) },
            tag => return Err(RecordError::UnknownTag { tag }),
        };
        Record::Event(EventRecord { at_secs, seq, chain, prev, event })
    };
    d.finish()?;
    Ok(record)
}

// ---------------------------------------------------------------------
// Framing

/// Appends the CRC frame of `payload` to `out`:
/// `[u32 len][u32 crc(payload)][payload]`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = payload.len().min(u32::MAX as usize);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend(payload.iter().take(len));
}

/// What the bytes at a segment position hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete, checksum-valid payload; `frame_len` covers the
    /// header and payload together.
    Ok {
        /// The checksummed payload bytes.
        payload: &'a [u8],
        /// Total on-disk size of the frame.
        frame_len: u64,
    },
    /// The segment ends cleanly here.
    End,
    /// The remaining bytes are not a valid frame: truncated header,
    /// oversized length, truncated payload, or checksum mismatch. A
    /// torn tail if this is the last segment; corruption otherwise —
    /// the distinction is the reader's, by position.
    Torn,
}

/// Parses the frame starting at the front of `buf`.
pub fn next_frame(buf: &[u8]) -> Frame<'_> {
    if buf.is_empty() {
        return Frame::End;
    }
    let Some(header) = buf.get(..8) else {
        return Frame::Torn;
    };
    let mut raw = [0u8; 4];
    let Some(len_bytes) = header.get(..4) else {
        return Frame::Torn;
    };
    raw.copy_from_slice(len_bytes);
    let len = u32::from_le_bytes(raw) as usize;
    let Some(crc_bytes) = header.get(4..8) else {
        return Frame::Torn;
    };
    raw.copy_from_slice(crc_bytes);
    let expected_crc = u32::from_le_bytes(raw);
    if len > MAX_RECORD_BYTES {
        return Frame::Torn;
    }
    let Some(payload) = buf.get(8..8 + len) else {
        return Frame::Torn;
    };
    if crc32(payload) != expected_crc {
        return Frame::Torn;
    }
    Frame::Ok { payload, frame_len: FRAME_HEADER_BYTES + len as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Header { kind: LogKind::Events, meta: Vec::new() },
            Record::Header { kind: LogKind::Journal, meta: vec![1, 2, 3, 255] },
            Record::Event(EventRecord {
                at_secs: 86_400,
                seq: 7,
                chain: 3,
                prev: NO_PREV,
                event: Event::SessionStart { user: UserId::new(3) },
            }),
            Record::Event(EventRecord {
                at_secs: 86_401,
                seq: 8,
                chain: 3,
                prev: 24,
                event: Event::SessionEnd { user: UserId::new(3) },
            }),
            Record::Event(EventRecord {
                at_secs: 90_000,
                seq: 0,
                chain: 9,
                prev: NO_PREV,
                event: Event::Post { activity: 41 },
            }),
            Record::Event(EventRecord {
                at_secs: 90_001,
                seq: 1,
                chain: 9,
                prev: 61,
                event: Event::ProfileRead { owner: UserId::new(9), reader: UserId::new(2) },
            }),
            Record::Event(EventRecord {
                at_secs: 90_002,
                seq: 2,
                chain: 5,
                prev: NO_PREV,
                event: Event::Disseminate {
                    post: 41,
                    host: UserId::new(5),
                    source: UserId::new(9),
                },
            }),
            Record::Event(EventRecord {
                at_secs: 90_003,
                seq: 3,
                chain: 6,
                prev: NO_PREV,
                event: Event::CloudFetch { post: 41, host: UserId::new(6) },
            }),
        ]
    }

    #[test]
    fn every_record_roundtrips() {
        for record in sample_records() {
            let payload = encode_record(&record);
            assert_eq!(decode_record(&payload).expect("roundtrip"), record, "{record:?}");
        }
    }

    #[test]
    fn truncations_are_rejected_at_every_cut() {
        for record in sample_records() {
            let payload = encode_record(&record);
            for cut in 0..payload.len() {
                assert!(
                    decode_record(&payload[..cut]).is_err(),
                    "{record:?} decoded from {cut}/{} bytes",
                    payload.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_and_bad_tags_are_rejected() {
        let mut payload = encode_record(&sample_records().remove(2));
        payload.push(0);
        assert_eq!(decode_record(&payload), Err(RecordError::TrailingBytes { extra: 1 }));
        // An unknown tag with a complete event prefix (28 bytes).
        let mut unknown = vec![200u8];
        unknown.extend_from_slice(&[0; 28]);
        assert_eq!(decode_record(&unknown), Err(RecordError::UnknownTag { tag: 200 }));
        // A header with an unknown kind byte.
        assert_eq!(
            decode_record(&[0, 9, 0, 0, 0, 0]),
            Err(RecordError::BadValue { field: "kind" })
        );
    }

    #[test]
    fn scheduled_event_reconstructs_the_queue_key() {
        let rec = EventRecord {
            at_secs: 5_000,
            seq: 42,
            chain: 1,
            prev: NO_PREV,
            event: Event::Post { activity: 17 },
        };
        let ev = rec.scheduled();
        assert_eq!(ev.at.as_secs(), 5_000);
        assert_eq!(ev.seq(), 42);
        assert_eq!(ev.event, rec.event);
        // The reconstructed event compares identically to a natively
        // scheduled one — same (time, class, seq) key.
        let native = ScheduledEvent::new(Timestamp::new(5_000), 42, Event::Post { activity: 17 });
        assert_eq!(ev.cmp(&native), std::cmp::Ordering::Equal);
    }

    #[test]
    fn frames_roundtrip_and_detect_damage() {
        let payload = encode_record(&sample_records().remove(4));
        let mut disk = Vec::new();
        append_frame(&mut disk, &payload);
        append_frame(&mut disk, &payload);
        // First frame parses and yields the payload.
        let Frame::Ok { payload: got, frame_len } = next_frame(&disk) else {
            panic!("first frame must parse");
        };
        assert_eq!(got, &payload[..]);
        assert_eq!(frame_len, FRAME_HEADER_BYTES + payload.len() as u64);
        // The remainder holds the second frame, then a clean end.
        let rest = &disk[frame_len as usize..];
        assert!(matches!(next_frame(rest), Frame::Ok { .. }));
        assert_eq!(next_frame(&[]), Frame::End);
        // Any truncation of a frame is torn, not a parse.
        for cut in 1..disk.len().min(frame_len as usize) {
            assert_eq!(next_frame(&disk[..cut]), Frame::Torn, "cut at {cut}");
        }
        // A flipped payload byte fails the checksum.
        let mut flipped = disk.clone();
        flipped[10] ^= 0xFF;
        assert_eq!(next_frame(&flipped), Frame::Torn);
        // An absurd announced length is torn, not an allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&[0; 12]);
        assert_eq!(next_frame(&huge), Frame::Torn);
    }
}
