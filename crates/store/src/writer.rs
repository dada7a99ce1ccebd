//! The log writer: appends CRC-framed event records into rolling
//! segment files, maintaining the per-user chain heads as it goes.
//!
//! Two durability profiles fall out of [`LogKind`]:
//!
//! * [`LogKind::Events`] — batch capture. Writes are buffered and
//!   flushed at segment rolls and [`LogWriter::finish`]; throughput is
//!   the priority, the batch run can simply be repeated after a crash.
//! * [`LogKind::Journal`] — write-ahead. Each append — one record, or
//!   the batch of requests a daemon session drained from its socket —
//!   flushes once before returning, so a batch is on its way to disk
//!   before the daemon steps or acks any of it. A crash loses at most
//!   the torn tail frame the next [`LogWriter::resume`] drops.
//!
//! A failed append latches: the writer refuses every later append and
//! [`LogWriter::finish`] returns the first error: records appended
//! behind a torn frame would be dropped with it on recovery, or read as
//! corruption once its segment is sealed. The writer also carries
//! the store's [`dosn_node::EventSink`] implementation, which is how the
//! batch engine journals a run without the node crate knowing the store
//! exists; the sink is infallible by contract, and the latch is how a
//! failed capture is reported, never silently partial.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use dosn_node::{EventSink, ScheduledEvent};
use dosn_socialgraph::UserId;

use crate::index::{write_index, IndexFile};
use crate::reader::{log_exists, scan, segment_file_name, ScannedLog, TailState};
use crate::record::{append_frame, encode_record, EventRecord, Record, NO_PREV};
use crate::{LogKind, StoreError};

/// Segment roll threshold: a new segment starts once the current one
/// reaches this many bytes. Small enough that compaction and CI
/// exercises multi-segment logs; large enough that a million-event run
/// stays in tens of files.
pub const SEGMENT_TARGET_BYTES: u64 = 4 * 1024 * 1024;

/// What [`LogWriter::finish`] reports about the completed log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Event records written (header not counted).
    pub records: u64,
    /// Total bytes across all segments, header and frames included.
    pub bytes: u64,
    /// Segment files in the log.
    pub segments: u64,
}

/// An open, appendable log.
#[derive(Debug)]
pub struct LogWriter {
    dir: PathBuf,
    file: BufWriter<File>,
    kind: LogKind,
    /// Number of the segment currently being written.
    segment: u64,
    /// Global byte position of the current segment's first byte.
    segment_base: u64,
    /// Valid bytes written into the current segment.
    segment_len: u64,
    heads: BTreeMap<u32, u64>,
    records: u64,
    /// First append failure, latched; surfaced by [`LogWriter::finish`].
    failed: Option<StoreError>,
    scratch: Vec<u8>,
}

impl LogWriter {
    /// Creates a fresh log in `dir` (creating the directory if needed)
    /// and durably writes its header record.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] if `dir` already holds a log, or
    /// [`StoreError::Io`].
    pub fn create(dir: &Path, kind: LogKind, meta: &[u8]) -> Result<LogWriter, StoreError> {
        std::fs::create_dir_all(dir)?;
        if log_exists(dir) {
            return Err(StoreError::AlreadyExists(dir.to_path_buf()));
        }
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(dir.join(segment_file_name(0)))?;
        let mut writer = LogWriter {
            dir: dir.to_path_buf(),
            file: BufWriter::new(file),
            kind,
            segment: 0,
            segment_base: 0,
            segment_len: 0,
            heads: BTreeMap::new(),
            records: 0,
            failed: None,
            scratch: Vec::with_capacity(64),
        };
        let mut frame = Vec::new();
        append_frame(
            &mut frame,
            &encode_record(&Record::Header { kind, meta: meta.to_vec() }),
        );
        writer.file.write_all(&frame)?;
        writer.file.flush()?;
        writer.file.get_ref().sync_all()?;
        writer.segment_len = frame.len() as u64;
        Ok(writer)
    }

    /// Reopens an existing log for appending: scans it, physically
    /// truncates any torn tail frame, and positions the writer at the
    /// end of the valid prefix.
    ///
    /// Returns the writer together with the scan, so the caller can
    /// re-drive the recovered records without a second pass — pair this
    /// with [`scan_with`](crate::scan_with) when the records themselves
    /// are needed during recovery.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] without a log, [`StoreError::Corrupt`]
    /// for damage beyond a torn tail, or [`StoreError::Io`].
    pub fn resume(dir: &Path) -> Result<(LogWriter, ScannedLog), StoreError> {
        let scanned = scan(dir)?;
        let last_segment = scanned.segments.saturating_sub(1);
        let last_path = dir.join(segment_file_name(last_segment));
        if let TailState::Torn { .. } = scanned.tail {
            // Drop the torn frame: the valid prefix of the last segment
            // is exactly `last_segment_bytes`.
            let truncate = OpenOptions::new().write(true).open(&last_path)?;
            truncate.set_len(scanned.last_segment_bytes)?;
            truncate.sync_all()?;
        }
        let file = OpenOptions::new().append(true).open(&last_path)?;
        let writer = LogWriter {
            dir: dir.to_path_buf(),
            file: BufWriter::new(file),
            kind: scanned.kind,
            segment: last_segment,
            segment_base: scanned.clean_bytes - scanned.last_segment_bytes,
            segment_len: scanned.last_segment_bytes,
            heads: scanned.heads.clone(),
            records: scanned.records,
            failed: None,
            scratch: Vec::with_capacity(64),
        };
        Ok((writer, scanned))
    }

    /// What the log holds.
    pub fn kind(&self) -> LogKind {
        self.kind
    }

    /// Event records written so far (including recovered ones after
    /// [`LogWriter::resume`]).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The first append failure, if any append has failed.
    pub fn failure(&self) -> Option<&StoreError> {
        self.failed.as_ref()
    }

    /// Starts the next segment file.
    fn roll(&mut self) -> Result<(), StoreError> {
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        self.segment += 1;
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.dir.join(segment_file_name(self.segment)))?;
        self.file = BufWriter::new(file);
        self.segment_base += self.segment_len;
        self.segment_len = 0;
        Ok(())
    }

    /// Appends one event to the log, extending `chain`'s per-user
    /// chain: the one-record case of [`LogWriter::append_batch`]. Journal
    /// logs flush before returning (write-ahead).
    ///
    /// # Errors
    ///
    /// As [`LogWriter::append_batch`].
    pub fn append(&mut self, ev: &ScheduledEvent, chain: UserId) -> Result<(), StoreError> {
        self.append_batch([(ev, chain)])
    }

    /// Appends a batch of events in order, each extending its chain, and
    /// — for a journal — flushes once, after the last, before returning.
    /// The segment bytes are exactly those of one [`LogWriter::append`]
    /// per event; only the flushes differ.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]. The log's valid prefix is unaffected — the
    /// failed frame is at worst a torn tail the next resume drops — but
    /// how much of the batch reached the file is unknown, so the failure
    /// latches: every later append returns it and [`LogWriter::finish`]
    /// surfaces it.
    pub fn append_batch<'e>(
        &mut self,
        events: impl IntoIterator<Item = (&'e ScheduledEvent, UserId)>,
    ) -> Result<(), StoreError> {
        if let Some(first) = &self.failed {
            return Err(echo(first));
        }
        if let Err(e) = self.write_batch(events) {
            let echoed = echo(&e);
            self.failed = Some(e);
            return Err(echoed);
        }
        Ok(())
    }

    fn write_batch<'e>(
        &mut self,
        events: impl IntoIterator<Item = (&'e ScheduledEvent, UserId)>,
    ) -> Result<(), StoreError> {
        for (ev, chain) in events {
            if self.segment_len >= SEGMENT_TARGET_BYTES {
                self.roll()?;
            }
            let pos = self.segment_base + self.segment_len;
            let chain = chain.as_u32();
            let prev = self.heads.get(&chain).copied().unwrap_or(NO_PREV);
            let record = Record::Event(EventRecord {
                at_secs: ev.at.as_secs(),
                seq: ev.seq(),
                chain,
                prev,
                event: ev.event,
            });
            self.scratch.clear();
            append_frame(&mut self.scratch, &encode_record(&record));
            self.file.write_all(&self.scratch)?;
            self.segment_len += self.scratch.len() as u64;
            self.heads.insert(chain, pos);
            self.records += 1;
        }
        if self.kind == LogKind::Journal {
            self.file.flush()?;
        }
        Ok(())
    }

    /// Seals the log: surfaces any latched append failure, flushes and
    /// syncs the current segment, and writes the advisory index.
    ///
    /// # Errors
    ///
    /// The latched failure from an earlier append (or
    /// [`EventSink::record`] call), or [`StoreError::Io`] from the final
    /// flush.
    pub fn finish(mut self) -> Result<StoreStats, StoreError> {
        if let Some(err) = self.failed.take() {
            return Err(err);
        }
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        let index = IndexFile {
            kind: self.kind,
            records: self.records,
            clean_bytes: self.segment_base + self.segment_len,
            segments: self.segment + 1,
            heads: std::mem::take(&mut self.heads),
        };
        write_index(&self.dir, &index)?;
        Ok(StoreStats {
            records: self.records,
            bytes: index.clean_bytes,
            segments: index.segments,
        })
    }
}

impl EventSink for LogWriter {
    /// Journals one engine event. The sink contract is infallible; a
    /// failed append latches, so subsequent events are skipped and
    /// [`LogWriter::finish`] returns the error.
    fn record(&mut self, ev: &ScheduledEvent, chain: UserId) {
        let _latched = self.append(ev, chain);
    }
}

/// A copy of a latched failure for a caller to hold while the writer
/// keeps the original (`io::Error` is not `Clone`).
fn echo(e: &StoreError) -> StoreError {
    match e {
        StoreError::Io(io) => StoreError::Io(io::Error::new(io.kind(), io.to_string())),
        other => StoreError::Io(io::Error::other(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_interval::Timestamp;
    use dosn_node::Event;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dosn-store-writer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn post(at: u64, seq: u64) -> ScheduledEvent {
        ScheduledEvent::new(Timestamp::new(at), seq, Event::Post { activity: seq as u32 })
    }

    #[test]
    fn create_append_finish_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut w = LogWriter::create(&dir, LogKind::Events, b"spec").expect("create");
        for seq in 0..10 {
            w.append(&post(1_000 + seq, seq), UserId::new((seq % 3) as u32)).expect("append");
        }
        let stats = w.finish().expect("finish");
        assert_eq!(stats.records, 10);
        assert_eq!(stats.segments, 1);
        let scanned = scan(&dir).expect("scan");
        assert_eq!(scanned.records, 10);
        assert_eq!(scanned.kind, LogKind::Events);
        assert_eq!(scanned.meta, b"spec");
        assert_eq!(scanned.clean_bytes, stats.bytes);
        assert_eq!(scanned.tail, TailState::Clean);
        assert_eq!(scanned.heads.len(), 3);
        // The index was written and matches.
        match crate::load_index(&dir).expect("load index") {
            crate::IndexState::Valid(index) => {
                assert_eq!(index.records, 10);
                assert_eq!(index.heads, scanned.heads);
            }
            other => panic!("expected a valid index, got {other:?}"),
        }
    }

    #[test]
    fn create_refuses_an_existing_log() {
        let dir = tmp_dir("exists");
        LogWriter::create(&dir, LogKind::Events, &[]).expect("create");
        assert!(matches!(
            LogWriter::create(&dir, LogKind::Events, &[]),
            Err(StoreError::AlreadyExists(_))
        ));
    }

    #[test]
    fn resume_truncates_a_torn_tail_and_appends_cleanly() {
        let dir = tmp_dir("resume");
        let mut w = LogWriter::create(&dir, LogKind::Journal, &[]).expect("create");
        w.append(&post(100, 0), UserId::new(1)).expect("append");
        w.append(&post(101, 1), UserId::new(1)).expect("append");
        w.finish().expect("finish");
        // Simulate a crash mid-append: garbage after the valid prefix.
        let seg = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg).expect("read");
        let clean = bytes.len() as u64;
        bytes.extend_from_slice(&[9, 9, 9, 9, 9]);
        std::fs::write(&seg, &bytes).expect("tear");
        let (mut w, scanned) = LogWriter::resume(&dir).expect("resume");
        assert_eq!(scanned.records, 2);
        assert!(matches!(scanned.tail, TailState::Torn { dropped_bytes: 5, .. }));
        assert_eq!(std::fs::metadata(&seg).expect("stat").len(), clean);
        // Appending after resume extends the same chain.
        w.append(&post(102, 2), UserId::new(1)).expect("append");
        let stats = w.finish().expect("finish");
        assert_eq!(stats.records, 3);
        let rescanned = scan(&dir).expect("rescan");
        assert_eq!(rescanned.records, 3);
        assert_eq!(rescanned.tail, TailState::Clean);
    }

    #[test]
    fn segments_roll_and_chains_span_them() {
        let dir = tmp_dir("roll");
        let mut w = LogWriter::create(&dir, LogKind::Events, &[]).expect("create");
        // Force tiny "segments" by appending until two rolls happen.
        // SEGMENT_TARGET_BYTES is 4 MiB; rather than write that much,
        // drive the roll directly.
        w.append(&post(1, 0), UserId::new(1)).expect("append");
        w.roll().expect("roll");
        w.append(&post(2, 1), UserId::new(1)).expect("append");
        w.roll().expect("roll");
        w.append(&post(3, 2), UserId::new(1)).expect("append");
        let stats = w.finish().expect("finish");
        assert_eq!(stats.segments, 3);
        let scanned = scan(&dir).expect("scan");
        assert_eq!(scanned.segments, 3);
        assert_eq!(scanned.records, 3);
        // One chain, its head in the last segment.
        assert_eq!(scanned.heads.len(), 1);
        let head = scanned.heads.get(&1).copied().expect("head");
        assert!(head >= scanned.clean_bytes - scanned.last_segment_bytes);
        // Resume positions correctly at a multi-segment tail.
        let (mut w, rescanned) = LogWriter::resume(&dir).expect("resume");
        assert_eq!(rescanned.records, 3);
        w.append(&post(4, 3), UserId::new(2)).expect("append");
        assert_eq!(w.finish().expect("finish").records, 4);
    }

    /// Events across a few chains, as a daemon session would batch them.
    fn events(n: u64) -> Vec<(ScheduledEvent, UserId)> {
        (0..n).map(|seq| (post(5_000 + seq, seq), UserId::new((seq % 4) as u32))).collect()
    }

    #[test]
    fn a_batch_append_writes_the_bytes_of_single_appends() {
        let events = events(40);
        let single = tmp_dir("single");
        let mut w = LogWriter::create(&single, LogKind::Journal, b"spec").expect("create");
        for (ev, chain) in &events {
            w.append(ev, *chain).expect("append");
        }
        let single_stats = w.finish().expect("finish");
        let batched = tmp_dir("batched");
        let mut w = LogWriter::create(&batched, LogKind::Journal, b"spec").expect("create");
        // Uneven batches, including an empty one.
        for batch in [&events[..1], &events[1..1], &events[1..17], &events[17..]] {
            w.append_batch(batch.iter().map(|(ev, chain)| (ev, *chain))).expect("append batch");
        }
        assert_eq!(w.finish().expect("finish"), single_stats);
        let seg = segment_file_name(0);
        assert_eq!(
            std::fs::read(batched.join(&seg)).expect("read batched"),
            std::fs::read(single.join(&seg)).expect("read single"),
        );
    }

    #[test]
    fn a_batch_log_cut_at_every_byte_keeps_the_longest_valid_prefix() {
        let dir = tmp_dir("batch-cuts");
        let mut w = LogWriter::create(&dir, LogKind::Journal, &[]).expect("create");
        let events = events(6);
        w.append_batch(events.iter().map(|(ev, chain)| (ev, *chain))).expect("append batch");
        w.finish().expect("finish");
        let mut boundaries = vec![];
        let scanned = crate::scan_with(&dir, |pos, _| boundaries.push(pos)).expect("scan");
        boundaries.push(scanned.clean_bytes);
        let seg = dir.join(segment_file_name(0));
        let pristine = std::fs::read(&seg).expect("read log");
        for cut in boundaries[0]..=scanned.clean_bytes {
            std::fs::write(&seg, &pristine[..cut as usize]).expect("truncate");
            let scanned = scan(&dir).expect("a cut log stays readable");
            // `boundaries` holds each record's start plus the end; a
            // record survives when the next boundary fits inside the cut.
            let intact = boundaries.iter().skip(1).filter(|&&end| end <= cut).count() as u64;
            assert_eq!(scanned.records, intact, "cut at {cut}");
            let on_boundary = boundaries.contains(&cut);
            assert_eq!(scanned.tail == TailState::Clean, on_boundary, "cut at {cut}");
        }
        // Tear the last frame: resume drops it, and appending continues
        // from there.
        std::fs::write(&seg, &pristine[..pristine.len() - 1]).expect("tear");
        let (mut w, recovered) = LogWriter::resume(&dir).expect("resume");
        assert_eq!(recovered.records, 5);
        let (ev, chain) = &events[5];
        w.append_batch([(ev, *chain)]).expect("re-append the lost record");
        assert_eq!(w.finish().expect("finish").records, 6);
        assert_eq!(std::fs::read(&seg).expect("reread"), pristine);
    }

    #[test]
    fn a_failed_append_latches_until_finish_reports_it() {
        let dir = tmp_dir("latch");
        let mut w = LogWriter::create(&dir, LogKind::Journal, &[]).expect("create");
        let events = events(3);
        w.append(&events[0].0, events[0].1).expect("first append");
        // The next append must roll, and the next segment's file is taken.
        w.segment_len = SEGMENT_TARGET_BYTES;
        std::fs::write(dir.join(segment_file_name(1)), b"squatter").expect("squat");
        let batch = || events[1..].iter().map(|(ev, chain)| (ev, *chain));
        assert!(matches!(w.append_batch(batch()), Err(StoreError::Io(_))));
        assert_eq!(w.records(), 1, "nothing of the failed batch was counted");
        // Latched: the file is free again, but appends stay refused.
        std::fs::remove_file(dir.join(segment_file_name(1))).expect("unsquat");
        assert!(w.append(&events[2].0, events[2].1).is_err());
        assert!(w.failure().is_some());
        assert!(matches!(w.finish(), Err(StoreError::Io(_))));
    }
}
