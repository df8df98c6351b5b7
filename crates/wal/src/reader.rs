//! Sequential REDO log reader used by RO nodes.

use crate::record::RedoEntry;
use imci_common::Result;
use polarfs_sim::PolarFs;
use std::time::Duration;

use crate::writer::REDO_LOG_NAME;

/// Chunked tail-reader over the shared-storage REDO log.
///
/// RO nodes keep one of these per replication pipeline;
/// `read_frames_until` decodes everything currently in the log,
/// durable or not (CALS reads entries as soon as they are appended,
/// *before* the commit fsync — §5.1), and `wait_and_read` blocks until
/// the log grows.
pub struct LogReader {
    fs: PolarFs,
    offset: u64,
    buf: Vec<u8>,
}

const CHUNK: usize = 1 << 20;

impl LogReader {
    /// Start reading at `offset` bytes into the log (0 = from start).
    pub fn new(fs: PolarFs, offset: u64) -> LogReader {
        LogReader {
            fs,
            offset,
            buf: Vec::new(),
        }
    }

    /// Byte offset of the next unread position.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Queue the chunk just read at `offset` behind the undecoded
    /// carry-over and advance past it; with no carry-over the chunk
    /// becomes the buffer, uncopied.
    fn carry(&mut self, chunk: Vec<u8>) {
        self.offset += chunk.len() as u64;
        if self.buf.is_empty() {
            self.buf = chunk;
        } else {
            self.buf.extend_from_slice(&chunk);
        }
    }

    /// Decode entries into `out`, but never consume bytes at or beyond
    /// offset `cap`, each paired with the byte offset just past its
    /// frame — the offsets replay may stop at. The OnCommit (non-CALS)
    /// strawman caps at the durable length, so it never sees entries
    /// that are not yet durable.
    ///
    /// A complete frame that fails to decode is an error. Every entry
    /// before it is in `out`, and the reader stays at the bad frame, so
    /// a retry fails the same way instead of skipping it.
    pub fn read_frames_until(&mut self, cap: u64, out: &mut Vec<(RedoEntry, u64)>) -> Result<()> {
        loop {
            // Log offset of `buf[0]`.
            let base = self.offset - self.buf.len() as u64;
            let mut pos = 0;
            let decoded = loop {
                match RedoEntry::decode(&self.buf[pos..]) {
                    Ok(Some((entry, used))) => {
                        pos += used;
                        out.push((entry, base + pos as u64));
                    }
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            self.buf.drain(..pos);
            decoded?;
            if self.offset >= cap {
                return Ok(());
            }
            let max = (cap - self.offset).min(CHUNK as u64) as usize;
            let chunk = self.fs.read_log(REDO_LOG_NAME, self.offset, max);
            if chunk.is_empty() {
                return Ok(());
            }
            self.carry(chunk);
        }
    }

    /// Block (up to `timeout`) for new log data, then decode at most
    /// `max_bytes` of it into `out`, as
    /// [`LogReader::read_frames_until`] does.
    pub fn wait_and_read(
        &mut self,
        timeout: Duration,
        max_bytes: u64,
        out: &mut Vec<(RedoEntry, u64)>,
    ) -> Result<()> {
        self.fs.wait_for_growth(REDO_LOG_NAME, self.offset, timeout);
        self.read_frames_until(self.offset.saturating_add(max_bytes), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RedoPayload;
    use crate::writer::{LogWriter, PropagationMode};
    use imci_common::{PageId, TableId, Tid, Vid};

    fn frames(r: &mut LogReader) -> Vec<(RedoEntry, u64)> {
        let mut out = Vec::new();
        r.read_frames_until(u64::MAX, &mut out).unwrap();
        out
    }

    #[test]
    fn reads_in_order_across_chunks() {
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        for i in 0..500 {
            w.append(
                Tid(1),
                TableId(1),
                PageId(i % 7),
                0,
                RedoPayload::Insert {
                    pk: i as i64,
                    image: vec![0u8; 100],
                },
            )
            .unwrap();
        }
        w.commit(Tid(1), Vid(1)).unwrap();
        let es = frames(&mut LogReader::new(fs, 0));
        assert_eq!(es.len(), 501);
        for (i, (e, _)) in es.iter().enumerate() {
            assert_eq!(e.lsn.get(), (i + 1) as u64);
        }
    }

    #[test]
    fn resumes_from_saved_offset() {
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        w.append(
            Tid(1),
            TableId(1),
            PageId(1),
            0,
            RedoPayload::Delete { pk: 1 },
        )
        .unwrap();
        let mut r = LogReader::new(fs.clone(), 0);
        assert_eq!(frames(&mut r).len(), 1);
        let off = r.offset();
        w.append(
            Tid(1),
            TableId(1),
            PageId(1),
            0,
            RedoPayload::Delete { pk: 2 },
        )
        .unwrap();
        let es = frames(&mut LogReader::new(fs, off));
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].0.lsn.get(), 2);
    }

    #[test]
    fn frame_ends_are_resumable_offsets() {
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        for pk in 0..300 {
            w.append(
                Tid(1),
                TableId(1),
                PageId(1),
                0,
                RedoPayload::Insert {
                    pk,
                    image: vec![0u8; 5_000],
                },
            )
            .unwrap();
        }
        let len = fs.log_len(REDO_LOG_NAME);
        let all = frames(&mut LogReader::new(fs.clone(), 0));
        assert_eq!(all.len(), 300);
        assert_eq!(all[299].1, len);
        // Every frame end is where a fresh reader picks up the next entry.
        for (i, (_, end)) in all.iter().enumerate().step_by(37) {
            let next = frames(&mut LogReader::new(fs.clone(), *end));
            assert_eq!(next.len(), 299 - i);
            assert_eq!(
                next.first().map(|f| f.0.lsn.get()),
                all.get(i + 1).map(|f| f.0.lsn.get())
            );
        }
    }

    #[test]
    fn frames_crossing_segment_boundaries_decode_whole() {
        use polarfs_sim::LOG_SEGMENT_BYTES;
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        // 5 KB frames: about 210 per segment, none aligned to a boundary.
        let n = 2 * LOG_SEGMENT_BYTES / 5_000 + 20;
        for pk in 0..n as i64 {
            w.append(
                Tid(1),
                TableId(1),
                PageId(1),
                0,
                RedoPayload::Insert {
                    pk,
                    image: vec![pk as u8; 5_000],
                },
            )
            .unwrap();
        }
        let len = fs.log_len(REDO_LOG_NAME);
        assert!(len > 2 * LOG_SEGMENT_BYTES as u64);
        // Small reads leave a partial frame in the carry-over buffer at
        // nearly every boundary; large ones adopt whole chunks.
        let mut r = LogReader::new(fs.clone(), 0);
        let mut chunked = Vec::new();
        while r.offset() < len {
            r.wait_and_read(Duration::ZERO, 7_777, &mut chunked)
                .unwrap();
        }
        let whole = frames(&mut LogReader::new(fs, 0));
        assert_eq!(chunked.len(), n);
        assert_eq!(whole.len(), n);
        for (i, ((a, end_a), (b, end_b))) in chunked.iter().zip(&whole).enumerate() {
            assert_eq!((a.lsn, end_a), (b.lsn, end_b));
            match &a.payload {
                RedoPayload::Insert { pk, image } => {
                    assert_eq!(*pk, i as i64);
                    assert_eq!(image, &vec![i as u8; 5_000]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(chunked[n - 1].1, len);
    }

    #[test]
    fn sees_uncommitted_entries_before_commit() {
        // The CALS property: DML entries are readable before the commit
        // record exists at all.
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        w.append(
            Tid(42),
            TableId(1),
            PageId(1),
            0,
            RedoPayload::Insert {
                pk: 9,
                image: vec![1],
            },
        )
        .unwrap();
        let es = frames(&mut LogReader::new(fs, 0));
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].0.tid, Tid(42));
        assert!(!es[0].0.payload.is_decision());
    }

    #[test]
    fn undecodable_frame_stops_the_read_and_is_never_skipped() {
        let fs = PolarFs::instant();
        let w = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        w.commit(Tid(1), Vid(1)).unwrap();
        let mut bad = RedoEntry {
            payload: RedoPayload::Abort,
            ..frames(&mut LogReader::new(fs.clone(), 0)).remove(0).0
        }
        .encode();
        *bad.last_mut().unwrap() = 200; // no such record type
        fs.append(REDO_LOG_NAME, &bad);
        w.commit(Tid(2), Vid(2)).unwrap();
        let mut r = LogReader::new(fs, 0);
        let mut out = Vec::new();
        assert!(r.read_frames_until(u64::MAX, &mut out).is_err());
        assert_eq!(out.len(), 1, "the entry before the bad frame is kept");
        // Retrying hits the same frame; the commit behind it never shows.
        for _ in 0..2 {
            assert!(r.read_frames_until(u64::MAX, &mut out).is_err());
            assert_eq!(out.len(), 1);
        }
    }
}
