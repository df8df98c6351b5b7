//! Sequential REDO log reader used by RO nodes.

use crate::record::RedoEntry;
use polarfs_sim::PolarFs;
use std::time::Duration;

use crate::writer::REDO_LOG_NAME;

/// Chunked tail-reader over the shared-storage REDO log.
///
/// RO nodes keep one of these per replication pipeline; `read_available`
/// drains everything currently durable-or-not (CALS reads entries as
/// soon as they are appended, *before* the commit fsync — §5.1), and
/// `wait_and_read` blocks until the log grows.
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

    /// Read and decode all complete entries currently in the log.
    pub fn read_available(&mut self) -> Vec<RedoEntry> {
        let mut out = Vec::new();
        loop {
            let chunk = self.fs.read_log(REDO_LOG_NAME, self.offset, CHUNK);
            if chunk.is_empty() {
                break;
            }
            self.carry(chunk);
            let mut pos = 0;
            while let Ok(Some((entry, used))) = RedoEntry::decode(&self.buf[pos..]) {
                out.push(entry);
                pos += used;
            }
            self.buf.drain(..pos);
        }
        out
    }

    /// Read and decode entries, but never consume bytes at or beyond
    /// offset `cap`, each paired with the byte offset just past its
    /// frame — the offsets replay may stop at. The OnCommit (non-CALS)
    /// strawman caps at the durable length, so it never sees entries
    /// that are not yet durable.
    pub fn read_frames_until(&mut self, cap: u64) -> Vec<(RedoEntry, u64)> {
        let mut out = Vec::new();
        while self.offset < cap {
            let max = (cap - self.offset).min(CHUNK as u64) as usize;
            let chunk = self.fs.read_log(REDO_LOG_NAME, self.offset, max);
            if chunk.is_empty() {
                break;
            }
            self.carry(chunk);
            // Log offset of `buf[0]`.
            let base = self.offset - self.buf.len() as u64;
            let mut pos = 0;
            while let Ok(Some((entry, used))) = RedoEntry::decode(&self.buf[pos..]) {
                pos += used;
                out.push((entry, base + pos as u64));
            }
            self.buf.drain(..pos);
        }
        out
    }

    /// Block (up to `timeout`) for new log data, then decode at most
    /// `max_bytes` of it, as [`LogReader::read_frames_until`] does.
    pub fn wait_and_read(&mut self, timeout: Duration, max_bytes: u64) -> Vec<(RedoEntry, u64)> {
        self.fs.wait_for_growth(REDO_LOG_NAME, self.offset, timeout);
        self.read_frames_until(self.offset.saturating_add(max_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RedoPayload;
    use crate::writer::{LogWriter, PropagationMode};
    use imci_common::{PageId, TableId, Tid, Vid};

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
        let mut r = LogReader::new(fs, 0);
        let es = r.read_available();
        assert_eq!(es.len(), 501);
        for (i, e) in es.iter().enumerate() {
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
        assert_eq!(r.read_available().len(), 1);
        let off = r.offset();
        w.append(
            Tid(1),
            TableId(1),
            PageId(1),
            0,
            RedoPayload::Delete { pk: 2 },
        )
        .unwrap();
        let mut r2 = LogReader::new(fs, off);
        let es = r2.read_available();
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].lsn.get(), 2);
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
        let frames = LogReader::new(fs.clone(), 0).read_frames_until(len);
        assert_eq!(frames.len(), 300);
        assert_eq!(frames[299].1, len);
        // Every frame end is where a fresh reader picks up the next entry.
        for (i, (_, end)) in frames.iter().enumerate().step_by(37) {
            let next = LogReader::new(fs.clone(), *end).read_available();
            assert_eq!(next.len(), 299 - i);
            assert_eq!(
                next.first().map(|e| e.lsn.get()),
                frames.get(i + 1).map(|f| f.0.lsn.get())
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
        let mut frames = Vec::new();
        while r.offset() < len {
            frames.extend(r.wait_and_read(Duration::ZERO, 7_777));
        }
        let whole = LogReader::new(fs, 0).read_frames_until(len);
        assert_eq!(frames.len(), n);
        assert_eq!(whole.len(), n);
        for (i, ((a, end_a), (b, end_b))) in frames.iter().zip(&whole).enumerate() {
            assert_eq!((a.lsn, end_a), (b.lsn, end_b));
            match &a.payload {
                RedoPayload::Insert { pk, image } => {
                    assert_eq!(*pk, i as i64);
                    assert_eq!(image, &vec![i as u8; 5_000]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(frames[n - 1].1, len);
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
        let mut r = LogReader::new(fs, 0);
        let es = r.read_available();
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].tid, Tid(42));
        assert!(!es[0].payload.is_decision());
    }
}
