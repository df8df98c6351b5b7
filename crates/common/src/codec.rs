//! The one byte codec behind every binary format that reaches shared
//! storage: REDO and binlog frames, row images, schemas and DDL ops,
//! row pages, the checkpoint catalog, packs, the RID locator snapshot
//! and the VID maps.
//!
//! Fields are little-endian fixed-width integers, byte strings are a
//! `u32` length plus the bytes, and sequences are a `u32` or `u64`
//! count plus the elements. Log records travel as frames: a `u32` body
//! length, then the body.
//!
//! [`ByteReader`] is the only way those bytes are read back. Every read
//! is bounds-checked, and a count is checked against the bytes left
//! before anything is allocated for it, so a torn or corrupt object
//! decodes to an [`Error::Storage`] naming its format — never a panic
//! and never a multi-gigabyte allocation. The hot decoders (`Row` on
//! every point read, `RedoEntry` on every replicated entry) call across
//! crates, hence the `#[inline]` on every method.

use crate::error::{Error, Result};
use std::fmt::Display;

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`-length-prefixed byte string.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a `u32`-length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Build one frame: `body` writes the body, which lands behind its
/// `u32` length. `capacity` is a size hint for the whole frame.
#[inline]
pub fn encode_frame(capacity: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    put_u32(&mut out, 0);
    body(&mut out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Split the frame at the front of `buf` into its body and the bytes
/// the whole frame occupies; `None` while the frame is incomplete.
#[inline]
pub fn split_frame(buf: &[u8]) -> Option<(&[u8], usize)> {
    let (len, rest) = buf.split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*len) as usize;
    Some((rest.get(..len)?, 4 + len))
}

/// Bounds-checked cursor over one encoded object. `what` names the
/// format in every error it returns.
pub struct ByteReader<'a> {
    rest: &'a [u8],
    len: usize,
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    /// Start reading a `what` at the front of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8], what: &'static str) -> ByteReader<'a> {
        ByteReader {
            rest: buf,
            len: buf.len(),
            what,
        }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.len - self.rest.len()
    }

    /// A storage error naming this reader's format.
    #[cold]
    pub fn error(&self, why: impl Display) -> Error {
        Error::Storage(format!("{}: {why}", self.what))
    }

    #[cold]
    fn truncated(&self) -> Error {
        Error::Storage(format!("{} truncated", self.what))
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(self.truncated());
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        match self.rest.split_first_chunk::<N>() {
            Some((head, tail)) => {
                self.rest = tail;
                Ok(*head)
            }
            None => Err(self.truncated()),
        }
    }

    /// Consume one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Consume a `u32`-length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Consume a `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(e) => Err(self.error(format_args!("string not utf8: {e}"))),
        }
    }

    /// Consume a `u32` count, then that many elements read by `elem`.
    /// Each element takes at least `min_size` (≥ 1) bytes, so a count
    /// the remaining bytes cannot hold fails before allocating.
    #[inline]
    pub fn list_u32<T>(
        &mut self,
        min_size: usize,
        elem: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = u64::from(self.u32()?);
        self.list(n, min_size, elem)
    }

    /// [`ByteReader::list_u32`] with a `u64` count.
    #[inline]
    pub fn list_u64<T>(
        &mut self,
        min_size: usize,
        elem: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.u64()?;
        self.list(n, min_size, elem)
    }

    #[inline]
    fn list<T>(
        &mut self,
        n: u64,
        min_size: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let fits = usize::try_from(n).ok().filter(|&n| {
            n.checked_mul(min_size)
                .is_some_and(|b| b <= self.rest.len())
        });
        let Some(n) = fits else {
            return Err(self.error(format_args!(
                "count {n} of {min_size}-byte elements exceeds the {} bytes left",
                self.rest.len()
            )));
        };
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip_and_track_position() {
        let mut out = Vec::new();
        out.push(7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_i64(&mut out, -3);
        put_str(&mut out, "héllo");
        let mut r = ByteReader::new(&out, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -3);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.position(), out.len());
        assert!(matches!(r.u8(), Err(Error::Storage(m)) if m == "test truncated"));
    }

    #[test]
    fn counts_are_checked_before_allocating() {
        let mut out = Vec::new();
        put_u64(&mut out, (1 << 60) + 1);
        put_u64(&mut out, 5);
        let err = ByteReader::new(&out, "locator")
            .list_u64(16, |r| r.u64())
            .unwrap_err();
        assert!(err.to_string().contains("locator: count"), "{err}");
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        put_u64(&mut out, 1);
        put_u64(&mut out, 2);
        let mut r = ByteReader::new(&out, "t");
        assert_eq!(r.list_u32(8, |r| r.u64()).unwrap(), vec![1, 2]);
        let mut short = out.clone();
        short[0] = 3;
        assert!(ByteReader::new(&short, "t")
            .list_u32(8, |r| r.u64())
            .is_err());
    }

    #[test]
    fn frames_split_only_when_complete() {
        let frame = encode_frame(8, |out| out.extend_from_slice(b"abc"));
        assert_eq!(frame, [3, 0, 0, 0, b'a', b'b', b'c']);
        assert_eq!(split_frame(&frame), Some((&b"abc"[..], 7)));
        for cut in 0..frame.len() {
            assert_eq!(split_frame(&frame[..cut]), None);
        }
    }
}
