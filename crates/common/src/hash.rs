//! A small FxHash-style hasher.
//!
//! Hot maps — transaction, table and page ids on the write and
//! replication paths, join and group keys in the executor — use the
//! multiply-xor scheme from rustc's FxHash rather than SipHash. HashDoS
//! resistance is out of scope for this reproduction.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher (word-at-a-time multiply-rotate-xor).
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rem) = bytes.as_chunks::<8>();
        for &w in words {
            self.add_word(u64::from_le_bytes(w));
        }
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add_word(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// Drop-in `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// Drop-in `HashSet` with the fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_eq!(hash(b"hello"), hash(b"hello"));
    }

    #[test]
    fn distinct_inputs_usually_differ() {
        assert_ne!(hash(1u64), hash(2u64));
    }

    #[test]
    fn spreads_sequential_keys_across_buckets() {
        // Sequential keys must not all land in the same bucket, or
        // maps keyed by ids degrade to long probe chains.
        const BUCKETS: usize = 8;
        let mut counts = [0usize; BUCKETS];
        for pk in 0..8000u64 {
            counts[(hash(pk) % BUCKETS as u64) as usize] += 1;
        }
        for &c in &counts {
            // Perfectly uniform would be 1000 per bucket; allow wide slack.
            assert!(c > 500, "bucket starved: {counts:?}");
            assert!(c < 1500, "bucket overloaded: {counts:?}");
        }
    }

    #[test]
    fn byte_hash_handles_non_multiple_of_8() {
        for len in 0..32 {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(hash(&data[..]), hash(&data[..]));
        }
    }
}
