//! Immutable compressed Data Packs and their statistics (paper §4.1/4.3).
//!
//! When a row group fills, each partial pack is compressed copy-on-write
//! into a `Pack`:
//!
//! * numeric columns: **frame-of-reference + bit-packing** (the paper
//!   also lists delta encoding; FOR over the post-delta residuals is
//!   equivalent for our sorted RID layout, and the codec stores the
//!   minimal bit width either way);
//! * string columns: **dictionary compression** with bit-packed codes.
//!
//! Each pack carries a [`PackMeta`] (min/max/sum/count/null count/
//! distinct estimate and a small histogram) used by TableScan to skip
//! packs ("smart scan" pruning, §4.1 Pack Meta).

use crate::column::{ColumnData, Dictionary};
use imci_common::codec::{put_i64, put_str, put_u32, put_u64};
use imci_common::{ByteReader, DataType, Result, Value};

/// Bit-packed array of `len` unsigned integers of `width` bits each.
#[derive(Debug, Clone, PartialEq)]
pub struct BitPacked {
    /// Number of logical entries.
    pub len: usize,
    /// Bits per entry (0..=64; 0 means all values are zero).
    pub width: u8,
    /// Packed words.
    pub words: Vec<u64>,
}

impl BitPacked {
    /// Pack `values`, using the minimal width for their maximum.
    pub fn pack(values: &[u64]) -> BitPacked {
        let max = values.iter().copied().max().unwrap_or(0);
        let width = (64 - max.leading_zeros()) as u8;
        let mut out = BitPacked {
            len: values.len(),
            width,
            words: vec![0u64; (values.len() * width as usize).div_ceil(64)],
        };
        if width == 0 {
            return out;
        }
        for (i, &v) in values.iter().enumerate() {
            let bit = i * width as usize;
            let (w, off) = (bit / 64, bit % 64);
            out.words[w] |= v << off;
            if off + width as usize > 64 {
                out.words[w + 1] |= v >> (64 - off);
            }
        }
        out
    }

    /// Read entry `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        if self.width == 0 {
            return 0;
        }
        let width = self.width as usize;
        let bit = i * width;
        let (w, off) = (bit / 64, bit % 64);
        let mut v = self.words[w] >> off;
        if off + width > 64 {
            v |= self.words[w + 1] << (64 - off);
        }
        if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        }
    }

    /// Visit every entry in order, word-at-a-time: a running
    /// word/offset cursor replaces the per-element `bit = i * width;
    /// bit / 64; bit % 64` round-trip that [`BitPacked::get`] pays, so
    /// bulk decode touches each packed word once. Monomorphizes per
    /// caller — the single home of the cross-word splice arithmetic.
    #[inline]
    pub fn unpack_each(&self, mut f: impl FnMut(u64)) {
        if self.width == 0 {
            for _ in 0..self.len {
                f(0);
            }
            return;
        }
        let width = self.width as usize;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let (mut w, mut off) = (0usize, 0usize);
        for _ in 0..self.len {
            let mut v = self.words[w] >> off;
            if off + width > 64 {
                v |= self.words[w + 1] << (64 - off);
            }
            f(v & mask);
            off += width;
            if off >= 64 {
                off -= 64;
                w += 1;
            }
        }
    }

    /// Bulk-unpack everything into `out`.
    pub fn unpack_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.len);
        self.unpack_each(|v| out.push(v));
    }

    /// Bulk-unpack into `u32`s (dictionary codes; entries must fit in
    /// 32 bits).
    pub fn unpack_into_u32(&self, out: &mut Vec<u32>) {
        out.clear();
        out.reserve(self.len);
        self.unpack_each(|v| out.push(v as u32));
    }

    fn encoded_size(&self) -> usize {
        16 + self.words.len() * 8
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len as u64);
        out.push(self.width);
        put_u32(out, self.words.len() as u32);
        for &w in &self.words {
            put_u64(out, w);
        }
    }

    /// Decode, checking that the words hold exactly `len` entries of
    /// `width` bits.
    fn decode(r: &mut ByteReader<'_>) -> Result<BitPacked> {
        let len = r.u64()?;
        let width = r.u8()?;
        let words = r.list_u32(8, |r| r.u64())?;
        let bits = len.checked_mul(u64::from(width));
        if width > 64 || bits.map(|b| b.div_ceil(64)) != Some(words.len() as u64) {
            return Err(r.error(format_args!(
                "{} words cannot hold {len} entries of {width} bits",
                words.len()
            )));
        }
        Ok(BitPacked {
            len: len as usize,
            width,
            words,
        })
    }
}

/// Compact bitmap for null flags.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bitmap {
    /// Number of logical bits.
    pub len: usize,
    /// Packed words.
    pub words: Vec<u64>,
}

impl Bitmap {
    /// Build from bools.
    pub fn from_bools(bools: &[bool]) -> Bitmap {
        let mut words = vec![0u64; bools.len().div_ceil(64)];
        for (i, &b) in bools.iter().enumerate() {
            if b {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        Bitmap {
            len: bools.len(),
            words,
        }
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set (lets bulk readers skip per-row tests).
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len as u64);
        put_u32(out, self.words.len() as u32);
        for &w in &self.words {
            put_u64(out, w);
        }
    }

    /// Decode, checking that the words hold exactly `len` bits.
    fn decode(r: &mut ByteReader<'_>) -> Result<Bitmap> {
        let len = r.u64()?;
        let words = r.list_u32(8, |r| r.u64())?;
        if len.div_ceil(64) != words.len() as u64 {
            return Err(r.error(format_args!(
                "{} words cannot hold {len} null flags",
                words.len()
            )));
        }
        Ok(Bitmap {
            len: len as usize,
            words,
        })
    }

    /// Expand to one bool per logical bit.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.len);
        for w in 0..self.words.len() {
            let word = self.words[w];
            let n = (self.len - w * 64).min(64);
            for b in 0..n {
                out.push((word >> b) & 1 == 1);
            }
        }
        out
    }
}

/// Per-pack statistics (paper "Pack Meta": min/max, sampling histogram,
/// plus sum/count/null/distinct shown in Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct PackMeta {
    /// Minimum non-null value.
    pub min: Value,
    /// Maximum non-null value.
    pub max: Value,
    /// Sum of numeric values (0 for strings).
    pub sum: f64,
    /// Total rows.
    pub count: u32,
    /// NULL rows.
    pub null_count: u32,
    /// Estimated distinct values.
    pub distinct: u32,
    /// Equi-width histogram over [min, max] for numerics (empty for
    /// strings).
    pub histogram: Vec<u32>,
}

impl PackMeta {
    /// Compute stats over the values of a column slice.
    pub fn compute(values: impl Iterator<Item = Value> + Clone) -> PackMeta {
        let mut min = Value::Null;
        let mut max = Value::Null;
        let mut sum = 0.0;
        let mut count = 0u32;
        let mut null_count = 0u32;
        let mut distinct = imci_common::FxHashSet::default();
        for v in values.clone() {
            count += 1;
            if v.is_null() {
                null_count += 1;
                continue;
            }
            if min.is_null() || v < min {
                min = v.clone();
            }
            if max.is_null() || v > max {
                max = v.clone();
            }
            if let Some(f) = v.as_f64() {
                sum += f;
            }
            if distinct.len() < 4096 {
                distinct.insert(v);
            }
        }
        // 16-bucket equi-width histogram for numeric columns.
        let mut histogram = Vec::new();
        if let (Some(lo), Some(hi)) = (min.as_f64(), max.as_f64()) {
            if hi > lo {
                histogram = vec![0u32; 16];
                let scale = 16.0 / (hi - lo);
                for v in values {
                    if let Some(f) = v.as_f64() {
                        let b = (((f - lo) * scale) as usize).min(15);
                        histogram[b] += 1;
                    }
                }
            }
        }
        PackMeta {
            min,
            max,
            sum,
            count,
            null_count,
            distinct: distinct.len() as u32,
            histogram,
        }
    }

    /// Can any row in this pack satisfy `lo <= v <= hi`? Used for
    /// min/max pruning; `None` bounds are unconstrained.
    pub fn may_contain_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        if self.min.is_null() {
            // all-null pack can satisfy nothing
            return false;
        }
        if let Some(lo) = lo {
            if self.max < *lo {
                return false;
            }
        }
        if let Some(hi) = hi {
            if self.min > *hi {
                return false;
            }
        }
        true
    }

    /// Does *every* row in this pack satisfy `lo <= v <= hi`? The dual
    /// of [`PackMeta::may_contain_range`]: when true, a scan can skip
    /// per-row predicate evaluation entirely and keep its whole
    /// selection (nulls force per-row checks, so any null disqualifies).
    pub fn all_in_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        if self.null_count > 0 || self.min.is_null() {
            return false;
        }
        if let Some(lo) = lo {
            if self.min < *lo {
                return false;
            }
        }
        if let Some(hi) = hi {
            if self.max > *hi {
                return false;
            }
        }
        true
    }
}

/// An immutable compressed column segment.
#[derive(Debug, Clone)]
pub enum PackData {
    /// FOR + bit-packed integers.
    Int {
        /// Frame of reference (minimum).
        base: i64,
        /// Packed residuals.
        packed: BitPacked,
        /// Null bitmap.
        nulls: Bitmap,
    },
    /// Raw doubles (IEEE bits don't bit-pack usefully).
    Double {
        /// Values.
        vals: Vec<f64>,
        /// Null bitmap.
        nulls: Bitmap,
    },
    /// Dictionary-compressed strings.
    Str {
        /// Bit-packed dictionary codes.
        codes: BitPacked,
        /// Dictionary in code order.
        dict: Vec<String>,
        /// Null bitmap.
        nulls: Bitmap,
    },
}

/// A sealed Data Pack: compressed data + statistics.
#[derive(Debug, Clone)]
pub struct Pack {
    /// Compressed payload.
    pub data: PackData,
    /// Statistics for pruning and estimation.
    pub meta: PackMeta,
}

impl Pack {
    /// Compress a partial pack (copy-on-write: the source is untouched).
    pub fn seal(col: &ColumnData) -> Pack {
        let n = col.len();
        let meta = PackMeta::compute((0..n).map(|i| col.get(i)));
        let data = match col {
            ColumnData::Int { vals, nulls } => {
                let base = vals
                    .iter()
                    .zip(nulls)
                    .filter(|(_, &nl)| !nl)
                    .map(|(v, _)| *v)
                    .min()
                    .unwrap_or(0);
                // Wrapping arithmetic: residuals live in mod-2^64 space,
                // which roundtrips exactly even when max-min overflows i64.
                let residuals: Vec<u64> = vals
                    .iter()
                    .zip(nulls)
                    .map(|(v, &nl)| if nl { 0 } else { v.wrapping_sub(base) as u64 })
                    .collect();
                PackData::Int {
                    base,
                    packed: BitPacked::pack(&residuals),
                    nulls: Bitmap::from_bools(nulls),
                }
            }
            ColumnData::Double { vals, nulls } => PackData::Double {
                vals: vals.clone(),
                nulls: Bitmap::from_bools(nulls),
            },
            ColumnData::Str { codes, nulls, dict } => PackData::Str {
                codes: BitPacked::pack(&codes.iter().map(|&c| c as u64).collect::<Vec<u64>>()),
                dict: dict.strings().to_vec(),
                nulls: Bitmap::from_bools(nulls),
            },
        };
        Pack { data, meta }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            PackData::Int { nulls, .. }
            | PackData::Double { nulls, .. }
            | PackData::Str { nulls, .. } => nulls.len,
        }
    }

    /// True when the pack holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read row `i` as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        match &self.data {
            PackData::Int {
                base,
                packed,
                nulls,
            } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Int(base.wrapping_add(packed.get(i) as i64))
                }
            }
            PackData::Double { vals, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Double(vals[i])
                }
            }
            PackData::Str { codes, dict, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Str(dict[codes.get(i) as usize].clone())
                }
            }
        }
    }

    /// Decompress into a mutable column (used by checkpoint load and by
    /// the executor's materializing scan). Bulk path: one word-at-a-time
    /// unpack of the packed codes plus one bitmap expansion — no
    /// per-element shift/mask round-trips.
    pub fn decode(&self) -> ColumnData {
        match &self.data {
            PackData::Int {
                base,
                packed,
                nulls,
            } => {
                let mut residuals = Vec::new();
                packed.unpack_into(&mut residuals);
                let nl = nulls.to_bools();
                let vals: Vec<i64> = residuals
                    .iter()
                    .zip(&nl)
                    .map(|(&r, &isnull)| {
                        if isnull {
                            0
                        } else {
                            base.wrapping_add(r as i64)
                        }
                    })
                    .collect();
                ColumnData::Int { vals, nulls: nl }
            }
            PackData::Double { vals, nulls } => ColumnData::Double {
                vals: vals.clone(),
                nulls: nulls.to_bools(),
            },
            PackData::Str { codes, dict, nulls } => {
                let mut d = Dictionary::default();
                let remap: Vec<u32> = dict.iter().map(|s| d.intern(s)).collect();
                let mut cs = Vec::new();
                codes.unpack_into_u32(&mut cs);
                let nl = nulls.to_bools();
                for (c, &isnull) in cs.iter_mut().zip(&nl) {
                    *c = if isnull { 0 } else { remap[*c as usize] };
                }
                ColumnData::Str {
                    codes: cs,
                    nulls: nl,
                    dict: d,
                }
            }
        }
    }

    /// Gather rows at `idx` directly from the compressed form into a
    /// mutable typed column (scan hot path). With late materialization
    /// this runs once per column, *after* filtering, over the surviving
    /// selection only. Null-free packs skip the per-row bitmap probes.
    pub fn gather(&self, idx: &[u32]) -> ColumnData {
        let no_nulls = self.meta.null_count == 0;
        match &self.data {
            PackData::Int {
                base,
                packed,
                nulls,
            } => {
                let mut vals = Vec::with_capacity(idx.len());
                if no_nulls {
                    for &i in idx {
                        vals.push(base.wrapping_add(packed.get(i as usize) as i64));
                    }
                    return ColumnData::Int {
                        vals,
                        nulls: vec![false; idx.len()],
                    };
                }
                let mut nl = Vec::with_capacity(idx.len());
                for &i in idx {
                    let i = i as usize;
                    let isnull = nulls.get(i);
                    nl.push(isnull);
                    vals.push(if isnull {
                        0
                    } else {
                        base.wrapping_add(packed.get(i) as i64)
                    });
                }
                ColumnData::Int { vals, nulls: nl }
            }
            PackData::Double { vals, nulls } => {
                let mut v = Vec::with_capacity(idx.len());
                let mut nl = Vec::with_capacity(idx.len());
                for &i in idx {
                    let i = i as usize;
                    nl.push(nulls.get(i));
                    v.push(vals[i]);
                }
                ColumnData::Double { vals: v, nulls: nl }
            }
            PackData::Str { codes, dict, nulls } => {
                let mut d = Dictionary::default();
                let remap: Vec<u32> = dict.iter().map(|s| d.intern(s)).collect();
                let mut cs = Vec::with_capacity(idx.len());
                if no_nulls {
                    for &i in idx {
                        cs.push(remap[codes.get(i as usize) as usize]);
                    }
                    return ColumnData::Str {
                        codes: cs,
                        nulls: vec![false; idx.len()],
                        dict: d,
                    };
                }
                let mut nl = Vec::with_capacity(idx.len());
                for &i in idx {
                    let i = i as usize;
                    let isnull = nulls.get(i);
                    nl.push(isnull);
                    cs.push(if isnull {
                        0
                    } else {
                        remap[codes.get(i) as usize]
                    });
                }
                ColumnData::Str {
                    codes: cs,
                    nulls: nl,
                    dict: d,
                }
            }
        }
    }

    /// Approximate compressed footprint in bytes.
    pub fn compressed_size(&self) -> usize {
        match &self.data {
            PackData::Int { packed, nulls, .. } => {
                8 + packed.encoded_size() + nulls.words.len() * 8
            }
            PackData::Double { vals, nulls } => vals.len() * 8 + nulls.words.len() * 8,
            PackData::Str { codes, dict, nulls } => {
                codes.encoded_size()
                    + dict.iter().map(|s| s.len() + 4).sum::<usize>()
                    + nulls.words.len() * 8
            }
        }
    }

    // ---- binary codec (checkpoints) ----

    /// Serialize for the checkpoint object store.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.compressed_size() + 64);
        match &self.data {
            PackData::Int {
                base,
                packed,
                nulls,
            } => {
                out.push(1);
                put_i64(&mut out, *base);
                packed.encode_into(&mut out);
                nulls.encode_into(&mut out);
            }
            PackData::Double { vals, nulls } => {
                out.push(2);
                put_u64(&mut out, vals.len() as u64);
                for v in vals {
                    put_u64(&mut out, v.to_bits());
                }
                nulls.encode_into(&mut out);
            }
            PackData::Str { codes, dict, nulls } => {
                out.push(3);
                codes.encode_into(&mut out);
                put_u32(&mut out, dict.len() as u32);
                for s in dict {
                    put_str(&mut out, s);
                }
                nulls.encode_into(&mut out);
            }
        }
        out
    }

    /// Deserialize from a checkpoint object. Recomputes meta. A pack
    /// whose arrays disagree with its row count, or whose string codes
    /// point past its dictionary, is rejected here rather than left to
    /// panic in a later scan.
    pub fn decode_bytes(bytes: &[u8]) -> Result<Pack> {
        let mut r = ByteReader::new(bytes, "pack");
        let data = match r.u8()? {
            1 => PackData::Int {
                base: r.i64()?,
                packed: BitPacked::decode(&mut r)?,
                nulls: Bitmap::decode(&mut r)?,
            },
            2 => PackData::Double {
                vals: r.list_u64(8, |r| Ok(f64::from_bits(r.u64()?)))?,
                nulls: Bitmap::decode(&mut r)?,
            },
            3 => PackData::Str {
                codes: BitPacked::decode(&mut r)?,
                // String length.
                dict: r.list_u32(4, |r| r.str())?,
                nulls: Bitmap::decode(&mut r)?,
            },
            t => return Err(r.error(format_args!("bad tag {t}"))),
        };
        let well_formed = match &data {
            PackData::Int { packed, nulls, .. } => packed.len == nulls.len,
            PackData::Double { vals, nulls } => vals.len() == nulls.len,
            PackData::Str { codes, dict, nulls } => {
                codes.len == nulls.len
                    && (0..nulls.len).all(|i| nulls.get(i) || (codes.get(i) as usize) < dict.len())
            }
        };
        if !well_formed {
            return Err(r.error("arrays do not match the row count"));
        }
        let tmp = Pack {
            meta: PackMeta {
                min: Value::Null,
                max: Value::Null,
                sum: 0.0,
                count: 0,
                null_count: 0,
                distinct: 0,
                histogram: Vec::new(),
            },
            data,
        };
        let n = tmp.len();
        let meta = PackMeta::compute((0..n).map(|i| tmp.get(i)));
        Ok(Pack { meta, ..tmp })
    }

    /// The column's logical data type.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            PackData::Int { .. } => DataType::Int,
            PackData::Double { .. } => DataType::Double,
            PackData::Str { .. } => DataType::Str,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitpack_roundtrip_various_widths() {
        for max in [0u64, 1, 7, 255, 1 << 20, u64::MAX >> 1, u64::MAX] {
            let values: Vec<u64> = (0..200).map(|i| (i * 31) % max.max(1)).collect();
            let bp = BitPacked::pack(&values);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(bp.get(i), v, "width {} idx {i}", bp.width);
            }
            let mut out = Vec::new();
            bp.unpack_into(&mut out);
            assert_eq!(out, values);
        }
    }

    #[test]
    fn int_pack_seal_and_read() {
        let mut col = ColumnData::new(DataType::Int);
        for i in 0..1000 {
            if i % 17 == 0 {
                col.set(i, &Value::Null).unwrap();
            } else {
                col.set(i, &Value::Int(1_000_000 + (i as i64 % 100)))
                    .unwrap();
            }
        }
        let pack = Pack::seal(&col);
        for i in 0..1000 {
            assert_eq!(pack.get(i), col.get(i), "row {i}");
        }
        // FOR compression: 100 distinct values near 1e6 need ≤7 bits.
        assert!(
            pack.compressed_size() < 1000 * 8 / 4,
            "expected ≥4x compression, got {} bytes",
            pack.compressed_size()
        );
    }

    #[test]
    fn str_pack_dictionary_compression() {
        let mut col = ColumnData::new(DataType::Str);
        let words = ["alpha", "beta", "gamma", "delta"];
        for i in 0..1000 {
            col.set(i, &Value::Str(words[i % 4].into())).unwrap();
        }
        let pack = Pack::seal(&col);
        assert_eq!(pack.get(5), Value::Str("beta".into()));
        assert!(pack.compressed_size() < 1000);
        assert_eq!(pack.meta.distinct, 4);
    }

    #[test]
    fn double_pack_roundtrip() {
        let mut col = ColumnData::new(DataType::Double);
        for i in 0..100 {
            col.set(i, &Value::Double(i as f64 * 0.5)).unwrap();
        }
        let pack = Pack::seal(&col);
        assert_eq!(pack.get(3), Value::Double(1.5));
        assert_eq!(pack.meta.max, Value::Double(49.5));
    }

    #[test]
    fn meta_min_max_sum_histogram() {
        let mut col = ColumnData::new(DataType::Int);
        for i in 0..160 {
            col.set(i, &Value::Int(i as i64)).unwrap();
        }
        let pack = Pack::seal(&col);
        assert_eq!(pack.meta.min, Value::Int(0));
        assert_eq!(pack.meta.max, Value::Int(159));
        assert_eq!(pack.meta.sum, (0..160).sum::<i64>() as f64);
        assert_eq!(pack.meta.count, 160);
        assert_eq!(pack.meta.histogram.len(), 16);
        assert_eq!(pack.meta.histogram.iter().sum::<u32>(), 160);
    }

    #[test]
    fn bulk_unpack_matches_point_gets() {
        for width_max in [0u64, 1, 3, 100, 1 << 13, 1 << 33, u64::MAX] {
            let values: Vec<u64> = (0..777)
                .map(|i| (i as u64).wrapping_mul(0x9e37_79b9) % width_max.max(1))
                .collect();
            let bp = BitPacked::pack(&values);
            let mut out64 = Vec::new();
            bp.unpack_into(&mut out64);
            assert_eq!(out64, values, "u64 bulk, width {}", bp.width);
            if bp.width <= 32 {
                let mut out32 = Vec::new();
                bp.unpack_into_u32(&mut out32);
                let expect: Vec<u32> = values.iter().map(|&v| v as u32).collect();
                assert_eq!(out32, expect, "u32 bulk, width {}", bp.width);
            }
        }
    }

    #[test]
    fn bitmap_bulk_helpers() {
        let bools: Vec<bool> = (0..130).map(|i| i % 7 == 0).collect();
        let bm = Bitmap::from_bools(&bools);
        assert_eq!(bm.to_bools(), bools);
        assert!(!bm.none_set());
        assert!(Bitmap::from_bools(&[false; 100]).none_set());
        assert_eq!(Bitmap::from_bools(&[]).to_bools(), Vec::<bool>::new());
    }

    #[test]
    fn all_in_range_dual_of_pruning() {
        let mut col = ColumnData::new(DataType::Int);
        for i in 0..10 {
            col.set(i, &Value::Int(100 + i as i64)).unwrap();
        }
        let m = &Pack::seal(&col).meta;
        assert!(m.all_in_range(Some(&Value::Int(100)), Some(&Value::Int(109))));
        assert!(m.all_in_range(Some(&Value::Int(0)), None));
        assert!(
            !m.all_in_range(Some(&Value::Int(101)), None),
            "min below lo"
        );
        assert!(
            !m.all_in_range(None, Some(&Value::Int(108))),
            "max above hi"
        );
        // Any null disqualifies: per-row checks must still run.
        let mut with_null = ColumnData::new(DataType::Int);
        with_null.set(0, &Value::Int(5)).unwrap();
        with_null.set(1, &Value::Null).unwrap();
        let m = &Pack::seal(&with_null).meta;
        assert!(!m.all_in_range(Some(&Value::Int(0)), None));
    }

    #[test]
    fn pruning_predicate() {
        let mut col = ColumnData::new(DataType::Int);
        for i in 0..10 {
            col.set(i, &Value::Int(100 + i as i64)).unwrap();
        }
        let m = &Pack::seal(&col).meta;
        assert!(m.may_contain_range(Some(&Value::Int(105)), None));
        assert!(!m.may_contain_range(Some(&Value::Int(200)), None));
        assert!(!m.may_contain_range(None, Some(&Value::Int(50))));
        assert!(m.may_contain_range(Some(&Value::Int(0)), Some(&Value::Int(100))));
    }

    #[test]
    fn all_null_pack_prunes_everything() {
        let mut col = ColumnData::new(DataType::Int);
        col.set(9, &Value::Null).unwrap();
        let m = &Pack::seal(&col).meta;
        assert!(!m.may_contain_range(Some(&Value::Int(0)), None));
        assert_eq!(m.null_count, 10);
    }

    #[test]
    fn decode_rejects_shapes_that_would_panic_later() {
        let mut col = ColumnData::new(DataType::Str);
        col.set(0, &Value::Str("a".into())).unwrap();
        col.set(1, &Value::Str("b".into())).unwrap();
        let mut pack = Pack::seal(&col);
        if let PackData::Str { dict, .. } = &mut pack.data {
            dict.pop(); // a code now points past the dictionary
        }
        assert!(Pack::decode_bytes(&pack.encode()).is_err());
        let mut col = ColumnData::new(DataType::Int);
        col.set(0, &Value::Int(5)).unwrap();
        let mut pack = Pack::seal(&col);
        if let PackData::Int { nulls, .. } = &mut pack.data {
            *nulls = Bitmap::from_bools(&[false; 200]);
        }
        assert!(Pack::decode_bytes(&pack.encode()).is_err());
    }

    #[test]
    fn pack_codec_roundtrip() {
        let mut ic = ColumnData::new(DataType::Int);
        let mut sc = ColumnData::new(DataType::Str);
        let mut dc = ColumnData::new(DataType::Double);
        for i in 0..500 {
            ic.set(i, &Value::Int(i as i64 * 3 - 700)).unwrap();
            sc.set(i, &Value::Str(format!("s{}", i % 13))).unwrap();
            if i % 7 != 0 {
                dc.set(i, &Value::Double(i as f64 / 3.0)).unwrap();
            } else {
                dc.set(i, &Value::Null).unwrap();
            }
        }
        for col in [&ic, &sc, &dc] {
            let pack = Pack::seal(col);
            let restored = Pack::decode_bytes(&pack.encode()).unwrap();
            assert_eq!(restored.len(), pack.len());
            for i in 0..pack.len() {
                assert_eq!(restored.get(i), pack.get(i));
            }
            assert_eq!(restored.meta.min, pack.meta.min);
            assert_eq!(restored.meta.max, pack.meta.max);
        }
    }

    #[test]
    fn decode_back_to_column() {
        let mut col = ColumnData::new(DataType::Str);
        for i in 0..50 {
            col.set(i, &Value::Str(format!("w{}", i % 5))).unwrap();
        }
        let pack = Pack::seal(&col);
        let back = pack.decode();
        for i in 0..50 {
            assert_eq!(back.get(i), col.get(i));
        }
    }
}
