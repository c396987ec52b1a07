//! Columnar tables: the storage format of the analytics engine.
//!
//! Columns encode to a self-describing byte format (varint/zigzag integers,
//! fixed-width floats, length-prefixed strings, bit-packed booleans) and are
//! compressed per column — the layout that makes BigQuery's compression tax
//! sit on the critical path (Section 5.4).

use hsdp_taxes::error::{CompressError, WireError};
use hsdp_taxes::varint::{decode_varint, encode_varint, zigzag_decode, zigzag_encode};
use hsdp_workload::rows::FactRow;

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Signed integers (zigzag varint encoded).
    Int64(Vec<i64>),
    /// Doubles (fixed 8-byte little endian).
    Float64(Vec<f64>),
    /// UTF-8 strings (length-prefixed).
    Str(Vec<String>),
    /// Booleans (bit-packed).
    Bool(Vec<bool>),
    /// Small categorical ids (varint).
    U32(Vec<u32>),
}

/// Errors from column decoding.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ColumnError {
    /// The byte stream was malformed.
    Malformed(&'static str),
    /// A wire-level primitive failed.
    Wire(WireError),
    /// Decompression failed.
    Compress(CompressError),
}

impl std::fmt::Display for ColumnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnError::Malformed(what) => write!(f, "malformed column: {what}"),
            ColumnError::Wire(e) => write!(f, "column wire error: {e}"),
            ColumnError::Compress(e) => write!(f, "column compression error: {e}"),
        }
    }
}

impl std::error::Error for ColumnError {}

impl From<WireError> for ColumnError {
    fn from(e: WireError) -> Self {
        ColumnError::Wire(e)
    }
}

impl From<CompressError> for ColumnError {
    fn from(e: CompressError) -> Self {
        ColumnError::Compress(e)
    }
}

impl Column {
    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::U32(v) => v.len(),
        }
    }

    /// True if the column has no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn type_tag(&self) -> u8 {
        match self {
            Column::Int64(_) => 0,
            Column::Float64(_) => 1,
            Column::Str(_) => 2,
            Column::Bool(_) => 3,
            Column::U32(_) => 4,
        }
    }

    /// Encodes the column (uncompressed body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.type_tag());
        encode_varint(self.len() as u64, &mut out);
        match self {
            Column::Int64(values) => {
                for &v in values {
                    encode_varint(zigzag_encode(v), &mut out);
                }
            }
            Column::Float64(values) => {
                for &v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Column::Str(values) => {
                for v in values {
                    encode_varint(v.len() as u64, &mut out);
                    out.extend_from_slice(v.as_bytes());
                }
            }
            Column::Bool(values) => {
                let mut byte = 0u8;
                for (i, &v) in values.iter().enumerate() {
                    if v {
                        byte |= 1 << (i % 8);
                    }
                    if i % 8 == 7 {
                        out.push(byte);
                        byte = 0;
                    }
                }
                if values.len() % 8 != 0 {
                    out.push(byte);
                }
            }
            Column::U32(values) => {
                for &v in values {
                    encode_varint(u64::from(v), &mut out);
                }
            }
        }
        out
    }

    /// Decodes a column from [`Column::encode`] output.
    ///
    /// The value count and every string length come from the input, so
    /// each is checked against the bytes that remain before anything is
    /// allocated or sliced for it.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnError`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Column, ColumnError> {
        let (&tag, rest) = buf.split_first().ok_or(ColumnError::Malformed("empty"))?;
        let (count, n) = decode_varint(rest)?;
        let count = usize::try_from(count).map_err(|_| ColumnError::Malformed("count"))?;
        let mut pos = n;
        // The fewest body bytes `count` values can take: a varint or a
        // string's length prefix is at least a byte, a float is eight, a
        // bool one bit.
        let min_body = match tag {
            1 => count.checked_mul(8),
            3 => Some(count.div_ceil(8)),
            _ => Some(count),
        };
        if min_body.is_none_or(|min| min > rest.len() - pos) {
            return Err(ColumnError::Malformed("count exceeds body"));
        }
        match tag {
            0 => {
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    let (raw, n) = decode_varint(&rest[pos..])?;
                    values.push(zigzag_decode(raw));
                    pos += n;
                }
                Ok(Column::Int64(values))
            }
            1 => {
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    let bytes = pos
                        .checked_add(8)
                        .and_then(|end| rest.get(pos..end))
                        .ok_or(ColumnError::Malformed("float body"))?;
                    // audit: allow(panic, get(pos..pos + 8) returned Some so the slice is exactly 8 bytes)
                    values.push(f64::from_le_bytes(bytes.try_into().expect("8 bytes")));
                    pos += 8;
                }
                Ok(Column::Float64(values))
            }
            2 => {
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    let (len, n) = decode_varint(&rest[pos..])?;
                    pos += n;
                    let len =
                        usize::try_from(len).map_err(|_| ColumnError::Malformed("str len"))?;
                    let bytes = pos
                        .checked_add(len)
                        .and_then(|end| rest.get(pos..end))
                        .ok_or(ColumnError::Malformed("str body"))?;
                    values.push(
                        std::str::from_utf8(bytes)
                            .map_err(|_| ColumnError::Malformed("utf8"))?
                            .to_owned(),
                    );
                    pos += len;
                }
                Ok(Column::Str(values))
            }
            3 => {
                let mut values = Vec::with_capacity(count);
                for i in 0..count {
                    let byte = rest
                        .get(pos + i / 8)
                        .ok_or(ColumnError::Malformed("bool body"))?;
                    values.push(byte & (1 << (i % 8)) != 0);
                }
                Ok(Column::Bool(values))
            }
            4 => {
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    let (raw, n) = decode_varint(&rest[pos..])?;
                    values.push(u32::try_from(raw).map_err(|_| ColumnError::Malformed("u32"))?);
                    pos += n;
                }
                Ok(Column::U32(values))
            }
            _ => Err(ColumnError::Malformed("type tag")),
        }
    }
}

/// A columnar table (one partition of the fact table).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnTable {
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnTable {
    /// Builds a partition from fact rows, taken by reference (a slice, a
    /// `&Vec`, or any cloneable iterator over rows: one pass per column).
    #[must_use]
    pub fn from_rows<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a FactRow>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        ColumnTable {
            columns: vec![
                Column::Int64(rows.clone().map(|r| r.user_id).collect()),
                Column::U32(rows.clone().map(|r| r.region).collect()),
                Column::Float64(rows.clone().map(|r| r.latency_ms).collect()),
                Column::Int64(rows.clone().map(|r| r.bytes).collect()),
                Column::Str(rows.clone().map(|r| r.url.clone()).collect()),
                Column::Bool(rows.clone().map(|r| r.success).collect()),
            ],
            rows: rows.count(),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// A column by index, in storage order: `user_id`, `region`,
    /// `latency_ms`, `bytes`, `url`, `success`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn column(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// Encodes + compresses every column; returns per-column
    /// `(compressed length, raw length)`. Nothing reads a column file's
    /// bytes, so the compressed stream is only measured.
    #[must_use]
    pub fn encode_compressed(&self) -> Vec<(usize, usize)> {
        self.columns
            .iter()
            .map(|c| {
                let raw = c.encode();
                (hsdp_taxes::compress::compressed_len(&raw), raw.len())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_workload::rows::FactGen;

    fn sample_rows(n: usize) -> Vec<FactRow> {
        let mut rng = hsdp_rng::StdRng::seed_from_u64(21);
        FactGen::default().rows(n, &mut rng)
    }

    #[test]
    fn every_column_type_roundtrips() {
        let cols = vec![
            Column::Int64(vec![-5, 0, 7, i64::MAX, i64::MIN]),
            Column::Float64(vec![1.5, -2.25, f64::INFINITY]),
            Column::Str(vec!["a".into(), String::new(), "日本語".into()]),
            Column::Bool(vec![
                true, false, true, true, false, false, true, true, false,
            ]),
            Column::U32(vec![0, 1, u32::MAX]),
        ];
        for col in cols {
            let encoded = col.encode();
            let decoded = Column::decode(&encoded).unwrap();
            assert_eq!(decoded, col);
        }
    }

    #[test]
    fn empty_columns_roundtrip() {
        for col in [
            Column::Int64(vec![]),
            Column::Str(vec![]),
            Column::Bool(vec![]),
        ] {
            assert_eq!(Column::decode(&col.encode()).unwrap(), col);
            assert!(col.is_empty());
        }
    }

    #[test]
    fn table_from_rows_has_aligned_columns() {
        let rows = sample_rows(100);
        let table = ColumnTable::from_rows(&rows);
        assert_eq!(table.rows(), 100);
        assert_eq!(table.columns.len(), 6);
        for (i, column) in table.columns.iter().enumerate() {
            assert_eq!(column.len(), 100, "column {i}");
        }
        // Spot-check a value.
        if let Column::Str(urls) = table.column(4) {
            assert_eq!(urls[0], rows[0].url);
        } else {
            panic!("column 4 is urls");
        }
    }

    #[test]
    fn compressed_columns_roundtrip_and_shrink() {
        let rows = sample_rows(2000);
        let table = ColumnTable::from_rows(&rows);
        let lens = table.encode_compressed();
        assert_eq!(lens.len(), 6);
        for (i, &(compressed_len, raw_len)) in lens.iter().enumerate() {
            let compressed = hsdp_taxes::compress::compress(&table.column(i).encode());
            assert_eq!(compressed.len(), compressed_len, "column {i}");
            let raw = hsdp_taxes::compress::decompress(&compressed).unwrap();
            assert_eq!(raw.len(), raw_len);
            let decoded = Column::decode(&raw).unwrap();
            assert_eq!(&decoded, table.column(i));
        }
        // The url column shares long prefixes and compresses well.
        let (url_compressed, url_raw) = lens[4];
        assert!(url_compressed < url_raw);
    }

    #[test]
    fn malformed_input_fails_cleanly() {
        assert!(Column::decode(&[]).is_err());
        assert!(Column::decode(&[9, 1]).is_err(), "bad tag");
        assert!(Column::decode(&[1, 2, 0]).is_err(), "truncated floats");
    }
}
