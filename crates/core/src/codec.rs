//! Bit-packed wire format for in-tree headers.
//!
//! Table I sizes a header at 10 B: sixteen 5-bit index fields for q = 16
//! over 32 embedding tables. This module implements that packing for real —
//! fixed-width index fields in a contiguous bit stream, preceded by small
//! count/tag bytes — so buffer-sizing claims rest on executable code and
//! the link-transfer model can charge exact header bytes.

use crate::index::{IndexSet, QueryId, VectorIndex};
use crate::item::{Header, PendingQuery};

/// Errors from encoding or decoding headers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// An index does not fit in the configured field width.
    IndexTooWide {
        /// The offending index.
        index: VectorIndex,
        /// Field width in bits.
        bits: u32,
    },
    /// A field count exceeds the hardware maximum q.
    TooManyFields {
        /// The count encountered.
        count: usize,
        /// The maximum q.
        max: usize,
    },
    /// The byte stream ended prematurely or is malformed.
    Truncated,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::IndexTooWide { index, bits } => {
                write!(f, "index {index} does not fit in {bits} bits")
            }
            CodecError::TooManyFields { count, max } => {
                write!(f, "{count} index fields exceed the hardware maximum q = {max}")
            }
            CodecError::Truncated => write!(f, "header bytes truncated or malformed"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Fixed-width header codec (the paper's 5-bit × 16-field format by
/// default).
///
/// # Examples
///
/// ```
/// use fafnir_core::codec::HeaderCodec;
/// use fafnir_core::{indexset, Header, PendingQuery, QueryId};
///
/// let codec = HeaderCodec::paper();
/// let header = Header {
///     indices: indexset![5, 11],
///     queries: vec![PendingQuery::new(QueryId(0), indexset![2, 6])],
/// };
/// let bytes = codec.encode(&header)?;
/// assert_eq!(codec.decode(&bytes)?, header);
/// # Ok::<(), fafnir_core::codec::CodecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeaderCodec {
    /// Bits per index field (5 for 32 distinct vectors/tables).
    pub bits_per_index: u32,
    /// Maximum index fields per header side (q = 16 in the paper).
    pub max_fields: usize,
}

impl HeaderCodec {
    /// The paper's sizing: 5-bit fields, q = 16.
    #[must_use]
    pub fn paper() -> Self {
        Self { bits_per_index: 5, max_fields: 16 }
    }

    /// A codec wide enough for `universe` distinct indices.
    #[must_use]
    pub fn for_universe(universe: usize, max_fields: usize) -> Self {
        Self { bits_per_index: IndexSet::bits_per_index(universe.max(2)).max(1), max_fields }
    }

    /// Encodes a header.
    ///
    /// Layout: `[indices count u8][entry count u8]`, per entry
    /// `[query id u8][remaining count u8]`, then all index fields bit-packed
    /// LSB-first at `bits_per_index` each (indices, then each entry's
    /// remaining set, in order).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when an index exceeds the field width or a
    /// set exceeds `max_fields`.
    pub fn encode(&self, header: &Header) -> Result<Vec<u8>, CodecError> {
        let check_len = |count: usize| -> Result<(), CodecError> {
            if count > self.max_fields {
                Err(CodecError::TooManyFields { count, max: self.max_fields })
            } else {
                Ok(())
            }
        };
        check_len(header.indices.len())?;
        check_len(header.queries.len())?;
        let mut out = vec![header.indices.len() as u8, header.queries.len() as u8];
        for pending in &header.queries {
            check_len(pending.remaining.len())?;
            out.push(pending.query.0 as u8);
            out.push(pending.remaining.len() as u8);
        }
        let mut writer = BitWriter::new(out);
        let mut push_set = |set: &IndexSet| -> Result<(), CodecError> {
            for index in set.iter() {
                if u64::from(index.value()) >= 1u64 << self.bits_per_index {
                    return Err(CodecError::IndexTooWide { index, bits: self.bits_per_index });
                }
                writer.push(u64::from(index.value()), self.bits_per_index);
            }
            Ok(())
        };
        push_set(&header.indices)?;
        for pending in &header.queries {
            push_set(&pending.remaining)?;
        }
        Ok(writer.finish())
    }

    /// Decodes a header produced by [`HeaderCodec::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] for malformed input.
    pub fn decode(&self, bytes: &[u8]) -> Result<Header, CodecError> {
        if bytes.len() < 2 {
            return Err(CodecError::Truncated);
        }
        let index_count = bytes[0] as usize;
        let entry_count = bytes[1] as usize;
        if index_count > self.max_fields || entry_count > self.max_fields {
            return Err(CodecError::Truncated);
        }
        let tag_bytes = 2 + 2 * entry_count;
        if bytes.len() < tag_bytes {
            return Err(CodecError::Truncated);
        }
        let mut entries = Vec::with_capacity(entry_count);
        let mut total_fields = index_count;
        for entry in 0..entry_count {
            let query = QueryId(u32::from(bytes[2 + 2 * entry]));
            let remaining = bytes[3 + 2 * entry] as usize;
            if remaining > self.max_fields {
                return Err(CodecError::Truncated);
            }
            total_fields += remaining;
            entries.push((query, remaining));
        }
        let mut reader = BitReader::new(&bytes[tag_bytes..]);
        let needed_bits = total_fields as u64 * u64::from(self.bits_per_index);
        if (reader.available_bits()) < needed_bits {
            return Err(CodecError::Truncated);
        }
        let mut read_set = |count: usize| -> IndexSet {
            (0..count).map(|_| VectorIndex(reader.pull(self.bits_per_index) as u32)).collect()
        };
        let indices = read_set(index_count);
        let queries = entries
            .into_iter()
            .map(|(query, count)| PendingQuery::new(query, read_set(count)))
            .collect();
        Ok(Header { indices, queries })
    }

    /// Encoded size in bytes of a header (without encoding it).
    #[must_use]
    pub fn encoded_bytes(&self, header: &Header) -> usize {
        let fields =
            header.indices.len() + header.queries.iter().map(|p| p.remaining.len()).sum::<usize>();
        2 + 2 * header.queries.len() + (fields * self.bits_per_index as usize).div_ceil(8)
    }
}

impl Default for HeaderCodec {
    fn default() -> Self {
        Self::paper()
    }
}

/// LSB-first bit packer appending to a byte vector.
struct BitWriter {
    bytes: Vec<u8>,
    bit_pos: u32,
}

impl BitWriter {
    fn new(bytes: Vec<u8>) -> Self {
        Self { bytes, bit_pos: 0 }
    }

    fn push(&mut self, value: u64, bits: u32) {
        for bit in 0..bits {
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            if (value >> bit) & 1 == 1 {
                let last = self.bytes.len() - 1;
                self.bytes[last] |= 1 << self.bit_pos;
            }
            self.bit_pos = (self.bit_pos + 1) % 8;
        }
    }

    fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// LSB-first bit reader.
struct BitReader<'a> {
    bytes: &'a [u8],
    cursor: u64,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, cursor: 0 }
    }

    fn available_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8 - self.cursor
    }

    fn pull(&mut self, bits: u32) -> u64 {
        let mut value = 0u64;
        for bit in 0..bits {
            let byte = (self.cursor / 8) as usize;
            let offset = (self.cursor % 8) as u32;
            if byte < self.bytes.len() && (self.bytes[byte] >> offset) & 1 == 1 {
                value |= 1 << bit;
            }
            self.cursor += 1;
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    fn header(indices: &[u32], entries: &[(u32, &[u32])]) -> Header {
        Header {
            indices: indices.iter().copied().map(VectorIndex).collect(),
            queries: entries
                .iter()
                .map(|(q, r)| {
                    PendingQuery::new(QueryId(*q), r.iter().copied().map(VectorIndex).collect())
                })
                .collect(),
        }
    }

    #[test]
    fn paper_header_packs_into_table1_budget() {
        // A full header: 4 reduced indices + one query with 12 remaining =
        // 16 fields × 5 bits = 80 bits = 10 B of index payload (Table I),
        // plus our 4 tag bytes.
        let codec = HeaderCodec::paper();
        let full = header(&[0, 1, 2, 3], &[(0, &[4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])]);
        let bytes = codec.encode(&full).unwrap();
        assert_eq!(bytes.len(), 4 + 10);
        assert_eq!(codec.encoded_bytes(&full), bytes.len());
        assert_eq!(codec.decode(&bytes).unwrap(), full);
    }

    #[test]
    fn round_trips_the_fig6_example() {
        let codec = HeaderCodec { bits_per_index: 7, max_fields: 16 };
        let fig6 = header(&[11], &[(0, &[44, 32, 83, 77]), (2, &[50, 44, 94, 26])]);
        let bytes = codec.encode(&fig6).unwrap();
        assert_eq!(codec.decode(&bytes).unwrap(), fig6);
    }

    #[test]
    fn rejects_wide_indices_and_overflow() {
        let codec = HeaderCodec::paper();
        let wide = header(&[32], &[]); // 32 needs 6 bits
        assert!(matches!(codec.encode(&wide), Err(CodecError::IndexTooWide { .. })));
        let long =
            header(&(0..17).collect::<Vec<u32>>().iter().map(|&i| i % 32).collect::<Vec<_>>(), &[]);
        assert!(matches!(codec.encode(&long), Err(CodecError::TooManyFields { .. })));
    }

    #[test]
    fn rejects_truncated_bytes() {
        let codec = HeaderCodec::paper();
        let bytes = codec.encode(&header(&[1, 2], &[(0, &[3])])).unwrap();
        assert!(matches!(codec.decode(&bytes[..bytes.len() - 1]), Err(CodecError::Truncated)));
        assert!(matches!(codec.decode(&[]), Err(CodecError::Truncated)));
        assert!(matches!(codec.decode(&[5]), Err(CodecError::Truncated)));
    }

    #[test]
    fn for_universe_sizes_fields() {
        let codec = HeaderCodec::for_universe(32, 16);
        assert_eq!(codec.bits_per_index, 5);
        let wide = HeaderCodec::for_universe(2_000, 16);
        assert_eq!(wide.bits_per_index, 11);
    }

    proptest! {
        #[test]
        fn encode_decode_round_trips(
            indices in proptest::collection::btree_set(0u32..32, 0..8),
            entries in proptest::collection::vec(
                (0u32..8, proptest::collection::btree_set(0u32..32, 0..8)), 0..4),
        ) {
            let codec = HeaderCodec::paper();
            let original = Header {
                indices: indices.into_iter().map(VectorIndex).collect(),
                queries: entries
                    .into_iter()
                    .map(|(q, r)| PendingQuery::new(
                        QueryId(q),
                        r.into_iter().map(VectorIndex).collect(),
                    ))
                    .collect(),
            };
            let bytes = codec.encode(&original).unwrap();
            prop_assert_eq!(codec.decode(&bytes).unwrap(), original.clone());
            prop_assert_eq!(codec.encoded_bytes(&original), bytes.len());
        }
    }
}
