//! On-log record format.
//!
//! Each record is stored contiguously inside one log page:
//!
//! ```text
//! +----------------+----------+-----------+---------+----------------+
//! | prev_address 8 |  key  8  | value_len | flags 4 |  value bytes   |
//! +----------------+----------+-----------+---------+----------------+
//! ```
//!
//! `prev_address` links records that map to the same hash-index bucket, forming
//! the per-bucket chain FASTER traverses on reads. `flags` marks tombstones and
//! sealed records.

use mlkv_storage::{StorageError, StorageResult};

use crate::address::Address;

/// Record flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordFlags(pub u32);

impl RecordFlags {
    /// Bit marking a deleted record.
    const TOMBSTONE_BIT: u32 = 1;
    /// Bit present on every real record; its absence identifies page padding
    /// (zero-filled page tails) during log scans.
    const VALID_BIT: u32 = 2;
    /// Bit set on a record whose read-modify-write produced a value of a
    /// different length: the record stays readable, but its value is final
    /// (never updated in place again) while the resized value is appended.
    const SEALED_BIT: u32 = 4;

    /// A live record.
    pub const NONE: RecordFlags = RecordFlags(Self::VALID_BIT);
    /// A tombstone record (key deleted).
    pub const TOMBSTONE: RecordFlags = RecordFlags(Self::VALID_BIT | Self::TOMBSTONE_BIT);

    /// True when the tombstone bit is set.
    pub fn is_tombstone(&self) -> bool {
        self.0 & Self::TOMBSTONE_BIT != 0
    }

    /// True when this header belongs to a real record (not padding).
    pub fn is_valid(&self) -> bool {
        self.0 & Self::VALID_BIT != 0
    }

    /// True when the record's value may no longer change in place.
    pub fn is_sealed(&self) -> bool {
        self.0 & Self::SEALED_BIT != 0
    }

    /// These flags with the sealed bit set.
    pub fn sealed(self) -> RecordFlags {
        RecordFlags(self.0 | Self::SEALED_BIT)
    }
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Address of the previous record in the same hash-bucket chain.
    pub prev: Address,
    /// The record's key.
    pub key: u64,
    /// Flags (tombstone).
    pub flags: RecordFlags,
    /// The value bytes (empty for tombstones).
    pub value: Vec<u8>,
}

impl Record {
    /// Size of the fixed header preceding the value bytes.
    pub const HEADER_LEN: usize = 8 + 8 + 4 + 4;

    /// Create a live record.
    pub fn new(key: u64, value: Vec<u8>, prev: Address) -> Self {
        Self {
            prev,
            key,
            flags: RecordFlags::NONE,
            value,
        }
    }

    /// Create a tombstone record for `key`.
    pub fn tombstone(key: u64, prev: Address) -> Self {
        Self {
            prev,
            key,
            flags: RecordFlags::TOMBSTONE,
            value: Vec::new(),
        }
    }

    /// Total serialized length of this record.
    pub fn serialized_len(&self) -> usize {
        Self::HEADER_LEN + self.value.len()
    }

    /// Serialized length for a value of `value_len` bytes.
    pub fn len_for_value(value_len: usize) -> usize {
        Self::HEADER_LEN + value_len
    }

    /// Serialize into `out` (appending).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.prev.raw().to_le_bytes());
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.flags.0.to_le_bytes());
        out.extend_from_slice(&self.value);
    }

    /// Serialize into a new buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode the fixed header from `bytes`, returning `(prev, key, value_len,
    /// flags)`.
    pub fn decode_header(bytes: &[u8]) -> StorageResult<(Address, u64, usize, RecordFlags)> {
        if bytes.len() < Self::HEADER_LEN {
            return Err(StorageError::Corruption(format!(
                "record header truncated: {} < {}",
                bytes.len(),
                Self::HEADER_LEN
            )));
        }
        let prev = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let key = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let value_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let flags = RecordFlags(u32::from_le_bytes(bytes[20..24].try_into().unwrap()));
        Ok((Address::new(prev), key, value_len, flags))
    }

    /// Decode a whole record from `bytes` (which must contain at least the full
    /// record).
    pub fn decode(bytes: &[u8]) -> StorageResult<Record> {
        let (prev, key, value_len, flags) = Self::decode_header(bytes)?;
        if bytes.len() < Self::HEADER_LEN + value_len {
            return Err(StorageError::Corruption(format!(
                "record value truncated: {} < {}",
                bytes.len(),
                Self::HEADER_LEN + value_len
            )));
        }
        let value = bytes[Self::HEADER_LEN..Self::HEADER_LEN + value_len].to_vec();
        Ok(Record {
            prev,
            key,
            flags,
            value,
        })
    }

    /// True when this record marks a deletion.
    pub fn is_tombstone(&self) -> bool {
        self.flags.is_tombstone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let rec = Record::new(42, vec![1, 2, 3, 4, 5], Address::new(777));
        let bytes = rec.encode();
        assert_eq!(bytes.len(), rec.serialized_len());
        let decoded = Record::decode(&bytes).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn tombstone_roundtrip() {
        let rec = Record::tombstone(9, Address::INVALID);
        assert!(rec.is_tombstone());
        let decoded = Record::decode(&rec.encode()).unwrap();
        assert!(decoded.is_tombstone());
        assert!(decoded.value.is_empty());
        assert!(decoded.prev.is_invalid());
    }

    #[test]
    fn header_decode_matches_full_decode() {
        let rec = Record::new(1, vec![9; 100], Address::new(64));
        let bytes = rec.encode();
        let (prev, key, value_len, flags) = Record::decode_header(&bytes).unwrap();
        assert_eq!(prev, Address::new(64));
        assert_eq!(key, 1);
        assert_eq!(value_len, 100);
        assert!(!flags.is_tombstone());
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let rec = Record::new(1, vec![7; 10], Address::INVALID);
        let bytes = rec.encode();
        assert!(Record::decode(&bytes[..10]).is_err());
        assert!(Record::decode(&bytes[..Record::HEADER_LEN + 5]).is_err());
        assert!(Record::decode_header(&bytes[..8]).is_err());
    }

    #[test]
    fn zeroed_bytes_are_not_a_valid_record() {
        let zeros = vec![0u8; Record::HEADER_LEN];
        let (_, _, _, flags) = Record::decode_header(&zeros).unwrap();
        assert!(!flags.is_valid());
        let live = Record::new(0, Vec::new(), Address::INVALID);
        let (_, _, _, flags) = Record::decode_header(&live.encode()).unwrap();
        assert!(flags.is_valid());
    }

    #[test]
    fn len_for_value_matches_serialized_len() {
        let rec = Record::new(3, vec![0; 33], Address::INVALID);
        assert_eq!(Record::len_for_value(33), rec.serialized_len());
    }
}
