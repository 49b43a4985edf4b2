//! Bounds-checked sequential reads over a byte region.
//!
//! Every multi-byte field the store parses — header fields, table entries,
//! the META blob's config scalars — goes through this reader, so a
//! truncated or lying length can only ever surface as a typed
//! [`FlatError::Truncated`], never an out-of-bounds slice panic.

use crate::error::FlatError;

/// A cursor over `bytes` whose every read is bounds-checked.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Region name used in `Truncated` errors ("header", "meta", ...).
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        ByteReader {
            bytes,
            pos: 0,
            what,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Current cursor position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FlatError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let out = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(self.truncated()),
        }
    }

    pub fn read_u8(&mut self) -> Result<u8, FlatError> {
        Ok(self.take(1)?[0])
    }

    pub fn read_u16(&mut self) -> Result<u16, FlatError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn read_u32(&mut self) -> Result<u32, FlatError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn read_u64(&mut self) -> Result<u64, FlatError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    pub fn read_f64(&mut self) -> Result<f64, FlatError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// A `u64` that must fit in `usize` (offsets, counts on this machine).
    pub fn read_len(&mut self) -> Result<usize, FlatError> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| FlatError::LimitExceeded {
            what: format!("{} length {v}", self.what),
        })
    }

    /// Check that `count` elements of at least `min_size` bytes each can
    /// still follow — the guard to run on a count read from the bytes
    /// before allocating or looping in proportion to it.
    pub fn check_count(&self, count: usize, min_size: usize) -> Result<(), FlatError> {
        match count.checked_mul(min_size) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(self.truncated()),
        }
    }

    fn truncated(&self) -> FlatError {
        FlatError::Truncated {
            what: format!("{} (at byte {})", self.what, self.pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_sequential_and_little_endian() {
        let bytes = [0x01, 0x02, 0x00, 0x03, 0x00, 0x00, 0x00];
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.read_u8().unwrap(), 1);
        assert_eq!(r.read_u16().unwrap(), 2);
        assert_eq!(r.read_u32().unwrap(), 3);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn overrun_is_a_typed_truncation() {
        let mut r = ByteReader::new(&[0u8; 3], "meta");
        match r.read_u32() {
            Err(FlatError::Truncated { what }) => assert!(what.contains("meta")),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn a_count_the_payload_cannot_hold_is_a_typed_truncation() {
        let r = ByteReader::new(&[0u8; 40], "reps");
        assert!(r.check_count(10, 4).is_ok());
        assert!(r.check_count(11, 4).is_err());
        assert!(r.check_count(u32::MAX as usize, 12).is_err());
        assert!(r.check_count(usize::MAX, 2).is_err());
    }

    #[test]
    fn take_never_wraps_on_huge_n() {
        let mut r = ByteReader::new(&[0u8; 4], "hdr");
        assert!(r.take(usize::MAX).is_err());
        // Cursor unchanged after a failed read.
        assert_eq!(r.take(4).unwrap(), &[0u8; 4]);
    }
}
