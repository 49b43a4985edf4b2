//! The flat container: header + checksummed section table + aligned
//! little-endian payloads.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   header, 32 bytes:
//!              magic           [u8; 4]   "PITF"
//!              version         u16
//!              section_count   u16
//!              file_len        u64       total bytes, must equal the file
//!              table_checksum  u64       fnv64_words over the table bytes
//!              reserved        u64       zero
//! offset 32  section table, 32 bytes per entry:
//!              kind            u16       caller-defined section id (0 reserved)
//!              elem            u8        ElemType code
//!              reserved        u8        zero
//!              reserved        u32       zero
//!              offset          u64       payload start, 16-byte aligned
//!              count           u64       element count (bytes for blobs)
//!              checksum        u64       fnv64_words over the payload bytes
//! then       payloads, each padded to a 16-byte boundary, sorted by offset
//! ```
//!
//! Validation is two-tier. [`FlatFile::open`] does the *structural* tier in
//! O(sections): magic, version, counts, recorded-vs-actual length, the table
//! checksum (so a flipped bit in any table entry is caught even when payload
//! checksums are skipped), and per-entry element-code / alignment /
//! bounds / order / overlap / duplicate checks. [`FlatFile::verify_checksums`]
//! is the *payload* tier: one zero-copy FNV pass per section. Inter-section
//! padding and any trailing bytes are outside every checksum — loaders that
//! skip `verify_checksums` trade bit-flip detection in payloads for O(1)
//! opens, which is exactly the RELOAD fast path's bargain.

use crate::error::FlatError;
use crate::mmap::Mapping;
use crate::pod::{ElemType, Pod};
use crate::reader::ByteReader;
use crate::sect::Sect;
use crate::sum::fnv64_words;
use std::path::Path;
use std::sync::Arc;

/// First four bytes of every flat snapshot.
pub const FLAT_MAGIC: [u8; 4] = *b"PITF";
/// The container version this build writes and reads.
pub const FLAT_VERSION: u16 = 1;
/// Upper bound on table entries — far above the engine's ~21 sections, low
/// enough that a corrupt count can't make `open` do size-proportional work.
pub const MAX_SECTIONS: usize = 64;

const HEADER_LEN: usize = 32;
const ENTRY_LEN: usize = 32;
const ALIGN: usize = 16;

/// A validated section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    pub kind: u16,
    pub elem: ElemType,
    /// Payload start in bytes from the file head.
    pub offset: usize,
    /// Element count (`elem.size()`-sized elements; bytes for blobs).
    pub count: usize,
    /// Payload length in bytes (`count * elem.size()`).
    pub byte_len: usize,
    /// `fnv64_words` over the payload bytes.
    pub checksum: u64,
}

/// Builds a flat container in memory, then writes it in one shot.
///
/// Sections are laid out in push order; the caller owns kind assignment.
/// Arrays are encoded element-by-element through [`Pod::put_le`], so the
/// writer is byte-identical across host endianness.
#[derive(Default)]
pub struct FlatWriter {
    sections: Vec<(u16, ElemType, Vec<u8>, u64)>,
}

impl FlatWriter {
    pub fn new() -> Self {
        FlatWriter::default()
    }

    /// Append a typed array section.
    pub fn push_array<T: Pod>(&mut self, kind: u16, data: &[T]) {
        let mut bytes = Vec::with_capacity(data.len().saturating_mul(std::mem::size_of::<T>()));
        for &x in data {
            x.put_le(&mut bytes);
        }
        self.sections
            .push((kind, T::ELEM, bytes, data.len() as u64));
    }

    /// Append an opaque blob section (decoded by its own codec).
    pub fn push_blob(&mut self, kind: u16, bytes: &[u8]) {
        let count = bytes.len() as u64;
        self.sections
            .push((kind, ElemType::U8, bytes.to_vec(), count));
    }

    /// Assemble the container bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, FlatError> {
        if self.sections.len() > MAX_SECTIONS {
            return Err(FlatError::LimitExceeded {
                what: format!("section count {}", self.sections.len()),
            });
        }
        for (i, (kind, ..)) in self.sections.iter().enumerate() {
            if self.sections[..i].iter().any(|(k, ..)| k == kind) {
                return Err(FlatError::DuplicateSection { kind: *kind });
            }
        }

        let table_len =
            self.sections
                .len()
                .checked_mul(ENTRY_LEN)
                .ok_or_else(|| FlatError::LimitExceeded {
                    what: "section table size".to_string(),
                })?;
        // HEADER_LEN and ENTRY_LEN are both multiples of ALIGN, so the
        // first payload needs no leading pad.
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "the section count was checked against MAX_SECTIONS above, so this is at \
                      most 32 + 64 * 32"
        )]
        let mut offset = HEADER_LEN + table_len;
        let mut entries = Vec::with_capacity(self.sections.len());
        for (kind, elem, bytes, count) in &self.sections {
            entries.push((*kind, *elem, offset as u64, *count, fnv64_words(bytes)));
            offset = offset
                .checked_add(bytes.len())
                .and_then(|o| o.checked_next_multiple_of(ALIGN))
                .ok_or_else(|| FlatError::LimitExceeded {
                    what: "container size".to_string(),
                })?;
        }
        // The file ends at the last payload's padded boundary, so file_len
        // is itself ALIGN-aligned (or header+table for an empty container).
        let file_len = offset;

        let mut table = Vec::with_capacity(table_len);
        for (kind, elem, off, count, sum) in &entries {
            table.extend_from_slice(&kind.to_le_bytes());
            table.push(*elem as u8);
            table.push(0);
            table.extend_from_slice(&0u32.to_le_bytes());
            table.extend_from_slice(&off.to_le_bytes());
            table.extend_from_slice(&count.to_le_bytes());
            table.extend_from_slice(&sum.to_le_bytes());
        }

        let mut out = Vec::with_capacity(file_len);
        out.extend_from_slice(&FLAT_MAGIC);
        out.extend_from_slice(&FLAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u16).to_le_bytes());
        out.extend_from_slice(&(file_len as u64).to_le_bytes());
        out.extend_from_slice(&fnv64_words(&table).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&table);
        for ((_, _, bytes, _), (_, _, off, _, _)) in self.sections.iter().zip(&entries) {
            out.resize(*off as usize, 0);
            out.extend_from_slice(bytes);
        }
        out.resize(file_len, 0);
        Ok(out)
    }

    /// Assemble and write the container to `path` (no fsync/rename — the
    /// caller's staged-commit protocol handles durability and atomicity).
    pub fn write_to(&self, path: &Path) -> Result<(), FlatError> {
        let bytes = self.to_bytes()?;
        std::fs::write(path, bytes)?;
        Ok(())
    }
}

/// A structurally validated view of a flat container file.
pub struct FlatFile {
    map: Arc<Mapping>,
    sections: Vec<SectionInfo>,
}

impl std::fmt::Debug for FlatFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatFile")
            .field("len", &self.map.len())
            .field("mapped", &self.map.is_mapped())
            .field("sections", &self.sections)
            .finish()
    }
}

impl FlatFile {
    /// Map the file and run the structural tier: O(sections) work, no pass
    /// over payload bytes.
    pub fn open(path: &Path) -> Result<FlatFile, FlatError> {
        let map = Mapping::open(path)?;
        FlatFile::from_mapping(map)
    }

    fn from_mapping(map: Arc<Mapping>) -> Result<FlatFile, FlatError> {
        let bytes = map.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(FlatError::Truncated {
                what: "header".to_string(),
            });
        }
        let mut hdr = ByteReader::new(bytes, "header");
        let magic = hdr.take(4)?;
        if magic != FLAT_MAGIC {
            return Err(FlatError::BadMagic);
        }
        let version = hdr.read_u16()?;
        if version != FLAT_VERSION {
            return Err(FlatError::UnsupportedVersion {
                found: version,
                supported: FLAT_VERSION,
            });
        }
        let section_count = hdr.read_u16()? as usize;
        if section_count > MAX_SECTIONS {
            return Err(FlatError::LimitExceeded {
                what: format!("section count {section_count}"),
            });
        }
        let file_len = hdr.read_u64()?;
        if file_len != bytes.len() as u64 {
            return Err(FlatError::LengthMismatch {
                recorded: file_len,
                actual: bytes.len() as u64,
            });
        }
        let table_checksum = hdr.read_u64()?;

        #[expect(
            clippy::arithmetic_side_effects,
            reason = "section_count was checked against MAX_SECTIONS above, so this is at most \
                      32 + 64 * 32"
        )]
        let table_end = HEADER_LEN + section_count * ENTRY_LEN;
        if bytes.len() < table_end {
            return Err(FlatError::Truncated {
                what: "section table".to_string(),
            });
        }
        let table = &bytes[HEADER_LEN..table_end];
        if fnv64_words(table) != table_checksum {
            return Err(FlatError::ChecksumMismatch {
                what: "section table".to_string(),
            });
        }

        let mut sections = Vec::with_capacity(section_count);
        // The previous entry's kind and payload end.
        let mut prev: Option<(u16, usize, usize)> = None;
        let mut rd = ByteReader::new(table, "section table");
        for _ in 0..section_count {
            let kind = rd.read_u16()?;
            let elem_code = rd.read_u8()?;
            let _reserved8 = rd.read_u8()?;
            let _reserved32 = rd.read_u32()?;
            let offset = rd.read_len()?;
            let count = rd.read_len()?;
            let checksum = rd.read_u64()?;

            let elem = ElemType::from_code(elem_code).ok_or(FlatError::BadElemType {
                kind,
                code: elem_code,
            })?;
            if offset % ALIGN != 0 {
                return Err(FlatError::Misaligned {
                    kind,
                    offset: offset as u64,
                });
            }
            let byte_len =
                count
                    .checked_mul(elem.size())
                    .ok_or_else(|| FlatError::LimitExceeded {
                        what: format!("section {kind} byte length"),
                    })?;
            let end = offset
                .checked_add(byte_len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| FlatError::Truncated {
                    what: format!("section {kind} payload"),
                })?;
            if offset < table_end {
                // kind 0 stands for the header/table region itself.
                return Err(FlatError::Overlap { kind, prev_kind: 0 });
            }
            if let Some((prev_kind, prev_offset, prev_end)) = prev {
                if offset < prev_offset {
                    return Err(FlatError::OutOfOrder { kind });
                }
                if offset < prev_end {
                    return Err(FlatError::Overlap { kind, prev_kind });
                }
            }
            if sections.iter().any(|s: &SectionInfo| s.kind == kind) {
                return Err(FlatError::DuplicateSection { kind });
            }
            sections.push(SectionInfo {
                kind,
                elem,
                offset,
                count,
                byte_len,
                checksum,
            });
            prev = Some((kind, offset, end));
        }

        Ok(FlatFile { map, sections })
    }

    /// The payload tier: one zero-copy FNV pass over every section's bytes.
    pub fn verify_checksums(&self) -> Result<(), FlatError> {
        for s in &self.sections {
            if fnv64_words(self.payload(s)) != s.checksum {
                return Err(FlatError::ChecksumMismatch {
                    what: format!("section {}", s.kind),
                });
            }
        }
        Ok(())
    }

    /// All validated table entries, in table order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Table entry for `kind`, if present.
    pub fn section(&self, kind: u16) -> Option<&SectionInfo> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// Whether the table has a section of `kind`.
    pub fn has(&self, kind: u16) -> bool {
        self.section(kind).is_some()
    }

    /// The underlying mapping (for accounting: `is_mapped`, total length).
    pub fn mapping(&self) -> &Arc<Mapping> {
        &self.map
    }

    /// Raw payload bytes of `kind` (blob sections; any element type).
    pub fn bytes_of(&self, kind: u16) -> Result<&[u8], FlatError> {
        let s = self.require(kind)?;
        Ok(self.payload(s))
    }

    /// The payload bytes of a validated entry (`open` checked that they lie
    /// inside the file).
    fn payload(&self, s: &SectionInfo) -> &[u8] {
        &self.map.bytes()[s.offset..][..s.byte_len]
    }

    /// A zero-copy typed view of section `kind`.
    ///
    /// On little-endian targets this borrows the mapping directly; on
    /// big-endian targets it falls back to an owned element-by-element
    /// decode, so callers see the same values either way.
    pub fn array<T: Pod>(&self, kind: u16) -> Result<Sect<T>, FlatError> {
        let s = *self.require(kind)?;
        if s.elem != T::ELEM {
            return Err(FlatError::WrongElemType {
                kind,
                want: T::NAME,
            });
        }
        if cfg!(target_endian = "little") {
            Ok(Sect::Mapped {
                map: self.map.clone(),
                offset: s.offset,
                len: s.count,
            })
        } else {
            Ok(Sect::Owned(self.array_owned_info(&s)))
        }
    }

    /// An owned copy of section `kind`, decoded element by element (the
    /// deep-validation loader's path; endianness-independent).
    pub fn array_owned<T: Pod>(&self, kind: u16) -> Result<Vec<T>, FlatError> {
        let s = *self.require(kind)?;
        if s.elem != T::ELEM {
            return Err(FlatError::WrongElemType {
                kind,
                want: T::NAME,
            });
        }
        Ok(self.array_owned_info(&s))
    }

    fn array_owned_info<T: Pod>(&self, s: &SectionInfo) -> Vec<T> {
        self.payload(s)
            .chunks_exact(std::mem::size_of::<T>())
            .map(T::from_le)
            .collect()
    }

    fn require(&self, kind: u16) -> Result<&SectionInfo, FlatError> {
        self.section(kind).ok_or(FlatError::MissingSection { kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("pit-store-flat-{}-{name}", std::process::id()));
        std::fs::write(&p, bytes).unwrap();
        p
    }

    fn sample() -> FlatWriter {
        let mut w = FlatWriter::new();
        w.push_array::<u32>(2, &[1, 2, 3, 4, 5]);
        w.push_array::<f64>(3, &[0.5, -1.25, f64::NAN]);
        w.push_blob(7, b"topic blob payload");
        w.push_array::<u64>(9, &[]);
        w
    }

    fn open_bytes(name: &str, bytes: &[u8]) -> Result<FlatFile, FlatError> {
        let p = tmp(name, bytes);
        let r = FlatFile::open(&p);
        let _ = std::fs::remove_file(&p);
        r
    }

    #[test]
    fn roundtrip_arrays_and_blobs() {
        let bytes = sample().to_bytes().unwrap();
        let f = open_bytes("roundtrip", &bytes).unwrap();
        f.verify_checksums().unwrap();
        assert_eq!(&f.array::<u32>(2).unwrap()[..], &[1, 2, 3, 4, 5]);
        let d = f.array::<f64>(3).unwrap();
        assert_eq!(d[0], 0.5);
        assert!(d[2].is_nan());
        assert_eq!(f.bytes_of(7).unwrap(), b"topic blob payload");
        assert_eq!(f.array::<u64>(9).unwrap().len(), 0);
        assert!(f.has(7));
        assert!(!f.has(100));
        assert_eq!(f.array_owned::<u32>(2).unwrap(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn mapped_views_borrow_on_little_endian() {
        let bytes = sample().to_bytes().unwrap();
        let p = tmp("mapped", &bytes);
        let f = FlatFile::open(&p).unwrap();
        let a = f.array::<u32>(2).unwrap();
        if cfg!(target_endian = "little") && f.mapping().is_mapped() {
            assert!(a.is_mapped());
            assert_eq!(a.mapped_bytes(), 20);
        }
        // The view stays alive after the FlatFile is gone (Arc-held map).
        drop(f);
        assert_eq!(&a[..], &[1, 2, 3, 4, 5]);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[0] = b'X';
        assert_eq!(open_bytes("magic", &bytes).err(), Some(FlatError::BadMagic));

        let mut bytes = sample().to_bytes().unwrap();
        bytes[4] = 99;
        match open_bytes("version", &bytes) {
            Err(FlatError::UnsupportedVersion { found: 99, .. }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_at_every_boundary() {
        let bytes = sample().to_bytes().unwrap();
        for cut in [0, 3, 16, 33, 100, bytes.len() - 1] {
            let r = open_bytes("trunc", &bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must not open");
        }
    }

    #[test]
    fn table_bit_flip_is_caught_structurally() {
        let bytes = sample().to_bytes().unwrap();
        // Flip one bit in the second entry's offset field.
        let mut b = bytes.clone();
        b[HEADER_LEN + ENTRY_LEN + 8] ^= 1;
        assert!(open_bytes("tableflip", &b).is_err());
    }

    #[test]
    fn payload_bit_flip_passes_open_but_fails_verify() {
        let mut bytes = sample().to_bytes().unwrap();
        let clean = open_bytes("payflip-clean", &bytes).unwrap();
        let off = clean.section(2).unwrap().offset;
        drop(clean);
        bytes[off] ^= 1;
        // Structural open doesn't touch payload bytes — the flip slips by...
        let f = open_bytes("payflip", &bytes).unwrap();
        // ...but the checksum tier pins it to the section.
        assert_eq!(
            f.verify_checksums().err(),
            Some(FlatError::ChecksumMismatch {
                what: "section 2".to_string()
            })
        );
    }

    #[test]
    fn wrong_and_missing_elem_types_are_typed() {
        let bytes = sample().to_bytes().unwrap();
        let f = open_bytes("elem", &bytes).unwrap();
        assert!(matches!(
            f.array::<f32>(2),
            Err(FlatError::WrongElemType { kind: 2, .. })
        ));
        assert!(matches!(
            f.array::<u32>(55),
            Err(FlatError::MissingSection { kind: 55 })
        ));
    }

    #[test]
    fn writer_rejects_duplicates_and_overflow_counts() {
        let mut w = FlatWriter::new();
        w.push_array::<u32>(1, &[1]);
        w.push_array::<u32>(1, &[2]);
        assert!(matches!(
            w.to_bytes(),
            Err(FlatError::DuplicateSection { kind: 1 })
        ));

        let mut w = FlatWriter::new();
        for k in 0..(MAX_SECTIONS as u16 + 1) {
            w.push_array::<u32>(k + 1, &[]);
        }
        assert!(matches!(w.to_bytes(), Err(FlatError::LimitExceeded { .. })));
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = FlatWriter::new().to_bytes().unwrap();
        let f = open_bytes("empty", &bytes).unwrap();
        assert!(f.sections().is_empty());
        f.verify_checksums().unwrap();
    }
}
