//! A read-only file mapping with an aligned in-memory fallback.
//!
//! On unix the snapshot file is `mmap`ed `PROT_READ`/`MAP_PRIVATE`: opening
//! costs O(1) regardless of size, untouched sections never become resident,
//! and N co-hosted shard processes mapping the same snapshot share one copy
//! of the page cache. Everywhere else (and when `mmap` itself fails) the
//! file is read into an 8-byte-aligned heap buffer — same validation, same
//! `Sect` views, just resident up front. The `mmap`/`munmap` calls live in
//! pit-sys ([`pit_sys::MappedRegion`]), the workspace's one FFI home.
//!
//! Snapshots are immutable by construction: the store writes into a staging
//! directory and renames whole snapshots into place, and replaces them the
//! same way — nothing truncates or rewrites a live file, which is what makes
//! handing out long-lived borrowed views of the mapping sound.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

enum Backing {
    #[cfg(unix)]
    Mmap(pit_sys::MappedRegion),
    /// The fallback: file bytes in a `Vec<u64>` so the base pointer is
    /// 8-byte aligned (the strictest element alignment the format stores).
    Heap { buf: Vec<u64>, len: usize },
}

/// A reference-counted, read-only view of a whole snapshot file.
pub struct Mapping {
    backing: Backing,
}

impl Mapping {
    /// Map (or read) the whole file at `path`.
    pub fn open(path: &Path) -> std::io::Result<Arc<Mapping>> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file exceeds address space",
            )
        })?;
        #[cfg(unix)]
        {
            // SAFETY: `len` is the file's own length, and snapshots are
            // immutable by construction (see the module docs): nothing
            // truncates or rewrites a live file while it is mapped.
            if let Some(region) = unsafe { pit_sys::MappedRegion::map_readonly(&file, len) } {
                return Ok(Arc::new(Mapping {
                    backing: Backing::Mmap(region),
                }));
            }
        }
        // Fallback: read into an 8-aligned buffer (also covers len == 0,
        // which mmap refuses).
        let words = len.div_ceil(8);
        let mut buf = vec![0u64; words];
        {
            // SAFETY-free view of the buffer as bytes for reading: done via
            // safe little-endian reassembly below instead of a cast — read
            // into a temporary and repack.
            let mut tmp = vec![0u8; len];
            file.read_exact(&mut tmp)?;
            for (i, chunk) in tmp.chunks(8).enumerate() {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                buf[i] = u64::from_ne_bytes(word);
            }
        }
        Ok(Arc::new(Mapping {
            backing: Backing::Heap { buf, len },
        }))
    }

    /// The file's bytes. The base pointer is at least 8-byte aligned.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mmap(region) => region.bytes(),
            Backing::Heap { buf, len } => heap_bytes(buf, *len),
        }
    }

    /// True when the bytes are served by a real file mapping (as opposed to
    /// the resident heap fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mmap(_) => true,
            Backing::Heap { .. } => false,
        }
    }

    /// Total bytes this mapping covers.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mmap(region) => region.bytes().len(),
            Backing::Heap { len, .. } => *len,
        }
    }

    /// True when the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// View the heap fallback's word buffer as its original bytes.
fn heap_bytes(buf: &[u64], len: usize) -> &[u8] {
    // SAFETY: `buf` is a live `&[u64]` allocation of at least `len` bytes
    // (len <= size_of_val(buf) by construction in `open`); u64 has no
    // padding, every byte of it is initialized, and u8 has alignment 1.
    unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), len.min(size_of_val(buf))) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("pit-store-map-{}-{name}", std::process::id()));
        std::fs::write(&p, bytes).unwrap();
        p
    }

    #[test]
    fn mapping_reads_back_the_file_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let p = tmp("roundtrip", &data);
        let m = Mapping::open(&p).unwrap();
        assert_eq!(m.bytes(), &data[..]);
        assert_eq!(m.len(), data.len());
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn empty_file_maps_to_empty_bytes() {
        let p = tmp("empty", b"");
        let m = Mapping::open(&p).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.bytes(), b"");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn base_pointer_is_at_least_8_aligned() {
        let p = tmp("align", &[7u8; 123]);
        let m = Mapping::open(&p).unwrap();
        assert_eq!(m.bytes().as_ptr() as usize % 8, 0);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(Mapping::open(Path::new("/no/such/pit-store-file")).is_err());
    }
}
