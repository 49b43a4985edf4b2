//! A read-only, private `mmap` of a file, owned and unmapped on drop.

use std::ffi::c_void;
use std::fs::File;
use std::os::fd::AsRawFd;
use std::ptr::NonNull;

// Constants are identical on Linux and the BSD family for these two flags.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

const PROT_READ: i32 = 1;
const MAP_PRIVATE: i32 = 2;

/// `len` readable bytes of a file, mapped `PROT_READ`/`MAP_PRIVATE` at a
/// page-aligned base and unmapped exactly once, on drop.
pub struct MappedRegion {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the mapping is read-only (`PROT_READ`) and the caller of
// `map_readonly` guarantees the file is not modified while it is mapped,
// so concurrent reads from any thread observe the same frozen bytes.
unsafe impl Send for MappedRegion {}
// SAFETY: see `Send` — shared references only ever read immutable bytes.
unsafe impl Sync for MappedRegion {}

impl MappedRegion {
    /// Map the first `len` bytes of `file`. `None` when `len` is zero (which
    /// `mmap` refuses) or the mapping fails; the caller falls back to
    /// reading the file.
    ///
    /// # Safety
    /// `file` must be at least `len` bytes long, and it must be neither
    /// truncated nor written for as long as the region (or any borrow of
    /// [`MappedRegion::bytes`]) lives: a shrunk file turns a read of the
    /// region into `SIGBUS`, and a written one changes bytes under a shared
    /// borrow.
    pub unsafe fn map_readonly(file: &File, len: usize) -> Option<MappedRegion> {
        if len == 0 {
            return None;
        }
        // SAFETY: fd is a live, readable file descriptor; len > 0; a
        // MAP_PRIVATE/PROT_READ mapping of a regular file has no aliasing
        // obligations. MAP_FAILED (-1) is checked before use.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return None;
        }
        Some(MappedRegion {
            ptr: NonNull::new(ptr.cast())?,
            len,
        })
    }

    /// The mapped bytes. The base is page-aligned.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is the live `mmap` base covering `len` readable
        // bytes; the region stays mapped until `Drop`, the file stays intact
        // per `map_readonly`'s contract, and the borrow cannot outlive
        // `self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for MappedRegion {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` describe exactly the region `mmap` returned in
        // `map_readonly`, unmapped exactly once, and no `bytes()` borrow can
        // outlive `self`.
        unsafe {
            munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_region_reads_back_the_file_page_aligned() {
        let path = std::env::temp_dir().join(format!("pit-sys-map-{}", std::process::id()));
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &data).unwrap();
        let file = File::open(&path).unwrap();
        // SAFETY: the test owns the file and neither truncates nor writes it
        // while mapped.
        let region = unsafe { MappedRegion::map_readonly(&file, data.len()) }.unwrap();
        assert_eq!(region.bytes(), &data[..]);
        assert_eq!(region.bytes().as_ptr() as usize % 4096, 0);
        drop(region);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_length_maps_nothing() {
        let file = File::open("/dev/null").unwrap();
        // SAFETY: nothing is mapped for a zero length.
        assert!(unsafe { MappedRegion::map_readonly(&file, 0) }.is_none());
    }
}
