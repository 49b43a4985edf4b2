//! # pit-store
//!
//! The flat snapshot container for PIT-Search: a single sectioned,
//! checksummed, alignment-validated file that the engine's big per-node
//! arrays (CSR adjacency, walk tables, Γ propagation indexes) can be viewed
//! from **without copying** — `load_engine` becomes O(validate) instead of
//! O(copy), and N co-hosted shards share the page cache for their common
//! sections.
//!
//! Three layers, bottom up:
//!
//! * [`Mapping`] — a read-only file mapping (`mmap` on unix, an aligned
//!   read-into-memory fallback elsewhere), reference-counted so borrowed
//!   views keep the bytes alive.
//! * [`Sect`] — a typed array that is either `Owned(Vec<T>)` (built in
//!   memory or deep-copied from disk) or `Mapped` (a borrowed window of a
//!   [`Mapping`]). Derefs to `&[T]` either way, so index structures store
//!   `Sect<T>` fields and the rest of the workspace keeps slicing.
//! * [`FlatFile`] / [`FlatWriter`] — the container format: a fixed header,
//!   a checksummed section table (kind, element type, offset, count,
//!   checksum per entry; payload 16-byte aligned, little-endian), and
//!   validation split into two tiers — *structural* (O(sections): header,
//!   table checksum, bounds, alignment, overlap) at open, and *payload
//!   checksums* (one zero-copy FNV pass over every section) on demand.
//!
//! What goes **in** the sections is the caller's business: the root `pit`
//! crate composes the engine snapshot out of typed arrays (via [`Pod`]) and
//! opaque blobs (the topic-space, vocabulary and representative-index
//! codecs, which parse their bytes through this crate's [`ByteReader`] like
//! the container does its own). Every corruption — truncation, bit flip,
//! misaligned offset, overlapping or out-of-order table entries, a wrong
//! checksum — surfaces as a typed [`FlatError`], never a panic.

#![deny(unsafe_op_in_unsafe_fn)]
// Lengths here come off the wire or the disk: arithmetic is checked, or
// carries an `#[expect]` naming its bound (DESIGN.md §10).
#![deny(clippy::arithmetic_side_effects)]

pub mod error;
pub mod flat;
pub mod mmap;
pub mod pod;
pub mod reader;
pub mod sect;
pub mod sum;

pub use error::FlatError;
pub use flat::{FlatFile, FlatWriter, SectionInfo, FLAT_MAGIC, FLAT_VERSION, MAX_SECTIONS};
pub use mmap::Mapping;
pub use pod::{ElemType, Pod};
pub use reader::ByteReader;
pub use sect::Sect;
pub use sum::fnv64_words;
