//! # pit-sys
//!
//! The workspace's one audited FFI home. Every `extern "C"` block lives in
//! this crate, behind safe owned types, so the crates above it can stay
//! `#![forbid(unsafe_code)]` (pit-server) or keep their `unsafe` to plain
//! memory reinterpretation (pit-store's `Pod` views). There is no `libc`
//! dependency: std already links the C library on unix, so each module
//! declares exactly the symbols and constants it calls.
//!
//! * [`MappedRegion`] — a read-only, private `mmap` of a whole file,
//!   unmapped on drop. pit-store's snapshot `Mapping` is built on it.
//! * [`Poller`] + [`Waker`] — a level-triggered readiness wait over
//!   sockets, interruptible from any thread. On Linux it is `epoll` with an
//!   `eventfd` waker; on other unix it is `poll(2)` with a self-pipe (a
//!   nonblocking `UnixStream` pair). pit-server's event loop blocks in
//!   [`Poller::wait`] instead of sleeping.
//!
//! Both poller backends share one interface and one test suite; on Linux
//! the tests run the suite against each, so CI exercises the `poll(2)`
//! path that only non-Linux targets serve with.
//!
//! The constant values declared here are the generic Linux ABI (x86, arm,
//! riscv, …) and, for `poll(2)` and `mmap`, the values Linux and the BSD
//! family share.

#![deny(unsafe_op_in_unsafe_fn)]
// Serving code does not panic (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

#[cfg(unix)]
mod mmap;
#[cfg(unix)]
mod poll;

#[cfg(target_os = "linux")]
mod epoll;
// Serves non-Linux unix; on Linux it is compiled for its tests only.
#[cfg(all(unix, any(not(target_os = "linux"), test)))]
mod pollfd;

#[cfg(unix)]
pub use mmap::MappedRegion;
#[cfg(unix)]
pub use poll::{Event, Interest, Waker};

/// The platform's readiness poller: `epoll` on Linux.
#[cfg(target_os = "linux")]
pub use epoll::Poller;
/// The platform's readiness poller: `poll(2)` off Linux.
#[cfg(all(unix, not(target_os = "linux")))]
pub use pollfd::Poller;
