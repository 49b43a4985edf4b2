//! The portable unix backend: `poll(2)` over an array the poller keeps,
//! with a self-pipe (a nonblocking `UnixStream` pair) as the waker.
//!
//! Each wait hands the kernel the whole array, so a wait costs O(registered
//! fds) where `epoll` costs O(ready fds). It serves the platforms without
//! `epoll`; on Linux it is compiled for its tests, which run the same suite
//! as the `epoll` backend.

use crate::poll::{reserved_token, timeout_ms, Event, Interest, Waker, WAKE_TOKEN};
use std::collections::HashMap;
use std::ffi::{c_int, c_short};
use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// A level-triggered readiness wait over registered fds, interruptible by
/// its [`Waker`].
pub struct Poller {
    /// Entry 0 is the self-pipe's read end; entry `i > 0` is reported under
    /// `tokens[i]`.
    fds: Vec<PollFd>,
    tokens: Vec<usize>,
    /// Where each registered fd sits in `fds`.
    slots: HashMap<RawFd, usize>,
    /// The self-pipe's read end, drained whenever it is reported.
    wake_rx: UnixStream,
    /// The self-pipe's write end, shared with every [`Waker`].
    wake_tx: Arc<File>,
}

fn bits(interest: Interest) -> c_short {
    let mut bits = 0;
    if interest.read {
        bits |= POLLIN;
    }
    if interest.write {
        bits |= POLLOUT;
    }
    bits
}

fn not_registered() -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, "fd is not registered")
}

impl Poller {
    /// A fresh poller with its self-pipe.
    ///
    /// # Errors
    /// The socketpair failure (fd exhaustion).
    pub fn new() -> io::Result<Poller> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let fds = vec![PollFd {
            fd: wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        Ok(Poller {
            fds,
            tokens: vec![WAKE_TOKEN],
            slots: HashMap::new(),
            wake_rx,
            wake_tx: Arc::new(File::from(OwnedFd::from(wake_tx))),
        })
    }

    /// A handle that interrupts this poller's wait from any thread.
    pub fn waker(&self) -> Waker {
        Waker::new(Arc::clone(&self.wake_tx))
    }

    /// Start waiting on `fd` for `interest`, reported under `token`.
    ///
    /// # Errors
    /// `usize::MAX` as the token (reserved), or an fd already registered.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(reserved_token());
        }
        if self.slots.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd is already registered",
            ));
        }
        self.slots.insert(fd, self.fds.len());
        self.fds.push(PollFd {
            fd,
            events: bits(interest),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    /// Change a registered fd's token or interest.
    ///
    /// # Errors
    /// As [`Poller::register`]; also an fd that is not registered.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(reserved_token());
        }
        let slot = *self.slots.get(&fd).ok_or_else(not_registered)?;
        self.fds[slot].events = bits(interest);
        self.tokens[slot] = token;
        Ok(())
    }

    /// Stop waiting on `fd`. Do it before closing the fd.
    ///
    /// # Errors
    /// An fd that is not registered.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let slot = self.slots.remove(&fd).ok_or_else(not_registered)?;
        self.fds.swap_remove(slot);
        self.tokens.swap_remove(slot);
        if let Some(moved) = self.fds.get(slot) {
            self.slots.insert(moved.fd, slot);
        }
        Ok(())
    }

    /// Block until a registered fd is ready, the waker fires, or `timeout`
    /// passes (`None`: no timeout). `events` is cleared, then filled with
    /// the ready fds. Returns whether the waker fired; the wake is consumed.
    /// A signal interrupting the wait is an early, empty return.
    ///
    /// # Errors
    /// The `poll` failure other than `EINTR`.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<bool> {
        events.clear();
        let nfds = Nfds::try_from(self.fds.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many fds to poll"))?;
        // SAFETY: `fds` is a live, initialized array of `nfds` `pollfd`s;
        // the kernel reads `fd`/`events` and writes only `revents` within it.
        let rc = unsafe { poll(self.fds.as_mut_ptr(), nfds, timeout_ms(timeout)) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(false);
            }
            return Err(err);
        }
        let mut woken = false;
        for (entry, &token) in self.fds.iter().zip(&self.tokens) {
            let ready = entry.revents;
            if ready == 0 {
                continue;
            }
            if token == WAKE_TOKEN {
                woken = true;
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                continue;
            }
            let trouble = ready & (POLLERR | POLLHUP | POLLNVAL) != 0;
            events.push(Event {
                token,
                readable: ready & POLLIN != 0 || trouble,
                writable: ready & POLLOUT != 0 || trouble,
            });
        }
        Ok(woken)
    }
}
