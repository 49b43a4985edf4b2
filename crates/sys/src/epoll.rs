//! The Linux backend: one `epoll` instance per poller, level-triggered,
//! with an `eventfd` as the waker.

use crate::poll::{reserved_token, timeout_ms, Event, Interest, Waker, WAKE_TOKEN};
use std::ffi::{c_int, c_uint};
use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// `struct epoll_event`. The kernel declares it packed on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// `O_CLOEXEC`, which `EPOLL_CLOEXEC` and `EFD_CLOEXEC` alias.
const O_CLOEXEC: c_int = 0o2_000_000;
/// `O_NONBLOCK`, which `EFD_NONBLOCK` aliases.
const O_NONBLOCK: c_int = 0o4_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;

/// Reports returned by one `epoll_wait`; more ready fds are simply
/// reported by the next wait (the set is level-triggered).
const MAX_EVENTS: usize = 256;

/// A level-triggered readiness wait over registered fds, interruptible by
/// its [`Waker`].
pub struct Poller {
    epfd: OwnedFd,
    /// The `eventfd`: read here to reset it, written by every [`Waker`].
    wake: Arc<File>,
    /// Where `epoll_wait` writes its reports; always `MAX_EVENTS` long.
    reports: Vec<EpollEvent>,
}

/// Own a descriptor a syscall just returned, or surface its `errno`.
fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is non-negative, so it is the fresh descriptor the
    // syscall just created; nothing else owns it, and `OwnedFd` closes it
    // exactly once.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

fn bits(interest: Interest) -> u32 {
    let mut bits = 0;
    if interest.read {
        bits |= EPOLLIN;
    }
    if interest.write {
        bits |= EPOLLOUT;
    }
    bits
}

impl Poller {
    /// A fresh epoll instance with its eventfd registered.
    ///
    /// # Errors
    /// The `epoll_create1`, `eventfd` or `epoll_ctl` failure (fd exhaustion).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: takes no pointers; the result is checked by `owned`.
        let epfd = owned(unsafe { epoll_create1(O_CLOEXEC) })?;
        // SAFETY: takes no pointers; the result is checked by `owned`.
        let efd = owned(unsafe { eventfd(0, O_CLOEXEC | O_NONBLOCK) })?;
        let poller = Poller {
            epfd,
            wake: Arc::new(File::from(efd)),
            reports: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
        };
        poller.ctl(EPOLL_CTL_ADD, poller.wake.as_raw_fd(), WAKE_TOKEN, EPOLLIN)?;
        Ok(poller)
    }

    /// A handle that interrupts this poller's wait from any thread.
    pub fn waker(&self) -> Waker {
        Waker::new(Arc::clone(&self.wake))
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: usize, events: u32) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token as u64,
        };
        // SAFETY: `event` is a live, initialized `epoll_event` for the whole
        // call and the kernel only reads it (a non-null pointer even for
        // DEL, which pre-2.6.9 kernels require). Any `fd` value is memory
        // safe: a bad one is EBADF.
        let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start waiting on `fd` for `interest`, reported under `token`.
    ///
    /// # Errors
    /// `usize::MAX` as the token (reserved), or the `epoll_ctl` failure.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(reserved_token());
        }
        self.ctl(EPOLL_CTL_ADD, fd, token, bits(interest))
    }

    /// Change a registered fd's token or interest.
    ///
    /// # Errors
    /// As [`Poller::register`]; also an fd that is not registered.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(reserved_token());
        }
        self.ctl(EPOLL_CTL_MOD, fd, token, bits(interest))
    }

    /// Stop waiting on `fd`. Do it before closing the fd.
    ///
    /// # Errors
    /// An fd that is not registered.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until a registered fd is ready, the waker fires, or `timeout`
    /// passes (`None`: no timeout). `events` is cleared, then filled with
    /// the ready fds. Returns whether the waker fired; the wake is consumed.
    /// A signal interrupting the wait is an early, empty return.
    ///
    /// # Errors
    /// The `epoll_wait` failure other than `EINTR`.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<bool> {
        events.clear();
        // SAFETY: `reports` is a live, initialized buffer of `MAX_EVENTS`
        // entries and the kernel writes at most `maxevents` of them.
        let n = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.reports.as_mut_ptr(),
                MAX_EVENTS as c_int,
                timeout_ms(timeout),
            )
        };
        let Ok(n) = usize::try_from(n) else {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(false);
            }
            return Err(err);
        };
        let mut woken = false;
        for report in &self.reports[..n.min(MAX_EVENTS)] {
            // Copied out: fields of a packed struct cannot be borrowed.
            let (ready, data) = (report.events, report.data);
            let token = usize::try_from(data).unwrap_or(WAKE_TOKEN);
            if token == WAKE_TOKEN {
                woken = true;
                // Reset the counter. Only this thread reads it, and it was
                // just reported readable, so the read cannot come up empty
                // for any reason but a concurrent reset — which is none.
                let _ = (&*self.wake).read(&mut [0u8; 8]);
                continue;
            }
            let trouble = ready & (EPOLLERR | EPOLLHUP) != 0;
            events.push(Event {
                token,
                readable: ready & EPOLLIN != 0 || trouble,
                writable: ready & EPOLLOUT != 0 || trouble,
            });
        }
        Ok(woken)
    }
}
