//! What both poller backends share: the interest and event types, the
//! cross-thread [`Waker`], and the timeout conversion.
//!
//! The wait is level-triggered: a socket that stays readable is reported
//! by every wait until it is read dry or its interest drops `read`. An
//! owner that cannot act on a readiness right now (a connection awaiting a
//! worker reply) must therefore narrow its interest, and an fd with no
//! interest at all is deregistered — `epoll` and `poll(2)` both report
//! hangups and errors even for an empty interest set.

use std::fs::File;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Which readiness a registered fd is waited on for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or a listener has a connection).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Nothing: the fd should not be registered at all.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
    /// Readable only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };

    /// True when neither readiness is wanted.
    pub fn is_empty(self) -> bool {
        !self.read && !self.write
    }
}

/// One readiness report from [`crate::Poller::wait`]. A hangup or an error
/// on the fd reports both readable and writable, so the owner's next read
/// or write observes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd is readable, hung up, or in error.
    pub readable: bool,
    /// The fd is writable, hung up, or in error.
    pub writable: bool,
}

/// The token a poller reserves for its own waker; registering it is
/// refused.
pub(crate) const WAKE_TOKEN: usize = usize::MAX;

/// Interrupts a [`crate::Poller::wait`] from any thread. Cheap to clone;
/// every clone signals the same poller. Wakes coalesce: any number of
/// [`Waker::wake`] calls before the wait returns make it return once.
#[derive(Clone, Debug)]
pub struct Waker {
    /// The write side: the `eventfd` itself, or the self-pipe's write end.
    fd: Arc<File>,
}

impl Waker {
    pub(crate) fn new(fd: Arc<File>) -> Waker {
        Waker { fd }
    }

    /// Make the poller's current or next wait return. Never blocks: a full
    /// self-pipe already holds a pending wake, and an `eventfd` counter
    /// cannot realistically overflow.
    pub fn wake(&self) {
        // Eight bytes is the one write size an eventfd accepts; a pipe takes
        // it as well.
        let _ = (&*self.fd).write(&1u64.to_ne_bytes());
    }
}

/// A wait timeout in whole milliseconds, as both `epoll_wait` and `poll`
/// take it: `None` blocks (`-1`), anything else is rounded *up*, so a wait
/// never returns before the deadline it was computed from.
pub(crate) fn timeout_ms(timeout: Option<Duration>) -> std::ffi::c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_nanos().div_ceil(1_000_000);
            std::ffi::c_int::try_from(ms).unwrap_or(std::ffi::c_int::MAX)
        }
    }
}

/// The error for a registration under the reserved waker token.
pub(crate) fn reserved_token() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        "token usize::MAX is reserved for the poller's waker",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeouts_round_up_to_whole_milliseconds() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_nanos(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1500))), 2);
        assert_eq!(timeout_ms(Some(Duration::from_millis(7))), 7);
        assert_eq!(
            timeout_ms(Some(Duration::from_secs(u64::MAX))),
            std::ffi::c_int::MAX
        );
    }

    /// One suite, instantiated per backend: on Linux both `epoll` and the
    /// `poll(2)` fallback run it.
    macro_rules! backend_suite {
        ($name:ident, $poller:ty) => {
            mod $name {
                use crate::{Event, Interest};
                use std::io::{Read, Write};
                use std::net::{TcpListener, TcpStream};
                use std::os::fd::AsRawFd;
                use std::time::{Duration, Instant};

                type Poller = $poller;

                fn pair() -> (TcpStream, TcpStream) {
                    let l = TcpListener::bind("127.0.0.1:0").unwrap();
                    let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
                    let (b, _) = l.accept().unwrap();
                    a.set_nonblocking(true).unwrap();
                    b.set_nonblocking(true).unwrap();
                    (a, b)
                }

                fn wait(p: &mut Poller, ms: u64) -> (bool, Vec<Event>) {
                    let mut events = Vec::new();
                    let woken = p
                        .wait(&mut events, Some(Duration::from_millis(ms)))
                        .unwrap();
                    (woken, events)
                }

                #[test]
                fn an_idle_wait_times_out_no_earlier_than_asked() {
                    let mut p = Poller::new().unwrap();
                    let started = Instant::now();
                    let (woken, events) = wait(&mut p, 30);
                    assert!(!woken);
                    assert!(events.is_empty());
                    assert!(started.elapsed() >= Duration::from_millis(30));
                }

                #[test]
                fn a_wake_from_another_thread_ends_an_unbounded_wait() {
                    let mut p = Poller::new().unwrap();
                    let waker = p.waker();
                    let t = std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(20));
                        waker.wake();
                    });
                    let mut events = Vec::new();
                    assert!(p.wait(&mut events, None).unwrap());
                    assert!(events.is_empty());
                    t.join().unwrap();
                    // The wake was consumed: the next wait times out.
                    assert!(!wait(&mut p, 10).0);
                }

                #[test]
                fn wakes_before_the_wait_coalesce_into_one_return() {
                    let mut p = Poller::new().unwrap();
                    let waker = p.waker();
                    for _ in 0..1000 {
                        waker.clone().wake();
                    }
                    assert!(wait(&mut p, 1000).0);
                    assert!(!wait(&mut p, 10).0);
                }

                #[test]
                fn readiness_follows_the_interest_set() {
                    let mut p = Poller::new().unwrap();
                    let (mut a, b) = pair();
                    p.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
                    assert!(wait(&mut p, 10).1.is_empty(), "nothing to read yet");
                    a.write_all(b"ping").unwrap();
                    let (_, events) = wait(&mut p, 1000);
                    assert_eq!(
                        events,
                        vec![Event {
                            token: 7,
                            readable: true,
                            writable: false
                        }]
                    );
                    // Level-triggered: unread bytes are reported again.
                    assert_eq!(wait(&mut p, 1000).1.len(), 1);
                    // Narrowed to write: the unread bytes go quiet, the
                    // empty send buffer reports under the new token.
                    let write = Interest {
                        read: false,
                        write: true,
                    };
                    p.reregister(b.as_raw_fd(), 8, write).unwrap();
                    assert_eq!(
                        wait(&mut p, 1000).1,
                        vec![Event {
                            token: 8,
                            readable: false,
                            writable: true
                        }]
                    );
                    p.deregister(b.as_raw_fd()).unwrap();
                    assert!(wait(&mut p, 10).1.is_empty());
                    // Re-registered, the bytes are still there to be read.
                    p.register(b.as_raw_fd(), 9, Interest::READ).unwrap();
                    assert_eq!(wait(&mut p, 1000).1[0].token, 9);
                    let mut buf = [0u8; 8];
                    assert_eq!((&b).read(&mut buf).unwrap(), 4);
                    assert!(wait(&mut p, 10).1.is_empty(), "read dry");
                }

                #[test]
                fn a_listener_reports_a_pending_connection() {
                    let mut p = Poller::new().unwrap();
                    let l = TcpListener::bind("127.0.0.1:0").unwrap();
                    l.set_nonblocking(true).unwrap();
                    p.register(l.as_raw_fd(), 0, Interest::READ).unwrap();
                    assert!(wait(&mut p, 10).1.is_empty());
                    let _c = TcpStream::connect(l.local_addr().unwrap()).unwrap();
                    let (_, events) = wait(&mut p, 1000);
                    assert_eq!(events.len(), 1);
                    assert!(events[0].readable);
                    assert!(l.accept().is_ok());
                    assert!(wait(&mut p, 10).1.is_empty(), "backlog drained");
                }

                #[test]
                fn a_peer_hangup_is_reported_readable() {
                    let mut p = Poller::new().unwrap();
                    let (a, b) = pair();
                    p.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
                    drop(a);
                    let (_, events) = wait(&mut p, 1000);
                    assert_eq!(events.len(), 1);
                    assert!(events[0].readable);
                    let mut buf = [0u8; 8];
                    assert_eq!((&b).read(&mut buf).unwrap(), 0, "EOF");
                }

                #[test]
                fn many_fds_report_under_their_own_tokens() {
                    let mut p = Poller::new().unwrap();
                    let pairs: Vec<_> = (0..40).map(|_| pair()).collect();
                    for (i, (_, b)) in pairs.iter().enumerate() {
                        p.register(b.as_raw_fd(), i, Interest::READ).unwrap();
                    }
                    // Drop every other registration, then poke everyone.
                    for (_, b) in pairs.iter().step_by(2) {
                        p.deregister(b.as_raw_fd()).unwrap();
                    }
                    for (a, _) in &pairs {
                        (&*a).write_all(b"x").unwrap();
                    }
                    let mut seen = Vec::new();
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while seen.len() < 20 && Instant::now() < deadline {
                        let (_, events) = wait(&mut p, 100);
                        for e in events {
                            if !seen.contains(&e.token) {
                                seen.push(e.token);
                            }
                        }
                    }
                    seen.sort_unstable();
                    assert_eq!(seen, (1..40).step_by(2).collect::<Vec<_>>());
                }

                #[test]
                fn the_waker_token_is_reserved() {
                    let mut p = Poller::new().unwrap();
                    let (_a, b) = pair();
                    assert!(p
                        .register(b.as_raw_fd(), usize::MAX, Interest::READ)
                        .is_err());
                }
            }
        };
    }

    #[cfg(target_os = "linux")]
    backend_suite!(epoll_backend, crate::epoll::Poller);
    backend_suite!(poll_backend, crate::pollfd::Poller);
}
