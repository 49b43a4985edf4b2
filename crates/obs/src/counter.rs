//! The telemetry atomic.

#![expect(
    clippy::disallowed_types,
    reason = "Counter is the telemetry atomic: a tally, gauge or ticket read only to be \
              reported or to label something; each update is one RMW and no other memory is \
              published through it, so every access is Relaxed"
)]

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone tally, a point-in-time gauge or a ticket source whose value is
/// only ever reported or used as a label. Nothing is published through it,
/// so every access is `Relaxed` — by construction, here, rather than at
/// each call site.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at `value` (usable in a `static`).
    pub const fn new(value: u64) -> Self {
        Counter(AtomicU64::new(value))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` and return the value before the addition — a ticket when
    /// `n` is 1, since the read-modify-write makes every claim unique.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Subtract one. Callers pair every `dec` with an earlier `inc` on the
    /// same gauge, so the value never wraps.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}
