//! A fixed-size ring of finished traces.
//!
//! Writers claim a slot with one lock-free ticket from the cursor, then
//! store the trace under that slot's (uncontended, per-slot) mutex. The
//! ring overwrites oldest-first on wrap, never blocks a writer on another
//! slot, and never allocates after construction beyond the traces it
//! stores. Readers (`TRACE n`) walk backwards from the cursor.

use crate::trace::Trace;
use crate::Counter;
use std::sync::Mutex;

/// Fixed-capacity overwrite-on-wrap trace buffer.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<Trace>>>,
    /// Total pushes ever; `cursor % capacity` is the next slot to claim.
    /// A pure ticket source: the trace itself is published through the
    /// slot's mutex, which supplies all the ordering.
    cursor: Counter,
}

impl TraceRing {
    /// A ring holding the last `capacity` traces (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: Counter::new(0),
        }
    }

    /// How many traces fit before overwrite.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces ever captured (including ones since overwritten).
    pub fn captured(&self) -> u64 {
        self.cursor.get()
    }

    /// Store `trace`, overwriting the oldest entry when full.
    pub fn push(&self, trace: Trace) {
        let claim = self.cursor.add(1);
        let slot = &self.slots[(claim % self.slots.len() as u64) as usize];
        // A poisoned slot only means a panicking thread died mid-store; the
        // old value is still a whole Trace, so recover and overwrite it.
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(trace);
    }

    /// The last `n` captured traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<Trace> {
        let cursor = self.cursor.get();
        let take = (n as u64).min(cursor).min(self.slots.len() as u64);
        let mut out = Vec::with_capacity(take as usize);
        for back in 1..=take {
            let idx = ((cursor - back) % self.slots.len() as u64) as usize;
            let guard = self.slots[idx].lock().unwrap_or_else(|e| e.into_inner());
            if let Some(t) = guard.as_ref() {
                out.push(t.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceId;

    fn trace(id: u64) -> Trace {
        Trace {
            id: TraceId(id),
            generation: 1,
            user: 0,
            k: 1,
            terms: vec![],
            outcome: "ok",
            cached: false,
            slow: false,
            sampled: true,
            total_us: 0,
            expand_rounds: 0,
            probed_tables: 0,
            candidate_topics: 0,
            pruned_topics: 0,
            loaded_reps: 0,
            spans: vec![],
        }
    }

    #[test]
    fn recent_returns_newest_first_and_respects_capacity() {
        let ring = TraceRing::new(4);
        for id in 0..10 {
            ring.push(trace(id));
        }
        assert_eq!(ring.captured(), 10);
        let ids: Vec<u64> = ring.recent(8).iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![9, 8, 7, 6], "only the last capacity survive");
        let two: Vec<u64> = ring.recent(2).iter().map(|t| t.id.0).collect();
        assert_eq!(two, vec![9, 8]);
    }

    #[test]
    fn empty_ring_and_zero_capacity_are_safe() {
        let ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1, "capacity clamps to 1");
        assert!(ring.recent(5).is_empty());
        ring.push(trace(1));
        assert_eq!(ring.recent(5).len(), 1);
    }

    #[test]
    fn concurrent_pushes_lose_no_claims() {
        let ring = std::sync::Arc::new(TraceRing::new(64));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        ring.push(trace(t * 1000 + i));
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        assert_eq!(ring.captured(), 800);
        assert_eq!(ring.recent(64).len(), 64, "full ring after wrap");
    }
}
