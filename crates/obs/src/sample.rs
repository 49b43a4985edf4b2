//! The `1/N` trace-sampling knob.
//!
//! Sampling must be nearly free when off: `Sampler::every(0)` answers with
//! a single branch and no atomic traffic, and an enabled sampler costs one
//! [`Counter`] increment per decision. Deterministic modular sampling (every
//! N-th query) is used instead of randomness so tests can pin which
//! queries get traced.

use crate::Counter;

/// Samples every N-th decision; `N = 0` disables sampling entirely.
#[derive(Debug)]
pub struct Sampler {
    every: u64,
    seen: Counter,
}

impl Sampler {
    /// Sample one in `every` decisions (the first decision always samples,
    /// so `--trace-sample 1` traces every query). `0` never samples.
    pub fn every(every: u64) -> Self {
        Sampler {
            every,
            seen: Counter::new(0),
        }
    }

    /// The configured period (0 = disabled).
    pub fn period(&self) -> u64 {
        self.every
    }

    /// Decide whether this query is sampled.
    pub fn hit(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.seen.add(1).is_multiple_of(self.every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_never_samples() {
        let s = Sampler::every(0);
        assert!((0..100).all(|_| !s.hit()));
    }

    #[test]
    fn one_always_samples() {
        let s = Sampler::every(1);
        assert!((0..100).all(|_| s.hit()));
    }

    #[test]
    fn n_samples_exactly_one_in_n() {
        let s = Sampler::every(4);
        let hits: Vec<bool> = (0..12).map(|_| s.hit()).collect();
        assert_eq!(
            hits,
            vec![true, false, false, false, true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn concurrent_decisions_keep_the_rate() {
        let s = std::sync::Arc::new(Sampler::every(10));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || (0..1000).filter(|_| s.hit()).count())
            })
            .collect();
        let hits: usize = threads.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(hits, 800, "8000 decisions at 1/10 sample exactly 800");
    }
}
