//! The load generator: seeded key streams and the two sender threads.
//!
//! One process, one thread and one TCP connection per sender (two senders
//! on the two-core box this is sized for). Open-loop phases follow an
//! absolute schedule interleaved across the senders and time every request
//! from the instant it was *due*, so a server that falls behind pays for
//! the backlog in its percentiles instead of quietly receiving less load.
//! Closed-loop phases send on reply. Raw replies are kept and checked
//! against the oracle after the phase — nothing but the wire exchange sits
//! on the timed path.

use std::collections::VecDeque;
use std::io;
use std::thread;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seedable generator, good enough to draw keys.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻³² for the
    /// ranges drawn here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derive an independent sub-seed from the run seed and a label, so each
/// fixture, phase and sender draws from its own stream.
pub fn subseed(seed: u64, label: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ seed;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    Rng::new(h).next_u64()
}

/// One query: the paper's shape, a user and a single hub keyword.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub user: u32,
    pub keyword: u16,
}

/// Result size of every query the ledger sends.
pub const K: usize = 10;

impl Key {
    /// The request frame for this key.
    pub fn request(&self) -> String {
        format!("QUERY {} {K} query-{}", self.user, self.keyword)
    }
}

/// Where a stream's keys come from.
pub enum KeySpace {
    /// Every (user, keyword) pair equally likely: the working set is the
    /// whole key space, far beyond any result cache.
    Uniform { users: u32, keywords: u16 },
    /// Zipf(s = 1) over a fixed table of distinct pairs, hottest first.
    Zipf { table: Vec<Key>, cdf: Vec<f64> },
}

impl KeySpace {
    /// A Zipf(1) space over `distinct` seeded pairs.
    pub fn zipf(users: u32, keywords: u16, distinct: usize, seed: u64) -> KeySpace {
        let mut rng = Rng::new(seed);
        let mut seen = std::collections::HashSet::new();
        let mut table = Vec::with_capacity(distinct);
        while table.len() < distinct {
            let key = Key {
                user: rng.below(u64::from(users)) as u32,
                keyword: rng.below(u64::from(keywords)) as u16,
            };
            if seen.insert(key) {
                table.push(key);
            }
        }
        let mut cdf = Vec::with_capacity(distinct);
        let mut total = 0.0;
        for rank in 1..=distinct {
            total += 1.0 / rank as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        KeySpace::Zipf { table, cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> Key {
        match self {
            KeySpace::Uniform { users, keywords } => Key {
                user: rng.below(u64::from(*users)) as u32,
                keyword: rng.below(u64::from(*keywords)) as u16,
            },
            KeySpace::Zipf { table, cdf } => {
                let u = rng.unit();
                table[cdf.partition_point(|&c| c <= u).min(table.len() - 1)]
            }
        }
    }
}

/// A framed request/reply channel; the seam that lets a test stand a
/// stalling fake in for the TCP connection. Replies come back in request
/// order.
pub trait Exchange {
    /// # Errors
    /// Any transport failure; the sender stops at the first one.
    fn send(&mut self, request: &str) -> io::Result<()>;

    /// # Errors
    /// As [`Exchange::send`].
    fn recv(&mut self) -> io::Result<String>;

    /// One request, then its reply.
    ///
    /// # Errors
    /// As [`Exchange::send`].
    fn call(&mut self, request: &str) -> io::Result<String> {
        self.send(request)?;
        self.recv()
    }
}

/// How a phase paces its requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pace {
    /// A fixed schedule at `qps` across all senders, whatever the replies do.
    Open { qps: f64 },
    /// Each sender keeps `window` requests in flight on its connection and
    /// sends the next when a reply arrives.
    Closed { window: usize },
}

/// One timed request. Instants are nanoseconds since the run's origin.
#[derive(Clone, Debug)]
pub struct Sample {
    pub sender: u8,
    pub key: Key,
    /// When the schedule wanted it sent (`sent_ns` in a closed loop).
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    /// The raw reply frame, or `ERR io: …` when the transport failed.
    pub reply: String,
}

impl Sample {
    /// What the phase charges this request: from the due instant, so time
    /// spent waiting behind a stalled predecessor counts.
    pub fn latency_ms(&self) -> f64 {
        (self.recv_ns - self.due_ns) as f64 / 1e6
    }

    /// Wire round trip alone.
    pub fn rtt_us(&self) -> f64 {
        (self.recv_ns - self.sent_ns) as f64 / 1e3
    }

    /// How late the generator sent it.
    pub fn late_us(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e3
    }
}

/// One request outside any phase (a cold start's first query, a probe),
/// as a sample of sender 255.
pub fn exchange_once<E: Exchange>(conn: &mut E, key: Key, origin: Instant) -> Sample {
    let sent_ns = origin.elapsed().as_nanos() as u64;
    let reply = conn
        .call(&key.request())
        .unwrap_or_else(|e| format!("ERR io: {e}"));
    Sample {
        sender: u8::MAX,
        key,
        due_ns: sent_ns,
        sent_ns,
        recv_ns: origin.elapsed().as_nanos() as u64,
        reply,
    }
}

/// A traffic phase.
pub struct Phase<'a> {
    pub pace: Pace,
    pub duration: Duration,
    pub keys: &'a KeySpace,
    pub seed: u64,
}

/// Run `phase` with one sender thread per connection while `admin` runs on
/// the calling thread (it gets the phase's start instant and must return
/// before or soon after the phase ends). Returns every sample, grouped by
/// sender in send order, and `admin`'s result.
pub fn drive<E, A, R>(
    conns: &mut [E],
    phase: &Phase<'_>,
    origin: Instant,
    admin: A,
) -> (Vec<Sample>, R)
where
    E: Exchange + Send,
    A: FnOnce(Instant) -> R,
{
    // A start slightly ahead, so every sender's first request is scheduled
    // rather than late.
    let start = Instant::now() + Duration::from_millis(20);
    let senders = conns.len();
    thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(index, conn)| {
                scope.spawn(move || send_loop(conn, index, senders, phase, origin, start))
            })
            .collect();
        let admin_result = admin(start);
        let samples = handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect();
        (samples, admin_result)
    })
}

fn send_loop<E: Exchange>(
    conn: &mut E,
    index: usize,
    senders: usize,
    phase: &Phase<'_>,
    origin: Instant,
    start: Instant,
) -> Vec<Sample> {
    let mut rng = Rng::new(subseed(phase.seed, &format!("sender-{index}")));
    let since_origin = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    // Close a request's record, now: answered, or failed in transport.
    let sample = |key, due: Option<Instant>, sent: Instant, outcome: io::Result<String>| Sample {
        sender: index as u8,
        key,
        due_ns: since_origin(due.unwrap_or(sent)),
        sent_ns: since_origin(sent),
        recv_ns: since_origin(Instant::now()),
        reply: outcome.unwrap_or_else(|e| format!("ERR io: {e}")),
    };
    let mut samples = Vec::new();
    // What is in flight on the connection, oldest first.
    let mut in_flight: VecDeque<(Key, Option<Instant>, Instant)> = VecDeque::new();
    let mut tick = 0u64;
    if let Some(wait) = start.checked_duration_since(Instant::now()) {
        thread::sleep(wait);
    }
    let mut sending = true;
    loop {
        // Top the connection up: one request per schedule slot in an open
        // loop, `window` of them in a closed one.
        while sending {
            let due = match phase.pace {
                Pace::Open { qps } => {
                    if !in_flight.is_empty() {
                        break;
                    }
                    // Slot `tick * senders + index` of the shared schedule.
                    let slot = tick * senders as u64 + index as u64;
                    let offset = Duration::from_secs_f64(slot as f64 / qps);
                    if offset >= phase.duration {
                        sending = false;
                        break;
                    }
                    let due = start + offset;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        thread::sleep(wait);
                    }
                    Some(due)
                }
                Pace::Closed { window } => {
                    if in_flight.len() >= window {
                        break;
                    }
                    if start.elapsed() >= phase.duration {
                        sending = false;
                        break;
                    }
                    None
                }
            };
            let key = phase.keys.draw(&mut rng);
            let sent = Instant::now();
            if let Err(e) = conn.send(&key.request()) {
                samples.push(sample(key, due, sent, Err(e)));
                return samples;
            }
            in_flight.push_back((key, due, sent));
            tick += 1;
        }
        let Some((key, due, sent)) = in_flight.pop_front() else {
            return samples;
        };
        let outcome = conn.recv();
        let failed = outcome.is_err();
        samples.push(sample(key, due, sent, outcome));
        if failed {
            return samples;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(space: &KeySpace, seed: u64, n: usize) -> Vec<Key> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| space.draw(&mut rng)).collect()
    }

    #[test]
    fn streams_repeat_for_equal_seeds_and_differ_otherwise() {
        let uniform = KeySpace::Uniform {
            users: 12_000,
            keywords: 20,
        };
        assert_eq!(draws(&uniform, 7, 500), draws(&uniform, 7, 500));
        assert_ne!(draws(&uniform, 7, 500), draws(&uniform, 8, 500));

        let a = KeySpace::zipf(12_000, 20, 512, 1);
        let b = KeySpace::zipf(12_000, 20, 512, 1);
        let c = KeySpace::zipf(12_000, 20, 512, 2);
        let (KeySpace::Zipf { table: ta, .. }, KeySpace::Zipf { table: tc, .. }) = (&a, &c) else {
            panic!("zipf spaces");
        };
        assert_ne!(ta, tc, "another seed draws another table");
        assert_eq!(draws(&a, 3, 500), draws(&b, 3, 500));
        assert_ne!(draws(&a, 3, 500), draws(&a, 4, 500));
        assert_ne!(subseed(1, "light"), subseed(1, "busy"));
        assert_ne!(subseed(1, "light"), subseed(2, "light"));
    }

    #[test]
    fn zipf_is_skewed_over_distinct_keys() {
        let space = KeySpace::zipf(1_000, 8, 256, 5);
        let KeySpace::Zipf { table, cdf } = &space else {
            panic!("zipf space");
        };
        let distinct: std::collections::HashSet<_> = table.iter().collect();
        assert_eq!(distinct.len(), 256);
        assert!((cdf[255] - 1.0).abs() < 1e-12);
        let sample = draws(&space, 9, 20_000);
        let hottest = sample.iter().filter(|&&k| k == table[0]).count() as f64 / 20_000.0;
        // pmf(1) = 1 / H(256) ≈ 0.163.
        assert!((0.14..0.19).contains(&hottest), "hottest share {hottest}");
        let top32 = sample.iter().filter(|k| table[..32].contains(k)).count() as f64 / 20_000.0;
        assert!((0.60..0.72).contains(&top32), "top-32 share {top32}");
    }

    /// Answers at once, except that one chosen reply blocks for `stall`.
    #[derive(Default)]
    struct StallingServer {
        queued: usize,
        most_queued: usize,
        replies: usize,
        stall_on: usize,
        stall: Duration,
    }

    impl Exchange for StallingServer {
        fn send(&mut self, _request: &str) -> io::Result<()> {
            self.queued += 1;
            self.most_queued = self.most_queued.max(self.queued);
            Ok(())
        }

        fn recv(&mut self) -> io::Result<String> {
            assert!(
                self.queued > 0,
                "a reply was awaited with nothing in flight"
            );
            self.queued -= 1;
            self.replies += 1;
            if self.replies == self.stall_on {
                thread::sleep(self.stall);
            }
            Ok("TOPICS 0 fresh 1".to_string())
        }
    }

    #[test]
    fn open_loop_charges_a_stall_from_the_due_instant() {
        // One sender, 200 QPS: a request is due every 5 ms. The third call
        // stalls for 60 ms, so the next eleven requests fall due while the
        // sender is stuck and leave late.
        let space = KeySpace::Uniform {
            users: 10,
            keywords: 2,
        };
        let phase = Phase {
            pace: Pace::Open { qps: 200.0 },
            duration: Duration::from_millis(200),
            keys: &space,
            seed: 1,
        };
        let mut conns = [StallingServer {
            stall_on: 3,
            stall: Duration::from_millis(60),
            ..StallingServer::default()
        }];
        let (samples, ()) = drive(&mut conns, &phase, Instant::now(), |_| ());
        // The schedule is kept whatever the server does: all 40 slots sent.
        assert_eq!(samples.len(), 40);
        assert!(samples[2].latency_ms() >= 60.0);
        // Due 5 ms after the stalled request, answered only once the stall
        // ended: charged the ~55 ms it waited, though its own round trip
        // was instant. A closed loop would have reported ~0 here.
        let next = &samples[3];
        assert!(
            next.latency_ms() >= 50.0,
            "charged {} ms",
            next.latency_ms()
        );
        assert!(next.rtt_us() < 5_000.0, "rtt {} us", next.rtt_us());
        assert!(next.late_us() >= 50_000.0);
        // The backlog drains at wire speed and the tail is on time again.
        assert!(samples[39].latency_ms() < 5.0);
        let charged: f64 = samples.iter().map(Sample::latency_ms).sum();
        assert!(charged > 60.0 + 55.0 + 50.0 + 45.0, "total {charged} ms");
    }

    #[test]
    fn closed_loop_keeps_its_window_full_and_stops_at_the_deadline() {
        let space = KeySpace::Uniform {
            users: 10,
            keywords: 2,
        };
        for window in [1, 2] {
            let phase = Phase {
                pace: Pace::Closed { window },
                duration: Duration::from_millis(50),
                keys: &space,
                seed: 1,
            };
            let mut conns = [
                StallingServer {
                    stall_on: 1,
                    stall: Duration::from_millis(10),
                    ..StallingServer::default()
                },
                StallingServer::default(),
            ];
            let (samples, start) = drive(&mut conns, &phase, Instant::now(), |start| start);
            assert!(start.elapsed() >= Duration::from_millis(50));
            assert!(samples.iter().all(|s| s.due_ns == s.sent_ns));
            for (index, conn) in conns.iter().enumerate() {
                assert_eq!(conn.most_queued, window);
                assert_eq!(conn.queued, 0, "every request sent was answered");
                let own = samples.iter().filter(|s| s.sender == index as u8).count();
                assert_eq!(own, conn.replies);
            }
        }
    }
}
