//! LRU cache of recent query results, coherent across engine generations.
//!
//! Keyed by the full query identity `(user, k, sorted terms)` so a hit is
//! guaranteed to be byte-identical to recomputing. Entries form an intrusive
//! doubly-linked list over a slab (`Vec`) — `get`/`insert` are O(1) with no
//! per-operation allocation beyond the stored value — behind one
//! `parking_lot::Mutex`, with hit/miss/eviction counters
//! ([`CacheCounters`], declared in the metrics registry) read by `STATS`.
//!
//! Every entry is tagged with the engine **generation** that computed it,
//! plus an optional **stale reason**. A full `RELOAD` marks every entry
//! stale ([`StaleReason::FullReload`]); an `UPDATE` instead compares each
//! entry against the delta's [`DeltaScope`] and re-tags the entries the
//! delta provably cannot affect to the new generation — they *survive* the
//! swap and keep hitting (counted in `cache_survivors`), while intersecting
//! entries are marked with a typed reason and die lazily on first touch.
//! Lookups additionally keep a generation check as a backstop (a worker
//! racing a swap can insert under the old generation after the sweep ran),
//! so no post-swap response can ever be served from a pre-swap ranking.
//!
//! The cache also keeps a small space-saving frequency sketch of looked-up
//! keys; [`QueryCache::hottest`] feeds the post-reload warmup job.

use crate::metrics::CacheCounters;
use crate::protocol::wire_enum;
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use pit::DeltaScope;
use pit_graph::{NodeId, TermId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Cache key: the complete identity of a query.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey {
    /// Querying user.
    pub user: u32,
    /// Result size.
    pub k: usize,
    /// Resolved term ids, sorted — keyword order does not change the answer,
    /// so `a b` and `b a` share an entry.
    pub terms: Vec<TermId>,
}

impl QueryKey {
    /// Build a key, normalizing term order.
    pub fn new(user: u32, k: usize, mut terms: Vec<TermId>) -> Self {
        terms.sort_unstable();
        terms.dedup();
        QueryKey { user, k, terms }
    }
}

wire_enum! {
    /// Why a swap declared a cache entry stale. Each spelling is the
    /// Prometheus `reason` label; with `-` → `_` it is also the suffix of
    /// the `cache_stale_<reason>` STATS key.
    pub enum StaleReason {
        /// A new edge's downstream Γ closure or walk region reaches the entry.
        EdgeAdded => "edge-added",
        /// Reserved: [`pit::Delta`] carries no removals yet, so this is never
        /// produced today — the wire key exists so adding removals is not a
        /// breaking change.
        EdgeRemoved => "edge-removed",
        /// A topic sharing a term with the entry gained a member and was
        /// re-summarized.
        AssignmentChanged => "assignment-changed",
        /// A full `RELOAD` (or staged `COMMIT`) replaced the engine wholesale.
        FullReload => "full-reload",
    }
}

const NIL: usize = usize::MAX;

/// Keys tracked by the hot-key frequency sketch (space-saving: bounded
/// memory, over-estimates only — good enough to pick warmup candidates).
const HOT_TRACKED: usize = 64;

struct Slot<V> {
    key: QueryKey,
    value: V,
    /// Engine generation that computed `value`; a lookup from any other
    /// generation is a miss.
    generation: u64,
    /// Set when a swap declared this entry stale; it dies lazily on first
    /// touch (or is reclaimed by an at-capacity insert) and never answers.
    stale: Option<StaleReason>,
    prev: usize,
    next: usize,
}

/// Space-saving heavy-hitters sketch over query keys. Bounded at
/// [`HOT_TRACKED`] entries: an unseen key at capacity replaces the
/// minimum-count entry and inherits its count (+1), so frequent keys always
/// surface even though counts over-estimate. Ties break on key order for
/// determinism.
struct HotKeys {
    counts: HashMap<QueryKey, u64>,
}

impl HotKeys {
    fn record(&mut self, key: &QueryKey) {
        if let Some(c) = self.counts.get_mut(key) {
            *c += 1;
            return;
        }
        if self.counts.len() < HOT_TRACKED {
            self.counts.insert(key.clone(), 1);
            return;
        }
        let victim = self
            .counts
            .iter()
            .min_by(|(ka, ca), (kb, cb)| ca.cmp(cb).then_with(|| ka.cmp(kb)))
            .map(|(k, c)| (k.clone(), *c));
        if let Some((victim, floor)) = victim {
            self.counts.remove(&victim);
            self.counts.insert(key.clone(), floor + 1);
        }
    }

    /// The `n` highest-count keys, hottest first; ties break on key order.
    fn top(&self, n: usize) -> Vec<QueryKey> {
        let mut ranked: Vec<(&QueryKey, u64)> = self.counts.iter().map(|(k, c)| (k, *c)).collect();
        ranked.sort_by(|(ka, ca), (kb, cb)| cb.cmp(ca).then_with(|| ka.cmp(kb)));
        ranked.into_iter().take(n).map(|(k, _)| k.clone()).collect()
    }
}

struct Inner<V> {
    map: HashMap<QueryKey, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// Frequency sketch of looked-up keys, for post-reload warmup.
    hot: HotKeys,
    /// Slots a sweep marked stale — reclamation candidates for at-capacity
    /// inserts. Entries are hints, not truth: a slot may have been lazily
    /// evicted or overwritten since, so candidates are re-validated when
    /// popped.
    stale_slots: Vec<usize>,
}

/// Thread-safe LRU cache of query results.
pub struct QueryCache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    counters: CacheCounters,
}

impl<V: Clone> QueryCache<V> {
    /// A cache holding at most `capacity` entries; 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            inner: Mutex::named(
                "server.cache.lru",
                Inner {
                    map: HashMap::with_capacity(capacity.min(1 << 20)),
                    slots: Vec::with_capacity(capacity.min(1 << 20)),
                    free: Vec::new(),
                    head: NIL,
                    tail: NIL,
                    hot: HotKeys {
                        counts: HashMap::with_capacity(HOT_TRACKED),
                    },
                    stale_slots: Vec::new(),
                },
            ),
            capacity,
            counters: CacheCounters::default(),
        }
    }

    /// Look up `key` as seen by engine `generation`, promoting it to
    /// most-recently-used on a hit. An entry a swap marked stale — or one
    /// computed under a different generation (the backstop for inserts
    /// racing a swap) — is a miss: it is evicted on the spot (counted in
    /// `cache_stale_evictions`) so one stale ranking is never served twice.
    /// Every lookup also feeds the hot-key sketch behind
    /// [`QueryCache::hottest`].
    pub fn get(&self, key: &QueryKey, generation: u64) -> Option<V> {
        if self.capacity == 0 {
            self.counters.misses.inc();
            return None;
        }
        let mut inner = self.inner.lock();
        inner.hot.record(key);
        let Some(&slot) = inner.map.get(key) else {
            self.counters.misses.inc();
            return None;
        };
        if inner.slots[slot].stale.is_some() || inner.slots[slot].generation != generation {
            inner.remove(slot);
            self.counters.stale_evictions.inc();
            self.counters.misses.inc();
            return None;
        }
        inner.unlink(slot);
        inner.push_front(slot);
        self.counters.hits.inc();
        Some(inner.slots[slot].value.clone())
    }

    /// Whether a live entry for `key` exists under `generation`, without
    /// touching counters, recency, or the hot-key sketch. The warmup job
    /// uses this to skip keys an earlier client already repopulated.
    pub fn contains(&self, key: &QueryKey, generation: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let inner = self.inner.lock();
        inner.map.get(key).is_some_and(|&slot| {
            inner.slots[slot].stale.is_none() && inner.slots[slot].generation == generation
        })
    }

    /// Insert `key → value` as computed under engine `generation`. At
    /// capacity, a known-stale slot is reclaimed first — a cache full of
    /// swap-killed corpses must not push out fresh post-swap answers — and
    /// only when every entry is live does the least-recently-used one go.
    /// Overwrites any existing entry for `key` (from any generation,
    /// clearing its stale mark).
    pub fn insert(&self, key: QueryKey, generation: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&key) {
            inner.slots[slot].value = value;
            inner.slots[slot].generation = generation;
            inner.slots[slot].stale = None;
            inner.unlink(slot);
            inner.push_front(slot);
            return;
        }
        if inner.map.len() >= self.capacity {
            if let Some(slot) = inner.pop_stale_slot() {
                inner.remove(slot);
                self.counters.stale_evictions.inc();
            } else {
                let lru = inner.tail;
                debug_assert_ne!(lru, NIL);
                inner.unlink(lru);
                let old = &mut inner.slots[lru];
                let old_key = std::mem::replace(&mut old.key, key.clone());
                old.value = value;
                old.generation = generation;
                old.stale = None;
                inner.map.remove(&old_key);
                inner.map.insert(key, lru);
                inner.push_front(lru);
                self.counters.evictions.inc();
                return;
            }
        }
        let slot = if let Some(free) = inner.free.pop() {
            let s = &mut inner.slots[free];
            s.key = key.clone();
            s.value = value;
            s.generation = generation;
            s.stale = None;
            free
        } else {
            inner.slots.push(Slot {
                key: key.clone(),
                value,
                generation,
                stale: None,
                prev: NIL,
                next: NIL,
            });
            inner.slots.len() - 1
        };
        inner.map.insert(key, slot);
        inner.push_front(slot);
    }

    /// Mark every entry stale with `reason` (a full `RELOAD`/`COMMIT`
    /// replaced the engine wholesale). Entries die lazily on first touch —
    /// the swap never stops the world — but at-capacity inserts reclaim
    /// them ahead of live entries.
    pub fn mark_all_stale(&self, reason: StaleReason) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let live: Vec<usize> = inner.map.values().copied().collect();
        for slot in live {
            if inner.slots[slot].stale.is_some() {
                continue;
            }
            inner.slots[slot].stale = Some(reason);
            inner.stale_slots.push(slot);
            self.counters.stale_by_reason[reason.index()].inc();
        }
    }

    /// Delta-aware sweep for an `UPDATE` swap from `from_gen` to `to_gen`:
    /// entries the delta's [`DeltaScope`] can affect are marked stale with a
    /// typed reason, everything else is re-tagged to `to_gen` and keeps
    /// hitting (counted in `cache_survivors`). Entries from generations
    /// older than `from_gen` (already-stale corpses, or inserts that raced
    /// an earlier swap) get the [`StaleReason::FullReload`] backstop — their
    /// provenance is unknown, so surviving them would be unsound.
    ///
    /// Must run before any reader can query under `to_gen` (the caller
    /// holds the engine swap lock), otherwise the generation backstop in
    /// [`QueryCache::get`] would evict survivors first.
    pub fn retag_after_update(&self, from_gen: u64, to_gen: u64, scope: &DeltaScope) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let live: Vec<usize> = inner.map.values().copied().collect();
        for slot in live {
            if inner.slots[slot].stale.is_some() {
                continue;
            }
            let verdict = if inner.slots[slot].generation != from_gen {
                Some(StaleReason::FullReload)
            } else {
                classify(scope, &inner.slots[slot].key)
            };
            match verdict {
                Some(reason) => {
                    inner.slots[slot].stale = Some(reason);
                    inner.stale_slots.push(slot);
                    self.counters.stale_by_reason[reason.index()].inc();
                }
                None => {
                    inner.slots[slot].generation = to_gen;
                    self.counters.survivors.inc();
                }
            }
        }
    }

    /// The `n` most-frequently-looked-up keys, hottest first.
    pub fn hottest(&self, n: usize) -> Vec<QueryKey> {
        self.inner.lock().hot.top(n)
    }

    /// The hit/miss/eviction/staleness counters (entries marked stale are
    /// counted per [`StaleReason::index`]).
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Entries currently cached, split into live and swap-killed stale
    /// (still occupying slots until lazily evicted or reclaimed). The one
    /// census call: a reply that wants the total adds the two, so it can
    /// never disagree with the split it reports beside it.
    pub fn len_by_liveness(&self) -> (usize, usize) {
        let inner = self.inner.lock();
        let stale = inner
            .map
            .values()
            .filter(|&&slot| inner.slots[slot].stale.is_some())
            .count();
        (inner.map.len() - stale, stale)
    }
}

/// Which [`StaleReason`] (if any) `scope` assigns to a cached query. The
/// Γ-region check comes first — an edge that reaches the user makes the
/// probed tables themselves differ — then term-bag intersections against
/// the re-summarized topics, assignment-caused before edge-caused.
fn classify(scope: &DeltaScope, key: &QueryKey) -> Option<StaleReason> {
    if scope.touches_user(NodeId(key.user)) {
        return Some(StaleReason::EdgeAdded);
    }
    if scope.touches_assignment_terms(&key.terms) {
        return Some(StaleReason::AssignmentChanged);
    }
    if scope.touches_edge_terms(&key.terms) {
        return Some(StaleReason::EdgeAdded);
    }
    None
}

/// What [`InflightMap::begin`] handed the caller: leadership of a fresh
/// flight (with the cancel handle every waiter shares) or a seat on an
/// existing one.
pub enum FlightRole<C> {
    /// No identical execution was in flight: the caller must run the search
    /// and eventually [`InflightMap::resolve`] the flight.
    Lead {
        /// The fresh flight's shared cancel handle.
        cancel: C,
        /// Present when leadership was won by taking over a corpse: the dead
        /// flight's cancel handle. The caller must trigger it — a worker may
        /// still be wedged on the corpse's execution, and nothing else will
        /// ever release it.
        stale_cancel: Option<C>,
    },
    /// An identical execution is already running; the caller's channel was
    /// registered as a waiter and the result will arrive on it.
    Join,
}

struct Flight<R, C> {
    /// One reply channel per waiting connection (leader included).
    waiters: Vec<Sender<R>>,
    /// Waiters still interested. Decremented by [`InflightMap::abandon`];
    /// at zero the flight's execution is pointless and gets cancelled.
    live: usize,
    /// The cancel handle shared by the single execution.
    cancel: C,
    /// Whether [`InflightMap::abandon`] already handed `cancel` out. The
    /// hand-off is one-shot: once `live` saturates at zero, further racing
    /// abandons (late joiners whose own deadlines fire) must not surface the
    /// handle again and double-cancel a revived flight.
    cancel_taken: bool,
    /// The leader's deadline. A flight can only outlive it by the worker's
    /// resolve lag; one lingering far past it is a corpse (the worker died
    /// between dequeue and resolve) and gets taken over — see
    /// [`STALE_GRACE`].
    deadline: Instant,
}

/// How long past its deadline a flight may linger before `begin` declares
/// it dead and re-leads. Normal resolution removes the entry within the
/// cancel-check lag; only a worker that died mid-resolve leaves a corpse,
/// and without this takeover that `(generation, key)` would time out every
/// future query forever.
const STALE_GRACE: Duration = Duration::from_secs(30);

/// Single-flight registry: at most one execution per `(generation, key)` is
/// in flight at a time; identical concurrent cold queries register as
/// waiters on it and all receive the one result.
///
/// Generic over the result (`R`, cloned per waiter) and the cancel handle
/// (`C`, e.g. a `CancelToken`) so the map itself stays a pure data
/// structure: resolution sends happen in the caller, outside the lock.
pub struct InflightMap<R, C> {
    flights: Mutex<HashMap<(u64, QueryKey), Flight<R, C>>>,
}

impl<R, C: Clone> InflightMap<R, C> {
    /// An empty registry.
    pub fn new() -> Self {
        InflightMap {
            flights: Mutex::named("server.cache.inflight", HashMap::new()),
        }
    }

    /// Register `tx` for the flight over `(generation, key)`. If none is in
    /// flight, `make` builds the flight's cancel handle and the caller
    /// becomes the leader (with `deadline` recorded as the flight's);
    /// otherwise the caller joins the existing flight. A flight lingering
    /// `STALE_GRACE` past its own deadline is a corpse: its waiters are
    /// dropped (their receivers observe the disconnect), the caller re-leads
    /// a fresh flight, and the corpse's cancel handle rides back in
    /// [`FlightRole::Lead::stale_cancel`] for the caller to trigger — a
    /// worker may still be pinned on the dead execution.
    pub fn begin(
        &self,
        generation: u64,
        key: &QueryKey,
        tx: Sender<R>,
        deadline: Instant,
        make: impl FnOnce() -> C,
    ) -> FlightRole<C> {
        let mut flights = self.flights.lock();
        match flights.entry((generation, key.clone())) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let stale = Instant::now()
                    .checked_duration_since(e.get().deadline)
                    .is_some_and(|lag| lag >= STALE_GRACE);
                if stale {
                    let cancel = make();
                    let corpse = e.insert(Flight {
                        waiters: vec![tx],
                        live: 1,
                        cancel: cancel.clone(),
                        cancel_taken: false,
                        deadline,
                    });
                    return FlightRole::Lead {
                        cancel,
                        stale_cancel: Some(corpse.cancel),
                    };
                }
                let flight = e.get_mut();
                flight.waiters.push(tx);
                flight.live += 1;
                FlightRole::Join
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let cancel = make();
                e.insert(Flight {
                    waiters: vec![tx],
                    live: 1,
                    cancel: cancel.clone(),
                    cancel_taken: false,
                    deadline,
                });
                FlightRole::Lead {
                    cancel,
                    stale_cancel: None,
                }
            }
        }
    }

    /// One waiter stopped caring (its own deadline passed or its connection
    /// died). When the last live waiter abandons, the flight's cancel
    /// handle is returned — exactly once — so the caller can stop the
    /// now-pointless execution; the entry itself stays until
    /// [`InflightMap::resolve`], so late joiners in the race window still
    /// get a (cancelled) reply, and their own later abandons are no-ops
    /// rather than a second cancellation.
    pub fn abandon(&self, generation: u64, key: &QueryKey) -> Option<C> {
        let mut flights = self.flights.lock();
        let flight = flights.get_mut(&(generation, key.clone()))?;
        flight.live = flight.live.saturating_sub(1);
        if flight.live == 0 && !flight.cancel_taken {
            flight.cancel_taken = true;
            Some(flight.cancel.clone())
        } else {
            None
        }
    }

    /// The execution finished (or failed to start): remove the flight and
    /// hand back every waiter channel. The caller sends the result outside
    /// the lock.
    pub fn resolve(&self, generation: u64, key: &QueryKey) -> Vec<Sender<R>> {
        let mut flights = self.flights.lock();
        match flights.remove(&(generation, key.clone())) {
            Some(flight) => flight.waiters,
            None => Vec::new(),
        }
    }

    /// Flights currently registered (tests and debugging).
    pub fn len(&self) -> usize {
        self.flights.lock().len()
    }

    /// Whether no flight is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<R, C: Clone> Default for InflightMap<R, C> {
    fn default() -> Self {
        InflightMap::new()
    }
}

impl<V> Inner<V> {
    /// Detach `slot` from the recency list (no-op if already detached).
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NIL => {
                if self.head == slot {
                    self.head = next;
                }
            }
            p => self.slots[p].next = next,
        }
        match next {
            NIL => {
                if self.tail == slot {
                    self.tail = prev;
                }
            }
            n => self.slots[n].prev = prev,
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    /// Attach `slot` as most-recently-used.
    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Drop `slot` entirely: unlink it, unmap its key, and recycle the slab
    /// slot. Used for lazy eviction of cross-generation entries.
    fn remove(&mut self, slot: usize) {
        self.unlink(slot);
        let key = self.slots[slot].key.clone();
        self.map.remove(&key);
        self.free.push(slot);
    }

    /// A validated stale-reclamation candidate, or `None` when every cached
    /// entry is live. `stale_slots` holds hints: a hinted slot may have been
    /// lazily evicted, overwritten in place, or recycled for another key
    /// since the sweep pushed it, so each pop re-checks that the slot still
    /// holds a mapped, stale entry.
    fn pop_stale_slot(&mut self) -> Option<usize> {
        while let Some(slot) = self.stale_slots.pop() {
            let current = self.slots.get(slot).is_some_and(|s| s.stale.is_some())
                && self
                    .slots
                    .get(slot)
                    .is_some_and(|s| self.map.get(&s.key) == Some(&slot));
            if current {
                return Some(slot);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generation used by tests that don't exercise reload coherence.
    const G: u64 = 1;

    fn key(user: u32) -> QueryKey {
        QueryKey::new(user, 10, vec![TermId(0)])
    }

    /// Entries resident, live or stale.
    fn len(cache: &QueryCache<u64>) -> usize {
        let (live, stale) = cache.len_by_liveness();
        live + stale
    }

    #[test]
    fn stale_reason_wire_spelling_round_trips() {
        for reason in StaleReason::ALL {
            assert_eq!(StaleReason::from_str(reason.as_str()), Some(reason));
        }
        assert_eq!(StaleReason::from_str("edge-exploded"), None);
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache: QueryCache<u64> = QueryCache::new(4);
        assert_eq!(cache.get(&key(1), G), None);
        cache.insert(key(1), G, 11);
        assert_eq!(cache.get(&key(1), G), Some(11));
        assert_eq!(cache.counters().hits.get(), 1);
        assert_eq!(cache.counters().misses.get(), 1);
    }

    #[test]
    fn key_normalizes_term_order() {
        let a = QueryKey::new(1, 5, vec![TermId(3), TermId(1), TermId(3)]);
        let b = QueryKey::new(1, 5, vec![TermId(1), TermId(3)]);
        assert_eq!(a, b);
    }

    #[test]
    fn cross_generation_hit_is_a_miss_and_evicts_lazily() {
        let cache: QueryCache<u64> = QueryCache::new(4);
        cache.insert(key(1), 1, 11);
        cache.insert(key(2), 1, 22);
        // Generation 2 takes over: the old entry must not answer, and must
        // be gone afterwards — even for a later generation-1 reader.
        assert_eq!(cache.get(&key(1), 2), None);
        assert_eq!(cache.counters().stale_evictions.get(), 1);
        assert_eq!(cache.get(&key(1), 1), None, "stale entry must be evicted");
        assert_eq!(len(&cache), 1, "only the untouched entry remains");
        // Re-populated under generation 2, it hits again.
        cache.insert(key(1), 2, 33);
        assert_eq!(cache.get(&key(1), 2), Some(33));
        // The untouched generation-1 entry still lazily dies on first touch.
        assert_eq!(cache.get(&key(2), 2), None);
        assert_eq!(cache.counters().stale_evictions.get(), 2);
        assert_eq!(len(&cache), 1);
    }

    #[test]
    fn insert_overwrites_stale_generation_in_place() {
        let cache: QueryCache<u64> = QueryCache::new(2);
        cache.insert(key(1), 1, 10);
        cache.insert(key(1), 2, 20);
        assert_eq!(cache.get(&key(1), 2), Some(20));
        assert_eq!(len(&cache), 1);
        assert_eq!(cache.counters().evictions.get(), 0);
    }

    #[test]
    fn lazy_eviction_recycles_slots() {
        // Stale-evicted slots must be reusable without growing the slab.
        let cache: QueryCache<u64> = QueryCache::new(2);
        cache.insert(key(1), 1, 10);
        cache.insert(key(2), 1, 20);
        assert_eq!(cache.get(&key(1), 2), None); // lazy-evicts slot of key 1
        cache.insert(key(3), 2, 30); // must reuse the freed slot
        assert_eq!(cache.get(&key(3), 2), Some(30));
        cache.insert(key(4), 2, 40); // at capacity again → LRU eviction
        assert_eq!(len(&cache), 2);
        assert_eq!(cache.counters().evictions.get(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache: QueryCache<u64> = QueryCache::new(3);
        for u in 0..3 {
            cache.insert(key(u), G, u as u64);
        }
        // Touch 0 so 1 becomes LRU.
        assert!(cache.get(&key(0), G).is_some());
        cache.insert(key(3), G, 3);
        assert_eq!(cache.counters().evictions.get(), 1);
        assert_eq!(cache.get(&key(1), G), None, "LRU entry should be gone");
        assert!(cache.get(&key(0), G).is_some());
        assert!(cache.get(&key(2), G).is_some());
        assert!(cache.get(&key(3), G).is_some());
        assert_eq!(len(&cache), 3);
    }

    #[test]
    fn overwrite_updates_value_in_place() {
        let cache: QueryCache<u64> = QueryCache::new(2);
        cache.insert(key(1), G, 10);
        cache.insert(key(1), G, 20);
        assert_eq!(cache.get(&key(1), G), Some(20));
        assert_eq!(len(&cache), 1);
        assert_eq!(cache.counters().evictions.get(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: QueryCache<u64> = QueryCache::new(0);
        cache.insert(key(1), G, 10);
        assert_eq!(cache.get(&key(1), G), None);
        assert_eq!(len(&cache), 0);
    }

    #[test]
    fn heavy_churn_keeps_list_consistent() {
        let cache: QueryCache<u64> = QueryCache::new(8);
        for round in 0..1000u32 {
            cache.insert(key(round % 13), G, round as u64);
            let _ = cache.get(&key((round * 7) % 13), G);
        }
        assert!(len(&cache) <= 8);
        // Every cached entry must still be retrievable.
        let mut live = 0;
        for u in 0..13 {
            if cache.get(&key(u), G).is_some() {
                live += 1;
            }
        }
        assert_eq!(live, 8);
    }

    #[test]
    fn mark_all_stale_kills_entries_lazily_with_a_typed_reason() {
        let cache: QueryCache<u64> = QueryCache::new(4);
        cache.insert(key(1), 1, 11);
        cache.insert(key(2), 1, 22);
        cache.mark_all_stale(StaleReason::FullReload);
        assert_eq!(cache.len_by_liveness(), (0, 2));
        assert_eq!(
            cache.counters().stale_by_reason[StaleReason::FullReload.index()].get(),
            2
        );
        // Same generation, but the flag alone kills the entry on touch.
        assert_eq!(cache.get(&key(1), 1), None);
        assert_eq!(cache.counters().stale_evictions.get(), 1);
        assert_eq!(len(&cache), 1);
    }

    #[test]
    fn at_capacity_insert_reclaims_stale_slots_before_live_entries() {
        let cache: QueryCache<u64> = QueryCache::new(2);
        cache.insert(key(1), 1, 11);
        cache.insert(key(2), 1, 22);
        cache.mark_all_stale(StaleReason::FullReload);
        // A cache full of corpses: fresh inserts must reclaim them instead
        // of evicting each other through the LRU path.
        cache.insert(key(3), 2, 33);
        cache.insert(key(4), 2, 44);
        assert_eq!(
            cache.counters().evictions.get(),
            0,
            "no live entry was evicted"
        );
        assert_eq!(cache.get(&key(3), 2), Some(33));
        assert_eq!(cache.get(&key(4), 2), Some(44));
        assert_eq!(cache.len_by_liveness(), (2, 0));
        // Genuinely full of live entries again: LRU eviction resumes.
        cache.insert(key(5), 2, 55);
        assert_eq!(cache.counters().evictions.get(), 1);
        assert_eq!(len(&cache), 2);
    }

    #[test]
    fn update_retag_keeps_survivors_and_types_stale_reasons() {
        let cache: QueryCache<u64> = QueryCache::new(8);
        // Generation-1 entries: Γ-affected user, assignment-term match,
        // edge-term match, and one the delta cannot touch.
        cache.insert(QueryKey::new(5, 10, vec![TermId(9)]), 1, 1);
        cache.insert(QueryKey::new(1, 10, vec![TermId(2)]), 1, 2);
        cache.insert(QueryKey::new(2, 10, vec![TermId(3)]), 1, 3);
        cache.insert(QueryKey::new(3, 10, vec![TermId(9)]), 1, 4);
        // An older-generation leftover gets the full-reload backstop: its
        // provenance is unknown, surviving it would be unsound.
        cache.insert(QueryKey::new(4, 10, vec![TermId(9)]), 0, 5);
        let scope = DeltaScope {
            edge_users: vec![NodeId(5), NodeId(7)],
            assignment_terms: vec![TermId(2)],
            edge_terms: vec![TermId(3)],
        };
        cache.retag_after_update(1, 2, &scope);
        assert_eq!(cache.counters().survivors.get(), 1);
        let by = |reason: StaleReason| cache.counters().stale_by_reason[reason.index()].get();
        assert_eq!(by(StaleReason::EdgeAdded), 2);
        assert_eq!(by(StaleReason::AssignmentChanged), 1);
        assert_eq!(by(StaleReason::FullReload), 1);
        assert_eq!(by(StaleReason::EdgeRemoved), 0);
        // The survivor answers under the new generation without recompute…
        assert_eq!(
            cache.get(&QueryKey::new(3, 10, vec![TermId(9)]), 2),
            Some(4)
        );
        // …while every affected entry is a miss.
        assert_eq!(cache.get(&QueryKey::new(5, 10, vec![TermId(9)]), 2), None);
        assert_eq!(cache.get(&QueryKey::new(1, 10, vec![TermId(2)]), 2), None);
        assert_eq!(cache.get(&QueryKey::new(2, 10, vec![TermId(3)]), 2), None);
        assert_eq!(cache.get(&QueryKey::new(4, 10, vec![TermId(9)]), 2), None);
    }

    #[test]
    fn hottest_ranks_frequent_keys_first() {
        let cache: QueryCache<u64> = QueryCache::new(4);
        for _ in 0..5 {
            let _ = cache.get(&key(1), G);
        }
        for _ in 0..3 {
            let _ = cache.get(&key(2), G);
        }
        let _ = cache.get(&key(3), G);
        assert_eq!(cache.hottest(2), vec![key(1), key(2)]);
        assert_eq!(cache.hottest(10).len(), 3);
        // Zero-capacity caches never track (caching is disabled wholesale).
        let off: QueryCache<u64> = QueryCache::new(0);
        let _ = off.get(&key(1), G);
        assert!(off.hottest(4).is_empty());
    }

    #[test]
    fn contains_peeks_without_counting() {
        let cache: QueryCache<u64> = QueryCache::new(2);
        cache.insert(key(1), 1, 10);
        assert!(cache.contains(&key(1), 1));
        assert!(!cache.contains(&key(1), 2), "wrong generation");
        assert!(!cache.contains(&key(2), 1), "never inserted");
        assert_eq!(
            cache.counters().hits.get() + cache.counters().misses.get(),
            0,
            "peeks count nothing"
        );
        cache.mark_all_stale(StaleReason::FullReload);
        assert!(!cache.contains(&key(1), 1), "stale entries don't count");
    }

    /// A deadline far enough out that no test flight ever reads as stale.
    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn single_flight_leads_then_joins_then_resolves() {
        let m: InflightMap<u64, u32> = InflightMap::new();
        let (tx1, rx1) = crossbeam::channel::bounded(1);
        let (tx2, rx2) = crossbeam::channel::bounded(1);
        assert!(matches!(
            m.begin(1, &key(7), tx1, soon(), || 99),
            FlightRole::Lead {
                cancel: 99,
                stale_cancel: None
            }
        ));
        assert!(matches!(
            m.begin(1, &key(7), tx2, soon(), || unreachable!(
                "joiner never makes a handle"
            )),
            FlightRole::Join
        ));
        assert_eq!(m.len(), 1, "one flight covers both callers");
        let waiters = m.resolve(1, &key(7));
        assert_eq!(waiters.len(), 2);
        for tx in waiters {
            tx.send(42).unwrap();
        }
        assert_eq!(rx1.recv().unwrap(), 42);
        assert_eq!(rx2.recv().unwrap(), 42);
        assert!(m.is_empty());
    }

    #[test]
    fn different_generation_or_key_is_a_separate_flight() {
        let m: InflightMap<u64, u32> = InflightMap::new();
        let (tx, _rx) = crossbeam::channel::bounded(1);
        assert!(matches!(
            m.begin(1, &key(7), tx.clone(), soon(), || 1),
            FlightRole::Lead { .. }
        ));
        assert!(matches!(
            m.begin(2, &key(7), tx.clone(), soon(), || 2),
            FlightRole::Lead { .. }
        ));
        assert!(matches!(
            m.begin(1, &key(8), tx, soon(), || 3),
            FlightRole::Lead { .. }
        ));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn a_flight_lingering_past_grace_is_taken_over() {
        let m: InflightMap<u64, u32> = InflightMap::new();
        let (tx1, rx1) = crossbeam::channel::bounded::<u64>(1);
        let (tx2, _rx2) = crossbeam::channel::bounded(1);
        // A corpse: its deadline passed more than STALE_GRACE ago (clamped
        // to "now" if the clock is too young to subtract from, in which
        // case the flight reads fresh and the takeover simply can't be
        // exercised — skip rather than flake).
        let Some(long_dead) = Instant::now().checked_sub(STALE_GRACE + Duration::from_secs(1))
        else {
            return;
        };
        assert!(matches!(
            m.begin(1, &key(7), tx1, long_dead, || 1),
            FlightRole::Lead {
                cancel: 1,
                stale_cancel: None
            }
        ));
        // The next identical query must not join the corpse forever: it
        // re-leads, and the corpse's cancel handle is surfaced so the
        // caller can release any worker still wedged on the dead execution.
        assert!(matches!(
            m.begin(1, &key(7), tx2, soon(), || 2),
            FlightRole::Lead {
                cancel: 2,
                stale_cancel: Some(1)
            }
        ));
        assert_eq!(m.len(), 1, "takeover replaces, never duplicates");
        assert!(
            rx1.try_recv().is_err(),
            "corpse waiter sees disconnect, not a value"
        );
    }

    #[test]
    fn last_abandon_surfaces_the_cancel_handle_but_keeps_the_entry() {
        let m: InflightMap<u64, u32> = InflightMap::new();
        let (tx1, _rx1) = crossbeam::channel::bounded(1);
        let (tx2, _rx2) = crossbeam::channel::bounded(1);
        let _ = m.begin(1, &key(7), tx1, soon(), || 5);
        let _ = m.begin(1, &key(7), tx2, soon(), || unreachable!());
        assert_eq!(m.abandon(1, &key(7)), None, "one waiter still live");
        assert_eq!(m.abandon(1, &key(7)), Some(5), "last abandon cancels");
        assert_eq!(
            m.abandon(1, &key(7)),
            None,
            "the cancel hand-off is one-shot, even with live saturated at 0"
        );
        // The entry survives so a racing resolve still finds the waiters.
        assert_eq!(m.resolve(1, &key(7)).len(), 2);
        assert_eq!(m.abandon(1, &key(7)), None, "resolved flight: no-op");
    }

    #[test]
    fn a_revived_flight_is_not_double_cancelled_by_a_racing_abandon() {
        let m: InflightMap<u64, u32> = InflightMap::new();
        let (tx1, _rx1) = crossbeam::channel::bounded(1);
        let (tx2, _rx2) = crossbeam::channel::bounded(1);
        let _ = m.begin(1, &key(7), tx1, soon(), || 5);
        assert_eq!(m.abandon(1, &key(7)), Some(5), "sole waiter left: cancel");
        // A late joiner revives the flight in the window before resolve…
        assert!(matches!(
            m.begin(1, &key(7), tx2, soon(), || unreachable!()),
            FlightRole::Join
        ));
        // …and its own abandon must not surface the handle a second time.
        assert_eq!(
            m.abandon(1, &key(7)),
            None,
            "an already-cancelled flight is never cancelled twice"
        );
    }

    #[test]
    fn heavy_churn_across_generations_keeps_list_consistent() {
        // Interleave generation bumps with inserts and lookups: the slab,
        // map, and recency list must stay mutually consistent.
        let cache: QueryCache<u64> = QueryCache::new(8);
        for round in 0..2000u32 {
            let generation = 1 + (round / 100) as u64;
            cache.insert(key(round % 13), generation, round as u64);
            let _ = cache.get(&key((round * 7) % 13), generation);
            let _ = cache.get(&key((round * 3) % 13), generation.saturating_sub(1));
        }
        assert!(len(&cache) <= 8);
        let final_generation = 1 + (1999 / 100) as u64;
        let mut live = 0;
        for u in 0..13 {
            if cache.get(&key(u), final_generation).is_some() {
                live += 1;
            }
        }
        assert!(live <= 8);
        assert!(cache.counters().stale_evictions.get() > 0);
    }
}
