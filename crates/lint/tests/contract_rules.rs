//! Seeded-violation fixtures for the contract rules (L8, L9): each test
//! builds a tiny synthetic workspace containing exactly the defect the
//! rule exists for and asserts the rule fires. A green `--deny` run on the
//! real workspace is meaningful only because these prove the checks are
//! armed.

use pit_lint::contracts;
use pit_lint::extract::FileIndex;
use pit_lint::rules;
use pit_lint::rules::Violation;

fn check(files: &[(&str, &str)]) -> Vec<Violation> {
    let indices: Vec<FileIndex> = files
        .iter()
        .map(|(rel, src)| FileIndex::build(rel, src))
        .collect();
    contracts::check(&indices)
}

fn only(violations: &[Violation], rule: &str) -> Vec<Violation> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .cloned()
        .collect()
}

// ─────────────────────────── L8: static lock order ───────────────────────────

const STATE_RS: &str = "crates/server/src/state.rs";

fn state_src(body: &str) -> String {
    format!(
        "impl S {{\n  fn build() -> S {{\n    let engine = RwLock::named(\"server.state.engine\", 0);\n    let lru = Mutex::named(\"server.cache.lru\", 0);\n    S\n  }}\n{body}}}\n"
    )
}

#[test]
fn l8_direct_declared_order_contradiction_fires() {
    let src = state_src(
        "  fn backward(&self) {\n    let c = self.lru.lock();\n    let slot = self.engine.write();\n  }\n",
    );
    let v = check(&[(STATE_RS, &src)]);
    let l8 = only(&v, "L8");
    assert!(
        l8.iter().any(|v| v.message.contains("contradicts")),
        "{l8:#?}"
    );
}

#[test]
fn l8_contradiction_through_a_callee_fires() {
    let src = state_src(
        "  fn sneak(&self) {\n    let c = self.lru.lock();\n    self.touch_engine();\n  }\n  fn touch_engine(&self) {\n    let g = self.engine.read();\n  }\n",
    );
    let v = check(&[(STATE_RS, &src)]);
    let l8 = only(&v, "L8");
    assert!(
        l8.iter()
            .any(|v| v.message.contains("contradicts") && v.message.contains("touch_engine")),
        "call-graph edge must be found: {l8:#?}"
    );
}

#[test]
fn l8_cycle_between_locks_fires() {
    let src = "impl S {\n  fn build() -> S {\n    let alpha = Mutex::named(\"lock.alpha\", 0);\n    let beta = Mutex::named(\"lock.beta\", 0);\n    S\n  }\n  fn one(&self) {\n    let g = self.alpha.lock();\n    let h = self.beta.lock();\n  }\n  fn two(&self) {\n    let g = self.beta.lock();\n    let h = self.alpha.lock();\n  }\n}\n";
    let v = check(&[(STATE_RS, src)]);
    let l8 = only(&v, "L8");
    assert_eq!(l8.len(), 1, "one cycle, reported once: {l8:#?}");
    assert!(
        l8[0].message.contains("lock-order cycle"),
        "{}",
        l8[0].message
    );
    assert!(l8[0].message.contains("lock.alpha"), "{}", l8[0].message);
}

#[test]
fn l8_forward_order_and_dropped_guard_are_clean() {
    let src = state_src(
        "  fn forward(&self) {\n    let slot = self.engine.write();\n    let c = self.lru.lock();\n  }\n  fn sequential(&self) {\n    let c = self.lru.lock();\n    drop(c);\n    let slot = self.engine.write();\n  }\n",
    );
    let v = check(&[(STATE_RS, &src)]);
    assert!(only(&v, "L8").is_empty(), "{v:#?}");
}

#[test]
fn l8_line_scoped_temporary_holds_nothing() {
    // The chained `.lock().take()` guard dies on its own line, so the
    // engine acquisition on the next line is NOT under `server.cache.lru`.
    let src = state_src(
        "  fn temp(&self) {\n    let v = self.lru.lock().take();\n    let slot = self.engine.write();\n  }\n",
    );
    let v = check(&[(STATE_RS, &src)]);
    assert!(only(&v, "L8").is_empty(), "{v:#?}");
}

// ──────────────────────── L9: length-arithmetic audit ────────────────────────

#[test]
fn l9_unchecked_wire_length_arithmetic_fires() {
    let src = "fn frame(bytes: &[u8]) -> Vec<u8> {\n  let mut out = Vec::with_capacity(4 + bytes.len());\n  out\n}\n";
    let v = rules::check_file("crates/server/src/protocol.rs", src);
    let l9: Vec<&Violation> = v.iter().filter(|v| v.rule == "L9").collect();
    assert_eq!(l9.len(), 1, "{l9:#?}");
    assert!(
        l9[0].message.contains("4 + bytes.len()"),
        "{}",
        l9[0].message
    );
}

#[test]
fn l9_bounded_or_checked_arithmetic_passes() {
    let bounded = "fn frame(bytes: &[u8]) -> Vec<u8> {\n  if bytes.len() > MAX_FRAME_BYTES { return Vec::new(); }\n  let mut out = Vec::with_capacity(4 + bytes.len());\n  out\n}\n";
    let checked = "fn total(len: usize) -> Option<usize> {\n  len.checked_mul(8)\n}\n";
    for src in [bounded, checked] {
        let v = rules::check_file("crates/server/src/protocol.rs", src);
        assert!(!v.iter().any(|v| v.rule == "L9"), "{v:#?}");
    }
}

#[test]
fn l9_is_scoped_to_wire_and_snapshot_paths() {
    let src = "fn f(n: usize) -> usize {\n  4 + n.len()\n}\n";
    let v = rules::check_file("crates/server/src/conn.rs", src);
    assert!(!v.iter().any(|v| v.rule == "L9"), "{v:#?}");
}
