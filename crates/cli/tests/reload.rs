//! Live-reload integration tests against the real `pit` binary: failed
//! reloads must leave the prior generation serving, and the `pit reload` /
//! `pit update` subcommands must drive a live daemon. The slow-reload drill
//! (queries keep flowing while a RELOAD is in flight) runs in-process in
//! pit-server's `daemon` tests, where the slow swap is injected.

mod common;

use common::{
    ask, build_engine, connect, get_stat, offline_ranking, query, scratch_dir, spawn_server,
};
use pit::store;
use pit_server::protocol::{Admin, Request, Response, Successor};
use std::process::Command;

const PROBE_USER: u32 = 7;
const K: usize = 5;

#[test]
fn failed_reload_leaves_the_prior_generation_serving() {
    let dir_a = scratch_dir("fail-a");
    let dir_b = scratch_dir("fail-b");
    let engine_a = build_engine(&dir_a, 17);
    build_engine(&dir_b, 23);
    let old_ranking = offline_ranking(&engine_a, PROBE_USER, K);

    let (mut child, addr) = spawn_server(&dir_a, &["--workers", "2", "--cache", "16"]);
    let mut c = connect(&addr);

    // A missing snapshot directory.
    let missing = Request::Admin(Admin::Install {
        next: Successor::Snapshot("/no/such/snapshot-dir".into()),
        commit: true,
    });
    let Response::Err(reason) = ask(&mut c, &missing) else {
        panic!("reload of a missing snapshot must fail");
    };
    assert!(
        reason.to_string().starts_with("reload-failed"),
        "got: {reason}"
    );

    // A torn snapshot: directory exists, artifacts are garbage.
    let torn = scratch_dir("fail-torn");
    std::fs::write(torn.join("graph.pitg"), b"not a snapshot").unwrap();
    let corrupt = Request::Admin(Admin::Install {
        next: Successor::Snapshot(torn.clone()),
        commit: true,
    });
    let Response::Err(reason) = ask(&mut c, &corrupt) else {
        panic!("reload of a torn snapshot must fail");
    };
    assert!(
        reason.to_string().starts_with("reload-failed"),
        "got: {reason}"
    );

    // Still generation 1, still answering the old rankings.
    let Response::Topics { ranked, .. } = ask(&mut c, &query(PROBE_USER, K, "query-0")) else {
        panic!("daemon stopped serving after failed reloads");
    };
    assert_eq!(ranked, old_ranking);
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "generation"), 1);
    assert_eq!(get_stat(&pairs, "reloads"), 0);
    assert_eq!(get_stat(&pairs, "reload_failures"), 2);

    // The daemon is not wedged: a good snapshot still swaps in.
    let good = Request::Admin(Admin::Install {
        next: Successor::Snapshot(dir_b.clone()),
        commit: true,
    });
    assert_eq!(ask(&mut c, &good), Response::Generation(2));

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_dir_all(&torn);
}

/// Run the `pit` binary with `args` and return (success, stdout, stderr).
fn run_pit(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pit"))
        .args(args)
        .output()
        .expect("run pit");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_reload_and_update_subcommands_drive_a_live_daemon() {
    let dir_a = scratch_dir("cli-a");
    let dir_b = scratch_dir("cli-b");
    build_engine(&dir_a, 17);
    let engine_b = build_engine(&dir_b, 23);

    let (mut child, addr) = spawn_server(&dir_a, &["--workers", "2"]);

    // `pit reload` swaps the daemon onto snapshot B.
    let (ok, stdout, stderr) = run_pit(&[
        "reload",
        "--addr",
        &addr,
        "--dir",
        &dir_b.display().to_string(),
    ]);
    assert!(ok, "pit reload failed: {stderr}");
    assert!(stdout.contains("generation 2"), "stdout: {stdout}");

    // `pit update` pushes an edge delta (an edge B does not already have).
    let u = pit_graph::NodeId(PROBE_USER);
    let v = (0..engine_b.graph().node_count() as u32)
        .map(pit_graph::NodeId)
        .find(|&v| v != u && !engine_b.graph().has_edge(u, v))
        .expect("fixture graph is not complete");
    let edge = format!("{}:{}:0.6", u.0, v.0);
    let (ok, stdout, stderr) = run_pit(&["update", "--addr", &addr, "--edges", &edge]);
    assert!(ok, "pit update failed: {stderr}");
    assert!(stdout.contains("generation 3"), "stdout: {stdout}");

    // Served rankings now match an offline apply of the same delta to B —
    // to B *as loaded from disk*: `load_engine` restores the summarizer
    // kind with default parameters (the sets already embody the originals),
    // and the daemon's delta apply re-summarizes under that config.
    let delta = pit::Delta {
        new_edges: vec![(u, v, 0.6)],
        new_assignments: vec![],
    };
    let loaded_b = store::load_engine(&dir_b).expect("load snapshot B");
    let (expected_engine, _) = loaded_b.with_delta(&delta).expect("offline apply");
    let expected = offline_ranking(&expected_engine, PROBE_USER, K);
    let mut c = connect(&addr);
    let Response::Topics { ranked, .. } = ask(&mut c, &query(PROBE_USER, K, "query-0")) else {
        panic!("expected topics");
    };
    assert_eq!(ranked, expected, "served delta diverged from offline apply");

    // A bad delta surfaces the reload-failed class through the CLI.
    let (ok, _, stderr) = run_pit(&["update", "--addr", &addr, "--assign", "1:999999"]);
    assert!(!ok, "update with an unknown topic must fail");
    assert!(stderr.contains("reload-failed"), "stderr: {stderr}");

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
