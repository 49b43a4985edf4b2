//! Helpers shared by the pit-cli integration tests: spawning the real `pit`
//! daemons, plus pit-server's test support (engine fixture, request/reply,
//! `STATS` lookup and the fault-injecting [`Faulty`] engine), included by
//! path so both crates use one definition.

#![allow(dead_code)]

#[path = "../../../server/tests/support/mod.rs"]
mod support;

pub use support::*;

use pit::PitEngine;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// Build [`tiny_engine`]`(400, seed)` and save it where `pit serve` and
/// `RELOAD` can load it.
pub fn build_engine(dir: &Path, seed: u64) -> PitEngine {
    let engine = tiny_engine(400, seed);
    pit::store::save_engine(dir, &engine).expect("save engine");
    engine
}

/// Spawn `pit <args…> --addr 127.0.0.1:0` and return the child with the
/// address parsed from its `listening on` banner.
pub fn spawn_daemon(args: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pit"))
        .args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pit daemon");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon printed a banner")
        .expect("read banner");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// Spawn `pit serve --engine <engine_dir> <extra…>` on an ephemeral port.
pub fn spawn_server(engine_dir: &Path, extra: &[&str]) -> (Child, String) {
    let dir = engine_dir.to_str().expect("utf-8 scratch path");
    let mut args = vec!["serve", "--engine", dir];
    args.extend_from_slice(extra);
    spawn_daemon(&args)
}
