//! In-process integration tests for the `pit` subcommands: the full
//! generate → build → stats/query/audience lifecycle against real temp
//! directories, plus the error paths a user actually hits.

use pit_cli::args::{parse, Parsed};
use pit_cli::commands;
use std::path::PathBuf;

fn argv(s: &str) -> Parsed {
    let v: Vec<String> = s.split_whitespace().map(str::to_string).collect();
    parse(&v).expect("test argv parses")
}

struct TempDirs {
    corpus: PathBuf,
    engine: PathBuf,
}

impl TempDirs {
    fn new(tag: &str) -> Self {
        let base = std::env::temp_dir().join(format!("pit-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        TempDirs {
            corpus: base.join("corpus"),
            engine: base.join("engine"),
        }
    }
}

impl Drop for TempDirs {
    fn drop(&mut self) {
        if let Some(base) = self.corpus.parent() {
            let _ = std::fs::remove_dir_all(base);
        }
    }
}

/// One shared lifecycle: generate a small corpus, build an engine, then run
/// every read command against it. Serialized in a single test to build the
/// corpus once.
#[test]
fn full_lifecycle() {
    let dirs = TempDirs::new("lifecycle");
    let corpus = dirs.corpus.display().to_string();
    let engine = dirs.engine.display().to_string();

    // generate: use the heavy scale so data_350k shrinks to 1000 nodes.
    commands::generate(&argv(&format!(
        "generate --dataset data_350k --scale 1000 --out {corpus}"
    )))
    .expect("generate succeeds");
    for f in ["graph.pitg", "topics.pitt", "vocab.pitv"] {
        assert!(dirs.corpus.join(f).exists(), "missing corpus file {f}");
    }

    // build (LRW default).
    commands::build(&argv(&format!(
        "build --corpus {corpus} --out {engine} --reps 8 --walk-r 8 --walk-l 3"
    )))
    .expect("build succeeds");
    assert!(
        dirs.engine.join("engine.pitf").exists(),
        "missing flat engine snapshot"
    );

    // stats, query, audience all succeed against the built engine.
    commands::stats(&argv(&format!("stats --engine {engine}"))).expect("stats succeeds");
    commands::query(&argv(&format!(
        "query --engine {engine} --user 3 --keywords query-0 --k 5"
    )))
    .expect("query succeeds");
    commands::audience(&argv(&format!(
        "audience --engine {engine} --topic 0 --keyword query-0 --k 3 --sample 20"
    )))
    .expect("audience succeeds");

    // Error paths against the same engine.
    let err = commands::query(&argv(&format!(
        "query --engine {engine} --user 999999 --keywords query-0"
    )))
    .unwrap_err()
    .to_string();
    assert!(err.contains("out of range"), "{err}");

    let err = commands::query(&argv(&format!(
        "query --engine {engine} --user 3 --keywords nope"
    )))
    .unwrap_err()
    .to_string();
    assert!(err.contains("unknown keyword"), "{err}");

    let err = commands::audience(&argv(&format!(
        "audience --engine {engine} --topic 999999 --keyword query-0"
    )))
    .unwrap_err()
    .to_string();
    assert!(err.contains("out of range"), "{err}");

    // RCL build variant over the same corpus.
    let engine2 = dirs.engine.with_extension("rcl");
    commands::build(&argv(&format!(
        "build --corpus {corpus} --out {} --summarizer rcl --reps 8 --walk-r 8 --walk-l 3",
        engine2.display()
    )))
    .expect("rcl build succeeds");
    commands::query(&argv(&format!(
        "query --engine {} --user 3 --keywords query-0 --k 5",
        engine2.display()
    )))
    .expect("query against rcl engine succeeds");
    let _ = std::fs::remove_dir_all(engine2);
}

#[test]
fn generate_rejects_unknown_dataset() {
    let dirs = TempDirs::new("baddataset");
    let err = commands::generate(&argv(&format!(
        "generate --dataset data_nope --out {}",
        dirs.corpus.display()
    )))
    .unwrap_err()
    .to_string();
    assert!(err.contains("unknown dataset"), "{err}");
    assert!(err.contains("data_2k"), "should list available: {err}");
}

#[test]
fn build_rejects_unknown_summarizer_and_missing_corpus() {
    let dirs = TempDirs::new("badbuild");
    let err = commands::build(&argv(&format!(
        "build --corpus /nonexistent --out {} --summarizer magic",
        dirs.engine.display()
    )))
    .unwrap_err()
    .to_string();
    assert!(err.contains("unknown summarizer"), "{err}");

    let err = commands::build(&argv(&format!(
        "build --corpus /nonexistent --out {}",
        dirs.engine.display()
    )))
    .unwrap_err()
    .to_string();
    assert!(
        err.contains("No such file") || err.contains("os error"),
        "{err}"
    );
}

#[test]
fn read_commands_reject_missing_engine() {
    for cmd in [
        "stats --engine /nonexistent-engine",
        "query --engine /nonexistent-engine --user 0 --keywords x",
        "audience --engine /nonexistent-engine --topic 0 --keyword x",
    ] {
        let p = argv(cmd);
        let err = match p.command.as_str() {
            "stats" => commands::stats(&p),
            "query" => commands::query(&p),
            _ => commands::audience(&p),
        }
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("No such file")
                || err.contains("os error")
                || err.contains("no engine.pitf"),
            "{cmd}: {err}"
        );
    }
}
