//! Real `pit` processes and the scratch directory they work in, each owned
//! by a guard so that every exit path — return, error or panic — kills the
//! children and removes the files.
//!
//! The binding to the CLI is kept narrow on purpose: daemons get only
//! `--engine`, `--addr 127.0.0.1:0`, `--cache N` and `--shards …` /
//! `--in-process 2`; `pit build` gets `--corpus`, `--out`, `--summarizer`.
//! Every other flag stays at its default, so the numbers describe the
//! system as shipped.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A scratch directory under `ledger/out/`, removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// # Errors
    /// The directory could not be created.
    pub fn create(out: &Path, label: &str) -> Result<Scratch, String> {
        let path = out.join(format!("tmp-{}-{label}", std::process::id()));
        // A stale directory of the same name can only be a dead run's.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let path = path
            .canonicalize()
            .map_err(|e| format!("resolve {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Open `log` for a child's stderr, appending.
fn open_log(log: &Path) -> Result<std::fs::File, String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("open {}: {e}", log.display()))
}

/// The last lines of `log`, for an error message: the file itself dies
/// with the scratch directory.
fn log_tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let tail: Vec<&str> = text.lines().rev().take(3).collect();
    format!("stderr ends {tail:?}")
}

/// A running `pit serve` / `pit route`, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Held so the daemon's farewell line has somewhere to go.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawn `pit <args…> --addr 127.0.0.1:0` and wait for its
    /// `listening on <addr>` line. The daemon's stderr goes to `log`.
    ///
    /// # Errors
    /// The spawn failed, or the process exited before listening.
    pub fn spawn(pit: &Path, args: &[&str], log: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(pit)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(open_log(log)?)
            .spawn()
            .map_err(|e| format!("spawn {} {}: {e}", pit.display(), args.join(" ")))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let listening = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on "))
            .and_then(|addr| addr.parse().ok());
        match listening {
            Some(addr) => Ok(Daemon {
                child,
                addr,
                _stdout: stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "pit {} did not come up (first line {line:?}; {})",
                    args.join(" "),
                    log_tail(log)
                ))
            }
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) of the process so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run `pit build` to completion and return its wall time.
///
/// # Errors
/// The spawn failed or the build exited non-zero.
pub fn pit_build(
    pit: &Path,
    corpus: &Path,
    out: &Path,
    summarizer: &str,
    log: &Path,
) -> Result<Duration, String> {
    let stderr = open_log(log)?;
    let started = Instant::now();
    let status = Command::new(pit)
        .arg("build")
        .arg("--corpus")
        .arg(corpus)
        .arg("--out")
        .arg(out)
        .args(["--summarizer", summarizer])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .status()
        .map_err(|e| format!("spawn {} build: {e}", pit.display()))?;
    let took = started.elapsed();
    if status.success() {
        Ok(took)
    } else {
        Err(format!(
            "pit build --summarizer {summarizer} exited with {status} ({})",
            log_tail(log)
        ))
    }
}
