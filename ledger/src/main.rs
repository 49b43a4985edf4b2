//! `ledger` — the repository's benchmark.
//!
//! ```text
//! ledger run   --pit PATH [--out DIR] [--seed N] [--workload NAME] [--seconds S]
//!              [--trace 0|1] [--traced] [--quick] [--repeat N]
//! ledger agree A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! `run` drives real `pit` processes over the wire through the workloads of
//! [`workloads::WORKLOADS`], checks every answer against an in-process
//! oracle, prints every metric as `workload metric value unit`, and writes
//! `result.json` (and `trace.json` for a traced run) under `--out`. With
//! `--workload` the last line of standard output is the one JSON object
//! the acceptance driver reads. Use `ledger/run.sh`, which builds `pit` and
//! this program first.

mod agree;
mod fixtures;
mod json;
mod layers;
mod loadgen;
mod oracle;
mod procs;
mod stats;
mod trace;
mod wire;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Config, Metric, Report, WORKLOADS};

/// Timed traffic per workload run, in seconds (`run_seconds` of
/// `BENCHMARK.json`): 10 s light, 4 s busy, 3 s closed, 3 s churn.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick`: 1 s of light traffic and less of the rest. A smoke run; its
/// numbers are marked not comparable.
const QUICK_SECONDS: f64 = 2.0;

/// Flags as `--name value` pairs, plus the bare words.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    /// Flags that take no value.
    const SWITCHES: [&'static str; 2] = ["traced", "quick"];

    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if Self::SWITCHES.contains(&name) => {
                    args.flags.push((name.to_string(), "1".to_string()));
                }
                Some(name) => {
                    let value = it.next().ok_or(format!("flag --{name} needs a value"))?;
                    args.flags.push((name.to_string(), value.clone()));
                }
                None => args.words.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    }
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if with_samples {
            fields.push(("samples", Json::Num(m.samples as f64)));
        }
        (m.name, Json::obj(fields))
    }))
}

fn report_json(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("end_to_end", metrics_json(&report.end_to_end, true)),
        ("per_layer", metrics_json(&report.per_layer, true)),
        (
            "notes",
            Json::Arr(report.notes.iter().map(Json::str).collect()),
        ),
    ])
}

/// Write to standard output. A reader that went away (`… | head`) is done
/// reading, not an error.
fn emit(text: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        emit(&format!("{workload} {} {} {}\n", m.name, m.value, m.unit));
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let quick = args.get("quick").is_some();
    let pit = PathBuf::from(
        args.get("pit")
            .ok_or("missing --pit PATH (use ledger/run.sh)")?,
    );
    let out = PathBuf::from(args.get("out").unwrap_or("ledger/out"));
    let seed: u64 = args.num("seed", 1)?;
    let seconds: f64 = args.num(
        "seconds",
        if quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        },
    )?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: want a value in (0, 60]"));
    }
    let repeat: u64 = args.num("repeat", 1)?;
    // `--trace 0|1` picks one kind of run (the acceptance driver's flag);
    // `--traced` runs each workload untraced and then traced.
    let kinds: &[bool] = match (args.get("trace"), args.get("traced")) {
        (Some("0"), _) | (None, None) => &[false],
        (Some("1"), _) => &[true],
        (None, Some(_)) => &[false, true],
        (Some(other), _) => return Err(format!("--trace {other}: want 0 or 1")),
    };
    let selected: Vec<_> = match args.get("workload") {
        None => WORKLOADS.iter().collect(),
        Some(name) => vec![WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; have {}", known.join(", "))
        })?],
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;

    let mut runs = Vec::new();
    let mut traces = Vec::new();
    let mut all_correct = true;
    let mut last_line = None;
    for round in 0..repeat {
        let mut per_workload = Vec::new();
        for workload in &selected {
            let mut merged: Option<Report> = None;
            for &traced in kinds {
                let config = Config {
                    pit: pit.clone(),
                    out: out.clone(),
                    seed: seed + round,
                    seconds,
                    traced,
                };
                eprintln!(
                    "ledger: {} seed {} {} — {}",
                    workload.name,
                    config.seed,
                    if traced { "traced" } else { "untraced" },
                    workload.why
                );
                let mut report = workloads::run(workload, &config)?;
                let names = |metrics: &[Metric]| metrics.iter().map(|m| m.name).collect::<Vec<_>>();
                if names(&report.end_to_end) != workloads::END_TO_END
                    || (traced && names(&report.per_layer) != layers::PER_LAYER)
                {
                    return Err("the run's metrics are not the declared ones".into());
                }
                all_correct &= report.correct;
                for note in &report.notes {
                    eprintln!("ledger: {}: {note}", workload.name);
                }
                let shown = if traced {
                    &report.per_layer
                } else {
                    &report.end_to_end
                };
                print_metrics(workload.name, shown);
                last_line = Some(Json::obj([
                    ("correct", Json::Bool(report.correct)),
                    ("attempted", Json::Num(report.attempted as f64)),
                    ("failed", Json::Num(report.failed as f64)),
                    ("metrics", metrics_json(shown, false)),
                ]));
                if let Some(trace) = report.trace.take() {
                    traces.push((
                        format!("{}#{}", workload.name, config.seed),
                        trace.to_json(),
                    ));
                }
                // End-to-end numbers come from the untraced run, per-layer
                // numbers from the traced one.
                merged = Some(match merged {
                    None => report,
                    Some(untraced) => Report {
                        per_layer: report.per_layer,
                        correct: untraced.correct && report.correct,
                        ..untraced
                    },
                });
            }
            let report = merged.expect("at least one kind of run");
            per_workload.push((report.workload, report_json(&report)));
        }
        runs.push(Json::obj([
            ("seed", Json::Num((seed + round) as f64)),
            ("workloads", Json::obj(per_workload)),
        ]));
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let result = Json::obj([
        ("schema", Json::Num(1.0)),
        // A shortened run measures too little to set beside a full one.
        ("comparable", Json::Bool(seconds == DEFAULT_SECONDS)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    let write = |name: &str, doc: &Json| {
        let path = out.join(name);
        std::fs::write(&path, doc.render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("ledger: wrote {}", path.display());
        Ok::<(), String>(())
    };
    write("result.json", &result)?;
    if !traces.is_empty() {
        write("trace.json", &Json::obj(traces))?;
    }
    if seconds != DEFAULT_SECONDS {
        eprintln!("ledger: {seconds} s runs are a smoke test; the numbers are not comparable");
    }
    // The acceptance driver reads the last line of a single-workload run.
    if let (Some(line), Some(_)) = (last_line, args.get("workload")) {
        emit(&(line.render() + "\n"));
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: a reply contradicted the oracle");
        ExitCode::FAILURE
    })
}

fn agree(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.words.as_slice() else {
        return Err("usage: ledger agree A.json B.json [--bench BENCHMARK.json]".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    let contract = agree::Contract::parse(&read(args.get("bench").unwrap_or("BENCHMARK.json"))?)?;
    let (table, all_ok) = agree::agree(
        &contract,
        &Json::parse(&read(a)?)?,
        &Json::parse(&read(b)?)?,
    );
    emit(&table);
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((command, rest)) if command == "run" => Args::parse(rest).and_then(|a| run(&a)),
        Some((command, rest)) if command == "agree" => Args::parse(rest).and_then(|a| agree(&a)),
        _ => Err("usage: ledger run … | ledger agree A.json B.json (see ledger/README.md)".into()),
    };
    // Every guard (child processes, scratch directories) has been dropped by
    // the time a result or an error gets here.
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the program must name the same workloads and
    /// metrics, in the same order, or the acceptance driver refuses the run.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
        let column = |list: &str, key: &str| -> Vec<String> {
            let entries = doc.get(list).and_then(Json::as_arr).unwrap();
            entries.iter().map(|entry| field(entry, key)).collect()
        };
        assert_eq!(column("workloads", "name"), WORKLOADS.map(|w| w.name));
        assert_eq!(column("workloads", "why"), WORKLOADS.map(|w| w.why));
        assert_eq!(column("end_to_end", "name"), workloads::END_TO_END);
        assert_eq!(column("per_layer", "name"), layers::PER_LAYER);
        assert_eq!(doc.get("run_seconds"), Some(&Json::Num(DEFAULT_SECONDS)));
    }

    #[test]
    fn flags_parse() {
        let argv: Vec<String> = ["--seed", "7", "--traced", "a.json", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&argv).unwrap();
        assert_eq!(args.num("seed", 1u64), Ok(7));
        assert_eq!(args.get("traced"), Some("1"));
        assert_eq!(args.get("trace"), Some("1"));
        assert_eq!(args.words, vec!["a.json"]);
        assert_eq!(args.num("seconds", 20.0), Ok(20.0));
        assert!(args.num::<u64>("trace", 0).is_ok());
        assert!(Args::parse(&["--seed".to_string()]).is_err());
    }
}
