//! `ledger agree A.json B.json`: do two result sets agree within the
//! bounds `BENCHMARK.json` fixes? One verdict per (workload, end-to-end
//! metric): `ok`, `worse` (B's median is worse than A's by more than the
//! bound) or `unresolved` (either set's own run-to-run spread is wider
//! than the bound, so the comparison cannot tell).

use crate::json::Json;
use crate::stats::{median, spread};

/// One end-to-end metric's declaration in `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The workloads and bounded metrics `BENCHMARK.json` declares.
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bound>,
}

impl Contract {
    /// # Errors
    /// A missing or ill-typed key.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let names = |key: &str| -> Result<Vec<&Json>, String> {
            Ok(doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no {key} array"))?
                .iter()
                .collect())
        };
        let name_of = |entry: &Json| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("BENCHMARK.json: an entry without a name".to_string())
        };
        let end_to_end = names("end_to_end")?
            .into_iter()
            .map(|entry| {
                Ok(Bound {
                    name: name_of(entry)?,
                    lower_is_better: entry.get("better").and_then(Json::as_str) == Some("lower"),
                    bound: entry
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("BENCHMARK.json: an end-to-end metric without a bound")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Contract {
            workloads: names("workloads")?
                .into_iter()
                .map(name_of)
                .collect::<Result<_, _>>()?,
            end_to_end,
        })
    }
}

/// Every run's value of one (workload, metric) cell of a result set.
fn cell(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judge one cell. `None` when either side has no value for it.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> Option<(Verdict, f64)> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let (median_a, median_b) = (median(a), median(b));
    let worse_by = if bound.lower_is_better {
        (median_b - median_a) / median_a.abs()
    } else {
        (median_a - median_b) / median_a.abs()
    };
    // A single run has no spread to speak of; it can be compared, not
    // declared steady.
    let too_wide = |values: &[f64]| spread(values).is_some_and(|s| s > bound.bound);
    let verdict = if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some((verdict, worse_by))
}

/// The verdict table, and whether every cell is `ok`.
pub fn agree(contract: &Contract, a: &Json, b: &Json) -> (String, bool) {
    let mut table = String::new();
    for (label, set) in [("A", a), ("B", b)] {
        if set.get("comparable") != Some(&Json::Bool(true)) {
            table += &format!("note: {label} is a --quick result set, marked not comparable\n");
        }
    }
    table += &format!(
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>9} {:>9} {:>7}  verdict\n",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "worse by", "bound"
    );
    let mut all_ok = true;
    let share = |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0));
    for workload in &contract.workloads {
        for bound in &contract.end_to_end {
            let (va, vb) = (
                cell(a, workload, &bound.name),
                cell(b, workload, &bound.name),
            );
            let Some((verdict, worse_by)) = judge(bound, &va, &vb) else {
                table += &format!(
                    "{workload:<14} {:<16} missing from a result set\n",
                    bound.name
                );
                all_ok = false;
                continue;
            };
            all_ok &= verdict == Verdict::Ok;
            table += &format!(
                "{workload:<14} {:<16} {:>12.4} {:>12.4} {:>9} {:>9} {:>8.2}% {:>6.1}%  {}\n",
                bound.name,
                median(&va),
                median(&vb),
                share(spread(&va)),
                share(spread(&vb)),
                worse_by * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    (table, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [8.0, 12.0, 10.0, 7.0, 13.0];
        let latency = bound(true, 0.10);
        assert_eq!(judge(&latency, &steady, &steady).unwrap().0, Verdict::Ok);
        assert_eq!(judge(&latency, &steady, &slower).unwrap().0, Verdict::Worse);
        // Faster is never worse.
        assert_eq!(judge(&latency, &slower, &steady).unwrap().0, Verdict::Ok);
        assert_eq!(
            judge(&latency, &steady, &noisy).unwrap().0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&latency, &noisy, &steady).unwrap().0,
            Verdict::Unresolved
        );
        // For a rate, lower is the worse direction.
        let rate = bound(false, 0.10);
        assert_eq!(judge(&rate, &slower, &steady).unwrap().0, Verdict::Worse);
        assert_eq!(judge(&rate, &steady, &slower).unwrap().0, Verdict::Ok);
        // One run a side still compares.
        assert_eq!(judge(&latency, &[10.0], &[10.5]).unwrap().0, Verdict::Ok);
        assert_eq!(judge(&latency, &[10.0], &[12.0]).unwrap().0, Verdict::Worse);
        assert!(judge(&latency, &[], &[1.0]).is_none());
    }

    #[test]
    fn reads_cells_out_of_a_result_set() {
        let set = Json::parse(
            r#"{"comparable":true,"runs":[
                {"seed":1,"workloads":{"w":{"end_to_end":{"m":{"value":1.5,"unit":"ms"}}}}},
                {"seed":2,"workloads":{"w":{"end_to_end":{"m":{"value":2.5,"unit":"ms"}}}}}]}"#,
        )
        .unwrap();
        assert_eq!(cell(&set, "w", "m"), vec![1.5, 2.5]);
        assert!(cell(&set, "w", "absent").is_empty());
        assert!(cell(&set, "absent", "m").is_empty());
    }
}
