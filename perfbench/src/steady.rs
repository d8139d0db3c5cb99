//! The steadiness check: runs each workload once per seed for [`RUNS`]
//! seeds, each run in a process of its own as the benchmark command
//! would, and reports per end-to-end metric the median, the quartiles
//! and the spread (the distance between the quartiles as a share of the
//! median) against the metric's bound in `BENCHMARK.json`. The evidence
//! is written to `perfbench/evidence/<out_name>`; [`compare`] then gates
//! the change in each median between two such sets against the bound.

use crate::stats::{median, quartiles};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use voltctl_check::Json;

/// Seeds per workload in one set of runs.
pub const RUNS: u64 = 10;

/// A metric's bound from `BENCHMARK.json`.
fn bounds(benchmark: &Json) -> Vec<(String, f64)> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn evidence_path(root: &Path, name: &str) -> PathBuf {
    root.join("perfbench").join("evidence").join(name)
}

/// Runs every workload once per seed in `first_seed..first_seed + RUNS`
/// and writes the evidence file `out_name`.
pub fn run(first_seed: u64, seconds: &str, root: &Path, out_name: &str) -> Result<(), String> {
    let bounds = bounds(&read_json(&root.join("BENCHMARK.json"))?);
    let mut evidence = Vec::new();
    let (mut all_within, mut all_third) = (true, true);
    for &workload in crate::WORKLOADS {
        let mut runs: Vec<(u64, Json)> = Vec::new();
        for seed in first_seed..first_seed + RUNS {
            let seed_arg = seed.to_string();
            let (json, _) = crate::run_child(&[
                "--workload",
                workload,
                "--seed",
                &seed_arg,
                "--seconds",
                seconds,
                "--trace",
                "0",
            ])?;
            if json.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!("{workload} seed {seed} was not correct"));
            }
            runs.push((seed, json));
        }
        let mut metrics = Vec::new();
        for (name, bound) in &bounds {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|(_, j)| j.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let med = median(&values);
            let (q1, q3) = quartiles(&values).unwrap_or((med, med));
            let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
            let within = spread <= *bound;
            let third = spread <= bound / 3.0;
            all_within &= within;
            all_third &= third;
            println!(
                "steady {workload:>14} {name:>20}: median {med:.6} q1 {q1:.6} q3 {q3:.6} \
                 spread {spread:.4} bound {bound} {}",
                match (within, third) {
                    (true, true) => "ok",
                    (true, false) => "within bound, above a third of it",
                    _ => "WIDER THAN BOUND",
                }
            );
            metrics.push(format!(
                "{{\"name\":\"{name}\",\"bound\":{bound},\"median\":{med},\"q1\":{q1},\
                 \"q3\":{q3},\"spread\":{spread},\"within_bound\":{within},\
                 \"within_third_of_bound\":{third},\"values\":{values:?}}}"
            ));
        }
        let seeds: Vec<u64> = runs.iter().map(|(s, _)| *s).collect();
        evidence.push(format!(
            "{{\"workload\":\"{workload}\",\"seconds\":{seconds},\"seeds\":{seeds:?},\
             \"metrics\":[{}]}}",
            metrics.join(",")
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"host_threads\":{},\"all_within_bound\":{all_within},\
         \"all_within_third_of_bound\":{all_third},\"workloads\":[\n{}\n]}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        evidence.join(",\n")
    );
    let file = evidence_path(root, out_name);
    std::fs::create_dir_all(file.parent().expect("evidence dir has a parent"))
        .and_then(|()| std::fs::write(&file, out))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!(
        "steady: wrote {} (within bound: {all_within}, within a third: {all_third})",
        file.display()
    );
    Ok(())
}

/// Per workload and metric, the median recorded in an evidence file.
fn medians(evidence: &Json) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for w in evidence
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let workload = w.get("workload").and_then(Json::as_str).unwrap_or("?");
        for m in w.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(name), Some(median)) = (
                m.get("name").and_then(Json::as_str),
                m.get("median").and_then(Json::as_f64),
            ) {
                out.push((workload.to_string(), name.to_string(), median));
            }
        }
    }
    out
}

/// How far one workload's median of one metric moved between two sets.
#[derive(Debug)]
pub struct Drift {
    pub workload: String,
    pub metric: String,
    /// Relative change of the median from the first set to the second.
    pub change: f64,
    pub bound: f64,
}

impl Drift {
    /// Whether the change stays within the bound in either direction.
    pub fn within(&self) -> bool {
        self.change.abs() <= self.bound
    }
}

/// The drift of every median from `first` to `second`.
pub fn drifts(first: &Json, second: &Json, bounds: &[(String, f64)]) -> Result<Vec<Drift>, String> {
    let later = medians(second);
    let mut out = Vec::new();
    for (workload, name, before) in medians(first) {
        let bound = bounds
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, b)| b)
            .ok_or_else(|| format!("{name} has no bound in BENCHMARK.json"))?;
        let after = later
            .iter()
            .find(|(w, n, _)| *w == workload && *n == name)
            .map(|&(_, _, m)| m)
            .ok_or_else(|| format!("{workload} {name} is missing from the second set"))?;
        let change = if before == 0.0 {
            if after == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (after - before) / before
        };
        out.push(Drift {
            workload,
            metric: name,
            change,
            bound,
        });
    }
    if out.is_empty() {
        return Err("the first evidence file records no medians".into());
    }
    Ok(out)
}

/// Compares two evidence files: fails when any workload's median of any
/// end-to-end metric moved by more than the metric's bound.
pub fn compare(root: &Path, first: &str, second: &str) -> Result<(), String> {
    let bounds = bounds(&read_json(&root.join("BENCHMARK.json"))?);
    let (a, b) = (
        read_json(&evidence_path(root, first))?,
        read_json(&evidence_path(root, second))?,
    );
    let mut wider = 0;
    for d in drifts(&a, &b, &bounds)? {
        wider += usize::from(!d.within());
        println!(
            "agree {:>14} {:>20}: median change {:+.4} bound {} {}",
            d.workload,
            d.metric,
            d.change,
            d.bound,
            if d.within() { "ok" } else { "WIDER THAN BOUND" }
        );
    }
    if wider > 0 {
        return Err(format!("{wider} medians moved by more than their bound"));
    }
    println!("agree: every median of {second} is within its bound of {first}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evidence(median: f64) -> Json {
        Json::parse(&format!(
            "{{\"workloads\":[{{\"workload\":\"w\",\"metrics\":[{{\"name\":\"wall_s\",\"median\":{median}}}]}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn drift_is_gated_in_both_directions() {
        let bounds = [("wall_s".to_string(), 0.25)];
        let check =
            |a: f64, b: f64| drifts(&evidence(a), &evidence(b), &bounds).unwrap()[0].within();
        assert!(check(4.0, 4.9));
        assert!(!check(4.0, 5.1));
        assert!(check(4.0, 3.1));
        assert!(!check(4.0, 2.9));
        assert!(drifts(&evidence(4.0), &evidence(4.0), &[]).is_err());
    }
}
