//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <actuator_sweep|spec_census> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every measured run happens in a fresh process with cold per-process
//! memos: the binary re-executes itself once per scenario run. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. Lines before it
//! record the run's traffic properties and details.
//!
//! Three more modes:
//!
//! ```text
//! perfbench --steady --seconds <s> [--first-seed 1] [--out <file>]
//! perfbench --compare <file> <file>
//! perfbench --bless
//! ```
//!
//! `--steady` runs every workload once per seed for ten seeds and writes
//! median, quartiles and spread per end-to-end metric to
//! `perfbench/evidence/<file>`; `--compare` fails when a median moved
//! between two such files by more than the metric's bound; `--bless`
//! prints fresh lines for `reference.txt`.
//!
//! End-to-end metrics, host time throughout, medians over a run's
//! repetitions except the peak memory:
//!
//! * `wall_s`: the scenario run after set-up;
//! * `cpu_s`: user + system CPU of the process running the scenario over
//!   the same interval, from `/proc`;
//! * `setup_s`: process start plus the per-process memos every
//!   invocation pays;
//! * `peak_rss_mb`: the largest `VmHWM` of the run's scenario processes
//!   (`spec_census` peaks at one of two levels, 6 MiB apart, by how its
//!   two threads' allocations interleave; the largest is the run's peak);
//! * `ok_frac`: operations that succeeded with byte-identical output,
//!   over operations attempted (the complement of the failed share, so
//!   the metric never reads 0);
//! * `job_latency_p50_ms` and `jobs_per_s`: per job, where a job is one
//!   invocation, from process spawn to the verified report; invocations
//!   run one at a time, so the rate is the reciprocal of the median
//!   latency (a mean would follow the one slow invocation a run often
//!   has).
//!
//! A traced run times the engine from inside: it runs the scenario
//! through `run_scenario_profiled` with [`cli::EngineSpans`], which turns
//! each stage the engine records (lane gather, step and scatter per
//! chunk; each scalar cell; merge and render) into a span. `--trace 1`
//! alternates plain and profiled processes, so `trace.overhead_frac`
//! compares medians of the same code with and without the hook. The
//! metrics of a layer the workload bypasses read 0 (lanes on
//! `spec_census`).
//!
//! The serve layer has no workload of its own: a daemon's time on this
//! kind of small shared host is mostly kernel time whose speed drifts
//! with the host's load, beyond any bound the benchmark may set. Every
//! traced run ends with [`serve::probe`], a seeded batch of short jobs
//! through a fresh `voltctl-serve` daemon, which gives the `serve.*`
//! metrics (the same batch on every workload).

mod cli;
mod layers;
mod procfs;
mod refs;
mod serve;
mod spans;
mod stats;
mod steady;

use cli::CliWorkload;
use stats::median;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use voltctl_check::Json;

/// End-to-end metrics, in `BENCHMARK.json` order: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("job_latency_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cpu.step_ns", "ns"),
    ("cpu.cycles", "count"),
    ("cpu.ipc", "ratio"),
    ("power.current_ns", "ns"),
    ("pdn.step_ns", "ns"),
    ("control.observe_ns", "ns"),
    ("loop.step_ns", "ns"),
    ("loop.self_ns", "ns"),
    ("lanes.gather_ms", "ms"),
    ("lanes.gather_share", "ratio"),
    ("lanes.step_ns_per_lane_cycle", "ns"),
    ("lanes.scatter_ms", "ms"),
    ("lanes.lanes_per_group", "ratio"),
    ("lanes.batched_cell_share", "ratio"),
    ("thresholds.solve_ms", "ms"),
    ("thresholds.solve_hit_ratio", "ratio"),
    ("pdn.calibrate_ms", "ms"),
    ("workloads.tune_ms", "ms"),
    ("engine.grid_s", "s"),
    ("engine.critical_cell_s", "s"),
    ("engine.assemble_ms", "ms"),
    ("snap.save_mb_s", "MB/s"),
    ("snap.restore_mb_s", "MB/s"),
    ("snap.checkpoint_encode_us", "us"),
    ("snap.checkpoint_decode_us", "us"),
    ("snap.checkpoint_bytes", "bytes"),
    ("serve.resume_share", "ratio"),
    ("serve.parse_ns", "ns"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.report_ms_p50", "ms"),
    ("serve.metrics_scrape_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.run_ms_p99", "ms"),
    ("serve.retries_429", "count"),
    ("serve.job_latency_p99_ms", "ms"),
    ("serve.read_latency_p99_ms", "ms"),
    ("trace.span_floor_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["actuator_sweep", "spec_census"];

/// Fresh CLI processes per measured run, and plain/traced pairs per
/// traced run, at least.
const MIN_REPS: usize = 3;

/// Whether one more repetition, as long as the mean so far, ends by
/// `seconds` (half a repetition of slack).
fn fits_another(start: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + 0.5 * elapsed / done as f64 <= seconds
}

/// Where runs leave spans and scratch state (ignored by git).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer".to_string())?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result line: metrics in table order.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &[(&str, f64)],
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    ))
}

/// Spawns this binary as a child with `args`; returns its last stdout
/// line parsed as JSON and the child's spawn-to-exit seconds.
fn run_child(args: &[&str]) -> Result<(Json, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .env(cli::SPAWN_ENV, cli::spawn_stamp())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    // Earlier lines are the child's details: pass them on.
    let mut last = String::new();
    let mut read_error = None;
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) if !line.trim().is_empty() => {
                if !last.is_empty() {
                    println!("{last}");
                }
                last = line;
            }
            Ok(_) => {}
            Err(e) => {
                // Stop the child before reporting, so none outlives us.
                let _ = child.kill();
                read_error = Some(format!("child stdout: {e}"));
                break;
            }
        }
    }
    let status = child.wait().map_err(|e| format!("wait child: {e}"))?;
    if let Some(e) = read_error {
        return Err(e);
    }
    let secs = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("child {args:?} exited with {status}"));
    }
    let json = Json::parse(&last).map_err(|e| format!("child output {last:?}: {e}"))?;
    Ok((json, secs))
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn flag_true(json: &Json, key: &str) -> bool {
    json.get(key).and_then(Json::as_bool) == Some(true)
}

fn program_names(names: impl IntoIterator<Item = String>) -> String {
    let names: Vec<String> = names.into_iter().map(|n| format!("\"{n}\"")).collect();
    format!("[{}]", names.join(","))
}

/// The traced CLI run: fresh plain and profiled processes in turn, so
/// `trace.overhead_frac` compares medians of the same scenario run with
/// and without the engine's profiler hook, then one process for the
/// layer probes and the serve probe's daemon batch. Engine figures are
/// medians over the profiled runs.
fn cli_traced(w: CliWorkload, args: &Args, kernels: &str) -> Result<String, String> {
    let spans_dir = out_dir();
    let spans = |tag: &str| {
        spans_dir
            .join(format!("spans-{}-{}-{tag}.jsonl", w.name, args.seed))
            .to_string_lossy()
            .into_owned()
    };
    let start = Instant::now();
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    while plain.len() < MIN_REPS || fits_another(start, plain.len(), args.seconds) {
        plain.push(run_child(&["--child", "cli", "--workload", w.name])?.0);
        let path = spans(&format!("run{}", profiled.len() + 1));
        profiled.push(run_child(&["--child", "cli", "--workload", w.name, "--spans", &path])?.0);
    }
    let (layers, _) = run_child(&[
        "--child",
        "cli-layers",
        "--workload",
        w.name,
        "--spans",
        &spans("layers"),
    ])?;
    let med =
        |runs: &[Json], key: &str| median(&runs.iter().map(|j| num(j, key)).collect::<Vec<_>>());
    let good = plain
        .iter()
        .chain(&profiled)
        .chain([&layers])
        .filter(|j| flag_true(j, "digest_ok"))
        .count();
    let serve = serve::probe(
        args.seed,
        &spans_dir,
        Path::new(&spans("serve")),
        layers::span_floor_ns(),
    )?;
    let cli_attempted = (plain.len() + profiled.len() + 1) as u64;
    let attempted = cli_attempted + serve.attempted;
    let failed = cli_attempted - good as u64
        + serve.failed
        + u64::from(!flag_true(&layers, "invariants_ok"));
    let solve_hits = med(&profiled, "solve_hits");
    let solve_ratio = solve_hits / (solve_hits + med(&profiled, "solve_misses")).max(1.0);
    let lane_cycles = num(&layers, "lane_cycles");

    let mut values: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, _)| (name, num(&layers, name)))
        .filter(|(_, v)| !v.is_nan())
        .collect();
    for name in [
        "lanes.gather_ms",
        "lanes.gather_share",
        "lanes.scatter_ms",
        "engine.grid_s",
        "engine.critical_cell_s",
        "engine.assemble_ms",
    ] {
        values.push((name, med(&profiled, name)));
    }
    let step_ns = med(&profiled, "lanes.step_ms") * 1e6;
    values.push((
        "lanes.step_ns_per_lane_cycle",
        if lane_cycles > 0.0 {
            step_ns / lane_cycles
        } else {
            0.0
        },
    ));
    values.push(("thresholds.solve_hit_ratio", solve_ratio));
    values.extend(serve.values);
    let plain_wall = med(&plain, "wall_s");
    values.push((
        "trace.overhead_frac",
        med(&profiled, "wall_s") / plain_wall - 1.0,
    ));
    println!(
        "traffic {{\"seed\":{},\"workload\":\"{}\",\"scenario\":\"{}\",\"scale\":{},\
         \"lane_batched_cell_share\":{},\"lanes_per_group\":{},\"solve_hit_ratio\":{solve_ratio},\
         \"kernels\":{kernels},{},\"spans\":\"{}\"}}",
        args.seed,
        w.name,
        w.scenario,
        w.scale,
        num(&layers, "lanes.batched_cell_share"),
        num(&layers, "lanes.lanes_per_group"),
        serve.traffic,
        spans("*"),
    );
    println!(
        "detail {{\"pairs\":{},\"serve_batch_wall_s\":{},\"plain_wall_s\":{:?},\"profiled_wall_s\":{:?}}}",
        plain.len(),
        serve.wall_s,
        plain.iter().map(|j| num(j, "wall_s")).collect::<Vec<_>>(),
        profiled
            .iter()
            .map(|j| num(j, "wall_s"))
            .collect::<Vec<_>>(),
    );
    result_line(failed == 0, attempted, failed, PER_LAYER, &values)
}

fn cli_run(w: CliWorkload, args: &Args) -> Result<String, String> {
    let kernels = program_names(w.programs().into_iter().map(|p| p.name));
    if args.trace {
        return cli_traced(w, args, &kernels);
    }

    // Fresh processes until the next one would end past `seconds`; the
    // first also checks the modelled invariants.
    let start = Instant::now();
    let mut reps = vec![run_child(&[
        "--child",
        "cli",
        "--workload",
        w.name,
        "--probe",
    ])?];
    let invariants_ok = flag_true(&reps[0].0, "invariants_ok");
    while reps.len() < MIN_REPS || fits_another(start, reps.len(), args.seconds) {
        reps.push(run_child(&["--child", "cli", "--workload", w.name])?);
    }
    let col = |key: &str| -> Vec<f64> { reps.iter().map(|(j, _)| num(j, key)).collect() };
    let good = reps
        .iter()
        .filter(|(j, _)| flag_true(j, "digest_ok"))
        .count();
    let attempted = reps.len() as u64 + 1;
    let failed = attempted - good as u64 - u64::from(invariants_ok);
    let solve_hits: f64 = col("solve_hits").iter().sum();
    let solve_lookups = solve_hits + col("solve_misses").iter().sum::<f64>();
    println!(
        "traffic {{\"seed\":{},\"workload\":\"{}\",\"scenario\":\"{}\",\"scale\":{},\
         \"cells\":{},\"lane_batched_cell_share\":{},\"solve_hit_ratio\":{},\"kernels\":{kernels}}}",
        args.seed,
        w.name,
        w.scenario,
        w.scale,
        num(&reps[0].0, "cells"),
        num(&reps[0].0, "batched_cells") / num(&reps[0].0, "cells"),
        solve_hits / solve_lookups.max(1.0),
    );
    println!(
        "detail {{\"reps\":{},\"wall_s\":{:?},\"cpu_s\":{:?},\"setup_s\":{:?},\"digests\":{:?}}}",
        reps.len(),
        col("wall_s"),
        col("cpu_s"),
        col("setup_s"),
        reps.iter()
            .map(|(j, _)| j
                .get("digest")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string())
            .collect::<Vec<_>>()
    );
    let values = [
        ("wall_s", median(&col("wall_s"))),
        ("cpu_s", median(&col("cpu_s"))),
        ("setup_s", median(&col("setup_s"))),
        (
            "peak_rss_mb",
            col("peak_rss_mb").into_iter().fold(f64::NAN, f64::max),
        ),
        ("ok_frac", (attempted - failed) as f64 / attempted as f64),
        ("job_latency_p50_ms", median(&col("latency_s")) * 1e3),
        ("jobs_per_s", 1.0 / median(&col("latency_s"))),
    ];
    result_line(failed == 0, attempted, failed, END_TO_END, &values)
}

/// Prints the reference lines for every workload.
fn bless() -> Result<(), String> {
    for name in ["actuator_sweep", "spec_census"] {
        let (json, _) = run_child(&["--child", "cli", "--workload", name, "--probe"])?;
        let digest = json
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|d| u64::from_str_radix(d, 16).ok());
        let inv = layers::Invariants {
            cpu_cycles: num(&json, "cpu_cycles") as u64,
            cpu_ipc: num(&json, "cpu_ipc"),
            interventions_per_mcycle: num(&json, "interventions_per_mcycle"),
            gated_duty: num(&json, "gated_duty"),
        };
        print!("{}", refs::bless_lines(name, digest, &inv));
    }
    Ok(())
}

fn child_mode(mode: &str, args: &[String]) -> Result<(), String> {
    let workload = || {
        flag(args, "--workload")
            .and_then(CliWorkload::by_name)
            .ok_or_else(|| "child needs a CLI --workload".to_string())
    };
    match mode {
        "cli" => cli::child(
            workload()?,
            args.iter().any(|a| a == "--probe"),
            flag(args, "--spans").map(Path::new),
        ),
        "cli-layers" => {
            let spans = flag(args, "--spans").ok_or("cli-layers needs --spans")?;
            cli::layers_child(workload()?, Path::new(spans))
        }
        "serve-daemon" => {
            let root = flag(args, "--root").ok_or("serve-daemon needs --root")?;
            serve::daemon_child(Path::new(root))
        }
        other => Err(format!("unknown child mode {other:?}")),
    }
}

/// Evidence files are named, not pathed: they live in `perfbench/evidence`.
fn plain_file_name(name: &str) -> Result<(), String> {
    if name.contains('/') || name.starts_with('.') {
        return Err(format!("{name:?} must be a plain file name"));
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    if let Some(mode) = flag(args, "--child") {
        return child_mode(mode, args);
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    if args.iter().any(|a| a == "--bless") {
        return bless();
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if args.iter().any(|a| a == "--steady") {
        let first: u64 = flag(args, "--first-seed")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "bad --first-seed")?;
        let seconds = flag(args, "--seconds").ok_or("--steady needs --seconds")?;
        let out = flag(args, "--out").unwrap_or("steadiness.json");
        plain_file_name(out)?;
        return steady::run(first, seconds, &root, out);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(first), Some(second)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare needs two evidence file names".into());
        };
        plain_file_name(first)?;
        plain_file_name(second)?;
        return steady::compare(&root, first, second);
    }
    let args = parse_args(args)?;
    let w = CliWorkload::by_name(&args.workload).expect("parse_args checked the name");
    let line = cli_run(w, &args)?;
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let started = Instant::now();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!(
                "perfbench: {e} (after {:.1?})",
                Duration::from_secs_f64(started.elapsed().as_secs_f64())
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn names(json: &Json, key: &str, field: &str) -> Vec<String> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("array present")
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_metrics() {
        let b = benchmark();
        assert_eq!(names(&b, "workloads", "name"), WORKLOADS);
        assert_eq!(
            names(&b, "workloads", "name"),
            ["actuator_sweep", "spec_census"]
        );
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = names(&b, key, "name")
                .into_iter()
                .zip(names(&b, key, "unit"))
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                listed, expected,
                "{key} must match the tables the runs print"
            );
        }
        // The end-to-end metrics, with the failed share reported as its
        // complement `ok_frac` (a metric must never read 0) and the two
        // serve tail latencies measured per layer (every end-to-end
        // metric must exist on every workload).
        assert_eq!(
            names(&b, "end_to_end", "name"),
            [
                "wall_s",
                "cpu_s",
                "setup_s",
                "peak_rss_mb",
                "ok_frac",
                "job_latency_p50_ms",
                "jobs_per_s"
            ]
        );
        let per_layer = names(&b, "per_layer", "name");
        for name in [
            "cpu.step_ns",
            "cpu.cycles",
            "cpu.ipc",
            "power.current_ns",
            "pdn.step_ns",
            "control.observe_ns",
            "loop.step_ns",
            "loop.self_ns",
            "lanes.gather_ms",
            "lanes.gather_share",
            "lanes.step_ns_per_lane_cycle",
            "lanes.scatter_ms",
            "lanes.lanes_per_group",
            "lanes.batched_cell_share",
            "thresholds.solve_ms",
            "thresholds.solve_hit_ratio",
            "pdn.calibrate_ms",
            "workloads.tune_ms",
            "engine.grid_s",
            "engine.critical_cell_s",
            "engine.assemble_ms",
            "snap.save_mb_s",
            "snap.restore_mb_s",
            "snap.checkpoint_encode_us",
            "snap.checkpoint_decode_us",
            "snap.checkpoint_bytes",
            "serve.resume_share",
            "serve.parse_ns",
            "serve.submit_ms_p50",
            "serve.stream_ms_p50",
            "serve.report_ms_p50",
            "serve.metrics_scrape_ms_p50",
            "serve.queue_wait_ms_p99",
            "serve.run_ms_p99",
            "serve.retries_429",
            "serve.job_latency_p99_ms",
            "serve.read_latency_p99_ms",
            "trace.span_floor_ns",
            "trace.overhead_frac",
        ] {
            assert!(per_layer.iter().any(|n| n == name), "{name} missing");
        }
    }

    #[test]
    fn benchmark_json_bounds_are_within_the_contract() {
        let b = benchmark();
        let e2e = b.get("end_to_end").and_then(Json::as_arr).unwrap();
        let bound = |name: &str| {
            e2e.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|m| m.get("bound")?.as_f64())
                .unwrap()
        };
        let setup = bound("setup_s");
        for m in e2e {
            let b = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(b > 0.0 && b <= 0.25 && b <= setup, "{m:?}");
        }
    }

    #[test]
    fn result_line_orders_metrics_and_rejects_gaps() {
        let line = result_line(
            true,
            3,
            0,
            &[("a", "s"), ("b", "ms")],
            &[("b", 2.5), ("a", 1.0)],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a\":{\"value\":1,\"unit\":\"s\"},\"b\":{\"value\":2.5,\"unit\":\"ms\"}}}"
        );
        assert!(result_line(true, 1, 0, &[("a", "s")], &[]).is_err());
        assert!(result_line(true, 1, 0, &[("a", "s")], &[("a", f64::NAN)]).is_err());
    }

    #[test]
    fn serve_plan_is_seeded_and_repeats_a_share() {
        let (a, b) = (serve::plan(5), serve::plan(5));
        assert_eq!(a.jobs, b.jobs);
        assert_ne!(a.jobs, serve::plan(6).jobs);
        assert_eq!(a.jobs.len(), serve::BATCH_JOBS);
        assert_eq!(a.repeats * 10, a.jobs.len() * 3);
        assert_eq!(a.specs.len() + a.repeats, a.jobs.len());
        // Fresh specs spread evenly over the mix.
        let mix = serve::mix();
        assert!(!mix.contains(&"fig08_stressmark"));
        for scenario in &mix {
            let n = a.specs.iter().filter(|s| s.scenario == *scenario).count();
            assert_eq!(n, a.specs.len() / mix.len(), "{scenario}");
        }
    }
}
