//! The `voltctl-exp bench` subcommand: the machine-readable performance
//! baseline for the closed loop.
//!
//! The loop suite runs on the in-tree micro-benchmark harness
//! ([`voltctl_telemetry::stopwatch::bench`]) and exports
//! **`BENCH_loop.json`**: closed-loop simulator throughput uncontrolled,
//! threshold-controlled, lane-batched, telemetry-recorded, and
//! flight-recorder-traced
//! [`ControlLoop`](voltctl_core::prelude::ControlLoop) stepping, plus
//! snapshot save/restore cost.
//!
//! Every point carries wall-clock nanoseconds and derived cycles/second.
//! [`run`] fails (after writing the artifact, so CI can still upload
//! it) when any point reports a NaN or non-positive throughput — the
//! perf-smoke CI gate. No absolute-time thresholds are enforced: the CI
//! runner is single-core and noisy; the artifact exists to *track* the
//! trajectory, not to gate on machine speed.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use voltctl_core::loopsim::ControlLoop;
use voltctl_core::prelude::*;
use voltctl_core::LaneLoop;
use voltctl_isa::builder::ProgramBuilder;
use voltctl_isa::reg::IntReg;
use voltctl_isa::Program;
use voltctl_telemetry::stopwatch::bench;
use voltctl_telemetry::{Json, MemoryRecorder};
use voltctl_trace::FlightRecorder;

use crate::harness::{cpu_config, pdn_at, power_model};

/// Options for a bench run.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Tiny trace/cycle budgets for CI plumbing checks.
    pub smoke: bool,
    /// Directory the `BENCH_loop.json` artifact is written to.
    pub out: PathBuf,
    /// Prior baseline to diff against: a `BENCH_loop.json` file, or a
    /// directory holding one. Per-point throughput deltas are
    /// printed, and any drop past [`tolerance`](BenchOpts::tolerance)
    /// fails the run.
    pub compare: Option<PathBuf>,
    /// Allowed fractional throughput regression against the `compare`
    /// baseline before the run fails (0.25 = a point may be up to 25%
    /// slower). The runners are noisy single-core machines, so the
    /// default is generous; tighten it on quiet hardware.
    pub tolerance: f64,
}

impl Default for BenchOpts {
    fn default() -> BenchOpts {
        BenchOpts {
            smoke: false,
            out: PathBuf::from(DEFAULT_PERF_DIR),
            compare: None,
            tolerance: DEFAULT_TOLERANCE,
        }
    }
}

/// Default `--tolerance`: allowed fractional slowdown vs. a `--compare`
/// baseline.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Default artifact directory for perf baselines.
pub const DEFAULT_PERF_DIR: &str = "results/perf";

/// Schema version of the `BENCH_*.json` artifacts. Version 2 added
/// `ns_per_cycle` per point and the `recorded_trace` loop path with its
/// `recording_overhead_frac` summary. Version 3 added the
/// `snapshot_save` / `snapshot_restore` loop points and the
/// `snapshot_bytes*` / `snapshot_*_mb_per_sec` summary entries.
/// Version 4 added the `lane_w4` / `lane_w8` batched-loop points (a
/// point's `cycles` is the *aggregate* simulated lane-cycles per
/// iteration) and the `lane_speedup_w*` summary ratios. Version 5 added
/// the `BENCH_serve.json` suite emitted by the `voltctl-serve` load
/// generator (a serve point's `cycles` counts grid cells completed, and
/// the summary carries latency percentiles plus the serve-vs-batch
/// wall-clock ratio over an identical request mix). Version 6 added
/// `latency_p999_ms` to the serve summary, completing the
/// p50/p90/p99/p999 set the live `/metrics` plane also exposes.
/// Version 7 dropped the per-point `kernel_taps` field along with the
/// convolution suite that was its only non-zero user.
pub const BENCH_SCHEMA: u64 = 7;

/// Perf-smoke gate: the batched lane path must beat the scalar
/// controlled loop by at least this factor *within the same run*. A
/// ratio, not an absolute time, so machine speed cancels out and the
/// gate holds on slow shared runners.
pub const MIN_LANE_SPEEDUP: f64 = 1.5;

/// One measured point: a named code path.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// Code path measured (`uncontrolled`, `controlled`, `lane_w8`, …).
    pub path: &'static str,
    /// Simulated cycles per iteration.
    pub cycles: u64,
    /// Median wall-clock nanoseconds per iteration.
    pub wall_ns: f64,
    /// Best (minimum) wall-clock nanoseconds per iteration.
    pub best_ns: f64,
    /// Simulated cycles per wall-clock second, from the median.
    pub cycles_per_sec: f64,
    /// Median wall-clock nanoseconds per simulated cycle — the number
    /// overhead comparisons are made in.
    pub ns_per_cycle: f64,
}

impl BenchPoint {
    fn from_result(
        path: &'static str,
        cycles: u64,
        r: voltctl_telemetry::stopwatch::BenchResult,
    ) -> BenchPoint {
        let cycles_per_sec = if r.median_ns_per_iter > 0.0 {
            cycles as f64 * 1e9 / r.median_ns_per_iter
        } else {
            f64::NAN
        };
        let ns_per_cycle = if cycles > 0 {
            r.median_ns_per_iter / cycles as f64
        } else {
            f64::NAN
        };
        BenchPoint {
            path,
            cycles,
            wall_ns: r.median_ns_per_iter,
            best_ns: r.best_ns_per_iter,
            cycles_per_sec,
            ns_per_cycle,
        }
    }

    fn is_sane(&self) -> bool {
        self.wall_ns.is_finite()
            && self.wall_ns > 0.0
            && self.cycles_per_sec.is_finite()
            && self.cycles_per_sec > 0.0
    }
}

/// A completed suite ready for export.
#[derive(Debug, Clone)]
pub struct BenchSuite {
    /// Suite name (`loop`, or `serve` for the daemon's load generator);
    /// the artifact is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Whether smoke budgets were used.
    pub smoke: bool,
    /// Measured points.
    pub points: Vec<BenchPoint>,
    /// Suite-level derived metrics (speedups, overhead ratios).
    pub summary: Vec<(&'static str, f64)>,
}

impl BenchSuite {
    /// Paths whose points fail the NaN/zero-throughput check.
    pub fn insane_points(&self) -> Vec<String> {
        self.points
            .iter()
            .filter(|p| !p.is_sane())
            .map(|p| p.path.to_string())
            .collect()
    }

    /// Renders the machine-readable JSON artifact (single object; every
    /// non-finite number becomes `null` so the file always parses).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"{}\",", self.name);
        let _ = writeln!(s, "  \"schema\": {BENCH_SCHEMA},");
        let _ = writeln!(s, "  \"smoke\": {},", self.smoke);
        let _ = writeln!(s, "  \"points\": [");
        for (k, p) in self.points.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"path\": \"{}\", \"cycles\": {}, \"wall_ns\": {}, \
                 \"best_ns\": {}, \"cycles_per_sec\": {}, \"ns_per_cycle\": {}}}{}",
                p.path,
                p.cycles,
                json_num(p.wall_ns),
                json_num(p.best_ns),
                json_num(p.cycles_per_sec),
                json_num(p.ns_per_cycle),
                if k + 1 < self.points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"summary\": {{");
        for (k, (name, value)) in self.summary.iter().enumerate() {
            let _ = writeln!(
                s,
                "    \"{}\": {}{}",
                name,
                json_num(*value),
                if k + 1 < self.summary.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  }}");
        let _ = write!(s, "}}");
        s
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn spin_program() -> Program {
    let mut b = ProgramBuilder::new("bench-spin");
    b.label("top");
    b.addq_imm(IntReg::R1, IntReg::R1, 1);
    b.br("top");
    b.build().expect("spin program assembles")
}

/// The closed-loop suite: `ControlLoop::step` throughput uncontrolled,
/// controlled, with a live telemetry recorder, with a flight recorder
/// attached (`NullTracer`'s cost is not a point: disabled tracing is
/// compile-time dead code, identical to `uncontrolled`), and with the
/// per-cycle `LoopSample` buffer on.
///
/// The `*_overhead_frac` summary ratios are computed from each path's
/// **best** (minimum) time, not the median: on shared/single-core CI
/// runners the median absorbs scheduler noise that dwarfs the effects
/// being measured, while the minimum is the classic noise-robust
/// estimator of the true cost. Medians are still exported per point.
pub fn bench_loop(smoke: bool) -> BenchSuite {
    let (chunk, samples) = if smoke {
        (5_000u64, 2)
    } else {
        (200_000u64, 9)
    };
    let power = power_model();
    let pdn = pdn_at(2.0);
    let thresholds = Thresholds {
        v_low: 0.97,
        v_high: 1.03,
    };

    let mut uncontrolled = ControlLoop::builder(spin_program())
        .cpu_config(cpu_config())
        .power(power.clone())
        .pdn(pdn.clone())
        .build()
        .expect("uncontrolled loop constructs");
    let u = bench("loop.uncontrolled", samples, 1, || {
        uncontrolled.run(chunk);
        uncontrolled.report().cycles
    });

    let mut controlled = ControlLoop::builder(spin_program())
        .cpu_config(cpu_config())
        .power(power.clone())
        .pdn(pdn.clone())
        .thresholds(thresholds)
        .build()
        .expect("controlled loop constructs");
    let c = bench("loop.controlled", samples, 1, || {
        controlled.run(chunk);
        controlled.report().cycles
    });

    // The lane path at widths 4 and 8: W byte-identical controlled
    // loops never diverge from each other, so one `Cpu::step` + power
    // evaluation per lockstep cycle serves all W lanes and a point's
    // `cycles` is the aggregate W·chunk simulated lane-cycles per
    // iteration. Lane state persists across samples by scattering back
    // to scalar loops and re-gathering, so each iteration pays the same
    // gather/scatter cost the engine's chunk executor pays — the ratio
    // to `controlled` is an honest end-to-end lane speedup.
    let mut lane_points = Vec::new();
    let mut lane_speedups = Vec::new();
    for (w, path, speedup_name) in [
        (4usize, "lane_w4", "lane_speedup_w4"),
        (8, "lane_w8", "lane_speedup_w8"),
    ] {
        let mut held: Option<Vec<ControlLoop>> = Some(
            (0..w)
                .map(|_| {
                    ControlLoop::builder(spin_program())
                        .cpu_config(cpu_config())
                        .power(power.clone())
                        .pdn(pdn.clone())
                        .thresholds(thresholds)
                        .build()
                        .expect("lane loop constructs")
                })
                .collect(),
        );
        let budgets = vec![chunk; w];
        let l = bench(&format!("loop.{path}"), samples, 1, || {
            let loops = held.take().expect("lane loops persist across samples");
            let mut lanes = LaneLoop::gather(loops, &budgets);
            lanes.run();
            let cycles = lanes.report(0).cycles;
            held = Some(lanes.into_loops());
            cycles
        });
        // Best-of-N per simulated cycle on both sides (see below).
        lane_speedups.push((
            speedup_name,
            (c.best_ns_per_iter / chunk as f64) / (l.best_ns_per_iter / (w as u64 * chunk) as f64),
        ));
        lane_points.push(BenchPoint::from_result(path, w as u64 * chunk, l));
    }

    let mut recorded = ControlLoop::builder(spin_program())
        .cpu_config(cpu_config())
        .power(power.clone())
        .pdn(pdn.clone())
        .recorder(MemoryRecorder::new())
        .build()
        .expect("recorded loop constructs");
    let r = bench("loop.recorded", samples, 1, || {
        recorded.run(chunk);
        recorded.report().cycles
    });

    let mut traced = ControlLoop::builder(spin_program())
        .cpu_config(cpu_config())
        .power(power.clone())
        .pdn(pdn.clone())
        .tracer(FlightRecorder::new(voltctl_trace::DEFAULT_WINDOW))
        .build()
        .expect("traced loop constructs");
    let t = bench("loop.traced", samples, 1, || {
        traced.run(chunk);
        traced.report().cycles
    });

    // Snapshot economics: how long a mid-run save/restore takes and how
    // large the state is, per simulated cycle already covered — the
    // numbers that size `run --shards` checkpoint overhead. The restore
    // path pays for the full builder rebuild (that is what a resume
    // costs); `cycles` on both points is the state's cycle count, so
    // `ns_per_cycle` reads as amortized checkpoint cost per simulated
    // cycle.
    let state_cycles = controlled.report().cycles;
    let snapshot = controlled.save();
    let snapshot_bytes = snapshot.len();
    let sv = bench("loop.snapshot_save", samples, 1, || controlled.save().len());
    let rs = bench("loop.snapshot_restore", samples, 1, || {
        ControlLoop::builder(spin_program())
            .cpu_config(cpu_config())
            .power(power.clone())
            .pdn(pdn.clone())
            .thresholds(thresholds)
            .restore(&snapshot)
            .expect("snapshot restores")
            .report()
            .cycles
    });

    // The per-cycle LoopSample buffer (`record_trace`) is the fourth
    // observability path; draining it per iteration keeps memory flat
    // and charges the consumer-side cost the real users (fig11's CSV
    // export, waveform scenarios) also pay.
    let mut recording = ControlLoop::builder(spin_program())
        .cpu_config(cpu_config())
        .power(power)
        .pdn(pdn)
        .record_trace(true)
        .build()
        .expect("recording loop constructs");
    let rt = bench("loop.recorded_trace", samples, 1, || {
        recording.run(chunk);
        recording.take_trace().len()
    });

    let mut points = vec![
        BenchPoint::from_result("uncontrolled", chunk, u),
        BenchPoint::from_result("controlled", chunk, c),
    ];
    points.extend(lane_points);
    points.extend([
        BenchPoint::from_result("recorded", chunk, r),
        BenchPoint::from_result("traced", chunk, t),
        BenchPoint::from_result("recorded_trace", chunk, rt),
        BenchPoint::from_result("snapshot_save", state_cycles, sv),
        BenchPoint::from_result("snapshot_restore", state_cycles, rs),
    ]);
    // Best-of-N ratios: see the doc comment — the minimum is the
    // noise-robust estimator on shared runners, medians are not.
    let telemetry_overhead = r.best_ns_per_iter / u.best_ns_per_iter - 1.0;
    let tracing_overhead = t.best_ns_per_iter / u.best_ns_per_iter - 1.0;
    let recording_overhead = rt.best_ns_per_iter / u.best_ns_per_iter - 1.0;
    // MB/s from best-of-N for the same noise-robustness reason.
    let save_mb_per_sec = snapshot_bytes as f64 * 1e3 / sv.best_ns_per_iter;
    let restore_mb_per_sec = snapshot_bytes as f64 * 1e3 / rs.best_ns_per_iter;
    let mut summary = vec![
        ("chunk_cycles", chunk as f64),
        ("telemetry_overhead_frac", telemetry_overhead),
        ("tracing_overhead_frac", tracing_overhead),
        ("recording_overhead_frac", recording_overhead),
        ("snapshot_bytes", snapshot_bytes as f64),
        (
            "snapshot_bytes_per_cycle",
            snapshot_bytes as f64 / state_cycles as f64,
        ),
        ("snapshot_save_mb_per_sec", save_mb_per_sec),
        ("snapshot_restore_mb_per_sec", restore_mb_per_sec),
    ];
    summary.extend(lane_speedups);
    BenchSuite {
        name: "loop",
        smoke,
        points,
        summary,
    }
}

/// Runs the loop suite, writes `BENCH_loop.json` under `opts.out`, and
/// returns the artifact path.
///
/// # Errors
///
/// Returns a description of every NaN/zero-throughput point and of a
/// missed lane-speedup gate (the artifact is still written first so CI
/// can upload it), or the I/O error message if writing failed.
pub fn run(opts: &BenchOpts) -> Result<PathBuf, String> {
    let started = Instant::now();
    let suite = bench_loop(opts.smoke);
    // The baseline loads *before* the artifact is (over)written:
    // comparing against the default out directory — the
    // regenerate-in-place workflow — must diff against the prior run,
    // not the file this one just wrote.
    let baseline = match &opts.compare {
        Some(base) => load_baseline(base, suite.name)?,
        None => None,
    };
    let path = write_suite(&opts.out, &suite).map_err(|e| {
        format!(
            "failed to write BENCH_{}.json under {}: {e}",
            suite.name,
            opts.out.display()
        )
    })?;
    eprintln!("[voltctl-exp] wrote {}", path.display());
    let mut failures: Vec<String> = suite
        .insane_points()
        .into_iter()
        .map(|bad| format!("BENCH_{}: {bad}", suite.name))
        .collect();
    // Perf-smoke lane gate: batched vs. scalar within the same run.
    let best = suite
        .summary
        .iter()
        .filter(|(n, _)| n.starts_with("lane_speedup_"))
        .map(|(_, v)| *v)
        .fold(f64::NAN, f64::max);
    if best.is_nan() || best < MIN_LANE_SPEEDUP {
        failures.push(format!(
            "BENCH_loop: best lane speedup {best:.2}x is below the {MIN_LANE_SPEEDUP}x gate"
        ));
    }

    // Baseline diff: per-point throughput deltas against the prior
    // artifact, failing on any drop past the tolerance.
    if let Some(base) = &opts.compare {
        match &baseline {
            Some(old) => {
                let diff = compare_suite(&suite, old, opts.tolerance);
                print!("{}", diff.rendered);
                failures.extend(diff.regressions);
            }
            None => eprintln!(
                "[voltctl-exp] no {} baseline under {} — skipping compare",
                suite.name,
                base.display()
            ),
        }
    }

    // Provenance: baselines are regenerate-in-place, so their manifest
    // is too (plain overwrite, not the -N writer).
    let mut manifest = crate::manifest::Manifest::new("bench".to_string());
    manifest.smoke = opts.smoke;
    manifest.wall(started.elapsed());
    manifest.artifact(&path);
    match manifest.write_over(&opts.out) {
        Ok(path) => eprintln!("[voltctl-exp] wrote {}", path.display()),
        Err(e) => {
            return Err(format!(
                "failed to write manifest.json under {}: {e}",
                opts.out.display()
            ))
        }
    }

    if failures.is_empty() {
        Ok(path)
    } else {
        Err(format!(
            "NaN/zero-throughput points: {}",
            failures.join(", ")
        ))
    }
}

/// A prior suite loaded from a `BENCH_*.json` artifact (any schema —
/// every version has carried `path`/`cycles_per_sec` per point).
#[derive(Debug)]
struct OldSuite {
    origin: PathBuf,
    smoke: Option<bool>,
    points: Vec<(String, Option<f64>)>,
}

/// Loads the baseline for `suite_name` from `base`: a directory holding
/// `BENCH_<name>.json`, or a single artifact file (skipped with
/// `Ok(None)` when it describes a different suite, such as a
/// `BENCH_serve.json`).
///
/// # Errors
///
/// Unreadable or malformed JSON is an error; a missing per-suite file
/// under a directory is `Ok(None)`.
fn load_baseline(base: &Path, suite_name: &str) -> Result<Option<OldSuite>, String> {
    let path = if base.is_dir() {
        let p = base.join(format!("BENCH_{suite_name}.json"));
        if !p.exists() {
            return Ok(None);
        }
        p
    } else {
        base.to_path_buf()
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    match json.get("bench").and_then(|b| b.as_str()) {
        Some(name) if name == suite_name => {}
        Some(_) => return Ok(None),
        None => return Err(format!("{}: no \"bench\" field", path.display())),
    }
    let points = json
        .get("points")
        .and_then(|p| p.as_arr())
        .ok_or_else(|| format!("{}: no \"points\" array", path.display()))?
        .iter()
        .filter_map(|p| {
            Some((
                p.get("path")?.as_str()?.to_string(),
                p.get("cycles_per_sec").and_then(|v| v.as_f64()),
            ))
        })
        .collect();
    Ok(Some(OldSuite {
        origin: path,
        smoke: json.get("smoke").and_then(|s| s.as_bool()),
        points,
    }))
}

/// A rendered baseline diff plus the regressions it found.
struct CompareOutcome {
    rendered: String,
    regressions: Vec<String>,
}

/// Diffs the current suite against a loaded baseline, point by point
/// (matched on `path`). A point is a regression when its throughput
/// dropped by more than `tolerance`; new, dropped, and unmeasurable
/// (`null`) points are annotated but never fail.
fn compare_suite(suite: &BenchSuite, old: &OldSuite, tolerance: f64) -> CompareOutcome {
    let mut s = String::new();
    let mut regressions = Vec::new();
    let _ = writeln!(
        s,
        "bench {} vs {} (tolerance {:.0}%)",
        suite.name,
        old.origin.display(),
        tolerance * 100.0
    );
    if old.smoke.is_some_and(|o| o != suite.smoke) {
        let _ = writeln!(
            s,
            "  warning: smoke={} now vs smoke={} in the baseline — deltas compare different budgets",
            suite.smoke,
            old.smoke.unwrap()
        );
    }
    let _ = writeln!(
        s,
        "  {:<16}  {:>12}  {:>12}  {:>8}",
        "path", "old cyc/s", "new cyc/s", "delta"
    );
    for p in &suite.points {
        let prior = old.points.iter().find(|(path, _)| *path == p.path);
        let (old_txt, delta_txt) = match prior {
            Some((_, Some(old_cps))) if p.cycles_per_sec.is_finite() && *old_cps > 0.0 => {
                let delta = p.cycles_per_sec / old_cps - 1.0;
                if delta < -tolerance {
                    regressions.push(format!(
                        "BENCH_{}: {} {:.1}% below baseline (tolerance {:.0}%)",
                        suite.name,
                        p.path,
                        -delta * 100.0,
                        tolerance * 100.0
                    ));
                }
                (format!("{old_cps:.3e}"), format!("{:+.1}%", delta * 100.0))
            }
            Some(_) => ("null".to_string(), "n/a".to_string()),
            None => ("-".to_string(), "new".to_string()),
        };
        let _ = writeln!(
            s,
            "  {:<16}  {:>12}  {:>12}  {:>8}",
            p.path,
            old_txt,
            format!("{:.3e}", p.cycles_per_sec),
            delta_txt
        );
    }
    for (path, _) in &old.points {
        if !suite.points.iter().any(|p| p.path == *path) {
            let _ = writeln!(s, "  {path:<16}  (dropped from this run)");
        }
    }
    CompareOutcome {
        rendered: s,
        regressions,
    }
}

/// Writes one suite's artifact, creating the directory as needed.
fn write_suite(dir: &Path, suite: &BenchSuite) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{}.json", suite.name));
    std::fs::write(&path, suite.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_suite_measures_all_variants() {
        let suite = bench_loop(true);
        assert!(suite.insane_points().is_empty(), "{:?}", suite.points);
        let paths: Vec<&str> = suite.points.iter().map(|p| p.path).collect();
        assert_eq!(
            paths,
            [
                "uncontrolled",
                "controlled",
                "lane_w4",
                "lane_w8",
                "recorded",
                "traced",
                "recorded_trace",
                "snapshot_save",
                "snapshot_restore"
            ]
        );
        // A lane point's `cycles` is the aggregate over all lanes.
        let chunk = suite.points[0].cycles;
        let w8 = suite.points.iter().find(|p| p.path == "lane_w8").unwrap();
        assert_eq!(w8.cycles, 8 * chunk);
        for p in &suite.points {
            assert!(
                (p.ns_per_cycle - p.wall_ns / p.cycles as f64).abs() < 1e-9,
                "{}: ns_per_cycle derives from wall_ns",
                p.path
            );
        }
        for key in [
            "telemetry_overhead_frac",
            "recording_overhead_frac",
            "snapshot_bytes",
            "snapshot_bytes_per_cycle",
            "snapshot_save_mb_per_sec",
            "snapshot_restore_mb_per_sec",
            "lane_speedup_w4",
            "lane_speedup_w8",
        ] {
            let v = suite.summary.iter().find(|(n, _)| *n == key).unwrap().1;
            assert!(v.is_finite(), "{key} must be measured");
        }
        let bytes = suite
            .summary
            .iter()
            .find(|(n, _)| *n == "snapshot_bytes")
            .unwrap()
            .1;
        assert!(bytes > 0.0, "a mid-run snapshot is never empty");
    }

    #[test]
    fn json_is_well_formed_and_nan_safe() {
        let suite = BenchSuite {
            name: "loop",
            smoke: true,
            points: vec![BenchPoint {
                path: "controlled",
                cycles: 100,
                wall_ns: f64::NAN,
                best_ns: 1.0,
                cycles_per_sec: 0.0,
                ns_per_cycle: f64::NAN,
            }],
            summary: vec![("x", f64::INFINITY)],
        };
        let json = suite.to_json();
        assert!(json.contains("\"wall_ns\": null"));
        assert!(json.contains("\"x\": null"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // Balanced braces/brackets (cheap well-formedness probe).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        assert_eq!(suite.insane_points().len(), 1);
    }

    #[test]
    fn run_writes_artifacts_and_validates() {
        let dir = std::env::temp_dir().join(format!("voltctl-bench-test-{}", std::process::id()));
        let opts = BenchOpts {
            smoke: true,
            out: dir.clone(),
            ..BenchOpts::default()
        };
        let path = run(&opts).expect("smoke bench must produce sane throughput");
        assert_eq!(path, dir.join("BENCH_loop.json"));
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("\"bench\": \"loop\""));
        assert!(contents.contains("\"cycles_per_sec\""));
        assert!(contents.contains("\"ns_per_cycle\""));
        assert!(contents.contains(&format!("\"schema\": {BENCH_SCHEMA}")));
        // The baseline directory is self-describing: a manifest lists
        // the artifact with its size.
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        Json::parse(&manifest).expect("manifest parses");
        assert!(manifest.contains("\"path\": \"BENCH_loop.json\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tiny_suite(cps: f64) -> BenchSuite {
        BenchSuite {
            name: "loop",
            smoke: true,
            points: vec![BenchPoint {
                path: "controlled",
                cycles: 100,
                wall_ns: 1.0,
                best_ns: 1.0,
                cycles_per_sec: cps,
                ns_per_cycle: 1.0,
            }],
            summary: vec![],
        }
    }

    #[test]
    fn compare_flags_regressions_past_tolerance_only() {
        let dir = std::env::temp_dir().join(format!("voltctl-bench-cmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = tiny_suite(1000.0);
        std::fs::write(dir.join("BENCH_loop.json"), baseline.to_json()).unwrap();

        // 10% down, 25% tolerance: annotated, not failed.
        let ok = load_baseline(&dir, "loop").unwrap().unwrap();
        let diff = compare_suite(&tiny_suite(900.0), &ok, 0.25);
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(diff.rendered.contains("-10.0%"), "{}", diff.rendered);

        // 40% down: regression.
        let diff = compare_suite(&tiny_suite(600.0), &ok, 0.25);
        assert_eq!(diff.regressions.len(), 1);
        assert!(diff.regressions[0].contains("40.0% below baseline"));

        // Faster is never a regression.
        let diff = compare_suite(&tiny_suite(2000.0), &ok, 0.25);
        assert!(diff.regressions.is_empty());
        assert!(diff.rendered.contains("+100.0%"));

        // A single-file baseline for a different suite is skipped.
        assert!(load_baseline(&dir.join("BENCH_loop.json"), "serve")
            .unwrap()
            .is_none());
        // A missing per-suite file under a directory is skipped too.
        assert!(load_baseline(&dir, "serve").unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_annotates_new_and_dropped_points() {
        let mut old = tiny_suite(1000.0);
        old.points[0].path = "uncontrolled";
        let dir = std::env::temp_dir().join(format!("voltctl-bench-cmp2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_loop.json"), old.to_json()).unwrap();
        let old = load_baseline(&dir, "loop").unwrap().unwrap();
        let diff = compare_suite(&tiny_suite(1000.0), &old, 0.25);
        assert!(diff.regressions.is_empty());
        assert!(diff.rendered.contains("new"), "{}", diff.rendered);
        assert!(diff.rendered.contains("dropped from this run"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
