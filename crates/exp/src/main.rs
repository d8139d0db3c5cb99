//! The `voltctl-exp` CLI: list and run the reproduction's experiments.
//!
//! ```text
//! voltctl-exp list
//! voltctl-exp run <id>... [--jobs N] [--scale X] [--smoke] [--trace]
//!                         [--telemetry MODE] [--telemetry-out DIR]
//!                         [--shards K] [--resume DIR] [--checkpoint-dir DIR]
//! voltctl-exp run --all [same flags]
//! voltctl-exp trace <id>... [--window W] [--out DIR] [--jobs N]
//!                           [--scale X] [--smoke] [--min-captures N]
//! voltctl-exp bench [--smoke] [--out DIR] [--compare OLD] [--tolerance FRAC]
//! voltctl-exp golden [--bless] [--jobs N] [--dir DIR] [id...]
//! voltctl-exp snapshot inspect <file>...
//! ```

use std::path::PathBuf;
use std::time::Instant;
use voltctl_exp::engine::{
    default_jobs, run_scenario, run_scenario_profiled, Ctx, Scenario, TraceSpec,
};
use voltctl_exp::profile::{self, Profiler, SelfProfiler};
use voltctl_exp::scenarios::{find, registry};
use voltctl_exp::telemetry::{default_out_dir, env_mode, export_run, parse_mode, Mode};
use voltctl_exp::{parse_scale, run_sharded, Manifest, ShardOpts, TextTable};

const USAGE: &str = "\
voltctl-exp — unified experiment runner

USAGE:
    voltctl-exp list
    voltctl-exp run <id>... [OPTIONS]
    voltctl-exp run --all [OPTIONS]
    voltctl-exp trace <id>... [TRACE OPTIONS]
    voltctl-exp bench [--smoke] [--out <DIR>] [--compare <OLD>]
                      [--tolerance <FRAC>]
    voltctl-exp golden [--bless] [--jobs <N>] [--dir <DIR>] [<id>...]
    voltctl-exp snapshot inspect <file>...

OPTIONS:
    --jobs <N>            worker threads per scenario grid
                          (default: all hardware threads)
    --scale <X>           cycle-budget scale factor (default: 1.0,
                          or VOLTCTL_SCALE)
    --smoke               tiny budgets, narrative checks off (CI plumbing)
    --no-lanes            pin every cell to the scalar path (results are
                          bitwise identical; for timing and backtraces)
    --trace               attach the emergency flight recorder and export
                          trace artifacts after each scenario
    --telemetry <MODE>    off | summary | jsonl | csv
                          (default: VOLTCTL_TELEMETRY or off)
    --telemetry-out <DIR> snapshot directory (default: results/telemetry)
    --profile             self-profile the engine: per-stage summary on
                          stderr + a speedscope/inferno-loadable
                          folded-stacks file
    --profile-out <DIR>   folded-stacks directory (default: results/profile)
    --shards <K>          split each scenario's grid into K resumable
                          shards, checkpointing each as a .snap file;
                          the merged output is byte-identical to an
                          unsharded run
    --resume <DIR>        load valid shard checkpoints from DIR instead
                          of recomputing them (invalid or missing shards
                          rerun and are re-checkpointed)
    --checkpoint-dir <DIR> where new checkpoints land (default: the
                          --resume directory, else results/checkpoints)

TRACE OPTIONS:
    --window <W>          flight-recorder window in cycles kept either
                          side of each emergency crossing (default: 96)
    --out <DIR>           artifact directory (default: results/trace);
                          writes <id>.trace.json (Perfetto-loadable) and
                          <id>.forensics.txt, never overwriting
    --jobs/--scale/--smoke as for run
    --min-captures <N>    fail unless at least N emergencies captured
                          ('stressmark' is an alias for fig08_stressmark)

BENCH OPTIONS:
    --smoke               tiny iteration budgets (CI plumbing check)
    --out <DIR>           artifact directory (default: results/perf);
                          writes BENCH_loop.json
    --compare <OLD>       diff against a prior baseline: a BENCH_loop.json
                          file or a directory holding one;
                          prints per-point throughput deltas and exits
                          nonzero on any regression past the tolerance
    --tolerance <FRAC>    allowed fractional throughput drop under
                          --compare before failing (default: 0.25)

GOLDEN OPTIONS:
    --bless               rewrite the snapshots instead of comparing
    --jobs <N>            worker threads per scenario grid
    --dir <DIR>           snapshot directory (default: results/golden)
    <id>...               scenarios to check (default: all)

SNAPSHOT COMMANDS:
    inspect <file>...     validate a .snap container (loop save, shard
                          checkpoint, replay capture) and describe its
                          sections; exits nonzero on any invalid file

Run `voltctl-exp list` for the available scenario ids.
";

struct RunArgs {
    ids: Vec<String>,
    all: bool,
    jobs: usize,
    ctx: Ctx,
    mode: Mode,
    profile: bool,
    profile_out: PathBuf,
    shards: Option<usize>,
    resume: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
}

impl RunArgs {
    /// Whether this run goes through the shard planner at all.
    fn sharded(&self) -> bool {
        self.shards.is_some() || self.resume.is_some()
    }

    /// Where new checkpoints land: explicit `--checkpoint-dir`, else the
    /// resume directory (so a healed shard is found next time), else the
    /// default under the workspace root.
    fn checkpoint_dir(&self) -> PathBuf {
        self.checkpoint_dir
            .clone()
            .or_else(|| self.resume.clone())
            .unwrap_or_else(|| {
                voltctl_check::persist::workspace_root()
                    .join("results")
                    .join("checkpoints")
            })
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("voltctl-exp: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut out = RunArgs {
        ids: Vec::new(),
        all: false,
        jobs: default_jobs(),
        ctx: Ctx::new(voltctl_exp::env_scale()),
        mode: env_mode(),
        profile: false,
        profile_out: voltctl_check::persist::workspace_root()
            .join("results")
            .join("profile"),
        shards: None,
        resume: None,
        checkpoint_dir: None,
    };
    out.ctx.telemetry_out = default_out_dir();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> String {
            if let Some(v) = arg.strip_prefix(&format!("{name}=")) {
                return v.to_string();
            }
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        match arg.split('=').next().unwrap_or(arg.as_str()) {
            "--all" => out.all = true,
            "--smoke" => out.ctx.smoke = true,
            "--no-lanes" => out.ctx.lanes = false,
            "--trace" => out.ctx.trace = Some(TraceSpec::default()),
            "--jobs" => {
                let raw = flag_value("--jobs");
                out.jobs = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail(&format!("--jobs {raw:?} is not a positive integer")));
            }
            "--scale" => {
                let raw = flag_value("--scale");
                out.ctx.scale =
                    parse_scale(&raw).unwrap_or_else(|e| fail(&format!("--scale {raw:?}: {e}")));
            }
            "--telemetry" => out.mode = parse_mode(&flag_value("--telemetry")),
            "--telemetry-out" => {
                out.ctx.telemetry_out = PathBuf::from(flag_value("--telemetry-out"))
            }
            "--profile" => out.profile = true,
            "--profile-out" => out.profile_out = PathBuf::from(flag_value("--profile-out")),
            "--shards" => {
                let raw = flag_value("--shards");
                out.shards = Some(
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| {
                            fail(&format!("--shards {raw:?} is not a positive integer"))
                        }),
                );
            }
            "--resume" => out.resume = Some(PathBuf::from(flag_value("--resume"))),
            "--checkpoint-dir" => {
                out.checkpoint_dir = Some(PathBuf::from(flag_value("--checkpoint-dir")))
            }
            _ if arg.starts_with("--") => fail(&format!("unknown flag {arg:?}")),
            _ => out.ids.push(arg.clone()),
        }
    }
    out.ctx.telemetry = out.mode != Mode::Off;

    if out.all && !out.ids.is_empty() {
        fail("--all cannot be combined with explicit scenario ids");
    }
    if !out.all && out.ids.is_empty() {
        fail("run needs at least one scenario id (or --all)");
    }
    out
}

fn cmd_list() {
    let mut t = TextTable::new(["id", "runtime", "cells", "trace", "description"]);
    for row in voltctl_exp::listing(&Ctx::default()) {
        t.row(row);
    }
    print!("{}", t.render());
    println!("\nrun one with: voltctl-exp run <id> [--jobs N] [--scale X]");
    println!("trace-aware scenarios (trace=yes) also accept: voltctl-exp trace <id>");
}

fn cmd_golden(args: &[String]) {
    let mut opts = voltctl_exp::GoldenOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> String {
            if let Some(v) = arg.strip_prefix(&format!("{name}=")) {
                return v.to_string();
            }
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        match arg.split('=').next().unwrap_or(arg.as_str()) {
            "--bless" => opts.bless = true,
            "--jobs" => {
                let raw = flag_value("--jobs");
                opts.jobs = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail(&format!("--jobs {raw:?} is not a positive integer")));
            }
            "--dir" => opts.dir = PathBuf::from(flag_value("--dir")),
            _ if arg.starts_with("--") => fail(&format!("unknown golden flag {arg:?}")),
            _ => opts.ids.push(arg.clone()),
        }
    }
    match voltctl_exp::golden::run(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            if !outcome.is_clean() {
                std::process::exit(1);
            }
        }
        Err(msg) => fail(&msg),
    }
}

fn cmd_run(args: &[String]) {
    let run = parse_run_args(args);
    let scenarios: Vec<&'static dyn Scenario> = if run.all {
        registry().to_vec()
    } else {
        run.ids
            .iter()
            .map(|id| {
                find(id).unwrap_or_else(|| {
                    fail(&format!("unknown scenario {id:?} (see `voltctl-exp list`)"))
                })
            })
            .collect()
    };

    // --profile installs the process-global profiler so the harness's
    // memoized solve/calibrate slow paths record into the same place as
    // the engine's stage spans.
    let profiler: Option<&'static SelfProfiler> = run.profile.then(profile::install_global);

    let started = Instant::now();
    let trace_out = voltctl_exp::trace::default_out_dir();
    let mut telemetry_manifest = Manifest::new(format!("run --telemetry {:?}", run.mode));
    telemetry_manifest.ctx(&run.ctx, run.jobs);
    let mut trace_manifest = Manifest::new("run --trace");
    trace_manifest.ctx(&run.ctx, run.jobs);

    let shard_opts = ShardOpts {
        shards: run.shards,
        resume: run.resume.clone(),
        dir: run.checkpoint_dir(),
    };
    let mut checkpoint_manifest = Manifest::new(match (run.shards, &run.resume) {
        (Some(k), _) => format!("run --shards {k}"),
        (None, Some(dir)) => format!("run --resume {}", dir.display()),
        (None, None) => "run".to_string(),
    });
    checkpoint_manifest.ctx(&run.ctx, run.jobs);
    let mut max_shards = 0usize;

    for (k, scenario) in scenarios.iter().enumerate() {
        if k > 0 {
            println!();
        }
        let out = if run.sharded() {
            let sharded = match profiler {
                Some(p) => run_sharded(*scenario, &run.ctx, run.jobs, &shard_opts, p),
                None => run_sharded(
                    *scenario,
                    &run.ctx,
                    run.jobs,
                    &shard_opts,
                    &voltctl_exp::NullProfiler,
                ),
            }
            .unwrap_or_else(|msg| fail(&msg));
            eprintln!(
                "[voltctl-exp] {}: {} shard(s) — {} loaded from checkpoints, {} checkpoint(s) written under {}",
                scenario.id(),
                sharded.shards,
                sharded.loaded,
                sharded.written.len(),
                shard_opts.dir.display()
            );
            max_shards = max_shards.max(sharded.shards);
            checkpoint_manifest.scenario(scenario.id());
            for path in &sharded.written {
                checkpoint_manifest.artifact(path);
            }
            sharded.output
        } else {
            match profiler {
                Some(p) => run_scenario_profiled(*scenario, &run.ctx, run.jobs, p),
                None => run_scenario(*scenario, &run.ctx, run.jobs),
            }
        };
        print!("{}", out.report);
        eprintln!(
            "[voltctl-exp] {}: {} cells on {} worker(s) in {:.2?}",
            scenario.id(),
            out.cells,
            out.jobs,
            out.elapsed
        );
        let export_t0 = Instant::now();
        for path in export_run(
            scenario.id(),
            &out.telemetry,
            run.mode,
            &run.ctx.telemetry_out,
        ) {
            telemetry_manifest.scenario(scenario.id());
            telemetry_manifest.artifact(&path);
        }
        if run.ctx.trace.is_some() && !out.trace.is_empty() {
            match voltctl_exp::trace::export(&trace_out, scenario.id(), &out.trace) {
                Ok(a) => {
                    eprintln!(
                        "[voltctl-exp] trace {}: {} capture(s); wrote {} and {}",
                        scenario.id(),
                        out.trace.total_captures(),
                        a.json.display(),
                        a.forensics.display()
                    );
                    trace_manifest.scenario(scenario.id());
                    trace_manifest.artifact(&a.json).artifact(&a.forensics);
                }
                Err(msg) => {
                    eprintln!("voltctl-exp: trace export failed: {msg}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(p) = profiler {
            p.record(
                &["exp", scenario.id(), "export"],
                export_t0.elapsed().as_nanos() as u64,
            );
        }
    }

    // Every directory that received artifacts gets a provenance
    // manifest describing this invocation. Sharded runs stamp their
    // lineage (shard count, resume source) on every manifest they
    // write, so artifacts remain traceable to the checkpoints that
    // fed them.
    telemetry_manifest.wall(started.elapsed());
    trace_manifest.wall(started.elapsed());
    checkpoint_manifest.wall(started.elapsed());
    if run.sharded() {
        for manifest in [
            &mut telemetry_manifest,
            &mut trace_manifest,
            &mut checkpoint_manifest,
        ] {
            manifest.shard_lineage(max_shards, run.resume.as_deref());
        }
    }
    for (manifest, dir) in [
        (&telemetry_manifest, &run.ctx.telemetry_out),
        (&trace_manifest, &trace_out),
        (&checkpoint_manifest, &shard_opts.dir),
    ] {
        if manifest.artifact_count() == 0 {
            continue;
        }
        match manifest.write(dir) {
            Ok(path) => eprintln!("[voltctl-exp] wrote {}", path.display()),
            Err(e) => eprintln!("voltctl-exp: manifest write failed: {e}"),
        }
    }

    if let Some(p) = profiler {
        write_profile(p, &run);
    }

    if scenarios.len() > 1 {
        eprintln!(
            "[voltctl-exp] {} scenario(s) in {:.2?}",
            scenarios.len(),
            started.elapsed()
        );
    }
}

/// Emits the self-profiler's two deliverables: the per-stage summary
/// table on stderr and the folded-stacks file (plus its manifest) under
/// `--profile-out`.
fn write_profile(p: &SelfProfiler, run: &RunArgs) {
    eprint!(
        "\n[voltctl-exp] self-profile (stages nest; totals overlap):\n{}",
        p.summary()
    );
    let stem = if run.all {
        "all".to_string()
    } else {
        run.ids.join("+")
    };
    match voltctl_telemetry::export::write_file_fresh(
        &run.profile_out,
        &format!("{stem}.folded"),
        &p.folded(),
    ) {
        Ok(path) => {
            eprintln!(
                "[voltctl-exp] wrote {} (speedscope/inferno-loadable)",
                path.display()
            );
            let mut manifest = Manifest::new("run --profile");
            manifest.ctx(&run.ctx, run.jobs);
            for id in &run.ids {
                manifest.scenario(id);
            }
            manifest.artifact(&path);
            match manifest.write(&run.profile_out) {
                Ok(m) => eprintln!("[voltctl-exp] wrote {}", m.display()),
                Err(e) => eprintln!("voltctl-exp: manifest write failed: {e}"),
            }
        }
        Err(e) => eprintln!("voltctl-exp: profile write failed: {e}"),
    }
}

fn cmd_trace(args: &[String]) {
    let mut opts = voltctl_exp::trace::TraceOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> String {
            if let Some(v) = arg.strip_prefix(&format!("{name}=")) {
                return v.to_string();
            }
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        match arg.split('=').next().unwrap_or(arg.as_str()) {
            "--smoke" => opts.smoke = true,
            "--window" => {
                let raw = flag_value("--window");
                opts.window = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        fail(&format!("--window {raw:?} is not a positive integer"))
                    });
            }
            "--jobs" => {
                let raw = flag_value("--jobs");
                opts.jobs = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail(&format!("--jobs {raw:?} is not a positive integer")));
            }
            "--scale" => {
                let raw = flag_value("--scale");
                opts.scale =
                    parse_scale(&raw).unwrap_or_else(|e| fail(&format!("--scale {raw:?}: {e}")));
            }
            "--out" => opts.out = PathBuf::from(flag_value("--out")),
            "--min-captures" => {
                let raw = flag_value("--min-captures");
                opts.min_captures = raw
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail(&format!("--min-captures {raw:?} is not an integer")));
            }
            _ if arg.starts_with("--") => fail(&format!("unknown trace flag {arg:?}")),
            _ => opts.ids.push(arg.clone()),
        }
    }
    if let Err(msg) = voltctl_exp::trace::run(&opts) {
        eprintln!("voltctl-exp: trace failed: {msg}");
        std::process::exit(1);
    }
}

fn cmd_bench(args: &[String]) {
    let mut opts = voltctl_exp::BenchOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.split('=').next().unwrap_or(arg.as_str()) {
            "--smoke" => opts.smoke = true,
            "--out" => {
                let raw = arg
                    .strip_prefix("--out=")
                    .map(str::to_string)
                    .unwrap_or_else(|| {
                        it.next()
                            .unwrap_or_else(|| fail("--out needs a value"))
                            .clone()
                    });
                opts.out = PathBuf::from(raw);
            }
            "--compare" => {
                let raw = arg
                    .strip_prefix("--compare=")
                    .map(str::to_string)
                    .unwrap_or_else(|| {
                        it.next()
                            .unwrap_or_else(|| fail("--compare needs a value"))
                            .clone()
                    });
                opts.compare = Some(PathBuf::from(raw));
            }
            "--tolerance" => {
                let raw = arg
                    .strip_prefix("--tolerance=")
                    .map(str::to_string)
                    .unwrap_or_else(|| {
                        it.next()
                            .unwrap_or_else(|| fail("--tolerance needs a value"))
                            .clone()
                    });
                opts.tolerance = raw.parse().unwrap_or_else(|_| {
                    fail(&format!("--tolerance needs a fraction, got {raw:?}"))
                });
                if opts.tolerance.is_nan() || opts.tolerance < 0.0 {
                    fail("--tolerance must be >= 0");
                }
            }
            _ => fail(&format!("unknown bench argument {arg:?}")),
        }
    }
    if let Err(msg) = voltctl_exp::bench::run(&opts) {
        eprintln!("voltctl-exp: bench failed: {msg}");
        std::process::exit(1);
    }
}

fn cmd_snapshot(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("inspect") if args.len() > 1 => {}
        Some("inspect") => fail("snapshot inspect needs at least one file"),
        Some(other) => fail(&format!("unknown snapshot command {other:?} (inspect)")),
        None => fail("snapshot needs a command (inspect <file>...)"),
    }
    let mut failed = false;
    for file in &args[1..] {
        match voltctl_exp::snapshot::inspect_file(std::path::Path::new(file)) {
            Ok(report) => print!("{report}"),
            Err(msg) => {
                eprintln!("voltctl-exp: {msg}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            if args.len() > 1 {
                fail("list takes no arguments");
            }
            cmd_list();
        }
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("golden") => cmd_golden(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => print!("{USAGE}"),
        Some(other) => fail(&format!("unknown command {other:?}")),
        None => fail("missing command"),
    }
}
