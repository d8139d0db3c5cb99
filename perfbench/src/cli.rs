//! The CLI workloads: one scenario run through `voltctl_exp::run_scenario`
//! per fresh process, so the per-process memos start cold each time.

use crate::layers::{self, Invariants};
use crate::procfs;
use crate::refs;
use crate::spans::{self, Open, Recorder, Span};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use voltctl_core::LaneLoop;
use voltctl_exp::harness::{solve_cache_stats, spec_suite, tuned_stressmark, variable_eight};
use voltctl_exp::{
    assemble_run, decode_checkpoint, encode_checkpoint, find, run_cells, run_scenario,
    run_scenario_profiled, CellResult, Ctx, Profiler, Scenario, ShardMeta,
};
use voltctl_snap::fnv1a;
use voltctl_workloads::Workload;

/// Worker threads per scenario grid, as the workloads specify.
pub const JOBS: usize = 2;
/// Environment variable carrying the parent's spawn time (UNIX ns).
pub const SPAWN_ENV: &str = "PERFBENCH_SPAWN_NS";

/// A CLI workload: a scenario at a fixed scale.
#[derive(Debug, Clone, Copy)]
pub struct CliWorkload {
    pub name: &'static str,
    pub scenario: &'static str,
    pub scale: f64,
    /// Impedances (fraction of target) whose calibration set-up warms.
    pub percents: &'static [f64],
}

pub const ACTUATOR_SWEEP: CliWorkload = CliWorkload {
    name: "actuator_sweep",
    scenario: "fig17_actuator_perf",
    scale: 0.1,
    percents: &[2.0],
};

pub const SPEC_CENSUS: CliWorkload = CliWorkload {
    name: "spec_census",
    scenario: "table2_emergencies",
    scale: 1.0,
    percents: &[1.0, 2.0, 3.0, 4.0],
};

impl CliWorkload {
    pub fn by_name(name: &str) -> Option<CliWorkload> {
        [ACTUATOR_SWEEP, SPEC_CENSUS]
            .into_iter()
            .find(|w| w.name == name)
    }

    pub fn scenario(&self) -> &'static dyn Scenario {
        find(self.scenario).expect("workload scenarios are registered")
    }

    pub fn ctx(&self) -> Ctx {
        Ctx::new(self.scale)
    }

    /// The programs the scenario simulates (its kernel list).
    pub fn programs(&self) -> Vec<Workload> {
        let mut programs = if self.name == SPEC_CENSUS.name {
            spec_suite()
        } else {
            variable_eight()
        };
        programs.push(tuned_stressmark());
        programs
    }
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Seconds since the parent spawned this process.
fn since_spawn() -> f64 {
    let spawned: u128 = std::env::var(SPAWN_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .expect("the parent passes its spawn time");
    unix_ns().saturating_sub(spawned) as f64 / 1e9
}

/// Spawn-time value for [`SPAWN_ENV`].
pub fn spawn_stamp() -> String {
    unix_ns().to_string()
}

fn invariants_json(inv: &Invariants) -> String {
    format!(
        "\"cpu_cycles\":{},\"cpu_ipc\":{},\"interventions_per_mcycle\":{},\"gated_duty\":{}",
        inv.cpu_cycles, inv.cpu_ipc, inv.interventions_per_mcycle, inv.gated_duty
    )
}

/// The engine's profiler hook: each stage the engine records becomes a
/// span under `root` that ends at the time of the call. Lane stages
/// (`exp;<id>;lanes;gather|step|scatter;chunk<c>`) group by chunk, grid
/// cells (`exp;<id>;grid;job<j>;<cell>`) by cell.
pub struct EngineSpans<'a> {
    rec: &'a Recorder,
    root: &'a Open,
    labels: Vec<String>,
}

impl<'a> EngineSpans<'a> {
    pub fn new(rec: &'a Recorder, root: &'a Open, labels: Vec<String>) -> EngineSpans<'a> {
        EngineSpans { rec, root, labels }
    }

    /// Span name and group of one engine record. Cells are groups
    /// `1..=n`, chunk `c` is group `n + 1 + c`.
    fn name_and_group(&self, frames: &[&str]) -> (&'static str, u64) {
        let n = self.labels.len() as u64;
        let chunk = |label: &str| {
            n + 1
                + label
                    .strip_prefix("chunk")
                    .and_then(|c| c.parse::<u64>().ok())
                    .unwrap_or(0)
        };
        let cell = |label: &str| {
            self.labels
                .iter()
                .position(|l| l == label)
                .map_or(0, |k| k as u64 + 1)
        };
        match frames.get(2..).unwrap_or(&[]) {
            ["lanes", "gather", c] => ("lanes.gather", chunk(c)),
            ["lanes", "step", c] => ("lanes.step", chunk(c)),
            ["lanes", "scatter", c] => ("lanes.scatter", chunk(c)),
            ["grid", _, label] => ("engine.run_cell", cell(label)),
            ["merge"] => ("engine.merge", 0),
            ["render"] => ("engine.render", 0),
            _ => ("engine.other", 0),
        }
    }
}

impl Profiler for EngineSpans<'_> {
    fn record(&self, frames: &[&str], ns: u64) {
        let (name, group) = self.name_and_group(frames);
        self.rec.record_ended(name, Some(self.root), group, ns);
    }
}

/// Whether a span is part of the engine's grid stage.
fn is_grid(s: &Span) -> bool {
    s.name.starts_with("lanes.") || s.name == "engine.run_cell"
}

/// Per-layer figures of one profiled run, from the engine's spans under
/// the `engine.run` root, as JSON fields.
pub fn engine_fields(spans: &[Span]) -> String {
    let named = spans::by_name(spans);
    let total = |name: &str| named.get(name).map_or(0, |&(t, _)| t) as f64;
    let (gather, step, scatter) = (
        total("lanes.gather"),
        total("lanes.step"),
        total("lanes.scatter"),
    );
    let start = spans
        .iter()
        .find(|s| s.name == "engine.run")
        .map_or(0, |s| s.start_ns);
    let grid_end = spans
        .iter()
        .filter(|s| is_grid(s))
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(start);
    // A chunk's gather, step and scatter run back to back on one worker.
    let mut per_group = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| is_grid(s)) {
        *per_group.entry(s.group).or_insert(0) += s.dur_ns();
    }
    let critical = per_group.values().copied().max().unwrap_or(0) as f64;
    format!(
        "\"lanes.gather_ms\":{},\"lanes.gather_share\":{},\"lanes.step_ms\":{},\
         \"lanes.scatter_ms\":{},\"engine.grid_s\":{},\"engine.critical_cell_s\":{},\
         \"engine.assemble_ms\":{}",
        gather / 1e6,
        gather / (gather + step + scatter).max(1.0),
        step / 1e6,
        scatter / 1e6,
        grid_end.saturating_sub(start) as f64 / 1e9,
        critical / 1e9,
        (total("engine.merge") + total("engine.render")) / 1e6,
    )
}

/// One measured run in this (fresh) process; prints one JSON line.
/// With `probe`, the run also counts the cells the lane executor takes
/// and the layer drive checks the modelled invariants (after the timed
/// region). With `spans_out`, the run goes through
/// `run_scenario_profiled` with [`EngineSpans`] instead of
/// `run_scenario`; its spans are written there and the line gains the
/// engine's per-layer figures.
pub fn child(w: CliWorkload, probe: bool, spans_out: Option<&Path>) -> Result<(), String> {
    layers::warm(w.percents, None);
    let setup_s = since_spawn();

    let scenario = w.scenario();
    let ctx = w.ctx();
    let rec = Recorder::new();
    let labels = scenario.cells(&ctx);
    let cpu0 = procfs::cpu_seconds(None)?;
    let t0 = Instant::now();
    let (out, root) = match spans_out {
        None => (run_scenario(scenario, &ctx, JOBS), None),
        Some(_) => {
            let root = rec.open("engine.run", None, 0);
            let profiler = EngineSpans::new(&rec, &root, labels);
            (
                run_scenario_profiled(scenario, &ctx, JOBS, &profiler),
                Some(root),
            )
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds(None)? - cpu0;
    let digest = fnv1a(out.report.as_bytes());
    let digest_ok = refs::check_digest(w.name, digest);
    let latency_s = since_spawn();
    let peak_rss_mb = procfs::peak_rss_mb(None)?;
    let solve = solve_cache_stats();

    let mut extra = String::new();
    if let (Some(path), Some(root)) = (spans_out, root) {
        rec.close(root);
        let spans = rec.spans();
        println!("{}", spans::self_time_line(&spans::by_name(&spans)));
        rec.write_jsonl(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        extra = format!(",{}", engine_fields(&spans));
    }
    if probe {
        // Which cells the lane executor takes: the memos are warm by
        // now, so this asks the scenario, not the solver.
        let batched = (0..out.cells)
            .filter(|&k| scenario.batchable() && scenario.batch_cell(&ctx, k).is_some())
            .count();
        let (inv, _) = layers::drive(&w.programs(), None);
        let ok = refs::check_invariants(w.name, &inv);
        extra += &format!(
            ",\"batched_cells\":{batched},\"invariants_ok\":{ok},{}",
            invariants_json(&inv)
        );
    }
    println!(
        "{{\"setup_s\":{setup_s},\"wall_s\":{wall_s},\"cpu_s\":{cpu_s},\"latency_s\":{latency_s},\
         \"peak_rss_mb\":{peak_rss_mb},\"digest\":\"{digest:016x}\",\"digest_ok\":{digest_ok},\
         \"cells\":{},\"solve_hits\":{},\"solve_misses\":{}{extra}}}",
        out.cells, solve.hits, solve.misses
    );
    Ok(())
}

/// Lane-executor counts: lane-cycles stepped, group-cycles stepped (one
/// shared `Cpu::step` each) and cells the lane executor takes.
#[derive(Debug, Default)]
struct LaneCounts {
    lane_cycles: u64,
    group_cycles: u64,
    batched_cells: usize,
}

/// Counts the lane executor's work for the scenario's grid. The engine
/// reports only times, so this walks the grid once more through its
/// public pieces (`batch_cell`, snapshot dedup, `LaneLoop::step_all`),
/// chunked as the engine chunks it at [`JOBS`] workers, and counts
/// cycles; nothing here is timed.
fn lane_counts(scenario: &dyn Scenario, ctx: &Ctx) -> LaneCounts {
    if !(ctx.lanes && scenario.batchable()) {
        return LaneCounts::default();
    }
    let n = scenario.cells(ctx).len();
    let chunk = n.div_ceil(JOBS * 2).clamp(1, 8);
    let n_chunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let counts = Mutex::new(LaneCounts::default());
    let worker = || loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        let mut sims = Vec::new();
        let mut budgets = Vec::new();
        let mut seen: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut batched = 0;
        for k in c * chunk..((c + 1) * chunk).min(n) {
            let Some(lanes) = scenario.batch_cell(ctx, k) else {
                continue;
            };
            batched += 1;
            for lane in lanes {
                let key = (lane.budget, lane.sim.save());
                if !seen.contains(&key) {
                    seen.push(key);
                    sims.push(lane.sim);
                    budgets.push(lane.budget);
                }
            }
        }
        let (mut lane_cycles, mut group_cycles) = (0, 0);
        if !sims.is_empty() {
            let mut lanes = LaneLoop::gather(sims, &budgets);
            loop {
                let groups = lanes.active_group_count() as u64;
                let stepped = lanes.step_all() as u64;
                if stepped == 0 {
                    break;
                }
                lane_cycles += stepped;
                group_cycles += groups;
            }
        }
        let mut total = counts.lock().expect("lane counts poisoned");
        total.lane_cycles += lane_cycles;
        total.group_cycles += group_cycles;
        total.batched_cells += batched;
    };
    std::thread::scope(|s| {
        for _ in 0..JOBS {
            s.spawn(worker);
        }
    });
    counts.into_inner().expect("lane counts poisoned")
}

/// Encode and decode cost of `cells` as one shard checkpoint:
/// (encode µs, decode µs, bytes).
pub fn checkpoint_costs(
    rec: &Recorder,
    scenario: &dyn Scenario,
    ctx: &Ctx,
    cells: &[CellResult],
) -> (f64, f64, usize) {
    let meta = ShardMeta::new(scenario.id(), ctx, 0, 1, &(0..cells.len()), cells.len());
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..9 {
        let open = rec.open("snap.encode_checkpoint", None, 0);
        bytes = encode_checkpoint(&meta, cells);
        enc.push(rec.close(open) as f64 / 1e3);
        let open = rec.open("snap.decode_checkpoint", None, 0);
        let decoded = decode_checkpoint(&bytes);
        dec.push(rec.close(open) as f64 / 1e3);
        assert!(decoded.is_ok(), "a fresh checkpoint decodes");
    }
    (
        crate::stats::median(&enc),
        crate::stats::median(&dec),
        bytes.len(),
    )
}

/// The layer probes of a traced run, in this (fresh) process: timed
/// set-up memos, the lane counts, checkpoint costs of the grid's cells,
/// the per-cycle layer drive and the snapshot rates. Prints one JSON line
/// of per-layer values and writes the spans to `spans_out`.
pub fn layers_child(w: CliWorkload, spans_out: &Path) -> Result<(), String> {
    let rec = Recorder::new();
    let (calibrate_ms, tune_ms) = layers::warm(w.percents, Some(&rec));
    let scenario = w.scenario();
    let ctx = w.ctx();
    let lanes = lane_counts(scenario, &ctx);
    let n = scenario.cells(&ctx).len();
    let results = run_cells(scenario, &ctx, JOBS, 0..n);
    let (enc_us, dec_us, ckpt_bytes) = checkpoint_costs(&rec, scenario, &ctx, &results);
    let out = assemble_run(scenario, &ctx, results, JOBS);
    let digest_ok = refs::check_digest(w.name, fnv1a(out.report.as_bytes()));

    let (inv, times) = layers::drive(&w.programs(), Some(&rec));
    let invariants_ok = refs::check_invariants(w.name, &inv);
    let solve_ms = layers::solve_ms(&rec);
    let (save_mb_s, restore_mb_s) = layers::snapshot_rates(&w.programs()[0], &rec);
    println!("{}", spans::self_time_line(&spans::by_name(&rec.spans())));
    rec.write_jsonl(spans_out)
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;

    println!(
        "{{\"digest_ok\":{digest_ok},\"invariants_ok\":{invariants_ok},\
         \"cpu.step_ns\":{},\"cpu.cycles\":{},\"cpu.ipc\":{},\
         \"power.current_ns\":{},\"pdn.step_ns\":{},\"control.observe_ns\":{},\
         \"loop.step_ns\":{},\"loop.self_ns\":{},\"lane_cycles\":{},\
         \"lanes.lanes_per_group\":{},\"lanes.batched_cell_share\":{},\
         \"thresholds.solve_ms\":{solve_ms},\
         \"pdn.calibrate_ms\":{calibrate_ms},\"workloads.tune_ms\":{tune_ms},\
         \"snap.save_mb_s\":{save_mb_s},\"snap.restore_mb_s\":{restore_mb_s},\
         \"snap.checkpoint_encode_us\":{enc_us},\"snap.checkpoint_decode_us\":{dec_us},\
         \"snap.checkpoint_bytes\":{ckpt_bytes},\"trace.span_floor_ns\":{}}}",
        times.cpu_ns,
        inv.cpu_cycles,
        inv.cpu_ipc,
        times.power_ns,
        times.pdn_ns,
        times.control_ns,
        times.loop_ns,
        times.loop_self_ns(),
        lanes.lane_cycles,
        lanes.lane_cycles as f64 / lanes.group_cycles.max(1) as f64,
        lanes.batched_cells as f64 / n.max(1) as f64,
        times.span_floor_ns,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltctl_check::Json;

    #[test]
    fn engine_records_become_grouped_spans_under_the_root() {
        let rec = Recorder::new();
        // Every recorded span ends after its start, past the origin.
        std::thread::sleep(std::time::Duration::from_millis(1));
        let root = rec.open("engine.run", None, 0);
        let labels = vec!["a".to_string(), "b".to_string()];
        let p = EngineSpans::new(&rec, &root, labels);
        p.record(&["exp", "x", "lanes", "gather", "chunk0"], 5);
        p.record(&["exp", "x", "lanes", "step", "chunk0"], 20);
        p.record(&["exp", "x", "lanes", "scatter", "chunk0"], 5);
        p.record(&["exp", "x", "grid", "job1", "b"], 40);
        p.record(&["exp", "x", "merge"], 1);
        p.record(&["exp", "x", "render"], 2);
        rec.close(root);
        let spans = rec.spans();
        let root_id = spans.iter().find(|s| s.name == "engine.run").unwrap().id;
        let find = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name != "engine.run")
            .all(|s| s.parent == Some(root_id)));
        assert_eq!(find("lanes.gather").group, 3);
        assert_eq!(find("lanes.step").group, 3);
        assert_eq!(find("engine.run_cell").group, 2);
        assert_eq!(find("lanes.step").dur_ns(), 20);
        let fields = Json::parse(&format!("{{{}}}", engine_fields(&spans))).unwrap();
        let get = |k: &str| fields.get(k).and_then(Json::as_f64).unwrap();
        assert_eq!(get("lanes.gather_share"), 5.0 / 30.0);
        // The longest unit of grid work is cell b, not the 30 ns chunk.
        assert_eq!(get("engine.critical_cell_s"), 40e-9);
        assert_eq!(get("engine.assemble_ms"), 3e-6);
    }
}
