//! The experiment engine: a [`Scenario`] declares a parameter grid and a
//! per-cell run function; [`run_scenario`] fans the grid out across
//! worker threads and reassembles a deterministic report.
//!
//! # Determinism contract
//!
//! Cells are independent and each cell's computation is fully seeded, so
//! the engine guarantees that **the report and the merged telemetry
//! structure are identical for any `--jobs` value**:
//!
//! * cells are identified by their grid index, and results are stored by
//!   index — workers race only for *which* cell to run next, never for
//!   where a result lands;
//! * per-cell [`MemoryRecorder`]s are merged in grid order after the
//!   join, not in completion order (wall-clock timer *values* still vary
//!   run to run — they are wall clock — but every counter, value
//!   statistic, histogram bin, and the event sequence are reproducible);
//! * rendering happens once, on the caller's thread, over the
//!   index-ordered results.
//!
//! This is verified by `tests/determinism.rs` (byte-identical reports at
//! `--jobs 1` vs `--jobs 8`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use voltctl_core::{ControlLoop, LaneLoop, LaneOutcome};
use voltctl_telemetry::{MemoryRecorder, Recorder as _};
use voltctl_trace::{Cause, FlightRecorder, MergedTrace};

use crate::profile::{NullProfiler, Profiler, Span};
use crate::scale::scaled_budget;

/// Trace configuration for a run: when present in [`Ctx`], scenarios
/// that support tracing attach a [`FlightRecorder`] with this window to
/// their controlled loops and hand it back on the [`CellResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Flight-recorder window: cycles kept before and after each
    /// emergency crossing.
    pub window: usize,
}

impl Default for TraceSpec {
    fn default() -> TraceSpec {
        TraceSpec {
            window: voltctl_trace::DEFAULT_WINDOW,
        }
    }
}

/// Cycle budget used for every cell in `--smoke` mode: just enough for
/// the plumbing to be exercised end to end.
pub const SMOKE_CYCLES: u64 = 1_500;
/// Warm-up cap in `--smoke` mode (full warm-ups run to 40k cycles and
/// would dominate a smoke pass).
pub const SMOKE_WARMUP: u64 = 2_000;

/// Per-run context handed to every cell: budget scaling, smoke mode,
/// and whether telemetry should be collected.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Cycle-budget scale factor (1.0 = the documented defaults).
    pub scale: f64,
    /// Smoke mode: tiny budgets, capped warm-ups, narrative shape
    /// assertions disabled. For CI plumbing checks, not for numbers.
    pub smoke: bool,
    /// Whether cells should collect telemetry into their recorders.
    pub telemetry: bool,
    /// Directory for telemetry artifacts cells export directly (per-cycle
    /// trace CSVs and the like). Unused when `telemetry` is off.
    pub telemetry_out: PathBuf,
    /// Event tracing: `Some` makes trace-aware scenarios attach a
    /// flight recorder per cell; `None` (the default) costs nothing —
    /// untraced loops run with `NullTracer`, which compiles away.
    pub trace: Option<TraceSpec>,
    /// Whether batchable scenarios may use the lane executor (the
    /// default). `false` pins every cell to the scalar path — results
    /// are bitwise identical either way, so this only trades speed for
    /// per-cell backtraces and apples-to-apples scalar timing.
    pub lanes: bool,
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx {
            scale: 1.0,
            smoke: false,
            telemetry: false,
            telemetry_out: crate::telemetry::default_out_dir(),
            trace: None,
            lanes: true,
        }
    }
}

impl Ctx {
    /// A context at a given scale, telemetry off.
    pub fn new(scale: f64) -> Ctx {
        Ctx {
            scale,
            ..Ctx::default()
        }
    }

    /// Scales a default cycle budget (smoke mode overrides to
    /// [`SMOKE_CYCLES`]).
    pub fn budget(&self, default_cycles: u64) -> u64 {
        if self.smoke {
            SMOKE_CYCLES
        } else {
            scaled_budget(default_cycles, self.scale)
        }
    }

    /// The warm-up cycles to use for a workload (smoke mode caps at
    /// [`SMOKE_WARMUP`]).
    pub fn warmup(&self, workload_warmup: u64) -> u64 {
        if self.smoke {
            workload_warmup.min(SMOKE_WARMUP)
        } else {
            workload_warmup
        }
    }

    /// A narrative shape check: panics with `msg` when `cond` fails —
    /// except in smoke mode, where budgets are far too small for the
    /// paper's shape claims to hold.
    ///
    /// # Panics
    ///
    /// Panics when `cond` is false outside smoke mode.
    pub fn check(&self, cond: bool, msg: &str) {
        if !self.smoke {
            assert!(cond, "narrative check failed: {msg}");
        }
    }
}

/// The structured result of one grid cell.
#[derive(Debug, Default)]
pub struct CellResult {
    /// The cell's label (usually echoes the grid label).
    pub label: String,
    /// Pre-formatted table cells, consumed by table-building renderers.
    pub row: Vec<String>,
    /// Free-form report text (charts, narratives); renderers that use
    /// `row` typically leave this empty.
    pub text: String,
    /// Named metrics for cross-cell aggregation in `render` (means,
    /// baselines, comparisons) and structured inspection.
    pub values: Vec<(&'static str, f64)>,
    /// Telemetry collected while running the cell; merged into the
    /// run-wide aggregate in grid order.
    pub recorder: MemoryRecorder,
    /// Flight recorder for trace-aware scenarios (left at its default,
    /// empty state otherwise); snapshotted into the run-wide
    /// [`MergedTrace`] in grid order.
    pub tracer: FlightRecorder,
}

impl CellResult {
    /// An empty result with a label.
    pub fn new(label: impl Into<String>) -> CellResult {
        CellResult {
            label: label.into(),
            ..CellResult::default()
        }
    }

    /// Records a named metric.
    pub fn value(&mut self, name: &'static str, value: f64) -> &mut Self {
        self.values.push((name, value));
        self
    }

    /// Looks up a named metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a named metric, panicking with a clear message when the
    /// cell didn't record it (a scenario bug, not an input condition).
    ///
    /// # Panics
    ///
    /// Panics when the metric is absent.
    pub fn require(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("cell {:?} recorded no metric {name:?}", self.label))
    }
}

/// One lane a batchable scenario contributes to the engine's lane
/// executor: a fully built closed loop plus the cycle budget it should
/// run for (warm-up included, exactly what `sim.run(budget)` would get
/// on the scalar path).
#[derive(Debug)]
pub struct BatchLane {
    /// The closed loop to step.
    pub sim: ControlLoop,
    /// Total cycles to run (the lane exits earlier if its program
    /// terminates, matching `ControlLoop::run`).
    pub budget: u64,
}

/// Rough wall-clock class, shown by `voltctl-exp list`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Analytic; finishes in well under a second.
    Instant,
    /// A few seconds of simulation.
    Seconds,
    /// A minute-class full-stack sweep — the parallel payoff lives here.
    Minutes,
}

impl Runtime {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Runtime::Instant => "instant",
            Runtime::Seconds => "seconds",
            Runtime::Minutes => "minutes",
        }
    }
}

/// One reproducible experiment: a named parameter grid plus a per-cell
/// run function and a renderer that turns ordered cell results into the
/// report text.
///
/// Implementations must be `Sync`: `run_cell` is called from worker
/// threads with only `&self`. All mutable state belongs in the
/// [`CellResult`].
pub trait Scenario: Sync {
    /// Stable identifier (`table2_emergencies`, `fig14_sensor_delay_perf`, …).
    fn id(&self) -> &'static str;
    /// One-line description for `voltctl-exp list`.
    fn title(&self) -> &'static str;
    /// Rough runtime class at scale 1.0.
    fn runtime(&self) -> Runtime {
        Runtime::Seconds
    }
    /// The parameter grid: one label per cell, in **report order**. The
    /// engine may run cells in any order on any thread, but results are
    /// always handed to [`render`](Scenario::render) in this order.
    fn cells(&self, ctx: &Ctx) -> Vec<String>;
    /// Runs one cell of the grid. Must be deterministic given
    /// `(ctx, cell)` and free of global mutable state.
    fn run_cell(&self, ctx: &Ctx, cell: usize) -> CellResult;
    /// Assembles the report from index-ordered cell results.
    fn render(&self, ctx: &Ctx, cells: &[CellResult]) -> String;
    /// Whether cells attach a flight recorder when `ctx.trace` is set.
    /// `voltctl-exp list` marks these; `trace` on anything else fails.
    fn trace_aware(&self) -> bool {
        false
    }
    /// Whether this scenario opts into the lane executor: cells that can
    /// express themselves as a flat list of [`BatchLane`]s are stepped
    /// in lockstep by a shared [`LaneLoop`], amortizing CPU and power
    /// work across lanes that share identical state. The engine only
    /// uses the lane path when telemetry and tracing are off — lane
    /// results are bitwise identical to the scalar path, so reports
    /// don't change, but per-cycle telemetry streams are scalar-only.
    fn batchable(&self) -> bool {
        false
    }
    /// Produces this cell's lanes for the lane executor, or `None` to
    /// run the cell on the scalar path ([`run_cell`](Scenario::run_cell))
    /// instead — the escape hatch for cells with nothing to simulate
    /// (e.g. configurations the threshold solver rejects).
    fn batch_cell(&self, _ctx: &Ctx, _cell: usize) -> Option<Vec<BatchLane>> {
        None
    }
    /// Assembles the cell's [`CellResult`] from the finished lanes'
    /// outcomes, in the order [`batch_cell`](Scenario::batch_cell)
    /// produced them. Must yield a result byte-identical to
    /// [`run_cell`](Scenario::run_cell) (lane outcomes are bitwise equal
    /// to scalar runs, so this is a pure reshaping).
    fn finish_batch_cell(
        &self,
        _ctx: &Ctx,
        _cell: usize,
        _outcomes: Vec<LaneOutcome>,
    ) -> CellResult {
        unreachable!("scenarios that produce batch lanes must implement finish_batch_cell")
    }
}

/// The output of one engine run.
#[derive(Debug)]
pub struct RunOutput {
    /// The rendered report.
    pub report: String,
    /// All cells' telemetry, merged in grid order.
    pub telemetry: MemoryRecorder,
    /// All cells' trace captures, merged in grid order. Empty unless
    /// `ctx.trace` was set and the scenario is trace-aware.
    pub trace: MergedTrace,
    /// Number of grid cells executed.
    pub cells: usize,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Wall-clock for grid execution + merge + render.
    pub elapsed: Duration,
}

/// Runs a scenario's grid on up to `jobs` worker threads and renders
/// its report. `jobs` is clamped to `[1, #cells]`; the cell order of
/// the output is the grid order regardless of scheduling.
pub fn run_scenario(scenario: &dyn Scenario, ctx: &Ctx, jobs: usize) -> RunOutput {
    run_scenario_profiled(scenario, ctx, jobs, &NullProfiler)
}

/// [`run_scenario`] with self-profiling: each grid cell, the merge, and
/// the render record wall-clock spans into `profiler` under folded
/// stacks (`exp;<id>;grid;job<j>;<cell>`, `exp;<id>;merge`,
/// `exp;<id>;render`). With [`NullProfiler`] the spans compile away and
/// this *is* `run_scenario`.
pub fn run_scenario_profiled<P: Profiler>(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    jobs: usize,
    profiler: &P,
) -> RunOutput {
    let started = Instant::now();
    let n = scenario.cells(ctx).len();
    let jobs = jobs.max(1).min(n.max(1));
    let results = run_cells_profiled(scenario, ctx, jobs, 0..n, profiler);
    let mut out = assemble_run_profiled(scenario, ctx, results, jobs, profiler);
    out.elapsed = started.elapsed();
    out
}

/// Runs a contiguous sub-range of a scenario's grid on up to `jobs`
/// worker threads and returns the cell results **in grid order**.
///
/// This is the resumable primitive under [`run_scenario`]: a sharded run
/// calls it once per shard (checkpointing each returned slice) and then
/// feeds the concatenation to [`assemble_run`], which performs exactly
/// the merge+render a single-shot run would — so shard-then-merge output
/// is byte-identical to single-shot at any `jobs` value.
///
/// # Panics
///
/// Panics when `range` exceeds the scenario's grid.
pub fn run_cells(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    jobs: usize,
    range: std::ops::Range<usize>,
) -> Vec<CellResult> {
    run_cells_profiled(scenario, ctx, jobs, range, &NullProfiler)
}

/// [`run_cells`] with self-profiling (same span layout as
/// [`run_scenario_profiled`]'s grid stage).
pub fn run_cells_profiled<P: Profiler>(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    jobs: usize,
    range: std::ops::Range<usize>,
    profiler: &P,
) -> Vec<CellResult> {
    let id = scenario.id();
    let labels = scenario.cells(ctx);
    assert!(
        range.start <= range.end && range.end <= labels.len(),
        "cell range {range:?} exceeds the {}-cell grid of {id}",
        labels.len()
    );
    let n = range.len();
    let jobs = jobs.max(1).min(n.max(1));

    // Lane-batched execution when the scenario opts in and nothing
    // forces the scalar path. Lane results are bitwise identical to
    // scalar runs, so the choice is invisible in every report.
    if ctx.lanes && scenario.batchable() && !ctx.telemetry && ctx.trace.is_none() {
        return run_cells_batched(scenario, ctx, jobs, range, &labels, profiler);
    }

    let slots: Vec<Mutex<Option<CellResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let base = range.start;

    if jobs == 1 {
        // Run inline: identical semantics, no thread overhead, and
        // backtraces from narrative checks stay on the caller's stack.
        for (k, slot) in slots.iter().enumerate() {
            let span = Span::start(profiler);
            let result = scenario.run_cell(ctx, base + k);
            span.stop(profiler, &["exp", id, "grid", "job0", &labels[base + k]]);
            *slot.lock().expect("unshared slot") = Some(result);
        }
    } else {
        std::thread::scope(|s| {
            for j in 0..jobs {
                let (slots, next, labels) = (&slots, &next, &labels);
                s.spawn(move || {
                    let job = format!("job{j}");
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        let span = Span::start(profiler);
                        let result = scenario.run_cell(ctx, base + k);
                        span.stop(profiler, &["exp", id, "grid", &job, &labels[base + k]]);
                        *slots[k].lock().expect("cell slot poisoned") = Some(result);
                    }
                });
            }
        });
    }

    slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| {
            slot.into_inner()
                .expect("cell slot poisoned")
                .unwrap_or_else(|| {
                    panic!(
                        "cell {} ({:?}) produced no result",
                        base + k,
                        labels[base + k]
                    )
                })
        })
        .collect()
}

/// The lane-batched back end of [`run_cells_profiled`]: cells are handed
/// out to workers in contiguous chunks; each chunk's lanes (from
/// [`Scenario::batch_cell`]) are gathered into one [`LaneLoop`] and
/// stepped in lockstep, then scattered back through
/// [`Scenario::finish_batch_cell`]. Cells that decline batching run on
/// the scalar path inside the same work queue.
///
/// Chunking multiple cells into one `LaneLoop` is where the speedup
/// comes from, twice over:
///
/// * lanes that are **entirely identical** — same snapshot bytes, same
///   budget — are simulated once and their outcome copied (sweep grids
///   re-run the same uncontrolled baseline in every cell; determinism
///   makes the copy exact, and the lane/scalar oracle tests prove it);
/// * the surviving lanes with byte-identical CPU state (a cell's
///   baseline/controlled pair before the first intervention) share one
///   CPU step per cycle inside the `LaneLoop`.
///
/// Chunk boundaries affect only scheduling, never results — every
/// lane's arithmetic is independent of its neighbours.
fn run_cells_batched<P: Profiler>(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    jobs: usize,
    range: std::ops::Range<usize>,
    labels: &[String],
    profiler: &P,
) -> Vec<CellResult> {
    let id = scenario.id();
    let n = range.len();
    let base = range.start;
    // Wider chunks dedupe and share across more cells, but every live
    // CPU in a chunk is stepped each cycle, so too many lanes turns the
    // lockstep walk cache-hostile. Eight cells per chunk balances the
    // two (and keeps multi-worker runs schedulable).
    let chunk = if jobs <= 1 {
        n.clamp(1, 8)
    } else {
        n.div_ceil(jobs * 2).clamp(1, 8)
    };
    let n_chunks = n.div_ceil(chunk);

    let slots: Vec<Mutex<Option<CellResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let worker = |j: usize| {
        let job = format!("job{j}");
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            let chunk_label = format!("chunk{c}");

            // Gather: build every batchable cell's lanes, dedupe exact
            // replicas, and gather the survivors into one lane loop.
            // `origin[i]` maps logical lane `i` to its simulated
            // representative.
            let span = Span::start(profiler);
            let mut sims = Vec::new();
            let mut budgets = Vec::new();
            let mut origin = Vec::new();
            let mut seen: Vec<(u64, Vec<u8>, usize)> = Vec::new(); // (budget-key, bytes, lane)
            let mut cell_spans = Vec::new(); // (slot, first lane, lane count)
            let mut scalar_cells = Vec::new();
            for k in lo..hi {
                match scenario.batch_cell(ctx, base + k) {
                    Some(lanes) => {
                        let start = origin.len();
                        for lane in lanes {
                            let bytes = lane.sim.save();
                            match seen
                                .iter()
                                .find(|(b, s, _)| *b == lane.budget && *s == bytes)
                            {
                                Some(&(_, _, dup)) => origin.push(dup),
                                None => {
                                    seen.push((lane.budget, bytes, sims.len()));
                                    origin.push(sims.len());
                                    sims.push(lane.sim);
                                    budgets.push(lane.budget);
                                }
                            }
                        }
                        cell_spans.push((k, start, origin.len() - start));
                    }
                    None => scalar_cells.push(k),
                }
            }
            let mut lanes = (!sims.is_empty()).then(|| LaneLoop::gather(sims, &budgets));
            span.stop(profiler, &["exp", id, "lanes", "gather", &chunk_label]);

            // Step: run every lane in the chunk to completion.
            if let Some(lanes) = lanes.as_mut() {
                let span = Span::start(profiler);
                lanes.run();
                span.stop(profiler, &["exp", id, "lanes", "step", &chunk_label]);
            }

            // Scatter: reshape each cell's lane outcomes into its result.
            if let Some(lanes) = lanes.as_ref() {
                let span = Span::start(profiler);
                for &(k, start, count) in &cell_spans {
                    let outcomes: Vec<LaneOutcome> = origin[start..start + count]
                        .iter()
                        .map(|&l| {
                            lanes
                                .outcome(l)
                                .expect("every lane has exited after run()")
                                .clone()
                        })
                        .collect();
                    let result = scenario.finish_batch_cell(ctx, base + k, outcomes);
                    *slots[k].lock().expect("cell slot poisoned") = Some(result);
                }
                span.stop(profiler, &["exp", id, "lanes", "scatter", &chunk_label]);
            }

            // Scalar fallback for cells that declined batching.
            for &k in &scalar_cells {
                let span = Span::start(profiler);
                let result = scenario.run_cell(ctx, base + k);
                span.stop(profiler, &["exp", id, "grid", &job, &labels[base + k]]);
                *slots[k].lock().expect("cell slot poisoned") = Some(result);
            }
        }
    };

    if jobs == 1 {
        worker(0);
    } else {
        std::thread::scope(|s| {
            let worker = &worker;
            for j in 0..jobs {
                s.spawn(move || worker(j));
            }
        });
    }

    slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| {
            slot.into_inner()
                .expect("cell slot poisoned")
                .unwrap_or_else(|| {
                    panic!(
                        "cell {} ({:?}) produced no result",
                        base + k,
                        labels[base + k]
                    )
                })
        })
        .collect()
}

/// Merges grid-ordered cell results and renders the report — the back
/// half of [`run_scenario`], exposed so sharded runs (which obtain
/// their results from [`run_cells`] calls and checkpoint restores) can
/// produce output byte-identical to a single-shot run.
///
/// `results` must cover the whole grid in grid order. `elapsed` on the
/// returned output covers only merge+render; callers tracking a longer
/// wall clock overwrite it.
pub fn assemble_run(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    results: Vec<CellResult>,
    jobs: usize,
) -> RunOutput {
    assemble_run_profiled(scenario, ctx, results, jobs, &NullProfiler)
}

/// [`assemble_run`] with self-profiling (`exp;<id>;merge` and
/// `exp;<id>;render` spans).
pub fn assemble_run_profiled<P: Profiler>(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    results: Vec<CellResult>,
    jobs: usize,
    profiler: &P,
) -> RunOutput {
    let started = Instant::now();
    let id = scenario.id();
    let n = results.len();

    // Grid-order merge: deterministic regardless of completion order.
    let span = Span::start(profiler);
    let mut telemetry = MemoryRecorder::new();
    let mut trace = MergedTrace::new();
    for r in &results {
        telemetry.merge(&r.recorder);
        if ctx.trace.is_some() && r.tracer.cycles() > 0 {
            trace.push(r.tracer.to_cell(r.label.clone()));
        }
    }
    // Traced runs fold their root-cause attribution into the telemetry
    // aggregate as `trace.cause.*` counters (all classes, so the counter
    // set is stable run to run). Attribution is deterministic over the
    // grid-order merge, so these are jobs-invariant like everything else.
    if !trace.is_empty() {
        let counts = crate::trace::forensics(&trace).counts;
        for cause in Cause::ALL {
            telemetry.counter(cause.counter_name(), counts.get(cause));
        }
        telemetry.counter("trace.captures", trace.total_captures() as u64);
    }
    span.stop(profiler, &["exp", id, "merge"]);

    let span = Span::start(profiler);
    let report = scenario.render(ctx, &results);
    span.stop(profiler, &["exp", id, "render"]);
    RunOutput {
        report,
        telemetry,
        trace,
        cells: n,
        jobs,
        elapsed: started.elapsed(),
    }
}

/// The default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltctl_telemetry::Recorder;

    struct Counting;

    impl Scenario for Counting {
        fn id(&self) -> &'static str {
            "counting"
        }
        fn title(&self) -> &'static str {
            "test scenario"
        }
        fn cells(&self, _ctx: &Ctx) -> Vec<String> {
            (0..17).map(|k| format!("cell{k}")).collect()
        }
        fn run_cell(&self, _ctx: &Ctx, cell: usize) -> CellResult {
            let mut r = CellResult::new(format!("cell{cell}"));
            r.value("square", (cell * cell) as f64);
            r.recorder.counter("cells.run", 1);
            r.row = vec![cell.to_string(), (cell * cell).to_string()];
            r
        }
        fn render(&self, _ctx: &Ctx, cells: &[CellResult]) -> String {
            cells
                .iter()
                .map(|c| format!("{}={}", c.label, c.require("square")))
                .collect::<Vec<_>>()
                .join("\n")
        }
    }

    #[test]
    fn results_are_ordered_and_merged() {
        for jobs in [1, 3, 8, 64] {
            let out = run_scenario(&Counting, &Ctx::default(), jobs);
            assert_eq!(out.cells, 17);
            assert!(out.jobs <= 17);
            assert_eq!(out.telemetry.snapshot().counter("cells.run"), Some(17));
            assert!(out.report.starts_with("cell0=0"));
            assert!(out.report.ends_with("cell16=256"));
        }
    }

    #[test]
    fn profiled_run_records_stage_spans() {
        let p = crate::profile::SelfProfiler::new();
        let out = run_scenario_profiled(&Counting, &Ctx::default(), 3, &p);
        assert_eq!(out.cells, 17);
        let stacks = p.stacks();
        let has = |frag: &str| stacks.iter().any(|(s, _)| s.starts_with(frag));
        assert!(has("exp;counting;grid;job"), "cell spans: {stacks:?}");
        assert!(has("exp;counting;merge"), "merge span: {stacks:?}");
        assert!(has("exp;counting;render"), "render span: {stacks:?}");
        let cell_spans: u64 = stacks
            .iter()
            .filter(|(s, _)| s.starts_with("exp;counting;grid;"))
            .map(|(_, st)| st.count)
            .sum();
        assert_eq!(cell_spans, 17, "one span per grid cell");
        assert!(!Counting.trace_aware(), "trace-awareness defaults off");
    }

    #[test]
    fn smoke_overrides_budgets() {
        let full = Ctx::new(1.0);
        assert_eq!(full.budget(100_000), 100_000);
        assert_eq!(full.warmup(40_000), 40_000);
        let smoke = Ctx {
            smoke: true,
            ..Ctx::default()
        };
        assert_eq!(smoke.budget(100_000), SMOKE_CYCLES);
        assert_eq!(smoke.warmup(40_000), SMOKE_WARMUP);
        smoke.check(false, "shape claims are off in smoke mode");
    }

    #[test]
    #[should_panic(expected = "narrative check")]
    fn checks_fire_outside_smoke() {
        Ctx::default().check(false, "must fire");
    }

    #[test]
    fn scale_reaches_budgets() {
        let ctx = Ctx::new(0.5);
        assert_eq!(ctx.budget(100_000), 50_000);
    }
}
