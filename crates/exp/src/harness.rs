//! The reference machine and the shared evaluation helpers every
//! scenario builds on:
//!
//! * the standard power model, machine configuration, and the calibrated
//!   supply network at any percent of target impedance (memoized —
//!   calibration is a bisection over steady-state simulations, and
//!   parallel grid cells would otherwise redo it per cell);
//! * workload construction (the tuned stressmark is memoized for the
//!   same reason; SPEC kernels build per cell via `spec::by_index`);
//! * threshold solving per actuation scope;
//! * controlled-vs-baseline evaluation, threading an optional
//!   [`MemoryRecorder`] instead of mutating process-global state — the
//!   engine's worker threads each own their cell's recorder.

use std::sync::{Mutex, OnceLock};
use voltctl_core::analysis::{build_eval_loops, evaluate_program_recorded, EvalSetup, Evaluation};
use voltctl_core::prelude::*;
use voltctl_cpu::CpuConfig;
use voltctl_pdn::PdnModel;
use voltctl_power::{PowerModel, PowerParams};
use voltctl_telemetry::MemoryRecorder;
use voltctl_workloads::{spec, stressmark, trace, Workload};

use crate::cache::{CacheStats, ShardedLru};
use crate::engine::{BatchLane, Ctx};

/// The standard power model (paper's 3 GHz / 1.0 V budget).
pub fn power_model() -> PowerModel {
    PowerModel::new(PowerParams::paper_3ghz())
}

/// The standard machine configuration (Table 1).
pub fn cpu_config() -> CpuConfig {
    CpuConfig::table1()
}

/// The machine's current swing (amps) under the standard power model.
pub fn delta_i() -> f64 {
    let p = power_model();
    p.achievable_peak_current() - p.min_current()
}

/// The supply network at `percent` of target impedance (1.0 = 100%).
///
/// Calibrations are memoized per process: the first request at a given
/// percent runs the bisection, subsequent requests (other grid cells,
/// other scenarios in a `run --all`) clone the cached model.
///
/// # Panics
///
/// Panics on calibration failure (cannot happen for the standard
/// parameters).
pub fn pdn_at(percent: f64) -> PdnModel {
    static CACHE: OnceLock<Mutex<Vec<(u64, PdnModel)>>> = OnceLock::new();
    let key = percent.to_bits();
    // Calibrate while holding the lock: concurrent first requests block
    // behind one bisection instead of redundantly re-solving — on a
    // saturated machine the redundant work costs more than the wait.
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("pdn cache poisoned");
    if let Some((_, pdn)) = cache.iter().find(|(k, _)| *k == key) {
        return pdn.clone();
    }
    // Only the cache-miss bisection is worth a profiler span: hits are
    // a vector scan.
    let span = crate::profile::global().map(crate::profile::Span::start);
    let power = power_model();
    let pdn = calibrated_pdn(
        &PdnModel::paper_default().expect("paper parameters are valid"),
        &power,
        percent,
    )
    .expect("calibration succeeds for the standard machine");
    if let (Some(span), Some(p)) = (span, crate::profile::global()) {
        span.stop(p, &["harness", "calibrate", &format!("p{percent}")]);
    }
    cache.push((key, pdn.clone()));
    pdn
}

/// The stressmark tuned to the standard package resonance (60 cycles),
/// memoized per process (tuning measures candidate loops on the
/// cycle-level simulator).
pub fn tuned_stressmark() -> Workload {
    static TUNED: OnceLock<Workload> = OnceLock::new();
    TUNED
        .get_or_init(|| {
            let span = crate::profile::global().map(crate::profile::Span::start);
            let config = cpu_config();
            let power = power_model();
            let period = pdn_at(2.0).resonant_period_cycles();
            let (_, wl) = stressmark::tune(period, &config, &power);
            if let (Some(span), Some(p)) = (span, crate::profile::global()) {
                span.stop(p, &["harness", "tune", "stressmark"]);
            }
            wl
        })
        .clone()
}

/// All 26 synthetic SPEC2000 kernels, in suite order.
pub fn spec_suite() -> Vec<Workload> {
    spec::all()
}

/// The paper's high-variation eight-benchmark subset.
pub fn variable_eight() -> Vec<Workload> {
    spec::variable_eight()
}

/// Solves thresholds for a scope/delay at a given impedance percent.
///
/// Solutions are memoized per process in a bounded
/// [`ShardedLru`](crate::cache::ShardedLru), keyed by `(scope, delay,
/// percent)`: a controller sweep evaluates every workload at the same
/// handful of configurations, and without the cache each grid cell would
/// re-run the worst-case adversary search (hundreds of replay
/// simulations per solve). Unstable outcomes are cached too — re-proving
/// infeasibility is as expensive as solving. Bounding the memo matters
/// for the serve daemon: a long-running process fed arbitrary client
/// configurations must not grow the table without limit, and sharding
/// keeps concurrent workers solving *different* configurations from
/// convoying on one lock.
///
/// # Errors
///
/// Propagates solver errors ([`ControlError::Unstable`] in particular).
type SolveKey = (ActuationScope, u32, u64);
type SolveCache = ShardedLru<SolveKey, Result<Thresholds, ControlError>>;

/// The process-wide threshold-solution memo (4 shards × 32 entries).
fn solve_cache() -> &'static SolveCache {
    static CACHE: OnceLock<SolveCache> = OnceLock::new();
    CACHE.get_or_init(|| SolveCache::new(4, 32))
}

pub fn solve_for(
    scope: ActuationScope,
    delay: u32,
    percent: f64,
) -> Result<Thresholds, ControlError> {
    let key = (scope, delay, percent.to_bits());
    // Solve while holding the shard lock: concurrent first requests for
    // the same configuration block behind one adversary search instead
    // of redundantly re-solving (same policy as the calibration cache);
    // requests for configurations on other shards proceed unblocked.
    solve_cache().get_or_insert_with(&key, || {
        let span = crate::profile::global().map(crate::profile::Span::start);
        let power = power_model();
        let pdn = pdn_at(percent);
        let setup = SolveSetup::new(
            &pdn,
            power.min_current(),
            power.achievable_peak_current(),
            scope.leverage(&power),
            delay,
        );
        let solved = solve_thresholds(&setup);
        if let (Some(span), Some(p)) = (span, crate::profile::global()) {
            span.stop(
                p,
                &[
                    "harness",
                    "solve",
                    &format!("{scope:?}.d{delay}.p{percent}"),
                ],
            );
        }
        solved
    })
}

/// Upper bound on memoized threshold solutions (diagnostics / tests).
pub fn solve_cache_capacity() -> usize {
    solve_cache().capacity()
}

/// Live hit/miss/eviction/residency stats for the threshold-solution
/// memo (the serve daemon surfaces these at `/metrics`).
pub fn solve_cache_stats() -> CacheStats {
    solve_cache().stats()
}

/// Evaluates one workload under control vs. baseline.
///
/// With `telem: Some(rec)`, the controlled run's counters, timers, and
/// histograms are merged into `rec` (the caller's cell recorder);
/// with `None` the loop runs on the zero-cost
/// [`voltctl_telemetry::NullRecorder`].
///
/// # Errors
///
/// Propagates construction/solver errors.
#[allow(clippy::too_many_arguments)]
pub fn evaluate(
    workload: &Workload,
    scope: ActuationScope,
    thresholds: Thresholds,
    sensor: SensorConfig,
    percent: f64,
    warmup: u64,
    cycles: u64,
    telem: Option<&mut MemoryRecorder>,
) -> Result<Evaluation, ControlError> {
    let setup = EvalSetup {
        cpu_config: cpu_config(),
        power: power_model(),
        pdn: pdn_at(percent),
        thresholds,
        sensor,
        scope,
    };
    match telem {
        Some(out) => {
            let rec = MemoryRecorder::new().echo_warnings(true);
            let (evaluation, rec) =
                evaluate_program_recorded(&workload.program, &setup, warmup, cycles, rec)?;
            out.merge(&rec);
            Ok(evaluation)
        }
        None => {
            let (evaluation, _) = evaluate_program_recorded(
                &workload.program,
                &setup,
                warmup,
                cycles,
                voltctl_telemetry::NullRecorder,
            )?;
            Ok(evaluation)
        }
    }
}

/// Records a workload's uncontrolled current trace at the standard
/// configuration.
pub fn current_trace(workload: &Workload, cycles: usize) -> Vec<f64> {
    trace::record_current(workload, &cpu_config(), &power_model(), cycles)
}

/// One point of a controller sweep (used by Figures 14–18).
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Workload (or aggregate) label.
    pub label: String,
    /// Actuation scope.
    pub scope: ActuationScope,
    /// Sensor delay in cycles.
    pub delay: u32,
    /// Sensor error in millivolts.
    pub error_mv: f64,
    /// Fractional IPC loss vs. the uncontrolled baseline.
    pub perf_loss: f64,
    /// Fractional per-instruction energy increase vs. baseline.
    pub energy_increase: f64,
    /// Emergency cycles remaining under control.
    pub controlled_emergencies: u64,
    /// Emergency cycles in the baseline.
    pub baseline_emergencies: u64,
    /// Whether the threshold solver declared this point unstable.
    pub unstable: bool,
}

/// The solved configuration for one sweep point: deployed thresholds
/// plus the sensor model. `None` means the threshold solver declared the
/// point unstable (no safe thresholds exist for the scope's leverage).
///
/// Per the paper's methodology, the deployed thresholds come from the
/// Table 3 analysis (ideal actuation); the scope-specific solve is used
/// to *flag* configurations whose actuation leverage cannot guarantee
/// safety (FU-only at delay >= 3).
pub fn sweep_config(
    scope: ActuationScope,
    delay: u32,
    error_mv: f64,
    percent: f64,
) -> Option<(Thresholds, SensorConfig)> {
    let thresholds = solve_for(scope, delay, percent)
        .and_then(|_| solve_for(ActuationScope::Ideal, delay, percent))
        .ok()?;
    let sensor = SensorConfig {
        delay_cycles: delay,
        noise_mv: error_mv,
        seed: 0xd1d7,
    };
    Some((thresholds, sensor))
}

/// A row constructor bound to one sweep point's coordinates.
fn sweep_row_maker(
    scope: ActuationScope,
    delay: u32,
    error_mv: f64,
) -> impl Fn(&str, f64, f64, u64, u64, bool) -> SweepRow {
    move |label: &str, perf: f64, energy: f64, ce: u64, be: u64, unstable: bool| SweepRow {
        label: label.to_string(),
        scope,
        delay,
        error_mv,
        perf_loss: perf,
        energy_increase: energy,
        controlled_emergencies: ce,
        baseline_emergencies: be,
        unstable,
    }
}

/// The rows for an unstable sweep point: NaN metrics, flagged, one per
/// workload plus the `"SPEC mean"` aggregate and the stressmark.
fn sweep_rows_unstable(
    workloads: &[Workload],
    stress: &Workload,
    scope: ActuationScope,
    delay: u32,
    error_mv: f64,
) -> Vec<SweepRow> {
    let make_row = sweep_row_maker(scope, delay, error_mv);
    let mut rows: Vec<SweepRow> = workloads
        .iter()
        .map(|w| make_row(&w.name, f64::NAN, f64::NAN, 0, 0, true))
        .collect();
    rows.push(make_row("SPEC mean", f64::NAN, f64::NAN, 0, 0, true));
    rows.push(make_row(&stress.name, f64::NAN, f64::NAN, 0, 0, true));
    rows
}

/// Assembles sweep rows from per-workload evaluations (`evals` holds one
/// [`Evaluation`] per workload, then the stressmark's, in order). Shared
/// by the scalar and lane-batched paths so the aggregate arithmetic —
/// and therefore every reported digit — is identical on both.
fn sweep_rows(
    workloads: &[Workload],
    stress: &Workload,
    scope: ActuationScope,
    delay: u32,
    error_mv: f64,
    evals: &[Evaluation],
) -> Vec<SweepRow> {
    assert_eq!(
        evals.len(),
        workloads.len() + 1,
        "one evaluation per workload plus the stressmark"
    );
    let make_row = sweep_row_maker(scope, delay, error_mv);
    let mut rows = Vec::new();
    let mut sum_perf = 0.0;
    let mut sum_energy = 0.0;
    for (w, e) in workloads.iter().zip(evals) {
        sum_perf += e.perf_loss();
        sum_energy += e.energy_increase();
        rows.push(make_row(
            &w.name,
            e.perf_loss(),
            e.energy_increase(),
            e.controlled.emergencies.emergency_cycles,
            e.baseline.emergencies.emergency_cycles,
            false,
        ));
    }
    let n = workloads.len().max(1) as f64;
    rows.push(make_row(
        "SPEC mean",
        sum_perf / n,
        sum_energy / n,
        0,
        0,
        false,
    ));
    let e = &evals[workloads.len()];
    rows.push(make_row(
        &stress.name,
        e.perf_loss(),
        e.energy_increase(),
        e.controlled.emergencies.emergency_cycles,
        e.baseline.emergencies.emergency_cycles,
        false,
    ));
    rows
}

/// Evaluates `workloads` (plus the stressmark) at one controller
/// configuration, returning one row per workload plus a `"SPEC mean"`
/// aggregate over `workloads`.
///
/// Unstable points (no safe thresholds) produce rows flagged `unstable`
/// with NaN metrics.
#[allow(clippy::too_many_arguments)]
pub fn sweep_point(
    ctx: &Ctx,
    workloads: &[Workload],
    stress: &Workload,
    scope: ActuationScope,
    delay: u32,
    error_mv: f64,
    percent: f64,
    cycles: u64,
    mut telem: Option<&mut MemoryRecorder>,
) -> Vec<SweepRow> {
    let Some((thresholds, sensor)) = sweep_config(scope, delay, error_mv, percent) else {
        return sweep_rows_unstable(workloads, stress, scope, delay, error_mv);
    };

    let mut evals = Vec::new();
    for w in workloads {
        evals.push(
            evaluate(
                w,
                scope,
                thresholds,
                sensor,
                percent,
                ctx.warmup(w.warmup_cycles),
                cycles,
                telem.as_deref_mut(),
            )
            .expect("evaluation constructs for solved thresholds"),
        );
    }
    evals.push(
        evaluate(
            stress,
            scope,
            thresholds,
            sensor,
            percent,
            ctx.warmup(stress.warmup_cycles),
            cycles,
            telem,
        )
        .expect("stressmark evaluation constructs"),
    );
    sweep_rows(workloads, stress, scope, delay, error_mv, &evals)
}

/// Builds the lane list for one sweep point — a baseline/controlled loop
/// pair per workload (workloads in order, stressmark last), each with the
/// budget its scalar run would get. Returns `None` for unstable points,
/// which fall back to the scalar path (no simulation happens there — the
/// rows are immediate).
///
/// Adjacent lanes of the same workload start with byte-identical CPU
/// state, so the lane executor shares one CPU step across them until the
/// controlled lane's first intervention.
#[allow(clippy::too_many_arguments)]
pub fn sweep_batch(
    ctx: &Ctx,
    workloads: &[Workload],
    stress: &Workload,
    scope: ActuationScope,
    delay: u32,
    error_mv: f64,
    percent: f64,
    cycles: u64,
) -> Option<Vec<BatchLane>> {
    let (thresholds, sensor) = sweep_config(scope, delay, error_mv, percent)?;
    let setup = EvalSetup {
        cpu_config: cpu_config(),
        power: power_model(),
        pdn: pdn_at(percent),
        thresholds,
        sensor,
        scope,
    };
    let mut lanes = Vec::new();
    for w in workloads.iter().chain(std::iter::once(stress)) {
        let budget = ctx.warmup(w.warmup_cycles) + cycles;
        let (baseline, controlled) = build_eval_loops(&w.program, &setup)
            .expect("evaluation constructs for solved thresholds");
        lanes.push(BatchLane {
            sim: baseline,
            budget,
        });
        lanes.push(BatchLane {
            sim: controlled,
            budget,
        });
    }
    Some(lanes)
}

/// Pairs the finished lane outcomes from [`sweep_batch`] back into
/// evaluations and assembles the same rows [`sweep_point`] produces.
pub fn sweep_finish(
    workloads: &[Workload],
    stress: &Workload,
    scope: ActuationScope,
    delay: u32,
    error_mv: f64,
    outcomes: &[voltctl_core::LaneOutcome],
) -> Vec<SweepRow> {
    assert_eq!(
        outcomes.len(),
        2 * (workloads.len() + 1),
        "a baseline/controlled outcome pair per workload plus the stressmark"
    );
    let evals: Vec<Evaluation> = outcomes
        .chunks(2)
        .map(|pair| Evaluation {
            baseline: pair[0].report.clone(),
            controlled: pair[1].report.clone(),
        })
        .collect();
    sweep_rows(workloads, stress, scope, delay, error_mv, &evals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_constructs() {
        let pdn = pdn_at(2.0);
        assert!(pdn.peak_impedance() > 0.0);
        assert!(delta_i() > 30.0);
        assert_eq!(spec_suite().len(), 26);
    }

    #[test]
    fn pdn_cache_returns_identical_models() {
        let a = pdn_at(3.0);
        let b = pdn_at(3.0);
        assert_eq!(a.peak_impedance(), b.peak_impedance());
        assert_eq!(a.resonant_period_cycles(), b.resonant_period_cycles());
    }

    #[test]
    fn solve_cache_replays_solutions_and_failures() {
        let a = solve_for(ActuationScope::Ideal, 2, 2.0).expect("ideal at delay 2 is solvable");
        let b = solve_for(ActuationScope::Ideal, 2, 2.0).unwrap();
        assert_eq!(a, b, "cached solve must replay the original solution");
        // FU-only at long delay is unstable; the failure is cached too.
        let e1 = solve_for(ActuationScope::Fu, 6, 3.0);
        let e2 = solve_for(ActuationScope::Fu, 6, 3.0);
        assert_eq!(e1, e2);
    }

    #[test]
    fn stressmark_is_memoized_and_stable() {
        let a = tuned_stressmark();
        let b = tuned_stressmark();
        assert_eq!(a.name, b.name);
        assert_eq!(a.program.len(), b.program.len());
    }
}
