//! Per-cycle layers driven from the benchmark's side, and the modelled
//! invariants that must repeat exactly from run to run.
//!
//! `Cpu::step` runs over the workload's own programs; its activity,
//! current and voltage sequences are replayed through the power model,
//! the PDN state and the sensor + controller + actuator, and a closed
//! `ControlLoop` steps the same cycles for the whole-loop cost.
//! The cheap layers are timed in batches of [`BATCH`] cycles, each batch
//! corrected by the cost of an empty span.

use crate::spans::Recorder;
use crate::stats::median;
use std::hint::black_box;
use voltctl_core::loopsim::ControlLoopBuilder;
use voltctl_core::{
    solve_thresholds, ActuationScope, ControlLoop, SensorConfig, SolveSetup, ThresholdController,
    ThresholdSensor, Thresholds,
};
use voltctl_cpu::{Cpu, CycleActivity, GatingState};
use voltctl_exp::harness::{cpu_config, pdn_at, power_model, solve_for, tuned_stressmark};
use voltctl_pdn::PdnModel;
use voltctl_workloads::Workload;

/// Cycles per timed batch.
pub const BATCH: u64 = 256;
/// Cycles driven per run of the layer drive, split evenly over the
/// workload's programs.
pub const DRIVE_CYCLES: u64 = 262_144;
/// The supply the per-cycle replays run at (the sweeps' 200%).
const PERCENT: f64 = 2.0;
/// The controller configuration of the replays and the closed loop.
const DELAY: u32 = 2;
const SCOPE: ActuationScope = ActuationScope::FuDl1;

/// Modelled statistics of the drive; a speed-only change leaves every
/// one of them bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Invariants {
    pub cpu_cycles: u64,
    pub cpu_ipc: f64,
    pub interventions_per_mcycle: f64,
    pub gated_duty: f64,
}

/// Host nanoseconds per simulated cycle for each layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub cpu_ns: f64,
    pub power_ns: f64,
    pub pdn_ns: f64,
    pub control_ns: f64,
    pub loop_ns: f64,
    pub span_floor_ns: f64,
}

impl LayerTimes {
    /// The closed loop's cost beyond its layers: monitor, histogram,
    /// energy and the loop's own bookkeeping. The layers are replayed
    /// outside the loop, so within the measurement noise this can read
    /// slightly below zero when the loop has little work of its own.
    pub fn loop_self_ns(&self) -> f64 {
        self.loop_ns - self.cpu_ns - self.power_ns - self.pdn_ns - self.control_ns
    }
}

/// Median cost of an empty span, measured on a scratch recorder.
pub fn span_floor_ns() -> f64 {
    let probe = Recorder::new();
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let open = probe.open("trace.empty", None, 0);
            probe.close(open) as f64
        })
        .collect();
    median(&samples)
}

/// Times a batch when a recorder is present; returns elapsed ns.
fn batch<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    match rec {
        Some(rec) => {
            let open = rec.open(name, None, 0);
            let out = f();
            (out, rec.close(open))
        }
        None => (f(), 0),
    }
}

fn control_thresholds() -> Thresholds {
    solve_for(ActuationScope::Ideal, DELAY, PERCENT).expect("ideal actuation at delay 2 solves")
}

fn sensor_config() -> SensorConfig {
    SensorConfig {
        delay_cycles: DELAY,
        noise_mv: 0.0,
        seed: 0xd1d7,
    }
}

fn loop_builder(program: &Workload, pdn: &PdnModel, t: Thresholds) -> ControlLoopBuilder {
    ControlLoop::builder(program.program.clone())
        .cpu_config(cpu_config())
        .power(power_model())
        .pdn(pdn.clone())
        .thresholds(t)
        .sensor(sensor_config())
        .scope(SCOPE)
}

fn build_loop(program: &Workload, pdn: &PdnModel, t: Thresholds) -> ControlLoop {
    loop_builder(program, pdn, t)
        .build()
        .expect("the drive's control loop constructs")
}

/// Drives every layer over `programs`. With a recorder the batches are
/// timed; without one only the invariants are computed.
pub fn drive(programs: &[Workload], rec: Option<&Recorder>) -> (Invariants, LayerTimes) {
    let per_program = DRIVE_CYCLES / programs.len().max(1) as u64;
    let power = power_model();
    let pdn = pdn_at(PERCENT);
    let t = control_thresholds();
    let floor = rec.map_or(0.0, |_| span_floor_ns());
    let (mut cycles, mut committed) = (0u64, 0u64);
    let (mut loop_cycles, mut interventions, mut reduce) = (0u64, 0u64, 0u64);
    let mut ns = [0.0f64; 5];
    let mut batches = [0u64; 5];
    let mut add = |layer: usize, elapsed: u64| {
        ns[layer] += elapsed as f64;
        batches[layer] += 1;
    };

    for w in programs {
        // Each batch steps the CPU, replays its activity through power,
        // PDN and control, then steps the closed loop over the same
        // cycles of the same program, so every layer sees the same
        // program phase and the same host noise.
        let mut cpu = Cpu::new(cpu_config(), &w.program).expect("workload programs load");
        let mut state = pdn.discretize();
        state.set_reference_current(power.min_current());
        let mut sensor = ThresholdSensor::new(t.v_low, t.v_high, pdn.v_nominal(), sensor_config());
        let mut controller = ThresholdController::new();
        let mut gating = GatingState::default();
        let mut sim = build_loop(w, &pdn, t);
        let mut acts: Vec<(CycleActivity, GatingState)> = Vec::with_capacity(BATCH as usize);
        let mut amps = Vec::with_capacity(BATCH as usize);
        let mut volts = Vec::with_capacity(BATCH as usize);
        let mut stepped = 0;
        while stepped < per_program && !(cpu.done() && sim.done()) {
            let n = BATCH.min(per_program - stepped);
            acts.clear();
            let ((), e) = batch(rec, "cpu.step", || {
                for _ in 0..n {
                    if cpu.done() {
                        break;
                    }
                    let g = cpu.gating();
                    acts.push((cpu.step(), g));
                }
            });
            add(0, e);

            amps.clear();
            let ((), e) = batch(rec, "power.cycle_current", || {
                for (a, g) in &acts {
                    amps.push(black_box(power.cycle_current(a, g)));
                }
            });
            add(1, e);

            volts.clear();
            let ((), e) = batch(rec, "pdn.step", || {
                for &i in &amps {
                    volts.push(black_box(state.step(i)));
                }
            });
            add(2, e);

            let ((), e) = batch(rec, "control.observe", || {
                for &v in &volts {
                    let action = controller.decide(sensor.observe(v));
                    SCOPE.apply(action, &mut gating);
                    black_box(&gating);
                }
            });
            add(3, e);

            let (_, e) = batch(rec, "loop.step_n", || sim.step_n(n));
            add(4, e);
            stepped += n;
        }
        cycles += cpu.stats().cycles;
        committed += cpu.stats().committed;
        let report = sim.report();
        loop_cycles += report.cycles;
        interventions += report.interventions;
        reduce += report.reduce_cycles;
    }

    let per_cycle = |layer: usize, count: u64| {
        ((ns[layer] - floor * batches[layer] as f64) / count.max(1) as f64).max(0.0)
    };
    let times = LayerTimes {
        cpu_ns: per_cycle(0, cycles),
        power_ns: per_cycle(1, cycles),
        pdn_ns: per_cycle(2, cycles),
        control_ns: per_cycle(3, cycles),
        loop_ns: per_cycle(4, loop_cycles),
        span_floor_ns: floor,
    };
    let inv = Invariants {
        cpu_cycles: cycles,
        cpu_ipc: committed as f64 / cycles.max(1) as f64,
        interventions_per_mcycle: interventions as f64 * 1e6 / loop_cycles.max(1) as f64,
        gated_duty: reduce as f64 / loop_cycles.max(1) as f64,
    };
    (inv, times)
}

/// Warms the per-process memos every invocation pays for: the PDN
/// calibration at each of the workload's impedances, then the tuned
/// stressmark. Returns (calibrate ms, tune ms) when recorded.
pub fn warm(percents: &[f64], rec: Option<&Recorder>) -> (f64, f64) {
    let mut calibrate = 0;
    for &p in percents {
        calibrate += batch(rec, "pdn.calibrate", || pdn_at(p)).1;
    }
    let tune = batch(rec, "workloads.tune", tuned_stressmark).1;
    (calibrate as f64 / 1e6, tune as f64 / 1e6)
}

/// One uncached threshold solve at the drive's configuration, in ms.
pub fn solve_ms(rec: &Recorder) -> f64 {
    let power = power_model();
    let pdn = pdn_at(PERCENT);
    let setup = SolveSetup::new(
        &pdn,
        power.min_current(),
        power.achievable_peak_current(),
        SCOPE.leverage(&power),
        DELAY,
    );
    let (solved, e) = batch(Some(rec), "thresholds.solve", || solve_thresholds(&setup));
    black_box(solved.is_ok());
    e as f64 / 1e6
}

/// Snapshot throughput of a control loop over `program` stepped for a
/// while: (save MB/s, restore MB/s).
pub fn snapshot_rates(program: &Workload, rec: &Recorder) -> (f64, f64) {
    let pdn = pdn_at(PERCENT);
    let t = control_thresholds();
    let mut sim = build_loop(program, &pdn, t);
    sim.step_n(20_000);
    let mut bytes = Vec::new();
    let mut saves = Vec::new();
    let mut restores = Vec::new();
    for _ in 0..7 {
        let (b, e) = batch(Some(rec), "snap.save", || sim.save());
        saves.push(e as f64);
        bytes = b;
        let builder = loop_builder(program, &pdn, t);
        let (restored, e) = batch(Some(rec), "snap.restore", || builder.restore(&bytes));
        assert!(restored.is_ok(), "a fresh snapshot restores");
        restores.push(e as f64);
    }
    let mb = bytes.len() as f64 / 1e6;
    (mb / (median(&saves) / 1e9), mb / (median(&restores) / 1e9))
}
