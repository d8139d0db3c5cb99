//! Differential oracle for the lane path: bitwise identity between
//! [`LaneLoop`] lockstep execution and the scalar [`ControlLoop`], the
//! hard contract `crates/core/src/lane.rs` promises.
//!
//! Random grids of per-lane configurations (controlled/uncontrolled,
//! tight/loose thresholds, sensor delay and noise, symmetric and
//! asymmetric actuation scopes, mixed programs, uneven budgets) are run at lane widths 1, 4, 8, and 9 — one past the
//! widest regular group, so a ragged tail lane is always exercised —
//! and every lane must agree with its scalar twin on the run report,
//! the architectural digest, and every per-cycle trace sample to the
//! bit. A second property drives the mid-run checkpoint contract:
//! lane → `save_lane` → scalar restore → re-gather must continue
//! bit-for-bit, so `--shards`/`--resume` cannot tell the paths apart.

use voltctl_check::{check, ensure, ensure_eq, usize_in, Config};
use voltctl_core::calibrate::calibrated_pdn;
use voltctl_core::loopsim::{ControlLoopBuilder, LoopSample};
use voltctl_core::prelude::*;
use voltctl_core::sensor::SensorConfig;
use voltctl_core::LaneLoop;
use voltctl_isa::builder::ProgramBuilder;
use voltctl_isa::reg::IntReg;
use voltctl_pdn::PdnModel;
use voltctl_power::{PowerModel, PowerParams};
use voltctl_telemetry::Rng;

/// The tested lane widths: singleton, two regular groups, and a ragged
/// tail one past width 8.
const WIDTHS: [usize; 4] = [1, 4, 8, 9];

/// A steady high-activity spin: the supply dips hard, so tight
/// thresholds intervene and controlled lanes diverge from the group.
fn spin_program() -> voltctl_isa::Program {
    let mut b = ProgramBuilder::new("oracle-spin");
    b.label("top");
    b.addq_imm(IntReg::R1, IntReg::R1, 1);
    b.br("top");
    b.build().unwrap()
}

/// A mixed ALU loop with a different activity profile, so grids hold
/// lanes that can never share a CPU with the spin lanes.
fn mix_program() -> voltctl_isa::Program {
    let mut b = ProgramBuilder::new("oracle-mix");
    b.label("top");
    b.addq_imm(IntReg::R1, IntReg::R1, 3);
    b.mulq_imm(IntReg::R2, IntReg::R1, 5);
    b.xor(IntReg::R3, IntReg::R2, IntReg::R1);
    b.srl_imm(IntReg::R4, IntReg::R3, 2);
    b.br("top");
    b.build().unwrap()
}

/// One lane's randomized configuration, drawn from a seeded [`Rng`] so
/// the whole grid reproduces from a single case seed.
#[derive(Debug, Clone)]
struct LaneConfig {
    mix: bool,
    thresholds: Option<Thresholds>,
    delay: u32,
    noise_mv: f64,
    actuator: AsymmetricActuator,
    budget: u64,
}

impl LaneConfig {
    fn draw(rng: &mut Rng) -> LaneConfig {
        // The tight 1 mV window rejects any meaningful sensor noise
        // (the builder calls it Infeasible), so noise only pairs with
        // the loose band or no thresholds at all.
        let (thresholds, tight) = match rng.next_u64() % 3 {
            0 => (None, false),
            1 => (
                Some(Thresholds {
                    v_low: 0.955,
                    v_high: 1.045,
                }),
                false,
            ),
            _ => (
                Some(Thresholds {
                    v_low: 0.9995,
                    v_high: 1.0005,
                }),
                true,
            ),
        };
        LaneConfig {
            mix: rng.next_bool(),
            thresholds,
            delay: (rng.next_u64() % 4) as u32,
            noise_mv: if !tight && rng.next_bool() { 10.0 } else { 0.0 },
            actuator: Self::draw_actuator(rng),
            budget: 300 + rng.next_u64() % 900,
        }
    }

    /// A symmetric scope or an asymmetric reduce/increase pair. Lanes
    /// sharing a CPU then command different gatings for the same action,
    /// which the lane path's gating partition must split apart.
    fn draw_actuator(rng: &mut Rng) -> AsymmetricActuator {
        let symmetric = rng.next_bool();
        let scopes = ActuationScope::all();
        let mut scope = || scopes[(rng.next_u64() % scopes.len() as u64) as usize];
        if symmetric {
            AsymmetricActuator::symmetric(scope())
        } else {
            AsymmetricActuator {
                reduce: scope(),
                increase: scope(),
            }
        }
    }

    fn builder(&self, pdn: &PdnModel, power: &PowerModel) -> ControlLoopBuilder {
        let program = if self.mix {
            mix_program()
        } else {
            spin_program()
        };
        let mut b = ControlLoop::builder(program)
            .power(power.clone())
            .pdn(pdn.clone())
            .record_trace(true)
            .sensor(SensorConfig {
                delay_cycles: self.delay,
                noise_mv: self.noise_mv,
                seed: 0xd1d7,
            })
            .actuator(self.actuator);
        if let Some(t) = self.thresholds {
            b = b.thresholds(t);
        }
        b
    }

    fn build(&self, pdn: &PdnModel, power: &PowerModel) -> ControlLoop {
        self.builder(pdn, power).build().unwrap()
    }

    fn restore(&self, pdn: &PdnModel, power: &PowerModel, bytes: &[u8]) -> ControlLoop {
        self.builder(pdn, power).restore(bytes).unwrap()
    }
}

fn grid(seed: u64, width: usize) -> Vec<LaneConfig> {
    let mut rng = Rng::new(seed ^ 0xa5a5_5a5a);
    (0..width).map(|_| LaneConfig::draw(&mut rng)).collect()
}

/// The grouping the CPU snapshot images imply, as group indices in
/// first-appearance order: a lane joins the first earlier lane whose CPU
/// packs to the same bytes. Every lane of a grid shares one power model,
/// so the image alone is the key.
fn byte_image_groups(loops: &[ControlLoop]) -> Vec<usize> {
    let images: Vec<Vec<u8>> = loops
        .iter()
        .map(|l| {
            let mut w = voltctl_snap::ByteWriter::new();
            l.cpu().pack_state(&mut w);
            w.into_bytes()
        })
        .collect();
    let mut firsts: Vec<usize> = Vec::new();
    let mut groups = Vec::with_capacity(images.len());
    for (lane, image) in images.iter().enumerate() {
        let group = firsts
            .iter()
            .position(|&f| images[f] == *image)
            .unwrap_or_else(|| {
                firsts.push(lane);
                firsts.len() - 1
            });
        groups.push(group);
    }
    groups
}

/// Gathers `loops`, checking that `gather` groups exactly the lanes
/// whose CPU snapshot images are equal.
fn gather_checked(loops: Vec<ControlLoop>, budgets: &[u64]) -> Result<LaneLoop, String> {
    let want = byte_image_groups(&loops);
    let lanes = LaneLoop::gather(loops, budgets);
    let got: Vec<usize> = (0..want.len()).map(|l| lanes.group_of(l)).collect();
    ensure_eq!(got, want, "gather grouping vs byte-image grouping");
    Ok(lanes)
}

fn sample_bits_equal(a: &LoopSample, b: &LoopSample) -> bool {
    a.current.to_bits() == b.current.to_bits()
        && a.voltage.to_bits() == b.voltage.to_bits()
        && a.reducing == b.reducing
        && a.increasing == b.increasing
}

/// Lane execution agrees bitwise with scalar execution — reports,
/// architectural digests, and every trace sample — for random grids at
/// every tested width.
#[test]
fn lanes_match_scalar_bitwise_over_random_grids() {
    let power = PowerModel::new(PowerParams::paper_3ghz());
    let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 2.0).unwrap();
    let gen = (usize_in(0, WIDTHS.len() - 1), usize_in(0, usize::MAX >> 1));
    check(
        "oracle.lanes.scalar-differential",
        &Config::cases(12, 0x1a7e),
        &gen,
        |(w_idx, seed)| {
            let width = WIDTHS[*w_idx];
            let configs = grid(*seed as u64, width);
            let budgets: Vec<u64> = configs.iter().map(|c| c.budget).collect();

            let mut lanes = gather_checked(
                configs.iter().map(|c| c.build(&pdn, &power)).collect(),
                &budgets,
            )?;
            lanes.run();

            for (l, config) in configs.iter().enumerate() {
                let mut scalar = config.build(&pdn, &power);
                scalar.step_n(config.budget);
                let out = lanes.outcome(l).expect("lane exited at its budget");
                ensure_eq!(out.report, scalar.report());
                ensure_eq!(out.arch_digest, scalar.arch_digest());
                let want = scalar.take_trace();
                let got = lanes.take_trace(l);
                ensure_eq!(want.len(), got.len());
                for (k, (a, b)) in want.iter().zip(&got).enumerate() {
                    ensure!(
                        sample_bits_equal(a, b),
                        "lane {l} ({config:?}) cycle {k}: {a:?} vs {b:?}"
                    );
                }
            }
            Ok(())
        },
    );
}

/// The mid-run checkpoint contract: pause a lane run, serialize every
/// lane with `save_lane`, restore each through the scalar snapshot
/// path, re-gather, and finish under lanes. The snapshot bytes must
/// match a scalar run paused at the same cycle, and the completed runs
/// must agree bitwise end to end — including the sensor RNG and the
/// in-flight trace carried across the checkpoint.
#[test]
fn mid_run_save_restore_continues_bitwise() {
    let power = PowerModel::new(PowerParams::paper_3ghz());
    let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 2.0).unwrap();
    let gen = (usize_in(0, WIDTHS.len() - 1), usize_in(0, usize::MAX >> 1));
    check(
        "oracle.lanes.save-restore-continue",
        &Config::cases(8, 0x5a7e),
        &gen,
        |(w_idx, seed)| {
            let width = WIDTHS[*w_idx];
            let configs = grid(*seed as u64, width);
            let splits: Vec<u64> = configs.iter().map(|c| c.budget / 2).collect();
            let rests: Vec<u64> = configs
                .iter()
                .zip(&splits)
                .map(|(c, s)| c.budget - s)
                .collect();

            // First half under lanes, checkpoint, second half under
            // lanes again on the restored loops.
            let mut first = gather_checked(
                configs.iter().map(|c| c.build(&pdn, &power)).collect(),
                &splits,
            )?;
            first.run();
            let mut restored = Vec::with_capacity(width);
            for (l, config) in configs.iter().enumerate() {
                let bytes = first.save_lane(l);
                let mut paused = config.build(&pdn, &power);
                paused.step_n(splits[l]);
                ensure_eq!(bytes, paused.save());
                restored.push(config.restore(&pdn, &power, &bytes));
            }
            let mut second = gather_checked(restored, &rests)?;
            second.run();

            for (l, config) in configs.iter().enumerate() {
                let mut scalar = config.build(&pdn, &power);
                scalar.step_n(config.budget);
                let out = second.outcome(l).expect("restored lane exited");
                ensure_eq!(out.report, scalar.report());
                ensure_eq!(out.arch_digest, scalar.arch_digest());
                // The full snapshot (CPU, PDN, sensor RNG, controller,
                // trace) agrees after crossing the checkpoint.
                ensure_eq!(second.save_lane(l), scalar.save());
            }
            Ok(())
        },
    );
}
