//! Batched lockstep execution of many [`ControlLoop`]s (the lane path).
//!
//! A grid experiment steps hundreds of independent control loops, and
//! [`Cpu::step`] is most of each loop's cycle. [`LaneLoop`] steps W loops
//! in lockstep and wins by **CPU sharing**: the simulator is fully
//! deterministic, so two lanes whose CPUs hold the same state (same
//! program, configuration, architectural and microarchitectural state —
//! including clock-gating) and whose power models are
//! parameter-identical *must* produce identical activity every cycle
//! until their controllers command different gating. Lanes are therefore
//! grouped: one [`Cpu::step`] and one power evaluation per group per
//! cycle, broadcast to every member lane. In a sweep, the uncontrolled
//! baselines of one workload at every configuration collapse into a
//! single group for the whole run, and each controlled lane rides along
//! until its first intervention.
//!
//! Everything after the CPU and power model — PDN, monitor, histogram,
//! energy, sensor, controller, actuator, band counters, sample trace —
//! is each lane's own `PostCpu` state (in `loopsim`), stepped through the
//! same supply and control halves that [`ControlLoop::step`] runs. Bitwise identity
//! with the scalar path therefore holds by construction; the differential
//! oracle in `tests/oracle_lanes.rs` guards the grouping around it.
//!
//! # Divergence-exit rules
//!
//! * **Gating divergence**: every cycle each controlled lane reports the
//!   [`GatingState`] its actuator commands for the next cycle (actuation
//!   is absolute — the actuator always releases everything first — so
//!   the state depends only on the action and the actuator). Lanes in a
//!   group are partitioned by that state; the first partition keeps the
//!   group's CPU, every other partition *forks* a clone. Groups split and
//!   never merge.
//! * **Lane exit**: a lane leaves the lockstep the moment its cycle
//!   budget is spent or its program finishes; its outcome (report +
//!   architectural digest) is materialized at that boundary, and a CPU
//!   clone is parked on the lane so it can still be scattered back into
//!   a scalar [`ControlLoop`] while its former group runs on.
//! * **Unsupported observers**: loops carrying a live recorder or tracer
//!   never enter the lane path (those observers fire in scalar step
//!   order); the engine falls back to the scalar path for such cells.
//!   The in-memory [`LoopSample`] trace *is* supported — it is part of
//!   each lane's post-CPU state.

use crate::loopsim::{power_fingerprint, ControlLoop, LoopReport, LoopSample, PostCpu};
use voltctl_cpu::{Cpu, GatingState};
use voltctl_power::PowerModel;

/// A lane's materialized end-of-run result.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneOutcome {
    /// The run report, bitwise identical to the scalar loop's.
    pub report: LoopReport,
    /// Digest of the CPU's architectural state at exit.
    pub arch_digest: u64,
}

/// One CPU shared by every lane whose control history is still
/// identical. `lanes` is empty once all members have exited (the group
/// itself is retained so parked lanes can still clone its power model).
#[derive(Debug)]
struct LaneGroup {
    cpu: Cpu,
    power: PowerModel,
    lanes: Vec<usize>,
}

/// One lane: its own post-CPU state and its place in the lockstep.
#[derive(Debug)]
struct Lane {
    post: PostCpu,
    group: usize,
    budget: u64,
    /// The gating this lane's controller commanded for the next cycle;
    /// `None` for an uncontrolled lane, which keeps its group's.
    next: Option<GatingState>,
    /// The lane's CPU, cloned off its group when the lane exits.
    parked: Option<Cpu>,
    outcome: Option<LaneOutcome>,
}

impl Lane {
    /// The gating this lane wants its CPU to run next cycle.
    fn wants(&self, current: GatingState) -> GatingState {
        self.next.unwrap_or(current)
    }
}

/// W control loops stepped in lockstep over shared CPUs.
///
/// Build one with [`gather`](LaneLoop::gather), drive it with
/// [`run`](LaneLoop::run) or [`step_all`](LaneLoop::step_all), then read
/// [`outcome`](LaneLoop::outcome)s or scatter back to scalar loops with
/// [`into_loops`](LaneLoop::into_loops) / [`save_lane`](LaneLoop::save_lane).
#[derive(Debug)]
pub struct LaneLoop {
    lanes: Vec<Lane>,
    groups: Vec<LaneGroup>,
}

impl LaneLoop {
    /// Gathers `loops` into lanes, assigning each lane the cycle budget
    /// in `budgets` (a lane exits once it has stepped that many cycles,
    /// or earlier when its program finishes — exactly
    /// [`ControlLoop::step_n`] semantics).
    ///
    /// Lanes whose CPUs hold the same state (`Cpu`'s `PartialEq`: equal
    /// snapshot images) and whose power models are parameter-identical
    /// are placed in one shared-CPU group.
    ///
    /// # Panics
    ///
    /// Panics when `budgets.len() != loops.len()`.
    pub fn gather(loops: Vec<ControlLoop>, budgets: &[u64]) -> LaneLoop {
        assert_eq!(loops.len(), budgets.len(), "one budget per lane");
        let mut lanes = Vec::with_capacity(loops.len());
        let mut groups: Vec<LaneGroup> = Vec::new();
        // Power fingerprint of each group, parallel to `groups`.
        let mut power_fps: Vec<u64> = Vec::new();

        for (lane, (sim, &budget)) in loops.into_iter().zip(budgets).enumerate() {
            let ControlLoop {
                cpu, power, post, ..
            } = sim;
            let power_fp = power_fingerprint(&power);
            // The power fingerprint and the CPU's scalar fields (compared
            // first by `Cpu::eq`) screen out most candidates before the
            // memory image and cache arrays are compared.
            let group = (0..groups.len())
                .find(|&g| power_fps[g] == power_fp && groups[g].cpu == cpu)
                .unwrap_or_else(|| {
                    groups.push(LaneGroup {
                        cpu,
                        power,
                        lanes: Vec::new(),
                    });
                    power_fps.push(power_fp);
                    groups.len() - 1
                });
            groups[group].lanes.push(lane);
            lanes.push(Lane {
                post,
                group,
                budget,
                next: None,
                parked: None,
                outcome: None,
            });
        }
        LaneLoop { lanes, groups }
    }

    /// The CPU group a lane currently runs in. Right after
    /// [`gather`](LaneLoop::gather), lanes share a group exactly when
    /// their CPUs and power models were identical.
    pub fn group_of(&self, lane: usize) -> usize {
        self.lanes[lane].group
    }

    /// Number of CPU groups that still have running lanes.
    pub fn active_group_count(&self) -> usize {
        self.groups.iter().filter(|g| !g.lanes.is_empty()).count()
    }

    /// The lane's materialized outcome, once it has exited.
    pub fn outcome(&self, lane: usize) -> Option<&LaneOutcome> {
        self.lanes[lane].outcome.as_ref()
    }

    /// The lane's run report at its current state (live lanes included).
    pub fn report(&self, lane: usize) -> LoopReport {
        self.lanes[lane].post.report(self.lane_cpu(lane))
    }

    /// Takes the lane's recorded per-cycle trace (empty unless the
    /// gathered loop had `record_trace` enabled).
    pub fn take_trace(&mut self, lane: usize) -> Vec<LoopSample> {
        self.lanes[lane].post.take_trace()
    }

    fn lane_cpu(&self, lane: usize) -> &Cpu {
        let l = &self.lanes[lane];
        l.parked.as_ref().unwrap_or(&self.groups[l.group].cpu)
    }

    /// Scatters one lane back into a scalar [`ControlLoop`]; every part
    /// is cloned, the lane keeps running.
    fn lane_loop(&self, lane: usize) -> ControlLoop {
        let l = &self.lanes[lane];
        ControlLoop::assemble(
            self.lane_cpu(lane).clone(),
            self.groups[l.group].power.clone(),
            l.post.clone(),
        )
    }

    /// Serializes one lane as a scalar loop snapshot — byte-identical to
    /// the [`ControlLoop::save`] of a loop stepped scalar to the same
    /// point, so `--shards`/`--resume` round-trip through the lane path.
    pub fn save_lane(&self, lane: usize) -> Vec<u8> {
        self.lane_loop(lane).save()
    }

    /// Scatters every lane back into a scalar [`ControlLoop`], in lane
    /// order. Each scattered loop continues bit-for-bit from where the
    /// lane left off. Parked CPUs (every lane's, once [`run`](LaneLoop::run)
    /// returns) move into their loops; live lanes get clones of their
    /// group's CPU.
    pub fn into_loops(self) -> Vec<ControlLoop> {
        let LaneLoop { lanes, groups } = self;
        lanes
            .into_iter()
            .map(|lane| {
                let group = &groups[lane.group];
                let cpu = lane.parked.unwrap_or_else(|| group.cpu.clone());
                ControlLoop::assemble(cpu, group.power.clone(), lane.post)
            })
            .collect()
    }

    /// Runs every lane to its exit (budget spent or program finished);
    /// returns the total number of lane-cycles stepped.
    pub fn run(&mut self) -> u64 {
        let mut total = 0u64;
        loop {
            let stepped = self.step_all();
            if stepped == 0 {
                return total;
            }
            total += stepped as u64;
        }
    }

    /// Retires lanes that cannot step this cycle (budget spent, or the
    /// group's program finished), materializing their outcomes and
    /// parking a CPU clone on each.
    fn retire_exits(&mut self) {
        for group in &mut self.groups {
            let done = group.cpu.done();
            let cpu = &group.cpu;
            group.lanes.retain(|&l| {
                let lane = &mut self.lanes[l];
                if !done && lane.budget > 0 {
                    return true;
                }
                lane.outcome = Some(LaneOutcome {
                    report: lane.post.report(cpu),
                    arch_digest: cpu.arch_digest(),
                });
                lane.parked = Some(cpu.clone());
                false
            });
        }
    }

    /// Advances every live lane one cycle in lockstep; returns how many
    /// lanes stepped (0 = all lanes have exited).
    ///
    /// Per group: one CPU step and power evaluation under the group's
    /// current gating, then each member lane's `PostCpu::step` — the
    /// same code [`ControlLoop::step`] runs — then the gating partition
    /// that sets (or forks) the CPU for the next cycle.
    pub fn step_all(&mut self) -> usize {
        self.retire_exits();
        let mut stepped = 0;
        // Groups forked this cycle are appended past the range and first
        // step next cycle.
        for g_idx in 0..self.groups.len() {
            let g = &mut self.groups[g_idx];
            if g.lanes.is_empty() {
                continue;
            }
            let gating = g.cpu.gating();
            let act = g.cpu.step();
            let watts = g.power.cycle_power(&act, &gating).total();
            let amps = watts / g.power.params().vdd;
            for &l in &g.lanes {
                let lane = &mut self.lanes[l];
                lane.next = lane.post.step(watts, amps, gating).gating;
                lane.budget -= 1;
            }
            stepped += g.lanes.len();
            self.regroup(g_idx);
        }
        stepped
    }

    /// Sets the group's CPU to the gating its lanes commanded. When they
    /// disagree, the lanes are partitioned by commanded gating (encounter
    /// order): the first partition keeps the group's CPU and every other
    /// partition forks a clone into a fresh group. Uncontrolled lanes
    /// want the group's current gating and so stay with the no-change
    /// partition.
    fn regroup(&mut self, g_idx: usize) {
        let group = &self.groups[g_idx];
        let current = group.cpu.gating();
        let first = self.lanes[group.lanes[0]].wants(current);
        if group.lanes[1..]
            .iter()
            .all(|&l| self.lanes[l].wants(current) == first)
        {
            *self.groups[g_idx].cpu.gating_mut() = first;
            return;
        }

        let mut parts: Vec<(GatingState, Vec<usize>)> = Vec::new();
        for l in std::mem::take(&mut self.groups[g_idx].lanes) {
            let want = self.lanes[l].wants(current);
            match parts.iter_mut().find(|(g, _)| *g == want) {
                Some((_, members)) => members.push(l),
                None => parts.push((want, vec![l])),
            }
        }
        let mut parts = parts.into_iter();
        let (gating, members) = parts.next().expect("group was non-empty");
        *self.groups[g_idx].cpu.gating_mut() = gating;
        self.groups[g_idx].lanes = members;
        for (gating, members) in parts {
            let mut cpu = self.groups[g_idx].cpu.clone();
            *cpu.gating_mut() = gating;
            let power = self.groups[g_idx].power.clone();
            let new_idx = self.groups.len();
            for &l in &members {
                self.lanes[l].group = new_idx;
            }
            self.groups.push(LaneGroup {
                cpu,
                power,
                lanes: members,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrated_pdn;
    use crate::sensor::SensorConfig;
    use crate::thresholds::Thresholds;
    use voltctl_isa::builder::ProgramBuilder;
    use voltctl_isa::reg::IntReg;
    use voltctl_pdn::PdnModel;
    use voltctl_power::PowerParams;

    fn spin_program() -> voltctl_isa::Program {
        let mut b = ProgramBuilder::new("spin");
        b.label("top");
        b.addq_imm(IntReg::R1, IntReg::R1, 1);
        b.br("top");
        b.build().unwrap()
    }

    fn make_loop(thresholds: Option<Thresholds>, delay: u32, noise_mv: f64) -> ControlLoop {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 2.0).unwrap();
        let mut b = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .record_trace(true)
            .sensor(SensorConfig {
                delay_cycles: delay,
                noise_mv,
                seed: 0xd1d7,
            });
        if let Some(t) = thresholds {
            b = b.thresholds(t);
        }
        b.build().unwrap()
    }

    fn tight() -> Thresholds {
        Thresholds {
            v_low: 0.9995,
            v_high: 1.0005,
        }
    }

    fn loose() -> Thresholds {
        Thresholds {
            v_low: 0.955,
            v_high: 1.045,
        }
    }

    #[test]
    fn lane_run_matches_scalar_bitwise() {
        let configs: [(Option<Thresholds>, u32, f64); 4] = [
            (None, 0, 0.0),
            (Some(loose()), 2, 15.0),
            (Some(tight()), 1, 0.0),
            (Some(tight()), 3, 0.0),
        ];
        let budget = 4_000u64;

        let mut scalars: Vec<ControlLoop> = configs
            .iter()
            .map(|&(t, d, n)| make_loop(t, d, n))
            .collect();
        let lanes_in: Vec<ControlLoop> = configs
            .iter()
            .map(|&(t, d, n)| make_loop(t, d, n))
            .collect();

        let mut lanes = LaneLoop::gather(lanes_in, &vec![budget; configs.len()]);
        // All four CPUs start byte-identical (same program/config), so
        // gather must collapse them into one group.
        assert_eq!(lanes.active_group_count(), 1);
        lanes.run();

        for (l, scalar) in scalars.iter_mut().enumerate() {
            scalar.step_n(budget);
            let out = lanes.outcome(l).expect("lane exited");
            assert_eq!(out.report, scalar.report(), "lane {l} report");
            assert_eq!(out.arch_digest, scalar.arch_digest(), "lane {l} digest");
            let a = scalar.take_trace();
            let b = lanes.take_trace(l);
            assert_eq!(a.len(), b.len(), "lane {l} trace length");
            for (k, (x, y)) in a.iter().zip(&b).enumerate() {
                assert!(
                    x.current.to_bits() == y.current.to_bits()
                        && x.voltage.to_bits() == y.voltage.to_bits()
                        && x.reducing == y.reducing
                        && x.increasing == y.increasing,
                    "lane {l} cycle {k}: {x:?} vs {y:?}"
                );
            }
        }
        // The tight-threshold lanes must have diverged from the shared
        // group (the controller intervened on the spin supply dip).
        assert!(lanes.groups.len() > 1, "divergence expected");
    }

    #[test]
    fn uneven_budgets_exit_lanes_individually() {
        let budgets = [500u64, 2_000, 1_000];
        let lanes_in: Vec<ControlLoop> = (0..3).map(|_| make_loop(Some(loose()), 1, 0.0)).collect();
        let mut lanes = LaneLoop::gather(lanes_in, &budgets);
        lanes.run();
        for (l, &b) in budgets.iter().enumerate() {
            let mut scalar = make_loop(Some(loose()), 1, 0.0);
            scalar.step_n(b);
            let out = lanes.outcome(l).expect("exited");
            assert_eq!(out.report, scalar.report(), "lane {l}");
        }
    }

    #[test]
    fn save_lane_bytes_match_scalar_save() {
        let budget = 1_500u64;
        let lanes_in = vec![make_loop(Some(loose()), 2, 10.0), make_loop(None, 0, 0.0)];
        let mut lanes = LaneLoop::gather(lanes_in, &[budget, budget]);
        lanes.run();
        for (l, &(t, d, n)) in [(Some(loose()), 2, 10.0), (None, 0, 0.0)]
            .iter()
            .enumerate()
        {
            let mut scalar = make_loop(t, d, n);
            scalar.step_n(budget);
            assert_eq!(lanes.save_lane(l), scalar.save(), "lane {l} snapshot bytes");
        }
    }

    #[test]
    fn into_loops_continue_bitwise() {
        let half = 900u64;
        let rest = 1_100u64;
        let lanes_in = vec![
            make_loop(Some(tight()), 1, 0.0),
            make_loop(Some(loose()), 0, 0.0),
        ];
        let mut lanes = LaneLoop::gather(lanes_in, &[half, half]);
        lanes.run();
        let mut scattered = lanes.into_loops();
        for (l, &(t, d)) in [(Some(tight()), 1u32), (Some(loose()), 0)]
            .iter()
            .enumerate()
        {
            let mut scalar = make_loop(t, d, 0.0);
            scalar.step_n(half + rest);
            scattered[l].step_n(rest);
            assert_eq!(scattered[l].report(), scalar.report(), "lane {l}");
            assert_eq!(scattered[l].save(), scalar.save(), "lane {l} bytes");
        }
    }

    #[test]
    fn finished_program_exits_before_budget() {
        let mut b = ProgramBuilder::new("short");
        for _ in 0..32 {
            b.addq_imm(IntReg::R1, IntReg::R1, 1);
        }
        let program = b.build().unwrap();
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 2.0).unwrap();
        let mk = || {
            ControlLoop::builder(program.clone())
                .power(power.clone())
                .pdn(pdn.clone())
                .build()
                .unwrap()
        };
        let mut lanes = LaneLoop::gather(vec![mk()], &[100_000]);
        lanes.run();
        let mut scalar = mk();
        scalar.step_n(100_000);
        let out = lanes.outcome(0).unwrap();
        assert!(out.report.cycles < 100_000, "program must finish early");
        assert_eq!(out.report, scalar.report());
    }
}
