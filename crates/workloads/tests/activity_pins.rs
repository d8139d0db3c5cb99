//! Bit-level pins of the CPU model's observable behaviour.
//!
//! Each of the 26 suite kernels, a fixed-parameter stressmark and the same
//! stressmark under a fixed gating schedule runs for [`CYCLES`] cycles from
//! cycle 0. The per-cycle [`CycleActivity`] stream, the final [`Stats`] and
//! the final `arch_digest` are folded into FNV-1a hashes and compared with
//! constants recorded from the reference pipeline. Any change to issue
//! order, completion timing, LSQ forwarding, memory or statistics moves at
//! least one of them; a pure speed change must move none.

use voltctl_cpu::{Cpu, CpuConfig, CycleActivity, GatingState, Stats};
use voltctl_workloads::{spec, stressmark, Workload};

const CYCLES: u64 = 6_000;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn activity(&mut self, a: &CycleActivity) {
        let scalars = [
            a.fetched,
            a.dispatched,
            a.issued,
            a.completed,
            a.committed,
            a.il1_accesses,
            a.il1_misses,
            a.dl1_accesses,
            a.dl1_misses,
            a.l2_accesses,
            a.l2_misses,
            a.bpred_lookups,
            a.mispredicts,
            a.regfile_reads,
            a.regfile_writes,
            a.lsq_forwards,
            a.ruu_occupancy,
            a.lsq_occupancy,
        ];
        for v in scalars
            .iter()
            .chain(&a.issued_per_fu)
            .chain(&a.executing_per_fu)
        {
            self.u64(u64::from(*v));
        }
    }

    fn stats(&mut self, s: &Stats) {
        for v in [
            s.cycles,
            s.committed,
            s.fetched,
            s.branches,
            s.mispredicts,
            s.loads,
            s.stores,
            s.lsq_forwards,
            s.il1.0,
            s.il1.1,
            s.dl1.0,
            s.dl1.1,
            s.l2.0,
            s.l2.1,
            s.gated_fetch_cycles,
            s.gated_issue_cycles,
            s.gated_mem_cycles,
        ] {
            self.u64(v);
        }
    }
}

/// A deterministic gating schedule that exercises every domain: 97-cycle
/// frames with FU, DL1 and IL1 gated over overlapping sub-windows.
fn schedule(cycle: u64) -> GatingState {
    let t = cycle % 97;
    GatingState {
        gate_fu: (10..30).contains(&t),
        gate_dl1: (20..45).contains(&t),
        gate_il1: (60..70).contains(&t),
        ..GatingState::default()
    }
}

/// (activity hash, stats hash, arch digest) after [`CYCLES`] cycles.
fn pin(workload: &Workload, gated: bool) -> (u64, u64, u64) {
    let mut cpu = Cpu::new(CpuConfig::table1(), &workload.program).unwrap();
    let mut act_hash = Fnv::new();
    for _ in 0..CYCLES {
        if cpu.done() {
            break;
        }
        if gated {
            *cpu.gating_mut() = schedule(cpu.cycle());
        }
        act_hash.activity(&cpu.step());
    }
    let mut stats_hash = Fnv::new();
    stats_hash.stats(cpu.stats());
    (act_hash.0, stats_hash.0, cpu.arch_digest())
}

fn fixed_stressmark() -> Workload {
    stressmark::build(&stressmark::StressmarkParams {
        divide_chain: 2,
        burst_ops: 180,
        iterations: None,
    })
}

#[rustfmt::skip]
const PINS: &[(&str, u64, u64, u64)] = &[
    ("gzip", 0xcb69baa5ff2fc6b7, 0xd518c32a5cff3b23, 0x226aec602a24ef5c),
    ("vpr", 0x23f102122a3ef9f4, 0xba9bab14e7f7833e, 0xb3d16a6ebe71f259),
    ("gcc", 0xfbe61a6b6040dd9f, 0xf774e0a6e98fb4c2, 0xe392f145a9417486),
    ("mcf", 0xf3650c45ba6e53d4, 0xb1df0d8905534485, 0xd9b445f02e98ad04),
    ("crafty", 0x5963234234488201, 0x8c58aa2e876fe99a, 0x7ee9bc665be5bad0),
    ("parser", 0x23201b01457ad8b8, 0xe9ae268cf38896b3, 0x3be773f979cab42d),
    ("eon", 0x3a8e45bac229ec8b, 0x8192d2d50a92c192, 0xe04d99de3f0b8883),
    ("perlbmk", 0xf3295cc4f880ce6c, 0x51c21b678601bb38, 0x4d6409614a8d30f5),
    ("gap", 0xa915de02712a30b7, 0x04225c9597243a9b, 0xc3848af578148724),
    ("vortex", 0xe23d948270036662, 0x42b37ab39499f62e, 0xed57e0f477ee8130),
    ("bzip2", 0x10b4366f852b876b, 0xb0a0446062c3fd03, 0xba69dd9b2cab7175),
    ("twolf", 0xf5756b5c6f43665b, 0x7fe148e7df21019b, 0xff9dd5d6b883a207),
    ("wupwise", 0x83157791b649c840, 0x87a0008d9c38b8a9, 0x11d6121dc06997e6),
    ("swim", 0x23a2d7927baa25b5, 0xe19a399f2ba13f17, 0xe2241b2bcf70ecdf),
    ("mgrid", 0x9ed5ad431d129e2d, 0xc8ec81e0cf49f170, 0x8ab8b3a70d127eff),
    ("applu", 0xe62fc8bc86c5e411, 0xfe0a03be28616b59, 0x754a0e3813d70be0),
    ("mesa", 0xa9b34d44940723dd, 0x603d353893e9fd87, 0x1f1b6c85fe7588f6),
    ("galgel", 0x82dbe7d8c2d10e51, 0xbe9f5d52cba43c7d, 0xb5eb1ac3d3e29dba),
    ("art", 0xf3650c45ba6e53d4, 0xb1df0d8905534485, 0xa3293d0c2fe8aeed),
    ("equake", 0x59445cd9c976852f, 0x738f0429c8af08af, 0x5f4954c9cf505507),
    ("facerec", 0xdac18c3d99cb0ef9, 0x6d9145ef9d347b8f, 0xd08819b0dfbb254a),
    ("ammp", 0xf3650c45ba6e53d4, 0xb1df0d8905534485, 0x1c920e8a85c9114f),
    ("lucas", 0x9afc0bd9d18c88de, 0x9afcb94412ad64eb, 0x5d64c0dc83346110),
    ("fma3d", 0x1341d3f851603c15, 0xfccf4317834387dd, 0x4fe49d299a5c0cfa),
    ("sixtrack", 0x2a33daf4d32a947d, 0x014e178be85f7f50, 0x6be2af41720cfbd7),
    ("apsi", 0xe93fd2fd628dd1a6, 0x4cd8f9a131594be0, 0x11d612c2b36997e6),
    ("stressmark", 0xb7d8bc834a349c22, 0x83c85f3580e31413, 0x7db276612a344fbe),
    ("stressmark-gated", 0x941f2c4a7cb282c5, 0x175f70e7279fde11, 0x95493571995892a3),
];

#[test]
fn activity_stats_and_digest_match_the_recorded_pins() {
    let mut runs: Vec<(String, Workload, bool)> =
        spec::iter().map(|w| (w.name.clone(), w, false)).collect();
    runs.push(("stressmark".into(), fixed_stressmark(), false));
    runs.push(("stressmark-gated".into(), fixed_stressmark(), true));

    let mut got = Vec::new();
    for (name, workload, gated) in &runs {
        let (a, s, d) = pin(workload, *gated);
        got.push(format!("    ({name:?}, {a:#018x}, {s:#018x}, {d:#018x}),"));
    }
    let expected: Vec<String> = PINS
        .iter()
        .map(|(n, a, s, d)| format!("    ({n:?}, {a:#018x}, {s:#018x}, {d:#018x}),"))
        .collect();
    assert!(
        got == expected,
        "CPU activity pins moved; current values:\n{}",
        got.join("\n")
    );
}
