//! Cycle-level out-of-order processor simulation for dI/dt research.
//!
//! This crate is the SimpleScalar-class substrate of the `voltctl`
//! reproduction of the HPCA 2003 voltage-emergency paper: an
//! execution-driven, cycle-level model of the paper's Table 1 machine with
//! the clock-gating hooks its microarchitectural dI/dt controller actuates.
//!
//! * [`Cpu`] — the pipeline: fetch → dispatch → issue → writeback → commit,
//!   over a 256-entry RUU and 128-entry LSQ ([`core`]).
//! * [`CpuConfig`] — all machine parameters, defaulting to Table 1
//!   ([`config`]).
//! * [`cache`] — set-associative LRU caches and the L1I/L1D/L2 hierarchy.
//! * [`bpred`] — the combined bimodal/gshare/chooser predictor, BTB, RAS.
//! * [`fu`] — functional-unit pool with pipelined/unpipelined occupancy.
//! * [`mem`] — sparse functional memory.
//! * [`gating`] — the actuator-facing gate/phantom-fire control surface.
//! * [`activity`] — per-cycle activity vectors consumed by the power model.
//!
//! # Example
//!
//! ```
//! use voltctl_cpu::{Cpu, CpuConfig};
//! use voltctl_isa::{builder::ProgramBuilder, reg::IntReg};
//!
//! # fn main() -> Result<(), String> {
//! let mut b = ProgramBuilder::new("sum");
//! b.lda(IntReg::R1, IntReg::R31, 10);
//! b.label("top");
//! b.addq(IntReg::R2, IntReg::R2, IntReg::R1);
//! b.subq_imm(IntReg::R1, IntReg::R1, 1);
//! b.bne(IntReg::R1, "top");
//! b.halt();
//! let program = b.build().expect("labels resolve");
//!
//! let mut cpu = Cpu::new(CpuConfig::table1(), &program)?;
//! cpu.run(100_000);
//! assert!(cpu.done());
//! assert_eq!(cpu.reg(IntReg::R2.into()), 55);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod bpred;
pub mod cache;
pub mod config;
pub mod core;
pub mod fu;
pub mod gating;
pub mod mem;

pub use crate::core::Cpu;
pub use activity::{CycleActivity, Stats};
pub use config::{BpredConfig, CacheConfig, CpuConfig, FuConfig};
pub use fu::FuKind;
pub use gating::{Domain, GatingState};

/// Equality of two large tables, compared in fixed-size chunks without an
/// early exit inside a chunk so the comparison vectorizes; unequal tables
/// still stop at the first differing chunk.
pub(crate) fn tables_eq<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    const CHUNK: usize = 256;
    a.len() == b.len()
        && a.chunks(CHUNK)
            .zip(b.chunks(CHUNK))
            .all(|(x, y)| x.iter().zip(y).fold(true, |eq, (p, q)| eq & (p == q)))
}
