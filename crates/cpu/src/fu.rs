//! Functional-unit pool with issue-port and occupancy modeling.
//!
//! Each [`FuKind`] has a fixed number of units (Table 1 mix). Pipelined
//! operations occupy a unit for one cycle (its issue slot); unpipelined
//! operations (divides, square root) hold the unit until they complete.
//! The pool also reports, per cycle, how many units of each kind are
//! *busy executing* — the quantity the power model spreads multi-cycle
//! operation energy over (the paper's fix to avoid overestimating current
//! swings from lumpy FP accounting).

use crate::config::FuConfig;
use voltctl_isa::{OpClass, Opcode};

/// The physical functional-unit kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Simple integer ALUs (also resolve branches).
    IntAlu,
    /// Integer multiply/divide units.
    IntMult,
    /// FP adders.
    FpAlu,
    /// FP multiply/divide units.
    FpMult,
    /// Memory (load/store) ports.
    MemPort,
}

impl FuKind {
    /// Number of kinds.
    pub const COUNT: usize = 5;

    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        match self {
            FuKind::IntAlu => 0,
            FuKind::IntMult => 1,
            FuKind::FpAlu => 2,
            FuKind::FpMult => 3,
            FuKind::MemPort => 4,
        }
    }

    /// All kinds, in index order.
    pub fn all() -> [FuKind; FuKind::COUNT] {
        [
            FuKind::IntAlu,
            FuKind::IntMult,
            FuKind::FpAlu,
            FuKind::FpMult,
            FuKind::MemPort,
        ]
    }

    /// The unit an opcode executes on, or `None` for nops/halt.
    pub fn for_opcode(op: Opcode) -> Option<FuKind> {
        Some(match op.class() {
            OpClass::IntAlu | OpClass::Branch => FuKind::IntAlu,
            OpClass::IntMult => FuKind::IntMult,
            OpClass::FpAdd => FuKind::FpAlu,
            OpClass::FpMult | OpClass::FpDiv => FuKind::FpMult,
            OpClass::Load | OpClass::Store => FuKind::MemPort,
            OpClass::Nop => return None,
        })
    }
}

/// Latency/occupancy of one operation on its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Cycles until the result is available.
    pub latency: u64,
    /// Cycles the unit is held (1 = fully pipelined).
    pub occupancy: u64,
}

/// Computes the timing of an opcode under a configuration. Memory
/// operations return the port occupancy only — cache latency is added by
/// the pipeline.
pub fn op_timing(op: Opcode, fu: &FuConfig) -> OpTiming {
    use Opcode::*;
    let (latency, occupancy) = match op {
        Mulq => (fu.mulq_latency, 1),
        Divq => (fu.divq_latency, fu.divq_latency),
        Addt | Subt | Cpys | Cvtqt | Cvttq => (fu.fp_add_latency, 1),
        Mult => (fu.fp_mult_latency, 1),
        Divt => (fu.fp_div_latency, fu.fp_div_latency),
        Sqrtt => (fu.fp_sqrt_latency, fu.fp_sqrt_latency),
        // Loads/stores: 1-cycle port occupancy; latency added by the cache.
        Ldq | Ldl | Ldt | Stq | Stl | Stt => (1, 1),
        // Everything else is a single-cycle ALU op (branches resolve in 1).
        _ => (1, 1),
    };
    OpTiming { latency, occupancy }
}

/// The pool of functional units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuPool {
    /// `busy_until[kind][unit]`: first cycle at which the unit is free.
    busy_until: [Vec<u64>; FuKind::COUNT],
    /// `executing_until[kind][unit]`: first cycle at which the unit stops
    /// doing work (for busy-unit power accounting).
    executing_until: [Vec<u64>; FuKind::COUNT],
}

impl FuPool {
    /// Builds the pool from the configured mix.
    pub fn new(fu: &FuConfig) -> FuPool {
        let counts = [fu.int_alu, fu.int_mult, fu.fp_alu, fu.fp_mult, fu.mem_ports];
        FuPool {
            busy_until: counts.map(|n| vec![0u64; n]),
            executing_until: counts.map(|n| vec![0u64; n]),
        }
    }

    /// Number of units of a kind.
    pub fn count(&self, kind: FuKind) -> usize {
        self.busy_until[kind.index()].len()
    }

    /// Attempts to claim a unit of `kind` at `cycle` for an operation that
    /// holds it for `occupancy` cycles and executes for `exec_cycles`.
    /// Returns false when every unit is busy.
    pub fn try_issue(
        &mut self,
        kind: FuKind,
        cycle: u64,
        occupancy: u64,
        exec_cycles: u64,
    ) -> bool {
        let k = kind.index();
        for unit in 0..self.busy_until[k].len() {
            if self.busy_until[k][unit] <= cycle {
                self.busy_until[k][unit] = cycle + occupancy.max(1);
                self.executing_until[k][unit] = cycle + exec_cycles.max(1);
                return true;
            }
        }
        false
    }

    /// How many units of `kind` have an operation in flight at `cycle`
    /// (for per-cycle power spreading of multi-cycle operations).
    pub fn executing(&self, kind: FuKind, cycle: u64) -> u32 {
        self.executing_until[kind.index()]
            .iter()
            .filter(|&&until| until > cycle)
            .count() as u32
    }

    /// How many units of `kind` are free to issue at `cycle`.
    pub fn free(&self, kind: FuKind, cycle: u64) -> usize {
        self.busy_until[kind.index()]
            .iter()
            .filter(|&&until| until <= cycle)
            .count()
    }
}

impl voltctl_snap::Pack for FuKind {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_u8(self.index() as u8);
    }
}

impl voltctl_snap::Unpack for FuKind {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let idx = r.get_u8()? as usize;
        FuKind::all().get(idx).copied().ok_or_else(|| {
            voltctl_snap::SnapError::Corrupt(format!(
                "functional-unit kind {idx} out of range (must be < {})",
                FuKind::COUNT
            ))
        })
    }
}

impl voltctl_snap::Pack for FuPool {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        for k in 0..FuKind::COUNT {
            self.busy_until[k].pack(w);
        }
        for k in 0..FuKind::COUNT {
            self.executing_until[k].pack(w);
        }
    }
}

impl voltctl_snap::Unpack for FuPool {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let mut busy_until: [Vec<u64>; FuKind::COUNT] = Default::default();
        let mut executing_until: [Vec<u64>; FuKind::COUNT] = Default::default();
        for slot in busy_until.iter_mut() {
            *slot = voltctl_snap::Unpack::unpack(r)?;
        }
        for (k, slot) in executing_until.iter_mut().enumerate() {
            *slot = voltctl_snap::Unpack::unpack(r)?;
            if slot.len() != busy_until[k].len() {
                return Err(voltctl_snap::SnapError::Corrupt(format!(
                    "functional-unit pool kind {k}: executing table has {} units, busy table {}",
                    slot.len(),
                    busy_until[k].len()
                )));
            }
        }
        Ok(FuPool {
            busy_until,
            executing_until,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;

    fn pool() -> FuPool {
        FuPool::new(&CpuConfig::table1().fu)
    }

    #[test]
    fn table1_counts() {
        let p = pool();
        assert_eq!(p.count(FuKind::IntAlu), 8);
        assert_eq!(p.count(FuKind::IntMult), 2);
        assert_eq!(p.count(FuKind::FpAlu), 4);
        assert_eq!(p.count(FuKind::FpMult), 2);
        assert_eq!(p.count(FuKind::MemPort), 4);
    }

    #[test]
    fn opcode_mapping() {
        assert_eq!(FuKind::for_opcode(Opcode::Addq), Some(FuKind::IntAlu));
        assert_eq!(FuKind::for_opcode(Opcode::Bne), Some(FuKind::IntAlu));
        assert_eq!(FuKind::for_opcode(Opcode::Divt), Some(FuKind::FpMult));
        assert_eq!(FuKind::for_opcode(Opcode::Mult), Some(FuKind::FpMult));
        assert_eq!(FuKind::for_opcode(Opcode::Addt), Some(FuKind::FpAlu));
        assert_eq!(FuKind::for_opcode(Opcode::Ldt), Some(FuKind::MemPort));
        assert_eq!(FuKind::for_opcode(Opcode::Nop), None);
    }

    #[test]
    fn pipelined_units_issue_every_cycle() {
        let mut p = pool();
        // 2 FP multipliers, pipelined: two issues per cycle, sustained.
        for cycle in 0..10 {
            assert!(p.try_issue(FuKind::FpMult, cycle, 1, 4));
            assert!(p.try_issue(FuKind::FpMult, cycle, 1, 4));
            assert!(!p.try_issue(FuKind::FpMult, cycle, 1, 4));
        }
    }

    #[test]
    fn unpipelined_divide_blocks_the_unit() {
        let mut p = pool();
        let fu = CpuConfig::table1().fu;
        let t = op_timing(Opcode::Divt, &fu);
        assert_eq!(t.latency, t.occupancy);
        assert!(p.try_issue(FuKind::FpMult, 0, t.occupancy, t.latency));
        assert!(p.try_issue(FuKind::FpMult, 0, t.occupancy, t.latency));
        // Both units occupied until cycle 18.
        assert!(!p.try_issue(FuKind::FpMult, 1, 1, 4));
        assert!(!p.try_issue(FuKind::FpMult, t.occupancy - 1, 1, 4));
        assert!(p.try_issue(FuKind::FpMult, t.occupancy, 1, 4));
    }

    #[test]
    fn executing_counts_in_flight_work() {
        let mut p = pool();
        // A pipelined multiply executes for 4 cycles even though it only
        // occupies the issue slot for 1.
        assert!(p.try_issue(FuKind::FpMult, 0, 1, 4));
        assert_eq!(p.executing(FuKind::FpMult, 0), 1);
        assert_eq!(p.executing(FuKind::FpMult, 3), 1);
        assert_eq!(p.executing(FuKind::FpMult, 4), 0);
    }

    #[test]
    fn free_counts_available_units() {
        let mut p = pool();
        assert_eq!(p.free(FuKind::IntAlu, 0), 8);
        assert!(p.try_issue(FuKind::IntAlu, 0, 1, 1));
        assert_eq!(p.free(FuKind::IntAlu, 0), 7);
        assert_eq!(p.free(FuKind::IntAlu, 1), 8);
    }

    #[test]
    fn timing_table_sanity() {
        let fu = CpuConfig::table1().fu;
        assert_eq!(op_timing(Opcode::Addq, &fu).latency, 1);
        assert_eq!(op_timing(Opcode::Mulq, &fu).latency, 7);
        assert_eq!(op_timing(Opcode::Mulq, &fu).occupancy, 1); // pipelined
        assert_eq!(op_timing(Opcode::Divq, &fu).occupancy, 20); // unpipelined
        assert_eq!(op_timing(Opcode::Sqrtt, &fu).latency, 24);
        assert_eq!(op_timing(Opcode::Ldq, &fu).latency, 1);
    }
}
