//! The combined branch predictor of Table 1.
//!
//! A 64 Kbit bimodal table and a 64 Kbit gshare table are arbitrated by a
//! 64 Kbit chooser (McFarling-style "combining" predictor), with a 1K-entry
//! direct-mapped, tagged BTB for taken-branch targets and a 64-entry
//! return-address stack (present for completeness; the ISA has no
//! call/return, so it is exercised only by unit tests).

use crate::config::BpredConfig;

/// A saturating 2-bit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    const WEAK_TAKEN: Counter2 = Counter2(2);

    fn taken(self) -> bool {
        self.0 >= 2
    }

    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Prediction outcome for one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target (from the BTB) when predicted taken. `None` means
    /// the BTB missed — a taken prediction without a target still redirects
    /// late and is treated as a misfetch by the front end.
    pub target: Option<u32>,
}

/// The combined (bimodal + gshare + chooser) predictor with BTB and RAS.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: Vec<Counter2>,
    gshare: Vec<Counter2>,
    /// Chooser: counter >= 2 selects gshare, < 2 selects bimodal.
    chooser: Vec<Counter2>,
    history: u64,
    history_mask: u64,
    btb_tags: Vec<Option<u64>>,
    btb_targets: Vec<u32>,
    ras: Vec<u32>,
    ras_top: usize,
    ras_capacity: usize,
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Builds a predictor from its configuration.
    ///
    /// # Panics
    ///
    /// Panics unless all table sizes are powers of two.
    pub fn new(config: &BpredConfig) -> BranchPredictor {
        for (name, n) in [
            ("bimodal_entries", config.bimodal_entries),
            ("gshare_entries", config.gshare_entries),
            ("chooser_entries", config.chooser_entries),
            ("btb_entries", config.btb_entries),
        ] {
            assert!(n.is_power_of_two(), "{name} must be a power of two");
        }
        BranchPredictor {
            bimodal: vec![Counter2::WEAK_TAKEN; config.bimodal_entries],
            gshare: vec![Counter2::WEAK_TAKEN; config.gshare_entries],
            chooser: vec![Counter2::WEAK_TAKEN; config.chooser_entries],
            history: 0,
            history_mask: (1u64 << config.history_bits) - 1,
            btb_tags: vec![None; config.btb_entries],
            btb_targets: vec![0; config.btb_entries],
            ras: vec![0; config.ras_entries],
            ras_top: 0,
            ras_capacity: config.ras_entries,
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn bimodal_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize & (self.bimodal.len() - 1)
    }

    fn gshare_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.history_mask) as usize & (self.gshare.len() - 1)
    }

    fn chooser_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize & (self.chooser.len() - 1)
    }

    fn btb_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize & (self.btb_tags.len() - 1)
    }

    /// Looks up a conditional branch at byte address `pc`.
    pub fn predict(&mut self, pc: u64) -> Prediction {
        self.lookups += 1;
        let use_gshare = self.chooser[self.chooser_index(pc)].taken();
        let taken = if use_gshare {
            self.gshare[self.gshare_index(pc)].taken()
        } else {
            self.bimodal[self.bimodal_index(pc)].taken()
        };
        let target = if taken { self.btb_lookup(pc) } else { None };
        Prediction { taken, target }
    }

    /// Looks up an unconditional branch (always predicted taken).
    pub fn predict_unconditional(&mut self, pc: u64) -> Prediction {
        self.lookups += 1;
        Prediction {
            taken: true,
            target: self.btb_lookup(pc),
        }
    }

    fn btb_lookup(&self, pc: u64) -> Option<u32> {
        let idx = self.btb_index(pc);
        if self.btb_tags[idx] == Some(pc) {
            Some(self.btb_targets[idx])
        } else {
            None
        }
    }

    /// Trains the predictor with the resolved outcome of a conditional
    /// branch, records a misprediction when `predicted` disagreed, and
    /// updates the BTB for taken branches.
    pub fn update(&mut self, pc: u64, taken: bool, target: u32, predicted: &Prediction) {
        let bi = self.bimodal_index(pc);
        let gi = self.gshare_index(pc);
        let ci = self.chooser_index(pc);

        let bimodal_correct = self.bimodal[bi].taken() == taken;
        let gshare_correct = self.gshare[gi].taken() == taken;
        // Chooser trains toward the component that was right (only when
        // they disagree).
        if bimodal_correct != gshare_correct {
            self.chooser[ci].update(gshare_correct);
        }
        self.bimodal[bi].update(taken);
        self.gshare[gi].update(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;

        if taken {
            let idx = self.btb_index(pc);
            self.btb_tags[idx] = Some(pc);
            self.btb_targets[idx] = target;
        }

        let mispredicted = predicted.taken != taken || (taken && predicted.target != Some(target));
        if mispredicted {
            self.mispredicts += 1;
        }
    }

    /// Trains an unconditional branch (direction is always correct; only
    /// the target can misfetch).
    pub fn update_unconditional(&mut self, pc: u64, target: u32, predicted: &Prediction) {
        let idx = self.btb_index(pc);
        self.btb_tags[idx] = Some(pc);
        self.btb_targets[idx] = target;
        if predicted.target != Some(target) {
            self.mispredicts += 1;
        }
    }

    /// Pushes a return address (call instruction).
    pub fn ras_push(&mut self, return_pc: u32) {
        if self.ras_capacity == 0 {
            return;
        }
        self.ras[self.ras_top % self.ras_capacity] = return_pc;
        self.ras_top += 1;
    }

    /// Pops a predicted return address.
    pub fn ras_pop(&mut self) -> Option<u32> {
        if self.ras_capacity == 0 || self.ras_top == 0 {
            return None;
        }
        self.ras_top -= 1;
        Some(self.ras[self.ras_top % self.ras_capacity])
    }

    /// Lifetime lookup count.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lifetime misprediction count (direction or target).
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }
}

impl voltctl_snap::Pack for Counter2 {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_u8(self.0);
    }
}

impl voltctl_snap::Unpack for Counter2 {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let v = r.get_u8()?;
        if v > 3 {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "2-bit counter value {v} out of range"
            )));
        }
        Ok(Counter2(v))
    }
}

impl PartialEq for BranchPredictor {
    fn eq(&self, other: &BranchPredictor) -> bool {
        self.history == other.history
            && self.history_mask == other.history_mask
            && self.ras_top == other.ras_top
            && self.ras_capacity == other.ras_capacity
            && self.lookups == other.lookups
            && self.mispredicts == other.mispredicts
            && self.ras == other.ras
            && self.btb_targets == other.btb_targets
            && crate::tables_eq(&self.btb_tags, &other.btb_tags)
            && crate::tables_eq(&self.bimodal, &other.bimodal)
            && crate::tables_eq(&self.gshare, &other.gshare)
            && crate::tables_eq(&self.chooser, &other.chooser)
    }
}

impl Eq for BranchPredictor {}

impl voltctl_snap::Pack for BranchPredictor {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        self.bimodal.pack(w);
        self.gshare.pack(w);
        self.chooser.pack(w);
        w.put_u64(self.history);
        w.put_u64(self.history_mask);
        self.btb_tags.pack(w);
        self.btb_targets.pack(w);
        self.ras.pack(w);
        w.put_usize(self.ras_top);
        w.put_usize(self.ras_capacity);
        w.put_u64(self.lookups);
        w.put_u64(self.mispredicts);
    }
}

impl voltctl_snap::Unpack for BranchPredictor {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let bimodal: Vec<Counter2> = voltctl_snap::Unpack::unpack(r)?;
        let gshare: Vec<Counter2> = voltctl_snap::Unpack::unpack(r)?;
        let chooser: Vec<Counter2> = voltctl_snap::Unpack::unpack(r)?;
        let history = r.get_u64()?;
        let history_mask = r.get_u64()?;
        let btb_tags: Vec<Option<u64>> = voltctl_snap::Unpack::unpack(r)?;
        let btb_targets: Vec<u32> = voltctl_snap::Unpack::unpack(r)?;
        let ras: Vec<u32> = voltctl_snap::Unpack::unpack(r)?;
        let ras_top = r.get_usize()?;
        let ras_capacity = r.get_usize()?;
        let lookups = r.get_u64()?;
        let mispredicts = r.get_u64()?;
        for (name, len) in [
            ("bimodal", bimodal.len()),
            ("gshare", gshare.len()),
            ("chooser", chooser.len()),
            ("btb", btb_tags.len()),
        ] {
            if !len.is_power_of_two() {
                return Err(voltctl_snap::SnapError::Corrupt(format!(
                    "{name} table length {len} is not a power of two"
                )));
            }
        }
        if btb_targets.len() != btb_tags.len() {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "BTB target table length {} does not match tag table length {}",
                btb_targets.len(),
                btb_tags.len()
            )));
        }
        if ras.len() != ras_capacity {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "RAS length {} does not match capacity {ras_capacity}",
                ras.len()
            )));
        }
        Ok(BranchPredictor {
            bimodal,
            gshare,
            chooser,
            history,
            history_mask,
            btb_tags,
            btb_targets,
            ras,
            ras_top,
            ras_capacity,
            lookups,
            mispredicts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(&CpuConfig::table1().bpred)
    }

    #[test]
    fn learns_always_taken() {
        let mut p = bp();
        let pc = 0x1000;
        for _ in 0..4 {
            let pred = p.predict(pc);
            p.update(pc, true, 7, &pred);
        }
        let pred = p.predict(pc);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(7));
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = bp();
        let pc = 0x2000;
        for _ in 0..4 {
            let pred = p.predict(pc);
            p.update(pc, false, 0, &pred);
        }
        assert!(!p.predict(pc).taken);
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // Bimodal cannot learn T,N,T,N…; gshare + chooser can.
        let mut p = bp();
        let pc = 0x3000;
        let mut correct_late = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let pred = p.predict(pc);
            if i >= 200 && pred.taken == taken {
                correct_late += 1;
            }
            p.update(pc, taken, 9, &pred);
        }
        assert!(
            correct_late > 190,
            "combined predictor should master alternation, got {correct_late}/200"
        );
    }

    #[test]
    fn mispredicts_counted() {
        let mut p = bp();
        let pc = 0x4000;
        // Train taken, then observe not-taken: must count a mispredict.
        for _ in 0..4 {
            let pred = p.predict(pc);
            p.update(pc, true, 5, &pred);
        }
        let before = p.mispredicts();
        let pred = p.predict(pc);
        p.update(pc, false, 0, &pred);
        assert_eq!(p.mispredicts(), before + 1);
    }

    #[test]
    fn btb_miss_on_cold_taken_branch() {
        let mut p = bp();
        let pred = p.predict_unconditional(0x5000);
        assert!(pred.taken);
        assert_eq!(pred.target, None); // cold BTB
        p.update_unconditional(0x5000, 77, &pred);
        let pred = p.predict_unconditional(0x5000);
        assert_eq!(pred.target, Some(77));
    }

    #[test]
    fn btb_conflict_evicts() {
        let mut p = bp();
        let stride = 1024 * 4; // same BTB index
        let pred = p.predict_unconditional(0x1000);
        p.update_unconditional(0x1000, 1, &pred);
        let pred = p.predict_unconditional(0x1000 + stride);
        p.update_unconditional(0x1000 + stride, 2, &pred);
        // Original entry evicted by the conflicting tag.
        assert_eq!(p.predict_unconditional(0x1000).target, None);
    }

    #[test]
    fn ras_is_lifo() {
        let mut p = bp();
        p.ras_push(10);
        p.ras_push(20);
        assert_eq!(p.ras_pop(), Some(20));
        assert_eq!(p.ras_pop(), Some(10));
        assert_eq!(p.ras_pop(), None);
    }

    #[test]
    fn ras_wraps_at_capacity() {
        let mut config = CpuConfig::table1().bpred;
        config.ras_entries = 2;
        let mut p = BranchPredictor::new(&config);
        p.ras_push(1);
        p.ras_push(2);
        p.ras_push(3); // overwrites 1
        assert_eq!(p.ras_pop(), Some(3));
        assert_eq!(p.ras_pop(), Some(2));
        assert_eq!(p.ras_pop(), Some(3)); // wrapped slot, stale value
    }

    #[test]
    fn lookups_counted() {
        let mut p = bp();
        p.predict(0);
        p.predict_unconditional(4);
        assert_eq!(p.lookups(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut config = CpuConfig::table1().bpred;
        config.btb_entries = 1000;
        let _ = BranchPredictor::new(&config);
    }
}
