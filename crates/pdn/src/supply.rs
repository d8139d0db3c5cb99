//! The [`Supply`] abstraction: anything that turns a per-cycle load
//! current into a per-cycle die voltage.
//!
//! The second-order stepper ([`crate::PdnState`]) and the detailed ladder
//! network ([`crate::ladder::LadderState`]) both implement it, so
//! controllers and replay harnesses can be written once and validated
//! against either level of supply-network detail.

use crate::ladder::LadderState;
use crate::state_space::PdnState;

/// A per-cycle current → voltage supply network.
pub trait Supply {
    /// Advances one CPU cycle with `i_load` amps; returns the die voltage.
    fn step_supply(&mut self, i_load: f64) -> f64;
    /// The nominal supply voltage in volts.
    fn nominal(&self) -> f64;
}

impl Supply for PdnState {
    fn step_supply(&mut self, i_load: f64) -> f64 {
        self.step(i_load)
    }

    fn nominal(&self) -> f64 {
        self.voltage_nominal()
    }
}

impl Supply for LadderState {
    fn step_supply(&mut self, i_load: f64) -> f64 {
        self.step(i_load)
    }

    fn nominal(&self) -> f64 {
        self.voltage_nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::LadderModel;
    use crate::PdnModel;

    fn drive<S: Supply>(mut s: S, n: usize) -> f64 {
        let mut min = f64::MAX;
        for k in 0..n {
            let i = if k % 60 < 30 { 40.0 } else { 0.0 };
            min = min.min(s.step_supply(i));
        }
        min
    }

    #[test]
    fn all_supplies_are_drivable_through_the_trait() {
        let m = PdnModel::paper_default().unwrap();
        let ss = drive(m.discretize(), 600);
        assert!(ss < m.v_nominal(), "state-space must droop under load");

        let ladder = LadderModel::typical_three_stage();
        let lv = drive(ladder.discretize(), 600);
        assert!(lv < ladder.v_nominal(), "ladder must droop under load");
    }

    #[test]
    fn nominal_is_exposed() {
        let m = PdnModel::paper_default().unwrap();
        assert_eq!(m.discretize().nominal(), m.v_nominal());
        let l = LadderModel::typical_three_stage();
        assert_eq!(l.discretize().nominal(), l.v_nominal());
    }
}
