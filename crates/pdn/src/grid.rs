//! Multi-quadrant ("localized dI/dt") extension of the PDN model.
//!
//! The paper's Section 6 identifies localized supply swings in different
//! chip quadrants as future work. This module implements that extension: a
//! 2x2 grid of die quadrants, each with its own series-RL supply path and
//! local decoupling capacitance, resistively coupled to its neighbors
//! through the on-die power grid. A burst in one quadrant droops its local
//! supply harder than the chip-wide average — the effect a global model
//! cannot see.
//!
//! Integration uses classic RK4 with sub-cycle steps (the coupled system no
//! longer has a convenient closed-form discretization). The per-quadrant
//! parameters derive from a base [`PdnModel`] by splitting its current
//! capacity four ways: each quadrant gets `4L`, `C/4`, `4R`, preserving the
//! per-quadrant resonant frequency and the parallel-combined chip-level
//! impedance.

use crate::second_order::PdnModel;

/// Number of quadrants in the grid.
pub const QUADRANTS: usize = 4;

/// A 2x2 grid of resistively coupled PDN quadrants.
///
/// # Example
///
/// ```
/// use voltctl_pdn::{PdnModel, grid::GridPdn};
///
/// # fn main() -> Result<(), voltctl_pdn::PdnError> {
/// let base = PdnModel::paper_default()?;
/// let mut grid = GridPdn::new(&base, 2.0e-3);
/// // Draw 40 A in quadrant 0 only.
/// let v = grid.step([40.0, 0.0, 0.0, 0.0]);
/// assert!(v[0] <= v[3]); // local droop is at least as bad as remote
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GridPdn {
    r: f64,
    l: f64,
    c: f64,
    g_couple: f64,
    dt: f64,
    substeps: usize,
    v_nominal: f64,
    i_ref: [f64; QUADRANTS],
    /// State: per-quadrant (voltage deviation, inductor current deviation).
    v: [f64; QUADRANTS],
    il: [f64; QUADRANTS],
}

/// Neighbor pairs of the 2x2 grid (quadrants laid out 0 1 / 2 3).
const EDGES: [(usize, usize); 4] = [(0, 1), (0, 2), (1, 3), (2, 3)];

impl GridPdn {
    /// Builds the grid from a chip-level `base` model and an inter-quadrant
    /// coupling resistance `coupling_ohms` (smaller = stiffer grid; the
    /// limit 0 recovers the global model exactly).
    ///
    /// # Panics
    ///
    /// Panics if `coupling_ohms` is negative or not finite.
    pub fn new(base: &PdnModel, coupling_ohms: f64) -> Self {
        assert!(
            coupling_ohms.is_finite() && coupling_ohms >= 0.0,
            "coupling resistance must be finite and non-negative"
        );
        let n = QUADRANTS as f64;
        GridPdn {
            r: base.r_dc() * n,
            l: base.inductance() * n,
            c: base.capacitance() / n,
            g_couple: if coupling_ohms == 0.0 {
                f64::INFINITY
            } else {
                1.0 / coupling_ohms
            },
            dt: 1.0 / base.clock_hz(),
            substeps: 8,
            v_nominal: base.v_nominal(),
            i_ref: [0.0; QUADRANTS],
            v: [0.0; QUADRANTS],
            il: [0.0; QUADRANTS],
        }
    }

    /// Sets per-quadrant regulation-point currents (amps) and resets state.
    pub fn set_reference_currents(&mut self, amps: [f64; QUADRANTS]) {
        self.i_ref = amps;
        self.reset();
    }

    /// Clears transient state.
    pub fn reset(&mut self) {
        self.v = [0.0; QUADRANTS];
        self.il = [0.0; QUADRANTS];
    }

    /// Current per-quadrant voltages (volts), without advancing time.
    pub fn voltages(&self) -> [f64; QUADRANTS] {
        self.v.map(|dev| self.v_nominal + dev)
    }

    /// Advances one CPU cycle with the given per-quadrant load currents
    /// (amps, zero-order hold), returning end-of-cycle quadrant voltages.
    pub fn step(&mut self, i_load: [f64; QUADRANTS]) -> [f64; QUADRANTS] {
        let mut u = [0.0; QUADRANTS];
        for q in 0..QUADRANTS {
            u[q] = i_load[q] - self.i_ref[q];
        }
        let h = self.dt / self.substeps as f64;
        for _ in 0..self.substeps {
            self.rk4_substep(h, &u);
        }
        self.voltages()
    }

    fn derivatives(
        &self,
        v: &[f64; QUADRANTS],
        il: &[f64; QUADRANTS],
        u: &[f64; QUADRANTS],
    ) -> ([f64; QUADRANTS], [f64; QUADRANTS]) {
        let mut dv = [0.0; QUADRANTS];
        let mut dil = [0.0; QUADRANTS];
        for q in 0..QUADRANTS {
            dv[q] = (il[q] - u[q]) / self.c;
            dil[q] = (-v[q] - self.r * il[q]) / self.l;
        }
        if self.g_couple.is_finite() {
            for &(a, b) in &EDGES {
                let flow = (v[b] - v[a]) * self.g_couple;
                dv[a] += flow / self.c;
                dv[b] -= flow / self.c;
            }
        } else {
            // Infinite conductance: force the common-mode solution by
            // averaging the derivative (the voltages are slaved together).
            let mean_dv = dv.iter().sum::<f64>() / QUADRANTS as f64;
            dv = [mean_dv; QUADRANTS];
        }
        (dv, dil)
    }

    fn rk4_substep(&mut self, h: f64, u: &[f64; QUADRANTS]) {
        let (v0, il0) = (self.v, self.il);
        let (k1v, k1i) = self.derivatives(&v0, &il0, u);
        let (v1, il1) = advance(&v0, &il0, &k1v, &k1i, h / 2.0);
        let (k2v, k2i) = self.derivatives(&v1, &il1, u);
        let (v2, il2) = advance(&v0, &il0, &k2v, &k2i, h / 2.0);
        let (k3v, k3i) = self.derivatives(&v2, &il2, u);
        let (v3, il3) = advance(&v0, &il0, &k3v, &k3i, h);
        let (k4v, k4i) = self.derivatives(&v3, &il3, u);
        for q in 0..QUADRANTS {
            self.v[q] = v0[q] + h / 6.0 * (k1v[q] + 2.0 * k2v[q] + 2.0 * k3v[q] + k4v[q]);
            self.il[q] = il0[q] + h / 6.0 * (k1i[q] + 2.0 * k2i[q] + 2.0 * k3i[q] + k4i[q]);
        }
    }
}

fn advance(
    v: &[f64; QUADRANTS],
    il: &[f64; QUADRANTS],
    dv: &[f64; QUADRANTS],
    dil: &[f64; QUADRANTS],
    h: f64,
) -> ([f64; QUADRANTS], [f64; QUADRANTS]) {
    let mut nv = [0.0; QUADRANTS];
    let mut nil = [0.0; QUADRANTS];
    for q in 0..QUADRANTS {
        nv[q] = v[q] + h * dv[q];
        nil[q] = il[q] + h * dil[q];
    }
    (nv, nil)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::second_order::PdnModel;

    fn base() -> PdnModel {
        PdnModel::paper_default().unwrap()
    }

    #[test]
    fn uniform_load_matches_global_model() {
        // Equal per-quadrant currents with any coupling must reproduce the
        // global model's response to the summed current.
        let m = base();
        let mut grid = GridPdn::new(&m, 2.0e-3);
        let mut global = m.discretize();
        for k in 0..1200 {
            let i_total = if k % 60 < 30 { 40.0 } else { 4.0 };
            let per_quadrant = i_total / 4.0;
            let gv = grid.step([per_quadrant; 4]);
            let sv = global.step(i_total);
            for (q, &g) in gv.iter().enumerate() {
                assert!(
                    (g - sv).abs() < 2e-4,
                    "cycle {k} quadrant {q}: grid {g} vs global {sv}"
                );
            }
        }
    }

    #[test]
    fn local_burst_droops_locally() {
        let m = base();
        let mut grid = GridPdn::new(&m, 5.0e-3);
        let mut worst_local = f64::MAX;
        let mut worst_remote = f64::MAX;
        for k in 0..600 {
            let i0 = if k % 60 < 30 { 30.0 } else { 0.0 };
            let v = grid.step([i0, 0.0, 0.0, 0.0]);
            worst_local = worst_local.min(v[0]);
            worst_remote = worst_remote.min(v[3]);
        }
        assert!(
            worst_local < worst_remote - 1e-4,
            "local {worst_local} must droop below remote {worst_remote}"
        );
    }

    #[test]
    fn tighter_coupling_reduces_locality() {
        let m = base();
        let spread = |coupling: f64| -> f64 {
            let mut grid = GridPdn::new(&m, coupling);
            let mut max_spread = 0.0f64;
            for k in 0..600 {
                let i0 = if k % 60 < 30 { 30.0 } else { 0.0 };
                let v = grid.step([i0, 0.0, 0.0, 0.0]);
                let hi = v.iter().cloned().fold(f64::MIN, f64::max);
                let lo = v.iter().cloned().fold(f64::MAX, f64::min);
                max_spread = max_spread.max(hi - lo);
            }
            max_spread
        };
        assert!(spread(0.5e-3) < spread(8.0e-3));
    }

    #[test]
    fn zero_coupling_resistance_slaves_quadrants() {
        let m = base();
        let mut grid = GridPdn::new(&m, 0.0);
        for k in 0..300 {
            let i0 = if k % 60 < 30 { 30.0 } else { 0.0 };
            let v = grid.step([i0, 0.0, 0.0, 0.0]);
            let hi = v.iter().cloned().fold(f64::MIN, f64::max);
            let lo = v.iter().cloned().fold(f64::MAX, f64::min);
            assert!(hi - lo < 1e-9, "quadrants must move together");
        }
    }

    #[test]
    fn reference_currents_center_the_operating_point() {
        let m = base();
        let mut grid = GridPdn::new(&m, 2.0e-3);
        grid.set_reference_currents([5.0; 4]);
        let mut v = [0.0; 4];
        for _ in 0..30_000 {
            v = grid.step([5.0; 4]);
        }
        for &vq in &v {
            assert!((vq - m.v_nominal()).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_coupling_rejected() {
        let _ = GridPdn::new(&base(), -1.0);
    }
}
