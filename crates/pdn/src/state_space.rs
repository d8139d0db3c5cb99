//! Exact per-cycle discretization of the second-order PDN model.
//!
//! [`PdnState`] advances the network one CPU clock cycle at a time under a
//! zero-order-hold assumption: the load current is constant within a cycle.
//! The discrete update matrices come from the analytic matrix exponential,
//! so stepping is *exact* for piecewise-constant current (no integration
//! error accumulates), and costs a handful of multiply-adds per cycle —
//! the fast path for multi-million-cycle closed-loop simulations.
//!
//! Voltages are reported relative to a *regulation point*: a reference
//! current at which the regulator holds the supply exactly at nominal
//! (the paper assumes the regulator maintains 1.0 V at the processor's
//! minimum power level).

use crate::mat2::{Mat2, Vec2};
use crate::second_order::PdnModel;

/// Streaming per-cycle simulator for a [`PdnModel`].
///
/// Created by [`PdnModel::discretize`]. Feed the per-cycle load current
/// (amps) to [`step`](PdnState::step) and read back the die voltage (volts).
///
/// # Example
///
/// ```
/// use voltctl_pdn::PdnModel;
///
/// # fn main() -> Result<(), voltctl_pdn::PdnError> {
/// let model = PdnModel::paper_default()?;
/// let mut state = model.discretize();
/// // A sustained 20 A draw settles to nominal minus the IR drop.
/// let mut v = 0.0;
/// for _ in 0..20_000 {
///     v = state.step(20.0);
/// }
/// assert!((v - (model.v_nominal() - 20.0 * model.r_dc())).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PdnState {
    ad: Mat2,
    bd: Vec2,
    x: Vec2,
    v_nominal: f64,
    i_ref: f64,
}

impl PdnState {
    /// Builds the discrete stepper for `model`. Equivalent to
    /// [`PdnModel::discretize`].
    pub fn new(model: &PdnModel) -> Self {
        let r = model.r_dc();
        let l = model.inductance();
        let c = model.capacitance();
        let dt = 1.0 / model.clock_hz();

        // Deviation dynamics around the regulation point:
        //   d/dt [v; iL] = A [v; iL] + B u,   u = i_load - i_ref
        let a = Mat2::new(0.0, 1.0 / c, -1.0 / l, -r / l);
        let b = Vec2::new(-1.0 / c, 0.0);

        let ad = a.scale(dt).expm();
        // Bd = A^-1 (Ad - I) B; A is invertible since det(A) = 1/(LC) != 0.
        let a_inv = a
            .inverse()
            .expect("second-order PDN state matrix is invertible");
        let bd = a_inv.mul(&ad.add(&Mat2::IDENTITY.scale(-1.0))).mul_vec(b);

        PdnState {
            ad,
            bd,
            x: Vec2::default(),
            v_nominal: model.v_nominal(),
            i_ref: 0.0,
        }
    }

    /// Sets the regulation point: the load current (amps) at which the
    /// regulator holds the supply exactly at nominal. The paper pins this
    /// to the processor's minimum power level. Also resets transient state.
    pub fn set_reference_current(&mut self, amps: f64) {
        self.i_ref = amps;
        self.reset();
    }

    /// The configured regulation-point current in amps.
    pub fn reference_current(&self) -> f64 {
        self.i_ref
    }

    /// Clears all transient state (voltage returns to nominal).
    pub fn reset(&mut self) {
        self.x = Vec2::default();
    }

    /// Advances one CPU cycle with load current `i_load` (amps) held for the
    /// whole cycle, returning the die voltage (volts) at the end of the
    /// cycle.
    #[inline]
    pub fn step(&mut self, i_load: f64) -> f64 {
        let u = i_load - self.i_ref;
        self.x = self.ad.mul_vec(self.x).add(self.bd.scale(u));
        self.v_nominal + self.x.x
    }

    /// The die voltage (volts) right now, without advancing time.
    pub fn voltage(&self) -> f64 {
        self.v_nominal + self.x.x
    }

    /// The nominal supply voltage this stepper regulates around.
    pub fn voltage_nominal(&self) -> f64 {
        self.v_nominal
    }

    /// The voltage deviation from nominal (volts) right now.
    pub fn deviation(&self) -> f64 {
        self.x.x
    }

    /// Simulates an entire current trace, returning the voltage trace.
    /// Leaves the internal state at the end of the trace.
    pub fn run(&mut self, currents: &[f64]) -> Vec<f64> {
        currents.iter().map(|&i| self.step(i)).collect()
    }

    /// Rebuilds a stepper from two consecutive *observed* voltage
    /// deviations and the load current applied between them.
    ///
    /// The network state is two-dimensional (die voltage and inductor
    /// current) but only the voltage is observable, so external captures —
    /// e.g. the flight recorder's emergency windows, which log voltages and
    /// currents per cycle — cannot store the full state directly. Given
    /// `dev_prev` (deviation from nominal at cycle *t*), `dev_now` (at
    /// *t + 1*), and `i_load` held over that cycle, the hidden component is
    /// recovered by inverting one row of the discrete update, positioning
    /// the returned stepper exactly at cycle *t + 1*. This is what turns a
    /// recorded emergency capture back into a replayable checkpoint.
    ///
    /// Returns `None` when the model's discretization makes the hidden
    /// state unobservable (degenerate `ad.b`), which does not happen for
    /// physical RLC parameters.
    pub fn reconstruct(
        model: &PdnModel,
        dev_prev: f64,
        dev_now: f64,
        i_load: f64,
        i_ref: f64,
    ) -> Option<PdnState> {
        let mut state = PdnState::new(model);
        state.i_ref = i_ref;
        let (ad, bd) = (state.ad, state.bd);
        if ad.b == 0.0 || !ad.b.is_finite() {
            return None;
        }
        let u = i_load - i_ref;
        // Invert the voltage row of x_{t+1} = Ad x_t + Bd u for the hidden
        // component, then advance the full state one cycle.
        let y_prev = (dev_now - ad.a * dev_prev - bd.x * u) / ad.b;
        let y_now = ad.c * dev_prev + ad.d * y_prev + bd.y * u;
        state.x = Vec2::new(dev_now, y_now);
        Some(state)
    }
}

impl voltctl_snap::Pack for PdnState {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        self.ad.pack(w);
        self.bd.pack(w);
        self.x.pack(w);
        w.put_f64(self.v_nominal);
        w.put_f64(self.i_ref);
    }
}

impl voltctl_snap::Unpack for PdnState {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        Ok(PdnState {
            ad: voltctl_snap::Unpack::unpack(r)?,
            bd: voltctl_snap::Unpack::unpack(r)?,
            x: voltctl_snap::Unpack::unpack(r)?,
            v_nominal: r.get_f64()?,
            i_ref: r.get_f64()?,
        })
    }
}

/// The model's *pulse response*: the voltage-deviation sequence produced by
/// a 1 A load pulse held for exactly one cycle. Under zero-order hold this
/// is the convolution kernel that reproduces the state-space output exactly
/// (see [`crate::convolve`]).
///
/// Returns `n` samples in volts-per-amp (ohms).
pub fn pulse_response(model: &PdnModel, n: usize) -> Vec<f64> {
    let mut state = model.discretize();
    let mut h = Vec::with_capacity(n);
    for k in 0..n {
        let i = if k == 0 { 1.0 } else { 0.0 };
        h.push(state.step(i) - model.v_nominal());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::second_order::PdnModel;

    fn model() -> PdnModel {
        PdnModel::paper_default().unwrap()
    }

    #[test]
    fn settles_to_ir_drop_under_constant_current() {
        let m = model();
        let mut s = m.discretize();
        let mut v = 0.0;
        for _ in 0..50_000 {
            v = s.step(30.0);
        }
        let expected = m.v_nominal() - 30.0 * m.r_dc();
        assert!((v - expected).abs() < 1e-6, "v={v} expected={expected}");
    }

    #[test]
    fn reference_current_shifts_operating_point() {
        let m = model();
        let mut s = m.discretize();
        s.set_reference_current(15.0);
        let mut v = 0.0;
        for _ in 0..50_000 {
            v = s.step(15.0);
        }
        assert!((v - m.v_nominal()).abs() < 1e-9);
    }

    #[test]
    fn zero_current_stays_at_nominal() {
        let m = model();
        let mut s = m.discretize();
        for _ in 0..1000 {
            let v = s.step(0.0);
            assert!((v - m.v_nominal()).abs() < 1e-12);
        }
    }

    #[test]
    fn step_response_rings_at_resonant_period() {
        let m = model();
        let mut s = m.discretize();
        let trace: Vec<f64> = (0..600).map(|_| s.step(40.0) - m.v_nominal()).collect();
        // Find successive local minima of the ringing; their spacing should
        // be close to the resonant period (60 cycles).
        let mut minima = Vec::new();
        for k in 1..trace.len() - 1 {
            if trace[k] < trace[k - 1] && trace[k] < trace[k + 1] {
                minima.push(k);
            }
        }
        assert!(minima.len() >= 3, "ringing expected, got {minima:?}");
        let gap = (minima[1] - minima[0]) as f64;
        let period = m.resonant_period_cycles() as f64;
        assert!(
            (gap - period).abs() <= 2.0,
            "ringing period {gap} vs resonant period {period}"
        );
    }

    #[test]
    fn step_response_overshoots_for_underdamped_system() {
        let m = model();
        let mut s = m.discretize();
        let final_value = -40.0 * m.r_dc();
        let mut worst = 0.0f64;
        for _ in 0..10_000 {
            let dev = s.step(40.0) - m.v_nominal();
            worst = worst.min(dev);
        }
        assert!(
            worst < 1.2 * final_value,
            "undershoot {worst} should exceed final {final_value}"
        );
    }

    #[test]
    fn pulse_response_decays() {
        let m = model();
        let h = pulse_response(&m, 4000);
        let head: f64 = h[..100].iter().map(|x| x.abs()).fold(0.0, f64::max);
        let tail: f64 = h[3900..].iter().map(|x| x.abs()).fold(0.0, f64::max);
        assert!(head > 0.0);
        assert!(
            tail < head * 1e-3,
            "pulse response must decay: {tail} vs {head}"
        );
    }

    #[test]
    fn reset_restores_nominal() {
        let m = model();
        let mut s = m.discretize();
        for _ in 0..100 {
            s.step(40.0);
        }
        assert!((s.voltage() - m.v_nominal()).abs() > 1e-6);
        s.reset();
        assert!((s.voltage() - m.v_nominal()).abs() < 1e-15);
        assert_eq!(s.deviation(), 0.0);
    }

    #[test]
    fn run_matches_step_by_step() {
        let m = model();
        let trace: Vec<f64> = (0..500)
            .map(|k| if k % 60 < 30 { 40.0 } else { 5.0 })
            .collect();
        let mut s1 = m.discretize();
        let mut s2 = m.discretize();
        let v1 = s1.run(&trace);
        let v2: Vec<f64> = trace.iter().map(|&i| s2.step(i)).collect();
        assert_eq!(v1, v2);
    }

    #[test]
    fn wire_round_trip_resumes_bitwise() {
        use voltctl_snap::{ByteReader, ByteWriter, Pack, Unpack};
        let m = model();
        let mut s = m.discretize();
        s.set_reference_current(12.0);
        for k in 0..500 {
            s.step(if k % 60 < 30 { 40.0 } else { 5.0 });
        }
        let mut w = ByteWriter::new();
        s.pack(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut back = PdnState::unpack(&mut r).unwrap();
        assert!(r.finished());
        for k in 0..500 {
            let i = if k % 7 == 0 { 35.0 } else { 8.0 };
            // Bitwise: both steppers run the same float operations on the
            // same bit patterns.
            assert_eq!(back.step(i).to_bits(), s.step(i).to_bits());
        }
    }

    #[test]
    fn reconstruct_recovers_hidden_state_from_observations() {
        let m = model();
        let mut s = m.discretize();
        s.set_reference_current(10.0);
        let mut devs = vec![s.deviation()];
        let trace: Vec<f64> = (0..300)
            .map(|k| if k % 45 < 20 { 38.0 } else { 6.0 })
            .collect();
        for &i in &trace {
            s.step(i);
            devs.push(s.deviation());
        }
        // Rebuild from the last observed pair and the current between them.
        let n = trace.len();
        let mut rebuilt = PdnState::reconstruct(
            &m,
            devs[n - 1],
            devs[n],
            trace[n - 1],
            s.reference_current(),
        )
        .expect("physical model is observable");
        assert!((rebuilt.voltage() - s.voltage()).abs() < 1e-9);
        // Both continue in lockstep (tolerance: reconstruction divides by
        // ad.b, so it is exact only to floating-point conditioning).
        for k in 0..2000 {
            let i = if k % 33 < 11 { 42.0 } else { 4.0 };
            let (va, vb) = (s.step(i), rebuilt.step(i));
            assert!((va - vb).abs() < 1e-9, "cycle {k}: {va} vs {vb}");
        }
    }

    #[test]
    fn voltage_peek_does_not_advance() {
        let m = model();
        let mut s = m.discretize();
        s.step(40.0);
        let v1 = s.voltage();
        let v2 = s.voltage();
        assert_eq!(v1, v2);
    }
}
