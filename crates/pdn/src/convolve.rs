//! Convolution-based voltage computation (the paper's reference method).
//!
//! The paper (following Grochowski et al.) computes the supply voltage by
//! convolving the per-cycle current trace with the network's impulse
//! response. This module keeps that method as an independent reference:
//!
//! * [`kernel_for`] — extraction of a truncated convolution kernel from a
//!   [`PdnModel`],
//! * [`convolve_full`] — direct batch convolution of a whole trace,
//!   O(N·K) for N samples and K taps.
//!
//! Because the kernel is the model's exact zero-order-hold pulse response,
//! the convolution output matches [`crate::state_space::PdnState`] to within
//! truncation error — a property-tested invariant. The state-space stepper
//! is O(1) per cycle and is the one voltage path the simulator runs;
//! convolution exists to check it.

use crate::second_order::PdnModel;
use crate::state_space::pulse_response;

/// Extracts a truncated convolution kernel (volts per amp per cycle) from
/// `model`, long enough that the discarded tail is below `rel_tol` of the
/// kernel's peak magnitude. A `rel_tol` of `1e-6` is a good default.
///
/// The kernel length doubles from eight resonant periods until the tail
/// test passes; every candidate is a prefix of the same pulse response, so
/// a coarser tolerance always yields a bitwise prefix of a finer one.
///
/// # Panics
///
/// Panics if `rel_tol` is not a positive finite number.
pub fn kernel_for(model: &PdnModel, rel_tol: f64) -> Vec<f64> {
    assert!(
        rel_tol.is_finite() && rel_tol > 0.0,
        "rel_tol must be positive and finite"
    );
    let period = model.resonant_period_cycles().max(2);
    let mut n = period * 8;
    loop {
        let h = pulse_response(model, n);
        let peak = h.iter().map(|x| x.abs()).fold(0.0, f64::max);
        let tail = h[n - period..].iter().map(|x| x.abs()).fold(0.0, f64::max);
        if tail <= rel_tol * peak || n > period * 4096 {
            return h;
        }
        n *= 2;
    }
}

/// Batch convolution: `v[n] = v_nominal + sum_k h[k] * i[n-k]`.
///
/// Returns one voltage sample per current sample (the "same-length" leading
/// part of the full convolution, matching what a streaming simulator sees).
pub fn convolve_full(kernel: &[f64], currents: &[f64], v_nominal: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(currents.len());
    for n in 0..currents.len() {
        let mut acc = 0.0;
        let kmax = kernel.len().min(n + 1);
        for k in 0..kmax {
            acc += kernel[k] * currents[n - k];
        }
        out.push(v_nominal + acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PdnModel {
        PdnModel::paper_default().unwrap()
    }

    #[test]
    fn kernel_tail_is_negligible() {
        let m = model();
        let h = kernel_for(&m, 1e-6);
        let peak = h.iter().map(|x| x.abs()).fold(0.0, f64::max);
        let tail = h[h.len() - 10..]
            .iter()
            .map(|x| x.abs())
            .fold(0.0, f64::max);
        assert!(tail <= 1e-5 * peak);
    }

    #[test]
    fn convolution_matches_state_space() {
        let m = model();
        let kernel = kernel_for(&m, 1e-10);
        let trace: Vec<f64> = (0..2000)
            .map(|k| match k % 97 {
                0..=20 => 45.0,
                21..=50 => 10.0,
                _ => 25.0,
            })
            .collect();
        let conv = convolve_full(&kernel, &trace, m.v_nominal());
        let mut ss = m.discretize();
        for (n, &i) in trace.iter().enumerate() {
            let v_ss = ss.step(i);
            assert!(
                (conv[n] - v_ss).abs() < 1e-7,
                "cycle {n}: convolution {} vs state-space {v_ss}",
                conv[n]
            );
        }
    }

    #[test]
    fn superposition_holds() {
        // LTI sanity: conv(a + b) == conv(a) + conv(b) - v_nominal.
        let m = model();
        let kernel = kernel_for(&m, 1e-8);
        let a: Vec<f64> = (0..300).map(|k| (k % 13) as f64).collect();
        let b: Vec<f64> = (0..300).map(|k| ((k * 7) % 11) as f64).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let va = convolve_full(&kernel, &a, 0.0);
        let vb = convolve_full(&kernel, &b, 0.0);
        let vs = convolve_full(&kernel, &sum, 0.0);
        for n in 0..300 {
            assert!((vs[n] - (va[n] + vb[n])).abs() < 1e-12);
        }
    }
}
