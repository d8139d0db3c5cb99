//! Differential oracle: direct convolution against the state-space
//! stepper.
//!
//! The simulator computes supply voltage with one path, the exact
//! zero-order-hold stepper ([`voltctl_pdn::PdnState`]). The paper's own
//! method, convolving the current trace with the network's pulse
//! response, is kept as an independent reference: the two share no code
//! past the model, so agreement on random traces checks the stepper
//! without hand-computed expected values, and a failure shrinks to a
//! short trace that pinpoints the divergence.

use voltctl_check::{check, ensure, f64_in, i64_in, vec_f64, Config};
use voltctl_pdn::convolve::{convolve_full, kernel_for};
use voltctl_pdn::PdnModel;

/// |x - y| <= tol * max(1, |x|, |y|): relative on large signals, absolute
/// near zero (supply voltages sit near 1.0, so effectively relative).
fn close(x: f64, y: f64, tol: f64) -> bool {
    (x - y).abs() <= tol * 1.0_f64.max(x.abs()).max(y.abs())
}

fn ensure_all_close(a: &[f64], b: &[f64], tol: f64, what: &str) -> Result<(), String> {
    ensure!(
        a.len() == b.len(),
        "{what}: {} vs {} samples",
        a.len(),
        b.len()
    );
    for (n, (&x, &y)) in a.iter().zip(b).enumerate() {
        ensure!(close(x, y, tol), "{what}: cycle {n}: {x} vs {y}");
    }
    Ok(())
}

/// Direct convolution tracks the state-space reference on a
/// tolerance-derived kernel — the property the convolution path exists to
/// uphold.
#[test]
fn direct_convolution_tracks_the_state_space_reference() {
    let model = PdnModel::paper_default().unwrap();
    let kernel = kernel_for(&model, 1e-10);
    let gen = vec_f64(1, 400, 0.0, 60.0);
    check(
        "oracle.convolution.matches-state-space",
        &Config::cases(48, 0x0AC3),
        &gen,
        |trace| {
            let mut ss = model.discretize();
            let exact: Vec<f64> = trace.iter().map(|&i| ss.step(i)).collect();
            let direct = convolve_full(&kernel, trace, model.v_nominal());
            ensure_all_close(&exact, &direct, 1e-7, "state-space vs direct")
        },
    );
}

/// Kernel derivation must be invariant to the tolerance path taken to
/// reach a length: a coarser-tolerance kernel is always a bitwise prefix
/// of a finer one (same stepper, same samples).
#[test]
fn coarse_kernels_are_prefixes_of_fine_kernels() {
    let base = PdnModel::paper_default().unwrap();
    let gen = (f64_in(0.6, 4.0), i64_in(3, 8));
    check(
        "oracle.kernel.prefix-consistency",
        &Config::cases(32, 0x0AC5),
        &gen,
        |&(scale, exponent)| {
            let model = base
                .scaled(scale)
                .map_err(|e| format!("scaled({scale}): {e}"))?;
            let coarse = kernel_for(&model, 10f64.powi(-(exponent as i32)));
            let fine = kernel_for(&model, 10f64.powi(-(exponent as i32) - 2));
            ensure!(
                fine.len() >= coarse.len(),
                "finer tolerance produced a shorter kernel"
            );
            for (k, (&c, &f)) in coarse.iter().zip(&fine).enumerate() {
                ensure!(
                    c.to_bits() == f.to_bits(),
                    "tap {k}: coarse {c} vs fine {f}"
                );
            }
            Ok(())
        },
    );
}
