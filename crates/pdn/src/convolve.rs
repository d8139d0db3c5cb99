//! Convolution-based voltage computation (the paper's reference method).
//!
//! The paper (following Grochowski et al.) computes the supply voltage by
//! convolving the per-cycle current trace with the network's impulse
//! response. This module provides that reference path:
//!
//! * [`convolve_full`] — direct batch convolution of a whole trace,
//!   O(N·K) for N samples and K taps,
//! * [`convolve_full_fft`] — the same result via overlap-save FFT
//!   convolution, O(N log K); the fast path for batch replay with long
//!   kernels,
//! * [`Convolver`] — a branch-free streaming ring-buffer convolver for
//!   cycle-by-cycle use,
//! * [`kernel_for`] — extraction of a truncated convolution kernel from a
//!   [`PdnModel`].
//!
//! Because the kernel is the model's exact zero-order-hold pulse response,
//! the convolution output matches [`crate::state_space::PdnState`] to within
//! truncation error — a property-tested invariant. The state-space stepper
//! is O(1) per cycle and is the recommended fast path for closed-loop
//! simulation; convolution is kept as an independent cross-check and for
//! experimenting with measured (non-analytic) kernels, where the FFT path
//! makes long-kernel batch replay cheap.

use crate::second_order::PdnModel;
use crate::spectrum::{fft, ifft, Complex};
use crate::state_space::PdnState;

/// Extracts a truncated convolution kernel (volts per amp per cycle) from
/// `model`, long enough that the discarded tail is below `rel_tol` of the
/// kernel's peak magnitude. A `rel_tol` of `1e-6` is a good default.
///
/// The pulse response is grown *incrementally*: the stepper that produced
/// the first `n` samples keeps running when the tail test demands a longer
/// kernel, so each doubling costs only the new samples (the zero-order-hold
/// stepper is deterministic, making the result identical to recomputing the
/// whole prefix from scratch — a regression-tested property).
///
/// # Panics
///
/// Panics if `rel_tol` is not a positive finite number.
pub fn kernel_for(model: &PdnModel, rel_tol: f64) -> Vec<f64> {
    assert!(
        rel_tol.is_finite() && rel_tol > 0.0,
        "rel_tol must be positive and finite"
    );
    // Grow in blocks of one resonant period until the tail is negligible.
    let period = model.resonant_period_cycles().max(2);
    let mut state = model.discretize();
    let mut h = Vec::new();
    let mut n = period * 8;
    loop {
        extend_pulse_response(&mut state, &mut h, n);
        let peak = h.iter().map(|x| x.abs()).fold(0.0, f64::max);
        let tail = h[n - period..].iter().map(|x| x.abs()).fold(0.0, f64::max);
        if tail <= rel_tol * peak || n > period * 4096 {
            return h;
        }
        n *= 2;
    }
}

/// Appends pulse-response samples to `h` until it holds `n`, continuing
/// from wherever `state` left off. The 1 A probe is applied only on the
/// very first sample; every later cycle steps with zero load.
fn extend_pulse_response(state: &mut PdnState, h: &mut Vec<f64>, n: usize) {
    let v_nom = state.voltage_nominal();
    h.reserve(n.saturating_sub(h.len()));
    while h.len() < n {
        let i = if h.is_empty() { 1.0 } else { 0.0 };
        h.push(state.step(i) - v_nom);
    }
}

/// Batch convolution: `v[n] = v_nominal + sum_k h[k] * i[n-k]`.
///
/// Returns one voltage sample per current sample (the "same-length" leading
/// part of the full convolution, matching what a streaming simulator sees).
///
/// This is the direct O(N·K) reference; [`convolve_full_fft`] computes the
/// same samples in O(N log K) and is preferred for batch replay with
/// long kernels.
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

/// Overlap-save FFT convolution: the same samples as [`convolve_full`]
/// (within floating-point rounding, property-tested to 1e-9 relative
/// tolerance) in O(N log K) instead of O(N·K).
///
/// The kernel's spectrum is computed once at an FFT length of at least
/// four times the tap count; the trace is then processed in blocks of
/// `fft_len - K + 1` fresh samples, each block FFT-multiplied against the
/// kernel spectrum and inverse-transformed, keeping only the alias-free
/// tail (the standard overlap-save construction). Leading samples see the
/// same implicit zero history as the direct path.
pub fn convolve_full_fft(kernel: &[f64], currents: &[f64], v_nominal: f64) -> Vec<f64> {
    let n = currents.len();
    if n == 0 {
        return Vec::new();
    }
    if kernel.is_empty() {
        return vec![v_nominal; n];
    }
    let k = kernel.len();
    // 4x padding keeps the useful fraction of each block >= 3/4 while the
    // per-sample FFT cost grows only logarithmically; 64 floors the tiny
    // cases where butterflies would be all overhead.
    let fft_len = (4 * k).next_power_of_two().max(64);
    let block = fft_len - (k - 1);

    let mut kernel_f = vec![Complex::default(); fft_len];
    for (slot, &h) in kernel_f.iter_mut().zip(kernel) {
        slot.re = h;
    }
    fft(&mut kernel_f);

    let mut out = Vec::with_capacity(n);
    let mut buf = vec![Complex::default(); fft_len];
    let mut start = 0usize;
    while start < n {
        // The block's input spans currents[start - (K-1) .. start + block):
        // K-1 samples of history (zeros before the trace begins) plus up to
        // `block` fresh samples (zeros past the end are discarded below).
        let first = start as i64 - (k as i64 - 1);
        for (j, slot) in buf.iter_mut().enumerate() {
            let idx = first + j as i64;
            slot.re = if idx >= 0 && (idx as usize) < n {
                currents[idx as usize]
            } else {
                0.0
            };
            slot.im = 0.0;
        }
        fft(&mut buf);
        for (slot, h) in buf.iter_mut().zip(&kernel_f) {
            *slot = *slot * *h;
        }
        ifft(&mut buf);
        let take = block.min(n - start);
        out.extend(buf[k - 1..k - 1 + take].iter().map(|c| v_nominal + c.re));
        start += take;
    }
    out
}

/// Streaming convolver with a branch-free ring buffer of past current
/// samples.
///
/// Functionally identical to [`convolve_full`] but usable one cycle at a
/// time inside a closed simulation loop. The ring is padded to a power of
/// two and every sample is written twice (`i` and `i + capacity`), so the
/// most recent K samples are always one contiguous slice: the per-cycle
/// dot product runs without a wrap-around branch per tap, chunk-unrolled
/// four wide.
///
/// # Example
///
/// ```
/// use voltctl_pdn::{PdnModel, convolve::{kernel_for, Convolver}};
///
/// # fn main() -> Result<(), voltctl_pdn::PdnError> {
/// let model = PdnModel::paper_default()?;
/// let mut conv = Convolver::new(kernel_for(&model, 1e-6), model.v_nominal());
/// let v = conv.step(25.0);
/// assert!(v < model.v_nominal()); // current draw dips the supply
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Convolver {
    /// The kernel reversed (`rev_kernel[j] = kernel[K-1-j]`), so the dot
    /// product against the oldest-first history window is a straight scan.
    rev_kernel: Vec<f64>,
    /// Double-write ring: `2 * cap` samples, `history[i] == history[i + cap]`.
    history: Vec<f64>,
    /// Ring capacity: kernel length rounded up to a power of two.
    cap: usize,
    /// Index of the most recent sample, in `[0, cap)`.
    head: usize,
    v_nominal: f64,
}

impl Convolver {
    /// Creates a convolver from a kernel (volts/amp) and nominal voltage.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is empty.
    pub fn new(kernel: Vec<f64>, v_nominal: f64) -> Self {
        assert!(!kernel.is_empty(), "convolution kernel must be non-empty");
        let cap = kernel.len().next_power_of_two();
        let mut rev_kernel = kernel;
        rev_kernel.reverse();
        Convolver {
            rev_kernel,
            history: vec![0.0; 2 * cap],
            cap,
            head: cap - 1,
            v_nominal,
        }
    }

    /// Number of taps in the kernel.
    pub fn len(&self) -> usize {
        self.rev_kernel.len()
    }

    /// Whether the kernel has no taps. Always false in practice — the
    /// constructor rejects empty kernels — but implemented honestly from
    /// the kernel length.
    pub fn is_empty(&self) -> bool {
        self.rev_kernel.is_empty()
    }

    /// Pushes this cycle's current sample (amps) and returns the voltage.
    pub fn step(&mut self, i_load: f64) -> f64 {
        self.head = (self.head + 1) & (self.cap - 1);
        self.history[self.head] = i_load;
        self.history[self.head + self.cap] = i_load;
        // The K most recent samples, oldest first, are contiguous ending at
        // head + cap thanks to the double write.
        let end = self.head + self.cap + 1;
        let window = &self.history[end - self.rev_kernel.len()..end];
        self.v_nominal + dot(&self.rev_kernel, window)
    }

    /// The nominal supply voltage added to the convolution output.
    pub fn voltage_nominal(&self) -> f64 {
        self.v_nominal
    }

    /// Clears the current history.
    pub fn reset(&mut self) {
        self.history.fill(0.0);
        self.head = self.cap - 1;
    }
}

/// W streaming convolvers sharing one kernel, advanced in lockstep.
///
/// The history ring is lane-interleaved (`history[slot * width + lane]`)
/// with the same double-write trick as [`Convolver`], so one cycle of all
/// W lanes is a tap-major scan whose inner loop runs `width` independent
/// multiply-adds over contiguous memory — the layout the compiler
/// autovectorizes. All lanes share the ring head because they step
/// together.
///
/// Each lane computes the same dot product a standalone [`Convolver`]
/// would, but the accumulation order differs (tap-serial here vs. the
/// scalar path's four-way unroll), so lane outputs agree to rounding —
/// not bitwise. This path backs batch *replay* sweeps (one trace, many
/// kernels); the closed control loop steps each lane's own
/// [`PdnState`](crate::state_space::PdnState), which is bitwise.
#[derive(Debug, Clone)]
pub struct LaneConvolver {
    /// Kernel reversed, as in [`Convolver`].
    rev_kernel: Vec<f64>,
    /// Lane-interleaved double-write ring: `2 * cap * width` samples.
    history: Vec<f64>,
    cap: usize,
    width: usize,
    head: usize,
    v_nominal: f64,
}

impl LaneConvolver {
    /// Creates a `width`-lane convolver from a kernel and nominal voltage.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is empty or `width` is zero.
    pub fn new(kernel: Vec<f64>, v_nominal: f64, width: usize) -> Self {
        assert!(!kernel.is_empty(), "convolution kernel must be non-empty");
        assert!(width > 0, "lane width must be positive");
        let cap = kernel.len().next_power_of_two();
        let mut rev_kernel = kernel;
        rev_kernel.reverse();
        LaneConvolver {
            rev_kernel,
            history: vec![0.0; 2 * cap * width],
            cap,
            width,
            head: cap - 1,
            v_nominal,
        }
    }

    /// Number of taps in the shared kernel.
    pub fn taps(&self) -> usize {
        self.rev_kernel.len()
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Pushes one cycle of per-lane currents (amps) and writes the
    /// per-lane voltages into `out`.
    ///
    /// # Panics
    ///
    /// Panics unless `i_loads` and `out` both hold exactly `width`
    /// samples.
    pub fn step(&mut self, i_loads: &[f64], out: &mut [f64]) {
        let w = self.width;
        assert_eq!(i_loads.len(), w, "one current per lane");
        assert_eq!(out.len(), w, "one output slot per lane");
        self.head = (self.head + 1) & (self.cap - 1);
        let row = self.head * w;
        let wrap = (self.head + self.cap) * w;
        self.history[row..row + w].copy_from_slice(i_loads);
        self.history[wrap..wrap + w].copy_from_slice(i_loads);

        out.fill(0.0);
        let k = self.rev_kernel.len();
        // Oldest-first window of K rows ending at the double-write slot.
        let end_row = self.head + self.cap + 1;
        let window = &self.history[(end_row - k) * w..end_row * w];
        for (j, lanes) in window.chunks_exact(w).enumerate() {
            let h = self.rev_kernel[j];
            for (o, &i) in out.iter_mut().zip(lanes) {
                *o += h * i;
            }
        }
        for o in out.iter_mut() {
            *o += self.v_nominal;
        }
    }

    /// Clears every lane's history.
    pub fn reset(&mut self) {
        self.history.fill(0.0);
        self.head = self.cap - 1;
    }
}

/// Chunk-unrolled dot product: four independent accumulators hide the
/// floating-point add latency; the remainder folds in serially.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let split = a.len() & !3;
    for (ca, cb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        sum += x * y;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::second_order::PdnModel;
    use crate::state_space::pulse_response;

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

    /// The incremental growth must reproduce the old recompute-from-scratch
    /// algorithm bit for bit (same stepper, same operation sequence).
    #[test]
    fn incremental_kernel_matches_recompute_from_scratch() {
        let models = [
            model(),
            model().scaled(3.0).unwrap(),
            PdnModel::from_rlc(0.8e-3, 8.0e-12, 1.2e-6, 3.0e9).unwrap(),
        ];
        for m in &models {
            for rel_tol in [1e-3, 1e-6, 1e-9] {
                // Reference: the pre-incremental algorithm.
                let reference = {
                    let period = m.resonant_period_cycles().max(2);
                    let mut n = period * 8;
                    loop {
                        let h = pulse_response(m, n);
                        let peak = h.iter().map(|x| x.abs()).fold(0.0, f64::max);
                        let tail = h[n - period..].iter().map(|x| x.abs()).fold(0.0, f64::max);
                        if tail <= rel_tol * peak || n > period * 4096 {
                            break h;
                        }
                        n *= 2;
                    }
                };
                assert_eq!(kernel_for(m, rel_tol), reference, "rel_tol {rel_tol}");
            }
        }
    }

    #[test]
    fn batch_matches_streaming() {
        let m = model();
        let kernel = kernel_for(&m, 1e-9);
        let trace: Vec<f64> = (0..500)
            .map(|k| if (k / 30) % 2 == 0 { 40.0 } else { 5.0 })
            .collect();
        let batch = convolve_full(&kernel, &trace, m.v_nominal());
        let mut conv = Convolver::new(kernel, m.v_nominal());
        let streaming: Vec<f64> = trace.iter().map(|&i| conv.step(i)).collect();
        for (a, b) in batch.iter().zip(&streaming) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_matches_direct_on_square_wave() {
        let m = model();
        let kernel = kernel_for(&m, 1e-9);
        let trace: Vec<f64> = (0..2000)
            .map(|k| if (k / 30) % 2 == 0 { 40.0 } else { 5.0 })
            .collect();
        let direct = convolve_full(&kernel, &trace, m.v_nominal());
        let fast = convolve_full_fft(&kernel, &trace, m.v_nominal());
        assert_eq!(direct.len(), fast.len());
        for (n, (a, b)) in direct.iter().zip(&fast).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "cycle {n}: direct {a} vs fft {b}"
            );
        }
    }

    #[test]
    fn fft_handles_degenerate_inputs() {
        assert!(convolve_full_fft(&[1.0, 0.5], &[], 1.0).is_empty());
        assert_eq!(convolve_full_fft(&[], &[3.0, 4.0], 1.0), vec![1.0, 1.0]);
        // Single-tap kernel: pure scaling.
        let out = convolve_full_fft(&[2.0], &[1.0, -1.0, 0.5], 0.0);
        for (a, b) in out.iter().zip(&[2.0, -2.0, 1.0]) {
            assert!((a - b).abs() < 1e-12);
        }
        // Trace shorter than the kernel.
        let kernel = vec![0.25; 16];
        let trace = vec![1.0, 2.0, 3.0];
        let direct = convolve_full(&kernel, &trace, 5.0);
        let fast = convolve_full_fft(&kernel, &trace, 5.0);
        for (a, b) in direct.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-12);
        }
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
        let fast = convolve_full_fft(&kernel, &trace, m.v_nominal());
        let mut ss = m.discretize();
        for (n, &i) in trace.iter().enumerate() {
            let v_ss = ss.step(i);
            assert!(
                (conv[n] - v_ss).abs() < 1e-7,
                "cycle {n}: convolution {} vs state-space {v_ss}",
                conv[n]
            );
            assert!(
                (fast[n] - v_ss).abs() < 1e-7,
                "cycle {n}: fft convolution {} vs state-space {v_ss}",
                fast[n]
            );
        }
    }

    #[test]
    fn reset_clears_history() {
        let m = model();
        let kernel = kernel_for(&m, 1e-6);
        let mut conv = Convolver::new(kernel, m.v_nominal());
        for _ in 0..100 {
            conv.step(40.0);
        }
        conv.reset();
        let v = conv.step(0.0);
        assert!((v - m.v_nominal()).abs() < 1e-15);
    }

    #[test]
    fn streaming_survives_many_wraparounds() {
        // Non-power-of-two kernel: the ring is padded, and the window must
        // stay correct long after the head wraps repeatedly.
        let kernel: Vec<f64> = (0..7).map(|k| 1.0 / (k + 1) as f64).collect();
        let trace: Vec<f64> = (0..300).map(|k| ((k * 31) % 17) as f64 - 8.0).collect();
        let batch = convolve_full(&kernel, &trace, 2.0);
        let mut conv = Convolver::new(kernel, 2.0);
        for (n, &i) in trace.iter().enumerate() {
            let v = conv.step(i);
            assert!((v - batch[n]).abs() < 1e-12, "cycle {n}");
        }
    }

    #[test]
    fn len_and_is_empty_are_consistent() {
        let conv = Convolver::new(vec![1.0, 2.0, 3.0], 1.0);
        assert_eq!(conv.len(), 3);
        assert!(!conv.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_kernel_panics() {
        let _ = Convolver::new(Vec::new(), 1.0);
    }

    #[test]
    fn lane_convolver_matches_independent_scalars() {
        let m = model();
        let kernel = kernel_for(&m, 1e-8);
        for width in [1usize, 3, 4, 8] {
            let mut lanes = LaneConvolver::new(kernel.clone(), m.v_nominal(), width);
            assert_eq!(lanes.width(), width);
            assert_eq!(lanes.taps(), kernel.len());
            let mut scalars: Vec<Convolver> = (0..width)
                .map(|_| Convolver::new(kernel.clone(), m.v_nominal()))
                .collect();
            let mut i_loads = vec![0.0; width];
            let mut out = vec![0.0; width];
            for cycle in 0..700u64 {
                for (l, slot) in i_loads.iter_mut().enumerate() {
                    *slot = ((cycle * 13 + l as u64 * 7) % 37) as f64;
                }
                lanes.step(&i_loads, &mut out);
                for (l, conv) in scalars.iter_mut().enumerate() {
                    let v = conv.step(i_loads[l]);
                    assert!(
                        (out[l] - v).abs() <= 1e-12 * v.abs().max(1.0),
                        "lane {l} cycle {cycle}: {} vs {v}",
                        out[l]
                    );
                }
            }
        }
    }

    #[test]
    fn lane_convolver_reset_clears_all_lanes() {
        let m = model();
        let kernel = kernel_for(&m, 1e-6);
        let mut lanes = LaneConvolver::new(kernel, m.v_nominal(), 4);
        let mut out = vec![0.0; 4];
        for _ in 0..50 {
            lanes.step(&[40.0, 30.0, 20.0, 10.0], &mut out);
        }
        lanes.reset();
        lanes.step(&[0.0; 4], &mut out);
        for &v in &out {
            assert!((v - m.v_nominal()).abs() < 1e-15);
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
