//! Power-delivery-network (PDN) modeling for microarchitectural dI/dt studies.
//!
//! This crate implements the linear-systems substrate of Joseph, Brooks &
//! Martonosi, *"Control Techniques to Eliminate Voltage Emergencies in High
//! Performance Processors"* (HPCA 2003): a second-order (RLC) model of a
//! microprocessor power supply network, discretized to the CPU clock so that
//! a per-cycle current trace can be turned into a per-cycle supply-voltage
//! trace.
//!
//! The central type is [`PdnModel`], which captures the DC resistance,
//! resonant frequency, and peak impedance of the network. From a model you
//! can obtain:
//!
//! * analytic frequency-domain quantities ([`PdnModel::impedance_at`],
//!   [`PdnModel::q_factor`], …),
//! * an exact zero-order-hold discretization ([`PdnModel::discretize`])
//!   yielding a streaming per-cycle simulator ([`state_space::PdnState`]),
//! * impulse/step responses and their metrics ([`response`]),
//! * a direct FIR convolution reference ([`convolve`]) that the oracle
//!   tests check the state-space path against.
//!
//! Supporting modules provide the current-waveform builders used by the
//! paper's intuition figures ([`waveform`]), supply-voltage emergency
//! detection and histograms ([`emergency`]), spectrum analysis used by the
//! dI/dt stressmark auto-tuner ([`spectrum`]), the ITRS-2001 impedance-trend
//! data behind the paper's Figure 1 ([`itrs`]), and a multi-quadrant
//! extension of the model ([`grid`]).
//!
//! # Example
//!
//! ```
//! use voltctl_pdn::{PdnModel, waveform};
//!
//! # fn main() -> Result<(), voltctl_pdn::PdnError> {
//! // A 3 GHz / 1.0 V processor package: 0.5 mOhm DC resistance,
//! // 50 MHz resonance, 2 mOhm peak impedance.
//! let model = PdnModel::builder()
//!     .r_dc(0.5e-3)
//!     .resonant_freq_hz(50.0e6)
//!     .peak_impedance(2.0e-3)
//!     .clock_hz(3.0e9)
//!     .build()?;
//!
//! // Simulate the response to a 10-cycle, 40 A current spike.
//! let trace = waveform::spike(0.0, 40.0, 20, 10, 400);
//! let mut state = model.discretize();
//! let volts: Vec<f64> = trace.iter().map(|&i| state.step(i)).collect();
//! assert!(volts.iter().cloned().fold(f64::MAX, f64::min) < model.v_nominal());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod convolve;
pub mod emergency;
pub mod grid;
pub mod itrs;
pub mod ladder;
mod mat2;
mod matn;
pub mod response;
pub mod second_order;
pub mod spectrum;
pub mod state_space;
pub mod supply;
pub mod waveform;

pub use emergency::{EmergencyReport, VoltageHistogram, VoltageMonitor};
pub use response::{FrequencyResponse, ResponseMetrics, StepResponse};
pub use second_order::{PdnError, PdnModel, PdnModelBuilder};
pub use state_space::PdnState;
pub use supply::Supply;

/// Default nominal supply voltage used throughout the paper (volts).
pub const V_NOMINAL: f64 = 1.0;

/// Default CPU clock frequency used throughout the paper (hertz).
pub const CLOCK_HZ: f64 = 3.0e9;

/// Default allowed supply deviation: +/-5% of nominal.
pub const TOLERANCE: f64 = 0.05;

/// Default package resonant frequency (hertz): mid-band 50 MHz.
pub const RESONANT_HZ: f64 = 50.0e6;

/// Default package DC resistance (ohms).
pub const R_DC: f64 = 0.5e-3;
