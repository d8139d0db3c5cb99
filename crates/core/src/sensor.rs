//! The threshold voltage sensor (§4.2).
//!
//! The paper's key implementability argument is that the controller never
//! needs a digitized voltage *value* — only which of three bands the
//! supply is in. [`ThresholdSensor`] models exactly that interface, plus
//! the two non-idealities the paper sweeps:
//!
//! * **delay** (0–6 cycles, §4.4): the reading reflects the supply as it
//!   was `delay` cycles ago (bandgap comparison / delay-line detection
//!   latency);
//! * **error** (10–25 mV, §4.5): white noise added to the compared
//!   voltage. Following the paper, users compensate by tightening the
//!   thresholds by the noise bound (see
//!   [`Thresholds::tightened`](crate::thresholds::Thresholds::tightened)).

use std::collections::VecDeque;
use voltctl_telemetry::Rng;

/// One quantized sensor output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorReading {
    /// Supply below the low threshold: undershoot danger.
    Low,
    /// Supply within the safe window.
    Normal,
    /// Supply above the high threshold: overshoot danger.
    High,
}

/// Sensor non-idealities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorConfig {
    /// Reading latency in cycles (0 = ideal).
    pub delay_cycles: u32,
    /// White-noise bound in millivolts; uniform in `[-noise, +noise]`.
    pub noise_mv: f64,
    /// RNG seed for reproducible noise.
    pub seed: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            delay_cycles: 0,
            noise_mv: 0.0,
            seed: 0x5eed,
        }
    }
}

/// The Low/Normal/High threshold sensor.
///
/// # Example
///
/// ```
/// use voltctl_core::sensor::{SensorConfig, SensorReading, ThresholdSensor};
///
/// let mut s = ThresholdSensor::new(0.96, 1.04, 1.0, SensorConfig::default());
/// assert_eq!(s.observe(1.00), SensorReading::Normal);
/// assert_eq!(s.observe(0.95), SensorReading::Low);
/// assert_eq!(s.observe(1.05), SensorReading::High);
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdSensor {
    v_low: f64,
    v_high: f64,
    pipeline: VecDeque<f64>,
    noise_v: f64,
    rng: Rng,
}

impl ThresholdSensor {
    /// Creates a sensor with the given thresholds. `v_fill` (normally the
    /// nominal voltage) pre-fills the delay pipeline so the first `delay`
    /// readings are Normal.
    ///
    /// # Panics
    ///
    /// Panics unless `v_low < v_high` and the noise bound is non-negative
    /// and finite.
    pub fn new(v_low: f64, v_high: f64, v_fill: f64, config: SensorConfig) -> ThresholdSensor {
        assert!(v_low < v_high, "need v_low < v_high");
        assert!(
            config.noise_mv.is_finite() && config.noise_mv >= 0.0,
            "noise bound must be non-negative"
        );
        let mut pipeline = VecDeque::with_capacity(config.delay_cycles as usize + 1);
        for _ in 0..config.delay_cycles {
            pipeline.push_back(v_fill);
        }
        ThresholdSensor {
            v_low,
            v_high,
            pipeline,
            noise_v: config.noise_mv / 1000.0,
            rng: Rng::new(config.seed),
        }
    }

    /// The low threshold in volts.
    pub fn v_low(&self) -> f64 {
        self.v_low
    }

    /// The high threshold in volts.
    pub fn v_high(&self) -> f64 {
        self.v_high
    }

    /// Feeds this cycle's true supply voltage; returns the (delayed,
    /// noisy) quantized reading.
    pub fn observe(&mut self, volts: f64) -> SensorReading {
        self.pipeline.push_back(volts);
        let seen = self
            .pipeline
            .pop_front()
            .expect("pipeline is never empty here");
        let noisy = if self.noise_v > 0.0 {
            seen + self.rng.range_f64(-self.noise_v, self.noise_v)
        } else {
            seen
        };
        if noisy < self.v_low {
            SensorReading::Low
        } else if noisy > self.v_high {
            SensorReading::High
        } else {
            SensorReading::Normal
        }
    }
}

impl voltctl_snap::Pack for ThresholdSensor {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_f64(self.v_low);
        w.put_f64(self.v_high);
        self.pipeline.pack(w);
        w.put_f64(self.noise_v);
        self.rng.pack(w);
    }
}

impl voltctl_snap::Unpack for ThresholdSensor {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let v_low = r.get_f64()?;
        let v_high = r.get_f64()?;
        let pipeline: VecDeque<f64> = voltctl_snap::Unpack::unpack(r)?;
        let noise_v = r.get_f64()?;
        let rng = voltctl_snap::Unpack::unpack(r)?;
        // Re-assert the constructor invariants so a decoded sensor can
        // never be in a state `new` would have panicked on.
        if v_low.is_nan() || v_high.is_nan() || v_low >= v_high {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "sensor thresholds inverted: v_low {v_low} >= v_high {v_high}"
            )));
        }
        if !noise_v.is_finite() || noise_v < 0.0 {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "sensor noise bound {noise_v} must be finite and non-negative"
            )));
        }
        Ok(ThresholdSensor {
            v_low,
            v_high,
            pipeline,
            noise_v,
            rng,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantizes_into_three_bands() {
        let mut s = ThresholdSensor::new(0.96, 1.04, 1.0, SensorConfig::default());
        assert_eq!(s.observe(0.959), SensorReading::Low);
        assert_eq!(s.observe(0.961), SensorReading::Normal);
        assert_eq!(s.observe(1.039), SensorReading::Normal);
        assert_eq!(s.observe(1.041), SensorReading::High);
    }

    #[test]
    fn delay_shifts_readings() {
        let config = SensorConfig {
            delay_cycles: 3,
            ..Default::default()
        };
        let mut s = ThresholdSensor::new(0.96, 1.04, 1.0, config);
        // Three pre-filled nominal readings come out first.
        assert_eq!(s.observe(0.90), SensorReading::Normal);
        assert_eq!(s.observe(0.90), SensorReading::Normal);
        assert_eq!(s.observe(0.90), SensorReading::Normal);
        // Now the 0.90 from 3 cycles ago arrives.
        assert_eq!(s.observe(1.0), SensorReading::Low);
    }

    #[test]
    fn zero_delay_is_immediate() {
        let mut s = ThresholdSensor::new(0.96, 1.04, 1.0, SensorConfig::default());
        assert_eq!(s.observe(0.90), SensorReading::Low);
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let config = SensorConfig {
            delay_cycles: 0,
            noise_mv: 20.0,
            seed: 42,
        };
        // At 25 mV above the threshold, 20 mV noise can never flip the
        // reading to Low.
        let mut s = ThresholdSensor::new(0.96, 1.04, 1.0, config);
        for _ in 0..1000 {
            assert_ne!(s.observe(0.985), SensorReading::Low);
        }
        // Near the threshold it sometimes does flip — and identically so
        // for an identically seeded sensor.
        let mut a = ThresholdSensor::new(0.96, 1.04, 1.0, config);
        let mut b = ThresholdSensor::new(0.96, 1.04, 1.0, config);
        let mut flipped = 0;
        for _ in 0..1000 {
            let ra = a.observe(0.965);
            let rb = b.observe(0.965);
            assert_eq!(ra, rb, "same seed ⇒ same noise");
            if ra == SensorReading::Low {
                flipped += 1;
            }
        }
        assert!(
            flipped > 0,
            "5 mV margin under 20 mV noise must flip sometimes"
        );
        assert!(flipped < 1000);
    }

    #[test]
    #[should_panic(expected = "v_low < v_high")]
    fn inverted_thresholds_rejected() {
        let _ = ThresholdSensor::new(1.04, 0.96, 1.0, SensorConfig::default());
    }

    #[test]
    fn wire_round_trip_preserves_delay_and_noise_stream() {
        use voltctl_snap::{ByteReader, ByteWriter, Pack, Unpack};
        let config = SensorConfig {
            delay_cycles: 3,
            noise_mv: 15.0,
            seed: 99,
        };
        let mut s = ThresholdSensor::new(0.96, 1.04, 1.0, config);
        for k in 0..257 {
            s.observe(0.96 + k as f64 * 1e-4);
        }
        let mut w = ByteWriter::new();
        s.pack(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut t = ThresholdSensor::unpack(&mut r).unwrap();
        assert!(r.finished());
        // The restored sensor must continue the exact same delayed,
        // noisy reading stream: pipeline contents and RNG state carry.
        for k in 0..1000u64 {
            let v = 0.95 + ((k * 37) % 100) as f64 * 1e-3;
            assert_eq!(s.observe(v), t.observe(v), "cycle {k}");
        }
    }

    #[test]
    fn wire_decode_rejects_inverted_thresholds() {
        use voltctl_snap::{ByteReader, ByteWriter, Pack, SnapError, Unpack};
        let s = ThresholdSensor::new(0.96, 1.04, 1.0, SensorConfig::default());
        let mut w = ByteWriter::new();
        s.pack(&mut w);
        let mut bytes = w.into_bytes();
        // Swap the two threshold doubles in place.
        let (low, high) = (bytes[..8].to_vec(), bytes[8..16].to_vec());
        bytes[..8].copy_from_slice(&high);
        bytes[8..16].copy_from_slice(&low);
        match ThresholdSensor::unpack(&mut ByteReader::new(&bytes)) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains("inverted"), "{msg}"),
            other => panic!("inverted thresholds must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| SensorConfig {
            delay_cycles: 0,
            noise_mv: 20.0,
            seed,
        };
        let mut a = ThresholdSensor::new(0.96, 1.04, 1.0, mk(1));
        let mut b = ThresholdSensor::new(0.96, 1.04, 1.0, mk(2));
        let mut diffs = 0;
        for _ in 0..1000 {
            if a.observe(0.965) != b.observe(0.965) {
                diffs += 1;
            }
        }
        assert!(diffs > 0);
    }
}
