//! The threshold control policy (§4.1).
//!
//! The controller maps sensor readings to actuation commands: while the
//! sensed supply is **Low**, reduce current (gate the controlled units);
//! while it is **High**, increase current (phantom-fire them); otherwise
//! run normally. Recovery is implicit — the command is withdrawn the
//! moment the sensed voltage re-enters the safe window, exactly the
//! "deactivates all of the controlled units until the voltage level is
//! above the threshold again" policy of §5.1.

use crate::sensor::SensorReading;

/// The actuation command for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlAction {
    /// Run normally.
    None,
    /// Gate the controlled units to cut current (undershoot response).
    ReduceCurrent,
    /// Phantom-fire the controlled units to add current (overshoot
    /// response).
    IncreaseCurrent,
}

/// The threshold controller FSM, with activation statistics.
#[derive(Debug, Clone, Default)]
pub struct ThresholdController {
    last: Option<ControlAction>,
    reduce_cycles: u64,
    increase_cycles: u64,
    reduce_events: u64,
    increase_events: u64,
}

impl ThresholdController {
    /// Creates an idle controller.
    pub fn new() -> ThresholdController {
        ThresholdController::default()
    }

    /// Consumes one sensor reading, returns this cycle's command.
    pub fn decide(&mut self, reading: SensorReading) -> ControlAction {
        let action = match reading {
            SensorReading::Low => ControlAction::ReduceCurrent,
            SensorReading::High => ControlAction::IncreaseCurrent,
            SensorReading::Normal => ControlAction::None,
        };
        match action {
            ControlAction::ReduceCurrent => {
                self.reduce_cycles += 1;
                if self.last != Some(ControlAction::ReduceCurrent) {
                    self.reduce_events += 1;
                }
            }
            ControlAction::IncreaseCurrent => {
                self.increase_cycles += 1;
                if self.last != Some(ControlAction::IncreaseCurrent) {
                    self.increase_events += 1;
                }
            }
            ControlAction::None => {}
        }
        self.last = Some(action);
        action
    }

    /// Cycles spent commanding current reduction.
    pub fn reduce_cycles(&self) -> u64 {
        self.reduce_cycles
    }

    /// Cycles spent commanding current increase (phantom firing).
    pub fn increase_cycles(&self) -> u64 {
        self.increase_cycles
    }

    /// Distinct undershoot interventions.
    pub fn reduce_events(&self) -> u64 {
        self.reduce_events
    }

    /// Distinct overshoot interventions.
    pub fn increase_events(&self) -> u64 {
        self.increase_events
    }

    /// Whether the controller ever intervened.
    pub fn intervened(&self) -> bool {
        self.reduce_cycles + self.increase_cycles > 0
    }
}

impl voltctl_snap::Pack for ControlAction {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_u8(match self {
            ControlAction::None => 0,
            ControlAction::ReduceCurrent => 1,
            ControlAction::IncreaseCurrent => 2,
        });
    }
}

impl voltctl_snap::Unpack for ControlAction {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        match r.get_u8()? {
            0 => Ok(ControlAction::None),
            1 => Ok(ControlAction::ReduceCurrent),
            2 => Ok(ControlAction::IncreaseCurrent),
            k => Err(voltctl_snap::SnapError::Corrupt(format!(
                "invalid control action tag {k}"
            ))),
        }
    }
}

impl voltctl_snap::Pack for ThresholdController {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        self.last.pack(w);
        w.put_u64(self.reduce_cycles);
        w.put_u64(self.increase_cycles);
        w.put_u64(self.reduce_events);
        w.put_u64(self.increase_events);
    }
}

impl voltctl_snap::Unpack for ThresholdController {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let last = voltctl_snap::Unpack::unpack(r)?;
        let reduce_cycles = r.get_u64()?;
        let increase_cycles = r.get_u64()?;
        let reduce_events = r.get_u64()?;
        let increase_events = r.get_u64()?;
        // Every distinct intervention spans at least one cycle.
        if reduce_events > reduce_cycles || increase_events > increase_cycles {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "controller event counts exceed cycle counts: \
                 {reduce_events}/{reduce_cycles} reduce, \
                 {increase_events}/{increase_cycles} increase"
            )));
        }
        Ok(ThresholdController {
            last,
            reduce_cycles,
            increase_cycles,
            reduce_events,
            increase_events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_readings_to_actions() {
        let mut c = ThresholdController::new();
        assert_eq!(c.decide(SensorReading::Normal), ControlAction::None);
        assert_eq!(c.decide(SensorReading::Low), ControlAction::ReduceCurrent);
        assert_eq!(
            c.decide(SensorReading::High),
            ControlAction::IncreaseCurrent
        );
    }

    #[test]
    fn recovery_is_immediate() {
        let mut c = ThresholdController::new();
        c.decide(SensorReading::Low);
        assert_eq!(c.decide(SensorReading::Normal), ControlAction::None);
    }

    #[test]
    fn events_count_transitions_cycles_count_duration() {
        let mut c = ThresholdController::new();
        for r in [
            SensorReading::Low,
            SensorReading::Low,
            SensorReading::Normal,
            SensorReading::Low,
            SensorReading::High,
            SensorReading::High,
        ] {
            c.decide(r);
        }
        assert_eq!(c.reduce_events(), 2);
        assert_eq!(c.reduce_cycles(), 3);
        assert_eq!(c.increase_events(), 1);
        assert_eq!(c.increase_cycles(), 2);
        assert!(c.intervened());
    }

    #[test]
    fn idle_controller_never_intervened() {
        let mut c = ThresholdController::new();
        for _ in 0..10 {
            c.decide(SensorReading::Normal);
        }
        assert!(!c.intervened());
    }
}
