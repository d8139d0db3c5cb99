//! Chrome trace-event JSON export (Perfetto-loadable).
//!
//! One process per grid cell (`pid` = grid index), with counter tracks
//! for voltage, current, sensed band, and actuator duty, plus instant
//! events marking emergency crossings and controller interventions.
//! Timestamps are *simulated cycles* (1 cycle rendered as 1 µs of trace
//! time) — never wall clock — so the export is byte-identical across
//! `--jobs` splits and machines.
//!
//! Counter samples are emitted only over the union of capture windows:
//! the flight-recorder contract is "the story around each emergency", so
//! a million-cycle run exports kilobytes, not gigabytes. Overlapping
//! pre-windows (crossings closer than W cycles) are deduplicated so the
//! `ts` sequence of every counter track is strictly increasing —
//! property-tested via the `voltctl-telemetry` JSON reader.

use std::fmt::Write as _;

use crate::flight::{CellTrace, MergedTrace};
use crate::record::events;
use voltctl_telemetry::export::json_escape;

/// JSON number rendering; non-finite values (which the simulator should
/// never produce) degrade to `0` so the artifact always parses.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn push_cell_events(out: &mut Vec<String>, pid: usize, cell: &CellTrace) {
    out.push(format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"ts\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"cell {pid}: {}\"}}}}",
        json_escape(&cell.label)
    ));

    // Counter tracks over the union of capture windows, deduplicating
    // overlap so each track's ts is strictly increasing.
    let mut last_emitted: Option<u64> = None;
    for cap in &cell.captures {
        for r in &cap.records {
            if last_emitted.is_some_and(|t| r.cycle <= t) {
                continue;
            }
            last_emitted = Some(r.cycle);
            let ts = r.cycle;
            out.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"name\":\"voltage_v\",\
                 \"args\":{{\"v\":{}}}}}",
                num(r.voltage)
            ));
            out.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"name\":\"current_a\",\
                 \"args\":{{\"a\":{}}}}}",
                num(r.current)
            ));
            out.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"name\":\"sensor_band\",\
                 \"args\":{{\"band\":{}}}}}",
                r.sensor.code()
            ));
            let gating = u8::from(r.events & events::GATING != 0);
            let phantom = u8::from(r.events & events::PHANTOM != 0);
            out.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"name\":\"actuator_duty\",\
                 \"args\":{{\"gating\":{gating},\"phantom\":{phantom}}}}}"
            ));
        }
    }

    // Instant events: emergencies (process-scoped) and interventions
    // (thread-scoped), both already in increasing cycle order.
    for cap in &cell.captures {
        out.push(format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"s\":\"p\",\
             \"name\":\"emergency:{}\"}}",
            cap.crossing_cycle,
            cap.kind.name()
        ));
    }
    for &cycle in &cell.interventions {
        out.push(format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"ts\":{cycle},\"s\":\"t\",\
             \"name\":\"intervention\"}}"
        ));
    }
}

/// Renders the merged trace as a Chrome trace-event JSON document.
///
/// Load it at <https://ui.perfetto.dev> (or `chrome://tracing`); `run` is
/// recorded in `otherData.run` for provenance.
pub fn to_chrome_trace(run: &str, merged: &MergedTrace) -> String {
    let mut events: Vec<String> = Vec::new();
    for (pid, cell) in merged.cells.iter().enumerate() {
        push_cell_events(&mut events, pid, cell);
    }
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "\"displayTimeUnit\":\"ms\",");
    let _ = writeln!(
        s,
        "\"otherData\":{{\"generator\":\"voltctl-trace\",\"run\":\"{}\",\"ts_unit\":\"cycle\"}},",
        json_escape(run)
    );
    let _ = writeln!(s, "\"traceEvents\":[");
    for (k, e) in events.iter().enumerate() {
        let comma = if k + 1 < events.len() { "," } else { "" };
        let _ = writeln!(s, "{e}{comma}");
    }
    let _ = writeln!(s, "]");
    let _ = write!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightRecorder;
    use crate::record::{CycleRecord, SupplyBand};
    use crate::tracer::Tracer;

    fn traced_cell(label: &str) -> CellTrace {
        let mut fr = FlightRecorder::new(4);
        for k in 0..20u64 {
            fr.cycle(CycleRecord {
                cycle: k,
                current: 10.0 + k as f64,
                voltage: 1.0,
                supply: if k == 8 {
                    SupplyBand::Under
                } else {
                    SupplyBand::Safe
                },
                events: if k == 3 { events::GATE_FU } else { 0 },
                ..CycleRecord::default()
            });
        }
        fr.to_cell(label)
    }

    #[test]
    fn export_has_all_tracks_and_instants() {
        let mut merged = MergedTrace::new();
        merged.push(traced_cell("stress \"quoted\""));
        let json = to_chrome_trace("unit", &merged);
        for needle in [
            "\"traceEvents\":[",
            "\"process_name\"",
            "\"voltage_v\"",
            "\"current_a\"",
            "\"sensor_band\"",
            "\"actuator_duty\"",
            "\"emergency:under\"",
            "\"intervention\"",
            "stress \\\"quoted\\\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces/brackets (cheap well-formedness probe; the
        // round-trip property test does the real parse).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn empty_trace_is_still_valid_json_shape() {
        let json = to_chrome_trace("empty", &MergedTrace::new());
        assert!(json.contains("\"traceEvents\":[\n]"));
    }

    #[test]
    fn non_finite_numbers_degrade_to_zero() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(1.5), "1.5");
    }
}
