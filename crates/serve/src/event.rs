//! The daemon's structured event log.
//!
//! One JSONL line per meaningful state transition — HTTP request
//! served, job queued/running/shard-completed/terminal, daemon
//! lifecycle — appended to `<root>/events.jsonl`. Every line carries a
//! timestamp, a level, an event name, and (for anything tied to a
//! request) the request id assigned at HTTP accept, so one job's whole
//! lifecycle is grep-able end to end:
//!
//! ```text
//! grep '"req":"r17"' events.jsonl
//! {"ts_ms":…,"level":"debug","event":"http.request","req":"r17",…}
//! {"ts_ms":…,"level":"debug","event":"job.queued","req":"r17","job":9}
//! {"ts_ms":…,"level":"debug","event":"job.shard","req":"r17","job":9,…}
//! {"ts_ms":…,"level":"debug","event":"job.done","req":"r17","job":9,…}
//! ```
//!
//! # Two sinks, two formats
//!
//! The JSONL file gets *everything* (including per-request `debug`
//! lines); stderr stays human-readable and low-volume — only
//! `info`-and-up lines are mirrored there, in the workspace's
//! established `voltctl-serve[level] event key=value` shape. This is
//! what replaced the daemon's ad-hoc `eprintln!`/`println!` startup and
//! error lines: same channel, one consistent format.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};
use voltctl_telemetry::json::escape;

/// Event severity. `Debug` is file-only; `Info` and up also mirror to
/// stderr in human-readable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventLevel {
    /// High-volume per-request/per-job transitions (file only).
    Debug,
    /// Daemon lifecycle (listening, shutdown).
    Info,
    /// Degraded-but-running conditions (checkpoint write failed, …).
    Warn,
    /// Failures worth an operator's attention.
    Error,
}

impl EventLevel {
    /// The wire name of this level.
    pub fn name(self) -> &'static str {
        match self {
            EventLevel::Debug => "debug",
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
            EventLevel::Error => "error",
        }
    }
}

/// One typed field value on an event line.
#[derive(Debug, Clone)]
pub enum F {
    /// A JSON string (escaped on render).
    S(String),
    /// An unsigned integer.
    U(u64),
    /// A float (rendered as JSON number; non-finite becomes `null`).
    N(f64),
    /// A boolean.
    B(bool),
}

impl F {
    /// A string field.
    pub fn s(v: impl Into<String>) -> F {
        F::S(v.into())
    }

    fn render(&self) -> String {
        match self {
            F::S(v) => escape(v),
            F::U(v) => format!("{v}"),
            F::N(v) if v.is_finite() => format!("{v}"),
            F::N(_) => "null".to_string(),
            F::B(v) => format!("{v}"),
        }
    }

    /// The human-readable (stderr) form: like JSON but without quotes
    /// around simple strings.
    fn render_human(&self) -> String {
        match self {
            F::S(v) if !v.contains(|c: char| c.is_whitespace() || c == '"') => v.clone(),
            other => other.render(),
        }
    }
}

/// Milliseconds since the Unix epoch (wall clock; events are for
/// operators, so they get real timestamps, not cycle counts).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The structured event sink shared by the accept loop, the job table,
/// and the workers.
#[derive(Debug)]
pub struct EventLog {
    file: Mutex<Option<BufWriter<File>>>,
    path: Option<PathBuf>,
    /// Minimum level mirrored to stderr (`Info` for the daemon; tests
    /// raise it to keep output quiet).
    stderr_level: EventLevel,
}

impl EventLog {
    /// An event log appending to `dir/events.jsonl`. Falls back to a
    /// stderr-only log (with a warning) if the file cannot be opened —
    /// observability must never take the daemon down.
    pub fn open(dir: &Path) -> EventLog {
        let path = dir.join("events.jsonl");
        match OpenOptions::new().create(true).append(true).open(&path) {
            Ok(file) => EventLog {
                file: Mutex::new(Some(BufWriter::new(file))),
                path: Some(path),
                stderr_level: EventLevel::Info,
            },
            Err(e) => {
                eprintln!(
                    "voltctl-serve[warn] eventlog.open_failed path={} error={e}",
                    path.display()
                );
                EventLog::stderr_only()
            }
        }
    }

    /// A log with no file sink: `Info`-and-up still reach stderr.
    pub fn stderr_only() -> EventLog {
        EventLog {
            file: Mutex::new(None),
            path: None,
            stderr_level: EventLevel::Info,
        }
    }

    /// A log that writes nowhere (unit tests).
    pub fn disabled() -> EventLog {
        EventLog {
            file: Mutex::new(None),
            path: None,
            stderr_level: EventLevel::Error,
        }
    }

    /// Where the JSONL file lives, if one is open.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Appends one event line. `fields` render in the given order after
    /// the standard `ts_ms`/`level`/`event` prefix.
    pub fn emit(&self, level: EventLevel, event: &str, fields: &[(&str, F)]) {
        let mut line = format!(
            "{{\"ts_ms\":{},\"level\":\"{}\",\"event\":{}",
            now_ms(),
            level.name(),
            escape(event)
        );
        for (key, value) in fields {
            line.push_str(&format!(",{}:{}", escape(key), value.render()));
        }
        line.push('}');

        {
            let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(w) = file.as_mut() {
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
        }
        if level >= self.stderr_level {
            let mut human = format!("voltctl-serve[{}] {event}", level.name());
            for (key, value) in fields {
                human.push_str(&format!(" {key}={}", value.render_human()));
            }
            eprintln!("{human}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltctl_telemetry::Json;

    #[test]
    fn emits_parseable_jsonl_with_ordered_fields() {
        let dir = std::env::temp_dir().join(format!("voltctl-eventlog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log = EventLog::open(&dir);
        log.emit(
            EventLevel::Debug,
            "job.queued",
            &[
                ("req", F::s("r1")),
                ("job", F::U(7)),
                ("ratio", F::N(0.5)),
                ("resumed", F::B(false)),
                ("nan", F::N(f64::NAN)),
            ],
        );
        let text = std::fs::read_to_string(log.path().unwrap()).unwrap();
        let line = text.lines().next().unwrap();
        let json = Json::parse(line).expect("event line must be valid JSON");
        assert_eq!(json.get("event").and_then(Json::as_str), Some("job.queued"));
        assert_eq!(json.get("req").and_then(Json::as_str), Some("r1"));
        assert_eq!(json.get("job").and_then(Json::as_f64), Some(7.0));
        assert_eq!(json.get("ratio").and_then(Json::as_f64), Some(0.5));
        assert_eq!(json.get("resumed").and_then(Json::as_bool), Some(false));
        assert!(json.get("nan").map(Json::is_null).unwrap_or(false));
        assert!(json.get("ts_ms").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_log_is_silent_and_pathless() {
        let log = EventLog::disabled();
        assert!(log.path().is_none());
        log.emit(EventLevel::Info, "noop", &[]);
    }
}
