//! Spans recorded from the benchmark's side of each call into the
//! program: name, start, end, the span that caused it, and the id of
//! the request or cell it belongs to. Spans stay in memory until the
//! run ends, when they are written out and self time is derived.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The request or cell the span belongs to (0 = the run itself).
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; close it with [`Recorder::close`].
#[derive(Debug)]
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    group: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: Option<&Open>, group: u64) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(Open::id),
            group,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            group: open.group,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        let dur = span.dur_ns();
        self.spans.lock().expect("span list poisoned").push(span);
        dur
    }

    /// Records a span of `dur_ns` that ends now, for callers that learn
    /// a duration only when it is over.
    pub fn record_ended(&self, name: &'static str, parent: Option<&Open>, group: u64, dur_ns: u64) {
        let end_ns = self.now_ns();
        let span = Span {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(Open::id),
            group,
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, group);
        let out = f();
        self.close(open);
        out
    }

    /// Every closed span, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per span id, its duration minus the part of its interval that its
/// children cover (overlapping children count once; children are
/// clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Total and self nanoseconds per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_ns();
        e.1 += selfs[&s.id];
    }
    out
}

/// One line listing total and self milliseconds per span name.
pub fn self_time_line(named: &BTreeMap<&'static str, (u64, u64)>) -> String {
    let fields: Vec<String> = named
        .iter()
        .map(|(name, (total, own))| {
            format!("\"{name}\":[{},{}]", *total as f64 / 1e6, *own as f64 / 1e6)
        })
        .collect();
    format!("span_ms_total_self {{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,60); grandchild
        // [12,20) inside the first child.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
            span(4, Some(2), 12, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 12);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 8);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two worker spans overlap in [20,40); one runs past the parent.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&4], 40);
    }

    #[test]
    fn recorder_nests_and_aggregates_by_name() {
        let rec = Recorder::new();
        let outer = rec.open("outer", None, 7);
        rec.time("inner", Some(&outer), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_ns = rec.close(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(
            inner.parent,
            Some(spans.iter().find(|s| s.name == "outer").unwrap().id)
        );
        assert_eq!(inner.group, 7);
        let names = by_name(&spans);
        assert_eq!(names["outer"].0, outer_ns);
        assert_eq!(names["outer"].1, outer_ns - inner.dur_ns());
        assert!(names["inner"].1 >= 2_000_000);
    }
}
