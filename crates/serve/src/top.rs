//! `voltctl-serve top`: a std-only terminal dashboard over `GET
//! /metrics`.
//!
//! Each frame scrapes the daemon's Prometheus exposition, parses it
//! with the in-repo parser below (no dependencies — the same parser
//! the integration tests use to validate the exposition), and renders
//! queue depth, request latency quantiles, cache hit rates, and worker
//! occupancy. The dashboard is a pure client: it sees exactly what any
//! external scraper sees, so what `top` shows is what Prometheus would
//! ingest.
//!
//! Latency quantiles are recovered from the cumulative `_bucket{le=…}`
//! lines the server emits. Buckets from different routes share the
//! histogram's deterministic bounds, so summing cumulative counts per
//! `le` across routes yields the all-routes distribution exactly.

use crate::client::request;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

/// One parsed sample line: family name, labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition: every sample plus the set of `# TYPE`-declared
/// family names.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    pub samples: Vec<Sample>,
    /// family name -> declared type ("counter", "gauge", "histogram").
    pub families: BTreeMap<String, String>,
}

impl Exposition {
    /// Sums every sample of `name` whose labels satisfy `pred`.
    pub fn sum(&self, name: &str, pred: impl Fn(&Sample) -> bool) -> f64 {
        // The empty f64 sum is -0.0, which `{:.0}` renders as "-0";
        // adding +0.0 normalizes the sign without changing any total.
        self.samples
            .iter()
            .filter(|s| s.name == name && pred(s))
            .map(|s| s.value)
            .sum::<f64>()
            + 0.0
    }

    /// The single value of `name` (first match), if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    /// An upper bound for quantile `q` of histogram `name`, aggregated
    /// across all label sets, from the cumulative `_bucket` samples.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        let bucket = format!("{name}_bucket");
        // le -> summed cumulative count across label sets.
        let mut by_le: BTreeMap<u64, f64> = BTreeMap::new();
        let mut inf = 0.0f64;
        for s in self.samples.iter().filter(|s| s.name == bucket) {
            match s.label("le") {
                Some("+Inf") => inf += s.value,
                Some(le) => {
                    let le: f64 = le.parse().ok()?;
                    *by_le.entry(le as u64).or_insert(0.0) += s.value;
                }
                None => {}
            }
        }
        let total = inf;
        if total <= 0.0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total).ceil().max(1.0);
        for (le, cum) in &by_le {
            if *cum >= rank {
                return Some(*le as f64);
            }
        }
        // Rank falls in the +Inf bucket: report the largest finite bound.
        by_le.keys().next_back().map(|le| *le as f64)
    }
}

/// Parses a Prometheus text-format 0.0.4 exposition.
///
/// # Errors
///
/// A human-readable reason naming the first malformed line. Unknown
/// comment directives are skipped; every sample line must be
/// `name[{labels}] value`.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut out = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            if let (Some(name), Some(kind)) = (parts.next(), parts.next()) {
                out.families.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let sample =
            parse_sample(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?;
        out.samples.push(sample);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (head, value) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or("unterminated label set")?;
            (
                (&line[..open], parse_labels(&line[open + 1..close])?),
                line[close + 1..].trim(),
            )
        }
        None => {
            let (name, value) = line
                .rsplit_once(char::is_whitespace)
                .ok_or("sample has no value")?;
            ((name, Vec::new()), value)
        }
    };
    let value: f64 = value
        .parse()
        .map_err(|_| format!("value {value:?} is not a number"))?;
    Ok(Sample {
        name: head.0.trim().to_string(),
        labels: head.1,
        value,
    })
}

fn parse_labels(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = raw.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        let inner = after.strip_prefix('"').ok_or("label value not quoted")?;
        // Scan to the closing quote honoring backslash escapes.
        let mut value = String::new();
        let mut chars = inner.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return Err("dangling escape in label value".into()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        labels.push((key, value));
        rest = inner[end + 1..].trim_start().trim_start_matches(',');
        rest = rest.trim_start();
    }
    Ok(labels)
}

/// Dashboard options.
#[derive(Debug, Clone)]
pub struct TopOpts {
    /// The daemon to scrape.
    pub addr: SocketAddr,
    /// Delay between frames.
    pub interval: Duration,
    /// Frames to render; 0 means until the scrape fails (daemon gone).
    pub frames: usize,
    /// Clear the terminal between frames (off when piping to a file).
    pub clear: bool,
}

impl Default for TopOpts {
    fn default() -> TopOpts {
        TopOpts {
            addr: "127.0.0.1:7643".parse().expect("static addr"),
            interval: Duration::from_millis(1000),
            frames: 0,
            clear: true,
        }
    }
}

fn fmt_ms(ns: Option<f64>) -> String {
    match ns {
        Some(ns) => format!("{:.2}ms", ns / 1e6),
        None => "-".to_string(),
    }
}

fn hit_rate(exp: &Exposition, cache: &str) -> String {
    let hits = exp.sum("voltctl_cache_hits_total", |s| {
        s.label("cache") == Some(cache)
    });
    let misses = exp.sum("voltctl_cache_misses_total", |s| {
        s.label("cache") == Some(cache)
    });
    if hits + misses <= 0.0 {
        "-".to_string()
    } else {
        format!("{:.0}%", 100.0 * hits / (hits + misses))
    }
}

/// Renders one dashboard frame from a parsed exposition.
pub fn render_frame(exp: &Exposition, addr: &SocketAddr) -> String {
    let mut out = String::new();
    let requests = exp.sum("voltctl_http_requests_total", |_| true);
    let errors = exp.sum("voltctl_http_requests_total", |s| {
        s.label("status")
            .map(|v| !v.starts_with('2'))
            .unwrap_or(false)
    });
    out.push_str(&format!(
        "voltctl-serve top — {addr}\n\
         \n\
         requests  total {requests:>8.0}   non-2xx {errors:>6.0}   \
         p50 {p50}   p99 {p99}\n",
        p50 = fmt_ms(exp.histogram_quantile("voltctl_http_request_duration_ns", 0.50)),
        p99 = fmt_ms(exp.histogram_quantile("voltctl_http_request_duration_ns", 0.99)),
    ));
    out.push_str(&format!(
        "queue     depth {depth:>8.0}   max {max:>10.0}   \
         bound {bound:>5.0}   wait p99 {wait}\n",
        depth = exp.value("voltctl_serve_queue_depth").unwrap_or(0.0),
        max = exp.value("voltctl_serve_queue_depth_max").unwrap_or(0.0),
        bound = exp.value("voltctl_serve_queue_bound").unwrap_or(0.0),
        wait = fmt_ms(exp.histogram_quantile("voltctl_serve_queue_wait_ns", 0.99)),
    ));
    let workers = exp.value("voltctl_serve_workers").unwrap_or(0.0);
    let busy = exp.value("voltctl_serve_workers_busy").unwrap_or(0.0);
    let occupancy = if workers > 0.0 {
        format!("{:.0}%", 100.0 * busy / workers)
    } else {
        "-".to_string()
    };
    out.push_str(&format!(
        "workers   busy {busy:>9.0} / {workers:.0}   occupancy {occupancy:>4}   \
         run p99 {run}\n",
        run = fmt_ms(exp.histogram_quantile("voltctl_serve_job_run_ns", 0.99)),
    ));
    let state = |s: &str| exp.sum("voltctl_serve_jobs", |x| x.label("state") == Some(s));
    out.push_str(&format!(
        "jobs      queued {:>7.0}   running {:>6.0}   done {:>6.0}   \
         failed {:>4.0}   cancelled {:>4.0}\n",
        state("queued"),
        state("running"),
        state("done"),
        state("failed"),
        state("cancelled"),
    ));
    out.push_str(&format!(
        "caches    solve hit {solve:>6}\n",
        solve = hit_rate(exp, "solve"),
    ));
    out
}

/// Runs the dashboard loop: scrape, render, sleep.
///
/// # Errors
///
/// The first scrape must succeed (otherwise the daemon address is
/// wrong and the error says so); later scrape failures end the loop
/// quietly when `frames == 0` (daemon shut down) and error otherwise.
pub fn run_top(opts: &TopOpts) -> Result<(), String> {
    let mut rendered = 0usize;
    loop {
        let scrape = request(opts.addr, "GET", "/metrics", None);
        let resp = match scrape {
            Ok(resp) if resp.status == 200 => resp,
            Ok(resp) => return Err(format!("GET /metrics returned {}", resp.status)),
            Err(e) if rendered == 0 => {
                return Err(format!("cannot scrape {}: {e}", opts.addr));
            }
            Err(_) => return Ok(()), // daemon went away mid-watch
        };
        let exp = parse_exposition(&resp.text())
            .map_err(|e| format!("malformed exposition from {}: {e}", opts.addr))?;
        if opts.clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_frame(&exp, &opts.addr));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        rendered += 1;
        if opts.frames != 0 && rendered >= opts.frames {
            return Ok(());
        }
        std::thread::sleep(opts.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP voltctl_http_requests_total HTTP requests served\n\
# TYPE voltctl_http_requests_total counter\n\
voltctl_http_requests_total{route=\"/healthz\",status=\"200\"} 10\n\
voltctl_http_requests_total{route=\"/jobs\",status=\"429\"} 2\n\
# TYPE voltctl_http_request_duration_ns histogram\n\
voltctl_http_request_duration_ns_bucket{le=\"1024\",route=\"/healthz\"} 6\n\
voltctl_http_request_duration_ns_bucket{le=\"4096\",route=\"/healthz\"} 10\n\
voltctl_http_request_duration_ns_bucket{le=\"+Inf\",route=\"/healthz\"} 10\n\
voltctl_http_request_duration_ns_sum{route=\"/healthz\"} 12345\n\
voltctl_http_request_duration_ns_count{route=\"/healthz\"} 10\n\
# TYPE voltctl_serve_queue_depth gauge\n\
voltctl_serve_queue_depth 3\n";

    #[test]
    fn parses_samples_labels_and_families() {
        let exp = parse_exposition(SAMPLE).unwrap();
        assert_eq!(
            exp.families
                .get("voltctl_http_requests_total")
                .map(String::as_str),
            Some("counter")
        );
        assert_eq!(exp.sum("voltctl_http_requests_total", |_| true), 12.0);
        assert_eq!(
            exp.sum("voltctl_http_requests_total", |s| s.label("status")
                == Some("429")),
            2.0
        );
        assert_eq!(exp.value("voltctl_serve_queue_depth"), Some(3.0));
    }

    #[test]
    fn quantiles_come_from_cumulative_buckets() {
        let exp = parse_exposition(SAMPLE).unwrap();
        // rank(p50) = 5 of 10 -> first bucket (le 1024); p99 -> le 4096.
        assert_eq!(
            exp.histogram_quantile("voltctl_http_request_duration_ns", 0.50),
            Some(1024.0)
        );
        assert_eq!(
            exp.histogram_quantile("voltctl_http_request_duration_ns", 0.99),
            Some(4096.0)
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_exposition("metric_without_value\n").is_err());
        assert!(parse_exposition("m{le=\"unterminated} 1\n").is_err());
        assert!(parse_exposition("m{le=nope} 1\n").is_err());
    }

    #[test]
    fn frame_renders_every_section() {
        let exp = parse_exposition(SAMPLE).unwrap();
        let frame = render_frame(&exp, &"127.0.0.1:7643".parse().unwrap());
        for needle in ["requests", "queue", "workers", "jobs", "caches"] {
            assert!(frame.contains(needle), "missing {needle}:\n{frame}");
        }
    }
}
