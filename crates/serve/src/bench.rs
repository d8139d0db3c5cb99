//! The `voltctl-serve bench` load generator.
//!
//! A closed-loop client: `connections` threads each submit a job, wait
//! for it over the JSONL stream, fetch the report, and immediately move
//! to the next request from a seeded scenario mix. The same mix then
//! runs through the batch engine in-process at the same parallelism
//! (N threads × `run_scenario(…, jobs=1)` — exactly the daemon's worker
//! shape minus HTTP, queueing, and streaming), so the suite's
//! `serve_vs_batch_ratio` isolates pure service overhead over identical
//! work. The acceptance gate is ≥ 0.9 (service overhead ≤ 10%) at full
//! scale; smoke runs gate only on zero failed requests and the presence
//! of latency percentiles (smoke jobs are too short for the ratio to
//! mean anything — HTTP round-trips dominate microsecond simulations).
//!
//! The artifact is `BENCH_serve.json` (schema 7, shared with the other
//! bench suites): a `serve` and a `batch` point whose `cycles` count
//! grid cells completed — a work proxy that is identical on both sides
//! by construction, making the aggregate cycles/sec ratio equal the
//! wall-clock ratio — plus latency percentiles (p50/p90/p99/p999) in
//! the summary.
//! Baselines are regenerate-in-place under `results/perf/`, with
//! provenance in `manifest_serve.json` (a separate file so the batch
//! bench's `manifest.json` survives).

use crate::client::request;
use crate::server::{spawn, ServeConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use voltctl_exp::bench::DEFAULT_PERF_DIR;
use voltctl_exp::{find, run_scenario, BenchPoint, BenchSuite, Ctx};
use voltctl_telemetry::Json;
use voltctl_telemetry::Rng;

/// The seeded request mix: a spread of instant analytic scenarios and
/// seconds-class control-loop scenarios, so full-scale runs are
/// dominated by engine work (the regime the overhead gate is about)
/// while smoke runs still cover many distinct request shapes.
pub const MIX: &[&str] = &[
    "fig01_itrs",
    "fig02_response",
    "fig03_narrow_spike",
    "fig04_wide_spike",
    "fig05_notched_spike",
    "fig06_resonant_train",
    "table3_thresholds",
    "ablation_grid",
    "fig08_stressmark",
    "fig09_stressmark_vs_worst",
    "fig11_controller_trace",
];

/// Load-generator options.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Daemon to drive; `None` spawns one in-process (workers =
    /// `connections`) against a temp root.
    pub addr: Option<SocketAddr>,
    /// Smoke budgets (CI plumbing): tiny jobs, no overhead-ratio gate.
    pub smoke: bool,
    /// Artifact directory (`results/perf` by default).
    pub out: PathBuf,
    /// Total requests to issue.
    pub requests: usize,
    /// Concurrent closed-loop client connections (and, for an
    /// in-process daemon, its worker count).
    pub connections: usize,
    /// Mix seed: request `i` runs `MIX[Rng::new(seed + i).next_u64() % MIX.len()]`.
    pub seed: u64,
}

impl Default for BenchOpts {
    fn default() -> BenchOpts {
        BenchOpts {
            addr: None,
            smoke: false,
            out: PathBuf::from(DEFAULT_PERF_DIR),
            requests: 24,
            connections: 4,
            seed: 0x5EED_C0DE,
        }
    }
}

/// What a bench run produced, for callers that gate on it.
#[derive(Debug)]
pub struct BenchReport {
    /// The rendered suite (also written to `BENCH_serve.json`).
    pub suite: BenchSuite,
    /// Requests that did not complete with a 200 report.
    pub failed: u64,
    /// 429 rejections absorbed by retry (not failures).
    pub retries: u64,
    /// Files written.
    pub paths: Vec<PathBuf>,
}

/// The scenario for request `i` under `seed`.
pub fn mixed_scenario(seed: u64, i: usize) -> &'static str {
    let roll = Rng::new(seed.wrapping_add(i as u64)).next_u64();
    MIX[(roll % MIX.len() as u64) as usize]
}

fn percentile(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6 // ms
}

fn submit_body(scenario: &str, smoke: bool) -> Vec<u8> {
    // Checkpoints off: repeated identical requests must measure real
    // work, not checkpoint reads. One shard: the batch side has no
    // per-shard seams either.
    format!("{{\"scenario\":\"{scenario}\",\"smoke\":{smoke},\"shards\":1,\"checkpoints\":false}}")
        .into_bytes()
}

/// One closed-loop request: submit (retrying 429s), stream to terminal,
/// fetch the report. Returns the latency on success.
fn drive_request(
    addr: SocketAddr,
    scenario: &str,
    smoke: bool,
    retries: &AtomicU64,
) -> Result<Duration, String> {
    let body = submit_body(scenario, smoke);
    let started = Instant::now();
    let id = loop {
        let resp = request(addr, "POST", "/jobs", Some(&body))
            .map_err(|e| format!("submit failed: {e}"))?;
        match resp.status {
            202 => {
                let json = Json::parse(&resp.text())
                    .map_err(|e| format!("submit response unparseable: {e}"))?;
                break json
                    .get("id")
                    .and_then(Json::as_f64)
                    .ok_or("submit response has no id")? as u64;
            }
            429 => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
            other => return Err(format!("submit got {other}: {}", resp.text())),
        }
    };
    let stream = request(addr, "GET", &format!("/jobs/{id}/stream"), None)
        .map_err(|e| format!("stream failed: {e}"))?;
    if stream.status != 200 {
        return Err(format!("stream got {}", stream.status));
    }
    let events = stream.text();
    if !events.contains("\"event\":\"done\"") {
        return Err(format!("job {id} did not finish: {events}"));
    }
    let elapsed = started.elapsed();
    let report = request(addr, "GET", &format!("/jobs/{id}/report"), None)
        .map_err(|e| format!("report fetch failed: {e}"))?;
    if report.status != 200 || report.body.is_empty() {
        return Err(format!(
            "report got {} ({} bytes)",
            report.status,
            report.body.len()
        ));
    }
    Ok(elapsed)
}

/// Fans `opts.requests` indices over `opts.connections` threads,
/// running `work(i)` closed-loop.
fn closed_loop(requests: usize, connections: usize, work: impl Fn(usize) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..connections.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    return;
                }
                work(i);
            });
        }
    });
}

/// Runs the load generator, writes `BENCH_serve.json` +
/// `manifest_serve.json`, and applies the gates: zero failed requests
/// always; `serve_vs_batch_ratio >= 0.9` at full scale.
///
/// # Errors
///
/// Gate violations and I/O failures, with the suite already written so
/// CI can upload it for diagnosis.
pub fn run_bench(opts: &BenchOpts) -> Result<BenchReport, String> {
    let started = Instant::now();
    let connections = opts.connections.max(1);
    let requests = opts.requests.max(1);

    // Spawn an in-process daemon unless pointed at a live one.
    let mut local = None;
    let addr = match opts.addr {
        Some(addr) => addr,
        None => {
            let root =
                std::env::temp_dir().join(format!("voltctl-serve-bench-{}", std::process::id()));
            let handle = spawn(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: connections,
                queue_bound: connections * 2,
                root,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("cannot spawn daemon: {e}"))?;
            let addr = handle.addr;
            local = Some(handle);
            addr
        }
    };

    // Warm both sides' process-wide caches (calibration, threshold
    // solves, stressmark tuning) so neither side
    // pays first-touch costs inside the measured window.
    let distinct: Vec<&str> = {
        let mut seen = Vec::new();
        for i in 0..requests {
            let s = mixed_scenario(opts.seed, i);
            if !seen.contains(&s) {
                seen.push(s);
            }
        }
        seen
    };
    let warm_failures = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    closed_loop(distinct.len(), connections, |i| {
        if drive_request(addr, distinct[i], opts.smoke, &retries).is_err() {
            warm_failures.fetch_add(1, Ordering::Relaxed);
        }
    });
    let ctx = Ctx {
        smoke: opts.smoke,
        ..Ctx::default()
    };
    let mut cells_total: u64 = 0;
    for i in 0..requests {
        let scenario = find(mixed_scenario(opts.seed, i)).expect("mix ids are registry ids");
        cells_total += scenario.cells(&ctx).len() as u64;
        if i < distinct.len() {
            // In-process warm for the batch side (memoized, so cheap
            // when the daemon shares this process).
            let _ = run_scenario(find(distinct[i]).unwrap(), &ctx, 1);
        }
    }

    // Measured serve pass.
    let failed = AtomicU64::new(0);
    let latencies: Vec<AtomicU64> = (0..requests).map(|_| AtomicU64::new(0)).collect();
    retries.store(0, Ordering::Relaxed);
    let serve_started = Instant::now();
    closed_loop(requests, connections, |i| {
        match drive_request(addr, mixed_scenario(opts.seed, i), opts.smoke, &retries) {
            Ok(latency) => latencies[i].store(latency.as_nanos() as u64, Ordering::Relaxed),
            Err(reason) => {
                voltctl_telemetry::warn("serve.bench", &format!("request {i}: {reason}"));
                failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    let serve_wall = serve_started.elapsed();

    // Batch reference: same request assignment, same parallelism, no
    // service layer.
    let batch_started = Instant::now();
    closed_loop(requests, connections, |i| {
        let scenario = find(mixed_scenario(opts.seed, i)).expect("mix ids are registry ids");
        let _ = run_scenario(scenario, &ctx, 1);
    });
    let batch_wall = batch_started.elapsed();

    if let Some(handle) = local {
        handle.join();
    }

    let failed = failed.load(Ordering::Relaxed) + warm_failures.load(Ordering::Relaxed);
    let retries = retries.load(Ordering::Relaxed);
    let mut sorted: Vec<u64> = latencies
        .iter()
        .map(|l| l.load(Ordering::Relaxed))
        .filter(|&ns| ns > 0)
        .collect();
    sorted.sort_unstable();

    let serve_ns = serve_wall.as_nanos() as f64;
    let batch_ns = batch_wall.as_nanos() as f64;
    let ratio = batch_ns / serve_ns;
    let point = |path: &'static str, wall_ns: f64| BenchPoint {
        path,
        cycles: cells_total,
        wall_ns,
        best_ns: wall_ns,
        cycles_per_sec: cells_total as f64 * 1e9 / wall_ns,
        ns_per_cycle: wall_ns / cells_total as f64,
    };
    let suite = BenchSuite {
        name: "serve",
        smoke: opts.smoke,
        points: vec![point("serve", serve_ns), point("batch", batch_ns)],
        summary: vec![
            ("requests", requests as f64),
            ("connections", connections as f64),
            ("failed_requests", failed as f64),
            ("backpressure_retries", retries as f64),
            ("latency_p50_ms", percentile(&sorted, 0.50)),
            ("latency_p90_ms", percentile(&sorted, 0.90)),
            ("latency_p99_ms", percentile(&sorted, 0.99)),
            ("latency_p999_ms", percentile(&sorted, 0.999)),
            ("serve_wall_ms", serve_ns / 1e6),
            ("batch_wall_ms", batch_ns / 1e6),
            ("serve_vs_batch_ratio", ratio),
        ],
    };

    // Regenerate-in-place artifacts + provenance.
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("cannot create out dir: {e}"))?;
    let suite_path =
        voltctl_telemetry::export::write_file(&opts.out, "BENCH_serve.json", &suite.to_json())
            .map_err(|e| format!("cannot write BENCH_serve.json: {e}"))?;
    let mut manifest = voltctl_exp::Manifest::new(format!(
        "serve bench --requests {requests} --connections {connections} --seed {}",
        opts.seed
    ));
    manifest.smoke = opts.smoke;
    manifest.wall(started.elapsed());
    manifest.artifact(&suite_path);
    let manifest_path = voltctl_telemetry::export::write_file(
        &opts.out,
        "manifest_serve.json",
        &manifest.to_json(&opts.out),
    )
    .map_err(|e| format!("cannot write manifest_serve.json: {e}"))?;

    let report = BenchReport {
        suite,
        failed,
        retries,
        paths: vec![suite_path, manifest_path],
    };
    if failed > 0 {
        return Err(format!("{failed} request(s) failed (artifacts written)"));
    }
    if sorted.is_empty() {
        return Err("no latency samples recorded".to_string());
    }
    if !opts.smoke && ratio < 0.9 {
        return Err(format!(
            "serve_vs_batch_ratio {ratio:.3} < 0.9: service overhead exceeds 10%"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seed_deterministic_and_in_registry() {
        for i in 0..64 {
            let a = mixed_scenario(7, i);
            let b = mixed_scenario(7, i);
            assert_eq!(a, b);
            assert!(find(a).is_some(), "{a} must be a registry id");
        }
        // Different seeds reorder the mix.
        let same = (0..32)
            .filter(|&i| mixed_scenario(1, i) == mixed_scenario(2, i))
            .count();
        assert!(same < 32, "seed must influence the mix");
    }

    #[test]
    fn percentiles_pick_rank_order_statistics() {
        let sorted: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
