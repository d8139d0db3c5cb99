//! The serve layer probe of a traced run: a `voltctl-serve` daemon at
//! its default settings (2 workers, checkpoints on) in a process of its
//! own, driven by a closed loop of [`CLIENTS`] clients that each wait for
//! their reply, with a span around every request.
//!
//! Each job is submitted, polled once with `GET /jobs/{id}`, streamed to
//! its terminal event and its report fetched; every [`SCRAPE_EVERY`]th
//! job also scrapes `GET /metrics`, as `top` does. A seeded share of
//! jobs repeats an earlier spec and resumes from its checkpoints; the
//! rest are fresh specs that simulate and write checkpoints. Every
//! report is compared byte for byte against an in-process
//! `run_scenario` render of the same spec, made outside the timed
//! region.

use crate::spans::{Open, Recorder};
use crate::stats::{median, percentile, sorted};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use voltctl_check::Json;
use voltctl_exp::{assemble_run, find, run_cells, Ctx};
use voltctl_serve::{request, HttpResponse};
use voltctl_telemetry::Rng;

/// Jobs in the daemon batch: enough that the p99 has ten samples beyond it.
pub const BATCH_JOBS: usize = 1100;
/// Closed-loop clients, each waiting for its reply before the next job.
const CLIENTS: usize = 2;
/// Jobs in each block of ten that repeat an earlier spec.
const REPEATS_PER_BLOCK: usize = 3;
/// Each client scrapes `/metrics` once per this many of its jobs.
const SCRAPE_EVERY: usize = 20;
/// Cycle-budget scales of fresh specs are drawn from this range.
const SCALE_RANGE: (f64, f64) = (0.002, 0.02);
/// The warm-up jobs' scale, outside [`SCALE_RANGE`].
const WARM_SCALE: f64 = 0.001;

/// The scenario mix: the daemon load generator's mix of analytic and
/// control-loop scenarios, none of which batch on lanes, without
/// `fig08_stressmark`: its ~0.3 s cycle floor would make it most of the
/// run's work and all of its tail, where the mix is meant to be short
/// jobs whose cost is mostly the service itself.
pub fn mix() -> Vec<&'static str> {
    voltctl_serve::bench::MIX
        .iter()
        .copied()
        .filter(|&s| s != "fig08_stressmark")
        .collect()
}

/// One job spec as submitted.
#[derive(Debug, Clone)]
pub struct Spec {
    pub scenario: &'static str,
    pub scale: f64,
}

impl Spec {
    fn body(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"scale\":{}}}",
            self.scenario, self.scale
        )
    }

    fn ctx(&self) -> Ctx {
        Ctx::new(self.scale)
    }
}

/// The seeded job sequence of one run.
#[derive(Debug)]
pub struct Plan {
    /// Distinct specs, in first-use order.
    pub specs: Vec<Spec>,
    /// Per job, its index into `specs`.
    pub jobs: Vec<usize>,
    /// Jobs that repeat an earlier spec.
    pub repeats: usize,
}

/// Builds the seeded plan. Every block of ten jobs holds exactly three
/// repeats, and fresh jobs walk seeded permutations of [`mix`], so each
/// seed asks for the same amount of each kind of work and only the
/// scales, the order and which specs repeat vary with it.
pub fn plan(seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let mut specs: Vec<Spec> = Vec::new();
    let mut used = BTreeSet::new();
    let mut jobs = Vec::with_capacity(BATCH_JOBS);
    let mut repeats = 0;
    let mut queue: Vec<&'static str> = Vec::new();
    let mut block = [false; 10];
    for i in 0..BATCH_JOBS {
        if i % block.len() == 0 {
            block = [false; 10];
            // Three repeat slots per block, never the block's first job.
            let mut slots: Vec<usize> = (1..block.len()).collect();
            rng.shuffle(&mut slots);
            for &k in &slots[..REPEATS_PER_BLOCK] {
                block[k] = true;
            }
        }
        if block[i % block.len()] {
            jobs.push(rng.below(specs.len() as u64) as usize);
            repeats += 1;
            continue;
        }
        if queue.is_empty() {
            queue = mix();
            rng.shuffle(&mut queue);
        }
        let scenario = queue.pop().expect("queue refilled above");
        let scale = loop {
            let (lo, hi) = SCALE_RANGE;
            let scale = ((lo + (hi - lo) * rng.next_f64()) * 1e6).round() / 1e6;
            if used.insert((scenario, scale.to_bits())) {
                break scale;
            }
        };
        jobs.push(specs.len());
        specs.push(Spec { scenario, scale });
    }
    Plan {
        specs,
        jobs,
        repeats,
    }
}

/// In-process reference renders of every distinct spec.
fn references(plan: &Plan) -> Vec<Vec<u8>> {
    plan.specs
        .iter()
        .map(|spec| {
            let scenario = find(spec.scenario).expect("mix scenarios are registered");
            let ctx = spec.ctx();
            let n = scenario.cells(&ctx).len();
            let cells = run_cells(scenario, &ctx, 1, 0..n);
            assemble_run(scenario, &ctx, cells, 1).report.into_bytes()
        })
        .collect()
}

/// The daemon process. Dropping it kills a daemon that is still running.
#[derive(Debug)]
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn start(root: &Path, log: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(exe)
            .args(["--child", "serve-daemon", "--root"])
            .arg(root)
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("ADDR ")?.parse().ok());
        match addr {
            Some(addr) => Ok(Daemon { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address: {line:?}"))
            }
        }
    }

    /// Asks the daemon to stop and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = request(self.addr, "POST", "/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("daemon did not stop within 60 s".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Runs the daemon in this process until `POST /shutdown`.
pub fn daemon_child(root: &Path) -> Result<(), String> {
    let cfg = voltctl_serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        root: root.to_path_buf(),
        ..voltctl_serve::ServeConfig::default()
    };
    let handle = voltctl_serve::spawn(cfg).map_err(|e| format!("cannot start daemon: {e}"))?;
    println!("ADDR {}", handle.addr);
    while !handle.is_stopping() {
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.join();
    Ok(())
}

fn ok(resp: std::io::Result<HttpResponse>) -> Option<HttpResponse> {
    resp.ok().filter(|r| r.status == 200)
}

/// What one daemon process served.
#[derive(Debug, Default)]
struct Rep {
    wall_s: f64,
    job_ms: Vec<f64>,
    read_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    retries: u64,
    resumed: u64,
    /// The daemon's final `/metrics` exposition.
    metrics: String,
}

#[derive(Debug, Default)]
struct Tally {
    job_ms: Vec<f64>,
    read_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    resumed: u64,
}

/// One closed-loop client's view of the daemon; requests are timed as
/// spans.
#[derive(Debug, Clone, Copy)]
struct Client<'a> {
    addr: SocketAddr,
    retries: &'a AtomicUsize,
    rec: &'a Recorder,
}

impl Client<'_> {
    /// Submits `body` (retrying 429s) and returns the job id.
    fn submit(&self, body: &[u8], parent: Option<&Open>, group: u64) -> Option<u64> {
        loop {
            let open = self.rec.open("serve.submit", parent, group);
            let resp = request(self.addr, "POST", "/jobs", Some(body));
            self.rec.close(open);
            let resp = resp.ok()?;
            match resp.status {
                202 => {
                    let json = Json::parse(&resp.text()).ok()?;
                    return json.get("id").and_then(Json::as_f64).map(|id| id as u64);
                }
                429 => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => return None,
            }
        }
    }

    /// A GET that answered 200.
    fn get(
        &self,
        path: &str,
        name: &'static str,
        parent: Option<&Open>,
        group: u64,
    ) -> Option<HttpResponse> {
        self.rec.time(name, parent, group, || {
            ok(request(self.addr, "GET", path, None))
        })
    }

    /// A read (status poll or scrape), counted and timed into `tally`.
    fn read(
        &self,
        path: &str,
        name: &'static str,
        parent: Option<&Open>,
        group: u64,
        tally: &mut Tally,
    ) -> Option<HttpResponse> {
        let t = Instant::now();
        let resp = self.get(path, name, parent, group);
        tally.attempted += 1;
        match &resp {
            Some(_) => tally.read_ms.push(t.elapsed().as_secs_f64() * 1e3),
            None => tally.failed += 1,
        }
        resp
    }

    /// Runs one job end to end (submit, status poll, stream, report,
    /// byte comparison), then scrapes `/metrics` when asked.
    fn job(&self, body: &[u8], reference: &[u8], scrape: bool, group: u64, tally: &mut Tally) {
        let span = self.rec.open("serve.job", None, group);
        let parent = Some(&span);
        let t0 = Instant::now();
        let mut outcome = || {
            let id = self.submit(body, parent, group)?;
            self.read(&format!("/jobs/{id}"), "serve.status", parent, group, tally)?;
            let stream = self.get(&format!("/jobs/{id}/stream"), "serve.stream", parent, group)?;
            let events = stream.text();
            if !events.contains("\"event\":\"done\"") {
                return None;
            }
            let shards = events.matches("\"event\":\"shard\"").count();
            let resumed = shards > 0 && events.matches("\"resumed\":true").count() == shards;
            let report = self.get(&format!("/jobs/{id}/report"), "serve.report", parent, group)?;
            (report.body == reference).then_some(resumed)
        };
        let outcome = outcome();
        tally.attempted += 1;
        match outcome {
            Some(resumed) => {
                tally.job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                tally.resumed += u64::from(resumed);
            }
            None => tally.failed += 1,
        }
        if scrape {
            self.read("/metrics", "serve.metrics", parent, group, tally);
        }
        self.rec.close(span);
    }
}

/// The serve layer's per-layer values from one daemon batch, with what
/// the batch attempted and failed and its traffic properties.
#[derive(Debug)]
pub struct Probe {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// JSON fields for the run's `traffic` line.
    pub traffic: String,
    pub wall_s: f64,
}

/// Drives the seeded plan of `seed` through a fresh daemon with spans
/// around every request, then times `http::parse_request` over the
/// batch's request bytes. Spans are written to `spans_out`.
pub fn probe(seed: u64, out_dir: &Path, spans_out: &Path, floor_ns: f64) -> Result<Probe, String> {
    let plan = plan(seed);
    let refs = references(&plan);
    let rec = Recorder::new();
    let rep = rep(&plan, &refs, out_dir, &rec)?;
    let parse = parse_ns(&request_bytes(&plan), &rec, floor_ns);
    rec.write_jsonl(spans_out)
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;
    let resume_share = rep.resumed as f64 / rep.job_ms.len().max(1) as f64;
    // Too few samples for a p99 only happens when requests failed, which
    // already makes the run incorrect.
    let p99 = |v: &[f64]| percentile(&sorted(v), 0.99).unwrap_or(0.0);
    let values = vec![
        ("serve.resume_share", resume_share),
        ("serve.parse_ns", parse),
        ("serve.submit_ms_p50", span_p50_ms(&rec, "serve.submit")),
        ("serve.status_ms_p50", span_p50_ms(&rec, "serve.status")),
        ("serve.stream_ms_p50", span_p50_ms(&rec, "serve.stream")),
        ("serve.report_ms_p50", span_p50_ms(&rec, "serve.report")),
        (
            "serve.metrics_scrape_ms_p50",
            span_p50_ms(&rec, "serve.metrics"),
        ),
        (
            "serve.queue_wait_ms_p99",
            histogram_p99_ms(&rep.metrics, "voltctl_serve_queue_wait_ns"),
        ),
        (
            "serve.run_ms_p99",
            histogram_p99_ms(&rep.metrics, "voltctl_serve_job_run_ns"),
        ),
        ("serve.retries_429", rep.retries as f64),
        ("serve.job_latency_p99_ms", p99(&rep.job_ms)),
        ("serve.read_latency_p99_ms", p99(&rep.read_ms)),
    ];
    let mix: Vec<String> = mix().iter().map(|s| format!("\"{s}\"")).collect();
    let traffic = format!(
        "\"serve_jobs\":{},\"serve_distinct_specs\":{},\"serve_repeat_share\":{},\
         \"serve_resume_share\":{resume_share},\"serve_mix\":[{}]",
        plan.jobs.len(),
        plan.specs.len(),
        plan.repeats as f64 / plan.jobs.len() as f64,
        mix.join(","),
    );
    Ok(Probe {
        values,
        attempted: rep.attempted,
        failed: rep.failed,
        traffic,
        wall_s: rep.wall_s,
    })
}

/// Starts a daemon, warms it with one job per mix scenario (checkpoints
/// off), drives the plan through it and stops it.
fn rep(plan: &Plan, refs: &[Vec<u8>], out_dir: &Path, rec: &Recorder) -> Result<Rep, String> {
    let root: PathBuf = out_dir.join(format!("serve-root-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let log = out_dir.join(format!("serve-daemon-{}.log", std::process::id()));

    let t_spawn = Instant::now();
    let daemon = Daemon::start(&root, &log)?;
    let addr = daemon.addr;
    while ok(request(addr, "GET", "/healthz", None)).is_none() {
        if t_spawn.elapsed() > Duration::from_secs(30) {
            return Err("daemon /healthz did not answer within 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Warm-up spans go to a recorder of their own.
    let (no_retries, unrecorded) = (AtomicUsize::new(0), Recorder::new());
    let warm = Client {
        addr,
        retries: &no_retries,
        rec: &unrecorded,
    };
    for scenario in mix() {
        let body =
            format!("{{\"scenario\":\"{scenario}\",\"scale\":{WARM_SCALE},\"checkpoints\":false}}");
        let id = warm
            .submit(body.as_bytes(), None, 0)
            .ok_or_else(|| format!("warm-up submit of {scenario} failed"))?;
        let stream = ok(request(addr, "GET", &format!("/jobs/{id}/stream"), None));
        if !stream.is_some_and(|s| s.text().contains("\"event\":\"done\"")) {
            return Err(format!("warm-up job {scenario} did not finish"));
        }
    }

    let next = AtomicUsize::new(0);
    let retries = AtomicUsize::new(0);
    let tallies = Mutex::new(Vec::new());
    let client = Client {
        addr,
        retries: &retries,
        rec,
    };
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut tally = Tally::default();
                let mut mine = 0;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= plan.jobs.len() {
                        break;
                    }
                    let spec = plan.jobs[i];
                    mine += 1;
                    client.job(
                        plan.specs[spec].body().as_bytes(),
                        &refs[spec],
                        mine % SCRAPE_EVERY == 0,
                        i as u64 + 1,
                        &mut tally,
                    );
                }
                tallies.lock().expect("tally list poisoned").push(tally);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let metrics = ok(request(addr, "GET", "/metrics", None))
        .map(|r| r.text())
        .unwrap_or_default();
    daemon.stop()?;
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(&log);

    let mut out = Rep {
        wall_s,
        retries: retries.load(Ordering::Relaxed) as u64,
        metrics,
        ..Rep::default()
    };
    for t in tallies.into_inner().expect("tally list poisoned") {
        out.job_ms.extend(t.job_ms);
        out.read_ms.extend(t.read_ms);
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.resumed += t.resumed;
    }
    Ok(out)
}

/// The request bytes the clients send for `plan`, as the daemon's
/// parser sees them.
fn request_bytes(plan: &Plan) -> Vec<Vec<u8>> {
    let head = |method: &str, path: &str, len: usize| {
        format!("{method} {path} HTTP/1.1\r\nhost: voltctl\r\ncontent-length: {len}\r\n\r\n")
    };
    plan.jobs
        .iter()
        .enumerate()
        .flat_map(|(i, &spec)| {
            let body = plan.specs[spec].body();
            let id = i + 1;
            [
                format!("{}{body}", head("POST", "/jobs", body.len())),
                head("GET", &format!("/jobs/{id}"), 0),
                head("GET", &format!("/jobs/{id}/stream"), 0),
                head("GET", &format!("/jobs/{id}/report"), 0),
            ]
        })
        .map(String::into_bytes)
        .collect()
}

/// Nanoseconds per `http::parse_request` over `requests`, timed in
/// batches and corrected by the empty-span floor.
fn parse_ns(requests: &[Vec<u8>], rec: &Recorder, floor_ns: f64) -> f64 {
    let mut total = 0.0;
    let mut batches = 0.0;
    for chunk in requests.chunks(64) {
        let open = rec.open("serve.parse_request", None, 0);
        for r in chunk {
            let parsed = voltctl_serve::parse_request(std::hint::black_box(r));
            assert!(
                matches!(parsed, Ok(voltctl_serve::Parse::Complete(..))),
                "the clients' requests parse"
            );
        }
        total += rec.close(open) as f64;
        batches += 1.0;
    }
    ((total - floor_ns * batches) / requests.len().max(1) as f64).max(0.0)
}

/// p99 of a daemon histogram family, in ms.
fn histogram_p99_ms(metrics: &str, family: &str) -> f64 {
    voltctl_serve::top::parse_exposition(metrics)
        .ok()
        .and_then(|e| e.histogram_quantile(family, 0.99))
        .map_or(0.0, |ns| ns / 1e6)
}

/// Median duration in ms of the spans named `name`.
fn span_p50_ms(rec: &Recorder, name: &str) -> f64 {
    let durs: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    if durs.is_empty() {
        0.0
    } else {
        median(&durs)
    }
}
