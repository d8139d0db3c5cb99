//! TCP accept loop, request routing, and the daemon's HTTP API.
//!
//! One thread accepts connections; each connection gets a short-lived
//! handler thread (one request per connection, `connection: close`).
//! Workers run jobs from the shared [`JobTable`]. The API:
//!
//! | Method | Path | Meaning |
//! |---|---|---|
//! | GET | `/healthz` | liveness probe |
//! | GET | `/scenarios` | registry listing (id, runtime, cells, trace, title) |
//! | GET | `/stats` | queue/state counters |
//! | POST | `/jobs` | submit (JSON spec body) — 202, or 429 + `Retry-After` |
//! | GET | `/jobs/<id>` | job status |
//! | GET | `/jobs/<id>/report` | rendered report, byte-identical to the CLI |
//! | GET | `/jobs/<id>/stream` | JSONL progress events until terminal |
//! | GET | `/jobs/<id>/artifacts` | artifact file listing |
//! | GET | `/jobs/<id>/artifacts/<name>` | one artifact's bytes |
//! | DELETE | `/jobs/<id>` | cooperative cancel |
//! | POST | `/shutdown` | stop accepting, drain workers, exit |
//!
//! Read timeouts bound slowloris-style clients: a connection that goes
//! quiet mid-request gets a 408 and is dropped; it can never wedge the
//! daemon (the protocol fuzz suite pins this).
//!
//! # Observability
//!
//! Every connection is assigned a request id (`r1`, `r2`, …) at accept.
//! The id is threaded through the job table into every event a job
//! emits, recorded per-request into the metrics plane (latency by
//! normalized route, counts by route and status), and logged to the
//! structured event log at `<root>/events.jsonl`. `GET /metrics`
//! exposes the whole plane in Prometheus text format; `GET
//! /stats?verbose=1` is a JSON superset of the original `/stats` body.

use crate::event::{EventLevel, EventLog, F};
use crate::http::{parse_request, Parse, Request, Response};
use crate::job::{JobSpec, JobTable, SubmitError};
use crate::runner::{worker_loop, RunnerConfig};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use voltctl_exp::{find, listing, Ctx};
use voltctl_telemetry::json::escape;

/// Process-wide request id counter: ids stay unique even when tests run
/// several daemons in one process.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

fn next_request_id() -> String {
    format!("r{}", NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed))
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7643`. Port 0 picks a free port.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Queued-job bound; submissions beyond it get 429.
    pub queue_bound: usize,
    /// State root for artifacts and checkpoints.
    pub root: PathBuf,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Default checkpoint shard count for specs that leave it unset.
    pub default_shards: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7643".to_string(),
            workers: 2,
            queue_bound: 64,
            root: std::env::temp_dir().join("voltctl-serve"),
            read_timeout: Duration::from_secs(5),
            default_shards: 4,
        }
    }
}

/// A running daemon: its bound address plus the handles needed to stop
/// it and join its threads.
#[derive(Debug)]
pub struct ServerHandle {
    /// The actual bound address (resolves port 0).
    pub addr: SocketAddr,
    table: Arc<JobTable>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared job table (tests observe stats through it).
    pub fn table(&self) -> &Arc<JobTable> {
        &self.table
    }

    /// The daemon's structured event log (file sink at
    /// `<root>/events.jsonl` when it could be opened).
    pub fn log(&self) -> &Arc<EventLog> {
        self.table.log()
    }

    /// True once `POST /shutdown` (or [`stop`](ServerHandle::stop)) has
    /// been seen.
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Requests shutdown without waiting.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.table.shutdown();
    }

    /// Stops the daemon and joins every thread. In-flight jobs finish;
    /// queued jobs are still claimed and run before workers exit only
    /// if already popped — the queue itself is drained by shutdown
    /// semantics in [`JobTable::claim`] (remaining queued jobs are
    /// claimed until the queue is empty, then workers exit).
    pub fn join(mut self) {
        self.stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.table
            .log()
            .emit(EventLevel::Info, "daemon.stopped", &[]);
    }
}

/// Binds, spawns the accept loop and `workers` worker threads, and
/// returns immediately.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    std::fs::create_dir_all(&cfg.root)?;

    let log = Arc::new(EventLog::open(&cfg.root));
    let table = Arc::new(JobTable::with_log(cfg.queue_bound, Arc::clone(&log)));
    let stop = Arc::new(AtomicBool::new(false));
    crate::metrics::global()
        .workers
        .set(cfg.workers.max(1) as i64);
    log.emit(
        EventLevel::Info,
        "daemon.listening",
        &[
            ("addr", F::s(addr.to_string())),
            ("workers", F::U(cfg.workers.max(1) as u64)),
            ("queue_bound", F::U(cfg.queue_bound as u64)),
            ("root", F::s(cfg.root.display().to_string())),
        ],
    );
    let runner_cfg = Arc::new(RunnerConfig {
        root: cfg.root.clone(),
        default_shards: cfg.default_shards.max(1),
    });

    let workers = (0..cfg.workers.max(1))
        .map(|_| {
            let table = Arc::clone(&table);
            let runner_cfg = Arc::clone(&runner_cfg);
            std::thread::spawn(move || worker_loop(table, runner_cfg))
        })
        .collect();

    let accept = {
        let table = Arc::clone(&table);
        let stop = Arc::clone(&stop);
        let read_timeout = cfg.read_timeout;
        std::thread::spawn(move || {
            accept_loop(listener, table, stop, read_timeout);
        })
    };

    Ok(ServerHandle {
        addr,
        table,
        stop,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(
    listener: TcpListener,
    table: Arc<JobTable>,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &table, &stop, read_timeout);
                }));
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // 1ms poll: bounds per-connection accept latency well
                // below any real job's runtime while still noticing the
                // stop flag promptly.
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// Reads one request (incrementally, bounded, with timeout), routes it,
/// writes one response, closes. Every outcome — including parse errors
/// and timeouts — lands in the request metrics and the event log.
fn handle_connection(
    mut stream: TcpStream,
    table: &Arc<JobTable>,
    stop: &Arc<AtomicBool>,
    read_timeout: Duration,
) {
    let started = Instant::now();
    let request_id = next_request_id();
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let request = loop {
        match parse_request(&buf) {
            Ok(Parse::Complete(req, _consumed)) => break req,
            Ok(Parse::Incomplete) => {}
            Err(e) => {
                let _ = Response::error(e.status(), &e.detail()).write_to(&mut stream);
                return record_request(table, &request_id, "-", "other", e.status(), started);
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if !buf.is_empty() {
                    let _ =
                        Response::error(400, "connection closed mid-request").write_to(&mut stream);
                    record_request(table, &request_id, "-", "other", 400, started);
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                let _ = Response::error(408, "request not completed in time").write_to(&mut stream);
                return record_request(table, &request_id, "-", "other", 408, started);
            }
            Err(_) => return,
        }
    };
    let route_name = crate::metrics::route_label(&request.target);
    let status = route(&request, &mut stream, table, stop, &request_id);
    record_request(
        table,
        &request_id,
        &request.method,
        route_name,
        status,
        started,
    );
}

/// One stop for the per-request boundary instrumentation: the
/// (route, status) counter, the latency histogram, and the `Debug`
/// event-log line carrying the request id.
fn record_request(
    table: &Arc<JobTable>,
    request_id: &str,
    method: &str,
    route: &'static str,
    status: u16,
    started: Instant,
) {
    let elapsed = started.elapsed();
    crate::metrics::global().record_request(route, status, elapsed);
    table.log().emit(
        EventLevel::Debug,
        "http.request",
        &[
            ("req", F::s(request_id)),
            ("method", F::s(method)),
            ("route", F::s(route)),
            ("status", F::U(status as u64)),
            ("duration_ns", F::U(elapsed.as_nanos() as u64)),
        ],
    );
}

/// Splits `/jobs/<id>[/rest]` into the id and the remaining path.
fn job_path(target: &str) -> Option<(u64, &str)> {
    let rest = target.strip_prefix("/jobs/")?;
    let (id, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, tail),
        None => (rest, ""),
    };
    id.parse().ok().map(|id| (id, tail))
}

/// Routes one parsed request, writes the response, and returns the
/// status code that went over the wire.
fn route(
    req: &Request,
    stream: &mut TcpStream,
    table: &Arc<JobTable>,
    stop: &Arc<AtomicBool>,
    request_id: &str,
) -> u16 {
    let (path, query) = match req.target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (req.target.as_str(), ""),
    };
    let response = match (req.method.as_str(), path) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/scenarios") => scenarios_response(),
        ("GET", "/stats") => stats_response(table, query),
        ("GET", "/metrics") => metrics_response(table),
        ("POST", "/jobs") => submit(req, table, request_id),
        ("POST", "/shutdown") => {
            stop.store(true, Ordering::Relaxed);
            table.shutdown();
            table.log().emit(
                EventLevel::Info,
                "daemon.shutdown_requested",
                &[("req", F::s(request_id))],
            );
            Response::json(200, "{\"shutdown\":true}".into())
        }
        (method, target) if target.starts_with("/jobs/") => {
            let Some((id, tail)) = job_path(target) else {
                return finish(stream, Response::error(400, "job id is not an integer"));
            };
            match (method, tail) {
                ("GET", "") => match table.snapshot(id) {
                    Some(snap) => Response::json(200, snap.to_json()),
                    None => Response::error(404, "no such job"),
                },
                ("DELETE", "") => match table.cancel(id) {
                    Some(before) => Response::json(
                        200,
                        format!("{{\"id\":{id},\"was\":\"{}\"}}", before.name()),
                    ),
                    None => Response::error(404, "no such job"),
                },
                ("GET", "report") => match table.snapshot(id) {
                    None => Response::error(404, "no such job"),
                    Some(snap) => match table.report(id) {
                        Some(report) => Response {
                            status: 200,
                            content_type: "text/plain; charset=utf-8",
                            headers: Vec::new(),
                            body: report,
                        },
                        None => Response::error(
                            409,
                            &format!("job is {}, report not available", snap.state.name()),
                        ),
                    },
                },
                ("GET", "stream") => return stream_events(stream, table, id),
                ("GET", "artifacts") => artifact_listing(table, id),
                ("GET", name) if name.starts_with("artifacts/") => {
                    artifact_body(table, id, &name["artifacts/".len()..])
                }
                ("GET" | "DELETE", _) => Response::error(404, "no such endpoint"),
                _ => Response::error(405, "method not allowed"),
            }
        }
        ("GET" | "POST" | "DELETE" | "HEAD" | "PUT" | "PATCH" | "OPTIONS", _) => {
            Response::error(404, "no such endpoint")
        }
        _ => Response::error(405, "method not allowed"),
    };
    finish(stream, response)
}

fn finish(stream: &mut TcpStream, response: Response) -> u16 {
    let status = response.status;
    let _ = response.write_to(stream);
    status
}

fn scenarios_response() -> Response {
    let rows = listing(&Ctx::default());
    let mut body = String::from("{\"scenarios\":[");
    for (i, [id, runtime, cells, trace, title]) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"id\":{},\"runtime\":{},\"cells\":{},\"trace\":{},\"title\":{}}}",
            escape(id),
            escape(runtime),
            cells,
            trace == "yes",
            escape(title)
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `GET /stats`: the original compact body, or — with `verbose=1` in
/// the query — a superset that starts with the same fields byte-for-
/// byte and appends worker, cache, and event-log detail.
fn stats_response(table: &Arc<JobTable>, query: &str) -> Response {
    let base = table.stats().to_json();
    let verbose = query.split('&').any(|kv| kv == "verbose=1");
    if !verbose {
        return Response::json(200, base);
    }
    let metrics = crate::metrics::global();
    let solve = voltctl_exp::solve_cache_stats();
    let log_path = match table.log().path() {
        Some(p) => escape(&p.display().to_string()),
        None => "null".to_string(),
    };
    let mut body = base;
    body.pop(); // replace the closing brace with the verbose tail
    body.push_str(&format!(
        ",\"workers\":{},\"workers_busy\":{},\"caches\":{{\"solve\":{{\"hits\":{},\
         \"misses\":{},\"evictions\":{},\"len\":{},\"capacity\":{}}}}},\"event_log\":{}}}",
        metrics.workers.get(),
        metrics.workers_busy.get(),
        solve.hits,
        solve.misses,
        solve.evictions,
        solve.len,
        solve.capacity,
        log_path
    ));
    Response::json(200, body)
}

/// `GET /metrics`: the full plane in Prometheus text exposition format.
fn metrics_response(table: &Arc<JobTable>) -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        headers: Vec::new(),
        body: crate::metrics::render_metrics(&table.stats()).into_bytes(),
    }
}

fn submit(req: &Request, table: &Arc<JobTable>, request_id: &str) -> Response {
    let spec = match JobSpec::from_json_body(&req.body) {
        Ok(spec) => spec,
        Err(reason) => return Response::error(400, &reason),
    };
    if find(&spec.scenario).is_none() {
        return Response::error(
            400,
            &format!(
                "unknown scenario {:?}; GET /scenarios lists valid ids",
                spec.scenario
            ),
        );
    }
    match table.submit_with_request(spec, Some(request_id)) {
        Ok(id) => Response::json(202, format!("{{\"id\":{id},\"state\":\"queued\"}}")),
        Err(SubmitError::QueueFull) => {
            let mut resp = Response::error(429, "job queue is full; retry later");
            resp.headers.push(("retry-after".into(), "1".into()));
            resp
        }
        Err(SubmitError::ShuttingDown) => Response::error(409, "daemon is shutting down"),
    }
}

/// Streams JSONL progress events until the job is terminal and all
/// events are flushed. The response has no `content-length`; the
/// connection close delimits the stream (`connection: close` is already
/// the daemon-wide contract).
fn stream_events(stream: &mut TcpStream, table: &Arc<JobTable>, id: u64) -> u16 {
    if table.snapshot(id).is_none() {
        return finish(stream, Response::error(404, "no such job"));
    }
    let head = "HTTP/1.1 200 OK\r\ncontent-type: application/jsonl\r\nconnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return 200;
    }
    let mut from = 0;
    loop {
        let Some((events, terminal)) = table.wait_events(id, from, Duration::from_millis(250))
        else {
            return 200;
        };
        for event in &events {
            if stream
                .write_all(event.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .is_err()
            {
                return 200; // Client went away; the job keeps running.
            }
        }
        let _ = stream.flush();
        from += events.len();
        if terminal {
            return 200;
        }
    }
}

fn artifact_listing(table: &Arc<JobTable>, id: u64) -> Response {
    let Some(snap) = table.snapshot(id) else {
        return Response::error(404, "no such job");
    };
    let mut names: Vec<String> = Vec::new();
    if let Some(dir) = snap.artifact_dir {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                    names.push(entry.file_name().to_string_lossy().into_owned());
                }
            }
        }
    }
    names.sort();
    let listed: Vec<String> = names.iter().map(|n| escape(n)).collect();
    Response::json(
        200,
        format!("{{\"id\":{id},\"artifacts\":[{}]}}", listed.join(",")),
    )
}

fn artifact_body(table: &Arc<JobTable>, id: u64, name: &str) -> Response {
    if name.is_empty() || name.contains('/') || name.contains('\\') || name.contains("..") {
        return Response::error(400, "artifact name must be a plain file name");
    }
    let Some(snap) = table.snapshot(id) else {
        return Response::error(404, "no such job");
    };
    let Some(dir) = snap.artifact_dir else {
        return Response::error(404, "job has no artifacts yet");
    };
    match std::fs::read(dir.join(name)) {
        Ok(bytes) => Response {
            status: 200,
            content_type: "application/octet-stream",
            headers: Vec::new(),
            body: bytes,
        },
        Err(_) => Response::error(404, "no such artifact"),
    }
}
