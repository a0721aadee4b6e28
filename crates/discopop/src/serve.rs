//! The analysis daemon behind `discopop serve`: a supervised, admission-
//! controlled TCP service running the compile → profile → discover
//! pipeline on behalf of many clients.
//!
//! Robustness is the design driver, end to end:
//!
//! - **Job isolation.** Every job runs on a worker under
//!   [`std::panic::catch_unwind`] with its own [`Budget`] (a per-worker
//!   slice of the configured memory pool plus an optional deadline). A
//!   panicking or budget-blown job turns into a typed
//!   [`ErrorBody`]; every other in-flight job completes
//!   untouched and the worker survives to take the next job.
//! - **Admission control.** The job queue is bounded
//!   ([`ServeConfig::queue_cap`]); beyond it the daemon sheds load with a
//!   typed `overloaded` response carrying a `retry_after_ms` hint instead
//!   of queueing unboundedly.
//! - **Hostile clients.** Per-connection read/write timeouts and a
//!   max-request-size cap (enforced *while reading*, before any parse)
//!   mean a stalled or malicious client can wedge at most its own
//!   connection thread, never the acceptor or a worker. Request JSON is
//!   parsed under [`jsonio::ParseLimits`] (size + nesting depth).
//! - **Graceful degradation.** Compiled programs are cached by source
//!   hash; cache bytes are admitted through a shared
//!   [`MemGauge`] and evicted LRU under pressure — overflow costs cache
//!   misses, never memory.
//! - **Graceful shutdown.** [`Server::shutdown`] stops accepting, drains
//!   queued + in-flight work up to [`ServeConfig::drain_deadline`],
//!   answers whatever must be abandoned with a typed `shutting_down`
//!   error, and reports the triage in a [`DrainReport`].
//!
//! Fault-injection sites (`serve:accept`, `serve:decode`,
//! `serve:job-start`, `serve:mid-job`, `serve:respond`) are compiled in
//! via [`profiler::fault`] and drive the server fault-injection suite in
//! `tests/serve.rs`.

use crate::protocol::{
    ErrorBody, ErrorKind, JobOptions, PartialStats, Request, Response, StatusBody, PROTOCOL_VERSION,
};
use crate::{Analysis, Error, StageEvent};
use jsonio::{ParseErrorKind, ParseLimits, Value};
use profiler::{Budget, EngineKind, MemGauge};
use std::collections::VecDeque;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of one daemon instance. `Default` binds an ephemeral
/// loopback port with two workers — the test/CI configuration; production
/// callers override per deployment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7077` (`:0` = ephemeral port).
    pub addr: String,
    /// Worker pool size (each worker runs one job at a time).
    pub workers: usize,
    /// Bounded job-queue capacity; admission control sheds beyond it.
    pub queue_cap: usize,
    /// Hard cap on one request line, enforced while reading.
    pub max_request_bytes: usize,
    /// Max JSON nesting depth accepted from clients.
    pub max_json_depth: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Default per-job deadline when the request doesn't set one.
    pub default_deadline: Option<Duration>,
    /// Total tracked-memory pool for jobs; each worker gets an equal
    /// slice as its per-job [`Budget`] ceiling. `None` = unlimited.
    pub max_memory: Option<usize>,
    /// Ceiling for the compiled-program cache, in (estimated) bytes.
    pub cache_bytes: usize,
    /// How long [`Server::shutdown`] waits for queued + in-flight jobs
    /// before abandoning the rest.
    pub drain_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 16,
            max_request_bytes: 4 << 20,
            max_json_depth: 64,
            io_timeout: Duration::from_secs(10),
            default_deadline: None,
            max_memory: None,
            cache_bytes: 64 << 20,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// What [`Server::shutdown`] managed to save.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Everything queued/in-flight finished inside the drain deadline.
    pub drained: bool,
    /// Total jobs answered with a report over the daemon's lifetime.
    pub completed: u64,
    /// Queued jobs abandoned at the deadline (each was answered with a
    /// typed `shutting_down` error).
    pub abandoned_queued: u64,
    /// Jobs still executing when the deadline expired (their workers are
    /// left to finish; the process usually exits shortly after).
    pub abandoned_in_flight: u64,
}

struct Job {
    id: u64,
    name: String,
    source: String,
    options: JobOptions,
    reply: mpsc::Sender<Response>,
}

struct CacheEntry {
    key: u64,
    program: Arc<interp::Program>,
    bytes: usize,
    last_use: u64,
}

#[derive(Default)]
struct ProgramCache {
    entries: Vec<CacheEntry>,
    tick: u64,
}

struct Shared {
    cfg: ServeConfig,
    local_addr: SocketAddr,
    started: Instant,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// `true` until drain begins; gates both the acceptor and admission.
    accepting: AtomicBool,
    /// Set by a protocol `shutdown` request; the daemon owner polls it.
    shutdown_requested: AtomicBool,
    in_flight: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_shed: AtomicU64,
    worker_recoveries: AtomicU64,
    conn_recoveries: AtomicU64,
    cache: Mutex<ProgramCache>,
    cache_gauge: MemGauge,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
}

/// Take a mutex even when a panicking holder poisoned it — the supervised
/// server must keep serving; the guarded state (queue, cache) is kept
/// valid at every await-free step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    fn draining(&self) -> bool {
        !self.accepting.load(Ordering::Acquire)
    }

    /// Flip to draining and wake every blocked thread: workers via the
    /// condvar, the acceptor via a throwaway self-connection (its
    /// `accept` is a plain blocking call).
    fn begin_drain(&self) {
        if self.accepting.swap(false, Ordering::AcqRel) {
            let _ = TcpStream::connect(self.local_addr);
        }
        self.queue_cv.notify_all();
    }

    fn status(&self) -> StatusBody {
        let (queue_depth, cache_entries) = (
            lock(&self.queue).len() as u64,
            lock(&self.cache).entries.len() as u64,
        );
        StatusBody {
            protocol: PROTOCOL_VERSION as u64,
            accepting: !self.draining(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            workers: self.cfg.workers as u64,
            queue_depth,
            queue_cap: self.cfg.queue_cap as u64,
            in_flight: self.in_flight.load(Ordering::Relaxed),
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            worker_recoveries: self.worker_recoveries.load(Ordering::Relaxed),
            conn_recoveries: self.conn_recoveries.load(Ordering::Relaxed),
            cache_entries,
            cache_bytes: self.cache_gauge.tracked() as u64,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
        }
    }

    /// Backoff hint for shed jobs: scale with how far behind the pool is.
    fn retry_after_ms(&self) -> u64 {
        let backlog = lock(&self.queue).len() as u64 + self.in_flight.load(Ordering::Relaxed);
        (50 * backlog.max(1)).min(2_000)
    }
}

/// A running daemon. Bind with [`serve`]; the handle owns the acceptor
/// and worker threads and must be retired with [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Bind `cfg.addr` and start the acceptor + worker pool.
pub fn serve(cfg: ServeConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        local_addr,
        started: Instant::now(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        accepting: AtomicBool::new(true),
        shutdown_requested: AtomicBool::new(false),
        in_flight: AtomicU64::new(0),
        jobs_done: AtomicU64::new(0),
        jobs_failed: AtomicU64::new(0),
        jobs_shed: AtomicU64::new(0),
        worker_recoveries: AtomicU64::new(0),
        conn_recoveries: AtomicU64::new(0),
        cache: Mutex::new(ProgramCache::default()),
        cache_gauge: MemGauge::new(),
        cache_hits: AtomicU64::new(0),
        cache_misses: AtomicU64::new(0),
        cache_evictions: AtomicU64::new(0),
        cfg,
    });

    let workers = (0..shared.cfg.workers.max(1))
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("discopop-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    let acceptor = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("discopop-acceptor".to_string())
            .spawn(move || acceptor_loop(&shared, listener))?
    };

    Ok(Server {
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

impl Server {
    /// The bound address (resolves `:0` to the ephemeral port picked).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A client asked the daemon to shut down; the owner should call
    /// [`Server::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Current health/queue/cache/recovery counters (same data a
    /// protocol `status` request returns).
    pub fn status(&self) -> StatusBody {
        self.shared.status()
    }

    /// Stop accepting, drain queued + in-flight jobs up to the drain
    /// deadline, answer abandoned queued jobs with `shutting_down`, and
    /// report the triage.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.begin_drain();
        let deadline = Instant::now() + self.shared.cfg.drain_deadline;
        loop {
            let backlog = !lock(&self.shared.queue).is_empty()
                || self.shared.in_flight.load(Ordering::Acquire) > 0;
            if !backlog || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        let abandoned_queued = {
            let mut q = lock(&self.shared.queue);
            let jobs: Vec<Job> = q.drain(..).collect();
            drop(q);
            for job in &jobs {
                let _ = job.reply.send(Response::Error(ErrorBody {
                    id: job.id,
                    kind: ErrorKind::ShuttingDown,
                    message: "daemon shut down before the job started".to_string(),
                    retry_after_ms: None,
                    partial: None,
                }));
            }
            jobs.len() as u64
        };
        let abandoned_in_flight = self.shared.in_flight.load(Ordering::Acquire);
        self.shared.queue_cv.notify_all();

        // Workers park on a timed condvar wait, so they notice the drain
        // flag promptly — but a worker wedged in an undeadlined job can't
        // be joined without hanging the shutdown; leave those to the
        // process exit.
        if abandoned_in_flight == 0 {
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }

        DrainReport {
            drained: abandoned_queued == 0 && abandoned_in_flight == 0,
            completed: self.shared.jobs_done.load(Ordering::Relaxed),
            abandoned_queued,
            abandoned_in_flight,
        }
    }
}

// ---------------------------------------------------------------------------
// Acceptor + connection handling
// ---------------------------------------------------------------------------

fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("discopop-conn".to_string())
            .spawn(move || {
                // A panicking connection handler (e.g. an armed
                // `serve:accept`/`serve:respond` faultpoint) takes down
                // only its own connection; the acceptor and every worker
                // keep going.
                if catch_unwind(AssertUnwindSafe(|| handle_conn(&shared, stream))).is_err() {
                    shared.conn_recoveries.fetch_add(1, Ordering::Relaxed);
                }
            });
        // Spawn failure (thread exhaustion) drops the connection — the
        // client sees a reset and retries; the daemon stays up.
        drop(spawned);
    }
}

enum LineRead {
    /// One complete request line (without the trailing `\n`).
    Line,
    /// Clean end of stream.
    Eof,
    /// Stream ended mid-line: the client vanished mid-request.
    Truncated,
    /// The line exceeded the size cap. The rest of the line was read and
    /// discarded, so framing is intact and the session can continue —
    /// and the client keeps getting its bytes drained instead of a TCP
    /// reset that would eat the typed error response.
    TooLarge,
}

/// Read one `\n`-terminated line, enforcing the size cap *while reading*
/// so an oversized request never accumulates more than `max` buffered
/// bytes — the overflow is discarded up to the next newline, not stored.
/// Read timeouts surface as `Err`.
fn read_line_bounded(
    r: &mut impl BufRead,
    max: usize,
    out: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    out.clear();
    let mut overflowed = false;
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(if out.is_empty() && !overflowed {
                LineRead::Eof
            } else {
                LineRead::Truncated
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let too_big = overflowed || out.len() + i > max;
                if !too_big {
                    out.extend_from_slice(&buf[..i]);
                }
                r.consume(i + 1);
                return Ok(if too_big {
                    LineRead::TooLarge
                } else {
                    LineRead::Line
                });
            }
            None => {
                let n = buf.len();
                if overflowed || out.len() + n > max {
                    overflowed = true;
                    out.clear();
                } else {
                    out.extend_from_slice(buf);
                }
                r.consume(n);
            }
        }
    }
}

fn send_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    profiler::faultpoint!("serve:respond");
    // Streamed from the borrowed response: the report tree is neither
    // cloned nor rebuilt.
    let mut w = jsonio::Writer::compact();
    jsonio::WriteJson::write_json(resp, &mut w);
    let mut line = w.into_string();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

fn error_response(id: u64, kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error(ErrorBody {
        id,
        kind,
        message: message.into(),
        retry_after_ms: None,
        partial: None,
    })
}

/// Serve one connection: read request lines, answer each in order.
/// `status`/`shutdown` are answered inline (they must work under
/// overload); `analyze` goes through admission control and blocks this
/// connection — not the daemon — until its worker replies.
fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    profiler::faultpoint!("serve:accept");
    let _ = stream.set_read_timeout(Some(shared.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        match read_line_bounded(&mut reader, shared.cfg.max_request_bytes, &mut line) {
            Ok(LineRead::Line) => {
                if !handle_request_line(shared, &mut stream, &line) {
                    break;
                }
            }
            Ok(LineRead::TooLarge) => {
                // The oversized line was drained to its newline, so the
                // session survives the typed rejection.
                if send_response(
                    &mut stream,
                    &error_response(
                        0,
                        ErrorKind::TooLarge,
                        format!("request exceeds {} bytes", shared.cfg.max_request_bytes),
                    ),
                )
                .is_err()
                {
                    break;
                }
            }
            // Clean EOF, death mid-request, read timeout, reset: this
            // connection is done either way.
            Ok(LineRead::Eof) | Ok(LineRead::Truncated) | Err(_) => break,
        }
    }
}

/// Decode and dispatch one request line. Returns `false` when the
/// connection should close.
fn handle_request_line(shared: &Arc<Shared>, stream: &mut TcpStream, line: &[u8]) -> bool {
    profiler::faultpoint!("serve:decode");
    if line.iter().all(|b| b.is_ascii_whitespace()) {
        return true; // tolerate blank keep-alive lines
    }
    let Ok(text) = std::str::from_utf8(line) else {
        return send_response(
            stream,
            &error_response(0, ErrorKind::Malformed, "request is not UTF-8"),
        )
        .is_ok();
    };
    let limits = ParseLimits {
        max_bytes: shared.cfg.max_request_bytes,
        max_depth: shared.cfg.max_json_depth,
    };
    let value = match Value::parse_with_limits(text, &limits) {
        Ok(v) => v,
        Err(e) => {
            let kind = match e.kind {
                ParseErrorKind::TooLarge => ErrorKind::TooLarge,
                ParseErrorKind::TooDeep | ParseErrorKind::Syntax => ErrorKind::Malformed,
            };
            return send_response(stream, &error_response(0, kind, e.to_string())).is_ok();
        }
    };
    // Salvage the correlation id even from requests that fail validation,
    // so clients can match the error to the job they sent.
    let id = value.get("id").and_then(Value::as_u64).unwrap_or(0);
    let req = match Request::from_json(&value) {
        Ok(r) => r,
        Err(msg) => {
            return send_response(stream, &error_response(id, ErrorKind::Malformed, msg)).is_ok()
        }
    };
    match req {
        Request::Status { id } => send_response(
            stream,
            &Response::Status {
                id,
                status: shared.status(),
            },
        )
        .is_ok(),
        Request::Shutdown { id } => {
            shared.shutdown_requested.store(true, Ordering::Release);
            shared.begin_drain();
            let _ = send_response(stream, &Response::ShutdownAck { id });
            false
        }
        Request::Analyze {
            id,
            name,
            source,
            options,
        } => {
            let resp = submit_job(shared, id, name, source, options);
            send_response(stream, &resp).is_ok()
        }
    }
}

/// Admission control + the wait for the job's worker to answer.
fn submit_job(
    shared: &Arc<Shared>,
    id: u64,
    name: String,
    source: String,
    options: JobOptions,
) -> Response {
    if shared.draining() {
        return error_response(
            id,
            ErrorKind::ShuttingDown,
            "daemon is draining and accepts no new work",
        );
    }
    let (reply, result) = mpsc::channel();
    {
        let mut q = lock(&shared.queue);
        if q.len() >= shared.cfg.queue_cap {
            drop(q);
            shared.jobs_shed.fetch_add(1, Ordering::Relaxed);
            return Response::Error(ErrorBody {
                id,
                kind: ErrorKind::Overloaded,
                message: format!("job queue is full ({} jobs)", shared.cfg.queue_cap),
                retry_after_ms: Some(shared.retry_after_ms()),
                partial: None,
            });
        }
        q.push_back(Job {
            id,
            name,
            source,
            options,
            reply,
        });
    }
    shared.queue_cv.notify_one();
    // The worker (or the drain purge) always answers; a dropped sender
    // without an answer means the job was lost to a defect we did not
    // model, which still must not take the connection down silently.
    result
        .recv()
        .unwrap_or_else(|_| error_response(id, ErrorKind::Panic, "job was lost by the worker pool"))
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.draining() {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let id = job.id;
        let reply = job.reply.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(shared, job)));
        let resp = match outcome {
            Ok(resp) => resp,
            Err(payload) => {
                // The job crashed inside the pipeline; the worker absorbs
                // it and stays in the pool.
                shared.worker_recoveries.fetch_add(1, Ordering::Relaxed);
                error_response(id, ErrorKind::Panic, panic_message(payload.as_ref()))
            }
        };
        match &resp {
            Response::Report { .. } => shared.jobs_done.fetch_add(1, Ordering::Relaxed),
            _ => shared.jobs_failed.fetch_add(1, Ordering::Relaxed),
        };
        let _ = reply.send(resp);
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

/// Run one job through the staged pipeline. Everything here executes
/// under the worker's `catch_unwind`.
fn run_job(shared: &Arc<Shared>, job: Job) -> Response {
    profiler::faultpoint!("serve:job-start");
    let t0 = Instant::now();

    let engine = match &job.options.engine {
        Some(spec) => match EngineKind::parse(spec) {
            Ok(e) => Some(e),
            Err(msg) => return error_response(job.id, ErrorKind::Malformed, msg),
        },
        None => None,
    };

    let (program, cached) = match lookup_program(shared, &job.name, &job.source) {
        Ok(pair) => pair,
        Err(e) => return error_response(job.id, ErrorKind::Compile, e.to_string()),
    };

    let mut analysis = Analysis::new()
        .with_static(job.options.statics)
        .engine(engine.unwrap_or_else(|| EngineKind::auto_for(&program)))
        .on_progress(|ev| {
            if matches!(ev, StageEvent::Profiled { .. }) {
                profiler::faultpoint!("serve:mid-job");
            }
        });
    if job.options.no_skip {
        analysis = analysis.affine_skip(false);
    }
    analysis = analysis.budget(job_budget(shared, &job.options));

    match analysis.analyze_program(&program) {
        Ok(report) => Response::Report {
            id: job.id,
            cached,
            elapsed_ms: t0.elapsed().as_millis() as u64,
            report: report.to_doc(&program).to_json(),
        },
        Err(Error::Compile(e)) => error_response(job.id, ErrorKind::Compile, e.to_string()),
        Err(Error::Runtime(e)) => error_response(job.id, ErrorKind::Runtime, e.to_string()),
        Err(Error::DeadlineExceeded { partial }) => Response::Error(ErrorBody {
            id: job.id,
            kind: ErrorKind::Deadline,
            message: format!(
                "deadline exceeded after {} steps ({} dependences profiled)",
                partial.steps,
                partial.deps.len()
            ),
            retry_after_ms: None,
            partial: Some(PartialStats {
                steps: partial.steps,
                dependences: partial.deps.len() as u64,
            }),
        }),
    }
}

/// Per-job [`Budget`]: the request's own limits, defaulting to an equal
/// slice of the configured memory pool and the configured deadline.
fn job_budget(shared: &Arc<Shared>, options: &JobOptions) -> Budget {
    let slice = shared
        .cfg
        .max_memory
        .map(|total| (total / shared.cfg.workers.max(1)).max(1));
    Budget {
        max_memory_bytes: options.max_memory.map(|m| m as usize).or(slice),
        deadline: options
            .deadline_ms
            .map(Duration::from_millis)
            .or(shared.cfg.default_deadline),
    }
}

// ---------------------------------------------------------------------------
// Compiled-program cache
// ---------------------------------------------------------------------------

fn cache_key(name: &str, source: &str) -> u64 {
    let mut h = fxhash::FxHasher::default();
    h.write(name.as_bytes());
    h.write_u8(0);
    h.write(source.as_bytes());
    h.finish()
}

/// Rough resident-size estimate of a compiled program: source text plus
/// the decoded instruction streams and static memory layout. Only has to
/// be consistent, not exact — it is what the cache gauge admits against.
fn program_bytes(source: &str, program: &interp::Program) -> usize {
    source.len()
        + program.num_decoded_ops() * 16
        + program.footprint_words() * 8
        + std::mem::size_of::<interp::Program>()
}

/// Fetch (or compile and cache) the program for `source`. Returns the
/// shared program and whether it was a cache hit.
fn lookup_program(
    shared: &Arc<Shared>,
    name: &str,
    source: &str,
) -> Result<(Arc<interp::Program>, bool), lang::CompileError> {
    let key = cache_key(name, source);
    {
        let mut c = lock(&shared.cache);
        c.tick += 1;
        let tick = c.tick;
        if let Some(e) = c.entries.iter_mut().find(|e| e.key == key) {
            e.last_use = tick;
            let program = e.program.clone();
            drop(c);
            shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((program, true));
        }
    }
    shared.cache_misses.fetch_add(1, Ordering::Relaxed);
    let program = Arc::new(interp::Program::new(lang::compile(source, name)?));
    admit_program(
        shared,
        key,
        program.clone(),
        program_bytes(source, &program),
    );
    Ok((program, false))
}

/// Admit a freshly compiled program into the cache through the shared
/// gauge, evicting LRU entries under pressure. A program too large for
/// the whole cache is simply not cached (graceful degradation: misses,
/// never OOM).
fn admit_program(shared: &Arc<Shared>, key: u64, program: Arc<interp::Program>, bytes: usize) {
    let mut c = lock(&shared.cache);
    if c.entries.iter().any(|e| e.key == key) {
        return; // a concurrent miss beat us to it
    }
    while shared
        .cache_gauge
        .try_adjust(bytes, shared.cfg.cache_bytes)
        .is_err()
    {
        let Some(lru) = c
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_use)
            .map(|(i, _)| i)
        else {
            return; // cache empty and still no room: skip caching
        };
        let evicted = c.entries.remove(lru);
        shared.cache_gauge.adjust(-(evicted.bytes as isize));
        shared.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }
    c.tick += 1;
    let tick = c.tick;
    c.entries.push(CacheEntry {
        key,
        program,
        bytes,
        last_use: tick,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_line_reader_enforces_the_cap_and_framing() {
        let mut out = Vec::new();
        let mut r = BufReader::new(&b"{\"a\":1}\nrest\n"[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 64, &mut out).unwrap(),
            LineRead::Line
        ));
        assert_eq!(out, b"{\"a\":1}");
        assert!(matches!(
            read_line_bounded(&mut r, 64, &mut out).unwrap(),
            LineRead::Line
        ));
        assert_eq!(out, b"rest");
        assert!(matches!(
            read_line_bounded(&mut r, 64, &mut out).unwrap(),
            LineRead::Eof
        ));

        // An oversized line is discarded through its newline, so the
        // next request on the same session still parses.
        let mut r = BufReader::new(&b"0123456789\nafter\n"[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 4, &mut out).unwrap(),
            LineRead::TooLarge
        ));
        assert!(matches!(
            read_line_bounded(&mut r, 64, &mut out).unwrap(),
            LineRead::Line
        ));
        assert_eq!(out, b"after");

        // Oversized *and* truncated: not a clean EOF.
        let mut r = BufReader::new(&b"0123456789"[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 4, &mut out).unwrap(),
            LineRead::Truncated
        ));

        let mut r = BufReader::new(&b"no newline"[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 64, &mut out).unwrap(),
            LineRead::Truncated
        ));
    }

    #[test]
    fn cache_evicts_lru_under_pressure_and_skips_oversized() {
        let cfg = ServeConfig {
            cache_bytes: 10_000,
            ..ServeConfig::default()
        };
        let shared = Arc::new(Shared {
            local_addr: "127.0.0.1:1".parse().unwrap(),
            started: Instant::now(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            accepting: AtomicBool::new(true),
            shutdown_requested: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            worker_recoveries: AtomicU64::new(0),
            conn_recoveries: AtomicU64::new(0),
            cache: Mutex::new(ProgramCache::default()),
            cache_gauge: MemGauge::new(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            cfg,
        });
        let src = "fn main() { int x = 0; x = x + 1; }";
        let program = Arc::new(interp::Program::new(lang::compile(src, "m").unwrap()));

        admit_program(&shared, 1, program.clone(), 6_000);
        admit_program(&shared, 2, program.clone(), 6_000);
        // Key 1 is LRU and must go to make room.
        assert_eq!(shared.cache_evictions.load(Ordering::Relaxed), 1);
        let keys: Vec<u64> = lock(&shared.cache).entries.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![2]);

        // Larger than the whole cache: evicts everything, then gives up.
        admit_program(&shared, 3, program.clone(), 100_000);
        assert!(lock(&shared.cache).entries.is_empty());
        assert_eq!(shared.cache_gauge.tracked(), 0);

        // And the cache still works afterwards.
        admit_program(&shared, 4, program, 6_000);
        assert_eq!(lock(&shared.cache).entries.len(), 1);
    }
}
