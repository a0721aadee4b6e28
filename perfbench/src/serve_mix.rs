//! The `serve_mix` workload: a `discopop serve` daemon with its default
//! configuration in a child process, fed seeded corpus sources by at most
//! two client threads, each with one connection at a time. A closed-loop
//! phase measures throughput; an open-loop phase at a fixed offered rate
//! measures latency from each request's due time.

use crate::gen::{self, Request, Source};
use crate::layers::{self, LayerInput, ServeLayers, UnitCounts};
use crate::pipeline::{self, Mode};
use crate::stats::{self, median, Metrics, Tally};
use crate::trace::Tracer;
use crate::{Args, Outcome, GEN_REPS};
use discopop::protocol::{JobOptions, Request as Wire, Response, StatusBody};
use discopop::serve::ServeConfig;
use discopop::submit::{submit, SubmitConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads, and so connections open at once.
const CLIENTS: u64 = 2;
/// Offered rate of the open-loop phase: about a seventh of the closed-loop
/// throughput measured on a 2-core host (~400 req/s), so latency measures
/// service rather than a queue that host noise can tip into saturation.
const OPEN_RATE_PER_S: f64 = 60.0;
/// Seeded requests; the phases cycle through them.
const REQUESTS: usize = 4096;
/// Fewest in-process passes over the corpus in one call of
/// [`base_passes`]: the expected reports and the per-program baseline come
/// from those before the load.
const BASE_PASSES: usize = 9;
/// Share of the run given to in-process passes after the load, which
/// `analyze_s` counts with those before it: a window of a few seconds, so
/// a short burst of other load on the host does not move the median. The
/// open and closed loops split the rest of the run.
const BASE_SHARE: f64 = 0.2;
/// Daemon starts during set-up; the median counts.
const DAEMON_STARTS: usize = 31;

/// `perfbench daemon`: run the daemon with its default configuration
/// (two workers, queue of 16, static pass off) on an ephemeral loopback
/// port, print the address, and serve until a client asks it to shut down
/// or standard input closes (the benchmark died).
pub fn daemon_main() -> ExitCode {
    let server = match discopop::serve::serve(ServeConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench daemon: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", server.local_addr());
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    let orphaned = Arc::new(AtomicBool::new(false));
    {
        let orphaned = orphaned.clone();
        // Blocks until the parent's end of the pipe closes; the process
        // exits without joining it.
        std::thread::spawn(move || {
            let _ = std::io::stdin().read_to_end(&mut Vec::new());
            orphaned.store(true, Ordering::SeqCst);
        });
    }
    while !server.shutdown_requested() && !orphaned.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(10));
    }
    if server.shutdown().drained {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A running daemon child. Dropping it kills and reaps the child.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Start the daemon and wait until it accepts a connection.
    fn start() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("daemon stdout")?;
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let daemon = Daemon {
            child,
            addr: line.trim().to_string(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while std::net::TcpStream::connect(&daemon.addr).is_err() {
            if Instant::now() > deadline {
                return Err(format!("daemon at `{}` never accepted", daemon.addr));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    fn cfg(&self) -> SubmitConfig {
        SubmitConfig {
            addr: self.addr.clone(),
            attempts: 1,
            ..SubmitConfig::default()
        }
    }

    fn status(&self) -> Result<StatusBody, String> {
        match submit(&self.cfg(), &Wire::Status { id: 0 }) {
            Ok(Response::Status { status, .. }) => Ok(status),
            other => Err(format!("status: {other:?}")),
        }
    }

    /// Ask for a drain and wait for the child to exit.
    fn stop(mut self) -> Result<(), String> {
        let ack = submit(&self.cfg(), &Wire::Shutdown { id: 0 });
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(st)) if st.success() && matches!(ack, Ok(Response::ShutdownAck { .. })) => {
                    return Ok(())
                }
                Ok(Some(st)) => return Err(format!("daemon exited with {st}, ack {ack:?}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not drain".to_string()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One answered request.
struct Sample {
    program: usize,
    latency_s: f64,
    /// Open loop only: how late the request was sent after its due time.
    lag_s: f64,
    ok: bool,
}

/// What the client threads share.
struct Load<'a> {
    corpus: &'a [Source],
    requests: &'a [Request],
    expected: &'a [String],
    cfg: SubmitConfig,
    seq: AtomicU64,
}

impl Load<'_> {
    /// Send request number `seq` and check the report against the
    /// in-process one, byte for byte.
    fn send(&self, seq: u64) -> (usize, bool) {
        let req = self.requests[(seq % self.requests.len() as u64) as usize];
        let wire = Wire::Analyze {
            id: seq,
            name: self.corpus[req.program].name.clone(),
            source: req.text(self.corpus, seq),
            options: JobOptions::default(),
        };
        let ok = match submit(&self.cfg, &wire) {
            Ok(Response::Report { report, .. }) => report.to_string() == self.expected[req.program],
            Ok(other) => {
                eprintln!("request {seq}: {other:?}");
                false
            }
            Err(e) => {
                eprintln!("request {seq}: {e}");
                false
            }
        };
        (req.program, ok)
    }

    /// Closed loop: each client sends its next request when the previous
    /// one is answered, until `secs` have passed.
    fn closed(&self, secs: f64, origin: Instant, traced: bool) -> (Vec<Sample>, f64, Tracer) {
        let start = Instant::now();
        let mut tracer = Tracer::new(origin, false);
        let mut samples = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    s.spawn(move || {
                        let mut tr = Tracer::new(origin, traced);
                        let mut out = Vec::new();
                        tr.span("serve.client", client, |tr| {
                            while start.elapsed().as_secs_f64() < secs {
                                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                                let t = Instant::now();
                                let (program, ok) =
                                    tr.span("serve.request", seq, |_| self.send(seq));
                                out.push(Sample {
                                    program,
                                    latency_s: t.elapsed().as_secs_f64(),
                                    lag_s: 0.0,
                                    ok,
                                });
                            }
                        });
                        (out, tr)
                    })
                })
                .collect();
            for h in handles {
                let (out, tr) = h.join().expect("client thread panicked");
                samples.extend(out);
                tracer.absorb(tr);
            }
        });
        (samples, start.elapsed().as_secs_f64(), tracer)
    }

    /// Open loop: request `k` is due at `k / rate`; client `j` sends the
    /// requests with `k % CLIENTS == j`. Latency counts from the due time,
    /// so a stall also charges the requests queued behind it.
    fn open(&self, secs: f64, rate: f64) -> Vec<Sample> {
        let start = Instant::now();
        let total = (secs * rate) as u64;
        let mut samples = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|j| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for k in (j..total).step_by(CLIENTS as usize) {
                            let due = start + Duration::from_secs_f64(k as f64 / rate);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let sent = Instant::now();
                            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                            let (program, ok) = self.send(seq);
                            out.push(Sample {
                                program,
                                latency_s: due.elapsed().as_secs_f64(),
                                lag_s: sent.duration_since(due).as_secs_f64(),
                                ok,
                            });
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                samples.extend(h.join().expect("client thread panicked"));
            }
        });
        samples
    }
}

/// In-process passes over the corpus in the daemon's configuration.
struct Base {
    /// Median analysis time of each program.
    program_s: Vec<f64>,
    pass_s: Vec<f64>,
    /// The analyses of the last pass.
    last: Vec<pipeline::Analyzed>,
}

/// Passes for `secs` seconds, and at least [`BASE_PASSES`].
fn base_passes(
    corpus: &[Source],
    tr: &mut Tracer,
    first_unit: u64,
    secs: f64,
) -> Result<Base, String> {
    let start = Instant::now();
    let mut per_program = vec![Vec::new(); corpus.len()];
    let mut pass_s = Vec::new();
    let mut last = Vec::new();
    while pass_s.len() < BASE_PASSES || start.elapsed().as_secs_f64() < secs {
        let p = pass_s.len();
        last.clear();
        let mut wall = 0.0;
        for (i, src) in corpus.iter().enumerate() {
            let a = pipeline::analyze(src, Mode::Served, tr, first_unit + p as u64)?;
            wall += a.wall_s;
            per_program[i].push(a.wall_s);
            last.push(a);
        }
        pass_s.push(wall);
    }
    Ok(Base {
        program_s: per_program.iter().map(|t| median(t)).collect(),
        pass_s,
        last,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let origin = Instant::now();
    // Set-up: generate the inputs, then start the daemon until it accepts,
    // each several times with the median counted.
    let ((corpus, requests), gen_s) = stats::timed_median(GEN_REPS, || {
        let corpus = gen::corpus(args.seed);
        let requests = gen::requests(args.seed, corpus.len(), REQUESTS);
        (corpus, requests)
    });
    let mut start_s = Vec::new();
    let mut daemon = None;
    for _ in 0..DAEMON_STARTS {
        let t = Instant::now();
        let d = Daemon::start()?;
        start_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = daemon.replace(d) {
            Daemon::stop(old)?;
        }
    }
    let daemon = daemon.expect("at least one daemon start");
    let setup_s = gen_s + median(&start_s);

    // The expected reports and the in-process baseline: the same pipeline
    // the daemon runs, on the same sources.
    let mut off = Tracer::new(origin, false);
    let base = base_passes(&corpus, &mut off, 0, 0.0)?;
    let expected: Vec<String> = base.last.iter().map(|a| a.json.clone()).collect();

    let load = Load {
        corpus: &corpus,
        requests: &requests,
        expected: &expected,
        cfg: daemon.cfg(),
        seq: AtomicU64::new(0),
    };
    // Warm-up, untimed: every program once, so the daemon's first jobs pay
    // its one-time costs and repeated sources can hit. Not part of setup_s:
    // on a shared host the served path's time swings with other load far
    // more than starting the daemon does.
    for (i, src) in corpus.iter().enumerate() {
        let wire = Wire::Analyze {
            id: i as u64,
            name: src.name.clone(),
            source: src.text.clone(),
            options: JobOptions::default(),
        };
        if !matches!(submit(&load.cfg, &wire), Ok(Response::Report { .. })) {
            return Err(format!("warm-up request for {} failed", src.name));
        }
    }
    // The open-loop phase sends a fixed number of requests, so the daemon's
    // peak memory is read after it: the closed loop's request count (and
    // so the number of programs cached) depends on the host's speed.
    let before = daemon.status()?;
    let loop_s = args.seconds * (1.0 - BASE_SHARE) / 2.0;
    let open = load.open(loop_s, OPEN_RATE_PER_S);
    let peak_rss_mb = stats::peak_rss_mb(Some(daemon.child.id()))?;
    let (closed, closed_wall, client_tr) = load.closed(loop_s, origin, args.trace);
    let after = daemon.status()?;
    daemon.stop()?;
    let later = base_passes(&corpus, &mut off, 0, args.seconds * BASE_SHARE)?;
    let pass_s: Vec<f64> = base.pass_s.iter().chain(&later.pass_s).copied().collect();

    let mut tally = Tally::default();
    for s in closed.iter().chain(&open) {
        tally.record(s.ok);
    }
    // The in-process reports, checked once against the oracle.
    for (src, a) in corpus.iter().zip(&base.last) {
        let (digest, printed) = pipeline::oracle(a.compiled.program(), a.engine)?;
        if digest != a.digest() || printed != a.report.profile.printed {
            eprintln!("{}: in-process report disagrees with the oracle", src.name);
            tally.failed = tally.attempted;
        }
    }

    let mut metrics = Metrics::default();
    let mut checks_ok = later.last.iter().zip(&expected).all(|(a, w)| a.json == *w);
    if !checks_ok {
        eprintln!("in-process reports after the load differ from those before it");
    }
    if args.trace {
        let mut tr = Tracer::new(origin, true);
        let traced = base_passes(&corpus, &mut tr, 1 << 32, 0.0)?;
        let mut counts = UnitCounts::default();
        let mut probes = Vec::new();
        for ((src, a), want) in corpus.iter().zip(&traced.last).zip(&expected) {
            checks_ok &= a.json == *want;
            counts.add(src, a);
            probes.push(pipeline::probe(a, Mode::Served, &mut tr, u64::MAX)?);
        }
        tr.absorb(client_tr);
        let layer_sum_frac = layers::layer_sum_frac(&tr, &["analysis", "serve.client"]);
        checks_ok &= (0.9..=1.1).contains(&layer_sum_frac);
        let d = |f: fn(&StatusBody) -> u64| f(&after) - f(&before);
        let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
        let overhead: Vec<f64> = closed
            .iter()
            .map(|s| s.latency_s - base.program_s[s.program])
            .collect();
        let lags: Vec<f64> = open.iter().map(|s| s.lag_s).collect();
        let latencies: Vec<f64> = open.iter().map(|s| s.latency_s).collect();
        metrics = layers::metrics(&LayerInput {
            tracer: &tr,
            counts,
            probe: layers::sum_probes(&probes),
            serve: ServeLayers {
                cache_hit_frac: hits as f64 / (hits + misses).max(1) as f64,
                cache_evictions: d(|s| s.cache_evictions),
                jobs_shed: d(|s| s.jobs_shed),
                jobs_failed: d(|s| s.jobs_failed),
                worker_recoveries: d(|s| s.worker_recoveries),
                overhead_ms: median(&overhead) * 1e3,
                gen_lag_ms: median(&lags) * 1e3,
                latency_p50_ms: median(&latencies) * 1e3,
                latency_tail_ms: stats::tail("open-loop requests", &latencies) * 1e3,
            },
            overhead_frac: median(&traced.pass_s) / median(&pass_s) - 1.0,
            layer_sum_frac,
        });
        crate::write_trace(args, &tr)?;
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("analyze_s", median(&pass_s), "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
        metrics.put("req_per_s", closed.len() as f64 / closed_wall, "req/s");
    }
    Ok(Outcome {
        tally,
        metrics,
        checks_ok,
    })
}
