//! Wire protocol of the analysis service (`discopop serve` / `submit`).
//!
//! Newline-delimited JSON over a byte stream: each request is one JSON
//! object on one line, each response is one JSON object on one line, in
//! request order per connection. Everything rides on the in-tree
//! [`jsonio`] — there is no external wire dependency.
//!
//! # Requests
//!
//! ```json
//! {"type":"analyze","id":1,"name":"demo","source":"fn main() { ... }",
//!  "options":{"engine":"parallel:4","static":true,"deadline_ms":5000,
//!             "max_memory":1048576,"no_skip":false}}
//! {"type":"status","id":2}
//! {"type":"shutdown","id":3}
//! ```
//!
//! # Responses
//!
//! A successful `analyze` answers with the full versioned report document
//! (schema [`crate::report::SCHEMA_VERSION`]) embedded under `report`:
//!
//! ```json
//! {"type":"report","id":1,"cached":false,"elapsed_ms":12,"report":{...}}
//! ```
//!
//! Every failure is a *typed* error document — the job that failed is the
//! only job affected, and the kind tells the client what to do next:
//!
//! ```json
//! {"type":"error","id":1,"kind":"overloaded","message":"queue full",
//!  "retry_after_ms":150}
//! {"type":"error","id":1,"kind":"deadline","message":"deadline exceeded",
//!  "partial":{"steps":81920,"dependences":3}}
//! ```
//!
//! | kind | meaning | retry? |
//! |---|---|---|
//! | `malformed` | unparseable/invalid request (incl. nesting too deep) | no |
//! | `too_large` | request exceeded the server's size cap | no |
//! | `compile` | the submitted source failed to compile | no |
//! | `runtime` | the target program faulted under profiling | no |
//! | `deadline` | per-job deadline expired; `partial` carries progress | maybe, with a larger deadline |
//! | `panic` | the job crashed inside the worker; neighbors unaffected | no |
//! | `overloaded` | admission control shed the job; honor `retry_after_ms` | yes, after backoff |
//! | `shutting_down` | the daemon is draining and accepts no new work | yes, elsewhere/later |

use jsonio::{Value, WriteJson, Writer};

/// Version of this wire protocol, reported by `status`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Per-job knobs of an `analyze` request. All optional; the server falls
/// back to its own defaults (engine auto-selection, the per-worker memory
/// slice, the configured default deadline).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOptions {
    /// Engine spec string (see `discopop engines`); `None` = auto-select
    /// from the compiled program's footprint.
    pub engine: Option<String>,
    /// Run the static pre-pass (adds the `static` report block and arms
    /// the affine skip tier).
    pub statics: bool,
    /// Force the affine skip tier off even with `statics`.
    pub no_skip: bool,
    /// Per-job wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-job tracked-memory ceiling in bytes.
    pub max_memory: Option<u64>,
}

impl JobOptions {
    fn to_json(&self) -> Value {
        fn opt<T: Into<Value>>(v: Option<T>) -> Value {
            v.map(Into::into).unwrap_or(Value::Null)
        }
        Value::object([
            ("engine", opt(self.engine.clone())),
            ("static", Value::from(self.statics)),
            ("no_skip", Value::from(self.no_skip)),
            ("deadline_ms", opt(self.deadline_ms)),
            ("max_memory", opt(self.max_memory)),
        ])
    }

    fn from_json(v: &Value) -> Result<JobOptions, String> {
        if !matches!(v, Value::Object(_)) {
            return Err("`options` must be an object".to_string());
        }
        Ok(JobOptions {
            engine: match v.get("engine") {
                None | Some(Value::Null) => None,
                Some(e) => Some(
                    e.as_str()
                        .ok_or("`options.engine` must be a string")?
                        .to_string(),
                ),
            },
            statics: get_bool_or(v, "static", false),
            no_skip: get_bool_or(v, "no_skip", false),
            deadline_ms: opt_u64(v, "deadline_ms")?,
            max_memory: opt_u64(v, "max_memory")?,
        })
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run the full compile → profile → discover pipeline on `source`.
    Analyze {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Module name (becomes `program` in the report).
        name: String,
        /// Mini-C source text.
        source: String,
        /// Per-job knobs.
        options: JobOptions,
    },
    /// Ask for the daemon's health/queue/cache/recovery counters.
    Status {
        /// Correlation id.
        id: u64,
    },
    /// Ask the daemon to stop accepting and drain in-flight jobs.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

impl Request {
    /// The correlation id of this request.
    pub fn id(&self) -> u64 {
        match self {
            Request::Analyze { id, .. } | Request::Status { id } | Request::Shutdown { id } => *id,
        }
    }

    /// Serialize to a JSON tree (render + `\n` = one wire message).
    pub fn to_json(&self) -> Value {
        match self {
            Request::Analyze {
                id,
                name,
                source,
                options,
            } => Value::object([
                ("type", Value::from("analyze")),
                ("id", Value::from(*id)),
                ("name", Value::from(name.as_str())),
                ("source", Value::from(source.as_str())),
                ("options", options.to_json()),
            ]),
            Request::Status { id } => {
                Value::object([("type", Value::from("status")), ("id", Value::from(*id))])
            }
            Request::Shutdown { id } => {
                Value::object([("type", Value::from("shutdown")), ("id", Value::from(*id))])
            }
        }
    }

    /// Deserialize a request; the error string is safe to echo to clients.
    pub fn from_json(v: &Value) -> Result<Request, String> {
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("request needs a string `type` field")?;
        let id = get_u64_or(v, "id", 0);
        match ty {
            "analyze" => Ok(Request::Analyze {
                id,
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("module")
                    .to_string(),
                source: v
                    .get("source")
                    .and_then(Value::as_str)
                    .ok_or("`analyze` needs a string `source` field")?
                    .to_string(),
                options: match v.get("options") {
                    None | Some(Value::Null) => JobOptions::default(),
                    Some(o) => JobOptions::from_json(o)?,
                },
            }),
            "status" => Ok(Request::Status { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown request type `{other}`")),
        }
    }
}

/// Failure class of an [`ErrorBody`]; see the module table for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unparseable or invalid request (including nesting too deep).
    Malformed,
    /// Request exceeded the server's size cap.
    TooLarge,
    /// Submitted source failed to compile.
    Compile,
    /// Target program faulted at runtime under profiling.
    Runtime,
    /// Per-job deadline expired; [`ErrorBody::partial`] carries progress.
    Deadline,
    /// The job crashed (panic) inside its worker; it was isolated.
    Panic,
    /// Admission control shed the job; honor [`ErrorBody::retry_after_ms`].
    Overloaded,
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
}

impl ErrorKind {
    /// The wire string of this kind.
    pub fn code(&self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Compile => "compile",
            ErrorKind::Runtime => "runtime",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Panic => "panic",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
        }
    }

    /// Parse a wire string.
    pub fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "malformed" => ErrorKind::Malformed,
            "too_large" => ErrorKind::TooLarge,
            "compile" => ErrorKind::Compile,
            "runtime" => ErrorKind::Runtime,
            "deadline" => ErrorKind::Deadline,
            "panic" => ErrorKind::Panic,
            "overloaded" => ErrorKind::Overloaded,
            "shutting_down" => ErrorKind::ShuttingDown,
            _ => return None,
        })
    }

    /// Whether a client should retry the same request after a backoff
    /// (`overloaded`/`shutting_down` are load conditions, not verdicts
    /// about the job itself).
    pub fn is_retryable(&self) -> bool {
        matches!(self, ErrorKind::Overloaded | ErrorKind::ShuttingDown)
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Progress a deadline-tripped job made before the watchdog fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartialStats {
    /// Target instructions executed.
    pub steps: u64,
    /// Distinct dependences found so far.
    pub dependences: u64,
}

/// A typed failure response.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    /// Correlation id of the failed request (0 when the request was too
    /// malformed to carry one).
    pub id: u64,
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// Backoff hint for retryable kinds, in milliseconds.
    pub retry_after_ms: Option<u64>,
    /// Partial progress, on `deadline` errors.
    pub partial: Option<PartialStats>,
}

/// Daemon health/queue/cache/recovery counters, answered to `status`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusBody {
    /// Wire protocol version ([`PROTOCOL_VERSION`]).
    pub protocol: u64,
    /// `false` once the daemon is draining.
    pub accepting: bool,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Worker pool size.
    pub workers: u64,
    /// Jobs waiting in the bounded queue right now.
    pub queue_depth: u64,
    /// Queue capacity (admission control sheds beyond it).
    pub queue_cap: u64,
    /// Jobs currently executing on workers.
    pub in_flight: u64,
    /// Jobs answered with a report.
    pub jobs_done: u64,
    /// Jobs answered with a typed error (compile/runtime/deadline/panic).
    pub jobs_failed: u64,
    /// Jobs shed by admission control (`overloaded`).
    pub jobs_shed: u64,
    /// Worker-level panics recovered (the job got a `panic` error, the
    /// worker survived).
    pub worker_recoveries: u64,
    /// Connection-handler panics recovered (the connection dropped, the
    /// acceptor survived).
    pub conn_recoveries: u64,
    /// Compiled programs resident in the cache.
    pub cache_entries: u64,
    /// Estimated bytes of cached programs (admitted through the shared
    /// memory gauge).
    pub cache_bytes: u64,
    /// Cache hits (compile + decode skipped).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Entries evicted LRU under memory pressure.
    pub cache_evictions: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful analysis: the full versioned report document.
    Report {
        /// Correlation id of the request.
        id: u64,
        /// The compiled program came from the cache.
        cached: bool,
        /// Wall-clock job time in milliseconds.
        elapsed_ms: u64,
        /// The report ([`crate::report::ReportDoc`] as a JSON tree).
        report: Value,
    },
    /// Typed failure.
    Error(ErrorBody),
    /// Status counters.
    Status {
        /// Correlation id of the request.
        id: u64,
        /// The counters.
        status: StatusBody,
    },
    /// Shutdown acknowledged; the daemon is draining.
    ShutdownAck {
        /// Correlation id of the request.
        id: u64,
    },
}

impl Response {
    /// The correlation id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Report { id, .. }
            | Response::Status { id, .. }
            | Response::ShutdownAck { id } => *id,
            Response::Error(e) => e.id,
        }
    }

    /// Serialize to a JSON tree: the [`WriteJson`] walk run into a tree
    /// target. The daemon runs the same walk straight into wire text,
    /// borrowing the report instead of cloning it.
    pub fn to_json(&self) -> Value {
        let mut w = Writer::tree();
        self.write_json(&mut w);
        w.into_value()
    }

    /// Deserialize a response.
    pub fn from_json(v: &Value) -> Result<Response, String> {
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("response needs a string `type` field")?;
        let id = get_u64_or(v, "id", 0);
        match ty {
            "report" => Ok(Response::Report {
                id,
                cached: get_bool_or(v, "cached", false),
                elapsed_ms: get_u64_or(v, "elapsed_ms", 0),
                report: v.get("report").cloned().ok_or("report missing `report`")?,
            }),
            "error" => {
                let kind_str = v
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or("error missing `kind`")?;
                Ok(Response::Error(ErrorBody {
                    id,
                    kind: ErrorKind::parse(kind_str)
                        .ok_or_else(|| format!("unknown error kind `{kind_str}`"))?,
                    message: v
                        .get("message")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    retry_after_ms: v.get("retry_after_ms").and_then(Value::as_u64),
                    partial: v.get("partial").map(|p| PartialStats {
                        steps: get_u64_or(p, "steps", 0),
                        dependences: get_u64_or(p, "dependences", 0),
                    }),
                }))
            }
            "status" => {
                let s = v.get("status").ok_or("status missing `status`")?;
                Ok(Response::Status {
                    id,
                    status: StatusBody {
                        protocol: get_u64_or(s, "protocol", 0),
                        accepting: get_bool_or(s, "accepting", false),
                        uptime_ms: get_u64_or(s, "uptime_ms", 0),
                        workers: get_u64_or(s, "workers", 0),
                        queue_depth: get_u64_or(s, "queue_depth", 0),
                        queue_cap: get_u64_or(s, "queue_cap", 0),
                        in_flight: get_u64_or(s, "in_flight", 0),
                        jobs_done: get_u64_or(s, "jobs_done", 0),
                        jobs_failed: get_u64_or(s, "jobs_failed", 0),
                        jobs_shed: get_u64_or(s, "jobs_shed", 0),
                        worker_recoveries: get_u64_or(s, "worker_recoveries", 0),
                        conn_recoveries: get_u64_or(s, "conn_recoveries", 0),
                        cache_entries: get_u64_or(s, "cache_entries", 0),
                        cache_bytes: get_u64_or(s, "cache_bytes", 0),
                        cache_hits: get_u64_or(s, "cache_hits", 0),
                        cache_misses: get_u64_or(s, "cache_misses", 0),
                        cache_evictions: get_u64_or(s, "cache_evictions", 0),
                    },
                })
            }
            "shutting_down" => Ok(Response::ShutdownAck { id }),
            other => Err(format!("unknown response type `{other}`")),
        }
    }
}

impl WriteJson for Response {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        match self {
            Response::Report {
                id,
                cached,
                elapsed_ms,
                report,
            } => {
                w.field("type", "report");
                w.field("id", id);
                w.field("cached", cached);
                w.field("elapsed_ms", elapsed_ms);
                w.field("report", report);
            }
            Response::Error(e) => {
                w.field("type", "error");
                w.field("id", &e.id);
                w.field("kind", e.kind.code());
                w.field("message", &e.message);
                if let Some(ms) = &e.retry_after_ms {
                    w.field("retry_after_ms", ms);
                }
                if let Some(p) = &e.partial {
                    w.key("partial");
                    w.begin_object();
                    w.field("steps", &p.steps);
                    w.field("dependences", &p.dependences);
                    w.end_object();
                }
            }
            Response::Status { id, status } => {
                w.field("type", "status");
                w.field("id", id);
                w.key("status");
                w.begin_object();
                w.field("protocol", &status.protocol);
                w.field("accepting", &status.accepting);
                w.field("uptime_ms", &status.uptime_ms);
                w.field("workers", &status.workers);
                w.field("queue_depth", &status.queue_depth);
                w.field("queue_cap", &status.queue_cap);
                w.field("in_flight", &status.in_flight);
                w.field("jobs_done", &status.jobs_done);
                w.field("jobs_failed", &status.jobs_failed);
                w.field("jobs_shed", &status.jobs_shed);
                w.field("worker_recoveries", &status.worker_recoveries);
                w.field("conn_recoveries", &status.conn_recoveries);
                w.field("cache_entries", &status.cache_entries);
                w.field("cache_bytes", &status.cache_bytes);
                w.field("cache_hits", &status.cache_hits);
                w.field("cache_misses", &status.cache_misses);
                w.field("cache_evictions", &status.cache_evictions);
                w.end_object();
            }
            Response::ShutdownAck { id } => {
                w.field("type", "shutting_down");
                w.field("id", id);
            }
        }
        w.end_object();
    }
}

fn get_u64_or(v: &Value, key: &str, default: u64) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(default)
}

fn get_bool_or(v: &Value, key: &str, default: bool) -> bool {
    v.get(key).and_then(Value::as_bool).unwrap_or(default)
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`options.{key}` must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Analyze {
                id: 7,
                name: "demo".to_string(),
                source: "fn main() {}".to_string(),
                options: JobOptions {
                    engine: Some("parallel:4".to_string()),
                    statics: true,
                    no_skip: true,
                    deadline_ms: Some(250),
                    max_memory: Some(1 << 20),
                },
            },
            Request::Analyze {
                id: 8,
                name: "d2".to_string(),
                source: "x".to_string(),
                options: JobOptions::default(),
            },
            Request::Status { id: 1 },
            Request::Shutdown { id: 2 },
        ] {
            let wire = req.to_json().to_string();
            let back = Request::from_json(&Value::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, req, "{wire}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Report {
                id: 3,
                cached: true,
                elapsed_ms: 12,
                report: Value::object([("schema_version", Value::from(5u64))]),
            },
            Response::Error(ErrorBody {
                id: 4,
                kind: ErrorKind::Overloaded,
                message: "queue full".to_string(),
                retry_after_ms: Some(150),
                partial: None,
            }),
            Response::Error(ErrorBody {
                id: 5,
                kind: ErrorKind::Deadline,
                message: "deadline exceeded".to_string(),
                retry_after_ms: None,
                partial: Some(PartialStats {
                    steps: 81920,
                    dependences: 3,
                }),
            }),
            Response::Status {
                id: 6,
                status: StatusBody {
                    protocol: PROTOCOL_VERSION as u64,
                    accepting: true,
                    uptime_ms: 1000,
                    workers: 2,
                    queue_depth: 1,
                    queue_cap: 16,
                    in_flight: 2,
                    jobs_done: 10,
                    jobs_failed: 1,
                    jobs_shed: 3,
                    worker_recoveries: 1,
                    conn_recoveries: 0,
                    cache_entries: 2,
                    cache_bytes: 4096,
                    cache_hits: 8,
                    cache_misses: 2,
                    cache_evictions: 1,
                },
            },
            Response::ShutdownAck { id: 9 },
        ] {
            let wire = resp.to_json().to_string();
            let back = Response::from_json(&Value::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, resp, "{wire}");
            // The daemon streams the same walk to text without the tree.
            let mut w = Writer::compact();
            resp.write_json(&mut w);
            assert_eq!(w.into_string(), wire);
        }
    }

    #[test]
    fn malformed_requests_yield_echoable_errors() {
        for bad in [
            r#"{"id":1}"#,
            r#"{"type":"conquer","id":1}"#,
            r#"{"type":"analyze","id":1}"#,
            r#"{"type":"analyze","id":1,"source":"x","options":{"deadline_ms":"soon"}}"#,
            r#"{"type":"analyze","id":1,"source":"x","options":{"engine":7}}"#,
            r#"{"type":"analyze","id":1,"source":"x","options":[1]}"#,
        ] {
            let v = Value::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn error_kinds_round_trip_and_classify() {
        for kind in [
            ErrorKind::Malformed,
            ErrorKind::TooLarge,
            ErrorKind::Compile,
            ErrorKind::Runtime,
            ErrorKind::Deadline,
            ErrorKind::Panic,
            ErrorKind::Overloaded,
            ErrorKind::ShuttingDown,
        ] {
            assert_eq!(ErrorKind::parse(kind.code()), Some(kind));
        }
        assert!(ErrorKind::Overloaded.is_retryable());
        assert!(ErrorKind::ShuttingDown.is_retryable());
        assert!(!ErrorKind::Panic.is_retryable());
        assert!(!ErrorKind::Deadline.is_retryable());
        assert_eq!(ErrorKind::parse("weird"), None);
    }
}
