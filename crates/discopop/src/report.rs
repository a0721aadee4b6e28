//! The versioned JSON wire format of a [`crate::Report`].
//!
//! The in-memory report borrows ids (symbol ids, function indices) that
//! only mean something next to the [`interp::Program`] that produced them,
//! and the workspace's `serde` is an offline no-op shim — so serialization
//! goes through explicit mirror types instead: [`ReportDoc`] resolves every
//! id to its name and carries a `schema_version`. Each mirror type writes
//! itself in one [`WriteJson`] walk — streamed straight to text by
//! [`crate::Report::to_json_string`], or built into a [`jsonio::Value`] by
//! [`ReportDoc::to_json`] — and reads back from a `Value`. Downstream tools
//! consume the JSON; this module is the one place its shape is defined.
//!
//! # Schema (version 6)
//!
//! ```json
//! {
//!   "schema_version": 6,
//!   "program": "demo",
//!   "engine": "serial-perfect",
//!   "profile": {
//!     "steps": 1384, "accesses": 384, "dependences_found": 251,
//!     "profiler_bytes": 73728, "printed": [],
//!     "resource": {"budget_bytes": 1048576, "deadline_ms": null,
//!                  "peak_tracked_bytes": 524288, "fp_rate_estimate": 0.01,
//!                  "deadline_hit": false,
//!                  "degradation_steps": [{"from": "perfect",
//!                    "to": "signature:4096", "bytes_before": 1100000,
//!                    "bytes_after": 300000, "affected": [0, 8192],
//!                    "merged_slots": 0}]},
//!     "dependences": [
//!       {"sink": "1:4", "type": "RAW", "source": "1:2", "var": "sum",
//!        "sink_thread": 0, "source_thread": 0, "carried_by": [0, 1],
//!        "race_hint": false, "count": 63}
//!     ],
//!     "pet": [{"kind": "function", "name": "main", "entries": 1, "iters": 0,
//!              "dyn_instrs": 1384, "start_line": 2, "end_line": 7,
//!              "children": [1]}],
//!     "parallel": null,
//!     "summary": {"loops_skipped": 1, "cycles": 63,
//!                 "synthesized_accesses": 252,
//!                 "fallback_reasons": {"budget": 0, "precondition": 0,
//!                                      "fault": 0},
//!                 "dispatches": 412},
//!     "actors": {"spawned": 3, "peak_live": 3, "sent": 16, "received": 16,
//!                "channels": [{"from": 0, "to": 1, "messages": 8},
//!                             {"from": 1, "to": 2, "messages": 8}],
//!                "channel_digest": 1234567890}
//!   },
//!   "discovery": {
//!     "loops":    [{"start_line": 3, "class": "Doall", "...": "..."}],
//!     "spmd":     [],
//!     "mpmd":     [],
//!     "ranked":   [{"target": {"kind": "loop", "start_line": 3,
//!                              "class": "Doall", "...": "..."},
//!                   "instruction_coverage": 0.62, "local_speedup": 64.0,
//!                   "cu_imbalance": 0.0, "score": 39.7}],
//!     "patterns": [{"name": "geometric decomposition", "loop_line": 3,
//!                   "width": 64}]
//!   },
//!   "static": {
//!     "spawns_threads": false, "affine_ops": 2, "mem_ops": 2,
//!     "loops": [{"func": 0, "func_name": "main", "region": 1,
//!                "start_line": 3, "end_line": 5, "mem_ops": 2,
//!                "affine_ops": 2, "has_iv": true, "trip_count": 64,
//!                "tested_pairs": 3, "proven_pairs": 3,
//!                "doall_candidate": true}],
//!     "claims": [{"func": 0, "region": 1, "var": "a",
//!                 "line_a": 4, "line_b": 4}],
//!     "lints": [{"kind": "const-oob", "func": "main", "var": "a",
//!                "line": 9, "message": "..."}]
//!   }
//! }
//! ```
//!
//! The `static` block is only present for runs with the static pre-pass
//! enabled ([`crate::Analysis::with_static`]); the `actors` block only
//! for targets that spawned a second actor or passed a message.

use crate::Report;
use discovery::ranking::SuggestionTarget;
use discovery::{Pattern, SpmdKind};
use jsonio::{Value, WriteJson, Writer};
use profiler::{Dep, DepType, PetNodeKind, SrcLoc};
use std::sync::Arc;

/// Version stamp of the JSON schema written by [`ReportDoc::to_json`].
///
/// Version history:
/// - **1**: initial schema.
/// - **2**: `profile.parallel` gained the adaptive-transport statistics
///   `combined`, `merges`, `queue_stalls`, and `spawned_workers`. Version-1
///   documents are still read; the new fields default to 0.
/// - **3**: `profile` gained the `resource` block (budget, peak tracked
///   bytes, degradation ladder, estimated FP rate, deadline flag) for
///   governed runs, and `profile.parallel` gained `worker_recoveries`.
///   Version-1/2 documents are still read; `resource` defaults to absent
///   and `worker_recoveries` to 0.
/// - **4**: new top-level `static` block (per-loop affine coverage,
///   statically-proven independence claims, lint findings) for runs with
///   the static pre-pass enabled. Version-1/2/3 documents are still read;
///   `static` defaults to absent.
/// - **5**: `profile` gained the `summary` block (affine skip tier
///   accounting: plan-replayed loops, synthesized accesses, fallback
///   reasons, interpreter dispatches). Version-1..4 documents are still
///   read; `summary` defaults to absent.
/// - **6**: `profile` gained the `actors` block (actors spawned, peak
///   live, messages sent/received, per-channel matrix plus its digest)
///   for targets that run under the actor scheduler. Version-1..5
///   documents are still read; `actors` defaults to absent.
pub const SCHEMA_VERSION: u32 = 6;

/// Oldest schema version [`ReportDoc::from_json`] still reads.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// Error produced when a JSON document does not match the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "report schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

type DocResult<T> = Result<T, SchemaError>;

fn err<T>(msg: impl Into<String>) -> DocResult<T> {
    Err(SchemaError(msg.into()))
}

fn field<'a>(v: &'a Value, key: &str) -> DocResult<&'a Value> {
    v.get(key)
        .ok_or_else(|| SchemaError(format!("missing field `{key}`")))
}

fn get_str(v: &Value, key: &str) -> DocResult<String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| SchemaError(format!("`{key}` must be a string")))
}

fn get_u64(v: &Value, key: &str) -> DocResult<u64> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| SchemaError(format!("`{key}` must be a non-negative integer")))
}

/// `get_u64` for fields added after schema version 1: absent means
/// `default` (the migration path for older documents).
fn get_u64_or(v: &Value, key: &str, default: u64) -> DocResult<u64> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_u64()
            .ok_or_else(|| SchemaError(format!("`{key}` must be a non-negative integer"))),
    }
}

fn get_u32(v: &Value, key: &str) -> DocResult<u32> {
    u32::try_from(get_u64(v, key)?).map_err(|_| SchemaError(format!("`{key}` overflows u32")))
}

fn get_f64(v: &Value, key: &str) -> DocResult<f64> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| SchemaError(format!("`{key}` must be a number")))
}

fn get_bool(v: &Value, key: &str) -> DocResult<bool> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| SchemaError(format!("`{key}` must be a boolean")))
}

fn get_array<'a>(v: &'a Value, key: &str) -> DocResult<&'a [Value]> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| SchemaError(format!("`{key}` must be an array")))
}

fn get_str_array(v: &Value, key: &str) -> DocResult<Vec<String>> {
    get_array(v, key)?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| SchemaError(format!("`{key}` entries must be strings")))
        })
        .collect()
}

fn checked_u32(n: u64, what: &str) -> DocResult<u32> {
    u32::try_from(n).map_err(|_| SchemaError(format!("{what} overflows u32")))
}

fn pair_u32(v: &Value, what: &str) -> DocResult<(u32, u32)> {
    match v.as_array() {
        Some([a, b]) => match (a.as_u64(), b.as_u64()) {
            (Some(a), Some(b)) => Ok((checked_u32(a, what)?, checked_u32(b, what)?)),
            _ => err(format!("{what} must hold two integers")),
        },
        _ => err(format!("{what} must be a two-element array")),
    }
}

fn spans_from(v: &Value, key: &str) -> DocResult<Vec<(u32, u32)>> {
    get_array(v, key)?
        .iter()
        .map(|s| pair_u32(s, key))
        .collect()
}

/// A source location as DiscoPoP writes it, `file:line`, without
/// allocating.
fn write_loc(w: &mut Writer, loc: SrcLoc) {
    fn digits(buf: &mut [u8], mut end: usize, mut n: u32) -> usize {
        loop {
            end -= 1;
            buf[end] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return end;
            }
        }
    }
    let mut buf = [0u8; 21];
    let mut start = digits(&mut buf, 21, loc.line);
    start -= 1;
    buf[start] = b':';
    start = digits(&mut buf, start, loc.file);
    w.str(std::str::from_utf8(&buf[start..]).unwrap_or_default());
}

/// Inverse of [`write_loc`]: `file:line`, both decimal `u32`s.
fn get_loc(v: &Value, key: &str) -> DocResult<SrcLoc> {
    let text = field(v, key)?
        .as_str()
        .ok_or_else(|| SchemaError(format!("`{key}` must be a string")))?;
    // Digits only: `parse` alone would also take a leading `+`.
    let number = |s: &str| {
        if s.bytes().all(|b| b.is_ascii_digit()) {
            s.parse::<u32>().ok()
        } else {
            None
        }
    };
    match text.split_once(':').map(|(f, l)| (number(f), number(l))) {
        Some((Some(file), Some(line))) => Ok(SrcLoc { file, line }),
        _ => err(format!("`{key}` must be `file:line`, got `{text}`")),
    }
}

/// Variable names shared per symbol: every [`DepDoc`] on one variable
/// holds the same `Arc<str>`.
struct VarNames<'p> {
    program: &'p interp::Program,
    names: Vec<Option<Arc<str>>>,
    star: Arc<str>,
}

impl<'p> VarNames<'p> {
    fn new(program: &'p interp::Program) -> Self {
        VarNames {
            program,
            names: vec![None; program.num_symbols()],
            star: Arc::from("*"),
        }
    }

    fn get(&mut self, var: u32) -> Arc<str> {
        if var == u32::MAX {
            return self.star.clone();
        }
        let program = self.program;
        self.names[var as usize]
            .get_or_insert_with(|| Arc::from(program.symbol(var)))
            .clone()
    }
}

/// One merged dependence, fully name-resolved. `sink`/`source` are
/// written in the DiscoPoP `file:line` notation and `ty` as `RAW` /
/// `WAR` / `WAW` / `INIT`.
#[derive(Debug, Clone, PartialEq)]
pub struct DepDoc {
    /// Location of the later access.
    pub sink: SrcLoc,
    /// Dependence type.
    pub ty: DepType,
    /// Location of the earlier access.
    pub source: SrcLoc,
    /// Variable name (`*` for INIT bookkeeping entries), shared by every
    /// entry on the same variable.
    pub var: Arc<str>,
    /// Thread that executed the sink.
    pub sink_thread: u32,
    /// Thread that executed the source.
    pub source_thread: u32,
    /// `(function, region)` of the carrying loop, if loop-carried.
    pub carried_by: Option<(u32, u32)>,
    /// Timestamp inversion observed (§2.3.4).
    pub race_hint: bool,
    /// Occurrences merged into this entry.
    pub count: u64,
}

impl DepDoc {
    fn from_dep(names: &mut VarNames<'_>, d: &Dep, count: u64) -> DepDoc {
        DepDoc {
            sink: d.sink,
            ty: d.ty,
            source: d.source,
            var: names.get(d.var),
            sink_thread: d.sink_thread,
            source_thread: d.source_thread,
            carried_by: d.carried_by,
            race_hint: d.race_hint,
            count,
        }
    }

    fn from_json(v: &Value) -> DocResult<DepDoc> {
        let ty = field(v, "type")?
            .as_str()
            .ok_or_else(|| SchemaError("`type` must be a string".into()))?;
        Ok(DepDoc {
            sink: get_loc(v, "sink")?,
            ty: DepType::parse(ty)
                .ok_or_else(|| SchemaError(format!("unknown dependence type `{ty}`")))?,
            source: get_loc(v, "source")?,
            var: Arc::from(get_str(v, "var")?),
            sink_thread: get_u32(v, "sink_thread")?,
            source_thread: get_u32(v, "source_thread")?,
            carried_by: match field(v, "carried_by")? {
                Value::Null => None,
                other => Some(pair_u32(other, "carried_by")?),
            },
            race_hint: get_bool(v, "race_hint")?,
            count: get_u64(v, "count")?,
        })
    }
}

impl WriteJson for DepDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.key("sink");
        write_loc(w, self.sink);
        w.field("type", self.ty.as_str());
        w.key("source");
        write_loc(w, self.source);
        w.field("var", &self.var);
        w.field("sink_thread", &self.sink_thread);
        w.field("source_thread", &self.source_thread);
        w.field("carried_by", &self.carried_by);
        w.field("race_hint", &self.race_hint);
        w.field("count", &self.count);
        w.end_object();
    }
}

/// One PET node (§2.3.6), with function names resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct PetNodeDoc {
    /// `root`, `function`, or `loop`.
    pub kind: String,
    /// Function name (functions only, empty otherwise).
    pub name: String,
    /// Times entered under this parent.
    pub entries: u64,
    /// Loop iterations (loops only).
    pub iters: u64,
    /// Inclusive dynamic instructions.
    pub dyn_instrs: u64,
    /// First source line.
    pub start_line: u32,
    /// Last source line.
    pub end_line: u32,
    /// Child node indices into the node list.
    pub children: Vec<u64>,
}

impl PetNodeDoc {
    fn from_node(program: &interp::Program, n: &profiler::PetNode) -> PetNodeDoc {
        let (kind, name) = match n.kind {
            PetNodeKind::Root => ("root", String::new()),
            PetNodeKind::Function(f) => (
                "function",
                program
                    .module
                    .functions
                    .get(f as usize)
                    .map(|f| f.name.clone())
                    .unwrap_or_default(),
            ),
            PetNodeKind::Loop(_, _) => ("loop", String::new()),
        };
        PetNodeDoc {
            kind: kind.to_string(),
            name,
            entries: n.entries,
            iters: n.iters,
            dyn_instrs: n.dyn_instrs,
            start_line: n.start_line,
            end_line: n.end_line,
            children: n.children.iter().map(|&c| c as u64).collect(),
        }
    }

    fn from_json(v: &Value) -> DocResult<PetNodeDoc> {
        Ok(PetNodeDoc {
            kind: get_str(v, "kind")?,
            name: get_str(v, "name")?,
            entries: get_u64(v, "entries")?,
            iters: get_u64(v, "iters")?,
            dyn_instrs: get_u64(v, "dyn_instrs")?,
            start_line: get_u32(v, "start_line")?,
            end_line: get_u32(v, "end_line")?,
            children: get_array(v, "children")?
                .iter()
                .map(|c| {
                    c.as_u64()
                        .ok_or_else(|| SchemaError("`children` entries must be integers".into()))
                })
                .collect::<DocResult<_>>()?,
        })
    }
}

impl WriteJson for PetNodeDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("kind", &self.kind);
        w.field("name", &self.name);
        w.field("entries", &self.entries);
        w.field("iters", &self.iters);
        w.field("dyn_instrs", &self.dyn_instrs);
        w.field("start_line", &self.start_line);
        w.field("end_line", &self.end_line);
        w.field("children", &self.children);
        w.end_object();
    }
}

/// Parallel-engine transport statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelDoc {
    /// Chunks delivered (inline-processed or shipped to workers).
    pub chunks: u64,
    /// Hot-address rebalance operations performed.
    pub rebalances: u64,
    /// Accesses absorbed by producer-side repeat combining (schema ≥ 2).
    pub combined: u64,
    /// Underloaded-partition merges performed (schema ≥ 2).
    pub merges: u64,
    /// Full-queue retries the producer suffered (schema ≥ 2).
    pub queue_stalls: u64,
    /// Worker threads actually spawned; 0 = fully inline (schema ≥ 2).
    pub spawned_workers: u64,
    /// Panicked workers recovered by draining their partition back inline
    /// (schema ≥ 3).
    pub worker_recoveries: u64,
    /// Accesses processed per partition.
    pub worker_processed: Vec<u64>,
}

impl ParallelDoc {
    fn from_json(v: &Value) -> DocResult<ParallelDoc> {
        Ok(ParallelDoc {
            chunks: get_u64(v, "chunks")?,
            rebalances: get_u64(v, "rebalances")?,
            combined: get_u64_or(v, "combined", 0)?,
            merges: get_u64_or(v, "merges", 0)?,
            queue_stalls: get_u64_or(v, "queue_stalls", 0)?,
            spawned_workers: get_u64_or(v, "spawned_workers", 0)?,
            worker_recoveries: get_u64_or(v, "worker_recoveries", 0)?,
            worker_processed: get_array(v, "worker_processed")?
                .iter()
                .map(|w| {
                    w.as_u64().ok_or_else(|| {
                        SchemaError("`worker_processed` entries must be integers".into())
                    })
                })
                .collect::<DocResult<_>>()?,
        })
    }
}

impl WriteJson for ParallelDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("chunks", &self.chunks);
        w.field("rebalances", &self.rebalances);
        w.field("combined", &self.combined);
        w.field("merges", &self.merges);
        w.field("queue_stalls", &self.queue_stalls);
        w.field("spawned_workers", &self.spawned_workers);
        w.field("worker_recoveries", &self.worker_recoveries);
        w.field("worker_processed", &self.worker_processed);
        w.end_object();
    }
}

/// One degradation-ladder rung of a governed run (schema ≥ 3).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationStepDoc {
    /// Tier before the step (`perfect` or `signature:<slots>`).
    pub from: String,
    /// Tier after the step.
    pub to: String,
    /// Tracked bytes that triggered the step.
    pub bytes_before: u64,
    /// Tracked bytes immediately after the step.
    pub bytes_after: u64,
    /// `[lo, hi]` word-address range whose tracking became approximate,
    /// when enumerable.
    pub affected: Option<(u64, u64)>,
    /// Slot pairs merged by a halving step.
    pub merged_slots: u64,
}

impl DegradationStepDoc {
    fn from_json(v: &Value) -> DocResult<DegradationStepDoc> {
        let affected = match field(v, "affected")? {
            Value::Null => None,
            other => match other.as_array() {
                Some([a, b]) => match (a.as_u64(), b.as_u64()) {
                    (Some(a), Some(b)) => Some((a, b)),
                    _ => return err("`affected` must hold two integers"),
                },
                _ => return err("`affected` must be a two-element array or null"),
            },
        };
        Ok(DegradationStepDoc {
            from: get_str(v, "from")?,
            to: get_str(v, "to")?,
            bytes_before: get_u64(v, "bytes_before")?,
            bytes_after: get_u64(v, "bytes_after")?,
            affected,
            merged_slots: get_u64(v, "merged_slots")?,
        })
    }
}

impl WriteJson for DegradationStepDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("from", &self.from);
        w.field("to", &self.to);
        w.field("bytes_before", &self.bytes_before);
        w.field("bytes_after", &self.bytes_after);
        w.field("affected", &self.affected);
        w.field("merged_slots", &self.merged_slots);
        w.end_object();
    }
}

/// Resource accounting of a governed run (schema ≥ 3). Absent for
/// ungoverned runs and in older documents.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceDoc {
    /// Configured memory ceiling in bytes, if any.
    pub budget_bytes: Option<u64>,
    /// Configured deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// High-water mark of tracked profiler bytes.
    pub peak_tracked_bytes: u64,
    /// Ladder rungs taken, in order.
    pub degradation_steps: Vec<DegradationStepDoc>,
    /// Estimated false-positive probability per probe for signature-mode
    /// regions; `0.0` while the run stayed exact.
    pub fp_rate_estimate: f64,
    /// `true` when the run hit its deadline and the profile is partial.
    pub deadline_hit: bool,
}

impl ResourceDoc {
    fn from_json(v: &Value) -> DocResult<ResourceDoc> {
        let opt_u64 = |key: &str| -> DocResult<Option<u64>> {
            match field(v, key)? {
                Value::Null => Ok(None),
                other => Ok(Some(other.as_u64().ok_or_else(|| {
                    SchemaError(format!("`{key}` must be an integer"))
                })?)),
            }
        };
        Ok(ResourceDoc {
            budget_bytes: opt_u64("budget_bytes")?,
            deadline_ms: opt_u64("deadline_ms")?,
            peak_tracked_bytes: get_u64(v, "peak_tracked_bytes")?,
            degradation_steps: get_array(v, "degradation_steps")?
                .iter()
                .map(DegradationStepDoc::from_json)
                .collect::<DocResult<_>>()?,
            fp_rate_estimate: get_f64(v, "fp_rate_estimate")?,
            deadline_hit: get_bool(v, "deadline_hit")?,
        })
    }

    fn from_stats(r: &profiler::ResourceStats) -> ResourceDoc {
        ResourceDoc {
            budget_bytes: r.budget_bytes,
            deadline_ms: r.deadline_ms,
            peak_tracked_bytes: r.peak_tracked_bytes,
            degradation_steps: r
                .degradation_steps
                .iter()
                .map(|s| DegradationStepDoc {
                    from: s.from.to_string(),
                    to: s.to.to_string(),
                    bytes_before: s.bytes_before,
                    bytes_after: s.bytes_after,
                    affected: s.affected,
                    merged_slots: s.merged_slots,
                })
                .collect(),
            fp_rate_estimate: r.fp_rate_estimate,
            deadline_hit: r.deadline_hit,
        }
    }
}

impl WriteJson for ResourceDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("budget_bytes", &self.budget_bytes);
        w.field("deadline_ms", &self.deadline_ms);
        w.field("peak_tracked_bytes", &self.peak_tracked_bytes);
        w.field("degradation_steps", &self.degradation_steps);
        w.field("fp_rate_estimate", &self.fp_rate_estimate);
        w.field("deadline_hit", &self.deadline_hit);
        w.end_object();
    }
}

/// Affine-skip-tier accounting (schema ≥ 5). Written by every v5
/// document; absent in older documents and `None` when reading them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryDoc {
    /// Distinct loops whose iterations were plan-replayed.
    pub loops_skipped: u64,
    /// Full loop cycles replayed without dispatch.
    pub cycles: u64,
    /// Memory access events synthesized by plan replay.
    pub synthesized_accesses: u64,
    /// Replays abandoned mid-cycle by slice-budget expiry.
    pub fallback_budget: u64,
    /// Engagements declined because a runtime precondition failed.
    pub fallback_precondition: u64,
    /// Tier shutdowns forced by fault injection.
    pub fallback_fault: u64,
    /// Interpreter dispatch-loop iterations for the whole run (plan
    /// replay performs none; compare against a `--no-skip` run).
    pub dispatches: u64,
}

impl SummaryDoc {
    fn from_synth(s: &profiler::SynthSummary) -> SummaryDoc {
        SummaryDoc {
            loops_skipped: s.loops_skipped,
            cycles: s.cycles,
            synthesized_accesses: s.synthesized_accesses,
            fallback_budget: s.fallback_budget,
            fallback_precondition: s.fallback_precondition,
            fallback_fault: s.fallback_fault,
            dispatches: s.dispatches,
        }
    }

    fn from_json(v: &Value) -> DocResult<SummaryDoc> {
        let reasons = field(v, "fallback_reasons")?;
        Ok(SummaryDoc {
            loops_skipped: get_u64(v, "loops_skipped")?,
            cycles: get_u64(v, "cycles")?,
            synthesized_accesses: get_u64(v, "synthesized_accesses")?,
            fallback_budget: get_u64(reasons, "budget")?,
            fallback_precondition: get_u64(reasons, "precondition")?,
            fallback_fault: get_u64(reasons, "fault")?,
            dispatches: get_u64(v, "dispatches")?,
        })
    }
}

impl WriteJson for SummaryDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("loops_skipped", &self.loops_skipped);
        w.field("cycles", &self.cycles);
        w.field("synthesized_accesses", &self.synthesized_accesses);
        w.key("fallback_reasons");
        w.begin_object();
        w.field("budget", &self.fallback_budget);
        w.field("precondition", &self.fallback_precondition);
        w.field("fault", &self.fallback_fault);
        w.end_object();
        w.field("dispatches", &self.dispatches);
        w.end_object();
    }
}

/// Actor-scheduler accounting (schema ≥ 6). Present when the run
/// spawned a second actor or passed a message; absent for sequential
/// targets and in older documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorsDoc {
    /// Actors ever spawned (main included).
    pub spawned: u32,
    /// Peak simultaneously-live actors.
    pub peak_live: u32,
    /// Messages sent across all mailboxes.
    pub sent: u64,
    /// Messages received across all mailboxes.
    pub received: u64,
    /// Per-channel message counts `(from, to, messages)`, sorted by
    /// `(from, to)`.
    pub channels: Vec<(u32, u32, u64)>,
    /// FNV-1a digest of the channel matrix — a compact, order-stable
    /// fingerprint for determinism checks across runs ([`ActorsDoc::digest_channels`]).
    pub channel_digest: u64,
}

impl ActorsDoc {
    /// FNV-1a over the `(from, to, messages)` triples in sorted order:
    /// equal matrices hash equal across runs and builds. The hash is
    /// saturated at `i64::MAX`, the largest value the JSON integer lane
    /// carries, so the digest a doc holds is the digest its document
    /// says.
    pub fn digest_channels(channels: &[(u32, u32, u64)]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for &(from, to, n) in channels {
            mix(from as u64);
            mix(to as u64);
            mix(n);
        }
        h.min(i64::MAX as u64)
    }

    fn from_summary(a: &profiler::ActorSummary) -> ActorsDoc {
        ActorsDoc {
            spawned: a.spawned,
            peak_live: a.peak_live,
            sent: a.sent,
            received: a.received,
            channel_digest: Self::digest_channels(&a.channels),
            channels: a.channels.clone(),
        }
    }

    fn from_json(v: &Value) -> DocResult<ActorsDoc> {
        Ok(ActorsDoc {
            spawned: get_u32(v, "spawned")?,
            peak_live: get_u32(v, "peak_live")?,
            sent: get_u64(v, "sent")?,
            received: get_u64(v, "received")?,
            channels: get_array(v, "channels")?
                .iter()
                .map(|c| {
                    Ok((
                        get_u32(c, "from")?,
                        get_u32(c, "to")?,
                        get_u64(c, "messages")?,
                    ))
                })
                .collect::<DocResult<_>>()?,
            channel_digest: get_u64(v, "channel_digest")?,
        })
    }
}

impl WriteJson for ActorsDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("spawned", &self.spawned);
        w.field("peak_live", &self.peak_live);
        w.field("sent", &self.sent);
        w.field("received", &self.received);
        w.key("channels");
        w.begin_array();
        for &(from, to, messages) in &self.channels {
            w.begin_object();
            w.field("from", &from);
            w.field("to", &to);
            w.field("messages", &messages);
            w.end_object();
        }
        w.end_array();
        w.field("channel_digest", &self.channel_digest);
        w.end_object();
    }
}

/// The profiler section of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDoc {
    /// Executed target instructions.
    pub steps: u64,
    /// Dynamic memory accesses processed.
    pub accesses: u64,
    /// Dependences found before merging.
    pub dependences_found: u64,
    /// Estimated profiler memory footprint in bytes.
    pub profiler_bytes: u64,
    /// Target program output.
    pub printed: Vec<String>,
    /// Merged dependences, totally ordered.
    pub dependences: Vec<DepDoc>,
    /// PET nodes (index 0 is the root; `children` index into this list).
    pub pet: Vec<PetNodeDoc>,
    /// Parallel-engine statistics, when the parallel engine ran.
    pub parallel: Option<ParallelDoc>,
    /// Resource accounting, when the run was governed by a budget
    /// (schema ≥ 3).
    pub resource: Option<ResourceDoc>,
    /// Affine-skip-tier accounting (schema ≥ 5; absent in older
    /// documents).
    pub summary: Option<SummaryDoc>,
    /// Actor-scheduler accounting (schema ≥ 6; absent for sequential
    /// targets and in older documents).
    pub actors: Option<ActorsDoc>,
}

impl ProfileDoc {
    fn from_json(v: &Value) -> DocResult<ProfileDoc> {
        Ok(ProfileDoc {
            steps: get_u64(v, "steps")?,
            accesses: get_u64(v, "accesses")?,
            dependences_found: get_u64(v, "dependences_found")?,
            profiler_bytes: get_u64(v, "profiler_bytes")?,
            printed: get_str_array(v, "printed")?,
            dependences: get_array(v, "dependences")?
                .iter()
                .map(DepDoc::from_json)
                .collect::<DocResult<_>>()?,
            pet: get_array(v, "pet")?
                .iter()
                .map(PetNodeDoc::from_json)
                .collect::<DocResult<_>>()?,
            parallel: match field(v, "parallel")? {
                Value::Null => None,
                other => Some(ParallelDoc::from_json(other)?),
            },
            // Added in schema 3; absent (or null) in older documents.
            resource: match v.get("resource") {
                None | Some(Value::Null) => None,
                Some(other) => Some(ResourceDoc::from_json(other)?),
            },
            // Added in schema 5; absent (or null) in older documents.
            summary: match v.get("summary") {
                None | Some(Value::Null) => None,
                Some(other) => Some(SummaryDoc::from_json(other)?),
            },
            // Added in schema 6; absent (or null) in older documents and
            // for sequential targets.
            actors: match v.get("actors") {
                None | Some(Value::Null) => None,
                Some(other) => Some(ActorsDoc::from_json(other)?),
            },
        })
    }
}

impl WriteJson for ProfileDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("steps", &self.steps);
        w.field("accesses", &self.accesses);
        w.field("dependences_found", &self.dependences_found);
        w.field("profiler_bytes", &self.profiler_bytes);
        w.field("printed", &self.printed);
        w.field("dependences", &self.dependences);
        w.field("pet", &self.pet);
        w.field("parallel", &self.parallel);
        w.field("resource", &self.resource);
        w.field("summary", &self.summary);
        w.field("actors", &self.actors);
        w.end_object();
    }
}

/// One classified loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopDoc {
    /// Function index.
    pub func: u32,
    /// Region index within the function.
    pub region: u32,
    /// Header line.
    pub start_line: u32,
    /// Last line.
    pub end_line: u32,
    /// Iterations executed.
    pub iters: u64,
    /// Inclusive dynamic instructions.
    pub dyn_instrs: u64,
    /// `Doall` / `Reduction` / `Doacross` / `Sequential` / `NotExecuted`.
    pub class: String,
    /// Carried true dependences blocking DOALL.
    pub blocking: Vec<DepDoc>,
    /// Detected reduction variables.
    pub reduction_vars: Vec<String>,
    /// DOACROSS pipeline-stage estimate (0 when not applicable).
    pub pipeline_stages: u64,
}

impl LoopDoc {
    fn from_json(v: &Value) -> DocResult<LoopDoc> {
        Ok(LoopDoc {
            func: get_u32(v, "func")?,
            region: get_u32(v, "region")?,
            start_line: get_u32(v, "start_line")?,
            end_line: get_u32(v, "end_line")?,
            iters: get_u64(v, "iters")?,
            dyn_instrs: get_u64(v, "dyn_instrs")?,
            class: get_str(v, "class")?,
            blocking: get_array(v, "blocking")?
                .iter()
                .map(DepDoc::from_json)
                .collect::<DocResult<_>>()?,
            reduction_vars: get_str_array(v, "reduction_vars")?,
            pipeline_stages: get_u64(v, "pipeline_stages")?,
        })
    }
}

impl WriteJson for LoopDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("func", &self.func);
        w.field("region", &self.region);
        w.field("start_line", &self.start_line);
        w.field("end_line", &self.end_line);
        w.field("iters", &self.iters);
        w.field("dyn_instrs", &self.dyn_instrs);
        w.field("class", &self.class);
        w.field("blocking", &self.blocking);
        w.field("reduction_vars", &self.reduction_vars);
        w.field("pipeline_stages", &self.pipeline_stages);
        w.end_object();
    }
}

/// One SPMD task suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmdDoc {
    /// `LoopTask` or `SiblingCalls`.
    pub kind: String,
    /// Containing function index.
    pub func: u32,
    /// Task body / call-site lines.
    pub lines: Vec<u32>,
    /// Callee names.
    pub callees: Vec<String>,
    /// Loop header line (`LoopTask` only).
    pub loop_line: Option<u32>,
}

impl SpmdDoc {
    fn from_json(v: &Value) -> DocResult<SpmdDoc> {
        Ok(SpmdDoc {
            kind: get_str(v, "kind")?,
            func: get_u32(v, "func")?,
            lines: get_array(v, "lines")?
                .iter()
                .map(|l| {
                    l.as_u64()
                        .ok_or_else(|| SchemaError("`lines` entries must be integers".into()))
                        .and_then(|l| checked_u32(l, "`lines` entry"))
                })
                .collect::<DocResult<_>>()?,
            callees: get_str_array(v, "callees")?,
            loop_line: match field(v, "loop_line")? {
                Value::Null => None,
                other => Some(checked_u32(
                    other
                        .as_u64()
                        .ok_or_else(|| SchemaError("`loop_line` must be an integer".into()))?,
                    "`loop_line`",
                )?),
            },
        })
    }
}

impl WriteJson for SpmdDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("kind", &self.kind);
        w.field("func", &self.func);
        w.field("lines", &self.lines);
        w.field("callees", &self.callees);
        w.field("loop_line", &self.loop_line);
        w.end_object();
    }
}

/// One MPMD (fork-join) task set.
#[derive(Debug, Clone, PartialEq)]
pub struct MpmdDoc {
    /// Containing function index.
    pub func: u32,
    /// `(start_line, end_line, weight)` per task.
    pub tasks: Vec<(u32, u32, u64)>,
}

impl MpmdDoc {
    fn from_json(v: &Value) -> DocResult<MpmdDoc> {
        Ok(MpmdDoc {
            func: get_u32(v, "func")?,
            tasks: get_array(v, "tasks")?
                .iter()
                .map(|t| {
                    Ok((
                        get_u32(t, "start_line")?,
                        get_u32(t, "end_line")?,
                        get_u64(t, "weight")?,
                    ))
                })
                .collect::<DocResult<_>>()?,
        })
    }
}

impl WriteJson for MpmdDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("func", &self.func);
        w.key("tasks");
        w.begin_array();
        for &(start_line, end_line, weight) in &self.tasks {
            w.begin_object();
            w.field("start_line", &start_line);
            w.field("end_line", &end_line);
            w.field("weight", &weight);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

/// What a ranked suggestion points at.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetDoc {
    /// A parallelizable loop.
    Loop {
        /// Function index.
        func: u32,
        /// Region index.
        region: u32,
        /// Header line.
        start_line: u32,
        /// Loop class name.
        class: String,
    },
    /// An MPMD task set.
    TaskSet {
        /// Function index.
        func: u32,
        /// Task line spans.
        spans: Vec<(u32, u32)>,
    },
}

/// One ranked parallelization opportunity (§4.3 metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedDoc {
    /// What to parallelize.
    pub target: TargetDoc,
    /// Fraction of executed instructions inside the region.
    pub instruction_coverage: f64,
    /// Serial work over critical path.
    pub local_speedup: f64,
    /// Coefficient of variation of independent CU-group weights.
    pub cu_imbalance: f64,
    /// Scalar ordering score.
    pub score: f64,
}

impl RankedDoc {
    fn from_json(v: &Value) -> DocResult<RankedDoc> {
        let t = field(v, "target")?;
        let target = match get_str(t, "kind")?.as_str() {
            "loop" => TargetDoc::Loop {
                func: get_u32(t, "func")?,
                region: get_u32(t, "region")?,
                start_line: get_u32(t, "start_line")?,
                class: get_str(t, "class")?,
            },
            "task_set" => TargetDoc::TaskSet {
                func: get_u32(t, "func")?,
                spans: spans_from(t, "spans")?,
            },
            other => return err(format!("unknown target kind `{other}`")),
        };
        Ok(RankedDoc {
            target,
            instruction_coverage: get_f64(v, "instruction_coverage")?,
            local_speedup: get_f64(v, "local_speedup")?,
            cu_imbalance: get_f64(v, "cu_imbalance")?,
            score: get_f64(v, "score")?,
        })
    }
}

impl WriteJson for RankedDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.key("target");
        w.begin_object();
        match &self.target {
            TargetDoc::Loop {
                func,
                region,
                start_line,
                class,
            } => {
                w.field("kind", "loop");
                w.field("func", func);
                w.field("region", region);
                w.field("start_line", start_line);
                w.field("class", class);
            }
            TargetDoc::TaskSet { func, spans } => {
                w.field("kind", "task_set");
                w.field("func", func);
                w.field("spans", spans);
            }
        }
        w.end_object();
        w.field("instruction_coverage", &self.instruction_coverage);
        w.field("local_speedup", &self.local_speedup);
        w.field("cu_imbalance", &self.cu_imbalance);
        w.field("score", &self.score);
        w.end_object();
    }
}

/// One parallel-pattern instance, flattened.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternDoc {
    /// Conventional pattern name.
    pub name: String,
    /// Loop header line (loop patterns only).
    pub loop_line: Option<u32>,
    /// Iterations to distribute (geometric decomposition only).
    pub width: Option<u64>,
    /// Decoupled stages (pipeline only).
    pub stages: Option<u64>,
    /// Reduction variables (reduction only).
    pub vars: Vec<String>,
    /// Concurrent task spans (fork-join only).
    pub spans: Vec<(u32, u32)>,
}

impl PatternDoc {
    fn from_pattern(p: &Pattern) -> PatternDoc {
        let mut doc = PatternDoc {
            name: p.name().to_string(),
            loop_line: None,
            width: None,
            stages: None,
            vars: Vec::new(),
            spans: Vec::new(),
        };
        match p {
            Pattern::GeometricDecomposition { loop_line, width } => {
                doc.loop_line = Some(*loop_line);
                doc.width = Some(*width);
            }
            Pattern::Reduction { loop_line, vars } => {
                doc.loop_line = Some(*loop_line);
                doc.vars = vars.clone();
            }
            Pattern::Pipeline { loop_line, stages } => {
                doc.loop_line = Some(*loop_line);
                doc.stages = Some(*stages as u64);
            }
            Pattern::ForkJoin { spans } => doc.spans = spans.clone(),
        }
        doc
    }

    fn from_json(v: &Value) -> DocResult<PatternDoc> {
        let opt_u64 = |key: &str| -> DocResult<Option<u64>> {
            match field(v, key)? {
                Value::Null => Ok(None),
                other => Ok(Some(other.as_u64().ok_or_else(|| {
                    SchemaError(format!("`{key}` must be an integer"))
                })?)),
            }
        };
        Ok(PatternDoc {
            name: get_str(v, "name")?,
            loop_line: opt_u64("loop_line")?
                .map(|l| checked_u32(l, "`loop_line`"))
                .transpose()?,
            width: opt_u64("width")?,
            stages: opt_u64("stages")?,
            vars: get_str_array(v, "vars")?,
            spans: spans_from(v, "spans")?,
        })
    }
}

impl WriteJson for PatternDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("name", &self.name);
        w.field("loop_line", &self.loop_line);
        w.field("width", &self.width);
        w.field("stages", &self.stages);
        w.field("vars", &self.vars);
        w.field("spans", &self.spans);
        w.end_object();
    }
}

/// Per-loop static coverage and independence statistics (schema ≥ 4).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticLoopDoc {
    /// Function index.
    pub func: u32,
    /// Function name.
    pub func_name: String,
    /// Region index within the function.
    pub region: u32,
    /// First source line.
    pub start_line: u32,
    /// Last source line.
    pub end_line: u32,
    /// Static memory ops inside the loop.
    pub mem_ops: u32,
    /// Of those, classified affine.
    pub affine_ops: u32,
    /// A canonical induction variable was recognized.
    pub has_iv: bool,
    /// Constant trip count, when provable.
    pub trip_count: Option<u64>,
    /// Same-variable pairs tested for independence.
    pub tested_pairs: u32,
    /// Pairs proven independent.
    pub proven_pairs: u32,
    /// All cross-iteration conflicts statically excluded.
    pub doall_candidate: bool,
}

impl StaticLoopDoc {
    fn from_json(v: &Value) -> DocResult<StaticLoopDoc> {
        Ok(StaticLoopDoc {
            func: get_u32(v, "func")?,
            func_name: get_str(v, "func_name")?,
            region: get_u32(v, "region")?,
            start_line: get_u32(v, "start_line")?,
            end_line: get_u32(v, "end_line")?,
            mem_ops: get_u32(v, "mem_ops")?,
            affine_ops: get_u32(v, "affine_ops")?,
            has_iv: get_bool(v, "has_iv")?,
            trip_count: match field(v, "trip_count")? {
                Value::Null => None,
                other => Some(other.as_u64().ok_or_else(|| {
                    SchemaError("`trip_count` must be an integer or null".into())
                })?),
            },
            tested_pairs: get_u32(v, "tested_pairs")?,
            proven_pairs: get_u32(v, "proven_pairs")?,
            doall_candidate: get_bool(v, "doall_candidate")?,
        })
    }
}

impl WriteJson for StaticLoopDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("func", &self.func);
        w.field("func_name", &self.func_name);
        w.field("region", &self.region);
        w.field("start_line", &self.start_line);
        w.field("end_line", &self.end_line);
        w.field("mem_ops", &self.mem_ops);
        w.field("affine_ops", &self.affine_ops);
        w.field("has_iv", &self.has_iv);
        w.field("trip_count", &self.trip_count);
        w.field("tested_pairs", &self.tested_pairs);
        w.field("proven_pairs", &self.proven_pairs);
        w.field("doall_candidate", &self.doall_candidate);
        w.end_object();
    }
}

/// One statically-proven independence claim (schema ≥ 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimDoc {
    /// Function index of the carrying loop.
    pub func: u32,
    /// Region index of the carrying loop.
    pub region: u32,
    /// Variable name.
    pub var: String,
    /// Smaller source line of the proven pair.
    pub line_a: u32,
    /// Larger source line of the proven pair.
    pub line_b: u32,
}

impl ClaimDoc {
    fn from_json(v: &Value) -> DocResult<ClaimDoc> {
        Ok(ClaimDoc {
            func: get_u32(v, "func")?,
            region: get_u32(v, "region")?,
            var: get_str(v, "var")?,
            line_a: get_u32(v, "line_a")?,
            line_b: get_u32(v, "line_b")?,
        })
    }
}

impl WriteJson for ClaimDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("func", &self.func);
        w.field("region", &self.region);
        w.field("var", &self.var);
        w.field("line_a", &self.line_a);
        w.field("line_b", &self.line_b);
        w.end_object();
    }
}

/// One lint finding (schema ≥ 4).
#[derive(Debug, Clone, PartialEq)]
pub struct LintDoc {
    /// Stable lint code (`uninit-read`, `const-oob`, `range-oob`,
    /// `race-hint`).
    pub kind: String,
    /// Function (empty for module-level findings).
    pub func: String,
    /// Variable concerned.
    pub var: String,
    /// Source line (0 when spanning multiple sites).
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl LintDoc {
    fn from_json(v: &Value) -> DocResult<LintDoc> {
        Ok(LintDoc {
            kind: get_str(v, "kind")?,
            func: get_str(v, "func")?,
            var: get_str(v, "var")?,
            line: get_u32(v, "line")?,
            message: get_str(v, "message")?,
        })
    }
}

impl WriteJson for LintDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("kind", &self.kind);
        w.field("func", &self.func);
        w.field("var", &self.var);
        w.field("line", &self.line);
        w.field("message", &self.message);
        w.end_object();
    }
}

/// The static pre-pass section of the report (schema ≥ 4; absent for runs
/// without [`crate::Analysis::with_static`] and in older documents).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticDoc {
    /// The module spawns threads (claims suppressed).
    pub spawns_threads: bool,
    /// In-loop memory ops classified affine, summed over loops.
    pub affine_ops: u32,
    /// In-loop memory ops total.
    pub mem_ops: u32,
    /// Per-loop statistics.
    pub loops: Vec<StaticLoopDoc>,
    /// Proven independence claims.
    pub claims: Vec<ClaimDoc>,
    /// Lint findings.
    pub lints: Vec<LintDoc>,
}

impl StaticDoc {
    fn from_static(s: &crate::StaticReport) -> StaticDoc {
        let (affine_ops, mem_ops) = s.coverage();
        StaticDoc {
            spawns_threads: s.spawns_threads,
            affine_ops,
            mem_ops,
            loops: s
                .loops
                .iter()
                .map(|l| StaticLoopDoc {
                    func: l.func.index() as u32,
                    func_name: l.func_name.clone(),
                    region: l.region.index() as u32,
                    start_line: l.start_line,
                    end_line: l.end_line,
                    mem_ops: l.mem_ops,
                    affine_ops: l.affine_ops,
                    has_iv: l.has_iv,
                    trip_count: l.trip_count,
                    tested_pairs: l.tested_pairs,
                    proven_pairs: l.proven_pairs,
                    doall_candidate: l.doall_candidate,
                })
                .collect(),
            claims: s
                .claims
                .iter()
                .map(|c| ClaimDoc {
                    func: c.func.index() as u32,
                    region: c.region.index() as u32,
                    var: c.var_name.clone(),
                    line_a: c.line_a,
                    line_b: c.line_b,
                })
                .collect(),
            lints: s
                .lints
                .iter()
                .map(|l| LintDoc {
                    kind: l.kind.code().to_string(),
                    func: l.func.clone(),
                    var: l.var.clone(),
                    line: l.line,
                    message: l.message.clone(),
                })
                .collect(),
        }
    }

    fn from_json(v: &Value) -> DocResult<StaticDoc> {
        Ok(StaticDoc {
            spawns_threads: get_bool(v, "spawns_threads")?,
            affine_ops: get_u32(v, "affine_ops")?,
            mem_ops: get_u32(v, "mem_ops")?,
            loops: get_array(v, "loops")?
                .iter()
                .map(StaticLoopDoc::from_json)
                .collect::<DocResult<_>>()?,
            claims: get_array(v, "claims")?
                .iter()
                .map(ClaimDoc::from_json)
                .collect::<DocResult<_>>()?,
            lints: get_array(v, "lints")?
                .iter()
                .map(LintDoc::from_json)
                .collect::<DocResult<_>>()?,
        })
    }
}

impl WriteJson for StaticDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("spawns_threads", &self.spawns_threads);
        w.field("affine_ops", &self.affine_ops);
        w.field("mem_ops", &self.mem_ops);
        w.field("loops", &self.loops);
        w.field("claims", &self.claims);
        w.field("lints", &self.lints);
        w.end_object();
    }
}

/// The discovery section of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryDoc {
    /// Per-loop classification, hottest first.
    pub loops: Vec<LoopDoc>,
    /// SPMD task suggestions.
    pub spmd: Vec<SpmdDoc>,
    /// MPMD task suggestions.
    pub mpmd: Vec<MpmdDoc>,
    /// Ranked opportunities, best first.
    pub ranked: Vec<RankedDoc>,
    /// Parallel-pattern phrasing of the findings.
    pub patterns: Vec<PatternDoc>,
}

impl DiscoveryDoc {
    fn from_json(v: &Value) -> DocResult<DiscoveryDoc> {
        Ok(DiscoveryDoc {
            loops: get_array(v, "loops")?
                .iter()
                .map(LoopDoc::from_json)
                .collect::<DocResult<_>>()?,
            spmd: get_array(v, "spmd")?
                .iter()
                .map(SpmdDoc::from_json)
                .collect::<DocResult<_>>()?,
            mpmd: get_array(v, "mpmd")?
                .iter()
                .map(MpmdDoc::from_json)
                .collect::<DocResult<_>>()?,
            ranked: get_array(v, "ranked")?
                .iter()
                .map(RankedDoc::from_json)
                .collect::<DocResult<_>>()?,
            patterns: get_array(v, "patterns")?
                .iter()
                .map(PatternDoc::from_json)
                .collect::<DocResult<_>>()?,
        })
    }
}

impl WriteJson for DiscoveryDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("loops", &self.loops);
        w.field("spmd", &self.spmd);
        w.field("mpmd", &self.mpmd);
        w.field("ranked", &self.ranked);
        w.field("patterns", &self.patterns);
        w.end_object();
    }
}

/// The serializable mirror of a full [`Report`], name-resolved and
/// versioned. Build with [`ReportDoc::from_report`] (or
/// [`Report::to_doc`]), serialize with [`ReportDoc::to_json`], read back
/// with [`ReportDoc::from_json_str`].
///
/// ```
/// let src = "global int a[16];\nfn main() {\nfor (int i = 0; i < 16; i = i + 1) {\na[i] = i;\n}\n}";
/// let mut analysis = discopop::Analysis::new();
/// let compiled = analysis.compile(src, "doc-demo").unwrap();
/// let report = analysis.analyze_compiled(&compiled).unwrap();
/// let json = report.to_json_string(compiled.program());
/// let doc = discopop::report::ReportDoc::from_json_str(&json).unwrap();
/// assert_eq!(doc.schema_version, discopop::report::SCHEMA_VERSION);
/// assert_eq!(doc.program, "doc-demo");
/// assert_eq!(doc.discovery.loops[0].class, "Doall");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDoc {
    /// Schema version ([`SCHEMA_VERSION`] when written by this build).
    pub schema_version: u32,
    /// Program (module) name.
    pub program: String,
    /// Engine label (see [`profiler::EngineKind::label`]).
    pub engine: String,
    /// Profiler section.
    pub profile: ProfileDoc,
    /// Discovery section.
    pub discovery: DiscoveryDoc,
    /// Static pre-pass section (schema ≥ 4; `None` when the run did not
    /// enable static analysis or the document predates the block).
    pub statics: Option<StaticDoc>,
}

impl ReportDoc {
    /// Mirror an in-memory report, resolving symbol and function names
    /// against `program`.
    pub fn from_report(program: &interp::Program, report: &Report) -> ReportDoc {
        let deps = &report.profile.deps;
        let mut names = VarNames::new(program);
        let dependences = deps
            .sorted_counted()
            .iter()
            .map(|(d, count)| DepDoc::from_dep(&mut names, d, *count))
            .collect();
        let pet = report
            .profile
            .pet
            .nodes
            .iter()
            .map(|n| PetNodeDoc::from_node(program, n))
            .collect();
        let parallel = report.profile.parallel.as_ref().map(|p| ParallelDoc {
            chunks: p.chunks,
            rebalances: p.rebalances,
            combined: p.combined,
            merges: p.merges,
            queue_stalls: p.queue_stalls,
            spawned_workers: p.spawned_workers as u64,
            worker_recoveries: p.worker_recoveries,
            worker_processed: p.worker_processed.clone(),
        });
        let resource = report
            .profile
            .resource
            .as_ref()
            .map(ResourceDoc::from_stats);
        let loops = report
            .discovery
            .loops
            .iter()
            .map(|l| LoopDoc {
                func: l.info.func,
                region: l.info.region,
                start_line: l.info.start_line,
                end_line: l.info.end_line,
                iters: l.info.iters,
                dyn_instrs: l.info.dyn_instrs,
                class: format!("{:?}", l.class),
                blocking: l
                    .blocking
                    .iter()
                    .map(|d| DepDoc::from_dep(&mut names, d, deps.count(d)))
                    .collect(),
                reduction_vars: l.reduction_vars.clone(),
                pipeline_stages: l.pipeline_stages as u64,
            })
            .collect();
        let spmd = report
            .discovery
            .spmd
            .iter()
            .map(|s| SpmdDoc {
                kind: match s.kind {
                    SpmdKind::LoopTask => "LoopTask".to_string(),
                    SpmdKind::SiblingCalls => "SiblingCalls".to_string(),
                },
                func: s.func,
                lines: s.lines.clone(),
                callees: s.callees.clone(),
                loop_line: s.loop_line,
            })
            .collect();
        let mpmd = report
            .discovery
            .mpmd
            .iter()
            .map(|m| MpmdDoc {
                func: m.func,
                tasks: m
                    .tasks
                    .iter()
                    .map(|t| (t.start_line, t.end_line, t.weight))
                    .collect(),
            })
            .collect();
        // JSON has no NaN/Infinity (jsonio renders them as `null`, which
        // would make the document unreadable by our own parser), so metric
        // values are pinned to finite numbers here.
        let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
        let ranked = report
            .discovery
            .ranked
            .iter()
            .map(|r| RankedDoc {
                target: match &r.target {
                    SuggestionTarget::Loop {
                        func,
                        region,
                        start_line,
                        class,
                    } => TargetDoc::Loop {
                        func: *func,
                        region: *region,
                        start_line: *start_line,
                        class: format!("{class:?}"),
                    },
                    SuggestionTarget::TaskSet { func, spans } => TargetDoc::TaskSet {
                        func: *func,
                        spans: spans.clone(),
                    },
                },
                instruction_coverage: finite(r.ranking.instruction_coverage),
                local_speedup: finite(r.ranking.local_speedup),
                cu_imbalance: finite(r.ranking.cu_imbalance),
                score: finite(r.score),
            })
            .collect();
        let patterns = report
            .discovery
            .patterns
            .iter()
            .map(PatternDoc::from_pattern)
            .collect();
        ReportDoc {
            schema_version: SCHEMA_VERSION,
            program: report.program.clone(),
            engine: report.engine.clone(),
            profile: ProfileDoc {
                steps: report.profile.steps,
                accesses: report.profile.skip_stats.total_accesses,
                dependences_found: report.profile.deps.total_found,
                profiler_bytes: report.profile.profiler_bytes as u64,
                printed: report.profile.printed.clone(),
                dependences,
                pet,
                parallel,
                resource,
                summary: Some(SummaryDoc::from_synth(&report.profile.synth)),
                actors: report.profile.actors.as_ref().map(ActorsDoc::from_summary),
            },
            discovery: DiscoveryDoc {
                loops,
                spmd,
                mpmd,
                ranked,
                patterns,
            },
            statics: report.statics.as_ref().map(StaticDoc::from_static),
        }
    }

    /// The document as a JSON tree: the [`WriteJson`] walk run into a
    /// tree target. Its rendering is byte-identical to the walk run into
    /// text ([`crate::Report::to_json_string`]).
    pub fn to_json(&self) -> Value {
        let mut w = Writer::tree();
        self.write_json(&mut w);
        w.into_value()
    }

    /// Deserialize from a JSON tree.
    pub fn from_json(v: &Value) -> DocResult<ReportDoc> {
        let schema_version = get_u32(v, "schema_version")?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema_version) {
            return err(format!(
                "unsupported schema version {schema_version} \
                 (this build reads {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            ));
        }
        Ok(ReportDoc {
            schema_version,
            program: get_str(v, "program")?,
            engine: get_str(v, "engine")?,
            profile: ProfileDoc::from_json(field(v, "profile")?)?,
            discovery: DiscoveryDoc::from_json(field(v, "discovery")?)?,
            statics: match v.get("static") {
                None | Some(Value::Null) => None,
                Some(other) => Some(StaticDoc::from_json(other)?),
            },
        })
    }

    /// Parse a JSON report document from text.
    pub fn from_json_str(text: &str) -> DocResult<ReportDoc> {
        let v = Value::parse(text).map_err(|e| SchemaError(e.to_string()))?;
        ReportDoc::from_json(&v)
    }

    /// All distinct loop classes present, in report order — the quick
    /// answer "is there anything parallel here?".
    pub fn loop_classes(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for l in &self.discovery.loops {
            if !seen.contains(&l.class.as_str()) {
                seen.push(l.class.as_str());
            }
        }
        seen
    }
}

impl WriteJson for ReportDoc {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.field("schema_version", &self.schema_version);
        w.field("program", &self.program);
        w.field("engine", &self.engine);
        w.field("profile", &self.profile);
        w.field("discovery", &self.discovery);
        w.field("static", &self.statics);
        w.end_object();
    }
}
