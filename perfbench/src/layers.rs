//! The per-layer metrics of a traced run, computed from the spans and
//! counts the benchmark recorded around its calls into each layer.
//!
//! Times are per timed unit (one analysis; one pass over the corpus),
//! the median over the traced units. Nested layers (the interpreter
//! inside the profiler, the CU graph inside discovery, the actor matrix
//! inside the human report) are timed by a probe call made outside the
//! unit and are included in their parent's time.

use crate::gen::Source;
use crate::pipeline::{truth_agreement, Analyzed, Probe};
use crate::stats::{median, Metrics};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Per-layer metric names and units, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.compile_s", "s"),
    ("interp.decode_s", "s"),
    ("interp.decoded_ops", "count"),
    ("analysis.static_s", "s"),
    ("analysis.cross_check_s", "s"),
    ("analysis.claims", "count"),
    ("analysis.cross_check_violations", "count"),
    ("interp.native_s", "s"),
    ("interp.steps", "count"),
    ("interp.dispatches", "count"),
    ("interp.emit_s", "s"),
    ("interp.mem_events", "count"),
    ("profiler.profile_s", "s"),
    ("profiler.shadow_dep_s", "s"),
    ("profiler.ns_per_access", "ns"),
    ("profiler.accesses", "count"),
    ("profiler.deps_found", "count"),
    ("profiler.deps_distinct", "count"),
    ("profiler.merge_ratio", "fraction"),
    ("profiler.synth_accesses", "count"),
    ("profiler.slowdown_x", "x"),
    ("profiler.engine_signature", "fraction"),
    ("profiler.tracked_bytes", "bytes"),
    ("cu.build_s", "s"),
    ("cu.nodes", "count"),
    ("discovery.discover_s", "s"),
    ("discovery.loops", "count"),
    ("discovery.ranked", "count"),
    ("discovery.truth_agree_frac", "fraction"),
    ("apps.actor_comm_s", "s"),
    ("report.text_s", "s"),
    ("report.json_s", "s"),
    ("report.json_bytes", "bytes"),
    ("serve.cache_hit_frac", "fraction"),
    ("serve.cache_evictions", "count"),
    ("serve.jobs_shed", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.worker_recoveries", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_tail_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.layer_sum_frac", "fraction"),
];

/// Counts of one traced unit, summed over its analyses.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnitCounts {
    pub analyses: u64,
    pub decoded_ops: u64,
    pub claims: u64,
    pub violations: u64,
    pub accesses: u64,
    pub deps_found: u64,
    pub deps_distinct: u64,
    pub synth_accesses: u64,
    pub on_signature: u64,
    /// Largest profiler footprint of any analysis in the unit.
    pub tracked_bytes: u64,
    pub loops: u64,
    pub ranked: u64,
    /// Annotated loops whose verdict matches the annotation, and all of them.
    pub truth_agree: u64,
    pub truths: u64,
    pub json_bytes: u64,
}

impl UnitCounts {
    pub fn add(&mut self, src: &Source, a: &Analyzed) {
        let p = &a.report.profile;
        self.analyses += 1;
        self.decoded_ops += a.compiled.decoded_ops() as u64;
        self.claims += a
            .report
            .statics
            .as_ref()
            .map_or(0, |s| s.claims.len() as u64);
        self.violations += a.violations as u64;
        self.accesses += p.skip_stats.total_accesses;
        self.deps_found += p.deps.total_found;
        self.deps_distinct += p.deps.len() as u64;
        self.synth_accesses += p.synth.synthesized_accesses;
        self.on_signature += u64::from(matches!(
            a.engine,
            discopop::EngineKind::SerialSignature { .. }
        ));
        self.tracked_bytes = self.tracked_bytes.max(p.profiler_bytes as u64);
        self.loops += a.report.discovery.loops.len() as u64;
        self.ranked += a.report.discovery.ranked.len() as u64;
        let (agree, truths) = truth_agreement(src, &a.report);
        self.truth_agree += agree;
        self.truths += truths;
        self.json_bytes += a.json.len() as u64;
    }
}

/// Probe results summed over the programs of one unit.
pub fn sum_probes(probes: &[Probe]) -> Probe {
    probes.iter().fold(Probe::default(), |mut s, p| {
        s.native_s += p.native_s;
        s.emit_total_s += p.emit_total_s;
        s.steps += p.steps;
        s.dispatches += p.dispatches;
        s.mem_events += p.mem_events;
        s.cu_build_s += p.cu_build_s;
        s.cu_nodes += p.cu_nodes;
        s.actor_comm_s += p.actor_comm_s;
        s
    })
}

/// Median over units of the summed duration of spans named `name`
/// (0 when no unit has such a span).
pub fn unit_median(tr: &Tracer, name: &str) -> f64 {
    let mut per_unit: BTreeMap<u64, f64> = BTreeMap::new();
    for s in tr.spans().iter().filter(|s| s.name == name) {
        *per_unit.entry(s.item).or_default() += s.secs();
    }
    median(&per_unit.into_values().collect::<Vec<_>>())
}

/// Share of the root spans' time that their direct children cover.
pub fn layer_sum_frac(tr: &Tracer, roots: &[&str]) -> f64 {
    let wall: f64 = roots.iter().map(|r| tr.total(r)).sum();
    let covered: f64 = roots.iter().map(|r| tr.children_total(r)).sum();
    if wall > 0.0 {
        covered / wall
    } else {
        0.0
    }
}

/// Counters the daemon reports, plus what the load generator measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeLayers {
    pub cache_hit_frac: f64,
    pub cache_evictions: u64,
    pub jobs_shed: u64,
    pub jobs_failed: u64,
    pub worker_recoveries: u64,
    pub overhead_ms: f64,
    pub gen_lag_ms: f64,
    /// Open-loop latency from each request's due time: median and tail.
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
}

/// Everything a traced run measured, as the per-layer metrics.
pub struct LayerInput<'a> {
    pub tracer: &'a Tracer,
    pub counts: UnitCounts,
    pub probe: Probe,
    pub serve: ServeLayers,
    pub overhead_frac: f64,
    pub layer_sum_frac: f64,
}

pub fn metrics(i: &LayerInput<'_>) -> Metrics {
    let tr = i.tracer;
    let c = &i.counts;
    let p = &i.probe;
    let profile_s = unit_median(tr, "profiler.profile");
    let emit_s = (p.emit_total_s - p.native_s).max(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let values: Vec<f64> = vec![
        unit_median(tr, "lang.compile"),
        unit_median(tr, "interp.decode"),
        c.decoded_ops as f64,
        unit_median(tr, "analysis.static"),
        unit_median(tr, "analysis.cross_check"),
        c.claims as f64,
        c.violations as f64,
        p.native_s,
        p.steps as f64,
        p.dispatches as f64,
        emit_s,
        p.mem_events as f64,
        profile_s,
        (profile_s - p.native_s - emit_s).max(0.0),
        ratio(profile_s * 1e9, c.accesses as f64),
        c.accesses as f64,
        c.deps_found as f64,
        c.deps_distinct as f64,
        ratio(c.deps_distinct as f64, c.deps_found as f64),
        c.synth_accesses as f64,
        ratio(profile_s, p.native_s),
        ratio(c.on_signature as f64, c.analyses as f64),
        c.tracked_bytes as f64,
        p.cu_build_s,
        p.cu_nodes as f64,
        unit_median(tr, "discovery.discover"),
        c.loops as f64,
        c.ranked as f64,
        ratio(c.truth_agree as f64, c.truths as f64),
        p.actor_comm_s,
        unit_median(tr, "report.text"),
        unit_median(tr, "report.json"),
        c.json_bytes as f64,
        i.serve.cache_hit_frac,
        i.serve.cache_evictions as f64,
        i.serve.jobs_shed as f64,
        i.serve.jobs_failed as f64,
        i.serve.worker_recoveries as f64,
        i.serve.overhead_ms,
        i.serve.gen_lag_ms,
        i.serve.latency_p50_ms,
        i.serve.latency_tail_ms,
        i.overhead_frac,
        i.layer_sum_frac,
    ];
    assert_eq!(values.len(), PER_LAYER.len(), "one value per metric");
    let mut m = Metrics::default();
    for (&(name, unit), v) in PER_LAYER.iter().zip(values) {
        m.put(name, v, unit);
    }
    m
}
