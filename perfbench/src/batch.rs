//! The batch workloads (`loop_nest`, `corpus`, `actors_10k`): repeated
//! passes of in-process analyses, each checked, and all checked against
//! the oracle once timing is over.

use crate::gen::{self, Source};
use crate::layers::{self, LayerInput, ServeLayers, UnitCounts};
use crate::pipeline::{self, Analyzed, Mode};
use crate::stats::{self, median, Metrics, Tally};
use crate::trace::Tracer;
use crate::{Args, Outcome, GEN_REPS};
use std::collections::HashMap;
use std::time::Instant;

/// Fewest passes a phase makes, however long they take.
const MIN_UNITS: usize = 3;

/// One program and what it must print, when that is known in closed form.
struct Item {
    src: Source,
    printed: Option<Vec<String>>,
}

fn generate(workload: &str, seed: u64) -> Vec<Item> {
    match workload {
        "loop_nest" => vec![Item {
            src: gen::loop_nest(seed).1,
            printed: None,
        }],
        "corpus" => gen::corpus(seed)
            .into_iter()
            .map(|src| Item { src, printed: None })
            .collect(),
        "actors_10k" => {
            let (_, _, src, total) = gen::actors(seed);
            vec![Item {
                src,
                printed: Some(vec![total.to_string()]),
            }]
        }
        other => unreachable!("not a batch workload: {other}"),
    }
}

/// What the checks saw of one program, across every analysis.
#[derive(Default)]
struct Seen {
    digests: Vec<u64>,
    /// Hash of the first JSON report; every later one must match.
    json: Option<u64>,
    printed: Option<Vec<String>>,
}

/// The per-analysis checks and their tally.
#[derive(Default)]
struct Checker {
    tally: Tally,
    seen: HashMap<String, Seen>,
}

impl Checker {
    fn check(&mut self, item: &Item, a: &Analyzed) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        a.json.hash(&mut h);
        let jh = h.finish();
        let s = self.seen.entry(item.src.name.clone()).or_default();
        s.digests.push(a.digest());
        let json_ok = *s.json.get_or_insert(jh) == jh;
        let printed = &a.report.profile.printed;
        let printed_ok = item.printed.as_ref().is_none_or(|p| p == printed)
            && s.printed.get_or_insert_with(|| printed.clone()) == printed;
        let ok = a.violations == 0 && json_ok && printed_ok;
        if !ok {
            eprintln!(
                "{}: check failed: {} cross-check violations, same json {json_ok}, printed {printed_ok}",
                item.src.name, a.violations
            );
        }
        self.tally.record(ok);
    }

    /// Replay each program once on the reference interpreter, under the
    /// engine auto selected for it, and fail every analysis whose digest
    /// or output differs.
    fn oracle(&mut self, items: &[Item]) -> Result<(), String> {
        for item in items {
            let program = interp::Program::new(
                lang::compile(&item.src.text, &item.src.name).map_err(|e| e.to_string())?,
            );
            let engine = discopop::EngineKind::auto_for(&program);
            let (digest, printed) = pipeline::oracle(&program, engine)?;
            let s = self.seen.entry(item.src.name.clone()).or_default();
            let bad = s.digests.iter().filter(|&&d| d != digest).count() as u64;
            let printed_bad = s.printed.as_ref().is_some_and(|p| *p != printed);
            if bad > 0 || printed_bad {
                eprintln!(
                    "{}: {bad} of {} analyses disagree with the oracle digest; printed differs: {printed_bad}",
                    item.src.name,
                    s.digests.len()
                );
                self.tally.failed += if printed_bad {
                    s.digests.len() as u64
                } else {
                    bad
                };
            }
        }
        self.tally.failed = self.tally.failed.min(self.tally.attempted);
        Ok(())
    }
}

/// What one timed phase measured.
struct Phase {
    /// Summed analysis wall per pass.
    unit_s: Vec<f64>,
    analyses: usize,
    wall_s: f64,
    /// Counts of the first pass.
    counts: UnitCounts,
    /// The analyses of the last pass, when asked to keep them.
    kept: Vec<Analyzed>,
}

/// Run passes over `items` for `secs` seconds (at least [`MIN_UNITS`]).
/// `first_unit` numbers the passes so spans of different phases stay apart.
fn phase(
    items: &[Item],
    secs: f64,
    first_unit: u64,
    tr: &mut Tracer,
    checker: &mut Checker,
    keep: bool,
) -> Phase {
    let start = Instant::now();
    let mut out = Phase {
        unit_s: Vec::new(),
        analyses: 0,
        wall_s: 0.0,
        counts: UnitCounts::default(),
        kept: Vec::new(),
    };
    while out.unit_s.len() < MIN_UNITS || start.elapsed().as_secs_f64() < secs {
        let first = out.unit_s.is_empty();
        let unit = first_unit + out.unit_s.len() as u64;
        let mut unit_s = 0.0;
        out.kept.clear();
        for item in items {
            let a = match pipeline::analyze(&item.src, Mode::Batch, tr, unit) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{}: analysis failed: {e}", item.src.name);
                    checker.tally.record(false);
                    continue;
                }
            };
            unit_s += a.wall_s;
            out.analyses += 1;
            checker.check(item, &a);
            if first {
                out.counts.add(&item.src, &a);
            }
            if keep {
                out.kept.push(a);
            }
        }
        out.unit_s.push(unit_s);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Untimed passes that end set-up: the first analyses in a process pay
/// its one-time costs (first-touch memory, anything built lazily), which
/// timing must not see. Set-up is repeated this many times and the median
/// pass counts.
const WARM_UP_PASSES: usize = 3;

/// One untimed pass; returns its analysis time.
fn warm_up(items: &[Item], checker: &mut Checker) -> f64 {
    let mut off = Tracer::new(Instant::now(), false);
    let mut wall = 0.0;
    for item in items {
        match pipeline::analyze(&item.src, Mode::Batch, &mut off, 0) {
            Ok(a) => {
                wall += a.wall_s;
                checker.check(item, &a);
            }
            Err(e) => {
                eprintln!("{}: analysis failed: {e}", item.src.name);
                checker.tally.record(false);
            }
        }
    }
    wall
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (items, gen_s) = stats::timed_median(GEN_REPS, || generate(&args.workload, args.seed));
    let mut checker = Checker::default();
    let warm: Vec<f64> = (0..WARM_UP_PASSES)
        .map(|_| warm_up(&items, &mut checker))
        .collect();
    let setup_s = gen_s + median(&warm);
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = Tracer::new(Instant::now(), false);
    let untraced = phase(&items, untraced_s, 0, &mut off, &mut checker, false);
    let peak_rss_mb = stats::peak_rss_mb(None)?;

    let mut metrics = Metrics::default();
    let mut trace_ok = true;
    if args.trace {
        let mut tr = Tracer::new(Instant::now(), true);
        let secs = args.seconds - untraced_s;
        let traced = phase(&items, secs, 1 << 32, &mut tr, &mut checker, true);
        let probes = traced
            .kept
            .iter()
            .map(|a| pipeline::probe(a, Mode::Batch, &mut tr, u64::MAX))
            .collect::<Result<Vec<_>, _>>()?;
        let layer_sum_frac = layers::layer_sum_frac(&tr, &["analysis"]);
        trace_ok = (0.9..=1.1).contains(&layer_sum_frac);
        if !trace_ok {
            eprintln!("trace: layer spans cover {layer_sum_frac:.3} of the traced wall");
        }
        metrics = layers::metrics(&LayerInput {
            tracer: &tr,
            counts: traced.counts,
            probe: layers::sum_probes(&probes),
            serve: ServeLayers::default(),
            overhead_frac: median(&traced.unit_s) / median(&untraced.unit_s) - 1.0,
            layer_sum_frac,
        });
        crate::write_trace(args, &tr)?;
    } else {
        let analyses = untraced.analyses as f64;
        metrics.put("setup_s", setup_s, "s");
        metrics.put("analyze_s", median(&untraced.unit_s), "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
        metrics.put("req_per_s", analyses / untraced.wall_s, "req/s");
    }
    checker.oracle(&items)?;
    Ok(Outcome {
        tally: checker.tally,
        metrics,
        checks_ok: trace_ok,
    })
}
