//! `perfbench`: the seeded benchmark of the discopop pipeline.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench daemon        # the serve_mix daemon (started by the benchmark)
//! ```
//!
//! Workloads: `loop_nest`, `corpus`, `actors_10k` (in-process analyses)
//! and `serve_mix` (a daemon under load). With `--trace 0` the run prints
//! the end-to-end metrics; with `--trace 1` it prints the per-layer
//! metrics and writes its spans to `.bench_out/`. The last line of
//! standard output is the result object; the process exits non-zero when
//! a run cannot complete.

mod batch;
mod gen;
mod layers;
mod pipeline;
mod serve_mix;
mod stats;
mod trace;

use jsonio::Value;
use std::process::ExitCode;

/// End-to-end metric names and units, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_per_s", "req/s"),
];

pub const WORKLOADS: &[&str] = &["loop_nest", "corpus", "actors_10k", "serve_mix"];

/// Times input generation is repeated during set-up; the median counts.
/// Generation takes microseconds, so many repetitions keep it steady.
pub const GEN_REPS: usize = 51;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad --seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run hands back for the result line.
pub struct Outcome {
    pub tally: stats::Tally,
    pub metrics: stats::Metrics,
    /// Checks on the run as a whole (trace coverage, traced reports equal
    /// to untraced ones) passed.
    pub checks_ok: bool,
}

/// Provenance of a run, from the environment the launcher sets
/// (`PERFBENCH_COMMIT`, `PERFBENCH_RUSTC`) plus what the process sees.
fn provenance(args: &Args) -> Value {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Value::object([
        ("workload", Value::from(args.workload.as_str())),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::from(args.seconds)),
        ("trace", Value::from(args.trace)),
        ("nproc", Value::from(nproc)),
        ("commit", Value::from(env("PERFBENCH_COMMIT"))),
        ("rustc", Value::from(env("PERFBENCH_RUSTC"))),
    ])
}

/// Write the spans of a traced run to
/// `.bench_out/trace-<workload>-<seed>.json`, under the working directory.
pub fn write_trace(args: &Args, tr: &trace::Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let doc = Value::object([("provenance", provenance(args)), ("spans", tr.to_json())]);
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return serve_mix::daemon_main();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "serve_mix" {
        serve_mix::run(&args)
    } else {
        batch::run(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload, args.seed);
            return ExitCode::FAILURE;
        }
    };
    let want: Vec<&str> = if args.trace {
        layers::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    assert_eq!(
        outcome.metrics.names(),
        want,
        "every metric, in catalog order"
    );
    let t = outcome.tally;
    println!("provenance {}", provenance(&args).to_string());
    let result = Value::object([
        ("correct", Value::from(t.failed == 0 && outcome.checks_ok)),
        ("attempted", Value::from(t.attempted)),
        ("failed", Value::from(t.failed)),
        ("metrics", outcome.metrics.to_json()),
    ]);
    println!("{}", result.to_string());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(END_TO_END));
        assert_eq!(list("per_layer"), own(layers::PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_are_checked() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload corpus --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse_args(&v("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&v("--workload corpus --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&v("--workload corpus --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&v("--workload corpus --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
