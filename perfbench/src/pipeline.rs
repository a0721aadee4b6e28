//! One analysis of one source, the way `discopop analyze FILE --static
//! --json PATH` runs it (batch) or the way the daemon runs a job (served),
//! plus the checks on its output and the probes of the traced run.
//!
//! Untraced, the analysis goes through the `discopop::Analysis` facade.
//! Traced, the benchmark makes the facade's calls itself, one layer at a
//! time, so each layer gets a span; the report is the same either way (the
//! dependence digest and the JSON report are compared by the callers).

use crate::gen::Source;
use crate::trace::Tracer;
use discopop::{Analysis, Compiled, EngineKind, Report, StaticReport};
use interp::{Event, Sink};
use std::time::Instant;

/// Which configuration the analysis runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `discopop analyze FILE --static --json PATH`: static pass and
    /// `cross_check`, auto engine with the affine skip tier armed, the
    /// human report and the pretty JSON report.
    Batch,
    /// A `discopop serve` job with default options: no static pass, auto
    /// engine, the compact JSON report the daemon sends.
    Served,
}

/// What one analysis produced, and what the checks need from it.
pub struct Analyzed {
    pub compiled: Compiled,
    pub report: Report,
    pub engine: EngineKind,
    /// The JSON report as the program renders it.
    pub json: String,
    pub violations: usize,
    /// Wall time of the analysis, from source to both reports.
    pub wall_s: f64,
}

impl Analyzed {
    pub fn digest(&self) -> u64 {
        digest(&self.report.profile.deps)
    }
}

/// Run one analysis. With the tracer enabled, every layer call is a child
/// span of one `analysis` span; `item` groups the spans of one timed unit.
pub fn analyze(src: &Source, mode: Mode, tr: &mut Tracer, item: u64) -> Result<Analyzed, String> {
    let t0 = Instant::now();
    let out = tr.span("analysis", item, |tr| {
        if tr.enabled() {
            layered(src, mode, tr, item)
        } else {
            facade(src, mode)
        }
    });
    out.map(|mut a| {
        a.wall_s = t0.elapsed().as_secs_f64();
        a
    })
}

fn facade(src: &Source, mode: Mode) -> Result<Analyzed, String> {
    let mut analysis = Analysis::new().with_static(mode == Mode::Batch);
    let compiled = analysis
        .compile(&src.text, &src.name)
        .map_err(|e| e.to_string())?;
    let engine = EngineKind::auto_for(compiled.program());
    analysis.engine_mut(engine);
    let report = analysis
        .analyze_compiled(&compiled)
        .map_err(|e| e.to_string())?;
    Ok(finish(compiled, report, engine, mode))
}

fn finish(compiled: Compiled, report: Report, engine: EngineKind, mode: Mode) -> Analyzed {
    let program = compiled.program();
    let (violations, json) = match mode {
        Mode::Batch => {
            let violations = report.statics.as_ref().map_or(0, |s| {
                discopop::cross_check(program, s, &report.profile.deps).len()
            });
            std::hint::black_box(discopop::render_report(program, &report));
            (violations, report.to_json_string(program))
        }
        Mode::Served => (0, report.to_doc(program).to_json().to_string()),
    };
    Analyzed {
        compiled,
        report,
        engine,
        json,
        violations,
        wall_s: 0.0,
    }
}

/// The facade's calls made one by one, each in its own span.
fn layered(src: &Source, mode: Mode, tr: &mut Tracer, item: u64) -> Result<Analyzed, String> {
    let module = tr
        .span("lang.compile", item, |_| {
            lang::compile(&src.text, &src.name)
        })
        .map_err(|e| e.to_string())?;
    let program = tr.span("interp.decode", item, |_| interp::Program::new(module));
    let compiled = Compiled::new(program);
    let program = compiled.program();
    let engine = EngineKind::auto_for(program);
    let cfg = Analysis::new()
        .with_static(mode == Mode::Batch)
        .engine(engine)
        .profile_config();
    let output = tr
        .span("profiler.profile", item, |_| {
            profiler::profile_program_with(program, &cfg)
        })
        .map_err(|e| discopop::Error::from(e).to_string())?;
    let statics = (mode == Mode::Batch).then(|| {
        tr.span("analysis.static", item, |_| {
            StaticReport::of(&program.module)
        })
    });
    let discovery = tr.span("discovery.discover", item, |_| {
        discovery::discover(program, &output.deps, &output.pet)
    });
    let report = Report {
        program: compiled.name.clone(),
        engine: engine.label(),
        profile: output,
        discovery,
        statics,
    };
    let (violations, json) = match mode {
        Mode::Batch => {
            let violations = match &report.statics {
                Some(s) => tr.span("analysis.cross_check", item, |_| {
                    discopop::cross_check(program, s, &report.profile.deps).len()
                }),
                None => 0,
            };
            let text = tr.span("report.text", item, |_| {
                discopop::render_report(program, &report)
            });
            std::hint::black_box(text);
            let json = tr.span("report.json", item, |_| report.to_json_string(program));
            (violations, json)
        }
        Mode::Served => {
            let json = tr.span("report.json", item, |_| {
                report.to_doc(program).to_json().to_string()
            });
            (0, json)
        }
    };
    Ok(Analyzed {
        compiled,
        report,
        engine,
        json,
        violations,
        wall_s: 0.0,
    })
}

/// FNV-1a over the sorted dependence set, occurrence counts included.
pub fn digest(deps: &profiler::DepSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for d in deps.sorted() {
        eat(u64::from(d.sink.file) << 32 | u64::from(d.sink.line));
        eat(u64::from(d.source.file) << 32 | u64::from(d.source.line));
        eat(d.ty as u64);
        eat(u64::from(d.var));
        eat(u64::from(d.sink_thread) << 32 | u64::from(d.source_thread));
        let (f, r) = d.carried_by.map_or((u32::MAX, u32::MAX), |(f, r)| (f, r));
        eat(u64::from(f) << 32 | u64::from(r));
        eat(u64::from(d.race_hint));
        eat(deps.count(&d));
    }
    h
}

/// The oracle: replay the program on the tree-walking reference
/// interpreter into a fresh profiler of `engine`, and return the digest
/// of its dependences and what the program printed. Shares no dispatch
/// code with the timed runs.
pub fn oracle(program: &interp::Program, engine: EngineKind) -> Result<(u64, Vec<String>), String> {
    use profiler::{EngineConfig, ParallelConfig, ParallelProfiler, SerialProfiler};
    let run = interp::RunConfig::default();
    let cfg = EngineConfig { skip_loops: false };
    let ops = program.num_mem_ops();
    let (deps, printed) = match engine {
        EngineKind::SerialPerfect => {
            let mut p = SerialProfiler::with_perfect(ops, cfg, true);
            let r = interp::reference::run_with_config(program, &mut p, run)
                .map_err(|e| e.to_string())?;
            (p.finish(r.steps).0, r.printed)
        }
        EngineKind::SerialSignature { slots } => {
            let mut p = SerialProfiler::with_signature(slots, ops, cfg, true);
            let r = interp::reference::run_with_config(program, &mut p, run)
                .map_err(|e| e.to_string())?;
            (p.finish(r.steps).0, r.printed)
        }
        EngineKind::Parallel {
            workers,
            chunk,
            queue,
        } => {
            let pcfg = ParallelConfig {
                workers: workers.max(1),
                chunk_size: chunk.max(1),
                sig_slots: EngineKind::parallel_worker_slots(workers),
                queue,
                ..ParallelConfig::default()
            };
            let mut p = ParallelProfiler::new(pcfg, program);
            let r = interp::reference::run_with_config(program, &mut p, run)
                .map_err(|e| e.to_string())?;
            (p.finalize(r.steps, Vec::new()).deps, r.printed)
        }
    };
    Ok((digest(&deps), printed))
}

/// Counts the events an instrumented run emits; the cheapest sink that
/// still makes the interpreter build and deliver every event.
#[derive(Debug, Default)]
struct CountingSink {
    events: u64,
    mem: u64,
}

impl Sink for CountingSink {
    fn event(&mut self, ev: &Event) {
        self.events += 1;
        self.mem += u64::from(matches!(ev, Event::Mem(_)));
    }

    fn events(&mut self, evs: &[Event]) {
        for ev in evs {
            self.event(ev);
        }
    }
}

/// What the probes of one program measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    pub native_s: f64,
    pub emit_total_s: f64,
    pub steps: u64,
    pub dispatches: u64,
    pub mem_events: u64,
    pub cu_build_s: f64,
    pub cu_nodes: u64,
    pub actor_comm_s: f64,
}

/// Calls that a layer makes inside another layer's span, timed on their
/// own: the interpreter without a profiler (`NullSink`), the interpreter
/// feeding a counting sink, the CU graph that discovery builds, and the
/// actor matrix the human report builds.
pub fn probe(a: &Analyzed, mode: Mode, tr: &mut Tracer, item: u64) -> Result<Probe, String> {
    let program = a.compiled.program();
    let run = Analysis::new()
        .with_static(mode == Mode::Batch)
        .engine(a.engine)
        .profile_config()
        .run;
    let mut p = Probe::default();
    let t = Instant::now();
    let r = tr
        .span("probe.interp.native", item, |_| {
            interp::run_with_config(program, interp::NullSink, run.clone())
        })
        .map_err(|e| e.to_string())?;
    p.native_s = t.elapsed().as_secs_f64();
    p.steps = r.steps;
    p.dispatches = r.dispatches;
    let mut sink = CountingSink::default();
    let t = Instant::now();
    tr.span("probe.interp.emit", item, |_| {
        interp::run_with_config(program, &mut sink, run)
    })
    .map_err(|e| e.to_string())?;
    p.emit_total_s = t.elapsed().as_secs_f64();
    p.mem_events = sink.mem;
    let profile = &a.report.profile;
    let t = Instant::now();
    let graph = tr.span("probe.cu.build", item, |_| {
        cu::build_cu_graph_fine(&cu::CuBuildInput {
            program,
            deps: &profile.deps,
            pet: Some(&profile.pet),
        })
    });
    p.cu_build_s = t.elapsed().as_secs_f64();
    p.cu_nodes = graph.len() as u64;
    drop(graph);
    if let (Mode::Batch, Some(actors)) = (mode, &profile.actors) {
        let t = Instant::now();
        let comm = tr.span("probe.apps.actor_comm", item, |_| {
            apps::actor_comm(
                &actors.channels,
                actors.spawned as usize,
                &profile.deps,
                program.mailbox_symbol(),
            )
        });
        p.actor_comm_s = t.elapsed().as_secs_f64();
        drop(comm);
    }
    Ok(p)
}

/// How many annotated loops got the verdict their annotation states
/// (parallel = DOALL or reduction), out of how many.
pub fn truth_agreement(src: &Source, report: &Report) -> (u64, u64) {
    let mut agree = 0;
    for t in &src.truths {
        let Some(line) = src.line_of(&t.marker) else {
            continue;
        };
        let parallel = report
            .discovery
            .loops
            .iter()
            .find(|l| l.info.start_line == line)
            .map(|l| {
                matches!(
                    l.class,
                    discovery::LoopClass::Doall | discovery::LoopClass::Reduction
                )
            });
        agree += u64::from(parallel == Some(t.parallel));
    }
    (agree, src.truths.len() as u64)
}
