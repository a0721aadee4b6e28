//! JSON round-trip tests for the versioned report schema: a full report —
//! dependences, PET, loop classes, tasks, ranking, patterns — must survive
//! serialize → parse → serialize bit-for-bit.

use discopop::profiler::{Dep, DepType};
use discopop::report::{ReportDoc, SCHEMA_VERSION};
use discopop::{Analysis, EngineKind};
use jsonio::{WriteJson, Writer};

/// A program that exercises every report section: a DOALL loop, a
/// reduction, a recurrence (blocking deps), printing, and a call.
const SRC: &str = r#"
global int a[64];
global int b[64];
global int total;
fn scale(int k) -> int { return k * 3; }
fn main() {
    for (int i = 0; i < 64; i = i + 1) {
        a[i] = scale(i);
    }
    for (int j = 1; j < 64; j = j + 1) {
        b[j] = b[j - 1] + a[j];
    }
    for (int k = 0; k < 64; k = k + 1) {
        total = total + a[k];
    }
    print(total);
}
"#;

fn full_report(engine: EngineKind) -> (discopop::Compiled, discopop::Report) {
    let mut analysis = Analysis::new().engine(engine);
    let compiled = analysis.compile(SRC, "roundtrip").unwrap();
    let report = analysis.analyze_compiled(&compiled).unwrap();
    (compiled, report)
}

#[test]
fn full_report_roundtrips_through_json() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let doc = report.to_doc(compiled.program());
    assert_eq!(doc.schema_version, SCHEMA_VERSION);

    let json = doc.to_json().to_string_pretty();
    let parsed = ReportDoc::from_json_str(&json).expect("parses back");
    assert_eq!(parsed, doc, "doc-level round trip");
    assert_eq!(
        parsed.to_json().to_string_pretty(),
        json,
        "byte-level round trip"
    );
}

#[test]
fn report_covers_every_section() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let doc = report.to_doc(compiled.program());

    assert_eq!(doc.program, "roundtrip");
    assert_eq!(doc.engine, "serial-perfect");
    assert!(doc.profile.steps > 0);
    assert!(doc.profile.accesses > 0);
    assert!(!doc.profile.dependences.is_empty());
    assert!(doc.profile.pet.len() >= 3, "root + main + loops");
    assert_eq!(doc.profile.pet[0].kind, "root");
    assert!(doc.profile.parallel.is_none());
    assert_eq!(doc.profile.printed.len(), 1);

    // Names must be resolved, not ids.
    assert!(doc
        .profile
        .dependences
        .iter()
        .any(|d| &*d.var == "total" && d.ty == DepType::Raw));
    assert!(doc
        .profile
        .pet
        .iter()
        .any(|n| n.kind == "function" && n.name == "main"));

    assert_eq!(doc.discovery.loops.len(), 3);
    let classes = doc.loop_classes();
    assert!(classes.contains(&"Doall"), "{classes:?}");
    assert!(classes.contains(&"Reduction"), "{classes:?}");
    // The recurrence loop carries blocking dependences into the doc.
    assert!(doc
        .discovery
        .loops
        .iter()
        .any(|l| !l.blocking.is_empty() && l.blocking.iter().all(|d| d.count > 0)));
    assert!(!doc.discovery.ranked.is_empty());
    assert!(!doc.discovery.patterns.is_empty());
}

#[test]
fn parallel_engine_report_carries_transport_stats() {
    let (compiled, report) = full_report(EngineKind::parallel(4));
    let doc = report.to_doc(compiled.program());
    assert_eq!(doc.engine, "parallel:4x256:lock-free");
    let par = doc.profile.parallel.as_ref().expect("parallel stats");
    assert!(par.chunks > 0);
    assert_eq!(par.worker_processed.len(), 4);

    let json = doc.to_json().to_string_pretty();
    let parsed = ReportDoc::from_json_str(&json).unwrap();
    assert_eq!(parsed, doc);
}

#[test]
fn schema_version_is_enforced() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let json = report.to_json_string(compiled.program());
    let bumped = json.replacen(
        &format!("\"schema_version\": {SCHEMA_VERSION}"),
        "\"schema_version\": 999",
        1,
    );
    assert_ne!(json, bumped, "version stamp must be present");
    let err = ReportDoc::from_json_str(&bumped).unwrap_err();
    assert!(err.0.contains("schema version"), "{err}");
}

/// Schema evolution: a version-1 document — no adaptive-transport fields
/// in `profile.parallel` — must still parse, with the v2 fields defaulting
/// to zero.
#[test]
fn schema_v1_documents_still_parse() {
    let (compiled, report) = full_report(EngineKind::parallel(2));
    let mut json = report.to_json_string(compiled.program());
    json = json.replacen(
        &format!("\"schema_version\": {SCHEMA_VERSION}"),
        "\"schema_version\": 1",
        1,
    );
    for v2_field in ["combined", "merges", "queue_stalls", "spawned_workers"] {
        let needle = format!("\"{v2_field}\":");
        let start = json.find(&needle).expect("v2 field present");
        let end = start + json[start..].find('\n').unwrap() + 1;
        json.replace_range(start..end, "");
    }
    let doc = ReportDoc::from_json_str(&json).expect("v1 documents must parse");
    assert_eq!(doc.schema_version, 1);
    let par = doc.profile.parallel.expect("parallel stats survive");
    assert!(par.chunks > 0, "v1 fields read normally");
    assert_eq!(
        (
            par.combined,
            par.merges,
            par.queue_stalls,
            par.spawned_workers
        ),
        (0, 0, 0, 0),
        "v2 fields default to zero"
    );
}

/// Schema evolution: a version-3 document — no top-level `static` block —
/// must still parse, with `statics` defaulting to absent.
#[test]
fn schema_v3_documents_still_parse() {
    let mut analysis = Analysis::new().with_static(true);
    let compiled = analysis.compile(SRC, "v3compat").unwrap();
    let report = analysis.analyze_compiled(&compiled).unwrap();
    assert!(report.statics.is_some(), "static pre-pass ran");

    let doc = report.to_doc(compiled.program());
    let mut json = doc.to_json();
    // A v3 writer never emitted the block; drop it and restamp.
    let jsonio::Value::Object(ref mut fields) = json else {
        panic!("document must be an object");
    };
    fields.retain(|(k, _)| k != "static");
    fields
        .iter_mut()
        .find(|(k, _)| k == "schema_version")
        .expect("version stamp present")
        .1 = jsonio::Value::from(3u32);

    let parsed =
        ReportDoc::from_json_str(&json.to_string_pretty()).expect("v3 documents must parse");
    assert_eq!(parsed.schema_version, 3);
    assert!(parsed.statics.is_none(), "static defaults to absent");
    assert_eq!(parsed.discovery, doc.discovery, "v3 fields read normally");
}

/// Schema evolution: a version-4 document — no `profile.summary` block —
/// must still parse, with `summary` defaulting to absent.
#[test]
fn schema_v4_documents_still_parse() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let doc = report.to_doc(compiled.program());
    assert!(
        doc.profile.summary.is_some(),
        "v5 writers always emit the summary block"
    );

    let mut json = doc.to_json();
    // A v4 writer never emitted the block; drop it and restamp.
    let jsonio::Value::Object(ref mut fields) = json else {
        panic!("document must be an object");
    };
    fields
        .iter_mut()
        .find(|(k, _)| k == "schema_version")
        .expect("version stamp present")
        .1 = jsonio::Value::from(4u32);
    let profile = &mut fields
        .iter_mut()
        .find(|(k, _)| k == "profile")
        .expect("profile section present")
        .1;
    let jsonio::Value::Object(ref mut pfields) = profile else {
        panic!("profile must be an object");
    };
    pfields.retain(|(k, _)| k != "summary");

    let parsed =
        ReportDoc::from_json_str(&json.to_string_pretty()).expect("v4 documents must parse");
    assert_eq!(parsed.schema_version, 4);
    assert!(
        parsed.profile.summary.is_none(),
        "summary defaults to absent"
    );
    assert_eq!(parsed.discovery, doc.discovery, "v4 fields read normally");
}

/// Schema evolution: a version-5 document — no `profile.actors` block —
/// must still parse, with `actors` defaulting to absent.
#[test]
fn schema_v5_documents_still_parse() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let doc = report.to_doc(compiled.program());

    let mut json = doc.to_json();
    // A v5 writer never emitted the block; drop it and restamp.
    let jsonio::Value::Object(ref mut fields) = json else {
        panic!("document must be an object");
    };
    fields
        .iter_mut()
        .find(|(k, _)| k == "schema_version")
        .expect("version stamp present")
        .1 = jsonio::Value::from(5u32);
    let profile = &mut fields
        .iter_mut()
        .find(|(k, _)| k == "profile")
        .expect("profile section present")
        .1;
    let jsonio::Value::Object(ref mut pfields) = profile else {
        panic!("profile must be an object");
    };
    pfields.retain(|(k, _)| k != "actors");

    let parsed =
        ReportDoc::from_json_str(&json.to_string_pretty()).expect("v5 documents must parse");
    assert_eq!(parsed.schema_version, 5);
    assert!(parsed.profile.actors.is_none(), "actors defaults to absent");
    assert_eq!(parsed.discovery, doc.discovery, "v5 fields read normally");
}

/// A message-passing program that exercises the scheduler and mailboxes.
const ACTOR_SRC: &str = r#"
fn main() -> int {
    int c = spawn_actor(stage, 0);
    for (int i = 0; i < 8; i = i + 1) { send(c, i); }
    join(c);
    return receive();
}
fn stage(int x) {
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) { s = s + receive(); }
    send(0, s);
}
"#;

/// The schema-v6 `actors` block is emitted for message-passing programs,
/// carries the channel matrix and its digest, and round-trips byte-for-byte.
#[test]
fn actors_block_roundtrips_for_message_passing_programs() {
    let mut analysis = Analysis::new();
    let compiled = analysis.compile(ACTOR_SRC, "actors-rt").unwrap();
    let report = analysis.analyze_compiled(&compiled).unwrap();
    let doc = report.to_doc(compiled.program());

    let a = doc.profile.actors.as_ref().expect("actors block present");
    assert_eq!(a.spawned, 2);
    assert_eq!(a.peak_live, 2);
    assert_eq!(a.sent, 9, "8 pipeline messages + 1 reply");
    assert_eq!(a.received, 9);
    assert_eq!(a.channels, vec![(0, 1, 8), (1, 0, 1)]);
    assert_eq!(
        a.channel_digest,
        discopop::report::ActorsDoc::digest_channels(&a.channels)
    );

    let json = doc.to_json().to_string_pretty();
    assert!(json.contains("\"actors\""), "{json}");
    let parsed = ReportDoc::from_json_str(&json).expect("parses back");
    assert_eq!(parsed, doc, "doc-level round trip");
    assert_eq!(
        parsed.to_json().to_string_pretty(),
        json,
        "byte-level round trip"
    );

    // Single-actor programs never emit the block.
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let doc = report.to_doc(compiled.program());
    assert!(doc.profile.actors.is_none());
}

/// The schema-v5 `summary` block reports plan replay when the affine skip
/// tier engages, and zeroes (but still round-trips) when it is off.
#[test]
fn summary_block_reflects_the_affine_skip_tier() {
    let mut on = Analysis::new().with_static(true);
    let compiled = on.compile(SRC, "summary").unwrap();
    let report = on.analyze_compiled(&compiled).unwrap();
    let doc = report.to_doc(compiled.program());
    let s = doc.profile.summary.as_ref().expect("summary present");
    // The recurrence and reduction loops are fully affine and counted; the
    // call-bearing first loop is not eligible.
    assert!(s.loops_skipped > 0, "{s:?}");
    assert!(s.synthesized_accesses > 0, "{s:?}");
    assert!(s.dispatches > 0);

    let mut off = Analysis::new().with_static(true).affine_skip(false);
    let report_off = off.analyze_compiled(&compiled).unwrap();
    let doc_off = report_off.to_doc(compiled.program());
    let s_off = doc_off.profile.summary.as_ref().expect("summary present");
    assert_eq!(s_off.loops_skipped, 0);
    assert_eq!(s_off.synthesized_accesses, 0);
    assert!(
        s.dispatches < s_off.dispatches,
        "plan replay must eliminate dispatches: {} vs {}",
        s.dispatches,
        s_off.dispatches
    );
    // Identical dependences either way.
    assert_eq!(doc.profile.dependences, doc_off.profile.dependences);

    let json = doc.to_json().to_string_pretty();
    let parsed = ReportDoc::from_json_str(&json).expect("parses back");
    assert_eq!(parsed, doc, "summary round-trips");
}

/// The schema-v4 `static` block survives a full JSON round trip and
/// reports sensible numbers for the roundtrip program.
#[test]
fn static_block_roundtrips_and_reports_coverage() {
    let mut analysis = Analysis::new().with_static(true);
    let compiled = analysis.compile(SRC, "static-rt").unwrap();
    let report = analysis.analyze_compiled(&compiled).unwrap();
    let doc = report.to_doc(compiled.program());

    let st = doc.statics.as_ref().expect("static block present");
    assert!(!st.spawns_threads);
    assert_eq!(st.loops.len(), 3, "one entry per source loop");
    assert!(st.mem_ops > 0);
    assert!(
        st.affine_ops * 2 >= st.mem_ops,
        "at least half the in-loop ops classify affine: {}/{}",
        st.affine_ops,
        st.mem_ops
    );
    assert!(
        st.loops.iter().any(|l| l.doall_candidate),
        "the a[i] = scale(i) loop is a static doall candidate"
    );
    assert!(
        st.claims.iter().any(|c| c.var == "a"),
        "independent a[i] accesses are claimed: {:?}",
        st.claims
    );

    let json = doc.to_json().to_string_pretty();
    let parsed = ReportDoc::from_json_str(&json).expect("parses back");
    assert_eq!(parsed, doc, "doc-level round trip");
    assert_eq!(
        parsed.to_json().to_string_pretty(),
        json,
        "byte-level round trip"
    );
}

#[test]
fn malformed_documents_are_rejected() {
    for bad in ["", "{}", "[1,2,3]", "{\"schema_version\": 1}"] {
        assert!(ReportDoc::from_json_str(bad).is_err(), "`{bad}`");
    }
}

/// The three ways out of a report must agree byte for byte: the pretty
/// text streamed by `to_json_string`, the compact text streamed from the
/// doc, and the tree built by `to_json` — and the text must parse back to
/// the same doc.
fn assert_targets_agree(
    name: &str,
    program: &discopop::interp::Program,
    report: &discopop::Report,
) {
    let doc = report.to_doc(program);
    let tree = doc.to_json();
    let pretty = report.to_json_string(program);
    assert_eq!(pretty, tree.to_string_pretty(), "{name}: pretty text");
    let mut w = Writer::compact();
    doc.write_json(&mut w);
    assert_eq!(w.into_string(), tree.to_string(), "{name}: compact text");
    let parsed = ReportDoc::from_json_str(&pretty).expect("parses back");
    assert_eq!(parsed, doc, "{name}: parsed doc");
}

/// Every program of the evaluation set, analysed as `discopop analyze
/// --static` does (auto-selected engine). `actors_10k` is left out: it is
/// too slow in a debug build, and `actor_fanout`/`actor_ring` cover the
/// actor block.
#[test]
fn every_workload_report_is_byte_identical_across_targets() {
    let mut seen = 0;
    for wl in workloads::all() {
        if wl.name == "actors_10k" {
            continue;
        }
        let mut analysis = Analysis::new().with_static(true);
        let compiled = analysis.compile(wl.source, wl.name).unwrap();
        analysis.engine_mut(EngineKind::auto_for(compiled.program()));
        let report = analysis.analyze_compiled(&compiled).unwrap();
        assert_targets_agree(wl.name, compiled.program(), &report);
        seen += 1;
    }
    assert!(seen >= 50, "only {seen} workloads");
}

/// A dependence that does not fit the packed `DepKey` lives in the
/// `DepSet`'s wide map; it must still sort into place with its count.
#[test]
fn wide_dependences_keep_order_and_counts_in_the_report() {
    let (compiled, mut report) = full_report(EngineKind::SerialPerfect);
    let base = report.profile.deps.sorted()[0];
    let wide = Dep {
        sink_thread: 5000,
        ..base
    };
    // Thread ids past 4095 exceed the packed key's 12-bit budget.
    report.profile.deps.insert_n(wide, 3);

    let doc = report.to_doc(compiled.program());
    let deps = &report.profile.deps;
    let sorted = deps.sorted();
    assert_eq!(doc.profile.dependences.len(), sorted.len());
    for (d, want) in doc.profile.dependences.iter().zip(&sorted) {
        let got = (
            d.sink,
            d.ty,
            d.source,
            d.sink_thread,
            d.source_thread,
            d.carried_by,
            d.race_hint,
        );
        let want_key = (
            want.sink,
            want.ty,
            want.source,
            want.sink_thread,
            want.source_thread,
            want.carried_by,
            want.race_hint,
        );
        assert_eq!(got, want_key);
        assert_eq!(d.count, deps.count(want));
    }
    assert!(doc
        .profile
        .dependences
        .iter()
        .any(|d| d.sink_thread == 5000 && d.count == 3));
    assert_targets_agree("wide", compiled.program(), &report);
}

/// A malformed location or an unknown dependence type is a schema error,
/// not a panic.
#[test]
fn malformed_dependences_are_schema_errors() {
    let (compiled, report) = full_report(EngineKind::SerialPerfect);
    let json = report.to_json_string(compiled.program());
    let raw = "\"type\": \"RAW\"";
    assert!(json.contains(raw));
    for (from, to) in [
        ("\"sink\": \"1:", "\"sink\": \"x:"),
        ("\"sink\": \"1:", "\"sink\": \"1"),
        ("\"source\": \"1:", "\"source\": \":"),
        ("\"sink\": \"1:", "\"sink\": \"-1:"),
        ("\"sink\": \"1:", "\"sink\": \"+1:"),
        (raw, "\"type\": \"RAWR\""),
        (raw, "\"type\": 0"),
    ] {
        let bad = json.replacen(from, to, 1);
        assert_ne!(bad, json, "{to}");
        let err = ReportDoc::from_json_str(&bad).expect_err(to);
        assert!(
            err.0.contains("sink") || err.0.contains("source") || err.0.contains("type"),
            "{err}"
        );
    }
}
