//! Dependence representation, runtime merging, and the text output format
//! of dissertation §2.3.1 / Fig. 2.1 / Fig. 2.3.

use crate::access::LoopKey;
use fxhash::FxHashMap;
use serde::Serialize;
use std::fmt::Write;

/// Dependence type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum DepType {
    /// Read-after-write (flow/true dependence).
    Raw,
    /// Write-after-read (anti-dependence).
    War,
    /// Write-after-write (output dependence).
    Waw,
    /// First write to an address.
    Init,
}

impl DepType {
    /// The DiscoPoP spelling: `RAW`, `WAR`, `WAW`, `INIT`.
    pub fn as_str(self) -> &'static str {
        match self {
            DepType::Raw => "RAW",
            DepType::War => "WAR",
            DepType::Waw => "WAW",
            DepType::Init => "INIT",
        }
    }

    /// Inverse of [`DepType::as_str`]; `None` for any other text.
    pub fn parse(s: &str) -> Option<DepType> {
        match s {
            "RAW" => Some(DepType::Raw),
            "WAR" => Some(DepType::War),
            "WAW" => Some(DepType::Waw),
            "INIT" => Some(DepType::Init),
            _ => None,
        }
    }
}

impl std::fmt::Display for DepType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A source location `fileID:lineID`. This reproduction profiles one module
/// at a time, so `file` is always 1 — kept for format fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct SrcLoc {
    /// Module ("file") id.
    pub file: u32,
    /// 1-based source line.
    pub line: u32,
}

impl SrcLoc {
    /// Location in module 1.
    pub fn new(line: u32) -> Self {
        SrcLoc { file: 1, line }
    }
}

impl std::fmt::Display for SrcLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// A merged data dependence: `<sink, type, source>` plus the attributes
/// DiscoPoP reports (variable, thread ids, inter-iteration tag) and this
/// reproduction's extras (the loop that carries it, race hint).
///
/// Two dependences are identical — and merged — iff every field matches
/// (§2.3.5, "runtime data dependence merging").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Dep {
    /// Location of the later access.
    pub sink: SrcLoc,
    /// Dependence type.
    pub ty: DepType,
    /// Location of the earlier access (equal to `sink` for INIT).
    pub source: SrcLoc,
    /// Symbol id of the variable (`u32::MAX` renders as `*` for INIT).
    pub var: u32,
    /// Thread that executed the sink.
    pub sink_thread: u32,
    /// Thread that executed the source.
    pub source_thread: u32,
    /// The loop (function, region) whose iterations carry this dependence,
    /// if source and sink occurred in different iterations of a common loop.
    pub carried_by: Option<LoopKey>,
    /// Set when the profiler observed a timestamp inversion for this pair —
    /// evidence the two accesses were not mutually exclusive (§2.3.4).
    pub race_hint: bool,
}

impl Dep {
    /// True if this dependence crosses threads.
    pub fn is_cross_thread(&self) -> bool {
        self.sink_thread != self.source_thread
    }

    /// True if this dependence is loop-carried (in any loop).
    pub fn is_loop_carried(&self) -> bool {
        self.carried_by.is_some()
    }
}

/// A [`Dep`] packed losslessly into two `u64`s — the hot hashing key of
/// [`DepSet`].
///
/// The unpacked `Dep` is 40 bytes and its derived `Hash` feeds every field
/// through the hasher separately; the packed key is 16 bytes and hashes as
/// two words. Field budgets (checked by [`DepKey::pack`], which returns
/// `None` when exceeded so the caller can fall back to the wide
/// representation):
///
/// | field          | bits | limit                      |
/// |----------------|-----:|----------------------------|
/// | sink line      |   24 | < 2^24                     |
/// | source line    |   24 | < 2^24                     |
/// | sink thread    |   12 | < 4096                     |
/// | source thread  |   12 | < 4096                     |
/// | variable       |   24 | < 2^24 − 1 (`u32::MAX` maps to the all-ones sentinel) |
/// | carried func   |   14 | < 2^14                     |
/// | carried region |   14 | < 2^14                     |
/// | type/race/carried flag | 4 |                       |
///
/// File ids must be 1 (the single-module invariant of [`SrcLoc::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct DepKey(u64, u64);

/// 24-bit variable sentinel standing in for `u32::MAX` ("no variable").
const VAR_STAR: u64 = (1 << 24) - 1;

impl DepKey {
    /// Pack a dependence, or `None` if any field exceeds its bit budget.
    pub fn pack(d: &Dep) -> Option<DepKey> {
        let var = if d.var == u32::MAX {
            VAR_STAR
        } else if (d.var as u64) < VAR_STAR {
            d.var as u64
        } else {
            return None;
        };
        let (carried, cf, cr) = match d.carried_by {
            None => (0u64, 0u64, 0u64),
            Some((f, r)) if f < (1 << 14) && r < (1 << 14) => (1, f as u64, r as u64),
            Some(_) => return None,
        };
        if d.sink.file != 1
            || d.source.file != 1
            || d.sink.line >= (1 << 24)
            || d.source.line >= (1 << 24)
            || d.sink_thread >= (1 << 12)
            || d.source_thread >= (1 << 12)
        {
            return None;
        }
        let ty = match d.ty {
            DepType::Raw => 0u64,
            DepType::War => 1,
            DepType::Waw => 2,
            DepType::Init => 3,
        };
        let w0 = d.sink.line as u64
            | (d.source.line as u64) << 24
            | (d.sink_thread as u64) << 48
            | ty << 60
            | (d.race_hint as u64) << 62
            | carried << 63;
        let w1 = var | (d.source_thread as u64) << 24 | cf << 36 | cr << 50;
        Some(DepKey(w0, w1))
    }

    /// Reconstruct the dependence. Exact inverse of [`DepKey::pack`].
    pub fn unpack(self) -> Dep {
        let DepKey(w0, w1) = self;
        let var24 = w1 & VAR_STAR;
        Dep {
            sink: SrcLoc::new((w0 & 0xFF_FFFF) as u32),
            ty: match (w0 >> 60) & 3 {
                0 => DepType::Raw,
                1 => DepType::War,
                2 => DepType::Waw,
                _ => DepType::Init,
            },
            source: SrcLoc::new((w0 >> 24 & 0xFF_FFFF) as u32),
            var: if var24 == VAR_STAR {
                u32::MAX
            } else {
                var24 as u32
            },
            sink_thread: (w0 >> 48 & 0xFFF) as u32,
            source_thread: (w1 >> 24 & 0xFFF) as u32,
            carried_by: if w0 >> 63 == 1 {
                Some(((w1 >> 36 & 0x3FFF) as u32, (w1 >> 50 & 0x3FFF) as u32))
            } else {
                None
            },
            race_hint: w0 >> 62 & 1 == 1,
        }
    }
}

/// The merged dependence store: one entry per distinct dependence with an
/// occurrence count.
///
/// Keyed with the in-repo [`fxhash`] hasher over the packed 16-byte
/// [`DepKey`] (vs the 40-byte unpacked [`Dep`]): the map is probed once per
/// profiled access that builds a dependence, so key size and hashing cost
/// are directly on the profiling hot path. Dependences whose fields exceed
/// the packed bit budgets — possible only for synthetic inputs, never for
/// profiler-built dependences on realistic modules — fall back to a wide
/// map keyed by the full `Dep`, preserving exactness.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DepSet {
    map: FxHashMap<DepKey, u64>,
    /// Fallback for dependences that do not fit [`DepKey`]; almost always
    /// empty.
    wide: FxHashMap<Dep, u64>,
    /// Dependences *found* (before merging); [`DepSet::len`] is after
    /// merging.
    pub total_found: u64,
}

impl DepSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set pre-sized for `cap` distinct dependences.
    pub fn with_capacity(cap: usize) -> Self {
        DepSet {
            map: fxhash::map_with_capacity(cap),
            wide: FxHashMap::default(),
            total_found: 0,
        }
    }

    /// Record one occurrence of `dep`, merging with identical entries.
    pub fn insert(&mut self, dep: Dep) {
        self.insert_n(dep, 1);
    }

    /// Record `n` occurrences of `dep` with a single probe — the flush path
    /// of the dependence-combining caches in the chunked engine, where a
    /// loop builds the same dependence once per iteration.
    pub fn insert_n(&mut self, dep: Dep, n: u64) {
        if n == 0 {
            return;
        }
        self.total_found += n;
        match DepKey::pack(&dep) {
            Some(k) => *self.map.entry(k).or_insert(0) += n,
            None => *self.wide.entry(dep).or_insert(0) += n,
        }
    }

    /// Merge another set into this one (used when joining parallel workers).
    /// Reserves space up front so the bulk insert cannot trigger repeated
    /// rehashes.
    pub fn merge(&mut self, other: DepSet) {
        self.total_found += other.total_found;
        self.map.reserve(other.map.len());
        for (k, c) in other.map {
            *self.map.entry(k).or_insert(0) += c;
        }
        for (d, c) in other.wide {
            *self.wide.entry(d).or_insert(0) += c;
        }
    }

    /// Number of distinct (merged) dependences.
    pub fn len(&self) -> usize {
        self.map.len() + self.wide.len()
    }

    /// True if no dependence was recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.wide.is_empty()
    }

    /// Iterate over `(dep, count)`, unpacking keys on the fly.
    pub fn iter(&self) -> impl Iterator<Item = (Dep, u64)> + '_ {
        self.map
            .iter()
            .map(|(k, c)| (k.unpack(), *c))
            .chain(self.wide.iter().map(|(d, c)| (*d, *c)))
    }

    /// All distinct dependences, totally ordered for deterministic output.
    pub fn sorted(&self) -> Vec<Dep> {
        let mut v: Vec<Dep> = self.iter().map(|(d, _)| d).collect();
        v.sort_unstable();
        v
    }

    /// All distinct dependences with their occurrence counts, in the order
    /// of [`DepSet::sorted`] — one pass instead of `sorted()` plus a
    /// [`DepSet::count`] probe per dependence.
    pub fn sorted_counted(&self) -> Vec<(Dep, u64)> {
        let mut v: Vec<(Dep, u64)> = self.iter().collect();
        // Distinct entries never tie on the dependence, so the count never
        // decides the order.
        v.sort_unstable();
        v
    }

    /// Occurrence count of a dependence, 0 if absent.
    pub fn count(&self, dep: &Dep) -> u64 {
        match DepKey::pack(dep) {
            Some(k) => self.map.get(&k).copied().unwrap_or(0),
            None => self.wide.get(dep).copied().unwrap_or(0),
        }
    }

    /// Does an identical dependence exist?
    pub fn contains(&self, dep: &Dep) -> bool {
        match DepKey::pack(dep) {
            Some(k) => self.map.contains_key(&k),
            None => self.wide.contains_key(dep),
        }
    }

    /// All RAW dependences carried by the given loop.
    pub fn carried_raws(&self, loop_key: LoopKey) -> Vec<Dep> {
        self.iter()
            .map(|(d, _)| d)
            .filter(|d| d.ty == DepType::Raw && d.carried_by == Some(loop_key))
            .collect()
    }

    /// All dependences whose sink line lies in `[start, end]`.
    pub fn in_lines(&self, start: u32, end: u32) -> Vec<Dep> {
        self.iter()
            .map(|(d, _)| d)
            .filter(|d| d.sink.line >= start && d.sink.line <= end)
            .collect()
    }

    /// Dependences with race hints.
    pub fn race_hints(&self) -> Vec<Dep> {
        self.iter()
            .map(|(d, _)| d)
            .filter(|d| d.race_hint)
            .collect()
    }

    /// Estimated bytes held by the merged store.
    pub fn bytes(&self) -> usize {
        self.map.capacity() * (std::mem::size_of::<(DepKey, u64)>() + 8)
            + self.wide.capacity() * (std::mem::size_of::<(Dep, u64)>() + 8)
    }

    /// Compare against a baseline (perfect-signature) set, returning
    /// `(false_positive_rate, false_negative_rate)` over distinct
    /// dependences — the metric of Table 2.6. INIT entries are excluded;
    /// they are bookkeeping, not dependences.
    pub fn accuracy_vs(&self, baseline: &DepSet) -> (f64, f64) {
        let ours: std::collections::HashSet<Dep> = self
            .iter()
            .map(|(d, _)| d)
            .filter(|d| d.ty != DepType::Init)
            .collect();
        let truth: std::collections::HashSet<Dep> = baseline
            .iter()
            .map(|(d, _)| d)
            .filter(|d| d.ty != DepType::Init)
            .collect();
        let fp = ours.difference(&truth).count();
        let fnn = truth.difference(&ours).count();
        let fpr = if ours.is_empty() {
            0.0
        } else {
            fp as f64 / ours.len() as f64
        };
        let fnr = if truth.is_empty() {
            0.0
        } else {
            fnn as f64 / truth.len() as f64
        };
        (fpr, fnr)
    }
}

/// Control-structure annotation for the text renderer (`BGN`/`END` lines).
#[derive(Debug, Clone, Copy)]
pub struct ControlSpan {
    /// Region kind name (`loop`, `branch`, `func`).
    pub kind: &'static str,
    /// First line.
    pub start: u32,
    /// Last line.
    pub end: u32,
    /// Iterations executed (printed after `END loop`).
    pub iters: u64,
}

/// Render the dependence set in the DiscoPoP text format (Fig. 2.1 /
/// Fig. 2.3): one output line per sink, dependences aggregated, `NOM` for
/// plain lines, `BGN`/`END` markers for control spans. `multithreaded`
/// selects the thread-id-annotated form.
pub fn render_text(
    deps: &DepSet,
    symbol: &dyn Fn(u32) -> String,
    spans: &[ControlSpan],
    multithreaded: bool,
) -> String {
    // Group by (sink, sink_thread), pre-sized for the worst case of one
    // sink per dependence.
    let mut by_sink: FxHashMap<(SrcLoc, u32), Vec<Dep>> = fxhash::map_with_capacity(deps.len());
    for (d, _) in deps.iter() {
        by_sink.entry((d.sink, d.sink_thread)).or_default().push(d);
    }
    let mut keys: Vec<(SrcLoc, u32)> = by_sink.keys().copied().collect();
    keys.sort();

    let mut out = String::new();
    let mut opened: Vec<&ControlSpan> = Vec::new();
    let mut closed: Vec<*const ControlSpan> = Vec::new();
    let close_ended = |line: u32, opened: &mut Vec<&ControlSpan>, out: &mut String| {
        // Close spans that ended strictly before this line, innermost first.
        while let Some(pos) = opened.iter().rposition(|s| s.end < line) {
            let s = opened.remove(pos);
            if s.kind == "loop" {
                let _ = writeln!(out, "1:{} END {} {}", s.end, s.kind, s.iters);
            } else {
                let _ = writeln!(out, "1:{} END {}", s.end, s.kind);
            }
        }
    };
    for (sink, thread) in keys {
        close_ended(sink.line, &mut opened, &mut out);
        // Emit BGN markers for spans starting at or before this line.
        for s in spans {
            if s.start <= sink.line
                && s.end >= sink.line
                && !opened.iter().any(|o| std::ptr::eq(*o, s))
                && !closed.contains(&(s as *const _))
            {
                let _ = writeln!(out, "1:{} BGN {}", s.start, s.kind);
                opened.push(s);
                closed.push(s as *const _);
            }
        }
        // `keys` was collected from `by_sink`, so the entry exists; an
        // (impossible) miss just renders an empty sink line.
        let mut ds = by_sink.remove(&(sink, thread)).unwrap_or_default();
        ds.sort_by_key(|d| (d.ty, d.source, d.var));
        let mut entries = Vec::new();
        for d in ds {
            let v = if d.var == u32::MAX {
                "*".to_string()
            } else {
                symbol(d.var)
            };
            let e = if d.ty == DepType::Init {
                format!("{{INIT {v}}}")
            } else if multithreaded {
                format!("{{{} {}|{}|{}}}", d.ty, d.source, d.source_thread, v)
            } else {
                format!("{{{} {}|{}}}", d.ty, d.source, v)
            };
            entries.push(e);
        }
        if multithreaded {
            let _ = writeln!(out, "{sink}|{thread} NOM {}", entries.join(" "));
        } else {
            let _ = writeln!(out, "{sink} NOM {}", entries.join(" "));
        }
    }
    // Close anything still open (spans whose end lies past the last sink).
    while let Some(s) = opened.pop() {
        if s.kind == "loop" {
            let _ = writeln!(out, "1:{} END {} {}", s.end, s.kind, s.iters);
        } else {
            let _ = writeln!(out, "1:{} END {}", s.end, s.kind);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(sink: u32, ty: DepType, source: u32, var: u32) -> Dep {
        Dep {
            sink: SrcLoc::new(sink),
            ty,
            source: SrcLoc::new(source),
            var,
            sink_thread: 0,
            source_thread: 0,
            carried_by: None,
            race_hint: false,
        }
    }

    #[test]
    fn merging_counts_duplicates() {
        let mut s = DepSet::new();
        s.insert(dep(3, DepType::Raw, 2, 0));
        s.insert(dep(3, DepType::Raw, 2, 0));
        s.insert(dep(3, DepType::War, 2, 0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_found, 3);
        assert_eq!(s.count(&dep(3, DepType::Raw, 2, 0)), 2);
    }

    #[test]
    fn merge_two_sets() {
        let mut a = DepSet::new();
        a.insert(dep(1, DepType::Raw, 1, 0));
        let mut b = DepSet::new();
        b.insert(dep(1, DepType::Raw, 1, 0));
        b.insert(dep(2, DepType::Waw, 1, 0));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_found, 3);
    }

    #[test]
    fn accuracy_exact_match_is_zero_error() {
        let mut a = DepSet::new();
        a.insert(dep(1, DepType::Raw, 1, 0));
        let b = a.clone();
        assert_eq!(a.accuracy_vs(&b), (0.0, 0.0));
    }

    #[test]
    fn accuracy_counts_fp_and_fn() {
        let mut ours = DepSet::new();
        ours.insert(dep(1, DepType::Raw, 1, 0)); // true
        ours.insert(dep(2, DepType::Raw, 1, 0)); // false positive
        let mut truth = DepSet::new();
        truth.insert(dep(1, DepType::Raw, 1, 0));
        truth.insert(dep(3, DepType::War, 1, 0)); // we missed this
        let (fpr, fnr) = ours.accuracy_vs(&truth);
        assert!((fpr - 0.5).abs() < 1e-9);
        assert!((fnr - 0.5).abs() < 1e-9);
    }

    #[test]
    fn render_sequential_format() {
        let mut s = DepSet::new();
        s.insert(dep(60, DepType::Raw, 60, 0));
        s.insert(Dep {
            var: u32::MAX,
            ..dep(60, DepType::Init, 60, 0)
        });
        let spans = [ControlSpan {
            kind: "loop",
            start: 60,
            end: 60,
            iters: 1200,
        }];
        let text = render_text(&s, &|_| "i".to_string(), &spans, false);
        assert!(text.contains("1:60 BGN loop"));
        assert!(text.contains("{RAW 1:60|i}"));
        assert!(text.contains("{INIT *}"));
        assert!(text.contains("1:60 END loop 1200"));
    }

    #[test]
    fn render_multithreaded_format_has_thread_ids() {
        let mut s = DepSet::new();
        let mut d = dep(58, DepType::War, 77, 0);
        d.sink_thread = 2;
        d.source_thread = 2;
        s.insert(d);
        let text = render_text(&s, &|_| "iter".to_string(), &[], true);
        assert!(text.contains("1:58|2 NOM {WAR 1:77|2|iter}"), "{text}");
    }

    #[test]
    fn depkey_roundtrips_losslessly() {
        // Every in-budget field combination must survive pack → unpack
        // exactly, including the `u32::MAX` variable sentinel and the
        // carried-by option.
        let mut samples = Vec::new();
        for ty in [DepType::Raw, DepType::War, DepType::Waw, DepType::Init] {
            for var in [0u32, 7, (1 << 24) - 2, u32::MAX] {
                for carried in [None, Some((0u32, 0u32)), Some(((1 << 14) - 1, 3))] {
                    for race in [false, true] {
                        samples.push(Dep {
                            sink: SrcLoc::new(123),
                            ty,
                            source: SrcLoc::new((1 << 24) - 1),
                            var,
                            sink_thread: 4095,
                            source_thread: 17,
                            carried_by: carried,
                            race_hint: race,
                        });
                    }
                }
            }
        }
        for d in samples {
            let k = DepKey::pack(&d).expect("in-budget dep must pack");
            assert_eq!(k.unpack(), d, "round-trip mismatch for {d:?}");
        }
    }

    #[test]
    fn depkey_rejects_out_of_budget_fields() {
        let base = dep(3, DepType::Raw, 2, 0);
        for wide in [
            Dep {
                sink: SrcLoc::new(1 << 24),
                ..base
            },
            Dep {
                sink_thread: 1 << 12,
                ..base
            },
            Dep {
                var: u32::MAX - 1,
                ..base
            },
            Dep {
                carried_by: Some((1 << 14, 0)),
                ..base
            },
            Dep {
                sink: SrcLoc { file: 2, line: 3 },
                ..base
            },
        ] {
            assert!(DepKey::pack(&wide).is_none(), "{wide:?} must not pack");
        }
    }

    #[test]
    fn wide_deps_fall_back_without_loss() {
        // A dependence that exceeds the packed budgets must still merge,
        // count, and render exactly like a packable one.
        let wide = Dep {
            sink: SrcLoc::new(1 << 25),
            ..dep(0, DepType::Raw, 2, 0)
        };
        let mut s = DepSet::new();
        s.insert(wide);
        s.insert(wide);
        s.insert(dep(3, DepType::Raw, 2, 0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.count(&wide), 2);
        assert!(s.contains(&wide));
        assert_eq!(s.total_found, 3);
        let mut other = DepSet::new();
        other.insert(wide);
        s.merge(other);
        assert_eq!(s.count(&wide), 3);
        assert!(s.sorted().contains(&wide));
    }

    #[test]
    fn sorted_counted_matches_sorted_plus_count() {
        // Packed and wide entries interleave in one total order.
        let wide = Dep {
            sink_thread: 5000,
            ..dep(4, DepType::War, 1, 0)
        };
        let mut s = DepSet::new();
        for d in [dep(9, DepType::Raw, 2, 1), wide, dep(1, DepType::Waw, 1, 0)] {
            s.insert(d);
        }
        s.insert_n(wide, 4);
        let expected: Vec<(Dep, u64)> = s.sorted().into_iter().map(|d| (d, s.count(&d))).collect();
        assert_eq!(s.sorted_counted(), expected);
        assert_eq!(expected[1], (wide, 5));
        for t in [DepType::Raw, DepType::War, DepType::Waw, DepType::Init] {
            assert_eq!(DepType::parse(t.as_str()), Some(t));
        }
        assert_eq!(DepType::parse("raw"), None);
    }

    #[test]
    fn carried_raw_query() {
        let mut s = DepSet::new();
        let mut d = dep(5, DepType::Raw, 5, 0);
        d.carried_by = Some((0, 1));
        s.insert(d);
        s.insert(dep(6, DepType::Raw, 5, 0));
        assert_eq!(s.carried_raws((0, 1)).len(), 1);
        assert_eq!(s.carried_raws((0, 2)).len(), 0);
    }
}
