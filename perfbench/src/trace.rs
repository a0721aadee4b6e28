//! Spans recorded by the benchmark around its calls into the program's
//! layers. Nothing inside the program is traced: each span times one
//! public call from the outside. Spans stay in memory and are written out
//! once, when the run ends.

use jsonio::Value;
use std::time::Instant;

/// One timed call. `parent` is the index of the span that caused it
/// (`None` for roots); spans of one analysis or request share `item`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub item: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. When disabled, [`Tracer::span`] only runs the closure.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, item: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            item,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take over another recorder's spans (e.g. one per client thread),
    /// re-pointing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Summed duration of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Summed duration of the direct children of spans named `parent`.
    pub fn children_total(&self, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::secs)
            .sum()
    }

    pub fn to_json(&self) -> Value {
        Value::array(self.spans.iter().map(|s| {
            Value::object([
                ("name", Value::from(s.name)),
                ("item", Value::from(s.item)),
                ("parent", Value::from(s.parent)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
            ])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_point_at_their_parent() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].end_ns >= s[2].end_ns && s[1].start_ns >= s[0].start_ns);
        assert!(t.children_total("outer") <= t.total("outer"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
