//! The streaming [`Writer`]: JSON events in, text or a [`Value`] tree out.

use crate::Value;
use std::fmt::Write as _;
use std::sync::Arc;

/// A streaming JSON writer.
///
/// Callers emit a document as a sequence of events — `begin_object`,
/// `key`, scalars, `end_object`, … — and the writer's target decides what
/// they become:
///
/// - **text**, compact ([`Writer::compact`]) or two-space indented
///   ([`Writer::pretty`]), appended to one `String` with no intermediate
///   tree; finish with [`Writer::into_string`];
/// - **a tree** ([`Writer::tree`]), the same document as a [`Value`];
///   finish with [`Writer::into_value`].
///
/// One walk written against `Writer` (usually a [`WriteJson`] impl) thus
/// serves both the wire and the in-memory form, and the two cannot drift
/// apart. [`Value::to_string`] and [`Value::to_string_pretty`] render
/// through the text target, so every JSON text in the workspace comes from
/// this one formatter.
///
/// ```
/// use jsonio::{Value, Writer};
///
/// let emit = |w: &mut Writer| {
///     w.begin_object();
///     w.field("name", "demo");
///     w.field("steps", &42u64);
///     w.key("xs");
///     w.begin_array();
///     w.i64(1);
///     w.i64(2);
///     w.end_array();
///     w.end_object();
/// };
/// let mut text = Writer::compact();
/// emit(&mut text);
/// assert_eq!(text.into_string(), r#"{"name":"demo","steps":42,"xs":[1,2]}"#);
///
/// let mut tree = Writer::tree();
/// emit(&mut tree);
/// let v = tree.into_value();
/// assert_eq!(v.get("steps"), Some(&Value::Int(42)));
/// ```
///
/// Events must nest properly (every `begin_*` closed by the matching
/// `end_*`, one `key` before each object member, one root value); the
/// writer does not validate them.
#[derive(Debug)]
pub struct Writer {
    target: Target,
}

#[derive(Debug)]
enum Target {
    Text(Text),
    Tree(Tree),
}

impl Writer {
    /// A writer producing text without whitespace.
    pub fn compact() -> Writer {
        Writer::text(false)
    }

    /// A writer producing text with two-space indentation; the finished
    /// text ends with a newline.
    pub fn pretty() -> Writer {
        Writer::text(true)
    }

    fn text(pretty: bool) -> Writer {
        Writer {
            target: Target::Text(Text {
                out: String::new(),
                pretty,
                depth: 0,
                first: true,
                after_key: false,
            }),
        }
    }

    /// A writer building a [`Value`] tree.
    pub fn tree() -> Writer {
        Writer {
            target: Target::Tree(Tree {
                cur: Open::None,
                key: String::new(),
                outer: Vec::new(),
                sizes: Vec::new(),
                root: Value::Null,
            }),
        }
    }

    /// The finished text. On a tree target, the built tree rendered
    /// compact.
    pub fn into_string(self) -> String {
        match self.target {
            Target::Text(mut t) => {
                if t.pretty {
                    t.out.push('\n');
                }
                t.out
            }
            Target::Tree(t) => t.into_value().to_string(),
        }
    }

    /// The finished tree. On a text target, the text parsed back (`Null`
    /// if the events did not form one document).
    pub fn into_value(self) -> Value {
        match self.target {
            Target::Text(t) => Value::parse(&t.out).unwrap_or(Value::Null),
            Target::Tree(t) => t.into_value(),
        }
    }

    /// Open an object.
    #[inline]
    pub fn begin_object(&mut self) {
        match &mut self.target {
            Target::Text(t) => t.open('{'),
            Target::Tree(t) => t.open(true),
        }
    }

    /// Close the innermost object.
    #[inline]
    pub fn end_object(&mut self) {
        match &mut self.target {
            Target::Text(t) => t.close('}'),
            Target::Tree(t) => t.close(),
        }
    }

    /// Open an array.
    #[inline]
    pub fn begin_array(&mut self) {
        match &mut self.target {
            Target::Text(t) => t.open('['),
            Target::Tree(t) => t.open(false),
        }
    }

    /// Close the innermost array.
    #[inline]
    pub fn end_array(&mut self) {
        match &mut self.target {
            Target::Text(t) => t.close(']'),
            Target::Tree(t) => t.close(),
        }
    }

    /// The key of the next object member; its value is the next event.
    #[inline]
    pub fn key(&mut self, key: &str) {
        match &mut self.target {
            Target::Text(t) => t.key(key),
            Target::Tree(t) => t.key = key.to_string(),
        }
    }

    /// An object member: `key` followed by `value`.
    pub fn field<T: WriteJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    /// `null`.
    #[inline]
    pub fn null(&mut self) {
        match &mut self.target {
            Target::Text(t) => t.scalar().push_str("null"),
            Target::Tree(t) => t.put(Value::Null),
        }
    }

    /// `true` / `false`.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        match &mut self.target {
            Target::Text(t) => t.bool(b),
            Target::Tree(t) => t.put(Value::Bool(b)),
        }
    }

    /// An integer.
    #[inline]
    pub fn i64(&mut self, n: i64) {
        match &mut self.target {
            Target::Text(t) => t.i64(n),
            Target::Tree(t) => t.put(Value::Int(n)),
        }
    }

    /// An unsigned integer, saturated to `i64::MAX` as [`Value::from`]
    /// does for `u64`.
    #[inline]
    pub fn u64(&mut self, n: u64) {
        self.i64(i64::try_from(n).unwrap_or(i64::MAX));
    }

    /// A float in the float lane (`2.0`, not `2`); non-finite values
    /// render as `null`.
    #[inline]
    pub fn f64(&mut self, n: f64) {
        match &mut self.target {
            Target::Text(t) => write_f64(t.scalar(), n),
            Target::Tree(t) => t.put(Value::Float(n)),
        }
    }

    /// A string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        match &mut self.target {
            Target::Text(t) => write_escaped(t.scalar(), s),
            Target::Tree(t) => t.put(Value::Str(s.to_string())),
        }
    }

    /// A whole [`Value`] subtree.
    pub fn value(&mut self, v: &Value) {
        match &mut self.target {
            Target::Text(t) => t.value(v),
            Target::Tree(t) => t.put(v.clone()),
        }
    }
}

/// Text target state.
#[derive(Debug)]
struct Text {
    out: String,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// No element has been written into the innermost container yet.
    first: bool,
    /// A key was just written: the next value follows it on the same line.
    after_key: bool,
}

impl Text {
    /// Separate the next element from its predecessor (comma, newline,
    /// indent) unless it is an object member's value.
    #[inline]
    fn element(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            if !self.first {
                self.out.push(',');
            }
            self.first = false;
            self.newline(self.depth);
        }
    }

    /// [`Text::element`], then the buffer to write a scalar into.
    #[inline]
    fn scalar(&mut self) -> &mut String {
        self.element();
        &mut self.out
    }

    fn open(&mut self, bracket: char) {
        self.element();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth = self.depth.saturating_sub(1);
        // An empty container closes on the same line: `[]`, `{}`.
        if !self.first {
            self.newline(self.depth);
        }
        self.first = false;
        self.out.push(bracket);
    }

    fn key(&mut self, key: &str) {
        self.element();
        write_escaped(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    fn bool(&mut self, b: bool) {
        self.scalar().push_str(if b { "true" } else { "false" });
    }

    fn i64(&mut self, n: i64) {
        let out = self.scalar();
        if n < 0 {
            out.push('-');
        }
        push_u64(out, n.unsigned_abs());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.scalar().push_str("null"),
            Value::Bool(b) => self.bool(*b),
            Value::Int(n) => self.i64(*n),
            Value::Float(n) => write_f64(self.scalar(), *n),
            Value::Str(s) => write_escaped(self.scalar(), s),
            Value::Array(items) => {
                self.open('[');
                for item in items {
                    self.value(item);
                }
                self.close(']');
            }
            Value::Object(fields) => {
                self.open('{');
                for (k, item) in fields {
                    self.key(k);
                    self.value(item);
                }
                self.close('}');
            }
        }
    }

    #[inline]
    fn newline(&mut self, depth: usize) {
        const SPACES: &str = "                                ";
        if self.pretty {
            self.out.push('\n');
            let mut n = 2 * depth;
            while n > 0 {
                let k = n.min(SPACES.len());
                self.out.push_str(&SPACES[..k]);
                n -= k;
            }
        }
    }
}

/// Tree target state. Each open container's members go straight into
/// the `Vec` that becomes its [`Value`]. That `Vec` starts at the size of
/// the last container of the same kind closed at the same depth — one
/// allocation for runs of same-shaped objects, such as a report's
/// dependences — and is trimmed on close if the guess was too large.
#[derive(Debug)]
struct Tree {
    /// The innermost open container.
    cur: Open,
    /// The key of the object member whose value comes next.
    key: String,
    /// The containers enclosing the innermost one, outermost first, each
    /// with its pending member key.
    outer: Vec<(Open, String)>,
    /// Per depth: members of the last closed object and array.
    sizes: Vec<(usize, usize)>,
    root: Value,
}

#[derive(Debug)]
enum Open {
    /// Nothing open: the next value is the root.
    None,
    /// An object's members so far.
    Object(Vec<(String, Value)>),
    /// An array's members so far.
    Array(Vec<Value>),
}

impl Tree {
    fn open(&mut self, object: bool) {
        let depth = self.outer.len();
        if self.sizes.len() <= depth {
            self.sizes.push((0, 0));
        }
        let (fields, items) = self.sizes[depth];
        let open = if object {
            Open::Object(Vec::with_capacity(fields))
        } else {
            Open::Array(Vec::with_capacity(items))
        };
        let enclosing = std::mem::replace(&mut self.cur, open);
        self.outer.push((enclosing, std::mem::take(&mut self.key)));
    }

    /// Attach a finished value to the innermost open container (or make
    /// it the root).
    #[inline]
    fn put(&mut self, v: Value) {
        match &mut self.cur {
            Open::Object(fields) => fields.push((std::mem::take(&mut self.key), v)),
            Open::Array(items) => items.push(v),
            Open::None => self.root = v,
        }
    }

    fn close(&mut self) {
        let Some((enclosing, key)) = self.outer.pop() else {
            return;
        };
        self.key = key;
        let size = &mut self.sizes[self.outer.len()];
        let v = match std::mem::replace(&mut self.cur, enclosing) {
            Open::Object(mut fields) => {
                fields.shrink_to_fit();
                size.0 = fields.len();
                Value::Object(fields)
            }
            Open::Array(mut items) => {
                items.shrink_to_fit();
                size.1 = items.len();
                Value::Array(items)
            }
            Open::None => return,
        };
        self.put(v);
    }

    fn into_value(mut self) -> Value {
        while !self.outer.is_empty() {
            self.close();
        }
        self.root
    }
}

/// Types that emit themselves as one JSON value through a [`Writer`].
///
/// Scalars, strings, [`Value`], `Option` (`None` is `null`), slices and
/// `Vec`s (arrays) and pairs (two-element arrays) are provided, so a
/// schema type's impl is one [`Writer::field`] call per member.
pub trait WriteJson {
    /// Emit `self` as the writer's next value.
    fn write_json(&self, w: &mut Writer);
}

impl WriteJson for bool {
    fn write_json(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl WriteJson for i64 {
    fn write_json(&self, w: &mut Writer) {
        w.i64(*self);
    }
}

impl WriteJson for u32 {
    fn write_json(&self, w: &mut Writer) {
        w.i64(i64::from(*self));
    }
}

impl WriteJson for u64 {
    fn write_json(&self, w: &mut Writer) {
        w.u64(*self);
    }
}

impl WriteJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl WriteJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl WriteJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl WriteJson for Arc<str> {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl WriteJson for Value {
    fn write_json(&self, w: &mut Writer) {
        w.value(self);
    }
}

impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: WriteJson> WriteJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            item.write_json(w);
        }
        w.end_array();
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        self.as_slice().write_json(w);
    }
}

impl<A: WriteJson, B: WriteJson> WriteJson for (A, B) {
    fn write_json(&self, w: &mut Writer) {
        w.begin_array();
        self.0.write_json(w);
        self.1.write_json(w);
        w.end_array();
    }
}

/// Decimal digits of `n`, without going through `fmt`.
#[inline]
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        out.push(b as char);
    }
}

fn write_f64(out: &mut String, n: f64) {
    if n.is_finite() {
        let start = out.len();
        let _ = write!(out, "{n}");
        // Keep the float lane on re-parse: `2.0` formats as `2`.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        // Nothing to escape: copy the string in one piece.
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One document exercising every event, emitted straight through the
    /// writer (no `Value` on the way in).
    fn emit(w: &mut Writer) {
        w.begin_object();
        w.key("empty");
        w.begin_array();
        w.begin_array();
        w.end_array();
        w.begin_object();
        w.end_object();
        w.begin_array();
        w.begin_object();
        w.key("a");
        w.begin_array();
        w.end_array();
        w.end_object();
        w.end_array();
        w.end_array();
        w.field("esc", "q\"b\\s\nr\rt\tc\u{1}\u{1f}");
        w.field("utf8", "héllo ✓ 😀");
        w.field("k\"ey", &true);
        w.field("floats", &[2.0, -0.5, 0.1, f64::NAN, f64::NEG_INFINITY][..]);
        w.field("min", &i64::MIN);
        w.field("big", &u64::MAX);
        w.field("edge", &(i64::MAX as u64 + 1));
        w.field("pair", &(7u32, None::<u64>));
        w.key("none");
        w.null();
        w.end_object();
    }

    fn expected() -> Value {
        Value::object([
            (
                "empty",
                Value::Array(vec![
                    Value::Array(vec![]),
                    Value::Object(vec![]),
                    Value::Array(vec![Value::object([("a", Value::Array(vec![]))])]),
                ]),
            ),
            ("esc", Value::from("q\"b\\s\nr\rt\tc\u{1}\u{1f}")),
            ("utf8", Value::from("héllo ✓ 😀")),
            ("k\"ey", Value::Bool(true)),
            (
                "floats",
                Value::array([2.0, -0.5, 0.1, f64::NAN, f64::NEG_INFINITY]),
            ),
            ("min", Value::Int(i64::MIN)),
            ("big", Value::from(u64::MAX)),
            ("edge", Value::from(i64::MAX as u64 + 1)),
            ("pair", Value::array([Value::Int(7), Value::Null])),
            ("none", Value::Null),
        ])
    }

    const COMPACT: &str = concat!(
        r#"{"empty":[[],{},[{"a":[]}]],"#,
        r#""esc":"q\"b\\s\nr\rt\tc\u0001\u001f","#,
        r#""utf8":"héllo ✓ 😀","#,
        r#""k\"ey":true,"#,
        r#""floats":[2.0,-0.5,0.1,null,null],"#,
        r#""min":-9223372036854775808,"#,
        r#""big":9223372036854775807,"#,
        r#""edge":9223372036854775807,"#,
        r#""pair":[7,null],"#,
        r#""none":null}"#,
    );

    const PRETTY: &str = r#"{
  "empty": [
    [],
    {},
    [
      {
        "a": []
      }
    ]
  ],
  "esc": "q\"b\\s\nr\rt\tc\u0001\u001f",
  "utf8": "héllo ✓ 😀",
  "k\"ey": true,
  "floats": [
    2.0,
    -0.5,
    0.1,
    null,
    null
  ],
  "min": -9223372036854775808,
  "big": 9223372036854775807,
  "edge": 9223372036854775807,
  "pair": [
    7,
    null
  ],
  "none": null
}
"#;

    #[test]
    fn text_targets_are_pinned() {
        let mut w = Writer::compact();
        emit(&mut w);
        assert_eq!(w.into_string(), COMPACT);
        let mut w = Writer::pretty();
        emit(&mut w);
        assert_eq!(w.into_string(), PRETTY);
    }

    #[test]
    fn tree_target_builds_the_hand_built_value() {
        let mut w = Writer::tree();
        emit(&mut w);
        let v = w.into_value();
        // NaN != NaN, so compare through the (pinned) text as well as
        // field by field where equality is meaningful.
        assert_eq!(v.to_string(), COMPACT);
        assert_eq!(v.to_string_pretty(), PRETTY);
        let want = expected();
        for key in [
            "empty", "esc", "utf8", "k\"ey", "min", "big", "edge", "pair", "none",
        ] {
            assert_eq!(v.get(key), want.get(key), "{key}");
        }
        assert_eq!(want.to_string(), COMPACT);
    }

    #[test]
    fn scalar_roots_and_values_pass_through() {
        for v in [
            Value::Null,
            Value::Int(-3),
            Value::Float(0.25),
            Value::from("s"),
        ] {
            let mut w = Writer::tree();
            w.value(&v);
            assert_eq!(w.into_value(), v);
            let mut w = Writer::compact();
            w.value(&v);
            assert_eq!(w.into_string(), v.to_string());
        }
        // A tree target renders on request, a text target parses back.
        let mut w = Writer::tree();
        w.field("ignored", &1u32);
        emit(&mut w);
        assert_eq!(w.into_string(), COMPACT);
        let mut w = Writer::compact();
        w.value(&expected().get("empty").unwrap().clone());
        assert_eq!(w.into_value(), expected().get("empty").unwrap().clone());
    }

    #[test]
    fn unbalanced_events_do_not_panic() {
        for mut w in [Writer::compact(), Writer::pretty(), Writer::tree()] {
            w.end_array();
            w.end_object();
            w.begin_array();
            w.i64(1);
            // Left open: the tree target closes it, the text stays cut.
            let _ = w.into_value();
        }
        let mut w = Writer::tree();
        w.begin_array();
        w.begin_object();
        assert_eq!(w.into_value(), Value::Array(vec![Value::Object(vec![])]));
    }
}
