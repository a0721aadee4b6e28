//! `jsonio` — a minimal JSON tree, streaming writer, and parser.
//!
//! The workspace's `serde` is an offline no-op shim (see `shims/README.md`),
//! so anything that actually needs a wire format serializes through this
//! crate instead. Writing goes through one streaming [`Writer`]: a schema
//! type implements [`WriteJson`] once, as a walk of `begin_object` / `key` /
//! scalar events, and the writer's target decides what the walk produces —
//! compact or two-space indented **text** streamed into one `String` (no
//! intermediate tree), or a **[`Value`] tree**. Reading goes the other way:
//! [`Value::parse`] builds a tree. [`Value::to_string`] and
//! [`Value::to_string_pretty`] render a tree through the same writer, so
//! there is one formatter.
//!
//! Numbers are kept in two lanes — [`Value::Int`] for integers (the `i64`
//! range; `u64` values above `i64::MAX` saturate) and [`Value::Float`] for
//! everything else — so integer counts survive a round trip bit-for-bit.
//!
//! ```
//! use jsonio::{Value, WriteJson, Writer};
//!
//! struct Run {
//!     name: String,
//!     steps: u64,
//! }
//!
//! impl WriteJson for Run {
//!     fn write_json(&self, w: &mut Writer) {
//!         w.begin_object();
//!         w.field("name", &self.name);
//!         w.field("steps", &self.steps);
//!         w.end_object();
//!     }
//! }
//!
//! let run = Run { name: "demo".into(), steps: 42 };
//! // Text target: streamed, no tree.
//! let mut text = Writer::compact();
//! run.write_json(&mut text);
//! let text = text.into_string();
//! assert_eq!(text, r#"{"name":"demo","steps":42}"#);
//! // Tree target: the same walk, as a `Value`.
//! let mut tree = Writer::tree();
//! run.write_json(&mut tree);
//! let v = tree.into_value();
//! assert_eq!(v, Value::object([("name", Value::from("demo")), ("steps", Value::from(42u64))]));
//! assert_eq!(Value::parse(&text).unwrap(), v);
//! assert_eq!(v.to_string(), text);
//! ```

// Parsing untrusted input must never panic: every failure path returns a
// typed `ParseError` instead (tests may still unwrap).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt;

mod writer;
pub use writer::{WriteJson, Writer};

/// A JSON document tree.
///
/// Object keys keep insertion order (stored as a `Vec`), so rendering is
/// deterministic and mirrors the order fields were added in.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (also produced when parsing any number without `.`/`e`).
    Int(i64),
    /// A non-integer number. JSON has no NaN/Infinity, so non-finite
    /// values render as `null` — only finite floats round-trip; writers
    /// that need a guarantee must sanitize before building the tree.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Int(n as i64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as i64)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        // Counter values in this workspace are far below 2^63; saturate
        // rather than wrap if one ever is not.
        Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Float(n)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

impl Value {
    /// An object from `(key, value)` pairs, preserving their order.
    pub fn object<K: Into<String>, V: Into<Value>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Value {
        Value::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// An array from values.
    pub fn array<V: Into<Value>>(items: impl IntoIterator<Item = V>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }

    /// Object field lookup (first match; objects built by this crate never
    /// repeat keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Render without whitespace.
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut w = Writer::compact();
        w.value(self);
        w.into_string()
    }

    /// Render with two-space indentation (ends with a newline).
    pub fn to_string_pretty(&self) -> String {
        let mut w = Writer::pretty();
        w.value(self);
        w.into_string()
    }

    /// Parse a JSON document. The entire input must be consumed (trailing
    /// whitespace is fine). Nesting is capped at
    /// [`ParseLimits::DEFAULT_MAX_DEPTH`] so a hostile document cannot
    /// exhaust the stack; use [`Value::parse_with_limits`] to choose the
    /// caps (network-facing callers should also bound the input size).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        Self::parse_with_limits(text, &ParseLimits::default())
    }

    /// Parse a JSON document under explicit resource limits. Inputs longer
    /// than [`ParseLimits::max_bytes`] are rejected up front with
    /// [`ParseErrorKind::TooLarge`] (no allocation proportional to the
    /// input happens first); arrays/objects nested deeper than
    /// [`ParseLimits::max_depth`] fail with [`ParseErrorKind::TooDeep`]
    /// at the offending bracket.
    pub fn parse_with_limits(text: &str, limits: &ParseLimits) -> Result<Value, ParseError> {
        if text.len() > limits.max_bytes {
            return Err(ParseError {
                offset: limits.max_bytes,
                kind: ParseErrorKind::TooLarge,
                message: format!(
                    "document is {} bytes (limit {})",
                    text.len(),
                    limits.max_bytes
                ),
            });
        }
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth: limits.max_depth,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Resource limits for parsing untrusted input. The defaults keep
/// [`Value::parse`] safe against stack exhaustion (a depth cap) while
/// accepting any input size; network-facing callers should pass explicit
/// limits sized to their protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum input length in bytes; longer documents are rejected before
    /// any parsing work ([`ParseErrorKind::TooLarge`]).
    pub max_bytes: usize,
    /// Maximum array/object nesting depth ([`ParseErrorKind::TooDeep`]).
    /// The parser recurses per nesting level, so this bounds stack use.
    pub max_depth: usize,
}

impl ParseLimits {
    /// Default nesting cap: far deeper than any document this workspace
    /// writes (reports nest < 16 levels), far shallower than what it takes
    /// to overflow a thread stack (each level is a small parser frame).
    pub const DEFAULT_MAX_DEPTH: usize = 128;

    /// Limits for a given byte budget with the default depth cap.
    pub fn with_max_bytes(max_bytes: usize) -> Self {
        ParseLimits {
            max_bytes,
            ..Default::default()
        }
    }
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_bytes: usize::MAX,
            max_depth: Self::DEFAULT_MAX_DEPTH,
        }
    }
}

/// What class of failure a [`ParseError`] is — lets callers map resource
/// violations (a hostile document) to different responses than plain
/// syntax errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed JSON text (bad token, truncation, number overflow, …).
    Syntax,
    /// Nesting exceeded [`ParseLimits::max_depth`].
    TooDeep,
    /// Input exceeded [`ParseLimits::max_bytes`].
    TooLarge,
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Failure class (syntax vs resource-limit violation).
    pub kind: ParseErrorKind,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            kind: ParseErrorKind::Syntax,
            message: msg.to_string(),
        }
    }

    /// Track one nesting level; errors with [`ParseErrorKind::TooDeep`] at
    /// the opening bracket once the cap is crossed.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(ParseError {
                offset: self.pos,
                kind: ParseErrorKind::TooDeep,
                message: format!("nesting exceeds {} levels", self.max_depth),
            });
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.descend()?;
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.descend()?;
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Four hex digits of a `\u` escape starting at byte offset `at`.
    fn hex_escape(&self, at: usize) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("bad \\u escape"));
        }
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hi = self.hex_escape(self.pos + 1)?;
                            let mut consumed = 4;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: conforming writers encode
                                // astral-plane characters as a \uD800-\uDBFF
                                // + \uDC00-\uDFFF pair — combine them. A
                                // valid pair is consumed whole; anything
                                // else leaves the next escape for the
                                // following iteration and maps the lone
                                // surrogate to the replacement char.
                                let next = self.pos + 5;
                                if self.bytes.get(next..next + 2) == Some(b"\\u") {
                                    let lo = self.hex_escape(next + 2)?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        consumed += 6;
                                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(c).unwrap_or('\u{fffd}')
                                    } else {
                                        '\u{fffd}'
                                    }
                                } else {
                                    '\u{fffd}'
                                }
                            } else {
                                // Lone low surrogates are invalid; everything
                                // else is a plain BMP code point.
                                char::from_u32(hi).unwrap_or('\u{fffd}')
                            };
                            s.push(ch);
                            self.pos += consumed;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The scanned range holds only ASCII digit/sign/exponent bytes, so
        // this cannot fail — but parse errors beat panics on untrusted input.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err("bad number"))
        }
    }
}

/// Order-insensitive object comparison helper for tests: maps every object
/// to a `BTreeMap` view recursively.
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Object(fields) => {
            let m: BTreeMap<&String, &Value> = fields.iter().map(|(k, v)| (k, v)).collect();
            Value::Object(
                m.into_iter()
                    .map(|(k, v)| (k.clone(), canonicalize(v)))
                    .collect(),
            )
        }
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(2.5),
            Value::Str("a \"quoted\"\nline".to_string()),
        ] {
            assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v = Value::object([
            ("name", Value::from("x")),
            ("xs", Value::array([1i64, 2, 3])),
            (
                "inner",
                Value::object([("f", Value::Float(0.25)), ("none", Value::Null)]),
            ),
        ]);
        let compact = v.to_string();
        let pretty = v.to_string_pretty();
        assert_eq!(Value::parse(&compact).unwrap(), v);
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integers_stay_integers() {
        let v = Value::parse("[1, 2.0, 3]").unwrap();
        assert_eq!(
            v,
            Value::Array(vec![Value::Int(1), Value::Float(2.0), Value::Int(3)])
        );
        // A whole-valued float renders with `.0` so the lane survives.
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
    }

    #[test]
    fn writer_output_is_pinned() {
        let v = Value::object([
            ("plain", Value::from("héllo ✓ 😀")),
            ("esc", Value::from("q\"b\\n\nr\rt\tc\u{1}\u{1f}")),
            ("k\"ey", Value::Int(i64::MIN)),
            ("n", Value::array([0i64, -7, i64::MAX])),
            (
                "f",
                Value::array([2.0, 0.25, -3.5, f64::NAN, f64::INFINITY]),
            ),
            (
                "nest",
                Value::object([
                    ("e", Value::Array(vec![])),
                    ("o", Value::Object(vec![])),
                    ("b", Value::Bool(true)),
                    ("z", Value::Null),
                ]),
            ),
        ]);
        let compact = concat!(
            r#"{"plain":"héllo ✓ 😀","#,
            r#""esc":"q\"b\\n\nr\rt\tc\u0001\u001f","#,
            r#""k\"ey":-9223372036854775808,"#,
            r#""n":[0,-7,9223372036854775807],"#,
            r#""f":[2.0,0.25,-3.5,null,null],"#,
            r#""nest":{"e":[],"o":{},"b":true,"z":null}}"#,
        );
        assert_eq!(v.to_string(), compact);
        let pretty = r#"{
  "plain": "héllo ✓ 😀",
  "esc": "q\"b\\n\nr\rt\tc\u0001\u001f",
  "k\"ey": -9223372036854775808,
  "n": [
    0,
    -7,
    9223372036854775807
  ],
  "f": [
    2.0,
    0.25,
    -3.5,
    null,
    null
  ],
  "nest": {
    "e": [],
    "o": {},
    "b": true,
    "z": null
  }
}
"#;
        assert_eq!(v.to_string_pretty(), pretty);
    }

    #[test]
    fn accessors() {
        let v = Value::object([("a", Value::from(7u64)), ("s", Value::from("x"))]);
        assert_eq!(v.get("a").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn malformed_input_yields_errors_not_panics() {
        // Every one of these must come back as Err(ParseError), never panic.
        for bad in [
            "-",                    // sign with no digits
            "1e",                   // truncated exponent
            "1.2.3",                // double dot
            "--5",                  // double sign
            "{\"k\"}",              // object without `:`
            "{\"k\":}",             // object without value
            "{\"k\":1,}",           // trailing comma
            "{1:2}",                // non-string key
            "[",                    // truncated array
            "[1 2]",                // missing comma
            "nul",                  // truncated literal
            "tru\u{65}x",           // literal with trailing junk
            "\"\\",                 // escape at EOF
            "\"\\q\"",              // unknown escape
            "\"\\u12\"",            // truncated \u escape
            "9999999999999999999",  // i64 overflow
            "-9999999999999999999", // i64 underflow
        ] {
            let r = Value::parse(bad);
            assert!(r.is_err(), "`{bad}` parsed as {r:?}");
        }
    }

    #[test]
    fn parse_errors_carry_offsets_and_render() {
        let e = Value::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"), "{e}");
        // Truncated input points at the end of the document.
        let e = Value::parse("{\"k\": ").unwrap_err();
        assert_eq!(e.offset, 6);
    }

    #[test]
    fn invalid_utf8_inside_strings_is_rejected() {
        // Parsing operates on &str so whole-document UTF-8 is guaranteed at
        // the type level; a \u escape cannot smuggle invalid code points
        // either: lone surrogates degrade to U+FFFD (checked in
        // surrogate_pairs_combine), out-of-range values are impossible with
        // four hex digits, and a truncated escape is a parse error.
        assert!(Value::parse("\"\\ud800").is_err());
        assert!(Value::parse("\"\\u12").is_err());
    }

    #[test]
    fn surrogate_pairs_combine() {
        // A conforming ASCII-escaping writer encodes 😀 (U+1F600) as a pair.
        assert_eq!(
            Value::parse(r#""😀""#).unwrap(),
            Value::Str("😀".to_string())
        );
        // Lone surrogates are invalid JSON text; they degrade to U+FFFD
        // without consuming what follows.
        assert_eq!(
            Value::parse(r#""\ud83dA""#).unwrap(),
            Value::Str("\u{fffd}A".to_string())
        );
        assert_eq!(
            Value::parse(r#""\ud83dA""#).unwrap(),
            Value::Str("\u{fffd}A".to_string())
        );
        assert_eq!(
            Value::parse(r#""\ude00""#).unwrap(),
            Value::Str("\u{fffd}".to_string())
        );
        assert!(Value::parse(r#""\ud83d"#).is_err(), "unterminated");
        assert!(Value::parse(r#""\uZZZZ""#).is_err(), "non-hex digits");
    }

    #[test]
    fn deeply_nested_input_is_rejected_not_stack_overflowed() {
        // A pathological document: 1M open brackets. Without the depth cap
        // this recursion would blow the stack; with it, a typed error.
        let deep = "[".repeat(1_000_000);
        let e = Value::parse(&deep).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::TooDeep);
        assert_eq!(e.offset, ParseLimits::DEFAULT_MAX_DEPTH);
        assert!(e.to_string().contains("nesting"), "{e}");
        // Same for objects, and for alternating nesting.
        let deep = r#"{"k":"#.repeat(100_000);
        assert_eq!(
            Value::parse(&deep).unwrap_err().kind,
            ParseErrorKind::TooDeep
        );
        let deep = r#"[{"k":"#.repeat(100_000);
        assert_eq!(
            Value::parse(&deep).unwrap_err().kind,
            ParseErrorKind::TooDeep
        );
    }

    #[test]
    fn depth_exactly_at_the_cap_parses() {
        let limits = ParseLimits {
            max_bytes: usize::MAX,
            max_depth: 4,
        };
        let ok = "[[[[1]]]]";
        assert!(Value::parse_with_limits(ok, &limits).is_ok());
        let too_deep = "[[[[[1]]]]]";
        let e = Value::parse_with_limits(too_deep, &limits).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::TooDeep);
        // Siblings do not accumulate depth: closing resets the level.
        let wide = "[[1],[2],[3],[[4]]]";
        assert!(Value::parse_with_limits(wide, &limits).is_ok());
    }

    #[test]
    fn oversized_input_is_rejected_up_front() {
        let limits = ParseLimits::with_max_bytes(16);
        let e = Value::parse_with_limits(&"9".repeat(17), &limits).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::TooLarge);
        assert!(e.message.contains("17 bytes"), "{e}");
        assert!(Value::parse_with_limits("[1,2,3]", &limits).is_ok());
        // Exactly at the limit is accepted.
        assert!(Value::parse_with_limits(&"1".repeat(16), &limits).is_ok());
    }

    #[test]
    fn syntax_errors_keep_the_syntax_kind() {
        assert_eq!(
            Value::parse("[1, x]").unwrap_err().kind,
            ParseErrorKind::Syntax
        );
    }

    #[test]
    fn canonicalize_is_order_insensitive() {
        let a = Value::parse(r#"{"x":1,"y":2}"#).unwrap();
        let b = Value::parse(r#"{"y":2,"x":1}"#).unwrap();
        assert_ne!(a, b);
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }
}
