//! The workspace's one JSON module: a minimal recursive-descent reader and
//! the [`Writer`] every emitted document goes through — psc's `--emit
//! json`/`--stats-json`, the `fuzz --gap` report, `pscd`
//! responses, the bench harness and loadgen reports, Chrome traces and
//! flight-recorder dumps. No registry dependency enters the offline
//! workspace.
//!
//! The reader is not a general-purpose parser: numbers become `f64`,
//! strings support the standard escapes plus `\uXXXX` (surrogate pairs
//! rejected), and inputs deeper than [`MAX_DEPTH`] are refused rather than
//! recursed into.
//!
//! The writer escapes every string and places every separator itself;
//! numbers pass through in the caller's own formatting. It knows the two
//! layouts the workspace emits: compact lines (`{"a":1,"b":[2,3]}`, one
//! NDJSON record per line) and pretty documents whose containers hold
//! either one member per indented line ([`Layout::Rows`]) or one-line
//! records (`{"a": 1, "b": [2, 3]}`, [`Layout::Line`]).
//!
//! ```
//! use parsched_telemetry::json::{Layout, Writer};
//!
//! let doc = Writer::pretty()
//!     .object(Layout::Rows, |w| {
//!         w.key("name").str("say \"hi\"");
//!         w.key("cycles").array(Layout::Line, |w| {
//!             w.num(3).num(format_args!("{:.1}", 1.26));
//!         });
//!     })
//!     .finish();
//! assert_eq!(doc, "{\n  \"name\": \"say \\\"hi\\\"\",\n  \"cycles\": [3, 1.3]\n}");
//! ```

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Nesting depth cap: validation inputs are shallow; anything deeper is
/// hostile or corrupt, and unbounded recursion would be a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is not preserved (sorted).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
/// Returns [`JsonError`] with a byte offset on malformed input.
pub fn parse(src: &str) -> Result<Value, JsonError> {
    let bytes = src.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape unsupported"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar. `pos` is always on a char
                    // boundary because we only advance by full scalars.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = match rest.chars().next() {
                        Some(c) => c,
                        None => return Err(self.err("unterminated string")),
                    };
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

/// Escapes `s` for inclusion inside a JSON string literal: `"`, `\` and
/// every control character below U+0020; everything else passes through.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s`, escaped, to `out` — the one escaping primitive.
fn escape_into(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        plain = i + 1;
        let _ = match b {
            b'"' => out.write_str("\\\""),
            b'\\' => out.write_str("\\\\"),
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            _ => write!(out, "\\u{b:04x}"),
        };
    }
    out.push_str(&s[plain..]);
}

/// How a container places its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Every member on the container's own line.
    Line,
    /// One member per line, then the closing bracket on a line of its own.
    /// Pretty documents indent each level by two spaces; compact ones do
    /// not indent.
    Rows,
}

/// Builds one JSON document. Containers take a closure that writes their
/// members; [`key`](Writer::key) names the next value inside an object.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// `", "` / `": "` within a line, and rows indented two spaces a level.
    pretty: bool,
    /// Open [`Layout::Rows`] containers: the indentation level.
    depth: usize,
    /// The innermost open container lays out rows.
    rows: bool,
    /// The innermost open container already has a member.
    sep: bool,
    /// A key was just written: the next value is its member, not a new one.
    keyed: bool,
}

impl Writer {
    /// A compact writer: no whitespace but the newlines of [`Layout::Rows`].
    pub fn compact() -> Writer {
        Writer::default()
    }

    /// A pretty writer.
    pub fn pretty() -> Writer {
        Writer {
            pretty: true,
            ..Writer::default()
        }
    }

    /// Takes the document written so far (no trailing newline).
    pub fn finish(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    /// Names the next value: writes `"key":` inside the open object.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        self.quoted(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.keyed = true;
        self
    }

    /// A string value, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.member();
        self.quoted(s);
        self
    }

    /// A number, written exactly as `n` displays — pass
    /// `format_args!("{:.1}", x)` to fix the precision.
    pub fn num(&mut self, n: impl fmt::Display) -> &mut Self {
        self.member();
        let _ = write!(self.out, "{n}");
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    /// An already-serialized JSON value, embedded verbatim: neither
    /// re-parsed nor re-escaped.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.member();
        self.out.push_str(json);
        self
    }

    /// An object whose members `f` writes.
    pub fn object(&mut self, layout: Layout, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container(('{', '}'), layout, f)
    }

    /// An array whose elements `f` writes.
    pub fn array(&mut self, layout: Layout, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container(('[', ']'), layout, f)
    }

    fn container(
        &mut self,
        (open, close): (char, char),
        layout: Layout,
        f: impl FnOnce(&mut Writer),
    ) -> &mut Self {
        self.member();
        self.out.push(open);
        let outer = (self.rows, self.sep);
        self.rows = layout == Layout::Rows;
        self.sep = false;
        if self.rows {
            self.depth += 1;
        }
        f(self);
        if self.rows {
            self.depth -= 1;
            self.newline();
        }
        self.out.push(close);
        (self.rows, self.sep) = outer;
        self
    }

    /// Places the separator before a new member of the open container.
    fn member(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        if std::mem::replace(&mut self.sep, true) {
            self.out.push(',');
            if self.pretty && !self.rows {
                self.out.push(' ');
            }
        }
        if self.rows {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        if self.pretty {
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn must(src: &str) -> Value {
        match parse(src) {
            Ok(v) => v,
            Err(e) => unreachable!("test input is fixed and valid: {e}"),
        }
    }

    #[test]
    fn parses_the_harness_shapes() {
        let v = must(
            r#"{"schema": "x/1", "points": [{"threads": 4, "ok": true, "ips": 12.5, "tag": null}]}"#,
        );
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("x/1"));
        let Some(points) = v.get("points").and_then(Value::as_arr) else {
            unreachable!("points is an array")
        };
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get("threads").and_then(Value::as_num), Some(4.0));
        assert_eq!(points[0].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(points[0].get("tag"), Some(&Value::Null));
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = must(r#"["a\n\"bA", -1.5e2, 0]"#);
        let Some(items) = v.as_arr() else {
            unreachable!("document is an array")
        };
        assert_eq!(items[0].as_str(), Some("a\n\"bA"));
        assert_eq!(items[1].as_num(), Some(-150.0));
        assert_eq!(items[2].as_num(), Some(0.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1} trailing",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_depth() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let Err(e) = parse(&deep) else {
            unreachable!("over-deep input must be refused")
        };
        assert!(e.message.contains("deep"));
    }

    #[test]
    fn roundtrips_escape_json() {
        let original = "line\none \"two\" \\three\\ \ttab";
        let doc = format!("\"{}\"", crate::escape_json(original));
        assert_eq!(must(&doc).as_str(), Some(original));
    }

    /// Strings the writer must escape round-trip through `parse`: quotes,
    /// backslashes, every control character below U+0020, DEL, non-BMP
    /// scalars, and empty keys and values.
    #[test]
    fn writer_roundtrips_hostile_strings() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let strings = [
            "",
            "say \"hi\"",
            r"C:\dir\n\u0041",
            &controls,
            "del\u{7f}",
            "clef \u{1d11e} smile \u{1f600}",
        ];
        for mut w in [Writer::compact(), Writer::pretty()] {
            let doc = w
                .object(Layout::Rows, |w| {
                    for s in strings {
                        w.key(s).str(s);
                    }
                    w.key("list").array(Layout::Line, |w| {
                        for s in strings {
                            w.str(s);
                        }
                    });
                })
                .finish();
            let str_of = |s: &&str| Value::Str(s.to_string());
            let mut expected: BTreeMap<_, _> =
                strings.iter().map(|s| (s.to_string(), str_of(s))).collect();
            expected.insert(
                "list".into(),
                Value::Arr(strings.iter().map(str_of).collect()),
            );
            assert_eq!(must(&doc), Value::Obj(expected), "{doc}");
        }
    }

    /// Writes the same document, with empty and nested containers of both
    /// layouts, through `w`.
    fn golden_doc(w: &mut Writer) -> String {
        w.object(Layout::Rows, |w| {
            w.key("id").raw("null");
            w.key("body").raw(r#"{"a":1}"#);
            w.key("rows").array(Layout::Rows, |w| {
                w.object(Layout::Line, |w| {
                    w.key("n").num(format_args!("{:.3}", 0.5));
                    w.key("v").array(Layout::Line, |w| {
                        w.num(2).bool(false).array(Layout::Line, |_| {});
                    });
                });
                w.object(Layout::Rows, |w| {
                    w.key("h").object(Layout::Line, |w| {
                        w.key("0").num(4).key("s").str("a\"b\n");
                    });
                });
            });
            w.key("empty").object(Layout::Rows, |_| {});
        })
        .finish()
    }

    #[test]
    fn compact_layout_golden() {
        let doc = golden_doc(&mut Writer::compact());
        assert_eq!(
            doc,
            "{\n\"id\":null,\n\"body\":{\"a\":1},\n\"rows\":[\n{\"n\":0.500,\"v\":[2,false,[]]},\n\
             {\n\"h\":{\"0\":4,\"s\":\"a\\\"b\\n\"}\n}\n],\n\"empty\":{\n}\n}"
        );
        assert_eq!(must(&doc), must(&golden_doc(&mut Writer::pretty())));
    }

    #[test]
    fn pretty_layout_golden() {
        assert_eq!(
            golden_doc(&mut Writer::pretty()),
            "{\n  \"id\": null,\n  \"body\": {\"a\":1},\n  \"rows\": [\n    \
             {\"n\": 0.500, \"v\": [2, false, []]},\n    {\n      \
             \"h\": {\"0\": 4, \"s\": \"a\\\"b\\n\"}\n    }\n  ],\n  \"empty\": {\n  }\n}"
        );
    }
}
