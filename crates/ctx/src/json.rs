//! The workspace's one JSON codec: a minimal value type with a canonical
//! renderer and a recursive-descent parser (no external dependencies, by
//! policy). Every JSON artifact goes through it — the bench gate's
//! `BENCH.json`, the obs wire format ([`crate::obs::wire`]), the
//! LP-equivalence corpus, the solver-state debug dump — and the compact
//! JSON-lines probe borrows its string escaper ([`render_string`]).
//!
//! Numbers are `f64`. Values whose bit patterns matter exactly (solution
//! checksums, gauges) are therefore stored as hex *strings*, and integers
//! that may exceed 2⁵³ as decimal strings, never as numbers.
//!
//! The parser reads external bytes, so it is total: every input yields a
//! value or an `Err`, never a panic or a stack overflow. Containers nested
//! deeper than [`MAX_DEPTH`] are rejected, and strings admit no raw
//! control bytes and no `\u` escape that names no Unicode scalar — any
//! surrogate, paired or not, since the renderer never writes one. Every
//! parsed value renders to text that parses back to an equal value.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts (the top-level value
/// is depth 1). The committed artifacts nest at most four deep; the cap
/// keeps parser recursion far below any thread's stack size.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects use a [`BTreeMap`] so rendering is canonical
/// (sorted keys), which keeps committed baselines diff-friendly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with canonically sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|map| map.get(key))
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => render_number(out, *v),
            Json::Str(s) => render_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    render_string(out, k);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (one value, surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A human-readable description with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.parse_value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no Infinity/NaN; callers store such values as strings,
        // but render defensively instead of panicking.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `s` as a quoted JSON string: quotes, backslashes and control
/// characters escaped, everything else verbatim UTF-8.
pub fn render_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Cursor over the document; `pos` is always a char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` (after whitespace) if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// After a container element: `true` past `close`, `false` past a comma.
    fn closes(&mut self, close: u8) -> Result<bool, String> {
        if self.eat(b',') {
            Ok(false)
        } else if self.eat(close) {
            Ok(true)
        } else {
            Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            ))
        }
    }

    /// Parses one value whose enclosing containers number `depth`.
    fn parse_value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        let open = self.peek();
        if matches!(open, Some(b'[' | b'{')) {
            if depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                ));
            }
            self.pos += 1;
        }
        match open {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                let mut closed = self.eat(b']');
                while !closed {
                    items.push(self.parse_value(depth + 1)?);
                    closed = self.closes(b']')?;
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                let mut closed = self.eat(b'}');
                while !closed {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    if !self.eat(b':') {
                        return Err(format!("expected ':' at byte {}", self.pos));
                    }
                    map.insert(key, self.parse_value(depth + 1)?);
                    closed = self.closes(b'}')?;
                }
                Ok(Json::Obj(map))
            }
            Some(_) => self.parse_number().map(Json::Num),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters in one slice: the stop
            // bytes are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            let at = self.pos;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 2;
                    out.push(match self.text.as_bytes().get(at + 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            // Each escape must name a scalar by itself, so any
                            // surrogate is refused; the renderer never writes
                            // one (non-ASCII goes out as raw UTF-8).
                            let hex = self.text.get(self.pos..self.pos + 4);
                            let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                            self.pos += 4;
                            hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?))
                                .ok_or_else(|| format!("bad \\u escape at byte {at}"))?
                        }
                        _ => return Err(format!("bad escape at byte {at}")),
                    });
                }
                Some(_) => return Err(format!("raw control byte in string at byte {at}")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(format!("invalid number {text:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj([
            ("name", Json::Str("bench".into())),
            ("count", Json::Num(42.0)),
            ("ratio", Json::Num(1.5)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "phases",
                Json::Arr(vec![
                    Json::obj([("wall_ms", Json::Num(12.25))]),
                    Json::obj([("wall_ms", Json::Num(3.0))]),
                ]),
            ),
        ]);
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        let mut out = String::new();
        render_number(&mut out, 42.0);
        assert_eq!(out, "42");
        out.clear();
        render_number(&mut out, 0.5);
        assert_eq!(out, "0.5");
    }

    #[test]
    fn parses_escapes_and_whitespace() {
        let parsed = Json::parse(" { \"a\\n\" : [ 1 , -2.5e1 , \"x\\u0041\" ] } ").unwrap();
        let arr = parsed.get("a\n").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("xA"));
    }

    #[test]
    fn object_keys_render_sorted() {
        let doc = Json::obj([("b", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        let text = doc.render();
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
    }

    #[test]
    fn accepts_and_rejects_by_the_one_grammar() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let accept: &[(&str, Json)] = &[
            ("\"\\b\\f\\/\"", Json::Str("\u{8}\u{c}/".into())),
            ("\"\\u00e9\"", Json::Str("é".into())),
            ("\"é😀\"", Json::Str("é😀".into())),
            ("[]", Json::Arr(vec![])),
            (" {} ", Json::Obj(BTreeMap::new())),
            ("-0.5e-3", Json::Num(-0.0005)),
            (
                "[null,false]",
                Json::Arr(vec![Json::Null, Json::Bool(false)]),
            ),
        ];
        for (text, want) in accept {
            assert_eq!(Json::parse(text).as_ref(), Ok(want), "{text:?}");
        }
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let reject = [
            "",
            "{",
            "[1,]",
            "12 34",
            "\"open",
            "\"tab\there\"",
            "\"nl\nhere\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"\\ud83d\\ude00\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\x\"",
            "1e400",
            "nul",
            "{\"a\" 1}",
            "{1: 2}",
        ];
        for text in reject {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
        for n in [MAX_DEPTH + 1, 100_000] {
            let err = Json::parse(&deep(n)).unwrap_err();
            assert!(err.contains("nesting deeper"), "{err}");
            let err = Json::parse(&"{\"k\":".repeat(n)).unwrap_err();
            assert!(err.contains("nesting deeper"), "{err}");
        }
    }
}
