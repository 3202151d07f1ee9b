//! The workspace's one JSON writer and reader: [`Obj`] writes objects
//! field by field, [`list`] writes arrays, [`escape`] and [`num`] spell
//! strings and floats, and [`parse`] reads documents back.
//!
//! The workspace is dependency-free, so every report, capture, store meta
//! and bench file is written here. Call sites name each key next to its
//! value; this module owns quoting, escaping, separators and `null`, so
//! hostile names (quotes, backslashes, control characters) cannot break a
//! document and no two writers spell the same layout differently.

use std::collections::BTreeMap;
use std::fmt::{Display, Write};

/// Render `s` as a quoted JSON string literal with all required escapes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal: finite `f64` only (JSON has no NaN/Infinity).
///
/// `{:?}` prints enough digits to round-trip and always includes a decimal
/// point or exponent, keeping the token a JSON number, never an integer
/// that silently loses its float-ness on reparse.
pub fn num(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite value {v} reached a JSON writer");
    let v = if v.is_finite() { v } else { 0.0 };
    format!("{v:?}")
}

/// Separators of a written document, one per layout the workspace commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"k":v,"k2":v2}` and `[a,b]`: reports, captures, metrics, store meta.
    Compact,
    /// `{"k": v, "k2": v2}` and `[a, b]`: CLI `--json` output and bench rows.
    Spaced,
    /// A `BENCH_*.json` file: one key, or in a [`list`] one row, per line.
    Doc,
}

/// One JSON object, written field by field in call order.
#[derive(Debug)]
#[must_use]
pub struct Obj {
    out: String,
    layout: Layout,
}

impl Obj {
    /// An empty [`Layout::Compact`] object.
    pub fn compact() -> Self {
        Self { out: "{".into(), layout: Layout::Compact }
    }

    /// An empty [`Layout::Spaced`] object.
    pub fn spaced() -> Self {
        Self { out: "{".into(), layout: Layout::Spaced }
    }

    /// An empty [`Layout::Doc`] object.
    pub fn doc() -> Self {
        Self { out: "{".into(), layout: Layout::Doc }
    }

    /// A float field, spelled by [`num`].
    pub fn num(self, key: &str, v: f64) -> Self {
        self.raw(key, num(v))
    }

    /// A string field, quoted by [`escape`].
    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, escape(v))
    }

    /// A pre-rendered token, written verbatim: integers and bools by
    /// `Display`, nested documents, fixed-precision numbers, digests.
    pub fn raw(mut self, key: &str, v: impl Display) -> Self {
        let (first, rest, colon) = match self.layout {
            Layout::Compact => ("", ",", ":"),
            Layout::Spaced => ("", ", ", ": "),
            Layout::Doc => ("\n  ", ",\n  ", ": "),
        };
        let lead = if self.out.len() == 1 { first } else { rest };
        let _ = write!(self.out, "{lead}{}{colon}{v}", escape(key));
        self
    }

    /// A pre-rendered token, or `null` when absent.
    pub fn opt(self, key: &str, v: Option<impl Display>) -> Self {
        self.raw(key, v.map_or_else(|| "null".to_string(), |v| v.to_string()))
    }

    /// Pre-rendered `(key, token)` pairs, in order.
    pub fn raw_pairs<K: AsRef<str>, V: Display>(self, pairs: &[(K, V)]) -> Self {
        pairs.iter().fold(self, |o, (k, v)| o.raw(k.as_ref(), v))
    }

    /// Close the object; a [`Layout::Doc`] document ends with a newline.
    pub fn finish(mut self) -> String {
        self.out.push_str(if self.layout == Layout::Doc { "\n}\n" } else { "}" });
        self.out
    }
}

/// A JSON array of pre-rendered tokens in `layout`.
pub fn list<T: Display>(layout: Layout, items: impl IntoIterator<Item = T>) -> String {
    let (open, indent, sep, close) = match layout {
        Layout::Compact => ("[", "", ",", "]"),
        Layout::Spaced => ("[", "", ", ", "]"),
        Layout::Doc => ("[\n", "    ", ",\n", "\n  ]"),
    };
    let mut out = String::from(open);
    for (i, item) in items.into_iter().enumerate() {
        let _ = write!(out, "{}{indent}{item}", if i == 0 { "" } else { sep });
    }
    out + close
}

/// A parsed JSON value. Numbers are kept as `f64` (sufficient for every
/// figure in the bench baselines; exact integers survive to 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number token.
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` so traversal order is deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogates don't appear in our writers; map them
                            // to the replacement char instead of failing.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: take the full scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("empty tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        tok.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_hostile_strings() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(escape("\t\r\u{1}"), "\"\\t\\r\\u0001\"");
    }

    #[test]
    fn layouts_match_the_committed_spellings() {
        let row = |o: Obj| o.str("s", "a").num("f", 1.0).raw("n", 2).opt("z", None::<u8>).finish();
        assert_eq!(row(Obj::compact()), r#"{"s":"a","f":1.0,"n":2,"z":null}"#);
        assert_eq!(row(Obj::spaced()), r#"{"s": "a", "f": 1.0, "n": 2, "z": null}"#);
        let doc = Obj::doc().raw("rows", list(Layout::Doc, ["{}", "{}"])).finish();
        assert_eq!(doc, "{\n  \"rows\": [\n    {},\n    {}\n  ]\n}\n");
        assert_eq!(list(Layout::Spaced, [1, 2]), format!("{:?}", [1, 2]));
    }

    #[test]
    fn num_round_trips() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(0.0), "0.0");
        // Integral values keep a decimal point so the token stays a float.
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(1e-7).parse::<f64>().unwrap(), 1e-7);
    }

    #[test]
    fn escaped_strings_parse_back_verbatim() {
        let hostile = "evil \"name\"\\ with\nnewline\tand \u{1} ctrl, ünïcode";
        let doc = Obj::compact().str(hostile, hostile).finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get(hostile).and_then(Value::as_str), Some(hostile));
    }

    #[test]
    fn parser_handles_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e-2],"b":{"c":true,"d":null},"e":"s"}"#).unwrap();
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].as_f64(), Some(-0.03));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Value::Null));
        assert_eq!(v.get("e").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
