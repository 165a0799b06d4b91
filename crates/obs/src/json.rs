//! The workspace's one JSON codec (it carries no serde). Every JSON
//! document the workspace reads or writes — journals, corpus files,
//! reports, BENCH files, HTTP bodies, metrics, traces — goes through
//! [`parse`] or the [`Writer`]. [`ToJson`] and [`FromJson`] give each
//! payload type one encoder and one decoder; decoders range-check every
//! integer and name the failing field path in their [`DecodeError`].

use std::fmt;

/// Deepest nesting [`parse`] accepts. The deepest document the
/// workspace writes is a journal record carrying a plan, at depth 7.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written canonically (no sign, no leading
    /// zero), so its text is exactly `n.to_string()`.
    Int(u64),
    /// Any other number, kept as its source text, so nothing is lost
    /// between parse and re-render.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; pairs keep source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other variants.
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The number as a `u64`, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Decodes field `key` of this object. An absent field decodes as
    /// `null`: `None` for an `Option`, an error for anything else.
    #[inline]
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, DecodeError> {
        let Value::Obj(_) = self else { return Err(DecodeError::new("expected an object")) };
        T::from_json(self.get(key).unwrap_or(&Value::Null)).map_err(|e| e.in_field(key))
    }

    /// Field `key` of this object as a borrowed string: a variant tag
    /// or an enum label, matched without allocating.
    #[inline]
    pub fn tag(&self, key: &str) -> Result<&str, DecodeError> {
        match self.get(key) {
            Some(Value::Str(s)) => Ok(s),
            _ => Err(DecodeError::new("expected a string").in_field(key)),
        }
    }
}

/// Parses a complete JSON document. Trailing whitespace is allowed;
/// trailing garbage, and nesting deeper than [`MAX_DEPTH`], are errors.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Parses `text` and decodes it as a `T`.
pub fn decode<T: FromJson>(text: &str) -> Result<T, DecodeError> {
    T::from_json(&parse(text).map_err(DecodeError::new)?)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Parses the comma-separated elements of an array or members of an
    /// object up to `close`, refusing to nest past [`MAX_DEPTH`].
    fn seq(
        &mut self,
        close: u8,
        mut elem: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            let (depth, pos) = (self.depth, self.pos);
            return Err(format!("nesting depth {depth} exceeds {MAX_DEPTH} at byte {pos}"));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                elem(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => {
                        return Err(format!("expected , or {} at byte {}", close as char, self.pos))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.seq(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if p.peek() != Some(b':') {
                        return Err(format!("expected : at byte {}", p.pos));
                    }
                    p.pos += 1;
                    pairs.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(pairs))
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                let start = self.pos;
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
                    self.pos += 1;
                }
                let text = &self.text[start..self.pos];
                Ok(match text.parse() {
                    Ok(n) if !text.starts_with('0') || text == "0" => Value::Int(n),
                    _ => Value::Num(text.to_string()),
                })
            }
            Some(c) => Err(format!("unexpected byte {c:#x} at {}", self.pos)),
        }
    }

    fn lit(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or (invalid)
            // control character in one go; all are ASCII, so the run
            // ends on a char boundary.
            let run =
                self.bytes[self.pos..].iter().position(|&c| matches!(c, b'"' | b'\\' | ..b' '));
            let Some(run) = run else { return Err("unterminated string".to_string()) };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {}
                _ => return Err(format!("unescaped control character at byte {}", self.pos)),
            }
            self.pos += 1;
            let unescaped = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    self.pos += 4;
                    // The writers only escape control characters this
                    // way; surrogate pairs never appear.
                    char::from_u32(code).ok_or_else(|| format!("bad \\u{hex} escape"))?
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            };
            out.push(unescaped);
            self.pos += 1;
        }
    }
}

/// Appends `s` to `out` as the contents of a JSON string literal
/// (quotes not included): `"`, `\` and every control character are
/// escaped.
pub fn escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// How a [`Writer`] lays a document out; readers depend on each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"k":v,"k2":[1,2]}`: journals, corpus files, metrics JSON,
    /// `--obs-json`, traces.
    Compact,
    /// `{"k": v, "k2": [1, 2]}`: HTTP bodies and host metadata.
    Spaced,
    /// Spaced, with the top-level object one member per line and
    /// [`Writer::rows`] arrays one element per line: the `--json`
    /// reports and BENCH files.
    Report,
}

struct Frame {
    close: char,
    first: bool,
    /// One member or element per line.
    lines: bool,
}

/// A streaming JSON writer: values go in document order, each
/// container opened by `obj`/`arr`/`rows`/`block` and closed by `end`,
/// each object member a `key` followed by one value.
pub struct Writer {
    out: String,
    layout: Layout,
    frames: Vec<Frame>,
    after_key: bool,
}

impl Writer {
    /// An empty document in `layout`.
    pub fn new(layout: Layout) -> Writer {
        Writer { out: String::new(), layout, frames: Vec::new(), after_key: false }
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        debug_assert!(self.frames.is_empty(), "unclosed JSON container");
        self.out
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        if self.layout != Layout::Compact {
            self.out.extend(std::iter::repeat_n("  ", depth));
        }
    }

    /// Writes the separator before the next member or element.
    fn sep(&mut self) {
        let depth = self.frames.len();
        let Some(f) = self.frames.last_mut() else { return };
        let first = std::mem::replace(&mut f.first, false);
        let lines = f.lines;
        if !first {
            self.out.push(',');
        }
        if lines {
            self.newline(depth);
        } else if !first && self.layout != Layout::Compact {
            self.out.push(' ');
        }
    }

    fn value_start(&mut self) {
        if !std::mem::replace(&mut self.after_key, false) {
            self.sep();
        }
    }

    fn open(&mut self, open: char, close: char, lines: bool) -> &mut Writer {
        self.value_start();
        let lines = lines || (self.layout == Layout::Report && self.frames.is_empty());
        self.out.push(open);
        self.frames.push(Frame { close, first: true, lines });
        self
    }

    /// Opens an object.
    pub fn obj(&mut self) -> &mut Writer {
        self.open('{', '}', false)
    }

    /// Opens an object written one member per line.
    pub fn block(&mut self) -> &mut Writer {
        self.open('{', '}', true)
    }

    /// Opens an array.
    pub fn arr(&mut self) -> &mut Writer {
        self.open('[', ']', false)
    }

    /// Opens an array written one element per line (indented in the
    /// spaced layouts). An empty one still spans two lines.
    pub fn rows(&mut self) -> &mut Writer {
        self.open('[', ']', true)
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Writer {
        let f = self.frames.pop().expect("JSON end without an open container");
        if f.lines {
            self.newline(self.frames.len());
        }
        self.out.push(f.close);
        self
    }

    /// Starts an object member; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.sep();
        self.out.push('"');
        escape(&mut self.out, key);
        self.out.push_str(if self.layout == Layout::Compact { "\":" } else { "\": " });
        self.after_key = true;
        self
    }

    /// Writes one object member.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Writer {
        self.key(key);
        value.write_json(self);
        self
    }

    /// Writes one value.
    pub fn val<T: ToJson + ?Sized>(&mut self, value: &T) -> &mut Writer {
        value.write_json(self);
        self
    }

    /// Writes a float with exactly `decimals` digits after the point.
    pub fn fixed(&mut self, x: f64, decimals: usize) -> &mut Writer {
        self.raw(&format!("{x:.decimals$}"))
    }

    /// Writes already-encoded JSON verbatim: the journal's payloads and
    /// the other pre-rendered documents a writer embeds.
    pub fn raw(&mut self, json: &str) -> &mut Writer {
        self.value_start();
        self.out.push_str(json);
        self
    }
}

/// Renders `value` as one document in `layout`.
pub fn to_string<T: ToJson + ?Sized>(value: &T, layout: Layout) -> String {
    let mut w = Writer::new(layout);
    value.write_json(&mut w);
    w.finish()
}

/// Splits a compact object whose last member `key` (and no earlier
/// one) was written with [`Writer::raw`] into the members before it,
/// re-closed as an object, and that member's text, byte for byte.
pub fn split_raw_tail<'a>(doc: &'a str, key: &str) -> Option<(String, &'a str)> {
    let mut marker = String::from(",\"");
    escape(&mut marker, key);
    marker.push_str("\":");
    let at = doc.find(&marker)?;
    let raw = doc.strip_suffix('}')?.get(at + marker.len()..)?;
    Some((format!("{}}}", &doc[..at]), raw))
}

/// A type with a JSON encoding.
pub trait ToJson {
    /// Writes `self` as one value.
    fn write_json(&self, w: &mut Writer);
}

/// A type decodable from a [`Value`].
pub trait FromJson: Sized {
    /// Decodes `v`, naming the failing field path on error.
    fn from_json(v: &Value) -> Result<Self, DecodeError>;
}

/// Why a document did not decode: what was wrong, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(Box<Located>);

/// Boxed, so the `Result`s a decoder passes around stay small.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Located {
    path: String,
    msg: String,
}

impl DecodeError {
    /// An error at the current value.
    pub fn new(msg: impl Into<String>) -> DecodeError {
        DecodeError(Box::new(Located { path: String::new(), msg: msg.into() }))
    }

    /// The same error, one object member further out.
    pub fn in_field(mut self, key: &str) -> DecodeError {
        let path = &mut self.0.path;
        *path = match path.chars().next() {
            None => key.to_string(),
            Some('[') => format!("{key}{path}"),
            Some(_) => format!("{key}.{path}"),
        };
        self
    }

    /// The same error, one array element further out.
    pub fn at_index(mut self, index: usize) -> DecodeError {
        let path = &mut self.0.path;
        *path = match path.chars().next() {
            None | Some('[') => format!("[{index}]{path}"),
            Some(_) => format!("[{index}].{path}"),
        };
        self
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Located { path, msg } = &*self.0;
        if path.is_empty() {
            f.write_str(msg)
        } else {
            write!(f, "{path}: {msg}")
        }
    }
}

impl From<DecodeError> for String {
    fn from(e: DecodeError) -> String {
        e.to_string()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.value_start();
        w.out.push('"');
        escape(&mut w.out, self);
        w.out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        self.as_str().write_json(w);
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<String, DecodeError> {
        v.as_str().map(str::to_string).ok_or_else(|| DecodeError::new("expected a string"))
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut Writer) {
        w.raw(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<bool, DecodeError> {
        v.as_bool().ok_or_else(|| DecodeError::new("expected a boolean"))
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.raw(&self.to_string());
            }
        }

        impl FromJson for $t {
            #[inline]
            fn from_json(v: &Value) -> Result<$t, DecodeError> {
                let n = match v {
                    Value::Int(n) => *n,
                    Value::Num(text) => {
                        let msg = format!("{text} is not an unsigned 64-bit integer");
                        return Err(DecodeError::new(msg));
                    }
                    _ => return Err(DecodeError::new("expected an unsigned integer")),
                };
                <$t>::try_from(n).map_err(|_| {
                    DecodeError::new(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, u128, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => {
                w.raw("null");
            }
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Option<T>, DecodeError> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.arr();
        for v in self {
            v.write_json(w);
        }
        w.end();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        self.as_slice().write_json(w);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Vec<T>, DecodeError> {
        let items = v.as_arr().ok_or_else(|| DecodeError::new("expected an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.at_index(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn compact<T: ToJson + ?Sized>(v: &T) -> String {
        to_string(v, Layout::Compact)
    }

    #[test]
    fn roundtrips_nested_structures() {
        let v = parse(r#"{"a": [1, -2, "x\n\"y\""], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Value::Num("-2".into()));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match v {
            Value::Obj(pairs) => {
                assert_eq!(pairs[0].0, "z");
                assert_eq!(pairs[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse("\"\\u+abc\"").is_err());
        assert!(parse("\"tab\there\"").is_err(), "control characters must be escaped");
    }

    #[test]
    fn nesting_is_bounded() {
        let err = parse(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.contains("nesting depth 65 exceeds 64 at byte 64"), "{err}");
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        // Depth is released on close: many shallow siblings are fine.
        let wide = format!("[{}[]]", "[[]],".repeat(MAX_DEPTH * 2));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn the_three_layouts() {
        let doc = |layout| {
            let mut w = Writer::new(layout);
            w.obj().field("a", &1u32).key("b").arr().val("x").val(&true).end();
            w.key("c").rows().obj().field("d", &None::<u64>).end().end();
            w.key("e").rows().end().end();
            w.finish()
        };
        assert_eq!(
            doc(Layout::Compact),
            "{\"a\":1,\"b\":[\"x\",true],\"c\":[\n{\"d\":null}\n],\"e\":[\n]}"
        );
        assert_eq!(
            doc(Layout::Spaced),
            "{\"a\": 1, \"b\": [\"x\", true], \"c\": [\n    {\"d\": null}\n  ], \"e\": [\n  ]}"
        );
        assert_eq!(
            doc(Layout::Report),
            "{\n  \"a\": 1,\n  \"b\": [\"x\", true],\n  \"c\": [\n    {\"d\": null}\n  ],\n  \
             \"e\": [\n  ]\n}"
        );
        let mut w = Writer::new(Layout::Report);
        w.obj().key("m").block().field("x", &2u8).end().field("f", &0.125f64.to_string()).end();
        assert_eq!(w.finish(), "{\n  \"m\": {\n    \"x\": 2\n  },\n  \"f\": \"0.125\"\n}");
        let mut w = Writer::new(Layout::Compact);
        w.arr().fixed(2.0 / 3.0, 2).raw("{\"pre\":1}").raw("null").end();
        assert_eq!(w.finish(), "[0.67,{\"pre\":1},null]");
    }

    #[test]
    fn integers_are_range_checked_and_paths_named() {
        #[derive(Debug)]
        struct Stmt(#[allow(dead_code)] u32);
        impl FromJson for Stmt {
            fn from_json(v: &Value) -> Result<Stmt, DecodeError> {
                Ok(Stmt(v.field("off")?))
            }
        }
        #[derive(Debug)]
        struct Func(#[allow(dead_code)] Vec<Stmt>);
        impl FromJson for Func {
            fn from_json(v: &Value) -> Result<Func, DecodeError> {
                Ok(Func(v.field("body")?))
            }
        }
        let v = parse(r#"{"funcs": [{"body": [{"off": 1}, {"off": 4294967300}]}]}"#).unwrap();
        let err = v.field::<Vec<Func>>("funcs").unwrap_err();
        assert_eq!(err.to_string(), "funcs[0].body[1].off: 4294967300 out of range for u32");
        let num = |text: &str| parse(text).unwrap();
        assert_eq!(u8::from_json(&num("256")).unwrap_err().to_string(), "256 out of range for u8");
        for bad in ["-1", "1.5", "1e3", "007", "18446744073709551616", "\"1\""] {
            assert!(u64::from_json(&num(bad)).is_err(), "{bad}");
        }
        assert_eq!(u64::from_json(&num(&u64::MAX.to_string())), Ok(u64::MAX));
        assert_eq!(num("0"), Value::Int(0));
        assert_eq!(num("-0"), Value::Num("-0".into()));
    }

    #[test]
    fn option_fields_may_be_absent_or_null() {
        let v = parse(r#"{"a": null, "b": "x"}"#).unwrap();
        assert_eq!(v.field::<Option<String>>("a"), Ok(None));
        assert_eq!(v.field::<Option<String>>("b"), Ok(Some("x".into())));
        assert_eq!(v.field::<Option<String>>("c"), Ok(None));
        assert_eq!(v.field::<String>("c").unwrap_err().to_string(), "c: expected a string");
        assert_eq!(v.field::<Vec<u32>>("b").unwrap_err().to_string(), "b: expected an array");
        assert!(Value::Null.field::<u32>("a").is_err());
        assert_eq!(v.tag("b"), Ok("x"));
        assert!(v.tag("a").is_err());
    }

    proptest! {
        #[test]
        fn strings_round_trip(s in any::<String>()) {
            for layout in [Layout::Compact, Layout::Spaced, Layout::Report] {
                let text = to_string(&vec![s.clone()], layout);
                prop_assert_eq!(decode::<Vec<String>>(&text), Ok(vec![s.clone()]));
            }
            prop_assert!(!compact(&s).chars().any(|c| (c as u32) < 0x20));
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
