//! Minimal std-only JSON, used by the on-disk result store and the
//! consolidated `results.json`.
//!
//! The build environment is hermetic (no serde_json), and the harness
//! only needs to round-trip flat counter structs, so a small codec
//! beats a dependency. Integers are kept exact: `u64` counters are
//! emitted as integer literals and parsed back without a round-trip
//! through `f64` (which would corrupt values above 2^53).
//!
//! Two ways in and out share one lexer and one set of escaping rules:
//! a [`Value`] tree ([`parse`], [`Value::to_json`]) for documents of
//! any shape, and a pull [`Reader`] plus [`JsonSink`] writers that the
//! typed result codecs (`store::read_result`/`write_result` and their
//! CMP forms) use to go between structs and text with no tree — the
//! store's reads and the daemon's cell lines run on those.
//!
//! A [`Value`] object's keys are `Cow<'static, str>`: the encoders
//! (`result_to_json`, `results_doc_cmp`, the protocol's events) borrow
//! their static key names instead of allocating one `String` per key,
//! and only [`parse`] owns the keys it reads.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::job::Fnv64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `u64` (kept exact).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: insertion-ordered key/value pairs. Static key names
    /// are borrowed; parsed keys are owned.
    Obj(Vec<(Cow<'static, str>, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(n) => Some(n),
            Value::Num(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Num(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// True for `null` (e.g. the `error` field of a healthy job record).
    pub const fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compact serialization.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (2-space indent).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        // A line break and the indentation of `depth`; nothing compact.
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                pad(out, w * depth);
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => write_u64(out, *n),
            Value::Num(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null"); // JSON has no NaN/inf
                }
            }
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_key(out, k);
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

/// Appends `n` spaces, a slice of a fixed run at a time, so any depth
/// pads without allocating.
fn pad(out: &mut String, mut n: usize) {
    const SPACES: &str = "                                ";
    while n > 0 {
        let k = n.min(SPACES.len());
        out.push_str(&SPACES[..k]);
        n -= k;
    }
}

/// Where compact JSON text goes: a `String` being built, or an
/// [`Fnv64`] hashing the text that would have been built. The typed
/// result writers (`store::write_result`, `cmp::write_cmp_result`) are
/// generic over it, so a store checksum streams the encoding into the
/// hash without materializing it.
pub trait JsonSink {
    /// Appends `s`.
    fn push_str(&mut self, s: &str);
}

impl JsonSink for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

impl JsonSink for Fnv64 {
    fn push_str(&mut self, s: &str) {
        self.update(s.as_bytes());
    }
}

/// Appends `s` as a JSON string literal: `"` and `\` escaped, the
/// control bytes `\n`, `\r`, `\t` by name and the rest as `\u00xx`,
/// everything else (multi-byte UTF-8 included) verbatim.
pub fn write_str(out: &mut impl JsonSink, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push_str("\"");
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escapable bytes are ASCII, so `run..i` lies on char boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        if named.is_empty() {
            let code = [
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ];
            out.push_str(std::str::from_utf8(&code).unwrap_or_default());
        } else {
            out.push_str(named);
        }
    }
    out.push_str(&s[run..]);
    out.push_str("\"");
}

/// Appends `n` as an exact integer literal.
pub fn write_u64(out: &mut impl JsonSink, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

/// Appends `"key":` — an object key and its separator.
pub fn write_key(out: &mut impl JsonSink, key: &str) {
    write_str(out, key);
    out.push_str(":");
}

/// Parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse(s: &str) -> Result<Value, ParseError> {
    let mut r = Reader::new(s);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// Containers nested deeper than this are rejected rather than
/// recursed into, so hostile input cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

/// A borrowing pull reader over one JSON text — the one lexer behind
/// both [`parse`] (which builds a [`Value`] tree) and the typed
/// decoders, which walk a document straight into a struct.
///
/// A typed decoder reads an object with [`Reader::object`], which hands
/// it each key in document order; it consumes that key's value with
/// one of the value readers ([`Reader::opt_u64`], [`Reader::opt_str`],
/// a nested [`Reader::object`]/[`Reader::array`]) or drops it with
/// [`Reader::skip`]. Key order and whitespace are free, unknown keys
/// are skipped, and strings are unescaped (borrowed from the input
/// when they contain no escapes). The `opt_*` readers are lenient about
/// *type* — a value of the wrong kind is skipped and reads as `None` —
/// but every reader is strict about *syntax*: malformed input is an
/// [`Err`], never a panic, and every step consumes input, so no input
/// can make a decoder loop.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    s: &'a str,
    i: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `s`.
    pub fn new(s: &'a str) -> Self {
        Reader { s, i: 0, depth: 0 }
    }

    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.i, msg }
    }

    fn bytes(&self) -> &'a [u8] {
        self.s.as_bytes()
    }

    fn ws(&mut self) {
        while self
            .bytes()
            .get(self.i)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.bytes().get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// The first byte of the next value (whitespace skipped), without
    /// consuming it; `None` at the end of input.
    pub fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes().get(self.i).copied()
    }

    /// Checks that only whitespace remains.
    ///
    /// # Errors
    ///
    /// `trailing data` otherwise.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        if self.peek().is_some() {
            return Err(self.err("trailing data"));
        }
        Ok(())
    }

    /// The text from byte `from` (a [`Reader::pos`]) up to the reader's
    /// position — e.g. the raw span of a value just skipped, kept for
    /// decoding later.
    pub fn since(&self, from: usize) -> &'a str {
        self.s.get(from..self.i).unwrap_or_default()
    }

    /// The byte position of the next value, whitespace skipped.
    pub fn pos(&mut self) -> usize {
        self.ws();
        self.i
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.i += 1; // the opening bracket
        Ok(())
    }

    /// Reads an object, calling `field(reader, key)` once per key in
    /// document order; `field` must consume exactly that key's value.
    ///
    /// # Errors
    ///
    /// Malformed input (including a next value that is not an object),
    /// or whatever `field` returns.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.peek() != Some(b'{') {
            return Err(self.err("expected '{'"));
        }
        self.enter()?;
        self.ws();
        if !self.eat(b'}') {
            loop {
                self.ws();
                if self.bytes().get(self.i) != Some(&b'"') {
                    return Err(self.err("expected object key"));
                }
                let key = self.string()?;
                self.ws();
                if !self.eat(b':') {
                    return Err(self.err("expected ':'"));
                }
                field(self, &key)?;
                self.ws();
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads an array, calling `item(reader)` once per element; `item`
    /// must consume exactly that element.
    ///
    /// # Errors
    ///
    /// Malformed input (including a next value that is not an array),
    /// or whatever `item` returns.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.peek() != Some(b'[') {
            return Err(self.err("expected '['"));
        }
        self.enter()?;
        self.ws();
        if !self.eat(b']') {
            loop {
                item(self)?;
                self.ws();
                if self.eat(b']') {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads any value into a [`Value`] tree (the body of [`parse`]).
    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|r, key| {
                    let v = r.value()?;
                    fields.push((Cow::Owned(key.to_owned()), v));
                    Ok(())
                })?;
                Ok(Value::Obj(fields))
            }
            _ => self.scalar(),
        }
    }

    /// Reads and discards any value, checking its syntax.
    ///
    /// # Errors
    ///
    /// Malformed input.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.array(Reader::skip),
            Some(b'{') => self.object(|r, _| r.skip()),
            _ => self.scalar().map(drop),
        }
    }

    /// Reads any value; `Some` if it is an exact `u64` (the
    /// [`Value::as_u64`] rule), else `None`.
    ///
    /// # Errors
    ///
    /// Malformed input.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, ParseError> {
        match self.peek() {
            Some(b'"' | b'[' | b'{') => self.skip().map(|()| None),
            _ => Ok(self.scalar()?.as_u64()),
        }
    }

    /// Reads any value; `Some` (unescaped) if it is a string, else
    /// `None`.
    ///
    /// # Errors
    ///
    /// Malformed input.
    pub fn opt_str(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if self.peek() == Some(b'"') {
            self.string().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// A literal or a number.
    fn scalar(&mut self) -> Result<Value, ParseError> {
        let lit = |word: &str, v: Value, r: &mut Self| {
            if r.s[r.i..].starts_with(word) {
                r.i += word.len();
                Ok(v)
            } else {
                Err(r.err("invalid literal"))
            }
        };
        match self.peek() {
            None => Err(self.err("unexpected end")),
            Some(b'n') => lit("null", Value::Null, self),
            Some(b't') => lit("true", Value::Bool(true), self),
            Some(b'f') => lit("false", Value::Bool(false), self),
            Some(_) => self.number(),
        }
    }

    /// The string at the reader (which must be at its opening quote),
    /// borrowed from the input unless it contains escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.i += 1; // '"'
        let start = self.i;
        let b = self.bytes();
        // Fast scan: a string without escapes is a slice of the input.
        while let Some(&c) = b.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(Cow::Borrowed(&self.s[start..self.i - 1]));
                }
                b'\\' => break,
                0..=0x1f => return Err(self.err("control byte in string")),
                _ => self.i += 1,
            }
        }
        let mut out = String::from(&self.s[start..self.i]);
        loop {
            let Some(&c) = b.get(self.i) else {
                return Err(self.err("unterminated string"));
            };
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(Cow::Owned(out));
                }
                b'\\' => {
                    self.i += 1;
                    let Some(&e) = b.get(self.i) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogates are not used by our writer;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0..=0x1f => return Err(self.err("control byte in string")),
                _ => {
                    // Copy the run up to the next quote, escape or
                    // control byte; those are ASCII, so the run ends on
                    // a char boundary.
                    let run = self.i;
                    while b
                        .get(self.i)
                        .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.i += 1;
                    }
                    out.push_str(&self.s[run..self.i]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        let b = self.bytes();
        // Pure digits (the writer's only number form) accumulate
        // directly; anything else, or a u64 overflow, goes through the
        // general text parse.
        let mut n: Option<u64> = Some(0);
        while let Some(&c) = b.get(self.i) {
            if c.is_ascii_digit() {
                n = n
                    .and_then(|n| n.checked_mul(10))
                    .and_then(|n| n.checked_add(u64::from(c - b'0')));
            } else if matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                n = None;
            } else {
                break;
            }
            self.i += 1;
        }
        if let (Some(n), true) = (n, self.i > start) {
            return Ok(Value::Int(n));
        }
        let text = &self.s[start..self.i];
        text.parse::<f64>().map(Value::Num).map_err(|_| ParseError {
            at: start,
            msg: "bad number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Int(u64::MAX)),
            (
                "b".into(),
                Value::Arr(vec![Value::Num(1.5), Value::Bool(true), Value::Null]),
            ),
            (
                "c\n\"x\"".into(),
                Value::Str("tab\t, quote \", slash \\".into()),
            ),
        ]);
        for text in [v.to_json(), v.to_json_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    /// The indentation `Value::write` used to build as a fresh `String`
    /// per value, rendered the old way as the reference.
    fn reference_pretty(v: &Value, depth: usize, out: &mut String) {
        let (pad, pad_in) = (" ".repeat(2 * depth), " ".repeat(2 * (depth + 1)));
        match v {
            Value::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&pad_in);
                    reference_pretty(item, depth + 1, out);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push(']');
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&pad_in);
                    write_key(out, k);
                    out.push(' ');
                    reference_pretty(item, depth + 1, out);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push('}');
            }
            leaf => out.push_str(&leaf.to_json()),
        }
    }

    /// Pretty output pads correctly far past the fixed run of spaces
    /// `pad` slices from, at every depth on the way down.
    #[test]
    fn pretty_padding_matches_the_reference_at_any_depth() {
        let mut v = Value::Arr(vec![Value::Int(7), Value::Arr(Vec::new())]);
        for depth in 0..100 {
            v = if depth % 2 == 0 {
                Value::Obj(vec![
                    ("k".into(), v),
                    ("e".into(), Value::Obj(Vec::new())),
                    ("s".into(), Value::Str("x".into())),
                ])
            } else {
                Value::Arr(vec![Value::Null, v, Value::Bool(true)])
            };
            let mut want = String::new();
            reference_pretty(&v, 0, &mut want);
            want.push('\n');
            assert_eq!(v.to_json_pretty(), want, "nesting {}", depth + 2);
        }
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn u64_counters_stay_exact() {
        for n in [0u64, 1, (1 << 53) + 1, u64::MAX] {
            let text = Value::Int(n).to_json();
            assert_eq!(parse(&text).unwrap().as_u64(), Some(n));
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "01x",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(parse("-3.5").unwrap().as_f64(), Some(-3.5));
        assert_eq!(parse("2.0e3").unwrap().as_f64(), Some(2000.0));
        assert_eq!(parse("-7").unwrap().as_f64(), Some(-7.0));
    }
}
