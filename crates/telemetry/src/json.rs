//! A hand-rolled JSON layer: a tree model, the streaming emitter that
//! serialises it, a minimal parser, and the byte-level integer routine
//! and [`Record`] that every record writer shares.
//!
//! The build environment is offline (no serde), and the metrics schema
//! is small and stable, so a tiny tree model is the whole dependency.
//! Objects preserve insertion order, which keeps exports byte-stable
//! across runs — downstream golden files and CI diffs rely on that.
//! The tree documents (metrics, `crash.json`, host profile) are a few KB
//! and go through [`JsonEmitter`], one token at a time. The large
//! exports are written record by record into a [`Record`]: the Chrome
//! trace from event templates the emitter's own output supplies
//! ([`crate::chrome`]), and the `.prv` lines in the core crate. All
//! three write integers with `write_u64`, and output is bytes until a
//! document is finished, when a `String` is made once with
//! `String::from_utf8`, which takes the buffer over without a copy.

use std::io::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (cycle counts, event totals).
    UInt(u64),
    /// Signed integer (exit codes).
    Int(i64),
    /// Floating point; non-finite values serialize as `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object.
    #[must_use]
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Appends a field to an object; panics on non-objects (builder
    /// misuse, caught in tests).
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> JsonValue {
        match &mut self {
            JsonValue::Object(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("with() on non-object {other:?}"),
        }
        self
    }

    /// Looks up a field of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object keys in order, if this is an object.
    #[must_use]
    pub fn keys(&self) -> Option<Vec<&str>> {
        match self {
            JsonValue::Object(fields) => Some(fields.iter().map(|(k, _)| k.as_str()).collect()),
            _ => None,
        }
    }

    /// The value as `u64` (from `UInt` or an integral `Int`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (from any numeric variant).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = JsonEmitter::new(false, 0);
        out.value(self);
        out.finish()
    }

    /// Serializes with two-space indentation.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = JsonEmitter::new(true, 0);
        out.value(self);
        out.finish()
    }
}

/// Streaming JSON emitter: the formatter of every tree document.
///
/// Callers announce structure (`begin_*` / `key` / `end_*`) and scalars
/// in document order and the text is appended to an owned buffer at
/// once. [`JsonValue`] serialization is a walk over this type. Misnested
/// calls are a caller bug and produce malformed text, not a panic.
#[derive(Debug)]
pub struct JsonEmitter {
    out: Vec<u8>,
    pretty: bool,
    depth: usize,
    /// The innermost open container has no item yet.
    first: bool,
    /// A key was just written: the next value follows it inline.
    after_key: bool,
}

impl JsonEmitter {
    /// An emitter producing two-space `pretty` or compact text into a
    /// buffer pre-sized to `capacity` bytes.
    #[must_use]
    pub fn new(pretty: bool, capacity: usize) -> JsonEmitter {
        JsonEmitter {
            out: Vec::with_capacity(capacity),
            pretty,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// Ends the document (pretty text ends in a newline) and returns
    /// the text.
    #[must_use]
    pub fn finish(mut self) -> String {
        if self.pretty {
            self.out.push(b'\n');
        }
        String::from_utf8(self.out).expect("the emitter writes only whole UTF-8 strings")
    }

    /// Separator and indentation in front of an item of the open
    /// container; nothing in front of a keyed or top-level value.
    fn item(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            if !self.first {
                self.out.push(b',');
            }
            self.newline();
        }
        self.first = false;
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            for _ in 0..self.depth {
                self.out.extend_from_slice(b"  ");
            }
        }
    }

    fn open(&mut self, bracket: u8) {
        self.item();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Writes an object key; the next call supplies its value.
    pub fn key(&mut self, key: &str) {
        self.item();
        push_escaped(&mut self.out, key);
        self.out
            .extend_from_slice(if self.pretty { b": " } else { b":" });
        self.after_key = true;
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) {
        self.item();
        push_escaped(&mut self.out, s);
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, v: u64) {
        self.item();
        push_u64(&mut self.out, v);
    }

    /// Writes any [`JsonValue`] tree.
    pub fn value(&mut self, value: &JsonValue) {
        match value {
            JsonValue::Null => self.literal("null"),
            JsonValue::Bool(b) => self.literal(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => self.uint(*v),
            JsonValue::Int(v) => {
                self.item();
                if *v < 0 {
                    self.out.push(b'-');
                }
                push_u64(&mut self.out, v.unsigned_abs());
            }
            JsonValue::Float(v) if v.is_finite() => {
                self.item();
                // Rust's shortest-roundtrip Display is deterministic;
                // force a trailing `.0` so integers stay floats on
                // re-parse. Writing into a `Vec` cannot fail.
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    let _ = write!(self.out, "{v:.1}");
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            JsonValue::Float(_) => self.literal("null"),
            JsonValue::Str(s) => self.string(s),
            JsonValue::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array();
            }
            JsonValue::Object(fields) => {
                self.begin_object();
                for (key, value) in fields {
                    self.key(key);
                    self.value(value);
                }
                self.end_object();
            }
        }
    }

    fn literal(&mut self, text: &str) {
        self.item();
        self.out.extend_from_slice(text.as_bytes());
    }
}

/// `"00"`, `"01"`, …, `"99"`: two decimal digits per table lookup.
const DECIMAL_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `v` in decimal, as `v.to_string()` spells it, at the start of
/// `out` and returns the byte count (at most 20): the integer routine
/// of the emitter, the Chrome writer and the `.prv` writer. The digits
/// go straight to their place, two per table lookup, right to left.
///
/// # Panics
///
/// If `out` is shorter than the digits.
#[inline(always)]
pub(crate) fn write_u64(out: &mut [u8], mut v: u64) -> usize {
    let len = v.checked_ilog10().map_or(1, |log| log as usize + 1);
    let digits = &mut out[..len];
    let mut end = len;
    while end > 1 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        end -= 2;
        digits[end..end + 2].copy_from_slice(&DECIMAL_PAIRS[pair..pair + 2]);
    }
    if end == 1 {
        digits[0] = b'0' + v as u8;
    }
    len
}

/// Writes `v` as `format!("{v:#x}")` spells it (`0x`, lower-case
/// digits, no padding) at the start of `out`, as [`write_u64`] writes
/// decimal, and returns the byte count (at most 18).
///
/// # Panics
///
/// If `out` is shorter than the text.
#[inline(always)]
pub(crate) fn write_hex(out: &mut [u8], mut v: u64) -> usize {
    let len = 3 + v.checked_ilog2().map_or(0, |log| log as usize / 4);
    let digits = &mut out[..len];
    digits[..2].copy_from_slice(b"0x");
    for digit in digits[2..].iter_mut().rev() {
        *digit = b"0123456789abcdef"[(v & 0xf) as usize];
        v >>= 4;
    }
    len
}

/// Room a writer leaves for one record's fixed pieces and integers
/// before starting it: the longest (a pretty Chrome slice with `args`)
/// is under 400 bytes, and a `.prv` line under 200.
pub const RECORD_BYTES: usize = 512;

/// One record of a line- or event-oriented export (a `.prv` line, a
/// Chrome event), written at a cursor straight into its document's
/// buffer. Filling it is a store per piece with the cursor in a
/// register, where a `Vec` reloads and updates its length and capacity
/// around each one. The writer hands it an initialised window with room
/// for the whole record and advances its own length by what
/// [`end`](Self::end) returns.
#[derive(Debug)]
pub struct Record<'a> {
    bytes: &'a mut [u8],
    len: usize,
}

impl<'a> Record<'a> {
    /// An empty record written into the start of `window`.
    #[inline(always)]
    pub fn new(window: &'a mut [u8]) -> Record<'a> {
        Record {
            bytes: window,
            len: 0,
        }
    }

    /// Ends the record and returns its length, by which the writer
    /// advances its own.
    #[inline(always)]
    #[must_use]
    pub fn end(self) -> usize {
        self.len
    }

    /// Appends `bytes`.
    ///
    /// # Panics
    ///
    /// If the record outgrows its window (likewise below).
    #[inline(always)]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Appends `v` in decimal, as `v.to_string()` spells it.
    #[inline(always)]
    pub fn uint(&mut self, v: u64) {
        self.len += write_u64(&mut self.bytes[self.len..], v);
    }

    /// Appends `v` as `format!("{v:#x}")` spells it.
    #[inline(always)]
    pub(crate) fn hex(&mut self, v: u64) {
        self.len += write_hex(&mut self.bytes[self.len..], v);
    }

    /// Appends the first `len` bytes of `padded`: one fixed-size copy,
    /// which the compiler does in a few vector moves, where a copy of
    /// the exact length of a piece chosen at run time is a `memcpy`
    /// call.
    #[inline(always)]
    pub(crate) fn padded(&mut self, padded: &[u8; 64], len: usize) {
        self.bytes[self.len..self.len + 64].copy_from_slice(padded);
        self.len += len;
    }
}

/// Whether `s` is its own JSON string body, without escapes.
pub(crate) fn is_plain(s: &str) -> bool {
    s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\')
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut digits = [0; 20];
    let len = write_u64(&mut digits, v);
    out.extend_from_slice(&digits[..len]);
}

/// Appends `s` as a quoted JSON string. The escapes are all ASCII, so
/// the bytes of any other character are copied as they are.
pub(crate) fn push_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    // Nearly every string (all keys, event names) needs no escape: one
    // scan, one copy.
    if is_plain(s) {
        out.extend_from_slice(s.as_bytes());
    } else {
        for b in s.bytes() {
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                b if b < 0x20 => {
                    let _ = write!(out, "\\u{b:04x}");
                }
                b => out.push(b),
            }
        }
    }
    out.push(b'"');
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(u64::from(v))
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        // Non-negative integers canonicalise to `UInt` so that values
        // round-trip through the parser (which prefers `UInt`) unchanged.
        match u64::try_from(v) {
            Ok(u) => JsonValue::UInt(u),
            Err(_) => JsonValue::Int(v),
        }
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

/// Error from [`parse`]: byte offset plus description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Parses a JSON document (the subset this crate's writer produces,
/// which is standard JSON minus `\uXXXX` surrogate pairs in input).
///
/// # Errors
///
/// Returns [`JsonParseError`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(offset: usize, message: &str) -> JsonParseError {
    JsonParseError {
        offset,
        message: message.to_owned(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), JsonParseError> {
    if bytes.get(*pos) == Some(&token) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{}`", token as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonParseError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{literal}`")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| err(*pos, "non-scalar \\u escape"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one full UTF-8 character.
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "invalid utf-8"))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    if text.is_empty() {
        return Err(err(start, "expected a value"));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(JsonValue::Int(v));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| err(start, "malformed number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let doc = JsonValue::object()
            .with("a", 1u64)
            .with("b", "two")
            .with("c", JsonValue::Array(vec![JsonValue::Bool(true)]));
        assert_eq!(doc.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(JsonValue::as_str), Some("two"));
        assert_eq!(doc.keys(), Some(vec!["a", "b", "c"]));
    }

    #[test]
    fn pretty_output_parses_back() {
        let doc = JsonValue::object()
            .with("schema_version", 1u64)
            .with(
                "nested",
                JsonValue::object().with("list", JsonValue::Array(vec![1u64.into(), 2u64.into()])),
            )
            .with("neg", -7i64)
            .with("pi", 3.25);
        let text = doc.to_string_pretty();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let parsed = parse(r#"{"k":"a\tbAç"}"#).unwrap();
        assert_eq!(parsed.get("k").and_then(JsonValue::as_str), Some("a\tbAç"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn numbers_round_trip_by_kind() {
        let parsed = parse("[0,18446744073709551615,-3,2.5]").unwrap();
        let items = parsed.as_array().unwrap();
        assert_eq!(items[0], JsonValue::UInt(0));
        assert_eq!(items[1], JsonValue::UInt(u64::MAX));
        assert_eq!(items[2], JsonValue::Int(-3));
        assert_eq!(items[3], JsonValue::Float(2.5));
    }

    fn decimal(v: u64) -> String {
        let mut out = [0; 20];
        let len = write_u64(&mut out, v);
        String::from_utf8(out[..len].to_vec()).unwrap()
    }

    fn hex(v: u64) -> String {
        let mut out = [0; 18];
        let len = write_hex(&mut out, v);
        String::from_utf8(out[..len].to_vec()).unwrap()
    }

    #[test]
    fn decimal_matches_to_string() {
        for v in 0..=100_000 {
            assert_eq!(decimal(v), v.to_string());
        }
        for k in 0..=19 {
            let p = 10u64.pow(k);
            for v in [p - 1, p, p + 1] {
                assert_eq!(decimal(v), v.to_string());
            }
        }
        assert_eq!(decimal(u64::MAX), u64::MAX.to_string());
    }

    #[test]
    fn hex_matches_the_fmt_alternate_form() {
        for k in 0..16 {
            let p = 16u64.pow(k);
            for v in [p - 1, p, p + 1] {
                assert_eq!(hex(v), format!("{v:#x}"));
            }
        }
        for v in [0xabc, 0x8000_0010, u64::MAX] {
            assert_eq!(hex(v), format!("{v:#x}"));
        }
    }

    proptest::proptest! {
        #[test]
        fn random_integers_match_fmt(v in proptest::prelude::any::<u64>()) {
            proptest::prop_assert_eq!(decimal(v), v.to_string());
            proptest::prop_assert_eq!(hex(v), format!("{v:#x}"));
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::object());
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(Vec::new()));
    }
}
