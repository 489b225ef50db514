//! The workspace's one JSON layer: a value, a parser and a writer.
//!
//! The workspace uses no serialization framework: every wire format —
//! outcome documents, scenario documents, run manifests,
//! profiles, ledgers, campaign specs, fault plans, topologies, crash
//! bundles, trace and timeline JSONL — is schema code on top of this
//! module, and nothing outside it knows JSON syntax. Three parts:
//!
//! * [`Json`] / [`Json::parse`] / [`Json::render`] — a recursive-descent
//!   parser over the full grammar (minus surrogate-pair `\u` escapes)
//!   and its compact renderer. Numbers are kept as their raw source text
//!   ([`Json::Num`]) and converted on access: parsing through `f64`
//!   would silently corrupt 64-bit seeds (`u64` values above 2^53 are
//!   not representable), and seeds are exactly what crash-bundle replay
//!   must preserve bit-for-bit. A key repeated within one object is a
//!   parse error, not a first-match lookup.
//! * Typed field access — [`Json::req_u64`], [`Json::opt_f64`] and
//!   friends: one set of getters whose errors name the key, for every
//!   reader in the workspace.
//! * [`JsonWriter`] — the append-in-place writer behind every `to_json`.
//!   Keys and string values are escaped by construction; floats go
//!   through one shortest-round-trip rule ([`JsonWriter::f64`]); the
//!   three layouts that exist on disk are chosen by schema code via the
//!   constructor, never by a user.

use std::fmt::{self, Write as _};
use std::io;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Raw number text, converted lazily by [`Json::as_u64`] /
    /// [`Json::as_f64`] so integers round-trip exactly.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Key–value pairs in document order (no hashing needed at this size).
    Obj(Vec<(String, Json)>),
}

/// A parse failure with the byte offset where it happened, or a
/// schema-level failure from typed access (offset 0; see
/// [`JsonError::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// A schema-level error (a missing or mistyped field): the document
    /// parsed, so there is no byte offset to report.
    pub fn new(message: impl Into<String>) -> JsonError {
        JsonError {
            offset: 0,
            message: message.into(),
        }
    }
}

impl From<JsonError> for io::Error {
    fn from(e: JsonError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

impl Json {
    /// Parse a complete document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serialize back to compact JSON text. The writing counterpart of
    /// [`Json::parse`]: numbers keep their raw source text (so u64 seeds
    /// survive), strings use the workspace escaping rules. `render` →
    /// `parse` is the identity on the value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut JsonWriter::compact(&mut out));
        out
    }

    fn write(&self, w: &mut JsonWriter<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(raw) => w.raw(raw),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.arr(items, |w, v| v.write(w)),
            Json::Obj(fields) => w.obj(|w| {
                for (k, v) in fields {
                    v.write(w.key(k));
                }
            }),
        }
    }
}

/// Generates one `opt_*`/`req_*` pair per scalar type: `opt_*` is
/// `Ok(None)` for an absent or `null` field and an error for a present
/// field of the wrong type; `req_*` additionally rejects absence.
macro_rules! typed_access {
    ($($opt:ident $req:ident -> $ty:ty, $want:literal, $conv:expr;)*) => {$(
        pub fn $opt(&self, key: &str) -> Result<Option<$ty>, JsonError> {
            match self.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => ($conv)(v)
                    .map(Some)
                    .ok_or_else(|| JsonError::new(format!("\"{key}\" is not {}", $want))),
            }
        }

        pub fn $req(&self, key: &str) -> Result<$ty, JsonError> {
            self.$opt(key)?
                .ok_or_else(|| JsonError::new(format!("missing \"{key}\"")))
        }
    )*};
}

/// Typed field access: the one set of getters every reader in the
/// workspace uses. Errors name the key.
impl Json {
    typed_access! {
        opt_u64 req_u64 -> u64, "an unsigned integer", Json::as_u64;
        opt_u32 req_u32 -> u32, "a 32-bit unsigned integer",
            |v: &Json| v.as_u64().and_then(|n| u32::try_from(n).ok());
        opt_f64 req_f64 -> f64, "a number", Json::as_f64;
        opt_bool req_bool -> bool, "a boolean", Json::as_bool;
        opt_str req_str -> &str, "a string", Json::as_str;
        opt_arr req_arr -> &[Json], "an array", Json::as_arr;
        opt_obj req_obj -> &[(String, Json)], "an object", Json::as_obj;
    }

    /// An optional object read as an ordered map: its `(key, value)` pairs
    /// with every value converted by `conv` (absent or `null` → empty).
    pub fn opt_pairs<'a, T>(
        &'a self,
        key: &str,
        conv: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<Vec<(String, T)>, JsonError> {
        let fields = self.opt_obj(key)?.unwrap_or(&[]).iter();
        fields
            .map(|(k, v)| {
                let bad = || JsonError::new(format!("{key} \"{k}\" has the wrong type"));
                Ok((k.clone(), conv(v).ok_or_else(bad)?))
            })
            .collect()
    }

    /// A required array of unsigned integers.
    pub fn req_u64s(&self, key: &str) -> Result<Vec<u64>, JsonError> {
        let items = self.req_arr(key)?.iter();
        items
            .map(|v| v.as_u64())
            .collect::<Option<_>>()
            .ok_or_else(|| JsonError::new(format!("\"{key}\" holds a non-integer")))
    }

    /// A required array of strings.
    pub fn req_strs(&self, key: &str) -> Result<Vec<String>, JsonError> {
        let items = self.req_arr(key)?.iter();
        items
            .map(|v| v.as_str().map(str::to_string))
            .collect::<Option<_>>()
            .ok_or_else(|| JsonError::new(format!("\"{key}\" holds a non-string")))
    }
}

/// Where a [`JsonWriter`] puts whitespace. Private: schema code picks a
/// layout through the constructor, and no user-facing surface reaches it.
#[derive(Clone, Copy, PartialEq)]
enum Layout {
    /// No whitespace at all.
    Compact,
    /// The run manifest's file form: one top-level field per line, two
    /// spaces of indent, `": "` and `", "` everywhere below.
    Pretty,
    /// The manifest's single-line ledger form: [`Layout::Pretty`] with
    /// every line break replaced by one space.
    Inline,
}

/// Append-in-place JSON writer: no intermediate [`Json`] tree and no
/// per-value `String`. A value method writes one value where one is due
/// (after [`JsonWriter::key`], as an array element, or as the document);
/// separators, key quoting and string escaping are the writer's job, so
/// schema code cannot produce a malformed or unescaped document.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    layout: Layout,
    depth: u32,
    /// The next key or element needs a separator first.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    fn new(out: &'a mut String, layout: Layout) -> JsonWriter<'a> {
        JsonWriter {
            out,
            layout,
            depth: 0,
            comma: false,
        }
    }

    /// One document with no whitespace (every artefact but the manifest).
    pub fn compact(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter::new(out, Layout::Compact)
    }

    /// The run manifest's file layout (one top-level field per line).
    pub fn pretty(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter::new(out, Layout::Pretty)
    }

    /// The run manifest's single-line layout, as embedded in ledgers.
    pub fn inline(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter::new(out, Layout::Inline)
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push_str(match (self.layout, self.depth) {
                (Layout::Compact, _) => ",",
                (Layout::Pretty, 1) => ",\n  ",
                _ => ", ",
            });
        }
        self.comma = true;
    }

    fn open(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        if self.depth == 0 {
            self.out.push_str(match self.layout {
                Layout::Compact => "",
                Layout::Pretty => "\n  ",
                Layout::Inline => " ",
            });
        }
        self.depth += 1;
        self.comma = false;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.depth == 0 {
            self.out.push_str(match self.layout {
                Layout::Compact => "",
                Layout::Pretty => "\n",
                Layout::Inline => " ",
            });
        }
        self.out.push(bracket);
        self.comma = true;
    }

    /// An object whose members `fields` writes with [`JsonWriter::key`].
    pub fn obj(&mut self, fields: impl FnOnce(&mut Self)) {
        self.open('{');
        fields(self);
        self.close('}');
    }

    /// An array with one element per item, written by `element`.
    pub fn arr<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut element: impl FnMut(&mut Self, T),
    ) {
        self.open('[');
        for item in items {
            element(self, item);
        }
        self.close(']');
    }

    /// An object member's key; the next value method writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        self.quoted(key);
        self.out.push_str(if self.layout == Layout::Compact {
            ":"
        } else {
            ": "
        });
        self.comma = false;
        self
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        escape_into(s, self.out);
        self.out.push('"');
    }

    pub fn str(&mut self, v: &str) {
        self.separate();
        self.quoted(v);
    }

    pub fn u64(&mut self, v: u64) {
        self.separate();
        let _ = write!(self.out, "{v}");
    }

    pub fn bool(&mut self, v: bool) {
        self.raw(if v { "true" } else { "false" });
    }

    pub fn null(&mut self) {
        self.raw("null");
    }

    /// A float with shortest-round-trip precision — Rust's `Debug` form:
    /// `1e300`, `5e-324`, `-0.0`, scientific notation when shorter — so
    /// write → parse → write is a byte-level fixpoint
    /// and the parsed value is bit-exact. `Display` is deliberately not
    /// used: it expands extreme magnitudes positionally (`1e300` becomes
    /// a 301-digit integer). A non-finite value (a zero-wall-clock ratio,
    /// say) degrades to `0` so the document stays strictly JSON; rates
    /// should go through [`crate::rate::safe_rate`] long before that.
    pub fn f64(&mut self, v: f64) {
        self.separate();
        if v.is_finite() {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.out.push('0');
        }
    }

    /// A float with a fixed number of decimals (the outcome document's
    /// rounded `{:.4}`/`{:.6}`/`{:.8}` fields); non-finite degrades to `0`.
    pub fn fixed(&mut self, v: f64, decimals: usize) {
        self.separate();
        if v.is_finite() {
            let _ = write!(self.out, "{v:.decimals$}");
        } else {
            self.out.push('0');
        }
    }

    /// `null` for `None`, otherwise the value as `some` writes it.
    pub fn opt<T>(&mut self, v: Option<T>, some: impl FnOnce(&mut Self, T)) {
        match v {
            Some(v) => some(self, v),
            None => self.null(),
        }
    }

    /// Embed an already-rendered document (or literal) verbatim.
    pub fn raw(&mut self, doc: &str) {
        self.separate();
        self.out.push_str(doc);
    }
}

/// Append `s` with JSON string escaping: exactly the escapes the parser
/// understands — `\"`, `\\`, and `\uXXXX` for control characters;
/// everything else is copied verbatim.
fn escape_into(s: &str, out: &mut String) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Escaped bytes are ASCII, so `i` is a char boundary.
        out.push_str(&s[copied..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let v = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(v)
                                    .ok_or_else(|| self.err("bad \\u escape (surrogate)"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar (content bytes are
                    // copied verbatim).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if raw.is_empty() || raw == "-" || raw.parse::<f64>().is_err() {
            return Err(self.err("malformed number"));
        }
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x\ny"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert!(v.get("b").unwrap().get("c").unwrap().is_null());
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        // 2^63 + 1 is not representable in f64; the raw-text path must
        // preserve it.
        let v = Json::parse("{\"seed\": 9223372036854775809}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(9223372036854775809));
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        let x = 0.123_456_789_012_345_68_f64;
        let v = Json::parse(&format!("{{\"x\": {x}}}")).unwrap();
        assert_eq!(v.get("x").unwrap().as_f64().unwrap().to_bits(), x.to_bits());
    }

    fn written(f: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut out = String::new();
        f(&mut JsonWriter::compact(&mut out));
        out
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(written(|w| w.str("a\"b\\c\nd")), r#""a\"b\\c\u000ad""#);
        assert_eq!(written(|w| w.str("plain ✓")), "\"plain ✓\"");
        let s = "a \"b\" \\ c \u{0007} ✓";
        let doc = written(|w| w.obj(|w| w.key(s).str(s)));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get(s).unwrap().as_str(), Some(s));
    }

    #[test]
    fn extreme_floats_stay_short_and_bit_exact() {
        // Positional expansion of these is 300+ characters; the Debug
        // form is shortest-round-trip scientific notation.
        assert_eq!(written(|w| w.f64(1e300)), "1e300");
        assert_eq!(written(|w| w.f64(5e-324)), "5e-324"); // smallest subnormal
        assert_eq!(written(|w| w.f64(-0.0)), "-0.0");
        assert_eq!(written(|w| w.f64(1e16)), "1e16");
        for v in [1e300, 5e-324, -0.0, f64::MIN_POSITIVE, 1e16, -2.5e-11] {
            let s = written(|w| w.f64(v));
            assert!(s.len() <= 25, "{s} not shortest");
            let back = s.parse::<f64>().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
            // Byte-level fixpoint: write(parse(write(v))) == write(v).
            assert_eq!(written(|w| w.f64(back)), s);
        }
    }

    #[test]
    fn non_finite_floats_degrade_to_zero_and_options_to_null() {
        assert_eq!(written(|w| w.f64(f64::INFINITY)), "0");
        assert_eq!(written(|w| w.f64(f64::NAN)), "0");
        assert_eq!(written(|w| w.fixed(f64::NAN, 4)), "0");
        assert_eq!(written(|w| w.fixed(2.0 / 3.0, 4)), "0.6667");
        assert_eq!(written(|w| w.fixed(-0.0, 6)), "-0.000000");
        assert_eq!(written(|w| w.opt(None, JsonWriter::f64)), "null");
        assert_eq!(written(|w| w.opt(Some(2.5), JsonWriter::f64)), "2.5");
    }

    /// The same nested document in each of the three layouts.
    fn sample(w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.key("a").u64(1);
            w.key("b").obj(|w| {
                w.key("c").null();
                w.key("d").arr([true, false], |w, v| w.bool(v));
            });
            w.key("e").raw("{\"raw\":1}");
            w.key("f").arr([0u64; 0], |w, v| w.u64(v));
        });
    }

    #[test]
    fn the_three_layouts_differ_only_in_whitespace() {
        let mut compact = String::new();
        sample(&mut JsonWriter::compact(&mut compact));
        assert_eq!(
            compact,
            r#"{"a":1,"b":{"c":null,"d":[true,false]},"e":{"raw":1},"f":[]}"#
        );
        let mut pretty = String::new();
        sample(&mut JsonWriter::pretty(&mut pretty));
        assert_eq!(
            pretty,
            "{\n  \"a\": 1,\n  \"b\": {\"c\": null, \"d\": [true, false]},\n  \
             \"e\": {\"raw\":1},\n  \"f\": []\n}"
        );
        // The inline form is the pretty form with each line break (and its
        // indent) collapsed to one space — what ledgers have always held.
        let mut inline = String::new();
        sample(&mut JsonWriter::inline(&mut inline));
        let joined: Vec<&str> = pretty.lines().map(str::trim_start).collect();
        assert_eq!(inline, joined.join(" "));
        let v = Json::parse(&compact).unwrap();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert_eq!(Json::parse(&inline).unwrap(), v);
    }

    #[test]
    fn typed_access_names_the_key_and_the_type() {
        let v = Json::parse(r#"{"n":7,"big":4294967296,"s":"x","z":null,"f":1.5}"#).unwrap();
        assert_eq!(v.req_u64("n"), Ok(7));
        assert_eq!(v.req_u32("n"), Ok(7));
        assert_eq!(v.req_f64("n"), Ok(7.0));
        assert_eq!(v.req_str("s"), Ok("x"));
        assert_eq!(v.opt_u64("absent"), Ok(None));
        assert_eq!(v.opt_u64("z"), Ok(None));
        let err = v.req_u64("absent").unwrap_err();
        assert_eq!(err.message, "missing \"absent\"");
        assert!(v.req_u64("z").is_err(), "null is not a number");
        let err = v.req_u64("s").unwrap_err();
        assert_eq!(err.message, "\"s\" is not an unsigned integer");
        assert!(v.opt_u64("s").is_err(), "present but mistyped is an error");
        assert!(v.req_u64("f").is_err());
        assert!(v.req_u32("big").is_err());
        assert!(v.req_str("n").is_err());
        assert!(v.req_bool("n").is_err());
        assert!(v.req_arr("n").is_err());
        let arrays = Json::parse(r#"{"u":[1,2],"s":["a"],"mixed":[1,"a"]}"#).unwrap();
        assert_eq!(arrays.req_u64s("u"), Ok(vec![1, 2]));
        assert_eq!(arrays.req_strs("s"), Ok(vec!["a".to_string()]));
        assert!(arrays.req_u64s("mixed").is_err());
        assert!(arrays.req_strs("mixed").is_err());
        let map = Json::parse(r#"{"m":{"b":2,"a":1},"bad":{"a":"x"}}"#).unwrap();
        let pairs = map.opt_pairs("m", Json::as_u64).unwrap();
        assert_eq!(pairs, vec![("b".to_string(), 2), ("a".to_string(), 1)]);
        assert_eq!(map.opt_pairs("absent", Json::as_u64), Ok(Vec::new()));
        let err = map.opt_pairs("bad", Json::as_u64).unwrap_err();
        assert!(err.message.contains("bad \"a\""), "{err}");
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_repeated_key_is_a_parse_error() {
        let err = Json::parse(r#"{"a":1,"b":2,"a":3}"#).unwrap_err();
        assert!(err.message.contains("duplicate key \"a\""), "{err}");
        // Distinct objects may of course share key names.
        assert!(Json::parse(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn render_parse_is_identity() {
        let doc = r#"{"a":[1,2.5,-3e2,9223372036854775809],"b":{"c":null,"d":true},"e":"x\"y\\z"}"#;
        let v = Json::parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // Raw number text survives verbatim (u64 seeds stay exact).
        assert!(rendered.contains("9223372036854775809"));
        assert!(rendered.contains("-3e2"));
    }

    #[test]
    fn whitespace_tolerant() {
        let v = Json::parse(" \n\t{ \"a\" : [ ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 0);
        assert!(v.get("b").is_some());
    }
}
