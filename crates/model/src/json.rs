//! The workspace's one JSON codec.
//!
//! Every JSON artifact the pipeline writes or reads back goes through
//! this module: the write-ahead journal, trace records, corpus cases,
//! and the smell, SPOF, telemetry and dataset reports. It covers the
//! subset those writers emit: objects with insertion-ordered keys,
//! arrays, strings with the escape set of [`escape_into`], integers
//! (exact over `i64::MIN..=u64::MAX`), other numbers as `f64`,
//! booleans and `null`.
//!
//! One tokenizer, [`Cursor`], reads all of it. [`parse`] builds a
//! [`Json`] tree over it; a decoder on a hot read path (trace records)
//! pulls keys, strings and integers from it straight into its own
//! types, and so accepts exactly what [`parse`] accepts.
//!
//! Anything outside that subset is an error, not a lenient guess:
//! these files are machine-written, so leniency would only hide
//! corruption. No input makes [`parse`], a [`Cursor`] method or an
//! accessor panic; each returns `Err` with the byte offset or the key
//! at fault.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] and [`Cursor`] accept. The
/// pipeline's own documents nest fewer than ten levels; the bound keeps
/// hostile input from exhausting the stack.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal in `i64::MIN..=u64::MAX`, held exactly.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion (or source) key order.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(i128::from(n))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl Json {
    /// An object with `fields` in the given order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Object field lookup (the first field named `key`).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer in `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The field named `key`.
    ///
    /// # Errors
    ///
    /// Names `key` when this is not an object or lacks the field.
    pub fn need(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing field `{key}`"))
    }

    /// The field named `key`, as a `u64`.
    ///
    /// # Errors
    ///
    /// Names `key` when the field is missing or not a `u64`.
    pub fn need_u64(&self, key: &str) -> Result<u64, String> {
        self.need(key)?.as_u64().ok_or_else(|| format!("field `{key}` is not a u64"))
    }

    /// The field named `key`, as a string.
    ///
    /// # Errors
    ///
    /// Names `key` when the field is missing or not a string.
    pub fn need_str(&self, key: &str) -> Result<&str, String> {
        self.need(key)?.as_str().ok_or_else(|| format!("field `{key}` is not a string"))
    }

    /// The field named `key`, as an array.
    ///
    /// # Errors
    ///
    /// Names `key` when the field is missing or not an array.
    pub fn need_arr(&self, key: &str) -> Result<&[Json], String> {
        self.need(key)?.as_arr().ok_or_else(|| format!("field `{key}` is not an array"))
    }

    /// The field named `key`, as a bool.
    ///
    /// # Errors
    ///
    /// Names `key` when the field is missing or not a bool.
    pub fn need_bool(&self, key: &str) -> Result<bool, String> {
        self.need(key)?.as_bool().ok_or_else(|| format!("field `{key}` is not a bool"))
    }

    /// Appends the compact encoding (no whitespace, fields in order).
    /// Finite floats print in Rust's shortest round-trip form; a
    /// non-finite float, which JSON cannot spell, prints as `null`.
    pub fn encode(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) if f.is_finite() => {
                let _ = write!(out, "{f:?}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.encode(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, `\n`, `\t` and `\r` use their short escapes, and
/// the other control characters below U+0020 use `\u00XX`.
pub fn escape_into(s: &str, out: &mut String) {
    let _ = write_quoted(out, s);
}

/// `s` as a quoted JSON string, for `write!`-style writers; the same
/// bytes [`escape_into`] appends.
pub fn quoted(s: &str) -> impl fmt::Display + '_ {
    struct Quoted<'a>(&'a str);
    impl fmt::Display for Quoted<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write_quoted(f, self.0)
        }
    }
    Quoted(s)
}

fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // Fast path: nothing to escape. UTF-8 continuation bytes are
    // ≥ 0x80, so a byte scan is sound.
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.write_str(s)?;
    } else {
        write_escaped(out, s)?;
    }
    out.write_char('"')
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\t' => out.write_str("\\t")?,
            '\r' => out.write_str("\\r")?,
            c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c))?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Parses one complete JSON document into a [`Json`] tree: the tree
/// builder over [`Cursor`].
///
/// # Errors
///
/// Returns a message with the byte offset of the first violation:
/// malformed syntax, trailing bytes, nesting deeper than 64 levels, a
/// bad escape, or a number that does not parse.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut cur = Cursor::new(text);
    let value = tree(&mut cur)?;
    cur.finish()?;
    Ok(value)
}

fn tree(cur: &mut Cursor<'_>) -> Result<Json, String> {
    Ok(match cur.peek()? {
        Kind::Null => {
            cur.literal("null")?;
            Json::Null
        }
        Kind::Bool => Json::Bool(cur.bool()?),
        Kind::Number => cur.number()?,
        Kind::Str => Json::Str(cur.string()?.into_owned()),
        Kind::Array => {
            cur.array()?;
            let mut items = Vec::new();
            while cur.item()? {
                items.push(tree(cur)?);
            }
            Json::Arr(items)
        }
        Kind::Object => {
            cur.object()?;
            let mut fields = Vec::new();
            while let Some(key) = cur.key()? {
                fields.push((key.into_owned(), tree(cur)?));
            }
            Json::Obj(fields)
        }
    })
}

/// The type of the value a [`Cursor`] stands at, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull reader over one JSON document: the tokenizer [`parse`] builds
/// its tree with, for decoders that read straight into their own types.
///
/// Objects are read key by key ([`object`](Cursor::object), then
/// [`key`](Cursor::key) until `None`) and arrays item by item
/// ([`array`](Cursor::array), then [`item`](Cursor::item) until
/// `false`); after each key or item the caller reads exactly one value.
/// It accepts exactly what [`parse`] accepts, with the same number
/// rules and the same nesting bound, and [`skip`](Cursor::skip) checks a
/// value it passes over just as strictly. [`finish`](Cursor::finish)
/// rejects trailing bytes.
///
/// ```
/// use govdns_model::json::Cursor;
///
/// let mut cur = Cursor::new(r#"{"n":7,"tags":["a","b\n"],"x":null}"#);
/// cur.object().unwrap();
/// let mut seen = Vec::new();
/// while let Some(key) = cur.key().unwrap() {
///     match &*key {
///         "n" => assert_eq!(cur.as_u64().unwrap(), Some(7)),
///         "tags" => {
///             cur.array().unwrap();
///             while cur.item().unwrap() {
///                 seen.push(cur.as_str().unwrap().unwrap().into_owned());
///             }
///         }
///         _ => cur.skip().unwrap(),
///     }
/// }
/// cur.finish().unwrap();
/// assert_eq!(seen, ["a", "b\n"]);
/// ```
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects entered and not yet closed.
    depth: usize,
    /// An array or object was just entered, so the next [`Cursor::item`]
    /// or [`Cursor::key`] takes no separator and may find it empty.
    fresh: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0, depth: 0, fresh: false }
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it is next (after whitespace).
    #[inline]
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.byte() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", char::from(byte), self.pos))
        }
    }

    /// The type of the next value, which is not consumed.
    ///
    /// # Errors
    ///
    /// At the end of the input, or at a byte no value starts with.
    #[inline]
    pub fn peek(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(other) => Err(format!("unexpected {:?} at {}", char::from(other), self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    /// Reads one value of any type: its integer, if it is an integer
    /// literal in `u64` range (as [`Json::as_u64`] would say), and
    /// `None` otherwise.
    ///
    /// # Errors
    ///
    /// When the value is malformed.
    #[inline]
    pub fn as_u64(&mut self) -> Result<Option<u64>, String> {
        if self.peek()? != Kind::Number {
            self.skip()?;
            return Ok(None);
        }
        let (text, integral) = self.number_text()?;
        if !integral {
            return Ok(None);
        }
        Ok(match text.strip_prefix('-') {
            // `-0` is the integer 0; every other negative is out of range.
            Some(digits) => digits.bytes().all(|d| d == b'0').then_some(0),
            None => text
                .bytes()
                .try_fold(0u64, |n, d| n.checked_mul(10)?.checked_add(u64::from(d - b'0'))),
        })
    }

    /// Reads one value of any type: its text, if it is a string, and
    /// `None` otherwise. The text is borrowed from the input unless it
    /// holds an escape.
    ///
    /// # Errors
    ///
    /// When the value is malformed.
    #[inline]
    pub fn as_str(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if self.peek()? != Kind::Str {
            self.skip()?;
            return Ok(None);
        }
        self.string().map(Some)
    }

    /// Passes over one value of any type, checking it as strictly as
    /// [`parse`] would.
    ///
    /// # Errors
    ///
    /// When the value is malformed or nests deeper than 64 levels.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek()? {
            Kind::Null => self.literal("null"),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number_text().map(drop),
            Kind::Str => self.string().map(drop),
            Kind::Array => {
                self.array()?;
                while self.item()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.object()?;
                while self.key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// Enters the array the cursor stands at.
    ///
    /// # Errors
    ///
    /// When the next value is not an array, or the array would nest
    /// deeper than 64 levels.
    #[inline]
    pub fn array(&mut self) -> Result<(), String> {
        self.enter(b'[')
    }

    /// Enters the object the cursor stands at.
    ///
    /// # Errors
    ///
    /// When the next value is not an object, or the object would nest
    /// deeper than 64 levels.
    #[inline]
    pub fn object(&mut self) -> Result<(), String> {
        self.enter(b'{')
    }

    fn enter(&mut self, open: u8) -> Result<(), String> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH && self.byte() == Some(open) {
            return Err(format!("nesting deeper than {MAX_DEPTH} at {}", self.pos));
        }
        self.expect(open)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Consumes `close` if it is next, leaving the array or object.
    #[inline]
    fn close(&mut self, close: u8) -> bool {
        let hit = self.eat(close);
        self.depth -= usize::from(hit);
        hit
    }

    /// Within an array: whether another item follows (the caller then
    /// reads it). `false` means the array is closed.
    ///
    /// # Errors
    ///
    /// When neither `,` nor `]` follows an item.
    #[inline]
    pub fn item(&mut self) -> Result<bool, String> {
        let first = std::mem::take(&mut self.fresh);
        if self.close(b']') {
            Ok(false)
        } else if first || self.eat(b',') {
            Ok(true)
        } else {
            Err(format!("expected ',' or ']' at {}", self.pos))
        }
    }

    /// Within an object: the next key (the caller then reads its
    /// value), or `None` once the object is closed.
    ///
    /// # Errors
    ///
    /// When neither `,` nor `}` follows a value, or the key or its `:`
    /// is malformed.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        let first = std::mem::take(&mut self.fresh);
        if self.close(b'}') {
            return Ok(None);
        }
        if !first && !self.eat(b',') {
            return Err(format!("expected ',' or '}}' at {}", self.pos));
        }
        let key = self.string()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Checks that only whitespace is left.
    ///
    /// # Errors
    ///
    /// Names the offset of the first trailing byte.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {}", self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        self.skip_ws();
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit} at {}", self.pos))
        }
    }

    fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.byte() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Reads `-?digits(.digits)?([eE][+-]?digits)?`: the literal, and
    /// whether it is integral (no fraction, no exponent).
    fn number_text(&mut self) -> Result<(&'a str, bool), String> {
        self.skip_ws();
        let start = self.pos;
        let bad = |pos: usize| format!("bad number at {pos}");
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(bad(start));
        }
        let mut integral = true;
        if self.byte() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad(start));
            }
            integral = false;
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad(start));
            }
            integral = false;
        }
        // Every byte consumed above is ASCII, so the slice is on char
        // boundaries.
        Ok((&self.text[start..self.pos], integral))
    }

    /// A number: integer literals in `i64::MIN..=u64::MAX` become
    /// [`Json::Int`], everything else [`Json::Float`].
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let (text, integral) = self.number_text()?;
        if integral {
            let range = i128::from(i64::MIN)..=i128::from(u64::MAX);
            if let Some(n) = text.parse::<i128>().ok().filter(|n| range.contains(n)) {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| format!("bad number at {start}"))
    }

    /// A string, borrowed from the input when it holds no escape.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        let run = quote_or_backslash(rest).ok_or_else(|| "unterminated string".to_owned())?;
        let start = self.pos;
        self.pos += run;
        if rest[run] == b'"' {
            self.pos += 1;
            // The run ends before an ASCII `"`, so it is whole chars.
            return Ok(Cow::Borrowed(&self.text[start..start + run]));
        }
        self.escaped(start).map(Cow::Owned)
    }

    /// The rest of a string that holds an escape, from its opening
    /// quote at `start - 1`; the cursor stands at the first `\`. Runs
    /// start after `"` or a complete escape and end at `"` or `\`, all
    /// ASCII, so every slice of `text` taken here is on char
    /// boundaries.
    fn escaped(&mut self, start: usize) -> Result<String, String> {
        let text = self.text;
        let bytes = text.as_bytes();
        let mut out = String::from(&text[start..self.pos]);
        loop {
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            let escape_at = self.pos;
            let bad = || format!("bad escape at {escape_at}");
            match bytes.get(self.pos + 1) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'u') => {
                    let hex = bytes
                        .get(self.pos + 2..self.pos + 6)
                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                        .ok_or_else(bad)?;
                    let code = hex.iter().fold(0u32, |acc, &h| {
                        acc * 16 + char::from(h).to_digit(16).unwrap_or_default()
                    });
                    out.push(char::from_u32(code).ok_or_else(bad)?);
                    self.pos += 4;
                }
                _ => return Err(bad()),
            }
            self.pos += 2;
            let rest = bytes.get(self.pos..).unwrap_or_default();
            let run = quote_or_backslash(rest).ok_or_else(|| "unterminated string".to_owned())?;
            out.push_str(&text[self.pos..self.pos + run]);
            self.pos += run;
        }
    }
}

/// The index of the first `"` or `\` in `bytes`: the end of a string's
/// unescaped run.
fn quote_or_backslash(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'"' || b == b'\\')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_canonical_subset() {
        let doc = r#"{"a":1,"b":"x","c":[true,false,null],"d":{"e":2.5},"f":[],"g":-3}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_arr().unwrap()[0].as_bool(), Some(true));
        assert_eq!(v.get("d").unwrap().get("e"), Some(&Json::Float(2.5)));
        assert!(v.get("d").unwrap().get("e").unwrap().as_u64().is_none(), "2.5 is not integral");
        assert_eq!(v.get("g").unwrap().as_i64(), Some(-3));
        assert_eq!(v.get("g").unwrap().as_u64(), None);
        let mut out = String::new();
        v.encode(&mut out);
        assert_eq!(out, doc, "the canonical subset re-encodes byte-identically");
    }

    #[test]
    fn integer_extremes_round_trip_exactly() {
        for (value, text) in [
            (Json::from(u64::MAX), "18446744073709551615"),
            (Json::Int(i128::from(i64::MIN)), "-9223372036854775808"),
        ] {
            let mut out = String::new();
            value.encode(&mut out);
            assert_eq!(out, text);
            assert_eq!(parse(text).unwrap(), value);
        }
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap().as_i64(), Some(i64::MIN));
        // One past either end is no longer an exact integer.
        assert!(parse("18446744073709551616").unwrap().as_u64().is_none());
        assert!(parse("-9223372036854775809").unwrap().as_i64().is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g\u{1f}h/é";
        let mut doc = String::new();
        escape_into(nasty, &mut doc);
        assert_eq!(doc, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh/é\"");
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
        assert_eq!(quoted(nasty).to_string(), doc);
    }

    #[test]
    fn fast_path_output_equals_slow_path_output() {
        for s in ["", "portal.gov.zz", "ünïcødé ✓", "198.41.0.4", "round1 / begin"] {
            let mut fast = String::new();
            escape_into(s, &mut fast);
            let mut slow = String::from("\"");
            write_escaped(&mut slow, s).unwrap();
            slow.push('"');
            assert_eq!(fast, slow, "{s:?}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "{",
            "[1,]",
            "{}x",
            "\"abc",
            "",
            "-",
            "1.",
            "1e",
            "01x",
            "[nul]",
            "\"\\x\"",
            "\"\\u12",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "{\"a\" 1}",
            "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn skipping_accepts_exactly_what_parsing_accepts() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        for doc in [
            r#"{"a":1,"b":"x","c":[true,false,null],"d":{"e":2.5},"f":[],"g":-3}"#,
            " [ 1 , { } , [ ] , \"\\u00e9\" ] ",
            "{",
            "[1,]",
            "{}x",
            "\"abc",
            "",
            "1.",
            "01",
            "[nul]",
            "\"\\ud800\"",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{1:2}",
            &deep,
            &ok,
        ] {
            let mut cur = Cursor::new(doc);
            let skipped = cur.skip().and_then(|()| cur.finish());
            assert_eq!(skipped.is_ok(), parse(doc).is_ok(), "{doc:?}");
        }
    }

    #[test]
    fn cursor_reads_typed_values() {
        let doc = r#"["plain","esc\"aped",7,-0,-1,1.0,18446744073709551616,{"k":[1]},null]"#;
        let mut cur = Cursor::new(doc);
        cur.array().unwrap();
        let mut strs = Vec::new();
        for _ in 0..2 {
            assert!(cur.item().unwrap());
            strs.push(cur.as_str().unwrap().unwrap());
        }
        assert!(matches!(strs[0], Cow::Borrowed("plain")), "unescaped text is borrowed");
        assert_eq!(strs[1], "esc\"aped");
        let mut nums = Vec::new();
        while cur.item().unwrap() {
            nums.push(cur.as_u64().unwrap());
        }
        assert_eq!(nums, [Some(7), Some(0), None, None, None, None, None]);
        cur.finish().unwrap();
        let mut cur = Cursor::new("[1]");
        assert_eq!(cur.as_str(), Ok(None), "a non-string is skipped whole");
        cur.finish().unwrap();
    }

    #[test]
    fn field_accessors_name_the_key() {
        let v = parse(r#"{"n":1,"s":"x"}"#).unwrap();
        assert_eq!(v.need_u64("n"), Ok(1));
        assert_eq!(v.need_str("s"), Ok("x"));
        assert!(v.need("zz").unwrap_err().contains("`zz`"));
        assert!(v.need_str("n").unwrap_err().contains("`n`"));
        assert!(v.need_arr("s").unwrap_err().contains("`s`"));
        assert!(v.need_bool("n").unwrap_err().contains("`n`"));
        assert!(Json::Null.need_u64("n").is_err(), "a non-object has no fields");
    }
}
