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
//! Anything outside that subset is an error, not a lenient guess:
//! these files are machine-written, so leniency would only hide
//! corruption. No input makes [`parse`] or an accessor panic; each
//! returns `Err` with the byte offset or the key at fault.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. The pipeline's own
/// documents nest fewer than ten levels; the bound keeps hostile input
/// from exhausting the stack.
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

/// Parses one complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first violation:
/// malformed syntax, trailing bytes, nesting deeper than 64 levels, a
/// bad escape, or a number that does not parse.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    reader.skip_ws();
    if reader.pos != text.len() {
        return Err(format!("trailing bytes at {}", reader.pos));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", char::from(byte), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at {}", self.pos))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!("unexpected {:?} at {}", char::from(other), self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected {lit} at {}", self.pos))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-?digits(.digits)?([eE][+-]?digits)?`: integer literals in
    /// `i64::MIN..=u64::MAX` become [`Json::Int`], everything else
    /// [`Json::Float`].
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let bad = |pos: usize| format!("bad number at {pos}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(bad(start));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad(start));
            }
            integral = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad(start));
            }
            integral = false;
        }
        // Every byte consumed above is ASCII, so the slice is on char
        // boundaries.
        let text = &self.text[start..self.pos];
        if integral {
            let range = i128::from(i64::MIN)..=i128::from(u64::MAX);
            if let Some(n) = text.parse::<i128>().ok().filter(|n| range.contains(n)) {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| bad(start))
    }

    /// Scans whole unescaped runs at a time rather than char by char.
    /// Runs start after `"` or a complete escape and end at `"` or `\`,
    /// all ASCII, so every slice of `text` taken here is on char
    /// boundaries.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            let rest = bytes.get(self.pos..).unwrap_or_default();
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_owned())?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
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
        }
    }
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
