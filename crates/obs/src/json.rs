//! One strict JSON reader, and the string quoting the writers share.
//!
//! The repository reads three JSON formats of its own: trace files
//! (`maicc_serve::trace`), the harness report `BENCH_results.json`
//! (`bench_diff`) and this crate's interval stream, one document per
//! line (`soak_diff`). [`parse`] reads any of them into a [`Value`]; what
//! the fields mean stays with the code that owns each format.
//!
//! The reader accepts RFC 8259 and nothing else: one value with only
//! whitespace around it, every number form (`-0`, `1.5`, `1e3`, …),
//! and strings whose escapes and `\u` surrogate pairs are well formed.
//! It refuses leading zeros, trailing commas, raw control characters in
//! strings, lone surrogates, and arrays or objects nested more than 128
//! deep (RFC 8259 §9 lets a reader bound nesting; the bound keeps
//! hostile input from exhausting the stack). An [`Error`] gives the
//! byte offset where reading stopped.
//!
//! Numbers keep their source text, so [`Value::as_u64`] is exact: it
//! refuses `-1`, `1.5`, `1e3` and anything above `u64::MAX`, while
//! [`Value::as_f64`] reads any number. When an object repeats a key,
//! [`Value::get`] returns the last one.

use std::fmt;

/// Arrays and objects nest at most this deep.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text.
    Number(String),
    /// A string, with its escapes resolved.
    String(String),
    /// An array's elements, in document order.
    Array(Vec<Value>),
    /// An object's members, in document order, repeated keys included.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object; the last one when the key repeats.
    /// `None` when `self` is not an object or has no such member.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number written as a non-negative integer (no sign, fraction or
    /// exponent) that fits in a `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }

    /// Any number, rounded to the nearest `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// A string's contents.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// An array's elements.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a document was refused, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    offset: usize,
    reason: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for Error {}

/// Reads one JSON document.
///
/// # Errors
///
/// Returns an [`Error`] at the first byte that breaks RFC 8259, or
/// at the first byte after the value that is not whitespace.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut r = Reader { text, pos: 0 };
    let value = r.value(0)?;
    r.skip_ws();
    if r.pos < text.len() {
        return Err(r.err("trailing characters after the value"));
    }
    Ok(value)
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and the control
/// characters escaped (`\n`, `\t` and `\r` by name, the rest as
/// `\u00XX`) and everything else verbatim.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A cursor over one document.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, reason: &'static str) -> Error {
        Error {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// One value; `depth` arrays and objects enclose it.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.err("nested more than 128 deep")),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:`"));
            }
            members.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("expected a value"))
        }
    }

    /// Skips a run of digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.err("expected a digit"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.err("expected a digit after `.`"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // a run of bytes that stand for themselves; it ends on an
            // ASCII byte, so both ends are char boundaries
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character an escape stands for; the `\` is consumed.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let high = self.hex4()?;
                if !(0xD800..0xDC00).contains(&high) {
                    return char::from_u32(high).ok_or_else(|| self.err("lone low surrogate"));
                }
                if !(self.eat(b'\\') && self.eat(b'u')) {
                    return Err(self.err("high surrogate without a low one"));
                }
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.err("high surrogate without a low one"));
                }
                let code = 0x1_0000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid code point"));
            }
            _ => return Err(self.err("unknown escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("expected four hex digits after `\\u`"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn num(text: &str) -> Value {
        Value::Number(text.into())
    }

    #[test]
    fn reads_every_value_kind() {
        let v = parse(r#" {"a": [null, true, false, -0, 1.5e-3, "xé"], "b": {}} "#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[..3], [Value::Null, Value::Bool(true), Value::Bool(false)]);
        assert_eq!(a[3], num("-0"));
        assert_eq!(a[4].as_f64(), Some(0.0015));
        assert_eq!(a[5].as_str(), Some("x\u{e9}"));
        assert_eq!(v.get("b"), Some(&Value::Object(Vec::new())));
        assert_eq!(parse("7").unwrap(), num("7"));
    }

    #[test]
    fn integers_are_exact_and_strict() {
        assert_eq!(num("18446744073709551615").as_u64(), Some(u64::MAX));
        for not_u64 in ["18446744073709551616", "-1", "-0", "1.5", "1e3", "1.0"] {
            assert_eq!(num(not_u64).as_u64(), None, "{not_u64}");
            assert!(num(not_u64).as_f64().is_some(), "{not_u64}");
        }
        assert_eq!(parse("\"5\"").unwrap().as_u64(), None);
    }

    #[test]
    fn the_last_repeated_key_wins() {
        let v = parse(r#"{"k": 1, "other": 2, "k": 3}"#).unwrap();
        assert_eq!(v.get("k"), Some(&num("3")));
        assert_eq!(v.get("absent"), None);
        assert_eq!(num("1").get("k"), None);
    }

    #[test]
    fn escapes_and_surrogate_pairs_resolve() {
        let v = parse(r#""\"\\\/\b\f\n\r\t\u001b\u00e9\ud83d\ude00日本""#).unwrap();
        assert_eq!(
            v.as_str(),
            Some("\"\\/\u{8}\u{c}\n\r\t\u{1b}\u{e9}\u{1f600}日本")
        );
    }

    #[test]
    fn non_json_is_refused_where_it_breaks() {
        for (bad, offset) in [
            ("", 0),
            ("  ", 2),
            ("[1, x]", 4),
            ("[1,]", 3),
            ("{\"a\": 1,}", 8),
            ("{\"a\" 1}", 5),
            ("{1: 2}", 1),
            ("01", 1),
            ("+1", 0),
            (".5", 0),
            ("1.", 2),
            ("-", 1),
            ("1e", 2),
            ("1e+", 3),
            ("NaN", 0),
            ("tru", 0),
            ("{} {}", 3),
            ("\"a\nb\"", 2),
            ("\"abc", 4),
            (r#""\x""#, 2),
            (r#""\u12""#, 5),
            (r#""\ud800x""#, 7),
            (r#""\ud800\u0041""#, 13),
            (r#""\udc00""#, 7),
        ] {
            let err = parse(bad).expect_err(bad);
            assert_eq!(err.offset, offset, "`{bad}`: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn quote_escapes_what_json_requires() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(
            quote("a\"b\\c\nd\te\rf\u{1}g\u{7f}é"),
            "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\u{7f}é\""
        );
    }

    proptest! {
        /// Any string survives `quote` and `parse`.
        #[test]
        fn prop_quote_round_trips(codes in proptest::collection::vec(0u32..0x11_0000, 0..24)) {
            let s: String = codes.into_iter().filter_map(char::from_u32).collect();
            prop_assert_eq!(parse(&quote(&s)).unwrap(), Value::String(s));
        }
    }
}
