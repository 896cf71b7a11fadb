//! The workspace's one JSON codec: a dependency-free value, strict
//! parser, and deterministic serializer.
//!
//! The offline rule (no crates.io; see `shims/README.md`) leaves no
//! `serde_json`, so this module hand-rolls JSON once, and every JSON
//! document the workspace writes — wire frames, journal lines, the
//! `results/*.json` artifacts, telemetry series, phase profiles — is a
//! [`Json`] value rendered here. Design points:
//!
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a
//!   map), so serialization is deterministic and frames are stable
//!   byte-for-byte — the property the resume journal and the CI
//!   byte-identity checks lean on. Duplicate keys are accepted by the
//!   parser (last one wins on lookup) but never produced.
//! * **Numbers keep their integer-ness.** A bare `u64` (cell seeds are
//!   full 64-bit values) must survive a round trip exactly, so numbers
//!   are stored as [`Num`] — `U64`/`I64` when the text is integral,
//!   `F64` otherwise — rather than forcing everything through `f64`.
//! * **Strict parsing**: trailing garbage, unterminated strings, bare
//!   control characters, and malformed escapes are errors with a byte
//!   offset, which is what the malformed-frame protocol tests pin. The
//!   [`field_u64`]-style readers and [`reject_unknown_keys`] carry the
//!   same strictness to schema level.

use std::fmt::Write as _;

/// A JSON number: integral values keep exact 64-bit representations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    /// A non-negative integer without fraction or exponent.
    U64(u64),
    /// A negative integer without fraction or exponent.
    I64(i64),
    /// Anything with a fraction or exponent (or out of integer range).
    F64(f64),
}

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see [`Num`]).
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `x` rounded to `decimals` places: the value a reader gets by
    /// parsing `x`'s fixed-point `{:.N}` text, so reported metrics keep
    /// the precision of the CSV columns beside them.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::from(format!("{x:.decimals$}").parse::<f64>().unwrap_or(x))
    }

    /// Looks up `key` in an object (last occurrence wins). `None` for
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(Num::U64(n)) => Some(*n),
            Json::Num(Num::I64(_)) | Json::Num(Num::F64(_)) => None,
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(Num::U64(n)) => Some(*n as f64),
            Json::Num(Num::I64(n)) => Some(*n as f64),
            Json::Num(Num::F64(x)) => Some(*x),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(Num::U64(n)) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(Num::I64(n)) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(Num::F64(x)) => {
                if x.is_finite() {
                    // `{:?}` is the shortest round-tripping form and
                    // always keeps a `.` or exponent, so the value
                    // reparses as F64 (never collapsing into U64).
                    let _ = write!(out, "{x:?}");
                } else {
                    // JSON has no NaN/Inf; the protocol never produces
                    // them, but don't emit invalid JSON if one appears.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value; the entire input must be consumed (aside
    /// from surrounding whitespace).
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Compact (no whitespace), deterministic serialization; `to_string()`
/// on a parsed value re-encodes it canonically.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(Num::U64(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(Num::U64(n as u64))
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(Num::F64(x))
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Rejects any key of `value` (when it is an object) not in `allowed`:
/// a field one side writes and the other silently drops is an error,
/// not a default.
pub fn reject_unknown_keys(value: &Json, allowed: &[&str]) -> Result<(), String> {
    if let Json::Obj(fields) = value {
        for (key, _) in fields {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown field {key:?}"));
            }
        }
    }
    Ok(())
}

/// The required non-negative integer field `key` of `value`.
pub fn field_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not a non-negative integer"))
}

/// The required bool field `key` of `value`.
pub fn field_bool(value: &Json, key: &str) -> Result<bool, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} is not a bool"))
}

/// The required string field `key` of `value`.
pub fn field_str(value: &Json, key: &str) -> Result<String, String> {
    Ok(value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))?
        .to_string())
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What was malformed.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Nesting depth cap: deep enough for any real frame, shallow enough
/// that a hostile `[[[[…` line cannot overflow the daemon's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening '"'
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&first) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8; find the char boundary).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .expect("input was a valid &str");
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    /// Reads four hex digits (after `\u`); leaves `pos` past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = (self.bytes[self.pos] as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("expected digit"));
        }
        // Leading zero may not be followed by more digits.
        let int_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.err("leading zero in number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if integral {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>() == Ok(0) {
                    // "-0" is integral zero.
                    return Ok(Json::Num(Num::I64(0)));
                }
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Json::Num(Num::I64(n)));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Num(Num::U64(n)));
            }
        }
        text.parse::<f64>()
            .map(|x| Json::Num(Num::F64(x)))
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("serialized JSON must reparse")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::from(0u64),
            Json::from(u64::MAX),
            Json::Num(Num::I64(-42)),
            Json::Num(Num::I64(i64::MIN)),
            Json::from(1.5),
            Json::from(-0.000001),
            Json::from(1e300),
            Json::from("hello"),
            Json::from("quote \" slash \\ newline \n tab \t nul \u{0} é 中 🦀"),
        ] {
            assert_eq!(round_trip(&v), v, "{v}");
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = 0x9E37_79B9_7F4A_7C15u64;
        let v = Json::from(seed);
        assert_eq!(v.to_string(), seed.to_string());
        assert_eq!(round_trip(&v).as_u64(), Some(seed));
    }

    #[test]
    fn f64_never_collapses_to_integer() {
        let v = Json::from(2.0);
        assert_eq!(v.to_string(), "2.0");
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn fixed_rounds_like_the_fixed_point_text() {
        assert_eq!(Json::fixed(0.5, 6).to_string(), "0.5");
        assert_eq!(Json::fixed(1.0 / 3.0, 6).to_string(), "0.333333");
        assert_eq!(Json::fixed(2.0, 3).to_string(), "2.0");
        let x = 0.123_456_789;
        assert_eq!(Json::fixed(x, 6).as_f64(), "0.123457".parse().ok());
        assert_eq!(Json::fixed(f64::NAN, 6).to_string(), "null");
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let v = Json::obj(vec![
            ("zeta", Json::from(1u64)),
            (
                "alpha",
                Json::Arr(vec![Json::Null, Json::from(true), Json::from("x")]),
            ),
            ("nested", Json::obj(vec![("k", Json::from(0.25))])),
        ]);
        let s = v.to_string();
        assert!(s.starts_with("{\"zeta\":1,\"alpha\":"), "{s}");
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn lookup_and_accessors() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":true,"d":[2],"e":3.5,"a":9}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(9), "last key wins");
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("d").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("e").and_then(Json::as_f64), Some(3.5));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_standard_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u0041\\u00e9\\ud83e\\udd80\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[1].as_str(),
            Some("Aé🦀")
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"truncated \\u00",
            "\"lone \\ud800 surrogate\"",
            "01",
            "1.",
            "1e",
            "--1",
            "nul",
            "truex",
            "[1] trailing",
            "\u{0}",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let e = Json::parse("{\"a\": nope}").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(e.to_string().contains("byte 6"));
    }
}
