//! A minimal JSON value, parser and compact serializer.
//!
//! The persistence logs, the serving wire protocol and the oracle
//! fixtures are all JSON, and the build environment has no crates.io
//! access, so — in the same spirit as the workspace's `shims/` — this
//! module carries the workspace's one small, std-only JSON
//! implementation instead of depending on `serde`. It supports the full
//! JSON grammar (objects, arrays, strings with escapes incl. `\uXXXX`
//! surrogate pairs, numbers, booleans, null). Integer-shaped numbers
//! (no fraction, no exponent) are held losslessly as [`Json::Int`], so
//! `u64` counters round-trip bit-exactly all the way to `u64::MAX`;
//! everything else is an [`Json::Num`] `f64`. The two compare equal
//! when they denote the same value, so `42` parses interchangeably.

use std::collections::BTreeMap;
use std::fmt;

/// The smallest integer magnitude at which `f64` can no longer
/// represent every integer (2⁵³). An integral `f64` at or beyond this
/// may have been silently rounded, so [`Json::as_u64`] rejects it.
const F64_EXACT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so without a bound one wire line of
/// brackets overflows the stack; deeper input is a [`JsonError`]. No
/// document this workspace writes comes near it.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer-shaped number, held losslessly. `i128` covers the
    /// full `u64` and `i64` ranges.
    Int(i128),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps serialization deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Builds a number value from a `u64`, losslessly: the value is
    /// stored as [`Json::Int`] and round-trips bit-exactly through the
    /// serializer and parser for the full `u64` range.
    pub fn u64(n: u64) -> Json {
        Json::Int(n as i128)
    }

    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number. Integers beyond 2⁵³
    /// lose precision in the conversion; use [`Json::as_u64`] when the
    /// value must be exact.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a non-negative integer (rejects fractions,
    /// negatives and non-numbers). An integral `f64` at or above 2⁵³
    /// is rejected too: such a value may have been rounded on the way
    /// in, so treating it as exact would launder corruption.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(n)
                if n.is_finite() && *n >= 0.0 && n.fract() == 0.0 && *n < F64_EXACT_LIMIT =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace) — one line, suitable for the
    /// JSON-lines wire format.
    pub fn to_line(&self) -> String {
        self.to_string()
    }
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            // `42` may be held either way depending on whether it came
            // from the parser or `Json::num`; the two are the same
            // JSON value, so equality bridges the representations.
            (Json::Int(i), Json::Num(n)) | (Json::Num(n), Json::Int(i)) => int_eq_num(*i, *n),
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

fn int_eq_num(i: i128, n: f64) -> bool {
    // Truncation (`as i128`) is only meaningful for integral values
    // inside i128's range; anything else can't equal an Int. The upper
    // bound is strict because `i128::MAX as f64` rounds up to 2¹²⁷,
    // which is itself out of range.
    n.is_finite()
        && n.fract() == 0.0
        && n >= i128::MIN as f64
        && n < i128::MAX as f64
        && n as i128 == i
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) => {
                if n.is_finite() && n.fract() == 0.0 && n.abs() < 9.0e18 {
                    write!(f, "{}", *n as i64)
                } else if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; the protocol never produces
                    // them, but degrade safely rather than emit garbage.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A JSON parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first violation.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
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
                _ => return Err(self.err("expected `,` or `]`")),
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            // hex4 advanced past the digits; compensate
                            // for the unconditional advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut integer_shaped = true;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            integer_shaped = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer_shaped = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // Integer-shaped text parses losslessly; an integer too large
        // even for i128 degrades to f64 like any other JSON reader.
        if integer_shaped {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = Json::obj([
            ("type", Json::str("lift")),
            ("id", Json::str("r-1")),
            ("nums", Json::Arr(vec![Json::u64(0), Json::u64(42), Json::Num(-1.5)])),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
        ]);
        let line = doc.to_line();
        assert_eq!(parse(&line).unwrap(), doc);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#"{"s":"a\"b\\c\nd\u0041\u00e9 ✓"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\ndAé ✓");
        // Surrogate pair: U+1F600.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
        // Serializer escapes control characters back out, and passes
        // plain text and non-ASCII through.
        assert_eq!(Json::str("a\nb\u{1}").to_line(), "\"a\\nb\\u0001\"");
        assert_eq!(Json::str("plain-name_9").to_line(), "\"plain-name_9\"");
        assert_eq!(Json::str("a\"b\\c").to_line(), "\"a\\\"b\\\\c\"");
        assert_eq!(Json::str("a\nb\rc\td").to_line(), "\"a\\nb\\rc\\td\"");
        assert_eq!(Json::str("x\u{1}y\u{1f}z").to_line(), "\"x\\u0001y\\u001fz\"");
        assert_eq!(Json::str("unicode é ✓").to_line(), "\"unicode é ✓\"");
    }

    #[test]
    fn numbers_integer_and_float() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parse("-3").unwrap().as_u64(), None, "negatives are not u64");
        assert_eq!(parse("1.5").unwrap().as_u64(), None, "fractions are not u64");
        assert_eq!(parse("2e3").unwrap().as_f64(), Some(2000.0));
        assert_eq!(Json::u64(123).to_line(), "123");
        assert_eq!(Json::Num(1.25).to_line(), "1.25");
    }

    #[test]
    fn u64_roundtrips_bit_exactly() {
        // The four acceptance-criteria values, plus neighbors that a
        // f64-routed path would collapse onto each other.
        for n in [
            0u64,
            1,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let line = Json::u64(n).to_line();
            assert_eq!(line, n.to_string(), "serializes as the decimal digits");
            assert_eq!(parse(&line).unwrap().as_u64(), Some(n), "round-trips {n}");
        }
    }

    #[test]
    fn as_u64_rejects_imprecise_f64() {
        // 2^53 as f64 is exactly representable, but an *original* of
        // 2^53 + 1 rounds to the same bits — the value is ambiguous, so
        // the precise accessor refuses it.
        assert_eq!(Json::Num(9_007_199_254_740_992.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42), "small integral f64 is exact");
        assert_eq!(Json::Num(f64::NAN).as_u64(), None);
    }

    #[test]
    fn int_and_num_compare_as_values() {
        assert_eq!(parse("42").unwrap(), Json::num(42.0));
        assert_eq!(Json::num(42.0), parse("42").unwrap());
        assert_ne!(parse("9007199254740993").unwrap(), Json::Num(9_007_199_254_740_992.0));
        assert_ne!(parse("42").unwrap(), Json::num(42.5));
        // Huge integers beyond i128 degrade to f64 instead of failing.
        assert!(matches!(parse("1e40").unwrap(), Json::Num(_)));
        assert!(matches!(
            parse("170141183460469231731687303715884105728").unwrap(),
            Json::Num(_)
        ));
        assert_eq!(parse("-9223372036854775808").unwrap().as_f64(), Some(-9.223372036854776e18));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2", "{'a':1}",
            "\"\\u12\"", "\"\\ud800x\"",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn nesting_is_bounded_without_recursing_past_the_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.pos, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Far deeper than any stack could recurse: still a typed error.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
        let mixed = format!("{}1{}", "[{\"k\":".repeat(64), "}]".repeat(64));
        assert!(parse(&mixed).is_ok(), "128 levels of mixed nesting parse");
    }

    #[test]
    fn object_member_access() {
        let v = parse(r#"{"a":{"b":[1,2]}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().get("b").unwrap().as_arr().unwrap().len(),
            2
        );
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("a").is_none());
    }
}
