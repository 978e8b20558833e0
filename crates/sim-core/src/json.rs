//! Minimal JSON helpers: string escaping for emitters, and one strict
//! recursive descent that either checks a document or materializes it.
//!
//! The workspace is std-only (no serde), so trace writers hand-roll their
//! JSON. [`escape_into`]/[`escaped`] implement RFC 8259 string escaping.
//! [`validate`] checks a document without building anything: the trace
//! binary checks every document it writes with it, at up to ~90 MB.
//! [`parse`] materializes a document into a [`Value`] tree (used e.g. by
//! `benchdiff` to read the benchmark's result lines and `BENCHMARK.json`,
//! and by the scenario-file loader). Both run the same descent, so they
//! accept exactly the same documents.

/// Append `s` to `out` with JSON string escaping applied (no surrounding
/// quotes). Escapes `"`, `\`, and all control characters below U+0020.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// [`escape_into`] returning a fresh `String` (still without quotes).
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Why a document failed [`validate`] or [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum nesting depth accepted before giving up; deep enough for any
/// trace file we emit, shallow enough to never blow the stack.
const MAX_DEPTH: usize = 256;

/// Check that `s` is one syntactically valid JSON document (with nothing but
/// whitespace after it). Runs [`parse`]'s descent with value keeping off, so
/// it accepts exactly the documents `parse` accepts but builds nothing: its
/// memory stays flat however large the document.
pub fn validate(s: &str) -> Result<(), JsonError> {
    Descent::<false>::run(s).map(drop)
}

/// A materialized JSON value, produced by [`parse`].
///
/// Objects keep their key order as a `Vec` of pairs (no hashing, duplicate
/// keys preserved) — plenty for the small config/result documents this
/// workspace reads back, and deterministic to re-emit.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// `[ ... ]`.
    Array(Vec<Value>),
    /// `{ ... }`, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up `key` in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number payload, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse one JSON document into a [`Value`] tree. Strict RFC 8259 grammar
/// with a nesting cap; `\uXXXX` escapes are decoded, and a surrogate must
/// come as a high/low pair. [`validate`] runs the same descent.
pub fn parse(s: &str) -> Result<Value, JsonError> {
    Descent::<true>::run(s)
}

fn err(at: usize, message: &str) -> JsonError {
    JsonError { at, message: message.to_string() }
}

/// The one recursive descent behind [`validate`] and [`parse`]. With `KEEP`
/// off it checks every byte the same way (escapes and surrogate pairs
/// included) but allocates nothing: strings and containers come back
/// empty, numbers as `null`.
struct Descent<'a, const KEEP: bool> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl<const KEEP: bool> Descent<'_, KEEP> {
    fn run(s: &str) -> Result<Value, JsonError> {
        let mut d = Descent::<KEEP> { s, b: s.as_bytes(), pos: 0 };
        d.skip_ws();
        let v = d.value(0)?;
        d.skip_ws();
        if d.pos != d.b.len() {
            return Err(err(d.pos, "trailing characters after document"));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(err(self.pos, "nesting too deep"));
        }
        match self.b.get(self.pos) {
            None => Err(err(self.pos, "unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal(b"true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal(b"false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal(b"null").map(|()| Value::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(err(self.pos, "expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), JsonError> {
        if self.b[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(err(self.pos, "invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // consume '{'
        self.skip_ws();
        let mut pairs = Vec::new();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b'"') {
                return Err(err(self.pos, "expected object key string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b':') {
                return Err(err(self.pos, "expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            Self::keep(&mut pairs, (key, value));
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(err(self.pos, "expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // consume '['
        self.skip_ws();
        let mut items = Vec::new();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            let item = self.value(depth + 1)?;
            Self::keep(&mut items, item);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(err(self.pos, "expected ',' or ']' in array")),
            }
        }
    }

    /// Pushes `value` when values are kept. Otherwise it is forgotten:
    /// nothing in it was allocated, and skipping its drop keeps [`validate`]
    /// close to the speed of a bare scan on ~90 MB traces.
    fn keep<T>(into: &mut Vec<T>, value: T) {
        if KEEP {
            into.push(value);
        } else {
            std::mem::forget(value);
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.pos += 1; // consume opening '"'
        loop {
            let rest = &self.b[self.pos..];
            let Some(run) = rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            else {
                self.pos = self.b.len();
                return Err(err(self.pos, "unterminated string"));
            };
            // The run ends at an ASCII byte, so the slice is on char boundaries.
            if KEEP {
                out.push_str(&self.s[self.pos..self.pos + run]);
            }
            self.pos += run;
            match self.b[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let ch = self.escape()?;
                    if KEEP {
                        out.push(ch);
                    }
                }
                _ => return Err(err(self.pos, "raw control character in string")),
            }
        }
    }

    /// Decodes the escape at the backslash under `pos`, leaving `pos` after it.
    fn escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // consume the backslash
        let ch = match self.b.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(err(self.pos, "bad escape sequence")),
        };
        self.pos += 1;
        Ok(ch)
    }

    /// Decodes the hex digits of a `\uXXXX` escape, and its low half when
    /// the first is a high surrogate.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.b.get(self.pos) != Some(&b'\\') || self.b.get(self.pos + 1) != Some(&b'u') {
                return Err(err(self.pos, "unpaired surrogate in \\u escape"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(err(self.pos, "invalid low surrogate in \\u escape"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else if (0xDC00..0xE000).contains(&hi) {
            return Err(err(self.pos, "unpaired surrogate in \\u escape"));
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| err(self.pos, "invalid \\u code point"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            match self.b.get(self.pos).and_then(|&h| (h as char).to_digit(16)) {
                Some(digit) => {
                    code = code * 16 + digit;
                    self.pos += 1;
                }
                None => return Err(err(self.pos, "bad \\u escape")),
            }
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        self.digits();
        if self.pos == int_start {
            return Err(err(self.pos, "expected digits in number"));
        }
        // JSON forbids leading zeros on multi-digit integer parts.
        if self.b[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(err(int_start, "leading zero in number"));
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            self.digits();
            if self.pos == frac_start {
                return Err(err(self.pos, "expected digits after decimal point"));
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            self.digits();
            if self.pos == exp_start {
                return Err(err(self.pos, "expected digits in exponent"));
            }
        }
        if !KEEP {
            return Ok(Value::Null);
        }
        // Rust's float syntax contains JSON's, and out-of-range magnitudes
        // round to infinity, so every number the checks above pass converts.
        let n = self.s[start..self.pos].parse().expect("a JSON number is a valid f64 literal");
        Ok(Value::Number(n))
    }

    fn digits(&mut self) {
        while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escaped(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escaped(r"a\b"), r"a\\b");
        assert_eq!(escaped("a\nb\tc"), r"a\nb\tc");
        assert_eq!(escaped("\u{01}"), "\\u0001");
        assert_eq!(escaped("plain"), "plain");
    }

    #[test]
    fn escaped_strings_validate() {
        let nasty = "quote\" slash\\ newline\n ctrl\u{02} unicode \u{2603}";
        let doc = format!("{{\"k\":\"{}\"}}", escaped(nasty));
        validate(&doc).expect("escaped output must be valid JSON");
    }

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e-3",
            "0",
            r#"{"a":[1,2,{"b":null}],"c":"x"}"#,
            "  [ 1 , 2 ]  ",
            r#""é""#,
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\x\"",
            "[1] trailing",
            "\"raw\ncontrol\"",
            // Lone surrogates name no character.
            r#""\ud834""#,
            r#""\udd1e""#,
            r#""\ud834A""#,
            r#""\ud834\u0041""#,
        ] {
            assert!(validate(doc).is_err(), "{doc:?} wrongly accepted");
            assert!(parse(doc).is_err(), "{doc:?} wrongly parsed");
        }
    }

    #[test]
    fn depth_cap_rejects_pathological_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(validate(&deep).is_err());
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn parse_materializes_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,{"b":null}],"c":"x","d":true}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].get("b"), Some(&Value::Null));
        // Missing keys and wrong-type accessors are all None.
        assert_eq!(v.get("zzz"), None);
        assert_eq!(v.get("a").and_then(Value::as_str), None);
    }

    #[test]
    fn parse_decodes_escapes_and_surrogate_pairs() {
        let v = parse(r#""q\" b\\ n\n snow\u2603 clef\ud834\udd1e raw☃""#).unwrap();
        assert_eq!(v.as_str(), Some("q\" b\\ n\n snow\u{2603} clef\u{1d11e} raw\u{2603}"));
    }

    #[test]
    fn parse_round_trips_escaped_strings() {
        let nasty = "quote\" slash\\ newline\n ctrl\u{02} unicode \u{2603}";
        let doc = format!("{{\"k\":\"{}\"}}", escaped(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }
}
