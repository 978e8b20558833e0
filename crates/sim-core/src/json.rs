//! Minimal JSON helpers: string escaping for emitters, a strict syntax
//! validator for smoke tests, and a small value parser for tools that must
//! read their own emitted documents back.
//!
//! The workspace is std-only (no serde), so trace writers hand-roll their
//! JSON. [`escape_into`]/[`escaped`] implement RFC 8259 string escaping,
//! [`validate`] is a small recursive-descent syntax checker used by tests and
//! `tools/tier1.sh` to prove emitted trace files parse without shelling out
//! to an external JSON tool, and [`parse`] materializes a document into a
//! [`Value`] tree (used e.g. by `benchdiff` to read the benchmark's result
//! lines and `BENCHMARK.json`, and by the scenario-file loader).

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

/// Why a document failed [`validate`].
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

/// Maximum nesting depth [`validate`] accepts before giving up; deep enough
/// for any trace file we emit, shallow enough to never blow the stack.
const MAX_DEPTH: usize = 256;

/// Check that `s` is one syntactically valid JSON document (with nothing but
/// whitespace after it). Values are not materialized — this is a syntax
/// check, not a parser.
pub fn validate(s: &str) -> Result<(), JsonError> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(())
}

fn err(at: usize, message: &str) -> JsonError {
    JsonError { at, message: message.to_string() }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), JsonError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => object(b, pos, depth),
        Some(b'[') => array(b, pos, depth),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
        Some(_) => Err(err(*pos, "expected a JSON value")),
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &[u8]) -> Result<(), JsonError> {
    if b[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(())
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), JsonError> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key string"));
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after object key"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), JsonError> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), JsonError> {
    *pos += 1; // consume opening '"'
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(err(*pos, "bad \\u escape")),
                            }
                        }
                    }
                    _ => return Err(err(*pos, "bad escape sequence")),
                }
            }
            c if c < 0x20 => return Err(err(*pos, "raw control character in string")),
            _ => *pos += 1,
        }
    }
    Err(err(*pos, "unterminated string"))
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(err(*pos, "expected digits in number"));
    }
    // JSON forbids leading zeros on multi-digit integer parts.
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return Err(err(int_start, "leading zero in number"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(err(*pos, "expected digits after decimal point"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(err(*pos, "expected digits in exponent"));
        }
    }
    debug_assert!(*pos > start);
    Ok(())
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

/// Parse one JSON document into a [`Value`] tree. Accepts exactly the
/// grammar [`validate`] accepts (same depth cap, same strictness); `\uXXXX`
/// escapes are decoded, including surrogate pairs.
pub fn parse(s: &str) -> Result<Value, JsonError> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    let v = pvalue(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(v)
}

fn pvalue(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => pobject(b, pos, depth),
        Some(b'[') => parray(b, pos, depth),
        Some(b'"') => pstring(b, pos).map(Value::String),
        Some(b't') => literal(b, pos, b"true").map(|()| Value::Bool(true)),
        Some(b'f') => literal(b, pos, b"false").map(|()| Value::Bool(false)),
        Some(b'n') => literal(b, pos, b"null").map(|()| Value::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => pnumber(b, pos),
        Some(_) => Err(err(*pos, "expected a JSON value")),
    }
}

fn pobject(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    let mut pairs = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(pairs));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key string"));
        }
        let key = pstring(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after object key"));
        }
        *pos += 1;
        skip_ws(b, pos);
        pairs.push((key, pvalue(b, pos, depth + 1)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn parray(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(pvalue(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let mut code = 0u32;
    for _ in 0..4 {
        match b.get(*pos) {
            Some(h) if h.is_ascii_hexdigit() => {
                code = code * 16 + (*h as char).to_digit(16).expect("hex digit");
                *pos += 1;
            }
            _ => return Err(err(*pos, "bad \\u escape")),
        }
    }
    Ok(code)
}

fn pstring(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    let mut out = String::new();
    *pos += 1; // consume opening '"'
    let mut run_start = *pos;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                out.push_str(str_run(b, run_start, *pos)?);
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(str_run(b, run_start, *pos)?);
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = hex4(b, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: require the paired \uXXXX low half.
                            if b.get(*pos) != Some(&b'\\') || b.get(*pos + 1) != Some(&b'u') {
                                return Err(err(*pos, "unpaired surrogate in \\u escape"));
                            }
                            *pos += 2;
                            let lo = hex4(b, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(err(*pos, "invalid low surrogate in \\u escape"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(err(*pos, "unpaired surrogate in \\u escape"));
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(ch) => out.push(ch),
                            None => return Err(err(*pos, "invalid \\u code point")),
                        }
                        run_start = *pos;
                        continue;
                    }
                    _ => return Err(err(*pos, "bad escape sequence")),
                }
                *pos += 1;
                run_start = *pos;
            }
            c if c < 0x20 => return Err(err(*pos, "raw control character in string")),
            _ => *pos += 1,
        }
    }
    Err(err(*pos, "unterminated string"))
}

/// Slice the unescaped byte run `[start, end)` as UTF-8.
fn str_run(b: &[u8], start: usize, end: usize) -> Result<&str, JsonError> {
    std::str::from_utf8(&b[start..end]).map_err(|_| err(start, "invalid UTF-8 in string"))
}

fn pnumber(b: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    number(b, pos)?;
    let text = std::str::from_utf8(&b[start..*pos]).expect("number bytes are ASCII");
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| err(start, "number out of range"))
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
        ] {
            assert!(validate(doc).is_err(), "{doc:?} wrongly accepted");
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
        for bad in [r#""\ud834""#, r#""\ud834A""#, r#""\udd1e""#] {
            assert!(parse(bad).is_err(), "{bad:?} wrongly accepted");
        }
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for doc in ["", "{", "[1,]", "{\"a\":}", "01", "1.", "[1] trailing"] {
            assert!(parse(doc).is_err(), "{doc:?} wrongly accepted");
        }
    }

    #[test]
    fn parse_round_trips_escaped_strings() {
        let nasty = "quote\" slash\\ newline\n ctrl\u{02} unicode \u{2603}";
        let doc = format!("{{\"k\":\"{}\"}}", escaped(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }
}
