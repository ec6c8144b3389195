//! Minimal JSON support: a syntax checker and a document parser.
//!
//! The exporters hand-roll their JSON (no serde in this workspace), so
//! the tests need an independent way to assert the output actually
//! parses ([`validate`]), and the durable files (job journal, result
//! cache) and the service protocol need to be read
//! back ([`parse`] / [`Value`]).
//!
//! * **Validate once.** [`validate`] is a strict recursive-descent
//!   checker of RFC 8259 syntax. It allocates nothing and reports the
//!   byte offset of the first error.
//! * **Build once.** [`parse`] runs [`validate`] once, then builds the
//!   tree in one more pass that never re-checks syntax: each container
//!   is walked once, and each escape-free run of a string is copied
//!   with one `push_str` into a buffer sized from the string's span.
//!   So `parse` accepts exactly what `validate` accepts and fails with
//!   exactly its error.
//! * **Depth limit.** Both passes recurse once per container, so
//!   nesting is capped at [`MAX_DEPTH`]. A deeper document fails with
//!   "nesting deeper than 128 at byte P" instead of overflowing the
//!   thread's stack: a hostile frame of brackets cannot abort a server.
//!   Every document this workspace writes nests fewer than 5 deep.

/// The deepest nesting of arrays and objects [`validate`] and
/// [`parse`] accept.
pub const MAX_DEPTH: usize = 128;

/// Validates that `s` is one complete JSON value (plus trailing
/// whitespace). Returns the byte offset and message of the first error.
pub fn validate(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail(pos: usize, what: &str) -> Result<(), String> {
    Err(format!("{what} at byte {pos}"))
}

/// One value, inside `depth` enclosing containers.
fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => object(b, pos, depth + 1),
        Some(b'[') => array(b, pos, depth + 1),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(_) => fail(*pos, "unexpected character"),
        None => fail(*pos, "unexpected end of input"),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        fail(*pos, "bad literal")
    }
}

fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return fail(*pos, "expected object key string");
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return fail(*pos, "expected ':'");
        }
        *pos += 1;
        value(b, pos, depth)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return fail(*pos, "expected ',' or '}'"),
        }
    }
}

fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        value(b, pos, depth)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return fail(*pos, "expected ',' or ']'"),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '"'
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
                                _ => return fail(*pos, "bad \\u escape"),
                            }
                        }
                    }
                    _ => return fail(*pos, "bad escape"),
                }
            }
            0x00..=0x1f => return fail(*pos, "raw control character in string"),
            _ => *pos += 1,
        }
    }
    fail(*pos, "unterminated string")
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(c) if c.is_ascii_digit() => {
            while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
                *pos += 1;
            }
        }
        _ => return fail(*pos, "bad number"),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return fail(*pos, "bad fraction");
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return fail(*pos, "bad exponent");
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    Ok(())
}

/// One parsed JSON value.
///
/// Numbers are kept as `f64` (integers up to 2^53 round-trip exactly,
/// which covers every quantity the durable files store; 64-bit digests are
/// serialized as hex *strings* for this reason).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Object members in document order (duplicate keys preserved).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses `s` into a [`Value`] tree. Accepts exactly the documents
/// [`validate`] accepts and fails with exactly its error.
pub fn parse(s: &str) -> Result<Value, String> {
    validate(s)?;
    Ok(build(s, &mut 0))
}

// The build pass walks a document `validate` has accepted, once, and
// never re-checks syntax: every container, string and number below is
// known to be well formed and nested at most `MAX_DEPTH` deep. Each
// step still reads through `get`, so even a broken invariant cannot
// panic.
fn build(s: &str, pos: &mut usize) -> Value {
    let b = s.as_bytes();
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Value::Null;
    };
    match c {
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Value::Obj(members);
            }
            loop {
                skip_ws(b, pos);
                let key = build_string(s, pos);
                skip_ws(b, pos);
                *pos += 1; // ':'
                members.push((key, build(s, pos)));
                skip_ws(b, pos);
                let sep = b.get(*pos).copied();
                *pos += 1; // ',' or '}'
                if sep != Some(b',') {
                    return Value::Obj(members);
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Value::Arr(items);
            }
            loop {
                items.push(build(s, pos));
                skip_ws(b, pos);
                let sep = b.get(*pos).copied();
                *pos += 1; // ',' or ']'
                if sep != Some(b',') {
                    return Value::Arr(items);
                }
            }
        }
        b'"' => Value::Str(build_string(s, pos)),
        b't' => {
            *pos += 4;
            Value::Bool(true)
        }
        b'f' => {
            *pos += 5;
            Value::Bool(false)
        }
        b'n' => {
            *pos += 4;
            Value::Null
        }
        _ => {
            let start = *pos;
            while matches!(
                b.get(*pos),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                *pos += 1;
            }
            // Rust's float syntax is a superset of JSON's, so a
            // validated number always parses.
            let n = s.get(start..*pos).and_then(|t| t.parse().ok());
            Value::Num(n.unwrap_or(f64::NAN))
        }
    }
}

/// Decodes the string whose opening quote is at `*pos`, leaving `*pos`
/// past its closing quote. The buffer is sized from the span, and each
/// escape-free run is copied with one `push_str`.
fn build_string(s: &str, pos: &mut usize) -> String {
    let b = s.as_bytes();
    let start = *pos + 1;
    let mut end = start;
    while let Some(&c) = b.get(end) {
        match c {
            b'"' => break,
            b'\\' => end += 2,
            _ => end += 1,
        }
    }
    *pos = end + 1;
    // Quotes and backslashes are ASCII, so every cut below falls on a
    // character boundary.
    let Some(mut rest) = s.get(start..end) else {
        return String::new();
    };
    let mut out = String::with_capacity(rest.len());
    while let Some(at) = rest.find('\\') {
        let (run, escape) = rest.split_at(at);
        out.push_str(run);
        let (c, len) = unescape(escape.as_bytes());
        out.push(c);
        rest = escape.get(len..).unwrap_or("");
    }
    out.push_str(rest);
    out
}

/// Decodes the escape at the start of `e` (a `\` and a validated
/// escape body): the character and the escape's length in bytes. A
/// `\u` high surrogate followed by a `\u` low surrogate is one
/// character; a lone surrogate decodes to U+FFFD.
fn unescape(e: &[u8]) -> (char, usize) {
    let c = match e.get(1) {
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'u') => {
            let code = hex4(e, 2).unwrap_or(0xfffd);
            if (0xd800..0xdc00).contains(&code) && e.get(6..8) == Some(b"\\u") {
                if let Some(low @ 0xdc00..0xe000) = hex4(e, 8) {
                    let pair = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    return (char::from_u32(pair).unwrap_or('\u{fffd}'), 12);
                }
            }
            return (char::from_u32(code).unwrap_or('\u{fffd}'), 6);
        }
        // '"', '\\' and '/' stand for themselves.
        Some(&c) => char::from(c),
        None => '\u{fffd}',
    };
    (c, 2)
}

/// The value of the four hex digits at `e[at..]`.
fn hex4(e: &[u8], at: usize) -> Option<u32> {
    e.get(at..at + 4)?
        .iter()
        .try_fold(0, |acc, &d| Some(acc * 16 + char::from(d).to_digit(16)?))
}

/// Escapes `s` for embedding in a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{escape, parse, validate, Value, MAX_DEPTH};

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+3",
            r#"{"a": [1, 2.5, "x\n", {"b": null}], "c": false}"#,
            "  { \"k\" : [ ] } \n",
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
            "{'a':1}",
            "{\"a\":1,}",
            "01",
            "\"unterminated",
            "[1] trailing",
            "{\"a\" 1}",
        ] {
            assert!(validate(doc).is_err(), "{doc:?} wrongly accepted");
        }
    }

    #[test]
    fn parse_builds_the_tree() {
        let v = parse(r#"{"a": [1, 2.5, "x\n"], "b": {"c": null, "d": true}}"#).expect("parses");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\n")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for doc in ["", "{", "[1,]", "{\"a\":}", "[1] trailing"] {
            assert!(parse(doc).is_err(), "{doc:?} wrongly parsed");
        }
    }

    #[test]
    fn parse_fails_with_validates_error() {
        for doc in [
            "",
            " ",
            "{",
            "[1,]",
            "{\"a\":}",
            "[1] trailing",
            "\"\\x\"",
            "[tru]",
        ] {
            assert_eq!(parse(doc).map(|_| ()), validate(doc), "{doc:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        let v = parse(r#"["\ud83d\ude00", "a\uD834\uDD1Eb"]"#).expect("parses");
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some("\u{1f600}"));
        assert_eq!(arr[1].as_str(), Some("a\u{1d11e}b"));
    }

    #[test]
    fn lone_surrogates_decode_to_the_replacement_character() {
        for (doc, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}\u{1f600}"),
        ] {
            assert_eq!(parse(doc).expect("parses").as_str(), Some(want), "{doc}");
        }
    }

    #[test]
    fn escapes_and_multibyte_runs_decode() {
        let v = parse(r#""\"\\\/\b\f\n\r\t\u00e9 日本 \u0000""#).expect("parses");
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\t\u{e9} 日本 \u{0}"));
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        validate(&ok).expect("MAX_DEPTH levels are accepted");
        parse(&ok).expect("and parsed");
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let want = format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}");
        assert_eq!(validate(&deep), Err(want.clone()));
        assert_eq!(parse(&deep), Err(want));
        // Far deeper than any stack could recurse: still an error.
        let hostile = "[{\"a\":".repeat(200_000);
        assert!(validate(&hostile)
            .unwrap_err()
            .starts_with("nesting deeper than"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("plain.path"), "plain.path");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1} é 日本";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        validate(&doc).expect("escaped doc is valid");
        let v = parse(&doc).expect("parses");
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn numbers_round_trip_exactly_up_to_2_53() {
        let doc = "[0, 9007199254740992, -3, 0.5]";
        let v = parse(doc).expect("parses");
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(0));
        assert_eq!(arr[1].as_u64(), Some(9007199254740992));
        assert_eq!(arr[2].as_f64(), Some(-3.0));
        assert_eq!(arr[3].as_u64(), None, "fractions are not u64s");
    }
}
