//! A minimal deterministic JSON value model, writer, parser, and an
//! allocation-free checker ([`check`]) that accepts exactly what [`parse`] does.
//!
//! Telemetry blobs must be byte-identical across runs and platforms, so the
//! codec is intentionally narrow: objects, arrays, strings (no escapes
//! beyond `\"` and `\\`), unsigned 64-bit integers, booleans, and — for the
//! service wire API — 64-bit floats. Keys are written in the order the
//! caller supplies them; [`crate::JsonProbe`] supplies them sorted.
//!
//! Floats render in Rust's shortest-roundtrip decimal form (always with a
//! `.` or exponent so they re-parse as floats, never as integers), which
//! makes `parse(render(v)) == v` hold **bit-exactly** — the property the
//! versioned wire types (`TbResult`, `SweepRequest`) pin in tests. The
//! non-finite values have no JSON spelling, so the writer emits the
//! conventional extended tokens `NaN`, `Infinity`, and `-Infinity` (the
//! same extension Python's `json` module uses), and the parser accepts
//! them.

use std::fmt;

/// A JSON value in the subset the telemetry codec uses.
///
/// Equality is **bit-exact**: two [`Json::F64`] values compare equal iff
/// their IEEE-754 bit patterns do (so `NaN == NaN` here, and `0.0 != -0.0`)
/// — the right notion for a codec whose contract is byte-identical
/// round-trips, and the reason this type implements `PartialEq` manually
/// instead of deriving it.
#[derive(Debug, Clone)]
pub enum Json {
    /// An unsigned integer (the only number kind telemetry emits).
    U64(u64),
    /// A double-precision float (used by the service wire types; rendered
    /// in shortest-roundtrip form, always distinguishable from [`Json::U64`]
    /// by a `.`, exponent, or non-finite token).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep the order they were inserted in.
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Json::U64(a), Json::U64(b)) => a == b,
            (Json::F64(a), Json::F64(b)) => a.to_bits() == b.to_bits(),
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl Json {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The float value: a [`Json::F64`] as-is, or a [`Json::U64`] converted
    /// (clients may legitimately write `3` where the schema says float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Decodes an array of integers under `key` of an object.
    pub fn u64_array(&self, key: &str) -> Option<Vec<u64>> {
        self.get(key)?.as_arr()?.iter().map(Json::as_u64).collect()
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::U64(n) => {
                use fmt::Write;
                write!(out, "{n}").expect("write to String");
            }
            Json::F64(x) => write_f64(out, *x),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `x` in shortest-roundtrip decimal form. A finite value always
/// carries a `.` (or an exponent the formatter chose), so the parser maps
/// it back to [`Json::F64`] rather than [`Json::U64`]; non-finite values
/// use the extended `NaN` / `Infinity` / `-Infinity` tokens.
fn write_f64(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
        return;
    }
    if x.is_infinite() {
        out.push_str(if x > 0.0 { "Infinity" } else { "-Infinity" });
        return;
    }
    use fmt::Write;
    let start = out.len();
    write!(out, "{x}").expect("write to String");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builds an array of integers.
pub fn u64_array(vals: &[u64]) -> Json {
    Json::Arr(vals.iter().map(|&v| Json::U64(v)).collect())
}

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What the parser expected.
    pub expected: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: expected {}",
            self.at, self.expected
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a string in the telemetry JSON subset.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first byte that does not fit the
/// subset grammar (including trailing garbage after the value).
pub fn parse(s: &str) -> Result<Json, JsonError> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            at: pos,
            expected: "end of input",
        });
    }
    Ok(v)
}

/// Checks that `s` is one value in the telemetry JSON subset, accepting
/// and rejecting exactly what [`parse`] does (with the same error), but
/// without building the value: nothing is allocated. The result store
/// validates every stored line this way.
///
/// # Errors
///
/// Returns the [`JsonError`] that [`parse`] would return for `s`.
pub fn check(s: &str) -> Result<(), JsonError> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    check_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            at: pos,
            expected: "end of input",
        });
    }
    Ok(())
}

/// [`parse_value`] without the tree: containers and strings are walked in
/// place, and scalars, which own no heap memory, are parsed and dropped.
fn check_value(b: &[u8], pos: &mut usize) -> Result<(), JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => walk_obj(
            b,
            pos,
            |b, pos| scan_str(b, pos, None),
            |(), b, pos| check_value(b, pos),
        ),
        Some(b'[') => walk_arr(b, pos, check_value),
        Some(b'"') => scan_str(b, pos, None),
        _ => parse_value(b, pos).map(drop),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_str(b, pos)?)),
        Some(b't') => parse_word(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_word(b, pos, "false", Json::Bool(false)),
        Some(b'N') => parse_word(b, pos, "NaN", Json::F64(f64::NAN)),
        Some(b'I') => parse_word(b, pos, "Infinity", Json::F64(f64::INFINITY)),
        Some(b'-') if b.get(*pos + 1) == Some(&b'I') => {
            *pos += 1;
            parse_word(b, pos, "Infinity", Json::F64(f64::NEG_INFINITY))
        }
        Some(b'-') => parse_num(b, pos),
        Some(c) if c.is_ascii_digit() => parse_num(b, pos),
        _ => Err(JsonError {
            at: *pos,
            expected: "a value",
        }),
    }
}

/// Consumes the literal `word`, yielding `value`.
fn parse_word(
    b: &[u8],
    pos: &mut usize,
    word: &'static str,
    value: Json,
) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError {
            at: *pos,
            expected: "a value",
        })
    }
}

/// Parses a number: a plain run of digits is a [`Json::U64`]; anything
/// carrying a sign, decimal point, or exponent is a [`Json::F64`].
fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut seen_digit = false;
    let mut float = *pos > start; // a leading '-' forces the float path
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => seen_digit = true,
            b'.' | b'e' | b'E' | b'+' => float = true,
            b'-' if float => {} // exponent sign, e.g. 1e-3
            _ => break,
        }
        *pos += 1;
    }
    if !seen_digit {
        return Err(JsonError {
            at: start,
            expected: "a number",
        });
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| JsonError {
        at: start,
        expected: "an ASCII number",
    })?;
    if float {
        return text.parse::<f64>().map(Json::F64).map_err(|_| JsonError {
            at: start,
            expected: "a float",
        });
    }
    text.parse::<u64>().map(Json::U64).map_err(|_| JsonError {
        at: start,
        expected: "an integer fitting u64",
    })
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    let mut out = String::new();
    scan_str(b, pos, Some(&mut out))?;
    Ok(out)
}

/// Consumes the string starting at the opening quote at `pos`, appending
/// its decoded contents to `out` when given.
fn scan_str(b: &[u8], pos: &mut usize, mut out: Option<&mut String>) -> Result<(), JsonError> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    loop {
        // A run of plain characters, up to the next quote or backslash. Both
        // are ASCII, so the run of a `&str`'s bytes is itself a `&str`.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .unwrap_or(b.len() - *pos);
        if let Some(out) = out.as_deref_mut() {
            out.push_str(
                std::str::from_utf8(&b[*pos..*pos + run])
                    .expect("a run between ASCII delimiters of a str is UTF-8"),
            );
        }
        *pos += run;
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(_) => {
                // A backslash.
                *pos += 1;
                let c = match b.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            expected: "an escaped quote or backslash",
                        })
                    }
                };
                if let Some(out) = out.as_deref_mut() {
                    out.push(c);
                }
                *pos += 1;
            }
            None => {
                return Err(JsonError {
                    at: *pos,
                    expected: "a closing quote",
                })
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let mut items = Vec::new();
    walk_arr(b, pos, |b, pos| {
        items.push(parse_value(b, pos)?);
        Ok(())
    })?;
    Ok(Json::Arr(items))
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let mut pairs = Vec::new();
    walk_obj(b, pos, parse_str, |key, b, pos| {
        pairs.push((key, parse_value(b, pos)?));
        Ok(())
    })?;
    Ok(Json::Obj(pairs))
}

/// Walks the array whose `[` is at `pos`, handing each element's position
/// to `item`, which consumes the element.
fn walk_arr(
    b: &[u8],
    pos: &mut usize,
    mut item: impl FnMut(&[u8], &mut usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        item(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    expected: "',' or ']'",
                })
            }
        }
    }
}

/// Walks the object whose `{` is at `pos`: `key` consumes each key string
/// from its opening quote, and `value` consumes the value that follows
/// the `:`, given what `key` returned.
fn walk_obj<K>(
    b: &[u8],
    pos: &mut usize,
    key: impl Fn(&[u8], &mut usize) -> Result<K, JsonError>,
    mut value: impl FnMut(K, &[u8], &mut usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(JsonError {
                at: *pos,
                expected: "a key string",
            });
        }
        let k = key(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(JsonError {
                at: *pos,
                expected: "':'",
            });
        }
        *pos += 1;
        value(k, b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    expected: "',' or '}'",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_value() {
        let v = Json::Obj(vec![
            ("a".into(), Json::U64(7)),
            ("b".into(), u64_array(&[1, 2, 3])),
            (
                "c".into(),
                Json::Obj(vec![("s".into(), Json::Str("x\"y\\z".into()))]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let s = v.render();
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn rendering_is_compact_and_ordered() {
        let v = Json::Obj(vec![("b".into(), Json::U64(1)), ("a".into(), Json::U64(2))]);
        assert_eq!(v.render(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn parses_whitespace_tolerant() {
        let v = parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.u64_array("k"), Some(vec![1, 2]));
    }

    #[test]
    fn u64_max_roundtrips_exactly() {
        let s = Json::U64(u64::MAX).render();
        assert_eq!(parse(&s).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_overflow_and_garbage() {
        assert!(parse("18446744073709551616").is_err()); // u64::MAX + 1
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("").is_err());
        assert!(parse("truth").is_err());
        assert!(parse("1.2.3").is_err());
        assert!(parse("-").is_err());
        assert!(parse("Inf").is_err());
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::MAX,
            f64::MIN,
            1e-300,
            6.25,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let rendered = Json::F64(x).render();
            let back = parse(&rendered).unwrap_or_else(|e| panic!("{rendered}: {e}"));
            assert_eq!(back, Json::F64(x), "{rendered}");
            // Render → parse → render is a fixed point (byte-identical).
            assert_eq!(back.render(), rendered);
        }
    }

    #[test]
    fn finite_floats_never_collide_with_integers() {
        // A whole-valued float renders with a trailing `.0`, so the parser
        // can always reconstruct which variant wrote it.
        assert_eq!(Json::F64(7.0).render(), "7.0");
        assert_eq!(parse("7.0").unwrap(), Json::F64(7.0));
        assert_eq!(parse("7").unwrap(), Json::U64(7));
        assert_eq!(Json::F64(-0.0).render(), "-0.0");
        assert_ne!(parse("-0.0").unwrap(), Json::F64(0.0), "signed zero kept");
    }

    #[test]
    fn bools_and_negative_numbers_parse() {
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(parse("-1").unwrap(), Json::F64(-1.0));
        assert_eq!(parse("1e-3").unwrap(), Json::F64(1e-3));
        assert_eq!(parse("2.5e10").unwrap(), Json::F64(2.5e10));
        // Integer-typed schema slots tolerate float-typed zero from clients.
        assert_eq!(parse("3").unwrap().as_f64(), Some(3.0));
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n":3,"arr":[1],"s":"hi"}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("missing"), None);
        assert!(v.get("arr").unwrap().as_arr().is_some());
        assert_eq!(v.get("s").unwrap().as_u64(), None);
    }
}
