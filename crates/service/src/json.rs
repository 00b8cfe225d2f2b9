//! A minimal JSON value: parser and string escaping.
//!
//! The build image has no registry access (so no `serde`); this module
//! implements exactly what the line-delimited wire protocol needs — full
//! RFC 8259 parsing of one value per line (objects, arrays, strings with
//! escapes incl. `\uXXXX` surrogate pairs, numbers, booleans, null) and
//! string escaping for emission. Numbers are held as `f64`, which is
//! exact for every id and counter the protocol carries (< 2^53); the one
//! 64-bit payload (the result fingerprint) travels as a hex *string* for
//! that reason.

use std::fmt;

/// Maximum container nesting depth [`Json::parse`] accepts.
///
/// The parser recurses once per `[`/`{` level, so without a bound a
/// 16 MiB request line of `[[[[…` would overflow the parsing thread's
/// stack — an abort, not a catchable error, taking a shared listener
/// thread with it. 64 levels is far beyond anything the wire protocol
/// emits (its messages nest 3 deep) while keeping recursion trivially
/// stack-safe; deeper input is a parse *error* and the connection
/// survives.
pub const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved, duplicate keys keep the last.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses exactly one JSON value (surrounded by optional whitespace).
    /// Containers may nest at most [`MAX_DEPTH`] levels deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes after JSON value at offset {pos}"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (last duplicate wins); `None` for
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    ///
    /// The bound is strictly below `2^53` (matching the emitter): at
    /// `2^53` and above, distinct written integers collapse to the same
    /// `f64` during parsing (e.g. `9007199254740993` rounds to `2^53`),
    /// so "exactly" can no longer be promised.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => Some(*n as u64),
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
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at offset {}", byte as char, *pos))
    }
}

/// `depth` is the remaining nesting allowance: each container consumes
/// one level on the way down, and opening one with no allowance left is
/// an error — the recursion is therefore bounded at [`MAX_DEPTH`] frames
/// regardless of input length.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == 0 && matches!(bytes.get(*pos), Some(b'{') | Some(b'[')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth - 1),
        Some(b'[') => parse_array(bytes, pos, depth - 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
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
                        let unit = parse_hex4(bytes, pos)?;
                        // Combine a UTF-16 surrogate pair when present. A
                        // lone or mispaired surrogate becomes U+FFFD — and
                        // a high surrogate followed by a \u escape that is
                        // NOT a low surrogate must not consume it (and
                        // must not overflow the pair arithmetic).
                        let ch = if (0xD800..0xDC00).contains(&unit) {
                            let next_is_low = bytes.get(*pos) == Some(&b'\\')
                                && bytes.get(*pos + 1) == Some(&b'u')
                                && bytes
                                    .get(*pos + 2..*pos + 6)
                                    .and_then(|s| std::str::from_utf8(s).ok())
                                    .and_then(|s| u16::from_str_radix(s, 16).ok())
                                    .is_some_and(|low| (0xDC00..0xE000).contains(&low));
                            if next_is_low {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                let combined = 0x10000
                                    + ((unit as u32 - 0xD800) << 10)
                                    + (low as u32 - 0xDC00);
                                char::from_u32(combined).unwrap_or('\u{FFFD}')
                            } else {
                                '\u{FFFD}'
                            }
                        } else {
                            char::from_u32(unit as u32).unwrap_or('\u{FFFD}')
                        };
                        out.push(ch);
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            // Multi-byte UTF-8 passes through: re-slice at the char
            // boundary so the String stays valid.
            _ if b < 0x80 => out.push(b as char),
            _ => {
                let start = *pos - 1;
                let len = utf8_len(b)?;
                let end = start + len;
                let slice = bytes
                    .get(start..end)
                    .ok_or_else(|| "truncated UTF-8 sequence".to_string())?;
                let s = std::str::from_utf8(slice).map_err(|e| e.to_string())?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

fn utf8_len(first: u8) -> Result<usize, String> {
    match first {
        0xC0..=0xDF => Ok(2),
        0xE0..=0xEF => Ok(3),
        0xF0..=0xF7 => Ok(4),
        _ => Err("bad UTF-8 lead byte".to_string()),
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u16, String> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let text = std::str::from_utf8(slice).map_err(|e| e.to_string())?;
    let unit = u16::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape `{text}`"))?;
    *pos += 4;
    Ok(unit)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at offset {start}"))
}

/// Escapes `s` for embedding in a JSON string literal (quotes not
/// included). Control characters use `\u00XX`; everything else passes
/// through as UTF-8.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for Json {
    /// Serializes the value back to compact JSON (numbers via Rust's
    /// shortest-round-trip `{:?}` float format).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                // `-0.0` goes out as `{n:?}`: the integer form drops its
                // sign, and the result cache keys angles by bit pattern.
                let negative_zero = *n == 0.0 && n.is_sign_negative();
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) && !negative_zero {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n:?}")
                }
            }
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
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
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_objects() {
        let v = Json::parse(r#"{"op":"submit","job":17,"ok":true,"x":null}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("job").and_then(Json::as_u64), Some(17));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn as_u64_bound_is_strictly_below_2_pow_53() {
        // 2^53 - 1 is the largest integer every neighbor of which is
        // still exactly representable; it must be accepted.
        let max_exact = (1u64 << 53) - 1;
        let v = Json::parse(&format!("{{\"n\":{max_exact}}}")).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(max_exact));

        // At 2^53 exactness breaks down: 9007199254740993 parses to the
        // same f64 as 9007199254740992, so both must be rejected (the
        // emitter already refuses to write integers this large).
        for written in ["9007199254740992", "9007199254740993"] {
            let v = Json::parse(&format!("{{\"n\":{written}}}")).unwrap();
            assert_eq!(v.get("n").and_then(Json::as_u64), None, "{written}");
            // The value is still reachable as a float.
            assert_eq!(v.get("n").and_then(Json::as_f64), Some(2f64.powi(53)));
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let source = "line1\nline2\t\"quoted\" back\\slash \u{1F600} é";
        let literal = format!("\"{}\"", escape(source));
        let parsed = Json::parse(&literal).unwrap();
        assert_eq!(parsed.as_str(), Some(source));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9""#).unwrap().as_str(),
            Some("Aé")
        );
        // Surrogate pair → one astral char.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
        // Lone surrogate → replacement char, not a panic.
        assert_eq!(
            Json::parse(r#""\ud83d x""#).unwrap().as_str(),
            Some("\u{FFFD} x")
        );
        // High surrogate followed by a non-low \u escape: the second
        // escape decodes on its own (and the pair arithmetic must not
        // overflow — this input used to panic debug builds).
        assert_eq!(
            Json::parse(r#""\ud800A""#).unwrap().as_str(),
            Some("\u{FFFD}A")
        );
        // Two high surrogates in a row: two replacement chars.
        assert_eq!(
            Json::parse(r#""\ud800\ud800""#).unwrap().as_str(),
            Some("\u{FFFD}\u{FFFD}")
        );
        // The escape-form crash case: the pair arithmetic must treat
        // \u0041 as its own character, never as a low surrogate.
        assert_eq!(
            Json::parse(r#""\ud800\u0041""#).unwrap().as_str(),
            Some("\u{FFFD}A")
        );
    }

    #[test]
    fn numbers_arrays_and_nesting() {
        let v = Json::parse(r#"{"a":[1, -2.5, 1e3], "b":{"c":0.125}}"#).unwrap();
        let Json::Arr(items) = v.get("a").unwrap() else {
            panic!("array expected")
        };
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_f64(), Some(1000.0));
        assert_eq!(
            v.get("b").unwrap().get("c").and_then(Json::as_f64),
            Some(0.125)
        );
        // Non-integers and negatives are not u64s.
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "[1,",
            "\"unterminated",
            "tru",
            "{} trailing",
            "{\"a\":1,}",
            "nan",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        // Exactly MAX_DEPTH levels parse…
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        // …one more is a parse error, not a stack overflow.
        let over = format!(
            "{}0{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = Json::parse(&over).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Objects count against the same budget.
        let obj_over = format!(
            "{}0{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&obj_over).unwrap_err().contains("nesting"));
        // The attack shape: megabytes of `[` must error fast — this
        // used to recurse once per byte and kill the thread.
        let bomb = "[".repeat(4 * 1024 * 1024);
        assert!(Json::parse(&bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = Json::Num(-0.0).to_string();
        let back = Json::parse(&text).unwrap().as_f64().unwrap();
        assert!(back == 0.0 && back.is_sign_negative(), "{text}");
        assert_eq!(Json::Num(0.0).to_string(), "0");
    }

    #[test]
    fn display_round_trips() {
        let text = r#"{"op":"submit","n":3,"f":0.5,"s":"a\nb","arr":[true,null]}"#;
        let v = Json::parse(text).unwrap();
        let re = Json::parse(&format!("{v}")).unwrap();
        assert_eq!(v, re);
    }
}
