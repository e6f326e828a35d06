//! Minimal JSON writer/parser.
//!
//! The build environment cannot fetch `serde_json`, and run reports are
//! simple trees of numbers and strings, so this module hand-rolls exactly
//! what [`RunReport`](crate::report::RunReport) needs: a [`Json`] value
//! type, a deterministic writer (object keys keep insertion order), and a
//! recursive-descent parser for the round trip.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer, emitted without a decimal point.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion-ordered pairs (no duplicate-key handling).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload, accepting integral floats (parsers may widen).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) if v >= 0 => Some(v as u64),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// Numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(*v, out),
            Json::Str(s) => write_escaped(s, out),
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
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses a JSON document (must be a single value, whole input).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(input, &mut pos)?;
        skip_ws(input.as_bytes(), &mut pos);
        if pos != input.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl std::fmt::Display for Json {
    /// Compact (single-line) JSON serialization.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = v.to_string();
    out.push_str(&s);
    // Keep floats recognizably floats so the round trip preserves typing
    // where it matters for readers (integral floats parse back as U64,
    // which as_f64/as_u64 both accept).
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, pos))
    }
}

// The parser walks `src` by byte offset. Every offset it stops at follows
// an ASCII byte (or is 0), so it is a char boundary and `src` can be sliced
// there.

fn parse_value(src: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(src, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(src, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(src, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(src, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(src, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(src: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = src.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Everything up to the next quote or backslash is copied as is, in
        // one piece: both delimiters are ASCII, so the run ends on a char
        // boundary.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&src[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        let escape = *pos;
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000c}'),
            Some(b'u') => {
                let cp = parse_hex4(bytes, *pos + 1)?;
                *pos += 4;
                let ch = if (0xd800..0xdc00).contains(&cp) {
                    // A high surrogate is only valid followed by an escaped
                    // low surrogate.
                    let lo = match bytes.get(*pos + 1..*pos + 3) {
                        Some(b"\\u") => parse_hex4(bytes, *pos + 3)?,
                        _ => return Err(format!("unpaired surrogate at byte {escape}")),
                    };
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(format!("unpaired surrogate at byte {escape}"));
                    }
                    *pos += 6;
                    char::from_u32(0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00))
                } else {
                    // `None` for a lone low surrogate.
                    char::from_u32(cp)
                };
                out.push(ch.ok_or_else(|| format!("invalid \\u escape at byte {escape}"))?);
            }
            _ => return Err(format!("bad escape at byte {escape}")),
        }
        *pos += 1;
    }
}

/// The four hex digits of a `\u` escape starting at byte `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes
        .get(at..at + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
    digits.iter().try_fold(0, |acc, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        Ok(acc << 4 | digit)
    })
}

fn parse_number(src: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = &src[start..*pos];
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(v) = stripped.parse::<u64>() {
                if v <= i64::MAX as u64 {
                    return Ok(Json::I64(-(v as i64)));
                }
            }
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|e| format!("invalid number {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::U64(0)),
            ("18446744073709551615", Json::U64(u64::MAX)),
            ("-42", Json::I64(-42)),
            ("1.5", Json::F64(1.5)),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value, "{text}");
            assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = Json::Str("a \"quote\"\nnewline\ttab \\slash unicode: λ∞".to_string());
        assert_eq!(Json::parse(&s.to_string()).unwrap(), s);
        let ctrl = Json::Str("\u{0001}\u{001f}".to_string());
        assert_eq!(Json::parse(&ctrl.to_string()).unwrap(), ctrl);
    }

    #[test]
    fn multibyte_text_beside_escapes_round_trips() {
        let s = Json::Str("λ\"∞\\😀\n\u{1}é\t\"".to_string());
        assert_eq!(Json::parse(&s.to_string()).unwrap(), s);
        assert_eq!(
            Json::parse(r#""aλ\/b∞é""#).unwrap(),
            Json::Str("aλ/b∞é".to_string())
        );
    }

    #[test]
    fn surrogates_must_pair() {
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1f600}".to_string())
        );
        for unpaired in [
            r#""\ud800\u0041""#,
            r#""\ud800\ue000""#,
            r#""\udc00""#,
            r#""\ud800x""#,
            r#""\ud800"#,
        ] {
            let err = Json::parse(unpaired).unwrap_err();
            assert!(err.contains("at byte 1"), "{unpaired}: {err}");
        }
        assert!(Json::parse(r#""\u+041""#).is_err());
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("fig8".into())),
            (
                "values".into(),
                Json::Arr(vec![Json::U64(1), Json::F64(2.25), Json::Null]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_pretty_string()).unwrap(), v);
    }

    #[test]
    fn integral_floats_emit_with_decimal_point() {
        assert_eq!(Json::F64(3.0).to_string(), "3.0");
        // ...and parse back as a number readable through both accessors.
        let back = Json::parse("3.0").unwrap();
        assert_eq!(back.as_f64(), Some(3.0));
        assert_eq!(back.as_u64(), Some(3));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nulL").is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 1, "b": [2, 3], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert!(v.get("missing").is_none());
    }
}
