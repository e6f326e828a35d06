//! The one JSON codec: every file the repo writes or reads — run reports,
//! the `BENCH_*.json` identity artifact, trace captures and their timeline
//! sidecars, scenario files — becomes JSON and comes back through here.
//!
//! The build environment cannot fetch `serde_json`, so the module carries
//! its own: a [`Json`] value type, a deterministic writer (object keys keep
//! insertion order), a recursive-descent parser, and [`Shape`], how one
//! Rust type is written and read. A record lists its fields once —
//! [`record!`] for a struct, [`tagged!`] for an enum with fields,
//! [`named!`] for a field-less enum — and its encoder and decoder are both
//! generated from that list, so the two cannot drift.
//!
//! Reading is strict, and every error names the path of the member it is
//! about (``` `world.consensus.n_c`: not a usize ```):
//! - a record's members are exactly its listed fields: a missing field, a
//!   member the list does not name, and a member given twice are errors;
//! - a map object ([`BTreeMap`], [`Ordered`]) may not repeat a key;
//! - a tagged enum is an object of exactly one member, a known tag;
//! - an integer must fit its field's type — nothing is truncated.
//!
//! A record field marked `#[optional]` is written only when it differs from
//! its default, and read as its default when absent: a run report's
//! `profile` block, a capture line's `from` and `tag`.

use std::collections::{BTreeMap, BTreeSet};

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
    /// Object; insertion-ordered pairs. The parser keeps a repeated key;
    /// every [`Shape`] reader rejects one.
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
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Writes the value compactly (`indent` unset) or pretty-printed at
    /// depth `indent`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => write_list(out, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => {
                let members = pairs.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_list(out, indent, "{}", members)
            }
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
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// The elements of an array (an object's with their keys) between
/// `brackets`. Pretty-printed, a non-empty list puts each element on a line
/// of its own, one level deeper, and a key is followed by `": "`.
fn write_list<'a>(
    out: &mut String,
    indent: Option<usize>,
    brackets: &str,
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let inner = indent.filter(|_| items.len() > 0).map(|depth| depth + 1);
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(depth) = inner {
            out.push('\n');
            push_indent(out, depth);
        }
        if let Some(key) = key {
            write_escaped(key, out);
            out.push_str(if inner.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if let Some(depth) = inner {
        out.push('\n');
        push_indent(out, depth - 1);
    }
    out.push_str(&brackets[1..]);
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
        Some(b'[') => parse_list(src, pos, b']', parse_value).map(Json::Arr),
        Some(b'{') => {
            let member = |src: &str, pos: &mut usize| {
                skip_ws(src.as_bytes(), pos);
                let key = parse_string(src, pos)?;
                skip_ws(src.as_bytes(), pos);
                expect(src.as_bytes(), pos, b':')?;
                Ok((key, parse_value(src, pos)?))
            };
            parse_list(src, pos, b'}', member).map(Json::Obj)
        }
        Some(_) => parse_number(src, pos),
    }
}

/// The comma-separated elements of the array or object opened at `pos`, up
/// to `close`; `element` parses one.
fn parse_list<T>(
    src: &str,
    pos: &mut usize,
    close: u8,
    mut element: impl FnMut(&str, &mut usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let bytes = src.as_bytes();
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(items);
    }
    loop {
        items.push(element(src, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&b) if b == close => {
                *pos += 1;
                return Ok(items);
            }
            _ => return Err(format!("expected ',' or '{}' at byte {pos}", close as char)),
        }
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

/// How a value is written as JSON and read back.
pub trait Shape: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;
    /// Reads the value back; an error names what is wrong, and where.
    fn from_json(v: &Json) -> Result<Self, String>;
}

/// `e`, an error inside member (or element) `key`, located one level out:
/// member names join with `.`, an element index attaches as `[i]`.
fn within(key: &str, e: String) -> String {
    match e.strip_prefix('`') {
        Some(rest) if rest.starts_with('[') => format!("`{key}{rest}"),
        Some(rest) => format!("`{key}.{rest}"),
        None => format!("`{key}`: {e}"),
    }
}

/// Runs `read`, locating its error inside member `key`.
pub fn located<T>(key: &str, read: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    read().map_err(|e| within(key, e))
}

/// The members of object `v`, none given twice.
fn object(v: &Json) -> Result<&[(String, Json)], String> {
    let Json::Obj(pairs) = v else {
        return Err("not an object".into());
    };
    let mut seen = BTreeSet::new();
    match pairs.iter().find(|(k, _)| !seen.insert(k.as_str())) {
        Some((key, _)) => Err(within(key, "given twice".into())),
        None => Ok(pairs),
    }
}

/// The members of `v` read as a record of type `ty` whose fields are
/// `fields`: an object naming each at most once, and nothing else.
#[doc(hidden)]
pub fn members<'a>(v: &'a Json, ty: &str, fields: &[&str]) -> Result<&'a [(String, Json)], String> {
    let pairs = object(v)?;
    match pairs.iter().find(|(k, _)| !fields.contains(&k.as_str())) {
        Some((key, _)) => Err(within(key, format!("not a member of {ty}"))),
        None => Ok(pairs),
    }
}

/// Member `key` of a record's `members`, if it is there.
#[doc(hidden)]
pub fn optional<T: Shape>(members: &[(String, Json)], key: &str) -> Result<Option<T>, String> {
    let found = members.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    found.map(|v| located(key, || T::from_json(v))).transpose()
}

/// Member `key` of a record's `members`, which must be there.
#[doc(hidden)]
pub fn field<T: Shape>(members: &[(String, Json)], key: &str) -> Result<T, String> {
    optional(members, key)?.ok_or_else(|| within(key, "missing".into()))
}

/// Whether an `#[optional]` field holds its default, and so is not written.
#[doc(hidden)]
pub fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// A tagged enum's one member: its tag and its body.
pub fn variant(v: &Json) -> Result<(&str, &Json), String> {
    match v {
        Json::Obj(pairs) if pairs.len() == 1 => Ok((&pairs[0].0, &pairs[0].1)),
        _ => Err("not an object of one member".into()),
    }
}

macro_rules! int_shapes {
    ($($ty:ty),+) => {$(
        impl Shape for $ty {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
            fn from_json(v: &Json) -> Result<Self, String> {
                v.as_u64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| format!("not a {}", stringify!($ty)))
            }
        }
    )+};
}
int_shapes!(u64, u32, usize);

impl Shape for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "not a number".into())
    }
}

impl Shape for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err("not a bool".into()),
        }
    }
}

impl Shape for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(String::from)
            .ok_or_else(|| "not a string".into())
    }
}

impl<T: Shape> Shape for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        let items = v.as_arr().ok_or("not an array")?;
        (items.iter().enumerate())
            .map(|(i, item)| T::from_json(item).map_err(|e| within(&format!("[{i}]"), e)))
            .collect()
    }
}

impl<T: Shape, const N: usize> Shape for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        Vec::from_json(v)?
            .try_into()
            .map_err(|items: Vec<T>| format!("{} elements, not {N}", items.len()))
    }
}

/// `None` is `null`; as a record field it is `#[optional]`, and not written.
impl<T: Shape> Shape for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

/// An object whose member names are data, kept in file order (a timelines
/// sidecar's stage stamps); [`BTreeMap`] is the sorted form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ordered<T>(pub Vec<(String, T)>);

impl<T: Shape> Shape for Ordered<T> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        )
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        (object(v)?.iter())
            .map(|(k, v)| Ok((k.clone(), located(k, || T::from_json(v))?)))
            .collect::<Result<_, String>>()
            .map(Ordered)
    }
}

impl<T: Shape> Shape for BTreeMap<String, T> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Ordered::from_json(v)?.0.into_iter().collect())
    }
}

/// A struct as an object of the listed fields, keyed by field name, in
/// list order. A field marked `#[optional]` is written only when it is not
/// its default, and read as its default when absent. With
/// `..Default::default()` ending the list, as in a struct literal, the
/// fields it does not name take their default; the file cannot set them.
///
/// ```
/// use predis_telemetry::json::{Json, Shape};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u64, label: Option<String> }
/// predis_telemetry::record!(Point { x, #[optional] label });
///
/// let p = Point { x: 3, label: None };
/// assert_eq!(p.to_json().to_string(), r#"{"x":3}"#);
/// assert_eq!(Point::from_json(&p.to_json()), Ok(p));
/// let err = Point::from_json(&Json::parse(r#"{"x":3,"y":4}"#).unwrap());
/// assert_eq!(err.unwrap_err(), "`y`: not a member of Point");
/// ```
#[macro_export]
macro_rules! record {
    ($ty:ident { $($(#[$opt:ident])? $field:ident),+ $(, ..$rest:expr)? $(,)? }) => {
        impl $crate::json::Shape for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let mut members = Vec::with_capacity([$(stringify!($field)),+].len());
                $($crate::__field!(put members, self.$field, $field $($opt)?);)+
                $crate::json::Json::Obj(members)
            }
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                let m = $crate::json::members(v, stringify!($ty), &[$(stringify!($field)),+])?;
                Ok($ty { $($field: $crate::__field!(get m, $field $($opt)?),)+ $(..$rest)? })
            }
        }
    };
}

/// One field of a [`record!`]: `put` writes it, `get` reads it.
#[doc(hidden)]
#[macro_export]
macro_rules! __field {
    (put $out:ident, $v:expr, $key:ident) => {
        $out.push((stringify!($key).into(), $crate::json::Shape::to_json(&$v)))
    };
    (put $out:ident, $v:expr, $key:ident optional) => {
        if !$crate::json::is_default(&$v) {
            $crate::__field!(put $out, $v, $key)
        }
    };
    (get $m:ident, $key:ident) => {
        $crate::json::field($m, stringify!($key))?
    };
    (get $m:ident, $key:ident optional) => {
        $crate::json::optional($m, stringify!($key))?.unwrap_or_default()
    };
}

/// An enum whose variants have named fields (or none) as
/// `{ "<tag>": { <fields> } }`, one tag per variant.
#[macro_export]
macro_rules! tagged {
    ($ty:ident { $($tag:literal => $variant:ident { $($field:ident),* }),+ $(,)? }) => {
        impl $crate::json::Shape for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let (tag, members) = match self {
                    $($ty::$variant { $($field),* } => ($tag, vec![
                        $((stringify!($field).into(), $crate::json::Shape::to_json($field))),*
                    ]),)+
                };
                $crate::json::Json::Obj(vec![(tag.into(), $crate::json::Json::Obj(members))])
            }
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                let (tag, body) = $crate::json::variant(v)?;
                $crate::json::located(tag, || match tag {
                    $($tag => {
                        let _m = $crate::json::members(body, $tag, &[$(stringify!($field)),*])?;
                        Ok($ty::$variant { $($field: $crate::json::field(_m, stringify!($field))?),* })
                    })+
                    _ => Err(format!("not a {}", stringify!($ty))),
                })
            }
        }
    };
}

/// A field-less enum as one of the listed strings.
#[macro_export]
macro_rules! named {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $crate::json::Shape for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(match self { $($ty::$variant => $name),+ }.into())
            }
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                match v.as_str() {
                    $(Some($name) => Ok($ty::$variant),)+
                    _ => Err(format!("{v} is not a {}", stringify!($ty))),
                }
            }
        }
    };
}

pub use crate::{named, record, tagged};

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
