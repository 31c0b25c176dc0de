//! A minimal JSON value, writer, and parser — the workspace's hermetic
//! replacement for `serde`/`serde_json` (see DESIGN.md, "Hermetic build").
//!
//! Types that persist state (models, workloads, reports) implement
//! [`ToJson`] explicitly, and [`FromJson`] when they also restore. Explicit
//! impls trade derive convenience for zero dependencies and a schema that
//! is visible at the definition site.
//!
//! Numbers are kept in three lanes (`I`/`U`/`F`) exactly like serde_json's
//! `Number`, so `u64` seeds above 2^53 and negative integers both round-trip
//! losslessly; floats are written with Rust's shortest round-trip formatting.

use crate::error::{BaoError, Result};
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Negative (or any signed) integer.
    I(i64),
    /// Non-negative integer; distinct lane so full-range `u64` seeds fit.
    U(u64),
    F(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor helper: `Json::obj([("k", v), ...])`.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Field lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Field lookup that errors with the missing key's name.
    pub fn field(&self, key: &str) -> Result<&Json> {
        self.get(key).ok_or_else(|| BaoError::Parse(format!("missing JSON field `{key}`")))
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I(v) => Some(*v),
            Json::U(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U(v) => Some(*v),
            Json::I(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F(v) => Some(*v),
            Json::I(v) => Some(*v as f64),
            Json::U(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact rendering, straight into one `String`: the log encodes
    /// every record through this, and a `Display` impl would render into
    /// a `Formatter` and copy.
    #[expect(clippy::inherent_to_string, reason = "renders without a Formatter")]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space-indented rendering.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::I(v) => {
                let _ = write!(out, "{v}");
            }
            Json::U(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.iter(), |out, item, d| {
                    item.write(out, indent, d)
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.iter(), |out, (k, v), d| {
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-round-trip float formatting; force a marker so
        // whole floats re-parse into the float lane.
        let s = format!("{v}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Parse a JSON document. Rejects trailing garbage.
pub fn parse(text: &str) -> Result<Json> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> BaoError {
        BaoError::Parse(format!("JSON: {msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json> {
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

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one character. `pos` only ever steps over
                    // whole characters, so the checked slice always holds.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("not at a character boundary"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = self.text.get(self.pos..end).ok_or_else(|| self.err("non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad hex in \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Everything consumed above is ASCII, so both ends are boundaries.
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(if v >= 0 { Json::U(v as u64) } else { Json::I(v) });
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U(v));
            }
        }
        text.parse::<f64>().map(Json::F).map_err(|_| self.err("invalid number"))
    }
}

/// Serialization into a [`Json`] value.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// Deserialization from a [`Json`] value.
pub trait FromJson: Sized {
    fn from_json(j: &Json) -> Result<Self>;
}

fn expect_num<T>(j: &Json, what: &str, v: Option<T>) -> Result<T> {
    v.ok_or_else(|| BaoError::Parse(format!("expected JSON {what}, got {j:?}")))
}

// Identity impls so a field can carry an opaque, already-structured
// value (e.g. a WAL `QueryOutcome` embedding a harness record whose
// schema this layer does not know).
impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(j: &Json) -> Result<Json> {
        Ok(j.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<bool> {
        expect_num(j, "bool", j.as_bool())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<f64> {
        expect_num(j, "number", j.as_f64())
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::F(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(j: &Json) -> Result<f32> {
        Ok(expect_num(j, "number", j.as_f64())? as f32)
    }
}

macro_rules! json_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v >= 0 { Json::U(v as u64) } else { Json::I(v) }
            }
        }

        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<$t> {
                let v = expect_num(j, "integer", j.as_i64())?;
                <$t>::try_from(v)
                    .map_err(|_| BaoError::Parse(format!("integer out of range: {v}")))
            }
        }
    )*};
}

macro_rules! json_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U(*self as u64)
            }
        }

        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<$t> {
                let v = expect_num(j, "unsigned integer", j.as_u64())?;
                <$t>::try_from(v)
                    .map_err(|_| BaoError::Parse(format!("integer out of range: {v}")))
            }
        }
    )*};
}

json_signed!(i32, i64);
json_unsigned!(u32, u64, usize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<String> {
        j.as_str()
            .map(|s| s.to_string())
            .ok_or_else(|| BaoError::Parse(format!("expected JSON string, got {j:?}")))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|x| x.to_json()).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Vec<T>> {
        j.as_arr()
            .ok_or_else(|| BaoError::Parse(format!("expected JSON array, got {j:?}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Option<T>> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|x| x.to_json()).collect())
    }
}

impl<T: FromJson + Default + Copy, const N: usize> FromJson for [T; N] {
    fn from_json(j: &Json) -> Result<[T; N]> {
        let items = Vec::<T>::from_json(j)?;
        if items.len() != N {
            return Err(BaoError::Parse(format!(
                "expected array of length {N}, got {}",
                items.len()
            )));
        }
        let mut out = [T::default(); N];
        out.copy_from_slice(&items);
        Ok(out)
    }
}

/// Decode one struct field.
pub fn field<T: FromJson>(j: &Json, key: &str) -> Result<T> {
    T::from_json(j.field(key)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{text}");
        }
        assert_eq!(parse("12").unwrap().as_i64(), Some(12));
        assert_eq!(parse("-12").unwrap().as_i64(), Some(-12));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn u64_seeds_survive() {
        let seed = u64::MAX - 7;
        let j = seed.to_json();
        let text = j.to_string();
        assert_eq!(u64::from_json(&parse(&text).unwrap()).unwrap(), seed);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1f64, -1.5e-9, 12345.6789, 1.0 / 3.0, f64::MIN_POSITIVE] {
            let text = Json::F(v).to_string();
            assert_eq!(parse(&text).unwrap().as_f64(), Some(v), "{text}");
        }
        // f32 through the f64 lane
        for v in [0.3f32, -7.25, 1.0e-20] {
            let text = v.to_json().to_string();
            assert_eq!(f32::from_json(&parse(&text).unwrap()).unwrap(), v);
        }
        // whole floats keep their float-ness
        assert_eq!(Json::F(2.0).to_string(), "2.0");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s =
            "line\n\ttab \"quoted\" back\\slash \u{E9} \u{20AC} \u{1F980} nul\u{0001}".to_string();
        let text = s.to_json().to_string();
        assert_eq!(String::from_json(&parse(&text).unwrap()).unwrap(), s);
        // surrogate-pair escapes parse too
        assert_eq!(parse(r#""🦀""#).unwrap().as_str(), Some("\u{1F980}"));
    }

    #[test]
    fn nested_structures() {
        let v = Json::obj([
            ("name", Json::Str("bao".into())),
            ("xs", Json::Arr(vec![Json::U(1), Json::I(-2), Json::F(0.5)])),
            ("none", Json::Null),
            ("inner", Json::obj([("ok", Json::Bool(true))])),
        ]);
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
        assert_eq!(v.get("name").and_then(|j| j.as_str()), Some("bao"));
        assert!(v.get("missing").is_none());
        assert!(v.field("missing").is_err());
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Json::obj([("a", Json::Arr(vec![Json::U(1), Json::U(2)]))]);
        let text = v.to_string_pretty();
        assert!(text.contains("\n  \"a\""), "{text}");
        assert!(text.contains("\n    1"), "{text}");
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "{bad json",
            "[1, 2",
            "\"unterminated",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "",
            "{\"a\": }",
            "nan",
        ] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn containers_round_trip() {
        let xs = vec![1i64, -5, 7];
        assert_eq!(Vec::<i64>::from_json(&parse(&xs.to_json().to_string()).unwrap()).unwrap(), xs);
        let opt: Option<u32> = None;
        assert_eq!(opt.to_json(), Json::Null);
        assert_eq!(Option::<u32>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_json(&Json::U(3)).unwrap(), Some(3));
        let arr = [1usize, 2, 3];
        assert_eq!(<[usize; 3]>::from_json(&arr.to_json()).unwrap(), arr);
        assert!(<[usize; 3]>::from_json(&Json::Arr(vec![Json::U(1)])).is_err());
    }

    #[test]
    fn type_mismatches_error() {
        assert!(u64::from_json(&Json::Str("3".into())).is_err());
        assert!(i64::from_json(&Json::U(u64::MAX)).is_err());
        assert!(String::from_json(&Json::U(1)).is_err());
        assert!(bool::from_json(&Json::Null).is_err());
        assert!(Vec::<u32>::from_json(&Json::U(1)).is_err());
    }

    #[test]
    fn nonfinite_floats_write_null() {
        assert_eq!(Json::F(f64::NAN).to_string(), "null");
        assert_eq!(Json::F(f64::INFINITY).to_string(), "null");
    }
}
