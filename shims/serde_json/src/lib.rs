//! Offline stand-in for `serde_json`: a strict recursive-descent JSON
//! parser plus compact and pretty writers over the shim [`serde`] value
//! model. Output layout matches real serde_json (2-space indent, `": "`
//! separators) so golden artifacts stay stable if the real crate ever
//! returns.

pub use serde::value::{Number, Value};
use serde::{Deserialize, Serialize};

/// Parse or deserialization failure, with a byte offset when parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    msg: String,
    offset: Option<usize>,
}

impl Error {
    fn parse(msg: impl Into<String>, offset: usize) -> Self {
        Error { msg: msg.into(), offset: Some(offset) }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} at byte {o}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error { msg: e.0, offset: None }
    }
}

/// Deserialize a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

/// Convert to a [`Value`] tree without a trip through JSON text.
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Result<Value, Error> {
    Ok(v.to_value())
}

/// Serialize compactly (no whitespace).
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &v.to_value(), None, 0);
    Ok(out)
}

/// Serialize with 2-space indentation.
pub fn to_string_pretty<T: Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &v.to_value(), Some(2), 0);
    Ok(out)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    let pad = |out: &mut String, d: usize| {
        if let Some(n) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', n * d));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => serde::value::write_number(out, n),
        Value::String(s) => serde::value::write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            pad(out, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, fv)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                serde::value::write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, fv, indent, depth + 1);
            }
            pad(out, depth);
            out.push('}');
        }
    }
}

/// Parse one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
fn parse_value(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let v = parse_at(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::parse("trailing characters after JSON value", pos));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), Error> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(Error::parse(format!("expected `{lit}`"), *pos))
    }
}

fn parse_at(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(Error::parse("unexpected end of input", *pos)),
        Some(b'n') => expect(b, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::String),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_at(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::parse("expected `,` or `]`", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_at(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(Error::parse("expected `,` or `}`", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    if b.get(*pos) != Some(&b'"') {
        return Err(Error::parse("expected string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(Error::parse("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| Error::parse("bad \\u escape", *pos))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::parse("bad \\u escape", *pos))?;
                        // Surrogate pairs are not needed by this
                        // workspace's artifacts; reject them explicitly.
                        let c = char::from_u32(cp)
                            .ok_or_else(|| Error::parse("unsupported \\u escape", *pos))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(Error::parse("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape. Both are
                // ASCII, so the run ends on a character boundary of the
                // (valid UTF-8) input, and only the run itself is checked:
                // checking the whole rest of the input per character made
                // parsing quadratic in the document size.
                let start = *pos;
                while b.get(*pos).is_some_and(|&c| c != b'"' && c != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| Error::parse("invalid UTF-8", start))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text =
        std::str::from_utf8(&b[start..*pos]).map_err(|_| Error::parse("invalid number", start))?;
    if text.is_empty() || text == "-" {
        return Err(Error::parse("expected a JSON value", start));
    }
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(i) = stripped.parse::<i128>() {
                return Ok(Value::Number(Number::Int(-i)));
            }
        } else if let Ok(u) = text.parse::<u128>() {
            return Ok(Value::Number(Number::UInt(u)));
        }
    }
    text.parse::<f64>()
        .map(|f| Value::Number(Number::Float(f)))
        .map_err(|_| Error::parse(format!("invalid number `{text}`"), start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        for src in ["null", "true", "false", "0", "-7", "3.5", "\"hi\\n\"", "[]", "{}"] {
            let v = parse_value(src).unwrap();
            let back = parse_value(&to_string(&v).unwrap()).unwrap();
            assert_eq!(v, back, "{src}");
        }
    }

    #[test]
    fn u128_precision_survives() {
        let big = u128::MAX - 5;
        let text = to_string(&big).unwrap();
        let back: u128 = from_str(&text).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn strings_mix_multibyte_runs_and_escapes() {
        let src = "\"a→b\\\"c\\n\\u00e9 ∑ij\\\\\"";
        assert_eq!(parse_value(src).unwrap(), Value::String("a→b\"c\né ∑ij\\".into()));
        let v = Value::String("∑→\"\\\n".repeat(1000));
        assert_eq!(parse_value(&to_string(&v).unwrap()).unwrap(), v);
        assert!(parse_value("\"never closed →").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_value("1 2").is_err());
        assert!(parse_value("{\"a\":1,}").is_err());
        assert!(parse_value("").is_err());
    }

    #[test]
    fn pretty_matches_serde_json_layout() {
        let v = Value::Object(vec![
            ("a".into(), Value::Number(Number::UInt(1))),
            ("b".into(), Value::Array(vec![Value::Bool(true)])),
        ]);
        let text = to_string_pretty(&v).unwrap();
        assert_eq!(text, "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}");
    }

    /// Rendering a `to_value` tree gives the bytes a render → parse →
    /// render round trip gives, for every number shape and escapes.
    #[test]
    fn to_value_renders_like_the_text_round_trip() {
        let via_text = |v: &Value| {
            to_string_pretty(&parse_value(&to_string_pretty(v).unwrap()).unwrap()).unwrap()
        };
        let values = [
            to_value(&vec![0.1f64, 1.0, -0.0, 1e300, 5e-324, f64::INFINITY]).unwrap(),
            to_value(&vec![-7i64, 0, 7]).unwrap(),
            to_value(&vec![0u128, u128::MAX]).unwrap(),
            to_value("a→\"b\n").unwrap(),
        ];
        for v in &values {
            assert_eq!(to_string_pretty(v).unwrap(), via_text(v));
        }
    }

    #[test]
    fn floats_keep_a_float_shape() {
        let text = to_string(&1.0f64).unwrap();
        assert_eq!(text, "1.0");
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back, 1.0);
    }
}
