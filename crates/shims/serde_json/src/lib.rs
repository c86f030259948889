//! Minimal, offline stand-in for `serde_json`: JSON text printing and
//! parsing over the vendored `serde` shim's [`JsonValue`] data model.

use std::fmt;

use serde::{DeError, Deserialize, JsonValue, Serialize};

/// Deepest array/object nesting [`from_str`] accepts. The parser recurses
/// once per level, so without a bound a short line of `[` characters
/// would overflow the parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Serialization/deserialization error.
#[derive(Clone, Debug, PartialEq)]
pub enum Error {
    /// Malformed JSON, or JSON that does not fit the target type.
    Message(String),
    /// Arrays/objects nested deeper than [`MAX_DEPTH`]; `at` is the byte
    /// offset of the bracket that crossed the limit.
    TooDeep {
        /// Byte offset of the offending `[` or `{`.
        at: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Message(m) => write!(f, "json error: {m}"),
            Error::TooDeep { at } => write!(
                f,
                "json error: nesting deeper than {MAX_DEPTH} levels at byte {at}"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::Message(e.0)
    }
}

/// Serializes `value` to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    print_value(&value.to_json(), &mut out);
    Ok(out)
}

/// Parses a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::Message(format!("trailing input at byte {}", p.pos)));
    }
    Ok(T::from_json(&v)?)
}

// ---- printing ----

fn print_value(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(n) => out.push_str(&n.to_string()),
        JsonValue::UInt(n) => out.push_str(&n.to_string()),
        JsonValue::Float(n) => {
            if n.is_finite() {
                // `{:?}` prints the shortest representation that round-trips.
                let s = format!("{n:?}");
                out.push_str(&s);
            } else if n.is_nan() {
                out.push_str("\"NaN\"");
            } else if *n > 0.0 {
                out.push_str("\"Infinity\"");
            } else {
                out.push_str("\"-Infinity\"");
            }
        }
        JsonValue::Str(s) => print_string(s, out),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_value(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_string(k, out);
                out.push(':');
                print_value(v, out);
            }
            out.push('}');
        }
    }
}

fn print_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

// ---- parsing ----

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::Message(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::Message(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: JsonValue) -> Result<JsonValue, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error::Message(format!(
                "expected `{kw}` at byte {}",
                self.pos
            )))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::Message("non-utf8 number".into()))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| Error::Message(format!("bad number `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let c = *rest
                .first()
                .ok_or_else(|| Error::Message("unterminated string".into()))?;
            match c {
                b'"' => {
                    self.pos += 1;
                    // Round-trip the non-finite float sentinels.
                    return Ok(out);
                }
                b'\\' => {
                    let esc = *rest
                        .get(1)
                        .ok_or_else(|| Error::Message("dangling escape".into()))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.parse_hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| {
                                    Error::Message(format!("bad codepoint {cp:#x}"))
                                })?,
                            );
                        }
                        other => {
                            return Err(Error::Message(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 character.
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| Error::Message("non-utf8 string".into()))?;
                    let ch = s.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::Message("truncated \\u escape".into()))?;
        let text =
            std::str::from_utf8(slice).map_err(|_| Error::Message("bad \\u escape".into()))?;
        let v =
            u32::from_str_radix(text, 16).map_err(|_| Error::Message("bad \\u escape".into()))?;
        self.pos = end;
        Ok(v)
    }

    /// Opens one nesting level, failing past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), Error> {
        if self.depth >= MAX_DEPTH {
            return Err(Error::TooDeep { at: self.pos });
        }
        self.depth += 1;
        Ok(())
    }

    fn parse_array(&mut self) -> Result<JsonValue, Error> {
        self.enter()?;
        let v = self.parse_array_items();
        self.depth -= 1;
        v
    }

    fn parse_object(&mut self) -> Result<JsonValue, Error> {
        self.enter()?;
        let v = self.parse_object_members();
        self.depth -= 1;
        v
    }

    fn parse_array_items(&mut self) -> Result<JsonValue, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => {
                    return Err(Error::Message(format!(
                        "expected `,` or `]`, found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn parse_object_members(&mut self) -> Result<JsonValue, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                other => {
                    return Err(Error::Message(format!(
                        "expected `,` or `}}`, found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(from_str::<i64>(&to_string(&-42i64).unwrap()).unwrap(), -42);
        assert_eq!(from_str::<f64>(&to_string(&0.1f64).unwrap()).unwrap(), 0.1);
        assert!(from_str::<bool>("true").unwrap());
        let s = "line\n\"quoted\" \\ tab\t unicode \u{1F600} \u{7}".to_string();
        assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s);
    }

    #[test]
    fn roundtrip_collections() {
        let v = vec![(1.5f64, 2.5f64), (0.0, -1.0)];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<(f64, f64)>>(&json).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v: Vec<i64> = from_str(" [ 1 , 2 ,\n3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let s: String = from_str(r#""Aé😀""#).unwrap();
        assert_eq!(s, "Aé😀");
    }

    #[test]
    fn nesting_is_bounded_with_a_typed_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(
            from_str::<JsonValue>(&ok).is_ok(),
            "the limit itself parses"
        );
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            from_str::<JsonValue>(&deep),
            Err(Error::TooDeep { at: MAX_DEPTH })
        );
        // Far past the limit, and mixed with objects: still an error, no
        // stack overflow.
        let hostile = "[{\"a\":".repeat(250_000);
        assert!(matches!(
            from_str::<JsonValue>(&hostile),
            Err(Error::TooDeep { .. })
        ));
        // Depth is per path, not per document: wide siblings are fine.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert!(from_str::<JsonValue>(&wide).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<i64>("12 34").is_err());
        assert!(from_str::<i64>("{").is_err());
        assert!(from_str::<String>("\"abc").is_err());
    }
}
