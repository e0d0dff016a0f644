//! Minimal JSON writer/parser for flat telemetry objects — enough to
//! serialize events to JSONL and read them back for round-trip tests and
//! run diffing, without an external JSON dependency.
//!
//! Supported on parse: one object per line, string/number/bool/null
//! values. Nested containers are rejected (telemetry events are flat by
//! construction).

use crate::event::Value;

/// Append a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
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

/// Append a JSON value to `out`. Non-finite floats become `null` (JSON has
/// no NaN/Inf).
pub fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) if f.is_finite() => out.push_str(&format_f64(*f)),
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_str(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Shortest `f64` formatting that round-trips through `parse` *as a
/// float*: integral values keep a `.0` suffix so the reader does not
/// reinterpret them as `Value::Int`.
fn format_f64(f: f64) -> String {
    let mut s = format!("{f}");
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    // `{}` on f64 always round-trips in Rust; ensure it parses as a JSON
    // number (it never produces inf/nan here because f is finite).
    debug_assert!(s.parse::<f64>().is_ok());
    s
}

/// Parse one flat JSON object into ordered key/value pairs. `null` values
/// are dropped (they encode non-finite floats).
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            if let Some(v) = value {
                pairs.push((key, v));
            }
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing characters after object".to_string());
    }
    Ok(pairs)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.next() {
            Some(x) if x == b => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", b as char)),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?,
            );
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => out.push(self.parse_unicode_escape()?),
                    other => return Err(format!("bad escape {other:?}")),
                },
                None => return Err("unterminated string".to_string()),
                _ => unreachable!(),
            }
        }
    }

    /// Four hex digits of a `\\u` escape.
    fn parse_hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.next().ok_or("truncated \\u escape")?;
            code = code * 16 + (d as char).to_digit(16).ok_or("bad hex in \\u escape")?;
        }
        Ok(code)
    }

    /// The character of a `\\u` escape (after the `u`). A high surrogate
    /// must be followed by a `\\u` low surrogate; the pair encodes one
    /// character outside the Basic Multilingual Plane.
    fn parse_unicode_escape(&mut self) -> Result<char, String> {
        let code = match self.parse_hex4()? {
            hi @ 0xD800..=0xDBFF => {
                if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                    return Err(format!("lone high surrogate \\u{hi:04x}"));
                }
                match self.parse_hex4()? {
                    lo @ 0xDC00..=0xDFFF => 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                    other => {
                        return Err(format!(
                            "high surrogate \\u{hi:04x} followed by \\u{other:04x}"
                        ))
                    }
                }
            }
            lo @ 0xDC00..=0xDFFF => return Err(format!("lone low surrogate \\u{lo:04x}")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| format!("invalid \\u code point {code:#x}"))
    }

    /// Parse a scalar value; `Ok(None)` means JSON `null`.
    fn parse_value(&mut self) -> Result<Option<Value>, String> {
        match self.peek() {
            Some(b'"') => Ok(Some(Value::Str(self.parse_string()?))),
            Some(b't') => {
                self.literal("true")?;
                Ok(Some(Value::Bool(true)))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Some(Value::Bool(false)))
            }
            Some(b'n') => {
                self.literal("null")?;
                Ok(None)
            }
            Some(b'{' | b'[') => Err("nested containers are not supported".to_string()),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let s =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                if !s.contains(['.', 'e', 'E']) {
                    if let Ok(i) = s.parse::<i64>() {
                        return Ok(Some(Value::Int(i)));
                    }
                }
                s.parse::<f64>()
                    .map(|f| Some(Value::Float(f)))
                    .map_err(|_| format!("bad number {s:?}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected literal {lit}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let pairs =
            parse_object(r#"{"a": 1, "b": -2.5, "c": "x\ny", "d": true, "e": null}"#).unwrap();
        assert_eq!(pairs.len(), 4); // null dropped
        assert_eq!(pairs[0], ("a".into(), Value::Int(1)));
        assert_eq!(pairs[1], ("b".into(), Value::Float(-2.5)));
        assert_eq!(pairs[2], ("c".into(), Value::Str("x\ny".into())));
        assert_eq!(pairs[3], ("d".into(), Value::Bool(true)));
    }

    #[test]
    fn rejects_nested() {
        assert!(parse_object(r#"{"a": {"b": 1}}"#).is_err());
        assert!(parse_object(r#"{"a": [1]}"#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_object("not json").is_err());
        assert!(parse_object(r#"{"a": 1} extra"#).is_err());
        assert!(parse_object(r#"{"a""#).is_err());
    }

    #[test]
    fn unicode_escapes() {
        let pairs = parse_object(r#"{"s": "\u00e9"}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Str("é".into()));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        let pairs = parse_object(r#"{"s":"\ud83d\ude00","t":"a\uD834\uDD1Eb"}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Str("😀".into()));
        assert_eq!(pairs[1].1, Value::Str("a𝄞b".into()));
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [
            r#"{"s":"\ud83d"}"#,
            r#"{"s":"\ud83dx"}"#,
            r#"{"s":"\ud83d\n"}"#,
            r#"{"s":"\ud83d\u0041"}"#,
            r#"{"s":"\ude00"}"#,
            r#"{"s":"\ud83d\ud83d"}"#,
        ] {
            let err = parse_object(bad).unwrap_err();
            assert!(err.contains("surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn float_formatting_round_trips() {
        for &f in &[0.1f64, 1e-12, 123456.789, -0.0, 3.0] {
            let mut s = String::new();
            write_value(&mut s, &Value::Float(f));
            assert_eq!(s.parse::<f64>().unwrap(), f);
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let mut s = String::new();
        write_value(&mut s, &Value::Float(4.0));
        assert_eq!(s, "4.0");
        let pairs = parse_object(r#"{"g": 4.0}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Float(4.0));
    }
}
