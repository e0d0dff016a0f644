//! The workspace's one JSON reader, plus the writer helpers that
//! telemetry events, metric files and the serving wire share — no
//! external JSON dependency.
//!
//! [`parse_object`] reads one top-level object into ordered key/value
//! pairs of [`Json`]. It serves flat telemetry JSONL lines and metric
//! files, serving requests (`edges: [[s,d],…]`) and serving replies (a
//! nested `timing` object). One rule per case:
//!
//! - **Numbers.** A literal without `.`, `e` or `E` that fits an `i64` is
//!   [`Json::Int`]; anything else is [`Json::Float`], so a value written
//!   by [`write_value`] reads back as the same variant and bits. `-0`
//!   reads as `Float(-0.0)` to keep its sign. A literal that overflows to
//!   a non-finite float (`1e999`) is a parse error.
//! - **Strings.** Escapes decode; raw UTF-8 passes through. A UTF-16
//!   surrogate pair decodes to one character; a lone or mismatched
//!   surrogate decodes to U+FFFD without consuming the escape after it.
//! - **`null`** reads as [`Json::Null`]; callers decide what it means.
//! - **Nesting** is capped at [`MAX_DEPTH`] container levels below the
//!   top-level object, the deepest any request or reply goes.
//! - **Budget.** The caller's `max_elements` bounds the total number of
//!   array items and nested-object members, so a hostile line cannot
//!   balloon memory before validation. Flat readers pass 0.

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
/// reinterpret them as `Json::Int`.
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

/// Container levels allowed below the top-level object: enough for
/// `edges: [[s,d],…]` and `timing: {…}`.
pub const MAX_DEPTH: usize = 2;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal that fits an `i64`.
    Int(i64),
    /// Any other (finite) number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// A nested object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value as a non-negative integer: an `Int`, or a `Float` with no
    /// fractional part (`3.0` is 3).
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a boolean, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a telemetry [`Value`]: `Ok(None)` for `null`, an
    /// error for a container (telemetry records are flat).
    pub fn into_value(self) -> Result<Option<Value>, String> {
        match self {
            Json::Null => Ok(None),
            Json::Bool(b) => Ok(Some(Value::Bool(b))),
            Json::Int(i) => Ok(Some(Value::Int(i))),
            Json::Float(f) => Ok(Some(Value::Float(f))),
            Json::Str(s) => Ok(Some(Value::Str(s))),
            Json::Arr(_) | Json::Obj(_) => Err("nested containers are not supported".into()),
        }
    }
}

/// The value of `key` among parsed pairs (first match).
pub fn field<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parse one top-level JSON object into ordered key/value pairs.
/// `max_elements` bounds the total number of array items and
/// nested-object members.
pub fn parse_object(text: &str, max_elements: usize) -> Result<Vec<(String, Json)>, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        budget: max_elements,
    };
    p.skip_ws();
    if p.peek() != Some(b'{') {
        return Err("expected '{' at start of object".into());
    }
    let pairs = p.object(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing characters after object".into());
    }
    Ok(pairs)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Remaining element budget across all containers in the document.
    budget: usize,
}

impl Parser<'_> {
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

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Charge one container element against the budget.
    fn take_element(&mut self) -> Result<(), String> {
        if self.budget == 0 {
            return Err("containers exceed the element limit".into());
        }
        self.budget -= 1;
        Ok(())
    }

    /// A value whose enclosing container sits at `level` (the top-level
    /// object is level 0).
    fn value(&mut self, level: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if level >= MAX_DEPTH => {
                Err(format!("containers nested deeper than {MAX_DEPTH} levels"))
            }
            Some(b'[') => self.array(level + 1),
            Some(b'{') => self.object(level + 1).map(Json::Obj),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// The object at the cursor, which sits at nesting `level`.
    fn object(&mut self, level: usize) -> Result<Vec<(String, Json)>, String> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(pairs);
        }
        loop {
            if level > 0 {
                self.take_element()?;
            }
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(format!("expected ':' after key \"{key}\""));
            }
            self.skip_ws();
            let value = self.value(level)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b'}') => return Ok(pairs),
                _ => return Err("expected ',' or '}' in object".into()),
            }
        }
    }

    /// The array at the cursor, which sits at nesting `level`.
    fn array(&mut self, level: usize) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.take_element()?;
            self.skip_ws();
            items.push(self.value(level)?);
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err("expected ',' or ']' in array".into()),
            }
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal (expected {lit})"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => integral = false,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() {
            return Err(format!("expected a value at byte {start}"));
        }
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(if i == 0 && text.starts_with('-') {
                    Json::Float(-0.0)
                } else {
                    Json::Int(i)
                });
            }
        }
        let f: f64 = text
            .parse()
            .map_err(|_| format!("malformed number `{text}`"))?;
        if !f.is_finite() {
            return Err(format!("non-finite number `{text}`"));
        }
        Ok(Json::Float(f))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err("expected string".into());
        }
        let mut out = String::new();
        loop {
            // Copy a raw run up to the next quote or escape. Both are ASCII,
            // so the run ends on a character boundary of the `&str` input.
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            let c = match self.next() {
                Some(b'"') => return Ok(out),
                None => return Err("unterminated string".into()),
                _ => match self.next() {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => self.unicode_escape()?,
                    _ => return Err("unknown escape sequence".into()),
                },
            };
            out.push(c);
        }
    }

    /// The character of a `\u` escape (after the `u`). A high surrogate
    /// pairs with an immediately following `\u` low surrogate to form one
    /// character beyond the Basic Multilingual Plane; any other surrogate
    /// is U+FFFD, and the escape after a lone high surrogate is left for
    /// the next character.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = hex_value(hex).ok_or("bad hex in \\u escape")?;
        self.pos += 4;
        if (0xD800..=0xDBFF).contains(&code) {
            if let Some(low) = self.low_surrogate_ahead() {
                self.pos += 6;
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{FFFD}'))
    }

    /// The low surrogate of a `\uXXXX` escape at the cursor, if there is
    /// one; consumes nothing.
    fn low_surrogate_ahead(&self) -> Option<u32> {
        let next = self.bytes.get(self.pos..self.pos + 6)?;
        if &next[..2] != b"\\u" {
            return None;
        }
        hex_value(&next[2..]).filter(|lo| (0xDC00..=0xDFFF).contains(lo))
    }
}

/// Four hex digits as a code unit.
fn hex_value(digits: &[u8]) -> Option<u32> {
    digits
        .iter()
        .try_fold(0u32, |acc, &d| Some(acc * 16 + (d as char).to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(text: &str) -> Json {
        let mut pairs = parse_object(text, 100).unwrap();
        assert_eq!(pairs.len(), 1, "{text}");
        pairs.pop().unwrap().1
    }

    #[test]
    fn parses_flat_object() {
        let pairs = parse_object(
            r#"{"a": 1, "b": -2.5, "c": "x\ny", "d": true, "e": null}"#,
            0,
        )
        .unwrap();
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0], ("a".into(), Json::Int(1)));
        assert_eq!(pairs[1], ("b".into(), Json::Float(-2.5)));
        assert_eq!(pairs[2], ("c".into(), Json::Str("x\ny".into())));
        assert_eq!(pairs[3], ("d".into(), Json::Bool(true)));
        assert_eq!(pairs[4], ("e".into(), Json::Null));
        assert_eq!(parse_object("{}", 0).unwrap(), vec![]);
    }

    #[test]
    fn parses_nested_arrays_and_objects() {
        let pairs = parse_object(
            r#"{"op":"infer","nodes":3,"edges":[[0,1],[1,2]],"features":[1.0,-2.5,3e-2],"timing":{"queue_us":4,"t":[]},"e":[]}"#,
            100,
        )
        .unwrap();
        assert_eq!(field(&pairs, "op").and_then(Json::as_str), Some("infer"));
        assert_eq!(field(&pairs, "nodes").and_then(Json::as_uint), Some(3));
        let edges = field(&pairs, "edges").and_then(Json::as_arr).unwrap();
        assert_eq!(edges[1].as_arr().unwrap()[1], Json::Int(2));
        let feats = field(&pairs, "features").and_then(Json::as_arr).unwrap();
        assert_eq!(feats[1].as_f64(), Some(-2.5));
        let Some(Json::Obj(timing)) = field(&pairs, "timing") else {
            panic!("timing is an object")
        };
        assert_eq!(field(timing, "queue_us"), Some(&Json::Int(4)));
        assert_eq!(field(timing, "t"), Some(&Json::Arr(vec![])));
        assert_eq!(field(timing, "missing"), None);
        assert_eq!(field(&pairs, "e"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn rejects_nested() {
        // Two container levels below the top-level object is the cap.
        assert!(parse_object(r#"{"a":[[1]],"b":{"c":{"d":1}},"e":[{"f":2}]}"#, 100).is_ok());
        for bad in [
            r#"{"a":[[[1]]]}"#,
            r#"{"a":{"b":{"c":{}}}}"#,
            r#"{"a":[{"b":[]}]}"#,
        ] {
            let err = parse_object(bad, 100).unwrap_err();
            assert!(err.contains("nested deeper"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "not json",
            "{",
            "[1]",
            r#"{"a": 1} extra"#,
            r#"{"a""#,
            r#"{"a":}"#,
            r#"{"a":1"#,
            r#"{"a":1,}"#,
            r#"{"a":[1,]}"#,
            r#"{"a":[1 2]}"#,
            r#"{"a":nul}"#,
            r#"{"a":"unterminated}"#,
            r#"{"a":"bad \q escape"}"#,
            r#"{"a":"\u12"}"#,
            r#"{"a":"\u12g4"}"#,
            r#"{"a":1-2}"#,
            r#"{1:2}"#,
        ] {
            assert!(parse_object(bad, 100).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn non_finite_literals_are_rejected() {
        for bad in [r#"{"a":1e999}"#, r#"{"a":-1e999}"#, r#"{"a":[1,1e400]}"#] {
            let err = parse_object(bad, 100).unwrap_err();
            assert!(err.contains("non-finite"), "{bad}: {err}");
        }
    }

    #[test]
    fn element_budget_is_enforced() {
        assert!(parse_object(r#"{"a":[1,2,3,4]}"#, 4).is_ok());
        let err = parse_object(r#"{"a":[1,2,3,4,5]}"#, 4).unwrap_err();
        assert!(err.contains("element limit"), "{err}");
        // Nested elements count against the same budget: 2 pairs + 4 ends.
        assert!(parse_object(r#"{"a":[[1,2],[3,4]]}"#, 6).is_ok());
        assert!(parse_object(r#"{"a":[[1,2],[3,4]]}"#, 5).is_err());
        // So do nested-object members; top-level members do not.
        assert!(parse_object(r#"{"x":1,"t":{"a":1,"b":2}}"#, 2).is_ok());
        assert!(parse_object(r#"{"x":1,"t":{"a":1,"b":2}}"#, 1).is_err());
        // A flat reader's zero budget still admits empty containers.
        assert!(parse_object(r#"{"a":[],"b":{}}"#, 0).is_ok());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(one(r#"{"s": "\u00e9"}"#), Json::Str("é".into()));
        assert_eq!(
            one(r#"{"id":"a\"b\\c\nd\/\t\r\b\fA"}"#),
            Json::Str("a\"b\\c\nd/\t\r\u{8}\u{c}A".into())
        );
    }

    #[test]
    fn raw_utf8_in_strings_round_trips() {
        assert_eq!(
            one("{\"id\":\"héllo 😀 wörld\"}"),
            Json::Str("héllo 😀 wörld".into())
        );
        // A raw multi-byte character right before an escape.
        assert_eq!(one(r#"{"id":"é\né"}"#), Json::Str("é\né".into()));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        let pairs = parse_object(r#"{"s":"\ud83d\ude00","t":"a\uD834\uDD1Eb"}"#, 0).unwrap();
        assert_eq!(pairs[0].1, Json::Str("😀".into()));
        assert_eq!(pairs[1].1, Json::Str("a𝄞b".into()));
        assert_eq!(
            one(r#"{"id":"a\u00E9-\uD83D\uDE00!"}"#),
            Json::Str("a\u{e9}-\u{1F600}!".into())
        );
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        // "Rejected" as characters: each lone or mismatched surrogate
        // decodes to U+FFFD, and an escape after a lone high surrogate
        // survives as its own character.
        for (bad, want) in [
            (r#"{"s":"\ud83d"}"#, "\u{FFFD}"),
            (r#"{"s":"x\uD83D"}"#, "x\u{FFFD}"),
            (r#"{"s":"\ud83dx"}"#, "\u{FFFD}x"),
            (r#"{"s":"\ud83d\n"}"#, "\u{FFFD}\n"),
            (r#"{"s":"\ud83dA"}"#, "\u{FFFD}A"),
            (r#"{"s":"\ude00"}"#, "\u{FFFD}"),
            (r#"{"s":"\uDE00y"}"#, "\u{FFFD}y"),
            (r#"{"s":"\ud83d\ud83d"}"#, "\u{FFFD}\u{FFFD}"),
            (r#"{"s":"\ud83d\ud83d\ude00"}"#, "\u{FFFD}😀"),
        ] {
            assert_eq!(one(bad), Json::Str(want.into()), "{bad}");
        }
    }

    #[test]
    fn numbers_keep_their_literal_kind() {
        assert_eq!(one(r#"{"n":42}"#), Json::Int(42));
        assert_eq!(one(r#"{"n":-7}"#), Json::Int(-7));
        assert_eq!(one(r#"{"n":3e2}"#), Json::Float(300.0));
        // Too big for i64: a float, like any other non-integral literal.
        assert_eq!(
            one(r#"{"n":12345678901234567890}"#),
            Json::Float(12345678901234567890.0)
        );
        // `-0` keeps its sign bit.
        assert_eq!(
            one(r#"{"n":-0}"#).as_f64().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(one(r#"{"n":0}"#), Json::Int(0));
    }

    #[test]
    fn accessors_convert_between_number_kinds() {
        assert_eq!(Json::Float(3.0).as_uint(), Some(3));
        assert_eq!(Json::Float(3.5).as_uint(), None);
        assert_eq!(Json::Float(-1.0).as_uint(), None);
        assert_eq!(Json::Int(-1).as_uint(), None);
        assert_eq!(Json::Int(5).as_f64(), Some(5.0));
        assert_eq!(Json::Str("5".into()).as_f64(), None);
        assert_eq!(Json::Null.into_value(), Ok(None));
        assert_eq!(Json::Int(2).into_value(), Ok(Some(Value::Int(2))));
        assert!(Json::Arr(vec![]).into_value().is_err());
    }

    #[test]
    fn float_formatting_round_trips() {
        for &f in &[0.1f64, 1e-12, 123456.789, -0.0, 3.0] {
            let mut s = String::new();
            write_value(&mut s, &Value::Float(f));
            assert_eq!(s.parse::<f64>().unwrap(), f);
            let back = one(&format!("{{\"f\":{s}}}"));
            assert_eq!(back.as_f64().unwrap().to_bits(), f.to_bits(), "{s}");
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let mut s = String::new();
        write_value(&mut s, &Value::Float(4.0));
        assert_eq!(s, "4.0");
        assert_eq!(one(r#"{"g": 4.0}"#), Json::Float(4.0));
    }
}
