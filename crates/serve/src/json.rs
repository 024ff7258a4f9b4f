//! A minimal JSON value, parser and writer.
//!
//! The service speaks newline-delimited JSON on plain byte streams.  The
//! workspace carries no external dependencies, so the few hundred lines of
//! JSON it needs live here: a strict recursive-descent parser (strings with
//! full escape handling including surrogate pairs, IEEE numbers, nesting
//! depth bounded) and a writer whose number formatting is **canonical** —
//! integers print without a fraction and every other finite `f64` prints in
//! Rust's shortest round-trip form.  Canonical output is what makes warm-
//! and cold-cache service runs byte-comparable: the same `f64` always
//! serializes to the same bytes, and parsing those bytes returns the same
//! `f64`.

use std::fmt::Write as _;

/// Parsing stops descending past this nesting depth (the service's own
/// records are at most 4 deep; hostile input should not blow the stack).
const MAX_DEPTH: usize = 64;

/// A JSON document.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map): the
/// service's responses are diffed byte-for-byte across runs, so key order
/// must be deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document, requiring it to span the whole input.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser { text: input, at: 0 };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.at != parser.text.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(text) => Some(text),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        let value = self.as_f64()?;
        if value >= 0.0 && value.fract() == 0.0 && value <= (1u64 << 53) as f64 {
            Some(value as usize)
        } else {
            None
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the document on one line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(value) => write_number(*value, out),
            JsonValue::String(text) => write_string(text, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds an object value from `(key, value)` pairs, preserving order.
pub fn object(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        pairs
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// A number value from an integer count.
pub fn number(value: u64) -> JsonValue {
    JsonValue::Number(value as f64)
}

/// A string value.
pub fn string(value: &str) -> JsonValue {
    JsonValue::String(value.to_string())
}

fn write_number(value: f64, out: &mut String) {
    if !value.is_finite() {
        // JSON has no NaN/Infinity; the service never produces them, but
        // degrade to null rather than emit invalid JSON.
        out.push_str("null");
    } else if value.fract() == 0.0 && value.abs() <= (1u64 << 53) as f64 {
        let _ = write!(out, "{}", value as i64);
    } else {
        // Rust's Debug form is the shortest string that round-trips the
        // exact f64 — the canonical form byte-diffing relies on.
        let _ = write!(out, "{value:?}");
    }
}

fn write_string(text: &str, out: &mut String) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            control if (control as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", control as u32);
            }
            other => out.push(other),
        }
    }
    out.push('"');
}

/// A syntax error with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the line.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

struct Parser<'a> {
    /// The whole input, walked byte by byte.
    text: &'a str,
    /// Byte offset of the next unread byte.
    at: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.at,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text.as_bytes()[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(&format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let unit = self.hex4()?;
                            let ch = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\') {
                                    self.at += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&unit) {
                                return Err(self.error("lone low surrogate"));
                            } else {
                                char::from_u32(unit).ok_or_else(|| self.error("invalid escape"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.at += 1;
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("raw control character in string"))
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote,
                    // backslash or control byte as one slice.  Those bytes
                    // are ASCII, so they never sit inside a multi-byte
                    // character and the run ends on a character boundary.
                    let start = self.at;
                    while matches!(
                        self.peek(),
                        Some(byte) if byte >= 0x20 && byte != b'"' && byte != b'\\'
                    ) {
                        self.at += 1;
                    }
                    out.push_str(&self.text[start..self.at]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(byte @ b'0'..=b'9') => (byte - b'0') as u32,
                Some(byte @ b'a'..=b'f') => (byte - b'a') as u32 + 10,
                Some(byte @ b'A'..=b'F') => (byte - b'A') as u32 + 10,
                _ => return Err(self.error("expected four hex digits")),
            };
            value = value * 16 + digit;
            self.at += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let digits_before = self.digits();
        if digits_before == 0 {
            return Err(self.error("expected a digit"));
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if self.digits() == 0 {
                return Err(self.error("expected a fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("expected an exponent digit"));
            }
        }
        self.text[start..self.at]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("number out of range"))
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let text = r#"{"op":"line","grid":[1,2.5,-3e2],"ok":true,"none":null,"name":"a\"b\\c\nd"}"#;
        let value = JsonValue::parse(text).expect("valid document");
        let reparsed = JsonValue::parse(&value.to_line()).expect("writer output is valid");
        assert_eq!(value, reparsed);
        assert_eq!(value.get("op").and_then(JsonValue::as_str), Some("line"));
        assert_eq!(
            value
                .get("grid")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(3)
        );
        assert_eq!(value.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(value.get("none"), Some(&JsonValue::Null));
    }

    #[test]
    fn number_output_is_canonical_and_round_trips() {
        for value in [
            0.0,
            1.0,
            -13.0,
            277.0,
            0.07,
            0.1,
            8.695719103668,
            1e-9,
            f64::MIN_POSITIVE,
        ] {
            let line = JsonValue::Number(value).to_line();
            let back = JsonValue::parse(&line).expect("canonical number parses");
            assert_eq!(
                back.as_f64().map(f64::to_bits),
                Some(value.to_bits()),
                "{line}"
            );
            // Canonical: serializing again produces identical bytes.
            assert_eq!(back.to_line(), line);
        }
        assert_eq!(JsonValue::Number(277.0).to_line(), "277");
        assert_eq!(JsonValue::Number(0.07).to_line(), "0.07");
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs_parse() {
        let value = JsonValue::parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").expect("escapes");
        assert_eq!(value.as_str(), Some("Aé😀"));
        let raw = JsonValue::parse(r#""Aé😀""#).expect("raw UTF-8");
        assert_eq!(raw.as_str(), Some("Aé😀"));
        assert!(JsonValue::parse(r#""\ud83d""#).is_err(), "lone surrogate");
        assert!(
            JsonValue::parse(r#""\udc00""#).is_err(),
            "lone low surrogate"
        );
    }

    #[test]
    fn a_long_string_field_parses_in_linear_time() {
        // A 4 MiB value of one- to four-byte characters with escapes spread
        // through it.  A parser that rescans the rest of the line for every
        // character needs seconds for a 200 KB field, even in release.
        let piece = "id--é€😀\"\\\n";
        assert_eq!(piece.len(), 16);
        let text = piece.repeat(1 << 18);
        let value = object(vec![("op", string("forward")), ("id", string(&text))]);
        let line = value.to_line();
        let started = std::time::Instant::now();
        let parsed = JsonValue::parse(&line).expect("writer output is valid");
        let elapsed = started.elapsed();
        assert_eq!(
            parsed.get("id").and_then(JsonValue::as_str),
            Some(&text[..])
        );
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "parsing a {} B line took {elapsed:?}",
            line.len()
        );
    }

    #[test]
    fn malformed_documents_error_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "1.2.3",
            "\"unterminated",
            "{\"a\":1} trailing",
            "01e",
            "-",
            "{\"a\" 1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn as_usize_accepts_exact_integers_only() {
        assert_eq!(JsonValue::Number(64.0).as_usize(), Some(64));
        assert_eq!(JsonValue::Number(-1.0).as_usize(), None);
        assert_eq!(JsonValue::Number(1.5).as_usize(), None);
        assert_eq!(JsonValue::String("64".into()).as_usize(), None);
    }
}
