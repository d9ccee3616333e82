//! A small, dependency-free JSON value model with a writer and parser.
//!
//! The workspace builds fully offline, so instead of `serde_json` this
//! module provides the minimal JSON support the platform needs: the v1 HTTP
//! API (structured error bodies, invocation status documents, stats), the
//! client facade that parses those documents back, and the benchmark
//! harness's machine-readable report rows.
//!
//! The model is deliberately simple: an enum, `Display` for compact
//! serialization, and a recursive-descent parser that rejects anything
//! malformed. Object keys keep insertion order so emitted documents are
//! deterministic.

use std::fmt;

use crate::bytes::SharedBytes;
use crate::encoding::base64_encode_into;

/// A JSON document or fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// Binary payload serialized as a base64 JSON string.
    ///
    /// A write-side optimization: the payload is held as a zero-copy
    /// [`SharedBytes`] view and base64 is streamed directly into the output
    /// during `Display`, with no intermediate `String`. Parsing produces
    /// [`JsonValue::String`] (the parser cannot know a string is base64), so
    /// documents containing `Bytes` round-trip as their string encoding.
    Bytes(SharedBytes),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from key/value pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(values: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Array(values.into_iter().collect())
    }

    /// Builds a string value.
    pub fn string(value: impl Into<String>) -> JsonValue {
        JsonValue::String(value.into())
    }

    /// Builds a binary value serialized as base64, holding a zero-copy view
    /// of the payload until serialization.
    pub fn bytes(value: impl Into<SharedBytes>) -> JsonValue {
        JsonValue::Bytes(value.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(text) => Some(text),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(value) if *value >= 0.0 && value.fract() == 0.0 => {
                Some(*value as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(values) => Some(values),
            _ => None,
        }
    }

    /// Exact number of bytes the compact serialization of this value
    /// occupies, computed without allocating.
    ///
    /// Used by [`JsonValue::to_json_string`] to size the output buffer
    /// exactly instead of growing a `String` incrementally. Binary payloads
    /// are sized arithmetically (base64 length is a closed formula), so
    /// counting never encodes them; the other variants stream through a
    /// counting writer, which for numbers and escaped strings is cheap
    /// relative to the payload bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            JsonValue::Null | JsonValue::Bool(true) => 4,
            JsonValue::Bool(false) => 5,
            // Quotes + padded base64: no second encoding pass.
            JsonValue::Bytes(data) => 2 + data.len().div_ceil(3) * 4,
            JsonValue::Number(_) | JsonValue::String(_) => {
                let mut counter = CountWriter(0);
                write_value(&mut counter, self).expect("counting cannot fail");
                counter.0
            }
            JsonValue::Array(values) => {
                let separators = values.len().saturating_sub(1);
                2 + separators + values.iter().map(JsonValue::encoded_len).sum::<usize>()
            }
            JsonValue::Object(pairs) => {
                let separators = pairs.len().saturating_sub(1);
                let keys: usize = pairs
                    .iter()
                    .map(|(key, _)| {
                        let mut counter = CountWriter(0);
                        write_escaped(&mut counter, key).expect("counting cannot fail");
                        counter.0 + 1 // plus the `:`
                    })
                    .sum();
                let values: usize = pairs
                    .iter()
                    .map(|(_, value)| value.encoded_len())
                    .sum::<usize>();
                2 + separators + keys + values
            }
        }
    }

    /// Serializes the value into a `String` preallocated to the exact
    /// output size: one allocation, no incremental growth, regardless of
    /// document shape or payload size.
    pub fn to_json_string(&self) -> String {
        let encoded_len = self.encoded_len();
        let mut out = String::with_capacity(encoded_len);
        write_value(&mut out, self).expect("writing to a String cannot fail");
        // The allocator may round the capacity up, but the sizing itself
        // must be exact: nothing was reserved beyond the request and the
        // request was fully used.
        debug_assert_eq!(out.len(), encoded_len);
        out
    }

    /// Parses a JSON document. The whole input must be consumed.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            position: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.position != parser.bytes.len() {
            return Err(format!("trailing characters at offset {}", parser.position));
        }
        Ok(value)
    }
}

impl From<u64> for JsonValue {
    fn from(value: u64) -> Self {
        JsonValue::Number(value as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(value: usize) -> Self {
        JsonValue::Number(value as f64)
    }
}

impl From<f64> for JsonValue {
    fn from(value: f64) -> Self {
        JsonValue::Number(value)
    }
}

impl From<bool> for JsonValue {
    fn from(value: bool) -> Self {
        JsonValue::Bool(value)
    }
}

impl From<&str> for JsonValue {
    fn from(value: &str) -> Self {
        JsonValue::String(value.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(value: String) -> Self {
        JsonValue::String(value)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self)
    }
}

/// A `fmt::Write` sink that only counts bytes, for exact-capacity sizing.
struct CountWriter(usize);

impl fmt::Write for CountWriter {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.0 += text.len();
        Ok(())
    }
}

/// Serializes a value into any `fmt::Write` sink (the single implementation
/// behind `Display`, `encoded_len` and `to_json_string`).
fn write_value<W: fmt::Write>(f: &mut W, value: &JsonValue) -> fmt::Result {
    match value {
        JsonValue::Null => f.write_str("null"),
        JsonValue::Bool(true) => f.write_str("true"),
        JsonValue::Bool(false) => f.write_str("false"),
        JsonValue::Number(value) => write_number(f, *value),
        JsonValue::String(text) => write_escaped(f, text),
        JsonValue::Bytes(data) => {
            // Base64 contains no characters that need JSON escaping, so
            // it streams straight between the quotes.
            f.write_str("\"")?;
            base64_encode_into(f, data)?;
            f.write_str("\"")
        }
        JsonValue::Array(values) => {
            f.write_str("[")?;
            for (index, value) in values.iter().enumerate() {
                if index > 0 {
                    f.write_str(",")?;
                }
                write_value(f, value)?;
            }
            f.write_str("]")
        }
        JsonValue::Object(pairs) => {
            f.write_str("{")?;
            for (index, (key, value)) in pairs.iter().enumerate() {
                if index > 0 {
                    f.write_str(",")?;
                }
                write_escaped(f, key)?;
                f.write_str(":")?;
                write_value(f, value)?;
            }
            f.write_str("}")
        }
    }
}

fn write_number<W: fmt::Write>(f: &mut W, value: f64) -> fmt::Result {
    if !value.is_finite() {
        // JSON has no NaN/Infinity; fall back to null like serde_json does
        // for lossy serializers.
        return f.write_str("null");
    }
    if value.fract() == 0.0 && value.abs() < 9_007_199_254_740_992.0 {
        write!(f, "{}", value as i64)
    } else {
        write!(f, "{value}")
    }
}

fn write_escaped<W: fmt::Write>(f: &mut W, text: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in text.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            ch if (ch as u32) < 0x20 => write!(f, "\\u{:04x}", ch as u32)?,
            ch => f.write_fmt(format_args!("{ch}"))?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.position).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.peek()?;
        self.position += 1;
        Some(byte)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.position += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bump() == Some(byte) {
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                byte as char,
                self.position.saturating_sub(1)
            ))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.position..].starts_with(text.as_bytes()) {
            self.position += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.position))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at offset {}", self.position)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.position += 1;
            return Ok(JsonValue::Array(values));
        }
        loop {
            values.push(self.value()?);
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(values)),
                _ => return Err(format!("expected `,` or `]` at offset {}", self.position)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.position += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(pairs)),
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.position)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut text = String::new();
        loop {
            let start = self.position;
            // Consume a run of plain UTF-8.
            while let Some(byte) = self.peek() {
                if byte == b'"' || byte == b'\\' || byte < 0x20 {
                    break;
                }
                self.position += 1;
            }
            text.push_str(
                std::str::from_utf8(&self.bytes[start..self.position])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.bump() {
                Some(b'"') => return Ok(text),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => text.push('"'),
                    Some(b'\\') => text.push('\\'),
                    Some(b'/') => text.push('/'),
                    Some(b'n') => text.push('\n'),
                    Some(b'r') => text.push('\r'),
                    Some(b't') => text.push('\t'),
                    Some(b'b') => text.push('\u{0008}'),
                    Some(b'f') => text.push('\u{000C}'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        // Surrogate pairs for characters outside the BMP.
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".to_string());
                            }
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(code)
                        };
                        text.push(ch.ok_or_else(|| "invalid unicode escape".to_string())?);
                    }
                    _ => return Err("invalid escape sequence".to_string()),
                },
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(byte @ b'0'..=b'9') => (byte - b'0') as u32,
                Some(byte @ b'a'..=b'f') => (byte - b'a' + 10) as u32,
                Some(byte @ b'A'..=b'F') => (byte - b'A' + 10) as u32,
                _ => return Err("invalid hex escape".to_string()),
            };
            value = value * 16 + digit;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.position;
        if self.peek() == Some(b'-') {
            self.position += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.position += 1;
        }
        if self.peek() == Some(b'.') {
            self.position += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.position += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.position += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.position += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.position += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.position])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_documents() {
        let document = JsonValue::object([
            ("name", JsonValue::string("inv-7")),
            ("count", JsonValue::from(3u64)),
            ("ratio", JsonValue::from(0.5)),
            ("ok", JsonValue::from(true)),
            ("none", JsonValue::Null),
            (
                "items",
                JsonValue::array([JsonValue::string("a"), JsonValue::string("b")]),
            ),
        ]);
        let text = document.to_string();
        assert_eq!(
            text,
            r#"{"name":"inv-7","count":3,"ratio":0.5,"ok":true,"none":null,"items":["a","b"]}"#
        );
        assert_eq!(JsonValue::parse(&text).unwrap(), document);
    }

    #[test]
    fn bytes_serialize_as_streamed_base64() {
        let payload: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let document = JsonValue::object([("data", JsonValue::bytes(payload.clone()))]);
        let text = document.to_string();
        let mut expected = String::new();
        crate::encoding::base64_encode_into(&mut expected, &payload).unwrap();
        assert_eq!(text, format!("{{\"data\":\"{expected}\"}}"));
        // Parsing yields the string form; decoding recovers the payload.
        let parsed = JsonValue::parse(&text).unwrap();
        let encoded = parsed.get("data").and_then(JsonValue::as_str).unwrap();
        assert_eq!(crate::encoding::base64_decode(encoded).unwrap(), payload);
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let value = JsonValue::string("line\nquote\" tab\t back\\slash \u{0001}");
        let text = value.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), value);
        assert_eq!(
            JsonValue::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            JsonValue::string("Aé😀")
        );
    }

    #[test]
    fn accessors_navigate_objects() {
        let parsed = JsonValue::parse(r#"{"a":{"b":[1,2,3]},"flag":false}"#).unwrap();
        assert_eq!(
            parsed
                .get("a")
                .and_then(|a| a.get("b"))
                .and_then(|b| b.as_array())
                .map(<[JsonValue]>::len),
            Some(3)
        );
        assert_eq!(parsed.get("flag").and_then(JsonValue::as_bool), Some(false));
        assert!(parsed.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[1 2]",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn encoded_len_is_exact_and_to_json_string_preallocates() {
        let documents = [
            JsonValue::Null,
            JsonValue::from(true),
            JsonValue::from(-12.5),
            JsonValue::from(9_007_199_254_740_991.0),
            JsonValue::Number(f64::NAN),
            JsonValue::string("line\nquote\" tab\t \u{0001} é😀"),
            JsonValue::bytes(vec![0u8, 1, 2, 3, 4]),
            JsonValue::object([
                (
                    "outputs",
                    JsonValue::array([JsonValue::bytes(vec![7u8; 100])]),
                ),
                ("status", JsonValue::string("completed")),
                ("count", JsonValue::from(3u64)),
            ]),
        ];
        for document in documents {
            let via_display = document.to_string();
            assert_eq!(document.encoded_len(), via_display.len());
            let exact = document.to_json_string();
            assert_eq!(exact, via_display);
            // The capacity request is exactly the serialized length (the
            // allocator is allowed to round up, so compare lengths, not
            // capacity).
            assert!(exact.capacity() >= exact.len());
        }
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(JsonValue::parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("1.5").unwrap().as_u64(), None);
    }
}
