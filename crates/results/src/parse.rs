//! A small strict JSON parser.
//!
//! Reads reports (`results/*.json`, checkpoint records) back into
//! [`Value`] for the dashboard, for resuming and for the golden tests to
//! validate emitted output. Strict RFC 8259: no comments,
//! no trailing commas, one top-level value.

use crate::Value;
use std::fmt;

/// Parse failure: byte offset plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Parse one JSON document; trailing whitespace is allowed, trailing
    /// content is an error.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after JSON value"));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
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
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next escape, quote or
                    // control byte in one shot. The input is `&str`, so
                    // slicing at these ASCII boundaries is UTF-8 safe.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("input is &str and run boundaries are ASCII");
                    out.push_str(run);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let unit = self.hex4()?;
        // Surrogate pairs: a high surrogate must be followed by \uXXXX low.
        if (0xD800..=0xDBFF).contains(&unit) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&low) {
                    let c = 0x10000 + ((unit as u32 - 0xD800) << 10) + (low as u32 - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..=0xDFFF).contains(&unit) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(unit as u32).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u16::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if is_float {
            let f: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
            if !f.is_finite() {
                return Err(self.err("number out of range"));
            }
            Ok(Value::Float(f))
        } else {
            // Integer syntax; overflow degrades to float like most readers.
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                Err(_) => {
                    let f: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
                    Ok(Value::Float(f))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("-17").unwrap(), Value::Int(-17));
        assert_eq!(Value::parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::parse(r#""hi""#).unwrap(), Value::from("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0], Value::Int(1));
        assert_eq!(a[1].get("b"), Some(&Value::Null));
    }

    #[test]
    fn decodes_escapes_and_surrogates() {
        assert_eq!(
            Value::parse(r#""a\n\t\"\\\u00e9\ud83d\ude00""#).unwrap(),
            Value::from("a\n\t\"\\\u{e9}\u{1F600}")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1 2]",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "\"\\ud800\"",
            "nullx",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn long_plain_strings_roundtrip() {
        // The fast path copies unescaped runs in one shot; make sure a
        // large string with interleaved escapes and multi-byte chars
        // survives intact.
        let body = "abcdefgh\u{e9}\u{1F600}".repeat(4096);
        let s = format!("{body}\"quoted\"\n{body}");
        let v = Value::from(s.clone());
        assert_eq!(Value::parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn roundtrips_writer_output() {
        let v = Value::object()
            .with("name", "x\"y\\z\n")
            .with("nums", vec![Value::Int(3), Value::Float(0.25), Value::Null])
            .with("nested", Value::object().with("ok", true));
        assert_eq!(Value::parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(Value::parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn reads_the_committed_baseline_shape() {
        let text = r#"{
  "bench": "pipeline-scheduler-throughput",
  "workloads": [
    {"workload": "alu-chain", "event_driven_instrs_per_sec": 10309745, "speedup": 15.23}
  ]
}"#;
        let v = Value::parse(text).unwrap();
        let w = &v.get("workloads").and_then(Value::as_array).unwrap()[0];
        assert_eq!(
            w.get("event_driven_instrs_per_sec").and_then(Value::as_f64),
            Some(10309745.0)
        );
    }
}
