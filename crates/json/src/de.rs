//! A strict, recursive-descent JSON parser.

use crate::error::ParseJsonError;
use crate::value::{Map, Number, Value};

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub(crate) fn parse(input: &str) -> Result<Value, ParseJsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseJsonError {
        ParseJsonError::new(msg, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseJsonError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(msg))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseJsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &'static str, v: Value) -> Result<Value, ParseJsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn parse_object(&mut self) -> Result<Value, ParseJsonError> {
        self.expect(b'{', "expected '{'")?;
        self.depth += 1;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
        self.depth -= 1;
        Ok(Value::Object(map))
    }

    fn parse_array(&mut self) -> Result<Value, ParseJsonError> {
        self.expect(b'[', "expected '['")?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
        self.depth -= 1;
        Ok(Value::Array(items))
    }

    fn parse_string(&mut self) -> Result<String, ParseJsonError> {
        self.expect(b'"', "expected string")?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{08}'),
                    Some(b'f') => s.push('\u{0c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        } else {
                            char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                        };
                        s.push(c);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) if b < 0x80 => s.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: copy the sequence verbatim. The input
                    // was a &str, so it is guaranteed valid.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    s.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8 sequence"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseJsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after decimal point"));
            }
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
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scanner above only advanced over ASCII, so this cannot fail;
        // it is still a typed error, not a panic.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseJsonError::new("invalid number", start))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::UInt(u)));
            }
        }
        // `f64::from_str` rounds a magnitude past `f64::MAX` to infinity,
        // which `Value` would write back as `null`; one below the smallest
        // subnormal rounds to zero, which is the nearest value.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Number(Number::Float(f))),
            _ => Err(ParseJsonError::new("number out of range", start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn parses_scalars() {
        assert_eq!("null".parse::<Value>().unwrap(), Value::Null);
        assert_eq!("true".parse::<Value>().unwrap(), Value::Bool(true));
        assert_eq!("-42".parse::<Value>().unwrap(), Value::from(-42));
        assert_eq!(
            "18446744073709551615".parse::<Value>().unwrap(),
            Value::from(u64::MAX)
        );
        assert_eq!("1.5e3".parse::<Value>().unwrap(), Value::from(1500.0));
        assert_eq!("\"hi\"".parse::<Value>().unwrap(), Value::from("hi"));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v: Value = r#""a\n\té😀""#.parse().unwrap();
        assert_eq!(v.as_str(), Some("a\n\té😀"));
        let v: Value = "\"caña\"".parse().unwrap();
        assert_eq!(v.as_str(), Some("caña"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "\"",
            "[1]x",
            "{\"a\" 1}",
            "nan",
        ] {
            assert!(bad.parse::<Value>().is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_unpaired_surrogates() {
        assert!(r#""\ud800""#.parse::<Value>().is_err());
        assert!(r#""\ud800A""#.parse::<Value>().is_err());
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(deep.parse::<Value>().is_err());
    }

    #[test]
    fn hostile_documents_parse_or_fail_typed() {
        let deep_arrays = "[".repeat(100_000);
        let deep_objects = r#"{"a":"#.repeat(200) + "1" + &"}".repeat(200);
        let long = "x".repeat(5_000_000);
        let long_doc = format!("\"{long}\"");
        let err = |msg, offset| Err(ParseJsonError::new(msg, offset));
        let cases = [
            (&deep_arrays[..], err("maximum nesting depth exceeded", 128)),
            (&deep_objects, err("maximum nesting depth exceeded", 640)),
            // Integers past 64 bits read as floats.
            ("18446744073709551616", Ok(Value::from(2f64.powi(64)))),
            ("-9223372036854775809", Ok(Value::from(-(2f64.powi(63))))),
            // Magnitudes past `f64::MAX` are out of range; below the
            // smallest subnormal, they read as zero.
            ("1e400", err("number out of range", 0)),
            ("[-1e400]", err("number out of range", 1)),
            ("1.7976931348623157e309", err("number out of range", 0)),
            ("1e-400", Ok(Value::from(0.0))),
            (r#""\ud800""#, err("unpaired surrogate", 8)),
            (r#""\udc00""#, err("invalid code point", 7)),
            (r#""\udc00\ud800""#, err("invalid code point", 7)),
            (r#""\u12""#, err("invalid hex digit in \\u escape", 6)),
            (r#""\u12"#, err("truncated \\u escape", 5)),
            ("\"a\u{1}b\"", err("control character in string", 3)),
            (&long_doc, Ok(Value::from(long.as_str()))),
            ("\u{feff}{}", err("unexpected character", 0)),
        ];
        for (text, expect) in cases {
            let got = std::panic::catch_unwind(|| text.parse::<Value>());
            let shown: String = text.chars().take(24).collect();
            assert!(got.as_ref().ok() == Some(&expect), "{shown:?}: {got:?}");
        }
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v: Value = r#"{"a":1,"a":2}"#.parse().unwrap();
        assert_eq!(v["a"], Value::from(2));
        assert_eq!(v.as_object().unwrap().len(), 1);
    }

    #[test]
    fn whitespace_everywhere() {
        let v: Value = " { \"a\" : [ 1 , 2 ] } ".parse().unwrap();
        assert_eq!(v, json!({"a": [1, 2]}));
    }

    // Deterministic random-document roundtrips (offline stand-in for
    // proptest). The generator below is a tiny self-contained xorshift64*
    // stream so mbp-json keeps zero dependencies, dev or otherwise.
    struct TestRng(u64);

    impl TestRng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, bound: u64) -> u64 {
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }

    fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
        let containers_allowed = depth < 4;
        match rng.below(if containers_allowed { 9 } else { 7 }) {
            0 => Value::Null,
            1 => Value::from(rng.next_u64() & 1 == 0),
            2 => Value::from(rng.next_u64() as i64),
            3 => Value::from(rng.next_u64()),
            4 => Value::from((rng.next_u64() % 2_000_000_000_000) as f64 - 1e12),
            5 => {
                // Printable ASCII, including spaces, quotes and backslashes.
                let n = rng.below(13);
                Value::from(
                    (0..n)
                        .map(|_| (b' ' + rng.below(95) as u8) as char)
                        .collect::<String>(),
                )
            }
            6 => {
                // Arbitrary unicode scalar values, escapes and surrogates
                // pairs included.
                let n = rng.below(9);
                Value::from(
                    (0..n)
                        .filter_map(|_| char::from_u32(rng.below(0x11_0000) as u32))
                        .collect::<String>(),
                )
            }
            7 => Value::from(
                (0..rng.below(6))
                    .map(|_| arb_value(rng, depth + 1))
                    .collect::<Vec<_>>(),
            ),
            _ => Value::Object(
                (0..rng.below(6))
                    .map(|i| {
                        let len = 1 + rng.below(6);
                        let key: String = (0..len)
                            .map(|_| (b'a' + rng.below(26) as u8) as char)
                            .chain(std::iter::once((b'0' + i as u8) as char))
                            .collect();
                        (key, arb_value(rng, depth + 1))
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn compact_roundtrip() {
        let mut rng = TestRng(0x4a50_0001);
        for _ in 0..256 {
            let v = arb_value(&mut rng, 0);
            let text = v.to_compact_string();
            let back: Value = text.parse().unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn pretty_roundtrip() {
        let mut rng = TestRng(0x4a50_0002);
        for _ in 0..256 {
            let v = arb_value(&mut rng, 0);
            let text = v.to_pretty_string();
            let back: Value = text.parse().unwrap();
            assert_eq!(back, v);
        }
    }
}
