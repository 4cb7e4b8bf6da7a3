//! A small, deterministic JSON value type: ordered objects, a canonical
//! writer, and a minimal recursive-descent parser.
//!
//! The writer is canonical in the sense that the same [`JsonValue`]
//! always produces the same bytes (object members keep their insertion
//! order; floats use Rust's shortest round-trip `{:?}` form), which is
//! what lets golden tests pin an exported trace byte-for-byte. The
//! parser accepts standard JSON and is used to prove exports round-trip.
//!
//! # Examples
//!
//! ```
//! use sb_obs::json::JsonValue;
//!
//! let v = JsonValue::obj([
//!     ("name", JsonValue::from("grab")),
//!     ("ts", JsonValue::from(42i64)),
//! ]);
//! let text = v.to_string();
//! assert_eq!(text, r#"{"name":"grab","ts":42}"#);
//! assert_eq!(JsonValue::parse(&text).unwrap(), v);
//! ```

use std::fmt;

/// One JSON value. Objects preserve insertion order (no sorting, no
/// hashing) so output is reproducible and diffs stay readable.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part (written without `.`).
    Int(i64),
    /// A fractional number (written in Rust's `{:?}` shortest
    /// round-trip form, which always keeps a `.` or exponent).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; members keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Int(v as i64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, JsonValue)>>(pairs: I) -> Self {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr<I: IntoIterator<Item = JsonValue>>(items: I) -> Self {
        JsonValue::Array(items.into_iter().collect())
    }

    /// Object member lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value (`Int` only — floats are kept distinct).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value of either number form.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Appends the compact form of `self` to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => {
                use fmt::Write;
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => {
                use fmt::Write;
                if v.is_finite() {
                    // `{:?}` keeps a `.0` on whole floats, so the reader
                    // can distinguish them from `Int` on round trip.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Pretty-printed form (two-space indent), equally deterministic —
    /// used for the human-facing metrics dump.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    indent(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Appends `s` as a quoted JSON string: `"`, `\` and control
/// characters escaped, everything else as is.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and the run breaks only at
                // ASCII delimiters, so this slice is valid UTF-8 too.
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // A lone surrogate cannot occur in our own
                            // output (only control characters are
                            // `\u`-escaped); map it to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        self.pos += 1; // past the 'u'
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let hex =
            std::str::from_utf8(hex).map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        if fractional {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
        } else {
            text.parse::<i64>()
                .map(JsonValue::Int)
                .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_is_canonical_and_ordered() {
        let v = JsonValue::obj([
            ("b", JsonValue::from(1u64)),
            (
                "a",
                JsonValue::arr([JsonValue::Null, JsonValue::from(true)]),
            ),
            ("f", JsonValue::from(2.0)),
        ]);
        // Insertion order is preserved; whole floats keep their ".0".
        assert_eq!(v.to_string(), r#"{"b":1,"a":[null,true],"f":2.0}"#);
        assert_eq!(v.to_string(), v.clone().to_string());
    }

    #[test]
    fn round_trips_every_value_shape() {
        let v = JsonValue::obj([
            ("null", JsonValue::Null),
            ("bool", JsonValue::from(false)),
            ("int", JsonValue::from(-42i64)),
            ("big", JsonValue::from(u64::MAX / 2)),
            ("float", JsonValue::from(0.125)),
            ("whole_float", JsonValue::from(3.0)),
            ("str", JsonValue::from("a\"b\\c\nd\te\u{1}f")),
            ("unicode", JsonValue::from("grabé ∞")),
            (
                "nest",
                JsonValue::arr([JsonValue::obj([("k", JsonValue::from("v"))])]),
            ),
            ("empty_arr", JsonValue::arr([])),
            ("empty_obj", JsonValue::obj::<&str, _>([])),
        ]);
        let text = v.to_string();
        let parsed = JsonValue::parse(&text).expect("round trip");
        assert_eq!(parsed, v);
        // And a second encode is byte-identical (stability).
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn pretty_form_parses_back_to_the_same_value() {
        let v = JsonValue::obj([
            ("a", JsonValue::from(1u64)),
            (
                "b",
                JsonValue::arr([JsonValue::from("x"), JsonValue::from(2u64)]),
            ),
        ]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parser_accepts_standard_json_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\/\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(25.0)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("A/")
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = JsonValue::parse(r#"{"x": {"y": [null, "z"]}, "n": 7}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_i64(), Some(7));
        let y = v.get("x").unwrap().get("y").unwrap().as_array().unwrap();
        assert_eq!(y[1].as_str(), Some("z"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("n").unwrap().as_str(), None);
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string(), "null");
    }
}
