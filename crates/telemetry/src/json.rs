//! A small strict JSON parser — the checked-in validator for the Chrome
//! trace export and `--metrics` JSONL lines.
//!
//! Hand-rolled because the workspace is hermetic (no external crates, see
//! CHANGES.md PR 1). Strictness beats completeness here: the parser
//! rejects trailing garbage, unquoted keys, and malformed escapes, so a
//! broken exporter fails tier-1 instead of producing a file Perfetto
//! quietly mis-renders.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64, like browsers do).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys; duplicate keys rejected at parse time).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Recursive descent uses
/// stack per level, so unbounded input depth (a JSON-RPC body of a million
/// `[`) would overflow the stack and abort the process instead of failing.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("bad literal (expected {word})")))
        }
    }

    /// Parses one array or object one nesting level down.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are rejected (the exporters never
                            // emit astral-plane text).
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("surrogate \\u escape"))?;
                            s.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // Copy the run of plain characters up to the next quote,
                    // escape or control byte. Those are all ASCII, so the run
                    // ends on a char boundary of the (already valid) input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    s.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

/// Parses `input` as a single JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Validates a Chrome `trace_event` document: a top-level object with a
/// `traceEvents` array in which every event carries the required fields
/// (`name`, `ph`, `pid`, `tid`, and `ts` for non-metadata phases; complete
/// events additionally need `dur`). Returns the event count.
pub fn validate_chrome_trace(input: &str) -> Result<usize, String> {
    let doc = parse(input)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    for (i, e) in events.iter().enumerate() {
        let at = |k: &str| e.get(k).ok_or(format!("event {i}: missing {k:?}"));
        let ph = at("ph")?.as_str().ok_or(format!("event {i}: ph not a string"))?;
        at("name")?.as_str().ok_or(format!("event {i}: name not a string"))?;
        at("pid")?.as_num().ok_or(format!("event {i}: pid not a number"))?;
        at("tid")?.as_num().ok_or(format!("event {i}: tid not a number"))?;
        match ph {
            "M" => {} // metadata events carry no timestamp
            "X" => {
                at("ts")?.as_num().ok_or(format!("event {i}: ts not a number"))?;
                at("dur")?.as_num().ok_or(format!("event {i}: dur not a number"))?;
            }
            "C" | "i" | "B" | "E" => {
                at("ts")?.as_num().ok_or(format!("event {i}: ts not a number"))?;
            }
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":null,"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "{'a':1}",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "[1 2]",
            "\"\\q\"",
            "{\"a\":1,\"a\":2}",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let deep = "[".repeat(1_000_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.contains("nesting deeper than 128"), "{e}");
        let objs = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objs).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok(), "exactly MAX_DEPTH levels parse");
    }

    #[test]
    fn megabyte_escaped_string_round_trips() {
        let unit = "plain \"quoted\" back\\slash\nnew\tline é ✓ 🦀 \u{1}";
        let original = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(original.len() >= 1 << 20);
        let mut doc = String::from("[\"");
        for c in original.chars() {
            match c {
                '"' => doc.push_str("\\\""),
                '\\' => doc.push_str("\\\\"),
                '\n' => doc.push_str("\\n"),
                '\t' => doc.push_str("\\t"),
                c if (c as u32) < 0x20 => doc.push_str(&format!("\\u{:04x}", c as u32)),
                c => doc.push(c),
            }
        }
        doc.push_str("\"]");
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.as_arr().unwrap()[0].as_str(), Some(original.as_str()));
    }

    #[test]
    fn validates_a_minimal_chrome_trace() {
        let ok = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"core0"}},
            {"name":"ldr","ph":"X","pid":0,"tid":2,"ts":10,"dur":4},
            {"name":"rob","ph":"C","pid":0,"tid":9,"ts":0,"args":{"value":3}}
        ]}"#;
        assert_eq!(validate_chrome_trace(ok), Ok(3));
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        assert!(validate_chrome_trace(r#"{"events":[]}"#).is_err());
    }
}
