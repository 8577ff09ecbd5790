//! The repo's one JSON layer: a parser, a streaming writer and a
//! structural schema checker.
//!
//! The offline build has no `serde_json`. [`JsonValue::parse`] reads a
//! document into a tree (objects sort their keys in a `BTreeMap`,
//! numbers stay `f64`, nesting is bounded by [`MAX_DEPTH`]).
//! [`Writer`] emits one: it owns commas, quoting, string escaping and
//! number spelling, writes keys in call order and integers exactly, so
//! every emitter's bytes are a pure function of its calls.
//! [`check_schema`] covers the subset of JSON Schema the repo's
//! checked-in schemas use: `type`, `required`, `properties` and
//! `items`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The
/// repo's own documents nest at most 11 levels (the report schema); the
/// bound keeps a hostile spec or snapshot header from overflowing the
/// stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (keys sorted; duplicate keys keep the last value).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses one JSON document (rejecting trailing bytes).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Member lookup for objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements when this is an array; `None` otherwise.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string when this is a string; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number when this is a number; `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Name of this value's JSON type (for schema errors).
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }
}

/// A streaming JSON emitter.
///
/// Containers are written through closures, so every document it
/// produces is balanced; inside an object each value follows a
/// [`Writer::key`]. There are no options: keys come out in call order,
/// integers exactly, a finite `f64` in Rust's shortest round-trip `{}`
/// form and a non-finite one as `null`; strings escape `"`, `\` and
/// control characters (as `\u00XX`) and pass everything else through.
///
/// ```
/// use beacon_sim::json::Writer;
///
/// let mut w = Writer::new();
/// w.object(|w| {
///     w.key("name").str("a\"b");
///     w.key("runs").objects([3, 5], |w, n| w.key("n").u64(n));
///     w.key("empty").array(|_| {});
///     w.key("mean").f64(f64::NAN);
/// });
/// let json = r#"{"name":"a\"b","runs":[{"n":3},{"n":5}],"empty":[],"mean":null}"#;
/// assert_eq!(w.finish(), json);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// The next value or key needs a separating comma.
    comma: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The written document.
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Writer)) {
        self.container('{', '}', body);
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Writer)) {
        self.container('[', ']', body);
    }

    /// Writes an array of one object per item; `members` writes each
    /// object's members.
    pub fn objects<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut members: impl FnMut(&mut Writer, T),
    ) {
        self.array(|w| {
            for item in items {
                w.object(|w| members(w, item));
            }
        });
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer)) {
        self.sep();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.str(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes a string.
    pub fn str(&mut self, v: &str) {
        self.sep();
        self.out.push('"');
        let mut start = 0;
        // The escaped bytes are ASCII, so every cut is a char boundary.
        for (i, b) in v.bytes().enumerate() {
            if b == b'"' || b == b'\\' || b < 0x20 {
                self.out.push_str(&v[start..i]);
                match b {
                    b'"' => self.out.push_str("\\\""),
                    b'\\' => self.out.push_str("\\\\"),
                    _ => self.out.push_str(&format!("\\u{b:04x}")),
                }
                start = i + 1;
            }
        }
        self.out.push_str(&v[start..]);
        self.out.push('"');
    }

    /// Writes an unsigned integer exactly.
    pub fn u64(&mut self, v: u64) {
        self.sep();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a signed integer exactly.
    pub fn i64(&mut self, v: i64) {
        self.sep();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a finite float in shortest round-trip form, anything else
    /// as `null`.
    pub fn f64(&mut self, v: f64) {
        self.sep();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
    }
}

/// Checks `value` against a structural `schema` (itself a parsed JSON
/// document) supporting `type` (string), `required` (array of keys),
/// `properties` (object of sub-schemas) and `items` (sub-schema applied
/// to every element). Unknown keywords are ignored; `integer` accepts
/// only whole numbers. Errors name the offending JSON path.
pub fn check_schema(value: &JsonValue, schema: &JsonValue) -> Result<(), String> {
    check_at(value, schema, "$")
}

fn check_at(value: &JsonValue, schema: &JsonValue, path: &str) -> Result<(), String> {
    if let Some(ty) = schema.get("type").and_then(JsonValue::as_str) {
        let ok = match ty {
            "object" => matches!(value, JsonValue::Object(_)),
            "array" => matches!(value, JsonValue::Array(_)),
            "string" => matches!(value, JsonValue::String(_)),
            "number" => matches!(value, JsonValue::Number(_)),
            "integer" => matches!(value, JsonValue::Number(n) if n.fract() == 0.0),
            "boolean" => matches!(value, JsonValue::Bool(_)),
            "null" => matches!(value, JsonValue::Null),
            other => return Err(format!("{path}: unsupported schema type {other:?}")),
        };
        if !ok {
            return Err(format!("{path}: expected {ty}, got {}", value.type_name()));
        }
    }
    if let Some(JsonValue::Array(required)) = schema.get("required") {
        for key in required {
            let key = key
                .as_str()
                .ok_or_else(|| format!("{path}: non-string entry in required"))?;
            if value.get(key).is_none() {
                return Err(format!("{path}: missing required member {key:?}"));
            }
        }
    }
    if let Some(JsonValue::Object(props)) = schema.get("properties") {
        for (key, sub) in props {
            if let Some(member) = value.get(key) {
                check_at(member, sub, &format!("{path}.{key}"))?;
            }
        }
    }
    if let Some(items) = schema.get("items") {
        if let JsonValue::Array(elems) = value {
            for (i, elem) in elems.iter().enumerate() {
                check_at(elem, items, &format!("{path}[{i}]"))?;
            }
        }
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth >= MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at offset {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos).map(JsonValue::String),
        Some(b't') => parse_literal(b, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null").map(|()| JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!(
            "unexpected byte {c:#04x} at offset {pos}",
            pos = *pos
        )),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut elems = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(elems));
    }
    loop {
        skip_ws(b, pos);
        elems.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(elems));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // '"'
    let mut out = String::new();
    loop {
        match b.get(*pos) {
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("bad \\u escape at offset {pos}", pos = *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| format!("bad \\u escape at offset {pos}", pos = *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at offset {pos}", pos = *pos))?;
                        // Surrogate pairs are not needed by our own
                        // emitters; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!(
                    "raw control byte in string at offset {pos}",
                    pos = *pos
                ))
            }
            Some(_) => {
                // Advance one UTF-8 scalar (input is &str, so slicing on
                // char boundaries is safe).
                let rest =
                    std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8".to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let int_digits = eat_digits(b, pos);
    if int_digits == 0 {
        return Err(format!("malformed number at offset {start}"));
    }
    if int_digits > 1 && b[int_start] == b'0' {
        return Err(format!("leading zero at offset {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(b, pos) == 0 {
            return Err(format!("malformed fraction at offset {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(b, pos) == 0 {
            return Err(format!("malformed exponent at offset {start}"));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII number");
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|e| format!("unparseable number {text:?}: {e}"))
}

fn eat_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}", pos = *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(r#"{"a":[1,2.5,-3e2,true,false,null,"s\n\"q\""],"b":{}}"#)
            .expect("valid JSON");
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 7);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[3], JsonValue::Bool(true));
        assert_eq!(a[5], JsonValue::Null);
        assert_eq!(a[6].as_str(), Some("s\n\"q\""));
        assert!(matches!(v.get("b"), Some(JsonValue::Object(_))));
    }

    #[test]
    fn decodes_unicode_escapes() {
        let v = JsonValue::parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "\"open",
            "{\"a\" 1}",
            "01",
            "01x",
            "{} x",
            "nul",
            "{\"a\":\"\\q\"}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Deep enough to overflow the stack of an unbounded parser.
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
        assert!(JsonValue::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    /// A string of low code points (ASCII, controls, Latin-1) followed
    /// by arbitrary scalar values up to U+10FFFF.
    fn text(low: Vec<u32>, high: Vec<u32>) -> String {
        low.into_iter()
            .chain(high)
            .map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn writer_round_trips_through_the_parser(
            low in prop::collection::vec(0u32..0x100, 0..24),
            high in prop::collection::vec(0x100u32..0x11_0000, 0..8),
            u in 0u64..=(1 << 53),
            i in -(1i64 << 53)..=(1 << 53),
            bits in 0u64..=u64::MAX,
        ) {
            let s = text(low, high);
            let f = f64::from_bits(bits);
            let mut w = Writer::new();
            w.array(|w| {
                w.str(&s);
                w.object(|w| w.key(&s).bool(true));
                w.u64(u);
                w.i64(i);
                for v in [f, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    w.f64(v);
                }
            });
            let number = |v: f64| if v.is_finite() { JsonValue::Number(v) } else { JsonValue::Null };
            let want = JsonValue::Array(vec![
                JsonValue::String(s.clone()),
                JsonValue::Object(BTreeMap::from([(s, JsonValue::Bool(true))])),
                JsonValue::Number(u as f64),
                JsonValue::Number(i as f64),
                number(f),
                JsonValue::Null,
                JsonValue::Null,
                JsonValue::Null,
            ]);
            prop_assert_eq!(JsonValue::parse(&w.finish()), Ok(want));
        }
    }

    #[test]
    fn schema_check_passes_and_fails_structurally() {
        let schema = JsonValue::parse(
            r#"{
              "type": "object",
              "required": ["phases"],
              "properties": {
                "phases": {
                  "type": "array",
                  "items": {
                    "type": "object",
                    "required": ["phase", "count"],
                    "properties": {
                      "phase": {"type": "string"},
                      "count": {"type": "integer"}
                    }
                  }
                }
              }
            }"#,
        )
        .unwrap();
        let good = JsonValue::parse(r#"{"phases":[{"phase":"pack","count":3}]}"#).unwrap();
        check_schema(&good, &schema).expect("conforming document");

        let missing = JsonValue::parse(r#"{"other":1}"#).unwrap();
        assert!(check_schema(&missing, &schema)
            .unwrap_err()
            .contains("phases"));

        let wrong_type = JsonValue::parse(r#"{"phases":[{"phase":7,"count":3}]}"#).unwrap();
        let err = check_schema(&wrong_type, &schema).unwrap_err();
        assert!(err.contains("$.phases[0].phase"), "got: {err}");

        let non_integer = JsonValue::parse(r#"{"phases":[{"phase":"x","count":3.5}]}"#).unwrap();
        assert!(check_schema(&non_integer, &schema).is_err());
    }
}
