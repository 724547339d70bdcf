//! A minimal JSON reader/writer for the topology exchange format.
//!
//! The workspace builds offline, so `serde`/`serde_json` are not
//! available; the topology dictionary is the only JSON surface in the
//! system and needs exactly objects, arrays, strings, numbers and bools.
//! The writer pretty-prints with two-space indentation (matching what
//! `serde_json::to_string_pretty` produced for the same schema), and the
//! reader is a strict recursive-descent parser that rejects trailing
//! garbage and nesting deeper than [`MAX_DEPTH`].

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; the topology schema only uses
    /// small integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as u32, if this is a non-negative integer.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as u32)
            }
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The reader recurses
/// once per level, so without a cap one request line of `[`s overflows
/// the stack and aborts the process. Every document this system reads
/// nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!("unexpected {other:?} at byte {pos}", pos = *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = parse_hex4(b, pos)?;
                        // Surrogate pair: a high half must be followed by
                        // `\uDC00..\uDFFF`, combining into one scalar.
                        if (0xd800..0xdc00).contains(&code) {
                            if b.get(*pos) != Some(&b'\\') || b.get(*pos + 1) != Some(&b'u') {
                                return Err("unpaired high surrogate".into());
                            }
                            *pos += 2;
                            let low = parse_hex4(b, pos)?;
                            if !(0xdc00..0xe000).contains(&low) {
                                return Err("invalid low surrogate".into());
                            }
                            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        }
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("invalid code point \\u{{{code:x}}}"))?;
                        out.push(c);
                    }
                    other => return Err(format!("bad escape \\{}", *other as char)),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are valid).
                let s = &b[*pos..];
                let ch_len = std::str::from_utf8(s)
                    .map_err(|e| e.to_string())?
                    .chars()
                    .next()
                    .map(char::len_utf8)
                    .unwrap_or(1);
                out.push_str(std::str::from_utf8(&s[..ch_len]).unwrap());
                *pos += ch_len;
            }
        }
    }
}

/// Reads exactly four hex digits at `pos`.
fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = b
        .get(*pos..*pos + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or("bad \\u escape")?;
    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
    *pos += 4;
    Ok(code)
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' but found {other:?}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => return Err(format!("expected ',' or '}}' but found {other:?}")),
        }
    }
}

/// Escapes and quotes a string for JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An incremental writer for single-line JSON objects — the shape every
/// fleetd `{"event":...}` line and result line uses. Each field method
/// escapes its value through [`quote`], so ad-hoc event kinds can't
/// silently emit invalid JSON the way hand-assembled `format!` strings
/// could. Builder-by-value so call sites chain:
///
/// ```
/// use topo_model::json::ObjBuilder;
/// let line = ObjBuilder::event("reject")
///     .str("reason", "bad_request")
///     .u64("line", 3)
///     .finish();
/// assert_eq!(line, r#"{"event":"reject","reason":"bad_request","line":3}"#);
/// ```
#[derive(Debug, Default)]
pub struct ObjBuilder {
    buf: String,
    any: bool,
}

impl ObjBuilder {
    /// An empty object.
    pub fn new() -> Self {
        ObjBuilder::default()
    }

    /// An object opening with `"event":"<kind>"` — the fleetd line
    /// convention.
    pub fn event(kind: &str) -> Self {
        ObjBuilder::new().str("event", kind)
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push_str(&quote(key));
        self.buf.push(':');
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push_str(&quote(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field with `decimals` places.
    pub fn f64(mut self, key: &str, value: f64, decimals: usize) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value:.decimals$}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value verbatim (for nested objects or
    /// arrays built elsewhere). The caller vouches for its validity.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, {"b": "x\ny"}], "c": true, "d": null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u32(), Some(1));
        assert_eq!(arr[1], Json::Num(2.5));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // One 50,000-bracket request line used to abort the daemon.
        assert!(parse(&"[".repeat(50_000)).is_err());
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\n""#);
        let round = parse(&quote("weird \u{1} – ok")).unwrap();
        assert_eq!(round.as_str(), Some("weird \u{1} – ok"));
    }

    #[test]
    fn builder_escapes_and_round_trips() {
        let line = ObjBuilder::event("reject")
            .str("reason", "bad \"quote\"\nline")
            .u64("n", 42)
            .f64("ms", 1.2345, 2)
            .bool("ok", false)
            .raw("nested", r#"{"a":[1,2]}"#)
            .finish();
        let v = parse(&line).expect("builder output must parse");
        assert_eq!(v.get("event").unwrap().as_str(), Some("reject"));
        assert_eq!(
            v.get("reason").unwrap().as_str(),
            Some("bad \"quote\"\nline")
        );
        assert_eq!(v.get("n").unwrap().as_u32(), Some(42));
        assert_eq!(v.get("ms"), Some(&Json::Num(1.23)));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("nested")
                .unwrap()
                .get("a")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
        assert_eq!(ObjBuilder::new().finish(), "{}");
    }

    #[test]
    fn as_u32_bounds() {
        assert_eq!(parse("7").unwrap().as_u32(), Some(7));
        assert_eq!(parse("-1").unwrap().as_u32(), None);
        assert_eq!(parse("1.5").unwrap().as_u32(), None);
    }

    #[test]
    fn surrogate_pairs_decode_and_strays_error() {
        // \ud83d\ude00 is the surrogate-pair spelling of 😀.
        let v = parse(r#""R\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("R😀"));
        // Raw (non-escaped) UTF-8 passes through untouched too.
        assert_eq!(parse("\"R😀\"").unwrap().as_str(), Some("R😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(parse(r#""\ud83dx""#).is_err());
        assert!(parse(r#""\udc00""#).is_err(), "stray low surrogate");
        // Plain BMP escapes still work.
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
    }
}
