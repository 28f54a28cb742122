//! The repository's JSON: one serializer, a validator and a value parser.
//!
//! The workspace is offline (`serde` is a marker shim, there is no
//! `serde_json`). [`Writer`] is the one serializer every artifact,
//! report and stream line goes through; [`validate`] accepts exactly
//! RFC-8259 JSON without building a value tree; [`parse`] builds a
//! [`Value`] tree for the consumers that need one (`obs::diff`, the
//! `cablestat` CLI).
//!
//! The writer has two layouts, fixed by the format rather than chosen by
//! a caller: [`pretty`] for committed artifacts and reports, [`line`] for
//! NDJSON records. In the pretty layout a container whose members are all
//! scalars stays on one line (`{"k": 1, "j": "x"}`, `[1, 2]`, `{}`); any
//! other container puts one member per line, indented two spaces per
//! level. The line layout is compact (`{"k":1,"j":"x"}`) and never
//! contains a newline.

use std::fmt::{self, Write as _};

/// Builds one JSON document member by member.
///
/// Open containers with [`Writer::obj`]/[`Writer::arr`], close them with
/// [`Writer::end`]; inside an object every value is preceded by a
/// [`Writer::key`] (or written with [`Writer::field`]). Values are
/// anything [`ToJson`]: integers (exact, `u64` included), `bool`,
/// strings (escaped), `f64` (`Display`; non-finite → `null`), [`Fixed`],
/// `Option` (`None` → `null`), slices, [`Value`] trees and the report
/// types that implement the trait.
#[derive(Debug)]
pub struct Writer {
    pretty: bool,
    stack: Vec<Open>,
    key: Option<String>,
    out: Option<String>,
}

/// A container being built: the key it is the value of, its rendered
/// members, and whether any member is itself a container (which decides
/// the pretty layout).
#[derive(Debug)]
struct Open {
    obj: bool,
    key: Option<String>,
    members: Vec<String>,
    nested: bool,
}

/// A value [`Writer`] can serialize.
pub trait ToJson {
    /// Writes `self` as the writer's next value.
    fn write_json(&self, w: &mut Writer);
}

/// `x` with exactly `places` decimals (`{:.places}`); non-finite → `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64, pub usize);

impl Fixed {
    /// `x` as an integer when it is integral, otherwise with `places`
    /// decimals: the number format of the diff report's deltas.
    pub fn or_int(x: f64, places: usize) -> Fixed {
        Fixed(x, if x.fract() == 0.0 { 0 } else { places })
    }
}

/// `value` as a pretty document (trailing newline included).
pub fn pretty(value: &(impl ToJson + ?Sized)) -> String {
    let mut w = Writer::pretty();
    value.write_json(&mut w);
    w.finish()
}

/// `value` as one compact NDJSON record (no newline).
pub fn line(value: &(impl ToJson + ?Sized)) -> String {
    let mut w = Writer::line();
    value.write_json(&mut w);
    w.finish()
}

impl Writer {
    /// A writer in the pretty layout (artifacts and reports).
    pub fn pretty() -> Writer {
        Writer {
            pretty: true,
            stack: Vec::new(),
            key: None,
            out: None,
        }
    }

    /// A writer in the line layout (NDJSON records).
    pub fn line() -> Writer {
        Writer {
            pretty: false,
            ..Writer::pretty()
        }
    }

    /// Opens an object as the next value.
    pub fn obj(&mut self) -> &mut Self {
        self.open(true)
    }

    /// Opens an array as the next value.
    pub fn arr(&mut self) -> &mut Self {
        self.open(false)
    }

    /// Names the next value of the enclosing object.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.key = Some(k.to_string());
        self
    }

    /// Writes one value.
    pub fn val(&mut self, v: impl ToJson) -> &mut Self {
        v.write_json(self);
        self
    }

    /// `key(k)` then `val(v)`.
    pub fn field(&mut self, k: &str, v: impl ToJson) -> &mut Self {
        self.key(k).val(v)
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        let o = self
            .stack
            .pop()
            .expect("json::Writer: end() without an open container");
        assert!(
            self.key.is_none(),
            "json::Writer: a key without a value at end()"
        );
        let (open, close) = if o.obj { ('{', '}') } else { ('[', ']') };
        let text = if self.pretty && o.nested {
            let pad = "  ".repeat(self.stack.len());
            let members = o.members.join(&format!(",\n{pad}  "));
            format!("{open}\n{pad}  {members}\n{pad}{close}")
        } else {
            let members = o.members.join(if self.pretty { ", " } else { "," });
            format!("{open}{members}{close}")
        };
        self.key = o.key;
        self.push(text, true);
        self
    }

    /// The finished document; the pretty layout ends with a newline.
    pub fn finish(self) -> String {
        assert!(
            self.stack.is_empty(),
            "json::Writer: finish() with open containers"
        );
        let out = self.out.expect("json::Writer: finish() before any value");
        if self.pretty {
            out + "\n"
        } else {
            out
        }
    }

    fn open(&mut self, obj: bool) -> &mut Self {
        let key = self.key.take();
        self.stack.push(Open {
            obj,
            key,
            members: Vec::new(),
            nested: false,
        });
        self
    }

    /// Writes `text`, the rendering of `x`, or `null` if `x` is not finite.
    fn number(&mut self, x: f64, text: String) {
        self.push(if x.is_finite() { text } else { "null".into() }, false);
    }

    /// Appends a rendered value to the open container (or makes it the
    /// document), prefixed with its key inside an object.
    fn push(&mut self, text: String, container: bool) {
        let (key, colon) = (self.key.take(), if self.pretty { ": " } else { ":" });
        let Some(top) = self.stack.last_mut() else {
            assert!(
                self.out.is_none() && key.is_none(),
                "json::Writer: one keyless top-level value"
            );
            self.out = Some(text);
            return;
        };
        assert_eq!(
            top.obj,
            key.is_some(),
            "json::Writer: object members need a key, elements none"
        );
        top.nested |= container;
        top.members.push(match key {
            Some(k) => escape(&k) + colon + &text,
            None => text,
        });
    }
}

/// `s` as a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

macro_rules! to_json_by_display {
    ($($t:ty)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.push(self.to_string(), false);
            }
        }
    )*};
}
to_json_by_display!(u32 u64 usize bool);

impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.push(escape(self), false);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.push(escape(self), false);
    }
}

impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        w.number(*self, self.to_string());
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&format!("{:.*}", self.1, self.0))
    }
}

impl ToJson for Fixed {
    fn write_json(&self, w: &mut Writer) {
        w.number(self.0, self.to_string());
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.push("null".into(), false),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.arr();
        for v in self {
            v.write_json(w);
        }
        w.end();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        self.as_slice().write_json(w);
    }
}

impl ToJson for Value {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Value::Null => w.push("null".into(), false),
            Value::Bool(b) => b.write_json(w),
            Value::Num(n) => n.write_json(w),
            Value::Str(s) => s.write_json(w),
            Value::Arr(v) => v.write_json(w),
            Value::Obj(m) => {
                w.obj();
                for (k, v) in m {
                    w.field(k, v);
                }
                w.end();
            }
        }
    }
}

/// Validates that `s` is one well-formed JSON value (with nothing but
/// whitespace after it): [`parse`], with the tree dropped.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

/// Maximum container nesting depth [`parse`] accepts. The artifacts nest
/// a handful of levels; the bound exists so adversarial or corrupt input
/// (`[[[[…`) fails with an error instead of exhausting the stack — the
/// parser recurses per nesting level.
pub const MAX_DEPTH: usize = 128;

/// Converts a byte offset in `s` (as reported in [`validate`]/[`parse`]
/// errors) to 1-based `(line, column)`, for human-addressable error
/// reporting (`cablestat check`).
pub fn line_col(s: &str, byte: usize) -> (usize, usize) {
    let upto = &s.as_bytes()[..byte.min(s.len())];
    let line = upto.iter().filter(|&&c| c == b'\n').count() + 1;
    let col = upto.len() - upto.iter().rposition(|&c| c == b'\n').map_or(0, |p| p + 1) + 1;
    (line, col)
}

/// A JSON number, kept as the token it was written as. The artifacts
/// carry full-range `u64` digests, checksums and fingerprints, which an
/// `f64` would round; a token loses nothing, and writing it back emits
/// the same text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Num(String);

impl Num {
    /// The number as an `f64` (rounded as any parse of the token is).
    pub fn to_f64(&self) -> f64 {
        self.0
            .parse()
            .expect("a validated JSON number parses as f64")
    }

    /// The number as a non-negative integer, if it is one exactly: an
    /// integer token up to `u64::MAX`, or an integral `f64` token
    /// (`3.0`, `1e3`) up to 2^53.
    pub fn to_u64(&self) -> Option<u64> {
        self.0.parse().ok().or_else(|| {
            let x = self.to_f64();
            (x >= 0.0 && x.fract() == 0.0 && x <= (1u64 << 53) as f64).then_some(x as u64)
        })
    }

    /// The token as written.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<u64> for Num {
    fn from(x: u64) -> Num {
        Num(x.to_string())
    }
}

impl From<f64> for Num {
    /// `x` as `Display` prints it (no exponent); `x` must be finite.
    fn from(x: f64) -> Num {
        assert!(x.is_finite(), "json::Num from a non-finite f64");
        Num(x.to_string())
    }
}

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&self.0)
    }
}

impl ToJson for Num {
    fn write_json(&self, w: &mut Writer) {
        w.push(self.0.clone(), false);
    }
}

/// A parsed JSON value.
///
/// Object members keep their document order (a `Vec` of pairs, not a
/// map), and numbers their tokens ([`Num`]), so writing a parsed document
/// back reproduces it and diffs walk both documents in a stable order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as its token.
    Num(Num),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly
    /// ([`Num::to_u64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.to_u64(),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The member `key` as an exact non-negative integer
    /// ([`Value::as_u64`]), or an error naming it: the field access of
    /// the readers that rebuild a typed report from its document.
    pub fn u64_at(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing {key}"))
    }

    /// Each element of the array member `key`, read by `read`; an error
    /// is prefixed with the element's path (`pages[3]: missing faults`).
    pub fn each<T>(
        &self,
        key: &str,
        read: impl Fn(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let arr = self
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("missing {key}"))?;
        arr.iter()
            .enumerate()
            .map(|(i, x)| read(x).map_err(|e| format!("{key}[{i}]: {e}")))
            .collect()
    }
}

/// Parses one JSON document into a [`Value`] tree.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0, depth: 0 };
    p.ws();
    let v = p.build()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        Ok(())
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{} at byte {}", what, self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    /// Parses one value, building the tree ([`parse`]'s workhorse).
    fn build(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                self.descend()?;
                self.eat(b'{')?;
                self.ws();
                let mut m = Vec::new();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.build_string()?;
                    self.ws();
                    self.eat(b':')?;
                    self.ws();
                    let v = self.build()?;
                    m.push((k, v));
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            self.depth -= 1;
                            return Ok(Value::Obj(m));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'[') => {
                self.descend()?;
                self.eat(b'[')?;
                self.ws();
                let mut v = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(v));
                }
                loop {
                    self.ws();
                    v.push(self.build()?);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            self.depth -= 1;
                            return Ok(Value::Arr(v));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(self.build_string()?)),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                self.number()?;
                // `number` accepted ASCII digits, signs, `.` and `e` only.
                let text = String::from_utf8_lossy(&self.b[start..self.i]);
                Ok(Value::Num(Num(text.into_owned())))
            }
            _ => self.err("expected a JSON value"),
        }
    }

    /// Validates and decodes one string literal.
    fn build_string(&mut self) -> Result<String, String> {
        let start = self.i;
        self.string()?;
        let raw = std::str::from_utf8(&self.b[start + 1..self.i - 1])
            .map_err(|_| format!("non-utf8 string at byte {start}"))?;
        if !raw.contains('\\') {
            return Ok(raw.to_string());
        }
        let mut out = String::with_capacity(raw.len());
        let mut it = raw.chars();
        while let Some(c) = it.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match it.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (&mut it).take(4).collect();
                    let cp = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape in string at byte {start}"))?;
                    // Surrogate halves (already validated as hex) decode to
                    // the replacement character; the artifacts never emit
                    // them.
                    out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                }
                _ => return Err(format!("bad escape in string at byte {start}")),
            }
        }
        Ok(out)
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(h) if h.is_ascii_hexdigit() => self.i += 1,
                                    _ => return self.err("bad \\u escape"),
                                }
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                0x00..=0x1F => return self.err("raw control character in string"),
                _ => self.i += 1,
            }
        }
        self.err("unterminated string")
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            _ => return self.err("expected a digit"),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                return self.err("expected a fraction digit");
            }
            while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                return self.err("expected an exponent digit");
            }
            while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                self.i += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e+3",
            "\"a\\n\\u00e9\"",
            "{\"a\": [1, 2, {\"b\": false}], \"c\": null}",
            "  [1]\n",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let v = parse("{\"a\": [1, 2.5, {\"b\": false}], \"c\": null, \"d\": \"x\\ny\"}").unwrap();
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("d").and_then(Value::as_str), Some("x\ny"));
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert!(matches!(&a[1], Value::Num(n) if n.to_f64() == 2.5));
        assert_eq!(a[2].get("b").and_then(Value::as_bool), Some(false));
        // Round trip is deterministic and stays valid.
        let j = line(&v);
        assert_eq!(parse(&j).unwrap(), v);
        validate(&j).unwrap();
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for bad in ["{", "[1,]", "{\"a\"}", "nul", "[1] x"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for bad in [
            "", "{", "[1,]", "{\"a\"}", "{a: 1}", "01", "1.", "\"\x01\"", "nul", "[1] x",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn rejects_truncations_of_a_valid_document() {
        // Fuzz-style: every proper prefix of a valid document must be
        // rejected by both entry points (never panic, never accept).
        let doc = "{\"a\": [1, 2.5e-3, {\"b\": [false, \"x\\u00e9\\n\"]}], \"c\": null}";
        validate(doc).unwrap();
        for cut in 1..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let t = &doc[..cut];
            assert!(validate(t).is_err(), "prefix {t:?} accepted");
            assert!(parse(t).is_err(), "prefix {t:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // One level under the cap parses; one over fails with a depth
        // error, not a stack overflow.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        validate(&ok).unwrap();
        parse(&ok).unwrap();
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(validate(&deep).unwrap_err().contains("nesting"));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        // A pathological unclosed ramp must also fail cleanly.
        let ramp = "[{\"k\":".repeat(50_000);
        assert!(validate(&ramp).is_err());
        assert!(parse(&ramp).is_err());
    }

    #[test]
    fn duplicate_keys_keep_document_order_and_get_is_first_wins() {
        // RFC 8259 leaves duplicate-key semantics to the consumer; ours
        // is documented: members keep document order, `get` returns the
        // first match. Pin it so a refactor can't silently flip it.
        let v = parse("{\"k\": 1, \"k\": 2, \"j\": 3}").unwrap();
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(1));
        let obj = v.as_obj().unwrap();
        assert_eq!(obj.len(), 3);
        assert_eq!(obj[1].1.as_u64(), Some(2));
        assert_eq!(line(&v), "{\"k\":1,\"k\":2,\"j\":3}");
    }

    #[test]
    fn bad_escapes_are_rejected_with_offsets() {
        for bad in [
            "\"\\x\"",       // unknown escape
            "\"\\u12\"",     // truncated \u
            "\"\\u12g4\"",   // non-hex \u
            "\"\\\"",        // escape then EOF
            "\"abc",         // unterminated
            "{\"a\\q\": 1}", // bad escape in a key
        ] {
            let e = validate(bad).unwrap_err();
            assert!(e.contains("byte"), "{bad:?}: error {e:?} has no offset");
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    /// `{"a": 1, "b": [1, 2], "c": {}, "d": [{"x": "y"}, []], "e": []}`.
    fn sample(w: &mut Writer) {
        w.obj()
            .field("a", 1u64)
            .key("b")
            .arr()
            .val(1u64)
            .val(2u64)
            .end();
        w.key("c").obj().end();
        w.key("d")
            .arr()
            .obj()
            .field("x", "y")
            .end()
            .arr()
            .end()
            .end();
        w.key("e").arr().end().end();
    }

    #[test]
    fn writer_layout_rule() {
        let mut w = Writer::pretty();
        sample(&mut w);
        assert_eq!(
            w.finish(),
            "{\n  \"a\": 1,\n  \"b\": [1, 2],\n  \"c\": {},\n  \"d\": [\n    {\"x\": \"y\"},\n    []\n  ],\n  \"e\": []\n}\n"
        );
        // All-scalar and empty containers stay on one line at the top too.
        assert_eq!(pretty(&[1u64, 2][..]), "[1, 2]\n");
        assert_eq!(pretty(&Vec::<u64>::new()), "[]\n");
        let mut w = Writer::pretty();
        w.obj().field("k", 1u64).field("j", "x").end();
        assert_eq!(w.finish(), "{\"k\": 1, \"j\": \"x\"}\n");
        let mut w = Writer::pretty();
        w.obj().end();
        assert_eq!(w.finish(), "{}\n");
    }

    #[test]
    fn writer_line_layout_has_no_newline() {
        let mut w = Writer::line();
        sample(&mut w);
        let s = w.finish();
        assert_eq!(s, r#"{"a":1,"b":[1,2],"c":{},"d":[{"x":"y"},[]],"e":[]}"#);
        assert!(!s.contains('\n'));
        let text = line(&Value::Str("a\nb".into()));
        assert!(!text.contains('\n'));
        assert_eq!(parse(&text).unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn writer_integers_are_exact() {
        let mut w = Writer::pretty();
        w.obj()
            .field("max", u64::MAX)
            .field("big", (1u64 << 53) + 1)
            .end();
        assert_eq!(
            w.finish(),
            "{\"max\": 18446744073709551615, \"big\": 9007199254740993}\n"
        );
    }

    #[test]
    fn numbers_keep_their_tokens() {
        // Full-range u64s (a response digest here) are exact, and every
        // token is written back as it was read.
        for doc in [
            "18446744073709551615",
            "12559862624275433760",
            "{\"digest\": 12559862624275433760, \"r\": 1.500, \"e\": 2.5e-3}\n",
        ] {
            let v = parse(doc).unwrap();
            let back = if doc.ends_with('\n') {
                pretty(&v)
            } else {
                line(&v)
            };
            assert_eq!(back, doc);
        }
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        let v = parse("12559862624275433760").unwrap();
        assert_eq!(v.as_u64(), Some(12_559_862_624_275_433_760));
        assert_ne!(v, parse("12559862624275433761").unwrap());
        // Integral float tokens still read as integers; others do not.
        assert_eq!(parse("3.0").unwrap().as_u64(), Some(3));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert!(matches!(parse("2.5e-3").unwrap(), Value::Num(n) if n.to_f64() == 0.0025));
    }

    #[test]
    fn writer_strings_round_trip() {
        let nasty = "q\"uote b\\ack n\nl r\rt\tab nul\u{0} bell\u{7} us\u{1f} é";
        for text in [pretty(nasty), line(nasty)] {
            validate(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(parse(&text).unwrap(), Value::Str(nasty.into()));
        }
        // As keys too.
        let mut w = Writer::line();
        w.obj().field(nasty, 1u64).end();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get(nasty).and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn writer_numbers() {
        assert_eq!(line(&Fixed(1.0, 3)), "1.000");
        assert_eq!(line(&Fixed(2.345_6, 2)), "2.35");
        assert_eq!(line(&Fixed(0.9996, 3)), "1.000");
        assert_eq!(line(&Fixed(-1.994, 2)), "-1.99");
        assert_eq!(line(&Fixed::or_int(7.0, 4)), "7");
        assert_eq!(line(&Fixed::or_int(0.5, 4)), "0.5000");
        assert_eq!(line(&0.1f64), "0.1");
        assert_eq!(line(&3.0f64), "3");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(line(&bad), "null");
            assert_eq!(line(&Fixed(bad, 2)), "null");
            assert_eq!(line(&Fixed::or_int(bad, 2)), "null");
        }
        assert_eq!(line(&None::<u64>), "null");
        assert_eq!(line(&Some(3u64)), "3");
    }

    #[test]
    fn line_col_addresses_offsets() {
        let doc = "{\n  \"a\": 1,\n  \"b\": oops\n}";
        let e = validate(doc).unwrap_err();
        let byte: usize = e.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(line_col(doc, byte), (3, 8));
        assert_eq!(line_col(doc, 0), (1, 1));
        assert_eq!(line_col(doc, doc.len() + 99), (4, 2));
    }
}
