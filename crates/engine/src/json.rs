//! The workspace's JSON wire format: scenario files in, reports and sweep
//! state out.
//!
//! One module owns the format so that it is decided once:
//!
//! * [`Value`] — a document tree. Integers keep all of `u64` / `i64`;
//!   objects keep member order.
//! * [`parse`] — a strict reader (no trailing commas, no duplicate keys, no
//!   out-of-range numbers, nothing after the document) whose [`Error`]
//!   carries line and column.
//! * [`to_string`] / [`to_string_pretty`] — the compact and the 2-space
//!   pretty writer. Floats print the shortest digits that read back to the
//!   same bits, in the layout the committed `results/*.json` already use
//!   (plain decimals from 1e-5 up to 1e16, exponents outside), so parsing
//!   one of those files and writing it back reproduces it byte for byte.
//! * [`ToJson`] / [`FromJson`] and [`json_impl!`](crate::json_impl) — typed
//!   conversion. The macro takes a type's field (or variant) list once and
//!   emits either direction or both; an absent `Option` field reads as
//!   `None`, an unknown key is an error naming it, a field's range rule
//!   ([`at_least`], [`between`], [`each`] or the type's own) is held as
//!   the field is read, enums are externally tagged (`"Quick"`,
//!   `{"Loss": {"at_ms": 0, "prob": 0.1}}`).
//!
//! A decoding error from [`from_str`] says where in the document it is
//! (`traffic.domains[2].hourly`) and at which line and column.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// An integer literal ≥ 0.
    U64(u64),
    /// An integer literal < 0.
    I64(i64),
    /// Any literal with a fraction or an exponent (and integers beyond 64
    /// bits). Non-finite values are written as `null`.
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Members in document (for built values: field) order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object; `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::U64(_) | Value::I64(_) => "an integer",
            Value::F64(_) => "a number",
            Value::Str(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Seg {
    Key(String),
    Index(usize),
}

/// Why a document could not be read, and where.
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    /// 1-based line of the offending token; 0 when the value did not come
    /// from text (see [`FromJson::from_json`]).
    pub line: usize,
    /// 1-based column, counted in characters.
    pub col: usize,
    /// What is wrong, including what was expected.
    pub what: String,
    /// Innermost segment first; empty for syntax errors and at the root.
    path: Vec<Seg>,
    /// The error is about the last path segment's key, not its value.
    on_key: bool,
}

impl Error {
    pub fn new(what: impl Into<String>) -> Error {
        Error { line: 0, col: 0, what: what.into(), path: Vec::new(), on_key: false }
    }

    fn expected(what: &str, found: &Value) -> Error {
        Error::new(format!("expected {what}, found {}", found.kind()))
    }

    /// The error happened inside member `key` of the enclosing object.
    pub fn in_key(mut self, key: &str) -> Error {
        self.path.push(Seg::Key(key.to_string()));
        self
    }

    /// The error is about member `key` itself — its name — not its value.
    pub fn at_key(mut self, key: &str) -> Error {
        self.on_key = true;
        self.in_key(key)
    }

    /// The error happened inside element `index` of the enclosing array.
    pub fn in_index(mut self, index: usize) -> Error {
        self.path.push(Seg::Index(index));
        self
    }

    /// The path from the document root to the offending value, e.g.
    /// `traffic.domains[2].hourly`; empty at the root.
    pub fn path(&self) -> String {
        let mut out = String::new();
        for seg in self.path.iter().rev() {
            match seg {
                Seg::Key(k) if out.is_empty() => out.push_str(k),
                Seg::Key(k) => {
                    out.push('.');
                    out.push_str(k);
                }
                Seg::Index(i) => out.push_str(&format!("[{i}]")),
            }
        }
        out
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: ", self.line, self.col)?;
        }
        if !self.path.is_empty() {
            write!(f, "{}: ", self.path())?;
        }
        f.write_str(&self.what)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------- parser ----

/// Nesting beyond this is refused rather than recursed into.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    src: &'a [u8],
    at: usize,
    /// Byte offset of every value and every member key, in document order —
    /// what [`locate`] turns a decoding error's path back into a position
    /// with.
    marks: Vec<usize>,
}

/// Line and column (1-based, in characters) of byte `offset` of `text`.
fn position(text: &str, offset: usize) -> (usize, usize) {
    let before = &text.as_bytes()[..offset.min(text.len())];
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    let line_start = before.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    // Continuation bytes do not start a character.
    let col = 1 + before[line_start..].iter().filter(|&&b| b & 0xC0 != 0x80).count();
    (line, col)
}

impl<'a> Parser<'a> {
    fn err(&self, offset: usize, what: impl Into<String>) -> Error {
        let (line, col) = position(self.text, offset);
        Error { line, col, ..Error::new(what) }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn document(mut self) -> Result<(Value, Vec<usize>), Error> {
        let v = self.value(0)?;
        self.skip_ws();
        if self.at < self.src.len() {
            return Err(self.err(self.at, "trailing characters after the document"));
        }
        Ok((v, self.marks))
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.at;
        self.marks.push(start);
        match self.peek() {
            None => Err(self.err(start, "unexpected end of input, expected a value")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') | Some(b'{') if depth >= MAX_DEPTH => {
                Err(self.err(start, format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(_) => Err(self.err(start, "expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.src[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err(self.at, format!("expected `{word}`")))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.at;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.at += 1;
        }
        let int_start = self.at;
        let int_len = self.digits();
        if int_len == 0 {
            return Err(self.err(self.at, "expected a digit"));
        }
        if int_len > 1 && self.src[int_start] == b'0' {
            return Err(self.err(int_start, "a number cannot have a leading zero"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            if self.digits() == 0 {
                return Err(self.err(self.at, "expected a digit after the decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if self.digits() == 0 {
                return Err(self.err(self.at, "expected a digit in the exponent"));
            }
        }
        let lit = &self.text[start..self.at];
        if integral {
            if let Ok(u) = lit.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            // `-0` is the float negative zero, not an integer.
            if let Some(i) = lit.parse::<i64>().ok().filter(|&i| i != 0) {
                return Ok(Value::I64(i));
            }
        }
        match lit.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => Err(self.err(start, format!("number `{lit}` is out of range"))),
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.text.get(self.at..self.at + 4);
        match digits
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
        {
            Some(code) => {
                self.at += 4;
                Ok(code)
            }
            None => Err(self.err(self.at, "expected four hex digits after `\\u`")),
        }
    }

    /// At an opening quote; returns the decoded contents and stops after the
    /// closing quote.
    fn string(&mut self) -> Result<String, Error> {
        let open = self.at;
        self.at += 1;
        let mut out = String::new();
        loop {
            let run = self.at;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                None => return Err(self.err(open, "unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.at;
                    self.at += 2;
                    match self.src.get(esc + 1) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code)
                                && self.src[self.at..].starts_with(b"\\u")
                            {
                                self.at += 2;
                                let low = self.hex4()?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                } else {
                                    return Err(self.err(esc, "unpaired surrogate in string"));
                                }
                            }
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err(esc, "unpaired surrogate in string")),
                            }
                        }
                        _ => return Err(self.err(esc, "unknown escape in string")),
                    }
                }
                Some(_) => return Err(self.err(self.at, "control character in string (escape it)")),
            }
        }
    }

    /// After an element: a comma (returns `true`, positioned at the next
    /// element) or the closing bracket (returns `false`).
    fn more(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.at += 1;
                self.skip_ws();
                if self.peek() == Some(close) {
                    return Err(self.err(self.at, "trailing comma"));
                }
                Ok(true)
            }
            Some(b) if b == close => {
                self.at += 1;
                Ok(false)
            }
            None => Err(self.err(self.at, "unexpected end of input inside an array or object")),
            Some(_) => Err(self.err(self.at, format!("expected `,` or `{}`", close as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            if !self.more(b']')? {
                return Ok(Value::Array(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.at += 1;
        let mut members: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Object(members));
        }
        loop {
            let key_at = self.at;
            if self.peek() != Some(b'"') {
                return Err(self.err(key_at, "expected a string key"));
            }
            self.marks.push(key_at);
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(key_at, format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err(self.at, "expected `:` after the key"));
            }
            self.at += 1;
            let value = self.value(depth + 1)?;
            members.push((key, value));
            if !self.more(b'}')? {
                return Ok(Value::Object(members));
            }
            self.skip_ws();
        }
    }
}

fn parse_marked(text: &str) -> Result<(Value, Vec<usize>), Error> {
    Parser { text, src: text.as_bytes(), at: 0, marks: Vec::new() }.document()
}

/// Read one JSON document.
pub fn parse(text: &str) -> Result<Value, Error> {
    parse_marked(text).map(|(v, _)| v)
}

/// Marks a value's subtree occupies (itself, and a key mark per member).
fn marks_in(v: &Value) -> usize {
    1 + match v {
        Value::Array(items) => items.iter().map(marks_in).sum(),
        Value::Object(members) => members.iter().map(|(_, m)| 1 + marks_in(m)).sum(),
        _ => 0,
    }
}

/// Index into the parser's marks of the value (or, with `on_key`, the key)
/// that `path` (outermost segment first) leads to. A segment that does not
/// resolve stops the walk at the value reached so far.
fn locate<'s>(root: &Value, path: impl Iterator<Item = &'s Seg>, on_key: bool) -> usize {
    let mut mark = 0;
    let mut cur = root;
    let mut path = path.peekable();
    while let Some(seg) = path.next() {
        let last = path.peek().is_none();
        match (cur, seg) {
            (Value::Array(items), Seg::Index(i)) if *i < items.len() => {
                mark += 1 + items[..*i].iter().map(marks_in).sum::<usize>();
                cur = &items[*i];
            }
            (Value::Object(members), Seg::Key(key)) => {
                let Some(i) = members.iter().position(|(k, _)| k == key) else { break };
                mark += 1 + members[..i].iter().map(|(_, m)| 1 + marks_in(m)).sum::<usize>();
                if last && on_key {
                    return mark;
                }
                mark += 1;
                cur = &members[i].1;
            }
            _ => break,
        }
    }
    mark
}

/// Give `e`, an error about a value of the document in `text`, the line and
/// column of the value (or key) its path leads to.
fn place(text: &str, value: &Value, marks: &[usize], mut e: Error) -> Error {
    let mark = locate(value, e.path.iter().rev(), e.on_key);
    (e.line, e.col) = position(text, marks[mark]);
    e
}

/// Parse `text` and decode it as a `T`; a decoding error gets the line and
/// column of the value (or key) it is about.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    let (value, marks) = parse_marked(text)?;
    T::from_json(&value).map_err(|e| place(text, &value, &marks, e))
}

/// The line and column in `text` of `e`, an error a check made after
/// [`from_str`] read `text`: the position of the value its path leads to.
pub fn position_in(text: &str, e: Error) -> Error {
    match parse_marked(text) {
        Ok((value, marks)) => place(text, &value, &marks, e),
        Err(_) => e,
    }
}

// ---------------------------------------------------------------- writer ----

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Shortest round-trip digits (std's `{:e}` finds them), laid out the way
/// the committed results are: `d…d.0` / `d.d…d` while the decimal point sits
/// within 16 digits, `0.0…0d…d` down to 1e-5, an exponent otherwise.
fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let sci = format!("{x:e}");
    let (mantissa, exp) = sci.split_once('e').expect("`{:e}` prints an exponent");
    let exp: i32 = exp.parse().expect("`{:e}` prints a decimal exponent");
    let unsigned = mantissa.trim_start_matches('-');
    if unsigned.len() < mantissa.len() {
        out.push('-');
    }
    let digits: String = unsigned.chars().filter(|&c| c != '.').collect();
    let n = digits.len() as i32;
    // Digits before the decimal point.
    let point = exp + 1;
    if (1..=16).contains(&point) {
        if n <= point {
            out.push_str(&digits);
            out.extend(std::iter::repeat_n('0', (point - n) as usize));
            out.push_str(".0");
        } else {
            out.push_str(&digits[..point as usize]);
            out.push('.');
            out.push_str(&digits[point as usize..]);
        }
    } else if (-4..=0).contains(&point) {
        out.push_str("0.");
        out.extend(std::iter::repeat_n('0', -point as usize));
        out.push_str(&digits);
    } else {
        out.push_str(unsigned);
        out.push('e');
        out.push_str(&exp.to_string());
    }
}

fn write_value(v: &Value, indent: Option<usize>, out: &mut String) {
    // `sep(level)` starts a new line at `level` in pretty mode, nothing in
    // compact mode.
    let sep = |level: usize, out: &mut String| {
        if indent.is_some() {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", level));
        }
    };
    let inner = indent.map(|l| l + 1);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::F64(x) => write_f64(*x, out),
        Value::Str(s) => write_str(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Object(members) if members.is_empty() => out.push_str("{}"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                sep(inner.unwrap_or(0), out);
                write_value(item, inner, out);
            }
            sep(indent.unwrap_or(0), out);
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                sep(inner.unwrap_or(0), out);
                write_str(key, out);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(member, inner, out);
            }
            sep(indent.unwrap_or(0), out);
            out.push('}');
        }
    }
}

/// Compact form: no whitespace at all.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&value.to_json(), None, &mut out);
    out
}

/// Pretty form: 2-space indent, one member or element per line, no trailing
/// newline.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&value.to_json(), Some(0), &mut out);
    out
}

// ------------------------------------------------------------ conversion ----

/// A type the workspace writes as JSON.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// A type the workspace reads from JSON.
pub trait FromJson: Sized {
    /// Decode from a parsed value. Errors carry a path but no line/column;
    /// [`from_str`] adds those.
    fn from_json(v: &Value) -> Result<Self, Error>;

    /// What a struct field of this type reads as when its key is absent:
    /// `None` (the default) makes the field required.
    fn absent() -> Option<Self> {
        None
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("a boolean", other)),
        }
    }
}

macro_rules! json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                Value::U64(*self as u64)
            }
        }

        impl FromJson for $ty {
            fn from_json(v: &Value) -> Result<Self, Error> {
                let what = concat!("an unsigned integer that fits ", stringify!($ty));
                match v {
                    Value::U64(u) => <$ty>::try_from(*u).map_err(|_| Error::expected(what, v)),
                    other => Err(Error::expected(what, other)),
                }
            }
        }
    )+};
}

json_uint!(u8, u16, u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Value {
        u64::try_from(*self).map_or(Value::I64(*self), Value::U64)
    }
}

impl FromJson for i64 {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::I64(i) => Ok(*i),
            Value::U64(u) => i64::try_from(*u).map_err(|_| Error::expected("an i64", v)),
            other => Err(Error::expected("an integer", other)),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::U64(u) => Ok(*u as f64),
            Value::I64(i) => Ok(*i as f64),
            other => Err(Error::expected("a number", other)),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("a string", other)),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            some => T::from_json(some).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_json(item).map_err(|e| e.in_index(i)))
                .collect(),
            other => Err(Error::expected("an array", other)),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) if items.len() == 2 => Ok((
                A::from_json(&items[0]).map_err(|e| e.in_index(0))?,
                B::from_json(&items[1]).map_err(|e| e.in_index(1))?,
            )),
            other => Err(Error::expected("an array of two", other)),
        }
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(members) => members
                .iter()
                .map(|(k, m)| Ok((k.clone(), T::from_json(m).map_err(|e| e.in_key(k))?)))
                .collect(),
            other => Err(Error::expected("an object", other)),
        }
    }
}

/// The members of an object being decoded into a struct (or a struct
/// variant) — what [`json_impl!`](crate::json_impl) reads fields through.
#[doc(hidden)]
pub struct Fields<'a> {
    object: &'a Value,
    owner: &'static str,
}

impl<'a> Fields<'a> {
    /// `v` must be an object whose every key is one of `known`.
    pub fn new(v: &'a Value, owner: &'static str, known: &[&str]) -> Result<Self, Error> {
        let Value::Object(members) = v else {
            return Err(Error::expected(&format!("an object ({owner})"), v));
        };
        if let Some((key, _)) = members.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            let what = format!("unknown key `{key}` in {owner}; it has {}", known.join(", "));
            return Err(Error::new(what).at_key(key));
        }
        Ok(Fields { object: v, owner })
    }

    /// A field that must be present unless its type says otherwise
    /// ([`FromJson::absent`]).
    pub fn get<T: FromJson>(&self, key: &str) -> Result<T, Error> {
        match self.object.get(key) {
            Some(v) => T::from_json(v).map_err(|e| e.in_key(key)),
            None => T::absent()
                .ok_or_else(|| Error::new(format!("missing field `{key}` in {}", self.owner))),
        }
    }

    /// A field that reads as `T::default()` when absent.
    pub fn get_or_default<T: FromJson + Default>(&self, key: &str) -> Result<T, Error> {
        match self.object.get(key) {
            Some(v) => T::from_json(v).map_err(|e| e.in_key(key)),
            None => Ok(T::default()),
        }
    }
}

/// A range rule for [`json_impl!`](crate::json_impl)'s `[check = …]` flag:
/// the value is at least `min` (a NaN is not).
pub fn at_least<T: PartialOrd + fmt::Display>(min: T) -> impl Fn(&T) -> Result<(), Error> {
    move |x| {
        if *x >= min {
            Ok(())
        } else {
            Err(Error::new(format!("must be ≥ {min}, got {x}")))
        }
    }
}

/// A range rule: the value is in `[lo, hi]`.
pub fn between<T: PartialOrd + fmt::Display>(lo: T, hi: T) -> impl Fn(&T) -> Result<(), Error> {
    move |x| {
        if lo <= *x && *x <= hi {
            Ok(())
        } else {
            Err(Error::new(format!("must be in [{lo}, {hi}], got {x}")))
        }
    }
}

/// A rule on every element of an array: the error names the element.
pub fn each<T>(rule: impl Fn(&T) -> Result<(), Error>) -> impl Fn(&[T]) -> Result<(), Error> {
    move |items| {
        items.iter().enumerate().try_for_each(|(i, item)| rule(item).map_err(|e| e.in_index(i)))
    }
}

/// The tag and, for a data-carrying variant, the body of an externally
/// tagged enum value: `"Quick"` or `{"Loss": {…}}`.
#[doc(hidden)]
pub fn variant<'a>(v: &'a Value, owner: &str) -> Result<(&'a str, Option<&'a Value>), Error> {
    match v {
        Value::Str(tag) => Ok((tag, None)),
        Value::Object(members) if members.len() == 1 => Ok((&members[0].0, Some(&members[0].1))),
        other => Err(Error::expected(
            &format!("a variant of {owner} (a string, or an object with one key)"),
            other,
        )),
    }
}

/// The error for a tag that names no variant; it points at the tag.
#[doc(hidden)]
pub fn unknown_variant(tag: &str, keyed: bool, owner: &str, known: &[&str]) -> Error {
    let e = Error::new(format!(
        "unknown variant `{tag}` of {owner}; expected one of {}",
        known.join(", ")
    ));
    if keyed {
        e.at_key(tag)
    } else {
        e
    }
}

/// Implement [`ToJson`](crate::json::ToJson), [`FromJson`](crate::json::FromJson)
/// or both from one listing of a type's fields or variants.
///
/// ```
/// use prop_engine::json::{self, FromJson, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Probe { ttl: u32, label: String, note: Option<String>, retries: u32 }
/// prop_engine::json_impl!(ToJson, FromJson for struct Probe {
///     ttl, label, note [omit_none], retries [default]
/// });
///
/// #[derive(Debug, PartialEq)]
/// enum Mode { Walk { nhops: u32 }, Random }
/// prop_engine::json_impl!(ToJson, FromJson for enum Mode { Walk { nhops }, Random });
///
/// let p: Probe = json::from_str(r#"{"ttl": 7, "label": "a"}"#).unwrap();
/// assert_eq!(p, Probe { ttl: 7, label: "a".into(), note: None, retries: 0 });
/// assert_eq!(json::to_string(&p), r#"{"ttl":7,"label":"a","retries":0}"#);
/// assert_eq!(json::to_string(&vec![Mode::Walk { nhops: 2 }, Mode::Random]),
///            r#"[{"Walk":{"nhops":2}},"Random"]"#);
/// ```
///
/// Field flags: `[omit_none]` leaves an `Option` field out when it is `None`
/// (any `Option` field already reads as `None` when absent); `[default]`
/// reads an absent field as `Default::default()`. A unit variant may be
/// renamed: `Done = "done"`.
///
/// `[check = rule]` (after `default, ` when both are wanted) holds a decoded
/// field to a rule, `Fn(&T) -> Result<(), Error>`: a struct's or a
/// variant's, once every field of it has been read, in field order. The
/// rule expression sees the other fields by name, as references, so a rule
/// that reads two fields sits on the later one. Its error gets the field's
/// path, and [`from_str`] its line and column, as a decoding error does:
///
/// ```
/// use prop_engine::json::{self, at_least, between};
///
/// #[derive(Debug)]
/// struct Window { from: u64, to: u64, loss: f64 }
/// prop_engine::json_impl!(FromJson for struct Window {
///     from, to [check = at_least(*from)], loss [check = between(0.0, 1.0)]
/// });
///
/// let e = json::from_str::<Window>("{\"from\": 9, \"to\": 3, \"loss\": 0}").unwrap_err();
/// assert_eq!(e.to_string(), "1:19: to: must be ≥ 9, got 3");
/// ```
#[macro_export]
macro_rules! json_impl {
    ($($dir:ident),+ for struct $ty:ident $fields:tt) => {
        $( $crate::json_impl!(@$dir struct $ty $fields); )+
    };
    ($($dir:ident),+ for enum $ty:ident $variants:tt) => {
        $( $crate::json_impl!(@$dir enum $ty $variants); )+
    };

    (@ToJson struct $ty:ident { $($f:ident $([$($flag:tt)+])?),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                let members = [$( $crate::json_impl!(@member self.$f, $f $(, $($flag)+)?) ),+];
                $crate::json::Value::Object(members.into_iter().flatten().collect())
            }
        }
    };
    (@member $value:expr, $f:ident, omit_none) => {
        $value.as_ref().map(|v| (stringify!($f).to_string(), $crate::json::ToJson::to_json(v)))
    };
    (@member $value:expr, $f:ident $(, $($flag:tt)+)?) => {
        Some((stringify!($f).to_string(), $crate::json::ToJson::to_json(&$value)))
    };

    (@FromJson struct $ty:ident { $($f:ident $([$($flag:tt)+])?),+ $(,)? }) => {
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                let fields =
                    $crate::json::Fields::new(v, stringify!($ty), &[$(stringify!($f)),+])?;
                let value = $ty { $( $f: $crate::json_impl!(@get fields, $f $(, $($flag)+)?), )+ };
                #[allow(unused_variables)]
                let $ty { $($f),+ } = &value;
                $( $crate::json_impl!(@check $f $(, $($flag)+)?); )+
                Ok(value)
            }
        }
    };
    (@get $fields:ident, $f:ident, default $(, check = $rule:expr)?) => {
        $fields.get_or_default(stringify!($f))?
    };
    (@get $fields:ident, $f:ident $(, omit_none)? $(, check = $rule:expr)?) => {
        $fields.get(stringify!($f))?
    };
    (@check $f:ident, $(default,)? check = $rule:expr) => {
        ($rule)($f).map_err(|e| e.in_key(stringify!($f)))?
    };
    (@check $f:ident $(, default)? $(, omit_none)?) => {};

    (@ToJson enum $ty:ident {
        $($var:ident $({ $($vf:ident $([$($vflag:tt)+])?),+ $(,)? })? $(= $name:literal)?),+ $(,)?
    }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                match self {
                    $( $ty::$var $({ $($vf),+ })? => {
                        let tag = $crate::json_impl!(@tag $var $(= $name)?).to_string();
                        $crate::json_impl!(@variant_to tag $({ $($vf),+ })?)
                    } )+
                }
            }
        }
    };
    (@tag $var:ident) => { stringify!($var) };
    (@tag $var:ident = $name:literal) => { $name };
    (@variant_to $tag:ident) => { $crate::json::Value::Str($tag) };
    (@variant_to $tag:ident { $($vf:ident),+ }) => {
        $crate::json::Value::Object(vec![(
            $tag,
            $crate::json::Value::Object(vec![
                $( (stringify!($vf).to_string(), $crate::json::ToJson::to_json($vf)) ),+
            ]),
        )])
    };

    (@FromJson enum $ty:ident {
        $($var:ident $({ $($vf:ident $([$($vflag:tt)+])?),+ $(,)? })? $(= $name:literal)?),+ $(,)?
    }) => {
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                let (tag, body) = $crate::json::variant(v, stringify!($ty))?;
                $( if tag == $crate::json_impl!(@tag $var $(= $name)?) {
                    return $crate::json_impl!(
                        @variant_from $ty $var tag body $({ $($vf $([$($vflag)+])?),+ })?
                    );
                } )+
                let known = [$( $crate::json_impl!(@tag $var $(= $name)?) ),+];
                Err($crate::json::unknown_variant(tag, body.is_some(), stringify!($ty), &known))
            }
        }
    };
    (@variant_from $ty:ident $var:ident $tag:ident $body:ident) => {
        match $body {
            None => Ok($ty::$var),
            Some(_) => Err($crate::json::Error::new(format!(
                "variant `{}` carries no data; write it as a string", $tag
            ))),
        }
    };
    (@variant_from $ty:ident $var:ident $tag:ident $body:ident {
        $($vf:ident $([$($flag:tt)+])?),+
    }) => {
        match $body {
            Some(b) => (|| -> Result<$ty, $crate::json::Error> {
                let fields =
                    $crate::json::Fields::new(b, stringify!($var), &[$(stringify!($vf)),+])?;
                let value =
                    $ty::$var { $( $vf: $crate::json_impl!(@get fields, $vf $(, $($flag)+)?), )+ };
                #[allow(unused_variables, unreachable_patterns)]
                match &value {
                    $ty::$var { $($vf),+ } => {
                        $( $crate::json_impl!(@check $vf $(, $($flag)+)?); )+
                    }
                    _ => {}
                }
                Ok(value)
            })()
            .map_err(|e| e.in_key($tag)),
            None => Err($crate::json::Error::new(format!(
                "variant `{0}` needs its fields: {{\"{0}\": {{…}}}}", $tag
            ))),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn at(e: &Error) -> (usize, usize) {
        (e.line, e.col)
    }

    #[test]
    fn reads_every_kind_of_value() {
        let v =
            parse(" {\"a\": [1, -2, 3.5, true, false, null], \"b\": {\"c\": \"x\"}}\n").unwrap();
        let expect = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![
                    Value::U64(1),
                    Value::I64(-2),
                    Value::F64(3.5),
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::Null,
                ]),
            ),
            ("b".into(), Value::Object(vec![("c".into(), Value::Str("x".into()))])),
        ]);
        assert_eq!(v, expect);
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{ }").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn integers_keep_all_64_bits() {
        for lit in ["0", "18446744073709551615", "-9223372036854775808", "-1", "9007199254740993"] {
            let v = parse(lit).unwrap();
            assert!(matches!(v, Value::U64(_) | Value::I64(_)), "{lit} read as {v:?}");
            assert_eq!(to_string(&v), lit);
        }
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
        assert_eq!(u64::from_json(&parse("18446744073709551615").unwrap()), Ok(u64::MAX));
        assert_eq!(i64::from_json(&parse("-9223372036854775808").unwrap()), Ok(i64::MIN));
        // Beyond 64 bits a literal is a float, as is negative zero.
        assert_eq!(parse("18446744073709551616").unwrap(), Value::F64(18446744073709551616.0));
        assert!(matches!(parse("-0").unwrap(), Value::F64(z) if z == 0.0 && z.is_sign_negative()));
        assert!(u8::from_json(&Value::U64(256)).is_err());
        assert!(u64::from_json(&Value::F64(1.0)).is_err(), "a float is not an integer");
        assert_eq!(f64::from_json(&Value::U64(3)), Ok(3.0), "an integer is a number");
    }

    #[test]
    fn floats_print_like_the_committed_results() {
        for (x, expect) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (995.3, "995.3"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1086.9950000000035, "1086.9950000000035"),
            (1.5e-5, "0.000015"),
            (1e-5, "0.00001"),
            (9.9e-6, "9.9e-6"),
            (1e-7, "1e-7"),
            (1e15, "1000000000000000.0"),
            (1234567890123456.0, "1234567890123456.0"),
            (1e16, "1e16"),
            (1.2345678901234568e20, "1.2345678901234568e20"),
            (1e21, "1e21"),
            (-2.5e-9, "-2.5e-9"),
            (5e-324, "5e-324"),
            (f64::MAX, "1.7976931348623157e308"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(to_string(&x), expect, "{x:e}");
        }
    }

    #[test]
    fn every_float_reads_back_to_the_same_bits() {
        let mut rng = SimRng::seed_from(0x6a73_6f6e);
        for case in 0..20_000 {
            let x = f64::from_bits(rng.range(0..=u64::MAX));
            if !x.is_finite() {
                continue;
            }
            let text = to_string(&x);
            let back = f64::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "case {case}: {x:e} wrote {text}");
        }
    }

    #[test]
    fn strings_escape_and_pass_non_ascii_through() {
        let s = "δ \"quoted\" back\\slash\nnew\ttab \u{1} \u{1F600}";
        let text = to_string(s);
        assert_eq!(text, "\"δ \\\"quoted\\\" back\\\\slash\\nnew\\ttab \\u0001 \u{1F600}\"");
        assert_eq!(parse(&text).unwrap(), Value::Str(s.into()));
        // Escapes the writer never produces still read.
        assert_eq!(
            parse(r#""\u00e9\/\b\f\r \ud83d\ude00""#).unwrap(),
            Value::Str("é/\u{8}\u{c}\r \u{1F600}".into())
        );
    }

    #[test]
    fn pretty_and_compact_layouts() {
        let v = parse(r#"{"a":[1,[],{}],"b":{"c":[0.5,null]},"d":"x"}"#).unwrap();
        assert_eq!(to_string(&v), r#"{"a":[1,[],{}],"b":{"c":[0.5,null]},"d":"x"}"#);
        let pretty =
            "{\n  \"a\": [\n    1,\n    [],\n    {}\n  ],\n  \"b\": {\n    \"c\": [\n      \
                      0.5,\n      null\n    ]\n  },\n  \"d\": \"x\"\n}";
        assert_eq!(to_string_pretty(&v), pretty);
        assert_eq!(parse(pretty).unwrap(), v);
    }

    fn random_value(rng: &mut SimRng, depth: u32) -> Value {
        let word = |rng: &mut SimRng| {
            let alphabet: Vec<char> = "ab δ\"\\\n\u{1}\u{1F600}/".chars().collect();
            (0..rng.range(0..6usize)).map(|_| *rng.pick(&alphabet).unwrap()).collect::<String>()
        };
        match rng.range(0..if depth == 0 { 6u32 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.chance(0.5)),
            2 => Value::U64(rng.range(0..=u64::MAX) >> rng.range(0..64u32)),
            3 => Value::I64(-1 - (rng.range(0..=u64::MAX) >> rng.range(1..64u32)) as i64),
            4 => Value::F64((rng.unit() - 0.5) * 10f64.powi(rng.range(0..40u32) as i32 - 20)),
            5 => Value::Str(word(rng)),
            6 => Value::Array(
                (0..rng.range(0..4usize)).map(|_| random_value(rng, depth - 1)).collect(),
            ),
            _ => Value::Object(
                (0..rng.range(0..4usize))
                    .map(|i| (format!("{i}{}", word(rng)), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn random_documents_round_trip_through_both_writers() {
        let mut rng = SimRng::seed_from(77);
        for case in 0..2_000 {
            let v = random_value(&mut rng, 3);
            assert_eq!(parse(&to_string(&v)).as_ref(), Ok(&v), "case {case} compact");
            assert_eq!(parse(&to_string_pretty(&v)).as_ref(), Ok(&v), "case {case} pretty");
        }
    }

    #[test]
    fn syntax_errors_carry_line_and_column() {
        for (text, line, col, needle) in [
            ("", 1, 1, "end of input"),
            ("{\n  \"a\": [1, 2", 2, 13, "end of input"),
            ("{\n  \"a\": 1,\n}", 3, 1, "trailing comma"),
            ("[1, 2,]", 1, 7, "trailing comma"),
            ("{\"a\": 1,\n \"a\": 2}", 2, 2, "duplicate key `a`"),
            ("[1e999]", 1, 2, "out of range"),
            ("[-1e999]", 1, 2, "out of range"),
            ("{\"a\": 1} x", 1, 10, "trailing characters"),
            ("[01]", 1, 2, "leading zero"),
            ("[1.]", 1, 4, "digit"),
            ("[-]", 1, 3, "digit"),
            ("[1 2]", 1, 4, "expected `,` or `]`"),
            ("{\"a\" 1}", 1, 6, "expected `:`"),
            ("{a: 1}", 1, 2, "string key"),
            ("[nul]", 1, 2, "expected `null`"),
            ("[\"a\nb\"]", 1, 4, "control character"),
            ("[\"\\x\"]", 1, 3, "unknown escape"),
            ("[\"\\u12g4\"]", 1, 5, "hex digits"),
            ("[\"\\ud800\"]", 1, 3, "surrogate"),
            ("[\"abc", 1, 2, "unterminated"),
            ("\"δδ\" x", 1, 6, "trailing characters"),
            ("?", 1, 1, "expected a value"),
        ] {
            let e = parse(text).expect_err(text);
            assert_eq!(at(&e), (line, col), "{text:?}: {e}");
            assert!(e.what.contains(needle), "{text:?}: {e}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().what.contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Mode {
        Walk { nhops: u32 },
        Pair { a: u64, b: f64 },
        Random,
        Off,
    }
    json_impl!(ToJson, FromJson for enum Mode { Walk { nhops }, Pair { a, b }, Random, Off = "off" });

    #[derive(Clone, Debug, PartialEq)]
    struct Probe {
        ttl: u32,
        label: String,
        modes: Vec<Mode>,
        note: Option<String>,
        ci: Option<f64>,
        retries: u32,
        window: (u64, u64),
        scale: f64,
    }
    json_impl!(ToJson, FromJson for struct Probe {
        ttl, label, modes, note, ci [omit_none], retries [default], window [default], scale
    });

    fn probe() -> Probe {
        Probe {
            ttl: 7,
            label: "p".into(),
            modes: vec![
                Mode::Walk { nhops: 2 },
                Mode::Random,
                Mode::Off,
                Mode::Pair { a: 1, b: 0.5 },
            ],
            note: None,
            ci: None,
            retries: 3,
            window: (10, 20),
            scale: 1.0,
        }
    }

    #[test]
    fn structs_and_enums_keep_the_derived_format() {
        let text = to_string(&probe());
        assert_eq!(
            text,
            r#"{"ttl":7,"label":"p","modes":[{"Walk":{"nhops":2}},"Random","off",{"Pair":{"a":1,"b":0.5}}],"note":null,"retries":3,"window":[10,20],"scale":1.0}"#
        );
        assert_eq!(from_str::<Probe>(&text), Ok(probe()));
        assert_eq!(from_str::<Probe>(&to_string_pretty(&probe())), Ok(probe()));
        let with_ci = Probe { ci: Some(0.25), note: Some("n".into()), ..probe() };
        assert!(to_string(&with_ci).contains(r#""note":"n","ci":0.25,"#));
        assert_eq!(from_str::<Probe>(&to_string(&with_ci)), Ok(with_ci));
    }

    #[test]
    fn absent_fields_take_their_declared_defaults() {
        let p: Probe = from_str(r#"{"ttl": 1, "label": "x", "modes": [], "scale": 2}"#).unwrap();
        assert_eq!((p.note, p.ci, p.retries, p.window, p.scale), (None, None, 0, (0, 0), 2.0));
    }

    #[test]
    fn decoding_errors_name_the_path_and_the_position() {
        let doc = "{\n  \"ttl\": 7,\n  \"label\": \"p\",\n  \"modes\": [\"Random\", {\"Walk\": \
                   {\"nhops\": \"two\"}}],\n  \"scale\": 1\n}";
        let e = from_str::<Probe>(doc).unwrap_err();
        assert_eq!((at(&e), e.path().as_str()), ((4, 42), "modes[1].Walk.nhops"), "{e}");
        assert!(e.what.contains("found a string"), "{e}");
        assert!(e.to_string().starts_with("4:42: modes[1].Walk.nhops: expected"), "{e}");

        for (doc, line, col, path, needle) in [
            // Unknown key: at the key.
            (
                "{\"ttl\": 1, \"label\": \"\", \"modes\": [],\n \"scael\": 1}",
                2,
                2,
                "scael",
                "unknown key `scael` in Probe",
            ),
            // Missing field: at the object that lacks it.
            (
                " {\"ttl\": 1, \"label\": \"\", \"modes\": []}",
                1,
                2,
                "",
                "missing field `scale` in Probe",
            ),
            (
                "{\"ttl\": 1, \"label\": \"\", \"modes\": [{\"Pair\": {\"a\": 1}}], \"scale\": 1}",
                1,
                44,
                "modes[0].Pair",
                "missing field `b` in Pair",
            ),
            // Unknown variant: at the tag, either form.
            (
                "{\"ttl\": 1, \"label\": \"\", \"modes\": [\"Off\"], \"scale\": 1}",
                1,
                35,
                "modes[0]",
                "unknown variant `Off` of Mode; expected one of Walk, Pair, Random, off",
            ),
            (
                "{\"ttl\": 1, \"label\": \"\", \"modes\": [{\"Wander\": {}}], \"scale\": 1}",
                1,
                36,
                "modes[0].Wander",
                "unknown variant `Wander`",
            ),
            (
                "{\"ttl\": 1, \"label\": \"\", \"modes\": [\"Walk\"], \"scale\": 1}",
                1,
                35,
                "modes[0]",
                "needs its fields",
            ),
            (
                "{\"ttl\": 1, \"label\": \"\", \"modes\": [{\"Random\": 1}], \"scale\": 1}",
                1,
                35,
                "modes[0]",
                "carries no data",
            ),
            // Wrong type at the root, and a number too large for the field.
            ("[1]", 1, 1, "", "expected an object (Probe), found an array"),
            (
                "{\"ttl\": 4294967296, \"label\": \"\", \"modes\": [], \"scale\": 1}",
                1,
                9,
                "ttl",
                "fits u32",
            ),
            (
                "{\"ttl\": 1, \"label\": \"\", \"modes\": [], \"scale\": 1, \"window\": [1, 2, 3]}",
                1,
                60,
                "window",
                "array of two",
            ),
        ] {
            let e = from_str::<Probe>(doc).expect_err(doc);
            assert_eq!((at(&e), e.path().as_str()), ((line, col), path), "{doc}: {e}");
            assert!(e.what.contains(needle), "{doc}: {e}");
        }
        // Without text there is a path but no position.
        let e = Probe::from_json(&Value::Object(vec![("ttl".into(), Value::Null)])).unwrap_err();
        assert_eq!((at(&e), e.path().as_str()), ((0, 0), "ttl"));
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Step {
        Loss { at_ms: u64, prob: f64 },
        Gap { from: u64, to: u64 },
    }
    json_impl!(ToJson, FromJson for enum Step {
        Loss { at_ms, prob [check = between(0.0, 1.0)] },
        Gap { from, to [check = at_least(*from)] },
    });

    #[derive(Clone, Debug, PartialEq)]
    struct Plan {
        rates: Vec<f64>,
        steps: Vec<Step>,
        hour_ms: u64,
        horizon_ms: u64,
    }
    json_impl!(ToJson, FromJson for struct Plan {
        rates [default, check = each(at_least(0.0))],
        steps,
        hour_ms [check = at_least(1)],
        horizon_ms [check = at_least(*hour_ms)],
    });

    #[test]
    fn checked_fields_are_refused_with_their_path_and_position() {
        let plan = Plan {
            rates: vec![0.0, 2.5],
            steps: vec![Step::Loss { at_ms: 0, prob: 1.0 }, Step::Gap { from: 3, to: 3 }],
            hour_ms: 10,
            horizon_ms: 10,
        };
        assert_eq!(from_str::<Plan>(&to_string_pretty(&plan)), Ok(plan));
        let ok = r#"{"steps": [], "hour_ms": 1, "horizon_ms": 5}"#;
        assert_eq!(from_str::<Plan>(ok).map(|p| p.rates), Ok(vec![]), "a default is checked too");

        for (doc, line, col, path, what) in [
            (
                "{\"rates\": [1, -0.5], \"steps\": [], \"hour_ms\": 1, \"horizon_ms\": 1}",
                1,
                15,
                "rates[1]",
                "must be ≥ 0, got -0.5",
            ),
            (
                "{\"steps\": [],\n \"hour_ms\": 0, \"horizon_ms\": 1}",
                2,
                13,
                "hour_ms",
                "must be ≥ 1, got 0",
            ),
            // A rule that reads an earlier field.
            (
                "{\"steps\": [], \"hour_ms\": 7, \"horizon_ms\": 6}",
                1,
                43,
                "horizon_ms",
                "must be ≥ 7, got 6",
            ),
            // Variant fields, either rule.
            (
                "{\"steps\": [{\"Gap\": {\"from\": 4, \"to\": 3}},\n {\"Loss\": \
                 {\"at_ms\": 1, \"prob\": 1.5}}],\n \"hour_ms\": 1, \"horizon_ms\": 1}",
                1,
                38,
                "steps[0].Gap.to",
                "must be ≥ 4, got 3",
            ),
            (
                "{\"steps\": [{\"Loss\": {\"at_ms\": 1, \"prob\": 1.5}}],\n \
                 \"hour_ms\": 1, \"horizon_ms\": 1}",
                1,
                42,
                "steps[0].Loss.prob",
                "must be in [0, 1], got 1.5",
            ),
            // Every field is read before any rule runs: a type error after a
            // broken rule is the one reported.
            (
                "{\"steps\": [], \"hour_ms\": 0, \"horizon_ms\": \"x\"}",
                1,
                43,
                "horizon_ms",
                "expected an unsigned integer",
            ),
        ] {
            let e = from_str::<Plan>(doc).expect_err(doc);
            assert_eq!((at(&e), e.path().as_str()), ((line, col), path), "{doc}: {e}");
            assert!(e.what.starts_with(what), "{doc}: {e}");
        }
        // A NaN is below every bound (no document holds one; a value may).
        assert!(at_least(0.0)(&f64::NAN).is_err() && between(0.0, 1.0)(&f64::NAN).is_err());
    }

    #[test]
    fn a_later_check_is_placed_in_the_text_it_read() {
        let text = "{\"steps\": [],\n  \"hour_ms\": 1, \"horizon_ms\": 1}";
        let e = position_in(text, Error::new("too long").in_key("horizon_ms"));
        assert_eq!((at(&e), e.to_string().as_str()), ((2, 31), "2:31: horizon_ms: too long"));
        let e = position_in("[", Error::new("unplaced"));
        assert_eq!(at(&e), (0, 0), "a text that does not parse places nothing");
    }
}
