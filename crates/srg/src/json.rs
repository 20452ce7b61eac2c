//! JSON: the one value type, writer and parser of the workspace.
//!
//! The SRG is the only document this platform *reads* (a graph a peer
//! sent, [`crate::serialize::from_json`]); reports, traces, metrics and
//! bench artifacts are only written. [`Value`] keeps `u64`/`i64`/`f64`
//! apart, so tensor ids and byte counts never pass through a float; its
//! `Display` is the writer (`{}` compact, `{:#}` pretty); [`parse`] is
//! hostile-input code: bounded nesting, nothing sized by a number in the
//! text, and an [`Error`], never a panic, on anything that is not exactly
//! one document. It lives in the lowest crate every writer depends on.

use std::fmt::{self, Write as _};

/// A JSON document. Object members keep the order they were given in.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number. Non-finite values are written as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: `(key, value)` members in document order.
    Object(Vec<(String, Value)>),
}

/// `json_object! { "key": expr, .. }`: an object literal whose values are
/// anything [`Value`] is `From`; nest a call for a nested object.
#[macro_export]
macro_rules! json_object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Value::Object(vec![
            $(($key.to_string(), $crate::json::Value::from($value))),*
        ])
    };
}

macro_rules! value_from {
    ($($ty:ty, $v:ident => $value:expr;)*) => {$(
        impl From<$ty> for Value {
            fn from($v: $ty) -> Value {
                $value
            }
        }
    )*};
}
value_from! {
    u32, v => Value::U64(v.into());
    u64, v => Value::U64(v);
    usize, v => Value::U64(v as u64);
    f64, v => Value::F64(v);
    bool, v => Value::Bool(v);
    &str, v => Value::Str(v.to_string());
    String, v => Value::Str(v);
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

macro_rules! accessors {
    ($($(#[$doc:meta])* $name:ident: $variant:ident($v:ident) => $ty:ty, $out:expr;)*) => {$(
        $(#[$doc])*
        pub fn $name(&self) -> Option<$ty> {
            match self {
                Value::$variant($v) => Some($out),
                _ => None,
            }
        }
    )*};
}

impl Value {
    accessors! {
        /// The integer, if this is a non-negative one.
        as_u64: U64(v) => u64, *v;
        /// The boolean, if this is one.
        as_bool: Bool(v) => bool, *v;
        /// The string, if this is one.
        as_str: Str(v) => &str, v;
        /// The elements, if this is an array.
        as_array: Array(v) => &[Value], v;
        /// The members in document order, if this is an object.
        as_object: Object(v) => &[(String, Value)], v;
    }

    /// Any number, as a float (integers beyond 2⁵³ round).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Member `key` of an object (`None` for other kinds and absent keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        let members = self.as_object()?;
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `depth` is `None` for the compact form, else this value's nesting
    /// level: every member starts a line, two spaces per level.
    fn write(&self, out: &mut fmt::Formatter<'_>, depth: Option<usize>) -> fmt::Result {
        let inner = depth.map(|d| d + 1);
        let line = |out: &mut fmt::Formatter<'_>, depth: Option<usize>| match depth {
            Some(d) => write!(out, "\n{:1$}", "", 2 * d),
            None => Ok(()),
        };
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(v) => write!(out, "{v}"),
            Value::U64(v) => write!(out, "{v}"),
            Value::I64(v) => write!(out, "{v}"),
            // `{:?}` is the shortest text that parses back to the same
            // bits (`1.0`, `1e-7`, `2.5e21`); JSON has no NaN or infinity.
            Value::F64(v) if v.is_finite() => write!(out, "{v:?}"),
            Value::F64(_) => out.write_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) if items.is_empty() => out.write_str("[]"),
            Value::Object(members) if members.is_empty() => out.write_str("{}"),
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    out.write_char(if i == 0 { '[' } else { ',' })?;
                    line(out, inner)?;
                    item.write(out, inner)?;
                }
                line(out, depth)?;
                out.write_char(']')
            }
            Value::Object(members) => {
                for (i, (key, value)) in members.iter().enumerate() {
                    out.write_char(if i == 0 { '{' } else { ',' })?;
                    line(out, inner)?;
                    write_str(out, key)?;
                    out.write_str(if depth.is_some() { ": " } else { ":" })?;
                    value.write(out, inner)?;
                }
                line(out, depth)?;
                out.write_char('}')
            }
        }
    }
}

fn write_str(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// The writer: `{}` is the compact document, `{:#}` the pretty one.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

/// `value["key"]`: the member, or `null` when there is none, so a lookup
/// chain into a document of the wrong shape ends in `null`, not a panic.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&Value::Null)
    }
}

/// Why a text was refused; syntax errors carry the byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// The text ended inside a value.
    UnexpectedEnd,
    /// This byte cannot be here (a raw control character in a string too).
    UnexpectedByte(usize),
    /// Arrays and objects nest deeper than [`MAX_DEPTH`] here.
    TooDeep(usize),
    /// This `\` escape is not one JSON defines.
    BadEscape(usize),
    /// This `\u` escape is half of a surrogate pair.
    LoneSurrogate(usize),
    /// This number is malformed or overflows `f64`.
    BadNumber(usize),
    /// An object repeats this key. Refused, not resolved: two readers of
    /// such a document could disagree on which member counts.
    DuplicateKey(String),
    /// The document ended here and more bytes follow.
    TrailingBytes(usize),
    /// Well-formed JSON that is not the document the reader expects.
    Mismatch(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Mismatch(what) => f.write_str(what),
            syntax => write!(f, "invalid JSON: {syntax:?}"),
        }
    }
}

impl std::error::Error for Error {}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so this also bounds its stack.
pub const MAX_DEPTH: usize = 64;

/// Parse exactly one JSON document.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(1)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(Error::TrailingBytes(p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Step over `byte`, or say what is there instead.
    fn eat(&mut self, byte: u8) -> Result<(), Error> {
        match self.peek() {
            Some(b) if b == byte => self.pos += 1,
            Some(_) => return Err(Error::UnexpectedByte(self.pos)),
            None => return Err(Error::UnexpectedEnd),
        }
        Ok(())
    }

    /// One value; an array or object here would be `depth` levels deep.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        let literal = |p: &mut Self, word: &str, value| {
            word.bytes().try_for_each(|b| p.eat(b)).map(|()| value)
        };
        let close = match self.peek() {
            Some(b'n') => return literal(self, "null", Value::Null),
            Some(b't') => return literal(self, "true", Value::Bool(true)),
            Some(b'f') => return literal(self, "false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b'[' | b'{') if depth > MAX_DEPTH => return Err(Error::TooDeep(self.pos)),
            Some(b'[') => b']',
            Some(b'{') => b'}',
            // A string, or `eat` names what is there in place of its quote.
            _ => return self.string().map(Value::Str),
        };
        let (mut items, mut members) = (Vec::new(), Vec::new());
        self.pos += 1;
        self.skip_ws();
        while self.eat(close).is_err() {
            if !(items.is_empty() && members.is_empty()) {
                self.eat(b',')?;
                self.skip_ws();
            }
            if close == b'}' {
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                members.push((key, self.value(depth + 1)?));
            } else {
                items.push(self.value(depth + 1)?);
            }
            self.skip_ws();
        }
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        match keys.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(Error::DuplicateKey(w[0].to_string())),
            None if close == b'}' => Ok(Value::Object(members)),
            None => Ok(Value::Array(items)),
        }
    }

    /// `-? int frac? exp?`. An integer that fits stays an integer; the rest
    /// go through `f64::from_str`, which rounds correctly, so the shortest
    /// form the writer prints parses back to the same bits.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let body = text.strip_prefix('-').unwrap_or(text);
        let (mantissa, exp) = body.split_once(['e', 'E']).unwrap_or((body, "0"));
        let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let well_formed = digits(int)
            && (int == "0" || !int.starts_with('0'))
            && digits(frac)
            && digits(exp.strip_prefix(['+', '-']).unwrap_or(exp));
        // An integer has neither `.` nor exponent; a non-negative one no `-`.
        let exact = match (int == body, text == body) {
            (true, true) => text.parse().ok().map(Value::U64),
            // `-0` is the float negative zero, not an integer.
            (true, false) => text.parse().ok().filter(|&v| v != 0).map(Value::I64),
            (false, _) => None,
        };
        let float = || text.parse().ok().filter(|v: &f64| v.is_finite());
        match exact.or_else(|| float().map(Value::F64)) {
            Some(value) if well_formed => Ok(value),
            _ => Err(Error::BadNumber(start)),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Stops only at ASCII bytes, so both ends are char boundaries.
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            if self.eat(b'"').is_ok() {
                return Ok(out);
            }
            let at = self.pos;
            self.eat(b'\\')?;
            let kind = self.peek().ok_or(Error::UnexpectedEnd)?;
            self.pos += 1;
            out.push(match kind {
                b'"' | b'\\' | b'/' => kind as char,
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let mut units = vec![self.hex4(at)?];
                    // Half a surrogate pair counts only with the other
                    // half right behind it.
                    if self.text[self.pos..].starts_with("\\u") && units[0] >> 11 == 0x1B {
                        self.pos += 2;
                        units.push(self.hex4(at)?);
                    }
                    let decoded: Result<String, _> = char::decode_utf16(units).collect();
                    out.push_str(&decoded.map_err(|_| Error::LoneSurrogate(at))?);
                    continue;
                }
                _ => return Err(Error::BadEscape(at)),
            });
        }
    }

    /// The four hex digits of the `\u` escape that began at `at`.
    fn hex4(&mut self, at: usize) -> Result<u16, Error> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        self.pos += 4;
        hex.and_then(|h| u16::from_str_radix(h, 16).ok())
            .ok_or(Error::BadEscape(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let compact = parse(&v.to_string()).unwrap();
        let pretty = parse(&format!("{v:#}")).unwrap();
        assert_eq!(compact, pretty, "both forms are the same document");
        compact
    }

    #[test]
    fn integers_are_exact_over_the_whole_u64_and_i64_range() {
        for n in [0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            assert_eq!(roundtrip(&Value::U64(n)), Value::U64(n));
            assert_eq!(Value::U64(n).to_string(), n.to_string());
        }
        for n in [-1, -(1 << 53) - 1, i64::MIN] {
            assert_eq!(roundtrip(&Value::I64(n)), Value::I64(n));
        }
        // Past either end an integer is still a number, as a float.
        let (above, below) = ("18446744073709551616", "-9223372036854775809");
        assert_eq!(parse(above).unwrap(), Value::F64(2f64.powi(64)));
        assert_eq!(parse(below).unwrap(), Value::F64(-(2f64.powi(63))));
        // A float never turns into an integer on the way through.
        assert_eq!(roundtrip(&Value::F64(3.0)), Value::F64(3.0));
        assert_eq!(Value::F64(3.0).to_string(), "3.0");
    }

    #[test]
    fn floats_come_back_with_the_same_bits() {
        let cases = [
            0.0,
            -0.0,
            0.1,
            1e-7,
            2.5e21,
            1e21,
            1e300,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::EPSILON,
            -123456.789e-12,
            1.0 / 3.0,
        ];
        for x in cases {
            let text = Value::F64(x).to_string();
            match parse(&text).unwrap() {
                Value::F64(back) => assert_eq!(back.to_bits(), x.to_bits(), "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
        assert_eq!(Value::F64(1e-7).to_string(), "1e-7");
        assert_eq!(Value::F64(-0.0).to_string(), "-0.0");
        let minus_zero = parse("-0").unwrap().as_f64().map(f64::to_bits);
        assert_eq!(minus_zero, Some((-0.0f64).to_bits()));
        // JSON has no NaN or infinity: written as null, refused when read.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::F64(x).to_string(), "null");
        }
        assert_eq!(parse("1e999"), Err(Error::BadNumber(0)));
    }

    #[test]
    fn numbers_outside_the_grammar_are_refused() {
        let malformed = [
            "01", "-", "+1", "1.", ".5", "1.e5", "1e", "1e+", "--1", "1-2", "0x10", "1e5.5", "-01",
            "1.2.3",
        ];
        for text in malformed {
            assert!(parse(text).is_err(), "{text}");
        }
        assert_eq!(parse("0").unwrap(), Value::U64(0));
        assert_eq!(parse("-7").unwrap(), Value::I64(-7));
        assert_eq!(parse("0.5").unwrap(), Value::F64(0.5));
        assert_eq!(parse("1E+2").unwrap(), Value::F64(100.0));
        assert_eq!(parse("[1,2 ]x"), Err(Error::TrailingBytes(6)));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "quote\" slash\\ nl\n cr\r tab\t ctl\u{1} bs\u{8} é 漢 😀";
        let text = Value::from(nasty).to_string();
        let escaped = r#"quote\" slash\\ nl\n cr\r tab\t ctl\u0001 bs\u0008 é 漢 😀"#;
        assert_eq!(text, format!("\"{escaped}\""));
        assert_eq!(parse(&text).unwrap(), Value::from(nasty));
        // Every escape JSON defines, and a surrogate pair.
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\té😀""#).unwrap(),
            Value::from("\"\\/\u{8}\u{c}\n\r\té😀")
        );
        assert_eq!(parse(r#""\x""#), Err(Error::BadEscape(1)));
        assert_eq!(parse(r#""\u12g4""#), Err(Error::BadEscape(1)));
        assert_eq!(parse(r#""\u12"#), Err(Error::BadEscape(1)));
        let lone = [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
            r#""\ud83d\ud83d""#,
        ];
        for text in lone {
            assert_eq!(parse(text), Err(Error::LoneSurrogate(1)), "{text}");
        }
        // A raw control character is not allowed inside a string.
        assert_eq!(parse("\"a\nb\""), Err(Error::UnexpectedByte(2)));
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        let doc = r#"{"a":[1,-2.5e3,"xé\n",true,false,null,{"b":{}}],"c":""}"#;
        assert!(parse(doc).is_ok());
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            assert!(parse(&doc[..cut]).is_err(), "{}", &doc[..cut]);
        }
        assert_eq!(parse(r#"{"a":1"#), Err(Error::UnexpectedEnd));
        assert_eq!(parse(""), Err(Error::UnexpectedEnd));
        assert_eq!(parse("[1,]"), Err(Error::UnexpectedByte(3)));
        assert_eq!(parse("[,1]"), Err(Error::UnexpectedByte(1)));
        assert_eq!(parse(r#"{"a" 1}"#), Err(Error::UnexpectedByte(5)));
        assert_eq!(parse("nul"), Err(Error::UnexpectedEnd));
        assert_eq!(parse("nulL"), Err(Error::UnexpectedByte(3)));
    }

    /// The rule for a repeated key: the document is refused.
    #[test]
    fn duplicate_keys_are_refused() {
        let repeated = |key: &str| Err(Error::DuplicateKey(key.to_string()));
        assert_eq!(parse(r#"{"a":1,"b":2,"a":3}"#), repeated("a"));
        assert_eq!(parse(r#"[{"x":{"k":1,"k":1}}]"#), repeated("k"));
        // Only within one object.
        assert!(parse(r#"{"a":{"a":1},"b":{"a":2}}"#).is_ok());
    }

    #[test]
    fn nesting_stops_at_the_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let too_deep = Err(Error::TooDeep(MAX_DEPTH));
        assert_eq!(parse(&nested(MAX_DEPTH + 1)), too_deep);
        // A peer cannot drive the recursion past the limit, closed or not.
        assert_eq!(parse(&"[".repeat(100_000)), too_deep);
        let objects = r#"{"a":"#.repeat(100_000);
        assert_eq!(parse(&objects), Err(Error::TooDeep(5 * MAX_DEPTH)));
        // Scalars at the deepest level are fine.
        let deep = format!("{}7{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep).is_ok());
    }

    #[test]
    fn writer_keeps_member_order_in_both_layouts() {
        let doc = json_object! {
            "zeta": 1u64,
            "alpha": vec![Value::from(true), Value::Null, 2.5.into()],
            "empty": json_object! {},
            "none": Vec::<u64>::new(),
            "nested": json_object! { "k": "v" },
            "absent": None::<u32>,
        };
        assert_eq!(
            doc.to_string(),
            r#"{"zeta":1,"alpha":[true,null,2.5],"empty":{},"none":[],"nested":{"k":"v"},"absent":null}"#
        );
        let pretty = r#"{
  "zeta": 1,
  "alpha": [
    true,
    null,
    2.5
  ],
  "empty": {},
  "none": [],
  "nested": {
    "k": "v"
  },
  "absent": null
}"#;
        assert_eq!(format!("{doc:#}"), pretty);
        assert_eq!(roundtrip(&doc), doc);
    }

    #[test]
    fn lookups_into_the_wrong_shape_end_in_null() {
        let doc = parse(r#"{"a":{"b":[10,20]},"n":-3}"#).unwrap();
        assert_eq!(doc["a"]["b"].as_array().unwrap()[1].as_u64(), Some(20));
        assert_eq!(doc["a"]["missing"]["deeper"], Value::Null);
        assert_eq!(doc["n"]["x"], Value::Null);
        assert_eq!(doc["n"].as_u64(), None, "negative");
        assert_eq!(doc["n"].as_f64(), Some(-3.0));
        assert_eq!(doc.get("zzz"), None);
    }

    /// 20 000 documents grown from a valid one by byte edits, cuts and
    /// splices: whatever `parse` makes of them, it returns.
    #[test]
    fn noise_never_panics_the_parser() {
        let valid = r#"{"name":"g","nodes":[{"id":0,"op":{"Fused":3},"cost":{"flops":1e-7},"attrs":{"k":"é😀\n😀"}}],"edges":[[1,-2,3.5e10,true,null]],"next_tensor":18446744073709551615}"#;
        let alphabet = br#"{}[]",:\u0123456789deE+-.tfn "#;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let mut still_valid = 0;
        for _ in 0..20_000 {
            let mut bytes = valid.as_bytes().to_vec();
            for _ in 0..1 + next() % 4 {
                let at = next() % bytes.len();
                match next() % 4 {
                    0 => bytes[at] = alphabet[next() % alphabet.len()],
                    1 => bytes.truncate(at.max(1)),
                    2 => bytes.insert(at, alphabet[next() % alphabet.len()]),
                    _ => {
                        let from = next() % bytes.len();
                        let to = (from + 1 + next() % 12).min(bytes.len());
                        let piece = bytes[from..to].to_vec();
                        bytes.splice(at..at, piece);
                    }
                }
            }
            // An edit can split a multi-byte character: not a `&str`, so
            // not this parser's input.
            if let Ok(text) = std::str::from_utf8(&bytes) {
                still_valid += usize::from(parse(text).is_ok());
            }
        }
        assert!(
            still_valid > 100,
            "some mutants stay documents: {still_valid}"
        );
    }
}
