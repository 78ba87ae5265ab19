//! The JSON reader: one strict pull parser for typed values and for [`Json`]
//! trees alike.

use std::borrow::Cow;

use crate::{Deserialize, Json, JsonError};

/// Parses a complete JSON document.
///
/// The full RFC 8259 grammar is supported (nested values, escapes including
/// `\uXXXX` with surrogate pairs, scientific-notation numbers). Trailing
/// non-whitespace input is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] with a line/column position on malformed input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut r = Reader::new(text);
    let value = Json::read_json(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Maximum nesting depth, mirroring serde_json's default recursion limit.
/// Every value counts, scalars included: a scalar inside 128 containers is
/// too deep.
const MAX_DEPTH: usize = 128;

/// The kind of a JSON value, as seen from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

impl Kind {
    /// The kind's name, as in [`Json::kind`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::String => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

/// A strict streaming JSON reader.
///
/// [`Deserialize::read_json`] pulls values from it directly, so typed values
/// decode without building a [`Json`] tree first; [`parse`] builds the tree
/// through the same methods, so both paths accept exactly the same
/// documents, including the nesting limit.
///
/// Objects are read as `begin_object`, then `next_key` until it returns
/// `None`, reading (or skipping) one value after each key; arrays as
/// `begin_array`, then `next_item` until it returns `false`, reading one
/// value after each `true`.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// No member has been read yet in the innermost open container.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            first: true,
        }
    }

    /// Checks that only whitespace follows the value read.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on trailing characters.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after JSON value"))
        }
    }

    /// The kind of the next value, without consuming it.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] at the end of input, on a byte that starts no
    /// value, or past the nesting limit.
    pub fn peek_kind(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Reads `null`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the next value is not `null`.
    pub fn read_null(&mut self) -> Result<(), JsonError> {
        self.expect_kind(Kind::Null)?;
        self.literal("null")
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the next value is not a bool.
    pub fn read_bool(&mut self) -> Result<bool, JsonError> {
        self.expect_kind(Kind::Bool)?;
        if self.peek() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Reads a number.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the next value is not a number.
    pub fn read_number(&mut self) -> Result<f64, JsonError> {
        self.expect_kind(Kind::Number)?;
        self.number()
    }

    /// Reads a string, borrowing it from the input when it has no escapes.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the next value is not a string.
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect_kind(Kind::String)?;
        self.string()
    }

    /// Opens an object.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the next value is not an object.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.expect_kind(Kind::Object)?;
        self.open();
        Ok(())
    }

    /// The next member's key, or `None` once the object is closed.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed object syntax.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.next_member(b'}', "expected `,` or `}` in object")? {
            return Ok(None);
        }
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.error("expected `\"`"));
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Opens an array.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the next value is not an array.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.expect_kind(Kind::Array)?;
        self.open();
        Ok(())
    }

    /// Whether another element follows; `false` once the array is closed.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed array syntax.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.next_member(b']', "expected `,` or `]` in array")
    }

    /// Reads and discards the next value, validating it as [`parse`] would.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the value is malformed or nests too deep.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek_kind()? {
            Kind::Null => self.read_null(),
            Kind::Bool => self.read_bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.string().map(drop),
            Kind::Array => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }

    /// Reads a struct member into `slot`, unless an earlier member with the
    /// same key filled it: the first occurrence wins, as with [`Json::get`],
    /// and later ones are validated and skipped.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming `key` if the value does not decode,
    /// as [`Json::field`] does.
    pub fn field_once<T: Deserialize>(
        &mut self,
        slot: &mut Option<T>,
        key: &str,
    ) -> Result<(), JsonError> {
        if slot.is_none() {
            *slot = Some(T::read_json(self).map_err(|e| e.in_field(key))?);
            Ok(())
        } else {
            self.skip_value()
        }
    }

    /// Reads an object as a struct would: `member` is called with each key
    /// and reads or skips that member's value. A value of another kind is
    /// validated and skipped as though it were an object with no members,
    /// the way [`Json::get`] sees it; the kind's name is returned for the
    /// "missing field" errors that follow.
    ///
    /// # Errors
    ///
    /// Returns the first [`JsonError`] of the syntax or of `member`.
    pub fn struct_members(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<&'static str, JsonError> {
        let kind = self.peek_kind()?;
        if kind != Kind::Object {
            self.skip_value()?;
            return Ok(kind.name());
        }
        self.begin_object()?;
        while let Some(key) = self.next_key()? {
            member(self, &key)?;
        }
        Ok(Kind::Object.name())
    }

    fn expect_kind(&mut self, want: Kind) -> Result<(), JsonError> {
        let found = self.peek_kind()?;
        if found == want {
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected {}, found {}",
                want.name(),
                found.name()
            )))
        }
    }

    fn open(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.first = true;
    }

    /// Steps past the separator before a member, or past the closing
    /// bracket (returning `false`).
    fn next_member(&mut self, close: u8, message: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if first => Ok(true),
            _ => {
                self.pos += usize::from(self.pos < self.text.len());
                Err(self.error(message))
            }
        }
    }

    fn error(&self, message: &str) -> JsonError {
        let consumed = &self.text.as_bytes()[..self.pos.min(self.text.len())];
        let line = consumed.iter().filter(|&&b| b == b'\n').count() + 1;
        let col = consumed.iter().rev().take_while(|&&b| b != b'\n').count() + 1;
        JsonError::new(format!("{message} at line {line} column {col}"))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    /// Reads a string literal; the reader is at its opening quote.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.pos += 1;
        let start = self.pos;
        // Fast path: no escapes, so the contents are a slice of the input.
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                Some(b'\\') => break,
                Some(b) if b < 0x20 => {
                    self.pos += 1;
                    return Err(self.error("control character in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(Cow::Owned(out)),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.error("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // byte; the input is a &str, so the run is valid UTF-8.
                    let run = self.pos - 1;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// Decodes the `XXXX` of a `\uXXXX` escape, joining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.error("unpaired surrogate escape"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("invalid low surrogate"));
            }
            let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
        } else {
            char::from_u32(unit).ok_or_else(|| self.error("unpaired surrogate escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            value = value * 16 + digit;
        }
        Ok(value)
    }

    /// Reads a number; the reader is at its first byte.
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.skip_digits(),
            _ => return Err(self.error("invalid number")),
        }
        let int_end = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digit after decimal point"));
            }
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digit in exponent"));
            }
            self.skip_digits();
        }
        // Fast path: up to 15 digits are exact in an f64, so summing them
        // gives the same value as the general parse.
        if integral && int_end - digits_start <= 15 {
            let magnitude = self.text.as_bytes()[digits_start..int_end]
                .iter()
                .fold(0u64, |acc, &b| acc * 10 + u64::from(b - b'0'));
            let value = magnitude as f64;
            return Ok(if negative { -value } else { value });
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.error("number out of range"))
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

impl Json {
    fn read_tree(r: &mut Reader<'_>) -> Result<Json, JsonError> {
        Ok(match r.peek_kind()? {
            Kind::Null => {
                r.read_null()?;
                Json::Null
            }
            Kind::Bool => Json::Bool(r.read_bool()?),
            Kind::Number => Json::Number(r.number()?),
            Kind::String => Json::String(r.string()?.into_owned()),
            Kind::Array => {
                r.begin_array()?;
                let mut items = Vec::new();
                while r.next_item()? {
                    items.push(Json::read_tree(r)?);
                }
                Json::Array(items)
            }
            Kind::Object => {
                r.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = r.next_key()? {
                    pairs.push((key.into_owned(), Json::read_tree(r)?));
                }
                Json::Object(pairs)
            }
        })
    }
}

impl Deserialize for Json {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(value.clone())
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        Json::read_tree(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Number(-1250.0));
        assert_eq!(parse("-0").unwrap(), Json::Number(-0.0));
        assert_eq!(
            parse("123456789012345678").unwrap(),
            Json::Number(123_456_789_012_345_678.0)
        );
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::String("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap(), &Json::String("x".into()));
        let a = v.get("a").unwrap().expect_array().unwrap();
        assert_eq!(a[0], Json::Number(1.0));
        assert_eq!(a[1].get("b").unwrap(), &Json::Null);
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse(r#""\u00e9""#).unwrap(), Json::String("é".into()));
        assert_eq!(
            parse(r#""\ud83e\udde0""#).unwrap(),
            Json::String("🧠".into())
        );
        assert_eq!(
            parse(r#""aé\tb🧠c""#).unwrap(),
            Json::String("aé\tb🧠c".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "\"\\x\"",
            "1 2",
            "nul",
            "[,1]",
            "{,}",
            "[1 2]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "\"a\u{1}\"",
            "\"\\ud800\"",
            "-",
            "1.",
            "1e",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("128"), "{err}");
        // Just inside the limit parses fine.
        let ok = format!("{}0{}", "[".repeat(127), "]".repeat(127));
        assert!(parse(&ok).is_ok());
        let too_deep = format!("{}0{}", "[".repeat(128), "]".repeat(128));
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("{\n  \"a\": !\n}").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }
}
