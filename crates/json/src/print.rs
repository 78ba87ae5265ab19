//! The JSON writer: one compact and pretty printer for typed values and for
//! [`Json`] trees alike.

use std::fmt::{self, Write as _};

use crate::{Json, Serialize};

/// A streaming JSON text writer.
///
/// [`Serialize::write_json`] drives it directly, so typed values print
/// without building a [`Json`] tree first; [`Json`] itself prints through
/// the same methods, so both paths share one number, string and indent
/// formatter and give identical bytes.
///
/// Objects are written as `begin_object`, then `key` before each value,
/// then `end_object`; arrays as `begin_array`, then `item` before each
/// value, then `end_array`.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// No element has been written yet in the innermost open container.
    first: bool,
}

impl Writer {
    /// A writer for compact single-line JSON.
    #[must_use]
    pub fn compact() -> Self {
        Writer {
            out: String::new(),
            pretty: false,
            depth: 0,
            first: true,
        }
    }

    /// A writer for JSON with two-space indentation.
    #[must_use]
    pub fn pretty() -> Self {
        Writer {
            pretty: true,
            ..Writer::compact()
        }
    }

    /// The text written so far.
    #[must_use]
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) {
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes a number (non-finite values print as `null`).
    pub fn number(&mut self, value: f64) {
        write_number(&mut self.out, value);
    }

    /// Writes an integer that is exactly representable as an `f64`, in the
    /// same form [`Writer::number`] gives its `f64` value.
    pub fn integer(&mut self, value: i64) {
        write_integer(&mut self.out, value);
    }

    /// Writes a string literal with JSON escapes.
    pub fn string(&mut self, value: &str) {
        write_string(&mut self.out, value);
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Starts an object member: writes the separator and `key`. The
    /// member's value is written next.
    pub fn key(&mut self, key: &str) {
        self.item();
        write_string(&mut self.out, key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Closes an object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Starts an array element: writes the separator. The element is
    /// written next.
    pub fn item(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline_indent();
    }

    /// Closes an array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Writes an array of `items`.
    pub fn seq<'t, T: Serialize + 't>(&mut self, items: impl IntoIterator<Item = &'t T>) {
        self.begin_array();
        for item in items {
            self.item();
            item.write_json(self);
        }
        self.end_array();
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        // An empty container closes on its own line: `[]`, `{}`.
        if !self.first {
            self.newline_indent();
        }
        self.out.push(bracket);
        self.first = false;
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..2 * self.depth {
                self.out.push(' ');
            }
        }
    }
}

impl Json {
    /// Renders the value as compact single-line JSON.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut w = Writer::compact();
        self.write_json(&mut w);
        w.into_string()
    }

    /// Renders the value with two-space indentation.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut w = Writer::pretty();
        self.write_json(&mut w);
        w.into_string()
    }
}

/// Writes the JSON form of a number: integral values below 10^15 in
/// magnitude without a decimal point, other finite values in Rust's
/// shortest round-trip form, and non-finite values as `null`.
///
/// This is the one number formatter: the writer and the canonical hash both
/// use it, so a number's printed form is its identity.
pub(crate) fn write_number<W: fmt::Write>(out: &mut W, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        let _ = out.write_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        write_integer(out, n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes an integer's decimal digits through a stack buffer.
fn write_integer<W: fmt::Write>(out: &mut W, n: i64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    let digits = std::str::from_utf8(&buf[at..]).unwrap_or_default();
    let _ = out.write_str(digits);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Only ASCII bytes are escaped, so copying the unescaped runs between
    // them byte-wise never splits a multi-byte character.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn compact_round_trips() {
        let text = r#"{"name":"pcr","ops":[1,2,3],"ok":true,"ratio":0.5,"none":null}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.to_compact(), text);
    }

    #[test]
    fn pretty_round_trips() {
        let value = Json::object([
            ("a", Json::array([Json::Number(1.0), Json::Bool(false)])),
            ("b", Json::object([("nested", Json::Null)])),
            ("c", Json::array([])),
            ("d", Json::object(Vec::<(String, Json)>::new())),
        ]);
        let pretty = value.to_pretty();
        assert!(pretty.contains("\n  \"a\": ["), "{pretty}");
        assert!(pretty.contains("\"c\": [],\n  \"d\": {}\n}"), "{pretty}");
        assert_eq!(parse(&pretty).unwrap(), value);
    }

    #[test]
    fn escapes_control_characters() {
        let value = Json::String("a\"b\\c\n\u{1}é\u{1f}".into());
        let printed = value.to_compact();
        assert_eq!(printed, "\"a\\\"b\\\\c\\n\\u0001é\\u001f\"");
        assert_eq!(parse(&printed).unwrap(), value);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Number(42.0).to_compact(), "42");
        assert_eq!(Json::Number(-3.25).to_compact(), "-3.25");
        assert_eq!(Json::Number(-0.0).to_compact(), "0");
        assert_eq!(Json::Number(-7.0).to_compact(), "-7");
        assert_eq!(Json::Number(1e15).to_compact(), "1000000000000000");
        assert_eq!(Json::Number(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn integer_writer_matches_the_number_writer() {
        for n in [0i64, 7, -7, 10, 999_999_999_999_999, -(1 << 53), 1 << 53] {
            let mut w = Writer::compact();
            w.integer(n);
            assert_eq!(w.into_string(), Json::Number(n as f64).to_compact(), "{n}");
        }
    }
}
