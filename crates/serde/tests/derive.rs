//! The derive macros: both trait methods of each derived impl describe the
//! same document, and `#[serde(default)]` fills absent fields.

use biochip_json::{from_str, parse, to_string, to_string_pretty};
use serde::{Deserialize, Json, JsonError, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Sample {
    name: String,
    count: usize,
    ratio: f64,
    tags: Vec<String>,
    parent: Option<u64>,
    mode: Mode,
    id: Id,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Mode {
    Fast,
    Thorough,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Id(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Defaulted {
    kept: u8,
    #[serde(default)]
    added: u32,
    #[serde(default)]
    flag: bool,
}

impl Default for Defaulted {
    fn default() -> Self {
        Defaulted {
            kept: 0,
            added: 7,
            flag: true,
        }
    }
}

fn sample() -> Sample {
    Sample {
        name: "pcr \"mix\"".into(),
        count: 7,
        ratio: 0.25,
        tags: vec!["a".into(), "é".into()],
        parent: None,
        mode: Mode::Thorough,
        id: Id(3),
    }
}

/// Decodes `text` through the streaming reader and through the tree.
fn both_ways<T: Deserialize>(text: &str) -> (Result<T, JsonError>, Result<T, JsonError>) {
    (from_str(text), parse(text).and_then(|v| T::from_json(&v)))
}

#[test]
fn struct_derive_round_trips() {
    let s = sample();
    let text = to_string(&s);
    assert_eq!(text, s.to_json().to_compact());
    assert_eq!(to_string_pretty(&s), s.to_json().to_pretty() + "\n");
    assert_eq!(
        text,
        r#"{"name":"pcr \"mix\"","count":7,"ratio":0.25,"tags":["a","é"],"parent":null,"mode":"Thorough","id":3}"#
    );
    let (streamed, tree) = both_ways::<Sample>(&text);
    assert_eq!(streamed.unwrap(), s);
    assert_eq!(tree.unwrap(), s);
}

#[test]
fn enum_derive_round_trips() {
    assert_eq!(to_string(&Mode::Thorough), "\"Thorough\"");
    assert_eq!(Mode::Fast.to_json(), Json::String("Fast".into()));
    assert_eq!(from_str::<Mode>("\"Fast\"").unwrap(), Mode::Fast);
    let (streamed, tree) = both_ways::<Mode>("\"Slow\"");
    assert_eq!(
        streamed.unwrap_err().to_string(),
        "unknown Mode variant `Slow`"
    );
    assert_eq!(tree.unwrap_err().to_string(), "unknown Mode variant `Slow`");
    assert!(from_str::<Mode>("0").is_err());
}

#[test]
fn missing_field_errors_name_the_field() {
    for (text, message) in [
        (r#"{"name":"x"}"#, "missing field `count` in object"),
        ("[]", "missing field `name` in array"),
        (
            r#"{"name":"x","count":"7"}"#,
            "field `count`: expected number, found string",
        ),
        (
            r#"{"name":"x","count":1,"ratio":1,"tags":[3]}"#,
            "field `tags`: expected string, found number",
        ),
    ] {
        let (streamed, tree) = both_ways::<Sample>(text);
        assert_eq!(streamed.unwrap_err().to_string(), message, "{text}");
        assert_eq!(tree.unwrap_err().to_string(), message, "{text}");
    }
}

#[test]
fn the_first_duplicate_wins_and_unknown_keys_are_skipped() {
    let s = sample();
    let text = to_string(&s);
    let body = &text[1..text.len() - 1];
    let mutated =
        format!("{{\"extra\":{{\"count\":[1,2]}},{body},\"count\":\"late\",\"name\":\"other\"}}");
    let (streamed, tree) = both_ways::<Sample>(&mutated);
    assert_eq!(streamed.unwrap(), s);
    assert_eq!(tree.unwrap(), s);
    // Skipped values are still validated, nesting limit included.
    let deep = format!("{{\"x\":{}0{},{body}}}", "[".repeat(127), "]".repeat(127));
    let (streamed, tree) = both_ways::<Sample>(&deep);
    assert!(streamed.is_err() && tree.is_err());
    let shallow = format!("{{\"x\":{}0{},{body}}}", "[".repeat(126), "]".repeat(126));
    let (streamed, tree) = both_ways::<Sample>(&shallow);
    assert_eq!(streamed.unwrap(), s);
    assert_eq!(tree.unwrap(), s);
}

#[test]
fn default_fields_fill_in_only_when_absent() {
    let (streamed, tree) = both_ways::<Defaulted>(r#"{"kept":1}"#);
    let expected = Defaulted {
        kept: 1,
        added: 7,
        flag: true,
    };
    assert_eq!(streamed.unwrap(), expected);
    assert_eq!(tree.unwrap(), expected);
    let (streamed, tree) = both_ways::<Defaulted>(r#"{"flag":false,"added":2,"kept":1}"#);
    let expected = Defaulted {
        kept: 1,
        added: 2,
        flag: false,
    };
    assert_eq!(streamed.unwrap(), expected);
    assert_eq!(tree.unwrap(), expected);
    // A present default field of the wrong kind is still an error, and a
    // required field is still required.
    for text in [r#"{"kept":1,"added":"x"}"#, r#"{"added":1}"#] {
        let (streamed, tree) = both_ways::<Defaulted>(text);
        assert_eq!(streamed.unwrap_err(), tree.unwrap_err(), "{text}");
    }
    // Serialization always writes every field.
    assert_eq!(to_string(&expected), r#"{"kept":1,"added":2,"flag":false}"#);
}
