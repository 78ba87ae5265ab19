//! Serde-style serialization traits and blanket impls for std types.
//!
//! Each trait has two methods: a streaming one that typed I/O uses
//! ([`Serialize::write_json`], [`Deserialize::read_json`]) and a tree one
//! for hashing and dynamic documents ([`Serialize::to_json`],
//! [`Deserialize::from_json`]). Both must describe the same document.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Duration;

use crate::{Json, JsonError, Kind, Reader, Writer};

/// Types that can render themselves as JSON.
///
/// The in-repo stand-in for `serde::Serialize`; implement it with
/// `#[derive(Serialize)]` (the `serde` facade crate) where possible.
pub trait Serialize {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;

    /// Writes `self` as JSON text, with the same content as
    /// [`to_json`](Serialize::to_json) but without building the tree.
    fn write_json(&self, w: &mut Writer);
}

/// Types that can be rebuilt from JSON.
///
/// The in-repo stand-in for `serde::Deserialize`.
pub trait Deserialize: Sized {
    /// Rebuilds a value from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first shape mismatch.
    fn from_json(value: &Json) -> Result<Self, JsonError>;

    /// Reads a value straight from JSON text. Accepts and rejects the same
    /// documents as [`parse`](crate::parse) followed by
    /// [`from_json`](Deserialize::from_json), and decodes the same value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed text or a shape mismatch.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError>;
}

impl Serialize for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }

    fn write_json(&self, w: &mut Writer) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Number(n) => w.number(*n),
            Json::String(s) => w.string(s),
            Json::Array(items) => w.seq(items),
            Json::Object(pairs) => {
                w.begin_object();
                for (key, value) in pairs {
                    w.key(key);
                    value.write_json(w);
                }
                w.end_object();
            }
        }
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn write_json(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.read_bool()
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::String(self.clone())
    }

    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Deserialize for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.expect_str().map(str::to_owned)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.read_str().map(std::borrow::Cow::into_owned)
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::String(self.to_owned())
    }

    fn write_json(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Serialize for f64 {
    fn to_json(&self) -> Json {
        Json::Number(*self)
    }

    fn write_json(&self, w: &mut Writer) {
        w.number(*self);
    }
}

impl Deserialize for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.expect_number()
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.read_number()
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl Serialize for $ty {
                /// # Panics
                ///
                /// Panics if the value cannot be represented exactly as an
                /// `f64` (magnitude above 2^53) — silent precision loss on a
                /// round-trip would be worse than a loud failure.
                fn to_json(&self) -> Json {
                    assert_exact(*self as f64 as $ty == *self, stringify!($ty), self);
                    Json::Number(*self as f64)
                }

                /// # Panics
                ///
                /// As [`to_json`](Serialize::to_json).
                fn write_json(&self, w: &mut Writer) {
                    assert_exact(*self as f64 as $ty == *self, stringify!($ty), self);
                    // Exact in an f64, so within ±2^53: it fits an i64.
                    w.integer(*self as i64);
                }
            }

            impl Deserialize for $ty {
                fn from_json(value: &Json) -> Result<Self, JsonError> {
                    let n = value.expect_number()?;
                    int_from_f64(n, <$ty>::MIN as f64, <$ty>::MAX as f64, stringify!($ty))
                        .map(|n| n as $ty)
                }

                fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
                    let n = r.read_number()?;
                    int_from_f64(n, <$ty>::MIN as f64, <$ty>::MAX as f64, stringify!($ty))
                        .map(|n| n as $ty)
                }
            }
        )+
    };
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn assert_exact(exact: bool, ty: &str, value: &dyn std::fmt::Display) {
    assert!(
        exact,
        "{ty} value {value} is not exactly representable in JSON"
    );
}

/// Checks that a number is an integer within `[min, max]`.
fn int_from_f64(n: f64, min: f64, max: f64, ty: &str) -> Result<f64, JsonError> {
    if n.fract() != 0.0 {
        return Err(JsonError::new(format!("expected integer, found {n}")));
    }
    if n < min || n > max {
        return Err(JsonError::new(format!("integer {n} out of range for {ty}")));
    }
    Ok(n)
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }

    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        if r.peek_kind()? == Kind::Null {
            r.read_null().map(|()| None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }

    fn write_json(&self, w: &mut Writer) {
        w.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.expect_array()?.iter().map(T::from_json).collect()
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.begin_array()?;
        let mut items = Vec::new();
        while r.next_item()? {
            items.push(T::read_json(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }

    fn write_json(&self, w: &mut Writer) {
        w.seq(self);
    }
}

/// The error for a tuple array of the wrong length.
fn arity_error(want: usize, found: usize) -> JsonError {
    JsonError::new(format!(
        "expected {want}-element array, found {found} elements"
    ))
}

/// Reads the element that follows `read` elements of a `want`-tuple.
fn tuple_item<T: Deserialize>(
    r: &mut Reader<'_>,
    want: usize,
    read: usize,
) -> Result<T, JsonError> {
    if r.next_item()? {
        T::read_json(r)
    } else {
        Err(arity_error(want, read))
    }
}

/// Closes a `want`-tuple array, counting any surplus elements for the error.
fn tuple_end(r: &mut Reader<'_>, want: usize) -> Result<(), JsonError> {
    let mut found = want;
    while r.next_item()? {
        r.skip_value()?;
        found += 1;
    }
    if found == want {
        Ok(())
    } else {
        Err(arity_error(want, found))
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }

    fn write_json(&self, w: &mut Writer) {
        w.begin_array();
        w.item();
        self.0.write_json(w);
        w.item();
        self.1.write_json(w);
        w.end_array();
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let items = value.expect_array()?;
        if items.len() != 2 {
            return Err(arity_error(2, items.len()));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.begin_array()?;
        let a = tuple_item(r, 2, 0)?;
        let b = tuple_item(r, 2, 1)?;
        tuple_end(r, 2)?;
        Ok((a, b))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }

    fn write_json(&self, w: &mut Writer) {
        w.begin_array();
        w.item();
        self.0.write_json(w);
        w.item();
        self.1.write_json(w);
        w.item();
        self.2.write_json(w);
        w.end_array();
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let items = value.expect_array()?;
        if items.len() != 3 {
            return Err(arity_error(3, items.len()));
        }
        Ok((
            A::from_json(&items[0])?,
            B::from_json(&items[1])?,
            C::from_json(&items[2])?,
        ))
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        r.begin_array()?;
        let a = tuple_item(r, 3, 0)?;
        let b = tuple_item(r, 3, 1)?;
        let c = tuple_item(r, 3, 2)?;
        tuple_end(r, 3)?;
        Ok((a, b, c))
    }
}

/// Writes string-keyed pairs as an object.
fn write_map<'t, V: Serialize + 't>(
    w: &mut Writer,
    pairs: impl IntoIterator<Item = (&'t String, &'t V)>,
) {
    w.begin_object();
    for (key, value) in pairs {
        w.key(key);
        value.write_json(w);
    }
    w.end_object();
}

/// Decodes every member of an object; a later duplicate key overwrites an
/// earlier one, as collecting the tree's pairs into a map does.
fn map_from_json<V: Deserialize, M: FromIterator<(String, V)>>(
    value: &Json,
) -> Result<M, JsonError> {
    match value {
        Json::Object(pairs) => pairs
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect(),
        other => Err(JsonError::new(format!(
            "expected object, found {}",
            other.kind()
        ))),
    }
}

fn read_map<V: Deserialize>(
    r: &mut Reader<'_>,
    mut insert: impl FnMut(String, V),
) -> Result<(), JsonError> {
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        let key = key.into_owned();
        insert(key, V::read_json(r)?);
    }
    Ok(())
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }

    fn write_json(&self, w: &mut Writer) {
        write_map(w, self);
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        map_from_json(value)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut map = BTreeMap::new();
        read_map(r, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

/// Keys are emitted in sorted order so that output is deterministic.
fn sorted<V>(map: &HashMap<String, V>) -> Vec<(&String, &V)> {
    let mut pairs: Vec<(&String, &V)> = map.iter().collect();
    pairs.sort_by_key(|(k, _)| k.as_str());
    pairs
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Object(
            sorted(self)
                .into_iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        )
    }

    fn write_json(&self, w: &mut Writer) {
        write_map(w, sorted(self));
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        map_from_json(value)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        let mut map = HashMap::new();
        read_map(r, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }

    fn write_json(&self, w: &mut Writer) {
        w.seq(self);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.expect_array()?.iter().map(T::from_json).collect()
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        Vec::<T>::read_json(r).map(BTreeSet::from_iter)
    }
}

impl Serialize for Duration {
    /// Durations serialize as fractional seconds, matching how the paper
    /// reports runtimes.
    fn to_json(&self) -> Json {
        Json::Number(self.as_secs_f64())
    }

    fn write_json(&self, w: &mut Writer) {
        w.number(self.as_secs_f64());
    }
}

fn duration_from_secs(secs: f64) -> Result<Duration, JsonError> {
    if !secs.is_finite() || secs < 0.0 {
        return Err(JsonError::new(format!("invalid duration {secs}")));
    }
    Ok(Duration::from_secs_f64(secs))
}

impl Deserialize for Duration {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        duration_from_secs(value.expect_number()?)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        duration_from_secs(r.read_number()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_str, parse, to_string, to_string_pretty};

    /// A struct decoded the way `#[derive(Deserialize)]` decodes one.
    #[derive(Debug, PartialEq)]
    struct Sample {
        name: String,
        count: usize,
    }

    impl Deserialize for Sample {
        fn from_json(value: &Json) -> Result<Self, JsonError> {
            Ok(Sample {
                name: value.field("name")?,
                count: value.field("count")?,
            })
        }

        fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
            let (mut name, mut count) = (None, None);
            let kind = r.struct_members(|r, key| match key {
                "name" => r.field_once(&mut name, "name"),
                "count" => r.field_once(&mut count, "count"),
                _ => r.skip_value(),
            })?;
            Ok(Sample {
                name: name.ok_or_else(|| JsonError::missing_field("name", kind))?,
                count: count.ok_or_else(|| JsonError::missing_field("count", kind))?,
            })
        }
    }

    fn both_ways(text: &str) -> (Result<Sample, JsonError>, Result<Sample, JsonError>) {
        let tree = parse(text).and_then(|v| Sample::from_json(&v));
        (from_str(text), tree)
    }

    #[test]
    fn missing_field_errors_name_the_field() {
        for (text, message) in [
            (r#"{"name":"x"}"#, "missing field `count` in object"),
            (r#"[1]"#, "missing field `name` in array"),
        ] {
            let (streamed, tree) = both_ways(text);
            assert_eq!(streamed.unwrap_err().to_string(), message);
            assert_eq!(tree.unwrap_err().to_string(), message);
        }
        let (streamed, tree) = both_ways(r#"{"name":"x","count":"7"}"#);
        assert_eq!(
            streamed.unwrap_err().to_string(),
            "field `count`: expected number, found string"
        );
        assert_eq!(
            tree.unwrap_err().to_string(),
            "field `count`: expected number, found string"
        );
    }

    #[test]
    fn struct_members_keep_the_first_duplicate_and_skip_unknown_keys() {
        let text = r#"{"count":1,"extra":[{"a":null}],"name":"a","count":"x","name":"b"}"#;
        let (streamed, tree) = both_ways(text);
        let expected = Sample {
            name: "a".into(),
            count: 1,
        };
        assert_eq!(streamed.unwrap(), expected);
        assert_eq!(tree.unwrap(), expected);
        // Skipped members are still validated.
        let (streamed, tree) = both_ways(r#"{"name":"a","count":1,"extra":[1,]}"#);
        assert!(streamed.is_err() && tree.is_err());
    }

    #[test]
    fn integer_bounds_are_checked() {
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u64>("1.5").is_err());
        assert_eq!(from_str::<i32>("-42").unwrap(), -42);
        assert_eq!(from_str::<u64>("-0").unwrap(), 0);
        assert_eq!(from_str::<u64>("1e3").unwrap(), 1000);
    }

    #[test]
    #[should_panic(expected = "not exactly representable")]
    fn oversized_integers_fail_loudly_instead_of_corrupting() {
        let _ = to_string(&((1u64 << 53) + 1));
    }

    #[test]
    fn durations_serialize_as_seconds() {
        let d = Duration::from_millis(1500);
        assert_eq!(to_string(&d), "1.5");
        assert_eq!(from_str::<Duration>("1.5").unwrap(), d);
        assert!(from_str::<Duration>("-1").is_err());
    }

    #[test]
    fn maps_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), 1u64);
        m.insert("b".to_owned(), 2u64);
        let back: BTreeMap<String, u64> = from_str(&to_string(&m)).unwrap();
        assert_eq!(back, m);
        let dup = r#"{"a": 1, "a": 2}"#;
        let streamed: HashMap<String, u64> = from_str(dup).unwrap();
        let tree: HashMap<String, u64> = Deserialize::from_json(&parse(dup).unwrap()).unwrap();
        assert_eq!(streamed, tree);
        assert_eq!(streamed["a"], 2);
    }

    #[test]
    fn tuples_check_their_arity() {
        assert_eq!(from_str::<(u8, bool)>("[1, true]").unwrap(), (1, true));
        for bad in ["[]", "[1]", "[1, true, 3]", "{}"] {
            assert!(from_str::<(u8, bool)>(bad).is_err(), "{bad}");
        }
        let err = from_str::<(u8, u8, u8)>("[1, 2, 3, 4, 5]").unwrap_err();
        assert_eq!(
            err.to_string(),
            "expected 3-element array, found 5 elements"
        );
    }

    #[test]
    fn streamed_text_matches_the_tree_printers() {
        let mut m = HashMap::new();
        m.insert("z\"q".to_owned(), vec![Some(1.5), None]);
        m.insert("a".to_owned(), vec![]);
        let value = (m, (Duration::from_millis(250), -7i64, "s".to_owned()));
        assert_eq!(to_string(&value), value.to_json().to_compact());
        assert_eq!(to_string_pretty(&value), value.to_json().to_pretty() + "\n");
    }
}
