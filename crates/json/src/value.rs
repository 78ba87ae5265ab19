//! The JSON value type and the shared error type.

use std::fmt;

/// A parsed JSON document.
///
/// Objects preserve insertion order so that serialized files are stable and
/// diffable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`; all quantities in this workspace
    /// (seconds, counts, coordinates) fit without precision loss.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of `key`, or a "missing field" error mentioning the key.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if `self` is not an object or lacks the key.
    pub fn expect_field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::missing_field(key, self.kind()))
    }

    /// Looks up a key and deserializes it.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the field is missing or has the wrong shape;
    /// the error message names the field.
    pub fn field<T: crate::Deserialize>(&self, key: &str) -> Result<T, JsonError> {
        T::from_json(self.expect_field(key)?).map_err(|e| e.in_field(key))
    }

    /// Deserializes the value of `key`, or returns `default()` if the key is
    /// absent (or `self` is not an object).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the field if its value has the wrong
    /// shape.
    pub fn field_or<T: crate::Deserialize>(
        &self,
        key: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, JsonError> {
        match self.get(key) {
            Some(_) => self.field(key),
            None => Ok(default()),
        }
    }

    /// The elements if `self` is an array.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if `self` is not an array.
    pub fn expect_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(JsonError::new(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// The string contents if `self` is a string.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if `self` is not a string.
    pub fn expect_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(JsonError::new(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }

    /// The numeric value if `self` is a number.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if `self` is not a number.
    pub fn expect_number(&self) -> Result<f64, JsonError> {
        match self {
            Json::Number(n) => Ok(*n),
            other => Err(JsonError::new(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }

    /// A short name of the value's kind, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

/// Error produced by parsing or by a shape mismatch during deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    /// Creates an error with the given message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        JsonError(message.into())
    }

    /// This error, as met while decoding the struct field `key`.
    pub(crate) fn in_field(self, key: &str) -> Self {
        JsonError(format!("field `{key}`: {}", self.0))
    }

    /// The error for a struct field absent from a value of kind `kind`.
    #[must_use]
    pub fn missing_field(key: &str, kind: &str) -> Self {
        JsonError(format!("missing field `{key}` in {kind}"))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}
