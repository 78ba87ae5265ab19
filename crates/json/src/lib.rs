//! A self-contained JSON interchange layer for the biochip workspace.
//!
//! The build environment of this workspace is fully offline, so the usual
//! `serde`/`serde_json` pair is not available. This crate is the in-repo
//! substitute: a [`Json`] value type, serde-style [`Serialize`]/
//! [`Deserialize`] traits (derived through the in-repo `serde` facade), and
//! one streaming [`Writer`] and [`Reader`] under both.
//!
//! Every pipeline stage (assay → schedule → architecture → layout →
//! execution report) serializes through this crate, which defines the
//! on-disk contracts of the `biochip` CLI.
//!
//! # Which paths build a tree
//!
//! - **Typed I/O streams.** [`to_string`], [`to_string_pretty`] and
//!   [`from_str`] drive [`Serialize::write_json`] and
//!   [`Deserialize::read_json`], which go straight between a typed value and
//!   text; no [`Json`] tree is built.
//! - **Hashing and dynamic documents build a tree.** The canonical content
//!   keys ([`content_key`], [`chain_key`]) hash a [`Json`] from
//!   [`Serialize::to_json`] with its object keys sorted, and documents whose
//!   shape is checked or assembled at run time (server admission checks,
//!   `/stats`, store envelopes) use [`parse`], [`Json::to_compact`] and
//!   [`Json::to_pretty`].
//!
//! Both paths share one grammar and one number, string and indent
//! formatter: [`Json`] itself reads and writes through the same
//! [`Reader`] and [`Writer`], so a value prints to the same bytes and a text
//! is accepted or rejected the same way on either path.
//!
//! # Example
//!
//! ```
//! use std::collections::BTreeMap;
//!
//! use biochip_json::{from_str, parse, to_string_pretty, Serialize};
//!
//! let mut ops = BTreeMap::new();
//! ops.insert("mix".to_owned(), vec![3u64, 4]);
//! let text = to_string_pretty(&ops);
//! assert_eq!(text, ops.to_json().to_pretty() + "\n");
//! let back: BTreeMap<String, Vec<u64>> = from_str(&text)?;
//! assert_eq!(back, ops);
//! assert_eq!(parse(&text)?.get("mix").map(|v| v.kind()), Some("array"));
//! # Ok::<(), biochip_json::JsonError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
mod parse;
mod print;
mod traits;
mod value;

pub use canonical::{canonical_hash, chain_key, content_key, content_key_hex, key_hex};
pub use parse::{parse, Kind, Reader};
pub use print::Writer;
pub use traits::{Deserialize, Serialize};
pub use value::{Json, JsonError};

/// Serializes a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut w = Writer::compact();
    value.write_json(&mut w);
    w.into_string()
}

/// Serializes a value to a pretty-printed JSON string (two-space indent,
/// trailing newline).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut w = Writer::pretty();
    value.write_json(&mut w);
    let mut out = w.into_string();
    out.push('\n');
    out
}

/// Parses a JSON document and deserializes it into `T`.
///
/// # Errors
///
/// Returns a [`JsonError`] if the text is not valid JSON or does not match
/// the shape `T` expects.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, JsonError> {
    let mut r = Reader::new(text);
    let value = T::read_json(&mut r)?;
    r.finish()?;
    Ok(value)
}
