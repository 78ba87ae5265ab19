//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no network access, so the real `serde` cannot be
//! fetched. This crate keeps the workspace's `#[derive(Serialize,
//! Deserialize)]` attributes compiling by re-exporting
//!
//! * the [`Serialize`]/[`Deserialize`] traits of [`biochip_json`], with the
//!   [`Writer`]/[`Reader`] they stream through and the [`Json`] tree they
//!   also convert to and from, and
//! * the matching derive macros from the in-repo `serde_derive` proc-macro
//!   crate.
//!
//! As with serde, derived types read and write text directly: `to_string`
//! and `from_str` never build a [`Json`] tree. The derive also fills the
//! tree methods, which canonical hashing and dynamic documents use.
//!
//! Only the subset of serde used by this workspace is provided: plain
//! derives on named-field structs, newtype structs and fieldless enums, and
//! the field attribute `#[serde(default)]`.

#![forbid(unsafe_code)]

pub use biochip_json::{Deserialize, Json, JsonError, Reader, Serialize, Writer};
pub use serde_derive::{Deserialize, Serialize};
