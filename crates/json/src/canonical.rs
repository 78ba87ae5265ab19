//! Canonical form and content hashing of JSON values.
//!
//! The server's result cache is keyed by *what* was submitted, not by the
//! bytes that happened to arrive: two submissions that serialize the same
//! `(problem, config)` pair must map to the same cache entry even if their
//! object keys were ordered differently or the documents were formatted
//! differently. [`canonical_hash`] folds the canonical form (object keys
//! sorted recursively, everything else unchanged) into a 64-bit FNV-1a
//! digest without materializing it.

use crate::{Json, Serialize};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher (dependency-free; `std::hash` hashers
/// are not guaranteed stable across releases, cache keys must be).
#[derive(Debug, Clone)]
struct Fnv(u64);

/// Numbers are hashed in their printed form, written straight into the
/// hasher.
impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

fn hash_into(value: &Json, hasher: &mut Fnv) {
    // Each kind gets a distinct tag byte so that e.g. the string "1" and the
    // number 1 cannot collide structurally.
    match value {
        Json::Null => hasher.write(b"n"),
        Json::Bool(false) => hasher.write(b"f"),
        Json::Bool(true) => hasher.write(b"t"),
        Json::Number(n) => {
            hasher.write(b"#");
            // Hash the printed form, not the raw bits: the printer is the
            // single source of truth for number identity (it collapses
            // 1.0 and 1, and maps non-finite values to null).
            crate::print::write_number(hasher, *n);
        }
        Json::String(s) => {
            hasher.write(b"\"");
            hasher.write(s.as_bytes());
            hasher.write(&[0]);
        }
        Json::Array(items) => {
            hasher.write(b"[");
            for item in items {
                hash_into(item, hasher);
            }
            hasher.write(b"]");
        }
        Json::Object(pairs) => {
            let mut keys: Vec<usize> = (0..pairs.len()).collect();
            keys.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0));
            hasher.write(b"{");
            for i in keys {
                let (k, v) = &pairs[i];
                hasher.write(b"\"");
                hasher.write(k.as_bytes());
                hasher.write(&[0]);
                hash_into(v, hasher);
            }
            hasher.write(b"}");
        }
    }
}

/// Hashes the canonical form of a JSON value (key order does not matter).
#[must_use]
pub fn canonical_hash(value: &Json) -> u64 {
    let mut hasher = Fnv::new();
    hash_into(value, &mut hasher);
    hasher.0
}

/// Serializes a value and hashes its canonical JSON form.
///
/// This is the content address used by the result cache: equal values (in
/// the JSON interchange sense) get equal keys regardless of field order or
/// formatting.
#[must_use]
pub fn content_key<T: Serialize + ?Sized>(value: &T) -> u64 {
    canonical_hash(&value.to_json())
}

/// [`content_key`] rendered as the fixed-width hex string used in URLs,
/// reports and logs.
#[must_use]
pub fn content_key_hex<T: Serialize + ?Sized>(value: &T) -> String {
    format!("{:016x}", content_key(value))
}

/// Derives a stage key by chaining an upstream key with a stage label and
/// the stage-relevant payload (typically the slice of the configuration the
/// stage consumes).
///
/// This is the per-stage refinement of [`content_key`]: the full pipeline
/// identity `schedule key → placement key → route key` is built by folding
/// each stage's config slice onto the key of the stage before it, so an
/// edit that only touches a downstream slice leaves every upstream key —
/// and therefore every upstream cached artifact — intact.
///
/// The parent key, the label and the payload are all domain-separated in
/// the digest: `chain_key(k, "a", x)` never collides structurally with
/// `chain_key(k, "ax", ...)` or with a differently parented chain.
#[must_use]
pub fn chain_key(parent: u64, stage: &str, payload: &Json) -> u64 {
    let mut hasher = Fnv::new();
    hasher.write(&parent.to_be_bytes());
    hasher.write(b">");
    hasher.write(stage.as_bytes());
    hasher.write(&[0]);
    hash_into(payload, &mut hasher);
    hasher.0
}

/// A raw 64-bit key rendered as the fixed-width hex string used in URLs,
/// reports and logs (the same format as [`content_key_hex`]).
#[must_use]
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn key_order_does_not_change_the_hash() {
        let a = parse(r#"{"x": 1, "y": {"b": 2, "a": 3}}"#).unwrap();
        let b = parse(r#"{"y": {"a": 3, "b": 2}, "x": 1}"#).unwrap();
        assert_ne!(a, b);
        assert_eq!(canonical_hash(&a), canonical_hash(&b));
    }

    #[test]
    fn formatting_does_not_change_the_hash() {
        let a = parse("{\"x\": [1, 2.0, true]}").unwrap();
        let b = parse("{ \"x\" : [ 1.0,\n 2, true ] }").unwrap();
        assert_eq!(canonical_hash(&a), canonical_hash(&b));
    }

    #[test]
    fn different_values_get_different_hashes() {
        let base = parse(r#"{"x": 1, "y": 2}"#).unwrap();
        for other in [
            r#"{"x": 1, "y": 3}"#,
            r#"{"x": 1}"#,
            r#"{"x": 1, "y": "2"}"#,
            r#"{"x": 1, "y": null}"#,
            r#"[{"x": 1, "y": 2}]"#,
        ] {
            let other = parse(other).unwrap();
            assert_ne!(
                canonical_hash(&base),
                canonical_hash(&other),
                "{}",
                other.to_compact()
            );
        }
    }

    #[test]
    fn array_order_still_matters() {
        let a = parse("[1, 2]").unwrap();
        let b = parse("[2, 1]").unwrap();
        assert_ne!(canonical_hash(&a), canonical_hash(&b));
    }

    #[test]
    fn structural_tags_prevent_flattening_collisions() {
        // Without per-kind tags these would hash the same byte stream.
        let a = parse(r#"["ab"]"#).unwrap();
        let b = parse(r#"["a", "b"]"#).unwrap();
        assert_ne!(canonical_hash(&a), canonical_hash(&b));
        assert_ne!(
            canonical_hash(&parse("\"1\"").unwrap()),
            canonical_hash(&parse("1").unwrap())
        );
    }

    #[test]
    fn chain_key_separates_parent_stage_and_payload() {
        let payload = parse(r#"{"moves": 2000}"#).unwrap();
        let base = chain_key(1, "placement", &payload);
        // A different parent, stage or payload each changes the key.
        assert_ne!(base, chain_key(2, "placement", &payload));
        assert_ne!(base, chain_key(1, "route", &payload));
        assert_ne!(base, chain_key(1, "placement", &parse("{}").unwrap()));
        // Label/payload boundaries are domain-separated: shifting bytes
        // between the stage name and a string payload cannot collide.
        assert_ne!(
            chain_key(0, "ab", &parse("\"c\"").unwrap()),
            chain_key(0, "a", &parse("\"bc\"").unwrap())
        );
        // Payload key order is canonicalized like content_key.
        assert_eq!(
            chain_key(7, "s", &parse(r#"{"a": 1, "b": 2}"#).unwrap()),
            chain_key(7, "s", &parse(r#"{"b": 2, "a": 1}"#).unwrap())
        );
    }

    #[test]
    fn key_hex_matches_content_key_hex_format() {
        let value = parse(r#"{"assay": "PCR"}"#).unwrap();
        assert_eq!(key_hex(canonical_hash(&value)), content_key_hex(&value));
        assert_eq!(key_hex(0).len(), 16);
        assert_eq!(key_hex(0xdead_beef), "00000000deadbeef");
    }

    #[test]
    fn content_key_hex_is_stable_and_fixed_width() {
        let key = content_key_hex(&parse(r#"{"assay": "PCR"}"#).unwrap());
        assert_eq!(key.len(), 16);
        assert_eq!(
            key,
            content_key_hex(&parse(r#"{ "assay" : "PCR" }"#).unwrap())
        );
    }
}
