//! The on-disk content-addressed result store.
//!
//! Layout under the data directory:
//!
//! ```text
//! <data-dir>/store/<key>.json        one envelope per content key
//! <data-dir>/tmp/<key>.<n>.tmp       in-flight writes (cleared at open)
//! <data-dir>/quarantine/<key>.<n>.corrupt   entries that failed validation
//! ```
//!
//! Writes go to `tmp/` first, are fsynced, then atomically renamed into
//! `store/`, whose directory is fsynced in turn so the rename itself is on
//! disk — a crash at any point leaves either the old entry, the new entry,
//! or a stray temp file that the next startup sweeps; never a torn visible
//! entry. Reads validate the `biochip-store/v1` envelope (schema tag
//! and embedded key) and quarantine anything that does not parse, so a
//! corrupted entry is exactly a cache miss plus a counter bump.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use biochip_json::{Json, Writer};

/// Envelope schema tag; bump on incompatible layout changes. Entries carrying
/// any other tag are quarantined as corrupt rather than misread.
pub const STORE_SCHEMA: &str = "biochip-store/v1";

/// Longest accepted content key (hex digests are 16 chars; leave headroom).
const MAX_KEY_LEN: usize = 64;

/// Counters and gauges for `/stats`, `/metrics` and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreStats {
    /// Whether a store is attached at all (`false` for the placeholder
    /// rendered when `serve` runs without `--data-dir`).
    pub enabled: bool,
    /// `false` after an I/O failure: the server keeps running memory-only.
    pub available: bool,
    /// Entries currently indexed on disk.
    pub entries: usize,
    /// Total bytes across indexed entries.
    pub bytes: u64,
    /// Eviction budget in bytes.
    pub capacity_bytes: u64,
    /// Reads that returned a validated payload.
    pub hits: u64,
    /// Reads that found no entry (including invalid keys).
    pub misses: u64,
    /// Entries quarantined because they failed validation.
    pub corrupt: u64,
    /// Entries removed by the size cap.
    pub evictions: u64,
    /// Writes that failed and were dropped (store flips to unavailable).
    pub write_errors: u64,
}

/// Per-entry index record.
struct Entry {
    bytes: u64,
    last_used: u64,
}

/// Mutable index state behind the store's mutex. File I/O happens *outside*
/// this lock; the lock only guards the in-memory map and counters.
#[derive(Default)]
struct Index {
    entries: HashMap<String, Entry>,
    total_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    corrupt: u64,
    evictions: u64,
    write_errors: u64,
}

/// A crash-safe content-addressed store rooted at a data directory.
pub struct DiskStore {
    store_dir: PathBuf,
    tmp_dir: PathBuf,
    quarantine_dir: PathBuf,
    capacity_bytes: u64,
    available: AtomicBool,
    nonce: AtomicU64,
    index: Mutex<Index>,
}

impl DiskStore {
    /// Opens (or creates) a store under `data_dir` with a byte budget.
    ///
    /// Never fails: if the directories cannot be created the store comes up
    /// `available: false` and every operation is a counted no-op — the
    /// caller serves memory-only and reports the degradation. A startup
    /// scan rebuilds the LRU index from entry mtimes (oldest first) and
    /// trims to the budget; stray temp files from a crashed write are
    /// swept away.
    pub fn open(data_dir: &Path, capacity_bytes: u64) -> DiskStore {
        let store_dir = data_dir.join("store");
        let tmp_dir = data_dir.join("tmp");
        let quarantine_dir = data_dir.join("quarantine");
        let mut available = true;
        for dir in [&store_dir, &tmp_dir, &quarantine_dir] {
            if let Err(err) = fs::create_dir_all(dir) {
                if available {
                    eprintln!(
                        "biochip-store: cannot create {}: {err}; serving memory-only",
                        dir.display()
                    );
                }
                available = false;
            }
        }
        if available {
            if let Ok(leftovers) = fs::read_dir(&tmp_dir) {
                for stray in leftovers.flatten() {
                    let _ = fs::remove_file(stray.path());
                }
            }
        }
        let store = DiskStore {
            store_dir,
            tmp_dir,
            quarantine_dir,
            capacity_bytes,
            available: AtomicBool::new(available),
            nonce: AtomicU64::new(0),
            index: Mutex::new(Index::default()),
        };
        if available {
            store.scan();
            let victims = store.with_index(|ix| evict_to_capacity(ix, capacity_bytes, None));
            store.remove_files(&victims);
        }
        store
    }

    /// Rebuilds the index from the entries already on disk, seeding LRU
    /// order from file modification times (ties broken by key so the order
    /// is deterministic).
    fn scan(&self) {
        let Ok(dir) = fs::read_dir(&self.store_dir) else {
            return;
        };
        let mut found: Vec<(String, u64, SystemTime)> = Vec::new();
        for entry in dir.flatten() {
            let path = entry.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if path.extension().and_then(|e| e.to_str()) != Some("json") || !valid_key(stem) {
                continue;
            }
            let Ok(meta) = entry.metadata() else {
                continue;
            };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            found.push((stem.to_owned(), meta.len(), mtime));
        }
        found.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        self.with_index(|ix| {
            for (key, bytes, _) in found.drain(..) {
                ix.tick += 1;
                ix.total_bytes += bytes;
                ix.entries.insert(
                    key,
                    Entry {
                        bytes,
                        last_used: ix.tick,
                    },
                );
            }
        });
    }

    /// Looks up a payload by content key. Any validation failure quarantines
    /// the entry and reads as a miss; this method never panics and never
    /// returns a partially parsed payload.
    pub fn get(&self, key: &str) -> Option<Json> {
        if !valid_key(key) {
            self.with_index(|ix| ix.misses += 1);
            return None;
        }
        let indexed = self.with_index(|ix| {
            ix.tick += 1;
            let tick = ix.tick;
            match ix.entries.get_mut(key) {
                Some(entry) => {
                    entry.last_used = tick;
                    true
                }
                None => {
                    ix.misses += 1;
                    false
                }
            }
        });
        if !indexed {
            return None;
        }
        // Read and validate outside the index lock.
        let text = match fs::read_to_string(self.entry_path(key)) {
            Ok(text) => text,
            Err(_) => {
                self.quarantine(key, "unreadable entry");
                return None;
            }
        };
        match parse_envelope(&text, key) {
            Ok(payload) => {
                self.with_index(|ix| ix.hits += 1);
                Some(payload)
            }
            Err(why) => {
                self.quarantine(key, why);
                None
            }
        }
    }

    /// Writes a payload under `key` via temp-file + fsync + atomic rename.
    ///
    /// On any I/O failure the write is dropped, `write_errors` is bumped and
    /// the store flips to unavailable; a later successful write flips it
    /// back. Inserting may evict least-recently-used entries to stay under
    /// the byte budget. The envelope is written straight to text around the
    /// payload, without copying it into a tree.
    pub fn put<T: Serialize + ?Sized>(&self, key: &str, payload: &T) {
        if !valid_key(key) {
            self.with_index(|ix| ix.write_errors += 1);
            return;
        }
        let mut w = Writer::pretty();
        w.begin_object();
        w.key("schema");
        w.string(STORE_SCHEMA);
        w.key("key");
        w.string(key);
        w.key("payload");
        payload.write_json(&mut w);
        w.end_object();
        let text = w.into_string();
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let tmp = self.tmp_dir.join(format!("{key}.{nonce}.tmp"));
        if let Err(err) = write_atomic(&tmp, &self.entry_path(key), text.as_bytes()) {
            let _ = fs::remove_file(&tmp);
            if self.available.swap(false, Ordering::Relaxed) {
                eprintln!("biochip-store: write failed ({err}); serving memory-only");
            }
            self.with_index(|ix| ix.write_errors += 1);
            return;
        }
        if !self.available.swap(true, Ordering::Relaxed) {
            eprintln!("biochip-store: disk writes recovered");
        }
        let bytes = text.len() as u64;
        let victims = self.with_index(|ix| {
            ix.tick += 1;
            let tick = ix.tick;
            let previous = ix.entries.insert(
                key.to_owned(),
                Entry {
                    bytes,
                    last_used: tick,
                },
            );
            ix.total_bytes = ix
                .total_bytes
                .saturating_sub(previous.map_or(0, |e| e.bytes))
                + bytes;
            evict_to_capacity(ix, self.capacity_bytes, Some(key))
        });
        self.remove_files(&victims);
    }

    /// Quarantines an entry that failed validation — the envelope itself or,
    /// for the caller, a payload that no longer deserializes. Moves the file
    /// aside (or deletes it if the move fails), drops it from the index and
    /// counts it as corrupt.
    pub fn quarantine(&self, key: &str, why: &str) {
        if !valid_key(key) {
            return;
        }
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let src = self.entry_path(key);
        let dst = self.quarantine_dir.join(format!("{key}.{nonce}.corrupt"));
        if fs::rename(&src, &dst).is_err() {
            let _ = fs::remove_file(&src);
        }
        eprintln!("biochip-store: quarantined entry {key} ({why})");
        self.with_index(|ix| {
            if let Some(entry) = ix.entries.remove(key) {
                ix.total_bytes = ix.total_bytes.saturating_sub(entry.bytes);
            }
            ix.corrupt += 1;
        });
    }

    /// Whether the last I/O round-trip succeeded. `false` means the server
    /// should answer from memory and advertise degradation.
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::Relaxed)
    }

    /// Snapshot of counters and gauges.
    pub fn stats(&self) -> StoreStats {
        let available = self.is_available();
        self.with_index(|ix| StoreStats {
            enabled: true,
            available,
            entries: ix.entries.len(),
            bytes: ix.total_bytes,
            capacity_bytes: self.capacity_bytes,
            hits: ix.hits,
            misses: ix.misses,
            corrupt: ix.corrupt,
            evictions: ix.evictions,
            write_errors: ix.write_errors,
        })
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.store_dir.join(format!("{key}.json"))
    }

    fn remove_files(&self, keys: &[String]) {
        for key in keys {
            let _ = fs::remove_file(self.entry_path(key));
        }
    }

    /// Runs `f` with the index locked, recovering from poisoning — a panic
    /// in another thread must not take the store down with it.
    fn with_index<T>(&self, f: impl FnOnce(&mut Index) -> T) -> T {
        let mut guard = self
            .index
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }
}

/// Pops least-recently-used entries until the byte budget holds, never
/// evicting `keep` (the entry just inserted) and always leaving at least one
/// entry. Returns the evicted keys; the caller deletes their files outside
/// the lock.
fn evict_to_capacity(ix: &mut Index, capacity_bytes: u64, keep: Option<&str>) -> Vec<String> {
    let mut victims = Vec::new();
    while ix.total_bytes > capacity_bytes && ix.entries.len() > 1 {
        let oldest = ix
            .entries
            .iter()
            .filter(|(key, _)| Some(key.as_str()) != keep)
            .min_by_key(|(_, entry)| entry.last_used)
            .map(|(key, _)| key.clone());
        let Some(key) = oldest else {
            break;
        };
        if let Some(entry) = ix.entries.remove(&key) {
            ix.total_bytes = ix.total_bytes.saturating_sub(entry.bytes);
        }
        ix.evictions += 1;
        victims.push(key);
    }
    victims
}

/// Content keys are short hex/alphanumeric digests; anything else is
/// rejected before it can become a path component.
fn valid_key(key: &str) -> bool {
    !key.is_empty() && key.len() <= MAX_KEY_LEN && key.bytes().all(|b| b.is_ascii_alphanumeric())
}

/// Validates a `biochip-store/v1` envelope and extracts its payload.
fn parse_envelope(text: &str, key: &str) -> Result<Json, &'static str> {
    let Ok(value) = biochip_json::parse(text) else {
        return Err("entry is not valid JSON");
    };
    match value.get("schema").map(Json::expect_str) {
        Some(Ok(STORE_SCHEMA)) => {}
        Some(Ok(_)) => return Err("unsupported envelope schema version"),
        _ => return Err("missing schema tag"),
    }
    match value.get("key").map(Json::expect_str) {
        Some(Ok(stored)) if stored == key => {}
        Some(Ok(_)) => return Err("envelope key does not match file name"),
        _ => return Err("missing key field"),
    }
    // Move the payload out of the envelope; the first `payload` member
    // wins, as with `Json::get`.
    match value {
        Json::Object(pairs) => pairs
            .into_iter()
            .find_map(|(k, v)| (k == "payload").then_some(v))
            .ok_or("missing payload"),
        _ => Err("missing payload"),
    }
}

/// Writes `bytes` to `tmp`, fsyncs, then renames over `dst` — the visible
/// entry is either fully the old content or fully the new one.
fn write_atomic(tmp: &Path, dst: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = fs::File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(tmp, dst)?;
    sync_parent_dir(dst)
}

/// Fsyncs the directory holding `path`, so a rename into it survives power
/// loss and not only a process crash.
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(parent)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "biochip-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn round_trip_and_restart_scan() {
        let dir = temp_dir("roundtrip");
        let store = DiskStore::open(&dir, 1 << 20);
        let payload = Json::object([("answer", Json::Number(42.0))]);
        store.put("abc123", &payload);
        assert_eq!(store.get("abc123"), Some(payload.clone()));
        drop(store);

        let reopened = DiskStore::open(&dir, 1 << 20);
        assert_eq!(reopened.get("abc123"), Some(payload));
        let stats = reopened.stats();
        assert!(stats.enabled && stats.available);
        assert_eq!((stats.hits, stats.entries), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_respects_byte_budget_and_lru_order() {
        let dir = temp_dir("evict");
        let payload = Json::String("x".repeat(64));
        let tiny = {
            let probe = DiskStore::open(&dir, u64::MAX);
            probe.put("probe", &payload);
            probe.stats().bytes
        };
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("recreate temp dir");

        // Budget for two entries; touching `a` makes `b` the LRU victim.
        let store = DiskStore::open(&dir, tiny * 2);
        store.put("aa", &payload);
        store.put("bb", &payload);
        assert!(store.get("aa").is_some());
        store.put("cc", &payload);
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert!(store.get("bb").is_none(), "LRU entry should be evicted");
        assert!(store.get("aa").is_some() && store.get("cc").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_keys_never_touch_disk() {
        let dir = temp_dir("badkey");
        let store = DiskStore::open(&dir, 1 << 20);
        store.put("../escape", &Json::Null);
        store.put("", &Json::Null);
        assert!(store.get("../escape").is_none());
        let stats = store.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.write_errors, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
