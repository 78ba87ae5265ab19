//! The append-only job journal.
//!
//! One JSON object per line; the first line is a `biochip-journal/v1` header.
//! Records are appended and flushed before the submission is acknowledged,
//! so replay after a crash sees every job the server ever accepted. A torn
//! final line (the process died mid-append) simply fails to parse and is
//! counted as corrupt — replay continues past it.

use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use biochip_json::Json;

/// Header schema tag written as the journal's first line.
pub const JOURNAL_SCHEMA: &str = "biochip-journal/v1";

/// The result of replaying a journal file.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Every record line that parsed, in append order (header excluded).
    pub records: Vec<Json>,
    /// Lines that failed to parse — typically a single torn tail line.
    pub corrupt_lines: u64,
}

/// An append-only JSON-lines journal that degrades instead of failing: an
/// unopenable or unwritable file flips it to unavailable and appends become
/// counted no-ops.
pub struct Journal {
    path: PathBuf,
    writer: Mutex<Option<BufWriter<File>>>,
    appends: AtomicU64,
    append_errors: AtomicU64,
}

impl Journal {
    /// Opens `path` for appending, creating it (and a header line) if new.
    /// Never fails; on error the journal comes up unavailable.
    pub fn open(path: &Path) -> Journal {
        let fresh = !path.exists();
        let writer = match OpenOptions::new().create(true).append(true).open(path) {
            Ok(file) => {
                let mut writer = BufWriter::new(file);
                let mut ok = true;
                if fresh {
                    let header =
                        Json::object([("schema", Json::String(JOURNAL_SCHEMA.to_owned()))]);
                    ok = writeln!(writer, "{}", header.to_compact()).is_ok()
                        && writer.flush().is_ok();
                    // Make the new directory entry durable, as compaction
                    // does after its rename; the journal stays usable.
                    if let Err(err) = crate::disk::sync_parent_dir(path) {
                        eprintln!("biochip-store: journal creation not durable: {err}");
                    }
                }
                if ok {
                    Some(writer)
                } else {
                    eprintln!(
                        "biochip-store: cannot write journal header at {}",
                        path.display()
                    );
                    None
                }
            }
            Err(err) => {
                eprintln!(
                    "biochip-store: cannot open journal {}: {err}",
                    path.display()
                );
                None
            }
        };
        Journal {
            path: path.to_owned(),
            writer: Mutex::new(writer),
            appends: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
        }
    }

    /// Appends one record line and flushes it to the OS. Returns `false`
    /// (and flips to unavailable) on failure.
    pub fn append(&self, record: &Json) -> bool {
        let line = record.to_compact();
        let mut guard = self.lock_writer();
        let ok = match guard.as_mut() {
            Some(writer) => writeln!(writer, "{line}").is_ok() && writer.flush().is_ok(),
            None => false,
        };
        if ok {
            self.appends.fetch_add(1, Ordering::Relaxed);
        } else {
            if guard.take().is_some() {
                eprintln!("biochip-store: journal append failed; journal disabled");
            }
            self.append_errors.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Fsyncs the journal file — called on drain so acknowledged records
    /// survive power loss, not just process death.
    pub fn sync(&self) {
        let mut guard = self.lock_writer();
        if let Some(writer) = guard.as_mut() {
            let _ = writer.flush();
            let _ = writer.get_ref().sync_all();
        }
    }

    /// Rewrites the journal to exactly `records` (plus a fresh header) via
    /// temp-file + atomic rename (file and directory fsynced), then reopens
    /// for appending. Used after replay so the journal does not grow
    /// without bound.
    pub fn compact(&self, records: &[Json]) {
        let mut text = String::new();
        let header = Json::object([("schema", Json::String(JOURNAL_SCHEMA.to_owned()))]);
        text.push_str(&header.to_compact());
        text.push('\n');
        for record in records {
            text.push_str(&record.to_compact());
            text.push('\n');
        }
        let tmp = self.path.with_extension("tmp");
        let rewritten = fs::File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(text.as_bytes())?;
                file.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, &self.path));
        let mut guard = self.lock_writer();
        if let Err(err) = rewritten {
            let _ = fs::remove_file(&tmp);
            eprintln!("biochip-store: journal compaction failed: {err}");
            return;
        }
        // The rename is done, so appends must move to the new file even
        // when its directory entry could not be made durable.
        if let Err(err) = crate::disk::sync_parent_dir(&self.path) {
            eprintln!("biochip-store: journal compaction failed: {err}");
        }
        *guard = match OpenOptions::new().append(true).open(&self.path) {
            Ok(file) => Some(BufWriter::new(file)),
            Err(err) => {
                eprintln!("biochip-store: cannot reopen journal: {err}");
                None
            }
        };
    }

    /// Whether appends are currently reaching disk.
    pub fn is_available(&self) -> bool {
        self.lock_writer().is_some()
    }

    /// Total successful appends since open.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Total failed appends since open.
    pub fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    /// Reads and parses a journal file; a missing file is an empty replay.
    /// Unparseable lines (torn tail after a crash, disk noise) are counted
    /// and skipped, never fatal.
    pub fn replay(path: &Path) -> JournalReplay {
        let Ok(file) = File::open(path) else {
            return JournalReplay::default();
        };
        let mut replay = JournalReplay::default();
        for line in BufReader::new(file).lines() {
            let Ok(line) = line else {
                replay.corrupt_lines += 1;
                break;
            };
            if line.trim().is_empty() {
                continue;
            }
            match biochip_json::parse(&line) {
                Ok(value) => {
                    let is_header =
                        value.get("schema").map(Json::expect_str) == Some(Ok(JOURNAL_SCHEMA));
                    if !is_header {
                        replay.records.push(value);
                    }
                }
                Err(_) => replay.corrupt_lines += 1,
            }
        }
        replay
    }

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, Option<BufWriter<File>>> {
        self.writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "biochip-journal-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn record(id: u64, ev: &str) -> Json {
        Json::object([
            ("ev", Json::String(ev.to_owned())),
            ("id", Json::Number(id as f64)),
        ])
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let journal = Journal::open(&path);
        assert!(journal.append(&record(1, "submitted")));
        assert!(journal.append(&record(1, "done")));
        assert_eq!(journal.appends(), 2);
        drop(journal);

        let replay = Journal::replay(&path);
        assert_eq!(replay.corrupt_lines, 0);
        assert_eq!(
            replay.records,
            vec![record(1, "submitted"), record(1, "done")]
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_line_is_skipped_not_fatal() {
        let path = temp_path("torn");
        let _ = fs::remove_file(&path);
        let journal = Journal::open(&path);
        assert!(journal.append(&record(7, "submitted")));
        drop(journal);
        // Simulate a crash mid-append: an unterminated, unparseable tail.
        let mut file = OpenOptions::new().append(true).open(&path).expect("reopen");
        file.write_all(b"{\"ev\":\"do").expect("write torn tail");
        drop(file);

        let replay = Journal::replay(&path);
        assert_eq!(replay.records, vec![record(7, "submitted")]);
        assert_eq!(replay.corrupt_lines, 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn compact_rewrites_and_keeps_appending() {
        let path = temp_path("compact");
        let _ = fs::remove_file(&path);
        let journal = Journal::open(&path);
        for id in 0..10 {
            assert!(journal.append(&record(id, "submitted")));
        }
        journal.compact(&[record(9, "submitted")]);
        assert!(journal.append(&record(10, "submitted")));
        assert!(journal.is_available());
        drop(journal);

        let replay = Journal::replay(&path);
        assert_eq!(
            replay.records,
            vec![record(9, "submitted"), record(10, "submitted")]
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn unopenable_journal_degrades_without_panicking() {
        // A path whose parent is a regular file can never be created.
        let blocker = temp_path("blocker");
        fs::write(&blocker, b"not a directory").expect("write blocker");
        let inside = blocker.join("journal.jsonl");
        let journal = Journal::open(&inside);
        assert!(!journal.is_available());
        assert!(!journal.append(&record(1, "submitted")));
        assert_eq!(journal.append_errors(), 1);
        let _ = fs::remove_file(&blocker);
    }
}
