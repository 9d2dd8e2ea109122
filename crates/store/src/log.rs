//! The crash-tolerant append-only JSON-lines log underneath every
//! store in the workspace.
//!
//! A log file is one header line followed by one JSON object per
//! record:
//!
//! ```text
//! {"gtl_store":1,"kind":"lift_outcomes"}
//! {"attempts":57,"key":"00a1b2…","label":"blas_dot",…}
//! {"attempts":3,"key":"77ffe0…","label":"blas_gemv",…}
//! ```
//!
//! The header pins the on-disk format version and the record *kind*
//! (which store family wrote the file), so a log can never be replayed
//! into the wrong index. Appends are one `write` each — a crash can
//! only tear the final record, and [`JsonlLog::open`] recovers from
//! exactly that: a torn tail (invalid JSON, or invalid UTF-8 confined
//! to the last line) is truncated away and reported in [`Recovery`],
//! never silently kept and never allowed to poison later appends.
//! Corruption anywhere *before* the tail cannot come from a torn write,
//! so it fails loudly with a typed [`StoreError`] instead of dropping
//! records.
//!
//! # Legacy sealed files
//!
//! Earlier builds could rotate a log into sealed `PATH.seg-NNNNNN`
//! segments and merge those into a `PATH.snap` snapshot. Such a store
//! still opens with nothing lost: [`JsonlLog::open`] replays the
//! snapshot, then the segments in numeric order, then the live file,
//! and folds them all into the one live file with
//! [`JsonlLog::rewrite`], which deletes the sealed files after its
//! rename. A crash mid-fold leaves the sealed files next to a live
//! file that already holds every record, so the next open replays to
//! the same live set and folds again. [`JsonlLog::read`] replays the
//! same order without touching any file.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{parse, Json};

/// The on-disk format version this build reads and writes.
pub const STORE_VERSION: u64 = 1;

/// A typed persistence failure. No store API panics on bad data: every
/// unusable file or record surfaces as one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The filesystem said no (open, read, write, rename).
    Io {
        /// The file involved.
        path: String,
        /// The underlying error, rendered.
        message: String,
    },
    /// The version header is missing, unparseable, or names a different
    /// format version or record kind than the caller expects.
    Version {
        /// The file involved.
        path: String,
        /// What was wrong with the header.
        message: String,
    },
    /// A record *before* the tail failed to parse — externally corrupted
    /// data, not a torn write, so nothing is dropped and the open fails.
    Corrupt {
        /// The file involved.
        path: String,
        /// 1-based line number of the offending record.
        line: usize,
        /// What failed to parse.
        message: String,
    },
    /// A structurally valid JSON line did not have the record shape its
    /// store expects.
    Record {
        /// The file involved.
        path: String,
        /// 1-based line number of the offending record.
        line: usize,
        /// Which member was missing or mistyped.
        message: String,
    },
    /// A record offered for appending carried a non-finite number
    /// (NaN/∞). JSON cannot represent those — the serializer would
    /// degrade them to `null` and the store would fail typed decoding
    /// at the *next* open — so the append is refused up front instead.
    NonFinite {
        /// The file involved.
        path: String,
        /// Which member was non-finite.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "store {path}: {message}"),
            StoreError::Version { path, message } => {
                write!(f, "store {path}: bad header: {message}")
            }
            StoreError::Corrupt {
                path,
                line,
                message,
            } => write!(f, "store {path}: corrupt record at line {line}: {message}"),
            StoreError::Record {
                path,
                line,
                message,
            } => write!(f, "store {path}: malformed record at line {line}: {message}"),
            StoreError::NonFinite { path, message } => {
                write!(f, "store {path}: refusing non-finite number: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// What [`JsonlLog::open`] had to do to make the file usable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Whether a torn tail record was dropped (the file was truncated
    /// to the last complete record).
    pub truncated_tail: bool,
    /// Bytes removed by the truncation.
    pub dropped_bytes: u64,
}

fn io_err(path: &Path, e: impl fmt::Display) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Builds the header line for a log of `kind`.
fn header(kind: &str) -> Json {
    Json::obj([
        ("gtl_store", Json::u64(STORE_VERSION)),
        ("kind", Json::str(kind)),
    ])
}

/// Checks a parsed first line against the expected header.
fn check_header(path: &Path, doc: &Json, kind: &str) -> Result<(), StoreError> {
    let version_err = |message: String| StoreError::Version {
        path: path.display().to_string(),
        message,
    };
    let version = doc
        .get("gtl_store")
        .and_then(Json::as_u64)
        .ok_or_else(|| version_err("missing `gtl_store` version member".into()))?;
    if version != STORE_VERSION {
        return Err(version_err(format!(
            "format version {version}, this build reads {STORE_VERSION}"
        )));
    }
    let found = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| version_err("missing `kind` member".into()))?;
    if found != kind {
        return Err(version_err(format!(
            "record kind `{found}`, expected `{kind}`"
        )));
    }
    Ok(())
}

/// Whether `first_line` is a gtl_store log header (any kind, any
/// version) — the sniff used to tell a log from a legacy one-document
/// JSON file sharing the same path conventions.
pub fn is_log_header(first_line: &str) -> bool {
    parse(first_line.trim())
        .ok()
        .is_some_and(|doc| doc.get("gtl_store").is_some())
}

/// [`is_log_header`] over raw file bytes: sniffs the first line only,
/// which is the sole part of a log required to be valid UTF-8 — a torn
/// multi-byte character in the tail must not defeat the sniff.
pub fn is_log_file(bytes: &[u8]) -> bool {
    let first = bytes.split(|b| *b == b'\n').next().unwrap_or_default();
    std::str::from_utf8(first).is_ok_and(is_log_header)
}

/// The log kind under which oracle fixture responses are recorded.
/// Shared by `gtl_oracle`'s recording store and `store_tool`'s
/// fixture handling so the spelling cannot drift (lift outcomes use
/// [`crate::LIFT_LOG_KIND`]).
pub const FIXTURE_LOG_KIND: &str = "oracle_fixture";

/// One open append-only log: the durable half of every store.
///
/// `append` is `&self` (internally locked), so one log can be shared by
/// concurrent writers; each append is a single `write` call of one full
/// line, which is what makes tail-only tearing the sole crash mode.
#[derive(Debug)]
pub struct JsonlLog {
    path: PathBuf,
    kind: String,
    file: Mutex<File>,
}

/// The records loaded by [`JsonlLog::open`], plus recovery facts.
#[derive(Debug, Default)]
pub struct LoadedLog {
    /// Every good record, in replay order: legacy snapshot, legacy
    /// segments, then the live file (headers excluded).
    pub records: Vec<Json>,
    /// What recovery had to do.
    pub recovery: Recovery,
    /// How many legacy sealed files (snapshot + segments) preceded the
    /// live file in the replay; [`JsonlLog::open`] folds them into the
    /// live file, so this is `0` from the next open on.
    pub sealed_files: usize,
}

/// `PATH.snap` — the merged snapshot of a legacy rotated log.
fn snap_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".snap");
    PathBuf::from(name)
}

/// Lists the legacy sealed files for a log at `path` in replay order:
/// the snapshot (if any), then the `PATH.seg-NNNNNN` segments in
/// ascending numeric order.
fn sealed_files(path: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let snap = snap_path(path);
    let snap = snap.exists().then_some(snap);
    let dir = if path.parent().is_some_and(|p| !p.as_os_str().is_empty()) {
        path.parent().expect("checked above").to_path_buf()
    } else {
        PathBuf::from(".")
    };
    let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
        return Ok(snap.into_iter().collect());
    };
    let prefix = format!("{file_name}.seg-");
    let mut segments = Vec::new();
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        // A missing parent directory means no segments (the live-file
        // open will surface the real error if the path is unusable).
        Err(_) => return Ok(snap.into_iter().collect()),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(&dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(number) = name.strip_prefix(&prefix) {
            if let Ok(n) = number.parse::<u64>() {
                segments.push((n, entry.path()));
            }
        }
    }
    segments.sort_unstable();
    Ok(snap.into_iter().chain(segments.into_iter().map(|(_, p)| p)).collect())
}

/// Replays the legacy sealed files of the log at `path`, read-only, in
/// replay order (snapshot, then segments by number). A torn tail in a
/// sealed file is reported in `recovery` but never truncated on disk.
fn replay_sealed(path: &Path, kind: &str, into: &mut LoadedLog) -> Result<(), StoreError> {
    for sealed in sealed_files(path)? {
        let bytes = std::fs::read(&sealed).map_err(|e| io_err(&sealed, e))?;
        let replayed = replay(&sealed, &bytes, kind)?;
        into.recovery.truncated_tail |= replayed.recovery.truncated_tail;
        into.recovery.dropped_bytes += replayed.recovery.dropped_bytes;
        into.records.extend(replayed.records);
        into.sealed_files += 1;
    }
    Ok(())
}

impl JsonlLog {
    /// Opens (or creates) the log at `path` for kind `kind`, replaying
    /// every record and recovering from a torn tail. Legacy sealed
    /// files next to `path` are replayed first and then folded into
    /// the live file (see the module docs).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Version`]
    /// on a header mismatch, [`StoreError::Corrupt`] when a record
    /// before the tail does not parse.
    pub fn open(path: impl Into<PathBuf>, kind: &str) -> Result<(JsonlLog, LoadedLog), StoreError> {
        Self::open_impl(path.into(), kind, None)
    }

    /// [`JsonlLog::open`], but over `bytes` the caller already read
    /// from `path` (typically for a format sniff — the open should not
    /// cost a second full-file read). `bytes` must be the live file's
    /// entire current contents, and the caller must be the only
    /// writer, as with every open.
    ///
    /// # Errors
    ///
    /// As [`JsonlLog::open`].
    pub fn open_loaded(
        path: impl Into<PathBuf>,
        kind: &str,
        bytes: &[u8],
    ) -> Result<(JsonlLog, LoadedLog), StoreError> {
        Self::open_impl(path.into(), kind, Some(bytes))
    }

    /// The one open path: replays legacy sealed files, then opens the
    /// live file — creating it fresh when missing or empty, truncating
    /// a torn tail otherwise — and folds any sealed files into it.
    fn open_impl(
        path: PathBuf,
        kind: &str,
        live_bytes: Option<&[u8]>,
    ) -> Result<(JsonlLog, LoadedLog), StoreError> {
        let mut loaded = LoadedLog::default();
        replay_sealed(&path, kind, &mut loaded)?;
        let log = Self::open_live(path, kind, live_bytes, &mut loaded)?;
        if loaded.sealed_files > 0 {
            log.rewrite(&loaded.records)?;
        }
        Ok((log, loaded))
    }

    /// Opens the live file for appending and replays it onto `loaded`.
    fn open_live(
        path: PathBuf,
        kind: &str,
        live_bytes: Option<&[u8]>,
        loaded: &mut LoadedLog,
    ) -> Result<JsonlLog, StoreError> {
        // A missing live file starts fresh; so does an existing
        // zero-byte file (a crash between creation and the header
        // write, or an operator `touch`) — there is nothing durable to
        // lose there, so recover by writing a fresh header.
        let owned_bytes;
        let live_bytes = match live_bytes {
            Some(bytes) => bytes,
            None => {
                if std::fs::metadata(&path).map_or(true, |meta| meta.len() == 0) {
                    owned_bytes = Vec::new();
                } else {
                    owned_bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
                }
                &owned_bytes
            }
        };
        if live_bytes.is_empty() {
            let mut file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)
                .map_err(|e| io_err(&path, e))?;
            file.write_all(format!("{}\n", header(kind)).as_bytes())
                .map_err(|e| io_err(&path, e))?;
            return Ok(JsonlLog {
                path,
                kind: kind.to_string(),
                file: Mutex::new(file),
            });
        }

        let replayed = replay(&path, live_bytes, kind)?;
        // A recovered tail: cut the file back to the last durable byte
        // so the next append starts a fresh line instead of splicing
        // into garbage.
        if replayed.good_end != live_bytes.len() as u64 {
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| io_err(&path, e))?;
            file.set_len(replayed.good_end)
                .map_err(|e| io_err(&path, e))?;
        }
        let mut file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        if replayed.missing_newline {
            // The final record parsed but lacked its newline (hand
            // editing); terminate it so the next append cannot splice.
            file.write_all(b"\n").map_err(|e| io_err(&path, e))?;
        }
        loaded.recovery.truncated_tail |= replayed.recovery.truncated_tail;
        loaded.recovery.dropped_bytes += replayed.recovery.dropped_bytes;
        loaded.records.extend(replayed.records);
        Ok(JsonlLog {
            path,
            kind: kind.to_string(),
            file: Mutex::new(file),
        })
    }

    /// Creates (or atomically replaces) a log at `path` holding
    /// `records`, via temp file + rename — the migration primitive for
    /// converting legacy one-document files into logs without a window
    /// where the data exists in neither format.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when any step fails; an existing file at
    /// `path` is untouched in that case.
    pub fn create(
        path: impl Into<PathBuf>,
        kind: &str,
        records: &[Json],
    ) -> Result<JsonlLog, StoreError> {
        let path = path.into();
        let file = write_atomically(&path, kind, records)?;
        Ok(JsonlLog {
            path,
            kind: kind.to_string(),
            file: Mutex::new(file),
        })
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The record kind in this log's header.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Appends one record as a single line (one `write` call — the
    /// crash-tolerance contract).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the write fails; the in-memory caller
    /// state is then ahead of disk, which is safe (re-appending later
    /// supersedes cleanly).
    pub fn append(&self, record: &Json) -> Result<(), StoreError> {
        let line = format!("{}\n", record.to_line());
        self.file
            .lock()
            .expect("log file poisoned")
            .write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, e))
    }

    /// Atomically replaces the log's *entire* contents with `records`
    /// (write to a temp file, rename over) — the one compaction
    /// primitive. Any legacy snapshot or sealed segments are deleted
    /// afterwards, since `records` supersedes everything. The append
    /// handle is re-pointed at the new file, so the log stays usable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when any step fails; the original file is
    /// untouched in that case.
    pub fn rewrite(&self, records: &[Json]) -> Result<(), StoreError> {
        let mut file = self.file.lock().expect("log file poisoned");
        *file = write_atomically(&self.path, &self.kind, records)?;
        // The new live file holds everything; sealed leftovers would
        // replay stale records ahead of it, so they go.
        for sealed in sealed_files(&self.path)? {
            std::fs::remove_file(&sealed).map_err(|e| io_err(&sealed, e))?;
        }
        Ok(())
    }

    /// Reads a log without expecting a particular kind (the
    /// `store_tool` entry point). Returns the kind named in the header
    /// and the loaded records — legacy sealed files included, in replay
    /// order; never modifies any file.
    ///
    /// # Errors
    ///
    /// As [`JsonlLog::open`], plus [`StoreError::Io`] for a missing
    /// file.
    pub fn read(path: &Path) -> Result<(String, LoadedLog), StoreError> {
        let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
        let (kind, live) = Self::read_bytes(path, &bytes)?;
        let mut loaded = LoadedLog::default();
        replay_sealed(path, &kind, &mut loaded)?;
        loaded.recovery.truncated_tail |= live.recovery.truncated_tail;
        loaded.recovery.dropped_bytes += live.recovery.dropped_bytes;
        loaded.records.extend(live.records);
        Ok((kind, loaded))
    }

    /// Parses the live bytes of a log without expecting a particular
    /// kind (`path` is used for error messages only; sealed files are
    /// not consulted).
    ///
    /// # Errors
    ///
    /// As [`JsonlLog::read`].
    pub fn read_bytes(path: &Path, bytes: &[u8]) -> Result<(String, LoadedLog), StoreError> {
        let first = bytes.split(|b| *b == b'\n').next().unwrap_or_default();
        let kind = std::str::from_utf8(first)
            .ok()
            .and_then(|line| parse(line.trim()).ok())
            .and_then(|doc| doc.get("kind").and_then(Json::as_str).map(str::to_string))
            .ok_or_else(|| StoreError::Version {
                path: path.display().to_string(),
                message: "missing or unparseable header line".into(),
            })?;
        let replayed = replay(path, bytes, &kind)?;
        Ok((
            kind,
            LoadedLog {
                records: replayed.records,
                recovery: replayed.recovery,
                sealed_files: 0,
            },
        ))
    }
}

/// Writes a header plus `records` to a temp file next to `path`, syncs
/// it and renames it over `path`; returns an append handle to the new
/// file. An existing file at `path` is untouched on failure.
fn write_atomically(path: &Path, kind: &str, records: &[Json]) -> Result<File, StoreError> {
    let tmp = path.with_extension("tmp");
    {
        let mut out = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err(&tmp, e))?;
        let mut text = format!("{}\n", header(kind));
        for record in records {
            text.push_str(&record.to_line());
            text.push('\n');
        }
        out.write_all(text.as_bytes())
            .map_err(|e| io_err(&tmp, e))?;
        out.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, e))
}

/// What [`replay`] found in a log's bytes.
struct Replayed {
    /// Every good record, in append order.
    records: Vec<Json>,
    /// Byte offset of the end of the last durable record — the length
    /// the file should be truncated to when a torn tail follows it.
    good_end: u64,
    /// The recovery report.
    recovery: Recovery,
    /// The final record parsed but had no trailing newline; the caller
    /// must terminate it before appending.
    missing_newline: bool,
}

/// Replays log bytes: validates the header, parses every record, and
/// classifies failures as recoverable tail tearing vs hard corruption.
/// Pure — never touches the filesystem.
fn replay(path: &Path, bytes: &[u8], kind: &str) -> Result<Replayed, StoreError> {
    // Split into segments at newlines, keeping byte offsets. The final
    // segment may be unterminated (that is the torn-tail case).
    let mut segments: Vec<(usize, &[u8], bool)> = Vec::new(); // (start, bytes, terminated)
    let mut start = 0;
    for (i, b) in bytes.iter().enumerate() {
        if *b == b'\n' {
            segments.push((start, &bytes[start..i], true));
            start = i + 1;
        }
    }
    if start < bytes.len() {
        segments.push((start, &bytes[start..], false));
    }

    // No bytes at all: `JsonlLog::open` recovers a zero-byte file by
    // rewriting a fresh header before replaying, so reaching here
    // empty-handed means a read-only caller (`JsonlLog::read`) that
    // cannot repair the file — a typed error.
    let Some((_, header_bytes, header_terminated)) = segments.first().copied() else {
        return Err(StoreError::Version {
            path: path.display().to_string(),
            message: "empty file (no header line)".into(),
        });
    };
    let header_doc = std::str::from_utf8(header_bytes)
        .ok()
        .and_then(|line| parse(line.trim()).ok())
        .ok_or_else(|| StoreError::Version {
            path: path.display().to_string(),
            message: "unparseable header line".into(),
        })?;
    check_header(path, &header_doc, kind)?;
    if !header_terminated {
        // A bare, newline-less header: keep it and let the caller
        // terminate the line before the first append.
        return Ok(Replayed {
            records: Vec::new(),
            good_end: bytes.len() as u64,
            recovery: Recovery::default(),
            missing_newline: true,
        });
    }

    let mut records = Vec::new();
    let mut good_end = header_bytes.len() as u64 + 1;
    let mut missing_newline = false;
    let last = segments.len().saturating_sub(1);
    for (index, (start, segment, terminated)) in segments.iter().copied().enumerate().skip(1) {
        let line_no = index + 1;
        let is_tail = index == last;
        if segment.is_empty() {
            // Blank lines carry no data; skipping them loses nothing.
            if terminated {
                good_end = start as u64 + 1;
            }
            continue;
        }
        let parsed = std::str::from_utf8(segment)
            .ok()
            .and_then(|line| parse(line.trim()).ok());
        match parsed {
            Some(doc) => {
                records.push(doc);
                good_end = start as u64 + segment.len() as u64 + u64::from(terminated);
                // Only the tail can lack its newline (the loop would
                // have split anywhere else).
                missing_newline = !terminated;
            }
            None if is_tail => {
                // The torn write: drop it, truncate, report.
                return Ok(Replayed {
                    records,
                    good_end,
                    recovery: Recovery {
                        truncated_tail: true,
                        dropped_bytes: bytes.len() as u64 - good_end,
                    },
                    missing_newline: false,
                });
            }
            None => {
                return Err(StoreError::Corrupt {
                    path: path.display().to_string(),
                    line: line_no,
                    message: "not a JSON record".into(),
                });
            }
        }
    }
    // A parseable but unterminated final record is durable data (only
    // hand editing produces it — append writes record and newline in
    // one call); keep it, and have the caller terminate the line.
    Ok(Replayed {
        records,
        good_end: bytes.len() as u64,
        recovery: Recovery::default(),
        missing_newline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gtl-log-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn record(n: u64) -> Json {
        Json::obj([("n", Json::u64(n))])
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = tmp("roundtrip");
        {
            let (log, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
            assert!(loaded.records.is_empty());
            log.append(&record(1)).unwrap();
            log.append(&record(2)).unwrap();
        }
        let (log, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert_eq!(loaded.records, vec![record(1), record(2)]);
        assert_eq!(loaded.recovery, Recovery::default());
        log.append(&record(3)).unwrap();
        let (_, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert_eq!(loaded.records.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_survives_further_appends() {
        let path = tmp("torn");
        {
            let (log, _) = JsonlLog::open(&path, "test_kind").unwrap();
            log.append(&record(1)).unwrap();
        }
        // Simulate a crash mid-append: half a record, no newline.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"n\":2,\"tr").unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let (log, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert_eq!(loaded.records, vec![record(1)], "good prefix kept");
        assert!(loaded.recovery.truncated_tail);
        assert_eq!(loaded.recovery.dropped_bytes, 10);
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        log.append(&record(3)).unwrap();
        let (_, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert_eq!(loaded.records, vec![record(1), record(3)]);
        assert!(!loaded.recovery.truncated_tail, "recovery is one-shot");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unterminated_but_parseable_tail_is_kept() {
        // Hand editing can leave a valid record with no newline; it is
        // durable data, so it must be kept — and terminated so the next
        // append cannot splice into it.
        let path = tmp("no-newline");
        {
            let (log, _) = JsonlLog::open(&path, "test_kind").unwrap();
            log.append(&record(1)).unwrap();
        }
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(record(2).to_line().as_bytes()).unwrap();
        }
        let (log, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert_eq!(loaded.records, vec![record(1), record(2)]);
        assert!(!loaded.recovery.truncated_tail);
        log.append(&record(3)).unwrap();
        let (_, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert_eq!(loaded.records, vec![record(1), record(2), record(3)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interior_garbage_is_a_typed_error_not_data_loss() {
        let path = tmp("garbage");
        {
            let (log, _) = JsonlLog::open(&path, "test_kind").unwrap();
            log.append(&record(1)).unwrap();
        }
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"!!not json!!\n").unwrap();
        }
        {
            // Valid data *after* the garbage makes it interior.
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, format!("{text}{}\n", record(2))).unwrap();
        }
        let err = JsonlLog::open(&path, "test_kind").unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { line: 3, .. }),
            "expected Corrupt at line 3, got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_byte_file_is_recovered_as_a_fresh_log() {
        // A crash between file creation and the header write (or an
        // operator `touch`) leaves an empty file; nothing durable is
        // lost, so open must recover rather than brick the store.
        let path = tmp("empty");
        std::fs::write(&path, b"").unwrap();
        let (log, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert!(loaded.records.is_empty());
        log.append(&record(1)).unwrap();
        let (_, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert_eq!(loaded.records, vec![record(1)]);
        // The read-only path cannot repair, so there it stays typed.
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            JsonlLog::read(&path).unwrap_err(),
            StoreError::Version { .. }
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_mismatches_are_typed_version_errors() {
        let path = tmp("header");
        {
            let (log, _) = JsonlLog::open(&path, "kind_a").unwrap();
            log.append(&record(1)).unwrap();
        }
        let err = JsonlLog::open(&path, "kind_b").unwrap_err();
        assert!(matches!(err, StoreError::Version { .. }), "{err:?}");

        std::fs::write(&path, "{\"gtl_store\":99,\"kind\":\"kind_a\"}\n").unwrap();
        let err = JsonlLog::open(&path, "kind_a").unwrap_err();
        assert!(matches!(err, StoreError::Version { .. }), "{err:?}");

        std::fs::write(&path, "plain text, not a log\n").unwrap();
        let err = JsonlLog::open(&path, "kind_a").unwrap_err();
        assert!(matches!(err, StoreError::Version { .. }), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let path = tmp("rewrite");
        let (log, _) = JsonlLog::open(&path, "test_kind").unwrap();
        for n in 0..10 {
            log.append(&record(n)).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        log.rewrite(&[record(9)]).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        // The handle keeps working after the rename.
        log.append(&record(10)).unwrap();
        let (_, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert_eq!(loaded.records, vec![record(9), record(10)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_reports_kind_without_modifying() {
        let path = tmp("read");
        let (log, _) = JsonlLog::open(&path, "some_kind").unwrap();
        log.append(&record(7)).unwrap();
        let (kind, loaded) = JsonlLog::read(&path).unwrap();
        assert_eq!(kind, "some_kind");
        assert_eq!(loaded.records, vec![record(7)]);
        assert!(JsonlLog::read(Path::new("/definitely/not/here")).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_sealed_files_are_read_in_order_then_folded_by_open() {
        let path = tmp("legacy");
        let seg = |n: u64| PathBuf::from(format!("{}.seg-{n:06}", path.display()));
        let write = |p: &Path, ns: &[u64]| {
            let mut text = format!("{}\n", header("test_kind"));
            for n in ns {
                text.push_str(&format!("{}\n", record(*n)));
            }
            std::fs::write(p, text).unwrap();
        };
        // Past six digits the names stop sorting by number: segment
        // 1000000 must still replay after segment 999999.
        write(&snap_path(&path), &[0, 1]);
        write(&seg(1_000_000), &[4]);
        write(&seg(999_999), &[2, 3]);
        write(&path, &[5]);
        let expected: Vec<Json> = (0..6).map(record).collect();
        // The read-only path replays every piece and modifies nothing.
        let (_, read) = JsonlLog::read(&path).unwrap();
        assert_eq!(read.records, expected);
        assert_eq!(read.sealed_files, 3);
        assert!(snap_path(&path).exists() && seg(999_999).exists() && seg(1_000_000).exists());
        // Open replays the same order, then leaves one live file.
        let (log, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert_eq!(loaded.records, expected);
        assert_eq!(loaded.sealed_files, 3);
        assert!(!snap_path(&path).exists() && !seg(999_999).exists() && !seg(1_000_000).exists());
        log.append(&record(6)).unwrap();
        let (_, loaded) = JsonlLog::open(&path, "test_kind").unwrap();
        assert_eq!(loaded.records, (0..7).map(record).collect::<Vec<_>>());
        assert_eq!(loaded.sealed_files, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sniffs_log_headers() {
        assert!(is_log_header("{\"gtl_store\":1,\"kind\":\"x\"}"));
        assert!(!is_log_header("{\"version\":1,\"entries\":{}}"));
        assert!(!is_log_header("{"));
        assert!(!is_log_header(""));
    }
}
