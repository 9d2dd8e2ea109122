//! The persistent lift store: completed lift outcomes keyed by the
//! serving layer's normalized request hash, durable across restarts.
//!
//! A [`LiftStore`] is an in-memory index over an append-only
//! [`JsonlLog`] of [`LiftRecord`]s. Appends are last-writer-wins per
//! key; superseded records stay in the log until [`LiftStore::compact`]
//! rewrites it down to the live set (atomically, via temp file +
//! rename). The same store file serves every consumer that can compute
//! the request key — `lift_server --store` warm-starts its result
//! cache from it, `batch_suite --store` skips already-solved
//! benchmarks, and `store_tool` inspects/compacts/exports it offline.
//!
//! A store is exactly one file. A store left in an older build's rotated
//! layout (sealed segments plus a snapshot) is folded into that file at
//! open (see [`JsonlLog::open`]); nothing else here knows about it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::log::{JsonlLog, Recovery, StoreError};

/// The header `kind` of lift-outcome logs.
pub const LIFT_LOG_KIND: &str = "lift_outcomes";

/// One completed lift, as persisted: everything a serving layer needs
/// to answer the identical request again without running a search.
#[derive(Debug, Clone, PartialEq)]
pub struct LiftRecord {
    /// The normalized request hash (`gtl_serve::request_key`): source +
    /// label + ground truth + task layout + outcome-relevant config.
    pub key: u64,
    /// The benchmark/request label, for humans and `store_tool`.
    pub label: String,
    /// The verified solution, when the lift succeeded.
    pub solution: Option<String>,
    /// The wire failure reason, when it did not.
    pub reason: Option<String>,
    /// Optional failure detail.
    pub detail: Option<String>,
    /// Templates sent to validation by the original run.
    pub attempts: u64,
    /// Search-queue pops of the original run.
    pub nodes: u64,
    /// End-to-end seconds of the original run.
    pub seconds: f64,
}

impl LiftRecord {
    /// Whether the recorded lift succeeded.
    pub fn solved(&self) -> bool {
        self.solution.is_some()
    }

    /// Encodes as one log record. The key travels as a 16-digit hex
    /// string — the established on-disk format (predating lossless
    /// [`Json`] integers), and what every existing store file holds.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("key", Json::str(format!("{:016x}", self.key))),
            ("label", Json::str(&self.label)),
            ("attempts", Json::u64(self.attempts)),
            ("nodes", Json::u64(self.nodes)),
            ("seconds", Json::num(self.seconds)),
        ];
        if let Some(solution) = &self.solution {
            fields.push(("solution", Json::str(solution)));
        }
        if let Some(reason) = &self.reason {
            fields.push(("reason", Json::str(reason)));
        }
        if let Some(detail) = &self.detail {
            fields.push(("detail", Json::str(detail)));
        }
        Json::obj(fields)
    }

    /// Decodes one log record.
    ///
    /// # Errors
    ///
    /// Returns a description of the missing/mistyped member.
    pub fn from_json(doc: &Json) -> Result<LiftRecord, String> {
        let key = doc
            .get("key")
            .and_then(Json::as_str)
            .ok_or("missing string `key`")?;
        let key = u64::from_str_radix(key, 16).map_err(|_| "non-hex `key`".to_string())?;
        let string = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_string);
        Ok(LiftRecord {
            key,
            label: string("label").ok_or("missing string `label`")?,
            solution: string("solution"),
            reason: string("reason"),
            detail: string("detail"),
            attempts: doc
                .get("attempts")
                .and_then(Json::as_u64)
                .ok_or("missing numeric `attempts`")?,
            nodes: doc
                .get("nodes")
                .and_then(Json::as_u64)
                .ok_or("missing numeric `nodes`")?,
            seconds: doc
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or("missing numeric `seconds`")?,
        })
    }
}

/// Monotonic activity counters of one open store, surfaced by the
/// serving layer's `stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Live records loaded at open (after last-writer-wins collapsing).
    pub loaded: u64,
    /// Records appended since open.
    pub appended: u64,
    /// Compactions performed since open.
    pub compactions: u64,
}

/// What a compaction accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Log records before (superseded included).
    pub records_before: u64,
    /// Live records after.
    pub records_after: u64,
    /// File bytes before.
    pub bytes_before: u64,
    /// File bytes after.
    pub bytes_after: u64,
}

/// The durable lift-outcome store. All methods are `&self`; the store
/// is `Sync` and meant to be shared by every worker of a server.
#[derive(Debug)]
pub struct LiftStore {
    log: JsonlLog,
    index: Mutex<HashMap<u64, LiftRecord>>,
    loaded: u64,
    /// Superseded records observed in the log at open time.
    superseded_at_open: u64,
    recovery: Recovery,
    appended: AtomicU64,
    compactions: AtomicU64,
}

impl LiftStore {
    /// Opens (or creates) the store at `path`, replaying its log into
    /// the in-memory index. Later records win per key; a torn final
    /// record is truncated away (see [`Recovery`]).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the file is unusable: I/O failure, version
    /// or kind mismatch, corruption before the tail, or a record
    /// missing required members.
    pub fn open(path: impl Into<PathBuf>) -> Result<LiftStore, StoreError> {
        let path = path.into();
        let (log, loaded) = JsonlLog::open(&path, LIFT_LOG_KIND)?;
        let mut index = HashMap::new();
        let mut superseded = 0u64;
        for (n, doc) in loaded.records.iter().enumerate() {
            let record = LiftRecord::from_json(doc).map_err(|message| StoreError::Record {
                path: path.display().to_string(),
                // +2: 1-based, after the header line.
                line: n + 2,
                message,
            })?;
            if index.insert(record.key, record).is_some() {
                superseded += 1;
            }
        }
        Ok(LiftStore {
            log,
            loaded: index.len() as u64,
            superseded_at_open: superseded,
            recovery: loaded.recovery,
            index: Mutex::new(index),
            appended: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        })
    }

    /// The file backing this store.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// The stored record for a request key, if any.
    pub fn get(&self, key: u64) -> Option<LiftRecord> {
        self.index
            .lock()
            .expect("lift index poisoned")
            .get(&key)
            .cloned()
    }

    /// Persists one completed lift (last writer wins per key). A record
    /// identical to what is already stored is skipped — replaying the
    /// same suite over a warm store must not grow the log, and a peer
    /// re-sharing a lift must be idempotent. Returns whether the record
    /// was actually appended (`false` for the identical-duplicate skip).
    ///
    /// # Errors
    ///
    /// [`StoreError::NonFinite`] when the record carries a NaN or
    /// infinite `seconds` — JSON cannot represent those, so persisting
    /// would corrupt the next open; nothing is stored. [`StoreError::Io`]
    /// when the append cannot be written; the in-memory index is
    /// updated regardless, so serving continues and a later append can
    /// supersede cleanly.
    pub fn append(&self, record: LiftRecord) -> Result<bool, StoreError> {
        if !record.seconds.is_finite() {
            return Err(StoreError::NonFinite {
                path: self.log.path().display().to_string(),
                message: format!(
                    "`seconds` is {} for key {:016x} ({})",
                    record.seconds, record.key, record.label
                ),
            });
        }
        {
            let mut index = self.index.lock().expect("lift index poisoned");
            if index.get(&record.key) == Some(&record) {
                return Ok(false);
            }
            index.insert(record.key, record.clone());
        }
        self.log.append(&record.to_json())?;
        self.appended.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Live records currently indexed.
    pub fn len(&self) -> usize {
        self.index.lock().expect("lift index poisoned").len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every live record, sorted by label then key so
    /// the order is deterministic.
    pub fn records(&self) -> Vec<LiftRecord> {
        let mut records: Vec<LiftRecord> = self
            .index
            .lock()
            .expect("lift index poisoned")
            .values()
            .cloned()
            .collect();
        records.sort_by(|a, b| a.label.cmp(&b.label).then(a.key.cmp(&b.key)));
        records
    }

    /// Compacts the log down to the live set by rewriting the whole
    /// file atomically (temp file then rename). Served answers are
    /// unchanged: compaction drops only superseded records.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a write fails; the original file is
    /// untouched in that case.
    pub fn compact(&self) -> Result<CompactionStats, StoreError> {
        // Hold the index lock across the rewrite so a concurrent append
        // cannot land between snapshot and rename (it would be lost).
        let index = self.index.lock().expect("lift index poisoned");
        let before = std::fs::read(self.log.path()).unwrap_or_default();
        let bytes_before = before.len() as u64;
        // Record lines in the file right now (header excluded).
        let records_before =
            (before.iter().filter(|b| **b == b'\n').count() as u64).saturating_sub(1);
        let mut live: Vec<&LiftRecord> = index.values().collect();
        live.sort_by(|a, b| a.label.cmp(&b.label).then(a.key.cmp(&b.key)));
        let docs: Vec<Json> = live.iter().map(|r| r.to_json()).collect();
        self.log.rewrite(&docs)?;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        let bytes_after = std::fs::metadata(self.log.path()).map_or(0, |m| m.len());
        Ok(CompactionStats {
            records_before,
            records_after: live.len() as u64,
            bytes_before,
            bytes_after,
        })
    }

    /// Compacts only when the log is stale: it carries more superseded
    /// than live records. This is the deterministic maintenance rule
    /// `lift_server --store` applies at startup.
    ///
    /// # Errors
    ///
    /// As [`LiftStore::compact`].
    pub fn compact_if_stale(&self) -> Result<Option<CompactionStats>, StoreError> {
        if self.superseded_at_open > self.loaded {
            self.compact().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Activity counters for `stats` reporting.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            loaded: self.loaded,
            appended: self.appended.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }

    /// Superseded records the open-time replay collapsed away.
    pub fn superseded_at_open(&self) -> u64 {
        self.superseded_at_open
    }

    /// What recovery had to do when this store was opened.
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }
}

/// Parses a `store_tool export` document of lift outcomes back into
/// records — the loader `loadgen` uses to replay a store's live set as
/// a request corpus.
///
/// # Errors
///
/// A description of what made the document unusable: unparseable JSON,
/// a non-lift `kind`, or a record missing required members.
pub fn parse_export(text: &str) -> Result<Vec<LiftRecord>, String> {
    let doc = crate::json::parse(text).map_err(|e| format!("unparseable export: {e}"))?;
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing string `kind`")?;
    if kind != LIFT_LOG_KIND {
        return Err(format!("export kind `{kind}`, expected `{LIFT_LOG_KIND}`"));
    }
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("missing array `records`")?;
    records
        .iter()
        .enumerate()
        .map(|(n, r)| LiftRecord::from_json(r).map_err(|e| format!("record {n}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gtl-lift-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn solved(key: u64, label: &str) -> LiftRecord {
        LiftRecord {
            key,
            label: label.into(),
            solution: Some("a(i) = b(i,j) * c(j)".into()),
            reason: None,
            detail: None,
            attempts: 57,
            nodes: 1250,
            seconds: 0.25,
        }
    }

    fn failed(key: u64, label: &str) -> LiftRecord {
        LiftRecord {
            key,
            label: label.into(),
            solution: None,
            reason: Some("budget_exceeded".into()),
            detail: None,
            attempts: 30_000,
            nodes: 412_007,
            seconds: 9.8,
        }
    }

    #[test]
    fn record_json_roundtrip() {
        for record in [solved(u64::MAX, "blas_gemv"), failed(1, "sa_4d_add")] {
            let doc = record.to_json();
            assert_eq!(LiftRecord::from_json(&doc).unwrap(), record);
            // And through the serializer/parser.
            let reparsed = crate::json::parse(&doc.to_line()).unwrap();
            assert_eq!(LiftRecord::from_json(&reparsed).unwrap(), record);
        }
        assert!(LiftRecord::from_json(&Json::obj([])).is_err());
        assert!(
            LiftRecord::from_json(&Json::obj([("key", Json::u64(3))])).is_err(),
            "numeric keys are rejected (precision)"
        );
    }

    #[test]
    fn outcomes_survive_restart() {
        let path = tmp("restart");
        {
            let store = LiftStore::open(&path).unwrap();
            store.append(solved(10, "blas_dot")).unwrap();
            store.append(failed(20, "sa_4d_add")).unwrap();
            assert_eq!(store.counters().appended, 2);
        }
        let store = LiftStore::open(&path).unwrap();
        assert_eq!(store.counters().loaded, 2);
        assert_eq!(store.get(10).unwrap(), solved(10, "blas_dot"));
        assert!(!store.get(20).unwrap().solved());
        assert!(store.get(99).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn last_writer_wins_and_identical_appends_are_skipped() {
        let path = tmp("supersede");
        {
            let store = LiftStore::open(&path).unwrap();
            store.append(failed(10, "blas_dot")).unwrap();
            store.append(solved(10, "blas_dot")).unwrap();
            // An exact repeat must not grow the log.
            store.append(solved(10, "blas_dot")).unwrap();
            assert_eq!(store.counters().appended, 2);
            assert_eq!(store.len(), 1);
        }
        let store = LiftStore::open(&path).unwrap();
        assert_eq!(store.counters().loaded, 1);
        assert_eq!(store.superseded_at_open(), 1);
        assert!(store.get(10).unwrap().solved(), "latest record wins");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_drops_superseded_records_only() {
        let path = tmp("compact");
        let store = LiftStore::open(&path).unwrap();
        for round in 0..4 {
            for key in 0..3u64 {
                let mut r = solved(key, &format!("bench{key}"));
                r.attempts = round; // distinct → really appended
                store.append(r).unwrap();
            }
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let answers: Vec<_> = (0..3).map(|k| store.get(k)).collect();
        let stats = store.compact().unwrap();
        assert_eq!(stats.records_before, 12);
        assert_eq!(stats.records_after, 3);
        assert!(stats.bytes_after < stats.bytes_before);
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        // No served answer changed.
        assert_eq!(answers, (0..3).map(|k| store.get(k)).collect::<Vec<_>>());
        // And the compacted log replays to the same index.
        let reopened = LiftStore::open(&path).unwrap();
        assert_eq!(reopened.counters().loaded, 3);
        assert_eq!(reopened.superseded_at_open(), 0);
        assert_eq!(answers, (0..3).map(|k| reopened.get(k)).collect::<Vec<_>>());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_check_compacts_only_when_superseded_dominate() {
        let path = tmp("stale");
        {
            let store = LiftStore::open(&path).unwrap();
            for n in 0..5u64 {
                let mut r = solved(1, "hot");
                r.attempts = n;
                store.append(r).unwrap();
            }
            store.append(solved(2, "cold")).unwrap();
        }
        let store = LiftStore::open(&path).unwrap();
        assert_eq!(store.superseded_at_open(), 4);
        assert_eq!(store.counters().loaded, 2);
        let stats = store.compact_if_stale().unwrap().expect("4 > 2 compacts");
        assert_eq!(stats.records_after, 2);
        // Freshly compacted: nothing stale anymore.
        let store = LiftStore::open(&path).unwrap();
        assert!(store.compact_if_stale().unwrap().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_reports_dedup_and_rejects_non_finite() {
        let path = tmp("dedup-bool");
        let store = LiftStore::open(&path).unwrap();
        assert!(store.append(solved(10, "blas_dot")).unwrap());
        assert!(
            !store.append(solved(10, "blas_dot")).unwrap(),
            "identical repeat is the idempotent no-op peers rely on"
        );
        let mut nan = solved(11, "bad");
        nan.seconds = f64::NAN;
        let err = store.append(nan).unwrap_err();
        assert!(matches!(err, StoreError::NonFinite { .. }), "{err:?}");
        let mut inf = solved(12, "worse");
        inf.seconds = f64::INFINITY;
        assert!(store.append(inf).is_err());
        assert!(store.get(11).is_none(), "rejected records are not indexed");
        // The log is still healthy and replays without the bad records.
        drop(store);
        let store = LiftStore::open(&path).unwrap();
        assert_eq!(store.counters().loaded, 1);
        let _ = std::fs::remove_file(&path);
    }

    /// Writes one file of the pre-fold rotated layout by hand: the
    /// version header, then one line per record.
    fn write_legacy(path: &Path, records: &[LiftRecord]) {
        let mut text = String::from("{\"gtl_store\":1,\"kind\":\"lift_outcomes\"}\n");
        for record in records {
            text.push_str(&record.to_json().to_line());
            text.push('\n');
        }
        std::fs::write(path, text).unwrap();
    }

    /// Opens a store laid out as `pieces` (file suffix, records) in the
    /// old replay order, and checks that it opens to exactly what that
    /// order gives (last writer wins), leaves only the store file on
    /// disk, and reopens to the same records.
    fn check_legacy_fold(case: &str, pieces: &[(&str, Vec<LiftRecord>)]) {
        let dir = std::env::temp_dir().join(format!("gtl-lift-{case}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lifts.jsonl");
        let mut expected: HashMap<u64, LiftRecord> = HashMap::new();
        for (suffix, records) in pieces {
            write_legacy(&dir.join(format!("lifts.jsonl{suffix}")), records);
            for record in records {
                expected.insert(record.key, record.clone());
            }
        }
        let mut expected: Vec<LiftRecord> = expected.into_values().collect();
        expected.sort_by(|a, b| a.label.cmp(&b.label).then(a.key.cmp(&b.key)));

        let store = LiftStore::open(&path).unwrap();
        assert_eq!(store.records(), expected);
        drop(store);
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, vec![std::ffi::OsString::from("lifts.jsonl")]);
        let reopened = LiftStore::open(&path).unwrap();
        assert_eq!(reopened.records(), expected);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn attempt(mut record: LiftRecord, attempts: u64) -> LiftRecord {
        record.attempts = attempts;
        record
    }

    #[test]
    fn legacy_rotated_store_folds_into_one_file() {
        // Key 1 is written in the snapshot, superseded in segment 2 and
        // again in the live file; key 2 is superseded in segment 7.
        check_legacy_fold(
            "fold",
            &[
                (".snap", vec![solved(1, "a"), failed(2, "b")]),
                (
                    ".seg-000002",
                    vec![attempt(solved(1, "a"), 1), solved(3, "c")],
                ),
                (".seg-000007", vec![solved(2, "b")]),
                ("", vec![attempt(solved(1, "a"), 2), failed(4, "d")]),
            ],
        );
    }

    #[test]
    fn legacy_store_without_live_file_folds_into_one_file() {
        // The old crash window: a segment was sealed but the fresh live
        // file was never created.
        check_legacy_fold(
            "fold-crash",
            &[
                (".seg-000001", vec![failed(1, "a"), solved(2, "b")]),
                (".seg-000002", vec![solved(1, "a")]),
            ],
        );
    }

    #[test]
    fn export_documents_parse_back_into_records() {
        let records = vec![solved(10, "blas_dot"), failed(20, "sa_4d_add")];
        // Rebuild exactly what `store_tool export` prints.
        let mut text = String::from("{\"kind\":\"lift_outcomes\",\"records\":[\n");
        for (n, record) in records.iter().enumerate() {
            text.push_str(&record.to_json().to_line());
            if n + 1 < records.len() {
                text.push(',');
            }
            text.push('\n');
        }
        text.push_str("]}\n");
        assert_eq!(parse_export(&text).unwrap(), records);
        assert!(parse_export("not json").is_err());
        assert!(parse_export("{\"kind\":\"oracle_fixture\",\"records\":[]}").is_err());
        assert!(parse_export("{\"kind\":\"lift_outcomes\"}").is_err());
        assert!(
            parse_export("{\"kind\":\"lift_outcomes\",\"records\":[{}]}").is_err(),
            "records must decode"
        );
    }

    #[test]
    fn concurrent_appends_are_safe() {
        let path = tmp("concurrent");
        let store = LiftStore::open(&path).unwrap();
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for n in 0..25u64 {
                        store.append(solved(worker * 100 + n, "par")).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.len(), 100);
        drop(store);
        let reopened = LiftStore::open(&path).unwrap();
        assert_eq!(reopened.counters().loaded, 100, "all appends durable");
        let _ = std::fs::remove_file(&path);
    }
}
