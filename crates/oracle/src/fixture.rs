//! Record/replay fixtures: persist oracle responses as JSON, serve
//! them back offline.
//!
//! A fixture maps `label → rounds → candidate lines` — exactly what an
//! [`Oracle`] emits, before any preprocessing — so a recorded run can
//! be replayed bit-identically, and transcripts of *real* LLM sessions
//! can be dropped in by writing the same JSON shape by hand:
//!
//! ```json
//! {
//!   "version": 1,
//!   "entries": {
//!     "blas_dot": [["out = x(i) * y(i)", "r := a(i) * b(i)"]]
//!   }
//! }
//! ```
//!
//! The outer array indexes oracle *rounds* (round 0 is the initial
//! query; later entries answer the failure loop's re-queries).
//!
//! On disk there are two formats. The *document* above is the
//! hand-writable interchange form. [`FixtureStore`] — the recording
//! side — persists through `gtl_store`'s crash-tolerant append-only
//! JSON-lines log instead (one `{"label":…,"round":…,"lines":[…]}`
//! record per response, under an `oracle_fixture` header), so recorded
//! transcripts share the workspace's one durable format: a crash can
//! only tear the final record, and recovery truncates it away.
//! [`Fixture::load`] (hence `replay:PATH`) sniffs the first line and
//! accepts either format; `store_tool export` converts a log back into
//! the document form.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use gtl_store::{is_log_file, Json, JsonlLog};

use crate::{Oracle, OracleFeedback, OracleProvider, OracleQuery};

/// The `gtl_store` log kind under which fixture responses are recorded
/// (defined in `gtl_store` so `store_tool` shares the spelling).
pub(crate) use gtl_store::FIXTURE_LOG_KIND;

/// A fixture parse/io failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixtureError(String);

impl fmt::Display for FixtureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fixture: {}", self.0)
    }
}

impl std::error::Error for FixtureError {}

fn err(message: impl Into<String>) -> FixtureError {
    FixtureError(message.into())
}

/// An in-memory fixture: recorded candidate lines per label and round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fixture {
    /// `label → rounds → raw candidate lines`.
    entries: BTreeMap<String, Vec<Vec<String>>>,
}

impl Fixture {
    /// An empty fixture.
    pub fn new() -> Fixture {
        Fixture::default()
    }

    /// The recorded lines for a label and round, if any.
    pub fn lines(&self, label: &str, round: usize) -> Option<&[String]> {
        self.entries
            .get(label)
            .and_then(|rounds| rounds.get(round))
            .map(Vec::as_slice)
    }

    /// Records one round's response, growing the round list as needed
    /// (unrecorded intermediate rounds become empty responses).
    pub fn record(&mut self, label: &str, round: usize, lines: Vec<String>) {
        let rounds = self.entries.entry(label.to_string()).or_default();
        while rounds.len() <= round {
            rounds.push(Vec::new());
        }
        rounds[round] = lines;
    }

    /// The labels with at least one recorded round.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Whether nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges `other` into `self`; labels present in both take
    /// `other`'s rounds (last writer wins per label).
    pub fn merge(&mut self, other: Fixture) {
        self.entries.extend(other.entries);
    }

    /// Serializes to the fixture JSON document (deterministic member
    /// and label order, one trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": {");
        for (n, (label, rounds)) in self.entries.iter().enumerate() {
            out.push_str(if n == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    {}: [", Json::str(label)));
            for (r, lines) in rounds.iter().enumerate() {
                if r > 0 {
                    out.push_str(", ");
                }
                out.push('[');
                for (i, line) in lines.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&Json::str(line).to_string());
                }
                out.push(']');
            }
            out.push(']');
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a fixture JSON document (the hand-writable form; for the
    /// log form see [`Fixture::load`]).
    ///
    /// # Errors
    ///
    /// Returns a [`FixtureError`] on malformed JSON, a missing/unknown
    /// `version`, or entry values that are not arrays of arrays of
    /// strings.
    pub fn parse(input: &str) -> Result<Fixture, FixtureError> {
        let doc = gtl_store::parse(input).map_err(|e| err(e.to_string()))?;
        match doc.get("version") {
            Some(v) if v.as_u64() == Some(1) => {}
            Some(_) => return Err(err("unsupported fixture version")),
            None => return Err(err("missing `version`")),
        }
        let Some(Json::Obj(entries)) = doc.get("entries") else {
            return Err(err("missing `entries` object"));
        };
        let mut fixture = Fixture::new();
        for (label, rounds) in entries {
            let Some(rounds) = rounds.as_arr() else {
                return Err(err(format!("entry `{label}` must be an array of rounds")));
            };
            for (round, lines) in rounds.iter().enumerate() {
                let Some(lines) = lines.as_arr() else {
                    return Err(err(format!(
                        "entry `{label}` round {round} must be an array of strings"
                    )));
                };
                let mut out = Vec::with_capacity(lines.len());
                for line in lines {
                    match line.as_str() {
                        Some(s) => out.push(s.to_string()),
                        None => {
                            return Err(err(format!(
                                "entry `{label}` round {round}: candidates must be strings"
                            )))
                        }
                    }
                }
                fixture.record(label, round, out);
            }
        }
        Ok(fixture)
    }

    /// Loads a fixture from a file in either on-disk form: a recording
    /// log (sniffed by its `gtl_store` header line) or the hand-written
    /// JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`FixtureError`] when the file cannot be read or does
    /// not parse — including a log whose kind is not `oracle_fixture`.
    pub fn load(path: &Path) -> Result<Fixture, FixtureError> {
        // Sniff from raw bytes: only the header line needs UTF-8, and
        // a recording log may carry a torn multi-byte character in its
        // tail that `JsonlLog` recovers but `read_to_string` would
        // reject outright.
        let bytes = std::fs::read(path)
            .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?;
        if is_log_file(&bytes) {
            let (kind, loaded) =
                JsonlLog::read_bytes(path, &bytes).map_err(|e| err(e.to_string()))?;
            if kind != FIXTURE_LOG_KIND {
                return Err(err(format!(
                    "{}: log kind `{kind}` is not an oracle fixture",
                    path.display()
                )));
            }
            let mut fixture = Fixture::new();
            for record in &loaded.records {
                let (label, round, lines) = decode_record(record)?;
                fixture.record(&label, round, lines);
            }
            return Ok(fixture);
        }
        let text = String::from_utf8(bytes).map_err(|_| {
            err(format!(
                "{}: fixture document is not valid UTF-8",
                path.display()
            ))
        })?;
        Fixture::parse(&text)
    }
}

/// Encodes one recorded response as a log record.
fn encode_record(label: &str, round: usize, lines: &[String]) -> Json {
    Json::obj([
        ("label", Json::str(label)),
        ("round", Json::u64(round as u64)),
        ("lines", Json::Arr(lines.iter().map(Json::str).collect())),
    ])
}

/// Decodes one log record back into a recorded response.
fn decode_record(record: &Json) -> Result<(String, usize, Vec<String>), FixtureError> {
    let label = record
        .get("label")
        .and_then(Json::as_str)
        .ok_or_else(|| err("fixture record: missing string `label`"))?;
    let round = record
        .get("round")
        .and_then(Json::as_usize)
        .ok_or_else(|| err("fixture record: missing numeric `round`"))?;
    let lines = record
        .get("lines")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("fixture record: missing array `lines`"))?
        .iter()
        .map(|l| l.as_str().map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| err("fixture record: `lines` must be strings"))?;
    Ok((label.to_string(), round, lines))
}

// -- the persistent store and the oracles on top of it ----------------

/// A thread-safe fixture bound to a file: every recorded response is
/// appended to a crash-tolerant `gtl_store` log immediately, so a
/// crashed or cancelled run still leaves a usable fixture behind (a
/// torn final record is truncated away on the next open, never kept).
///
/// Creation merges any existing fixture at the path — log or legacy
/// document form; a legacy document is migrated to the log format
/// atomically — so repeated recording sessions accumulate. Share one
/// store (it is `Sync`) rather than opening several on the same path.
#[derive(Debug)]
pub struct FixtureStore {
    log: JsonlLog,
    fixture: Mutex<Fixture>,
}

impl FixtureStore {
    /// Opens a store at `path`, merging any fixture already there and
    /// verifying the path is writable (fail fast, not mid-run).
    ///
    /// # Errors
    ///
    /// Returns a [`FixtureError`] when an existing file does not parse
    /// (in either format) or the path cannot be written.
    pub fn open(path: impl Into<PathBuf>) -> Result<FixtureStore, FixtureError> {
        let path: PathBuf = path.into();
        let store_err = |e: gtl_store::StoreError| err(e.to_string());
        // Raw bytes for the format sniff: only the header line needs
        // UTF-8, and a crashed recording run can leave a torn
        // multi-byte character in the tail that `JsonlLog` recovers
        // but `read_to_string` would reject outright.
        let existing: Option<Vec<u8>> = if path.exists() {
            Some(
                std::fs::read(&path)
                    .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?,
            )
        } else {
            None
        };
        let (log, fixture) = match existing {
            // An empty file (crash before the first write): start a
            // fresh log over it.
            Some(bytes) if bytes.iter().all(u8::is_ascii_whitespace) => (
                JsonlLog::create(&path, FIXTURE_LOG_KIND, &[]).map_err(store_err)?,
                Fixture::new(),
            ),
            // A legacy one-document fixture: migrate it to the log
            // format atomically (temp + rename), records first.
            Some(bytes) if !is_log_file(&bytes) => {
                let text = String::from_utf8(bytes).map_err(|_| {
                    err(format!(
                        "{}: fixture document is not valid UTF-8",
                        path.display()
                    ))
                })?;
                let fixture = Fixture::parse(&text)?;
                let records: Vec<Json> = fixture
                    .entries
                    .iter()
                    .flat_map(|(label, rounds)| {
                        rounds
                            .iter()
                            .enumerate()
                            .map(|(round, lines)| encode_record(label, round, lines))
                    })
                    .collect();
                let log = JsonlLog::create(&path, FIXTURE_LOG_KIND, &records)
                    .map_err(store_err)?;
                (log, fixture)
            }
            // A log: replay the bytes already in hand (no second read).
            Some(bytes) => {
                let (log, loaded) = JsonlLog::open_loaded(&path, FIXTURE_LOG_KIND, &bytes)
                    .map_err(store_err)?;
                let mut fixture = Fixture::new();
                for record in &loaded.records {
                    let (label, round, lines) = decode_record(record)?;
                    fixture.record(&label, round, lines);
                }
                (log, fixture)
            }
            // No file yet: start a fresh log.
            None => (
                JsonlLog::open(&path, FIXTURE_LOG_KIND)
                    .map_err(store_err)?
                    .0,
                Fixture::new(),
            ),
        };
        Ok(FixtureStore {
            log,
            fixture: Mutex::new(fixture),
        })
    }

    /// Records one response and appends it to the log (one durable
    /// write per response — never a whole-file rewrite).
    pub fn record(&self, label: &str, round: usize, lines: Vec<String>) {
        let record = encode_record(label, round, &lines);
        self.fixture
            .lock()
            .expect("fixture store poisoned")
            .record(label, round, lines);
        // Persistence is best-effort per record; `open` already proved
        // the path writable, so failures here are transient.
        let _ = self.log.append(&record);
    }

    /// A snapshot of the in-memory fixture.
    pub fn snapshot(&self) -> Fixture {
        self.fixture.lock().expect("fixture store poisoned").clone()
    }
}

/// Wraps any oracle and records every response into a [`FixtureStore`].
pub struct RecordingOracle {
    inner: Box<dyn Oracle>,
    store: Arc<FixtureStore>,
}

impl RecordingOracle {
    /// Wraps `inner`, persisting its responses through `store`.
    pub fn new(inner: Box<dyn Oracle>, store: Arc<FixtureStore>) -> RecordingOracle {
        RecordingOracle { inner, store }
    }
}

impl Oracle for RecordingOracle {
    fn candidates(&mut self, query: &OracleQuery<'_>) -> Vec<String> {
        self.candidates_round(query, 0, None)
    }

    fn candidates_round(
        &mut self,
        query: &OracleQuery<'_>,
        round: usize,
        feedback: Option<&OracleFeedback>,
    ) -> Vec<String> {
        let lines = self.inner.candidates_round(query, round, feedback);
        self.store.record(query.label, round, lines.clone());
        lines
    }
}

/// Provider form of [`RecordingOracle`]: mints recorders around the
/// inner provider's oracles, all sharing one [`FixtureStore`].
pub struct RecordingProvider {
    inner: Arc<dyn OracleProvider>,
    store: Arc<FixtureStore>,
}

impl RecordingProvider {
    /// Opens (or creates) the fixture at `path` and wraps `inner`.
    ///
    /// # Errors
    ///
    /// Returns a [`FixtureError`] when the path is unusable.
    pub fn create(
        path: impl Into<PathBuf>,
        inner: Arc<dyn OracleProvider>,
    ) -> Result<RecordingProvider, FixtureError> {
        Ok(RecordingProvider {
            inner,
            store: Arc::new(FixtureStore::open(path)?),
        })
    }

    /// The shared store (e.g. to snapshot what has been recorded).
    pub fn store(&self) -> &Arc<FixtureStore> {
        &self.store
    }
}

impl OracleProvider for RecordingProvider {
    fn name(&self) -> &str {
        "record"
    }

    fn oracle(&self) -> Box<dyn Oracle> {
        Box::new(RecordingOracle::new(
            self.inner.oracle(),
            Arc::clone(&self.store),
        ))
    }
}

/// Serves a recorded fixture offline: the integration point for real
/// LLM transcripts. Unknown labels (and unrecorded rounds) answer with
/// no candidates — replay never invents data.
#[derive(Debug, Clone)]
pub struct ReplayOracle {
    fixture: Arc<Fixture>,
}

impl ReplayOracle {
    /// Replays an in-memory fixture.
    pub fn new(fixture: Arc<Fixture>) -> ReplayOracle {
        ReplayOracle { fixture }
    }
}

impl Oracle for ReplayOracle {
    fn candidates(&mut self, query: &OracleQuery<'_>) -> Vec<String> {
        self.candidates_round(query, 0, None)
    }

    fn candidates_round(
        &mut self,
        query: &OracleQuery<'_>,
        round: usize,
        _feedback: Option<&OracleFeedback>,
    ) -> Vec<String> {
        self.fixture
            .lines(query.label, round)
            .map(<[String]>::to_vec)
            .unwrap_or_default()
    }
}

/// Provider form of [`ReplayOracle`]: loads the fixture once, shares it
/// across every minted oracle.
#[derive(Debug, Clone)]
pub struct ReplayProvider {
    fixture: Arc<Fixture>,
}

impl ReplayProvider {
    /// Loads the fixture file at `path`.
    ///
    /// # Errors
    ///
    /// Returns a [`FixtureError`] when the file is missing or malformed.
    pub fn load(path: &Path) -> Result<ReplayProvider, FixtureError> {
        Ok(ReplayProvider {
            fixture: Arc::new(Fixture::load(path)?),
        })
    }

    /// Replays an in-memory fixture (tests, embedded transcripts).
    pub fn from_fixture(fixture: Fixture) -> ReplayProvider {
        ReplayProvider {
            fixture: Arc::new(fixture),
        }
    }

    /// The shared fixture.
    pub fn fixture(&self) -> &Fixture {
        &self.fixture
    }
}

impl OracleProvider for ReplayProvider {
    fn name(&self) -> &str {
        "replay"
    }

    fn oracle(&self) -> Box<dyn Oracle> {
        Box::new(ReplayOracle::new(Arc::clone(&self.fixture)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScriptedOracle, SyntheticOracle};
    use gtl_taco::parse_program;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gtl-fixture-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut f = Fixture::new();
        f.record("blas_dot", 0, vec!["out = x(i) * y(i)".into()]);
        f.record(
            "weird",
            1,
            vec!["a \"quoted\" \\ line\nwith\tcontrol \u{1}".into()],
        );
        let parsed = Fixture::parse(&f.to_json()).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(parsed.lines("weird", 0), Some(&[][..]), "gap round is empty");
        assert!(parsed.lines("weird", 2).is_none());
        assert!(parsed.lines("absent", 0).is_none());
    }

    #[test]
    fn parse_accepts_foreign_serializer_escapes() {
        // Fixtures hand-written or produced by standard JSON
        // serializers (json.dumps, jq, serde) use the full escape
        // grammar: \b, \f, and surrogate pairs for non-BMP text.
        let doc =
            r#"{"version":1,"entries":{"llm":[["a\b\fé 😀 = b(i)"]]}}"#;
        let f = Fixture::parse(doc).unwrap();
        assert_eq!(
            f.lines("llm", 0),
            Some(&["a\u{8}\u{c}é \u{1f600} = b(i)".to_string()][..])
        );
        // And our own writer round-trips what it reads.
        assert_eq!(Fixture::parse(&f.to_json()).unwrap(), f);
        // The same emoji as an escaped surrogate pair (json.dumps with
        // ensure_ascii=True) decodes to the identical scalar.
        let escaped = r#"{"version":1,"entries":{"llm":[["\ud83d\ude00"]]}}"#;
        assert_eq!(
            Fixture::parse(escaped).unwrap().lines("llm", 0),
            Some(&["\u{1f600}".to_string()][..])
        );
        for bad in [
            r#"{"version":1,"entries":{"x":[["\ud83d"]]}}"#,
            r#"{"version":1,"entries":{"x":[["\ud83da"]]}}"#,
            r#"{"version":1,"entries":{"x":[["\uzzzz"]]}}"#,
        ] {
            assert!(Fixture::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Fixture::parse("not json").is_err());
        assert!(Fixture::parse("{}").is_err(), "missing version");
        assert!(Fixture::parse(r#"{"version":2,"entries":{}}"#).is_err());
        assert!(Fixture::parse(r#"{"version":1,"entries":{"x":[[1]]}}"#).is_err());
        assert!(Fixture::parse(r#"{"version":1,"entries":{}} trailing"#).is_err());
        assert!(Fixture::parse(r#"{"version":1,"entries":{}}"#).unwrap().is_empty());
    }

    #[test]
    fn record_then_replay_roundtrips_through_disk() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let gt = parse_program("Result(i) = Mat1(i,j) * Mat2(j)").unwrap();
        let q = OracleQuery {
            label: "blas_gemv",
            c_source: "void f() {}",
            ground_truth: Some(&gt),
        };

        let recorder =
            RecordingProvider::create(&path, Arc::new(SyntheticOracle::default())).unwrap();
        let recorded = recorder.oracle().candidates(&q);
        assert!(!recorded.is_empty());

        let replayer = ReplayProvider::load(&path).unwrap();
        // Replay serves the exact lines, and needs no ground truth.
        let blind = OracleQuery {
            ground_truth: None,
            ..q
        };
        assert_eq!(replayer.oracle().candidates(&blind), recorded);
        assert!(replayer.oracle().candidates(&OracleQuery {
            label: "unknown",
            ..blind
        })
        .is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_a_store_accumulates() {
        let path = tmp("accumulate");
        let _ = std::fs::remove_file(&path);
        {
            let store = FixtureStore::open(&path).unwrap();
            store.record("a", 0, vec!["a = b(i)".into()]);
        }
        {
            let store = FixtureStore::open(&path).unwrap();
            store.record("c", 0, vec!["c = d(i)".into()]);
        }
        let f = Fixture::load(&path).unwrap();
        assert_eq!(f.lines("a", 0), Some(&["a = b(i)".to_string()][..]));
        assert_eq!(f.lines("c", 0), Some(&["c = d(i)".to_string()][..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_writes_the_log_format_and_load_sniffs_it() {
        let path = tmp("log-format");
        let _ = std::fs::remove_file(&path);
        {
            let store = FixtureStore::open(&path).unwrap();
            store.record("k", 0, vec!["k = v(i)".into()]);
            store.record("k", 1, vec!["k = v(i) + w(i)".into()]);
        }
        // On disk: a gtl_store log, not the legacy document.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            gtl_store::is_log_header(text.lines().next().unwrap()),
            "recording must produce the log format:\n{text}"
        );
        // `Fixture::load` (the replay path) reads it transparently.
        let f = Fixture::load(&path).unwrap();
        assert_eq!(f.lines("k", 0), Some(&["k = v(i)".to_string()][..]));
        assert_eq!(f.lines("k", 1), Some(&["k = v(i) + w(i)".to_string()][..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_documents_are_migrated_on_open() {
        let path = tmp("legacy-migrate");
        let mut legacy = Fixture::new();
        legacy.record("old", 0, vec!["old = a(i)".into()]);
        std::fs::write(&path, legacy.to_json()).unwrap();

        let store = FixtureStore::open(&path).unwrap();
        assert_eq!(store.snapshot(), legacy, "migration keeps every entry");
        store.record("new", 0, vec!["new = b(i)".into()]);
        drop(store);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(gtl_store::is_log_header(text.lines().next().unwrap()));
        let f = Fixture::load(&path).unwrap();
        assert_eq!(f.lines("old", 0), Some(&["old = a(i)".to_string()][..]));
        assert_eq!(f.lines("new", 0), Some(&["new = b(i)".to_string()][..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_multibyte_tail_recovers_in_both_open_paths() {
        // A crash can split a multi-byte character (real LLM
        // transcripts contain them), leaving a tail that is not valid
        // UTF-8. The format sniff must work off the header line alone
        // so both the replay path and the recording reopen recover.
        let path = tmp("torn-utf8");
        let _ = std::fs::remove_file(&path);
        {
            let store = FixtureStore::open(&path).unwrap();
            store.record("good", 0, vec!["good = a(i)".into()]);
        }
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            // "🙂" is f0 9f 99 82; stop after two bytes.
            f.write_all(b"{\"label\":\"torn \xf0\x9f").unwrap();
        }
        let f = Fixture::load(&path).unwrap();
        assert_eq!(f.lines("good", 0), Some(&["good = a(i)".to_string()][..]));
        let store = FixtureStore::open(&path).unwrap();
        assert_eq!(
            store.snapshot().lines("good", 0),
            Some(&["good = a(i)".to_string()][..])
        );
        store.record("next", 0, vec!["next = b(i)".into()]);
        drop(store);
        let f = Fixture::load(&path).unwrap();
        assert_eq!(f.lines("next", 0), Some(&["next = b(i)".to_string()][..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_fixture_tail_recovers_without_losing_recorded_rounds() {
        let path = tmp("torn-tail");
        let _ = std::fs::remove_file(&path);
        {
            let store = FixtureStore::open(&path).unwrap();
            store.record("good", 0, vec!["good = a(i)".into()]);
        }
        // A crash mid-record: half a line, no newline.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"label\":\"torn\",\"rou").unwrap();
        }
        // Both the replay path and a reopened store recover: the good
        // record survives, the torn one is gone, recording continues.
        let f = Fixture::load(&path).unwrap();
        assert_eq!(f.lines("good", 0), Some(&["good = a(i)".to_string()][..]));
        assert!(f.lines("torn", 0).is_none());
        let store = FixtureStore::open(&path).unwrap();
        store.record("after", 0, vec!["after = b(i)".into()]);
        drop(store);
        let f = Fixture::load(&path).unwrap();
        assert_eq!(f.lines("good", 0), Some(&["good = a(i)".to_string()][..]));
        assert_eq!(f.lines("after", 0), Some(&["after = b(i)".to_string()][..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_kind_logs_are_rejected_with_a_typed_error() {
        let path = tmp("wrong-kind");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "{\"gtl_store\":1,\"kind\":\"lift_outcomes\"}\n").unwrap();
        assert!(Fixture::load(&path).is_err(), "a lift log is not a fixture");
        assert!(FixtureStore::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recording_wraps_scripted_rounds() {
        let path = tmp("rounds");
        let _ = std::fs::remove_file(&path);
        let inner: Arc<dyn OracleProvider> =
            Arc::new(ScriptedOracle::new().script("k", &["k = v(i)"]));
        let recorder = RecordingProvider::create(&path, inner).unwrap();
        let gt = parse_program("k = v(i)").unwrap();
        let q = OracleQuery {
            label: "k",
            c_source: "",
            ground_truth: Some(&gt),
        };
        let mut oracle = recorder.oracle();
        oracle.candidates_round(&q, 0, None);
        // Scripted oracles answer every round identically (default
        // delegation); both rounds land in the fixture.
        oracle.candidates_round(&q, 1, None);
        let f = recorder.store().snapshot();
        assert_eq!(f.lines("k", 0), Some(&["k = v(i)".to_string()][..]));
        assert_eq!(f.lines("k", 1), Some(&["k = v(i)".to_string()][..]));
        let _ = std::fs::remove_file(&path);
    }
}
