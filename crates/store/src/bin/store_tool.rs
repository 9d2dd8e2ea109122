//! Operations tooling for gtl_store log files.
//!
//! ```text
//! store_tool inspect PATH   # header, record counts, recovery state
//! store_tool compact PATH   # drop superseded records (atomic rewrite)
//! store_tool export PATH    # dump live records as one JSON document
//! ```
//!
//! Works on every log kind: lift-outcome stores (`lift_server --store`,
//! `batch_suite --store`) and oracle fixture logs (`record:PATH`).
//! `export` turns a fixture log back into the hand-writable
//! `{"version":1,"entries":{…}}` document that `replay:PATH` accepts.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::exit;

use gtl_store::{Json, JsonlLog, LiftRecord, LiftStore, FIXTURE_LOG_KIND, LIFT_LOG_KIND};

const USAGE: &str = "usage: store_tool inspect|compact|export PATH";

fn fail(message: &str) -> ! {
    eprintln!("store_tool: {message}");
    exit(2);
}

/// The dedup key under which a record supersedes earlier ones, per log
/// kind. `None` means the kind has no supersession (all records live).
fn dedup_key(kind: &str, record: &Json) -> Option<String> {
    match kind {
        LIFT_LOG_KIND => record
            .get("key")
            .and_then(Json::as_str)
            .map(str::to_string),
        FIXTURE_LOG_KIND => {
            let label = record.get("label").and_then(Json::as_str)?;
            let round = record.get("round").and_then(Json::as_u64)?;
            Some(format!("{label}\u{0}{round}"))
        }
        _ => None,
    }
}

/// Collapses the record list to the live set (last writer wins per
/// dedup key), preserving first-seen order of keys.
fn live_records(kind: &str, records: &[Json]) -> Vec<Json> {
    let mut order: Vec<String> = Vec::new();
    let mut by_key: BTreeMap<String, Json> = BTreeMap::new();
    let mut keyless: Vec<Json> = Vec::new();
    for record in records {
        match dedup_key(kind, record) {
            Some(key) => {
                if by_key.insert(key.clone(), record.clone()).is_none() {
                    order.push(key);
                }
            }
            None => keyless.push(record.clone()),
        }
    }
    let mut live: Vec<Json> = order
        .into_iter()
        .map(|key| by_key.remove(&key).expect("keyed above"))
        .collect();
    live.extend(keyless);
    live
}

fn inspect(path: &Path) {
    let (kind, loaded) = JsonlLog::read(path).unwrap_or_else(|e| fail(&e.to_string()));
    let live = live_records(&kind, &loaded.records);
    let superseded = loaded.records.len() - live.len();
    println!("{}: kind {kind}", path.display());
    println!("  records: {} ({} live, {superseded} superseded)", loaded.records.len(), live.len());
    if loaded.sealed_files > 0 {
        println!("  legacy sealed files: {} (folded into the live log on next open)", loaded.sealed_files);
    }
    if loaded.recovery.truncated_tail {
        println!(
            "  torn tail: {} trailing bytes are not a complete record (dropped on next open)",
            loaded.recovery.dropped_bytes
        );
    }
    if kind == LIFT_LOG_KIND {
        let mut solved = 0usize;
        let mut failed = 0usize;
        for record in &live {
            match LiftRecord::from_json(record) {
                Ok(r) if r.solved() => solved += 1,
                Ok(_) => failed += 1,
                Err(e) => fail(&format!("malformed lift record: {e}")),
            }
        }
        println!("  outcomes: {solved} solved, {failed} failed");
    }
}

fn compact(path: &Path) {
    // `LiftStore::open` / `JsonlLog::open` recover a torn tail as a
    // side effect, so compaction also heals the file.
    let (kind, _) = JsonlLog::read(path).unwrap_or_else(|e| fail(&e.to_string()));
    if kind == LIFT_LOG_KIND {
        let store = LiftStore::open(path).unwrap_or_else(|e| fail(&e.to_string()));
        let stats = store.compact().unwrap_or_else(|e| fail(&e.to_string()));
        println!(
            "{}: {} records ({} bytes) -> {} records ({} bytes)",
            path.display(),
            stats.records_before,
            stats.bytes_before,
            stats.records_after,
            stats.bytes_after
        );
        return;
    }
    let bytes_before = std::fs::metadata(path).map_or(0, |m| m.len());
    let (log, loaded) = JsonlLog::open(path, &kind).unwrap_or_else(|e| fail(&e.to_string()));
    let live = live_records(&kind, &loaded.records);
    log.rewrite(&live).unwrap_or_else(|e| fail(&e.to_string()));
    let bytes_after = std::fs::metadata(path).map_or(0, |m| m.len());
    println!(
        "{}: {} records ({bytes_before} bytes) -> {} records ({bytes_after} bytes)",
        path.display(),
        loaded.records.len(),
        live.len()
    );
}

fn export(path: &Path) {
    let (kind, loaded) = JsonlLog::read(path).unwrap_or_else(|e| fail(&e.to_string()));
    let live = live_records(&kind, &loaded.records);
    if kind == FIXTURE_LOG_KIND {
        // Reconstruct the hand-writable replay document.
        let mut entries: BTreeMap<String, Vec<Vec<String>>> = BTreeMap::new();
        for record in &live {
            let (Some(label), Some(round), Some(lines)) = (
                record.get("label").and_then(Json::as_str),
                record.get("round").and_then(Json::as_u64),
                record.get("lines").and_then(Json::as_arr),
            ) else {
                fail("malformed fixture record");
            };
            let rounds = entries.entry(label.to_string()).or_default();
            while rounds.len() <= round as usize {
                rounds.push(Vec::new());
            }
            rounds[round as usize] = lines
                .iter()
                .map(|l| l.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .unwrap_or_else(|| fail("fixture lines must be strings"));
        }
        let doc = Json::obj([
            ("version", Json::u64(1)),
            (
                "entries",
                Json::Obj(
                    entries
                        .into_iter()
                        .map(|(label, rounds)| {
                            (
                                label,
                                Json::Arr(
                                    rounds
                                        .into_iter()
                                        .map(|lines| {
                                            Json::Arr(lines.into_iter().map(Json::Str).collect())
                                        })
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{doc}");
        return;
    }
    println!("{{\"kind\":{},\"records\":[", Json::str(kind.as_str()));
    for (n, record) in live.iter().enumerate() {
        let comma = if n + 1 < live.len() { "," } else { "" };
        println!("{record}{comma}");
    }
    println!("]}}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, path) = match args.as_slice() {
        [command, path] => (command.as_str(), Path::new(path)),
        [help] if help == "--help" || help == "-h" => {
            println!("{USAGE}");
            exit(0);
        }
        _ => fail(USAGE),
    };
    match command {
        "inspect" => inspect(path),
        "compact" => compact(path),
        "export" => export(path),
        other => fail(&format!("unknown command `{other}`\n{USAGE}")),
    }
}
