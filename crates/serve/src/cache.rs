//! The request-level result cache: repeated lifts of the same kernel
//! under the same configuration are answered instantly, without
//! re-running search.
//!
//! The key is a 64-bit hash of the *normalized* C source (whitespace
//! runs collapsed, so formatting differences still hit), the request
//! label, the ground-truth program, the task's parameter layout, and
//! every resolved configuration field that can influence the outcome.
//! Only deterministic terminal outcomes are stored — lifts that ended by
//! cancellation, timeout or shutdown are not, since rerunning them can
//! legitimately produce a different answer.
//!
//! Each answered key has one home. With a [`LiftStore`], solved lifts
//! live only in the store's index; a bounded in-memory map holds what is
//! never persisted: every outcome of a store-less cache, and the
//! failures of a store-backed one.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use gtl::{LiftQuery, StaggConfig};
use gtl_store::{LiftRecord, LiftStore, StoreError};

/// Collapses whitespace runs to single spaces and trims, so the cache
/// key survives reformatting of the same kernel.
pub fn normalize_source(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    let mut in_space = true; // leading whitespace is dropped
    for c in source.chars() {
        if c.is_whitespace() {
            if !in_space {
                out.push(' ');
                in_space = true;
            }
        } else {
            out.push(c);
            in_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// The cache key of one resolved request: normalized source + label +
/// ground truth + task layout + outcome-relevant configuration.
pub fn request_key(query: &LiftQuery, config: &StaggConfig) -> u64 {
    let mut h = DefaultHasher::new();
    normalize_source(&query.source).hash(&mut h);
    query.label.hash(&mut h);
    query
        .ground_truth
        .as_ref()
        .map(ToString::to_string)
        .hash(&mut h);
    // Task layout: parameter roles and shapes drive example generation
    // and verification. `Debug` form is a stable in-process encoding.
    format!("{:?}", query.task.params).hash(&mut h);
    query.task.output.hash(&mut h);
    query.task.constants.hash(&mut h);
    // Configuration: everything that can change the outcome.
    config.mode.cli_name().hash(&mut h);
    config.grammar.cli_name().hash(&mut h);
    // Once the search width, now always 1. Still hashed so every key a
    // single-width server computed before stays bit-identical and
    // existing stores keep hitting.
    1usize.hash(&mut h);
    // The guidance source determines the candidate stream, hence the
    // grammar, hence the outcome — different oracles must never share
    // a cache entry. Rounds likewise.
    config.oracle.cli_name().hash(&mut h);
    config.oracle_rounds.hash(&mut h);
    config.budget.max_nodes.hash(&mut h);
    config.budget.max_attempts.hash(&mut h);
    config.budget.time_limit.as_millis().hash(&mut h);
    config.budget.max_depth.hash(&mut h);
    format!("{:?}", config.penalties).hash(&mut h);
    format!("{:?}", config.examples).hash(&mut h);
    format!("{:?}", config.verify).hash(&mut h);
    h.finish()
}

/// The outcomes a server has answered, with hit/miss counters
/// surfaced through the `stats` request (one count per lookup, whichever
/// map answers).
#[derive(Debug)]
pub struct ResultCache {
    /// Where solved lifts live, when the server persists them.
    store: Option<Arc<LiftStore>>,
    /// Outcomes that are never persisted.
    map: Mutex<HashMap<u64, LiftRecord>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Creates a cache over an optional store. `capacity` (minimum 1)
    /// bounds only the in-memory map, which a full insert clears
    /// wholesale; stored solves are never evicted.
    pub fn new(capacity: usize, store: Option<Arc<LiftStore>>) -> ResultCache {
        ResultCache {
            store,
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn map(&self) -> MutexGuard<'_, HashMap<u64, LiftRecord>> {
        self.map.lock().expect("result cache poisoned")
    }

    /// Looks up a key, store first, counting the outcome as a hit or
    /// miss. Only solved store records answer: the write side never
    /// persists failures, but a merged or hand-edited store may carry
    /// them, and serving one forever would make a transient failure
    /// permanent.
    pub fn lookup(&self, key: u64) -> Option<LiftRecord> {
        let found = self
            .store
            .as_ref()
            .and_then(|store| store.get(key))
            .filter(LiftRecord::solved)
            .or_else(|| self.map().get(&key).cloned());
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a terminal outcome in its one home. A solve, when a store
    /// is configured, is appended to it and replaces any failure held
    /// for its key; the result says whether the log grew (see
    /// [`LiftStore::append`]). Anything else goes to the in-memory map
    /// and returns `Ok(false)`.
    ///
    /// # Errors
    ///
    /// The store's append error. An I/O failure still leaves the record
    /// in the store's index, so it is served until the process exits.
    pub fn insert(&self, record: LiftRecord) -> Result<bool, StoreError> {
        if let (Some(store), true) = (&self.store, record.solved()) {
            self.map().remove(&record.key);
            return store.append(record);
        }
        let mut map = self.map();
        if map.len() >= self.capacity && !map.contains_key(&record.key) {
            map.clear();
        }
        map.insert(record.key, record);
        Ok(false)
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Outcomes held in memory (stored solves are not counted).
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether nothing is held in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_benchsuite::by_name;

    fn query(name: &str) -> LiftQuery {
        let b = by_name(name).unwrap();
        LiftQuery {
            label: b.name.to_string(),
            source: b.source.to_string(),
            task: b.lift_task(),
            ground_truth: Some(b.parse_ground_truth()),
        }
    }

    #[test]
    fn normalization_collapses_whitespace() {
        assert_eq!(
            normalize_source("  void f( int n )\n\t{ return; }  "),
            "void f( int n ) { return; }"
        );
        assert_eq!(normalize_source(""), "");
        assert_eq!(normalize_source("   \n\t  "), "");
    }

    #[test]
    fn key_ignores_formatting_but_not_config() {
        let a = query("blas_dot");
        let mut b = a.clone();
        b.source = a.source.split_whitespace().collect::<Vec<_>>().join("  \n ");
        let cfg = StaggConfig::top_down();
        assert_eq!(request_key(&a, &cfg), request_key(&b, &cfg));

        let other_cfg = StaggConfig::bottom_up();
        assert_ne!(request_key(&a, &cfg), request_key(&a, &other_cfg));
        assert_ne!(
            request_key(&a, &cfg),
            request_key(&query("blas_gemv"), &cfg)
        );
    }

    fn record(key: u64, solution: Option<&str>) -> LiftRecord {
        LiftRecord {
            key,
            label: "k".into(),
            solution: solution.map(Into::into),
            reason: solution.is_none().then(|| "search_exhausted".into()),
            detail: None,
            attempts: 3,
            nodes: 10,
            seconds: 0.5,
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = ResultCache::new(8, None);
        assert!(cache.lookup(7).is_none());
        assert_eq!(cache.misses(), 1);
        cache.insert(record(7, Some("a = b(i)"))).unwrap();
        let hit = cache.lookup(7).unwrap();
        assert_eq!(hit.solution.as_deref(), Some("a = b(i)"));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn capacity_bound_clears_wholesale() {
        let cache = ResultCache::new(2, None);
        for key in 0..3 {
            cache.insert(record(key, None)).unwrap();
        }
        assert!(cache.len() <= 2, "bounded: {}", cache.len());
        // Re-inserting an existing key never clears.
        let before = cache.len();
        cache.insert(record(2, None)).unwrap();
        assert_eq!(cache.len(), before);
    }

    #[test]
    fn a_store_holds_the_solves_and_memory_the_rest() {
        let mut path = std::env::temp_dir();
        path.push(format!("gtl-cache-homes-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = Arc::new(LiftStore::open(&path).unwrap());
        // A failure someone appended by hand is never served.
        store.append(record(9, None)).unwrap();
        let cache = ResultCache::new(1, Some(Arc::clone(&store)));
        assert!(cache.lookup(9).is_none());

        // A failure lives in memory; a solve of its key replaces it.
        assert_eq!(cache.insert(record(1, None)), Ok(false));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.insert(record(1, Some("a = b(i)"))), Ok(true));
        assert!(cache.is_empty());
        assert_eq!(store.len(), 2);
        // A full map clears without touching stored solves.
        cache.insert(record(2, None)).unwrap();
        cache.insert(record(3, None)).unwrap();
        assert!(cache.lookup(1).unwrap().solved());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keys_are_pinned_for_existing_stores() {
        // Stores persist these keys; a change to the hash input orphans
        // every stored outcome. The values are the ones the key had when
        // `StaggConfig::jobs` was still hashed (64-bit `DefaultHasher`).
        use crate::protocol::Request;
        let key_of = |line: &str| {
            let Request::Lift(request) = Request::parse_line(line).unwrap() else {
                panic!("not a lift request: {line}");
            };
            let query = crate::server::resolve_query(&request).unwrap();
            request_key(&query, &request.overrides.apply(&StaggConfig::top_down()))
        };
        assert_eq!(
            key_of(r#"{"type":"lift","id":"a","benchmark":"blas_dot"}"#),
            0x3d57_c942_87aa_d9ae
        );
        assert_eq!(
            key_of(
                r#"{"type":"lift","id":"b","benchmark":"blas_gemv","config":{"mode":"bu","max_attempts":500,"oracle_rounds":2}}"#
            ),
            0x38cf_f60c_7f1e_fedb
        );
    }
}
