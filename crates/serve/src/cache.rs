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

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gtl::{LiftQuery, StaggConfig};
use gtl_store::LiftRecord;

/// A stored terminal outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedOutcome {
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
}

impl CachedOutcome {
    /// The persistent form of this outcome, for `--store` servers.
    pub fn to_record(&self, key: u64, label: &str, seconds: f64) -> LiftRecord {
        LiftRecord {
            key,
            label: label.to_string(),
            solution: self.solution.clone(),
            reason: self.reason.clone(),
            detail: self.detail.clone(),
            attempts: self.attempts,
            nodes: self.nodes,
            seconds,
        }
    }

    /// Rehydrates a persisted outcome (the warm-start direction).
    pub fn from_record(record: &LiftRecord) -> CachedOutcome {
        CachedOutcome {
            solution: record.solution.clone(),
            reason: record.reason.clone(),
            detail: record.detail.clone(),
            attempts: record.attempts,
            nodes: record.nodes,
        }
    }
}

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

/// A bounded, thread-safe map of request keys to terminal outcomes,
/// with hit/miss counters surfaced through the `stats` request.
#[derive(Debug)]
pub struct ResultCache {
    map: Mutex<HashMap<u64, CachedOutcome>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Creates a cache bounded to `capacity` entries (minimum 1); a full
    /// cache is cleared wholesale.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a key, counting the outcome as a hit or miss.
    pub fn lookup(&self, key: u64) -> Option<CachedOutcome> {
        let found = self
            .map
            .lock()
            .expect("result cache poisoned")
            .get(&key)
            .cloned();
        match found {
            Some(outcome) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(outcome)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a terminal outcome.
    pub fn insert(&self, key: u64, outcome: CachedOutcome) {
        let mut map = self.map.lock().expect("result cache poisoned");
        if map.len() >= self.capacity && !map.contains_key(&key) {
            map.clear();
        }
        map.insert(key, outcome);
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("result cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::new(1024)
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

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = ResultCache::new(8);
        assert!(cache.lookup(7).is_none());
        assert_eq!(cache.misses(), 1);
        cache.insert(
            7,
            CachedOutcome {
                solution: Some("a = b(i)".into()),
                reason: None,
                detail: None,
                attempts: 3,
                nodes: 10,
            },
        );
        let hit = cache.lookup(7).unwrap();
        assert_eq!(hit.solution.as_deref(), Some("a = b(i)"));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn capacity_bound_clears_wholesale() {
        let cache = ResultCache::new(2);
        for key in 0..3 {
            cache.insert(
                key,
                CachedOutcome {
                    solution: None,
                    reason: Some("search_exhausted".into()),
                    detail: None,
                    attempts: 0,
                    nodes: 0,
                },
            );
        }
        assert!(cache.len() <= 2, "bounded: {}", cache.len());
        // Re-inserting an existing key never clears.
        let before = cache.len();
        cache.insert(
            2,
            CachedOutcome {
                solution: None,
                reason: Some("search_exhausted".into()),
                detail: None,
                attempts: 1,
                nodes: 1,
            },
        );
        assert_eq!(cache.len(), before);
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
