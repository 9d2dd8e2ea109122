//! Pipeline phases, per-phase time accounting, and RAII spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gtl_store::json::Json;

/// The pipeline phases the observability tier attributes time to.
///
/// The set is closed on purpose: a fixed enum indexes fixed-size
/// atomic arrays, so recording a span is two relaxed atomic adds and
/// the disabled path touches nothing at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Querying the oracle for candidate programs, including
    /// preprocessing, parsing and templatizing its answers.
    Oracle,
    /// Kernel analysis, dimension prediction, grammar generation and
    /// PCFG weight learning.
    GrammarLearn,
    /// The weighted A\* template search proper — engine wall time with
    /// the time attributed to validation and verification subtracted,
    /// so the phases partition the round instead of double-counting.
    Search,
    /// Checking each template the search hands over, verification
    /// excepted: the feasibility test, the canonical key and seen-set,
    /// the zero-substitution test, building the program and evaluating
    /// its substitutions on the I/O examples (plus generating the
    /// examples themselves). A lift whose templates are all pruned or
    /// have no substitution still spends time here.
    Validate,
    /// Bounded verification of candidates that passed every example.
    Verify,
    /// Appending a solved outcome to the persistent store.
    StoreAppend,
}

impl Phase {
    /// Every phase, in reporting order.
    pub const ALL: [Phase; 6] = [
        Phase::Oracle,
        Phase::GrammarLearn,
        Phase::Search,
        Phase::Validate,
        Phase::Verify,
        Phase::StoreAppend,
    ];

    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = Phase::ALL.len();

    /// The phase's stable wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Oracle => "oracle",
            Phase::GrammarLearn => "grammar_learn",
            Phase::Search => "search",
            Phase::Validate => "validate",
            Phase::Verify => "verify",
            Phase::StoreAppend => "store_append",
        }
    }

    /// Parses a wire/report name back to the phase.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-phase wall-time totals in microseconds — the value type that
/// rides on `LiftReport`, `MethodResult`, batch-suite JSON and
/// `ServerStats`.
///
/// Merging is element-wise addition, so per-lift maps sum into
/// per-process totals and per-replica totals sum at the router exactly
/// like the histogram algebra.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    micros: [u64; Phase::COUNT],
}

impl PhaseTimes {
    /// An all-zero map.
    pub fn new() -> PhaseTimes {
        PhaseTimes::default()
    }

    /// Adds `us` microseconds to a phase.
    pub fn record(&mut self, phase: Phase, us: u64) {
        self.micros[phase.index()] = self.micros[phase.index()].saturating_add(us);
    }

    /// The accumulated microseconds of one phase.
    pub fn get(&self, phase: Phase) -> u64 {
        self.micros[phase.index()]
    }

    /// Adds every phase total of `other` into `self`.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for phase in Phase::ALL {
            self.record(phase, other.get(phase));
        }
    }

    /// The element-wise difference `self - baseline` (saturating) — a
    /// windowed breakdown from two snapshots of a monotone counter,
    /// mirroring [`crate::LatencyHistogram::diff`].
    pub fn diff(&self, baseline: &PhaseTimes) -> PhaseTimes {
        let mut out = PhaseTimes::new();
        for phase in Phase::ALL {
            out.record(phase, self.get(phase).saturating_sub(baseline.get(phase)));
        }
        out
    }

    /// Sum over all phases, microseconds.
    pub fn total_us(&self) -> u64 {
        self.micros.iter().fold(0u64, |a, b| a.saturating_add(*b))
    }

    /// Whether every phase is zero.
    pub fn is_empty(&self) -> bool {
        self.micros.iter().all(|&us| us == 0)
    }

    /// `(phase, microseconds)` pairs in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.into_iter().map(move |p| (p, self.get(p)))
    }

    /// The map as a JSON object `{phase_name: microseconds}` with every
    /// phase present (zeros included, so consumers see the full
    /// vocabulary).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(phase, us)| (phase.name().to_string(), Json::u64(us)))
                .collect(),
        )
    }

    /// Decodes [`PhaseTimes::to_json`]; unknown phase names are
    /// ignored (a newer peer may know more phases), missing ones stay
    /// zero. `None` when `value` is not an object.
    pub fn from_json(value: &Json) -> Option<PhaseTimes> {
        let obj = match value {
            Json::Obj(fields) => fields,
            _ => return None,
        };
        let mut times = PhaseTimes::new();
        for (name, us) in obj {
            if let (Some(phase), Some(us)) = (Phase::from_name(name), us.as_u64()) {
                times.record(phase, us);
            }
        }
        Some(times)
    }
}

/// Thread-safe per-phase accumulator: one relaxed atomic add per span,
/// shared freely across search worker threads.
#[derive(Debug, Default)]
pub struct PhaseCollector {
    micros: [AtomicU64; Phase::COUNT],
    spans: [AtomicU64; Phase::COUNT],
}

impl PhaseCollector {
    /// A zeroed collector.
    pub fn new() -> PhaseCollector {
        PhaseCollector::default()
    }

    /// Records `us` microseconds against a phase.
    pub fn add(&self, phase: Phase, us: u64) {
        self.micros[phase.index()].fetch_add(us, Ordering::Relaxed);
        self.spans[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a finished [`PhaseTimes`] map into the collector — how a
    /// server accumulates each lift's breakdown into process totals.
    /// Empty phases are skipped so span counts stay meaningful.
    pub fn merge_times(&self, times: &PhaseTimes) {
        for (phase, us) in times.iter() {
            if us > 0 {
                self.add(phase, us);
            }
        }
    }

    /// Current microsecond total of one phase.
    pub fn micros(&self, phase: Phase) -> u64 {
        self.micros[phase.index()].load(Ordering::Relaxed)
    }

    /// Number of spans recorded against one phase.
    pub fn span_count(&self, phase: Phase) -> u64 {
        self.spans[phase.index()].load(Ordering::Relaxed)
    }

    /// A plain-value snapshot of the totals.
    pub fn snapshot(&self) -> PhaseTimes {
        let mut times = PhaseTimes::new();
        for phase in Phase::ALL {
            times.record(phase, self.micros(phase));
        }
        times
    }
}

/// An RAII phase span: started against an optional collector, records
/// its elapsed wall time on drop.
///
/// The disabled path (`collector == None`) is free: no clock read at
/// start, nothing recorded at drop, and no allocation anywhere — the
/// guard is two words on the stack (verified by the crate's
/// counting-allocator test).
#[derive(Debug)]
pub struct PhaseSpan<'a> {
    collector: Option<&'a PhaseCollector>,
    phase: Phase,
    started: Option<Instant>,
}

impl<'a> PhaseSpan<'a> {
    /// Starts a span; pass `None` to disable it entirely.
    pub fn start(collector: Option<&'a PhaseCollector>, phase: Phase) -> PhaseSpan<'a> {
        PhaseSpan {
            collector,
            phase,
            started: collector.map(|_| Instant::now()),
        }
    }

    /// Ends the span now instead of at scope exit.
    pub fn stop(self) {}
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        if let (Some(collector), Some(started)) = (self.collector, self.started) {
            let us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
            collector.add(self.phase, us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
        }
        assert_eq!(Phase::from_name("no_such_phase"), None);
    }

    #[test]
    fn phase_times_merge_and_total() {
        let mut a = PhaseTimes::new();
        a.record(Phase::Oracle, 100);
        a.record(Phase::Search, 50);
        let mut b = PhaseTimes::new();
        b.record(Phase::Search, 25);
        b.record(Phase::Verify, 7);
        a.merge(&b);
        assert_eq!(a.get(Phase::Oracle), 100);
        assert_eq!(a.get(Phase::Search), 75);
        assert_eq!(a.get(Phase::Verify), 7);
        assert_eq!(a.total_us(), 182);
        assert!(!a.is_empty());
        assert!(PhaseTimes::new().is_empty());
    }

    #[test]
    fn phase_times_json_round_trips() {
        let mut times = PhaseTimes::new();
        times.record(Phase::GrammarLearn, 42);
        times.record(Phase::StoreAppend, 9);
        let decoded = PhaseTimes::from_json(&times.to_json()).expect("object decodes");
        assert_eq!(decoded, times);
        // Unknown phases are skipped, not fatal.
        let with_unknown = Json::obj([("oracle", Json::u64(3)), ("warp_drive", Json::u64(8))]);
        let decoded = PhaseTimes::from_json(&with_unknown).expect("decodes");
        assert_eq!(decoded.get(Phase::Oracle), 3);
        assert_eq!(decoded.total_us(), 3);
        assert_eq!(PhaseTimes::from_json(&Json::Null), None);
    }

    #[test]
    fn collector_accumulates_across_threads() {
        let collector = PhaseCollector::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        collector.add(Phase::Validate, 3);
                    }
                });
            }
        });
        assert_eq!(collector.micros(Phase::Validate), 1200);
        assert_eq!(collector.span_count(Phase::Validate), 400);
        assert_eq!(collector.snapshot().get(Phase::Validate), 1200);
    }

    #[test]
    fn span_records_on_drop_and_disabled_span_records_nothing() {
        let collector = PhaseCollector::new();
        {
            let _span = PhaseSpan::start(Some(&collector), Phase::Oracle);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(collector.micros(Phase::Oracle) >= 1_000);
        assert_eq!(collector.span_count(Phase::Oracle), 1);

        let disabled = PhaseSpan::start(None, Phase::Oracle);
        assert!(disabled.started.is_none(), "disabled span read the clock");
        disabled.stop();
        assert_eq!(collector.span_count(Phase::Oracle), 1);
    }

    #[test]
    fn disabled_span_is_allocation_free_by_construction() {
        // The guard owns no heap type — just a reference, a fieldless
        // enum and an inline `Option<Instant>` — so neither starting
        // nor dropping it can allocate (the workspace forbids unsafe
        // code, so a counting allocator cannot verify this at runtime;
        // the layout bound pins it instead).
        assert!(std::mem::size_of::<PhaseSpan<'_>>() <= 5 * std::mem::size_of::<usize>());
        for _ in 0..1_000_000 {
            PhaseSpan::start(None, Phase::Validate).stop();
        }
    }
}
