//! Shared search driver types: the checker interface, budgets, outcomes
//! and the externally-visible hooks (cancellation, live progress) a
//! serving layer attaches to a running search.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtl_taco::{TacoProgram, TemplateRef};

/// The downstream validation + verification stage (§6 and §7), invoked on
/// every complete template the search produces. Implementations try all
/// substitutions against I/O examples and, on a hit, run bounded
/// verification; only a template that passes both is a
/// [`CheckOutcome::Verified`].
pub trait TemplateChecker {
    /// Checks one complete template; on success returns the concrete
    /// program (template with the winning substitution applied).
    fn check(&mut self, template: &TacoProgram) -> CheckOutcome;

    /// Checks one complete template handed over as borrowed tokens;
    /// `program` builds its [`TacoProgram`], for a checker that needs
    /// one. The top-down search calls this instead of
    /// [`TemplateChecker::check`], so a checker that prunes most
    /// templates from their tokens builds few programs. The default
    /// builds the program and calls `check`.
    fn check_ref(
        &mut self,
        template: TemplateRef<'_>,
        program: &dyn Fn() -> TacoProgram,
    ) -> CheckOutcome {
        let _ = template;
        self.check(&program())
    }
}

/// Result of checking one template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// A substitution validated on all I/O examples and passed bounded
    /// verification.
    Verified(TacoProgram),
    /// No substitution survived.
    Failed,
}

impl<F> TemplateChecker for F
where
    F: FnMut(&TacoProgram) -> CheckOutcome,
{
    fn check(&mut self, template: &TacoProgram) -> CheckOutcome {
        self(template)
    }
}

/// Resource budget for one search run.
#[derive(Debug, Clone, Copy)]
pub struct SearchBudget {
    /// Maximum queue pops (node expansions).
    pub max_nodes: u64,
    /// Maximum complete templates sent to the checker ("attempts").
    pub max_attempts: u64,
    /// Wall-clock limit.
    pub time_limit: Duration,
    /// Maximum expression depth (§5.1 uses 6).
    pub max_depth: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_nodes: 500_000,
            max_attempts: 30_000,
            time_limit: Duration::from_secs(10),
            max_depth: 6,
        }
    }
}

/// Why a search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A verified solution was found.
    Solved,
    /// The queue emptied: the (penalty-pruned) space is exhausted.
    Exhausted,
    /// A budget limit was hit.
    BudgetExceeded,
    /// An external [`CancelFlag`] (client disconnect, request timeout,
    /// server shutdown) was raised mid-search.
    Cancelled,
}

/// A cooperative cancellation flag a caller raises to stop a running
/// search (client disconnect, request timeout, server shutdown); the
/// search polls it between frontier pops.
#[derive(Debug, Default)]
pub struct CancelFlag {
    raised: AtomicBool,
}

impl CancelFlag {
    /// A fresh, unraised flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Raises the flag (idempotent).
    pub fn cancel(&self) {
        self.raised.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.raised.load(Ordering::Acquire)
    }
}

/// Live, externally observable counters of a running search.
///
/// A serving layer hands one of these to the search through
/// [`SearchHooks`] and polls it from another thread to stream
/// `search_progress` events; the search publishes with relaxed atomics,
/// so reads are cheap and never block it.
#[derive(Debug, Default)]
pub struct SearchProgress {
    nodes: AtomicU64,
    attempts: AtomicU64,
}

impl SearchProgress {
    /// A fresh, zeroed progress tracker.
    pub fn new() -> SearchProgress {
        SearchProgress::default()
    }

    /// Queue pops so far.
    pub fn nodes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Complete templates sent to the checker so far.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Overwrites both counters (the search mirrors its private loop
    /// counters outward once per iteration and once more on return).
    pub(crate) fn record(&self, nodes: u64, attempts: u64) {
        self.nodes.store(nodes, Ordering::Relaxed);
        self.attempts.store(attempts, Ordering::Relaxed);
    }
}

/// External attachments to one search run: a cancellation flag the
/// caller may raise at any time, and a progress tracker the caller may
/// poll while the search runs. Both are optional; `SearchHooks::default()`
/// attaches nothing and costs one untaken branch per loop iteration.
#[derive(Debug, Clone, Default)]
pub struct SearchHooks {
    /// Raised by the caller to stop the search; the outcome then reports
    /// [`StopReason::Cancelled`]. The search polls it between frontier
    /// pops.
    pub cancel: Option<Arc<CancelFlag>>,
    /// Live node/attempt counters updated by the search while running.
    pub progress: Option<Arc<SearchProgress>>,
}

impl SearchHooks {
    /// Hooks carrying just a cancellation flag.
    pub fn with_cancel(cancel: Arc<CancelFlag>) -> SearchHooks {
        SearchHooks {
            cancel: Some(cancel),
            progress: None,
        }
    }

    /// Whether the external cancel flag (if any) has been raised.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }
}

/// The result of one search run, with the statistics the paper reports.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The verified concrete program, if found.
    pub solution: Option<TacoProgram>,
    /// The winning template (pre-substitution), if found.
    pub template: Option<TacoProgram>,
    /// Complete templates sent to validation — Table 1/3's "attempts".
    pub attempts: u64,
    /// Always `0`: the search sends every candidate to the checker, and
    /// algebraically equivalent templates are pruned at the validation
    /// layer (`ValidationStats::pruned_equivalent`). Kept for readers of
    /// the field that predate that single dedup layer.
    pub pruned_equivalent: u64,
    /// Queue pops.
    pub nodes_expanded: u64,
    /// Wall-clock time of the search stage.
    pub elapsed: Duration,
    /// Why the search stopped.
    pub stop: StopReason,
}

impl SearchOutcome {
    /// Whether a verified solution was produced.
    pub fn solved(&self) -> bool {
        self.solution.is_some()
    }
}

/// Internal stopwatch + counters shared by the two algorithms.
#[derive(Debug)]
pub(crate) struct RunState {
    pub started: Instant,
    pub budget: SearchBudget,
    pub attempts: u64,
    pub nodes: u64,
}

impl RunState {
    pub(crate) fn new(budget: SearchBudget) -> RunState {
        RunState {
            started: Instant::now(),
            budget,
            attempts: 0,
            nodes: 0,
        }
    }

    pub(crate) fn over_budget(&self) -> bool {
        self.nodes >= self.budget.max_nodes
            || self.attempts >= self.budget.max_attempts
            || self.started.elapsed() >= self.budget.time_limit
    }

    /// The outcome of an externally cancelled run.
    pub(crate) fn outcome_cancelled(self) -> SearchOutcome {
        SearchOutcome {
            solution: None,
            template: None,
            attempts: self.attempts,
            pruned_equivalent: 0,
            nodes_expanded: self.nodes,
            elapsed: self.started.elapsed(),
            stop: StopReason::Cancelled,
        }
    }

    pub(crate) fn outcome(
        self,
        solution: Option<(TacoProgram, TacoProgram)>,
        exhausted: bool,
    ) -> SearchOutcome {
        let stop = if solution.is_some() {
            StopReason::Solved
        } else if exhausted {
            StopReason::Exhausted
        } else {
            StopReason::BudgetExceeded
        };
        let (template, concrete) = match solution {
            Some((t, c)) => (Some(t), Some(c)),
            None => (None, None),
        };
        SearchOutcome {
            solution: concrete,
            template,
            attempts: self.attempts,
            pruned_equivalent: 0,
            nodes_expanded: self.nodes,
            elapsed: self.started.elapsed(),
            stop,
        }
    }
}

/// An `f64` ordered totally for use as a priority (lower first).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Priority(pub f64);

impl Eq for Priority {}

impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap and we want min-f first.
        other.0.total_cmp(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_min_first() {
        let mut heap = std::collections::BinaryHeap::new();
        heap.push((Priority(3.0), "c"));
        heap.push((Priority(1.0), "a"));
        heap.push((Priority(2.0), "b"));
        assert_eq!(heap.pop().unwrap().1, "a");
        assert_eq!(heap.pop().unwrap().1, "b");
    }

    #[test]
    fn budget_limits() {
        let mut rs = RunState::new(SearchBudget {
            max_nodes: 2,
            ..SearchBudget::default()
        });
        assert!(!rs.over_budget());
        rs.nodes = 2;
        assert!(rs.over_budget());
    }

    #[test]
    fn closure_is_a_checker() {
        let mut checker = |_t: &TacoProgram| CheckOutcome::Failed;
        let p = gtl_taco::parse_program("a(i) = b(i)").unwrap();
        assert_eq!(checker.check(&p), CheckOutcome::Failed);
    }

    #[test]
    fn cancel_flag_is_sticky_and_shared() {
        let flag = CancelFlag::new();
        assert!(!flag.is_cancelled());
        std::thread::scope(|s| {
            s.spawn(|| flag.cancel());
        });
        assert!(flag.is_cancelled());
        flag.cancel();
        assert!(flag.is_cancelled());
    }
}
