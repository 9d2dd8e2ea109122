//! The end-to-end STAGG pipeline (Fig. 1).
//!
//! ① Query the oracle for candidate solutions; ② templatise them and
//! learn a probabilistic grammar (refined by dimension prediction);
//! ③ enumerate the template space with weighted A\*; ④ validate complete
//! templates on I/O examples and verify survivors with the bounded
//! equivalence checker, looping back on failure. With
//! [`StaggConfig::oracle_rounds`] > 1 the loop-back is literal: a
//! failed search re-queries the oracle with feedback about the
//! candidates it already rejected, and the grammar is re-learned over
//! the accumulated candidate pool.

use std::borrow::Borrow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtl_analysis::analyze_kernel;
use gtl_oracle::{OracleFeedback, OracleProvider, OracleQuery};
use gtl_search::{
    bottom_up_search_hooked, top_down_search_hooked, CancelFlag, CheckOutcome, PenaltyContext,
    SearchHooks, SearchOutcome, TemplateChecker,
};
use gtl_taco::{
    parse_program, preprocess_candidate, recycle, CanonEncoder, KeySet, NameTable, RhsTok,
    TacoProgram, TemplateRef,
};
use gtl_trace::{Phase, PhaseCollector, PhaseSpan, PhaseTimes};
use gtl_template::{
    any_const, any_repeated_index, generate_bu_full_grammar, generate_bu_grammar,
    generate_td_full_grammar, generate_td_grammar, index_variable_count, learn_weights,
    overlay_lhs_dimension, predict_dimension_list, templatize, TdSpec, Template,
    TemplateGrammar,
};
use gtl_validate::{generate_examples, IoExample, LiftTask, ValidationStats, Validator};
use gtl_verify::{verify_candidate, VerifyConfig};

use crate::config::{GrammarMode, SearchMode, StaggConfig};
use crate::report::{FailureReason, LiftReport, OracleRoundStats};

/// One lifting query: the legacy kernel plus the metadata the pipeline
/// and the synthetic oracle need.
#[derive(Debug, Clone)]
pub struct LiftQuery {
    /// Stable label (benchmark name) for seeding and reporting.
    pub label: String,
    /// The legacy C source (used in the prompt).
    pub source: String,
    /// The lifting task (kernel + shapes + constants).
    pub task: LiftTask,
    /// Optional ground-truth hint for the synthetic oracle. STAGG
    /// itself never reads it — it flows only into [`OracleQuery`], and
    /// replayed or scripted oracles work without it.
    pub ground_truth: Option<TacoProgram>,
}

/// Incremental observations of one running lift, for serving layers
/// that stream progress to clients.
///
/// Methods are called on the lifting thread while the lift is in
/// flight; implementations should be quick and must not block on the
/// lift itself. All methods default to no-ops, so observers implement
/// only what they report.
pub trait LiftObserver {
    /// An oracle round-trip finished: `parsed` of `received` raw
    /// candidates survived preprocessing/parsing/templatisation. Fires
    /// once per oracle round.
    fn candidates(&self, received: usize, parsed: usize) {
        let _ = (received, parsed);
    }

    /// A concrete candidate passed every I/O example and is entering
    /// bounded verification. May fire several times per lift; the
    /// verified winner is reported by the final [`LiftReport`].
    fn validated(&self, concrete: &TacoProgram) {
        let _ = concrete;
    }
}

/// External attachments to one lift: an observer for incremental
/// events and search-level hooks (cancellation, live progress).
///
/// `LiftHooks::default()` attaches nothing — [`Stagg::lift`] is exactly
/// [`Stagg::lift_with`] under default hooks.
#[derive(Default)]
pub struct LiftHooks<'a> {
    /// Receives incremental pipeline events.
    pub observer: Option<&'a dyn LiftObserver>,
    /// Cancellation + live progress for the search stage. A raised
    /// cancel flag also short-circuits in-flight template checks.
    pub search: SearchHooks,
}

/// The STAGG lifter: an oracle *provider* plus a configuration.
///
/// The provider mints one fresh oracle per lift, so a single `Stagg`
/// can serve many lifts — concurrently, from shared references —
/// without any per-oracle borrow threading. Serving workers hold one
/// provider for their whole lifetime and share it across requests.
pub struct Stagg {
    provider: Arc<dyn OracleProvider>,
    config: StaggConfig,
}

/// How many rejected candidates a failed round hands back to the
/// oracle as feedback.
const FEEDBACK_CANDIDATES: usize = 8;

impl Stagg {
    /// Creates a lifter from an explicit provider. The provider wins
    /// over `config.oracle` (the spec is advisory here — it names what
    /// a config-driven caller would build).
    pub fn new(provider: Arc<dyn OracleProvider>, config: StaggConfig) -> Stagg {
        Stagg { provider, config }
    }

    /// Creates a lifter whose provider is built from
    /// [`StaggConfig::oracle`] — the one-line, spec-driven entry point.
    ///
    /// # Errors
    ///
    /// Returns a [`gtl_oracle::FixtureError`] when the spec names an
    /// unusable fixture (missing replay file, unwritable record path).
    pub fn from_config(config: StaggConfig) -> Result<Stagg, gtl_oracle::FixtureError> {
        let provider = config.oracle.provider()?;
        Ok(Stagg { provider, config })
    }

    /// The configuration this lifter runs with.
    pub fn config(&self) -> &StaggConfig {
        &self.config
    }

    /// Runs the full pipeline on one query.
    pub fn lift(&self, query: &LiftQuery) -> LiftReport {
        self.lift_with(query, &LiftHooks::default())
    }

    /// Runs the full pipeline on one query with external hooks attached:
    /// an observer for incremental events, and a cancellation flag and
    /// live progress counters for the search stage. See [`LiftHooks`].
    pub fn lift_with(&self, query: &LiftQuery, hooks: &LiftHooks<'_>) -> LiftReport {
        let started = Instant::now();
        let mut report = LiftReport {
            label: query.label.clone(),
            solution: None,
            template: None,
            failure: None,
            attempts: 0,
            nodes_expanded: 0,
            substitutions_tried: 0,
            pruned_infeasible: 0,
            pruned_equivalent: 0,
            candidates_received: 0,
            candidates_parsed: 0,
            dim_list: Vec::new(),
            rounds: Vec::new(),
            elapsed: started.elapsed(),
            search_elapsed: std::time::Duration::ZERO,
            phase_times: PhaseTimes::new(),
        };
        // Every stage below records its wall time here; the snapshot
        // lands on `report.phase_times` at both exit points.
        let phases = PhaseCollector::new();

        let mut oracle = self.provider.oracle();
        let rounds = self.config.oracle_rounds.max(1);
        // The candidate pool accumulates across rounds (duplicates
        // included — repetition is information for weight learning).
        let mut pool: Vec<Template> = Vec::new();
        let mut examples: Option<Vec<IoExample>> = None;
        let mut feedback: Option<OracleFeedback> = None;
        let mut searched = false;

        for round in 0..rounds {
            // ① Ask the oracle for candidate solutions (with feedback
            // about the previous round's failure, if any). The Oracle
            // phase covers the round trip plus preprocessing, parsing
            // and templatisation of the answers.
            let oracle_span = PhaseSpan::start(Some(&phases), Phase::Oracle);
            let raw = oracle.candidates_round(
                &OracleQuery {
                    label: &query.label,
                    c_source: &query.source,
                    ground_truth: query.ground_truth.as_ref(),
                },
                round,
                feedback.as_ref(),
            );
            let mut round_stats = OracleRoundStats {
                round,
                received: raw.len(),
                ..OracleRoundStats::default()
            };
            report.candidates_received += raw.len();

            // Parse and templatise; discard syntactically invalid
            // candidates.
            let fresh: Vec<Template> =
                raw.iter().filter_map(|line| template_from_candidate(line)).collect();
            oracle_span.stop();
            round_stats.parsed = fresh.len();
            report.candidates_parsed += fresh.len();
            if let Some(observer) = hooks.observer {
                observer.candidates(raw.len(), fresh.len());
            }
            // A re-query that provably adds no information — nothing
            // parsed, or an exact repeat of the whole pool (uniform
            // duplication leaves the learned weight distribution
            // unchanged) — would re-run the identical deterministic
            // search; record the round and skip straight to the next
            // re-query instead of burning a full budget on it.
            if searched {
                let repeat_of_pool = !fresh.is_empty() && fresh.len() == pool.len() && {
                    let mut a: Vec<String> = fresh.iter().map(ToString::to_string).collect();
                    let mut b: Vec<String> = pool.iter().map(ToString::to_string).collect();
                    a.sort_unstable();
                    b.sort_unstable();
                    a == b
                };
                if fresh.is_empty() || repeat_of_pool {
                    report.rounds.push(round_stats);
                    // The previous failure (and its feedback) stand.
                    continue;
                }
            }
            pool.extend(fresh);
            if pool.is_empty() {
                report.failure = Some(FailureReason::NoUsableCandidates);
                report.rounds.push(round_stats);
                feedback = Some(OracleFeedback {
                    failed_candidates: Vec::new(),
                    reason: "no_usable_candidates".to_string(),
                });
                continue;
            }

            // ④'s prerequisite, generated once per lift: I/O examples
            // (attributed to Validate — they exist only to be validated
            // against).
            if examples.is_none() {
                let generated = {
                    let _span = PhaseSpan::start(Some(&phases), Phase::Validate);
                    generate_examples(&query.task, &self.config.examples)
                };
                match generated {
                    Ok(e) => examples = Some(e),
                    Err(e) => {
                        report.failure = Some(FailureReason::BadQuery(e.to_string()));
                        report.rounds.push(round_stats);
                        report.phase_times = phases.snapshot();
                        report.elapsed = started.elapsed();
                        return report;
                    }
                }
            }
            let examples = examples.as_ref().expect("examples generated above");

            let (outcome, rejected) = self.search_round(query, &pool, examples, hooks, &phases);
            searched = true;
            round_stats.attempts = outcome.attempts;
            round_stats.nodes_expanded = outcome.nodes_expanded;
            report.attempts += outcome.attempts;
            report.nodes_expanded += outcome.nodes_expanded;
            report.search_elapsed += outcome.elapsed;
            report.substitutions_tried += outcome.substitutions_tried;
            report.pruned_infeasible += outcome.pruned_infeasible;
            report.pruned_equivalent += outcome.pruned_equivalent;
            report.dim_list = outcome.dim_list;
            report.template = outcome.template;
            report.failure = LiftReport::failure_from_stop(outcome.stop);
            report.solution = outcome.solution;
            report.rounds.push(round_stats);

            if report.solution.is_some()
                || matches!(report.failure, Some(FailureReason::Cancelled))
            {
                break;
            }
            feedback = Some(OracleFeedback {
                failed_candidates: rejected,
                reason: report
                    .failure
                    .as_ref()
                    .map(|f| match f {
                        FailureReason::SearchExhausted => "search_exhausted",
                        FailureReason::BudgetExceeded => "budget_exceeded",
                        _ => "failed",
                    })
                    .unwrap_or("failed")
                    .to_string(),
            });
        }
        report.phase_times = phases.snapshot();
        report.elapsed = started.elapsed();
        report
    }

    /// Stages ② and ③ for one oracle round: grammar construction over
    /// the accumulated candidate pool, then search with validation +
    /// verification. Returns the search outcome (with the dimension
    /// list folded in) and a bounded sample of rejected candidates for
    /// oracle feedback.
    fn search_round(
        &self,
        query: &LiftQuery,
        pool: &[Template],
        examples: &[IoExample],
        hooks: &LiftHooks<'_>,
        phases: &PhaseCollector,
    ) -> (RoundOutcome, Vec<String>) {
        // ② Dimension prediction, grammar construction and probability
        // learning (the GrammarLearn phase).
        let grammar_span = PhaseSpan::start(Some(phases), Phase::GrammarLearn);
        let SearchGrammar {
            dim_list,
            grammar,
            ctx,
        } = build_search_grammar(&query.task, pool, &self.config);
        grammar_span.stop();

        // Feasibility fact for every template this round: whether a
        // constant-filled output could even match the examples. A
        // constant-only RHS produces one value everywhere, so any
        // non-uniform example output refutes every such template at once.
        let outputs_uniform = {
            let mut vals = examples.iter().flat_map(|ex| ex.output.data().iter());
            match vals.next() {
                None => true,
                Some(first) => vals.all(|v| v == first),
            }
        };
        let mut checker = RoundChecker {
            task: &query.task,
            verify: self.config.verify,
            observer: hooks.observer,
            cancel: hooks.search.cancel.clone(),
            pruning: self.config.pruning,
            outputs_uniform,
            canon: CanonEncoder::default(),
            seen: KeySet::default(),
            validator: Validator::new(&query.task, examples),
            // Rejected candidates are collected only when a later round
            // could use them as feedback.
            collect_rejected: self.config.oracle_rounds.max(1) > 1,
            rejected: Vec::new(),
            stats: ValidationStats::default(),
            check_time: Duration::ZERO,
            verify_time: Duration::ZERO,
            program_names: NameTable::default(),
            program_ids: Vec::new(),
            program_tokens: Vec::new(),
        };

        // ③ Search: one best-first loop, in the paper artifact's pop
        // order, honouring the caller's cancellation/progress hooks.
        // Search time is the loop's wall clock minus the time the
        // checker spent meanwhile, which it splits into validation and
        // verification: the search time the lift waited for, also once
        // a long search overlaps its frontier with the checker.
        let outcome: SearchOutcome = match self.config.mode {
            SearchMode::TopDown => top_down_search_hooked(
                &grammar,
                &ctx,
                self.config.budget,
                &hooks.search,
                &mut checker,
            ),
            SearchMode::BottomUp => bottom_up_search_hooked(
                &grammar,
                &ctx,
                self.config.budget,
                &hooks.search,
                &mut checker,
            ),
        };
        if !checker.verify_time.is_zero() {
            phases.add(Phase::Verify, micros(checker.verify_time));
        }
        phases.add(
            Phase::Validate,
            micros(checker.check_time.saturating_sub(checker.verify_time)),
        );
        phases.add(
            Phase::Search,
            micros(outcome.elapsed.saturating_sub(checker.check_time)),
        );
        let stats = checker.stats;
        (
            RoundOutcome {
                attempts: outcome.attempts,
                nodes_expanded: outcome.nodes_expanded,
                elapsed: outcome.elapsed,
                substitutions_tried: stats.substitutions_tried,
                pruned_infeasible: stats.pruned_infeasible,
                pruned_equivalent: stats.pruned_equivalent,
                dim_list,
                template: outcome.template,
                solution: outcome.solution,
                stop: outcome.stop,
            },
            checker.rejected,
        )
    }
}

/// The pipeline's template checker for one search round: validate the
/// template's substitutions on the examples, verify survivors. A raised
/// external cancel flag short-circuits the check, so cancellation is
/// prompt even mid-validation.
///
/// Top-down templates arrive as tokens ([`TemplateChecker::check_ref`]),
/// bottom-up ones as programs ([`TemplateChecker::check`], which feeds
/// the program's tokens through the same body). Feasibility, the
/// canonical key, the seen-set and validation read the tokens; a program
/// is built only for a template with a substitution that passes every
/// example (and for the feedback sample).
struct RoundChecker<'r> {
    task: &'r LiftTask,
    verify: VerifyConfig,
    observer: Option<&'r dyn LiftObserver>,
    cancel: Option<Arc<CancelFlag>>,
    pruning: bool,
    outputs_uniform: bool,
    canon: CanonEncoder,
    /// Canonical keys of templates already validated this round, held
    /// exactly: the one deduplication layer of the lift.
    seen: KeySet,
    /// The task's parameters and the examples' tensors, interned once
    /// for every template this round validates.
    validator: Validator<'r>,
    collect_rejected: bool,
    /// A bounded sample of rejected candidates, for oracle feedback.
    rejected: Vec<String>,
    stats: ValidationStats,
    /// Wall time inside [`RoundChecker::check_timed`] this round. It is
    /// summed exactly and rounded to microseconds once, when the round
    /// reports it: most checks take well under a microsecond.
    check_time: Duration,
    /// The part of `check_time` spent inside the bounded verifier.
    verify_time: Duration,
    /// [`TemplateChecker::check`]'s buffers for a program's name table,
    /// name ids and tokens, kept across calls.
    program_names: NameTable<'static>,
    program_ids: Vec<u32>,
    program_tokens: Vec<RhsTok<'static>>,
}

impl RoundChecker<'_> {
    /// Checks one template and adds its time to the round's totals: all
    /// of it is check time, and the slice spent inside the bounded
    /// verifier is verify time too.
    fn check_timed<P: Borrow<TacoProgram>>(
        &mut self,
        template: TemplateRef<'_>,
        program: impl Fn() -> P,
    ) -> CheckOutcome {
        let started = Instant::now();
        let mut verify_time = Duration::ZERO;
        let outcome = self.check_template(template, program, &mut verify_time);
        self.check_time += started.elapsed();
        self.verify_time += verify_time;
        outcome
    }

    fn check_template<P: Borrow<TacoProgram>>(
        &mut self,
        template: TemplateRef<'_>,
        program: impl Fn() -> P,
        verify_time: &mut Duration,
    ) -> CheckOutcome {
        if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            return CheckOutcome::Failed;
        }
        if self.pruning {
            // Feasibility pre-checks, sound per construction: an LHS
            // index no RHS access mentions fails index analysis for
            // every substitution, and a constant-only RHS cannot
            // reproduce non-constant outputs. Either way validation
            // would reject every substitution — skip it. Pruned
            // templates fail exactly as validation would, so the run's
            // outcome (and attempt count) is unchanged.
            let facts = self.canon.load_ref(template);
            if facts.unconstrained_output || (!facts.reads_tensor && !self.outputs_uniform) {
                self.stats.pruned_infeasible += 1;
                return CheckOutcome::Failed;
            }
            // Equivalence: templates with equal canonical keys
            // enumerate identical substitution sets, so re-validating
            // one is pure waste.
            if !self.seen.insert(self.canon.key()) {
                self.stats.pruned_equivalent += 1;
                return CheckOutcome::Failed;
            }
        }
        let (task, verify, observer) = (self.task, &self.verify, self.observer);
        let verified = self.validator.validate_ref(
            template,
            &program,
            |concrete, _sub| {
                if let Some(observer) = observer {
                    observer.validated(concrete);
                }
                let verify_started = Instant::now();
                let equivalent = verify_candidate(task, concrete, verify).is_equivalent();
                *verify_time += verify_started.elapsed();
                equivalent
            },
            &mut self.stats,
        );
        match verified {
            Some(concrete) => CheckOutcome::Verified(concrete),
            None => {
                self.reject(program);
                CheckOutcome::Failed
            }
        }
    }

    /// Keeps a rejected template's text for feedback, building it only
    /// if the sample has room.
    fn reject<P: Borrow<TacoProgram>>(&mut self, program: impl FnOnce() -> P) {
        if self.collect_rejected && self.rejected.len() < FEEDBACK_CANDIDATES {
            self.rejected.push(program().borrow().to_string());
        }
    }
}

impl TemplateChecker for RoundChecker<'_> {
    fn check(&mut self, template: &TacoProgram) -> CheckOutcome {
        let mut names = std::mem::take(&mut self.program_names).recycle();
        let mut ids = std::mem::take(&mut self.program_ids);
        let mut rhs = recycle(std::mem::take(&mut self.program_tokens));
        let tokens = template.template_ref_reusing(&mut names, &mut ids, &mut rhs);
        let outcome = self.check_timed(tokens, || template);
        self.program_names = names.recycle();
        self.program_tokens = recycle(rhs);
        self.program_ids = ids;
        outcome
    }

    fn check_ref(
        &mut self,
        template: TemplateRef<'_>,
        program: &dyn Fn() -> TacoProgram,
    ) -> CheckOutcome {
        self.check_timed(template, program)
    }
}

/// Whole microseconds in `d`, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Candidate intake: preprocesses, parses and templatises one raw
/// oracle line, or `None` when any step rejects it.
pub fn template_from_candidate(line: &str) -> Option<Template> {
    let program = parse_program(&preprocess_candidate(line)?).ok()?;
    templatize(&program).ok()
}

/// What stage ② hands to the search: the predicted dimension list, the
/// weighted grammar and the penalty context over both.
#[derive(Debug, Clone)]
pub struct SearchGrammar {
    /// The dimension list: the candidates' vote with the LHS dimension
    /// taken from static analysis of the kernel.
    pub dim_list: Vec<usize>,
    /// The grammar for the configured search mode and grammar mode,
    /// with its weights learned or equalised.
    pub grammar: TemplateGrammar,
    /// The penalty context the search scores children with.
    pub ctx: PenaltyContext,
}

/// Stage ②: dimension prediction (LLM vote plus static analysis for
/// the LHS), grammar construction for `config`'s search mode and
/// grammar mode, probability learning over `pool`, and the penalty
/// context. The pipeline runs it once per searched oracle round.
pub fn build_search_grammar(
    task: &LiftTask,
    pool: &[Template],
    config: &StaggConfig,
) -> SearchGrammar {
    let facts = analyze_kernel(&task.func);
    let voted = predict_dimension_list(pool).unwrap_or_default();
    let dim_list = overlay_lhs_dimension(voted, facts.lhs_dim);
    let spec = TdSpec {
        dim_list: dim_list.clone(),
        n_indices: index_variable_count(pool).max(1),
        allow_repeated_index: any_repeated_index(pool),
        include_const: any_const(pool),
    };
    let (tensors, max_dim) = (config.full_grammar_tensors, config.full_grammar_max_dim);
    let mut grammar = match (config.mode, config.grammar) {
        (SearchMode::TopDown, GrammarMode::Refined | GrammarMode::EqualProbability) => {
            generate_td_grammar(&spec)
        }
        (SearchMode::TopDown, GrammarMode::FullGrammar | GrammarMode::LlmGrammar) => {
            generate_td_full_grammar(tensors, max_dim, facts.lhs_dim)
        }
        (SearchMode::BottomUp, GrammarMode::Refined | GrammarMode::EqualProbability) => {
            generate_bu_grammar(&spec)
        }
        (SearchMode::BottomUp, GrammarMode::FullGrammar | GrammarMode::LlmGrammar) => {
            generate_bu_full_grammar(tensors, max_dim, facts.lhs_dim)
        }
    };
    match config.grammar {
        GrammarMode::Refined | GrammarMode::LlmGrammar => {
            learn_weights(&mut grammar, pool);
        }
        GrammarMode::EqualProbability | GrammarMode::FullGrammar => {
            grammar.pcfg.equalize_weights();
        }
    }
    // A rank-0 operand slot of a bottom-up grammar arms a1's guard
    // like the CONSTANT non-terminal does.
    let ctx = PenaltyContext {
        dim_list: dim_list.clone(),
        grammar_has_const: grammar.nts.constant.is_some() || grammar.nts.dim_nts.contains_key(&0),
        live_ops: grammar.live_ops(),
        settings: config.penalties,
    };
    SearchGrammar {
        dim_list,
        grammar,
        ctx,
    }
}

/// One round's search result plus the round-scoped analysis artefacts
/// the report records.
struct RoundOutcome {
    attempts: u64,
    nodes_expanded: u64,
    elapsed: std::time::Duration,
    substitutions_tried: u64,
    pruned_infeasible: u64,
    pruned_equivalent: u64,
    dim_list: Vec<usize>,
    template: Option<TacoProgram>,
    solution: Option<TacoProgram>,
    stop: gtl_search::StopReason,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_cfront::parse_c;
    use gtl_oracle::{Oracle, ScriptedOracle, SyntheticOracle};
    use gtl_validate::{TaskParam, TaskParamKind};

    /// The Fig. 2 query, built by hand (the benchsuite version is used in
    /// the integration tests).
    fn figure2_query() -> LiftQuery {
        let source = "void function(int N, int *Mat1, int *Mat2, int *Result) {
            int *p_m1;
            int *p_m2;
            int *p_t;
            int i, f;
            p_m1 = Mat1;
            p_t = Result;
            for (f = 0; f < N; f++) {
                *p_t = 0;
                p_m2 = &Mat2[0];
                for (i = 0; i < N; i++)
                    *p_t += *p_m1++ * *p_m2++;
                p_t++;
            }
        }";
        let prog = parse_c(source).unwrap();
        LiftQuery {
            label: "figure2".into(),
            source: source.into(),
            task: LiftTask {
                func: prog.kernel().clone(),
                params: vec![
                    TaskParam {
                        name: "N".into(),
                        kind: TaskParamKind::Size("N".into()),
                    },
                    TaskParam {
                        name: "Mat1".into(),
                        kind: TaskParamKind::ArrayIn {
                            dims: vec!["N".into(), "N".into()],
                            nonzero: false,
                        },
                    },
                    TaskParam {
                        name: "Mat2".into(),
                        kind: TaskParamKind::ArrayIn {
                            dims: vec!["N".into()],
                            nonzero: false,
                        },
                    },
                    TaskParam {
                        name: "Result".into(),
                        kind: TaskParamKind::ArrayOut {
                            dims: vec!["N".into()],
                        },
                    },
                ],
                output: 3,
                constants: vec![0],
                ref_program: Default::default(),
            },
            ground_truth: Some(parse_program("Result(i) = Mat1(i,j) * Mat2(j)").unwrap()),
        }
    }

    fn paper_provider() -> Arc<dyn OracleProvider> {
        Arc::new(ScriptedOracle::new().with_paper_response_1("figure2"))
    }

    #[test]
    fn lifts_figure2_with_paper_response() {
        // The paper's own Response 1 drives the grammar; none of its
        // candidates is exactly right, yet STAGG finds the solution.
        let query = figure2_query();
        let stagg = Stagg::new(paper_provider(), StaggConfig::top_down());
        let report = stagg.lift(&query);
        assert!(report.solved(), "failure: {:?}", report.failure);
        assert_eq!(
            report.solution.unwrap().to_string(),
            "Result(i) = Mat1(i,j) * Mat2(j)"
        );
        assert_eq!(report.dim_list, vec![1, 2, 1]);
        assert_eq!(report.candidates_parsed, 3, "sum(...) line discarded");
        assert_eq!(report.rounds.len(), 1, "single-shot lift is one round");
        assert_eq!(report.rounds[0].received, report.candidates_received);
        assert_eq!(report.rounds[0].attempts, report.attempts);
    }

    #[test]
    fn bottom_up_lifts_figure2() {
        let query = figure2_query();
        let stagg = Stagg::new(paper_provider(), StaggConfig::bottom_up());
        let report = stagg.lift(&query);
        assert!(report.solved(), "failure: {:?}", report.failure);
    }

    #[test]
    fn synthetic_oracle_end_to_end() {
        let query = figure2_query();
        let stagg = Stagg::new(Arc::new(SyntheticOracle::default()), StaggConfig::top_down());
        let report = stagg.lift(&query);
        assert!(report.solved(), "failure: {:?}", report.failure);
        assert!(report.attempts >= 1);
    }

    #[test]
    fn from_config_matches_explicit_provider() {
        // The spec-driven constructor is the same lift as handing the
        // provider over explicitly — the new-API regression contract.
        let query = figure2_query();
        let by_spec = Stagg::from_config(StaggConfig::top_down())
            .expect("synthetic spec always builds")
            .lift(&query);
        let by_provider =
            Stagg::new(Arc::new(SyntheticOracle::default()), StaggConfig::top_down())
                .lift(&query);
        assert!(by_spec.deterministic_eq(&by_provider));
    }

    #[test]
    fn one_stagg_serves_many_lifts_without_mut() {
        // The provider redesign's point: `lift` takes `&self`, so one
        // lifter instance serves repeated (and concurrent) lifts.
        let query = figure2_query();
        let stagg = Stagg::new(paper_provider(), StaggConfig::top_down());
        let first = stagg.lift(&query);
        let second = stagg.lift(&query);
        assert!(first.deterministic_eq(&second), "lifts must be independent");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let stagg = &stagg;
                let query = &query;
                scope.spawn(move || assert!(stagg.lift(query).solved()));
            }
        });
    }

    /// An oracle that answers nothing on round 0 and the paper response
    /// on round 1 — exercising the failure loop.
    #[derive(Clone)]
    struct SecondRoundOracle;

    impl Oracle for SecondRoundOracle {
        fn candidates(&mut self, _query: &OracleQuery<'_>) -> Vec<String> {
            Vec::new()
        }

        fn candidates_round(
            &mut self,
            query: &OracleQuery<'_>,
            round: usize,
            feedback: Option<&OracleFeedback>,
        ) -> Vec<String> {
            match round {
                0 => Vec::new(),
                _ => {
                    let fb = feedback.expect("round 1 must carry feedback");
                    assert_eq!(fb.reason, "no_usable_candidates");
                    let mut inner =
                        ScriptedOracle::new().with_paper_response_1(query.label);
                    inner.candidates(query)
                }
            }
        }
    }

    impl OracleProvider for SecondRoundOracle {
        fn name(&self) -> &str {
            "second-round"
        }

        fn oracle(&self) -> Box<dyn Oracle> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn failure_loop_requeries_with_feedback() {
        let query = figure2_query();
        // One round: the empty first answer is terminal.
        let single = Stagg::new(Arc::new(SecondRoundOracle), StaggConfig::top_down());
        let report = single.lift(&query);
        assert_eq!(report.failure, Some(FailureReason::NoUsableCandidates));

        // Two rounds: the loop re-queries and the second answer solves.
        let config = StaggConfig::top_down().with_oracle_rounds(2);
        let looped = Stagg::new(Arc::new(SecondRoundOracle), config);
        let report = looped.lift(&query);
        assert!(report.solved(), "failure: {:?}", report.failure);
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.rounds[0].received, 0);
        assert!(report.rounds[1].parsed > 0);
        assert_eq!(
            report.candidates_received,
            report.rounds.iter().map(|r| r.received).sum::<usize>()
        );
    }

    #[test]
    fn information_free_rounds_skip_the_search() {
        // An oracle that repeats the same (unsolvable) answer every
        // round adds no information: the grammar and weights are
        // unchanged, so rounds after the first must not re-run the
        // identical deterministic search.
        let query = figure2_query();
        let provider: Arc<dyn OracleProvider> = Arc::new(
            // Rank-1-only candidate: the refined grammar it induces
            // cannot express Fig. 2's matrix, so the search exhausts.
            ScriptedOracle::new().script("figure2", &["r(i) = m1(i) + m2(i)"]),
        );
        let config = StaggConfig::top_down().with_oracle_rounds(3);
        let report = Stagg::new(provider, config).lift(&query);
        assert!(!report.solved());
        assert_eq!(report.rounds.len(), 3, "every round is recorded");
        assert!(report.rounds[0].attempts > 0, "round 0 searches");
        assert_eq!(report.rounds[1].attempts, 0, "repeat round skips");
        assert_eq!(report.rounds[2].attempts, 0, "repeat round skips");
        assert_eq!(report.attempts, report.rounds[0].attempts);
    }

    #[test]
    fn extra_rounds_do_not_change_a_solved_lift() {
        // A lift that solves in round 0 never re-queries: the report is
        // bit-identical whatever the round allowance.
        let query = figure2_query();
        let one = Stagg::new(paper_provider(), StaggConfig::top_down()).lift(&query);
        let many = Stagg::new(
            paper_provider(),
            StaggConfig::top_down().with_oracle_rounds(5),
        )
        .lift(&query);
        assert!(one.deterministic_eq(&many));
        assert_eq!(many.rounds.len(), 1);
    }

    #[test]
    fn hooks_observer_flows_through() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Default)]
        struct Counting {
            candidates: AtomicUsize,
            validated: AtomicUsize,
        }
        impl LiftObserver for Counting {
            fn candidates(&self, received: usize, parsed: usize) {
                assert!(parsed <= received);
                self.candidates.fetch_add(1, Ordering::SeqCst);
            }
            fn validated(&self, _concrete: &gtl_taco::TacoProgram) {
                self.validated.fetch_add(1, Ordering::SeqCst);
            }
        }

        let query = figure2_query();
        let observer = Counting::default();
        let hooks = LiftHooks {
            observer: Some(&observer),
            search: Default::default(),
        };
        let report =
            Stagg::new(paper_provider(), StaggConfig::top_down()).lift_with(&query, &hooks);
        assert!(report.solved(), "failure: {:?}", report.failure);
        assert_eq!(observer.candidates.load(Ordering::SeqCst), 1);
        assert!(
            observer.validated.load(Ordering::SeqCst) >= 1,
            "the winning candidate must have been observed entering verification"
        );
    }

    #[test]
    fn pre_cancelled_lift_reports_cancelled() {
        use gtl_search::{CancelFlag, SearchHooks};

        let query = figure2_query();
        let cancel = Arc::new(CancelFlag::new());
        cancel.cancel();
        let hooks = LiftHooks {
            observer: None,
            search: SearchHooks::with_cancel(cancel),
        };
        let report =
            Stagg::new(paper_provider(), StaggConfig::top_down()).lift_with(&query, &hooks);
        assert!(!report.solved());
        assert_eq!(report.failure, Some(FailureReason::Cancelled));
    }

    #[test]
    fn cancelled_lift_never_requeries() {
        use gtl_search::{CancelFlag, SearchHooks};

        let query = figure2_query();
        let cancel = Arc::new(CancelFlag::new());
        cancel.cancel();
        let hooks = LiftHooks {
            observer: None,
            search: SearchHooks::with_cancel(cancel),
        };
        let config = StaggConfig::top_down().with_oracle_rounds(4);
        let report = Stagg::new(paper_provider(), config).lift_with(&query, &hooks);
        assert_eq!(report.failure, Some(FailureReason::Cancelled));
        assert_eq!(report.rounds.len(), 1, "cancellation must stop the loop");
    }

    #[test]
    fn empty_oracle_fails_gracefully() {
        let query = figure2_query();
        let provider: Arc<dyn OracleProvider> = Arc::new(ScriptedOracle::new());
        let stagg = Stagg::new(provider, StaggConfig::top_down());
        let report = stagg.lift(&query);
        assert!(!report.solved());
        assert_eq!(report.failure, Some(FailureReason::NoUsableCandidates));
    }

    #[test]
    fn phase_times_partition_the_lift() {
        // The phases partition the wall clock: no phase
        // can exceed `elapsed`, the sum stays within it, and the
        // pipeline phases together account for (nearly) all of it — the
        // observability tier's ≥90 % coverage contract.
        let query = figure2_query();
        let report = Stagg::new(paper_provider(), StaggConfig::top_down()).lift(&query);
        assert!(report.solved(), "failure: {:?}", report.failure);
        let wall_us = report.elapsed.as_micros() as u64;
        let times = &report.phase_times;
        assert!(!times.is_empty(), "phases must be recorded");
        assert!(times.get(Phase::Search) > 0, "search must be attributed");
        assert!(times.get(Phase::Validate) > 0, "validation must be attributed");
        assert_eq!(times.get(Phase::StoreAppend), 0, "no store below the serving tier");
        assert!(
            times.total_us() <= wall_us,
            "phases over-count: {} us attributed, {wall_us} us measured",
            times.total_us()
        );
        assert!(
            times.total_us() * 10 >= wall_us * 9,
            "phases account for <90% of the lift: {} of {wall_us} us",
            times.total_us()
        );
    }

    #[test]
    fn phase_times_partition_a_lift_past_the_pipeline_switch() {
        // A candidate of three vectors cannot reach Fig. 2's
        // matrix-vector solution, so the lift checks 3,000 templates:
        // past the point where a search with a second core overlaps its
        // frontier with the checker. The phases still partition the
        // wall clock.
        let query = figure2_query();
        let provider: Arc<dyn OracleProvider> =
            Arc::new(ScriptedOracle::new().script("figure2", &["r(i) = m(i) + v(i) + w(i)"]));
        let mut config = StaggConfig::top_down();
        config.budget.max_attempts = 3_000;
        let report = Stagg::new(provider, config).lift(&query);
        assert!(!report.solved());
        assert_eq!(report.attempts, 3_000, "the lift exhausts its budget");
        assert!(report.substitutions_tried > 0, "templates are validated");
        let wall_us = report.elapsed.as_micros() as u64;
        let times = &report.phase_times;
        assert!(times.get(Phase::Search) > 0, "search must be attributed");
        assert!(times.get(Phase::Validate) > 0, "validation must be attributed");
        assert!(
            times.total_us() <= wall_us,
            "phases over-count: {} us attributed, {wall_us} us measured",
            times.total_us()
        );
        assert!(
            times.total_us() * 10 >= wall_us * 9,
            "phases account for <90% of the lift: {} of {wall_us} us",
            times.total_us()
        );
    }

    #[test]
    fn pruned_checks_count_as_validate_time() {
        // A constant-only candidate teaches a grammar whose every
        // template has a constant-only RHS, which Fig. 2's non-uniform
        // outputs refute: every check is a sub-microsecond feasibility
        // prune. Their sum must still reach the Validate phase.
        let query = figure2_query();
        let provider: Arc<dyn OracleProvider> =
            Arc::new(ScriptedOracle::new().script("figure2", &["r(i) = 7"]));
        let mut config = StaggConfig::top_down();
        config.budget.max_attempts = 2_000;
        let report = Stagg::new(provider, config).lift(&query);
        assert!(!report.solved());
        assert_eq!(report.attempts, 2_000, "the lift exhausts its budget");
        assert_eq!(report.pruned_infeasible, 2_000, "every check is pruned");
        assert_eq!(report.substitutions_tried, 0);
        assert!(report.phase_times.get(Phase::Validate) > 0);
    }

    #[test]
    fn bad_query_snapshot_still_carries_phase_times() {
        // The early-return path (example generation fails) must not
        // lose the oracle time already spent.
        let mut query = figure2_query();
        // An array dimension with no size binding fails instantiation.
        query.task.params[1].kind = TaskParamKind::ArrayIn {
            dims: vec!["M".into()],
            nonzero: false,
        };
        let report = Stagg::new(paper_provider(), StaggConfig::top_down()).lift(&query);
        assert!(matches!(report.failure, Some(FailureReason::BadQuery(_))));
        assert!(report.phase_times.get(Phase::Oracle) > 0 || report.elapsed.is_zero());
    }

    #[test]
    fn full_grammar_also_solves_simple_query() {
        let query = figure2_query();
        let cfg = StaggConfig::top_down().with_grammar(GrammarMode::FullGrammar);
        let stagg = Stagg::new(paper_provider(), cfg);
        let report = stagg.lift(&query);
        assert!(report.solved(), "failure: {:?}", report.failure);
    }
}
