//! The traced lifter: one lift through the pipeline's public functions,
//! called in `Stagg::lift_with`'s order (single oracle round, top-down
//! refined grammar, `jobs = 1`, pruning on), with every call timed from
//! here. Nothing inside the program is instrumented.
//!
//! It must reproduce `Stagg::lift` exactly; `lifts::run` checks
//! its outcome against `Stagg::lift`'s report on every traced lift, so the
//! per-layer numbers always describe the program being measured.

use std::collections::HashSet;
use std::time::Instant;

use gtl::{LiftQuery, SearchMode, StaggConfig};
use gtl_analysis::analyze_kernel;
use gtl_oracle::{OracleProvider, OracleQuery};
use gtl_search::{top_down_search, CheckOutcome, PenaltyContext, TemplateChecker};
use gtl_taco::{
    canonical_fingerprint, parse_program, preprocess_candidate, EvalCache, TacoProgram,
};
use gtl_template::{
    any_const, any_repeated_index, generate_td_grammar, index_variable_count, learn_weights,
    overlay_lhs_dimension, predict_dimension_list, templatize, TdSpec, Template,
};
use gtl_validate::{
    generate_examples, validate_template_cached, IoExample, LiftTask, ValidationStats,
};
use gtl_verify::{verify_candidate_cached, VerifyConfig};

use crate::lifts::Outcome;
use crate::{ratio, us_since};

/// Per-layer totals over every traced lift of a run.
#[derive(Default)]
pub struct Layers {
    lifts: u64,
    wall_us: f64,
    oracle_us: f64,
    oracle_candidates: u64,
    intake_us: f64,
    intake_parsed: u64,
    grammar_us: f64,
    grammar_rules: u64,
    examples_us: f64,
    search_call_us: f64,
    search_elapsed_us: f64,
    checker_us: f64,
    attempts: u64,
    pops: u64,
    check_us: f64,
    check_calls: u64,
    pruned: u64,
    validate_us: f64,
    substitutions: u64,
    io_passes: u64,
    verify_us: f64,
    verify_calls: u64,
    verify_equivalent: u64,
    eval_hits: u64,
    eval_misses: u64,
    unchecked_kernels: u64,
}

impl Layers {
    /// The per-layer metrics: times and counts are means per lift,
    /// fractions are ratios of run totals.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let n = self.lifts as f64;
        let per = |v: f64| ratio(v, n);
        let search_self_us = self.search_call_us - self.checker_us;
        let validate_us = self.examples_us + self.validate_us;
        let accounted = self.oracle_us
            + self.intake_us
            + self.grammar_us
            + search_self_us
            + self.check_us
            + validate_us
            + self.verify_us;
        vec![
            ("oracle.us", per(self.oracle_us), "us"),
            (
                "oracle.candidates",
                per(self.oracle_candidates as f64),
                "count",
            ),
            ("intake.us", per(self.intake_us), "us"),
            (
                "intake.parsed_frac",
                ratio(self.intake_parsed as f64, self.oracle_candidates as f64),
                "frac",
            ),
            ("grammar.us", per(self.grammar_us), "us"),
            ("grammar.rules", per(self.grammar_rules as f64), "count"),
            ("search.self_us", per(search_self_us), "us"),
            (
                "search.drop_us",
                per(self.search_call_us - self.search_elapsed_us),
                "us",
            ),
            ("search.attempts", per(self.attempts as f64), "count"),
            ("search.pops", per(self.pops as f64), "count"),
            (
                "search.us_per_pop",
                ratio(search_self_us, self.pops as f64),
                "us",
            ),
            ("check.us", per(self.check_us), "us"),
            ("check.calls", per(self.check_calls as f64), "count"),
            (
                "check.pruned_frac",
                ratio(self.pruned as f64, self.check_calls as f64),
                "frac",
            ),
            ("validate.us", per(validate_us), "us"),
            ("validate.examples_us", per(self.examples_us), "us"),
            (
                "validate.substitutions",
                per(self.substitutions as f64),
                "count",
            ),
            (
                "validate.pass_frac",
                ratio(self.io_passes as f64, self.substitutions as f64),
                "frac",
            ),
            ("verify.us", per(self.verify_us), "us"),
            ("verify.calls", per(self.verify_calls as f64), "count"),
            (
                "verify.equiv_frac",
                ratio(self.verify_equivalent as f64, self.verify_calls as f64),
                "frac",
            ),
            (
                "eval.lookups",
                per((self.eval_hits + self.eval_misses) as f64),
                "count",
            ),
            (
                "eval.hit_frac",
                ratio(
                    self.eval_hits as f64,
                    (self.eval_hits + self.eval_misses) as f64,
                ),
                "frac",
            ),
            (
                "eval.unchecked_kernels",
                per(self.unchecked_kernels as f64),
                "count",
            ),
            ("lift.other_us", per(self.wall_us - accounted), "us"),
        ]
    }
}

/// Lifts `query` stage by stage, timing each call into `layers`.
///
/// # Panics
///
/// Panics on a configuration the replica does not cover: anything but
/// the default single-round, top-down, refined, pruned, `jobs = 1` lift.
pub fn traced_lift(
    provider: &dyn OracleProvider,
    config: &StaggConfig,
    query: &LiftQuery,
    layers: &mut Layers,
) -> Outcome {
    assert!(
        config.mode == SearchMode::TopDown
            && config.grammar == gtl::GrammarMode::Refined
            && config.jobs == 1
            && config.oracle_rounds == 1
            && config.pruning,
        "the traced lifter replicates only the default configuration"
    );
    let lift_started = Instant::now();
    let outcome = lift_stages(provider, config, query, layers);
    layers.lifts += 1;
    layers.wall_us += us_since(lift_started);
    outcome
}

fn lift_stages(
    provider: &dyn OracleProvider,
    config: &StaggConfig,
    query: &LiftQuery,
    layers: &mut Layers,
) -> Outcome {
    // ① Oracle.
    let t = Instant::now();
    let raw = provider.oracle().candidates_round(
        &OracleQuery {
            label: &query.label,
            c_source: &query.source,
            ground_truth: query.ground_truth.as_ref(),
        },
        0,
        None,
    );
    layers.oracle_us += us_since(t);
    layers.oracle_candidates += raw.len() as u64;

    // Intake: preprocess, parse, templatise; invalid candidates drop out.
    let t = Instant::now();
    let pool: Vec<Template> = raw
        .iter()
        .filter_map(|line| preprocess_candidate(line))
        .filter_map(|s| parse_program(&s).ok())
        .filter_map(|p| templatize(&p).ok())
        .collect();
    layers.intake_us += us_since(t);
    layers.intake_parsed += pool.len() as u64;
    if pool.is_empty() {
        return Outcome::default();
    }

    // I/O examples, generated once per lift (validation time).
    let t = Instant::now();
    let examples = generate_examples(&query.task, &config.examples);
    layers.examples_us += us_since(t);
    let Ok(examples) = examples else {
        return Outcome::default();
    };

    // ② Dimension prediction, grammar construction, weight learning.
    let t = Instant::now();
    let facts = analyze_kernel(&query.task.func);
    let voted = predict_dimension_list(&pool).unwrap_or_default();
    let dim_list = overlay_lhs_dimension(voted, facts.lhs_dim);
    let spec = TdSpec {
        dim_list: dim_list.clone(),
        n_indices: index_variable_count(&pool).max(1),
        allow_repeated_index: any_repeated_index(&pool),
        include_const: any_const(&pool),
    };
    let mut grammar = generate_td_grammar(&spec);
    learn_weights(&mut grammar, &pool);
    layers.grammar_us += us_since(t);
    layers.grammar_rules += grammar.pcfg.rules().len() as u64;

    let ctx = PenaltyContext {
        dim_list,
        grammar_has_const: grammar.nts.constant.is_some() || grammar.nts.dim_nts.contains_key(&0),
        live_ops: grammar.live_ops(),
        settings: config.penalties,
    };
    let mut checker = Checker {
        task: &query.task,
        examples: &examples,
        verify: config.verify,
        outputs_uniform: outputs_uniform(&examples),
        seen: HashSet::new(),
        cache: EvalCache::default(),
        stats: ValidationStats::default(),
        layers,
    };

    // ③ Search, with ④ validation and verification inside the checker.
    let t = Instant::now();
    let outcome = top_down_search(&grammar, &ctx, config.budget, &mut checker);
    let call_us = us_since(t);
    let Checker {
        stats,
        cache,
        layers,
        ..
    } = checker;
    layers.search_call_us += call_us;
    layers.search_elapsed_us += outcome.elapsed.as_secs_f64() * 1e6;
    layers.attempts += outcome.attempts;
    layers.pops += outcome.nodes_expanded;
    layers.substitutions += stats.substitutions_tried;
    layers.io_passes += stats.io_passes;
    layers.unchecked_kernels += stats.unchecked_kernels;
    let eval = cache.stats();
    layers.eval_hits += eval.hits;
    layers.eval_misses += eval.misses;
    Outcome {
        solution: outcome.solution.as_ref().map(ToString::to_string),
        attempts: outcome.attempts,
        pops: outcome.nodes_expanded,
        substitutions: stats.substitutions_tried,
        pruned_infeasible: stats.pruned_infeasible,
        pruned_equivalent: stats.pruned_equivalent + outcome.pruned_equivalent,
    }
}

/// Whether every example output holds one value: only then can a
/// constant-only right-hand side pass validation.
fn outputs_uniform(examples: &[IoExample]) -> bool {
    let mut values = examples.iter().flat_map(|ex| ex.output.data().iter());
    match values.next() {
        None => true,
        Some(first) => values.all(|v| v == first),
    }
}

/// The pipeline's template checker, replicated: feasibility and
/// canonical-duplicate pruning, then validation with bounded verification
/// of every substitution that passes the examples.
struct Checker<'a> {
    task: &'a LiftTask,
    examples: &'a [IoExample],
    verify: VerifyConfig,
    outputs_uniform: bool,
    seen: HashSet<u64>,
    cache: EvalCache,
    stats: ValidationStats,
    layers: &'a mut Layers,
}

impl TemplateChecker for Checker<'_> {
    fn check(&mut self, template: &TacoProgram) -> CheckOutcome {
        let started = Instant::now();
        self.layers.check_calls += 1;
        let outcome = self.check_timed(template, started);
        self.layers.checker_us += us_since(started);
        outcome
    }
}

impl Checker<'_> {
    fn check_timed(&mut self, template: &TacoProgram, started: Instant) -> CheckOutcome {
        let rhs_accesses = template.rhs.accesses();
        let unconstrained = template
            .lhs
            .indices
            .iter()
            .any(|ix| !rhs_accesses.iter().any(|acc| acc.indices.contains(ix)));
        if unconstrained || (rhs_accesses.is_empty() && !self.outputs_uniform) {
            self.stats.pruned_infeasible += 1;
            self.layers.pruned += 1;
            self.layers.check_us += us_since(started);
            return CheckOutcome::Failed;
        }
        if !self.seen.insert(canonical_fingerprint(template)) {
            self.stats.pruned_equivalent += 1;
            self.layers.pruned += 1;
            self.layers.check_us += us_since(started);
            return CheckOutcome::Failed;
        }
        self.layers.check_us += us_since(started);

        let validate_started = Instant::now();
        let (task, verify_cfg, cache) = (self.task, &self.verify, &self.cache);
        let (mut verify_us, mut calls, mut equivalent) = (0.0, 0u64, 0u64);
        let found = validate_template_cached(
            template,
            task,
            self.examples,
            |concrete, _sub| {
                let t = Instant::now();
                let eq = verify_candidate_cached(task, concrete, verify_cfg, cache).is_equivalent();
                verify_us += us_since(t);
                calls += 1;
                equivalent += u64::from(eq);
                eq
            },
            &mut self.stats,
            cache,
        );
        self.layers.validate_us += us_since(validate_started) - verify_us;
        self.layers.verify_us += verify_us;
        self.layers.verify_calls += calls;
        self.layers.verify_equivalent += equivalent;
        match found {
            Some(concrete) => CheckOutcome::Verified(concrete),
            None => CheckOutcome::Failed,
        }
    }
}
