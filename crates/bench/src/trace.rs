//! The attempt sequence of one search: which complete templates a
//! STAGG search sends to its checker, in order, on one benchmark.
//!
//! [`trace_search`] rebuilds the query's grammar exactly as the
//! pipeline does (synthetic oracle, dimension prediction, weight
//! learning) and runs the search with a checker that rejects every
//! template, so the result is the search's enumeration order alone.
//! The `trace_search` binary prints it; `tests/search_golden.rs` pins
//! it.

use gtl::SearchMode;
use gtl_analysis::analyze_kernel;
use gtl_benchsuite::Benchmark;
use gtl_oracle::{Oracle, OracleQuery, SyntheticOracle};
use gtl_search::{
    bottom_up_search, top_down_search, CheckOutcome, PenaltyContext, PenaltySettings, SearchBudget,
};
use gtl_taco::{parse_program, preprocess_candidate, TacoProgram};
use gtl_template::{
    any_const, any_repeated_index, generate_bu_grammar, generate_td_grammar, index_variable_count,
    learn_weights, overlay_lhs_dimension, predict_dimension_list, templatize, TdSpec, Template,
    TemplateGrammar,
};

use crate::runner::query_for;

/// The first attempts of one search, with the grammar it ran over.
#[derive(Debug, Clone)]
pub struct SearchTrace {
    /// The predicted dimension list the grammar was generated from.
    pub dim_list: Vec<usize>,
    /// The learned grammar the search enumerated.
    pub grammar: TemplateGrammar,
    /// The attempted templates, in order (at most the requested limit).
    pub attempts: Vec<String>,
    /// Queue pops when the search stopped.
    pub pops: u64,
}

/// Runs `mode`'s search on `benchmark` until it has attempted `limit`
/// templates (or exhausted its space), rejecting every template.
pub fn trace_search(benchmark: &Benchmark, limit: u64, mode: SearchMode) -> SearchTrace {
    let query = query_for(benchmark);
    let raw = SyntheticOracle::default().candidates(&OracleQuery {
        label: &query.label,
        c_source: &query.source,
        ground_truth: query.ground_truth.as_ref(),
    });
    let templates: Vec<Template> = raw
        .iter()
        .filter_map(|l| preprocess_candidate(l))
        .filter_map(|s| parse_program(&s).ok())
        .filter_map(|p| templatize(&p).ok())
        .collect();
    let facts = analyze_kernel(&query.task.func);
    let dim_list = overlay_lhs_dimension(
        predict_dimension_list(&templates).unwrap_or_default(),
        facts.lhs_dim,
    );
    let spec = TdSpec {
        dim_list: dim_list.clone(),
        n_indices: index_variable_count(&templates).max(1),
        allow_repeated_index: any_repeated_index(&templates),
        include_const: any_const(&templates),
    };
    let mut grammar = match mode {
        SearchMode::TopDown => generate_td_grammar(&spec),
        SearchMode::BottomUp => generate_bu_grammar(&spec),
    };
    learn_weights(&mut grammar, &templates);
    let ctx = PenaltyContext {
        dim_list: dim_list.clone(),
        grammar_has_const: grammar.nts.constant.is_some(),
        live_ops: grammar.live_ops(),
        settings: PenaltySettings::all(),
    };
    let budget = SearchBudget {
        max_attempts: limit,
        ..SearchBudget::default()
    };
    let mut attempts = Vec::new();
    let mut spy = |t: &TacoProgram| {
        attempts.push(t.to_string());
        CheckOutcome::Failed
    };
    let out = match mode {
        SearchMode::TopDown => top_down_search(&grammar, &ctx, budget, &mut spy),
        SearchMode::BottomUp => bottom_up_search(&grammar, &ctx, budget, &mut spy),
    };
    SearchTrace {
        dim_list,
        grammar,
        attempts,
        pops: out.nodes_expanded,
    }
}
