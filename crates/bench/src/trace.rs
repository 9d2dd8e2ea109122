//! The attempt sequence of one search: which complete templates a
//! STAGG search sends to its checker, in order, on one benchmark.
//!
//! [`trace_search`] builds the query's grammar with the pipeline's own
//! stage ② ([`gtl::build_search_grammar`] over the synthetic oracle's
//! candidates) and runs the search with a checker that rejects every
//! template, so the result is the search's enumeration order alone.
//! The `trace_search` binary prints it; `tests/search_golden.rs` pins
//! it.

use gtl::{build_search_grammar, template_from_candidate, SearchGrammar, SearchMode, StaggConfig};
use gtl_benchsuite::Benchmark;
use gtl_oracle::{Oracle, OracleQuery, SyntheticOracle};
use gtl_search::{bottom_up_search, top_down_search, CheckOutcome, SearchBudget};
use gtl_taco::TacoProgram;
use gtl_template::{Template, TemplateGrammar};

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
    let pool: Vec<Template> = raw.iter().filter_map(|l| template_from_candidate(l)).collect();
    let config = match mode {
        SearchMode::TopDown => StaggConfig::top_down(),
        SearchMode::BottomUp => StaggConfig::bottom_up(),
    };
    let SearchGrammar {
        dim_list,
        grammar,
        ctx,
    } = build_search_grammar(&query.task, &pool, &config);
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
