//! Per-benchmark diagnostic probe: dump oracle candidates, templates and
//! the predicted dimension list for one benchmark.

use gtl::{build_search_grammar, template_from_candidate, StaggConfig};
use gtl_bench::query_for;
use gtl_oracle::{Oracle, OracleQuery, SyntheticOracle};
use gtl_template::predict_dimension_list;

fn main() {
    let name = std::env::args().nth(1).expect("usage: probe <benchmark>");
    let b = gtl_benchsuite::by_name(&name).expect("unknown benchmark");
    let query = query_for(&b);
    let mut oracle = SyntheticOracle::default();
    let raw = oracle.candidates(&OracleQuery {
        label: &query.label,
        c_source: &query.source,
        ground_truth: query.ground_truth.as_ref(),
    });
    println!("ground truth: {}", b.ground_truth);
    let mut templates = Vec::new();
    for line in &raw {
        match template_from_candidate(line) {
            Some(t) => {
                println!("  {line:<45} -> {t} dims={:?}", t.dimension_list());
                templates.push(t);
            }
            None => println!("  {line:<45} -> (discarded)"),
        }
    }
    println!("voted dims: {:?}", predict_dimension_list(&templates));
    println!(
        "n_indices: {}",
        gtl_template::index_variable_count(&templates)
    );
    let searched = build_search_grammar(&query.task, &templates, &StaggConfig::top_down());
    println!("search dims (LHS from analysis): {:?}", searched.dim_list);
}
