//! Regenerates Table 3: performance of the grammar configurations plus
//! the LLM and C2TACO baselines on the 77 benchmarks, with attempts.

use gtl_bench::tables::{header, row, summary_cells};
use gtl_bench::{run_batch, Method, Route};
use gtl_benchsuite::all_benchmarks;

fn main() {
    println!("\nTable 3: grammar configurations and baselines (77 benchmarks)\n");
    let widths = [26, 4, 8, 9, 9];
    println!("{}", header(&["method", "#", "%", "time(ms)", "attempts"], &widths));
    let mut methods = Method::grammar_config_lineup();
    methods.push(Method::llm_only());
    methods.push(Method::c2taco());
    methods.push(Method::c2taco_no_heuristics());
    for m in methods {
        let r = run_batch(&m, &all_benchmarks(), 1, &Route::Pipeline, None).suite;
        println!("{}", row(&summary_cells(&r, true), &widths));
    }
}
