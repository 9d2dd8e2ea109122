//! Regenerates Figure 11: success rates of the eight grammar
//! configurations of STAGG on all 77 benchmarks.

use gtl_bench::tables::success_bar;
use gtl_bench::{run_batch, Method, Route};
use gtl_benchsuite::all_benchmarks;

fn main() {
    println!("\nFigure 11: grammar configurations on all 77 benchmarks\n");
    for m in Method::grammar_config_lineup() {
        let r = run_batch(&m, &all_benchmarks(), 1, &Route::Pipeline, None).suite;
        println!("{}", success_bar(&r, 40));
    }
}
