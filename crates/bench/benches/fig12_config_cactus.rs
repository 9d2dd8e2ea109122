//! Regenerates Figure 12: the cactus plot of the eight grammar
//! configurations on all 77 benchmarks.

use gtl_bench::tables::cactus_lines;
use gtl_bench::{run_batch, Method, Route};
use gtl_benchsuite::all_benchmarks;

fn main() {
    println!("\nFigure 12: cactus plot of grammar configurations (77 benchmarks)");
    println!("(series: benchmarks solved vs cumulative seconds)\n");
    for m in Method::grammar_config_lineup() {
        let r = run_batch(&m, &all_benchmarks(), 1, &Route::Pipeline, None).suite;
        println!("# {} (solved {})", r.method, r.solved());
        print!("{}", cactus_lines(&r));
        println!();
    }
}
