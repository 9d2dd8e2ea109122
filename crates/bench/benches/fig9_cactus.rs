//! Regenerates Figure 9: the cactus plot (benchmarks solved vs. time) on
//! the 67 real-world benchmarks, one series per synthesizer. Prints
//! `solved<TAB>cumulative_seconds` pairs for each method.

use gtl_bench::tables::cactus_lines;
use gtl_bench::{run_batch, Method, Route};

fn main() {
    let real = gtl_benchsuite::real_world_benchmarks();
    let methods = [
        Method::stagg_td(),
        Method::stagg_bu(),
        Method::c2taco(),
        Method::c2taco_no_heuristics(),
        Method::tenspiler(),
    ];
    println!("\nFigure 9: cactus plot on the 67 real-world benchmarks");
    println!("(series: benchmarks solved vs cumulative seconds)\n");
    for m in &methods {
        let r = run_batch(m, &real, 1, &Route::Pipeline, None).suite;
        println!("# {} (solved {})", r.method, r.solved());
        print!("{}", cactus_lines(&r));
        println!();
    }
}
