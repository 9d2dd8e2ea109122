//! Regenerates Figure 10: success rates of the six approaches on the 67
//! real-world benchmarks, as a horizontal bar chart.

use gtl_bench::tables::success_bar;
use gtl_bench::{run_batch, Method, Route};

fn main() {
    let real = gtl_benchsuite::real_world_benchmarks();
    println!("\nFigure 10: success rates on the 67 real-world benchmarks\n");
    // Paper order: Tenspiler, LLM, C2TACO.NoHeuristics, C2TACO, BU, TD.
    let methods = [
        Method::tenspiler(),
        Method::llm_only(),
        Method::c2taco_no_heuristics(),
        Method::c2taco(),
        Method::stagg_bu(),
        Method::stagg_td(),
    ];
    for m in &methods {
        let r = run_batch(m, &real, 1, &Route::Pipeline, None).suite;
        println!("{}", success_bar(&r, 40));
    }
}
