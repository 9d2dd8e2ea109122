//! Regenerates Table 2: the impact of dropping penalty rules on the 77
//! benchmarks (Drop(A), Drop(a1..a5), Drop(B), Drop(b1), Drop(b2)).

use gtl_bench::tables::{header, row, summary_cells};
use gtl_bench::{run_batch, Method, Route};
use gtl_benchsuite::all_benchmarks;

fn main() {
    println!("\nTable 2: impact of penalty rules (77 benchmarks)\n");
    let widths = [22, 4, 8, 9];
    println!("{}", header(&["method", "#", "%", "time(ms)"], &widths));
    for m in Method::penalty_lineup() {
        let r = run_batch(&m, &all_benchmarks(), 1, &Route::Pipeline, None).suite;
        println!("{}", row(&summary_cells(&r, false), &widths));
    }
}
