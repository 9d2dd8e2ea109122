//! Regenerates Table 1: benchmark-solving performance across methods on
//! the 67 real-world and 77 real-world+artificial sets, plus the
//! "solved by C2TACO" and "solved by Tenspiler" restrictions.

use gtl_bench::{run_batch, Method, Route};
use gtl_bench::tables::{header, row, summary_cells};

fn main() {
    let real = gtl_benchsuite::real_world_benchmarks();
    let real_names: Vec<String> = real.iter().map(|b| b.name.to_string()).collect();
    let methods = Method::table1_lineup();

    println!("\nTable 1: comparison of benchmark-solving performance\n");
    let widths = [22, 4, 8, 9, 9];
    // One sweep over all 77 per method; the real-world view is a filter.
    let all = gtl_benchsuite::all_benchmarks();
    let full_results: Vec<_> = methods
        .iter()
        .map(|m| run_batch(m, &all, 1, &Route::Pipeline, None).suite)
        .collect();
    let real_results: Vec<_> = full_results
        .iter()
        .map(|r| r.filtered(|name| real_names.iter().any(|n| n == name)))
        .collect();
    println!("-- Real-World ({}) --", real.len());
    println!("{}", header(&["method", "#", "%", "time(ms)", "attempts"], &widths));
    for r in &real_results {
        println!("{}", row(&summary_cells(r, true), &widths));
    }
    println!("\n-- Real-World + Artificial (77) --");
    println!("{}", header(&["method", "#", "%", "time(ms)", "attempts"], &widths));
    for r in &full_results {
        println!("{}", row(&summary_cells(r, true), &widths));
    }
    let c2 = full_results
        .iter()
        .find(|r| r.method == "C2TACO")
        .expect("C2TACO in lineup");
    println!("\n-- Restricted to benchmarks solved by C2TACO ({}) --", c2.solved());
    println!("{}", header(&["method", "#", "%", "time(ms)", "attempts"], &widths));
    for r in &full_results {
        println!("{}", row(&summary_cells(&r.restricted_to(c2), true), &widths));
    }
    let ts = real_results
        .iter()
        .find(|r| r.method == "Tenspiler")
        .expect("Tenspiler in lineup");
    println!("\n-- Restricted to benchmarks solved by Tenspiler ({}) --", ts.solved());
    println!("{}", header(&["method", "#", "%", "time(ms)", "attempts"], &widths));
    for r in &real_results {
        println!("{}", row(&summary_cells(&r.restricted_to(ts), true), &widths));
    }
}
