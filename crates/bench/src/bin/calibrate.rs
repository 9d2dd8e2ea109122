//! Calibration sweep: run the Table 1 methods over the full suite and
//! print per-benchmark outcomes, for tuning the reproduction against the
//! paper's headline numbers.

use gtl_bench::{run_batch, Method, Route};

fn main() {
    let methods: Vec<Method> = std::env::args()
        .nth(1)
        .map(|sel| {
            Method::table1_lineup()
                .into_iter()
                .filter(|m| m.name().contains(&sel))
                .collect()
        })
        .unwrap_or_else(Method::table1_lineup);
    for method in methods {
        let result = run_batch(
            &method,
            &gtl_benchsuite::all_benchmarks(),
            1,
            &Route::Pipeline,
            None,
        )
        .suite;
        println!("== {} : {}/77 solved ==", result.method, result.solved());
        for r in &result.results {
            if !r.solved {
                println!("   FAIL {:<22} attempts={:<6} {:.2}s", r.name, r.attempts, r.seconds);
            } else if r.seconds > 2.0 {
                println!("   SLOW {:<22} attempts={:<6} {:.2}s", r.name, r.attempts, r.seconds);
            }
        }
        let real: Vec<_> = result
            .results
            .iter()
            .filter(|r| {
                gtl_benchsuite::by_name(&r.name)
                    .map(|b| b.suite.is_real_world())
                    .unwrap_or(false)
            })
            .collect();
        let real_solved = real.iter().filter(|r| r.solved).count();
        println!(
            "   real-world: {real_solved}/67   avg-time(solved)={:.3}s avg-attempts(solved)={:.1}",
            result.mean_seconds_solved(),
            result.mean_attempts_solved()
        );
    }
}
