//! Trace the first N templates a STAGG search attempts on a benchmark.
//!
//! ```text
//! trace_search <benchmark> [limit] [td|bu]
//! ```

use gtl::SearchMode;
use gtl_bench::trace_search;

fn main() {
    let name = std::env::args()
        .nth(1)
        .expect("usage: trace_search <benchmark> [limit] [td|bu]");
    let limit: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let mode = match std::env::args().nth(3).as_deref() {
        Some("bu") => SearchMode::BottomUp,
        _ => SearchMode::TopDown,
    };
    let b = gtl_benchsuite::by_name(&name).expect("unknown benchmark");
    let trace = trace_search(&b, limit, mode);
    println!(
        "dim_list={:?} live_ops={:?}",
        trace.dim_list,
        trace.grammar.live_ops()
    );
    println!("{}", trace.grammar.pcfg);
    for (n, t) in trace.attempts.iter().enumerate() {
        println!("attempt {}: {t}", n + 1);
    }
    println!("attempts={} nodes={}", trace.attempts.len(), trace.pops);
}
