//! Golden attempt sequences: the first 256 templates each search sends
//! to its checker must match the committed record exactly.
//!
//! Any change to the search state, child scoring, penalties or the
//! frontier's tie-breaking that moves the enumeration order fails here,
//! with the first differing attempt in the message.
//!
//! The record `search_golden.txt` holds one `== <benchmark> <td|bu>`
//! header per case, followed by that case's attempt strings. Each
//! section is the `attempt N: …` lines of
//!
//! ```text
//! cargo run --release -p gtl_bench --bin trace_search -- <benchmark> 256 <td|bu>
//! ```
//!
//! with the `attempt N: ` prefixes removed. Regenerate it only for a
//! deliberate change to the search order, and say so in the change.

use gtl::SearchMode;
use gtl_bench::trace_search;

const LIMIT: u64 = 256;

const CASES: &[(&str, &str)] = &[
    ("sa_4d_add", "td"),
    ("blas_gemv", "td"),
    ("art_paren_mul", "td"),
    ("art_3mat_chain", "td"),
    ("blas_gemv", "bu"),
    ("art_3mat_chain", "bu"),
];

/// The committed attempt list of one case.
fn golden(benchmark: &str, mode: &str) -> Vec<String> {
    let record = include_str!("search_golden.txt");
    let header = format!("== {benchmark} {mode}");
    let mut lines = record.lines().skip_while(|l| *l != header);
    assert!(
        lines.next().is_some(),
        "no `{header}` section in the record"
    );
    lines
        .take_while(|l| !l.starts_with("== "))
        .map(str::to_string)
        .collect()
}

#[test]
fn first_attempts_match_the_record() {
    for &(name, mode) in CASES {
        let b = gtl_benchsuite::by_name(name).expect("benchmark exists");
        let search_mode = match mode {
            "td" => SearchMode::TopDown,
            _ => SearchMode::BottomUp,
        };
        let got = trace_search(&b, LIMIT, search_mode).attempts;
        let want = golden(name, mode);
        assert!(!want.is_empty(), "{name} {mode}: empty record section");
        if let Some(n) = got.iter().zip(&want).position(|(g, w)| g != w) {
            panic!(
                "{name} {mode}: attempt {} differs: got `{}`, recorded `{}`",
                n + 1,
                got[n],
                want[n]
            );
        }
        assert_eq!(
            got.len(),
            want.len(),
            "{name} {mode}: attempt count differs from the record"
        );
    }
}
