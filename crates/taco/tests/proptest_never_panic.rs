//! Never-panic properties of the TACO front end: every input —
//! arbitrary bytes, or text dense in parentheses and minus signs, some
//! nested far past [`MAX_DEPTH`] — gets `Ok` or a typed error, and every
//! program the parser accepts survives the recursive walks downstream.

use gtl_taco::parser::MAX_DEPTH;
use gtl_taco::{
    canonical_fingerprint, canonicalize, parse_program, preprocess_candidate, ParseError,
};
use proptest::prelude::*;

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..300)
}

/// Candidate-shaped text: an optional LHS, a run of openers long
/// enough to cross the nesting bound, then expression fragments.
fn paren_heavy() -> impl Strategy<Value = String> {
    let pieces = vec![
        "(", ")", "-", "+", "*", "/", "a", "b(i)", "c(i,j)", "Const", "2", ",", " ", "=", ":=",
        "−", "1.", "\"",
    ];
    (
        prop::sample::select(vec!["", "a = ", "a(i) = ", "1. a(i) := "]),
        prop::sample::select(vec!["(", "-", "(-", "-(", "b(i) + "]),
        0usize..(4 * MAX_DEPTH),
        prop::collection::vec(prop::sample::select(pieces), 0..60),
        0usize..(4 * MAX_DEPTH),
    )
        .prop_map(|(lhs, opener, depth, pieces, closers)| {
            format!(
                "{lhs}{}{}{}",
                opener.repeat(depth),
                pieces.concat(),
                ")".repeat(closers)
            )
        })
}

fn hostile_text() -> BoxedStrategy<String> {
    prop_oneof![
        arbitrary_bytes().prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        paren_heavy()
    ]
}

/// Parses `text`; an accepted program must print, canonicalize and
/// fingerprint without panicking.
fn parse_and_walk(text: &str) {
    if let Ok(program) = parse_program(text) {
        let _ = program.to_string();
        let _ = canonicalize(&program);
        let _ = canonical_fingerprint(&program);
    }
}

proptest! {
    #[test]
    fn parse_program_never_panics(text in hostile_text()) {
        parse_and_walk(&text);
    }

    #[test]
    fn preprocess_candidate_never_panics(text in hostile_text()) {
        if let Some(line) = preprocess_candidate(&text) {
            parse_and_walk(&line);
        }
    }
}

#[test]
fn nesting_bound_is_exact() {
    let nested = |n: usize| format!("a = {}b(i){} * c(i)", "(".repeat(n), ")".repeat(n));
    assert!(parse_program(&nested(MAX_DEPTH)).is_ok());
    assert!(matches!(
        parse_program(&nested(MAX_DEPTH + 1)),
        Err(ParseError::TooDeep { .. })
    ));
    let negated = |n: usize| format!("a = {}b(i)", "-".repeat(n));
    assert!(parse_program(&negated(MAX_DEPTH)).is_ok());
    assert!(matches!(
        parse_program(&negated(MAX_DEPTH + 1)),
        Err(ParseError::TooDeep { .. })
    ));
}

/// The wire repro: one ground truth nested 100,000 deep used to overflow
/// the stack; operator chains that long are bounded too.
#[test]
fn hundred_thousand_deep_inputs_are_typed_errors() {
    let n = 100_000;
    let inputs = [
        format!("out = {}a(i){} * b(i)", "(".repeat(n), ")".repeat(n)),
        format!("out = {}a(i)", "-".repeat(n)),
        format!("out = a(i){}", " + a(i)".repeat(n)),
    ];
    for input in &inputs {
        let err = parse_program(input).unwrap_err();
        assert!(matches!(err, ParseError::TooDeep { .. }), "{err}");
        assert!(err.to_string().contains("deeper than"));
    }
}
