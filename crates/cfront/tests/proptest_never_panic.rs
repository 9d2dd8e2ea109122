//! Never-panic properties of the C front end: every source — arbitrary
//! bytes, or kernels dense in parentheses, unary operators and braces,
//! some nested far past [`MAX_DEPTH`] — gets `Ok` or a typed error, and
//! every program the parser accepts compiles and runs under a step
//! budget without panicking.

use gtl_cfront::parser::MAX_DEPTH;
use gtl_cfront::{
    compile_fn, parse_c, run_compiled_with_fuel, run_kernel_with_fuel, ArgValue, CParseError,
    CProgram,
};
use gtl_tensor::Rat;
use proptest::prelude::*;

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..300)
}

/// A dot-product kernel whose loop body is built from hostile pieces
/// behind a run of openers long enough to cross the nesting bound.
fn nest_heavy() -> impl Strategy<Value = String> {
    let pieces = vec![
        "(", ")", "-", "*", "&", "!", "+", "/", "%", "a[i]", "b[i]", "i", "1", "(int)", "{", "}",
        ";", "=", "+=", "?", ":", "[", "]", " ",
    ];
    (
        prop::sample::select(vec!["(", "-", "*", "!", "(int)", "(-", "{", "a[i] + "]),
        0usize..(4 * MAX_DEPTH),
        prop::collection::vec(prop::sample::select(pieces), 0..60),
        0usize..(4 * MAX_DEPTH),
    )
        .prop_map(|(opener, depth, pieces, closers)| {
            format!(
                "void dot(int n, int *a, int *b, int *out) {{ for (int i = 0; i < n; i++) *out += {}{}{}; }}",
                opener.repeat(depth),
                pieces.concat(),
                ")".repeat(closers)
            )
        })
}

fn hostile_source() -> BoxedStrategy<String> {
    prop_oneof![
        arbitrary_bytes().prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        nest_heavy()
    ]
}

/// Compiles and runs every function of an accepted program on small
/// arguments under a step budget, through both execution engines.
fn compile_and_run(program: &CProgram) {
    for func in &program.functions {
        let args = || -> Vec<ArgValue> {
            func.params
                .iter()
                .map(|p| {
                    if p.ty.is_pointer() {
                        ArgValue::Array(vec![Rat::from(1); 4])
                    } else {
                        ArgValue::Scalar(Rat::from(2))
                    }
                })
                .collect()
        };
        let _ = run_kernel_with_fuel(func, args(), 10_000);
        let _ = run_compiled_with_fuel(&compile_fn(func), args(), 10_000);
        let _ = func.int_constants();
    }
}

proptest! {
    #[test]
    fn parse_c_never_panics(source in hostile_source()) {
        if let Ok(program) = parse_c(&source) {
            compile_and_run(&program);
        }
    }
}

/// The wire repro: one loop body nested 100,000 deep used to overflow
/// the stack. Unary chains, casts, blocks, subscripts and operator
/// chains that long are bounded too.
#[test]
fn hundred_thousand_deep_kernels_are_typed_errors() {
    let n = 100_000;
    let kernel = |body: String| {
        format!(
            "void dot(int n, int *a, int *b, int *out) {{ for (int i = 0; i < n; i++) {body} }}"
        )
    };
    let bodies = [
        format!("*out += {}a[i]{} * b[i];", "(".repeat(n), ")".repeat(n)),
        format!("*out += {}a[i];", "- ".repeat(n)),
        format!("*out += {}a[i];", "(int)".repeat(n)),
        format!("*out += a[i]{};", " + a[i]".repeat(n)),
        format!("{}*out += a[i];{}", "{".repeat(n), "}".repeat(n)),
        format!("*out += a[{}i{}];", "a[".repeat(n), "]".repeat(n)),
    ];
    for body in bodies {
        let err = parse_c(&kernel(body)).unwrap_err();
        assert!(matches!(err, CParseError::TooDeep { .. }), "{err}");
        assert!(err.to_string().contains("deeper than"));
    }
}

#[test]
fn ordinary_nesting_is_accepted() {
    let src = format!(
        "void dot(int n, int *a, int *b, int *out) {{ for (int i = 0; i < n; i++) *out += {}a[i]{} * b[i]; }}",
        "(".repeat(32),
        ")".repeat(32)
    );
    assert!(parse_c(&src).is_ok());
}
