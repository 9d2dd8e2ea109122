//! Allocation gate for validation: once a [`Validator`]'s scratch has
//! grown, rejecting a template allocates (next to) nothing.
//!
//! Validation rejects almost every template a search completes, and a
//! search past its first thousand candidates runs a second thread, so
//! every allocation here would take the allocator's lock. This test
//! validates a fixed set of templates none of whose substitutions
//! passes, one after another through one validator on one thread (as
//! the search's checker does), and bounds the allocations they make.
//! The count is deterministic: the same templates allocate the same
//! number of times on every run.

use counting_alloc::{allocations, CountingAlloc};
use gtl_cfront::parse_c;
use gtl_taco::{parse_program, NameTable, TacoProgram};
use gtl_validate::{
    generate_examples, ExampleConfig, LiftTask, TaskParam, TaskParamKind, ValidationStats,
    Validator,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `out(i) = 2 * m(i,j) * x(j) + s * y(j)` over three ranks of
/// parameters and a constant pool.
fn gemv_task() -> LiftTask {
    let prog = parse_c(
        "void gemv(int n, int *m, int *x, int s, int *y, int *out) {
            for (int i = 0; i < n; i++) {
                out[i] = 0;
                for (int j = 0; j < n; j++) out[i] += 2 * m[i * n + j] * x[j] + s * y[j];
            }
        }",
    )
    .unwrap();
    let array = |dims: &[&str]| TaskParamKind::ArrayIn {
        dims: dims.iter().map(|d| d.to_string()).collect(),
        nonzero: false,
    };
    let param = |name: &str, kind| TaskParam {
        name: name.into(),
        kind,
    };
    LiftTask {
        func: prog.kernel().clone(),
        params: vec![
            param("n", TaskParamKind::Size("n".into())),
            param("m", array(&["n", "n"])),
            param("x", array(&["n"])),
            param("s", TaskParamKind::ScalarIn { nonzero: false }),
            param("y", array(&["n"])),
            param(
                "out",
                TaskParamKind::ArrayOut {
                    dims: vec!["n".into()],
                },
            ),
        ],
        output: 5,
        constants: vec![0, 1, 2, 3],
        ref_program: Default::default(),
    }
}

/// The warm-up template: the largest of the set, so the scratch grows to
/// its size once.
const WARM_UP: &str = "a(i) = Const * b(i,j) * c(j) - d * e(j) + f(i,j) / g(j)";

/// Templates every substitution of which fails the examples, covering
/// the product fast path, the register machine, the exact engine
/// (division), constant slots, lanes that fail analysis, and several
/// shape groups per batch.
const REJECTED: &[&str] = &[
    "a(i) = b(i,j) * c(j)",
    "a(i) = b(j,i) * c(j)",
    "a(i) = b(i,j) * c(j) * Const",
    "a(i) = b(i,j) + c(j)",
    "a(i) = b(i,j) * c(j) - d * e(j)",
    "a(i) = Const * b(i,j) * c(j) + d * e(i)",
    "a(i) = b(i,j) / c(j)",
    "a(i) = b(i) / c(j) + d",
    "a(i) = b(i,j) * c(i,j)",
    "a(i) = b(i) * c + Const",
    "a(i) = -b(i,j) * c(j)",
    "a(i) = b(i,j) * b(i,j) * c(j)",
    "a(i) = b(i,j) * c(j) + b(i,j) * d(j)",
    "a(i) = b(i) * c(i) * d(i)",
    "a(i) = b(j) * c(j) * Const",
    "a(i) = b(i,j) * c(k)",
];

/// Allocations the set makes after the warm-up template, measured: the
/// buffers a template needs beyond what the warm-up grew (the product
/// plan, `i64` copies of the examples' tensors, a wider register file)
/// grow once, 14 times in all over the 16 templates.
const FIRST_PASS: u64 = 14;

/// Allocations per template once every buffer has grown.
const PER_TEMPLATE_WHEN_WARM: u64 = 0;

/// Validates every template, single-threaded, through one validator,
/// from tokens interned once for the whole set as a search interns its
/// grammar's names. Returns the allocations made by the rejected
/// templates after the warm-up template, on a first and a second pass.
fn allocations_over_the_set(task: &LiftTask, templates: &[TacoProgram]) -> (u64, u64) {
    let examples = generate_examples(task, &ExampleConfig::default()).unwrap();
    let validator = Validator::new(task, &examples);
    let names = NameTable::new(
        templates
            .iter()
            .flat_map(|t| std::iter::once(&t.lhs).chain(t.rhs.accesses())),
    );
    let mut buffers: Vec<_> = templates.iter().map(|_| (Vec::new(), Vec::new())).collect();
    let tokens: Vec<_> = templates
        .iter()
        .zip(&mut buffers)
        .map(|(t, (ids, rhs))| t.template_ref_in(&names, ids, rhs))
        .collect();
    let validate = |k: usize, stats: &mut ValidationStats| {
        let template = &templates[k];
        let verified = validator.validate_ref(tokens[k], || template, |_, _| true, stats);
        assert!(verified.is_none(), "{template} is rejected");
    };
    validate(0, &mut ValidationStats::default());
    let pass = || {
        let mut stats = ValidationStats::default();
        let before = allocations();
        for k in 1..templates.len() {
            validate(k, &mut stats);
        }
        let made = allocations() - before;
        assert_eq!(stats.io_passes, 0, "no substitution passes");
        assert!(
            stats.substitutions_tried > 200,
            "the set sweeps many lanes: {stats:?}"
        );
        made
    };
    (pass(), pass())
}

#[test]
fn rejecting_a_template_allocates_nothing_once_warm() {
    let task = gemv_task();
    let templates: Vec<TacoProgram> = std::iter::once(WARM_UP)
        .chain(REJECTED.iter().copied())
        .map(|src| parse_program(src).unwrap())
        .collect();
    let (first, warm) = allocations_over_the_set(&task, &templates);
    assert!(
        first <= FIRST_PASS,
        "{first} allocations over {} rejected templates after the warm-up",
        REJECTED.len()
    );
    assert!(
        warm <= PER_TEMPLATE_WHEN_WARM * REJECTED.len() as u64,
        "{warm} allocations over {} rejected templates once warm",
        REJECTED.len()
    );
    // The count is exact: a second validator over the same set makes
    // the same number.
    assert_eq!(allocations_over_the_set(&task, &templates), (first, warm));
}
