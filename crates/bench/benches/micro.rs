//! Criterion micro-benchmarks for the pipeline's hot components: TACO
//! parsing, einsum evaluation, C interpretation, grammar learning,
//! template search and the check front end.

use criterion::{criterion_group, criterion_main, Criterion};

use gtl::SearchMode;
use gtl_cfront::{run_kernel, ArgValue};
use gtl_oracle::{Oracle, OracleQuery, SyntheticOracle};
use gtl_search::{top_down_search, CheckOutcome, PenaltyContext, PenaltySettings, SearchBudget};
use gtl_taco::{
    evaluate, parse_program, CanonEncoder, KeySet, NameTable, TacoProgram, TemplateRef, TensorEnv,
};
use gtl_tensor::{Rat, Shape, Tensor, TensorGen};

fn bench_taco_parse(c: &mut Criterion) {
    c.bench_function("taco_parse_gemm", |b| {
        b.iter(|| parse_program(std::hint::black_box("C(i,j) = A(i,k) * B(k,j)")).unwrap())
    });
}

fn bench_taco_eval(c: &mut Criterion) {
    let p = parse_program("C(i,j) = A(i,k) * B(k,j)").unwrap();
    let mut gen = TensorGen::from_label("micro");
    let mut env = TensorEnv::new();
    env.insert("A".into(), gen.int_tensor(Shape::new(vec![8, 8]), -5, 5));
    env.insert("B".into(), gen.int_tensor(Shape::new(vec![8, 8]), -5, 5));
    c.bench_function("taco_eval_gemm_8x8", |b| {
        b.iter(|| evaluate(std::hint::black_box(&p), &env).unwrap())
    });
}

fn bench_c_interp(c: &mut Criterion) {
    let b = gtl_benchsuite::by_name("blas_gemv").unwrap();
    let prog = b.parse_source().unwrap();
    let n = 8usize;
    let args = vec![
        ArgValue::Scalar(Rat::from(n as i64)),
        ArgValue::Array(vec![Rat::ONE; n * n]),
        ArgValue::Array(vec![Rat::ONE; n]),
        ArgValue::Array(vec![Rat::ZERO; n]),
    ];
    c.bench_function("c_interp_gemv_8", |bch| {
        bch.iter(|| run_kernel(prog.kernel(), std::hint::black_box(args.clone())).unwrap())
    });
}

fn bench_grammar_learning(c: &mut Criterion) {
    let b = gtl_benchsuite::by_name("blas_gemv").unwrap();
    let gt = b.parse_ground_truth();
    let mut oracle = SyntheticOracle::default();
    let raw = oracle.candidates(&OracleQuery {
        label: b.name,
        c_source: b.source,
        ground_truth: Some(&gt),
    });
    let templates: Vec<_> = raw
        .iter()
        .filter_map(|l| gtl_taco::preprocess_candidate(l))
        .filter_map(|s| parse_program(&s).ok())
        .filter_map(|p| gtl_template::templatize(&p).ok())
        .collect();
    c.bench_function("grammar_generate_and_learn", |bch| {
        bch.iter(|| {
            let mut g = gtl_template::generate_td_grammar(&gtl_template::TdSpec {
                dim_list: vec![1, 2, 1],
                n_indices: 3,
                allow_repeated_index: false,
                include_const: false,
            });
            gtl_template::learn_weights(&mut g, std::hint::black_box(&templates))
        })
    });
}

fn bench_search(c: &mut Criterion) {
    let templates: Vec<_> = ["r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(i)"]
        .iter()
        .map(|s| gtl_template::templatize(&parse_program(s).unwrap()).unwrap())
        .collect();
    let mut grammar = gtl_template::generate_td_grammar(&gtl_template::TdSpec {
        dim_list: vec![1, 2, 1],
        n_indices: 2,
        allow_repeated_index: false,
        include_const: false,
    });
    gtl_template::learn_weights(&mut grammar, &templates);
    let ctx = PenaltyContext {
        dim_list: grammar.dim_list.clone(),
        grammar_has_const: false,
        live_ops: grammar.live_ops(),
        settings: PenaltySettings::all(),
    };
    let want = parse_program("a(i) = b(j,i) * c(j)").unwrap();
    c.bench_function("top_down_search_gemv", |bch| {
        bch.iter(|| {
            let mut checker = |t: &gtl_taco::TacoProgram| {
                if *t == want {
                    CheckOutcome::Verified(t.clone())
                } else {
                    CheckOutcome::Failed
                }
            };
            top_down_search(
                std::hint::black_box(&grammar),
                &ctx,
                SearchBudget::default(),
                &mut checker,
            )
        })
    });
}

/// The front end of every top-down check, over the 30,000 complete
/// templates a budget-exhausting search of `sa_4d_add` attempts: load
/// the tokens (names interned once, as the search interns its grammar's),
/// compute the canonical key of each feasible template, insert it into
/// a fresh seen-set. The three rows time the stages cumulatively, so
/// their differences split the front end by stage.
fn bench_check_front_end(c: &mut Criterion) {
    let bench = gtl_benchsuite::by_name("sa_4d_add").unwrap();
    let trace = gtl_bench::trace_search(&bench, 30_000, SearchMode::TopDown);
    let programs: Vec<TacoProgram> = trace
        .attempts
        .iter()
        .map(|s| parse_program(s).unwrap())
        .collect();
    let names = NameTable::new(programs.iter().flat_map(|p| {
        let mut accesses = p.rhs.accesses();
        accesses.push(&p.lhs);
        accesses
    }));
    let mut ids = vec![Vec::new(); programs.len()];
    let mut rhs: Vec<Vec<_>> = (0..programs.len()).map(|_| Vec::new()).collect();
    let templates: Vec<TemplateRef<'_>> = programs
        .iter()
        .zip(&mut ids)
        .zip(&mut rhs)
        .map(|((p, ids), rhs)| p.template_ref_in(&names, ids, rhs))
        .collect();
    let mut enc = CanonEncoder::default();
    let stages = ["load", "load_key", "load_key_insert"];
    for (depth, stage) in stages.into_iter().enumerate() {
        let name = format!("check_front_end_{stage}_sa_4d_add_{}", templates.len());
        c.bench_function(&name, |b| {
            b.iter(|| {
                let mut seen = KeySet::default();
                let mut kept = 0usize;
                for &t in &templates {
                    // The pipeline's feasibility test, for a task whose
                    // outputs are not uniform.
                    let facts = enc.load_ref(t);
                    if depth == 0 || facts.unconstrained_output || !facts.reads_tensor {
                        continue;
                    }
                    let key = enc.key();
                    kept += if depth == 1 {
                        key.len()
                    } else {
                        usize::from(seen.insert(key))
                    };
                }
                kept
            })
        });
    }
}

fn bench_rat(c: &mut Criterion) {
    let xs: Vec<Rat> = (1..=64).map(|n| Rat::new(n, n + 1)).collect();
    c.bench_function("rat_sum_64", |b| {
        b.iter(|| std::hint::black_box(&xs).iter().copied().sum::<Rat>())
    });
    let t = Tensor::from_ints(Shape::new(vec![16, 16]), &[1; 256]);
    c.bench_function("tensor_index_sweep", |b| {
        b.iter(|| {
            let mut acc = Rat::ZERO;
            for idx in t.shape().indices() {
                acc += t[&idx[..]];
            }
            acc
        })
    });
}

criterion_group!(
    micro,
    bench_taco_parse,
    bench_taco_eval,
    bench_c_interp,
    bench_grammar_learning,
    bench_search,
    bench_rat
);
criterion_group!(check_front_end, bench_check_front_end);
criterion_main!(micro, check_front_end);
