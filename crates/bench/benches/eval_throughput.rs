//! Throughput of the candidate-evaluation hot path: the reference tree
//! interpreter vs the production evaluator (`gtl_taco::evaluate`, one
//! `BatchKernel` lane) on the validation microkernels (GEMM, TTV,
//! MTTKRP), 64-lane `BatchKernel` filtering vs interpreting each
//! candidate in turn, the compiled C reference (`run_compiled`) vs the
//! tree-walking interpreter, plus an end-to-end `batch_suite` lift
//! timing.
//!
//! Modes:
//! - default: full measurement, criterion-style report lines;
//! - `GTL_BENCH_QUICK=1`: short measurement budgets (CI smoke — proves
//!   the bench builds and runs, numbers are indicative only);
//! - `GTL_BENCH_JSON=path`: additionally writes the measurements as the
//!   JSON document committed to the perf trajectory (`BENCH_7.json`).
//!
//! In every mode the run fails (non-zero exit) when batched evaluation
//! is slower per candidate than interpreting each candidate on the
//! product-shaped microkernels — the CI regression guard for the batch
//! tier.

use std::time::{Duration, Instant};

use criterion::Criterion;
use gtl_bench::{run_method_batch, Method};
use gtl_benchsuite::{by_suite, Suite};
use gtl_cfront::{run_compiled, run_kernel};
use gtl_taco::{
    evaluate, evaluate_interpreted, parse_program, Access, BatchKernel, Expr, Lane, LaneEnv,
    TacoProgram, TensorEnv,
};
use gtl_tensor::{Shape, TensorGen};

/// One microkernel: a program over environments at validation-like sizes.
struct Micro {
    name: &'static str,
    program: TacoProgram,
    env: TensorEnv,
}

fn micro(name: &'static str, source: &str, shapes: &[(&str, &[usize])], lo: i64, hi: i64) -> Micro {
    let program = parse_program(source).expect("microkernel parses");
    let mut gen = TensorGen::from_label(name);
    let mut env = TensorEnv::new();
    for (tensor, extents) in shapes {
        env.insert(
            tensor.to_string(),
            gen.int_tensor(Shape::new(extents.to_vec()), lo, hi),
        );
    }
    Micro { name, program, env }
}

fn microkernels() -> Vec<Micro> {
    vec![
        // The §6 I/O-example regime: default task sizes, small integers.
        micro(
            "gemm_8x8",
            "a(i,j) = b(i,k) * c(k,j)",
            &[("b", &[8, 8]), ("c", &[8, 8])],
            -5,
            5,
        ),
        micro(
            "ttv_8",
            "a(i,j) = b(i,j,k) * c(k)",
            &[("b", &[8, 8, 8]), ("c", &[8])],
            -5,
            5,
        ),
        micro(
            "mttkrp_8",
            "a(i,j) = b(i,k,l) * c(k,j) * d(l,j)",
            &[("b", &[8, 8, 8]), ("c", &[8, 8]), ("d", &[8, 8])],
            -5,
            5,
        ),
        // The §7 Schwartz–Zippel regime: large integer sample points.
        micro(
            "gemm_8x8_verify_points",
            "a(i,j) = b(i,k) * c(k,j)",
            &[("b", &[8, 8]), ("c", &[8, 8])],
            -1_000_000,
            1_000_000,
        ),
    ]
}

struct Row {
    name: &'static str,
    interp_ns: f64,
    evaluate_ns: f64,
}

/// Candidate substitutions evaluated per batch — the validator's lane
/// chunk width.
const LANES: usize = 64;

/// The batch-filtering fixture for one microkernel: a pool of four
/// same-shape candidate tensors per template slot, 64 substitution
/// lanes over the pool (a tensor name per slot), and the concretized
/// program of every lane for the interpreter side of the comparison.
fn filter_fixture(m: &Micro) -> (TensorEnv, Vec<Vec<String>>, Vec<TacoProgram>) {
    let kernel = BatchKernel::new(&m.program);
    let mut gen = TensorGen::from_label(m.name);
    let mut env = TensorEnv::new();
    for slot in kernel.tensor_slots() {
        let shape = m.env[slot].shape().clone();
        for v in 0..4 {
            env.insert(format!("{slot}{v}"), gen.int_tensor(shape.clone(), -5, 5));
        }
    }
    let lanes: Vec<Vec<String>> = (0..LANES)
        .map(|t| {
            kernel
                .tensor_slots()
                .iter()
                .enumerate()
                .map(|(s, slot)| format!("{slot}{}", (t + s) % 4))
                .collect()
        })
        .collect();
    let programs: Vec<TacoProgram> = lanes
        .iter()
        .map(|lane| {
            fn rename(e: &Expr, kernel: &BatchKernel, lane: &[String]) -> Expr {
                match e {
                    Expr::Access(acc) => {
                        let s = kernel
                            .tensor_slots()
                            .iter()
                            .position(|n| n == acc.tensor.as_str())
                            .expect("slot bound");
                        Expr::Access(Access {
                            tensor: lane[s].as_str().into(),
                            indices: acc.indices.clone(),
                        })
                    }
                    Expr::Const(c) => Expr::Const(*c),
                    Expr::ConstSym(id) => Expr::ConstSym(*id),
                    Expr::Neg(inner) => Expr::Neg(Box::new(rename(inner, kernel, lane))),
                    Expr::Binary { op, lhs, rhs } => Expr::Binary {
                        op: *op,
                        lhs: Box::new(rename(lhs, kernel, lane)),
                        rhs: Box::new(rename(rhs, kernel, lane)),
                    },
                }
            }
            TacoProgram {
                lhs: m.program.lhs.clone(),
                rhs: rename(&m.program.rhs, &kernel, lane),
            }
        })
        .collect();
    (env, lanes, programs)
}

struct FilterRow {
    name: &'static str,
    /// Per-candidate cost of interpreting every substituted program in
    /// turn (`evaluate_interpreted`).
    interp_ns: f64,
    /// Per-candidate cost of one 64-lane batch pass (template lowered
    /// inside the measurement, as the validator does per template).
    batch_ns: f64,
}

struct RefRow {
    name: &'static str,
    treewalk_ns: f64,
    compiled_ns: f64,
}

fn main() {
    let quick = std::env::var("GTL_BENCH_QUICK").is_ok();
    let budget = if quick {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(300)
    };

    // One criterion pass per routine; the JSON rows reuse the same
    // measurements via `last_mean_ns`.
    let mut c = Criterion::default().measurement_time(budget);
    let mut rows: Vec<Row> = Vec::new();
    for m in microkernels() {
        let (p, env) = (&m.program, &m.env);
        c.bench_function(&format!("interp_{}", m.name), |b| {
            b.iter(|| evaluate_interpreted(std::hint::black_box(p), env).unwrap())
        });
        let interp_ns = c.last_mean_ns();
        c.bench_function(&format!("evaluate_{}", m.name), |b| {
            b.iter(|| evaluate(std::hint::black_box(p), env).unwrap())
        });
        let evaluate_ns = c.last_mean_ns();

        println!(
            "{:<28} speedup interp/evaluate {:>5.1}x",
            m.name,
            interp_ns / evaluate_ns
        );
        rows.push(Row {
            name: m.name,
            interp_ns,
            evaluate_ns,
        });
    }

    // Candidate filtering: 64 substitutions of one template, each
    // interpreted in turn vs all evaluated in one BatchKernel pass (the
    // validator's loop).
    let mut filter_rows: Vec<FilterRow> = Vec::new();
    for m in microkernels() {
        let (env, names, programs) = filter_fixture(&m);
        let lane_env = LaneEnv::from_env(&env);
        let ids: Vec<Vec<u32>> = names
            .iter()
            .map(|lane| {
                lane.iter()
                    .map(|n| lane_env.id(n).expect("bound"))
                    .collect()
            })
            .collect();
        let lanes: Vec<Lane<'_>> = ids
            .iter()
            .map(|tensors| Lane {
                tensors,
                constants: &[],
            })
            .collect();
        c.bench_function(&format!("interp_filter_{}", m.name), |b| {
            b.iter(|| {
                for p in &programs {
                    let out = evaluate_interpreted(std::hint::black_box(p), &env);
                    std::hint::black_box(out.unwrap());
                }
            })
        });
        let interp_ns = c.last_mean_ns() / LANES as f64;
        c.bench_function(&format!("batch_filter_{}", m.name), |b| {
            b.iter(|| {
                let k = BatchKernel::new(std::hint::black_box(&m.program));
                std::hint::black_box(k.evaluate_lanes(std::hint::black_box(&lanes), &lane_env))
            })
        });
        let batch_ns = c.last_mean_ns() / LANES as f64;
        println!(
            "{:<28} speedup interp/batch {:>5.1}x  ({} lanes)",
            m.name,
            interp_ns / batch_ns,
            LANES
        );
        filter_rows.push(FilterRow {
            name: m.name,
            interp_ns,
            batch_ns,
        });
    }

    // The reference side: a benchmark's C kernel tree-walked vs run as
    // compiled bytecode (what `run_reference` now executes).
    let mut ref_rows: Vec<RefRow> = Vec::new();
    for label in ["blas_gemv", "sa_ttv", "sa_mttkrp"] {
        let Some(bench) = by_suite(Suite::Blas)
            .into_iter()
            .chain(by_suite(Suite::SimpleArray))
            .find(|b| b.name == label)
        else {
            continue;
        };
        let src = bench.compiled_source().expect("benchmark compiles");
        let sizes: std::collections::BTreeMap<&str, usize> =
            bench.size_symbols().into_iter().map(|s| (s, 8)).collect();
        let mut gen = TensorGen::from_label(label);
        let instance = bench
            .instantiate(&sizes, &mut gen, -5, 5)
            .expect("benchmark instantiates");
        let func = src.program.kernel();
        c.bench_function(&format!("ref_treewalk_{label}"), |b| {
            b.iter(|| run_kernel(func, std::hint::black_box(instance.args.clone())).unwrap())
        });
        let treewalk_ns = c.last_mean_ns();
        c.bench_function(&format!("ref_compiled_{label}"), |b| {
            b.iter(|| run_compiled(&src.kernel, std::hint::black_box(instance.args.clone())).unwrap())
        });
        let compiled_ns = c.last_mean_ns();
        println!(
            "{:<28} speedup treewalk/compiled {:>5.1}x",
            label,
            treewalk_ns / compiled_ns
        );
        ref_rows.push(RefRow {
            name: label,
            treewalk_ns,
            compiled_ns,
        });
    }

    // End-to-end: the batch suite runner over the `simple` suite (full
    // validate→verify loops).
    let benchmarks = by_suite(Suite::SimpleArray);
    let subset = if quick { &benchmarks[..2.min(benchmarks.len())] } else { &benchmarks[..] };
    let started = Instant::now();
    let batch = run_method_batch(&Method::stagg_td(), subset, 1);
    let batch_wall = started.elapsed();
    println!(
        "batch_suite(simple, {} benchmarks): {:.2}s wall, {}/{} solved",
        subset.len(),
        batch_wall.as_secs_f64(),
        batch.suite.solved(),
        subset.len()
    );

    if let Ok(path) = std::env::var("GTL_BENCH_JSON") {
        let mut json = String::from("{\n  \"bench\": \"eval_throughput\",\n  \"microkernels\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"interp_ns\": {:.1}, \"evaluate_ns\": {:.1}, \
                 \"speedup\": {:.2}}}{}\n",
                r.name,
                r.interp_ns,
                r.evaluate_ns,
                r.interp_ns / r.evaluate_ns,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n  \"batch_filter\": [\n");
        for (i, r) in filter_rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"lanes\": {}, \"interp_ns_per_candidate\": {:.1}, \
                 \"batch_ns_per_candidate\": {:.1}, \"speedup\": {:.2}}}{}\n",
                r.name,
                LANES,
                r.interp_ns,
                r.batch_ns,
                r.interp_ns / r.batch_ns,
                if i + 1 < filter_rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n  \"reference\": [\n");
        for (i, r) in ref_rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"treewalk_ns\": {:.1}, \"compiled_ns\": {:.1}, \
                 \"speedup\": {:.2}}}{}\n",
                r.name,
                r.treewalk_ns,
                r.compiled_ns,
                r.treewalk_ns / r.compiled_ns,
                if i + 1 < ref_rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "  ],\n  \"batch_suite\": {{\"suite\": \"simple\", \"benchmarks\": {}, \
             \"wall_seconds\": {:.3}, \"solved\": {}}},\n  \"quick\": {}\n}}\n",
            subset.len(),
            batch_wall.as_secs_f64(),
            batch.suite.solved(),
            quick
        ));
        std::fs::write(&path, json).expect("write bench JSON");
        println!("wrote {path}");
    }

    // Regression guard: on the product-shaped microkernels the batched
    // tier must beat interpreting each candidate. The committed
    // BENCH_7.json run measures 2.0–3.0× (its `scalar_cold` rows, a
    // fresh cache that interpreted every candidate); full runs enforce
    // 1.8× so machine variance at the 2× mark cannot flake the guard,
    // and the CI quick-mode smoke (20ms budgets, ratios swinging well
    // over ±25% run-to-run) only checks batch ≥ interpreter.
    let factor = if quick { 1.0 } else { 1.8 };
    let mut regressed = false;
    for r in &filter_rows {
        if !matches!(r.name, "gemm_8x8" | "ttv_8" | "mttkrp_8") {
            continue;
        }
        if r.batch_ns * factor > r.interp_ns {
            eprintln!(
                "REGRESSION: batch filtering under {factor}x over the interpreter on {} \
                 ({:.1}ns vs {:.1}ns per candidate)",
                r.name, r.batch_ns, r.interp_ns
            );
            regressed = true;
        }
    }
    if regressed {
        std::process::exit(1);
    }
}
