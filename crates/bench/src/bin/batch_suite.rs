//! The batch suite runner: lifts whole benchmark suites concurrently
//! and emits per-benchmark timing/outcome JSON (the feed behind the
//! fig9/fig10 tables).
//!
//! ```text
//! batch_suite [--jobs N] [--suites simple,artificial | --all | --real]
//!             [--only name,name] [--skip name[,name]] [--method td|bu|NAME]
//!             [--oracle SPEC] [--json PATH]
//!             [--compare-sequential] [--via-server] [--store PATH]
//!             [--no-prune]
//! ```
//!
//! `--jobs` parallelises *across benchmarks* (the embarrassingly
//! parallel axis); each lift runs the one sequential search. `--only`
//! restricts the run to named benchmarks; `--skip` excludes named
//! benchmarks (e.g. the known-unsolved `sa_4d_add` budget-burner) and
//! records them in the suite JSON's `skipped` field. `--method` takes
//! `td`, `bu` or the name of any configuration in
//! `Method::penalty_lineup()` or `Method::grammar_config_lineup()`
//! (`STAGG_TD.Drop(a1)`, `STAGG_BU.FullGrammar`, …), the paper's
//! Table 2 and Figs. 11–12 variants. `--oracle` selects the guidance
//! source by spec (`synthetic`, `synthetic:SEED`, `replay:PATH`,
//! `record:PATH[:INNER]`), so whole suites can be recorded to a
//! fixture and replayed offline. `--compare-sequential` reruns the
//! batch with one worker and reports the wall-clock speedup, asserting
//! per-benchmark outcome classifications match. `--via-server` routes
//! every lift through an in-process `gtl_serve` lift server (bounded
//! queue + worker pool + result cache) instead of calling the pipeline
//! directly — the client-driven batch mode. `--via-router ADDR` goes
//! one step further out: the suite runs through an already-listening
//! wire endpoint (a `lift_router` fronting a replica set, or a single
//! `lift_server --listen`) over `--jobs` TCP connections; the method
//! rides as a per-request override, and stores live on
//! the replicas, so `--store` does not combine with it. `--no-prune`
//! disables the static-analysis candidate pruning (feasibility
//! pre-checks + algebraic-equivalence dedup), the knob behind the
//! pruning regression guard: a pruned run must solve exactly the same
//! benchmarks as an unpruned one, just with fewer validations.

use std::collections::BTreeMap;

use gtl::OracleSpec;
use gtl_bench::{batch_json, run_batch, Method, Route};
use gtl_benchsuite::{all_benchmarks, real_world_benchmarks, suite_from_name, Benchmark};
use gtl_store::LiftStore;

struct Args {
    jobs: usize,
    suites: Option<Vec<String>>,
    only: Option<Vec<String>>,
    skip: Vec<String>,
    real_only: bool,
    method: String,
    oracle: Option<String>,
    json_path: Option<String>,
    compare_sequential: bool,
    via_server: bool,
    via_router: Option<String>,
    store: Option<String>,
    no_prune: bool,
}

const USAGE: &str = "usage: batch_suite [--jobs N] [--suites simple,artificial | --all | --real] \
[--only name,name] [--skip name[,name]] [--method td|bu|NAME] [--oracle SPEC] \
[--json PATH] [--compare-sequential] [--via-server] [--via-router ADDR] [--store PATH] \
[--no-prune]";

fn usage_error(message: &str) -> ! {
    eprintln!("batch_suite: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        suites: None,
        only: None,
        skip: Vec::new(),
        real_only: false,
        method: "td".into(),
        oracle: None,
        json_path: None,
        compare_sequential: false,
        via_server: false,
        via_router: None,
        store: None,
        no_prune: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        let int_value = |name: &str, raw: String| -> usize {
            raw.parse()
                .unwrap_or_else(|_| usage_error(&format!("{name} expects an integer, got `{raw}`")))
        };
        match flag.as_str() {
            "--jobs" => args.jobs = int_value("--jobs", value("--jobs")),
            "--suites" => {
                args.suites =
                    Some(value("--suites").split(',').map(str::to_string).collect())
            }
            "--all" => args.suites = None,
            "--real" => args.real_only = true,
            "--only" => {
                args.only = Some(value("--only").split(',').map(str::to_string).collect())
            }
            "--skip" => args
                .skip
                .extend(value("--skip").split(',').map(str::to_string)),
            "--method" => args.method = value("--method"),
            "--oracle" => args.oracle = Some(value("--oracle")),
            "--json" => args.json_path = Some(value("--json")),
            "--compare-sequential" => args.compare_sequential = true,
            "--via-server" => args.via_server = true,
            "--via-router" => args.via_router = Some(value("--via-router")),
            "--store" => args.store = Some(value("--store")),
            "--no-prune" => args.no_prune = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }
    args.jobs = args.jobs.max(1);
    if args.compare_sequential && args.store.is_some() {
        // Warm hits make the parallel wall near-zero while the
        // comparison rerun searches cold — the recorded speedup would
        // measure the store, not the cores.
        usage_error("--compare-sequential cannot be combined with --store");
    }
    if args.via_router.is_some() {
        if args.via_server {
            usage_error("--via-router and --via-server are mutually exclusive");
        }
        if args.store.is_some() {
            usage_error("--via-router: stores live on the replicas (use lift_server --store)");
        }
        if !matches!(args.method.as_str(), "td" | "bu") {
            // The request overrides carry the search mode only.
            usage_error("--via-router runs --method td or bu");
        }
        if args.compare_sequential {
            usage_error(
                "--compare-sequential measures local cores and cannot run through --via-router",
            );
        }
    }
    args
}

/// The benchmark set the flags select, plus the names `--skip` removed
/// from it (only names that were actually present count as skipped).
fn selected_benchmarks(args: &Args) -> (Vec<Benchmark>, Vec<String>) {
    let mut selected = if args.real_only {
        real_world_benchmarks()
    } else if let Some(names) = &args.only {
        names
            .iter()
            .map(|name| {
                gtl_benchsuite::by_name(name)
                    .unwrap_or_else(|| usage_error(&format!("unknown benchmark `{name}`")))
            })
            .collect()
    } else {
        match &args.suites {
            None => all_benchmarks(),
            Some(names) => {
                let mut out = Vec::new();
                for name in names {
                    let suite = suite_from_name(name).unwrap_or_else(|| {
                        usage_error(&format!(
                            "unknown suite `{name}` (blas, darknet, utdsp, dspstone, mathfu, simple, llama, artificial)"
                        ))
                    });
                    out.extend(gtl_benchsuite::by_suite(suite));
                }
                out
            }
        }
    };
    let mut skipped = Vec::new();
    for name in &args.skip {
        let before = selected.len();
        selected.retain(|b| b.name != name.as_str());
        if selected.len() != before {
            skipped.push(name.clone());
        } else {
            eprintln!("batch_suite: --skip {name}: not in the selected set (ignored)");
        }
    }
    (selected, skipped)
}

/// The STAGG method `--method` names: `td`, `bu`, or a configuration
/// of the paper's penalty or grammar lineup by its display name.
fn lineup_method(name: &str) -> Method {
    match name {
        "td" => Method::stagg_td(),
        "bu" => Method::stagg_bu(),
        _ => Method::penalty_lineup()
            .into_iter()
            .chain(Method::grammar_config_lineup())
            .find(|m| m.name() == name)
            .unwrap_or_else(|| {
                usage_error(&format!(
                    "unknown method `{name}` (td, bu, or a penalty or grammar lineup name)"
                ))
            }),
    }
}

fn main() {
    let args = parse_args();
    let (benchmarks, skipped) = selected_benchmarks(&args);
    if benchmarks.is_empty() {
        usage_error("the selected benchmark set is empty");
    }
    let named = lineup_method(&args.method);
    let mut config = named
        .config()
        .expect("every lineup method is a STAGG configuration")
        .clone()
        .with_pruning(!args.no_prune);
    if let Some(raw) = &args.oracle {
        let spec = OracleSpec::from_cli_name(raw)
            .unwrap_or_else(|| usage_error(&format!("unparseable --oracle spec `{raw}`")));
        // Validate fixture paths now, with a flag-level diagnostic,
        // instead of panicking inside the method constructor.
        if let Err(e) = spec.provider() {
            usage_error(&format!("--oracle: {e}"));
        }
        config = config.with_oracle(spec);
    }
    let method = Method::stagg_variant(&named.name(), config.clone());

    let store = args.store.as_ref().map(|path| {
        let store = LiftStore::open(path)
            .unwrap_or_else(|e| usage_error(&format!("--store: {e}")));
        if store.recovery().truncated_tail {
            eprintln!(
                "batch_suite: store {path}: dropped a torn tail record ({} bytes)",
                store.recovery().dropped_bytes
            );
        }
        eprintln!(
            "batch_suite: store {path}: {} outcome(s) loaded",
            store.len()
        );
        store
    });

    eprintln!(
        "batch: {} benchmarks, {} jobs, oracle {}{}{}",
        benchmarks.len(),
        args.jobs,
        config.oracle.cli_name(),
        if skipped.is_empty() {
            String::new()
        } else {
            format!(", skipping {}", skipped.join(", "))
        },
        if args.via_server {
            ", via lift server"
        } else if args.via_router.is_some() {
            ", via router"
        } else {
            ""
        }
    );
    let route = match &args.via_router {
        // The endpoint executes with its own base configuration; the
        // method rides as a per-request override so the run is
        // reproducible regardless of how the replicas were started
        // (and so the router's routing key resolves the same
        // configuration the replicas do).
        Some(addr) => Route::Endpoint {
            addr: addr.clone(),
            oracle: args.oracle.clone(),
            overrides: gtl_serve::ConfigOverrides {
                mode: Some(config.mode),
                ..Default::default()
            },
        },
        None if args.via_server => Route::Server,
        None => Route::Pipeline,
    };
    let batch = run_batch(&method, &benchmarks, args.jobs, &route, store.as_ref());
    if let Some(warm) = batch.warm_hits {
        eprintln!(
            "  warm start: {warm}/{} answered from the store",
            benchmarks.len()
        );
    }

    // Per-suite summary on stderr; JSON on stdout / file.
    let mut per_suite: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (r, b) in batch.suite.results.iter().zip(&benchmarks) {
        let entry = per_suite.entry(b.suite.cli_name()).or_default();
        entry.1 += 1;
        if r.solved {
            entry.0 += 1;
        }
    }
    for (suite, (solved, total)) in &per_suite {
        eprintln!("  {suite:<12} {solved}/{total} solved");
    }
    eprintln!(
        "  wall {:.2}s, cpu {:.2}s, solved {}/{}",
        batch.wall.as_secs_f64(),
        batch.cpu_seconds(),
        batch.suite.solved(),
        batch.suite.results.len()
    );

    let mut parallel_speedup: Option<f64> = None;
    if args.compare_sequential {
        eprintln!("rerunning with jobs = 1 for comparison…");
        let sequential = run_batch(&method, &benchmarks, 1, &Route::Pipeline, None);
        let mismatches: Vec<&str> = batch
            .suite
            .results
            .iter()
            .zip(&sequential.suite.results)
            .filter(|(p, s)| p.solved != s.solved)
            .map(|(p, _)| p.name.as_str())
            .collect();
        assert!(
            mismatches.is_empty(),
            "outcome classification diverged between jobs={} and jobs=1: {mismatches:?}",
            batch.jobs
        );
        let speedup = sequential.wall.as_secs_f64() / batch.wall.as_secs_f64().max(1e-9);
        eprintln!(
            "  sequential wall {:.2}s → speedup {speedup:.2}x, outcomes identical",
            sequential.wall.as_secs_f64(),
        );
        // Recorded in the JSON so the multi-core measurement can be
        // read off any box's suite run.
        parallel_speedup = Some(speedup);
    }

    let json = batch_json(&batch, &benchmarks, &skipped, parallel_speedup);
    match &args.json_path {
        Some(path) => {
            std::fs::write(path, &json).expect("write JSON output");
            eprintln!("  wrote {path}");
        }
        None => print!("{json}"),
    }
}
