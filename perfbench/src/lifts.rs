//! The `suite` and `tail` workloads: sequential in-process lifts through
//! `Stagg::lift`, one pass over the workload's lifts at a time.
//!
//! Every pass runs the same lifts in an order drawn from the workload
//! seed. Timing stops only at a pass boundary, so every run measures the
//! same mix of lifts. The traced run lifts each case twice — once through
//! `Stagg::lift` and once through the benchmark's own replica of its
//! stages ([`crate::trace`]) — alternating which goes first, and fails
//! any lift where the two disagree.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use gtl::{LiftQuery, LiftReport, OracleSpec, Stagg, StaggConfig};
use gtl_benchsuite::{all_benchmarks, by_name, Benchmark};
use gtl_oracle::OracleProvider;
use gtl_store::json::Json;

use crate::trace::{traced_lift, Layers};
use crate::{check, peak_rss_mb, quantile, ratio, Args, Report, Rng, Workload};

/// The synthetic oracle's default seed. `suite` lifts every kernel under
/// it; it reproduces the repository's recorded baseline (76/77 solved).
const DEFAULT_ORACLE_SEED: u64 = 26887;

/// The `tail` workload: (kernel, oracle seed) pairs that each exhaust the
/// default 30,000-attempt budget. Found by `perfbench --scan
/// 26887,1,2,7,42` (see README.md); fixed, because which kernels exhaust
/// the budget depends on the oracle seed.
const TAIL_PAIRS: [(&str, u64); 7] = [
    ("sa_4d_add", 26887),
    ("dn_mean_array", 1),
    ("dn_mult_add_into", 2),
    ("blas_dot_scaled", 7),
    ("mf_dot", 7),
    ("ds_scale_const", 42),
    ("llama_qk_dot", 42),
];

/// One lift of a workload: a suite kernel under one oracle seed.
struct Case {
    bench: Benchmark,
    oracle_seed: u64,
    query: LiftQuery,
}

impl Case {
    fn new(bench: Benchmark, oracle_seed: u64) -> Case {
        let query = LiftQuery {
            label: bench.name.to_string(),
            source: bench.source.to_string(),
            task: bench.lift_task(),
            ground_truth: Some(bench.parse_ground_truth()),
        };
        Case {
            bench,
            oracle_seed,
            query,
        }
    }

    fn key(&self) -> String {
        format!("{}@{}", self.bench.name, self.oracle_seed)
    }
}

/// The default top-down configuration at `jobs = 1` under one oracle.
fn config_for(oracle_seed: u64) -> StaggConfig {
    StaggConfig::top_down().with_oracle(OracleSpec::Synthetic { seed: oracle_seed })
}

/// One lifter per oracle seed.
struct Lifters(BTreeMap<u64, (Arc<dyn OracleProvider>, Stagg)>);

impl Lifters {
    fn new(seeds: impl IntoIterator<Item = u64>) -> Lifters {
        Lifters(
            seeds
                .into_iter()
                .map(|seed| {
                    let config = config_for(seed);
                    let provider = config.oracle.provider().expect("synthetic oracle builds");
                    (seed, (Arc::clone(&provider), Stagg::new(provider, config)))
                })
                .collect(),
        )
    }

    fn lift(&self, case: &Case) -> LiftReport {
        self.0[&case.oracle_seed].1.lift(&case.query)
    }

    fn provider(&self, oracle_seed: u64) -> &dyn OracleProvider {
        self.0[&oracle_seed].0.as_ref()
    }
}

/// The deterministic outcome of one lift: what the differential guard
/// compares and what the counters record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    pub solution: Option<String>,
    pub attempts: u64,
    pub pops: u64,
    pub substitutions: u64,
    pub pruned_infeasible: u64,
    pub pruned_equivalent: u64,
}

impl From<&LiftReport> for Outcome {
    fn from(report: &LiftReport) -> Outcome {
        Outcome {
            solution: report.solution.as_ref().map(ToString::to_string),
            attempts: report.attempts,
            pops: report.nodes_expanded,
            substitutions: report.substitutions_tried,
            pruned_infeasible: report.pruned_infeasible,
            pruned_equivalent: report.pruned_equivalent,
        }
    }
}

impl Outcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("solved", Json::Bool(self.solution.is_some())),
            ("attempts", Json::u64(self.attempts)),
            ("pops", Json::u64(self.pops)),
            ("substitutions", Json::u64(self.substitutions)),
            ("pruned_infeasible", Json::u64(self.pruned_infeasible)),
            ("pruned_equivalent", Json::u64(self.pruned_equivalent)),
        ])
    }
}

fn workload_cases(workload: Workload) -> Vec<Case> {
    match workload {
        Workload::Suite => all_benchmarks()
            .into_iter()
            .map(|b| Case::new(b, DEFAULT_ORACLE_SEED))
            .collect(),
        Workload::Tail => TAIL_PAIRS
            .iter()
            .map(|(name, seed)| {
                Case::new(by_name(name).expect("tail kernel is in the suite"), *seed)
            })
            .collect(),
        Workload::Serve => unreachable!("serve is not an in-process lift workload"),
    }
}

/// The set-up every workload shares, run before timing starts: build the
/// suite's lift queries (parsing and compiling every kernel) and lift
/// each suite kernel that is not in `TAIL_PAIRS` once under the default
/// oracle — the seed-independent, budget-safe part of the suite.
pub fn warm_up() {
    let lifters = Lifters::new([DEFAULT_ORACLE_SEED]);
    for bench in all_benchmarks() {
        if TAIL_PAIRS.iter().any(|(name, _)| *name == bench.name) {
            continue;
        }
        let report = lifters.lift(&Case::new(bench, DEFAULT_ORACLE_SEED));
        std::hint::black_box(report);
    }
}

/// Runs the `suite` or `tail` workload.
pub fn run(args: &Args) -> Option<Report> {
    let cases = workload_cases(args.workload);
    let lifters = Lifters::new(cases.iter().map(|c| c.oracle_seed));
    warm_up();
    if args.setup_only {
        return None;
    }

    let mut report = Report {
        attempted: 0,
        failed: 0,
        failed_frac: 0.0,
        problems: Vec::new(),
        pass_seconds: Vec::new(),
        metrics: Vec::new(),
        counters: Json::Null,
    };
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let mut first: Vec<Option<Outcome>> = vec![None; cases.len()];
    // Per case, its latency in every pass.
    let mut latencies_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut layers = Layers::default();
    let (mut traced_us, mut plain_us) = (0.0, 0.0);

    let started = Instant::now();
    while report.pass_seconds.is_empty() || started.elapsed() < args.seconds {
        let pass_started = Instant::now();
        rng.shuffle(&mut order);
        for (i, &c) in order.iter().enumerate() {
            let case = &cases[c];
            let outcome = if args.trace {
                let lift_plain = |plain_us: &mut f64| {
                    let t = Instant::now();
                    let lifted = Outcome::from(&lifters.lift(case));
                    *plain_us += crate::us_since(t);
                    lifted
                };
                let mut lift_traced = |traced_us: &mut f64| {
                    let t = Instant::now();
                    let config = config_for(case.oracle_seed);
                    let lifted = traced_lift(
                        lifters.provider(case.oracle_seed),
                        &config,
                        &case.query,
                        &mut layers,
                    );
                    *traced_us += crate::us_since(t);
                    lifted
                };
                let (plain, traced) = if (report.pass_seconds.len() + i).is_multiple_of(2) {
                    let plain = lift_plain(&mut plain_us);
                    (plain, lift_traced(&mut traced_us))
                } else {
                    let traced = lift_traced(&mut traced_us);
                    (lift_plain(&mut plain_us), traced)
                };
                if plain != traced {
                    report.fail(1, || {
                        format!(
                            "{}: traced lifter {traced:?} differs from Stagg::lift {plain:?}",
                            case.key()
                        )
                    });
                }
                traced
            } else {
                let t = Instant::now();
                let lifted = Outcome::from(&lifters.lift(case));
                latencies_ms[c].push(t.elapsed().as_secs_f64() * 1e3);
                lifted
            };
            report.attempted += 1;
            match &first[c] {
                None => first[c] = Some(outcome),
                Some(seen) if *seen != outcome => report.fail(1, || {
                    format!(
                        "{}: outcome changed between passes: {seen:?} then {outcome:?}",
                        case.key()
                    )
                }),
                Some(_) => {}
            }
        }
        report
            .pass_seconds
            .push(pass_started.elapsed().as_secs_f64());
    }
    let passes = report.pass_seconds.len() as u64;

    // Check every solution against the C kernel, outside the timed loop:
    // each pass produced the same solution, so a mismatch fails them all.
    let mut unsolved = 0u64;
    for (case, outcome) in cases.iter().zip(&first) {
        let outcome = outcome.as_ref().expect("every case ran at least once");
        match &outcome.solution {
            None => unsolved += passes,
            Some(solution) => {
                if let Err(e) = check::check_solution(&case.bench, solution, args.seed) {
                    report.fail(passes, || format!("{}: {solution}: {e}", case.key()));
                }
            }
        }
    }
    report.failed_frac = ratio((unsolved + report.failed) as f64, report.attempted as f64).min(1.0);
    report.counters = counters(&cases, &first);

    report.metrics = if args.trace {
        let mut metrics = layers.metrics();
        metrics.push(("lift.failed_frac", report.failed_frac, "frac"));
        metrics.extend(crate::serve::absent_layer_metrics());
        metrics.push((
            "trace.overhead_frac",
            ratio(traced_us, plain_us) - 1.0,
            "frac",
        ));
        metrics
    } else {
        // Every pass repeats the same deterministic lifts, and other load
        // on a shared machine only ever slows a lift down, so a lift's
        // cost is its fastest time over the passes (best of N). On a
        // shared 2-core machine at quiet times, the median over passes
        // moved by up to 14% between runs and the minimum by 1-3%.
        // Throughput is that of a pass of best times.
        let best: Vec<f64> = latencies_ms.iter().map(|l| quantile(l, 0.0)).collect();
        vec![
            (
                "lifts_per_s",
                ratio(cases.len() as f64 * 1e3, best.iter().sum()),
                "1/s",
            ),
            ("lift_p50_ms", quantile(&best, 0.5), "ms"),
            ("lift_p90_ms", quantile(&best, 0.9), "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    Some(report)
}

/// The deterministic counters of one pass: per lift, and summed.
fn counters(cases: &[Case], outcomes: &[Option<Outcome>]) -> Json {
    let mut per_lift = BTreeMap::new();
    let mut unsolved = Vec::new();
    let (mut solved, mut attempts, mut pops, mut subs, mut infeasible, mut equivalent) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for (case, outcome) in cases.iter().zip(outcomes) {
        let outcome = outcome.as_ref().expect("every case ran at least once");
        if outcome.solution.is_some() {
            solved += 1;
        } else {
            unsolved.push(Json::str(case.key()));
        }
        attempts += outcome.attempts;
        pops += outcome.pops;
        subs += outcome.substitutions;
        infeasible += outcome.pruned_infeasible;
        equivalent += outcome.pruned_equivalent;
        per_lift.insert(case.key(), outcome.to_json());
    }
    Json::obj([
        ("lifts", Json::u64(cases.len() as u64)),
        ("solved", Json::u64(solved)),
        ("unsolved", Json::Arr(unsolved)),
        ("attempts", Json::u64(attempts)),
        ("pops", Json::u64(pops)),
        ("substitutions", Json::u64(subs)),
        ("pruned_infeasible", Json::u64(infeasible)),
        ("pruned_equivalent", Json::u64(equivalent)),
        ("per_lift", Json::Obj(per_lift)),
    ])
}

/// `--scan`: lifts every suite kernel under each oracle seed and prints
/// `kernel oracle_seed solved attempts pops ms`, one line per lift.
pub fn scan(seeds: &[u64]) {
    let lifters = Lifters::new(seeds.iter().copied());
    for &seed in seeds {
        for bench in all_benchmarks() {
            let case = Case::new(bench, seed);
            let t = Instant::now();
            let report = lifters.lift(&case);
            println!(
                "{} {} {} {} {} {:.3}",
                case.bench.name,
                seed,
                report.solved(),
                report.attempts,
                report.nodes_expanded,
                t.elapsed().as_secs_f64() * 1e3
            );
        }
    }
}
