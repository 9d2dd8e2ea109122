//! Bounded equivalence checking of C kernels against lifted TACO
//! programs — the reproduction's substitute for the paper's §7 pipeline
//! (MLIR lowering + CBMC with rational datatypes).
//!
//! # How the substitution preserves the paper's behaviour
//!
//! The paper compiles both programs to a common form and asks CBMC to
//! prove output equality for all inputs up to a bound, *over rational
//! datatypes* (float equality being both hard and undesirable). Over
//! rationals, both the legacy kernel (loops of `+ - * /`) and the TACO
//! einsum candidate compute *rational functions* of their inputs with
//! degree bounded by the expression size. Two distinct rational functions
//! agree on a vanishing fraction of random sample points
//! (Schwartz–Zippel), so differential testing at random points from a
//! large integer range — with all arithmetic carried out in exact
//! rational arithmetic — is a sound-with-high-probability stand-in for
//! bounded model checking, and it exercises exactly the same
//! verify-then-return-to-validation loop. (Integer sample points keep the
//! exact denominators degree-bounded; division inside a kernel still
//! produces genuine fractions.)
//!
//! The error probability per trial is at most `d / |S|` for degree `d`
//! and sample space `S`; with the default configuration (24 trials,
//! 2·10⁶ points per element, kernel degrees ≤ 6) the failure odds are
//! negligible, and every check additionally varies the extent binding so
//! shape-dependent bugs (transpositions, wrong contractions) cannot hide
//! behind square matrices.
//!
//! # Example
//!
//! ```
//! use gtl_cfront::parse_c;
//! use gtl_taco::parse_program;
//! use gtl_validate::{LiftTask, TaskParam, TaskParamKind};
//! use gtl_verify::{verify_candidate, VerifyConfig, VerifyOutcome};
//!
//! let prog = parse_c("void scale(int n, int *x, int *out) {
//!     for (int i = 0; i < n; i++) out[i] = 2 * x[i];
//! }").unwrap();
//! let task = LiftTask {
//!     func: prog.kernel().clone(),
//!     params: vec![
//!         TaskParam { name: "n".into(), kind: TaskParamKind::Size("n".into()) },
//!         TaskParam {
//!             name: "x".into(),
//!             kind: TaskParamKind::ArrayIn { dims: vec!["n".into()], nonzero: false },
//!         },
//!         TaskParam { name: "out".into(), kind: TaskParamKind::ArrayOut { dims: vec!["n".into()] } },
//!     ],
//!     output: 2,
//!     constants: vec![2],
//!     ref_program: Default::default(),
//! };
//! let good = parse_program("out(i) = x(i) * 2").unwrap();
//! assert_eq!(
//!     verify_candidate(&task, &good, &VerifyConfig::default()),
//!     VerifyOutcome::Equivalent
//! );
//! let bad = parse_program("out(i) = x(i) + 2").unwrap();
//! assert!(matches!(
//!     verify_candidate(&task, &bad, &VerifyConfig::default()),
//!     VerifyOutcome::Counterexample(_)
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exhaustive;

pub use exhaustive::{verify_exhaustive, ExhaustiveConfig, ExhaustiveOutcome};

use gtl_taco::{BatchKernel, EvalCache, Lane, LaneEnv, TacoProgram, TensorEnv};
use gtl_tensor::{seed_from_label, Tensor, TensorGen};
use gtl_validate::{LiftTask, TaskError, ValueMode};

/// Configuration of the bounded equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Number of distinct shape bindings exercised.
    pub shape_rounds: usize,
    /// Random rational draws per shape binding.
    pub trials_per_shape: usize,
    /// Magnitude bound of the integer sample range per element.
    pub magnitude: i64,
    /// Base seed; combined with the kernel name for determinism.
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            shape_rounds: 3,
            trials_per_shape: 8,
            magnitude: 1_000_000,
            seed: 0xb0c5,
        }
    }
}

/// A concrete disagreement between the kernel and the candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Which shape round produced it.
    pub shape_round: usize,
    /// The kernel's output.
    pub expected: Tensor,
    /// The candidate's output (`None` when the candidate failed to
    /// evaluate, e.g. division by zero).
    pub actual: Option<Tensor>,
}

/// The verifier's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// All differential trials agreed: equivalent up to the bound, with
    /// Schwartz–Zippel failure probability.
    Equivalent,
    /// A disagreement was found; the candidate is wrong.
    Counterexample(Box<Counterexample>),
    /// The *kernel* could not be exercised (task error) — the query, not
    /// the candidate, is at fault.
    Inconclusive(TaskError),
}

impl VerifyOutcome {
    /// Whether the candidate passed.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, VerifyOutcome::Equivalent)
    }
}

/// Verifies a concrete candidate program (over argument names) against
/// the legacy kernel by multi-shape rational differential testing.
///
/// The candidate is lowered once into a [`BatchKernel`]. Each shape
/// round draws its `trials_per_shape` instances and kernel outputs in
/// order, then evaluates the candidate on all of them in one pass, one
/// [`Lane`] per trial, and compares the results in trial order. The
/// verdict is the one a trial-by-trial loop gives: the first
/// disagreement is the counterexample, and a task error ends the check
/// as [`VerifyOutcome::Inconclusive`] unless an earlier trial already
/// disagreed.
pub fn verify_candidate(
    task: &LiftTask,
    candidate: &TacoProgram,
    cfg: &VerifyConfig,
) -> VerifyOutcome {
    let kernel = BatchKernel::new(candidate);
    let mut gen = TensorGen::new(cfg.seed ^ seed_from_label(&task.func.name));
    for round in 0..cfg.shape_rounds {
        let sizes = task.sizes_for_round(round);
        let mut trials = Trials::default();
        let mut task_error = None;
        for _ in 0..cfg.trials_per_shape {
            let drawn = task
                .instantiate(
                    &sizes,
                    &mut gen,
                    ValueMode::VerifyPoints {
                        magnitude: cfg.magnitude,
                    },
                )
                .and_then(|instance| Ok((task.run_reference(&instance)?, instance.env)));
            match drawn {
                Ok((expected, env)) => trials.push(&kernel, expected, env),
                Err(e) => {
                    task_error = Some(e);
                    break;
                }
            }
        }
        if let Some(cex) = trials.first_disagreement(&kernel, round) {
            return VerifyOutcome::Counterexample(cex);
        }
        if let Some(e) = task_error {
            return VerifyOutcome::Inconclusive(e);
        }
    }
    VerifyOutcome::Equivalent
}

/// [`verify_candidate`]; `cache` is ignored. [`EvalCache`] is an empty
/// stand-in, kept with this name because the benchmark in `perfbench/`
/// calls it.
pub fn verify_candidate_cached(
    task: &LiftTask,
    candidate: &TacoProgram,
    cfg: &VerifyConfig,
    _cache: &EvalCache,
) -> VerifyOutcome {
    verify_candidate(task, candidate, cfg)
}

/// The drawn trials of one check: the kernel's output per trial and,
/// per trial, the input bound to each of the candidate's tensor slots,
/// so a single batched pass evaluates the candidate on all of them.
#[derive(Default)]
struct Trials {
    expected: Vec<Tensor>,
    /// Trial-major: one entry per (trial, tensor slot).
    inputs: Vec<Option<Tensor>>,
}

impl Trials {
    /// Adds a trial: its kernel output and its input bindings. Only the
    /// tensors the candidate reads are kept; a name the candidate reads
    /// but the task lacks stays unbound and fails to evaluate.
    fn push(&mut self, kernel: &BatchKernel, expected: Tensor, mut env: TensorEnv) {
        for name in kernel.tensor_slots() {
            self.inputs.push(env.remove(name.as_str()));
        }
        self.expected.push(expected);
    }

    /// Evaluates `kernel` on every trial and returns the first trial, in
    /// draw order, whose result differs from the kernel's output.
    fn first_disagreement(self, kernel: &BatchKernel, round: usize) -> Option<Box<Counterexample>> {
        // Verification candidates are concrete; a leftover symbolic
        // constant cannot be bound, so it fails to evaluate everywhere.
        let actual: Vec<Option<Tensor>> = if kernel.const_slots().is_empty() {
            let slots = kernel.tensor_slots();
            let mut env = LaneEnv::new();
            let ids: Vec<u32> = self
                .inputs
                .iter()
                .enumerate()
                .map(|(k, input)| env.push(slots[k % slots.len()].as_str(), input.as_ref()))
                .collect();
            let lanes: Vec<Lane<'_>> = (0..self.expected.len())
                .map(|t| Lane {
                    tensors: &ids[t * slots.len()..(t + 1) * slots.len()],
                    constants: &[],
                })
                .collect();
            kernel
                .evaluate_lanes(&lanes, &env)
                .into_iter()
                .map(Result::ok)
                .collect()
        } else {
            vec![None; self.expected.len()]
        };
        self.expected
            .into_iter()
            .zip(actual)
            .find(|(expected, actual)| actual.as_ref() != Some(expected))
            .map(|(expected, actual)| {
                Box::new(Counterexample {
                    shape_round: round,
                    expected,
                    actual,
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_cfront::parse_c;
    use gtl_taco::parse_program;
    use gtl_validate::{TaskParam, TaskParamKind};

    fn gemv_task() -> LiftTask {
        let prog = parse_c(
            "void gemv(int n, int m, int *A, int *x, int *y) {
                for (int i = 0; i < n; i++) {
                    y[i] = 0;
                    for (int j = 0; j < m; j++) y[i] += A[i*m + j] * x[j];
                }
            }",
        )
        .unwrap();
        LiftTask {
            func: prog.kernel().clone(),
            params: vec![
                TaskParam {
                    name: "n".into(),
                    kind: TaskParamKind::Size("n".into()),
                },
                TaskParam {
                    name: "m".into(),
                    kind: TaskParamKind::Size("m".into()),
                },
                TaskParam {
                    name: "A".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into(), "m".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "x".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["m".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "y".into(),
                    kind: TaskParamKind::ArrayOut {
                        dims: vec!["n".into()],
                    },
                },
            ],
            output: 4,
            constants: vec![0],
            ref_program: Default::default(),
        }
    }

    #[test]
    fn accepts_correct_gemv() {
        let task = gemv_task();
        let cand = parse_program("y(i) = A(i,j) * x(j)").unwrap();
        assert!(verify_candidate(&task, &cand, &VerifyConfig::default()).is_equivalent());
    }

    #[test]
    fn rejects_transposed_contraction() {
        let task = gemv_task();
        let cand = parse_program("y(i) = A(j,i) * x(i)").unwrap();
        assert!(!verify_candidate(&task, &cand, &VerifyConfig::default()).is_equivalent());
    }

    #[test]
    fn rejects_wrong_operator() {
        let task = gemv_task();
        let cand = parse_program("y(i) = A(i,j) + x(j)").unwrap();
        let out = verify_candidate(&task, &cand, &VerifyConfig::default());
        assert!(matches!(out, VerifyOutcome::Counterexample(_)));
    }

    #[test]
    fn rational_points_separate_near_misses() {
        // out(i) = x(i) vs the true out(i) = x(i) * x(i): these agree on
        // 0/1-valued inputs, which random rational sampling avoids.
        let prog = parse_c(
            "void sq(int n, int *x, int *out) {
                for (int i = 0; i < n; i++) out[i] = x[i] * x[i];
            }",
        )
        .unwrap();
        let task = LiftTask {
            func: prog.kernel().clone(),
            params: vec![
                TaskParam {
                    name: "n".into(),
                    kind: TaskParamKind::Size("n".into()),
                },
                TaskParam {
                    name: "x".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "out".into(),
                    kind: TaskParamKind::ArrayOut {
                        dims: vec!["n".into()],
                    },
                },
            ],
            output: 2,
            constants: vec![],
            ref_program: Default::default(),
        };
        let wrong = parse_program("out(i) = x(i)").unwrap();
        assert!(!verify_candidate(&task, &wrong, &VerifyConfig::default()).is_equivalent());
        let right = parse_program("out(i) = x(i) * x(i)").unwrap();
        assert!(verify_candidate(&task, &right, &VerifyConfig::default()).is_equivalent());
    }

    #[test]
    fn division_by_zero_counts_against_candidate() {
        let task = gemv_task();
        let cand = parse_program("y(i) = A(i,j) / x(j)").unwrap();
        assert!(!verify_candidate(&task, &cand, &VerifyConfig::default()).is_equivalent());
    }

    /// A one-array task whose kernel computes `out[i] = 2 * x[i]`, except
    /// `3 * x[i]` when `x[0] > 800000` and a division by zero (a task
    /// error) when `x[0] < -800000`; each happens on about one draw in
    /// ten.
    fn rare_branch_task() -> LiftTask {
        let prog = parse_c(
            "void rare(int n, int *x, int *out) {
                for (int i = 0; i < n; i++) {
                    if (x[0] > 800000) out[i] = 3 * x[i];
                    else if (x[0] < -800000) out[i] = x[i] / 0;
                    else out[i] = 2 * x[i];
                }
            }",
        )
        .unwrap();
        LiftTask {
            func: prog.kernel().clone(),
            params: vec![
                TaskParam {
                    name: "n".into(),
                    kind: TaskParamKind::Size("n".into()),
                },
                TaskParam {
                    name: "x".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "out".into(),
                    kind: TaskParamKind::ArrayOut {
                        dims: vec!["n".into()],
                    },
                },
            ],
            output: 2,
            constants: vec![2],
            ref_program: Default::default(),
        }
    }

    /// The verifier as a trial-by-trial loop over the reference
    /// interpreter: draw one instance, run the kernel, evaluate, compare.
    /// Also returns the `(round, trial)` at which it stopped.
    fn trial_by_trial(
        task: &LiftTask,
        candidate: &TacoProgram,
        cfg: &VerifyConfig,
    ) -> (VerifyOutcome, Option<(usize, usize)>) {
        let mut gen = TensorGen::new(cfg.seed ^ seed_from_label(&task.func.name));
        for round in 0..cfg.shape_rounds {
            let sizes = task.sizes_for_round(round);
            for trial in 0..cfg.trials_per_shape {
                let mode = ValueMode::VerifyPoints {
                    magnitude: cfg.magnitude,
                };
                let instance = match task.instantiate(&sizes, &mut gen, mode) {
                    Ok(i) => i,
                    Err(e) => return (VerifyOutcome::Inconclusive(e), Some((round, trial))),
                };
                let expected = match task.run_reference(&instance) {
                    Ok(t) => t,
                    Err(e) => return (VerifyOutcome::Inconclusive(e), Some((round, trial))),
                };
                let actual = gtl_taco::evaluate_interpreted(candidate, &instance.env).ok();
                if actual.as_ref() != Some(&expected) {
                    let cex = Counterexample {
                        shape_round: round,
                        expected,
                        actual,
                    };
                    return (
                        VerifyOutcome::Counterexample(Box::new(cex)),
                        Some((round, trial)),
                    );
                }
            }
        }
        (VerifyOutcome::Equivalent, None)
    }

    #[test]
    fn batched_rounds_report_what_a_trial_loop_reports() {
        // `out(i) = x(i) * 2` is wrong on the `3 * x[i]` draws, and the
        // kernel fails on the division draws: whichever a seed draws
        // first decides the verdict.
        let task = rare_branch_task();
        let cand = parse_program("out(i) = x(i) * 2").unwrap();
        let (mut later_disagreement, mut partway_error) = (0, 0);
        for seed in 0..64 {
            let cfg = VerifyConfig {
                seed,
                ..VerifyConfig::default()
            };
            let (want, stop) = trial_by_trial(&task, &cand, &cfg);
            assert_eq!(verify_candidate(&task, &cand, &cfg), want, "seed {seed}");
            match (&want, stop) {
                (VerifyOutcome::Counterexample(_), Some((1, trial))) if trial > 0 => {
                    later_disagreement += 1
                }
                (VerifyOutcome::Inconclusive(_), Some((_, trial))) if trial > 0 => {
                    partway_error += 1
                }
                _ => {}
            }
        }
        assert!(
            later_disagreement > 0,
            "some seed must first disagree in a later trial of round 1"
        );
        assert!(
            partway_error > 0,
            "some seed must hit the task error after a round's first trial"
        );
    }

    #[test]
    fn deterministic_verdicts() {
        let task = gemv_task();
        let cand = parse_program("y(i) = A(i,j) * x(j)").unwrap();
        let a = verify_candidate(&task, &cand, &VerifyConfig::default());
        let b = verify_candidate(&task, &cand, &VerifyConfig::default());
        assert_eq!(a, b);
    }
}
