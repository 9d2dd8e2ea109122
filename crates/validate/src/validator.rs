//! The template validator (§6): I/O example generation plus the
//! validate-then-verify loop over substitutions.

use gtl_taco::{BatchKernel, EvalCache, Lane, LaneEnv, RhsTok, TacoProgram, TemplateRef};
use gtl_tensor::{Tensor, TensorGen};

use crate::subst::{apply_substitution, slot_candidates, Substitution, Substitutions};
use crate::task::{LiftTask, TaskInstance, ValueMode};

/// How many substitutions one batched evaluation sweep carries. Large
/// enough to amortise the shared loop odometer, small enough that an
/// early verifier accept doesn't leave much wasted work behind.
const LANE_BATCH: usize = 64;

/// One input/output example: concrete inputs and the output the legacy
/// kernel produced on them.
#[derive(Debug, Clone)]
pub struct IoExample {
    /// The instantiated inputs.
    pub instance: TaskInstance,
    /// The kernel's output.
    pub output: Tensor,
}

/// Configuration for example generation.
#[derive(Debug, Clone, Copy)]
pub struct ExampleConfig {
    /// Number of examples.
    pub count: usize,
    /// Value range for the random integer inputs.
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl Default for ExampleConfig {
    fn default() -> Self {
        ExampleConfig {
            count: 4,
            lo: -5,
            hi: 5,
            seed: 0x5eed,
        }
    }
}

/// Generates I/O examples by running the legacy kernel on random inputs
/// (§6). Examples use the task's default sizes.
///
/// # Errors
///
/// Propagates [`crate::task::TaskError`] if the kernel cannot be run
/// (which indicates a malformed task rather than a bad template).
pub fn generate_examples(
    task: &LiftTask,
    cfg: &ExampleConfig,
) -> Result<Vec<IoExample>, crate::task::TaskError> {
    let sizes = task.default_sizes();
    let mut gen = TensorGen::new(cfg.seed);
    let mut out = Vec::with_capacity(cfg.count);
    for _ in 0..cfg.count {
        let instance = task.instantiate(
            &sizes,
            &mut gen,
            ValueMode::Integers {
                lo: cfg.lo,
                hi: cfg.hi,
            },
        )?;
        let output = task.run_reference(&instance)?;
        out.push(IoExample { instance, output });
    }
    Ok(out)
}

/// Statistics from one validation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Substitutions enumerated.
    pub substitutions_tried: u64,
    /// Substitutions that passed all I/O examples (and were handed to the
    /// verifier).
    pub io_passes: u64,
    /// Candidate templates skipped before any evaluation because a
    /// feasibility pre-check proved no substitution could pass (an
    /// output index no RHS access constrains, or a constant-only RHS
    /// against non-constant outputs).
    pub pruned_infeasible: u64,
    /// Candidate templates skipped because an algebraically equivalent
    /// template was already validated (equal canonical fingerprint).
    pub pruned_equivalent: u64,
    /// Always 0: evaluation has no unchecked integer path any more. Kept
    /// because the benchmark in `perfbench/` reads it.
    pub unchecked_kernels: u64,
}

impl ValidationStats {
    /// Folds another run's counters into this one.
    pub fn merge(&mut self, other: &ValidationStats) {
        self.substitutions_tried += other.substitutions_tried;
        self.io_passes += other.io_passes;
        self.pruned_infeasible += other.pruned_infeasible;
        self.pruned_equivalent += other.pruned_equivalent;
    }
}

/// A task and its examples interned for validation, built once per search
/// round: parameters become ids (their position in `task.params`), listed
/// per logical rank, and each example's tensors sit in a [`LaneEnv`]
/// indexed by id. A substitution is then a slot → id array plus constant
/// values, a lane borrows it, and a concrete [`TacoProgram`] is built only
/// for substitutions that pass every example.
pub struct Validator<'t> {
    task: &'t LiftTask,
    /// Per logical rank, the ids of the parameters of that rank.
    pub(crate) by_rank: Vec<Vec<u32>>,
    /// The output parameter's id.
    pub(crate) output: [u32; 1],
    /// Per example: its tensors by parameter id, and the expected output.
    examples: Vec<(LaneEnv<'t>, &'t Tensor)>,
}

impl<'t> Validator<'t> {
    /// Interns `task`'s parameters and `examples`' tensors.
    pub fn new(task: &'t LiftTask, examples: &'t [IoExample]) -> Validator<'t> {
        let mut by_rank: Vec<Vec<u32>> = Vec::new();
        for (id, p) in task.params.iter().enumerate() {
            let rank = p.kind.rank();
            if by_rank.len() <= rank {
                by_rank.resize(rank + 1, Vec::new());
            }
            by_rank[rank].push(id as u32);
        }
        let examples = examples
            .iter()
            .map(|ex| {
                let mut env = LaneEnv::new();
                for p in &task.params {
                    env.push(&p.name, ex.instance.env.get(&p.name));
                }
                (env, &ex.output)
            })
            .collect();
        Validator {
            task,
            by_rank,
            output: [task.output as u32],
            examples,
        }
    }

    /// The §6 validation loop: enumerate substitutions, test each against
    /// the I/O examples, and hand survivors to `verify`; the first
    /// substitution the verifier accepts wins. Returns the verified
    /// concrete program.
    ///
    /// `verify` realises §7; passing `|_, _| true` gives the I/O-only
    /// behaviour of the C2TACO baseline.
    ///
    /// Substitutions are drained in 64-lane batches (`LANE_BATCH`): the
    /// template is lowered once into a [`BatchKernel`] and each I/O example
    /// filters a whole batch of [`Lane`]s in a single pass over a shared
    /// loop nest, instead of evaluating one substituted program at a time.
    /// Survivors are handed to `verify` in enumeration order, so the
    /// returned program (and which substitutions the verifier sees) is the
    /// first passing substitution the verifier accepts.
    pub fn validate(
        &self,
        template: &TacoProgram,
        mut verify: impl FnMut(&TacoProgram, &Substitution) -> bool,
        stats: &mut ValidationStats,
    ) -> Option<TacoProgram> {
        let kernel = BatchKernel::new(template);
        let mut subs =
            Substitutions::new(&kernel, &self.by_rank, &self.output, &self.task.constants)?;
        let n_tensors = kernel.tensor_slots().len();
        let n_consts = kernel.const_slots().len();
        let mut tensors = Vec::with_capacity(LANE_BATCH * n_tensors);
        let mut constants = Vec::with_capacity(LANE_BATCH * n_consts);
        let mut alive: Vec<usize> = Vec::with_capacity(LANE_BATCH);
        loop {
            tensors.clear();
            constants.clear();
            let mut len = 0;
            while len < LANE_BATCH && subs.next_into(&mut tensors, &mut constants) {
                len += 1;
            }
            if len == 0 {
                return None;
            }
            stats.substitutions_tried += len as u64;
            let lane = |i: usize| Lane {
                tensors: &tensors[i * n_tensors..(i + 1) * n_tensors],
                constants: &constants[i * n_consts..(i + 1) * n_consts],
            };
            // Example-major filtering: each example prunes the batch, so
            // later examples only evaluate lanes that still have a chance.
            alive.clear();
            alive.extend(0..len);
            let mut lanes: Vec<Lane<'_>> = Vec::with_capacity(len);
            for (env, output) in &self.examples {
                if alive.is_empty() {
                    break;
                }
                lanes.clear();
                lanes.extend(alive.iter().map(|&i| lane(i)));
                let results = kernel.evaluate_lanes(&lanes, env);
                let mut results = results.iter();
                alive.retain(|_| matches!(results.next(), Some(Ok(out)) if out == *output));
            }
            for &i in &alive {
                stats.io_passes += 1;
                let sub = self.substitution(&kernel, lane(i));
                let concrete = apply_substitution(template, &sub, self.task.output_name());
                if verify(&concrete, &sub) {
                    return Some(concrete);
                }
            }
            if len < LANE_BATCH {
                return None;
            }
        }
    }

    /// The named [`Substitution`] a lane realises: every tensor symbol
    /// but the output binding `a`, and every constant slot.
    fn substitution(&self, kernel: &BatchKernel, lane: Lane<'_>) -> Substitution {
        let mut sub = Substitution::default();
        for (sym, &id) in kernel.tensor_slots().iter().zip(lane.tensors) {
            if sym != "a" {
                let name = &self.task.params[id as usize].name;
                sub.tensors.insert(sym.clone(), name.clone());
            }
        }
        for (&slot, &value) in kernel.const_slots().iter().zip(lane.constants) {
            sub.constants.insert(slot, value);
        }
        sub
    }

    /// Whether `template` has any substitution to evaluate, read from its
    /// tokens. [`Validator::validate`] of a template without one returns
    /// `None` before evaluating anything and without moving a counter.
    pub fn has_substitutions(&self, template: TemplateRef<'_>) -> bool {
        let accesses = template.accesses();
        // Each symbol at its first use, with the rank every use agrees on.
        let slots = accesses
            .clone()
            .enumerate()
            .filter(|&(k, a)| !accesses.clone().take(k).any(|b| b.tensor == a.tensor))
            .map(|(_, a)| {
                let rank = a.indices.len();
                let agree = accesses
                    .clone()
                    .all(|b| b.tensor != a.tensor || b.indices.len() == rank);
                (a.access.tensor.as_str(), agree.then_some(rank))
            });
        let has_const = template
            .rhs
            .iter()
            .any(|tok| matches!(tok, RhsTok::ConstSym(_)));
        slot_candidates(
            slots,
            has_const,
            &self.by_rank,
            &self.output,
            &self.task.constants,
            |_| {},
        )
    }

    /// Every substitution of `template`, in enumeration order.
    #[cfg(test)]
    pub(crate) fn substitutions(&self, template: &TacoProgram) -> Vec<Substitution> {
        let kernel = BatchKernel::new(template);
        let Some(mut subs) =
            Substitutions::new(&kernel, &self.by_rank, &self.output, &self.task.constants)
        else {
            return Vec::new();
        };
        let (mut tensors, mut constants) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        while subs.next_into(&mut tensors, &mut constants) {
            let lane = Lane {
                tensors: &tensors,
                constants: &constants,
            };
            out.push(self.substitution(&kernel, lane));
            tensors.clear();
            constants.clear();
        }
        out
    }
}

/// [`Validator::validate`] for one template: interns the task on every
/// call, so a caller validating many templates should build one
/// [`Validator`] instead.
pub fn validate_template(
    template: &TacoProgram,
    task: &LiftTask,
    examples: &[IoExample],
    verify: impl FnMut(&TacoProgram, &Substitution) -> bool,
    stats: &mut ValidationStats,
) -> Option<TacoProgram> {
    Validator::new(task, examples).validate(template, verify, stats)
}

/// [`validate_template`]; `cache` is ignored. [`EvalCache`] is an empty
/// stand-in, kept with this name because the benchmark in `perfbench/`
/// calls it.
pub fn validate_template_cached(
    template: &TacoProgram,
    task: &LiftTask,
    examples: &[IoExample],
    verify: impl FnMut(&TacoProgram, &Substitution) -> bool,
    stats: &mut ValidationStats,
    _cache: &EvalCache,
) -> Option<TacoProgram> {
    validate_template(template, task, examples, verify, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::tests_support::dot_task;
    use gtl_taco::parse_program;

    #[test]
    fn examples_are_deterministic() {
        let task = dot_task();
        let cfg = ExampleConfig::default();
        let e1 = generate_examples(&task, &cfg).unwrap();
        let e2 = generate_examples(&task, &cfg).unwrap();
        assert_eq!(e1.len(), cfg.count);
        assert_eq!(e1[0].output, e2[0].output);
    }

    #[test]
    fn validates_correct_template() {
        let task = dot_task();
        let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
        let template = parse_program("a = b(i) * c(i)").unwrap();
        let mut stats = ValidationStats::default();
        let got = validate_template(&template, &task, &examples, |_, _| true, &mut stats)
            .expect("dot template validates");
        assert_eq!(got.to_string(), "out = a(i) * b(i)");
        assert!(stats.substitutions_tried >= 1);
        assert!(stats.io_passes >= 1);
    }

    #[test]
    fn rejects_wrong_template() {
        let task = dot_task();
        let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
        let template = parse_program("a = b(i) + c(i)").unwrap();
        let mut stats = ValidationStats::default();
        assert!(validate_template(&template, &task, &examples, |_, _| true, &mut stats)
            .is_none());
    }

    #[test]
    fn verifier_rejection_continues_search() {
        // With a verifier that rejects everything, validation must
        // exhaust all substitutions and fail.
        let task = dot_task();
        let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
        let template = parse_program("a = b(i) * c(i)").unwrap();
        let mut stats = ValidationStats::default();
        let got = validate_template(&template, &task, &examples, |_, _| false, &mut stats);
        assert!(got.is_none());
        assert!(stats.io_passes >= 2, "b*c and c*b both pass I/O");
    }

    #[test]
    fn dimensionally_unsound_substitutions_skipped() {
        // Template wants a rank-2 tensor; dot task has none.
        let task = dot_task();
        let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
        let template = parse_program("a = b(i,j) * c(j)").unwrap();
        let mut stats = ValidationStats::default();
        assert!(validate_template(&template, &task, &examples, |_, _| true, &mut stats)
            .is_none());
        assert_eq!(stats.substitutions_tried, 0);
    }
}
