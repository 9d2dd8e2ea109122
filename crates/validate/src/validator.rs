//! The template validator (§6): I/O example generation plus the
//! validate-then-verify loop over substitutions.
//!
//! Validation rejects almost every template it sees, so a rejection is
//! made cheap. A [`Validator`] interns the task and its examples once
//! per search round and keeps one scratch for the whole round: the
//! [`BatchKernel`] each template is lowered into from its tokens, the
//! substitution odometer, the lane vectors and the sweep's
//! [`GroupScratch`]. Each example filters the lanes with
//! [`BatchKernel::filter_lanes`], which compares every output cell as it
//! is made and drops a lane at its first wrong one. So a template whose
//! substitutions all fail builds no program, no output tensor and no
//! error, and allocates nothing; a [`TacoProgram`] is built only once a
//! substitution passes every example. Verification, which needs each
//! output, still evaluates with [`BatchKernel::evaluate_lanes`].

use std::borrow::Borrow;
use std::cell::RefCell;

use gtl_taco::{
    recycle, BatchKernel, EvalCache, GroupScratch, Lane, LaneEnv, TacoProgram, TemplateRef,
};
use gtl_tensor::{Tensor, TensorGen};

use crate::subst::{apply_substitution, Substitution, Substitutions, Targets};
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
    by_rank: Vec<Vec<u32>>,
    /// The output parameter's id.
    output: [u32; 1],
    /// Per example: its tensors by parameter id, and the expected output.
    examples: Vec<(LaneEnv<'t>, &'t Tensor)>,
    /// The buffers every validation reuses from the last.
    scratch: RefCell<Scratch>,
}

/// What [`Validator::validate_ref`] keeps from one template to the next.
#[derive(Default)]
struct Scratch {
    /// The template being validated, lowered in place of the last.
    kernel: BatchKernel,
    subs: Substitutions,
    /// A batch's lanes: `LANE_BATCH` slot → id arrays, back to back.
    tensors: Vec<u32>,
    /// A batch's constant values, laid out like `tensors`.
    constants: Vec<i64>,
    /// Empty between batches (see [`gtl_taco::recycle`]).
    lanes: Vec<Lane<'static>>,
    /// Per lane of a batch: whether it passed every example so far.
    alive: Vec<bool>,
    sweep: GroupScratch,
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
            scratch: RefCell::default(),
        }
    }

    fn targets(&self) -> Targets<'_> {
        Targets {
            by_rank: &self.by_rank,
            output: &self.output,
            pool: &self.task.constants,
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
    /// This is [`Validator::validate_ref`] of the program's tokens.
    pub fn validate(
        &self,
        template: &TacoProgram,
        verify: impl FnMut(&TacoProgram, &Substitution) -> bool,
        stats: &mut ValidationStats,
    ) -> Option<TacoProgram> {
        let (mut ids, mut rhs) = (Vec::new(), Vec::new());
        let tokens = template.template_ref(&mut ids, &mut rhs);
        self.validate_ref(tokens, || template, verify, stats)
    }

    /// [`Validator::validate`] of a template handed over as tokens;
    /// `program` builds its [`TacoProgram`], which is asked for only once
    /// a substitution passes every example.
    ///
    /// The template is lowered from its tokens into the validator's
    /// [`BatchKernel`], in place of the last one. Substitutions are
    /// drained in 64-lane batches (`LANE_BATCH`), and each I/O example
    /// filters a batch's live lanes in a single pass over a shared loop
    /// nest ([`BatchKernel::filter_lanes`]). Survivors are handed to
    /// `verify` in enumeration order, so the returned program (and which
    /// substitutions the verifier sees) is the first passing
    /// substitution the verifier accepts. A template none of whose
    /// substitutions passes allocates nothing here.
    pub fn validate_ref<P: Borrow<TacoProgram>>(
        &self,
        template: TemplateRef<'_>,
        program: impl FnOnce() -> P,
        mut verify: impl FnMut(&TacoProgram, &Substitution) -> bool,
        stats: &mut ValidationStats,
    ) -> Option<TacoProgram> {
        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            kernel,
            subs,
            tensors,
            constants,
            lanes: spare,
            alive,
            sweep,
        } = &mut *scratch;
        let targets = self.targets();
        if !subs.open(template, targets) {
            return None;
        }
        kernel.lower(template);
        let (mut program, mut built) = (Some(program), None);
        let n_tensors = kernel.tensor_slots().len();
        let n_consts = kernel.const_slots().len();
        loop {
            tensors.clear();
            constants.clear();
            let mut len = 0;
            while len < LANE_BATCH && subs.next_into(targets, tensors, constants) {
                len += 1;
            }
            if len == 0 {
                return None;
            }
            stats.substitutions_tried += len as u64;
            let mut lanes = recycle(std::mem::take(spare));
            lanes.extend((0..len).map(|i| Lane {
                tensors: &tensors[i * n_tensors..(i + 1) * n_tensors],
                constants: &constants[i * n_consts..(i + 1) * n_consts],
            }));
            // Example-major filtering: each example prunes the batch, so
            // later examples only run lanes that still have a chance.
            alive.clear();
            alive.resize(len, true);
            for (env, output) in &self.examples {
                if !alive.contains(&true) {
                    break;
                }
                kernel.filter_lanes(&lanes, env, output, alive, sweep);
            }
            let mut verified = None;
            for (lane, _) in lanes.iter().zip(alive.iter()).filter(|(_, &a)| a) {
                stats.io_passes += 1;
                let template: &P =
                    built.get_or_insert_with(|| program.take().expect("built once")());
                let template: &TacoProgram = template.borrow();
                let sub = self.substitution(kernel, *lane);
                let concrete = apply_substitution(template, &sub, self.task.output_name());
                if verify(&concrete, &sub) {
                    verified = Some(concrete);
                    break;
                }
            }
            *spare = recycle(lanes);
            if verified.is_some() || len < LANE_BATCH {
                return verified;
            }
        }
    }

    /// The named [`Substitution`] a lane realises: every tensor symbol
    /// but the output binding `a`, and every constant slot.
    fn substitution(&self, kernel: &BatchKernel, lane: Lane<'_>) -> Substitution {
        let mut sub = Substitution::default();
        for (sym, &id) in kernel.tensor_slots().iter().zip(lane.tensors) {
            if sym.as_str() != "a" {
                let name = &self.task.params[id as usize].name;
                sub.tensors.insert(sym.as_str().to_string(), name.clone());
            }
        }
        for (&slot, &value) in kernel.const_slots().iter().zip(lane.constants) {
            sub.constants.insert(slot, value);
        }
        sub
    }

    /// Every substitution of `template`, in enumeration order.
    #[cfg(test)]
    pub(crate) fn substitutions(&self, template: &TacoProgram) -> Vec<Substitution> {
        let kernel = BatchKernel::new(template);
        let (mut ids, mut rhs) = (Vec::new(), Vec::new());
        let mut subs = Substitutions::default();
        if !subs.open(template.template_ref(&mut ids, &mut rhs), self.targets()) {
            return Vec::new();
        }
        let (mut tensors, mut constants) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        while subs.next_into(self.targets(), &mut tensors, &mut constants) {
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
        assert!(validate_template(&template, &task, &examples, |_, _| true, &mut stats).is_none());
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
        assert!(validate_template(&template, &task, &examples, |_, _| true, &mut stats).is_none());
        assert_eq!(stats.substitutions_tried, 0);
    }
}
