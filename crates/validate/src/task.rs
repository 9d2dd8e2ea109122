//! The lifting task: a legacy C kernel plus the logical-shape metadata
//! the validator and verifier need to run it.

use std::collections::BTreeMap;

use gtl_cfront::{run_compiled, ArgValue, Function, LazyCompiledFn, RuntimeError};
use gtl_taco::TensorEnv;
use gtl_tensor::{Rat, Shape, Tensor, TensorGen};

/// The kind of one kernel parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskParamKind {
    /// An `int` scalar bound to a size symbol.
    Size(String),
    /// A scalar data input.
    ScalarIn {
        /// Whether the value must be nonzero (it is used as a divisor).
        nonzero: bool,
    },
    /// An input array with symbolic extents.
    ArrayIn {
        /// Extent symbols, outermost first.
        dims: Vec<String>,
        /// Whether elements must be nonzero.
        nonzero: bool,
    },
    /// The output array.
    ArrayOut {
        /// Extent symbols, outermost first.
        dims: Vec<String>,
    },
}

impl TaskParamKind {
    /// The logical rank: arrays by declared dims, scalars 0.
    pub(crate) fn rank(&self) -> usize {
        match self {
            TaskParamKind::Size(_) | TaskParamKind::ScalarIn { .. } => 0,
            TaskParamKind::ArrayIn { dims, .. } | TaskParamKind::ArrayOut { dims } => dims.len(),
        }
    }
}

/// One parameter of the task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskParam {
    /// The C parameter name.
    pub name: String,
    /// What the parameter is.
    pub kind: TaskParamKind,
}

/// A lifting task: the parsed kernel, its parameter metadata and the
/// constant pool (§6).
#[derive(Debug, Clone)]
pub struct LiftTask {
    /// The parsed kernel function.
    pub func: Function,
    /// Parameter metadata, in signature order.
    pub params: Vec<TaskParam>,
    /// Index of the output parameter.
    pub output: usize,
    /// Integer constants found in the source (instantiation pool for
    /// `Const` symbols).
    pub constants: Vec<i64>,
    /// The kernel compiled to interpreter bytecode, built on first
    /// [`LiftTask::run_reference`] call and reused for every subsequent
    /// run (examples, verifier sample points, exhaustive sweeps).
    /// `Default::default()` is always a valid value.
    pub ref_program: LazyCompiledFn,
}

/// How input values are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueMode {
    /// Small integers in `[lo, hi]` — used for I/O examples (§6).
    Integers {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Verifier sample points (§7): random *integers* drawn from a large
    /// range. Schwartz–Zippel needs a large sample space, not fractional
    /// points — and integer points keep the exact-rational arithmetic's
    /// denominators degree-bounded (summing many random fractions would
    /// overflow `i128` denominators). Division inside a kernel still
    /// produces exact fractions.
    VerifyPoints {
        /// Magnitude bound of the sample range `[-magnitude, magnitude]`.
        magnitude: i64,
    },
}

/// A concrete instantiation of the task.
#[derive(Debug, Clone)]
pub struct TaskInstance {
    /// Arguments for the C interpreter.
    pub args: Vec<ArgValue>,
    /// TACO bindings: every parameter by name (arrays shaped, scalars as
    /// rank-0 tensors; the output array with its *initial* contents, as
    /// the paper's Fig. 8 includes the output among substitution
    /// candidates).
    pub env: TensorEnv,
    /// Logical output shape.
    pub output_shape: Shape,
}

/// Errors when instantiating or running a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// A size symbol had no binding.
    MissingSize(String),
    /// The kernel failed at runtime.
    Runtime(RuntimeError),
    /// Output data didn't match the declared shape (metadata bug).
    ShapeMismatch,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::MissingSize(s) => write!(f, "no binding for size symbol `{s}`"),
            TaskError::Runtime(e) => write!(f, "kernel execution failed: {e}"),
            TaskError::ShapeMismatch => write!(f, "output shape/data mismatch"),
        }
    }
}

impl std::error::Error for TaskError {}

impl LiftTask {
    /// All size symbols, in order of first appearance.
    pub fn size_symbols(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for p in &self.params {
            match &p.kind {
                TaskParamKind::Size(s) => {
                    if !out.contains(&s.as_str()) {
                        out.push(s);
                    }
                }
                TaskParamKind::ArrayIn { dims, .. } | TaskParamKind::ArrayOut { dims } => {
                    for d in dims {
                        if !out.contains(&d.as_str()) {
                            out.push(d);
                        }
                    }
                }
                TaskParamKind::ScalarIn { .. } => {}
            }
        }
        out
    }

    /// The output parameter's name.
    pub fn output_name(&self) -> &str {
        &self.params[self.output].name
    }

    /// Builds a concrete instance under a size binding.
    pub fn instantiate(
        &self,
        sizes: &BTreeMap<String, usize>,
        gen: &mut TensorGen,
        mode: ValueMode,
    ) -> Result<TaskInstance, TaskError> {
        let resolve = |sym: &String| -> Result<usize, TaskError> {
            sizes
                .get(sym)
                .copied()
                .ok_or_else(|| TaskError::MissingSize(sym.clone()))
        };
        let draw = |nonzero: bool, gen: &mut TensorGen| -> Rat {
            match mode {
                ValueMode::Integers { lo, hi } => {
                    if nonzero {
                        gen.nonzero_int_in(lo, hi)
                    } else {
                        gen.int_in(lo, hi)
                    }
                }
                ValueMode::VerifyPoints { magnitude } => {
                    if nonzero {
                        gen.nonzero_int_in(-magnitude, magnitude)
                    } else {
                        gen.int_in(-magnitude, magnitude)
                    }
                }
            }
        };
        let mut args = Vec::new();
        let mut env = TensorEnv::new();
        let mut output_shape = None;
        for p in &self.params {
            match &p.kind {
                TaskParamKind::Size(sym) => {
                    let v = resolve(sym)? as i64;
                    args.push(ArgValue::Scalar(Rat::from(v)));
                    env.insert(p.name.clone(), Tensor::scalar(Rat::from(v)));
                }
                TaskParamKind::ScalarIn { nonzero } => {
                    let v = draw(*nonzero, gen);
                    args.push(ArgValue::Scalar(v));
                    env.insert(p.name.clone(), Tensor::scalar(v));
                }
                TaskParamKind::ArrayIn { dims, nonzero } => {
                    let extents = dims.iter().map(resolve).collect::<Result<Vec<_>, _>>()?;
                    let shape = Shape::new(extents);
                    let data: Vec<Rat> = (0..shape.len()).map(|_| draw(*nonzero, gen)).collect();
                    let t = Tensor::from_data(shape, data).expect("length from shape");
                    args.push(ArgValue::Array(t.data().to_vec()));
                    env.insert(p.name.clone(), t);
                }
                TaskParamKind::ArrayOut { dims } => {
                    let extents = dims.iter().map(resolve).collect::<Result<Vec<_>, _>>()?;
                    let shape = Shape::new(extents);
                    let zeros = vec![Rat::ZERO; shape.len()];
                    args.push(ArgValue::Array(zeros.clone()));
                    env.insert(
                        p.name.clone(),
                        Tensor::from_data(shape.clone(), zeros).expect("length from shape"),
                    );
                    output_shape = Some(shape);
                }
            }
        }
        Ok(TaskInstance {
            args,
            env,
            output_shape: output_shape.expect("task has an output parameter"),
        })
    }

    /// Runs the C kernel on an instance and returns the shaped output.
    ///
    /// The kernel is compiled to bytecode once (cached in
    /// [`LiftTask::ref_program`]) and every call executes the compiled
    /// form — the reference side of validation and verification runs many
    /// thousands of instances per task, so the tree-walk interpreter's
    /// per-run dispatch cost is paid exactly once, at compile time.
    pub fn run_reference(&self, instance: &TaskInstance) -> Result<Tensor, TaskError> {
        let compiled = self.ref_program.get_or_compile(&self.func);
        let result = run_compiled(compiled, instance.args.clone()).map_err(TaskError::Runtime)?;
        let array_slot = self
            .params
            .iter()
            .take(self.output)
            .filter(|p| {
                matches!(
                    p.kind,
                    TaskParamKind::ArrayIn { .. } | TaskParamKind::ArrayOut { .. }
                )
            })
            .count();
        let data = result.arrays[array_slot].clone();
        Tensor::from_data(instance.output_shape.clone(), data).map_err(|_| TaskError::ShapeMismatch)
    }

    /// A default size binding (distinct small extents per symbol).
    pub fn default_sizes(&self) -> BTreeMap<String, usize> {
        const EXTENTS: [usize; 6] = [3, 4, 2, 5, 3, 4];
        self.size_symbols()
            .into_iter()
            .enumerate()
            .map(|(n, s)| (s.to_string(), EXTENTS[n % EXTENTS.len()]))
            .collect()
    }

    /// A rotated size binding for verification round `round`.
    pub fn sizes_for_round(&self, round: usize) -> BTreeMap<String, usize> {
        const EXTENTS: [usize; 6] = [3, 4, 2, 5, 3, 4];
        self.size_symbols()
            .into_iter()
            .enumerate()
            .map(|(n, s)| (s.to_string(), EXTENTS[(n + round) % EXTENTS.len()]))
            .collect()
    }
}

/// Test-only task fixtures shared across the crate's unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use gtl_cfront::parse_c;

    /// A dot-product task: `out = a(i) * b(i)`.
    pub(crate) fn dot_task() -> LiftTask {
        let prog = parse_c(
            "void dot(int n, int *a, int *b, int *out) {
                *out = 0;
                for (int i = 0; i < n; i++) *out += a[i] * b[i];
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
                    name: "a".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "b".into(),
                    kind: TaskParamKind::ArrayIn {
                        dims: vec!["n".into()],
                        nonzero: false,
                    },
                },
                TaskParam {
                    name: "out".into(),
                    kind: TaskParamKind::ArrayOut { dims: vec![] },
                },
            ],
            output: 3,
            constants: vec![0],
            ref_program: Default::default(),
        }
    }

    /// A scaled GEMV plus a summed scaled vector, over three ranks of
    /// parameters and a four-value constant pool:
    /// `out(i) = 2 * m(i,j) * x(j) + s * y(j)`.
    pub(crate) fn gemv_task() -> LiftTask {
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
            constants: vec![0, 2, -1, 3],
            ref_program: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::dot_task;
    use super::*;

    #[test]
    fn instantiation_and_reference_run() {
        let task = dot_task();
        let sizes = task.default_sizes();
        let mut gen = TensorGen::from_label("t");
        let inst = task
            .instantiate(&sizes, &mut gen, ValueMode::Integers { lo: -3, hi: 3 })
            .unwrap();
        assert_eq!(inst.env.len(), 4, "n, a, b and the zeroed output");
        let out = task.run_reference(&inst).unwrap();
        assert_eq!(out.rank(), 0);
    }

    #[test]
    fn ranks() {
        let ranks: Vec<usize> = dot_task().params.iter().map(|p| p.kind.rank()).collect();
        // n, a, b, out.
        assert_eq!(ranks, [0, 1, 1, 0]);
    }

    #[test]
    fn verify_points_nonzero() {
        let mut task = dot_task();
        task.params[1] = TaskParam {
            name: "a".into(),
            kind: TaskParamKind::ArrayIn {
                dims: vec!["n".into()],
                nonzero: true,
            },
        };
        let sizes = task.default_sizes();
        let mut gen = TensorGen::from_label("t2");
        let inst = task
            .instantiate(&sizes, &mut gen, ValueMode::VerifyPoints { magnitude: 10 })
            .unwrap();
        let a = &inst.env["a"];
        assert!(a.data().iter().all(|r| !r.is_zero()));
    }

    #[test]
    fn rounds_vary_sizes() {
        let task = dot_task();
        let s0 = task.sizes_for_round(0);
        let s1 = task.sizes_for_round(1);
        assert_ne!(s0["n"], s1["n"]);
    }
}
