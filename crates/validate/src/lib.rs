//! Template validation against input/output examples (§6 of the paper).
//!
//! Complete templates arriving from the search contain symbolic tensors
//! (`b, c, …`) and symbolic constants. This crate:
//!
//! - models the lifting [`LiftTask`] (kernel + logical shapes + constant
//!   pool);
//! - generates I/O examples by running the legacy kernel on random inputs
//!   ([`generate_examples`]);
//! - enumerates dimensionally-sound [`Substitution`]s (Fig. 8), applies
//!   them, and tests each instantiation against the examples
//!   ([`validate_template`]), handing survivors to the §7 verifier.
//!
//! # Example
//!
//! ```
//! use gtl_cfront::parse_c;
//! use gtl_taco::parse_program;
//! use gtl_validate::*;
//!
//! let prog = parse_c("void scale(int n, int *x, int *out) {
//!     for (int i = 0; i < n; i++) out[i] = 2 * x[i];
//! }").unwrap();
//! let task = LiftTask {
//!     func: prog.kernel().clone(),
//!     params: vec![
//!         TaskParam { name: "n".into(), kind: TaskParamKind::Size("n".into()) },
//!         TaskParam { name: "x".into(), kind: TaskParamKind::ArrayIn { dims: vec!["n".into()], nonzero: false } },
//!         TaskParam { name: "out".into(), kind: TaskParamKind::ArrayOut { dims: vec!["n".into()] } },
//!     ],
//!     output: 2,
//!     constants: vec![0, 2],
//!     ref_program: Default::default(),
//! };
//! let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
//! let template = parse_program("a(i) = b(i) * Const").unwrap();
//! let mut stats = ValidationStats::default();
//! let solution =
//!     validate_template(&template, &task, &examples, |_, _| true, &mut stats).unwrap();
//! assert_eq!(solution.to_string(), "out(i) = x(i) * 2");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod subst;
mod task;
mod validator;

pub use subst::{apply_substitution, Substitution};
pub use task::{LiftTask, TaskError, TaskInstance, TaskParam, TaskParamKind, ValueMode};
pub use validator::{
    generate_examples, validate_template, validate_template_cached, ExampleConfig, IoExample,
    ValidationStats, Validator,
};
