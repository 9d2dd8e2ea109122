//! Output checks that do not trust the lifter: a lifted TACO program runs
//! on the reference tree-walking TACO interpreter, the C kernel runs on
//! the tree-walking C interpreter (not the bytecode path the verifier
//! uses), and the outputs must be equal.

use std::collections::BTreeMap;

use gtl_benchsuite::{Benchmark, ParamSpec};
use gtl_cfront::run_kernel;
use gtl_taco::{evaluate_interpreted, parse_program};
use gtl_tensor::{seed_from_label, TensorGen};

use crate::Rng;

/// Checks `solution` against `bench`'s C kernel on two inputs drawn from
/// `seed`: one at the kernel's default sizes and one with every size
/// drawn from 2..=5.
///
/// # Errors
///
/// Describes the first mismatch, or why the check could not run.
pub fn check_solution(bench: &Benchmark, solution: &str, seed: u64) -> Result<(), String> {
    let program = parse_program(solution).map_err(|e| format!("solution does not parse: {e}"))?;
    let source = bench.compiled_source().map_err(|e| e.to_string())?;
    let kernel = source.program.kernel();
    let (output_index, _) = bench.output_param();
    // The C interpreter returns array arguments only, in argument order.
    let output_slot = bench.params[..output_index]
        .iter()
        .filter(|p| matches!(p, ParamSpec::ArrayIn { .. } | ParamSpec::ArrayOut { .. }))
        .count();

    let mut rng = Rng::new(seed ^ seed_from_label(bench.name));
    let drawn: BTreeMap<&str, usize> = bench
        .size_symbols()
        .into_iter()
        .map(|symbol| (symbol, 2 + rng.below(4)))
        .collect();
    for sizes in [bench.default_sizes(), drawn] {
        let mut gen = TensorGen::new(rng.next_u64());
        let instance = bench
            .instantiate(&sizes, &mut gen, -9, 9)
            .map_err(|e| format!("cannot instantiate at {sizes:?}: {e}"))?;
        let run = run_kernel(kernel, instance.args.clone())
            .map_err(|e| format!("C kernel failed at {sizes:?}: {e:?}"))?;
        let expected = run
            .arrays
            .get(output_slot)
            .ok_or_else(|| "C kernel returned no output array".to_string())?;
        let got = evaluate_interpreted(&program, &instance.env)
            .map_err(|e| format!("solution failed to evaluate at {sizes:?}: {e:?}"))?;
        if got.data() != expected.as_slice() {
            return Err(format!(
                "output differs from the C kernel at sizes {sizes:?}: {:?} vs {:?}",
                got.data(),
                expected
            ));
        }
    }
    Ok(())
}
