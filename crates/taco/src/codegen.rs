//! Lowering TACO programs to C kernels.
//!
//! The paper's verification pipeline compiles both the original C and the
//! lifted TACO program to a common language (§7, via the TACO compiler and
//! MLIR). This module provides that lowering natively: a [`TacoProgram`]
//! becomes a C loop nest — dense, row-major, one `int` extent parameter
//! per index variable — that the workspace's own C front end can parse and
//! execute. Generated kernels target the *rational* interpretation of C
//! used throughout this reproduction (division is exact), mirroring the
//! paper's rational-datatype verification.
//!
//! ```
//! use gtl_taco::{generate_c, parse_program};
//!
//! let p = parse_program("a(i) = b(i,j) * c(j)").unwrap();
//! let kernel = generate_c(&p, "gemv");
//! assert!(kernel.source.contains("for (int j = 0; j < N_j; j++)"));
//! assert_eq!(kernel.size_params, vec!["i".to_string(), "j".to_string()]);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::ast::{Access, Expr, IndexVar, TacoProgram};

/// A generated C kernel plus its calling convention.
///
/// Parameter order is: one `int N_<var>` per index variable (in
/// [`GeneratedKernel::size_params`] order), then each unique input tensor
/// as `int *<name>` ([`GeneratedKernel::tensor_params`] order), then the
/// output tensor `int *<output>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedKernel {
    /// The C source of the kernel function.
    pub source: String,
    /// Index variables with size parameters, in parameter order.
    pub size_params: Vec<String>,
    /// Unique input tensor names, in parameter order.
    pub tensor_params: Vec<String>,
    /// The output tensor name.
    pub output: String,
}

/// The dimension extents of each tensor, expressed as index variables:
/// fixed by the tensor's first access (subsequent accesses may index with
/// different variables but share these strides, exactly as TACO requires
/// consistent mode extents).
fn tensor_dims(program: &TacoProgram) -> BTreeMap<String, Vec<IndexVar>> {
    let mut dims: BTreeMap<String, Vec<IndexVar>> = BTreeMap::new();
    let mut record = |acc: &Access| {
        let entry = dims
            .entry(acc.tensor.as_str().to_string())
            .or_insert_with(|| acc.indices.clone());
        // Rank-consistent programs never change the entry; for malformed
        // ones (same tensor at different ranks — rejected by semantic
        // analysis anyway) keep the widest access so linearisation stays
        // in bounds instead of panicking.
        if acc.indices.len() > entry.len() {
            *entry = acc.indices.clone();
        }
    };
    record(&program.lhs);
    for acc in program.rhs.accesses() {
        record(acc);
    }
    dims
}

/// Row-major linearisation expression for an access, using the extents of
/// the tensor's canonical dimensions.
fn linearize(acc: &Access, dims: &BTreeMap<String, Vec<IndexVar>>) -> String {
    if acc.indices.is_empty() {
        return "0".to_string();
    }
    let canon = &dims[acc.tensor.as_str()];
    let mut expr = acc.indices[0].as_str().to_string();
    for (pos, ix) in acc.indices.iter().enumerate().skip(1) {
        let extent = format!("N_{}", canon[pos].as_str());
        expr = format!("({expr}) * {extent} + {}", ix.as_str());
    }
    expr
}

fn emit_expr(e: &Expr, dims: &BTreeMap<String, Vec<IndexVar>>, out: &mut String) {
    match e {
        Expr::Access(acc) => {
            let _ = write!(out, "{}[{}]", acc.tensor.as_str(), linearize(acc, dims));
        }
        Expr::Const(c) => {
            let _ = write!(out, "{c}");
        }
        Expr::ConstSym(_) => {
            // Templates must be instantiated before lowering; emit a
            // sentinel that fails to parse so misuse is caught loudly.
            let _ = write!(out, "<uninstantiated-const>");
        }
        Expr::Neg(inner) => {
            out.push_str("(-");
            emit_expr(inner, dims, out);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs } => {
            out.push('(');
            emit_expr(lhs, dims, out);
            let _ = write!(out, " {} ", op.symbol());
            emit_expr(rhs, dims, out);
            out.push(')');
        }
    }
}

/// Lowers a concrete TACO program to a dense C kernel.
///
/// The einsum semantics are realised directly: a loop nest over the
/// output (free) indices initialises each output element to zero, and an
/// inner nest over the summation indices accumulates the right-hand side.
///
/// # Panics
///
/// Panics if the program still contains template symbols (`Const`); lower
/// only concrete programs.
pub fn generate_c(program: &TacoProgram, func_name: &str) -> GeneratedKernel {
    assert!(
        !program.rhs.has_const_sym(),
        "lower only concrete programs (Const must be instantiated)"
    );
    let dims = tensor_dims(program);
    let size_params: Vec<String> = program
        .all_indices()
        .iter()
        .map(|ix| ix.as_str().to_string())
        .collect();
    let output = program.lhs.tensor.as_str().to_string();
    let tensor_params: Vec<String> = {
        let mut seen = Vec::new();
        for acc in program.rhs.accesses() {
            let name = acc.tensor.as_str().to_string();
            if name != output && !seen.contains(&name) {
                seen.push(name);
            }
        }
        seen
    };

    let mut src = String::new();
    let _ = write!(src, "void {func_name}(");
    let mut first = true;
    for iv in &size_params {
        if !first {
            src.push_str(", ");
        }
        first = false;
        let _ = write!(src, "int N_{iv}");
    }
    for t in &tensor_params {
        if !first {
            src.push_str(", ");
        }
        first = false;
        let _ = write!(src, "int *{t}");
    }
    if !first {
        src.push_str(", ");
    }
    let _ = writeln!(src, "int *{output}) {{");

    let indent = |n: usize| "    ".repeat(n);
    let out_indices: Vec<&IndexVar> = program.lhs.indices.iter().collect();
    let sum_indices = program.summation_indices();

    // Output loop nest.
    let mut level = 1;
    for iv in &out_indices {
        let v = iv.as_str();
        let _ = writeln!(
            src,
            "{}for (int {v} = 0; {v} < N_{v}; {v}++) {{",
            indent(level)
        );
        level += 1;
    }
    let out_lin = linearize(&program.lhs, &dims);
    let _ = writeln!(src, "{}{output}[{out_lin}] = 0;", indent(level));

    // Summation loop nest.
    for iv in &sum_indices {
        let v = iv.as_str();
        let _ = writeln!(
            src,
            "{}for (int {v} = 0; {v} < N_{v}; {v}++) {{",
            indent(level)
        );
        level += 1;
    }
    let mut rhs = String::new();
    emit_expr(&program.rhs, &dims, &mut rhs);
    let _ = writeln!(src, "{}{output}[{out_lin}] += {rhs};", indent(level));
    for _ in &sum_indices {
        level -= 1;
        let _ = writeln!(src, "{}}}", indent(level));
    }
    for _ in &out_indices {
        level -= 1;
        let _ = writeln!(src, "{}}}", indent(level));
    }
    src.push_str("}\n");

    GeneratedKernel {
        source: src,
        size_params,
        tensor_params,
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn gemv_shape() {
        let p = parse_program("a(i) = b(i,j) * c(j)").unwrap();
        let k = generate_c(&p, "gemv");
        assert_eq!(k.size_params, vec!["i", "j"]);
        assert_eq!(k.tensor_params, vec!["b", "c"]);
        assert_eq!(k.output, "a");
        assert!(k
            .source
            .contains("void gemv(int N_i, int N_j, int *b, int *c, int *a)"));
        assert!(k.source.contains("a[i] = 0;"));
        assert!(k.source.contains("a[i] += (b[(i) * N_j + j] * c[j]);"));
    }

    #[test]
    fn scalar_output() {
        let p = parse_program("a = b(i) * c(i)").unwrap();
        let k = generate_c(&p, "dot");
        assert!(k.source.contains("a[0] = 0;"));
        assert!(k.source.contains("a[0] += (b[i] * c[i]);"));
    }

    #[test]
    fn repeated_tensor_uses_first_access_strides() {
        // syrk: A appears as b(i,k) and b(j,k); both linearise against
        // the (i, k) canonical extents.
        let p = parse_program("a(i,j) = b(i,k) * b(j,k)").unwrap();
        let k = generate_c(&p, "syrk");
        assert!(k.source.contains("b[(i) * N_k + k]"));
        assert!(k.source.contains("b[(j) * N_k + k]"));
        assert_eq!(k.tensor_params, vec!["b"]);
    }

    #[test]
    fn constants_and_negation() {
        let p = parse_program("a(i) = -b(i) + 3").unwrap();
        let k = generate_c(&p, "negoff");
        assert!(k.source.contains("((-b[i]) + 3)"));
    }

    #[test]
    #[should_panic(expected = "concrete programs")]
    fn template_rejected() {
        let p = parse_program("a(i) = b(i) * Const").unwrap();
        let _ = generate_c(&p, "nope");
    }
}
