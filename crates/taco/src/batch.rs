//! Batched evaluation: the production TACO evaluator.
//!
//! Candidate filtering evaluates the *same template* under many
//! substitutions (tensor renamings plus `Const` instantiations) against
//! the same environment, and bounded verification evaluates one concrete
//! candidate on many random instances. Both differ between evaluations
//! only in which tensors are read and which constants multiply them.
//!
//! [`BatchKernel`] lowers the template **once** into the fixed-width
//! micro-ISA of [`crate::isa`] and evaluates a whole slice of
//! [`Lane`]s — one per substitution or instance — in a single sweep:
//!
//! - lanes binding the same shapes share one loop odometer and one set of
//!   precomputed stride walks (lanes are grouped by their per-slot shape
//!   signature first);
//! - the register file is substitution-major (structure-of-arrays: one
//!   value per lane per register), so each opcode runs as a tight loop
//!   over lanes;
//! - the checked-`i64` fast path is per-lane: an overflow or a non-integer
//!   input demotes *only that lane* (for only the affected output cell)
//!   to the exact-rational engine, keeping every lane's result —
//!   including its [`EvalError`] classification — bit-identical to the
//!   reference interpreter ([`crate::evaluate_interpreted`]) on the
//!   substituted program;
//! - product-shaped templates (GEMM, TTV, MTTKRP, dot — a pure
//!   multiplication tree) skip the register machine on the fast path and
//!   run unrolled multiply-accumulate inner loops, amortising the
//!   odometer across all lanes.
//!
//! [`crate::evaluate`] is this engine with a single identity lane.

use std::cell::OnceCell;

use gtl_tensor::{Rat, Shape, Tensor};

use crate::ast::{Expr, IndexVar, TacoProgram};
use crate::eval::EvalError;
use crate::isa::{Encoder, IsaProgram, Opcode};
use crate::semantics::{SemanticError, TensorEnv};

/// One substitution of the template: a tensor id per tensor slot and a
/// value per symbolic-constant slot. Ids index a [`LaneEnv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane<'a> {
    /// Tensor ids, aligned with [`BatchKernel::tensor_slots`].
    pub tensors: &'a [u32],
    /// Constant values, aligned with [`BatchKernel::const_slots`].
    pub constants: &'a [i64],
}

/// The tensors lanes bind, by id: a name (which errors report) and the
/// tensor, or `None` for a name with no binding. Each tensor is
/// converted to `i64` at most once per environment, however many
/// evaluations read it.
#[derive(Debug, Default)]
pub struct LaneEnv<'e> {
    entries: Vec<EnvEntry<'e>>,
}

#[derive(Debug)]
struct EnvEntry<'e> {
    name: &'e str,
    tensor: Option<&'e Tensor>,
    /// The tensor's elements as `i64`s, `None` if one is not an integer.
    ints: OnceCell<Option<Vec<i64>>>,
}

impl<'e> LaneEnv<'e> {
    /// An empty environment.
    pub fn new() -> LaneEnv<'e> {
        LaneEnv::default()
    }

    /// Binds `name` to `tensor` (`None`: unbound) and returns its id.
    pub fn push(&mut self, name: &'e str, tensor: Option<&'e Tensor>) -> u32 {
        self.entries.push(EnvEntry {
            name,
            tensor,
            ints: OnceCell::new(),
        });
        self.entries.len() as u32 - 1
    }

    /// Every binding of `env`, in name order.
    pub fn from_env(env: &'e TensorEnv) -> LaneEnv<'e> {
        let mut out = LaneEnv::new();
        for (name, tensor) in env {
            out.push(name, Some(tensor));
        }
        out
    }

    /// The id of the first binding named `name`.
    pub fn id(&self, name: &str) -> Option<u32> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(|id| id as u32)
    }

    fn name(&self, id: u32) -> &'e str {
        self.entries[id as usize].name
    }

    fn tensor(&self, id: u32) -> Result<&'e Tensor, SemanticError> {
        self.entries[id as usize]
            .tensor
            .ok_or_else(|| SemanticError::UnboundTensor {
                name: self.name(id).to_string(),
            })
    }

    fn ints(&self, id: u32) -> Option<&[i64]> {
        let entry = &self.entries[id as usize];
        entry
            .ints
            .get_or_init(|| {
                let t = entry.tensor.expect("only bound tensors are converted");
                t.data().iter().map(|r| r.to_i64()).collect()
            })
            .as_deref()
    }
}

/// One template access: which tensor slot it reads and, per index
/// position, the loop slot of its index variable (strides are resolved
/// per shape group at evaluation time).
#[derive(Debug, Clone)]
struct BatchAccess {
    slot: u32,
    loops: Vec<u32>,
}

/// Per-lane engine choice within one shape group.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Checked-`i64` fast path; `coeff` is the folded constant
    /// coefficient for the product specialisation (1 when unused).
    Int {
        /// Folded product of all constant leaves (product templates).
        coeff: i64,
    },
    /// Exact-rational engine (division, fractional or huge inputs).
    Exact,
}

/// A template lowered once for evaluation under many substitutions.
///
/// ```
/// use gtl_taco::{parse_program, BatchKernel, Lane, LaneEnv};
/// use gtl_tensor::{Rat, Shape, Tensor};
///
/// // The template leaves tensor names symbolic; each lane binds them.
/// let template = parse_program("y(i) = m(i,j) * x(j)").unwrap();
/// let kernel = BatchKernel::new(&template);
/// assert_eq!(kernel.tensor_slots(), ["m", "x"]);
///
/// let mat = Tensor::from_ints(Shape::new(vec![2, 2]), &[1, 2, 3, 4]);
/// let v = Tensor::from_ints(Shape::new(vec![2]), &[10, 100]);
/// let mut env = LaneEnv::new();
/// let ids = [env.push("mat", Some(&mat)), env.push("v", Some(&v))];
/// let lanes = [
///     Lane { tensors: &ids, constants: &[] },
///     Lane { tensors: &ids, constants: &[] },
/// ];
/// let results = kernel.evaluate_lanes(&lanes, &env);
/// assert_eq!(results[0].as_ref().unwrap().data(), &[Rat::from(210), Rat::from(430)]);
/// assert_eq!(results[0], results[1]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchKernel {
    /// The index variable of every loop: one output loop per LHS
    /// position, then the summation indices in RHS first-appearance
    /// order.
    loop_names: Vec<IndexVar>,
    /// Per LHS position, the loop slot its index variable binds: a
    /// repeated LHS index binds its later occurrence, as in the
    /// interpreter.
    lhs_loops: Vec<u32>,
    /// Template tensor names, in RHS first-use order (the slot table).
    slot_names: Vec<String>,
    /// Symbolic-constant ids, in RHS first-use order.
    const_syms: Vec<u32>,
    /// Access table, in RHS traversal order.
    accesses: Vec<BatchAccess>,
    /// The lowered instruction stream.
    isa: IsaProgram,
    /// Access ids of the product specialisation, when the template is a
    /// pure multiplication tree with at most three tensor leaves.
    product_loads: Option<Vec<u32>>,
}

impl BatchKernel {
    /// Lowers `template` into the micro-ISA. Infallible: name binding and
    /// shape checking happen per lane at evaluation time, with the checks
    /// of [`crate::analyze`].
    pub fn new(template: &TacoProgram) -> BatchKernel {
        let mut loop_names = template.lhs.indices.clone();
        loop_names.extend(template.summation_indices());
        let mut kernel = BatchKernel {
            loop_names,
            lhs_loops: Vec::new(),
            slot_names: Vec::new(),
            const_syms: Vec::new(),
            accesses: Vec::new(),
            isa: IsaProgram {
                insts: Vec::new(),
                n_regs: 0,
                imms: Vec::new(),
                n_syms: 0,
                has_div: false,
            },
            product_loads: None,
        };
        kernel.lhs_loops = template
            .lhs
            .indices
            .iter()
            .map(|ix| kernel.loop_slot(ix))
            .collect();
        let mut enc = Encoder::new();
        kernel.lower(&template.rhs, 0, &mut enc);
        kernel.isa = enc.finish();
        kernel.product_loads = kernel.isa.product_loads();
        kernel
    }

    /// The loop slot an index variable binds: its last occurrence among
    /// the loops (LHS and summation indices are disjoint, so only a
    /// repeated LHS index has more than one).
    fn loop_slot(&self, ix: &IndexVar) -> u32 {
        self.loop_names
            .iter()
            .rposition(|n| n == ix)
            .expect("every RHS index is an output or a summation index") as u32
    }

    /// Postorder lowering with depth registers: an expression at depth `d`
    /// leaves its value in register `d`.
    fn lower(&mut self, expr: &Expr, depth: u16, enc: &mut Encoder) {
        match expr {
            Expr::Access(acc) => {
                let name = acc.tensor.as_str();
                let slot = match self.slot_names.iter().position(|n| n == name) {
                    Some(s) => s as u32,
                    None => {
                        self.slot_names.push(name.to_string());
                        (self.slot_names.len() - 1) as u32
                    }
                };
                let access = self.accesses.len() as u32;
                let loops = acc.indices.iter().map(|ix| self.loop_slot(ix)).collect();
                self.accesses.push(BatchAccess { slot, loops });
                enc.load(depth, access);
            }
            Expr::Const(c) => enc.const_imm(depth, *c),
            Expr::ConstSym(id) => {
                let sym = match self.const_syms.iter().position(|s| s == id) {
                    Some(s) => s,
                    None => {
                        self.const_syms.push(*id);
                        self.const_syms.len() - 1
                    }
                };
                enc.const_sym(depth, sym as u16);
            }
            Expr::Neg(inner) => {
                self.lower(inner, depth, enc);
                enc.neg(depth, depth);
            }
            Expr::Binary { op, lhs, rhs } => {
                self.lower(lhs, depth, enc);
                self.lower(rhs, depth + 1, enc);
                enc.bin(*op, depth, depth, depth + 1);
            }
        }
    }

    /// The template's tensor slots: names in RHS first-use order. A
    /// [`Lane`] binds one concrete tensor name per entry.
    pub fn tensor_slots(&self) -> &[String] {
        &self.slot_names
    }

    /// The rank every access of tensor slot `slot` reads it at, or `None`
    /// when two accesses disagree.
    pub fn slot_rank(&self, slot: usize) -> Option<usize> {
        let mut ranks = self
            .accesses
            .iter()
            .filter(|acc| acc.slot as usize == slot)
            .map(|acc| acc.loops.len());
        let first = ranks.next()?;
        ranks.all(|r| r == first).then_some(first)
    }

    /// The template's symbolic-constant slots, in RHS first-use order. A
    /// [`Lane`] binds one `i64` per entry.
    pub fn const_slots(&self) -> &[u32] {
        &self.const_syms
    }

    /// The lowered instruction stream (for inspection and benchmarks).
    pub fn isa(&self) -> &IsaProgram {
        &self.isa
    }

    /// Per-lane semantic analysis: the same walk, checks and error
    /// construction as [`crate::analyze`] on the substituted program (the
    /// access table preserves RHS traversal order, so the *first* error
    /// matches too), with the lane's concrete names in every error.
    ///
    /// Returns the extent of every loop and the tensor bound to every
    /// slot.
    fn analyze_lane<'e>(
        &self,
        lane: &Lane<'_>,
        env: &LaneEnv<'e>,
    ) -> Result<(Vec<usize>, Vec<&'e Tensor>), SemanticError> {
        let mut extents: Vec<Option<usize>> = vec![None; self.loop_names.len()];
        let mut bound: Vec<Option<&Tensor>> = vec![None; self.slot_names.len()];
        for acc in &self.accesses {
            let id = lane.tensors[acc.slot as usize];
            let t = match bound[acc.slot as usize] {
                Some(t) => t,
                None => env.tensor(id)?,
            };
            bound[acc.slot as usize] = Some(t);
            if t.rank() != acc.loops.len() {
                return Err(SemanticError::RankMismatch {
                    name: env.name(id).to_string(),
                    access_rank: acc.loops.len(),
                    bound_rank: t.rank(),
                });
            }
            for (&l, &extent) in acc.loops.iter().zip(t.shape().extents()) {
                match extents[l as usize] {
                    None => extents[l as usize] = Some(extent),
                    Some(first) if first != extent => {
                        return Err(SemanticError::ExtentMismatch {
                            index: self.loop_names[l as usize].as_str().to_string(),
                            first,
                            second: extent,
                        })
                    }
                    Some(_) => {}
                }
            }
        }
        // Output loops take their extent from the slot their index binds.
        let mut loop_extents = Vec::with_capacity(extents.len());
        for (k, &l) in self.lhs_loops.iter().enumerate() {
            match extents[l as usize] {
                Some(extent) => loop_extents.push(extent),
                None => {
                    return Err(SemanticError::UnconstrainedOutputIndex {
                        index: self.loop_names[k].as_str().to_string(),
                    })
                }
            }
        }
        loop_extents.extend(
            extents[self.lhs_loops.len()..]
                .iter()
                .map(|e| e.expect("a summation index occurs on the RHS")),
        );
        let bound = bound
            .into_iter()
            .map(|t| t.expect("every slot is accessed"))
            .collect();
        Ok((loop_extents, bound))
    }

    /// Folds every constant leaf into one `i64` coefficient for the
    /// product fast path; `None` (overflow) sends the lane to the exact
    /// engine, which computes the identical value.
    fn fold_coeff(&self, lane: &Lane<'_>) -> Option<i64> {
        let mut coeff = 1i64;
        for inst in &self.isa.insts {
            let c = match inst.op {
                Opcode::ConstImm => self.isa.imms[inst.a as usize],
                Opcode::ConstSym => lane.constants[inst.a as usize],
                _ => continue,
            };
            coeff = coeff.checked_mul(c)?;
        }
        Some(coeff)
    }

    /// Evaluates every lane against `env` in one pass.
    ///
    /// Returns one result per lane, in lane order. Each result is
    /// bit-identical — value and [`EvalError`] classification — to
    /// [`crate::evaluate`] on the program obtained by substituting the
    /// lane's tensor names and constants into the template.
    ///
    /// # Panics
    ///
    /// Panics if a lane's `tensors`/`constants` arity does not match
    /// [`BatchKernel::tensor_slots`]/[`BatchKernel::const_slots`]; that is
    /// a caller bug, not a candidate failure.
    pub fn evaluate_lanes(
        &self,
        lanes: &[Lane<'_>],
        env: &LaneEnv<'_>,
    ) -> Vec<Result<Tensor, EvalError>> {
        /// Lanes binding the same shape to every slot.
        struct Group {
            ids: Vec<usize>,
            loop_extents: Vec<usize>,
        }
        let mut results: Vec<Option<Result<Tensor, EvalError>>> =
            (0..lanes.len()).map(|_| None).collect();
        let mut bound: Vec<Vec<&Tensor>> = vec![Vec::new(); lanes.len()];
        let mut groups: Vec<Group> = Vec::new();
        for (i, lane) in lanes.iter().enumerate() {
            assert_eq!(
                lane.tensors.len(),
                self.slot_names.len(),
                "lane binds one tensor per slot"
            );
            assert_eq!(
                lane.constants.len(),
                self.const_syms.len(),
                "lane binds one value per constant slot"
            );
            match self.analyze_lane(lane, env) {
                Err(e) => results[i] = Some(Err(EvalError::Semantic(e))),
                Ok((loop_extents, tensors)) => {
                    bound[i] = tensors;
                    let same_shapes = |g: &&mut Group| {
                        let first = &bound[g.ids[0]];
                        first
                            .iter()
                            .zip(&bound[i])
                            .all(|(a, b)| a.shape() == b.shape())
                    };
                    match groups.iter_mut().find(same_shapes) {
                        Some(g) => g.ids.push(i),
                        None => groups.push(Group {
                            ids: vec![i],
                            loop_extents,
                        }),
                    }
                }
            }
        }
        for g in &groups {
            self.run_group(lanes, env, &g.ids, &g.loop_extents, &bound, &mut results);
        }
        results
            .into_iter()
            .map(|r| r.expect("every lane resolved"))
            .collect()
    }

    /// Evaluates the lanes of one shape group: shared odometer, shared
    /// strides, lane-major registers.
    ///
    /// `loop_extents` holds the output loops' extents, then the summation
    /// loops'; `bound[id]` is the tensor lane `id` binds to every slot.
    fn run_group(
        &self,
        lanes: &[Lane<'_>],
        env: &LaneEnv<'_>,
        ids: &[usize],
        loop_extents: &[usize],
        bound: &[Vec<&Tensor>],
        results: &mut [Option<Result<Tensor, EvalError>>],
    ) {
        let n_out = self.lhs_loops.len();
        let out_extents = &loop_extents[..n_out];
        let n_loops = loop_extents.len();

        // Shared stride walks: every lane in the group binds the same
        // shape per slot, so one stride table serves them all.
        let first = &bound[ids[0]];
        let strides: Vec<Vec<(u32, usize)>> = self
            .accesses
            .iter()
            .map(|acc| {
                let extents = first[acc.slot as usize].shape().extents();
                access_strides(&acc.loops, extents, |&l| l)
            })
            .collect();
        let mut out_updates = vec![Vec::new(); n_out];
        let mut sum_updates = vec![Vec::new(); n_loops - n_out];
        for (a, plan) in strides.iter().enumerate() {
            for &(slot, stride) in plan {
                let slot = slot as usize;
                if slot < n_out {
                    out_updates[slot].push((a as u32, stride));
                } else {
                    sum_updates[slot - n_out].push((a as u32, stride));
                }
            }
        }
        let sum_iters: usize = loop_extents[n_out..].iter().product();
        let nl = ids.len();

        // Per-lane rational data, one slice per access.
        let acc_rats: Vec<Vec<&[Rat]>> = ids
            .iter()
            .map(|&id| {
                self.accesses
                    .iter()
                    .map(|acc| bound[id][acc.slot as usize].data())
                    .collect()
            })
            .collect();

        // The i64 fast path needs a division-free template, a real
        // summation (with none, every element is read once and the
        // conversion would cost more than it saves), and (per lane) every
        // input element an i64 integer.
        // Conversion is memoised per environment entry, so a tensor
        // shared by many lanes and evaluations converts once.
        let int_eligible = !self.isa.has_div && sum_iters > 1;
        let modes: Vec<Mode> = ids
            .iter()
            .map(|&id| {
                if !int_eligible {
                    return Mode::Exact;
                }
                let lane = &lanes[id];
                if lane.tensors.iter().any(|&t| env.ints(t).is_none()) {
                    return Mode::Exact;
                }
                if self.product_loads.is_some() {
                    match self.fold_coeff(lane) {
                        Some(coeff) => Mode::Int { coeff },
                        None => Mode::Exact,
                    }
                } else {
                    Mode::Int { coeff: 1 }
                }
            })
            .collect();
        let acc_ints: Vec<Option<Vec<&[i64]>>> = ids
            .iter()
            .zip(&modes)
            .map(|(&id, mode)| {
                matches!(mode, Mode::Int { .. }).then(|| {
                    self.accesses
                        .iter()
                        .map(|acc| {
                            env.ints(lanes[id].tensors[acc.slot as usize])
                                .expect("int mode implies integer conversion")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();

        // Product fast-path plan: for every int-mode lane, the folded
        // coefficient and its per-load data slices, resolved once per
        // group. The cell loop below runs out_len × lanes iterations;
        // re-deriving these per iteration (mode match, Option unwrap,
        // slot indexing) costs more than the 8-element inner products
        // it wraps.
        const EMPTY: &[i64] = &[];
        let int_plan: Vec<(usize, i64, [&[i64]; 3])> = self
            .product_loads
            .as_ref()
            .map(|loads| {
                modes
                    .iter()
                    .enumerate()
                    .filter_map(|(pos, mode)| {
                        let Mode::Int { coeff } = *mode else {
                            return None;
                        };
                        let data = acc_ints[pos].as_ref().expect("int lane has data");
                        let mut d = [EMPTY; 3];
                        for (i, &a) in loads.iter().enumerate() {
                            d[i] = data[a as usize];
                        }
                        Some((pos, coeff, d))
                    })
                    .collect()
            })
            .unwrap_or_default();

        // Product specialisation: per-load stride along the innermost
        // summation dimension, shared by the whole group.
        let prod_inner: Option<Vec<usize>> = self.product_loads.as_ref().map(|loads| {
            let inner_slot = (n_loops > n_out).then(|| (n_loops - 1) as u32);
            loads
                .iter()
                .map(|&a| {
                    inner_slot
                        .and_then(|s| {
                            strides[a as usize]
                                .iter()
                                .find(|(slot, _)| *slot == s)
                                .map(|&(_, stride)| stride)
                        })
                        .unwrap_or(0)
                })
                .collect()
        });

        let out_len: usize = out_extents.iter().product();
        let mut state = LoopState {
            counters: vec![0usize; n_loops],
            base_off: vec![0usize; self.accesses.len()],
            sum_off: vec![0usize; self.accesses.len()],
        };
        let n_regs = self.isa.n_regs;
        let mut regs_i = vec![0i64; n_regs * nl];
        let mut regs_r = vec![Rat::ZERO; n_regs * nl];
        let mut outs: Vec<Vec<Rat>> = ids.iter().map(|_| Vec::with_capacity(out_len)).collect();
        let mut lane_err: Vec<Option<EvalError>> = vec![None; nl];
        let mut cell_vals: Vec<Rat> = vec![Rat::ZERO; nl];
        let mut int_alive: Vec<bool> = vec![false; nl];
        let mut int_accs: Vec<i64> = vec![0i64; nl];
        let mut rat_run: Vec<bool> = vec![false; nl];
        let mut rat_accs: Vec<Rat> = vec![Rat::ZERO; nl];

        for _ in 0..out_len {
            // Which lanes attempt the fast path this cell; a mid-cell
            // overflow flips the lane into `rat_run` (per-cell demotion).
            let mut any_int = false;
            for (pos, mode) in modes.iter().enumerate() {
                int_alive[pos] = matches!(mode, Mode::Int { .. }) && lane_err[pos].is_none();
                any_int |= int_alive[pos];
                rat_run[pos] = matches!(mode, Mode::Exact) && lane_err[pos].is_none();
            }
            if any_int {
                match (&self.product_loads, &prod_inner) {
                    (Some(loads), Some(inner_strides)) => {
                        // Tight multiply-accumulate sweep: the inner
                        // summation dimension runs over local offsets, the
                        // outer dims advance the shared odometer. State
                        // wraps back to zero after the full sweep.
                        let has_sum = n_loops > n_out;
                        let inner = if has_sum { loop_extents[n_loops - 1] } else { 1 };
                        if inner == 0 || sum_iters == 0 {
                            for pos in 0..nl {
                                if int_alive[pos] {
                                    cell_vals[pos] = Rat::ZERO;
                                }
                            }
                        } else {
                            let outer_iters = sum_iters / inner;
                            for acc in int_accs.iter_mut() {
                                *acc = 0;
                            }
                            for _ in 0..outer_iters {
                                // The load offsets depend only on the shared
                                // odometer, never on the lane — resolve them
                                // once per outer step, not once per lane.
                                let mut offs = [0usize; 3];
                                for (i, &a) in loads.iter().enumerate() {
                                    let a = a as usize;
                                    offs[i] = state.base_off[a] + state.sum_off[a];
                                }
                                for &(pos, coeff, d) in &int_plan {
                                    if !int_alive[pos] {
                                        continue;
                                    }
                                    let part = match loads.len() {
                                        1 => inner_product1(
                                            d[0],
                                            offs[0],
                                            inner_strides[0],
                                            coeff,
                                            inner,
                                        ),
                                        2 => inner_product2(
                                            d[0],
                                            offs[0],
                                            inner_strides[0],
                                            d[1],
                                            offs[1],
                                            inner_strides[1],
                                            coeff,
                                            inner,
                                        ),
                                        _ => inner_product3(
                                            d[0],
                                            offs[0],
                                            inner_strides[0],
                                            d[1],
                                            offs[1],
                                            inner_strides[1],
                                            d[2],
                                            offs[2],
                                            inner_strides[2],
                                            coeff,
                                            inner,
                                        ),
                                    };
                                    match part.and_then(|p| int_accs[pos].checked_add(p)) {
                                        Some(v) => int_accs[pos] = v,
                                        None => {
                                            int_alive[pos] = false;
                                            rat_run[pos] = true;
                                        }
                                    }
                                }
                                if has_sum {
                                    advance(
                                        &mut state.counters[n_out..n_loops - 1],
                                        &loop_extents[n_out..n_loops - 1],
                                        &sum_updates[..sum_updates.len() - 1],
                                        &mut state.sum_off,
                                    );
                                }
                            }
                            for pos in 0..nl {
                                if int_alive[pos] {
                                    cell_vals[pos] = Rat::from(int_accs[pos]);
                                }
                            }
                        }
                    }
                    _ => {
                        // Generic SoA sweep over the register machine
                        // (sum_iters > 1 is guaranteed by the gate).
                        for acc in int_accs.iter_mut() {
                            *acc = 0;
                        }
                        for _ in 0..sum_iters {
                            for inst in &self.isa.insts {
                                let d = inst.dst as usize * nl;
                                match inst.op {
                                    Opcode::LoadSlot => {
                                        let a = inst.a as usize;
                                        let off = state.base_off[a] + state.sum_off[a];
                                        for pos in 0..nl {
                                            if int_alive[pos] {
                                                regs_i[d + pos] = acc_ints[pos]
                                                    .as_ref()
                                                    .expect("int lane has data")[a][off];
                                            }
                                        }
                                    }
                                    Opcode::ConstImm => {
                                        let v = self.isa.imms[inst.a as usize];
                                        for pos in 0..nl {
                                            if int_alive[pos] {
                                                regs_i[d + pos] = v;
                                            }
                                        }
                                    }
                                    Opcode::ConstSym => {
                                        let sym = inst.a as usize;
                                        for pos in 0..nl {
                                            if int_alive[pos] {
                                                regs_i[d + pos] = lanes[ids[pos]].constants[sym];
                                            }
                                        }
                                    }
                                    Opcode::Neg => {
                                        let s = inst.a as usize * nl;
                                        for pos in 0..nl {
                                            if !int_alive[pos] {
                                                continue;
                                            }
                                            match regs_i[s + pos].checked_neg() {
                                                Some(v) => regs_i[d + pos] = v,
                                                None => {
                                                    int_alive[pos] = false;
                                                    rat_run[pos] = true;
                                                }
                                            }
                                        }
                                    }
                                    Opcode::Add | Opcode::Sub | Opcode::Mul => {
                                        let a = inst.a as usize * nl;
                                        let b = inst.b as usize * nl;
                                        for pos in 0..nl {
                                            if !int_alive[pos] {
                                                continue;
                                            }
                                            let (x, y) = (regs_i[a + pos], regs_i[b + pos]);
                                            let r = match inst.op {
                                                Opcode::Add => x.checked_add(y),
                                                Opcode::Sub => x.checked_sub(y),
                                                _ => x.checked_mul(y),
                                            };
                                            match r {
                                                Some(v) => regs_i[d + pos] = v,
                                                None => {
                                                    int_alive[pos] = false;
                                                    rat_run[pos] = true;
                                                }
                                            }
                                        }
                                    }
                                    Opcode::Div => unreachable!("i64 mode is division-free"),
                                }
                            }
                            for pos in 0..nl {
                                if !int_alive[pos] {
                                    continue;
                                }
                                match int_accs[pos].checked_add(regs_i[pos]) {
                                    Some(v) => int_accs[pos] = v,
                                    None => {
                                        int_alive[pos] = false;
                                        rat_run[pos] = true;
                                    }
                                }
                            }
                            advance(
                                &mut state.counters[n_out..],
                                &loop_extents[n_out..],
                                &sum_updates,
                                &mut state.sum_off,
                            );
                        }
                        for pos in 0..nl {
                            if int_alive[pos] {
                                cell_vals[pos] = Rat::from(int_accs[pos]);
                            }
                        }
                    }
                }
            }
            // Exact sweep: rational-mode lanes plus any lane the fast
            // path demoted this cell. Strict postorder per iteration, so
            // error classification (and the failing op) matches the
            // interpreter exactly.
            if rat_run.iter().any(|&b| b) {
                if sum_iters == 0 {
                    for pos in 0..nl {
                        if rat_run[pos] {
                            cell_vals[pos] = Rat::ZERO;
                        }
                    }
                } else {
                    for acc in rat_accs.iter_mut() {
                        *acc = Rat::ZERO;
                    }
                    for _ in 0..sum_iters {
                        for inst in &self.isa.insts {
                            let d = inst.dst as usize * nl;
                            match inst.op {
                                Opcode::LoadSlot => {
                                    let a = inst.a as usize;
                                    let off = state.base_off[a] + state.sum_off[a];
                                    for pos in 0..nl {
                                        if rat_run[pos] {
                                            regs_r[d + pos] = acc_rats[pos][a][off];
                                        }
                                    }
                                }
                                Opcode::ConstImm => {
                                    let v = Rat::from(self.isa.imms[inst.a as usize]);
                                    for pos in 0..nl {
                                        if rat_run[pos] {
                                            regs_r[d + pos] = v;
                                        }
                                    }
                                }
                                Opcode::ConstSym => {
                                    let sym = inst.a as usize;
                                    for pos in 0..nl {
                                        if rat_run[pos] {
                                            regs_r[d + pos] =
                                                Rat::from(lanes[ids[pos]].constants[sym]);
                                        }
                                    }
                                }
                                Opcode::Neg => {
                                    let s = inst.a as usize * nl;
                                    for pos in 0..nl {
                                        if rat_run[pos] {
                                            regs_r[d + pos] = -regs_r[s + pos];
                                        }
                                    }
                                }
                                Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::Div => {
                                    let a = inst.a as usize * nl;
                                    let b = inst.b as usize * nl;
                                    for pos in 0..nl {
                                        if !rat_run[pos] {
                                            continue;
                                        }
                                        let (x, y) = (regs_r[a + pos], regs_r[b + pos]);
                                        let r = match inst.op {
                                            Opcode::Add => x.checked_add(y),
                                            Opcode::Sub => x.checked_sub(y),
                                            Opcode::Mul => x.checked_mul(y),
                                            _ => x.checked_div(y),
                                        };
                                        match r {
                                            Ok(v) => regs_r[d + pos] = v,
                                            Err(e) => {
                                                lane_err[pos] = Some(e.into());
                                                rat_run[pos] = false;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        for pos in 0..nl {
                            if !rat_run[pos] {
                                continue;
                            }
                            match rat_accs[pos].checked_add(regs_r[pos]) {
                                Ok(v) => rat_accs[pos] = v,
                                Err(e) => {
                                    lane_err[pos] = Some(e.into());
                                    rat_run[pos] = false;
                                }
                            }
                        }
                        advance(
                            &mut state.counters[n_out..],
                            &loop_extents[n_out..],
                            &sum_updates,
                            &mut state.sum_off,
                        );
                    }
                    for pos in 0..nl {
                        if rat_run[pos] {
                            cell_vals[pos] = rat_accs[pos];
                        }
                    }
                }
            }
            for pos in 0..nl {
                if lane_err[pos].is_none() {
                    outs[pos].push(cell_vals[pos]);
                }
            }
            advance(
                &mut state.counters[..n_out],
                &loop_extents[..n_out],
                &out_updates,
                &mut state.base_off,
            );
        }

        for (pos, &id) in ids.iter().enumerate() {
            results[id] = Some(match lane_err[pos].take() {
                Some(e) => Err(e),
                None => Ok(Tensor::from_data(
                    Shape::new(out_extents.to_vec()),
                    std::mem::take(&mut outs[pos]),
                )
                .expect("output length matches shape")),
            });
        }
    }
}

/// The loop nest's mutable state: raw counters plus per-access offsets
/// maintained incrementally (output contribution and summation
/// contribution kept separate, so a full summation sweep wraps the latter
/// back to zero).
struct LoopState {
    counters: Vec<usize>,
    base_off: Vec<usize>,
    sum_off: Vec<usize>,
}

/// Row-major `(loop slot, stride)` pairs for one access: stride of dim
/// `d` is the product of the extents of all later dims, and a repeated
/// index (diagonal access) merges into one pair with the summed stride.
/// The single source of the layout rule shared with the interpreter
/// ([`crate::eval`]).
pub(crate) fn access_strides<I, S: Copy + PartialEq>(
    indices: &[I],
    extents: &[usize],
    mut slot_of: impl FnMut(&I) -> S,
) -> Vec<(S, usize)> {
    let mut strides: Vec<(S, usize)> = Vec::with_capacity(indices.len());
    let mut stride = 1usize;
    for (ix, &extent) in indices.iter().zip(extents).rev() {
        let slot = slot_of(ix);
        match strides.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, st)) => *st += stride,
            None => strides.push((slot, stride)),
        }
        stride *= extent;
    }
    strides.reverse();
    strides
}

/// Advances a row-major odometer one step (rightmost fastest), applying
/// each moved counter's stride deltas to the affected access offsets.
#[inline]
fn advance(
    counters: &mut [usize],
    extents: &[usize],
    updates: &[Vec<(u32, usize)>],
    offs: &mut [usize],
) {
    for slot in (0..counters.len()).rev() {
        counters[slot] += 1;
        if counters[slot] < extents[slot] {
            for &(a, stride) in &updates[slot] {
                offs[a as usize] += stride;
            }
            return;
        }
        counters[slot] = 0;
        for &(a, stride) in &updates[slot] {
            offs[a as usize] -= (extents[slot] - 1) * stride;
        }
    }
}

/// `coeff · Σ_t d[o + t·s]` with checked arithmetic; `None` = fall back.
#[inline]
fn inner_product1(d: &[i64], mut o: usize, s: usize, coeff: i64, n: usize) -> Option<i64> {
    let mut acc = 0i64;
    if coeff == 1 {
        for _ in 0..n {
            acc = acc.checked_add(d[o])?;
            o += s;
        }
    } else {
        for _ in 0..n {
            acc = acc.checked_add(coeff.checked_mul(d[o])?)?;
            o += s;
        }
    }
    Some(acc)
}

/// `coeff · Σ_t d0[o0 + t·s0] · d1[o1 + t·s1]` with checked arithmetic.
#[allow(clippy::too_many_arguments)]
#[inline]
fn inner_product2(
    d0: &[i64],
    mut o0: usize,
    s0: usize,
    d1: &[i64],
    mut o1: usize,
    s1: usize,
    coeff: i64,
    n: usize,
) -> Option<i64> {
    let mut acc = 0i64;
    if coeff == 1 {
        for _ in 0..n {
            acc = acc.checked_add(d0[o0].checked_mul(d1[o1])?)?;
            o0 += s0;
            o1 += s1;
        }
    } else {
        for _ in 0..n {
            acc = acc.checked_add(coeff.checked_mul(d0[o0])?.checked_mul(d1[o1])?)?;
            o0 += s0;
            o1 += s1;
        }
    }
    Some(acc)
}

/// Three-load variant of [`inner_product2`] (MTTKRP shape).
#[allow(clippy::too_many_arguments)]
#[inline]
fn inner_product3(
    d0: &[i64],
    mut o0: usize,
    s0: usize,
    d1: &[i64],
    mut o1: usize,
    s1: usize,
    d2: &[i64],
    mut o2: usize,
    s2: usize,
    coeff: i64,
    n: usize,
) -> Option<i64> {
    let mut acc = 0i64;
    if coeff == 1 {
        for _ in 0..n {
            acc = acc.checked_add(d0[o0].checked_mul(d1[o1])?.checked_mul(d2[o2])?)?;
            o0 += s0;
            o1 += s1;
            o2 += s2;
        }
    } else {
        for _ in 0..n {
            acc = acc.checked_add(
                coeff
                    .checked_mul(d0[o0])?
                    .checked_mul(d1[o1])?
                    .checked_mul(d2[o2])?,
            )?;
            o0 += s0;
            o1 += s1;
            o2 += s2;
        }
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Access, Ident};
    use crate::eval::evaluate_interpreted;
    use crate::parser::parse_program;
    use gtl_tensor::RatError;
    use std::collections::HashMap as Map;

    fn env(entries: &[(&str, Shape, &[i64])]) -> TensorEnv {
        let mut e = TensorEnv::new();
        for (name, shape, data) in entries {
            e.insert(name.to_string(), Tensor::from_ints(shape.clone(), data));
        }
        e
    }

    /// A lane by tensor names; [`eval_named`] resolves the names.
    #[derive(Debug)]
    struct Named {
        tensors: Vec<&'static str>,
        constants: Vec<i64>,
    }

    /// Evaluates named lanes: each name binds its tensor in `env`, a
    /// name `env` lacks binds nothing.
    fn eval_named(
        k: &BatchKernel,
        lanes: &[Named],
        env: &TensorEnv,
    ) -> Vec<Result<Tensor, EvalError>> {
        let mut lane_env = LaneEnv::from_env(env);
        let ids: Vec<Vec<u32>> = lanes
            .iter()
            .map(|l| {
                l.tensors
                    .iter()
                    .map(|n| lane_env.id(n).unwrap_or_else(|| lane_env.push(n, None)))
                    .collect()
            })
            .collect();
        let views: Vec<Lane<'_>> = lanes
            .iter()
            .zip(&ids)
            .map(|(l, ids)| Lane {
                tensors: ids,
                constants: &l.constants,
            })
            .collect();
        k.evaluate_lanes(&views, &lane_env)
    }

    /// Applies a lane to the template: rename every tensor by slot,
    /// replace every `Const` by its value.
    fn concretize(k: &BatchKernel, t: &TacoProgram, lane: &Named) -> TacoProgram {
        let names: Map<&str, &str> = k
            .tensor_slots()
            .iter()
            .map(String::as_str)
            .zip(lane.tensors.iter().copied())
            .collect();
        let consts: Map<u32, i64> = k
            .const_slots()
            .iter()
            .copied()
            .zip(lane.constants.iter().copied())
            .collect();
        fn walk(e: &Expr, names: &Map<&str, &str>, consts: &Map<u32, i64>) -> Expr {
            match e {
                Expr::Access(acc) => Expr::Access(Access {
                    tensor: Ident::new(names[acc.tensor.as_str()]),
                    indices: acc.indices.clone(),
                }),
                Expr::Const(c) => Expr::Const(*c),
                Expr::ConstSym(id) => Expr::Const(consts[id]),
                Expr::Neg(inner) => Expr::Neg(Box::new(walk(inner, names, consts))),
                Expr::Binary { op, lhs, rhs } => Expr::Binary {
                    op: *op,
                    lhs: Box::new(walk(lhs, names, consts)),
                    rhs: Box::new(walk(rhs, names, consts)),
                },
            }
        }
        TacoProgram {
            lhs: t.lhs.clone(),
            rhs: walk(&t.rhs, &names, &consts),
        }
    }

    /// The batch result of every lane must equal the reference
    /// interpreter on the substituted program — values and error
    /// classification.
    fn assert_lanes_match_interpreter(src: &str, lanes: &[Named], env: &TensorEnv) {
        let t = parse_program(src).unwrap();
        let k = BatchKernel::new(&t);
        let got = eval_named(&k, lanes, env);
        assert_eq!(got.len(), lanes.len());
        for (lane, got) in lanes.iter().zip(&got) {
            let concrete = concretize(&k, &t, lane);
            let want = evaluate_interpreted(&concrete, env);
            assert_eq!(got, &want, "lane {lane:?} diverged from the interpreter");
        }
    }

    fn lane(tensors: &[&'static str]) -> Named {
        Named {
            tensors: tensors.to_vec(),
            constants: vec![],
        }
    }

    fn lane_c(tensors: &[&'static str], constants: &[i64]) -> Named {
        Named {
            tensors: tensors.to_vec(),
            constants: constants.to_vec(),
        }
    }

    #[test]
    fn gemv_lanes_across_shape_groups_match_interpreter() {
        let e = env(&[
            ("m1", Shape::new(vec![2, 3]), &[1, 2, 3, 4, 5, 6]),
            ("x1", Shape::new(vec![3]), &[1, 0, 2]),
            ("m2", Shape::new(vec![2, 2]), &[7, 8, 9, 10]),
            ("x2", Shape::new(vec![2]), &[5, -3]),
        ]);
        // Two distinct shape groups plus a duplicate lane.
        let lanes = [
            lane(&["m1", "x1"]),
            lane(&["m2", "x2"]),
            lane(&["m1", "x1"]),
        ];
        assert_lanes_match_interpreter("y(i) = m(i,j) * x(j)", &lanes, &e);
    }

    #[test]
    fn const_sym_lanes_match_interpreter() {
        let big = 600_000_000_000_000_000i64;
        let e = env(&[
            ("b1", Shape::new(vec![4]), &[1, -2, 3, 4]),
            ("b2", Shape::new(vec![4]), &[big, big, 1, 1]),
        ]);
        let t = "a = b(i) * Const";
        let lanes = [
            lane_c(&["b1"], &[3]),
            lane_c(&["b1"], &[-7]),
            // coeff * big overflows i64 mid-sweep: per-lane demotion.
            lane_c(&["b2"], &[1_000_000]),
            lane_c(&["b2"], &[0]),
        ];
        assert_lanes_match_interpreter(t, &lanes, &e);
    }

    #[test]
    fn mttkrp_three_load_product_matches_interpreter() {
        let e = env(&[
            ("b", Shape::new(vec![2, 2, 2]), &[1, 2, 3, 4, 5, 6, 7, 8]),
            ("c", Shape::new(vec![2, 3]), &[1, -1, 2, 0, 3, 1]),
            ("d", Shape::new(vec![2, 3]), &[2, 1, 0, -2, 1, 1]),
        ]);
        let lanes = [lane(&["b", "c", "d"]), lane(&["b", "d", "c"])];
        assert_lanes_match_interpreter("a(i,j) = b(i,k,l) * c(k,j) * d(l,j)", &lanes, &e);
    }

    #[test]
    fn generic_engine_with_add_and_neg_matches_interpreter() {
        let big = 9_000_000_000_000_000_000i64;
        let e = env(&[
            ("b1", Shape::new(vec![2, 3]), &[1, 2, 3, 4, 5, 6]),
            ("c1", Shape::new(vec![3]), &[7, -8, 9]),
            ("bh", Shape::new(vec![2, 3]), &[big, big, big, big, big, big]),
        ]);
        // Addition + negation: not a product, exercises the SoA register
        // machine; the huge lane overflows per cell and demotes alone.
        let lanes = [
            lane(&["b1", "c1"]),
            lane(&["bh", "c1"]),
            lane(&["b1", "c1"]),
        ];
        assert_lanes_match_interpreter("a(i) = b(i,j) + -c(j)", &lanes, &e);
    }

    #[test]
    fn division_runs_exact_and_classifies_errors() {
        let e = env(&[
            ("b", Shape::new(vec![2]), &[1, 3]),
            ("c", Shape::new(vec![2]), &[2, 4]),
            ("cz", Shape::new(vec![2]), &[1, 0]),
        ]);
        let lanes = [lane(&["b", "c"]), lane(&["b", "cz"]), lane(&["c", "b"])];
        let t = parse_program("a(i) = b(i) / c(i)").unwrap();
        let k = BatchKernel::new(&t);
        let got = eval_named(&k, &lanes, &e);
        assert_eq!(
            got[1],
            Err(EvalError::Arithmetic(RatError::DivisionByZero)),
            "zero divisor classified"
        );
        assert_lanes_match_interpreter("a(i) = b(i) / c(i)", &lanes, &e);
    }

    #[test]
    fn semantic_errors_are_per_lane_and_identical() {
        let e = env(&[
            ("m1", Shape::new(vec![2, 3]), &[1, 2, 3, 4, 5, 6]),
            ("x1", Shape::new(vec![3]), &[1, 0, 2]),
            ("x2", Shape::new(vec![2]), &[5, -3]),
        ]);
        let lanes = [
            lane(&["m1", "x1"]),
            lane(&["m1", "zz"]), // unbound tensor
            lane(&["x1", "m1"]), // rank mismatch
            lane(&["m1", "x2"]), // extent mismatch (j: 3 vs 2)
        ];
        let t = parse_program("y(i) = m(i,j) * x(j)").unwrap();
        let k = BatchKernel::new(&t);
        let got = eval_named(&k, &lanes, &e);
        assert!(got[0].is_ok());
        assert!(matches!(
            got[1],
            Err(EvalError::Semantic(SemanticError::UnboundTensor { .. }))
        ));
        assert!(matches!(
            got[2],
            Err(EvalError::Semantic(SemanticError::RankMismatch { .. }))
        ));
        assert!(matches!(
            got[3],
            Err(EvalError::Semantic(SemanticError::ExtentMismatch { .. }))
        ));
        assert_lanes_match_interpreter("y(i) = m(i,j) * x(j)", &lanes, &e);
    }

    #[test]
    fn i128_overflow_classified_like_interpreter() {
        let big = 3_000_000_000_000_000_000i64;
        let e = env(&[
            ("bb", Shape::new(vec![2]), &[big, big]),
            ("bs", Shape::new(vec![2]), &[1, 2]),
        ]);
        // Four leaves: no product specialisation; (3e18)^4 overflows i128
        // in the exact engine too, so the lane errors like the interpreter.
        let lanes = [lane(&["bb"]), lane(&["bs"])];
        let t = parse_program("a = b(i) * b(i) * b(i) * b(i)").unwrap();
        let k = BatchKernel::new(&t);
        let got = eval_named(&k, &lanes, &e);
        assert_eq!(got[0], Err(EvalError::Arithmetic(RatError::Overflow)));
        assert!(got[1].is_ok());
        assert_lanes_match_interpreter("a = b(i) * b(i) * b(i) * b(i)", &lanes, &e);
    }

    #[test]
    fn empty_summation_and_diagonal_access() {
        let e = env(&[
            ("z", Shape::new(vec![0]), &[]),
            ("sq", Shape::new(vec![2, 2]), &[1, 2, 3, 4]),
        ]);
        assert_lanes_match_interpreter("a = b(i)", &[lane(&["z"])], &e);
        assert_lanes_match_interpreter("a = b(i,i)", &[lane(&["sq"])], &e);
        // A repeated LHS index: both output loops range over `i`.
        let v = env(&[("v", Shape::new(vec![3]), &[1, 2, 3])]);
        assert_lanes_match_interpreter("a(i,i) = b(i)", &[lane(&["v"])], &v);
    }

    #[test]
    fn fractional_inputs_demote_only_their_lane() {
        let mut e = TensorEnv::new();
        e.insert(
            "bf".into(),
            Tensor::from_data(
                Shape::new(vec![2]),
                vec![Rat::new(1, 2), Rat::new(1, 3)],
            )
            .unwrap(),
        );
        e.insert("bi".into(), Tensor::from_ints(Shape::new(vec![2]), &[6, 6]));
        e.insert("ci".into(), Tensor::from_ints(Shape::new(vec![2]), &[2, 3]));
        let lanes = [lane(&["bf", "ci"]), lane(&["bi", "ci"])];
        assert_lanes_match_interpreter("a = b(i) * c(i)", &lanes, &e);
    }

    #[test]
    fn empty_lane_slice_is_fine() {
        let t = parse_program("a(i) = b(i)").unwrap();
        let k = BatchKernel::new(&t);
        assert!(k.evaluate_lanes(&[], &LaneEnv::new()).is_empty());
    }

    #[test]
    fn product_overflow_demotes_to_exact() {
        let big = 4_000_000_000_000_000_000i64;
        let e = env(&[
            ("m", Shape::new(vec![2, 3]), &[big, big, big, big, big, big]),
            ("x", Shape::new(vec![3]), &[1, 1, 1]),
        ]);
        // 3 · 4e18 overflows the i64 accumulator; the cell must be redone
        // in exact arithmetic.
        let lanes = [lane(&["m", "x"])];
        assert_lanes_match_interpreter("y(i) = m(i,j) * x(j)", &lanes, &e);
    }
}
