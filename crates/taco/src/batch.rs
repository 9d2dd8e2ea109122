//! Batched evaluation: the production TACO evaluator.
//!
//! Candidate filtering evaluates the *same template* under many
//! substitutions (tensor renamings plus `Const` instantiations) against
//! the same environment, and bounded verification evaluates one concrete
//! candidate on many random instances. Both differ between evaluations
//! only in which tensors are read and which constants multiply them.
//!
//! [`BatchKernel`] lowers the template **once** into the fixed-width
//! micro-ISA of [`crate::isa`] and runs a whole slice of [`Lane`]s — one
//! per substitution or instance — in a single sweep:
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
//! The sweep finishes each output cell before it starts the next, and
//! has two uses:
//!
//! - [`BatchKernel::evaluate_lanes`] keeps every cell and returns each
//!   lane's output tensor or error. Verification and [`crate::evaluate`]
//!   (one identity lane) use it.
//! - [`BatchKernel::filter_lanes`] compares each cell with an expected
//!   tensor as it is made. A lane leaves the sweep at its first wrong or
//!   failing cell, a shape group whose output extents differ from the
//!   expected tensor's is dropped before it runs, and the sweep stops
//!   once no lane is left. It builds no output and no error, and keeps
//!   its buffers in a [`GroupScratch`] from one call to the next, so
//!   rejecting a lane allocates nothing. Validation uses it.
//!
//! A kernel is lowered from a template's tokens ([`BatchKernel::lower`]),
//! in place of the one it held, so validation lowers template after
//! template into one kernel; [`BatchKernel::new`] lowers a program's
//! tokens into a fresh one.

use std::cell::OnceCell;

use gtl_tensor::{Rat, Shape, Tensor};

use crate::ast::{BinOp, Ident, IndexVar, RhsTok, TacoProgram, TemplateRef};
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

    fn tensor(&self, id: u32) -> Option<&'e Tensor> {
        self.entries[id as usize].tensor
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

/// One template access: which tensor slot it reads and where, in
/// [`BatchKernel`]'s `access_loops`, the loop slot of each of its index
/// positions is (strides are resolved per shape group at evaluation
/// time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BatchAccess {
    slot: u32,
    start: u32,
    end: u32,
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

/// A node of the right-hand side that lowering has entered but not yet
/// emitted: its value lands in register `depth` once its operands are
/// lowered.
#[derive(Debug, Clone, Copy)]
enum Open {
    /// A negation, waiting for its operand.
    Neg(u16),
    /// A binary node, waiting for its left operand and its operator.
    Left(u16),
    /// A binary node with its operator, waiting for its right operand.
    Right(u16, BinOp),
}

/// Why a lane fails semantic analysis, as ids: the [`SemanticError`]
/// [`crate::analyze`] reports, whose names only
/// [`BatchKernel::evaluate_lanes`] spells out.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Slot bound to the unbound environment entry `id`.
    Unbound(u32),
    /// An access reads entry `id` at the wrong rank.
    Rank {
        id: u32,
        access_rank: usize,
        bound_rank: usize,
    },
    /// Two accesses give loop `lp` different extents.
    Extent {
        lp: usize,
        first: usize,
        second: usize,
    },
    /// No access constrains output position `k`.
    Unconstrained(usize),
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
/// let slots: Vec<&str> = kernel.tensor_slots().iter().map(|s| s.as_str()).collect();
/// assert_eq!(slots, ["m", "x"]);
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
#[derive(Debug, Clone, Default)]
pub struct BatchKernel {
    /// The index variable of every loop: one output loop per LHS
    /// position, then the summation indices in RHS first-appearance
    /// order.
    loop_names: Vec<IndexVar>,
    /// The interned id of each loop's index variable, aligned with
    /// `loop_names`: what lowering looks a loop up by.
    loop_ids: Vec<u32>,
    /// Per LHS position, the loop slot its index variable binds: a
    /// repeated LHS index binds its later occurrence, as in the
    /// interpreter.
    lhs_loops: Vec<u32>,
    /// Template tensor names, in RHS first-use order (the slot table).
    slot_names: Vec<Ident>,
    /// The interned id of each slot's tensor name, aligned with
    /// `slot_names`: what lowering looks a slot up by.
    slot_ids: Vec<u32>,
    /// Symbolic-constant ids, in RHS first-use order.
    const_syms: Vec<u32>,
    /// Access table, in RHS traversal order.
    accesses: Vec<BatchAccess>,
    /// The loop slot of every index position of every access, access by
    /// access.
    access_loops: Vec<u32>,
    /// The lowered instruction stream.
    isa: IsaProgram,
    /// Access ids of the product specialisation, when the template is a
    /// pure multiplication tree with at most three tensor leaves; empty
    /// otherwise.
    product_loads: Vec<u32>,
    /// Lowering's stack of entered nodes; empty between lowerings.
    open: Vec<Open>,
}

impl BatchKernel {
    /// Lowers `template` into the micro-ISA: [`BatchKernel::lower`] of
    /// the program's tokens. Infallible: name binding and shape checking
    /// happen per lane at evaluation time, with the checks of
    /// [`crate::analyze`].
    pub fn new(template: &TacoProgram) -> BatchKernel {
        let (mut ids, mut rhs) = (Vec::new(), Vec::new());
        let mut kernel = BatchKernel::default();
        kernel.lower(template.template_ref(&mut ids, &mut rhs));
        kernel
    }

    /// Lowers `template` in place of the kernel's current template,
    /// reusing every buffer: once they have grown, this allocates
    /// nothing. Slots and loops are found by the tokens' interned ids,
    /// and the names are shared, not copied.
    ///
    /// The kernel equals [`BatchKernel::new`] of the template's program,
    /// whichever [`crate::NameTable`] numbered the tokens: ids only say
    /// which accesses share a tensor or an index, which any one table
    /// says alike.
    pub fn lower(&mut self, template: TemplateRef<'_>) {
        let lhs = template.lhs;
        self.loop_names.clear();
        self.loop_ids.clear();
        self.loop_names.extend(lhs.access.indices.iter().cloned());
        self.loop_ids.extend_from_slice(lhs.indices);
        // Summation indices: RHS indices not on the LHS, in order of
        // first appearance.
        for acc in template.accesses() {
            for (ix, &id) in acc.access.indices.iter().zip(acc.indices) {
                if !self.loop_ids.contains(&id) {
                    self.loop_names.push(ix.clone());
                    self.loop_ids.push(id);
                }
            }
        }
        self.lhs_loops.clear();
        for &id in lhs.indices {
            let l = self.loop_slot(id);
            self.lhs_loops.push(l);
        }
        self.slot_names.clear();
        self.slot_ids.clear();
        for a in template.tensor_slots() {
            self.slot_ids.push(a.tensor);
            self.slot_names.push(a.access.tensor.clone());
        }
        self.const_syms.clear();
        self.const_syms.extend(template.const_slots());
        self.accesses.clear();
        self.access_loops.clear();
        self.open.clear();
        // Postorder lowering with depth registers: an expression at depth
        // `d` leaves its value in register `d`; a binary node lowers its
        // left operand at its own depth and its right one a level deeper.
        // The tokens are in derivation order, so a node is emitted when
        // the leaf that completes its last operand has been.
        let mut enc = Encoder::reusing(std::mem::take(&mut self.isa));
        let mut depth = 0u16;
        for &tok in template.rhs {
            match tok {
                RhsTok::Binary => {
                    self.open.push(Open::Left(depth));
                    continue;
                }
                RhsTok::Neg => {
                    self.open.push(Open::Neg(depth));
                    continue;
                }
                RhsTok::Op(op) => {
                    let Some(Open::Left(d)) = self.open.pop() else {
                        panic!("an operator follows a binary node's left operand");
                    };
                    self.open.push(Open::Right(d, op));
                    depth = d + 1;
                    continue;
                }
                RhsTok::Access(a) => {
                    let slot = self
                        .slot_ids
                        .iter()
                        .position(|&s| s == a.tensor)
                        .expect("every tensor has a slot") as u32;
                    let start = self.access_loops.len() as u32;
                    for &id in a.indices {
                        let l = self.loop_slot(id);
                        self.access_loops.push(l);
                    }
                    let end = self.access_loops.len() as u32;
                    self.accesses.push(BatchAccess { slot, start, end });
                    enc.load(depth, (self.accesses.len() - 1) as u32);
                }
                RhsTok::Const(c) => enc.const_imm(depth, c),
                RhsTok::ConstSym(id) => {
                    let sym = self
                        .const_syms
                        .iter()
                        .position(|&s| s == id)
                        .expect("every `Const` has a slot");
                    enc.const_sym(depth, sym as u16);
                }
            }
            // A leaf: emit every node whose last operand it completes.
            while let Some(&node) = self.open.last() {
                match node {
                    Open::Left(_) => break,
                    Open::Neg(d) => enc.neg(d, d),
                    Open::Right(d, op) => enc.bin(op, d, d, d + 1),
                }
                self.open.pop();
            }
        }
        self.isa = enc.finish();
        self.isa.product_loads_into(&mut self.product_loads);
    }

    /// The loop slot of the index variable `id`: its last occurrence
    /// among the loops (LHS and summation indices are disjoint, so only
    /// a repeated LHS index has more than one).
    fn loop_slot(&self, id: u32) -> u32 {
        self.loop_ids
            .iter()
            .rposition(|&l| l == id)
            .expect("every RHS index is an output or a summation index") as u32
    }

    /// The loop slot of each index position of `acc`.
    fn loops(&self, acc: &BatchAccess) -> &[u32] {
        &self.access_loops[acc.start as usize..acc.end as usize]
    }

    /// The product specialisation's access ids, if the template has one.
    fn product(&self) -> Option<&[u32]> {
        (!self.product_loads.is_empty()).then_some(&self.product_loads[..])
    }

    /// The template's tensor slots ([`TemplateRef::tensor_slots`]): names
    /// in RHS first-use order. A [`Lane`] binds one concrete tensor per
    /// entry.
    pub fn tensor_slots(&self) -> &[Ident] {
        &self.slot_names
    }

    /// The template's symbolic-constant slots
    /// ([`TemplateRef::const_slots`]), in RHS first-use order. A [`Lane`]
    /// binds one `i64` per entry.
    pub fn const_slots(&self) -> &[u32] {
        &self.const_syms
    }

    /// The lowered instruction stream (for inspection and benchmarks).
    pub fn isa(&self) -> &IsaProgram {
        &self.isa
    }

    /// Per-lane semantic analysis: the same walk and checks as
    /// [`crate::analyze`] on the substituted program. The access table
    /// preserves RHS traversal order, so the *first* fault matches too.
    ///
    /// On success, `bound` holds the tensor of every slot and
    /// `loop_extents` the extent of every loop: the output loops', then
    /// the summation loops'. `extents` is scratch. Nothing here
    /// allocates: most lanes a validation sweeps fail here.
    fn analyze_lane<'e>(
        &self,
        lane: &Lane<'_>,
        env: &LaneEnv<'e>,
        extents: &mut Vec<Option<usize>>,
        bound: &mut [Option<&'e Tensor>],
        loop_extents: &mut [usize],
    ) -> Result<(), Fault> {
        extents.clear();
        extents.resize(self.loop_names.len(), None);
        bound.fill(None);
        for acc in &self.accesses {
            let slot = acc.slot as usize;
            let id = lane.tensors[slot];
            let t = match bound[slot] {
                Some(t) => t,
                None => env.tensor(id).ok_or(Fault::Unbound(id))?,
            };
            bound[slot] = Some(t);
            let loops = self.loops(acc);
            if t.rank() != loops.len() {
                return Err(Fault::Rank {
                    id,
                    access_rank: loops.len(),
                    bound_rank: t.rank(),
                });
            }
            for (&l, &extent) in loops.iter().zip(t.shape().extents()) {
                match extents[l as usize] {
                    None => extents[l as usize] = Some(extent),
                    Some(first) if first != extent => {
                        return Err(Fault::Extent {
                            lp: l as usize,
                            first,
                            second: extent,
                        })
                    }
                    Some(_) => {}
                }
            }
        }
        // Output loops take their extent from the slot their index binds.
        let n_out = self.lhs_loops.len();
        for (k, &l) in self.lhs_loops.iter().enumerate() {
            loop_extents[k] = extents[l as usize].ok_or(Fault::Unconstrained(k))?;
        }
        for (out, extent) in loop_extents[n_out..].iter_mut().zip(&extents[n_out..]) {
            *out = extent.expect("a summation index occurs on the RHS");
        }
        Ok(())
    }

    /// The error [`crate::analyze`] reports for `fault`, with the lane's
    /// concrete names.
    fn semantic_error(&self, fault: Fault, env: &LaneEnv<'_>) -> SemanticError {
        match fault {
            Fault::Unbound(id) => SemanticError::UnboundTensor {
                name: env.name(id).to_string(),
            },
            Fault::Rank {
                id,
                access_rank,
                bound_rank,
            } => SemanticError::RankMismatch {
                name: env.name(id).to_string(),
                access_rank,
                bound_rank,
            },
            Fault::Extent { lp, first, second } => SemanticError::ExtentMismatch {
                index: self.loop_names[lp].as_str().to_string(),
                first,
                second,
            },
            Fault::Unconstrained(k) => SemanticError::UnconstrainedOutputIndex {
                index: self.loop_names[k].as_str().to_string(),
            },
        }
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
        let mut results: Vec<Option<Result<Tensor, EvalError>>> =
            (0..lanes.len()).map(|_| None).collect();
        self.sweep(
            lanes,
            env,
            &mut Sink::Collect(&mut results),
            &mut GroupScratch::default(),
        );
        results
            .into_iter()
            .map(|r| r.expect("every lane resolved"))
            .collect()
    }

    /// Keeps alive only the lanes whose output equals `expected`.
    ///
    /// A lane marked dead in `alive` is not run. A live lane stays alive
    /// exactly when [`BatchKernel::evaluate_lanes`] would give it
    /// `Ok(expected)`: it dies at its first output cell that differs
    /// from `expected`'s or fails to evaluate, or before it runs when its
    /// bindings fail analysis or give an output shape other than
    /// `expected`'s. The sweep stops once no lane is alive. `scratch`
    /// keeps this call's buffers for the next one.
    ///
    /// # Panics
    ///
    /// Panics if `alive` does not hold one flag per lane, and on the
    /// arity mismatches [`BatchKernel::evaluate_lanes`] panics on.
    pub fn filter_lanes(
        &self,
        lanes: &[Lane<'_>],
        env: &LaneEnv<'_>,
        expected: &Tensor,
        alive: &mut [bool],
        scratch: &mut GroupScratch,
    ) {
        assert_eq!(alive.len(), lanes.len(), "one flag per lane");
        self.sweep(lanes, env, &mut Sink::Compare { expected, alive }, scratch);
    }

    /// Analyses the lanes, groups them by shape and runs each group into
    /// `sink`, with `scratch`'s buffers.
    fn sweep(
        &self,
        lanes: &[Lane<'_>],
        env: &LaneEnv<'_>,
        sink: &mut Sink<'_>,
        scratch: &mut GroupScratch,
    ) {
        let mut views = std::mem::take(&mut scratch.views).recycle();
        let GroupScratch { lane, group, .. } = scratch;
        let (n_slots, n_loops) = (self.slot_names.len(), self.loop_names.len());
        let n_out = self.lhs_loops.len();
        refill(&mut views.bound, lanes.len() * n_slots, None);
        refill(&mut lane.loop_extents, lanes.len() * n_loops, 0);
        refill(&mut lane.group_of, lanes.len(), NO_GROUP);
        lane.firsts.clear();
        for (i, l) in lanes.iter().enumerate() {
            assert_eq!(l.tensors.len(), n_slots, "lane binds one tensor per slot");
            assert_eq!(
                l.constants.len(),
                self.const_syms.len(),
                "lane binds one value per constant slot"
            );
            if let Sink::Compare { alive, .. } = sink {
                if !alive[i] {
                    continue;
                }
            }
            let analysed = self.analyze_lane(
                l,
                env,
                &mut lane.extents,
                &mut views.bound[i * n_slots..(i + 1) * n_slots],
                &mut lane.loop_extents[i * n_loops..(i + 1) * n_loops],
            );
            if let Err(fault) = analysed {
                match sink {
                    Sink::Collect(results) => {
                        let e = self.semantic_error(fault, env);
                        results[i] = Some(Err(EvalError::Semantic(e)));
                    }
                    Sink::Compare { alive, .. } => alive[i] = false,
                }
                continue;
            }
            // Lanes binding the same shape to every slot form a group.
            let shapes = |l: usize| {
                views.bound[l * n_slots..(l + 1) * n_slots]
                    .iter()
                    .map(|t| t.map(Tensor::shape))
            };
            lane.group_of[i] = match lane.firsts.iter().position(|&f| shapes(f).eq(shapes(i))) {
                Some(g) => g as u32,
                None => {
                    lane.firsts.push(i);
                    (lane.firsts.len() - 1) as u32
                }
            };
        }
        for (g, &first) in lane.firsts.iter().enumerate() {
            let loop_extents = &lane.loop_extents[first * n_loops..(first + 1) * n_loops];
            lane.ids.clear();
            lane.ids
                .extend((first..lanes.len()).filter(|&i| lane.group_of[i] == g as u32));
            if let Sink::Compare { expected, alive } = sink {
                if loop_extents[..n_out] != *expected.shape().extents() {
                    for &i in &lane.ids {
                        alive[i] = false;
                    }
                    continue;
                }
            }
            self.run_group(lanes, env, &lane.ids, loop_extents, sink, group, &mut views);
        }
        scratch.views = views.recycle();
    }

    /// Runs the lanes `ids` of one shape group: shared odometer, shared
    /// strides, lane-major registers. Output cells are made one at a
    /// time, in row-major order, and each is handed to `sink` as soon as
    /// it is made.
    ///
    /// `loop_extents` holds the output loops' extents, then the summation
    /// loops'.
    #[allow(clippy::too_many_arguments)]
    fn run_group<'s>(
        &self,
        lanes: &[Lane<'_>],
        env: &'s LaneEnv<'_>,
        ids: &[usize],
        loop_extents: &[usize],
        sink: &mut Sink<'_>,
        scratch: &mut GroupBufs,
        views: &mut Views<'s>,
    ) {
        let n_out = self.lhs_loops.len();
        let out_extents = &loop_extents[..n_out];
        let n_loops = loop_extents.len();
        let n_acc = self.accesses.len();
        let n_slots = self.slot_names.len();
        let Views {
            bound,
            acc_rats,
            acc_ints,
            int_plan,
        } = views;
        let tensor = |id: usize, slot: u32| {
            bound[id * n_slots + slot as usize].expect("an analysed lane binds every slot")
        };
        let GroupBufs {
            strides,
            out_updates,
            sum_updates,
            modes,
            prod_inner,
            state,
            regs_i,
            regs_r,
            lane_err,
            done,
            cell_vals,
            int_alive,
            int_accs,
            rat_run,
            rat_accs,
        } = scratch;

        // Shared stride walks: every lane in the group binds the same
        // shape per slot, so one stride table serves them all.
        let strides = reset(strides, n_acc);
        for (acc, plan) in self.accesses.iter().zip(strides.iter_mut()) {
            let extents = tensor(ids[0], acc.slot).shape().extents();
            access_strides_into(self.loops(acc), extents, |&l| l, plan);
        }
        let out_updates = reset(out_updates, n_out);
        let sum_updates = reset(sum_updates, n_loops - n_out);
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

        // Per-lane rational data, one slice per access: lane `pos`'s
        // access `a` is `acc_rats[pos * n_acc + a]`.
        acc_rats.clear();
        acc_rats.extend(ids.iter().flat_map(|&id| {
            self.accesses
                .iter()
                .map(move |acc| tensor(id, acc.slot).data())
        }));

        // The i64 fast path needs a division-free template, a real
        // summation (with none, every element is read once and the
        // conversion would cost more than it saves), and (per lane) every
        // input element an i64 integer.
        // Conversion is memoised per environment entry, so a tensor
        // shared by many lanes and evaluations converts once.
        let int_eligible = !self.isa.has_div && sum_iters > 1;
        modes.clear();
        modes.extend(ids.iter().map(|&id| {
            if !int_eligible {
                return Mode::Exact;
            }
            let lane = &lanes[id];
            if lane.tensors.iter().any(|&t| env.ints(t).is_none()) {
                return Mode::Exact;
            }
            if self.product().is_some() {
                match self.fold_coeff(lane) {
                    Some(coeff) => Mode::Int { coeff },
                    None => Mode::Exact,
                }
            } else {
                Mode::Int { coeff: 1 }
            }
        }));
        // Per-lane integer data, laid out like `acc_rats`; empty slices
        // for an exact-mode lane.
        const EMPTY: &[i64] = &[];
        acc_ints.clear();
        for (&id, mode) in ids.iter().zip(modes.iter()) {
            for acc in &self.accesses {
                acc_ints.push(match mode {
                    Mode::Int { .. } => env
                        .ints(lanes[id].tensors[acc.slot as usize])
                        .expect("int mode implies integer conversion"),
                    Mode::Exact => EMPTY,
                });
            }
        }

        // Product fast-path plan: for every int-mode lane, the folded
        // coefficient and its per-load data slices, resolved once per
        // group. The cell loop below runs out_len × lanes iterations;
        // re-deriving these per iteration (mode match, Option unwrap,
        // slot indexing) costs more than the 8-element inner products
        // it wraps.
        int_plan.clear();
        prod_inner.clear();
        if let Some(loads) = self.product() {
            for (pos, mode) in modes.iter().enumerate() {
                let Mode::Int { coeff } = *mode else {
                    continue;
                };
                let mut d = [EMPTY; 3];
                for (i, &a) in loads.iter().enumerate() {
                    d[i] = acc_ints[pos * n_acc + a as usize];
                }
                int_plan.push((pos, coeff, d));
            }
            // Product specialisation: per-load stride along the innermost
            // summation dimension, shared by the whole group.
            let inner_slot = (n_loops > n_out).then(|| (n_loops - 1) as u32);
            prod_inner.extend(loads.iter().map(|&a| {
                inner_slot
                    .and_then(|s| {
                        strides[a as usize]
                            .iter()
                            .find(|(slot, _)| *slot == s)
                            .map(|&(_, stride)| stride)
                    })
                    .unwrap_or(0)
            }));
        }

        let out_len: usize = out_extents.iter().product();
        refill(&mut state.counters, n_loops, 0);
        refill(&mut state.base_off, n_acc, 0);
        refill(&mut state.sum_off, n_acc, 0);
        let n_regs = self.isa.n_regs;
        refill(regs_i, n_regs * nl, 0);
        refill(regs_r, n_regs * nl, Rat::ZERO);
        // Only a collecting sweep keeps the cells it makes.
        let mut outs: Vec<Vec<Rat>> = match sink {
            Sink::Collect(_) => ids.iter().map(|_| Vec::with_capacity(out_len)).collect(),
            Sink::Compare { .. } => Vec::new(),
        };
        refill(lane_err, nl, None);
        refill(done, nl, false);
        refill(cell_vals, nl, Rat::ZERO);
        refill(int_alive, nl, false);
        refill(int_accs, nl, 0);
        refill(rat_run, nl, false);
        refill(rat_accs, nl, Rat::ZERO);

        for cell in 0..out_len {
            // Which lanes attempt the fast path this cell; a mid-cell
            // overflow flips the lane into `rat_run` (per-cell demotion).
            let mut any_int = false;
            for (pos, mode) in modes.iter().enumerate() {
                int_alive[pos] = matches!(mode, Mode::Int { .. }) && !done[pos];
                any_int |= int_alive[pos];
                rat_run[pos] = matches!(mode, Mode::Exact) && !done[pos];
            }
            if any_int {
                match self.product() {
                    Some(loads) => {
                        let inner_strides = &prod_inner[..];
                        // Tight multiply-accumulate sweep: the inner
                        // summation dimension runs over local offsets, the
                        // outer dims advance the shared odometer. State
                        // wraps back to zero after the full sweep.
                        let has_sum = n_loops > n_out;
                        let inner = if has_sum {
                            loop_extents[n_loops - 1]
                        } else {
                            1
                        };
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
                                for &(pos, coeff, d) in int_plan.iter() {
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
                    None => {
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
                                                regs_i[d + pos] = acc_ints[pos * n_acc + a][off];
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
                                sum_updates,
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
                                            regs_r[d + pos] = acc_rats[pos * n_acc + a][off];
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
                                                done[pos] = true;
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
                                    done[pos] = true;
                                    rat_run[pos] = false;
                                }
                            }
                        }
                        advance(
                            &mut state.counters[n_out..],
                            &loop_extents[n_out..],
                            sum_updates,
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
            match sink {
                Sink::Collect(_) => {
                    for pos in 0..nl {
                        if !done[pos] {
                            outs[pos].push(cell_vals[pos]);
                        }
                    }
                }
                Sink::Compare { expected, .. } => {
                    // A lane leaves the sweep at its first wrong cell, and
                    // the sweep ends once no lane is left.
                    let want = &expected.data()[cell];
                    let mut any_left = false;
                    for pos in 0..nl {
                        if !done[pos] {
                            done[pos] = cell_vals[pos] != *want;
                            any_left |= !done[pos];
                        }
                    }
                    if !any_left {
                        break;
                    }
                }
            }
            advance(
                &mut state.counters[..n_out],
                &loop_extents[..n_out],
                out_updates,
                &mut state.base_off,
            );
        }

        match sink {
            Sink::Collect(results) => {
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
            Sink::Compare { alive, .. } => {
                for (pos, &id) in ids.iter().enumerate() {
                    alive[id] = !done[pos];
                }
            }
        }
    }
}

/// What a sweep does with the output cells it makes.
enum Sink<'o> {
    /// Keep them: every lane's output tensor or error, by lane.
    Collect(&'o mut [Option<Result<Tensor, EvalError>>]),
    /// Compare each with `expected`'s cell: a lane whose cell differs or
    /// fails to evaluate is dead in `alive`.
    Compare {
        expected: &'o Tensor,
        alive: &'o mut [bool],
    },
}

/// The loop nest's mutable state: raw counters plus per-access offsets
/// maintained incrementally (output contribution and summation
/// contribution kept separate, so a full summation sweep wraps the latter
/// back to zero).
#[derive(Default)]
struct LoopState {
    counters: Vec<usize>,
    base_off: Vec<usize>,
    sum_off: Vec<usize>,
}

/// The buffers of [`BatchKernel::filter_lanes`], kept by its caller from
/// one call to the next so that the calls allocate nothing once the
/// buffers have grown. One scratch serves any kernel and any lanes.
#[derive(Default)]
pub struct GroupScratch {
    lane: LaneBufs,
    group: GroupBufs,
    /// Empty between sweeps.
    views: Views<'static>,
}

/// Marks a lane that is in no shape group.
const NO_GROUP: u32 = u32::MAX;

/// Per-lane analysis results, and the shape groups they form.
#[derive(Default)]
struct LaneBufs {
    /// Scratch for [`BatchKernel::analyze_lane`].
    extents: Vec<Option<usize>>,
    /// Per lane, then per loop: the loop's extent.
    loop_extents: Vec<usize>,
    /// Per lane, its group ([`NO_GROUP`]: none).
    group_of: Vec<u32>,
    /// Per group, its first lane.
    firsts: Vec<usize>,
    /// The lanes of the group being run.
    ids: Vec<usize>,
}

/// Buffers [`BatchKernel::run_group`] reuses from one shape group to the
/// next.
#[derive(Default)]
struct GroupBufs {
    strides: Vec<Vec<(u32, usize)>>,
    out_updates: Vec<Vec<(u32, usize)>>,
    sum_updates: Vec<Vec<(u32, usize)>>,
    modes: Vec<Mode>,
    prod_inner: Vec<usize>,
    state: LoopState,
    regs_i: Vec<i64>,
    regs_r: Vec<Rat>,
    lane_err: Vec<Option<EvalError>>,
    /// Per lane: whether it has left the sweep (failed, or, when
    /// comparing, differed).
    done: Vec<bool>,
    cell_vals: Vec<Rat>,
    int_alive: Vec<bool>,
    int_accs: Vec<i64>,
    rat_run: Vec<bool>,
    rat_accs: Vec<Rat>,
}

/// A sweep's buffers that borrow the environment's tensors for `'s`.
#[derive(Default)]
struct Views<'s> {
    /// Per lane, then per slot: the tensor the lane binds.
    bound: Vec<Option<&'s Tensor>>,
    /// Per lane of a group, then per access: the access's rational data.
    acc_rats: Vec<&'s [Rat]>,
    /// Laid out like `acc_rats`: the access's `i64` data, empty for an
    /// exact-mode lane.
    acc_ints: Vec<&'s [i64]>,
    int_plan: Vec<(usize, i64, [&'s [i64]; 3])>,
}

impl Views<'_> {
    /// The buffers emptied, as buffers for any lifetime.
    fn recycle<'b>(self) -> Views<'b> {
        Views {
            bound: recycle(self.bound),
            acc_rats: recycle(self.acc_rats),
            acc_ints: recycle(self.acc_ints),
            int_plan: recycle(self.int_plan),
        }
    }
}

/// `v` emptied, as a buffer for elements of the same type with borrows
/// of another lifetime: collecting the empty vector in place keeps its
/// allocation. (For a `U` of another size or alignment the result is
/// simply a new, empty vector.)
pub fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

/// The first `n` of `vecs`, emptied. Vectors past the `n`th are kept, so
/// their buffers serve a later, larger call.
fn reset<T>(vecs: &mut Vec<Vec<T>>, n: usize) -> &mut [Vec<T>] {
    if vecs.len() < n {
        vecs.resize_with(n, Vec::new);
    }
    let vecs = &mut vecs[..n];
    vecs.iter_mut().for_each(Vec::clear);
    vecs
}

/// `v` as `n` copies of `value`, keeping its buffer.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// Row-major `(loop slot, stride)` pairs for one access: stride of dim
/// `d` is the product of the extents of all later dims, and a repeated
/// index (diagonal access) merges into one pair with the summed stride.
/// The single source of the layout rule shared with the interpreter
/// ([`crate::eval`]).
pub(crate) fn access_strides<I, S: Copy + PartialEq>(
    indices: &[I],
    extents: &[usize],
    slot_of: impl FnMut(&I) -> S,
) -> Vec<(S, usize)> {
    let mut strides = Vec::with_capacity(indices.len());
    access_strides_into(indices, extents, slot_of, &mut strides);
    strides
}

/// [`access_strides`] written into `strides`, which must be empty.
fn access_strides_into<I, S: Copy + PartialEq>(
    indices: &[I],
    extents: &[usize],
    mut slot_of: impl FnMut(&I) -> S,
    strides: &mut Vec<(S, usize)>,
) {
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
    use crate::ast::{Access, Expr};
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
            .map(Ident::as_str)
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
            (
                "bh",
                Shape::new(vec![2, 3]),
                &[big, big, big, big, big, big],
            ),
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
            Tensor::from_data(Shape::new(vec![2]), vec![Rat::new(1, 2), Rat::new(1, 3)]).unwrap(),
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

    /// The tree-walk lowering [`BatchKernel::new`] did before kernels were
    /// lowered from tokens: the reference for the token lowering.
    fn tree_kernel(t: &TacoProgram) -> BatchKernel {
        fn loop_slot(k: &BatchKernel, ix: &IndexVar) -> u32 {
            k.loop_names.iter().rposition(|n| n == ix).unwrap() as u32
        }
        fn lower(k: &mut BatchKernel, e: &Expr, depth: u16, enc: &mut Encoder) {
            match e {
                Expr::Access(acc) => {
                    let slot = match k.slot_names.iter().position(|n| *n == acc.tensor) {
                        Some(s) => s as u32,
                        None => {
                            k.slot_names.push(acc.tensor.clone());
                            (k.slot_names.len() - 1) as u32
                        }
                    };
                    let start = k.access_loops.len() as u32;
                    for ix in &acc.indices {
                        let l = loop_slot(k, ix);
                        k.access_loops.push(l);
                    }
                    let end = k.access_loops.len() as u32;
                    k.accesses.push(BatchAccess { slot, start, end });
                    enc.load(depth, (k.accesses.len() - 1) as u32);
                }
                Expr::Const(c) => enc.const_imm(depth, *c),
                Expr::ConstSym(id) => {
                    let sym = match k.const_syms.iter().position(|s| s == id) {
                        Some(s) => s,
                        None => {
                            k.const_syms.push(*id);
                            k.const_syms.len() - 1
                        }
                    };
                    enc.const_sym(depth, sym as u16);
                }
                Expr::Neg(inner) => {
                    lower(k, inner, depth, enc);
                    enc.neg(depth, depth);
                }
                Expr::Binary { op, lhs, rhs } => {
                    lower(k, lhs, depth, enc);
                    lower(k, rhs, depth + 1, enc);
                    enc.bin(*op, depth, depth, depth + 1);
                }
            }
        }
        let mut k = BatchKernel {
            loop_names: t.lhs.indices.clone(),
            ..BatchKernel::default()
        };
        k.loop_names.extend(t.summation_indices());
        k.lhs_loops = t.lhs.indices.iter().map(|ix| loop_slot(&k, ix)).collect();
        let mut enc = Encoder::new();
        lower(&mut k, &t.rhs, 0, &mut enc);
        k.isa = enc.finish();
        k.product_loads = k.isa.product_loads().unwrap_or_default();
        k
    }

    /// What a lowering decides: every field but the ids it looked names
    /// up by, which only the table that numbered them gives meaning.
    #[allow(clippy::type_complexity)]
    fn lowering(
        k: &BatchKernel,
    ) -> (
        &[IndexVar],
        &[u32],
        &[Ident],
        &[u32],
        &[BatchAccess],
        &[u32],
        &IsaProgram,
        &[u32],
    ) {
        (
            &k.loop_names,
            &k.lhs_loops,
            &k.slot_names,
            &k.const_syms,
            &k.accesses,
            &k.access_loops,
            &k.isa,
            &k.product_loads,
        )
    }

    /// Templates over tensors `a`–`d` (`a` also on the RHS), indices
    /// `i`–`k`, repeated LHS indices, literal and symbolic constants.
    fn arb_template() -> impl Strategy<Value = TacoProgram> {
        use proptest::prelude::*;
        let access = (
            prop::sample::select(vec!["a", "b", "c", "d"]),
            prop::collection::vec(prop::sample::select(vec!["i", "j", "k"]), 0..4),
        )
            .prop_map(|(name, indices)| Expr::access(name, &indices));
        let leaf = prop_oneof![
            access.clone(),
            access,
            (-2i64..3).prop_map(Expr::Const),
            (0u32..3).prop_map(Expr::ConstSym),
        ];
        let rhs = leaf.prop_recursive(4, 16, 2, |inner| {
            prop_oneof![
                (
                    prop::sample::select(crate::ast::BinOp::ALL.to_vec()),
                    inner.clone(),
                    inner.clone()
                )
                    .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
                inner.prop_map(|e| Expr::Neg(Box::new(e))),
            ]
        });
        let lhs = prop::sample::select(vec![vec![], vec!["i"], vec!["i", "j"], vec!["i", "i"]])
            .prop_map(|indices| Access::new("a", &indices));
        (lhs, rhs).prop_map(|(lhs, rhs)| TacoProgram::new(lhs, rhs))
    }

    use proptest::strategy::Strategy;

    proptest::proptest! {
        /// Lowering a template's tokens into a kernel that held another
        /// template, with ids from a table that also holds other names
        /// (as a search's table does), gives the kernel
        /// `BatchKernel::new` builds from the program, and that is the
        /// kernel the tree-walk lowering builds: the same slot, loop and
        /// access order and the same ISA.
        #[test]
        fn token_lowering_equals_the_programs_kernel(
            template in arb_template(),
            before in arb_template(),
        ) {
            let fresh = BatchKernel::new(&template);
            proptest::prop_assert_eq!(lowering(&fresh), lowering(&tree_kernel(&template)));
            let mut accesses = vec![&template.lhs, &before.lhs];
            accesses.extend(before.rhs.accesses());
            accesses.extend(template.rhs.accesses());
            let table = crate::ast::NameTable::new(accesses);
            let mut reused = BatchKernel::new(&before);
            let (mut ids, mut rhs) = (Vec::new(), Vec::new());
            reused.lower(template.template_ref_in(&table, &mut ids, &mut rhs));
            proptest::prop_assert_eq!(lowering(&reused), lowering(&fresh));
            proptest::prop_assert!(reused.open.is_empty());
            proptest::prop_assert_eq!(reused.slot_ids.len(), reused.slot_names.len());
            proptest::prop_assert_eq!(reused.loop_ids.len(), reused.loop_names.len());
        }
    }
}
