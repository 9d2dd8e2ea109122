//! A fixed-width micro-ISA for template right-hand sides.
//!
//! The batched evaluator ([`crate::batch`]) lowers a *template* — a TACO
//! program whose tensor names and `Const` placeholders are still symbolic
//! — once into this tiny register ISA, then executes the same instruction
//! stream for every lane. Keeping the ISA fixed-width (one opcode byte
//! plus three `u16` operand fields per instruction) makes the dispatch
//! loop branch-predictable and the per-opcode inner loops over lanes
//! trivially vectorisable.
//!
//! The module follows the classic `isa`/`encoder` split: [`Opcode`] and
//! [`Inst`] define the instruction set, [`Encoder`] is the only way to
//! build an [`IsaProgram`] (it tracks register pressure, the immediate
//! pool, the symbolic-constant count and the division flag so the program
//! is always self-consistent).

use crate::ast::BinOp;

/// Operation selector of one instruction.
///
/// Register operands follow the postorder depth-register convention: an
/// expression at depth `d` leaves its value in register `d`, so
/// `dst`/`a`/`b` are final at encode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// `regs[dst] = data[access a]` — read the current element of a
    /// tensor access (the offset is maintained by the loop odometer).
    LoadSlot,
    /// `regs[dst] = imms[a]` — load a literal constant from the
    /// immediate pool.
    ConstImm,
    /// `regs[dst] = lane.constants[a]` — load the current lane's value
    /// for symbolic constant slot `a`.
    ConstSym,
    /// `regs[dst] = -regs[a]`.
    Neg,
    /// `regs[dst] = regs[a] + regs[b]`.
    Add,
    /// `regs[dst] = regs[a] - regs[b]`.
    Sub,
    /// `regs[dst] = regs[a] * regs[b]`.
    Mul,
    /// `regs[dst] = regs[a] / regs[b]` (exact-rational mode only).
    Div,
}

impl Opcode {
    /// The opcode implementing a TACO binary operator.
    pub fn from_bin(op: BinOp) -> Opcode {
        match op {
            BinOp::Add => Opcode::Add,
            BinOp::Sub => Opcode::Sub,
            BinOp::Mul => Opcode::Mul,
            BinOp::Div => Opcode::Div,
        }
    }
}

/// One fixed-width instruction: opcode plus three operand fields.
///
/// Field meaning is opcode-dependent (see [`Opcode`]); unused fields are
/// zero. `u16` is comfortably wide enough: register count is bounded by
/// template depth and access/immediate/symbol counts by template size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// What to do.
    pub op: Opcode,
    /// Destination register.
    pub dst: u16,
    /// First operand (register, access id, immediate id or symbol slot).
    pub a: u16,
    /// Second operand register (binary ops only).
    pub b: u16,
}

/// A lowered template: the instruction stream plus everything needed to
/// allocate its runtime state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IsaProgram {
    /// Instructions in evaluation (postorder) order; the template's value
    /// ends up in register 0.
    pub insts: Vec<Inst>,
    /// Registers needed to execute `insts`.
    pub n_regs: usize,
    /// Immediate pool referenced by [`Opcode::ConstImm`].
    pub imms: Vec<i64>,
    /// Number of symbolic-constant slots referenced by
    /// [`Opcode::ConstSym`].
    pub n_syms: usize,
    /// Whether any instruction divides — if so, the checked-`i64` fast
    /// path is disabled for every lane.
    pub has_div: bool,
}

impl IsaProgram {
    /// Whether the program is a pure product: only loads, constants and
    /// multiplications. Product programs (GEMM, TTV, MTTKRP, dot,
    /// scaling — the overwhelming majority of real candidates) skip the
    /// register machine entirely on the `i64` fast path and run as tight
    /// multiply-accumulate loops. Returns the access ids of the tensor
    /// leaves, in instruction order, when there are one to three of them.
    pub fn product_loads(&self) -> Option<Vec<u32>> {
        let mut loads = Vec::new();
        self.product_loads_into(&mut loads).then_some(loads)
    }

    /// [`IsaProgram::product_loads`] written into `loads`, which is left
    /// empty when the program is not such a product.
    pub(crate) fn product_loads_into(&self, loads: &mut Vec<u32>) -> bool {
        loads.clear();
        for inst in &self.insts {
            match inst.op {
                Opcode::LoadSlot => loads.push(inst.a as u32),
                Opcode::ConstImm | Opcode::ConstSym | Opcode::Mul => {}
                _ => {
                    loads.clear();
                    return false;
                }
            }
        }
        if loads.len() > 3 {
            loads.clear();
        }
        !loads.is_empty()
    }
}

/// Builds an [`IsaProgram`] one instruction at a time.
///
/// ```
/// use gtl_taco::ast::BinOp;
/// use gtl_taco::isa::{Encoder, Opcode};
///
/// // b(i) * Const, lowered at depths 0/1.
/// let mut enc = Encoder::new();
/// enc.load(0, 0);
/// enc.const_sym(1, 0);
/// enc.bin(BinOp::Mul, 0, 0, 1);
/// let prog = enc.finish();
/// assert_eq!(prog.n_regs, 2);
/// assert_eq!(prog.n_syms, 1);
/// assert!(!prog.has_div);
/// assert_eq!(prog.insts[2].op, Opcode::Mul);
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    insts: Vec<Inst>,
    imms: Vec<i64>,
    n_regs: usize,
    n_syms: usize,
    has_div: bool,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// An empty encoder that writes into `program`'s buffers, so a
    /// program lowered in place of another allocates nothing.
    pub fn reusing(program: IsaProgram) -> Encoder {
        let IsaProgram {
            mut insts,
            mut imms,
            ..
        } = program;
        insts.clear();
        imms.clear();
        Encoder {
            insts,
            imms,
            ..Encoder::default()
        }
    }

    fn touch(&mut self, reg: u16) {
        self.n_regs = self.n_regs.max(reg as usize + 1);
    }

    /// Emits `regs[dst] = data[access]`.
    pub fn load(&mut self, dst: u16, access: u32) {
        self.touch(dst);
        self.insts.push(Inst {
            op: Opcode::LoadSlot,
            dst,
            a: u16::try_from(access).expect("access table exceeds u16"),
            b: 0,
        });
    }

    /// Emits `regs[dst] = value`, pooling the immediate.
    pub fn const_imm(&mut self, dst: u16, value: i64) {
        self.touch(dst);
        let id = match self.imms.iter().position(|&v| v == value) {
            Some(i) => i,
            None => {
                self.imms.push(value);
                self.imms.len() - 1
            }
        };
        self.insts.push(Inst {
            op: Opcode::ConstImm,
            dst,
            a: u16::try_from(id).expect("immediate pool exceeds u16"),
            b: 0,
        });
    }

    /// Emits `regs[dst] = lane.constants[sym]`, growing the symbol count.
    pub fn const_sym(&mut self, dst: u16, sym: u16) {
        self.touch(dst);
        self.n_syms = self.n_syms.max(sym as usize + 1);
        self.insts.push(Inst {
            op: Opcode::ConstSym,
            dst,
            a: sym,
            b: 0,
        });
    }

    /// Emits `regs[dst] = -regs[src]`.
    pub fn neg(&mut self, dst: u16, src: u16) {
        self.touch(dst);
        self.insts.push(Inst {
            op: Opcode::Neg,
            dst,
            a: src,
            b: 0,
        });
    }

    /// Emits `regs[dst] = regs[a] op regs[b]`.
    pub fn bin(&mut self, op: BinOp, dst: u16, a: u16, b: u16) {
        self.touch(dst);
        if op == BinOp::Div {
            self.has_div = true;
        }
        self.insts.push(Inst {
            op: Opcode::from_bin(op),
            dst,
            a,
            b,
        });
    }

    /// Finalises the program.
    pub fn finish(self) -> IsaProgram {
        IsaProgram {
            insts: self.insts,
            n_regs: self.n_regs,
            imms: self.imms,
            n_syms: self.n_syms,
            has_div: self.has_div,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_tracks_registers_and_flags() {
        let mut enc = Encoder::new();
        enc.load(0, 0);
        enc.load(1, 1);
        enc.bin(BinOp::Div, 0, 0, 1);
        let p = enc.finish();
        assert_eq!(p.n_regs, 2);
        assert!(p.has_div);
        assert_eq!(p.n_syms, 0);
        assert!(p.product_loads().is_none(), "division is not a product");
    }

    #[test]
    fn immediates_are_pooled() {
        let mut enc = Encoder::new();
        enc.const_imm(0, 7);
        enc.const_imm(1, 3);
        enc.const_imm(2, 7);
        let p = enc.finish();
        assert_eq!(p.imms, vec![7, 3]);
        assert_eq!(p.insts[2].a, 0, "repeated immediate reuses its slot");
    }

    #[test]
    fn product_detection() {
        // b(i,k) * c(k,j): two loads, one multiply.
        let mut enc = Encoder::new();
        enc.load(0, 0);
        enc.load(1, 1);
        enc.bin(BinOp::Mul, 0, 0, 1);
        assert_eq!(enc.finish().product_loads(), Some(vec![0, 1]));

        // b(i) + c(i) is not a product.
        let mut enc = Encoder::new();
        enc.load(0, 0);
        enc.load(1, 1);
        enc.bin(BinOp::Add, 0, 0, 1);
        assert!(enc.finish().product_loads().is_none());

        // Four loads exceed the unrolled inner loops.
        let mut enc = Encoder::new();
        for i in 0..4u32 {
            enc.load(i as u16, i);
            if i > 0 {
                enc.bin(BinOp::Mul, 0, 0, i as u16);
            }
        }
        assert!(enc.finish().product_loads().is_none());
    }
}
