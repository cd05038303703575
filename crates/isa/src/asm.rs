//! The assembler/builder DSL used to generate gadget code.

use crate::instr::{AluOp, Cond, Instr, MemOperand, Operand};
use crate::program::{Label, Program, ProgramError, Region};
use crate::reg::{Reg, NUM_REGS};

/// A builder for [`Program`]s, with labels and a fresh-register allocator.
///
/// All gadget generators in the `hacky-racers` crate emit code through this
/// type. Registers come from [`Asm::reg`] so that independent dependence
/// chains never share names (the paper's §4 *paths* must have no data
/// dependencies between them).
///
/// ```
/// use racer_isa::{Asm, Cond};
///
/// let mut asm = Asm::new();
/// let counter = asm.reg();
/// asm.mov_imm(counter, 3);
/// let top = asm.here();
/// asm.subi(counter, counter, 1);
/// asm.br(Cond::Ne, counter, 0, top); // loop until counter == 0
/// asm.halt();
/// let prog = asm.assemble().expect("valid program");
/// assert_eq!(prog.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Asm {
    instrs: Vec<Instr>,
    next_reg: usize,
    /// `labels[id]` = Some(position) once bound.
    labels: Vec<Option<usize>>,
    /// Branch/jump fixups: (stored instruction index, label id).
    fixups: Vec<(usize, usize)>,
    /// The repeated region emitted by [`Asm::repeat`], if any (stored
    /// indices; `start` is also the body's logical position).
    region: Option<Region>,
    /// Structural error found while emitting (a second or nested region),
    /// reported by [`Asm::assemble`].
    error: Option<ProgramError>,
    /// Inside a [`Asm::repeat`] body.
    in_repeat: bool,
}

impl Asm {
    /// A fresh, empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- registers ------------------------------------------------------

    /// Allocate a fresh architectural register.
    ///
    /// # Panics
    ///
    /// Panics if more than [`NUM_REGS`] registers are requested.
    pub fn reg(&mut self) -> Reg {
        assert!(self.next_reg < NUM_REGS, "out of architectural registers");
        let r = Reg::new(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Allocate `n` fresh registers.
    pub fn regs(&mut self, n: usize) -> Vec<Reg> {
        (0..n).map(|_| self.reg()).collect()
    }

    /// Number of registers allocated so far.
    pub fn regs_used(&self) -> usize {
        self.next_reg
    }

    // ----- labels ---------------------------------------------------------

    /// Create an unbound label for a forward reference; bind it later with
    /// [`Asm::bind`].
    pub fn fwd_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.position());
    }

    /// Create a label bound to the current position (for backward branches).
    pub fn here(&mut self) -> Label {
        let l = self.fwd_label();
        self.bind(l);
        l
    }

    /// Logical index the next emitted instruction will occupy: after a
    /// [`Asm::repeat`] region every round counts; inside its body, the
    /// position in the first round.
    pub fn position(&self) -> usize {
        let n = self.instrs.len();
        match self.region {
            Some(r) if !self.in_repeat => {
                (n - r.body_len).saturating_add(r.body_len.saturating_mul(r.rounds))
            }
            _ => n,
        }
    }

    // ----- repeated regions -----------------------------------------------

    /// Emit `body` once as a region that executes `rounds` times back to
    /// back: the program stores and decodes one round however large
    /// `rounds` is, and the out-of-order core can fast-forward through the
    /// region's steady state. The body must be straight-line code (no
    /// branch, jump or `halt`), and a program holds at most one region;
    /// [`Asm::assemble`] reports either violation as a [`ProgramError`].
    ///
    /// ```
    /// use racer_isa::Asm;
    ///
    /// let mut asm = Asm::new();
    /// let r = asm.reg();
    /// asm.mov_imm(r, 0);
    /// asm.repeat(1_000, |a| {
    ///     a.addi(r, r, 2);
    /// });
    /// asm.halt();
    /// let prog = asm.assemble().expect("valid program");
    /// assert_eq!(prog.len(), 1_002); // logical: every round counts
    /// assert_eq!(prog.stored().len(), 3); // stored: the body once
    /// ```
    pub fn repeat(&mut self, rounds: usize, body: impl FnOnce(&mut Self)) -> &mut Self {
        if self.region.is_some() || self.in_repeat {
            self.error.get_or_insert(ProgramError::MultipleRegions);
            body(self);
            return self;
        }
        let start = self.instrs.len();
        self.in_repeat = true;
        body(self);
        self.in_repeat = false;
        self.region = Some(Region {
            start,
            body_len: self.instrs.len() - start,
            rounds,
        });
        self
    }

    // ----- instruction emitters --------------------------------------------

    /// Emit a raw instruction.
    pub fn emit(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    /// `dst = op(a, b)`.
    pub fn alu(
        &mut self,
        op: AluOp,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.emit(Instr::Alu {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `dst = a + b`.
    pub fn add(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Add, dst, a, b)
    }

    /// `dst = a + imm`.
    pub fn addi(&mut self, dst: Reg, a: Reg, imm: i64) -> &mut Self {
        self.alu(AluOp::Add, dst, a, Operand::Imm(imm))
    }

    /// `dst = a - b`.
    pub fn sub(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Sub, dst, a, b)
    }

    /// `dst = a - imm`.
    pub fn subi(&mut self, dst: Reg, a: Reg, imm: i64) -> &mut Self {
        self.alu(AluOp::Sub, dst, a, Operand::Imm(imm))
    }

    /// `dst = a * b`.
    pub fn mul(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Mul, dst, a, b)
    }

    /// `dst = a / b` (unsigned; division by zero yields `u64::MAX`).
    pub fn div(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Div, dst, a, b)
    }

    /// `dst = a & b`.
    pub fn and(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::And, dst, a, b)
    }

    /// `dst = a | b`.
    pub fn or(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Or, dst, a, b)
    }

    /// `dst = a ^ b`.
    pub fn xor(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Xor, dst, a, b)
    }

    /// `dst = a << b`.
    pub fn shl(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Shl, dst, a, b)
    }

    /// `dst = a >> b`.
    pub fn shr(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Shr, dst, a, b)
    }

    /// `dst = imm`.
    pub fn mov_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.alu(AluOp::Add, dst, Operand::Imm(imm), Operand::Imm(0))
    }

    /// `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.alu(AluOp::Add, dst, src, Operand::Imm(0))
    }

    /// `dst = effective_address(mem)`.
    pub fn lea(&mut self, dst: Reg, mem: MemOperand) -> &mut Self {
        self.emit(Instr::Lea { dst, mem })
    }

    /// `dst = memory[mem]`.
    pub fn load(&mut self, dst: Reg, mem: MemOperand) -> &mut Self {
        self.emit(Instr::Load { dst, mem })
    }

    /// `memory[mem] = src`.
    pub fn store(&mut self, src: impl Into<Operand>, mem: MemOperand) -> &mut Self {
        self.emit(Instr::Store {
            src: src.into(),
            mem,
        })
    }

    /// Software prefetch.
    pub fn prefetch(&mut self, mem: MemOperand) -> &mut Self {
        self.emit(Instr::Prefetch { mem, nta: false })
    }

    /// Non-temporal software prefetch (inserted at eviction priority).
    pub fn prefetch_nta(&mut self, mem: MemOperand) -> &mut Self {
        self.emit(Instr::Prefetch { mem, nta: true })
    }

    /// Flush `mem`'s line from the hierarchy (baseline/test use only).
    pub fn flush(&mut self, mem: MemOperand) -> &mut Self {
        self.emit(Instr::Flush { mem })
    }

    /// Conditional branch to `label` when `cond(a, b)`.
    pub fn br(&mut self, cond: Cond, a: Reg, b: impl Into<Operand>, label: Label) -> &mut Self {
        let at = self.instrs.len();
        self.fixups.push((at, label.0));
        self.emit(Instr::Branch {
            cond,
            a,
            b: b.into(),
            target: usize::MAX,
        })
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        let at = self.instrs.len();
        self.fixups.push((at, label.0));
        self.emit(Instr::Jump { target: usize::MAX })
    }

    /// Serializing fence.
    pub fn fence(&mut self) -> &mut Self {
        self.emit(Instr::Fence)
    }

    /// Halt the simulation.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Instr::Halt)
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::Nop)
    }

    // ----- finishing --------------------------------------------------------

    /// Resolve labels and validate, producing a [`Program`]. Consumes the
    /// assembler, so the program takes over its instruction vector
    /// instead of copying it.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnboundLabel`] if any referenced label was
    /// never bound, [`ProgramError::MultipleRegions`] if [`Asm::repeat`]
    /// was called twice or nested, or the underlying validation errors
    /// from [`Program::with_region`] / [`Program::from_instrs`].
    pub fn assemble(self) -> Result<Program, ProgramError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut instrs = self.instrs;
        for &(at, label) in &self.fixups {
            let pos = self.labels[label].ok_or(ProgramError::UnboundLabel { label })?;
            match &mut instrs[at] {
                Instr::Branch { target, .. } | Instr::Jump { target } => *target = pos,
                other => unreachable!("fixup pointing at non-control instruction {other}"),
            }
        }
        match self.region {
            Some(region) => Program::with_region(instrs, region),
            None => Program::from_instrs(instrs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Cond;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut asm = Asm::new();
        let r = asm.reg();
        let skip = asm.fwd_label();
        asm.mov_imm(r, 1);
        asm.br(Cond::Eq, r, 1, skip);
        asm.mov_imm(r, 99); // skipped at run time
        asm.bind(skip);
        let back = asm.here();
        asm.jump(back); // self-loop
        asm.halt();
        let p = asm.assemble().unwrap();
        match p[1] {
            Instr::Branch { target, .. } => assert_eq!(target, 3),
            ref other => panic!("expected branch, got {other}"),
        }
        match p[3] {
            Instr::Jump { target } => assert_eq!(target, 3),
            ref other => panic!("expected jump, got {other}"),
        }
    }

    #[test]
    fn unbound_label_errors() {
        let mut asm = Asm::new();
        let r = asm.reg();
        let l = asm.fwd_label();
        asm.br(Cond::Eq, r, 0, l);
        asm.halt();
        assert_eq!(asm.assemble(), Err(ProgramError::UnboundLabel { label: 0 }));
    }

    #[test]
    fn register_allocation_is_fresh() {
        let mut asm = Asm::new();
        let a = asm.reg();
        let b = asm.reg();
        assert_ne!(a, b);
        let more = asm.regs(4);
        assert_eq!(more.len(), 4);
        assert_eq!(asm.regs_used(), 6);
    }

    #[test]
    #[should_panic]
    fn register_exhaustion_panics() {
        let mut asm = Asm::new();
        for _ in 0..=crate::NUM_REGS {
            asm.reg();
        }
    }

    #[test]
    #[should_panic]
    fn double_bind_panics() {
        let mut asm = Asm::new();
        let l = asm.fwd_label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    fn builder_methods_emit_expected_opcodes() {
        let mut asm = Asm::new();
        let (a, b, c) = (asm.reg(), asm.reg(), asm.reg());
        asm.add(c, a, b)
            .mul(c, c, a)
            .div(c, c, b)
            .lea(c, MemOperand::abs(8))
            .load(c, MemOperand::base_disp(a, 0))
            .store(c, MemOperand::base_disp(a, 8))
            .prefetch(MemOperand::abs(64))
            .prefetch_nta(MemOperand::abs(128))
            .flush(MemOperand::abs(64))
            .fence()
            .nop()
            .halt();
        let p = asm.assemble().unwrap();
        assert_eq!(p.len(), 12);
        assert!(matches!(p[7], Instr::Prefetch { nta: true, .. }));
        assert!(matches!(p[9], Instr::Fence));
    }

    #[test]
    fn position_tracks_emission() {
        let mut asm = Asm::new();
        assert_eq!(asm.position(), 0);
        asm.nop();
        assert_eq!(asm.position(), 1);
    }
}
