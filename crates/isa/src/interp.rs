//! Architectural reference interpreter (no timing, no speculation).
//!
//! Executes a [`Program`] in strict program order, producing the
//! architecturally visible results: final registers, memory mutations and the
//! committed memory-access trace. The out-of-order core in `racer-cpu` must
//! agree with this interpreter on all architectural state for every program
//! — speculation may only change *timing and cache state*, never results.
//! That invariant is enforced by differential tests.
//!
//! The dispatch loop indexes the program's µop table
//! ([`Program::decoded`], decoded once when the program was built) rather
//! than re-matching [`Instr`](crate::Instr) per dynamic step; operands are
//! read through the decode-time slot mapping.

use crate::decode::{DecodedOp, SrcRef};
use crate::mem::DataMemory;
use crate::program::Program;
use crate::reg::NUM_REGS;
use std::fmt;

/// A committed memory access, in program order.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub enum MemEvent {
    /// Load from the address.
    Load(u64),
    /// Store to the address.
    Store(u64),
}

/// Outcome of an interpreter run.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct InterpResult {
    /// Final architectural register file.
    pub regs: Vec<u64>,
    /// Dynamic instructions executed (including the final `halt`).
    pub steps: u64,
    /// Whether the program reached a `halt` (as opposed to falling off the
    /// end, which also terminates cleanly).
    pub halted: bool,
    /// Committed loads/stores in program order.
    pub mem_trace: Vec<MemEvent>,
}

/// Interpreter failure.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub enum InterpError {
    /// `max_steps` was reached before the program terminated.
    StepLimit {
        /// The limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StepLimit { limit } => {
                write!(f, "program exceeded the step limit of {limit}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Run `prog` against `mem` for at most `max_steps` dynamic instructions.
///
/// Registers start at zero. Loads of unwritten memory read zero.
///
/// # Errors
///
/// Returns [`InterpError::StepLimit`] if the program does not terminate
/// within `max_steps`.
///
/// ```
/// use racer_isa::{Asm, Cond, DataMemory, interp};
/// let mut asm = Asm::new();
/// let (i, sum) = (asm.reg(), asm.reg());
/// asm.mov_imm(i, 5);
/// let top = asm.here();
/// asm.add(sum, sum, i);
/// asm.subi(i, i, 1);
/// asm.br(Cond::Ne, i, 0, top);
/// asm.halt();
/// let prog = asm.assemble()?;
/// let mut mem = DataMemory::new();
/// let r = interp::run(&prog, &mut mem, 1_000)?;
/// assert_eq!(r.regs[sum.index()], 5 + 4 + 3 + 2 + 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run(
    prog: &Program,
    mem: &mut DataMemory,
    max_steps: u64,
) -> Result<InterpResult, InterpError> {
    let decoded = prog.decoded();
    let mut regs = vec![0u64; NUM_REGS];
    let mut trace = Vec::new();
    let mut pc = 0usize;
    let mut steps = 0u64;
    let mut halted = false;

    while pc < decoded.len() {
        if steps >= max_steps {
            return Err(InterpError::StepLimit { limit: max_steps });
        }
        steps += 1;
        let d = &decoded[pc];
        let src = |slot: u8| regs[d.srcs[slot as usize].index()];
        let val = |s: SrcRef| match s {
            SrcRef::Slot(i) => src(i),
            SrcRef::Imm(v) => v,
        };
        let mut next = pc + 1;
        match d.op {
            DecodedOp::Alu { op, a, b } => {
                let r = op.eval(val(a), val(b));
                regs[d.dst.expect("ALU writes a destination").index()] = r;
            }
            DecodedOp::Lea(m) => {
                regs[d.dst.expect("lea writes a destination").index()] = m.eval(src);
            }
            DecodedOp::Load(m) => {
                let addr = m.eval(src);
                regs[d.dst.expect("load writes a destination").index()] = mem.read(addr);
                trace.push(MemEvent::Load(addr));
            }
            DecodedOp::Store { src: s, mem: m } => {
                let addr = m.eval(src);
                mem.write(addr, val(s));
                trace.push(MemEvent::Store(addr));
            }
            DecodedOp::Prefetch { .. }
            | DecodedOp::Flush(_)
            | DecodedOp::Fence
            | DecodedOp::Nop => {}
            DecodedOp::Branch { cond, b, target } => {
                if cond.eval(src(0), val(b)) {
                    next = target as usize;
                }
            }
            DecodedOp::Jump { target } => {
                next = target as usize;
            }
            DecodedOp::Halt => {
                halted = true;
                break;
            }
        }
        pc = next;
    }

    Ok(InterpResult {
        regs,
        steps,
        halted,
        mem_trace: trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::instr::{Cond, MemOperand};

    #[test]
    fn loop_and_branch() {
        let mut asm = Asm::new();
        let (i, acc) = (asm.reg(), asm.reg());
        asm.mov_imm(i, 10);
        let top = asm.here();
        asm.addi(acc, acc, 3);
        asm.subi(i, i, 1);
        asm.br(Cond::Ne, i, 0, top);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut mem = DataMemory::new();
        let r = run(&p, &mut mem, 1000).unwrap();
        assert_eq!(r.regs[acc.index()], 30);
        assert!(r.halted);
    }

    #[test]
    fn pointer_chase_reads_memory() {
        let mut asm = Asm::new();
        let (v, base) = (asm.reg(), asm.reg());
        asm.mov_imm(base, 0x100);
        asm.load(v, MemOperand::base_disp(base, 0)); // v = mem[0x100] = 0x200
        asm.load(v, MemOperand::base_disp(v, 0)); // v = mem[0x200] = 7
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut mem = DataMemory::new();
        mem.write(0x100, 0x200);
        mem.write(0x200, 7);
        let r = run(&p, &mut mem, 100).unwrap();
        assert_eq!(r.regs[v.index()], 7);
        assert_eq!(
            r.mem_trace,
            vec![MemEvent::Load(0x100), MemEvent::Load(0x200)]
        );
    }

    #[test]
    fn stores_mutate_memory() {
        let mut asm = Asm::new();
        let r = asm.reg();
        asm.mov_imm(r, 42);
        asm.store(r, MemOperand::abs(0x8));
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut mem = DataMemory::new();
        run(&p, &mut mem, 100).unwrap();
        assert_eq!(mem.read(0x8), 42);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut asm = Asm::new();
        let top = asm.here();
        asm.jump(top);
        let p = asm.assemble().unwrap();
        let mut mem = DataMemory::new();
        assert_eq!(
            run(&p, &mut mem, 50),
            Err(InterpError::StepLimit { limit: 50 })
        );
    }

    #[test]
    fn falling_off_the_end_terminates_unhalted() {
        let mut asm = Asm::new();
        asm.nop();
        let p = asm.assemble().unwrap();
        let mut mem = DataMemory::new();
        let r = run(&p, &mut mem, 10).unwrap();
        assert!(!r.halted);
        assert_eq!(r.steps, 1);
    }

    #[test]
    fn untaken_branch_falls_through() {
        let mut asm = Asm::new();
        let r = asm.reg();
        let l = asm.fwd_label();
        asm.mov_imm(r, 5);
        asm.br(Cond::Eq, r, 0, l); // not taken
        asm.addi(r, r, 1);
        asm.bind(l);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut mem = DataMemory::new();
        let res = run(&p, &mut mem, 100).unwrap();
        assert_eq!(res.regs[r.index()], 6);
    }
}
