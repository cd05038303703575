//! # racer-isa — instruction set and assembler for the Hacky Racers simulator
//!
//! A small RISC-like virtual instruction set expressing exactly what the
//! paper's JavaScript threat model allows: *"simple arithmetic operations,
//! branches, loads, and coarse-grained timers"* (§1), plus a few privileged
//! operations (`flush`, `fence`) used only by baselines and test harnesses.
//!
//! The crate provides:
//!
//! * [`Instr`] / [`AluOp`] / [`Cond`] — the instruction forms;
//! * [`Program`] — a validated instruction sequence with resolved branch
//!   targets and its µop table, optionally holding one repeated
//!   [`Region`] whose body is stored once ([`Asm::repeat`]);
//! * [`decode`] — pre-decoded µop tables ([`DecodedProgram`]): the static
//!   facts (FU class, source list, destination, slot-mapped operands) every
//!   hot consumer used to re-derive per dynamic instruction, computed once
//!   per static instruction when a [`Program`] is built;
//! * [`Asm`] — a builder/assembler DSL with labels and a fresh-register
//!   allocator, used by `hacky-racers` to generate gadget code;
//! * [`interp`] — an architectural (timing-free) reference interpreter used
//!   for differential testing against the out-of-order core.
//!
//! ## Quickstart
//!
//! ```
//! use racer_isa::{Asm, DataMemory, interp};
//!
//! let mut asm = Asm::new();
//! let (a, b, c) = (asm.reg(), asm.reg(), asm.reg());
//! asm.mov_imm(a, 20);
//! asm.mov_imm(b, 22);
//! asm.add(c, a, b);
//! asm.halt();
//! let prog = asm.assemble().expect("valid program");
//!
//! let mut mem = DataMemory::new();
//! let result = interp::run(&prog, &mut mem, 1_000).expect("terminates");
//! assert_eq!(result.regs[c.index()], 42);
//! ```

pub mod asm;
pub mod decode;
pub mod instr;
pub mod interp;
pub mod mem;
pub mod program;
pub mod reg;

pub use asm::Asm;
pub use decode::{DecodedInstr, DecodedMem, DecodedOp, DecodedProgram, SrcRef};
pub use instr::{AluOp, Cond, FuClass, Instr, MemOperand, Operand};
pub use mem::DataMemory;
pub use program::{Label, Program, ProgramError, Region};
pub use reg::{Reg, NUM_REGS};
