//! Threat-model conformance (paper §3): every *attack* program the library
//! generates must consist only of what restricted JavaScript can express —
//! "simple arithmetic operations, branches, loads, and coarse-grained
//! timers". No flushes, no fences, no stores into foreign memory.

use hacky_racers::attacks::SpectreBack;
use hacky_racers::layout::Layout;
use hacky_racers::machine::Machine;
use hacky_racers::magnify::{ArithmeticMagnifier, PlruInput, PlruMagnifier};
use hacky_racers::path::PathSpec;
use hacky_racers::racing::{ReorderRace, TransientPaRace};
use racer_isa::{AluOp, Instr, Program};
use racer_mem::Addr;

/// Assert a program stays inside the sandboxed-JavaScript instruction set.
fn assert_sandbox_legal(name: &str, prog: &Program) {
    for (i, instr) in prog.iter().enumerate() {
        match instr {
            Instr::Flush { .. } => panic!("{name}: instruction {i} is a flush (not in §3)"),
            Instr::Fence => panic!("{name}: instruction {i} is a fence (not in §3)"),
            Instr::Store { .. } => {
                panic!("{name}: instruction {i} is a store (attacks are read-only)")
            }
            _ => {}
        }
    }
}

#[test]
fn racing_gadget_programs_are_sandbox_legal() {
    let layout = Layout::default();
    let pa = TransientPaRace::new(layout);
    let prog = pa.program(
        &PathSpec::op_chain(AluOp::Add, 20),
        &PathSpec::op_chain(AluOp::Mul, 5),
    );
    assert_sandbox_legal("transient P/A race", &prog);

    let ro = ReorderRace::new(layout);
    let prog = ro.program(
        &PathSpec::op_chain(AluOp::Add, 10),
        &PathSpec::op_chain(AluOp::Add, 20),
        Addr(0x0700_0000),
        Addr(0x0700_2000),
    );
    assert_sandbox_legal("reorder race", &prog);
}

#[test]
fn magnifier_programs_are_sandbox_legal() {
    let m = Machine::baseline();
    let mag = PlruMagnifier::with(m.layout(), 5, 50);
    assert_sandbox_legal(
        "PLRU magnifier (P/A)",
        &mag.program(&m, PlruInput::PresenceAbsence),
    );
    assert_sandbox_legal(
        "PLRU magnifier (reorder)",
        &mag.program(&m, PlruInput::Reorder),
    );

    let arith = ArithmeticMagnifier::new(m.layout());
    assert_sandbox_legal("arithmetic magnifier", &arith.program(10));
}

#[test]
fn spectre_back_program_is_sandbox_legal() {
    let m = Machine::baseline();
    let atk = SpectreBack::new(m.layout());
    assert_sandbox_legal("SpectreBack", &atk.program(&m));
}

#[test]
fn gadget_programs_contain_no_fine_grained_timer_reads() {
    // There is no timer-read instruction in the ISA at all; the only clock
    // is the host-side coarse timer. This test documents that invariant by
    // construction: the instruction set enumerates every effect a program
    // can have, and none of them reads time.
    let m = Machine::baseline();
    let atk = SpectreBack::new(m.layout());
    let prog = atk.program(&m);
    assert!(prog
        .iter()
        .all(|i| !matches!(i, Instr::Flush { .. } | Instr::Fence)));
}
