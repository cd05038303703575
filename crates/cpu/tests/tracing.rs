//! Pipeline-trace tests: the trace must reflect the schedule the timing
//! model actually produced, including wrong-path (squashed) work.

use racer_cpu::{render_pipeline, Backend, Cpu, CpuConfig};
use racer_isa::{AluOp, Asm, Cond, Instr, MemOperand};
use racer_mem::{Addr, HierarchyConfig};

fn traced_cpu() -> Cpu {
    Cpu::new(
        CpuConfig::coffee_lake().with_trace(),
        HierarchyConfig::coffee_lake(),
    )
}

#[test]
fn trace_covers_every_committed_instruction_in_order() {
    let mut cpu = traced_cpu();
    let mut asm = Asm::new();
    let (a, b) = (asm.reg(), asm.reg());
    asm.mov_imm(a, 5);
    asm.mul(b, a, a);
    asm.add(b, b, a);
    asm.halt();
    let r = cpu.run_one(&asm.assemble().unwrap(), Backend::EventDriven);
    assert_eq!(r.trace.len(), 4);
    for (i, rec) in r.trace.iter().enumerate() {
        assert_eq!(rec.seq, i as u64, "dispatch order is sequence order");
        assert!(!rec.squashed(), "straight-line code commits everything");
        let issued = rec.issued.expect("issued");
        let completed = rec.completed.expect("completed");
        let committed = rec.committed.expect("committed");
        assert!(rec.fetched <= rec.dispatched);
        assert!(rec.dispatched <= issued);
        assert!(issued < completed || matches!(rec.instr, Instr::Halt | Instr::Nop));
        assert!(completed <= committed, "commit follows completion");
    }
}

#[test]
fn trace_timestamps_reflect_dataflow() {
    let mut cpu = traced_cpu();
    let mut asm = Asm::new();
    let (a, b, c) = (asm.reg(), asm.reg(), asm.reg());
    asm.load(a, MemOperand::abs(0x9000)); // cold: ~240 cycles
    asm.addi(b, a, 1); // dependent: must issue after the load completes
    asm.mov_imm(c, 7); // independent: issues immediately
    asm.halt();
    let r = cpu.run_one(&asm.assemble().unwrap(), Backend::EventDriven);
    let load = &r.trace[0];
    let dep = &r.trace[1];
    let indep = &r.trace[2];
    assert!(
        dep.issued.unwrap() >= load.completed.unwrap(),
        "dependent add must wait for the load"
    );
    assert!(
        indep.issued.unwrap() < load.completed.unwrap(),
        "independent mov must not wait"
    );
}

#[test]
fn squashed_wrong_path_work_appears_in_the_trace() {
    let mut cpu = traced_cpu();
    let mut asm = Asm::new();
    let (x, y) = (asm.reg(), asm.reg());
    let skip = asm.fwd_label();
    asm.load(x, MemOperand::abs(0x100)); // slow condition source
    asm.br(Cond::Ge, x, 1, skip);
    asm.addi(y, y, 1); // transient when x >= 1 and predictor says not-taken
    asm.bind(skip);
    asm.halt();
    let prog = asm.assemble().unwrap();

    // Train not-taken, then flip.
    cpu.mem_mut().write(0x100, 0);
    for _ in 0..4 {
        cpu.run_one(&prog, Backend::EventDriven);
    }
    cpu.mem_mut().write(0x100, 1);
    cpu.hierarchy_mut().flush(Addr(0x100));
    let r = cpu.run_one(&prog, Backend::EventDriven);
    assert!(r.mispredicts >= 1);
    let squashed: Vec<_> = r.trace.iter().filter(|t| t.squashed()).collect();
    assert!(
        !squashed.is_empty(),
        "wrong-path add must appear squashed in the trace"
    );
    let rendered = render_pipeline(&r.trace);
    assert!(rendered.contains("(squashed)"));
}

#[test]
fn trace_is_empty_unless_enabled() {
    let mut cpu = Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake());
    let mut asm = Asm::new();
    asm.nop();
    asm.halt();
    let r = cpu.run_one(&asm.assemble().unwrap(), Backend::EventDriven);
    assert!(r.trace.is_empty());
}

#[test]
fn race_winners_are_visible_in_the_trace() {
    // The diagnostic use case: two racing chains; the trace shows the
    // shorter chain's terminal op issuing first.
    let mut cpu = traced_cpu();
    let mut asm = Asm::new();
    let seed = asm.reg();
    asm.load(seed, MemOperand::abs(0x8000)); // shared slow head
    let short = asm.reg();
    asm.add(short, seed, 0i64);
    for _ in 0..5 {
        asm.add(short, short, 1i64);
    }
    let long = asm.reg();
    asm.add(long, seed, 0i64);
    for _ in 0..25 {
        asm.add(long, long, 1i64);
    }
    asm.halt();
    let r = cpu.run_one(&asm.assemble().unwrap(), Backend::EventDriven);
    // Terminal ops: last add of each chain.
    let short_end = r.trace.iter().rfind(|t| t.pc <= 6 && t.pc >= 2).unwrap();
    let long_end = r
        .trace
        .iter()
        .rev()
        .find(|t| matches!(t.instr, Instr::Alu { op: AluOp::Add, .. }))
        .unwrap();
    assert!(
        short_end.issued.unwrap() < long_end.issued.unwrap(),
        "the short path's terminator must issue first:\n{}",
        render_pipeline(&r.trace)
    );
}

/// Records keep the `Instr` and `render_pipeline` disassembles it on
/// demand; the diagram (columns, disassembly, squash marks) is pinned
/// byte for byte.
#[test]
fn rendered_pipeline_is_pinned_byte_for_byte() {
    let mut cpu = traced_cpu();
    let mut asm = Asm::new();
    let (x, y) = (asm.reg(), asm.reg());
    let skip = asm.fwd_label();
    asm.load(x, MemOperand::abs(0x100));
    asm.br(Cond::Ge, x, 1, skip);
    asm.addi(y, y, 1);
    asm.mul(y, y, x);
    asm.bind(skip);
    asm.fence();
    asm.store(y, MemOperand::abs(0x140));
    asm.halt();
    let prog = asm.assemble().unwrap();
    cpu.mem_mut().write(0x100, 0);
    for _ in 0..4 {
        cpu.run_one(&prog, Backend::EventDriven);
    }
    cpu.mem_mut().write(0x100, 1);
    cpu.hierarchy_mut().flush(Addr(0x100));
    let r = cpu.run_one(&prog, Backend::EventDriven);
    assert_eq!(
        render_pipeline(&r.trace),
        "  seq    pc     F      D      I      C      R   instruction
    0     0      0      5      6    246    246  load r0, [0x100]
    1     1      0      5    246    247    247  bge r0, 0x1, @4
    2     2      0      5      6      7      -  add r1, r1, 0x1   (squashed)
    3     3      0      5    246      -      -  mul r1, r1, r0   (squashed)
    4     4      1      6      7      7      -  fence   (squashed)
    5     4    247    252    253    253    254  fence
    6     5    247    254    255    256    256  store [0x140], r1
    7     6    247    254    255    255    256  halt
"
    );
}
