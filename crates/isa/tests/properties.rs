//! Property-based tests for the ISA layer: assembler/label correctness and
//! source-register invariants over randomized programs.

use proptest::prelude::*;
use racer_isa::{interp, AluOp, Asm, Cond, DataMemory, Instr, MemOperand, Operand, Reg};

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
        Just(AluOp::Mul),
        Just(AluOp::Div),
    ]
}

proptest! {
    /// ALU evaluation is total (no panics) and deterministic.
    #[test]
    fn alu_eval_is_total_and_deterministic(
        op in arb_alu_op(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let x = op.eval(a, b);
        let y = op.eval(a, b);
        prop_assert_eq!(x, y);
    }

    /// Division never panics, even by zero, and matches wrapping semantics.
    #[test]
    #[allow(clippy::manual_checked_ops)]
    fn division_semantics(a in any::<u64>(), b in any::<u64>()) {
        let q = AluOp::Div.eval(a, b);
        if b == 0 {
            prop_assert_eq!(q, u64::MAX);
        } else {
            prop_assert_eq!(q, a / b);
        }
    }

    /// Branch conditions partition: exactly one of Eq/Ne holds, and exactly
    /// one of Lt/Ge holds.
    #[test]
    fn cond_partitions(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_ne!(Cond::Eq.eval(a, b), Cond::Ne.eval(a, b));
        prop_assert_ne!(Cond::Lt.eval(a, b), Cond::Ge.eval(a, b));
    }

    /// Every instruction's `srcs()` lists exactly the registers that can
    /// influence its result: renaming any unlisted register leaves the
    /// interpreter's outcome unchanged.
    #[test]
    fn srcs_are_complete(
        op in arb_alu_op(),
        d in 0usize..8,
        a in 0usize..8,
        b in 0usize..8,
        values in proptest::collection::vec(any::<u64>(), 8),
        poison in any::<u64>(),
        victim in 8usize..16,
    ) {
        let instr = Instr::Alu {
            op,
            dst: Reg::new(d),
            a: Operand::Reg(Reg::new(a)),
            b: Operand::Reg(Reg::new(b)),
        };
        let srcs = instr.srcs();
        prop_assume!(!srcs.contains(&Reg::new(victim)));

        let run = |poisoned: bool| {
            let mut asm = Asm::new();
            let regs = asm.regs(16);
            for (i, &v) in values.iter().enumerate() {
                asm.mov_imm(regs[i], v as i64);
            }
            if poisoned {
                asm.mov_imm(regs[victim], poison as i64);
            }
            asm.emit(instr);
            asm.halt();
            let prog = asm.assemble().unwrap();
            let mut mem = DataMemory::new();
            interp::run(&prog, &mut mem, 1000).unwrap().regs[d]
        };
        prop_assert_eq!(run(false), run(true), "unlisted register affected the result");
    }

    /// Label fixups always resolve to the bound position, wherever the
    /// label is bound.
    #[test]
    fn labels_resolve_to_bound_positions(pre in 0usize..20, post in 0usize..20) {
        let mut asm = Asm::new();
        let r = asm.reg();
        let target = asm.fwd_label();
        asm.br(Cond::Eq, r, 0i64, target);
        for _ in 0..pre {
            asm.nop();
        }
        asm.bind(target);
        for _ in 0..post {
            asm.nop();
        }
        asm.halt();
        let prog = asm.assemble().unwrap();
        match prog[0] {
            Instr::Branch { target, .. } => prop_assert_eq!(target, 1 + pre),
            ref other => prop_assert!(false, "expected branch, got {}", other),
        }
    }

    /// Memory-operand evaluation matches its algebraic definition.
    #[test]
    fn mem_operand_algebra(
        base_v in any::<u64>(),
        idx_v in any::<u64>(),
        scale in prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
        disp in any::<i32>(),
    ) {
        let mut regs = vec![0u64; 4];
        regs[1] = base_v;
        regs[2] = idx_v;
        let m = MemOperand::base_index(Reg::new(1), Reg::new(2), scale, disp as i64);
        let expect = base_v
            .wrapping_add(idx_v.wrapping_mul(scale as u64))
            .wrapping_add(disp as i64 as u64);
        prop_assert_eq!(m.eval(&regs), expect);
    }
}
