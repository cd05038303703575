//! Canonical benchmark workloads.
//!
//! Every layer above the core needs the same handful of "representative
//! program shapes" — the benchmark (`perfbench/`) times them, the
//! work-count test (`crates/core/tests/work_counts.rs`) pins their exact
//! simulated work, the detection study profiles them. This module is the
//! stable API for them: named program builders and the
//! [`standard_suite`] that names them.
//!
//! The shapes stress distinct scheduler paths:
//!
//! * [`alu_chain`] — serial dependency chains (pure wakeup latency);
//! * [`branchy`] — data-dependent branches at a tunable mispredict rate
//!   (squash/recovery);
//! * [`memory_stream`] — streaming loads (MSHR + hierarchy pressure);
//! * [`div_race`] — a non-pipelined divide chain contended against wide
//!   independent ALU work (the paper's §6.4 arithmetic-magnifier mix).
//!
//! For the SMT core (paper §9, "other shared resources") it also provides
//! **port-pressure contender kernels** — [`alu_saturate`] (issue-port
//! pressure), [`div_hog`] (divider-unit pressure) and the existing
//! [`memory_stream`] (load-port + MSHR pressure) — plus [`timer_race`],
//! the racing-gadget timer program whose resolution the
//! `smt_contention_eval` scenario measures under each contender.

use crate::RunResult;
use racer_isa::{AluOp, Asm, Cond, Instr, MemOperand, Operand, Program};

/// A named program plus the repetition count used when timing it.
pub struct Workload {
    /// Short machine-readable name (stable: keys the benchmark's metrics
    /// and the committed work counts).
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// The assembled program.
    pub prog: Program,
    /// Fresh executions to time per measurement.
    pub reps: usize,
    /// Co-resident program for a second hardware thread: when set, the
    /// workload is timed as a two-thread SMT co-schedule (`prog` on thread
    /// 0, the contender on thread 1) and throughput counts both threads'
    /// committed instructions.
    pub contender: Option<Program>,
}

/// Dependent ALU chains inside a counter loop — the paper's reference-path
/// shape and the purest scheduler stress (every instruction wakes one
/// dependent).
pub fn alu_chain(iters: i64) -> Program {
    let mut asm = Asm::new();
    let (i, acc) = (asm.reg(), asm.reg());
    asm.mov_imm(i, iters);
    asm.mov_imm(acc, 1);
    let top = asm.here();
    for _ in 0..16 {
        asm.addi(acc, acc, 1);
    }
    asm.subi(i, i, 1);
    asm.br(Cond::Ne, i, 0, top);
    asm.halt();
    asm.assemble().expect("valid program")
}

/// Data-dependent branches: a pseudo-random bit field steers control flow.
/// `mask = 7` gives the ~12% mispredict rate of branchy integer code;
/// `mask = 1` is the adversarial alternating pattern a 2-bit counter can
/// never learn (~70% squash storm).
pub fn branchy(iters: i64, mask: i64) -> Program {
    let mut asm = Asm::new();
    let (i, v, acc) = (asm.reg(), asm.reg(), asm.reg());
    asm.mov_imm(i, iters);
    let top = asm.here();
    asm.mul(v, i, 0x9E37i64);
    asm.emit(Instr::Alu {
        op: AluOp::Shr,
        dst: v,
        a: Operand::Reg(v),
        b: Operand::Imm(7),
    });
    asm.emit(Instr::Alu {
        op: AluOp::And,
        dst: v,
        a: Operand::Reg(v),
        b: Operand::Imm(mask),
    });
    let skip = asm.fwd_label();
    asm.br(Cond::Ne, v, 0i64, skip);
    asm.addi(acc, acc, 3);
    asm.addi(acc, acc, 5);
    asm.bind(skip);
    asm.addi(acc, acc, 1);
    asm.subi(i, i, 1);
    asm.br(Cond::Ne, i, 0, top);
    asm.halt();
    asm.assemble().expect("valid program")
}

/// Streaming loads over many lines: MSHR pressure, store ordering and the
/// cache hierarchy on every issue.
pub fn memory_stream(iters: i64) -> Program {
    let mut asm = Asm::new();
    let (i, d, addr) = (asm.reg(), asm.reg(), asm.reg());
    asm.mov_imm(i, iters);
    let top = asm.here();
    asm.mul(addr, i, 64);
    for k in 0..8u64 {
        asm.load(d, MemOperand::base_disp(addr, 0x10000 + (k * 64) as i64));
    }
    asm.store(d, MemOperand::abs(0x9000));
    asm.subi(i, i, 1);
    asm.br(Cond::Ne, i, 0, top);
    asm.halt();
    asm.assemble().expect("valid program")
}

/// Racing-gadget shape: a divide chain contended against wide independent
/// ALU work (the §6.4 arithmetic-magnifier mix).
pub fn div_race(iters: i64) -> Program {
    let mut asm = Asm::new();
    let (i, x, y) = (asm.reg(), asm.reg(), asm.reg());
    let pars = asm.regs(4);
    asm.mov_imm(i, iters);
    asm.mov_imm(x, 1 << 20);
    let top = asm.here();
    asm.div(x, x, 3i64);
    asm.addi(x, x, 1 << 20);
    for (k, &p) in pars.iter().enumerate() {
        asm.mul(y, p, (k + 3) as i64);
        asm.add(p, p, y);
    }
    asm.subi(i, i, 1);
    asm.br(Cond::Ne, i, 0, top);
    asm.halt();
    asm.assemble().expect("valid program")
}

/// SMT contender: `width` independent single-add chains per unrolled step
/// (×4 unroll to drown the loop overhead). With `width >= alu_ports` the
/// kernel claims every simple-ALU issue port on the cycles it arbitrates
/// first — the pure port-pressure contender for a co-resident
/// racing-gadget timer.
pub fn alu_saturate(iters: i64, width: usize) -> Program {
    let mut asm = Asm::new();
    let i = asm.reg();
    let pars = asm.regs(width);
    asm.mov_imm(i, iters);
    let top = asm.here();
    for _ in 0..4 {
        for &p in &pars {
            asm.addi(p, p, 1);
        }
    }
    asm.subi(i, i, 1);
    asm.br(Cond::Ne, i, 0, top);
    asm.halt();
    asm.assemble().expect("valid program")
}

/// SMT contender: three parallel dependent divide chains (the §6.4
/// arithmetic-magnifier shape, tripled). Each divide claims a divider
/// unit for the reciprocal interval, and the chains' 13/14-cycle
/// operand-dependent latencies keep the claim cadence drifting — so a
/// co-resident thread's divides see heavy but *bounded* divider
/// contention. (A back-to-back independent-divide hog claims the unit at
/// exactly the reciprocal period, which phase-locks against round-robin
/// arbitration and starves the sibling outright — total capture, not a
/// graded pressure source.)
pub fn div_hog(iters: i64) -> Program {
    let mut asm = Asm::new();
    let i = asm.reg();
    let chains = asm.regs(3);
    asm.mov_imm(i, iters);
    for (k, &c) in chains.iter().enumerate() {
        asm.mov_imm(c, (1 << 20) + k as i64);
    }
    let top = asm.here();
    for &c in &chains {
        asm.div(c, c, 3i64);
        asm.addi(c, c, 1 << 20);
    }
    asm.subi(i, i, 1);
    asm.br(Cond::Ne, i, 0, top);
    asm.halt();
    asm.assemble().expect("valid program")
}

/// A racing-gadget timer program (paper §4/§6.4 shape): a serial
/// *measured* chain of `measured_divs` dependent divides races a serial
/// *clock* chain of `clock_adds` dependent adds. Both chains are
/// independent of each other, so the out-of-order core runs them
/// concurrently and the order their tails complete in is exactly the race
/// outcome the paper's gadgets transmit through cache state. Emission
/// interleaves the chains so the front end feeds both from the first
/// cycles.
///
/// The program is branch-free and memory-free: the race depends only on
/// chain latencies and *issue-port availability* — which is what makes it
/// an SMT port-contention probe.
pub struct TimerRace {
    /// The assembled straight-line program.
    pub prog: Program,
    /// pc of the measured chain's final instruction.
    pub measured_tail_pc: usize,
    /// pc of the clock chain's final instruction.
    pub clock_tail_pc: usize,
}

/// Build a [`TimerRace`] with the given chain lengths.
pub fn timer_race(measured_divs: usize, clock_adds: usize) -> TimerRace {
    timer_race_phased(measured_divs, clock_adds, 0)
}

/// [`timer_race`] with `phase_nops` leading no-ops: in an SMT co-run they
/// shift the racer's dispatch alignment against a co-resident contender,
/// giving a deterministic phase-diversity axis for contention sweeps.
pub fn timer_race_phased(measured_divs: usize, clock_adds: usize, phase_nops: usize) -> TimerRace {
    let mut asm = Asm::new();
    let (m, c) = (asm.reg(), asm.reg());
    for _ in 0..phase_nops {
        asm.emit(Instr::Nop);
    }
    let mut measured_tail_pc = asm.position();
    asm.mov_imm(m, 1 << 20);
    let mut clock_tail_pc = asm.position();
    asm.mov_imm(c, 0);
    let mut emitted_clock = 0usize;
    let mut emit_clock_until = |asm: &mut Asm, tail: &mut usize, target: usize| {
        while emitted_clock < target {
            *tail = asm.position();
            asm.addi(c, c, 1);
            emitted_clock += 1;
        }
    };
    for d in 0..measured_divs {
        measured_tail_pc = asm.position();
        asm.div(m, m, 3i64);
        // Keep the clock chain's share of the front end proportional.
        let target = clock_adds * (d + 1) / measured_divs;
        emit_clock_until(&mut asm, &mut clock_tail_pc, target);
    }
    emit_clock_until(&mut asm, &mut clock_tail_pc, clock_adds);
    asm.halt();
    TimerRace {
        prog: asm.assemble().expect("valid program"),
        measured_tail_pc,
        clock_tail_pc,
    }
}

impl TimerRace {
    /// Completion cycles of the two chain tails from a
    /// [`RecordLevel::Trace`](crate::RecordLevel::Trace) run: `(measured,
    /// clock)`. The program is straight-line, so each pc maps to exactly
    /// one committed dynamic instruction.
    pub fn tail_completions(&self, result: &RunResult) -> (u64, u64) {
        let completion = |pc: usize| {
            result
                .trace
                .iter()
                .find(|r| r.pc == pc)
                .and_then(|r| r.completed)
                .expect("straight-line race program commits every pc")
        };
        (
            completion(self.measured_tail_pc),
            completion(self.clock_tail_pc),
        )
    }
}

/// The standard five-workload suite at a given loop scale: `iters`
/// iterations (the divide chain runs `iters / 4`, it is ~10× slower per
/// iteration) and `reps` timed executions each.
pub fn standard_suite(iters: i64, reps: usize) -> Vec<Workload> {
    vec![
        Workload {
            name: "alu-chain",
            description: "dependent 16-add chains in a counter loop",
            prog: alu_chain(iters),
            reps,
            contender: None,
        },
        Workload {
            name: "branchy",
            description: "data-dependent branches, ~12% mispredict rate",
            prog: branchy(iters, 7),
            reps,
            contender: None,
        },
        Workload {
            name: "squash-storm",
            description: "adversarial alternating branches, ~70% mispredict rate",
            prog: branchy(iters, 1),
            reps,
            contender: None,
        },
        Workload {
            name: "memory-stream",
            description: "8 streaming loads/iteration over 64-line footprint",
            prog: memory_stream(iters),
            reps,
            contender: None,
        },
        Workload {
            name: "div-race",
            description: "non-pipelined divide chain racing wide mul/add ILP",
            prog: div_race(iters / 4),
            reps,
            contender: None,
        },
        Workload {
            name: "smt-contention",
            description: "2-thread SMT co-schedule: div-race timer vs ALU-saturating contender",
            prog: div_race(iters / 4),
            reps,
            contender: Some(alu_saturate(iters / 2, 8)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Cpu, CpuConfig};
    use racer_mem::HierarchyConfig;

    /// Run a workload once on a fresh coffee-lake machine (two hardware
    /// threads when it has a contender) and return thread 0's result.
    fn run_workload(w: &Workload, backend: Backend) -> RunResult {
        let mut progs = vec![&w.prog];
        let mut cfg = CpuConfig::coffee_lake();
        if let Some(contender) = &w.contender {
            progs.push(contender);
            cfg.threads = 2;
        }
        let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
        let mut results = cpu.run(&progs, backend);
        for r in &results {
            assert!(r.halted && !r.limit_hit, "{} must halt", w.name);
        }
        results.swap_remove(0)
    }

    #[test]
    fn standard_suite_names_are_stable() {
        let suite = standard_suite(100, 1);
        let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "alu-chain",
                "branchy",
                "squash-storm",
                "memory-stream",
                "div-race",
                "smt-contention"
            ]
        );
    }

    #[test]
    fn every_workload_halts_on_both_schedulers_with_identical_state() {
        for w in standard_suite(60, 1) {
            let fast = run_workload(&w, Backend::EventDriven);
            let reference = run_workload(&w, Backend::Reference);
            assert_eq!(
                (fast.cycles, fast.committed, &fast.regs),
                (reference.cycles, reference.committed, &reference.regs),
                "schedulers diverged on {}",
                w.name
            );
        }
    }

    #[test]
    fn timer_race_tails_are_readable_and_ordered() {
        // A 1-div measured chain (~13 cycles) against a 60-add clock chain:
        // the measured chain must win; flip the lengths and the clock wins.
        let mut cpu = Cpu::new(
            CpuConfig::coffee_lake().with_trace(),
            HierarchyConfig::coffee_lake(),
        );
        let short = timer_race(1, 60);
        let r = cpu.run_one(&short.prog, Backend::EventDriven);
        assert!(r.halted);
        let (m, c) = short.tail_completions(&r);
        assert!(m < c, "1 div (~13 cycles) beats 60 serial adds: {m} vs {c}");

        let long = timer_race(4, 5);
        let r = cpu.run_one(&long.prog, Backend::EventDriven);
        let (m, c) = long.tail_completions(&r);
        assert!(
            m > c,
            "4 divs (~52 cycles) lose to 5 serial adds: {m} vs {c}"
        );
    }

    #[test]
    fn timer_race_edge_lengths_assemble_and_halt() {
        let mut cpu = Cpu::new(
            CpuConfig::coffee_lake().with_trace(),
            HierarchyConfig::coffee_lake(),
        );
        for (divs, adds) in [(0, 0), (0, 8), (3, 0)] {
            let race = timer_race(divs, adds);
            let r = cpu.run_one(&race.prog, Backend::EventDriven);
            assert!(r.halted, "race ({divs}, {adds}) must halt");
            let (m, c) = race.tail_completions(&r);
            assert!(m > 0 && c > 0);
        }
    }

    #[test]
    fn contender_kernels_halt_and_stress_their_ports() {
        let mut cpu = Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake());
        let alu = cpu.run_one(&alu_saturate(50, 8), Backend::EventDriven);
        assert!(alu.halted);
        // 8 chains × 4 unroll + loop overhead at 4 ALU ports: IPC should
        // pin near the 4-wide commit limit.
        assert!(alu.ipc() > 3.0, "alu_saturate IPC {:.2}", alu.ipc());
        let div = cpu.run_one(&div_hog(50), Backend::EventDriven);
        assert!(div.halted);
        // Two parallel dependent divide chains: each iteration takes about
        // one divide latency (the chains overlap), so the divider stays
        // busy roughly every reciprocal interval.
        let cycles_per_iter = div.cycles as f64 / 50.0;
        assert!(
            (10.0..20.0).contains(&cycles_per_iter),
            "div_hog should be divide-latency-bound: {cycles_per_iter:.2} cycles/iteration"
        );
    }

    #[test]
    fn branchy_mask_controls_mispredict_rate() {
        let mut cpu = Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake());
        let easy = cpu.run_one(&branchy(400, 7), Backend::EventDriven);
        let storm = cpu.run_one(&branchy(400, 1), Backend::EventDriven);
        assert!(
            storm.mispredicts > easy.mispredicts * 2,
            "mask=1 should mispredict far more: {} vs {}",
            storm.mispredicts,
            easy.mispredicts
        );
    }
}
