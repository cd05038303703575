//! Differential validation of the execution paths against the retained
//! scan-based reference scheduler (`racer_cpu::reference`): the
//! event-driven production scheduler and the fork-and-run path
//! (`Snapshot::run_many` in `racer_cpu::engine`) both run every program.
//!
//! The implementations must be **cycle-exact** equivalents: for any
//! program and configuration, every observable of [`RunResult`] — total
//! cycles, commit counts, squash/mispredict/interrupt counters, final
//! registers, the full per-load event stream, the pipeline trace and the
//! cache-hierarchy statistics — must be identical. Several hundred
//! randomized programs (dependent ALU chains, divides, loads/stores with
//! aliasing, prefetch/flush, fences, forward branches and jumps) are run
//! under every countermeasure mode, on machine state that deliberately
//! accumulates (warm caches, trained predictors) across programs.

use racer_cpu::{Backend, Countermeasure, Cpu, CpuConfig, RecordLevel, RunResult};
use racer_isa::{
    interp, AluOp, Asm, Cond, DataMemory, DecodedProgram, Instr, MemOperand, Operand, Program, Reg,
};
use racer_mem::{same_l1_set_addresses, Addr, Cache, HierarchyConfig, ReplacementKind};
use racer_rng::SplitMix64;

/// A random terminating program: a mix of every instruction class the
/// scheduler handles specially, with forward branches/jumps inside the
/// body. When `loop_trips` is set, the whole body runs inside a counted
/// loop closed by a **backward** branch (register 8 holds the trip
/// counter, which the body never writes), so re-fetching trained branch
/// PCs and squash-redirects to earlier PCs get differential coverage too.
fn random_program(rng: &mut SplitMix64, len: usize, loop_trips: Option<u64>) -> Program {
    let reg = |i: u64| Reg::new(i as usize);
    let mut instrs: Vec<Instr> = Vec::with_capacity(len + 12);
    // Seed the first eight registers with small values.
    for i in 0..8u64 {
        instrs.push(Instr::Alu {
            op: AluOp::Add,
            dst: reg(i),
            a: Operand::Imm(rng.below_mod(100) as i64),
            b: Operand::Imm(0),
        });
    }
    if let Some(trips) = loop_trips {
        instrs.push(Instr::Alu {
            op: AluOp::Add,
            dst: reg(8),
            a: Operand::Imm(trips as i64),
            b: Operand::Imm(0),
        });
    }
    let body_start = instrs.len();
    // Forward targets are capped at `end`, the loop-decrement index, so
    // every path through the body still decrements the trip counter.
    let end = body_start + len;
    for at in body_start..end {
        let d = reg(rng.below_mod(8));
        let a = reg(rng.below_mod(8));
        let b = reg(rng.below_mod(8));
        // Aliased word pool (forces store-load disambiguation) plus strided
        // lines (forces misses and MSHR pressure).
        let pool_addr = 0x100 + rng.below_mod(16) * 8;
        let line_addr = 0x4000 + rng.below_mod(64) * 64;
        let fwd = (at as u64 + 1 + rng.below_mod((end - at) as u64)).min(end as u64) as usize;
        let instr = match rng.below_mod(20) {
            0..=4 => Instr::Alu {
                op: match rng.below_mod(5) {
                    0 => AluOp::Add,
                    1 => AluOp::Sub,
                    2 => AluOp::Xor,
                    3 => AluOp::Shl,
                    _ => AluOp::And,
                },
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Reg(b),
            },
            5 | 6 => Instr::Alu {
                op: AluOp::Mul,
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Imm(3),
            },
            7 => Instr::Alu {
                op: AluOp::Div,
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Reg(b),
            },
            8..=10 => Instr::Load {
                dst: d,
                mem: MemOperand::abs(if rng.below_mod(2) == 0 {
                    pool_addr
                } else {
                    line_addr
                }),
            },
            11 | 12 => Instr::Store {
                src: Operand::Reg(a),
                mem: MemOperand::abs(pool_addr),
            },
            13 => Instr::Lea {
                dst: d,
                mem: MemOperand::base_disp(a, rng.below_mod(64) as i64),
            },
            14 => Instr::Prefetch {
                mem: MemOperand::abs(line_addr),
                nta: rng.below_mod(2) == 0,
            },
            15 => Instr::Flush {
                mem: MemOperand::abs(line_addr),
            },
            16 | 17 => Instr::Branch {
                cond: if rng.below_mod(2) == 0 {
                    Cond::Lt
                } else {
                    Cond::Ne
                },
                a,
                b: Operand::Imm(rng.below_mod(60) as i64),
                target: fwd,
            },
            18 => {
                if rng.below_mod(4) == 0 {
                    Instr::Jump { target: fwd }
                } else {
                    Instr::Nop
                }
            }
            _ => Instr::Fence,
        };
        instrs.push(instr);
    }
    if loop_trips.is_some() {
        instrs.push(Instr::Alu {
            op: AluOp::Sub,
            dst: reg(8),
            a: Operand::Reg(reg(8)),
            b: Operand::Imm(1),
        });
        instrs.push(Instr::Branch {
            cond: Cond::Ne,
            a: reg(8),
            b: Operand::Imm(0),
            target: body_start,
        });
    }
    instrs.push(Instr::Halt);
    Program::from_instrs(instrs).expect("generated program is valid")
}

/// Assert every observable of the two runs matches.
///
/// `fast_forwarded` is deliberately not compared: it counts the rounds
/// the event-driven core extrapolated instead of simulating, the reference
/// scheduler never fast-forwards, and every other field must be identical
/// either way.
fn assert_equivalent(tag: &str, fast: &RunResult, slow: &RunResult) {
    assert_eq!(fast.cycles, slow.cycles, "{tag}: cycles diverge");
    assert_eq!(
        fast.committed, slow.committed,
        "{tag}: commit counts diverge"
    );
    assert_eq!(fast.halted, slow.halted, "{tag}: halt state diverges");
    assert_eq!(fast.limit_hit, slow.limit_hit, "{tag}: limit flag diverges");
    assert_eq!(
        fast.mispredicts, slow.mispredicts,
        "{tag}: mispredicts diverge"
    );
    assert_eq!(
        fast.squashed_instrs, slow.squashed_instrs,
        "{tag}: squash counts diverge"
    );
    assert_eq!(
        fast.interrupts, slow.interrupts,
        "{tag}: interrupt counts diverge"
    );
    assert_eq!(
        fast.regs, slow.regs,
        "{tag}: architectural registers diverge"
    );
    assert_eq!(fast.loads, slow.loads, "{tag}: load-event streams diverge");
    assert_eq!(
        format!("{:?}", fast.mem_stats),
        format!("{:?}", slow.mem_stats),
        "{tag}: cache statistics diverge"
    );
    assert_eq!(
        fast.trace.len(),
        slow.trace.len(),
        "{tag}: trace lengths diverge"
    );
    for (f, s) in fast.trace.iter().zip(&slow.trace) {
        assert_eq!(
            (
                f.seq,
                f.pc,
                f.instr,
                f.fetched,
                f.dispatched,
                f.issued,
                f.completed,
                f.committed
            ),
            (
                s.seq,
                s.pc,
                s.instr,
                s.fetched,
                s.dispatched,
                s.issued,
                s.completed,
                s.committed
            ),
            "{tag}: trace records diverge"
        );
    }
}

/// Run `count` random programs through every [`Backend`] on a persistent
/// pair of machines (warm caches + trained predictors accumulate
/// identically). Every third program wraps its body in a counted
/// backward-branch loop. Each program's own µop table must equal a fresh
/// decode of its instructions, entry by entry.
///
/// Each program also runs on a fork of the fast machine's *current*
/// state ([`racer_cpu::Snapshot::run_many`]), which leaves the machine
/// untouched; the event-driven run that follows starts from that same
/// state, so the two must be bit-identical — which pins the fork path
/// against the production scheduler on every program, countermeasure and
/// accumulated warm state the suite covers.
fn run_differential(cfg: CpuConfig, seed: u64, count: usize, len: usize) {
    let mut fast_cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    let mut slow_cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    let mut rng = SplitMix64::new(seed);
    for i in 0..count {
        let trips = if i % 3 == 2 {
            Some(2 + rng.below_mod(3))
        } else {
            None
        };
        let prog = random_program(&mut rng, len, trips);
        let tag = format!("cm={} program #{i}", cfg.countermeasure);
        assert_eq!(
            prog.decoded().uops(),
            DecodedProgram::decode(&prog).uops(),
            "{tag}: the program's µop table differs from a fresh decode"
        );
        let forked = fast_cpu.snapshot().run_many(std::slice::from_ref(&prog));
        let fast = fast_cpu.run_one(&prog, Backend::EventDriven);
        let slow = slow_cpu.run_one(&prog, Backend::Reference);
        assert_equivalent(&format!("{tag} [event-driven vs reference]"), &fast, &slow);
        assert_equivalent(
            &format!("{tag} [forked vs event-driven]"),
            &forked[0],
            &fast,
        );
        assert_eq!(
            fast_cpu.mem(),
            slow_cpu.mem(),
            "{tag}: data memory diverges"
        );
    }
}

#[test]
fn baseline_matches_reference_on_200_random_programs() {
    let cfg = CpuConfig::coffee_lake().with_load_recording();
    run_differential(cfg, 0xD1FF, 200, 90);
}

#[test]
fn every_countermeasure_matches_reference() {
    for (i, cm) in [
        Countermeasure::InOrder,
        Countermeasure::DelayOnMiss,
        Countermeasure::InvisibleSpec,
        Countermeasure::GhostMinion,
        Countermeasure::CleanupSpec,
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = CpuConfig::coffee_lake()
            .with_countermeasure(cm)
            .with_load_recording();
        run_differential(cfg, 0xBEEF + i as u64, 40, 70);
    }
}

#[test]
fn full_trace_matches_reference() {
    let cfg = CpuConfig::coffee_lake().with_record_level(RecordLevel::Trace);
    run_differential(cfg, 0x7ACE, 40, 60);
}

#[test]
fn narrow_window_and_interrupts_match_reference() {
    // Tight ROB/scheduler plus the timer-interrupt drain exercises every
    // structural stall the schedulers model.
    let mut cfg = CpuConfig::coffee_lake().with_load_recording();
    cfg.rob_size = 24;
    cfg.rs_size = 8;
    cfg.mshrs = 2;
    cfg.interrupt_interval = Some(150);
    run_differential(cfg, 0x1177, 60, 80);

    let mut tiny = CpuConfig::coffee_lake().with_load_recording();
    tiny.issue_width = 2;
    tiny.alu_ports = 1;
    tiny.load_ports = 1;
    tiny.dispatch_width = 2;
    tiny.commit_width = 2;
    run_differential(tiny, 0x2288, 40, 70);
}

#[test]
fn counters_only_recording_matches_reference() {
    // RecordLevel::Counters must not change timing, only skip event vectors.
    let cfg = CpuConfig::coffee_lake();
    run_differential(cfg, 0x3399, 40, 90);
}

// ---- repeated regions ---------------------------------------------------
//
// Programs built with `Asm::repeat` store their body once; the event-driven
// core may extrapolate through the body's steady state. Each is compared
// three ways (event-driven vs reference vs `interp`) and, at `Counters`
// and `Loads`, against the same instruction stream unrolled by a plain
// loop, which never fast-forwards.

/// Emit `body` `n` times: as one repeated region, or unrolled by a plain
/// loop (the independent construction the region must match).
fn rounds(asm: &mut Asm, n: usize, repeated: bool, body: impl Fn(&mut Asm)) {
    if repeated {
        asm.repeat(n, |a| body(a));
    } else {
        for _ in 0..n {
            body(asm);
        }
    }
}

/// Build `build(true)` (repeated) and `build(false)` (unrolled), check
/// the region's logical stream is the unrolled one, and run both on fresh
/// machines from `cfg` and `hier` at `Counters` and `Loads`, checking every
/// equivalence. Returns the `Counters` event-driven result of the repeated
/// program.
fn check_repeated(
    tag: &str,
    cfg: CpuConfig,
    hier: HierarchyConfig,
    build: impl Fn(bool) -> Program,
) -> RunResult {
    let (prog, unrolled) = (build(true), build(false));
    assert_eq!(
        Program::from_instrs(prog.iter().copied().collect()).as_ref(),
        Ok(&unrolled),
        "{tag}: the region's logical stream is the unrolled program"
    );
    let mut counters = None;
    for record in [RecordLevel::Counters, RecordLevel::Loads] {
        let cfg = cfg.with_record_level(record);
        let run = |p: &Program, backend: Backend| {
            let mut cpu = Cpu::new(cfg, hier);
            let r = cpu.run_one(p, backend);
            (r, cpu.mem().clone())
        };
        let tag = format!("{tag} at {record:?}");
        let (fast, fast_mem) = run(&prog, Backend::EventDriven);
        let (flat, flat_mem) = run(&unrolled, Backend::EventDriven);
        let (slow, slow_mem) = run(&prog, Backend::Reference);
        assert_equivalent(&format!("{tag} [event-driven vs reference]"), &fast, &slow);
        assert_equivalent(&format!("{tag} [repeated vs unrolled]"), &fast, &flat);
        assert_eq!(fast_mem, slow_mem, "{tag}: data memory diverges");
        assert_eq!(fast_mem, flat_mem, "{tag}: data memory diverges");
        assert_eq!(flat.fast_forwarded, 0, "{tag}: no region, no fast-forward");
        assert_eq!(slow.fast_forwarded, 0, "{tag}: the reference never skips");
        if !fast.limit_hit {
            let mut mem = DataMemory::new();
            let arch = interp::run(&prog, &mut mem, 10_000_000).expect("terminates");
            assert_eq!(arch.regs, fast.regs, "{tag}: interp registers diverge");
            assert_eq!(mem, fast_mem, "{tag}: interp memory diverges");
            assert_eq!(
                arch.steps, fast.committed,
                "{tag}: committed count is logical"
            );
        }
        match record {
            RecordLevel::Counters => counters = Some(fast),
            _ => assert_eq!(fast.fast_forwarded, 0, "{tag}: recorded lanes run in full"),
        }
    }
    counters.expect("counters run")
}

/// Five lines congruent in L1 set 5 of `hier`.
fn congruent_lines(hier: &HierarchyConfig) -> Vec<u64> {
    same_l1_set_addresses(&Cache::new(hier.l1d), 5, 5, Addr(0x10_0000))
        .into_iter()
        .map(|a| a.0)
        .collect()
}

/// One dependent (masked) load chain over `lines`, once per round.
fn chain_program(lines: &[u64], n: usize, repeated: bool) -> Program {
    let mut asm = Asm::new();
    let (val, mask) = (asm.reg(), asm.reg());
    rounds(&mut asm, n, repeated, |a| {
        for &line in lines {
            a.and(mask, val, 0i64);
            a.load(val, MemOperand::base_disp(mask, line as i64));
        }
    });
    asm.halt();
    asm.assemble().expect("chain body assembles")
}

/// The §6.1 PLRU magnifier shape: warm four lines (and, with `protect`,
/// the fifth), then `n` rounds of a six-access dependent chain over them.
fn plru_program(hier: &HierarchyConfig, n: usize, protect: bool, repeated: bool) -> Program {
    let l = congruent_lines(hier);
    let mut asm = Asm::new();
    let (val, mask) = (asm.reg(), asm.reg());
    let warm: &[usize] = if protect {
        &[1, 2, 4, 3, 0]
    } else {
        &[1, 2, 4, 3]
    };
    for &i in warm {
        asm.load(val, MemOperand::abs(l[i]));
    }
    rounds(&mut asm, n, repeated, |a| {
        for i in [2, 4, 2, 3, 2, 1] {
            a.and(mask, val, 0i64);
            a.load(val, MemOperand::base_disp(mask, l[i] as i64));
        }
    });
    asm.halt();
    asm.assemble().expect("PLRU body assembles")
}

/// The §6.4 arithmetic magnifier shape (scaled down): a MUL chain, a burst
/// of parallel DIVs, a DIV chain and ADD buffers per stage, PathB delayed
/// by `delay` adds.
fn arith_program(stages: usize, delay: usize, repeated: bool) -> Program {
    let mut asm = Asm::new();
    let (a, b, pd) = (asm.reg(), asm.reg(), asm.reg());
    asm.mov_imm(a, 5).mov_imm(b, 5);
    for _ in 0..delay {
        asm.addi(b, b, 0);
    }
    rounds(&mut asm, stages, repeated, |asm| {
        for _ in 0..14 {
            asm.mul(a, a, 1i64);
        }
        for _ in 0..6 {
            asm.div(pd, a, 1i64);
        }
        for _ in 0..3 {
            asm.div(b, b, 1i64);
        }
        for _ in 0..30 {
            asm.add(a, a, 0i64);
            asm.add(b, b, 0i64);
        }
    });
    asm.halt();
    asm.assemble().expect("arithmetic body assembles")
}

/// A FIFO-traversal body (the §6.3 shape): per set, a chain over six
/// resident lines, five parallel loads of the next set's conflicting
/// lines, and prefetches restoring a set two ahead.
fn traversal_program(hier: &HierarchyConfig, traversals: usize, repeated: bool) -> Program {
    let l1 = Cache::new(hier.l1d);
    let lines = |set: usize| same_l1_set_addresses(&l1, set, 11, Addr(0x40_0000));
    let sets: Vec<Vec<Addr>> = (0..8).map(|s| lines(1 + s)).collect();
    let mut asm = Asm::new();
    let (v, m, scratch) = (asm.reg(), asm.reg(), asm.reg());
    for set in &sets {
        for &line in &set[..6] {
            asm.load(v, MemOperand::abs(line.0));
        }
    }
    rounds(&mut asm, traversals, repeated, |asm| {
        for i in 0..sets.len() {
            for &line in &sets[i][..6] {
                asm.and(m, v, 0i64);
                asm.load(v, MemOperand::base_disp(m, line.0 as i64));
            }
            asm.and(m, v, 0i64);
            for &line in &sets[(i + 1) % sets.len()][6..] {
                asm.load(scratch, MemOperand::base_disp(m, line.0 as i64));
            }
            for &line in &sets[(i + 2) % sets.len()][..6] {
                asm.prefetch(MemOperand::base_disp(m, line.0 as i64));
            }
        }
    });
    asm.halt();
    asm.assemble().expect("traversal body assembles")
}

fn fifo_hierarchy() -> HierarchyConfig {
    let mut hier = HierarchyConfig::coffee_lake();
    hier.l1d.replacement = ReplacementKind::Fifo;
    hier
}

#[test]
fn repeated_magnifier_bodies_match_reference_interp_and_unrolled() {
    let cfg = CpuConfig::coffee_lake();
    let plru = HierarchyConfig::small_plru();
    for protect in [false, true] {
        let r = check_repeated(&format!("PLRU protect={protect}"), cfg, plru, |rep| {
            plru_program(&plru, 300, protect, rep)
        });
        assert!(r.fast_forwarded > 200, "PLRU settles: {}", r.fast_forwarded);
    }
    for delay in [0, 12] {
        let r = check_repeated(&format!("arithmetic delay={delay}"), cfg, plru, |rep| {
            arith_program(80, delay, rep)
        });
        assert!(
            r.fast_forwarded > 40,
            "arithmetic settles: {}",
            r.fast_forwarded
        );
    }
    let fifo = fifo_hierarchy();
    let r = check_repeated("FIFO traversal", cfg, fifo, |rep| {
        traversal_program(&fifo, 40, rep)
    });
    assert!(r.fast_forwarded > 0, "FIFO traversals settle");
    // Two MSHRs: the parallel loads park in the stall pool every round.
    let mut narrow = cfg;
    narrow.mshrs = 2;
    check_repeated("FIFO traversal, 2 MSHRs", narrow, fifo, |rep| {
        traversal_program(&fifo, 40, rep)
    });
}

#[test]
fn repeated_bodies_at_zero_to_three_rounds_match() {
    let cfg = CpuConfig::coffee_lake();
    let plru = HierarchyConfig::small_plru();
    let fifo = fifo_hierarchy();
    for n in 0..=3 {
        let tag = format!("{n} rounds");
        let runs = [
            check_repeated(&tag, cfg, plru, |rep| plru_program(&plru, n, true, rep)),
            check_repeated(&tag, cfg, plru, |rep| arith_program(n, 12, rep)),
            check_repeated(&tag, cfg, fifo, |rep| traversal_program(&fifo, n, rep)),
        ];
        for r in runs {
            assert_eq!(r.fast_forwarded, 0, "{tag}: too few rounds to skip any");
        }
    }
}

#[test]
fn repeated_bodies_that_never_settle_or_are_cut_short_match() {
    let cfg = CpuConfig::coffee_lake();
    let plru = HierarchyConfig::small_plru();

    // Random replacement, five lines cycling through a four-way set: every
    // round evicts, advancing the set's RNG.
    let mut random = plru;
    random.l1d.replacement = ReplacementKind::Random;
    let lines = congruent_lines(&random);
    let r = check_repeated("random L1", cfg, random, |rep| {
        chain_program(&lines, 200, rep)
    });
    assert_eq!(r.fast_forwarded, 0, "random replacement never repeats");

    // DRAM every round: the jitter generator advances every round.
    let noisy = HierarchyConfig::coffee_lake_noisy(7);
    let x = 0x80_0000i64;
    let r = check_repeated("DRAM every round", cfg, noisy, |rep| {
        let mut asm = Asm::new();
        let (v, m) = (asm.reg(), asm.reg());
        rounds(&mut asm, 60, rep, |a| {
            a.and(m, v, 0i64);
            a.flush(MemOperand::base_disp(m, x));
            a.load(v, MemOperand::base_disp(m, x));
        });
        asm.halt();
        asm.assemble().unwrap()
    });
    assert_eq!(r.fast_forwarded, 0, "DRAM jitter never repeats");

    // An interrupt interval shorter than one period: no period is clean.
    let mut short = cfg;
    short.interrupt_interval = Some(100);
    check_repeated("short interrupts", short, plru, |rep| {
        arith_program(60, 12, rep)
    });

    // Interrupts mid-region: jumps stop short of each boundary and the
    // machine re-settles after every drain.
    let mut mid = cfg;
    mid.interrupt_interval = Some(2_500);
    let r = check_repeated("mid-region interrupts", mid, plru, |rep| {
        arith_program(120, 12, rep)
    });
    assert!(r.interrupts > 2, "several drains inside the region");
    assert!(r.fast_forwarded > 0, "settles between drains");

    // The cycle budget runs out inside the region.
    let mut budget = cfg;
    budget.max_run_cycles = 4_000;
    let r = check_repeated("cycle budget", budget, plru, |rep| {
        plru_program(&plru, 2_000, true, rep)
    });
    assert!(r.limit_hit);

    // A store in the body makes the lane ineligible.
    let r = check_repeated("store in body", cfg, plru, |rep| {
        let mut asm = Asm::new();
        let v = asm.reg();
        rounds(&mut asm, 100, rep, |a| {
            a.addi(v, v, 1);
            a.store(v, MemOperand::abs(0x900));
        });
        asm.halt();
        asm.assemble().unwrap()
    });
    assert_eq!(r.fast_forwarded, 0, "bodies with stores run in full");
}

#[test]
fn smt_runs_never_fast_forward() {
    let plru = HierarchyConfig::small_plru();
    let mut cfg = CpuConfig::coffee_lake();
    cfg.threads = 2;
    let progs = [
        plru_program(&plru, 200, true, true),
        arith_program(40, 12, true),
    ];
    let mut cpu = Cpu::new(cfg, plru);
    let fast = cpu.run(&[&progs[0], &progs[1]], Backend::EventDriven);
    let mut cpu = Cpu::new(cfg, plru);
    let slow = cpu.run(&[&progs[0], &progs[1]], Backend::Reference);
    for (t, (f, s)) in fast.iter().zip(&slow).enumerate() {
        assert_equivalent(&format!("SMT thread {t}"), f, s);
        assert_eq!(f.fast_forwarded, 0, "SMT thread {t} ran in full");
    }
}
