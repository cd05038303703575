//! SMT multi-context validation: randomized two-thread co-schedules run
//! through both the event-driven and the reference scheduler must produce
//! identical per-thread [`RunResult`]s — the SMT analogue of the
//! single-thread differential suite — plus regression pins for the
//! per-divider-unit busy model and contention sanity checks.

use proptest::prelude::*;
use racer_cpu::workloads::{alu_saturate, div_hog, div_race, timer_race};
use racer_cpu::{Backend, Countermeasure, Cpu, CpuConfig, RunResult, SmtPolicy};
use racer_isa::{AluOp, Cond, Instr, MemOperand, Operand, Program, Reg};
use racer_mem::HierarchyConfig;
use racer_rng::SplitMix64;

/// Where a random program's memory operations land: word-pool loads and
/// stores at `pool + k * pool_stride` (`k < 16`), line loads, prefetches
/// and flushes at `lines + k * 64` (`k < nlines`). Co-scheduled threads
/// never share a data word, per the SMT model (contention is observed
/// through ports and caches only) — but they may share lines.
#[derive(Clone, Copy)]
struct Footprint {
    pool: u64,
    pool_stride: u64,
    lines: u64,
    nlines: u64,
}

/// Lines both threads of a [`Footprint::shared`] pair touch.
const SHARED_LINES: u64 = 24;
const SHARED_BASE: u64 = 0x1_0000;

impl Footprint {
    /// A thread-private word pool and 64-line range at `mem_base`.
    fn private(mem_base: u64) -> Self {
        Footprint {
            pool: mem_base,
            pool_stride: 8,
            lines: mem_base + 0x4000,
            nlines: 64,
        }
    }

    /// Thread `tid`'s half of a pair sharing [`SHARED_LINES`] lines but no
    /// word: its pool words are word `2 * tid` of the first 16 lines, its
    /// line accesses word `2 * tid + 1` of any of them. One thread's fills
    /// and outstanding misses are then the lines the other's loads wait on.
    fn shared(tid: u64) -> Self {
        Footprint {
            pool: SHARED_BASE + 16 * tid,
            pool_stride: 64,
            lines: SHARED_BASE + 16 * tid + 8,
            nlines: SHARED_LINES,
        }
    }
}

/// A random terminating program with every instruction class the
/// schedulers handle specially, its memory operations inside `mem`.
fn random_program(rng: &mut SplitMix64, len: usize, mem: Footprint) -> Program {
    let reg = |i: u64| Reg::new(i as usize);
    let mut instrs: Vec<Instr> = Vec::with_capacity(len + 10);
    for i in 0..8u64 {
        instrs.push(Instr::Alu {
            op: AluOp::Add,
            dst: reg(i),
            a: Operand::Imm(rng.below_mod(100) as i64),
            b: Operand::Imm(0),
        });
    }
    let body_start = instrs.len();
    let end = body_start + len;
    for at in body_start..end {
        let d = reg(rng.below_mod(8));
        let a = reg(rng.below_mod(8));
        let b = reg(rng.below_mod(8));
        let pool_addr = mem.pool + rng.below_mod(16) * mem.pool_stride;
        let line_addr = mem.lines + rng.below_mod(mem.nlines) * 64;
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
    instrs.push(Instr::Halt);
    Program::from_instrs(instrs).expect("generated program is valid")
}

/// Assert every observable of two runs matches.
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
        fast.regs, slow.regs,
        "{tag}: architectural registers diverge"
    );
    assert_eq!(fast.loads, slow.loads, "{tag}: load-event streams diverge");
    assert_eq!(
        format!("{:?}", fast.mem_stats),
        format!("{:?}", slow.mem_stats),
        "{tag}: cache statistics diverge"
    );
}

/// Run `count` random two-thread co-schedules through both schedulers on a
/// persistent pair of machines (warm caches + trained predictors
/// accumulate identically) and require per-thread identity. Each thread
/// keeps to its own words and lines.
fn run_smt_differential(cfg: CpuConfig, seed: u64, count: usize, len: usize) {
    let mem = [Footprint::private(0x100), Footprint::private(0x2_0100)];
    run_coschedules(cfg, seed, count, len, mem);
}

/// [`run_smt_differential`] with each thread's memory operations in
/// `mem[tid]`.
fn run_coschedules(cfg: CpuConfig, seed: u64, count: usize, len: usize, mem: [Footprint; 2]) {
    assert_eq!(cfg.threads, 2);
    let mut fast_cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    let mut slow_cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    let mut rng = SplitMix64::new(seed);
    for i in 0..count {
        // Uneven lengths: one thread regularly outlives the other, so the
        // done-thread/survivor phase gets coverage too.
        let len_b = len / 2 + rng.below_mod(len as u64) as usize;
        let prog_a = random_program(&mut rng, len, mem[0]);
        let prog_b = random_program(&mut rng, len_b, mem[1]);
        let fast = fast_cpu.run(&[&prog_a, &prog_b], Backend::EventDriven);
        let slow = slow_cpu.run(&[&prog_a, &prog_b], Backend::Reference);
        for tid in 0..2 {
            let tag = format!(
                "policy={:?} cm={} mshrs={} co-schedule #{i} thread {tid}",
                cfg.smt_policy, cfg.countermeasure, cfg.mshrs
            );
            assert_equivalent(&tag, &fast[tid], &slow[tid]);
        }
        assert_eq!(
            fast_cpu.mem(),
            slow_cpu.mem(),
            "co-schedule #{i}: data memory diverges"
        );
    }
}

fn smt_cfg(policy: SmtPolicy) -> CpuConfig {
    CpuConfig::coffee_lake()
        .with_threads(2)
        .with_smt_policy(policy)
        .with_load_recording()
}

#[test]
fn round_robin_coschedules_match_reference() {
    run_smt_differential(smt_cfg(SmtPolicy::RoundRobin), 0x5317, 50, 80);
}

#[test]
fn icount_coschedules_match_reference() {
    run_smt_differential(smt_cfg(SmtPolicy::Icount), 0x1C07, 50, 80);
}

#[test]
fn every_countermeasure_matches_reference_under_smt() {
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
        let cfg = smt_cfg(SmtPolicy::RoundRobin).with_countermeasure(cm);
        run_smt_differential(cfg, 0xC0DE + i as u64, 15, 60);
    }
}

#[test]
fn narrow_smt_machine_matches_reference() {
    // Tight shared structures maximize cross-thread interference: one
    // MSHR pool, one ALU port, two-wide issue.
    let mut cfg = smt_cfg(SmtPolicy::Icount);
    cfg.rob_size = 24;
    cfg.rs_size = 8;
    cfg.mshrs = 2;
    cfg.issue_width = 2;
    cfg.alu_ports = 1;
    cfg.load_ports = 1;
    run_smt_differential(cfg, 0x7777, 30, 60);
}

const EVERY_COUNTERMEASURE: [Countermeasure; 6] = [
    Countermeasure::None,
    Countermeasure::InOrder,
    Countermeasure::DelayOnMiss,
    Countermeasure::InvisibleSpec,
    Countermeasure::GhostMinion,
    Countermeasure::CleanupSpec,
];

/// Co-schedules whose threads share [`SHARED_LINES`] lines (never a word)
/// on a one- or two-MSHR machine, under both policies and every
/// countermeasure: loads park on MSHR capacity, delay-on-miss and store
/// disambiguation, and a sibling's fill or MSHR merge is what wakes them.
fn shared_line_sweep(seed: u64, count: usize, len: usize) {
    let mem = [Footprint::shared(0), Footprint::shared(1)];
    for policy in [SmtPolicy::RoundRobin, SmtPolicy::Icount] {
        for (i, cm) in EVERY_COUNTERMEASURE.into_iter().enumerate() {
            for mshrs in [1, 2] {
                let mut cfg = smt_cfg(policy).with_countermeasure(cm);
                cfg.mshrs = mshrs;
                let seed = seed ^ ((i as u64) << 8 | mshrs as u64);
                run_coschedules(cfg, seed, count, len, mem);
            }
        }
    }
}

#[test]
fn shared_line_coschedules_match_reference() {
    shared_line_sweep(0x5A4E, 4, 60);
}

/// The heavier sweep of [`shared_line_coschedules_match_reference`]
/// (release mode: `cargo test --release -p racer-cpu --test smt --
/// --ignored`).
#[test]
#[ignore]
fn shared_line_coschedules_match_reference_over_many_seeds() {
    for seed in 0..16 {
        shared_line_sweep(0xB16_5EED + seed, 12, 100);
    }
}

#[test]
fn multi_port_divider_matches_reference() {
    // div_ports = 2 exercises the per-unit busy model in both schedulers.
    let mut cfg = smt_cfg(SmtPolicy::RoundRobin);
    cfg.div_ports = 2;
    run_smt_differential(cfg, 0xD1D1, 30, 70);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A one-thread run on the multi-context core takes the single-thread
    /// path: for arbitrary programs and every countermeasure mode it
    /// matches the reference scheduler cycle-for-cycle.
    #[test]
    fn single_thread_smt_core_matches_reference(
        seed in any::<u64>(),
        len in 20usize..90,
        cm_idx in 0usize..6,
    ) {
        let cm = EVERY_COUNTERMEASURE[cm_idx];
        let cfg = CpuConfig::coffee_lake()
            .with_countermeasure(cm)
            .with_load_recording();
        let prog = random_program(&mut SplitMix64::new(seed), len, Footprint::private(0x100));
        let mut fast = Cpu::new(cfg, HierarchyConfig::coffee_lake());
        let mut slow = Cpu::new(cfg, HierarchyConfig::coffee_lake());
        let f = fast.run_one(&prog, Backend::EventDriven);
        let s = slow.run_one(&prog, Backend::Reference);
        assert_equivalent(&format!("proptest cm={cm}"), &f, &s);
        prop_assert_eq!(f.cycles, s.cycles);
    }
}

// ---- per-divider-unit busy model (div_free_at bugfix) ----------------------

/// Straight-line program with two *independent* divides.
fn two_independent_divs() -> Program {
    let a = Reg::new(0);
    let b = Reg::new(1);
    let instrs = vec![
        Instr::Alu {
            op: AluOp::Add,
            dst: a,
            a: Operand::Imm(1 << 20),
            b: Operand::Imm(0),
        },
        Instr::Alu {
            op: AluOp::Add,
            dst: b,
            a: Operand::Imm(1 << 19),
            b: Operand::Imm(0),
        },
        Instr::Alu {
            op: AluOp::Div,
            dst: a,
            a: Operand::Reg(a),
            b: Operand::Imm(3),
        },
        Instr::Alu {
            op: AluOp::Div,
            dst: b,
            a: Operand::Reg(b),
            b: Operand::Imm(5),
        },
        Instr::Halt,
    ];
    Program::from_instrs(instrs).expect("valid")
}

fn issue_cycles_of_divs(cfg: CpuConfig) -> Vec<u64> {
    let mut cpu = Cpu::new(cfg.with_trace(), HierarchyConfig::coffee_lake());
    let r = cpu.run_one(&two_independent_divs(), Backend::EventDriven);
    assert!(r.halted);
    r.trace
        .iter()
        .filter(|t| matches!(t.instr, Instr::Alu { op: AluOp::Div, .. }))
        .map(|t| t.issued.expect("divs issue"))
        .collect()
}

#[test]
fn one_divider_unit_serializes_independent_divides() {
    let cfg = CpuConfig::coffee_lake();
    assert_eq!(cfg.div_ports, 1);
    let issued = issue_cycles_of_divs(cfg);
    assert_eq!(issued.len(), 2);
    let gap = issued[1] - issued[0];
    assert_eq!(
        gap, cfg.latencies.div_recip,
        "single divider: second divide waits out the reciprocal interval"
    );
}

#[test]
fn two_divider_units_overlap_independent_divides() {
    let cfg = CpuConfig {
        div_ports: 2,
        ..CpuConfig::coffee_lake()
    };
    let issued = issue_cycles_of_divs(cfg);
    assert_eq!(issued.len(), 2);
    assert_eq!(
        issued[0], issued[1],
        "two divider units: independent divides issue the same cycle"
    );
}

/// Absolute pin: the 1-port divide path is bit-for-bit today's behavior.
/// If this value moves, the per-unit refactor changed single-unit timing —
/// which it must never do.
#[test]
fn one_port_div_race_cycles_are_pinned() {
    let mut cpu = Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake());
    let r = cpu.run_one(&div_race(64), Backend::EventDriven);
    assert!(r.halted);
    assert_eq!(
        r.cycles, PINNED_DIV_RACE_CYCLES,
        "div_race(64) timing moved on a 1-divider config"
    );
}

/// See `one_port_div_race_cycles_are_pinned`.
const PINNED_DIV_RACE_CYCLES: u64 = 910;

#[test]
fn second_divider_unit_speeds_up_independent_divide_bursts() {
    // Bursts of four independent divides: with one divider unit the burst
    // serializes at the reciprocal interval; with two units it halves.
    let burst = {
        let mut asm = racer_isa::Asm::new();
        let i = asm.reg();
        let seed = asm.reg();
        let outs = asm.regs(4);
        asm.mov_imm(i, 64);
        asm.mov_imm(seed, 1 << 20);
        let top = asm.here();
        for &o in &outs {
            asm.div(o, seed, 3i64);
        }
        asm.subi(i, i, 1);
        asm.br(Cond::Ne, i, 0, top);
        asm.halt();
        asm.assemble().expect("valid program")
    };
    let one = {
        let mut cpu = Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake());
        cpu.run_one(&burst, Backend::EventDriven).cycles
    };
    let two = {
        let cfg = CpuConfig {
            div_ports: 2,
            ..CpuConfig::coffee_lake()
        };
        let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
        cpu.run_one(&burst, Backend::EventDriven).cycles
    };
    assert!(
        two * 3 < one * 2,
        "a second divider unit must unserialize divide bursts: {one} -> {two}"
    );
}

// ---- contention sanity ------------------------------------------------------

/// Thread-0 cycles for a co-run of the racing-gadget timer against a
/// contender.
fn timer_cycles_against(contender: &Program) -> u64 {
    let cfg = CpuConfig::coffee_lake().with_threads(2);
    let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    let race = timer_race(3, 40);
    let results = cpu.run(&[&race.prog, contender], Backend::EventDriven);
    assert!(results[0].halted && results[1].halted);
    results[0].cycles
}

#[test]
fn port_contention_slows_the_co_resident_timer() {
    // An empty contender (immediate halt) leaves the timer effectively
    // alone; an ALU-saturating contender must cost it cycles; a div-hog
    // contender must cost its divide chain even more.
    let idle = Program::from_instrs(vec![Instr::Halt]).expect("valid");
    let baseline = timer_cycles_against(&idle);
    let alu = timer_cycles_against(&alu_saturate(400, 8));
    let div = timer_cycles_against(&div_hog(400));
    assert!(
        alu > baseline,
        "ALU saturation must slow the racer: {baseline} -> {alu}"
    );
    assert!(
        div > baseline,
        "divider hogging must slow the divide chain: {baseline} -> {div}"
    );
}

#[test]
fn smt_policies_both_make_progress_under_saturation() {
    // Two identical ALU-saturating threads on shared ports. The policies
    // split the machine differently — round-robin near-evenly, ICOUNT with
    // a winner bias (the low-occupancy thread keeps winning arbitration) —
    // but under either, the port contention is conserved: whoever finishes
    // last must have absorbed it, and nobody may starve outright.
    let solo = {
        let mut solo_cpu = Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake());
        solo_cpu
            .run_one(&alu_saturate(200, 8), Backend::EventDriven)
            .cycles
    };
    for policy in [SmtPolicy::RoundRobin, SmtPolicy::Icount] {
        let cfg = CpuConfig::coffee_lake()
            .with_threads(2)
            .with_smt_policy(policy);
        let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
        let a = alu_saturate(200, 8);
        let b = alu_saturate(200, 8);
        let results = cpu.run(&[&a, &b], Backend::EventDriven);
        assert!(
            results[0].halted && results[1].halted,
            "{policy}: both halt"
        );
        let last = results.iter().map(|r| r.cycles).max().expect("two threads");
        assert!(
            last > solo * 3 / 2,
            "{policy}: the last finisher must absorb the shared-port contention ({last} vs solo {solo})"
        );
        for (tid, r) in results.iter().enumerate() {
            assert!(
                r.cycles < solo * 3,
                "{policy}: thread {tid} must not starve ({} vs solo {solo})",
                r.cycles
            );
        }
    }
}

#[test]
fn run_requires_matching_thread_count() {
    let cfg = CpuConfig::coffee_lake().with_threads(2);
    let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    let p = Program::from_instrs(vec![Instr::Halt]).expect("valid");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cpu.run(&[&p], Backend::EventDriven)
    }));
    assert!(result.is_err(), "1 program on a 2-thread config must panic");
}
