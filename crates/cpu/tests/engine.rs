//! Property tests for the fork-and-run engine (`racer_cpu::engine`).
//!
//! The engine's contract is bit-identity: a lane run by
//! [`Snapshot::run_many`] or [`fork_and_run`] must produce exactly the
//! [`RunResult`] that forking a whole machine from the same [`Snapshot`]
//! and running it to completion would — cycles, registers, load events,
//! traces and cache statistics — in any lane order, with any mix of
//! divergent programs and fork sources, under every countermeasure. These
//! tests exercise that property on randomized program populations, plus
//! the fork semantics the sweep drivers rely on: forks are isolated from
//! the snapshot and from each other, and the snapshot cache keys exactly,
//! builds each key once, never blocks one key behind another's build and
//! survives panicking builds.

use racer_cpu::engine::fork_and_run;
use racer_cpu::workloads::{alu_chain, memory_stream};
use racer_cpu::{Backend, Countermeasure, Cpu, CpuConfig, RunResult, Snapshot, SnapshotCache};
use racer_isa::{AluOp, Asm, Cond, Instr, MemOperand, Operand, Program, Reg};
use racer_mem::HierarchyConfig;
use racer_rng::SplitMix64;

const ALL_COUNTERMEASURES: [Countermeasure; 6] = [
    Countermeasure::None,
    Countermeasure::InOrder,
    Countermeasure::DelayOnMiss,
    Countermeasure::InvisibleSpec,
    Countermeasure::GhostMinion,
    Countermeasure::CleanupSpec,
];

/// A random terminating gadget: ALU chains with multiplies and divides,
/// aliased loads/stores, strided-line loads, prefetch/flush, fences and
/// forward branches — optionally wrapped in a counted backward-branch
/// loop (register 7 holds the trip counter, never written by the body).
fn random_gadget(rng: &mut SplitMix64, len: usize, loop_trips: Option<u64>) -> Program {
    let reg = |i: u64| Reg::new(i as usize);
    let mut instrs: Vec<Instr> = Vec::with_capacity(len + 12);
    for i in 0..7u64 {
        instrs.push(Instr::Alu {
            op: AluOp::Add,
            dst: reg(i),
            a: Operand::Imm(1 + rng.below_mod(50) as i64),
            b: Operand::Imm(0),
        });
    }
    if let Some(trips) = loop_trips {
        instrs.push(Instr::Alu {
            op: AluOp::Add,
            dst: reg(7),
            a: Operand::Imm(trips as i64),
            b: Operand::Imm(0),
        });
    }
    let body_start = instrs.len();
    let end = body_start + len;
    for at in body_start..end {
        let d = reg(rng.below_mod(7));
        let a = reg(rng.below_mod(7));
        let b = reg(rng.below_mod(7));
        let pool = 0x200 + rng.below_mod(8) * 8;
        let line = 0x8000 + rng.below_mod(32) * 64;
        let fwd = (at as u64 + 1 + rng.below_mod((end - at) as u64)).min(end as u64) as usize;
        instrs.push(match rng.below_mod(16) {
            0..=3 => Instr::Alu {
                op: match rng.below_mod(4) {
                    0 => AluOp::Add,
                    1 => AluOp::Sub,
                    2 => AluOp::Xor,
                    _ => AluOp::And,
                },
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Reg(b),
            },
            4 => Instr::Alu {
                op: AluOp::Mul,
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Imm(5),
            },
            5 => Instr::Alu {
                op: AluOp::Div,
                dst: d,
                a: Operand::Reg(a),
                b: Operand::Reg(b),
            },
            6..=8 => Instr::Load {
                dst: d,
                mem: MemOperand::abs(if rng.below_mod(2) == 0 { pool } else { line }),
            },
            9 | 10 => Instr::Store {
                src: Operand::Reg(a),
                mem: MemOperand::abs(pool),
            },
            11 => Instr::Prefetch {
                mem: MemOperand::abs(line),
                nta: rng.below_mod(2) == 0,
            },
            12 => Instr::Flush {
                mem: MemOperand::abs(line),
            },
            13 | 14 => Instr::Branch {
                cond: if rng.below_mod(2) == 0 {
                    Cond::Lt
                } else {
                    Cond::Ne
                },
                a,
                b: Operand::Imm(rng.below_mod(40) as i64),
                target: fwd,
            },
            _ => Instr::Fence,
        });
    }
    if loop_trips.is_some() {
        instrs.push(Instr::Alu {
            op: AluOp::Sub,
            dst: reg(7),
            a: Operand::Reg(reg(7)),
            b: Operand::Imm(1),
        });
        instrs.push(Instr::Branch {
            cond: Cond::Ne,
            a: reg(7),
            b: Operand::Imm(0),
            target: body_start,
        });
    }
    instrs.push(Instr::Halt);
    Program::from_instrs(instrs).expect("generated gadget is valid")
}

/// A population of random gadgets: every third one loops, lengths vary so
/// lanes run for different cycle counts.
fn gadget_population(seed: u64, count: usize) -> Vec<Program> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|i| {
            let len = 30 + (rng.below_mod(41) as usize);
            let trips = (i % 3 == 2).then(|| 2 + rng.below_mod(3));
            random_gadget(&mut rng, len, trips)
        })
        .collect()
}

/// Bit-identity over every observable: the named fields give readable
/// failures, the Debug rendering closes over everything else (load
/// events, traces, cache statistics).
fn assert_bit_identical(tag: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.cycles, b.cycles, "{tag}: cycles diverge");
    assert_eq!(a.committed, b.committed, "{tag}: commit counts diverge");
    assert_eq!(a.regs, b.regs, "{tag}: registers diverge");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{tag}: full results diverge"
    );
}

/// A snapshot of a machine warmed on the standard kernels (trained
/// predictor, populated caches — the state a sweep would fork from).
fn warmed_snapshot(cfg: CpuConfig) -> Snapshot {
    let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    cpu.run_one(&alu_chain(200), Backend::EventDriven);
    cpu.run_one(&memory_stream(200), Backend::EventDriven);
    cpu.snapshot()
}

#[test]
fn run_many_matches_per_machine_forks_under_every_countermeasure() {
    for cm in ALL_COUNTERMEASURES {
        let cfg = CpuConfig::coffee_lake()
            .with_countermeasure(cm)
            .with_load_recording();
        let snap = warmed_snapshot(cfg);
        let progs = gadget_population(0xC0FFEE ^ cm as u64, 12);
        let forked = snap.run_many(&progs);
        assert_eq!(forked.len(), progs.len());
        for (i, (prog, got)) in progs.iter().zip(&forked).enumerate() {
            let want = snap.fork().run_one(prog, Backend::EventDriven);
            assert_bit_identical(&format!("cm={cm} gadget #{i}"), got, &want);
        }
    }
}

#[test]
fn run_many_matches_per_machine_forks_with_full_traces() {
    let cfg = CpuConfig::coffee_lake().with_record_level(racer_cpu::RecordLevel::Trace);
    let snap = warmed_snapshot(cfg);
    let progs = gadget_population(0x7_1CE5, 8);
    for (i, (prog, got)) in progs.iter().zip(&snap.run_many(&progs)).enumerate() {
        let want = snap.fork().run_one(prog, Backend::EventDriven);
        assert_bit_identical(&format!("traced gadget #{i}"), got, &want);
    }
}

#[test]
fn lane_order_never_changes_results() {
    let snap = warmed_snapshot(CpuConfig::coffee_lake().with_load_recording());
    let progs = gadget_population(0x0D0E_0D0E, 10);
    let run_in_order = |order: &[usize]| -> Vec<RunResult> {
        let permuted: Vec<Program> = order.iter().map(|&i| progs[i].clone()).collect();
        snap.run_many(&permuted)
    };
    let forward: Vec<usize> = (0..progs.len()).collect();
    let mut reversed = forward.clone();
    reversed.reverse();
    // Interleave from both ends: 0, 9, 1, 8, ...
    let interleaved: Vec<usize> = forward
        .iter()
        .zip(reversed.iter())
        .flat_map(|(&a, &b)| [a, b])
        .take(progs.len())
        .collect();
    let base = run_in_order(&forward);
    for (name, order) in [("reversed", &reversed), ("interleaved", &interleaved)] {
        let permuted = run_in_order(order);
        for (slot, &i) in order.iter().enumerate() {
            assert_bit_identical(
                &format!("{name} order, gadget #{i}"),
                &permuted[slot],
                &base[i],
            );
        }
    }
}

#[test]
fn forks_are_deterministic_and_isolated() {
    let snap = warmed_snapshot(CpuConfig::coffee_lake().with_load_recording());
    let prog = gadget_population(0xF0_4E5, 1).remove(0);

    // N forks of the same snapshot all see the same starting state, no
    // matter how many siblings ran (and dirtied their caches) before them.
    let lanes = snap.run_many(&vec![prog.clone(); 8]);
    let solo = snap.fork().run_one(&prog, Backend::EventDriven);
    for (i, lane) in lanes.iter().enumerate() {
        assert_bit_identical(&format!("sibling lane #{i}"), lane, &solo);
    }

    // Whole-machine forks are equally isolated: running one fork (stores,
    // cache fills, predictor training) must not leak into the snapshot.
    let first = snap.fork().run_one(&prog, Backend::EventDriven);
    let second = snap.fork().run_one(&prog, Backend::EventDriven);
    assert_bit_identical("fork isolation", &first, &second);
}

#[test]
fn run_many_matches_individual_forks_in_input_order() {
    let snap = warmed_snapshot(CpuConfig::coffee_lake().with_load_recording());
    let progs = gadget_population(0x0BA7_C4ED, 9);
    let got = snap.run_many(&progs);
    assert_eq!(got.len(), progs.len());
    for (i, (prog, got)) in progs.iter().zip(&got).enumerate() {
        let want = snap.fork().run_one(prog, Backend::EventDriven);
        assert_bit_identical(&format!("run_many gadget #{i}"), got, &want);
    }
}

#[test]
fn fork_and_run_mixes_heterogeneous_fork_sources() {
    // Four snapshots with visibly different state: cold, warmed on the
    // ALU kernel, warmed on the streaming kernel, and cold under a
    // different core config. One call, lanes alternating sources —
    // including the same program under different sources, which must
    // share the program's µop table yet diverge in timing, each lane
    // running under its own source's config.
    let cfg = CpuConfig::coffee_lake().with_load_recording();
    let cold = Snapshot::cold(cfg, HierarchyConfig::coffee_lake());
    let warm_alu = {
        let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
        cpu.run_one(&alu_chain(200), Backend::EventDriven);
        cpu.snapshot()
    };
    let warm_stream = {
        let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
        cpu.run_one(&memory_stream(200), Backend::EventDriven);
        cpu.snapshot()
    };
    let in_order = Snapshot::cold(
        cfg.with_countermeasure(Countermeasure::InOrder),
        HierarchyConfig::coffee_lake(),
    );
    let sources = [&cold, &warm_alu, &warm_stream, &in_order];
    let progs = gadget_population(0x9E37_79B9, 4);

    let mut lanes = Vec::new();
    let mut expect = Vec::new();
    for (i, prog) in progs.iter().enumerate() {
        for src in sources {
            lanes.push((src, prog));
            expect.push((i, src.fork().run_one(prog, Backend::EventDriven)));
        }
    }
    let got: Vec<_> = fork_and_run(lanes).collect();
    assert_eq!(got.len(), expect.len());
    for (slot, ((i, want), got)) in expect.iter().zip(&got).enumerate() {
        assert_bit_identical(&format!("lane {slot} (gadget #{i})"), got, want);
    }
    // The sources genuinely differ — otherwise this test proves nothing
    // about heterogeneity: warm state changes the streaming kernel's
    // timing, and in-order issue changes every gadget's.
    let cold_run = cold
        .fork()
        .run_one(&memory_stream(200), Backend::EventDriven);
    let warm_run = warm_stream
        .fork()
        .run_one(&memory_stream(200), Backend::EventDriven);
    assert_ne!(
        cold_run.cycles, warm_run.cycles,
        "sources indistinguishable"
    );
    assert!(
        progs
            .iter()
            .any(|p| cold.fork().run_one(p, Backend::EventDriven).cycles
                != in_order.fork().run_one(p, Backend::EventDriven).cycles),
        "configs indistinguishable"
    );
}

#[test]
fn snapshot_cache_distinct_configs_never_share() {
    let cache = SnapshotCache::new();
    let cfg = CpuConfig::coffee_lake();
    let warmup = alu_chain(100);
    // Four keys differing in exactly one component each.
    type Key<'a> = (CpuConfig, HierarchyConfig, Option<(&'a Program, usize)>);
    let keys: [Key; 4] = [
        (cfg, HierarchyConfig::coffee_lake(), None),
        (
            cfg.with_countermeasure(Countermeasure::DelayOnMiss),
            HierarchyConfig::coffee_lake(),
            None,
        ),
        (cfg, HierarchyConfig::small_plru(), None),
        (cfg, HierarchyConfig::coffee_lake(), Some((&warmup, 2))),
    ];
    for (cfg, hier, warm) in &keys {
        cache.warmed(*cfg, *hier, *warm);
    }
    assert_eq!(cache.len(), keys.len(), "each distinct key owns an entry");
    let c = cache.counters();
    assert_eq!((c.hits, c.misses), (0, keys.len() as u64));
    // Same warmup program but a different run count is a different key.
    cache.warmed(cfg, HierarchyConfig::coffee_lake(), Some((&warmup, 3)));
    assert_eq!(cache.len(), keys.len() + 1);
    assert_eq!(cache.counters().hits, 0);
}

#[test]
fn snapshot_cache_hits_return_identical_forks() {
    let cache = SnapshotCache::new();
    let cfg = CpuConfig::coffee_lake().with_load_recording();
    let warmup = memory_stream(200);
    let probe = gadget_population(0xCAC4E, 1).remove(0);

    let first = cache.warmed(cfg, HierarchyConfig::coffee_lake(), Some((&warmup, 2)));
    let second = cache.warmed(cfg, HierarchyConfig::coffee_lake(), Some((&warmup, 2)));
    let c = cache.counters();
    assert_eq!((c.hits, c.misses), (1, 1), "second lookup hits");

    // A cached hit's fork, a first-build fork, and a hand-warmed fresh
    // machine all run the probe bit-identically.
    let mut by_hand = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    by_hand.run_one(&warmup, Backend::EventDriven);
    by_hand.run_one(&warmup, Backend::EventDriven);
    let want = by_hand.run_one(&probe, Backend::EventDriven);
    let from_first = first.fork().run_one(&probe, Backend::EventDriven);
    let from_second = second.fork().run_one(&probe, Backend::EventDriven);
    assert_bit_identical("miss-built fork vs hand-warmed", &from_first, &want);
    assert_bit_identical("hit fork vs hand-warmed", &from_second, &want);
}

#[test]
fn snapshot_cache_builds_outside_the_lock() {
    // While one key warms (about a second in a debug build), a lookup of
    // another key builds and returns without waiting for it.
    let cache = SnapshotCache::new();
    let slow_warmup = alu_chain(60_000);
    std::thread::scope(|s| {
        let a = s.spawn(|| {
            cache.warmed(
                CpuConfig::coffee_lake(),
                HierarchyConfig::coffee_lake(),
                Some((&slow_warmup, 1)),
            )
        });
        while cache.counters().misses == 0 {
            std::thread::yield_now();
        }
        cache.warmed(
            CpuConfig::coffee_lake(),
            HierarchyConfig::small_plru(),
            None,
        );
        assert!(
            !a.is_finished(),
            "a lookup of another key waited for a warmup"
        );
        a.join().expect("the slow build succeeds");
    });
    let c = cache.counters();
    assert_eq!((c.hits, c.misses), (0, 2));
    assert_eq!(cache.len(), 2);
}

#[test]
fn snapshot_cache_racing_lookups_build_once() {
    let cache = SnapshotCache::new();
    let warmup = alu_chain(2_000);
    let barrier = std::sync::Barrier::new(4);
    let snaps: Vec<Snapshot> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    cache.warmed(
                        CpuConfig::coffee_lake(),
                        HierarchyConfig::small_plru(),
                        Some((&warmup, 2)),
                    )
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let c = cache.counters();
    assert_eq!((c.hits, c.misses), (3, 1), "one build, three waiters hit");
    assert_eq!(cache.len(), 1);
    let probe = alu_chain(50);
    let want = snaps[0].fork().run_one(&probe, Backend::EventDriven);
    for snap in &snaps[1..] {
        let got = snap.fork().run_one(&probe, Backend::EventDriven);
        assert_bit_identical("racing lookups", &got, &want);
    }
}

#[test]
fn snapshot_cache_recovers_after_a_panicking_build() {
    let cache = SnapshotCache::new();
    let invalid = CpuConfig {
        rob_size: 0,
        ..CpuConfig::coffee_lake()
    };
    let build =
        std::panic::catch_unwind(|| cache.warmed(invalid, HierarchyConfig::coffee_lake(), None));
    assert!(build.is_err(), "an invalid config must fail its build");
    assert!(cache.is_empty(), "a failed build adds no snapshot");
    assert_eq!(
        cache.counters().misses,
        1,
        "the failed build counts its miss"
    );
    // The key's slot stayed empty: the next lookup builds (and fails) again.
    let retry =
        std::panic::catch_unwind(|| cache.warmed(invalid, HierarchyConfig::coffee_lake(), None));
    assert!(retry.is_err());
    assert_eq!(cache.counters().misses, 2, "a failed build is never a hit");

    // The panic left the cache usable; later lookups still work.
    let before = cache.counters();
    let snap = cache.warmed(
        CpuConfig::coffee_lake(),
        HierarchyConfig::coffee_lake(),
        None,
    );
    let after = cache.counters();
    assert_eq!(after.hits, before.hits);
    assert_eq!(after.misses, before.misses + 1, "the lookup is a miss");
    assert_eq!(cache.len(), 1);
    assert_eq!(snap.config(), &CpuConfig::coffee_lake());
    cache.clear();
    assert!(cache.is_empty());
    assert_eq!(cache.counters(), after, "clearing keeps the counters");
}

#[test]
fn run_many_leaves_the_parent_machine_untouched() {
    let mut cpu = Cpu::new(
        CpuConfig::coffee_lake().with_load_recording(),
        HierarchyConfig::coffee_lake(),
    );
    cpu.run_one(&alu_chain(200), Backend::EventDriven); // warm the parent
    let prog = gadget_population(0x5EED_5EED, 1).remove(0);

    // Forked runs capture the parent's current state without advancing
    // it: repeated calls keep observing the same state, and the
    // event-driven run that follows starts exactly where the forks did.
    let f1 = cpu.snapshot().run_many(std::slice::from_ref(&prog));
    let f2 = cpu.snapshot().run_many(std::slice::from_ref(&prog));
    let direct = cpu.run_one(&prog, Backend::EventDriven);
    assert_bit_identical("repeated forked runs", &f1[0], &f2[0]);
    assert_bit_identical("forked vs event-driven", &f1[0], &direct);
}

#[test]
fn counters_lane_matches_loads_lane_except_the_load_log() {
    // One PLRU reorder-magnifier lane (five lines of one 4-way L1 set,
    // six accesses a round, one masked dependent chain, DRAM jitter on):
    // the recording level decides only whether load events are kept.
    let rounds = 400;
    let mut hier = HierarchyConfig::small_plru();
    hier.memory_jitter = 30;
    hier.seed = 7;
    let set_stride = (hier.l1d.sets * 64) as i64;
    let line = |k: i64| 0x10_0000 + k * set_stride;
    let mut asm = Asm::new();
    let (val, mask) = (asm.reg(), asm.reg());
    for _ in 0..rounds {
        for k in [2, 4, 2, 3, 2, 1] {
            asm.and(mask, val, 0i64);
            asm.load(val, MemOperand::base_disp(mask, line(k)));
        }
    }
    asm.halt();
    let prog = asm.assemble().expect("magnifier assembles");
    let lane = |cfg: CpuConfig| {
        fork_and_run([(&Snapshot::cold(cfg, hier), &prog)])
            .next()
            .unwrap()
    };

    let counters = lane(CpuConfig::coffee_lake());
    let mut loads = lane(CpuConfig::coffee_lake().with_load_recording());
    assert!(counters.loads.is_empty());
    assert_eq!(loads.loads.len(), 6 * rounds);
    loads.loads.clear();
    assert_bit_identical("counters vs loads lane", &counters, &loads);
}

#[test]
fn reused_thread_context_is_invisible() {
    // Every call below runs on this test's one host thread, so each lane
    // runs on whatever scheduling context the thread last parked: one an
    // abandoned iterator gave back, one sized for another ROB, or a fresh
    // one while a sibling iterator holds the parked context.
    let traced = CpuConfig::coffee_lake().with_record_level(racer_cpu::RecordLevel::Trace);
    let big = warmed_snapshot(traced);
    let small = Snapshot::cold(
        CpuConfig {
            rob_size: 24,
            rs_size: 12,
            ..traced
        },
        HierarchyConfig::small_plru(),
    );
    let progs = gadget_population(0x4E_05E, 6);
    let check = |tag: &str, snap: &Snapshot, prog: &Program, got: Option<RunResult>| {
        let got = got.unwrap_or_else(|| panic!("{tag}: lane missing"));
        let want = snap.fork().run_one(prog, Backend::EventDriven);
        assert_eq!(got.mem_stats, want.mem_stats, "{tag}: cache stats diverge");
        assert!(!want.trace.is_empty(), "{tag}: the lane is traced");
        assert_eq!(got.trace.len(), want.trace.len(), "{tag}: traces diverge");
        assert_bit_identical(tag, &got, &want);
    };

    // A call whose iterator is dropped after one lane, then full calls
    // on the context it gave back.
    let mut abandoned = fork_and_run(progs.iter().map(|p| (&big, p)));
    check("abandoned call", &big, &progs[0], abandoned.next());
    drop(abandoned);
    for _ in 0..2 {
        let runs = fork_and_run(progs.iter().map(|p| (&big, p)));
        for (i, (prog, got)) in progs.iter().zip(runs).enumerate() {
            check(
                &format!("after an abandoned call, lane {i}"),
                &big,
                prog,
                Some(got),
            );
        }
    }

    // Two live iterators on one thread, advanced alternately: the second
    // finds the slot empty and must not share the first's context.
    let mut a = fork_and_run(progs.iter().map(|p| (&big, p)));
    let mut b = fork_and_run(progs.iter().rev().map(|p| (&small, p)));
    for (i, (pa, pb)) in progs.iter().zip(progs.iter().rev()).enumerate() {
        check(&format!("interleaved a, lane {i}"), &big, pa, a.next());
        check(&format!("interleaved b, lane {i}"), &small, pb, b.next());
    }
    assert!(a.next().is_none() && b.next().is_none());
    drop((a, b));

    // One-lane calls alternating between ROB sizes: each reset resizes
    // the parked ring.
    for (i, prog) in progs.iter().enumerate() {
        for (name, snap) in [("big", &big), ("small", &small)] {
            let got = fork_and_run([(snap, prog)]).next();
            check(
                &format!("alternating ROB sizes, {name} lane {i}"),
                snap,
                prog,
                got,
            );
        }
    }
}
