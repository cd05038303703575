//! Exact work counts: the deterministic counters the simulator already
//! keeps, pinned against `tests/work_counts.txt`.
//!
//! Wall-clock throughput is noisy; the work a run does is not. Each shape
//! below is small enough for a debug build and records, per run, the
//! `RunResult` counters (cycles, commits, mispredicts, squashes,
//! interrupts, fast-forwarded rounds), the per-level cache counters
//! (hits/misses/fills/evictions/invalidations) with the memory, flush and
//! prefetch counts, and for forked lanes the copy-on-write chunks each
//! fork materialised per cache level. Any change to the simulated work —
//! an extra hierarchy access, a fast path that stops engaging, a fork
//! that copies eagerly — moves a count and fails the test, whatever the
//! host's speed. Treat a failure like a golden update: confirm the change
//! is intended, explain it, then regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p hacky-racers --test work_counts`.
//!
//! Timing itself is measured by `perfbench/`.

use hacky_racers::gadget_search::{eval_cpu_config, FitnessConfig, GadgetTemplate, SplitMix64};
use hacky_racers::machine::Machine;
use hacky_racers::magnify::{PlruInput, PlruMagnifier};
use racer_cpu::workloads::{alu_chain, memory_stream, standard_suite};
use racer_cpu::{Backend, Cpu, CpuConfig, RunResult};
use racer_isa::Program;
use racer_mem::{Cache, CacheStats, Hierarchy, HierarchyConfig};
use std::path::PathBuf;

/// Loop iterations of the `standard_suite` kernels: enough for
/// `memory-stream` to outgrow the L1 and evict.
const KERNEL_ITERS: i64 = 600;

/// Loop iterations, warmup runs and forked points of each sweep.
const SWEEP_ITERS: i64 = 200;
const SWEEP_WARMUP: usize = 4;
const SWEEP_POINTS: usize = 3;

/// Gadget-search batch: sampled templates, the targets each is lowered
/// at, and the warmup runs of the shared evaluation machine.
const SEARCH_CANDIDATES: usize = 24;
const SEARCH_TARGETS: [usize; 3] = [0, 2, 4];
const SEARCH_WARMUP: usize = 16;

/// Rounds of the repeated-region PLRU magnifier lane.
const PLRU_ROUNDS: usize = 2_000;

fn cache(c: &CacheStats) -> String {
    format!(
        "{}/{}/{}/{}/{}",
        c.hits, c.misses, c.fills, c.evictions, c.invalidations
    )
}

/// One line of counters for one run.
fn line(key: &str, r: &RunResult) -> String {
    let m = &r.mem_stats;
    format!(
        "{key} cycles={} committed={} mispredicts={} squashed={} interrupts={} \
         fast_forwarded={} l1d={} l2={} l3={} memory={} flushes={} prefetches={}",
        r.cycles,
        r.committed,
        r.mispredicts,
        r.squashed_instrs,
        r.interrupts,
        r.fast_forwarded,
        cache(&m.l1d),
        cache(&m.l2),
        cache(&m.l3),
        m.memory_accesses,
        m.flushes,
        m.prefetches,
    )
}

/// Chunks of each level `fork` holds privately rather than sharing with
/// `base`, the machine it was forked from.
fn cow(fork: &Hierarchy, base: &Hierarchy) -> String {
    let own = |f: &Cache, b: &Cache| f.num_chunks() - f.shared_chunks_with(b);
    format!(
        "cow={}/{}/{}",
        own(fork.l1d(), base.l1d()),
        own(fork.l2(), base.l2()),
        own(fork.l3(), base.l3()),
    )
}

/// Each `standard_suite` kernel on a fresh coffee-lake machine, cold and
/// then warm (the SMT kernel on a two-thread machine, one line per
/// thread).
fn kernels(out: &mut Vec<String>) {
    for w in standard_suite(KERNEL_ITERS, 1) {
        let mut progs: Vec<&Program> = vec![&w.prog];
        let mut cfg = CpuConfig::coffee_lake();
        if let Some(contender) = &w.contender {
            progs.push(contender);
            cfg.threads = 2;
        }
        let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
        for pass in ["cold", "warm"] {
            for (t, r) in cpu.run(&progs, Backend::EventDriven).iter().enumerate() {
                assert!(r.halted && !r.limit_hit, "{} must halt", w.name);
                out.push(line(&format!("kernel {} {pass} t{t}", w.name), r));
            }
        }
    }
}

/// A warmed sweep: one machine warmed once, snapshotted, and each point
/// run on its own fork.
fn sweeps(out: &mut Vec<String>) {
    for (name, prog) in [
        ("alu-chain", alu_chain(SWEEP_ITERS)),
        ("memory-stream", memory_stream(SWEEP_ITERS)),
    ] {
        let mut warmed = Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake());
        for _ in 0..SWEEP_WARMUP {
            warmed.run_one(&prog, Backend::EventDriven);
        }
        let snap = warmed.snapshot();
        for point in 0..SWEEP_POINTS {
            let mut fork = snap.fork();
            let r = fork.run_one(&prog, Backend::EventDriven);
            assert!(r.halted && !r.limit_hit, "{name} must halt");
            let key = format!("sweep {name} point{point}");
            let cow = cow(fork.hierarchy(), warmed.hierarchy());
            out.push(format!("{} {cow}", line(&key, &r)));
        }
    }
}

/// One generation's worth of gadget-search evaluation: sampled templates
/// lowered at several targets, fanned out over one warmed snapshot.
fn search_batch(out: &mut Vec<String>) {
    let fit = FitnessConfig::default();
    let warm = alu_chain(32);
    let mut rng = SplitMix64::new(7);
    let progs: Vec<Program> = (0..SEARCH_CANDIDATES)
        .map(|_| GadgetTemplate::sample(&mut rng))
        .flat_map(|tpl| SEARCH_TARGETS.map(|target| tpl.lower(target, fit.clock_len).prog))
        .collect();
    let mut cpu = Cpu::new(
        eval_cpu_config(fit.cycle_budget),
        HierarchyConfig::small_plru(),
    );
    for _ in 0..SEARCH_WARMUP {
        cpu.run_one(&warm, Backend::EventDriven);
    }
    let results = cpu.snapshot().run_many(&progs);
    for (candidate, runs) in results.chunks(SEARCH_TARGETS.len()).enumerate() {
        for (target, r) in SEARCH_TARGETS.iter().zip(runs) {
            out.push(line(
                &format!("search candidate{candidate} target{target}"),
                r,
            ));
        }
    }
}

/// A `timer_mitigations_eval`-shaped lane: the PLRU magnifier's repeated
/// region on a noisy machine, which fast-forwards almost every round.
fn plru_lane(out: &mut Vec<String>) {
    let mut m = Machine::with(CpuConfig::coffee_lake(), Machine::noisy_hierarchy(3));
    let mag = PlruMagnifier::with(m.layout(), 5, PLRU_ROUNDS);
    mag.prepare(&mut m);
    let (a, b) = (mag.line_a(&m), mag.line_b(&m));
    m.warm(b);
    m.warm(a);
    let prog = mag.program(&m, PlruInput::Reorder);
    assert!(prog.region().is_some(), "the magnifier body is a region");
    out.push(line("plru-magnifier", &m.run(&prog)));
}

#[test]
fn work_counts_match_the_committed_file() {
    let mut counts = Vec::new();
    kernels(&mut counts);
    sweeps(&mut counts);
    search_batch(&mut counts);
    plru_lane(&mut counts);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/work_counts.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let text: String = counts.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, text).expect("write work counts");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
    let expected: Vec<&str> = expected.lines().collect();
    let drifted: Vec<String> = counts
        .iter()
        .zip(&expected)
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        drifted.is_empty() && counts.len() == expected.len(),
        "work counts drifted from tests/work_counts.txt ({} of {} lines; \
         {} lines expected). If intended, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p hacky-racers --test work_counts\n{}",
        drifted.len(),
        counts.len(),
        expected.len(),
        drifted.join("\n")
    );
}
