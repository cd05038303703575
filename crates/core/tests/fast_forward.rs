//! Steady-state fast-forward guards and paper-scale exactness checks.
//!
//! The event-driven core extrapolates through a magnifier's repeated
//! region once its state repeats (`racer_cpu` core, `steady` module), and
//! reports the rounds it skipped in `RunResult::fast_forwarded`. The
//! guards pin *when* it engages — a silently disabled fast path would
//! leave every result identical and only the run slower, so only these
//! counts catch it (`Machine::fast_forwarded_total` sums them over a
//! driver's runs). The `#[ignore]`d tests compare repeated and unrolled
//! magnifier runs bit for bit at the paper's scale; run them in release
//! with `cargo test --release -p hacky-racers --test fast_forward -- --ignored`.

use hacky_racers::attacks::SpectreBack;
use hacky_racers::gadget_search::{FitnessConfig, GadgetTemplate, SplitMix64};
use hacky_racers::layout::Layout;
use hacky_racers::machine::Machine;
use hacky_racers::magnify::{
    ArbitraryReplacementMagnifier, ArithmeticMagnifier, PlruInput, PlruMagnifier,
};
use racer_cpu::{CpuConfig, RecordLevel, RunResult};
use racer_isa::Program;
use racer_mem::{CacheConfig, HierarchyConfig, ReplacementKind};
use racer_time::CoarseTimer;

/// A `timer_mitigations_eval` lane: a fresh noisy machine with the
/// Figure 3.1 set state, the raced lines warmed in `bit` order.
fn mitigation_lane(seed: u64, bit: bool, rounds: usize, cfg: CpuConfig) -> (Machine, Program) {
    let mut m = Machine::with(cfg, Machine::noisy_hierarchy(seed));
    let mag = PlruMagnifier::with(m.layout(), 5, rounds);
    mag.prepare(&mut m);
    let (a, b) = (mag.line_a(&m), mag.line_b(&m));
    let order = if bit { [a, b] } else { [b, a] };
    for line in order {
        m.warm(line);
    }
    let prog = mag.program(&m, PlruInput::Reorder);
    (m, prog)
}

/// A Figure 11 lane: the §6.3 magnifier on a 64-set, 8-way L1 under
/// `kind`, prepared and with its sync line flushed.
fn fig11_lane(kind: ReplacementKind, repeats: usize, delay: usize) -> (Machine, Program) {
    let mut hier = HierarchyConfig::coffee_lake();
    hier.l1d = CacheConfig {
        sets: 64,
        ways: 8,
        replacement: kind,
        seed: 0x5EED + repeats as u64,
        ..CacheConfig::l1d_coffee_lake()
    };
    let mut m = Machine::with(CpuConfig::coffee_lake(), hier);
    let mut mag = ArbitraryReplacementMagnifier::new(Layout::default());
    mag.repeats = repeats;
    mag.prepare(&mut m);
    m.flush(Layout::default().sync);
    let prog = mag.program(&m, delay);
    (m, prog)
}

/// `prog` with its region unrolled: the same instruction stream, which
/// the core can never fast-forward.
fn unrolled(prog: &Program) -> Program {
    Program::from_instrs(prog.iter().copied().collect()).expect("valid stream")
}

/// Run `prog` and its unrolled twin on forks of `m`; assert the results
/// are bit-identical and return the repeated run's.
fn assert_exact(tag: &str, m: &Machine, prog: &Program) -> RunResult {
    let snap = m.snapshot();
    let fast = Machine::from_snapshot(&snap).run(prog);
    let slow = Machine::from_snapshot(&snap).run(&unrolled(prog));
    assert_eq!(fast.cycles, slow.cycles, "{tag}: cycles");
    assert_eq!(fast.committed, slow.committed, "{tag}: committed");
    assert_eq!(fast.regs, slow.regs, "{tag}: registers");
    assert_eq!(fast.mem_stats, slow.mem_stats, "{tag}: cache statistics");
    assert_eq!(fast.interrupts, slow.interrupts, "{tag}: interrupts");
    assert_eq!(fast.halted, slow.halted, "{tag}: halt");
    assert_eq!(slow.fast_forwarded, 0, "{tag}: unrolled runs in full");
    fast
}

#[test]
fn a_timer_mitigation_lane_skips_almost_every_round() {
    for bit in [false, true] {
        let (m, prog) = mitigation_lane(3, bit, 2_000, CpuConfig::coffee_lake());
        let r = assert_exact(&format!("bit {bit}"), &m, &prog);
        assert!(
            r.fast_forwarded >= 1_900,
            "bit {bit}: only {} of 2000 rounds fast-forwarded",
            r.fast_forwarded
        );
    }
}

#[test]
fn random_replacement_fig11_lanes_never_fast_forward() {
    let (m, prog) = fig11_lane(ReplacementKind::Random, 6, 30);
    let r = assert_exact("random fig11", &m, &prog);
    assert_eq!(r.fast_forwarded, 0, "random replacement never settles");
}

#[test]
fn load_recording_lanes_never_fast_forward() {
    let cfg = CpuConfig::coffee_lake().with_record_level(RecordLevel::Loads);
    let (mut m, prog) = mitigation_lane(3, true, 300, cfg);
    let r = m.run(&prog);
    assert_eq!(r.fast_forwarded, 0, "recorded lanes run every round");
    assert!(!r.loads.is_empty());
}

/// A quick-preset `spectre_back_eval` leak (the scenario's secret, timer
/// and seed): every bit is read out through a 1000-round magnifier with
/// `Machine::run_timed`, which records counters only, so almost every
/// round fast-forwards although the machine records load events.
#[test]
fn a_spectre_back_leak_skips_almost_every_magnifier_round() {
    let secret = b"ASPLOS";
    let mut m = Machine::noisy(0xD00D);
    let atk = SpectreBack::new(m.layout());
    atk.plant_secret(&mut m, secret);
    atk.leak_bytes(&mut m, secret.len(), &mut CoarseTimer::new(5_000.0));
    // Two calibration readouts, then one per leaked bit.
    let rounds = ((2 + secret.len() * 8) * atk.magnifier_rounds) as u64;
    let skipped = m.fast_forwarded_total();
    assert!(
        skipped * 10 >= rounds * 9,
        "only {skipped} of {rounds} magnifier rounds fast-forwarded"
    );
    assert_eq!(
        m.cpu().config().record,
        RecordLevel::Loads,
        "timed runs restore the machine's record level"
    );
}

#[test]
fn a_random_replacement_timed_run_never_fast_forwards() {
    let mut m = Machine::random_l1(0x5EED);
    let mut mag = ArbitraryReplacementMagnifier::new(m.layout());
    mag.repeats = 6;
    mag.prepare(&mut m);
    m.flush(m.layout().sync);
    let prog = mag.program(&m, 30);
    assert!(prog.region().is_some());
    // The run `run_timed` makes: the clock-advancing run at counters only.
    m.cpu_mut().set_record_level(RecordLevel::Counters);
    let r = m.run(&prog);
    assert!(r.committed as usize >= prog.len() / 2);
    assert_eq!(r.fast_forwarded, 0, "random replacement never settles");
    assert_eq!(m.fast_forwarded_total(), 0);
}

#[test]
fn gadget_search_candidates_never_fast_forward() {
    let fit = FitnessConfig::default();
    let snap = fit.snapshot();
    let mut rng = SplitMix64::new(0xFA57);
    let progs: Vec<Program> = (0..16)
        .map(|_| GadgetTemplate::sample(&mut rng))
        .flat_map(|tpl| {
            fit.targets
                .iter()
                .map(|&t| tpl.lower(t, fit.clock_len).prog)
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(progs.iter().all(|p| p.region().is_none()));
    for r in snap.run_many(&progs) {
        assert_eq!(r.fast_forwarded, 0);
    }
}

#[test]
fn a_paper_scale_magnifier_formats_in_the_size_of_its_body() {
    let m = Machine::baseline();
    let prog = PlruMagnifier::with(m.layout(), 5, 200_000).program(&m, PlruInput::Reorder);
    assert_eq!(prog.len(), 200_000 * 12 + 1);
    let debug = format!("{prog:?}");
    assert!(
        debug.len() < 4_000,
        "Debug must not expand the region: {} bytes",
        debug.len()
    );
    assert!(prog.listing().lines().count() < 20);
}

#[test]
#[ignore = "paper scale; run in release"]
fn plru_lanes_at_200000_rounds_are_exact() {
    for seed in [0, 63] {
        for bit in [false, true] {
            let (m, prog) = mitigation_lane(seed, bit, 200_000, CpuConfig::coffee_lake());
            let r = assert_exact(&format!("seed {seed} bit {bit}"), &m, &prog);
            assert!(r.fast_forwarded > 199_000);
        }
    }
}

#[test]
#[ignore = "paper scale; run in release"]
fn arithmetic_lanes_at_20000_stages_with_interrupts_are_exact() {
    let mut cfg = CpuConfig::coffee_lake();
    cfg.interrupt_interval = Some(2_000_000);
    let mut mag = ArithmeticMagnifier::new(Layout::default());
    mag.stages = 20_000;
    for delay in [0, 20] {
        let mut m = Machine::with(cfg, HierarchyConfig::small_plru());
        m.flush(Layout::default().sync);
        let r = assert_exact(&format!("delay {delay}"), &m, &mag.program(delay));
        assert!(r.interrupts > 0, "the run spans an interrupt");
        assert!(r.fast_forwarded > 19_000);
    }
}

#[test]
#[ignore = "paper scale; run in release"]
fn fifo_fig11_lanes_at_800_repeats_are_exact() {
    for delay in [0, 30] {
        let (m, prog) = fig11_lane(ReplacementKind::Fifo, 800, delay);
        let r = assert_exact(&format!("delay {delay}"), &m, &prog);
        assert!(r.fast_forwarded > 700);
    }
}
