//! `smt_contention_eval` — racing-gadget timer quality under SMT port
//! contention (paper §9, "other shared resources").
//!
//! The paper observes that a racing-gadget timer reads *any* contended
//! shared resource — and Ge et al. argue SMT-shared execution ports are
//! exactly the channels software cannot close. This scenario co-schedules
//! the §4/§6.4 racing-gadget timer (a serial divide chain *measured*
//! against a serial add-chain *clock*) with a family of port-pressure
//! contender kernels on the second hardware thread, and measures what the
//! contention does to the timer itself:
//!
//! * **Resolution** (`resolution_cycles_per_tick`): the least-squares
//!   slope of measured-chain duration against the racer's reading — how
//!   many real cycles one clock tick represents. An idle sibling leaves
//!   the add-chain clock ticking once per cycle (the paper's
//!   cycle-accurate racer); a sibling saturating the shared ALU ports
//!   steals issue slots from the clock chain and coarsens every tick.
//! * **Reading slope** (`reading_slope_ticks_per_target`): ticks per unit
//!   of measured work. Divider-unit pressure (`div-hog`) inflates the
//!   measured chain itself — the co-resident-victim observation channel —
//!   while leaving the clock full-rate.
//! * **Monotonicity errors**: adjacent measured lengths whose readings
//!   fail to increase — the gadget-noise figure the paper's repetition
//!   stacks exist to suppress.
//!
//! Contender mixes are ranked by the pressure they put on the *timer's
//! own ports* (the clock chain's ALU issue slots), so the paper preset's
//! resolution column degrades monotonically along the declared ladder.
//! Every run is a fresh, cold, deterministic two-thread machine; the
//! phase axis (`trials`) shifts the racer's dispatch alignment against
//! the contender loop by prepended no-ops.

use crate::error::LabError;
use crate::params::ParamSpec;
use crate::registry::{RunContext, Scenario, ScenarioOutput};
use racer_cpu::workloads::{alu_saturate, div_hog, memory_stream, timer_race_phased};
use racer_cpu::{Backend, Cpu, CpuConfig, SmtPolicy};
use racer_isa::Program;
use racer_mem::HierarchyConfig;
use racer_results::Value;
use std::fmt::Write as _;

/// Contender-loop iteration count: sized so every kernel comfortably
/// outlives the longest race (a few hundred cycles) on any mix.
const CONTENDER_ITERS: i64 = 80;

/// One contender mix: name, pressure rank on the timer's ALU ports
/// (higher = more), and the kernel builder.
struct Mix {
    name: &'static str,
    pressure_rank: i64,
    build: fn() -> Program,
}

fn idle_contender() -> Program {
    let mut asm = racer_isa::Asm::new();
    asm.halt();
    asm.assemble().expect("valid program")
}

/// The known contender mixes, in pressure-rank order.
fn mix_table() -> Vec<Mix> {
    vec![
        Mix {
            name: "none",
            pressure_rank: 0,
            build: idle_contender,
        },
        Mix {
            name: "load-stream",
            pressure_rank: 1,
            build: || memory_stream(CONTENDER_ITERS),
        },
        Mix {
            name: "div-hog",
            pressure_rank: 2,
            build: || div_hog(CONTENDER_ITERS),
        },
        Mix {
            name: "alu-1",
            pressure_rank: 3,
            build: || alu_saturate(CONTENDER_ITERS, 1),
        },
        Mix {
            name: "alu-2",
            pressure_rank: 4,
            build: || alu_saturate(CONTENDER_ITERS, 2),
        },
        Mix {
            name: "alu-sat",
            pressure_rank: 5,
            build: || alu_saturate(CONTENDER_ITERS, 8),
        },
    ]
}

fn find_mix(name: &str) -> Result<Mix, LabError> {
    mix_table()
        .into_iter()
        .find(|m| m.name == name)
        .ok_or_else(|| {
            let known: Vec<&str> = mix_table().iter().map(|m| m.name).collect();
            LabError::param(
                "smt_contention_eval",
                format!(
                    "parameter \"mixes\": unknown contender mix {name:?}; known: {}",
                    known.join(", ")
                ),
            )
        })
}

fn parse_policy(name: &str) -> Result<SmtPolicy, LabError> {
    match name {
        "round-robin" => Ok(SmtPolicy::RoundRobin),
        "icount" => Ok(SmtPolicy::Icount),
        other => Err(LabError::param(
            "smt_contention_eval",
            format!(
                "parameter \"policy\": unknown SMT policy {other:?}; known: round-robin, icount"
            ),
        )),
    }
}

/// One race on a fresh two-thread machine: does the clock chain of length
/// `clock_adds` lose (complete strictly after the measured chain), and
/// when did the measured chain complete?
fn race(
    policy: SmtPolicy,
    contender: &Program,
    measured_divs: usize,
    clock_adds: usize,
    phase: usize,
) -> (bool, u64) {
    let cfg = CpuConfig::coffee_lake()
        .with_threads(2)
        .with_smt_policy(policy)
        .with_trace();
    let mut cpu = Cpu::new(cfg, HierarchyConfig::coffee_lake());
    let r = timer_race_phased(measured_divs, clock_adds, phase);
    let results = cpu.run(&[&r.prog, contender], Backend::EventDriven);
    assert!(
        results[0].halted && results[1].halted,
        "race and contender must run to completion"
    );
    let (measured_done, clock_done) = r.tail_completions(&results[0]);
    (clock_done > measured_done, measured_done)
}

/// The racer's reading of a measured chain of `t` divides: the smallest
/// clock-chain length that loses the race (binary search — the race
/// outcome is monotone in the clock length up to gadget noise, which is
/// precisely what the monotonicity-error metric quantifies). Returns
/// `(reading, measured-chain duration at that reading)`.
fn read_timer(
    policy: SmtPolicy,
    contender: &Program,
    t: usize,
    clock_max: usize,
    phase: usize,
) -> (usize, u64) {
    // Every probe returns the measured-chain duration alongside the race
    // outcome; tracking the duration of the probe that ends up as the
    // reading saves re-simulating it (each probe is a full cold
    // two-thread run).
    let probe = |r: usize| race(policy, contender, t, r, phase);
    let (lose_zero, duration_zero) = probe(0);
    if lose_zero {
        return (0, duration_zero);
    }
    let (lose_max, duration_max) = probe(clock_max);
    if !lose_max {
        // Saturated: the window/clock cannot count this far.
        return (clock_max, duration_max);
    }
    let (mut lo, mut hi) = (0usize, clock_max);
    let mut duration_hi = duration_max;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let (lost, duration) = probe(mid);
        if lost {
            hi = mid;
            duration_hi = duration;
        } else {
            lo = mid;
        }
    }
    (hi, duration_hi)
}

/// Lower median of a non-empty slice.
fn median(xs: &[u64]) -> u64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

/// Least-squares slope of `y` against `x` (0 when x has no spread).
fn ls_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.is_empty() {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        return 0.0;
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    sxy / sxx
}

fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

/// Everything measured for one contender mix.
struct MixResult {
    name: &'static str,
    pressure_rank: i64,
    resolution_cycles_per_tick: f64,
    reading_slope_ticks_per_target: f64,
    monotonicity_error_rate: f64,
    /// Per-target lower-median reading across phase trials.
    median_readings: Vec<(usize, u64)>,
    points: Vec<Value>,
}

fn evaluate_mix(
    mix: &Mix,
    policy: SmtPolicy,
    targets: &[usize],
    clock_max: usize,
    trials: usize,
) -> MixResult {
    let contender = (mix.build)();
    let mut points = Vec::new();
    let mut duration_vs_reading: Vec<(f64, f64)> = Vec::new();
    let mut reading_vs_target: Vec<(f64, f64)> = Vec::new();
    let mut per_target: Vec<Vec<u64>> = vec![Vec::new(); targets.len()];
    let mut errors = 0usize;
    let mut pairs = 0usize;
    for phase in 0..trials {
        let mut prev: Option<usize> = None;
        for (ti, &t) in targets.iter().enumerate() {
            let (reading, duration) = read_timer(policy, &contender, t, clock_max, phase);
            duration_vs_reading.push((reading as f64, duration as f64));
            reading_vs_target.push((t as f64, reading as f64));
            per_target[ti].push(reading as u64);
            if let Some(p) = prev {
                pairs += 1;
                // A longer measured chain must read higher; a flat or
                // inverted reading is a gadget monotonicity error.
                if reading <= p {
                    errors += 1;
                }
            }
            prev = Some(reading);
            points.push(
                Value::object()
                    .with("target_divs", t)
                    .with("phase", phase)
                    .with("reading_ticks", reading)
                    .with("duration_cycles", duration),
            );
        }
    }
    MixResult {
        name: mix.name,
        pressure_rank: mix.pressure_rank,
        resolution_cycles_per_tick: round4(ls_slope(&duration_vs_reading)),
        reading_slope_ticks_per_target: round4(ls_slope(&reading_vs_target)),
        monotonicity_error_rate: round4(if pairs == 0 {
            0.0
        } else {
            errors as f64 / pairs as f64
        }),
        median_readings: targets
            .iter()
            .zip(&per_target)
            .map(|(&t, rs)| (t, median(rs)))
            .collect(),
        points,
    }
}

fn run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let mixes = ctx.params.str_list("mixes");
    let targets = ctx.params.usize_list("targets");
    let clock_max = ctx.params.usize("clock_max");
    let trials = ctx.params.usize("trials");
    let policy = parse_policy(ctx.params.str("policy"))?;

    let specs = mixes
        .iter()
        .map(|m| find_mix(m))
        .collect::<Result<Vec<Mix>, _>>()?;
    // Independent deterministic simulations: fan the mixes out across
    // host cores (order-preserving).
    let results = racer_cpu::batch::par_map(&specs, |mix| {
        evaluate_mix(mix, policy, &targets, clock_max, trials)
    });

    let mut text = super::header(
        "§9 SMT",
        "racing-gadget timer resolution under SMT port contention",
    );
    let _ = writeln!(
        text,
        "# policy: {policy}   targets: {targets:?} divs   clock_max: {clock_max} adds   trials: {trials}"
    );
    let _ = writeln!(
        text,
        "# mix          rank  cycles/tick  ticks/div  mono-err  median readings"
    );
    for r in &results {
        let readings: Vec<String> = r
            .median_readings
            .iter()
            .map(|(t, m)| format!("{t}:{m}"))
            .collect();
        let _ = writeln!(
            text,
            "{:<13} {:>4} {:>12.3} {:>10.2} {:>9.2}  {}",
            r.name,
            r.pressure_rank,
            r.resolution_cycles_per_tick,
            r.reading_slope_ticks_per_target,
            r.monotonicity_error_rate,
            readings.join(" ")
        );
    }
    let _ = writeln!(
        text,
        "# paper §9: the racer reads any contended shared resource; pressure on"
    );
    let _ = writeln!(
        text,
        "# the clock chain's ALU ports coarsens each tick (resolution degrades"
    );
    let _ = writeln!(
        text,
        "# monotonically down the ladder), while divider pressure inflates the"
    );
    let _ = writeln!(
        text,
        "# measured chain itself (ticks/div rises) — the co-residence channel."
    );

    let data = Value::object()
        .with("policy", policy.to_string())
        .with("clock_max", clock_max)
        .with(
            "mixes",
            Value::Array(
                results
                    .into_iter()
                    .map(|r| {
                        Value::object()
                            .with("mix", r.name)
                            .with("pressure_rank", r.pressure_rank)
                            .with("resolution_cycles_per_tick", r.resolution_cycles_per_tick)
                            .with(
                                "reading_slope_ticks_per_target",
                                r.reading_slope_ticks_per_target,
                            )
                            .with("monotonicity_error_rate", r.monotonicity_error_rate)
                            .with(
                                "median_readings",
                                Value::Array(
                                    r.median_readings
                                        .iter()
                                        .map(|&(t, m)| {
                                            Value::object()
                                                .with("target_divs", t)
                                                .with("reading_ticks", m)
                                        })
                                        .collect(),
                                ),
                            )
                            .with("points", Value::Array(r.points))
                    })
                    .collect(),
            ),
        );
    Ok(ScenarioOutput { data, text })
}

/// Registration for the SMT port-contention evaluation.
pub fn smt_contention_eval() -> Scenario {
    Scenario {
        name: "smt_contention_eval",
        title: "§9 SMT",
        description: "racing-gadget timer resolution and monotonicity under SMT port contention",
        params: vec![
            ParamSpec::str_list(
                "mixes",
                "contender mixes, pressure-rank order",
                &["none", "div-hog", "alu-sat"],
                &[
                    "none",
                    "load-stream",
                    "div-hog",
                    "alu-1",
                    "alu-2",
                    "alu-sat",
                ],
            ),
            ParamSpec::int_list(
                "targets",
                "measured divide-chain lengths",
                &[0, 1, 2],
                &[0, 1, 2, 3, 4, 6],
            ),
            ParamSpec::int(
                "clock_max",
                "largest clock chain the reading search probes",
                64,
                112,
            ),
            ParamSpec::int("trials", "contender phase offsets per cell", 2, 4),
            ParamSpec::str(
                "policy",
                "SMT issue arbitration (round-robin | icount)",
                "round-robin",
                "round-robin",
            ),
        ],
        seed: 0,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_eval(mix_name: &str, targets: &[usize], trials: usize) -> MixResult {
        evaluate_mix(
            &find_mix(mix_name).expect("a known mix"),
            SmtPolicy::RoundRobin,
            targets,
            64,
            trials,
        )
    }

    #[test]
    fn idle_sibling_keeps_cycle_resolution() {
        let r = quick_eval("none", &[0, 1, 2, 3], 1);
        // An uncontended add-chain clock ticks once per cycle.
        assert!(
            (r.resolution_cycles_per_tick - 1.0).abs() < 0.2,
            "idle-sibling resolution should be ~1 cycle/tick, got {}",
            r.resolution_cycles_per_tick
        );
        assert_eq!(r.monotonicity_error_rate, 0.0);
    }

    #[test]
    fn resolution_degrades_monotonically_with_alu_pressure() {
        // The acceptance property, at reduced scale: walking up the
        // declared pressure ladder never improves resolution (tolerance
        // for flat steps), and full saturation costs at least half a
        // cycle per tick over the idle sibling.
        let ladder = ["none", "div-hog", "alu-2", "alu-sat"];
        let res: Vec<f64> = ladder
            .iter()
            .map(|m| quick_eval(m, &[0, 1, 2, 3], 1).resolution_cycles_per_tick)
            .collect();
        for w in res.windows(2) {
            assert!(
                w[1] >= w[0] - 0.05,
                "resolution must not improve with pressure: {ladder:?} -> {res:?}"
            );
        }
        assert!(
            res[res.len() - 1] > res[0] + 0.5,
            "ALU saturation must coarsen the timer: {res:?}"
        );
    }

    #[test]
    fn div_hog_inflates_the_measured_chain() {
        let idle = quick_eval("none", &[1, 2, 3], 1);
        let hog = quick_eval("div-hog", &[1, 2, 3], 1);
        assert!(
            hog.reading_slope_ticks_per_target > idle.reading_slope_ticks_per_target + 1.0,
            "divider contention must inflate ticks/div: idle {} vs hog {}",
            idle.reading_slope_ticks_per_target,
            hog.reading_slope_ticks_per_target
        );
    }

    #[test]
    fn unknown_mix_is_rejected() {
        let err = find_mix("cryptominer")
            .err()
            .expect("an unknown mix is an error");
        assert_eq!(err.kind(), "param");
        assert!(
            err.to_string().contains("alu-sat"),
            "names the known mixes: {err}"
        );
    }

    #[test]
    fn policies_parse() {
        assert_eq!(
            parse_policy("round-robin").ok(),
            Some(SmtPolicy::RoundRobin)
        );
        assert_eq!(parse_policy("icount").ok(), Some(SmtPolicy::Icount));
        assert_eq!(parse_policy("bogus").err().map(|e| e.kind()), Some("param"));
    }

    #[test]
    fn helpers_are_sane() {
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(median(&[4, 1, 2, 3]), 2, "lower median on even length");
        let pts: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        assert!((ls_slope(&pts) - 2.0).abs() < 1e-9);
        assert_eq!(ls_slope(&[(1.0, 5.0)]), 0.0);
    }
}
