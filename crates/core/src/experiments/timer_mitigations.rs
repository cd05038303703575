//! Timer-mitigation sweep: how much magnification defeats each historical
//! browser timer mitigation (paper §2.2 and §8's "some of our magnifiers
//! ... could be defeated via further coarsening, whereas others (the PLRU
//! gadgets) are unlikely to be limited without removing any source of
//! coarse-grained time completely").
//!
//! For each timer model and each magnifier round count, transmit a bit
//! through the PLRU reorder magnifier many times and report the
//! classification accuracy. Because PLRU magnification is unbounded, there
//! is a round count that defeats *every* finite resolution.

use crate::experiments::run_lanes;
use crate::machine::Machine;
use crate::magnify::{PlruInput, PlruMagnifier};
use racer_cpu::CpuConfig;
use racer_isa::Program;
use racer_time::{stats, CoarseTimer, FuzzyTimer, Timer};

/// One cell of the mitigation sweep.
#[derive(Clone, Debug)]
pub struct MitigationPoint {
    /// Timer model name.
    pub timer: String,
    /// Magnifier rounds per transmission.
    pub rounds: usize,
    /// Bit-classification accuracy in [0.5, 1].
    pub accuracy: f64,
    /// Transmissions scored for this cell: always the sweep's `trials`.
    pub trials: usize,
}

fn build_timer(name: &str, seed: u64) -> Box<dyn Timer> {
    match name {
        "5us" => Box::new(CoarseTimer::new(5_000.0)),
        "100us" => Box::new(CoarseTimer::new(100_000.0)),
        "5us+jitter" => Box::new(CoarseTimer::with_jitter(5_000.0, 5_000.0, seed)),
        "fuzzy-5us" => Box::new(FuzzyTimer::new(5_000.0, seed)),
        "1ms" => Box::new(CoarseTimer::new(1_000_000.0)),
        other => panic!("unknown timer model {other}"),
    }
}

/// Transmit `trials` known bits per (timer, rounds) cell; score accuracy.
///
/// The heavy magnifier run of a (trial, bit, rounds) cell is
/// *timer-independent*: `prepare` and the bit-ordered warms poke caches
/// without running programs, so the machine's clock is zero when the
/// magnifier runs and every observation a timer scores is
/// `timer.measure(0, cycles_to_ns(cycles))` of the same cycle count. The
/// sweep therefore runs the rounds × trial × bit cell grid exactly once
/// through the fork engine — one shared program per rounds value (the
/// magnifier program depends only on rounds and L1 geometry), one lane
/// per host-parallel item — and scores the cycles under every timer.
///
/// # Panics
///
/// Panics if `trials == 0`: a cell with no transmissions has no accuracy.
pub fn sweep(timers: &[&str], round_counts: &[usize], trials: usize) -> Vec<MitigationPoint> {
    assert!(trials > 0, "a mitigation sweep needs at least one trial");
    // Prepared machines in (rounds, trial, bit) order, then one shared
    // program per rounds value.
    let mut cells: Vec<(Machine, usize)> = Vec::with_capacity(round_counts.len() * trials * 2);
    for (ri, &rounds) in round_counts.iter().enumerate() {
        for t in 0..trials {
            for bit in [false, true] {
                cells.push((prepared_machine(t, bit, rounds), ri));
            }
        }
    }
    let results = if cells.is_empty() {
        Vec::new()
    } else {
        let progs: Vec<Program> = round_counts
            .iter()
            .map(|&rounds| {
                let mag = PlruMagnifier::with(cells[0].0.layout(), 5, rounds);
                mag.program(&cells[0].0, PlruInput::Reorder)
            })
            .collect();
        let lanes: Vec<(Machine, &Program)> =
            cells.into_iter().map(|(m, ri)| (m, &progs[ri])).collect();
        run_lanes(&lanes)
    };
    let cfg = CpuConfig::coffee_lake();
    let mut out = Vec::new();
    for &tname in timers {
        for (ri, &rounds) in round_counts.iter().enumerate() {
            let mut zeros = Vec::new();
            let mut ones = Vec::new();
            for t in 0..trials {
                let mut timer = build_timer(tname, 0xBEEF ^ (t as u64).wrapping_mul(0x9E37));
                for bit in [false, true] {
                    let idx = (ri * trials + t) * 2 + usize::from(bit);
                    // Exactly `run_timed` on a zero-clock machine.
                    let obs = timer.measure(0.0, cfg.cycles_to_ns(results[idx].cycles));
                    if bit {
                        ones.push(obs);
                    } else {
                        zeros.push(obs);
                    }
                }
            }
            out.push(score_cell(tname, rounds, trials, &zeros, &ones));
        }
    }
    out
}

/// The fresh noisy machine of a (trial, bit, rounds) cell, with the
/// Figure 3.1 set state prepared and the raced lines warmed in bit order.
/// Pokes only — the machine's clock stays at zero. The sweep reads only
/// cycle counts, so the core records no load events.
fn prepared_machine(t: usize, bit: bool, rounds: usize) -> Machine {
    let seed = t as u64 * 31 + u64::from(bit);
    let mut m = Machine::with(CpuConfig::coffee_lake(), Machine::noisy_hierarchy(seed));
    let mag = PlruMagnifier::with(m.layout(), 5, rounds);
    mag.prepare(&mut m);
    let (a, b) = (mag.line_a(&m), mag.line_b(&m));
    if bit {
        m.warm(a);
        m.warm(b);
    } else {
        m.warm(b);
        m.warm(a);
    }
    m
}

/// Fold one (timer, rounds) cell's observations into a point.
fn score_cell(
    tname: &str,
    rounds: usize,
    trials: usize,
    zeros: &[f64],
    ones: &[f64],
) -> MitigationPoint {
    MitigationPoint {
        timer: tname.to_string(),
        rounds,
        accuracy: stats::best_threshold(zeros, ones).1,
        trials,
    }
}

/// Render the sweep as a table (rows = timers, columns = round counts).
pub fn render(points: &[MitigationPoint], round_counts: &[usize]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("timer");
    for r in round_counts {
        let _ = write!(s, "\t{r} rounds");
    }
    s.push('\n');
    let mut timers: Vec<&str> = points.iter().map(|p| p.timer.as_str()).collect();
    timers.dedup();
    for t in timers {
        let _ = write!(s, "{t}");
        for r in round_counts {
            let p = points
                .iter()
                .find(|p| p.timer == t && p.rounds == *r)
                .expect("cell present");
            let _ = write!(s, "\t{:.2}", p.accuracy);
        }
        s.push('\n');
    }
    s
}

/// JSON form of the timer-model × round-count sweep.
pub fn to_value(points: &[MitigationPoint]) -> racer_results::Value {
    racer_results::Value::Array(
        points
            .iter()
            .map(|p| {
                racer_results::Value::object()
                    .with("timer", p.timer.as_str())
                    .with("rounds", p.rounds)
                    .with("accuracy", p.accuracy)
                    .with("trials", p.trials)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enough_rounds_defeat_every_finite_resolution() {
        // 100 µs resolution: 1500 rounds (~18 µs diff) fail, 20000 rounds
        // (~240 µs) succeed — coarsening only raises the bar, never closes.
        let pts = sweep(&["100us"], &[1_500, 20_000], 4);
        let low = pts.iter().find(|p| p.rounds == 1_500).unwrap();
        let high = pts.iter().find(|p| p.rounds == 20_000).unwrap();
        assert!(
            high.accuracy > low.accuracy || high.accuracy == 1.0,
            "more magnification must help: {low:?} vs {high:?}"
        );
        assert!(
            high.accuracy > 0.9,
            "20k rounds must defeat 100 µs: {:.2}",
            high.accuracy
        );
    }

    #[test]
    fn five_microsecond_variants_all_fall_to_moderate_rounds() {
        let pts = sweep(&["5us", "5us+jitter", "fuzzy-5us"], &[4_000], 4);
        for p in &pts {
            assert!(
                p.accuracy > 0.85,
                "{} should fall to 4000 rounds: accuracy {:.2}",
                p.timer,
                p.accuracy
            );
        }
    }

    #[test]
    fn render_has_all_cells() {
        let pts = sweep(&["5us"], &[500, 1000], 2);
        let s = render(&pts, &[500, 1000]);
        assert!(s.contains("5us") && s.contains("500 rounds"));
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_are_rejected() {
        let _ = sweep(&["5us"], &[500], 0);
    }

    /// The reference the batched sweep must reproduce: one fresh machine
    /// and one heavy magnifier run per (timer, rounds, trial, bit) cell.
    fn sweep_per_machine(
        timers: &[&str],
        round_counts: &[usize],
        trials: usize,
    ) -> Vec<MitigationPoint> {
        let mut out = Vec::new();
        for &tname in timers {
            for &rounds in round_counts {
                let mut zeros = Vec::new();
                let mut ones = Vec::new();
                for t in 0..trials {
                    let mut timer = build_timer(tname, 0xBEEF ^ (t as u64).wrapping_mul(0x9E37));
                    for bit in [false, true] {
                        let mut m = prepared_machine(t, bit, rounds);
                        let mag = PlruMagnifier::with(m.layout(), 5, rounds);
                        let prog = mag.program(&m, PlruInput::Reorder);
                        let start = m.elapsed_ns();
                        m.run(&prog);
                        let obs = timer.measure(start, m.elapsed_ns());
                        if bit {
                            ones.push(obs);
                        } else {
                            zeros.push(obs);
                        }
                    }
                }
                out.push(score_cell(tname, rounds, trials, &zeros, &ones));
            }
        }
        out
    }

    #[test]
    fn batched_and_per_machine_paths_agree_exactly() {
        let timers = ["5us", "5us+jitter", "fuzzy-5us"];
        let rounds = [400, 1000];
        let b = sweep(&timers, &rounds, 3);
        let p = sweep_per_machine(&timers, &rounds, 3);
        assert_eq!(b.len(), p.len());
        for (x, y) in b.iter().zip(&p) {
            assert_eq!(
                (x.timer.as_str(), x.rounds, x.trials),
                (y.timer.as_str(), y.rounds, y.trials)
            );
            assert_eq!(
                x.accuracy.to_bits(),
                y.accuracy.to_bits(),
                "cell ({}, {}) accuracies must be bit-identical",
                x.timer,
                x.rounds
            );
        }
    }

    #[test]
    fn sweep_lanes_record_no_load_events() {
        // The sweep reads only cycle counts; a paper-scale
        // lane would otherwise log six load events per round.
        let m = prepared_machine(0, true, 50);
        let prog = PlruMagnifier::with(m.layout(), 5, 50).program(&m, PlruInput::Reorder);
        let r = &run_lanes(&[(m, &prog)])[0];
        assert!(r.halted && r.committed > 300);
        assert!(r.loads.is_empty(), "{} load events kept", r.loads.len());
    }
}
