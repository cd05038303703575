//! Figure 10: execution-time distributions of the reorder magnifier after
//! its access pattern is repeated thousands of times, for transmit-0 vs
//! transmit-1 — "there is still almost no overlap between the two
//! transmissions".

use crate::experiments::run_lanes_batched;
use crate::machine::Machine;
use crate::magnify::{PlruInput, PlruMagnifier};
use racer_cpu::CpuConfig;
use racer_isa::Program;
use racer_time::stats::{best_threshold, overlap_coefficient, Summary};

/// The two sampled distributions plus separation metrics.
#[derive(Clone, Debug)]
pub struct DistributionResult {
    /// Observed milliseconds per transmit-1 trial (A inserted before B).
    pub transmit1_ms: Vec<f64>,
    /// Observed milliseconds per transmit-0 trial (B inserted before A).
    pub transmit0_ms: Vec<f64>,
    /// Histogram overlap coefficient in [0, 1].
    pub overlap: f64,
    /// Best-threshold classification accuracy in [0.5, 1].
    pub accuracy: f64,
}

/// Run `trials` reorder-magnifier transmissions per bit value on noisy
/// machines, with the magnifier pattern repeated `rounds` times (the paper
/// uses 4000).
///
/// The magnifier program depends only on rounds and L1 geometry —
/// identical across every noisy machine — so all trials×2 lanes share one
/// program (assembled once, carrying its µop table) and run as chunked
/// fork-engine lanes across host cores (`run_lanes_batched`). Lanes
/// record no load events: only cycle counts are read.
pub fn figure10(trials: usize, rounds: usize) -> DistributionResult {
    let mut transmit1_ms = Vec::with_capacity(trials);
    let mut transmit0_ms = Vec::with_capacity(trials);
    let mut machines = Vec::with_capacity(trials * 2);
    for t in 0..trials {
        for a_first in [true, false] {
            machines.push(prepared_machine(t, a_first, rounds));
        }
    }
    if let Some(first) = machines.first() {
        let prog =
            PlruMagnifier::with(first.layout(), 5, rounds).program(first, PlruInput::Reorder);
        let lanes: Vec<(Machine, &Program)> = machines.into_iter().map(|m| (m, &prog)).collect();
        for (i, r) in run_lanes_batched(&lanes).iter().enumerate() {
            let a_first = i % 2 == 0;
            push_ms(
                &mut transmit1_ms,
                &mut transmit0_ms,
                &lanes[i].0,
                a_first,
                r.cycles,
            );
        }
    }
    let overlap = overlap_coefficient(&transmit1_ms, &transmit0_ms, 40);
    let (_, accuracy) = best_threshold(&transmit0_ms, &transmit1_ms);
    DistributionResult {
        transmit1_ms,
        transmit0_ms,
        overlap,
        accuracy,
    }
}

/// Fresh noisy machine for a (trial, a_first) cell: DRAM jitter varies
/// run times. Figure 3.1 set state prepared, raced lines warmed in
/// transmit order; pokes only, so the clock stays at zero. The figure
/// reads only cycle counts, so the core records no load events.
fn prepared_machine(t: usize, a_first: bool, rounds: usize) -> Machine {
    let seed = 0xF1660 + t as u64 * 7 + u64::from(a_first);
    let mut m = Machine::with(CpuConfig::coffee_lake(), Machine::noisy_hierarchy(seed));
    let mag = PlruMagnifier::with(m.layout(), 5, rounds);
    mag.prepare(&mut m);
    let (a, b) = (mag.line_a(&m), mag.line_b(&m));
    if a_first {
        m.warm(a);
        m.warm(b);
    } else {
        m.warm(b);
        m.warm(a);
    }
    m
}

/// Record one cell's observation in milliseconds on the transmit-1 or
/// transmit-0 distribution.
fn push_ms(ones: &mut Vec<f64>, zeros: &mut Vec<f64>, m: &Machine, a_first: bool, cycles: u64) {
    let ms = m.cpu().config().cycles_to_ns(cycles) / 1e6;
    if a_first {
        ones.push(ms);
    } else {
        zeros.push(ms);
    }
}

impl DistributionResult {
    /// Summary statistics of both distributions.
    pub fn summaries(&self) -> (Summary, Summary) {
        (
            Summary::of(&self.transmit0_ms),
            Summary::of(&self.transmit1_ms),
        )
    }

    /// Plot-ready rendering: per-trial values then metrics.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("# transmit\tms\n");
        for v in &self.transmit0_ms {
            let _ = writeln!(s, "0\t{v:.4}");
        }
        for v in &self.transmit1_ms {
            let _ = writeln!(s, "1\t{v:.4}");
        }
        let (s0, s1) = self.summaries();
        let _ = writeln!(s, "# transmit0: {s0}");
        let _ = writeln!(s, "# transmit1: {s1}");
        let _ = writeln!(
            s,
            "# overlap={:.4} accuracy={:.4}",
            self.overlap, self.accuracy
        );
        s
    }
}

impl DistributionResult {
    /// JSON form: both sample vectors, separation metrics and summaries.
    pub fn to_value(&self) -> racer_results::Value {
        let (s0, s1) = self.summaries();
        racer_results::Value::object()
            .with("overlap", self.overlap)
            .with("accuracy", self.accuracy)
            .with("transmit0_summary", s0.to_value())
            .with("transmit1_summary", s1.to_value())
            .with("transmit0_ms", self.transmit0_ms.as_slice())
            .with("transmit1_ms", self.transmit1_ms.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_record_no_load_events() {
        let m = prepared_machine(0, true, 50);
        let prog = PlruMagnifier::with(m.layout(), 5, 50).program(&m, PlruInput::Reorder);
        let r = &run_lanes_batched(&[(m, &prog)])[0];
        assert!(r.halted && r.committed > 300);
        assert!(r.loads.is_empty(), "{} load events kept", r.loads.len());
    }

    #[test]
    fn transmissions_are_cleanly_separable() {
        let r = figure10(8, 400);
        assert_eq!(r.transmit0_ms.len(), 8);
        assert_eq!(r.transmit1_ms.len(), 8);
        assert!(
            r.overlap < 0.1,
            "Figure 10: almost no overlap between transmissions, got {:.3}",
            r.overlap
        );
        assert!(r.accuracy > 0.95, "accuracy {:.3}", r.accuracy);
    }

    #[test]
    fn transmit1_is_the_slow_distribution() {
        let r = figure10(4, 400);
        let (s0, s1) = r.summaries();
        assert!(
            s1.mean > s0.mean,
            "A-first (transmit 1) must run slower: {} vs {}",
            s1.mean,
            s0.mean
        );
    }

    #[test]
    fn render_contains_metrics() {
        let r = figure10(2, 100);
        assert!(r.render().contains("overlap="));
    }
}
