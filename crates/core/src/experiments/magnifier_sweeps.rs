//! Figures 11 and 12: magnified timing difference as a function of repeat
//! count, for the arbitrary-replacement magnifier (§6.3, with cache-set
//! reuse via prefetching) and the arithmetic-operation-only magnifier
//! (§6.4, saturating at the timer-interrupt interval).

use crate::layout::Layout;
use crate::machine::Machine;
use crate::magnify::{ArbitraryReplacementMagnifier, ArithmeticMagnifier};
use racer_cpu::CpuConfig;
use racer_mem::HierarchyConfig;

/// One (repeat count, timing difference) point.
#[derive(Copy, Clone, Debug)]
pub struct SweepPoint {
    /// Repeat count (x-axis).
    pub repeats: usize,
    /// Magnified timing difference in microseconds (y-axis).
    pub diff_us: f64,
}

/// A sweep series with rendering helpers.
#[derive(Clone, Debug)]
pub struct SweepSeries {
    /// Series label.
    pub label: String,
    /// Measured points.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// Tab-separated rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("# {}\n# repeats\tdiff_us\n", self.label);
        for p in &self.points {
            let _ = writeln!(s, "{}\t{:.3}", p.repeats, p.diff_us);
        }
        s
    }

    /// Largest measured difference.
    pub fn max_diff_us(&self) -> f64 {
        self.points.iter().map(|p| p.diff_us).fold(0.0, f64::max)
    }

    /// Whether the series grows essentially monotonically (allowing
    /// `tolerance_us` of backsliding).
    pub fn is_monotone_within(&self, tolerance_us: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].diff_us >= w[0].diff_us - tolerance_us)
    }
}

/// Figure 11: arbitrary-replacement magnifier difference vs repeats, with
/// prefetching (unbounded) and without (capped by the set count).
///
/// Three series:
///
/// * `fifo-with-prefetch` — the chain reaction in its cleanest form: linear,
///   unbounded growth (the paper's Figure 11 shape);
/// * `random-with-prefetch` — the paper's demonstration policy. In this
///   *deterministic* simulator, random-replacement churn drives both the
///   aligned and misaligned runs to similar equilibria, so growth saturates
///   after tens of repeats (on real hardware, ambient noise keeps
///   re-seeding the misalignment);
/// * `random-no-prefetch` — the §6.3.1 cap: bounded by the set count.
pub fn figure11(repeat_points: &[usize], delay: usize) -> Vec<SweepSeries> {
    use racer_cpu::CpuConfig;
    use racer_mem::{CacheConfig, ReplacementKind};
    let machine = |kind: ReplacementKind, seed: u64| {
        let mut hier = HierarchyConfig::coffee_lake();
        hier.l1d = CacheConfig {
            sets: 64,
            ways: 8,
            replacement: kind,
            seed,
            ..CacheConfig::l1d_coffee_lake()
        };
        Machine::with(CpuConfig::coffee_lake().with_load_recording(), hier)
    };
    // Each point runs on a fresh machine, so the sweep parallelizes across
    // host cores with bit-identical results (see `racer_cpu::batch`).
    // Deliberately *not* snapshot-cached: every point's hierarchy has a
    // distinct replacement seed (`0x5EED + repeats`), so no two points
    // could ever share a cache entry.
    let run = |kind: ReplacementKind, prefetch: usize, label: &str| {
        let points = racer_cpu::batch::par_map(repeat_points, |&repeats| {
            let mut mag = ArbitraryReplacementMagnifier::new(Layout::default());
            mag.repeats = repeats;
            mag.prefetch_dist = prefetch;
            let mut m = machine(kind, 0x5EED + repeats as u64);
            let amp = mag.amplification(&mut m, delay).max(0);
            SweepPoint {
                repeats,
                diff_us: amp as f64 * 0.5 / 1000.0,
            }
        });
        SweepSeries {
            label: label.to_string(),
            points,
        }
    };
    vec![
        run(ReplacementKind::Fifo, 22, "fifo-with-prefetch"),
        run(ReplacementKind::Random, 22, "random-with-prefetch"),
        run(ReplacementKind::Random, 0, "random-no-prefetch"),
    ]
}

/// Figure 12: arithmetic-only magnifier difference vs repeats, with the
/// timer-interrupt drain bounding the accumulation.
///
/// `interrupt_cycles` models the OS tick (the paper's machine: 4 ms; pass a
/// scaled value so saturation lands inside the swept range).
pub fn figure12(
    repeat_points: &[usize],
    delay: usize,
    interrupt_cycles: Option<u64>,
) -> SweepSeries {
    // Independent per-stage machines: fan out across host cores. Every
    // point shares one (config, hierarchy) pair, so the machines fork
    // the process-wide snapshot cache — built once, bit-identical to
    // from-scratch construction.
    let points = racer_cpu::batch::par_map(repeat_points, |&stages| {
        let mut cfg = CpuConfig::coffee_lake();
        cfg.interrupt_interval = interrupt_cycles;
        let mut m = Machine::with_cached(cfg, HierarchyConfig::small_plru());
        let mut mag = ArithmeticMagnifier::new(Layout::default());
        mag.stages = stages;
        let amp = mag.amplification(&mut m, delay).max(0);
        SweepPoint {
            repeats: stages,
            diff_us: amp as f64 * 0.5 / 1000.0,
        }
    });
    SweepSeries {
        label: format!(
            "arithmetic-magnifier interrupts={}",
            interrupt_cycles.map_or("off".into(), |v| v.to_string())
        ),
        points,
    }
}

impl SweepPoint {
    /// JSON form: `{"repeats": N, "diff_us": F}`.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("repeats", self.repeats)
            .with("diff_us", self.diff_us)
    }
}

impl SweepSeries {
    /// JSON form: label, peak separation and the sweep points.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("label", self.label.as_str())
            .with("max_diff_us", self.max_diff_us())
            .with(
                "points",
                racer_results::Value::Array(self.points.iter().map(|p| p.to_value()).collect()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_prefetch_series_outgrows_capped_series() {
        let series = figure11(&[2, 6, 12], 30);
        let find = |label: &str| series.iter().find(|s| s.label == label).unwrap();
        let fifo = find("fifo-with-prefetch");
        let random = find("random-with-prefetch");
        let capped = find("random-no-prefetch");
        assert!(
            random.max_diff_us() > capped.max_diff_us(),
            "prefetching must lift the cap: {:.2} vs {:.2}",
            random.max_diff_us(),
            capped.max_diff_us()
        );
        assert!(
            fifo.points.last().unwrap().diff_us > fifo.points.first().unwrap().diff_us * 2.0,
            "FIFO difference must grow steeply with repeats: {fifo:?}"
        );
    }

    #[test]
    fn figure11_fifo_growth_is_linear() {
        let series = figure11(&[10, 40], 30);
        let fifo = series
            .iter()
            .find(|s| s.label == "fifo-with-prefetch")
            .unwrap();
        let ratio = fifo.points[1].diff_us / fifo.points[0].diff_us.max(1e-9);
        assert!(
            (3.0..=5.0).contains(&ratio),
            "4× repeats should give ~4× difference (paper's linear Figure 11): {ratio:.2}"
        );
    }

    #[test]
    fn figure12_growth_saturates_under_interrupts() {
        let free = figure12(&[40, 160], 20, None);
        let bounded = figure12(&[40, 160], 20, Some(6_000));
        let free_growth = free.points[1].diff_us - free.points[0].diff_us;
        let bounded_growth = bounded.points[1].diff_us - bounded.points[0].diff_us;
        assert!(
            free_growth > bounded_growth,
            "interrupts must slow the growth: free {free_growth:.2} vs bounded {bounded_growth:.2}"
        );
        assert!(
            free.points[1].diff_us > 1.0,
            "free accumulation should exceed 1 µs"
        );
    }

    #[test]
    fn render_is_plot_ready() {
        let s = figure12(&[20], 20, None);
        assert!(s.render().contains("repeats\tdiff_us"));
    }
}
