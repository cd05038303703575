//! Racing-gadget granularity (paper §7.2, Figures 8 and 9).
//!
//! For target paths of `n` chained operations, find the minimal reference
//! length that still out-lasts the target. The resulting staircase's slope
//! is the latency ratio between target and reference ops, its step width is
//! the gadget's granularity, and its plateau is the measurement-window
//! limit.

use crate::attacks::IlpTimer;
use crate::layout::Layout;
use crate::machine::Machine;
use crate::path::PathSpec;
use racer_isa::AluOp;

/// One measured point of Figures 8/9.
#[derive(Copy, Clone, Debug)]
pub struct GranularityPoint {
    /// Target-path operation count (x-axis).
    pub target_ops: usize,
    /// Minimal reference ops out-lasting the target (y-axis), or `None`
    /// past the window limit.
    pub ref_ops: Option<usize>,
}

/// One measured series (one line of Figure 8 or 9).
#[derive(Clone, Debug)]
pub struct GranularitySeries {
    /// Target operation kind (`add`, `mul`, `leal`, `div`).
    pub target_op: String,
    /// Reference operation kind.
    pub ref_op: String,
    /// Measured points.
    pub points: Vec<GranularityPoint>,
}

impl GranularitySeries {
    /// Estimated slope (reference ops per target op) from the first and
    /// last in-window points.
    pub fn slope(&self) -> Option<f64> {
        let valid: Vec<&GranularityPoint> =
            self.points.iter().filter(|p| p.ref_ops.is_some()).collect();
        let (first, last) = (valid.first()?, valid.last()?);
        if last.target_ops == first.target_ops {
            return None;
        }
        Some(
            (last.ref_ops.unwrap() as f64 - first.ref_ops.unwrap() as f64)
                / (last.target_ops as f64 - first.target_ops as f64),
        )
    }

    /// Granularity: the longest run of consecutive points with identical
    /// `ref_ops` ("the maximum consecutive points whose Y value stays
    /// unchanged", §7.2).
    pub fn granularity(&self) -> usize {
        let mut best = 1usize;
        let mut run = 1usize;
        for w in self.points.windows(2) {
            if w[0].ref_ops.is_some() && w[0].ref_ops == w[1].ref_ops {
                run += 1;
                best = best.max(run);
            } else {
                run = 1;
            }
        }
        best
    }

    /// Largest in-window target length (the measurement-reach limit).
    pub fn max_measurable_target(&self) -> Option<usize> {
        self.points
            .iter()
            .filter(|p| p.ref_ops.is_some())
            .map(|p| p.target_ops)
            .max()
    }

    /// Tab-separated rendering (x, y per line; `-` past the window).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("# target={} ref={}\n", self.target_op, self.ref_op);
        for p in &self.points {
            match p.ref_ops {
                Some(r) => {
                    let _ = writeln!(s, "{}\t{}", p.target_ops, r);
                }
                None => {
                    let _ = writeln!(s, "{}\t-", p.target_ops);
                }
            }
        }
        s
    }
}

fn op_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Mul => "mul",
        AluOp::Div => "div",
        _ => "other",
    }
}

/// Measure one series: targets of `op` (or `lea` when `lea` is true) with
/// lengths `targets`, against references chained from `ref_op`.
///
/// Every point is an independent measurement on a fresh [`Machine`], so the
/// sweep fans out across host cores via [`racer_cpu::batch::par_map`] —
/// results are bit-identical to the sequential loop, just wall-clock
/// faster. The binary search inside `measure_ref_ops` stays serial per
/// point because each probe length depends on the previous probe's
/// outcome.
pub fn measure_series(
    ref_op: AluOp,
    target_op: Option<AluOp>, // None = lea
    targets: &[usize],
    max_ref: usize,
) -> GranularitySeries {
    let mut timer = IlpTimer::new(Layout::default()).with_ref_op(ref_op);
    timer.max_ref_ops = max_ref;
    let points = racer_cpu::batch::par_map(targets, |&n| {
        let mut m = Machine::baseline();
        let target = match target_op {
            Some(op) => PathSpec::op_chain(op, n),
            None => PathSpec::lea_chain(n),
        };
        GranularityPoint {
            target_ops: n,
            ref_ops: timer.measure_ref_ops(&mut m, &target),
        }
    });
    GranularitySeries {
        target_op: target_op.map_or("leal", op_name).to_string(),
        ref_op: op_name(ref_op).to_string(),
        points,
    }
}

/// Figure 8: ADD-referenced measurements of `add`, `mul` and `leal`
/// targets.
pub fn figure8(max_target: usize, step: usize, max_ref: usize) -> Vec<GranularitySeries> {
    let targets: Vec<usize> = (1..=max_target).step_by(step).collect();
    vec![
        measure_series(AluOp::Add, Some(AluOp::Add), &targets, max_ref),
        measure_series(AluOp::Add, Some(AluOp::Mul), &targets, max_ref),
        measure_series(AluOp::Add, None, &targets, max_ref),
    ]
}

/// Figure 9: MUL-referenced measurements of `add` and `div` targets.
pub fn figure9(max_target: usize, step: usize, max_ref: usize) -> Vec<GranularitySeries> {
    let add_targets: Vec<usize> = (2..=max_target).step_by(step).collect();
    let div_targets: Vec<usize> = (1..=max_target / 4).step_by(step.max(1)).collect();
    vec![
        measure_series(AluOp::Mul, Some(AluOp::Add), &add_targets, max_ref),
        measure_series(AluOp::Mul, Some(AluOp::Div), &div_targets, max_ref),
    ]
}

/// The §7.2 summary table: per (ref, target) pair, slope, granularity and
/// measurement reach.
#[derive(Clone, Debug)]
pub struct GranularityTable {
    /// One row per measured series.
    pub rows: Vec<GranularityTableRow>,
}

/// One row of [`GranularityTable`].
#[derive(Clone, Debug)]
pub struct GranularityTableRow {
    /// Reference op.
    pub ref_op: String,
    /// Target op.
    pub target_op: String,
    /// Staircase slope (ref ops per target op).
    pub slope: Option<f64>,
    /// Indistinguishable-run length in target ops.
    pub granularity: usize,
    /// Largest measurable target length.
    pub reach: Option<usize>,
}

/// Build the §7.2 summary from Figure 8/9-style sweeps.
pub fn granularity_table(series: &[GranularitySeries]) -> GranularityTable {
    GranularityTable {
        rows: series
            .iter()
            .map(|s| GranularityTableRow {
                ref_op: s.ref_op.clone(),
                target_op: s.target_op.clone(),
                slope: s.slope(),
                granularity: s.granularity(),
                reach: s.max_measurable_target(),
            })
            .collect(),
    }
}

impl GranularityTable {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("ref\ttarget\tslope\tgranularity\treach\n");
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{}\t{}\t{}\t{}\t{}",
                r.ref_op,
                r.target_op,
                r.slope.map_or("-".into(), |v| format!("{v:.2}")),
                r.granularity,
                r.reach.map_or("-".into(), |v| v.to_string()),
            );
        }
        s
    }
}

impl GranularityPoint {
    /// JSON form: `{"target_ops": N, "ref_ops": N|null}`.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("target_ops", self.target_ops)
            .with("ref_ops", self.ref_ops)
    }
}

impl GranularitySeries {
    /// JSON form: series identity, derived §7.2 metrics, then the points.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("target_op", self.target_op.as_str())
            .with("ref_op", self.ref_op.as_str())
            .with("slope", self.slope())
            .with("granularity", self.granularity())
            .with("reach", self.max_measurable_target())
            .with(
                "points",
                racer_results::Value::Array(self.points.iter().map(|p| p.to_value()).collect()),
            )
    }
}

impl GranularityTableRow {
    /// JSON form of one summary row.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object()
            .with("ref_op", self.ref_op.as_str())
            .with("target_op", self.target_op.as_str())
            .with("slope", self.slope)
            .with("granularity", self.granularity)
            .with("reach", self.reach)
    }
}

impl GranularityTable {
    /// JSON form: `{"rows": [...]}`.
    pub fn to_value(&self) -> racer_results::Value {
        racer_results::Value::object().with(
            "rows",
            racer_results::Value::Array(self.rows.iter().map(|r| r.to_value()).collect()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_series_has_unit_slope_and_fine_granularity() {
        let s = measure_series(AluOp::Add, Some(AluOp::Add), &[4, 8, 12, 16, 20, 24], 70);
        let slope = s.slope().expect("in window");
        assert!(
            (0.8..=1.3).contains(&slope),
            "ADD-vs-ADD slope should be ~1, got {slope:.2}"
        );
        assert!(
            s.granularity() <= 3,
            "granularity 1–3 ops (paper): {}",
            s.granularity()
        );
    }

    #[test]
    fn mul_series_slope_is_latency_ratio() {
        let s = measure_series(AluOp::Add, Some(AluOp::Mul), &[2, 4, 6, 8, 10], 70);
        let slope = s.slope().expect("in window");
        assert!(
            (2.5..=3.5).contains(&slope),
            "MUL targets cost 3 cycles each: slope {slope:.2}"
        );
    }

    #[test]
    fn div_measured_by_mul_reference() {
        let s = measure_series(AluOp::Mul, Some(AluOp::Div), &[1, 2, 3, 4], 70);
        let slope = s.slope().expect("in window");
        // DIV ≈ 14 cycles, MUL = 3: ratio ≈ 4.7 ("around 4 times", §7.2).
        assert!(
            (4.0..=5.5).contains(&slope),
            "DIV/MUL slope should be ~4.7, got {slope:.2}"
        );
    }

    #[test]
    fn window_limit_caps_the_reach() {
        // With a 40-op reference cap, long targets become unmeasurable.
        let s = measure_series(AluOp::Add, Some(AluOp::Add), &[10, 30, 60, 90], 40);
        assert!(s.points[0].ref_ops.is_some());
        assert!(
            s.points[3].ref_ops.is_none(),
            "90 adds cannot fit a 40-add window"
        );
        assert!(s.max_measurable_target().unwrap() < 90);
    }

    #[test]
    fn table_summarizes_series() {
        let series = vec![measure_series(
            AluOp::Add,
            Some(AluOp::Add),
            &[4, 8, 12],
            70,
        )];
        let table = granularity_table(&series);
        assert_eq!(table.rows.len(), 1);
        assert!(table.render().contains("add"));
    }

    #[test]
    fn series_render_is_plot_ready() {
        let s = measure_series(AluOp::Add, Some(AluOp::Add), &[4, 8], 70);
        let r = s.render();
        assert!(r.starts_with("# target=add ref=add"));
        assert_eq!(r.lines().count(), 3);
    }
}
