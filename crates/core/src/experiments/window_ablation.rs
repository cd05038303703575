//! Window-size ablation: the §7.2 claim that the instruction window bounds
//! the racing gadget's measurable range ("the ROB capacity limits the
//! length of the ref path to 54, which in turn limits the largest execution
//! time that we can time").
//!
//! Sweeping the scheduler capacity shows the measurement reach scaling with
//! it — the gadget's reach is a *hardware window* property, not a gadget
//! property.

use crate::attacks::IlpTimer;
use crate::layout::Layout;
use crate::machine::Machine;
use crate::path::PathSpec;
use racer_cpu::CpuConfig;
use racer_isa::AluOp;
use racer_mem::HierarchyConfig;

/// Measured reach for one scheduler size.
#[derive(Copy, Clone, Debug)]
pub struct WindowPoint {
    /// Scheduler (reservation-station) capacity.
    pub rs_size: usize,
    /// Largest ADD-chain target still measurable (ops).
    pub reach: usize,
}

/// For each scheduler size, find the largest ADD-chain target the ADD-ref
/// racing gadget can still time.
pub fn window_sweep(rs_sizes: &[usize], max_probe: usize) -> Vec<WindowPoint> {
    rs_sizes
        .iter()
        .map(|&rs_size| {
            let mut cpu_cfg = CpuConfig::coffee_lake().with_load_recording();
            cpu_cfg.rs_size = rs_size;
            let timer = IlpTimer::new(Layout::default());
            // A target is measurable iff some in-window reference outlasts
            // it; find the largest measurable length by scanning.
            let mut reach = 0;
            for target_len in (4..=max_probe).step_by(4) {
                let mut m = Machine::with(cpu_cfg, HierarchyConfig::small_plru());
                let target = PathSpec::op_chain(AluOp::Add, target_len);
                if timer.measure_ref_ops(&mut m, &target).is_some() {
                    reach = target_len;
                } else {
                    break;
                }
            }
            WindowPoint { rs_size, reach }
        })
        .collect()
}

/// Render the sweep.
pub fn render(points: &[WindowPoint]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("rs_size\treach (add ops)\n");
    for p in points {
        let _ = writeln!(s, "{}\t{}", p.rs_size, p.reach);
    }
    s
}

/// JSON form of the window sweep.
pub fn to_value(points: &[WindowPoint]) -> racer_results::Value {
    racer_results::Value::Array(
        points
            .iter()
            .map(|p| {
                racer_results::Value::object()
                    .with("rs_size", p.rs_size)
                    .with("reach", p.reach)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_scales_with_the_window() {
        let pts = window_sweep(&[32, 60, 120], 120);
        assert!(
            pts[0].reach < pts[1].reach && pts[1].reach < pts[2].reach,
            "a larger scheduler must extend the measurable range: {pts:?}"
        );
    }

    #[test]
    fn reach_is_a_sizable_fraction_of_the_window() {
        let pts = window_sweep(&[60], 120);
        let p = pts[0];
        // The reference, target and gadget overhead share the window; the
        // reach lands between a third and the whole of it.
        assert!(
            p.reach >= p.rs_size / 3 && p.reach <= p.rs_size,
            "reach {} vs window {}",
            p.reach,
            p.rs_size
        );
    }
}
