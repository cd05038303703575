//! Figure scenarios: 7 (repetition stacks), 8–9 (granularity), 10
//! (reorder distributions), 11–12 (magnifier sweeps).

use super::header;
use crate::error::LabError;
use crate::params::ParamSpec;
use crate::registry::{RunContext, Scenario, ScenarioOutput};
use hacky_racers::experiments::{distribution, granularity, magnifier_sweeps, repetition_figure};
use racer_results::Value;
use racer_time::Histogram;
use std::fmt::Write as _;

/// All figure scenarios in figure order.
pub fn all() -> Vec<Scenario> {
    vec![
        fig07_repetition(),
        fig08_granularity_add(),
        fig09_granularity_mul(),
        fig10_reorder_distribution(),
        fig11_arbitrary_replacement(),
        fig12_arithmetic(),
    ]
}

fn fig07_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let iterations = ctx.params.usize("iterations");
    let mut text = header(
        "Figure 7",
        "repetition gadgets need racing gadgets to show a difference",
    );
    let mut data = Value::object();
    for racing in [false, true] {
        let fig = repetition_figure::figure7(racing, iterations);
        let _ = write!(text, "\n{}", fig.render());
        data.insert(if racing { "racing" } else { "bare" }, fig.to_value());
    }
    Ok(ScenarioOutput { data, text })
}

fn fig07_repetition() -> Scenario {
    Scenario {
        name: "fig07_repetition",
        title: "Figure 7",
        description: "repetition-gadget stage-time stacks, bare (7a) and raced (7b)",
        params: vec![ParamSpec::int(
            "iterations",
            "repetition-gadget iterations",
            30,
            200,
        )],
        seed: 0,
        run: fig07_run,
    }
}

/// Shared body of the two granularity figures.
fn granularity_output(
    figure: fn(usize, usize, usize) -> Vec<granularity::GranularitySeries>,
    ctx: &RunContext,
    head: String,
) -> Result<ScenarioOutput, LabError> {
    let series = figure(
        ctx.params.usize("max_target"),
        ctx.params.usize("step"),
        ctx.params.usize("max_ref"),
    );
    let mut text = head;
    for s in &series {
        let _ = writeln!(text, "{}", s.render());
    }
    let data = Value::object().with(
        "series",
        Value::Array(series.iter().map(|s| s.to_value()).collect()),
    );
    Ok(ScenarioOutput { data, text })
}

fn fig08_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    granularity_output(
        granularity::figure8,
        ctx,
        header("Figure 8", "targets (add, mul, leal) vs ADD reference path"),
    )
}

fn fig08_granularity_add() -> Scenario {
    Scenario {
        name: "fig08_granularity_add",
        title: "Figure 8",
        description: "racing-gadget granularity: targets vs an ADD reference path",
        params: vec![
            ParamSpec::int("max_target", "largest target-path length", 16, 35),
            ParamSpec::int("step", "target-length stride", 4, 1),
            ParamSpec::int("max_ref", "reference-path cap (ops)", 80, 80),
        ],
        seed: 0,
        run: fig08_run,
    }
}

fn fig09_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    granularity_output(
        granularity::figure9,
        ctx,
        header("Figure 9", "targets (add, div) vs MUL reference path"),
    )
}

fn fig09_granularity_mul() -> Scenario {
    Scenario {
        name: "fig09_granularity_mul",
        title: "Figure 9",
        description: "racing-gadget granularity: targets vs a MUL reference path",
        params: vec![
            ParamSpec::int("max_target", "largest target-path length", 40, 145),
            ParamSpec::int("step", "target-length stride", 8, 4),
            ParamSpec::int("max_ref", "reference-path cap (ops)", 60, 60),
        ],
        seed: 0,
        run: fig09_run,
    }
}

fn fig10_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let (trials, rounds) = (ctx.params.usize("trials"), ctx.params.usize("rounds"));
    let r = distribution::figure10(trials, rounds);
    let mut text = header(
        "Figure 10",
        "reorder-magnifier distributions (transmit 0 vs 1)",
    );
    let _ = writeln!(text, "{}", r.render());

    // ASCII histograms like the figure.
    let lo = r
        .transmit0_ms
        .iter()
        .chain(&r.transmit1_ms)
        .fold(f64::INFINITY, |a, &b| a.min(b));
    let hi = r
        .transmit0_ms
        .iter()
        .chain(&r.transmit1_ms)
        .fold(0.0f64, |a, &b| a.max(b));
    let width = ((hi - lo) / 20.0).max(1e-6);
    let _ = writeln!(text, "\n# transmit 0 histogram (ms):");
    let _ = writeln!(
        text,
        "{}",
        Histogram::from_samples(&r.transmit0_ms, lo, width, 20).render(40)
    );
    let _ = writeln!(text, "# transmit 1 histogram (ms):");
    let _ = writeln!(
        text,
        "{}",
        Histogram::from_samples(&r.transmit1_ms, lo, width, 20).render(40)
    );

    Ok(ScenarioOutput {
        data: r.to_value(),
        text,
    })
}

fn fig10_reorder_distribution() -> Scenario {
    Scenario {
        name: "fig10_reorder_distribution",
        title: "Figure 10",
        description: "reorder-magnifier execution-time distributions, transmit 0 vs 1",
        params: vec![
            ParamSpec::int("trials", "transmissions sampled per bit value", 10, 60),
            ParamSpec::int("rounds", "magnifier pattern repetitions", 800, 4000),
        ],
        seed: 0,
        run: fig10_run,
    }
}

fn fig11_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let points = ctx.params.usize_list("points");
    let delay = ctx.params.usize("delay");
    let series = magnifier_sweeps::figure11(&points, delay);
    let mut text = header(
        "Figure 11",
        "arbitrary-replacement magnifier sweep (random L1)",
    );
    for s in &series {
        let _ = writeln!(text, "{}", s.render());
    }
    let data = Value::object().with(
        "series",
        Value::Array(series.iter().map(|s| s.to_value()).collect()),
    );
    Ok(ScenarioOutput { data, text })
}

fn fig11_arbitrary_replacement() -> Scenario {
    Scenario {
        name: "fig11_arbitrary_replacement",
        title: "Figure 11",
        description: "arbitrary-replacement magnifier growth vs pattern repeats",
        params: vec![
            ParamSpec::int_list(
                "points",
                "repeat counts to sweep",
                &[2, 4, 8, 12, 16],
                &[25, 50, 100, 200, 300, 400, 500, 600, 700, 800],
            ),
            ParamSpec::int("delay", "target delay (cycles) being magnified", 30, 30),
        ],
        seed: 0,
        run: fig11_run,
    }
}

fn fig12_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let points = ctx.params.usize_list("points");
    let delay = ctx.params.usize("delay");
    let interrupt = match ctx.params.u64("interrupt_cycles") {
        0 => None,
        v => Some(v),
    };
    let mut text = header(
        "Figure 12",
        "arithmetic-only magnifier sweep (with interrupt bound)",
    );
    let bounded = magnifier_sweeps::figure12(&points, delay, interrupt);
    let _ = writeln!(text, "{}", bounded.render());
    let _ = writeln!(text, "# unbounded reference:");
    let small: Vec<usize> = points.iter().copied().take(4).collect();
    let unbounded = magnifier_sweeps::figure12(&small, delay, None);
    let _ = writeln!(text, "{}", unbounded.render());
    let data = Value::object()
        .with("bounded", bounded.to_value())
        .with("unbounded_reference", unbounded.to_value());
    Ok(ScenarioOutput { data, text })
}

fn fig12_arithmetic() -> Scenario {
    Scenario {
        name: "fig12_arithmetic",
        title: "Figure 12",
        description: "arithmetic-magnifier growth, saturated by the timer-interrupt drain",
        params: vec![
            ParamSpec::int_list(
                "points",
                "stage counts to sweep",
                &[25, 50, 100, 200],
                &[100, 250, 500, 1000, 2500, 5000, 7500, 10000, 15000, 20000],
            ),
            ParamSpec::int("delay", "target delay (cycles) being magnified", 20, 20),
            // Scaled so saturation lands inside the sweep, as the paper's
            // 4 ms tick does for its 15000-repeat knee. 0 disables.
            ParamSpec::int(
                "interrupt_cycles",
                "interrupt interval (0 = off)",
                20_000,
                2_000_000,
            ),
        ],
        seed: 0,
        run: fig12_run,
    }
}
