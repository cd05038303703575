//! Table scenarios: the §7.2 granularity summary and the §6.3.3 SEQ/PAR
//! eviction-probability grid.

use super::header;
use crate::error::LabError;
use crate::params::ParamSpec;
use crate::registry::{RunContext, Scenario, ScenarioOutput};
use hacky_racers::experiments::{granularity, par_seq};
use racer_results::Value;
use std::fmt::Write as _;

/// Both table scenarios.
pub fn all() -> Vec<Scenario> {
    vec![table_granularity(), table_par_seq()]
}

fn granularity_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let mut series = granularity::figure8(
        ctx.params.usize("fig8_max_target"),
        ctx.params.usize("fig8_step"),
        ctx.params.usize("fig8_max_ref"),
    );
    series.extend(granularity::figure9(
        ctx.params.usize("fig9_max_target"),
        ctx.params.usize("fig9_step"),
        ctx.params.usize("fig9_max_ref"),
    ));
    let table = granularity::granularity_table(&series);
    let mut text = header("§7.2 table", "racing-gadget granularity summary");
    let _ = writeln!(text, "{}", table.render());
    let _ = writeln!(
        text,
        "# paper: granularity 1-3 ops (ADD ref), 2-4 ops (MUL ref);"
    );
    let _ = writeln!(
        text,
        "# reach limited by the instruction window (~54 ADD-cycles / ~140 via MUL)."
    );
    Ok(ScenarioOutput {
        data: table.to_value(),
        text,
    })
}

fn table_granularity() -> Scenario {
    Scenario {
        name: "table_granularity",
        title: "§7.2 table",
        description: "slope, granularity and reach per (reference, target) operation pair",
        params: vec![
            ParamSpec::int("fig8_max_target", "Figure 8 largest target", 16, 35),
            ParamSpec::int("fig8_step", "Figure 8 target stride", 4, 1),
            ParamSpec::int("fig8_max_ref", "Figure 8 reference cap", 80, 80),
            ParamSpec::int("fig9_max_target", "Figure 9 largest target", 40, 145),
            ParamSpec::int("fig9_step", "Figure 9 target stride", 8, 4),
            ParamSpec::int("fig9_max_ref", "Figure 9 reference cap", 60, 60),
        ],
        seed: 0,
        run: granularity_run,
    }
}

fn par_seq_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let (ways, trials) = (ctx.params.usize("ways"), ctx.params.usize("trials"));
    let points = par_seq::par_seq_table(ways, trials);
    let mut text = header(
        "§6.3.3 table",
        "SEQ/PAR eviction probability (8-way random set)",
    );
    let _ = writeln!(text, "{}", par_seq::render(&points));
    let _ = writeln!(
        text,
        "# paper: SEQ=6, PAR=5 gives >=1 miss with ~96% probability."
    );
    Ok(ScenarioOutput {
        data: Value::object().with("points", par_seq::to_value(&points)),
        text,
    })
}

fn table_par_seq() -> Scenario {
    Scenario {
        name: "table_par_seq",
        title: "§6.3.3 table",
        description: "probability that filling PAR_i evicts a SEQ_i member, per size pair",
        params: vec![
            ParamSpec::int("ways", "set associativity", 8, 8),
            ParamSpec::int("trials", "Monte-Carlo trials per cell", 2_000, 50_000),
        ],
        seed: 0,
        run: par_seq_run,
    }
}
