//! Evaluation scenarios: §7.3 SpectreBack, §7.4 eviction sets, the §8
//! countermeasure and detection studies, and the extension sweeps
//! (noise sensitivity, timer mitigations, window ablation).

use super::header;
use crate::error::LabError;
use crate::params::ParamSpec;
use crate::registry::{RunContext, Scenario, ScenarioOutput};
use hacky_racers::experiments::{
    countermeasures, detection, ev_eval, noise_sensitivity, spectre_eval, timer_mitigations,
    window_ablation,
};
use racer_results::Value;
use std::fmt::Write as _;

/// All evaluation scenarios.
pub fn all() -> Vec<Scenario> {
    vec![
        spectre_back_eval(),
        eviction_set_eval(),
        countermeasures_eval(),
        detection_eval(),
        noise_sensitivity_eval(),
        timer_mitigations_eval(),
        window_ablation_eval(),
    ]
}

fn spectre_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let secret = ctx.params.str("secret").as_bytes().to_vec();
    let resolution = ctx.params.f64("timer_resolution_ns");
    let eval = spectre_eval::evaluate(&secret, resolution, ctx.seed);
    let mut text = header(
        "§7.3",
        "SpectreBack leak rate and accuracy (5 µs timer, DRAM jitter)",
    );
    let _ = writeln!(text, "{}", spectre_eval::render(&eval));
    let _ = writeln!(text, "# paper: 4.3 kbit/s at >88% accuracy in Chrome 88.");
    let _ = writeln!(
        text,
        "# (simulation has no JS/browser overhead, so the rate runs higher;"
    );
    let _ = writeln!(
        text,
        "#  the shape — kbit/s-scale with high accuracy — is what reproduces.)"
    );
    Ok(ScenarioOutput {
        data: eval.to_value(),
        text,
    })
}

fn spectre_back_eval() -> Scenario {
    Scenario {
        name: "spectre_back_eval",
        title: "§7.3",
        description: "SpectreBack leak rate and accuracy through a coarse browser timer",
        params: vec![
            ParamSpec::str(
                "secret",
                "secret bytes to leak",
                "ASPLOS",
                "Hacky Racers leak secrets backwards in time!",
            ),
            ParamSpec::float(
                "timer_resolution_ns",
                "browser timer resolution",
                5_000.0,
                5_000.0,
            ),
        ],
        seed: 0xD00D,
        run: spectre_run,
    }
}

fn ev_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let (trials, pool_pages) = (ctx.params.usize("trials"), ctx.params.usize("pool_pages"));
    let eval = ev_eval::evaluate(trials, pool_pages);
    let mut text = header("§7.4", "LLC eviction-set generation success rate");
    let _ = writeln!(text, "{}", ev_eval::render(&eval));
    let _ = writeln!(
        text,
        "# paper: 100% success after replacing the SharedArrayBuffer timer."
    );
    Ok(ScenarioOutput {
        data: eval.to_value(),
        text,
    })
}

fn eviction_set_eval() -> Scenario {
    Scenario {
        name: "eviction_set_eval",
        title: "§7.4",
        description: "eviction-set profiling success rate with the Hacky-Racers timer",
        params: vec![
            ParamSpec::int("trials", "profiling attempts", 3, 12),
            ParamSpec::int("pool_pages", "candidate pool size (pages)", 48, 48),
        ],
        seed: 0,
        run: ev_run,
    }
}

fn countermeasures_run(_ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let rows = countermeasures::countermeasure_matrix();
    let mut text = header("§8", "countermeasure matrix: gadget vs defence");
    let _ = writeln!(text, "{}", countermeasures::render(&rows));
    let _ = writeln!(
        text,
        "# paper: Spectre-class defences stop transient P/A races only;"
    );
    let _ = writeln!(
        text,
        "# the branch-free reorder race requires actual in-order execution."
    );
    Ok(ScenarioOutput {
        data: Value::object().with("matrix", countermeasures::to_value(&rows)),
        text,
    })
}

fn countermeasures_eval() -> Scenario {
    Scenario {
        name: "countermeasures_eval",
        title: "§8",
        description: "which racing gadgets survive which hardware defences",
        params: Vec::new(),
        seed: 0,
        run: countermeasures_run,
    }
}

fn detection_run(_ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let profiles = detection::profile_suite();
    let mut text = header(
        "§8 detection",
        "hardware-counter profiles: gadgets vs benign workloads",
    );
    let _ = writeln!(text, "{}", detection::render(&profiles));
    let _ = writeln!(
        text,
        "# paper: the L1-miss counter sees the PLRU magnifier but is a weak"
    );
    let _ = writeln!(
        text,
        "# classifier (benign pointer chasing trips it too); the arithmetic"
    );
    let _ = writeln!(
        text,
        "# gadget has no cache signature and needs a backend-bound detector."
    );
    Ok(ScenarioOutput {
        data: Value::object().with("profiles", detection::to_value(&profiles)),
        text,
    })
}

fn detection_eval() -> Scenario {
    Scenario {
        name: "detection_eval",
        title: "§8 detection",
        description: "performance-counter profiles of gadget vs benign workloads",
        params: Vec::new(),
        seed: 0,
        run: detection_run,
    }
}

fn noise_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let secret = ctx.params.str("secret").as_bytes().to_vec();
    let levels = ctx.params.u64_list("jitter_levels");
    let points = noise_sensitivity::sweep(&secret, &levels);
    let mut text = header(
        "noise sensitivity",
        "SpectreBack bit accuracy vs DRAM jitter",
    );
    let _ = writeln!(text, "{}", noise_sensitivity::render(&points));
    let _ = writeln!(
        text,
        "# paper: >88% accuracy on live hardware; the margin above that bar"
    );
    let _ = writeln!(
        text,
        "# is visible here as jitter grows past realistic levels."
    );
    Ok(ScenarioOutput {
        data: Value::object().with("points", noise_sensitivity::to_value(&points)),
        text,
    })
}

fn noise_sensitivity_eval() -> Scenario {
    Scenario {
        name: "noise_sensitivity_eval",
        title: "noise sensitivity",
        description: "SpectreBack accuracy vs DRAM-jitter magnitude",
        params: vec![
            ParamSpec::str("secret", "secret bytes to leak", "OK", "NOISE"),
            ParamSpec::int_list(
                "jitter_levels",
                "jitter magnitudes (cycles)",
                &[0, 60],
                &[0, 15, 30, 60, 120, 240, 400],
            ),
        ],
        seed: 0,
        run: noise_run,
    }
}

fn mitigations_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let timers = ctx.params.str_list("timers");
    let timer_refs: Vec<&str> = timers.iter().map(String::as_str).collect();
    let rounds = ctx.params.usize_list("rounds");
    let trials = ctx.params.usize("trials");
    if trials < 1 {
        return Err(LabError::param(
            "timer_mitigations_eval",
            "parameter \"trials\": a cell needs at least one transmission, got 0",
        ));
    }
    let known = timer_mitigations::TIMER_MODELS;
    if let Some(t) = timer_refs.iter().find(|t| !known.contains(t)) {
        return Err(LabError::param(
            "timer_mitigations_eval",
            format!(
                "parameter \"timers\": unknown timer model {t:?}; known: {}",
                known.join(", ")
            ),
        ));
    }
    let points = timer_mitigations::sweep(&timer_refs, &rounds, trials);
    let mut text = header(
        "timer mitigations",
        "channel accuracy per timer model × magnifier rounds",
    );
    let _ = writeln!(text, "{}", timer_mitigations::render(&points, &rounds));
    let _ = writeln!(
        text,
        "# paper §8: some magnifiers can be out-coarsened, the PLRU gadgets cannot —"
    );
    let _ = writeln!(
        text,
        "# for every finite resolution there is a round count that restores accuracy."
    );
    Ok(ScenarioOutput {
        data: Value::object().with("points", timer_mitigations::to_value(&points)),
        text,
    })
}

fn timer_mitigations_eval() -> Scenario {
    Scenario {
        name: "timer_mitigations_eval",
        title: "timer mitigations",
        description: "PLRU channel accuracy across browser timer mitigations × rounds",
        params: vec![
            ParamSpec::str_list(
                "timers",
                "timer models to sweep",
                &timer_mitigations::TIMER_MODELS,
                &timer_mitigations::TIMER_MODELS,
            ),
            ParamSpec::int_list(
                "rounds",
                "magnifier round counts",
                &[1_000, 8_000],
                &[500, 2_000, 8_000, 40_000, 200_000],
            ),
            ParamSpec::int("trials", "transmissions per cell", 3, 8),
        ],
        seed: 0,
        run: mitigations_run,
    }
}

fn window_run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let sizes = ctx.params.usize_list("rs_sizes");
    let max_probe = ctx.params.usize("max_probe");
    let points = window_ablation::window_sweep(&sizes, max_probe);
    let mut text = header(
        "§7.2 ablation",
        "racing-gadget reach vs scheduler window size",
    );
    let _ = writeln!(text, "{}", window_ablation::render(&points));
    let _ = writeln!(
        text,
        "# paper: \"the ROB capacity limits the length of the ref path to 54,"
    );
    let _ = writeln!(
        text,
        "# which in turn limits the largest execution time that we can time\"."
    );
    Ok(ScenarioOutput {
        data: Value::object().with("points", window_ablation::to_value(&points)),
        text,
    })
}

fn window_ablation_eval() -> Scenario {
    Scenario {
        name: "window_ablation_eval",
        title: "§7.2 ablation",
        description: "measurement reach vs scheduler (reservation-station) capacity",
        params: vec![
            ParamSpec::int_list(
                "rs_sizes",
                "scheduler capacities to sweep",
                &[32, 60],
                &[24, 32, 48, 60, 97, 128, 160],
            ),
            ParamSpec::int("max_probe", "largest target probed", 160, 160),
        ],
        seed: 0,
        run: window_run,
    }
}
