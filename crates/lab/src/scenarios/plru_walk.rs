//! Figures 3 & 4: the tree-PLRU magnifier's cache-state walk, step by
//! step — eviction candidate, hit/miss and set contents per access.

use super::header;
use crate::error::LabError;
use crate::registry::{RunContext, Scenario, ScenarioOutput};
use racer_mem::{CacheSet, LineAddr, ReplacementKind};
use racer_results::Value;
use std::fmt::Write as _;

/// Labelled 4-way set mirroring the figures' presentation, recording every
/// access as both text and a structured step.
struct Walk {
    set: CacheSet,
    names: Vec<(LineAddr, char)>,
    ways: [char; 4],
    text: String,
    steps: Vec<Value>,
}

impl Walk {
    fn new() -> Self {
        Walk {
            set: CacheSet::new(ReplacementKind::TreePlru.build(4, 0)),
            names: Vec::new(),
            ways: ['-'; 4],
            text: String::new(),
            steps: Vec::new(),
        }
    }

    fn line(&mut self, c: char) -> LineAddr {
        if let Some((l, _)) = self.names.iter().find(|(_, n)| *n == c) {
            return *l;
        }
        let l = LineAddr(100 + self.names.len() as u64);
        self.names.push((l, c));
        l
    }

    fn name(&self, l: LineAddr) -> char {
        self.names
            .iter()
            .find(|(x, _)| *x == l)
            .map(|(_, n)| *n)
            .unwrap_or('?')
    }

    fn set_string(&self) -> String {
        self.ways.iter().collect()
    }

    fn access(&mut self, c: char) {
        let l = self.line(c);
        if self.set.touch(l) {
            let _ = writeln!(
                self.text,
                "access {c}: hit             set=[{}]  EVC={}",
                self.set_string(),
                self.evc()
            );
            self.steps.push(
                Value::object()
                    .with("access", c.to_string())
                    .with("hit", true)
                    .with("set", self.set_string())
                    .with("eviction_candidate", self.evc().to_string()),
            );
        } else {
            let out = self.set.fill(l);
            let evicted = out.evicted.map(|e| self.name(e));
            self.ways[out.way] = c;
            let _ = writeln!(
                self.text,
                "access {c}: MISS -> way {}{}  set=[{}]  EVC={}",
                out.way,
                evicted.map_or("           ".to_string(), |e| format!(" (evicts {e})")),
                self.set_string(),
                self.evc()
            );
            self.steps.push(
                Value::object()
                    .with("access", c.to_string())
                    .with("hit", false)
                    .with("way", out.way)
                    .with("evicted", evicted.map(|e| e.to_string()))
                    .with("set", self.set_string())
                    .with("eviction_candidate", self.evc().to_string()),
            );
        }
    }

    fn evc(&self) -> char {
        self.set
            .eviction_candidate()
            .map(|l| self.name(l))
            .unwrap_or('-')
    }
}

/// One sub-figure: warm-up accesses, then `rounds` repetitions of
/// `pattern`. Returns the structured walk and its text rendering.
fn walk_figure(
    label: &str,
    warmup: &[char],
    pattern: &[char],
    rounds: usize,
    note: &str,
) -> (Value, String) {
    let mut w = Walk::new();
    for &c in warmup {
        w.access(c);
    }
    let warm_steps = std::mem::take(&mut w.steps);
    let mut round_values = Vec::new();
    for round in 0..rounds {
        let _ = writeln!(w.text, "-- round {} --", round + 1);
        for &c in pattern {
            w.access(c);
        }
        round_values.push(Value::Array(std::mem::take(&mut w.steps)));
    }
    let misses_last_round = round_values
        .last()
        .and_then(Value::as_array)
        .map(|steps| {
            steps
                .iter()
                .filter(|s| s.get("hit") == Some(&Value::Bool(false)))
                .count()
        })
        .unwrap_or(0);
    let _ = writeln!(w.text, "({note})");
    let data = Value::object()
        .with("label", label)
        .with(
            "pattern",
            pattern.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
        )
        .with("warmup", Value::Array(warm_steps))
        .with("rounds", Value::Array(round_values))
        .with("misses_in_final_round", misses_last_round)
        .with("note", note);
    (data, w.text)
}

fn run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let rounds = ctx.params.usize("rounds");
    let mut text = header(
        "Figures 3 & 4",
        "tree-PLRU magnifier state walks (4-way set)",
    );

    text.push_str("\n-- Figure 3: A present (inserted first); pattern B,C,E,C,D,C --\n");
    let (fig3, t3) = walk_figure(
        "figure3-transmit1",
        &['B', 'C', 'E', 'D', 'A'],
        &['B', 'C', 'E', 'C', 'D', 'C'],
        rounds,
        "A survives forever; 3 misses per round — the transmit-1 state",
    );
    text.push_str(&t3);

    text.push_str("\n-- Figure 4: B touched before A; pattern C,E,C,D,C,B --\n");
    let (fig4, t4) = walk_figure(
        "figure4-transmit0",
        &['B', 'C', 'E', 'D', 'B', 'A'],
        &['C', 'E', 'C', 'D', 'C', 'B'],
        rounds,
        "A is evicted early and the misses stop — the transmit-0 state",
    );
    text.push_str(&t4);

    Ok(ScenarioOutput {
        data: Value::object().with("figure3", fig3).with("figure4", fig4),
        text,
    })
}

/// Registration for the Figures 3–4 state walk.
pub fn fig03_plru_walk() -> Scenario {
    Scenario {
        name: "fig03_plru_walk",
        title: "Figures 3 & 4",
        description: "tree-PLRU magnifier state walks (4-way set)",
        params: vec![crate::params::ParamSpec::int(
            "rounds",
            "pattern repetitions per sub-figure",
            3,
            3,
        )],
        seed: 0,
        run,
    }
}
