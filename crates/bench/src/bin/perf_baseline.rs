//! Refresh the committed throughput baseline.
//!
//! Runs the `perf_baseline` scenario exactly as `racer-lab run
//! perf_baseline [--quick]` does (plot-ready text on stdout, the report in
//! `results/perf_baseline.json`) and also writes the measured payload to
//! `BENCH_pipeline.json` in the working directory: the baseline that
//! `racer-lab perf-check` gates against. Run it from the repository root
//! at paper scale before committing the file.
//!
//! Both files are written atomically (tmp + rename), so an interrupted
//! refresh never leaves a corrupt baseline behind. `--quick` is the only
//! argument; anything else is a usage error that writes nothing.

use racer_lab::{find, run_scenario, write_atomic, LabError, RunOptions};
use std::path::Path;

const BASELINE: &str = "BENCH_pipeline.json";

fn main() {
    if let Err(e) = refresh() {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

fn refresh() -> Result<(), LabError> {
    let mut opts = RunOptions::default();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => opts = RunOptions::quick(),
            other => {
                return Err(LabError::usage(format!(
                    "unknown argument {other:?}; usage: perf_baseline [--quick]"
                )))
            }
        }
    }
    let scenario = find("perf_baseline").expect("perf_baseline is a registered scenario");
    let report = run_scenario(&scenario, &opts)?;
    println!("{}", report.text.trim_end());
    println!("# wrote {}", report.write(Path::new("results"))?.display());
    let payload = report.json.get("results").expect("report has results");
    write_atomic(Path::new(BASELINE), &payload.to_pretty())?;
    println!("# wrote {BASELINE}");
    Ok(())
}
