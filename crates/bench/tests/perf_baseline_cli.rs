//! `perf_baseline` overwrites the committed `BENCH_pipeline.json`, so a
//! mistyped flag must stop it before anything is measured or written.

use std::process::Command;

#[test]
fn unknown_argument_is_a_usage_error_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("perf-baseline-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perf_baseline"))
        .arg("--bogus")
        .current_dir(&dir)
        .output()
        .expect("spawn perf_baseline");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "usage errors exit 2; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--bogus"),
        "the error names the bad argument"
    );
    assert!(written.is_empty(), "nothing may be written: {written:?}");
}
