//! Crash-safe filesystem primitives for the pipeline.
//!
//! Every result artefact (`results/*.json`, checkpoint records, dashboard
//! HTML, `BENCH_pipeline.json`) goes through
//! [`write_atomic`]: bytes land in a `<name>.tmp` sibling first and reach
//! the final name only via `rename(2)`, which is atomic on POSIX
//! filesystems. A process killed at any instant therefore leaves either
//! the old file, no file, or the complete new file — never a truncated
//! one. Orphaned `.tmp` files are possible after a kill and are harmless:
//! nothing in the pipeline reads them (report/checkpoint scans match
//! `*.json` only), and the next successful write of the same artefact
//! replaces them.
//!
//! Reads go through [`read_to_string`]/[`parse_json`], which wrap the
//! failure in the matching [`LabError`] kind so exit codes stay honest.

use crate::error::LabError;
use crate::fault;
use racer_results::Value;
use std::path::Path;

/// Atomically replace `path` with `text` (tmp sibling + rename), creating
/// parent directories as needed. The fault-injection site
/// `write:<file-name>` fires inside this function, before the final
/// rename — an injected failure can corrupt or orphan the `.tmp` file but
/// never the destination.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), LabError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| LabError::io(format!("creating {}", dir.display()), e))?;
        }
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| LabError::io(format!("writing {}", path.display()), "no file name"))?
        .to_string_lossy()
        .into_owned();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);

    match fault::write_fault(&format!("write:{file_name}")) {
        None => {}
        Some(fault::Action::Io) => {
            return Err(LabError::io(
                format!("writing {}", path.display()),
                "injected IO error",
            ));
        }
        Some(fault::Action::Truncate) => {
            // Simulated crash mid-write: half the payload reaches the tmp
            // file, the destination is untouched, and the caller sees an
            // IO error. The orphaned tmp file is the worst on-disk state
            // the real protocol can produce.
            let half = &text.as_bytes()[..text.len() / 2];
            std::fs::write(&tmp, half)
                .map_err(|e| LabError::io(format!("writing {}", tmp.display()), e))?;
            return Err(LabError::io(
                format!("writing {}", path.display()),
                "injected truncated write",
            ));
        }
        Some(_) => {}
    }

    std::fs::write(&tmp, text)
        .map_err(|e| LabError::io(format!("writing {}", tmp.display()), e))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        // Leave no half-written artefact behind on rename failure.
        std::fs::remove_file(&tmp).ok();
        LabError::io(format!("renaming {} into place", path.display()), e)
    })
}

/// Read a whole file, wrapping failures as [`LabError::Io`].
pub fn read_to_string(path: &Path) -> Result<String, LabError> {
    std::fs::read_to_string(path)
        .map_err(|e| LabError::io(format!("reading {}", path.display()), e))
}

/// Read and strictly parse a JSON file ([`LabError::Io`] /
/// [`LabError::Parse`]).
pub fn parse_json(path: &Path) -> Result<Value, LabError> {
    let text = read_to_string(path)?;
    Value::parse(&text).map_err(|e| LabError::parse(path.display().to_string(), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(stem: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("racer-lab-fsio-{stem}-{}", std::process::id()))
    }

    #[test]
    fn writes_land_atomically_and_leave_no_tmp() {
        let dir = tmp_dir("ok");
        let path = dir.join("nested/report.json");
        write_atomic(&path, "{\"k\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"k\": 1}\n");
        assert!(
            !path.with_extension("json.tmp").exists(),
            "tmp sibling must be renamed away"
        );
        // Overwrite replaces the content wholesale.
        write_atomic(&path, "{\"k\": 2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"k\": 2}\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_errors_are_typed() {
        let missing = tmp_dir("missing").join("nope.json");
        let err = read_to_string(&missing).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert!(err.to_string().contains("nope.json"));
    }

    #[test]
    fn parse_errors_are_typed() {
        let dir = tmp_dir("parse");
        let path = dir.join("bad.json");
        write_atomic(&path, "{ nope").unwrap();
        let err = parse_json(&path).unwrap_err();
        assert_eq!(err.kind(), "parse");
        assert!(err.to_string().contains("bad.json"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
