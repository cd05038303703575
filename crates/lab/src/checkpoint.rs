//! The checkpoint journal: crash-safe run resumption.
//!
//! `racer-lab run --checkpoint <dir>` journals every completed unit of
//! work (one scenario run) as an append-only record in `<dir>`, written
//! atomically via [`crate::fsio::write_atomic`]. Re-running the same
//! command resumes: units whose record is already journaled are skipped
//! and their reports replayed byte-for-byte from the journal, so an
//! interrupted sweep resumed to completion produces output byte-identical
//! to a run that never failed.
//!
//! Records are keyed by the same identity idea the dashboard's
//! quick-vs-paper delta tables use (PR 5): not positional paths but the
//! *rendered values* that make a unit what it is — scenario name, scale,
//! seed, and the full resolved config. Different keys journal side by
//! side, so one journal can serve runs of several scenarios, seeds or
//! scales. A record that is unreadable, or whose stored key disagrees
//! with the file it sits in, is a [`LabError::CheckpointConflict`]: the
//! atomic-write protocol never produces either state, so the journal is
//! not ours to trust.
//!
//! One record file per unit (`<scenario>-<keyhash>.json`):
//!
//! ```json
//! {
//!   "schema": "racer-lab/checkpoint/v1",
//!   "scenario": "timer_mitigations_eval",
//!   "key": "timer_mitigations_eval|quick|seed=0|{...config...}",
//!   "report": { ...the full racer-lab/v1 report... }
//! }
//! ```
//!
//! Failed cells are deliberately *not* journaled: a resume re-attempts
//! them, which is what lets a fault-injected run converge to the
//! fault-free golden once the fault is gone.

use crate::error::LabError;
use crate::fault;
use crate::fsio;
use crate::params::{ResolvedParams, Scale};
use racer_results::Value;
use std::path::{Path, PathBuf};

/// The record envelope schema.
pub const SCHEMA: &str = "racer-lab/checkpoint/v1";

/// An open checkpoint journal directory.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    dir: PathBuf,
}

/// The identity key of one run unit: scenario + scale + seed + the full
/// resolved config, all by rendered value. Two invocations agree on the
/// key exactly when they would produce the same deterministic report.
pub fn identity_key(scenario: &str, scale: Scale, seed: u64, params: &ResolvedParams) -> String {
    let mut config = Value::object();
    for (name, value) in params.entries() {
        config.insert(name, value.to_value());
    }
    format!(
        "{scenario}|{}|seed={seed}|{}",
        scale.name(),
        config.to_compact()
    )
}

/// FNV-1a 64-bit, rendered as fixed-width hex — stable across platforms
/// and runs, used only to give each unit a distinct file name.
fn key_hash(key: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

impl Checkpoint {
    /// Open (creating if needed) the journal directory.
    pub fn open(dir: &Path) -> Result<Checkpoint, LabError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| LabError::io(format!("creating checkpoint dir {}", dir.display()), e))?;
        Ok(Checkpoint {
            dir: dir.to_path_buf(),
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn record_path(&self, scenario: &str, key: &str) -> PathBuf {
        self.dir.join(format!("{scenario}-{}.json", key_hash(key)))
    }

    /// Look up the journaled report for `key`. `Ok(None)` means the unit
    /// has not completed yet. A record that exists but does not parse, or
    /// whose stored key disagrees, is a [`LabError::CheckpointConflict`] —
    /// records are written atomically, so either state means the journal
    /// is not ours to reuse.
    pub fn load(&self, scenario: &str, key: &str) -> Result<Option<Value>, LabError> {
        let path = self.record_path(scenario, key);
        if !path.exists() {
            return Ok(None);
        }
        let doc = fsio::parse_json(&path).map_err(|e| {
            LabError::conflict(format!(
                "unreadable journal record {}: {e} (delete it to re-run the unit)",
                path.display()
            ))
        })?;
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(LabError::conflict(format!(
                "{} is not a {SCHEMA} record",
                path.display()
            )));
        }
        let stored = doc.get("key").and_then(Value::as_str).unwrap_or("");
        if stored != key {
            return Err(LabError::conflict(format!(
                "journal record {} was written for a different run\n  journaled: {stored}\n  requested: {key}",
                path.display()
            )));
        }
        let report = doc
            .get("report")
            .cloned()
            .ok_or_else(|| LabError::conflict(format!("{} has no report", path.display())))?;
        Ok(Some(report))
    }

    /// Journal one completed unit. Fires the `checkpoint:<scenario>`
    /// fault site; the record write itself is atomic, so a crash here
    /// loses at most this one record (the unit re-runs on resume).
    pub fn record(&self, scenario: &str, key: &str, report: &Value) -> Result<(), LabError> {
        fault::hit_point(&format!("checkpoint:{scenario}"));
        let doc = Value::object()
            .with("schema", SCHEMA)
            .with("scenario", scenario)
            .with("key", key)
            .with("report", report.clone());
        fsio::write_atomic(&self.record_path(scenario, key), &doc.to_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSpec;

    fn params(trials: i64) -> ResolvedParams {
        let specs = [ParamSpec::int("trials", "t", trials, trials)];
        ResolvedParams::resolve(&specs, Scale::Quick, &[]).unwrap()
    }

    fn tmp(stem: &str) -> PathBuf {
        std::env::temp_dir().join(format!("racer-lab-ckpt-{stem}-{}", std::process::id()))
    }

    #[test]
    fn identity_keys_separate_config_seed_and_scale() {
        let a = identity_key("sc", Scale::Quick, 7, &params(3));
        assert_eq!(a, identity_key("sc", Scale::Quick, 7, &params(3)));
        assert_ne!(a, identity_key("sc", Scale::Quick, 8, &params(3)));
        assert_ne!(a, identity_key("sc", Scale::Paper, 7, &params(3)));
        assert_ne!(a, identity_key("sc", Scale::Quick, 7, &params(4)));
        assert_ne!(a, identity_key("sc2", Scale::Quick, 7, &params(3)));
    }

    #[test]
    fn journal_roundtrip_replays_the_exact_report() {
        let dir = tmp("roundtrip");
        let ckpt = Checkpoint::open(&dir).unwrap();
        let key = identity_key("sc", Scale::Quick, 1, &params(3));
        assert_eq!(ckpt.load("sc", &key).unwrap(), None);
        let report = Value::object().with("schema", "racer-lab/v1").with("x", 1);
        ckpt.record("sc", &key, &report).unwrap();
        assert_eq!(ckpt.load("sc", &key).unwrap(), Some(report));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_mismatch_is_a_conflict() {
        let dir = tmp("conflict");
        let ckpt = Checkpoint::open(&dir).unwrap();
        let key = identity_key("sc", Scale::Quick, 1, &params(3));
        let other = identity_key("sc", Scale::Quick, 2, &params(3));
        ckpt.record("sc", &key, &Value::object()).unwrap();
        // Same unit name, different key hash: distinct record, no clash.
        assert_eq!(ckpt.load("sc", &other).unwrap(), None);
        // Tamper: rewrite the record under the other key's file name.
        let doc = Value::object()
            .with("schema", SCHEMA)
            .with("scenario", "sc")
            .with("key", key.as_str())
            .with("report", Value::object());
        crate::fsio::write_atomic(&ckpt.record_path("sc", &other), &doc.to_pretty()).unwrap();
        let err = ckpt.load("sc", &other).unwrap_err();
        assert_eq!(err.kind(), "checkpoint-conflict");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_records_are_conflicts_not_panics() {
        let dir = tmp("corrupt");
        let ckpt = Checkpoint::open(&dir).unwrap();
        let key = identity_key("sc", Scale::Quick, 0, &params(3));
        std::fs::write(ckpt.record_path("sc", &key), "{ truncated").unwrap();
        let err = ckpt.load("sc", &key).unwrap_err();
        assert_eq!(err.kind(), "checkpoint-conflict");
        // load() only reads the record at its own key's hash.
        let other = identity_key("sc", Scale::Quick, 1, &params(3));
        assert_eq!(ckpt.load("sc", &other).unwrap(), None, "other units load");
        std::fs::remove_dir_all(&dir).ok();
    }
}
