//! The typed error taxonomy of the lab pipeline.
//!
//! Every failure the `racer-lab` CLI can hit is one of the [`LabError`]
//! kinds below, and every kind maps to a stable, documented exit code
//! (see [`LabError::exit_code`]). CI and scripts key off the codes; the
//! JSON `error.kind` strings recorded in failed-cell reports key off
//! [`LabError::kind`]. Both are part of the pipeline's contract — add new
//! kinds at the end, never renumber.
//!
//! | exit | kind | meaning |
//! |---:|---|---|
//! | 0 | – | success |
//! | 2 | `usage` | bad flags, unknown command/scenario |
//! | 3 | `io` | filesystem read/write failure |
//! | 4 | `parse` | malformed JSON in a report file |
//! | 5 | `param` | invalid scenario parameter (`--set`: unknown, mistyped, negative count, `trials=0`) |
//! | 6 | `scenario-panic` | a trial panicked; isolated and recorded as a failed cell |
//! | 7 | `timeout` | a trial exceeded `--timeout-secs`; recorded as a failed cell |
//! | 8 | `checkpoint-conflict` | checkpoint journal disagrees with the requested run |
//! | 9 | – | partial success (`report --keep-going` skipped inputs) |

use std::fmt;

/// One pipeline failure, carrying enough context to be actionable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LabError {
    /// Bad command line: unknown command, malformed flags.
    Usage(String),
    /// Filesystem failure. `context` names the operation and path.
    Io {
        /// What was being read or written, e.g. `writing results/x.json`.
        context: String,
        /// The underlying OS error text.
        message: String,
    },
    /// A file that should hold JSON did not parse.
    Parse {
        /// The offending file (or input label).
        label: String,
        /// Parser diagnostic, including the byte offset.
        message: String,
    },
    /// An invalid scenario parameter (unknown, mistyped or out of range).
    Param {
        /// The scenario whose parameters were being resolved.
        scenario: String,
        /// What was wrong.
        message: String,
    },
    /// A scenario trial panicked. The panic was caught at the isolation
    /// boundary and recorded as a `status: "failed"` cell; the rest of
    /// the run completed.
    ScenarioPanic {
        /// The panicking scenario.
        scenario: String,
        /// The panic payload message.
        message: String,
    },
    /// A scenario trial exceeded the configured wall-clock budget.
    Timeout {
        /// The timed-out scenario.
        scenario: String,
        /// The budget that was exceeded.
        seconds: u64,
    },
    /// The checkpoint journal holds a record the atomic-write protocol
    /// could never have produced: unreadable JSON, a foreign schema, or a
    /// stored key that disagrees with the file it sits in. (A different
    /// params/seed/scale run is *not* a conflict — it journals side by
    /// side under its own key.)
    CheckpointConflict(String),
}

impl LabError {
    /// Usage-error constructor.
    pub fn usage(message: impl Into<String>) -> LabError {
        LabError::Usage(message.into())
    }

    /// IO-error constructor; `context` should read like `reading <path>`.
    pub fn io(context: impl Into<String>, err: impl fmt::Display) -> LabError {
        LabError::Io {
            context: context.into(),
            message: err.to_string(),
        }
    }

    /// Parse-error constructor for a labelled input.
    pub fn parse(label: impl Into<String>, err: impl fmt::Display) -> LabError {
        LabError::Parse {
            label: label.into(),
            message: err.to_string(),
        }
    }

    /// Parameter-error constructor.
    pub fn param(scenario: impl Into<String>, message: impl Into<String>) -> LabError {
        LabError::Param {
            scenario: scenario.into(),
            message: message.into(),
        }
    }

    /// Caught-panic constructor.
    pub fn scenario_panic(scenario: impl Into<String>, message: impl Into<String>) -> LabError {
        LabError::ScenarioPanic {
            scenario: scenario.into(),
            message: message.into(),
        }
    }

    /// Timeout constructor.
    pub fn timeout(scenario: impl Into<String>, seconds: u64) -> LabError {
        LabError::Timeout {
            scenario: scenario.into(),
            seconds,
        }
    }

    /// Checkpoint-conflict constructor.
    pub fn conflict(message: impl Into<String>) -> LabError {
        LabError::CheckpointConflict(message.into())
    }

    /// Stable machine-readable kind, recorded as `error.kind` in
    /// failed-cell reports.
    pub fn kind(&self) -> &'static str {
        match self {
            LabError::Usage(_) => "usage",
            LabError::Io { .. } => "io",
            LabError::Parse { .. } => "parse",
            LabError::Param { .. } => "param",
            LabError::ScenarioPanic { .. } => "scenario-panic",
            LabError::Timeout { .. } => "timeout",
            LabError::CheckpointConflict(_) => "checkpoint-conflict",
        }
    }

    /// The documented process exit code for this kind (see the module
    /// table). Exit codes are a stable contract with CI.
    pub fn exit_code(&self) -> i32 {
        match self {
            LabError::Usage(_) => 2,
            LabError::Io { .. } => 3,
            LabError::Parse { .. } => 4,
            LabError::Param { .. } => 5,
            LabError::ScenarioPanic { .. } => 6,
            LabError::Timeout { .. } => 7,
            LabError::CheckpointConflict(_) => 8,
        }
    }

    /// One-line human message without the `error:` prefix (what
    /// [`fmt::Display`] renders).
    pub fn message(&self) -> String {
        match self {
            LabError::Usage(m) => m.clone(),
            LabError::Io { context, message } => format!("{context}: {message}"),
            LabError::Parse { label, message } => format!("parsing {label}: {message}"),
            LabError::Param { scenario, message } => format!("{scenario}: {message}"),
            LabError::ScenarioPanic { scenario, message } => {
                format!("scenario {scenario} panicked: {message}")
            }
            LabError::Timeout { scenario, seconds } => {
                format!("scenario {scenario} exceeded the {seconds}s trial timeout")
            }
            LabError::CheckpointConflict(m) => format!("checkpoint conflict: {m}"),
        }
    }
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message())
    }
}

impl std::error::Error for LabError {}

/// Legacy bridge: plain-string errors from older call sites are usage
/// errors (exit 2), matching the pre-taxonomy behaviour.
impl From<String> for LabError {
    fn from(message: String) -> LabError {
        LabError::Usage(message)
    }
}

impl From<&str> for LabError {
    fn from(message: &str) -> LabError {
        LabError::Usage(message.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable_and_distinct() {
        let all = [
            LabError::usage("x"),
            LabError::io("reading x", "denied"),
            LabError::parse("x.json", "bad"),
            LabError::param("sc", "bad"),
            LabError::scenario_panic("sc", "boom"),
            LabError::timeout("sc", 5),
            LabError::conflict("key mismatch"),
        ];
        let codes: Vec<i32> = all.iter().map(LabError::exit_code).collect();
        assert_eq!(codes, [2, 3, 4, 5, 6, 7, 8]);
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "exit codes must be distinct");
    }

    #[test]
    fn kinds_match_the_documented_taxonomy() {
        assert_eq!(LabError::io("w", "e").kind(), "io");
        assert_eq!(LabError::parse("l", "e").kind(), "parse");
        assert_eq!(LabError::param("s", "e").kind(), "param");
        assert_eq!(LabError::scenario_panic("s", "e").kind(), "scenario-panic");
        assert_eq!(LabError::timeout("s", 1).kind(), "timeout");
        assert_eq!(LabError::conflict("e").kind(), "checkpoint-conflict");
    }

    #[test]
    fn messages_carry_context() {
        let e = LabError::io("writing results/x.json", "no space");
        assert_eq!(e.to_string(), "writing results/x.json: no space");
        let e = LabError::timeout("fig11_arbitrary_replacement", 30);
        assert!(e.to_string().contains("30s"));
    }
}
