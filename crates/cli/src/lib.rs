//! Library backing the `biochip` command-line driver.
//!
//! The binary wires the workspace's pipeline crates to the file system and
//! the shell:
//!
//! * [`assays`] — resolves `--assay pcr` style names against the paper's
//!   benchmark library and loads assay files (line-oriented text format or
//!   JSON),
//! * [`state`] — the [`state::PipelineState`] JSON document that stage
//!   commands (`schedule` → `synth` → `simulate`) hand to each other,
//! * [`batch`] — the parallel batch-synthesis runner behind `biochip batch`,
//! * [`args`] — a tiny dependency-free option parser,
//! * [`commands`] — one entry point per subcommand.
//!
//! Everything here is deliberately a library so that integration tests (and
//! a future server front end) can drive the exact code paths of the binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod assays;
pub mod batch;
pub mod commands;
pub mod state;

use std::fmt;

/// A command-line failure: a message plus the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description printed to stderr.
    pub message: String,
    /// Process exit code (`2` for usage errors, `1` for runtime failures).
    pub code: i32,
}

/// A message from a pipeline-state check (`require_*`, `from_json_text`)
/// is a runtime failure.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::runtime(message)
    }
}

impl CliError {
    /// A runtime failure (exit code 1).
    #[must_use]
    pub fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }

    /// A usage error (exit code 2).
    #[must_use]
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    /// The structured `biochip-error/v1` JSON body of this error — what a
    /// pipeline-mode caller (`--json-errors`) parses instead of scraping
    /// stderr. Rendered by the job service's [`biochip_server::error_body`]
    /// so the CLI and the server can never drift apart on the shape; the
    /// `code` field carries the process exit code here (an HTTP status on
    /// the server).
    #[must_use]
    pub fn json_body(&self) -> String {
        biochip_server::error_body(u16::try_from(self.code).unwrap_or(1), &self.message)
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Reads a whole file, wrapping I/O errors with the path.
pub fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read `{path}`: {e}")))
}

/// Writes a whole file, wrapping I/O errors with the path.
pub fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::runtime(format!("cannot write `{path}`: {e}")))
}
