//! The pipeline-wide error taxonomy.
//!
//! Every fallible layer of the reproduction — analysis, frame
//! construction, symbolic certification, interpretation, speculative
//! frame execution, differential verification — reports a typed error
//! instead of panicking, and [`NeedleError`] is the top-level sum the
//! pipeline entry points (`simulate_offload`, `simulate_offload_with`,
//! `run_campaign`) return. Callers that want graceful degradation (the
//! CLI, the chaos campaign) match on the variant: a
//! [`NeedleError::Frame`] on one region means "fall back to the host for
//! this region", not "abort the run".

use std::fmt;

use needle_frames::{BuildError, ExecFrameError, SymEqError, VerifyError};
use needle_ir::interp::ExecError;

use crate::analysis::AnalysisError;
use crate::journal::JournalError;

/// Any failure of the Needle pipeline.
#[derive(Debug)]
pub enum NeedleError {
    /// Step-1 analysis (profiling, inlining, numbering) failed.
    Analysis(AnalysisError),
    /// The region could not be lowered to a frame.
    Frame(BuildError),
    /// The symbolic certifier met a malformed frame.
    Cert(SymEqError),
    /// Reference interpretation of the whole workload failed.
    Exec(ExecError),
    /// Speculative execution of a frame failed structurally (distinct
    /// from a guard abort, which is a normal outcome).
    FrameExec(ExecFrameError),
    /// Differential verification could not run.
    Verify(VerifyError),
    /// A named workload does not exist in the suite.
    UnknownWorkload(String),
    /// Analysis produced no offloadable region to work with.
    NoRegion(&'static str),
    /// The campaign journal failed (I/O, corruption, or the kill test
    /// hook) — the supervisor stops as a killed process would.
    Journal(JournalError),
    /// The attempt was cancelled by the supervisor's watchdog.
    Canceled,
    /// The execution service could not start or operate (bad catalog,
    /// worker spawn failure).
    Serve(String),
    /// The sharded serving layer failed structurally (ledger I/O, no
    /// live shard to route to, supervisor spawn failure).
    Shard(String),
}

impl fmt::Display for NeedleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeedleError::Analysis(e) => write!(f, "analysis failed: {e}"),
            NeedleError::Frame(e) => write!(f, "frame construction failed: {e}"),
            NeedleError::Cert(e) => write!(f, "frame certification failed: {e}"),
            NeedleError::Exec(e) => write!(f, "execution failed: {e}"),
            NeedleError::FrameExec(e) => write!(f, "frame execution failed: {e}"),
            NeedleError::Verify(e) => write!(f, "verification failed: {e}"),
            NeedleError::UnknownWorkload(n) => write!(f, "unknown workload {n:?}"),
            NeedleError::NoRegion(what) => write!(f, "no region: {what}"),
            NeedleError::Journal(e) => write!(f, "campaign journal failed: {e}"),
            NeedleError::Canceled => write!(f, "attempt cancelled by supervisor"),
            NeedleError::Serve(what) => write!(f, "execution service failed: {what}"),
            NeedleError::Shard(what) => write!(f, "sharded service failed: {what}"),
        }
    }
}

impl std::error::Error for NeedleError {}

impl From<AnalysisError> for NeedleError {
    fn from(e: AnalysisError) -> NeedleError {
        NeedleError::Analysis(e)
    }
}

impl From<BuildError> for NeedleError {
    fn from(e: BuildError) -> NeedleError {
        NeedleError::Frame(e)
    }
}

impl From<SymEqError> for NeedleError {
    fn from(e: SymEqError) -> NeedleError {
        NeedleError::Cert(e)
    }
}

impl From<ExecError> for NeedleError {
    fn from(e: ExecError) -> NeedleError {
        NeedleError::Exec(e)
    }
}

impl From<ExecFrameError> for NeedleError {
    fn from(e: ExecFrameError) -> NeedleError {
        NeedleError::FrameExec(e)
    }
}

impl From<VerifyError> for NeedleError {
    fn from(e: VerifyError) -> NeedleError {
        NeedleError::Verify(e)
    }
}

impl From<JournalError> for NeedleError {
    fn from(e: JournalError) -> NeedleError {
        NeedleError::Journal(e)
    }
}
