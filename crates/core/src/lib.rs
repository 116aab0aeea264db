//! `needle` — the end-to-end Needle pipeline (HPCA 2017).
//!
//! Ties the whole reproduction together:
//!
//! 1. **Analyze** ([`analysis`]): inline the hot call chain, run the
//!    workload under the Ball-Larus path profiler and the edge profiler,
//!    rank paths by `Pwt`, build Braids, and compute the baseline region
//!    formations (Superblock, Hyperblock) plus the Table I control-flow
//!    statistics — everything "Step 1" of the paper's Figure 1.
//! 2. **Frame** ([`needle_frames`]): lower the chosen BL-path or Braid into
//!    a software frame with guards and an undo log ("Step 2").
//! 3. **Offload** ([`offload`]): co-simulate the host OOO core with the
//!    CGRA running one or more frames — oracle or history-predictor
//!    invocation, guard-failure rollback with host re-execution,
//!    reconfiguration when control switches between regions — and report
//!    the performance and energy deltas of Figures 9 and 10 ("Step 3").
//! 4. **Chaos** ([`chaos`]): seeded fault-injection campaigns that attack
//!    the speculation invariant (abort atomicity, commit equivalence) and
//!    differentially verify every invocation; the offload layer degrades
//!    gracefully (abort-storm blacklisting, host-only fallback) instead
//!    of panicking.
//!
//! # Quickstart
//!
//! ```
//! use needle::{analyze, NeedleConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = needle_workloads::by_name("179.art").expect("workload exists");
//! let analysis = analyze(
//!     &w.module,
//!     w.func,
//!     &w.args,
//!     &w.memory,
//!     &NeedleConfig::default(),
//! )?;
//! println!(
//!     "top path covers {:.0}% of dynamic instructions",
//!     analysis.rank.top_coverage(1) * 100.0
//! );
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod breaker;
pub mod certify;
pub mod chaos;
pub mod config;
pub mod error;
pub mod fuzz;
pub mod governor;
pub mod journal;
pub mod loadgen;
pub mod offload;
pub mod overload;
pub mod report;
pub mod serve;
pub mod shard;
pub mod soak;
pub mod supervisor;
mod sync;

pub use analysis::{analyze, Analysis, AnalysisError};
pub use breaker::{Admission, BreakerState, CircuitBreaker};
pub use chaos::{run_campaign, storm_scenario, ChaosConfig, ChaosReport, RegionCampaign};
pub use config::{NeedleConfig, ShardPolicy, StormConfig, SupervisorConfig};
pub use certify::{
    certify_cached, certify_workload, CachedVerdict, CertStats, CertifyReport, VerdictJournal,
    VerifyPolicy,
};
pub use error::NeedleError;
pub use fuzz::{
    check_case, parse_case_file, run_fuzz, shrink_case, CaseOutcome, FrameLeg, FuzzConfig,
    FuzzFailure, FuzzReport, Invocation, OracleFailure, SymLeg,
};
pub use governor::{
    plan_epoch, CurrentChoice, Decision, DemotionLedger, EpochEvent, EventKind, GovernorConfig,
    GovernorStats, PathCandidate, WorkloadObservation,
};
pub use journal::JournalError;
pub use loadgen::{
    check_loadgen, run_loadgen, ClientConfig, LoadgenConfig, LoadgenReport, LoadgenRun,
    PhaseStats, Scenario,
};
pub use overload::{Admitted, DeadlineQueue, Next, ServiceCore};
pub use supervisor::{
    peek_journal, run_supervised, CampaignOptions, CampaignReport, CampaignUnit, UnitKind,
    UnitOutcome, UnitPayload, UnitReport,
};
pub use serve::{
    FailReason, FuncStatRow, InjectedFault, MetricsSnapshot, Outcome, Request, Response,
    ServeConfig, Service, ShedReason,
};
pub use shard::{
    audit_ledger, LedgerAudit, RouterMetrics, ShardRow, ShardServeConfig, ShardedMetrics,
    ShardedService,
};
pub use soak::{run_soak, ServiceHandle, SoakConfig, SoakReport, SoakScenario};
pub use offload::{
    simulate_offload, simulate_offload_with, OffloadReport, PredictorKind, RegionSpec,
};
