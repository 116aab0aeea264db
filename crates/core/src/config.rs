//! Pipeline configuration.

use needle_cgra::CgraConfig;
use needle_host::{HostConfig, HostEnergyModel};
use needle_ir::interp::CancelToken;

/// Knobs for the whole Needle pipeline.
#[derive(Debug, Clone, Default)]
pub struct NeedleConfig {
    /// Host core model (Table V defaults).
    pub host: HostConfig,
    /// CGRA fabric model (Table V defaults).
    pub cgra: CgraConfig,
    /// Host energy model.
    pub energy: HostEnergyModel,
    /// Analysis tuning.
    pub analysis: AnalysisConfig,
    /// Abort-storm degradation policy.
    pub storm: StormConfig,
    /// Cooperative cancellation token threaded into every interpreter
    /// run this config drives. `None` (the default) disables the
    /// checkpoints entirely; when set, a cancelled token stops runaway
    /// work within the engine's check interval with a typed
    /// [`needle_ir::interp::ExecError::Cancelled`].
    pub cancel: Option<CancelToken>,
}

/// Abort-storm detector policy (graceful offload degradation).
///
/// A region whose invocations roll back this often is costing cycles on
/// every attempt (speculation burned + host re-execution); the offload
/// layer blacklists it and runs it host-only. Blacklisting is not
/// permanent: after `cooldown` suppressed opportunities the region gets
/// one probe invocation, and a committing probe reopens it (hysteresis).
/// Each failed probe spends one unit of `retry_budget`; at zero the
/// region is host-only for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormConfig {
    /// Consecutive fabric rollbacks that trip blacklisting (0 disables
    /// the detector entirely).
    pub threshold: u32,
    /// Opportunities to run host-only before probing the fabric again.
    pub cooldown: u64,
    /// Failed probes allowed before the region is permanently host-only.
    pub retry_budget: u32,
}

impl Default for StormConfig {
    fn default() -> StormConfig {
        StormConfig {
            threshold: 8,
            cooldown: 16,
            retry_budget: 4,
        }
    }
}

/// Supervised-campaign policy: worker pool size, per-unit budgets, and
/// the retry schedule (see [`crate::supervisor`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Worker threads (0 = auto: available parallelism, capped at 4).
    pub workers: usize,
    /// Per-attempt wall-clock deadline, milliseconds. Sits on top of
    /// the interpreter's `max_steps` fuel: fuel bounds work, the
    /// deadline bounds time.
    pub deadline_ms: u64,
    /// Attempts per unit before it is marked failed-with-cause.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff, milliseconds
    /// (`base * 2^(attempt-1)`).
    pub backoff_base_ms: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            workers: 0,
            deadline_ms: 30_000,
            max_attempts: 3,
            backoff_base_ms: 25,
        }
    }
}

/// Multi-shard serving policy: failure detection, restart, and failover
/// (see [`crate::shard`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Shard count (each shard is its own worker pool + queue +
    /// breakers + decode caches).
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring; more vnodes
    /// smooth the key distribution at the cost of a larger ring.
    pub virtual_nodes: usize,
    /// Expected worker heartbeat interval, milliseconds. Workers beat on
    /// every queue interaction; the supervisor reads the beats.
    pub heartbeat_ms: u64,
    /// Consecutive missed heartbeats before a shard is declared wedged.
    pub missed_heartbeats: u32,
    /// Grace past a request's deadline before an unresponsive in-flight
    /// worker (one that ignored cooperative cancellation) is treated as
    /// wedged and its shard restarted.
    pub wedge_grace_ms: u64,
    /// Failover re-route attempts per orphaned request before it is
    /// failed back to the caller.
    pub failover_attempts: u32,
    /// Base of the jittered exponential backoff between failover
    /// attempts, milliseconds.
    pub failover_backoff_ms: u64,
    /// Shard supervisor poll interval, milliseconds (heartbeat scan,
    /// watchdog, retry queue).
    pub supervisor_poll_ms: u64,
}

impl Default for ShardPolicy {
    fn default() -> ShardPolicy {
        ShardPolicy {
            shards: 4,
            virtual_nodes: 16,
            heartbeat_ms: 50,
            missed_heartbeats: 4,
            wedge_grace_ms: 100,
            failover_attempts: 5,
            failover_backoff_ms: 2,
            supervisor_poll_ms: 5,
        }
    }
}

/// Analysis-phase tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// Inline call chains in the hot function before profiling (§II).
    pub inline: bool,
    /// Inlining stops once the function reaches this many instructions.
    pub max_inline_insts: usize,
    /// Run the [`needle_opt`] mid-end (const-fold, CSE, DCE, CFG
    /// simplification, LICM) after inlining and before profiling. Off by
    /// default, and nothing in the CLI, the bench binaries or the
    /// benchmark turns it on; turning it on changes 17 of the 22 paper
    /// tables (ROADMAP item 3).
    pub optimize: bool,
    /// How many top-ranked paths feed Braid construction.
    pub braid_merge_paths: usize,
    /// Global-history bits of the invocation predictor.
    pub predictor_bits: u32,
    /// Cold threshold for Hyperblock waste accounting (Figure 5): blocks
    /// executing fewer than this fraction of the seed count are cold.
    pub cold_fraction: f64,
    /// Interpreter step budget per profiled run.
    pub max_steps: u64,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            inline: true,
            max_inline_insts: 20_000,
            optimize: false,
            braid_merge_paths: 64,
            predictor_bits: 8,
            cold_fraction: 0.10,
            max_steps: 200_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_reasonable() {
        let c = NeedleConfig::default();
        assert!(c.analysis.inline);
        assert_eq!(c.host.fetch_width, 4);
        assert_eq!(c.cgra.num_fus(), 128);
        assert!(c.analysis.cold_fraction < 1.0);
    }
}
