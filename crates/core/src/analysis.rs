//! Step 1 of the pipeline: profile and characterise a hot function.

use std::fmt;

use needle_ir::cfg::Cfg;
use needle_ir::dom::DomTree;
use needle_ir::inline::inline_all;
use needle_ir::interp::{ExecError, Interp, Memory, TeeSink};
use needle_ir::loops::LoopForest;
use needle_ir::verify::verify_module;
use needle_ir::{BlockId, Constant, FuncId, Module};
use needle_profile::bl::BlNumbering;
use needle_profile::profiler::{EdgeProfile, EdgeProfiler, PathProfile, PathProfiler};
use needle_profile::rank::{rank_paths, FunctionRank};
use needle_profile::stats::{bias_histogram, control_flow_stats, BiasHistogram, ControlFlowStats};
use needle_regions::braid::{build_braids, Braid};
use needle_regions::expansion::{expansion_stats, ExpansionStats};
use needle_regions::hyperblock::{build_hyperblock, Hyperblock};
use needle_regions::superblock::{
    build_superblock, superblock_is_feasible, superblock_is_hottest_path, Superblock,
};

use crate::config::NeedleConfig;

/// Everything the profiling phase learns about one workload.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The (possibly inlined) module actually profiled.
    pub module: Module,
    /// The hot function analysed.
    pub func: FuncId,
    /// Number of call sites inlined before profiling.
    pub inlined_calls: usize,
    /// Ball-Larus numbering of the hot function.
    pub numbering: BlNumbering,
    /// Raw path profile (path counts and within-invocation path pairs).
    pub path_profile: PathProfile,
    /// Edge/block profile.
    pub edge_profile: EdgeProfile,
    /// Paths ranked by `Pwt`.
    pub rank: FunctionRank,
    /// Braids built from the top-ranked paths, hottest first.
    pub braids: Vec<Braid>,
    /// Table I control-flow statistics.
    pub stats: ControlFlowStats,
    /// Figure 4 branch-bias histogram.
    pub bias: BiasHistogram,
    /// Table III next-path expansion statistics (None when the top path
    /// is never followed by another within one invocation).
    pub expansion: Option<ExpansionStats>,
    /// The Superblock baseline grown from the hot loop seed.
    pub superblock: Superblock,
    /// Whether the Superblock matches any executed path (§II-B).
    pub superblock_feasible: bool,
    /// Whether the Superblock captures the hottest path.
    pub superblock_hottest: bool,
    /// The Hyperblock baseline from the same seed.
    pub hyperblock: Hyperblock,
    /// Figure 5: fraction of Hyperblock static ops that are cold.
    pub hyperblock_cold_fraction: f64,
    /// The seed block used for the baselines (hot loop body entry).
    pub seed: BlockId,
}

/// Analysis failures.
#[derive(Debug)]
pub enum AnalysisError {
    /// Post-inlining verification failed (generator or inliner bug).
    Verify(String),
    /// The profiled run failed (step budget, malformed IR).
    Exec(ExecError),
    /// The hot function has too many paths to number.
    Numbering(needle_profile::bl::BlError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Verify(e) => write!(f, "verification failed: {e}"),
            AnalysisError::Exec(e) => write!(f, "profiled execution failed: {e}"),
            AnalysisError::Numbering(e) => write!(f, "path numbering failed: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<ExecError> for AnalysisError {
    fn from(e: ExecError) -> AnalysisError {
        AnalysisError::Exec(e)
    }
}

/// Profile `func` of `module` on the interpreter and characterise it:
/// rank, Braids, statistics, expansion and the two baselines.
///
/// The input module is cloned; inlining happens on the clone. `memory` is
/// cloned per run, so the caller's image is untouched.
///
/// # Errors
/// See [`AnalysisError`].
pub fn analyze(
    module: &Module,
    func: FuncId,
    args: &[Constant],
    memory: &Memory,
    cfg: &NeedleConfig,
) -> Result<Analysis, AnalysisError> {
    let mut module = module.clone();
    let inlined_calls = if cfg.analysis.inline {
        inline_all(&mut module, func, cfg.analysis.max_inline_insts)
    } else {
        0
    };
    if cfg.analysis.optimize {
        needle_opt::optimize_module(&mut module, &needle_opt::OptConfig::default());
    }
    verify_module(&module).map_err(|(f, e)| AnalysisError::Verify(format!("{f:?}: {e}")))?;

    // Profile one run with both profilers attached.
    let mut paths = PathProfiler::new(&module);
    let mut edges = EdgeProfiler::new();
    let mut mem = memory.clone();
    Interp::new(&module)
        .with_max_steps(cfg.analysis.max_steps)
        .with_cancel(cfg.cancel.clone())
        .run_with(func, args, &mut mem, &mut TeeSink(&mut paths, &mut edges))?;
    let numbering = paths
        .numbering(func)
        .cloned()
        .ok_or(AnalysisError::Numbering(needle_profile::bl::BlError::TooManyPaths))?;
    let path_profile = paths.profile(func);
    let edge_profile = edges.profile(func);

    let f = module.func(func);
    let rank = rank_paths(f, &numbering, &path_profile);
    let braids = build_braids(f, &rank, cfg.analysis.braid_merge_paths);
    let stats = control_flow_stats(f);
    let bias = bias_histogram(f, &edge_profile);
    let expansion = expansion_stats(&rank, &path_profile);

    let seed = pick_seed(f, &edge_profile);
    let superblock = build_superblock(f, &edge_profile, seed);
    let superblock_feasible = superblock_is_feasible(&superblock, &rank);
    let superblock_hottest = superblock_is_hottest_path(&superblock, &rank);
    let hyperblock = build_hyperblock(f, seed, 256);
    let hyperblock_cold_fraction =
        hyperblock.cold_fraction(f, &edge_profile, cfg.analysis.cold_fraction);

    Ok(Analysis {
        module,
        func,
        inlined_calls,
        numbering,
        path_profile,
        edge_profile,
        rank,
        braids,
        stats,
        bias,
        expansion,
        superblock,
        superblock_feasible,
        superblock_hottest,
        hyperblock,
        hyperblock_cold_fraction,
        seed,
    })
}

/// Seed block for the Superblock/Hyperblock baselines: the hottest block
/// that begins a loop body (the hottest successor of the hottest loop
/// header); falls back to the function entry.
fn pick_seed(f: &needle_ir::Function, profile: &EdgeProfile) -> BlockId {
    let cfg = Cfg::new(f);
    let dom = DomTree::new(&cfg);
    let forest = LoopForest::new(&cfg, &dom);
    let hot_header = forest
        .loops
        .iter()
        .map(|l| l.header)
        .max_by_key(|h| profile.block(*h));
    if let Some(h) = hot_header {
        if let Some((succ, n)) = profile.hottest_successor(h) {
            if n > 0 {
                return succ;
            }
        }
    }
    f.entry()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_workload(name: &str) -> Analysis {
        let w = needle_workloads::by_name(name).unwrap();
        analyze(&w.module, w.func, &w.args, &w.memory, &NeedleConfig::default()).unwrap()
    }

    #[test]
    fn art_analysis_produces_ranked_paths_and_braids() {
        let a = analyze_workload("179.art");
        assert!(a.rank.executed_paths() >= 3);
        assert!(!a.braids.is_empty());
        // Top-5 coverage is high for a 2-diamond loop.
        assert!(a.rank.top_coverage(5) > 0.5);
        // Braids validate against the inlined module.
        for b in a.braids.iter().take(3) {
            b.region.validate(a.module.func(a.func)).unwrap();
        }
        assert!(a.stats.cond_branches >= 3);
        assert!(a.bias.branches >= 3);
        assert!(a.expansion.is_some());
    }

    #[test]
    fn helper_calls_are_inlined_before_profiling() {
        let a = analyze_workload("186.crafty");
        assert!(a.inlined_calls >= 1);
        assert!(!a
            .module
            .func(a.func)
            .insts
            .iter()
            .any(|i| matches!(i.op, needle_ir::Op::Call(_))));
    }

    #[test]
    fn uniform_bias_yields_many_paths_high_bias_few() {
        let crafty = analyze_workload("186.crafty"); // Uniform branches
        let parser = analyze_workload("197.parser"); // High bias
        assert!(
            crafty.rank.executed_paths() > 10 * parser.rank.executed_paths(),
            "crafty {} vs parser {}",
            crafty.rank.executed_paths(),
            parser.rank.executed_paths()
        );
        // High-bias workloads concentrate coverage in the top path.
        assert!(parser.rank.top_coverage(1) > crafty.rank.top_coverage(1));
    }

    #[test]
    fn seed_is_a_loop_body_block() {
        let a = analyze_workload("197.parser");
        // Seed executes as often as the loop body.
        assert!(a.edge_profile.block(a.seed) > 1000);
        assert!(!a.superblock.blocks.is_empty());
        assert!(a.hyperblock.blocks.contains(&a.seed));
    }
}
