//! Step 3: co-simulation of host + CGRA offload (Figures 9 and 10, and
//! §I's configuration switching).
//!
//! The workload executes once on the interpreter for semantics; its event
//! stream feeds a host-only baseline model and, side by side, this
//! module's offload model, which splits time between the host OOO model
//! and the CGRA cost model. When control reaches an offload region's entry
//! block, an invocation predictor (oracle or branch-history table, §V)
//! decides whether to ship the frame to the accelerator:
//!
//! * invoked + all guards pass → the region's events are absorbed by the
//!   accelerator (the host stalls for the frame's makespan + transfers, the
//!   frame's memory traffic touches the shared L2);
//! * invoked + a guard fails → the accelerator burns the full speculative
//!   invocation plus undo-log rollback, then the region re-executes on the
//!   host (its events are replayed into the host model);
//! * not invoked → the region simply runs on the host.
//!
//! Several regions, possibly in different functions, may share the one
//! fabric: invoking a region whose configuration is not resident pays the
//! reconfiguration latency — the switching overhead the paper cites
//! against many per-path accelerators.

use std::collections::BTreeSet;
use std::fmt;

use needle_cgra::{CgraCost, InvocationKind};
use needle_frames::{build_frame, FaultInjector, Frame};
use needle_host::{host_energy_pj, HostSim, HostStats, InvocationPredictor};
use needle_ir::interp::{Interp, Memory, TeeSink, TraceSink};
use needle_ir::{BlockId, Constant, FuncId, InstId, Module, Terminator};
use needle_regions::OffloadRegion;

use crate::breaker::{Admission, CircuitBreaker};
use crate::config::NeedleConfig;
use crate::error::NeedleError;

/// Invocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Perfect knowledge: invoke exactly when the frame will commit (the
    /// paper's Oracle bound).
    Oracle,
    /// The §V branch-history invocation table.
    History,
}

/// One offload region, possibly in a callee of the simulated entry.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Function containing the region.
    pub func: FuncId,
    /// The region itself.
    pub region: OffloadRegion,
}

/// Outcome of comparing baseline and offloaded executions.
#[derive(Debug, Clone)]
pub struct OffloadReport {
    /// Host-only run.
    pub baseline: HostStats,
    /// Baseline energy (pJ).
    pub baseline_energy_pj: f64,
    /// Host-side stats of the offloaded run (stalls included).
    pub offload: HostStats,
    /// Accelerator dynamic energy (pJ).
    pub accel_energy_pj: f64,
    /// Total offloaded-run energy (host + accelerator, pJ).
    pub offload_energy_pj: f64,
    /// Region-entry opportunities observed.
    pub invocations: u64,
    /// Invocations that ran on the accelerator and committed.
    pub commits: u64,
    /// Invocations that ran and rolled back.
    pub aborts: u64,
    /// Aborts forced by fault injection (subset of `aborts`).
    pub injected_aborts: u64,
    /// Opportunities the predictor declined (region ran on the host).
    pub declined: u64,
    /// Opportunities that ran host-only because the region was
    /// blacklisted by the abort-storm detector.
    pub fallbacks: u64,
    /// Times an abort-storm detector tripped and blacklisted its region.
    pub storms: u64,
    /// Whether a region ended the run blacklisted (retry budget spent or
    /// still cooling down).
    pub blacklisted: bool,
    /// Times the fabric loaded a configuration that was not resident.
    pub reconfigurations: u64,
    /// Prediction precision (1.0 for the oracle).
    pub precision: f64,
    /// Dynamic instructions absorbed by committed invocations.
    pub committed_insts: u64,
    /// Total dynamic instructions of the run.
    pub total_insts: u64,
}

impl OffloadReport {
    /// Percent cycle reduction vs the baseline (Figure 9's metric).
    pub fn perf_improvement_pct(&self) -> f64 {
        if self.baseline.cycles == 0 {
            return 0.0;
        }
        (self.baseline.cycles as f64 - self.offload.cycles as f64)
            / self.baseline.cycles as f64
            * 100.0
    }

    /// Percent energy reduction vs the baseline (Figure 10's metric).
    pub fn energy_reduction_pct(&self) -> f64 {
        if self.baseline_energy_pj == 0.0 {
            return 0.0;
        }
        (self.baseline_energy_pj - self.offload_energy_pj) / self.baseline_energy_pj * 100.0
    }

    /// Fraction of dynamic instructions absorbed by the accelerator.
    pub fn coverage(&self) -> f64 {
        if self.total_insts == 0 {
            0.0
        } else {
            self.committed_insts as f64 / self.total_insts as f64
        }
    }
}

impl fmt::Display for OffloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "offload: {:+.1}% cycles, {:+.1}% energy (coverage {:.1}%)",
            self.perf_improvement_pct(),
            self.energy_reduction_pct(),
            self.coverage() * 100.0
        )?;
        writeln!(
            f,
            "  baseline {} cycles / {:.1} µJ → offloaded {} cycles / {:.1} µJ",
            self.baseline.cycles,
            self.baseline_energy_pj / 1e6,
            self.offload.cycles,
            self.offload_energy_pj / 1e6
        )?;
        writeln!(
            f,
            "  invocations {}: {} commits, {} aborts, {} declined (precision {:.2})",
            self.invocations, self.commits, self.aborts, self.declined, self.precision
        )?;
        write!(
            f,
            "  chaos: {} injected aborts, {} storms, {} host fallbacks{}",
            self.injected_aborts,
            self.storms,
            self.fallbacks,
            if self.blacklisted {
                " (region blacklisted)"
            } else {
                ""
            }
        )
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Enter(FuncId),
    Exit(FuncId),
    Block(FuncId, BlockId),
    Edge(FuncId, BlockId, BlockId),
    Mem(FuncId, InstId, u64, bool),
}

/// One region on the shared fabric.
struct Region {
    func: FuncId,
    entry: BlockId,
    exit: BlockId,
    members: BTreeSet<BlockId>,
    edges: BTreeSet<(BlockId, BlockId)>,
    /// The lowered frame (consulted by the fault injector for shape).
    frame: Frame,
    cost: CgraCost,
    /// Abort-storm degradation state (trip/cooldown/probe machine shared
    /// with the serving layer).
    breaker: CircuitBreaker,
}

struct OffloadSim<'m, 'i> {
    host: HostSim,
    module: &'m Module,
    regions: Vec<Region>,
    /// One global-history predictor for every region; `None` is the
    /// oracle.
    predictor: Option<InvocationPredictor>,
    /// Optional chaos hook: a planned fault turns a committing invocation
    /// into a fabric abort (speculation burned, host re-executes).
    injector: Option<&'i mut FaultInjector>,
    /// The region whose invocation `pending` is buffering.
    tracking: Option<usize>,
    predicted: bool,
    pending: Vec<Ev>,
    /// The region whose configuration is on the fabric.
    resident: Option<usize>,
    /// The previous invocation committed and fell straight back into the
    /// region entry: live state is still resident on the fabric (§IV-A
    /// target expansion), so the next commit pays only the makespan.
    chained: bool,
    // accounting
    accel_energy_pj: f64,
    invocations: u64,
    commits: u64,
    aborts: u64,
    injected_aborts: u64,
    declined: u64,
    fallbacks: u64,
    reconfigurations: u64,
    committed_insts: u64,
    total_insts: u64,
}

impl OffloadSim<'_, '_> {
    fn block_size(&self, f: FuncId, bb: BlockId) -> u64 {
        self.module.func(f).block(bb).insts.len() as u64
    }

    fn forward(&mut self, ev: &Ev) {
        match *ev {
            Ev::Enter(f) => self.host.enter(f),
            Ev::Exit(f) => self.host.exit(f),
            Ev::Block(f, bb) => self.host.block(f, bb),
            Ev::Edge(f, a, b) => {
                self.host.edge(f, a, b);
                if let Some(p) = &mut self.predictor {
                    if let Terminator::CondBr { then_bb, .. } = self.module.func(f).block(a).term
                    {
                        p.note_branch(b == then_bb);
                    }
                }
            }
            Ev::Mem(f, i, addr, st) => self.host.mem(f, i, addr, st),
        }
    }

    /// Close the current invocation. `commit` says whether the frame would
    /// have committed. The last `trailing` events of `pending` belong to
    /// the host side (the control transfer after the region) and are
    /// forwarded even on commit.
    fn finalize(&mut self, commit: bool, trailing: usize) {
        let Some(k) = self.tracking.take() else {
            return;
        };
        self.invocations += 1;
        let mut pending = std::mem::take(&mut self.pending);
        let (region_evs, trail) = pending.split_at(pending.len() - trailing);

        let predicted_invoke = match &self.predictor {
            None => commit, // oracle invokes exactly the committing runs
            Some(_) => self.predicted,
        };
        if let Some(p) = &mut self.predictor {
            let predicted = self.predicted;
            p.update(predicted, commit);
            // Past invocation outcomes are part of the history the §V table
            // indexes on (they capture periodic patterns the host-visible
            // branch stream cannot, since committed regions run uncore).
            p.note_branch(commit);
        }

        // Abort-storm gate: a blacklisted region falls back to the host
        // until its cooldown expires, then spends one retry on a probe
        // invocation. A committing probe reopens the region (hysteresis);
        // a failing one re-arms the cooldown. With the retry budget spent
        // the region is host-only for the rest of the run. The machine
        // itself lives in [`CircuitBreaker`]; only invocations the
        // predictor would ship consume admission decisions, and the
        // breaker tracks probe state internally — the commit/abort legs
        // just report the outcome.
        let blocked = predicted_invoke && self.regions[k].breaker.admit() == Admission::Shed;
        let invoke = predicted_invoke && !blocked;

        // Fault injection: a planned fault burns the speculative run and
        // rolls back, exactly like a guard failure.
        let mut fabric_commit = commit;
        if invoke && commit {
            if let Some(inj) = self.injector.as_deref_mut() {
                if inj.plan(&self.regions[k].frame).is_some() {
                    self.injected_aborts += 1;
                    fabric_commit = false;
                }
            }
        }

        if invoke && self.resident != Some(k) {
            self.host.stall(self.regions[k].cost.reconfig_cycles);
            self.reconfigurations += 1;
            self.resident = Some(k);
            self.chained = false;
        }
        let committed = invoke && fabric_commit;
        if committed {
            self.commits += 1;
            let cost = &self.regions[k].cost;
            let cycles = if self.chained {
                cost.chained_commit_cycles
            } else {
                cost.cycles(InvocationKind::Commit)
            };
            self.host.stall(cycles);
            self.accel_energy_pj += cost.energy_pj(InvocationKind::Commit);
            // The frame's memory traffic hits the shared L2 (uncore,
            // coherent): touch it for state + stats.
            for ev in region_evs {
                match *ev {
                    Ev::Mem(_, _, addr, st) => {
                        self.host.hierarchy.access_l2(addr, st);
                    }
                    Ev::Block(f, bb) => {
                        self.committed_insts += self.block_size(f, bb);
                    }
                    _ => {}
                }
            }
            // Clears the abort streak; a clean probe reopens the
            // region with a fresh retry budget.
            self.regions[k].breaker.on_success();
        } else {
            if invoke {
                self.aborts += 1;
                let cost = &self.regions[k].cost;
                self.host.stall(cost.cycles(InvocationKind::Abort));
                self.accel_energy_pj += cost.energy_pj(InvocationKind::Abort);
                // A failed probe spends a retry and re-arms the cooldown;
                // an abort streak past the threshold trips the breaker.
                self.regions[k].breaker.on_failure();
            } else if blocked {
                self.fallbacks += 1;
            } else {
                self.declined += 1;
            }
            // The host (re-)executes the region.
            for ev in region_evs {
                self.forward(ev);
            }
        }
        for ev in trail {
            self.forward(ev);
        }
        // A committed invocation whose trailing control transfer re-enters
        // the region keeps the fabric hot for the next invocation.
        let r = &self.regions[k];
        let reentered = trail
            .iter()
            .any(|e| matches!(*e, Ev::Edge(f, _, to) if f == r.func && to == r.entry));
        self.chained = committed && reentered;
        pending.clear();
        self.pending = pending;
    }

    fn route(&mut self, ev: Ev) {
        if let Ev::Block(f, bb) = ev {
            self.total_insts += self.block_size(f, bb);
        }
        let Some(k) = self.tracking else {
            let hit = match ev {
                Ev::Block(f, bb) => self.regions.iter().position(|r| r.func == f && r.entry == bb),
                _ => None,
            };
            match hit {
                Some(k) => {
                    self.tracking = Some(k);
                    self.predicted = self.predictor.as_ref().map(|p| p.predict()).unwrap_or(true);
                    self.pending.push(ev);
                }
                None => self.forward(&ev),
            }
            return;
        };
        // Tracking: buffer and look for the invocation boundary.
        let r = &self.regions[k];
        match ev {
            Ev::Edge(f, from, to) if f == r.func => {
                let (exits, internal) = (from == r.exit, r.edges.contains(&(from, to)));
                self.pending.push(ev);
                if exits {
                    self.finalize(true, 1);
                } else if !internal {
                    self.finalize(false, 0);
                }
            }
            Ev::Exit(f) if f == r.func => {
                // A return inside the region: commit iff it came from the
                // region exit block.
                let last_block = self
                    .pending
                    .iter()
                    .rev()
                    .find_map(|e| match e {
                        Ev::Block(_, bb) => Some(*bb),
                        _ => None,
                    })
                    .unwrap_or(r.entry);
                let commit = last_block == r.exit;
                self.pending.push(ev);
                self.finalize(commit, 1);
            }
            Ev::Block(f, bb) if f == r.func && !r.members.contains(&bb) => {
                // Shouldn't happen (divergence is caught on edges), but be
                // safe: treat as divergence.
                self.pending.push(ev);
                self.finalize(false, 0);
            }
            _ => self.pending.push(ev),
        }
    }
}

impl TraceSink for OffloadSim<'_, '_> {
    fn enter(&mut self, func: FuncId) {
        self.route(Ev::Enter(func));
    }
    fn exit(&mut self, func: FuncId) {
        self.route(Ev::Exit(func));
    }
    fn block(&mut self, func: FuncId, bb: BlockId) {
        self.route(Ev::Block(func, bb));
    }
    fn edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        self.route(Ev::Edge(func, from, to));
    }
    fn mem(&mut self, func: FuncId, inst: InstId, addr: u64, is_store: bool) {
        self.route(Ev::Mem(func, inst, addr, is_store));
    }
}

/// Simulate offloading `region` of `func` and compare against the
/// host-only baseline.
///
/// # Errors
/// Fails if the region cannot be framed or execution fails.
pub fn simulate_offload(
    module: &Module,
    func: FuncId,
    args: &[Constant],
    memory: &Memory,
    region: &OffloadRegion,
    kind: PredictorKind,
    cfg: &NeedleConfig,
) -> Result<OffloadReport, NeedleError> {
    let spec = RegionSpec {
        func,
        region: region.clone(),
    };
    simulate_offload_with(module, func, args, memory, &[spec], kind, cfg, None)
}

/// Run `entry` with every region in `regions` offloaded to one shared
/// fabric and compare against the host-only baseline. Invoking a region
/// whose configuration is not resident pays the reconfiguration latency.
///
/// `injector` is an optional chaos hook: each invocation the predictor
/// ships to the fabric consults it, and a planned fault forces a rollback
/// (the abort-storm detector then degrades the region to host-only
/// execution once aborts streak past the
/// [`crate::config::StormConfig`] threshold).
///
/// # Errors
/// Fails if a region cannot be framed or execution fails.
#[allow(clippy::too_many_arguments)]
pub fn simulate_offload_with(
    module: &Module,
    entry: FuncId,
    args: &[Constant],
    memory: &Memory,
    regions: &[RegionSpec],
    kind: PredictorKind,
    cfg: &NeedleConfig,
    injector: Option<&mut FaultInjector>,
) -> Result<OffloadReport, NeedleError> {
    let regions = regions
        .iter()
        .map(|spec| {
            let frame = build_frame(module.func(spec.func), &spec.region)?;
            Ok(Region {
                func: spec.func,
                entry: spec.region.entry(),
                exit: spec.region.exit(),
                members: spec.region.blocks.iter().copied().collect(),
                edges: spec.region.edges.clone(),
                cost: CgraCost::new(&cfg.cgra, &frame),
                frame,
                breaker: CircuitBreaker::new(cfg.storm),
            })
        })
        .collect::<Result<Vec<_>, NeedleError>>()?;
    let mut baseline_sim = HostSim::new(module, cfg.host.clone());
    let mut sim = OffloadSim {
        host: HostSim::new(module, cfg.host.clone()),
        module,
        regions,
        predictor: match kind {
            PredictorKind::Oracle => None,
            PredictorKind::History => {
                Some(InvocationPredictor::new(cfg.analysis.predictor_bits))
            }
        },
        injector,
        tracking: None,
        predicted: false,
        pending: Vec::new(),
        resident: None,
        chained: false,
        accel_energy_pj: 0.0,
        invocations: 0,
        commits: 0,
        aborts: 0,
        injected_aborts: 0,
        declined: 0,
        fallbacks: 0,
        reconfigurations: 0,
        committed_insts: 0,
        total_insts: 0,
    };
    // One interpreter run feeds the host-only baseline and the offload
    // model the same event stream.
    let mut mem = memory.clone();
    Interp::new(module)
        .with_max_steps(cfg.analysis.max_steps)
        .with_cancel(cfg.cancel.clone())
        .run_with(entry, args, &mut mem, &mut TeeSink(&mut baseline_sim, &mut sim))?;
    // A run that ended mid-region (cannot happen for well-formed regions)
    // drains as a divergence.
    sim.finalize(false, 0);
    let baseline = baseline_sim.finish();
    let baseline_energy_pj = host_energy_pj(&cfg.energy, &baseline);
    let offload = sim.host.finish();
    let offload_energy_pj = host_energy_pj(&cfg.energy, &offload) + sim.accel_energy_pj;

    Ok(OffloadReport {
        baseline,
        baseline_energy_pj,
        offload,
        accel_energy_pj: sim.accel_energy_pj,
        offload_energy_pj,
        invocations: sim.invocations,
        commits: sim.commits,
        aborts: sim.aborts,
        injected_aborts: sim.injected_aborts,
        declined: sim.declined,
        fallbacks: sim.fallbacks,
        storms: sim.regions.iter().map(|r| r.breaker.trips()).sum(),
        blacklisted: sim.regions.iter().any(|r| r.breaker.is_open()),
        reconfigurations: sim.reconfigurations,
        precision: sim.predictor.as_ref().map(|p| p.precision()).unwrap_or(1.0),
        committed_insts: sim.committed_insts,
        total_insts: sim.total_insts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use needle_regions::path::PathRegion;

    fn offload_workload(name: &str, kind: PredictorKind, braid: bool) -> OffloadReport {
        let w = needle_workloads::by_name(name).unwrap();
        let cfg = NeedleConfig::default();
        let a = analyze(&w.module, w.func, &w.args, &w.memory, &cfg).unwrap();
        let region = if braid {
            a.braids[0].region.clone()
        } else {
            PathRegion::from_rank(&a.rank, 0).unwrap().region
        };
        simulate_offload(&a.module, a.func, &w.args, &w.memory, &region, kind, &cfg).unwrap()
    }

    #[test]
    fn predictable_fp_workload_speeds_up_with_braid() {
        let r = offload_workload("183.equake", PredictorKind::History, true);
        assert!(r.invocations > 1000, "invocations {}", r.invocations);
        assert!(
            r.commits > r.aborts,
            "commits {} aborts {}",
            r.commits,
            r.aborts
        );
        assert!(
            r.perf_improvement_pct() > 0.0,
            "perf {:.1}%",
            r.perf_improvement_pct()
        );
        assert!(r.coverage() > 0.3, "coverage {:.2}", r.coverage());
    }

    #[test]
    fn oracle_never_aborts() {
        let r = offload_workload("186.crafty", PredictorKind::Oracle, false);
        assert_eq!(r.aborts, 0);
        assert_eq!(r.precision, 1.0);
        // Declined opportunities ran on the host.
        assert_eq!(r.invocations, r.commits + r.declined);
        // One region: configured once, resident for the rest of the run.
        assert_eq!(r.reconfigurations, 1);
    }

    #[test]
    fn braid_commits_at_least_as_often_as_path() {
        // Braids merge multiple flows of control: fewer guard failures.
        let p = offload_workload("179.art", PredictorKind::History, false);
        let b = offload_workload("179.art", PredictorKind::History, true);
        let p_rate = p.commits as f64 / p.invocations.max(1) as f64;
        let b_rate = b.commits as f64 / b.invocations.max(1) as f64;
        assert!(
            b_rate >= p_rate - 1e-9,
            "braid commit rate {b_rate:.3} < path {p_rate:.3}"
        );
    }

    #[test]
    fn energy_reduction_tracks_coverage() {
        let r = offload_workload("456.hmmer", PredictorKind::History, true);
        assert!(
            r.energy_reduction_pct() > 0.0,
            "energy {:.1}%",
            r.energy_reduction_pct()
        );
        assert!(r.offload_energy_pj < r.baseline_energy_pj);
        assert!(r.accel_energy_pj > 0.0);
    }

    #[test]
    fn semantics_are_untouched_by_offload_simulation() {
        // The memory image passed in is cloned: repeated simulations agree.
        let a = offload_workload("429.mcf", PredictorKind::History, true);
        let b = offload_workload("429.mcf", PredictorKind::History, true);
        assert_eq!(a.baseline.cycles, b.baseline.cycles);
        assert_eq!(a.offload.cycles, b.offload.cycles);
        assert_eq!(a.commits, b.commits);
    }

    #[test]
    fn single_region_multi_sim_matches_structure() {
        let w = needle_workloads::by_name("197.parser").unwrap();
        let cfg = NeedleConfig::default();
        let a = analyze(&w.module, w.func, &w.args, &w.memory, &cfg).unwrap();
        let specs = vec![RegionSpec {
            func: a.func,
            region: a.braids[0].region.clone(),
        }];
        let r = simulate_offload_with(
            &a.module,
            a.func,
            &w.args,
            &w.memory,
            &specs,
            PredictorKind::Oracle,
            &cfg,
            None,
        )
        .unwrap();
        // One region resident the whole time: exactly one reconfiguration.
        assert_eq!(r.reconfigurations, 1);
        assert!(r.commits > 1000);
        assert!(r.perf_improvement_pct() > 0.0);
        // The oracle declines instead of aborting.
        assert_eq!(r.aborts, 0);
        assert_eq!(r.invocations, r.commits + r.declined);
    }

    #[test]
    fn two_regions_in_one_function_both_fire() {
        // Top braid and the second braid (different entry/exit) coexist.
        let w = needle_workloads::by_name("175.vpr").unwrap();
        let cfg = NeedleConfig::default();
        let a = analyze(&w.module, w.func, &w.args, &w.memory, &cfg).unwrap();
        if a.braids.len() < 2 {
            return; // nothing to test on this seed
        }
        // Pick two braids with distinct entries.
        let first = a.braids[0].region.clone();
        let Some(second) = a
            .braids
            .iter()
            .map(|b| &b.region)
            .find(|r| r.entry() != first.entry())
            .cloned()
        else {
            return;
        };
        let specs = vec![
            RegionSpec {
                func: a.func,
                region: first,
            },
            RegionSpec {
                func: a.func,
                region: second,
            },
        ];
        let r = simulate_offload_with(
            &a.module,
            a.func,
            &w.args,
            &w.memory,
            &specs,
            PredictorKind::Oracle,
            &cfg,
            None,
        )
        .unwrap();
        assert!(r.commits > 0);
        assert!(r.reconfigurations >= 1);
    }
}
