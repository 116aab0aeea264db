//! Seeded chaos campaigns: fault injection + differential verification.
//!
//! The speculation machinery (§V) stands on one invariant — aborted
//! invocations are externally invisible and committed ones match the
//! architectural execution bit-for-bit. This module attacks that
//! invariant on purpose: it extracts offload regions from real suite
//! workloads, hammers their frames with seeded faults
//! ([`FaultInjector`]), and checks every single invocation with the
//! differential verifier ([`verify_invocation`]). Faults that are
//! *supposed* to be survivable (forced guard failures, corrupted
//! live-ins, mid-frame kills) must verify clean; faults that genuinely
//! corrupt memory (undo-log truncation, opt-in) must be *detected* —
//! a corruption the verifier misses is as much a campaign failure as an
//! unexpected divergence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use needle_frames::verify::Divergence;
use needle_frames::{
    build_frame, run_frame_with, verify_invocation, Fault, FaultInjector, FaultKind,
    FrameOutcome, InjectorConfig, LiveIn,
};
use needle_ir::interp::{Memory, Val};
use needle_ir::{Function, Type};
use needle_regions::path::PathRegion;
use needle_regions::OffloadRegion;

use crate::analysis::analyze;
use crate::config::NeedleConfig;
use crate::error::NeedleError;
use crate::offload::{simulate_offload_with, OffloadReport, PredictorKind, RegionSpec};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: fixes the fault plan and every live-in draw.
    pub seed: u64,
    /// Total faults to inject, split across all extracted regions.
    pub faults: u64,
    /// Suite workloads to extract regions from.
    pub workloads: Vec<String>,
    /// Also inject undo-log truncation (really corrupts memory; the
    /// campaign then demands the verifier *catch* each corruption).
    pub include_corruption: bool,
    /// Per-invocation fault probability (< 1.0 interleaves clean
    /// invocations between faulty ones).
    pub fault_rate: f64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            faults: 200,
            workloads: vec![
                "179.art".to_string(),
                "183.equake".to_string(),
                "429.mcf".to_string(),
            ],
            include_corruption: false,
            fault_rate: 0.85,
        }
    }
}

/// What happened to one region over its share of the campaign.
#[derive(Debug, Clone)]
pub struct RegionCampaign {
    /// Source workload.
    pub workload: String,
    /// Region flavour (`"braid"` or `"path"`).
    pub label: String,
    /// Frame invocations attempted.
    pub invocations: u64,
    /// Faults actually injected.
    pub injected: u64,
    /// Invocations that committed.
    pub commits: u64,
    /// Invocations that rolled back.
    pub aborts: u64,
    /// Injected faults that genuinely corrupted memory.
    pub expected_corruptions: u64,
    /// Of those, how many the verifier caught as an abort leak.
    pub detected_corruptions: u64,
    /// Divergences on invocations that should have been clean.
    pub unexpected_divergences: u64,
    /// Structural failures (frame exec or verifier refused to run).
    pub errors: u64,
    /// The region could not be framed; it degraded to host-only and
    /// injected nothing (graceful degradation, not a campaign failure).
    pub build_failure: Option<String>,
}

impl RegionCampaign {
    /// Corruptions injected but not flagged by the verifier.
    pub fn missed_detections(&self) -> u64 {
        self.expected_corruptions - self.detected_corruptions
    }
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Per-region results.
    pub campaigns: Vec<RegionCampaign>,
}

impl ChaosReport {
    /// Faults injected across all regions.
    pub fn total_injected(&self) -> u64 {
        self.campaigns.iter().map(|c| c.injected).sum()
    }

    /// Divergences on invocations that should have verified clean.
    pub fn unexpected_divergences(&self) -> u64 {
        self.campaigns.iter().map(|c| c.unexpected_divergences).sum()
    }

    /// Memory corruptions the verifier failed to flag.
    pub fn missed_detections(&self) -> u64 {
        self.campaigns.iter().map(|c| c.missed_detections()).sum()
    }

    /// Structural errors (should be zero).
    pub fn errors(&self) -> u64 {
        self.campaigns.iter().map(|c| c.errors).sum()
    }

    /// The campaign found no speculation bug: nothing diverged
    /// unexpectedly, every real corruption was detected, and nothing
    /// failed structurally.
    pub fn is_clean(&self) -> bool {
        self.unexpected_divergences() == 0 && self.missed_detections() == 0 && self.errors() == 0
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chaos campaign (seed {}): {} faults over {} regions",
            self.seed,
            self.total_injected(),
            self.campaigns.len()
        )?;
        for c in &self.campaigns {
            if let Some(e) = &c.build_failure {
                writeln!(
                    f,
                    "  {:<14} {:<6} frame build failed ({e}); ran host-only",
                    c.workload, c.label
                )?;
                continue;
            }
            writeln!(
                f,
                "  {:<14} {:<6} {:>4} inv, {:>4} faults: {} commits / {} aborts, \
                 corruption {}/{} detected, {} unexpected divergences",
                c.workload,
                c.label,
                c.invocations,
                c.injected,
                c.commits,
                c.aborts,
                c.detected_corruptions,
                c.expected_corruptions,
                c.unexpected_divergences
            )?;
        }
        write!(
            f,
            "verdict: {}",
            if self.is_clean() {
                "CLEAN — rollback is bit-exact under fault injection"
            } else {
                "DIVERGENT — speculation invariant violated"
            }
        )
    }
}

/// A deterministic live-in value of the given type.
pub(crate) fn draw_live_in(rng: &mut StdRng, ty: Type) -> Val {
    match ty {
        Type::I1 => Val::Int(rng.gen_range(0i64..2)),
        Type::I64 => Val::Int(rng.gen_range(-64i64..64)),
        Type::F64 => Val::Float(rng.gen_range(-512i64..512) as f64 * 0.125),
        Type::Ptr => Val::Int(rng.gen_range(0i64..64) * 8),
    }
}

/// Apply the one fault the injector planned for this invocation to the
/// caller's live-in vector, mirroring what the executor did internally —
/// verification must compare against what the frame *actually ran with*.
fn effective_live_ins(live_ins: &[Val], sig: &[LiveIn], fault: Option<&Fault>) -> Vec<Val> {
    let mut eff = live_ins.to_vec();
    if let Some(Fault::CorruptLiveIn { index, mask }) = fault {
        if let Some(li) = sig.get(*index) {
            eff[*index] = Val::from_bits(eff[*index].to_bits() ^ mask, li.ty);
        }
    }
    eff
}

/// Drive one region's share of the campaign.
#[allow(clippy::too_many_arguments)]
fn run_region(
    func: &Function,
    region: &OffloadRegion,
    workload: &str,
    label: &str,
    quota: u64,
    base_mem: &Memory,
    chaos: &ChaosConfig,
    salt: u64,
) -> RegionCampaign {
    let mut camp = RegionCampaign {
        workload: workload.to_string(),
        label: label.to_string(),
        invocations: 0,
        injected: 0,
        commits: 0,
        aborts: 0,
        expected_corruptions: 0,
        detected_corruptions: 0,
        unexpected_divergences: 0,
        errors: 0,
        build_failure: None,
    };
    // Graceful degradation: an unframeable region is reported, not fatal —
    // the host would simply keep executing it.
    let frame = match build_frame(func, region) {
        Ok(f) => f,
        Err(e) => {
            camp.build_failure = Some(e.to_string());
            return camp;
        }
    };

    let mut kinds = vec![
        FaultKind::ForceGuardFail,
        FaultKind::CorruptLiveIn,
        FaultKind::KillAtOp,
    ];
    if chaos.include_corruption {
        kinds.push(FaultKind::TruncateUndo);
    }
    let mut injector = FaultInjector::new(InjectorConfig {
        seed: chaos.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        fault_rate: chaos.fault_rate,
        kinds,
    });
    let mut rng = StdRng::seed_from_u64(chaos.seed.wrapping_add(salt).wrapping_mul(0x2545_F491_4F6C_DD1D));

    let mut mem = base_mem.clone();
    let max_invocations = quota.saturating_mul(4) + 16;
    while camp.injected < quota && camp.invocations < max_invocations {
        camp.invocations += 1;
        let live_ins: Vec<Val> = frame
            .live_ins
            .iter()
            .map(|li| draw_live_in(&mut rng, li.ty))
            .collect();
        let snap = mem.snapshot();
        let logged_before = injector.log.len();
        let outcome = match run_frame_with(&frame, &live_ins, &mut mem, Some(&mut injector)) {
            Ok(o) => o,
            Err(_) => {
                camp.errors += 1;
                mem = snap.restore();
                continue;
            }
        };
        let record = injector.log.get(logged_before).cloned();
        camp.injected = injector.log.len() as u64;
        match &outcome {
            FrameOutcome::Committed { .. } => camp.commits += 1,
            FrameOutcome::Aborted { .. } => camp.aborts += 1,
        }

        let eff = effective_live_ins(&live_ins, &frame.live_ins, record.as_ref().map(|r| &r.fault));
        let verdict = match verify_invocation(func, &frame, &eff, &snap, &mem, &outcome) {
            Ok(v) => v,
            Err(_) => {
                camp.errors += 1;
                mem = snap.restore();
                continue;
            }
        };
        if record.as_ref().is_some_and(|r| r.corrupts_memory) {
            camp.expected_corruptions += 1;
            let caught = verdict
                .divergences
                .iter()
                .any(|d| matches!(d, Divergence::AbortLeak(_)));
            if caught {
                camp.detected_corruptions += 1;
            }
        } else {
            camp.unexpected_divergences += verdict.divergences.len() as u64;
        }
        // Each invocation is independent: rewind (also undoes real
        // corruption from truncated undo logs).
        mem = snap.restore();
    }
    camp
}

/// Run a seeded chaos campaign: extract the top Braid and top BL-path of
/// each workload, inject `cfg.faults` faults across their frames, and
/// differentially verify every invocation.
///
/// # Errors
/// Fails on unknown workloads or when Step-1 analysis itself fails.
/// Per-region frame-build failures degrade gracefully instead (see
/// [`RegionCampaign::build_failure`]).
pub fn run_campaign(chaos: &ChaosConfig, cfg: &NeedleConfig) -> Result<ChaosReport, NeedleError> {
    let mut campaigns = Vec::new();
    // Two regions (braid + path) per workload share the fault budget.
    let region_count = (chaos.workloads.len() * 2).max(1) as u64;
    let quota = chaos.faults.div_ceil(region_count).max(1);

    for (wi, name) in chaos.workloads.iter().enumerate() {
        let w = needle_workloads::by_name(name)
            .ok_or_else(|| NeedleError::UnknownWorkload(name.clone()))?;
        let a = analyze(&w.module, w.func, &w.args, &w.memory, cfg)?;
        let func = a.module.func(a.func);

        let mut regions: Vec<(&str, OffloadRegion)> = Vec::new();
        if let Some(b) = a.braids.first() {
            regions.push(("braid", b.region.clone()));
        }
        if let Some(p) = PathRegion::from_rank(&a.rank, 0) {
            regions.push(("path", p.region));
        }
        if regions.is_empty() {
            return Err(NeedleError::NoRegion("workload produced neither braid nor path"));
        }
        for (ri, (label, region)) in regions.iter().enumerate() {
            campaigns.push(run_region(
                func,
                region,
                name,
                label,
                quota,
                &w.memory,
                chaos,
                (wi * 2 + ri + 1) as u64,
            ));
        }
    }
    Ok(ChaosReport {
        seed: chaos.seed,
        campaigns,
    })
}

/// The abort-storm acceptance scenario: offload a workload's top braid
/// while an injector forces *every* invocation to roll back. The storm
/// detector must trip, blacklist the region, and complete the run with
/// host-only fallbacks.
///
/// # Errors
/// Fails on unknown workloads, analysis failure, or unframeable regions.
pub fn storm_scenario(
    workload: &str,
    seed: u64,
    cfg: &NeedleConfig,
) -> Result<OffloadReport, NeedleError> {
    let w = needle_workloads::by_name(workload)
        .ok_or_else(|| NeedleError::UnknownWorkload(workload.to_string()))?;
    let a = analyze(&w.module, w.func, &w.args, &w.memory, cfg)?;
    let region = a
        .braids
        .first()
        .ok_or(NeedleError::NoRegion("no braids formed"))?
        .region
        .clone();
    let mut injector = FaultInjector::new(InjectorConfig {
        seed,
        fault_rate: 1.0,
        kinds: vec![FaultKind::ForceGuardFail],
    });
    simulate_offload_with(
        &a.module,
        a.func,
        &w.args,
        &w.memory,
        &[RegionSpec {
            func: a.func,
            region,
        }],
        PredictorKind::Oracle,
        cfg,
        Some(&mut injector),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign(include_corruption: bool) -> ChaosReport {
        let chaos = ChaosConfig {
            faults: 40,
            workloads: vec!["179.art".to_string(), "183.equake".to_string()],
            include_corruption,
            ..ChaosConfig::default()
        };
        run_campaign(&chaos, &NeedleConfig::default()).unwrap()
    }

    #[test]
    fn recoverable_faults_never_diverge() {
        let r = small_campaign(false);
        assert!(r.total_injected() >= 30, "injected {}", r.total_injected());
        assert_eq!(r.unexpected_divergences(), 0, "{r}");
        assert_eq!(r.errors(), 0, "{r}");
        assert!(r.is_clean());
    }

    #[test]
    fn real_corruption_is_detected_not_missed() {
        let r = small_campaign(true);
        let expected: u64 = r.campaigns.iter().map(|c| c.expected_corruptions).sum();
        assert!(expected > 0, "campaign never drew TruncateUndo: {r}");
        assert_eq!(r.missed_detections(), 0, "{r}");
        assert!(r.is_clean());
    }

    #[test]
    fn campaigns_are_seed_deterministic() {
        let a = small_campaign(false);
        let b = small_campaign(false);
        for (x, y) in a.campaigns.iter().zip(&b.campaigns) {
            assert_eq!(x.invocations, y.invocations);
            assert_eq!(x.injected, y.injected);
            assert_eq!(x.commits, y.commits);
            assert_eq!(x.aborts, y.aborts);
        }
    }

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let chaos = ChaosConfig {
            workloads: vec!["999.nonesuch".to_string()],
            ..ChaosConfig::default()
        };
        let err = run_campaign(&chaos, &NeedleConfig::default()).unwrap_err();
        assert!(matches!(err, NeedleError::UnknownWorkload(_)));
    }

    #[test]
    fn abort_storm_trips_blacklist_and_completes_host_only() {
        let mut cfg = NeedleConfig::default();
        cfg.storm.threshold = 4;
        cfg.storm.cooldown = 8;
        cfg.storm.retry_budget = 2;
        let r = storm_scenario("183.equake", 7, &cfg).unwrap();
        assert!(r.storms >= 1, "storm never tripped: {r}");
        assert!(r.blacklisted, "region should end the run blacklisted");
        assert!(r.fallbacks > 0, "no host-only fallbacks: {r}");
        // Every fabric abort was an injected one, and the run completed
        // with consistent accounting.
        assert_eq!(r.aborts, r.injected_aborts);
        assert_eq!(r.commits + r.aborts + r.declined + r.fallbacks, r.invocations);
        // Nothing commits on the fabric under a 100% fault rate.
        assert_eq!(r.commits, 0);
    }
}
