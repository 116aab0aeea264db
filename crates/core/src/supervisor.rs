//! Supervised campaign runner: panic-isolated workers, deadlines,
//! degrading retries, and crash-safe checkpoint/resume.
//!
//! The paper's value claim is whole-suite — 29 workloads ranked and
//! offloaded in one sweep — so the pipeline must survive one workload's
//! analysis, region formation, or scheduling blowing up. This module
//! runs *campaign units* (one workload × one stage chain: profile →
//! rank → region → frame → offload or chaos) on a pool of worker
//! threads where:
//!
//! * every attempt runs inside [`std::panic::catch_unwind`] on its own
//!   thread — a panicking unit is an outcome ([`UnitOutcome::Panicked`]),
//!   not a dead campaign;
//! * a wall-clock deadline bounds each attempt on top of the
//!   interpreter's `max_steps` fuel — the supervisor waits with
//!   `recv_timeout` and abandons overdue attempts
//!   ([`UnitOutcome::TimedOut`]); interpreter fuel exhaustion is
//!   classified the same way (both are budget exhaustion);
//! * failed attempts retry with exponential backoff, and every retry
//!   *degrades* the unit (lower `max_steps`, smaller Braid merge cap,
//!   then path-only regions) — see [`degraded_config`] — so a unit that
//!   cannot afford the full pipeline still produces a cheaper result
//!   ([`UnitOutcome::Degraded`]) before being marked failed-with-cause;
//! * progress is journaled ([`crate::journal`]) before the campaign
//!   acts on it, so a killed process resumes with
//!   [`CampaignOptions::resume`]: completed units are replayed from the
//!   journal, in-flight and unstarted ones are re-queued.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use needle_frames::symeq::fnv1a64;
use needle_ir::interp::{CancelToken, ExecError};
use needle_regions::path::PathRegion;

use crate::analysis::{analyze, AnalysisError};
use crate::chaos::{run_campaign, ChaosConfig};
use crate::config::{NeedleConfig, SupervisorConfig};
use crate::error::NeedleError;
use crate::journal::{self, Journal, JournalError, Json};
use crate::offload::{simulate_offload, PredictorKind};

/// What one campaign unit runs.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitKind {
    /// Full Step-1→3 chain: analyze, pick the top region, co-simulate
    /// offload.
    Offload {
        /// Offload the top BL-path instead of the top Braid.
        path: bool,
        /// Use the oracle predictor instead of the history table.
        oracle: bool,
    },
    /// Seeded fault-injection campaign over this workload's regions.
    Chaos {
        /// Master seed for the unit's fault plan.
        seed: u64,
        /// Fault budget for this unit.
        faults: u64,
        /// Also inject undo-log truncation.
        include_corruption: bool,
        /// Per-invocation fault probability.
        fault_rate: f64,
    },
    /// Differential fuzzing shard: `iters` oracle iterations starting at
    /// global index `start` (workload field is ignored; the campaign
    /// seed fully determines the case stream).
    Fuzz {
        /// Campaign master seed.
        seed: u64,
        /// First global iteration index of this shard.
        start: u64,
        /// Iterations in this shard.
        iters: u64,
        /// Shrink failures and write repro files.
        minimize: bool,
        /// Repro output directory (only used when `minimize`).
        repro_dir: Option<String>,
    },
    /// Deliberately panics — exercises worker isolation.
    PanicProbe,
    /// Spins until cancelled — exercises the deadline watchdog.
    SpinProbe,
    /// Fails until the degradation ladder reaches `succeed_at` —
    /// exercises degrading retries.
    FlakyProbe {
        /// Degradation level at which the probe starts succeeding.
        succeed_at: u32,
    },
}

impl UnitKind {
    fn label(&self) -> &'static str {
        match self {
            UnitKind::Offload { .. } => "offload",
            UnitKind::Chaos { .. } => "chaos",
            UnitKind::Fuzz { .. } => "fuzz",
            UnitKind::PanicProbe => "panic-probe",
            UnitKind::SpinProbe => "spin-probe",
            UnitKind::FlakyProbe { .. } => "flaky-probe",
        }
    }

    fn to_json(&self) -> Json {
        match self {
            UnitKind::Offload { path, oracle } => Json::Obj(vec![
                ("k".into(), Json::Str("offload".into())),
                ("path".into(), Json::Bool(*path)),
                ("oracle".into(), Json::Bool(*oracle)),
            ]),
            UnitKind::Chaos {
                seed,
                faults,
                include_corruption,
                fault_rate,
            } => Json::Obj(vec![
                ("k".into(), Json::Str("chaos".into())),
                // u64 seeds may exceed i64; ship as a string.
                ("seed".into(), Json::Str(seed.to_string())),
                ("faults".into(), Json::Int(*faults as i64)),
                ("corruption".into(), Json::Bool(*include_corruption)),
                ("rate".into(), Json::Float(*fault_rate)),
            ]),
            UnitKind::Fuzz {
                seed,
                start,
                iters,
                minimize,
                repro_dir,
            } => {
                let mut fields = vec![
                    ("k".into(), Json::Str("fuzz".into())),
                    ("seed".into(), Json::Str(seed.to_string())),
                    ("start".into(), Json::Int(*start as i64)),
                    ("iters".into(), Json::Int(*iters as i64)),
                    ("minimize".into(), Json::Bool(*minimize)),
                ];
                if let Some(dir) = repro_dir {
                    fields.push(("dir".into(), Json::Str(dir.clone())));
                }
                Json::Obj(fields)
            }
            UnitKind::PanicProbe => {
                Json::Obj(vec![("k".into(), Json::Str("panic-probe".into()))])
            }
            UnitKind::SpinProbe => {
                Json::Obj(vec![("k".into(), Json::Str("spin-probe".into()))])
            }
            UnitKind::FlakyProbe { succeed_at } => Json::Obj(vec![
                ("k".into(), Json::Str("flaky-probe".into())),
                ("at".into(), Json::Int(*succeed_at as i64)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Option<UnitKind> {
        match v.get("k")?.as_str()? {
            "offload" => Some(UnitKind::Offload {
                path: v.get("path")?.as_bool()?,
                oracle: v.get("oracle")?.as_bool()?,
            }),
            "chaos" => Some(UnitKind::Chaos {
                seed: v.get("seed")?.as_str()?.parse().ok()?,
                faults: v.get("faults")?.as_u64()?,
                include_corruption: v.get("corruption")?.as_bool()?,
                fault_rate: v.get("rate")?.as_f64()?,
            }),
            "fuzz" => Some(UnitKind::Fuzz {
                seed: v.get("seed")?.as_str()?.parse().ok()?,
                start: v.get("start")?.as_u64()?,
                iters: v.get("iters")?.as_u64()?,
                minimize: v.get("minimize")?.as_bool()?,
                repro_dir: v.get("dir").and_then(|d| d.as_str()).map(String::from),
            }),
            "panic-probe" => Some(UnitKind::PanicProbe),
            "spin-probe" => Some(UnitKind::SpinProbe),
            "flaky-probe" => Some(UnitKind::FlakyProbe {
                succeed_at: v.get("at")?.as_u64()? as u32,
            }),
            _ => None,
        }
    }
}

/// One workload × one stage chain.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignUnit {
    /// Suite workload name (probes ignore it).
    pub workload: String,
    /// The stage chain to run.
    pub kind: UnitKind,
}

impl CampaignUnit {
    /// A braid-offload unit with the history predictor — the default
    /// suite chain.
    pub fn offload(workload: impl Into<String>) -> CampaignUnit {
        CampaignUnit {
            workload: workload.into(),
            kind: UnitKind::Offload {
                path: false,
                oracle: false,
            },
        }
    }

    /// A chaos unit with the given seed and fault budget.
    pub fn chaos(workload: impl Into<String>, seed: u64, faults: u64) -> CampaignUnit {
        CampaignUnit {
            workload: workload.into(),
            kind: UnitKind::Chaos {
                seed,
                faults,
                include_corruption: false,
                fault_rate: 0.85,
            },
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("w".into(), Json::Str(self.workload.clone())),
            ("kind".into(), self.kind.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Option<CampaignUnit> {
        Some(CampaignUnit {
            workload: v.get("w")?.as_str()?.to_string(),
            kind: UnitKind::from_json(v.get("kind")?)?,
        })
    }
}

/// Terminal state of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitOutcome {
    /// First attempt, full configuration, succeeded.
    Ok,
    /// Succeeded only after the degradation ladder kicked in.
    Degraded,
    /// Every attempt exceeded its wall-clock deadline or interpreter
    /// fuel budget.
    TimedOut,
    /// Every attempt ended in a caught panic.
    Panicked,
    /// Every attempt ended in a typed pipeline error.
    Failed,
}

impl UnitOutcome {
    /// Stable string form (journal + display).
    pub fn as_str(self) -> &'static str {
        match self {
            UnitOutcome::Ok => "ok",
            UnitOutcome::Degraded => "degraded",
            UnitOutcome::TimedOut => "timed-out",
            UnitOutcome::Panicked => "panicked",
            UnitOutcome::Failed => "failed",
        }
    }

    fn from_str(s: &str) -> Option<UnitOutcome> {
        Some(match s {
            "ok" => UnitOutcome::Ok,
            "degraded" => UnitOutcome::Degraded,
            "timed-out" => UnitOutcome::TimedOut,
            "panicked" => UnitOutcome::Panicked,
            "failed" => UnitOutcome::Failed,
            _ => return None,
        })
    }

    /// Did the unit produce a result?
    pub fn succeeded(self) -> bool {
        matches!(self, UnitOutcome::Ok | UnitOutcome::Degraded)
    }
}

impl std::fmt::Display for UnitOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` (not `write_str`) so `{:<10}` table columns line up.
        f.pad(self.as_str())
    }
}

/// The result data a successful unit hands back.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitPayload {
    /// Offload co-simulation summary.
    Offload {
        /// Performance improvement over host-only, percent.
        perf_pct: f64,
        /// Net energy reduction, percent.
        energy_pct: f64,
        /// Dynamic-instruction coverage of committed invocations.
        coverage: f64,
        /// Region-entry opportunities.
        invocations: u64,
        /// Committed fabric invocations.
        commits: u64,
        /// Rolled-back fabric invocations.
        aborts: u64,
    },
    /// Chaos campaign counters, aggregated over the unit's regions.
    Chaos {
        /// Regions the unit attacked.
        regions: u64,
        /// Frame invocations attempted.
        invocations: u64,
        /// Faults injected.
        injected: u64,
        /// Committed invocations.
        commits: u64,
        /// Rolled-back invocations.
        aborts: u64,
        /// Faults that genuinely corrupted memory.
        expected_corruptions: u64,
        /// Of those, how many the verifier caught.
        detected_corruptions: u64,
        /// Divergences on should-be-clean invocations.
        unexpected_divergences: u64,
        /// Structural errors.
        errors: u64,
    },
    /// Differential-fuzz shard counters.
    Fuzz {
        /// Oracle iterations executed.
        iters: u64,
        /// Freshly generated cases.
        generated: u64,
        /// Mutated-workload cases.
        mutated: u64,
        /// Cases where the frame leg reached a verdict.
        frame_checked: u64,
        /// Distinct failure signatures found.
        failures: u64,
        /// Comma-joined failure signatures (empty when clean).
        signatures: String,
    },
}

impl UnitPayload {
    fn to_json(&self) -> Json {
        match self {
            UnitPayload::Offload {
                perf_pct,
                energy_pct,
                coverage,
                invocations,
                commits,
                aborts,
            } => Json::Obj(vec![
                ("t".into(), Json::Str("offload".into())),
                ("perf".into(), Json::Float(*perf_pct)),
                ("energy".into(), Json::Float(*energy_pct)),
                ("cov".into(), Json::Float(*coverage)),
                ("inv".into(), Json::Int(*invocations as i64)),
                ("commits".into(), Json::Int(*commits as i64)),
                ("aborts".into(), Json::Int(*aborts as i64)),
            ]),
            UnitPayload::Chaos {
                regions,
                invocations,
                injected,
                commits,
                aborts,
                expected_corruptions,
                detected_corruptions,
                unexpected_divergences,
                errors,
            } => Json::Obj(vec![
                ("t".into(), Json::Str("chaos".into())),
                ("regions".into(), Json::Int(*regions as i64)),
                ("inv".into(), Json::Int(*invocations as i64)),
                ("injected".into(), Json::Int(*injected as i64)),
                ("commits".into(), Json::Int(*commits as i64)),
                ("aborts".into(), Json::Int(*aborts as i64)),
                ("exp_corr".into(), Json::Int(*expected_corruptions as i64)),
                ("det_corr".into(), Json::Int(*detected_corruptions as i64)),
                ("diverged".into(), Json::Int(*unexpected_divergences as i64)),
                ("errors".into(), Json::Int(*errors as i64)),
            ]),
            UnitPayload::Fuzz {
                iters,
                generated,
                mutated,
                frame_checked,
                failures,
                signatures,
            } => Json::Obj(vec![
                ("t".into(), Json::Str("fuzz".into())),
                ("iters".into(), Json::Int(*iters as i64)),
                ("gen".into(), Json::Int(*generated as i64)),
                ("mut".into(), Json::Int(*mutated as i64)),
                ("frames".into(), Json::Int(*frame_checked as i64)),
                ("failures".into(), Json::Int(*failures as i64)),
                ("sigs".into(), Json::Str(signatures.clone())),
            ]),
        }
    }

    fn from_json(v: &Json) -> Option<UnitPayload> {
        match v.get("t")?.as_str()? {
            "offload" => Some(UnitPayload::Offload {
                perf_pct: v.get("perf")?.as_f64()?,
                energy_pct: v.get("energy")?.as_f64()?,
                coverage: v.get("cov")?.as_f64()?,
                invocations: v.get("inv")?.as_u64()?,
                commits: v.get("commits")?.as_u64()?,
                aborts: v.get("aborts")?.as_u64()?,
            }),
            "chaos" => Some(UnitPayload::Chaos {
                regions: v.get("regions")?.as_u64()?,
                invocations: v.get("inv")?.as_u64()?,
                injected: v.get("injected")?.as_u64()?,
                commits: v.get("commits")?.as_u64()?,
                aborts: v.get("aborts")?.as_u64()?,
                expected_corruptions: v.get("exp_corr")?.as_u64()?,
                detected_corruptions: v.get("det_corr")?.as_u64()?,
                unexpected_divergences: v.get("diverged")?.as_u64()?,
                errors: v.get("errors")?.as_u64()?,
            }),
            "fuzz" => Some(UnitPayload::Fuzz {
                iters: v.get("iters")?.as_u64()?,
                generated: v.get("gen")?.as_u64()?,
                mutated: v.get("mut")?.as_u64()?,
                frame_checked: v.get("frames")?.as_u64()?,
                failures: v.get("failures")?.as_u64()?,
                signatures: v.get("sigs")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }
}

impl std::fmt::Display for UnitPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnitPayload::Offload {
                perf_pct,
                energy_pct,
                coverage,
                ..
            } => write!(
                f,
                "perf {perf_pct:+.1}% energy {energy_pct:+.1}% coverage {:.0}%",
                coverage * 100.0
            ),
            UnitPayload::Chaos {
                injected,
                expected_corruptions,
                detected_corruptions,
                unexpected_divergences,
                errors,
                ..
            } => write!(
                f,
                "{injected} faults, corruption {detected_corruptions}/{expected_corruptions} \
                 detected, {unexpected_divergences} divergences, {errors} errors"
            ),
            UnitPayload::Fuzz {
                iters,
                generated,
                mutated,
                frame_checked,
                failures,
                signatures,
            } => {
                write!(
                    f,
                    "{iters} iters ({generated} gen, {mutated} mut), {frame_checked} frame-checked, \
                     {failures} failure(s)"
                )?;
                if !signatures.is_empty() {
                    write!(f, " [{signatures}]")?;
                }
                Ok(())
            }
        }
    }
}

/// Final record of one unit.
#[derive(Debug, Clone)]
pub struct UnitReport {
    /// The unit.
    pub unit: CampaignUnit,
    /// Terminal state.
    pub outcome: UnitOutcome,
    /// Attempts spent (1 = first try).
    pub attempts: u32,
    /// Degradation level of the last attempt (0 = full config).
    pub degrade_level: u32,
    /// Wall time across all attempts, milliseconds.
    pub wall_ms: u64,
    /// Failure cause of the last attempt, if any.
    pub cause: Option<String>,
    /// Result data, if the unit succeeded.
    pub payload: Option<UnitPayload>,
    /// Whether this result was replayed from the journal on resume.
    pub resumed: bool,
}

impl UnitReport {
    /// Field-wise equality that ignores wall time and resume provenance
    /// — the equality a resumed campaign must satisfy against an
    /// uninterrupted one.
    pub fn equivalent(&self, other: &UnitReport) -> bool {
        self.unit == other.unit
            && self.outcome == other.outcome
            && self.attempts == other.attempts
            && self.degrade_level == other.degrade_level
            && self.payload == other.payload
    }

    fn to_json(&self, idx: usize) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str("done".into())),
            ("unit".into(), Json::Int(idx as i64)),
            ("outcome".into(), Json::Str(self.outcome.as_str().into())),
            ("attempts".into(), Json::Int(self.attempts as i64)),
            ("level".into(), Json::Int(self.degrade_level as i64)),
            ("wall_ms".into(), Json::Int(self.wall_ms as i64)),
            (
                "cause".into(),
                match &self.cause {
                    Some(c) => Json::Str(c.clone()),
                    None => Json::Null,
                },
            ),
            (
                "payload".into(),
                match &self.payload {
                    Some(p) => p.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn from_json(v: &Json, unit: CampaignUnit) -> Option<UnitReport> {
        Some(UnitReport {
            unit,
            outcome: UnitOutcome::from_str(v.get("outcome")?.as_str()?)?,
            attempts: v.get("attempts")?.as_u64()? as u32,
            degrade_level: v.get("level")?.as_u64()? as u32,
            wall_ms: v.get("wall_ms")?.as_u64()?,
            cause: v.get("cause").and_then(|c| c.as_str()).map(str::to_string),
            payload: v.get("payload").and_then(UnitPayload::from_json),
            resumed: true,
        })
    }
}

/// Aggregate result of a supervised campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-unit results, in unit order.
    pub units: Vec<UnitReport>,
    /// How many results were replayed from the journal.
    pub resumed: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Campaign wall time, milliseconds.
    pub wall_ms: u64,
    /// Attempt threads spawned by this campaign that are still running
    /// (deadline-missed attempts that have not yet observed their
    /// cancellation token).
    live_attempts: Arc<AtomicUsize>,
}

impl CampaignReport {
    /// Units that ended in the given outcome.
    pub fn count(&self, o: UnitOutcome) -> usize {
        self.units.iter().filter(|u| u.outcome == o).count()
    }

    /// Abandoned attempt threads still burning CPU. The campaign does not
    /// wait for deadline-missed attempts on exit; instead their config
    /// carries a [`CancelToken`] wired to the per-attempt cancel flag, so
    /// each stops within the engine's cancellation check interval. This
    /// counter observes that: it drops to zero once every abandoned
    /// thread has terminated.
    pub fn live_attempt_threads(&self) -> usize {
        self.live_attempts.load(Ordering::SeqCst)
    }

    /// Every unit produced a result (possibly degraded).
    pub fn all_succeeded(&self) -> bool {
        self.units.iter().all(|u| u.outcome.succeeded())
    }

    /// Unit-wise [`UnitReport::equivalent`] against another report.
    pub fn equivalent(&self, other: &CampaignReport) -> bool {
        self.units.len() == other.units.len()
            && self
                .units
                .iter()
                .zip(&other.units)
                .all(|(a, b)| a.equivalent(b))
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "supervised campaign: {} units ({} resumed), {} workers, wall {:.1}s",
            self.units.len(),
            self.resumed,
            self.workers,
            self.wall_ms as f64 / 1000.0
        )?;
        writeln!(
            f,
            "  {:<3} {:<14} {:<12} {:<10} {:>3} {:>3} {:>8}  detail",
            "#", "workload", "kind", "outcome", "att", "lvl", "wall"
        )?;
        for (i, u) in self.units.iter().enumerate() {
            let detail = match (&u.payload, &u.cause) {
                (Some(p), _) => p.to_string(),
                (None, Some(c)) => c.clone(),
                (None, None) => String::new(),
            };
            writeln!(
                f,
                "  {:<3} {:<14} {:<12} {:<10} {:>3} {:>3} {:>7.1}s  {}{}",
                i,
                u.unit.workload,
                u.unit.kind.label(),
                u.outcome,
                u.attempts,
                u.degrade_level,
                u.wall_ms as f64 / 1000.0,
                if u.resumed { "(resumed) " } else { "" },
                detail
            )?;
        }
        write!(
            f,
            "outcomes: {} ok / {} degraded / {} timed-out / {} panicked / {} failed",
            self.count(UnitOutcome::Ok),
            self.count(UnitOutcome::Degraded),
            self.count(UnitOutcome::TimedOut),
            self.count(UnitOutcome::Panicked),
            self.count(UnitOutcome::Failed)
        )
    }
}

/// Runtime options of one campaign run (policy lives in
/// [`SupervisorConfig`]).
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Journal file; `None` disables checkpointing.
    pub journal: Option<std::path::PathBuf>,
    /// Resume from the journal instead of starting fresh.
    pub resume: bool,
    /// Test hook: simulate a process kill after this many journal
    /// records (header included).
    pub kill_after_records: Option<usize>,
}

/// The degradation ladder: each retry trades fidelity for survivability.
///
/// * level 0 — full configuration;
/// * level 1 — interpreter fuel ÷ 8, Braid merge cap halved;
/// * level ≥ 2 — fuel ÷ 64, merge cap 8, and regions degrade from Braid
///   to the top BL-path (smaller frames, cheaper scheduling).
///
/// Returns the degraded config and whether regions must be path-only.
pub fn degraded_config(base: &NeedleConfig, level: u32) -> (NeedleConfig, bool) {
    let mut cfg = base.clone();
    match level {
        0 => (cfg, false),
        1 => {
            cfg.analysis.max_steps = (base.analysis.max_steps / 8).max(100_000);
            cfg.analysis.braid_merge_paths = (base.analysis.braid_merge_paths / 2).max(4);
            (cfg, false)
        }
        _ => {
            cfg.analysis.max_steps = (base.analysis.max_steps / 64).max(100_000);
            cfg.analysis.braid_merge_paths = 8;
            (cfg, true)
        }
    }
}

/// Run one unit's stage chain at the given degradation level.
fn execute_unit(
    unit: &CampaignUnit,
    cfg: &NeedleConfig,
    level: u32,
    cancel: &AtomicBool,
) -> Result<Option<UnitPayload>, NeedleError> {
    match &unit.kind {
        UnitKind::Offload { path, oracle } => {
            let w = needle_workloads::by_name(&unit.workload)
                .ok_or_else(|| NeedleError::UnknownWorkload(unit.workload.clone()))?;
            let (cfg, path_only) = degraded_config(cfg, level);
            let a = analyze(&w.module, w.func, &w.args, &w.memory, &cfg)?;
            let region = if *path || path_only {
                PathRegion::from_rank(&a.rank, 0).map(|p| p.region)
            } else {
                a.braids
                    .first()
                    .map(|b| b.region.clone())
                    .or_else(|| PathRegion::from_rank(&a.rank, 0).map(|p| p.region))
            }
            .ok_or(NeedleError::NoRegion("neither braid nor path formed"))?;
            let predictor = if *oracle {
                PredictorKind::Oracle
            } else {
                PredictorKind::History
            };
            let r = simulate_offload(
                &a.module, a.func, &w.args, &w.memory, &region, predictor, &cfg,
            )?;
            Ok(Some(UnitPayload::Offload {
                perf_pct: r.perf_improvement_pct(),
                energy_pct: r.energy_reduction_pct(),
                coverage: r.coverage(),
                invocations: r.invocations,
                commits: r.commits,
                aborts: r.aborts,
            }))
        }
        UnitKind::Chaos {
            seed,
            faults,
            include_corruption,
            fault_rate,
        } => {
            let (cfg, _) = degraded_config(cfg, level);
            let chaos = ChaosConfig {
                seed: *seed,
                faults: *faults,
                workloads: vec![unit.workload.clone()],
                include_corruption: *include_corruption,
                fault_rate: *fault_rate,
            };
            let rep = run_campaign(&chaos, &cfg)?;
            let mut p = UnitPayload::Chaos {
                regions: rep.campaigns.len() as u64,
                invocations: 0,
                injected: 0,
                commits: 0,
                aborts: 0,
                expected_corruptions: 0,
                detected_corruptions: 0,
                unexpected_divergences: 0,
                errors: 0,
            };
            if let UnitPayload::Chaos {
                invocations,
                injected,
                commits,
                aborts,
                expected_corruptions,
                detected_corruptions,
                unexpected_divergences,
                errors,
                ..
            } = &mut p
            {
                for c in &rep.campaigns {
                    *invocations += c.invocations;
                    *injected += c.injected;
                    *commits += c.commits;
                    *aborts += c.aborts;
                    *expected_corruptions += c.expected_corruptions;
                    *detected_corruptions += c.detected_corruptions;
                    *unexpected_divergences += c.unexpected_divergences;
                    *errors += c.errors;
                }
            }
            Ok(Some(p))
        }
        UnitKind::Fuzz {
            seed,
            start,
            iters,
            minimize,
            repro_dir,
        } => {
            // Degrade by shrinking the shard, keeping the global start
            // index: a degraded retry still fuzzes the same case stream
            // prefix, so results remain comparable across attempts.
            let iters = match level {
                0 => *iters,
                1 => (*iters / 8).max(1),
                _ => (*iters / 64).max(1),
            };
            let fcfg = crate::fuzz::FuzzConfig {
                seed: *seed,
                start: *start,
                iters,
                minimize: *minimize,
                repro_dir: repro_dir.as_ref().map(std::path::PathBuf::from),
                ..crate::fuzz::FuzzConfig::default()
            };
            let rep = crate::fuzz::run_fuzz(&fcfg)?;
            let signatures: Vec<&str> =
                rep.failures.iter().map(|f| f.signature.as_str()).collect();
            Ok(Some(UnitPayload::Fuzz {
                iters: rep.iters_run,
                generated: rep.generated,
                mutated: rep.mutated,
                frame_checked: rep.frame_checked,
                failures: rep.failures.len() as u64,
                signatures: signatures.join(","),
            }))
        }
        UnitKind::PanicProbe => {
            panic!("injected panic: supervisor isolation probe")
        }
        UnitKind::SpinProbe => {
            // Spin until the watchdog cancels the attempt; the abandoned
            // thread then exits instead of leaking CPU forever.
            while !cancel.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(NeedleError::Canceled)
        }
        UnitKind::FlakyProbe { succeed_at } => {
            if level >= *succeed_at {
                Ok(None)
            } else {
                Err(NeedleError::NoRegion("flaky probe refused this attempt"))
            }
        }
    }
}

/// Classify a typed failure: interpreter fuel exhaustion and cooperative
/// cancellation are budget overruns (same family as a wall-clock deadline
/// miss), everything else is a pipeline failure.
fn failure_outcome(e: &NeedleError) -> (UnitOutcome, String) {
    let fuel = matches!(
        e,
        NeedleError::Exec(ExecError::StepLimit(_) | ExecError::Cancelled(..))
            | NeedleError::Analysis(AnalysisError::Exec(
                ExecError::StepLimit(_) | ExecError::Cancelled(..)
            ))
    );
    if fuel {
        (UnitOutcome::TimedOut, format!("budget exceeded: {e}"))
    } else {
        (UnitOutcome::Failed, e.to_string())
    }
}

/// Deterministic jittered exponential backoff, in milliseconds.
///
/// The exponential window is `base * 2^(attempt-1)` (exponent capped at
/// 16); the returned delay is drawn uniformly from `[window/2, window]`
/// by hashing `(salt, attempt, base)`. Full-window jitter keyed on the
/// caller's identity (`salt` — unit index, shard id, request key) means
/// many peers that fail at the same instant spread their retries across
/// half the window instead of thundering back in lockstep, while the
/// half-window floor preserves the exponential character of the
/// schedule. Deterministic (no clock, no RNG state) so supervised
/// campaigns and seeded soaks stay reproducible.
pub fn jittered_backoff(base_ms: u64, attempt: u32, salt: u64) -> u64 {
    let window = base_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
    if window <= 1 {
        return window;
    }
    let half = window / 2;
    let mut seed = [0u8; 24];
    seed[..8].copy_from_slice(&salt.to_le_bytes());
    seed[8..16].copy_from_slice(&(attempt as u64).to_le_bytes());
    seed[16..].copy_from_slice(&base_ms.to_le_bytes());
    half + fnv1a64(&seed) % (window - half + 1)
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

enum Event {
    Started { idx: usize, attempt: u32 },
    Done { idx: usize, report: Box<UnitReport> },
}

/// Keep caught unit panics from spraying the default hook's backtrace
/// over the campaign output; panics on any other thread still report
/// through the previous hook. Installed once, process-wide. Shared with
/// the serving layer, whose workers use the same `needle-u` name prefix.
pub(crate) fn silence_supervised_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let supervised = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("needle-u"));
            if !supervised {
                prev(info);
            }
        }));
    });
}

/// Drive one unit to a terminal outcome: attempt → classify → degrade →
/// backoff → retry, at most `max_attempts` times.
/// Decrements the campaign's live-attempt counter when an attempt thread
/// finishes (or when a failed spawn drops the moved closure).
struct LiveAttempt(Arc<AtomicUsize>);

impl Drop for LiveAttempt {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn run_unit(
    idx: usize,
    unit: &CampaignUnit,
    cfg: &NeedleConfig,
    sup: &SupervisorConfig,
    events: &Sender<Event>,
    campaign_cancel: &AtomicBool,
    live: &Arc<AtomicUsize>,
) -> UnitReport {
    let started = Instant::now();
    let deadline = Duration::from_millis(sup.deadline_ms.max(1));
    let mut last: (UnitOutcome, String) = (UnitOutcome::Failed, "never attempted".into());
    let max_attempts = sup.max_attempts.max(1);
    let mut attempt = 0;
    while attempt < max_attempts && !campaign_cancel.load(Ordering::Relaxed) {
        attempt += 1;
        let level = attempt - 1;
        let _ = events.send(Event::Started { idx, attempt });

        let (tx, rx) = channel();
        let attempt_cancel = Arc::new(AtomicBool::new(false));
        let (u2, mut c2, can2) = (unit.clone(), cfg.clone(), Arc::clone(&attempt_cancel));
        // The attempt's cancel flag doubles as the engine's cooperative
        // cancellation token: a deadline miss doesn't just abandon the
        // thread, it stops the interpreter within the check interval.
        c2.cancel = Some(CancelToken::from_flag(Arc::clone(&attempt_cancel)));
        live.fetch_add(1, Ordering::SeqCst);
        let live_guard = LiveAttempt(Arc::clone(live));
        let handle = std::thread::Builder::new()
            .name(format!("needle-u{idx}-a{attempt}"))
            .spawn(move || {
                let _live = live_guard;
                let r = catch_unwind(AssertUnwindSafe(|| execute_unit(&u2, &c2, level, &can2)));
                let _ = tx.send(r);
            });
        let handle = match handle {
            Ok(h) => h,
            Err(e) => {
                last = (UnitOutcome::Failed, format!("worker spawn failed: {e}"));
                continue;
            }
        };

        match rx.recv_timeout(deadline) {
            Ok(Ok(Ok(payload))) => {
                let _ = handle.join();
                return UnitReport {
                    unit: unit.clone(),
                    outcome: if attempt == 1 {
                        UnitOutcome::Ok
                    } else {
                        UnitOutcome::Degraded
                    },
                    attempts: attempt,
                    degrade_level: level,
                    wall_ms: started.elapsed().as_millis() as u64,
                    cause: None,
                    payload,
                    resumed: false,
                };
            }
            Ok(Ok(Err(e))) => {
                let _ = handle.join();
                last = failure_outcome(&e);
            }
            Ok(Err(panic_payload)) => {
                let _ = handle.join();
                last = (
                    UnitOutcome::Panicked,
                    format!("panicked: {}", panic_message(panic_payload)),
                );
            }
            Err(RecvTimeoutError::Timeout) => {
                // Abandon the attempt thread; cancellation lets
                // cooperative work (probes) exit promptly, and fuel
                // bounds the rest.
                attempt_cancel.store(true, Ordering::Relaxed);
                last = (
                    UnitOutcome::TimedOut,
                    format!("deadline of {}ms exceeded", sup.deadline_ms),
                );
            }
            Err(RecvTimeoutError::Disconnected) => {
                last = (UnitOutcome::Panicked, "worker vanished".into());
            }
        }
        if attempt < max_attempts {
            let backoff = jittered_backoff(sup.backoff_base_ms, attempt, idx as u64);
            std::thread::sleep(Duration::from_millis(backoff));
        }
    }
    UnitReport {
        unit: unit.clone(),
        outcome: last.0,
        attempts: attempt,
        degrade_level: attempt.saturating_sub(1),
        wall_ms: started.elapsed().as_millis() as u64,
        cause: Some(last.1),
        payload: None,
        resumed: false,
    }
}

fn header_json(units: &[CampaignUnit], sup: &SupervisorConfig) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::Str("campaign".into())),
        ("version".into(), Json::Int(1)),
        ("deadline_ms".into(), Json::Int(sup.deadline_ms as i64)),
        ("max_attempts".into(), Json::Int(sup.max_attempts as i64)),
        ("workers".into(), Json::Int(sup.workers as i64)),
        (
            "units".into(),
            Json::Arr(units.iter().map(CampaignUnit::to_json).collect()),
        ),
    ])
}

fn parse_header(rec: &Json) -> Result<(Vec<CampaignUnit>, SupervisorConfig), JournalError> {
    if rec.get("kind").and_then(Json::as_str) != Some("campaign") {
        return Err(JournalError::HeaderMismatch(
            "first record is not a campaign header".into(),
        ));
    }
    let units = rec
        .get("units")
        .and_then(Json::as_arr)
        .ok_or_else(|| JournalError::HeaderMismatch("header has no unit list".into()))?
        .iter()
        .map(CampaignUnit::from_json)
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| JournalError::HeaderMismatch("unreadable unit record".into()))?;
    let sup = SupervisorConfig {
        workers: rec.get("workers").and_then(Json::as_u64).unwrap_or(0) as usize,
        deadline_ms: rec
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .unwrap_or(SupervisorConfig::default().deadline_ms),
        max_attempts: rec
            .get("max_attempts")
            .and_then(Json::as_u64)
            .unwrap_or(3) as u32,
        backoff_base_ms: SupervisorConfig::default().backoff_base_ms,
    };
    Ok((units, sup))
}

/// Read a journal's campaign header without running anything — the
/// `needle resume` entry point uses this to recover the original unit
/// list and supervisor policy.
///
/// # Errors
/// Journal I/O / corruption failures.
pub fn peek_journal(path: &Path) -> Result<(Vec<CampaignUnit>, SupervisorConfig), NeedleError> {
    let loaded = journal::load(path)?;
    Ok(parse_header(&loaded.records[0])?)
}

/// Run a supervised campaign.
///
/// With [`CampaignOptions::resume`], `units` may be empty — the unit
/// list is recovered from the journal header; a non-empty list must
/// match the journal's. Completed units are replayed from the journal;
/// in-flight and unstarted ones run (again).
///
/// # Errors
/// Journal failures and the kill test hook
/// ([`NeedleError::Journal`]`(`[`JournalError::Killed`]`)`). Per-unit
/// pipeline failures never fail the campaign — they are outcomes.
pub fn run_supervised(
    units: Vec<CampaignUnit>,
    cfg: &NeedleConfig,
    sup: &SupervisorConfig,
    opts: &CampaignOptions,
) -> Result<CampaignReport, NeedleError> {
    let t0 = Instant::now();
    silence_supervised_panics();
    let mut units = units;
    let mut replayed: Vec<Option<UnitReport>> = Vec::new();
    let mut journal: Option<Journal> = None;

    if let Some(path) = &opts.journal {
        if opts.resume && path.exists() {
            let loaded = journal::load(path)?;
            let (junits, _) = parse_header(&loaded.records[0])?;
            if !units.is_empty() && units != junits {
                return Err(NeedleError::Journal(JournalError::HeaderMismatch(format!(
                    "journal lists {} unit(s), caller asked for a different campaign",
                    junits.len()
                ))));
            }
            units = junits;
            replayed = vec![None; units.len()];
            for rec in &loaded.records[1..] {
                if rec.get("kind").and_then(Json::as_str) == Some("done") {
                    if let Some(idx) = rec.get("unit").and_then(Json::as_u64) {
                        let idx = idx as usize;
                        if idx < units.len() {
                            replayed[idx] =
                                UnitReport::from_json(rec, units[idx].clone());
                        }
                    }
                }
            }
            journal = Some(Journal::reopen(path, loaded.records.len())?);
        } else {
            let j = Journal::create(path, &header_json(&units, sup))?;
            replayed = vec![None; units.len()];
            journal = Some(j);
        }
        if let (Some(j), Some(k)) = (journal.as_mut(), opts.kill_after_records) {
            j.kill_after(k);
        }
    }
    if replayed.len() != units.len() {
        replayed = vec![None; units.len()];
    }

    let pending: Vec<(usize, CampaignUnit)> = units
        .iter()
        .enumerate()
        .filter(|(i, _)| replayed[*i].is_none())
        .map(|(i, u)| (i, u.clone()))
        .collect();
    let resumed_count = units.len() - pending.len();

    let workers = if sup.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    } else {
        sup.workers
    }
    .min(pending.len().max(1));

    let queue = Arc::new(Mutex::new(VecDeque::from(pending.clone())));
    let campaign_cancel = Arc::new(AtomicBool::new(false));
    let live_attempts = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = channel::<Event>();
    let mut handles = Vec::new();
    for wi in 0..workers {
        let queue = Arc::clone(&queue);
        let tx = tx.clone();
        let cancel = Arc::clone(&campaign_cancel);
        let live = Arc::clone(&live_attempts);
        let cfg = cfg.clone();
        let sup = sup.clone();
        let h = std::thread::Builder::new()
            .name(format!("needle-worker-{wi}"))
            .spawn(move || loop {
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
                let job = queue.lock().map(|mut q| q.pop_front()).unwrap_or(None);
                let Some((idx, unit)) = job else { break };
                let report = Box::new(run_unit(idx, &unit, &cfg, &sup, &tx, &cancel, &live));
                if tx.send(Event::Done { idx, report }).is_err() {
                    break;
                }
            })
            .map_err(|e| NeedleError::Journal(JournalError::Io(format!("spawn: {e}"))))?;
        handles.push(h);
    }
    drop(tx);

    let mut results = replayed;
    let mut done = 0usize;
    let total = pending.len();
    while done < total {
        let Ok(ev) = rx.recv() else { break };
        let journal_write = match &ev {
            Event::Started { idx, attempt } => journal
                .as_mut()
                .map(|j| {
                    j.append(&Json::Obj(vec![
                        ("kind".into(), Json::Str("start".into())),
                        ("unit".into(), Json::Int(*idx as i64)),
                        ("attempt".into(), Json::Int(*attempt as i64)),
                    ]))
                })
                .unwrap_or(Ok(())),
            Event::Done { idx, report } => journal
                .as_mut()
                .map(|j| j.append(&report.to_json(*idx)))
                .unwrap_or(Ok(())),
        };
        if let Err(e) = journal_write {
            // The kill hook (or a real I/O failure) fired: stop exactly
            // as a killed process would — without flushing in-flight
            // state. Workers unwind when the channel closes.
            campaign_cancel.store(true, Ordering::Relaxed);
            return Err(NeedleError::Journal(e));
        }
        if let Event::Done { idx, report } = ev {
            results[idx] = Some(*report);
            done += 1;
        }
    }
    for h in handles {
        let _ = h.join();
    }

    let units_out: Vec<UnitReport> = results
        .into_iter()
        .zip(units)
        .map(|(r, u)| {
            r.unwrap_or(UnitReport {
                unit: u,
                outcome: UnitOutcome::Failed,
                attempts: 0,
                degrade_level: 0,
                wall_ms: 0,
                cause: Some("unit never reported (worker lost)".into()),
                payload: None,
                resumed: false,
            })
        })
        .collect();
    Ok(CampaignReport {
        units: units_out,
        resumed: resumed_count,
        workers,
        wall_ms: t0.elapsed().as_millis() as u64,
        live_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_sup() -> SupervisorConfig {
        SupervisorConfig {
            workers: 2,
            deadline_ms: 200,
            max_attempts: 3,
            backoff_base_ms: 1,
        }
    }

    #[test]
    fn jittered_backoff_stays_within_half_to_full_window() {
        for base in [1u64, 25, 100, 1000] {
            for attempt in 1u32..=8 {
                let window = base * (1u64 << (attempt - 1));
                for salt in 0u64..32 {
                    let b = jittered_backoff(base, attempt, salt);
                    assert!(
                        b >= window / 2 && b <= window,
                        "base={base} attempt={attempt} salt={salt}: {b} outside [{}, {window}]",
                        window / 2
                    );
                }
            }
        }
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_spreads_peers() {
        assert_eq!(jittered_backoff(25, 3, 7), jittered_backoff(25, 3, 7));
        // Peers retrying at the same attempt must not all land on the
        // same instant — that is the thundering herd this exists to
        // break. 16 salts over a 100ms window: demand at least 4
        // distinct delays.
        let delays: std::collections::HashSet<u64> =
            (0..16).map(|salt| jittered_backoff(200, 1, salt)).collect();
        assert!(delays.len() >= 4, "only {} distinct delays", delays.len());
    }

    #[test]
    fn jittered_backoff_edges() {
        assert_eq!(jittered_backoff(0, 1, 9), 0, "zero base never sleeps");
        assert_eq!(jittered_backoff(1, 1, 9), 1, "tiny window degenerates");
        // The exponent cap keeps huge attempts finite and monotone
        // windows from overflowing.
        let b = jittered_backoff(10, u32::MAX, 3);
        assert!(b <= 10u64 << 16);
        // attempt 0 is treated as attempt 1 (window = base).
        assert!(jittered_backoff(100, 0, 5) <= 100);
    }

    #[test]
    fn kind_and_payload_roundtrip_through_json() {
        let kinds = [
            UnitKind::Offload {
                path: true,
                oracle: false,
            },
            UnitKind::Chaos {
                seed: u64::MAX - 3,
                faults: 40,
                include_corruption: true,
                fault_rate: 0.85,
            },
            UnitKind::Fuzz {
                seed: u64::MAX - 7,
                start: 4000,
                iters: 500,
                minimize: true,
                repro_dir: Some("tests/repros".into()),
            },
            UnitKind::Fuzz {
                seed: 1,
                start: 0,
                iters: 10,
                minimize: false,
                repro_dir: None,
            },
            UnitKind::PanicProbe,
            UnitKind::SpinProbe,
            UnitKind::FlakyProbe { succeed_at: 2 },
        ];
        for k in kinds {
            let u = CampaignUnit {
                workload: "179.art".into(),
                kind: k.clone(),
            };
            assert_eq!(
                CampaignUnit::from_json(&Json::parse(&u.to_json().encode()).unwrap()),
                Some(u)
            );
        }
        let p = UnitPayload::Offload {
            perf_pct: 45.123456789,
            energy_pct: -3.25,
            coverage: 0.9,
            invocations: 100,
            commits: 90,
            aborts: 10,
        };
        assert_eq!(
            UnitPayload::from_json(&Json::parse(&p.to_json().encode()).unwrap()),
            Some(p)
        );
        let p = UnitPayload::Fuzz {
            iters: 2000,
            generated: 1500,
            mutated: 500,
            frame_checked: 800,
            failures: 2,
            signatures: "steps,mem".into(),
        };
        assert_eq!(
            UnitPayload::from_json(&Json::parse(&p.to_json().encode()).unwrap()),
            Some(p)
        );
    }

    #[test]
    fn fuzz_unit_runs_supervised_and_reports_counters() {
        let units = vec![CampaignUnit {
            workload: "fuzz".into(),
            kind: UnitKind::Fuzz {
                seed: 11,
                start: 0,
                iters: 8,
                minimize: false,
                repro_dir: None,
            },
        }];
        // The default deadline, not `fast_sup`'s 200 ms runaway fixture:
        // eight fuzz iterations in a debug build can outlast 200 ms on a
        // loaded machine, and this test checks the payload, not the
        // deadline.
        let r = run_supervised(
            units,
            &NeedleConfig::default(),
            &SupervisorConfig::default(),
            &CampaignOptions::default(),
        )
        .unwrap();
        assert_eq!(r.units[0].outcome, UnitOutcome::Ok);
        match &r.units[0].payload {
            Some(UnitPayload::Fuzz {
                iters, failures, ..
            }) => {
                assert_eq!(*iters, 8);
                assert_eq!(*failures, 0);
            }
            other => panic!("expected fuzz payload, got {other:?}"),
        }
    }

    #[test]
    fn panic_is_isolated_and_campaign_completes() {
        let units = vec![
            CampaignUnit {
                workload: "probe".into(),
                kind: UnitKind::PanicProbe,
            },
            CampaignUnit {
                workload: "probe".into(),
                kind: UnitKind::FlakyProbe { succeed_at: 0 },
            },
        ];
        let r = run_supervised(
            units,
            &NeedleConfig::default(),
            &fast_sup(),
            &CampaignOptions::default(),
        )
        .unwrap();
        assert_eq!(r.units[0].outcome, UnitOutcome::Panicked);
        assert_eq!(r.units[0].attempts, 3);
        assert!(r.units[0].cause.as_deref().unwrap().contains("injected panic"));
        assert_eq!(r.units[1].outcome, UnitOutcome::Ok);
    }

    #[test]
    fn spin_probe_times_out_per_attempt() {
        let units = vec![CampaignUnit {
            workload: "probe".into(),
            kind: UnitKind::SpinProbe,
        }];
        let r = run_supervised(
            units,
            &NeedleConfig::default(),
            &fast_sup(),
            &CampaignOptions::default(),
        )
        .unwrap();
        assert_eq!(r.units[0].outcome, UnitOutcome::TimedOut);
        assert_eq!(r.units[0].attempts, 3);
        assert!(r.units[0].cause.as_deref().unwrap().contains("deadline"));
    }

    #[test]
    fn flaky_unit_succeeds_degraded_on_the_ladder() {
        let units = vec![CampaignUnit {
            workload: "probe".into(),
            kind: UnitKind::FlakyProbe { succeed_at: 1 },
        }];
        let r = run_supervised(
            units,
            &NeedleConfig::default(),
            &fast_sup(),
            &CampaignOptions::default(),
        )
        .unwrap();
        assert_eq!(r.units[0].outcome, UnitOutcome::Degraded);
        assert_eq!(r.units[0].attempts, 2);
        assert_eq!(r.units[0].degrade_level, 1);
    }

    #[test]
    fn degradation_ladder_shrinks_budgets_monotonically() {
        let base = NeedleConfig::default();
        let (l0, p0) = degraded_config(&base, 0);
        let (l1, p1) = degraded_config(&base, 1);
        let (l2, p2) = degraded_config(&base, 2);
        assert_eq!(l0.analysis.max_steps, base.analysis.max_steps);
        assert!(l1.analysis.max_steps < l0.analysis.max_steps);
        assert!(l2.analysis.max_steps < l1.analysis.max_steps);
        assert!(l1.analysis.braid_merge_paths < l0.analysis.braid_merge_paths);
        assert!((!p0 && !p1) && p2, "only level 2+ forces path-only");
    }

    #[test]
    fn real_offload_unit_produces_a_payload() {
        let r = run_supervised(
            vec![CampaignUnit::offload("179.art")],
            &NeedleConfig::default(),
            &SupervisorConfig {
                workers: 1,
                deadline_ms: 120_000,
                max_attempts: 2,
                backoff_base_ms: 1,
            },
            &CampaignOptions::default(),
        )
        .unwrap();
        assert_eq!(r.units[0].outcome, UnitOutcome::Ok, "{:?}", r.units[0].cause);
        assert!(matches!(
            r.units[0].payload,
            Some(UnitPayload::Offload { invocations, .. }) if invocations > 0
        ));
    }

    #[test]
    fn deadline_missed_runaway_thread_actually_stops() {
        // A 999.loop offload unit spins forever; give it fuel that would
        // outlive the test many times over, so the *only* thing that can
        // stop the abandoned attempt thread is the cancellation token the
        // supervisor now wires into the engine. Before that wiring the
        // thread kept burning CPU until fuel ran out (the runaway-unit
        // leak); now it must observably terminate within the cancellation
        // check interval.
        let cfg = NeedleConfig {
            analysis: crate::config::AnalysisConfig {
                max_steps: u64::MAX / 4,
                ..crate::config::AnalysisConfig::default()
            },
            ..NeedleConfig::default()
        };
        let r = run_supervised(
            vec![CampaignUnit {
                workload: "999.loop".into(),
                kind: UnitKind::Offload {
                    path: true,
                    oracle: true,
                },
            }],
            &cfg,
            &SupervisorConfig {
                workers: 1,
                deadline_ms: 150,
                max_attempts: 1,
                backoff_base_ms: 1,
            },
            &CampaignOptions::default(),
        )
        .unwrap();
        assert_eq!(r.units[0].outcome, UnitOutcome::TimedOut);

        // The campaign returned without joining the abandoned thread; the
        // live-attempt counter proves it exits promptly instead of
        // spinning on its practically-infinite fuel.
        let t0 = Instant::now();
        while r.live_attempt_threads() > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "abandoned attempt thread leaked: cancellation never observed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
