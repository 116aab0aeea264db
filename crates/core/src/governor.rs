//! Adaptive offload governor — epoch-driven region re-selection policy.
//!
//! The serving layer ([`crate::serve`]) samples requests through the
//! Ball-Larus path profiler and, every epoch, asks this module what
//! the live offload region set should become. The policy here is *pure*:
//! it consumes per-workload observations (ranked path candidates with
//! cross-iteration stability, observed guard-failure/abort rates) plus
//! the demotion ledger, and emits install/demote decisions. The serving
//! side owns the mechanics (frame building, validation, the RCU swap of
//! the live region table); keeping the policy side-effect free makes the
//! hysteresis rules unit-testable without a running service.
//!
//! Thrash protection is two-layered:
//!
//! * **Switch margin** — an incumbent path is only displaced when the
//!   challenger's observed weight beats it by a configurable fraction,
//!   so two near-equal paths don't ping-pong the frame table.
//! * **Demotion cooldown** — a workload demoted for aborting is barred
//!   from re-promotion for a number of epochs that doubles with repeat
//!   offenses (capped), recorded in the [`DemotionLedger`].

use std::collections::HashMap;

/// Governor policy knobs (all epochs are governor epochs, not breaker
/// generations).
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Close an epoch once this many requests have been accepted since
    /// the previous one.
    pub epoch_requests: u64,
    /// Profile one request in `sample_period` through the path profiler
    /// (1 = every request).
    pub sample_period: u64,
    /// Halve the accumulated profile before merging each new epoch, so
    /// the ranking tracks traffic shifts instead of all-time totals.
    pub decay: bool,
    /// Demote a workload whose frame-abort rate over the epoch reaches
    /// this fraction of its runs.
    pub demote_abort_rate: f64,
    /// Minimum runs in an epoch before the abort rate is meaningful.
    pub min_runs_for_demotion: u64,
    /// Base cooldown, in epochs, before a demoted workload may be
    /// promoted again (doubles with repeat demotions, capped at 16×).
    pub cooldown_epochs: u64,
    /// Minimum cross-loop-iteration stability
    /// ([`needle_profile::PathProfile::stability`]) for a path to be
    /// promoted.
    pub min_stability: f64,
    /// Minimum observed completions for a path to be promoted.
    pub min_path_freq: u64,
    /// A challenger path must beat the incumbent's weight by this
    /// fraction to displace it (hysteresis against rank flutter).
    pub switch_margin: f64,
    /// Governor poll interval, milliseconds.
    pub tick_ms: u64,
    /// Chaos: panic the re-ranker when this epoch closes (graceful
    /// degradation drill — the service must pin last-known-good).
    pub inject_rerank_panic_at_epoch: Option<u64>,
    /// Chaos: corrupt the drained profiles when this epoch closes (the
    /// governor must detect the malformed epoch and discard it).
    pub inject_malformed_epoch_at: Option<u64>,
    /// How promotion candidates are verified before publishing (see
    /// [`crate::certify::VerifyPolicy`]).
    pub verify: crate::certify::VerifyPolicy,
    /// Chaos: miscompile (drop one store from) the first frame built at
    /// or after this epoch — the certification gate must refuse it.
    pub inject_miscompile_at_epoch: Option<u64>,
}

impl Default for GovernorConfig {
    fn default() -> GovernorConfig {
        GovernorConfig {
            epoch_requests: 200,
            sample_period: 4,
            decay: true,
            demote_abort_rate: 0.5,
            min_runs_for_demotion: 4,
            cooldown_epochs: 3,
            min_stability: 0.25,
            min_path_freq: 4,
            switch_margin: 0.25,
            tick_ms: 2,
            inject_rerank_panic_at_epoch: None,
            inject_malformed_epoch_at: None,
            verify: crate::certify::VerifyPolicy::Differential,
            inject_miscompile_at_epoch: None,
        }
    }
}

/// One promotion candidate for a workload, already ranked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCandidate {
    /// Ball-Larus path id (in the *served* module's numbering).
    pub id: u64,
    /// `Pwt = freq × ops` over the accumulated profile.
    pub weight: u128,
    /// Observed completions.
    pub freq: u64,
    /// Cross-loop-iteration self-succession ratio in `[0, 1]`.
    pub stability: f64,
}

/// What one epoch observed about one governed workload.
#[derive(Debug, Clone)]
pub struct WorkloadObservation {
    /// Catalog workload name.
    pub workload: String,
    /// Promotion candidates, best weight first.
    pub candidates: Vec<PathCandidate>,
    /// Requests executed for this workload during the epoch.
    pub runs: u64,
    /// Frame invocations that aborted (guard failures) during the epoch.
    pub aborts: u64,
}

/// The currently installed region for a workload (for hysteresis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentChoice {
    /// Installed path id.
    pub path_id: u64,
    /// Weight it was installed at — informational only; the switch
    /// margin compares against the incumbent's *currently observed*
    /// weight so decayed paths stay displaceable.
    pub weight: u128,
}

/// One region-set change the serving side must apply.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Build and install the frame for this path (fresh promotion or a
    /// switch displacing the incumbent).
    Install {
        /// Workload to (re)offload.
        workload: String,
        /// Path to lower into a frame.
        path_id: u64,
        /// Weight at decision time (becomes the new incumbent weight).
        weight: u128,
    },
    /// Tear the workload's region out of the live set.
    Demote {
        /// Workload to stop offloading.
        workload: String,
        /// First epoch at which re-promotion is allowed again.
        until_epoch: u64,
    },
}

/// Per-workload demotion bookkeeping: until when a workload is barred,
/// and how often it has offended (drives the doubling cooldown).
#[derive(Debug, Clone, Default)]
pub struct DemotionLedger {
    entries: HashMap<String, Demotion>,
}

#[derive(Debug, Clone, Copy)]
struct Demotion {
    until_epoch: u64,
    count: u64,
}

impl DemotionLedger {
    /// Record a demotion at `epoch`; returns the epoch at which the
    /// workload becomes eligible again. Repeat demotions double the
    /// cooldown, capped at 16× the base.
    pub fn demote(&mut self, workload: &str, epoch: u64, base_cooldown: u64) -> u64 {
        let e = self
            .entries
            .entry(workload.to_string())
            .or_insert(Demotion {
                until_epoch: 0,
                count: 0,
            });
        e.count += 1;
        let factor = 1u64 << (e.count - 1).min(4);
        e.until_epoch = epoch + (base_cooldown.max(1)).saturating_mul(factor);
        e.until_epoch
    }

    /// Whether the workload may be promoted at `epoch`.
    pub fn eligible(&self, workload: &str, epoch: u64) -> bool {
        self.entries
            .get(workload)
            .is_none_or(|d| epoch >= d.until_epoch)
    }

    /// How many times the workload has been demoted.
    pub fn offenses(&self, workload: &str) -> u64 {
        self.entries.get(workload).map_or(0, |d| d.count)
    }
}

/// Decide this epoch's region-set changes. Pure: no I/O, no clocks —
/// the same inputs always produce the same decisions.
///
/// Per workload, in order:
/// 1. An installed region whose abort rate reached
///    [`GovernorConfig::demote_abort_rate`] (with at least
///    `min_runs_for_demotion` runs) is demoted and enters cooldown.
/// 2. A workload in cooldown is left alone — no promotion, however hot
///    its paths look (hysteresis).
/// 3. Otherwise the best candidate passing the stability and frequency
///    gates is installed — immediately when nothing is installed, and
///    only past the switch margin when displacing an incumbent.
pub fn plan_epoch(
    epoch: u64,
    observations: &[WorkloadObservation],
    current: &HashMap<String, CurrentChoice>,
    ledger: &mut DemotionLedger,
    cfg: &GovernorConfig,
) -> Vec<Decision> {
    let mut decisions = Vec::new();
    for obs in observations {
        let installed = current.get(&obs.workload);

        // 1. Abort-storm demotion of the installed region.
        if installed.is_some() && obs.runs >= cfg.min_runs_for_demotion.max(1) {
            let abort_rate = obs.aborts as f64 / obs.runs as f64;
            if abort_rate >= cfg.demote_abort_rate {
                let until = ledger.demote(&obs.workload, epoch, cfg.cooldown_epochs);
                decisions.push(Decision::Demote {
                    workload: obs.workload.clone(),
                    until_epoch: until,
                });
                continue;
            }
        }

        // 2. Cooldown bars promotion outright.
        if !ledger.eligible(&obs.workload, epoch) {
            continue;
        }

        // 3. Promotion / switch through the stability and margin gates.
        let Some(best) = obs
            .candidates
            .iter()
            .find(|c| c.stability >= cfg.min_stability && c.freq >= cfg.min_path_freq)
        else {
            continue;
        };
        match installed {
            None => decisions.push(Decision::Install {
                workload: obs.workload.clone(),
                path_id: best.id,
                weight: best.weight,
            }),
            Some(inc) if inc.path_id != best.id => {
                // Margin against the incumbent's weight *as observed this
                // epoch*, not the weight it was installed at: with decay,
                // a path the traffic abandoned fades toward zero and must
                // become displaceable. An incumbent absent from the
                // candidate list (fell out of the top ranks) carries no
                // weight at all.
                let inc_weight = obs
                    .candidates
                    .iter()
                    .find(|c| c.id == inc.path_id)
                    .map(|c| c.weight)
                    .unwrap_or(0);
                let bar = inc_weight as f64 * (1.0 + cfg.switch_margin);
                if best.weight as f64 > bar {
                    decisions.push(Decision::Install {
                        workload: obs.workload.clone(),
                        path_id: best.id,
                        weight: best.weight,
                    });
                }
            }
            Some(_) => {} // incumbent confirmed; nothing to do
        }
    }
    decisions
}

/// What happened at one governor epoch — the promote/demote timeline
/// surfaced in metrics and the soak's benchmark artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochEvent {
    /// Governor epoch number (1-based).
    pub epoch: u64,
    /// What happened.
    pub kind: EventKind,
    /// Affected workload (empty for service-wide events such as
    /// [`EventKind::Pinned`]).
    pub workload: String,
    /// Human-readable specifics (path ids, rates, errors).
    pub detail: String,
}

/// Kinds of timeline events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A workload with no region got one.
    Promoted,
    /// An installed region was displaced by a hotter path.
    Switched,
    /// An installed region was torn out for aborting.
    Demoted,
    /// The governor pipeline failed; the service pinned the
    /// last-known-good region set and kept serving.
    Pinned,
    /// A drained profile epoch failed validation and was discarded.
    Malformed,
    /// A frame build or differential verification failed; the incumbent
    /// (or nothing) stayed installed.
    BuildFailed,
    /// The certification gate refused to publish a frame (refuted, or
    /// unproven under `RequireProof`); the incumbent stayed installed.
    CertRefused,
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EventKind::Promoted => "promoted",
            EventKind::Switched => "switched",
            EventKind::Demoted => "demoted",
            EventKind::Pinned => "pinned",
            EventKind::Malformed => "malformed-epoch",
            EventKind::BuildFailed => "build-failed",
            EventKind::CertRefused => "cert-refused",
        };
        write!(f, "{s}")
    }
}

/// Cap on the retained timeline (events beyond it are dropped oldest
/// first; the counters keep counting).
pub const TIMELINE_CAP: usize = 1024;

/// Governor counters + timeline, embedded in the serve metrics snapshot
/// so shard rollups carry them.
#[derive(Debug, Clone, Default)]
pub struct GovernorStats {
    /// Epochs the governor closed (including failed ones).
    pub epochs: u64,
    /// Live region-table swaps actually installed (RCU publishes).
    pub swaps: u64,
    /// Fresh promotions (no incumbent).
    pub promotions: u64,
    /// Incumbent displacements (live re-selection).
    pub switches: u64,
    /// Demotions for aborting.
    pub demotions: u64,
    /// Governor pipeline failures absorbed (panic, re-rank error); each
    /// pinned the last-known-good set.
    pub failures: u64,
    /// Malformed profile epochs detected and discarded.
    pub malformed_epochs: u64,
    /// Frame builds or verifications that failed during promotion.
    pub frame_build_errors: u64,
    /// Publishes refused by the certification gate.
    pub cert_refusals: u64,
    /// Symbolic certification counters + solve-time distribution.
    pub cert: crate::certify::CertStats,
    /// Promote/demote timeline (capped at [`TIMELINE_CAP`]).
    pub timeline: Vec<EpochEvent>,
}

impl GovernorStats {
    /// Append an event, enforcing the timeline cap.
    pub fn push_event(&mut self, event: EpochEvent) {
        if self.timeline.len() >= TIMELINE_CAP {
            self.timeline.remove(0);
        }
        self.timeline.push(event);
    }

    /// Fold another stats block in (shard rollup).
    pub fn merge_from(&mut self, other: &GovernorStats) {
        self.epochs += other.epochs;
        self.swaps += other.swaps;
        self.promotions += other.promotions;
        self.switches += other.switches;
        self.demotions += other.demotions;
        self.failures += other.failures;
        self.malformed_epochs += other.malformed_epochs;
        self.frame_build_errors += other.frame_build_errors;
        self.cert_refusals += other.cert_refusals;
        self.cert.merge_from(&other.cert);
        for e in &other.timeline {
            self.push_event(e.clone());
        }
    }

    /// Whether the governor ever ran.
    pub fn active(&self) -> bool {
        self.epochs > 0
    }
}

impl std::fmt::Display for GovernorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "governor: {} epochs, swaps: {} ({} promotions, {} switches), \
             {} demotions, {} failures pinned, {} malformed epochs, {} build errors, \
             {} cert refusals",
            self.epochs,
            self.swaps,
            self.promotions,
            self.switches,
            self.demotions,
            self.failures,
            self.malformed_epochs,
            self.frame_build_errors,
            self.cert_refusals
        )?;
        if self.cert.active() {
            write!(f, "\n  {}", self.cert)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(workload: &str, candidates: Vec<PathCandidate>, runs: u64, aborts: u64) -> WorkloadObservation {
        WorkloadObservation {
            workload: workload.into(),
            candidates,
            runs,
            aborts,
        }
    }

    fn cand(id: u64, weight: u128, freq: u64, stability: f64) -> PathCandidate {
        PathCandidate {
            id,
            weight,
            freq,
            stability,
        }
    }

    #[test]
    fn fresh_hot_path_is_promoted() {
        let cfg = GovernorConfig::default();
        let mut ledger = DemotionLedger::default();
        let d = plan_epoch(
            1,
            &[obs("w", vec![cand(7, 1000, 50, 0.9)], 10, 0)],
            &HashMap::new(),
            &mut ledger,
            &cfg,
        );
        assert_eq!(
            d,
            vec![Decision::Install {
                workload: "w".into(),
                path_id: 7,
                weight: 1000
            }]
        );
    }

    #[test]
    fn unstable_or_rare_paths_are_not_promoted() {
        let cfg = GovernorConfig::default();
        let mut ledger = DemotionLedger::default();
        // Alternating path (low stability) and a rare path: both gated.
        let d = plan_epoch(
            1,
            &[obs(
                "w",
                vec![cand(7, 1000, 50, 0.05), cand(9, 900, 2, 0.99)],
                10,
                0,
            )],
            &HashMap::new(),
            &mut ledger,
            &cfg,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn switch_requires_margin_over_incumbent() {
        let cfg = GovernorConfig {
            switch_margin: 0.25,
            ..GovernorConfig::default()
        };
        let mut ledger = DemotionLedger::default();
        let mut current = HashMap::new();
        current.insert("w".to_string(), CurrentChoice { path_id: 7, weight: 1000 });

        // Challenger at +10% over the incumbent's observed weight:
        // inside the margin, no thrash.
        let d = plan_epoch(
            2,
            &[obs(
                "w",
                vec![cand(9, 1100, 50, 0.9), cand(7, 1000, 50, 0.9)],
                10,
                0,
            )],
            &current,
            &mut ledger,
            &cfg,
        );
        assert!(d.is_empty(), "within margin must hold: {d:?}");

        // Challenger at +50%: displaces the incumbent.
        let d = plan_epoch(
            3,
            &[obs(
                "w",
                vec![cand(9, 1500, 50, 0.9), cand(7, 1000, 50, 0.9)],
                10,
                0,
            )],
            &current,
            &mut ledger,
            &cfg,
        );
        assert_eq!(
            d,
            vec![Decision::Install {
                workload: "w".into(),
                path_id: 9,
                weight: 1500
            }]
        );

        // Incumbent vanished from the candidates (traffic abandoned it,
        // decay erased it): any gated challenger displaces it.
        let d = plan_epoch(
            3,
            &[obs("w", vec![cand(9, 10, 50, 0.9)], 10, 0)],
            &current,
            &mut ledger,
            &cfg,
        );
        assert_eq!(
            d,
            vec![Decision::Install {
                workload: "w".into(),
                path_id: 9,
                weight: 10
            }]
        );

        // Same id re-ranked on top: confirmed, not reinstalled.
        let d = plan_epoch(
            4,
            &[obs("w", vec![cand(7, 2000, 50, 0.9)], 10, 0)],
            &current,
            &mut ledger,
            &cfg,
        );
        assert!(d.is_empty());
    }

    #[test]
    fn abort_storm_demotes_and_cooldown_blocks_repromotion() {
        let cfg = GovernorConfig {
            cooldown_epochs: 3,
            demote_abort_rate: 0.5,
            ..GovernorConfig::default()
        };
        let mut ledger = DemotionLedger::default();
        let mut current = HashMap::new();
        current.insert("w".to_string(), CurrentChoice { path_id: 7, weight: 1000 });

        let d = plan_epoch(
            5,
            &[obs("w", vec![cand(7, 9000, 99, 0.9)], 20, 15)],
            &current,
            &mut ledger,
            &cfg,
        );
        assert_eq!(
            d,
            vec![Decision::Demote {
                workload: "w".into(),
                until_epoch: 8
            }]
        );
        current.remove("w");

        // Hysteresis: epochs 5..8 refuse promotion however hot the path.
        for epoch in 5..8 {
            let d = plan_epoch(
                epoch,
                &[obs("w", vec![cand(7, 99_999, 999, 0.99)], 20, 0)],
                &current,
                &mut ledger,
                &cfg,
            );
            assert!(d.is_empty(), "epoch {epoch} must stay demoted: {d:?}");
        }

        // Cooldown over: clean traffic re-promotes.
        let d = plan_epoch(
            8,
            &[obs("w", vec![cand(7, 99_999, 999, 0.99)], 20, 0)],
            &current,
            &mut ledger,
            &cfg,
        );
        assert_eq!(d.len(), 1);
        assert!(matches!(&d[0], Decision::Install { path_id: 7, .. }));
    }

    #[test]
    fn repeat_demotions_double_the_cooldown() {
        let mut ledger = DemotionLedger::default();
        assert_eq!(ledger.demote("w", 10, 2), 12); // 2 × 1
        assert_eq!(ledger.demote("w", 20, 2), 24); // 2 × 2
        assert_eq!(ledger.demote("w", 30, 2), 38); // 2 × 4
        assert_eq!(ledger.offenses("w"), 3);
        // The cap: factor saturates at 16.
        ledger.demote("w", 40, 2);
        assert_eq!(ledger.demote("w", 50, 2), 50 + 32);
        assert_eq!(ledger.demote("w", 60, 2), 60 + 32);
        assert!(ledger.eligible("other", 0), "untouched workloads eligible");
    }

    #[test]
    fn few_runs_never_trigger_demotion() {
        let cfg = GovernorConfig {
            min_runs_for_demotion: 4,
            ..GovernorConfig::default()
        };
        let mut ledger = DemotionLedger::default();
        let mut current = HashMap::new();
        current.insert("w".to_string(), CurrentChoice { path_id: 7, weight: 1 });
        // 3 runs, all aborts — still below the evidence floor.
        let d = plan_epoch(
            1,
            &[obs("w", vec![], 3, 3)],
            &current,
            &mut ledger,
            &cfg,
        );
        assert!(d.is_empty());
    }

    #[test]
    fn timeline_cap_drops_oldest() {
        let mut g = GovernorStats::default();
        for epoch in 0..(TIMELINE_CAP as u64 + 10) {
            g.push_event(EpochEvent {
                epoch,
                kind: EventKind::Promoted,
                workload: "w".into(),
                detail: String::new(),
            });
        }
        assert_eq!(g.timeline.len(), TIMELINE_CAP);
        assert_eq!(g.timeline[0].epoch, 10);
    }

    #[test]
    fn stats_merge_sums_counters_and_timeline() {
        let mut a = GovernorStats {
            epochs: 2,
            swaps: 1,
            promotions: 1,
            ..GovernorStats::default()
        };
        let mut b = GovernorStats {
            epochs: 3,
            demotions: 1,
            failures: 1,
            ..GovernorStats::default()
        };
        b.push_event(EpochEvent {
            epoch: 1,
            kind: EventKind::Demoted,
            workload: "w".into(),
            detail: "abort storm".into(),
        });
        a.merge_from(&b);
        assert_eq!(a.epochs, 5);
        assert_eq!(a.demotions, 1);
        assert_eq!(a.failures, 1);
        assert_eq!(a.timeline.len(), 1);
        assert!(a.active());
    }
}
