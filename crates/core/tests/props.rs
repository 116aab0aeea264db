//! Seeded property tests.
//!
//! Each test drives randomized operation sequences from a fixed set of
//! seeds, so failures reproduce exactly. The circuit-breaker properties
//! pit the implementation against an independent reference model written
//! from the documented semantics in `breaker.rs`, and additionally check
//! the machine-independent invariants (probe exclusivity, budget bounds,
//! counter monotonicity) along every walk.

use needle::{Admission, BreakerState, CircuitBreaker, StormConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference model of the breaker, written from the module docs rather
/// than the implementation: Closed counts consecutive failures and trips
/// at `threshold`; Open sheds for `cooldown` decisions then grants one
/// probe; a successful probe closes and refills the budget, a failed
/// probe spends one retry and restarts cooldown; reports that arrive
/// while open and not probing are inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Model {
    threshold: u32,
    cooldown: u64,
    budget: u32,
    consecutive: u32,
    open: bool,
    probing: bool,
    cooldown_left: u64,
    retries_left: u32,
    trips: u64,
    recoveries: u64,
}

impl Model {
    fn new(cfg: StormConfig) -> Model {
        Model {
            threshold: cfg.threshold,
            cooldown: cfg.cooldown,
            budget: cfg.retry_budget,
            consecutive: 0,
            open: false,
            probing: false,
            cooldown_left: 0,
            retries_left: cfg.retry_budget,
            trips: 0,
            recoveries: 0,
        }
    }

    fn admit(&mut self) -> Admission {
        if !self.open {
            return Admission::Execute;
        }
        if self.probing {
            return Admission::Shed;
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return Admission::Shed;
        }
        if self.retries_left == 0 {
            return Admission::Shed;
        }
        self.probing = true;
        Admission::Probe
    }

    fn on_success(&mut self) {
        self.consecutive = 0;
        if self.probing {
            self.probing = false;
            self.open = false;
            self.retries_left = self.budget;
            self.recoveries += 1;
        }
    }

    fn on_failure(&mut self) {
        if self.probing {
            self.probing = false;
            self.retries_left -= 1;
            self.cooldown_left = self.cooldown;
        } else if !self.open {
            self.consecutive += 1;
            if self.threshold > 0 && self.consecutive >= self.threshold {
                self.open = true;
                self.trips += 1;
                self.cooldown_left = self.cooldown;
                self.consecutive = 0;
            }
        }
    }

    fn state(&self) -> BreakerState {
        if !self.open {
            BreakerState::Closed
        } else if self.probing {
            BreakerState::HalfOpen
        } else {
            BreakerState::Open
        }
    }
}

fn random_cfg(rng: &mut StdRng) -> StormConfig {
    StormConfig {
        threshold: rng.gen_range(0u32..5),
        cooldown: rng.gen_range(0u64..6),
        retry_budget: rng.gen_range(0u32..4),
    }
}

/// Random traffic, honest callers: the breaker and the doc-derived model
/// agree on every admission decision and every observable counter.
#[test]
fn breaker_matches_reference_model_under_random_traffic() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xB4EA_4E50 ^ seed);
        let cfg = random_cfg(&mut rng);
        let mut real = CircuitBreaker::new(cfg);
        let mut model = Model::new(cfg);
        for step in 0..500 {
            // Mostly admissions with reported outcomes; sometimes a
            // stray report from a fallback leg that never admitted.
            if rng.gen_bool(0.15) {
                if rng.gen_bool(0.5) {
                    real.on_success();
                    model.on_success();
                } else {
                    real.on_failure();
                    model.on_failure();
                }
            } else {
                let a = real.admit();
                let b = model.admit();
                assert_eq!(a, b, "seed {seed} step {step}: admit diverged ({cfg:?})");
                if a != Admission::Shed {
                    if rng.gen_bool(0.45) {
                        real.on_success();
                        model.on_success();
                    } else {
                        real.on_failure();
                        model.on_failure();
                    }
                }
            }
            assert_eq!(
                real.state(),
                model.state(),
                "seed {seed} step {step}: state diverged ({cfg:?})"
            );
            assert_eq!(real.trips(), model.trips, "seed {seed} step {step}");
            assert_eq!(real.recoveries(), model.recoveries, "seed {seed} step {step}");
            assert_eq!(real.retries_left(), model.retries_left, "seed {seed} step {step}");
        }
    }
}

/// Machine-independent invariants along random walks:
///
/// * at most one probe is ever outstanding — once `Probe` is granted,
///   every admission sheds until the probe holder reports;
/// * `retries_left` never exceeds the configured budget and only moves
///   by single probe failures or full refills;
/// * a recovery requires a prior trip (`recoveries <= trips`);
/// * a breaker with zero budget left, out of cooldown and not probing,
///   is permanently open.
#[test]
fn breaker_probe_is_exclusive_and_budget_bounded() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE ^ seed);
        let cfg = random_cfg(&mut rng);
        let mut b = CircuitBreaker::new(cfg);
        let mut probe_outstanding = false;
        for step in 0..500 {
            match b.admit() {
                Admission::Probe => {
                    assert!(
                        !probe_outstanding,
                        "seed {seed} step {step}: stacked probe ({cfg:?})"
                    );
                    probe_outstanding = true;
                    assert_eq!(b.state(), BreakerState::HalfOpen);
                }
                Admission::Execute => {
                    assert!(
                        !probe_outstanding,
                        "seed {seed} step {step}: Execute while a probe is in flight"
                    );
                    assert_eq!(b.state(), BreakerState::Closed);
                }
                Admission::Shed => {
                    assert!(b.is_open(), "seed {seed} step {step}: shed while closed");
                }
            }
            // The holder reports the outcome with some delay: while it
            // is outstanding, further admissions must keep shedding.
            if probe_outstanding {
                for _ in 0..rng.gen_range(0usize..3) {
                    assert_eq!(b.admit(), Admission::Shed, "seed {seed} step {step}");
                }
                if rng.gen_bool(0.5) {
                    b.on_success();
                } else {
                    b.on_failure();
                }
                probe_outstanding = false;
            } else if b.state() == BreakerState::Closed && rng.gen_bool(0.6) {
                // Closed-state traffic reports freely.
                if rng.gen_bool(0.4) {
                    b.on_success();
                } else {
                    b.on_failure();
                }
            }
            assert!(
                b.retries_left() <= cfg.retry_budget,
                "seed {seed} step {step}: budget overflow ({cfg:?})"
            );
            assert!(
                b.recoveries() <= b.trips(),
                "seed {seed} step {step}: recovered without tripping"
            );
        }
        // Drain any cooldown and burn the remaining budget; the breaker
        // must then be permanently open.
        if b.is_open() {
            let mut guard = 0;
            while b.retries_left() > 0 {
                if b.admit() == Admission::Probe {
                    b.on_failure();
                }
                guard += 1;
                assert!(guard < 10_000, "seed {seed}: budget never drained");
            }
            for _ in 0..cfg.cooldown + 8 {
                assert_eq!(b.admit(), Admission::Shed, "seed {seed}: permanent open");
            }
            assert_eq!(b.state(), BreakerState::Open);
        }
    }
}

// ---------------------------------------------------------------------------
// Overload-control properties (loadgen + EDF queue)
// ---------------------------------------------------------------------------

use needle::{run_loadgen, DeadlineQueue, LoadgenConfig, Scenario};

/// The admission ledger must close under seeded open-loop arrival traces:
/// every offered attempt is either shed at admission or accepted, and
/// every accepted attempt resolves to exactly one outcome (completed,
/// cancelled mid-run, or expired in queue) — `accepted == completed +
/// failed + shed_after_accept`, recomputed here from the raw phase
/// counters rather than trusted from the run's own violation check.
#[test]
fn prop_loadgen_admission_ledger_closes() {
    for seed in [1u64, 7, 42, 0xDEAD] {
        for scenario in [Scenario::Steady, Scenario::Burst, Scenario::RetryStorm] {
            let report = run_loadgen(&LoadgenConfig::quick(seed, scenario));
            for run in &report.runs {
                assert!(
                    run.violations.is_empty(),
                    "seed {seed} {scenario} [{}]: {:?}",
                    run.mode,
                    run.violations
                );
                let offered: u64 = run.phases.iter().map(|p| p.offered).sum();
                let accepted: u64 = run.phases.iter().map(|p| p.accepted).sum();
                let sheds: u64 = run.phases.iter().map(|p| p.admission_sheds()).sum();
                let outcomes: u64 = run.phases.iter().map(|p| p.accepted_outcomes()).sum();
                assert_eq!(
                    accepted + sheds,
                    offered,
                    "seed {seed} {scenario} [{}]: admission split",
                    run.mode
                );
                assert_eq!(
                    outcomes, accepted,
                    "seed {seed} {scenario} [{}]: exactly-once",
                    run.mode
                );
                assert!(offered > 0, "trace generated no load");
            }
        }
    }
}

/// EDF dequeue discipline: after sweeping expired entries at time `now`,
/// the queue never serves an already-expired entry ahead of a meetable
/// one — every pop has `deadline > now` — and pops come out in
/// non-decreasing deadline order.
#[test]
fn prop_edf_never_serves_expired_ahead_of_meetable() {
    for seed in [3u64, 11, 42, 0xBEEF, 0xC0FFEE] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q: DeadlineQueue<u64> = DeadlineQueue::new(64);
        let mut now: u64 = 0;
        for _ in 0..2_000 {
            match rng.gen_range(0u32..10) {
                // Push with a deadline around `now` (some already dead).
                0..=5 => {
                    let d = now.saturating_sub(50) + rng.gen_range(0u64..200);
                    let _ = q.push(d, d);
                }
                // Advance time.
                6..=7 => now += rng.gen_range(0u64..120),
                // Sweep, then drain a few: nothing expired may surface,
                // and deadlines must be non-decreasing.
                _ => {
                    let swept = q.sweep_expired(now);
                    for d in &swept {
                        assert!(*d <= now, "seed {seed}: sweep returned live entry {d} at {now}");
                    }
                    let mut last = 0u64;
                    for _ in 0..rng.gen_range(0..6) {
                        let Some(d) = q.pop() else { break };
                        assert!(
                            d > now,
                            "seed {seed}: EDF served expired entry {d} at {now} \
                             ahead of meetable work"
                        );
                        assert!(d >= last, "seed {seed}: EDF order broken ({d} < {last})");
                        last = d;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Service-core properties
// ---------------------------------------------------------------------------

use needle::{Admitted, FailReason, Outcome, ServeConfig, ServiceCore, ShedReason};

/// Seeded random offer / next / complete / drain sequences against the
/// service core, hardened (with the default latency target) and without
/// one. Along every walk: each offer is either accepted or shed at
/// admission; every refusal is draining (only after drain), queue-full
/// (only at capacity) or unmeetable (only on the hardened core, below
/// capacity); every accepted job is queued, running, or counted out
/// exactly once; and `next` never hands out an entry whose deadline has
/// passed. After drain and the last completions the ledger closes:
/// `accepted == completed + failed + shed_after_accept`.
#[test]
fn prop_service_core_ledger_closes() {
    const DEPTH: usize = 16;
    for seed in [1u64, 7, 42, 0xDEAD] {
        for hardened in [true, false] {
            let ctx = format!("seed {seed} hardened {hardened}");
            let mut core: ServiceCore<u64> = ServiceCore::new(&ServeConfig {
                workers: 2,
                queue_depth: DEPTH,
                latency_target: hardened.then_some(0.75),
                ..ServeConfig::default()
            });
            let mut rng = StdRng::seed_from_u64(seed);
            let mut now = 0u64;
            let mut running: Vec<Admitted<u64>> = Vec::new();
            let mut offers = 0u64;
            for step in 0..3_000u64 {
                if step == 2_700 {
                    core.drain(now);
                }
                let drained = core.is_draining();
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        offers += 1;
                        let full = core.queue_len() == DEPTH;
                        let deadline = now + rng.gen_range(1u64..3_000);
                        if let Err((reason, _)) = core.offer(now, deadline, step) {
                            let allowed = match reason {
                                ShedReason::Draining => drained,
                                ShedReason::QueueFull => !drained && full,
                                ShedReason::Unmeetable => hardened && !drained && !full,
                                _ => false,
                            };
                            assert!(allowed, "{ctx}: {reason} refusal at step {step}");
                        }
                    }
                    4..=5 if running.len() < 2 => {
                        let next = core.next(now);
                        for e in &next.expired {
                            assert!(e.deadline_us <= now, "{ctx}: swept a live entry");
                        }
                        if let Some(job) = next.job {
                            assert!(job.deadline_us > now, "{ctx}: served an expired entry");
                            running.push(job);
                        }
                    }
                    6..=7 if !running.is_empty() => {
                        let job = running.swap_remove(rng.gen_range(0..running.len()));
                        let outcome = match rng.gen_range(0u32..3) {
                            0 => Outcome::Failed(FailReason::Cancelled),
                            _ => Outcome::Completed { fallback: false, frame_abort: false },
                        };
                        core.complete(now, &job, &outcome);
                    }
                    _ => now += rng.gen_range(0u64..400),
                }
                let m = core.metrics();
                let sheds = m.shed_queue_full + m.shed_unmeetable + m.shed_pre_draining;
                assert_eq!(offers, m.accepted + sheds, "{ctx}: admission split at {step}");
                let out = m.completed + m.failed + m.shed_after_accept;
                let held = (core.queue_len() + running.len()) as u64;
                assert_eq!(m.accepted, out + held, "{ctx}: job lost or doubled at {step}");
            }
            let done = Outcome::Completed { fallback: false, frame_abort: false };
            for job in running.drain(..) {
                core.complete(now, &job, &done);
            }
            let m = core.metrics();
            assert!(m.invariant_holds(), "{ctx}: {m}");
            assert!(m.accepted > 0 && m.shed_pre_draining > 0, "{ctx}: trace too short");
        }
    }
}
