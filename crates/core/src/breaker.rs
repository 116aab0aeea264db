//! Per-function circuit breaker.
//!
//! Generalizes the offload layer's abort-storm detector into a reusable
//! state machine, parameterized by the same [`StormConfig`] policy:
//!
//! * **Closed** — traffic flows; each failure bumps a consecutive-failure
//!   counter, each success clears it. Reaching `threshold` consecutive
//!   failures trips the breaker (a `threshold` of 0 disables tripping).
//! * **Open** — traffic is shed for `cooldown` admission decisions, after
//!   which one probe request is let through (half-open).
//! * **Half-open** — the probe's outcome decides: success closes the
//!   breaker and refills the retry budget (hysteresis: one good probe is
//!   enough); failure spends one unit of `retry_budget` and restarts the
//!   cooldown. At zero budget the breaker is permanently open.
//!
//! The exact counter discipline — when `cooldown_left` decrements, when
//! `consecutive` resets, when `retry_budget` refills — is shared with the
//! abort-storm gate in [`crate::offload`], which now delegates to this
//! type so the two policies can never drift.

use std::time::Instant;

use crate::config::StormConfig;

/// What the breaker allows for the next request on a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: execute normally.
    Execute,
    /// Breaker half-open: execute as the recovery probe. The caller
    /// *must* report the outcome via [`CircuitBreaker::on_success`] /
    /// [`CircuitBreaker::on_failure`] or the breaker wedges half-open.
    Probe,
    /// Breaker open: shed (the caller falls back to a degraded path).
    Shed,
}

/// Coarse state for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal traffic.
    Closed,
    /// Tripped; shedding.
    Open,
    /// A probe is in flight.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// Trip/cooldown/probe state machine (see module docs).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: StormConfig,
    consecutive_failures: u32,
    open: bool,
    cooldown_left: u64,
    retries_left: u32,
    probing: bool,
    trips: u64,
    recoveries: u64,
    /// When the current coarse state was entered.
    entered_state_at: Instant,
    /// Cumulative milliseconds spent in each completed residency of
    /// [closed, open, half-open] (the current residency is added lazily
    /// by [`CircuitBreaker::time_in_state_ms`]).
    ms_in: [u64; 3],
    /// Coarse-state transitions (closed→open, open→half-open, …).
    transitions: u64,
}

fn state_idx(s: BreakerState) -> usize {
    match s {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    }
}

impl CircuitBreaker {
    /// A closed breaker with a full retry budget.
    pub fn new(cfg: StormConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            consecutive_failures: 0,
            open: false,
            cooldown_left: 0,
            retries_left: cfg.retry_budget,
            probing: false,
            trips: 0,
            recoveries: 0,
            entered_state_at: Instant::now(),
            ms_in: [0; 3],
            transitions: 0,
        }
    }

    /// Close out the residency of the *current* coarse state and start a
    /// new one. Must be called before the fields defining `state()` flip.
    fn note_transition(&mut self) {
        let now = Instant::now();
        let elapsed = now.duration_since(self.entered_state_at).as_millis() as u64;
        self.ms_in[state_idx(self.state())] += elapsed;
        self.entered_state_at = now;
        self.transitions += 1;
    }

    /// Decide the next request. Open-state calls consume cooldown, so
    /// call this once per real admission decision, not speculatively.
    pub fn admit(&mut self) -> Admission {
        if !self.open {
            return Admission::Execute;
        }
        if self.probing {
            // A probe is already in flight; don't stack a second one.
            return Admission::Shed;
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return Admission::Shed;
        }
        if self.retries_left == 0 {
            return Admission::Shed;
        }
        self.note_transition(); // open → half-open
        self.probing = true;
        Admission::Probe
    }

    /// Report a successful execution (normal or probe).
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        if self.probing {
            self.note_transition(); // half-open → closed
            self.probing = false;
            self.open = false;
            self.retries_left = self.cfg.retry_budget;
            self.recoveries += 1;
        }
    }

    /// Report a failed execution (normal or probe).
    pub fn on_failure(&mut self) {
        if self.probing {
            self.note_transition(); // half-open → open
            self.probing = false;
            self.retries_left -= 1;
            self.cooldown_left = self.cfg.cooldown;
        } else if !self.open {
            self.consecutive_failures += 1;
            if self.cfg.threshold > 0 && self.consecutive_failures >= self.cfg.threshold {
                self.note_transition(); // closed → open
                self.open = true;
                self.trips += 1;
                self.cooldown_left = self.cfg.cooldown;
                self.consecutive_failures = 0;
            }
        }
    }

    /// Whether the breaker is currently tripped (open or half-open).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Coarse state for metrics rows.
    pub fn state(&self) -> BreakerState {
        if !self.open {
            BreakerState::Closed
        } else if self.probing {
            BreakerState::HalfOpen
        } else {
            BreakerState::Open
        }
    }

    /// Times the breaker tripped closed→open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times a probe closed the breaker again.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Failed probes still allowed before the breaker is permanently open.
    pub fn retries_left(&self) -> u32 {
        self.retries_left
    }

    /// Total coarse-state transitions since construction.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Cumulative milliseconds spent in `state`, including the current
    /// residency if the breaker is in `state` right now. A state the
    /// breaker never entered reports zero.
    pub fn time_in_state_ms(&self, state: BreakerState) -> u64 {
        let mut ms = self.ms_in[state_idx(state)];
        if self.state() == state {
            ms += self.entered_state_at.elapsed().as_millis() as u64;
        }
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32, cooldown: u64, retry_budget: u32) -> StormConfig {
        StormConfig {
            threshold,
            cooldown,
            retry_budget,
        }
    }

    /// Drain the open-state cooldown; every decision during it sheds.
    fn drain_cooldown(b: &mut CircuitBreaker, n: u64) {
        for i in 0..n {
            assert_eq!(b.admit(), Admission::Shed, "cooldown decision {i}");
            assert_eq!(b.state(), BreakerState::Open);
        }
    }

    #[test]
    fn closed_until_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(cfg(3, 4, 2));
        for _ in 0..2 {
            assert_eq!(b.admit(), Admission::Execute);
            b.on_failure();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        // A success resets the streak (consecutive, not cumulative).
        assert_eq!(b.admit(), Admission::Execute);
        b.on_success();
        for _ in 0..2 {
            assert_eq!(b.admit(), Admission::Execute);
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
        assert_eq!(b.admit(), Admission::Execute);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open, "third consecutive trips");
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn zero_threshold_disables_tripping() {
        let mut b = CircuitBreaker::new(cfg(0, 4, 2));
        for _ in 0..100 {
            assert_eq!(b.admit(), Admission::Execute);
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn open_sheds_through_cooldown_then_probes() {
        let mut b = CircuitBreaker::new(cfg(2, 3, 2));
        b.on_failure();
        b.on_failure();
        assert!(b.is_open());
        drain_cooldown(&mut b, 3);
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // While the probe is in flight further traffic sheds.
        assert_eq!(b.admit(), Admission::Shed);
    }

    #[test]
    fn successful_probe_recovers_and_refills_budget() {
        let mut b = CircuitBreaker::new(cfg(2, 1, 2));
        b.on_failure();
        b.on_failure();
        drain_cooldown(&mut b, 1);
        // Fail one probe first (budget 2 -> 1)...
        assert_eq!(b.admit(), Admission::Probe);
        b.on_failure();
        assert_eq!(b.retries_left(), 1);
        drain_cooldown(&mut b, 1);
        // ...then a good probe closes the breaker and refills the budget.
        assert_eq!(b.admit(), Admission::Probe);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
        assert_eq!(b.retries_left(), 2);
        assert_eq!(b.admit(), Admission::Execute);
    }

    #[test]
    fn exhausted_retry_budget_is_permanently_open() {
        let mut b = CircuitBreaker::new(cfg(1, 0, 2));
        b.on_failure();
        assert!(b.is_open());
        // cooldown 0: probes come immediately; burn both retries.
        for _ in 0..2 {
            assert_eq!(b.admit(), Admission::Probe);
            b.on_failure();
        }
        assert_eq!(b.retries_left(), 0);
        for _ in 0..50 {
            assert_eq!(b.admit(), Admission::Shed);
        }
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn retrip_after_recovery_counts_again() {
        let mut b = CircuitBreaker::new(cfg(1, 0, 4));
        b.on_failure();
        assert_eq!(b.admit(), Admission::Probe);
        b.on_success();
        assert_eq!((b.trips(), b.recoveries()), (1, 1));
        b.on_failure();
        assert_eq!((b.trips(), b.recoveries()), (2, 1));
        assert_eq!(b.admit(), Admission::Probe);
        b.on_success();
        assert_eq!((b.trips(), b.recoveries()), (2, 2));
    }

    #[test]
    fn two_probes_racing_from_cooldown_admit_exactly_one() {
        // Two callers reach the breaker the instant cooldown expires.
        // Exactly one wins the probe; the loser sheds and — per the
        // admission contract — must NOT report an outcome. Only the
        // probe holder's report moves the state machine.
        let mut b = CircuitBreaker::new(cfg(2, 2, 3));
        b.on_failure();
        b.on_failure();
        drain_cooldown(&mut b, 2);
        let first = b.admit();
        let second = b.admit();
        assert_eq!(first, Admission::Probe);
        assert_eq!(second, Admission::Shed, "no stacked probes");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Every further racer sheds until the in-flight probe reports.
        for _ in 0..10 {
            assert_eq!(b.admit(), Admission::Shed);
        }
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
        assert_eq!(b.retries_left(), 3, "losers spent no budget");
    }

    #[test]
    fn probe_success_racing_a_trip_reopens_cleanly() {
        // A probe is dispatched, and while it runs, enough post-recovery
        // failures arrive (from requests admitted before the earlier
        // trip) to matter. Sequence: probe succeeds -> breaker closes ->
        // stale failures now count against the fresh closed state and
        // can legitimately re-trip. The race must never leave the
        // breaker half-open with no probe in flight.
        let mut b = CircuitBreaker::new(cfg(2, 1, 2));
        b.on_failure();
        b.on_failure();
        assert_eq!(b.trips(), 1);
        drain_cooldown(&mut b, 1);
        assert_eq!(b.admit(), Admission::Probe);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        // Two stale failures land right after the recovery: a real
        // second trip, not a wedge.
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!((b.trips(), b.recoveries()), (2, 1));
        // And the re-opened breaker still probes out of cooldown.
        drain_cooldown(&mut b, 1);
        assert_eq!(b.admit(), Admission::Probe);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.retries_left(), 2);
    }

    #[test]
    fn trip_reported_while_probing_spends_probe_budget_once() {
        // The inverse interleaving: the probe FAILS while stale traffic
        // also fails. The probe failure spends exactly one budget unit
        // and restarts cooldown; the stale failures (reported while
        // open, not probing) are inert.
        let mut b = CircuitBreaker::new(cfg(1, 2, 2));
        b.on_failure();
        drain_cooldown(&mut b, 2);
        assert_eq!(b.admit(), Admission::Probe);
        b.on_failure(); // probe outcome
        b.on_failure(); // stale, while open
        b.on_failure(); // stale, while open
        assert_eq!(b.retries_left(), 1, "only the probe spent budget");
        assert_eq!(b.trips(), 1);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn permanent_open_reentry_stays_shed_across_success_reports() {
        // Once the retry budget hits zero the breaker is permanently
        // open: re-entering admit() forever sheds, and even a stray
        // success report (e.g. a late fallback completion) must not
        // resurrect it — only a successful PROBE closes a breaker, and
        // a permanently-open breaker never grants one.
        let mut b = CircuitBreaker::new(cfg(1, 0, 1));
        b.on_failure();
        assert_eq!(b.admit(), Admission::Probe);
        b.on_failure();
        assert_eq!(b.retries_left(), 0);
        for _ in 0..3 {
            assert_eq!(b.admit(), Admission::Shed);
            b.on_success(); // stray report while open, not probing
            assert!(b.is_open(), "stray success must not close the breaker");
            assert_eq!(b.state(), BreakerState::Open);
        }
        assert_eq!(b.recoveries(), 0);
    }

    #[test]
    fn transition_counter_tracks_every_coarse_state_change() {
        // trip (closed→open), cooldown, probe (open→half-open), probe
        // fails (half-open→open), cooldown, probe (open→half-open),
        // probe succeeds (half-open→closed): 5 transitions, and they
        // reconcile with trips/recoveries/budget.
        let mut b = CircuitBreaker::new(cfg(2, 1, 2));
        assert_eq!(b.transitions(), 0);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.transitions(), 1);
        drain_cooldown(&mut b, 1);
        assert_eq!(b.transitions(), 1, "cooldown sheds are not transitions");
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(b.transitions(), 2);
        b.on_failure();
        assert_eq!(b.transitions(), 3);
        drain_cooldown(&mut b, 1);
        assert_eq!(b.admit(), Admission::Probe);
        b.on_success();
        assert_eq!(b.transitions(), 5);
        assert_eq!((b.trips(), b.recoveries()), (1, 1));
    }

    #[test]
    fn stale_reports_and_sheds_do_not_count_as_transitions() {
        let mut b = CircuitBreaker::new(cfg(1, 5, 1));
        b.on_failure(); // closed→open
        assert_eq!(b.transitions(), 1);
        b.on_failure(); // stale while open: inert
        b.on_success(); // stray while open: inert
        for _ in 0..3 {
            assert_eq!(b.admit(), Admission::Shed);
        }
        assert_eq!(b.transitions(), 1);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn time_in_state_is_zero_for_states_never_entered() {
        let b = CircuitBreaker::new(cfg(3, 4, 2));
        assert_eq!(b.time_in_state_ms(BreakerState::Open), 0);
        assert_eq!(b.time_in_state_ms(BreakerState::HalfOpen), 0);

        let mut b = CircuitBreaker::new(cfg(1, 0, 1));
        b.on_failure();
        // Never probed yet: half-open residency must still be zero, and
        // open time only covers the current (live) residency.
        assert_eq!(b.time_in_state_ms(BreakerState::HalfOpen), 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(b.time_in_state_ms(BreakerState::Open) >= 4);
    }

    #[test]
    fn time_accumulates_across_reentries_of_a_state() {
        let mut b = CircuitBreaker::new(cfg(1, 0, 4));
        b.on_failure(); // open
        std::thread::sleep(std::time::Duration::from_millis(3));
        assert_eq!(b.admit(), Admission::Probe);
        b.on_failure(); // back to open
        std::thread::sleep(std::time::Duration::from_millis(3));
        assert_eq!(b.admit(), Admission::Probe);
        b.on_success(); // closed
        // Two completed open residencies of ≥3ms each.
        assert!(b.time_in_state_ms(BreakerState::Open) >= 5);
        assert_eq!(b.transitions(), 5);
    }

    #[test]
    fn open_failure_reports_do_not_double_trip() {
        // Failures reported while open (e.g. a fallback leg failing) must
        // not consume budget or re-trip.
        let mut b = CircuitBreaker::new(cfg(1, 5, 1));
        b.on_failure();
        assert_eq!(b.trips(), 1);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.trips(), 1);
        assert_eq!(b.retries_left(), 1);
    }
}
