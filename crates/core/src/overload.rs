//! Overload control for the serving stack: the components and the one
//! service core that composes them.
//!
//! Everything in this module is *pure* with respect to time: each operation
//! takes an explicit `now_us` (microseconds on some monotonic clock) instead
//! of reading `Instant::now()`. [`ServiceCore`] is the single-threaded
//! admission and overload-control state machine that both drivers run: the
//! threaded [`Service`](crate::serve::Service) holds one under its state
//! mutex and feeds it wall-clock microseconds, and the discrete-event
//! simulator in [`loadgen`](crate::loadgen) runs one per shard in virtual
//! time. The behaviour the load generator certifies is therefore the
//! behaviour production runs; the drivers differ only in what they pass to
//! [`ServiceCore::tick`] as offered load (see the `tick` docs).
//!
//! Components the core owns:
//!
//! * [`DeadlineQueue`] — bounded admission queue ordered by request deadline
//!   (earliest-deadline-first) with an expired-entry sweep;
//! * [`AimdAdmission`] — additive-increase / multiplicative-decrease
//!   admission control driven by measured completion latency relative to
//!   the request deadline;
//! * the unmeetable-deadline test — an EWMA of per-job service time,
//!   derived from each completion's latency by Little's law, projects when
//!   a new job would finish and refuses it past AIMD's own latency target;
//! * [`MetastableDetector`] — detects the classic retry-storm failure mode
//!   where offered load has returned to normal but goodput stays collapsed,
//!   and triggers a forced load-shed pulse to break the feedback loop.

use std::collections::BinaryHeap;

use crate::serve::{FailReason, MetricsSnapshot, Outcome, ServeConfig, ShedReason};

// ---------------------------------------------------------------------------
// Deadline-aware queue (EDF + expired sweep)
// ---------------------------------------------------------------------------

/// Internal heap entry. Ordered as a *min*-heap on `(deadline_us, seq)` by
/// inverting `Ord`; `seq` breaks deadline ties FIFO so the dequeue order is
/// fully deterministic.
struct QEntry<T> {
    deadline_us: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for QEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline_us == other.deadline_us && self.seq == other.seq
    }
}
impl<T> Eq for QEntry<T> {}
impl<T> PartialOrd for QEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline
        // (then lowest seq) at the top.
        (other.deadline_us, other.seq).cmp(&(self.deadline_us, self.seq))
    }
}

/// Bounded earliest-deadline-first queue with an expired-entry sweep.
///
/// `push` refuses entries beyond `capacity` (returning the item to the
/// caller, who sheds it as queue-full). `sweep_expired` removes every entry
/// whose deadline is `<= now_us` so the caller can shed them as expired
/// *without* burning worker time popping them one by one. `pop` returns the
/// earliest-deadline entry; after a sweep at the same `now_us` it can never
/// return an entry that is already expired while a meetable one waits.
pub struct DeadlineQueue<T> {
    heap: BinaryHeap<QEntry<T>>,
    capacity: usize,
    seq: u64,
}

impl<T> DeadlineQueue<T> {
    pub fn new(capacity: usize) -> Self {
        DeadlineQueue { heap: BinaryHeap::new(), capacity, seq: 0 }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.capacity
    }

    /// Enqueue `item` with its absolute deadline. Returns `Err(item)` when
    /// the queue is at capacity so the caller can shed it.
    pub fn push(&mut self, deadline_us: u64, item: T) -> Result<(), T> {
        if self.heap.len() >= self.capacity {
            return Err(item);
        }
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QEntry { deadline_us, seq, item });
        Ok(())
    }

    /// Remove and return every entry whose deadline has already passed.
    /// The caller is responsible for responding `Shed(Expired)` to each.
    pub fn sweep_expired(&mut self, now_us: u64) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(head) = self.heap.peek() {
            if head.deadline_us <= now_us {
                out.push(self.heap.pop().expect("peeked").item);
            } else {
                break;
            }
        }
        out
    }

    /// Dequeue the earliest-deadline entry. Callers should `sweep_expired`
    /// first; entries that expired since the last sweep are still returned
    /// (the executor re-checks expiry before running).
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.item)
    }

    /// Drain every entry (used on shutdown / shed pulses).
    pub fn drain_all(&mut self) -> Vec<T> {
        let mut out: Vec<QEntry<T>> = std::mem::take(&mut self.heap).into_vec();
        out.sort_by_key(|e| (e.deadline_us, e.seq));
        out.into_iter().map(|e| e.item).collect()
    }
}

// ---------------------------------------------------------------------------
// AIMD adaptive admission
// ---------------------------------------------------------------------------

/// Tuning for [`AimdAdmission`].
#[derive(Clone, Copy, Debug)]
pub struct AimdConfig {
    /// A completion counts as a latency breach when it took longer than
    /// `target_fraction × deadline_budget`. 0.75 means "we want answers in
    /// three quarters of the budget"; anything slower tightens admission.
    pub target_fraction: f64,
    /// Additive rate increase per healthy completion.
    pub increase: f64,
    /// Multiplicative rate decrease on a breach or an expiry.
    pub decrease: f64,
    /// Floor for the acceptance rate — never reject *everything* forever,
    /// or the controller can never observe recovery.
    pub min_rate: f64,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig { target_fraction: 0.75, increase: 0.02, decrease: 0.85, min_rate: 0.10 }
    }
}

/// Additive-increase / multiplicative-decrease admission controller.
///
/// The acceptance rate lives in `[min_rate, 1.0]`. Admission decisions are
/// *deterministic*: a credit accumulator gains `rate` per offered request
/// and a request is admitted whenever the accumulator reaches 1. At rate
/// 0.25 exactly every fourth request is admitted — no RNG, so seeded soaks
/// and the virtual-time simulator reproduce bit-identically.
#[derive(Clone, Debug)]
pub struct AimdAdmission {
    cfg: AimdConfig,
    rate: f64,
    credit: f64,
    /// Total offers rejected by the controller.
    pub throttled: u64,
    /// Completion-latency breaches observed.
    pub breaches: u64,
}

impl AimdAdmission {
    pub fn new(cfg: AimdConfig) -> Self {
        AimdAdmission { cfg, rate: 1.0, credit: 0.0, throttled: 0, breaches: 0 }
    }

    /// Current acceptance rate in `[min_rate, 1]`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Decide whether to admit one offered request.
    pub fn admit(&mut self) -> bool {
        self.credit += self.rate;
        if self.credit >= 1.0 {
            self.credit -= 1.0;
            true
        } else {
            self.throttled += 1;
            false
        }
    }

    /// Feed one measured completion: latency vs the request's total deadline
    /// budget. Healthy completions open the gate additively; breaches close
    /// it multiplicatively.
    pub fn on_completion(&mut self, latency_us: u64, deadline_budget_us: u64) {
        let target = self.cfg.target_fraction * deadline_budget_us as f64;
        if (latency_us as f64) > target {
            self.breaches += 1;
            self.rate = (self.rate * self.cfg.decrease).max(self.cfg.min_rate);
        } else {
            self.rate = (self.rate + self.cfg.increase).min(1.0);
        }
    }

    /// An accepted request expired in queue — the strongest overload signal.
    pub fn on_expiry(&mut self) {
        self.breaches += 1;
        self.rate = (self.rate * self.cfg.decrease).max(self.cfg.min_rate);
    }

    /// Metastable shed pulse: clamp the gate shut (it will climb back via
    /// `on_completion` as soon as real work succeeds again).
    pub fn pulse(&mut self) {
        self.rate = self.cfg.min_rate;
        self.credit = 0.0;
    }

    /// End of a shed pulse: the backlog that fed the collapse is gone, so
    /// probe at full rate instead of crawling up from the floor. Any real
    /// remaining overload re-tightens the gate within a few completions.
    pub fn reopen(&mut self) {
        self.rate = 1.0;
        self.credit = 0.0;
    }
}

// ---------------------------------------------------------------------------
// Metastable-failure detector
// ---------------------------------------------------------------------------

/// Tuning for [`MetastableDetector`].
#[derive(Clone, Copy, Debug)]
pub struct MetastableConfig {
    /// Goodput below `collapse_fraction × min(healthy baseline, window
    /// offered)` counts as collapsed.
    pub collapse_fraction: f64,
    /// Offered load within `normal_load_fraction × healthy baseline` counts
    /// as "back to normal" — collapse under genuinely extreme load is plain
    /// overload, not metastability.
    pub normal_load_fraction: f64,
    /// Consecutive suspect windows before the detector fires.
    pub confirm_windows: u32,
    /// Goodput at or above `recover_fraction × min(baseline, window
    /// offered)` ends the episode.
    pub recover_fraction: f64,
    /// EWMA weight for the healthy baselines.
    pub baseline_alpha: f64,
    /// Healthy windows required before the detector arms at all.
    pub warmup_windows: u32,
}

impl Default for MetastableConfig {
    fn default() -> Self {
        MetastableConfig {
            collapse_fraction: 0.5,
            normal_load_fraction: 1.5,
            confirm_windows: 3,
            recover_fraction: 0.75,
            baseline_alpha: 0.2,
            warmup_windows: 5,
        }
    }
}

/// What the caller should do after a window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetastableSignal {
    /// Metastable collapse confirmed: force a load-shed pulse (drain the
    /// queue, clamp admission) and log a timeline event.
    Fire,
    /// Goodput recovered; log recovery.
    Recover,
}

/// Detects metastable goodput collapse: offered load has returned to the
/// normal band, yet goodput stays collapsed because some internal feedback
/// loop (retry amplification, doomed queue entries, admission wind-down)
/// sustains the bad state. The cure is a forced shed pulse that breaks the
/// loop; the detector reports recovery once goodput returns.
#[derive(Clone, Debug)]
pub struct MetastableDetector {
    cfg: MetastableConfig,
    baseline_offered: f64,
    baseline_goodput: f64,
    healthy_windows: u32,
    suspect: u32,
    collapsed: bool,
    /// Times the detector fired.
    pub fired: u64,
    /// Times a collapse episode recovered.
    pub recovered: u64,
}

impl MetastableDetector {
    pub fn new(cfg: MetastableConfig) -> Self {
        MetastableDetector {
            cfg,
            baseline_offered: 0.0,
            baseline_goodput: 0.0,
            healthy_windows: 0,
            suspect: 0,
            collapsed: false,
            fired: 0,
            recovered: 0,
        }
    }

    pub fn is_collapsed(&self) -> bool {
        self.collapsed
    }

    /// Feed one observation window: `offered` requests arrived, `goodput`
    /// completed in deadline. Rates, counts — any unit, as long as both use
    /// the same one. Windows with no traffic are ignored.
    pub fn on_window(&mut self, offered: f64, goodput: f64) -> Option<MetastableSignal> {
        if offered <= 0.0 && goodput <= 0.0 {
            return None;
        }
        let a = self.cfg.baseline_alpha;
        if self.healthy_windows < self.cfg.warmup_windows {
            // Establish the healthy baselines before judging anything.
            if self.baseline_offered == 0.0 {
                self.baseline_offered = offered;
                self.baseline_goodput = goodput;
            } else {
                self.baseline_offered = (1.0 - a) * self.baseline_offered + a * offered;
                self.baseline_goodput = (1.0 - a) * self.baseline_goodput + a * goodput;
            }
            self.healthy_windows += 1;
            return None;
        }
        // Goodput is judged against what the window could have delivered:
        // a window offered fewer requests than the healthy baseline cannot
        // be expected to complete the baseline's worth.
        let expected = self.baseline_goodput.min(offered.max(1.0));
        if self.collapsed {
            if goodput >= self.cfg.recover_fraction * expected {
                self.collapsed = false;
                self.suspect = 0;
                self.recovered += 1;
                return Some(MetastableSignal::Recover);
            }
            return None;
        }
        let load_normal = offered <= self.cfg.normal_load_fraction * self.baseline_offered;
        let goodput_collapsed = goodput < self.cfg.collapse_fraction * expected;
        if load_normal && goodput_collapsed {
            self.suspect += 1;
            if self.suspect >= self.cfg.confirm_windows {
                self.collapsed = true;
                self.suspect = 0;
                self.fired += 1;
                return Some(MetastableSignal::Fire);
            }
        } else {
            self.suspect = 0;
            if !goodput_collapsed {
                // Healthy window: keep the baselines tracking slow drift.
                self.baseline_offered = (1.0 - a) * self.baseline_offered + a * offered;
                self.baseline_goodput = (1.0 - a) * self.baseline_goodput + a * goodput;
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// The service core
// ---------------------------------------------------------------------------

/// How long a metastable shed pulse refuses every offer, µs.
const PULSE_US: u64 = 200_000;

/// A job the core accepted, with the admission facts it needs back when
/// the job completes.
#[derive(Debug)]
pub struct Admitted<J> {
    /// The caller's job.
    pub job: J,
    /// When the core accepted it, µs.
    pub accepted_us: u64,
    /// Its absolute deadline, µs.
    pub deadline_us: u64,
    /// Jobs queued ahead of it at accept: its latency covers their
    /// service as well as its own.
    ahead: usize,
}

/// What one [`ServiceCore::next`] call hands the caller.
#[derive(Debug)]
pub struct Next<J> {
    /// Entries whose deadline passed while queued, oldest deadline first.
    /// The core has already counted each as shed after accept; the caller
    /// answers each as expired.
    pub expired: Vec<Admitted<J>>,
    /// The earliest-deadline entry still meetable at `now_us`, if any.
    pub job: Option<Admitted<J>>,
}

/// What one [`ServiceCore::tick`] did, for the caller's timeline.
#[derive(Debug)]
pub struct Tick<J> {
    /// A shed pulse ran out at this tick; admission reopened at full rate.
    pub pulse_ended: bool,
    /// The metastable detector fired or recovered.
    pub metastable: Option<MetastableSignal>,
    /// Entries flushed by the shed pulse that fired at this tick. The core
    /// has already counted each as shed after accept; the caller answers
    /// each as throttled.
    pub flushed: Vec<Admitted<J>>,
}

/// The single-threaded admission and overload-control core of one
/// service: the EDF queue, the AIMD gate, the service-time EWMA behind the
/// unmeetable test, the metastable detector with its shed pulse, and the
/// accept/shed/outcome counters and latency histogram of
/// [`MetricsSnapshot`]. Time is an argument (`now_us`); the core never
/// reads a clock.
///
/// Five operations drive it: [`offer`](Self::offer) admits or sheds,
/// [`next`](Self::next) sweeps expired entries and pops the earliest
/// deadline, [`complete`](Self::complete) records an executed job's
/// outcome, [`tick`](Self::tick) runs one overload-control window, and
/// [`drain`](Self::drain) stops admission and hands back everything
/// queued. Every accepted job leaves through exactly one of `next` (as
/// expired), `tick` (as flushed), `drain`, or `complete` after `next`
/// returned it, and is counted exactly once on the way out, so once the
/// caller completes what it popped, `accepted == completed + failed +
/// shed_after_accept`.
///
/// Setting [`ServeConfig::adaptive_admission`] and
/// [`ServeConfig::metastable`] to `None` leaves a plain bounded queue: the
/// only refusals are queue-full and draining. `None` for admission also
/// drops the unmeetable test.
pub struct ServiceCore<J> {
    workers: f64,
    queue: DeadlineQueue<Admitted<J>>,
    admission: Option<AimdAdmission>,
    /// EWMA of the per-job service time of completed jobs, µs (0 until the
    /// first completion): each latency over `1 + ahead / workers`.
    service_us: f64,
    detector: Option<MetastableDetector>,
    /// While `now_us < pulse_until_us` every offer is shed (0 = no pulse).
    pulse_until_us: u64,
    /// Completions since the last tick: the detector's goodput.
    window_goodput: u64,
    draining: bool,
    metrics: MetricsSnapshot,
}

impl<J> ServiceCore<J> {
    /// A core sized and tuned by `cfg`: `workers`, `queue_depth` and the
    /// two overload options.
    pub fn new(cfg: &ServeConfig) -> ServiceCore<J> {
        ServiceCore {
            workers: cfg.workers.max(1) as f64,
            queue: DeadlineQueue::new(cfg.queue_depth.max(1)),
            admission: cfg.adaptive_admission.map(AimdAdmission::new),
            service_us: 0.0,
            detector: cfg.metastable.map(MetastableDetector::new),
            pulse_until_us: 0,
            window_goodput: 0,
            draining: false,
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Whether [`drain`](Self::drain) has run.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Entries waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The AIMD acceptance rate (1.0 without adaptive admission).
    pub fn admission_rate(&self) -> f64 {
        self.admission.as_ref().map_or(1.0, AimdAdmission::rate)
    }

    /// The core's counters. The breaker, governor, region and per-function
    /// fields are the driver's to fill.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.metrics.clone();
        if let Some(d) = &self.detector {
            m.metastable_fired = d.fired;
            m.metastable_recovered = d.recovered;
        }
        m
    }

    /// Admit `job` with its absolute deadline, or shed it. Checks run in
    /// order: draining, shed pulse, AIMD gate, queue capacity, and the
    /// unmeetable test — with `queued` jobs ahead, a job whose projected
    /// completion `(queued / workers + 1) × service` is past AIMD's
    /// `target_fraction` of its remaining budget would complete as a
    /// breach, so it is refused now. On a shed the job comes back with
    /// the reason.
    ///
    /// # Errors
    /// The typed [`ShedReason`] and the refused job.
    pub fn offer(&mut self, now_us: u64, deadline_us: u64, job: J) -> Result<(), (ShedReason, J)> {
        let shed = if self.draining {
            Some(ShedReason::Draining)
        } else if now_us < self.pulse_until_us
            || self.admission.as_mut().is_some_and(|a| !a.admit())
        {
            Some(ShedReason::Throttled)
        } else if self.queue.is_full() {
            Some(ShedReason::QueueFull)
        } else if self.unmeetable(now_us, deadline_us) {
            Some(ShedReason::Unmeetable)
        } else {
            None
        };
        let ahead = self.queue.len();
        let pushed = match shed {
            None => self
                .queue
                .push(deadline_us, Admitted { job, accepted_us: now_us, deadline_us, ahead })
                .map_err(|a| (ShedReason::QueueFull, a.job)),
            Some(reason) => Err((reason, job)),
        };
        let m = &mut self.metrics;
        match &pushed {
            Ok(()) => m.accepted += 1,
            Err((ShedReason::Draining, _)) => m.shed_pre_draining += 1,
            Err((ShedReason::Throttled, _)) => m.shed_throttled += 1,
            Err((ShedReason::Unmeetable, _)) => m.shed_unmeetable += 1,
            Err(_) => m.shed_queue_full += 1,
        }
        pushed
    }

    fn unmeetable(&self, now_us: u64, deadline_us: u64) -> bool {
        let Some(a) = &self.admission else { return false };
        let projected_us = (self.queue.len() as f64 / self.workers + 1.0) * self.service_us;
        projected_us > a.cfg.target_fraction * deadline_us.saturating_sub(now_us) as f64
    }

    /// Sweep every entry whose deadline is `<= now_us` (each an expiry:
    /// counted, and fed to the AIMD gate), then pop the earliest-deadline
    /// entry left. A popped entry's deadline is always after `now_us`.
    pub fn next(&mut self, now_us: u64) -> Next<J> {
        let expired = self.queue.sweep_expired(now_us);
        for e in &expired {
            self.count_unexecuted(now_us, e);
            if let Some(a) = self.admission.as_mut() {
                a.on_expiry();
            }
        }
        Next { expired, job: self.queue.pop() }
    }

    /// Record the outcome of a job [`next`](Self::next) returned and the
    /// caller executed; returns its accept-to-completion latency. Executed
    /// outcomes feed the AIMD gate; completions also feed the service-time
    /// EWMA and the detector's goodput. By Little's law a job that waited
    /// behind `ahead` others took `1 + ahead / workers` service times, so
    /// its sample is the latency over that.
    pub fn complete(&mut self, now_us: u64, done: &Admitted<J>, outcome: &Outcome) -> u64 {
        let latency_us = now_us.saturating_sub(done.accepted_us);
        let m = &mut self.metrics;
        match outcome {
            Outcome::Completed { fallback, frame_abort } => {
                m.completed += 1;
                m.fallbacks += u64::from(*fallback);
                m.frame_aborts += u64::from(*frame_abort);
                self.window_goodput += 1;
                let sample = latency_us as f64 / (1.0 + done.ahead as f64 / self.workers);
                self.service_us = if self.service_us == 0.0 {
                    sample
                } else {
                    0.8 * self.service_us + 0.2 * sample
                };
            }
            Outcome::Failed(reason) => {
                m.failed += 1;
                match reason {
                    FailReason::Cancelled => m.cancelled += 1,
                    FailReason::Panicked => m.panics += 1,
                    FailReason::MemLimit => m.mem_limits += 1,
                    FailReason::StepLimit => m.step_limits += 1,
                    FailReason::BreakerOpen
                    | FailReason::UnknownWorkload
                    | FailReason::ShardLost
                    | FailReason::Exec(_) => {}
                }
            }
            Outcome::Shed(_) => m.shed_after_accept += 1,
        }
        m.latency.record(latency_us);
        if !matches!(outcome, Outcome::Shed(_)) {
            if let Some(a) = self.admission.as_mut() {
                a.on_completion(latency_us, done.deadline_us.saturating_sub(done.accepted_us));
            }
        }
        latency_us
    }

    /// One overload-control window. `offered` is the load that arrived
    /// since the previous tick, as the driver defines it: the threaded
    /// service passes every submission, the load generator passes fresh
    /// arrivals only (a service cannot tell a retry from a fresh request,
    /// the simulator can). In order: a shed pulse that ran out reopens
    /// admission; the detector judges `offered` against the completions
    /// since the last tick, and on a fire the core clamps admission,
    /// refuses every offer for the pulse, and flushes the queue.
    pub fn tick(&mut self, now_us: u64, offered: u64) -> Tick<J> {
        let mut tick = Tick {
            pulse_ended: false,
            metastable: None,
            flushed: Vec::new(),
        };
        if self.pulse_until_us != 0 && now_us >= self.pulse_until_us {
            self.pulse_until_us = 0;
            if let Some(a) = self.admission.as_mut() {
                a.reopen();
            }
            tick.pulse_ended = true;
        }
        let goodput = std::mem::take(&mut self.window_goodput);
        tick.metastable =
            self.detector.as_mut().and_then(|d| d.on_window(offered as f64, goodput as f64));
        if tick.metastable == Some(MetastableSignal::Fire) {
            self.pulse_until_us = now_us + PULSE_US;
            if let Some(a) = self.admission.as_mut() {
                a.pulse();
            }
            tick.flushed = self.evict(now_us);
        }
        tick
    }

    /// Stop admitting (every later offer is shed as draining) and hand
    /// back everything queued, earliest deadline first. The core has
    /// counted each as shed after accept; the caller answers each.
    pub fn drain(&mut self, now_us: u64) -> Vec<Admitted<J>> {
        self.draining = true;
        self.evict(now_us)
    }

    fn evict(&mut self, now_us: u64) -> Vec<Admitted<J>> {
        let all = self.queue.drain_all();
        for e in &all {
            self.count_unexecuted(now_us, e);
        }
        all
    }

    fn count_unexecuted(&mut self, now_us: u64, e: &Admitted<J>) {
        self.metrics.shed_after_accept += 1;
        self.metrics.latency.record(now_us.saturating_sub(e.accepted_us));
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edf_orders_by_deadline_then_fifo() {
        let mut q = DeadlineQueue::new(8);
        q.push(300, "c").unwrap();
        q.push(100, "a1").unwrap();
        q.push(200, "b").unwrap();
        q.push(100, "a2").unwrap();
        assert_eq!(q.pop(), Some("a1"));
        assert_eq!(q.pop(), Some("a2"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn edf_sweep_removes_exactly_the_expired() {
        let mut q = DeadlineQueue::new(8);
        q.push(100, 1u32).unwrap();
        q.push(250, 2).unwrap();
        q.push(150, 3).unwrap();
        q.push(400, 4).unwrap();
        let expired = q.sweep_expired(200);
        assert_eq!(expired, vec![1, 3]);
        assert_eq!(q.len(), 2);
        // After a sweep at t, pop never yields an entry expired at t.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn edf_bounded_push_rejects_at_capacity() {
        let mut q = DeadlineQueue::new(2);
        assert!(q.push(1, 'x').is_ok());
        assert!(q.push(2, 'y').is_ok());
        assert_eq!(q.push(3, 'z'), Err('z'));
        assert!(q.is_full());
    }

    #[test]
    fn edf_drain_all_is_deadline_ordered() {
        let mut q = DeadlineQueue::new(8);
        q.push(30, 3u8).unwrap();
        q.push(10, 1).unwrap();
        q.push(20, 2).unwrap();
        assert_eq!(q.drain_all(), vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn aimd_credit_admission_is_deterministic() {
        let mut a = AimdAdmission::new(AimdConfig { min_rate: 0.25, ..AimdConfig::default() });
        // Force the rate to the floor.
        for _ in 0..100 {
            a.on_expiry();
        }
        assert!((a.rate() - 0.25).abs() < 1e-9);
        // At rate 0.25, exactly every 4th offer is admitted.
        let pattern: Vec<bool> = (0..8).map(|_| a.admit()).collect();
        assert_eq!(pattern, vec![false, false, false, true, false, false, false, true]);
        assert_eq!(a.throttled, 6);
    }

    #[test]
    fn aimd_breach_tightens_health_reopens() {
        let mut a = AimdAdmission::new(AimdConfig::default());
        assert!((a.rate() - 1.0).abs() < 1e-9);
        // 10ms budget, 9ms completion -> breach at target_fraction 0.75.
        a.on_completion(9_000, 10_000);
        assert!(a.rate() < 1.0);
        assert_eq!(a.breaches, 1);
        let after_breach = a.rate();
        // Healthy completions claw the rate back additively.
        for _ in 0..100 {
            a.on_completion(1_000, 10_000);
        }
        assert!(a.rate() > after_breach);
        assert!((a.rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn aimd_rate_stays_bounded() {
        let cfg = AimdConfig::default();
        let mut a = AimdAdmission::new(cfg);
        for i in 0..10_000u64 {
            match i % 3 {
                0 => a.on_expiry(),
                1 => a.on_completion(i % 20_000, 10_000),
                _ => {
                    a.admit();
                }
            }
            assert!(a.rate() >= cfg.min_rate - 1e-9 && a.rate() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn metastable_fires_on_collapse_at_normal_load_and_recovers() {
        let cfg = MetastableConfig {
            confirm_windows: 2,
            warmup_windows: 3,
            ..MetastableConfig::default()
        };
        let mut d = MetastableDetector::new(cfg);
        // Warmup: healthy traffic, 100 offered / 95 good per window.
        for _ in 0..3 {
            assert!(d.on_window(100.0, 95.0).is_none());
        }
        // Overload spike: goodput collapses but offered is extreme -> plain
        // overload, the detector must NOT fire.
        for _ in 0..5 {
            assert!(d.on_window(400.0, 20.0).is_none());
        }
        // Offered back to normal but goodput stays collapsed: metastable.
        assert!(d.on_window(105.0, 10.0).is_none());
        assert_eq!(d.on_window(103.0, 12.0), Some(MetastableSignal::Fire));
        assert!(d.is_collapsed());
        assert_eq!(d.fired, 1);
        // Still collapsed: no duplicate fire.
        assert!(d.on_window(100.0, 8.0).is_none());
        // Goodput returns -> recovery.
        assert_eq!(d.on_window(100.0, 90.0), Some(MetastableSignal::Recover));
        assert!(!d.is_collapsed());
        assert_eq!(d.recovered, 1);
    }

    #[test]
    fn metastable_ignores_empty_windows_and_transients() {
        let mut d = MetastableDetector::new(MetastableConfig::default());
        for _ in 0..10 {
            assert!(d.on_window(0.0, 0.0).is_none());
        }
        for _ in 0..MetastableConfig::default().warmup_windows {
            d.on_window(50.0, 48.0);
        }
        // A single collapsed window is not confirmed.
        assert!(d.on_window(50.0, 5.0).is_none());
        assert!(d.on_window(50.0, 47.0).is_none());
        assert!(d.on_window(50.0, 5.0).is_none());
        assert!(!d.is_collapsed());
        assert_eq!(d.fired, 0);
    }

    #[test]
    fn metastable_stays_quiet_when_a_slow_loop_answers_what_it_is_offered() {
        let mut d = MetastableDetector::new(MetastableConfig::default());
        for _ in 0..MetastableConfig::default().warmup_windows {
            assert!(d.on_window(20.0, 20.0).is_none());
        }
        // The request mix slows to one request per window, answered in
        // the window or the next: nothing is lost, so nothing collapsed.
        for _ in 0..50 {
            assert!(d.on_window(1.0, 1.0).is_none());
            assert!(d.on_window(1.0, 0.0).is_none());
        }
        assert_eq!(d.fired, 0);
    }

    fn quiet_core(aimd: bool, metastable: Option<MetastableConfig>) -> ServiceCore<u32> {
        ServiceCore::new(&ServeConfig {
            workers: 1,
            queue_depth: 8,
            adaptive_admission: aimd.then(AimdConfig::default),
            metastable,
            ..ServeConfig::default()
        })
    }

    /// Offer, pop and complete one job at `t`, taking `service_us`.
    fn run_one(core: &mut ServiceCore<u32>, t: u64, service_us: u64) {
        core.offer(t, t + 10 * service_us, 0).unwrap();
        let job = core.next(t).job.expect("just queued");
        let done = Outcome::Completed { fallback: false, frame_abort: false };
        core.complete(t + service_us, &job, &done);
    }

    #[test]
    fn core_sheds_what_would_finish_past_the_aimd_target() {
        let mut core = quiet_core(true, None);
        let done = Outcome::Completed { fallback: false, frame_abort: false };
        // Three jobs accepted together on one worker finish at 100, 200
        // and 300 µs. Each latency over `1 + ahead` is a 100 µs service.
        for id in 0..3 {
            core.offer(0, 10_000, id).unwrap();
        }
        for t in [100, 200, 300] {
            let job = core.next(t - 100).job.expect("queued");
            core.complete(t, &job, &done);
        }
        // A 480 µs budget at target fraction 0.75 allows 360 µs: with
        // `queued` ahead a job finishes at `(queued + 1) × 100`, so three
        // fit and the fourth is refused.
        for queued in 0..3 {
            assert_eq!(core.queue_len(), queued);
            assert!(core.offer(300, 780, 1).is_ok(), "{queued} queued fits");
        }
        assert!(matches!(core.offer(300, 780, 1), Err((ShedReason::Unmeetable, 1))));
        // Without adaptive admission the test is off.
        let mut plain = quiet_core(false, None);
        run_one(&mut plain, 0, 500);
        for _ in 0..8 {
            assert!(plain.offer(500, 1_500, 1).is_ok());
        }
        assert!(matches!(plain.offer(500, 1_500, 1), Err((ShedReason::QueueFull, 1))));
    }

    #[test]
    fn core_admits_a_closed_loop_through_a_stall() {
        // One worker, 32 requests outstanding, each answered in 3 µs and
        // offered again at once with a 1 s budget. Once, the process
        // stalls for 40 ms: the 32 jobs in flight then all report 40 ms
        // of latency, though the service time has not changed.
        let mut core: ServiceCore<u64> =
            ServiceCore::new(&ServeConfig { workers: 1, ..ServeConfig::default() });
        let done = Outcome::Completed { fallback: false, frame_abort: false };
        let mut now = 0;
        for id in 0..32 {
            core.offer(now, now + 1_000_000, id).unwrap();
        }
        for id in 32..2_000 {
            let job = core.next(now).job.expect("32 outstanding");
            now += if id == 1_000 { 40_000 } else { 3 };
            core.complete(now, &job, &done);
            let offered = core.offer(now, now + 1_000_000, id);
            assert!(offered.is_ok(), "offer {id} at {now} µs refused: {:?}", offered.err());
        }
        assert_eq!(core.metrics().shed_unmeetable, 0);
    }

    #[test]
    fn core_pulse_flushes_the_queue_and_refuses_until_it_ends() {
        let cfg = MetastableConfig {
            warmup_windows: 1,
            confirm_windows: 1,
            ..MetastableConfig::default()
        };
        let mut core = quiet_core(true, Some(cfg));
        for i in 0..10 {
            run_one(&mut core, i * 10, 5);
        }
        assert!(core.tick(100, 10).metastable.is_none());
        // Offered load is normal, nothing completes: collapse.
        for _ in 0..3 {
            core.offer(110, 10_000, 7).unwrap();
        }
        let tick = core.tick(200, 10);
        assert_eq!(tick.metastable, Some(MetastableSignal::Fire));
        assert_eq!(tick.flushed.iter().map(|a| a.job).collect::<Vec<_>>(), vec![7, 7, 7]);
        assert!(matches!(core.offer(201, 10_000, 8), Err((ShedReason::Throttled, 8))));
        assert!(core.tick(200 + PULSE_US, 1).pulse_ended);
        assert!(core.offer(200 + PULSE_US, 300_000, 9).is_ok());
        let m = core.metrics();
        assert_eq!(m.metastable_fired, 1);
        assert_eq!((m.accepted, m.completed, m.shed_after_accept), (14, 10, 3));
        assert_eq!(m.offered(), 15);
    }
}
