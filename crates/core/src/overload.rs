//! Overload control for the serving stack: the components and the one
//! service core that composes them.
//!
//! Everything in this module is *pure* with respect to time: each operation
//! takes an explicit `now_us` (microseconds on some monotonic clock) instead
//! of reading `Instant::now()`. [`ServiceCore`] is the single-threaded
//! admission state machine that both drivers run: the
//! threaded [`Service`](crate::serve::Service) holds one under its state
//! mutex and feeds it wall-clock microseconds, and the discrete-event
//! simulator in [`loadgen`](crate::loadgen) runs one per shard in virtual
//! time. The behaviour the load generator certifies is therefore the
//! behaviour production runs.
//!
//! Components the core owns:
//!
//! * [`DeadlineQueue`] — bounded admission queue ordered by request deadline
//!   (earliest-deadline-first) with an expired-entry sweep;
//! * the unmeetable-deadline test — an EWMA of per-job service time,
//!   derived from each completion's latency by Little's law, projects when
//!   a new job would finish and refuses it past the configured latency
//!   target ([`ServeConfig::latency_target`]).

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

    /// Dequeue the earliest-deadline entry. Expiry is not checked here:
    /// [`ServiceCore::next`] sweeps at the same `now_us` first, so a pop
    /// never returns an entry already expired at that instant.
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.item)
    }

    /// Drain every entry (used on shutdown).
    pub fn drain_all(&mut self) -> Vec<T> {
        let mut out: Vec<QEntry<T>> = std::mem::take(&mut self.heap).into_vec();
        out.sort_by_key(|e| (e.deadline_us, e.seq));
        out.into_iter().map(|e| e.item).collect()
    }
}

// ---------------------------------------------------------------------------
// The service core
// ---------------------------------------------------------------------------

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

/// The single-threaded admission core of one service: the EDF queue, the
/// service-time EWMA behind the unmeetable test, and the
/// accept/shed/outcome counters and latency histogram of
/// [`MetricsSnapshot`]. Time is an argument (`now_us`); the core never
/// reads a clock.
///
/// Four operations drive it: [`offer`](Self::offer) admits or sheds,
/// [`next`](Self::next) sweeps expired entries and pops the earliest
/// deadline, [`complete`](Self::complete) records an executed job's
/// outcome, and [`drain`](Self::drain) stops admission and hands back
/// everything queued. Every accepted job leaves through exactly one of
/// `next` (as expired), `drain`, or `complete` after `next` returned it,
/// and is counted exactly once on the way out, so once the caller
/// completes what it popped, `accepted == completed + failed +
/// shed_after_accept`.
///
/// With [`ServeConfig::latency_target`] set to `None` the core is a plain
/// bounded queue: the only refusals are queue-full and draining.
pub struct ServiceCore<J> {
    workers: f64,
    queue: DeadlineQueue<Admitted<J>>,
    /// The unmeetable test's share of a job's remaining budget.
    latency_target: Option<f64>,
    /// EWMA of the per-job service time of completed jobs, µs (0 until the
    /// first completion): each latency over `1 + ahead / workers`.
    service_us: f64,
    draining: bool,
    metrics: MetricsSnapshot,
}

impl<J> ServiceCore<J> {
    /// A core sized and tuned by `cfg`: `workers`, `queue_depth` and
    /// `latency_target`.
    pub fn new(cfg: &ServeConfig) -> ServiceCore<J> {
        ServiceCore {
            workers: cfg.workers.max(1) as f64,
            queue: DeadlineQueue::new(cfg.queue_depth.max(1)),
            latency_target: cfg.latency_target,
            service_us: 0.0,
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

    /// The core's counters. The breaker, governor, region and per-function
    /// fields are the driver's to fill.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.clone()
    }

    /// Admit `job` with its absolute deadline, or shed it. Checks run in
    /// order: draining, queue capacity, and the unmeetable test — with
    /// `queued` jobs ahead, a job whose projected completion
    /// `(queued / workers + 1) × service` is past the latency target's
    /// share of its remaining budget is refused now. On a shed the job
    /// comes back with the reason.
    ///
    /// # Errors
    /// The typed [`ShedReason`] and the refused job.
    pub fn offer(&mut self, now_us: u64, deadline_us: u64, job: J) -> Result<(), (ShedReason, J)> {
        let shed = if self.draining {
            Some(ShedReason::Draining)
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
            Err((ShedReason::Unmeetable, _)) => m.shed_unmeetable += 1,
            Err(_) => m.shed_queue_full += 1,
        }
        pushed
    }

    fn unmeetable(&self, now_us: u64, deadline_us: u64) -> bool {
        let Some(target) = self.latency_target else { return false };
        let projected_us = (self.queue.len() as f64 / self.workers + 1.0) * self.service_us;
        projected_us > target * deadline_us.saturating_sub(now_us) as f64
    }

    /// Sweep every entry whose deadline is `<= now_us` (each counted as
    /// shed after accept), then pop the earliest-deadline entry left. A
    /// popped entry's deadline is always after `now_us`.
    pub fn next(&mut self, now_us: u64) -> Next<J> {
        let expired = self.queue.sweep_expired(now_us);
        for e in &expired {
            self.count_unexecuted(now_us, e);
        }
        Next { expired, job: self.queue.pop() }
    }

    /// Record the outcome of a job [`next`](Self::next) returned and the
    /// caller executed; returns its accept-to-completion latency.
    /// Completions feed the service-time EWMA: by Little's law a job that
    /// waited behind `ahead` others took `1 + ahead / workers` service
    /// times, so its sample is the latency over that.
    pub fn complete(&mut self, now_us: u64, done: &Admitted<J>, outcome: &Outcome) -> u64 {
        let latency_us = now_us.saturating_sub(done.accepted_us);
        let m = &mut self.metrics;
        match outcome {
            Outcome::Completed { fallback, frame_abort } => {
                m.completed += 1;
                m.fallbacks += u64::from(*fallback);
                m.frame_aborts += u64::from(*frame_abort);
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
                    FailReason::UnknownWorkload
                    | FailReason::ShardLost
                    | FailReason::Exec(_) => {}
                }
            }
            Outcome::Shed(_) => m.shed_after_accept += 1,
        }
        m.latency.record(latency_us);
        latency_us
    }

    /// Stop admitting (every later offer is shed as draining) and hand
    /// back everything queued, earliest deadline first. The core has
    /// counted each as shed after accept; the caller answers each.
    pub fn drain(&mut self, now_us: u64) -> Vec<Admitted<J>> {
        self.draining = true;
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

    fn quiet_core(latency_target: Option<f64>) -> ServiceCore<u32> {
        ServiceCore::new(&ServeConfig {
            workers: 1,
            queue_depth: 8,
            latency_target,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn core_sheds_what_would_finish_past_the_latency_target() {
        let mut core = quiet_core(Some(0.75));
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
        // A 480 µs budget at target 0.75 allows 360 µs: with `queued`
        // ahead a job finishes at `(queued + 1) × 100`, so three fit and
        // the fourth is refused.
        for queued in 0..3 {
            assert_eq!(core.queue_len(), queued);
            assert!(core.offer(300, 780, 1).is_ok(), "{queued} queued fits");
        }
        assert!(matches!(core.offer(300, 780, 1), Err((ShedReason::Unmeetable, 1))));
        // Without a latency target the test is off.
        let mut plain = quiet_core(None);
        plain.offer(0, 5_000, 0).unwrap();
        let job = plain.next(0).job.expect("just queued");
        plain.complete(500, &job, &done);
        for _ in 0..8 {
            assert!(plain.offer(500, 1_500, 1).is_ok());
        }
        assert!(matches!(plain.offer(500, 1_500, 1), Err((ShedReason::QueueFull, 1))));
    }

    #[test]
    fn core_admits_what_fits_after_a_run_of_breaches() {
        let mut core = quiet_core(Some(0.75));
        let done = Outcome::Completed { fallback: false, frame_abort: false };
        // Five jobs with a 1 000 µs budget on one worker, each taking
        // 900 µs, past the 750 µs target. Two complete as breaches
        // (latency 900 and 1 800 µs, a 900 µs service each); the other
        // three expire in queue.
        for id in 0..5 {
            core.offer(0, 1_000, id).unwrap();
        }
        let first = core.next(0).job.expect("queued");
        core.complete(900, &first, &done);
        let second = core.next(900).job.expect("queued");
        core.complete(1_800, &second, &done);
        assert_eq!(core.next(1_800).expired.len(), 3);
        // None of that closes admission. With the queue empty, a 2 000 µs
        // budget allows 1 500 µs and the job projects 900 µs: admitted.
        // Behind it a second job projects 1 800 µs, and only the
        // unmeetable test refuses it.
        assert!(core.offer(1_800, 3_800, 5).is_ok());
        assert!(matches!(core.offer(1_800, 3_800, 6), Err((ShedReason::Unmeetable, 6))));
        let m = core.metrics();
        assert_eq!(
            (m.accepted, m.completed, m.shed_after_accept, m.shed_unmeetable),
            (6, 2, 3, 1)
        );
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
}
