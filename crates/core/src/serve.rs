//! Long-running execution service: admission control, per-function
//! circuit breakers, cooperative cancellation, exactly-once responses.
//!
//! The batch pipeline runs a workload once and exits; this module is the
//! serving shape of the same machinery — a resident [`Service`] that
//! accepts a continuous request stream in front of the flat engine and
//! the frame offload path:
//!
//! * **Admission control** — requests carry a per-request budget (fuel,
//!   resident-page cap, wall-clock deadline) and flow through a bounded
//!   deadline queue. Admission, the queue, and the overload controls are
//!   one [`ServiceCore`] held with the breaker table under a single state
//!   lock and driven by wall-clock microseconds; the load generator runs
//!   the same core in virtual time. When the queue is full, the service
//!   is draining, or at the observed service time the request would
//!   finish past the latency target, it is shed *at submission* with a
//!   typed [`ShedReason`] instead of being queued to die.
//! * **Exactly-once** — an accepted request receives exactly one terminal
//!   [`Response`]: completed, failed, or shed-after-accept. Never zero
//!   (lost), never two (duplicated). Structurally, every accepted job
//!   leaves the core once — popped by exactly one worker (which answers
//!   it on every exit path, panics included), or swept as expired or
//!   drained by shutdown (each answered as shed); [`respond`] is the only
//!   function that sends.
//! * **Worker pool** — a fixed pool executes via the pre-decoded engine
//!   with warm per-worker decode caches. Each worker is panic-isolated:
//!   a poisoned execution still answers its request, then the worker
//!   recycles (fresh caches) instead of dying silently.
//! * **Per-function circuit breakers** — repeated panics, deadline
//!   cancellations, fuel/memory exhaustions on one function trip that
//!   function's [`CircuitBreaker`] (the same trip/cooldown/probe machine
//!   as the offload abort-storm detector). While open, requests fall
//!   back to the reference walker; probed recovery closes the breaker
//!   again.
//! * **Cooperative cancellation** — every execution runs under a fresh
//!   [`CancelToken`]; a watchdog cancels tokens past their deadline and
//!   the engine stops within its check interval with a typed
//!   [`needle_ir::interp::ExecError::Cancelled`].
//! * **Graceful drain** — shutdown finishes in-flight work (bounded by a
//!   drain deadline, after which in-flight tokens are cancelled), sheds
//!   everything still queued, and returns the final metrics snapshot.
//!
//! [`crate::soak::run_soak`] drives a service with a seeded,
//! deterministic request stream while injecting chaos — worker panics,
//! guard failures through the frame [`FaultInjector`], deadline storms —
//! and verifies the exactly-once invariant plus `accepted == completed +
//! failed + shed_after_accept` at the end.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use needle_frames::{
    build_frame, certify_frame, run_frame_with, verify_invocation, CertConfig, CertVerdict,
    FaultInjector, FaultKind, Frame, FrameOpKind, FrameValue, InjectorConfig,
};
use needle_ir::builder::FunctionBuilder;
use needle_ir::interp::{CancelToken, ExecError, Interp, Memory, NullSink, Val};
use needle_ir::{Constant, FuncId, Module, Type, Value};
use needle_profile::bl::BlNumbering;
use needle_profile::{
    build_numberings, control_flow_stats, rank_paths, PathProfile, PathProfiler, SharedNumberings,
};
use needle_regions::path::PathRegion;
use needle_regions::region::OffloadRegion;

use crate::analysis::analyze;
use crate::breaker::{Admission, BreakerState, CircuitBreaker};
use crate::certify::{CertStats, VerifyPolicy};
use crate::chaos::draw_live_in;
use crate::config::{AnalysisConfig, NeedleConfig, StormConfig};
use crate::error::NeedleError;
use crate::governor::{
    plan_epoch, CurrentChoice, Decision, DemotionLedger, EpochEvent, EventKind, GovernorConfig,
    GovernorStats, PathCandidate, WorkloadObservation,
};
use crate::overload::{Admitted, ServiceCore};
use crate::supervisor::silence_supervised_panics;
use crate::sync::{plock, pwait_timeout};

/// Service policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads.
    pub workers: usize,
    /// Bounded queue depth; a full queue sheds at submission.
    pub queue_depth: usize,
    /// Fuel for requests that don't specify one.
    pub default_fuel: u64,
    /// Resident-page cap for requests that don't specify one.
    pub default_max_pages: usize,
    /// Deadline for requests that don't specify one, milliseconds.
    pub default_deadline_ms: u64,
    /// Engine cancellation check interval, steps.
    pub cancel_interval: u64,
    /// Per-function breaker policy (shared semantics with the offload
    /// abort-storm detector).
    pub breaker: StormConfig,
    /// How long shutdown waits for in-flight work before cancelling it,
    /// milliseconds.
    pub drain_ms: u64,
    /// Workloads the service can execute: built-in `svc.*` micro
    /// workloads and/or suite names resolved via [`needle_workloads`].
    pub catalog: Vec<String>,
    /// Workload to build the frame-offload leg from (guard-fail chaos);
    /// `None` disables the leg.
    pub frame_workload: Option<String>,
    /// Adaptive offload governor. `Some` starts a governor thread that
    /// samples requests through the Ball-Larus path profiler,
    /// re-ranks paths every epoch, and hot-swaps the live region table
    /// (RCU-style — in-flight executions finish on the old epoch's
    /// frames) with breaker-informed demotion of aborting regions.
    pub adaptive: Option<GovernorConfig>,
    /// The unmeetable-deadline test's latency target, as a share of each
    /// request's remaining budget: a request whose projected completion
    /// lies past it is shed at submission. `None` drops the test, leaving
    /// only the queue-depth gate.
    pub latency_target: Option<f64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            default_fuel: 2_000_000,
            default_max_pages: usize::MAX,
            default_deadline_ms: 1_000,
            cancel_interval: 256,
            breaker: StormConfig::default(),
            drain_ms: 2_000,
            catalog: vec![
                "svc.sum".into(),
                "svc.mem".into(),
                "svc.flaky".into(),
                "svc.phase".into(),
                "999.loop".into(),
            ],
            frame_workload: Some("svc.sum".into()),
            adaptive: None,
            latency_target: Some(0.75),
        }
    }
}

/// Chaos hook carried by a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic the worker mid-execution (panic isolation + recycle path).
    PanicWorker,
    /// Run one frame invocation first with a forced guard failure
    /// (rollback + host re-execution path). Ignored when the service has
    /// no frame leg or the request targets a different workload.
    GuardFail,
    /// Wedge the worker: spin in-flight, *ignoring* cooperative
    /// cancellation — the stuck-process model. Only the service's
    /// hard-kill escalation (shutdown past the drain deadline, or a
    /// shard supervisor's crash-style [`Service::abort`]) releases the
    /// worker, which then answers [`FailReason::Cancelled`]. The shard
    /// watchdog detects the wedge as a deadline overrun past its grace
    /// window.
    WedgeWorker,
}

/// One unit of work submitted to the service.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Catalog workload name.
    pub workload: String,
    /// Step budget (0 = service default).
    pub fuel: u64,
    /// Resident-page cap (0 = service default).
    pub max_pages: usize,
    /// Wall-clock deadline from acceptance, milliseconds (0 = service
    /// default).
    pub deadline_ms: u64,
    /// Optional injected fault (soak/chaos only).
    pub fault: Option<InjectedFault>,
    /// Optional override for the workload's *last* argument — its bias
    /// knob for phase workloads (`svc.phase`'s threshold). Lets a
    /// driver flip the hot path per request without regenerating the
    /// module, which is how the phase-shift soak steers traffic.
    pub arg: Option<i64>,
}

impl Request {
    /// A request with service-default budgets.
    pub fn new(id: u64, workload: impl Into<String>) -> Request {
        Request {
            id,
            workload: workload.into(),
            fuel: 0,
            max_pages: 0,
            deadline_ms: 0,
            fault: None,
            arg: None,
        }
    }
}

/// Why a request was refused (at submission) or abandoned (after
/// acceptance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue is full.
    QueueFull,
    /// The deadline cannot be met given queue depth and the observed
    /// service time.
    Unmeetable,
    /// Accepted, but the deadline passed while queued.
    Expired,
    /// The service is shutting down, or the target shard is restarting
    /// with no live successor.
    Draining,
    /// The idempotency key was already executed-and-responded (or is
    /// currently pending) — the sharded router's dedup ledger refused a
    /// second execution.
    Duplicate,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "queue full"),
            ShedReason::Unmeetable => write!(f, "deadline unmeetable"),
            ShedReason::Expired => write!(f, "expired in queue"),
            ShedReason::Draining => write!(f, "service draining"),
            ShedReason::Duplicate => write!(f, "duplicate idempotency key"),
        }
    }
}

/// Why an accepted request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailReason {
    /// The execution panicked (worker recycled).
    Panicked,
    /// Cancelled by the deadline watchdog (or drain cutoff).
    Cancelled,
    /// The resident-page governor tripped.
    MemLimit,
    /// The step budget ran out.
    StepLimit,
    /// The workload is not in the service catalog.
    UnknownWorkload,
    /// The owning shard died and failover exhausted its bounded retry
    /// budget without re-placing the request.
    ShardLost,
    /// Any other typed execution error.
    Exec(String),
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailReason::Panicked => write!(f, "panicked"),
            FailReason::Cancelled => write!(f, "cancelled at deadline"),
            FailReason::MemLimit => write!(f, "memory limit"),
            FailReason::StepLimit => write!(f, "step limit"),
            FailReason::UnknownWorkload => write!(f, "unknown workload"),
            FailReason::ShardLost => write!(f, "shard lost, failover exhausted"),
            FailReason::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

/// Terminal outcome of an accepted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Executed to completion.
    Completed {
        /// Ran on the reference walker because the breaker was open.
        fallback: bool,
        /// A frame invocation aborted first (injected guard failure) and
        /// the host re-executed.
        frame_abort: bool,
    },
    /// Executed and failed.
    Failed(FailReason),
    /// Accepted but shed before execution ([`ShedReason::Expired`] or
    /// [`ShedReason::Draining`]).
    Shed(ShedReason),
}

/// The exactly-once terminal answer for an accepted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echoed request id.
    pub id: u64,
    /// What happened.
    pub outcome: Outcome,
    /// Acceptance-to-response latency, microseconds.
    pub latency_us: u64,
}

/// Log₂-bucketed latency histogram (microseconds): bucket `k` counts
/// responses with `latency_us` in `[2^k, 2^(k+1))`.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    /// Bucket counts; the last bucket absorbs everything ≥ 2³¹ µs.
    pub buckets: [u64; 32],
}

impl LatencyHistogram {
    pub(crate) fn record(&mut self, us: u64) {
        let b = (us.max(1).ilog2() as usize).min(31);
        self.buckets[b] += 1;
    }

    /// Total responses recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The latency percentile `q ∈ (0, 1]`, reported as the *upper edge*
    /// of the log₂ bucket holding that rank — a conservative bound (the
    /// true value is somewhere in `[2^k, 2^(k+1))`). Returns 0 with no
    /// samples.
    pub fn percentile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (k, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return 1u64 << (k + 1).min(63);
            }
        }
        0
    }
}

/// Per-function breaker state at snapshot time.
#[derive(Debug, Clone)]
pub struct BreakerRow {
    /// Workload/function name.
    pub func: String,
    /// Coarse state.
    pub state: BreakerState,
    /// Closed→open transitions.
    pub trips: u64,
    /// Probe-driven open→closed transitions.
    pub recoveries: u64,
    /// Every coarse state change (closed↔open↔half-open).
    pub transitions: u64,
    /// Wall-clock residency in the closed state, milliseconds.
    pub ms_closed: u64,
    /// Wall-clock residency in the open state, milliseconds.
    pub ms_open: u64,
    /// Wall-clock residency half-open (probing), milliseconds.
    pub ms_half_open: u64,
}

/// Cumulative per-function analysis counters, carried in [`Inner`] so
/// they survive worker recycles (a recycled worker rebuilds its decode
/// caches, and previously these counts died with the incarnation).
#[derive(Debug, Clone)]
pub struct FuncStatRow {
    /// Workload/function name.
    pub func: String,
    /// Decode-cache warmups: one per worker incarnation that resolved
    /// this entry (monotonically non-decreasing across recycles).
    pub decode_warmups: u64,
    /// Post-dominator walks truncated while computing this entry's
    /// control-flow statistics, summed over incarnations.
    pub walk_truncations: u64,
}

/// Service counters. The core invariant, checked by
/// [`MetricsSnapshot::invariant_holds`] once the service has drained:
/// `accepted == completed + failed + shed_after_accept`.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Refused at submission: queue full.
    pub shed_queue_full: u64,
    /// Refused at submission: deadline unmeetable.
    pub shed_unmeetable: u64,
    /// Refused at submission: draining.
    pub shed_pre_draining: u64,
    /// Always 0: nothing throttles admission any more, and the
    /// benchmark's serving probe still reads the field.
    pub shed_throttled: u64,
    /// Accepted requests that completed.
    pub completed: u64,
    /// Accepted requests that failed.
    pub failed: u64,
    /// Accepted requests shed before execution (expired or drained).
    pub shed_after_accept: u64,
    /// Failures that were deadline cancellations.
    pub cancelled: u64,
    /// Failures that were panics.
    pub panics: u64,
    /// Failures that were page-governor trips.
    pub mem_limits: u64,
    /// Failures that were fuel exhaustions.
    pub step_limits: u64,
    /// Requests sent to the reference walker because a breaker was open.
    pub breaker_shed: u64,
    /// Of those, how many completed there.
    pub fallbacks: u64,
    /// Frame invocations that aborted (injected guard failures).
    pub frame_aborts: u64,
    /// Worker recycles after a poisoned execution.
    pub recycles: u64,
    /// Acceptance-to-response latency histogram.
    pub latency: LatencyHistogram,
    /// Per-function breaker rows (filled at snapshot time).
    pub breakers: Vec<BreakerRow>,
    /// Adaptive governor counters + promote/demote timeline (all zero
    /// when the service runs without [`ServeConfig::adaptive`]).
    pub governor: GovernorStats,
    /// Epoch of the live region table at snapshot time.
    pub region_epoch: u64,
    /// Currently offloaded regions: `(workload, BL path id)`.
    pub active_regions: Vec<(String, u64)>,
    /// Cumulative per-function counters that survive worker recycles.
    pub funcs: Vec<FuncStatRow>,
    /// Always 0: the degradation ladder that counted its descents here is
    /// gone, and the benchmark's serving probe still reads the field.
    pub brownout_descents: u64,
    /// Always 0: the metastable-failure detector that counted its firings
    /// here is gone, and the benchmark's serving probe still reads the
    /// field.
    pub metastable_fired: u64,
}

impl MetricsSnapshot {
    /// Every accepted request is accounted for by exactly one terminal
    /// class. Holds at any quiescent point; guaranteed after
    /// [`Service::shutdown`].
    pub fn invariant_holds(&self) -> bool {
        self.accepted == self.completed + self.failed + self.shed_after_accept
    }

    /// Why [`invariant_holds`](Self::invariant_holds) fails, if it does.
    pub(crate) fn imbalance(&self) -> Option<String> {
        (!self.invariant_holds()).then(|| {
            format!(
                "counter imbalance: accepted {} != completed {} + failed {} + shed {}",
                self.accepted, self.completed, self.failed, self.shed_after_accept
            )
        })
    }

    /// Total breaker trips across functions.
    pub fn trips(&self) -> u64 {
        self.breakers.iter().map(|b| b.trips).sum()
    }

    /// Total probed recoveries across functions.
    pub fn recoveries(&self) -> u64 {
        self.breakers.iter().map(|b| b.recoveries).sum()
    }

    /// Accumulate another snapshot into this one (cross-shard rollup,
    /// and dead-generation metrics folded into their shard's totals).
    /// Breaker rows merge by function name; counter fields add.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        self.accepted += other.accepted;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_unmeetable += other.shed_unmeetable;
        self.shed_pre_draining += other.shed_pre_draining;
        self.completed += other.completed;
        self.failed += other.failed;
        self.shed_after_accept += other.shed_after_accept;
        self.cancelled += other.cancelled;
        self.panics += other.panics;
        self.mem_limits += other.mem_limits;
        self.step_limits += other.step_limits;
        self.breaker_shed += other.breaker_shed;
        self.fallbacks += other.fallbacks;
        self.frame_aborts += other.frame_aborts;
        self.recycles += other.recycles;
        for (k, n) in other.latency.buckets.iter().enumerate() {
            self.latency.buckets[k] += n;
        }
        for row in &other.breakers {
            match self.breakers.iter_mut().find(|r| r.func == row.func) {
                Some(mine) => {
                    mine.trips += row.trips;
                    mine.recoveries += row.recoveries;
                    mine.transitions += row.transitions;
                    mine.ms_closed += row.ms_closed;
                    mine.ms_open += row.ms_open;
                    mine.ms_half_open += row.ms_half_open;
                    mine.state = row.state;
                }
                None => self.breakers.push(row.clone()),
            }
        }
        self.governor.merge_from(&other.governor);
        self.region_epoch = self.region_epoch.max(other.region_epoch);
        for r in &other.active_regions {
            if !self.active_regions.contains(r) {
                self.active_regions.push(r.clone());
            }
        }
        for row in &other.funcs {
            match self.funcs.iter_mut().find(|r| r.func == row.func) {
                Some(mine) => {
                    mine.decode_warmups += row.decode_warmups;
                    mine.walk_truncations += row.walk_truncations;
                }
                None => self.funcs.push(row.clone()),
            }
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve metrics: {} accepted = {} completed + {} failed + {} shed-after-accept ({})",
            self.accepted,
            self.completed,
            self.failed,
            self.shed_after_accept,
            if self.invariant_holds() {
                "exactly-once OK"
            } else {
                "INVARIANT VIOLATED"
            }
        )?;
        writeln!(
            f,
            "  pre-admission sheds: {} queue-full, {} unmeetable, {} draining",
            self.shed_queue_full, self.shed_unmeetable, self.shed_pre_draining
        )?;
        writeln!(
            f,
            "  failures: {} cancelled, {} panics, {} mem-limit, {} step-limit",
            self.cancelled, self.panics, self.mem_limits, self.step_limits
        )?;
        writeln!(
            f,
            "  breaker: {} shed while open ({} walker fallbacks), {} frame aborts, {} recycles",
            self.breaker_shed, self.fallbacks, self.frame_aborts, self.recycles
        )?;
        for b in &self.breakers {
            writeln!(
                f,
                "  breaker[{}]: {} ({} trips, {} recoveries, {} transitions; \
                 ms closed/open/half-open {}/{}/{})",
                b.func,
                b.state,
                b.trips,
                b.recoveries,
                b.transitions,
                b.ms_closed,
                b.ms_open,
                b.ms_half_open
            )?;
        }
        for fr in &self.funcs {
            writeln!(
                f,
                "  func[{}]: {} decode warmups, {} pdom-walk truncations",
                fr.func, fr.decode_warmups, fr.walk_truncations
            )?;
        }
        if self.governor.active() {
            writeln!(f, "  {}", self.governor)?;
            write!(f, "  regions(epoch {}):", self.region_epoch)?;
            if self.active_regions.is_empty() {
                writeln!(f, " none")?;
            } else {
                for (w, id) in &self.active_regions {
                    write!(f, " {w}#{id}")?;
                }
                writeln!(f)?;
            }
        }
        writeln!(
            f,
            "  latency p50/p99/p999 µs: ≤{}/≤{}/≤{} (log₂-bucket upper bounds)",
            self.latency.percentile_us(0.50),
            self.latency.percentile_us(0.99),
            self.latency.percentile_us(0.999)
        )?;
        write!(f, "  latency µs:")?;
        for (k, n) in self.buckets_nonzero() {
            write!(f, " [2^{k}]={n}")?;
        }
        Ok(())
    }
}

impl MetricsSnapshot {
    fn buckets_nonzero(&self) -> Vec<(usize, u64)> {
        self.latency
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(k, n)| (k, *n))
            .collect()
    }
}

/// An accepted unit of work: the request, its resolved budgets, and its
/// reply channel. The core wraps it with its acceptance time and absolute
/// deadline ([`Admitted`]).
struct Job {
    req: Request,
    fuel: u64,
    max_pages: usize,
    reply: Sender<Response>,
}

/// What a worker currently executes (watchdog + drain cancellation
/// target).
struct Inflight {
    deadline: Instant,
    token: CancelToken,
}

/// Everything admission and completion touch, under one lock: the
/// overload-control core, the per-function breakers, and the two
/// counters only the threaded service keeps.
struct State {
    core: ServiceCore<Job>,
    breakers: HashMap<String, CircuitBreaker>,
    /// Requests sent to the reference walker because a breaker was open
    /// (counted at the breaker gate).
    breaker_shed: u64,
    /// Worker recycles after a poisoned execution.
    recycles: u64,
    /// Workers waiting on the queue condvar: submit only signals when one
    /// is, sparing a wake-up call per request while the pool is busy.
    idle_workers: usize,
}

impl State {
    /// Consult the request's breaker, or `None` when no breaker applies:
    /// a wedge ignores the gate, and a name outside the catalog never gets
    /// a breaker row.
    fn gate(&mut self, cfg: &ServeConfig, req: &Request) -> Option<Admission> {
        if req.fault == Some(InjectedFault::WedgeWorker) || !cfg.catalog.contains(&req.workload) {
            return None;
        }
        let admission = self
            .breakers
            .entry(req.workload.clone())
            .or_insert_with(|| CircuitBreaker::new(cfg.breaker))
            .admit();
        if admission == Admission::Shed {
            self.breaker_shed += 1;
        }
        Some(admission)
    }
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    /// Signalled on every acceptance and on drain; workers wait on it with
    /// the state lock.
    queue_cv: Condvar,
    /// The SIGKILL analogue: releases wedged workers (those ignoring
    /// their cancellation token). Set by shutdown once the drain
    /// deadline passes, or immediately by [`Service::abort`].
    hard_kill: AtomicBool,
    inflight: Vec<Mutex<Option<Inflight>>>,
    /// Per-worker heartbeat, milliseconds since `epoch`. Workers beat on
    /// every queue interaction; a shard supervisor reads the ages to
    /// detect wedged-while-idle workers (busy workers are judged by
    /// in-flight deadline overrun instead, so long legitimate jobs don't
    /// false-positive).
    beats: Vec<AtomicU64>,
    /// The core's clock origin: `now_us` counts from here.
    epoch: Instant,
    active_workers: AtomicUsize,
    /// The live region table, RCU-style: readers clone the `Arc` under a
    /// brief lock and then run lock-free on that epoch's frames; the
    /// governor publishes a whole new [`RegionEpoch`] in one swap, so
    /// in-flight executions finish on the old epoch without draining.
    regions: Mutex<Arc<RegionEpoch>>,
    /// Sampled Ball-Larus profiles, merged by workers, drained by the
    /// governor each epoch. Keyed by workload name.
    profiles: Mutex<HashMap<String, PathProfile>>,
    /// Per-workload offload observations (runs, aborts) since the last
    /// epoch drain — the breaker-adjacent feedback the re-ranker uses to
    /// demote aborting regions.
    region_stats: Mutex<HashMap<String, RegionStat>>,
    /// Governor counters + promote/demote timeline.
    governor_stats: Mutex<GovernorStats>,
    /// Cumulative per-function analysis counters (decode warmups,
    /// pdom-walk truncations) that must survive worker recycles.
    func_stats: Mutex<HashMap<String, FuncStat>>,
}

impl Inner {
    /// Microseconds since `epoch`: the core's clock.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// One published generation of the offload region table. Immutable once
/// published; swapped whole under [`Inner::regions`].
struct RegionEpoch {
    /// Monotonic epoch counter (0 = the start-time table).
    epoch: u64,
    /// Workload name → offload frame for its currently chosen path.
    frames: HashMap<String, Arc<Frame>>,
    /// Workload name → which path the frame covers (governor hysteresis
    /// input).
    chosen: HashMap<String, CurrentChoice>,
}

/// Offload feedback accumulated between governor epochs.
#[derive(Debug, Clone, Copy, Default)]
struct RegionStat {
    runs: u64,
    aborts: u64,
}

/// Cumulative per-function counters backing [`FuncStatRow`].
#[derive(Debug, Clone, Copy, Default)]
struct FuncStat {
    decode_warmups: u64,
    walk_truncations: u64,
}

/// How often an idle worker wakes from the queue condvar to beat.
const IDLE_BEAT_MS: u64 = 20;

fn beat(inner: &Inner, wi: usize) {
    inner.beats[wi].store(
        inner.epoch.elapsed().as_millis() as u64,
        Ordering::Relaxed,
    );
}

/// A catalog entry resolved into executable form (worker-local; the
/// interpreter borrows the module, so each worker owns its copy).
struct Entry {
    name: String,
    module: Module,
    func: FuncId,
    args: Vec<Constant>,
    memory: Memory,
    /// BL numberings built once at resolve time and shared with every
    /// sampled-request profiler — construction stays off the hot path.
    numberings: SharedNumberings,
}

impl Entry {
    fn new(name: &str, module: Module, func: FuncId, args: Vec<Constant>, memory: Memory) -> Entry {
        let numberings = build_numberings(&module);
        Entry {
            name: name.to_string(),
            module,
            func,
            args,
            memory,
            numberings,
        }
    }
}

/// The resident execution service. Dropping without
/// [`Service::shutdown`] still drains (shutdown runs on drop), so no
/// accepted request is ever left unanswered.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    watchdog_stop: Arc<AtomicBool>,
    governor: Option<JoinHandle<()>>,
    governor_stop: Arc<AtomicBool>,
}

impl Service {
    /// Start the worker pool and deadline watchdog.
    ///
    /// # Errors
    /// Fails on an unresolvable catalog name or worker spawn failure.
    pub fn start(cfg: ServeConfig) -> Result<Service, NeedleError> {
        silence_supervised_panics();
        // Validate the catalog once up front so submit-time failures can
        // only mean "name not in catalog", not "name doesn't exist".
        for name in &cfg.catalog {
            resolve_workload(name)
                .ok_or_else(|| NeedleError::Serve(format!("unknown catalog workload {name:?}")))?;
        }
        // The epoch-0 region table: the configured frame workload's top
        // static path, exactly the old fixed frame leg. The governor (if
        // enabled) re-derives and swaps this live.
        let mut frames = HashMap::new();
        let mut chosen = HashMap::new();
        if let Some(name) = &cfg.frame_workload {
            if let Some((frame, path_id, weight)) = build_frame_leg(name)? {
                frames.insert(name.clone(), Arc::new(frame));
                chosen.insert(
                    name.clone(),
                    CurrentChoice {
                        path_id,
                        weight,
                    },
                );
            }
        }

        let workers_n = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                core: ServiceCore::new(&cfg),
                breakers: HashMap::new(),
                breaker_shed: 0,
                recycles: 0,
                idle_workers: 0,
            }),
            queue_cv: Condvar::new(),
            hard_kill: AtomicBool::new(false),
            inflight: (0..workers_n).map(|_| Mutex::new(None)).collect(),
            beats: (0..workers_n).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            active_workers: AtomicUsize::new(0),
            regions: Mutex::new(Arc::new(RegionEpoch {
                epoch: 0,
                frames,
                chosen,
            })),
            profiles: Mutex::new(HashMap::new()),
            region_stats: Mutex::new(HashMap::new()),
            governor_stats: Mutex::new(GovernorStats::default()),
            func_stats: Mutex::new(HashMap::new()),
            cfg,
        });

        let mut workers = Vec::new();
        for wi in 0..workers_n {
            let inner2 = Arc::clone(&inner);
            inner.active_workers.fetch_add(1, Ordering::SeqCst);
            let h = std::thread::Builder::new()
                // The `needle-u` prefix opts into the supervised panic
                // silencer (injected panics are expected, not noise).
                .name(format!("needle-usrv-w{wi}"))
                .spawn(move || {
                    worker_main(&inner2, wi);
                    inner2.active_workers.fetch_sub(1, Ordering::SeqCst);
                })
                .map_err(|e| NeedleError::Serve(format!("worker spawn failed: {e}")))?;
            workers.push(h);
        }

        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&watchdog_stop);
        let inner3 = Arc::clone(&inner);
        let watchdog = std::thread::Builder::new()
            .name("needle-usrv-watchdog".into())
            .spawn(move || {
                while !stop2.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    for slot in &inner3.inflight {
                        let guard = plock(slot);
                        if let Some(inf) = guard.as_ref() {
                            if now >= inf.deadline {
                                inf.token.cancel();
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
            .map_err(|e| NeedleError::Serve(format!("watchdog spawn failed: {e}")))?;

        let governor_stop = Arc::new(AtomicBool::new(false));
        let governor = if inner.cfg.adaptive.is_some() {
            let stop = Arc::clone(&governor_stop);
            let inner4 = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("needle-usrv-governor".into())
                    .spawn(move || governor_main(&inner4, &stop))
                    .map_err(|e| NeedleError::Serve(format!("governor spawn failed: {e}")))?,
            )
        } else {
            None
        };

        Ok(Service {
            inner,
            workers,
            watchdog: Some(watchdog),
            watchdog_stop,
            governor,
            governor_stop,
        })
    }

    /// Submit a request. `Ok(())` means *accepted*: exactly one
    /// [`Response`] will arrive on `reply`. `Err` means *shed at
    /// admission*: no response will ever arrive for this request.
    ///
    /// # Errors
    /// Returns the typed [`ShedReason`] when the request is refused.
    pub fn submit(&self, req: Request, reply: &Sender<Response>) -> Result<(), ShedReason> {
        let cfg = &self.inner.cfg;
        let or_default = |v: u64, d: u64| if v == 0 { d } else { v };
        let budget_us = or_default(req.deadline_ms, cfg.default_deadline_ms).saturating_mul(1_000);
        let job = Job {
            fuel: or_default(req.fuel, cfg.default_fuel),
            max_pages: if req.max_pages == 0 { cfg.default_max_pages } else { req.max_pages },
            req,
            reply: reply.clone(),
        };
        let (offered, idle) = {
            let mut st = plock(&self.inner.state);
            let now_us = self.inner.now_us();
            (st.core.offer(now_us, now_us.saturating_add(budget_us), job), st.idle_workers > 0)
        };
        offered.map_err(|(reason, _)| reason)?;
        if idle {
            self.inner.queue_cv.notify_one();
        }
        Ok(())
    }

    /// Current counters (breaker rows included).
    pub fn metrics(&self) -> MetricsSnapshot {
        snapshot(&self.inner)
    }

    /// Graceful drain: stop admissions, shed everything still queued,
    /// wait up to `drain_ms` for in-flight work, cancel whatever is still
    /// running, join the pool, and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_inner(true)
    }

    /// Crash-style teardown — the shard supervisor's kill path. Queued
    /// jobs are still answered as shed (the accounting invariant holds
    /// per shard), but in-flight work is cancelled immediately and
    /// wedged workers are hard-killed instead of waiting out the drain
    /// deadline. The sharded router re-routes the shed/cancelled
    /// responses to a successor shard.
    pub(crate) fn abort(mut self) -> MetricsSnapshot {
        self.shutdown_inner(false)
    }

    fn shutdown_inner(&mut self, graceful: bool) -> MetricsSnapshot {
        let inner = &self.inner;
        // Workers stop popping once the core drains, so every job still
        // queued belongs to shutdown: answer each exactly once as shed.
        let (now_us, drained) = {
            let mut st = plock(&inner.state);
            let now_us = inner.now_us();
            (now_us, st.core.drain(now_us))
        };
        inner.queue_cv.notify_all();
        for a in drained {
            let latency_us = now_us.saturating_sub(a.accepted_us);
            respond(a.job, Outcome::Shed(ShedReason::Draining), latency_us);
        }

        // Bounded wait for in-flight work; past the drain deadline,
        // cancel the tokens — the engine stops within its check interval
        // and the worker answers the request as cancelled. Workers that
        // ignore their token (wedges) get the hard-kill escalation.
        let t0 = Instant::now();
        let drain = if graceful {
            Duration::from_millis(inner.cfg.drain_ms)
        } else {
            Duration::ZERO
        };
        while inner.active_workers.load(Ordering::SeqCst) > 0 {
            if t0.elapsed() >= drain {
                for slot in &inner.inflight {
                    let guard = plock(slot);
                    if let Some(inf) = guard.as_ref() {
                        inf.token.cancel();
                    }
                }
                inner.hard_kill.store(true, Ordering::SeqCst);
            }
            inner.queue_cv.notify_all();
            std::thread::sleep(Duration::from_millis(1));
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.governor_stop.store(true, Ordering::SeqCst);
        if let Some(g) = self.governor.take() {
            let _ = g.join();
        }
        self.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        snapshot(inner)
    }

    /// Heartbeat age of each worker, milliseconds. A large age on a
    /// worker with nothing in flight means its pop loop stopped turning.
    pub(crate) fn beat_ages_ms(&self) -> Vec<u64> {
        let now = self.inner.epoch.elapsed().as_millis() as u64;
        self.inner
            .beats
            .iter()
            .map(|b| now.saturating_sub(b.load(Ordering::Relaxed)))
            .collect()
    }

    /// Whether each worker currently has a request in flight.
    pub(crate) fn busy_slots(&self) -> Vec<bool> {
        self.inner
            .inflight
            .iter()
            .map(|s| plock(s).is_some())
            .collect()
    }

    /// Largest in-flight deadline overrun across workers, milliseconds.
    /// The watchdog cancels at the deadline; an overrun that keeps
    /// growing means the worker is ignoring cancellation — wedged.
    pub(crate) fn max_overrun_ms(&self) -> u64 {
        let now = Instant::now();
        let mut worst = 0u64;
        for slot in &self.inner.inflight {
            let guard = plock(slot);
            if let Some(inf) = guard.as_ref() {
                if now > inf.deadline {
                    worst = worst.max((now - inf.deadline).as_millis() as u64);
                }
            }
        }
        worst
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            let _ = self.shutdown_inner(true);
        }
    }
}

/// Breaker rows + counters under one snapshot.
fn snapshot(inner: &Inner) -> MetricsSnapshot {
    let mut m = {
        let st = plock(&inner.state);
        let mut m = st.core.metrics();
        m.breaker_shed = st.breaker_shed;
        m.recycles = st.recycles;
        m.breakers = st
            .breakers
            .iter()
            .map(|(name, b)| BreakerRow {
                func: name.clone(),
                state: b.state(),
                trips: b.trips(),
                recoveries: b.recoveries(),
                transitions: b.transitions(),
                ms_closed: b.time_in_state_ms(BreakerState::Closed),
                ms_open: b.time_in_state_ms(BreakerState::Open),
                ms_half_open: b.time_in_state_ms(BreakerState::HalfOpen),
            })
            .collect();
        m
    };
    m.breakers.sort_by(|a, b| a.func.cmp(&b.func));
    m.governor = plock(&inner.governor_stats).clone();
    {
        let regions = plock(&inner.regions).clone();
        m.region_epoch = regions.epoch;
        m.active_regions = regions
            .chosen
            .iter()
            .map(|(w, c)| (w.clone(), c.path_id))
            .collect();
        m.active_regions.sort();
    }
    m.funcs = {
        let stats = plock(&inner.func_stats);
        let mut rows: Vec<FuncStatRow> = stats
            .iter()
            .map(|(name, s)| FuncStatRow {
                func: name.clone(),
                decode_warmups: s.decode_warmups,
                walk_truncations: s.walk_truncations,
            })
            .collect();
        rows.sort_by(|a, b| a.func.cmp(&b.func));
        rows
    };
    m
}

/// The single send site. Exactly-once holds because every accepted
/// [`Job`] reaches this function exactly once: swept as expired, popped
/// by one worker, or drained by shutdown. The core counted it on the way
/// out.
fn respond(job: Job, outcome: Outcome, latency_us: u64) {
    let _ = job.reply.send(Response {
        id: job.req.id,
        outcome,
        latency_us,
    });
}

/// Record an executed job's outcome — breaker feedback when the job ran
/// through the gate (`gated`), then the core's counters — under one lock,
/// and answer it.
fn finish(inner: &Inner, done: Admitted<Job>, outcome: Outcome, gated: bool) {
    let latency_us = {
        let mut st = plock(&inner.state);
        if gated {
            if let Some(b) = st.breakers.get_mut(&done.job.req.workload) {
                // Panics, cancellations and budget exhaustions count
                // against the function, as does an injected frame abort;
                // a clean completion (probe included) counts for it.
                match &outcome {
                    Outcome::Completed { frame_abort: false, .. } => b.on_success(),
                    Outcome::Completed { .. } | Outcome::Failed(_) => b.on_failure(),
                    Outcome::Shed(_) => {}
                }
            }
        }
        st.core.complete(inner.now_us(), &done, &outcome)
    };
    respond(done.job, outcome, latency_us);
}

/// What the queue handed a worker, under one lock acquisition.
struct Popped {
    /// The core's clock at the pop.
    now_us: u64,
    /// Entries that expired in queue, swept in bulk before the dequeue so
    /// expired backlog costs O(batch), not one pop-execute cycle per
    /// corpse. The worker answers each as expired.
    expired: Vec<Admitted<Job>>,
    /// The earliest meetable job, if any.
    job: Option<Admitted<Job>>,
    /// The job's breaker verdict (see [`State::gate`]).
    gate: Option<Admission>,
}

/// Pop the next job, blocking on the queue condvar; `None` once the
/// service drains. Each wait wakes within [`IDLE_BEAT_MS`] to refresh the
/// worker's heartbeat, so an idle-but-alive worker is distinguishable
/// from a wedged one.
fn pop(inner: &Inner, wi: usize) -> Option<Popped> {
    let mut st = plock(&inner.state);
    loop {
        beat(inner, wi);
        if st.core.is_draining() {
            return None;
        }
        let now_us = inner.now_us();
        let next = st.core.next(now_us);
        if next.job.is_some() || !next.expired.is_empty() {
            let gate = next.job.as_ref().and_then(|a| st.gate(&inner.cfg, &a.job.req));
            return Some(Popped {
                now_us,
                expired: next.expired,
                job: next.job,
                gate,
            });
        }
        st.idle_workers += 1;
        st = pwait_timeout(&inner.queue_cv, st, Duration::from_millis(IDLE_BEAT_MS)).0;
        st.idle_workers -= 1;
    }
}

/// Outer worker loop: (re)build warm state, serve until drain, recycle
/// after a poison.
fn worker_main(inner: &Arc<Inner>, wi: usize) {
    loop {
        let poisoned = worker_serve(inner, wi);
        if !poisoned {
            return;
        }
        plock(&inner.state).recycles += 1;
    }
}

/// One worker incarnation: owns its resolved catalog (modules cloned so
/// interpreter decode caches stay warm across requests) and serves until
/// drain (`false`) or a poisoned execution (`true`, caller recycles).
fn worker_serve(inner: &Arc<Inner>, wi: usize) -> bool {
    let entries: Vec<Entry> = inner
        .cfg
        .catalog
        .iter()
        .filter_map(|n| resolve_workload(n))
        .collect();
    {
        let mut stats = plock(&inner.func_stats);
        for e in &entries {
            let s = stats.entry(e.name.clone()).or_default();
            s.decode_warmups += 1;
            s.walk_truncations +=
                control_flow_stats(e.module.func(e.func)).walk_truncations as u64;
        }
    }
    let mut interps: HashMap<String, (usize, Interp<'_>)> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let interp = Interp::new(&e.module).with_cancel_interval(inner.cfg.cancel_interval);
            (e.name.clone(), (i, interp))
        })
        .collect();

    loop {
        let Some(popped) = pop(inner, wi) else {
            return false;
        };
        for a in popped.expired {
            let latency_us = popped.now_us.saturating_sub(a.accepted_us);
            respond(a.job, Outcome::Shed(ShedReason::Expired), latency_us);
        }
        let Some(task) = popped.job else {
            continue;
        };
        // Wedge fault: a stuck process ignores everything — the breaker
        // gate, the execution legs, and the cancellation token. Spin
        // in-flight so the slot stays occupied past the deadline (that
        // overrun is exactly what the shard watchdog detects); only the
        // hard-kill escalation releases the worker, which then answers
        // Cancelled so the shard's accounting still balances.
        if task.job.req.fault == Some(InjectedFault::WedgeWorker) {
            *plock(&inner.inflight[wi]) = Some(Inflight {
                deadline: deadline_instant(inner, &task),
                token: CancelToken::new(),
            });
            while !inner.hard_kill.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
            *plock(&inner.inflight[wi]) = None;
            beat(inner, wi);
            finish(inner, task, Outcome::Failed(FailReason::Cancelled), false);
            continue;
        }
        let Some((ei, interp)) = interps
            .get_mut(&task.job.req.workload)
            .map(|(i, interp)| (*i, interp))
        else {
            finish(inner, task, Outcome::Failed(FailReason::UnknownWorkload), false);
            continue;
        };
        let entry = &entries[ei];

        // Per-function breaker gate, decided at the pop.
        if popped.gate == Some(Admission::Shed) {
            // Degraded leg: the reference walker, same budgets, same
            // cancellation. Its outcome does NOT feed the breaker —
            // probes are the only recovery signal.
            let (outcome, poisoned) = execute_walker(inner, wi, entry, &task);
            finish(inner, task, outcome, false);
            if poisoned {
                return true;
            }
            continue;
        }

        // Frame-offload leg first, when requested: one invocation with a
        // forced guard failure — rollback, then host re-execution below.
        // The frame comes from the *current* region epoch; the Arc clone
        // pins that epoch for this invocation even if the governor swaps
        // the table mid-run.
        let mut frame_ran = false;
        let mut frame_abort = false;
        if task.job.req.fault == Some(InjectedFault::GuardFail) {
            let regions = plock(&inner.regions).clone();
            if let Some(frame) = regions.frames.get(&entry.name) {
                frame_ran = true;
                frame_abort = run_frame_abort(frame, &entry.memory, task.job.req.id);
            }
        }

        // Sampled profile: every Nth request runs with a Ball-Larus
        // trace sink feeding the governor's epoch profile. A fresh
        // profiler per sampled request keeps a cancelled or panicked run
        // from leaking a half-built path into the governor's profile.
        let adaptive = inner.cfg.adaptive.as_ref();
        let sampled = adaptive.is_some_and(|g| task.job.req.id % g.sample_period.max(1) == 0);
        let mut profiler = sampled.then(|| PathProfiler::with_numberings(entry.numberings.clone()));

        let (outcome, poisoned) =
            execute_engine(inner, wi, entry, interp, &task, frame_abort, profiler.as_mut());

        if let Some(mut p) = profiler.take() {
            if let Some(sample) = p.take_profiles().remove(&entry.func) {
                if !sample.is_empty() {
                    plock(&inner.profiles)
                        .entry(entry.name.clone())
                        .or_default()
                        .merge(&sample);
                }
            }
        }
        // Region feedback counts *frame* invocations only: aborts can
        // only come from frame executions, so letting plain engine runs
        // into the denominator would dilute an abort storm below any
        // demotion threshold.
        if adaptive.is_some() && frame_ran {
            let mut stats = plock(&inner.region_stats);
            let s = stats.entry(entry.name.clone()).or_default();
            s.runs += 1;
            if frame_abort {
                s.aborts += 1;
            }
        }

        finish(inner, task, outcome, true);
        if poisoned {
            return true;
        }
    }
}

/// The wall-clock instant of a job's deadline (the watchdog's cancel
/// point).
fn deadline_instant(inner: &Inner, task: &Admitted<Job>) -> Instant {
    inner.epoch + Duration::from_micros(task.deadline_us)
}

/// The request's effective argument vector: the catalog entry's args
/// with the *last* one replaced by [`Request::arg`] when set (the bias
/// knob for phase workloads).
fn job_args(entry: &Entry, job: &Job) -> Vec<Constant> {
    let mut args = entry.args.clone();
    if let (Some(v), Some(last)) = (job.req.arg, args.last_mut()) {
        *last = Constant::Int(v);
    }
    args
}

/// Engine leg: set the request budget on the warm interpreter, register
/// the in-flight slot for the watchdog, run under `catch_unwind`, and
/// classify. Returns `(outcome, poisoned)`.
fn execute_engine(
    inner: &Inner,
    wi: usize,
    entry: &Entry,
    interp: &mut Interp<'_>,
    task: &Admitted<Job>,
    frame_abort: bool,
    profiler: Option<&mut PathProfiler>,
) -> (Outcome, bool) {
    interp.max_steps = task.job.fuel;
    interp.max_pages = task.job.max_pages;
    let token = CancelToken::new();
    interp.set_cancel(Some(token.clone()));
    *plock(&inner.inflight[wi]) = Some(Inflight {
        deadline: deadline_instant(inner, task),
        token,
    });

    let args = job_args(entry, &task.job);
    let panic_me = task.job.req.fault == Some(InjectedFault::PanicWorker);
    let result = catch_unwind(AssertUnwindSafe(|| {
        if panic_me {
            panic!("injected worker panic (request {})", task.job.req.id);
        }
        let mut mem = entry.memory.clone();
        match profiler {
            Some(p) => interp.run_with(entry.func, &args, &mut mem, p),
            None => interp.run_with(entry.func, &args, &mut mem, &mut NullSink),
        }
    }));
    *plock(&inner.inflight[wi]) = None;
    // Beat immediately: the heartbeat went stale during execution, and
    // the busy flag just cleared — without this, a supervisor sampling
    // the gap would see an idle worker with a stale beat.
    beat(inner, wi);
    interp.set_cancel(None);

    match result {
        Ok(r) => (
            classify(r, false, frame_abort),
            false,
        ),
        Err(_) => (Outcome::Failed(FailReason::Panicked), true),
    }
}

/// Breaker-open fallback: the reference walker under the same budgets
/// and cancellation discipline.
fn execute_walker(
    inner: &Inner,
    wi: usize,
    entry: &Entry,
    task: &Admitted<Job>,
) -> (Outcome, bool) {
    let token = CancelToken::new();
    let interp = Interp::new(&entry.module)
        .with_max_steps(task.job.fuel)
        .with_max_pages(task.job.max_pages)
        .with_cancel(Some(token.clone()))
        .with_cancel_interval(inner.cfg.cancel_interval);
    *plock(&inner.inflight[wi]) = Some(Inflight {
        deadline: deadline_instant(inner, task),
        token,
    });
    let args = job_args(entry, &task.job);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut mem = entry.memory.clone();
        interp.run_reference(entry.func, &args, &mut mem, &mut NullSink)
    }));
    *plock(&inner.inflight[wi]) = None;
    beat(inner, wi);
    match result {
        Ok(r) => (classify(r, true, false), false),
        Err(_) => (Outcome::Failed(FailReason::Panicked), true),
    }
}

fn classify(
    r: Result<Option<Val>, ExecError>,
    fallback: bool,
    frame_abort: bool,
) -> Outcome {
    match r {
        Ok(_) => Outcome::Completed {
            fallback,
            frame_abort,
        },
        Err(ExecError::Cancelled(..)) => Outcome::Failed(FailReason::Cancelled),
        Err(ExecError::StepLimit(_)) => Outcome::Failed(FailReason::StepLimit),
        Err(ExecError::MemLimit(..)) => Outcome::Failed(FailReason::MemLimit),
        Err(e) => Outcome::Failed(FailReason::Exec(e.to_string())),
    }
}

/// One frame invocation with a forced guard failure: the undo log rolls
/// the memory back, the host re-executes afterwards (the caller's engine
/// run *is* the re-execution — it starts from the unperturbed base
/// memory). Returns whether the invocation aborted.
fn run_frame_abort(frame: &Frame, base_mem: &Memory, id: u64) -> bool {
    let mut injector = FaultInjector::new(InjectorConfig {
        seed: id ^ 0xF0F0_F0F0,
        fault_rate: 1.0,
        kinds: vec![FaultKind::ForceGuardFail],
    });
    let mut rng = StdRng::seed_from_u64(id.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let live_ins: Vec<Val> = frame
        .live_ins
        .iter()
        .map(|li| draw_live_in(&mut rng, li.ty))
        .collect();
    let mut mem = base_mem.clone();
    match run_frame_with(frame, &live_ins, &mut mem, Some(&mut injector)) {
        Ok(o) => !o.committed(),
        Err(_) => false,
    }
}

// ---------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------

/// Resolve a catalog name: `svc.*` builtins or suite workloads.
fn resolve_workload(name: &str) -> Option<Entry> {
    match name {
        "svc.sum" => Some(builtin_loop("svc.sum", 256)),
        "svc.flaky" => Some(builtin_loop("svc.flaky", 64)),
        "svc.mem" => Some(builtin_store_stride("svc.mem", 8)),
        // Phase workload: a data-thresholded loop whose hot arm is a pure
        // function of the threshold argument — the last arg, overridable
        // per request via [`Request::arg`]. The adaptive soak flips it to
        // move the top Ball-Larus path under live traffic.
        "svc.phase" => {
            let w = needle_workloads::phase_workload(192, 50);
            Some(Entry::new(name, w.module, w.func, w.args, w.memory))
        }
        _ => needle_workloads::by_name(name)
            .map(|w| Entry::new(name, w.module, w.func, w.args, w.memory)),
    }
}

/// `f(n)`: a counted loop with a load/add/store body — enough structure
/// for path profiling (and thus the frame leg), cheap enough to serve
/// thousands of times per second.
fn builtin_loop(name: &str, n: i64) -> Entry {
    let mut fb = FunctionBuilder::new(name, &[Type::I64], Some(Type::I64));
    let entry = fb.entry();
    let header = fb.block("header");
    let body = fb.block("body");
    let exit = fb.block("exit");
    fb.switch_to(entry);
    fb.br(header);
    fb.switch_to(header);
    let i = fb.phi(Type::I64, &[(entry, Value::int(0))]);
    let c = fb.icmp_slt(i, fb.arg(0));
    fb.cond_br(c, body, exit);
    fb.switch_to(body);
    let p = fb.gep(Value::ptr(0x1000), i, 8);
    let v = fb.load(Type::I64, p);
    let s = fb.add(v, i);
    fb.store(s, p);
    let next = fb.add(i, Value::int(1));
    fb.br(header);
    fb.switch_to(exit);
    fb.ret(Some(i));
    let mut func = fb.finish();
    let phi_id = i.as_inst().expect("phi is an instruction");
    func.inst_mut(phi_id).args.push(next);
    func.inst_mut(phi_id).phi_blocks.push(body);
    let mut m = Module::new(name);
    let f = m.push(func);
    Entry::new(name, m, f, vec![Constant::Int(n)], Memory::new())
}

/// `f(n)`: stores to `n` consecutive fresh pages — deterministic
/// [`needle_ir::interp::ExecError::MemLimit`] under a small page cap.
fn builtin_store_stride(name: &str, n: i64) -> Entry {
    let mut fb = FunctionBuilder::new(name, &[Type::I64], Some(Type::I64));
    let entry = fb.entry();
    let header = fb.block("header");
    let body = fb.block("body");
    let exit = fb.block("exit");
    fb.switch_to(entry);
    fb.br(header);
    fb.switch_to(header);
    let i = fb.phi(Type::I64, &[(entry, Value::int(0))]);
    let c = fb.icmp_slt(i, fb.arg(0));
    fb.cond_br(c, body, exit);
    fb.switch_to(body);
    let p = fb.gep(Value::ptr(0x9000_0000), i, 4096);
    fb.store(i, p);
    let next = fb.add(i, Value::int(1));
    fb.br(header);
    fb.switch_to(exit);
    fb.ret(Some(i));
    let mut func = fb.finish();
    let phi_id = i.as_inst().expect("phi is an instruction");
    func.inst_mut(phi_id).args.push(next);
    func.inst_mut(phi_id).phi_blocks.push(body);
    let mut m = Module::new(name);
    let f = m.push(func);
    Entry::new(name, m, f, vec![Constant::Int(n)], Memory::new())
}

/// Build the epoch-0 frame leg: analyze the workload with a modest
/// budget, lower its top Ball-Larus path into a frame. Returns the
/// frame plus the chosen path's id and its `Pwt` weight (the governor's
/// incumbent record). A workload that cannot be framed disables the leg
/// gracefully (`Ok(None)`).
///
/// # Errors
/// Fails only on an unknown workload name.
fn build_frame_leg(name: &str) -> Result<Option<(Frame, u64, u128)>, NeedleError> {
    let entry = resolve_workload(name)
        .ok_or_else(|| NeedleError::Serve(format!("unknown frame workload {name:?}")))?;
    let cfg = NeedleConfig {
        analysis: AnalysisConfig {
            max_steps: 10_000_000,
            ..AnalysisConfig::default()
        },
        ..NeedleConfig::default()
    };
    let Ok(a) = analyze(&entry.module, entry.func, &entry.args, &entry.memory, &cfg) else {
        return Ok(None);
    };
    let Some(p) = PathRegion::from_rank(&a.rank, 0) else {
        return Ok(None);
    };
    let weight = a.rank.paths.first().map(|rp| rp.pwt).unwrap_or(0);
    Ok(build_frame(a.module.func(a.func), &p.region)
        .ok()
        .map(|f| (f, p.id, weight)))
}

// ---------------------------------------------------------------------
// Adaptive governor
// ---------------------------------------------------------------------

/// How many recent epochs of offload run/abort feedback the governor
/// judges demotion over. A single drain window is too fragile: an abort
/// burst that trips the breaker yields only `threshold + retry_budget`
/// full-leg runs in total, and under flood those few runs can straddle
/// several epoch drains, each individually below
/// `min_runs_for_demotion`. Summing a short window makes the demotion
/// verdict independent of where the epoch boundaries happen to fall.
const STATS_WINDOW_EPOCHS: usize = 8;

/// A workload the governor can re-select offload regions for: its
/// resolved entry (which also holds the function's Ball-Larus
/// numbering), the decayed accumulator of drained sampled profiles, and
/// the recent-epoch window of offload run/abort feedback.
struct Governed {
    entry: Entry,
    acc: PathProfile,
    stats_window: VecDeque<RegionStat>,
}

impl Governed {
    /// The governed function's Ball-Larus numbering. Only functions with
    /// one are governed.
    fn numbering(&self) -> &BlNumbering {
        &self.entry.numberings[&self.entry.func]
    }

    /// Push one epoch's drained feedback and return the *demotion view*
    /// of the window: the most recent run of epochs with the worst abort
    /// rate that still clears the `min_runs` evidence floor. A suffix,
    /// not the whole window — a breaker-throttled abort burst yields few
    /// runs, and summing them with the thousands of clean runs a healthy
    /// region banked just before would dilute the storm below any
    /// demotion threshold. If no suffix reaches `min_runs`, the full
    /// window totals are returned (which then fail the floor upstream).
    fn roll_stats(&mut self, fresh: RegionStat, min_runs: u64) -> RegionStat {
        self.stats_window.push_back(fresh);
        while self.stats_window.len() > STATS_WINDOW_EPOCHS {
            self.stats_window.pop_front();
        }
        let mut acc = RegionStat::default();
        let mut worst = RegionStat::default();
        let mut worst_rate = -1.0f64;
        for s in self.stats_window.iter().rev() {
            acc.runs += s.runs;
            acc.aborts += s.aborts;
            if acc.runs >= min_runs.max(1) {
                let rate = acc.aborts as f64 / acc.runs as f64;
                if rate > worst_rate {
                    worst_rate = rate;
                    worst = acc;
                }
            }
        }
        if worst_rate < 0.0 {
            acc // the full window; still under the evidence floor
        } else {
            worst
        }
    }
}

/// The governor loop: watch the accepted-request counter, and every
/// `epoch_requests` admissions drain the sampled profiles + offload
/// feedback, re-rank, and hot-swap the region table. The epoch pipeline
/// runs under `catch_unwind`: a re-rank panic (or any other pipeline
/// failure) pins the last-known-good table and the service keeps
/// serving on it — degradation, never an outage.
fn governor_main(inner: &Arc<Inner>, stop: &AtomicBool) {
    let cfg = inner.cfg.adaptive.clone().unwrap_or_default();
    let mut governed: Vec<(String, Governed)> = inner
        .cfg
        .catalog
        .iter()
        .filter_map(|name| {
            let entry = resolve_workload(name)?;
            // Functions with an overflowing path space are never offload
            // candidates; leave them ungoverned.
            entry.numberings.get(&entry.func)?;
            Some((
                name.clone(),
                Governed {
                    entry,
                    acc: PathProfile::default(),
                    stats_window: VecDeque::new(),
                },
            ))
        })
        .collect();
    governed.sort_by(|a, b| a.0.cmp(&b.0));

    let mut ledger = DemotionLedger::default();
    let mut epoch_n = 0u64;
    let mut last_accepted = 0u64;
    let mut miscompile_armed = cfg.inject_miscompile_at_epoch.is_some();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(cfg.tick_ms.max(1)));
        let accepted = plock(&inner.state).core.metrics().accepted;
        if accepted.saturating_sub(last_accepted) < cfg.epoch_requests.max(1) {
            continue;
        }
        last_accepted = accepted;
        epoch_n += 1;

        let mut drained = std::mem::take(&mut *plock(&inner.profiles));
        let stats = std::mem::take(&mut *plock(&inner.region_stats));
        if cfg.inject_malformed_epoch_at == Some(epoch_n) {
            // Soak-only corruption: break the `total == completed`
            // consistency every drained profile must satisfy.
            for p in drained.values_mut() {
                p.completed = p.completed.wrapping_add(3);
            }
        }
        plock(&inner.governor_stats).epochs = epoch_n;

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_epoch(
                inner,
                &cfg,
                epoch_n,
                &mut governed,
                drained,
                &stats,
                &mut ledger,
                &mut miscompile_armed,
            );
        }));
        if outcome.is_err() {
            // Pipeline failure: count it, note it on the timeline, and
            // keep serving on the last published table.
            let mut g = plock(&inner.governor_stats);
            g.failures += 1;
            g.push_event(EpochEvent {
                epoch: epoch_n,
                kind: EventKind::Pinned,
                workload: String::new(),
                detail: "re-rank pipeline panicked; pinned last-known-good regions".into(),
            });
        }
    }
}

/// One governor epoch: fold drained profiles into the per-workload
/// accumulators (rejecting malformed ones), re-rank, plan, verify and
/// publish a new region table if anything changed.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    inner: &Inner,
    cfg: &GovernorConfig,
    epoch: u64,
    governed: &mut [(String, Governed)],
    mut drained: HashMap<String, PathProfile>,
    stats: &HashMap<String, RegionStat>,
    ledger: &mut DemotionLedger,
    miscompile_armed: &mut bool,
) {
    for (name, g) in governed.iter_mut() {
        if cfg.decay {
            g.acc.decay();
        }
        let Some(epoch_profile) = drained.remove(name) else {
            continue;
        };
        let num_paths = g.numbering().num_paths();
        let in_range = epoch_profile.counts.iter().all(|(id, _)| id < num_paths);
        let consistent = epoch_profile.counts.total() == epoch_profile.completed;
        if !in_range || !consistent {
            let mut gs = plock(&inner.governor_stats);
            gs.malformed_epochs += 1;
            gs.push_event(EpochEvent {
                epoch,
                kind: EventKind::Malformed,
                workload: name.clone(),
                detail: format!(
                    "dropped inconsistent epoch (in-range {in_range}, totals match {consistent})"
                ),
            });
            continue;
        }
        g.acc.merge(&epoch_profile);
    }

    if cfg.inject_rerank_panic_at_epoch == Some(epoch) {
        panic!("injected re-rank panic at epoch {epoch}");
    }

    let current = plock(&inner.regions).clone();
    let mut observations = Vec::new();
    for (name, g) in governed.iter_mut() {
        // The window rolls every epoch, traffic or not, so stale abort
        // evidence ages out instead of anchoring a later verdict.
        let stat = g.roll_stats(
            stats.get(name).copied().unwrap_or_default(),
            cfg.min_runs_for_demotion,
        );
        if g.acc.is_empty() && stat.runs == 0 {
            continue;
        }
        let func = g.entry.module.func(g.entry.func);
        let rank = rank_paths(func, g.numbering(), &g.acc);
        let candidates: Vec<PathCandidate> = rank
            .paths
            .iter()
            .take(8)
            .map(|p| PathCandidate {
                id: p.id,
                weight: p.pwt,
                freq: p.freq,
                stability: g.acc.stability(p.id),
            })
            .collect();
        observations.push(WorkloadObservation {
            workload: name.clone(),
            candidates,
            runs: stat.runs,
            aborts: stat.aborts,
        });
    }

    let decisions = plan_epoch(epoch, &observations, &current.chosen, ledger, cfg);
    if decisions.is_empty() {
        return;
    }

    let mut frames = current.frames.clone();
    let mut chosen = current.chosen.clone();
    let mut changed = false;
    for d in decisions {
        match d {
            Decision::Demote {
                workload,
                until_epoch,
            } => {
                frames.remove(&workload);
                chosen.remove(&workload);
                changed = true;
                // The verdict consumed the window; a fresh region (after
                // cooldown) starts with a clean record.
                if let Some((_, g)) = governed.iter_mut().find(|(n, _)| n == &workload) {
                    g.stats_window.clear();
                }
                let mut gs = plock(&inner.governor_stats);
                gs.demotions += 1;
                gs.push_event(EpochEvent {
                    epoch,
                    kind: EventKind::Demoted,
                    workload,
                    detail: format!("abort storm; cooldown until epoch {until_epoch}"),
                });
            }
            Decision::Install {
                workload,
                path_id,
                weight,
            } => {
                let Some((_, g)) = governed.iter_mut().find(|(n, _)| n == &workload) else {
                    continue;
                };
                let had_incumbent = chosen.contains_key(&workload);
                let mut cert = CertStats::default();
                let inject = *miscompile_armed
                    && cfg.inject_miscompile_at_epoch.is_some_and(|n| epoch >= n);
                if inject {
                    *miscompile_armed = false;
                }
                let built = build_and_verify(g, path_id, cfg, inject, &mut cert);
                if cert.active() {
                    plock(&inner.governor_stats).cert.merge_from(&cert);
                }
                match built {
                    Ok(frame) => {
                        // The newly installed region is judged on its own
                        // feedback, not its predecessor's aborts.
                        g.stats_window.clear();
                        frames.insert(workload.clone(), Arc::new(frame));
                        chosen.insert(workload.clone(), CurrentChoice { path_id, weight });
                        changed = true;
                        let mut gs = plock(&inner.governor_stats);
                        let kind = if had_incumbent {
                            gs.switches += 1;
                            EventKind::Switched
                        } else {
                            gs.promotions += 1;
                            EventKind::Promoted
                        };
                        gs.push_event(EpochEvent {
                            epoch,
                            kind,
                            workload,
                            detail: format!("path {path_id} (Pwt {weight})"),
                        });
                    }
                    Err(refusal) => {
                        // Graceful degradation: a path that decodes,
                        // builds, verifies, or certifies badly never goes
                        // live; the incumbent (if any) keeps serving.
                        let mut gs = plock(&inner.governor_stats);
                        match refusal.kind {
                            EventKind::CertRefused => gs.cert_refusals += 1,
                            _ => gs.frame_build_errors += 1,
                        }
                        gs.push_event(EpochEvent {
                            epoch,
                            kind: refusal.kind,
                            workload,
                            detail: format!("path {path_id}: {}", refusal.detail),
                        });
                    }
                }
            }
        }
    }

    if changed {
        // The RCU publish: one pointer swap. Workers that already cloned
        // the old Arc finish their invocation on the old frames; no
        // drain, no lock held across execution.
        *plock(&inner.regions) = Arc::new(RegionEpoch {
            epoch,
            frames,
            chosen,
        });
        plock(&inner.governor_stats).swaps += 1;
    }
}

/// Why a frame was refused publication, and which timeline event class
/// records it.
struct PublishRefusal {
    kind: EventKind,
    detail: String,
}

fn refuse(kind: EventKind, detail: impl Into<String>) -> PublishRefusal {
    PublishRefusal {
        kind,
        detail: detail.into(),
    }
}

/// Chaos drill: miscompile a built frame the way a broken optimizer
/// would — drop its first store (or, storeless, wire the first live-out
/// to a constant). The certification gate must catch this.
fn inject_miscompile(frame: &mut Frame) {
    if let Some(at) = frame
        .ops
        .iter()
        .position(|o| matches!(o.kind, FrameOpKind::Store))
    {
        frame.ops[at].kind = FrameOpKind::Compute(needle_ir::Op::Add);
        frame.ops[at].args = vec![
            FrameValue::Const(Constant::Int(0)),
            FrameValue::Const(Constant::Int(0)),
        ];
        frame.ops[at].pred = None;
        frame.undo_log_size = frame
            .ops
            .iter()
            .filter(|o| matches!(o.kind, FrameOpKind::Store))
            .count();
    } else if let Some(lo) = frame.live_outs.first_mut() {
        lo.value = FrameValue::Const(Constant::Int(0x5EED));
    }
}

/// Lower a chosen path into a frame and prove it sound before it goes
/// live: decode → region validate → build → frame validate → the
/// configured verification gate. Under [`VerifyPolicy::Differential`]
/// that gate is one seeded probe through the rollback verifier; under
/// [`VerifyPolicy::RequireProof`] nothing short of `Proved` publishes.
fn build_and_verify(
    g: &Governed,
    path_id: u64,
    cfg: &GovernorConfig,
    inject: bool,
    cert: &mut CertStats,
) -> Result<Frame, PublishRefusal> {
    let build_err = |detail: String| refuse(EventKind::BuildFailed, detail);
    let func = g.entry.module.func(g.entry.func);
    let blocks = g
        .numbering()
        .decode(path_id)
        .map_err(|e| build_err(format!("decode: {e:?}")))?;
    let freq = g.acc.counts.get(path_id);
    let coverage = freq as f64 / g.acc.completed.max(1) as f64;
    let region = OffloadRegion::from_path(&blocks, freq, coverage);
    region
        .validate(func)
        .map_err(|e| build_err(format!("region: {e}")))?;
    let mut frame = build_frame(func, &region).map_err(|e| build_err(format!("build: {e:?}")))?;
    if inject {
        inject_miscompile(&mut frame);
    }
    let frame = frame;
    frame
        .validate()
        .map_err(|e| build_err(format!("frame: {e}")))?;

    match cfg.verify {
        VerifyPolicy::Differential => {
            let mut rng = StdRng::seed_from_u64(path_id ^ 0xA5A5_5A5A);
            let live_ins: Vec<Val> = frame
                .live_ins
                .iter()
                .map(|li| draw_live_in(&mut rng, li.ty))
                .collect();
            let mut mem = g.entry.memory.clone();
            let snap = mem.snapshot();
            let outcome = run_frame_with(&frame, &live_ins, &mut mem, None)
                .map_err(|e| build_err(format!("probe exec: {e:?}")))?;
            let verdict = verify_invocation(func, &frame, &live_ins, &snap, &mem, &outcome)
                .map_err(|e| build_err(format!("probe verify: {e:?}")))?;
            if !verdict.is_clean() {
                return Err(build_err(format!(
                    "differential probe diverged at {} site(s)",
                    verdict.divergences.len()
                )));
            }
        }
        VerifyPolicy::RequireProof => {
            let start = Instant::now();
            let attempt = certify_frame(func, &frame, &CertConfig::default());
            let solve_us = start.elapsed().as_micros() as u64;
            let verdict = match attempt {
                Ok(c) => {
                    cert.record(&c.verdict, solve_us);
                    c.verdict
                }
                Err(e) => return Err(build_err(format!("certifier: {e}"))),
            };
            match verdict {
                CertVerdict::Proved => {}
                CertVerdict::Refuted(cex) => {
                    return Err(refuse(
                        EventKind::CertRefused,
                        format!(
                            "symbolically refuted: counterexample over {} live-in(s) \
                             replays as a divergence",
                            cex.live_ins.len()
                        ),
                    ));
                }
                CertVerdict::Timeout { why } | CertVerdict::Unsupported { why } => {
                    return Err(refuse(
                        EventKind::CertRefused,
                        format!("unproven under require-proof: {why}"),
                    ));
                }
            }
        }
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::{adaptive_governor, run_soak, SoakConfig, SoakScenario};

    fn quick_serve() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_depth: 32,
            default_fuel: 1_000_000,
            default_deadline_ms: 5_000,
            breaker: StormConfig {
                threshold: 3,
                cooldown: 2,
                retry_budget: 4,
            },
            drain_ms: 5_000,
            frame_workload: Some("svc.sum".into()),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn completes_simple_requests() {
        let svc = Service::start(quick_serve()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        for id in 0..10 {
            svc.submit(Request::new(id, "svc.sum"), &tx).unwrap();
        }
        let mut seen = 0;
        while seen < 10 {
            let r = rx.recv_timeout(Duration::from_secs(30)).expect("response");
            assert!(
                matches!(r.outcome, Outcome::Completed { .. }),
                "{:?}",
                r.outcome
            );
            seen += 1;
        }
        let m = svc.shutdown();
        assert_eq!(m.accepted, 10);
        assert_eq!(m.completed, 10);
        assert!(m.invariant_holds());
    }

    #[test]
    fn mem_cap_and_fuel_budget_classify_failures() {
        let svc = Service::start(quick_serve()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut mem_req = Request::new(1, "svc.mem");
        mem_req.max_pages = 2;
        svc.submit(mem_req, &tx).unwrap();
        let mut fuel_req = Request::new(2, "svc.sum");
        fuel_req.fuel = 5;
        svc.submit(fuel_req, &tx).unwrap();
        let mut outcomes = HashMap::new();
        for _ in 0..2 {
            let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            outcomes.insert(r.id, r.outcome);
        }
        let _ = svc.shutdown();
        assert_eq!(outcomes[&1], Outcome::Failed(FailReason::MemLimit));
        assert_eq!(outcomes[&2], Outcome::Failed(FailReason::StepLimit));
    }

    #[test]
    fn deadline_storm_is_cancelled_not_stuck() {
        let svc = Service::start(quick_serve()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut req = Request::new(7, "999.loop");
        req.deadline_ms = 20;
        req.fuel = u64::MAX / 4;
        svc.submit(req, &tx).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(30)).expect("response");
        assert_eq!(r.outcome, Outcome::Failed(FailReason::Cancelled));
        let m = svc.shutdown();
        assert_eq!(m.cancelled, 1);
        assert!(m.invariant_holds());
    }

    #[test]
    fn panic_is_isolated_and_worker_recycles() {
        let svc = Service::start(quick_serve()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut req = Request::new(1, "svc.sum");
        req.fault = Some(InjectedFault::PanicWorker);
        svc.submit(req, &tx).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(r.outcome, Outcome::Failed(FailReason::Panicked));
        // The pool survives: later requests still complete.
        svc.submit(Request::new(2, "svc.sum"), &tx).unwrap();
        let r2 = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(r2.outcome, Outcome::Completed { .. }));
        let m = svc.shutdown();
        assert_eq!(m.panics, 1);
        assert!(m.recycles >= 1);
        assert!(m.invariant_holds());
    }

    #[test]
    fn unknown_workload_fails_typed() {
        let svc = Service::start(quick_serve()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        svc.submit(Request::new(5, "no.such"), &tx).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(r.outcome, Outcome::Failed(FailReason::UnknownWorkload));
        let _ = svc.shutdown();
    }

    #[test]
    fn draining_rejects_new_and_sheds_queued() {
        let mut cfg = quick_serve();
        cfg.workers = 1;
        let svc = Service::start(cfg).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        // A slow job occupies the single worker, the rest queue.
        let mut slow = Request::new(0, "999.loop");
        slow.deadline_ms = 200;
        slow.fuel = u64::MAX / 4;
        svc.submit(slow, &tx).unwrap();
        for id in 1..5 {
            svc.submit(Request::new(id, "svc.sum"), &tx).unwrap();
        }
        let m = svc.shutdown();
        assert!(m.invariant_holds(), "{m}");
        // Every accepted request answered: the slow one (cancelled or
        // completed), the queued ones shed or executed, none lost.
        let mut got = 0;
        while let Ok(_r) = rx.try_recv() {
            got += 1;
        }
        assert_eq!(got, 5);
        assert_eq!(m.accepted, 5);
    }

    #[test]
    fn soak_without_chaos_is_clean() {
        let cfg = SoakConfig {
            seed: 7,
            requests: 200,
            serve: quick_serve(),
            ..SoakConfig::new(SoakScenario::Mixed { chaos: false })
        };
        let r = run_soak(&cfg).unwrap();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.responses, r.accepted);
    }

    #[test]
    fn chaos_soak_preserves_exactly_once_and_exercises_breaker() {
        let cfg = SoakConfig {
            seed: 42,
            requests: 400,
            serve: quick_serve(),
            ..SoakConfig::new(SoakScenario::Mixed { chaos: true })
        };
        let r = run_soak(&cfg).unwrap();
        assert!(r.is_clean(), "{r}");
        assert!(r.metrics.trips() >= 1, "{r}");
        assert!(r.metrics.recoveries() >= 1, "{r}");
        assert!(r.metrics.panics >= 1, "{r}");
        assert!(r.metrics.cancelled >= 1, "{r}");
    }

    #[test]
    fn breaker_rows_surface_transitions_and_residency() {
        let svc = Service::start(quick_serve()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut id = 0u64;
        // Trip the svc.flaky breaker with a sequential panic streak…
        for _ in 0..3 {
            let mut req = Request::new(id, "svc.flaky");
            req.fault = Some(InjectedFault::PanicWorker);
            svc.submit(req, &tx).unwrap();
            let _ = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            id += 1;
        }
        // …then clean traffic through cooldown + probe to recover it.
        for _ in 0..6 {
            svc.submit(Request::new(id, "svc.flaky"), &tx).unwrap();
            let _ = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            id += 1;
        }
        let m = svc.shutdown();
        let row = m
            .breakers
            .iter()
            .find(|b| b.func == "svc.flaky")
            .expect("breaker row");
        assert!(row.trips >= 1, "{row:?}");
        assert!(row.recoveries >= 1, "{row:?}");
        // trip (closed→open), probe (open→half-open), recovery
        // (half-open→closed): at least three coarse transitions.
        assert!(row.transitions >= 3, "{row:?}");
    }

    #[test]
    fn func_stats_survive_worker_recycles() {
        let mut cfg = quick_serve();
        cfg.workers = 1;
        let svc = Service::start(cfg).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        svc.submit(Request::new(1, "svc.sum"), &tx).unwrap();
        let _ = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let before = svc.metrics();
        let warmups = |m: &MetricsSnapshot| {
            m.funcs
                .iter()
                .find(|r| r.func == "svc.sum")
                .map(|r| r.decode_warmups)
                .unwrap_or(0)
        };
        assert!(warmups(&before) >= 1, "{before}");

        // Force a recycle; the fresh incarnation warms its caches again,
        // so the cumulative counter must *grow*, never reset.
        let mut req = Request::new(2, "svc.sum");
        req.fault = Some(InjectedFault::PanicWorker);
        svc.submit(req, &tx).unwrap();
        let _ = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        svc.submit(Request::new(3, "svc.sum"), &tx).unwrap();
        let _ = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let after = svc.shutdown();
        assert!(after.recycles >= 1, "{after}");
        assert!(
            warmups(&after) > warmups(&before),
            "decode warmups must be cumulative across recycles: {} -> {}",
            warmups(&before),
            warmups(&after)
        );
        for row in &before.funcs {
            let later = after
                .funcs
                .iter()
                .find(|r| r.func == row.func)
                .expect("rows never disappear");
            assert!(later.decode_warmups >= row.decode_warmups);
            assert!(later.walk_truncations >= row.walk_truncations);
        }
    }

    #[test]
    fn request_arg_overrides_last_argument() {
        let svc = Service::start(quick_serve()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        // svc.phase's last arg is the branch-bias threshold; any value
        // must still complete cleanly.
        for (id, arg) in [(1u64, 95i64), (2, 5)] {
            let mut req = Request::new(id, "svc.phase");
            req.arg = Some(arg);
            svc.submit(req, &tx).unwrap();
            let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert!(matches!(r.outcome, Outcome::Completed { .. }), "{r:?}");
        }
        let _ = svc.shutdown();
    }

    #[test]
    fn adaptive_soak_hot_swaps_demotes_and_survives_rerank_panic() {
        let cfg = SoakConfig {
            seed: 7,
            requests: 4 * 1_500,
            ..SoakConfig::new(SoakScenario::Adaptive(GovernorConfig {
                epoch_requests: 60,
                ..adaptive_governor()
            }))
        };
        let r = run_soak(&cfg).unwrap();
        assert!(r.is_clean(), "{r}");
        let g = &r.metrics.governor;
        assert!(g.swaps >= 2, "{r}");
        assert!(g.promotions >= 1, "{r}");
        assert!(g.switches >= 1, "{r}");
        assert!(g.demotions >= 1, "{r}");
        assert!(g.failures >= 1, "injected panic must be absorbed: {r}");
    }

    #[test]
    fn require_proof_soak_refuses_miscompile_and_stays_clean() {
        // RequireProof end to end: every published region carries a
        // symbolic proof, and the one deliberately miscompiled build is
        // refuted at the gate — the incumbent keeps serving and the
        // soak still hits every milestone.
        let cfg = SoakConfig {
            seed: 11,
            requests: 4 * 1_500,
            ..SoakConfig::new(SoakScenario::Adaptive(GovernorConfig {
                epoch_requests: 60,
                inject_rerank_panic_at_epoch: None,
                verify: VerifyPolicy::RequireProof,
                inject_miscompile_at_epoch: Some(1),
                ..adaptive_governor()
            }))
        };
        let r = run_soak(&cfg).unwrap();
        assert!(r.is_clean(), "{r}");
        let g = &r.metrics.governor;
        assert!(g.cert.proved >= 1, "{r}");
        assert!(g.cert_refusals >= 1, "miscompile must be refused: {r}");
        assert!(g.cert.refuted >= 1, "refusal must come from a refutation: {r}");
        assert!(
            g.timeline.iter().any(|e| e.kind == EventKind::CertRefused),
            "{r}"
        );
    }

    #[test]
    fn soak_request_stream_is_seed_deterministic() {
        // Outcome counters can vary with scheduling, but the invariant
        // verdict and the submitted stream cannot.
        let cfg = SoakConfig {
            seed: 1234,
            requests: 150,
            serve: quick_serve(),
            ..SoakConfig::new(SoakScenario::Mixed { chaos: true })
        };
        let a = run_soak(&cfg).unwrap();
        let b = run_soak(&cfg).unwrap();
        assert!(a.is_clean() && b.is_clean());
        assert_eq!(a.submitted, b.submitted);
    }
}
