//! Seeded soaks of the execution service: one driver, three scenarios.
//!
//! [`run_soak`] starts the target — one [`Service`], or the sharded
//! router ([`ShardedService`]) — behind a [`ServiceHandle`], runs the
//! configured [`SoakScenario`] as a script of offers against it, and
//! ends every scenario the same way: offer a burst the shutdown must
//! shed, shut the target down, drain the replies, and check that every
//! accepted request was answered exactly once and the counters balance.
//! On the router, the durable dedup journal (when one is configured) is
//! then replayed offline with [`audit_ledger`].
//!
//! - [`SoakScenario::Mixed`]: a seeded mixed load. With chaos, a
//!   breaker-trip prelude and a probed recovery come first, and the load
//!   carries worker panics, guard failures on the frame leg, deadline
//!   storms and fuel/page starvation.
//! - [`SoakScenario::ShardChaos`]: the chaos mix over the router, with
//!   two crash-style shard kills, a wedged worker the watchdog must
//!   catch, and a graceful rebalance.
//! - [`SoakScenario::Adaptive`]: four milestone stages that drive the
//!   offload governor through promote, bias flip (a live hot-swap),
//!   guard storm (demotion) and recovery — monitored on-the-fly offload
//!   under live traffic.
//!
//! The request stream of every scenario is a pure function of the seed.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::certify::VerifyPolicy;
use crate::config::{ShardPolicy, StormConfig};
use crate::error::NeedleError;
use crate::governor::{EventKind, GovernorConfig};
use crate::journal::Json;
use crate::report;
use crate::serve::{
    InjectedFault, MetricsSnapshot, Request, Response, ServeConfig, Service, ShedReason,
};
use crate::shard::{audit_ledger, LedgerAudit, ShardServeConfig, ShardedMetrics, ShardedService};

/// What a soak drives through the target.
#[derive(Debug, Clone)]
pub enum SoakScenario {
    /// The seeded mixed load; `chaos` adds the breaker prelude, worker
    /// panics, guard failures and deadline storms.
    Mixed {
        /// Inject chaos.
        chaos: bool,
    },
    /// The chaos mix over the router plus seeded shard kills, a wedged
    /// worker and a rebalance. Always runs on the router, even at one
    /// shard.
    ShardChaos,
    /// The governor's phase-shift stages under this governor policy.
    Adaptive(GovernorConfig),
}

impl SoakScenario {
    /// Short name: `chaos`, `mixed`, `shard-chaos` or `adaptive`.
    pub fn name(&self) -> &'static str {
        match self {
            SoakScenario::Mixed { chaos: true } => "chaos",
            SoakScenario::Mixed { chaos: false } => "mixed",
            SoakScenario::ShardChaos => "shard-chaos",
            SoakScenario::Adaptive(_) => "adaptive",
        }
    }
}

/// The adaptive scenario's default governor: short epochs and a low
/// demotion threshold so each stage resolves within its budget, and a
/// re-rank panic injected at epoch 2 as the graceful-degradation drill.
pub fn adaptive_governor() -> GovernorConfig {
    GovernorConfig {
        epoch_requests: 120,
        sample_period: 2,
        demote_abort_rate: 0.35,
        cooldown_epochs: 2,
        min_stability: 0.2,
        min_path_freq: 4,
        tick_ms: 1,
        inject_rerank_panic_at_epoch: Some(2),
        ..GovernorConfig::default()
    }
}

/// Soak parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Stream seed.
    pub seed: u64,
    /// Request budget. Mixed: the main phase (the chaos prelude and the
    /// drain tail add a handful). Shard chaos: the main phase, at least
    /// 40. Adaptive: split evenly over the four stages, at least 200 a
    /// stage.
    pub requests: u64,
    /// `>= 2` runs the sharded router with this many shards; fewer runs
    /// one service (shard chaos always runs the router).
    pub shards: usize,
    /// Template for the service, or for each shard's service.
    pub serve: ServeConfig,
    /// The router's durable dedup journal. An existing file is removed
    /// first, so each soak audits its own run. Unused by one service.
    pub ledger: Option<PathBuf>,
    /// What to drive.
    pub scenario: SoakScenario,
}

impl SoakConfig {
    /// The defaults for `scenario`: seed 42; 1 000 main-phase requests
    /// (adaptive: 3 000 a stage); one service (shard chaos: the default
    /// policy's 4 shards); a small breaker and 2 s deadlines so the chaos
    /// prelude trips quickly and storms resolve fast (shard chaos keeps
    /// the service defaults; adaptive starts with no frame leg, so the
    /// first promotion is observed live).
    pub fn new(scenario: SoakScenario) -> SoakConfig {
        let soak_serve = ServeConfig {
            breaker: StormConfig {
                threshold: 3,
                cooldown: 2,
                retry_budget: 4,
            },
            default_deadline_ms: 2_000,
            drain_ms: 5_000,
            ..ServeConfig::default()
        };
        let (requests, shards, serve) = match &scenario {
            SoakScenario::Mixed { .. } => (1_000, 0, soak_serve),
            SoakScenario::ShardChaos => {
                (1_000, ShardPolicy::default().shards, ServeConfig::default())
            }
            SoakScenario::Adaptive(_) => (
                4 * 3_000,
                0,
                ServeConfig {
                    frame_workload: None,
                    ..soak_serve
                },
            ),
        };
        SoakConfig {
            seed: 42,
            requests,
            shards,
            serve,
            ledger: None,
            scenario,
        }
    }
}

impl Default for SoakConfig {
    /// The chaos soak.
    fn default() -> SoakConfig {
        SoakConfig::new(SoakScenario::Mixed { chaos: true })
    }
}

/// End-of-soak verdict.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// [`SoakScenario::name`] of the scenario run.
    pub scenario: &'static str,
    /// Stream seed.
    pub seed: u64,
    /// Requests the driver offered, each counted once however often it
    /// was retried.
    pub submitted: u64,
    /// Requests the target accepted (on the router: keys admitted).
    pub accepted: u64,
    /// Terminal responses received.
    pub responses: u64,
    /// Final service metrics, summed over shards on the router.
    pub metrics: MetricsSnapshot,
    /// Router counters and per-shard rows, when the target is sharded.
    pub sharded: Option<ShardedMetrics>,
    /// Offline replay of the router's dedup journal, when one was
    /// configured.
    pub ledger_audit: Option<LedgerAudit>,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
}

impl SoakReport {
    /// No invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The report in the shared `needle-report/v1` envelope, of kind
    /// `<scenario>-soak` (the adaptive soak's is the benchmark artifact
    /// `results/BENCH_adapt.json`): headline counters plus the
    /// governor's promote/demote timeline.
    pub fn to_json(&self) -> Json {
        let m = &self.metrics;
        let g = &m.governor;
        let int = |key: &str, v: u64| (key.to_string(), Json::Int(v as i64));
        let text = |key: &str, v: &str| (key.to_string(), Json::Str(v.to_string()));
        let timeline = g.timeline.iter().map(|e| {
            Json::Obj(vec![
                int("epoch", e.epoch),
                text("kind", &e.kind.to_string()),
                text("workload", &e.workload),
                text("detail", &e.detail),
            ])
        });
        let regions = m
            .active_regions
            .iter()
            .map(|(w, id)| Json::Obj(vec![text("workload", w), int("path_id", *id)]));
        let data = Json::Obj(vec![
            int("submitted", self.submitted),
            int("accepted", self.accepted),
            int("responses", self.responses),
            int("completed", m.completed),
            int("failed", m.failed),
            int("frame_aborts", m.frame_aborts),
            int("latency_p50_us", m.latency.percentile_us(0.50)),
            int("latency_p99_us", m.latency.percentile_us(0.99)),
            int("latency_p999_us", m.latency.percentile_us(0.999)),
            int("epochs", g.epochs),
            int("swaps", g.swaps),
            int("promotions", g.promotions),
            int("switches", g.switches),
            int("demotions", g.demotions),
            int("failures_pinned", g.failures),
            int("malformed_epochs", g.malformed_epochs),
            int("frame_build_errors", g.frame_build_errors),
            int("region_epoch", m.region_epoch),
            ("active_regions".into(), Json::Arr(regions.collect())),
            ("timeline".into(), Json::Arr(timeline.collect())),
        ]);
        let kind = format!("{}-soak", self.scenario);
        report::envelope(&kind, self.seed, &self.violations, data)
    }
}

impl std::fmt::Display for SoakReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} soak (seed {}): {} submitted, {} accepted, {} responses",
            self.scenario, self.seed, self.submitted, self.accepted, self.responses
        )?;
        writeln!(f, "{}", self.metrics)?;
        if let Some(s) = &self.sharded {
            write!(f, "{s}")?;
        }
        if self.metrics.governor.active() {
            writeln!(f, "governor timeline:")?;
            for e in &self.metrics.governor.timeline {
                writeln!(
                    f,
                    "  epoch {:>3} {} {} {}",
                    e.epoch, e.kind, e.workload, e.detail
                )?;
            }
        }
        if let Some(a) = &self.ledger_audit {
            writeln!(
                f,
                "ledger audit: {} admitted, {} resolved, {} unresolved, {} violations",
                a.accepted,
                a.resolved,
                a.unresolved,
                a.violations.len()
            )?;
        }
        if self.is_clean() {
            write!(
                f,
                "verdict: CLEAN — every accepted request answered exactly once"
            )
        } else {
            writeln!(f, "verdict: VIOLATED")?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// One resident service or the sharded router (each shard its own
/// service), behind one submit/metrics/shutdown surface.
pub enum ServiceHandle {
    /// A single service.
    One(Service),
    /// The supervised multi-shard router.
    Sharded(ShardedService),
}

impl ServiceHandle {
    /// Start one service from `serve`, or with `shards` the router over
    /// that many services built from it, journaling to `ledger`.
    ///
    /// # Errors
    /// Service or router startup failures.
    pub fn start(
        serve: ServeConfig,
        shards: Option<usize>,
        ledger: Option<PathBuf>,
    ) -> Result<ServiceHandle, NeedleError> {
        Ok(match shards {
            None => ServiceHandle::One(Service::start(serve)?),
            Some(shards) => ServiceHandle::Sharded(ShardedService::start(ShardServeConfig {
                policy: ShardPolicy {
                    shards,
                    ..ShardPolicy::default()
                },
                serve,
                ledger,
            })?),
        })
    }

    /// Submit `req`; on `Ok` exactly one response arrives on `reply`.
    ///
    /// # Errors
    /// The typed shed reason; nothing was admitted.
    pub fn submit(&self, req: Request, reply: &Sender<Response>) -> Result<(), ShedReason> {
        match self {
            ServiceHandle::One(s) => s.submit(req, reply),
            ServiceHandle::Sharded(s) => s.submit(req, reply),
        }
    }

    /// Live service metrics (summed over shards on the router).
    pub fn metrics(&self) -> MetricsSnapshot {
        match self {
            ServiceHandle::One(s) => s.metrics(),
            ServiceHandle::Sharded(s) => s.metrics().rollup(),
        }
    }

    /// Drain gracefully; every accepted request is answered before this
    /// returns. Returns the final service metrics (summed over shards)
    /// and, on the router, its counters and per-shard rows.
    pub fn shutdown(self) -> (MetricsSnapshot, Option<ShardedMetrics>) {
        match self {
            ServiceHandle::One(s) => (s.shutdown(), None),
            ServiceHandle::Sharded(s) => {
                let m = s.shutdown();
                (m.rollup(), Some(m))
            }
        }
    }
}

/// The driver's side of the exactly-once check: the reply channel, the
/// ids the target accepted and how many responses each has received,
/// and the violations seen while driving.
struct Ledger {
    tx: Sender<Response>,
    rx: Receiver<Response>,
    accepted: HashMap<u64, u64>,
    responses: u64,
    violations: Vec<String>,
    /// Requests offered, each counted once however often it was retried.
    submitted: u64,
    next_id: u64,
}

impl Ledger {
    fn new() -> Ledger {
        let (tx, rx) = std::sync::mpsc::channel();
        Ledger {
            tx,
            rx,
            accepted: HashMap::new(),
            responses: 0,
            violations: Vec::new(),
            submitted: 0,
            next_id: 1,
        }
    }

    /// A fresh request id.
    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Offer `req`, recording acceptance. While the target refuses it for
    /// a reason `retry` covers, drain responses, back off 200 µs and
    /// resubmit, for at most 30 s. Returns whether it was accepted.
    fn offer(
        &mut self,
        svc: &ServiceHandle,
        req: Request,
        retry: impl Fn(ShedReason) -> bool,
    ) -> bool {
        self.submitted += 1;
        let t0 = Instant::now();
        loop {
            match svc.submit(req.clone(), &self.tx) {
                Ok(()) => {
                    self.accepted.insert(req.id, 0);
                    return true;
                }
                Err(reason) if retry(reason) && t0.elapsed() < Duration::from_secs(30) => {
                    self.drain();
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(_) => return false,
            }
        }
    }

    fn on_response(&mut self, r: &Response) {
        self.responses += 1;
        match self.accepted.get_mut(&r.id) {
            Some(n) => {
                *n += 1;
                if *n > 1 {
                    self.violations
                        .push(format!("request {} answered {} times (duplicate)", r.id, n));
                }
            }
            None => self.violations.push(format!(
                "response for request {} that was never accepted",
                r.id
            )),
        }
    }

    fn drain(&mut self) {
        loop {
            match self.rx.try_recv() {
                Ok(r) => self.on_response(&r),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return,
            }
        }
    }

    /// Block until the given id has a response (drains everything else
    /// it sees on the way).
    fn wait_for(&mut self, id: u64) {
        while self.accepted.get(&id).copied().unwrap_or(1) == 0 {
            match self.rx.recv_timeout(Duration::from_secs(30)) {
                Ok(r) => self.on_response(&r),
                Err(_) => {
                    self.violations
                        .push(format!("request {id} never answered (lost)"));
                    return;
                }
            }
        }
    }

    /// The exactly-once verdict once the target has shut down and its
    /// responses are drained: every response matched an accepted id at
    /// most once, every accepted id was answered, the target's counters
    /// balance (`imbalance`), and the target's accepted count matches the
    /// driver's (`who` names the target in the message).
    fn verify(&mut self, who: &str, accepted: u64, imbalance: Option<String>) -> Vec<String> {
        let mut violations = std::mem::take(&mut self.violations);
        for (id, n) in &self.accepted {
            if *n == 0 {
                violations.push(format!("request {id} accepted but never answered (lost)"));
            }
        }
        violations.extend(imbalance);
        if accepted != self.accepted.len() as u64 {
            violations.push(format!(
                "{who} accepted {accepted} but driver recorded {}",
                self.accepted.len()
            ));
        }
        violations
    }
}

/// Drive the configured scenario against a fresh target, then end it the
/// same way for every scenario: offer a burst of plain requests without
/// waiting so shutdown finds them queued and must answer each as shed,
/// shut down, drain the replies, and verify exactly-once, the counter
/// balance, the scenario's own milestones and (on the router, with a
/// ledger) the offline journal replay.
///
/// # Errors
/// Startup failures and an unreadable ledger only; every guarantee
/// violation lands in [`SoakReport::violations`].
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, NeedleError> {
    let mut serve = cfg.serve.clone();
    if let SoakScenario::Adaptive(g) = &cfg.scenario {
        serve.adaptive = Some(g.clone());
    }
    let sharded = cfg.shards >= 2 || matches!(cfg.scenario, SoakScenario::ShardChaos);
    if let Some(path) = cfg.ledger.as_ref().filter(|p| sharded && p.exists()) {
        std::fs::remove_file(path).map_err(|e| NeedleError::Shard(format!("ledger reset: {e}")))?;
    }
    let svc = ServiceHandle::start(serve, sharded.then_some(cfg.shards), cfg.ledger.clone())?;
    let mut ledger = Ledger::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    match &cfg.scenario {
        SoakScenario::Mixed { chaos } => drive_mixed(cfg, *chaos, &svc, &mut ledger, &mut rng),
        SoakScenario::ShardChaos => drive_shard_chaos(cfg, &svc, &mut ledger, &mut rng),
        SoakScenario::Adaptive(_) => drive_adaptive(cfg, &svc, &mut ledger, &mut rng),
    }

    for _ in 0..8 {
        let req = Request::new(ledger.next_id(), "svc.sum");
        ledger.offer(&svc, req, |_| false);
    }
    let (metrics, sharded) = svc.shutdown();
    ledger.drain();

    let (who, accepted, imbalance) = match &sharded {
        Some(s) => ("router", s.router.accepted, s.imbalance()),
        None => ("service", metrics.accepted, metrics.imbalance()),
    };
    let mut violations = ledger.verify(who, accepted, imbalance);
    violations.extend(scenario_verdict(&cfg.scenario, &metrics, sharded.as_ref()));
    let ledger_audit = match (&cfg.ledger, &sharded) {
        (Some(path), Some(s)) => {
            let audit = audit_ledger(path)?;
            violations.extend(audit.violations.iter().cloned());
            if audit.unresolved > 0 {
                violations.push(format!(
                    "ledger left {} keys admitted but unresolved after a clean shutdown",
                    audit.unresolved
                ));
            }
            if audit.accepted != s.router.accepted {
                violations.push(format!(
                    "ledger admitted {} keys but the router reports {}",
                    audit.accepted, s.router.accepted
                ));
            }
            Some(audit)
        }
        _ => None,
    };

    Ok(SoakReport {
        scenario: cfg.scenario.name(),
        seed: cfg.seed,
        submitted: ledger.submitted,
        accepted,
        responses: ledger.responses,
        metrics,
        sharded,
        ledger_audit,
        violations,
    })
}

/// One request of the seeded mixed load: mostly `svc.sum`, with memory
/// and fuel pressure, and under `chaos` a runaway-loop deadline storm
/// plus a 2% chance of an injected worker panic.
fn mixed_request(rng: &mut StdRng, id: u64, chaos: bool) -> Request {
    let roll: f64 = rng.gen_range(0.0..1.0);
    let mut req = if roll < 0.55 {
        Request::new(id, "svc.sum")
    } else if roll < 0.70 {
        // Memory-governor pressure: a page cap below the stride count is
        // a deterministic MemLimit.
        let mut r = Request::new(id, "svc.mem");
        if chaos && rng.gen_bool(0.5) {
            r.max_pages = rng.gen_range(1usize..6);
        }
        r
    } else if roll < 0.80 {
        // Fuel pressure: a tiny budget is a deterministic StepLimit.
        let mut r = Request::new(id, "svc.sum");
        if chaos {
            r.fuel = rng.gen_range(1u64..64);
        }
        r
    } else if chaos && roll < 0.88 {
        // Deadline storm: a runaway loop with a short deadline and
        // practically-unbounded fuel — only cancellation stops it.
        let mut r = Request::new(id, "999.loop");
        r.deadline_ms = rng.gen_range(2u64..10);
        r.fuel = u64::MAX / 4;
        r
    } else {
        Request::new(id, "svc.flaky")
    };
    if chaos && rng.gen_bool(0.02) {
        req.fault = Some(InjectedFault::PanicWorker);
    }
    req
}

/// The mixed scenario. Under chaos a deterministic panic streak on
/// `svc.flaky` — `threshold` poisons, offered one at a time so the streak
/// cannot interleave — trips its breaker, and sequential clean requests
/// then ride the open breaker through its cooldown on the reference
/// walker until the probe executes clean and recovers it. The seeded
/// main mix follows, with guard failures on the frame leg.
fn drive_mixed(
    cfg: &SoakConfig,
    chaos: bool,
    svc: &ServiceHandle,
    ledger: &mut Ledger,
    rng: &mut StdRng,
) {
    if chaos {
        let breaker = &cfg.serve.breaker;
        let panics = u64::from(breaker.threshold.max(1));
        for i in 0..panics + breaker.cooldown + 2 {
            let mut req = Request::new(ledger.next_id(), "svc.flaky");
            if i < panics {
                req.fault = Some(InjectedFault::PanicWorker);
            }
            let id = req.id;
            if ledger.offer(svc, req, |_| false) {
                ledger.wait_for(id);
            }
        }
    }
    let frame_leg = cfg.serve.frame_workload.as_ref();
    for _ in 0..cfg.requests {
        let mut req = mixed_request(rng, ledger.next_id(), chaos);
        if chaos && req.fault.is_none() && frame_leg == Some(&req.workload) && rng.gen_bool(0.05) {
            req.fault = Some(InjectedFault::GuardFail);
        }
        // Backpressure: a full queue means the driver is ahead of the
        // pool — drain responses and retry instead of fire-and-forget
        // (queue-full shedding itself is still exercised: retries hit
        // the typed shed path, and the drain tail queues without
        // waiting).
        ledger.offer(svc, req, |r| r == ShedReason::QueueFull);
        ledger.drain();
    }
}

/// The shard-chaos scenario: the chaos mix (no breaker prelude, no guard
/// failures) spread over the shards by workload hash, with two
/// crash-style kills — the first aimed at a shard with known in-flight
/// work, so failover is always exercised — one wedged worker the
/// watchdog must detect, and one graceful rebalance mid-burst.
fn drive_shard_chaos(cfg: &SoakConfig, svc: &ServiceHandle, ledger: &mut Ledger, rng: &mut StdRng) {
    let ServiceHandle::Sharded(router) = svc else {
        unreachable!("shard chaos always runs on the router")
    };
    let n_shards = cfg.shards;
    let reqs = cfg.requests.max(40);

    // Chaos schedule: fixed fractions of the stream, targets drawn up
    // front so the submitted sequence stays a pure function of the
    // seed regardless of shard timing.
    let kill1_at = reqs * 30 / 100;
    let wedge_at = reqs * 50 / 100;
    let kill2_at = reqs * 70 / 100;
    let rebalance_at = reqs * 85 / 100;
    // Keep the later chaos off the wedge's home shard: a kill or
    // rebalance there would hard-release the wedged worker before the
    // watchdog proves it can detect the overrun itself.
    let wedge_home = router.shard_for("svc.sum");
    let kill2_shard = {
        let s = rng.gen_range(0..n_shards);
        if n_shards > 1 && s == wedge_home {
            (s + 1) % n_shards
        } else {
            s
        }
    };
    let rebalance_first_choice = (0..n_shards)
        .find(|s| *s != wedge_home && *s != kill2_shard)
        .unwrap_or_else(|| (wedge_home + 1) % n_shards.max(1));

    // QueueFull is backpressure; Draining is a restart window with no
    // live successor. Both clear.
    let clears = |r: ShedReason| matches!(r, ShedReason::QueueFull | ShedReason::Draining);

    for i in 0..reqs {
        if i == kill1_at {
            // Park runaway loops on a known home shard, then crash
            // exactly that shard: guaranteed orphaned in-flight work.
            let target = router.shard_for("999.loop");
            for _ in 0..3 {
                let mut r = Request::new(ledger.next_id(), "999.loop");
                r.deadline_ms = 400;
                r.fuel = u64::MAX / 4;
                ledger.offer(svc, r, clears);
            }
            router.kill_shard(target);
        }
        if i == wedge_at {
            // One wedged worker: ignores cancellation, released only by
            // the supervisor's crash teardown of its shard. The deadline
            // is short so the watchdog's overrun trips soon after the
            // worker pops it (a wedge engages even on an expired job —
            // stuck processes don't check deadlines). Admission retries
            // every shed reason: a loaded home shard may report
            // unmeetable, but the wedge must land.
            let mut r = Request::new(ledger.next_id(), "svc.sum");
            r.deadline_ms = 25;
            r.fault = Some(InjectedFault::WedgeWorker);
            ledger.offer(svc, r, |_| true);
        }
        if i == kill2_at {
            // The seeded target may still be restarting from earlier
            // chaos; fall back to another live shard (still avoiding
            // the wedge's home) so the schedule always lands two kills.
            if !router.kill_shard(kill2_shard) {
                for s in 0..n_shards {
                    if s != kill2_shard && s != wedge_home && router.kill_shard(s) {
                        break;
                    }
                }
            }
        }
        if i == rebalance_at {
            router.rebalance_shard(rebalance_first_choice);
        }
        let req = mixed_request(rng, ledger.next_id(), true);
        ledger.offer(svc, req, clears);
        ledger.drain();
    }

    // Give the chaos time to land before the drain: the wedge takes
    // deadline + grace + a supervisor poll to detect, and parked
    // failovers need their backoff to elapse.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(10) {
        let m = router.router_metrics();
        if m.wedges_detected >= 1 && m.kills >= 3 && m.restarts >= m.kills {
            break;
        }
        ledger.drain();
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Path ids currently offloaded for `workload` (union across shards).
fn region_ids(m: &MetricsSnapshot, workload: &str) -> Vec<u64> {
    m.active_regions
        .iter()
        .filter(|(w, _)| w == workload)
        .map(|(_, id)| *id)
        .collect()
}

/// A `svc.phase` request with bias threshold `arg`: 90 makes the fat arm
/// hot, 8 moves the hot path to the other arm.
fn phase(id: u64, arg: i64) -> Request {
    let mut r = Request::new(id, "svc.phase");
    r.arg = Some(arg);
    r
}

/// One milestone stage of the adaptive scenario.
struct Stage {
    /// The stage's request.
    make: fn(u64, &mut StdRng) -> Request,
    /// The milestone that ends the stage, given the metrics at the
    /// stage's start, the metrics now, and whether the target is sharded.
    done: fn(&MetricsSnapshot, &MetricsSnapshot, bool) -> bool,
    /// The violation if the budget runs out first.
    missed: &'static str,
    /// Judge the milestone on one service only: a sharded union cannot
    /// observe one shard's absence, so there the stage only exercises
    /// recovery.
    single_only: bool,
}

/// 1. **Promote** — fat-arm-hot `svc.phase` traffic; the governor must
///    observe it through the sampled path profiler and hot-swap its top
///    path in.
/// 2. **Flip** — the bias knob moves the hot arm; the governor must
///    re-select live, displacing the installed region past the switch
///    margin without draining the service.
/// 3. **Storm** — injected guard failures abort every frame invocation;
///    the abort-rate feedback must demote the region within an epoch,
///    and the cooldown ledger must bar immediate re-promotion.
/// 4. **Recover** — clean traffic after the cooldown re-promotes.
const STAGES: [Stage; 4] = [
    Stage {
        make: |id, rng| {
            if rng.gen_bool(0.8) {
                phase(id, 90)
            } else {
                Request::new(id, "svc.sum")
            }
        },
        done: |_, m, _| m.governor.promotions >= 1 && !region_ids(m, "svc.phase").is_empty(),
        missed: "stage 1 (promote): svc.phase never offloaded within budget",
        single_only: false,
    },
    Stage {
        make: |id, rng| {
            if rng.gen_bool(0.8) {
                phase(id, 8)
            } else {
                Request::new(id, "svc.sum")
            }
        },
        done: |start, m, _| {
            let initial = region_ids(start, "svc.phase");
            m.governor.switches >= 1
                && region_ids(m, "svc.phase")
                    .iter()
                    .any(|id| !initial.contains(id))
        },
        missed: "stage 2 (flip): phase shift never re-selected the svc.phase region",
        single_only: false,
    },
    Stage {
        make: |id, _| {
            let mut r = phase(id, 8);
            r.fault = Some(InjectedFault::GuardFail);
            r
        },
        done: |start, m, sharded| {
            m.governor.demotions > start.governor.demotions
                && (sharded || region_ids(m, "svc.phase").is_empty())
        },
        missed: "stage 3 (storm): aborting region was never demoted",
        single_only: false,
    },
    Stage {
        make: |id, _| phase(id, 8),
        done: |start, m, _| {
            m.governor.promotions > start.governor.promotions
                && !region_ids(m, "svc.phase").is_empty()
        },
        missed: "stage 4 (recover): region never re-promoted after cooldown",
        single_only: true,
    },
];

/// The adaptive scenario: pump each stage's seeded requests in batches
/// of 32 until its milestone is reached or its budget runs out. Along
/// the way the default governor injects a re-rank panic that it must
/// absorb by pinning last-known-good, with the service still answering.
fn drive_adaptive(cfg: &SoakConfig, svc: &ServiceHandle, ledger: &mut Ledger, rng: &mut StdRng) {
    let sharded = matches!(svc, ServiceHandle::Sharded(_));
    let budget = (cfg.requests / 4).max(200);
    for stage in &STAGES {
        let start = svc.metrics();
        let mut sent = 0u64;
        let reached = loop {
            let batch = (budget - sent).min(32);
            for _ in 0..batch {
                let req = (stage.make)(ledger.next_id(), rng);
                ledger.offer(svc, req, |r| r == ShedReason::QueueFull);
                ledger.drain();
            }
            sent += batch;
            if (stage.done)(&start, &svc.metrics(), sharded) {
                break true;
            }
            if sent >= budget {
                break false;
            }
        };
        if !(reached || (stage.single_only && sharded)) {
            ledger.violations.push(stage.missed.into());
        }
    }
}

/// The scenario's own checks on the final metrics.
fn scenario_verdict(
    scenario: &SoakScenario,
    m: &MetricsSnapshot,
    sharded: Option<&ShardedMetrics>,
) -> Vec<String> {
    let mut v = Vec::new();
    match (scenario, sharded) {
        (SoakScenario::Mixed { chaos: true }, _) => {
            if m.trips() == 0 {
                v.push("chaos soak never tripped a breaker".into());
            }
            if m.recoveries() == 0 {
                v.push("chaos soak never recovered a breaker".into());
            }
        }
        (SoakScenario::ShardChaos, Some(s)) => {
            let r = &s.router;
            if r.kills < 3 {
                v.push(format!(
                    "chaos soak killed only {} shard generations (< 3)",
                    r.kills
                ));
            }
            if r.wedges_detected == 0 {
                v.push("chaos soak never detected the wedged worker".into());
            }
            if r.rebalances == 0 {
                v.push("chaos soak never rebalanced a shard".into());
            }
            if r.failovers == 0 {
                v.push("chaos soak never failed a request over to a successor".into());
            }
            if r.restarts == 0 {
                v.push("chaos soak never restarted a shard".into());
            }
        }
        (SoakScenario::Adaptive(cfg), _) => {
            let g = &m.governor;
            if g.swaps < 2 {
                v.push(format!(
                    "expected at least 2 live region swaps (promote + re-select), saw {}",
                    g.swaps
                ));
            }
            if cfg.inject_rerank_panic_at_epoch.is_some() {
                if g.failures == 0 {
                    v.push("injected re-rank panic was never absorbed".into());
                }
                if !g.timeline.iter().any(|e| e.kind == EventKind::Pinned) {
                    v.push("no pinned-last-known-good event on the timeline".into());
                }
            }
            if cfg.inject_malformed_epoch_at.is_some() && g.malformed_epochs == 0 {
                v.push("injected malformed epoch was never detected".into());
            }
            if cfg.verify != VerifyPolicy::Differential && g.cert.proved == 0 {
                v.push(format!(
                    "verify policy {} published regions but never proved a frame",
                    cfg.verify
                ));
            }
            if cfg.inject_miscompile_at_epoch.is_some() {
                if g.cert_refusals == 0 {
                    v.push("injected miscompile was never refused by the cert gate".into());
                }
                if !g.timeline.iter().any(|e| e.kind == EventKind::CertRefused) {
                    v.push("no cert-refused event on the timeline".into());
                }
            }
            // Hysteresis: no svc.phase promotion may land inside a
            // demotion cooldown window. One service only: a sharded
            // rollup interleaves independent per-shard epoch counters.
            let mut barred_until = 0u64;
            for e in g.timeline.iter().filter(|_| sharded.is_none()) {
                if e.workload != "svc.phase" {
                    continue;
                }
                match e.kind {
                    EventKind::Demoted => {
                        barred_until = barred_until.max(e.epoch + cfg.cooldown_epochs);
                    }
                    EventKind::Promoted | EventKind::Switched if e.epoch < barred_until => {
                        v.push(format!(
                            "hysteresis violated: {} at epoch {} inside cooldown (until {})",
                            e.kind, e.epoch, barred_until
                        ));
                    }
                    _ => {}
                }
            }
        }
        _ => {}
    }
    v
}
