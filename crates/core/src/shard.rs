//! Shard failure domains: supervised multi-shard serving with crash
//! recovery, failover, and a durable exactly-once ledger.
//!
//! The single-shard [`Service`](crate::serve::Service) already gives one
//! failure domain strong guarantees — panic-isolated workers, a bounded
//! queue with typed shedding, per-function breakers, and exactly one
//! response per accepted request. This module composes N of them behind
//! a router so that an entire shard can die (crash, wedge, or planned
//! drain) without breaking those guarantees for the caller:
//!
//! - **Routing.** A consistent-hash ring (virtual nodes, FNV-1a over
//!   the workload name) pins each workload to a home shard so its
//!   decode caches and breaker history stay warm; the preference walk
//!   skips shards that are mid-restart.
//! - **Failure domains.** Each shard wraps a whole `Service` instance:
//!   its queue, breakers, and caches are private, so one shard's panic
//!   storm or memory churn cannot touch its neighbours. A restart
//!   installs a *fresh* `Service` — fresh caches, closed breakers — by
//!   construction.
//! - **Supervision.** A supervisor thread watches per-worker heartbeats
//!   and in-flight deadline overruns. A shard whose worker wedges (spins
//!   ignoring cooperative cancellation) past the grace window is torn
//!   down crash-style ([`Service::abort`]) and restarted.
//! - **Failover.** Requests orphaned by a shard death are re-routed to a
//!   successor with bounded, jittered exponential backoff
//!   ([`crate::supervisor::jittered_backoff`]); the retry budget
//!   exhausting yields a typed [`FailReason::ShardLost`], never silence.
//! - **Exactly-once.** The router keeps one pending entry per
//!   idempotency key ([`Request::id`]) and forwards exactly one terminal
//!   [`Response`] per admitted key — re-routing consumes the dead
//!   placement's shed/cancel instead of surfacing it. A durable dedup
//!   ledger (checksummed JSONL on [`crate::journal`]) records
//!   `acc`/`done` per key so a key that was already
//!   executed-and-responded is refused ([`ShedReason::Duplicate`]) even
//!   across a full process restart.
//!
//! Lock order (to stay deadlock-free): a shard cell lock is only ever
//! taken with no router lock held, or via `try_lock`; the `pending` map
//! lock may be held while taking `done_keys`/`retries`/`metrics`/
//! `ledger`, never the reverse.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use needle_frames::symeq::fnv1a64;

use crate::config::ShardPolicy;
use crate::error::NeedleError;
use crate::journal::{self, Journal, Json};
use crate::serve::{
    FailReason, MetricsSnapshot, Outcome, Request, Response, ServeConfig, Service, ShedReason,
};
use crate::supervisor::jittered_backoff;
use crate::sync::plock;

/// Ledger appends per fsync. The journal's checksummed
/// longest-valid-prefix recovery makes a torn batched tail safe to
/// drop, so the ledger trades a bounded redo window for throughput;
/// [`ShardedService::shutdown`] syncs the tail before reporting.
const LEDGER_SYNC_EVERY: usize = 64;

// ---------------------------------------------------------------------------
// Consistent-hash ring

/// splitmix64 finalizer: FNV-1a over short, similar strings ("shard-0/
/// vnode-1", workload names) leaves the high bits correlated, and the
/// ring partitions on the full 64-bit value — without this avalanche a
/// shard's virtual nodes can cluster so tightly it never goes primary.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Position of a workload key on the ring.
pub(crate) fn key_point(workload: &str) -> u64 {
    mix64(fnv1a64(workload.as_bytes()))
}

/// Sorted (point, shard) pairs; `virtual_nodes` points per shard smooth
/// the key distribution.
pub(crate) struct Ring {
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    pub(crate) fn new(shards: usize, virtual_nodes: usize) -> Ring {
        let vnodes = virtual_nodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                points.push((mix64(fnv1a64(format!("shard-{s}/vnode-{v}").as_bytes())), s));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Every shard exactly once, in preference order for hash `h`: the
    /// ring successor first, then walking clockwise. Requests fail over
    /// along this order, so a key's fallback shard is stable too.
    pub(crate) fn preference(&self, h: u64) -> Vec<usize> {
        let start = self.points.partition_point(|(p, _)| *p < h);
        let mut out = Vec::with_capacity(self.shards);
        for i in 0..self.points.len() {
            let (_, s) = self.points[(start + i) % self.points.len()];
            if !out.contains(&s) {
                out.push(s);
                if out.len() == self.shards {
                    break;
                }
            }
        }
        out
    }
}

/// Raw per-poll staleness signal: some worker is idle (no in-flight
/// job — busy workers are judged by deadline overrun instead, so a
/// long legitimate execution never reads as a missed heartbeat) yet
/// its last beat is older than the expected interval. The supervisor
/// requires `missed_heartbeats` *consecutive* stale polls before
/// declaring the shard wedged, so one slow scheduler quantum cannot
/// kill a healthy shard.
pub(crate) fn idle_beats_stale(ages_ms: &[u64], busy: &[bool], heartbeat_ms: u64) -> bool {
    ages_ms
        .iter()
        .zip(busy)
        .any(|(age, b)| !*b && *age > heartbeat_ms)
}

// ---------------------------------------------------------------------------
// Configuration & metrics

/// Everything [`ShardedService::start`] needs.
#[derive(Debug, Clone, Default)]
pub struct ShardServeConfig {
    /// Shard count, failure detection, restart, and failover policy.
    pub policy: ShardPolicy,
    /// Template for each shard's inner [`Service`] (workers, queue
    /// depth, budgets, breaker policy, catalog). Every generation of
    /// every shard starts from this same template.
    pub serve: ServeConfig,
    /// Durable dedup ledger path. `None` keeps exactly-once in memory
    /// only (still guaranteed within one service lifetime); `Some`
    /// additionally refuses keys already executed-and-responded by a
    /// *previous* process, and keys admitted-but-unresolved when that
    /// process died (at-most-once across restarts).
    pub ledger: Option<PathBuf>,
}

/// Router-level counters. The router's exactly-once invariant, checked
/// by [`RouterMetrics::invariant_holds`] once drained: every admitted
/// key got exactly one terminal answer —
/// `accepted == completed + failed + shed_after_accept` — and no
/// response ever arrived for an unknown key.
#[derive(Debug, Clone, Default)]
pub struct RouterMetrics {
    /// Unique idempotency keys admitted.
    pub accepted: u64,
    /// Keys answered with [`Outcome::Completed`].
    pub completed: u64,
    /// Keys answered with [`Outcome::Failed`].
    pub failed: u64,
    /// Keys answered with [`Outcome::Shed`] after admission.
    pub shed_after_accept: u64,
    /// Keys refused because they were already done or still pending.
    pub duplicates_refused: u64,
    /// Refused at admission: the home shard's queue verdict
    /// (queue-full / unmeetable) — genuine backpressure, never
    /// masked by spilling to a neighbour.
    pub shed_backpressure: u64,
    /// Refused at admission: no live shard to route to.
    pub shed_no_shard: u64,
    /// Refused at admission: the router itself is shutting down.
    pub shed_draining: u64,
    /// Orphaned requests successfully re-placed on a successor shard.
    pub failovers: u64,
    /// Failover attempts scheduled (each waits a jittered backoff).
    pub failover_retries: u64,
    /// Orphaned requests that exhausted the retry budget
    /// ([`FailReason::ShardLost`]).
    pub failover_exhausted: u64,
    /// Crash-style shard teardowns (injected kills + wedge detections).
    pub kills: u64,
    /// Of those, teardowns triggered by the wedge watchdog.
    pub wedges_detected: u64,
    /// Graceful drain-and-restart rebalances.
    pub rebalances: u64,
    /// Fresh shard generations installed by the supervisor.
    pub restarts: u64,
    /// Responses for keys the router was not tracking (must be 0).
    pub orphan_responses: u64,
    /// Ledger appends that failed (service keeps running; durability
    /// degraded).
    pub ledger_errors: u64,
}

impl RouterMetrics {
    /// Exactly-once accounting at the router boundary. Guaranteed after
    /// [`ShardedService::shutdown`].
    pub fn invariant_holds(&self) -> bool {
        self.accepted == self.completed + self.failed + self.shed_after_accept
            && self.orphan_responses == 0
    }
}

/// One shard's lifetime summary: supervision counters plus its metrics
/// accumulated across every generation (dead generations folded in).
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Shard index.
    pub shard: usize,
    /// Current generation (1 = never restarted).
    pub generation: u64,
    /// Fresh generations installed after a death or rebalance.
    pub restarts: u64,
    /// Crash-style teardowns.
    pub kills: u64,
    /// Teardowns caused by wedge detection.
    pub wedges: u64,
    /// Graceful rebalance drains.
    pub rebalances: u64,
    /// Milliseconds with no live generation, summed over restarts.
    pub downtime_ms: u64,
    /// Service counters summed over all generations. The per-shard
    /// invariant `accepted == completed + failed + shed_after_accept`
    /// holds here because each generation's [`Service`] guarantees it
    /// before handing its snapshot back.
    pub metrics: MetricsSnapshot,
}

/// Full sharded-service report: router counters plus per-shard rows.
#[derive(Debug, Clone)]
pub struct ShardedMetrics {
    /// Router-level (cross-shard) counters.
    pub router: RouterMetrics,
    /// Per-shard rows, indexed by shard id.
    pub shards: Vec<ShardRow>,
}

impl ShardedMetrics {
    /// All shards' service counters summed.
    pub fn rollup(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        for s in &self.shards {
            m.merge_from(&s.metrics);
        }
        m
    }

    /// Router, every shard, and the rollup all balance.
    pub fn invariant_holds(&self) -> bool {
        self.router.invariant_holds()
            && self.shards.iter().all(|s| s.metrics.invariant_holds())
            && self.rollup().invariant_holds()
    }

    /// Why [`invariant_holds`](Self::invariant_holds) fails, if it does.
    pub(crate) fn imbalance(&self) -> Option<String> {
        let r = &self.router;
        (!self.invariant_holds()).then(|| {
            format!(
                "counter imbalance: router accepted {} vs completed {} + failed {} + shed {} (orphans {})",
                r.accepted, r.completed, r.failed, r.shed_after_accept, r.orphan_responses
            )
        })
    }
}

impl std::fmt::Display for ShardedMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = &self.router;
        writeln!(
            f,
            "router: accepted {} = completed {} + failed {} + shed {} | dup-refused {} backpressure {} no-shard {}",
            r.accepted, r.completed, r.failed, r.shed_after_accept,
            r.duplicates_refused, r.shed_backpressure, r.shed_no_shard
        )?;
        writeln!(
            f,
            "supervision: kills {} (wedges {}) rebalances {} restarts {} | failover: placed {} retries {} exhausted {}",
            r.kills, r.wedges_detected, r.rebalances, r.restarts,
            r.failovers, r.failover_retries, r.failover_exhausted
        )?;
        for s in &self.shards {
            let m = &s.metrics;
            writeln!(
                f,
                "shard {} gen {} (restarts {} kills {} wedges {} rebalances {} downtime {}ms): accepted {} completed {} failed {} shed {}",
                s.shard, s.generation, s.restarts, s.kills, s.wedges, s.rebalances,
                s.downtime_ms, m.accepted, m.completed, m.failed, m.shed_after_accept
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Router internals

/// A shard slot: either a live service or a hole awaiting restart.
enum CellState {
    Live(Service),
    Restarting { since: Instant },
}

struct ShardCell {
    state: CellState,
    generation: u64,
    restarts: u64,
    kills: u64,
    wedges: u64,
    rebalances: u64,
    /// Milliseconds spent with no live generation, summed over every
    /// restart.
    downtime_ms: u64,
    /// Metrics of dead generations, folded in at teardown so the
    /// shard's lifetime accounting survives its restarts.
    dead: MetricsSnapshot,
}

/// An admitted key awaiting its single terminal answer.
struct Pending {
    req: Request,
    reply: Sender<Response>,
    accepted_at: Instant,
    /// Current placement (`usize::MAX` while parked between failover
    /// attempts).
    shard: usize,
    /// Failover attempts consumed.
    attempts: u32,
    /// Set by a kill/rebalance of this key's shard: the dying
    /// placement's shed/cancel triggers re-routing instead of being
    /// forwarded as the final answer.
    rerouteable: bool,
}

struct Retry {
    key: u64,
    due: Instant,
}

struct RouterInner {
    cfg: ShardServeConfig,
    ring: Ring,
    shards: Vec<Mutex<ShardCell>>,
    pending: Mutex<HashMap<u64, Pending>>,
    retries: Mutex<VecDeque<Retry>>,
    /// Keys already executed-and-responded (in-memory mirror of the
    /// durable ledger, pre-seeded from it at start).
    done_keys: Mutex<HashSet<u64>>,
    metrics: Mutex<RouterMetrics>,
    ledger: Mutex<Option<Journal>>,
    /// Every shard placement replies here; the pump thread owns the
    /// receiving end.
    resp_tx: Sender<Response>,
    draining: AtomicBool,
    stop_pump: AtomicBool,
    stop_supervisor: AtomicBool,
}

/// Supervised multi-shard execution service. See the module docs for
/// the architecture; the API mirrors [`Service`] plus chaos hooks
/// ([`ShardedService::kill_shard`], [`ShardedService::rebalance_shard`])
/// used by the soak driver and tests.
pub struct ShardedService {
    inner: Arc<RouterInner>,
    pump: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl ShardedService {
    /// Boot every shard, the response pump, and the shard supervisor.
    /// With a ledger path, previously-recorded keys are loaded for
    /// dedup before anything is admitted.
    ///
    /// # Errors
    /// [`NeedleError::Shard`] on a bad policy or ledger I/O;
    /// [`NeedleError::Serve`] if a shard's service cannot start.
    pub fn start(cfg: ShardServeConfig) -> Result<ShardedService, NeedleError> {
        if cfg.policy.shards == 0 {
            return Err(NeedleError::Shard("shard count must be at least 1".into()));
        }
        let mut done = HashSet::new();
        let ledger = match &cfg.ledger {
            None => None,
            Some(path) if path.exists() => {
                let loaded = journal::load(path)
                    .map_err(|e| NeedleError::Shard(format!("ledger load: {e}")))?;
                // Both `acc` and `done` keys are refused on re-submission:
                // a key admitted before a crash may have executed without
                // its `done` surviving, and exactly-once means never
                // risking a second execution of a responded key.
                for rec in loaded.records.iter().skip(1) {
                    if let Some(id) = rec
                        .get("id")
                        .and_then(Json::as_str)
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        done.insert(id);
                    }
                }
                let mut j = Journal::reopen(path, loaded.records.len())
                    .map_err(|e| NeedleError::Shard(format!("ledger reopen: {e}")))?;
                j.set_sync_every(LEDGER_SYNC_EVERY);
                Some(j)
            }
            Some(path) => {
                let header = Json::Obj(vec![
                    ("kind".into(), Json::Str("shard-ledger".into())),
                    ("version".into(), Json::Int(1)),
                    ("shards".into(), Json::Int(cfg.policy.shards as i64)),
                ]);
                let mut j = Journal::create(path, &header)
                    .map_err(|e| NeedleError::Shard(format!("ledger create: {e}")))?;
                j.set_sync_every(LEDGER_SYNC_EVERY);
                Some(j)
            }
        };
        let ring = Ring::new(cfg.policy.shards, cfg.policy.virtual_nodes);
        let mut shards = Vec::with_capacity(cfg.policy.shards);
        for _ in 0..cfg.policy.shards {
            shards.push(Mutex::new(ShardCell {
                state: CellState::Live(Service::start(cfg.serve.clone())?),
                generation: 1,
                restarts: 0,
                kills: 0,
                wedges: 0,
                rebalances: 0,
                downtime_ms: 0,
                dead: MetricsSnapshot::default(),
            }));
        }
        let (resp_tx, resp_rx) = std::sync::mpsc::channel();
        let inner = Arc::new(RouterInner {
            cfg,
            ring,
            shards,
            pending: Mutex::new(HashMap::new()),
            retries: Mutex::new(VecDeque::new()),
            done_keys: Mutex::new(done),
            metrics: Mutex::new(RouterMetrics::default()),
            ledger: Mutex::new(ledger),
            resp_tx,
            draining: AtomicBool::new(false),
            stop_pump: AtomicBool::new(false),
            stop_supervisor: AtomicBool::new(false),
        });
        let pump = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("needle-shard-pump".into())
                .spawn(move || pump_loop(&inner, &resp_rx))
                .map_err(|e| NeedleError::Shard(format!("spawn pump: {e}")))?
        };
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("needle-shard-sup".into())
                .spawn(move || supervisor_loop(&inner))
                .map_err(|e| NeedleError::Shard(format!("spawn supervisor: {e}")))?
        };
        Ok(ShardedService {
            inner,
            pump: Some(pump),
            supervisor: Some(supervisor),
        })
    }

    /// Submit a request. [`Request::id`] is the idempotency key: a key
    /// already pending or already executed-and-responded (this lifetime
    /// or, with a ledger, any previous one) is refused with
    /// [`ShedReason::Duplicate`]. On `Ok`, exactly one [`Response`]
    /// with this id will arrive on `reply`, even if the owning shard
    /// dies first.
    ///
    /// # Errors
    /// The typed shed reason; nothing was admitted.
    pub fn submit(&self, req: Request, reply: &Sender<Response>) -> Result<(), ShedReason> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::SeqCst) {
            plock(&inner.metrics).shed_draining += 1;
            return Err(ShedReason::Draining);
        }
        let key = req.id;
        {
            // Dedup check and provisional insert under one lock so two
            // racing submits of the same key cannot both pass. The
            // entry goes in *before* placement: a worker could answer
            // before `submit` returns, and the pump must find the key.
            let mut pend = plock(&inner.pending);
            if pend.contains_key(&key) || plock(&inner.done_keys).contains(&key) {
                drop(pend);
                plock(&inner.metrics).duplicates_refused += 1;
                return Err(ShedReason::Duplicate);
            }
            pend.insert(
                key,
                Pending {
                    req: req.clone(),
                    reply: reply.clone(),
                    accepted_at: Instant::now(),
                    shard: usize::MAX,
                    attempts: 0,
                    rerouteable: false,
                },
            );
        }
        match route_once(inner, &req, true) {
            Ok(sid) => {
                if let Some(p) = plock(&inner.pending).get_mut(&key) {
                    p.shard = sid;
                }
                ledger_acc(inner, key, sid);
                plock(&inner.metrics).accepted += 1;
                Ok(())
            }
            Err(reason) => {
                plock(&inner.pending).remove(&key);
                let mut m = plock(&inner.metrics);
                match reason {
                    ShedReason::Draining => m.shed_no_shard += 1,
                    _ => m.shed_backpressure += 1,
                }
                Err(reason)
            }
        }
    }

    /// The workload's home shard on the ring (ignoring liveness).
    pub fn shard_for(&self, workload: &str) -> usize {
        self.inner.ring.preference(key_point(workload))[0]
    }

    /// Chaos hook: crash a shard as a process kill would — no drain,
    /// in-flight work cancelled (wedged workers hard-killed), queued
    /// work shed. Orphaned requests fail over; the supervisor restarts
    /// the shard with fresh caches. `false` if the shard was already
    /// down.
    pub fn kill_shard(&self, shard: usize) -> bool {
        if shard >= self.inner.cfg.policy.shards {
            return false;
        }
        kill_shard_inner(&self.inner, shard, false)
    }

    /// Gracefully drain one shard and leave it to the supervisor to
    /// restart: in-flight and most queued work completes normally;
    /// drain-deadline stragglers are shed and re-routed. If `shard` is
    /// down already, the first live shard is rebalanced instead (so
    /// chaos schedules always exercise the path). `false` only if no
    /// shard is live.
    pub fn rebalance_shard(&self, shard: usize) -> bool {
        let n = self.inner.cfg.policy.shards;
        let first = shard.min(n - 1);
        for s in std::iter::once(first).chain((0..n).filter(|s| *s != first)) {
            if rebalance_inner(&self.inner, s) {
                return true;
            }
        }
        false
    }

    /// Router counters right now (cheap; no shard locks).
    pub fn router_metrics(&self) -> RouterMetrics {
        plock(&self.inner.metrics).clone()
    }

    /// Full live snapshot: router counters plus per-shard rows (live
    /// generation merged with its dead predecessors).
    pub fn metrics(&self) -> ShardedMetrics {
        snapshot_sharded(&self.inner)
    }

    /// Drain every shard gracefully, resolve every admitted key, stop
    /// the supervisor and pump, and sync the ledger tail. Guarantees
    /// afterwards: every key admitted got exactly one response, and
    /// [`ShardedMetrics::invariant_holds`].
    pub fn shutdown(mut self) -> ShardedMetrics {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ShardedMetrics {
        let inner = Arc::clone(&self.inner);
        inner.draining.store(true, Ordering::SeqCst);
        // From here every dying placement's answer is final — failover
        // during shutdown would re-route work onto shards we are about
        // to drain.
        for p in plock(&inner.pending).values_mut() {
            p.rerouteable = false;
        }
        inner.stop_supervisor.store(true, Ordering::SeqCst);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        resolve_parked(&inner);
        for sid in 0..inner.cfg.policy.shards {
            let svc = {
                let mut cell = plock(&inner.shards[sid]);
                match std::mem::replace(
                    &mut cell.state,
                    CellState::Restarting {
                        since: Instant::now(),
                    },
                ) {
                    CellState::Live(svc) => Some(svc),
                    s @ CellState::Restarting { .. } => {
                        cell.state = s;
                        None
                    }
                }
            };
            if let Some(svc) = svc {
                let gone = svc.shutdown();
                plock(&inner.shards[sid]).dead.merge_from(&gone);
            }
        }
        // A failover scheduled in the race window above now has no
        // shard to land on; answer those keys too.
        resolve_parked(&inner);
        // Every placement has answered into the channel; wait for the
        // pump to forward the tail.
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if plock(&inner.pending).is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        inner.stop_pump.store(true, Ordering::SeqCst);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
        // Belt and braces: a caller must never hang on a lost key.
        let leftovers: Vec<u64> = plock(&inner.pending).keys().copied().collect();
        for key in leftovers {
            let p = plock(&inner.pending).remove(&key);
            if let Some(p) = p {
                finish(&inner, key, p, Outcome::Shed(ShedReason::Draining));
            }
        }
        {
            let mut guard = plock(&inner.ledger);
            if let Some(j) = guard.as_mut() {
                let _ = j.sync();
            }
        }
        snapshot_sharded(&inner)
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        if self.pump.is_some() || self.supervisor.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Walk the key's preference order and place the request on the first
/// live shard. On *first placement* the home shard's backpressure
/// verdict (queue-full / unmeetable) is returned to the caller rather
/// than spilling to a neighbour — shedding stays honest and keys stay
/// cache-local. Failover re-placements (`first_placement == false`)
/// may spill anywhere, because the home shard is gone.
fn route_once(inner: &RouterInner, req: &Request, first_placement: bool) -> Result<usize, ShedReason> {
    let h = key_point(&req.workload);
    for sid in inner.ring.preference(h) {
        let Ok(cell) = inner.shards[sid].try_lock() else {
            continue;
        };
        let CellState::Live(svc) = &cell.state else {
            continue;
        };
        match svc.submit(req.clone(), &inner.resp_tx) {
            Ok(()) => return Ok(sid),
            Err(r @ (ShedReason::QueueFull | ShedReason::Unmeetable)) if first_placement => {
                return Err(r);
            }
            Err(_) => continue,
        }
    }
    Err(ShedReason::Draining)
}

/// Crash-style teardown of one shard; `wedge` marks it as triggered by
/// the wedge watchdog. Returns `false` if the shard was already down.
fn kill_shard_inner(inner: &RouterInner, sid: usize, wedge: bool) -> bool {
    let svc = {
        let mut cell = plock(&inner.shards[sid]);
        match std::mem::replace(
            &mut cell.state,
            CellState::Restarting {
                since: Instant::now(),
            },
        ) {
            CellState::Live(svc) => {
                cell.kills += 1;
                if wedge {
                    cell.wedges += 1;
                }
                svc
            }
            s @ CellState::Restarting { .. } => {
                cell.state = s;
                return false;
            }
        }
    };
    // Mark the shard's pending keys *before* the abort generates their
    // shed/cancel responses, so the pump re-routes instead of
    // forwarding a crash artefact as the final answer.
    {
        let mut pend = plock(&inner.pending);
        for p in pend.values_mut() {
            if p.shard == sid {
                p.rerouteable = true;
            }
        }
    }
    let gone = svc.abort();
    plock(&inner.shards[sid]).dead.merge_from(&gone);
    {
        let mut m = plock(&inner.metrics);
        m.kills += 1;
        if wedge {
            m.wedges_detected += 1;
        }
    }
    true
}

/// Graceful drain of one shard (restart left to the supervisor).
fn rebalance_inner(inner: &RouterInner, sid: usize) -> bool {
    let svc = {
        let mut cell = plock(&inner.shards[sid]);
        match std::mem::replace(
            &mut cell.state,
            CellState::Restarting {
                since: Instant::now(),
            },
        ) {
            CellState::Live(svc) => {
                cell.rebalances += 1;
                svc
            }
            s @ CellState::Restarting { .. } => {
                cell.state = s;
                return false;
            }
        }
    };
    {
        let mut pend = plock(&inner.pending);
        for p in pend.values_mut() {
            if p.shard == sid {
                p.rerouteable = true;
            }
        }
    }
    let gone = svc.shutdown();
    plock(&inner.shards[sid]).dead.merge_from(&gone);
    plock(&inner.metrics).rebalances += 1;
    true
}

/// Answer keys parked in the retry queue (no live placement) as shed —
/// used during shutdown, when failover is over.
fn resolve_parked(inner: &RouterInner) {
    let parked: Vec<u64> = inner
        .retries
        .lock()
        .unwrap()
        .drain(..)
        .map(|r| r.key)
        .collect();
    for key in parked {
        let p = plock(&inner.pending).remove(&key);
        if let Some(p) = p {
            finish(inner, key, p, Outcome::Shed(ShedReason::Draining));
        }
    }
}

// ---------------------------------------------------------------------------
// Pump: the single place responses are classified and forwarded

fn pump_loop(inner: &Arc<RouterInner>, rx: &Receiver<Response>) {
    loop {
        match rx.recv_timeout(Duration::from_millis(2)) {
            Ok(r) => handle_response(inner, r),
            Err(RecvTimeoutError::Timeout) => {
                if inner.stop_pump.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    while let Ok(r) = rx.try_recv() {
        handle_response(inner, r);
    }
}

fn handle_response(inner: &Arc<RouterInner>, r: Response) {
    let key = r.id;
    let p = plock(&inner.pending).remove(&key);
    let Some(p) = p else {
        plock(&inner.metrics).orphan_responses += 1;
        return;
    };
    // A dying placement's shed/cancel is a routing artefact, not an
    // answer — re-route it. Anything else (completions, panics, limit
    // trips, genuine deadline verdicts on a healthy shard) is final.
    let failover = p.rerouteable
        && !inner.draining.load(Ordering::SeqCst)
        && matches!(
            r.outcome,
            Outcome::Shed(ShedReason::Draining) | Outcome::Failed(FailReason::Cancelled)
        );
    if failover {
        let mut p = p;
        // Faults are per-placement chaos: a wedge/panic injection must
        // not chase the request onto its successor.
        p.req.fault = None;
        p.rerouteable = false;
        plock(&inner.pending).insert(key, p);
        schedule_failover(inner, key, Instant::now());
    } else {
        finish(inner, key, p, r.outcome);
    }
}

/// Schedule the next failover attempt for a parked key, or exhaust it
/// with [`FailReason::ShardLost`]. Caller must not hold the pending
/// lock.
fn schedule_failover(inner: &RouterInner, key: u64, now: Instant) {
    let mut pend = plock(&inner.pending);
    let Some(p) = pend.get_mut(&key) else {
        return;
    };
    if p.attempts >= inner.cfg.policy.failover_attempts {
        let p = pend.remove(&key).unwrap();
        drop(pend);
        plock(&inner.metrics).failover_exhausted += 1;
        finish(inner, key, p, Outcome::Failed(FailReason::ShardLost));
        return;
    }
    p.attempts += 1;
    p.shard = usize::MAX;
    let delay = jittered_backoff(
        inner.cfg.policy.failover_backoff_ms.max(1),
        p.attempts,
        key,
    );
    drop(pend);
    plock(&inner.retries).push_back(Retry {
        key,
        due: now + Duration::from_millis(delay),
    });
    plock(&inner.metrics).failover_retries += 1;
}

/// Forward the single terminal answer for an admitted key: durable
/// `done` record first, then the response. The router-level latency
/// spans admission to answer, across any number of placements.
fn finish(inner: &RouterInner, key: u64, p: Pending, outcome: Outcome) {
    {
        let mut m = plock(&inner.metrics);
        match &outcome {
            Outcome::Completed { .. } => m.completed += 1,
            Outcome::Failed(_) => m.failed += 1,
            Outcome::Shed(_) => m.shed_after_accept += 1,
        }
    }
    plock(&inner.done_keys).insert(key);
    ledger_done(inner, key, p.shard, &outcome);
    let _ = p.reply.send(Response {
        id: key,
        outcome,
        latency_us: p.accepted_at.elapsed().as_micros() as u64,
    });
}

fn ledger_append(inner: &RouterInner, rec: &Json) {
    let failed = {
        let mut guard = plock(&inner.ledger);
        match guard.as_mut() {
            Some(j) => j.append(rec).is_err(),
            None => false,
        }
    };
    if failed {
        plock(&inner.metrics).ledger_errors += 1;
    }
}

fn ledger_acc(inner: &RouterInner, key: u64, sid: usize) {
    ledger_append(
        inner,
        &Json::Obj(vec![
            ("k".into(), Json::Str("acc".into())),
            ("id".into(), Json::Str(key.to_string())),
            ("shard".into(), Json::Int(sid as i64)),
        ]),
    );
}

fn ledger_done(inner: &RouterInner, key: u64, sid: usize, outcome: &Outcome) {
    let class = match outcome {
        Outcome::Completed { .. } => "completed",
        Outcome::Failed(_) => "failed",
        Outcome::Shed(_) => "shed",
    };
    let shard = if sid == usize::MAX { -1 } else { sid as i64 };
    ledger_append(
        inner,
        &Json::Obj(vec![
            ("k".into(), Json::Str("done".into())),
            ("id".into(), Json::Str(key.to_string())),
            ("class".into(), Json::Str(class.into())),
            ("shard".into(), Json::Int(shard)),
        ]),
    );
}

// ---------------------------------------------------------------------------
// Supervisor: failure detection, restart, failover retries

fn supervisor_loop(inner: &Arc<RouterInner>) {
    let n = inner.cfg.policy.shards;
    let poll = Duration::from_millis(inner.cfg.policy.supervisor_poll_ms.max(1));
    let mut stale_polls = vec![0u32; n];
    while !inner.stop_supervisor.load(Ordering::SeqCst) {
        std::thread::sleep(poll);
        for (sid, stale_count) in stale_polls.iter_mut().enumerate() {
            // Sample health without blocking: a cell locked by a
            // submit or a teardown is looked at next poll.
            let health = {
                let Ok(cell) = inner.shards[sid].try_lock() else {
                    continue;
                };
                match &cell.state {
                    CellState::Live(svc) => Some((
                        svc.max_overrun_ms(),
                        svc.beat_ages_ms(),
                        svc.busy_slots(),
                    )),
                    CellState::Restarting { .. } => None,
                }
            };
            match health {
                Some((overrun, ages, busy)) => {
                    // Busy workers are wedged when an in-flight job
                    // overruns its deadline past the grace window (the
                    // watchdog's cancel was ignored); idle workers when
                    // their heartbeat stays stale across consecutive
                    // polls.
                    let stale = idle_beats_stale(&ages, &busy, inner.cfg.policy.heartbeat_ms);
                    *stale_count = if stale { *stale_count + 1 } else { 0 };
                    if overrun > inner.cfg.policy.wedge_grace_ms
                        || *stale_count >= inner.cfg.policy.missed_heartbeats.max(1)
                    {
                        *stale_count = 0;
                        kill_shard_inner(inner, sid, true);
                    }
                }
                None => {
                    *stale_count = 0;
                    restart_cell(inner, sid);
                }
            }
        }
        process_retries(inner);
    }
}

/// Install a fresh generation into a restarting cell. The replacement
/// service (thread spawns, catalog validation) is built outside the
/// cell lock so routing never stalls on a restart.
fn restart_cell(inner: &RouterInner, sid: usize) {
    let Ok(svc) = Service::start(inner.cfg.serve.clone()) else {
        // Leave the cell restarting; retried next poll.
        return;
    };
    let mut cell = plock(&inner.shards[sid]);
    if let CellState::Restarting { since } = cell.state {
        cell.downtime_ms += since.elapsed().as_millis() as u64;
        cell.state = CellState::Live(svc);
        cell.generation += 1;
        cell.restarts += 1;
        drop(cell);
        plock(&inner.metrics).restarts += 1;
    } else {
        drop(cell);
        let _ = svc.shutdown();
    }
}

/// Re-place every due parked key, rescheduling (with the next backoff
/// step) or exhausting the ones that still cannot land.
fn process_retries(inner: &RouterInner) {
    let now = Instant::now();
    let due: Vec<u64> = {
        let mut q = plock(&inner.retries);
        let mut due = Vec::new();
        q.retain(|r| {
            if r.due <= now {
                due.push(r.key);
                false
            } else {
                true
            }
        });
        due
    };
    for key in due {
        let req = {
            let pend = plock(&inner.pending);
            match pend.get(&key) {
                Some(p) => p.req.clone(),
                None => continue,
            }
        };
        match route_once(inner, &req, false) {
            Ok(sid) => {
                if let Some(p) = plock(&inner.pending).get_mut(&key) {
                    p.shard = sid;
                    p.rerouteable = false;
                }
                ledger_acc(inner, key, sid);
                plock(&inner.metrics).failovers += 1;
            }
            Err(_) => schedule_failover(inner, key, now),
        }
    }
}

fn snapshot_sharded(inner: &RouterInner) -> ShardedMetrics {
    let mut shards = Vec::with_capacity(inner.cfg.policy.shards);
    for (sid, cell) in inner.shards.iter().enumerate() {
        let cell = plock(cell);
        let mut metrics = cell.dead.clone();
        if let CellState::Live(svc) = &cell.state {
            metrics.merge_from(&svc.metrics());
        }
        shards.push(ShardRow {
            shard: sid,
            generation: cell.generation,
            restarts: cell.restarts,
            kills: cell.kills,
            wedges: cell.wedges,
            rebalances: cell.rebalances,
            downtime_ms: cell.downtime_ms,
            metrics,
        });
    }
    ShardedMetrics {
        router: plock(&inner.metrics).clone(),
        shards,
    }
}

// ---------------------------------------------------------------------------
// Ledger audit

/// Result of replaying a dedup ledger offline.
#[derive(Debug, Clone, Default)]
pub struct LedgerAudit {
    /// Unique keys admitted (`acc` records).
    pub accepted: u64,
    /// Keys with exactly one `done` record.
    pub resolved: u64,
    /// Keys admitted but never resolved (a crash window; 0 after any
    /// clean shutdown).
    pub unresolved: u64,
    /// Exactly-once violations: duplicate `done`s, `done` without
    /// `acc`, malformed records.
    pub violations: Vec<String>,
}

impl LedgerAudit {
    /// No violations and nothing left unresolved.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unresolved == 0
    }
}

impl std::fmt::Display for LedgerAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ledger audit: {} accepted, {} resolved, {} unresolved",
            self.accepted, self.resolved, self.unresolved
        )?;
        for v in &self.violations {
            writeln!(f, "  violation: {v}")?;
        }
        if self.is_clean() {
            write!(f, "verdict: CLEAN — exactly-once holds across the journal")
        } else {
            write!(f, "verdict: VIOLATED")
        }
    }
}

/// Replay a shard ledger and check exactly-once from the outside:
/// every admitted key resolved exactly once, no key resolved twice or
/// out of thin air. This is the external verifier the chaos soak and
/// CI gate on — it shares no state with the service that wrote the
/// file.
///
/// # Errors
/// [`NeedleError::Shard`] if the file cannot be loaded at all.
pub fn audit_ledger(path: &Path) -> Result<LedgerAudit, NeedleError> {
    let loaded =
        journal::load(path).map_err(|e| NeedleError::Shard(format!("ledger audit: {e}")))?;
    let mut audit = LedgerAudit::default();
    let mut accs: HashMap<u64, u64> = HashMap::new();
    let mut dones: HashMap<u64, u64> = HashMap::new();
    for rec in loaded.records.iter().skip(1) {
        let kind = rec.get("k").and_then(Json::as_str).unwrap_or("");
        let id = rec
            .get("id")
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<u64>().ok());
        let Some(id) = id else {
            audit
                .violations
                .push(format!("ledger record without a key id: {}", rec.encode()));
            continue;
        };
        match kind {
            // A key may carry several `acc`s (one per failover
            // placement); `done` must be unique.
            "acc" => *accs.entry(id).or_insert(0) += 1,
            "done" => *dones.entry(id).or_insert(0) += 1,
            other => audit
                .violations
                .push(format!("ledger record with unknown kind {other:?} for key {id}")),
        }
    }
    for (id, n) in &dones {
        if !accs.contains_key(id) {
            audit
                .violations
                .push(format!("key {id} resolved without ever being admitted"));
        }
        if *n > 1 {
            audit
                .violations
                .push(format!("key {id} resolved {n} times (exactly-once violated)"));
        }
    }
    audit.accepted = accs.len() as u64;
    audit.resolved = dones.len() as u64;
    audit.unresolved = accs.keys().filter(|id| !dones.contains_key(id)).count() as u64;
    Ok(audit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sharded(shards: usize) -> ShardServeConfig {
        let mut cfg = ShardServeConfig::default();
        cfg.policy.shards = shards;
        cfg.policy.supervisor_poll_ms = 2;
        cfg.serve.workers = 2;
        cfg.serve.queue_depth = 32;
        cfg.serve.drain_ms = 500;
        cfg.serve.frame_workload = None;
        cfg
    }

    #[test]
    fn ring_preference_covers_every_shard_exactly_once() {
        let ring = Ring::new(5, 16);
        for key in ["svc.sum", "svc.mem", "999.loop", "a", "b", "zz"] {
            let pref = ring.preference(key_point(key));
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "preference for {key}: {pref:?}");
        }
    }

    #[test]
    fn ring_spreads_primaries_across_shards() {
        let ring = Ring::new(4, 16);
        let mut hits = [0usize; 4];
        for i in 0..512u32 {
            hits[ring.preference(key_point(&format!("workload-{i}")))[0]] += 1;
        }
        for (s, n) in hits.iter().enumerate() {
            assert!(*n > 0, "shard {s} never primary: {hits:?}");
        }
    }

    #[test]
    fn ring_growth_disrupts_a_minority_of_keys() {
        let before = Ring::new(4, 16);
        let after = Ring::new(5, 16);
        let total = 1000;
        let moved = (0..total)
            .filter(|i| {
                let h = key_point(&format!("key-{i}"));
                before.preference(h)[0] != after.preference(h)[0]
            })
            .count();
        // Consistent hashing moves ~1/5 of keys when a fifth shard
        // joins; a modulo router would move ~4/5.
        assert!(
            moved < total / 2,
            "adding a shard moved {moved}/{total} keys"
        );
    }

    #[test]
    fn idle_staleness_ignores_busy_workers() {
        // Busy worker with an ancient beat: judged by overrun, not beats.
        assert!(!idle_beats_stale(&[10_000], &[true], 50));
        // Idle worker with a fresh beat: healthy.
        assert!(!idle_beats_stale(&[10], &[false], 50));
        // Idle worker with a stale beat: raw signal fires.
        assert!(idle_beats_stale(&[500], &[false], 50));
        // Mixed pool: one stale idle worker is enough.
        assert!(idle_beats_stale(&[10, 500], &[true, false], 50));
    }

    #[test]
    fn duplicate_keys_are_refused_pending_and_done() {
        let svc = ShardedService::start(quick_sharded(2)).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        svc.submit(Request::new(7, "svc.sum"), &tx).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.id, 7);
        // Done key: refused forever.
        assert_eq!(
            svc.submit(Request::new(7, "svc.sum"), &tx),
            Err(ShedReason::Duplicate)
        );
        // Pending key: refused while in flight.
        let mut slow = Request::new(8, "999.loop");
        slow.deadline_ms = 500;
        slow.fuel = u64::MAX / 4;
        svc.submit(slow, &tx).unwrap();
        assert_eq!(
            svc.submit(Request::new(8, "svc.sum"), &tx),
            Err(ShedReason::Duplicate)
        );
        let m = svc.shutdown();
        assert_eq!(m.router.duplicates_refused, 2);
        assert!(m.invariant_holds(), "{m}");
    }

    #[test]
    fn audit_flags_double_resolution_and_spontaneous_done() {
        let dir = std::env::temp_dir().join(format!(
            "needle-shard-audit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let header = Json::Obj(vec![("kind".into(), Json::Str("shard-ledger".into()))]);
        let mut j = Journal::create(&path, &header).unwrap();
        let rec = |k: &str, id: &str| {
            Json::Obj(vec![
                ("k".into(), Json::Str(k.into())),
                ("id".into(), Json::Str(id.into())),
                ("shard".into(), Json::Int(0)),
            ])
        };
        j.append(&rec("acc", "1")).unwrap();
        j.append(&rec("done", "1")).unwrap();
        j.append(&rec("done", "1")).unwrap(); // double answer
        j.append(&rec("done", "2")).unwrap(); // never admitted
        j.append(&rec("acc", "3")).unwrap(); // never resolved
        let audit = audit_ledger(&path).unwrap();
        assert!(!audit.is_clean());
        assert_eq!(audit.accepted, 2);
        assert_eq!(audit.unresolved, 1);
        assert_eq!(audit.violations.len(), 2, "{:?}", audit.violations);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let mut cfg = quick_sharded(1);
        cfg.policy.shards = 0;
        assert!(matches!(
            ShardedService::start(cfg),
            Err(NeedleError::Shard(_))
        ));
    }
}
