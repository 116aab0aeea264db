//! Integration tests for the sharded serving layer: crash recovery,
//! failover, wedge detection, graceful rebalance, shed classification
//! under restart, and the durable exactly-once ledger.

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use needle::serve::{FailReason, InjectedFault, Outcome, Request, Response, ShedReason};
use needle::shard::{audit_ledger, ShardServeConfig, ShardedService};
use needle::soak::{run_soak, SoakConfig, SoakScenario};

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

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "needle-shard-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A crashed shard's in-flight requests fail over to a successor and
/// still get exactly one response each.
#[test]
fn kill_fails_over_inflight_work_exactly_once() {
    let svc = ShardedService::start(quick_sharded(3)).unwrap();
    let (tx, rx) = channel::<Response>();
    // Park three runaway loops on their home shard; they will still be
    // in flight (400 ms deadlines) when the shard dies under them.
    let target = svc.shard_for("999.loop");
    for id in 1..=3u64 {
        let mut r = Request::new(id, "999.loop");
        r.deadline_ms = 400;
        r.fuel = u64::MAX / 4;
        svc.submit(r, &tx).unwrap();
    }
    assert!(svc.kill_shard(target), "target shard should have been live");
    // Every key resolves exactly once, despite its first placement
    // dying mid-execution.
    let mut seen = std::collections::HashSet::new();
    for _ in 0..3 {
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(seen.insert(r.id), "key {} answered twice", r.id);
    }
    assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    let m = svc.shutdown();
    assert!(m.invariant_holds(), "{m}");
    assert_eq!(m.router.kills, 1);
    assert!(
        m.router.failovers >= 1,
        "kill with in-flight work must exercise failover: {m}"
    );
    assert_eq!(m.router.accepted, 3);
}

/// A wedged worker (ignores cancellation) is detected by the watchdog,
/// its shard is crash-restarted, and the wedged request still resolves.
#[test]
fn wedge_is_detected_and_shard_restarts() {
    let mut cfg = quick_sharded(2);
    cfg.policy.wedge_grace_ms = 50;
    let svc = ShardedService::start(cfg).unwrap();
    let (tx, rx) = channel::<Response>();
    let mut r = Request::new(1, "svc.sum");
    r.deadline_ms = 20;
    r.fault = Some(InjectedFault::WedgeWorker);
    svc.submit(r, &tx).unwrap();
    let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(resp.id, 1);
    // Wait until the supervisor has both detected the wedge and
    // reinstalled a fresh generation.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(10) {
        let m = svc.router_metrics();
        if m.wedges_detected >= 1 && m.restarts >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let m = svc.shutdown();
    assert!(m.router.wedges_detected >= 1, "{m}");
    assert!(m.router.restarts >= 1, "{m}");
    assert!(m.invariant_holds(), "{m}");
    // The restarted shard runs a fresh generation.
    assert!(m.shards.iter().any(|s| s.generation >= 2), "{m}");
}

/// While a shard is down with no live successor, submissions shed as
/// Draining — restart pressure is never misreported as queue-full
/// backpressure.
#[test]
fn restart_window_sheds_as_draining_not_queue_full() {
    let mut cfg = quick_sharded(1);
    // Hold the shard down long enough to observe the window.
    cfg.policy.supervisor_poll_ms = 300;
    let svc = ShardedService::start(cfg).unwrap();
    let (tx, rx) = channel::<Response>();
    svc.submit(Request::new(1, "svc.sum"), &tx).unwrap();
    let _ = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(svc.kill_shard(0));
    let mut draining = 0;
    for id in 2..12u64 {
        match svc.submit(Request::new(id, "svc.sum"), &tx) {
            Err(ShedReason::Draining) => draining += 1,
            Err(other) => panic!("restart window shed as {other:?}, want Draining"),
            Ok(()) => {} // supervisor already restarted the shard
        }
    }
    assert!(draining > 0, "kill window was never observed");
    let m = svc.shutdown();
    assert_eq!(m.router.shed_no_shard, draining);
    assert!(m.invariant_holds(), "{m}");
}

/// Graceful rebalance mid-traffic: drained work completes or re-routes,
/// every key resolves exactly once, and the shard comes back.
#[test]
fn rebalance_mid_traffic_is_exactly_once() {
    let svc = ShardedService::start(quick_sharded(3)).unwrap();
    let (tx, rx) = channel::<Response>();
    let n = 60u64;
    for id in 1..=n {
        let req = Request::new(id, if id % 2 == 0 { "svc.sum" } else { "svc.mem" });
        loop {
            match svc.submit(req.clone(), &tx) {
                Ok(()) => break,
                Err(ShedReason::QueueFull | ShedReason::Draining) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(other) => panic!("unexpected shed {other:?}"),
            }
        }
        if id == n / 2 {
            assert!(svc.rebalance_shard(svc.shard_for("svc.sum")));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n {
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(seen.insert(r.id), "key {} answered twice", r.id);
    }
    let m = svc.shutdown();
    assert_eq!(m.router.rebalances, 1);
    assert_eq!(m.router.accepted, n);
    assert!(m.invariant_holds(), "{m}");
}

/// The durable ledger refuses re-execution of a key across a full
/// service restart, and an offline replay confirms exactly-once.
#[test]
fn ledger_survives_service_restart_and_refuses_duplicates() {
    let dir = scratch_dir("ledger");
    let path = dir.join("ledger.jsonl");
    let mut cfg = quick_sharded(2);
    cfg.ledger = Some(path.clone());

    let svc = ShardedService::start(cfg.clone()).unwrap();
    let (tx, rx) = channel::<Response>();
    for id in 1..=10u64 {
        svc.submit(Request::new(id, "svc.sum"), &tx).unwrap();
    }
    for _ in 0..10 {
        rx.recv_timeout(Duration::from_secs(30)).unwrap();
    }
    let m = svc.shutdown();
    assert!(m.invariant_holds(), "{m}");

    let audit = audit_ledger(&path).unwrap();
    assert!(audit.is_clean(), "{:?}", audit.violations);
    assert_eq!(audit.accepted, 10);
    assert_eq!(audit.resolved, 10);

    // Same ledger, new process lifetime: old keys are refused, new
    // keys still flow.
    let svc = ShardedService::start(cfg).unwrap();
    for id in 1..=10u64 {
        assert_eq!(
            svc.submit(Request::new(id, "svc.sum"), &tx),
            Err(ShedReason::Duplicate),
            "key {id} must be refused after restart"
        );
    }
    svc.submit(Request::new(11, "svc.sum"), &tx).unwrap();
    let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(r.id, 11);
    let m = svc.shutdown();
    assert_eq!(m.router.duplicates_refused, 10);
    assert!(m.invariant_holds(), "{m}");

    let audit = audit_ledger(&path).unwrap();
    assert!(audit.is_clean(), "{:?}", audit.violations);
    assert_eq!(audit.accepted, 11);
    // The `needle audit` subcommand prints this report verbatim; the
    // CI gate greps for the verdict line.
    let rendered = audit.to_string();
    assert!(rendered.contains("11 accepted"), "{rendered}");
    assert!(rendered.contains("verdict: CLEAN"), "{rendered}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Failover exhaustion is a typed answer, never silence: with zero
/// retry budget, a killed placement resolves as ShardLost.
#[test]
fn exhausted_failover_resolves_as_shard_lost() {
    let mut cfg = quick_sharded(2);
    cfg.policy.failover_attempts = 0;
    let svc = ShardedService::start(cfg).unwrap();
    let (tx, rx) = channel::<Response>();
    let target = svc.shard_for("999.loop");
    let mut r = Request::new(1, "999.loop");
    r.deadline_ms = 400;
    r.fuel = u64::MAX / 4;
    svc.submit(r, &tx).unwrap();
    assert!(svc.kill_shard(target));
    let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(resp.outcome, Outcome::Failed(FailReason::ShardLost));
    let m = svc.shutdown();
    assert_eq!(m.router.failover_exhausted, 1);
    assert!(m.invariant_holds(), "{m}");
}

/// The full chaos soak — two kills, a wedge, a rebalance — is clean and
/// deterministic per seed, with the external ledger replay agreeing.
#[test]
fn shard_chaos_soak_is_clean_and_deterministic() {
    let dir = scratch_dir("soak");
    let cfg = SoakConfig {
        seed: 7,
        requests: 400,
        shards: 3,
        serve: quick_sharded(3).serve,
        ledger: Some(dir.join("soak-ledger.jsonl")),
        ..SoakConfig::new(SoakScenario::ShardChaos)
    };
    let a = run_soak(&cfg).unwrap();
    assert!(a.is_clean(), "{a}");
    assert!(a.ledger_audit.as_ref().unwrap().is_clean(), "{a}");
    let b = run_soak(&cfg).unwrap();
    assert!(b.is_clean(), "{b}");
    assert_eq!(
        a.submitted, b.submitted,
        "submitted stream must be a pure function of the seed"
    );
    std::fs::remove_dir_all(&dir).ok();
}
