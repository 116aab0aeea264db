//! The `serve_suite` and `serve_micro` workloads: the real threaded
//! `Service` with one worker, driven by one closed-loop client thread.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use needle::{MetricsSnapshot, Outcome as Answer, Request, Response, ServeConfig, Service};
use needle_ir::builder::FunctionBuilder;
use needle_ir::interp::{CancelToken, Interp, Memory, NullSink};
use needle_ir::{Constant, FuncId, Module, Type, Value};

use crate::stats::{median, percentile, quantile, sorted};
use crate::trace::{totals_by_name, Trace};
use crate::{engine_matches_walker, shuffled, Metric, Outcome, Plan};

/// Which catalog and traffic a serving run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The 29 suite programs, one request outstanding.
    Suite,
    /// `svc.sum` with 1–8 trips, a window of requests outstanding.
    Micro,
}

/// `serve_micro` keeps this many requests in flight: under the default
/// `queue_depth` of 64, so nothing is shed and the worker never idles.
const MICRO_WINDOW: usize = 32;
/// `serve_micro` draws each request's trip count from 1..=MICRO_TRIPS.
const MICRO_TRIPS: i64 = 8;
/// Requests per `serve_micro` round, and rounds per second of `--seconds`.
const MICRO_ROUND: usize = 10_000;
const MICRO_ROUNDS_PER_S: f64 = 2.0;
/// The first requests of each `serve_micro` round go untimed. A round
/// starts after the service sat idle, and on a shared VM an idle vCPU must
/// be rescheduled by the host before it takes the first hand-offs: the p99
/// of a round's first thousand requests read ≈ 30% above the round's
/// median group, falling over the first few thousand.
const MICRO_WARM: usize = 2_000;
/// `serve_suite` rounds (one request per catalog program) per second of
/// `--seconds`, below the ≈4.6 rounds/s one worker serves on a 2-vCPU
/// x86-64 VM; 35 rounds are 1015 requests, so 10 lie beyond the p99.
const SUITE_ROUNDS_PER_S: f64 = 3.0;
const MIN_SUITE_ROUNDS: usize = 35;
/// Suite requests carry the engine's own default step budget: the
/// service default (2M steps) is below the largest programs' 7.2M.
const SUITE_FUEL: u64 = 50_000_000;
/// Latency percentiles are taken per group of this many consecutive
/// requests (the last group takes the remainder), so each group's p99
/// has ten samples beyond it.
const GROUP_REQUESTS: usize = 1000;
/// A reply slower than this means the service lost the request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

impl Mix {
    fn catalog(self) -> Vec<String> {
        match self {
            Mix::Suite => needle_workloads::names()
                .iter()
                .map(|n| n.to_string())
                .collect(),
            Mix::Micro => vec!["svc.sum".into()],
        }
    }

    /// Service starts timed for `setup_s`; a micro start is milliseconds.
    fn start_repeats(self) -> usize {
        match self {
            Mix::Suite => 9,
            Mix::Micro => 41,
        }
    }

    fn window(self) -> usize {
        match self {
            Mix::Suite => 1,
            Mix::Micro => MICRO_WINDOW,
        }
    }

    /// Request kinds: one per catalog program, or one per trip count.
    fn kinds(self) -> Vec<Kind> {
        match self {
            Mix::Suite => (0..needle_workloads::names().len())
                .map(|entry| Kind { entry, arg: None })
                .collect(),
            Mix::Micro => (1..=MICRO_TRIPS)
                .map(|n| Kind {
                    entry: 0,
                    arg: Some(n),
                })
                .collect(),
        }
    }

    /// Untimed requests that open each round.
    fn warm(self) -> usize {
        match self {
            Mix::Suite => 0,
            Mix::Micro => MICRO_WARM,
        }
    }

    /// The seeded request sequence, as rounds of kind indices. Each round
    /// is whole shuffles of every kind, so every seed runs the same mix.
    fn rounds(self, plan: &Plan, kinds: usize) -> Vec<Vec<u16>> {
        let mut rng = plan.rng();
        let (rounds, per_round) = match self {
            Mix::Suite => {
                let n = (plan.seconds as f64 * SUITE_ROUNDS_PER_S).round() as usize;
                (n.max(MIN_SUITE_ROUNDS), kinds)
            }
            Mix::Micro => {
                let n = (plan.seconds as f64 * MICRO_ROUNDS_PER_S).round() as usize;
                (n.max(1), MICRO_ROUND)
            }
        };
        (0..rounds)
            .map(|_| {
                let mut round = Vec::with_capacity(per_round);
                while round.len() < per_round {
                    round.extend(shuffled(kinds, &mut rng).into_iter().map(|k| k as u16));
                }
                round.truncate(per_round);
                round
            })
            .collect()
    }
}

/// One request shape: a catalog entry and its optional last argument.
#[derive(Debug, Clone, Copy)]
struct Kind {
    entry: usize,
    arg: Option<i64>,
}

/// A catalog entry as the service resolves it.
struct Entry {
    module: Module,
    func: FuncId,
    args: Vec<Constant>,
    memory: Memory,
}

impl Entry {
    fn resolve(name: &str) -> Result<Entry, String> {
        if name == "svc.sum" {
            return Ok(svc_sum());
        }
        let w = needle_workloads::by_name(name).ok_or_else(|| format!("no workload {name}"))?;
        Ok(Entry {
            module: w.module,
            func: w.func,
            args: w.args,
            memory: w.memory,
        })
    }

    fn args_for(&self, kind: Kind) -> Vec<Constant> {
        let mut args = self.args.clone();
        if let (Some(v), Some(last)) = (kind.arg, args.last_mut()) {
            *last = Constant::Int(v);
        }
        args
    }
}

/// Copy of the service's private `svc.sum` builtin (`builtin_loop` in
/// `serve.rs`): a counted load/add/store loop over `n` trips.
fn svc_sum() -> Entry {
    let mut fb = FunctionBuilder::new("svc.sum", &[Type::I64], Some(Type::I64));
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
    let mut module = Module::new("svc.sum");
    let func = module.push(func);
    Entry {
        module,
        func,
        args: vec![Constant::Int(256)],
        memory: Memory::new(),
    }
}

/// Per-request records, preallocated and indexed by request id.
struct Records {
    kind: Vec<u16>,
    submit_start_ns: Vec<u64>,
    submit_end_ns: Vec<u64>,
    reply_ns: Vec<u64>,
    svc_us: Vec<u64>,
    accepted: Vec<bool>,
    answers: Vec<u8>,
    ok: Vec<bool>,
    /// Replies naming a request that was never sent.
    strays: usize,
}

impl Records {
    fn new(n: usize) -> Records {
        Records {
            kind: vec![0; n],
            submit_start_ns: vec![0; n],
            submit_end_ns: vec![0; n],
            reply_ns: vec![0; n],
            svc_us: vec![0; n],
            accepted: vec![false; n],
            answers: vec![0; n],
            ok: vec![false; n],
            strays: 0,
        }
    }

    fn client_us(&self, id: usize) -> f64 {
        if self.ok[id] {
            (self.reply_ns[id] - self.submit_start_ns[id]) as f64 / 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// One round: ids `[first, first + len)`, of which the first `warm` go
/// untimed; the timed part runs from `start_ns` (its first submit) to
/// `end_ns` (the last reply).
struct Round {
    first: usize,
    len: usize,
    warm: usize,
    traced: bool,
    start_ns: u64,
    end_ns: u64,
}

impl Round {
    fn ids(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.len
    }

    fn timed_ids(&self) -> std::ops::Range<usize> {
        self.first + self.warm..self.first + self.len
    }

    fn rate(&self) -> f64 {
        self.timed_ids().len() as f64 / ((self.end_ns - self.start_ns) as f64 / 1e9)
    }
}

pub fn run(mix: Mix, plan: &Plan, origin: Instant) -> Result<Outcome, String> {
    let catalog = mix.catalog();
    let kinds = mix.kinds();
    let mut tr = Trace::new(plan.traced, origin);

    // Output check, outside every timed window: the flat engine agrees
    // with the reference walker on every request shape.
    let entries: Vec<Entry> = catalog
        .iter()
        .map(|n| Entry::resolve(n))
        .collect::<Result<_, _>>()?;
    let broken: Vec<Option<String>> = kinds
        .iter()
        .map(|k| {
            let e = &entries[k.entry];
            engine_matches_walker(&e.module, e.func, &e.args_for(*k), &e.memory).err()
        })
        .collect();

    // Set-up: start the service until every catalog entry has answered
    // once (decode caches warm); the median start is `setup_s`.
    let cfg = ServeConfig {
        workers: 1,
        catalog: catalog.clone(),
        ..ServeConfig::default()
    };
    let mut start_s = Vec::new();
    let mut start = |tr: &mut Trace| -> Result<Service, String> {
        let t = Instant::now();
        let h = tr.open("serve.start", start_s.len() as u64);
        let started = start_warm(&cfg, &catalog, mix);
        tr.close(h);
        start_s.push(t.elapsed().as_secs_f64());
        started
    };
    let svc = start(&mut tr)?;

    let rounds = mix.rounds(plan, kinds.len());
    let per_side: usize = rounds.iter().map(Vec::len).sum();
    let sides: &[bool] = if plan.traced {
        &[false, true]
    } else {
        &[false]
    };
    let mut rec = Records::new(per_side * sides.len());
    let mut timed: Vec<Round> = Vec::new();
    let (tx, rx) = channel();
    let mut next_id = 0;
    // Rounds start on a fixed schedule across `--seconds`, so a run
    // samples the machine over its whole length, not one burst of it.
    let slot = Duration::from_secs(plan.seconds).div_f64(rounds.len() as f64);
    let paced = Instant::now();
    // The other timed starts are spread over the run the same way, each
    // service shut down again before the next round.
    let repeats = mix.start_repeats();
    let restarts: Vec<usize> = (1..repeats).map(|k| k * rounds.len() / repeats).collect();
    for (r, round) in rounds.iter().enumerate() {
        if let Some(wait) = (slot * r as u32).checked_sub(paced.elapsed()) {
            std::thread::sleep(wait);
        }
        for _ in restarts.iter().filter(|&&at| at == r) {
            let extra = start(&mut tr)?;
            let h = tr.open("serve.shutdown", r as u64);
            extra.shutdown();
            tr.close(h);
        }
        // The traced run repeats each round traced right after it runs
        // untraced, so machine drift cancels in the overhead ratio.
        for &traced in sides {
            let r = drive_round(
                &svc, &catalog, &kinds, mix, round, next_id, traced, &mut rec, &tx, &rx, &mut tr,
            )?;
            next_id += round.len();
            timed.push(r);
        }
    }
    let h = tr.open("serve.shutdown", rounds.len() as u64);
    let snap = svc.shutdown();
    tr.close(h);
    drop(tx);

    // Output checks: exactly-once answers, counter balance, no sheds.
    let mut global = Vec::new();
    if rx.try_recv().is_ok() {
        global.push("a reply arrived after its request was answered".to_string());
    }
    if rec.strays > 0 {
        global.push(format!("{} replies named requests never sent", rec.strays));
    }
    if !snap.invariant_holds() {
        global.push(format!(
            "accepted {} != completed {} + failed {} + shed after accept {}",
            snap.accepted, snap.completed, snap.failed, snap.shed_after_accept
        ));
    }
    for (i, why) in broken.iter().enumerate() {
        if let Some(why) = why {
            global.push(format!("request kind {i}: {why}"));
        }
    }
    let measured: Vec<&Round> = timed.iter().filter(|r| r.traced == plan.traced).collect();
    // Every request is checked; latencies and rates come from timed ones.
    let all_ids = || measured.iter().flat_map(|r| r.ids());
    let ids = || measured.iter().flat_map(|r| r.timed_ids());
    let attempted = all_ids().count();
    let mut failed = all_ids()
        .filter(|&i| !rec.ok[i] || rec.answers[i] != 1)
        .count();
    for why in &global {
        println!("FAILED check: {why}");
    }
    if !global.is_empty() {
        failed = attempted;
    }
    if failed > 0 {
        println!("FAILED requests: {failed} of {attempted}");
    }
    print_rows(&catalog, &kinds, &rec, ids().collect::<Vec<_>>().as_slice());

    let metrics = if plan.traced {
        let probes = probe_engine(&entries, &kinds, mix);
        layer_metrics(&tr, &rec, &timed, &probes, &snap)
    } else {
        let rates: Vec<f64> = measured.iter().map(|r| r.rate()).collect();
        // Latency percentiles per group of consecutive requests, median over
        // groups: one stalled stretch of the run cannot set the tail.
        let latencies: Vec<f64> = ids().map(|i| rec.client_us(i)).collect();
        let mut groups: Vec<&[f64]> = latencies.chunks(GROUP_REQUESTS).collect();
        if groups.len() > 1 && groups[groups.len() - 1].len() < GROUP_REQUESTS {
            groups.pop();
            let n = groups.len();
            groups[n - 1] = &latencies[(n - 1) * GROUP_REQUESTS..];
        }
        let p50s: Vec<f64> = groups.iter().map(|g| quantile(&sorted(g), 0.5)).collect();
        let p99s: Vec<f64> = groups
            .iter()
            .map(|g| percentile(g, 0.99).map(|p| p.value))
            .collect::<Option<_>>()
            .ok_or("a latency group is too small for a p99")?;
        let ok = attempted - failed;
        let n = latencies.len();
        let per_groups = format!("median over {} groups of >= {GROUP_REQUESTS}", groups.len());
        vec![
            Metric::new("setup_s", median(&start_s), start_s.len())
                .note("median start until every catalog entry answered once"),
            Metric::new("ops_per_s", median(&rates), rates.len())
                .note("completed requests per second, median over rounds"),
            Metric::new("latency_p50_us", median(&p50s), n)
                .note(&format!("client-measured submit to reply, {per_groups}")),
            Metric::new("latency_tail_us", median(&p99s), n)
                .note(&format!("p99 (>= 10 beyond per group), {per_groups}")),
            Metric::new("ok_share", ok as f64 / attempted as f64, attempted),
            Metric::new("peak_rss_mb", crate::stats::peak_rss_mb()?, 1),
            Metric::new("sim_speedup", 1.0, 0)
                .note("the serving path offloads nothing, so served cycles are host cycles"),
            Metric::new("decided_share", 1.0, 0)
                .note("the serving path certifies no frames, so none is undecided"),
        ]
    };
    if plan.traced {
        tr.write_csv(&plan.trace_path())
            .map_err(|e| format!("cannot write the span file: {e}"))?;
    }
    Ok(Outcome {
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
    })
}

/// Start a service and answer one request per catalog entry.
fn start_warm(cfg: &ServeConfig, catalog: &[String], mix: Mix) -> Result<Service, String> {
    let svc = Service::start(cfg.clone()).map_err(|e| format!("Service::start: {e}"))?;
    let (tx, rx) = channel();
    for (i, name) in catalog.iter().enumerate() {
        svc.submit(request(i as u64, name, mix, Some(1)), &tx)
            .map_err(|e| format!("warm-up request for {name} shed: {e}"))?;
    }
    for _ in catalog {
        let r = rx
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| format!("warm-up reply: {e}"))?;
        if !matches!(r.outcome, Answer::Completed { .. }) {
            return Err(format!("warm-up request {} answered {:?}", r.id, r.outcome));
        }
    }
    Ok(svc)
}

fn request(id: u64, workload: &str, mix: Mix, arg: Option<i64>) -> Request {
    let mut req = Request::new(id, workload);
    match mix {
        Mix::Suite => req.fuel = SUITE_FUEL,
        Mix::Micro => req.arg = arg,
    }
    req
}

/// Run one round closed-loop with `mix.window()` requests outstanding.
#[allow(clippy::too_many_arguments)]
fn drive_round(
    svc: &Service,
    catalog: &[String],
    kinds: &[Kind],
    mix: Mix,
    round: &[u16],
    first: usize,
    traced: bool,
    rec: &mut Records,
    tx: &Sender<Response>,
    rx: &Receiver<Response>,
    tr: &mut Trace,
) -> Result<Round, String> {
    let round_span = if traced {
        tr.open("round", first as u64)
    } else {
        None
    };
    let mut next = 0;
    let mut outstanding = 0;
    while next < round.len() || outstanding > 0 {
        while next < round.len() && outstanding < mix.window() {
            let id = first + next;
            let kind = kinds[round[next] as usize];
            let req = request(id as u64, &catalog[kind.entry], mix, kind.arg);
            rec.kind[id] = round[next];
            rec.submit_start_ns[id] = tr.now_ns();
            rec.accepted[id] = svc.submit(req, tx).is_ok();
            rec.submit_end_ns[id] = tr.now_ns();
            next += 1;
            if rec.accepted[id] {
                outstanding += 1;
            }
        }
        if outstanding == 0 {
            continue;
        }
        let r = rx
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| format!("waiting for a reply: {e}"))?;
        let now = tr.now_ns();
        let id = usize::try_from(r.id).expect("ids fit in usize");
        if id >= first + next {
            rec.strays += 1;
            continue;
        }
        rec.answers[id] = rec.answers[id].saturating_add(1);
        if id < first || !rec.accepted[id] || rec.answers[id] > 1 {
            // A duplicate, a late reply for an earlier round, or a reply to
            // a refused request: it fails that request and frees no slot.
            rec.ok[id] = false;
            continue;
        }
        outstanding -= 1;
        rec.reply_ns[id] = now;
        rec.svc_us[id] = r.latency_us;
        rec.ok[id] = r.outcome
            == Answer::Completed {
                fallback: false,
                frame_abort: false,
            };
        if let Some(parent) = round_span {
            let req = tr.record("request", r.id, parent, rec.submit_start_ns[id], now);
            if let Some(req) = req {
                let (s, e) = (rec.submit_start_ns[id], rec.submit_end_ns[id]);
                tr.record("serve.submit", r.id, req, s, e);
            }
        }
    }
    let end_ns = tr.now_ns();
    tr.close(round_span);
    let warm = mix.warm();
    Ok(Round {
        first,
        len: round.len(),
        warm,
        traced,
        start_ns: rec.submit_start_ns[first + warm],
        end_ns,
    })
}

/// Warm standalone engine time and steps of each request kind, run as the
/// worker runs it (fresh memory copy, cancel token armed).
struct Probe {
    us: f64,
    steps: u64,
}

fn probe_engine(entries: &[Entry], kinds: &[Kind], mix: Mix) -> Vec<Probe> {
    let defaults = ServeConfig::default();
    kinds
        .iter()
        .map(|k| {
            let e = &entries[k.entry];
            let args = e.args_for(*k);
            let mut interp = Interp::new(&e.module).with_cancel_interval(defaults.cancel_interval);
            interp.max_steps = match mix {
                Mix::Suite => SUITE_FUEL,
                Mix::Micro => defaults.default_fuel,
            };
            interp.set_cancel(Some(CancelToken::new()));
            let once = |interp: &Interp| {
                let mut mem = e.memory.clone();
                let _ = interp.run_with(e.func, &args, &mut mem, &mut NullSink);
            };
            let t = Instant::now();
            once(&interp);
            // Batches of at least ~2 ms, so sub-microsecond runs resolve.
            let batch = (2e-3 / t.elapsed().as_secs_f64().max(1e-9)).ceil().max(1.0) as usize;
            let per_run: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..batch {
                        once(&interp);
                    }
                    t.elapsed().as_secs_f64() * 1e6 / batch as f64
                })
                .collect();
            Probe {
                us: median(&per_run),
                steps: interp.steps(),
            }
        })
        .collect()
}

fn layer_metrics(
    tr: &Trace,
    rec: &Records,
    timed: &[Round],
    probes: &[Probe],
    snap: &MetricsSnapshot,
) -> Vec<Metric> {
    let traced: Vec<&Round> = timed.iter().filter(|r| r.traced).collect();
    let ids: Vec<usize> = traced.iter().flat_map(|r| r.timed_ids()).collect();
    let n = ids.len();
    // Service-side figures come from the completed requests only: a shed
    // request never reached the engine.
    let done: Vec<usize> = ids.iter().copied().filter(|&i| rec.ok[i]).collect();
    let m = done.len();
    let col =
        |ids: &[usize], f: &dyn Fn(usize) -> f64| ids.iter().map(|&i| f(i)).collect::<Vec<f64>>();
    let submit_ns = col(&ids, &|i| {
        (rec.submit_end_ns[i] - rec.submit_start_ns[i]) as f64
    });
    let svc_us = col(&done, &|i| rec.svc_us[i] as f64);
    let probe = |i: usize| &probes[rec.kind[i] as usize];
    let handoff = col(&done, &|i| rec.client_us(i) - rec.svc_us[i] as f64);
    let queue_wait = col(&done, &|i| rec.svc_us[i] as f64 - probe(i).us);
    let busy_us: f64 = done.iter().map(|&i| probe(i).us).sum();
    let wall_us: f64 = traced
        .iter()
        .map(|r| (r.end_ns - r.start_ns) as f64 / 1e3)
        .sum();
    let steps: u64 = done.iter().map(|&i| probe(i).steps).sum();
    // Traced and untraced rounds alternate, so each traced round's
    // untraced twin is the round just before it.
    let pairs: Vec<f64> = timed
        .windows(2)
        .filter(|w| !w[0].traced && w[1].traced)
        .map(|w| w[1].rate() / w[0].rate())
        .collect();
    let rounds = totals_by_name(tr.spans())
        .get("round")
        .copied()
        .unwrap_or((0, 0));
    let pct = |v: &[f64], q: f64| {
        if v.is_empty() {
            0.0
        } else {
            quantile(&sorted(v), q)
        }
    };
    let count = |name: &'static str, v: u64| Metric::new(name, v as f64, 1);
    vec![
        Metric::new("ir.steps", steps as f64 / m.max(1) as f64, m)
            .note("mean engine steps per completed request"),
        Metric::new(
            "ir.null_ns_per_step",
            busy_us * 1e3 / steps.max(1) as f64,
            probes.len(),
        ),
        Metric::new("serve.submit_ns_p50", pct(&submit_ns, 0.5), n),
        Metric::new("serve.submit_ns_p99", pct(&submit_ns, 0.99), n),
        Metric::new("serve.svc_latency_us_p50", pct(&svc_us, 0.5), m),
        Metric::new("serve.svc_latency_us_p99", pct(&svc_us, 0.99), m),
        Metric::new("serve.handoff_us_p50", pct(&handoff, 0.5), m),
        Metric::new("serve.queue_wait_us_p50", pct(&queue_wait, 0.5), m),
        Metric::new("serve.worker_busy_share", busy_us / wall_us, m),
        Metric::new("serve.useful_share", m as f64 / n as f64, n),
        count("serve.accepted", snap.accepted),
        count("serve.completed", snap.completed),
        count("serve.failed", snap.failed),
        count("serve.shed_queue_full", snap.shed_queue_full),
        count("serve.shed_unmeetable", snap.shed_unmeetable),
        count("serve.shed_throttled", snap.shed_throttled),
        count("serve.shed_after_accept", snap.shed_after_accept),
        count("serve.breaker_trips", snap.trips()),
        count("serve.recycles", snap.recycles),
        count("serve.brownout_descents", snap.brownout_descents),
        count("serve.metastable_fired", snap.metastable_fired),
        Metric::new("trace.overhead_share", 1.0 - median(&pairs), pairs.len())
            .note("1 - traced/untraced requests per second, median over round pairs"),
        Metric::new(
            "trace.span_coverage",
            1.0 - rounds.1 as f64 / rounds.0.max(1) as f64,
            traced.len(),
        )
        .note("share of round wall time with a request span open"),
    ]
}

/// One row per request kind: count, client p50, service p50.
fn print_rows(catalog: &[String], kinds: &[Kind], rec: &Records, ids: &[usize]) {
    println!(
        "{:<20} {:>5} {:>9} {:>14} {:>14}",
        "request", "arg", "count", "client_p50_us", "svc_p50_us"
    );
    for (k, kind) in kinds.iter().enumerate() {
        let mine: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&i| rec.kind[i] as usize == k)
            .collect();
        if mine.is_empty() {
            continue;
        }
        let client: Vec<f64> = mine.iter().map(|&i| rec.client_us(i)).collect();
        let svc: Vec<f64> = mine.iter().map(|&i| rec.svc_us[i] as f64).collect();
        println!(
            "{:<20} {:>5} {:>9} {:>14.1} {:>14.1}",
            catalog[kind.entry],
            kind.arg.map_or("-".into(), |a| a.to_string()),
            mine.len(),
            median(&client),
            median(&svc)
        );
    }
}
