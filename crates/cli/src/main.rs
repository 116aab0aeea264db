//! `needle` — the command-line front end of the reproduction, mirroring
//! the tool the paper released ("NEEDLE is automated … released as free
//! and open source software").
//!
//! ```text
//! needle list
//! needle analyze <workload>
//! needle offload <workload> [--path] [--oracle] [--expand N]
//! needle print-ir <workload>
//! needle run-ir <file> [args...]
//! ```

use std::process::ExitCode;

use needle::soak::adaptive_governor;
use needle::{
    analyze, audit_ledger, certify_workload, peek_journal, run_soak, run_supervised,
    simulate_offload, storm_scenario, CampaignOptions, CampaignReport, CampaignUnit, CertStats,
    ChaosConfig, GovernorConfig, NeedleConfig, PredictorKind, Request, ServeConfig, ServiceHandle,
    SoakConfig, SoakScenario, SupervisorConfig, UnitKind, UnitPayload, VerdictJournal,
    VerifyPolicy,
};
use needle_frames::build_frame;
use needle_ir::interp::{Interp, Memory, NullSink};
use needle_ir::print::{function_to_string, module_to_string};
use needle_ir::Constant;
use needle_regions::path::PathRegion;
use needle_regions::path_tree::build_path_trees;

const USAGE: &str = "\
needle — profile-guided extraction of accelerator offload regions (HPCA'17)

USAGE:
  needle list
      List the 29 synthetic suite workloads.
  needle analyze <workload>
      Profile a workload: hot paths, Braids, baselines, statistics.
  needle offload <workload> [--path] [--oracle]
      Co-simulate offloading the top Braid (default) or top BL-path,
      with the history predictor (default) or the oracle.
  needle suite [--workloads a,b,c] [--path] [--oracle] [--pathological]
               [supervisor flags]
      Supervised whole-suite sweep: run every workload's full chain
      (profile → rank → region → frame → offload) on a panic-isolated
      worker pool with per-unit deadlines and degrading retries. A
      panicking or runaway workload becomes a per-unit outcome, not a
      dead campaign, so a completed campaign exits 0 even with failed
      units. --pathological appends probe units (a panicking unit and
      the runaway 999.loop workload) to demonstrate isolation.
  needle resume --journal PATH [supervisor flags]
      Resume a journaled campaign: completed units are replayed from
      the journal, in-flight and unstarted ones re-run.
  needle chaos [--seed N] [--faults M] [--workloads a,b,c] [--corruption]
               [--no-storm] [supervisor flags]
      Seeded fault-injection campaign, one supervised unit per
      workload: inject ~M faults split across workloads, attack the
      top braid and path of each, differentially verify every
      invocation, then (unless --no-storm) force an abort storm and
      check the offloader degrades to host-only execution. Exits
      non-zero on any divergence, missed corruption, failed unit, or
      storm that fails to trip.

  needle fuzz [--seed N] [--iters K] [--minimize] [--repro-dir DIR]
              [supervisor flags]
      Differential fuzzing: seeded verifier-clean modules (plus mutated
      suite workloads) run through the flat engine, the reference
      walker, and — where a region is extractable — the frame
      build/exec/rollback path, comparing results, step counts, event
      streams, final memory and error attribution under swept StepLimit
      and memory-governor caps. Deterministic in --seed (decimal or
      0x-hex). With --minimize, failures are shrunk and written to
      --repro-dir (default tests/repros) as .needle + .case.txt pairs.
      Exits non-zero on any divergence.

  Supervisor flags (suite / resume / chaos / fuzz):
      --workers N        worker threads (0 = auto)
      --deadline-ms MS   per-attempt wall-clock deadline
      --retries N        attempts per unit before failed-with-cause
      --journal PATH     append-only JSONL checkpoint journal
      --resume           resume from --journal instead of starting over

  needle serve [--workers N] [--requests N] [--shards N] [--adaptive]
      Demo of the resident execution service: start the worker pool,
      drive a short mixed request stream through admission control
      (per-request fuel, page caps, deadlines), then drain gracefully
      and print the metrics snapshot — counters, per-function circuit
      breaker state, and the latency histogram. With --shards N the
      stream runs through the supervised multi-shard router instead:
      requests hash to shard-private worker pools and the report adds
      per-shard rows plus router/failover counters. --adaptive arms the
      offload governor: sampled path profiles re-rank regions per epoch
      and the report adds the governor counters and timeline.
  needle soak [--seed N] [--requests N] [--shards N] [--workers N]
              [--no-chaos | --shard-chaos | --adaptive] [--ledger PATH]
              [--out PATH]
      Seeded soak of the execution service. One driver runs the chosen
      scenario against one service, or with --shards N (N >= 2) the
      supervised multi-shard router, then sheds a queued tail through
      shutdown and verifies that every accepted request was answered
      exactly once (`accepted == completed + failed + shed`). On the
      router, --ledger PATH keeps the durable dedup journal and the soak
      replays it offline at the end. --out writes the report as JSON.
      Deterministic in --seed; exits non-zero on any violation.
      Default scenario: the chaos mix — injected worker panics, frame
      guard failures, and deadline storms; a circuit breaker must both
      trip and recover. --no-chaos runs the plain mix.
      --shard-chaos (always on the router; 4 shards by default): the
      chaos mix rides over seeded shard kills (crash-style, in-flight
      work orphaned), a wedged worker the watchdog must detect and
      restart, and a graceful rebalance mid-burst; failover re-routes
      orphaned requests with jittered backoff.
      --adaptive [--verify-policy P] [--inject-miscompile EPOCH]: the
      request stream promotes a hot path, flips the branch bias so a
      different path dominates (forcing a live region hot-swap with
      zero drain), storms the guards until the breaker-informed
      re-ranker demotes the aborting region, then recovers; an injected
      re-ranker panic must be absorbed by pinning the last-known-good
      region table. --requests splits over the four stages (default
      3000 each). --verify-policy picks the publish gate (differential,
      require-proof); under require-proof only symbolically proved
      frames go live. --inject-miscompile EPOCH miscompiles the first
      frame built at or after that epoch (a dropped store) — the cert
      gate must refuse it and keep the incumbent serving.
  needle loadgen [--scenario S|all] [--seed N] [--shards N] [--workers N]
                 [--queue-depth N] [--baseline] [--out PATH] [--check]
      Deterministic open-loop load generation against a virtual-time
      simulation that runs the serving stack's own service core per
      shard (EDF queue + expired sweep, and the unmeetable-deadline
      test against a latency target). Arrivals follow the scenario
      curve (steady | diurnal | burst | adversarial | retry-storm)
      regardless of service health; clients retry under per-client
      budgets with jittered exponential backoff, and the retry-storm
      scenario adds a misbehaving-client population with near-zero
      backoff. retry-storm always runs the hardened and baseline
      (queue-full only) cores side by side; other scenarios run the
      hardened core, or the baseline one with --baseline. Reports
      offered load, goodput, the shed breakdown (queue-full /
      unmeetable), and exact p50/p99/p999 latency per phase. Same seed
      → identical report (modulo the generated_unix_ms stamp). --out
      writes the needle-report/v1 JSON artifact; --check enforces the
      overload gates (the admission ledger in every run; steady p999
      ceiling; retry-storm goodput floor, baseline collapse, the
      hardened-vs-baseline goodput gap, and post-storm p99 recovery)
      and exits non-zero on failure.
  needle audit <journal>
      Offline exactly-once audit of a durable dedup journal written by
      `soak --shard-chaos --ledger PATH`: replays the journal, checks
      every accepted request resolved exactly once, and prints the
      verdict. Exits non-zero if the ledger shows any violation.
  needle certify <workload|all> [--top N] [--cache PATH] [--json PATH]
      Symbolically certify the workload's hottest frames: lower the top
      N executed paths (default 3) to frames and prove each equivalent
      to its source region over ALL live-in values with the in-house
      bit-vector checker — no external solver. Prints per-frame
      verdicts (proved / refuted / timeout / unsupported) with solver
      stats. --cache keeps a durable verdict journal keyed by frame
      fingerprint, so a second run answers from the cache; --json
      writes the full report for the benchmark artifact. Exits non-zero
      if any frame is refuted.

  needle print-ir <workload>
      Print the workload's IR in textual form.
  needle run-ir <file> [intarg...]
      Parse a textual IR module and run its first function.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("analyze") => with_workload(&args, cmd_analyze),
        Some("offload") => with_workload(&args, |name| cmd_offload(name, &args)),
        Some("suite") => cmd_suite(&args),
        Some("resume") => cmd_resume(&args),
        Some("chaos") => cmd_chaos(&args),
        Some("fuzz") => cmd_fuzz(&args),
        Some("serve") => cmd_serve(&args),
        Some("soak") => cmd_soak(&args),
        Some("loadgen") => cmd_loadgen(&args),
        Some("audit") => cmd_audit(&args),
        Some("certify") => cmd_certify(&args),
        Some("print-ir") => with_workload(&args, cmd_print_ir),
        Some("run-ir") => cmd_run_ir(&args),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn with_workload(args: &[String], f: impl FnOnce(&str) -> CliResult) -> CliResult {
    let name = args.get(1).ok_or("missing workload name (try `needle list`)")?;
    f(name)
}

fn cmd_list() -> CliResult {
    println!("{:<22} {:>10}", "workload", "suite");
    for s in needle_workloads::specs() {
        println!("{:<22} {:>10}", s.name, s.suite.to_string());
    }
    Ok(())
}

fn load(name: &str) -> Result<needle_workloads::Workload, Box<dyn std::error::Error>> {
    needle_workloads::by_name(name)
        .ok_or_else(|| format!("unknown workload {name:?} (try `needle list`)").into())
}

fn cmd_analyze(name: &str) -> CliResult {
    let w = load(name)?;
    let cfg = NeedleConfig::default();
    let a = analyze(&w.module, w.func, &w.args, &w.memory, &cfg)?;
    let f = a.module.func(a.func);
    println!("workload {name} ({}), hot function @{}", w.suite, f.name);
    println!(
        "  {} blocks, {} instructions, {} conditional branches, {} loops",
        f.num_blocks(),
        f.num_insts(),
        f.num_cond_branches(),
        a.stats.backward_branches
    );
    println!(
        "  inlined {} call sites; {} distinct paths executed ({} possible)",
        a.inlined_calls,
        a.rank.executed_paths(),
        a.numbering.num_paths()
    );
    println!("\ntop paths by Pwt:");
    for (i, p) in a.rank.paths.iter().take(5).enumerate() {
        println!(
            "  #{i}: id {:>6}  freq {:>8}  ops {:>4}  branches {:>2}  coverage {:>5.1}%",
            p.id,
            p.freq,
            p.ops,
            p.branches,
            p.coverage(a.rank.fwt) * 100.0
        );
    }
    println!("\ntop braids:");
    for (i, b) in a.braids.iter().take(3).enumerate() {
        println!(
            "  #{i}: merges {:>3} paths  ins {:>5}  guards {}  IFs {}  coverage {:>5.1}%",
            b.num_paths(),
            b.region.num_insts(f),
            b.region.guard_branches(f).len(),
            b.region.internal_ifs(f).len(),
            b.coverage(a.rank.fwt) * 100.0
        );
    }
    let trees = build_path_trees(f, &a.rank, 64);
    if let Some(t) = trees.first() {
        println!(
            "\n(top path-tree would merge {} paths with {} live-out sets)",
            t.num_paths(),
            t.live_out_sets()
        );
    }
    println!(
        "\nbaselines: superblock {} blocks (feasible: {}, hottest: {}); \
         hyperblock {} blocks, {:.0}% cold ops",
        a.superblock.blocks.len(),
        a.superblock_feasible,
        a.superblock_hottest,
        a.hyperblock.blocks.len(),
        a.hyperblock_cold_fraction * 100.0
    );
    if let Ok(frame) = build_frame(f, &a.braids[0].region) {
        println!(
            "\ntop braid frame: {} ops ({} mem, {} fp), {} guards, {} φ cancelled, \
             undo log {}, live {} in / {} out",
            frame.num_ops(),
            frame.num_mem_ops(),
            frame.num_float_ops(),
            frame.guards.len(),
            frame.phis_cancelled,
            frame.undo_log_size,
            frame.live_ins.len(),
            frame.live_outs.len()
        );
    }
    Ok(())
}

fn cmd_offload(name: &str, args: &[String]) -> CliResult {
    let use_path = args.iter().any(|a| a == "--path");
    let kind = if args.iter().any(|a| a == "--oracle") {
        PredictorKind::Oracle
    } else {
        PredictorKind::History
    };
    let w = load(name)?;
    let cfg = NeedleConfig::default();
    let a = analyze(&w.module, w.func, &w.args, &w.memory, &cfg)?;
    let region = if use_path {
        PathRegion::from_rank(&a.rank, 0)
            .ok_or("no executed paths")?
            .region
    } else {
        a.braids.first().ok_or("no braids formed")?.region.clone()
    };
    let report = simulate_offload(&a.module, a.func, &w.args, &w.memory, &region, kind, &cfg)?;
    println!(
        "{name}: {} region, {:?} predictor",
        if use_path { "top-path" } else { "top-braid" },
        kind
    );
    println!("{report}");
    Ok(())
}

/// The value after `flag`, if the flag is given. A flag given without a
/// value — last on the line, or followed by another `--` flag — is an
/// error naming the flag, never a silent default.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// Apply the shared supervisor policy flags over `sup`.
fn sup_from_flags(
    args: &[String],
    mut sup: SupervisorConfig,
) -> Result<SupervisorConfig, Box<dyn std::error::Error>> {
    if let Some(s) = flag_value(args, "--workers")? {
        sup.workers = s.parse()?;
    }
    if let Some(s) = flag_value(args, "--deadline-ms")? {
        sup.deadline_ms = s.parse()?;
    }
    if let Some(s) = flag_value(args, "--retries")? {
        sup.max_attempts = s.parse()?;
    }
    Ok(sup)
}

/// Parse the shared journal/resume flags.
fn opts_from_flags(args: &[String]) -> Result<CampaignOptions, String> {
    Ok(CampaignOptions {
        journal: flag_value(args, "--journal")?.map(std::path::PathBuf::from),
        resume: args.iter().any(|a| a == "--resume"),
        kill_after_records: None,
    })
}

fn cmd_suite(args: &[String]) -> CliResult {
    let path = args.iter().any(|a| a == "--path");
    let oracle = args.iter().any(|a| a == "--oracle");
    let names: Vec<String> = match flag_value(args, "--workloads")? {
        Some(s) => s.split(',').map(str::to_string).collect(),
        None => needle_workloads::specs().iter().map(|s| s.name.to_string()).collect(),
    };
    let mut units: Vec<CampaignUnit> = names
        .into_iter()
        .map(|w| CampaignUnit {
            workload: w,
            kind: UnitKind::Offload { path, oracle },
        })
        .collect();
    if args.iter().any(|a| a == "--pathological") {
        units.push(CampaignUnit {
            workload: "999.panic".into(),
            kind: UnitKind::PanicProbe,
        });
        units.push(CampaignUnit {
            workload: "999.loop".into(),
            kind: UnitKind::Offload { path, oracle },
        });
    }
    let report = run_supervised(
        units,
        &NeedleConfig::default(),
        &sup_from_flags(args, SupervisorConfig::default())?,
        &opts_from_flags(args)?,
    )?;
    println!("{report}");
    Ok(())
}

fn cmd_resume(args: &[String]) -> CliResult {
    let journal = flag_value(args, "--journal")?
        .ok_or("resume needs --journal PATH")?
        .to_string();
    // Flag overrides beat the journaled policy.
    let (_, journaled) = peek_journal(std::path::Path::new(&journal))?;
    let sup = sup_from_flags(args, journaled)?;
    let opts = CampaignOptions {
        journal: Some(std::path::PathBuf::from(journal)),
        resume: true,
        kill_after_records: None,
    };
    let report = run_supervised(vec![], &NeedleConfig::default(), &sup, &opts)?;
    println!("{report}");
    Ok(())
}

/// Is the aggregated chaos campaign clean? Mirrors
/// `ChaosReport::is_clean`, unit by unit.
fn chaos_units_clean(report: &CampaignReport) -> bool {
    report.units.iter().all(|u| {
        u.outcome.succeeded()
            && match &u.payload {
                Some(UnitPayload::Chaos {
                    expected_corruptions,
                    detected_corruptions,
                    unexpected_divergences,
                    errors,
                    ..
                }) => {
                    detected_corruptions == expected_corruptions
                        && *unexpected_divergences == 0
                        && *errors == 0
                }
                _ => false,
            }
    })
}

/// `--seed` accepts decimal or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Result<u64, Box<dyn std::error::Error>> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => Ok(u64::from_str_radix(hex, 16)?),
        None => Ok(s.parse()?),
    }
}

fn cmd_fuzz(args: &[String]) -> CliResult {
    let seed = match flag_value(args, "--seed")? {
        Some(s) => parse_seed(s)?,
        None => 0,
    };
    let iters: u64 = match flag_value(args, "--iters")? {
        Some(s) => s.parse()?,
        None => 1000,
    };
    let minimize = args.iter().any(|a| a == "--minimize");
    let repro_dir = flag_value(args, "--repro-dir")?.unwrap_or("tests/repros");

    // Shard into supervised units; each shard keeps its *global* start
    // index, so the case stream is identical however the campaign is
    // sharded, resumed, or degraded.
    const SHARD: u64 = 500;
    let mut units = Vec::new();
    let mut start = 0;
    while start < iters {
        let n = SHARD.min(iters - start);
        units.push(CampaignUnit {
            workload: format!("fuzz@{start}"),
            kind: UnitKind::Fuzz {
                seed,
                start,
                iters: n,
                minimize,
                repro_dir: if minimize {
                    Some(repro_dir.to_string())
                } else {
                    None
                },
            },
        });
        start += n;
    }
    let report = run_supervised(
        units,
        &NeedleConfig::default(),
        &sup_from_flags(args, SupervisorConfig::default())?,
        &opts_from_flags(args)?,
    )?;
    println!("{report}");

    let mut failures = 0u64;
    let mut broken_units = 0u64;
    for u in &report.units {
        if !u.outcome.succeeded() {
            broken_units += 1;
            continue;
        }
        if let Some(UnitPayload::Fuzz {
            failures: f,
            signatures,
            ..
        }) = &u.payload
        {
            if *f > 0 {
                failures += f;
                println!("unit {}: {f} failure(s) [{signatures}]", u.unit.workload);
            }
        }
    }
    if failures > 0 || broken_units > 0 {
        return Err(format!(
            "fuzzing found {failures} divergence(s), {broken_units} unit(s) failed to run{}",
            if minimize {
                format!("; minimized repros under {repro_dir}")
            } else {
                "; re-run with --minimize for shrunk repros".to_string()
            }
        )
        .into());
    }
    println!("fuzz campaign clean: {iters} iterations (seed {seed:#x}), no divergence");
    Ok(())
}

fn cmd_chaos(args: &[String]) -> CliResult {
    let mut chaos = ChaosConfig::default();
    if let Some(s) = flag_value(args, "--seed")? {
        chaos.seed = s.parse()?;
    }
    if let Some(s) = flag_value(args, "--faults")? {
        chaos.faults = s.parse()?;
    }
    if let Some(s) = flag_value(args, "--workloads")? {
        chaos.workloads = s.split(',').map(str::to_string).collect();
    }
    chaos.include_corruption = args.iter().any(|a| a == "--corruption");
    let cfg = NeedleConfig::default();

    // One supervised unit per workload; the fault budget splits across
    // them so `--faults` keeps its campaign-wide meaning.
    if chaos.workloads.is_empty() {
        return Err("no workloads given".into());
    }
    let per_unit_faults = (chaos.faults / chaos.workloads.len() as u64).max(1);
    let units: Vec<CampaignUnit> = chaos
        .workloads
        .iter()
        .map(|w| CampaignUnit {
            workload: w.clone(),
            kind: UnitKind::Chaos {
                seed: chaos.seed,
                faults: per_unit_faults,
                include_corruption: chaos.include_corruption,
                fault_rate: chaos.fault_rate,
            },
        })
        .collect();
    let report = run_supervised(
        units,
        &cfg,
        &sup_from_flags(args, SupervisorConfig::default())?,
        &opts_from_flags(args)?,
    )?;
    println!("{report}");
    let mut failed = !chaos_units_clean(&report);

    if !args.iter().any(|a| a == "--no-storm") {
        let target = chaos
            .workloads
            .first()
            .ok_or("no workloads given")?
            .clone();
        let mut storm_cfg = cfg;
        storm_cfg.storm.threshold = 4;
        storm_cfg.storm.cooldown = 8;
        storm_cfg.storm.retry_budget = 2;
        println!("\nabort-storm scenario on {target} (every invocation rolls back):");
        let r = storm_scenario(&target, chaos.seed, &storm_cfg)?;
        println!("{r}");
        if r.storms == 0 || r.fallbacks == 0 {
            println!("storm FAILED to trip blacklisting");
            failed = true;
        } else {
            println!(
                "storm tripped {} time(s); {} opportunities degraded to host-only",
                r.storms, r.fallbacks
            );
        }
    }
    if failed {
        return Err("chaos campaign failed".into());
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let mut cfg = ServeConfig::default();
    if let Some(s) = flag_value(args, "--workers")? {
        cfg.workers = s.parse()?;
    }
    if args.iter().any(|a| a == "--adaptive") {
        let mut g = GovernorConfig::default();
        if let Some(s) = flag_value(args, "--verify-policy")? {
            g.verify = s.parse::<VerifyPolicy>()?;
        }
        cfg.adaptive = Some(g);
    }
    let requests: u64 = match flag_value(args, "--requests")? {
        Some(s) => s.parse()?,
        None => 64,
    };
    let shards = flag_value(args, "--shards")?.map(str::parse).transpose()?;
    let svc = ServiceHandle::start(cfg, shards, None)?;
    let (tx, rx) = std::sync::mpsc::channel();
    let mut accepted = 0u64;
    let mut answered = 0u64;
    for id in 0..requests {
        // A small representative mix: plain completions, a fuel-starved
        // request, a page-capped request, and a deadline-storm victim.
        let mut req = match id % 8 {
            0..=4 => Request::new(id, "svc.sum"),
            5 => {
                let mut r = Request::new(id, "svc.sum");
                r.fuel = 16;
                r
            }
            6 => {
                let mut r = Request::new(id, "svc.mem");
                r.max_pages = 3;
                r
            }
            _ => Request::new(id, "999.loop"),
        };
        if req.workload == "999.loop" {
            req.deadline_ms = 10;
            req.fuel = u64::MAX / 4;
        }
        if svc.submit(req, &tx).is_ok() {
            accepted += 1;
        }
        // Drain as we go so the bounded queue never becomes the story.
        while rx.try_recv().is_ok() {
            answered += 1;
        }
    }
    // Wait out the in-flight tail before draining, so the demo shows
    // executions rather than a shutdown full of shed requests.
    while answered < accepted {
        match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(_) => answered += 1,
            Err(_) => break,
        }
    }
    // On the router the report is its counters and per-shard rows.
    let (m, sharded) = svc.shutdown();
    let (report, balanced) = match &sharded {
        Some(s) => (s.to_string(), s.invariant_holds()),
        None => (m.to_string(), m.invariant_holds()),
    };
    println!("served {accepted} accepted of {requests} offered\n{report}");
    if !balanced {
        return Err("exactly-once invariant violated".into());
    }
    Ok(())
}

/// The `soak` subcommand: one driver, the scenario picked by flag
/// (`--shard-chaos`, then `--adaptive`, else the mixed load, with chaos
/// unless `--no-chaos`).
fn cmd_soak(args: &[String]) -> CliResult {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let scenario = if has("--shard-chaos") {
        SoakScenario::ShardChaos
    } else if has("--adaptive") {
        SoakScenario::Adaptive(adaptive_governor())
    } else {
        SoakScenario::Mixed {
            chaos: !has("--no-chaos"),
        }
    };
    let mut cfg = SoakConfig::new(scenario);
    if let Some(s) = flag_value(args, "--seed")? {
        cfg.seed = parse_seed(s)?;
    }
    if let Some(s) = flag_value(args, "--requests")? {
        cfg.requests = s.parse()?;
    }
    if let Some(s) = flag_value(args, "--shards")? {
        cfg.shards = s.parse()?;
    }
    if let Some(s) = flag_value(args, "--workers")? {
        cfg.serve.workers = s.parse()?;
    }
    if let Some(s) = flag_value(args, "--ledger")? {
        cfg.ledger = Some(std::path::PathBuf::from(s));
    }
    if let SoakScenario::Adaptive(g) = &mut cfg.scenario {
        if let Some(s) = flag_value(args, "--verify-policy")? {
            g.verify = s.parse::<VerifyPolicy>()?;
        }
        if let Some(s) = flag_value(args, "--inject-miscompile")? {
            g.inject_miscompile_at_epoch = Some(s.parse()?);
            if g.verify == VerifyPolicy::Differential {
                return Err("--inject-miscompile needs --verify-policy require-proof \
                     (the differential probe alone may publish the miscompiled frame)"
                    .into());
            }
        }
    }
    let report = run_soak(&cfg)?;
    println!("{report}");
    if let Some(path) = flag_value(args, "--out")? {
        needle::report::write_report(std::path::Path::new(path), &report.to_json())?;
        println!("report written to {path}");
    }
    if !report.is_clean() {
        return Err(format!(
            "{} soak violated {} invariant(s)",
            report.scenario,
            report.violations.len()
        )
        .into());
    }
    Ok(())
}

/// The `loadgen` subcommand: deterministic open-loop arrival curves
/// over the virtual-time simulation of the hardened serving stack, with
/// retry-storm chaos and the overload gates behind --check.
fn cmd_loadgen(args: &[String]) -> CliResult {
    use needle::journal::Json;
    use needle::{check_loadgen, run_loadgen, LoadgenConfig, Scenario};

    let mut cfg = LoadgenConfig::default();
    if let Some(s) = flag_value(args, "--seed")? {
        cfg.seed = parse_seed(s)?;
    }
    if let Some(s) = flag_value(args, "--shards")? {
        cfg.shards = s.parse()?;
    }
    if let Some(s) = flag_value(args, "--workers")? {
        cfg.workers_per_shard = s.parse()?;
    }
    if let Some(s) = flag_value(args, "--queue-depth")? {
        cfg.queue_depth = s.parse()?;
    }
    if args.iter().any(|a| a == "--baseline") {
        cfg.hardened = false;
    }
    let scenarios: Vec<Scenario> = match flag_value(args, "--scenario")? {
        None | Some("all") => Scenario::all().to_vec(),
        Some(s) => vec![s.parse()?],
    };

    let mut payloads = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for scenario in &scenarios {
        cfg.scenario = *scenario;
        let report = run_loadgen(&cfg);
        print!("{report}");
        let fails = check_loadgen(&report);
        if fails.is_empty() {
            println!("loadgen {scenario}: CLEAN");
        } else {
            for f in &fails {
                println!("loadgen {scenario}: GATE FAILED: {f}");
                failures.push(format!("{scenario}: {f}"));
            }
        }
        println!();
        payloads.push(report.data_json());
    }

    if let Some(path) = flag_value(args, "--out")? {
        let data = Json::Obj(vec![("scenarios".into(), Json::Arr(payloads))]);
        let env = needle::report::envelope("loadgen", cfg.seed, &failures, data);
        needle::report::write_report(std::path::Path::new(path), &env)?;
        println!("report written to {path}");
    }
    println!(
        "loadgen verdict: {}",
        if failures.is_empty() { "CLEAN" } else { "GATES FAILED" }
    );
    if args.iter().any(|a| a == "--check") && !failures.is_empty() {
        return Err(format!("loadgen failed {} overload gate(s)", failures.len()).into());
    }
    Ok(())
}

/// The `audit <journal>` subcommand: offline exactly-once replay of a
/// durable dedup journal, independent of the service that wrote it.
fn cmd_audit(args: &[String]) -> CliResult {
    let path = args
        .get(1)
        .filter(|p| !p.starts_with('-'))
        .ok_or("audit needs a journal path (written via `soak --shard-chaos --ledger PATH`)")?;
    let audit = audit_ledger(std::path::Path::new(path))?;
    println!("{audit}");
    if !audit.is_clean() {
        return Err(format!(
            "ledger audit found {} violation(s)",
            audit.violations.len()
        )
        .into());
    }
    Ok(())
}

/// The `certify` subcommand: per-frame symbolic equivalence verdicts
/// for a workload's hottest paths, with an optional durable verdict
/// cache and a JSON artifact for CI.
fn cmd_certify(args: &[String]) -> CliResult {
    let target = args
        .get(1)
        .filter(|p| !p.starts_with('-'))
        .ok_or("certify needs a workload name or `all` (try `needle list`)")?;
    let top: usize = match flag_value(args, "--top")? {
        Some(s) => s.parse()?,
        None => 3,
    };
    let cert_cfg = needle_frames::CertConfig::default();
    let mut cache = match flag_value(args, "--cache")? {
        Some(p) => Some(VerdictJournal::open(std::path::Path::new(p))?),
        None => None,
    };
    let names: Vec<String> = if target == "all" {
        needle_workloads::specs()
            .iter()
            .map(|s| s.name.to_string())
            .collect()
    } else {
        vec![target.clone()]
    };

    let mut total = CertStats::default();
    let mut reports = Vec::new();
    for name in &names {
        let report = certify_workload(name, top, &cert_cfg, cache.as_mut())?;
        println!("workload {name}: {} frame(s)", report.frames.len());
        println!(
            "  {:>8} {:>7} {:>5} {:<12} {:>6} {:>9} {:>6}/{:<6} {:>8} {:>9}",
            "path", "blocks", "ops", "verdict", "cache", "solve µs", "oblig", "syn", "clauses", "conflicts"
        );
        for r in &report.frames {
            println!(
                "  {:>8} {:>7} {:>5} {:<12} {:>6} {:>9} {:>6}/{:<6} {:>8} {:>9}{}",
                r.path_id,
                r.blocks,
                r.ops,
                r.verdict,
                if r.cached { "hit" } else { "-" },
                r.solve_us,
                r.obligations,
                r.discharged,
                r.sat_clauses,
                r.conflicts,
                if r.why.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", r.why)
                }
            );
        }
        total.merge_from(&report.stats);
        reports.push(report);
    }
    println!("\n{total}");
    if let Some(path) = flag_value(args, "--json")? {
        use needle::journal::Json;
        let violations: Vec<String> = reports
            .iter()
            .flat_map(|r| {
                r.frames
                    .iter()
                    .filter(|f| f.verdict == "refuted")
                    .map(|f| format!("{}: path {} refuted", r.workload, f.path_id))
            })
            .collect();
        let data = Json::Obj(vec![(
            "workloads".into(),
            Json::Arr(reports.iter().map(|r| r.to_json()).collect()),
        )]);
        let env = needle::report::envelope("certify", 0, &violations, data);
        needle::report::write_report(std::path::Path::new(path), &env)?;
        println!("report written to {path}");
    }
    let refuted: usize = reports.iter().map(|r| r.refuted()).sum();
    if refuted > 0 {
        return Err(format!("{refuted} frame(s) refuted — miscompile detected").into());
    }
    Ok(())
}

fn cmd_print_ir(name: &str) -> CliResult {
    let w = load(name)?;
    print!("{}", module_to_string(&w.module));
    Ok(())
}

fn cmd_run_ir(args: &[String]) -> CliResult {
    let path = args.get(1).ok_or("missing IR file path")?;
    let text = std::fs::read_to_string(path)?;
    let module = needle_ir::parse::parse_module(&text)?;
    if module.funcs.is_empty() {
        return Err(format!("{path}: no functions in module").into());
    }
    needle_ir::verify::verify_module(&module).map_err(|(f, e)| format!("{f:?}: {e}"))?;
    let func = needle_ir::FuncId(0);
    let call_args: Vec<Constant> = args[2..]
        .iter()
        .map(|a| a.parse::<i64>().map(Constant::Int))
        .collect::<Result<_, _>>()?;
    let arity = module.func(func).params.len();
    if call_args.len() < arity {
        return Err(format!(
            "{} expects {arity} argument(s), got {}",
            module.func(func).name,
            call_args.len()
        )
        .into());
    }
    let mut mem = Memory::new();
    let out = Interp::new(&module).run(func, &call_args, &mut mem, &mut NullSink)?;
    println!("{}", function_to_string(module.func(func)));
    match out {
        Some(v) => println!("=> {v:?}"),
        None => println!("=> (void)"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::flag_value;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn value_flag_without_a_value_is_an_error_naming_the_flag() {
        assert_eq!(flag_value(&args("soak --seed 7"), "--seed"), Ok(Some("7")));
        assert_eq!(flag_value(&args("soak --requests 5"), "--seed"), Ok(None));
        let missing = Err("--seed needs a value".to_string());
        assert_eq!(flag_value(&args("soak --seed"), "--seed"), missing);
        assert_eq!(
            flag_value(&args("soak --seed --requests 5"), "--seed"),
            missing
        );
    }
}
