//! The `pipeline` workload: each suite program through the paper's offline
//! flow as the CLI runs it — `needle analyze`, `needle certify` on the
//! top-3 executed path frames, then `needle offload` of the top Braid.

use std::collections::BTreeMap;
use std::time::Instant;

use needle::{analyze, simulate_offload, Analysis, NeedleConfig, OffloadReport, PredictorKind};
use needle_cgra::CgraCost;
use needle_frames::{
    build_frame, certify_frame, frame_fingerprint, CertConfig, CertVerdict, Frame,
};
use needle_host::HostSim;
use needle_ir::interp::{Interp, NullSink, TeeSink};
use needle_ir::{FuncId, Module};
use needle_profile::profiler::{EdgeProfiler, PathProfiler};
use needle_regions::OffloadRegion;
use needle_workloads::Workload;

use crate::calib::{self, Calibrator};
use crate::stats::{geomean, median, percentile, sorted};
use crate::trace::{totals_by_name, Trace};
use crate::{engine_matches_walker, shuffled, Metric, Outcome, Plan};

/// Nominal seconds per suite pass, sizing a run from `--seconds`.
const PASS_SECONDS: f64 = 3.0;
/// Four passes are 116 units, so 11 lie beyond the p90.
const MIN_PASSES: usize = 4;
/// Path frames certified per program, as `needle certify` does.
const TOP_PATH_FRAMES: usize = 3;
/// Repeats of each attribution probe (median reported).
const PROBE_REPEATS: usize = 3;

/// Everything a unit must reproduce on every pass of its program.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    baseline_cycles: u64,
    offload_cycles: u64,
    verdicts: Vec<&'static str>,
    fingerprints: Vec<u64>,
}

/// Layer counts of one unit (identical on every pass).
#[derive(Debug, Clone, Default)]
struct Counts {
    paths_executed: u64,
    braids: u64,
    top_braid_paths: u64,
    frame_ops: u64,
    proved: u64,
    refuted: u64,
    timeout: u64,
    unsupported: u64,
    sat_conflicts: u64,
    invocations: u64,
    commits: u64,
    aborts: u64,
    declined: u64,
    fallbacks: u64,
    precision: f64,
}

struct Unit {
    id: u64,
    program: usize,
    traced: bool,
    /// Wall time of the unit.
    secs: f64,
    /// The same on the reference clock (`calib`).
    ref_secs: f64,
    failure: Option<String>,
    signature: Option<Signature>,
    counts: Counts,
}

/// What the attribution probes keep from a program's first unit.
struct ProbeInput {
    module: Module,
    func: FuncId,
    braid: OffloadRegion,
}

pub fn run(plan: &Plan, origin: Instant) -> Result<Outcome, String> {
    let names = needle_workloads::names();
    let mut tr = Trace::new(plan.traced, origin);
    let mut off = Trace::new(false, origin);

    let passes = MIN_PASSES.max((plan.seconds as f64 / PASS_SECONDS).round() as usize);
    // Set-up: generate the 29 inputs, timed. One generation takes about a
    // millisecond, and a shared VM's speed can switch between two levels
    // within a second, so `setup_s` is not one generation: the inputs are
    // generated again after every unit, each pass contributes the mean of
    // its generations on the reference clock, and the median over passes
    // is reported.
    let generate = |tr: &mut Trace, id: u64| -> Result<(Vec<Workload>, f64), String> {
        let t = Instant::now();
        let programs = names
            .iter()
            .map(|name| {
                let h = tr.open("workloads.by_name", id);
                let w = needle_workloads::by_name(name);
                tr.close(h);
                w.ok_or_else(|| format!("suite program {name} does not generate"))
            })
            .collect::<Result<_, _>>()?;
        Ok((programs, t.elapsed().as_secs_f64()))
    };
    let (mut programs, _) = generate(&mut tr, 0)?;
    // Output check, outside the timed window: the flat engine agrees with
    // the reference walker on every program.
    let broken: Vec<Option<String>> = programs
        .iter()
        .map(|w| engine_matches_walker(&w.module, w.func, &w.args, &w.memory).err())
        .collect();

    let mut rng = plan.rng();
    let cfg = NeedleConfig::default();
    let cert_cfg = CertConfig::default();
    let mut units: Vec<Unit> = Vec::new();
    let mut probe_inputs: Vec<Option<ProbeInput>> = (0..programs.len()).map(|_| None).collect();
    let mut pass_rates = Vec::new();
    let mut wall_rates = Vec::new();
    let mut generate_s = Vec::new();
    let mut pairs = Vec::new();
    // The kernel runs between units, outside every timed stretch and span;
    // each unit and the generation after it are scaled by the readings on
    // either side of them.
    let mut cal = Calibrator::new();
    let mut readings = vec![cal.measure()];
    for _ in 0..passes {
        let order = shuffled(programs.len(), &mut rng);
        // The traced run repeats each pass traced right after it runs
        // untraced, so machine drift cancels in the overhead ratio.
        let sides: &[bool] = if plan.traced {
            &[false, true]
        } else {
            &[false]
        };
        let mut side_secs = Vec::new();
        for &traced in sides {
            let t = if traced { &mut tr } else { &mut off };
            let (mut secs, mut wall_secs, mut gen_secs) = (0.0, 0.0, 0.0);
            for &p in &order {
                let id = units.len() as u64;
                let mut unit = if let Some(why) = &broken[p] {
                    Unit::failed(id, p, why.clone())
                } else {
                    run_unit(
                        &programs[p],
                        p,
                        id,
                        &cfg,
                        &cert_cfg,
                        t,
                        &mut probe_inputs[p],
                    )
                };
                unit.traced = traced;
                let (fresh, s) = generate(t, id)?;
                programs = fresh;
                readings.push(cal.measure());
                let k = calib::scale(readings[readings.len() - 2], readings[readings.len() - 1]);
                unit.ref_secs = unit.secs * k;
                secs += unit.ref_secs;
                wall_secs += unit.secs;
                gen_secs += s * k;
                units.push(unit);
            }
            side_secs.push(secs);
            if !traced {
                generate_s.push(gen_secs / order.len() as f64);
                wall_rates.push(order.len() as f64 / wall_secs);
            }
        }
        pass_rates.push(programs.len() as f64 / side_secs[0]);
        if plan.traced {
            pairs.push(side_secs[0] / side_secs[1]);
        }
    }

    // Output check: every pass of a program reproduces its first.
    let mut firsts: Vec<Option<Signature>> = vec![None; programs.len()];
    for u in &mut units {
        let Some(sig) = &u.signature else { continue };
        match &firsts[u.program] {
            None => firsts[u.program] = Some(sig.clone()),
            Some(first) if first != sig => {
                u.failure.get_or_insert_with(|| {
                    "cycles, verdicts or frame fingerprints differ between passes".into()
                });
            }
            Some(_) => {}
        }
    }

    let measured: Vec<&Unit> = units.iter().filter(|u| u.traced == plan.traced).collect();
    let failed = measured.iter().filter(|u| u.failure.is_some()).count();
    for u in measured.iter().filter(|u| u.failure.is_some()) {
        println!(
            "FAILED unit {}: {}",
            names[u.program],
            u.failure.as_deref().unwrap_or_default()
        );
    }
    print_rows(&names, &measured, plan.traced.then_some(&tr));

    let metrics = if plan.traced {
        let probes = run_probes(&programs, &probe_inputs, &cfg);
        layer_metrics(&tr, &measured, &probes, passes, &pairs)
    } else {
        let clock = Clock {
            wall_rate: median(&wall_rates),
            kernel_s: median(&readings),
        };
        end_to_end(&generate_s, &pass_rates, &clock, &measured, &firsts)?
    };
    if plan.traced {
        tr.write_csv(&plan.trace_path())
            .map_err(|e| format!("cannot write the span file: {e}"))?;
    }
    Ok(Outcome {
        attempted: measured.len() as u64,
        failed: failed as u64,
        metrics,
    })
}

impl Unit {
    fn failed(id: u64, program: usize, why: String) -> Unit {
        Unit {
            id,
            program,
            traced: false,
            secs: 0.0,
            ref_secs: 0.0,
            failure: Some(why),
            signature: None,
            counts: Counts::default(),
        }
    }
}

/// One program through analyze → certify top-3 path frames → offload.
fn run_unit(
    w: &Workload,
    program: usize,
    id: u64,
    cfg: &NeedleConfig,
    cert_cfg: &CertConfig,
    tr: &mut Trace,
    probe_input: &mut Option<ProbeInput>,
) -> Unit {
    let t0 = Instant::now();
    let unit_span = tr.open("unit", id);
    let result = unit_body(w, id, cfg, cert_cfg, tr);
    tr.close(unit_span);
    let secs = t0.elapsed().as_secs_f64();
    let (a, frames, verdicts, report) = match result {
        Ok(r) => r,
        Err(why) => {
            let mut u = Unit::failed(id, program, why);
            u.secs = secs;
            return u;
        }
    };

    // Checks and bookkeeping, after the unit's clock stopped.
    let mut failure = None;
    let mut counts = Counts {
        paths_executed: a.rank.executed_paths() as u64,
        braids: a.braids.len() as u64,
        top_braid_paths: a.braids[0].num_paths() as u64,
        frame_ops: frames.iter().map(|f| f.num_ops() as u64).sum(),
        invocations: report.invocations,
        commits: report.commits,
        aborts: report.aborts,
        declined: report.declined,
        fallbacks: report.fallbacks,
        precision: report.precision,
        ..Counts::default()
    };
    for (v, conflicts) in &verdicts {
        counts.sat_conflicts += conflicts;
        match v {
            CertVerdict::Proved => counts.proved += 1,
            CertVerdict::Refuted(_) => counts.refuted += 1,
            CertVerdict::Timeout { .. } => counts.timeout += 1,
            CertVerdict::Unsupported { .. } => counts.unsupported += 1,
        }
    }
    if counts.refuted > 0 {
        failure = Some(format!("{} frame(s) refuted", counts.refuted));
    }
    let accounted = report.commits + report.aborts + report.declined + report.fallbacks;
    if report.invocations != accounted {
        failure = Some(format!(
            "offload invocations {} != commits+aborts+declined+fallbacks {accounted}",
            report.invocations
        ));
    }
    let signature = Signature {
        baseline_cycles: report.baseline.cycles,
        offload_cycles: report.offload.cycles,
        verdicts: verdicts.iter().map(|(v, _)| v.tag()).collect(),
        fingerprints: frames.iter().map(frame_fingerprint).collect(),
    };
    if probe_input.is_none() {
        *probe_input = Some(ProbeInput {
            braid: a.braids[0].region.clone(),
            module: a.module,
            func: a.func,
        });
    }
    Unit {
        id,
        program,
        traced: false,
        secs,
        ref_secs: secs,
        failure,
        signature: Some(signature),
        counts,
    }
}

type UnitParts = (Analysis, Vec<Frame>, Vec<(CertVerdict, u64)>, OffloadReport);

fn unit_body(
    w: &Workload,
    id: u64,
    cfg: &NeedleConfig,
    cert_cfg: &CertConfig,
    tr: &mut Trace,
) -> Result<UnitParts, String> {
    let h = tr.open("analysis.analyze", id);
    let a = analyze(&w.module, w.func, &w.args, &w.memory, cfg);
    tr.close(h);
    let a = a.map_err(|e| format!("analyze: {e}"))?;
    let func = a.module.func(a.func);

    // The frames `needle certify` picks: the top executed BL paths.
    let mut frames = Vec::new();
    let mut verdicts = Vec::new();
    for p in a
        .rank
        .paths
        .iter()
        .filter(|p| p.freq > 0)
        .take(TOP_PATH_FRAMES)
    {
        let Ok(blocks) = a.numbering.decode(p.id) else {
            continue;
        };
        let coverage = p.freq as f64 / a.path_profile.total().max(1) as f64;
        let region = OffloadRegion::from_path(&blocks, p.freq, coverage);
        if region.validate(func).is_err() {
            continue;
        }
        let h = tr.open("frames.build_frame", id);
        let frame = build_frame(func, &region);
        tr.close(h);
        let frame = frame.map_err(|e| format!("build_frame of path {}: {e:?}", p.id))?;
        let h = tr.open("frames.certify_frame", id);
        let cert = certify_frame(func, &frame, cert_cfg);
        tr.close(h);
        let cert = cert.map_err(|e| format!("certify_frame of path {}: {e:?}", p.id))?;
        verdicts.push((cert.verdict, cert.stats.conflicts));
        frames.push(frame);
    }

    // `needle offload <w>`: the top Braid under the history predictor.
    let braid = &a.braids.first().ok_or("no braid formed")?.region;
    let h = tr.open("offload.simulate_offload", id);
    let report = simulate_offload(
        &a.module,
        a.func,
        &w.args,
        &w.memory,
        braid,
        PredictorKind::History,
        cfg,
    );
    tr.close(h);
    let report = report.map_err(|e| format!("simulate_offload: {e}"))?;
    Ok((a, frames, verdicts, report))
}

/// Per-suite-pass attribution from warm standalone runs after the timed
/// units: each sink the pipeline attaches, on the module it profiles.
#[derive(Default)]
struct Probes {
    steps: u64,
    null_ns: f64,
    profiled_ns: f64,
    host_ns: f64,
    cycles_baseline: u64,
    braid_build_ns: f64,
    cgra_ns: f64,
}

/// Median wall time of `PROBE_REPEATS` calls, with the last result.
fn time_ns<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(PROBE_REPEATS);
    let mut out = None;
    for _ in 0..PROBE_REPEATS {
        let t = Instant::now();
        out = Some(f());
        times.push(t.elapsed().as_nanos() as f64);
    }
    (median(&times), out.expect("at least one repeat"))
}

fn run_probes(programs: &[Workload], inputs: &[Option<ProbeInput>], cfg: &NeedleConfig) -> Probes {
    let mut p = Probes::default();
    for (w, input) in programs.iter().zip(inputs) {
        let Some(ProbeInput {
            module,
            func,
            braid,
        }) = input
        else {
            continue;
        };
        let (func, args) = (*func, &w.args);
        let interp = Interp::new(module).with_max_steps(cfg.analysis.max_steps);
        // Warm the decode cache; every probe below runs decoded code.
        let _ = interp.run_with(func, args, &mut w.memory.clone(), &mut NullSink);
        let (ns, _) = time_ns(|| interp.run_with(func, args, &mut w.memory.clone(), &mut NullSink));
        p.null_ns += ns;
        p.steps += interp.steps();
        let (ns, _) = time_ns(|| {
            let mut paths = PathProfiler::new(module).with_trace();
            let mut edges = EdgeProfiler::new();
            let mut tee = TeeSink(&mut paths, &mut edges);
            interp.run_with(func, args, &mut w.memory.clone(), &mut tee)
        });
        p.profiled_ns += ns;
        let (ns, cycles) = time_ns(|| {
            let mut host = HostSim::new(module, cfg.host.clone());
            let _ = interp.run_with(func, args, &mut w.memory.clone(), &mut host);
            host.finish().cycles
        });
        p.host_ns += ns;
        p.cycles_baseline += cycles;
        let (ns, frame) = time_ns(|| build_frame(module.func(func), braid));
        p.braid_build_ns += ns;
        if let Ok(frame) = frame {
            p.cgra_ns += time_ns(|| CgraCost::new(&cfg.cgra, &frame)).0;
        }
    }
    p
}

/// What the run saw of the machine, printed beside the reference-clock
/// metrics.
struct Clock {
    /// Programs per wall-clock second, median over passes.
    wall_rate: f64,
    /// Median kernel time.
    kernel_s: f64,
}

fn end_to_end(
    generate_s: &[f64],
    pass_rates: &[f64],
    clock: &Clock,
    units: &[&Unit],
    firsts: &[Option<Signature>],
) -> Result<Vec<Metric>, String> {
    let latencies: Vec<f64> = units
        .iter()
        .map(|u| match u.failure {
            None => u.ref_secs * 1e6,
            Some(_) => f64::INFINITY,
        })
        .collect();
    let p90 = percentile(&latencies, 0.90).ok_or("too few units for a p90")?;
    let speedups: Vec<f64> = firsts
        .iter()
        .flatten()
        .map(|s| s.baseline_cycles as f64 / s.offload_cycles.max(1) as f64)
        .collect();
    let per_pass = firsts.iter().flatten();
    let (decided, certified) = per_pass.fold((0, 0), |(d, c), s| {
        let n = s.verdicts.len();
        let dec = s
            .verdicts
            .iter()
            .filter(|v| matches!(**v, "proved" | "refuted"))
            .count();
        (d + dec, c + n)
    });
    let ok = units.iter().filter(|u| u.failure.is_none()).count();
    Ok(vec![
        Metric::new("setup_s", median(generate_s), generate_s.len()).note(
            "generation of the 29 programs, median over passes of each pass's mean; \
             reference clock",
        ),
        Metric::new("ops_per_s", median(pass_rates), pass_rates.len()).note(&format!(
            "programs per reference second, median over suite passes; wall clock {:.3}/s, \
             kernel {:.3} ms against {:.3} ms nominal",
            clock.wall_rate,
            clock.kernel_s * 1e3,
            calib::NOMINAL_S * 1e3
        )),
        Metric::new(
            "latency_p50_us",
            crate::stats::quantile(&sorted(&latencies), 0.5),
            latencies.len(),
        )
        .note("per unit, reference clock"),
        Metric::new("latency_tail_us", p90.value, p90.samples).note(&format!(
            "p90, {} samples beyond, reference clock",
            p90.beyond
        )),
        Metric::new("ok_share", ok as f64 / units.len() as f64, units.len()),
        Metric::new("peak_rss_mb", crate::stats::peak_rss_mb()?, 1),
        Metric::new(
            "sim_speedup",
            if speedups.is_empty() {
                0.0
            } else {
                geomean(&speedups)
            },
            speedups.len(),
        )
        .note("geomean of baseline/offload cycles (Figure 9, top Braid)"),
        Metric::new(
            "decided_share",
            decided as f64 / certified.max(1) as f64,
            certified,
        )
        .note(&format!(
            "{decided}/{certified} path frames proved or refuted"
        )),
    ])
}

fn layer_metrics(
    tr: &Trace,
    units: &[&Unit],
    probes: &Probes,
    passes: usize,
    pairs: &[f64],
) -> Vec<Metric> {
    let totals = totals_by_name(tr.spans());
    let ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.1 as f64 / 1e6 / passes as f64)
    };
    let generations = 1 + units.len();
    let gen_ms = totals
        .get("workloads.by_name")
        .map_or(0.0, |t| t.1 as f64 / 1e6)
        / generations as f64;
    let per_pass = |f: fn(&Counts) -> u64| {
        units.iter().map(|u| f(&u.counts)).sum::<u64>() as f64 / passes as f64
    };
    let steps = probes.steps.max(1) as f64;
    let unit = totals.get("unit").copied().unwrap_or((0, 0));
    let analyze_ms = ms("analysis.analyze");
    let simulate_ms = ms("offload.simulate_offload");
    let precision: Vec<f64> = units
        .iter()
        .filter(|u| u.signature.is_some())
        .map(|u| u.counts.precision)
        .collect();
    let n = units.len();
    vec![
        Metric::new("workloads.generate_ms", gen_ms, generations),
        Metric::new("analysis.analyze_ms", analyze_ms, n),
        Metric::new("analysis.rest_ms", analyze_ms - probes.profiled_ns / 1e6, n),
        Metric::new("ir.steps", probes.steps as f64, 29),
        Metric::new("ir.null_ns_per_step", probes.null_ns / steps, 29),
        Metric::new(
            "profile.sink_ns_per_step",
            (probes.profiled_ns - probes.null_ns) / steps,
            29,
        ),
        Metric::new("profile.paths_executed", per_pass(|c| c.paths_executed), n),
        Metric::new("regions.braids", per_pass(|c| c.braids), n),
        Metric::new(
            "regions.top_braid_paths",
            per_pass(|c| c.top_braid_paths),
            n,
        ),
        Metric::new("frames.build_ms", ms("frames.build_frame"), n),
        Metric::new("frames.ops", per_pass(|c| c.frame_ops), n),
        Metric::new("frames.certify_ms", ms("frames.certify_frame"), n),
        Metric::new("frames.proved", per_pass(|c| c.proved), n),
        Metric::new("frames.refuted", per_pass(|c| c.refuted), n),
        Metric::new("frames.timeout", per_pass(|c| c.timeout), n),
        Metric::new("frames.unsupported", per_pass(|c| c.unsupported), n),
        Metric::new("frames.sat_conflicts", per_pass(|c| c.sat_conflicts), n),
        Metric::new("cgra.cost_ms", probes.cgra_ns / 1e6, 29),
        Metric::new(
            "host.sim_ns_per_step",
            (probes.host_ns - probes.null_ns) / steps,
            29,
        ),
        Metric::new("host.cycles_baseline", probes.cycles_baseline as f64, 29),
        Metric::new("offload.simulate_ms", simulate_ms, n),
        Metric::new(
            "offload.offloaded_run_ms",
            simulate_ms - (probes.braid_build_ns + probes.cgra_ns + probes.host_ns) / 1e6,
            n,
        ),
        Metric::new("offload.invocations", per_pass(|c| c.invocations), n),
        Metric::new("offload.commits", per_pass(|c| c.commits), n),
        Metric::new("offload.aborts", per_pass(|c| c.aborts), n),
        Metric::new("offload.declined", per_pass(|c| c.declined), n),
        Metric::new("offload.fallbacks", per_pass(|c| c.fallbacks), n),
        Metric::new(
            "offload.precision",
            if precision.is_empty() {
                0.0
            } else {
                precision.iter().sum::<f64>() / precision.len() as f64
            },
            precision.len(),
        ),
        Metric::new("trace.overhead_share", 1.0 - median(pairs), pairs.len())
            .note("1 - traced/untraced programs per second, median over pass pairs"),
        Metric::new(
            "trace.span_coverage",
            1.0 - unit.1 as f64 / unit.0.max(1) as f64,
            n,
        )
        .note("share of unit wall time inside named layer spans"),
    ]
}

/// One row per program: median unit time (wall and reference clock), the
/// traced layer split (wall clock), and the Figure 9 speedup.
fn print_rows(names: &[&str], units: &[&Unit], tr: Option<&Trace>) {
    const COLS: [&str; 4] = [
        "analysis.analyze",
        "frames.build_frame",
        "frames.certify_frame",
        "offload.simulate_offload",
    ];
    let mut split: BTreeMap<u64, [f64; 4]> = BTreeMap::new();
    for s in tr.map_or(&[][..], Trace::spans) {
        if let Some(col) = COLS.iter().position(|c| *c == s.name) {
            split.entry(s.id).or_default()[col] += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
    }
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>8} {:>9} {:>10} {:>8} {:>8}  ok",
        "program",
        "wall_ms",
        "ref_ms",
        "analyze",
        "build",
        "certify",
        "simulate",
        "speedup",
        "verdicts"
    );
    for (p, name) in names.iter().enumerate() {
        let mine: Vec<&Unit> = units.iter().copied().filter(|u| u.program == p).collect();
        let col = |f: &dyn Fn(&Unit) -> f64| {
            let v: Vec<f64> = mine.iter().map(|u| f(u)).collect();
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        let sig = mine.iter().find_map(|u| u.signature.as_ref());
        let speedup = sig.map_or(0.0, |s| {
            s.baseline_cycles as f64 / s.offload_cycles.max(1) as f64
        });
        let verdicts: String =
            sig.map_or("-".into(), |s| s.verdicts.iter().map(|v| &v[..1]).collect());
        // The layer split comes from spans, so only the traced run has it.
        let part = |i: usize, width: usize| match tr {
            Some(_) => format!(
                "{:>width$.2}",
                col(&|u: &Unit| split.get(&u.id).map_or(0.0, |s| s[i]))
            ),
            None => format!("{:>width$}", "-"),
        };
        println!(
            "{:<20} {:>9.2} {:>9.2} {} {} {} {} {:>8.3} {:>8}  {}",
            name,
            col(&|u: &Unit| u.secs * 1e3),
            col(&|u: &Unit| u.ref_secs * 1e3),
            part(0, 9),
            part(1, 8),
            part(2, 9),
            part(3, 10),
            speedup,
            verdicts,
            mine.iter().all(|u| u.failure.is_none())
        );
    }
}
