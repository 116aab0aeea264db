//! `perf_smoke` — interpreter and host-model performance-regression harness.
//!
//! Times the reference tree walker against the pre-decoded engine over the
//! whole workload suite on four paths:
//!
//!   * **null** — `NullSink`, pure interpretation throughput;
//!   * **profile** — `PathProfiler` attached, the analysis hot path;
//!   * **host** — the engine driving the host timing model (`HostSim`),
//!     reported as `host_over_null`: suite time with the model attached
//!     over suite time with `NullSink`;
//!   * **frame** — whole offload simulations (host runs + frame
//!     invocations) on a few representative workloads.
//!
//! A workload's walker and engine legs run interleaved, call by call,
//! and each reports its median seconds per call, so both sides of a
//! ratio see the same machine state.
//!
//! `--out PATH` writes the JSON report (the CI `perf-smoke` job writes
//! `results/BENCH_interp.json`); without it nothing is written. With
//! `--check`, compares the measured ratios (machine-independent, both
//! sides run on the same box) against `crates/bench/perf_baseline.json`
//! and exits non-zero when an engine-vs-walker speedup drops below 70% of
//! its baseline or `host_over_null` rises above its baseline divided by
//! 0.7. `--quick` shrinks the measurement windows for local smoke runs.

use std::fmt::Write as _;
use std::fs;
use std::time::{Duration, Instant};

use needle::{simulate_offload, NeedleConfig, PredictorKind};
use needle_bench::{geomean, Prepared};
use needle_host::{HostConfig, HostSim};
use needle_ir::interp::{Interp, NullSink};
use needle_profile::profiler::PathProfiler;

/// Workloads whose offload pipeline the frame phase times end to end.
const FRAME_WORKLOADS: &[&str] = &["164.gzip", "401.bzip2", "470.lbm"];

/// Regression gate: fail `--check` when a speedup falls below
/// `baseline * MIN_RATIO` or a slowdown rises above `baseline / MIN_RATIO`.
const MIN_RATIO: f64 = 0.7;

/// One workload's measurements (times in seconds, per single run).
struct Row {
    name: String,
    /// Dynamic steps of one complete run.
    ops: u64,
    ref_null: f64,
    eng_null: f64,
    ref_prof: f64,
    eng_prof: f64,
    /// The engine driving `HostSim` (built and finished inside the timing).
    eng_host: f64,
}

impl Row {
    fn speedup_null(&self) -> f64 {
        self.ref_null / self.eng_null
    }
    fn speedup_prof(&self) -> f64 {
        self.ref_prof / self.eng_prof
    }
    fn host_over_null(&self) -> f64 {
        self.eng_host / self.eng_null
    }
}

/// Rounds every leg is timed for at least, however long they take.
const MIN_ROUNDS: usize = 5;

/// Time `legs` legs interleaved, call by call: each round calls every
/// leg once (`run(leg)`), and the leg that starts a round rotates from
/// round to round, so the legs of a ratio see the same machine state and
/// none always runs first. Rounds repeat until one `window` per leg has
/// passed and at least [`MIN_ROUNDS`] are done. Returns each leg's median
/// seconds per call (after one warm-up call per leg: it decodes the
/// engine, faults pages and warms caches).
fn time_legs(window: Duration, legs: usize, mut run: impl FnMut(usize)) -> Vec<f64> {
    (0..legs).for_each(&mut run);
    let budget = window * legs as u32;
    let mut calls = vec![Vec::new(); legs];
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        for k in 0..legs {
            let leg = (round + k) % legs;
            let t = Instant::now();
            run(leg);
            calls[leg].push(t.elapsed().as_secs_f64());
        }
        round += 1;
    }
    calls
        .into_iter()
        .map(|mut c| {
            c.sort_by(f64::total_cmp);
            let mid = c.len() / 2;
            if c.len() % 2 == 1 {
                c[mid]
            } else {
                (c[mid - 1] + c[mid]) / 2.0
            }
        })
        .collect()
}

fn measure_suite(window: Duration) -> Vec<Row> {
    needle_workloads::all()
        .into_iter()
        .map(|w| {
            let interp = Interp::new(&w.module);
            let mut mem = w.memory.clone();
            interp
                .run_with(w.func, &w.args, &mut mem, &mut NullSink)
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            let ops = interp.steps();

            // Legs: engine and walker with `NullSink`, engine and walker
            // with `PathProfiler`, engine driving `HostSim`.
            let t = time_legs(window, 5, |leg| {
                let mut mem = w.memory.clone();
                let (f, args) = (w.func, &w.args);
                match leg {
                    0 => {
                        interp.run_with(f, args, &mut mem, &mut NullSink).unwrap();
                    }
                    1 => {
                        interp
                            .run_reference(f, args, &mut mem, &mut NullSink)
                            .unwrap();
                    }
                    2 => {
                        let mut prof = PathProfiler::new(&w.module);
                        interp.run_with(f, args, &mut mem, &mut prof).unwrap();
                    }
                    3 => {
                        let mut prof = PathProfiler::new(&w.module);
                        interp.run_reference(f, args, &mut mem, &mut prof).unwrap();
                    }
                    _ => {
                        let mut host = HostSim::new(&w.module, HostConfig::default());
                        interp.run_with(f, args, &mut mem, &mut host).unwrap();
                        host.finish();
                    }
                }
            });
            Row {
                name: w.name.clone(),
                ops,
                eng_null: t[0],
                ref_null: t[1],
                eng_prof: t[2],
                ref_prof: t[3],
                eng_host: t[4],
            }
        })
        .collect()
}

/// Time one whole offload simulation (host interpretation + every frame
/// invocation) of the top braid under the history predictor.
fn measure_frames(window: Duration) -> Vec<(&'static str, f64)> {
    let cfg = NeedleConfig::default();
    FRAME_WORKLOADS
        .iter()
        .map(|name| {
            let p = Prepared::new(name, &cfg);
            let region = p.analysis.braids[0].region.clone();
            let secs = time_legs(window, 1, |_| {
                simulate_offload(
                    &p.analysis.module,
                    p.analysis.func,
                    &p.workload.args,
                    &p.workload.memory,
                    &region,
                    PredictorKind::History,
                    &cfg,
                )
                .expect("offload simulation");
            });
            (*name, secs[0])
        })
        .collect()
}

/// Aggregate ops/sec over the suite for one (engine, sink) column.
fn ops_per_sec(rows: &[Row], secs: impl Fn(&Row) -> f64) -> f64 {
    let total_ops: u64 = rows.iter().map(|r| r.ops).sum();
    let total_secs: f64 = rows.iter().map(&secs).sum();
    total_ops as f64 / total_secs
}

/// Pull `"key": <number>` out of a JSON text (the baseline file is flat,
/// so a tiny scanner beats a dependency).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1));
    let quick = args.iter().any(|a| a == "--quick");
    let window = if quick {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(120)
    };

    let rows = measure_suite(window);
    let frames = measure_frames(if quick {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(250)
    });

    let ref_null = ops_per_sec(&rows, |r| r.ref_null);
    let eng_null = ops_per_sec(&rows, |r| r.eng_null);
    let ref_prof = ops_per_sec(&rows, |r| r.ref_prof);
    let eng_prof = ops_per_sec(&rows, |r| r.eng_prof);
    let speedup_null = eng_null / ref_null;
    let speedup_prof = eng_prof / ref_prof;
    let geo_null = geomean(rows.iter().map(Row::speedup_null));
    let geo_prof = geomean(rows.iter().map(Row::speedup_prof));
    let host_over_null = rows.iter().map(|r| r.eng_host).sum::<f64>()
        / rows.iter().map(|r| r.eng_null).sum::<f64>();

    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8} {:>9}",
        "workload", "ops", "ref Mops", "eng Mops", "null x", "refP Mops", "engP Mops", "prof x",
        "host/null"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12} {:>10.1} {:>10.1} {:>8.2} {:>10.1} {:>10.1} {:>8.2} {:>9.2}",
            r.name,
            r.ops,
            r.ops as f64 / r.ref_null / 1e6,
            r.ops as f64 / r.eng_null / 1e6,
            r.speedup_null(),
            r.ops as f64 / r.ref_prof / 1e6,
            r.ops as f64 / r.eng_prof / 1e6,
            r.speedup_prof(),
            r.host_over_null(),
        );
    }
    println!(
        "\nsuite: null {:.1} -> {:.1} Mops/s ({speedup_null:.2}x, geomean {geo_null:.2}x); \
         profiled {:.1} -> {:.1} Mops/s ({speedup_prof:.2}x, geomean {geo_prof:.2}x)",
        ref_null / 1e6,
        eng_null / 1e6,
        ref_prof / 1e6,
        eng_prof / 1e6,
    );
    println!("host model: {host_over_null:.2}x the null-sink engine time");
    for (name, secs) in &frames {
        println!("frame-sim {name:<12} {:.2} ms/simulation", secs * 1e3);
    }

    // Hand-rolled JSON (no serde in the workspace).
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"interp\",");
    let _ = writeln!(j, "  \"workloads\": {},", rows.len());
    let _ = writeln!(
        j,
        "  \"total_ops\": {},",
        rows.iter().map(|r| r.ops).sum::<u64>()
    );
    let _ = writeln!(j, "  \"ref_null_ops_per_sec\": {ref_null:.0},");
    let _ = writeln!(j, "  \"engine_null_ops_per_sec\": {eng_null:.0},");
    let _ = writeln!(j, "  \"ref_profile_ops_per_sec\": {ref_prof:.0},");
    let _ = writeln!(j, "  \"engine_profile_ops_per_sec\": {eng_prof:.0},");
    let _ = writeln!(j, "  \"speedup_null\": {speedup_null:.3},");
    let _ = writeln!(j, "  \"speedup_profile\": {speedup_prof:.3},");
    let _ = writeln!(j, "  \"geomean_speedup_null\": {geo_null:.3},");
    let _ = writeln!(j, "  \"geomean_speedup_profile\": {geo_prof:.3},");
    let _ = writeln!(j, "  \"host_over_null\": {host_over_null:.3},");
    let _ = writeln!(j, "  \"frame_sims\": [");
    for (i, (name, secs)) in frames.iter().enumerate() {
        let comma = if i + 1 < frames.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{ \"name\": \"{name}\", \"ms_per_simulation\": {:.3} }}{comma}",
            secs * 1e3
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"per_workload\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{ \"name\": \"{}\", \"ops\": {}, \"speedup_null\": {:.3}, \"speedup_profile\": {:.3}, \"host_over_null\": {:.3} }}{comma}",
            r.name,
            r.ops,
            r.speedup_null(),
            r.speedup_prof(),
            r.host_over_null(),
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");

    if let Some(out) = out {
        fs::write(out, &j).unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("\nwrote {out}");
    }

    if check {
        let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/perf_baseline.json");
        let text = fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
        let baseline = |key: &str| {
            json_number(&text, key)
                .unwrap_or_else(|| panic!("baseline {baseline_path} lacks {key}"))
        };
        let mut failed = false;
        for (key, measured) in [
            ("speedup_null", speedup_null),
            ("speedup_profile", speedup_prof),
        ] {
            let base = baseline(key);
            let floor = base * MIN_RATIO;
            let verdict = if measured < floor { "FAIL" } else { "ok" };
            println!("check {key}: measured {measured:.2}x, baseline {base:.2}x, floor {floor:.2}x ... {verdict}");
            failed |= measured < floor;
        }
        let base = baseline("host_over_null");
        let ceiling = base / MIN_RATIO;
        let verdict = if host_over_null > ceiling { "FAIL" } else { "ok" };
        println!("check host_over_null: measured {host_over_null:.2}x, baseline {base:.2}x, ceiling {ceiling:.2}x ... {verdict}");
        failed |= host_over_null > ceiling;
        if failed {
            eprintln!("perf regression: a ratio crossed its gate ({MIN_RATIO} of baseline)");
            std::process::exit(1);
        }
    }
}
