//! End-to-end and per-layer benchmark of the Needle reproduction.
//!
//! ```text
//! needle-perfbench --workload <pipeline|serve_suite|serve_micro>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! seeded sequence again with spans around every layer call and reports
//! the per-layer metrics. Human-readable rows come first; the last line of
//! standard output is the JSON result. The exit code is 0 only when every
//! output check passed. See `README.md` beside this crate for the
//! workloads and what each metric should move. `serve_suite` runs but is
//! not declared in `BENCHMARK.json`: the service's metastable detector
//! sheds part of its requests, so it fails its output checks.

mod calib;
mod pipeline;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use needle::journal::Json;
use needle_ir::interp::{Interp, Memory, NullSink, Val};
use needle_ir::{Constant, FuncId, Module};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// End-to-end metrics and their units; every workload reports each one.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
    ("sim_speedup", "ratio"),
    ("decided_share", "share"),
];

/// Per-layer metrics of the traced run and their units. A layer a
/// workload does not call reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("workloads.generate_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.rest_ms", "ms"),
    ("ir.steps", "count"),
    ("ir.null_ns_per_step", "ns"),
    ("profile.sink_ns_per_step", "ns"),
    ("profile.paths_executed", "count"),
    ("regions.braids", "count"),
    ("regions.top_braid_paths", "count"),
    ("frames.build_ms", "ms"),
    ("frames.ops", "count"),
    ("frames.certify_ms", "ms"),
    ("frames.proved", "count"),
    ("frames.refuted", "count"),
    ("frames.timeout", "count"),
    ("frames.unsupported", "count"),
    ("frames.sat_conflicts", "count"),
    ("cgra.cost_ms", "ms"),
    ("host.sim_ns_per_step", "ns"),
    ("host.cycles_baseline", "cycles"),
    ("offload.simulate_ms", "ms"),
    ("offload.offloaded_run_ms", "ms"),
    ("offload.invocations", "count"),
    ("offload.commits", "count"),
    ("offload.aborts", "count"),
    ("offload.declined", "count"),
    ("offload.fallbacks", "count"),
    ("offload.precision", "share"),
    ("serve.submit_ns_p50", "ns"),
    ("serve.submit_ns_p99", "ns"),
    ("serve.svc_latency_us_p50", "us"),
    ("serve.svc_latency_us_p99", "us"),
    ("serve.handoff_us_p50", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.worker_busy_share", "share"),
    ("serve.useful_share", "share"),
    ("serve.accepted", "count"),
    ("serve.completed", "count"),
    ("serve.failed", "count"),
    ("serve.shed_queue_full", "count"),
    ("serve.shed_unmeetable", "count"),
    ("serve.shed_throttled", "count"),
    ("serve.shed_after_accept", "count"),
    ("serve.breaker_trips", "count"),
    ("serve.recycles", "count"),
    ("serve.brownout_descents", "count"),
    ("serve.metastable_fired", "count"),
    ("trace.overhead_share", "share"),
    ("trace.span_coverage", "share"),
];

/// One reported number with the sample count behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: &str) -> Metric {
        self.note = note.to_string();
        self
    }
}

/// What one workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The command line: which workload, its seed, its size, traced or not.
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

impl Plan {
    fn parse(args: &[String]) -> Result<Plan, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let i = args
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?
                .parse()
                .map_err(|_| format!("{flag} must be a whole number"))
        };
        let plan = Plan {
            workload: value("--workload")?.to_string(),
            seed: number("--seed")?,
            seconds: number("--seconds")?,
            traced: match value("--trace")? {
                "0" => false,
                "1" => true,
                _ => return Err("--trace must be 0 or 1".into()),
            },
        };
        if plan.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(plan)
    }

    /// The generator behind every seeded choice of the run.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.csv", self.workload))
    }
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// The flat engine and the reference walker agree on result, step count
/// and final memory.
pub fn engine_matches_walker(
    module: &Module,
    func: FuncId,
    args: &[Constant],
    memory: &Memory,
) -> Result<(), String> {
    let interp = Interp::new(module);
    let mut fast = memory.clone();
    let engine = interp
        .run_with(func, args, &mut fast, &mut NullSink)
        .map_err(|e| format!("engine run failed: {e}"))?;
    let steps = interp.steps();
    let mut slow = memory.clone();
    let walker = interp
        .run_reference(func, args, &mut slow, &mut NullSink)
        .map_err(|e| format!("walker run failed: {e}"))?;
    if engine.map(Val::to_bits) != walker.map(Val::to_bits) {
        return Err(format!("engine returned {engine:?}, walker {walker:?}"));
    }
    if steps != interp.steps() {
        return Err(format!(
            "engine took {steps} steps, walker {}",
            interp.steps()
        ));
    }
    if !slow.same_as(&fast.snapshot()) {
        return Err("engine and walker leave different memory".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match Plan::parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: needle-perfbench --workload <pipeline|serve_suite|serve_micro> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} cpus {}",
        plan.workload,
        plan.seed,
        plan.seconds,
        u8::from(plan.traced),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let origin = Instant::now();
    let outcome = match plan.workload.as_str() {
        "pipeline" => pipeline::run(&plan, origin),
        "serve_suite" => serve::run(serve::Mix::Suite, &plan, origin),
        "serve_micro" => serve::run(serve::Mix::Micro, &plan, origin),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome.and_then(|o| report(&plan, o)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Print every declared metric with unit and sample count, then the JSON
/// result line. Returns whether every output check passed.
fn report(plan: &Plan, outcome: Outcome) -> Result<bool, String> {
    let declared: &[(&str, &str)] = if plan.traced { &PER_LAYER } else { &END_TO_END };
    if let Some(m) = outcome
        .metrics
        .iter()
        .find(|m| !declared.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("workload reported undeclared metric {}", m.name));
    }
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let m = outcome.metrics.iter().find(|m| m.name == *name);
        if m.is_none() && !plan.traced {
            return Err(format!("workload did not report {name}"));
        }
        let (value, samples, note) = m.map_or((0.0, 0, "layer not called"), |m| {
            (m.value, m.samples, m.note.as_str())
        });
        println!("metric {name} = {value:.6} {unit} (n={samples}) {note}");
        // JSON has no infinity: a failed request's latency stays huge.
        let value = if value.is_finite() { value } else { f64::MAX };
        fields.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Float(value)),
                ("unit".into(), Json::Str(unit.to_string())),
            ]),
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "seed {} attempted {} failed {}",
        plan.seed, outcome.attempted, outcome.failed
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(outcome.attempted as i64)),
        ("failed".into(), Json::Int(outcome.failed as i64)),
        ("metrics".into(), Json::Obj(fields)),
    ]);
    println!("{}", result.encode());
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables match `BENCHMARK.json` at the repository root.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(29, &mut StdRng::seed_from_u64(7));
        let b = shuffled(29, &mut StdRng::seed_from_u64(7));
        let c = shuffled(29, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..29).collect::<Vec<_>>());
    }

    #[test]
    fn plan_rejects_bad_arguments() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = Plan::parse(&args("--workload pipeline --seed 3 --seconds 5 --trace 1"))
            .expect("valid command line");
        assert!(ok.traced && ok.seed == 3 && ok.seconds == 5);
        for bad in [
            "--workload pipeline --seed x --seconds 5 --trace 0",
            "--workload pipeline --seed 1 --seconds 0 --trace 0",
            "--workload pipeline --seed 1 --seconds 5 --trace 2",
            "--workload pipeline --seed 1 --seconds 5",
        ] {
            assert!(Plan::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
