//! Table III — next-path target expansion across back edges.

use std::fmt::Write;

use needle::NeedleConfig;
use needle_bench::{emit, prepare_all};
use needle_regions::expansion::bias_band;

fn main() {
    let cfg = NeedleConfig::default();
    let all = prepare_all(&cfg);
    let mut out = String::new();
    let _ = writeln!(out, "Table III: next-path target expansion (within-invocation path pairs)");
    let _ = writeln!(
        out,
        "{:<20} {:>9} {:>8} {:>8} {:>9}",
        "workload", "seq.bias", "band", "self?", "ops.grow"
    );
    let mut bands: Vec<(&str, Vec<String>)> = vec![
        ("90-100%", Vec::new()),
        ("70-90%", Vec::new()),
        ("<70%", Vec::new()),
    ];
    let mut self_repeats = 0;
    let mut growth_sum = 0.0;
    let mut growth_n = 0.0;
    for p in &all {
        match &p.analysis.expansion {
            Some(e) => {
                let band = bias_band(e.seq_bias);
                let _ = writeln!(
                    out,
                    "{:<20} {:>9.2} {:>8} {:>8} {:>9.2}",
                    p.workload.name, e.seq_bias, band, e.repeats_self, e.ops_growth
                );
                if let Some((_, v)) = bands.iter_mut().find(|(b, _)| *b == band) {
                    v.push(p.workload.name.clone());
                }
                if e.repeats_self {
                    self_repeats += 1;
                }
                growth_sum += e.ops_growth;
                growth_n += 1.0;
            }
            None => {
                let _ = writeln!(out, "{:<20} {:>9}", p.workload.name, "n/a");
            }
        }
    }
    let _ = writeln!(out, "\nBands:");
    for (band, names) in &bands {
        let _ = writeln!(out, "  {band:>8}: {:2} workloads — {}", names.len(), names.join(" "));
    }
    let _ = writeln!(
        out,
        "\nSame path repeats back-to-back in {self_repeats} of {} workloads \
         (paper: 17 of 29); average offload-unit growth {:.0}% (paper: 72%)",
        all.len(),
        (growth_sum / growth_n - 1.0) * 100.0
    );
    emit("table3", &out);
}
