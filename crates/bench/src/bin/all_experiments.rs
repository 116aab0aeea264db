//! Regenerate every table and figure into `results/`.
//!
//! Runs all experiment binaries even if some fail, then exits non-zero
//! if any did. A non-zero child exit is a *failure to record*, not a
//! reason to re-run: only a spawn error (the sibling binary isn't
//! built) falls back to `cargo run`.

use std::process::Command;

fn main() {
    let targets = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "fig4",
        "fig5",
        "fig6",
        "fig9",
        "fig10",
        "hls_area",
        "sampling_bias",
        "workload_table",
        "ablation_expansion",
        "ablation_braid_width",
        "ablation_fabric",
        "ablation_predictor",
        "braid_vs_pathtree",
        "train_vs_ref",
        "multi_region",
    ];
    let mut failures: Vec<String> = Vec::new();
    for t in targets {
        println!("==> {t}");
        let sibling = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join(t)));
        let status = match sibling {
            Some(bin) => Command::new(bin).status(),
            None => Err(std::io::Error::other("no executable dir")),
        };
        let status = match status {
            Ok(s) => Ok(s),
            Err(e) => {
                // The sibling binary doesn't exist (or can't exec) —
                // build-and-run it instead.
                eprintln!("running {t} via cargo (direct spawn failed: {e})");
                Command::new("cargo")
                    .args(["run", "--release", "-p", "needle-bench", "--bin", t])
                    .status()
            }
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("FAILED: {t} exited with {s}");
                failures.push(format!("{t} ({s})"));
            }
            Err(e) => {
                eprintln!("FAILED: {t} could not run: {e}");
                failures.push(format!("{t} (spawn: {e})"));
            }
        }
    }
    if !failures.is_empty() {
        eprintln!(
            "{} of {} experiments failed: {}",
            failures.len(),
            targets.len(),
            failures.join(", ")
        );
        std::process::exit(1);
    }
    println!("All experiments regenerated under results/");
}
