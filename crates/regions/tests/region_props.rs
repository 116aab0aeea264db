//! Property tests for region formation over randomized workload shapes.
//!
//! Cases are drawn from a seeded RNG, so every run exercises the same
//! deterministic sample of the shape space.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use needle_ir::interp::{Interp, TeeSink, Val};
use needle_profile::profiler::{EdgeProfiler, PathProfiler};
use needle_profile::rank::rank_paths;
use needle_regions::braid::build_braids;
use needle_regions::hyperblock::build_hyperblock;
use needle_regions::path::PathRegion;
use needle_regions::superblock::{build_superblock, superblock_is_feasible};
use needle_workloads::{generate, BiasKind, GenSpec, Suite};

fn spec(diamonds: usize, bias_sel: u8, seed: u64) -> GenSpec {
    let bias = match bias_sel % 4 {
        0 => BiasKind::Uniform,
        1 => BiasKind::High,
        2 => BiasKind::Mixed,
        _ => BiasKind::InductionMod(3),
    };
    GenSpec {
        name: "prop",
        suite: Suite::SpecInt,
        diamonds,
        shared_ops: 3,
        then_ops: 2,
        else_ops: 1,
        loads: diamonds + 2,
        stores: 1,
        fp: seed.is_multiple_of(2),
        bias,
        trips: 300,
        array_len: 128,
        seed,
        helper_call: false,
    }
}

/// Every region formation produces structurally valid regions on any
/// generated workload, and braid coverage dominates the top path's.
#[test]
fn regions_valid_on_random_workloads() {
    let mut rng = StdRng::seed_from_u64(0x5EED1);
    for case in 0..24 {
        let diamonds = rng.gen_range(1usize..7);
        let bias_sel = rng.gen_range(0u8..4);
        let seed = rng.gen_range(0u64..1000);
        let ctx = format!("case {case}: diamonds={diamonds} bias={bias_sel} seed={seed}");

        let w = generate(&spec(diamonds, bias_sel, seed));
        let mut paths = PathProfiler::new(&w.module);
        let mut edges = EdgeProfiler::new();
        let mut mem = w.memory.clone();
        {
            let mut tee = TeeSink(&mut paths, &mut edges);
            Interp::new(&w.module)
                .run(w.func, &w.args, &mut mem, &mut tee)
                .unwrap();
        }
        let f = w.module.func(w.func);
        let rank = rank_paths(f, paths.numbering(w.func).unwrap(), &paths.profile(w.func));
        assert!(rank.executed_paths() >= 1, "{ctx}");

        // Paths validate.
        for r in 0..rank.executed_paths().min(5) {
            let p = PathRegion::from_rank(&rank, r).unwrap();
            p.region.validate(f).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
        // Braids validate and cover at least the top path.
        let braids = build_braids(f, &rank, 32);
        assert!(!braids.is_empty(), "{ctx}");
        for b in &braids {
            b.region.validate(f).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
        let top_path_cov = rank.top().unwrap().coverage(rank.fwt);
        let best_braid_cov = braids
            .iter()
            .map(|b| b.coverage(rank.fwt))
            .fold(0.0f64, f64::max);
        assert!(best_braid_cov >= top_path_cov - 1e-9, "{ctx}");

        // Superblock from the hot seed is a nonempty trace; when feasible
        // it appears in some executed path (consistency of the check).
        let profile = edges.profile(w.func);
        let sb = build_superblock(f, &profile, needle_ir::BlockId(1));
        assert!(!sb.blocks.is_empty(), "{ctx}");
        let _ = superblock_is_feasible(&sb, &rank);

        // Hyperblock from the loop body folds at least the seed and has a
        // predicate bit per internal branch.
        let hb = build_hyperblock(f, needle_ir::BlockId(2), 256);
        assert!(hb.blocks.contains(&needle_ir::BlockId(2)), "{ctx}");
        assert!(hb.predicate_bits <= f.num_cond_branches(), "{ctx}");
    }
}

/// The workload runs to the same result regardless of profiling
/// instrumentation (sinks are observers only).
#[test]
fn sinks_are_pure_observers() {
    let mut rng = StdRng::seed_from_u64(0x5EED2);
    for _ in 0..12 {
        let diamonds = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..100);
        let w = generate(&spec(diamonds, 2, seed));
        let plain = {
            let mut mem = w.memory.clone();
            Interp::new(&w.module)
                .run(w.func, &w.args, &mut mem, &mut needle_ir::interp::NullSink)
                .unwrap()
        };
        let observed = {
            let mut paths = PathProfiler::new(&w.module);
            let mut edges = EdgeProfiler::new();
            let mut mem = w.memory.clone();
            let mut tee = TeeSink(&mut paths, &mut edges);
            Interp::new(&w.module)
                .run(w.func, &w.args, &mut mem, &mut tee)
                .unwrap()
        };
        assert_eq!(plain, observed, "diamonds={diamonds} seed={seed}");
    }
}

#[test]
fn braid_entry_exit_invariant_on_suite_sample() {
    for name in ["175.vpr", "swaptions"] {
        let w = needle_workloads::by_name(name).unwrap();
        let mut paths = PathProfiler::new(&w.module);
        let mut mem = w.memory.clone();
        Interp::new(&w.module)
            .run(w.func, &w.args, &mut mem, &mut paths)
            .unwrap();
        let f = w.module.func(w.func);
        let rank = rank_paths(f, paths.numbering(w.func).unwrap(), &paths.profile(w.func));
        for b in build_braids(f, &rank, 64) {
            for pid in &b.member_paths {
                let p = rank.paths.iter().find(|p| p.id == *pid).unwrap();
                assert_eq!(p.blocks[0], b.region.entry(), "{name}");
                assert_eq!(*p.blocks.last().unwrap(), b.region.exit(), "{name}");
            }
        }
    }
    // Silence the unused-import lint for Val in older toolchains.
    let _ = Val::Int(0);
}
