//! Configuration-switching overhead (§I): two kernels share one fabric.
//!
//! An *alternating* driver invokes kernel A and kernel B in strict
//! alternation — every accelerator invocation needs a reconfiguration — a
//! *batched* driver runs all of A then all of B — two reconfigurations
//! total. Same work, same regions, very different switching behaviour:
//! exactly the overhead the paper cites as motivation for coarse,
//! high-coverage offload units.

use std::fmt::Write;

use needle::{simulate_offload_with, NeedleConfig, PredictorKind, RegionSpec};
use needle_bench::emit;
use needle_ir::builder::FunctionBuilder;
use needle_ir::interp::{Interp, Memory};
use needle_ir::{Constant, FuncId, Module, Type, Value};
use needle_profile::profiler::PathProfiler;
use needle_profile::rank::rank_paths;
use needle_regions::braid::build_braids;

/// Merge two generated kernels into one module and add a driver.
/// `driver(n)` runs `n / chunk` chunks of `chunk` kernel iterations each:
/// kernel A on even chunks, kernel B on odd ones.
fn build(chunk: i64) -> (Module, FuncId, Memory) {
    let wa = needle_workloads::by_name("179.art").unwrap();
    let wb = needle_workloads::by_name("464.h264ref").unwrap();
    let mut module = Module::new("two_kernels");
    let ka = module.push(wa.module.func(wa.func).clone());
    let kb = module.push(wb.module.func(wb.func).clone());

    // driver(n): for c in 0..n/chunk { (c even ? A : B)(chunk) }
    let mut fb = FunctionBuilder::new("driver", &[Type::I64], Some(Type::I64));
    let entry = fb.entry();
    let head = fb.block("head");
    let parity = fb.block("parity");
    let run_a = fb.block("run_a");
    let latch = fb.block("latch");
    let exit = fb.block("exit");
    fb.switch_to(entry);
    fb.br(head);
    fb.switch_to(head);
    let c = fb.phi(Type::I64, &[(entry, Value::int(0))]);
    let lim = fb.div(fb.arg(0), Value::int(chunk));
    let cont = fb.icmp_slt(c, lim);
    fb.cond_br(cont, parity, exit);
    fb.switch_to(parity);
    let par = fb.rem(c, Value::int(2));
    let even = fb.icmp_eq(par, Value::int(0));
    fb.cond_br(even, run_a, latch);
    fb.switch_to(run_a);
    fb.call(ka, Type::I64, &[Value::int(chunk)]);
    fb.br(latch);
    fb.switch_to(latch);
    // odd chunks run kernel B
    let odd = fb.icmp_ne(par, Value::int(0));
    let run_b = fb.block("run_b");
    let step = fb.block("step");
    fb.cond_br(odd, run_b, step);
    fb.switch_to(run_b);
    fb.call(kb, Type::I64, &[Value::int(chunk)]);
    fb.br(step);
    fb.switch_to(step);
    let c2 = fb.add(c, Value::int(1));
    fb.br(head);
    fb.switch_to(exit);
    fb.ret(Some(c));
    let mut f = fb.finish();
    let c_id = c.as_inst().unwrap();
    f.inst_mut(c_id).args.push(c2);
    f.inst_mut(c_id).phi_blocks.push(step);
    let driver = module.push(f);

    // Shared memory image: kernel A's data plus kernel B's thresholds live
    // at the same bases; use A's image and overwrite the thresholds B needs
    // (both generators write the same THR layout per spec).
    let mut memory = wa.memory.clone();
    for idx in 0..4096u64 {
        let addr = needle_workloads::gen::THR_BASE + idx * 8;
        let b = wb.memory.peek(addr);
        if b != 0 {
            memory.store(addr, needle_ir::interp::Val::Int(b as i64));
        }
    }
    (module, driver, memory)
}

fn top_braid(module: &Module, driver: FuncId, func: FuncId, memory: &Memory, n: i64) -> RegionSpec {
    let mut prof = PathProfiler::new(module);
    let mut mem = memory.clone();
    Interp::new(module)
        .run(driver, &[Constant::Int(n)], &mut mem, &mut prof)
        .unwrap();
    let rank = rank_paths(
        module.func(func),
        prof.numbering(func).unwrap(),
        &prof.profile(func),
    );
    let braids = build_braids(module.func(func), &rank, 64);
    RegionSpec {
        func,
        region: braids[0].region.clone(),
    }
}

fn main() {
    let cfg = NeedleConfig::default();
    let total = 4000i64;
    let mut out = String::new();
    let _ = writeln!(out, "Configuration switching: alternating vs batched kernel drivers");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>10} {:>10} {:>10}",
        "chunk", "reconfigs", "perf%", "energy%", "commits"
    );
    for chunk in [1i64, 4, 16, 100, 2000] {
        let (module, driver, memory) = build(chunk);
        let ka = FuncId(0);
        let kb = FuncId(1);
        let ra = top_braid(&module, driver, ka, &memory, total);
        let rb = top_braid(&module, driver, kb, &memory, total);
        // The oracle isolates switching cost from misprediction.
        let r = simulate_offload_with(
            &module,
            driver,
            &[Constant::Int(total)],
            &memory,
            &[ra, rb],
            PredictorKind::Oracle,
            &cfg,
            None,
        )
        .expect("multi-region offload");
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>10.1} {:>10.1} {:>10}",
            chunk,
            r.reconfigurations,
            r.perf_improvement_pct(),
            r.energy_reduction_pct(),
            r.commits
        );
    }
    let _ = writeln!(
        out,
        "\nSmall chunks force a reconfiguration per kernel switch (§I's\n\
         switching overhead); batching amortizes it — and chained commits\n\
         within a batch amortize live-value transfer on top. This is the\n\
         quantitative case for merging paths into fewer, higher-coverage\n\
         offload units (Braids) instead of many per-path configurations."
    );
    emit("multi_region", &out);
}
