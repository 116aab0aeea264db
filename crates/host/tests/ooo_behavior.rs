//! Behavioural tests of the OOO timing model: the first-order effects the
//! offload comparison relies on.

use needle_host::{HierarchyStats, HostConfig, HostSim, HostStats};
use needle_ir::builder::FunctionBuilder;
use needle_ir::interp::{Interp, Memory};
use needle_ir::{Constant, FuncId, Module, Type, Value as V};

fn run(m: &Module, f: FuncId, args: &[Constant], cfg: HostConfig) -> needle_host::HostStats {
    let mut sim = HostSim::new(m, cfg);
    let mut mem = Memory::new();
    Interp::new(m).run(f, args, &mut mem, &mut sim).unwrap();
    sim.finish()
}

/// Wider issue helps fetch-bound parallel code but not a serial chain.
#[test]
fn issue_width_helps_parallel_code_only() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("par", &[Type::I64], Some(Type::I64));
    let mut last = fb.arg(0);
    for k in 0..64 {
        last = fb.add(V::int(k), V::int(1));
    }
    fb.ret(Some(last));
    let par = m.push(fb.finish());
    let mut fb = FunctionBuilder::new("ser", &[Type::I64], Some(Type::I64));
    let mut x = fb.arg(0);
    for _ in 0..64 {
        x = fb.add(x, V::int(1));
    }
    fb.ret(Some(x));
    let ser = m.push(fb.finish());

    let narrow = HostConfig {
        fetch_width: 2,
        ..HostConfig::default()
    };
    let wide = HostConfig {
        fetch_width: 8,
        ..HostConfig::default()
    };
    let args = [Constant::Int(1)];
    let par_narrow = run(&m, par, &args, narrow.clone()).cycles;
    let par_wide = run(&m, par, &args, wide.clone()).cycles;
    assert!(
        par_wide * 2 < par_narrow,
        "parallel: wide {par_wide} vs narrow {par_narrow}"
    );
    let ser_narrow = run(&m, ser, &args, narrow).cycles;
    let ser_wide = run(&m, ser, &args, wide).cycles;
    assert!(
        ser_wide + 8 >= ser_narrow,
        "serial code is chain-bound: {ser_wide} vs {ser_narrow}"
    );
}

/// FPU port pressure: 2 FPUs throttle independent FP streams.
#[test]
fn fpu_ports_throttle_fp_streams() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("fp", &[], Some(Type::I64));
    let mut last = V::float(0.0);
    for k in 0..64 {
        last = fb.fmul(V::float(k as f64), V::float(1.5));
    }
    let r = fb.ftoi(last);
    fb.ret(Some(r));
    let f = m.push(fb.finish());
    let two_fpu = run(&m, f, &[], HostConfig::default()).cycles;
    let eight_fpu = run(
        &m,
        f,
        &[],
        HostConfig {
            fpus: 8,
            fetch_width: 16,
            ..HostConfig::default()
        },
    )
    .cycles;
    assert!(eight_fpu < two_fpu, "8 FPUs {eight_fpu} vs 2 FPUs {two_fpu}");
}

/// Taken branches cost fetch groups: a block-fragmented function is slower
/// than the same ops in a straight line.
#[test]
fn branchy_layout_pays_fetch_redirects() {
    // Independent ops keep both variants fetch-bound, isolating the
    // per-block redirect cost.
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("straight", &[Type::I64], Some(Type::I64));
    let mut last = fb.arg(0);
    for k in 0..64 {
        last = fb.add(V::int(k), V::int(1));
    }
    fb.ret(Some(last));
    let straight = m.push(fb.finish());
    let mut fb = FunctionBuilder::new("frag", &[Type::I64], Some(Type::I64));
    let mut last = fb.arg(0);
    for blk in 0..8 {
        for k in 0..8 {
            last = fb.add(V::int(blk * 8 + k), V::int(1));
        }
        let next = fb.block(format!("b{blk}"));
        fb.br(next);
        fb.switch_to(next);
    }
    fb.ret(Some(last));
    let frag = m.push(fb.finish());
    let args = [Constant::Int(0)];
    let s = run(&m, straight, &args, HostConfig::default()).cycles;
    let fcyc = run(&m, frag, &args, HostConfig::default()).cycles;
    assert!(fcyc >= s + 6, "fragmented {fcyc} vs straight {s}");
}

/// A bigger ROB rides out long-latency misses better.
#[test]
fn rob_size_hides_miss_latency() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("f", &[], Some(Type::I64));
    let v = fb.load(Type::I64, V::ptr(1 << 33)); // cold DRAM miss
    for k in 0..512 {
        fb.add(V::int(k), V::int(2));
    }
    fb.ret(Some(v));
    let f = m.push(fb.finish());
    let small = run(
        &m,
        f,
        &[],
        HostConfig {
            rob_entries: 16,
            ..HostConfig::default()
        },
    )
    .cycles;
    let big = run(
        &m,
        f,
        &[],
        HostConfig {
            rob_entries: 512,
            ..HostConfig::default()
        },
    )
    .cycles;
    assert!(big < small, "512-entry {big} vs 16-entry {small}");
}

/// IPC is bounded by fetch width.
#[test]
fn ipc_never_exceeds_fetch_width() {
    for name in ["164.gzip", "470.lbm", "458.sjeng"] {
        let w = needle_workloads::by_name(name).unwrap();
        let mut sim = HostSim::new(&w.module, HostConfig::default());
        let mut mem = w.memory.clone();
        Interp::new(&w.module)
            .run(w.func, &w.args, &mut mem, &mut sim)
            .unwrap();
        let stats = sim.finish();
        assert!(stats.ipc() <= 4.0 + 1e-9, "{name}: ipc {}", stats.ipc());
        assert!(stats.ipc() > 0.2, "{name}: ipc {}", stats.ipc());
    }
}

/// `HostStats` from its figures in declaration order: cycles, insts,
/// int/fp ops, loads, stores, branches, then the L1 hit/miss and L2
/// hit/miss counters.
fn pinned(v: [u64; 11]) -> HostStats {
    HostStats {
        cycles: v[0],
        insts: v[1],
        int_ops: v[2],
        fp_ops: v[3],
        loads: v[4],
        stores: v[5],
        branches: v[6],
        cache: HierarchyStats {
            l1_hits: v[7],
            l1_misses: v[8],
            l2_hits: v[9],
            l2_misses: v[10],
        },
    }
}

/// Exact `HostStats` of default-configured suite runs. The figures pin the
/// timing rules: a faster model must reproduce them.
#[test]
fn suite_workloads_keep_their_exact_host_stats() {
    let rows = [
        // Programs that make calls.
        ("186.crafty", [656_076, 1_244_297, 1_026_885, 0, 210_000, 0, 120_001, 209_743, 257, 0, 257]),
        ("403.gcc", [94_847, 211_381, 178_651, 0, 27_000, 2_865, 15_001, 29_736, 129, 0, 129]),
        ("453.povray", [745_311, 910_054, 272_868, 540_202, 80_000, 15_013, 36_001, 94_756, 257, 0, 257]),
        // Divide/square-root and FP ops.
        ("blackscholes", [1_596_009, 1_537_503, 236_003, 1_301_500, 0, 0, 80_001, 0, 0, 0, 0]),
        ("470.lbm", [168_990, 329_611, 109_606, 185_604, 24_000, 10_401, 2_401, 34_273, 128, 0, 128]),
        // L2 hits.
        ("401.bzip2", [2_515_442, 6_301_763, 5_511_526, 0, 700_000, 90_237, 320_001, 789_179, 1_058, 32, 1_026]),
    ];
    for (name, want) in rows {
        let w = needle_workloads::by_name(name).unwrap();
        let mut sim = HostSim::new(&w.module, HostConfig::default());
        let mut mem = w.memory.clone();
        Interp::new(&w.module)
            .run(w.func, &w.args, &mut mem, &mut sim)
            .unwrap();
        assert_eq!(sim.finish(), pinned(want), "{name}");
    }
}

/// `rec(n)` computes `y` before calling `rec(n - 1)` and reads it after the
/// call returns (the store holds the read back until then). Each
/// invocation must time `y` from its own completion slots: a callee that
/// shared or cleared its caller's slots would move the divide chain.
#[test]
fn recursive_frames_keep_their_own_slots() {
    let mut m = Module::new("t");
    let mut fb = FunctionBuilder::new("rec", &[Type::I64], Some(Type::I64));
    let recurse = fb.block("recurse");
    let base = fb.block("base");
    let y = fb.div(fb.arg(0), V::int(3));
    let c = fb.icmp_sgt(fb.arg(0), V::int(0));
    fb.cond_br(c, recurse, base);
    fb.switch_to(recurse);
    let n1 = fb.sub(fb.arg(0), V::int(1));
    let r = fb.call(FuncId(0), Type::I64, &[n1]);
    fb.store(r, V::ptr(0x2000));
    let z = fb.add(y, V::int(1));
    let d1 = fb.div(z, V::int(3));
    let d2 = fb.div(d1, V::int(3));
    let w = fb.add(d2, r);
    fb.ret(Some(w));
    fb.switch_to(base);
    let b1 = fb.div(fb.arg(0), V::int(7));
    let b2 = fb.div(b1, V::int(7));
    fb.ret(Some(b2));
    let f = m.push(fb.finish());
    let want = [236, 112, 88, 0, 0, 12, 13, 11, 1, 0, 1];
    assert_eq!(
        run(&m, f, &[Constant::Int(12)], HostConfig::default()),
        pinned(want)
    );
}
