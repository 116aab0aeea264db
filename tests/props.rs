//! Property-based tests over the core invariants, driven by a seeded RNG
//! so every run checks the same deterministic case sample.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use needle_frames::{build_frame, run_frame, FrameOutcome};
use needle_ir::builder::FunctionBuilder;
use needle_ir::interp::{Interp, Memory, NullSink, Val};
use needle_ir::{BlockId, Constant, Function, Module, Type, Value};
use needle_profile::bl::BlNumbering;
use needle_regions::OffloadRegion;

/// Build a random acyclic diamond-chain function:
/// entry -> d0 {t|e} -> m0 -> d1 {t|e} -> m1 ... -> ret, with `arms[k]`
/// selecting per-arm op mixes and branch conditions comparing `arg0`
/// against per-diamond thresholds. Stores write to distinct slots.
fn diamond_chain(arms: &[(u8, u8, i64)]) -> Function {
    let mut fb = FunctionBuilder::new("chain", &[Type::I64, Type::Ptr], Some(Type::I64));
    let mut cur = Value::Arg(0);
    for (k, (t_ops, e_ops, thr)) in arms.iter().enumerate() {
        let t = fb.block(format!("t{k}"));
        let e = fb.block(format!("e{k}"));
        let m = fb.block(format!("m{k}"));
        let c = fb.icmp_sgt(cur, Value::int(*thr));
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        let mut tv = cur;
        for j in 0..*t_ops {
            tv = fb.add(tv, Value::int(j as i64 + 1));
        }
        let taddr = fb.gep(Value::Arg(1), Value::int(k as i64 * 2), 8);
        fb.store(tv, taddr);
        fb.br(m);
        fb.switch_to(e);
        let mut ev = cur;
        for j in 0..*e_ops {
            ev = fb.mul(ev, Value::int(j as i64 + 2));
        }
        let eaddr = fb.gep(Value::Arg(1), Value::int(k as i64 * 2 + 1), 8);
        fb.store(ev, eaddr);
        fb.br(m);
        fb.switch_to(m);
        cur = fb.phi(Type::I64, &[(t, tv), (e, ev)]);
    }
    fb.ret(Some(cur));
    fb.finish()
}

/// The whole-function braid region of a diamond chain (all blocks, all
/// edges).
fn full_braid(f: &Function) -> OffloadRegion {
    let cfg = needle_ir::cfg::Cfg::new(f);
    let blocks: Vec<BlockId> = cfg.reverse_post_order();
    let edges = cfg.edges().into_iter().map(|e| (e.from, e.to)).collect();
    OffloadRegion {
        blocks,
        edges,
        freq: 1,
        coverage: 1.0,
    }
}

/// Draw a random arm list: `(then ops, else ops, branch threshold)`.
fn random_arms(rng: &mut StdRng) -> Vec<(u8, u8, i64)> {
    let len = rng.gen_range(1usize..5);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0u8..4),
                rng.gen_range(0u8..4),
                rng.gen_range(-50i64..50),
            )
        })
        .collect()
}

/// Map a frame's live-ins for a diamond chain invoked as `chain(x, null)`.
fn chain_live_ins(frame: &needle_frames::Frame, x: i64) -> Vec<Val> {
    frame
        .live_ins
        .iter()
        .map(|li| match li.value {
            Value::Arg(0) => Val::Int(x),
            Value::Arg(1) => Val::Int(0),
            other => panic!("unexpected live-in {other:?}"),
        })
        .collect()
}

/// Ball-Larus ids decode/encode as inverses and are dense.
#[test]
fn bl_roundtrip_on_random_chains() {
    let mut rng = StdRng::seed_from_u64(0x1B11);
    for case in 0..64 {
        let arms = random_arms(&mut rng);
        let f = diamond_chain(&arms);
        let bl = BlNumbering::new(&f).unwrap();
        assert_eq!(bl.num_paths(), 1u64 << arms.len(), "case {case}");
        for id in 0..bl.num_paths() {
            let blocks = bl.decode(id).unwrap();
            assert_eq!(bl.encode(&blocks).unwrap(), id, "case {case}");
            assert_eq!(blocks[0], BlockId(0), "case {case}");
        }
    }
}

/// A committed whole-function braid frame is observationally equivalent
/// to interpreting the function: same return value, same memory.
#[test]
fn braid_frame_matches_interpreter() {
    let mut rng = StdRng::seed_from_u64(0x1B12);
    for case in 0..64 {
        let arms = random_arms(&mut rng);
        let x = rng.gen_range(-100i64..100);
        let f = diamond_chain(&arms);
        let region = full_braid(&f);
        region.validate(&f).unwrap();
        let frame = build_frame(&f, &region).unwrap();
        assert!(
            frame.guards.is_empty(),
            "case {case}: whole-function braid has no guards"
        );

        // Interpreter run.
        let mut m = Module::new("t");
        let fid = m.push(f.clone());
        let mut mem_i = Memory::new();
        let ret = Interp::new(&m)
            .run(fid, &[Constant::Int(x), Constant::Ptr(0)], &mut mem_i, &mut NullSink)
            .unwrap()
            .unwrap();

        // Frame run: live-ins are the two arguments in first-use order.
        let live_vals = chain_live_ins(&frame, x);
        let mut mem_f = Memory::new();
        let out = run_frame(&frame, &live_vals, &mut mem_f).unwrap();
        let FrameOutcome::Committed { live_outs, .. } = out else {
            panic!("case {case}: no guards, frame must commit");
        };

        // Memory images agree on every touched slot.
        for slot in 0..(arms.len() as u64 * 2) {
            assert_eq!(
                mem_i.peek(slot * 8),
                mem_f.peek(slot * 8),
                "case {case}: slot {slot} differs"
            );
        }
        // The returned value is one of the frame's live-outs.
        assert!(
            live_outs.contains(&ret),
            "case {case}: interpreter returned {ret:?}, frame live-outs {live_outs:?}"
        );
    }
}

/// A path frame through the all-taken arms either commits with the same
/// effects as the interpreter (when the input stays on the path) or
/// aborts leaving memory untouched.
#[test]
fn path_frame_commit_or_clean_abort() {
    let mut rng = StdRng::seed_from_u64(0x1B13);
    for case in 0..64 {
        let arms = random_arms(&mut rng);
        let x = rng.gen_range(-100i64..100);
        let f = diamond_chain(&arms);
        // Region: entry + all taken arms + merges.
        let mut blocks = vec![BlockId(0)];
        for k in 0..arms.len() as u32 {
            blocks.push(BlockId(1 + k * 3)); // t_k
            blocks.push(BlockId(3 + k * 3)); // m_k
        }
        let region = OffloadRegion::from_path(&blocks, 1, 1.0);
        region.validate(&f).unwrap();
        let frame = build_frame(&f, &region).unwrap();
        assert_eq!(frame.guards.len(), arms.len(), "case {case}");

        let live_vals = chain_live_ins(&frame, x);
        let mut mem_f = Memory::new();
        let sentinel = 0xDEAD;
        for slot in 0..(arms.len() as u64 * 2) {
            mem_f.store(slot * 8, Val::Int(sentinel));
        }
        let out = run_frame(&frame, &live_vals, &mut mem_f).unwrap();
        match out {
            FrameOutcome::Committed { .. } => {
                // The interpreter must agree (input followed the hot path).
                let mut m = Module::new("t");
                let fid = m.push(f.clone());
                let mut mem_i = Memory::new();
                for slot in 0..(arms.len() as u64 * 2) {
                    mem_i.store(slot * 8, Val::Int(sentinel));
                }
                Interp::new(&m)
                    .run(fid, &[Constant::Int(x), Constant::Ptr(0)], &mut mem_i, &mut NullSink)
                    .unwrap();
                for slot in 0..(arms.len() as u64 * 2) {
                    assert_eq!(mem_i.peek(slot * 8), mem_f.peek(slot * 8), "case {case}");
                }
            }
            FrameOutcome::Aborted { .. } => {
                // Rollback must restore every sentinel.
                for slot in 0..(arms.len() as u64 * 2) {
                    assert_eq!(mem_f.peek(slot * 8), sentinel as u64, "case {case}");
                }
            }
        }
    }
}

/// Under injected faults — forced guard failures, mid-frame kills,
/// corrupted live-ins — every aborted invocation restores memory
/// bit-exactly and every committed one matches an independent reference
/// interpretation of the region, as judged by the differential verifier.
#[test]
fn injected_faults_never_break_the_speculation_invariant() {
    use needle_frames::{
        run_frame_with, verify_invocation, Fault, FaultInjector, FaultKind, InjectorConfig,
    };
    let mut rng = StdRng::seed_from_u64(0x1B14);
    let mut injector = FaultInjector::new(InjectorConfig {
        seed: 0x1B14,
        fault_rate: 1.0,
        kinds: vec![
            FaultKind::ForceGuardFail,
            FaultKind::KillAtOp,
            FaultKind::CorruptLiveIn,
        ],
    });
    let mut aborts = 0u32;
    let mut commits = 0u32;
    for case in 0..64 {
        let arms = random_arms(&mut rng);
        let x = rng.gen_range(-100i64..100);
        let f = diamond_chain(&arms);
        // The all-taken-arms path frame: guards can genuinely fail too.
        let mut blocks = vec![BlockId(0)];
        for k in 0..arms.len() as u32 {
            blocks.push(BlockId(1 + k * 3));
            blocks.push(BlockId(3 + k * 3));
        }
        let region = OffloadRegion::from_path(&blocks, 1, 1.0);
        let frame = build_frame(&f, &region).unwrap();

        let mut live_vals = chain_live_ins(&frame, x);
        let mut mem = Memory::new();
        for slot in 0..(arms.len() as u64 * 2) {
            mem.store(slot * 8, Val::Int(0xDEAD));
        }
        let snap = mem.snapshot();
        let logged = injector.log.len();
        let out = run_frame_with(&frame, &live_vals, &mut mem, Some(&mut injector)).unwrap();
        // Verification must see the live-ins the frame actually ran with.
        if let Some(rec) = injector.log.get(logged) {
            if let Fault::CorruptLiveIn { index, mask } = rec.fault {
                live_vals[index] =
                    Val::from_bits(live_vals[index].to_bits() ^ mask, frame.live_ins[index].ty);
            }
        }
        match &out {
            FrameOutcome::Aborted { .. } => {
                aborts += 1;
                assert!(mem.same_as(&snap), "case {case}: abort leaked memory");
            }
            FrameOutcome::Committed { .. } => commits += 1,
        }
        let verdict = verify_invocation(&f, &frame, &live_vals, &snap, &mem, &out).unwrap();
        assert!(
            verdict.is_clean(),
            "case {case} ({out:?}): {:?}",
            verdict.divergences
        );
    }
    // The sample exercised both outcomes and actually injected faults.
    assert!(aborts > 0, "no aborts across 64 faulty invocations");
    assert!(commits > 0, "no commits across 64 faulty invocations");
    assert!(injector.log.len() >= 60, "only {} faults", injector.log.len());
}

/// Snapshot/rollback round-trips bit-exactly under the governor's
/// byte/page accounting: restoring a snapshot restores both contents and
/// the resident-page count, however the interleaving of capped and
/// uncapped stores ran in between.
#[test]
fn memory_snapshot_rollback_roundtrips_under_accounting() {
    use needle_ir::interp::CapExceeded;
    let mut rng = StdRng::seed_from_u64(0x1B15);
    for case in 0..64 {
        let mut mem = Memory::new();
        // A mix of dense-window, sparse, and page-straddling addresses.
        for _ in 0..rng.gen_range(0usize..40) {
            let addr = rng.gen_range(0u64..0x40_0000) & !7;
            mem.store(addr, Val::Int(rng.gen_range(-1000i64..1000)));
        }
        let snap = mem.snapshot();
        let resident_at_snap = mem.resident_pages();
        let peeks: Vec<(u64, u64)> = (0..8)
            .map(|_| {
                let a = rng.gen_range(0u64..0x40_0000) & !7;
                (a, mem.peek(a))
            })
            .collect();

        // Scribble: capped stores past the snapshot's residency may be
        // refused; refused stores must leave memory untouched.
        let cap = resident_at_snap + rng.gen_range(0usize..3);
        let mut refused = 0;
        for _ in 0..rng.gen_range(1usize..60) {
            let addr = rng.gen_range(0u64..0x80_0000) & !7;
            let v = Val::Int(rng.gen_range(-9i64..9));
            match mem.store_capped(addr, v, cap) {
                Ok(()) => assert_eq!(mem.peek(addr), v.to_bits(), "case {case}"),
                Err(CapExceeded) => {
                    refused += 1;
                    assert_eq!(mem.peek(addr), 0, "case {case}: refused store wrote");
                }
            }
            assert!(mem.resident_pages() <= cap, "case {case}: cap breached");
        }
        let _ = refused;

        // Rollback: contents and accounting both return to the snapshot.
        let restored = snap.restore();
        assert!(restored.same_as(&snap), "case {case}: contents differ");
        assert_eq!(
            restored.resident_pages(),
            resident_at_snap,
            "case {case}: resident-page accounting not restored"
        );
        for (a, v) in peeks {
            assert_eq!(restored.peek(a), v, "case {case}: cell {a:#x} differs");
        }
    }
}

/// Cap violations are deterministic per seed: replaying the same store
/// sequence against the same cap refuses at the same index and ends at
/// the same resident-page count.
#[test]
fn cap_violations_are_deterministic_per_seed() {
    fn trip_profile(seed: u64, cap: usize) -> (Option<usize>, usize, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mem = Memory::new();
        let mut first_refusal = None;
        for i in 0..200 {
            let addr = rng.gen_range(0u64..0x100_0000) & !7;
            if mem
                .store_capped(addr, Val::Int(i as i64), cap)
                .is_err()
                && first_refusal.is_none()
            {
                first_refusal = Some(i);
            }
        }
        let digest = mem.snapshot();
        (first_refusal, mem.resident_pages(), {
            // Fold the final image into a comparable scalar via diff
            // against empty memory.
            Memory::new()
                .diff(&digest)
                .iter()
                .fold(0u64, |h, d| {
                    h.wrapping_mul(31).wrapping_add(d.addr ^ d.after)
                })
        })
    }
    for seed in [1u64, 0xC0FFEE, u64::MAX - 1] {
        for cap in [0usize, 1, 3, 16] {
            let a = trip_profile(seed, cap);
            let b = trip_profile(seed, cap);
            assert_eq!(a, b, "seed {seed:#x} cap {cap} not reproducible");
            assert!(a.1 <= cap, "seed {seed:#x} cap {cap}: residency over cap");
        }
    }
}

/// Every IR module this repository ships or generates is verifier-clean:
/// the example kernel text, all 29 suite workloads, and a sample of the
/// fuzz generator's output (the fuzzer's findings are only meaningful if
/// its inputs pass the same verifier `run-ir` enforces).
#[test]
fn shipped_and_generated_modules_are_verifier_clean() {
    use needle_ir::parse::parse_module;
    use needle_ir::verify::verify_module;
    use needle_workloads::{fuzz_case, FuzzSpec};

    let kernel = include_str!("../examples/kernel.needle");
    let m = parse_module(kernel).expect("example kernel parses");
    verify_module(&m).unwrap_or_else(|(f, e)| panic!("kernel.needle {f:?}: {e}"));
    assert!(m.find("saxpy_clip").is_some());

    for w in needle_workloads::all() {
        verify_module(&w.module)
            .unwrap_or_else(|(f, e)| panic!("workload {} {f:?}: {e}", w.name));
    }
    for seed in 0..50u64 {
        let case = fuzz_case(&FuzzSpec {
            seed,
            ..FuzzSpec::default()
        });
        verify_module(&case.module)
            .unwrap_or_else(|(f, e)| panic!("fuzz seed {seed} {f:?}: {e}"));
    }
}

/// For any stream seed, a chaos soak of the execution service — worker
/// panics, frame guard failures, deadline storms, fuel/page starvation —
/// preserves the serving invariants: every accepted request is answered
/// exactly once, never-accepted requests are never answered, and the
/// terminal counters balance (`accepted == completed + failed +
/// shed_after_accept`).
#[test]
fn chaos_soak_is_exactly_once_for_any_seed() {
    use needle::{run_soak, ServeConfig, SoakConfig, SoakScenario, StormConfig};
    let mut rng = StdRng::seed_from_u64(0x1B16);
    for case in 0..4 {
        let seed = rng.gen_range(0u64..u64::MAX);
        let cfg = SoakConfig {
            seed,
            requests: 120,
            scenario: SoakScenario::Mixed { chaos: true },
            serve: ServeConfig {
                workers: 2,
                queue_depth: 16,
                breaker: StormConfig {
                    threshold: 3,
                    cooldown: 2,
                    retry_budget: 4,
                },
                drain_ms: 5_000,
                ..ServeConfig::default()
            },
            ..SoakConfig::default()
        };
        let report = run_soak(&cfg).unwrap();
        assert!(
            report.is_clean(),
            "case {case} (seed {seed:#x}) violated serving invariants:\n{report}"
        );
        assert_eq!(
            report.responses, report.accepted,
            "case {case} (seed {seed:#x}): response count diverged from acceptances"
        );
        assert!(
            report.metrics.trips() >= 1 && report.metrics.recoveries() >= 1,
            "case {case} (seed {seed:#x}): breaker never cycled:\n{report}"
        );
    }
}

#[test]
fn bl_numbering_counts_match_profile_on_suite_sample() {
    // Non-random cross-check: distinct profiled path ids are always within
    // the numbering's dense id space.
    use needle_ir::interp::Interp;
    use needle_profile::profiler::PathProfiler;
    for name in ["164.gzip", "458.sjeng", "fft-2d"] {
        let w = needle_workloads::by_name(name).unwrap();
        let mut prof = PathProfiler::new(&w.module);
        let mut mem = w.memory.clone();
        Interp::new(&w.module)
            .run(w.func, &w.args, &mut mem, &mut prof)
            .unwrap();
        let bl = prof.numbering(w.func).unwrap();
        for id in prof.profile(w.func).counts.ids() {
            assert!(id < bl.num_paths(), "{name}: path id out of range");
            bl.decode(id).unwrap();
        }
    }
}

/// Symbolic-vs-differential verdict agreement: for 300 seeded fuzz
/// cases, the four-legged oracle in `check_case` must never report a
/// `symeq:*` disagreement — in particular, any frame the certifier
/// *proves* equivalent must never diverge under the concrete
/// differential frame leg. The tally assertion keeps the property
/// non-vacuous: a healthy share of seeds must actually reach `Proved`
/// rather than skipping or timing out.
#[test]
fn symbolic_and_differential_verdicts_agree_over_fuzz_seeds() {
    use needle::fuzz::FUZZ_MAX_STEPS;
    use needle::{check_case, Invocation, SymLeg};
    use needle_workloads::{fuzz_case, FuzzSpec};

    let mut proved = 0u32;
    let mut inconclusive = 0u32;
    for seed in 0..300u64 {
        let case = fuzz_case(&FuzzSpec {
            seed,
            ..FuzzSpec::default()
        });
        let inv = Invocation {
            module: case.module,
            func: case.func,
            args: case.args,
            memory: case.memory,
        };
        let out = check_case(&inv, FUZZ_MAX_STEPS)
            .unwrap_or_else(|f| panic!("seed {seed}: oracle disagreement:\n{f:#?}"));
        match out.symeq {
            SymLeg::Proved => proved += 1,
            SymLeg::Inconclusive => inconclusive += 1,
            SymLeg::Skipped => {}
        }
    }
    assert!(
        proved >= 10,
        "property is vacuous: {proved} of 300 seeds proved, {inconclusive} inconclusive"
    );
}

/// The verdict cache round-trips decided verdicts across restarts and
/// recovers from a torn tail: a crash mid-append costs at most the torn
/// record, never the cache, and the recovered journal keeps accepting
/// appends.
#[test]
fn verdict_cache_roundtrip_and_corruption_recovery() {
    use needle::{certify_cached, CertStats, VerdictJournal};
    use needle_frames::{frame_fingerprint, CertConfig, CertVerdict, FrameValue};

    let dir = std::env::temp_dir().join(format!("needle-props-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verdicts.jsonl");

    let f = diamond_chain(&[(2, 1, 5)]);
    let region = OffloadRegion::from_path(&[BlockId(0), BlockId(1), BlockId(3)], 1, 1.0);
    let good = build_frame(&f, &region).unwrap();
    // A miscompiled sibling: the live-out is pinned to a constant the
    // region does not compute, so certification must refute it.
    let mut bad = good.clone();
    bad.live_outs[0].value = FrameValue::Const(Constant::Int(0x5EED));

    let cfg = CertConfig::default();
    let mut stats = CertStats::default();
    {
        let mut j = VerdictJournal::open(&path).unwrap();
        let r = certify_cached(&f, &good, &cfg, Some(&mut j), &mut stats).unwrap();
        assert!(!r.cached, "first certification cannot be a cache hit");
        assert!(
            matches!(r.cert.verdict, CertVerdict::Proved),
            "clean frame must prove, got {:?}",
            r.cert.verdict
        );
        let r = certify_cached(&f, &good, &cfg, Some(&mut j), &mut stats).unwrap();
        assert!(r.cached && matches!(r.cert.verdict, CertVerdict::Proved));

        let r = certify_cached(&f, &bad, &cfg, Some(&mut j), &mut stats).unwrap();
        assert!(!r.cached);
        assert!(
            matches!(r.cert.verdict, CertVerdict::Refuted(_)),
            "pinned live-out must be refuted, got {:?}",
            r.cert.verdict
        );
        assert_eq!(j.len(), 2, "both decided verdicts recorded");
    }
    assert_eq!(stats.cache_hits, 1);

    // Restart: both verdicts survive and answer from the cache; the
    // refutation rehydrates with a full-width counterexample.
    {
        let mut j = VerdictJournal::open(&path).unwrap();
        assert_eq!(j.recovered_drops, 0);
        assert_eq!(j.len(), 2);
        let r = certify_cached(&f, &good, &cfg, Some(&mut j), &mut stats).unwrap();
        assert!(r.cached && matches!(r.cert.verdict, CertVerdict::Proved));
        let r = certify_cached(&f, &bad, &cfg, Some(&mut j), &mut stats).unwrap();
        assert!(r.cached);
        let CertVerdict::Refuted(cex) = r.cert.verdict else {
            panic!("refutation lost in round-trip");
        };
        assert_eq!(cex.live_ins.len(), bad.live_ins.len());
    }

    // Crash mid-append: a torn half-record on the tail.
    {
        use std::io::Write;
        let mut fh = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        fh.write_all(b"{\"fp\":\"dead").unwrap();
    }
    let mut j = VerdictJournal::open(&path).unwrap();
    assert_eq!(j.recovered_drops, 1, "torn tail record must be dropped");
    assert_eq!(j.len(), 2, "valid prefix must survive the torn tail");
    assert!(j.lookup(frame_fingerprint(&good)).is_some());

    // The recovered journal keeps accepting appends: a third decided
    // verdict lands and survives yet another restart.
    let mut worse = good.clone();
    worse.live_outs[0].value = FrameValue::Const(Constant::Int(0x0BAD));
    let r = certify_cached(&f, &worse, &cfg, Some(&mut j), &mut stats).unwrap();
    assert!(!r.cached && matches!(r.cert.verdict, CertVerdict::Refuted(_)));
    drop(j);
    let j = VerdictJournal::open(&path).unwrap();
    assert_eq!(j.recovered_drops, 0, "recovery must leave a clean file");
    assert_eq!(j.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}
