//! Symbolic frame certification: committed miscompile corpus plus the
//! malformed-frame hardening corpus.
//!
//! The first half replays `tests/corpus/dce_live_store.needle` — the
//! regression shape for the "side-effecting op treated as dead" class of
//! miscompile. The certifier must prove the frame built from the corpus
//! region, and refute the frame with the store dropped, with a
//! counterexample that replays as a *real* divergence from the source
//! region.
//!
//! The second half mirrors the IR parser's malformed-program corpus at
//! the frame layer: structurally broken frames (undefined slots, forward
//! references, missing operands, bogus guard indices) must surface as
//! typed errors from every consumer — `validate`, the executor, and the
//! certifier — and never panic.

use std::path::Path;

use needle_frames::{
    build_frame, certify_frame, run_frame, verify_invocation, CertConfig, CertVerdict, Frame,
    FrameOpKind, FrameValue,
};
use needle_ir::interp::{Memory, Val};
use needle_ir::parse::parse_module;
use needle_ir::verify::verify_module;
use needle_ir::{BlockId, Constant, FuncId, Function, Module, Type};
use needle_regions::OffloadRegion;

fn corpus_module() -> Module {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/dce_live_store.needle");
    let text = std::fs::read_to_string(&path).expect("committed corpus file exists");
    let module = parse_module(&text).expect("corpus module parses");
    verify_module(&module).expect("corpus module verifies");
    module
}

fn corpus_frame(func: &Function) -> Frame {
    let region = OffloadRegion::from_path(&[BlockId(0), BlockId(1)], 1, 1.0);
    let frame = build_frame(func, &region).expect("corpus region builds");
    frame.validate().expect("built frame validates");
    frame
}

/// Drop the store the way a dead-code pass that forgets side effects
/// would: its result is unused, so the store is rewritten to dead
/// arithmetic.
fn drop_live_store(frame: &mut Frame) {
    let at = frame
        .ops
        .iter()
        .position(|o| matches!(o.kind, FrameOpKind::Store))
        .expect("corpus frame has a store");
    frame.ops[at].kind = FrameOpKind::Compute(needle_ir::Op::Add);
    frame.ops[at].args = vec![
        FrameValue::Const(Constant::Int(0)),
        FrameValue::Const(Constant::Int(0)),
    ];
    frame.ops[at].pred = None;
    frame.undo_log_size = 0;
}

#[test]
fn committed_dce_repro_is_refuted_with_replayable_counterexample() {
    let module = corpus_module();
    let func = module.func(FuncId(0));
    let frame = corpus_frame(func);

    // The frame built from the corpus region is equivalent to it.
    let cert = certify_frame(func, &frame, &CertConfig::default()).expect("certifier runs");
    assert!(
        matches!(cert.verdict, CertVerdict::Proved),
        "the corpus frame must prove: {:?}",
        cert.verdict
    );

    // The frame with its live store dropped is refuted with a concrete
    // counterexample.
    let mut broken = frame.clone();
    drop_live_store(&mut broken);
    let cert = certify_frame(func, &broken, &CertConfig::default()).expect("certifier runs");
    let CertVerdict::Refuted(cex) = cert.verdict else {
        panic!("dropped live store must be refuted, got {:?}", cert.verdict);
    };

    // Replay the counterexample: the broken frame must observably
    // diverge from the source region on exactly those inputs.
    let mut mem = Memory::new();
    for &(addr, bits) in &cex.mem_seed {
        mem.store(addr, Val::from_bits(bits, Type::I64));
    }
    let snapshot = mem.snapshot();
    let outcome = run_frame(&broken, &cex.live_ins, &mut mem).expect("broken frame runs");
    let verdict = verify_invocation(func, &broken, &cex.live_ins, &snapshot, &mem, &outcome)
        .expect("reference region runs");
    assert!(
        !verdict.is_clean(),
        "counterexample {cex:?} did not replay as a divergence"
    );
}

/// One malformed-frame corpus case: a name, a mutation of the valid
/// corpus frame, and the substring `validate` must report.
type Case = (&'static str, fn(&mut Frame), &'static str);

const CORPUS: &[Case] = &[
    ("forward-arg", |f| f.ops[0].args[0] = FrameValue::Op(2), "forward value"),
    ("self-arg", |f| {
        let last = f.ops.len() - 1;
        f.ops[last].args[0] = FrameValue::Op(last);
    }, "forward value"),
    ("undefined-op-slot", |f| {
        let last = f.ops.len() - 1;
        f.ops[last].args[0] = FrameValue::Op(99);
    }, "forward value"),
    ("undefined-live-in", |f| f.ops[0].args[1] = FrameValue::LiveIn(99), "out-of-range live-in"),
    ("missing-compute-arg", |f| f.ops[0].args.truncate(1), "needs 2"),
    ("missing-store-address", |f| {
        let at = f
            .ops
            .iter()
            .position(|o| matches!(o.kind, FrameOpKind::Store))
            .expect("store present");
        f.ops[at].args.truncate(1);
    }, "needs 2"),
    ("armless-guard", |f| {
        f.ops.push(needle_frames::FrameOp {
            kind: FrameOpKind::Guard { expected: true },
            args: vec![],
            ty: Type::I1,
            pred: None,
            src: None,
            imm: 0,
        });
        f.guards.push(f.ops.len() - 1);
    }, "needs 1"),
    ("guard-index-not-a-guard", |f| f.guards = vec![0], "not a Guard op"),
    ("guard-index-undefined", |f| f.guards = vec![99], "not a Guard op"),
    ("dangling-live-out", |f| f.live_outs[0].value = FrameValue::Op(99), "out-of-range op"),
    ("forward-pred", |f| {
        let at = f
            .ops
            .iter()
            .position(|o| matches!(o.kind, FrameOpKind::Store))
            .expect("store present");
        f.ops[at].pred = Some(FrameValue::Op(f.ops.len() - 1));
    }, "forward value"),
    ("pred-undefined-live-in", |f| {
        let at = f
            .ops
            .iter()
            .position(|o| matches!(o.kind, FrameOpKind::Store))
            .expect("store present");
        f.ops[at].pred = Some(FrameValue::LiveIn(99));
    }, "out-of-range live-in"),
];

#[test]
fn malformed_frame_corpus_yields_typed_errors_never_panics() {
    let module = corpus_module();
    let func = module.func(FuncId(0));
    let pristine = corpus_frame(func);
    let live_ins: Vec<Val> = pristine
        .live_ins
        .iter()
        .map(|_| Val::Int(0x40))
        .collect();

    for (name, mutate, expect) in CORPUS {
        let mut frame = pristine.clone();
        mutate(&mut frame);

        let err = frame
            .validate()
            .expect_err(&format!("case {name}: validate must reject"));
        assert!(
            err.contains(expect),
            "case {name}: validate said {err:?}, expected substring {expect:?}"
        );

        // Every downstream consumer must degrade to a typed error (or a
        // harmless no-op), never a panic. The assertions are the calls
        // themselves: a panic fails the test with the case visible in
        // the backtrace.
        let mut mem = Memory::new();
        let _ = run_frame(&frame, &live_ins, &mut mem);
        let _ = certify_frame(func, &frame, &CertConfig::quick());
    }
}
