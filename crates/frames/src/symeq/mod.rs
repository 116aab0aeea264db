//! Symbolic frame certification.
//!
//! Proves (or refutes) that a frame is equivalent to its source region
//! over **all** live-in values and initial memories, not just the
//! concrete inputs a differential probe happened to draw:
//!
//! 1. [`encode`] translates both sides into a shared 64-bit bit-vector
//!    term graph (loads/stores via a cell-indexed select/store memory
//!    theory, guards and branches as path conditions) whose folding
//!    rules mirror the concrete interpreters bit-for-bit;
//! 2. [`term`] hash-conses and algebraically normalizes the graph, so
//!    syntactic equality discharges most obligations outright;
//! 3. residual obligations are [`lower`](term::lower)ed (memory
//!    Ackermannized away) and [`blast`]ed to CNF for the in-house CDCL
//!    core in [`sat`], under configurable clause/conflict budgets.
//!
//! The verdict is deliberately four-valued: `Proved` and `Refuted` are
//! *decisions* (a refutation always carries a counterexample that has
//! already replayed as a concrete divergence through the differential
//! verifier — a model that fails to replay is reported as
//! `Unsupported`, never as a false refutation); `Timeout` and
//! `Unsupported` are honest fallbacks that tell the caller to keep
//! using the differential probe and why.

pub mod blast;
pub mod cache;
pub mod encode;
pub mod sat;
pub mod term;

use needle_ir::interp::{Memory, Val};
use needle_ir::{Function, Type};

use crate::exec::run_frame;
use crate::frame::Frame;
use crate::verify::verify_invocation;
pub use cache::{fnv1a64, frame_fingerprint};
use encode::{encode_frame, encode_region, EncodeStop, FrameEnc, RegionBudget};
use term::{lower, Pool, TermId};

/// Budgets for one certification attempt.
#[derive(Debug, Clone)]
pub struct CertConfig {
    /// Maximum control-flow paths explored through the region.
    pub max_paths: usize,
    /// Maximum region instructions walked across all paths.
    pub max_steps: usize,
    /// Maximum distinct terms before the attempt times out.
    pub max_terms: usize,
    /// Maximum CNF clauses the bit-blaster may emit.
    pub max_clauses: usize,
    /// Maximum SAT conflicts before the attempt times out.
    pub max_conflicts: u64,
}

impl Default for CertConfig {
    fn default() -> CertConfig {
        CertConfig {
            max_paths: 512,
            max_steps: 4096,
            max_terms: 200_000,
            max_clauses: 400_000,
            max_conflicts: 50_000,
        }
    }
}

impl CertConfig {
    /// A small budget for per-case fuzzing cross-checks.
    pub fn quick() -> CertConfig {
        CertConfig {
            max_paths: 64,
            max_steps: 1024,
            max_terms: 50_000,
            max_clauses: 120_000,
            max_conflicts: 8_000,
        }
    }
}

/// A concrete input that makes the two sides disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterExample {
    /// Live-in values, in frame signature order.
    pub live_ins: Vec<Val>,
    /// Initial memory image: `(byte address, 64-bit cell value)` pairs;
    /// every unlisted cell is zero.
    pub mem_seed: Vec<(u64, u64)>,
}

/// The checker's judgement.
#[derive(Debug, Clone, PartialEq)]
pub enum CertVerdict {
    /// Equivalent for every live-in vector and initial memory.
    Proved,
    /// Not equivalent; the counterexample replays as a real divergence.
    Refuted(CounterExample),
    /// A budget ran out before a decision.
    Timeout {
        /// Which budget, and where.
        why: String,
    },
    /// The fragment is outside the checker's theory (floats, symbolic
    /// division, loop-carried frames, …).
    Unsupported {
        /// What was out of scope.
        why: String,
    },
}

impl CertVerdict {
    /// Short lowercase tag for logs and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            CertVerdict::Proved => "proved",
            CertVerdict::Refuted(_) => "refuted",
            CertVerdict::Timeout { .. } => "timeout",
            CertVerdict::Unsupported { .. } => "unsupported",
        }
    }
}

/// Solver effort behind a verdict.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Equivalence obligations generated.
    pub obligations: usize,
    /// Obligations discharged by normalization alone.
    pub discharged_syntactically: usize,
    /// Distinct terms in the shared graph.
    pub terms: usize,
    /// CNF variables (0 when no SAT call was needed).
    pub sat_vars: usize,
    /// CNF clauses.
    pub sat_clauses: usize,
    /// SAT conflicts spent.
    pub conflicts: u64,
}

/// A verdict plus the effort that produced it.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The judgement.
    pub verdict: CertVerdict,
    /// Search statistics.
    pub stats: SolveStats,
}

/// Structural errors: the frame under certification is malformed.
/// These are typed errors, distinct from `Unsupported` verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymEqError {
    /// An op references an undefined slot, a forward/cyclic value, or
    /// is missing a required argument.
    Malformed {
        /// Index of the offending op.
        op: usize,
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for SymEqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymEqError::Malformed { op, what } => {
                write!(f, "malformed frame at op {op}: {what}")
            }
        }
    }
}

impl std::error::Error for SymEqError {}

enum Outcome {
    Verdict(CertVerdict),
    Sat(Vec<u64>, Vec<(u64, u64)>),
}

/// Lower, blast, and solve the collected `bad` terms.
/// Returns either a final verdict (proved/timeout/unsupported) or a
/// satisfying assignment (candidate counterexample) to be replayed.
fn discharge(
    pool: &mut Pool,
    bads: Vec<TermId>,
    live_in_count: usize,
    cfg: &CertConfig,
    stats: &mut SolveStats,
) -> Outcome {
    stats.obligations = bads.len();
    let residual: Vec<TermId> = bads
        .into_iter()
        .filter(|&b| !matches!(pool.node(b), term::Node::Const(0)))
        .collect();
    stats.discharged_syntactically = stats.obligations - residual.len();
    if residual.is_empty() {
        stats.terms = pool.len();
        return Outcome::Verdict(CertVerdict::Proved);
    }
    let mut any_bad = pool.cst(0);
    for b in residual {
        any_bad = pool.or2(any_bad, b);
    }
    let lowered = lower(pool, &[any_bad]);
    stats.terms = pool.len();
    if pool.len() > cfg.max_terms {
        return Outcome::Verdict(CertVerdict::Timeout {
            why: format!("term budget exceeded ({} terms)", pool.len()),
        });
    }

    let mut blaster = blast::Blaster::new(pool, cfg.max_clauses);
    let mut assert_all = || -> Result<(), blast::BlastError> {
        blaster.assert_truth(lowered.roots[0])?;
        for &ax in &lowered.axioms {
            blaster.assert_truth(ax)?;
        }
        Ok(())
    };
    if let Err(e) = assert_all() {
        return Outcome::Verdict(match e {
            blast::BlastError::ClauseBudget => CertVerdict::Timeout {
                why: "clause budget exceeded".into(),
            },
            blast::BlastError::Unsupported(what) => CertVerdict::Unsupported { why: what.into() },
        });
    }
    let (n_vars, clauses, var_bits) = blaster.finish();
    stats.sat_vars = n_vars;
    stats.sat_clauses = clauses.len();

    let mut solver = sat::Solver::new(n_vars);
    for c in &clauses {
        if !solver.add_clause(c) {
            // Root-level unsat: no assignment violates the obligations.
            return Outcome::Verdict(CertVerdict::Proved);
        }
    }
    let result = solver.solve(cfg.max_conflicts);
    stats.conflicts = solver.stats.conflicts;
    match result {
        sat::SatResult::Unsat => Outcome::Verdict(CertVerdict::Proved),
        sat::SatResult::Unknown => Outcome::Verdict(CertVerdict::Timeout {
            why: format!("conflict budget exceeded ({} conflicts)", cfg.max_conflicts),
        }),
        sat::SatResult::Sat(model) => {
            // Decode every pool variable (live-ins first, then the
            // Ackermannized initial-memory reads).
            let all_vars: Vec<u64> = (0..pool.var_count())
                .map(|i| blast::decode_var(&var_bits, &model, i))
                .collect();
            let live_ins = all_vars.iter().take(live_in_count).copied().collect();
            let empty = std::collections::HashMap::new();
            let mut seeds = Vec::new();
            for &(addr_term, read_var) in &lowered.reads {
                let cell = pool.eval(addr_term, &all_vars, &empty);
                let val = pool.eval(read_var, &all_vars, &empty);
                seeds.push((cell.wrapping_mul(8), val));
            }
            Outcome::Sat(live_ins, seeds)
        }
    }
}

fn seed_memory(seeds: &[(u64, u64)]) -> Memory {
    let mut mem = Memory::new();
    for &(addr, bits) in seeds {
        mem.store(addr, Val::from_bits(bits, Type::I64));
    }
    mem
}

fn live_in_vals(frame: &Frame, raw: &[u64]) -> Vec<Val> {
    frame
        .live_ins
        .iter()
        .zip(raw)
        .map(|(li, &bits)| Val::from_bits(bits, li.ty))
        .collect()
}

fn stop_to_result(stop: EncodeStop, stats: SolveStats) -> Result<Certificate, SymEqError> {
    match stop {
        EncodeStop::Malformed { op, what } => Err(SymEqError::Malformed { op, what }),
        EncodeStop::Unsupported(why) => Ok(Certificate {
            verdict: CertVerdict::Unsupported { why },
            stats,
        }),
        EncodeStop::Budget(why) => Ok(Certificate {
            verdict: CertVerdict::Timeout { why },
            stats,
        }),
    }
}

/// Collect the cross-side obligations ("bad" terms, each satisfiable
/// only by a diverging input) for a frame encoding against a set of
/// committing paths.
fn frame_vs_region_bads(
    pool: &mut Pool,
    f: &FrameEnc,
    r: &encode::RegionEnc,
) -> Vec<TermId> {
    let mut bads = Vec::new();
    bads.push(pool.cmp(needle_ir::CmpOp::Ne, f.commit, r.commit));
    for p in &r.paths {
        for (j, plo) in p.live_outs.iter().enumerate() {
            // The differential verifier only compares live-outs the
            // reference walk defined; mirror that exactly.
            if let Some(t) = plo {
                let ne = pool.cmp(needle_ir::CmpOp::Ne, f.live_outs[j], *t);
                bads.push(pool.and2(p.cond, ne));
            }
        }
        let mut cells: Vec<TermId> = Vec::new();
        for &c in f.store_cells.iter().chain(&p.store_cells) {
            if !cells.contains(&c) {
                cells.push(c);
            }
        }
        for c in cells {
            let fv = pool.sel(f.mem, c);
            let rv = pool.sel(p.mem, c);
            let ne = pool.cmp(needle_ir::CmpOp::Ne, fv, rv);
            bads.push(pool.and2(p.cond, ne));
        }
    }
    bads
}

/// Certify `frame` against its source region in `func` over all
/// live-in values and initial memories.
///
/// # Errors
/// [`SymEqError::Malformed`] if the frame is structurally broken
/// (undefined slots, forward/cyclic references, missing arguments) —
/// never a panic.
pub fn certify_frame(
    func: &Function,
    frame: &Frame,
    cfg: &CertConfig,
) -> Result<Certificate, SymEqError> {
    let mut stats = SolveStats::default();
    let mut pool = Pool::new();
    let fenc = match encode_frame(&mut pool, frame) {
        Ok(e) => e,
        Err(stop) => return stop_to_result(stop, stats),
    };
    let budget = RegionBudget {
        max_paths: cfg.max_paths,
        max_steps: cfg.max_steps,
    };
    let renc = match encode_region(&mut pool, func, frame, &budget) {
        Ok(e) => e,
        Err(stop) => return stop_to_result(stop, stats),
    };
    if pool.len() > cfg.max_terms {
        return Ok(Certificate {
            verdict: CertVerdict::Timeout {
                why: format!("term budget exceeded ({} terms)", pool.len()),
            },
            stats,
        });
    }

    let bads = frame_vs_region_bads(&mut pool, &fenc, &renc);
    let n_live = frame.live_ins.len();
    match discharge(&mut pool, bads, n_live, cfg, &mut stats) {
        Outcome::Verdict(v) => Ok(Certificate { verdict: v, stats }),
        Outcome::Sat(raw_live_ins, seeds) => {
            // Soundness gate: the model must replay as a concrete
            // divergence through the differential verifier.
            let live_ins = live_in_vals(frame, &raw_live_ins);
            let mut mem = seed_memory(&seeds);
            let snapshot = mem.snapshot();
            let diverged = match run_frame(frame, &live_ins, &mut mem) {
                Err(e) => {
                    return Err(SymEqError::Malformed {
                        op: match e {
                            crate::exec::ExecFrameError::MalformedFrame { op, .. } => op,
                            crate::exec::ExecFrameError::LiveInArity { .. } => 0,
                        },
                        what: "frame execution failed on the counterexample",
                    })
                }
                Ok(outcome) => {
                    match verify_invocation(func, frame, &live_ins, &snapshot, &mem, &outcome) {
                        Ok(verdict) => !verdict.is_clean(),
                        Err(_) => false, // reference could not run: can't confirm
                    }
                }
            };
            let verdict = if diverged {
                CertVerdict::Refuted(CounterExample {
                    live_ins,
                    mem_seed: seeds,
                })
            } else {
                CertVerdict::Unsupported {
                    why: "candidate counterexample did not replay as a divergence".into(),
                }
            };
            Ok(Certificate { verdict, stats })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_frame;
    use needle_ir::parse::parse_function;
    use needle_regions::OffloadRegion;

    fn straightline() -> (Function, Frame) {
        let func = parse_function(
            "fn @k(i64 %arg0, i64 %arg1, i64 %arg2) -> i64 {\n\
             bb0:\n\
             %0 = add i64 %arg0, %arg1\n\
             store %0, %arg2\n\
             br bb1\n\
             bb1:\n\
             %2 = mul i64 %0, %arg0\n\
             ret %2\n\
             }",
        )
        .expect("parse");
        let region = OffloadRegion::from_path(
            &[needle_ir::BlockId(0), needle_ir::BlockId(1)],
            1,
            1.0,
        );
        let frame = build_frame(&func, &region).expect("build");
        (func, frame)
    }

    #[test]
    fn correct_frame_is_proved() {
        let (func, frame) = straightline();
        let cert = certify_frame(&func, &frame, &CertConfig::default()).expect("certify");
        assert_eq!(cert.verdict, CertVerdict::Proved, "stats: {:?}", cert.stats);
    }

    #[test]
    fn dropping_a_live_store_is_refuted_with_replayable_counterexample() {
        let (func, mut frame) = straightline();
        let store_at = frame
            .ops
            .iter()
            .position(|o| matches!(o.kind, crate::frame::FrameOpKind::Store))
            .expect("frame has a store");
        // Miscompile: DCE "decides" the store is dead and drops it. Ops
        // after the store only reference earlier slots, so removal is
        // representable by replacing it with a no-op compute.
        frame.ops[store_at].kind = crate::frame::FrameOpKind::Compute(needle_ir::Op::Add);
        frame.ops[store_at].args = vec![
            crate::frame::FrameValue::Const(needle_ir::Constant::Int(0)),
            crate::frame::FrameValue::Const(needle_ir::Constant::Int(0)),
        ];
        frame.undo_log_size = 0;
        let cert = certify_frame(&func, &frame, &CertConfig::default()).expect("certify");
        let CertVerdict::Refuted(cex) = &cert.verdict else {
            panic!("expected Refuted, got {:?}", cert.verdict);
        };
        // The counterexample must replay as a real divergence.
        let mut mem = seed_memory(&cex.mem_seed);
        let snapshot = mem.snapshot();
        let outcome = run_frame(&frame, &cex.live_ins, &mut mem).expect("run");
        let verdict =
            verify_invocation(&func, &frame, &cex.live_ins, &snapshot, &mem, &outcome)
                .expect("verify");
        assert!(!verdict.is_clean(), "counterexample must diverge");
    }

    #[test]
    fn malformed_forward_reference_is_a_typed_error() {
        let (func, mut frame) = straightline();
        // Op 0 referencing op 0 is a cyclic (self) def.
        frame.ops[0].args = vec![crate::frame::FrameValue::Op(0)];
        let err = certify_frame(&func, &frame, &CertConfig::default()).unwrap_err();
        assert!(matches!(err, SymEqError::Malformed { op: 0, .. }));
    }
}
