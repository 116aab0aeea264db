//! Frame transformations.
//!
//! [`concat_frames`] is §IV-A target expansion materialized: stitch
//! copies of a frame back-to-back, wiring loop-carried live-outs of one
//! copy into the live-ins of the next, to build a multi-iteration
//! offload unit.

use std::collections::HashMap;
use std::fmt;

use crate::frame::{Frame, FrameValue, LiveOut};

/// Frame expansion failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptError {
    /// A loop-carried pair references a live-out index out of range.
    BadLoopCarried {
        /// The offending live-out index.
        index: usize,
    },
    /// `concat_frames` was asked for zero copies.
    ZeroCopies,
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::BadLoopCarried { index } => {
                write!(f, "loop-carried pair references live-out {index} out of range")
            }
            OptError::ZeroCopies => write!(f, "frame expansion requires at least one copy"),
        }
    }
}

impl std::error::Error for OptError {}

/// Concatenate a frame with itself `copies` times, wiring each iteration's
/// loop-carried live-outs into the next iteration's live-ins (§IV-A: the
/// same path repeats back-to-back in 17 of 29 workloads, enabling 2×
/// offload units).
///
/// Live-ins that are not loop-carried are shared across copies; live-outs
/// are taken from the final copy. Guards of every copy accumulate: the
/// expanded frame aborts if any iteration would have diverged.
pub fn concat_frames(frame: &Frame, copies: usize) -> Result<Frame, OptError> {
    if copies == 0 {
        return Err(OptError::ZeroCopies);
    }
    let mut out = frame.clone();
    for _ in 1..copies {
        let base = out.ops.len();
        // live-in index -> frame value feeding the next copy
        let mut carried: HashMap<usize, FrameValue> = HashMap::new();
        for (li, lo) in &frame.loop_carried {
            let value = out
                .live_outs
                .get(*lo)
                .ok_or(OptError::BadLoopCarried { index: *lo })?
                .value;
            carried.insert(*li, value);
        }
        let map_value = |v: FrameValue| -> FrameValue {
            match v {
                FrameValue::Op(i) => FrameValue::Op(i + base),
                FrameValue::LiveIn(k) => carried.get(&k).copied().unwrap_or(FrameValue::LiveIn(k)),
                c => c,
            }
        };
        for op in &frame.ops {
            let mut cloned = op.clone();
            for a in &mut cloned.args {
                *a = map_value(*a);
            }
            if let Some(p) = &mut cloned.pred {
                *p = map_value(*p);
            }
            out.ops.push(cloned);
        }
        out.guards
            .extend(frame.guards.iter().map(|g| g + base));
        // Live-outs now come from the new copy.
        out.live_outs = frame
            .live_outs
            .iter()
            .map(|lo| LiveOut {
                inst: lo.inst,
                value: map_value(lo.value),
            })
            .collect();
        out.undo_log_size += frame.undo_log_size;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_frame;
    use crate::exec::{run_frame, FrameOutcome};
    use needle_ir::builder::FunctionBuilder;
    use needle_ir::interp::{Memory, Val};
    use needle_ir::{BlockId, Type, Value as V};
    use needle_regions::OffloadRegion;

    /// i2 = i + 1; s2 = s + i*3; guard(i2 < n)  — a loop-iteration frame.
    fn iteration_frame() -> Frame {
        let mut fb = FunctionBuilder::new("it", &[Type::I64], Some(Type::I64));
        let entry = fb.entry();
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.switch_to(entry);
        fb.br(head);
        fb.switch_to(head);
        let i = fb.phi(Type::I64, &[(entry, V::int(0))]);
        let s = fb.phi(Type::I64, &[(entry, V::int(0))]);
        let c = fb.icmp_slt(i, fb.arg(0));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let t = fb.mul(i, V::int(3));
        let s2 = fb.add(s, t);
        let i2 = fb.add(i, V::int(1));
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(s));
        let mut f = fb.finish();
        let i_id = i.as_inst().unwrap();
        let s_id = s.as_inst().unwrap();
        f.inst_mut(i_id).args.push(i2);
        f.inst_mut(i_id).phi_blocks.push(body);
        f.inst_mut(s_id).args.push(s2);
        f.inst_mut(s_id).phi_blocks.push(body);
        build_frame(&f, &OffloadRegion::from_path(&[BlockId(1), BlockId(2)], 10, 0.9)).unwrap()
    }

    #[test]
    fn concat_doubles_ops_and_chains_induction() {
        let frame = iteration_frame();
        assert!(!frame.loop_carried.is_empty(), "loop-carried pairs detected");
        let double = concat_frames(&frame, 2).unwrap();
        double.validate().unwrap();
        assert_eq!(double.num_ops(), frame.num_ops() * 2);
        assert_eq!(double.guards.len(), frame.guards.len() * 2);
        // Execute: i=0, s=0, n=100. Two iterations: s = 0*3 + 1*3 = 3, i = 2.
        let lv: Vec<Val> = double
            .live_ins
            .iter()
            .map(|li| match li.value {
                V::Arg(0) => Val::Int(100),
                V::Inst(_) => Val::Int(0),
                other => panic!("{other:?}"),
            })
            .collect();
        let mut mem = Memory::new();
        let out = run_frame(&double, &lv, &mut mem).unwrap();
        let FrameOutcome::Committed { live_outs, .. } = out else {
            panic!("expected commit: {out:?}");
        };
        assert!(live_outs.contains(&Val::Int(2)), "i after 2 iters: {live_outs:?}");
        assert!(live_outs.contains(&Val::Int(3)), "s after 2 iters: {live_outs:?}");
    }

    #[test]
    fn concat_guard_fails_when_second_iteration_diverges() {
        let frame = iteration_frame();
        let double = concat_frames(&frame, 2).unwrap();
        // n = 1: the first iteration's guard (i=0 < 1) passes but the
        // second copy's guard (i=1 < 1) fails — the expanded unit aborts
        // as a whole.
        let lv: Vec<Val> = double
            .live_ins
            .iter()
            .map(|li| match li.value {
                V::Arg(0) => Val::Int(1),
                V::Inst(_) => Val::Int(0),
                other => panic!("{other:?}"),
            })
            .collect();
        let mut mem = Memory::new();
        let out = run_frame(&double, &lv, &mut mem).unwrap();
        assert!(!out.committed(), "{out:?}");
    }
}
