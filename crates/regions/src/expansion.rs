//! BL-path target expansion across loop back edges (§IV-A, Table III).
//!
//! BL-paths are acyclic; to enlarge offload units across loop iterations,
//! Needle measures how predictable the successor of the hottest path is.
//! The profile's `(prev, next)` pair counts (paths completed back to back
//! within one invocation) give that statistic directly. A strongly-biased
//! successor lets the compiler sequence two (or more) path bodies into one
//! offload unit.

use std::cmp::Reverse;

use needle_profile::profiler::PathProfile;
use needle_profile::rank::FunctionRank;

/// Next-path predictability of the hottest path (one Table III row).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionStats {
    /// The hottest path's id.
    pub top_path: u64,
    /// Id of its most frequent successor path.
    pub next_path: u64,
    /// Fraction of occurrences followed by `next_path` (the *path sequence
    /// bias*).
    pub seq_bias: f64,
    /// Whether the hottest path repeats itself back-to-back.
    pub repeats_self: bool,
    /// Static ops of the expanded unit (top + successor) relative to the
    /// top path alone — the "+Ops" column (2.0 when the same path repeats).
    pub ops_growth: f64,
    /// Occurrences of the top path followed by another path in the same
    /// invocation.
    pub occurrences: u64,
}

/// Compute next-path expansion statistics from a profile's path pairs.
///
/// Returns `None` when the hottest path is never followed by another path
/// within one invocation (no pair starts with it).
pub fn expansion_stats(rank: &FunctionRank, profile: &PathProfile) -> Option<ExpansionStats> {
    let top = rank.top()?;
    let successors = profile
        .pairs
        .iter()
        .filter(|((prev, _), _)| *prev == top.id)
        .map(|((_, next), n)| (*next, *n));
    let occurrences: u64 = successors.clone().map(|(_, n)| n).sum();
    let (next_path, cnt) = successors.max_by_key(|(id, n)| (*n, Reverse(*id)))?;
    let next_ops = rank
        .paths
        .iter()
        .find(|p| p.id == next_path)
        .map(|p| p.ops)
        .unwrap_or(0);
    let ops_growth = if top.ops == 0 {
        1.0
    } else {
        (top.ops + next_ops) as f64 / top.ops as f64
    };
    Some(ExpansionStats {
        top_path: top.id,
        next_path,
        seq_bias: cnt as f64 / occurrences as f64,
        repeats_self: next_path == top.id,
        ops_growth,
        occurrences,
    })
}

/// Bucket a sequence bias into the paper's Table III bands.
pub fn bias_band(seq_bias: f64) -> &'static str {
    if seq_bias >= 0.90 {
        "90-100%"
    } else if seq_bias >= 0.70 {
        "70-90%"
    } else {
        "<70%"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use needle_ir::builder::FunctionBuilder;
    use needle_ir::interp::{Interp, Memory};
    use needle_ir::{Constant, Module, Type, Value};
    use needle_profile::profiler::PathProfiler;
    use needle_profile::rank::rank_paths;

    /// A loop whose body path repeats back-to-back (self-sequencing).
    fn monotone_loop(n: i64) -> (Module, needle_ir::FuncId, PathProfiler) {
        let mut fb = FunctionBuilder::new("mono", &[Type::I64], Some(Type::I64));
        let entry = fb.entry();
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.switch_to(entry);
        fb.br(head);
        fb.switch_to(head);
        let i = fb.phi(Type::I64, &[(entry, Value::int(0))]);
        let c = fb.icmp_slt(i, fb.arg(0));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let _x = fb.mul(i, Value::int(3));
        let i2 = fb.add(i, Value::int(1));
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(i));
        let mut f = fb.finish();
        let i_id = i.as_inst().unwrap();
        f.inst_mut(i_id).args.push(i2);
        f.inst_mut(i_id).phi_blocks.push(body);
        let mut m = Module::new("t");
        let fid = m.push(f);
        let mut prof = PathProfiler::new(&m);
        let mut mem = Memory::new();
        Interp::new(&m)
            .run(fid, &[Constant::Int(n)], &mut mem, &mut prof)
            .unwrap();
        (m, fid, prof)
    }

    #[test]
    fn self_repeating_path_has_high_bias_and_2x_growth() {
        let (m, fid, prof) = monotone_loop(50);
        let p = prof.profile(fid);
        let rank = rank_paths(m.func(fid), prof.numbering(fid).unwrap(), &p);
        let s = expansion_stats(&rank, &p).unwrap();
        assert!(s.repeats_self);
        assert!(s.seq_bias > 0.9, "bias {}", s.seq_bias);
        assert!((s.ops_growth - 2.0).abs() < 1e-9);
        assert_eq!(bias_band(s.seq_bias), "90-100%");
        assert!(s.occurrences > 0);
    }

    #[test]
    fn bias_bands_cover_ranges() {
        assert_eq!(bias_band(0.95), "90-100%");
        assert_eq!(bias_band(0.90), "90-100%");
        assert_eq!(bias_band(0.75), "70-90%");
        assert_eq!(bias_band(0.50), "<70%");
    }

    #[test]
    fn short_traces_yield_none() {
        // Zero trips: one completed path, so no pair and no successor.
        let (m, fid, prof) = monotone_loop(0);
        let p = prof.profile(fid);
        assert_eq!(p.total(), 1);
        assert!(p.pairs.is_empty());
        let rank = rank_paths(m.func(fid), prof.numbering(fid).unwrap(), &p);
        assert!(rank.top().is_some());
        assert!(expansion_stats(&rank, &p).is_none());
        // A profile with no pairs gives `None` whatever the ranking.
        let (m, fid, prof) = monotone_loop(50);
        let rank = rank_paths(
            m.func(fid),
            prof.numbering(fid).unwrap(),
            &prof.profile(fid),
        );
        assert!(expansion_stats(&rank, &PathProfile::default()).is_none());
    }
}
