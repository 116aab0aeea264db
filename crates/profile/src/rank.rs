//! Path ranking by the paper's path-weight metric (§III-A).
//!
//! `Pwt = frequency × ops` — the number of dynamic instructions attributable
//! to a path, which is proportional to the front-end energy an accelerator
//! saves by eliding fetch/decode for that path. `Fwt` accumulates the `Pwt`
//! of every executed path of the function; `Pwt / Fwt` is the *coverage* of
//! a path (the fraction of the function's dynamic instructions it explains).

use needle_ir::{BlockId, Function};

use crate::bl::BlNumbering;
use crate::profiler::PathProfile;

/// One executed path with its ranking metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPath {
    /// Ball-Larus path id.
    pub id: u64,
    /// The block sequence of the path.
    pub blocks: Vec<BlockId>,
    /// Dynamic execution count.
    pub freq: u64,
    /// Static instruction count along the path (terminators excluded).
    pub ops: u64,
    /// Conditional branches traversed by the path (its guard count when
    /// offloaded; Table II column C4).
    pub branches: u64,
    /// Memory operations along the path (Table II column C7).
    pub mem_ops: u64,
    /// Path weight `freq × ops`.
    pub pwt: u128,
}

impl RankedPath {
    /// Coverage relative to a function weight.
    pub fn coverage(&self, fwt: u128) -> f64 {
        if fwt == 0 {
            0.0
        } else {
            self.pwt as f64 / fwt as f64
        }
    }
}

/// The ranked paths of one function.
#[derive(Debug, Clone)]
pub struct FunctionRank {
    /// Paths sorted by descending `Pwt` (ties: ascending id).
    pub paths: Vec<RankedPath>,
    /// Function weight: `Σ Pwt`, i.e. total dynamic instructions.
    pub fwt: u128,
}

impl FunctionRank {
    /// Coverage of the top `k` paths combined (Figure 6 / Table II C2).
    pub fn top_coverage(&self, k: usize) -> f64 {
        if self.fwt == 0 {
            return 0.0;
        }
        let sum: u128 = self.paths.iter().take(k).map(|p| p.pwt).sum();
        sum as f64 / self.fwt as f64
    }

    /// The highest ranked path, if any path executed.
    pub fn top(&self) -> Option<&RankedPath> {
        self.paths.first()
    }

    /// Number of distinct executed paths (Table II C1).
    pub fn executed_paths(&self) -> usize {
        self.paths.len()
    }

    /// Geometric-mean style overlap statistic: for the top `k` paths, the
    /// number of those paths sharing at least one basic block with the top
    /// path (Table II C8 measures block overlap among hot paths).
    pub fn overlapping_paths(&self, k: usize) -> usize {
        let Some(top) = self.top() else {
            return 0;
        };
        self.paths
            .iter()
            .take(k)
            .skip(1)
            .filter(|p| p.blocks.iter().any(|b| top.blocks.contains(b)))
            .count()
            + 1
    }
}

/// Rank every executed path of `func` by `Pwt`.
pub fn rank_paths(func: &Function, numbering: &BlNumbering, profile: &PathProfile) -> FunctionRank {
    let mut paths: Vec<RankedPath> = profile
        .counts
        .iter()
        .filter_map(|(id, freq)| {
            let blocks = numbering.decode(id).ok()?;
            let ops: u64 = blocks
                .iter()
                .map(|b| func.block(*b).insts.len() as u64)
                .sum();
            let branches = blocks
                .iter()
                .filter(|b| func.block(**b).term.is_cond())
                .count() as u64;
            let mem_ops: u64 = blocks.iter().map(|b| func.block_mem_ops(*b) as u64).sum();
            Some(RankedPath {
                id,
                blocks,
                freq,
                ops,
                branches,
                mem_ops,
                pwt: freq as u128 * ops as u128,
            })
        })
        .collect();
    paths.sort_by(|a, b| b.pwt.cmp(&a.pwt).then(a.id.cmp(&b.id)));
    let fwt = paths.iter().map(|p| p.pwt).sum();
    FunctionRank { paths, fwt }
}

#[cfg(test)]
mod tests {
    use super::*;
    use needle_ir::builder::FunctionBuilder;
    use needle_ir::interp::{Interp, Memory};
    use needle_ir::{Constant, Module, Type, Value};

    use crate::profiler::PathProfiler;

    /// Loop with a biased branch: 7 of 8 iterations take the fat arm.
    fn biased_loop() -> (Module, needle_ir::FuncId) {
        let mut fb = FunctionBuilder::new("biased", &[Type::I64], Some(Type::I64));
        let entry = fb.entry();
        let head = fb.block("head");
        let fat = fb.block("fat");
        let thin = fb.block("thin");
        let latch = fb.block("latch");
        let exit = fb.block("exit");
        let n = fb.arg(0);
        fb.switch_to(entry);
        fb.br(head);
        fb.switch_to(head);
        let i = fb.phi(Type::I64, &[(entry, Value::int(0))]);
        let c = fb.icmp_slt(i, n);
        fb.cond_br(c, latch, exit);
        fb.switch_to(latch);
        let m8 = fb.rem(i, Value::int(8));
        let z = fb.icmp_eq(m8, Value::int(7));
        fb.cond_br(z, thin, fat);
        fb.switch_to(fat);
        // fat arm: lots of ops
        let mut acc = i;
        for _ in 0..10 {
            acc = fb.add(acc, Value::int(3));
        }
        fb.br(head);
        fb.switch_to(thin);
        let t = fb.add(i, Value::int(1));
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(i));
        let mut f = fb.finish();
        let i_id = i.as_inst().unwrap();
        // incoming from fat and thin arms
        let i_fat = acc;
        f.inst_mut(i_id).args.push(i_fat);
        f.inst_mut(i_id).phi_blocks.push(fat);
        f.inst_mut(i_id).args.push(t);
        f.inst_mut(i_id).phi_blocks.push(thin);
        let mut m = Module::new("t");
        let id = m.push(f);
        (m, id)
    }

    #[test]
    fn fat_hot_path_ranks_first() {
        let (m, f) = biased_loop();
        let mut prof = PathProfiler::new(&m);
        let mut mem = Memory::new();
        Interp::new(&m)
            .run(f, &[Constant::Int(64)], &mut mem, &mut prof)
            .unwrap();
        // i advances by 30+ in the fat arm, so the loop runs few but typed
        // iterations; just check ranking invariants.
        let rank = rank_paths(m.func(f), prof.numbering(f).unwrap(), &prof.profile(f));
        assert!(!rank.paths.is_empty());
        // Sorted descending by pwt.
        for w in rank.paths.windows(2) {
            assert!(w[0].pwt >= w[1].pwt);
        }
        // fwt equals the sum.
        assert_eq!(rank.fwt, rank.paths.iter().map(|p| p.pwt).sum::<u128>());
        // Coverage of all paths is 1.
        let all = rank.top_coverage(rank.paths.len());
        assert!((all - 1.0).abs() < 1e-12);
        // Top path coverage matches its pwt share.
        let top = rank.top().unwrap();
        assert!((top.coverage(rank.fwt) - rank.top_coverage(1)).abs() < 1e-12);
        assert_eq!(rank.executed_paths(), rank.paths.len());
    }

    #[test]
    fn pwt_reflects_both_frequency_and_size() {
        let (m, f) = biased_loop();
        let mut prof = PathProfiler::new(&m);
        let mut mem = Memory::new();
        Interp::new(&m)
            .run(f, &[Constant::Int(200)], &mut mem, &mut prof)
            .unwrap();
        let rank = rank_paths(m.func(f), prof.numbering(f).unwrap(), &prof.profile(f));
        let top = rank.top().unwrap();
        // The top path must traverse the fat arm (which has 10+ adds).
        assert!(top.ops >= 10);
        assert!(top.pwt == top.freq as u128 * top.ops as u128);
        // overlap: every loop path shares the head block.
        assert!(rank.overlapping_paths(5) >= 2);
    }

    #[test]
    fn empty_profile_ranks_empty() {
        let (m, f) = biased_loop();
        let prof = PathProfiler::new(&m);
        let rank = rank_paths(m.func(f), prof.numbering(f).unwrap(), &prof.profile(f));
        assert!(rank.paths.is_empty());
        assert_eq!(rank.fwt, 0);
        assert_eq!(rank.top_coverage(5), 0.0);
        assert!(rank.top().is_none());
        assert_eq!(rank.overlapping_paths(5), 0);
    }
}
