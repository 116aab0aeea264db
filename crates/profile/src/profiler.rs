//! Online profilers: trace sinks that observe interpreter execution.
//!
//! [`PathProfiler`] is the one Ball-Larus sink. For every function it
//! counts completed paths and, in the style of D'Elia & Demetrescu's
//! multi-iteration path profiling at k = 2, the `(prev, next)` pairs of
//! paths completed back to back within one invocation. The pairs give
//! §IV-A target expansion its successor statistic (Table III) and the
//! serving governor its stability gate ([`PathProfile::stability`]).
//! `analyze` reads one profile per run; the serving layer builds a
//! profiler per sampled request over [`SharedNumberings`] and drains it
//! with [`PathProfiler::take_profiles`]. [`EdgeProfiler`] collects the
//! edge and block counts.

use std::collections::HashMap;
use std::sync::Arc;

use needle_ir::interp::TraceSink;
use needle_ir::{BlockId, FuncId, Module};

use crate::bl::{BlNumbering, PathCounts};

/// The Ball-Larus path profile of one function.
#[derive(Debug, Clone, Default)]
pub struct PathProfile {
    /// `path id -> execution count`. Dense (`Vec` indexed by path id) for
    /// functions with a small path space, sparse beyond.
    pub counts: PathCounts,
    /// `(prev path id, next path id) -> occurrences`: paths completed
    /// back to back within one invocation. Pairs never span invocations.
    pub pairs: HashMap<(u64, u64), u64>,
    /// Completed paths (= `counts.total()`, kept as a separate count so a
    /// consumer can check the two agree).
    pub completed: u64,
    /// Invocations of the function.
    pub invocations: u64,
}

impl PathProfile {
    /// Total completed paths.
    pub fn total(&self) -> u64 {
        self.counts.total()
    }

    /// Number of distinct executed paths (Table II column C1).
    pub fn distinct(&self) -> usize {
        self.counts.distinct()
    }

    /// Fold `other` into `self` (used when merging sampled profiles).
    pub fn merge(&mut self, other: &PathProfile) {
        for (id, n) in other.counts.iter() {
            self.counts.add(id, n);
        }
        for (k, n) in &other.pairs {
            *self.pairs.entry(*k).or_insert(0) += n;
        }
        self.completed += other.completed;
        self.invocations += other.invocations;
    }

    /// Decay every counter by half (integer floor), dropping entries that
    /// reach zero. Exponential decay keeps the governor's accumulated view
    /// responsive to traffic shifts without forgetting instantly.
    pub fn decay(&mut self) {
        let halved: Vec<(u64, u64)> = self.counts.iter().map(|(id, n)| (id, n / 2)).collect();
        let mut counts = PathCounts::default();
        for (id, n) in halved {
            counts.add(id, n);
        }
        self.counts = counts;
        self.pairs.retain(|_, n| {
            *n /= 2;
            *n > 0
        });
        self.completed = self.counts.total();
        self.invocations /= 2;
    }

    /// Self-succession ratio of path `id` in `[0, 1]`: the fraction of its
    /// completions immediately followed by another completion of itself.
    /// Steady cyclic paths (`AAAA…`) score near 1; alternating paths
    /// (`ABAB…`), which a flat frequency count ranks the same, score near
    /// 0. Paths never observed score 0.
    pub fn stability(&self, id: u64) -> f64 {
        let n = self.counts.get(id);
        if n == 0 {
            return 0.0;
        }
        let own = self.pairs.get(&(id, id)).copied().unwrap_or(0);
        own as f64 / n as f64
    }

    /// Whether the profile saw no activity at all.
    pub fn is_empty(&self) -> bool {
        self.completed == 0 && self.invocations == 0
    }
}

/// Per-module Ball-Larus numberings, shared across profiler instances.
///
/// Numberings are pure functions of the module's CFG. The serving layer
/// creates a fresh [`PathProfiler`] per sampled request (so a cancelled
/// run cannot leak half a path into the governor's profile); building the
/// numberings once per resolved catalog entry and sharing the `Arc` keeps
/// that construction allocation-only.
pub type SharedNumberings = Arc<HashMap<FuncId, BlNumbering>>;

/// Build the shared numbering table for every function of `module`.
/// Functions whose path count overflows are skipped (they are never
/// offload candidates).
pub fn build_numberings(module: &Module) -> SharedNumberings {
    let mut numberings = HashMap::new();
    for (id, f) in module.iter() {
        if let Ok(bl) = BlNumbering::new(f) {
            numberings.insert(id, bl);
        }
    }
    Arc::new(numberings)
}

/// Collects Ball-Larus path profiles for every function in a module.
///
/// Implements [`TraceSink`]; feed it to
/// [`Interp::run`](needle_ir::interp::Interp::run).
#[derive(Debug)]
pub struct PathProfiler {
    numberings: SharedNumberings,
    profiles: HashMap<FuncId, PathProfile>,
    /// Per-invocation register stack: `(func, r, last block, previously
    /// completed path id within this invocation)`.
    stack: Vec<(FuncId, u64, BlockId, Option<u64>)>,
}

impl PathProfiler {
    /// Build numberings for every function of `module` and attach a fresh
    /// profiler to them. Prefer [`build_numberings`] +
    /// [`PathProfiler::with_numberings`] when profilers are created
    /// repeatedly for the same module.
    pub fn new(module: &Module) -> PathProfiler {
        PathProfiler::with_numberings(build_numberings(module))
    }

    /// A fresh profiler over pre-built shared numberings: no per-instance
    /// CFG work at all.
    pub fn with_numberings(numberings: SharedNumberings) -> PathProfiler {
        PathProfiler {
            numberings,
            profiles: HashMap::new(),
            stack: Vec::new(),
        }
    }

    /// Does nothing. The profiler keeps no path trace: target expansion
    /// reads the pair counts every profile carries. Kept only because the
    /// benchmark package (`perfbench/src/pipeline.rs`) still calls it.
    pub fn with_trace(self) -> PathProfiler {
        self
    }

    /// The numbering for `func`, if it was constructible.
    pub fn numbering(&self, func: FuncId) -> Option<&BlNumbering> {
        self.numberings.get(&func)
    }

    /// The collected profile for `func` (empty profile if never executed).
    pub fn profile(&self, func: FuncId) -> PathProfile {
        self.profiles.get(&func).cloned().unwrap_or_default()
    }

    /// Drain every collected profile, leaving the profiler empty but warm
    /// (numberings retained). An invocation still on the stack keeps its
    /// register state and completes into the next drain.
    pub fn take_profiles(&mut self) -> HashMap<FuncId, PathProfile> {
        std::mem::take(&mut self.profiles)
    }

    /// Get-or-create the profile of `func`, sizing the counter
    /// representation off the numbering (dense for small path spaces).
    fn entry(&mut self, func: FuncId) -> &mut PathProfile {
        let numberings = &self.numberings;
        self.profiles.entry(func).or_insert_with(|| PathProfile {
            counts: numberings
                .get(&func)
                .map(PathCounts::for_numbering)
                .unwrap_or_default(),
            ..PathProfile::default()
        })
    }

    fn complete(&mut self, func: FuncId, id: u64, prev: Option<u64>) {
        let p = self.entry(func);
        p.counts.bump(id);
        p.completed += 1;
        if let Some(prev) = prev {
            *p.pairs.entry((prev, id)).or_insert(0) += 1;
        }
    }
}

impl TraceSink for PathProfiler {
    fn enter(&mut self, func: FuncId) {
        let r = self
            .numberings
            .get(&func)
            .map(|n| n.enter_increment())
            .unwrap_or(0);
        self.stack.push((func, r, BlockId(0), None));
        self.entry(func).invocations += 1;
    }

    fn exit(&mut self, func: FuncId) {
        let Some((f, r, last, prev)) = self.stack.pop() else {
            return;
        };
        debug_assert_eq!(f, func, "unbalanced enter/exit events");
        if let Some(n) = self.numberings.get(&func) {
            if let Ok(inc) = n.exit_increment(last) {
                self.complete(func, r + inc, prev);
            }
        }
    }

    fn block(&mut self, _func: FuncId, bb: BlockId) {
        if let Some(top) = self.stack.last_mut() {
            top.2 = bb;
        }
    }

    fn edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        let Some(n) = self.numberings.get(&func) else {
            return;
        };
        let Some(top) = self.stack.last_mut() else {
            return;
        };
        debug_assert_eq!(top.0, func);
        if n.is_back_edge(from, to) {
            let exit_inc = n
                .exit_increment(from)
                .expect("back-edge source has a fake exit edge");
            let id = top.1 + exit_inc;
            let restart = n
                .restart_increment(to)
                .expect("back-edge target has a fake entry edge");
            let prev = top.3.replace(id);
            top.1 = restart;
            self.complete(func, id, prev);
        } else if let Ok(inc) = n.edge_increment(from, to) {
            top.1 += inc;
        }
    }
}

/// Edge and block execution counts for every function in a module.
#[derive(Debug, Clone, Default)]
pub struct EdgeProfile {
    /// `(from, to) -> traversal count`.
    pub edges: HashMap<(BlockId, BlockId), u64>,
    /// `block -> execution count`.
    pub blocks: HashMap<BlockId, u64>,
}

impl EdgeProfile {
    /// Count for edge `from -> to` (0 if never traversed).
    pub fn edge(&self, from: BlockId, to: BlockId) -> u64 {
        self.edges.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Count for `block` (0 if never executed).
    pub fn block(&self, bb: BlockId) -> u64 {
        self.blocks.get(&bb).copied().unwrap_or(0)
    }

    /// The hotter successor of `from` among the recorded out-edges, with its
    /// count. Ties break toward the smaller block id.
    pub fn hottest_successor(&self, from: BlockId) -> Option<(BlockId, u64)> {
        self.edges
            .iter()
            .filter(|((f, _), _)| *f == from)
            .map(|((_, t), c)| (*t, *c))
            .max_by_key(|(t, c)| (*c, std::cmp::Reverse(*t)))
    }
}

/// Collects edge/block profiles per function.
#[derive(Debug, Default)]
pub struct EdgeProfiler {
    profiles: HashMap<FuncId, EdgeProfile>,
}

impl EdgeProfiler {
    /// An empty edge profiler.
    pub fn new() -> EdgeProfiler {
        EdgeProfiler::default()
    }

    /// The profile of `func` (empty if never executed).
    pub fn profile(&self, func: FuncId) -> EdgeProfile {
        self.profiles.get(&func).cloned().unwrap_or_default()
    }

    /// Shared access without cloning.
    pub fn profile_ref(&self, func: FuncId) -> Option<&EdgeProfile> {
        self.profiles.get(&func)
    }
}

impl TraceSink for EdgeProfiler {
    fn block(&mut self, func: FuncId, bb: BlockId) {
        let p = self.profiles.entry(func).or_default();
        *p.blocks.entry(bb).or_insert(0) += 1;
    }

    fn edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        let p = self.profiles.entry(func).or_default();
        *p.edges.entry((from, to)).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use needle_ir::builder::FunctionBuilder;
    use needle_ir::interp::{Interp, Memory, TeeSink};
    use needle_ir::{Constant, Type, Value};

    use crate::rank::rank_paths;

    /// for i in 0..n { if i % 3 == 0 { A } else { B } }
    fn mod3_loop() -> (Module, FuncId) {
        let mut fb = FunctionBuilder::new("mod3", &[Type::I64], Some(Type::I64));
        let entry = fb.entry();
        let head = fb.block("head");
        let thn = fb.block("then");
        let els = fb.block("else");
        let latch = fb.block("latch");
        let exit = fb.block("exit");
        let n = fb.arg(0);
        fb.switch_to(entry);
        fb.br(head);
        fb.switch_to(head);
        let i = fb.phi(Type::I64, &[(entry, Value::int(0))]);
        let s = fb.phi(Type::I64, &[(entry, Value::int(0))]);
        let c = fb.icmp_slt(i, n);
        fb.cond_br(c, thn, els);
        fb.switch_to(thn);
        let m = fb.rem(i, Value::int(3));
        let z = fb.icmp_eq(m, Value::int(0));
        let s_a = fb.add(s, Value::int(10));
        let s_b = fb.add(s, Value::int(1));
        let s2 = fb.select(Type::I64, z, s_a, s_b);
        fb.br(latch);
        fb.switch_to(els);
        fb.ret(Some(s));
        fb.switch_to(latch);
        let i2 = fb.add(i, Value::int(1));
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(s));
        let mut f = fb.finish();
        let i_id = i.as_inst().unwrap();
        let s_id = s.as_inst().unwrap();
        f.inst_mut(i_id).args.push(i2);
        f.inst_mut(i_id).phi_blocks.push(latch);
        f.inst_mut(s_id).args.push(s2);
        f.inst_mut(s_id).phi_blocks.push(latch);
        let mut m = Module::new("t");
        let id = m.push(f);
        (m, id)
    }

    #[test]
    fn path_counts_match_loop_iterations() {
        let (m, f) = mod3_loop();
        let mut prof = PathProfiler::new(&m);
        let mut mem = Memory::new();
        Interp::new(&m)
            .run(f, &[Constant::Int(9)], &mut mem, &mut prof)
            .unwrap();
        let p = prof.profile(f);
        // 9 iterations end with back edges, plus the final head->else->ret.
        assert_eq!(p.total(), 10);
        assert_eq!(p.completed, 10);
        assert_eq!(p.invocations, 1);
        // Ten paths in one invocation follow one another nine times.
        assert_eq!(p.pairs.values().sum::<u64>(), 9);
        // Paths observed decode to block sequences within the function.
        let bl = prof.numbering(f).unwrap();
        let total_freq_weighted: u64 = p
            .counts
            .iter()
            .map(|(id, c)| {
                let blocks = bl.decode(id).unwrap();
                assert!(!blocks.is_empty());
                c
            })
            .sum();
        assert_eq!(total_freq_weighted, 10);
    }

    #[test]
    fn per_path_counts_are_consistent_with_semantics() {
        let (m, f) = mod3_loop();
        let mut prof = PathProfiler::new(&m);
        let mut mem = Memory::new();
        let out = Interp::new(&m)
            .run(f, &[Constant::Int(9)], &mut mem, &mut prof)
            .unwrap();
        // 3 multiples of 3 (0,3,6) scoring 10, 6 others scoring 1.
        assert_eq!(out.unwrap().as_int(), 36);
        let p = prof.profile(f);
        // The body path (head, then, latch) repeats 9 times (select folds
        // the if internally, so one path covers all iterations), entry path
        // and final exit path occur once each... entry path = entry,head,
        // then,latch ends at the first back edge.
        let mut counts: Vec<u64> = p.counts.iter().map(|(_, c)| c).collect();
        counts.sort();
        assert_eq!(counts.iter().sum::<u64>(), 10);
        assert_eq!(p.distinct(), 3);
    }

    #[test]
    fn edge_profiler_counts_branch_sides() {
        let (m, f) = mod3_loop();
        let mut eprof = EdgeProfiler::new();
        let mut pprof = PathProfiler::new(&m);
        let mut mem = Memory::new();
        let mut tee = TeeSink(&mut eprof, &mut pprof);
        Interp::new(&m)
            .run(f, &[Constant::Int(9)], &mut mem, &mut tee)
            .unwrap();
        let p = eprof.profile(f);
        // head executed 10 times: 9 into then, 1 into else.
        assert_eq!(p.block(BlockId(1)), 10);
        assert_eq!(p.edge(BlockId(1), BlockId(2)), 9);
        assert_eq!(p.edge(BlockId(1), BlockId(3)), 1);
        assert_eq!(p.hottest_successor(BlockId(1)), Some((BlockId(2), 9)));
        assert_eq!(p.edge(BlockId(4), BlockId(1)), 9); // back edge
    }

    #[test]
    fn nested_calls_keep_separate_path_state() {
        // inner(x) = x+1 ; outer loops calling inner
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("inner", &[Type::I64], Some(Type::I64));
        let v = fb.add(fb.arg(0), Value::int(1));
        fb.ret(Some(v));
        let inner = m.push(fb.finish());

        let mut fb = FunctionBuilder::new("outer", &[Type::I64], Some(Type::I64));
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
        let i2 = fb.call(inner, Type::I64, &[i]);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(i));
        let mut f = fb.finish();
        let i_id = i.as_inst().unwrap();
        f.inst_mut(i_id).args.push(i2);
        f.inst_mut(i_id).phi_blocks.push(body);
        let outer = m.push(f);

        let mut prof = PathProfiler::new(&m);
        let mut mem = Memory::new();
        Interp::new(&m)
            .run(outer, &[Constant::Int(5)], &mut mem, &mut prof)
            .unwrap();
        let inner_p = prof.profile(inner);
        assert_eq!(inner_p.total(), 5);
        assert_eq!(inner_p.invocations, 5);
        // One path per call, and pairs never span calls.
        assert!(inner_p.pairs.is_empty(), "{:?}", inner_p.pairs);
        let outer_p = prof.profile(outer);
        assert_eq!(outer_p.total(), 6); // 5 back edges + final exit
        assert_eq!(outer_p.pairs.values().sum::<u64>(), 5);
    }

    /// for i in 0..n { if load(DATA + (i&mask)*8) < thr { fat } else { thin } }
    fn thresholded_loop() -> (Module, FuncId) {
        let mut fb = FunctionBuilder::new("phase", &[Type::I64, Type::I64], Some(Type::I64));
        let entry = fb.entry();
        let head = fb.block("head");
        let fat = fb.block("fat");
        let thin = fb.block("thin");
        let latch = fb.block("latch");
        let exit = fb.block("exit");
        fb.switch_to(entry);
        fb.br(head);
        fb.switch_to(head);
        let i = fb.phi(Type::I64, &[(entry, Value::int(0))]);
        let acc = fb.phi(Type::I64, &[(entry, Value::int(0))]);
        let c = fb.icmp_slt(i, fb.arg(0));
        let body = fb.block("body");
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let ix = fb.and(i, Value::int(63));
        let addr = fb.gep(Value::ptr(0x1_0000), ix, 8);
        let v = fb.load(Type::I64, addr);
        let hot = fb.icmp_slt(v, fb.arg(1));
        fb.cond_br(hot, fat, thin);
        fb.switch_to(fat);
        let mut a = acc;
        for _ in 0..8 {
            a = fb.add(a, Value::int(3));
        }
        fb.br(latch);
        fb.switch_to(thin);
        let t = fb.add(acc, Value::int(1));
        fb.br(latch);
        fb.switch_to(latch);
        let merged = fb.phi(Type::I64, &[(fat, a), (thin, t)]);
        let i2 = fb.add(i, Value::int(1));
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(acc));
        let mut f = fb.finish();
        let i_id = i.as_inst().unwrap();
        f.inst_mut(i_id).args.push(i2);
        f.inst_mut(i_id).phi_blocks.push(latch);
        let a_id = acc.as_inst().unwrap();
        f.inst_mut(a_id).args.push(merged);
        f.inst_mut(a_id).phi_blocks.push(latch);
        let mut m = Module::new("t");
        let id = m.push(f);
        (m, id)
    }

    fn run_with_data(
        m: &Module,
        f: FuncId,
        prof: &mut PathProfiler,
        trips: i64,
        thr: i64,
        data: impl Fn(u64) -> i64,
    ) {
        let mut mem = Memory::new();
        for i in 0..64u64 {
            mem.store(0x1_0000 + i * 8, needle_ir::interp::Val::Int(data(i)));
        }
        Interp::new(m)
            .run(
                f,
                &[Constant::Int(trips), Constant::Int(thr)],
                &mut mem,
                prof,
            )
            .unwrap();
    }

    #[test]
    fn take_profiles_drains_and_profiler_stays_warm() {
        let (m, f) = thresholded_loop();
        let mut p = PathProfiler::new(&m);
        run_with_data(&m, f, &mut p, 50, 100, |_| 0);
        let e1 = p.take_profiles();
        assert!(e1[&f].completed > 0);
        assert!(p.take_profiles().is_empty(), "the drain left nothing");
        run_with_data(&m, f, &mut p, 50, 100, |_| 0);
        let e2 = p.take_profiles();
        assert_eq!(
            e1[&f].completed, e2[&f].completed,
            "warm restart is identical"
        );
    }

    #[test]
    fn stability_separates_steady_from_alternating_paths() {
        let (m, f) = thresholded_loop();
        // Steady: every iteration takes the fat arm.
        let mut p = PathProfiler::new(&m);
        run_with_data(&m, f, &mut p, 200, 100, |_| 0);
        let steady = &p.take_profiles()[&f];
        let hot = steady
            .counts
            .iter()
            .max_by_key(|(_, n)| *n)
            .map(|(id, _)| id)
            .unwrap();
        assert!(
            steady.stability(hot) > 0.9,
            "steady path should self-succeed: {}",
            steady.stability(hot)
        );

        // Alternating: data flips fat/thin every iteration.
        let mut p = PathProfiler::new(&m);
        run_with_data(&m, f, &mut p, 200, 1, |i| (i % 2) as i64);
        let alt = &p.take_profiles()[&f];
        let (top, _) = alt.counts.iter().max_by_key(|(_, n)| *n).unwrap();
        assert!(
            alt.stability(top) < 0.2,
            "alternating path must not look steady: {}",
            alt.stability(top)
        );
    }

    #[test]
    fn merged_epochs_rank_like_one_big_profile() {
        let (m, f) = thresholded_loop();
        let mut p = PathProfiler::new(&m);
        run_with_data(&m, f, &mut p, 60, 100, |_| 0);
        let mut acc = p.take_profiles().remove(&f).unwrap();
        run_with_data(&m, f, &mut p, 60, 100, |_| 0);
        let second = p.take_profiles().remove(&f).unwrap();
        acc.merge(&second);
        assert_eq!(acc.invocations, 2);

        let rank = rank_paths(m.func(f), p.numbering(f).unwrap(), &acc);
        assert!(!rank.paths.is_empty());
        let top = rank.top().unwrap();
        // The fat-arm path dominates and its freq covers both epochs.
        assert!(top.freq >= 100, "freq {} spans merged epochs", top.freq);
        assert!(top.ops >= 8);
    }

    #[test]
    fn decay_halves_and_eventually_forgets() {
        let (m, f) = thresholded_loop();
        let mut p = PathProfiler::new(&m);
        run_with_data(&m, f, &mut p, 40, 100, |_| 0);
        let mut e = p.take_profiles().remove(&f).unwrap();
        let before = e.completed;
        assert!(before > 0);
        e.decay();
        assert!(e.completed <= before / 2 + 1);
        for _ in 0..40 {
            e.decay();
        }
        assert!(e.is_empty(), "decay must converge to empty");
        assert!(e.pairs.is_empty());
    }

    #[test]
    fn phase_flip_moves_the_top_ranked_path() {
        // The governor's core premise: when traffic shifts, the drained
        // profiles must rank a different path on top.
        let (m, f) = thresholded_loop();
        let mut p = PathProfiler::new(&m);
        run_with_data(&m, f, &mut p, 200, 100, |_| 0); // all fat
        let fat_epoch = p.take_profiles().remove(&f).unwrap();
        run_with_data(&m, f, &mut p, 200, -1, |_| 0); // all thin
        let thin_epoch = p.take_profiles().remove(&f).unwrap();

        let rank_of = |e: &PathProfile| {
            rank_paths(m.func(f), p.numbering(f).unwrap(), e)
                .top()
                .unwrap()
                .id
        };
        assert_ne!(
            rank_of(&fat_epoch),
            rank_of(&thin_epoch),
            "bias flip must change the top path"
        );
    }
}
