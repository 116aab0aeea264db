//! Trace-driven OOO timing model.
//!
//! [`HostSim`] consumes interpreter events ([`TraceSink`]) and times the
//! dynamic instruction stream under the Table V constraints: 4-wide fetch,
//! 96-entry ROB, 6 ALU / 2 FPU / 2 L1-port issue, dependence-height
//! scheduling with a perfect branch predictor (the paper's host
//! assumption). φs are renaming artifacts and consume no resources.
//!
//! The model deliberately trades pipeline minutiae for robustness: it
//! captures the first-order effects the paper's comparison rests on —
//! dataflow criticality, issue-width limits, ROB-bounded lookahead and
//! cache locality.
//!
//! Like the execution engine, the model decodes once and never walks the
//! IR while timing: [`HostSim::new`] lowers every function into flat
//! per-block records (each φ with its incoming sources; each other
//! instruction with its unit/latency `Kind` and operand sources; whether
//! the block ends in a conditional branch). Each invocation times into its
//! own dense completion-slot vector indexed by [`InstId`], recycled through
//! a free list, and the instructions of the current block that are still
//! waiting to be timed are a cursor over its records.

use std::collections::VecDeque;

use needle_ir::interp::TraceSink;
use needle_ir::{BlockId, FuncId, Function, InstId, Module, Op, Terminator, Value};

use crate::cache::{Hierarchy, HierarchyStats};
use crate::config::HostConfig;

/// Aggregate statistics of one simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostStats {
    /// Total cycles (the completion time of the last instruction).
    pub cycles: u64,
    /// Dynamic instructions timed (φs excluded).
    pub insts: u64,
    /// Integer ALU ops.
    pub int_ops: u64,
    /// Floating-point ops.
    pub fp_ops: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Cache hierarchy statistics.
    pub cache: HierarchyStats,
}

impl HostStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }
}

/// Completion-slot value of an instruction not yet timed in the current
/// invocation; reads as the invocation's high-water mark.
const UNTIMED: u64 = u64::MAX;

/// Where an operand's ready time comes from.
#[derive(Clone, Copy)]
enum Src {
    /// A constant: ready at cycle 0.
    Const,
    /// A function argument: ready when the invocation starts.
    Arg,
    /// An instruction result: its completion slot.
    Slot(u32),
}

/// The functional-unit class and latency rule of a timed instruction.
#[derive(Clone, Copy)]
enum Kind {
    /// ALU at `int_latency`.
    Int,
    /// Integer divide/remainder: ALU at `div_latency`.
    IntDiv,
    /// FPU at `fp_latency`.
    Fp,
    /// FP divide/square root: FPU at `div_latency`.
    FpDiv,
    /// ALU, one cycle, not counted as an ALU op.
    Call,
    /// L1 port; the cache hierarchy decides the latency.
    Load,
    /// L1 port; retires in one cycle via the write buffer.
    Store,
}

impl Kind {
    fn of(op: Op) -> Kind {
        match op {
            Op::Load => Kind::Load,
            Op::Store => Kind::Store,
            Op::Div | Op::Rem => Kind::IntDiv,
            Op::FDiv | Op::FSqrt => Kind::FpDiv,
            Op::Call(_) => Kind::Call,
            o if o.is_float() => Kind::Fp,
            _ => Kind::Int,
        }
    }

    fn is_mem(self) -> bool {
        matches!(self, Kind::Load | Kind::Store)
    }
}

/// A non-φ instruction's timing record.
struct Rec {
    /// Its completion slot (its [`InstId`] index).
    slot: u32,
    kind: Kind,
    /// Operand sources: `srcs[lo..hi]` of the function.
    srcs: (u32, u32),
}

/// A φ's record: it completes when the value flowing in does.
struct PhiRec {
    slot: u32,
    /// `(incoming block, source)` pairs: `incoming[lo..hi]` of the
    /// function, in operand order.
    incoming: (u32, u32),
}

struct BlockRecs {
    /// `phis[lo..hi]` of the function, in block order.
    phis: (u32, u32),
    /// `recs[lo..hi]` of the function, in block order.
    recs: (u32, u32),
    /// Whether the block ends in a conditional branch.
    cond: bool,
}

/// One function lowered to timing records.
struct FuncRecs {
    /// Completion slots per invocation: one per instruction, plus one that
    /// is never written and stands for operands naming no instruction.
    slots: usize,
    blocks: Vec<BlockRecs>,
    recs: Vec<Rec>,
    phis: Vec<PhiRec>,
    srcs: Vec<Src>,
    incoming: Vec<(u32, Src)>,
}

fn range<T>(v: &[T], (lo, hi): (u32, u32)) -> &[T] {
    &v[lo as usize..hi as usize]
}

impl FuncRecs {
    fn decode(f: &Function) -> FuncRecs {
        let n = f.insts.len();
        let src = |v: Value| match v {
            Value::Const(_) => Src::Const,
            Value::Arg(_) => Src::Arg,
            Value::Inst(id) => Src::Slot(id.index().min(n) as u32),
        };
        let mut d = FuncRecs {
            slots: n + 1,
            blocks: Vec::with_capacity(f.blocks.len()),
            recs: Vec::new(),
            phis: Vec::new(),
            srcs: Vec::new(),
            incoming: Vec::new(),
        };
        for b in &f.blocks {
            let (phi_lo, rec_lo) = (d.phis.len() as u32, d.recs.len() as u32);
            for &iid in &b.insts {
                let inst = f.inst(iid);
                if inst.is_phi() {
                    let lo = d.incoming.len() as u32;
                    d.incoming.extend(
                        inst.phi_blocks
                            .iter()
                            .zip(&inst.args)
                            .map(|(bb, v)| (bb.0, src(*v))),
                    );
                    d.phis.push(PhiRec {
                        slot: iid.0,
                        incoming: (lo, d.incoming.len() as u32),
                    });
                } else {
                    let lo = d.srcs.len() as u32;
                    d.srcs.extend(inst.args.iter().map(|v| src(*v)));
                    d.recs.push(Rec {
                        slot: iid.0,
                        kind: Kind::of(inst.op),
                        srcs: (lo, d.srcs.len() as u32),
                    });
                }
            }
            d.blocks.push(BlockRecs {
                phis: (phi_lo, d.phis.len() as u32),
                recs: (rec_lo, d.recs.len() as u32),
                cond: matches!(b.term, Terminator::CondBr { .. }),
            });
        }
        d
    }
}

struct Pipe {
    seq: u64,
    min_fetch: u64,
    rob: VecDeque<u64>,
    /// In-order retirement floor: a popped ROB head can never retire
    /// earlier than the previously retired instruction.
    retire_floor: u64,
    alu_free: Vec<u64>,
    fpu_free: Vec<u64>,
    mem_free: Vec<u64>,
    horizon: u64,
}

struct FrameState {
    func: usize,
    /// Completion time of each instruction timed in this invocation,
    /// indexed by [`InstId`]; [`UNTIMED`] reads as `water`.
    done: Vec<u64>,
    invoke_time: u64,
    /// High-water completion within this invocation (fallback ready time).
    water: u64,
    cur_block: Option<u32>,
    /// The current block's records not yet timed: `recs[next..end]`.
    next: u32,
    end: u32,
}

impl FrameState {
    fn time(&self, s: Src) -> u64 {
        match s {
            Src::Const => 0,
            Src::Arg => self.invoke_time,
            Src::Slot(i) => match self.done[i as usize] {
                UNTIMED => self.water,
                t => t,
            },
        }
    }
}

/// The host timing model. Feed it to
/// [`Interp::run`](needle_ir::interp::Interp::run) as the trace sink, then
/// call [`HostSim::finish`].
pub struct HostSim {
    cfg: HostConfig,
    /// Timing records, indexed by [`FuncId`].
    funcs: Vec<FuncRecs>,
    /// The cache hierarchy (shared with the CGRA via
    /// [`Hierarchy::access_l2`] in co-simulation).
    pub hierarchy: Hierarchy,
    pipe: Pipe,
    frames: Vec<FrameState>,
    /// Slot vectors of returned invocations, reused by later calls.
    spare: Vec<Vec<u64>>,
    stats: HostStats,
}

impl std::fmt::Debug for HostSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostSim")
            .field("seq", &self.pipe.seq)
            .field("horizon", &self.pipe.horizon)
            .field("stats", &self.stats)
            .finish()
    }
}

impl HostSim {
    /// A fresh simulator over `module`.
    pub fn new(module: &Module, cfg: HostConfig) -> HostSim {
        let hierarchy = Hierarchy::new(cfg.l1_latency, cfg.l2_latency, cfg.mem_latency);
        HostSim {
            funcs: module.funcs.iter().map(FuncRecs::decode).collect(),
            hierarchy,
            pipe: Pipe {
                seq: 0,
                min_fetch: 0,
                rob: VecDeque::new(),
                retire_floor: 0,
                alu_free: vec![0; cfg.alus],
                fpu_free: vec![0; cfg.fpus],
                mem_free: vec![0; cfg.mem_ports],
                horizon: 0,
            },
            frames: Vec::new(),
            spare: Vec::new(),
            stats: HostStats::default(),
            cfg,
        }
    }

    /// Insert an idle bubble: the core stalls for `cycles` after all
    /// currently-known work completes (used while an offloaded frame runs
    /// on the accelerator).
    pub fn stall(&mut self, cycles: u64) {
        self.pipe.min_fetch = self.pipe.min_fetch.max(self.pipe.horizon) + cycles;
        self.pipe.horizon = self.pipe.horizon.max(self.pipe.min_fetch);
    }

    /// Current completion horizon (cycles so far).
    pub fn now(&self) -> u64 {
        self.pipe.horizon
    }

    /// Flush pending work and return the final statistics.
    pub fn finish(mut self) -> HostStats {
        while !self.frames.is_empty() {
            self.flush_top(None);
            self.frames.pop();
        }
        self.stats.cycles = self.pipe.horizon;
        self.stats.cache = self.hierarchy.stats;
        self.stats
    }

    /// Time the top frame's pending instructions in order. With `mem_addr`
    /// (the `(InstId, address)` of a memory event), stop right after that
    /// memory op; otherwise, or on reaching any other memory op, stop before
    /// it: a memory op waits for its own event.
    fn flush_top(&mut self, mem_addr: Option<(u32, u64)>) {
        let Some(frame) = self.frames.last_mut() else {
            return;
        };
        let func = &self.funcs[frame.func];
        let (cfg, pipe, stats) = (&self.cfg, &mut self.pipe, &mut self.stats);
        while frame.next < frame.end {
            let rec = &func.recs[frame.next as usize];
            let addr = match (rec.kind.is_mem(), mem_addr) {
                (true, Some((target, a))) if target == rec.slot => a,
                (true, _) => return, // wait for this op's mem event
                (false, _) => 0,
            };
            frame.next += 1;

            // Ready time: fetch constraint + operand dependences.
            let mut fetch = pipe.seq / cfg.fetch_width;
            pipe.seq += 1;
            if pipe.rob.len() >= cfg.rob_entries {
                let head = pipe.rob.pop_front().expect("rob nonempty");
                pipe.retire_floor = pipe.retire_floor.max(head);
                fetch = fetch.max(pipe.retire_floor);
            }
            fetch = fetch.max(pipe.min_fetch);
            let mut ready = fetch;
            for &s in range(&func.srcs, rec.srcs) {
                ready = ready.max(frame.time(s));
            }

            // Issue: grab the earliest-free unit of the right class.
            let pool: &mut [u64] = match rec.kind {
                Kind::Load | Kind::Store => &mut pipe.mem_free,
                Kind::Fp | Kind::FpDiv => &mut pipe.fpu_free,
                Kind::Int | Kind::IntDiv | Kind::Call => &mut pipe.alu_free,
            };
            let (ui, free) = pool
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|(_, f)| *f)
                .expect("unit pool nonempty");
            let issue = ready.max(free);
            pool[ui] = issue + 1; // fully pipelined units

            let latency = match rec.kind {
                Kind::Int => {
                    stats.int_ops += 1;
                    cfg.int_latency
                }
                Kind::IntDiv => {
                    stats.int_ops += 1;
                    cfg.div_latency
                }
                Kind::Fp => {
                    stats.fp_ops += 1;
                    cfg.fp_latency
                }
                Kind::FpDiv => {
                    stats.fp_ops += 1;
                    cfg.div_latency
                }
                Kind::Call => 1,
                Kind::Load => {
                    stats.loads += 1;
                    self.hierarchy.access(addr, false)
                }
                Kind::Store => {
                    stats.stores += 1;
                    self.hierarchy.access(addr, true);
                    1 // retire via the write buffer
                }
            };
            let done = issue + latency;
            pipe.rob.push_back(done);
            frame.done[rec.slot as usize] = done;
            frame.water = frame.water.max(done);
            pipe.horizon = pipe.horizon.max(done);
            stats.insts += 1;

            if rec.kind.is_mem() {
                return; // processed exactly the event's op
            }
        }
    }
}

impl TraceSink for HostSim {
    fn enter(&mut self, func: FuncId) {
        // Time the caller's work up to the call site.
        self.flush_top(None);
        let invoke_time = self
            .frames
            .last()
            .map(|f| f.water)
            .unwrap_or(self.pipe.horizon);
        let mut done = self.spare.pop().unwrap_or_default();
        done.clear();
        done.resize(self.funcs[func.index()].slots, UNTIMED);
        self.frames.push(FrameState {
            func: func.index(),
            done,
            invoke_time,
            water: invoke_time,
            cur_block: None,
            next: 0,
            end: 0,
        });
    }

    fn exit(&mut self, _func: FuncId) {
        self.flush_top(None);
        let done = match self.frames.pop() {
            Some(f) => {
                self.spare.push(f.done);
                f.water
            }
            None => self.pipe.horizon,
        };
        if let Some(parent) = self.frames.last_mut() {
            parent.water = parent.water.max(done);
        }
    }

    fn block(&mut self, func: FuncId, bb: BlockId) {
        self.flush_top(None);
        let Some(top) = self.frames.last_mut() else {
            return;
        };
        debug_assert_eq!(top.func, func.index());
        // Front-end redirect: even a correctly-predicted taken branch costs
        // an embedded-class core one fetch group (the paper's host is a
        // 1 GHz embedded 4-way OOO, not a server-class fetch engine).
        if top.cur_block.is_some() {
            self.pipe.seq += self.cfg.fetch_width;
        }
        let pred = top.cur_block;
        top.cur_block = Some(bb.0);
        let f = &self.funcs[top.func];
        let b = &f.blocks[bb.index()];
        // φ: zero-cost rename, ready when the incoming value is. φs are
        // timed in block order, so a later φ reads an earlier one's new
        // time.
        for phi in range(&f.phis, b.phis) {
            let incoming = range(&f.incoming, phi.incoming);
            let t = pred
                .and_then(|p| incoming.iter().find(|(from, _)| *from == p))
                .map(|&(_, s)| top.time(s))
                .unwrap_or(top.invoke_time);
            top.done[phi.slot as usize] = t;
        }
        (top.next, top.end) = b.recs;
        // Count the branch that got us here.
        if let Some(p) = pred {
            if f.blocks[p as usize].cond {
                self.stats.branches += 1;
            }
        }
    }

    fn mem(&mut self, _func: FuncId, inst: InstId, addr: u64, _is_store: bool) {
        self.flush_top(Some((inst.0, addr)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use needle_ir::builder::FunctionBuilder;
    use needle_ir::interp::{Interp, Memory};
    use needle_ir::{Constant, Type, Value as V};

    fn run_host(m: &Module, f: FuncId, args: &[Constant], mem: &mut Memory) -> HostStats {
        let mut sim = HostSim::new(m, HostConfig::default());
        Interp::new(m).run(f, args, mem, &mut sim).unwrap();
        sim.finish()
    }

    /// Serial dependence chain vs parallel ops: the chain must be slower.
    #[test]
    fn dependence_height_dominates_serial_code() {
        // serial: x = ((((a+1)+1)+1)...+1) 32 times
        let mut fb = FunctionBuilder::new("serial", &[Type::I64], Some(Type::I64));
        let mut x = fb.arg(0);
        for _ in 0..32 {
            x = fb.add(x, V::int(1));
        }
        fb.ret(Some(x));
        let mut m = Module::new("t");
        let serial = m.push(fb.finish());

        // parallel: 32 independent adds, then ret one of them
        let mut fb = FunctionBuilder::new("par", &[Type::I64], Some(Type::I64));
        let mut last = fb.arg(0);
        for _ in 0..32 {
            last = fb.add(fb.arg(0), V::int(1));
        }
        fb.ret(Some(last));
        let par = m.push(fb.finish());

        let mut mem = Memory::new();
        let s = run_host(&m, serial, &[Constant::Int(1)], &mut mem);
        let p = run_host(&m, par, &[Constant::Int(1)], &mut mem);
        assert_eq!(s.insts, p.insts);
        assert!(
            s.cycles > p.cycles + 16,
            "serial {} vs parallel {}",
            s.cycles,
            p.cycles
        );
        // Parallel code is fetch-bound: 32 insts / 4-wide ≈ 8 cycles.
        assert!(p.cycles <= 12, "parallel took {}", p.cycles);
        assert!(p.ipc() > 2.0);
    }

    #[test]
    fn cache_locality_matters() {
        // touch the same line repeatedly vs stride through memory
        let build = |name: &str, stride: i64| {
            let mut fb = FunctionBuilder::new(name, &[Type::I64], Some(Type::I64));
            let entry = fb.entry();
            let head = fb.block("head");
            let body = fb.block("body");
            let exit = fb.block("exit");
            fb.switch_to(entry);
            fb.br(head);
            fb.switch_to(head);
            let i = fb.phi(Type::I64, &[(entry, V::int(0))]);
            let c = fb.icmp_slt(i, fb.arg(0));
            fb.cond_br(c, body, exit);
            fb.switch_to(body);
            let addr = fb.gep(V::ptr(0), i, stride);
            let v = fb.load(Type::I64, addr);
            let w = fb.add(v, V::int(1));
            fb.store(w, addr);
            let i2 = fb.add(i, V::int(1));
            fb.br(head);
            fb.switch_to(exit);
            fb.ret(Some(i));
            let mut f = fb.finish();
            let i_id = i.as_inst().unwrap();
            f.inst_mut(i_id).args.push(i2);
            f.inst_mut(i_id).phi_blocks.push(body);
            f
        };
        let mut m = Module::new("t");
        let local = m.push(build("local", 0)); // same address
        let strided = m.push(build("strided", 4096)); // new page every access
        let mut mem = Memory::new();
        let a = run_host(&m, local, &[Constant::Int(200)], &mut mem);
        let mut mem = Memory::new();
        let b = run_host(&m, strided, &[Constant::Int(200)], &mut mem);
        assert!(b.cycles > a.cycles, "strided {} local {}", b.cycles, a.cycles);
        assert!(b.cache.l2_misses > 150);
        assert!(a.cache.l1_hits > 300);
        assert_eq!(a.loads, 200);
        assert_eq!(a.stores, 200);
        assert_eq!(a.branches, 201);
    }

    #[test]
    fn stall_inserts_idle_bubble() {
        let mut fb = FunctionBuilder::new("f", &[Type::I64], Some(Type::I64));
        let v = fb.add(fb.arg(0), V::int(1));
        fb.ret(Some(v));
        let mut m = Module::new("t");
        let f = m.push(fb.finish());
        let mut mem = Memory::new();
        let mut sim = HostSim::new(&m, HostConfig::default());
        Interp::new(&m)
            .run(f, &[Constant::Int(1)], &mut mem, &mut sim)
            .unwrap();
        let before = sim.now();
        sim.stall(1000);
        let stats = sim.finish();
        assert!(stats.cycles >= before + 1000);
    }

    #[test]
    fn rob_limits_lookahead_past_long_latency_misses() {
        // A load miss followed by >96 independent adds: the ROB caps how
        // much of the add stream can overlap the 200-cycle miss.
        let mut fb = FunctionBuilder::new("f", &[], Some(Type::I64));
        let v = fb.load(Type::I64, V::ptr(1 << 30)); // cold miss
        for k in 0..400 {
            fb.add(V::int(k), V::int(1)); // independent work
        }
        fb.ret(Some(v));
        let mut m = Module::new("t");
        let f = m.push(fb.finish());
        let mut mem = Memory::new();
        let stats = run_host(&m, f, &[], &mut mem);
        // Fetch-bound lower bound would be ~100 cycles; the ROB stall behind
        // the miss pushes it well past 250.
        assert!(stats.cycles > 250, "cycles {}", stats.cycles);
        assert_eq!(stats.insts, 401);
    }
}
