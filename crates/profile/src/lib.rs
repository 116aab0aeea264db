//! `needle-profile` — dynamic profiling for the Needle pipeline.
//!
//! Implements the profiling half of the paper (§III):
//!
//! * [`bl`] — Ball-Larus path numbering: back-edge removal, DAG path
//!   enumeration with dynamic programming, dense path ids, and id ↔ block
//!   sequence encode/decode;
//! * [`profiler`] — [`interp::TraceSink`](needle_ir::interp::TraceSink)
//!   implementations that collect path profiles and edge/block profiles
//!   online while a workload runs on the interpreter. A path profile counts
//!   paths and the `(prev, next)` path pairs within each invocation: §IV-A
//!   target expansion and the serving governor read the pairs;
//! * [`rank`] — the path-weight metric `Pwt = freq × ops` and function
//!   weight `Fwt` used to rank acceleration candidates;
//! * [`stats`] — the control-flow characterisation of Table I and Figure 4
//!   (branch↔memory dependences, predication bits, backward branches,
//!   branch-bias histograms).

pub mod bl;
pub mod profiler;
pub mod rank;
pub mod sampling;
pub mod stats;

pub use bl::{BlError, BlNumbering, DagEdge};
pub use profiler::{
    build_numberings, EdgeProfile, EdgeProfiler, PathProfile, PathProfiler, SharedNumberings,
};
pub use rank::{rank_paths, FunctionRank, RankedPath};
pub use sampling::SamplingProfiler;
pub use stats::{bias_histogram, control_flow_stats, BiasHistogram, ControlFlowStats};
