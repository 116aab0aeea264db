//! `needle-frames` — software frames: Needle's atomic offload units (§V).
//!
//! A software frame packages an offload region as a flat, accelerator-ready
//! dataflow graph:
//!
//! * region-internal branches become **guards** — asynchronous `I1` checks
//!   that do not gate any computation; every operation (memory included)
//!   executes speculatively and the frame commits only if every guard
//!   passes;
//! * φs along a single flow of control cancel (Table II column C6); φs at
//!   Braid-internal merge points lower to predicated selects;
//! * stores are instrumented with a software **undo log** so a failed guard
//!   rolls externally-visible memory back exactly;
//! * the **live-in / live-out** boundary is the only communication with the
//!   host core (no shared architectural state).
//!
//! [`build_frame`] constructs a [`Frame`] from an
//! [`OffloadRegion`](needle_regions::OffloadRegion); [`exec::run_frame`]
//! executes one atomically against an
//! [`interp::Memory`](needle_ir::interp::Memory), committing or rolling
//! back, which both verifies frame semantics and drives the offload
//! simulation.

pub mod build;
pub mod exec;
pub mod frame;
pub mod inject;
pub mod liveness;
pub mod opt;
pub mod symeq;
pub mod verify;

pub use build::{build_frame, BuildError};
pub use exec::{run_frame, run_frame_with, AbortCause, ExecFrameError, FrameOutcome};
pub use frame::{Frame, FrameOp, FrameOpKind, FrameValue, LiveIn, LiveOut};
pub use inject::{Fault, FaultInjector, FaultKind, InjectionRecord, InjectorConfig};
pub use liveness::{live_ins, live_outs};
pub use opt::{concat_frames, OptError};
pub use symeq::{
    certify_frame, frame_fingerprint, CertConfig, CertVerdict, Certificate, CounterExample,
    SolveStats, SymEqError,
};
pub use verify::{verify_invocation, RefRun, VerifyError, Verdict};
