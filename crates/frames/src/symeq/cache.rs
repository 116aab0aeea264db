//! Frame fingerprinting for the verdict cache.
//!
//! A certificate is only reusable for a bit-identical frame *and*
//! source region, so the fingerprint hashes the frame's full canonical
//! `Debug` rendering (ops, predicates, immediates, live-ins/outs,
//! guards, and the embedded region with its ordered edge set) under
//! FNV-1a. The durable journal layer in the `needle` core crate keys
//! cached verdicts by this hash.

use crate::frame::Frame;

/// 64-bit FNV-1a. Besides the frame fingerprint, the `needle` core crate
/// hashes with it for the journal's on-disk per-record checksums, the
/// supervisor's retry jitter and the shard ring's placement, so its
/// output must never change.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content hash of a frame (including its source region).
///
/// Deterministic within a build: every field that affects execution
/// semantics participates, and the region's `BTreeSet` edge order makes
/// the rendering canonical.
pub fn frame_fingerprint(frame: &Frame) -> u64 {
    let canon = format!("{frame:?}");
    fnv1a64(canon.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameOp, FrameOpKind, FrameValue};

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fingerprint_tracks_semantic_fields() {
        let mut frame = Frame {
            ops: Vec::new(),
            live_ins: Vec::new(),
            live_outs: Vec::new(),
            guards: Vec::new(),
            phis_cancelled: 0,
            undo_log_size: 0,
            loop_carried: Vec::new(),
            region: needle_regions::OffloadRegion::from_path(&[], 0, 0.0),
        };
        let base = frame_fingerprint(&frame);
        assert_eq!(base, frame_fingerprint(&frame), "deterministic");
        frame.ops.push(FrameOp {
            kind: FrameOpKind::Guard { expected: true },
            args: vec![FrameValue::LiveIn(0)],
            ty: needle_ir::Type::I1,
            pred: None,
            src: None,
            imm: 0,
        });
        assert_ne!(base, frame_fingerprint(&frame), "ops change the hash");
    }
}
