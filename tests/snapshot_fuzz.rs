//! Corruption fuzz for `snapshot::restore`.
//!
//! The contract: `restore` over arbitrary damaged input — truncations,
//! bit flips, hostile length fields — either succeeds or returns a
//! checked `SnapshotError`. It never panics, and it never trusts a
//! length field it has not clamped against the remaining input, so a
//! hostile count cannot drive a huge allocation. The format is
//! checksummed, so the guarantee is stronger still: any single-bit flip
//! anywhere in the stream is *detected* (magic/version checks over the
//! 12-byte head, CRC-32 over every chunk).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use ucpc::core::incremental::IncrementalUcpc;
use ucpc::core::wal::crc32;
use ucpc::core::{PruningConfig, SnapshotError};
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

/// Valid victim snapshots, one per pruning configuration, built once.
fn victims() -> &'static Vec<Vec<u8>> {
    static VICTIMS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    VICTIMS.get_or_init(|| {
        let mut out = Vec::new();
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let mut engine = IncrementalUcpc::new(2, 3).unwrap();
            engine.set_pruning(pruning);
            let mut rng = StdRng::seed_from_u64(5);
            let mut handles = Vec::new();
            for _ in 0..40 {
                let o = UncertainObject::new(vec![
                    UnivariatePdf::normal(rng.gen_range(-10.0..10.0), 0.3),
                    UnivariatePdf::uniform_centered(rng.gen_range(-3.0..3.0), 0.5),
                ]);
                handles.push(engine.insert(&o).unwrap());
            }
            for i in [3, 11, 26] {
                engine.remove(handles[i]).unwrap();
            }
            engine.stabilize(3);
            out.push(engine.snapshot());
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Any strict truncation of a valid snapshot is a checked error: every
    /// read is bounded by the input, so starving the tail can only surface
    /// as `SnapshotError`.
    #[test]
    fn truncations_always_fail_checked(which in 0usize..2, frac in 0.0f64..1.0) {
        let v = &victims()[which];
        let cut = ((v.len() - 1) as f64 * frac) as usize;
        prop_assert!(IncrementalUcpc::restore(&v[..cut]).is_err());
    }

    /// Any single-bit flip never panics and is always *detected* as a
    /// checked error.
    #[test]
    fn bit_flips_never_panic_and_v2_always_detects(
        which in 0usize..2,
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let v = &victims()[which];
        let pos = ((v.len() - 1) as f64 * frac) as usize;
        let mut bent = v.clone();
        bent[pos] ^= 1 << bit;
        let out = IncrementalUcpc::restore(&bent);
        prop_assert!(out.is_err(), "flip at byte {} bit {} undetected", pos, bit);
    }

    /// Random garbage never panics. (Almost everything fails the magic
    /// check; what survives must fail a later structural check.)
    #[test]
    fn random_bytes_never_panic(seed in 0u64..1_000_000, len in 0usize..4096) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        prop_assert!(IncrementalUcpc::restore(&bytes).is_err());
    }
}

/// Patches the `u64` at `at` inside the META chunk payload and re-seals
/// the chunk's CRC, so only the decoder's count clamps can reject it.
fn patch_meta(v: &[u8], fields: &[(usize, u64)]) -> Vec<u8> {
    // Head: magic(8) + version(4); META kind at 12, length at 13..17,
    // payload from 17, CRC-32 after the payload.
    let mut bent = v.to_vec();
    let len = u32::from_le_bytes(bent[13..17].try_into().unwrap()) as usize;
    for &(at, value) in fields {
        bent[17 + at..17 + at + 8].copy_from_slice(&value.to_le_bytes());
    }
    let crc = crc32(&bent[12..17 + len]);
    bent[17 + len..21 + len].copy_from_slice(&crc.to_le_bytes());
    bent
}

/// A hostile count field that passes the checksum must still fail fast
/// against the remaining-input clamp, not reach an allocator: patching
/// `m`, `k` or the slot counts to ~`u64::MAX` asks restore for ~10^19
/// entries backed by a few hundred bytes.
#[test]
fn hostile_meta_count_fields_fail_fast_without_allocating() {
    let v = &victims()[1];
    // META payload: backend(1) + pruning(1), then m at 2, k at 10, live at
    // 18, epoch at 26, n_slots at 34, n_free at 42 (module docs).
    let live = u64::from_le_bytes(v[17 + 18..17 + 26].try_into().unwrap());
    assert!(IncrementalUcpc::restore(&patch_meta(v, &[])).is_ok());
    for fields in [
        vec![(2, u64::MAX)],
        vec![(10, u64::MAX)],
        vec![(34, u64::MAX)],
        vec![(34, u64::MAX), (42, u64::MAX - live)],
    ] {
        let err = IncrementalUcpc::restore(&patch_meta(v, &fields)).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)),
            "{fields:?}: {err:?}"
        );
    }
}

/// Same for the chunk framing: the first chunk's length field patched to
/// `u32::MAX` claims a 4 GiB payload; the reader must reject it against
/// the bytes actually present before allocating anything.
#[test]
fn hostile_v2_chunk_length_fails_fast_without_allocating() {
    let v2 = &victims()[1];
    // Head: magic(8) + version(4); first chunk kind at 12, length at 13.
    let mut bent = v2.clone();
    bent[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(IncrementalUcpc::restore(&bent).is_err());
}
