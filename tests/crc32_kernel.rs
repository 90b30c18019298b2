//! Bit-identity of the dispatched CRC-32 against the slicing-by-8 table.
//!
//! `wal::crc32` runs a carry-less-multiply folding kernel on x86_64 hosts
//! with PCLMULQDQ and the table everywhere else (and for inputs under 64
//! bytes and the `len mod 16` tail). Every WAL frame and snapshot chunk is
//! checked with it, so the two kernels must agree on every input: a single
//! differing bit would make one build's logs unreadable by another. This
//! suite runs against whatever kernel the host detects; where only the
//! table exists it compares the table with itself and still pins the
//! check values.

use proptest::prelude::*;
use ucpc::core::wal::{crc32, crc32_table};

/// Deterministic pseudo-random bytes (an LCG; the content only has to be
/// irregular).
fn noise(len: usize, seed: u32) -> Vec<u8> {
    let mut s = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (s >> 24) as u8
        })
        .collect()
}

#[test]
fn ieee_check_value_and_empty_input() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_table(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32_table(b""), 0);
    // The same check value inside a buffer long enough for the folding
    // kernel: 64 zero bytes then the digits, against the table.
    let mut long = vec![0u8; 64];
    long.extend_from_slice(b"123456789");
    assert_eq!(crc32(&long), crc32_table(&long));
}

/// Every length 0..=2048 at every slice offset 0..16: covers inputs below
/// the fold threshold, exactly at it, every tail length, and unaligned
/// 16-byte loads.
#[test]
fn every_length_and_offset_matches_the_table() {
    let data = noise(2048 + 16, 7);
    for offset in 0..16 {
        for len in 0..=2048 {
            let s = &data[offset..offset + len];
            assert_eq!(crc32(s), crc32_table(s), "offset {offset}, len {len}");
        }
    }
}

/// All-zero and all-one inputs stress the register injection (the initial
/// `!0` register XORed into the first lane) rather than the data.
#[test]
fn constant_inputs_match_the_table() {
    for byte in [0x00u8, 0xFF] {
        for len in [63, 64, 65, 79, 80, 127, 128, 129, 517, 4096] {
            let s = vec![byte; len];
            assert_eq!(crc32(&s), crc32_table(&s), "byte {byte:#x}, len {len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random contents, lengths and offsets.
    #[test]
    fn random_slices_match_the_table(
        bytes in prop::collection::vec(0u8..=255, 0..4096),
        offset in 0usize..16,
    ) {
        let s = &bytes[offset.min(bytes.len())..];
        prop_assert_eq!(crc32(s), crc32_table(s));
    }

    /// A single flipped bit always changes the checksum, on both kernels.
    #[test]
    fn single_bit_flips_change_the_checksum(
        len in 1usize..1024,
        seed in 0u32..1_000_000,
        at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let clean = noise(len, seed);
        let mut bent = clean.clone();
        let pos = ((len - 1) as f64 * at) as usize;
        bent[pos] ^= 1 << bit;
        prop_assert!(crc32(&bent) != crc32(&clean));
        prop_assert_eq!(crc32(&bent), crc32_table(&bent));
    }
}
