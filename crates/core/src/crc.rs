//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding every WAL frame and every snapshot chunk.
//!
//! Two kernels compute the same function:
//!
//! * **Slicing-by-8** ([`crc32_table`]): eight table lookups retire eight
//!   input bytes per step. Tables are built at compile time, so it needs no
//!   external crate and no runtime init. It is the portable path, the path
//!   for inputs shorter than 64 bytes, the tail path of the folding kernel
//!   (`len mod 16` bytes), and the reference the tests hold the folding
//!   kernel to.
//! * **Carry-less-multiply folding** (x86_64 with PCLMULQDQ + SSE4.1,
//!   detected at run time and cached once): the standard four-lane fold of
//!   128-bit blocks by `x^512 mod P`, a fold to one lane by `x^128 mod P`,
//!   a reduction to 64 bits, and a Barrett reduction to the 32-bit
//!   remainder. Each 16-byte block costs two carry-less multiplies instead
//!   of sixteen table lookups, about 10× the throughput on a WAL commit
//!   frame of a few hundred bytes.
//!
//! Both are exact polynomial arithmetic over GF(2), so their outputs agree
//! bit for bit on every input (`tests/crc32_kernel.rs` sweeps every length
//! and alignment against the table). Nothing chooses between them but the
//! CPU: there is no knob.

#[cfg(target_arch = "x86_64")]
use std::sync::atomic::{AtomicU8, Ordering};

// Slicing-by-8: table[0] is the classic byte-at-a-time table; table[k]
// advances a byte through k additional zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Smallest input the folding kernel takes: four 128-bit lanes.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN_LEN: usize = 64;

/// CRC-32 (IEEE) of `bytes`, on the fastest kernel the CPU supports — the
/// checksum guarding every WAL frame and every snapshot chunk.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN_LEN && clmul_available() {
        // SAFETY: `clmul_available` confirmed PCLMULQDQ and SSE4.1 at run
        // time, and the input holds at least four 16-byte blocks.
        return !unsafe { clmul::update(!0, bytes) };
    }
    !update_table(!0, bytes)
}

/// CRC-32 (IEEE) of `bytes` on the slicing-by-8 table kernel alone — the
/// portable reference [`crc32`] equals bit for bit on every input.
pub fn crc32_table(bytes: &[u8]) -> u32 {
    !update_table(!0, bytes)
}

/// Advances the (pre-inverted) CRC register `c` over `bytes`, eight bytes
/// per step.
fn update_table(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
const UNKNOWN: u8 = 0;
#[cfg(target_arch = "x86_64")]
const ABSENT: u8 = 1;
#[cfg(target_arch = "x86_64")]
const PRESENT: u8 = 2;

/// The cached detection result; `UNKNOWN` until the first long input.
#[cfg(target_arch = "x86_64")]
static CLMUL: AtomicU8 = AtomicU8::new(UNKNOWN);

#[cfg(target_arch = "x86_64")]
#[inline]
fn clmul_available() -> bool {
    match CLMUL.load(Ordering::Relaxed) {
        UNKNOWN => detect_clmul(),
        state => state == PRESENT,
    }
}

/// First-use detection. A race between threads at most repeats the
/// (idempotent) probe.
#[cfg(target_arch = "x86_64")]
#[cold]
fn detect_clmul() -> bool {
    let present = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
    CLMUL.store(if present { PRESENT } else { ABSENT }, Ordering::Relaxed);
    present
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the bit-reflected polynomial P = 0x104C11DB7,
    // each a 33-bit reflected residue: K1 = x^(4·128+32) mod P and
    // K2 = x^(4·128−32) mod P fold a lane across 512 bits; K3/K4 are the
    // same across 128 bits; K5 = x^64 mod P folds 96 bits to 64. P_X is the
    // reflected polynomial and MU = ⌊x^64 / P⌋ its Barrett constant.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Advances the (pre-inverted) CRC register `c` over `data`.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1, and `data` must hold at
    /// least 64 bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(c: u32, mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= super::FOLD_MIN_LEN);
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        // The register enters as the first 32 bits of the message.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(c as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold(x3, load(&mut data), k1k2);
            x2 = fold(x2, load(&mut data), k1k2);
            x1 = fold(x1, load(&mut data), k1k2);
            x0 = fold(x0, load(&mut data), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold(x, load(&mut data), k3k4);
        }

        // 128 → 96 bits: the low lane times x^128 mod P, plus the high lane.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 → 32 bits (reflected variant: the remainder
        // lands in the upper half of the 64-bit result).
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::update_table(c, data)
    }

    /// `a · K ⊕ b`: folds lane `a` forward onto block `b` (low half of `a`
    /// times the low key, high half times the high key).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Loads the next 16 bytes and advances `data` past them.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(data: &mut &[u8]) -> __m128i {
        let (block, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `block` is exactly 16 readable bytes; the load is
        // unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
    }
}
