//! The SHA-256 compression function on the x86-64 SHA extensions
//! (`sha256rnds2` / `sha256msg1` / `sha256msg2`).
//!
//! This is the only module in the workspace that contains `unsafe`: two
//! kinds of block, both below — the call into a `#[target_feature]` function
//! (sound because the features were just detected) and the unaligned 16-byte
//! loads of the message (sound because the slice is 64 bytes long). Every
//! other crate is `#![forbid(unsafe_code)]` and the rest of this one is
//! `#![deny(unsafe_code)]`.
//!
//! Outputs are bit-identical to [`super::compress_scalar`]; the tests in
//! `sha256.rs` cross-check the two on random states, lengths and split
//! points, and pin golden digests.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_loadu_si128,
    _mm_set_epi32, _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
    _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
};

use super::K;

/// Run the compression function over `blocks` (a whole number of 64-byte
/// blocks) if this CPU has the SHA extensions. Returns `false`, with `state`
/// untouched, if it does not.
pub(super) fn try_compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    // `sha` for the three SHA-256 instructions, `ssse3` for pshufb/palignr,
    // `sse4.1` for pblendw/pextrd. The macro caches CPUID in an atomic.
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: every feature `compress` is compiled with was detected on this
    // CPU by the check above.
    unsafe { compress(state, blocks) };
    true
}

/// Round constants `K[4 * i..4 * i + 4]` as one vector, lane 0 first.
#[inline]
#[target_feature(enable = "sse2")]
fn k4(i: usize) -> __m128i {
    let k = &K[4 * i..4 * i + 4];
    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32)
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);

    // Four rounds: `$w` holds W[4i..4i+4]; `sha256rnds2` does two rounds on
    // the low two lanes of its third operand, and the two state halves swap
    // roles between the calls.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $i:expr, $w:expr) => {{
            let wk = _mm_add_epi32($w, k4($i));
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }
    // Message schedule: with `$a..$d` = W[t-16..t], overwrite `$a` with
    // W[t..t+4] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
    macro_rules! schedule {
        ($a:ident, $b:ident, $c:ident, $d:ident) => {
            $a = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($a, $b), _mm_alignr_epi8($d, $c, 4)),
                $d,
            )
        };
    }

    // The instructions want the state as (A,B,E,F) and (C,D,G,H), high lane
    // first; `state` is a..h, low lane first.
    let dcba = _mm_set_epi32(
        state[3] as i32,
        state[2] as i32,
        state[1] as i32,
        state[0] as i32,
    );
    let hgfe = _mm_set_epi32(
        state[7] as i32,
        state[6] as i32,
        state[5] as i32,
        state[4] as i32,
    );
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    // Big-endian message words -> little-endian lanes.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    for block in blocks.chunks_exact(64) {
        let p = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is exactly 64 bytes (chunks_exact), so the four
        // 16-byte reads at p, p+1, p+2, p+3 stay inside it; `_mm_loadu_si128`
        // has no alignment requirement.
        let (m0, m1, m2, m3) = unsafe {
            (
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            )
        };
        let mut w0 = _mm_shuffle_epi8(m0, byte_swap);
        let mut w1 = _mm_shuffle_epi8(m1, byte_swap);
        let mut w2 = _mm_shuffle_epi8(m2, byte_swap);
        let mut w3 = _mm_shuffle_epi8(m3, byte_swap);

        let (abef_in, cdgh_in) = (abef, cdgh);

        rounds4!(abef, cdgh, 0, w0);
        rounds4!(abef, cdgh, 1, w1);
        rounds4!(abef, cdgh, 2, w2);
        rounds4!(abef, cdgh, 3, w3);
        schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, 4, w0);
        schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, 5, w1);
        schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, 6, w2);
        schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, 7, w3);
        schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, 8, w0);
        schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, 9, w1);
        schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, 10, w2);
        schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, 11, w3);
        schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, 12, w0);
        schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, 13, w1);
        schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, 14, w2);
        schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, 15, w3);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    *state = [
        _mm_extract_epi32(dcba, 0) as u32,
        _mm_extract_epi32(dcba, 1) as u32,
        _mm_extract_epi32(dcba, 2) as u32,
        _mm_extract_epi32(dcba, 3) as u32,
        _mm_extract_epi32(hgfe, 0) as u32,
        _mm_extract_epi32(hgfe, 1) as u32,
        _mm_extract_epi32(hgfe, 2) as u32,
        _mm_extract_epi32(hgfe, 3) as u32,
    ];
}
