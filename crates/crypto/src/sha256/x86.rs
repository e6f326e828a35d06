//! The x86-64 SHA-NI block compression — the only `unsafe` code in the
//! workspace (DESIGN.md §10, "Unsafe policy").
//!
//! `sha256rnds2` performs two rounds on a state split as `(ABEF, CDGH)`;
//! `sha256msg1`/`sha256msg2` extend the message schedule four words at a
//! time. One call keeps the state in those two registers across every block
//! it is given, so a multi-block message pays the load/permute/store of the
//! state once.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Proof that this CPU has the instructions the kernel uses: the only way
/// to obtain one is [`ShaNi::detect`].
#[derive(Debug, Clone, Copy)]
pub(super) struct ShaNi(());

impl ShaNi {
    /// `Some` iff the running CPU reports `sha`, `sse2`, `ssse3` and
    /// `sse4.1` (std caches the CPUID query; this is a few loads).
    pub(super) fn detect() -> Option<ShaNi> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(ShaNi(()))
    }

    /// Compresses every whole 64-byte block of `blocks` into `state`.
    pub(super) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: a `ShaNi` exists only as the result of `detect`, which
        // returned it after `is_x86_feature_detected!` confirmed `sha`,
        // `sse2`, `ssse3` and `sse4.1` on this CPU — exactly the features
        // `compress_blocks` is compiled with.
        unsafe { compress_blocks(state, blocks) }
    }
}

/// Four rounds: adds the round constants to four schedule words and runs
/// `sha256rnds2` on each half of the sum.
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $group:expr) => {{
        // SAFETY: `K` has 64 words and `$group` < 16, so the 16 bytes at
        // word `4 * $group` are in bounds; `loadu` needs no alignment.
        let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $group).cast()) };
        let wk = _mm_add_epi32($w, k);
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }};
}

/// Extends the schedule by four words (`$w0` is overwritten with
/// `W[t..t+4]` computed from the previous sixteen), then runs their rounds.
macro_rules! schedule_rounds4 {
    ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $group:expr) => {{
        let sigma0 = _mm_sha256msg1_epu32($w0, $w1);
        let with_w7 = _mm_add_epi32(sigma0, _mm_alignr_epi8($w3, $w2, 4));
        $w0 = _mm_sha256msg2_epu32(with_w7, $w3);
        rounds4!($abef, $cdgh, $w0, $group);
    }};
}

/// SHA-256 block compression with the SHA extensions.
///
/// Reads only whole 64-byte blocks of `blocks` (a trailing partial block is
/// ignored, as in the portable code).
///
/// # Safety
///
/// The running CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
/// target features. There are no other requirements: all memory is reached
/// through the two references.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte shuffle turning four big-endian words into native lanes.
    let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is 32 readable bytes; `loadu` needs no alignment.
    let (dcba, hgfe) = unsafe {
        let p: *const __m128i = state.as_ptr().cast();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    // (a,b,c,d),(e,f,g,h) → the (ABEF, CDGH) layout `sha256rnds2` expects.
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `chunks_exact(64)` yields exactly 64 readable bytes, read
        // here as four unaligned 16-byte loads.
        let (mut w0, mut w1, mut w2, mut w3) = unsafe {
            let p: *const __m128i = block.as_ptr().cast();
            (
                _mm_shuffle_epi8(_mm_loadu_si128(p), big_endian),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), big_endian),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), big_endian),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), big_endian),
            )
        };

        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 5);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 6);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 7);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 8);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 9);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 10);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 11);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 12);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 13);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 14);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 15);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // Back to (a,b,c,d),(e,f,g,h).
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: `state` is 32 writable bytes; `storeu` needs no alignment.
    unsafe {
        let p: *mut __m128i = state.as_mut_ptr().cast();
        _mm_storeu_si128(p, dcba);
        _mm_storeu_si128(p.add(1), hgfe);
    }
}
