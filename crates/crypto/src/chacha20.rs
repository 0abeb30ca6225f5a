//! The ChaCha20 stream cipher (RFC 8439 §2.3–2.4).
//!
//! This is the bulk half of the negotiated AEAD suite. The paper's
//! architecture deliberately separates key management from the transport
//! cipher (§3), so the channel can swap ARC4 for a modern suite without
//! touching key negotiation; this module supplies the modern stream.
//!
//! Performance follows the same two-tier approach as SHA-1 in this
//! crate. The portable tier is word-at-a-time pure Rust shaped for
//! auto-vectorization: the 4×4 state is held as four *rows* of four u32
//! ([`Row`]), so a column round is four identical element-wise ops per
//! step — one 128-bit SIMD instruction each on any x86-64 or aarch64 —
//! and the diagonal round is the same after rotating rows lane-wise
//! (a register shuffle). Two blocks run interleaved per step: the whole
//! working set is ~8 vectors, which fits the 16 XMM registers without
//! spilling (the naive 16-vector-of-lanes layout needs 32 and spills).
//!
//! The fast tiers are selected by runtime feature detection and
//! cross-checked against the portable tier in tests, exactly like the
//! SHA-NI compression path. [`avx2`] runs four blocks per step with two
//! blocks sharing each 256-bit register (the row layout again, one
//! block per 128-bit lane, so diagonalization is an in-lane shuffle),
//! does the 16- and 8-bit rotations with a single byte shuffle, and
//! finishes any tail with one more step into a stack block. [`avx512`]
//! doubles that to eight blocks per step on 512-bit registers, where
//! every rotation is a native `vprold`, and leaves its sub-step
//! remainder to the AVX2 tier. The portable tier runs only on hosts
//! without AVX2.

/// Key length in bytes (256-bit keys only; RFC 8439 drops the 128-bit form).
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (96-bit IETF nonce; the block counter is 32-bit).
pub const NONCE_LEN: usize = 12;
/// One keystream block.
pub const BLOCK_LEN: usize = 64;

/// "expand 32-byte k", the §2.3 constant words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One row of the state matrix; element-wise ops vectorize to one
/// 128-bit instruction.
type Row = [u32; 4];

#[inline(always)]
fn vadd(a: Row, b: Row) -> Row {
    [
        a[0].wrapping_add(b[0]),
        a[1].wrapping_add(b[1]),
        a[2].wrapping_add(b[2]),
        a[3].wrapping_add(b[3]),
    ]
}

#[inline(always)]
fn vxor(a: Row, b: Row) -> Row {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

#[inline(always)]
fn vrotl(a: Row, n: u32) -> Row {
    [
        a[0].rotate_left(n),
        a[1].rotate_left(n),
        a[2].rotate_left(n),
        a[3].rotate_left(n),
    ]
}

/// Rotates lanes left by `N` (the diagonalization shuffle).
#[inline(always)]
fn lanes<const N: usize>(a: Row) -> Row {
    [a[N % 4], a[(N + 1) % 4], a[(N + 2) % 4], a[(N + 3) % 4]]
}

/// Four §2.1 quarter rounds at once, one per column of the row layout.
#[inline(always)]
fn column_rounds(r0: &mut Row, r1: &mut Row, r2: &mut Row, r3: &mut Row) {
    *r0 = vadd(*r0, *r1);
    *r3 = vrotl(vxor(*r3, *r0), 16);
    *r2 = vadd(*r2, *r3);
    *r1 = vrotl(vxor(*r1, *r2), 12);
    *r0 = vadd(*r0, *r1);
    *r3 = vrotl(vxor(*r3, *r0), 8);
    *r2 = vadd(*r2, *r3);
    *r1 = vrotl(vxor(*r1, *r2), 7);
}

/// The 20-round permutation plus feed-forward (§2.3) for two blocks at
/// consecutive counters, interleaved for instruction-level parallelism.
/// Returns the finished keystream words of both blocks.
#[inline(always)]
fn permute2(words: &[u32; 16]) -> [[u32; 16]; 2] {
    let i0: Row = words[0..4].try_into().unwrap();
    let i1: Row = words[4..8].try_into().unwrap();
    let i2: Row = words[8..12].try_into().unwrap();
    let i3a: Row = words[12..16].try_into().unwrap();
    let i3b: Row = [i3a[0].wrapping_add(1), i3a[1], i3a[2], i3a[3]];

    let (mut a0, mut a1, mut a2, mut a3) = (i0, i1, i2, i3a);
    let (mut b0, mut b1, mut b2, mut b3) = (i0, i1, i2, i3b);
    for _ in 0..10 {
        column_rounds(&mut a0, &mut a1, &mut a2, &mut a3);
        column_rounds(&mut b0, &mut b1, &mut b2, &mut b3);
        // Diagonalize, run the same column machinery, undo.
        a1 = lanes::<1>(a1);
        a2 = lanes::<2>(a2);
        a3 = lanes::<3>(a3);
        b1 = lanes::<1>(b1);
        b2 = lanes::<2>(b2);
        b3 = lanes::<3>(b3);
        column_rounds(&mut a0, &mut a1, &mut a2, &mut a3);
        column_rounds(&mut b0, &mut b1, &mut b2, &mut b3);
        a1 = lanes::<3>(a1);
        a2 = lanes::<2>(a2);
        a3 = lanes::<1>(a3);
        b1 = lanes::<3>(b1);
        b2 = lanes::<2>(b2);
        b3 = lanes::<1>(b3);
    }
    let mut out = [[0u32; 16]; 2];
    for (dst, rows) in out.iter_mut().zip([
        [vadd(a0, i0), vadd(a1, i1), vadd(a2, i2), vadd(a3, i3a)],
        [vadd(b0, i0), vadd(b1, i1), vadd(b2, i2), vadd(b3, i3b)],
    ]) {
        for (i, row) in rows.iter().enumerate() {
            dst[i * 4..i * 4 + 4].copy_from_slice(row);
        }
    }
    out
}

/// The widest step any tier takes, in bytes (eight blocks).
pub(crate) const MAX_STEP: usize = 8 * BLOCK_LEN;

/// XORs `ks` into `dst` bytewise, over the shorter of the two.
#[inline(always)]
pub(crate) fn xor_bytes(dst: &mut [u8], ks: &[u8]) {
    for (d, k) in dst.iter_mut().zip(ks) {
        *d ^= k;
    }
}

/// The AVX-512 tier also runs the AVX2 step for its remainders, so it
/// needs both features.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("avx2")
}

/// ChaCha20 stream state: key, nonce, and the current block counter.
#[derive(Clone)]
pub struct ChaCha20 {
    /// State-word template: constants, key, counter (word 12), nonce.
    words: [u32; 16],
}

impl ChaCha20 {
    /// Initializes the stream at block `counter` (§2.3 state layout).
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut words = [0u32; 16];
        words[..4].copy_from_slice(&SIGMA);
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            words[4 + i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        words[12] = counter;
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            words[13 + i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        ChaCha20 { words }
    }

    /// XORs keystream into `buf` in place (encryption == decryption),
    /// advancing the block counter past every block consumed. A partial
    /// final block discards its unused keystream tail: a subsequent call
    /// continues at the next 64-byte block boundary, which is the contract
    /// the AEAD layer relies on (each frame is processed in one call).
    pub fn xor_keystream(&mut self, buf: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                // SAFETY: AVX-512F and AVX2 presence is checked just above.
                unsafe {
                    let done = avx512::xor_steps(&mut self.words, buf);
                    avx2::xor_keystream(&mut self.words, &mut buf[done..]);
                }
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 presence is checked just above.
                unsafe { avx2::xor_keystream(&mut self.words, buf) };
                return;
            }
        }
        self.xor_keystream_portable(buf);
    }

    /// Writes one step of the widest tier's keystream, from the current
    /// counter on, to the front of `out`, advances the counter past it,
    /// and returns the step's length: 512, 256 or 128 bytes.
    pub(crate) fn keystream_step(&mut self, out: &mut [u8; MAX_STEP]) -> usize {
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                // SAFETY: AVX-512F presence is checked just above.
                return unsafe { avx512::keystream(&mut self.words, out) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 presence is checked just above.
                return unsafe { avx2::keystream(&mut self.words, out) };
            }
        }
        self.keystream_step_portable(out)
    }

    /// The auto-vectorized two-block tier: the only one on hosts without
    /// AVX2, and the reference the wide tiers are tested against.
    fn xor_keystream_portable(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(2 * BLOCK_LEN);
        for chunk in &mut chunks {
            let ks = permute2(&self.words);
            // Apply word-at-a-time: one load/XOR/store per state word.
            for (half, words) in chunk.chunks_exact_mut(BLOCK_LEN).zip(ks.iter()) {
                for (i, w) in words.iter().enumerate() {
                    let o = i * 4;
                    let x = u32::from_le_bytes(half[o..o + 4].try_into().unwrap()) ^ w;
                    half[o..o + 4].copy_from_slice(&x.to_le_bytes());
                }
            }
            self.words[12] = self.words[12].wrapping_add(2);
        }
        let rest = chunks.into_remainder();
        if rest.is_empty() {
            return;
        }
        // Tail: at most two blocks' worth; one more wide step, applied
        // bytewise over however much remains.
        let ks = permute2(&self.words);
        for (i, b) in rest.iter_mut().enumerate() {
            let w = ks[i / BLOCK_LEN][(i % BLOCK_LEN) / 4];
            *b ^= w.to_le_bytes()[i % 4];
        }
        self.words[12] = self.words[12].wrapping_add(rest.len().div_ceil(BLOCK_LEN) as u32);
    }

    /// The portable tier's step: two blocks.
    fn keystream_step_portable(&mut self, out: &mut [u8; MAX_STEP]) -> usize {
        let ks = permute2(&self.words);
        for (dst, w) in out.chunks_exact_mut(4).zip(ks.iter().flatten()) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        self.words[12] = self.words[12].wrapping_add(2);
        2 * BLOCK_LEN
    }
}

/// Computes one raw keystream block (§2.3) on the portable tier: the
/// reference for the first 32 bytes of block 0, the Poly1305 one-time
/// key (§2.6).
pub fn keystream_block(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
) -> [u8; BLOCK_LEN] {
    let stream = ChaCha20::new(key, nonce, counter);
    let words = permute2(&stream.words)[0];
    let mut out = [0u8; BLOCK_LEN];
    for (i, w) in words.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// Four blocks per step on 256-bit registers: two row-layout states, one
/// block per 128-bit lane. Rotations by 16 and 8 are single byte
/// shuffles; diagonalization shuffles words within each lane, so the two
/// blocks in a register never mix. A partial tail takes one more step
/// into a stack block.
///
/// The functions are safe to call only from code that has checked for
/// AVX2 (the compiler demands `unsafe` at every other call site).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{xor_bytes, BLOCK_LEN, MAX_STEP};
    use std::arch::x86_64::*;

    /// Keystream bytes per step (four blocks).
    const STEP: usize = 4 * BLOCK_LEN;

    /// The state template and the counter rows of the two interleaved
    /// states: `a` holds blocks n and n+1, `b` blocks n+2 and n+3.
    struct Steps {
        row0: __m256i,
        row1: __m256i,
        row2: __m256i,
        i3a: __m256i,
        i3b: __m256i,
    }

    /// Row `i` of the state template in both 128-bit lanes.
    #[target_feature(enable = "avx2")]
    fn row(words: &[u32; 16], i: usize) -> __m256i {
        let w = |j: usize| words[4 * i + j] as i32;
        _mm256_broadcastsi128_si256(_mm_setr_epi32(w(0), w(1), w(2), w(3)))
    }

    impl Steps {
        #[target_feature(enable = "avx2")]
        fn new(words: &[u32; 16]) -> Steps {
            let row3 = row(words, 3);
            Steps {
                row0: row(words, 0),
                row1: row(words, 1),
                row2: row(words, 2),
                // Counter offsets: low lane = block n, high lane = n+1.
                i3a: _mm256_add_epi32(row3, _mm256_setr_epi32(0, 0, 0, 0, 1, 0, 0, 0)),
                i3b: _mm256_add_epi32(row3, _mm256_setr_epi32(2, 0, 0, 0, 3, 0, 0, 0)),
            }
        }

        /// The next four keystream blocks, in stream order; the counters
        /// move on by four (wrapping, as word 12 does).
        #[inline]
        #[target_feature(enable = "avx2")]
        fn next(&mut self) -> [__m256i; 8] {
            // Byte-shuffle controls for 32-bit lane rotations (same
            // pattern in both 128-bit lanes).
            let rot16 = _mm256_setr_epi8(
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
            );
            let rot8 = _mm256_setr_epi8(
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
            );
            let (row0, row1, row2, i3a, i3b) =
                (self.row0, self.row1, self.row2, self.i3a, self.i3b);
            let (mut a0, mut a1, mut a2, mut a3) = (row0, row1, row2, i3a);
            let (mut b0, mut b1, mut b2, mut b3) = (row0, row1, row2, i3b);
            for _ in 0..10 {
                // Column rounds, both states interleaved.
                a0 = _mm256_add_epi32(a0, a1);
                b0 = _mm256_add_epi32(b0, b1);
                a3 = _mm256_shuffle_epi8(_mm256_xor_si256(a3, a0), rot16);
                b3 = _mm256_shuffle_epi8(_mm256_xor_si256(b3, b0), rot16);
                a2 = _mm256_add_epi32(a2, a3);
                b2 = _mm256_add_epi32(b2, b3);
                a1 = _mm256_xor_si256(a1, a2);
                b1 = _mm256_xor_si256(b1, b2);
                a1 = _mm256_or_si256(_mm256_slli_epi32(a1, 12), _mm256_srli_epi32(a1, 20));
                b1 = _mm256_or_si256(_mm256_slli_epi32(b1, 12), _mm256_srli_epi32(b1, 20));
                a0 = _mm256_add_epi32(a0, a1);
                b0 = _mm256_add_epi32(b0, b1);
                a3 = _mm256_shuffle_epi8(_mm256_xor_si256(a3, a0), rot8);
                b3 = _mm256_shuffle_epi8(_mm256_xor_si256(b3, b0), rot8);
                a2 = _mm256_add_epi32(a2, a3);
                b2 = _mm256_add_epi32(b2, b3);
                a1 = _mm256_xor_si256(a1, a2);
                b1 = _mm256_xor_si256(b1, b2);
                a1 = _mm256_or_si256(_mm256_slli_epi32(a1, 7), _mm256_srli_epi32(a1, 25));
                b1 = _mm256_or_si256(_mm256_slli_epi32(b1, 7), _mm256_srli_epi32(b1, 25));
                // Diagonalize (within each lane), repeat, undo.
                a1 = _mm256_shuffle_epi32(a1, 0x39);
                a2 = _mm256_shuffle_epi32(a2, 0x4E);
                a3 = _mm256_shuffle_epi32(a3, 0x93);
                b1 = _mm256_shuffle_epi32(b1, 0x39);
                b2 = _mm256_shuffle_epi32(b2, 0x4E);
                b3 = _mm256_shuffle_epi32(b3, 0x93);
                a0 = _mm256_add_epi32(a0, a1);
                b0 = _mm256_add_epi32(b0, b1);
                a3 = _mm256_shuffle_epi8(_mm256_xor_si256(a3, a0), rot16);
                b3 = _mm256_shuffle_epi8(_mm256_xor_si256(b3, b0), rot16);
                a2 = _mm256_add_epi32(a2, a3);
                b2 = _mm256_add_epi32(b2, b3);
                a1 = _mm256_xor_si256(a1, a2);
                b1 = _mm256_xor_si256(b1, b2);
                a1 = _mm256_or_si256(_mm256_slli_epi32(a1, 12), _mm256_srli_epi32(a1, 20));
                b1 = _mm256_or_si256(_mm256_slli_epi32(b1, 12), _mm256_srli_epi32(b1, 20));
                a0 = _mm256_add_epi32(a0, a1);
                b0 = _mm256_add_epi32(b0, b1);
                a3 = _mm256_shuffle_epi8(_mm256_xor_si256(a3, a0), rot8);
                b3 = _mm256_shuffle_epi8(_mm256_xor_si256(b3, b0), rot8);
                a2 = _mm256_add_epi32(a2, a3);
                b2 = _mm256_add_epi32(b2, b3);
                a1 = _mm256_xor_si256(a1, a2);
                b1 = _mm256_xor_si256(b1, b2);
                a1 = _mm256_or_si256(_mm256_slli_epi32(a1, 7), _mm256_srli_epi32(a1, 25));
                b1 = _mm256_or_si256(_mm256_slli_epi32(b1, 7), _mm256_srli_epi32(b1, 25));
                a1 = _mm256_shuffle_epi32(a1, 0x93);
                a2 = _mm256_shuffle_epi32(a2, 0x4E);
                a3 = _mm256_shuffle_epi32(a3, 0x39);
                b1 = _mm256_shuffle_epi32(b1, 0x93);
                b2 = _mm256_shuffle_epi32(b2, 0x4E);
                b3 = _mm256_shuffle_epi32(b3, 0x39);
            }
            // Feed-forward.
            a0 = _mm256_add_epi32(a0, row0);
            a1 = _mm256_add_epi32(a1, row1);
            a2 = _mm256_add_epi32(a2, row2);
            a3 = _mm256_add_epi32(a3, i3a);
            b0 = _mm256_add_epi32(b0, row0);
            b1 = _mm256_add_epi32(b1, row1);
            b2 = _mm256_add_epi32(b2, row2);
            b3 = _mm256_add_epi32(b3, i3b);
            let ctr_step = _mm256_setr_epi32(4, 0, 0, 0, 4, 0, 0, 0);
            self.i3a = _mm256_add_epi32(i3a, ctr_step);
            self.i3b = _mm256_add_epi32(i3b, ctr_step);
            // Reassemble per-block streams: low lanes then high lanes.
            [
                _mm256_permute2x128_si256(a0, a1, 0x20),
                _mm256_permute2x128_si256(a2, a3, 0x20),
                _mm256_permute2x128_si256(a0, a1, 0x31),
                _mm256_permute2x128_si256(a2, a3, 0x31),
                _mm256_permute2x128_si256(b0, b1, 0x20),
                _mm256_permute2x128_si256(b2, b3, 0x20),
                _mm256_permute2x128_si256(b0, b1, 0x31),
                _mm256_permute2x128_si256(b2, b3, 0x31),
            ]
        }

        /// The next step, stored to the front of `out`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn store_next(&mut self, out: &mut [u8; MAX_STEP]) {
            let dst = out.as_mut_ptr().cast::<__m256i>();
            for (j, ks) in self.next().into_iter().enumerate() {
                // SAFETY: vector j < 8 covers bytes 32j..32j+32, within
                // the first STEP ≤ MAX_STEP bytes of `out`; the store is
                // unaligned.
                unsafe { _mm256_storeu_si256(dst.add(j), ks) };
            }
        }
    }

    /// XORs keystream over all of `buf`, advancing the counter word past
    /// every block touched: whole steps in place, then one more step into
    /// a stack block for the partial tail, exactly as the portable tier
    /// counts it.
    #[target_feature(enable = "avx2")]
    pub(super) fn xor_keystream(words: &mut [u32; 16], buf: &mut [u8]) {
        let blocks = buf.len().div_ceil(BLOCK_LEN);
        let mut steps = Steps::new(words);
        let mut chunks = buf.chunks_exact_mut(STEP);
        for chunk in &mut chunks {
            let q = chunk.as_mut_ptr().cast::<__m256i>();
            for (j, ks) in steps.next().into_iter().enumerate() {
                // SAFETY: `chunk` is STEP = 8 × 32 bytes, so vector j is
                // in bounds; the loads and stores are unaligned.
                unsafe {
                    let v = _mm256_xor_si256(_mm256_loadu_si256(q.add(j)), ks);
                    _mm256_storeu_si256(q.add(j), v);
                }
            }
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let mut ks = [0u8; MAX_STEP];
            steps.store_next(&mut ks);
            xor_bytes(tail, &ks);
        }
        words[12] = words[12].wrapping_add(blocks as u32);
    }

    /// One step from the counter on into `out[..STEP]`; advances the
    /// counter four blocks and returns STEP.
    #[target_feature(enable = "avx2")]
    pub(super) fn keystream(words: &mut [u32; 16], out: &mut [u8; MAX_STEP]) -> usize {
        Steps::new(words).store_next(out);
        words[12] = words[12].wrapping_add(4);
        STEP
    }
}

/// Eight blocks per step on 512-bit registers: two row-layout states,
/// one block per 128-bit lane (four lanes per register). AVX-512F has a
/// native 32-bit rotate, so every quarter-round rotation is a single
/// `vprold`; diagonalization is an in-lane word shuffle, exactly as in
/// the AVX2 tier. It takes whole steps only and leaves the remainder to
/// the AVX2 tier, whose four-block step is the cheaper one below 512
/// bytes.
///
/// The functions are safe to call only from code that has checked for
/// AVX-512F (the compiler demands `unsafe` at every other call site).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{BLOCK_LEN, MAX_STEP};
    use std::arch::x86_64::*;

    /// Keystream bytes per step (eight blocks).
    const STEP: usize = 8 * BLOCK_LEN;

    /// `add, xor, rotate` on one column-round leg of both interleaved
    /// states, with the rotate amount as a constant.
    macro_rules! half_qr {
        ($a0:ident $a1:ident $a3:ident, $b0:ident $b1:ident $b3:ident, $rot:literal) => {
            $a0 = _mm512_add_epi32($a0, $a1);
            $b0 = _mm512_add_epi32($b0, $b1);
            $a3 = _mm512_rol_epi32::<$rot>(_mm512_xor_si512($a3, $a0));
            $b3 = _mm512_rol_epi32::<$rot>(_mm512_xor_si512($b3, $b0));
        };
    }

    /// The state template and the counter rows of the two interleaved
    /// states: lane k of `a` is block n+k, of `b` block n+4+k.
    struct Steps {
        row0: __m512i,
        row1: __m512i,
        row2: __m512i,
        i3a: __m512i,
        i3b: __m512i,
    }

    /// Row `i` of the state template in all four 128-bit lanes.
    #[target_feature(enable = "avx512f")]
    fn row(words: &[u32; 16], i: usize) -> __m512i {
        let w = |j: usize| words[4 * i + j] as i32;
        _mm512_broadcast_i32x4(_mm_setr_epi32(w(0), w(1), w(2), w(3)))
    }

    impl Steps {
        #[target_feature(enable = "avx512f")]
        fn new(words: &[u32; 16]) -> Steps {
            let row3 = row(words, 3);
            let ctr_a = _mm512_setr_epi32(0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0);
            let ctr_b = _mm512_setr_epi32(4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 7, 0, 0, 0);
            Steps {
                row0: row(words, 0),
                row1: row(words, 1),
                row2: row(words, 2),
                i3a: _mm512_add_epi32(row3, ctr_a),
                i3b: _mm512_add_epi32(row3, ctr_b),
            }
        }

        /// The next eight keystream blocks, one whole block per register
        /// in stream order; the counters move on by eight (wrapping).
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn next(&mut self) -> [__m512i; 8] {
            let (row0, row1, row2, i3a, i3b) =
                (self.row0, self.row1, self.row2, self.i3a, self.i3b);
            let (mut a0, mut a1, mut a2, mut a3) = (row0, row1, row2, i3a);
            let (mut b0, mut b1, mut b2, mut b3) = (row0, row1, row2, i3b);
            for _ in 0..10 {
                // Column rounds, both states interleaved.
                half_qr!(a0 a1 a3, b0 b1 b3, 16);
                a2 = _mm512_add_epi32(a2, a3);
                b2 = _mm512_add_epi32(b2, b3);
                a1 = _mm512_rol_epi32::<12>(_mm512_xor_si512(a1, a2));
                b1 = _mm512_rol_epi32::<12>(_mm512_xor_si512(b1, b2));
                half_qr!(a0 a1 a3, b0 b1 b3, 8);
                a2 = _mm512_add_epi32(a2, a3);
                b2 = _mm512_add_epi32(b2, b3);
                a1 = _mm512_rol_epi32::<7>(_mm512_xor_si512(a1, a2));
                b1 = _mm512_rol_epi32::<7>(_mm512_xor_si512(b1, b2));
                // Diagonalize (within each lane), repeat, undo.
                a1 = _mm512_shuffle_epi32::<0x39>(a1);
                a2 = _mm512_shuffle_epi32::<0x4E>(a2);
                a3 = _mm512_shuffle_epi32::<0x93>(a3);
                b1 = _mm512_shuffle_epi32::<0x39>(b1);
                b2 = _mm512_shuffle_epi32::<0x4E>(b2);
                b3 = _mm512_shuffle_epi32::<0x93>(b3);
                half_qr!(a0 a1 a3, b0 b1 b3, 16);
                a2 = _mm512_add_epi32(a2, a3);
                b2 = _mm512_add_epi32(b2, b3);
                a1 = _mm512_rol_epi32::<12>(_mm512_xor_si512(a1, a2));
                b1 = _mm512_rol_epi32::<12>(_mm512_xor_si512(b1, b2));
                half_qr!(a0 a1 a3, b0 b1 b3, 8);
                a2 = _mm512_add_epi32(a2, a3);
                b2 = _mm512_add_epi32(b2, b3);
                a1 = _mm512_rol_epi32::<7>(_mm512_xor_si512(a1, a2));
                b1 = _mm512_rol_epi32::<7>(_mm512_xor_si512(b1, b2));
                a1 = _mm512_shuffle_epi32::<0x93>(a1);
                a2 = _mm512_shuffle_epi32::<0x4E>(a2);
                a3 = _mm512_shuffle_epi32::<0x39>(a3);
                b1 = _mm512_shuffle_epi32::<0x93>(b1);
                b2 = _mm512_shuffle_epi32::<0x4E>(b2);
                b3 = _mm512_shuffle_epi32::<0x39>(b3);
            }
            // Feed-forward.
            a0 = _mm512_add_epi32(a0, row0);
            a1 = _mm512_add_epi32(a1, row1);
            a2 = _mm512_add_epi32(a2, row2);
            a3 = _mm512_add_epi32(a3, i3a);
            b0 = _mm512_add_epi32(b0, row0);
            b1 = _mm512_add_epi32(b1, row1);
            b2 = _mm512_add_epi32(b2, row2);
            b3 = _mm512_add_epi32(b3, i3b);
            let ctr_step = _mm512_setr_epi32(8, 0, 0, 0, 8, 0, 0, 0, 8, 0, 0, 0, 8, 0, 0, 0);
            self.i3a = _mm512_add_epi32(i3a, ctr_step);
            self.i3b = _mm512_add_epi32(i3b, ctr_step);
            // Transpose each 4×4 grid of 128-bit lanes so every register
            // holds one whole block's sixteen words in stream order.
            let mut out = [a0; 8];
            for (base, (r0, r1, r2, r3)) in [(0, (a0, a1, a2, a3)), (4, (b0, b1, b2, b3))] {
                let t0 = _mm512_shuffle_i32x4::<0x44>(r0, r1);
                let t1 = _mm512_shuffle_i32x4::<0x44>(r2, r3);
                let t2 = _mm512_shuffle_i32x4::<0xEE>(r0, r1);
                let t3 = _mm512_shuffle_i32x4::<0xEE>(r2, r3);
                out[base] = _mm512_shuffle_i32x4::<0x88>(t0, t1);
                out[base + 1] = _mm512_shuffle_i32x4::<0xDD>(t0, t1);
                out[base + 2] = _mm512_shuffle_i32x4::<0x88>(t2, t3);
                out[base + 3] = _mm512_shuffle_i32x4::<0xDD>(t2, t3);
            }
            out
        }
    }

    /// XORs keystream over as many whole 512-byte (eight-block) chunks
    /// as fit in `buf`, advancing the counter word. Returns bytes
    /// consumed.
    #[target_feature(enable = "avx512f")]
    pub(super) fn xor_steps(words: &mut [u32; 16], buf: &mut [u8]) -> usize {
        let mut steps = Steps::new(words);
        let mut done = 0;
        for chunk in buf.chunks_exact_mut(STEP) {
            let q = chunk.as_mut_ptr().cast::<__m512i>();
            for (j, ks) in steps.next().into_iter().enumerate() {
                // SAFETY: `chunk` is STEP = 8 × 64 bytes, so vector j is
                // in bounds; the loads and stores are unaligned.
                unsafe {
                    let v = _mm512_xor_si512(_mm512_loadu_si512(q.add(j)), ks);
                    _mm512_storeu_si512(q.add(j), v);
                }
            }
            done += STEP;
        }
        words[12] = words[12].wrapping_add((done / BLOCK_LEN) as u32);
        done
    }

    /// One step from the counter on into `out`; advances the counter
    /// eight blocks and returns STEP.
    #[target_feature(enable = "avx512f")]
    pub(super) fn keystream(words: &mut [u32; 16], out: &mut [u8; MAX_STEP]) -> usize {
        let dst = out.as_mut_ptr().cast::<__m512i>();
        for (j, ks) in Steps::new(words).next().into_iter().enumerate() {
            // SAFETY: `out` is MAX_STEP = 8 × 64 bytes, so vector j is in
            // bounds; the store is unaligned.
            unsafe { _mm512_storeu_si512(dst.add(j), ks) };
        }
        words[12] = words[12].wrapping_add(8);
        STEP
    }
}

/// Lengths around every keystream step and tail boundary of every
/// tier, and the AEAD's MAC-run boundaries: the tier tests' length set.
#[cfg(test)]
pub(crate) fn boundary_lengths() -> Vec<usize> {
    let mut lens: Vec<usize> = (0..=1100).collect();
    for base in [4096usize, 8192] {
        for d in [
            1usize, 15, 16, 17, 63, 64, 65, 191, 192, 193, 447, 448, 449, 511, 512, 513,
        ] {
            lens.extend([base - d, base + d]);
        }
    }
    lens
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::{RandomSource, XorShiftSource};

    fn hex(s: &str) -> Vec<u8> {
        s.split_whitespace()
            .flat_map(|tok| {
                (0..tok.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&tok[i..i + 2], 16).unwrap())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn test_key() -> [u8; KEY_LEN] {
        let mut k = [0u8; KEY_LEN];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // §2.3.2: key 00..1f, nonce 00 00 00 09 00 00 00 4a 00 00 00 00,
        // counter 1.
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = keystream_block(&test_key(), &nonce, 1);
        let expected = hex("10 f1 e7 e4 d1 3b 59 15 50 0f dd 1f a3 20 71 c4
             c7 d1 f4 c7 33 c0 68 03 04 22 aa 9a c3 d4 6c 4e
             d2 82 64 46 07 9f aa 09 14 c2 d7 05 d9 8b 02 a2
             b5 12 9c d1 de 16 4e b9 cb d0 83 e8 a2 50 3c 4e");
        assert_eq!(block.to_vec(), expected);
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // §2.4.2: the "sunscreen" plaintext, counter starts at 1.
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it.";
        let mut buf = plaintext.to_vec();
        ChaCha20::new(&test_key(), &nonce, 1).xor_keystream(&mut buf);
        let expected = hex("6e 2e 35 9a 25 68 f9 80 41 ba 07 28 dd 0d 69 81
             e9 7e 7a ec 1d 43 60 c2 0a 27 af cc fd 9f ae 0b
             f9 1b 65 c5 52 47 33 ab 8f 59 3d ab cd 62 b3 57
             16 39 d6 24 e6 51 52 ab 8f 53 0c 35 9f 08 61 d8
             07 ca 0d bf 50 0d 6a 61 56 a3 8e 08 8a 22 b6 5e
             52 bc 51 4d 16 cc f8 06 81 8c e9 1a b7 79 37 36
             5a f9 0b bf 74 a3 5b e6 b4 0b 8e ed f2 78 5e 42
             87 4d");
        assert_eq!(buf, expected);
        // Decryption is the same operation.
        ChaCha20::new(&test_key(), &nonce, 1).xor_keystream(&mut buf);
        assert_eq!(buf, plaintext.to_vec());
    }

    #[test]
    fn wide_and_tail_paths_agree() {
        // Any block-aligned split of one long message across calls must
        // equal the one-shot stream, whatever mix of the two-block fast
        // path and the bytewise tail each call uses.
        let key = test_key();
        let nonce = [7u8; NONCE_LEN];
        let mut whole = vec![0xA5u8; 1024 + 64 + 17];
        ChaCha20::new(&key, &nonce, 1).xor_keystream(&mut whole);

        let mut split = vec![0xA5u8; 1024 + 64 + 17];
        let mut c = ChaCha20::new(&key, &nonce, 1);
        let (a, rest) = split.split_at_mut(128); // exactly one wide step
        let (b, rest2) = rest.split_at_mut(64); // single-block tail
        let (d, tail) = rest2.split_at_mut(1024 - 128); // wide steps
        c.xor_keystream(a);
        c.xor_keystream(b);
        c.xor_keystream(d);
        c.xor_keystream(tail); // 64 + 17: wide step + partial block
        assert_eq!(split, whole);
    }

    /// One keystream tier, run over a whole buffer from a state.
    type XorFn = fn(&mut [u32; 16], &mut [u8]);
    /// One tier's single step into a stack block; returns its length.
    type StepFn = fn(&mut ChaCha20, &mut [u8; MAX_STEP]) -> usize;

    fn portable_xor(words: &mut [u32; 16], buf: &mut [u8]) {
        let mut c = ChaCha20 { words: *words };
        c.xor_keystream_portable(buf);
        *words = c.words;
    }

    #[cfg(target_arch = "x86_64")]
    fn avx2_xor(words: &mut [u32; 16], buf: &mut [u8]) {
        assert!(std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: AVX2 presence is asserted just above.
        unsafe { avx2::xor_keystream(words, buf) }
    }

    #[cfg(target_arch = "x86_64")]
    fn avx512_xor(words: &mut [u32; 16], buf: &mut [u8]) {
        assert!(has_avx512());
        // SAFETY: AVX-512F and AVX2 presence is asserted just above.
        unsafe {
            let done = avx512::xor_steps(words, buf);
            avx2::xor_keystream(words, &mut buf[done..]);
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn avx2_step(c: &mut ChaCha20, out: &mut [u8; MAX_STEP]) -> usize {
        assert!(std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: AVX2 presence is asserted just above.
        unsafe { avx2::keystream(&mut c.words, out) }
    }

    #[cfg(target_arch = "x86_64")]
    fn avx512_step(c: &mut ChaCha20, out: &mut [u8; MAX_STEP]) -> usize {
        assert!(has_avx512());
        // SAFETY: AVX-512F presence is asserted just above.
        unsafe { avx512::keystream(&mut c.words, out) }
    }

    /// Every tier this host can run, portable (the reference) first.
    fn tiers() -> Vec<(&'static str, XorFn, StepFn)> {
        let mut tiers: Vec<(&'static str, XorFn, StepFn)> =
            vec![("portable", portable_xor, ChaCha20::keystream_step_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(("avx2", avx2_xor, avx2_step));
            }
            if has_avx512() {
                tiers.push(("avx512", avx512_xor, avx512_step));
            }
        }
        tiers
    }

    /// Holds the tier named `tier` (when the host has it) to the
    /// portable tier, byte for byte and in the final counter word.
    fn assert_tier_matches_portable(tier: &str) {
        let Some(&(_, xor, _)) = tiers().iter().find(|t| t.0 == tier) else {
            return; // not on this host
        };
        let mut rng = XorShiftSource::new(0xC4AC_4A20);
        let mut key = [0u8; KEY_LEN];
        let mut nonce = [0u8; NONCE_LEN];
        for len in boundary_lengths() {
            // All-ones inputs on every 7th length; a start counter near
            // the top on every other one, so word 12 wraps mid-buffer
            // (inside a tail once the buffer passes five blocks).
            let ones = len % 7 == 0;
            if ones {
                key = [0xff; KEY_LEN];
                nonce = [0xff; NONCE_LEN];
            } else {
                rng.fill(&mut key);
                rng.fill(&mut nonce);
            }
            let counter = if len % 2 == 0 { u32::MAX - 5 } else { 1 };
            let mut msg = vec![0xffu8; len];
            if !ones {
                rng.fill(&mut msg);
            }
            let start = ChaCha20::new(&key, &nonce, counter).words;
            let mut want = msg.clone();
            let mut want_words = start;
            portable_xor(&mut want_words, &mut want);
            let mut got = msg;
            let mut words = start;
            xor(&mut words, &mut got);
            assert!(got == want, "{tier} len {len} counter {counter}");
            assert_eq!(words, want_words, "{tier} len {len} counter {counter}");
        }
    }

    #[test]
    fn avx2_tier_matches_portable_tier() {
        assert_tier_matches_portable("avx2");
    }

    #[test]
    fn avx512_tier_matches_portable_tier() {
        assert_tier_matches_portable("avx512");
    }

    #[test]
    fn every_tier_step_is_its_keystream_prefix() {
        let key = [0xffu8; KEY_LEN];
        let nonce = [0x5au8; NONCE_LEN];
        for counter in [0, 1, u32::MAX - 5] {
            for (name, _, step) in tiers() {
                let mut c = ChaCha20::new(&key, &nonce, counter);
                let mut out = [0u8; MAX_STEP];
                let n = step(&mut c, &mut out);
                let mut want = vec![0u8; n];
                let mut words = ChaCha20::new(&key, &nonce, counter).words;
                portable_xor(&mut words, &mut want);
                assert_eq!(out[..n], want[..], "{name} counter {counter}");
                assert_eq!(c.words, words, "{name} counter {counter}");
            }
        }
        // The dispatching entry point takes the widest step there is.
        let mut c = ChaCha20::new(&key, &nonce, 0);
        let widest = tiers().last().map(|&(_, _, step)| step).unwrap();
        let (mut a, mut b) = ([0u8; MAX_STEP], [0u8; MAX_STEP]);
        let n = c.keystream_step(&mut a);
        assert_eq!(widest(&mut ChaCha20::new(&key, &nonce, 0), &mut b), n);
        assert_eq!(a[..n], b[..n]);
    }

    #[test]
    fn counter_advances_across_partial_blocks() {
        // A partial block consumes a whole counter step.
        let key = test_key();
        let nonce = [3u8; NONCE_LEN];
        let mut a = [0u8; 10];
        let mut c = ChaCha20::new(&key, &nonce, 5);
        c.xor_keystream(&mut a);
        let mut b = [0u8; 64];
        c.xor_keystream(&mut b);
        let mut direct = [0u8; 64];
        ChaCha20::new(&key, &nonce, 6).xor_keystream(&mut direct);
        assert_eq!(b, direct);
    }
}
