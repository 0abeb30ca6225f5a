//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Poly1305 evaluates the message as a polynomial in the clamped key `r`
//! over the prime field 2^130 − 5, then adds the pad `s`. Security rests
//! on the key being used for exactly one message — which the AEAD layer
//! guarantees by deriving a fresh key per nonce from the ChaCha20 block
//! function (§2.6).
//!
//! The field arithmetic uses three 44/44/42-bit limbs with `u128`
//! products: one block costs nine widening multiplies and a short carry
//! chain, all on full 64-bit registers — the same "work in machine words,
//! not bytes" discipline as the ARC4 and SHA-1 inner loops. The bulk
//! path takes blocks two at a time as `(h + m₁)·r² + m₂·r`: the multiply
//! count is unchanged but the two products are independent (so they
//! pipeline) and one carry chain serves both blocks.
//!
//! On hosts with AVX2, block-aligned runs of 256 bytes or more take a
//! vector tier ([`avx2`]) that spreads the blocks over four lanes of
//! 26-bit limbs; the scalar tier finishes the short tail and every
//! other message, and is the reference the vector tier is tested
//! against.

/// Authenticator tag length in bytes.
pub const TAG_LEN: usize = 16;
/// One-time key length in bytes (`r` ‖ `s`).
pub const KEY_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Block-aligned runs at least this long take the vector tier; shorter
/// ones would spend more on its set-up (r³, r⁴, the final lane fold)
/// than it saves.
const VECTOR_MIN: usize = 256;

/// Schoolbook 3-limb multiply mod 2^130−5 with the reduction folded in:
/// `bs` holds `[20·b1, 20·b2]` (2^132 ≡ 20 at this radix). Returns the
/// unreduced column sums.
#[inline(always)]
fn mul3(a: [u64; 3], b: [u64; 3], bs: [u64; 2]) -> [u128; 3] {
    [
        (a[0] as u128) * (b[0] as u128)
            + (a[1] as u128) * (bs[1] as u128)
            + (a[2] as u128) * (bs[0] as u128),
        (a[0] as u128) * (b[1] as u128)
            + (a[1] as u128) * (b[0] as u128)
            + (a[2] as u128) * (bs[1] as u128),
        (a[0] as u128) * (b[2] as u128)
            + (a[1] as u128) * (b[1] as u128)
            + (a[2] as u128) * (b[0] as u128),
    ]
}

/// Propagates carries on unreduced column sums back to 44/44/42 limbs
/// (the top limb's spill re-enters at ×5).
#[inline(always)]
fn carry3(d: [u128; 3]) -> [u64; 3] {
    let [d0, mut d1, mut d2] = d;
    let mut c = (d0 >> 44) as u64;
    let h0 = (d0 as u64) & MASK44;
    d1 += c as u128;
    c = (d1 >> 44) as u64;
    let h1 = (d1 as u64) & MASK44;
    d2 += c as u128;
    c = (d2 >> 42) as u64;
    let h2 = (d2 as u64) & MASK42;
    let h0 = h0 + c * 5;
    let c = h0 >> 44;
    [h0 & MASK44, h1 + c, h2]
}

/// Splits a 16-byte block into 44/44/42 limbs, ORing `hibit` (the 2^128
/// marker) into the top limb.
#[inline(always)]
fn limbs(m: &[u8], hibit: u64) -> [u64; 3] {
    let t0 = u64::from_le_bytes(m[0..8].try_into().unwrap());
    let t1 = u64::from_le_bytes(m[8..16].try_into().unwrap());
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        ((t1 >> 24) & MASK42) | hibit,
    ]
}

/// Streaming Poly1305 state.
///
/// `update` may be fed arbitrary-length fragments; a 16-byte internal
/// buffer re-aligns them to blocks, so bulk callers that feed multiples
/// of 16 never touch it.
#[derive(Clone)]
pub struct Poly1305 {
    /// Clamped `r`, split 44/44/42, with its folded `[20·r1, 20·r2]`.
    r: [u64; 3],
    s: [u64; 2],
    /// `r²` and its folded multipliers, for the two-block bulk path.
    r2: [u64; 3],
    s2: [u64; 2],
    /// Accumulator, split 44/44/42 (plus carries in flight).
    h: [u64; 3],
    /// The pad `s` from the second key half, added after the polynomial.
    pad: [u64; 2],
    /// Partial-block staging.
    buf: [u8; BLOCK_LEN],
    buffered: usize,
}

impl Poly1305 {
    /// Initializes from a 32-byte one-time key, clamping `r` per §2.5.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let t0 = u64::from_le_bytes(key[0..8].try_into().unwrap());
        let t1 = u64::from_le_bytes(key[8..16].try_into().unwrap());
        let r0 = t0 & 0x0000_0ffc_0fff_ffff;
        let r1 = ((t0 >> 44) | (t1 << 20)) & 0x0000_0fff_ffc0_ffff;
        let r2 = (t1 >> 24) & 0x0000_000f_ffff_fc0f;
        let r = [r0, r1, r2];
        let s = [r1 * 20, r2 * 20];
        let rsq = carry3(mul3(r, r, s));
        Poly1305 {
            r,
            s,
            r2: rsq,
            s2: [rsq[1] * 20, rsq[2] * 20],
            h: [0; 3],
            pad: [
                u64::from_le_bytes(key[16..24].try_into().unwrap()),
                u64::from_le_bytes(key[24..32].try_into().unwrap()),
            ],
            buf: [0u8; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// Absorbs one 16-byte block. `hibit` is `1 << 40` (the 2^128 marker
    /// in the top limb) for full blocks and 0 for the padded final
    /// fragment, which carries its own 0x01 marker byte.
    #[inline(always)]
    fn block(&mut self, m: &[u8], hibit: u64) {
        let t = limbs(m, hibit);
        let a = [self.h[0] + t[0], self.h[1] + t[1], self.h[2] + t[2]];
        self.h = carry3(mul3(a, self.r, self.s));
    }

    /// Absorbs two full 16-byte blocks as `(h + m₁)·r² + m₂·r`: the two
    /// products have no data dependency, so they pipeline, and one carry
    /// chain finishes both.
    #[inline(always)]
    fn block_pair(&mut self, m: &[u8]) {
        let m1 = limbs(&m[..BLOCK_LEN], 1 << 40);
        let m2 = limbs(&m[BLOCK_LEN..], 1 << 40);
        let a = [self.h[0] + m1[0], self.h[1] + m1[1], self.h[2] + m1[2]];
        let d = mul3(a, self.r2, self.s2);
        let u = mul3(m2, self.r, self.s);
        self.h = carry3([d[0] + u[0], d[1] + u[1], d[2] + u[2]]);
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(true, data);
    }

    /// [`Self::update`], with the vector tier allowed or not: tests pin
    /// each tier; everything else allows it.
    fn update_with(&mut self, vector: bool, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return; // fragment fully staged, nothing block-aligned yet
            }
            let block = self.buf;
            self.block(&block, 1 << 40);
            self.buffered = 0;
        }
        #[cfg(target_arch = "x86_64")]
        if vector && data.len() >= VECTOR_MIN && std::arch::is_x86_feature_detected!("avx2") {
            let n = data.len() - data.len() % avx2::STEP;
            // SAFETY: AVX2 presence is checked just above.
            self.h = unsafe { avx2::blocks(self.h, self.r, self.r2, &data[..n]) };
            data = &data[n..];
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = vector;
        let mut pairs = data.chunks_exact(2 * BLOCK_LEN);
        for p in &mut pairs {
            self.block_pair(p);
        }
        let mut blocks = pairs.remainder().chunks_exact(BLOCK_LEN);
        for b in &mut blocks {
            self.block(b, 1 << 40);
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Absorbs `data` then zero-pads to a 16-byte boundary (the AEAD
    /// `pad16` step, §2.8). Must only be called on a block-aligned state.
    pub fn update_padded(&mut self, data: &[u8]) {
        debug_assert_eq!(self.buffered, 0, "update_padded on unaligned state");
        self.update(data);
        if self.buffered > 0 {
            let zeros = [0u8; BLOCK_LEN];
            let pad = BLOCK_LEN - self.buffered;
            self.update(&zeros[..pad]);
        }
    }

    /// Finishes the polynomial, adds the pad, and returns the tag.
    pub fn finish(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            // Final fragment: append 0x01 then zero-fill; no 2^128 bit.
            let mut last = [0u8; BLOCK_LEN];
            last[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
            last[self.buffered] = 1;
            self.block(&last, 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;
        // Fully propagate carries.
        let mut c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;

        // Compute h − p; select it when h ≥ p, branch-free.
        let g0 = h0.wrapping_add(5);
        c = g0 >> 44;
        let g0 = g0 & MASK44;
        let g1 = h1.wrapping_add(c);
        c = g1 >> 44;
        let g1 = g1 & MASK44;
        let g2 = h2.wrapping_add(c).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1); // all-ones iff no borrow
        h0 = (h0 & !keep_g) | (g0 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // Add the pad mod 2^128 and serialize little-endian.
        let t0 = self.pad[0];
        let t1 = self.pad[1];
        h0 += t0 & MASK44;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += (((t0 >> 44) | (t1 << 20)) & MASK44) + c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += ((t1 >> 24) & MASK42) + c;
        h2 &= MASK42;

        let mut tag = [0u8; TAG_LEN];
        tag[0..8].copy_from_slice(&(h0 | (h1 << 44)).to_le_bytes());
        tag[8..16].copy_from_slice(&((h1 >> 20) | (h2 << 24)).to_le_bytes());
        tag
    }
}

/// Four lanes of five 26-bit limbs in 256-bit registers: lane j takes
/// every fourth block, so a 64-byte step is one Horner step by r⁴ per
/// lane, `_mm256_mul_epu32` forms every 26×26-bit product, and the
/// lanes fold together once at the end, each by its own power of r.
///
/// The functions are safe to call only from code that has checked for
/// AVX2 (the compiler demands `unsafe` at every other call site).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{carry3, mul3};
    use std::arch::x86_64::*;

    /// Bytes per vector step: one 16-byte block per lane.
    pub(super) const STEP: usize = 64;

    const M26: u64 = (1 << 26) - 1;

    /// 44/44/42 limbs to 26-bit limbs, one scalar limb at a time: bit 44
    /// is bit 18 of limb 1, bit 88 is bit 10 of limb 3. Every bit keeps
    /// its weight, so limbs over their nominal width (carries in flight)
    /// convert exactly; the value never passes through a wider integer.
    fn to26(h: [u64; 3]) -> [u64; 5] {
        carry26([
            h[0] & M26,
            (h[0] >> 26) + ((h[1] << 18) & M26),
            (h[1] >> 8) & M26,
            (h[1] >> 34) + ((h[2] << 10) & M26),
            h[2] >> 16,
        ])
    }

    /// Carries 26-bit limbs until each is below 2^26, limb 1 aside (it may
    /// keep a small carry); the top limb's spill re-enters at ×5.
    fn carry26(mut l: [u64; 5]) -> [u64; 5] {
        for i in 0..4 {
            l[i + 1] += l[i] >> 26;
            l[i] &= M26;
        }
        l[0] += 5 * (l[4] >> 26);
        l[4] &= M26;
        l[1] += l[0] >> 26;
        l[0] &= M26;
        l
    }

    /// Carried 26-bit limbs back to the scalar 44/44/42 state, limb by
    /// limb; the top limb's spill past bit 130 re-enters at ×5.
    fn from26(l: [u64; 5]) -> [u64; 3] {
        let mut acc = l[0] + (l[1] << 26);
        let h0 = acc & super::MASK44;
        acc = (acc >> 44) + (l[2] << 8) + (l[3] << 34);
        let h1 = acc & super::MASK44;
        let h2 = (acc >> 44) + (l[4] << 16);
        [h0 + 5 * (h2 >> 42), h1, h2 & super::MASK42]
    }

    /// One multiplier, per lane: its limbs, and limbs 1–4 times 5 for the
    /// columns that wrap past 2^130 (2^130 ≡ 5).
    struct Factor {
        b: [__m256i; 5],
        b5: [__m256i; 4],
    }

    impl Factor {
        /// Lane j multiplies by `lanes[j]` (carried 26-bit limbs).
        #[target_feature(enable = "avx2")]
        fn new(lanes: [[u64; 5]; 4]) -> Factor {
            let mut f = Factor {
                b: [_mm256_setzero_si256(); 5],
                b5: [_mm256_setzero_si256(); 4],
            };
            for i in 0..5 {
                let [w, x, y, z] = lanes.map(|l| l[i] as i64);
                f.b[i] = _mm256_setr_epi64x(w, x, y, z);
                if i > 0 {
                    f.b5[i - 1] = _mm256_setr_epi64x(5 * w, 5 * x, 5 * y, 5 * z);
                }
            }
            // Hide b5 = 5·b from the optimizer: seeing it, LLVM factors
            // a·5b + c·b into (5a + c)·b, a 64×32-bit product that costs
            // three `vpmuludq` in place of one.
            std::hint::black_box(f)
        }
    }

    /// `acc + x·y` on the low 32 bits of every lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn madd(acc: __m256i, x: __m256i, y: __m256i) -> __m256i {
        _mm256_add_epi64(acc, _mm256_mul_epu32(x, y))
    }

    /// Schoolbook 5×5 limb product mod 2^130 − 5, unreduced. Carried
    /// inputs (limbs under 2^26 + 2^11) keep every column under 2^57.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul(a: &[__m256i; 5], f: &Factor) -> [__m256i; 5] {
        let [a0, a1, a2, a3, a4] = *a;
        let [b0, b1, b2, b3, b4] = f.b;
        let [c1, c2, c3, c4] = f.b5;
        let m = _mm256_mul_epu32;
        [
            madd(madd(madd(madd(m(a0, b0), a1, c4), a2, c3), a3, c2), a4, c1),
            madd(madd(madd(madd(m(a0, b1), a1, b0), a2, c4), a3, c3), a4, c2),
            madd(madd(madd(madd(m(a0, b2), a1, b1), a2, b0), a3, c4), a4, c3),
            madd(madd(madd(madd(m(a0, b3), a1, b2), a2, b1), a3, b0), a4, c4),
            madd(madd(madd(madd(m(a0, b4), a1, b3), a2, b2), a3, b1), a4, b0),
        ]
    }

    /// Carries unreduced columns (each under 2^60) back to limbs under
    /// 2^26 + 2^11, two chains at a time: 3→4 with 0→1, 4→0 with 1→2,
    /// 2→3 with 0→1, then 3→4.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn carry(d: [__m256i; 5]) -> [__m256i; 5] {
        let mask = _mm256_set1_epi64x(M26 as i64);
        let [mut d0, mut d1, mut d2, mut d3, mut d4] = d;
        let c = _mm256_srli_epi64(d3, 26);
        d3 = _mm256_and_si256(d3, mask);
        d4 = _mm256_add_epi64(d4, c);
        let c = _mm256_srli_epi64(d0, 26);
        d0 = _mm256_and_si256(d0, mask);
        d1 = _mm256_add_epi64(d1, c);
        let c = _mm256_srli_epi64(d4, 26);
        d4 = _mm256_and_si256(d4, mask);
        d0 = _mm256_add_epi64(d0, _mm256_add_epi64(c, _mm256_slli_epi64(c, 2)));
        let c = _mm256_srli_epi64(d1, 26);
        d1 = _mm256_and_si256(d1, mask);
        d2 = _mm256_add_epi64(d2, c);
        let c = _mm256_srli_epi64(d2, 26);
        d2 = _mm256_and_si256(d2, mask);
        d3 = _mm256_add_epi64(d3, c);
        let c = _mm256_srli_epi64(d0, 26);
        d0 = _mm256_and_si256(d0, mask);
        d1 = _mm256_add_epi64(d1, c);
        let c = _mm256_srli_epi64(d3, 26);
        d3 = _mm256_and_si256(d3, mask);
        d4 = _mm256_add_epi64(d4, c);
        [d0, d1, d2, d3, d4]
    }

    /// Four 16-byte blocks as limbs with the 2^128 marker set. The
    /// 64-bit unpacks leave the lanes holding blocks 0, 2, 1, 3.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(m: &[u8; STEP]) -> [__m256i; 5] {
        let p = m.as_ptr().cast::<__m256i>();
        // SAFETY: `m` is 64 bytes, two unaligned 32-byte loads.
        let (x, y) = unsafe { (_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1))) };
        let lo = _mm256_unpacklo_epi64(x, y);
        let hi = _mm256_unpackhi_epi64(x, y);
        let mask = _mm256_set1_epi64x(M26 as i64);
        [
            _mm256_and_si256(lo, mask),
            _mm256_and_si256(_mm256_srli_epi64(lo, 26), mask),
            _mm256_and_si256(
                _mm256_or_si256(_mm256_srli_epi64(lo, 52), _mm256_slli_epi64(hi, 12)),
                mask,
            ),
            _mm256_and_si256(_mm256_srli_epi64(hi, 14), mask),
            _mm256_or_si256(_mm256_srli_epi64(hi, 40), _mm256_set1_epi64x(1 << 24)),
        ]
    }

    /// Absorbs `m` (a nonzero multiple of 64 bytes, every block full)
    /// into the scalar accumulator `h`, given `r` and `r²` in 44/44/42
    /// limbs, and returns the new accumulator.
    #[target_feature(enable = "avx2")]
    pub(super) fn blocks(h: [u64; 3], r: [u64; 3], r2: [u64; 3], m: &[u8]) -> [u64; 3] {
        debug_assert!(!m.is_empty() && m.len().is_multiple_of(STEP));
        let r3 = carry3(mul3(r2, r, [20 * r[1], 20 * r[2]]));
        let r4 = carry3(mul3(r2, r2, [20 * r2[1], 20 * r2[2]]));
        let [r1, r2, r3, r4] = [r, r2, r3, r4].map(to26);
        let step = Factor::new([r4; 4]);
        // Lanes hold blocks 0, 2, 1, 3 of the last step (see `load`).
        let fold = Factor::new([r4, r2, r3, r1]);

        // The loop carries each lane's accumulator unreduced and carries
        // it just before it is multiplied. (Carried ahead instead, the
        // limbs' masks fold into the loop's phi, and LLVM, no longer
        // seeing them at the multiply, emits a 64×32-bit product: three
        // `vpmuludq` in place of one.)
        let mut chunks = m.chunks_exact(STEP);
        let first = chunks.next().expect("at least one step");
        let mut acc = load(first.try_into().expect("a whole step"));
        let h = to26(h);
        for (a, &hi) in acc.iter_mut().zip(&h) {
            *a = _mm256_add_epi64(*a, _mm256_setr_epi64x(hi as i64, 0, 0, 0));
        }
        for chunk in chunks {
            let msg = load(chunk.try_into().expect("a whole step"));
            let prod = mul(&carry(acc), &step);
            for ((a, p), mi) in acc.iter_mut().zip(prod).zip(msg) {
                *a = _mm256_add_epi64(p, mi);
            }
        }
        // Fold the lanes: each column is under 2^57, so four sum in u64.
        let d = mul(&carry(acc), &fold);
        let mut l = [0u64; 5];
        for (li, di) in l.iter_mut().zip(d) {
            let lanes = [
                _mm256_extract_epi64(di, 0),
                _mm256_extract_epi64(di, 1),
                _mm256_extract_epi64(di, 2),
                _mm256_extract_epi64(di, 3),
            ];
            *li = lanes.iter().map(|&x| x as u64).sum();
        }
        from26(carry26(l))
    }
}

/// One-shot tag over a single message.
pub fn poly1305(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut p = Poly1305::new(key);
    p.update(msg);
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::{RandomSource, XorShiftSource};

    /// The scalar tier in 16-byte updates, which never reach the vector
    /// tier whatever the host: the reference the tiers are held to.
    fn scalar_tag(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        for chunk in msg.chunks(BLOCK_LEN) {
            p.update_with(false, chunk);
        }
        p.finish()
    }

    /// One-shot tags from every tier the host has, by name.
    fn tier_tags(key: &[u8; KEY_LEN], msg: &[u8]) -> Vec<(&'static str, [u8; TAG_LEN])> {
        let mut tiers = vec![("scalar", false)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(("avx2", true));
        }
        let mut tags = Vec::new();
        for (name, vector) in tiers {
            let mut p = Poly1305::new(key);
            p.update_with(vector, msg);
            tags.push((name, p.finish()));
        }
        tags
    }

    #[test]
    fn every_tier_matches_chunked_scalar() {
        // Seeded random keys and messages, with all-ones keys and
        // messages (every limb at its maximum, so every carry fires) on
        // one case in eight.
        let mut rng = XorShiftSource::new(0x9017_1305);
        for case in 0..3000usize {
            let mut len_bytes = [0u8; 2];
            rng.fill(&mut len_bytes);
            let len = match case {
                0..=1100 => case,
                _ => usize::from(u16::from_le_bytes(len_bytes)) % 9000,
            };
            let mut key = [0xffu8; KEY_LEN];
            let mut msg = vec![0xffu8; len];
            if case % 8 != 0 {
                rng.fill(&mut key);
                rng.fill(&mut msg);
            }
            let want = scalar_tag(&key, &msg);
            for (name, tag) in tier_tags(&key, &msg) {
                assert_eq!(tag, want, "{name} case {case} len {len}");
            }
        }
    }

    #[test]
    fn every_split_matches_one_shot() {
        // Splits of 1–64 bytes over 1 KiB: all in fragments, and one
        // fragment then the rest at once (a vector run behind a staged
        // partial block).
        let mut rng = XorShiftSource::new(0x5917);
        let mut key = [0u8; KEY_LEN];
        rng.fill(&mut key);
        let mut msg = vec![0u8; 1024];
        rng.fill(&mut msg);
        let want = scalar_tag(&key, &msg);
        for split in 1..=64 {
            let mut p = Poly1305::new(&key);
            for chunk in msg.chunks(split) {
                p.update(chunk);
            }
            assert_eq!(p.finish(), want, "fragments of {split}");
            let mut p = Poly1305::new(&key);
            p.update(&msg[..split]);
            p.update(&msg[split..]);
            assert_eq!(p.finish(), want, "{split} then the rest");
        }
    }

    #[test]
    fn rfc8439_tag_vector() {
        // §2.5.2.
        let key: [u8; 32] = [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
            0x41, 0x49, 0xf5, 0x1b,
        ];
        let tag = poly1305(&key, b"Cryptographic Forum Research Group");
        let expected: [u8; 16] = [
            0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01,
            0x27, 0xa9,
        ];
        assert_eq!(tag, expected);
    }

    #[test]
    fn streaming_fragments_match_one_shot() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7 + 3) as u8);
        let msg: Vec<u8> = (0..517).map(|i| (i % 251) as u8).collect();
        let whole = poly1305(&key, &msg);
        for split in [1usize, 15, 16, 17, 64, 255] {
            let mut p = Poly1305::new(&key);
            for chunk in msg.chunks(split) {
                p.update(chunk);
            }
            assert_eq!(p.finish(), whole, "split {split}");
        }
    }

    #[test]
    fn update_padded_pads_to_block_boundary() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8 ^ 0x5a);
        let mut padded = Poly1305::new(&key);
        padded.update_padded(&[0xAB; 12]);
        padded.update(&[0xCD; 16]);
        let mut manual = Poly1305::new(&key);
        manual.update(&[0xAB; 12]);
        manual.update(&[0u8; 4]);
        manual.update(&[0xCD; 16]);
        assert_eq!(padded.finish(), manual.finish());
    }
}
