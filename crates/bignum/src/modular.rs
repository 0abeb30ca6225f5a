//! Modular arithmetic: exponentiation, inverses and Chinese-remainder
//! recombination.
//!
//! These are exactly the number-theoretic operations Rabin–Williams
//! decryption/signing (square roots via CRT) and SRP (modular
//! exponentiation) require.

use crate::int::Int;
use crate::nat::Nat;

/// Widest modulus, in 64-bit limbs, that [`modpow`] exponentiates in
/// Montgomery form: 1024 bits, the RFC 5054 SRP group and the widest
/// modulus in the repository. The hot callers are far narrower: Rabin
/// square roots and Miller–Rabin run modulo 256- or 384-bit primes (4 or 6
/// limbs) and SRP modulo a 128-bit group. Every width up to this bound has
/// its own instance of the kernel. Wider or even moduli take
/// [`modpow_reference`].
const MONT_MAX_LIMBS: usize = 16;

/// Computes `base^exp mod m`.
///
/// Odd moduli of up to 1024 bits run a fixed 4-bit window over Montgomery
/// multiplications on `[u64; N]` stack arrays, with the limb count `N`
/// picked once per call so that every loop in the kernel has a
/// compile-time trip count. After the set-up (`R² mod m`, the base and
/// its 15-entry window table), the loop does no heap allocation. Other
/// moduli fall back to plain square-and-multiply with a long division
/// after every step. Both paths return the same fully reduced value.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn modpow(base: &Nat, exp: &Nat, m: &Nat) -> Nat {
    assert!(!m.is_zero(), "modpow with zero modulus");
    if m.is_one() {
        return Nat::zero();
    }
    if exp.is_zero() {
        return Nat::one();
    }
    if m.is_even() {
        return modpow_reference(base, exp, m);
    }
    // One arm per width in 1..=MONT_MAX_LIMBS.
    macro_rules! by_width {
        ($($n:literal)*) => {
            match m.limbs().len() {
                $($n => modpow_mont::<$n>(base, exp, m),)*
                n => {
                    debug_assert!(n > MONT_MAX_LIMBS, "no kernel for {n} limbs");
                    modpow_reference(base, exp, m)
                }
            }
        };
    }
    by_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
}

/// [`modpow`] for an odd `m` of exactly `N` limbs, in Montgomery form with
/// `R = 2^(64N)`.
fn modpow_mont<const N: usize>(base: &Nat, exp: &Nat, m: &Nat) -> Nat {
    let ml: [u64; N] = m
        .limbs()
        .try_into()
        .expect("modpow picks N = m's limb count");
    let m0inv = neg_inv_u64(ml[0]);
    let mont = |a: &[u64; N], b: &[u64; N]| mont_mul(a, b, &ml, m0inv);

    // table[w] = base^w in Montgomery form; entry 0 is never read because
    // the loop starts from the top window, which holds exp's top bit.
    let mut table = [[0u64; N]; 16];
    let r2 = Nat::one().shl_bits(128 * N).rem_nat(m).unwrap();
    let base = base.rem_nat(m).unwrap();
    table[1] = mont(&load(base.limbs()), &load(r2.limbs()));
    for w in 2..16 {
        table[w] = mont(&table[w - 1], &table[1]);
    }
    let window = |i: usize| {
        (exp.bit(i + 3) as usize) << 3
            | (exp.bit(i + 2) as usize) << 2
            | (exp.bit(i + 1) as usize) << 1
            | exp.bit(i) as usize
    };
    let mut i = exp.bit_len().div_ceil(4) * 4 - 4;
    let mut acc = table[window(i)];
    while i > 0 {
        i -= 4;
        for _ in 0..4 {
            acc = mont(&acc, &acc);
        }
        let w = window(i);
        if w != 0 {
            acc = mont(&acc, &table[w]);
        }
    }
    let mut one = [0u64; N];
    one[0] = 1;
    Nat::from_limbs(mont(&acc, &one).to_vec())
}

/// Computes `base^exp mod m` by plain binary square-and-multiply, reducing
/// with a long division after every step.
///
/// [`modpow`] uses this for even moduli and for moduli wider than
/// [`MONT_MAX_LIMBS`]; tests use it as the oracle for the Montgomery path.
fn modpow_reference(base: &Nat, exp: &Nat, m: &Nat) -> Nat {
    let base = base.rem_nat(m).unwrap();
    let mut acc = Nat::one().rem_nat(m).unwrap();
    for i in (0..exp.bit_len()).rev() {
        acc = acc.square().rem_nat(m).unwrap();
        if exp.bit(i) {
            acc = acc.mul_nat(&base).rem_nat(m).unwrap();
        }
    }
    acc
}

/// The limbs of a value below an `N`-limb modulus, zero-extended to `N`.
fn load<const N: usize>(limbs: &[u64]) -> [u64; N] {
    let mut out = [0; N];
    out[..limbs.len()].copy_from_slice(limbs);
    out
}

/// `-m0⁻¹ mod 2⁶⁴` for odd `m0`, by Newton iteration: `m0` is its own
/// inverse mod 8, and each step doubles the number of correct low bits.
fn neg_inv_u64(m0: u64) -> u64 {
    let mut inv = m0;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
    }
    inv.wrapping_neg()
}

/// Montgomery product `a·b·R⁻¹ mod m` with `R = 2^(64N)`, by coarsely
/// integrated operand scanning (CIOS). Requires `a, b < m`; the result is
/// fully reduced.
fn mont_mul<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N], m0inv: u64) -> [u64; N] {
    // The accumulator is t[..N] plus its top limb `top`: t < 2m < 2R
    // between rounds; within a round t + a·bi can carry one bit past
    // those N + 1 limbs, held in `hi`.
    let mut t = [0u64; N];
    let mut top = 0u64;
    for &bi in b {
        let mut c = 0u64;
        for j in 0..N {
            let s = t[j] as u128 + a[j] as u128 * bi as u128 + c as u128;
            t[j] = s as u64;
            c = (s >> 64) as u64;
        }
        let s = top as u128 + c as u128;
        let (top_lo, hi) = (s as u64, (s >> 64) as u64);
        let u = t[0].wrapping_mul(m0inv);
        let s = t[0] as u128 + u as u128 * m[0] as u128;
        let mut c = (s >> 64) as u64;
        for j in 1..N {
            let s = t[j] as u128 + u as u128 * m[j] as u128 + c as u128;
            t[j - 1] = s as u64;
            c = (s >> 64) as u64;
        }
        let s = top_lo as u128 + c as u128;
        t[N - 1] = s as u64;
        top = hi + (s >> 64) as u64;
    }
    let mut out = [0u64; N];
    let mut borrow = 0u64;
    for j in 0..N {
        let (d1, o1) = t[j].overflowing_sub(m[j]);
        let (d2, o2) = d1.overflowing_sub(borrow);
        out[j] = d2;
        borrow = (o1 | o2) as u64;
    }
    if top == 0 && borrow == 1 {
        // t < m: keep it.
        t
    } else {
        out
    }
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
fn egcd(a: &Nat, b: &Nat) -> (Nat, Int, Int) {
    let mut r0 = a.clone();
    let mut r1 = b.clone();
    let mut s0 = Int::one();
    let mut s1 = Int::zero();
    let mut t0 = Int::zero();
    let mut t1 = Int::one();
    while !r1.is_zero() {
        let (q, r) = r0.div_rem(&r1).unwrap();
        let qi = Int::from_nat(q);
        let s = s0.sub(&qi.mul(&s1));
        let t = t0.sub(&qi.mul(&t1));
        r0 = r1;
        r1 = r;
        s0 = s1;
        s1 = s;
        t0 = t1;
        t1 = t;
    }
    (r0, s0, t0)
}

/// Computes the multiplicative inverse of `a` modulo `m`, or `None` if
/// `gcd(a, m) != 1`.
pub fn invmod(a: &Nat, m: &Nat) -> Option<Nat> {
    if m.is_zero() || m.is_one() {
        return None;
    }
    let a = a.rem_nat(m).unwrap();
    let (g, x, _) = egcd(&a, m);
    if !g.is_one() {
        return None;
    }
    Some(x.rem_euclid(m))
}

/// Chinese-remainder recombination under two fixed coprime moduli `p`
/// and `q`. The coefficient `p⁻¹ mod q` is computed once, by
/// [`Crt::new`], so repeated recombinations skip the inversion and can
/// never be handed a wrong coefficient.
#[derive(Clone)]
pub struct Crt {
    p: Nat,
    q: Nat,
    p_inv_q: Nat,
}

impl Crt {
    /// The context for `p` and `q`; `None` when they share a factor.
    pub fn new(p: Nat, q: Nat) -> Option<Self> {
        let p_inv_q = invmod(&p, &q)?;
        Some(Crt { p, q, p_inv_q })
    }

    /// The first modulus.
    pub fn p(&self) -> &Nat {
        &self.p
    }

    /// The second modulus.
    pub fn q(&self) -> &Nat {
        &self.q
    }

    /// The unique `x mod p·q` with `x ≡ xp (mod p)` and `x ≡ xq (mod q)`.
    pub fn combine(&self, xp: &Nat, xq: &Nat) -> Nat {
        let (p, q) = (&self.p, &self.q);
        // x = xp + p * ((xq - xp) * p^-1 mod q).
        let xp_q = xp.rem_nat(q).expect("q > 1 since p⁻¹ mod q exists");
        let diff = match xq.checked_sub(&xp_q) {
            Some(d) => d,
            None => xq.add_nat(q).checked_sub(&xp_q).expect("xp mod q < q"),
        };
        let h = diff
            .mul_nat(&self.p_inv_q)
            .rem_nat(q)
            .expect("q > 1 since p⁻¹ mod q exists");
        xp.add_nat(&p.mul_nat(&h))
    }
}

// Re-export egcd for tests without making it public API.
#[cfg(test)]
pub(crate) fn egcd_for_tests(a: &Nat, b: &Nat) -> (Nat, Int, Int) {
    egcd(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RandomSource, XorShiftSource};

    fn n(v: u64) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn modpow_small() {
        assert_eq!(modpow(&n(2), &n(10), &n(1000)), n(24));
        assert_eq!(modpow(&n(3), &n(0), &n(7)), n(1));
        assert_eq!(modpow(&n(5), &n(3), &n(1)), Nat::zero());
    }

    #[test]
    fn modpow_fermat() {
        // Fermat's little theorem for a few primes.
        for p in [3u64, 5, 7, 11, 101, 65537] {
            let pn = n(p);
            for a in [2u64, 3, 10, 42] {
                if a % p == 0 {
                    continue;
                }
                assert_eq!(modpow(&n(a), &n(p - 1), &pn), n(1), "p={p} a={a}");
            }
        }
    }

    #[test]
    fn modpow_large() {
        // 2^(2^20) mod a 128-bit odd modulus, checked against repeated
        // squaring.
        let m = Nat::from_hex("f123456789abcdef123456789abcdef1").unwrap();
        let mut expect = n(2);
        for _ in 0..20 {
            expect = expect.square().rem_nat(&m).unwrap();
        }
        let e = Nat::one().shl_bits(20);
        assert_eq!(modpow(&n(2), &e, &m), expect);
    }

    #[test]
    fn mont_mul_carries_past_the_top_limb() {
        // With m = R - 1, R ≡ 1 so the Montgomery product is just a·b mod m.
        // Operands this close to m push the CIOS accumulator past n + 1
        // limbs.
        let cases: [([u64; 3], [u64; 3]); 3] = [
            (
                [0xb44f940e77c0464d, u64::MAX, 0],
                [0xcac4e1ac78f5f581, u64::MAX, 0],
            ),
            (
                [0xff4ed4054f8d9a79, u64::MAX, 0],
                [0xe79bcb796b213f0d, u64::MAX, 0],
            ),
            (
                [0x4fc32df53fac0a4f, 0xedd967675836c9d3, u64::MAX],
                [0xc8000e24fcae219b, 0xfffffff65f053403, u64::MAX],
            ),
        ];
        fn check<const N: usize>(a: &[u64], b: &[u64]) {
            let m = [u64::MAX; N];
            let got = mont_mul::<N>(
                a.try_into().unwrap(),
                b.try_into().unwrap(),
                &m,
                neg_inv_u64(u64::MAX),
            );
            let (an, bn) = (Nat::from_limbs(a.to_vec()), Nat::from_limbs(b.to_vec()));
            let want = an.mul_nat(&bn).rem_nat(&Nat::from_limbs(m.to_vec()));
            assert_eq!(Nat::from_limbs(got.to_vec()), want.unwrap());
        }
        for (a, b) in cases {
            if a[2] == 0 {
                check::<2>(&a[..2], &b[..2]);
            } else {
                check::<3>(&a, &b);
            }
        }
    }

    /// A random index below `k`.
    fn below(rng: &mut XorShiftSource, k: usize) -> usize {
        let mut b = [0u8; 8];
        rng.fill(&mut b);
        (u64::from_le_bytes(b) % k as u64) as usize
    }

    /// A random `Nat` of exactly `limbs` limbs.
    fn nat_of_limbs(rng: &mut XorShiftSource, limbs: usize) -> Nat {
        let mut v = rng.random_bits(64 * limbs);
        v.set_bit(64 * (limbs - 1) + below(rng, 64), true);
        v
    }

    fn assert_modpow_matches_reference(base: &Nat, exp: &Nat, m: &Nat) {
        assert_eq!(
            modpow(base, exp, m),
            modpow_reference(base, exp, m),
            "base={base:?} exp={exp:?} m={m:?}"
        );
    }

    #[test]
    fn montgomery_modpow_matches_reference_on_random_odd_moduli() {
        let mut rng = XorShiftSource::new(0x3047);
        for limbs in 1..=MONT_MAX_LIMBS {
            for _ in 0..6 {
                let mut m = nat_of_limbs(&mut rng, limbs);
                m.set_bit(0, true);
                let base_limbs = 1 + below(&mut rng, limbs + 1);
                let base = nat_of_limbs(&mut rng, base_limbs);
                let exp_limbs = 1 + below(&mut rng, limbs);
                let exp = nat_of_limbs(&mut rng, exp_limbs);
                assert_modpow_matches_reference(&base, &exp, &m);
            }
        }
    }

    #[test]
    fn modpow_edges_match_reference() {
        let mut rng = XorShiftSource::new(0xED6E);
        let one = Nat::one();
        let top_max = {
            let mut limbs = rng.random_bits(64 * 12).limbs().to_vec();
            limbs.resize(12, 0);
            limbs[0] |= 1;
            limbs[11] = u64::MAX;
            Nat::from_limbs(limbs)
        };
        let mut past_bound = nat_of_limbs(&mut rng, MONT_MAX_LIMBS + 1);
        past_bound.set_bit(0, true);
        let moduli = [
            one.clone(),
            Nat::from(3u64),
            Nat::from(u64::MAX),
            Nat::from(0x8000_0000_0000_0001u64),
            top_max,
            past_bound,
            Nat::from(1000u64),
            nat_of_limbs(&mut rng, 6).shl_bits(1),
        ];
        for m in &moduli {
            let m_minus_1 = m.checked_sub(&one).unwrap();
            let bases = [
                Nat::zero(),
                one.clone(),
                m_minus_1,
                m.clone(),
                m.add_nat(&Nat::from(5u64)),
                m.mul_nat(m).add_nat(&Nat::from(7u64)),
                nat_of_limbs(&mut rng, m.limbs().len()),
            ];
            let exps = [
                Nat::zero(),
                one.clone(),
                Nat::from(2u64),
                Nat::from(16u64),
                nat_of_limbs(&mut rng, 1),
                nat_of_limbs(&mut rng, m.limbs().len()),
            ];
            for base in &bases {
                for exp in &exps {
                    assert_modpow_matches_reference(base, exp, m);
                }
            }
        }
    }

    #[test]
    fn egcd_bezout() {
        let a = n(240);
        let b = n(46);
        let (g, x, y) = egcd_for_tests(&a, &b);
        assert_eq!(g, n(2));
        // 240x + 46y = 2.
        let lhs = Int::from_nat(a).mul(&x).add(&Int::from_nat(b).mul(&y));
        assert_eq!(lhs, Int::from(2));
    }

    #[test]
    fn invmod_basics() {
        assert_eq!(invmod(&n(3), &n(7)), Some(n(5)));
        assert_eq!(invmod(&n(2), &n(4)), None);
        assert_eq!(invmod(&n(1), &n(2)), Some(n(1)));
        assert_eq!(invmod(&n(5), &Nat::one()), None);
    }

    #[test]
    fn invmod_large() {
        let m = Nat::from_hex("ffffffffffffffffffffffffffffff61").unwrap(); // prime-ish
        let a = Nat::from_hex("123456789abcdef").unwrap();
        if let Some(inv) = invmod(&a, &m) {
            assert_eq!(a.mul_nat(&inv).rem_nat(&m).unwrap(), Nat::one());
        } else {
            panic!("expected invertible");
        }
    }

    #[test]
    fn crt_recombination() {
        let p = n(11);
        let q = n(13);
        let crt = Crt::new(p, q).unwrap();
        for x in [0u64, 1, 17, 100, 142] {
            assert_eq!(crt.combine(&n(x % 11), &n(x % 13)), n(x % 143));
        }
        // Moduli sharing a factor have no context.
        assert!(Crt::new(n(6), n(9)).is_none());
    }
}
