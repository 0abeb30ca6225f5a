//! Property-style tests for the bignum substrate, driven by the
//! crate's own deterministic [`XorShiftSource`] so every run checks
//! the same randomized sample.

use sfs_bignum::{invmod, modpow, Crt, Nat, RandomSource, XorShiftSource};

const CASES: usize = 192;

fn rand_u64(rng: &mut XorShiftSource) -> u64 {
    let mut b = [0u8; 8];
    rng.fill(&mut b);
    u64::from_be_bytes(b)
}

/// An arbitrary `Nat` up to ~256 bits via byte strings (length 0–31).
fn nat(rng: &mut XorShiftSource) -> Nat {
    let len = (rand_u64(rng) % 32) as usize;
    let mut b = vec![0u8; len];
    rng.fill(&mut b);
    Nat::from_bytes_be(&b)
}

fn nonzero_nat(rng: &mut XorShiftSource) -> Nat {
    let n = nat(rng);
    if n.is_zero() {
        Nat::one()
    } else {
        n
    }
}

#[test]
fn add_commutes() {
    let mut rng = XorShiftSource::new(0xADD);
    for _ in 0..CASES {
        let (a, b) = (nat(&mut rng), nat(&mut rng));
        assert_eq!(a.add_nat(&b), b.add_nat(&a));
    }
}

#[test]
fn add_associates() {
    let mut rng = XorShiftSource::new(0xADD2);
    for _ in 0..CASES {
        let (a, b, c) = (nat(&mut rng), nat(&mut rng), nat(&mut rng));
        assert_eq!(a.add_nat(&b).add_nat(&c), a.add_nat(&b.add_nat(&c)));
    }
}

#[test]
fn add_then_sub_roundtrips() {
    let mut rng = XorShiftSource::new(0x5B);
    for _ in 0..CASES {
        let (a, b) = (nat(&mut rng), nat(&mut rng));
        assert_eq!(a.add_nat(&b).checked_sub(&b).unwrap(), a);
    }
}

#[test]
fn mul_commutes() {
    let mut rng = XorShiftSource::new(0x30);
    for _ in 0..CASES {
        let (a, b) = (nat(&mut rng), nat(&mut rng));
        assert_eq!(a.mul_nat(&b), b.mul_nat(&a));
    }
}

#[test]
fn mul_distributes() {
    let mut rng = XorShiftSource::new(0xD15);
    for _ in 0..CASES {
        let (a, b, c) = (nat(&mut rng), nat(&mut rng), nat(&mut rng));
        assert_eq!(
            a.mul_nat(&b.add_nat(&c)),
            a.mul_nat(&b).add_nat(&a.mul_nat(&c))
        );
    }
}

#[test]
fn div_rem_invariant() {
    let mut rng = XorShiftSource::new(0xD1F);
    for _ in 0..CASES {
        let (a, b) = (nat(&mut rng), nonzero_nat(&mut rng));
        let (q, r) = a.div_rem(&b).unwrap();
        assert!(r < b);
        assert_eq!(q.mul_nat(&b).add_nat(&r), a);
    }
}

#[test]
fn bytes_roundtrip() {
    let mut rng = XorShiftSource::new(0xB9);
    for _ in 0..CASES {
        let a = nat(&mut rng);
        assert_eq!(Nat::from_bytes_be(&a.to_bytes_be()), a);
    }
}

#[test]
fn hex_roundtrip() {
    let mut rng = XorShiftSource::new(0x4E);
    for _ in 0..CASES {
        let a = nat(&mut rng);
        assert_eq!(Nat::from_hex(&a.to_hex()).unwrap(), a);
    }
}

#[test]
fn shift_roundtrip() {
    let mut rng = XorShiftSource::new(0x54);
    for _ in 0..CASES {
        let a = nat(&mut rng);
        let s = (rand_u64(&mut rng) % 200) as usize;
        assert_eq!(a.shl_bits(s).shr_bits(s), a);
    }
}

#[test]
fn shl_is_mul_by_power_of_two() {
    let mut rng = XorShiftSource::new(0x542);
    for _ in 0..CASES {
        let a = nat(&mut rng);
        let s = (rand_u64(&mut rng) % 100) as usize;
        let pow = Nat::one().shl_bits(s);
        assert_eq!(a.shl_bits(s), a.mul_nat(&pow));
    }
}

#[test]
fn gcd_divides_both() {
    let mut rng = XorShiftSource::new(0x9CD);
    for _ in 0..CASES {
        let (a, b) = (nonzero_nat(&mut rng), nonzero_nat(&mut rng));
        let g = a.gcd(&b);
        assert!(!g.is_zero());
        assert!(a.rem_nat(&g).unwrap().is_zero());
        assert!(b.rem_nat(&g).unwrap().is_zero());
    }
}

#[test]
fn modpow_matches_naive() {
    let mut rng = XorShiftSource::new(0x30D);
    for _ in 0..CASES {
        let base = rand_u64(&mut rng) % 1000;
        let exp = rand_u64(&mut rng) % 64;
        let m = 2 + rand_u64(&mut rng) % 9998;
        let mut naive: u128 = 1;
        for _ in 0..exp {
            naive = naive * base as u128 % m as u128;
        }
        assert_eq!(
            modpow(&Nat::from(base), &Nat::from(exp), &Nat::from(m)),
            Nat::from(naive as u64)
        );
    }
}

#[test]
fn invmod_is_inverse() {
    let mut rng = XorShiftSource::new(0x1F);
    for _ in 0..CASES {
        let a = nonzero_nat(&mut rng);
        let m = nonzero_nat(&mut rng).add_nat(&Nat::from(2u64)); // ensure m >= 2
        if let Some(inv) = invmod(&a, &m) {
            assert_eq!(a.mul_nat(&inv).rem_nat(&m).unwrap(), Nat::one());
        }
    }
}

#[test]
fn crt_is_consistent() {
    let mut rng = XorShiftSource::new(0xC47);
    let crt = Crt::new(Nat::from(65537u64), Nat::from(65539u64)).unwrap();
    for _ in 0..CASES {
        // p=65537, q=65539 are coprime.
        let x = rand_u64(&mut rng) as u32;
        let p = Nat::from(65537u64);
        let q = Nat::from(65539u64);
        let xn = Nat::from(x as u64);
        let xp = xn.rem_nat(&p).unwrap();
        let xq = xn.rem_nat(&q).unwrap();
        let rec = crt.combine(&xp, &xq);
        assert_eq!(rec.rem_nat(&p).unwrap(), xp);
        assert_eq!(rec.rem_nat(&q).unwrap(), xq);
    }
}

#[test]
fn decimal_display_matches_u128() {
    let mut rng = XorShiftSource::new(0xDEC);
    for _ in 0..CASES {
        let mut b = [0u8; 16];
        rng.fill(&mut b);
        let v = u128::from_be_bytes(b);
        assert_eq!(Nat::from(v).to_string(), v.to_string());
    }
}
