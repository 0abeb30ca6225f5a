//! The Rabin–Williams public-key cryptosystem.
//!
//! Paper §3.1.3: "SFS uses the Rabin public key cryptosystem for encryption
//! and signing. The implementation is secure against adaptive
//! chosen-ciphertext and adaptive chosen-message attacks. (Encryption is
//! actually plaintext-aware, an even stronger property.) Rabin assumes only
//! that factoring is hard … Like low-exponent RSA, encryption and signature
//! verification are particularly fast in Rabin because they do not require
//! modular exponentiation."
//!
//! Encryption is squaring modulo `n = p·q` with OAEP padding (Bellare–
//! Rogaway, giving plaintext awareness); decryption takes modular square
//! roots via CRT. Signatures are Williams' variant: primes are chosen with
//! `p ≡ 3 (mod 8)` and `q ≡ 7 (mod 8)` so that for any hash value `h`
//! coprime to `n`, exactly one of `{h, −h, 2h, −2h}` is a quadratic residue;
//! the signature is that value's square root plus the two tweak bits
//! `(e, f)`. Verification is a single modular squaring — cheap, which is
//! what lets SFS read-only servers serve many clients (§2.4).

use sfs_bignum::{
    gen_prime_congruent, is_probable_prime, modpow, Crt, Nat, RandomSource, XorShiftSource,
    MR_ROUNDS,
};

use crate::sha1::{mgf1, sha1, sha1_concat, DIGEST_LEN};

/// The shortest modulus, in bytes, with room for OAEP padding: a zero
/// byte, the masked seed, the label hash and the 0x01 separator.
const MIN_OAEP_MODULUS_LEN: usize = 2 * DIGEST_LEN + 2;

/// Errors from Rabin operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RabinError {
    /// The plaintext is too long for the modulus.
    MessageTooLong,
    /// Ciphertext failed structural or padding checks.
    DecryptionFailed,
    /// The ciphertext is not the right size for the modulus.
    BadCiphertextLength,
    /// A key blob failed to parse.
    BadKeyEncoding,
    /// The modulus is shorter than OAEP padding (2·20 + 2 bytes), so the
    /// key can sign but not encrypt or decrypt.
    ModulusTooSmall,
}

impl std::fmt::Display for RabinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RabinError::MessageTooLong => write!(f, "message too long for Rabin modulus"),
            RabinError::DecryptionFailed => write!(f, "Rabin decryption failed"),
            RabinError::BadCiphertextLength => write!(f, "ciphertext length mismatch"),
            RabinError::BadKeyEncoding => write!(f, "malformed Rabin key encoding"),
            RabinError::ModulusTooSmall => write!(f, "Rabin modulus too small for OAEP"),
        }
    }
}

impl std::error::Error for RabinError {}

/// A Rabin–Williams public key (the modulus `n`).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RabinPublicKey {
    n: Nat,
    /// Modulus length in bytes, cached.
    k: usize,
}

/// A Rabin–Williams private key (the factorization of `n`).
#[derive(Clone)]
pub struct RabinPrivateKey {
    /// The factors `p`, `q` with the CRT coefficient every root
    /// recombination uses.
    crt: Crt,
    /// The root exponents and ×2 root factors for `p` and for `q`.
    half_p: HalfKey,
    half_q: HalfKey,
    public: RabinPublicKey,
}

/// What square roots modulo one prime factor `p ≡ 3 (mod 4)` need.
#[derive(Clone)]
struct HalfKey {
    /// `(p+1)/4`.
    e: Nat,
    /// `2^e mod p`: a root of the ×2 tweak.
    two_root: Nat,
}

impl HalfKey {
    fn new(p: &Nat) -> Self {
        let e = p.add_nat(&Nat::one()).shr_bits(2);
        let two_root = modpow(&Nat::from(2u64), &e, p);
        HalfKey { e, two_root }
    }

    /// `r = a^((p+1)/4) mod p`, and whether `a` is a quadratic residue
    /// mod `p`. By Euler's criterion `r² = a·a^((p−1)/2) ≡ ±a`, with `+`
    /// exactly when `a` is a residue (or `a ≡ 0`), so the root carries
    /// the Legendre symbol with it.
    fn root(&self, a: &Nat, p: &Nat) -> (Nat, bool) {
        let r = modpow(a, &self.e, p);
        let is_residue = r.square().rem_nat(p).unwrap() == a.rem_nat(p).unwrap();
        (r, is_residue)
    }
}

/// A Rabin–Williams signature: tweak bits and a square root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RabinSignature {
    /// `true` when the −1 tweak was applied.
    pub negate: bool,
    /// `true` when the ×2 tweak was applied.
    pub double: bool,
    /// The square root of the tweaked hash.
    pub root: Nat,
}

impl RabinSignature {
    /// Serializes as `tweaks(1 byte) || root (n-sized big-endian)`.
    pub fn to_bytes(&self, key_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(key_len + 1);
        out.push((self.negate as u8) | (self.double as u8) << 1);
        out.extend_from_slice(&self.root.to_bytes_be_padded(key_len));
        out
    }

    /// Parses the serialization produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RabinError> {
        if bytes.len() < 2 || bytes[0] > 3 {
            return Err(RabinError::BadKeyEncoding);
        }
        Ok(RabinSignature {
            negate: bytes[0] & 1 != 0,
            double: bytes[0] & 2 != 0,
            root: Nat::from_bytes_be(&bytes[1..]),
        })
    }
}

/// Generates a Rabin–Williams key pair with a modulus of roughly `bits`
/// bits (`p ≡ 3 (mod 8)`, `q ≡ 7 (mod 8)`).
///
/// SFS servers use 1280-bit keys by default; tests use smaller ones for
/// speed.
///
/// # Panics
///
/// Panics if `bits < 256` (OAEP needs room for two SHA-1 digests).
pub fn generate_keypair<R: RandomSource>(bits: usize, rng: &mut R) -> RabinPrivateKey {
    assert!(
        bits >= 256,
        "Rabin modulus must be at least 256 bits for OAEP"
    );
    let half = bits / 2;
    loop {
        let p = gen_prime_congruent(half, 3, 8, rng);
        let q = gen_prime_congruent(bits - half, 7, 8, rng);
        // Distinct primes are coprime; only p == q has no inverse.
        if let Some(key) = RabinPrivateKey::from_factors(p, q) {
            return key;
        }
    }
}

impl RabinPublicKey {
    /// Constructs a public key from a modulus.
    pub fn from_modulus(n: Nat) -> Self {
        let k = n.to_bytes_be().len();
        RabinPublicKey { n, k }
    }

    /// The modulus.
    pub fn modulus(&self) -> &Nat {
        &self.n
    }

    /// Modulus size in bytes.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Returns `true` for a degenerate (empty) key.
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Serializes the public key (big-endian modulus). This is the byte
    /// string hashed into HostIDs.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.n.to_bytes_be()
    }

    /// Parses a public key serialized by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RabinError> {
        if bytes.is_empty() || bytes[0] == 0 {
            return Err(RabinError::BadKeyEncoding);
        }
        Ok(RabinPublicKey::from_modulus(Nat::from_bytes_be(bytes)))
    }

    /// Maximum plaintext length for [`Self::encrypt`].
    pub fn max_plaintext_len(&self) -> usize {
        self.k.saturating_sub(MIN_OAEP_MODULUS_LEN)
    }

    /// OAEP-pads and encrypts `msg` (one modular squaring — "particularly
    /// fast").
    pub fn encrypt<R: RandomSource>(&self, msg: &[u8], rng: &mut R) -> Result<Vec<u8>, RabinError> {
        if self.k < MIN_OAEP_MODULUS_LEN {
            return Err(RabinError::ModulusTooSmall);
        }
        if msg.len() > self.max_plaintext_len() {
            return Err(RabinError::MessageTooLong);
        }
        // EM = 0x00 || maskedSeed(20) || maskedDB(k-21)
        // DB = lHash(20) || 0x00.. || 0x01 || msg
        let db_len = self.k - 1 - DIGEST_LEN;
        let mut db = vec![0u8; db_len];
        let lhash = sha1(b"SFS-rabin-oaep");
        db[..DIGEST_LEN].copy_from_slice(&lhash);
        let msg_start = db_len - msg.len();
        db[msg_start - 1] = 0x01;
        db[msg_start..].copy_from_slice(msg);

        let mut seed = [0u8; DIGEST_LEN];
        rng.fill(&mut seed);
        let db_mask = mgf1(&seed, db_len);
        for (b, m) in db.iter_mut().zip(db_mask.iter()) {
            *b ^= m;
        }
        let seed_mask = mgf1(&db, DIGEST_LEN);
        let mut masked_seed = seed;
        for (b, m) in masked_seed.iter_mut().zip(seed_mask.iter()) {
            *b ^= m;
        }
        let mut em = Vec::with_capacity(self.k);
        em.push(0);
        em.extend_from_slice(&masked_seed);
        em.extend_from_slice(&db);
        // EM < 2^(8(k-1)) <= n because n has exactly k bytes.
        let m = Nat::from_bytes_be(&em);
        let c = m.square().rem_nat(&self.n).unwrap();
        Ok(c.to_bytes_be_padded(self.k))
    }

    /// Verifies a signature over `msg`: checks `s² ≡ e·f·H(msg) (mod n)`.
    /// One squaring, no exponentiation.
    pub fn verify(&self, msg: &[u8], sig: &RabinSignature) -> bool {
        if sig.root >= self.n {
            return false;
        }
        let h = fdh(msg, &self.n, self.k);
        let mut target = h;
        if sig.double {
            target = target.shl_bits(1).rem_nat(&self.n).unwrap();
        }
        if sig.negate {
            target = if target.is_zero() {
                target
            } else {
                self.n.checked_sub(&target).unwrap()
            };
        }
        sig.root.square().rem_nat(&self.n).unwrap() == target
    }
}

impl std::fmt::Debug for RabinPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RabinPublicKey({} bits)", self.n.bit_len())
    }
}

impl RabinPrivateKey {
    /// The corresponding public key.
    pub fn public(&self) -> &RabinPublicKey {
        &self.public
    }

    /// Decrypts a ciphertext produced by [`RabinPublicKey::encrypt`].
    ///
    /// Squaring is 4-to-1, so all four square roots are recovered via CRT
    /// and the OAEP redundancy selects the correct one (plaintext
    /// awareness: an adversary cannot produce a valid ciphertext except by
    /// encrypting, so chosen-ciphertext queries are useless).
    pub fn decrypt(&self, cipher: &[u8]) -> Result<Vec<u8>, RabinError> {
        if self.public.k < MIN_OAEP_MODULUS_LEN {
            return Err(RabinError::ModulusTooSmall);
        }
        if cipher.len() != self.public.k {
            return Err(RabinError::BadCiphertextLength);
        }
        let c = Nat::from_bytes_be(cipher);
        if c >= self.public.n {
            return Err(RabinError::BadCiphertextLength);
        }
        let (p, q) = (self.crt.p(), self.crt.q());
        let (rp, p_residue) = self.half_p.root(&c, p);
        let (rq, q_residue) = self.half_q.root(&c, q);
        if !(p_residue && q_residue) {
            return Err(RabinError::DecryptionFailed);
        }
        // The four roots are (±rp, ±rq) recombined; negating both signs
        // negates the root mod n, so two recombinations give all four.
        let n = &self.public.n;
        let neg_rq = q.checked_sub(&rq).unwrap().rem_nat(q).unwrap();
        let x1 = self.crt.combine(&rp, &rq);
        let x2 = self.crt.combine(&rp, &neg_rq);
        let (x3, x4) = (n.checked_sub(&x2).unwrap(), n.checked_sub(&x1).unwrap());
        [x1, x2, x3, x4]
            .iter()
            .find_map(|r| self.try_unpad(r))
            .ok_or(RabinError::DecryptionFailed)
    }

    /// Signs `msg` deterministically.
    pub fn sign(&self, msg: &[u8]) -> RabinSignature {
        self.sign_hash(fdh(msg, &self.public.n, self.public.k))
    }

    /// Signs the full-domain hash `h < n`.
    ///
    /// The tweaks follow from the roots of `h` itself: with `rp = h^ep mod
    /// p` and `rq = h^eq mod q` (`e = (prime+1)/4`), `rp² ≡ h` exactly when
    /// `h` is a residue mod `p`, and `rp² ≡ −h` otherwise. ×2 flips the
    /// residuosity mod `p` (`p ≡ 3 mod 8`) but not mod `q` (`q ≡ 7 mod
    /// 8`), and ×(−1) flips both, so exactly one of `±h`, `±2h` is a
    /// residue mod both. Its root mod each prime is `rp` (or `rq`) times
    /// the cached `2^e` when doubled, negated mod `p` only when negated:
    /// `ep` is odd and `eq` even. That is the root `target^e` itself, so
    /// the signature matches one computed from the tweaked target.
    fn sign_hash(&self, mut h: Nat) -> RabinSignature {
        let (p, q) = (self.crt.p(), self.crt.q());
        let n = &self.public.n;
        // Degenerate h (shared factor with n) would reveal the
        // factorization; perturb deterministically. Probability ~ 2^-600.
        // h ≡ 0 mod a prime exactly when its root there is zero.
        let ((rp, p_residue), (rq, q_residue)) = loop {
            let (rp, rq) = (self.half_p.root(&h, p), self.half_q.root(&h, q));
            if !rp.0.is_zero() && !rq.0.is_zero() {
                break (rp, rq);
            }
            h = h.add_nat(&Nat::one()).rem_nat(n).unwrap();
        };
        let double = p_residue != q_residue;
        let negate = !q_residue;
        let (mut xp, mut xq) = (rp, rq);
        if double {
            xp = xp.mul_nat(&self.half_p.two_root).rem_nat(p).unwrap();
            xq = xq.mul_nat(&self.half_q.two_root).rem_nat(q).unwrap();
        }
        if negate {
            xp = p.checked_sub(&xp).unwrap();
        }
        let s = self.crt.combine(&xp, &xq);
        // Canonicalize to the smaller of {s, n-s} so signing is a function.
        let s_alt = n.checked_sub(&s).unwrap();
        let root = if s_alt < s { s_alt } else { s };
        RabinSignature {
            negate,
            double,
            root,
        }
    }

    /// Attempts OAEP unpadding of a candidate root.
    fn try_unpad(&self, m: &Nat) -> Option<Vec<u8>> {
        let k = self.public.k;
        // EM's top byte is zero; a root with it set is not the padded one.
        if m.bit_len() > 8 * (k - 1) {
            return None;
        }
        let mut padded = m.to_bytes_be_padded(k - 1);
        let (seed, db) = padded.split_at_mut(DIGEST_LEN);
        for (b, mask) in seed.iter_mut().zip(mgf1(db, DIGEST_LEN)) {
            *b ^= mask;
        }
        let db_mask = mgf1(seed, db.len());
        for (b, mask) in db.iter_mut().zip(db_mask) {
            *b ^= mask;
        }
        let lhash = sha1(b"SFS-rabin-oaep");
        if db[..DIGEST_LEN] != lhash {
            return None;
        }
        // Skip zero padding, expect 0x01 separator.
        let mut i = DIGEST_LEN;
        while i < db.len() && db[i] == 0 {
            i += 1;
        }
        if i >= db.len() || db[i] != 0x01 {
            return None;
        }
        Some(db[i + 1..].to_vec())
    }
}

impl RabinPrivateKey {
    /// Serializes the private key (length-prefixed `p` then `q`).
    ///
    /// Users register eksblowfish-encrypted copies of this blob with
    /// authserv so a password can recover the key from anywhere (§2.4).
    pub fn to_bytes(&self) -> Vec<u8> {
        let p = self.crt.p().to_bytes_be();
        let q = self.crt.q().to_bytes_be();
        let mut out = Vec::with_capacity(p.len() + q.len() + 8);
        out.extend_from_slice(&(p.len() as u32).to_be_bytes());
        out.extend_from_slice(&p);
        out.extend_from_slice(&(q.len() as u32).to_be_bytes());
        out.extend_from_slice(&q);
        out
    }

    /// Parses a blob from [`Self::to_bytes`], validating the Rabin–
    /// Williams congruences and that `p` and `q` are distinct primes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RabinError> {
        let take = |data: &[u8]| -> Result<(Nat, usize), RabinError> {
            if data.len() < 4 {
                return Err(RabinError::BadKeyEncoding);
            }
            let len = u32::from_be_bytes(data[..4].try_into().unwrap()) as usize;
            if data.len() < 4 + len {
                return Err(RabinError::BadKeyEncoding);
            }
            Ok((Nat::from_bytes_be(&data[4..4 + len]), 4 + len))
        };
        let (p, used) = take(bytes)?;
        let (q, used2) = take(&bytes[used..])?;
        if used + used2 != bytes.len() {
            return Err(RabinError::BadKeyEncoding);
        }
        if p.div_rem_u64(8).1 != 3 || q.div_rem_u64(8).1 != 7 {
            return Err(RabinError::BadKeyEncoding);
        }
        // A fixed witness source keeps parsing a function of the bytes.
        let mut witnesses = XorShiftSource::new(0x5EED);
        if !is_probable_prime(&p, MR_ROUNDS, &mut witnesses)
            || !is_probable_prime(&q, MR_ROUNDS, &mut witnesses)
        {
            return Err(RabinError::BadKeyEncoding);
        }
        RabinPrivateKey::from_factors(p, q).ok_or(RabinError::BadKeyEncoding)
    }

    /// Builds the key for `n = p·q`, or `None` when `p` and `q` share a
    /// factor (CRT recombination needs `p⁻¹ mod q`).
    fn from_factors(p: Nat, q: Nat) -> Option<Self> {
        let crt = Crt::new(p, q)?;
        let n = crt.p().mul_nat(crt.q());
        let k = n.to_bytes_be().len();
        Some(RabinPrivateKey {
            half_p: HalfKey::new(crt.p()),
            half_q: HalfKey::new(crt.q()),
            crt,
            public: RabinPublicKey { n, k },
        })
    }
}

impl std::fmt::Debug for RabinPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print p or q.
        write!(f, "RabinPrivateKey({} bits)", self.public.n.bit_len())
    }
}

/// Full-domain hash of a message into `[0, n)`, via MGF1 over SHA-1.
fn fdh(msg: &[u8], n: &Nat, k: usize) -> Nat {
    let digest = sha1_concat(&[b"SFS-rw-fdh", msg]);
    // k-1 bytes guarantees the value is below n (n has k bytes).
    Nat::from_bytes_be(&mgf1(&digest, k - 1))
        .rem_nat(n)
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::XorShiftSource;

    fn test_key() -> RabinPrivateKey {
        let mut rng = XorShiftSource::new(0xB0B);
        generate_keypair(512, &mut rng)
    }

    #[test]
    fn keygen_congruences() {
        let key = test_key();
        assert_eq!(key.crt.p().div_rem_u64(8).1, 3);
        assert_eq!(key.crt.q().div_rem_u64(8).1, 7);
        assert_eq!(key.crt.p().mul_nat(key.crt.q()), *key.public().modulus());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = test_key();
        let mut rng = XorShiftSource::new(99);
        // Max plaintext for a 512-bit key is 64 − 42 = 22 bytes.
        for msg in [&b""[..], b"x", b"session-key-half-16b"] {
            let c = key.public().encrypt(msg, &mut rng).unwrap();
            assert_eq!(c.len(), key.public().len());
            assert_eq!(key.decrypt(&c).unwrap(), msg);
        }
    }

    #[test]
    fn ciphertexts_randomized() {
        let key = test_key();
        let mut rng = XorShiftSource::new(7);
        let c1 = key.public().encrypt(b"same message", &mut rng).unwrap();
        let c2 = key.public().encrypt(b"same message", &mut rng).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn oversized_message_rejected() {
        let key = test_key();
        let mut rng = XorShiftSource::new(1);
        let msg = vec![0u8; key.public().max_plaintext_len() + 1];
        assert_eq!(
            key.public().encrypt(&msg, &mut rng),
            Err(RabinError::MessageTooLong)
        );
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = test_key();
        let mut rng = XorShiftSource::new(5);
        let mut c = key.public().encrypt(b"secret", &mut rng).unwrap();
        c[10] ^= 1;
        assert!(key.decrypt(&c).is_err());
    }

    #[test]
    fn wrong_length_ciphertext_rejected() {
        let key = test_key();
        assert_eq!(
            key.decrypt(&[0u8; 10]),
            Err(RabinError::BadCiphertextLength)
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        for msg in [&b""[..], b"AuthMsg", b"revocation certificate body"] {
            let sig = key.sign(msg);
            assert!(key.public().verify(msg, &sig), "msg={msg:?}");
        }
    }

    #[test]
    fn half_key_roots_carry_the_legendre_symbol() {
        for p in [11u64, 23] {
            let pn = Nat::from(p);
            let half = HalfKey::new(&pn);
            for a in 0..p {
                let is_square = (0..p).any(|x| x * x % p == a);
                let (r, is_residue) = half.root(&Nat::from(a), &pn);
                assert_eq!(is_residue, is_square, "a={a} p={p}");
                let want = if is_square { a } else { p - a };
                assert_eq!(r.square().rem_nat(&pn).unwrap(), Nat::from(want));
            }
            // 2 is a residue mod 23 ≡ 7 (mod 8), −2 is one mod 11 ≡ 3.
            let two_sq = half.two_root.square().rem_nat(&pn).unwrap();
            assert_eq!(two_sq, Nat::from(if p % 8 == 7 { 2 } else { p - 2 }));
        }
    }

    #[test]
    fn sign_tweaks_follow_euler_criterion() {
        // The tweaks read off the roots must be the ones the Legendre
        // symbols of h prescribe, computed here by Euler's criterion.
        const MESSAGES: usize = 200;
        for (bits, seed) in [(256, 0x256), (512, 0x512), (768, 0x768)] {
            let key = generate_keypair(bits, &mut XorShiftSource::new(seed));
            let (p, q) = (key.crt.p(), key.crt.q());
            let n = key.public().modulus();
            // (p−1)/2 = p >> 1 for odd p.
            let residue = |h: &Nat, p: &Nat| modpow(h, &p.shr_bits(1), p).is_one();
            for i in 0..MESSAGES {
                let msg = format!("euler {bits} {i}");
                let h = fdh(msg.as_bytes(), n, key.public().len());
                let sig = key.sign(msg.as_bytes());
                let (jp, jq) = (residue(&h, p), residue(&h, q));
                assert_eq!(sig.double, jp != jq, "{msg}");
                assert_eq!(sig.negate, !jq, "{msg}");
                assert!(sig.root <= n.checked_sub(&sig.root).unwrap(), "{msg}");
                assert!(key.public().verify(msg.as_bytes(), &sig), "{msg}");
            }
        }
    }

    #[test]
    fn hash_sharing_a_factor_with_n_is_perturbed() {
        // h ≡ 0 mod p, mod q or mod both is signed as h + 1 instead.
        let key = test_key();
        let (p, q) = (key.crt.p().clone(), key.crt.q().clone());
        let one = Nat::one();
        for h in [Nat::zero(), p.clone(), q.clone(), p.shl_bits(1)] {
            let next = h.add_nat(&one);
            assert_eq!(key.sign_hash(h), key.sign_hash(next));
        }
        // The signature of the perturbed hash verifies against it.
        let sig = key.sign_hash(p.clone());
        let mut target = p.add_nat(&one);
        if sig.double {
            target = target.shl_bits(1);
        }
        let n = key.public().modulus();
        target = target.rem_nat(n).unwrap();
        if sig.negate {
            target = n.checked_sub(&target).unwrap();
        }
        assert_eq!(sig.root.square().rem_nat(n).unwrap(), target);
    }

    #[test]
    fn signature_rejects_other_message() {
        let key = test_key();
        let sig = key.sign(b"the real message");
        assert!(!key.public().verify(b"a forged message", &sig));
    }

    #[test]
    fn signature_rejects_tampered_root() {
        let key = test_key();
        let mut sig = key.sign(b"msg");
        sig.root = sig.root.add_nat(&Nat::one());
        assert!(!key.public().verify(b"msg", &sig));
    }

    #[test]
    fn signature_rejects_wrong_key() {
        let key = test_key();
        let mut rng = XorShiftSource::new(0xC0FFEE);
        let other = generate_keypair(512, &mut rng);
        let sig = key.sign(b"msg");
        assert!(!other.public().verify(b"msg", &sig));
    }

    #[test]
    fn signing_is_deterministic() {
        let key = test_key();
        assert_eq!(key.sign(b"m"), key.sign(b"m"));
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let key = test_key();
        let sig = key.sign(b"serialize me");
        let bytes = sig.to_bytes(key.public().len());
        let back = RabinSignature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(key.public().verify(b"serialize me", &back));
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let key = test_key();
        let bytes = key.public().to_bytes();
        let back = RabinPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&back, key.public());
        assert_eq!(
            RabinPublicKey::from_bytes(&[]),
            Err(RabinError::BadKeyEncoding)
        );
        assert_eq!(
            RabinPublicKey::from_bytes(&[0, 1, 2]),
            Err(RabinError::BadKeyEncoding)
        );
    }

    /// The private-key blob for the factors `p`, `q`.
    fn key_blob(p: u64, q: u64) -> Vec<u8> {
        let mut blob = Vec::new();
        for v in [p, q] {
            let bytes = Nat::from(v).to_bytes_be();
            blob.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            blob.extend_from_slice(&bytes);
        }
        blob
    }

    #[test]
    fn key_blob_with_shared_factor_rejected() {
        // p = 11 ≡ 3 and q = 55 ≡ 7 (mod 8) pass the congruence checks but
        // share the factor 11, so no CRT coefficient exists.
        assert!(matches!(
            RabinPrivateKey::from_bytes(&key_blob(11, 55)),
            Err(RabinError::BadKeyEncoding)
        ));
    }

    #[test]
    fn key_blob_with_composite_factor_rejected() {
        // Coprime and in the right classes mod 8, but 15 = 3·5 and
        // 72 731 = 257·283; the second has no factor trial division finds,
        // so Miller–Rabin must catch it.
        for (p, q) in [(11, 15), (72_731, 23)] {
            assert!(matches!(
                RabinPrivateKey::from_bytes(&key_blob(p, q)),
                Err(RabinError::BadKeyEncoding)
            ));
        }
    }

    #[test]
    fn every_parsed_key_signs_and_decrypts_without_panicking() {
        // Every blob with p ≡ 3, q ≡ 7 (mod 8) below 400, prime or not,
        // and a full-size key's blob: whatever parses signs without
        // panicking, verifiably unless the hash shares a factor with n
        // (likely for tiny n, and then sign perturbs it), and decrypt
        // returns rather than panics.
        let mut blobs = vec![test_key().to_bytes()];
        for p in (3..400).step_by(8) {
            for q in (7..400).step_by(8) {
                blobs.push(key_blob(p, q));
            }
        }
        let mut parsed = 0;
        for blob in &blobs {
            let Ok(key) = RabinPrivateKey::from_bytes(blob) else {
                continue;
            };
            parsed += 1;
            let n = key.public().modulus();
            for msg in [&b""[..], b"AuthMsg"] {
                let sig = key.sign(msg);
                let h = fdh(msg, n, key.public().len());
                if [key.crt.p(), key.crt.q()]
                    .iter()
                    .all(|f| !h.rem_nat(f).unwrap().is_zero())
                {
                    assert!(key.public().verify(msg, &sig), "{key:?}");
                }
            }
            let below_n = n.checked_sub(&Nat::one()).unwrap();
            for c in [Nat::zero(), Nat::one(), below_n] {
                let _ = key.decrypt(&c.to_bytes_be_padded(key.public().len()));
            }
        }
        // The full-size key and 20 × 20 pairs of small primes.
        assert_eq!(parsed, 1 + 20 * 20);
    }

    #[test]
    fn root_too_large_rejected() {
        let key = test_key();
        let mut sig = key.sign(b"m");
        sig.root = key.public().modulus().add_nat(&sig.root);
        assert!(!key.public().verify(b"m", &sig));
    }

    #[test]
    fn moduli_too_small_for_oaep_are_errors_not_panics() {
        // p = 3, q = 7 is a well-formed key blob (tiny keys may sign), but
        // n = 21 leaves no room for OAEP padding.
        let tiny = RabinPrivateKey::from_bytes(&key_blob(3, 7)).expect("tiny keys parse");
        assert_eq!(tiny.decrypt(&[0]), Err(RabinError::ModulusTooSmall));
        let mut rng = XorShiftSource::new(3);
        let n21 = RabinPublicKey::from_bytes(&[21]).expect("tiny moduli parse");
        assert_eq!(n21.encrypt(&[], &mut rng), Err(RabinError::ModulusTooSmall));
        // The boundary: 41 bytes is one short, 42 bytes pads an empty
        // message.
        let short = RabinPublicKey::from_bytes(&[0xff; MIN_OAEP_MODULUS_LEN - 1]).unwrap();
        assert_eq!(
            short.encrypt(&[], &mut rng),
            Err(RabinError::ModulusTooSmall)
        );
        let fits = RabinPublicKey::from_bytes(&[0xff; MIN_OAEP_MODULUS_LEN]).unwrap();
        assert_eq!(
            fits.encrypt(&[], &mut rng).unwrap().len(),
            MIN_OAEP_MODULUS_LEN
        );
    }
}
