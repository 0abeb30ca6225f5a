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
    crt_pair, gen_prime_congruent, invmod, jacobi, sqrt_mod_3mod4, Nat, RandomSource,
};

use crate::sha1::{mgf1, sha1, sha1_concat, DIGEST_LEN};

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
}

impl std::fmt::Display for RabinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RabinError::MessageTooLong => write!(f, "message too long for Rabin modulus"),
            RabinError::DecryptionFailed => write!(f, "Rabin decryption failed"),
            RabinError::BadCiphertextLength => write!(f, "ciphertext length mismatch"),
            RabinError::BadKeyEncoding => write!(f, "malformed Rabin key encoding"),
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
    p: Nat,
    q: Nat,
    /// `p⁻¹ mod q`, the CRT coefficient every root recombination uses.
    p_inv_q: Nat,
    public: RabinPublicKey,
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
        self.k.saturating_sub(2 * DIGEST_LEN + 2)
    }

    /// OAEP-pads and encrypts `msg` (one modular squaring — "particularly
    /// fast").
    pub fn encrypt<R: RandomSource>(&self, msg: &[u8], rng: &mut R) -> Result<Vec<u8>, RabinError> {
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
        if cipher.len() != self.public.k {
            return Err(RabinError::BadCiphertextLength);
        }
        let c = Nat::from_bytes_be(cipher);
        if c >= self.public.n {
            return Err(RabinError::BadCiphertextLength);
        }
        let rp = sqrt_mod_3mod4(&c, &self.p).ok_or(RabinError::DecryptionFailed)?;
        let rq = sqrt_mod_3mod4(&c, &self.q).ok_or(RabinError::DecryptionFailed)?;
        let roots = self.all_roots(&rp, &rq);
        for r in roots {
            if let Some(m) = self.try_unpad(&r) {
                return Ok(m);
            }
        }
        Err(RabinError::DecryptionFailed)
    }

    /// Signs `msg` deterministically.
    pub fn sign(&self, msg: &[u8]) -> RabinSignature {
        let n = &self.public.n;
        let mut h = fdh(msg, n, self.public.k);
        // Degenerate h (shared factor with n) would reveal the
        // factorization; perturb deterministically. Probability ~ 2^-600.
        // A Jacobi symbol is zero exactly when h shares a factor with that
        // modulus, so the symbols double as the coprimality test.
        let (jp, jq) = loop {
            let (jp, jq) = (jacobi(&h, &self.p), jacobi(&h, &self.q));
            if jp != 0 && jq != 0 {
                break (jp, jq);
            }
            h = h.add_nat(&Nat::one()).rem_nat(n).unwrap();
        };
        // ×2 flips the symbol mod p (p ≡ 3 mod 8 ⇒ (2/p) = −1) but not mod
        // q (q ≡ 7 mod 8 ⇒ (2/q) = +1); ×(−1) flips both (p, q ≡ 3 mod 4).
        let double = jp != jq;
        let mut target = h;
        if double {
            target = target.shl_bits(1).rem_nat(n).unwrap();
        }
        let negate = jacobi(&target, &self.q) == -1;
        if negate {
            target = n.checked_sub(&target).unwrap();
        }
        debug_assert_eq!(jacobi(&target, &self.p), 1);
        debug_assert_eq!(jacobi(&target, &self.q), 1);
        let rp = sqrt_mod_3mod4(&target, &self.p).expect("tweaked hash must be a QR mod p");
        let rq = sqrt_mod_3mod4(&target, &self.q).expect("tweaked hash must be a QR mod q");
        let s = crt_pair(&rp, &self.p, &rq, &self.q, &self.p_inv_q);
        // Canonicalize to the smaller of {s, n-s} so signing is a function.
        let s_alt = n.checked_sub(&s).unwrap();
        let root = if s_alt < s { s_alt } else { s };
        RabinSignature {
            negate,
            double,
            root,
        }
    }

    /// All four CRT combinations of `(±rp, ±rq)`.
    fn all_roots(&self, rp: &Nat, rq: &Nat) -> [Nat; 4] {
        let np = self.p.checked_sub(rp).unwrap().rem_nat(&self.p).unwrap();
        let nq = self.q.checked_sub(rq).unwrap().rem_nat(&self.q).unwrap();
        let crt = |xp: &Nat, xq: &Nat| crt_pair(xp, &self.p, xq, &self.q, &self.p_inv_q);
        [crt(rp, rq), crt(rp, &nq), crt(&np, rq), crt(&np, &nq)]
    }

    /// Attempts OAEP unpadding of a candidate root.
    fn try_unpad(&self, m: &Nat) -> Option<Vec<u8>> {
        let k = self.public.k;
        let em = m.to_bytes_be();
        if em.len() > k - 1 {
            return None;
        }
        let mut padded = vec![0u8; k - 1 - em.len()];
        padded.extend_from_slice(&em);
        let (masked_seed, db) = padded.split_at(DIGEST_LEN);
        let seed_mask = mgf1(db, DIGEST_LEN);
        let seed: Vec<u8> = masked_seed
            .iter()
            .zip(seed_mask.iter())
            .map(|(a, b)| a ^ b)
            .collect();
        let db_mask = mgf1(&seed, db.len());
        let db: Vec<u8> = db.iter().zip(db_mask.iter()).map(|(a, b)| a ^ b).collect();
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
        let p = self.p.to_bytes_be();
        let q = self.q.to_bytes_be();
        let mut out = Vec::with_capacity(p.len() + q.len() + 8);
        out.extend_from_slice(&(p.len() as u32).to_be_bytes());
        out.extend_from_slice(&p);
        out.extend_from_slice(&(q.len() as u32).to_be_bytes());
        out.extend_from_slice(&q);
        out
    }

    /// Parses a blob from [`Self::to_bytes`], validating the Rabin–
    /// Williams congruences and that `p` and `q` are coprime.
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
        RabinPrivateKey::from_factors(p, q).ok_or(RabinError::BadKeyEncoding)
    }

    /// Builds the key for `n = p·q`, or `None` when `p` and `q` share a
    /// factor (CRT recombination needs `p⁻¹ mod q`).
    fn from_factors(p: Nat, q: Nat) -> Option<Self> {
        let p_inv_q = invmod(&p, &q)?;
        let n = p.mul_nat(&q);
        let k = n.to_bytes_be().len();
        Some(RabinPrivateKey {
            p,
            q,
            p_inv_q,
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
        assert_eq!(key.p.div_rem_u64(8).1, 3);
        assert_eq!(key.q.div_rem_u64(8).1, 7);
        assert_eq!(key.p.mul_nat(&key.q), *key.public().modulus());
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

    #[test]
    fn key_blob_with_shared_factor_rejected() {
        // p = 11 ≡ 3 and q = 55 ≡ 7 (mod 8) pass the congruence checks but
        // share the factor 11, so no CRT coefficient exists.
        let mut blob = Vec::new();
        for v in [11u8, 55] {
            blob.extend_from_slice(&1u32.to_be_bytes());
            blob.push(v);
        }
        assert!(matches!(
            RabinPrivateKey::from_bytes(&blob),
            Err(RabinError::BadKeyEncoding)
        ));
    }

    #[test]
    fn root_too_large_rejected() {
        let key = test_key();
        let mut sig = key.sign(b"m");
        sig.root = key.public().modulus().add_nat(&sig.root);
        assert!(!key.public().verify(b"m", &sig));
    }
}
