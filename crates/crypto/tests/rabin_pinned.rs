//! Pins the exact bytes Rabin–Williams produces under fixed seeds.
//!
//! Key generation (Miller–Rabin), signing and decryption all run through
//! `sfs_bignum::modpow` and CRT recombination. Any change to that
//! arithmetic must leave keys, signatures and plaintexts byte-identical,
//! since HostIDs, traces and virtual time are derived from them. The
//! digests were captured from the plain long-division `modpow` with a
//! per-call CRT inverse, so they pin the Montgomery path to its output.

use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::generate_keypair;
use sfs_crypto::sha1::{digest_hex, Sha1};

const MESSAGES: usize = 64;

#[test]
fn signatures_under_fixed_seed_key_are_pinned() {
    let mut rng = XorShiftSource::new(0x5167);
    let key = generate_keypair(512, &mut rng);
    let mut h = Sha1::new();
    h.update(&key.to_bytes());
    for i in 0..MESSAGES {
        let msg = format!("pinned signature message {i}");
        let sig = key.sign(msg.as_bytes());
        assert!(key.public().verify(msg.as_bytes(), &sig));
        h.update(&sig.to_bytes(key.public().len()));
    }
    assert_eq!(
        digest_hex(&h.finalize()),
        "77abd1892d13bc2f0da67b648a963670eead9762"
    );
}

#[test]
fn decryptions_under_fixed_seed_key_are_pinned() {
    let mut rng = XorShiftSource::new(0xDEC7);
    let key = generate_keypair(768, &mut rng);
    let mut h = Sha1::new();
    h.update(&key.to_bytes());
    let max = key.public().max_plaintext_len();
    for i in 0..MESSAGES {
        let msg: Vec<u8> = (0..i % (max + 1)).map(|j| (i * 31 + j) as u8).collect();
        let c = key.public().encrypt(&msg, &mut rng).unwrap();
        let m = key.decrypt(&c).unwrap();
        assert_eq!(m, msg);
        h.update(&c).update(&m);
    }
    assert_eq!(
        digest_hex(&h.finalize()),
        "982da12a552b60268cd6cc7c570533ee8650ebf4"
    );
}
