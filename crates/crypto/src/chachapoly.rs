//! The ChaCha20-Poly1305 AEAD construction (RFC 8439 §2.8).
//!
//! This is the negotiated fast suite for the secure channel. One wide
//! keystream step at counter 0 yields both the Poly1305 one-time key
//! (block 0) and the first payload keystream (blocks 1…), so a short
//! frame costs a single step. `seal_in_place` encrypts the whole frame,
//! then MACs it in one run (an 8 KiB frame stays in L1, and the vector
//! Poly1305 wants long runs); `open_in_place` verifies the tag over the
//! ciphertext *before* decrypting — nothing derived from a forged frame
//! is ever interpreted.
//!
//! The same construction seals session-resumption tickets: unlike the
//! channel's per-direction ARC4 streams, an AEAD with an explicit nonce
//! is safe under one long-lived key across many independent tickets.

use crate::chacha20::{xor_bytes, ChaCha20, BLOCK_LEN, MAX_STEP};
use crate::poly1305::{self, Poly1305};

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes. Never reuse a (key, nonce) pair.
pub const NONCE_LEN: usize = 12;
/// Authenticator tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Authentication failure. Deliberately carries no detail: a forged tag
/// and a truncated frame must be indistinguishable to the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AEAD authentication failed")
    }
}

impl std::error::Error for AeadError {}

/// The keystream's first step at counter 0, one step of the widest tier
/// the CPU has: block 0 holds the Poly1305 one-time key (§2.6), blocks
/// 1… the payload's first keystream (§2.8).
struct FirstStep {
    /// Positioned at the block after the step.
    cipher: ChaCha20,
    ks: [u8; MAX_STEP],
    len: usize,
}

impl FirstStep {
    fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> FirstStep {
        let mut cipher = ChaCha20::new(key, nonce, 0);
        let mut ks = [0u8; MAX_STEP];
        let len = cipher.keystream_step(&mut ks);
        FirstStep { cipher, ks, len }
    }

    /// The MAC keyed with the first 32 bytes of block 0.
    fn poly(&self) -> Poly1305 {
        let (otk, _) = self
            .ks
            .split_first_chunk::<{ poly1305::KEY_LEN }>()
            .expect("a step holds a key");
        Poly1305::new(otk)
    }

    /// XORs the payload keystream over `buf`: the step's own blocks
    /// first, then the cipher from the block after them.
    fn xor_payload(mut self, buf: &mut [u8]) {
        let head_ks = &self.ks[BLOCK_LEN..self.len];
        let (head, rest) = buf.split_at_mut(buf.len().min(head_ks.len()));
        xor_bytes(head, head_ks);
        self.cipher.xor_keystream(rest);
    }
}

/// Finishes the §2.8 tag: pad16(aad) ‖ pad16(ct) ‖ len(aad) ‖ len(ct).
fn finish_tag(mut poly: Poly1305, aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
    poly.update_padded(aad);
    poly.update_padded(ct);
    let mut lens = [0u8; 16];
    lens[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lens[8..].copy_from_slice(&(ct.len() as u64).to_le_bytes());
    poly.update(&lens);
    poly.finish()
}

/// Encrypts `buf` in place and returns the tag over `aad` and the
/// ciphertext. Payload keystream starts at block 1 (§2.8).
pub fn seal_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut [u8],
) -> [u8; TAG_LEN] {
    let first = FirstStep::new(key, nonce);
    let poly = first.poly();
    first.xor_payload(buf);
    finish_tag(poly, aad, buf)
}

/// Verifies `tag` over `aad` and the ciphertext in `buf`, then decrypts
/// `buf` in place. On failure `buf` is left as ciphertext, untouched.
pub fn open_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut [u8],
    tag: &[u8],
) -> Result<(), AeadError> {
    let first = FirstStep::new(key, nonce);
    let expected = finish_tag(first.poly(), aad, buf);
    // Constant-time comparison: fold every byte difference before testing.
    if tag.len() != TAG_LEN {
        return Err(AeadError);
    }
    let diff = expected
        .iter()
        .zip(tag.iter())
        .fold(0u8, |acc, (a, b)| acc | (a ^ b));
    if diff != 0 {
        return Err(AeadError);
    }
    first.xor_payload(buf);
    Ok(())
}

/// Seals `plaintext` into a self-contained `ciphertext ‖ tag` frame
/// (ticket-style use; the nonce travels separately).
pub fn seal(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    let tag = seal_in_place(key, nonce, aad, &mut out);
    out.extend_from_slice(&tag);
    out
}

/// Opens a `ciphertext ‖ tag` frame produced by [`seal`].
pub fn open(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    frame: &[u8],
) -> Result<Vec<u8>, AeadError> {
    if frame.len() < TAG_LEN {
        return Err(AeadError);
    }
    let (ct, tag) = frame.split_at(frame.len() - TAG_LEN);
    let mut buf = ct.to_vec();
    open_in_place(key, nonce, aad, &mut buf, tag)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20::{boundary_lengths, keystream_block};
    use sfs_bignum::{RandomSource, XorShiftSource};

    fn rfc_key() -> [u8; 32] {
        core::array::from_fn(|i| 0x80 + i as u8)
    }

    const RFC_NONCE: [u8; 12] = [
        0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
    ];
    const RFC_AAD: [u8; 12] = [
        0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
    ];
    const RFC_PLAINTEXT: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it.";

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

    #[test]
    fn rfc8439_poly_key_generation_vector() {
        // §2.6.2.
        let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7];
        let otk = FirstStep::new(&key, &nonce).ks[..32].to_vec();
        let expected = hex("8a d5 a0 8b 90 5f 81 cc 81 50 40 27 4a b2 94 71
             a8 33 b6 37 e3 fd 0d a5 08 db b8 e2 fd d1 a6 46");
        assert_eq!(otk, expected);
    }

    #[test]
    fn rfc8439_aead_seal_vector() {
        // §2.8.2.
        let mut buf = RFC_PLAINTEXT.to_vec();
        let tag = seal_in_place(&rfc_key(), &RFC_NONCE, &RFC_AAD, &mut buf);
        let expected_ct = hex("d3 1a 8d 34 64 8e 60 db 7b 86 af bc 53 ef 7e c2
             a4 ad ed 51 29 6e 08 fe a9 e2 b5 a7 36 ee 62 d6
             3d be a4 5e 8c a9 67 12 82 fa fb 69 da 92 72 8b
             1a 71 de 0a 9e 06 0b 29 05 d6 a5 b6 7e cd 3b 36
             92 dd bd 7f 2d 77 8b 8c 98 03 ae e3 28 09 1b 58
             fa b3 24 e4 fa d6 75 94 55 85 80 8b 48 31 d7 bc
             3f f4 de f0 8e 4b 7a 9d e5 76 d2 65 86 ce c6 4b
             61 16");
        let expected_tag = hex("1a e1 0b 59 4f 09 e2 6a 7e 90 2e cb d0 60 06 91");
        assert_eq!(buf, expected_ct);
        assert_eq!(tag.to_vec(), expected_tag);
    }

    #[test]
    fn rfc8439_aead_open_vector() {
        let mut buf = RFC_PLAINTEXT.to_vec();
        let tag = seal_in_place(&rfc_key(), &RFC_NONCE, &RFC_AAD, &mut buf);
        open_in_place(&rfc_key(), &RFC_NONCE, &RFC_AAD, &mut buf, &tag).expect("authentic");
        assert_eq!(buf, RFC_PLAINTEXT);
    }

    #[test]
    fn tampering_anywhere_is_rejected_and_ciphertext_left_intact() {
        let key = rfc_key();
        let mut buf = RFC_PLAINTEXT.to_vec();
        let tag = seal_in_place(&key, &RFC_NONCE, &RFC_AAD, &mut buf);
        let sealed = buf.clone();
        for flip in [0, buf.len() / 2, buf.len() - 1] {
            let mut corrupt = sealed.clone();
            corrupt[flip] ^= 0x01;
            let before = corrupt.clone();
            assert_eq!(
                open_in_place(&key, &RFC_NONCE, &RFC_AAD, &mut corrupt, &tag),
                Err(AeadError)
            );
            // verify-before-decrypt: the buffer must not have been touched
            assert_eq!(corrupt, before);
        }
        let mut bad_tag = tag;
        bad_tag[7] ^= 0x80;
        let mut frame = sealed.clone();
        assert!(open_in_place(&key, &RFC_NONCE, &RFC_AAD, &mut frame, &bad_tag).is_err());
        let mut wrong_aad = sealed.clone();
        assert!(open_in_place(&key, &RFC_NONCE, b"other aad", &mut wrong_aad, &tag).is_err());
        let mut wrong_nonce = sealed;
        let mut nonce = RFC_NONCE;
        nonce[0] ^= 1;
        assert!(open_in_place(&key, &nonce, &RFC_AAD, &mut wrong_nonce, &tag).is_err());
    }

    #[test]
    fn detached_frame_roundtrip_all_sizes() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 13 + 1) as u8);
        for len in [0usize, 1, 15, 16, 17, 64, 511, 512, 513, 4096, 8192] {
            let nonce: [u8; 12] = core::array::from_fn(|i| (len + i) as u8);
            let plaintext: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let frame = seal(&key, &nonce, b"aad", &plaintext);
            assert_eq!(frame.len(), len + TAG_LEN);
            let opened = open(&key, &nonce, b"aad", &frame).expect("authentic");
            assert_eq!(opened, plaintext, "len {len}");
        }
        assert_eq!(open(&key, &[0u8; 12], b"", &[0u8; 15]), Err(AeadError));
    }

    /// The AEAD composed from reference parts: the one-time key from
    /// `keystream_block`, the payload XORed one portable block at a time,
    /// and scalar Poly1305 fed 16 bytes at a time over pad16(aad) ‖
    /// pad16(ct) ‖ lengths.
    fn reference_seal(
        key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> (Vec<u8>, [u8; TAG_LEN]) {
        let block0 = keystream_block(key, nonce, 0);
        let mut ct = plaintext.to_vec();
        for (i, chunk) in ct.chunks_mut(BLOCK_LEN).enumerate() {
            let ks = keystream_block(key, nonce, 1 + i as u32);
            for (b, k) in chunk.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
        let mut mac_input = aad.to_vec();
        mac_input.resize(aad.len().next_multiple_of(16), 0);
        mac_input.extend_from_slice(&ct);
        mac_input.resize(mac_input.len().next_multiple_of(16), 0);
        mac_input.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        mac_input.extend_from_slice(&(ct.len() as u64).to_le_bytes());
        let mut poly = Poly1305::new(block0[..32].try_into().unwrap());
        for chunk in mac_input.chunks(16) {
            poly.update(chunk);
        }
        (ct, poly.finish())
    }

    #[test]
    fn seal_and_open_match_the_reference_composition() {
        let mut rng = XorShiftSource::new(0xAEAD_8439);
        let mut aad_bytes = [0u8; 33];
        rng.fill(&mut aad_bytes);
        for len in boundary_lengths() {
            for aad_len in [0usize, 12, 33] {
                // All-ones keys and messages (maximum carries) on every
                // fifth length.
                let mut key = [0xffu8; KEY_LEN];
                let mut nonce = [0xffu8; NONCE_LEN];
                let mut msg = vec![0xffu8; len];
                if len % 5 != 0 {
                    rng.fill(&mut key);
                    rng.fill(&mut nonce);
                    rng.fill(&mut msg);
                }
                let aad = &aad_bytes[..aad_len];
                let (want_ct, want_tag) = reference_seal(&key, &nonce, aad, &msg);
                let mut buf = msg.clone();
                let tag = seal_in_place(&key, &nonce, aad, &mut buf);
                assert!(buf == want_ct, "ciphertext, len {len} aad {aad_len}");
                assert_eq!(tag, want_tag, "tag, len {len} aad {aad_len}");
                open_in_place(&key, &nonce, aad, &mut buf, &tag).expect("authentic");
                assert!(buf == msg, "plaintext, len {len} aad {aad_len}");
            }
        }
    }

    #[test]
    fn tamper_at_every_byte_is_rejected_and_leaves_the_buffer() {
        let mut rng = XorShiftSource::new(0x7A3_9E2);
        let mut key = [0u8; KEY_LEN];
        rng.fill(&mut key);
        let nonce = [0x42u8; NONCE_LEN];
        let aad = b"frame header";
        for len in 0..=200usize {
            let mut ct = vec![0u8; len];
            rng.fill(&mut ct);
            let tag = seal_in_place(&key, &nonce, aad, &mut ct);
            let mut frame = ct.clone();
            frame.extend_from_slice(&tag);
            for at in 0..frame.len() {
                let mut forged = frame.clone();
                forged[at] ^= 1 << (at % 8);
                let (body, forged_tag) = forged.split_at_mut(len);
                let before = body.to_vec();
                assert_eq!(
                    open_in_place(&key, &nonce, aad, body, forged_tag),
                    Err(AeadError),
                    "len {len} byte {at}"
                );
                assert!(body == before, "buffer touched, len {len} byte {at}");
            }
        }
    }
}
