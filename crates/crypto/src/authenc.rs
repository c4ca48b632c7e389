//! Encrypt-then-MAC composition — the paper's Figure 3 / Figure 4 pattern.
//!
//! Step 1 (Figure 3) computes `y1 = E_Kencr(D)`, `t1 = MAC_Kmac(y1)`,
//! `c1 = y1 | t1`; Step 2 (Figure 4) applies the same composition with
//! cluster-derived keys around a larger payload. [`AuthEnc`] captures the
//! shared shape: CTR encryption under one key, a MAC over the *ciphertext*
//! (encrypt-then-MAC, the provably-sound order) under an independent key.
//!
//! The cipher/MAC pairing is TinySec's: RC5-CTR + CBC-MAC(RC5) with an
//! 8-byte tag.

use crate::cbcmac::{CbcMac, Tag};
use crate::ctr::Ctr;
use crate::rc5::{Rc5, BLOCK_BYTES};
use crate::{CryptoError, Key128};

/// Transmitted tag length in bytes (one full RC5 block).
pub const TAG_BYTES: usize = 8;

const _: () = assert!(TAG_BYTES >= 4, "tags below 4 bytes are trivially forgeable");
const _: () = assert!(TAG_BYTES <= BLOCK_BYTES, "tag longer than cipher block");

/// The protocol's authenticated encryption: RC5-32/12/16 in CTR mode +
/// length-prepended CBC-MAC(RC5), [`TAG_BYTES`]-byte tags.
///
/// Construction expands both RC5 key schedules, so hot paths should build
/// one per key pair and reuse it (`wsn-core` keeps a per-peer cache).
#[derive(Clone)]
pub struct AuthEnc {
    enc: Ctr,
    mac: CbcMac,
}

impl AuthEnc {
    /// Builds from *independent* encryption and MAC keys (the paper calls
    /// this out explicitly).
    pub fn new(k_encr: Key128, k_mac: Key128) -> Self {
        AuthEnc {
            enc: Ctr::new(Rc5::new(&k_encr)),
            mac: CbcMac::new(Rc5::new(&k_mac)),
        }
    }

    /// Seals `plaintext` under `nonce`: returns `ciphertext | tag`.
    ///
    /// The MAC covers the nonce and the ciphertext, so a receiver that
    /// reconstructs the nonce from its counter detects desynchronization as
    /// a tag failure rather than as garbled plaintext.
    pub fn seal(&self, nonce: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_BYTES);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place_detached(nonce, &mut out);
        out.extend_from_slice(tag.as_bytes());
        out
    }

    /// Opens `sealed` (= `ciphertext | tag`) under `nonce`.
    pub fn open(&self, nonce: u64, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < TAG_BYTES {
            return Err(CryptoError::Truncated);
        }
        let split = sealed.len() - TAG_BYTES;
        let (ct, tag) = sealed.split_at(split);
        let mut out = ct.to_vec();
        self.open_in_place_detached(nonce, &mut out, tag)?;
        Ok(out)
    }

    /// Encrypts `data` in place and returns the detached tag (over
    /// `nonce ‖ ciphertext`). The allocation-free core of
    /// [`AuthEnc::seal`]: callers assembling a frame encrypt the payload
    /// region directly and append the tag.
    pub fn seal_in_place_detached(&self, nonce: u64, data: &mut [u8]) -> Tag {
        self.enc.apply(nonce, data);
        self.ct_tag(nonce, data)
    }

    /// Verifies `tag` over `nonce ‖ ct`, then decrypts `ct` in place. On
    /// error the ciphertext is left untouched. The allocation-free core of
    /// [`AuthEnc::open`].
    pub fn open_in_place_detached(
        &self,
        nonce: u64,
        ct: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        if tag.len() != TAG_BYTES {
            return Err(CryptoError::Truncated);
        }
        let expected = self.ct_tag(nonce, ct);
        if !crate::ct::eq(expected.as_bytes(), tag) {
            return Err(CryptoError::BadTag);
        }
        self.enc.apply(nonce, ct);
        Ok(())
    }

    fn ct_tag(&self, nonce: u64, ct: &[u8]) -> Tag {
        let mut s = self.mac.stream(8 + ct.len() as u64);
        s.update(&nonce.to_be_bytes());
        s.update(ct);
        s.finalize_truncated(TAG_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ae() -> AuthEnc {
        AuthEnc::new(
            Key128::from_bytes([0xA1; 16]),
            Key128::from_bytes([0xB2; 16]),
        )
    }

    #[test]
    fn seal_open_roundtrip() {
        let ae = ae();
        for len in [0usize, 1, 8, 13, 64] {
            let msg = vec![0xCD; len];
            let sealed = ae.seal(5, &msg);
            assert_eq!(sealed.len(), len + TAG_BYTES);
            assert_eq!(ae.open(5, &sealed).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn wrong_nonce_rejected() {
        let ae = ae();
        let sealed = ae.seal(5, b"data");
        assert_eq!(ae.open(6, &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let ae = ae();
        let mut sealed = ae.seal(5, b"data data data");
        sealed[2] ^= 0x80;
        assert_eq!(ae.open(5, &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn tampered_tag_rejected() {
        let ae = ae();
        let mut sealed = ae.seal(5, b"data");
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(ae.open(5, &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn truncated_input_rejected() {
        let ae = ae();
        assert_eq!(ae.open(5, &[0u8; 3]), Err(CryptoError::Truncated));
        assert_eq!(ae.open(5, &[]), Err(CryptoError::Truncated));
    }

    #[test]
    fn wrong_keys_rejected() {
        let ae1 = ae();
        let ae2 = AuthEnc::new(
            Key128::from_bytes([0xA1; 16]),
            Key128::from_bytes([0xB3; 16]),
        );
        let sealed = ae1.seal(1, b"msg");
        assert_eq!(ae2.open(1, &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn in_place_matches_vec_path() {
        let ae = ae();
        for len in [0usize, 1, 8, 13, 64] {
            let msg = vec![0xCD; len];
            let sealed = ae.seal(5, &msg);

            let mut buf = msg.clone();
            let tag = ae.seal_in_place_detached(5, &mut buf);
            buf.extend_from_slice(tag.as_bytes());
            assert_eq!(buf, sealed, "len {len}");

            let split = sealed.len() - TAG_BYTES;
            let mut ct = sealed[..split].to_vec();
            ae.open_in_place_detached(5, &mut ct, &sealed[split..])
                .unwrap();
            assert_eq!(ct, msg, "len {len}");
        }
    }

    #[test]
    fn in_place_open_leaves_ciphertext_on_bad_tag() {
        let ae = ae();
        let sealed = ae.seal(7, b"reading");
        let split = sealed.len() - TAG_BYTES;
        let mut ct = sealed[..split].to_vec();
        let mut bad_tag = sealed[split..].to_vec();
        bad_tag[0] ^= 1;
        assert_eq!(
            ae.open_in_place_detached(7, &mut ct, &bad_tag),
            Err(CryptoError::BadTag)
        );
        assert_eq!(ct, &sealed[..split], "ciphertext must be untouched");
        assert_eq!(
            ae.open_in_place_detached(7, &mut ct, &bad_tag[..4]),
            Err(CryptoError::Truncated)
        );
    }

    #[test]
    fn cloned_instance_matches() {
        let ae1 = ae();
        let ae2 = ae1.clone();
        let sealed = ae1.seal(3, b"cloned");
        assert_eq!(ae2.seal(3, b"cloned"), sealed);
        assert_eq!(ae2.open(3, &sealed).unwrap(), b"cloned");
    }
}
