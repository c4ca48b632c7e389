//! Property-based tests over the crypto toolkit's core invariants.

use proptest::prelude::*;
use wsn_crypto::authenc::{AuthEnc, TAG_BYTES};
use wsn_crypto::cbcmac::CbcMac;
use wsn_crypto::ctr::Ctr;
use wsn_crypto::drbg::HmacDrbg;
use wsn_crypto::hmac::{HmacKey, HmacSha256};
use wsn_crypto::keychain::{ChainVerifier, KeyChain};
use wsn_crypto::prf::{Prf, PrfKey};
use wsn_crypto::rc5::Rc5;
use wsn_crypto::sha256::Sha256;
use wsn_crypto::{CryptoError, Key128};

fn key_strategy() -> impl Strategy<Value = Key128> {
    any::<[u8; 16]>().prop_map(Key128::from_bytes)
}

proptest! {
    #[test]
    fn rc5_block_roundtrip(key in key_strategy(), block in any::<[u8; 8]>()) {
        let c = Rc5::new(&key);
        let mut b = block;
        c.encrypt_block(&mut b);
        c.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    #[test]
    fn ctr_roundtrip_any_length(
        key in key_strategy(),
        nonce in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let ctr = Ctr::new(Rc5::new(&key));
        prop_assert_eq!(ctr.decrypt(nonce, &ctr.encrypt(nonce, &msg)), msg);
    }

    #[test]
    fn authenc_roundtrip(
        ke in key_strategy(),
        km in key_strategy(),
        nonce in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        prop_assume!(ke != km);
        let ae = AuthEnc::new(ke, km);
        let sealed = ae.seal(nonce, &msg);
        prop_assert_eq!(ae.open(nonce, &sealed).unwrap(), msg);
    }

    #[test]
    fn authenc_rejects_bitflips(
        ke in key_strategy(),
        km in key_strategy(),
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        flip_byte in any::<proptest::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let ae = AuthEnc::new(ke, km);
        let mut sealed = ae.seal(0, &msg);
        let idx = flip_byte.index(sealed.len());
        sealed[idx] ^= 1 << flip_bit;
        prop_assert!(ae.open(0, &sealed).is_err());
    }

    #[test]
    fn authenc_rejects_truncated_input(
        ke in key_strategy(),
        km in key_strategy(),
        nonce in any::<u64>(),
        sealed in proptest::collection::vec(any::<u8>(), 0..TAG_BYTES),
    ) {
        let ae = AuthEnc::new(ke, km);
        prop_assert_eq!(ae.open(nonce, &sealed), Err(CryptoError::Truncated));
    }

    #[test]
    fn authenc_rejects_wrong_nonce(
        ke in key_strategy(),
        km in key_strategy(),
        nonce in any::<u64>(),
        other in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        prop_assume!(nonce != other);
        let ae = AuthEnc::new(ke, km);
        let sealed = ae.seal(nonce, &msg);
        prop_assert_eq!(ae.open(other, &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn cbcmac_no_collisions_on_mutation(
        key in key_strategy(),
        msg in proptest::collection::vec(any::<u8>(), 1..96),
        flip_byte in any::<proptest::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mac = CbcMac::new(Rc5::new(&key));
        let tag = mac.tag(&msg);
        let mut mutated = msg.clone();
        let idx = flip_byte.index(mutated.len());
        mutated[idx] ^= 1 << flip_bit;
        prop_assert_ne!(mac.tag(&mutated), tag);
    }

    #[test]
    fn cbcmac_prefix_distinct(
        key in key_strategy(),
        msg in proptest::collection::vec(any::<u8>(), 2..96),
    ) {
        // A message and any strict prefix must have different tags (length
        // prepend at work).
        let mac = CbcMac::new(Rc5::new(&key));
        prop_assert_ne!(mac.tag(&msg), mac.tag(&msg[..msg.len() - 1]));
    }

    #[test]
    fn sha256_chunking_invariance(
        msg in proptest::collection::vec(any::<u8>(), 0..512),
        split in any::<proptest::sample::Index>(),
    ) {
        let oneshot = Sha256::digest(&msg);
        let cut = split.index(msg.len() + 1);
        let mut h = Sha256::new();
        h.update(&msg[..cut]);
        h.update(&msg[cut..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn hmac_key_and_message_sensitivity(
        k1 in proptest::collection::vec(any::<u8>(), 1..80),
        m1 in proptest::collection::vec(any::<u8>(), 0..80),
        m2 in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        prop_assume!(m1 != m2);
        prop_assert_ne!(HmacSha256::mac(&k1, &m1), HmacSha256::mac(&k1, &m2));
    }

    #[test]
    fn prf_injective_in_practice(key in key_strategy(), a in any::<u32>(), b in any::<u32>()) {
        prop_assume!(a != b);
        prop_assert_ne!(Prf::cluster_key(&key, a), Prf::cluster_key(&key, b));
    }

    #[test]
    fn keychain_out_of_order_acceptance(
        seed in key_strategy(),
        skip in 1usize..6,
    ) {
        let mut chain = KeyChain::generate(&seed, 8);
        let mut verifier = ChainVerifier::new(chain.commitment());
        // Skip `skip - 1` links, accept the next with a window >= skip.
        let mut link = Key128::ZERO;
        for _ in 0..skip {
            link = chain.reveal_next().unwrap();
        }
        prop_assert!(verifier.accept(&link, skip).is_ok());
        // And the link after that verifies with window 1.
        let next = chain.reveal_next().unwrap();
        prop_assert!(verifier.accept(&next, 1).is_ok());
    }

    #[test]
    fn drbg_reproducible(seed in any::<u64>(), n in 1usize..20) {
        let mut a = HmacDrbg::from_u64(seed);
        let mut b = HmacDrbg::from_u64(seed);
        for _ in 0..n {
            prop_assert_eq!(a.next_key(), b.next_key());
        }
    }
}

// Cached-schedule vs fresh-expansion equivalence: the perf pass (HMAC
// midstates, PrfKey, in-place AEAD, streaming CBC-MAC) must be a pure
// optimization — every cached/in-place path must produce bytes identical
// to its allocate-and-expand-per-call counterpart.
proptest! {
    #[test]
    fn hmac_cached_key_matches_fresh(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let hk = HmacKey::new(&key);
        prop_assert_eq!(hk.mac(&msg), HmacSha256::mac(&key, &msg));
    }

    #[test]
    fn prf_cached_key_matches_stateless(
        key in key_strategy(),
        label in proptest::collection::vec(any::<u8>(), 0..32),
        node in any::<u32>(),
    ) {
        let pk = PrfKey::new(&key);
        prop_assert_eq!(pk.derive(&label), Prf::derive(&key, &label));
        prop_assert_eq!(pk.cluster_key(node), Prf::cluster_key(&key, node));
        prop_assert_eq!(pk.chain_step(), Prf::chain_step(&key));
        prop_assert_eq!(pk.refresh(), Prf::refresh(&key));
    }

    #[test]
    fn authenc_in_place_matches_vec_path(
        ke in key_strategy(),
        km in key_strategy(),
        nonce in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        prop_assume!(ke != km);
        let ae = AuthEnc::new(ke, km);
        let sealed = ae.seal(nonce, &msg);

        let mut buf = msg.clone();
        let tag = ae.seal_in_place_detached(nonce, &mut buf);
        buf.extend_from_slice(tag.as_bytes());
        prop_assert_eq!(&buf, &sealed);

        let split = sealed.len() - TAG_BYTES;
        let mut ct = sealed[..split].to_vec();
        ae.open_in_place_detached(nonce, &mut ct, &sealed[split..]).unwrap();
        prop_assert_eq!(&ct, &msg);
        prop_assert_eq!(ae.open(nonce, &sealed).unwrap(), msg);
    }

    #[test]
    fn cbcmac_stream_matches_oneshot(
        key in key_strategy(),
        msg in proptest::collection::vec(any::<u8>(), 0..160),
        frag in 1usize..24,
    ) {
        let mac = CbcMac::new(Rc5::new(&key));
        let mut s = mac.stream(msg.len() as u64);
        for piece in msg.chunks(frag) {
            s.update(piece);
        }
        prop_assert_eq!(s.finalize().as_bytes(), &mac.tag(&msg)[..]);
    }
}
