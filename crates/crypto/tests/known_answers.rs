//! Known-answer tests: exact output bytes of the protocol's cipher pairing
//! (RC5-32/12/16 in CTR mode + length-prepended CBC-MAC(RC5)) at fixed
//! keys and nonce. The round-trip and tamper tests elsewhere would still
//! pass if a refactor changed the ciphertext; these would not.

use wsn_crypto::authenc::AuthEnc;
use wsn_crypto::cbcmac::CbcMac;
use wsn_crypto::ctr::message_nonce;
use wsn_crypto::rc5::Rc5;
use wsn_crypto::Key128;

const MSG: &[u8; 13] = b"temp=21.5C;rh";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn ae() -> AuthEnc {
    AuthEnc::new(
        Key128::from_bytes(core::array::from_fn(|i| i as u8)),
        Key128::from_bytes(core::array::from_fn(|i| 0xF0 ^ i as u8)),
    )
}

fn seal_hex(len: usize) -> String {
    hex(&ae().seal(message_nonce(7, 3), &MSG[..len]))
}

#[test]
fn authenc_seal_empty() {
    assert_eq!(seal_hex(0), "be6050cb2b173b47");
}

#[test]
fn authenc_seal_5_bytes() {
    assert_eq!(seal_hex(5), "dfd3369d85e994e4510d8affe7");
}

#[test]
fn authenc_seal_13_bytes_partial_block() {
    assert_eq!(seal_hex(13), "dfd3369d85a5c0ba5734ca727f3edda4d56fdf7a94");
}

#[test]
fn cbcmac_tag() {
    let mac = CbcMac::new(Rc5::new(&Key128::from_bytes([0x3C; 16])));
    assert_eq!(
        hex(&mac.tag(b"cluster 13, hop 2, reading 42")),
        "9edf0b825105d12f"
    );
}
