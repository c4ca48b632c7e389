//! RC5-32/12/16 — Rivest's RC5 with 32-bit words, 12 rounds, 16-byte keys.
//!
//! RC5 was the workhorse cipher of early sensor-network security stacks
//! (TinySec, SPINS/SNEP evaluated it on the Mica motes the paper targets),
//! which makes it the period-accurate choice for this reproduction and the
//! one block cipher under [`crate::ctr::Ctr`] and [`crate::cbcmac::CbcMac`].
//! The implementation follows Rivest's 1994 paper and is validated against
//! the test vectors published there.

use crate::Key128;

/// Block size in bytes (two 32-bit words).
pub const BLOCK_BYTES: usize = 8;

const W: u32 = 32; // word size in bits
const R: usize = 12; // rounds
const B: usize = 16; // key length in bytes
const C: usize = B / 4; // key words
const T: usize = 2 * (R + 1); // expanded table size

/// Magic constants for w = 32 (from the RC5 paper: Odd((e-2)·2^w) and
/// Odd((φ-1)·2^w)).
const P32: u32 = 0xB7E1_5163;
const Q32: u32 = 0x9E37_79B9;

/// An RC5-32/12/16 instance holding the expanded key table.
#[derive(Clone)]
pub struct Rc5 {
    s: [u32; T],
}

impl Rc5 {
    /// Expands `key` into the round-key table.
    pub fn new(key: &Key128) -> Self {
        // Load the key bytes little-endian into C words.
        let kb = key.as_bytes();
        let mut l = [0u32; C];
        for i in (0..B).rev() {
            l[i / 4] = l[i / 4].rotate_left(8).wrapping_add(kb[i] as u32);
        }

        let mut s = [0u32; T];
        s[0] = P32;
        for i in 1..T {
            s[i] = s[i - 1].wrapping_add(Q32);
        }

        // Mix the secret key into the table: 3·max(T, C) iterations.
        let (mut a, mut b) = (0u32, 0u32);
        let (mut i, mut j) = (0usize, 0usize);
        for _ in 0..3 * T.max(C) {
            s[i] = s[i].wrapping_add(a).wrapping_add(b).rotate_left(3);
            a = s[i];
            l[j] = l[j]
                .wrapping_add(a)
                .wrapping_add(b)
                .rotate_left(a.wrapping_add(b) % W);
            b = l[j];
            i = (i + 1) % T;
            j = (j + 1) % C;
        }

        Rc5 { s }
    }

    #[inline]
    fn encrypt_words(&self, mut a: u32, mut b: u32) -> (u32, u32) {
        a = a.wrapping_add(self.s[0]);
        b = b.wrapping_add(self.s[1]);
        for i in 1..=R {
            a = (a ^ b).rotate_left(b % W).wrapping_add(self.s[2 * i]);
            b = (b ^ a).rotate_left(a % W).wrapping_add(self.s[2 * i + 1]);
        }
        (a, b)
    }

    #[inline]
    fn decrypt_words(&self, mut a: u32, mut b: u32) -> (u32, u32) {
        for i in (1..=R).rev() {
            b = b.wrapping_sub(self.s[2 * i + 1]).rotate_right(a % W) ^ a;
            a = a.wrapping_sub(self.s[2 * i]).rotate_right(b % W) ^ b;
        }
        b = b.wrapping_sub(self.s[1]);
        a = a.wrapping_sub(self.s[0]);
        (a, b)
    }

    /// Encrypts one block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_BYTES]) {
        let a = u32::from_le_bytes(block[0..4].try_into().unwrap());
        let b = u32::from_le_bytes(block[4..8].try_into().unwrap());
        let (a, b) = self.encrypt_words(a, b);
        block[0..4].copy_from_slice(&a.to_le_bytes());
        block[4..8].copy_from_slice(&b.to_le_bytes());
    }

    /// Decrypts one block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_BYTES]) {
        let a = u32::from_le_bytes(block[0..4].try_into().unwrap());
        let b = u32::from_le_bytes(block[4..8].try_into().unwrap());
        let (a, b) = self.decrypt_words(a, b);
        block[0..4].copy_from_slice(&a.to_le_bytes());
        block[4..8].copy_from_slice(&b.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encrypt a word pair expressed as the paper prints it and return the
    /// resulting word pair.
    fn enc(key: [u8; 16], pt: (u32, u32)) -> (u32, u32) {
        Rc5::new(&Key128::from_bytes(key)).encrypt_words(pt.0, pt.1)
    }

    // Test vectors from Rivest, "The RC5 Encryption Algorithm" (1994), §5.
    #[test]
    fn rivest_vector_1() {
        assert_eq!(enc([0u8; 16], (0, 0)), (0xEEDB_A521, 0x6D8F_4B15));
    }

    #[test]
    fn rivest_vector_2() {
        let key = [
            0x91, 0x5F, 0x46, 0x19, 0xBE, 0x41, 0xB2, 0x51, 0x63, 0x55, 0xA5, 0x01, 0x10, 0xA9,
            0xCE, 0x91,
        ];
        assert_eq!(
            enc(key, (0xEEDB_A521, 0x6D8F_4B15)),
            (0xAC13_C0F7, 0x5289_2B5B)
        );
    }

    #[test]
    fn rivest_vector_3() {
        let key = [
            0x78, 0x33, 0x48, 0xE7, 0x5A, 0xEB, 0x0F, 0x2F, 0xD7, 0xB1, 0x69, 0xBB, 0x8D, 0xC1,
            0x67, 0x87,
        ];
        assert_eq!(
            enc(key, (0xAC13_C0F7, 0x5289_2B5B)),
            (0xB7B3_422F, 0x92FC_6903)
        );
    }

    #[test]
    fn rivest_vector_4() {
        let key = [
            0xDC, 0x49, 0xDB, 0x13, 0x75, 0xA5, 0x58, 0x4F, 0x64, 0x85, 0xB4, 0x13, 0xB5, 0xF1,
            0x2B, 0xAF,
        ];
        assert_eq!(
            enc(key, (0xB7B3_422F, 0x92FC_6903)),
            (0xB278_C165, 0xCC97_D184)
        );
    }

    #[test]
    fn inverse_property() {
        // Encrypt/decrypt inverse across a spread of patterned blocks.
        let cipher = Rc5::new(&Key128::from_bytes([0x3C; 16]));
        for pattern in 0u8..=16 {
            let original: [u8; BLOCK_BYTES] =
                core::array::from_fn(|i| pattern.wrapping_mul(31).wrapping_add(i as u8));
            let mut block = original;
            cipher.encrypt_block(&mut block);
            assert_ne!(block, original, "encryption must not be identity");
            cipher.decrypt_block(&mut block);
            assert_eq!(block, original, "decrypt(encrypt(x)) != x");
        }
    }

    #[test]
    fn byte_interface_matches_word_interface() {
        let key = Key128::from_bytes([1u8; 16]);
        let c = Rc5::new(&key);
        let mut block = [0u8; 8];
        block[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        block[4..8].copy_from_slice(&0x0123_4567u32.to_le_bytes());
        let (wa, wb) = c.encrypt_words(0xDEAD_BEEF, 0x0123_4567);
        c.encrypt_block(&mut block);
        assert_eq!(u32::from_le_bytes(block[0..4].try_into().unwrap()), wa);
        assert_eq!(u32::from_le_bytes(block[4..8].try_into().unwrap()), wb);
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let c1 = Rc5::new(&Key128::from_bytes([1u8; 16]));
        let c2 = Rc5::new(&Key128::from_bytes([2u8; 16]));
        let mut b1 = [0u8; 8];
        let mut b2 = [0u8; 8];
        c1.encrypt_block(&mut b1);
        c2.encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }
}
