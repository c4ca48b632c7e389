//! # wsn-crypto
//!
//! From-scratch symmetric-crypto toolkit for the reproduction of
//! *"A Localized, Distributed Protocol for Secure Information Exchange in
//! Sensor Networks"* (Dimitriou & Krontiris, IPPS 2005).
//!
//! The paper treats its cryptographic operations — `E_K(M)`, `MAC_K(M)` and a
//! pseudo-random function `F` — as black boxes with standard security
//! properties. Sensor-network software of that era (TinySec, SPINS) used
//! small software block ciphers (RC5, Skipjack) with CBC-MAC; this crate
//! answers the black boxes with TinySec's pairing:
//!
//! * **Block cipher**: [`rc5::Rc5`] (RC5-32/12/16, the TinySec default).
//! * **Hashing / MACs**: [`sha256::Sha256`], [`hmac::HmacSha256`], and a
//!   length-prepended [`cbcmac::CbcMac`] over RC5.
//! * **Encryption**: [`ctr::Ctr`] counter mode over RC5 (the paper's Step 1
//!   uses a shared counter for semantic security), composed with CBC-MAC
//!   into encrypt-then-MAC by [`authenc::AuthEnc`].
//! * **Key derivation**: [`prf::Prf`] implements the paper's `F`, used for
//!   `K_encr = F(K, 0)`, `K_mac = F(K, 1)`, cluster keys `Kc_i = F(KMC, i)`,
//!   and hash-refresh `Kc <- F(Kc)`. Hot paths hold a [`prf::PrfKey`] /
//!   [`hmac::HmacKey`], which precompute the HMAC key schedule once per key.
//! * **One-way key chains**: [`keychain`] implements the revocation chain of
//!   Section IV-D (`K_{l-1} = F(K_l)`).
//! * **Deterministic randomness**: [`drbg::HmacDrbg`] so simulations are
//!   reproducible from a single seed.
//!
//! Everything is implemented in safe Rust with no external dependencies and
//! validated against published test vectors (Rivest's RC5 vectors, FIPS-180
//! and RFC 4231).
//!
//! ## Quick example
//!
//! ```
//! use wsn_crypto::{Key128, prf::Prf, authenc::AuthEnc};
//!
//! let node_key = Key128::from_bytes([7u8; 16]);
//! // Derive independent encryption and MAC keys like the paper's Step 1.
//! let k_encr = Prf::derive(&node_key, &[0]);
//! let k_mac = Prf::derive(&node_key, &[1]);
//! let ae = AuthEnc::new(k_encr, k_mac);
//! let sealed = ae.seal(42, b"reading: 21.5C");
//! let opened = ae.open(42, &sealed).expect("authentic");
//! assert_eq!(opened, b"reading: 21.5C");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authenc;
pub mod cbcmac;
pub mod ct;
pub mod ctr;
pub mod drbg;
pub mod hmac;
pub mod keychain;
pub mod prf;
pub mod rc5;
pub mod sha256;

mod key;

pub use key::{Key128, KEY_BYTES};

/// Errors produced by authenticated operations in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// A message authentication tag failed verification.
    BadTag,
    /// Input was too short to contain the expected structure.
    Truncated,
    /// A one-way key-chain commitment did not verify against the stored one.
    BadCommitment,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::BadTag => write!(f, "authentication tag mismatch"),
            CryptoError::Truncated => write!(f, "input truncated"),
            CryptoError::BadCommitment => write!(f, "key-chain commitment mismatch"),
        }
    }
}

impl std::error::Error for CryptoError {}
