//! # minion-crypto
//!
//! From-scratch cryptographic primitives for the Minion reproduction's TLS
//! record layer (`minion-tls`): SHA-256, HMAC-SHA256, AES-128, CBC mode with
//! TLS-style padding, and the TLS PRF / key schedule.
//!
//! The paper's uTLS builds on OpenSSL; this reproduction avoids external
//! crypto dependencies (only the allowed offline crates are available) and
//! implements the primitives directly, validated against NIST / RFC test
//! vectors. The primitives are the record layer's per-byte cost, so they
//! use the classic software designs: AES-128 is a 32-bit T-table cipher
//! (one 1 KiB table per direction, built at compile time) with both key
//! schedules expanded once per key, CBC runs in place over the caller's
//! buffer, and an [`HmacSha256`] context absorbs both key pads once so a
//! keyed context can be cloned per message. The CPU-cost experiments
//! (Figure 6) report *relative* costs (uTLS vs TLS on the same
//! primitives), which is the quantity the paper reports too.
//!
//! **Do not reuse this crate for production cryptography** — it has no
//! side-channel hardening: the AES table lookups are indexed by secret
//! bytes and leak through cache timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod cbc;
pub mod hmac;
pub mod prf;
pub mod sha256;

pub use aes::Aes128;
pub use cbc::CbcError;
pub use hmac::{constant_time_eq, hmac_sha256, HmacSha256};
pub use prf::{master_secret, prf, KeyBlock};
pub use sha256::{sha256, Sha256};
