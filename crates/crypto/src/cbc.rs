//! AES-128 CBC mode with TLS-style padding.
//!
//! TLS 1.1 block ciphers use an **explicit** per-record IV transmitted in
//! front of the ciphertext. That single design detail is what makes records
//! independently decryptable and therefore what uTLS leverages for
//! out-of-order delivery (paper §6.1). TLS 1.0 and earlier derive each
//! record's IV from the previous record's last ciphertext block ("chained"
//! IVs), which makes records interdependent; that legacy mode is provided
//! too so the uTLS negotiation logic can detect and refuse it.

use crate::aes::{Aes128, BLOCK_SIZE};

/// Errors from CBC decryption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CbcError {
    /// Ciphertext length is not a positive multiple of the block size.
    BadLength,
    /// The TLS-style padding was inconsistent.
    BadPadding,
}

impl std::fmt::Display for CbcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CbcError::BadLength => write!(f, "ciphertext length not a multiple of block size"),
            CbcError::BadPadding => write!(f, "invalid padding"),
        }
    }
}

impl std::error::Error for CbcError {}

/// Apply TLS (RFC 5246 §6.2.3.2) padding to `data[start..]`: pad with `n`
/// bytes each of value `n - 1`, so that the padded tail is a multiple of the
/// block size and at least one byte of padding is always added.
pub fn pad(data: &mut Vec<u8>, start: usize) {
    let pad_len = BLOCK_SIZE - ((data.len() - start) % BLOCK_SIZE);
    let pad_byte = (pad_len - 1) as u8;
    data.extend(std::iter::repeat_n(pad_byte, pad_len));
}

/// Remove and validate TLS padding.
pub fn unpad(data: &mut Vec<u8>) -> Result<(), CbcError> {
    let Some(&last) = data.last() else {
        return Err(CbcError::BadPadding);
    };
    let pad_len = last as usize + 1;
    if pad_len > data.len() {
        return Err(CbcError::BadPadding);
    }
    let start = data.len() - pad_len;
    if data[start..].iter().any(|&b| b != last) {
        return Err(CbcError::BadPadding);
    }
    data.truncate(start);
    Ok(())
}

/// CBC-encrypt whole blocks in place under the given IV ([`pad`] first).
///
/// # Panics
/// If `data` is not a multiple of the block size.
pub fn encrypt(aes: &Aes128, iv: &[u8; BLOCK_SIZE], data: &mut [u8]) {
    assert!(
        data.len().is_multiple_of(BLOCK_SIZE),
        "CBC input must be padded to whole blocks"
    );
    let mut prev = *iv;
    for chunk in data.chunks_exact_mut(BLOCK_SIZE) {
        let block: &mut [u8; BLOCK_SIZE] = chunk.try_into().expect("exact chunk");
        for (b, p) in block.iter_mut().zip(prev) {
            *b ^= p;
        }
        aes.encrypt_block(block);
        prev = *block;
    }
}

/// CBC-decrypt whole blocks in place ([`unpad`] after).
pub fn decrypt(aes: &Aes128, iv: &[u8; BLOCK_SIZE], data: &mut [u8]) -> Result<(), CbcError> {
    if data.is_empty() || !data.len().is_multiple_of(BLOCK_SIZE) {
        return Err(CbcError::BadLength);
    }
    let mut prev = *iv;
    for chunk in data.chunks_exact_mut(BLOCK_SIZE) {
        let block: &mut [u8; BLOCK_SIZE] = chunk.try_into().expect("exact chunk");
        let cipher_block = *block;
        aes.decrypt_block(block);
        for (b, p) in block.iter_mut().zip(prev) {
            *b ^= p;
        }
        prev = cipher_block;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &[u8; 16] = b"minion-tls-key-0";
    const IV: &[u8; 16] = b"explicit-iv-0000";

    /// Pad and encrypt, as the record layer does.
    fn seal(key: &[u8; 16], iv: &[u8; 16], plaintext: &[u8]) -> Vec<u8> {
        let mut data = plaintext.to_vec();
        pad(&mut data, 0);
        encrypt(&Aes128::new(key), iv, &mut data);
        data
    }

    /// Decrypt and unpad.
    fn open(key: &[u8; 16], iv: &[u8; 16], ciphertext: &[u8]) -> Result<Vec<u8>, CbcError> {
        let mut data = ciphertext.to_vec();
        decrypt(&Aes128::new(key), iv, &mut data)?;
        unpad(&mut data)?;
        Ok(data)
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn roundtrip_various_lengths() {
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 1000, 1447] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            let ct = seal(KEY, IV, &plaintext);
            assert_eq!(ct.len() % BLOCK_SIZE, 0);
            assert!(ct.len() > plaintext.len(), "padding always added");
            let pt = open(KEY, IV, &ct).unwrap();
            assert_eq!(pt, plaintext, "len={len}");
        }
    }

    #[test]
    fn nist_sp800_38a_cbc_vector() {
        // SP 800-38A F.2.1 CBC-AES128.Encrypt and F.2.2 CBC-AES128.Decrypt:
        // all four blocks, unpadded, in both directions.
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let iv: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let plaintext = unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let ciphertext = unhex(concat!(
            "7649abac8119b246cee98e9b12e9197d",
            "5086cb9b507219ee95db113a917678b2",
            "73bed6b8e3c1743b7116e69e22229516",
            "3ff1caa1681fac09120eca307586e1a7",
        ));
        let aes = Aes128::new(&key);
        let mut data = plaintext.clone();
        encrypt(&aes, &iv, &mut data);
        assert_eq!(data, ciphertext);
        decrypt(&aes, &iv, &mut data).unwrap();
        assert_eq!(data, plaintext);
    }

    #[test]
    fn different_ivs_give_different_ciphertext() {
        let a = seal(KEY, b"iv-aaaaaaaaaaaa1", b"identical plaintext");
        let b = seal(KEY, b"iv-aaaaaaaaaaaa2", b"identical plaintext");
        assert_ne!(a, b);
    }

    #[test]
    fn decrypt_with_wrong_iv_fails_or_garbles() {
        let ct = seal(KEY, IV, b"some secret datagram");
        match open(KEY, b"wrong-iv-0000000", &ct) {
            Ok(pt) => assert_ne!(pt, b"some secret datagram"),
            Err(e) => assert_eq!(e, CbcError::BadPadding),
        }
    }

    #[test]
    fn decrypt_rejects_bad_lengths() {
        let aes = Aes128::new(KEY);
        assert_eq!(decrypt(&aes, IV, &mut []), Err(CbcError::BadLength));
        assert_eq!(decrypt(&aes, IV, &mut [0u8; 17]), Err(CbcError::BadLength));
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn encrypt_rejects_unpadded_input() {
        encrypt(&Aes128::new(KEY), IV, &mut [0u8; 17]);
    }

    #[test]
    fn tampered_ciphertext_usually_fails_padding() {
        let mut ct = seal(KEY, IV, &[7u8; 64]);
        let last = ct.len() - 1;
        ct[last] ^= 0xFF;
        // Either padding fails or the plaintext is corrupted; both are fine
        // here because the record MAC is the real integrity check.
        if let Ok(pt) = open(KEY, IV, &ct) {
            assert_ne!(pt, vec![7u8; 64]);
        }
    }

    #[test]
    fn padding_is_tls_style() {
        let mut v = vec![1u8, 2, 3];
        pad(&mut v, 0);
        assert_eq!(v.len(), 16);
        assert!(v[3..].iter().all(|&b| b == 12));
        unpad(&mut v).unwrap();
        assert_eq!(v, vec![1, 2, 3]);

        // Exact multiple gets a full block of padding.
        let mut v = vec![0u8; 16];
        pad(&mut v, 0);
        assert_eq!(v.len(), 32);
        assert!(v[16..].iter().all(|&b| b == 15));

        // Only the bytes from `start` on count towards the block multiple.
        let mut v = vec![9u8; 5 + 16];
        pad(&mut v, 5);
        assert_eq!(v.len(), 5 + 32);
        assert!(v[5 + 16..].iter().all(|&b| b == 15));
    }

    #[test]
    fn unpad_rejects_inconsistent_padding() {
        let mut v = vec![1u8, 2, 3, 4, 2, 2];
        assert_eq!(unpad(&mut v), Err(CbcError::BadPadding));
        let mut v = vec![200u8];
        assert_eq!(unpad(&mut v), Err(CbcError::BadPadding));
        let mut empty: Vec<u8> = vec![];
        assert_eq!(unpad(&mut empty), Err(CbcError::BadPadding));
    }
}
