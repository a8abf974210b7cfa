//! The TLS record layer: header format, MAC-then-encrypt record protection,
//! and the distinction between chained-IV (TLS 1.0) and explicit-IV
//! (TLS 1.1) block ciphers that uTLS's out-of-order delivery hinges on
//! (paper §6.1).

use minion_crypto::cbc;
use minion_crypto::hmac::{constant_time_eq, HmacSha256};
use minion_crypto::Aes128;

/// TLS content type for handshake records.
pub const CONTENT_HANDSHAKE: u8 = 22;
/// TLS content type for application-data records.
pub const CONTENT_APPLICATION_DATA: u8 = 23;
/// Protocol version bytes for "TLS 1.1" (3, 2).
pub const VERSION_TLS11: (u8, u8) = (3, 2);
/// Protocol version bytes for "TLS 1.0" (3, 1).
pub const VERSION_TLS10: (u8, u8) = (3, 1);

/// Length of the record header on the wire.
pub const RECORD_HEADER_LEN: usize = 5;
/// Maximum record payload length accepted (as in TLS: 2^14 plus expansion).
pub const MAX_RECORD_LEN: usize = (1 << 14) + 2048;
/// Length of the record MAC (HMAC-SHA256).
pub const MAC_LEN: usize = 32;
/// AES block / explicit IV length.
pub const IV_LEN: usize = 16;

/// A parsed 5-byte record header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordHeader {
    /// Content type (handshake, application data, ...).
    pub content_type: u8,
    /// Protocol version (major, minor).
    pub version: (u8, u8),
    /// Length of the record body that follows the header.
    pub length: usize,
}

impl RecordHeader {
    /// Serialize to the 5-byte wire form.
    pub fn encode(&self) -> [u8; RECORD_HEADER_LEN] {
        let len = self.length as u16;
        [
            self.content_type,
            self.version.0,
            self.version.1,
            (len >> 8) as u8,
            (len & 0xFF) as u8,
        ]
    }

    /// Parse a 5-byte header. This performs **no validation** beyond length —
    /// any 5 bytes parse — because that is exactly the situation the uTLS
    /// receiver is in when scanning a fragment: it must guess and then verify
    /// with the MAC.
    pub fn decode(buf: &[u8]) -> Option<RecordHeader> {
        if buf.len() < RECORD_HEADER_LEN {
            return None;
        }
        Some(RecordHeader {
            content_type: buf[0],
            version: (buf[1], buf[2]),
            length: ((buf[3] as usize) << 8) | buf[4] as usize,
        })
    }

    /// Whether this header is *plausible* as a record header for the given
    /// version: known content type, matching version, and a sane length.
    /// Used by the uTLS scanner as the cheap pre-filter before the expensive
    /// MAC confirmation.
    pub fn is_plausible(&self, version: (u8, u8)) -> bool {
        (self.content_type == CONTENT_APPLICATION_DATA || self.content_type == CONTENT_HANDSHAKE)
            && self.version == version
            && self.length > 0
            && self.length <= MAX_RECORD_LEN
    }
}

/// The ciphersuites supported by the record layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CipherSuite {
    /// No encryption and no MAC (used only during the initial handshake).
    /// uTLS disables out-of-order delivery under this suite (§6.1).
    Null,
    /// AES-128-CBC with HMAC-SHA256, explicit per-record IV (TLS 1.1 style).
    /// Records are independently decryptable: this is the suite uTLS needs.
    Aes128CbcExplicitIv,
    /// AES-128-CBC with HMAC-SHA256, chained IV (TLS 1.0 style). Records
    /// depend on their predecessor's ciphertext and cannot be decrypted out
    /// of order.
    Aes128CbcChainedIv,
}

impl CipherSuite {
    /// Whether this suite allows records to be decrypted independently.
    pub fn supports_out_of_order(&self) -> bool {
        matches!(self, CipherSuite::Aes128CbcExplicitIv)
    }
}

/// Keys and state for protecting records in one direction.
///
/// The AES key schedule and both keyed HMAC contexts are built once in
/// [`RecordProtection::new`]; each record clones an HMAC context instead of
/// re-keying it.
#[derive(Clone)]
pub struct RecordProtection {
    suite: CipherSuite,
    version: (u8, u8),
    aes: Aes128,
    /// Record MAC context keyed with the MAC key.
    mac: HmacSha256,
    /// Explicit-IV derivation context keyed with the encryption key.
    iv_mac: HmacSha256,
    /// Chained-IV state (TLS 1.0 mode): last ciphertext block sent/received.
    chain_iv: [u8; IV_LEN],
}

impl std::fmt::Debug for RecordProtection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Keys, key-derived state and the chained IV are never printed.
        f.debug_struct("RecordProtection")
            .field("suite", &self.suite)
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

/// Error returned when a record fails authentication or decryption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The MAC did not verify (or padding/structure was invalid).
    BadRecord,
    /// The body is too short to contain IV + MAC.
    TooShort,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::BadRecord => write!(f, "record failed authentication"),
            RecordError::TooShort => write!(f, "record body too short"),
        }
    }
}

impl std::error::Error for RecordError {}

impl RecordProtection {
    /// Create record protection for one direction.
    pub fn new(
        suite: CipherSuite,
        enc_key: [u8; 16],
        mac_key: [u8; 32],
        version: (u8, u8),
    ) -> Self {
        RecordProtection {
            suite,
            version,
            aes: Aes128::new(&enc_key),
            mac: HmacSha256::new(&mac_key),
            iv_mac: HmacSha256::new(&enc_key),
            chain_iv: [0x42; IV_LEN],
        }
    }

    /// The ciphersuite in use.
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// The protocol version stamped into record headers.
    pub fn version(&self) -> (u8, u8) {
        self.version
    }

    /// Compute the record MAC over the TLS pseudo-header and plaintext.
    ///
    /// The pseudo-header includes the 64-bit per-record sequence number — the
    /// value the uTLS receiver must *predict* for out-of-order records.
    fn compute_mac(&self, record_number: u64, content_type: u8, plaintext: &[u8]) -> [u8; MAC_LEN] {
        let mut mac = self.mac.clone();
        mac.update(&record_number.to_be_bytes());
        mac.update(&[content_type, self.version.0, self.version.1]);
        mac.update(&(plaintext.len() as u16).to_be_bytes());
        mac.update(plaintext);
        mac.finalize()
    }

    /// A deterministic explicit IV derived from the record number and key
    /// (a CSPRNG in real TLS; determinism keeps simulations reproducible and
    /// does not weaken the properties uTLS relies on).
    fn explicit_iv(&self, record_number: u64) -> [u8; IV_LEN] {
        let mut mac = self.iv_mac.clone();
        mac.update(b"explicit iv");
        mac.update(&record_number.to_be_bytes());
        let digest = mac.finalize();
        let mut iv = [0u8; IV_LEN];
        iv.copy_from_slice(&digest[..IV_LEN]);
        iv
    }

    /// Protect one record: returns the full wire bytes (header + body).
    pub fn seal(&mut self, record_number: u64, content_type: u8, plaintext: &[u8]) -> Vec<u8> {
        // Header, explicit IV, plaintext, MAC and at most one block of
        // padding; the header goes in last, once the body length is known.
        let mut out =
            Vec::with_capacity(RECORD_HEADER_LEN + IV_LEN + plaintext.len() + MAC_LEN + IV_LEN);
        out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
        let iv = match self.suite {
            CipherSuite::Null => None,
            CipherSuite::Aes128CbcExplicitIv => {
                let iv = self.explicit_iv(record_number);
                out.extend_from_slice(&iv);
                Some(iv)
            }
            CipherSuite::Aes128CbcChainedIv => Some(self.chain_iv),
        };
        let start = out.len();
        out.extend_from_slice(plaintext);
        if let Some(iv) = iv {
            let mac = self.compute_mac(record_number, content_type, plaintext);
            out.extend_from_slice(&mac);
            cbc::pad(&mut out, start);
            cbc::encrypt(&self.aes, &iv, &mut out[start..]);
            if self.suite == CipherSuite::Aes128CbcChainedIv {
                // Next record chains off this record's final ciphertext block.
                self.chain_iv.copy_from_slice(&out[out.len() - IV_LEN..]);
            }
        }
        let header = RecordHeader {
            content_type,
            version: self.version,
            length: out.len() - RECORD_HEADER_LEN,
        };
        out[..RECORD_HEADER_LEN].copy_from_slice(&header.encode());
        out
    }

    /// Verify and decrypt one record body given its header and the record
    /// number to authenticate against. This is used both by the in-order
    /// receiver (which knows the record number) and by the uTLS receiver
    /// (which guesses it and treats failure as "wrong guess").
    pub fn open(
        &mut self,
        record_number: u64,
        header: &RecordHeader,
        body: &[u8],
    ) -> Result<Vec<u8>, RecordError> {
        if body.len() != header.length {
            return Err(RecordError::TooShort);
        }
        let (iv, ciphertext) = match self.suite {
            CipherSuite::Null => return Ok(body.to_vec()),
            _ if body.len() < IV_LEN + MAC_LEN => return Err(RecordError::TooShort),
            CipherSuite::Aes128CbcExplicitIv => {
                let (iv, ciphertext) = body.split_at(IV_LEN);
                (iv.try_into().expect("IV_LEN bytes"), ciphertext)
            }
            CipherSuite::Aes128CbcChainedIv => (self.chain_iv, body),
        };
        let mut plaintext = ciphertext.to_vec();
        cbc::decrypt(&self.aes, &iv, &mut plaintext).map_err(|_| RecordError::BadRecord)?;
        cbc::unpad(&mut plaintext).map_err(|_| RecordError::BadRecord)?;
        let Some(mac_start) = plaintext.len().checked_sub(MAC_LEN) else {
            return Err(RecordError::BadRecord);
        };
        let expected =
            self.compute_mac(record_number, header.content_type, &plaintext[..mac_start]);
        if !constant_time_eq(&plaintext[mac_start..], &expected) {
            return Err(RecordError::BadRecord);
        }
        plaintext.truncate(mac_start);
        if self.suite == CipherSuite::Aes128CbcChainedIv {
            self.chain_iv.copy_from_slice(&body[body.len() - IV_LEN..]);
        }
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protection(suite: CipherSuite) -> (RecordProtection, RecordProtection) {
        let enc = *b"0123456789abcdef";
        let mac = [7u8; 32];
        (
            RecordProtection::new(suite, enc, mac, VERSION_TLS11),
            RecordProtection::new(suite, enc, mac, VERSION_TLS11),
        )
    }

    fn split(wire: &[u8]) -> (RecordHeader, &[u8]) {
        let h = RecordHeader::decode(wire).unwrap();
        (h, &wire[RECORD_HEADER_LEN..])
    }

    #[test]
    fn header_roundtrip_and_plausibility() {
        let h = RecordHeader {
            content_type: CONTENT_APPLICATION_DATA,
            version: VERSION_TLS11,
            length: 1234,
        };
        assert_eq!(RecordHeader::decode(&h.encode()), Some(h));
        assert!(h.is_plausible(VERSION_TLS11));
        assert!(!h.is_plausible(VERSION_TLS10));
        let bad = RecordHeader {
            content_type: 99,
            ..h
        };
        assert!(!bad.is_plausible(VERSION_TLS11));
        let too_long = RecordHeader {
            length: MAX_RECORD_LEN + 1,
            ..h
        };
        assert!(!too_long.is_plausible(VERSION_TLS11));
        assert!(RecordHeader::decode(&[1, 2, 3]).is_none());
    }

    #[test]
    fn explicit_iv_seal_open_roundtrip() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcExplicitIv);
        for n in 0..10u64 {
            let msg = format!("record number {n}");
            let wire = tx.seal(n, CONTENT_APPLICATION_DATA, msg.as_bytes());
            let (h, body) = split(&wire);
            assert_eq!(h.length, body.len());
            let plain = rx.open(n, &h, body).unwrap();
            assert_eq!(plain, msg.as_bytes());
        }
    }

    #[test]
    fn explicit_iv_records_decrypt_out_of_order() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcExplicitIv);
        let wires: Vec<Vec<u8>> = (0..5u64)
            .map(|n| tx.seal(n, CONTENT_APPLICATION_DATA, format!("msg{n}").as_bytes()))
            .collect();
        // Open in reverse order: must still verify.
        for n in (0..5u64).rev() {
            let (h, body) = split(&wires[n as usize]);
            assert_eq!(rx.open(n, &h, body).unwrap(), format!("msg{n}").as_bytes());
        }
    }

    #[test]
    fn chained_iv_records_fail_out_of_order() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcChainedIv);
        let w0 = tx.seal(0, CONTENT_APPLICATION_DATA, b"first record");
        let w1 = tx.seal(1, CONTENT_APPLICATION_DATA, b"second record");
        // Skipping record 0 leaves the receiver's chain IV wrong for record 1.
        let (h1, b1) = split(&w1);
        assert!(rx.open(1, &h1, b1).is_err());
        // In order, both open fine.
        let (mut _tx2, mut rx2) = protection(CipherSuite::Aes128CbcChainedIv);
        let (h0, b0) = split(&w0);
        assert_eq!(rx2.open(0, &h0, b0).unwrap(), b"first record");
        let (h1, b1) = split(&w1);
        assert_eq!(rx2.open(1, &h1, b1).unwrap(), b"second record");
    }

    #[test]
    fn wrong_record_number_fails_mac() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcExplicitIv);
        let wire = tx.seal(5, CONTENT_APPLICATION_DATA, b"tied to number five");
        let (h, body) = split(&wire);
        assert_eq!(rx.open(4, &h, body), Err(RecordError::BadRecord));
        assert_eq!(rx.open(6, &h, body), Err(RecordError::BadRecord));
        assert!(rx.open(5, &h, body).is_ok());
    }

    #[test]
    fn tampered_ciphertext_fails_mac() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcExplicitIv);
        let mut wire = tx.seal(0, CONTENT_APPLICATION_DATA, b"integrity protected");
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let (h, body) = split(&wire);
        assert_eq!(rx.open(0, &h, body), Err(RecordError::BadRecord));
    }

    #[test]
    fn wrong_content_type_fails_mac() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcExplicitIv);
        let wire = tx.seal(0, CONTENT_APPLICATION_DATA, b"typed");
        let (mut h, body) = split(&wire);
        h.content_type = CONTENT_HANDSHAKE;
        assert_eq!(rx.open(0, &h, body), Err(RecordError::BadRecord));
    }

    #[test]
    fn null_suite_passes_plaintext() {
        let (mut tx, mut rx) = protection(CipherSuite::Null);
        let wire = tx.seal(0, CONTENT_HANDSHAKE, b"hello unprotected");
        let (h, body) = split(&wire);
        assert_eq!(rx.open(0, &h, body).unwrap(), b"hello unprotected");
        assert!(!CipherSuite::Null.supports_out_of_order());
        assert!(CipherSuite::Aes128CbcExplicitIv.supports_out_of_order());
        assert!(!CipherSuite::Aes128CbcChainedIv.supports_out_of_order());
    }

    /// Pins the wire format: 8 record numbers × 7 plaintext lengths sealed
    /// under both CBC suites with fixed keys must hash to a digest captured
    /// from the original byte-oriented AES and per-record keyed HMAC, and
    /// every record must open back to its plaintext.
    #[test]
    fn wire_bytes_match_golden_digest() {
        let enc: [u8; 16] = std::array::from_fn(|i| i as u8);
        let mac: [u8; 32] = std::array::from_fn(|i| 0x80 + i as u8);
        let lengths = [0usize, 1, 15, 16, 17, 1200, 1400];
        let mut all = Vec::new();
        for suite in [
            CipherSuite::Aes128CbcExplicitIv,
            CipherSuite::Aes128CbcChainedIv,
        ] {
            let mut tx = RecordProtection::new(suite, enc, mac, VERSION_TLS11);
            let mut rx = RecordProtection::new(suite, enc, mac, VERSION_TLS11);
            for n in 0..8u64 {
                for &len in &lengths {
                    let plain: Vec<u8> = (0..len).map(|i| (i * 7 + n as usize) as u8).collect();
                    let wire = tx.seal(n, CONTENT_APPLICATION_DATA, &plain);
                    let (h, body) = split(&wire);
                    assert_eq!(rx.open(n, &h, body).unwrap(), plain, "{suite:?} n={n}");
                    all.extend_from_slice(&wire);
                }
            }
        }
        let hex: String = minion_crypto::sha256(&all)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "5092fb8ab441a6f459dfba3e7459063daca2768fcd071775cc59d37cba6e31cd"
        );
    }

    #[test]
    fn debug_redacts_key_material() {
        let enc = [0xe5u8; 16];
        let mac = [0x3cu8; 32];
        let prot = RecordProtection::new(CipherSuite::Aes128CbcExplicitIv, enc, mac, VERSION_TLS11);
        let shown = format!("{prot:?}");
        assert_eq!(
            shown,
            "RecordProtection { suite: Aes128CbcExplicitIv, version: (3, 2), .. }"
        );
        for rendered in ["229", "e5", "60", "3c"] {
            assert!(!format!("{prot:#?}").contains(rendered), "{rendered}");
        }
    }

    #[test]
    fn record_expansion_is_bounded() {
        let (mut tx, _) = protection(CipherSuite::Aes128CbcExplicitIv);
        let payload = vec![0u8; 1400];
        let wire = tx.seal(0, CONTENT_APPLICATION_DATA, &payload);
        // Header + IV + padding + MAC: well under 10% for MTU-sized records.
        let overhead = wire.len() - payload.len();
        assert!(overhead <= RECORD_HEADER_LEN + IV_LEN + MAC_LEN + 16);
    }
}
