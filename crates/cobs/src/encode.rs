//! Consistent Overhead Byte Stuffing (COBS), Cheshire & Baker 1997.
//!
//! COBS re-encodes an arbitrary byte string so that it contains no zero
//! bytes, at a worst-case expansion of one byte per 254 (≈0.4%). uCOBS uses
//! the freed-up zero byte value as a record delimiter that can be recognised
//! anywhere in a TCP stream, which is what makes records self-delimiting and
//! recoverable from out-of-order stream fragments (paper §5).

/// The byte value COBS removes from the encoded output and uCOBS uses as the
/// record delimiter.
pub const MARKER: u8 = 0x00;

/// Maximum number of non-zero bytes covered by one COBS code byte.
const MAX_RUN: usize = 254;

/// Errors produced when decoding malformed COBS data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CobsError {
    /// The encoded data contained a zero byte, which is reserved for
    /// delimiters and never appears in well-formed COBS output.
    UnexpectedMarker,
    /// A code byte pointed past the end of the input.
    Truncated,
}

impl std::fmt::Display for CobsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CobsError::UnexpectedMarker => write!(f, "unexpected zero byte inside COBS data"),
            CobsError::Truncated => write!(f, "COBS data truncated"),
        }
    }
}

impl std::error::Error for CobsError {}

/// Worst-case encoded size for a payload of `len` bytes.
pub fn max_encoded_len(len: usize) -> usize {
    len + len / MAX_RUN + 1
}

/// Index of the first [`MARKER`] byte in `bytes`, if any.
///
/// Word-at-a-time (SWAR): each 8-byte word is tested for a zero byte with
/// the `(w - 0x01..01) & !w & 0x80..80` trick, whose lowest set bit marks
/// the first zero byte of a little-endian word exactly.
pub fn find_marker(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        let zeros = w.wrapping_sub(ONES) & !w & HIGHS;
        if zeros != 0 {
            return Some(base + zeros.trailing_zeros() as usize / 8);
        }
        base += 8;
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == MARKER).map(|i| base + i)
}

/// COBS-encode `input`. The output contains no zero bytes.
pub fn encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(input, &mut out);
    out
}

/// COBS-encode `input`, appending the encoding to `out`.
///
/// Works a run at a time: each zero-delimited run of at most 254 bytes
/// becomes its code byte followed by one bulk copy of the run.
pub(crate) fn encode_into(input: &[u8], out: &mut Vec<u8>) {
    out.reserve(max_encoded_len(input.len()));
    let mut rest = input;
    loop {
        let window = &rest[..rest.len().min(MAX_RUN)];
        match find_marker(window) {
            Some(run) => {
                // The zero ending the run is implied by the code byte.
                out.push(run as u8 + 1);
                out.extend_from_slice(&window[..run]);
                rest = &rest[run + 1..];
            }
            None if window.len() == MAX_RUN => {
                // A maximal run implies no zero after it.
                out.push(0xFF);
                out.extend_from_slice(window);
                rest = &rest[MAX_RUN..];
            }
            None => {
                out.push(window.len() as u8 + 1);
                out.extend_from_slice(window);
                return;
            }
        }
    }
}

/// Decode COBS-encoded data produced by [`encode`], a run at a time.
pub fn decode(input: &[u8]) -> Result<Vec<u8>, CobsError> {
    let mut out = Vec::with_capacity(input.len());
    let mut rest = input;
    while let Some((&code, tail)) = rest.split_first() {
        if code == MARKER {
            return Err(CobsError::UnexpectedMarker);
        }
        let run = tail.get(..code as usize - 1).ok_or(CobsError::Truncated)?;
        if find_marker(run).is_some() {
            return Err(CobsError::UnexpectedMarker);
        }
        out.extend_from_slice(run);
        rest = &tail[run.len()..];
        // A maximal code byte (0xFF) does not imply a following zero.
        if code != 0xFF && !rest.is_empty() {
            out.push(MARKER);
        }
    }
    Ok(out)
}

/// The bandwidth-overhead ratio of encoding `payload_len` bytes: encoded
/// length divided by original length.
pub fn overhead_ratio(payload: &[u8]) -> f64 {
    if payload.is_empty() {
        return 1.0;
    }
    encode(payload).len() as f64 / payload.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-serial encoder the run-at-a-time one replaced, kept as the
    /// oracle for its wire bytes.
    fn encode_byte_serial(input: &[u8]) -> Vec<u8> {
        let mut out = vec![0];
        let mut code_idx = 0;
        let mut code: u8 = 1;
        for &b in input {
            if b == MARKER {
                out[code_idx] = code;
                code_idx = out.len();
                out.push(0);
                code = 1;
            } else {
                out.push(b);
                code += 1;
                if code == 0xFF {
                    out[code_idx] = code;
                    code_idx = out.len();
                    out.push(0);
                    code = 1;
                }
            }
        }
        out[code_idx] = code;
        out
    }

    /// Random bytes whose zero density `mode` picks: no zeros, all zeros,
    /// or about one zero in `mode` bytes, so runs of every length up to and
    /// past 254 occur.
    fn bytes_with_zeros(len: usize, mode: u32, seed: u64) -> Vec<u8> {
        let zero_one_in = match mode % 4 {
            0 => 0,
            1 => 1,
            _ => mode,
        };
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (state >> 33) as u32;
                if zero_one_in != 0 && r.is_multiple_of(zero_one_in) {
                    0
                } else {
                    1 + (r >> 8) as u8 % 255
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encode_matches_byte_serial_oracle(
            len in 0usize..1600,
            mode in 0u32..600,
            seed in any::<u64>(),
        ) {
            let data = bytes_with_zeros(len, mode, seed);
            let encoded = encode(&data);
            prop_assert_eq!(&encoded, &encode_byte_serial(&data));
            prop_assert_eq!(decode(&encoded).unwrap(), data);
        }

        #[test]
        fn find_marker_matches_position(
            len in 0usize..100,
            mode in 0u32..64,
            seed in any::<u64>(),
            skip in 0usize..9,
        ) {
            let data = bytes_with_zeros(len, mode, seed);
            // Unaligned starts put the zero at every lane of a word.
            let data = &data[skip.min(data.len())..];
            prop_assert_eq!(find_marker(data), data.iter().position(|&b| b == MARKER));
        }
    }

    #[test]
    fn find_marker_sees_every_lane_and_the_tail() {
        for len in 0..=20 {
            for at in 0..len {
                let mut data = vec![0x80u8; len];
                data[at] = MARKER;
                if at + 1 < len {
                    data[at + 1] = MARKER;
                }
                assert_eq!(find_marker(&data), Some(at), "len={len} at={at}");
            }
            assert_eq!(find_marker(&vec![0xFFu8; len]), None);
            assert_eq!(find_marker(&vec![0x01u8; len]), None);
        }
    }

    /// Reference examples from the COBS paper / Wikipedia.
    #[test]
    fn known_vectors() {
        assert_eq!(encode(&[]), vec![0x01]);
        assert_eq!(encode(&[0x00]), vec![0x01, 0x01]);
        assert_eq!(encode(&[0x00, 0x00]), vec![0x01, 0x01, 0x01]);
        assert_eq!(
            encode(&[0x11, 0x22, 0x00, 0x33]),
            vec![0x03, 0x11, 0x22, 0x02, 0x33]
        );
        assert_eq!(
            encode(&[0x11, 0x22, 0x33, 0x44]),
            vec![0x05, 0x11, 0x22, 0x33, 0x44]
        );
        assert_eq!(
            encode(&[0x11, 0x00, 0x00, 0x00]),
            vec![0x02, 0x11, 0x01, 0x01, 0x01]
        );
    }

    #[test]
    fn encoded_output_never_contains_zero() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.push((i % 7) as u8); // plenty of zeros
        }
        let enc = encode(&data);
        assert!(enc.iter().all(|&b| b != MARKER));
    }

    #[test]
    fn roundtrip_various_sizes() {
        for len in [0usize, 1, 2, 253, 254, 255, 256, 508, 509, 1000, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let enc = encode(&data);
            let dec = decode(&enc).expect("valid encoding");
            assert_eq!(dec, data, "roundtrip failed for len={len}");
        }
    }

    #[test]
    fn roundtrip_all_zeros_and_no_zeros() {
        let zeros = vec![0u8; 1000];
        assert_eq!(decode(&encode(&zeros)).unwrap(), zeros);
        let nonzeros = vec![7u8; 1000];
        assert_eq!(decode(&encode(&nonzeros)).unwrap(), nonzeros);
    }

    #[test]
    fn worst_case_overhead_is_under_half_percent() {
        // Long zero-free payloads hit the 1-in-254 worst case.
        let data = vec![0xABu8; 100_000];
        let ratio = overhead_ratio(&data);
        assert!(ratio <= 1.004 + 1e-4, "ratio={ratio}");
        assert!(encode(&data).len() <= max_encoded_len(data.len()));
    }

    #[test]
    fn decode_rejects_embedded_zero() {
        assert_eq!(decode(&[0x02, 0x00]), Err(CobsError::UnexpectedMarker));
        assert_eq!(decode(&[0x00, 0x01]), Err(CobsError::UnexpectedMarker));
    }

    #[test]
    fn decode_rejects_truncation() {
        assert_eq!(decode(&[0x05, 0x11, 0x22]), Err(CobsError::Truncated));
        let full = encode(&[0x11u8; 300]);
        assert_eq!(decode(&full[..full.len() - 1]), Err(CobsError::Truncated));
    }

    #[test]
    fn empty_input_decodes_to_empty() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u8>::new());
        assert_eq!(decode(&[]).unwrap(), Vec::<u8>::new());
    }
}
