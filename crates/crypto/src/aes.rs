//! AES-128 block cipher (FIPS 197), 32-bit T-table implementation.
//!
//! TLS 1.1 block ciphersuites (the ones uTLS depends on for out-of-order
//! decryption, because they use explicit per-record IVs) are built on AES in
//! CBC mode, so the block cipher is most of the record layer's per-byte
//! cost.
//!
//! A full round folds SubBytes, ShiftRows and MixColumns into four lookups
//! per output column: one 256-entry `u32` table per direction ([`TE`],
//! [`TD`], 1 KiB each), built at compile time from the S-boxes, with byte
//! rotations of each entry standing in for the other three columns' tables.
//! Decryption runs the equivalent inverse cipher (FIPS 197 §5.3.5), whose
//! round keys [`Aes128::new`] expands once next to the encryption keys.
//!
//! Like the S-box lookups of a byte-oriented AES, the table lookups are
//! indexed by secret state bytes: nothing here is hardened against
//! cache-timing side channels.

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_SIZE: usize = 16;
const ROUNDS: usize = 10;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7, 0xfb,
    0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb,
    0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25,
    0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92,
    0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06,
    0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b,
    0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e,
    0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f,
    0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef,
    0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c, 0x7d,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Multiplication in GF(2^8) modulo the AES polynomial.
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut result = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            result ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    result
}

/// `table[x]` is the big-endian column `sbox[x] · coef`: one S-box output's
/// contribution to a (Inv)MixColumns output column.
const fn t_table(sbox: &[u8; 256], coef: [u8; 4]) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = sbox[i];
        table[i] = u32::from_be_bytes([
            gmul(s, coef[0]),
            gmul(s, coef[1]),
            gmul(s, coef[2]),
            gmul(s, coef[3]),
        ]);
        i += 1;
    }
    table
}

/// Encryption round table: SubBytes then MixColumns column `[2, 1, 1, 3]`.
static TE: [u32; 256] = t_table(&SBOX, [2, 1, 1, 3]);
/// Decryption round table: InvSubBytes then InvMixColumns column
/// `[14, 9, 13, 11]`.
static TD: [u32; 256] = t_table(&INV_SBOX, [14, 9, 13, 11]);

/// One output column of a full round. `a`..`d` are the state columns whose
/// row-0..row-3 bytes (Inv)ShiftRows moves into this column; a rotation of
/// the row-0 table entry serves rows 1 to 3.
#[inline(always)]
fn round_column(table: &[u32; 256], a: u32, b: u32, c: u32, d: u32, key: u32) -> u32 {
    table[(a >> 24) as usize]
        ^ table[(b >> 16) as usize & 0xff].rotate_right(8)
        ^ table[(c >> 8) as usize & 0xff].rotate_right(16)
        ^ table[d as usize & 0xff].rotate_right(24)
        ^ key
}

/// One output column of the final round, which has no (Inv)MixColumns.
#[inline(always)]
fn final_column(sbox: &[u8; 256], a: u32, b: u32, c: u32, d: u32, key: u32) -> u32 {
    u32::from_be_bytes([
        sbox[(a >> 24) as usize],
        sbox[(b >> 16) as usize & 0xff],
        sbox[(c >> 8) as usize & 0xff],
        sbox[d as usize & 0xff],
    ]) ^ key
}

fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// InvMixColumns of one column: `TD[SBOX[x]]` is `x · [14, 9, 13, 11]`.
fn inv_mix_column(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes().map(|x| TD[SBOX[x as usize] as usize]);
    a ^ b.rotate_right(8) ^ c.rotate_right(16) ^ d.rotate_right(24)
}

/// Load a block as four big-endian column words XORed with a round key.
fn load(block: &[u8; BLOCK_SIZE], key: &[u32; 4]) -> [u32; 4] {
    std::array::from_fn(|c| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ]) ^ key[c]
    })
}

fn store(block: &mut [u8; BLOCK_SIZE], s: [u32; 4]) {
    for (chunk, word) in block.chunks_exact_mut(4).zip(s) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
}

/// An expanded AES-128 key: encryption round keys and the equivalent
/// inverse cipher's decryption round keys, one column word per entry.
#[derive(Clone)]
pub struct Aes128 {
    enc: [[u32; 4]; ROUNDS + 1],
    /// In the order decryption applies them: `enc` reversed, with
    /// InvMixColumns applied to the nine middle round keys.
    dec: [[u32; 4]; ROUNDS + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Round keys are key material: never print them.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expand a 16-byte key.
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        let mut w = [0u32; 4 * (ROUNDS + 1)];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((RCON[i / 4 - 1] as u32) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let enc: [[u32; 4]; ROUNDS + 1] = std::array::from_fn(|r| {
            let mut rk = [0u32; 4];
            rk.copy_from_slice(&w[4 * r..4 * r + 4]);
            rk
        });
        let dec = std::array::from_fn(|r| {
            let rk = enc[ROUNDS - r];
            if r == 0 || r == ROUNDS {
                rk
            } else {
                rk.map(inv_mix_column)
            }
        });
        Aes128 { enc, dec }
    }

    /// Encrypt a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        let mut s = load(block, &self.enc[0]);
        for k in &self.enc[1..ROUNDS] {
            s = [
                round_column(&TE, s[0], s[1], s[2], s[3], k[0]),
                round_column(&TE, s[1], s[2], s[3], s[0], k[1]),
                round_column(&TE, s[2], s[3], s[0], s[1], k[2]),
                round_column(&TE, s[3], s[0], s[1], s[2], k[3]),
            ];
        }
        let k = &self.enc[ROUNDS];
        let out = [
            final_column(&SBOX, s[0], s[1], s[2], s[3], k[0]),
            final_column(&SBOX, s[1], s[2], s[3], s[0], k[1]),
            final_column(&SBOX, s[2], s[3], s[0], s[1], k[2]),
            final_column(&SBOX, s[3], s[0], s[1], s[2], k[3]),
        ];
        store(block, out);
    }

    /// Decrypt a single 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        let mut s = load(block, &self.dec[0]);
        for k in &self.dec[1..ROUNDS] {
            s = [
                round_column(&TD, s[0], s[3], s[2], s[1], k[0]),
                round_column(&TD, s[1], s[0], s[3], s[2], k[1]),
                round_column(&TD, s[2], s[1], s[0], s[3], k[2]),
                round_column(&TD, s[3], s[2], s[1], s[0], k[3]),
            ];
        }
        let k = &self.dec[ROUNDS];
        let out = [
            final_column(&INV_SBOX, s[0], s[3], s[2], s[1], k[0]),
            final_column(&INV_SBOX, s[1], s[0], s[3], s[2], k[1]),
            final_column(&INV_SBOX, s[2], s[1], s[0], s[3], k[2]),
            final_column(&INV_SBOX, s[3], s[2], s[1], s[0], k[3]),
        ];
        store(block, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-oriented FIPS 197 cipher (byte-serial SubBytes/ShiftRows,
    /// `gmul`-based MixColumns and the straightforward inverse cipher): the
    /// oracle the T-table implementation must match bit for bit.
    mod reference {
        use super::super::{gmul, INV_SBOX, RCON, ROUNDS, SBOX};

        pub struct RefAes {
            pub round_keys: [[u8; 16]; ROUNDS + 1],
        }

        impl RefAes {
            pub fn new(key: &[u8; 16]) -> Self {
                let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
                for i in 0..4 {
                    w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
                }
                for i in 4..4 * (ROUNDS + 1) {
                    let mut temp = w[i - 1];
                    if i % 4 == 0 {
                        temp = [
                            SBOX[temp[1] as usize] ^ RCON[i / 4 - 1],
                            SBOX[temp[2] as usize],
                            SBOX[temp[3] as usize],
                            SBOX[temp[0] as usize],
                        ];
                    }
                    for j in 0..4 {
                        w[i][j] = w[i - 4][j] ^ temp[j];
                    }
                }
                let mut round_keys = [[0u8; 16]; ROUNDS + 1];
                for (r, rk) in round_keys.iter_mut().enumerate() {
                    for c in 0..4 {
                        rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                    }
                }
                RefAes { round_keys }
            }

            fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
                for i in 0..16 {
                    state[i] ^= rk[i];
                }
            }

            fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
                for b in state.iter_mut() {
                    *b = sbox[*b as usize];
                }
            }

            fn shift_rows(state: &mut [u8; 16]) {
                // State is column-major: state[r + 4c].
                let s = *state;
                for r in 1..4 {
                    for c in 0..4 {
                        state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
                    }
                }
            }

            fn inv_shift_rows(state: &mut [u8; 16]) {
                let s = *state;
                for r in 1..4 {
                    for c in 0..4 {
                        state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
                    }
                }
            }

            /// Multiply every column by the circulant matrix whose first
            /// row is `m`.
            fn mix(state: &mut [u8; 16], m: [u8; 4]) {
                for c in 0..4 {
                    let col = [
                        state[4 * c],
                        state[4 * c + 1],
                        state[4 * c + 2],
                        state[4 * c + 3],
                    ];
                    for r in 0..4 {
                        state[4 * c + r] =
                            (0..4).fold(0, |acc, i| acc ^ gmul(col[(r + i) % 4], m[i]));
                    }
                }
            }

            pub fn encrypt_block(&self, block: &mut [u8; 16]) {
                Self::add_round_key(block, &self.round_keys[0]);
                for round in 1..ROUNDS {
                    Self::sub_bytes(block, &SBOX);
                    Self::shift_rows(block);
                    Self::mix(block, [2, 3, 1, 1]);
                    Self::add_round_key(block, &self.round_keys[round]);
                }
                Self::sub_bytes(block, &SBOX);
                Self::shift_rows(block);
                Self::add_round_key(block, &self.round_keys[ROUNDS]);
            }

            pub fn decrypt_block(&self, block: &mut [u8; 16]) {
                Self::add_round_key(block, &self.round_keys[ROUNDS]);
                for round in (1..ROUNDS).rev() {
                    Self::inv_shift_rows(block);
                    Self::sub_bytes(block, &INV_SBOX);
                    Self::add_round_key(block, &self.round_keys[round]);
                    Self::mix(block, [14, 11, 13, 9]);
                }
                Self::inv_shift_rows(block);
                Self::sub_bytes(block, &INV_SBOX);
                Self::add_round_key(block, &self.round_keys[0]);
            }
        }
    }

    use reference::RefAes;

    fn block16(bytes: &[u8]) -> [u8; 16] {
        bytes.try_into().expect("16 bytes")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random keys and blocks: the T-table cipher matches the
        /// byte-oriented reference in both directions, its key schedule
        /// matches the reference round keys, and decryption inverts
        /// encryption.
        #[test]
        fn t_tables_match_byte_oriented_reference(
            key in proptest::collection::vec(any::<u8>(), 16..17),
            block in proptest::collection::vec(any::<u8>(), 16..17),
        ) {
            let key = block16(&key);
            let block = block16(&block);
            let fast = Aes128::new(&key);
            let reference = RefAes::new(&key);
            for (words, bytes) in fast.enc.iter().zip(&reference.round_keys) {
                let mut packed = [0u8; 16];
                store(&mut packed, *words);
                prop_assert_eq!(&packed, bytes);
            }

            let (mut a, mut b) = (block, block);
            fast.encrypt_block(&mut a);
            reference.encrypt_block(&mut b);
            prop_assert_eq!(a, b);
            fast.decrypt_block(&mut a);
            prop_assert_eq!(a, block);

            let (mut a, mut b) = (block, block);
            fast.decrypt_block(&mut a);
            reference.decrypt_block(&mut b);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS 197 Appendix B: key and plaintext.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expected);
        aes.decrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                0x07, 0x34,
            ]
        );
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        // FIPS 197 Appendix C.1: AES-128 example vector.
        let key: [u8; 16] = std::array::from_fn(|i| i as u8);
        let plaintext: [u8; 16] = std::array::from_fn(|i| (i as u8) * 0x11);
        let ciphertext: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        let mut block = plaintext;
        aes.encrypt_block(&mut block);
        assert_eq!(block, ciphertext);
        aes.decrypt_block(&mut block);
        assert_eq!(block, plaintext);

        let reference = RefAes::new(&key);
        reference.encrypt_block(&mut block);
        assert_eq!(block, ciphertext);
        reference.decrypt_block(&mut block);
        assert_eq!(block, plaintext);
    }

    #[test]
    fn nist_sp800_38a_ecb_vector() {
        // SP 800-38A F.1.1 ECB-AES128 first block.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                0xef, 0x97,
            ]
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many_blocks() {
        let aes = Aes128::new(b"0123456789abcdef");
        for i in 0..200u32 {
            let mut block = [0u8; 16];
            for (j, b) in block.iter_mut().enumerate() {
                *b = (i as usize * 17 + j * 31) as u8;
            }
            let original = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, original);
            aes.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    fn different_keys_produce_different_ciphertext() {
        let mut a = *b"the same block!!";
        let mut b = *b"the same block!!";
        Aes128::new(b"averysecretkey01").encrypt_block(&mut a);
        Aes128::new(b"averysecretkey02").encrypt_block(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_does_not_print_round_keys() {
        let aes = Aes128::new(&[0xab; 16]);
        let shown = format!("{aes:?}");
        assert_eq!(shown, "Aes128 { .. }");
    }
}
