//! SHA-3 (Keccak) hashing, implemented from scratch.
//!
//! The paper's model-validation experiment (Section 6.4, Table 8) chains a
//! protobuf-serialization accelerator into a SHA3 accelerator; this module is
//! the software baseline for that pipeline. It implements Keccak-f\[1600\] per
//! FIPS 202 and the fixed-output sponge [`Sha3`] over it. The platforms hash
//! with [`Sha3_256`]; the tests also pin the sponge at the SHA3-224, -384
//! and -512 rates.
//!
//! The permutation ([`keccak_f1600`]) is the structured 5x5 formulation
//! straight from the specification. A flat, unrolled 25-lane variant was
//! measured at 1.14–1.19x on the commit digests Spanner hashes in a fleet
//! run, below the 1.2x a second implementation must earn, and was deleted
//! (DESIGN.md, "One implementation per kernel").
//!
//! # Examples
//!
//! ```
//! use hsdp_taxes::sha3::Sha3_256;
//!
//! let digest = Sha3_256::digest(b"abc");
//! assert_eq!(digest[..4], [0x3a, 0x98, 0x5d, 0xa7]);
//! ```

/// Keccak round constants (24 rounds of Keccak-f[1600]).
const ROUND_CONSTANTS: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Rotation offsets for the rho step, indexed `[x][y]`.
const RHO_OFFSETS: [[u32; 5]; 5] = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
];

/// Applies the full 24-round Keccak-f\[1600\] permutation to a flat state.
/// Lane `i` of the flat state maps to `(x, y) = (i % 5, i / 5)`.
pub fn keccak_f1600(flat: &mut [u64; 25]) {
    let mut a = [[0u64; 5]; 5];
    for (i, &lane) in flat.iter().enumerate() {
        a[i % 5][i / 5] = lane;
    }
    for &rc in &ROUND_CONSTANTS {
        // Theta.
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4];
        }
        let mut d = [0u64; 5];
        for x in 0..5 {
            d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
        }
        for (row, dx) in a.iter_mut().zip(&d) {
            for lane in row.iter_mut() {
                *lane ^= *dx;
            }
        }

        // Rho and pi.
        let mut b = [[0u64; 5]; 5];
        for x in 0..5 {
            for y in 0..5 {
                b[y][(2 * x + 3 * y) % 5] = a[x][y].rotate_left(RHO_OFFSETS[x][y]);
            }
        }

        // Chi.
        for x in 0..5 {
            for y in 0..5 {
                a[x][y] = b[x][y] ^ (!b[(x + 1) % 5][y] & b[(x + 2) % 5][y]);
            }
        }

        // Iota.
        a[0][0] ^= rc;
    }
    for (i, lane) in flat.iter_mut().enumerate() {
        *lane = a[i % 5][i / 5];
    }
}

/// The Keccak permutation state: 25 lanes of 64 bits, flat in absorb order
/// (lane `i` is the sponge's byte range `8i..8i+8`; `(x, y) = (i % 5, i / 5)`
/// in the 5x5 formulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct KeccakState {
    lanes: [u64; 25],
}

impl KeccakState {
    /// XORs a full rate block (little-endian lanes) into the state, then
    /// applies the permutation.
    fn absorb_block(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len() % 8, 0);
        for (lane, chunk) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
            // audit: allow(panic, chunks_exact(8) yields exactly 8-byte chunks)
            *lane ^= u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
        }
        keccak_f1600(&mut self.lanes);
    }

    /// Reads `out.len()` bytes from the start of the state (rate portion).
    fn squeeze_into(&self, out: &mut [u8]) {
        for (dst, src) in out
            .chunks_mut(8)
            .zip(self.lanes.iter().map(|lane| lane.to_le_bytes()))
        {
            dst.copy_from_slice(&src[..dst.len()]);
        }
    }
}

/// An incremental SHA-3 hasher with a compile-time digest size.
///
/// `RATE` is the sponge rate in bytes (`200 - 2 * DIGEST`), and `DIGEST` the
/// output size in bytes. [`Sha3_256`] is the one alias; the tests name the
/// 224-, 384- and 512-bit variants for their known answers.
#[derive(Debug, Clone)]
pub struct Sha3<const RATE: usize, const DIGEST: usize> {
    state: KeccakState,
    buffer: [u8; 200],
    buffered: usize,
}

impl<const RATE: usize, const DIGEST: usize> Default for Sha3<RATE, DIGEST> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const RATE: usize, const DIGEST: usize> Sha3<RATE, DIGEST> {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        debug_assert!(
            RATE <= 200 && RATE.is_multiple_of(8),
            "rate must be a lane multiple"
        );
        Sha3 {
            state: KeccakState::default(),
            buffer: [0u8; 200],
            buffered: 0,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        // Fill the partial block first.
        if self.buffered > 0 {
            let take = (RATE - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == RATE {
                self.state.absorb_block(&self.buffer[..RATE]);
                self.buffered = 0;
            }
        }
        // Absorb full blocks directly from the input.
        while data.len() >= RATE {
            self.state.absorb_block(&data[..RATE]);
            data = &data[RATE..];
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finishes the hash and returns the digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST] {
        // SHA-3 domain padding: append 0b01 then pad10*1.
        let mut block = [0u8; 200];
        block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        block[self.buffered] = 0x06;
        block[RATE - 1] |= 0x80;
        self.state.absorb_block(&block[..RATE]);

        let mut out = [0u8; DIGEST];
        debug_assert!(DIGEST <= RATE, "fixed-output SHA-3 digests fit one squeeze");
        self.state.squeeze_into(&mut out);
        out
    }

    /// One-shot convenience: hash `data` in a single call.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; DIGEST] {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }
}

/// SHA3-256 (rate 136, digest 32 bytes).
pub type Sha3_256 = Sha3<136, 32>;

#[cfg(test)]
mod tests {
    use super::*;

    /// SHA3-224 (rate 144, digest 28 bytes).
    type Sha3_224 = Sha3<144, 28>;
    /// SHA3-384 (rate 104, digest 48 bytes).
    type Sha3_384 = Sha3<104, 48>;
    /// SHA3-512 (rate 72, digest 64 bytes).
    type Sha3_512 = Sha3<72, 64>;

    fn to_hex(digest: &[u8]) -> String {
        digest.iter().map(|byte| format!("{byte:02x}")).collect()
    }

    // Vectors cross-checked against CPython's hashlib (FIPS 202).
    #[test]
    fn sha3_256_empty() {
        assert_eq!(
            to_hex(&Sha3_256::digest(b"")),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        );
    }

    #[test]
    fn sha3_256_abc() {
        assert_eq!(
            to_hex(&Sha3_256::digest(b"abc")),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn sha3_256_fox() {
        assert_eq!(
            to_hex(&Sha3_256::digest(
                b"The quick brown fox jumps over the lazy dog"
            )),
            "69070dda01975c8c120c3aada1b282394e7f032fa9cf32f4cb2259a0897dfc04"
        );
    }

    #[test]
    fn sha3_256_long_input() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        assert_eq!(
            to_hex(&Sha3_256::digest(&data)),
            "b6c70631c6ff932b9f380d9cde8750eb9bea393817a9aea410c2119eb7b9b870"
        );
    }

    #[test]
    fn sha3_256_rate_boundaries() {
        // Inputs straddling the 136-byte rate boundary exercise padding.
        let cases = [
            (
                135,
                "c150125edc74b56fb5cbfdd024fabe20ea5a99bd3c97305bbf7cb55885c106fe",
            ),
            (
                136,
                "5bc276bac9c582508b8fa9b3949e7ed9b6e584ee4d2925b29a426b9931ba1486",
            ),
            (
                137,
                "2f25a6351abe05e289a0a3e65fef42db7d5fc314936bdee4f6d54d04fb20a609",
            ),
            (
                271,
                "15a27a861d7f3e285daf758babcdaee8579be2fa573dc65ed2c61307078ecb90",
            ),
            (
                272,
                "f0759f9d5c3f598bcb2a85480f30bec337e407bc659d9427363a8810718b29ae",
            ),
            (
                273,
                "db32b3436806d2573420c7ef544f0ea430a735fcfc64e7ec80e8721e668d0f30",
            ),
        ];
        for (n, expected) in cases {
            let data = vec![b'x'; n];
            assert_eq!(to_hex(&Sha3_256::digest(&data)), expected, "len {n}");
        }
    }

    #[test]
    fn sha3_512_vectors() {
        assert_eq!(
            to_hex(&Sha3_512::digest(b"")),
            "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6\
             15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26"
        );
        assert_eq!(
            to_hex(&Sha3_512::digest(b"abc")),
            "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e\
             10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0"
        );
    }

    #[test]
    fn sha3_224_and_384_abc() {
        assert_eq!(
            to_hex(&Sha3_224::digest(b"abc")),
            "e642824c3f8cf24ad09234ee7d3c766fc9a3a5168d0c94ad73b46fdf"
        );
        assert_eq!(
            to_hex(&Sha3_384::digest(b"abc")),
            "ec01498288516fc926459f58e2c6ad8df9b473cb0fc08c2596da7cf0e49be4b2\
             98d88cea927ac7f539f1edf228376d25"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha3_256::digest(&data);
        // Feed in awkward chunk sizes.
        for chunk in [1usize, 7, 64, 135, 136, 137, 500] {
            let mut hasher = Sha3_256::new();
            for piece in data.chunks(chunk) {
                hasher.update(piece);
            }
            assert_eq!(hasher.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(Sha3_256::digest(b"a"), Sha3_256::digest(b"b"));
        assert_ne!(Sha3_256::digest(b""), Sha3_256::digest(b"\0"));
    }
}
