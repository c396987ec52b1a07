//! Hashing for keys the program makes itself.
//!
//! Engine-generated integers and the addresses of interned records never
//! come from outside the program, so collision flooding is not a concern
//! and a lookup can cost one multiply per word instead of a SipHash round.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply per word, and a rotate that moves the product's well-mixed
/// high bits into the low bits a hash table indexes by (an aligned
/// address's low bits are always zero).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A hash map keyed by values the program generates: integers it counts
/// out, or addresses of what it interned.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
