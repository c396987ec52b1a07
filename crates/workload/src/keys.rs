//! Key and value generation for the database workloads.
//!
//! Production key-value traffic is highly skewed; keys follow a zipfian
//! popularity (Section 3 motivates the RAM caches this skew rewards).
//! Values mix compressible, structured content with incompressible payload
//! so the compression tax does real work.

use hsdp_rng::Rng;

/// Generates keys from a keyspace with zipfian popularity.
#[derive(Debug, Clone)]
pub struct KeyGen {
    zipf: Zipf,
    prefix: String,
}

/// Zipfian distribution over ranks `0..n` (rank 0 most popular), using the
/// Gray et al. / YCSB constant-time generator.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    /// A zipfian over `n` items with skew `theta` (YCSB's default is 0.99).
    /// Construction is `O(n)`: it computes the generalized harmonic number
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 1` and `theta ∈ (0, 1)`.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1 && theta > 0.0 && theta < 1.0);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2.min(n)).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            zetan,
            alpha,
            eta,
        }
    }

    /// Draws a rank in `0..n`, 0 being the most popular.
    pub fn sample_rank<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        (((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64)
            .min(self.n - 1)
    }
}

impl KeyGen {
    /// A zipfian keyspace of `keys` keys with skew `theta` and a table
    /// prefix (e.g. `"user"`).
    ///
    /// # Panics
    ///
    /// Panics unless `keys >= 1` and `theta ∈ (0, 1)`.
    #[must_use]
    pub fn new(prefix: &str, keys: u64, theta: f64) -> Self {
        KeyGen {
            zipf: Zipf::new(keys, theta),
            prefix: prefix.to_owned(),
        }
    }

    /// Draws a key. Rank is FNV-mixed so popular keys scatter across the
    /// sorted keyspace (as production hashing layers do).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u8> {
        let rank = self.zipf.sample_rank(rng);
        self.key_for_rank(rank)
    }

    /// The key bytes for a specific popularity rank: the prefix, `:` and
    /// the scattered rank in 16 lower-case hex digits.
    #[must_use]
    pub fn key_for_rank(&self, rank: u64) -> Vec<u8> {
        let scattered = rank
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(0xcbf2_9ce4_8422_2325)
            % self.zipf.n;
        let mut key = Vec::with_capacity(self.prefix.len() + 17);
        key.extend_from_slice(self.prefix.as_bytes());
        key.push(b':');
        push_hex16(&mut key, scattered);
        key
    }
}

/// Generates values: a compressible structured header plus an
/// incompressibility-controlled payload.
#[derive(Debug, Clone, Copy)]
pub struct ValueGen {
    /// Mean value size in bytes.
    pub mean_size: usize,
    /// Fraction of the payload that is incompressible noise (`0..=1`).
    pub noise_fraction: f64,
}

impl ValueGen {
    /// A generator with the given mean size and 30% incompressible content.
    ///
    /// # Panics
    ///
    /// Panics if `mean_size` is zero.
    #[must_use]
    pub fn new(mean_size: usize) -> Self {
        assert!(mean_size > 0, "mean size must be positive");
        ValueGen {
            mean_size,
            noise_fraction: 0.3,
        }
    }

    /// Draws a value body. Sizes vary uniformly in `[mean/2, 3*mean/2]`.
    /// A `noise_fraction` above 1 makes the whole value noise; NaN and
    /// negative fractions make none of it noise.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u8> {
        let lo = (self.mean_size / 2).max(1);
        let hi = self.mean_size + self.mean_size / 2;
        let size = rng.random_range(lo..=hi);
        let noise_bytes = ((size as f64 * self.noise_fraction) as usize).min(size);
        let mut value = Vec::with_capacity(size);
        // Compressible structured region: repeated field-like text.
        while value.len() < size - noise_bytes {
            let field = value.len() / 24;
            value.extend_from_slice(b"field");
            push_decimal(&mut value, field);
            value.extend_from_slice(b"=common-value;");
        }
        value.truncate(size - noise_bytes);
        // Incompressible tail.
        for _ in 0..noise_bytes {
            value.push(rng.random::<u8>());
        }
        value
    }
}

/// Appends `n` as 16 lower-case hex digits, as `format!("{n:016x}")`
/// spells it.
fn push_hex16(out: &mut Vec<u8>, n: u64) {
    let digits: [u8; 16] =
        std::array::from_fn(|i| b"0123456789abcdef"[(n >> (60 - 4 * i)) as usize & 0xf]);
    out.extend_from_slice(&digits);
}

/// Appends `n` in decimal, as `format!("{n}")` spells it.
fn push_decimal(out: &mut Vec<u8>, n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b"0123456789"[rest % 10];
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> hsdp_rng::StdRng {
        hsdp_rng::StdRng::seed_from_u64(7)
    }

    #[test]
    fn keys_are_skewed_and_prefixed() {
        let gen = KeyGen::new("tbl", 10_000, 0.99);
        let mut rng = rng();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let key = gen.sample(&mut rng);
            assert!(key.starts_with(b"tbl:"));
            *counts.entry(key).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 1000, "hottest key should dominate, got {max}");
        assert!(counts.len() > 100, "long tail exists");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let d = Zipf::new(1000, 0.99);
        let mut rng = hsdp_rng::StdRng::seed_from_u64(19);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            let r = d.sample_rank(&mut rng);
            assert!(r < 1000);
            counts[r as usize] += 1;
        }
        // Rank 0 dominates and frequencies decay.
        assert!(counts[0] > counts[9] && counts[0] > 10 * counts[500].max(1));
        // Top 10 ranks account for a large share under theta=0.99.
        let top10: u32 = counts[..10].iter().sum();
        assert!(top10 > 30_000, "top10 {top10}");
    }

    #[test]
    fn zipf_single_item() {
        let d = Zipf::new(1, 0.5);
        let mut rng = hsdp_rng::StdRng::seed_from_u64(23);
        assert_eq!(d.sample_rank(&mut rng), 0);
        assert_eq!(d.n, 1);
    }

    #[test]
    fn rank_keys_are_stable_and_distinct() {
        let gen = KeyGen::new("t", 1000, 0.9);
        assert_eq!(gen.key_for_rank(5), gen.key_for_rank(5));
        assert_ne!(gen.key_for_rank(5), gen.key_for_rank(6));
        assert_eq!(gen.zipf.n, 1000);
    }

    #[test]
    fn values_have_requested_size_range() {
        let gen = ValueGen::new(1000);
        let mut rng = rng();
        for _ in 0..100 {
            let v = gen.sample(&mut rng);
            assert!((500..=1500).contains(&v.len()), "{}", v.len());
        }
    }

    #[test]
    fn noise_fraction_is_clamped_to_the_value() {
        let mut rng = rng();
        let gen = ValueGen {
            mean_size: 10,
            noise_fraction: 1.5,
        };
        for _ in 0..100 {
            let v = gen.sample(&mut rng);
            assert!((5..=15).contains(&v.len()), "{}", v.len());
        }
        for noise_fraction in [-0.5, f64::NAN] {
            let gen = ValueGen {
                mean_size: 100,
                noise_fraction,
            };
            let v = gen.sample(&mut rng);
            assert!(v.starts_with(b"field0=common-value;"), "{noise_fraction}");
        }
    }

    /// Known answer for the in-range path: the CRC32C over 1,000 samples of
    /// the BigTable workload's value generator (each prefixed with its
    /// length) and the generator's next word after them, which pins how many
    /// draws the samples took.
    #[test]
    fn value_samples_match_the_pinned_stream() {
        let gen = ValueGen::new(300);
        let mut rng = hsdp_rng::StdRng::seed_from_u64(0x5A1E);
        let mut crc = 0;
        for _ in 0..1_000 {
            let v = gen.sample(&mut rng);
            crc = hsdp_taxes::crc::crc32c_append(crc, &(v.len() as u32).to_le_bytes());
            crc = hsdp_taxes::crc::crc32c_append(crc, &v);
        }
        assert_eq!(crc, 0xe410_2814, "value bytes changed");
        assert_eq!(rng.next_u64(), 0x9e24_97f9_cbe3_a899, "draw count changed");
    }

    #[test]
    fn decimal_matches_format() {
        for n in [0, 7, 9, 10, 99, 100, 12_345, usize::MAX] {
            let mut out = b"x".to_vec();
            push_decimal(&mut out, n);
            assert_eq!(out, format!("x{n}").into_bytes());
        }
    }

    #[test]
    fn keys_match_format() {
        let gen = KeyGen::new("user", 20_000, 0.99);
        for rank in 0..20_000u64 {
            let scattered = rank
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(0xcbf2_9ce4_8422_2325)
                % 20_000;
            assert_eq!(
                gen.key_for_rank(rank),
                format!("user:{scattered:016x}").into_bytes(),
                "rank {rank}"
            );
        }
        for n in [0, 0xa, 0x0123_4567_89ab_cdef, u64::MAX] {
            let mut out = b"x:".to_vec();
            push_hex16(&mut out, n);
            assert_eq!(out, format!("x:{n:016x}").into_bytes());
        }
    }

    #[test]
    fn values_are_partially_compressible() {
        let gen = ValueGen::new(4096);
        let mut rng = rng();
        let v = gen.sample(&mut rng);
        let ratio = v.len() as f64 / hsdp_taxes::compress::compress(&v).len() as f64;
        // Structured region compresses, noise does not: ratio in between.
        assert!(ratio > 1.3 && ratio < 30.0, "ratio {ratio}");
    }
}
