//! MurmurHash3, implemented from scratch.
//!
//! [`murmur3_128`] is the x64 128-bit variant (`MurmurHash3_x64_128`) of
//! Austin Appleby's public-domain MurmurHash3. It is the variant the PKG
//! paper refers to as "a 64-bit Murmur hash function": implementations on
//! the JVM (e.g. Guava, as used by the reference Storm implementation) take
//! the low 64 bits of the 128-bit digest. [`murmur3_64`] does exactly that.
//!
//! It is verified against reference test vectors in the unit tests below.

/// Low 64 bits of [`murmur3_128`]; the "64-bit Murmur hash" of the paper.
#[inline]
pub fn murmur3_64(data: &[u8], seed: u64) -> u64 {
    murmur3_128(data, seed).0
}

/// MurmurHash3 x64 128-bit digest of `data` with the given `seed`,
/// returned as `(low, high)` 64-bit halves.
pub fn murmur3_128(data: &[u8], seed: u64) -> (u64, u64) {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;

    let len = data.len();
    let n_blocks = len / 16;
    let mut h1 = seed;
    let mut h2 = seed;

    for block in data.chunks_exact(16) {
        let mut k1 = u64::from_le_bytes(block[..8].try_into().expect("8-byte block half"));
        let mut k2 = u64::from_le_bytes(block[8..].try_into().expect("8-byte block half"));

        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
        h1 = h1.rotate_left(27);
        h1 = h1.wrapping_add(h2);
        h1 = h1.wrapping_mul(5).wrapping_add(0x52dc_e729);

        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;
        h2 = h2.rotate_left(31);
        h2 = h2.wrapping_add(h1);
        h2 = h2.wrapping_mul(5).wrapping_add(0x3849_5ab5);
    }

    // Tail: the final 0..=15 bytes.
    let tail = &data[n_blocks * 16..];
    let mut k1: u64 = 0;
    let mut k2: u64 = 0;
    for (i, &b) in tail.iter().enumerate().take(8) {
        k1 ^= u64::from(b) << (8 * i);
    }
    for (i, &b) in tail.iter().enumerate().skip(8) {
        k2 ^= u64::from(b) << (8 * (i - 8));
    }
    if tail.len() > 8 {
        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;
    }
    if !tail.is_empty() {
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
    }

    h1 ^= len as u64;
    h2 ^= len as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    (h1, h2)
}

/// 64-bit finalization mix: forces avalanche of all bits of a 64-bit block.
#[inline]
pub fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// Hash a `u64` directly (little-endian bytes) with the x64 128 variant,
/// specialized to avoid the generic tail loop. Equivalent to
/// `murmur3_64(&v.to_le_bytes(), seed)` but measurably faster on the
/// routing hot path, where every message hashes a `u64` key id `d` times.
#[inline]
pub fn murmur3_64_u64(v: u64, seed: u64) -> u64 {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;
    let mut h1 = seed;
    let mut h2 = seed;
    // Tail of exactly 8 bytes: only k1 is populated.
    let mut k1 = v;
    k1 = k1.wrapping_mul(C1);
    k1 = k1.rotate_left(31);
    k1 = k1.wrapping_mul(C2);
    h1 ^= k1;
    h1 ^= 8u64;
    h2 ^= 8u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1.wrapping_add(h2)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors from the canonical C++ implementation
    // (MurmurHash3.cpp / SMHasher), cross-checked against Python `mmh3`.
    #[test]
    fn x64_128_reference_vectors() {
        // mmh3.hash64(b"", seed=0, signed=False) -> (0, 0)
        assert_eq!(murmur3_128(b"", 0), (0, 0));
        // mmh3.hash64("foo") == (-2129773440516405919, 9128664383759220103)
        assert_eq!(
            murmur3_128(b"foo", 0),
            ((-2_129_773_440_516_405_919_i64) as u64, 9_128_664_383_759_220_103)
        );
        assert_eq!(murmur3_128(b"hello", 0), (0xcbd8_a7b3_41bd_9b02, 0x5b1e_906a_48ae_1d19));
        assert_eq!(murmur3_128(b"hello, world", 0), (0x342f_ac62_3a5e_bc8e, 0x4cdc_bc07_9642_414d));
        assert_eq!(
            murmur3_128(b"19 Jan 2038 at 3:14:07 AM", 0),
            (0xb89e_5988_b737_affc, 0x664f_c295_0231_b2cb)
        );
        assert_eq!(
            murmur3_128(b"The quick brown fox jumps over the lazy dog.", 0),
            (0xcd99_481f_9ee9_02c9, 0x695d_a1a3_8987_b6e7)
        );
    }

    #[test]
    fn x64_128_with_seed() {
        assert_eq!(murmur3_128(b"hello", 1), (0xa78d_dff5_adae_8d10, 0x1289_00ef_2090_0135));
        // Seeded digests must differ from unseeded ones.
        assert_ne!(murmur3_128(b"hello", 1), murmur3_128(b"hello", 0));
    }

    #[test]
    fn u64_fast_path_reference_vectors() {
        // Vectors from an independent reference implementation.
        assert_eq!(murmur3_64_u64(0, 0), 0x28df_63b7_cc57_c3cb);
        assert_eq!(murmur3_64_u64(1, 0), 0x0044_03b7_fb05_c44a);
        assert_eq!(murmur3_64_u64(42, 7), 0xc871_2ab4_da49_0dbc);
        assert_eq!(murmur3_64_u64(u64::MAX, 123), 0xcfc7_e4ec_904a_043f);
        assert_eq!(murmur3_64_u64(0xdead_beef, u64::MAX), 0xbc5e_43d0_59be_110e);
    }

    #[test]
    fn u64_fast_path_matches_byte_path() {
        for (v, seed) in [(0u64, 0u64), (1, 0), (42, 7), (u64::MAX, 123), (0xdead_beef, u64::MAX)] {
            assert_eq!(
                murmur3_64_u64(v, seed),
                murmur3_64(&v.to_le_bytes(), seed),
                "v={v} seed={seed}"
            );
        }
    }

    #[test]
    fn tail_lengths_all_covered() {
        // Exercise every tail length 0..=16 around the 16-byte block size.
        let data: Vec<u8> = (0u8..48).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=data.len() {
            let h = murmur3_128(&data[..len], 99);
            assert!(seen.insert(h), "digest collision at prefix length {len}");
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        // Chi-square sanity check: hash 100k integers into 64 buckets.
        const BUCKETS: usize = 64;
        const N: usize = 100_000;
        let mut counts = [0usize; BUCKETS];
        for i in 0..N {
            let h = murmur3_64_u64(i as u64, 0);
            counts[(h % BUCKETS as u64) as usize] += 1;
        }
        let expected = (N / BUCKETS) as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 63 degrees of freedom; 99.9th percentile is ~103. Be generous.
        assert!(chi2 < 120.0, "chi-square too high: {chi2}");
    }
}
