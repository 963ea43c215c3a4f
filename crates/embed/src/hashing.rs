//! Deterministic hash primitives.
//!
//! All randomness in the embedding layer is *derived* from these hashes rather
//! than drawn from an RNG stream, so the embedding of a string never depends on
//! call order — the property that makes a hashed embedder behave like a fixed
//! model checkpoint.

/// FNV-1a 64-bit hash of bytes, seeded.
pub fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SplitMix64 finalizer: turns any 64-bit value into a well-mixed one.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Hash a string feature with a probe index; used to derive multiple
/// independent (coordinate, sign) pairs per feature.
pub fn feature_hash(feature: &str, seed: u64, probe: u32) -> u64 {
    probe_hash(fnv1a(feature.as_bytes(), seed), probe)
}

/// The `probe`-th hash of a feature whose seeded [`fnv1a`] is `base`. The
/// string enters [`feature_hash`] only through `base`, so eight bytes stand
/// in for the feature wherever its probes must be replayed later.
pub fn probe_hash(base: u64, probe: u32) -> u64 {
    splitmix64(base.wrapping_add(probe as u64))
}

/// Map a hash to a coordinate index in `[0, dim)` and a sign in `{-1, +1}`.
///
/// The index is `h % dim`. For a power-of-two `dim` (the default, 128) that
/// is the low bits of `h`, taken with a mask instead of a 64-bit division:
/// this runs once per probe of every embedded feature.
pub fn coord_and_sign(h: u64, dim: usize) -> (usize, f32) {
    let dim = dim as u64;
    let idx = if dim.is_power_of_two() {
        (h & (dim - 1)) as usize
    } else {
        (h % dim) as usize
    };
    let sign = if (h >> 63) & 1 == 1 { 1.0 } else { -1.0 };
    (idx, sign)
}

/// Deterministic uniform float in `[0, 1)` derived from a hash.
pub fn unit_float(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_deterministic_and_seeded() {
        assert_eq!(fnv1a(b"abc", 1), fnv1a(b"abc", 1));
        assert_ne!(fnv1a(b"abc", 1), fnv1a(b"abc", 2));
        assert_ne!(fnv1a(b"abc", 1), fnv1a(b"abd", 1));
    }

    #[test]
    fn probes_decorrelate() {
        let a = feature_hash("x", 0, 0);
        let b = feature_hash("x", 0, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn coord_in_range() {
        for i in 0..1000u64 {
            let (idx, sign) = coord_and_sign(splitmix64(i), 128);
            assert!(idx < 128);
            assert!(sign == 1.0 || sign == -1.0);
        }
    }

    /// The mask and the remainder pick the same coordinate for every
    /// power-of-two dimension up to 512, on hashes spread over all 64 bits.
    #[test]
    fn masked_coordinate_equals_remainder() {
        for shift in 0..=9 {
            let dim = 1usize << shift;
            for i in 0..2000u64 {
                let h = splitmix64(i ^ ((dim as u64) << 32));
                assert_eq!(
                    coord_and_sign(h, dim).0 as u64,
                    h % dim as u64,
                    "h {h} dim {dim}"
                );
            }
        }
        // A dimension that is not a power of two keeps the remainder.
        assert_eq!(coord_and_sign(1000, 96).0, 1000 % 96);
    }

    #[test]
    fn unit_float_in_range_and_spread() {
        let mut lo = false;
        let mut hi = false;
        for i in 0..1000u64 {
            let f = unit_float(splitmix64(i));
            assert!((0.0..1.0).contains(&f));
            lo |= f < 0.25;
            hi |= f > 0.75;
        }
        assert!(lo && hi, "unit floats should cover the interval");
    }

    #[test]
    fn signs_are_balanced() {
        let negs = (0..10_000u64)
            .filter(|&i| coord_and_sign(splitmix64(i), 64).1 < 0.0)
            .count();
        assert!(
            (4_000..6_000).contains(&negs),
            "sign bias: {negs}/10000 negative"
        );
    }
}
