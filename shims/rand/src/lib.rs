//! Offline stand-in for the `rand` crate.
//!
//! Implements the small subset of the rand 0.8 API this workspace uses:
//! [`Rng::gen`], [`Rng::gen_range`], [`SeedableRng::seed_from_u64`] and
//! [`rngs::StdRng`].  The generator is xoshiro256++ seeded through splitmix64
//! — statistically strong for workload generation, deterministic per seed,
//! and dependency-free.  It makes no cryptographic claims (neither do the
//! workloads that use it).

/// Types that can be produced uniformly from raw generator output.
pub trait StandardSample {
    /// Builds a uniformly distributed value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws a value uniformly from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift bounded sampling (Lemire); bias is < 2^-64
                // per draw, far below what any workload here can detect.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (s, e) = self.into_inner();
                if s == e {
                    return s;
                }
                (s..e + 1).sample_from(rng)
            }
        }
    )*};
}

impl_int_range!(u64, u32, usize, i64);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + (self.end - self.start) * f64::sample(rng)
    }
}

/// The subset of rand's `Rng` trait used in this workspace.
pub trait Rng {
    /// Raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly distributed value of type `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// A value drawn uniformly from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// True with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

/// Seedable generators (the subset used here).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds a generator seeded from the system clock and address-space
    /// entropy.  Deterministic tests should prefer [`Self::seed_from_u64`].
    fn from_entropy() -> Self {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9);
        let addr = &t as *const _ as u64;
        Self::seed_from_u64(t ^ addr.rotate_left(17))
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, Rng, SeedableRng};

    /// xoshiro256++, seeded via splitmix64 as its authors recommend.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let s = [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ];
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// A fresh clock-seeded generator (API-compatible convenience).
pub fn thread_rng() -> rngs::StdRng {
    rngs::StdRng::from_entropy()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let (xa, xb, xc): (u64, u64, u64) = (a.gen(), b.gen(), c.gen());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_respected_and_covered() {
        let mut r = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..2000 {
            let v = r.gen_range(0u64..10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..100 {
            let v = r.gen_range(5usize..6);
            assert_eq!(v, 5);
        }
    }

    #[test]
    fn rough_uniformity() {
        let mut r = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mut low = 0u64;
        for _ in 0..n {
            if r.gen_range(0u64..100) < 50 {
                low += 1;
            }
        }
        let frac = low as f64 / n as f64;
        assert!((0.48..0.52).contains(&frac), "biased: {frac}");
    }
}
