//! Deterministic random-number generation, in-house.
//!
//! Every stochastic component in the workspace (data generation, workload
//! sampling, bootstrap resampling, weight initialization, Thompson
//! sampling) receives an explicit `u64` seed, so that experiments are
//! reproducible run-to-run and randomized tests can replay failures from a
//! printed seed.
//!
//! The workspace builds with **zero external crates** (see DESIGN.md,
//! "Hermetic build"), so the generator lives here instead of in `rand`:
//! [`Xoshiro256`] is xoshiro256\*\* (Blackman & Vigna), a 256-bit-state
//! generator that passes BigCrush, seeded through SplitMix64 exactly as the
//! reference implementation recommends. The [`Rng`] extension trait carries
//! the sampling surface the workspace needs: uniform ranges, uniform
//! `f32`/`f64`, Bernoulli, Box–Muller normals, Fisher–Yates shuffling, and
//! index sampling without replacement.
//!
//! Stream discipline: components never share a generator. Each derives its
//! own child seed with [`split_seed`]`(parent, stream)` so workload
//! generation, weight init, dropout, and Thompson sampling draw from
//! independent streams (there is a regression test pinning this down).

/// Advance one SplitMix64 step: mixes `z` through the finalizer.
fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent child seed from a parent seed and a stream label.
///
/// Uses the SplitMix64 finalizer, so nearby `(seed, stream)` pairs produce
/// uncorrelated outputs. This lets one top-level experiment seed fan out to
/// per-component seeds without accidental stream overlap.
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The core entropy source. Object-safe: `&mut dyn RngCore` works where a
/// caller must erase the concrete generator (e.g. optional dropout RNGs).
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// xoshiro256\*\* — the workspace's deterministic generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Expand a `u64` seed into the 256-bit state via SplitMix64 (the
    /// seeding procedure the xoshiro reference implementation specifies).
    pub fn seed_from_u64(seed: u64) -> Xoshiro256 {
        let mut s = [0u64; 4];
        let mut z = seed;
        for slot in &mut s {
            z = splitmix64(z);
            *slot = z;
        }
        // All-zero state is the one invalid seed; SplitMix64 cannot emit
        // four consecutive zeros, but keep the guard explicit.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }
}

impl RngCore for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construct a deterministic RNG from a seed.
pub fn rng_from_seed(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed)
}

/// Sampling methods over any [`RngCore`]; blanket-implemented, so call
/// sites only need `use bao_common::Rng;`.
pub trait Rng: RngCore {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1)` with 24 random mantissa bits.
    fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A standard-normal draw via Box–Muller.
    fn gen_normal(&mut self) -> f64 {
        // 1 - u keeps the argument of ln strictly positive.
        let u1 = 1.0 - self.gen_f64();
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A normal draw with the given mean and standard deviation.
    fn gen_normal_with(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.gen_normal()
    }

    /// Uniform over a half-open (`lo..hi`) or inclusive (`lo..=hi`) range
    /// of any primitive numeric type. Panics on an empty range.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Uniform index in `[0, n)` without modulo bias (widening multiply).
    fn gen_index(&mut self, n: usize) -> usize
    where
        Self: Sized,
    {
        assert!(n > 0, "cannot sample an index from an empty domain");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// In-place Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, xs: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..xs.len()).rev() {
            let j = self.gen_index(i + 1);
            xs.swap(i, j);
        }
    }

    /// A uniformly random element, or `None` on an empty slice.
    fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T>
    where
        Self: Sized,
    {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.gen_index(xs.len())])
        }
    }

    /// `amount` distinct indices sampled uniformly from `0..n` (partial
    /// Fisher–Yates, so the result order is itself random).
    fn sample_indices(&mut self, n: usize, amount: usize) -> Vec<usize>
    where
        Self: Sized,
    {
        let amount = amount.min(n);
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..amount {
            let j = i + self.gen_index(n - i);
            pool.swap(i, j);
        }
        pool.truncate(amount);
        pool
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A range that [`Rng::gen_range`] can sample uniformly into `T`. The
/// output type is a trait parameter (as in `rand`) so literal ranges like
/// `-1.0..1.0` infer their float width from the call site.
pub trait SampleRange<T> {
    fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

/// Uniform integer in `[lo, hi]` (inclusive), bias-free for the spans the
/// workspace uses via 128-bit widening multiply.
fn sample_u64_span<G: RngCore + ?Sized>(rng: &mut G, span: u64) -> u64 {
    // span == u64::MAX + 1 is represented by span == 0: full width.
    if span == 0 {
        return rng.next_u64();
    }
    (((rng.next_u64() as u128) * (span as u128)) >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = sample_u64_span(rng, span);
                (self.start as i128 + off as i128) as $t
            }
        }

        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                // span = hi - lo + 1; wraps to 0 on the full u64 domain,
                // which sample_u64_span treats as "all 64 bits".
                let span = ((hi as i128 - lo as i128) as u64).wrapping_add(1);
                let off = sample_u64_span(rng, span);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

int_sample_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

macro_rules! float_sample_range {
    ($($t:ty, $gen:ident);*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                self.start + rng.$gen() * (self.end - self.start)
            }
        }

        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                lo + rng.$gen() * (hi - lo)
            }
        }
    )*};
}

float_sample_range!(f32, gen_f32; f64, gen_f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = rng_from_seed(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = rng_from_seed(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = rng_from_seed(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn split_seed_distinguishes_streams() {
        let s1 = split_seed(7, 0);
        let s2 = split_seed(7, 1);
        let s3 = split_seed(8, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(s2, s3);
    }

    #[test]
    fn split_seed_is_pure() {
        assert_eq!(split_seed(123, 45), split_seed(123, 45));
    }

    #[test]
    fn matches_xoshiro_reference() {
        // First outputs of xoshiro256** from the state {1, 2, 3, 4},
        // cross-checked against an independent implementation of the
        // reference algorithm.
        let mut r = Xoshiro256 { s: [1, 2, 3, 4] };
        let expected: [u64; 6] =
            [11520, 0, 1509978240, 1215971899390074240, 1216172134540287360, 607988272756665600];
        for e in expected {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = rng_from_seed(9);
        for _ in 0..2_000 {
            let v = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&v), "{v}");
            let v = r.gen_range(3i64..=7);
            assert!((3..=7).contains(&v), "{v}");
            let f = r.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f), "{f}");
            let u = r.gen_range(0usize..10);
            assert!(u < 10);
        }
        // Inclusive endpoints are actually reachable.
        let mut hits = [false; 5];
        let mut r = rng_from_seed(10);
        for _ in 0..1_000 {
            hits[r.gen_range(0usize..=4)] = true;
        }
        assert!(hits.iter().all(|&h| h), "{hits:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        let mut r = rng_from_seed(1);
        let _ = r.gen_range(5i64..5);
    }

    #[test]
    fn uniform_floats_in_unit_interval() {
        let mut r = rng_from_seed(4);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = rng_from_seed(5);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits}");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.1));
    }

    #[test]
    fn normal_moments() {
        let mut r = rng_from_seed(6);
        let xs: Vec<f64> = (0..20_000).map(|_| r.gen_normal()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        let y = r.gen_normal_with(10.0, 0.0);
        assert_eq!(y, 10.0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = rng_from_seed(7);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        // and it actually moved something
        assert_ne!(xs, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut r = rng_from_seed(8);
        let picked = r.sample_indices(50, 20);
        assert_eq!(picked.len(), 20);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "duplicates in {picked:?}");
        assert!(picked.iter().all(|&i| i < 50));
        // amount > n clamps
        assert_eq!(r.sample_indices(3, 10).len(), 3);
        assert!(r.sample_indices(0, 5).is_empty());
    }

    #[test]
    fn choose_covers_slice() {
        let mut r = rng_from_seed(11);
        let xs = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[*r.choose(&xs).unwrap() as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(r.choose::<i32>(&[]).is_none());
    }

    #[test]
    fn dyn_rng_core_is_usable() {
        let mut r = rng_from_seed(12);
        let dyn_r: &mut dyn RngCore = &mut r;
        // Non-generic methods remain callable through the trait object.
        let x = dyn_r.gen_f32();
        assert!((0.0..1.0).contains(&x));
    }

    /// Satellite regression: two components fed the same parent seed but
    /// different `split_seed` streams draw unrelated sequences.
    #[test]
    fn component_streams_are_independent() {
        let parent = 424_242;
        let mut workload_rng = rng_from_seed(split_seed(parent, 0));
        let mut weights_rng = rng_from_seed(split_seed(parent, 1));
        let a: Vec<u64> = (0..8).map(|_| workload_rng.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| weights_rng.next_u64()).collect();
        assert_ne!(a, b, "streams must not collide");
        // No lag-correlation either: stream 1 is not stream 0 shifted.
        let mut w2 = rng_from_seed(split_seed(parent, 0));
        let _ = w2.next_u64();
        let shifted: Vec<u64> = (0..8).map(|_| w2.next_u64()).collect();
        assert_ne!(shifted, b);
    }
}
