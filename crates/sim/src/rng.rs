//! Named random-number streams.
//!
//! Every stochastic component of the simulator (per-link shadowing, per-node
//! backoff, each traffic generator, …) draws from its own [`StreamRng`],
//! derived deterministically from the master seed and a stream label. This
//! keeps components statistically independent and means adding a new consumer
//! of randomness does not perturb the draws seen by existing ones.

/// A deterministic random stream derived from `(master_seed, label)`.
///
/// Wraps an inline xoshiro256++ generator (the algorithm behind `rand`'s
/// `SmallRng` on 64-bit targets — implemented here because this build
/// environment cannot fetch crates.io dependencies) and adds the
/// distribution helpers the simulator needs: exponential, Pareto, and
/// standard-normal variates.
///
/// # Example
///
/// ```
/// use wmn_sim::StreamRng;
/// let mut a = StreamRng::derive(42, "backoff/n0");
/// let mut b = StreamRng::derive(42, "backoff/n0");
/// assert_eq!(a.next_u64(), b.next_u64()); // same label => same stream
/// ```
#[derive(Debug)]
pub struct StreamRng {
    state: [u64; 4],
}

impl StreamRng {
    /// Derives a stream from the master seed and a stable label.
    pub fn derive(master_seed: u64, label: &str) -> Self {
        // FNV-1a-style fold over the label (odd multiplier, not the exact
        // FNV-64 prime — do not "correct" it: every derived stream, and so
        // every seed-dependent result, would change), mixed with the master
        // seed via splitmix64.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Expand the mixed seed into four non-degenerate state words, as
        // xoshiro's authors recommend: successive splitmix64 outputs.
        let mut s = splitmix64(master_seed ^ h);
        let mut state = [0u64; 4];
        for word in &mut state {
            s = splitmix64(s);
            *word = s;
        }
        StreamRng { state }
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let mut n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        n3 = n3.rotate_left(45);
        self.state = [n0, n1, n2, n3];
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → the standard dyadic-rational construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n]` (inclusive). Used for 802.11 backoff
    /// counter draws over the contention window.
    ///
    /// # Panics
    ///
    /// Never panics; `n = 0` always yields 0.
    pub fn uniform_slots(&mut self, n: u32) -> u32 {
        // n + 1 ≤ 2^32 values; modulo bias over a u64 draw is < 2^-32 and
        // irrelevant to backoff statistics.
        (self.next_u64() % (u64::from(n) + 1)) as u32
    }

    /// Exponential variate with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "invalid exponential mean: {mean}");
        let u: f64 = 1.0 - self.uniform(); // in (0, 1]
        -mean * u.ln()
    }

    /// Pareto variate with the given `shape` and *mean* (not scale).
    ///
    /// The paper's web workload draws transfer sizes from a Pareto
    /// distribution with mean 80 KB and shape 1.5. For shape `a > 1` the mean
    /// of a Pareto with scale `x_m` is `a·x_m/(a−1)`, so the scale is derived
    /// as `mean·(a−1)/a`.
    ///
    /// # Panics
    ///
    /// Panics unless `shape > 1` and `mean > 0` (the mean is otherwise
    /// undefined).
    pub fn pareto_with_mean(&mut self, shape: f64, mean: f64) -> f64 {
        assert!(shape > 1.0, "Pareto mean undefined for shape <= 1 (got {shape})");
        assert!(mean.is_finite() && mean > 0.0, "invalid Pareto mean: {mean}");
        let scale = mean * (shape - 1.0) / shape;
        let u: f64 = 1.0 - self.uniform(); // in (0, 1]
        scale / u.powf(1.0 / shape)
    }

    /// Standard normal variate (Box–Muller), for log-normal shadowing draws:
    /// exactly `box_muller(normal_uniforms())`, bit for bit.
    ///
    /// Consumes exactly two raw words per call (see
    /// [`StreamRng::skip_standard_normal`]), and — because `u1` is at least
    /// 2⁻⁵³ — the variate is hard-bounded by
    /// `±sqrt(-2·ln(2⁻⁵³)) ≈ ±8.5716`. Callers may skip the transcendental
    /// math without perturbing the stream in two ways:
    ///
    /// * when that hard bound already proves every sample irrelevant, by
    ///   [`StreamRng::skip_standard_normal`];
    /// * per sample, by drawing the two uniforms with
    ///   [`StreamRng::normal_uniforms`], bounding `|z| ≤ sqrt(-2·ln u1)`
    ///   from `u1` alone, and calling [`StreamRng::box_muller`] only when
    ///   the bound cannot rule the sample out. The medium's planner skips a
    ///   shadowing draw this way when even `|z| = sqrt(-2·ln u1)` cannot
    ///   lift the pair to carrier sense.
    ///
    /// Either way the stream is consumed exactly as by this call.
    pub fn standard_normal(&mut self) -> f64 {
        let (u1, u2) = self.normal_uniforms();
        Self::box_muller(u1, u2)
    }

    /// The two uniforms one [`StreamRng::standard_normal`] call draws, in
    /// its order: `u1` in `[2⁻⁵³, 1]` (never zero, so `ln u1` is finite),
    /// then `u2` in `[0, 1)`. Consumes exactly two raw words.
    pub fn normal_uniforms(&mut self) -> (f64, f64) {
        let u1: f64 = 1.0 - self.uniform(); // in (0,1], avoids ln(0)
        let u2: f64 = self.uniform();
        (u1, u2)
    }

    /// The Box–Muller transform of [`StreamRng::normal_uniforms`]' pair:
    /// `sqrt(-2·ln u1)·cos(2π·u2)`. One variate per pair keeps the stream
    /// simple; its magnitude is at most `sqrt(-2·ln u1)`.
    pub fn box_muller(u1: f64, u2: f64) -> f64 {
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Advances the stream past exactly the raw draws one
    /// [`StreamRng::standard_normal`] call consumes, without the
    /// transcendental math.
    ///
    /// Hot paths use this when the sample provably cannot matter (e.g. a
    /// link whose maximum possible shadowing excursion still leaves it below
    /// carrier sense) while staying bit-compatible with code that samples:
    /// every later draw sees the identical stream position. A per-sample
    /// skip draws [`StreamRng::normal_uniforms`] instead (see
    /// [`StreamRng::standard_normal`]), which consumes the same two words.
    pub fn skip_standard_normal(&mut self) {
        self.next_u64();
        self.next_u64();
    }

    /// Bernoulli trial that succeeds with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A factory handing out [`StreamRng`]s for a fixed master seed.
///
/// Scenario runners hold one directory and derive per-component streams from
/// it, e.g. `dir.stream("phy/shadowing/n3")`.
#[derive(Debug, Clone, Copy)]
pub struct RngDirectory {
    master_seed: u64,
}

impl RngDirectory {
    /// Creates a directory for the given master seed.
    pub const fn new(master_seed: u64) -> Self {
        RngDirectory { master_seed }
    }

    /// The master seed this directory was built from.
    pub const fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derives the stream with the given label.
    pub fn stream(&self, label: &str) -> StreamRng {
        // lint:allow(rng-label-registry): forwarding shim — each caller's literal label is registered at its own call site
        StreamRng::derive(self.master_seed, label)
    }

    /// Derives the stream `"{prefix}/{index}"` — the canonical form for
    /// per-entity stream families (`"shard/medium"` + transmitter index,
    /// `"shard/ber"` + receiver index, …).
    ///
    /// Sharded engines must derive every per-entity stream through this
    /// method with a literal prefix: the lint registry records the family as
    /// `dynamic:<prefix>/{index}` from the call site, and the
    /// `shard-rng-label` rule rejects unindexed derivations inside shard
    /// code, where a shared stream would make consumption order depend on
    /// the shard count.
    pub fn indexed_stream(&self, prefix: &str, index: u32) -> StreamRng {
        // lint:allow(rng-label-registry): forwarding shim — each caller's literal prefix is registered at its own call site
        StreamRng::derive(self.master_seed, &format!("{prefix}/{index}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_label_same_stream() {
        let dir = RngDirectory::new(7);
        let mut a = dir.stream("x");
        let mut b = dir.stream("x");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn indexed_stream_matches_the_formatted_label() {
        // The indexed form is *defined* as the "{prefix}/{index}" label:
        // shard code deriving `indexed_stream("shard/medium", 3)` and
        // registry tooling reasoning about `dynamic:shard/medium/{index}`
        // must agree on the stream.
        let dir = RngDirectory::new(41);
        let mut a = dir.indexed_stream("shard/medium", 3);
        let mut b = dir.stream("shard/medium/3");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut other = dir.indexed_stream("shard/medium", 4);
        assert_ne!(a.next_u64(), other.next_u64());
    }

    #[test]
    fn different_labels_diverge() {
        let dir = RngDirectory::new(7);
        let mut a = dir.stream("x");
        let mut b = dir.stream("y");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams with different labels should diverge");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StreamRng::derive(1, "x");
        let mut b = StreamRng::derive(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StreamRng::derive(11, "exp");
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(1.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.5).abs() < 0.05, "sample mean {mean} too far from 1.5");
    }

    #[test]
    fn pareto_mean_is_close() {
        let mut rng = StreamRng::derive(13, "pareto");
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.pareto_with_mean(1.5, 80_000.0)).sum();
        let mean = sum / n as f64;
        // Heavy-tailed: allow a generous tolerance.
        assert!((mean - 80_000.0).abs() / 80_000.0 < 0.25, "sample mean {mean} too far from 80000");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StreamRng::derive(17, "norm");
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn skip_standard_normal_matches_consumption() {
        // The skip must advance the stream exactly as far as a real sample:
        // the shadowing fast path depends on this equivalence.
        let mut sampled = StreamRng::derive(21, "skip");
        let mut skipped = StreamRng::derive(21, "skip");
        for _ in 0..64 {
            let _ = sampled.standard_normal();
            skipped.skip_standard_normal();
            assert_eq!(sampled.next_u64(), skipped.next_u64());
        }
    }

    #[test]
    fn split_box_muller_matches_standard_normal_bit_for_bit() {
        let mut whole = StreamRng::derive(29, "split");
        let mut split = StreamRng::derive(29, "split");
        for _ in 0..4096 {
            let (u1, u2) = split.normal_uniforms();
            assert!(u1 > 0.0 && u1 <= 1.0 && (0.0..1.0).contains(&u2));
            let z = whole.standard_normal();
            assert_eq!(z.to_bits(), StreamRng::box_muller(u1, u2).to_bits());
            assert!(z.abs() <= (-2.0 * u1.ln()).sqrt(), "|z| is bounded by the radius");
        }
        assert_eq!(whole.next_u64(), split.next_u64(), "same stream consumption");
    }

    #[test]
    fn standard_normal_is_hard_bounded() {
        // Box–Muller over a 53-bit uniform: |z| ≤ sqrt(-2·ln(2⁻⁵³)). The
        // medium's build-time link classification relies on this bound.
        let bound = (-2.0 * (1.0 / (1u64 << 53) as f64).ln()).sqrt();
        assert!(bound < 8.572, "analytic bound {bound}");
        let mut rng = StreamRng::derive(23, "bound");
        for _ in 0..100_000 {
            assert!(rng.standard_normal().abs() <= bound);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = StreamRng::derive(19, "chance");
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities are clamped, not panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    proptest! {
        /// Backoff draws always fall inside the contention window.
        #[test]
        fn prop_uniform_slots_in_range(n in 0u32..4096, seed in any::<u64>()) {
            let mut rng = StreamRng::derive(seed, "slots");
            for _ in 0..32 {
                prop_assert!(rng.uniform_slots(n) <= n);
            }
        }

        /// Pareto variates are never below the derived scale parameter.
        #[test]
        fn prop_pareto_lower_bound(seed in any::<u64>()) {
            let mut rng = StreamRng::derive(seed, "p");
            let shape = 1.5;
            let mean = 80_000.0;
            let scale = mean * (shape - 1.0) / shape;
            for _ in 0..64 {
                prop_assert!(rng.pareto_with_mean(shape, mean) >= scale - 1e-9);
            }
        }
    }
}
