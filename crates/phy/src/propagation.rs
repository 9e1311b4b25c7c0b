//! Log-normal shadowing propagation, matching NS-2's `Shadowing` model that
//! the paper selects ("path loss exponent 5, shadowing deviation 8,
//! transmission power 281 mW").
//!
//! Received power over a link of length `d` is
//!
//! ```text
//! Pr(d) [dBm] = Pt − PL(d0) − 10·β·log10(d/d0) + X_σ,   X_σ ~ N(0, σ²)
//! ```
//!
//! with reference distance `d0 = 1 m` and `PL(d0)` the free-space loss at
//! 2.4 GHz. The Gaussian term is drawn **independently per frame and per
//! receiver**, which is exactly the property opportunistic routing exploits:
//! losses at different forwarders are uncorrelated.

use wmn_sim::StreamRng;

use crate::math::normal_cdf;

/// Log-normal shadowing model parameters.
#[derive(Clone, Copy, Debug)]
pub struct Shadowing {
    /// Path-loss exponent β (paper: 5).
    pub path_loss_exponent: f64,
    /// Shadowing deviation σ in dB (paper: 8).
    pub sigma_db: f64,
    /// Reference distance d0 in metres (1 m).
    pub reference_distance: f64,
    /// Free-space path loss at the reference distance, dB.
    pub pl_at_reference_db: f64,
}

impl Shadowing {
    /// The paper's parameters: β = 5, σ = 8 dB, d0 = 1 m, 2.4 GHz reference
    /// loss ≈ 40.05 dB.
    pub fn paper() -> Self {
        Shadowing {
            path_loss_exponent: 5.0,
            sigma_db: 8.0,
            reference_distance: 1.0,
            // 20·log10(4π·d0/λ) with λ = c/2.4 GHz ≈ 0.125 m.
            pl_at_reference_db: 40.05,
        }
    }

    /// Mean received power (dBm) at distance `metres` for transmit power
    /// `tx_dbm`, i.e. the deterministic part of the model.
    ///
    /// Distances below the reference distance are clamped to it.
    pub fn mean_rx_dbm(&self, tx_dbm: f64, metres: f64) -> f64 {
        let d = metres.max(self.reference_distance);
        tx_dbm
            - self.pl_at_reference_db
            - 10.0 * self.path_loss_exponent * (d / self.reference_distance).log10()
    }

    /// One random received-power sample (dBm): the mean plus a fresh
    /// Gaussian shadowing term.
    pub fn sample_rx_dbm(&self, tx_dbm: f64, metres: f64, rng: &mut StreamRng) -> f64 {
        self.mean_rx_dbm(tx_dbm, metres) + self.sigma_db * rng.standard_normal()
    }

    /// Analytic probability that a sample exceeds `threshold_dbm`:
    /// Φ((mean − threshold)/σ).
    pub fn success_probability(&self, tx_dbm: f64, metres: f64, threshold_dbm: f64) -> f64 {
        self.success_probability_at_mean(self.mean_rx_dbm(tx_dbm, metres), threshold_dbm)
    }

    /// [`Shadowing::success_probability`] from an already computed mean
    /// received power, so a caller holding a cached mean skips the `log10`
    /// and gets the same bits.
    pub fn success_probability_at_mean(&self, mean_rx_dbm: f64, threshold_dbm: f64) -> f64 {
        normal_cdf((mean_rx_dbm - threshold_dbm) / self.sigma_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TX: f64 = 24.487; // 281 mW

    #[test]
    fn mean_decays_50db_per_decade() {
        let s = Shadowing::paper();
        let at_1 = s.mean_rx_dbm(TX, 1.0);
        let at_10 = s.mean_rx_dbm(TX, 10.0);
        assert!((at_1 - at_10 - 50.0).abs() < 1e-9, "β=5 → 50 dB per decade");
    }

    #[test]
    fn sub_reference_distances_clamp() {
        let s = Shadowing::paper();
        assert_eq!(s.mean_rx_dbm(TX, 0.0), s.mean_rx_dbm(TX, 1.0));
        assert_eq!(s.mean_rx_dbm(TX, 0.5), s.mean_rx_dbm(TX, 1.0));
    }

    #[test]
    fn success_probability_half_at_threshold() {
        let s = Shadowing::paper();
        let d = 10.0;
        let thresh = s.mean_rx_dbm(TX, d);
        assert!((s.success_probability(TX, d, thresh) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empirical_matches_analytic() {
        let s = Shadowing::paper();
        let mut rng = StreamRng::derive(3, "shadow");
        let d = 8.0;
        let thresh = -65.0;
        let n = 50_000;
        let hits =
            (0..n).filter(|_| s.sample_rx_dbm(TX, d, &mut rng) >= thresh).count() as f64 / n as f64;
        let analytic = s.success_probability(TX, d, thresh);
        assert!((hits - analytic).abs() < 0.01, "empirical {hits} vs analytic {analytic}");
    }

    proptest! {
        /// Delivery probability is monotone non-increasing with distance.
        #[test]
        fn prop_monotone_in_distance(d1 in 1.0f64..60.0, d2 in 1.0f64..60.0) {
            let s = Shadowing::paper();
            let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(
                s.success_probability(TX, near, -65.0) + 1e-12
                    >= s.success_probability(TX, far, -65.0)
            );
        }

        /// Lowering the threshold can only help.
        #[test]
        fn prop_monotone_in_threshold(d in 1.0f64..60.0) {
            let s = Shadowing::paper();
            prop_assert!(
                s.success_probability(TX, d, -78.0) + 1e-12
                    >= s.success_probability(TX, d, -65.0)
            );
        }
    }
}
