//! The ρ model: how much CPU should queries get?
//!
//! Section 4.1 of the paper models the total profit as a function of the
//! query CPU share ρ:
//!
//! ```text
//! QOS  ≈ QOSmax · ρ                      (Eq. 1)
//! QOD  ≈ QODmax · ρ · (1 − ρ)            (Eq. 2)
//! Q    ≈ QOSmax · ρ + QODmax · ρ · (1−ρ) (Eq. 3)
//! ```
//!
//! QoS profit grows with query CPU; QoD profit needs update CPU *and*
//! queries must still commit before their lifetime, hence the `ρ·(1−ρ)`
//! term. Setting `dQ/dρ = 0` gives the closed-form optimum
//!
//! ```text
//! ρ* = min( QOSmax / (2·QODmax) + 0.5 , 1 )   (Eq. 4)
//! ```
//!
//! — never below 0.5: queries should hold the higher priority more than
//! half the time under this model. [`RhoController`] adds the paper's
//! aging scheme (Eq. 5–6): at each adaptation boundary the new optimum is
//! blended with the previous value, `ρ_k = (1−α)·ρ_{k−1} + α·ρ_new`.

use crate::quts::QutsConfig;

/// The closed-form optimal query CPU share of Eq. 4.
///
/// Degenerate inputs: with no QoD potential the optimum is 1 (all CPU to
/// queries); with no profit at all there is nothing to optimise and the
/// neutral 0.75 (midpoint of the feasible `[0.5, 1]` band) is returned.
pub(crate) fn optimal_rho(qos_max: f64, qod_max: f64) -> f64 {
    debug_assert!(qos_max >= 0.0 && qod_max >= 0.0);
    if qod_max <= 0.0 {
        if qos_max <= 0.0 {
            return 0.75;
        }
        return 1.0;
    }
    (qos_max / (2.0 * qod_max) + 0.5).min(1.0)
}

/// Smoothed, periodically re-optimised ρ (Eq. 5–6).
#[derive(Debug, Clone)]
pub(crate) struct RhoController {
    alpha: f64,
    rho: f64,
}

impl RhoController {
    /// A controller with aging factor `alpha` and an initial ρ.
    ///
    /// # Panics
    /// Panics unless `alpha ∈ (0, 1]` and `rho ∈ [0, 1]` (the
    /// [`QutsConfig::check`] rule).
    pub fn new(alpha: f64, initial_rho: f64) -> Self {
        let knobs = QutsConfig {
            alpha,
            initial_rho,
            ..QutsConfig::default()
        };
        knobs.check().unwrap_or_else(|why| panic!("{why}"));
        RhoController {
            alpha,
            rho: initial_rho,
        }
    }

    /// The current smoothed ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Adaptation-boundary step: feeds the previous period's submitted
    /// `QOSmax` / `QODmax` sums, returns the new smoothed ρ.
    ///
    /// A period in which nothing was submitted carries no information and
    /// leaves ρ unchanged (rather than dragging it toward a default).
    pub fn adapt(&mut self, qos_max: f64, qod_max: f64) -> f64 {
        if qos_max > 0.0 || qod_max > 0.0 {
            self.rho = (1.0 - self.alpha) * self.rho + self.alpha * optimal_rho(qos_max, qod_max);
        }
        self.rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_equation_4() {
        // Balanced preferences: rho = 0.5/(2*0.5)+0.5 = 1.0.
        assert_eq!(optimal_rho(0.5, 0.5), 1.0);
        // QoD-heavy: QOSmax% = 0.1, QODmax% = 0.9 → 0.1/1.8 + 0.5 ≈ 0.556.
        assert!((optimal_rho(0.1, 0.9) - (0.1 / 1.8 + 0.5)).abs() < 1e-12);
        // Strong QoS: clamps at 1.
        assert_eq!(optimal_rho(10.0, 1.0), 1.0);
    }

    #[test]
    fn rho_never_below_half_with_positive_profit() {
        for qos in [0.0, 0.1, 1.0, 10.0] {
            for qod in [0.1, 1.0, 10.0] {
                let r = optimal_rho(qos, qod);
                assert!((0.5..=1.0).contains(&r), "rho {r} for ({qos}, {qod})");
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(optimal_rho(1.0, 0.0), 1.0);
        assert_eq!(optimal_rho(0.0, 0.0), 0.75);
        assert!((optimal_rho(0.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn controller_smooths_toward_target() {
        let mut c = RhoController::new(0.5, 0.6);
        // Target is 1.0 (QoS-only): each step halves the distance.
        c.adapt(10.0, 0.0);
        assert!((c.rho() - 0.8).abs() < 1e-12);
        c.adapt(10.0, 0.0);
        assert!((c.rho() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_period_leaves_rho_unchanged() {
        let mut c = RhoController::new(0.3, 0.77);
        c.adapt(0.0, 0.0);
        assert_eq!(c.rho(), 0.77);
    }

    #[test]
    fn alpha_one_jumps_to_target() {
        let mut c = RhoController::new(1.0, 0.5);
        c.adapt(1.0, 1.0);
        assert_eq!(c.rho(), 1.0);
        c.adapt(0.0, 1.0);
        assert_eq!(c.rho(), 0.5);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_rejected() {
        let _ = RhoController::new(0.0, 0.5);
    }

    #[test]
    fn formula_clamps_to_upper_band_edge() {
        // Whenever QOSmax >= QODmax the raw formula reaches >= 1 and the
        // min-clamp must hold it at exactly 1.
        for (qos, qod) in [(1.0, 1.0), (5.0, 5.0), (9.0, 3.0), (100.0, 1.0)] {
            assert_eq!(optimal_rho(qos, qod), 1.0, "({qos}, {qod})");
        }
        // And the open-form region below the clamp is exact.
        assert!((optimal_rho(1.0, 4.0) - 0.625).abs() < 1e-15);
        assert!((optimal_rho(2.0, 8.0) - 0.625).abs() < 1e-15);
    }

    #[test]
    fn formula_never_leaves_band_over_grid() {
        // Dense sweep of the whole non-degenerate input plane: ρ* stays
        // clamped to [0.5, 1] regardless of how lopsided the maxima are.
        for i in 0..=200 {
            for j in 1..=200 {
                let qos = i as f64 * 0.5;
                let qod = j as f64 * 0.5;
                let r = optimal_rho(qos, qod);
                assert!((0.5..=1.0).contains(&r), "rho {r} for ({qos}, {qod})");
            }
        }
    }

    #[test]
    fn qod_zero_gives_all_cpu_to_queries() {
        // QODmax = 0 is the paper's degenerate "nobody cares about
        // freshness" case: every positive QOSmax pins ρ* at 1.
        for qos in [1e-9, 0.5, 1.0, 42.0, 1e9] {
            assert_eq!(optimal_rho(qos, 0.0), 1.0, "qos {qos}");
        }
        assert_eq!(optimal_rho(0.0, 0.0), 0.75);
    }

    #[test]
    fn empty_periods_never_move_rho_through_a_sequence() {
        // Interleave informative and empty periods: the empty ones are
        // exact no-ops, so the trajectory equals the one with the empty
        // periods deleted.
        let mut with_gaps = RhoController::new(0.4, 0.75);
        let mut without = RhoController::new(0.4, 0.75);
        for (qos, qod) in [(3.0, 1.0), (0.0, 0.0), (1.0, 4.0), (0.0, 0.0), (5.0, 5.0)] {
            with_gaps.adapt(qos, qod);
            if qos > 0.0 || qod > 0.0 {
                without.adapt(qos, qod);
            }
        }
        assert_eq!(with_gaps.rho(), without.rho());
    }

    #[test]
    fn aging_smoothing_pinned_trajectory() {
        // Eq. 5–6 with alpha = 0.25 starting at 0.75 against a constant
        // target of 0.5 (QoD-only periods): rho_k = 0.5 + 0.25 * 0.75^k.
        let mut c = RhoController::new(0.25, 0.75);
        let mut expect = 0.75;
        for _ in 0..8 {
            let got = c.adapt(0.0, 1.0);
            expect = 0.75 * expect + 0.25 * 0.5;
            assert!((got - expect).abs() < 1e-12, "got {got}, expect {expect}");
        }
        // After eight periods the distance to target has decayed by 0.75^8.
        assert!((c.rho() - (0.5 + 0.25 * 0.75f64.powi(8))).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The modelled total profit `Q(ρ)` of Eq. 3, given the submitted maxima.
    fn modeled_profit(rho: f64, qos_max: f64, qod_max: f64) -> f64 {
        qos_max * rho + qod_max * rho * (1.0 - rho)
    }

    proptest! {
        /// Eq. 4 really does maximise Eq. 3 over a fine grid.
        #[test]
        fn closed_form_is_argmax(qos in 0.01..100.0f64, qod in 0.01..100.0f64) {
            let star = optimal_rho(qos, qod);
            let best = modeled_profit(star, qos, qod);
            for i in 0..=1000 {
                let rho = i as f64 / 1000.0;
                prop_assert!(modeled_profit(rho, qos, qod) <= best + 1e-9);
            }
        }

        /// The controller always stays within [0.5, 1] once fed positive
        /// profit, starting from any feasible point in that band.
        #[test]
        fn controller_stays_in_band(
            alpha in 0.01..1.0f64,
            init in 0.5..1.0f64,
            periods in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1..50),
        ) {
            let mut c = RhoController::new(alpha, init);
            for (qos, qod) in periods {
                let r = c.adapt(qos, qod);
                prop_assert!((0.5..=1.0).contains(&r), "rho left the band: {r}");
            }
        }

        /// Repeatedly adapting to a fixed workload converges to its
        /// closed-form optimum.
        #[test]
        fn converges_to_target(qos in 0.01..10.0f64, qod in 0.01..10.0f64) {
            let mut c = RhoController::new(0.3, 0.75);
            for _ in 0..200 {
                c.adapt(qos, qod);
            }
            prop_assert!((c.rho() - optimal_rho(qos, qod)).abs() < 1e-6);
        }
    }
}
