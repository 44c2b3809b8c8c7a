//! Quality Contracts: a QoS profit function, a QoD profit function, and the
//! rule for combining them.
//!
//! The paper considers two composition modes (Section 2.2):
//!
//! * **QoS-Dependent** — QoD profit only counts when the QoS profit is
//!   positive (the query met its response-time deadline).
//! * **QoS-Independent** — QoD profit counts regardless of QoS, but the
//!   query must still commit before a *maximum lifetime* deadline so it
//!   cannot linger in the system forever. This is the mode used in the
//!   paper's evaluation and the default here.

use crate::profit::ProfitFn;

/// How QoS and QoD profits combine into the query's total profit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Composition {
    /// QoD profit is earned regardless of QoS profit (paper's default).
    #[default]
    QoSIndependent,
    /// QoD profit is earned only if the QoS profit is strictly positive.
    QoSDependent,
}

/// A user's Quality Contract for a single query.
///
/// Identified in the step/linear case by the paper's four parameters
/// (`qosmax`, `rtmax`, `qodmax`, `uumax`), but any non-increasing
/// [`ProfitFn`] pair is accepted.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QualityContract {
    /// Profit as a function of response time in **milliseconds**.
    pub qos: ProfitFn,
    /// Profit as a function of staleness (unapplied updates by default).
    pub qod: ProfitFn,
    /// How the two profits combine.
    pub composition: Composition,
    /// Maximum lifetime in milliseconds: a query that has not committed
    /// this long after arrival is aborted and earns nothing. `None` uses
    /// [`QualityContract::default_lifetime_ms`].
    pub lifetime_ms: Option<f64>,
}

/// Lifetime floor, in milliseconds. Calibrated so that heavily queued
/// queries still commit: the paper's FIFO-UH averages ~11.6 s response
/// times while UH still earns near-maximal QoD profit, so lifetimes must
/// be minutes, not seconds.
const FALLBACK_LIFETIME_MS: f64 = 180_000.0;

/// Lifetime multiplier over `rtmax`; see DESIGN.md ("Assumptions").
const LIFETIME_RTMAX_FACTOR: f64 = 1_800.0;

impl QualityContract {
    /// A step QC, the shape of the paper's Figure 2.
    ///
    /// Earns `qosmax` if the query answers strictly within `rtmax_ms`
    /// milliseconds, and `qodmax` if its staleness is strictly below
    /// `uumax` unapplied updates (so `uumax = 1` demands perfectly fresh
    /// data).
    pub fn step(qosmax: f64, rtmax_ms: f64, qodmax: f64, uumax: u32) -> Self {
        QualityContract {
            qos: if qosmax > 0.0 {
                ProfitFn::step(qosmax, rtmax_ms)
            } else {
                ProfitFn::Zero
            },
            qod: if qodmax > 0.0 {
                ProfitFn::step(qodmax, uumax as f64)
            } else {
                ProfitFn::Zero
            },
            composition: Composition::QoSIndependent,
            lifetime_ms: None,
        }
    }

    /// A linear QC, the shape of the paper's Figure 3: profit decays
    /// linearly to zero at `rtmax_ms` (QoS) and `uumax` (QoD).
    pub fn linear(qosmax: f64, rtmax_ms: f64, qodmax: f64, uumax: u32) -> Self {
        QualityContract {
            qos: if qosmax > 0.0 {
                ProfitFn::linear(qosmax, rtmax_ms)
            } else {
                ProfitFn::Zero
            },
            qod: if qodmax > 0.0 {
                ProfitFn::linear(qodmax, uumax as f64)
            } else {
                ProfitFn::Zero
            },
            composition: Composition::QoSIndependent,
            lifetime_ms: None,
        }
    }

    /// A contract from explicit profit functions.
    pub fn from_fns(qos: ProfitFn, qod: ProfitFn) -> Self {
        QualityContract {
            qos,
            qod,
            composition: Composition::QoSIndependent,
            lifetime_ms: None,
        }
    }

    /// Sets the composition mode (builder style).
    pub fn with_composition(mut self, composition: Composition) -> Self {
        self.composition = composition;
        self
    }

    /// Sets an explicit lifetime in milliseconds (builder style).
    ///
    /// # Panics
    /// Panics if the lifetime is not positive and finite.
    pub fn with_lifetime_ms(mut self, lifetime_ms: f64) -> Self {
        assert!(
            lifetime_ms.is_finite() && lifetime_ms > 0.0,
            "lifetime must be positive and finite"
        );
        self.lifetime_ms = Some(lifetime_ms);
        self
    }

    /// Maximum QoS profit (`qosmax` in the paper's Table 1).
    pub fn qosmax(&self) -> f64 {
        self.qos.max_profit()
    }

    /// Maximum QoD profit (`qodmax`).
    pub fn qodmax(&self) -> f64 {
        self.qod.max_profit()
    }

    /// Maximum total profit (`qosmax + qodmax`).
    pub fn total_max(&self) -> f64 {
        self.qosmax() + self.qodmax()
    }

    /// The relative response-time deadline (`rtmax`) in milliseconds, if
    /// the QoS function imposes one.
    pub fn rtmax_ms(&self) -> Option<f64> {
        if self.qos.is_zero() {
            None
        } else {
            self.qos.zero_point()
        }
    }

    /// QoS profit for a given response time in milliseconds.
    pub fn qos_profit(&self, response_time_ms: f64) -> f64 {
        self.qos.value_at(response_time_ms)
    }

    /// QoD profit for a given (aggregated) staleness.
    pub fn qod_profit(&self, staleness: f64) -> f64 {
        self.qod.value_at(staleness)
    }

    /// The effective lifetime deadline in milliseconds after arrival:
    /// explicit lifetime if set, otherwise `max(1800 * rtmax, 180 s)` —
    /// generous enough that heavily queued queries (FIFO-UH averages
    /// ~11.6 s response times in the paper, with QoD profit still
    /// earned) commit, but bounded so nothing lingers forever.
    pub fn default_lifetime_ms(&self) -> f64 {
        self.lifetime_ms.unwrap_or_else(|| {
            self.rtmax_ms()
                .map(|rt| (rt * LIFETIME_RTMAX_FACTOR).max(FALLBACK_LIFETIME_MS))
                .unwrap_or(FALLBACK_LIFETIME_MS)
        })
    }

    /// The `(QoS, QoD)` profit split for a committed query, applying the
    /// composition mode and the lifetime deadline. Both components are
    /// zero when the response time reaches the lifetime — such a query
    /// should have been aborted by the scheduler.
    pub fn profit_split(&self, response_time_ms: f64, staleness: f64) -> (f64, f64) {
        if response_time_ms >= self.default_lifetime_ms() {
            return (0.0, 0.0);
        }
        let qos = self.qos_profit(response_time_ms);
        let qod = match self.composition {
            Composition::QoSIndependent => self.qod_profit(staleness),
            Composition::QoSDependent => {
                // "QoD profit is considered only if the QoS profit is more
                // than zero" — for a contract with no QoS side at all the
                // condition is vacuous and QoD still counts.
                if qos > 0.0 || self.qos.is_zero() {
                    self.qod_profit(staleness)
                } else {
                    0.0
                }
            }
        };
        (qos, qod)
    }

    /// How an executed query is answered — the one rule every driver
    /// applies: `None` when its response time reached the lifetime (the
    /// query expired and earns nothing, never an answer worth zero),
    /// otherwise its [`QualityContract::profit_split`].
    pub fn answer(&self, response_time_ms: f64, staleness: f64) -> Option<(f64, f64)> {
        if response_time_ms >= self.default_lifetime_ms() {
            return None;
        }
        Some(self.profit_split(response_time_ms, staleness))
    }

    /// Total profit for a committed query given its response time and
    /// staleness — the sum of [`QualityContract::profit_split`].
    pub fn total_profit(&self, response_time_ms: f64, staleness: f64) -> f64 {
        let (qos, qod) = self.profit_split(response_time_ms, staleness);
        qos + qod
    }

    /// The Value-over-Relative-Deadline priority (Haritsa et al.) used by
    /// the UH/QH baselines and QUTS' low level:
    /// `(qosmax + qodmax) / rtmax`. Contracts with no response-time
    /// deadline fall back to dividing by the lifetime.
    pub fn vrd_priority(&self) -> f64 {
        let deadline = self
            .rtmax_ms()
            .unwrap_or_else(|| self.default_lifetime_ms());
        self.total_max() / deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_step_example() {
        // qosmax=$1, rtmax=50ms, qodmax=$2, uumax=1
        let qc = QualityContract::step(1.0, 50.0, 2.0, 1);
        assert_eq!(qc.qosmax(), 1.0);
        assert_eq!(qc.qodmax(), 2.0);
        assert_eq!(qc.total_max(), 3.0);
        assert_eq!(qc.rtmax_ms(), Some(50.0));
        assert_eq!(qc.qos_profit(49.0), 1.0);
        assert_eq!(qc.qos_profit(50.0), 0.0);
        assert_eq!(qc.qod_profit(0.0), 2.0);
        assert_eq!(qc.qod_profit(1.0), 0.0);
    }

    #[test]
    fn figure3_linear_example() {
        // qosmax=$2, rtmax=50ms, qodmax=$1, uumax=2
        let qc = QualityContract::linear(2.0, 50.0, 1.0, 2);
        assert!((qc.qos_profit(25.0) - 1.0).abs() < 1e-12);
        assert!((qc.qod_profit(1.0) - 0.5).abs() < 1e-12);
        assert_eq!(qc.qod_profit(2.0), 0.0);
    }

    #[test]
    fn qos_independent_earns_qod_after_deadline() {
        let qc = QualityContract::step(1.0, 50.0, 2.0, 1);
        // Missed the deadline but within lifetime, fresh data: QoD only.
        assert_eq!(qc.total_profit(200.0, 0.0), 2.0);
    }

    #[test]
    fn qos_dependent_forfeits_qod_after_deadline() {
        let qc =
            QualityContract::step(1.0, 50.0, 2.0, 1).with_composition(Composition::QoSDependent);
        assert_eq!(qc.total_profit(200.0, 0.0), 0.0);
        assert_eq!(qc.total_profit(20.0, 0.0), 3.0);
    }

    #[test]
    fn lifetime_bounds_profit() {
        let qc = QualityContract::step(1.0, 50.0, 2.0, 1);
        assert_eq!(qc.default_lifetime_ms(), 180_000.0); // max(1800*50, 180s)
        assert_eq!(qc.total_profit(180_000.0, 0.0), 0.0);
        assert_eq!(qc.total_profit(179_999.0, 0.0), 2.0); // QoD only, in time
        let qc = QualityContract::step(1.0, 200.0, 2.0, 1);
        assert_eq!(qc.default_lifetime_ms(), 360_000.0); // 1800 * 200
    }

    #[test]
    fn explicit_lifetime_wins() {
        let qc = QualityContract::step(1.0, 50.0, 2.0, 1).with_lifetime_ms(100.0);
        assert_eq!(qc.default_lifetime_ms(), 100.0);
        assert_eq!(qc.total_profit(99.0, 0.0), 2.0);
        assert_eq!(qc.total_profit(100.0, 0.0), 0.0);
    }

    #[test]
    fn answer_expires_at_the_lifetime() {
        for comp in [Composition::QoSIndependent, Composition::QoSDependent] {
            let qc = QualityContract::step(1.0, 50.0, 2.0, 1)
                .with_lifetime_ms(100.0)
                .with_composition(comp);
            assert_eq!(qc.answer(100.0, 0.0), None, "{comp:?}");
            assert_eq!(qc.answer(250.0, 0.0), None, "{comp:?}");
            let below = 100.0f64.next_down();
            assert_eq!(
                qc.answer(below, 0.0),
                Some(qc.profit_split(below, 0.0)),
                "{comp:?}"
            );
            assert_eq!(qc.answer(20.0, 0.0), Some((1.0, 2.0)), "{comp:?}");
        }
        // Past the QoS deadline, inside the lifetime: the compositions
        // differ, and `answer` is still an answer, not an expiry.
        let qc = QualityContract::step(1.0, 50.0, 2.0, 1).with_lifetime_ms(100.0);
        assert_eq!(qc.answer(60.0, 0.0), Some((0.0, 2.0)));
        let qc = qc.with_composition(Composition::QoSDependent);
        assert_eq!(qc.answer(60.0, 0.0), Some((0.0, 0.0)));
    }

    #[test]
    fn vrd_priority_matches_paper_definition() {
        let qc = QualityContract::step(10.0, 50.0, 30.0, 1);
        assert!((qc.vrd_priority() - 40.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn vrd_without_deadline_uses_lifetime() {
        let qc = QualityContract::step(0.0, 50.0, 30.0, 1);
        assert_eq!(qc.rtmax_ms(), None);
        assert!((qc.vrd_priority() - 30.0 / 180_000.0).abs() < 1e-12);
    }

    #[test]
    fn zero_profit_contract() {
        let qc = QualityContract::step(0.0, 1.0, 0.0, 1);
        assert_eq!(qc.total_max(), 0.0);
        assert_eq!(qc.total_profit(0.0, 0.0), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_qc() -> impl Strategy<Value = QualityContract> {
        (
            0.0..100.0f64,
            1.0..1000.0f64,
            0.0..100.0f64,
            1u32..20,
            proptest::bool::ANY,
        )
            .prop_map(|(qos, rt, qod, uu, step)| {
                if step {
                    QualityContract::step(qos, rt, qod, uu)
                } else {
                    QualityContract::linear(qos, rt, qod, uu)
                }
            })
    }

    proptest! {
        #[test]
        fn total_profit_bounded(qc in arbitrary_qc(), rt in 0.0..1e5f64, uu in 0.0..100.0f64) {
            let p = qc.total_profit(rt, uu);
            prop_assert!(p >= 0.0);
            prop_assert!(p <= qc.total_max() + 1e-9);
        }

        #[test]
        fn faster_is_never_worse(qc in arbitrary_qc(), rt in 0.0..1e4f64, dt in 0.0..1e4f64, uu in 0.0..100.0f64) {
            prop_assert!(qc.total_profit(rt, uu) + 1e-9 >= qc.total_profit(rt + dt, uu));
        }

        #[test]
        fn fresher_is_never_worse(qc in arbitrary_qc(), rt in 0.0..1e4f64, uu in 0.0..100.0f64, du in 0.0..100.0f64) {
            prop_assert!(qc.total_profit(rt, uu) + 1e-9 >= qc.total_profit(rt, uu + du));
        }

        #[test]
        fn perfect_service_earns_total_max_within_deadline(qc in arbitrary_qc()) {
            prop_assert!((qc.total_profit(0.0, 0.0) - qc.total_max()).abs() < 1e-9);
        }

        #[test]
        fn dependent_never_exceeds_independent(qc in arbitrary_qc(), rt in 0.0..1e4f64, uu in 0.0..100.0f64) {
            let indep = qc.clone().with_composition(Composition::QoSIndependent);
            let dep = qc.with_composition(Composition::QoSDependent);
            prop_assert!(dep.total_profit(rt, uu) <= indep.total_profit(rt, uu) + 1e-9);
        }

        #[test]
        fn split_components_are_non_increasing(
            qc in arbitrary_qc(),
            rt in 0.0..1e4f64,
            dt in 0.0..1e4f64,
            uu in 0.0..100.0f64,
            du in 0.0..100.0f64,
        ) {
            // Each side of the split, not just the sum, must never
            // reward slower or staler service.
            let (qos_a, qod_a) = qc.profit_split(rt, uu);
            let (qos_b, _) = qc.profit_split(rt + dt, uu);
            prop_assert!(qos_b <= qos_a + 1e-9, "QoS grew with response time");
            let (_, qod_c) = qc.profit_split(rt, uu + du);
            prop_assert!(qod_c <= qod_a + 1e-9, "QoD grew with staleness");
        }

        #[test]
        fn no_qos_profit_at_or_past_rtmax(qc in arbitrary_qc(), slack in 0.0..1e4f64) {
            // Both generated shapes have a cutoff; at and beyond it the
            // QoS side is worth exactly nothing.
            let rtmax = qc.rtmax_ms().expect("generated contracts have a cutoff");
            prop_assert_eq!(qc.qos_profit(rtmax + slack), 0.0);
        }

        #[test]
        fn composition_respects_the_lifetime(
            qc in arbitrary_qc(),
            lifetime in 1.0..1e5f64,
            slack in 0.0..1e4f64,
            uu in 0.0..100.0f64,
        ) {
            // Past the maximum query lifetime the whole contract is
            // void — no composition rule may resurrect QoD profit for
            // an answer that arrived after the query expired.
            for comp in [Composition::QoSIndependent, Composition::QoSDependent] {
                let qc = qc.clone().with_lifetime_ms(lifetime).with_composition(comp);
                prop_assert_eq!(qc.profit_split(lifetime + slack, uu), (0.0, 0.0));
                prop_assert_eq!(qc.total_profit(lifetime + slack, uu), 0.0);
            }
        }

        #[test]
        fn answer_is_the_split_below_the_lifetime(
            qc in arbitrary_qc(),
            frac in 0.0..1.0f64,
            uu in 0.0..100.0f64,
            dependent in proptest::bool::ANY,
        ) {
            let comp = if dependent {
                Composition::QoSDependent
            } else {
                Composition::QoSIndependent
            };
            let qc = qc.with_composition(comp);
            let lifetime = qc.default_lifetime_ms();
            let rt = lifetime * frac;
            if rt < lifetime {
                prop_assert_eq!(qc.answer(rt, uu), Some(qc.profit_split(rt, uu)));
            }
            prop_assert_eq!(qc.answer(lifetime, uu), None);
        }

        #[test]
        fn default_lifetime_caps_every_composition(qc in arbitrary_qc(), uu in 0.0..100.0f64) {
            // Same property through the derived deadline: at the
            // default lifetime the contract earns zero even though the
            // cutoff alone may still be satisfied.
            let deadline = qc.default_lifetime_ms();
            prop_assert_eq!(qc.profit_split(deadline, uu), (0.0, 0.0));
        }
    }
}
