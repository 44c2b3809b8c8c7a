//! Profit tracked over time, split into gained-vs-maximum and QoS-vs-QoD.
//!
//! Figure 9 of the paper plots four series: total gained profit `Q` against
//! the submitted maximum `Qmax`, and the same split per dimension
//! (`QOS`/`QOSmax`, `QOD`/`QODmax`), all binned per second and smoothed
//! with a 5-second moving window. [`ProfitSeries`] captures the raw
//! events; the smoothing lives in [`crate::timeseries`].

use crate::timeseries::BinnedSeries;

/// Time-binned profit bookkeeping for one scheduler run.
///
/// *Submitted* maxima are recorded at query arrival (the potential the
/// system was offered); *gained* profit is recorded at query commit. All
/// four series share one bin width.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ProfitSeries {
    qos_max: BinnedSeries,
    qod_max: BinnedSeries,
    qos_gained: BinnedSeries,
    qod_gained: BinnedSeries,
}

impl ProfitSeries {
    /// A profit series with the given time-bin width (simulator time
    /// units; use 1 s worth of µs to match the paper's plots).
    pub fn new(bin_width: u64) -> Self {
        ProfitSeries {
            qos_max: BinnedSeries::new(bin_width),
            qod_max: BinnedSeries::new(bin_width),
            qos_gained: BinnedSeries::new(bin_width),
            qod_gained: BinnedSeries::new(bin_width),
        }
    }

    /// Records a query submission with its contract maxima at time `t`.
    pub fn submit(&mut self, t: u64, qosmax: f64, qodmax: f64) {
        self.qos_max.record(t, qosmax);
        self.qod_max.record(t, qodmax);
    }

    /// Records profit gained by a committing query at time `t`.
    pub fn gain(&mut self, t: u64, qos: f64, qod: f64) {
        self.qos_gained.record(t, qos);
        self.qod_gained.record(t, qod);
    }

    /// Per-bin submitted `QOSmax`.
    pub fn qos_max(&self) -> &BinnedSeries {
        &self.qos_max
    }

    /// Per-bin submitted `QODmax`.
    pub fn qod_max(&self) -> &BinnedSeries {
        &self.qod_max
    }

    /// Per-bin gained `QOS`.
    pub fn qos_gained(&self) -> &BinnedSeries {
        &self.qos_gained
    }

    /// Per-bin gained `QOD`.
    pub fn qod_gained(&self) -> &BinnedSeries {
        &self.qod_gained
    }

    /// Per-bin `Qmax = QOSmax + QODmax`, zero-padded to a common length.
    pub fn q_max_bins(&self) -> Vec<f64> {
        zip_sum(self.qos_max.sums(), self.qod_max.sums())
    }

    /// Per-bin `Q = QOS + QOD`, zero-padded to a common length.
    pub fn q_gained_bins(&self) -> Vec<f64> {
        zip_sum(self.qos_gained.sums(), self.qod_gained.sums())
    }
}

fn zip_sum(a: &[f64], b: &[f64]) -> Vec<f64> {
    let n = a.len().max(b.len());
    (0..n)
        .map(|i| a.get(i).copied().unwrap_or(0.0) + b.get(i).copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_and_gain_land_in_bins() {
        let mut p = ProfitSeries::new(100);
        p.submit(0, 10.0, 20.0);
        p.submit(150, 5.0, 5.0);
        p.gain(120, 10.0, 0.0);
        assert_eq!(p.qos_max().sums(), &[10.0, 5.0]);
        assert_eq!(p.qod_max().sums(), &[20.0, 5.0]);
        assert_eq!(p.qos_gained().sums(), &[0.0, 10.0]);
        assert_eq!(p.q_max_bins(), vec![30.0, 10.0]);
        assert_eq!(p.q_gained_bins(), vec![0.0, 10.0]);
    }

    #[test]
    fn overall_pct() {
        let mut p = ProfitSeries::new(10);
        p.submit(0, 50.0, 50.0);
        p.gain(5, 25.0, 50.0);
        assert_eq!(p.q_gained_bins(), vec![75.0]);
        assert_eq!(p.q_max_bins(), vec![100.0]);
    }

    #[test]
    fn empty_has_zero_pct() {
        let p = ProfitSeries::new(10);
        assert!(p.q_max_bins().is_empty());
        assert!(p.q_gained_bins().is_empty());
    }

    #[test]
    fn uneven_series_lengths_are_padded() {
        let mut p = ProfitSeries::new(10);
        p.submit(0, 1.0, 1.0);
        p.gain(35, 0.5, 0.5); // gained series is longer
        assert_eq!(p.q_max_bins().len(), 1);
        assert_eq!(p.q_gained_bins(), vec![0.0, 0.0, 0.0, 1.0]);
    }
}
