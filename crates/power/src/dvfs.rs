//! Dynamic voltage and frequency scaling (paper §5.2).
//!
//! The TM3270 is a fully static design with asynchronous bus interfaces,
//! so "the operating frequency can be changed on the fly, independent of
//! the rest of the SoC"; functional operation is guaranteed down to 0.8 V
//! at a reduced maximum frequency. This module picks the operating point
//! for a real-time workload: the minimum frequency that meets the
//! deadline, and the lowest voltage that supports that frequency.

use crate::PowerModel;
use tm3270_core::RunStats;

/// A voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage in volts.
    pub voltage: f64,
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
    /// Estimated power in mW for the rated workload.
    pub power_mw: f64,
}

/// The voltage/frequency envelope of the realization (§5 and §5.2):
/// 350 MHz at the worst-case corner at nominal voltage; a conservative
/// linear frequency derating down to the guaranteed-functional 0.8 V.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Nominal supply voltage (1.2 V).
    pub v_nominal: f64,
    /// Lowest guaranteed-functional voltage (0.8 V).
    pub v_min: f64,
    /// Maximum frequency at the nominal voltage (350 MHz).
    pub f_max_nominal: f64,
    /// Maximum frequency at `v_min` (derated).
    pub f_max_vmin: f64,
}

impl Envelope {
    /// The paper's 90 nm low-power realization.
    pub fn nm90() -> Envelope {
        Envelope {
            v_nominal: 1.2,
            v_min: 0.8,
            f_max_nominal: 350.0,
            f_max_vmin: 175.0,
        }
    }

    /// The maximum frequency supported at `voltage` (linear interpolation
    /// between the two characterized points).
    pub fn f_max(&self, voltage: f64) -> f64 {
        let v = voltage.clamp(self.v_min, self.v_nominal);
        let t = (v - self.v_min) / (self.v_nominal - self.v_min);
        self.f_max_vmin + t * (self.f_max_nominal - self.f_max_vmin)
    }

    /// The minimum voltage supporting `freq_mhz`, or `None` if the
    /// frequency exceeds the envelope.
    pub fn v_min_for(&self, freq_mhz: f64) -> Option<f64> {
        if freq_mhz > self.f_max_nominal {
            return None;
        }
        if freq_mhz <= self.f_max_vmin {
            return Some(self.v_min);
        }
        let t = (freq_mhz - self.f_max_vmin) / (self.f_max_nominal - self.f_max_vmin);
        Some(self.v_min + t * (self.v_nominal - self.v_min))
    }
}

/// The frequency required to execute `stats.cycles` of work within
/// `budget_us` microseconds of real time (the paper's "MP3 decoding is
/// performed in approximately 8 MHz").
pub fn required_frequency_mhz(stats: &RunStats, budget_us: f64) -> f64 {
    stats.cycles as f64 / budget_us
}

/// Picks the lowest-power operating point that meets a real-time budget.
///
/// Returns `None` if the workload does not fit the envelope even at the
/// maximum frequency.
pub fn operating_point(
    model: &PowerModel,
    envelope: &Envelope,
    stats: &RunStats,
    budget_us: f64,
) -> Option<OperatingPoint> {
    let f = required_frequency_mhz(stats, budget_us);
    let v = envelope.v_min_for(f)?;
    Some(OperatingPoint {
        voltage: v,
        freq_mhz: f,
        power_mw: model.power_mw(stats, v, f),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activity;
    use tm3270_core::RunStats;

    fn stats(cycles: u64) -> RunStats {
        RunStats {
            cycles,
            instrs: cycles,
            ops: cycles * 4,
            exec_ops: cycles * 4,
            branches: 0,
            taken_branches: 0,
            ifetch_stall_cycles: 0,
            data_stall_cycles: 0,
            freq_mhz: 350,
            mem: Default::default(),
        }
    }

    fn model() -> PowerModel {
        // Reference with the same activity shape as `stats`, so module
        // activities are 1 except where noted.
        let reference = stats(1000);
        let _ = Activity::from_stats(&reference);
        PowerModel::calibrated(&reference)
    }

    #[test]
    fn envelope_endpoints() {
        let e = Envelope::nm90();
        assert_eq!(e.f_max(1.2), 350.0);
        assert_eq!(e.f_max(0.8), 175.0);
        assert_eq!(e.v_min_for(175.0), Some(0.8));
        assert_eq!(e.v_min_for(350.0), Some(1.2));
        assert_eq!(e.v_min_for(351.0), None);
    }

    #[test]
    fn mp3_style_workload_runs_at_vmin() {
        // A workload needing ~8 MHz (paper §5.2) sits far below the 0.8 V
        // frequency ceiling, so it runs at the minimum voltage.
        let m = model();
        let e = Envelope::nm90();
        // 8 cycles of work per microsecond = 8 MHz requirement.
        let s = stats(8_000_000);
        let op = operating_point(&m, &e, &s, 1_000_000.0).expect("fits");
        assert!((op.freq_mhz - 8.0).abs() < 1e-9);
        assert_eq!(op.voltage, 0.8);
        // Single-digit milliwatts, like the paper's 3.32 mW.
        assert!(op.power_mw < 10.0, "got {} mW", op.power_mw);
    }

    #[test]
    fn tight_deadlines_need_more_voltage() {
        let m = model();
        let e = Envelope::nm90();
        let s = stats(300_000_000);
        // 300M cycles in 1 s -> 300 MHz: above the 0.8 V ceiling.
        let op = operating_point(&m, &e, &s, 1_000_000.0).expect("fits");
        assert!(op.voltage > 0.8 && op.voltage <= 1.2);
        // And in 0.5 s -> 600 MHz: impossible.
        assert!(operating_point(&m, &e, &s, 500_000.0).is_none());
    }

    #[test]
    fn lower_voltage_points_use_quadratically_less_power() {
        let m = model();
        let e = Envelope::nm90();
        let s = stats(100_000_000); // 100 MHz for a 1 s budget
        let op = operating_point(&m, &e, &s, 1_000_000.0).unwrap();
        assert_eq!(op.voltage, 0.8);
        // Same frequency at nominal voltage costs (1.2/0.8)^2 = 2.25x.
        let nominal = m.power_mw(&s, 1.2, op.freq_mhz);
        assert!((nominal / op.power_mw - 2.25).abs() < 0.05);
    }
}
