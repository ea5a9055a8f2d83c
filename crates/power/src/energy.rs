//! Energy accounting over a simulated timeline.
//!
//! The full-system simulation is piecewise-constant in power: between two
//! consecutive events every component stays in its state, so the power drawn
//! in that interval is constant. [`EnergyMeter`] integrates those intervals
//! into per-domain energy and derives average power, which is what the
//! paper's figures report.

use apc_sim::{SimDuration, SimTime};

use crate::model::PowerBreakdown;
use crate::units::{Joules, Watts};

/// Cumulative energy per domain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy consumed by the CPU cores.
    pub cores: Joules,
    /// Energy consumed by the CLM domain.
    pub clm: Joules,
    /// Energy consumed by IO controllers, PHYs and memory controllers.
    pub io: Joules,
    /// Energy consumed by the uncore PLLs.
    pub plls: Joules,
    /// Energy consumed by always-on north-cap infrastructure.
    pub uncore_misc: Joules,
    /// Energy consumed by DRAM devices.
    pub dram: Joules,
}

impl EnergyBreakdown {
    /// Total SoC (package) energy.
    #[must_use]
    pub fn soc_total(&self) -> Joules {
        self.cores + self.clm + self.io + self.plls + self.uncore_misc
    }

    /// Total SoC + DRAM energy.
    #[must_use]
    pub fn total(&self) -> Joules {
        self.soc_total() + self.dram
    }
}

/// Integrates piecewise-constant power into energy.
///
/// # Examples
///
/// ```
/// use apc_power::energy::EnergyMeter;
/// use apc_power::model::PowerBreakdown;
/// use apc_power::units::Watts;
/// use apc_sim::SimTime;
///
/// let mut meter = EnergyMeter::new(SimTime::ZERO);
/// let mut power = PowerBreakdown::default();
/// power.cores = Watts(10.0);
///
/// // 10 W held for 1 ms = 10 mJ.
/// meter.advance(SimTime::from_millis(1), &power);
/// assert!((meter.energy().cores.as_f64() - 0.01).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    last: SimTime,
    start: SimTime,
    energy: EnergyBreakdown,
}

impl EnergyMeter {
    /// Creates a meter starting its integration window at `start`.
    #[must_use]
    pub fn new(start: SimTime) -> Self {
        EnergyMeter {
            last: start,
            start,
            energy: EnergyBreakdown::default(),
        }
    }

    /// Advances the meter to `now`, attributing the elapsed interval to the
    /// given power breakdown (the power that has been drawn *since the last
    /// call*). Calls with `now` earlier than the last timestamp are ignored.
    pub fn advance(&mut self, now: SimTime, power: &PowerBreakdown) {
        if now <= self.last {
            return;
        }
        let dt = now - self.last;
        self.energy.cores += power.cores.over(dt);
        self.energy.clm += power.clm.over(dt);
        self.energy.io += power.io.over(dt);
        self.energy.plls += power.plls.over(dt);
        self.energy.uncore_misc += power.uncore_misc.over(dt);
        self.energy.dram += power.dram.over(dt);
        self.last = now;
    }

    /// The accumulated energy so far.
    #[must_use]
    pub fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }

    /// The timestamp the meter has been advanced to (the last accounting
    /// point). An [`EnergyMeter::advance`] to this time or earlier is a
    /// no-op, which lets callers skip computing the power breakdown for
    /// zero-length intervals.
    #[must_use]
    pub fn last(&self) -> SimTime {
        self.last
    }

    /// Total elapsed (integrated) time.
    #[must_use]
    pub fn elapsed(&self) -> SimDuration {
        self.last - self.start
    }

    /// Average SoC (package) power over the integration window.
    #[must_use]
    pub fn average_soc_power(&self) -> Watts {
        self.energy.soc_total().average_power(self.elapsed())
    }

    /// Average DRAM power over the integration window.
    #[must_use]
    pub fn average_dram_power(&self) -> Watts {
        self.energy.dram.average_power(self.elapsed())
    }

    /// Average SoC + DRAM power over the integration window.
    #[must_use]
    pub fn average_total_power(&self) -> Watts {
        self.energy.total().average_power(self.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power(cores: f64, dram: f64) -> PowerBreakdown {
        PowerBreakdown {
            cores: Watts(cores),
            dram: Watts(dram),
            ..PowerBreakdown::default()
        }
    }

    #[test]
    fn integrates_piecewise_constant_power() {
        let mut m = EnergyMeter::new(SimTime::ZERO);
        m.advance(SimTime::from_millis(500), &power(10.0, 2.0));
        m.advance(SimTime::from_secs(1), &power(20.0, 4.0));
        // 10 W * 0.5 s + 20 W * 0.5 s = 15 J; DRAM: 1 + 2 = 3 J.
        assert!((m.energy().cores.as_f64() - 15.0).abs() < 1e-9);
        assert!((m.energy().dram.as_f64() - 3.0).abs() < 1e-9);
        assert!((m.average_soc_power().as_f64() - 15.0).abs() < 1e-9);
        assert!((m.average_dram_power().as_f64() - 3.0).abs() < 1e-9);
        assert!((m.average_total_power().as_f64() - 18.0).abs() < 1e-9);
        assert_eq!(m.elapsed(), SimDuration::from_secs(1));
    }

    #[test]
    fn non_monotonic_updates_are_ignored() {
        let mut m = EnergyMeter::new(SimTime::from_millis(10));
        m.advance(SimTime::from_millis(5), &power(100.0, 0.0));
        assert_eq!(m.energy().cores, Joules::ZERO);
        m.advance(SimTime::from_millis(10), &power(100.0, 0.0));
        assert_eq!(m.energy().cores, Joules::ZERO);
        m.advance(SimTime::from_millis(20), &power(100.0, 0.0));
        assert!((m.energy().cores.as_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_totals() {
        let e = EnergyBreakdown {
            cores: Joules(1.0),
            clm: Joules(2.0),
            io: Joules(3.0),
            plls: Joules(0.5),
            uncore_misc: Joules(0.5),
            dram: Joules(4.0),
        };
        assert!((e.soc_total().as_f64() - 7.0).abs() < 1e-12);
        assert!((e.total().as_f64() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn last_marks_the_accounting_point_and_ignores_rewinds() {
        let start = SimTime::from_millis(3);
        let mut m = EnergyMeter::new(start);
        assert_eq!(m.last(), start);
        m.advance(SimTime::from_millis(8), &power(1.0, 0.0));
        assert_eq!(m.last(), SimTime::from_millis(8));
        m.advance(SimTime::from_millis(4), &power(1.0, 0.0));
        assert_eq!(
            m.last(),
            SimTime::from_millis(8),
            "a rewind moved the meter"
        );
        // The window is measured from `start`, not from time zero.
        assert_eq!(m.elapsed(), SimDuration::from_millis(5));
    }

    #[test]
    fn every_breakdown_component_integrates_independently() {
        let p = PowerBreakdown {
            cores: Watts(1.0),
            clm: Watts(2.0),
            io: Watts(3.0),
            plls: Watts(4.0),
            uncore_misc: Watts(5.0),
            dram: Watts(6.0),
        };
        let mut m = EnergyMeter::new(SimTime::ZERO);
        m.advance(SimTime::from_millis(250), &p);
        let e = m.energy();
        let got = [e.cores, e.clm, e.io, e.plls, e.uncore_misc, e.dram].map(Joules::as_f64);
        for (i, j) in got.into_iter().enumerate() {
            let expected = (i + 1) as f64 * 0.25;
            assert!((j - expected).abs() < 1e-12, "component {i}: {j} J");
        }
        assert!((m.average_soc_power().as_f64() - 15.0).abs() < 1e-9);
        assert!((m.average_total_power().as_f64() - 21.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_average_power_is_zero() {
        let m = EnergyMeter::new(SimTime::ZERO);
        assert_eq!(m.average_soc_power(), Watts::ZERO);
        assert_eq!(m.elapsed(), SimDuration::ZERO);
    }
}
