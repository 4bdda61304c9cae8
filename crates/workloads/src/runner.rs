//! Fault-plan helpers shared by the workload harnesses.
//!
//! The workload runner itself is generic now — see
//! [`crate::workload::run_workload`]; this module keeps only the fault
//! schedule conveniences the figure harnesses share.

use vlog_sim::SimDuration;
use vlog_vmpi::FaultPlan;

/// Fault plan helpers on top of [`FaultPlan`].
pub mod faults {
    use super::*;
    use crate::workload::Workload;

    /// Hub failure: kills the workload's most load-bearing rank
    /// ([`Workload::hub_rank`]) at `t` — the highest-degree rank of a
    /// halo graph, the busiest server of a bursty service, rank 0
    /// elsewhere. The worst-case single fault for the topology: the
    /// victim's many partners all hold causal state about it, so
    /// recovery pulls determinants and replayed payloads from the widest
    /// possible set of survivors.
    pub fn hub_failure(workload: &dyn Workload, t: SimDuration) -> FaultPlan {
        FaultPlan::kill_at(t, workload.hub_rank())
    }

    /// Periodic faults at `per_minute` faults per virtual minute, one
    /// every period from one period in, cycling over ranks `0..n`,
    /// until `until`; none at a rate of zero or less. Panics on `n == 0`
    /// and on a zero or non-finite period.
    pub fn periodic_per_minute(per_minute: f64, n: usize, until: SimDuration) -> FaultPlan {
        assert!(n > 0, "no ranks to cycle faults over");
        let mut plan = FaultPlan::none();
        if per_minute <= 0.0 {
            return plan;
        }
        let secs = 60.0 / per_minute;
        assert!(secs.is_finite(), "{per_minute}/min: not a finite period");
        let period = SimDuration::from_secs_f64(secs);
        assert!(period > SimDuration::ZERO, "{per_minute}/min: zero period");
        let mut t = period;
        while t < until {
            plan.faults.push((t, plan.faults.len() % n));
            t += period;
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_failure_targets_the_workload_hub() {
        let halo = crate::HaloConfig::new(16, 4, 3);
        let plan = faults::hub_failure(&halo, SimDuration::from_millis(5));
        assert_eq!(plan.faults, vec![(SimDuration::from_millis(5), halo.hub())]);
        let bursty = crate::BurstyConfig::new(16, 4, 11).with_servers(4);
        let plan = faults::hub_failure(&bursty, SimDuration::from_millis(5));
        assert_eq!(plan.faults[0].1, bursty.busiest_server());
        assert!(plan.faults[0].1 < 4, "hub must be a server rank");
    }

    #[test]
    fn periodic_fault_plan_spacing() {
        let plan = faults::periodic_per_minute(2.0, 4, SimDuration::from_secs(120));
        assert_eq!(plan.faults.len(), 3); // t = 30s, 60s, 90s
        assert_eq!(plan.faults[0].0.as_secs_f64(), 30.0);
        assert_eq!(plan.faults[0].1, 0);
        assert_eq!(plan.faults[1].1, 1);
        let none = faults::periodic_per_minute(0.0, 4, SimDuration::from_secs(60));
        assert!(none.faults.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero period")]
    fn periodic_faults_reject_a_zero_period() {
        faults::periodic_per_minute(f64::INFINITY, 4, SimDuration::from_secs(60));
    }

    #[test]
    #[should_panic(expected = "not a finite period")]
    fn periodic_faults_reject_a_period_that_is_not_finite() {
        faults::periodic_per_minute(f64::MIN_POSITIVE, 4, SimDuration::from_secs(60));
    }

    #[test]
    #[should_panic(expected = "not a finite period")]
    fn periodic_faults_reject_a_rate_that_is_not_a_number() {
        faults::periodic_per_minute(f64::NAN, 4, SimDuration::from_secs(60));
    }

    #[test]
    #[should_panic(expected = "no ranks")]
    fn periodic_faults_reject_zero_ranks() {
        faults::periodic_per_minute(2.0, 0, SimDuration::from_secs(120));
    }
}
