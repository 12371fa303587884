//! Quality-of-service and energy metrics over a simulation outcome.

use crate::simulator::SimOutcome;

/// Summary statistics of one scheduling run — the row format of the E11
/// comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Policy name.
    pub policy: &'static str,
    /// Jobs completed.
    pub jobs: usize,
    /// Mean wait, seconds.
    pub mean_wait_s: f64,
    /// 95th-percentile wait, seconds.
    pub p95_wait_s: f64,
    /// Mean bounded slowdown.
    pub mean_slowdown: f64,
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Node utilisation over the makespan.
    pub utilisation: f64,
    /// Total energy, kWh.
    pub energy_kwh: f64,
    /// Peak system power, watts.
    pub peak_power_w: f64,
    /// Fraction of time over the cap.
    pub overcap_fraction: f64,
    /// Energy above the cap, kWh.
    pub overcap_kwh: f64,
}

/// Percentile of a sorted slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Build the report for an outcome.
pub fn report(outcome: &SimOutcome) -> SimReport {
    let mut waits: Vec<f64> = outcome
        .completed
        .iter()
        .filter_map(|j| j.wait_s())
        .collect();
    waits.sort_by(|a, b| a.total_cmp(b));
    let mean_wait = if waits.is_empty() {
        0.0
    } else {
        waits.iter().sum::<f64>() / waits.len() as f64
    };
    let slowdowns: Vec<f64> = outcome
        .completed
        .iter()
        .filter_map(|j| j.bounded_slowdown())
        .collect();
    let mean_slowdown = if slowdowns.is_empty() {
        0.0
    } else {
        slowdowns.iter().sum::<f64>() / slowdowns.len() as f64
    };
    SimReport {
        policy: outcome.policy,
        jobs: outcome.completed.len(),
        mean_wait_s: mean_wait,
        p95_wait_s: percentile(&waits, 95.0),
        mean_slowdown,
        makespan_s: outcome.makespan_s,
        utilisation: outcome.utilisation(),
        energy_kwh: outcome.total_energy_j() / 3.6e6,
        peak_power_w: outcome.peak_power_w(),
        overcap_fraction: outcome.overcap_time_fraction().abs(),
        overcap_kwh: outcome.overcap_energy_j() / 3.6e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::policy::Fcfs;
    use crate::simulator::{simulate, SimConfig};
    use davide_apps::workload::AppKind;

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn report_fields_consistent() {
        let trace = vec![
            Job::new(1, 1, AppKind::Nemo, 4, 0.0, 200.0, 100.0, 1400.0),
            Job::new(2, 2, AppKind::Bqcd, 4, 0.0, 200.0, 100.0, 1700.0),
        ];
        let cfg = SimConfig {
            total_nodes: 8,
            ..SimConfig::davide()
        };
        let out = simulate(&trace, &mut Fcfs, cfg);
        let r = report(&out);
        assert_eq!(r.jobs, 2);
        assert_eq!(r.policy, "fcfs");
        assert!(r.mean_wait_s >= 0.0);
        assert!(r.mean_slowdown >= 1.0);
        assert!(r.energy_kwh > 0.0);
        assert_eq!(r.overcap_fraction, 0.0);
        assert!(r.utilisation > 0.0 && r.utilisation <= 1.0);
    }
}
