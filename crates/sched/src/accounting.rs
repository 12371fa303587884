//! Per-job and per-user energy accounting (EA in Fig. 4).
//!
//! §III-A1: energy accounting "allows the energy consumption cost of each
//! job to be distributed between the supercomputing center and the user,
//! promoting an energy-aware usage of the resources". The ledger consumes
//! either simulator outcomes or EG telemetry aggregates.

use crate::job::JobId;
use crate::simulator::SimOutcome;
use std::collections::HashMap;

/// Energy price used to turn joules into a charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tariff {
    /// Price per kWh in currency units.
    pub per_kwh: f64,
}

impl Default for Tariff {
    fn default() -> Self {
        // A representative 2017 Italian industrial tariff, €/kWh.
        Tariff { per_kwh: 0.15 }
    }
}

/// One user's accumulated account.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UserAccount {
    /// Jobs charged.
    pub jobs: usize,
    /// Energy-to-solution total, joules.
    pub energy_j: f64,
    /// Node-seconds consumed.
    pub node_seconds: f64,
}

impl UserAccount {
    /// Charge at a tariff.
    pub fn cost(&self, tariff: Tariff) -> f64 {
        self.energy_j / 3.6e6 * tariff.per_kwh
    }

    /// Mean power across this user's node-seconds.
    pub fn mean_power_per_node(&self) -> f64 {
        if self.node_seconds == 0.0 {
            0.0
        } else {
            self.energy_j / self.node_seconds
        }
    }
}

/// The accounting ledger.
#[derive(Debug, Clone, Default)]
pub struct EnergyLedger {
    per_job: HashMap<JobId, f64>,
    per_user: HashMap<u32, UserAccount>,
    unattributed_j: f64,
}

impl EnergyLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest a simulation outcome: attribute each job's energy to its
    /// user and record the idle remainder as unattributed (datacentre
    /// overhead the centre absorbs).
    pub fn ingest(&mut self, outcome: &SimOutcome) {
        for job in &outcome.completed {
            let e = outcome.job_energy_j.get(&job.id).copied().unwrap_or(0.0);
            self.per_job.insert(job.id, e);
            let acct = self.per_user.entry(job.user_id).or_default();
            acct.jobs += 1;
            acct.energy_j += e;
            acct.node_seconds += job.node_seconds().unwrap_or(0.0);
        }
        let attributed: f64 = outcome.job_energy_j.values().sum();
        self.unattributed_j += outcome.total_energy_j() - attributed;
    }

    /// Energy-to-solution of one job, joules.
    pub fn job_energy_j(&self, id: JobId) -> Option<f64> {
        self.per_job.get(&id).copied()
    }

    /// A user's account.
    pub fn user(&self, user_id: u32) -> Option<&UserAccount> {
        self.per_user.get(&user_id)
    }

    /// All users, sorted by descending energy.
    pub fn users_by_energy(&self) -> Vec<(u32, UserAccount)> {
        let mut v: Vec<(u32, UserAccount)> = self.per_user.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.energy_j.total_cmp(&a.1.energy_j));
        v
    }

    /// Total attributed energy, joules.
    pub fn attributed_j(&self) -> f64 {
        self.per_job.values().sum()
    }

    /// Energy not attributable to any job (idle floor), joules.
    pub fn unattributed_j(&self) -> f64 {
        self.unattributed_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::policy::Fcfs;
    use crate::simulator::{simulate, SimConfig};
    use davide_apps::workload::AppKind;

    fn run() -> SimOutcome {
        let trace = vec![
            Job::new(
                1,
                10,
                AppKind::QuantumEspresso,
                4,
                0.0,
                200.0,
                100.0,
                1800.0,
            ),
            Job::new(
                2,
                10,
                AppKind::QuantumEspresso,
                2,
                0.0,
                200.0,
                100.0,
                1800.0,
            ),
            Job::new(3, 20, AppKind::Nemo, 2, 0.0, 300.0, 150.0, 1300.0),
        ];
        let cfg = SimConfig {
            total_nodes: 8,
            ..SimConfig::davide()
        };
        simulate(&trace, &mut Fcfs, cfg)
    }

    #[test]
    fn attribution_conserves_energy() {
        let out = run();
        let mut ledger = EnergyLedger::new();
        ledger.ingest(&out);
        let total = out.total_energy_j();
        let sum = ledger.attributed_j() + ledger.unattributed_j();
        assert!((sum - total).abs() < 1e-6, "{sum} vs {total}");
        assert!(ledger.unattributed_j() > 0.0, "idle floor exists");
    }

    #[test]
    fn per_user_rollup() {
        let out = run();
        let mut ledger = EnergyLedger::new();
        ledger.ingest(&out);
        let u10 = ledger.user(10).expect("user 10 ran jobs");
        assert_eq!(u10.jobs, 2);
        // User 10 ran 6 node-hours of QE at 1800 W/node for 100 s each.
        assert!((u10.energy_j - 6.0 * 1800.0 * 100.0).abs() < 1.0);
        let u20 = ledger.user(20).unwrap();
        assert_eq!(u20.jobs, 1);
        assert!(u10.energy_j > u20.energy_j);
        // Ranking.
        let ranked = ledger.users_by_energy();
        assert_eq!(ranked[0].0, 10);
    }

    #[test]
    fn tariff_and_mean_power() {
        let out = run();
        let mut ledger = EnergyLedger::new();
        ledger.ingest(&out);
        let acct = *ledger.user(10).unwrap();
        let cost = acct.cost(Tariff::default());
        assert!((cost - acct.energy_j / 3.6e6 * 0.15).abs() < 1e-12);
        assert!((acct.mean_power_per_node() - 1800.0).abs() < 1.0);
    }

    #[test]
    fn job_lookup() {
        let out = run();
        let mut ledger = EnergyLedger::new();
        ledger.ingest(&out);
        assert!(ledger.job_energy_j(1).unwrap() > 0.0);
        assert!(ledger.job_energy_j(999).is_none());
    }
}
