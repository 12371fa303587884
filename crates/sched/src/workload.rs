//! Synthetic workload-trace generation.
//!
//! Substitutes for the production job traces the paper's predictors train
//! on: each user has a characteristic application mix and job geometry
//! (the regularity \[17\] exploits), interarrivals are Weibull (bursty),
//! runtimes log-normal around a fraction of the requested walltime, and
//! per-node power comes from the application model on the D.A.V.I.D.E.
//! node plus user/input variation.

use crate::job::Job;
use davide_apps::workload::{AppKind, AppModel};
use davide_core::node::ComputeNode;
use davide_core::rng::Rng;

/// Knobs of the trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of users.
    pub users: u32,
    /// Mean job interarrival time, seconds.
    pub mean_interarrival_s: f64,
    /// Weibull shape of interarrivals (<1 = bursty).
    pub burstiness: f64,
    /// Largest node count a job may request.
    pub max_nodes: u32,
    /// Mean requested walltime, seconds.
    pub mean_walltime_s: f64,
    /// Log-normal sigma of actual/requested runtime ratio.
    pub runtime_sigma: f64,
    /// Relative per-job power spread around the app model (input-size
    /// and user effects).
    pub power_spread: f64,
    /// Relative error of the submission-time power prediction
    /// (0 = oracle; ~0.10 matches \[17\]'s MAPE).
    pub prediction_error: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            users: 24,
            mean_interarrival_s: 120.0,
            burstiness: 0.7,
            max_nodes: 16,
            mean_walltime_s: 3.0 * 3600.0,
            runtime_sigma: 0.45,
            power_spread: 0.06,
            prediction_error: 0.10,
        }
    }
}

/// A user's habitual behaviour.
#[derive(Debug, Clone)]
struct UserProfile {
    app_weights: [f64; 4],
    /// Preferred job size exponent (jobs are 2^k nodes around this).
    size_bias: f64,
    /// The user's systematic power offset (their typical inputs).
    power_factor: f64,
}

/// Generates reproducible job traces.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    /// Configuration in force.
    pub config: WorkloadConfig,
    profiles: Vec<UserProfile>,
    app_power: [f64; 4],
    rng: Rng,
    next_id: u64,
    clock_s: f64,
}

impl WorkloadGenerator {
    /// New generator with deterministic `seed`.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        // Reference node for per-app mean power.
        let node = ComputeNode::davide(0);
        let app_power = [
            AppModel::quantum_espresso().mean_node_power(&node).0,
            AppModel::nemo().mean_node_power(&node).0,
            AppModel::specfem3d().mean_node_power(&node).0,
            AppModel::bqcd().mean_node_power(&node).0,
        ];
        let profiles = (0..config.users)
            .map(|_| {
                // Users concentrate on one or two applications.
                let favourite = rng.below(4) as usize;
                let mut w = [0.08; 4];
                w[favourite] = 1.0;
                w[rng.below(4) as usize] += 0.4;
                UserProfile {
                    app_weights: w,
                    size_bias: rng.uniform_in(0.0, (config.max_nodes as f64).log2()),
                    power_factor: 1.0 + rng.normal(0.0, config.power_spread),
                }
            })
            .collect();
        WorkloadGenerator {
            config,
            profiles,
            app_power,
            rng,
            next_id: 1,
            clock_s: 0.0,
        }
    }

    /// Generate the next job in submission order.
    pub fn next_job(&mut self) -> Job {
        let cfg = &self.config;
        // Arrival process.
        let gap = self.rng.weibull(
            cfg.burstiness,
            mean_to_weibull_scale(cfg.mean_interarrival_s, cfg.burstiness),
        );
        self.clock_s += gap;

        let user = self.rng.below(cfg.users as u64) as u32;
        let profile = &self.profiles[user as usize];
        let app_idx = self.rng.weighted_index(&profile.app_weights);
        let app = AppKind::ALL[app_idx];

        // Geometry: 2^k nodes around the user's habit.
        let k = (profile.size_bias + self.rng.normal(0.0, 0.8))
            .round()
            .clamp(0.0, (cfg.max_nodes as f64).log2());
        let nodes = (1u32 << k as u32).min(cfg.max_nodes);

        // Walltime request and true runtime.
        let walltime = self
            .rng
            .lognormal(cfg.mean_walltime_s.ln() - 0.25, 0.7)
            .clamp(600.0, 24.0 * 3600.0);
        // Users over-request: true runtime is a fraction of the request.
        let ratio = self.rng.lognormal(-0.7, cfg.runtime_sigma).clamp(0.05, 1.0);
        let runtime = (walltime * ratio).max(60.0);

        // Power: app mean × user factor × small per-job noise.
        let true_power = self.app_power[app_idx]
            * profile.power_factor
            * (1.0 + self.rng.normal(0.0, cfg.power_spread / 2.0));
        let predicted = true_power * (1.0 + self.rng.normal(0.0, cfg.prediction_error));

        let id = self.next_id;
        self.next_id += 1;
        let mut job = Job::new(
            id,
            user,
            app,
            nodes,
            self.clock_s,
            walltime,
            runtime,
            true_power,
        );
        job.predicted_power_w = predicted.max(200.0);
        job
    }

    /// Generate a whole trace of `n` jobs.
    pub fn trace(&mut self, n: usize) -> Vec<Job> {
        (0..n).map(|_| self.next_job()).collect()
    }
}

/// Weibull scale λ such that the mean is `mean` for shape `k`:
/// `mean = λ·Γ(1 + 1/k)`.
fn mean_to_weibull_scale(mean: f64, k: f64) -> f64 {
    mean / gamma_1p(1.0 / k)
}

/// Γ(1+x) via the Lanczos approximation (enough precision for scales).
fn gamma_1p(x: f64) -> f64 {
    // Γ(1+x) = x·Γ(x); use Lanczos for Γ(x+1) directly on small x.
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let z = x; // computing Γ(z+1)
    let mut acc = C[0];
    for (i, &c) in C.iter().enumerate().skip(1) {
        acc += c / (z + i as f64);
    }
    let t = z + G + 0.5;
    (2.0 * std::f64::consts::PI).sqrt() * t.powf(z + 0.5) * (-t).exp() * acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(WorkloadConfig::default(), seed)
    }

    #[test]
    fn gamma_sanity() {
        assert!((gamma_1p(1.0) - 1.0).abs() < 1e-9, "Γ(2)=1");
        assert!((gamma_1p(0.0) - 1.0).abs() < 1e-9, "Γ(1)=1");
        assert!((gamma_1p(2.0) - 2.0).abs() < 1e-8, "Γ(3)=2");
        assert!((gamma_1p(0.5) - 0.886_226_925).abs() < 1e-6, "Γ(1.5)");
    }

    #[test]
    fn trace_is_deterministic() {
        let a = gen(42).trace(50);
        let b = gen(42).trace(50);
        assert_eq!(a, b);
        let c = gen(43).trace(50);
        assert_ne!(a, c);
    }

    #[test]
    fn submissions_are_time_ordered() {
        let trace = gen(1).trace(200);
        for w in trace.windows(2) {
            assert!(w[1].submit_s >= w[0].submit_s);
            assert_eq!(w[1].id, w[0].id + 1);
        }
    }

    #[test]
    fn interarrival_mean_matches_config() {
        let trace = gen(2).trace(4000);
        let span = trace.last().unwrap().submit_s - trace[0].submit_s;
        let mean = span / (trace.len() - 1) as f64;
        assert!(
            (mean - 120.0).abs() < 12.0,
            "mean interarrival {mean} vs configured 120"
        );
    }

    #[test]
    fn geometry_within_bounds() {
        let trace = gen(3).trace(1000);
        for j in &trace {
            assert!(j.nodes >= 1 && j.nodes <= 16);
            assert!(j.nodes.is_power_of_two());
            assert!(
                j.true_runtime_s <= j.walltime_req_s,
                "never exceeds request"
            );
            assert!(j.walltime_req_s >= 600.0);
        }
    }

    #[test]
    fn power_in_plausible_node_band() {
        let trace = gen(4).trace(1000);
        for j in &trace {
            assert!(
                (600.0..2400.0).contains(&j.true_power_w),
                "per-node power {} outside the DAVIDE envelope",
                j.true_power_w
            );
        }
    }

    #[test]
    fn prediction_error_tracks_config() {
        let cfg = WorkloadConfig {
            prediction_error: 0.10,
            ..Default::default()
        };
        let trace = WorkloadGenerator::new(cfg, 5).trace(4000);
        let mape: f64 = trace
            .iter()
            .map(|j| ((j.predicted_power_w - j.true_power_w) / j.true_power_w).abs())
            .sum::<f64>()
            / trace.len() as f64
            * 100.0;
        // Mean |N(0,0.1)| ≈ 8 %.
        assert!((6.0..11.0).contains(&mape), "mape={mape}");
    }

    #[test]
    fn oracle_mode_predicts_exactly() {
        let cfg = WorkloadConfig {
            prediction_error: 0.0,
            ..Default::default()
        };
        let trace = WorkloadGenerator::new(cfg, 6).trace(100);
        for j in &trace {
            let rel = ((j.predicted_power_w - j.true_power_w) / j.true_power_w).abs();
            assert!(rel < 1e-9);
        }
    }

    #[test]
    fn users_have_distinct_app_mixes() {
        let trace = gen(7).trace(5000);
        // Pick two heavy users and compare their dominant app.
        use std::collections::HashMap;
        let mut per_user: HashMap<u32, HashMap<&str, u32>> = HashMap::new();
        for j in &trace {
            *per_user
                .entry(j.user_id)
                .or_default()
                .entry(j.app.name())
                .or_default() += 1;
        }
        let dominant: Vec<&str> = per_user
            .values()
            .filter(|m| m.values().sum::<u32>() > 50)
            .map(|m| *m.iter().max_by_key(|(_, &c)| c).unwrap().0)
            .collect();
        let distinct: std::collections::HashSet<&str> = dominant.iter().copied().collect();
        assert!(distinct.len() >= 2, "users are not all alike");
    }
}
