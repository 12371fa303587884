//! The node burn-in suite.
//!
//! §I: "All the nodes will be assembled and tested using the E4 standard
//! burn-in suite by the end of March \[2017\]". Burn-in drives each node
//! through staged load patterns and verifies its electrical and thermal
//! envelope: idle floor, per-stage power windows, thermal soak without
//! throttling, and capping-controller response.

use crate::capping::{evaluate, PiCapController};
use crate::node::{ComputeNode, NodeLoad};
use crate::units::{Celsius, Seconds, Watts};

/// One burn-in stage: a load pattern held for a duration, with the
/// acceptance window for node power.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnInStage {
    /// Stage name.
    pub name: &'static str,
    /// Load applied.
    pub load: NodeLoad,
    /// Soak duration, seconds.
    pub duration: Seconds,
    /// Minimum acceptable node power (detects dead components).
    pub min_power: Watts,
    /// Maximum acceptable node power (detects shorts / bad VRMs).
    pub max_power: Watts,
}

/// The standard stage list: idle → CPU-only → GPU-only → memory →
/// full-tilt thermal soak.
pub fn standard_stages() -> Vec<BurnInStage> {
    vec![
        BurnInStage {
            name: "idle-floor",
            load: NodeLoad::IDLE,
            duration: Seconds(120.0),
            min_power: Watts(250.0),
            max_power: Watts(500.0),
        },
        BurnInStage {
            name: "cpu-stress",
            load: NodeLoad {
                cpu: 1.0,
                gpu: 0.0,
                mem: 0.3,
                net: 0.0,
            },
            duration: Seconds(300.0),
            min_power: Watts(550.0),
            max_power: Watts(1000.0),
        },
        BurnInStage {
            name: "gpu-stress",
            load: NodeLoad {
                cpu: 0.2,
                gpu: 1.0,
                mem: 0.4,
                net: 0.0,
            },
            duration: Seconds(300.0),
            min_power: Watts(1400.0),
            max_power: Watts(1900.0),
        },
        BurnInStage {
            name: "memory-stream",
            load: NodeLoad {
                cpu: 0.6,
                gpu: 0.2,
                mem: 1.0,
                net: 0.1,
            },
            duration: Seconds(300.0),
            min_power: Watts(650.0),
            max_power: Watts(1250.0),
        },
        BurnInStage {
            name: "full-soak",
            load: NodeLoad::FULL,
            duration: Seconds(1800.0),
            min_power: Watts(1650.0),
            max_power: Watts(2100.0),
        },
    ]
}

/// Result of one stage on one node.
#[derive(Debug, Clone, PartialEq)]
pub struct StageResult {
    /// Stage name.
    pub stage: &'static str,
    /// Measured node power.
    pub power: Watts,
    /// Hottest die at the end of the soak.
    pub peak_die_temp: Celsius,
    /// Thermal throttle events during the soak.
    pub throttle_events: usize,
    /// Whether the stage passed all checks.
    pub passed: bool,
    /// Failure annotations (empty when passed).
    pub failures: Vec<String>,
}

/// A node's complete burn-in report.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnInReport {
    /// The node tested.
    pub node_id: u32,
    /// Per-stage results.
    pub stages: Vec<StageResult>,
    /// Capping-controller check: settled within the bound.
    pub capping_ok: bool,
    /// Overall verdict.
    pub passed: bool,
}

/// Burn-in configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnInConfig {
    /// Coolant temperature at the cold plates during the run.
    pub coolant: Celsius,
    /// Thermal-step resolution, seconds.
    pub dt: Seconds,
    /// Capping check: the cap to apply.
    pub cap_check: Watts,
    /// Capping check: settle-time bound, steps of `dt`.
    pub cap_settle_steps: usize,
}

impl Default for BurnInConfig {
    fn default() -> Self {
        BurnInConfig {
            coolant: Celsius(37.0),
            dt: Seconds(1.0),
            cap_check: Watts(1500.0),
            cap_settle_steps: 60,
        }
    }
}

/// Run the full suite on a node. The node is consumed-by-mutation (its
/// DVFS state is exercised) and restored to nominal at the end.
pub fn run_burnin(node: &mut ComputeNode, config: BurnInConfig) -> BurnInReport {
    let mut stages = Vec::new();
    let mut all_passed = true;

    for stage in standard_stages() {
        let mut throttles = 0usize;
        let steps = (stage.duration.0 / config.dt.0).ceil() as usize;
        for _ in 0..steps {
            throttles += node.thermal_step(stage.load, config.coolant, config.dt);
        }
        let power = node.power(stage.load);
        let peak = node.max_die_temperature();
        let mut failures = Vec::new();
        if power < stage.min_power {
            failures.push(format!(
                "power {power} below floor {} — dead component?",
                stage.min_power
            ));
        }
        if power > stage.max_power {
            failures.push(format!(
                "power {power} above ceiling {} — electrical fault?",
                stage.max_power
            ));
        }
        if throttles > 0 {
            failures.push(format!("{throttles} thermal throttle events in soak"));
        }
        let passed = failures.is_empty();
        all_passed &= passed;
        stages.push(StageResult {
            stage: stage.name,
            power,
            peak_die_temp: peak,
            throttle_events: throttles,
            passed,
            failures,
        });
        // Recover DVFS state between stages.
        node.set_pstate_all(node.cpus[0].spec.dvfs.nominal_index());
    }

    // Capping response check.
    let mut ctl = PiCapController::new(config.cap_check);
    let traj = ctl.run(node, NodeLoad::FULL, config.dt, config.cap_settle_steps * 2);
    let q = evaluate(&traj, ctl.band);
    let capping_ok = q.settle_steps <= config.cap_settle_steps
        && traj
            .last()
            .is_some_and(|s| s.power <= config.cap_check + ctl.band);
    all_passed &= capping_ok;
    node.set_pstate_all(node.cpus[0].spec.dvfs.nominal_index());

    BurnInReport {
        node_id: node.id,
        stages,
        capping_ok,
        passed: all_passed,
    }
}

/// Burn in a whole batch of nodes; returns the reports of failures only
/// (the healthy case is silent, like a real acceptance run).
pub fn burnin_batch(nodes: &mut [ComputeNode], config: BurnInConfig) -> Vec<BurnInReport> {
    nodes
        .iter_mut()
        .map(|n| run_burnin(n, config))
        .filter(|r| !r.passed)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_liquid_node_passes() {
        let mut node = ComputeNode::davide(7);
        let report = run_burnin(&mut node, BurnInConfig::default());
        assert!(report.passed, "failures: {:#?}", report);
        assert_eq!(report.stages.len(), 5);
        assert!(report.capping_ok);
        for s in &report.stages {
            assert!(s.passed, "{}: {:?}", s.stage, s.failures);
            assert_eq!(s.throttle_events, 0);
        }
        // Node restored to nominal.
        assert_eq!(
            node.cpus[0].pstate(),
            node.cpus[0].spec.dvfs.nominal_index()
        );
    }

    #[test]
    fn air_cooled_node_fails_the_soak() {
        let mut node = ComputeNode::davide_air_cooled(8);
        let report = run_burnin(&mut node, BurnInConfig::default());
        assert!(!report.passed, "air cooling must trip the full soak");
        let soak = report
            .stages
            .iter()
            .find(|s| s.stage == "full-soak")
            .unwrap();
        assert!(soak.throttle_events > 0);
        assert!(!soak.passed);
    }

    #[test]
    fn gpu_failure_detected_as_low_power() {
        let mut node = ComputeNode::davide(9);
        // Simulate two dead GPUs.
        node.gpus[1].set_enabled(false);
        node.gpus[3].set_enabled(false);
        let report = run_burnin(&mut node, BurnInConfig::default());
        assert!(!report.passed);
        let gpu_stage = report
            .stages
            .iter()
            .find(|s| s.stage == "gpu-stress")
            .unwrap();
        assert!(!gpu_stage.passed, "dead GPUs show as missing power");
        assert!(gpu_stage.failures[0].contains("below floor"));
    }

    #[test]
    fn batch_reports_only_failures() {
        let mut nodes: Vec<ComputeNode> = (0..4).map(ComputeNode::davide).collect();
        nodes.push(ComputeNode::davide_air_cooled(99));
        let failures = burnin_batch(&mut nodes, BurnInConfig::default());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].node_id, 99);
    }

    #[test]
    fn stage_power_windows_are_ordered() {
        for s in standard_stages() {
            assert!(s.min_power < s.max_power, "{}", s.name);
            assert!(s.duration.0 > 0.0);
        }
    }
}
