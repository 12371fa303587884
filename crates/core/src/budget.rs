//! Hierarchical power-budget distribution: site cap → rack caps → node
//! caps.
//!
//! §III-A2 caps the total system power; \[34\] (Ellsworth et al., "Dynamic
//! Power Sharing for Higher Job Throughput") shows that *how* the budget
//! is split across nodes decides the QoS. Two splitters are provided:
//! uniform (every node gets the same slice) and demand-proportional
//! (idle nodes donate headroom to busy ones), both with a per-node floor
//! so no node is starved below its idle draw.

use crate::capping::PiCapController;
use crate::node::{ComputeNode, NodeLoad};
use crate::units::{Seconds, Watts};

/// Budget-splitting strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Equal slice per node.
    Uniform,
    /// Slices proportional to measured demand, above a common floor.
    DemandProportional,
}

/// Split `total` across nodes with measured `demands` (watts each node
/// would draw uncapped), honouring a per-node `floor`.
///
/// Returns one cap per node; the caps sum to `total` (within float
/// rounding) unless the floors alone exceed it, in which case every
/// node gets exactly the floor (the cap is infeasible and the caller
/// must shed load).
pub fn split_budget(
    total: Watts,
    demands: &[Watts],
    floor: Watts,
    policy: SharingPolicy,
) -> Vec<Watts> {
    let n = demands.len();
    assert!(n > 0, "no nodes to budget");
    let floor_total = floor.0 * n as f64;
    if floor_total >= total.0 {
        return vec![floor; n];
    }
    let distributable = total.0 - floor_total;
    match policy {
        SharingPolicy::Uniform => {
            let share = distributable / n as f64;
            vec![Watts(floor.0 + share); n]
        }
        SharingPolicy::DemandProportional => {
            // Weight by demand above the floor; a node without excess
            // demand keeps only its floor.
            let excess: Vec<f64> = demands.iter().map(|d| (d.0 - floor.0).max(0.0)).collect();
            let total_excess: f64 = excess.iter().sum();
            if total_excess <= 1e-9 {
                let share = distributable / n as f64;
                return vec![Watts(floor.0 + share); n];
            }
            excess
                .iter()
                .map(|e| {
                    // No node needs more than its demand: cap the grant
                    // and let the remainder stay at the site level
                    // (a real controller iterates; one pass is enough
                    // for the experiments' accuracy).
                    Watts(floor.0 + distributable * e / total_excess)
                })
                .collect()
        }
    }
}

/// A cluster-level cap controller: measures per-node demand, splits the
/// site budget, and drives each node's local PI controller at the
/// granted set point.
pub struct ClusterCapController {
    /// Site-level budget.
    pub site_cap: Watts,
    /// Per-node floor (≥ idle draw).
    pub floor: Watts,
    /// Splitting policy.
    pub policy: SharingPolicy,
    node_controllers: Vec<PiCapController>,
}

impl ClusterCapController {
    /// Controller for `n` nodes.
    pub fn new(n: usize, site_cap: Watts, floor: Watts, policy: SharingPolicy) -> Self {
        ClusterCapController {
            site_cap,
            floor,
            policy,
            node_controllers: (0..n).map(|_| PiCapController::new(site_cap)).collect(),
        }
    }

    /// One control period: split the budget from current demands, then
    /// step every node controller. Returns the per-node caps granted.
    pub fn step(
        &mut self,
        nodes: &mut [ComputeNode],
        loads: &[NodeLoad],
        dt: Seconds,
    ) -> Vec<Watts> {
        assert_eq!(nodes.len(), self.node_controllers.len());
        assert_eq!(nodes.len(), loads.len());
        // Demand = what the node would draw unthrottled: probe at the
        // nominal operating point.
        let demands: Vec<Watts> = nodes
            .iter()
            .zip(loads)
            .map(|(n, &l)| {
                let mut probe = n.clone();
                probe.set_pstate_all(probe.cpus[0].spec.dvfs.nominal_index());
                probe.power(l)
            })
            .collect();
        let caps = split_budget(self.site_cap, &demands, self.floor, self.policy);
        for ((node, ctl), (&cap, &load)) in nodes
            .iter_mut()
            .zip(&mut self.node_controllers)
            .zip(caps.iter().zip(loads))
        {
            if (ctl.cap.0 - cap.0).abs() > 1.0 {
                ctl.set_cap(cap);
            }
            ctl.step(node, load, dt);
        }
        caps
    }

    /// Total measured power right now.
    pub fn measured_total(&self, nodes: &[ComputeNode], loads: &[NodeLoad]) -> Watts {
        nodes.iter().zip(loads).map(|(n, &l)| n.power(l)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_split_sums_to_total() {
        let demands = vec![Watts(2000.0); 10];
        let caps = split_budget(
            Watts(15_000.0),
            &demands,
            Watts(400.0),
            SharingPolicy::Uniform,
        );
        let sum: f64 = caps.iter().map(|c| c.0).sum();
        assert!((sum - 15_000.0).abs() < 1e-6);
        assert!(caps.iter().all(|c| (c.0 - 1500.0).abs() < 1e-9));
    }

    #[test]
    fn proportional_gives_busy_nodes_more() {
        let demands = vec![
            Watts(2000.0),
            Watts(2000.0),
            Watts(400.0), // idle node
            Watts(400.0),
        ];
        let caps = split_budget(
            Watts(4_000.0),
            &demands,
            Watts(400.0),
            SharingPolicy::DemandProportional,
        );
        let sum: f64 = caps.iter().map(|c| c.0).sum();
        assert!((sum - 4_000.0).abs() < 1e-6);
        assert!(caps[0] > caps[2], "busy beats idle: {caps:?}");
        assert!((caps[2].0 - 400.0).abs() < 1e-9, "idle keeps only floor");
        // Busy nodes split the surplus evenly: 400 + 2400/2 = 1600.
        assert!((caps[0].0 - 1600.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_budget_returns_floors() {
        let demands = vec![Watts(2000.0); 4];
        let caps = split_budget(
            Watts(1_000.0),
            &demands,
            Watts(400.0),
            SharingPolicy::Uniform,
        );
        assert!(caps.iter().all(|c| *c == Watts(400.0)));
    }

    #[test]
    fn no_excess_demand_falls_back_to_uniform() {
        let demands = vec![Watts(300.0); 5]; // all below floor
        let caps = split_budget(
            Watts(5_000.0),
            &demands,
            Watts(400.0),
            SharingPolicy::DemandProportional,
        );
        let first = caps[0];
        assert!(caps.iter().all(|c| *c == first));
        let sum: f64 = caps.iter().map(|c| c.0).sum();
        assert!((sum - 5_000.0).abs() < 1e-6);
    }

    #[test]
    fn cluster_controller_respects_site_cap() {
        let mut nodes: Vec<ComputeNode> = (0..4).map(ComputeNode::davide).collect();
        // Two busy, two idle nodes.
        let loads = vec![
            NodeLoad::FULL,
            NodeLoad::FULL,
            NodeLoad::IDLE,
            NodeLoad::IDLE,
        ];
        // Floor must clear the ~490 W idle draw of a DAVIDE node.
        let site_cap = Watts(4_200.0);
        let mut ctl =
            ClusterCapController::new(4, site_cap, Watts(550.0), SharingPolicy::DemandProportional);
        for _ in 0..100 {
            ctl.step(&mut nodes, &loads, Seconds(0.1));
        }
        let total = ctl.measured_total(&nodes, &loads);
        // Idle nodes draw under their floor grant, so a modest margin
        // over the strict cap check:
        assert!(
            total.0 <= site_cap.0 * 1.02,
            "total {total} vs site cap {site_cap}"
        );
        // Busy nodes got throttled, idle ones did not.
        assert!(nodes[0].cpus[0].pstate() < nodes[2].cpus[0].pstate());
    }

    #[test]
    fn proportional_beats_uniform_on_busy_node_perf() {
        // With half the machine idle, demand-proportional sharing lets
        // the busy half run faster than a uniform split would.
        let run = |policy: SharingPolicy| -> f64 {
            let mut nodes: Vec<ComputeNode> = (0..4).map(ComputeNode::davide).collect();
            let loads = vec![
                NodeLoad::FULL,
                NodeLoad::FULL,
                NodeLoad::IDLE,
                NodeLoad::IDLE,
            ];
            let mut ctl = ClusterCapController::new(4, Watts(5_500.0), Watts(550.0), policy);
            for _ in 0..150 {
                ctl.step(&mut nodes, &loads, Seconds(0.1));
            }
            // Perf factor of the busy nodes.
            nodes[..2]
                .iter()
                .map(|n| n.cpus[0].spec.dvfs.perf_factor(n.cpus[0].pstate()))
                .sum::<f64>()
                / 2.0
        };
        let uniform = run(SharingPolicy::Uniform);
        let proportional = run(SharingPolicy::DemandProportional);
        assert!(
            proportional > uniform,
            "proportional {proportional} !> uniform {uniform}"
        );
    }

    #[test]
    #[should_panic(expected = "no nodes")]
    fn empty_split_panics() {
        split_budget(Watts(100.0), &[], Watts(1.0), SharingPolicy::Uniform);
    }
}
