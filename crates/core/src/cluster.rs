//! The full pilot system (§II-I): four OpenRack cabinets — three compute,
//! one storage/management/login — plus the dual-plane EDR fat-tree.
//!
//! Published envelope: 45 compute nodes, ~1 PFlops peak, < 100 kW total,
//! 2×10 Gb/s Ethernet uplinks, 30 L/min water per rack at 35 °C.

use crate::error::{CoreError, Result};
use crate::interconnect::FatTree;
use crate::node::{ComputeNode, NodeLoad};
use crate::rack::{Rack, RackRole};
use crate::units::{Gflops, Watts};
use serde::{Deserialize, Serialize};

/// The whole machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Human name of the installation.
    pub name: String,
    /// All racks (compute and service).
    pub racks: Vec<Rack>,
    /// The inter-node fabric.
    pub fabric: FatTree,
}

impl Cluster {
    /// The D.A.V.I.D.E. pilot: 3 compute racks of 15 nodes + 1 service
    /// rack, dual-plane EDR fat-tree.
    pub fn davide() -> Self {
        let racks = vec![
            Rack::davide_compute(0, 15),
            Rack::davide_compute(1, 15),
            Rack::davide_compute(2, 15),
            Rack::davide_service(3),
        ];
        Cluster {
            name: "D.A.V.I.D.E.".to_string(),
            racks,
            fabric: FatTree::davide(45),
        }
    }

    /// A small test cluster with `nodes` compute nodes in one rack.
    pub fn small(nodes: u32) -> Self {
        Cluster {
            name: format!("test-{nodes}"),
            racks: vec![Rack::davide_compute(0, nodes)],
            fabric: FatTree::davide(nodes),
        }
    }

    /// Total compute nodes.
    pub fn node_count(&self) -> usize {
        self.racks.iter().map(|r| r.nodes.len()).sum()
    }

    /// Iterate over all compute nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &ComputeNode> {
        self.racks.iter().flat_map(|r| r.nodes.iter())
    }

    /// Find a node by id.
    pub fn node(&self, id: u32) -> Result<&ComputeNode> {
        self.nodes()
            .find(|n| n.id == id)
            .ok_or_else(|| CoreError::NoSuchResource(format!("node {id}")))
    }

    /// Find a node by id, mutably.
    pub fn node_mut(&mut self, id: u32) -> Result<&mut ComputeNode> {
        self.racks
            .iter_mut()
            .flat_map(|r| r.nodes.iter_mut())
            .find(|n| n.id == id)
            .ok_or_else(|| CoreError::NoSuchResource(format!("node {id}")))
    }

    /// Architectural peak of the machine.
    pub fn peak(&self) -> Gflops {
        self.nodes().map(|n| n.architectural_peak()).sum()
    }

    /// IT power at a uniform node load.
    pub fn it_power(&self, load: NodeLoad) -> Watts {
        self.racks.iter().map(|r| r.it_power(load)).sum()
    }

    /// Facility power (with conversion, fans and pumps) at a uniform load.
    pub fn facility_power(&self, load: NodeLoad) -> Watts {
        self.racks.iter().map(|r| r.facility_power(load)).sum()
    }

    /// Peak energy efficiency in GFlops/W at the facility meter.
    pub fn gflops_per_watt(&self) -> f64 {
        self.peak().0 / self.facility_power(NodeLoad::FULL).0
    }

    /// Validate the published system constraints: every rack within its
    /// 32 kW feed and every cooling loop legal.
    pub fn validate(&self) -> Result<()> {
        for rack in &self.racks {
            rack.cooling.validate()?;
            rack.check_budget(NodeLoad::FULL)?;
        }
        Ok(())
    }

    /// Compute racks only.
    pub fn compute_racks(&self) -> impl Iterator<Item = &Rack> {
        self.racks.iter().filter(|r| r.role == RackRole::Compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn davide_pilot_published_envelope() {
        let c = Cluster::davide();
        assert_eq!(c.node_count(), 45);
        assert_eq!(c.racks.len(), 4);
        assert_eq!(c.compute_racks().count(), 3);
        // §II-I: ~1 PFlops peak.
        let peak = c.peak();
        assert!(
            (0.9..=1.1).contains(&peak.pflops()),
            "peak {peak} should be ≈1 PFlops"
        );
        // §II-I: total power below 100 kW.
        let p = c.facility_power(NodeLoad::FULL);
        assert!(p < Watts::from_kw(100.0), "facility power {p} ≥ 100 kW");
        c.validate().expect("pilot system is self-consistent");
    }

    #[test]
    fn efficiency_in_green500_contender_band() {
        // P100-based systems of the era delivered ~7–11 GF/W at the meter.
        let c = Cluster::davide();
        let eff = c.gflops_per_watt();
        assert!((7.0..=13.0).contains(&eff), "GF/W = {eff}");
    }

    #[test]
    fn node_lookup() {
        let mut c = Cluster::davide();
        assert!(c.node(0).is_ok());
        assert!(c.node(104).is_ok(), "rack 1, node 4");
        assert!(c.node(9999).is_err());
        let n = c.node_mut(205).unwrap();
        n.set_pstate_all(0);
        assert_eq!(c.node(205).unwrap().cpus[0].pstate(), 0);
    }

    #[test]
    fn small_cluster_for_tests() {
        let c = Cluster::small(4);
        assert_eq!(c.node_count(), 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn power_scales_with_load() {
        let c = Cluster::davide();
        let idle = c.it_power(NodeLoad::IDLE);
        let full = c.it_power(NodeLoad::FULL);
        assert!(idle < full * 0.4);
        assert!(c.facility_power(NodeLoad::FULL) > full, "conversion loss");
    }
}
