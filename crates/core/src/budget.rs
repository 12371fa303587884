//! Hierarchical power-budget distribution: site cap → rack caps → node
//! caps.
//!
//! §III-A2 caps the total system power; \[34\] (Ellsworth et al., "Dynamic
//! Power Sharing for Higher Job Throughput") shows that *how* the budget
//! is split across nodes decides the QoS. The split here is
//! demand-proportional (idle nodes donate headroom to busy ones) above a
//! per-node floor, so no node is starved below its idle draw; when no
//! node demands more than the floor, every node gets the same slice.

use crate::units::Watts;

/// Split `total` across nodes with measured `demands` (watts each node
/// would draw uncapped), honouring a per-node `floor`: each node gets
/// the floor plus a share of the rest proportional to its demand above
/// the floor, or an equal share when no node has such demand.
///
/// Returns one cap per node; the caps sum to `total` (within float
/// rounding) unless the floors alone exceed it, in which case every
/// node gets exactly the floor (the cap is infeasible and the caller
/// must shed load).
pub fn split_budget(total: Watts, demands: &[Watts], floor: Watts) -> Vec<Watts> {
    let n = demands.len();
    assert!(n > 0, "no nodes to budget");
    let floor_total = floor.0 * n as f64;
    if floor_total >= total.0 {
        return vec![floor; n];
    }
    let distributable = total.0 - floor_total;
    // Weight by demand above the floor; a node without excess demand
    // keeps only its floor.
    let excess: Vec<f64> = demands.iter().map(|d| (d.0 - floor.0).max(0.0)).collect();
    let total_excess: f64 = excess.iter().sum();
    if total_excess <= 1e-9 {
        let share = distributable / n as f64;
        return vec![Watts(floor.0 + share); n];
    }
    excess
        .iter()
        .map(|e| Watts(floor.0 + distributable * e / total_excess))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_gives_busy_nodes_more() {
        let demands = vec![
            Watts(2000.0),
            Watts(2000.0),
            Watts(400.0), // idle node
            Watts(400.0),
        ];
        let caps = split_budget(Watts(4_000.0), &demands, Watts(400.0));
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
        let caps = split_budget(Watts(1_000.0), &demands, Watts(400.0));
        assert!(caps.iter().all(|c| *c == Watts(400.0)));
    }

    #[test]
    fn no_excess_demand_falls_back_to_uniform() {
        let demands = vec![Watts(300.0); 5]; // all below floor
        let caps = split_budget(Watts(5_000.0), &demands, Watts(400.0));
        let first = caps[0];
        assert!(caps.iter().all(|c| *c == first));
        let sum: f64 = caps.iter().map(|c| c.0).sum();
        assert!((sum - 5_000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "no nodes")]
    fn empty_split_panics() {
        split_budget(Watts(100.0), &[], Watts(1.0));
    }
}
