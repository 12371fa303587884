//! Integration: the full batch back-end — the power-aware policy
//! dispatches submissions, the simulator places them on the fat-tree,
//! and accounting closes the books.

use davide::apps::workload::AppKind;
use davide::sched::{
    simulate, CapSchedule, EasyBackfill, EnergyLedger, Job, PlacementStrategy, SimConfig,
};

fn job(id: u64, user: u32, nodes: u32, submit: f64, walltime: f64, runtime: f64) -> Job {
    Job::new(
        id,
        user,
        AppKind::Bqcd,
        nodes,
        submit,
        walltime,
        runtime,
        1500.0,
    )
}

#[test]
fn submissions_flow_through_the_whole_stack() {
    // A mix of users, sizes and walltimes, in submission order.
    let trace = vec![
        job(1, 10, 16, 0.0, 4.0 * 3600.0, 7_200.0),
        job(2, 11, 2, 60.0, 900.0, 600.0),
        job(3, 12, 8, 120.0, 48.0 * 3600.0, 90_000.0),
        job(5, 10, 4, 240.0, 3_600.0, 2_400.0),
    ];

    let out = simulate(
        &trace,
        &mut EasyBackfill::power_aware().with_aging(3_600.0),
        SimConfig::davide()
            .with_cap_schedule(CapSchedule::constant(70_000.0), true)
            .with_placement(PlacementStrategy::LeafAware),
    );
    assert_eq!(out.completed.len(), 4, "all submitted jobs complete");
    assert_eq!(out.overcap_time_fraction(), 0.0);

    // Placement recorded for every job; multi-node jobs have small
    // diameters on the lightly-loaded machine.
    for j in &out.completed {
        let alloc = &out.placements[&j.id];
        assert_eq!(alloc.len() as u32, j.nodes);
        if j.nodes > 1 {
            assert!(out.diameters[&j.id] <= 4);
        }
    }
    // The 16-node job cannot fit one 18-node leaf after the others are
    // placed — but on this trace it starts first among the big ones;
    // either way the simulator's accounting still balances:
    let mut ledger = EnergyLedger::new();
    ledger.ingest(&out);
    let balance = ledger.attributed_j() + ledger.unattributed_j() - out.total_energy_j();
    assert!(balance.abs() < 1e-3, "books balance: {balance}");
    assert!(ledger.user(10).is_some());
}
