//! E22 — the closed power-control loop of Fig. 4, end to end: gateway
//! frames over MQTT, online prediction, proactive admission, reactive
//! per-node DVFS. One job trace runs through three loop configurations
//! under the same cap, on the `davide-sim` plant.
//!
//! E23 — the same loop under scripted faults: the canned scenario set
//! must hold every ground-truth invariant, and two seeded regressions
//! must trip the checker.

use super::smoke;
use crate::header;
use davide_sched::controlplane::ControlMode;
use davide_sim::{harness, scenario, RunOutcome};

fn run_mode(mode: ControlMode, n_nodes: u32, cap_w: f64) -> RunOutcome {
    let mut sc = scenario::e22(mode, n_nodes, cap_w);
    if smoke() {
        sc.n_jobs = 50;
        sc.n_history = 400;
    }
    harness::run(&sc)
}

/// E22 — open-loop vs reactive-only vs closed-loop on one trace.
pub fn e22() {
    header("e22", "Closed-loop power control plane (Fig. 4)");
    let n_nodes = 16;
    // Envelope ≈ 70 % of the all-nodes-hot draw: tight enough that the
    // admission decision matters, loose enough that the machine is
    // normally node-limited.
    let cap_w = 22_000.0;
    println!(
        "nodes {n_nodes}, cap 22 kW, per-app plant drift ±12 % vs training history{}",
        if smoke() { "  [smoke]" } else { "" }
    );

    let runs: Vec<RunOutcome> = [
        ControlMode::OpenLoop,
        ControlMode::ReactiveOnly,
        ControlMode::ClosedLoop,
    ]
    .into_iter()
    .map(|m| run_mode(m, n_nodes, cap_w))
    .collect();

    println!(
        "\n{:<14} {:>6} {:>10} {:>10} {:>11} {:>9} {:>7} {:>7} {:>9}",
        "mode", "jobs", "makespan", "ovrcap s", "ovrcap kWh", "MAPE %", "down", "up", "jobs/h"
    );
    for r in runs.iter().map(|o| &o.report) {
        println!(
            "{:<14} {:>6} {:>9.1}h {:>10.0} {:>11.2} {:>9.2} {:>7} {:>7} {:>9.2}",
            r.mode.name(),
            r.jobs_completed,
            r.makespan_s / 3600.0,
            r.overcap_s,
            r.overcap_energy_j / 3.6e6,
            r.online_mape_pct,
            r.steps_down,
            r.steps_up,
            r.throughput_jobs_per_h,
        );
    }

    let open = &runs[0].report;
    let closed = &runs[2].report;
    assert!(
        runs[2].violations.is_empty(),
        "the closed loop must hold every invariant: {:?}",
        runs[2].violations
    );
    assert!(
        closed.overcap_energy_j < open.overcap_energy_j,
        "closed loop must cut overcap energy: {:.0} J vs {:.0} J",
        closed.overcap_energy_j,
        open.overcap_energy_j
    );
    assert!(
        closed.throughput_jobs_per_h >= open.throughput_jobs_per_h,
        "closed loop must not pay in throughput: {:.3} vs {:.3} jobs/h",
        closed.throughput_jobs_per_h,
        open.throughput_jobs_per_h
    );
    let saved = 100.0 * (1.0 - closed.overcap_energy_j / open.overcap_energy_j.max(1e-9));
    println!("\nclosed loop cuts overcap energy by {saved:.1} % at equal-or-better");
    println!("throughput: the predictor learns the plant drift from telemetry while");
    println!("the ladder absorbs what admission could not foresee — the \"mix both\"");
    println!("strategy of §III-A2.");
}

/// E23 — the canned fault scenarios at seed 2026, then the two seeded
/// regressions the invariant checker must catch.
pub fn e23() {
    header(
        "e23",
        "Fault-injection harness (telemetry → control-plane loop)",
    );
    let seed = 2026;
    println!(
        "\n{:<24} {:>5} {:>9} {:>9} {:>7} {:>7} {:>6} {:>10}",
        "scenario", "jobs", "frames", "suppr", "stale_s", "ovcap_s", "viol", "digest"
    );
    for sc in scenario::canned(seed) {
        let out = harness::run(&sc);
        println!(
            "{:<24} {:>5} {:>9} {:>9} {:>7.0} {:>7.0} {:>6} {:>#10x}",
            out.scenario,
            out.report.jobs_completed,
            out.truth.frames_delivered,
            out.truth.frames_suppressed,
            out.report.stale_node_s,
            out.truth.overcap_s,
            out.violations.len(),
            out.log.digest() & 0xffff_ffff,
        );
        assert!(
            out.violations.is_empty(),
            "{} must hold every invariant: {:?}",
            out.scenario,
            out.violations
        );
    }

    println!("\nseeded regressions (the checker must catch them):");
    for (sc, invariant) in [
        (scenario::open_loop_overcap_demo(seed), "cap"),
        (
            scenario::stale_fallback_regression_demo(seed),
            "stale-fallback",
        ),
    ] {
        let out = harness::run(&sc);
        let hits: Vec<_> = out
            .violations
            .iter()
            .filter(|v| v.invariant == invariant)
            .collect();
        println!(
            "{:<36} {} `{invariant}` violations",
            out.scenario,
            hits.len()
        );
        assert!(
            !hits.is_empty(),
            "{}: the checker missed the seeded `{invariant}` regression",
            out.scenario
        );
        println!("    first: {}", hits[0]);
    }
}
