//! E28 — the petaflops-class federated simulation: the full D.A.V.I.D.E.
//! deployment shape (§II: racks of 45 nodes behind per-rack management
//! networks, §III-A2: one facility power budget) as a multi-rack
//! discrete-event run. Every rack is a complete telemetry →
//! control-plane stack on its own broker; MQTT bridges fan rack
//! telemetry into a site broker where a federator splits the global
//! budget into per-rack cap grants, rebalanced on demand shifts.
//!
//! Gates: the sized run must cover ≥ 1000 nodes and ≥ 50 000 jobs,
//! hold every per-rack *and* federation-level invariant, conserve
//! energy between the site ledger and the rack ledgers, and be
//! bit-identically reproducible (one digest over all rack logs plus
//! the federation log, equal across an in-process rerun and to the
//! pinned value). `--smoke` shrinks it to 200 nodes / 5000 jobs for
//! CI; the gates are the same, with the smoke run's own pinned digest.

use super::smoke;
use crate::header;
use davide_obs::rollup_counters;
use davide_sim::federation::{run_federated_traced, run_federated_with_db_config, FedScenario};
use davide_telemetry::{TieringConfig, TsDbConfig};

/// E28 — federated multi-rack run under one global power budget.
pub fn e28() {
    header(
        "e28",
        "Federated petaflops-class sim (multi-rack, global budget)",
    );
    // Full: 23 racks × 45 nodes = 1035 nodes (the paper's pilot rack
    // scaled to the petaflops target), 50 002 jobs over a simulated day
    // and a half. Smoke: 5 racks × 40 nodes = 200 nodes, 5000 jobs.
    let (n_racks, nodes_per_rack, jobs_per_rack) = if smoke() {
        (5, 40, 1000)
    } else {
        (23, 45, 2174)
    };
    let fs = FedScenario::sized("e28", 2026, n_racks, nodes_per_rack, jobs_per_rack);
    let n_nodes = n_racks * nodes_per_rack as usize;
    let n_jobs = n_racks * jobs_per_rack;
    println!(
        "{n_racks} racks × {nodes_per_rack} nodes = {n_nodes} nodes, {n_jobs} jobs, \
         budget {:.0} kW, rebalance {:.0}s{}",
        fs.global_budget_w / 1e3,
        fs.rebalance_s,
        if smoke() { "  [smoke]" } else { "" }
    );

    // Day-long runs want bounded memory: every rack's store runs the
    // tiered engine (seal + compress; no disk tier, so nothing leaks
    // outside the process).
    let db = TsDbConfig {
        tiering: Some(TieringConfig::default()),
        ..TsDbConfig::default()
    };
    let out = run_federated_with_db_config(&fs, db.clone());

    println!(
        "\n{:<12} {:>6} {:>9} {:>10} {:>9} {:>8} {:>6}",
        "rack", "jobs", "energy", "makespan", "frames", "ovcap_s", "viol"
    );
    for r in &out.racks {
        println!(
            "{:<12} {:>6} {:>8.2}MWh {:>9.1}h {:>9} {:>8.0} {:>6}",
            &r.scenario[r.scenario.len() - 6..],
            r.report.jobs_completed,
            r.truth.total_energy_j / 3.6e9,
            r.truth.makespan_s / 3600.0,
            r.truth.frames_delivered,
            r.truth.overcap_s,
            r.violations.len(),
        );
    }
    let jobs_done: u64 = out.racks.iter().map(|r| r.report.jobs_completed).sum();
    let racks_energy = out.racks_energy_j();
    println!(
        "\nsite: {jobs_done} jobs, {:.2} MWh (Σ racks {:.2} MWh), {} rebalances, \
         {} grant events",
        out.global_energy_j / 3.6e9,
        racks_energy / 3.6e9,
        out.rebalances,
        out.fed_log.len(),
    );

    // ── Gates. ──
    assert!(n_nodes >= if smoke() { 200 } else { 1000 }, "node floor");
    assert!(n_jobs >= if smoke() { 5000 } else { 50_000 }, "job floor");
    assert_eq!(jobs_done as usize, n_jobs, "every job must complete");
    let violations = out.all_violations();
    assert!(
        violations.is_empty(),
        "E28 must hold every invariant, got {}: first {}",
        violations.len(),
        violations[0].1
    );
    assert!(
        (out.global_energy_j - racks_energy).abs() <= 1e-9 * racks_energy + 1e-6,
        "site ledger must equal the sum of rack ledgers"
    );
    assert!(out.rebalances > 0, "the budget must be rebalanced");

    // Determinism: the whole federation re-runs in-process to the same
    // digest (catching state that leaks between runs), and that digest
    // is the pinned one (catching a change that moves every run alike).
    let again = run_federated_with_db_config(&fs, db);
    assert_eq!(
        out.digest(),
        again.digest(),
        "E28 re-run diverged — the federation is not seed-pure"
    );
    let pinned: u64 = if smoke() {
        0x4172_c4f8_7bc0_56bd
    } else {
        0x8692_ce9d_f29c_3a84
    };
    assert_eq!(
        out.digest(),
        pinned,
        "E28 digest {:#018x} moved from the pinned {pinned:#018x}",
        out.digest()
    );
    println!(
        "digest {:#018x} (bit-identical across re-runs, pinned)",
        out.digest()
    );
}

/// E29 — the control-loop flight recorder: cap-grant causal tracing
/// overhead and grant-to-actuation latency on an E28-shaped federation.
///
/// Gates: tracing must cost ≤ 5 % wall clock against the disarmed
/// baseline (plus a small absolute slack for timer noise), digests must
/// be bit-identical traced vs untraced (and, in smoke mode, equal the
/// pinned value), every rack must complete grant
/// spans, and the grant-to-actuation (fed split → controller command)
/// and end-to-end (→ observed power crossing) p99 latencies must stay
/// inside the control-period/rebalance bounds the loop design implies.
pub fn e29() {
    header(
        "e29",
        "Cap-grant tracing: overhead A/B + grant-to-actuation latency",
    );
    let (n_racks, nodes_per_rack, jobs_per_rack) =
        if smoke() { (3, 30, 500) } else { (8, 45, 900) };
    let fs = FedScenario::sized("e29", 2027, n_racks, nodes_per_rack, jobs_per_rack);
    println!(
        "{n_racks} racks × {nodes_per_rack} nodes, {} jobs, rebalance {:.0}s{}",
        n_racks * jobs_per_rack,
        fs.rebalance_s,
        if smoke() { "  [smoke]" } else { "" }
    );
    let db = TsDbConfig {
        tiering: Some(TieringConfig::default()),
        ..TsDbConfig::default()
    };

    // A/B overhead: best of 3 each way, alternating which side runs
    // first, so a slow minute of host load cannot land on one side
    // alone; the instrumentation differs only in the tracers' atomic
    // early-outs.
    let mut base_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
    let mut base_digest = 0u64;
    let mut traced = None;
    for i in 0..3 {
        for armed in [i % 2 == 1, i % 2 == 0] {
            let t = std::time::Instant::now();
            let out = run_federated_traced(&fs, db.clone(), armed);
            let took = t.elapsed().as_secs_f64();
            if armed {
                traced_s = traced_s.min(took);
                traced = Some(out);
            } else {
                base_s = base_s.min(took);
                base_digest = out.digest();
            }
        }
    }
    let out = traced.expect("three iterations ran");
    println!(
        "\nuntraced {base_s:.3}s, traced {traced_s:.3}s  (overhead {:+.2}%)",
        (traced_s / base_s - 1.0) * 100.0
    );

    println!(
        "\n{:<12} {:>6} {:>5} {:>10} {:>10} {:>10} {:>10}",
        "rack", "spans", "lost", "apply_p50", "apply_p99", "e2e_p50", "e2e_p99"
    );
    // Latency bounds the loop design implies: a grant publishes on the
    // federate phase and is drained on the next control period (one
    // tick); the power crossing must land before the next grant
    // replaces it (≤ rebalance + tick). Histogram quantiles answer
    // log₂-bucket upper bounds, so the gates carry a 2× allowance.
    let apply_gate_ns = 2.0 * 2.0 * fs.rack.tick_s * 1e9;
    let e2e_gate_ns = 2.0 * (fs.rebalance_s + 2.0 * fs.rack.tick_s) * 1e9;
    for r in &out.racks {
        let reg = &r.obs.registry;
        let completed = reg
            .find_counter("obs_grant_completed_total")
            .map(|c| c.get())
            .unwrap_or(0);
        let lost: u64 = rollup_counters([&**reg])
            .into_iter()
            .filter(|(n, _)| n.starts_with("obs_grant_lost_total"))
            .map(|(_, v)| v)
            .sum();
        let q = |name: &str, q: f64| {
            reg.find_histogram(name)
                .map(|h| h.snapshot().quantile(q))
                .unwrap_or(0)
        };
        let (a50, a99) = (q("obs_grant_apply_ns", 0.50), q("obs_grant_apply_ns", 0.99));
        let (e50, e99) = (q("obs_grant_e2e_ns", 0.50), q("obs_grant_e2e_ns", 0.99));
        println!(
            "{:<12} {:>6} {:>5} {:>9.1}s {:>9.1}s {:>9.1}s {:>9.1}s",
            &r.scenario[r.scenario.len() - 6..],
            completed,
            lost,
            a50 as f64 / 1e9,
            a99 as f64 / 1e9,
            e50 as f64 / 1e9,
            e99 as f64 / 1e9,
        );
        assert!(completed > 0, "{}: no grant span completed", r.scenario);
        assert!(
            (a99 as f64) <= apply_gate_ns,
            "{}: apply p99 {a99} ns over the {apply_gate_ns:.0} ns gate",
            r.scenario
        );
        assert!(
            (e99 as f64) <= e2e_gate_ns,
            "{}: e2e p99 {e99} ns over the {e2e_gate_ns:.0} ns gate",
            r.scenario
        );
    }

    // ── Gates. ──
    assert_eq!(
        out.digest(),
        base_digest,
        "tracing must never perturb the event logs"
    );
    assert!(
        out.all_violations().is_empty(),
        "E29 runs a healthy federation"
    );
    assert!(
        traced_s <= base_s * 1.05 + 0.25,
        "tracing overhead over budget: {traced_s:.3}s vs {base_s:.3}s baseline"
    );
    if smoke() {
        assert_eq!(
            out.digest(),
            0x4977_3c8c_6660_8f3f,
            "E29 smoke digest {:#018x} moved from its pin",
            out.digest()
        );
    }
    println!(
        "\ndigest {:#018x} (traced == untraced), overhead within gate",
        out.digest()
    );
}
