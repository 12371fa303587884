//! Power-management experiments: E9 (node capping), E10 (prediction),
//! E11 (scheduling policies under a cap), E12 (accounting), E13
//! (energy proportionality), F4 (end-to-end pipeline).

use crate::header;
use davide_core::capping::{evaluate, PiCapController, RaplWindow};
use davide_core::node::{ComputeNode, NodeLoad};
use davide_core::rng::Rng;
use davide_core::units::{Seconds, Watts};
use davide_predictor::{ModelKind, RlsPredictor};
use davide_sched::{
    report, simulate, CapSchedule, EasyBackfill, EnergyLedger, Fcfs, PowerPredictor, SimConfig,
    SimReport, WorkloadConfig, WorkloadGenerator,
};

/// E9 — node power capping: cap sweep, settle time, QoS cost, and the
/// RAPL-window ablation.
pub fn e9() {
    header("e9", "Node-level reactive power capping");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>14}",
        "cap", "settle", "violations", "overshoot", "perf after"
    );
    for cap_kw in [2.0, 1.8, 1.6, 1.4, 1.2, 1.0] {
        let mut node = ComputeNode::davide(0);
        let mut ctl = PiCapController::new(Watts::from_kw(cap_kw));
        let traj = ctl.run(&mut node, NodeLoad::FULL, Seconds(0.1), 400);
        let q = evaluate(&traj, ctl.band);
        println!(
            "{:>6.1}kW {:>9.1} s {:>11.1} % {:>10.1} W {:>13.1} %",
            cap_kw,
            q.settle_steps as f64 * 0.1,
            q.violation_fraction * 100.0,
            q.max_overshoot.0,
            q.mean_perf_after_settle * 100.0
        );
    }
    println!("\nthe §III-A2 trade-off: every watt of cap below the natural draw is");
    println!("paid in DVFS performance — why capping alone violates SLAs.");

    // RAPL-window ablation: how the window length trades burst tolerance.
    println!("\nRAPL-style window ablation (1.5 kW average cap, 2.2 kW bursts):");
    for window_s in [1.0, 5.0, 20.0] {
        let mut rapl = RaplWindow::new(Watts(1500.0), Seconds(window_s));
        let mut tolerated = 0;
        for i in 0..200 {
            let burst = i % 10 < 3; // 30 % duty bursts
            rapl.observe(Watts(if burst { 2200.0 } else { 1200.0 }), Seconds(0.5));
            if rapl.compliant() {
                tolerated += 1;
            }
        }
        println!(
            "  window {:>4.0} s → compliant {:>5.1} % of samples (avg {:.0} W)",
            window_s,
            tolerated as f64 / 2.0,
            rapl.average().0
        );
    }
}

/// E10 — job power-prediction accuracy across models and history sizes.
pub fn e10() {
    header("e10", "Per-job power prediction ([17][18])");
    let cfg = WorkloadConfig::default();
    let mut gen = WorkloadGenerator::new(cfg, 404);
    let all = gen.trace(6000);
    let (train_full, test) = all.split_at(5000);

    // Every model family behind the runtime-selectable ModelKind API.
    print!("{:>10}", "history");
    for kind in ModelKind::ALL {
        print!(" {:>12}", format!("{} MAPE", kind.name()));
    }
    println!();
    for hist in [100usize, 500, 2000, 5000] {
        let train = &train_full[train_full.len() - hist..];
        print!("{hist:>10}");
        for kind in ModelKind::ALL {
            let mape = PowerPredictor::from_kind(kind, train, 24).mape_on(test);
            print!(" {:>10.2} %", mape);
        }
        println!();
    }

    // Streaming variant: the management node retrains as the accounting
    // database grows (Fig. 4) — here via recursive least squares.
    use davide_predictor::FeatureEncoder;
    use davide_sched::power_predictor::descriptor;
    let enc = FeatureEncoder::new(24, 4);
    let mut rls = RlsPredictor::new(enc.dim(), 0.999, 1000.0);
    let mut checkpoints = Vec::new();
    for (i, job) in train_full.iter().enumerate() {
        let x = enc.encode(&descriptor(job));
        rls.update(&x, job.true_power_w);
        if [99, 499, 1999, 4999].contains(&i) {
            let xs: Vec<Vec<f64>> = test.iter().map(|j| enc.encode(&descriptor(j))).collect();
            let ys: Vec<f64> = test.iter().map(|j| j.true_power_w).collect();
            checkpoints.push((i + 1, rls.mape_on(&xs, &ys)));
        }
    }
    println!("\nonline RLS (one pass over the stream, no refits):");
    for (seen, mape) in checkpoints {
        println!("  after {seen:>5} jobs: MAPE {mape:>6.2} %");
    }
    println!("\nliterature reference: [17] reports ≈10 % MAPE on production CINECA");
    println!("traces; the synthetic users are more regular, so single digits here.");
}

fn run_policies(trace_len: usize, cap_kw: f64, seed: u64) -> Vec<SimReport> {
    let cfg = WorkloadConfig {
        mean_interarrival_s: 60.0,
        ..WorkloadConfig::default()
    };
    let mut gen = WorkloadGenerator::new(cfg, seed);
    let history = gen.trace(2000);
    let mut trace = gen.trace(trace_len);
    let predictor = PowerPredictor::from_kind(ModelKind::linreg(), &history, 24);
    predictor.annotate(&mut trace);
    let cap = cap_kw * 1000.0;
    vec![
        report(&simulate(&trace, &mut Fcfs, SimConfig::davide())),
        report(&simulate(
            &trace,
            &mut EasyBackfill::new(),
            SimConfig::davide(),
        )),
        report(&simulate(
            &trace,
            &mut EasyBackfill::new(),
            SimConfig::davide().with_cap_schedule(CapSchedule::constant(cap), true),
        )),
        report(&simulate(
            &trace,
            &mut EasyBackfill::power_aware(),
            SimConfig::davide().with_cap_schedule(CapSchedule::constant(cap), false),
        )),
        report(&simulate(
            &trace,
            &mut EasyBackfill::power_aware(),
            SimConfig::davide().with_cap_schedule(CapSchedule::constant(cap), true),
        )),
    ]
}

/// E11 — scheduling policies under a facility power envelope.
pub fn e11() {
    header("e11", "Proactive vs reactive power-capped scheduling");
    let labels = [
        "fcfs (no cap)",
        "easy (no cap)",
        "easy + reactive cap",
        "proactive (pred.)",
        "proactive+reactive",
    ];
    for cap_kw in [60.0, 70.0, 80.0] {
        println!("\n--- envelope {cap_kw} kW, 400 jobs, 45 nodes ---");
        println!(
            "{:<22} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9}",
            "policy", "wait(s)", "slowdn", "util%", "kWh", "ovrcap%", "peak kW"
        );
        for (label, r) in labels.iter().zip(run_policies(400, cap_kw, 11)) {
            println!(
                "{:<22} {:>9.0} {:>8.2} {:>8.1} {:>9.1} {:>9.3} {:>9.1}",
                label,
                r.mean_wait_s,
                r.mean_slowdown,
                r.utilisation * 100.0,
                r.energy_kwh,
                r.overcap_fraction * 100.0,
                r.peak_power_w / 1000.0
            );
        }
    }
    println!("\nshape: reactive-only holds the cap by throttling (more kWh, longer");
    println!("jobs); proactive admission holds it by ordering, at full node speed —");
    println!("the [15][16] result the paper builds on.");

    // Ablation 1: fairness aging on the proactive dispatcher.
    println!("\nfairness-aging ablation (60 kW envelope):");
    let cfg = WorkloadConfig {
        mean_interarrival_s: 60.0,
        ..WorkloadConfig::default()
    };
    let mut gen = WorkloadGenerator::new(cfg, 21);
    let history = gen.trace(2000);
    let mut trace = gen.trace(400);
    PowerPredictor::from_kind(ModelKind::linreg(), &history, 24).annotate(&mut trace);
    println!(
        "{:>14} {:>12} {:>12} {:>12}",
        "aging bound", "mean wait", "p95 wait", "max slowdown"
    );
    for aging in [None, Some(4.0 * 3600.0), Some(1.0 * 3600.0)] {
        let mut policy = match aging {
            None => EasyBackfill::power_aware(),
            Some(a) => EasyBackfill::power_aware().with_aging(a),
        };
        let out = simulate(
            &trace,
            &mut policy,
            SimConfig::davide().with_cap_schedule(CapSchedule::constant(60_000.0), true),
        );
        let r = report(&out);
        let max_slow = out
            .completed
            .iter()
            .filter_map(|j| j.bounded_slowdown())
            .fold(0.0_f64, f64::max);
        println!(
            "{:>14} {:>10.0} s {:>10.0} s {:>12.1}",
            aging.map_or("off".to_string(), |a| format!("{:.0} h", a / 3600.0)),
            r.mean_wait_s,
            r.p95_wait_s,
            max_slow
        );
    }
    println!("aging trades a little mean wait for a bounded worst case — the");
    println!("\"preserving job fairness\" requirement of §III-A2.");

    // Ablation 2: MS3-style day/night envelope ([15]).
    println!("\nMS3 day/night-envelope ablation (day 55 kW / night 75 kW vs flat):");
    for (label, cfg) in [
        (
            "flat 65 kW",
            SimConfig::davide().with_cap_schedule(CapSchedule::constant(65_000.0), true),
        ),
        (
            "55 kW day / 75 kW night",
            SimConfig::davide().with_cap_schedule(CapSchedule::day_night(55_000.0, 75_000.0), true),
        ),
    ] {
        let out = simulate(&trace, &mut EasyBackfill::power_aware(), cfg);
        let r = report(&out);
        println!(
            "  {:<26} wait {:>8.0} s  slowdn {:>6.2}  kWh {:>8.1}  peak {:>5.1} kW",
            label,
            r.mean_wait_s,
            r.mean_slowdown,
            r.energy_kwh,
            r.peak_power_w / 1000.0
        );
    }
    println!("the same mean envelope shifted to cool hours ([15] \"do less when it's");
    println!("too hot\") keeps QoS while shaping when the power is drawn.");
}

/// E12 — per-job / per-user energy accounting, served through the same
/// [`QueryService`](davide_api::QueryService) rollup path the HTTP front-end exposes.
pub fn e12() {
    use davide_api::{JobRollupRequest, QueryService, QueryServiceConfig, UserRollupRequest};
    use davide_telemetry::gateway::power_topic;
    use davide_telemetry::TsDb;

    header("e12", "Energy accounting (EA) & attribution");
    let cfg = WorkloadConfig::default();
    let mut gen = WorkloadGenerator::new(cfg, 77);
    let trace = gen.trace(300);
    let out = simulate(&trace, &mut EasyBackfill::new(), SimConfig::davide());
    let svc = QueryService::over_store(
        TsDb::new(),
        &davide_obs::ObsHub::monotonic(),
        QueryServiceConfig::default(),
    );
    svc.ingest_outcome(&out, |n| power_topic(n, "node"));

    let total = out.total_energy_j();
    let ledger = svc.ledger();
    let ledger = ledger.read();
    let attributed = ledger.attributed_j();
    println!(
        "system energy {:.1} kWh = attributed {:.1} kWh (jobs) + {:.1} kWh (idle floor)",
        total / 3.6e6,
        attributed / 3.6e6,
        ledger.unattributed_j() / 3.6e6
    );
    assert!((attributed + ledger.unattributed_j() - total).abs() < 1e-3);
    println!("conservation check: Σ per-job + idle = system ✓");
    drop(ledger);

    println!("\ntop 5 users by energy-to-solution (via /v1/rollup/user):");
    println!(
        "{:<8} {:>6} {:>10} {:>12} {:>12} {:>10}",
        "user", "jobs", "kWh", "node-hours", "W/node avg", "cost (€)"
    );
    let rollup = svc
        .rollup_user(&UserRollupRequest { user_id: None })
        .expect("rollup");
    for u in rollup.users.iter().take(5) {
        println!(
            "user{:<4} {:>6} {:>10.1} {:>12.1} {:>12.0} {:>10.2}",
            u.user_id,
            u.jobs,
            u.energy_j / 3.6e6,
            u.node_seconds / 3600.0,
            u.mean_power_w,
            u.cost
        );
    }
    // Spot-check one job through the same typed path.
    let heaviest = rollup.users.first().expect("users exist").user_id;
    let job = out
        .completed
        .iter()
        .find(|j| j.user_id == heaviest)
        .expect("heaviest user completed a job");
    let jr = svc
        .rollup_job(&JobRollupRequest {
            job_id: job.id,
            measured: false,
        })
        .expect("job rollup");
    println!(
        "\njob {} (user{}): ledger {:.2} kWh, cost €{:.2} (via /v1/rollup/job)",
        jr.job_id,
        jr.user_id,
        jr.ledger_energy_j.unwrap_or(0.0) / 3.6e6,
        jr.cost
    );
    assert!(jr.ledger_energy_j.unwrap_or(0.0) > 0.0);
}

/// E13 — energy-proportionality APIs: node shaped to the job.
pub fn e13() {
    header("e13", "Energy-proportionality APIs (§IV)");
    use davide_apps::workload::{AppKind, AppModel};
    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>9} {:>14}",
        "application", "shape", "full node", "shaped", "saving", "kWh/day saved"
    );
    for kind in AppKind::ALL {
        let model = AppModel::for_kind(kind);
        let full = ComputeNode::davide(0);
        let mut shaped = ComputeNode::davide(1);
        shaped.apply_shape(model.shape).unwrap();
        let p_full = model.mean_node_power(&full).0;
        let p_shape = model.mean_node_power(&shaped).0;
        println!(
            "{:<18} {:>4}g/{:<2}c {:>10.0} W {:>10.0} W {:>8.1} % {:>14.1}",
            kind.name(),
            model.shape.gpus,
            model.shape.cores_per_socket,
            p_full,
            p_shape,
            100.0 * (1.0 - p_shape / p_full),
            (p_full - p_shape) * 86_400.0 / 3.6e6
        );
    }
    // GPU-count sweep for a 1-GPU-per-rank app on one node.
    println!("\nGPU-gating sweep (idle node + k active GPUs at full tilt):");
    for k in 0..=4u32 {
        let mut node = ComputeNode::davide(0);
        node.apply_shape(davide_core::node::JobShape {
            cores_per_socket: 2,
            gpus: k,
            centaurs_per_socket: 2,
        })
        .unwrap();
        let p = node.power(NodeLoad {
            cpu: 0.3,
            gpu: 1.0,
            mem: 0.5,
            net: 0.1,
        });
        println!("  {k} GPU(s): {:>6.0} W", p.0);
    }
}

/// F4 — the whole Fig. 4 pipeline in one run: monitored, predicted,
/// proactively scheduled, reactively guarded, accounted.
pub fn f4() {
    header("f4", "Fig. 4 end-to-end: EG → predictor → dispatcher → EA");
    // 1. Train the predictor (EP) from history.
    let cfg = WorkloadConfig::default();
    let mut gen = WorkloadGenerator::new(cfg, 1);
    let history = gen.trace(1500);
    let predictor = PowerPredictor::from_kind(ModelKind::linreg(), &history, 24);
    println!("EP: ridge predictor trained on {} jobs", history.len());

    // 2. Schedule a new trace under the envelope.
    let mut trace = gen.trace(200);
    predictor.annotate(&mut trace);
    let out = simulate(
        &trace,
        &mut EasyBackfill::power_aware(),
        SimConfig::davide().with_cap_schedule(CapSchedule::constant(70_000.0), true),
    );
    let r = report(&out);
    println!(
        "dispatcher: {} jobs under 70 kW — overcap {:.3} %, peak {:.1} kW, util {:.1} %",
        r.jobs,
        r.overcap_fraction * 100.0,
        r.peak_power_w / 1000.0,
        r.utilisation * 100.0
    );

    // 3. The EG verifies one node's schedule-window energy through the
    //    full telemetry chain.
    use davide_mqtt::{Broker, QoS};
    use davide_telemetry::gateway::{node_filter, EnergyGateway, SampleFrame};
    use davide_telemetry::{EnergyIntegrator, WorkloadWaveform};
    let broker = Broker::default();
    let mut agent = broker.connect("per-job-aggregator");
    agent.subscribe(&node_filter(0), QoS::AtMostOnce).unwrap();
    let mut eg = EnergyGateway::connect(&broker, 0, 3);
    let mean_w = trace[0].true_power_w;
    let mut wave_rng = Rng::seed_from(8);
    let truth = WorkloadWaveform::hpc_job(mean_w, 0.5).render(800_000.0, 1.0, &mut wave_rng);
    eg.acquire_and_publish("node", &truth, 0.0);
    let mut acc = EnergyIntegrator::new();
    for m in agent.drain() {
        acc.push(&SampleFrame::decode(m.payload).unwrap());
    }
    let err = (acc.energy().0 - truth.energy().0).abs() / truth.energy().0 * 100.0;
    println!("EG: measured job slice through sensor/ADC/MQTT with {err:.3} % energy error");

    // 4. Accounting (EA).
    let mut ledger = EnergyLedger::new();
    ledger.ingest(&out);
    println!(
        "EA: {:.1} kWh attributed across {} users; idle floor {:.1} kWh",
        ledger.attributed_j() / 3.6e6,
        ledger.users_by_energy().len(),
        ledger.unattributed_j() / 3.6e6
    );
    println!("\nFig. 4 functionality demonstrated: Pr/EA/EP + proactive + reactive ✓");
}

/// E18 — the §IV co-design tradeoff: time-to-solution versus
/// energy-to-solution across allocation sizes.
pub fn e18() {
    header("e18", "Time-to-solution vs energy-to-solution (§IV)");
    use davide_apps::distributed::{ets_optimal_nodes, tts_ets_sweep, tts_optimal_nodes};
    use davide_apps::workload::{AppKind, AppModel};
    for kind in AppKind::ALL {
        let app = AppModel::for_kind(kind);
        println!("\n{} (100 iterations):", kind.name());
        println!(
            "{:>8} {:>12} {:>14} {:>12}",
            "nodes", "TTS", "ETS", "efficiency"
        );
        for (n, tts, ets) in tts_ets_sweep(&app, 100, &[1, 2, 4, 8, 16, 32]) {
            let eff = app.iteration_time.0 * 100.0 / (tts * n as f64);
            println!(
                "{:>8} {:>10.0} s {:>12.2} kWh {:>11.1} %",
                n,
                tts,
                ets / 3.6e6,
                eff * 100.0
            );
        }
        let tts_n = tts_optimal_nodes(&app, 32);
        let ets_n = ets_optimal_nodes(&app, 32);
        println!(
            "  TTS-optimal {} nodes; ETS-optimal {} nodes — the §IV tradeoff the",
            tts_n, ets_n
        );
        println!("  energy APIs expose to developers.");
    }
}

/// E19 — the E4 burn-in suite (§I) on healthy and faulty nodes.
pub fn e19() {
    header("e19", "Burn-in acceptance suite (§I)");
    use davide_core::burnin::{burnin_batch, run_burnin, BurnInConfig};
    let mut node = ComputeNode::davide(0);
    let report = run_burnin(&mut node, BurnInConfig::default());
    println!("healthy liquid-cooled node:");
    println!(
        "{:<16} {:>10} {:>12} {:>10} {:>8}",
        "stage", "power", "peak die", "throttles", "verdict"
    );
    for s in &report.stages {
        println!(
            "{:<16} {:>8.0} W {:>10.1} °C {:>10} {:>8}",
            s.stage,
            s.power.0,
            s.peak_die_temp.0,
            s.throttle_events,
            if s.passed { "PASS" } else { "FAIL" }
        );
    }
    println!(
        "capping-response check: {} — overall {}",
        if report.capping_ok { "PASS" } else { "FAIL" },
        if report.passed {
            "ACCEPTED"
        } else {
            "REJECTED"
        }
    );

    // A batch with injected faults.
    let mut batch: Vec<ComputeNode> = (0..6).map(ComputeNode::davide).collect();
    batch[2].gpus[0].set_enabled(false); // dead GPU
    batch[2].gpus[2].set_enabled(false);
    batch.push(ComputeNode::davide_air_cooled(40)); // mis-built cooling
    let failures = burnin_batch(&mut batch, BurnInConfig::default());
    println!("\nbatch of 7 (one dead-GPU node, one air-cooled mis-build):");
    for f in &failures {
        let causes: Vec<&str> = f
            .stages
            .iter()
            .filter(|s| !s.passed)
            .map(|s| s.stage)
            .collect();
        println!(
            "  node {:>2} REJECTED — failing stages: {causes:?}",
            f.node_id
        );
    }
    println!(
        "  {} of 7 rejected; healthy nodes pass silently.",
        failures.len()
    );
}

/// E20 — the smart profiler (Fig. 4 "Pr"): phase detection and spectral
/// fingerprinting on gateway streams.
pub fn e20() {
    header("e20", "Smart profiler: phases & spectra (Fig. 4 Pr)");
    use davide_telemetry::profiler::{detect_phases, summarise, ProfilerConfig};
    use davide_telemetry::spectral::welch_psd;
    use davide_telemetry::WorkloadWaveform;

    let mut rng = davide_core::rng::Rng::seed_from(31);
    let wave = WorkloadWaveform::hpc_job(1700.0, 0.5);
    // What the EG actually delivers: the truth through the full chain.
    let truth = wave.render(800_000.0, 4.0, &mut rng.fork());
    let chain = davide_telemetry::MonitorChain::davide_eg(&mut rng.fork());
    let stream = chain.acquire(&truth, &mut rng);

    let phases = detect_phases(&stream, ProfilerConfig::default());
    let summary = summarise(&phases);
    println!(
        "phase detection on the 50 kS/s stream: {} phases, high-duty {:.0} %, hottest {:.0} W",
        summary.phases,
        summary.high_duty * 100.0,
        summary.hottest_mean.0
    );
    println!("first phases:");
    for p in phases.iter().take(6) {
        println!(
            "  [{:>6.3} – {:>6.3}] s  {:>7.1} W  {:>8.1} J",
            p.t0, p.t1, p.mean.0, p.energy.0
        );
    }

    let spec = welch_psd(&stream, 131_072); // df ≈ 0.38 Hz
    let (f, _) = spec.dominant().unwrap();
    println!("\nspectral fingerprint: dominant line at {f:.1} Hz (1 Hz phase square wave and");
    println!(
        "its odd harmonics); band power 0.5–6 Hz: {:.0} W², 40–60 Hz: {:.0} W²",
        spec.band_power(0.5, 6.0),
        spec.band_power(40.0, 60.0)
    );
    println!("\nthe Pr loop: phases → per-phase energy → \"sources of not-optimality\".");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_comparison_has_expected_shape() {
        let rs = run_policies(150, 65.0, 3);
        // Reactive-only and combined hold the cap.
        assert!(rs[2].overcap_fraction < 1e-9);
        assert!(rs[4].overcap_fraction < 1e-9);
        // Uncapped runs exceed 65 kW at peak.
        assert!(rs[1].peak_power_w > 65_000.0);
        // Proactive-only has small residual violations (prediction error).
        assert!(rs[3].overcap_fraction < 0.10);
        // Backfill beats FCFS on waiting.
        assert!(rs[1].mean_wait_s <= rs[0].mean_wait_s);
    }
}
