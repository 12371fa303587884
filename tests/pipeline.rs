//! F4 — the full Fig. 4 pipeline, end to end:
//! node model → power waveform → energy gateway (sensor/ADC/decimation,
//! PTP timestamps) → MQTT broker → per-job aggregator → energy
//! accounting, with the scheduler's view reconciled against the
//! telemetry-side measurement.

use davide::core::node::{ComputeNode, NodeLoad};
use davide::core::rng::Rng;
use davide::mqtt::{Broker, QoS};
use davide::telemetry::gateway::{node_filter, EnergyGateway, SampleFrame};
use davide::telemetry::{EnergyIntegrator, WorkloadWaveform};

/// A job runs for two simulated seconds on one node; the EG measures it
/// through the full chain and an aggregator reconstructs its
/// energy-to-solution within 1 %.
#[test]
fn telemetry_reconstructs_job_energy_within_one_percent() {
    let broker = Broker::default();
    let mut aggregator = broker.connect("job-aggregator");
    aggregator
        .subscribe(&node_filter(3), QoS::AtMostOnce)
        .unwrap();

    // The node runs an HPC-job-shaped load around its model power.
    let node = ComputeNode::davide(3);
    let mean_power = node.power(NodeLoad::FULL).0;
    let wave = WorkloadWaveform::hpc_job(mean_power, 0.5);

    let mut eg = EnergyGateway::connect(&broker, 3, 1234);
    let mut gen = Rng::seed_from(99);
    let duration = 2.0;
    let truth = wave.render(800_000.0, duration, &mut gen);
    let frames = eg.acquire_and_publish("node", &truth, 1000.0);
    assert!(frames > 0);

    let mut acc = EnergyIntegrator::new();
    for m in aggregator.drain() {
        let frame = SampleFrame::decode(m.payload).expect("valid frame");
        acc.push(&frame);
    }
    let measured = acc.energy().0;
    let true_j = truth.energy().0;
    let err_pct = (measured - true_j).abs() / true_j * 100.0;
    assert!(
        err_pct < 1.0,
        "EG chain error {err_pct:.3}% (measured {measured:.1} J vs {true_j:.1} J)"
    );
    // The reconstructed mean power matches the node model.
    assert!((acc.mean_power().0 - truth.mean().0).abs() < mean_power * 0.02);
}

/// Multiple agents (control, profiler, accounting) subscribe to the same
/// gateway stream and all see the same data — the M2M fan-out that
/// motivates MQTT in §III-A1.
#[test]
fn multiple_agents_see_identical_streams() {
    let broker = Broker::default();
    let mut control = broker.connect("control-agent");
    let mut profiler = broker.connect("profiler");
    let mut accounting = broker.connect("accounting");
    for c in [&mut control, &mut profiler, &mut accounting] {
        c.subscribe("davide/+/power/#", QoS::AtMostOnce).unwrap();
    }

    let mut eg = EnergyGateway::connect(&broker, 7, 5);
    let mut gen = Rng::seed_from(7);
    let truth = WorkloadWaveform::gpu_burst(1700.0).render(800_000.0, 0.3, &mut gen);
    eg.acquire_and_publish("node", &truth, 0.0);

    let a = control.drain();
    let b = profiler.drain();
    let c = accounting.drain();
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len());
    assert_eq!(b.len(), c.len());
    for ((x, y), z) in a.iter().zip(&b).zip(&c) {
        assert_eq!(x.payload, y.payload);
        assert_eq!(y.payload, z.payload);
    }
}

/// Per-component channels: the gateway publishes CPU/GPU breakdowns and
/// the aggregated component energies are consistent with node energy.
#[test]
fn component_channels_sum_close_to_node_channel() {
    let broker = Broker::default();
    let mut agent = broker.connect("component-agent");
    agent.subscribe(&node_filter(11), QoS::AtMostOnce).unwrap();

    let node = ComputeNode::davide(11);
    let (cpu_w, gpu_w, mem_w, other_w) = node.power_breakdown(NodeLoad::FULL);
    let mut eg = EnergyGateway::connect(&broker, 11, 21);
    let mut gen = Rng::seed_from(3);
    let duration = 0.5;

    // Render each component as a (noisy, near-DC) waveform and publish
    // on its channel; also publish the node-total channel.
    let channels: [(&str, f64); 5] = [
        ("cpu0", cpu_w.0 / 2.0),
        ("cpu1", cpu_w.0 / 2.0),
        ("gpu0", gpu_w.0 / 4.0),
        ("node", (cpu_w + gpu_w + mem_w + other_w).0),
        ("aux12v", (mem_w + other_w).0),
    ];
    for (chan, watts) in channels {
        let truth = WorkloadWaveform::idle(watts).render(800_000.0, duration, &mut gen);
        eg.acquire_and_publish(chan, &truth, 0.0);
    }

    use std::collections::HashMap;
    let mut per_chan: HashMap<String, EnergyIntegrator> = HashMap::new();
    for m in agent.drain() {
        let frame = SampleFrame::decode(m.payload).unwrap();
        per_chan
            .entry(m.topic.to_string())
            .or_default()
            .push(&frame);
    }
    assert_eq!(per_chan.len(), 5, "five channels seen");
    let e = |c: &str| per_chan[&format!("davide/node11/power/{c}")].energy().0;
    let parts = e("cpu0") + e("cpu1") + e("gpu0") * 4.0 + e("aux12v");
    let node_e = e("node");
    let err = (parts - node_e).abs() / node_e * 100.0;
    assert!(err < 2.0, "component sum off by {err:.2}%");
}
