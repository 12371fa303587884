//! Integration: the full Fig. 4 data path including the database —
//! rack gateways → rack broker → bridge → site broker → time-series DB
//! → profiler/accounting queries.

use davide::core::rng::Rng;
use davide::mqtt::{Bridge, Broker, QoS};
use davide::telemetry::gateway::{EnergyGateway, SampleFrame};
use davide::telemetry::profiler::{detect_phases, ProfilerConfig};
use davide::telemetry::tsdb::{Resolution, TsDb};
use davide::telemetry::WorkloadWaveform;

#[test]
fn rack_to_site_to_database_pipeline() {
    // Rack-level broker with two gateways; site broker with the DB.
    let rack = Broker::default();
    let site = Broker::default();
    let mut bridge = Bridge::connect(&rack, &site, "rack0", &["davide/+/power/#"], None).unwrap();
    let mut ingest = site.connect("tsdb-ingest");
    ingest
        .subscribe("davide/+/power/#", QoS::AtMostOnce)
        .unwrap();

    let mut gen = Rng::seed_from(17);
    let mut db = TsDb::with_capacity(200_000);
    for node_id in [0u32, 1] {
        let mut eg = EnergyGateway::connect(&rack, node_id, 500 + node_id as u64);
        let dc = 1500.0 + node_id as f64 * 200.0;
        let truth = WorkloadWaveform::idle(dc).render(800_000.0, 1.0, &mut gen);
        eg.acquire_and_publish("node", &truth, 1000.0);
    }
    bridge.pump();

    // Ingest every bridged frame into the DB.
    let mut frames = 0;
    for m in ingest.drain() {
        let f = SampleFrame::decode(m.payload).unwrap();
        let sid = db.resolve(&m.topic);
        db.append_frame_id(sid, f.t0_s, f.dt_s, &f.watts);
        frames += 1;
    }
    assert_eq!(frames, 200, "two nodes × 100 frames");

    // Query side: per-node mean power at 1-second rollup.
    let keys = db.keys();
    assert_eq!(keys.len(), 2);
    let s0 = db.resolve("davide/node00/power/node");
    let s1 = db.resolve("davide/node01/power/node");
    let m0 = db.mean_id(s0, Resolution::Second, 0.0, 1e9).unwrap();
    let m1 = db.mean_id(s1, Resolution::Second, 0.0, 1e9).unwrap();
    assert!((m0 - 1500.0).abs() < 20.0, "node00 mean {m0}");
    assert!((m1 - 1700.0).abs() < 20.0, "node01 mean {m1}");

    // Energy query over the observed window ≈ power × 1 s.
    let e0 = db.energy_j_id(s0, 0.0, 1e9);
    assert!((e0 - 1500.0).abs() < 25.0, "≈1500 J: {e0}");
}

#[test]
fn profiler_works_on_database_extracts() {
    // Store a phased job, pull a raw range back out, run the profiler.
    let mut gen = Rng::seed_from(23);
    let wave = WorkloadWaveform::hpc_job(1600.0, 0.5);
    let truth = wave.render(10_000.0, 3.0, &mut gen);
    let mut db = TsDb::with_capacity(100_000);
    let sid = db.resolve("job42/power");
    for (i, &w) in truth.samples.iter().enumerate() {
        db.append_id(sid, truth.time_of(i), w);
    }
    let points = db.query_id(sid, Resolution::Raw, 0.0, 3.0);
    assert_eq!(points.len(), truth.len());
    // Rebuild a trace from the DB extract.
    let trace = davide::core::power::PowerTrace::new(
        davide::core::time::SimTime::ZERO,
        truth.dt,
        points.iter().map(|p| p.v).collect(),
    );
    // The hpc_job waveform carries ±130 W of iteration harmonics on top
    // of its 560 W phase steps; set the change threshold between the two.
    let cfg = ProfilerConfig {
        threshold_w: 250.0,
        min_phase_s: 0.1,
        ..ProfilerConfig::default()
    };
    let phases = detect_phases(&trace, cfg);
    assert!(
        (5..=7).contains(&phases.len()),
        "3 s of 0.5 s phases → ~6 segments, got {}",
        phases.len()
    );
}
