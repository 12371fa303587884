//! E25 — full-rate acquisition: one simulated second of cluster-wide
//! front-end sampling (45 nodes × 8 channels × 800 kS/s ≈ 288 M raw
//! samples) driven end to end — synth → ADC → decimation → MQTT →
//! ingest → TsDb — comparing the blocked `f32` kernel path against the
//! retained scalar reference path (see DESIGN.md "Full-rate acquisition
//! path").

use super::smoke;
use crate::header;
use davide_obs::ObsHub;
use davide_telemetry::acquisition::{AcquisitionConfig, AcquisitionRig, DspMode};

/// Per-stage wall-time shares of a run, for the report table.
fn stage_row(label: &str, r: &davide_telemetry::acquisition::AcquisitionReport) {
    let total = (r.compute_ns + r.publish_ns + r.ingest_ns).max(1) as f64;
    println!(
        "{:<28} {:>8.1} ms compute ({:>4.1}%) {:>8.1} ms publish ({:>4.1}%) {:>8.1} ms ingest ({:>4.1}%)",
        label,
        r.compute_ns as f64 / 1e6,
        r.compute_ns as f64 / total * 100.0,
        r.publish_ns as f64 / 1e6,
        r.publish_ns as f64 / total * 100.0,
        r.ingest_ns as f64 / 1e6,
        r.ingest_ns as f64 / total * 100.0,
    );
}

/// E25 — full-rate acquisition path.
pub fn e25() {
    header("e25", "Full-rate acquisition (45 EGs × 8 ch × 800 kS/s)");

    // Full mode drives the paper's design point through the blocked
    // path: the whole simulated second, all 45 gateways. The scalar
    // baseline is measured on the same per-gateway workload over a
    // smaller slice (same per-sample work, fewer of them) and compared
    // on samples/s — running the seed path over all 288 M raw samples
    // would only make the experiment slower, not the ratio different.
    let (blocked_cfg, scalar_cfg) = if smoke() {
        (
            AcquisitionConfig::smoke(),
            AcquisitionConfig {
                duration_s: 0.02,
                ..AcquisitionConfig::smoke()
            },
        )
    } else {
        (
            AcquisitionConfig::full_rate(),
            AcquisitionConfig {
                nodes: 9,
                duration_s: 0.5,
                ..AcquisitionConfig::full_rate()
            },
        )
    };

    println!(
        "blocked: {} nodes × {} ch × {:.0} kS/s × {:.2} s = {:.1} M raw samples",
        blocked_cfg.nodes,
        blocked_cfg.channels,
        blocked_cfg.adc.sample_rate / 1e3,
        blocked_cfg.duration_s,
        blocked_cfg.raw_samples() as f64 / 1e6
    );
    println!(
        "scalar baseline: {} nodes × {} ch × {:.2} s = {:.1} M raw samples\n",
        scalar_cfg.nodes,
        scalar_cfg.channels,
        scalar_cfg.duration_s,
        scalar_cfg.raw_samples() as f64 / 1e6
    );

    // Scalar single-thread baseline: the seed DSP path.
    let mut scalar_rig = AcquisitionRig::new(scalar_cfg, DspMode::Scalar);
    let scalar = scalar_rig.run();
    assert_eq!(
        scalar.stored_samples, scalar.decimated_samples,
        "no stale drops in an ordered replay"
    );

    // Blocked full-rate path, with obs per-stage instruments attached.
    let hub = ObsHub::monotonic();
    let mut blocked_rig = AcquisitionRig::new(blocked_cfg, DspMode::Blocked);
    blocked_rig.set_obs(&hub);
    let blocked = blocked_rig.run();
    assert_eq!(
        blocked.stored_samples, blocked.decimated_samples,
        "every decimated sample must land in the TsDb"
    );

    println!(
        "{:<28} {:>14} {:>12} {:>12} {:>9}",
        "path", "raw samples", "wall", "samples/s", "speedup"
    );
    println!("{}", "-".repeat(80));
    let rows = [("scalar reference", &scalar), ("blocked kernels", &blocked)];
    for (name, r) in rows {
        println!(
            "{:<28} {:>12.1} M {:>9.1} ms {:>9.1} M/s {:>8.2}×",
            name,
            r.raw_samples as f64 / 1e6,
            r.elapsed_s * 1e3,
            r.raw_samples_per_s / 1e6,
            r.raw_samples_per_s / scalar.raw_samples_per_s
        );
    }
    println!();
    stage_row("scalar stage split", &scalar);
    stage_row("blocked stage split", &blocked);

    // Per-stage latency distribution from the obs registry.
    let reg = &hub.registry;
    for name in [
        "acq_round_compute_ns",
        "acq_round_publish_ns",
        "acq_round_ingest_ns",
    ] {
        if let Some(h) = reg.find_histogram(name) {
            let s = h.snapshot();
            println!(
                "{name:<24} p50 {:>9.2} ms   p99 {:>9.2} ms   mean {:>9.2} ms",
                s.quantile(0.5) as f64 / 1e6,
                s.quantile(0.99) as f64 / 1e6,
                s.mean() / 1e6,
            );
        }
    }

    // Sanity: the store carries plausible node power on both paths.
    use davide_telemetry::SeriesRead;
    let key = "davide/node00/power/node";
    let mb = blocked_rig
        .db()
        .series_mean(key, davide_telemetry::tsdb::Resolution::Raw, 0.0, 1e18)
        .0
        .expect("series present");
    let ms = scalar_rig
        .db()
        .series_mean(key, davide_telemetry::tsdb::Resolution::Raw, 0.0, 1e18)
        .0
        .expect("series present");
    println!("\nspot check {key}: blocked {mb:.1} W, scalar {ms:.1} W");
    assert!((mb - 1700.0).abs() < 150.0, "plausible node power: {mb}");
    assert!((mb - ms).abs() < 2.5, "paths agree to a couple of LSBs");

    let speedup = blocked.raw_samples_per_s / scalar.raw_samples_per_s;
    // The smoke run measures ~5 ms of work, so its ratio carries real
    // scheduler noise; gate it loosely and leave the ≥3× claim to the
    // full run (typically 3.6–3.9× — see EXPERIMENTS.md).
    let gate = if smoke() { 2.0 } else { 3.0 };
    println!("\nfull-rate vs scalar single-thread: {speedup:.2}× samples/s (gate ≥ {gate:.0}×)");
    println!(
        "sustained end-to-end: {:.1} M raw samples/s into the TsDb ({:.2} s simulated in {:.2} s wall)",
        blocked.raw_samples_per_s / 1e6,
        blocked_rig.config().duration_s,
        blocked.elapsed_s
    );
    assert!(
        speedup >= gate,
        "blocked acquisition path must beat the scalar baseline ≥ {gate}× (got {speedup:.2}×)"
    );
}
