//! Pins every value the stage tracer records.
//!
//! Each run's registry is walked with `visit_samples`; the samples whose
//! names start with `obs_trace_` (frame traces) or `obs_grant_` (cap
//! grant spans) are appended as `"<scenario> <name> <value>\n"` in run
//! order, and the bytes are hashed with FNV-1a-64.
//!
//! The digests were recorded when frames and grants each had a tracer
//! of their own. One `StageTracer` now serves both stage sets, and these
//! pins prove it records exactly what they did: every stage-pair lag,
//! every end-to-end and apply latency, every completion, and every loss
//! attributed to its furthest stage. If a deliberate behaviour change
//! moves them, re-pin them in the same change with the reason.

use davide_obs::Fnv1a;
use davide_sim::federation::{run_federated, FedScenario};
use davide_sim::{canned, run, Fault, RunOutcome};

/// Feed one run's tracer samples into `h`; returns how many there were.
fn hash_tracer_samples(h: &mut Fnv1a, out: &RunOutcome) -> usize {
    let mut n = 0;
    out.obs.registry.visit_samples(|name, value| {
        if name.starts_with("obs_trace_") || name.starts_with("obs_grant_") {
            h.write(format!("{} {} {:?}\n", out.scenario, name, value).as_bytes());
            n += 1;
        }
    });
    n
}

#[test]
fn canned_tracer_samples_are_pinned() {
    let mut h = Fnv1a::new();
    let mut lost_frames = 0;
    for sc in canned(2026) {
        let out = run(&sc);
        hash_tracer_samples(&mut h, &out);
        if sc.name == "lossy_links" {
            out.obs.registry.visit_samples(|name, value| {
                if name.starts_with("obs_trace_lost_total") {
                    lost_frames += value as u64;
                }
            });
        }
    }
    // The pin covers loss accounting, not only completed traces.
    assert_eq!(lost_frames, 244);
    assert_eq!(
        h.finish(),
        0xaa0b_f02d_0d6e_298f,
        "got {:#018x}",
        h.finish()
    );
}

#[test]
fn fed_smoke_tracer_samples_are_pinned() {
    let mut fs = FedScenario::base("fed_smoke", 2026, 3);
    fs.per_rack_faults = vec![
        vec![],
        vec![Fault::BrokerRestart {
            from_s: 300.0,
            until_s: 360.0,
        }],
        vec![Fault::NodeDeath {
            node: 2,
            at_s: 420.0,
            revive_s: 900.0,
        }],
    ];
    let out = run_federated(&fs);
    let mut h = Fnv1a::new();
    let samples: usize = out
        .racks
        .iter()
        .map(|r| hash_tracer_samples(&mut h, r))
        .sum();
    assert_eq!(samples, 255);
    assert_eq!(
        h.finish(),
        0xed0e_0f94_e047_814f,
        "got {:#018x}",
        h.finish()
    );
}
