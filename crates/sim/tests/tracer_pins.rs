//! Pins every value the run's metrics registry records.
//!
//! Each run's registry is walked with `visit_samples`, and every sample
//! is rendered as `"<scenario> <name> <value>\n"` in run order. Two
//! FNV-1a-64 digests are taken over those lines: one over the stage
//! tracer's samples alone (names starting with `obs_trace_` for frame
//! traces or `obs_grant_` for cap grant spans), and one over every
//! sample — the broker's `mqtt_*`, the control loop's `ctl_*`, the
//! capping ladder's `cap_*` and the tracer's `obs_*` alike.
//!
//! The tracer digests were recorded when frames and grants each had a
//! tracer of their own. One `StageTracer` now serves both stage sets,
//! and these pins prove it records exactly what they did: every
//! stage-pair lag, every end-to-end and apply latency, every completion,
//! and every loss attributed to its furthest stage. The all-samples
//! digests prove that batching the broker's accounting and the tracer's
//! stamps and closes leaves every counter, gauge and histogram as it
//! was. If a deliberate behaviour change moves them, re-pin them in the
//! same change with the reason.
//!
//! The federated scenario (three racks at seed 2026, one broker restart
//! and one node death) also pins the federation itself: every per-rack
//! and federation-level invariant holds, the budget is rebalanced, the
//! site energy ledger equals the sum of the rack ledgers, and the digest
//! over all rack logs plus the federation log is fixed.

use davide_obs::Fnv1a;
use davide_sim::federation::{run_federated, FedScenario};
use davide_sim::{canned, run, Fault, RunOutcome};

/// Running digests over the samples of one or more runs.
#[derive(Default)]
struct SampleDigests {
    /// The stage tracer's samples only.
    tracer: Fnv1a,
    /// Every registry sample.
    all: Fnv1a,
}

impl SampleDigests {
    /// Feed one run's registry in; returns how many tracer samples it
    /// held.
    fn add(&mut self, out: &RunOutcome) -> usize {
        let mut n = 0;
        out.obs.registry.visit_samples(|name, value| {
            let line = format!("{} {} {:?}\n", out.scenario, name, value);
            self.all.write(line.as_bytes());
            if name.starts_with("obs_trace_") || name.starts_with("obs_grant_") {
                self.tracer.write(line.as_bytes());
                n += 1;
            }
        });
        n
    }
}

#[test]
fn canned_tracer_samples_are_pinned() {
    let mut d = SampleDigests::default();
    let mut lost_frames = 0;
    for sc in canned(2026) {
        let out = run(&sc);
        d.add(&out);
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
        d.tracer.finish(),
        0xaa0b_f02d_0d6e_298f,
        "tracer samples: got {:#018x}",
        d.tracer.finish()
    );
    assert_eq!(
        d.all.finish(),
        0x735a_43ef_a935_a382,
        "all samples: got {:#018x}",
        d.all.finish()
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
    let mut d = SampleDigests::default();
    let samples: usize = out.racks.iter().map(|r| d.add(r)).sum();
    assert_eq!(samples, 255);
    assert_eq!(
        d.tracer.finish(),
        0xed0e_0f94_e047_814f,
        "tracer samples: got {:#018x}",
        d.tracer.finish()
    );
    assert_eq!(
        d.all.finish(),
        0x3fb3_fd51_744e_9086,
        "all samples: got {:#018x}",
        d.all.finish()
    );

    assert_eq!(out.all_violations(), Vec::new());
    assert!(out.rebalances > 0, "the budget must be rebalanced");
    let racks_j = out.racks_energy_j();
    assert!(
        (out.global_energy_j - racks_j).abs() <= 1e-9 * racks_j + 1e-6,
        "site ledger {} J must equal the sum of rack ledgers {racks_j} J",
        out.global_energy_j
    );
    assert_eq!(
        out.digest(),
        0xbfb5_7bf7_79ea_33c8,
        "got {:#018x}",
        out.digest()
    );
}
