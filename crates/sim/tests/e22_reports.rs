//! Pins the reports E22's three loop configurations produce on the
//! harness plant.
//!
//! E22 used to run on a lockstep plant of its own inside `davide-sched`.
//! The hash below was recorded from that plant's reports, so this test
//! proves the harness reproduces every `ControlPlaneReport` field bit
//! for bit. The harness always arms the obs stack while the old plant
//! ran uninstrumented, so the pin also proves that instrumentation
//! changes no control decision.
//!
//! The reports are hashed as `format!("{:?}\n", report)` with FNV-1a-64,
//! in the order open loop, reactive only, closed loop. If a deliberate
//! behaviour change moves the hash, re-pin it in the same change with
//! the reason.

use davide_obs::Fnv1a;
use davide_sched::ControlMode;
use davide_sim::{run, scenario};

#[test]
fn e22_reports_are_pinned() {
    let mut h = Fnv1a::new();
    for mode in [
        ControlMode::OpenLoop,
        ControlMode::ReactiveOnly,
        ControlMode::ClosedLoop,
    ] {
        let mut sc = scenario::e22(mode, 8, 12_000.0);
        sc.n_jobs = 25;
        sc.n_history = 400;
        let r = run(&sc).report;
        assert_eq!(r.jobs_completed, 25, "{mode:?}: {r:?}");
        h.write(format!("{r:?}\n").as_bytes());
    }
    assert_eq!(
        h.finish(),
        0xa535_91bd_fec8_ddd2,
        "got {:#018x}",
        h.finish()
    );
}
