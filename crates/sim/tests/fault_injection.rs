//! The differential proof of the kernel refactor: the event-driven
//! harness must reproduce the lockstep harness **bit for bit**.
//!
//! The digests below were recorded by running the pre-kernel lockstep
//! harness over the canned scenario set at seed 2026 and pinning each
//! run's `EventLog::digest()`. The kernel rewrite is only allowed to
//! change *how* the schedule is computed, never *what* happens or when:
//! every frame fate, DVFS command, placement, completion and fault
//! transition must land at the same instant with the same float bits,
//! or the digest moves.
//!
//! If a deliberate behaviour change ever invalidates these values,
//! re-pin them in the same PR as the change with an explanation — a
//! silent update here defeats the whole test.

use davide_sim::{canned, run};

/// `(scenario name, lockstep-harness digest)` at seed 2026.
const LOCKSTEP_DIGESTS: &[(&str, u64)] = &[
    ("baseline", 0x7bf0ee6e0d5b3ac1),
    ("gateway_dropout", 0x02088437b737b0cc),
    ("lossy_links", 0x49df9da782d986e1),
    ("reordered_frames", 0x8f0fd11f40ccbf41),
    ("clock_faults", 0x6cf7364dbf1165e0),
    ("broker_restart", 0x8bfc332f5c326cd5),
    ("node_death", 0xedf6aea28930c127),
];

#[test]
fn event_kernel_reproduces_every_lockstep_digest() {
    let scenarios = canned(2026);
    assert_eq!(
        scenarios.len(),
        LOCKSTEP_DIGESTS.len(),
        "a new canned scenario needs its digest pinned here"
    );
    for sc in scenarios {
        let out = run(&sc);
        let (_, want) = LOCKSTEP_DIGESTS
            .iter()
            .find(|(name, _)| *name == sc.name)
            .unwrap_or_else(|| panic!("no pinned digest for scenario {:?}", sc.name));
        assert_eq!(
            out.log.digest(),
            *want,
            "scenario {:?} diverged from the lockstep harness \
             ({} events, got {:#018x}, pinned {:#018x})",
            sc.name,
            out.log.len(),
            out.log.digest(),
            want,
        );
        assert_eq!(
            out.violations,
            Vec::new(),
            "canned scenario {:?} must hold every invariant",
            sc.name
        );
        assert_eq!(
            out.report.jobs_completed as usize, sc.n_jobs,
            "{}: trace must complete",
            sc.name
        );
        assert!(out.truth.total_energy_j > 0.0);
    }
}

#[test]
fn canned_digests_are_seed_sensitive() {
    // The digests above prove equivalence only if they actually pin the
    // run: a different seed must move every one of them.
    for sc in canned(2027) {
        let out = run(&sc);
        let pinned = LOCKSTEP_DIGESTS
            .iter()
            .find(|(name, _)| *name == sc.name)
            .map(|(_, d)| *d)
            .unwrap();
        assert_ne!(
            out.log.digest(),
            pinned,
            "scenario {:?} produced the seed-2026 digest at seed 2027",
            sc.name
        );
    }
}
