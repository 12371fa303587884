//! Tier-1 integration suite for the deterministic fault-injection
//! harness: the canned scenario set must keep its digests under every
//! store and broker configuration, runs must be bit-identical per seed,
//! the checker must catch seeded regressions, and randomly scripted
//! scenarios (proptest) must hold the invariants too. The canned set's
//! pinned digests and invariants live in `crates/sim/tests`.

use davide_sim::scenario::{canned, open_loop_overcap_demo, stale_fallback_regression_demo};
use davide_sim::{run, run_with_db_config, Event, Fault, Scenario};
use davide_telemetry::{TieringConfig, TsDbConfig};
use proptest::prelude::*;

#[test]
fn tiering_leaves_every_canned_digest_unchanged() {
    // The tiered-storage determinism contract: running the whole
    // fault-injection stack over a store that aggressively seals hot
    // points into Gorilla-compressed blocks (64-point blocks, 64
    // points kept hot) produces bit-identical event logs — the loop's
    // telemetry means fold the same chronological f64 sequence whether
    // the points come from the hot ring or from decoded blocks.
    let tiered = TsDbConfig {
        tiering: Some(TieringConfig {
            seal_block: 64,
            hot_retain: Some(64),
            ..TieringConfig::default()
        }),
        ..TsDbConfig::default()
    };
    // An untiered store whose short ring overwrites history mid-run:
    // the checker must read the lost history from the store's query
    // coverage and stay silent, not report it as a broken ledger.
    let short_ring = TsDbConfig {
        raw_capacity: 4096,
        ..TsDbConfig::default()
    };
    for sc in canned(2026) {
        let base = run(&sc);
        for (label, cfg) in [("tiered", &tiered), ("short ring", &short_ring)] {
            let out = run_with_db_config(&sc, cfg.clone());
            assert_eq!(
                base.log.digest(),
                out.log.digest(),
                "{} ({label}): the store must not change the event log",
                sc.name
            );
            assert_eq!(base.log, out.log, "{} ({label})", sc.name);
            assert!(
                out.violations.is_empty(),
                "{} ({label}): {:?}",
                sc.name,
                out.violations
            );
        }
    }
}

#[test]
fn broker_shard_count_leaves_every_canned_digest_unchanged() {
    // The sharding determinism contract: every subscription that can
    // match a topic lives on that topic's shard, trie traversal order
    // inside a shard is the old global order, and the fault hook stays
    // a single global sequence point — so the event log cannot tell an
    // 8-shard broker from a single-lock one.
    for sc in canned(2026) {
        let mut single = sc.clone();
        single.broker_shards = Some(1);
        let mut sharded = sc.clone();
        sharded.broker_shards = Some(8);
        let a = run(&single);
        let b = run(&sharded);
        assert_eq!(
            a.log.digest(),
            b.log.digest(),
            "{}: shard count must not change the event log",
            sc.name
        );
        assert_eq!(a.log, b.log, "{}", sc.name);
    }
}

#[test]
fn same_seed_is_bit_identical_and_seeds_diverge() {
    let sc = canned(7).remove(1); // gateway_dropout
    let a = run(&sc);
    let b = run(&sc);
    assert_eq!(a.log, b.log, "same seed → same event log, bit for bit");
    assert_eq!(a.log.digest(), b.log.digest());
    assert_eq!(a.report, b.report, "same seed → same report");

    let mut other = sc.clone();
    other.seed = 8;
    let c = run(&other);
    assert_ne!(a.log.digest(), c.log.digest(), "different seed diverges");
}

#[test]
fn disabling_stale_fallback_is_caught() {
    // The sabotaged loop keeps steering on frozen samples during a
    // dropout; INV-STALE must flag both the estimates and the missing
    // accounting.
    let out = run(&stale_fallback_regression_demo(2026));
    assert!(
        out.violations
            .iter()
            .any(|v| v.invariant == "stale-fallback"),
        "frozen estimates must be flagged: {:?}",
        out.violations
    );
    assert!(
        out.violations
            .iter()
            .any(|v| v.invariant == "stale-accounting"),
        "missing stale accounting must be flagged: {:?}",
        out.violations
    );

    // The identical scenario with the fallback armed is clean.
    let mut healthy = stale_fallback_regression_demo(2026);
    healthy.disable_stale_fallback = false;
    let out = run(&healthy);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(
        out.report.stale_node_s > 0.0,
        "the healthy loop owns its stale seconds"
    );
}

#[test]
fn open_loop_overcap_is_caught_and_closed_loop_survives_it() {
    let demo = open_loop_overcap_demo(2026);
    let out = run(&demo);
    assert!(
        out.violations.iter().any(|v| v.invariant == "cap"),
        "open loop under a 30% drift must blow the envelope: {:?}",
        out.violations
    );

    let mut closed = demo.clone();
    closed.mode = davide_sched::ControlMode::ClosedLoop;
    closed.name = "closed_loop_same_plant".into();
    let out = run(&closed);
    assert!(
        out.violations.is_empty(),
        "the reactive ladder must keep the same plant inside the \
         envelope: {:?}",
        out.violations
    );
}

#[test]
fn broker_restart_replays_retained_speed_limits() {
    let sc = canned(2026).remove(5); // broker_restart
    assert_eq!(sc.name, "broker_restart");
    let out = run(&sc);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    let replayed = out
        .log
        .events()
        .iter()
        .find_map(|e| match *e {
            Event::BrokerUp { replayed, .. } => Some(replayed),
            _ => None,
        })
        .expect("the outage must end with a reconnect");
    assert!(
        replayed > 0,
        "the tight cap forces DVFS commands before the outage, so the \
         reconnect must replay retained limits"
    );
    assert!(
        out.log
            .events()
            .iter()
            .any(|e| matches!(*e, Event::Speed { replayed: true, .. })),
        "replayed limits must be applied by the reconnecting agents"
    );
}

#[test]
fn node_death_aborts_jobs_and_stays_clean() {
    let sc = canned(2026).remove(6); // node_death
    assert_eq!(sc.name, "node_death");
    let out = run(&sc);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(out.truth.aborted_jobs > 0, "the dead node must kill a job");
    assert!(out
        .log
        .events()
        .iter()
        .any(|e| matches!(*e, Event::NodeUp { .. })));
}

/// One bounded random fault, drawn from the workspace's seeded RNG (the
/// vendored proptest shim has no `prop_oneof`, so scripts derive from a
/// single drawn seed — equally random, equally reproducible).
fn random_fault(rng: &mut davide_core::rng::Rng, n_nodes: u32) -> Fault {
    let node = rng.below(n_nodes as u64) as u32;
    let from = 50.0 + rng.uniform() * 550.0;
    let len = 30.0 + rng.uniform() * 270.0;
    match rng.below(8) {
        0 => Fault::FrameLoss {
            node: rng.chance(0.5).then_some(node),
            p: 0.05 + rng.uniform() * 0.45,
            from_s: from,
            until_s: from + len,
        },
        1 => Fault::Dropout {
            node,
            from_s: from,
            until_s: from + len,
        },
        2 => Fault::Duplicate {
            node: rng.chance(0.5).then_some(node),
            p: 0.05 + rng.uniform() * 0.25,
            from_s: from,
            until_s: from + len,
        },
        3 => Fault::Reorder {
            node,
            p: 0.1 + rng.uniform() * 0.5,
            delay_ticks: 1 + rng.below(3) as u32,
            from_s: from,
            until_s: from + len,
        },
        4 => Fault::ClockSkew {
            node,
            ppm: 100.0 + rng.uniform() * 2900.0,
            from_s: from,
            until_s: from + len,
        },
        5 => Fault::ClockStep {
            node,
            offset_s: -25.0 + rng.uniform() * 50.0,
            at_s: from,
        },
        6 => Fault::BrokerRestart {
            from_s: from,
            until_s: from + 20.0 + rng.uniform() * 100.0,
        },
        _ => Fault::NodeDeath {
            node,
            at_s: from,
            revive_s: from + 50.0 + rng.uniform() * 350.0,
        },
    }
}

/// A small random scenario: 4 nodes, 5 jobs, 0–3 bounded faults.
fn random_scenario(seed: u64) -> Scenario {
    let mut rng = davide_core::rng::Rng::seed_from(seed ^ 0x5ca1_ab1e);
    let mut sc = Scenario::base("proptest_random", seed);
    sc.n_nodes = 4;
    sc.cap_w = 6_500.0;
    sc.n_jobs = 5;
    sc.n_history = 200;
    sc.mean_walltime_s = 900.0;
    sc.mean_interarrival_s = 90.0;
    let n_faults = rng.below(4) as usize;
    sc.faults = (0..n_faults).map(|_| random_fault(&mut rng, 4)).collect();
    sc
}

proptest! {
    /// Any bounded random fault script: the trace completes, every
    /// invariant holds, and a rerun is bit-reproducible.
    #[test]
    fn random_fault_scripts_hold_invariants(seed in 0u64..u64::MAX / 2) {
        let sc = random_scenario(seed);
        let out = run(&sc);
        prop_assert!(
            out.violations.is_empty(),
            "seed {} faults {:?}: {:?}",
            sc.seed, sc.faults, out.violations
        );
        prop_assert_eq!(out.report.jobs_completed as usize, sc.n_jobs);
        if seed % 8 == 0 {
            let again = run(&sc);
            prop_assert_eq!(out.log.digest(), again.log.digest());
        }
    }
}
