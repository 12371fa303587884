//! Fault-scenario scripts.
//!
//! A [`Scenario`] is a declarative description of one harness run: the
//! cluster shape, the trace, and a list of [`Fault`]s with explicit
//! activation windows. Everything the run does — workload, plant noise,
//! fault coin flips — derives from `seed`, so the same scenario is
//! bit-identical across reruns.

use davide_sched::ControlMode;

/// One scripted fault. Windows are half-open `[from_s, until_s)` in
/// virtual time; probabilities are per published frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Each matching power frame is independently lost in transit with
    /// probability `p` (`node: None` matches every gateway).
    FrameLoss {
        /// Affected gateway, or all when `None`.
        node: Option<u32>,
        /// Loss probability per frame.
        p: f64,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        until_s: f64,
    },
    /// A gateway publishes nothing at all for the whole window (sensor
    /// or link dead, node itself still computing).
    Dropout {
        /// Affected gateway.
        node: u32,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        until_s: f64,
    },
    /// Each matching frame is independently delivered twice with
    /// probability `p` (QoS 1 style duplication in the transport).
    Duplicate {
        /// Affected gateway, or all when `None`.
        node: Option<u32>,
        /// Duplication probability per frame.
        p: f64,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        until_s: f64,
    },
    /// Each matching frame is independently held back `delay_ticks`
    /// control periods with probability `p`, then delivered late (and
    /// therefore behind newer frames).
    Reorder {
        /// Affected gateway.
        node: u32,
        /// Delay probability per frame.
        p: f64,
        /// Hold-back, in control periods.
        delay_ticks: u32,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        until_s: f64,
    },
    /// The gateway's PTP clock drifts at `ppm` parts-per-million for the
    /// window; reported frame timestamps accumulate the offset, which
    /// then servoes back to zero after the window.
    ClockSkew {
        /// Affected gateway.
        node: u32,
        /// Drift rate, parts per million.
        ppm: f64,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        until_s: f64,
    },
    /// A one-shot PTP step: reported timestamps jump by `offset_s` at
    /// `at_s` (negative = into the past, making frames look stale), then
    /// servo back to zero.
    ClockStep {
        /// Affected gateway.
        node: u32,
        /// Step size, seconds.
        offset_s: f64,
        /// Step instant, seconds.
        at_s: f64,
    },
    /// The broker restarts: every node-agent session drops (gateways
    /// stop publishing, applied speed limits reset to nominal) until
    /// `until_s`, when agents reconnect and receive the retained-message
    /// replay. The retained store itself persists, as on a
    /// spec-compliant broker with persistence.
    BrokerRestart {
        /// Outage start, seconds.
        from_s: f64,
        /// Reconnect instant, seconds.
        until_s: f64,
    },
    /// A node dies mid-job at `at_s` (draw drops to zero, its jobs
    /// abort) and rejoins at `revive_s`.
    NodeDeath {
        /// Affected node.
        node: u32,
        /// Death instant, seconds.
        at_s: f64,
        /// Rejoin instant, seconds.
        revive_s: f64,
    },
}

/// One complete harness run script.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name, for reports.
    pub name: String,
    /// Master seed; every random stream in the run forks from it.
    pub seed: u64,
    /// Control-plane mode under test.
    pub mode: ControlMode,
    /// Compute nodes.
    pub n_nodes: u32,
    /// Constant facility cap, watts.
    pub cap_w: f64,
    /// Jobs in the replayed trace.
    pub n_jobs: usize,
    /// Completed jobs used to batch-train the predictor first.
    pub n_history: usize,
    /// Control period, seconds.
    pub tick_s: f64,
    /// Gateway sample spacing inside a frame, seconds.
    pub sample_dt_s: f64,
    /// Multiplicative telemetry noise (1σ, relative).
    pub noise: f64,
    /// Mean requested walltime of the trace, seconds.
    pub mean_walltime_s: f64,
    /// Mean interarrival of the trace, seconds.
    pub mean_interarrival_s: f64,
    /// Largest node count a job may request.
    pub max_job_nodes: u32,
    /// Distinct users in the trace (and in the predictor's user
    /// feature).
    pub users: u32,
    /// Per-app plant drift the batch predictor has not seen.
    pub app_drift: [f64; 4],
    /// The fault script.
    pub faults: Vec<Fault>,
    /// Telemetry-staleness deadline the *checker* reasons with (the
    /// control plane's own deadline, unless sabotaged below), seconds.
    pub deadline_s: f64,
    /// How long aggregate truth power may continuously exceed
    /// `cap + busy · band` before INV-CAP flags it, seconds. Sized to
    /// the ladder: depth × sustain plus actuation latency.
    pub cap_grace_s: f64,
    /// Sabotage knob for regression tests: disarm the control plane's
    /// stale-telemetry fallback (its deadline becomes effectively
    /// infinite) while the checker still audits against `deadline_s`.
    /// A healthy loop never sets this.
    pub disable_stale_fallback: bool,
    /// Broker shard count override; `None` uses the broker default.
    /// Digests are shard-invariant, so this only exists to let tests
    /// pin both extremes and prove it.
    pub broker_shards: Option<usize>,
}

impl Scenario {
    /// A small-cluster baseline with no faults; canned scenarios start
    /// here and add their script.
    pub fn base(name: &str, seed: u64) -> Self {
        Scenario {
            name: name.to_string(),
            seed,
            mode: ControlMode::ClosedLoop,
            n_nodes: 6,
            cap_w: 9_000.0,
            n_jobs: 12,
            n_history: 400,
            tick_s: 5.0,
            sample_dt_s: 1.0,
            noise: 0.02,
            mean_walltime_s: 1_500.0,
            mean_interarrival_s: 120.0,
            max_job_nodes: 2,
            users: 12,
            app_drift: [1.05, 0.95, 1.08, 0.92],
            faults: Vec::new(),
            deadline_s: 30.0,
            cap_grace_s: 240.0,
            disable_stale_fallback: false,
            broker_shards: None,
        }
    }
}

/// The E22 control-plane workload: `n_nodes` nodes in `mode` under a
/// constant `cap_w`, a 160-job trace of 3 h jobs on up to 8 nodes
/// arriving every 90 s on average, from 24 users, and a ±12 % per-app
/// drift between the predictor's 1 200-job history and the plant. No
/// faults.
pub fn e22(mode: ControlMode, n_nodes: u32, cap_w: f64) -> Scenario {
    let mut s = Scenario::base("e22", 2022);
    s.mode = mode;
    s.n_nodes = n_nodes;
    s.cap_w = cap_w;
    s.n_jobs = 160;
    s.n_history = 1200;
    s.mean_walltime_s = 3.0 * 3600.0;
    s.mean_interarrival_s = 90.0;
    s.max_job_nodes = 8;
    s.users = 24;
    s.app_drift = [1.12, 0.88, 1.10, 0.90];
    s
}

/// The canned scenario set: one script per fault family, all expected
/// to complete their trace with **zero** invariant violations. These are
/// the tier-1 integration fixtures and the CI fault-smoke set.
pub fn canned(seed: u64) -> Vec<Scenario> {
    let mut set = Vec::new();

    set.push(Scenario::base("baseline", seed));

    let mut s = Scenario::base("gateway_dropout", seed);
    s.faults = vec![
        Fault::Dropout {
            node: 1,
            from_s: 200.0,
            until_s: 500.0,
        },
        Fault::Dropout {
            node: 3,
            from_s: 350.0,
            until_s: 700.0,
        },
    ];
    set.push(s);

    let mut s = Scenario::base("lossy_links", seed);
    s.faults = vec![
        Fault::FrameLoss {
            node: None,
            p: 0.35,
            from_s: 100.0,
            until_s: 700.0,
        },
        Fault::Duplicate {
            node: None,
            p: 0.15,
            from_s: 100.0,
            until_s: 700.0,
        },
    ];
    set.push(s);

    let mut s = Scenario::base("reordered_frames", seed);
    s.faults = vec![
        Fault::Reorder {
            node: 0,
            p: 0.5,
            delay_ticks: 3,
            from_s: 100.0,
            until_s: 600.0,
        },
        Fault::Duplicate {
            node: Some(2),
            p: 0.3,
            from_s: 100.0,
            until_s: 600.0,
        },
    ];
    set.push(s);

    let mut s = Scenario::base("clock_faults", seed);
    s.faults = vec![
        Fault::ClockSkew {
            node: 1,
            ppm: 2_000.0,
            from_s: 100.0,
            until_s: 600.0,
        },
        Fault::ClockStep {
            node: 2,
            offset_s: -20.0,
            at_s: 300.0,
        },
        Fault::ClockStep {
            node: 0,
            offset_s: 15.0,
            at_s: 250.0,
        },
    ];
    set.push(s);

    let mut s = Scenario::base("broker_restart", seed);
    // A tight cap forces DVFS commands out *before* the outage so the
    // retained replay has something to restore.
    s.cap_w = 6_500.0;
    s.faults = vec![Fault::BrokerRestart {
        from_s: 400.0,
        until_s: 460.0,
    }];
    set.push(s);

    let mut s = Scenario::base("node_death", seed);
    s.faults = vec![Fault::NodeDeath {
        node: 2,
        at_s: 250.0,
        revive_s: 600.0,
    }];
    set.push(s);

    set
}

/// The self-observability probe: a reorder-heavy script so the
/// control-loop latency distribution (frame age at actuation, plus the
/// per-stage trace lags) has real spread — most frames arrive one
/// control period old, delayed ones several. The instrumentation stack
/// runs off the harness's virtual clock, so the rendered metrics
/// exposition of this scenario must be **bit-identical** across reruns
/// of one seed, and the latency histogram must be non-empty.
pub fn obs_latency_probe(seed: u64) -> Scenario {
    let mut s = Scenario::base("obs_latency_probe", seed);
    s.faults = vec![
        Fault::Reorder {
            node: 0,
            p: 0.6,
            delay_ticks: 4,
            from_s: 50.0,
            until_s: 900.0,
        },
        Fault::Reorder {
            node: 3,
            p: 0.4,
            delay_ticks: 2,
            from_s: 50.0,
            until_s: 900.0,
        },
        Fault::FrameLoss {
            node: None,
            p: 0.1,
            from_s: 50.0,
            until_s: 900.0,
        },
    ];
    s
}

/// The seeded-regression demo INV-CAP must catch: an open loop (no
/// reactive ladder) admitting against predictions that the plant then
/// overshoots by 30 % under a cap with no slack. A correct closed loop
/// survives the same plant; the open loop must trip the checker.
pub fn open_loop_overcap_demo(seed: u64) -> Scenario {
    let mut s = Scenario::base("open_loop_overcap_demo", seed);
    s.mode = ControlMode::OpenLoop;
    s.cap_w = 7_000.0;
    s.app_drift = [1.30, 1.30, 1.30, 1.30];
    s.mean_walltime_s = 2_400.0;
    s
}

/// The seeded-regression demo INV-STALE must catch: a long gateway
/// dropout with the loop's stale-telemetry fallback disarmed. The
/// checker still audits against the nominal deadline and must flag both
/// the frozen estimates and the missing stale accounting.
pub fn stale_fallback_regression_demo(seed: u64) -> Scenario {
    let mut s = Scenario::base("stale_fallback_regression_demo", seed);
    s.faults = vec![Fault::Dropout {
        node: 1,
        from_s: 150.0,
        until_s: 900.0,
    }];
    s.disable_stale_fallback = true;
    s
}
