//! Multi-rack federation: N racks under one global power budget.
//!
//! Each rack is a complete single-rack stack — its own broker, gateway
//! fleet, control plane, fault script and invariant checker (a
//! `RackSim`) — and a *federator* stitches them into one site:
//!
//! * per-rack **uplink** bridges ([`davide_mqtt::Bridge`]) forward
//!   `davide/+/power/node` frames onto the site broker under a
//!   `rackNN/` prefix, where the federator's watch client measures
//!   per-rack demand;
//! * on a rebalance boundary the federator splits the global budget
//!   with [`davide_core::budget::split_budget`] and publishes each
//!   rack's grant as a **retained** `fed/rackNN/cap` message on the
//!   site broker;
//! * per-rack **downlink** bridges forward the grants back onto the
//!   rack brokers, where the rack's control plane applies them as its
//!   new cap ([`Event::CapApplied`] in the rack log,
//!   [`Event::FedRebalance`] in the federation log).
//!
//! Everything runs on the same [`crate::kernel`] event queue as the
//! racks themselves: the `Federate` phase sorts after every rack's
//! control step and before any plant integrates, and a `FedAudit`
//! phase event audits the global envelope after every per-rack audit
//! of the same instant. Rack broker restarts tear the rack's uplink
//! session down with it; the bridge's retained-replay deduplication
//! guarantees a reconnect never double-delivers a cap grant.
//!
//! Determinism carries over wholesale: a [`FedScenario`] re-run with
//! the same seed produces bit-identical rack logs *and* a bit-identical
//! federation log, summarised in one [`FedOutcome::digest`].

use bytes::Bytes;
use davide_core::budget::{split_budget, SharingPolicy};
use davide_core::rng::Rng;
use davide_core::time::{SimDuration, SimTime};
use davide_core::Watts;
use davide_mqtt::{Bridge, Broker, Client, QoS};
use davide_obs::{flight, Fnv1a, GrantStage};
use davide_sched::controlplane::BAND_W;
use davide_sched::policy::IDLE_NODE_POWER_W;
use davide_telemetry::gateway::parse_node_topic;
use davide_telemetry::{FrameIngestor, TsDbConfig};

use crate::harness::{RackSim, RunOutcome, SimEvent, World};
use crate::invariants::Violation;
use crate::kernel::{self, phase, EventQueue};
use crate::log::{Event, EventLog};
use crate::scenario::{Fault, Scenario};

/// A federated scenario: one rack template stamped out `n_racks` times
/// (each with its own derived seed and, optionally, its own fault
/// script), plus the site-level budget policy.
#[derive(Debug, Clone)]
pub struct FedScenario {
    /// Scenario name, for reports.
    pub name: String,
    /// Master seed; per-rack seeds and every federation decision derive
    /// from it.
    pub seed: u64,
    /// Number of racks.
    pub n_racks: usize,
    /// The rack template: every rack runs this scenario (name, seed and
    /// cap are overridden per rack).
    pub rack: Scenario,
    /// Per-rack fault scripts. Empty → every rack runs the template's
    /// script; otherwise rack `i` runs entry `i % len`.
    pub per_rack_faults: Vec<Vec<Fault>>,
    /// Global facility budget, watts, split across racks.
    pub global_budget_w: f64,
    /// Per-rack grant floor, watts. Must clear a rack's idle draw or
    /// the split starves an idle rack below feasibility.
    pub floor_w: f64,
    /// Rebalance period, seconds. Must be a whole multiple of the rack
    /// control period.
    pub rebalance_s: f64,
    /// How the budget is split.
    pub policy: SharingPolicy,
}

impl FedScenario {
    /// A small federation built on [`Scenario::base`]: `n_racks` 6-node
    /// racks under a global budget ~10 % tighter than the sum of the
    /// racks' standalone caps, so rebalancing has real work to do.
    pub fn base(name: &str, seed: u64, n_racks: usize) -> FedScenario {
        FedScenario {
            name: name.to_string(),
            seed,
            n_racks,
            rack: Scenario::base(name, seed),
            per_rack_faults: Vec::new(),
            global_budget_w: 8_100.0 * n_racks as f64,
            floor_w: 2_500.0,
            rebalance_s: 60.0,
            policy: SharingPolicy::DemandProportional,
        }
    }

    /// The E28 shape: `n_racks` racks of `nodes_per_rack` nodes running
    /// `jobs_per_rack` jobs each at a 30 s control period — the
    /// petaflops-class sizing is 23 racks × 45 nodes ≥ 1000 nodes and
    /// ≥ 50 000 jobs over a simulated day.
    pub fn sized(
        name: &str,
        seed: u64,
        n_racks: usize,
        nodes_per_rack: u32,
        jobs_per_rack: usize,
    ) -> FedScenario {
        let mut rack = Scenario::base(name, seed);
        rack.n_nodes = nodes_per_rack;
        rack.n_jobs = jobs_per_rack;
        rack.tick_s = 30.0;
        rack.sample_dt_s = 5.0;
        rack.mean_walltime_s = 900.0;
        rack.mean_interarrival_s = 45.0;
        rack.max_job_nodes = 4;
        rack.deadline_s = 90.0;
        rack.cap_grace_s = 600.0;
        rack.cap_w = 1_350.0 * nodes_per_rack as f64;
        FedScenario {
            name: name.to_string(),
            seed,
            n_racks,
            rack,
            per_rack_faults: Vec::new(),
            global_budget_w: 1_200.0 * (nodes_per_rack as f64) * n_racks as f64,
            floor_w: 400.0 * nodes_per_rack as f64,
            rebalance_s: 120.0,
            policy: SharingPolicy::DemandProportional,
        }
    }

    /// Rack `i`'s concrete scenario: the template with a derived name,
    /// an independently mixed seed, an even share of the budget as its
    /// starting cap, and its own fault script when one is configured.
    pub fn rack_scenario(&self, i: usize) -> Scenario {
        let mut sc = self.rack.clone();
        sc.name = format!("{}/rack{i:02}", self.name);
        // Independent per-rack randomness: mix the rack index through
        // the workspace RNG so rack streams never collide or correlate.
        let mut mix =
            Rng::seed_from(self.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        sc.seed = mix.next_u64();
        sc.cap_w = self.global_budget_w / self.n_racks as f64;
        if !self.per_rack_faults.is_empty() {
            sc.faults = self.per_rack_faults[i % self.per_rack_faults.len()].clone();
        }
        sc
    }
}

/// Everything a federated run produces: every rack's full
/// [`RunOutcome`] plus the federation-level log, checks and energy
/// ledger.
#[derive(Debug)]
pub struct FedOutcome {
    /// Federated scenario name.
    pub scenario: String,
    /// Per-rack outcomes, rack order.
    pub racks: Vec<RunOutcome>,
    /// The federator's own event log ([`Event::FedRebalance`] entries).
    pub fed_log: EventLog,
    /// Federation-level violations (`"fed-split"`, `"fed-cap"`,
    /// `"fed-energy"`).
    pub violations: Vec<Violation>,
    /// Site energy as the federator accounted it, joules.
    pub global_energy_j: f64,
    /// The global budget the run held, watts.
    pub global_budget_w: f64,
    /// Budget rebalances performed.
    pub rebalances: u64,
}

impl FedOutcome {
    /// One number summarising the whole federated run: FNV-1a over
    /// every rack's log digest (rack order) and the federation log's
    /// digest. Same seed → same digest, across the racks *and* the
    /// federator's decisions.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let digests = self
            .racks
            .iter()
            .map(|r| r.log.digest())
            .chain(std::iter::once(self.fed_log.digest()));
        for d in digests {
            h.write(&d.to_le_bytes());
        }
        h.finish()
    }

    /// Every violation in the run: federation-level ones first, then
    /// each rack's, tagged with the rack scenario name.
    pub fn all_violations(&self) -> Vec<(String, Violation)> {
        let mut out: Vec<(String, Violation)> = self
            .violations
            .iter()
            .map(|v| (self.scenario.clone(), v.clone()))
            .collect();
        for r in &self.racks {
            out.extend(r.violations.iter().map(|v| (r.scenario.clone(), v.clone())));
        }
        out
    }

    /// Sum of the racks' ground-truth energy ledgers, joules.
    pub fn racks_energy_j(&self) -> f64 {
        self.racks.iter().map(|r| r.truth.total_energy_j).sum()
    }
}

/// The site-level component: owns the site broker, the rack bridges,
/// the demand ledger and the budget splitter. Driven by the kernel's
/// `Federate`/`FedAudit` phase events.
pub(crate) struct Federator {
    uplinks: Vec<Bridge>,
    downlinks: Vec<Bridge>,
    /// Site-side subscriber to every rack's bridged power frames.
    watch: FrameIngestor,
    /// Site-side publisher of retained cap grants.
    grant: Client,
    /// Last delivered mean draw per node per rack, watts (idle draw
    /// until first telemetry).
    node_demand_w: Vec<Vec<f64>>,
    /// Grants currently in force, per rack.
    caps_w: Vec<f64>,
    /// Next grant sequence number per rack: stamped into the grant
    /// payload so the rack-side span tracer can stitch the causal
    /// chain. Increments only on actual publishes, so it is as
    /// deterministic as the rebalance decisions themselves.
    grant_seq: Vec<u64>,
    tick_s: f64,
    tick_dur: SimDuration,
    rebalance_ns: u64,
    budget_w: f64,
    floor_w: f64,
    policy: SharingPolicy,
    grace_s: f64,
    log: EventLog,
    violations: Vec<Violation>,
    energy_j: f64,
    overcap_streak_s: f64,
    rebalances: u64,
}

impl Federator {
    /// Wire the site: bridges onto every rack broker, watch + grant
    /// clients on the site broker.
    fn new(fs: &FedScenario, site: &Broker, racks: &[RackSim]) -> Federator {
        assert!(
            fs.floor_w > IDLE_NODE_POWER_W * fs.rack.n_nodes as f64,
            "floor {} W must clear a rack's idle draw",
            fs.floor_w
        );
        let tick_dur = SimDuration::from_secs_f64(fs.rack.tick_s);
        let rebalance_ns = SimDuration::from_secs_f64(fs.rebalance_s).0;
        assert!(
            rebalance_ns > 0 && rebalance_ns.is_multiple_of(tick_dur.0),
            "rebalance period must be a whole multiple of the control period"
        );
        let mut uplinks = Vec::with_capacity(racks.len());
        let mut downlinks = Vec::with_capacity(racks.len());
        for (i, rack) in racks.iter().enumerate() {
            uplinks.push(
                Bridge::connect(
                    &rack.broker,
                    site,
                    &format!("rack{i:02}-up"),
                    &["davide/+/power/node"],
                    Some(&format!("rack{i:02}")),
                )
                .expect("uplink filters are static"),
            );
            let mut downlink = Bridge::connect(
                site,
                &rack.broker,
                &format!("rack{i:02}-down"),
                &[&format!("fed/rack{i:02}/cap")],
                None,
            )
            .expect("downlink filters are static");
            // Span stage 1 (BridgeDeliver): observe each deduplicated
            // grant forward on its way down to the rack broker. Stamps
            // go to the *rack's* tracer — the span belongs to the rack
            // the grant is for — on the rack's manual clock, so traced
            // and untraced runs stay bit-identical.
            let span = rack.hub.span.clone();
            let flight_rec = rack.hub.flight.clone();
            let clock = rack.hub.clock.clone();
            downlink.set_forward_hook(Some(Box::new(move |_topic, payload, _retain| {
                let Some((w, seq)) = parse_grant(payload) else {
                    return;
                };
                let t_s = clock.now_s();
                span.stamp(seq, GrantStage::BridgeDeliver, t_s);
                flight_rec.push(
                    (t_s * 1e9).round() as u64,
                    flight::kind::BRIDGE_DELIVER,
                    "",
                    seq,
                    w.to_bits(),
                );
            })));
            downlinks.push(downlink);
        }
        let watch = FrameIngestor::subscribe(site, "federator-demand", &["+/davide/+/power/node"])
            .expect("subscribe bridged power");
        let grant = site.connect("federator-grants");
        Federator {
            uplinks,
            downlinks,
            watch,
            grant,
            node_demand_w: vec![vec![IDLE_NODE_POWER_W; fs.rack.n_nodes as usize]; racks.len()],
            caps_w: vec![fs.global_budget_w / racks.len() as f64; racks.len()],
            grant_seq: vec![0; racks.len()],
            tick_s: fs.rack.tick_s,
            tick_dur,
            rebalance_ns,
            budget_w: fs.global_budget_w,
            floor_w: fs.floor_w,
            policy: fs.policy,
            grace_s: fs.rack.cap_grace_s,
            log: EventLog::new(),
            violations: Vec::new(),
            energy_j: 0.0,
            overcap_streak_s: 0.0,
            rebalances: 0,
        }
    }

    /// One federation period: track rack outages on the uplinks, pump
    /// telemetry up, refresh the demand ledger, rebalance on the
    /// boundary, pump grants down, and schedule the global audit.
    pub(crate) fn federate(
        &mut self,
        q: &mut EventQueue<SimEvent>,
        t: SimTime,
        racks: &mut [RackSim],
    ) {
        let t_s = t.as_secs_f64();
        let t_ns = t.0;

        // Rack broker restarts take the bridge sessions with them.
        for (i, rack) in racks.iter().enumerate() {
            if rack.broker_down {
                self.uplinks[i].disconnect_source();
            } else if !self.uplinks[i].source_connected() {
                self.uplinks[i]
                    .reconnect_source()
                    .expect("resubscribe uplink after rack restart");
            }
        }
        for (i, rack) in racks.iter().enumerate() {
            if !rack.broker_down {
                self.uplinks[i].pump();
            }
        }

        // Demand ledger: last delivered mean per node.
        self.watch.drain_with(|f| {
            let (rack, node) = parse_bridged_power(f.topic)?;
            let demand = self.node_demand_w.get_mut(rack)?.get_mut(node)?;
            if !f.watts.is_empty() {
                *demand = f.mean_w();
            }
            Some(f.watts.len())
        });

        if t.0.is_multiple_of(self.rebalance_ns) {
            self.rebalances += 1;
            let demands: Vec<Watts> = self
                .node_demand_w
                .iter()
                .map(|nodes| Watts(nodes.iter().sum()))
                .collect();
            let grants = split_budget(
                Watts(self.budget_w),
                &demands,
                Watts(self.floor_w),
                self.policy,
            );
            let granted: f64 = grants.iter().map(|g| g.0).sum();
            if granted > self.budget_w + 1e-6 {
                self.violations.push(Violation {
                    invariant: "fed-split",
                    t_s,
                    detail: format!(
                        "granted {granted:.3} W exceeds the {:.3} W budget",
                        self.budget_w
                    ),
                });
            }
            for (i, g) in grants.iter().enumerate() {
                if (g.0 - self.caps_w[i]).abs() <= 1e-6 {
                    continue;
                }
                self.caps_w[i] = g.0;
                let seq = self.grant_seq[i];
                self.grant_seq[i] += 1;
                self.grant
                    .publish(
                        &format!("fed/rack{i:02}/cap"),
                        grant_payload(g.0, seq),
                        QoS::AtLeastOnce,
                        true,
                    )
                    .expect("site broker is never down");
                racks[i].hub.span.stamp(seq, GrantStage::FedSplit, t_s);
                racks[i]
                    .hub
                    .flight
                    .push(t_ns, flight::kind::FED_SPLIT, "", seq, g.0.to_bits());
                self.log.push(Event::FedRebalance {
                    t_ns,
                    rack: i as u32,
                    cap_bits: g.0.to_bits(),
                });
            }
        }

        for (i, rack) in racks.iter().enumerate() {
            if !rack.broker_down {
                self.downlinks[i].pump();
            }
        }

        q.schedule(t + self.tick_dur, phase::FEDERATE, SimEvent::Federate);
        q.schedule(t, phase::AUDIT, SimEvent::FedAudit);
    }

    /// Global audit of one instant, after every rack's own audit: sum
    /// the draw of racks that integrated this period, accrue site
    /// energy, and hold the global envelope `budget + busy·band`
    /// within the grace window.
    pub(crate) fn audit(&mut self, t: SimTime, racks: &[RackSim]) {
        let t_s = t.as_secs_f64();
        let mut sys_w = 0.0;
        let mut busy = 0usize;
        let mut advanced = false;
        let mut visible = true;
        for r in racks {
            if r.advanced_at == Some(t) {
                advanced = true;
                sys_w += r.last_sys_w;
                busy += r.last_busy;
                if r.broker_down {
                    visible = false;
                }
            }
        }
        if !advanced {
            return;
        }
        self.energy_j += sys_w * self.tick_s;
        // Each busy node may sit one ladder hysteresis band over its
        // share, as the per-rack envelope check grants, plus one watt
        // of slack per rack mirroring that check's float guard.
        let allowed = self.budget_w + busy as f64 * BAND_W + racks.len() as f64;
        if sys_w > allowed && visible {
            self.overcap_streak_s += self.tick_s;
            if self.overcap_streak_s > self.grace_s {
                self.violations.push(Violation {
                    invariant: "fed-cap",
                    t_s,
                    detail: format!(
                        "site draw {sys_w:.1} W > allowed {allowed:.1} W for {:.0}s \
                         (budget {:.1} W, {busy} busy nodes)",
                        self.overcap_streak_s, self.budget_w
                    ),
                });
                self.overcap_streak_s = 0.0;
            }
        } else {
            self.overcap_streak_s = 0.0;
        }
    }

    /// End-of-run federation checks against the racks' ground truth:
    /// the site energy ledger must equal the sum of the per-rack
    /// ledgers (same integrals, summed in a different order, so the
    /// tolerance is float-roundoff-sized).
    fn finish(mut self, racks: &[RunOutcome]) -> (EventLog, Vec<Violation>, f64, u64) {
        let racks_energy: f64 = racks.iter().map(|r| r.truth.total_energy_j).sum();
        let tol = 1e-9 * racks_energy.abs() + 1e-6;
        if (self.energy_j - racks_energy).abs() > tol {
            self.violations.push(Violation {
                invariant: "fed-energy",
                t_s: racks.iter().map(|r| r.truth.makespan_s).fold(0.0, f64::max),
                detail: format!(
                    "site ledger {:.3} J vs Σ rack ledgers {racks_energy:.3} J",
                    self.energy_j
                ),
            });
        }
        (self.log, self.violations, self.energy_j, self.rebalances)
    }
}

/// A cap grant's wire payload, `"{watts} {seq}"`. `{}` on f64 is the
/// shortest round-trippable rendering, so [`parse_grant`] gives back
/// the exact grant bits; the seq token stitches the grant's causal span
/// and never enters any digested event.
pub(crate) fn grant_payload(w: f64, seq: u64) -> Bytes {
    Bytes::from(format!("{w} {seq}"))
}

/// Parse a [`grant_payload`] back into `(watts, seq)`; `None` unless
/// both tokens parse.
pub(crate) fn parse_grant(payload: &[u8]) -> Option<(f64, u64)> {
    let mut tokens = std::str::from_utf8(payload).ok()?.split_whitespace();
    Some((tokens.next()?.parse().ok()?, tokens.next()?.parse().ok()?))
}

/// Rack and node ids from a bridged power topic
/// (`rackNN/davide/nodeMM/power/node`).
fn parse_bridged_power(topic: &str) -> Option<(usize, usize)> {
    let (rack, rest) = topic.split_once('/')?;
    let rack = rack.strip_prefix("rack")?.parse().ok()?;
    match parse_node_topic(rest)? {
        (node, "power/node") => Some((rack, node as usize)),
        _ => None,
    }
}

/// Execute a federated scenario to completion. Pure in the seed, like
/// [`crate::run`]: bit-identical rack and federation logs per seed.
pub fn run_federated(fs: &FedScenario) -> FedOutcome {
    run_federated_with_db_config(fs, TsDbConfig::default())
}

/// [`run_federated`] with an explicit per-rack telemetry-store
/// configuration (each rack's control plane gets its own clone — the
/// knob E28 uses to run day-long federations under tiered storage).
/// Grant tracing is armed; digests are bit-identical either way.
pub fn run_federated_with_db_config(fs: &FedScenario, db_cfg: TsDbConfig) -> FedOutcome {
    run_federated_traced(fs, db_cfg, true)
}

/// [`run_federated_with_db_config`] with an explicit tracing switch:
/// `tracing = false` disarms every rack's grant-span tracer and flight
/// recorder (the instrumentation's atomic early-outs), which is the
/// baseline side of E29's overhead A/B. The event logs — and therefore
/// [`FedOutcome::digest`] — are bit-identical either way; only the obs
/// registries and flight rings differ.
pub fn run_federated_traced(fs: &FedScenario, db_cfg: TsDbConfig, tracing: bool) -> FedOutcome {
    assert!(fs.n_racks >= 1, "a federation needs at least one rack");
    let site = Broker::new(1 << 16);
    let racks: Vec<RackSim> = (0..fs.n_racks)
        .map(|i| {
            let mut r = RackSim::new(i, &fs.rack_scenario(i), db_cfg.clone());
            r.enable_federation();
            r.set_tracing(tracing);
            r
        })
        .collect();
    let fed = Federator::new(fs, &site, &racks);

    let mut q = EventQueue::new();
    for r in &racks {
        r.bootstrap(&mut q);
    }
    q.schedule(SimTime::ZERO, phase::FEDERATE, SimEvent::Federate);

    let mut world = World {
        racks,
        fed: Some(fed),
        active: fs.n_racks,
    };
    kernel::drive(&mut q, &mut world);
    let t_end = q.now_s();

    let fed = world.fed.take().expect("federator installed above");
    let racks: Vec<RunOutcome> = world.racks.drain(..).map(|r| r.finish(t_end)).collect();
    let (fed_log, violations, global_energy_j, rebalances) = fed.finish(&racks);
    FedOutcome {
        scenario: fs.name.clone(),
        racks,
        fed_log,
        violations,
        global_energy_j,
        global_budget_w: fs.global_budget_w,
        rebalances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A grant survives its payload bit-exactly: for any finite
        /// watts value and any seq, parsing returns the same bits and
        /// the same seq.
        #[test]
        fn grant_payload_roundtrips(bits in any::<u64>(), seq in any::<u64>()) {
            // Clearing the exponent's top bit maps NaN and ±inf onto
            // finite values, so every draw exercises the codec.
            let w = match f64::from_bits(bits) {
                w if w.is_finite() => w,
                _ => f64::from_bits(bits & !(1 << 62)),
            };
            let (back, back_seq) = parse_grant(&grant_payload(w, seq)).expect("well-formed grant");
            prop_assert_eq!(back.to_bits(), w.to_bits());
            prop_assert_eq!(back_seq, seq);
        }
    }

    #[test]
    fn grant_codec_edges() {
        for w in [0.0, -0.0, 5e-324, f64::MIN_POSITIVE, f64::MAX, 12_345.678] {
            let (back, seq) = parse_grant(&grant_payload(w, u64::MAX)).unwrap();
            assert_eq!((back.to_bits(), seq), (w.to_bits(), u64::MAX));
        }
        assert_eq!(parse_grant(b"1500"), None, "a grant without its seq");
        assert_eq!(parse_grant(b"watts 3"), None);
        assert_eq!(parse_grant(b"1500 -1"), None);
        assert_eq!(parse_grant(&[0xff, b' ', b'1']), None, "not UTF-8");
    }

    #[test]
    fn two_rack_federation_is_clean_and_deterministic() {
        let fs = FedScenario::base("unit_fed", 17, 2);
        let a = run_federated(&fs);
        assert_eq!(a.all_violations(), Vec::new(), "healthy federation");
        assert_eq!(a.racks.len(), 2);
        for r in &a.racks {
            assert_eq!(r.report.jobs_completed as usize, fs.rack.n_jobs);
        }
        assert!(a.rebalances > 0, "the budget was rebalanced");
        assert!(
            (a.global_energy_j - a.racks_energy_j()).abs() <= 1e-9 * a.racks_energy_j() + 1e-6,
            "site ledger equals the sum of rack ledgers"
        );
        let b = run_federated(&fs);
        assert_eq!(a.digest(), b.digest(), "same seed → same federated digest");
    }

    #[test]
    fn grant_spans_complete_and_tracing_leaves_digests_unchanged() {
        let fs = FedScenario::base("unit_fed_trace", 29, 2);
        let traced = run_federated(&fs);
        let untraced = run_federated_traced(&fs, TsDbConfig::default(), false);
        assert_eq!(
            traced.digest(),
            untraced.digest(),
            "tracing never perturbs the event logs"
        );
        for r in &traced.racks {
            let counters = davide_obs::rollup_counters([&*r.obs.registry]);
            let get = |name: &str| {
                counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or(0)
            };
            assert!(
                get("obs_grant_completed_total") > 0,
                "{}: grant spans reached the power crossing",
                r.scenario
            );
            let kinds: std::collections::BTreeSet<&str> = r
                .obs
                .flight
                .snapshot()
                .iter()
                .map(|(_, e)| e.kind)
                .collect();
            for stage in davide_obs::GRANT_STAGE_NAMES {
                assert!(kinds.contains(stage), "{}: flight saw {stage}", r.scenario);
            }
        }
        for r in &untraced.racks {
            assert_eq!(r.obs.flight.pushed(), 0, "disarmed recorder stays empty");
            assert_eq!(r.flight_dump, None, "clean run never dumps");
        }
    }

    #[test]
    fn rack_seeds_are_distinct_and_caps_share_the_budget() {
        let fs = FedScenario::base("unit_fed_seeds", 23, 3);
        let scs: Vec<_> = (0..3).map(|i| fs.rack_scenario(i)).collect();
        assert!(scs[0].seed != scs[1].seed && scs[1].seed != scs[2].seed);
        assert_eq!(scs[0].name, "unit_fed_seeds/rack00");
        for sc in &scs {
            assert!((sc.cap_w - fs.global_budget_w / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bridged_power_topics_parse() {
        assert_eq!(
            parse_bridged_power("rack07/davide/node12/power/node"),
            Some((7, 12))
        );
        assert_eq!(parse_bridged_power("davide/node12/power/node"), None);
        assert_eq!(parse_bridged_power("rack07/davide/node12/power"), None);
        assert_eq!(parse_bridged_power("fed/rack07/cap"), None);
    }
}
