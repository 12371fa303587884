//! The harness: a fault-injecting synthetic plant around the real loop.
//!
//! One [`run`] builds the full production stack — in-process MQTT
//! broker, [`ControlPlane`] with its ingest/store/predictor/actuators —
//! and drives it from the discrete-event kernel in [`crate::kernel`]:
//! every cause in the simulated world (a fault window taking effect, a
//! gateway rendering the elapsed window's frames, a held-back frame
//! landing, a job arriving, one control period of the loop, the plant
//! integrating, the checker auditing) is an [`EventQueue`] entry
//! dispatched in `(time, phase class, insertion seq)` order. Gateways
//! render noisy per-node power frames from plant ground truth, the
//! scenario's fault script mangles them (loss, duplication, reordering,
//! clock faults, broker restart, node death), DVFS commands flow back
//! and reshape the plant. The [`InvariantChecker`] audits every control
//! period against ground truth the loop cannot see, and every
//! externally meaningful action lands in the [`EventLog`], which is
//! bit-identical across reruns of one seed — including bit-identical
//! to the logs the original lockstep harness produced, a property the
//! differential test in `tests/fault_injection.rs` pins against the
//! recorded digests.
//!
//! Two scheduling decisions carry the equivalence proof:
//!
//! * **Phase classes** reproduce the lockstep intra-tick order (faults →
//!   gateways → late frames → arrivals → control → plant → audit), and
//!   the stable seq tie-break reproduces iteration order within each
//!   phase.
//! * **Fault windows stay per-tick probes.** Window membership, skew
//!   accumulation and transition logging are evaluated once per control
//!   period inside the `Faults` event — not expanded into individual
//!   open/close events — because the pinned digests encode exactly that
//!   tick-granular semantics (overlapping windows dedup through one
//!   `any()` per tick, skew offsets accumulate once per tick). Frame
//!   delays, arrivals and the control period itself are genuine events.
//!
//! A rack is one `RackSim`; multi-rack federation (N racks bridged
//! into a site broker with a global power budget) lives in
//! [`crate::federation`] and drives the same per-rack state machine
//! through the same kernel.

use std::collections::HashMap;
use std::sync::Arc;

use davide_core::rng::Rng;
use davide_core::time::{SimDuration, SimTime};
use davide_mqtt::{Broker, BrokerObs, Client, PublishFate, QoS};
use davide_obs::{flight, GrantStage, ManualClock, ObsHub};
use davide_predictor::ModelKind;
use davide_sched::policy::IDLE_NODE_POWER_W;
use davide_sched::{
    CapSchedule, ControlPlane, ControlPlaneConfig, ControlPlaneReport, JobId, OnlinePowerPredictor,
    PowerPredictor, WorkloadConfig, WorkloadGenerator,
};
use davide_telemetry::gateway::{parse_node_topic, power_topic, SampleFrame, FRAME_MAGIC};
use davide_telemetry::{TsDb, TsDbConfig};
use parking_lot::Mutex;

use crate::federation::parse_grant;
use crate::invariants::{
    CheckerConfig, FinalTruth, InvariantChecker, JobTruth, StoreModel, TickTruth, Violation,
};
use crate::kernel::{self, phase, EventHandler, EventQueue};
use crate::log::{Event, EventLog, FrameFate};
use crate::scenario::{Fault, Scenario};

/// Ground-truth accounting a run hands back (the plant's view, which
/// the control plane never sees).
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Facility energy, joules.
    pub total_energy_j: f64,
    /// Energy drawn by nodes with no job, joules.
    pub idle_energy_j: f64,
    /// Per-node energy, joules.
    pub per_node_energy_j: Vec<f64>,
    /// True time above the cap, seconds.
    pub overcap_s: f64,
    /// True energy above the cap, joules.
    pub overcap_energy_j: f64,
    /// Per-job truth ledgers, in placement order.
    pub jobs: Vec<JobTruth>,
    /// Jobs killed by node deaths.
    pub aborted_jobs: u64,
    /// Gateway frames that reached the broker (duplicates once).
    pub frames_delivered: u64,
    /// Gateway frames suppressed or lost by the fault script.
    pub frames_suppressed: u64,
    /// Final virtual time, seconds.
    pub makespan_s: f64,
}

/// Everything one harness run produces.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Scenario name, echoed for reports.
    pub scenario: String,
    /// The loop's own end-of-run report.
    pub report: ControlPlaneReport,
    /// The deterministic event log.
    pub log: EventLog,
    /// Every invariant violation the checker found (empty on a healthy
    /// run).
    pub violations: Vec<Violation>,
    /// Plant ground truth.
    pub truth: GroundTruth,
    /// The run's self-observability hub: every broker / ingest /
    /// control-loop instrument, stamped off the virtual clock. Not part
    /// of the event log, so the digest contract is untouched — but the
    /// rendered exposition is itself bit-identical across reruns of one
    /// seed.
    pub obs: ObsHub,
    /// The flight-recorder dump captured the instant the invariant
    /// checker first fired (`None` on a healthy run). Deterministic:
    /// two same-seed runs produce byte-identical dumps.
    pub flight_dump: Option<String>,
}

/// The kernel event alphabet: everything that happens in a run, stamped
/// with the rack it happens to. Phase classes (see [`phase`]) order the
/// variants within one instant.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SimEvent {
    /// Fault lifecycle for one rack: per-tick window probe.
    Faults { rack: usize },
    /// One rack's gateways render and publish the elapsed window.
    Gateways { rack: usize },
    /// A reorder-delayed frame comes due (slot into the delay slab).
    LateFrame { rack: usize, slot: usize },
    /// One trace job reaches its submit time.
    Arrival { rack: usize, idx: usize },
    /// One control period of a rack's real loop.
    Control { rack: usize },
    /// The federator pumps bridges and rebalances the global budget.
    Federate,
    /// The federator audits the period globally (after every plant).
    FedAudit,
    /// A rack's plant integrates draw over the period just decided.
    Plant { rack: usize },
    /// A rack's checker audits the period.
    Audit { rack: usize },
}

/// The handler the kernel drives: all racks plus the optional
/// federator. Single-rack [`run`] is the `fed: None` special case.
pub(crate) struct World {
    pub(crate) racks: Vec<RackSim>,
    pub(crate) fed: Option<crate::federation::Federator>,
    /// Racks still running; the run halts when it reaches zero.
    pub(crate) active: usize,
}

impl EventHandler<SimEvent> for World {
    fn handle(&mut self, q: &mut EventQueue<SimEvent>, t: SimTime, _class: u8, ev: SimEvent) {
        match ev {
            SimEvent::Faults { rack } => self.racks[rack].fault_phase(q, t),
            SimEvent::Gateways { rack } => self.racks[rack].gateway_phase(q, t),
            SimEvent::LateFrame { rack, slot } => self.racks[rack].late_frame(q, t, slot),
            SimEvent::Arrival { rack, idx } => self.racks[rack].arrival(idx),
            SimEvent::Control { rack } => {
                if self.racks[rack].control_phase(q, t) {
                    self.active -= 1;
                    if self.active == 0 {
                        q.halt();
                    }
                }
            }
            SimEvent::Federate => {
                if let Some(fed) = self.fed.as_mut() {
                    fed.federate(q, t, &mut self.racks);
                }
            }
            SimEvent::FedAudit => {
                if let Some(fed) = self.fed.as_mut() {
                    fed.audit(t, &self.racks);
                }
            }
            SimEvent::Plant { rack } => self.racks[rack].plant_phase(t),
            SimEvent::Audit { rack } => self.racks[rack].audit_phase(t),
        }
    }
}

/// A frame-loss/duplication rule compiled for the broker fault hook.
#[derive(Debug, Clone, Copy)]
struct LossRule {
    node: Option<u32>,
    p_drop: f64,
    p_dup: f64,
    from_s: f64,
    until_s: f64,
}

/// State shared with the broker's fault hook. The hook runs inside
/// `publish`; the harness sets `t_s` before each gateway publish and
/// takes the fate the hook recorded right after.
struct HookState {
    rng: Rng,
    t_s: f64,
    rules: Vec<LossRule>,
    last: Option<PublishFate>,
}

/// A reordered frame parked in the delay slab; its landing instant is
/// the kernel event, its insertion seq keeps the delay line FIFO.
struct DelayedFrame {
    node: u32,
    frame: SampleFrame,
    /// True end of the window the frame measured (freshness truth).
    true_end_s: f64,
    /// Kernel insertion seq — reused on requeue so a frame held back
    /// further (broker down, node dead) keeps its original order.
    seq: u64,
}

/// A job on the plant: ground truth the control plane cannot see.
struct PlantJob {
    id: JobId,
    nodes: Vec<u32>,
    /// True mean per-node power at full speed, after drift.
    node_w: f64,
    /// Work left, in nominal-speed seconds.
    remaining_s: f64,
}

fn window_active(from_s: f64, until_s: f64, t: f64) -> bool {
    from_s <= t && t < until_s
}

/// Standard normal via Box–Muller on the plant RNG.
fn gauss(rng: &mut Rng) -> f64 {
    let u1 = rng.uniform().max(1e-12);
    let u2 = rng.uniform();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One rack's complete simulation state: the real stack under test
/// (broker, control plane, observability) plus the synthetic plant,
/// fault injector, ground-truth ledgers and invariant checker. The
/// kernel dispatches its phase methods; [`finish`](Self::finish) turns
/// it into a [`RunOutcome`].
pub(crate) struct RackSim {
    rack: usize,
    sc: Scenario,
    tick: f64,
    tick_dur: SimDuration,
    samples: usize,

    pub(crate) broker: Broker,
    cp: ControlPlane,
    ctl_watch: Client,
    gateway: Client,
    /// Federated runs only: subscribed to `fed/+/cap` on the rack
    /// broker; cap grants bridged down from the site are applied at the
    /// head of the control phase. `None` in single-rack runs — zero
    /// behavioural difference from the lockstep harness.
    cap_watch: Option<Client>,
    hook_state: Arc<Mutex<HookState>>,
    pub(crate) hub: ObsHub,
    obs_clock: Arc<ManualClock>,
    /// Applied-but-not-yet-actuated grants, `(seq, cap_w)`: the span
    /// closes when observed system power first measures at or under the
    /// granted cap. A newer applied grant supersedes the list.
    pending_grants: Vec<(u64, f64)>,
    /// Checker violations already copied into the flight recorder.
    seen_violations: usize,
    /// Snapshot taken the first time the checker fired.
    flight_dump: Option<String>,

    plant_rng: Rng,
    inject_rng: Rng,
    speeds: Vec<f64>,
    node_draw_w: Vec<f64>,
    dead: Vec<bool>,
    clock_offset: Vec<f64>,
    clock_faulted: Vec<bool>,
    delivered_until: Vec<f64>,
    dirty: Vec<Vec<(f64, f64)>>,
    per_node_energy: Vec<f64>,
    step_fired: Vec<bool>,
    plant: Vec<PlantJob>,
    delay_slab: Vec<Option<DelayedFrame>>,
    delayed_outstanding: usize,
    jobs: Vec<JobTruth>,
    job_index: HashMap<JobId, usize>,
    by_id: HashMap<JobId, davide_sched::Job>,
    trace: Vec<davide_sched::Job>,
    arrivals_pending: usize,

    model: StoreModel,
    checker: InvariantChecker,
    log: EventLog,

    pub(crate) broker_down: bool,
    reconnect_tick: bool,
    /// The cap currently in force (scenario cap, or the latest applied
    /// federated grant).
    cap_now_w: f64,
    total_energy_j: f64,
    idle_energy_j: f64,
    overcap_s: f64,
    overcap_energy_j: f64,
    frames_delivered: u64,
    frames_suppressed: u64,

    /// True aggregate draw over the last advanced period, watts.
    pub(crate) last_sys_w: f64,
    /// Busy nodes over the last advanced period.
    pub(crate) last_busy: usize,
    /// Instant of the last plant advance — the federator only counts a
    /// rack's draw for periods the rack actually integrated.
    pub(crate) advanced_at: Option<SimTime>,
    done: bool,
    done_at: Option<f64>,
}

impl RackSim {
    /// Build one rack's full stack for `sc`, exactly as the original
    /// single-rack harness did (same client names, same RNG stream
    /// seeds, same config plumbing — the digest contract depends on
    /// it).
    pub(crate) fn new(rack: usize, sc: &Scenario, db_cfg: TsDbConfig) -> RackSim {
        assert!(sc.n_nodes >= 1 && sc.tick_s > 0.0 && sc.sample_dt_s > 0.0);
        let n = sc.n_nodes as usize;
        let tick = sc.tick_s;

        // ── Trace and predictor. ──
        let workload = WorkloadConfig {
            users: sc.users,
            mean_interarrival_s: sc.mean_interarrival_s,
            max_nodes: sc.max_job_nodes.min(sc.n_nodes),
            mean_walltime_s: sc.mean_walltime_s,
            ..WorkloadConfig::default()
        };
        let mut gen = WorkloadGenerator::new(workload.clone(), sc.seed);
        let history = gen.trace(sc.n_history);
        let mut trace = gen.trace(sc.n_jobs);
        let t_base = trace.first().map(|j| j.submit_s).unwrap_or(0.0);
        for j in &mut trace {
            j.submit_s -= t_base;
        }
        let base =
            PowerPredictor::from_kind(ModelKind::linreg(), &history, workload.users as usize);
        let predictor = OnlinePowerPredictor::new(base, 0.995, 1000.0);

        // ── The real stack under test. ──
        let mut cfg =
            ControlPlaneConfig::davide(sc.mode, sc.n_nodes, CapSchedule::constant(sc.cap_w));
        if sc.disable_stale_fallback {
            // Regression knob: the loop stops noticing staleness while
            // the checker keeps auditing against the nominal deadline.
            cfg.telemetry_deadline_s = 1e18;
        } else {
            cfg.telemetry_deadline_s = sc.deadline_s;
        }
        let broker = Broker::new(1 << 16);
        let db = TsDb::with_config(db_cfg).expect("telemetry store (disk tier open)");
        // Self-instrumentation is always armed: every stamp reads the
        // virtual clock, and nothing here draws RNG or touches the event
        // log, so per-seed digests are exactly what they were without it.
        let (hub, obs_clock) = ObsHub::manual();
        let cp = ControlPlane::new(&broker, cfg, predictor, db, &hub)
            .expect("subscribe on fresh broker");
        broker.set_obs(Some(BrokerObs::new(&hub, Some(&FRAME_MAGIC.to_le_bytes()))));
        let mut ctl_watch = broker.connect("plant-gateways");
        ctl_watch
            .subscribe("davide/+/ctl/speed", QoS::AtMostOnce)
            .expect("subscribe ctl");
        let gateway = broker.connect("plant-publisher");

        // ── Fault hook: loss and duplication on the gateway→broker hop. ──
        let rules: Vec<LossRule> = sc
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::FrameLoss {
                    node,
                    p,
                    from_s,
                    until_s,
                } => Some(LossRule {
                    node,
                    p_drop: p,
                    p_dup: 0.0,
                    from_s,
                    until_s,
                }),
                Fault::Duplicate {
                    node,
                    p,
                    from_s,
                    until_s,
                } => Some(LossRule {
                    node,
                    p_drop: 0.0,
                    p_dup: p,
                    from_s,
                    until_s,
                }),
                _ => None,
            })
            .collect();
        let hook_state = Arc::new(Mutex::new(HookState {
            rng: Rng::seed_from(sc.seed ^ 0xd1b5_4a32_d192_ed03),
            t_s: 0.0,
            rules,
            last: None,
        }));
        {
            let state = Arc::clone(&hook_state);
            broker.set_fault_hook(Some(Box::new(move |topic: &str| {
                let mut st = state.lock();
                // Only power frames are subject to the script; control
                // traffic always goes through.
                let node = match parse_node_topic(topic) {
                    Some((node, rest)) if rest.starts_with("power/") => node,
                    _ => return PublishFate::Deliver,
                };
                let t = st.t_s;
                let mut fate = PublishFate::Deliver;
                for k in 0..st.rules.len() {
                    let r = st.rules[k];
                    if !window_active(r.from_s, r.until_s, t) || r.node.is_some_and(|rn| rn != node)
                    {
                        continue;
                    }
                    if r.p_drop > 0.0 && st.rng.chance(r.p_drop) {
                        fate = PublishFate::Drop;
                    }
                    if r.p_dup > 0.0 && st.rng.chance(r.p_dup) && fate == PublishFate::Deliver {
                        fate = PublishFate::Duplicate;
                    }
                }
                st.last = Some(fate);
                fate
            })));
        }

        let model = StoreModel::new(n);
        let checker = InvariantChecker::new(CheckerConfig {
            n_nodes: sc.n_nodes,
            cap_w: sc.cap_w,
            deadline_s: sc.deadline_s,
            cap_grace_s: sc.cap_grace_s,
            tick_s: tick,
            noise: sc.noise,
            sample_dt_s: sc.sample_dt_s,
        });

        let by_id: HashMap<JobId, davide_sched::Job> =
            trace.iter().map(|j| (j.id, j.clone())).collect();
        let samples = (tick / sc.sample_dt_s).round().max(1.0) as usize;
        let arrivals_pending = trace.len();
        let step_fired = vec![false; sc.faults.len()];

        RackSim {
            rack,
            sc: sc.clone(),
            tick,
            tick_dur: SimDuration::from_secs_f64(tick),
            samples,
            broker,
            cp,
            ctl_watch,
            gateway,
            cap_watch: None,
            hook_state,
            hub,
            obs_clock,
            pending_grants: Vec::new(),
            seen_violations: 0,
            flight_dump: None,
            plant_rng: Rng::seed_from(sc.seed ^ 0x9e37_79b9),
            inject_rng: Rng::seed_from(sc.seed ^ 0xa076_1d64_78bd_642f),
            speeds: vec![1.0; n],
            node_draw_w: vec![IDLE_NODE_POWER_W; n],
            dead: vec![false; n],
            clock_offset: vec![0.0; n],
            clock_faulted: vec![false; n],
            delivered_until: vec![f64::NEG_INFINITY; n],
            dirty: vec![Vec::new(); n],
            per_node_energy: vec![0.0; n],
            step_fired,
            plant: Vec::new(),
            delay_slab: Vec::new(),
            delayed_outstanding: 0,
            jobs: Vec::new(),
            job_index: HashMap::new(),
            by_id,
            trace,
            arrivals_pending,
            model,
            checker,
            log: EventLog::new(),
            broker_down: false,
            reconnect_tick: false,
            cap_now_w: sc.cap_w,
            total_energy_j: 0.0,
            idle_energy_j: 0.0,
            overcap_s: 0.0,
            overcap_energy_j: 0.0,
            frames_delivered: 0,
            frames_suppressed: 0,
            last_sys_w: 0.0,
            last_busy: 0,
            advanced_at: None,
            done: false,
            done_at: None,
        }
    }

    /// Arm the federated-cap path: subscribe a rack-broker client to
    /// the bridged `fed/+/cap` grants. Must run before
    /// [`bootstrap`](Self::bootstrap).
    pub(crate) fn enable_federation(&mut self) {
        let mut cw = self.broker.connect("fed-cap-watch");
        cw.subscribe("fed/+/cap", QoS::AtMostOnce)
            .expect("subscribe fed caps");
        self.cap_watch = Some(cw);
    }

    /// Seed the kernel with this rack's recurring phase events and its
    /// whole arrival schedule.
    pub(crate) fn bootstrap(&self, q: &mut EventQueue<SimEvent>) {
        let rack = self.rack;
        q.schedule(SimTime::ZERO, phase::FAULTS, SimEvent::Faults { rack });
        q.schedule(SimTime::ZERO, phase::GATEWAYS, SimEvent::Gateways { rack });
        for (idx, j) in self.trace.iter().enumerate() {
            q.schedule(
                SimTime::from_secs_f64(j.submit_s),
                phase::ARRIVAL,
                SimEvent::Arrival { rack, idx },
            );
        }
        q.schedule(SimTime::ZERO, phase::CONTROL, SimEvent::Control { rack });
    }

    /// Fault lifecycle at `t`: broker, nodes, clocks — one per-tick
    /// window probe, semantics identical to the lockstep sweep.
    fn fault_phase(&mut self, q: &mut EventQueue<SimEvent>, t: SimTime) {
        if self.done {
            return;
        }
        let t_s = t.as_secs_f64();
        let t_ns = t.0;
        self.obs_clock.set(t_s);
        self.reconnect_tick = false;
        let n = self.sc.n_nodes as usize;

        let broker_down_now = self.sc.faults.iter().any(|f| {
            matches!(*f, Fault::BrokerRestart { from_s, until_s } if window_active(from_s, until_s, t_s))
        });
        if broker_down_now && !self.broker_down {
            self.broker_down = true;
            self.log.push(Event::BrokerDown { t_ns });
            // Node-agent sessions drop; agents fail safe to nominal
            // speed until the retained replay restores the limits.
            self.ctl_watch.disconnect();
            if let Some(cw) = self.cap_watch.as_mut() {
                cw.disconnect();
            }
            for s in self.speeds.iter_mut() {
                *s = 1.0;
            }
        } else if !broker_down_now && self.broker_down {
            self.broker_down = false;
            self.reconnect_tick = true;
            self.ctl_watch = self.broker.connect("plant-gateways");
            self.ctl_watch
                .subscribe("davide/+/ctl/speed", QoS::AtMostOnce)
                .expect("resubscribe ctl");
            self.log.push(Event::BrokerUp {
                t_ns,
                replayed: self.ctl_watch.pending() as u32,
            });
            if self.cap_watch.is_some() {
                // The cap watcher resubscribes too; the retained grant
                // replays and is re-applied (idempotently) next control
                // phase.
                let mut cw = self.broker.connect("fed-cap-watch");
                cw.subscribe("fed/+/cap", QoS::AtMostOnce)
                    .expect("resubscribe fed caps");
                self.cap_watch = Some(cw);
            }
        }
        if self.broker_down {
            for d in self.dirty.iter_mut() {
                d.push((t_s - self.tick, t_s + self.tick));
            }
        }

        for node in 0..n {
            let was_dead = self.dead[node];
            let dead_now = self.sc.faults.iter().any(|f| {
                matches!(*f, Fault::NodeDeath { node: dn, at_s, revive_s }
                    if dn as usize == node && window_active(at_s, revive_s, t_s))
            });
            self.dead[node] = dead_now;
            if dead_now && !was_dead {
                self.log.push(Event::NodeDown {
                    t_ns,
                    node: node as u32,
                });
            } else if !dead_now && was_dead {
                self.log.push(Event::NodeUp {
                    t_ns,
                    node: node as u32,
                });
            }
            if dead_now {
                self.dirty[node].push((t_s - self.tick, t_s + self.tick));
            }
        }

        for fi in 0..self.sc.faults.len() {
            match self.sc.faults[fi] {
                Fault::ClockSkew {
                    node,
                    ppm,
                    from_s,
                    until_s,
                } if window_active(from_s, until_s, t_s) => {
                    let i = node as usize;
                    self.clock_offset[i] += ppm * 1e-6 * self.tick;
                    self.clock_faulted[i] = true;
                }
                Fault::ClockStep {
                    node,
                    offset_s,
                    at_s,
                } if t_s >= at_s && !self.step_fired[fi] => {
                    self.step_fired[fi] = true;
                    let i = node as usize;
                    self.clock_offset[i] += offset_s;
                    self.clock_faulted[i] = true;
                    self.log.push(Event::ClockStep {
                        t_ns,
                        node,
                        offset_bits: offset_s.to_bits(),
                    });
                }
                _ => {}
            }
        }
        for node in 0..n {
            let skewing = self.sc.faults.iter().any(|f| {
                matches!(*f, Fault::ClockSkew { node: sn, from_s, until_s, .. }
                    if sn as usize == node && window_active(from_s, until_s, t_s))
            });
            if !skewing && self.clock_offset[node] != 0.0 {
                // PTP servo pulls the clock back after the fault clears.
                self.clock_offset[node] *= 0.5;
                if self.clock_offset[node].abs() < 1e-3 {
                    self.clock_offset[node] = 0.0;
                }
            }
            if self.clock_offset[node] != 0.0 {
                self.dirty[node].push((t_s - self.tick, t_s + self.tick));
            }
        }

        q.schedule(
            t + self.tick_dur,
            phase::FAULTS,
            SimEvent::Faults { rack: self.rack },
        );
    }

    /// Deliver one frame through the broker, attribute its fate, and
    /// mirror what the store is entitled to absorb.
    fn publish_frame(
        &mut self,
        t: f64,
        node: u32,
        frame: &SampleFrame,
        true_end_s: f64,
        late: bool,
    ) {
        self.hook_state.lock().t_s = t;
        let _ = self.gateway.publish(
            &power_topic(node, "node"),
            frame.encode(),
            QoS::AtMostOnce,
            false,
        );
        let fate = self
            .hook_state
            .lock()
            .last
            .take()
            .expect("hook sees every power publish");
        let logged = match fate {
            PublishFate::Drop => FrameFate::Lost,
            PublishFate::Duplicate => FrameFate::Duplicated,
            PublishFate::Deliver if late => FrameFate::DeliveredLate,
            PublishFate::Deliver => FrameFate::Delivered,
        };
        let deliveries = match fate {
            PublishFate::Drop => 0,
            PublishFate::Deliver => 1,
            PublishFate::Duplicate => 2,
        };
        for _ in 0..deliveries {
            self.model
                .deliver(node as usize, frame.t0_s, frame.dt_s, &frame.watts);
        }
        if deliveries > 0 {
            let i = node as usize;
            self.delivered_until[i] = self.delivered_until[i].max(true_end_s);
            self.frames_delivered += 1;
        } else {
            self.frames_suppressed += 1;
        }
        if logged != FrameFate::Delivered {
            let span = frame.dt_s * frame.watts.len() as f64;
            self.dirty[node as usize].push((true_end_s - span - self.tick, t + self.tick));
        }
        self.log.push(Event::Frame {
            t_ns: (t * 1e9).round() as u64,
            node,
            t0_bits: frame.t0_s.to_bits(),
            n: frame.watts.len() as u32,
            fate: logged,
        });
    }

    /// Gateways publish the window `[t − tick, t)`; reorder-delayed
    /// frames become [`SimEvent::LateFrame`] entries.
    fn gateway_phase(&mut self, q: &mut EventQueue<SimEvent>, t: SimTime) {
        if self.done {
            return;
        }
        let t_s = t.as_secs_f64();
        let t_ns = t.0;
        if t_s > 0.0 {
            let t0 = t_s - self.tick;
            for node in 0..self.sc.n_nodes {
                let i = node as usize;
                let suppressed = if self.dead[i] {
                    Some(FrameFate::Dead)
                } else if self.broker_down {
                    Some(FrameFate::BrokerDown)
                } else if self.sc.faults.iter().any(|f| {
                    matches!(*f, Fault::Dropout { node: dn, from_s, until_s }
                        if dn == node && window_active(from_s, until_s, t_s))
                }) {
                    Some(FrameFate::Dropout)
                } else {
                    None
                };
                if let Some(fate) = suppressed {
                    self.frames_suppressed += 1;
                    self.dirty[i].push((t0 - self.tick, t_s + self.tick));
                    self.log.push(Event::Frame {
                        t_ns,
                        node,
                        t0_bits: (t0 + self.clock_offset[i]).to_bits(),
                        n: 0,
                        fate,
                    });
                    continue;
                }
                let w = self.node_draw_w[i];
                let noise = self.sc.noise;
                let samples = self.samples;
                let rng = &mut self.plant_rng;
                let watts: Vec<f32> = (0..samples)
                    .map(|_| {
                        let nz = 1.0 + noise * gauss(rng);
                        (w * nz).max(0.0) as f32
                    })
                    .collect();
                let frame = SampleFrame {
                    t0_s: t0 + self.clock_offset[i],
                    dt_s: self.sc.sample_dt_s,
                    watts,
                };
                // The first active `Reorder` fault for this node, if
                // any, draws whether the frame is held back.
                let reorder = self.sc.faults.iter().find_map(|f| match *f {
                    Fault::Reorder {
                        node: rn,
                        p,
                        delay_ticks,
                        from_s,
                        until_s,
                    } if rn == node && window_active(from_s, until_s, t_s) => {
                        Some((p, delay_ticks))
                    }
                    _ => None,
                });
                if let Some((_, delay_ticks)) = reorder.filter(|&(p, _)| self.inject_rng.chance(p))
                {
                    self.log.push(Event::Frame {
                        t_ns,
                        node,
                        t0_bits: frame.t0_s.to_bits(),
                        n: frame.watts.len() as u32,
                        fate: FrameFate::Delayed,
                    });
                    self.dirty[i]
                        .push((t0 - self.tick, t_s + (delay_ticks as f64 + 1.0) * self.tick));
                    let due = t + SimDuration(self.tick_dur.0 * delay_ticks as u64);
                    let slot = self.delay_slab.len();
                    let seq = q.schedule(
                        due,
                        phase::LATE_FRAME,
                        SimEvent::LateFrame {
                            rack: self.rack,
                            slot,
                        },
                    );
                    self.delay_slab.push(Some(DelayedFrame {
                        node,
                        frame,
                        true_end_s: t_s,
                        seq,
                    }));
                    self.delayed_outstanding += 1;
                    continue;
                }
                self.publish_frame(t_s, node, &frame, t_s, false);
            }
        }
        q.schedule(
            t + self.tick_dur,
            phase::GATEWAYS,
            SimEvent::Gateways { rack: self.rack },
        );
    }

    /// A delayed frame comes due. If the broker is down or the node is
    /// dead it stays queued at the gateway: the event hops one tick
    /// forward *keeping its insertion seq*, so the delay line lands in
    /// FIFO order exactly like the lockstep hold-back buffer.
    fn late_frame(&mut self, q: &mut EventQueue<SimEvent>, t: SimTime, slot: usize) {
        let t_s = t.as_secs_f64();
        let held = {
            let df = self.delay_slab[slot].as_ref().expect("live delay slot");
            self.broker_down || self.dead[df.node as usize]
        };
        if held {
            let seq = self.delay_slab[slot].as_ref().expect("live delay slot").seq;
            q.requeue(
                t + self.tick_dur,
                phase::LATE_FRAME,
                seq,
                SimEvent::LateFrame {
                    rack: self.rack,
                    slot,
                },
            );
            return;
        }
        let df = self.delay_slab[slot].take().expect("live delay slot");
        self.delayed_outstanding -= 1;
        self.publish_frame(t_s, df.node, &df.frame, df.true_end_s, true);
    }

    /// One trace job reaches its submit time and enters the queue.
    fn arrival(&mut self, idx: usize) {
        self.cp.submit(self.trace[idx].clone());
        self.arrivals_pending -= 1;
    }

    /// Apply a federated cap grant: swap the control plane's schedule,
    /// retune the checker's envelope, log the change. Idempotent for
    /// repeated grants of the same value (retained replays); returns
    /// whether the grant actually took effect.
    fn apply_cap(&mut self, t_ns: u64, w: f64) -> bool {
        if !w.is_finite() || w <= 0.0 || (w - self.cap_now_w).abs() < 1e-9 {
            return false;
        }
        self.cap_now_w = w;
        self.cp.set_cap_schedule(CapSchedule::constant(w));
        self.checker.set_cap_w(w);
        self.log.push(Event::CapApplied {
            t_ns,
            cap_bits: w.to_bits(),
        });
        true
    }

    /// Arm or disarm grant-span tracing and flight recording (the A/B
    /// knob overhead experiments flip; enabled by default). Digests and
    /// the event log are identical either way.
    pub(crate) fn set_tracing(&self, on: bool) {
        self.hub.set_tracing_enabled(on);
    }

    /// One control period: apply bridged cap grants, collect plant
    /// completions and death aborts, run the real loop's tick, apply
    /// DVFS commands, then either finish the rack or schedule the
    /// plant/audit phases and the next period. Returns `true` when the
    /// rack just finished.
    fn control_phase(&mut self, q: &mut EventQueue<SimEvent>, t: SimTime) -> bool {
        if self.done {
            return false;
        }
        let t_s = t.as_secs_f64();
        let t_ns = t.0;

        // ── Federated cap grants land first: the control period runs
        //    under the budget that was in force when it started. The
        //    grant's watts carry the exact bits the federator formatted
        //    (so `CapApplied` and every digest are unchanged by the
        //    seq), the seq stitches the grant's causal span across
        //    racks. ──
        if self.cap_watch.is_some() {
            let msgs = self.cap_watch.as_mut().expect("federated").drain();
            for m in msgs {
                let Some((w, seq)) = parse_grant(&m.payload) else {
                    continue;
                };
                self.hub.span.stamp(seq, GrantStage::RackReceive, t_s);
                self.hub
                    .flight
                    .push(t_ns, flight::kind::RACK_RECEIVE, "", seq, w.to_bits());
                if self.apply_cap(t_ns, w) {
                    self.hub.span.stamp(seq, GrantStage::CapCommand, t_s);
                    self.hub
                        .flight
                        .push(t_ns, flight::kind::CAP_COMMAND, "", seq, w.to_bits());
                    // A newly-commanded grant supersedes anything still
                    // waiting to actuate: the old spans stay resident
                    // and flush as lost-at-cap-command.
                    self.pending_grants.clear();
                    self.pending_grants.push((seq, w));
                }
            }
        }

        // ── Plant completions and death aborts. ──
        let mut completions: Vec<(JobId, f64)> = Vec::new();
        let mut plant = std::mem::take(&mut self.plant);
        plant.retain(|pj| {
            let killer = pj.nodes.iter().find(|&&nd| self.dead[nd as usize]);
            if let Some(&killer) = killer {
                completions.push((pj.id, t_s));
                let rec = &mut self.jobs[self.job_index[&pj.id]];
                rec.end_s = t_s;
                rec.aborted = true;
                for &nd in &pj.nodes {
                    self.speeds[nd as usize] = 1.0;
                }
                self.log.push(Event::Abort {
                    t_ns,
                    job: pj.id,
                    node: killer,
                });
                return false;
            }
            if pj.remaining_s <= 1e-9 {
                completions.push((pj.id, t_s));
                let rec = &mut self.jobs[self.job_index[&pj.id]];
                rec.end_s = t_s;
                for &nd in &pj.nodes {
                    self.speeds[nd as usize] = 1.0;
                }
                self.log.push(Event::Complete { t_ns, job: pj.id });
                return false;
            }
            true
        });
        self.plant = plant;

        // ── One control period of the real loop. ──
        let placements = self.cp.tick(t_s, &completions);
        for p in &placements {
            let job = &self.by_id[&p.job];
            self.job_index.insert(p.job, self.jobs.len());
            self.jobs.push(JobTruth {
                id: p.job,
                start_s: t_s,
                end_s: f64::NAN,
                nodes: p.nodes.clone(),
                energy_j: 0.0,
                clean: true,
                aborted: false,
            });
            self.log.push(Event::Place {
                t_ns,
                job: p.job,
                nodes: p.nodes.clone(),
            });
            self.plant.push(PlantJob {
                id: p.job,
                nodes: p.nodes.clone(),
                node_w: job.true_power_w * self.sc.app_drift[job.app as usize],
                remaining_s: job.true_runtime_s,
            });
        }

        // ── Apply DVFS commands (live, or retained replay on
        //    reconnect). ──
        for msg in self.ctl_watch.drain() {
            if let (Some((node, "ctl/speed")), Ok(speed)) = (
                parse_node_topic(&msg.topic),
                std::str::from_utf8(&msg.payload)
                    .unwrap_or("")
                    .parse::<f64>(),
            ) {
                if node < self.sc.n_nodes {
                    let applied = speed.clamp(0.1, 1.0);
                    self.speeds[node as usize] = applied;
                    self.checker.on_speed(t_s, node, self.reconnect_tick);
                    self.log.push(Event::Speed {
                        t_ns,
                        node,
                        speed_bits: applied.to_bits(),
                        replayed: self.reconnect_tick,
                    });
                }
            }
        }

        if self.arrivals_pending == 0
            && self.plant.is_empty()
            && self.cp.queue_len() == 0
            && self.delayed_outstanding == 0
        {
            self.done = true;
            self.done_at = Some(t_s);
            return true;
        }

        q.schedule(t, phase::PLANT, SimEvent::Plant { rack: self.rack });
        q.schedule(t, phase::AUDIT, SimEvent::Audit { rack: self.rack });
        let next = t + self.tick_dur;
        assert!(
            next.as_secs_f64() < 30.0 * 86_400.0,
            "scenario {:?} failed to converge: queue={} plant={}",
            self.sc.name,
            self.cp.queue_len(),
            self.plant.len()
        );
        q.schedule(next, phase::CONTROL, SimEvent::Control { rack: self.rack });
        false
    }

    /// Advance the plant over `[t, t + tick)`: integrate draw, charge
    /// the energy ledgers, shrink remaining work.
    fn plant_phase(&mut self, t: SimTime) {
        let n = self.sc.n_nodes as usize;
        for (i, w) in self.node_draw_w.iter_mut().enumerate() {
            *w = if self.dead[i] { 0.0 } else { IDLE_NODE_POWER_W };
        }
        for pj in self.plant.iter_mut() {
            let speed = pj
                .nodes
                .iter()
                .map(|&nd| self.speeds[nd as usize])
                .fold(1.0, f64::min);
            for &nd in &pj.nodes {
                if !self.dead[nd as usize] {
                    self.node_draw_w[nd as usize] =
                        IDLE_NODE_POWER_W + speed * (pj.node_w - IDLE_NODE_POWER_W).max(0.0);
                }
            }
            pj.remaining_s -= self.tick * speed;
        }
        let sys_w: f64 = self.node_draw_w.iter().sum();
        self.total_energy_j += sys_w * self.tick;
        let mut busy_nodes = vec![false; n];
        for pj in &self.plant {
            let job_e: f64 = pj
                .nodes
                .iter()
                .map(|&nd| {
                    busy_nodes[nd as usize] = true;
                    self.node_draw_w[nd as usize] * self.tick
                })
                .sum();
            self.jobs[self.job_index[&pj.id]].energy_j += job_e;
        }
        for (i, &busy) in busy_nodes.iter().enumerate() {
            self.per_node_energy[i] += self.node_draw_w[i] * self.tick;
            if !busy {
                self.idle_energy_j += self.node_draw_w[i] * self.tick;
            }
        }
        if sys_w > self.cap_now_w {
            self.overcap_s += self.tick;
            self.overcap_energy_j += (sys_w - self.cap_now_w) * self.tick;
        }
        self.last_sys_w = sys_w;
        self.last_busy = busy_nodes.iter().filter(|&&b| b).count();
        self.advanced_at = Some(t);

        // ── Grant actuation: the first period whose observed draw sits
        //    at or under a commanded grant closes that grant's span —
        //    the causal chain's terminal hop. ──
        if !self.pending_grants.is_empty() {
            let t_s = t.as_secs_f64();
            let t_ns = t.0;
            let hub = &self.hub;
            self.pending_grants.retain(|&(seq, cap_w)| {
                if sys_w <= cap_w {
                    hub.span.stamp(seq, GrantStage::PowerCrossing, t_s);
                    hub.span.close(seq);
                    hub.flight
                        .push(t_ns, flight::kind::POWER_CROSSING, "", seq, cap_w.to_bits());
                    false
                } else {
                    true
                }
            });
        }
    }

    /// Audit the period just advanced against ground truth. New checker
    /// violations land in the flight recorder, and the *first* one
    /// snapshots the ring: the dump captures the causal window leading
    /// up to the trip.
    fn audit_phase(&mut self, t: SimTime) {
        let t_s = t.as_secs_f64();
        self.checker.on_tick(
            t_s,
            self.tick,
            &self.cp,
            &TickTruth {
                sys_w: self.last_sys_w,
                broker_down: self.broker_down,
                delivered_until: &self.delivered_until,
                dead: &self.dead,
                clock_faulted: &self.clock_faulted,
            },
        );
        self.record_new_violations(t.0);
    }

    /// Copy checker violations found since the last call into the
    /// flight ring and capture the one-shot dump on the first trip.
    fn record_new_violations(&mut self, t_ns: u64) {
        let violations = self.checker.violations();
        if violations.len() > self.seen_violations {
            for v in &violations[self.seen_violations..] {
                self.hub.flight.push(
                    t_ns,
                    flight::kind::VIOLATION,
                    v.invariant,
                    0,
                    v.t_s.to_bits(),
                );
            }
            self.seen_violations = violations.len();
            if self.flight_dump.is_none() && self.hub.flight.enabled() {
                self.flight_dump = Some(self.hub.flight.dump());
            }
        }
    }

    /// Close out the rack: classify clean jobs, fix up the report, run
    /// the end-of-run invariant checks, detach the fault hook.
    /// `fallback_end_s` is the run's final instant for racks that never
    /// reached their own termination (federated early halt).
    pub(crate) fn finish(mut self, fallback_end_s: f64) -> RunOutcome {
        let t_end = self.done_at.unwrap_or(fallback_end_s);
        // Classify jobs: clean means no fault activity touched any of
        // its nodes for its whole (slightly widened) window.
        for j in self.jobs.iter_mut() {
            if j.end_s.is_nan() {
                j.end_s = t_end;
            }
            let (a, b) = (j.start_s - self.tick, j.end_s + self.tick);
            let touched = j.nodes.iter().any(|&nd| {
                self.dirty[nd as usize]
                    .iter()
                    .any(|&(from, until)| from < b && a < until)
            });
            j.clean = !touched && !j.aborted;
        }

        let mut report = self.cp.report();
        report.total_energy_j = self.total_energy_j;
        report.overcap_energy_j = self.overcap_energy_j;
        report.overcap_s = self.overcap_s;

        // Mid-run violations the audit phase has not seen yet (e.g. a
        // converge-spacing trip on the final control period) still
        // reach the flight recorder before the end-of-run dump.
        self.record_new_violations((t_end * 1e9).round() as u64);

        let truth = GroundTruth {
            total_energy_j: self.total_energy_j,
            idle_energy_j: self.idle_energy_j,
            per_node_energy_j: self.per_node_energy,
            overcap_s: self.overcap_s,
            overcap_energy_j: self.overcap_energy_j,
            aborted_jobs: self.jobs.iter().filter(|j| j.aborted).count() as u64,
            frames_delivered: self.frames_delivered,
            frames_suppressed: self.frames_suppressed,
            makespan_s: t_end,
            jobs: self.jobs,
        };
        let violations = self.checker.finish(
            &self.cp,
            &self.broker,
            &report,
            &self.model,
            &FinalTruth {
                total_energy_j: truth.total_energy_j,
                per_node_energy_j: &truth.per_node_energy_j,
                idle_energy_j: truth.idle_energy_j,
                jobs: &truth.jobs,
                t_s: t_end,
            },
        );
        // Violations the end-of-run sweep itself uncovered (energy
        // ledgers, stale accounting) still trigger a dump: the ring
        // holds the whole run's tail either way.
        if violations.len() > self.seen_violations {
            let t_ns = (t_end * 1e9).round() as u64;
            for v in &violations[self.seen_violations..] {
                self.hub.flight.push(
                    t_ns,
                    flight::kind::VIOLATION,
                    v.invariant,
                    0,
                    v.t_s.to_bits(),
                );
            }
            if self.flight_dump.is_none() && self.hub.flight.enabled() {
                self.flight_dump = Some(self.hub.flight.dump());
            }
        }
        // Detach the hook so the broker (shared handles) cannot call
        // into freed harness state.
        self.broker.set_fault_hook(None);
        // Anything still resident in the tracers never completed its
        // loop: account it as lost at whatever stage it last reached.
        self.hub.tracer.flush();
        self.hub.span.flush();

        RunOutcome {
            scenario: self.sc.name.clone(),
            report,
            log: self.log,
            violations,
            truth,
            obs: self.hub,
            flight_dump: self.flight_dump,
        }
    }
}

/// Execute one scenario to completion and return the outcome. Pure in
/// the seed: no wall clock, no global state — two calls with an equal
/// [`Scenario`] return bit-identical event logs.
pub fn run(sc: &Scenario) -> RunOutcome {
    run_with_db_config(sc, TsDbConfig::default())
}

/// [`run`] with an explicit telemetry-store configuration for the
/// control plane — the hook the tiered-storage proof uses to show the
/// event-log digest of every canned scenario is unchanged when the
/// store seals, compresses and demotes under the loop.
pub fn run_with_db_config(sc: &Scenario, db_cfg: TsDbConfig) -> RunOutcome {
    let mut q = EventQueue::new();
    let rack = RackSim::new(0, sc, db_cfg);
    rack.bootstrap(&mut q);
    let mut world = World {
        racks: vec![rack],
        fed: None,
        active: 1,
    };
    kernel::drive(&mut q, &mut world);
    let t_end = q.now_s();
    let rack = world.racks.pop().expect("one rack");
    rack.finish(t_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn baseline_scenario_is_clean_and_deterministic() {
        let sc = Scenario::base("unit_baseline", 11);
        let a = run(&sc);
        assert_eq!(
            a.violations,
            Vec::new(),
            "baseline must hold every invariant"
        );
        assert_eq!(a.report.jobs_completed as usize, sc.n_jobs);
        assert!(a.truth.total_energy_j > 0.0);
        let b = run(&sc);
        assert_eq!(a.log, b.log, "same seed, same scenario → same event log");
        assert_eq!(a.log.digest(), b.log.digest());
    }

    #[test]
    fn obs_latency_probe_measures_latency_and_is_bit_identical() {
        let sc = crate::scenario::obs_latency_probe(11);
        let a = run(&sc);
        let b = run(&sc);
        assert_eq!(a.violations, Vec::new(), "probe holds every invariant");
        assert_eq!(a.log.digest(), b.log.digest());
        assert_eq!(
            a.obs.registry.render_text(),
            b.obs.registry.render_text(),
            "same seed ⇒ bit-identical metrics exposition"
        );

        // Control-loop latency (frame age at actuation) is a measured,
        // non-degenerate distribution: ordinary frames are one control
        // period old, reordered ones several.
        let age = a
            .obs
            .registry
            .find_histogram("ctl_frame_age_ns")
            .unwrap()
            .snapshot();
        assert!(age.count > 0, "latency histogram must not be empty");
        let tick_ns = (sc.tick_s * 1e9) as u64;
        assert!(
            age.max >= 2 * tick_ns,
            "reordered frames must show up as multi-tick latency (max {} ns)",
            age.max
        );

        // The causal chains complete, and the injected frame loss is
        // visible as traces that never progressed past broker publish.
        let counter = |n: &str| a.obs.registry.find_counter(n).unwrap().get();
        for family in [
            "mqtt_published_total",
            "mqtt_delivered_total",
            "ctl_frames_total",
        ] {
            assert!(counter(family) > 0, "{family} must fire");
        }
        assert!(counter("ctl_ticks_total") > 0);
        assert!(
            a.obs
                .registry
                .find_histogram("ctl_predictor_abs_err_w")
                .unwrap()
                .snapshot()
                .count
                > 0,
            "completions feed the predictor-error distribution"
        );
        assert!(counter("obs_trace_completed_total") > 0);
        assert!(
            counter("obs_trace_lost_total{last=\"broker_publish\"}") > 0,
            "frame loss surfaces as per-stage trace loss"
        );

        // Every exported sample is finite (a NaN gauge or quantile would
        // poison dashboards silently) and the exposition is well formed.
        a.obs.registry.visit_samples(|name, v| {
            assert!(v.is_finite(), "non-finite series {name} = {v}");
        });
        assert!(a.obs.registry.render_text().contains("# TYPE"));
    }
}
