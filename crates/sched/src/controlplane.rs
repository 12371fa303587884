//! The closed power-control loop of Fig. 4, wired end to end: energy
//! gateways publish per-node power frames over MQTT, the control plane
//! folds them into a live cluster view, an online predictor ("EP")
//! corrects itself from measured job powers, and two actuators keep the
//! facility inside its envelope — the proactive dispatcher admits or
//! holds queued jobs against the cap schedule, and a reactive per-node
//! ladder controller steps DVFS down on sustained overcap and back up
//! when headroom returns.
//!
//! ```text
//!   EG frames ──MQTT──▶ ingest ──▶ ClusterView ──▶ dispatcher ──▶ starts
//!                         │            │
//!                         ▼            ▼
//!                       TsDb ──▶ OnlinePowerPredictor ("EP")
//!                         │
//!                         ▼
//!                  ladder capping ──MQTT──▶ node{NN}/ctl/speed
//! ```
//!
//! A node whose telemetry goes quiet past the configured deadline is
//! *stale*: the loop falls back to the predicted power of the job it
//! runs, keeps scheduling, and reports the degradation as
//! [`ControlPlaneReport::stale_node_s`].
//!
//! The loop owns no plant. The `davide-sim` harness renders node power,
//! applies the published DVFS commands and accounts ground-truth
//! energy; the E22 experiment runs it in all three [`ControlMode`]s.

use std::collections::HashMap;

use crate::cap::CapSchedule;
use crate::job::{Job, JobId};
use crate::policy::{ClusterView, EasyBackfill, Policy, RunningSummary, IDLE_NODE_POWER_W};
use crate::power_predictor::OnlinePowerPredictor;
use davide_core::capping::{CapObs, LadderCapController};
use davide_core::units::{Seconds, Watts};
use davide_mqtt::{Broker, BrokerError, Client, QoS};
use davide_obs::{Counter, Gauge, Histogram, ObsHub, Stage};
use davide_telemetry::gateway::{parse_node_topic, speed_topic};
use davide_telemetry::ingest::{FrameIngestor, FrameView};
use davide_telemetry::tsdb::{Resolution, SeriesId, TsDb};

/// Which halves of the loop are armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMode {
    /// Proactive dispatch on predictions only; telemetry is ignored and
    /// nothing throttles a node that overshoots.
    OpenLoop,
    /// Plain dispatch (no power admission test) plus reactive per-node
    /// capping from telemetry.
    ReactiveOnly,
    /// Both: predictive admission *corrected by telemetry* plus the
    /// reactive ladder as the safety net.
    ClosedLoop,
}

impl ControlMode {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            ControlMode::OpenLoop => "open-loop",
            ControlMode::ReactiveOnly => "reactive-only",
            ControlMode::ClosedLoop => "closed-loop",
        }
    }

    /// Admission inflates predicted job power by this fraction, so an
    /// underprediction must exceed the margin before the envelope is at
    /// risk. Open loop has nothing but the margin between a
    /// misprediction and an overcap, so it runs a thick one; the closed
    /// loop keeps only a sliver because the reactive ladder catches what
    /// admission gets wrong.
    pub fn safety_margin(self) -> f64 {
        if self == ControlMode::ClosedLoop {
            0.02
        } else {
            0.08
        }
    }
}

/// Hysteresis band of the per-node ladder controller, watts.
pub const BAND_W: f64 = 40.0;
/// Sustain time before a ladder move, seconds.
pub const SUSTAIN_S: f64 = 10.0;
/// Dispatcher anti-starvation bound on head wait, seconds.
pub const MAX_HEAD_WAIT_S: f64 = 4.0 * 3600.0;

/// Static configuration of a [`ControlPlane`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlaneConfig {
    /// Which actuators run.
    pub mode: ControlMode,
    /// Compute nodes under control.
    pub n_nodes: u32,
    /// Facility power envelope over time.
    pub cap: CapSchedule,
    /// Telemetry older than this is stale and the loop falls back to
    /// predictions for that node, seconds.
    pub telemetry_deadline_s: f64,
}

impl ControlPlaneConfig {
    /// D.A.V.I.D.E.-flavoured defaults for `n_nodes` nodes in `mode`
    /// under `cap`.
    pub fn davide(mode: ControlMode, n_nodes: u32, cap: CapSchedule) -> Self {
        ControlPlaneConfig {
            mode,
            n_nodes,
            cap,
            telemetry_deadline_s: 30.0,
        }
    }
}

/// A dispatch decision returned by [`ControlPlane::tick`].
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Started job.
    pub job: JobId,
    /// Node ids allocated to it.
    pub nodes: Vec<u32>,
    /// Per-node power the predictor expects it to draw.
    pub predicted_node_w: f64,
}

/// End-of-run summary of one control-plane session. The energy-truth
/// fields (`total_energy_j`, `overcap_energy_j`, `overcap_s`) stay zero
/// here: only a plant knows the ground-truth draw, so the `davide-sim`
/// harness fills them in. The rest comes from the loop itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlaneReport {
    /// Mode the loop ran in.
    pub mode: ControlMode,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// First submit to last completion, seconds.
    pub makespan_s: f64,
    /// Mean queue wait of completed jobs, seconds.
    pub mean_wait_s: f64,
    /// Completed jobs per hour of makespan.
    pub throughput_jobs_per_h: f64,
    /// Ground-truth energy drawn by the plant, joules.
    pub total_energy_j: f64,
    /// Ground-truth energy above the cap schedule, joules.
    pub overcap_energy_j: f64,
    /// Ground-truth time spent above the cap, seconds.
    pub overcap_s: f64,
    /// Reactive ladder step-downs commanded.
    pub steps_down: u64,
    /// Reactive ladder step-ups commanded.
    pub steps_up: u64,
    /// Online MAPE (%) of the job-power predictions, measured as jobs
    /// complete against telemetry.
    pub online_mape_pct: f64,
    /// Node-seconds a busy node ran without fresh telemetry.
    pub stale_node_s: f64,
    /// Telemetry samples the store accepted.
    pub samples_stored: u64,
    /// Telemetry samples rejected as stale (duplicated or reordered
    /// delivery behind the series tail).
    pub samples_stale_dropped: u64,
    /// Job-completion mean-power windows whose telemetry was truncated
    /// by retention (the window starts before the earliest point the
    /// store still holds for that node). With tiering enabled the
    /// compressed tiers hold far more history, so this stays 0 much
    /// longer.
    pub truncated_mean_windows: u64,
}

/// Externally observable per-node state, for harnesses and invariant
/// checkers that need to compare the loop's live view against ground
/// truth without reaching into private fields.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    /// Node id.
    pub node: u32,
    /// End time of the last ingested frame; `NEG_INFINITY` before any.
    pub last_seen_s: f64,
    /// Mean power of the last ingested frame, watts.
    pub measured_w: f64,
    /// Speed factor the node's ladder controller currently commands.
    pub speed: f64,
    /// Ladder level (0 = nominal).
    pub level: usize,
    /// Job currently placed here.
    pub job: Option<JobId>,
}

/// Control-loop instruments: per-tick counters, the predictor-error
/// distribution, frame age at ingest, and the causal-trace stamps for
/// the loop-side pipeline stages (ingest append → predictor update →
/// scheduler tick → DVFS publish). One instance per [`ControlPlane`].
/// All metric handles are pre-registered so the per-tick cost is pure
/// atomics.
struct ControlPlaneObs {
    hub: ObsHub,
    cap: CapObs,
    ticks: Counter,
    frames: Counter,
    cap_retargets: Counter,
    samples_stored: Counter,
    samples_stale: Counter,
    predictor_abs_err_w: Histogram,
    frame_age_ns: Histogram,
    queue_jobs: Gauge,
    running_jobs: Gauge,
    /// Trace ids ingested this tick, closed when the tick retires.
    pending: Vec<u64>,
}

impl ControlPlaneObs {
    /// Control-loop instruments registered in `hub`'s registry.
    fn new(hub: &ObsHub) -> Self {
        let r = &hub.registry;
        ControlPlaneObs {
            cap: CapObs::new(r),
            ticks: r.counter("ctl_ticks_total"),
            frames: r.counter("ctl_frames_total"),
            cap_retargets: r.counter("ctl_cap_retargets_total"),
            samples_stored: r.counter("ctl_samples_stored_total"),
            samples_stale: r.counter("ctl_samples_stale_total"),
            predictor_abs_err_w: r.histogram("ctl_predictor_abs_err_w"),
            frame_age_ns: r.histogram("ctl_frame_age_ns"),
            queue_jobs: r.gauge("ctl_queue_jobs"),
            running_jobs: r.gauge("ctl_running_jobs"),
            hub: hub.clone(),
            pending: Vec::new(),
        }
    }

    /// One telemetry frame reached the store (`stored` of its samples
    /// accepted) at `now`: queue it for the tick's trace stamps and
    /// record its age — the lag between the first sample's timestamp
    /// and the loop seeing it.
    fn on_frame(&mut self, now: f64, f: &FrameView<'_>, stored: usize) {
        self.pending.push(f.trace_id());
        self.frames.inc();
        self.samples_stored.add(stored as u64);
        self.samples_stale.add((f.watts.len() - stored) as u64);
        let age = now - f.t0_s;
        if age >= 0.0 {
            self.frame_age_ns.record((age * 1e9).round() as u64);
        }
    }

    /// Stamp `stage` on every frame ingested this tick, under one
    /// tracer lock.
    fn stamp_pending(&self, stage: Stage) {
        let now = self.hub.clock.now_s();
        self.hub
            .tracer
            .stamp_batch(stage, now, self.pending.iter().copied());
    }

    /// Retire the tick: close every trace it ingested, folding the
    /// stage lags into the hub's latency histograms.
    fn close_tick(&mut self) {
        self.hub.tracer.close_batch(self.pending.drain(..));
    }
}

/// Per-node live state as the control plane sees it.
struct NodeState {
    /// Interned series of this node's total-power topic, once seen.
    series: Option<SeriesId>,
    /// End time of the last ingested frame; `NEG_INFINITY` before any.
    last_seen_s: f64,
    /// Mean power of the last ingested frame, watts.
    measured_w: f64,
    /// Reactive DVFS ladder for this node.
    controller: LadderCapController,
    /// Job currently placed here.
    job: Option<JobId>,
}

struct RunningJob {
    job: Job,
    nodes: Vec<u32>,
    start_s: f64,
}

/// The management-node control loop: one instance owns the telemetry
/// subscription, the time-series store, the online predictor, and both
/// actuators. Drive it with [`tick`](Self::tick).
pub struct ControlPlane {
    cfg: ControlPlaneConfig,
    ingest: FrameIngestor,
    ctl: Client,
    db: TsDb,
    nodes: Vec<NodeState>,
    queue: Vec<Job>,
    running: HashMap<JobId, RunningJob>,
    predictor: OnlinePowerPredictor,
    policy: EasyBackfill,
    last_tick_s: Option<f64>,
    first_submit_s: f64,
    last_end_s: f64,
    completed: u64,
    wait_sum_s: f64,
    steps_down: u64,
    steps_up: u64,
    stale_node_s: f64,
    truncated_mean_windows: u64,
    obs: ControlPlaneObs,
}

impl ControlPlane {
    /// Connect to `broker`, subscribe to every node's total-power topic,
    /// and arm the loop over the telemetry store `db` (the caller builds
    /// it from a [`davide_telemetry::TsDbConfig`], handling any
    /// disk-tier I/O error itself). `predictor` is the batch-trained
    /// "EP" model wrapped with its online corrector; the loop's
    /// instruments register in `hub`, whose clock stamps them.
    pub fn new(
        broker: &Broker,
        cfg: ControlPlaneConfig,
        predictor: OnlinePowerPredictor,
        db: TsDb,
        hub: &ObsHub,
    ) -> Result<Self, BrokerError> {
        let ingest = FrameIngestor::subscribe(broker, "control-plane", &["davide/+/power/node"])?;
        let ctl = broker.connect("control-plane-actuator");
        let nodes = (0..cfg.n_nodes)
            .map(|_| NodeState {
                series: None,
                last_seen_s: f64::NEG_INFINITY,
                measured_w: 0.0,
                controller: LadderCapController::power8(
                    Watts(f64::INFINITY),
                    Watts(BAND_W),
                    SUSTAIN_S,
                ),
                job: None,
            })
            .collect();
        let policy = match cfg.mode {
            ControlMode::ReactiveOnly => EasyBackfill::new().with_aging(MAX_HEAD_WAIT_S),
            _ => EasyBackfill::power_aware().with_aging(MAX_HEAD_WAIT_S),
        };
        Ok(ControlPlane {
            cfg,
            ingest,
            ctl,
            db,
            nodes,
            queue: Vec::new(),
            running: HashMap::new(),
            predictor,
            policy,
            last_tick_s: None,
            first_submit_s: f64::INFINITY,
            last_end_s: 0.0,
            completed: 0,
            wait_sum_s: 0.0,
            steps_down: 0,
            steps_up: 0,
            stale_node_s: 0.0,
            truncated_mean_windows: 0,
            obs: ControlPlaneObs::new(hub),
        })
    }

    /// The configuration the loop was armed with.
    pub fn config(&self) -> &ControlPlaneConfig {
        &self.cfg
    }

    /// Snapshot the per-node live view (one entry per node, in id
    /// order).
    pub fn snapshot(&self) -> Vec<NodeSnapshot> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeSnapshot {
                node: i as u32,
                last_seen_s: n.last_seen_s,
                measured_w: n.measured_w,
                speed: n.controller.speed(),
                level: n.controller.level(),
                job: n.job,
            })
            .collect()
    }

    /// Best current estimate of `node`'s draw at `now`: fresh telemetry
    /// within the deadline, otherwise the prediction for whatever runs
    /// there (the stale-telemetry fallback). `None` for unknown ids.
    pub fn node_estimate(&self, node: u32, now: f64) -> Option<f64> {
        self.nodes
            .get(node as usize)
            .map(|n| self.node_power_estimate(n, now))
    }

    /// The loop's current per-node power prediction for a running job,
    /// or `None` if the job is not running.
    pub fn predicted_power(&self, id: JobId) -> Option<f64> {
        self.running
            .get(&id)
            .map(|rj| self.predictor.predict(&rj.job))
    }

    /// Queue a job; its power prediction is (re)made by the loop's own
    /// predictor at submission time.
    pub fn submit(&mut self, mut job: Job) {
        job.predicted_power_w = self.predictor.predict(&job);
        self.first_submit_s = self.first_submit_s.min(job.submit_s);
        self.queue.push(job);
    }

    /// Jobs still waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently placed on nodes.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Read access to the loop's telemetry store.
    pub fn db(&self) -> &TsDb {
        &self.db
    }

    /// Replace the cap schedule at runtime. A federated deployment
    /// grants each rack a share of the global budget and rebalances it
    /// live; both the admission envelope and the reactive ladder read
    /// the schedule through [`CapSchedule::cap_at`] every tick, so the
    /// swap takes effect on the next control period.
    pub fn set_cap_schedule(&mut self, cap: CapSchedule) {
        self.cfg.cap = cap;
        self.obs.cap_retargets.inc();
    }

    /// The cap the loop is enforcing at `now`, if any.
    pub fn cap_at(&self, now: f64) -> Option<f64> {
        self.cfg.cap.cap_at(now)
    }

    /// One control period at time `now`: ingest telemetry, absorb
    /// `completions` (job id, end time) into the predictor, run the
    /// reactive ladder, then dispatch. Returns the placements started
    /// this tick; speed commands go out on `davide/node{NN}/ctl/speed`.
    pub fn tick(&mut self, now: f64, completions: &[(JobId, f64)]) -> Vec<Placement> {
        let dt = now - self.last_tick_s.unwrap_or(now);
        self.last_tick_s = Some(now);

        self.ingest_telemetry();
        for &(id, end_s) in completions {
            self.complete(id, end_s);
        }
        self.obs.ticks.inc();
        // Completions just trained the predictor on this tick's
        // telemetry: the frames' next causal hop.
        self.obs.stamp_pending(Stage::PredictorUpdate);
        self.account_staleness(dt);
        // The actuation pass (reactive ladder + dispatcher) begins.
        self.obs.stamp_pending(Stage::SchedulerTick);
        if self.cfg.mode != ControlMode::OpenLoop {
            self.reactive_capping(now, dt);
        }
        let placements = self.dispatch(now);
        self.obs.queue_jobs.set(self.queue.len() as f64);
        self.obs.running_jobs.set(self.running.len() as f64);
        self.obs.close_tick();
        placements
    }

    /// Build the report for everything observed so far. Energy-truth
    /// fields are zero until a plant (the `davide-sim` harness) fills
    /// them.
    pub fn report(&self) -> ControlPlaneReport {
        let makespan = if self.first_submit_s.is_finite() {
            (self.last_end_s - self.first_submit_s).max(0.0)
        } else {
            0.0
        };
        ControlPlaneReport {
            mode: self.cfg.mode,
            jobs_completed: self.completed,
            makespan_s: makespan,
            mean_wait_s: self.wait_sum_s / self.completed.max(1) as f64,
            throughput_jobs_per_h: if makespan > 0.0 {
                self.completed as f64 / (makespan / 3600.0)
            } else {
                0.0
            },
            total_energy_j: 0.0,
            overcap_energy_j: 0.0,
            overcap_s: 0.0,
            steps_down: self.steps_down,
            steps_up: self.steps_up,
            online_mape_pct: self.predictor.online_mape(),
            stale_node_s: self.stale_node_s,
            samples_stored: self.ingest.stats().samples,
            samples_stale_dropped: self.ingest.stats().stale_dropped,
            truncated_mean_windows: self.truncated_mean_windows,
        }
    }

    /// Drain the MQTT subscription into the store and the per-node live
    /// view. Frames on any topic but a known node's
    /// `davide/node{NN}/power/node` are not routed and count nowhere.
    /// The drain's frames are stamped as ingested together, at the
    /// drain instant.
    fn ingest_telemetry(&mut self) {
        let now = self.obs.hub.clock.now_s();
        self.ingest.drain_with(|f| {
            let Some((node_id, "power/node")) = parse_node_topic(f.topic) else {
                return None;
            };
            let node = self.nodes.get_mut(node_id as usize)?;
            // The node's series, unless this frame came in under another
            // spelling of its topic.
            let id = match node.series {
                Some(id) if self.db.name(id) == Some(f.topic) => id,
                _ => self.db.resolve(f.topic),
            };
            let stored = self.db.append_frame_id(id, f.t0_s, f.dt_s, f.watts);
            self.obs.on_frame(now, &f, stored);
            // An entirely stale frame (a duplicate or a badly delayed
            // one) must not move the live view backwards.
            if stored > 0 {
                node.series = Some(id);
                node.last_seen_s = node.last_seen_s.max(f.t0_s + f.dt_s * f.watts.len() as f64);
                node.measured_w = f.mean_w();
            }
            Some(stored)
        });
        self.obs.stamp_pending(Stage::IngestAppend);
        // Seal/demote outside the append path; a no-op for untiered
        // stores.
        self.db.compact();
    }

    /// Retire a finished job: free its nodes and feed the telemetry-
    /// measured mean node power back into the predictor (closed loop) or
    /// just into the error ledger (other modes).
    fn complete(&mut self, id: JobId, end_s: f64) {
        let Some(rj) = self.running.remove(&id) else {
            return;
        };
        let mut mean_sum = 0.0;
        let mut measured_nodes = 0u32;
        for &n in &rj.nodes {
            let node = &mut self.nodes[n as usize];
            node.job = None;
            if let Some(series) = node.series {
                let (mean, coverage) =
                    self.db
                        .mean_id_with_coverage(series, Resolution::Raw, rj.start_s, end_s);
                if !coverage.is_complete() {
                    // Retention truncated the window: the mean is over
                    // partial history. Still usable, but accounted.
                    self.truncated_mean_windows += 1;
                }
                if let Some(m) = mean {
                    mean_sum += m;
                    measured_nodes += 1;
                }
            }
        }
        let observed_node_w = if measured_nodes > 0 {
            mean_sum / measured_nodes as f64
        } else {
            0.0
        };
        if measured_nodes > 0 {
            let predicted = self.predictor.predict(&rj.job);
            self.obs
                .predictor_abs_err_w
                .record((predicted - observed_node_w).abs().round() as u64);
        }
        if self.cfg.mode == ControlMode::ClosedLoop {
            self.predictor.observe(&rj.job, observed_node_w);
        } else {
            self.predictor.record_error_only(&rj.job, observed_node_w);
        }
        self.completed += 1;
        self.wait_sum_s += rj.start_s - rj.job.submit_s;
        self.last_end_s = self.last_end_s.max(end_s);
    }

    /// Count node-seconds where a busy node has no fresh telemetry.
    fn account_staleness(&mut self, dt: f64) {
        let now = self.last_tick_s.unwrap_or(0.0);
        for node in &self.nodes {
            if node.job.is_some() && now - node.last_seen_s > self.cfg.telemetry_deadline_s {
                self.stale_node_s += dt;
            }
        }
    }

    /// Best current estimate of one node's draw: fresh telemetry if it
    /// is within the deadline, otherwise the prediction for whatever
    /// runs there (the stale-telemetry fallback).
    fn node_power_estimate(&self, node: &NodeState, now: f64) -> f64 {
        if now - node.last_seen_s <= self.cfg.telemetry_deadline_s {
            return node.measured_w;
        }
        match node.job.and_then(|id| self.running.get(&id)) {
            Some(rj) => self.predictor.predict(&rj.job),
            None => IDLE_NODE_POWER_W,
        }
    }

    /// The reactive half: split the instantaneous envelope across busy
    /// nodes and let each node's ladder controller chase its share.
    fn reactive_capping(&mut self, now: f64, dt: f64) {
        let Some(cap_w) = self.cfg.cap.cap_at(now) else {
            return;
        };
        if dt <= 0.0 {
            return;
        }
        let busy = self.nodes.iter().filter(|n| n.job.is_some()).count();
        if busy == 0 {
            return;
        }
        let free = self.nodes.len() - busy;
        let budget =
            ((cap_w - free as f64 * IDLE_NODE_POWER_W) / busy as f64).max(IDLE_NODE_POWER_W);
        let mut commands = Vec::new();
        for i in 0..self.nodes.len() {
            if self.nodes[i].job.is_none() {
                continue;
            }
            // A stale node steers on its prediction, not a frozen sample.
            let node_w = self.node_power_estimate(&self.nodes[i], now);
            let node = &mut self.nodes[i];
            // Retarget only on material change so sustain timers keep
            // their state across ticks.
            if (node.controller.cap.0 - budget).abs() > 1.0 {
                node.controller.set_cap(Watts(budget));
            }
            match node
                .controller
                .observe_instrumented(Watts(node_w), Seconds(dt), &self.obs.cap)
            {
                -1 => {
                    self.steps_down += 1;
                    commands.push((i, node.controller.speed()));
                }
                1 => {
                    self.steps_up += 1;
                    commands.push((i, node.controller.speed()));
                }
                _ => {}
            }
        }
        let actuated = !commands.is_empty();
        for (i, speed) in commands {
            // Retained so a gateway that reconnects sees the live limit.
            let _ = self.ctl.publish(
                &speed_topic(i as u32),
                format!("{speed:.4}").into_bytes().into(),
                QoS::AtMostOnce,
                true,
            );
        }
        if actuated {
            // The commands are derived from the cluster view this
            // tick's frames built: their final causal hop.
            self.obs.stamp_pending(Stage::DvfsPublish);
        }
    }

    /// The proactive half: offer the queue to the policy against the
    /// live cluster view and place whatever it admits.
    fn dispatch(&mut self, now: f64) -> Vec<Placement> {
        let free_nodes: Vec<u32> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.job.is_none())
            .map(|(i, _)| i as u32)
            .collect();
        // The map iterates in per-process random order; sort so float
        // accumulation downstream (and thus every admission decision)
        // is reproducible run to run.
        let mut running: Vec<RunningSummary> = self
            .running
            .values()
            .map(|rj| {
                let live_w: f64 = rj
                    .nodes
                    .iter()
                    .map(|&n| self.node_power_estimate(&self.nodes[n as usize], now))
                    .sum();
                RunningSummary {
                    id: rj.job.id,
                    nodes: rj.job.nodes,
                    walltime_end_s: rj.start_s + rj.job.walltime_req_s,
                    predicted_power_w: live_w,
                }
            })
            .collect();
        running.sort_unstable_by_key(|r| r.id);
        let view = ClusterView {
            now,
            free_nodes: free_nodes.len() as u32,
            total_nodes: self.cfg.n_nodes,
            running,
            power_cap_w: self.cfg.cap.cap_at(now),
        };
        // Admission sees margin-inflated predictions; the placements
        // report the raw ones.
        let margin = 1.0 + self.cfg.mode.safety_margin();
        let mut selection: Vec<Job> = Vec::with_capacity(self.queue.len());
        for job in &self.queue {
            if job.submit_s > now {
                break;
            }
            let mut j = job.clone();
            j.predicted_power_w = self.predictor.predict(job) * margin;
            selection.push(j);
        }
        let picks = self.policy.select(&selection, &view);

        let mut free_iter = free_nodes.into_iter();
        let mut placements = Vec::with_capacity(picks.len());
        for id in picks {
            let idx = self
                .queue
                .iter()
                .position(|j| j.id == id)
                .expect("policy picked a queued job");
            let mut job = self.queue.remove(idx);
            let assigned: Vec<u32> = free_iter.by_ref().take(job.nodes as usize).collect();
            assert_eq!(assigned.len(), job.nodes as usize, "policy respects free");
            job.predicted_power_w = self.predictor.predict(&job);
            for &n in &assigned {
                self.nodes[n as usize].job = Some(job.id);
            }
            placements.push(Placement {
                job: job.id,
                nodes: assigned.clone(),
                predicted_node_w: job.predicted_power_w,
            });
            self.running.insert(
                job.id,
                RunningJob {
                    job,
                    nodes: assigned,
                    start_s: now,
                },
            );
        }
        placements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_predictor::PowerPredictor;
    use crate::workload::{WorkloadConfig, WorkloadGenerator};
    use davide_predictor::ModelKind;
    use davide_telemetry::gateway::{power_topic, SampleFrame};

    fn trained_predictor() -> OnlinePowerPredictor {
        let mut gen = WorkloadGenerator::new(WorkloadConfig::default(), 5);
        let history = gen.trace(800);
        let base = PowerPredictor::from_kind(ModelKind::linreg(), &history, 24);
        OnlinePowerPredictor::new(base, 0.995, 1000.0)
    }

    /// A loop on `broker` over a fresh store, instrumented on a manual
    /// clock.
    fn control_plane(broker: &Broker, cfg: ControlPlaneConfig) -> ControlPlane {
        let (hub, _) = ObsHub::manual();
        ControlPlane::new(broker, cfg, trained_predictor(), TsDb::new(), &hub).unwrap()
    }

    fn frame(w: f64, t0: f64, n: usize) -> SampleFrame {
        SampleFrame {
            t0_s: t0,
            dt_s: 1.0,
            watts: vec![w as f32; n],
        }
    }

    #[test]
    fn telemetry_folds_into_live_view_and_store() {
        let broker = Broker::new(4096);
        let cfg =
            ControlPlaneConfig::davide(ControlMode::ClosedLoop, 4, CapSchedule::constant(10_000.0));
        let mut cp = control_plane(&broker, cfg);
        let gw = broker.connect("gw");
        gw.publish(
            &power_topic(2, "node"),
            frame(1500.0, 0.0, 5).encode(),
            QoS::AtMostOnce,
            false,
        )
        .unwrap();
        cp.tick(5.0, &[]);
        assert!((cp.nodes[2].measured_w - 1500.0).abs() < 1.0);
        assert_eq!(cp.nodes[2].last_seen_s, 5.0);
        let id = cp.db().lookup(&power_topic(2, "node")).unwrap();
        assert_eq!(cp.db().count_id(id), 5);
        // Other nodes untouched.
        assert!(cp.nodes[0].series.is_none());
    }

    #[test]
    fn hostile_frames_leave_the_live_view_and_counters_alone() {
        let broker = Broker::new(4096);
        let cfg =
            ControlPlaneConfig::davide(ControlMode::ClosedLoop, 4, CapSchedule::constant(10_000.0));
        let mut cp = control_plane(&broker, cfg);
        let gw = broker.connect("gw");
        gw.publish(
            &power_topic(1, "node"),
            frame(1500.0, 0.0, 5).encode(),
            QoS::AtMostOnce,
            false,
        )
        .unwrap();
        cp.tick(5.0, &[]);
        let (view, before) = (cp.snapshot(), cp.report());
        assert_eq!(before.samples_stored, 5);

        let hostile = [
            (power_topic(2, "node"), b"not a frame".to_vec().into()),
            (
                "davide/nodeX/power/node".to_string(),
                frame(1800.0, 5.0, 5).encode(),
            ),
            (power_topic(4, "node"), frame(1800.0, 5.0, 5).encode()),
            (power_topic(1, "node"), frame(1800.0, 5.0, 0).encode()),
        ];
        for (topic, payload) in hostile {
            gw.publish(&topic, payload, QoS::AtMostOnce, false).unwrap();
        }
        cp.tick(6.0, &[]);
        assert_eq!(cp.snapshot(), view);
        let after = cp.report();
        assert_eq!(
            (after.samples_stored, after.samples_stale_dropped),
            (before.samples_stored, before.samples_stale_dropped)
        );
        assert_eq!(cp.ingest.stats().malformed, 1);
        assert_eq!(cp.db().keys(), vec![power_topic(1, "node")]);
        registry_matches_ingest(&cp);

        // Replay the first frame: its samples at t = 0..3 fall behind
        // the series tail and are stale; the one at t = 4 equals the
        // tail, and the store keeps nondecreasing timestamps. The
        // registry still agrees, now at a non-zero stale count.
        gw.publish(
            &power_topic(1, "node"),
            frame(1500.0, 0.0, 5).encode(),
            QoS::AtMostOnce,
            false,
        )
        .unwrap();
        cp.tick(7.0, &[]);
        assert_eq!(cp.ingest.stats().stale_dropped, 4);
        registry_matches_ingest(&cp);
    }

    /// The loop's registry counts the frames, stored samples and stale
    /// samples its ingestor reports.
    fn registry_matches_ingest(cp: &ControlPlane) {
        let counter = |name| {
            cp.obs
                .hub
                .registry
                .find_counter(name)
                .expect("registered")
                .get()
        };
        let stats = cp.ingest.stats();
        assert_eq!(
            (
                counter("ctl_frames_total"),
                counter("ctl_samples_stored_total"),
                counter("ctl_samples_stale_total"),
            ),
            (stats.frames, stats.samples, stats.stale_dropped)
        );
    }

    #[test]
    fn stale_telemetry_falls_back_to_prediction() {
        let broker = Broker::new(4096);
        let mut cfg =
            ControlPlaneConfig::davide(ControlMode::ClosedLoop, 2, CapSchedule::constant(8_000.0));
        cfg.telemetry_deadline_s = 20.0;
        let mut cp = control_plane(&broker, cfg);
        let mut gen = WorkloadGenerator::new(WorkloadConfig::default(), 9);
        let mut job = gen.trace(1).remove(0);
        job.submit_s = 0.0;
        job.nodes = 1;
        let jid = job.id;
        cp.submit(job);
        let placements = cp.tick(0.0, &[]);
        assert_eq!(placements.len(), 1, "empty machine admits the job");
        let node = placements[0].nodes[0] as usize;
        let predicted = placements[0].predicted_node_w;

        // Fresh frame: the live view uses the measurement.
        let gw = broker.connect("gw");
        gw.publish(
            &power_topic(node as u32, "node"),
            frame(999.0, 0.0, 5).encode(),
            QoS::AtMostOnce,
            false,
        )
        .unwrap();
        cp.tick(10.0, &[]);
        assert!((cp.node_power_estimate(&cp.nodes[node], 10.0) - 999.0).abs() < 1.0);
        assert_eq!(cp.report().stale_node_s, 0.0);

        // Silence past the deadline: estimate falls back to the
        // prediction and stale seconds accrue.
        cp.tick(60.0, &[]);
        let est = cp.node_power_estimate(&cp.nodes[node], 60.0);
        assert!(
            (est - predicted).abs() < 1e-9,
            "stale node reports prediction: {est} vs {predicted}"
        );
        assert!(cp.report().stale_node_s > 0.0);
        let _ = jid;
    }

    #[test]
    fn reactive_ladder_steps_down_and_publishes_command() {
        let broker = Broker::new(4096);
        let cfg = ControlPlaneConfig::davide(
            ControlMode::ReactiveOnly,
            1,
            CapSchedule::constant(1_000.0),
        );
        let mut cp = control_plane(&broker, cfg);
        let mut watch = broker.connect("watch");
        watch
            .subscribe("davide/+/ctl/speed", QoS::AtMostOnce)
            .unwrap();

        let mut gen = WorkloadGenerator::new(WorkloadConfig::default(), 9);
        let mut job = gen.trace(1).remove(0);
        job.submit_s = 0.0;
        job.nodes = 1;
        cp.submit(job);
        cp.tick(0.0, &[]);
        assert_eq!(cp.running_len(), 1);

        // Sustained 2 kW against a 1 kW budget must step the node down.
        let gw = broker.connect("gw");
        for k in 1..=6u32 {
            let t = k as f64 * 5.0;
            gw.publish(
                &power_topic(0, "node"),
                frame(2000.0, t - 5.0, 5).encode(),
                QoS::AtMostOnce,
                false,
            )
            .unwrap();
            cp.tick(t, &[]);
        }
        let r = cp.report();
        assert!(r.steps_down >= 1, "sustained overcap throttles: {r:?}");
        let msgs = watch.drain();
        assert!(
            msgs.iter().any(|m| *m.topic == *speed_topic(0)),
            "speed command published"
        );
    }

    #[test]
    fn open_loop_never_throttles() {
        let broker = Broker::new(4096);
        let cfg =
            ControlPlaneConfig::davide(ControlMode::OpenLoop, 1, CapSchedule::constant(500.0));
        let mut cp = control_plane(&broker, cfg);
        let mut gen = WorkloadGenerator::new(WorkloadConfig::default(), 9);
        let mut job = gen.trace(1).remove(0);
        job.submit_s = 0.0;
        job.nodes = 1;
        cp.submit(job);
        cp.tick(0.0, &[]);
        let gw = broker.connect("gw");
        for k in 1..=10u32 {
            let t = k as f64 * 5.0;
            gw.publish(
                &power_topic(0, "node"),
                frame(3000.0, t - 5.0, 5).encode(),
                QoS::AtMostOnce,
                false,
            )
            .unwrap();
            cp.tick(t, &[]);
        }
        let r = cp.report();
        assert_eq!(r.steps_down, 0);
        assert_eq!(r.steps_up, 0);
    }

    #[test]
    fn completion_feeds_online_predictor() {
        let broker = Broker::new(4096);
        let cfg =
            ControlPlaneConfig::davide(ControlMode::ClosedLoop, 2, CapSchedule::constant(10_000.0));
        let mut cp = control_plane(&broker, cfg);
        let mut gen = WorkloadGenerator::new(WorkloadConfig::default(), 9);
        let mut job = gen.trace(1).remove(0);
        job.submit_s = 0.0;
        job.nodes = 1;
        let jid = job.id;
        cp.submit(job);
        let p = cp.tick(0.0, &[]);
        let node = p[0].nodes[0];
        let gw = broker.connect("gw");
        for k in 1..=4u32 {
            let t = k as f64 * 5.0;
            gw.publish(
                &power_topic(node, "node"),
                frame(1700.0, t - 5.0, 5).encode(),
                QoS::AtMostOnce,
                false,
            )
            .unwrap();
            cp.tick(t, &[]);
        }
        assert_eq!(cp.predictor.updates(), 0);
        cp.tick(25.0, &[(jid, 25.0)]);
        assert_eq!(cp.predictor.updates(), 1, "measured power trains the EP");
        assert_eq!(cp.running_len(), 0);
        assert_eq!(cp.report().jobs_completed, 1);
    }
}
