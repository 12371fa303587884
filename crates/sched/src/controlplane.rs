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
//! [`replay()`] drives the whole loop against a synthetic plant for the
//! E22 experiment: open-loop (predict only), reactive-only, and the full
//! closed loop over the same trace and cap schedule.

use std::collections::HashMap;

use crate::cap::CapSchedule;
use crate::job::{Job, JobId};
use crate::policy::{ClusterView, EasyBackfill, Policy, RunningSummary};
use crate::power_predictor::OnlinePowerPredictor;
use davide_core::capping::{CapObs, LadderCapController};
use davide_core::units::{Seconds, Watts};
use davide_mqtt::{Broker, BrokerError, Client, QoS};
use davide_obs::{Counter, Gauge, Histogram, ObsHub, Stage};
use davide_telemetry::ingest::{DecodedFrame, FrameIngestor};
use davide_telemetry::tsdb::{Resolution, SeriesId, TsDb};

pub use replay::{replay, replay_instrumented, DropModel, ReplayConfig, ReplayObs};

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
}

/// Static configuration of a [`ControlPlane`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlaneConfig {
    /// Which actuators run.
    pub mode: ControlMode,
    /// Compute nodes under control.
    pub n_nodes: u32,
    /// Facility power envelope over time.
    pub cap: CapSchedule,
    /// Idle draw per free node, watts.
    pub idle_node_power_w: f64,
    /// Admission inflates predicted job power by this fraction, so an
    /// underprediction must exceed the margin before the envelope is at
    /// risk.
    pub safety_margin: f64,
    /// Telemetry older than this is stale and the loop falls back to
    /// predictions for that node, seconds.
    pub telemetry_deadline_s: f64,
    /// Hysteresis band of the per-node ladder controller, watts.
    pub band_w: f64,
    /// Sustain time before a ladder move, seconds.
    pub sustain_s: f64,
    /// Dispatcher anti-starvation bound on head wait, seconds.
    pub max_head_wait_s: f64,
}

impl ControlPlaneConfig {
    /// D.A.V.I.D.E.-flavoured defaults for `n_nodes` nodes in `mode`
    /// under `cap`.
    ///
    /// The admission margin depends on the mode: open loop has nothing
    /// but the margin between a misprediction and an overcap, so it runs
    /// a thick one; the closed loop keeps only a sliver because the
    /// reactive ladder catches what admission gets wrong.
    pub fn davide(mode: ControlMode, n_nodes: u32, cap: CapSchedule) -> Self {
        ControlPlaneConfig {
            mode,
            n_nodes,
            cap,
            idle_node_power_w: 350.0,
            safety_margin: if mode == ControlMode::ClosedLoop {
                0.02
            } else {
                0.08
            },
            telemetry_deadline_s: 30.0,
            band_w: 40.0,
            sustain_s: 10.0,
            max_head_wait_s: 4.0 * 3600.0,
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
/// fields (`total_energy_j`, `overcap_energy_j`, `overcap_s`) are filled
/// by the [`replay()`] plant, which knows the ground-truth draw; the rest
/// comes from the loop itself.
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
/// scheduler tick → DVFS publish). One instance per [`ControlPlane`];
/// install with [`ControlPlane::set_obs`]. All metric handles are
/// pre-registered so the per-tick cost is pure atomics.
pub struct ControlPlaneObs {
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
    pub fn new(hub: &ObsHub) -> Self {
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
    /// accepted): stamp the ingest stage and record its age — the lag
    /// between the first sample's timestamp and the loop seeing it.
    fn on_frame(&mut self, f: &DecodedFrame, stored: usize) {
        let now = self.hub.clock.now_s();
        self.hub.tracer.stamp(f.trace_id, Stage::IngestAppend, now);
        self.pending.push(f.trace_id);
        self.frames.inc();
        self.samples_stored.add(stored as u64);
        self.samples_stale
            .add((f.frame.watts.len() - stored) as u64);
        let age = now - f.frame.t0_s;
        if age >= 0.0 {
            self.frame_age_ns.record((age * 1e9).round() as u64);
        }
    }

    /// Stamp `stage` on every frame ingested this tick.
    fn stamp_pending(&self, stage: Stage) {
        let now = self.hub.clock.now_s();
        for &id in &self.pending {
            self.hub.tracer.stamp(id, stage, now);
        }
    }

    /// Retire the tick: close every trace it ingested, folding the
    /// stage lags into the hub's latency histograms.
    fn close_tick(&mut self) {
        for id in self.pending.drain(..) {
            self.hub.tracer.close(id);
        }
    }
}

impl std::fmt::Debug for ControlPlaneObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlaneObs")
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
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
    samples_stored: u64,
    samples_stale_dropped: u64,
    truncated_mean_windows: u64,
    obs: Option<ControlPlaneObs>,
}

impl ControlPlane {
    /// Connect to `broker`, subscribe to every node's total-power topic,
    /// and arm the loop. `predictor` is the batch-trained "EP" model
    /// wrapped with its online corrector.
    pub fn new(
        broker: &Broker,
        cfg: ControlPlaneConfig,
        predictor: OnlinePowerPredictor,
    ) -> Result<Self, BrokerError> {
        Self::with_db(broker, cfg, predictor, TsDb::new())
    }

    /// [`ControlPlane::new`] with an injected telemetry store — the hook
    /// for running the loop over a tiered [`TsDb`] (the caller builds it
    /// from a [`davide_telemetry::TsDbConfig`], handling any disk-tier
    /// I/O error itself).
    pub fn with_db(
        broker: &Broker,
        cfg: ControlPlaneConfig,
        predictor: OnlinePowerPredictor,
        db: TsDb,
    ) -> Result<Self, BrokerError> {
        let ingest = FrameIngestor::subscribe(broker, "control-plane", &["davide/+/power/node"])?;
        let ctl = broker.connect("control-plane-actuator");
        let band = Watts(cfg.band_w);
        let nodes = (0..cfg.n_nodes)
            .map(|_| NodeState {
                series: None,
                last_seen_s: f64::NEG_INFINITY,
                measured_w: 0.0,
                controller: LadderCapController::power8(Watts(f64::INFINITY), band, cfg.sustain_s),
                job: None,
            })
            .collect();
        let policy = match cfg.mode {
            ControlMode::ReactiveOnly => EasyBackfill::new().with_aging(cfg.max_head_wait_s),
            _ => EasyBackfill::power_aware().with_aging(cfg.max_head_wait_s),
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
            samples_stored: 0,
            samples_stale_dropped: 0,
            truncated_mean_windows: 0,
            obs: None,
        })
    }

    /// The configuration the loop was armed with.
    pub fn config(&self) -> &ControlPlaneConfig {
        &self.cfg
    }

    /// Arm the loop-side instruments; uninstrumented loops pay nothing.
    pub fn set_obs(&mut self, obs: ControlPlaneObs) {
        self.obs = Some(obs);
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
        if let Some(obs) = &self.obs {
            obs.cap_retargets.inc();
        }
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
        if let Some(obs) = &self.obs {
            obs.ticks.inc();
            // Completions just trained the predictor on this tick's
            // telemetry: the frames' next causal hop.
            obs.stamp_pending(Stage::PredictorUpdate);
        }
        self.account_staleness(dt);
        if let Some(obs) = &self.obs {
            // The actuation pass (reactive ladder + dispatcher) begins.
            obs.stamp_pending(Stage::SchedulerTick);
        }
        if self.cfg.mode != ControlMode::OpenLoop {
            self.reactive_capping(now, dt);
        }
        let placements = self.dispatch(now);
        if let Some(obs) = &mut self.obs {
            obs.queue_jobs.set(self.queue.len() as f64);
            obs.running_jobs.set(self.running.len() as f64);
            obs.close_tick();
        }
        placements
    }

    /// Build the report for everything observed so far. Energy-truth
    /// fields are zero until a plant (the [`replay()`] harness) fills
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
            samples_stored: self.samples_stored,
            samples_stale_dropped: self.samples_stale_dropped,
            truncated_mean_windows: self.truncated_mean_windows,
        }
    }

    /// Drain the MQTT subscription into the store and the per-node live
    /// view.
    fn ingest_telemetry(&mut self) {
        for f in self.ingest.drain_frames() {
            let Some(node_id) = parse_power_topic(&f.topic) else {
                continue;
            };
            if node_id >= self.cfg.n_nodes {
                continue;
            }
            let id = self.db.resolve(&f.topic);
            let stored = self
                .db
                .append_frame_id(id, f.frame.t0_s, f.frame.dt_s, &f.frame.watts);
            self.samples_stored += stored as u64;
            self.samples_stale_dropped += (f.frame.watts.len() - stored) as u64;
            if let Some(obs) = &mut self.obs {
                obs.on_frame(&f, stored);
            }
            if stored == 0 {
                // Entirely stale (a duplicate or badly delayed frame):
                // the live view must not move backwards on it.
                continue;
            }
            let node = &mut self.nodes[node_id as usize];
            node.series = Some(id);
            node.last_seen_s = node
                .last_seen_s
                .max(f.frame.t0_s + f.frame.dt_s * f.frame.watts.len() as f64);
            node.measured_w = f.frame.mean_w();
        }
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
        if let Some(obs) = &self.obs {
            if measured_nodes > 0 {
                let predicted = self.predictor.predict(&rj.job);
                obs.predictor_abs_err_w
                    .record((predicted - observed_node_w).abs().round() as u64);
            }
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
            None => self.cfg.idle_node_power_w,
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
        let budget = ((cap_w - free as f64 * self.cfg.idle_node_power_w) / busy as f64)
            .max(self.cfg.idle_node_power_w);
        let mut commands = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if node.job.is_none() {
                continue;
            }
            let node_w = if now - node.last_seen_s <= self.cfg.telemetry_deadline_s {
                node.measured_w
            } else {
                // Stale fallback: steer on the prediction rather than a
                // frozen sample.
                match node.job.and_then(|id| self.running.get(&id)) {
                    Some(rj) => self.predictor.predict(&rj.job),
                    None => self.cfg.idle_node_power_w,
                }
            };
            // Retarget only on material change so sustain timers keep
            // their state across ticks.
            if (node.controller.cap.0 - budget).abs() > 1.0 {
                node.controller.set_cap(Watts(budget));
            }
            let action = match &self.obs {
                Some(obs) => {
                    node.controller
                        .observe_instrumented(Watts(node_w), Seconds(dt), &obs.cap)
                }
                None => node.controller.observe(Watts(node_w), Seconds(dt)),
            };
            match action {
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
            if let Some(obs) = &self.obs {
                // The commands are derived from the cluster view this
                // tick's frames built: their final causal hop.
                obs.stamp_pending(Stage::DvfsPublish);
            }
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
            idle_node_power_w: self.cfg.idle_node_power_w,
        };
        // Admission sees margin-inflated predictions; the placements
        // report the raw ones.
        let margin = 1.0 + self.cfg.safety_margin;
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

/// Topic a node's speed command goes out on.
pub fn speed_topic(node_id: u32) -> String {
    format!("davide/node{node_id:02}/ctl/speed")
}

/// Extract the node id from `davide/node{NN}/power/node`; `None` for
/// anything else (other channels are not subscribed, but a shared broker
/// may still route them here via wildcard overlap).
fn parse_power_topic(topic: &str) -> Option<u32> {
    let mut parts = topic.split('/');
    if parts.next() != Some("davide") {
        return None;
    }
    let node = parts.next()?.strip_prefix("node")?;
    if parts.next() != Some("power") || parts.next() != Some("node") || parts.next().is_some() {
        return None;
    }
    node.parse().ok()
}

/// Synthetic-plant replay of the full loop for E22: the plant renders
/// each node's true power (with drift the batch predictor has not seen),
/// publishes gateway frames over a real in-process broker, applies the
/// loop's DVFS commands, and accounts ground-truth energy against the
/// cap schedule.
pub mod replay {
    use super::*;
    use crate::power_predictor::PowerPredictor;
    use crate::workload::{WorkloadConfig, WorkloadGenerator};
    use davide_core::rng::Rng;
    use davide_mqtt::BrokerObs;
    use davide_obs::{ManualClock, OBS_FILTER};
    use davide_predictor::ModelKind;
    use davide_telemetry::gateway::{power_topic, SampleFrame, FRAME_MAGIC};
    use davide_telemetry::selfmon::SelfMonitor;
    use std::sync::Arc;

    /// Telemetry-loss injection: every node goes dark on a fixed cycle.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum DropModel {
        /// All frames delivered.
        None,
        /// Each node publishes nothing for `blackout_s` out of every
        /// `period_s`, phase-staggered by node id.
        Blackout {
            /// Cycle length, seconds.
            period_s: f64,
            /// Dark time per cycle, seconds.
            blackout_s: f64,
        },
    }

    /// Plant and trace parameters for one replay.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ReplayConfig {
        /// Loop configuration (mode, cap schedule, margins).
        pub control: ControlPlaneConfig,
        /// Jobs in the replayed trace.
        pub n_jobs: usize,
        /// Completed jobs used to batch-train the predictor first.
        pub n_history: usize,
        /// Control period, seconds.
        pub tick_s: f64,
        /// Gateway sample spacing inside a frame, seconds.
        pub sample_dt_s: f64,
        /// Workload shape.
        pub workload: WorkloadConfig,
        /// Batch model family for the base predictor.
        pub model: ModelKind,
        /// Per-app plant drift: true power is multiplied by the factor
        /// for the job's app — the regime change the batch model has
        /// not seen and the online corrector must learn.
        pub app_drift: [f64; 4],
        /// Multiplicative telemetry noise (1σ, relative).
        pub noise: f64,
        /// Telemetry-loss model.
        pub drop: DropModel,
        /// Fraction of gateway power frames the broker's fault hook
        /// drops in transit (0 = lossless). Unlike [`DropModel`], these
        /// frames *reach* the broker first, so the causal tracer
        /// accounts them as lost at the publish stage.
        pub p_frame_drop: f64,
        /// RNG seed for plant noise.
        pub seed: u64,
    }

    impl ReplayConfig {
        /// E22 defaults: `n_nodes` nodes under `cap` in `mode`, with a
        /// ±12 % per-app drift between history and plant.
        pub fn e22(mode: ControlMode, n_nodes: u32, cap: CapSchedule) -> Self {
            ReplayConfig {
                control: ControlPlaneConfig::davide(mode, n_nodes, cap),
                n_jobs: 160,
                n_history: 1200,
                tick_s: 5.0,
                sample_dt_s: 1.0,
                workload: WorkloadConfig {
                    max_nodes: n_nodes.min(8),
                    mean_interarrival_s: 90.0,
                    ..WorkloadConfig::default()
                },
                model: ModelKind::linreg(),
                app_drift: [1.12, 0.88, 1.10, 0.90],
                noise: 0.02,
                drop: DropModel::None,
                p_frame_drop: 0.0,
                seed: 2022,
            }
        }
    }

    /// A job on the plant: ground truth the control plane cannot see.
    struct PlantJob {
        nodes: Vec<u32>,
        /// True mean per-node power at full speed, after drift.
        node_w: f64,
        /// Work left, in nominal-speed seconds.
        remaining_s: f64,
        id: JobId,
    }

    /// Observability wiring for an instrumented replay: the shared hub
    /// whose clock the plant drives from virtual time, plus the
    /// self-telemetry store the registry is republished into over MQTT
    /// (`davide/obs/#` → ordinary ingest) during the run.
    pub struct ReplayObs {
        /// Registry + tracer + clock shared by every instrument site.
        pub hub: ObsHub,
        clock: Arc<ManualClock>,
        /// The stack's own metrics, round-tripped through the broker
        /// and the frame codec like any node's power telemetry.
        pub self_db: TsDb,
        /// Obs samples the self-telemetry loop ingested.
        pub self_samples: u64,
    }

    impl ReplayObs {
        /// Fresh wiring over a manual clock at t = 0.
        pub fn new() -> Self {
            let (hub, clock) = ObsHub::manual();
            ReplayObs {
                hub,
                clock,
                self_db: TsDb::new(),
                self_samples: 0,
            }
        }
    }

    impl Default for ReplayObs {
        fn default() -> Self {
            Self::new()
        }
    }

    /// Run one full replay and return the report with ground-truth
    /// energy accounting filled in.
    pub fn replay(cfg: &ReplayConfig) -> ControlPlaneReport {
        replay_instrumented(cfg, None)
    }

    /// [`replay()`] with the self-instrumentation stack armed: broker and
    /// control-plane instruments register in `obs.hub`, every stamp
    /// reads the plant's virtual clock (so same seed ⇒ bit-identical
    /// metrics), and the registry is periodically republished over the
    /// replay broker and re-ingested into [`ReplayObs::self_db`].
    pub fn replay_instrumented(
        cfg: &ReplayConfig,
        mut obs: Option<&mut ReplayObs>,
    ) -> ControlPlaneReport {
        let mut gen = WorkloadGenerator::new(cfg.workload.clone(), cfg.seed);
        let history = gen.trace(cfg.n_history);
        let mut trace = gen.trace(cfg.n_jobs);
        // The trace continues after the history; rebase arrivals to 0.
        let t_base = trace.first().map(|j| j.submit_s).unwrap_or(0.0);
        for j in &mut trace {
            j.submit_s -= t_base;
        }

        let base = PowerPredictor::from_kind(cfg.model, &history, cfg.workload.users as usize);
        let predictor = OnlinePowerPredictor::new(base, 0.995, 1000.0);

        let broker = Broker::new(1 << 16);
        if cfg.p_frame_drop > 0.0 {
            // Seeded in-transit loss on the gateway → broker hop, so
            // frames vanish *after* the publish-stage trace stamp.
            let p = cfg.p_frame_drop;
            let drop_rng = std::sync::Mutex::new(Rng::seed_from(cfg.seed ^ 0xd1b5_4a32));
            broker.set_fault_hook(Some(Box::new(move |topic: &str| {
                if topic.starts_with("davide/node")
                    && topic.contains("/power/")
                    && drop_rng.lock().unwrap().chance(p)
                {
                    davide_mqtt::PublishFate::Drop
                } else {
                    davide_mqtt::PublishFate::Deliver
                }
            })));
        }
        let mut cp = ControlPlane::new(&broker, cfg.control.clone(), predictor)
            .expect("subscribe on fresh broker");
        let mut selfmon = None;
        let mut obs_ingest = None;
        if let Some(o) = obs.as_mut() {
            broker.set_obs(Some(BrokerObs::new(
                &o.hub,
                Some(&FRAME_MAGIC.to_le_bytes()),
            )));
            cp.set_obs(ControlPlaneObs::new(&o.hub));
            // Self-telemetry loop: registry → MQTT → ingest, every 12
            // control periods.
            selfmon = Some(
                SelfMonitor::connect(&broker, "obs-selfmon", 12.0 * cfg.tick_s)
                    .expect("selfmon connect"),
            );
            obs_ingest = Some(
                FrameIngestor::subscribe(&broker, "obs-ingest", &[OBS_FILTER])
                    .expect("subscribe obs"),
            );
        }
        let mut ctl_watch = broker.connect("plant-gateways");
        ctl_watch
            .subscribe("davide/+/ctl/speed", QoS::AtMostOnce)
            .expect("subscribe ctl");
        let gateway = broker.connect("plant-publisher");

        let n_nodes = cfg.control.n_nodes;
        let idle_w = cfg.control.idle_node_power_w;
        let mut speeds = vec![1.0f64; n_nodes as usize];
        let mut node_draw_w = vec![idle_w; n_nodes as usize];
        let mut plant: Vec<PlantJob> = Vec::new();
        let drift = |job: &Job| cfg.app_drift[job.app as usize];
        let mut rng = Rng::seed_from(cfg.seed ^ 0x9e37_79b9);
        let by_id: HashMap<JobId, Job> = trace.iter().map(|j| (j.id, j.clone())).collect();

        let mut next_submit = 0usize;
        let mut total_energy_j = 0.0;
        let mut overcap_energy_j = 0.0;
        let mut overcap_s = 0.0;
        let mut t = 0.0f64;
        let samples = (cfg.tick_s / cfg.sample_dt_s).round().max(1.0) as usize;

        loop {
            // 0. Every obs stamp this iteration reads the plant's
            //    virtual clock.
            if let Some(o) = obs.as_mut() {
                o.clock.set(t);
            }

            // 1. Gateways publish the window [t − tick, t) they just
            //    measured, unless their blackout window swallows it.
            if t > 0.0 {
                let t0 = t - cfg.tick_s;
                for node in 0..n_nodes {
                    if in_blackout(cfg.drop, node, t0) {
                        continue;
                    }
                    let w = node_draw_w[node as usize];
                    let watts: Vec<f32> = (0..samples)
                        .map(|_| {
                            let n = 1.0 + cfg.noise * gauss(&mut rng);
                            (w * n).max(0.0) as f32
                        })
                        .collect();
                    let frame = SampleFrame {
                        t0_s: t0,
                        dt_s: cfg.sample_dt_s,
                        watts,
                    };
                    let _ = gateway.publish(
                        &power_topic(node, "node"),
                        frame.encode(),
                        QoS::AtMostOnce,
                        false,
                    );
                }
            }

            // 2. Arrivals up to now.
            while next_submit < trace.len() && trace[next_submit].submit_s <= t {
                cp.submit(trace[next_submit].clone());
                next_submit += 1;
            }

            // 3. Plant-side completions: progress accrued last tick.
            let mut completions = Vec::new();
            plant.retain(|pj| {
                if pj.remaining_s <= 1e-9 {
                    completions.push((pj.id, t));
                    for &n in &pj.nodes {
                        speeds[n as usize] = 1.0;
                    }
                    false
                } else {
                    true
                }
            });

            // 4. Control period.
            let placements = cp.tick(t, &completions);
            for p in &placements {
                let job = &by_id[&p.job];
                plant.push(PlantJob {
                    nodes: p.nodes.clone(),
                    node_w: job.true_power_w * drift(job),
                    remaining_s: job.true_runtime_s,
                    id: p.job,
                });
            }

            // 4b. Pump the stack's own metrics through the broker and
            //     drain them back like any other telemetry.
            if let Some(o) = obs.as_mut() {
                if let Some(mon) = selfmon.as_mut() {
                    mon.pump(t, &o.hub.registry);
                }
                if let Some(ing) = obs_ingest.as_mut() {
                    o.self_samples += ing.drain_into(&mut o.self_db) as u64;
                }
            }

            // 5. Apply DVFS commands the loop just published.
            for msg in ctl_watch.drain() {
                if let (Some(node), Ok(speed)) = (
                    parse_speed_topic(&msg.topic),
                    std::str::from_utf8(&msg.payload)
                        .unwrap_or("")
                        .parse::<f64>(),
                ) {
                    if node < n_nodes {
                        speeds[node as usize] = speed.clamp(0.1, 1.0);
                    }
                }
            }

            if next_submit >= trace.len() && plant.is_empty() && cp.queue_len() == 0 {
                break;
            }

            // 6. Advance the plant over [t, t + tick): dynamic draw
            //    scales with commanded speed, progress too.
            for w in node_draw_w.iter_mut() {
                *w = idle_w;
            }
            for pj in plant.iter_mut() {
                let speed = pj
                    .nodes
                    .iter()
                    .map(|&n| speeds[n as usize])
                    .fold(1.0, f64::min);
                for &n in &pj.nodes {
                    node_draw_w[n as usize] = idle_w + speed * (pj.node_w - idle_w).max(0.0);
                }
                pj.remaining_s -= cfg.tick_s * speed;
            }
            let sys_w: f64 = node_draw_w.iter().sum();
            total_energy_j += sys_w * cfg.tick_s;
            if let Some(cap) = cfg.control.cap.cap_at(t) {
                if sys_w > cap {
                    overcap_s += cfg.tick_s;
                    overcap_energy_j += (sys_w - cap) * cfg.tick_s;
                }
            }

            t += cfg.tick_s;
            assert!(
                t < 120.0 * 86_400.0,
                "replay failed to converge: queue={} plant={}",
                cp.queue_len(),
                plant.len()
            );
        }

        if let Some(o) = obs.as_mut() {
            // Whatever is still resident in the tracer never completed
            // its causal chain: account it as lost at its last stage.
            o.hub.tracer.flush();
        }
        let mut report = cp.report();
        report.total_energy_j = total_energy_j;
        report.overcap_energy_j = overcap_energy_j;
        report.overcap_s = overcap_s;
        report
    }

    fn in_blackout(drop: DropModel, node: u32, t: f64) -> bool {
        match drop {
            DropModel::None => false,
            DropModel::Blackout {
                period_s,
                blackout_s,
            } => {
                let phase = (t + node as f64 * 17.0).rem_euclid(period_s);
                phase < blackout_s
            }
        }
    }

    fn parse_speed_topic(topic: &str) -> Option<u32> {
        let mut parts = topic.split('/');
        if parts.next() != Some("davide") {
            return None;
        }
        let node = parts.next()?.strip_prefix("node")?;
        if parts.next() != Some("ctl") || parts.next() != Some("speed") || parts.next().is_some() {
            return None;
        }
        node.parse().ok()
    }

    /// Standard normal via Box–Muller on the plant RNG.
    fn gauss(rng: &mut Rng) -> f64 {
        let u1 = rng.uniform().max(1e-12);
        let u2 = rng.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::replay::{replay, DropModel, ReplayConfig};
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

    fn frame(w: f64, t0: f64, n: usize) -> SampleFrame {
        SampleFrame {
            t0_s: t0,
            dt_s: 1.0,
            watts: vec![w as f32; n],
        }
    }

    #[test]
    fn topic_parsers() {
        assert_eq!(parse_power_topic("davide/node07/power/node"), Some(7));
        assert_eq!(parse_power_topic("davide/node12/power/gpu0"), None);
        assert_eq!(parse_power_topic("davide/rack1/power/node"), None);
        assert_eq!(parse_power_topic("other/node01/power/node"), None);
        assert_eq!(speed_topic(3), "davide/node03/ctl/speed");
    }

    #[test]
    fn telemetry_folds_into_live_view_and_store() {
        let broker = Broker::new(4096);
        let cfg =
            ControlPlaneConfig::davide(ControlMode::ClosedLoop, 4, CapSchedule::constant(10_000.0));
        let mut cp = ControlPlane::new(&broker, cfg, trained_predictor()).unwrap();
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
    fn stale_telemetry_falls_back_to_prediction() {
        let broker = Broker::new(4096);
        let mut cfg =
            ControlPlaneConfig::davide(ControlMode::ClosedLoop, 2, CapSchedule::constant(8_000.0));
        cfg.telemetry_deadline_s = 20.0;
        let mut cp = ControlPlane::new(&broker, cfg, trained_predictor()).unwrap();
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
        let mut cfg = ControlPlaneConfig::davide(
            ControlMode::ReactiveOnly,
            1,
            CapSchedule::constant(1_000.0),
        );
        cfg.sustain_s = 10.0;
        let mut cp = ControlPlane::new(&broker, cfg, trained_predictor()).unwrap();
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
            msgs.iter().any(|m| m.topic == speed_topic(0)),
            "speed command published"
        );
    }

    #[test]
    fn open_loop_never_throttles() {
        let broker = Broker::new(4096);
        let cfg =
            ControlPlaneConfig::davide(ControlMode::OpenLoop, 1, CapSchedule::constant(500.0));
        let mut cp = ControlPlane::new(&broker, cfg, trained_predictor()).unwrap();
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
        let mut cp = ControlPlane::new(&broker, cfg, trained_predictor()).unwrap();
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

    #[test]
    fn replay_smoke_all_modes_complete_the_trace() {
        for mode in [
            ControlMode::OpenLoop,
            ControlMode::ReactiveOnly,
            ControlMode::ClosedLoop,
        ] {
            let mut cfg = ReplayConfig::e22(mode, 8, CapSchedule::constant(12_000.0));
            cfg.n_jobs = 25;
            cfg.n_history = 400;
            let r = replay(&cfg);
            assert_eq!(r.jobs_completed, 25, "{mode:?}: {r:?}");
            assert!(r.total_energy_j > 0.0);
            assert!(r.online_mape_pct > 0.0);
        }
    }

    #[test]
    fn instrumented_replay_is_bit_identical_and_populates_metrics() {
        use super::replay::{replay_instrumented, ReplayObs};
        let mk_cfg = || {
            let mut cfg =
                ReplayConfig::e22(ControlMode::ClosedLoop, 8, CapSchedule::constant(9_000.0));
            cfg.n_jobs = 15;
            cfg.n_history = 400;
            cfg
        };
        let run = || {
            let mut obs = ReplayObs::new();
            let r = replay_instrumented(&mk_cfg(), Some(&mut obs));
            (r, obs)
        };
        let (r1, o1) = run();
        let (r2, o2) = run();
        assert_eq!(r1, r2, "same seed ⇒ same report");
        assert_eq!(
            o1.hub.registry.render_text(),
            o2.hub.registry.render_text(),
            "same seed ⇒ bit-identical metrics exposition"
        );

        let reg = &o1.hub.registry;
        let counter = |n: &str| reg.find_counter(n).unwrap().get();
        assert!(counter("ctl_ticks_total") > 0);
        assert!(counter("ctl_frames_total") > 0);
        assert!(
            counter("obs_trace_completed_total") > 0,
            "frames complete the causal chain"
        );
        let e2e = reg.find_histogram("obs_trace_e2e_ns").unwrap().snapshot();
        assert!(e2e.count > 0, "control-loop latency is measured");
        assert!(
            reg.find_histogram("ctl_predictor_abs_err_w")
                .unwrap()
                .snapshot()
                .count
                > 0,
            "completions feed the predictor-error distribution"
        );

        // The self-telemetry loop round-tripped the registry through
        // the broker into a TsDb, like any node's power.
        assert!(o1.self_samples > 0);
        assert!(o1
            .self_db
            .lookup(&davide_obs::obs_topic("ctl_ticks_total"))
            .is_some());

        // Instrumentation must not change a single control decision.
        let plain = replay(&mk_cfg());
        assert_eq!(plain, r1, "instrumented and plain replays agree");
    }

    #[test]
    fn replay_blackout_accrues_stale_seconds_but_still_completes() {
        let mut cfg =
            ReplayConfig::e22(ControlMode::ClosedLoop, 8, CapSchedule::constant(12_000.0));
        cfg.n_jobs = 20;
        cfg.n_history = 400;
        cfg.drop = DropModel::Blackout {
            period_s: 300.0,
            blackout_s: 120.0,
        };
        let r = replay(&cfg);
        assert_eq!(r.jobs_completed, 20);
        assert!(
            r.stale_node_s > 0.0,
            "blackouts must surface as stale node-seconds: {r:?}"
        );
    }
}
