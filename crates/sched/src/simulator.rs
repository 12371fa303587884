//! Event-driven scheduling simulator.
//!
//! Drives a job trace through a dispatch [`Policy`]
//! on a homogeneous cluster, with optional *reactive* capping: when the
//! actual system power exceeds the cap (prediction error, no prediction,
//! or no proactive policy), every running node is DVFS-throttled to a
//! common speed that brings the system back under the envelope — which
//! stretches running jobs, the §III-A2 "performance loss and SLA
//! violation" that proactive dispatch avoids.

use crate::cap::CapSchedule;
use crate::job::{Job, JobId, JobState};
use crate::placement::{NodePool, PlacementStrategy};
use crate::policy::{ClusterView, Policy, RunningSummary, IDLE_NODE_POWER_W};
use davide_core::interconnect::FatTree;
use std::collections::HashMap;

/// Throttle floor of reactive capping (DVFS ladder bottom).
pub const MIN_SPEED: f64 = 0.35;

/// Simulator configuration. Nodes idle at [`IDLE_NODE_POWER_W`], and
/// reactive capping throttles no lower than [`MIN_SPEED`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Compute nodes available.
    pub total_nodes: u32,
    /// Ignored: the simulator uses [`IDLE_NODE_POWER_W`]. Kept, at that
    /// value, only because the repository benchmark (`perfbench/`)
    /// still reads it from [`SimOutcome::config`].
    #[deprecated(note = "ignored: nodes idle at `IDLE_NODE_POWER_W`")]
    pub idle_node_power_w: f64,
    /// Facility power envelope over time (constant, day/night pair or
    /// piecewise profile).
    pub cap: CapSchedule,
    /// Throttle running jobs when actual power exceeds the cap.
    pub reactive_capping: bool,
    /// Physical node placement on the fat-tree; `None` skips placement
    /// tracking (jobs are just counted).
    pub placement: Option<PlacementStrategy>,
}

impl SimConfig {
    /// The D.A.V.I.D.E. pilot: 45 nodes.
    #[allow(deprecated)]
    pub fn davide() -> Self {
        SimConfig {
            total_nodes: 45,
            idle_node_power_w: IDLE_NODE_POWER_W,
            cap: CapSchedule::Unlimited,
            reactive_capping: false,
            placement: None,
        }
    }

    /// Track physical placement with the given strategy.
    pub fn with_placement(mut self, strategy: PlacementStrategy) -> Self {
        self.placement = Some(strategy);
        self
    }

    /// Arm a power envelope.
    pub fn with_cap_schedule(mut self, cap: CapSchedule, reactive: bool) -> Self {
        self.cap = cap;
        self.reactive_capping = reactive;
        self
    }
}

#[derive(Debug, Clone)]
struct Running {
    job: Job,
    remaining_s: f64,
    walltime_end_s: f64,
    placed_on: Option<Vec<u32>>,
}

/// A constant-power segment of the system timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSegment {
    /// Segment start, seconds.
    pub t0: f64,
    /// Segment end, seconds.
    pub t1: f64,
    /// System power, watts.
    pub watts: f64,
    /// Common node speed during the segment (1 = nominal).
    pub speed: f64,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Policy that ran.
    pub policy: &'static str,
    /// Configuration used.
    pub config: SimConfig,
    /// Completed jobs with their final timings.
    pub completed: Vec<Job>,
    /// Step-function power timeline.
    pub timeline: Vec<PowerSegment>,
    /// Energy attributed to each job (node share, joules).
    pub job_energy_j: HashMap<JobId, f64>,
    /// Physical allocation per job (when placement is tracked).
    pub placements: HashMap<JobId, Vec<u32>>,
    /// Allocation diameter (max switch hops) per placed job.
    pub diameters: HashMap<JobId, u32>,
    /// Wall-clock end of the last job.
    pub makespan_s: f64,
}

/// Run `trace` (submission-ordered) under `policy`.
///
/// ```
/// use davide_sched::{
///     simulate, CapSchedule, EasyBackfill, SimConfig, WorkloadConfig, WorkloadGenerator,
/// };
///
/// let trace = WorkloadGenerator::new(WorkloadConfig::default(), 1).trace(20);
/// let out = simulate(
///     &trace,
///     &mut EasyBackfill::power_aware(),
///     SimConfig::davide().with_cap_schedule(CapSchedule::constant(70_000.0), true),
/// );
/// assert_eq!(out.completed.len(), 20);
/// assert_eq!(out.overcap_time_fraction(), 0.0);
/// ```
pub fn simulate(trace: &[Job], policy: &mut dyn Policy, config: SimConfig) -> SimOutcome {
    for j in trace {
        assert!(
            j.nodes <= config.total_nodes,
            "job {} wants {} nodes on a {}-node machine",
            j.id,
            j.nodes,
            config.total_nodes
        );
    }
    let mut pending: Vec<Job> = trace.to_vec();
    pending.reverse(); // pop from the back in submission order
    let mut queue: Vec<Job> = Vec::new();
    let mut running: Vec<Running> = Vec::new();
    let mut completed: Vec<Job> = Vec::new();
    let mut timeline: Vec<PowerSegment> = Vec::new();
    let mut job_energy: HashMap<JobId, f64> = HashMap::new();
    let mut placements: HashMap<JobId, Vec<u32>> = HashMap::new();
    let mut diameters: HashMap<JobId, u32> = HashMap::new();
    let mut pool = config
        .placement
        .map(|_| NodePool::new(FatTree::davide(config.total_nodes)));

    let mut now = 0.0_f64;
    let mut speed = 1.0_f64;
    let base_idle = config.total_nodes as f64 * IDLE_NODE_POWER_W;

    let system_power = |running: &[Running], speed: f64| -> f64 {
        let extra: f64 = running
            .iter()
            .map(|r| r.job.nodes as f64 * (r.job.true_power_w - IDLE_NODE_POWER_W))
            .sum();
        base_idle + speed * extra.max(0.0)
    };

    let pick_speed = |running: &[Running], cfg: &SimConfig, now: f64| -> f64 {
        let extra: f64 = running
            .iter()
            .map(|r| r.job.nodes as f64 * (r.job.true_power_w - IDLE_NODE_POWER_W))
            .sum::<f64>()
            .max(0.0);
        match (cfg.cap.cap_at(now), cfg.reactive_capping) {
            (Some(cap), true) if extra > 0.0 && base_idle + extra > cap => {
                ((cap - base_idle) / extra).clamp(MIN_SPEED, 1.0)
            }
            _ => 1.0,
        }
    };

    loop {
        // Next event time: earliest arrival or earliest completion.
        let next_arrival = pending.last().map(|j| j.submit_s);
        let next_finish = running
            .iter()
            .map(|r| now + r.remaining_s / speed)
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.min(t)))
            });
        // Day/night cap boundaries wake the scheduler so queued jobs can
        // start when the envelope relaxes (and throttling can re-engage
        // when it tightens).
        let next_boundary = if !queue.is_empty() || !running.is_empty() {
            config.cap.next_cap_boundary(now)
        } else {
            None
        };
        let t = [next_arrival, next_finish, next_boundary]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if t.is_infinite() {
            break;
        }
        let t = t.max(now);

        // Advance running work and account energy over [now, t).
        let dt = t - now;
        if dt > 0.0 {
            let watts = system_power(&running, speed);
            timeline.push(PowerSegment {
                t0: now,
                t1: t,
                watts,
                speed,
            });
            for r in &mut running {
                r.remaining_s -= dt * speed;
                let node_power = r.job.nodes as f64
                    * (IDLE_NODE_POWER_W
                        + speed * (r.job.true_power_w - IDLE_NODE_POWER_W).max(0.0));
                *job_energy.entry(r.job.id).or_insert(0.0) += node_power * dt;
            }
        }
        now = t;

        // Completions.
        let mut i = 0;
        while i < running.len() {
            if running[i].remaining_s <= 1e-6 {
                let mut r = running.swap_remove(i);
                r.job.end_s = Some(now);
                r.job.state = JobState::Completed;
                if let (Some(pool), Some(placed)) = (pool.as_mut(), r.placed_on.take()) {
                    pool.release(&placed);
                }
                completed.push(r.job);
            } else {
                i += 1;
            }
        }

        // Arrivals at time `now`.
        while pending.last().is_some_and(|j| j.submit_s <= now + 1e-9) {
            queue.push(pending.pop().expect("checked non-empty"));
        }

        // Dispatch.
        let used: u32 = running.iter().map(|r| r.job.nodes).sum();
        let view = ClusterView {
            now,
            free_nodes: config.total_nodes - used,
            total_nodes: config.total_nodes,
            running: running
                .iter()
                .map(|r| RunningSummary {
                    id: r.job.id,
                    nodes: r.job.nodes,
                    walltime_end_s: r.walltime_end_s,
                    predicted_power_w: r.job.predicted_total_power(),
                })
                .collect(),
            power_cap_w: config.cap.cap_at(now),
        };
        let starts = policy.select(&queue, &view);
        if !starts.is_empty() {
            let mut free = view.free_nodes;
            for id in starts {
                let pos = queue
                    .iter()
                    .position(|j| j.id == id)
                    .expect("policy returned a queued job id");
                let mut job = queue.remove(pos);
                assert!(job.nodes <= free, "policy over-allocated nodes");
                free -= job.nodes;
                job.state = JobState::Running;
                job.start_s = Some(now);
                let placed_on = match (pool.as_mut(), config.placement) {
                    (Some(pool), Some(strategy)) => {
                        let alloc = pool
                            .allocate(job.nodes, strategy)
                            .expect("policy guaranteed enough free nodes");
                        diameters.insert(job.id, pool.diameter(&alloc));
                        placements.insert(job.id, alloc.clone());
                        Some(alloc)
                    }
                    _ => None,
                };
                running.push(Running {
                    walltime_end_s: now + job.walltime_req_s,
                    remaining_s: job.true_runtime_s,
                    placed_on,
                    job,
                });
            }
        }

        // Reactive throttle for the next segment.
        speed = pick_speed(&running, &config, now);
    }

    completed.sort_by_key(|j| j.id);
    let makespan = completed.iter().filter_map(|j| j.end_s).fold(0.0, f64::max);
    SimOutcome {
        policy: policy.name(),
        config,
        completed,
        timeline,
        job_energy_j: job_energy,
        placements,
        diameters,
        makespan_s: makespan,
    }
}

impl SimOutcome {
    /// Mean allocation diameter over placed multi-node jobs.
    pub fn mean_allocation_diameter(&self) -> Option<f64> {
        let multi: Vec<u32> = self
            .completed
            .iter()
            .filter(|j| j.nodes > 1)
            .filter_map(|j| self.diameters.get(&j.id).copied())
            .collect();
        if multi.is_empty() {
            return None;
        }
        Some(multi.iter().map(|&d| d as f64).sum::<f64>() / multi.len() as f64)
    }
}

impl SimOutcome {
    /// Total energy of the run, joules (system power integrated).
    pub fn total_energy_j(&self) -> f64 {
        self.timeline.iter().map(|s| s.watts * (s.t1 - s.t0)).sum()
    }

    /// Fraction of time the system exceeded the (possibly time-varying)
    /// cap.
    pub fn overcap_time_fraction(&self) -> f64 {
        if self.config.cap.is_unlimited() {
            return 0.0;
        }
        let total: f64 = self.timeline.iter().map(|s| s.t1 - s.t0).sum();
        if total == 0.0 {
            return 0.0;
        }
        let over: f64 = self
            .timeline
            .iter()
            .filter(|s| {
                self.config
                    .cap
                    .cap_at(s.t0)
                    .is_some_and(|cap| s.watts > cap + 1e-6)
            })
            .map(|s| s.t1 - s.t0)
            .sum();
        over / total
    }

    /// Energy above the cap, joules (what the facility breaker sees).
    pub fn overcap_energy_j(&self) -> f64 {
        if self.config.cap.is_unlimited() {
            return 0.0;
        }
        self.timeline
            .iter()
            .map(|s| {
                let cap = self.config.cap.cap_at(s.t0).unwrap_or(f64::INFINITY);
                ((s.watts - cap).max(0.0)) * (s.t1 - s.t0)
            })
            .sum()
    }

    /// Peak system power, watts.
    pub fn peak_power_w(&self) -> f64 {
        self.timeline.iter().map(|s| s.watts).fold(0.0, f64::max)
    }

    /// Node-utilisation over the makespan.
    pub fn utilisation(&self) -> f64 {
        if self.makespan_s == 0.0 {
            return 0.0;
        }
        let node_seconds: f64 = self.completed.iter().filter_map(|j| j.node_seconds()).sum();
        node_seconds / (self.makespan_s * self.config.total_nodes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EasyBackfill, Fcfs};
    use davide_apps::workload::AppKind;

    fn job(id: JobId, nodes: u32, submit: f64, walltime: f64, runtime: f64, power: f64) -> Job {
        Job::new(
            id,
            1,
            AppKind::Bqcd,
            nodes,
            submit,
            walltime,
            runtime,
            power,
        )
    }

    fn small_config() -> SimConfig {
        SimConfig {
            total_nodes: 8,
            ..SimConfig::davide()
        }
    }

    fn constant_cap(cap_w: f64, reactive: bool) -> SimConfig {
        small_config().with_cap_schedule(CapSchedule::constant(cap_w), reactive)
    }

    #[test]
    fn single_job_runs_exactly() {
        let trace = vec![job(1, 4, 10.0, 200.0, 100.0, 1500.0)];
        let out = simulate(&trace, &mut Fcfs, small_config());
        assert_eq!(out.completed.len(), 1);
        let j = &out.completed[0];
        assert_eq!(j.start_s, Some(10.0));
        assert!((j.end_s.unwrap() - 110.0).abs() < 1e-6);
        assert_eq!(j.state, JobState::Completed);
        assert!((out.makespan_s - 110.0).abs() < 1e-6);
    }

    #[test]
    fn jobs_queue_when_nodes_busy() {
        let trace = vec![
            job(1, 8, 0.0, 200.0, 100.0, 1500.0),
            job(2, 8, 1.0, 200.0, 100.0, 1500.0),
        ];
        let out = simulate(&trace, &mut Fcfs, small_config());
        let j2 = &out.completed[1];
        assert!((j2.start_s.unwrap() - 100.0).abs() < 1e-6, "waits for 1");
        assert!((j2.wait_s().unwrap() - 99.0).abs() < 1e-6);
    }

    #[test]
    fn backfill_beats_fcfs_on_makespan() {
        // Job 1 holds 6 of 8 nodes; the head of the queue (job 2) needs
        // all 8, so 2 nodes sit free until job 1 ends. A short narrow
        // job slips into that hole under EASY but not under strict FCFS.
        let trace = vec![
            job(1, 6, 0.0, 1000.0, 1000.0, 1500.0),
            job(2, 8, 1.0, 2000.0, 1000.0, 1500.0),
            job(3, 2, 2.0, 400.0, 400.0, 1500.0),
        ];
        let fcfs = simulate(&trace, &mut Fcfs, small_config());
        let easy = simulate(&trace, &mut EasyBackfill::new(), small_config());
        let wait_fcfs = fcfs.completed[2].wait_s().unwrap();
        let wait_easy = easy.completed[2].wait_s().unwrap();
        assert!(
            wait_easy < wait_fcfs,
            "backfill cuts job 3's wait: {wait_easy} vs {wait_fcfs}"
        );
    }

    #[test]
    fn energy_accounting_is_conservative() {
        let trace = vec![
            job(1, 4, 0.0, 200.0, 100.0, 1500.0),
            job(2, 2, 5.0, 300.0, 150.0, 1200.0),
        ];
        let out = simulate(&trace, &mut Fcfs, small_config());
        let per_job: f64 = out.job_energy_j.values().sum();
        let total = out.total_energy_j();
        assert!(
            per_job <= total + 1e-6,
            "job energy {per_job} cannot exceed system energy {total}"
        );
        // Job 1: 4 nodes × 1500 W × 100 s.
        let e1 = out.job_energy_j[&1];
        assert!((e1 - 4.0 * 1500.0 * 100.0).abs() < 1.0, "e1={e1}");
    }

    #[test]
    fn reactive_capping_stretches_jobs_but_respects_cap() {
        // 8 nodes at 2000 W = 16 kW actual; cap at 12 kW forces
        // throttling. base idle = 2.8 kW, extra = 8×1650 = 13.2 kW;
        // speed = (12000−2800)/13200 ≈ 0.697.
        let trace = vec![job(1, 8, 0.0, 2000.0, 700.0, 2000.0)];
        let capped = constant_cap(12_000.0, true);
        let out = simulate(&trace, &mut Fcfs, capped);
        let j = &out.completed[0];
        let runtime = j.end_s.unwrap() - j.start_s.unwrap();
        assert!(
            runtime > 700.0 * 1.4,
            "throttled job must stretch: {runtime}"
        );
        assert_eq!(out.overcap_time_fraction(), 0.0, "cap held");
        assert!(out.peak_power_w() <= 12_000.0 + 1e-6);
    }

    #[test]
    fn without_reactive_capping_cap_is_violated() {
        let trace = vec![job(1, 8, 0.0, 2000.0, 700.0, 2000.0)];
        let capped = constant_cap(12_000.0, false);
        let out = simulate(&trace, &mut Fcfs, capped);
        assert!(out.overcap_time_fraction() > 0.5);
        assert!(out.overcap_energy_j() > 0.0);
        // Job runs at full speed though.
        let j = &out.completed[0];
        assert!((j.end_s.unwrap() - j.start_s.unwrap() - 700.0).abs() < 1e-6);
    }

    #[test]
    fn timeline_is_contiguous_and_positive() {
        let trace = vec![
            job(1, 4, 0.0, 200.0, 100.0, 1500.0),
            job(2, 4, 50.0, 200.0, 100.0, 1500.0),
        ];
        let out = simulate(&trace, &mut Fcfs, small_config());
        for w in out.timeline.windows(2) {
            assert!((w[0].t1 - w[1].t0).abs() < 1e-9, "no gaps");
        }
        for s in &out.timeline {
            assert!(s.watts >= 8.0 * 350.0 - 1e-9, "at least idle floor");
            assert!(s.t1 > s.t0);
        }
    }

    #[test]
    fn utilisation_bounded() {
        let trace = vec![job(1, 8, 0.0, 100.0, 100.0, 1500.0)];
        let out = simulate(&trace, &mut Fcfs, small_config());
        let u = out.utilisation();
        assert!(
            (0.99..=1.0).contains(&u),
            "full machine for the whole run: {u}"
        );
    }

    #[test]
    fn day_night_cap_schedule() {
        let cfg =
            small_config().with_cap_schedule(CapSchedule::day_night(10_000.0, 20_000.0), true);
        // 09:00 → day cap; 23:00 → night cap.
        assert_eq!(cfg.cap.cap_at(9.0 * 3600.0), Some(10_000.0));
        assert_eq!(cfg.cap.cap_at(23.0 * 3600.0), Some(20_000.0));
        assert_eq!(cfg.cap.cap_at(86_400.0 + 3.0 * 3600.0), Some(20_000.0));
        // Boundaries are the next 08:00/20:00 after t.
        assert_eq!(cfg.cap.next_cap_boundary(0.0), Some(8.0 * 3600.0));
        assert_eq!(cfg.cap.next_cap_boundary(9.0 * 3600.0), Some(20.0 * 3600.0));
        assert_eq!(
            cfg.cap.next_cap_boundary(21.0 * 3600.0),
            Some(86_400.0 + 8.0 * 3600.0)
        );
        // Static config has no boundaries.
        assert_eq!(constant_cap(1.0, true).cap.next_cap_boundary(0.0), None);
    }

    #[test]
    fn night_relaxation_speeds_up_throttled_job() {
        // A hot job submitted at 08:00 under a tight day cap runs
        // throttled until 20:00, then at full speed. The same job under
        // an all-day tight cap finishes later.
        let submit = 8.0 * 3600.0;
        let hot = |id| job(id, 8, submit, 80_000.0, 50_000.0, 2000.0);
        let day_night = simulate(
            &[hot(1)],
            &mut Fcfs,
            small_config().with_cap_schedule(CapSchedule::day_night(12_000.0, 30_000.0), true),
        );
        let always_tight = simulate(&[hot(1)], &mut Fcfs, constant_cap(12_000.0, true));
        let end_dn = day_night.completed[0].end_s.unwrap();
        let end_tight = always_tight.completed[0].end_s.unwrap();
        assert!(
            end_dn < end_tight,
            "night relaxation must help: {end_dn} vs {end_tight}"
        );
        // And the day period was actually throttled.
        assert!(day_night
            .timeline
            .iter()
            .any(|s| s.speed < 0.999 && s.t0 < 20.0 * 3600.0));
        assert!(day_night
            .timeline
            .iter()
            .any(|s| s.speed > 0.999 && s.t0 >= 20.0 * 3600.0));
        assert_eq!(day_night.overcap_time_fraction(), 0.0);
    }

    #[test]
    fn aging_unblocks_starving_head() {
        use crate::policy::EasyBackfill;
        // A stream of hot 1-node jobs keeps the *power* occupied (nodes
        // stay free) and starves a power-hungry 2-node job; aging
        // freezes backfill so the power drains and the big job runs.
        let mut trace = vec![];
        // Smalls every 80 s with 190 s runtimes: at least two are always
        // running once the stream is warm.
        for i in 0..4u64 {
            trace.push(job(1 + i, 1, i as f64 * 80.0, 200.0, 190.0, 2000.0));
        }
        trace.push(job(100, 2, 250.0, 40_000.0, 10_000.0, 2000.0)); // big, hot
        for i in 4..40u64 {
            trace.push(job(1 + i, 1, i as f64 * 80.0, 200.0, 190.0, 2000.0));
        }
        // Idle floor 2.8 kW + 5.6 kW of headroom: the big job (3.3 kW
        // extra) fits only when at most one small (1.65 kW) is running.
        let cap = 8.0 * 350.0 + 5_600.0;
        let plain = simulate(
            &trace,
            &mut EasyBackfill::power_aware(),
            constant_cap(cap, true),
        );
        let aged = simulate(
            &trace,
            &mut EasyBackfill::power_aware().with_aging(500.0),
            constant_cap(cap, true),
        );
        let wait = |out: &SimOutcome| {
            out.completed
                .iter()
                .find(|j| j.id == 100)
                .unwrap()
                .wait_s()
                .unwrap()
        };
        assert!(
            wait(&aged) < wait(&plain),
            "aging must cut the big job's wait: {} vs {}",
            wait(&aged),
            wait(&plain)
        );
    }

    #[test]
    fn placement_tracking_and_leaf_locality() {
        use crate::policy::EasyBackfill;
        // A churny trace on the full 45-node machine; leaf-aware
        // placement keeps multi-node jobs inside leaves more often.
        let mut trace = Vec::new();
        let mut id = 0;
        for i in 0..60 {
            id += 1;
            let nodes = [2u32, 4, 8, 12][i % 4];
            trace.push(job(
                id,
                nodes,
                i as f64 * 120.0,
                2_000.0,
                600.0 + (i % 7) as f64 * 300.0,
                1500.0,
            ));
        }
        let base = SimConfig::davide();
        let ff = simulate(
            &trace,
            &mut EasyBackfill::new(),
            base.clone().with_placement(PlacementStrategy::FirstFit),
        );
        let la = simulate(
            &trace,
            &mut EasyBackfill::new(),
            base.with_placement(PlacementStrategy::LeafAware),
        );
        // Every multi-node job has a recorded allocation of its size.
        for j in &la.completed {
            let alloc = &la.placements[&j.id];
            assert_eq!(alloc.len() as u32, j.nodes);
        }
        let d_ff = ff.mean_allocation_diameter().unwrap();
        let d_la = la.mean_allocation_diameter().unwrap();
        assert!(
            d_la <= d_ff + 1e-9,
            "leaf-aware diameter {d_la} must not exceed first-fit {d_ff}"
        );
        // Timings are placement-independent in this model.
        assert_eq!(ff.makespan_s, la.makespan_s);
    }

    #[test]
    #[should_panic(expected = "nodes on a")]
    fn oversized_job_rejected() {
        let trace = vec![job(1, 99, 0.0, 100.0, 50.0, 1000.0)];
        simulate(&trace, &mut Fcfs, small_config());
    }
}
