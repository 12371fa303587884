//! Job-dispatch policies: FCFS, EASY backfill, and the power-aware
//! proactive dispatcher of §III-A2.
//!
//! The power-aware policy implements the paper's proposal: "using a per
//! job power prediction to select which job should enter the
//! supercomputing machine at each moment, in order to fulfill the
//! specified power envelope while preserving job fairness".

use crate::job::{Job, JobId};

/// Idle draw per node, watts: the floor the dispatcher budgets around,
/// and the idle node of the batch simulator and the control plane.
pub const IDLE_NODE_POWER_W: f64 = 350.0;

/// A running job as policies see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningSummary {
    /// Job id.
    pub id: JobId,
    /// Nodes held.
    pub nodes: u32,
    /// Scheduler's end-time bound (start + requested walltime).
    pub walltime_end_s: f64,
    /// Predicted total power of the job.
    pub predicted_power_w: f64,
}

/// Cluster state offered to a policy at a scheduling point.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterView {
    /// Current time.
    pub now: f64,
    /// Nodes not allocated.
    pub free_nodes: u32,
    /// Total compute nodes.
    pub total_nodes: u32,
    /// Currently-running jobs.
    pub running: Vec<RunningSummary>,
    /// System power cap (facility envelope), if armed.
    pub power_cap_w: Option<f64>,
}

impl ClusterView {
    /// Predicted power of the whole system right now: running jobs at
    /// their predictions plus idle floor for free nodes.
    pub fn predicted_system_power(&self) -> f64 {
        let running: f64 = self.running.iter().map(|r| r.predicted_power_w).sum();
        running + self.free_nodes as f64 * IDLE_NODE_POWER_W
    }

    /// Power headroom under the cap for *additional* load, accounting
    /// for the idle draw the new job's nodes already contribute.
    pub fn power_headroom(&self) -> f64 {
        match self.power_cap_w {
            Some(cap) => cap - self.predicted_system_power(),
            None => f64::INFINITY,
        }
    }

    /// Would starting `job` keep the predicted system power under the
    /// cap? (The job's nodes stop drawing idle power when it starts.)
    pub fn fits_power(&self, job: &Job) -> bool {
        let extra = job.predicted_total_power() - job.nodes as f64 * IDLE_NODE_POWER_W;
        extra <= self.power_headroom() + 1e-9
    }
}

/// A dispatch policy: given the queue (submission order) and the cluster
/// state, pick which jobs start now.
pub trait Policy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;
    /// Ids of queued jobs to start at `view.now`, in start order.
    fn select(&mut self, queue: &[Job], view: &ClusterView) -> Vec<JobId>;
}

/// Strict first-come-first-served: the head of the queue blocks everyone
/// behind it.
#[derive(Debug, Default, Clone)]
pub struct Fcfs;

impl Policy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn select(&mut self, queue: &[Job], view: &ClusterView) -> Vec<JobId> {
        let mut free = view.free_nodes;
        let mut out = Vec::new();
        for job in queue {
            if job.nodes <= free {
                free -= job.nodes;
                out.push(job.id);
            } else {
                break;
            }
        }
        out
    }
}

/// When enough nodes for the head job free up, and how many nodes stay
/// free until then (`shadow time` and `extra nodes` of EASY backfill).
fn easy_reservation(head: &Job, view: &ClusterView, free: u32) -> (f64, u32) {
    // Sort running jobs by their walltime-bound end.
    let mut ends: Vec<(f64, u32)> = view
        .running
        .iter()
        .map(|r| (r.walltime_end_s, r.nodes))
        .collect();
    ends.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut avail = free;
    for &(t, nodes) in &ends {
        avail += nodes;
        if avail >= head.nodes {
            // Extra nodes at the shadow time beyond the reservation.
            return (t, avail - head.nodes);
        }
    }
    (f64::INFINITY, 0)
}

/// EASY backfilling: FCFS with a reservation for the head job; later
/// jobs may jump the queue if they do not delay that reservation.
#[derive(Debug, Default, Clone)]
pub struct EasyBackfill {
    /// Additionally require power fit (the power-aware variant).
    pub power_aware: bool,
    /// Fairness aging (§III-A2: "preserving job fairness"): once the
    /// blocked head has waited longer than this, backfilling pauses so
    /// power headroom accumulates for it instead of being nibbled away
    /// by younger jobs. `None` disables aging.
    pub max_head_wait_s: Option<f64>,
}

impl EasyBackfill {
    /// Plain EASY backfill.
    pub fn new() -> Self {
        EasyBackfill {
            power_aware: false,
            max_head_wait_s: None,
        }
    }

    /// The §III-A2 proactive dispatcher: EASY backfill where every start
    /// additionally fits the predicted power envelope.
    pub fn power_aware() -> Self {
        EasyBackfill {
            power_aware: true,
            max_head_wait_s: None,
        }
    }

    /// Add anti-starvation aging with the given head-wait bound.
    pub fn with_aging(mut self, max_head_wait_s: f64) -> Self {
        self.max_head_wait_s = Some(max_head_wait_s);
        self
    }
}

impl Policy for EasyBackfill {
    fn name(&self) -> &'static str {
        if self.power_aware {
            "power-aware-easy"
        } else {
            "easy-backfill"
        }
    }

    fn select(&mut self, queue: &[Job], view: &ClusterView) -> Vec<JobId> {
        let mut free = view.free_nodes;
        let mut headroom = view.power_headroom();
        let mut out = Vec::new();

        let power_ok = |job: &Job, headroom: f64| -> bool {
            !self.power_aware
                || job.predicted_total_power() - job.nodes as f64 * IDLE_NODE_POWER_W
                    <= headroom + 1e-9
        };

        // Phase 1: start from the head while everything fits.
        let mut idx = 0;
        while idx < queue.len() {
            let job = &queue[idx];
            // Deadlock guard: a head job whose predicted power exceeds
            // the whole envelope would otherwise never start. On an
            // empty machine it is admitted regardless — the reactive
            // capping layer (§III-A2 "mix both") absorbs the excess.
            let machine_empty = out.is_empty() && view.free_nodes == view.total_nodes && idx == 0;
            if job.nodes <= free && (power_ok(job, headroom) || machine_empty) {
                free -= job.nodes;
                headroom -= job.predicted_total_power() - job.nodes as f64 * IDLE_NODE_POWER_W;
                out.push(job.id);
                idx += 1;
            } else {
                break;
            }
        }
        if idx >= queue.len() {
            return out;
        }

        // Phase 2: reservation for the blocked head, then backfill.
        let head = &queue[idx];
        // Aging: a starving head freezes backfill so it cannot be
        // overtaken indefinitely by smaller/cooler jobs.
        if let Some(limit) = self.max_head_wait_s {
            if view.now - head.submit_s > limit {
                return out;
            }
        }
        let (shadow_time, extra_nodes) = easy_reservation(head, view, free);
        let mut extra = extra_nodes;
        for job in &queue[idx + 1..] {
            if job.nodes > free || !power_ok(job, headroom) {
                continue;
            }
            let finishes_before_shadow = view.now + job.walltime_req_s <= shadow_time;
            let fits_spare_nodes = job.nodes <= extra;
            if finishes_before_shadow || fits_spare_nodes {
                free -= job.nodes;
                if !finishes_before_shadow {
                    extra -= job.nodes;
                }
                headroom -= job.predicted_total_power() - job.nodes as f64 * IDLE_NODE_POWER_W;
                out.push(job.id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use davide_apps::workload::AppKind;

    fn job(id: JobId, nodes: u32, walltime: f64, power_per_node: f64) -> Job {
        let mut j = Job::new(
            id,
            1,
            AppKind::Bqcd,
            nodes,
            0.0,
            walltime,
            walltime * 0.7,
            power_per_node,
        );
        j.predicted_power_w = power_per_node;
        j
    }

    fn view(free: u32, running: Vec<RunningSummary>, cap: Option<f64>) -> ClusterView {
        ClusterView {
            now: 1000.0,
            free_nodes: free,
            total_nodes: 16,
            running,
            power_cap_w: cap,
        }
    }

    #[test]
    fn fcfs_blocks_behind_head() {
        let queue = vec![
            job(1, 8, 100.0, 1500.0),
            job(2, 10, 100.0, 1500.0),
            job(3, 1, 100.0, 1500.0),
        ];
        let mut p = Fcfs;
        // 8 free: job 1 starts; job 2 (10 nodes) blocks job 3 despite fit.
        let picks = p.select(&queue, &view(8, vec![], None));
        assert_eq!(picks, vec![1]);
    }

    #[test]
    fn easy_backfills_around_blocked_head() {
        // Head wants 12 nodes; 8 free; a running 8-node job ends (by
        // walltime) at t=2000. Short job 3 (1 node, 500 s) fits before
        // the shadow time and must backfill.
        let running = vec![RunningSummary {
            id: 99,
            nodes: 8,
            walltime_end_s: 2000.0,
            predicted_power_w: 8.0 * 1500.0,
        }];
        let queue = vec![
            job(1, 12, 4000.0, 1500.0),
            job(2, 4, 5000.0, 1500.0), // too long: would straddle shadow
            job(3, 1, 500.0, 1500.0),  // short: fits before shadow
        ];
        let mut p = EasyBackfill::new();
        let picks = p.select(&queue, &view(8, running, None));
        assert!(picks.contains(&3), "short job backfills: {picks:?}");
        assert!(!picks.contains(&1), "head cannot start");
        // Job 2 (5000 s > shadow 2000, nodes 4 > extra 4? extra =
        // 8+8-12 = 4 → fits spare nodes!) — it may start on spare nodes.
        assert!(picks.contains(&2), "spare-node backfill: {picks:?}");
    }

    #[test]
    fn easy_does_not_delay_reservation() {
        // Same as above but job 2 wants 5 nodes > extra 4 and is long →
        // must NOT start.
        let running = vec![RunningSummary {
            id: 99,
            nodes: 8,
            walltime_end_s: 2000.0,
            predicted_power_w: 12_000.0,
        }];
        let queue = vec![job(1, 12, 4000.0, 1500.0), job(2, 5, 5000.0, 1500.0)];
        let mut p = EasyBackfill::new();
        let picks = p.select(&queue, &view(8, running, None));
        assert!(picks.is_empty(), "{picks:?}");
    }

    #[test]
    fn power_aware_blocks_hot_jobs_under_cap() {
        // 16 free nodes, cap 30 kW, idle floor 16×350 = 5.6 kW.
        // A 8-node 2 kW/node job adds 8×(2000−350) = 13.2 kW → fits.
        // A second identical job would add another 13.2 kW → 32 kW > cap.
        let queue = vec![job(1, 8, 1000.0, 2000.0), job(2, 8, 1000.0, 2000.0)];
        let cap = Some(30_000.0);
        let mut aware = EasyBackfill::power_aware();
        let picks = aware.select(&queue, &view(16, vec![], cap));
        assert_eq!(picks, vec![1], "second job must wait for power");
        // Without the cap, both start.
        let mut plain = EasyBackfill::new();
        let picks = plain.select(&queue, &view(16, vec![], None));
        assert_eq!(picks, vec![1, 2]);
    }

    #[test]
    fn power_aware_prefers_cool_backfill() {
        // A running job leaves 8 nodes free but little power headroom:
        // the hot head is power-blocked, the cooler job behind it
        // backfills — the §III-A2 reordering in one step.
        let running = vec![RunningSummary {
            id: 99,
            nodes: 8,
            walltime_end_s: 2000.0,
            predicted_power_w: 12_000.0,
        }];
        let queue = vec![
            job(1, 8, 500.0, 2000.0), // hot: 13.2 kW extra
            job(2, 8, 500.0, 900.0),  // cool: 8×550 = 4.4 kW extra
        ];
        // predicted system = 12 kW + 8×350 = 14.8 kW; cap 20 kW leaves
        // 5.2 kW of headroom — enough for the cool job only.
        let cap = Some(20_000.0);
        let mut aware = EasyBackfill::power_aware();
        let picks = aware.select(&queue, &view(8, running, cap));
        assert_eq!(picks, vec![2], "cool job jumps the hot head: {picks:?}");
    }

    #[test]
    fn deadlock_guard_admits_oversized_head_on_empty_machine() {
        // The head's predicted power exceeds the whole envelope; on an
        // empty machine it must start anyway (reactive capping absorbs
        // it), otherwise it would starve forever.
        let queue = vec![job(1, 16, 1000.0, 2300.0)];
        let cap = Some(16.0 * 350.0 + 5_000.0);
        let mut aware = EasyBackfill::power_aware();
        let picks = aware.select(&queue, &view(16, vec![], cap));
        assert_eq!(picks, vec![1]);
        // But not when anything else is running.
        let running = vec![RunningSummary {
            id: 9,
            nodes: 1,
            walltime_end_s: 9999.0,
            predicted_power_w: 1000.0,
        }];
        let picks = aware.select(&queue, &view(15, running, cap));
        assert!(picks.is_empty());
    }

    #[test]
    fn headroom_arithmetic() {
        let v = view(
            4,
            vec![RunningSummary {
                id: 1,
                nodes: 12,
                walltime_end_s: 2000.0,
                predicted_power_w: 20_000.0,
            }],
            Some(25_000.0),
        );
        // predicted = 20000 + 4×350 = 21400; headroom = 3600.
        assert!((v.predicted_system_power() - 21_400.0).abs() < 1e-9);
        assert!((v.power_headroom() - 3_600.0).abs() < 1e-9);
        // A 2-node job at 1500 W/node adds 2×(1500−350)=2300 → fits.
        assert!(v.fits_power(&job(9, 2, 100.0, 1500.0)));
        // At 2500 W/node it adds 4300 → does not fit.
        assert!(!v.fits_power(&job(9, 2, 100.0, 2500.0)));
    }

    #[test]
    fn uncapped_headroom_is_infinite() {
        let v = view(16, vec![], None);
        assert!(v.power_headroom().is_infinite());
        assert!(v.fits_power(&job(1, 16, 100.0, 9999.0)));
    }
}
