//! The invariant checker.
//!
//! After every control period the harness feeds the checker ground truth
//! it alone can see (true draws, true delivery times, fault state) plus
//! the control plane's externally observable view, and the checker
//! asserts the loop's safety contract:
//!
//! * **INV-CAP** — aggregate true power never exceeds the active cap
//!   beyond the reactive controller's overshoot budget (`busy · band`)
//!   for longer than the scenario's grace window, whenever the loop can
//!   actually see the overcap (telemetry fresh, broker up).
//! * **INV-ENERGY** — energy accounting is conserved: per-node truth
//!   sums to the facility total, per-job plus idle sums to the total,
//!   the management store holds *exactly* the samples the delivery
//!   order entitles it to (a differential model replicates the store's
//!   monotonic acceptance rule over faults), and for fault-free jobs
//!   the telemetry-measured energy matches plant truth within noise.
//! * **INV-STALE** — a busy node whose telemetry is demonstrably old
//!   must be estimated by prediction, not a frozen sample, and the run
//!   report must own up to at least the provable stale node-seconds.
//! * **INV-CONVERGE** — retained DVFS commands converge: per-node
//!   command spacing respects the ladder's sustain time (no flapping),
//!   and at end of run the broker's retained command mirrors the
//!   controller's final state bit-for-rendered-bit.

use std::collections::BTreeMap;

use davide_sched::controlplane::{BAND_W, SUSTAIN_S};
use davide_sched::{ControlPlane, ControlPlaneReport};
use davide_telemetry::gateway::{power_topic, speed_topic};
use davide_telemetry::tsdb::{Resolution, SeriesId, TsDb};

/// One invariant breach, with the virtual time it was detected at.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant tripped (`"cap"`, `"energy-conservation"`,
    /// `"energy-store"`, `"energy-job"`, `"stale-fallback"`,
    /// `"stale-accounting"`, `"converge-spacing"`,
    /// `"converge-retained"`).
    pub invariant: &'static str,
    /// Detection time, virtual seconds (end-of-run checks use the final
    /// tick).
    pub t_s: f64,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] t={:.1}s: {}",
            self.invariant, self.t_s, self.detail
        )
    }
}

/// Differential model of the management store: replicates
/// `TsDb::append_frame_id`'s monotonic acceptance rule over the *actual*
/// delivery order (duplicates, reorders and all), so the checker can
/// assert the store holds exactly the entitled samples — no more (drop
/// duplicates), no fewer (keep everything in order).
#[derive(Debug, Clone)]
pub struct StoreModel {
    last_t: Vec<f64>,
    count: Vec<u64>,
    sum: Vec<f64>,
}

impl StoreModel {
    /// Model for `n` node series, all empty.
    pub fn new(n: usize) -> Self {
        StoreModel {
            last_t: vec![f64::NEG_INFINITY; n],
            count: vec![0; n],
            sum: vec![0.0; n],
        }
    }

    /// One frame delivered to the control plane for `node`, in delivery
    /// order. Mirrors the store's rule: a frame starting at or after the
    /// series tail is absorbed whole; otherwise samples are filtered
    /// individually against the advancing tail.
    pub fn deliver(&mut self, node: usize, t0: f64, dt: f64, watts: &[f32]) {
        let n = watts.len();
        if n == 0 {
            return;
        }
        if t0 < self.last_t[node] || dt < 0.0 {
            for (i, &v) in watts.iter().enumerate() {
                let t = t0 + i as f64 * dt;
                if t >= self.last_t[node] {
                    self.last_t[node] = t;
                    self.count[node] += 1;
                    self.sum[node] += v as f64;
                }
            }
            return;
        }
        self.last_t[node] = t0 + (n - 1) as f64 * dt;
        self.count[node] += n as u64;
        self.sum[node] += watts.iter().map(|&v| v as f64).sum::<f64>();
    }

    /// Samples the model says the store must hold for `node`.
    pub fn count(&self, node: usize) -> u64 {
        self.count[node]
    }

    /// Mean of the accepted samples, if any.
    pub fn mean(&self, node: usize) -> Option<f64> {
        (self.count[node] > 0).then(|| self.sum[node] / self.count[node] as f64)
    }
}

/// Checker tolerances, frozen at harness start. The ladder's band and
/// sustain time are the control plane's own constants
/// ([`BAND_W`], [`SUSTAIN_S`]).
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Nodes under control.
    pub n_nodes: u32,
    /// The facility cap, watts.
    pub cap_w: f64,
    /// Nominal telemetry deadline the checker audits against, seconds.
    pub deadline_s: f64,
    /// INV-CAP grace window, seconds.
    pub cap_grace_s: f64,
    /// Control period, seconds.
    pub tick_s: f64,
    /// Telemetry noise (1σ, relative) for the job-energy tolerance.
    pub noise: f64,
    /// Gateway sample spacing, seconds.
    pub sample_dt_s: f64,
}

/// Ground truth for one control period, assembled by the harness.
#[derive(Debug)]
pub struct TickTruth<'a> {
    /// True aggregate draw over the period just advanced, watts.
    pub sys_w: f64,
    /// True broker state.
    pub broker_down: bool,
    /// Per node: true wall time up to which telemetry has actually been
    /// delivered (`NEG_INFINITY` before the first frame).
    pub delivered_until: &'a [f64],
    /// Per node: true dead/alive state.
    pub dead: &'a [bool],
    /// Per node: whether a clock fault has ever touched the gateway
    /// (its reported timestamps are untrustworthy; staleness checks
    /// skip it).
    pub clock_faulted: &'a [bool],
}

/// Truth record of one job's life on the plant.
#[derive(Debug, Clone)]
pub struct JobTruth {
    /// Job id.
    pub id: u64,
    /// Placement time, seconds.
    pub start_s: f64,
    /// Completion (or abort) time, seconds.
    pub end_s: f64,
    /// Nodes it ran on.
    pub nodes: Vec<u32>,
    /// True energy drawn by those nodes while it ran, joules.
    pub energy_j: f64,
    /// True when no fault window overlapped the job on any of its
    /// nodes — only these are held to the telemetry-vs-truth energy
    /// comparison.
    pub clean: bool,
    /// True when the job was killed by a node death.
    pub aborted: bool,
}

/// End-of-run ground truth.
#[derive(Debug)]
pub struct FinalTruth<'a> {
    /// Facility energy, joules (accumulated independently of the
    /// per-node and per-job ledgers below).
    pub total_energy_j: f64,
    /// Per-node energy, joules.
    pub per_node_energy_j: &'a [f64],
    /// Idle energy: draw of nodes with no job (and alive), joules.
    pub idle_energy_j: f64,
    /// Every job that ran, with its truth ledger.
    pub jobs: &'a [JobTruth],
    /// Final virtual time, seconds.
    pub t_s: f64,
}

/// The running checker; one per harness run.
pub struct InvariantChecker {
    cfg: CheckerConfig,
    violations: Vec<Violation>,
    overcap_streak_s: f64,
    overcap_flagged: bool,
    expected_stale_s: f64,
    last_cmd_s: Vec<f64>,
}

impl InvariantChecker {
    /// A fresh checker.
    pub fn new(cfg: CheckerConfig) -> Self {
        let n = cfg.n_nodes as usize;
        InvariantChecker {
            cfg,
            violations: Vec::new(),
            overcap_streak_s: 0.0,
            overcap_flagged: false,
            expected_stale_s: 0.0,
            last_cmd_s: vec![f64::NEG_INFINITY; n],
        }
    }

    /// Provable stale node-seconds accumulated so far (the lower bound
    /// the report must meet).
    pub fn expected_stale_s(&self) -> f64 {
        self.expected_stale_s
    }

    /// Update the cap the INV-CAP envelope audits against. Federated
    /// runs call this when a rack applies a new budget grant; the
    /// overcap streak deliberately survives the change, so a rack
    /// cannot launder a sustained overcap through a fresh grant — the
    /// grace window alone absorbs re-convergence.
    pub fn set_cap_w(&mut self, cap_w: f64) {
        self.cfg.cap_w = cap_w;
    }

    /// The cap currently audited against, watts.
    pub fn cap_w(&self) -> f64 {
        self.cfg.cap_w
    }

    /// The violations recorded so far, in detection order. Mid-run
    /// observers (the flight recorder) read this to notice the checker
    /// firing; [`finish`](Self::finish) still returns the complete list.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn flag(&mut self, invariant: &'static str, t_s: f64, detail: String) {
        self.violations.push(Violation {
            invariant,
            t_s,
            detail,
        });
    }

    /// The plant applied one speed command for `node`. `replayed` marks
    /// retained-store replay on reconnect, which is a restore, not a new
    /// controller action, and is exempt from the spacing bound.
    pub fn on_speed(&mut self, t_s: f64, node: u32, replayed: bool) {
        if replayed {
            return;
        }
        let last = self.last_cmd_s[node as usize];
        let gap = t_s - last;
        if last.is_finite() && gap < SUSTAIN_S - 1e-6 {
            self.flag(
                "converge-spacing",
                t_s,
                format!(
                    "node {node}: commands {gap:.2}s apart, sustain floor {SUSTAIN_S:.2}s (flapping)",
                ),
            );
        }
        self.last_cmd_s[node as usize] = t_s;
    }

    /// One control period's worth of checks, after the plant advanced
    /// over `[t_s, t_s + dt_s)`.
    pub fn on_tick(&mut self, t_s: f64, dt_s: f64, cp: &ControlPlane, truth: &TickTruth<'_>) {
        let snapshot = cp.snapshot();
        let busy: Vec<&davide_sched::NodeSnapshot> =
            snapshot.iter().filter(|n| n.job.is_some()).collect();

        // INV-CAP: truth draw against the envelope plus the ladder's
        // overshoot budget. The streak only accrues while the loop can
        // see: broker up and every busy node's telemetry actually fresh.
        let allowed = self.cfg.cap_w + busy.len() as f64 * BAND_W + 1.0;
        if truth.sys_w <= allowed {
            self.overcap_streak_s = 0.0;
            self.overcap_flagged = false;
        } else {
            let visible = !truth.broker_down
                && busy
                    .iter()
                    .all(|n| t_s - truth.delivered_until[n.node as usize] <= self.cfg.deadline_s);
            if visible {
                self.overcap_streak_s += dt_s;
                if self.overcap_streak_s > self.cfg.cap_grace_s && !self.overcap_flagged {
                    self.overcap_flagged = true;
                    self.flag(
                        "cap",
                        t_s,
                        format!(
                            "true draw {:.0} W > cap {:.0} W + budget {:.0} W for {:.0}s \
                             (grace {:.0}s) with fresh telemetry",
                            truth.sys_w,
                            self.cfg.cap_w,
                            allowed - self.cfg.cap_w,
                            self.overcap_streak_s,
                            self.cfg.cap_grace_s
                        ),
                    );
                }
            }
            // Blind overcap holds the streak: the loop cannot be blamed
            // for what it provably could not observe.
        }

        // INV-STALE: any busy node whose telemetry is provably older
        // than the deadline (with slack for delivery granularity) must
        // be estimated by prediction, and those node-seconds are owed to
        // the report.
        let slack = 2.0 * self.cfg.tick_s + 1.0;
        for n in &busy {
            let i = n.node as usize;
            if truth.clock_faulted[i] || !truth.delivered_until[i].is_finite() {
                continue;
            }
            if t_s - truth.delivered_until[i] <= self.cfg.deadline_s + slack {
                continue;
            }
            // Dead nodes are owed the *fallback* but not the accounting
            // lower bound: their jobs abort within a period, and the
            // loop frees the node in the same tick it learns of the
            // abort, before its staleness accrual runs.
            if !truth.dead[i] {
                self.expected_stale_s += dt_s;
            }
            let job = n.job.expect("busy node has a job");
            let est = cp
                .node_estimate(n.node, t_s)
                .expect("snapshot node is known");
            match cp.predicted_power(job) {
                Some(pred) if (est - pred).abs() <= 1e-9 => {}
                Some(pred) => self.flag(
                    "stale-fallback",
                    t_s,
                    format!(
                        "node {} telemetry {:.0}s old but estimate {est:.1} W is not the \
                         prediction {pred:.1} W (frozen sample?)",
                        n.node,
                        t_s - truth.delivered_until[i]
                    ),
                ),
                None => self.flag(
                    "stale-fallback",
                    t_s,
                    format!("node {} busy with job {job} unknown to the loop", n.node),
                ),
            }
        }
    }

    /// End-of-run checks; consumes the checker and returns every
    /// violation found over the whole run.
    pub fn finish(
        mut self,
        cp: &ControlPlane,
        broker: &davide_mqtt::Broker,
        report: &ControlPlaneReport,
        model: &StoreModel,
        truth: &FinalTruth<'_>,
    ) -> Vec<Violation> {
        let t = truth.t_s;
        let scale = truth.total_energy_j.abs().max(1.0);

        // INV-ENERGY (a): independently accumulated ledgers agree.
        let node_sum: f64 = truth.per_node_energy_j.iter().sum();
        if (truth.total_energy_j - node_sum).abs() > 1e-6 * scale {
            self.flag(
                "energy-conservation",
                t,
                format!(
                    "Σ per-node {node_sum:.3} J != facility total {:.3} J",
                    truth.total_energy_j
                ),
            );
        }
        let job_sum: f64 = truth.jobs.iter().map(|j| j.energy_j).sum();
        if (job_sum + truth.idle_energy_j - truth.total_energy_j).abs() > 1e-6 * scale {
            self.flag(
                "energy-conservation",
                t,
                format!(
                    "Σ per-job {job_sum:.3} J + idle {:.3} J != facility total {:.3} J",
                    truth.idle_energy_j, truth.total_energy_j
                ),
            );
        }

        // INV-ENERGY (b): the store holds exactly the entitled samples.
        for node in 0..self.cfg.n_nodes {
            let i = node as usize;
            let Some(id) = cp.db().lookup(&power_topic(node, "node")) else {
                if model.count(i) != 0 {
                    self.flag(
                        "energy-store",
                        t,
                        format!(
                            "node {node}: {} samples delivered but series missing",
                            model.count(i)
                        ),
                    );
                }
                continue;
            };
            let got = cp.db().count_id(id);
            if got != model.count(i) {
                self.flag(
                    "energy-store",
                    t,
                    format!(
                        "node {node}: store absorbed {got} samples, delivery order entitles \
                         exactly {}",
                        model.count(i)
                    ),
                );
            }
            // Mean compare only while the store still holds the whole
            // history: once retention has dropped points it can no
            // longer vouch for the full-history mean either way.
            let (db_mean, coverage) =
                cp.db()
                    .mean_id_with_coverage(id, Resolution::Raw, -1e18, 1e18);
            if let Some(want) = model.mean(i).filter(|_| coverage.is_complete()) {
                match db_mean {
                    Some(m) if (m - want).abs() <= 1e-9 * want.abs().max(1.0) => {}
                    other => self.flag(
                        "energy-store",
                        t,
                        format!("node {node}: store mean {other:?}, model mean {want:.6}"),
                    ),
                }
            }
        }

        // INV-ENERGY (c): fault-free completed jobs — telemetry energy
        // matches plant truth within measurement noise. A job whose
        // window retention has already dropped is skipped: the store
        // can no longer vouch for it either way. Each job's per-node
        // means over `[start − 0.5, end − 0.5)` come from one sweep per
        // node over all of that node's job windows.
        let jobs: Vec<&JobTruth> = truth
            .jobs
            .iter()
            .filter(|j| j.clean && !j.aborted && j.end_s - j.start_s > 0.0)
            .collect();
        // Per job, per node in job order: the mean and whether its
        // history is complete (a node with no series has neither a mean
        // nor lost history).
        let mut means: Vec<Vec<(Option<f64>, bool)>> = jobs
            .iter()
            .map(|j| vec![(None, true); j.nodes.len()])
            .collect();
        let mut by_node: BTreeMap<u32, Vec<(f64, f64, usize, usize)>> = BTreeMap::new();
        for (k, j) in jobs.iter().enumerate() {
            for (slot, &n) in j.nodes.iter().enumerate() {
                by_node
                    .entry(n)
                    .or_default()
                    .push((j.start_s - 0.5, j.end_s - 0.5, k, slot));
            }
        }
        for (n, mut ws) in by_node {
            let Some(id) = cp.db().lookup(&power_topic(n, "node")) else {
                continue;
            };
            ws.sort_by(|a, b| a.0.total_cmp(&b.0));
            let windows: Vec<(f64, f64)> = ws.iter().map(|&(a, b, _, _)| (a, b)).collect();
            for (&(_, _, k, slot), m) in ws.iter().zip(window_means(cp.db(), id, &windows)) {
                means[k][slot] = m;
            }
        }
        for (j, node_means) in jobs.iter().zip(&means) {
            let dur = j.end_s - j.start_s;
            let mut measured = 0.0;
            let mut missing = false;
            let mut complete = true;
            for &(mean, node_complete) in node_means {
                complete &= node_complete;
                match mean {
                    Some(m) => measured += m * dur,
                    None => missing = true,
                }
            }
            if !complete {
                continue;
            }
            if missing {
                self.flag(
                    "energy-job",
                    t,
                    format!("clean job {}: telemetry missing for its window", j.id),
                );
                continue;
            }
            let n_samples = (j.nodes.len() as f64 * dur / self.cfg.sample_dt_s).max(1.0);
            let tol = (6.0 * self.cfg.noise / n_samples.sqrt() + 1e-3) * j.energy_j.max(1.0) + 1.0;
            if (measured - j.energy_j).abs() > tol {
                self.flag(
                    "energy-job",
                    t,
                    format!(
                        "clean job {}: telemetry energy {measured:.0} J vs truth {:.0} J \
                         (tol {tol:.0} J)",
                        j.id, j.energy_j
                    ),
                );
            }
        }

        // INV-STALE (accounting): the report owns at least the provable
        // stale node-seconds.
        if self.expected_stale_s > 1e-9 && report.stale_node_s + 1e-6 < self.expected_stale_s {
            self.flag(
                "stale-accounting",
                t,
                format!(
                    "report admits {:.1} stale node-seconds, ground truth proves ≥ {:.1}",
                    report.stale_node_s, self.expected_stale_s
                ),
            );
        }

        // INV-CONVERGE (retained): the durable command mirrors the
        // controller's final state for every node.
        for s in cp.snapshot() {
            match broker.retained_get(&speed_topic(s.node)) {
                Some(payload) => {
                    let parsed = std::str::from_utf8(&payload)
                        .ok()
                        .and_then(|p| p.parse::<f64>().ok());
                    match parsed {
                        Some(v) if (v - s.speed).abs() <= 1e-4 => {}
                        other => self.flag(
                            "converge-retained",
                            t,
                            format!(
                                "node {}: retained command {other:?} != controller speed {:.4}",
                                s.node, s.speed
                            ),
                        ),
                    }
                }
                None if s.level == 0 => {}
                None => self.flag(
                    "converge-retained",
                    t,
                    format!(
                        "node {}: controller at level {} but no retained command survives",
                        s.node, s.level
                    ),
                ),
            }
        }

        self.violations
    }
}

/// Raw means of series `id` over `windows`, each with whether its
/// history is complete: per window, exactly the mean and
/// `is_complete()` of [`TsDb::mean_id_with_coverage`] at
/// [`Resolution::Raw`]. Windows sorted by start and disjoint are folded
/// from one chronological scan over their span, each summing its
/// points from `+0.0` in point order — the bits of the per-window mean,
/// whose whole-block sums are exact by their certificates — so a block
/// straddling several windows is decoded once. Overlapping windows, or
/// a scan that had to skip a block, fall back to one query per window.
pub(crate) fn window_means(
    db: &TsDb,
    id: SeriesId,
    windows: &[(f64, f64)],
) -> Vec<(Option<f64>, bool)> {
    let per_window = || {
        windows
            .iter()
            .map(|&(a, b)| {
                let (mean, coverage) = db.mean_id_with_coverage(id, Resolution::Raw, a, b);
                (mean, coverage.is_complete())
            })
            .collect()
    };
    let (Some(&(t0, _)), Some(&(_, t1))) = (windows.first(), windows.last()) else {
        return Vec::new();
    };
    let sweepable =
        windows.iter().all(|&(a, b)| a <= b) && windows.windows(2).all(|w| w[0].1 <= w[1].0);
    if !sweepable {
        return per_window();
    }
    let mut sums = vec![(0.0f64, 0usize); windows.len()];
    let mut k = 0;
    let mut scan = db.scan_id(id, t0, t1);
    scan.fold_points((), |(), t, v| {
        while k < windows.len() && t >= windows[k].1 {
            k += 1;
        }
        if k < windows.len() && t >= windows[k].0 {
            sums[k].0 += v;
            sums[k].1 += 1;
        }
    });
    if !scan.coverage().is_complete() {
        return per_window();
    }
    windows
        .iter()
        .zip(sums)
        .map(|(&(a, _), (sum, n))| {
            let mean = (n > 0).then(|| sum / n as f64);
            (mean, !db.lost_history_before(id, a))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use davide_telemetry::{TieringConfig, TsDbConfig};
    use proptest::prelude::*;

    proptest! {
        /// The one-scan sweep answers every window with the mean bits
        /// and completeness of its own raw-mean query, over tiered
        /// stores with small blocks (so windows straddle blocks and
        /// hold whole ones), a memory budget that evicts the oldest
        /// blocks (so some windows reach past retained history), and
        /// windows that hold no point at all.
        #[test]
        fn window_sweep_matches_per_window_means(
            seal_block in 4usize..48,
            hot_retain in 0usize..40,
            budget_blocks in 1usize..32,
            frame_lens in proptest::collection::vec(1usize..40, 1..40),
            dt in 0.05f64..3.0,
            binade in 0usize..3,
            jitter in proptest::collection::vec(0.0f32..1.0, 1..64),
            cuts in proptest::collection::vec(-0.05f64..1.05, 0..30),
            on_grid in 0usize..2,
        ) {
            let mut db = TsDb::with_config(TsDbConfig {
                raw_capacity: 1 << 16,
                tiering: Some(TieringConfig {
                    seal_block,
                    hot_retain: Some(hot_retain),
                    // Room for roughly `budget_blocks` blocks of payload.
                    mem_budget_bytes: budget_blocks * seal_block * 8,
                    disk: None,
                }),
                ..TsDbConfig::default()
            })
            .unwrap();
            let id = db.resolve("davide/node00/power/node");
            // One binade keeps blocks' sums certified; the others mix
            // signs and exponents.
            let scale = [1024.0f32, 0.75, -3.0e5][binade];
            let mut t = 0.0;
            let mut k = 0;
            for &n in &frame_lens {
                let values: Vec<f32> = (0..n)
                    .map(|_| {
                        k += 1;
                        scale * (1.0 + jitter[k % jitter.len()])
                    })
                    .collect();
                db.append_frame_id(id, t, dt, &values);
                db.compact();
                t += n as f64 * dt;
            }
            // Window edges over the written span and a little past it,
            // half the time on sample instants.
            let mut cuts: Vec<f64> = cuts
                .iter()
                .map(|c| match on_grid {
                    0 => c * t,
                    _ => (c * t / dt).round() * dt,
                })
                .collect();
            cuts.sort_by(f64::total_cmp);
            let windows: Vec<(f64, f64)> = cuts.chunks_exact(2).map(|c| (c[0], c[1])).collect();
            let want: Vec<(Option<u64>, bool)> = windows
                .iter()
                .map(|&(a, b)| {
                    let (mean, coverage) = db.mean_id_with_coverage(id, Resolution::Raw, a, b);
                    (mean.map(f64::to_bits), coverage.is_complete())
                })
                .collect();
            let got: Vec<(Option<u64>, bool)> = window_means(&db, id, &windows)
                .into_iter()
                .map(|(mean, complete)| (mean.map(f64::to_bits), complete))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn overlapping_windows_fall_back_to_one_query_each() {
        let mut db = TsDb::new();
        let id = db.resolve("s");
        db.append_frame_id(id, 0.0, 1.0, &[1.0, 2.0, 3.0, 4.0]);
        let got = window_means(&db, id, &[(0.0, 3.0), (1.0, 4.0), (2.0, 2.0)]);
        assert_eq!(
            got,
            vec![(Some(2.0), true), (Some(3.0), true), (None, true)]
        );
        assert_eq!(window_means(&db, id, &[]), Vec::new());
    }

    #[test]
    fn store_model_mirrors_monotonic_acceptance() {
        let mut m = StoreModel::new(2);
        // Bulk path.
        m.deliver(0, 0.0, 1.0, &[1.0, 2.0, 3.0]);
        assert_eq!(m.count(0), 3);
        // Duplicate frame: only the boundary sample (t == last_t) lands.
        m.deliver(0, 0.0, 1.0, &[1.0, 2.0, 3.0]);
        assert_eq!(m.count(0), 4);
        // Reordered older frame: fully stale, nothing lands.
        m.deliver(0, -5.0, 1.0, &[9.0, 9.0]);
        assert_eq!(m.count(0), 4);
        // Fresh frame after the tail: bulk again.
        m.deliver(0, 5.0, 1.0, &[4.0]);
        assert_eq!(m.count(0), 5);
        // Other series untouched.
        assert_eq!(m.count(1), 0);
        assert!(m.mean(1).is_none());
        let mean = m.mean(0).unwrap();
        assert!((mean - (1.0 + 2.0 + 3.0 + 3.0 + 4.0) / 5.0).abs() < 1e-12);
    }
}
