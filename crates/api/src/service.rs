//! The typed query-service layer: one versioned read path over the
//! telemetry store, the accounting ledger and the job index.
//!
//! [`QueryService`] is generic over [`SeriesRead`], so the same service
//! fronts a flat [`TsDb`](davide_telemetry::TsDb) or a sharded store
//! without caring which. It owns:
//!
//! * the **rollup cache** — an LRU keyed on
//!   `(op, series, window, resolution)` holding scalar aggregates
//!   (means, energies, job integrations). Entries are validated against
//!   the per-series **ingest watermark** ([`SeriesRead::series_watermark`],
//!   the monotonic absorbed-sample count): a hit is served only if every
//!   watermark recorded at fill time still matches, so new ingest
//!   invalidates exactly the windows it could have changed;
//! * the **job index** — runtime windows, users and node series of
//!   finished jobs, built from [`SimOutcome`]s, backing the
//!   rollup/profile endpoints together with the
//!   [`EnergyLedger`];
//! * its **instruments** — request/hit/miss/error counters and a
//!   latency histogram registered in the shared
//!   [`ObsHub`], like every other subsystem.

use std::collections::HashMap;
use std::sync::Arc;

use davide_core::power::PowerTrace;
use davide_core::time::SimTime;
use davide_obs::{
    rollup_counters, Counter, FlightRecorder, Histogram, MetricsRegistry, ObsHub, GRANT_STAGE_NAMES,
};
use davide_sched::accounting::{EnergyLedger, Tariff};
use davide_sched::simulator::SimOutcome;
use davide_telemetry::{
    detect_phases, Decimator, ProfilerConfig, QueryCoverage, Resolution, SeriesRead,
};
use parking_lot::{Mutex, RwLock};

use crate::types::{
    ApiError, FlightEventDto, GrantEventDto, GrantSpanDto, HealthResponse, JobProfileRequest,
    JobProfileResponse, JobRollupRequest, JobRollupResponse, LatencyDto, ObsFlightResponse,
    ObsMetricsResponse, PhaseDto, QueryOp, QueryRequest, QueryResponse, RackFlight, RackGrantTrace,
    SeriesAnswer, SeriesProfile, TraceGrantsResponse, UserRollup, UserRollupRequest,
    UserRollupResponse,
};

/// One finished job's accounting/profiling record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: u64,
    /// Submitting user.
    pub user_id: u32,
    /// Nodes the job ran on.
    pub nodes: Vec<u32>,
    /// Runtime window start, seconds.
    pub start_s: f64,
    /// Runtime window end, seconds.
    pub end_s: f64,
    /// Telemetry series carrying the job's node power.
    pub series: Vec<String>,
}

/// Jobs the service can answer rollup and profile queries for.
#[derive(Debug, Clone, Default)]
pub struct JobIndex {
    jobs: HashMap<u64, JobRecord>,
}

impl JobIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a job record.
    pub fn insert(&mut self, rec: JobRecord) {
        self.jobs.insert(rec.id, rec);
    }

    /// Look up a job.
    pub fn get(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// Jobs indexed.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Index every completed job of a simulation outcome, mapping each
    /// placed node through `series_for_node` (e.g.
    /// `|n| power_topic(n, "node")`). Jobs without placement data get
    /// no series (rollups still answer from the ledger).
    pub fn ingest_outcome(&mut self, out: &SimOutcome, series_for_node: impl Fn(u32) -> String) {
        for job in &out.completed {
            let nodes = out.placements.get(&job.id).cloned().unwrap_or_default();
            let mut series: Vec<String> = nodes.iter().map(|&n| series_for_node(n)).collect();
            series.sort();
            self.insert(JobRecord {
                id: job.id,
                user_id: job.user_id,
                nodes,
                start_s: job.start_s.unwrap_or(0.0),
                end_s: job.end_s.unwrap_or(0.0),
                series,
            });
        }
    }
}

/// Cached scalar aggregate plus the provenance it was computed with.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CachedAgg {
    value: Option<f64>,
    coverage: QueryCoverage,
}

/// A filled cache slot: the answer and the per-series watermarks it
/// was computed at.
#[derive(Debug, Clone)]
struct CacheEntry {
    series: String,
    watermark: u64,
    agg: CachedAgg,
    tick: u64,
}

/// Fixed (hashable) part of a cache key; the series name is matched by
/// linear scan inside the bucket so lookups never allocate.
type AggKey = (u8, u8, u64, u64);

fn agg_key(op: QueryOp, res: Resolution, t0: f64, t1: f64) -> AggKey {
    let op = match op {
        QueryOp::Mean => 0u8,
        QueryOp::Energy => 1,
        _ => 255,
    };
    let res = match res {
        Resolution::Raw => 0u8,
        Resolution::Second => 1,
        Resolution::Minute => 2,
    };
    (op, res, t0.to_bits(), t1.to_bits())
}

/// Watermark-validated LRU for scalar aggregates.
#[derive(Debug)]
struct RollupCache {
    buckets: HashMap<AggKey, Vec<CacheEntry>>,
    len: usize,
    cap: usize,
    tick: u64,
}

impl RollupCache {
    fn new(cap: usize) -> Self {
        RollupCache {
            buckets: HashMap::new(),
            len: 0,
            cap,
            tick: 0,
        }
    }

    /// A valid entry for `(key, series)` at the given current
    /// watermark, bumping its recency.
    fn get(&mut self, key: AggKey, series: &str, watermark: u64) -> Option<CachedAgg> {
        self.tick += 1;
        let tick = self.tick;
        let bucket = self.buckets.get_mut(&key)?;
        let e = bucket.iter_mut().find(|e| e.series == series)?;
        if e.watermark != watermark {
            return None; // stale: ingest moved the series forward
        }
        e.tick = tick;
        Some(e.agg)
    }

    fn insert(&mut self, key: AggKey, series: &str, watermark: u64, agg: CachedAgg) {
        self.tick += 1;
        let tick = self.tick;
        let bucket = self.buckets.entry(key).or_default();
        if let Some(e) = bucket.iter_mut().find(|e| e.series == series) {
            e.watermark = watermark;
            e.agg = agg;
            e.tick = tick;
            return;
        }
        bucket.push(CacheEntry {
            series: series.to_string(),
            watermark,
            agg,
            tick,
        });
        self.len += 1;
        if self.len > self.cap {
            self.evict_oldest();
        }
    }

    /// Drop the least-recently-used entry (O(n), runs only on overflow
    /// of a bounded cache — not on the hit path).
    fn evict_oldest(&mut self) {
        let mut oldest: Option<(AggKey, usize, u64)> = None;
        for (k, bucket) in &self.buckets {
            for (i, e) in bucket.iter().enumerate() {
                if oldest.is_none_or(|(_, _, t)| e.tick < t) {
                    oldest = Some((*k, i, e.tick));
                }
            }
        }
        if let Some((k, i, _)) = oldest {
            let bucket = self.buckets.get_mut(&k).expect("key just seen");
            bucket.remove(i);
            self.len -= 1;
            if bucket.is_empty() {
                self.buckets.remove(&k);
            }
        }
    }
}

/// Service instruments, registered in the shared [`ObsHub`].
struct ApiObs {
    hub: ObsHub,
    requests: Counter,
    errors: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    latency_ns: Histogram,
}

impl ApiObs {
    fn new(hub: &ObsHub) -> Self {
        let r = &hub.registry;
        ApiObs {
            hub: hub.clone(),
            requests: r.counter("api_requests_total"),
            errors: r.counter("api_errors_total"),
            cache_hits: r.counter("api_cache_hits_total"),
            cache_misses: r.counter("api_cache_misses_total"),
            latency_ns: r.histogram("api_request_ns"),
        }
    }
}

/// One attached rack observability source: live handles onto the
/// rack's registry and flight recorder (shared `Arc`s, so the service
/// always reads current state).
struct RackObsSource {
    name: String,
    registry: Arc<MetricsRegistry>,
    flight: Arc<FlightRecorder>,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct QueryServiceConfig {
    /// Rollup-cache capacity (entries). 0 disables caching.
    pub cache_capacity: usize,
    /// Tariff used to price energy.
    pub tariff: Tariff,
    /// Profiler settings for `/v1/profile/job` phase detection.
    pub profiler: ProfilerConfig,
}

impl Default for QueryServiceConfig {
    fn default() -> Self {
        QueryServiceConfig {
            cache_capacity: 4096,
            tariff: Tariff::default(),
            profiler: ProfilerConfig::default(),
        }
    }
}

/// Cache effectiveness counters (mirrors the obs instruments, readable
/// without a registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Aggregate queries answered from the cache.
    pub hits: u64,
    /// Aggregate queries that had to recompute.
    pub misses: u64,
}

/// The typed query service: every read endpoint in one place.
///
/// Cloning is cheap (all state is shared behind `Arc`s); the HTTP
/// worker pool clones one service per thread.
pub struct QueryService<S: SeriesRead> {
    store: Arc<RwLock<S>>,
    ledger: Arc<RwLock<EnergyLedger>>,
    jobs: Arc<RwLock<JobIndex>>,
    cache: Arc<Mutex<RollupCache>>,
    stats: Arc<Mutex<CacheStats>>,
    cfg: QueryServiceConfig,
    obs: Arc<ApiObs>,
    rack_obs: Arc<RwLock<Vec<RackObsSource>>>,
}

impl<S: SeriesRead> Clone for QueryService<S> {
    fn clone(&self) -> Self {
        QueryService {
            store: self.store.clone(),
            ledger: self.ledger.clone(),
            jobs: self.jobs.clone(),
            cache: self.cache.clone(),
            stats: self.stats.clone(),
            cfg: self.cfg.clone(),
            obs: self.obs.clone(),
            rack_obs: self.rack_obs.clone(),
        }
    }
}

impl<S: SeriesRead> QueryService<S> {
    /// A service over shared store/ledger/job-index handles.
    pub fn new(
        store: Arc<RwLock<S>>,
        ledger: Arc<RwLock<EnergyLedger>>,
        jobs: Arc<RwLock<JobIndex>>,
        hub: &ObsHub,
        cfg: QueryServiceConfig,
    ) -> Self {
        QueryService {
            store,
            ledger,
            jobs,
            cache: Arc::new(Mutex::new(RollupCache::new(cfg.cache_capacity))),
            stats: Arc::new(Mutex::new(CacheStats::default())),
            cfg,
            obs: Arc::new(ApiObs::new(hub)),
            rack_obs: Arc::new(RwLock::new(Vec::new())),
        }
    }

    /// A service that owns fresh ledger and job-index state over a
    /// store (the common wiring for tests and bins).
    pub fn over_store(store: S, hub: &ObsHub, cfg: QueryServiceConfig) -> Self {
        Self::new(
            Arc::new(RwLock::new(store)),
            Arc::new(RwLock::new(EnergyLedger::new())),
            Arc::new(RwLock::new(JobIndex::new())),
            hub,
            cfg,
        )
    }

    /// The shared store handle (writers keep ingesting through this
    /// while the service reads).
    pub fn store(&self) -> Arc<RwLock<S>> {
        self.store.clone()
    }

    /// The shared ledger handle.
    pub fn ledger(&self) -> Arc<RwLock<EnergyLedger>> {
        self.ledger.clone()
    }

    /// The shared job index handle.
    pub fn jobs(&self) -> Arc<RwLock<JobIndex>> {
        self.jobs.clone()
    }

    /// Cache hit/miss counts so far.
    pub fn cache_stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    /// Ingest an accounting source: the ledger absorbs the outcome and
    /// the job index records runtime windows/series for each completed
    /// job.
    pub fn ingest_outcome(&self, out: &SimOutcome, series_for_node: impl Fn(u32) -> String) {
        self.ledger.write().ingest(out);
        self.jobs.write().ingest_outcome(out, series_for_node);
    }

    fn observe(&self, t_start: f64, err: bool) {
        self.obs.requests.add(1);
        if err {
            self.obs.errors.add(1);
        }
        let dt = self.obs.hub.clock.now_s() - t_start;
        if dt >= 0.0 {
            self.obs.latency_ns.record((dt * 1e9).round() as u64);
        }
    }

    /// `/health`: liveness and store occupancy.
    pub fn health(&self) -> HealthResponse {
        let t = self.obs.hub.clock.now_s();
        let store = self.store.read();
        let resp = HealthResponse {
            status: "ok",
            series: store.series_names().len(),
            jobs: self.jobs.read().len(),
            tier: store.store_tier_stats(),
        };
        drop(store);
        self.observe(t, false);
        resp
    }

    /// `/metrics`: the shared registry's Prometheus text exposition.
    pub fn metrics_text(&self) -> String {
        self.obs.hub.registry.render_text()
    }

    /// Attach one rack's observability surface (its registry and
    /// flight recorder) under `name`. The grant-trace, metrics-rollup
    /// and flight endpoints answer from the attached set — and *only*
    /// from it, so their bodies are a pure function of the racks'
    /// state, never of the service's own request counters.
    pub fn attach_rack_obs(&self, name: &str, hub: &ObsHub) {
        self.rack_obs.write().push(RackObsSource {
            name: name.to_string(),
            registry: hub.registry.clone(),
            flight: hub.flight.clone(),
        });
    }

    /// `/v1/trace/grants`: every attached rack's cap-grant causal
    /// traces — recent spans reassembled from the flight ring, plus
    /// the grant-to-actuation and end-to-end latency summaries.
    pub fn trace_grants(&self) -> TraceGrantsResponse {
        let t = self.obs.hub.clock.now_s();
        let racks = self
            .rack_obs
            .read()
            .iter()
            .map(|src| {
                let mut spans: std::collections::BTreeMap<u64, Vec<GrantEventDto>> =
                    std::collections::BTreeMap::new();
                for (_, e) in src.flight.snapshot() {
                    if GRANT_STAGE_NAMES.contains(&e.kind) {
                        spans.entry(e.seq).or_default().push(GrantEventDto {
                            t_ns: e.t_ns,
                            stage: e.kind.to_string(),
                            cap_w: f64::from_bits(e.value_bits),
                        });
                    }
                }
                let lat = |name: &str| {
                    src.registry
                        .find_histogram(name)
                        .map(|h| {
                            let snap = h.snapshot();
                            LatencyDto {
                                count: snap.count,
                                p50_ns: snap.quantile(0.50),
                                p99_ns: snap.quantile(0.99),
                            }
                        })
                        .unwrap_or(LatencyDto {
                            count: 0,
                            p50_ns: 0,
                            p99_ns: 0,
                        })
                };
                // `obs_grant_lost_total{last=..}` is one counter per
                // terminal stage; the wire carries the sum.
                let lost: u64 = rollup_counters([&*src.registry])
                    .into_iter()
                    .filter(|(n, _)| n.starts_with("obs_grant_lost_total"))
                    .map(|(_, v)| v)
                    .sum();
                RackGrantTrace {
                    rack: src.name.clone(),
                    spans: spans
                        .into_iter()
                        .map(|(seq, events)| GrantSpanDto { seq, events })
                        .collect(),
                    apply: lat("obs_grant_apply_ns"),
                    e2e: lat("obs_grant_e2e_ns"),
                    completed: src
                        .registry
                        .find_counter("obs_grant_completed_total")
                        .map(|c| c.get())
                        .unwrap_or(0),
                    lost,
                }
            })
            .collect();
        self.observe(t, false);
        TraceGrantsResponse { racks }
    }

    /// `/v1/obs/metrics`: the federation-wide rollup — every counter
    /// summed across the attached racks' registries.
    pub fn obs_metrics(&self) -> ObsMetricsResponse {
        let t = self.obs.hub.clock.now_s();
        let sources = self.rack_obs.read();
        let resp = ObsMetricsResponse {
            racks: sources.iter().map(|s| s.name.clone()).collect(),
            counters: rollup_counters(sources.iter().map(|s| &*s.registry)),
        };
        drop(sources);
        self.observe(t, false);
        resp
    }

    /// `/v1/obs/flight`: every attached rack's flight ring, with the
    /// digest of its deterministic text dump.
    pub fn obs_flight(&self) -> ObsFlightResponse {
        let t = self.obs.hub.clock.now_s();
        let racks = self
            .rack_obs
            .read()
            .iter()
            .map(|src| RackFlight {
                rack: src.name.clone(),
                digest: format!("{:016x}", src.flight.digest()),
                events: src
                    .flight
                    .snapshot()
                    .into_iter()
                    .map(|(n, e)| FlightEventDto {
                        n,
                        t_ns: e.t_ns,
                        kind: e.kind.to_string(),
                        label: e.label.to_string(),
                        seq: e.seq,
                        value_bits: e.value_bits,
                    })
                    .collect(),
            })
            .collect();
        self.observe(t, false);
        ObsFlightResponse { racks }
    }

    /// `/v1/query`: one aggregate over one series or a filter.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryResponse, ApiError> {
        let t = self.obs.hub.clock.now_s();
        let out = self.query_inner(req);
        self.observe(t, out.is_err());
        out
    }

    fn query_inner(&self, req: &QueryRequest) -> Result<QueryResponse, ApiError> {
        let names: Vec<String> = match (&req.series, &req.filter) {
            (Some(s), None) => vec![s.clone()],
            (None, Some(f)) => {
                let store = self.store.read();
                store
                    .series_names()
                    .into_iter()
                    .filter(|n| davide_mqtt_filter(f, n))
                    .collect()
            }
            _ => {
                return Err(ApiError::BadRequest(
                    "exactly one of `series`/`filter` is required".into(),
                ))
            }
        };
        let mut answers = Vec::with_capacity(names.len());
        let mut merged = QueryCoverage::default();
        for name in names {
            let ans = match req.op {
                QueryOp::Points => {
                    let rq = self
                        .store
                        .read()
                        .series_range(&name, req.resolution, req.t0, req.t1);
                    SeriesAnswer {
                        series: name,
                        points: Some(rq.points),
                        value: None,
                        last: None,
                        coverage: rq.coverage,
                    }
                }
                QueryOp::Last => {
                    let last = self.store.read().series_last(&name);
                    let coverage = QueryCoverage {
                        hot: usize::from(last.is_some()),
                        ..QueryCoverage::default()
                    };
                    SeriesAnswer {
                        series: name,
                        points: None,
                        value: None,
                        last,
                        coverage,
                    }
                }
                QueryOp::Mean | QueryOp::Energy => {
                    let agg = self.cached_agg(req.op, &name, req.resolution, req.t0, req.t1);
                    SeriesAnswer {
                        series: name,
                        points: None,
                        value: agg.value,
                        last: None,
                        coverage: agg.coverage,
                    }
                }
            };
            merged.merge(&ans.coverage);
            answers.push(ans);
        }
        Ok(QueryResponse {
            op: req.op,
            series: answers,
            coverage: merged,
        })
    }

    /// A mean/energy aggregate through the watermark-validated cache.
    fn cached_agg(
        &self,
        op: QueryOp,
        series: &str,
        res: Resolution,
        t0: f64,
        t1: f64,
    ) -> CachedAgg {
        let key = agg_key(op, res, t0, t1);
        let watermark = self.store.read().series_watermark(series);
        if self.cfg.cache_capacity > 0 {
            if let Some(hit) = self.cache.lock().get(key, series, watermark) {
                self.obs.cache_hits.add(1);
                self.stats.lock().hits += 1;
                return hit;
            }
        }
        let store = self.store.read();
        let agg = match op {
            QueryOp::Mean => {
                let (value, coverage) = store.series_mean(series, res, t0, t1);
                CachedAgg { value, coverage }
            }
            _ => {
                let (e, coverage) = store.series_energy_j(series, t0, t1);
                CachedAgg {
                    value: Some(e),
                    coverage,
                }
            }
        };
        drop(store);
        if self.cfg.cache_capacity > 0 {
            self.obs.cache_misses.add(1);
            self.stats.lock().misses += 1;
            self.cache.lock().insert(key, series, watermark, agg);
        }
        agg
    }

    /// `/v1/rollup/user`: one user's account, or everyone ranked by
    /// energy.
    pub fn rollup_user(&self, req: &UserRollupRequest) -> Result<UserRollupResponse, ApiError> {
        let t = self.obs.hub.clock.now_s();
        let out = self.rollup_user_inner(req);
        self.observe(t, out.is_err());
        out
    }

    fn rollup_user_inner(&self, req: &UserRollupRequest) -> Result<UserRollupResponse, ApiError> {
        let ledger = self.ledger.read();
        let tariff = self.cfg.tariff;
        let mk = |user_id: u32, acct: &davide_sched::accounting::UserAccount| UserRollup {
            user_id,
            jobs: acct.jobs,
            energy_j: acct.energy_j,
            node_seconds: acct.node_seconds,
            cost: acct.cost(tariff),
            mean_power_w: acct.mean_power_per_node(),
        };
        let users = match req.user_id {
            Some(u) => {
                let acct = ledger
                    .user(u)
                    .ok_or_else(|| ApiError::NotFound(format!("user {u}")))?;
                vec![mk(u, acct)]
            }
            None => ledger
                .users_by_energy()
                .into_iter()
                .map(|(u, acct)| mk(u, &acct))
                .collect(),
        };
        Ok(UserRollupResponse { users })
    }

    /// `/v1/rollup/job`: ledger energy (and optionally the
    /// telemetry-integrated energy with provenance) for one job.
    pub fn rollup_job(&self, req: &JobRollupRequest) -> Result<JobRollupResponse, ApiError> {
        let t = self.obs.hub.clock.now_s();
        let out = self.rollup_job_inner(req);
        self.observe(t, out.is_err());
        out
    }

    fn rollup_job_inner(&self, req: &JobRollupRequest) -> Result<JobRollupResponse, ApiError> {
        let jobs = self.jobs.read();
        let rec = jobs
            .get(req.job_id)
            .ok_or_else(|| ApiError::NotFound(format!("job {}", req.job_id)))?
            .clone();
        drop(jobs);
        let ledger_energy_j = self.ledger.read().job_energy_j(req.job_id);
        let (measured_energy_j, coverage) = if req.measured {
            let mut total = 0.0;
            let mut cov = QueryCoverage::default();
            for key in &rec.series {
                let agg = self.cached_agg(
                    QueryOp::Energy,
                    key,
                    Resolution::Raw,
                    rec.start_s,
                    rec.end_s,
                );
                total += agg.value.unwrap_or(0.0);
                cov.merge(&agg.coverage);
            }
            (Some(total), Some(cov))
        } else {
            (None, None)
        };
        let cost = ledger_energy_j.unwrap_or(0.0) / 3.6e6 * self.cfg.tariff.per_kwh;
        Ok(JobRollupResponse {
            job_id: rec.id,
            user_id: rec.user_id,
            nodes: rec.nodes.len(),
            start_s: rec.start_s,
            end_s: rec.end_s,
            ledger_energy_j,
            measured_energy_j,
            coverage,
            cost,
        })
    }

    /// `/v1/profile/job`: the job's node power series over its runtime
    /// window, boxcar-decimated through [`Decimator`], with phases
    /// detected on each decimated profile.
    pub fn profile_job(&self, req: &JobProfileRequest) -> Result<JobProfileResponse, ApiError> {
        let t = self.obs.hub.clock.now_s();
        let out = self.profile_job_inner(req);
        self.observe(t, out.is_err());
        out
    }

    fn profile_job_inner(&self, req: &JobProfileRequest) -> Result<JobProfileResponse, ApiError> {
        let jobs = self.jobs.read();
        let rec = jobs
            .get(req.job_id)
            .ok_or_else(|| ApiError::NotFound(format!("job {}", req.job_id)))?
            .clone();
        drop(jobs);
        let mut profiles = Vec::with_capacity(rec.series.len());
        let mut merged = QueryCoverage::default();
        for key in &rec.series {
            let rq = self
                .store
                .read()
                .series_range(key, Resolution::Raw, rec.start_s, rec.end_s);
            merged.merge(&rq.coverage);
            let m = req.decimate.max(1);
            let (t0, dt_raw) = match rq.points.as_slice() {
                [] => (rec.start_s, 0.0),
                [p] => (p.t, 0.0),
                [a, b, ..] => (a.t, b.t - a.t),
            };
            let mut watts = Vec::with_capacity(rq.points.len() / m + 1);
            if m == 1 {
                watts.extend(rq.points.iter().map(|p| p.v));
            } else {
                let vals: Vec<f64> = rq.points.iter().map(|p| p.v).collect();
                Decimator::new(m).push(&vals, &mut watts);
            }
            let dt = dt_raw * m as f64;
            let phases = if watts.len() >= 2 && dt > 0.0 {
                let trace = PowerTrace::new(SimTime::from_secs_f64(t0), dt, watts.clone());
                detect_phases(&trace, self.cfg.profiler)
                    .into_iter()
                    .map(|p| PhaseDto {
                        t0: p.t0,
                        t1: p.t1,
                        mean_w: p.mean.0,
                        energy_j: p.energy.0,
                    })
                    .collect()
            } else {
                Vec::new()
            };
            profiles.push(SeriesProfile {
                series: key.clone(),
                t0,
                dt,
                watts,
                phases,
            });
        }
        Ok(JobProfileResponse {
            job_id: rec.id,
            profiles,
            coverage: merged,
        })
    }
}

impl<S: SeriesRead> std::fmt::Debug for QueryService<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService").finish_non_exhaustive()
    }
}

/// MQTT-style filter match (thin alias so the service reads clearly).
fn davide_mqtt_filter(filter: &str, topic: &str) -> bool {
    davide_mqtt::topic::filter_matches(filter, topic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use davide_telemetry::TsDb;

    fn service_with(points: &[(f64, f64)]) -> QueryService<TsDb> {
        let mut db = TsDb::new();
        let id = db.resolve("node00/power");
        for &(t, v) in points {
            db.append_id(id, t, v);
        }
        QueryService::over_store(db, &ObsHub::monotonic(), QueryServiceConfig::default())
    }

    fn mean_req(t0: f64, t1: f64) -> QueryRequest {
        QueryRequest::series(QueryOp::Mean, "node00/power", Resolution::Raw, t0, t1)
    }

    #[test]
    fn cache_serves_repeats_and_invalidates_on_ingest() {
        let svc = service_with(&[(0.0, 100.0), (1.0, 200.0), (2.0, 300.0)]);
        let a = svc.query(&mean_req(0.0, 10.0)).unwrap();
        assert_eq!(svc.cache_stats(), CacheStats { hits: 0, misses: 1 });
        let b = svc.query(&mean_req(0.0, 10.0)).unwrap();
        assert_eq!(svc.cache_stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(a.series[0].value, b.series[0].value);

        // New ingest moves the watermark: the cached answer is stale
        // and the recompute sees the new point.
        {
            let store = svc.store();
            let mut store = store.write();
            let id = store.resolve("node00/power");
            store.append_id(id, 3.0, 400.0);
        }
        let c = svc.query(&mean_req(0.0, 10.0)).unwrap();
        assert_eq!(svc.cache_stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(c.series[0].value, Some(250.0));
        assert!(b.series[0].value != c.series[0].value);
    }

    #[test]
    fn distinct_windows_cache_separately() {
        let svc = service_with(&[(0.0, 100.0), (1.0, 200.0)]);
        svc.query(&mean_req(0.0, 10.0)).unwrap();
        svc.query(&mean_req(0.0, 5.0)).unwrap();
        svc.query(&mean_req(0.0, 10.0)).unwrap();
        assert_eq!(svc.cache_stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut db = TsDb::new();
        let id = db.resolve("node00/power");
        db.append_id(id, 0.0, 50.0);
        let svc = QueryService::over_store(
            db,
            &ObsHub::monotonic(),
            QueryServiceConfig {
                cache_capacity: 0,
                ..QueryServiceConfig::default()
            },
        );
        svc.query(&mean_req(0.0, 1.0)).unwrap();
        svc.query(&mean_req(0.0, 1.0)).unwrap();
        assert_eq!(svc.cache_stats(), CacheStats::default());
    }

    #[test]
    fn lru_evicts_oldest_entry_at_capacity() {
        let mut cache = RollupCache::new(2);
        let agg = CachedAgg {
            value: Some(1.0),
            coverage: QueryCoverage::default(),
        };
        let k = |t1: f64| agg_key(QueryOp::Mean, Resolution::Raw, 0.0, t1);
        cache.insert(k(1.0), "a", 1, agg);
        cache.insert(k(2.0), "b", 1, agg);
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        assert!(cache.get(k(1.0), "a", 1).is_some());
        cache.insert(k(3.0), "c", 1, agg);
        assert!(cache.get(k(1.0), "a", 1).is_some());
        assert!(cache.get(k(2.0), "b", 1).is_none());
        assert!(cache.get(k(3.0), "c", 1).is_some());
        assert_eq!(cache.len, 2);
    }

    #[test]
    fn unknown_entities_answer_not_found() {
        let svc = service_with(&[(0.0, 1.0)]);
        let err = svc
            .rollup_job(&JobRollupRequest {
                job_id: 7,
                measured: false,
            })
            .unwrap_err();
        assert_eq!(err.status(), 404);
        let err = svc
            .profile_job(&JobProfileRequest {
                job_id: 7,
                decimate: 1,
            })
            .unwrap_err();
        assert_eq!(err.status(), 404);
        let err = svc
            .rollup_user(&UserRollupRequest { user_id: Some(9) })
            .unwrap_err();
        assert_eq!(err.status(), 404);
    }

    #[test]
    fn requests_are_instrumented() {
        let svc = service_with(&[(0.0, 1.0)]);
        svc.health();
        let _ = svc.query(&mean_req(0.0, 1.0));
        let _ = svc.rollup_job(&JobRollupRequest {
            job_id: 1,
            measured: false,
        });
        let text = svc.metrics_text();
        assert!(text.contains("api_requests_total 3"), "{text}");
        assert!(text.contains("api_errors_total 1"), "{text}");
    }
}
