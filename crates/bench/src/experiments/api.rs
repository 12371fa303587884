//! E27 — the unified query front-end under load: in-process
//! [`QueryService`] QPS on cached rollups, HTTP throughput through the
//! std-only server, and read/ingest interference on one shared store.
//!
//! Three gates (full-run targets; `--smoke` scales to CI hardware):
//!
//! 1. cached-rollup point queries through the typed service (no HTTP)
//!    sustain ≥ 1 M QPS — the rollup cache must make repeated
//!    accounting queries allocation-light hash probes, not re-scans;
//! 2. the HTTP/1.1 server sustains ≥ 50 k req/s of keep-alive JSON
//!    query traffic;
//! 3. full-rate frame ingest into the same store degrades ≤ 20 % while
//!    the HTTP load runs (reads must not starve the write path).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use davide_api::{
    ApiServer, ApiServerConfig, HttpClient, QueryOp, QueryRequest, QueryService, QueryServiceConfig,
};
use davide_obs::ObsHub;
use davide_telemetry::gateway::power_topic;
use davide_telemetry::{Resolution, SeriesRead, ShardedTsDb};

use super::smoke;
use crate::header;

const NODES: u32 = 16;
const WINDOW_S: f64 = 60.0;

fn preloaded_service() -> QueryService<ShardedTsDb> {
    let hub = ObsHub::monotonic();
    let svc = QueryService::over_store(
        ShardedTsDb::new(4, 1 << 16, 1 << 12),
        &hub,
        QueryServiceConfig::default(),
    );
    let watts: Vec<f32> = (0..60_000)
        .map(|i| 1500.0 + 250.0 * ((i as f32) * 0.002).sin())
        .collect();
    {
        let store = svc.store();
        let mut store = store.write();
        for node in 0..NODES {
            store.append_frame(&power_topic(node, "node"), 0.0, 1e-3, &watts);
        }
    }
    svc
}

fn mean_query(node: u32) -> QueryRequest {
    QueryRequest::series(
        QueryOp::Mean,
        &power_topic(node, "node"),
        Resolution::Raw,
        0.0,
        WINDOW_S,
    )
}

/// Gate 1: cached-rollup QPS through the typed service.
fn service_qps_gate() {
    let svc = preloaded_service();
    let queries: Vec<QueryRequest> = (0..NODES).map(mean_query).collect();
    // Warm: one miss per series fills the cache.
    for q in &queries {
        svc.query(q).expect("warm query");
    }
    let iters: u64 = if smoke() { 200_000 } else { 4_000_000 };
    let t = Instant::now();
    for i in 0..iters {
        let q = &queries[(i % NODES as u64) as usize];
        let resp = svc.query(q).expect("cached query");
        assert!(resp.series[0].value.is_some());
    }
    let dt = t.elapsed().as_secs_f64();
    let qps = iters as f64 / dt;
    let stats = svc.cache_stats();
    println!(
        "service QPS: {iters} cached mean queries in {dt:.2} s = {:.2} M QPS \
         (cache {} hits / {} misses)",
        qps / 1e6,
        stats.hits,
        stats.misses
    );
    assert_eq!(
        stats.misses,
        u64::from(NODES),
        "steady state must be all cache hits"
    );
    let floor = if smoke() { 1.5e5 } else { 1e6 };
    assert!(
        qps >= floor,
        "cached-rollup QPS {qps:.0} under the {floor:.0} floor"
    );
}

/// Drive `threads` keep-alive HTTP clients against `addr` until `stop`.
fn spawn_http_load(
    addr: std::net::SocketAddr,
    threads: usize,
    stop: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
) -> Vec<std::thread::JoinHandle<()>> {
    let bodies: Vec<String> = (0..NODES)
        .map(|n| serde_json::to_string(&mean_query(n).to_value()))
        .collect();
    (0..threads)
        .map(|tid| {
            let stop = stop.clone();
            let requests = requests.clone();
            let bodies = bodies.clone();
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(addr).expect("client connect");
                let mut i = tid;
                while !stop.load(Ordering::Relaxed) {
                    let body = &bodies[i % bodies.len()];
                    i += 1;
                    match c.request("POST", "/v1/query", body) {
                        Ok((200, _)) => {
                            requests.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            if let Ok(nc) = HttpClient::connect(addr) {
                                c = nc;
                            }
                        }
                    }
                }
            })
        })
        .collect()
}

/// Gate 2: HTTP throughput. Returns the achieved rate.
fn http_gate(svc: &QueryService<ShardedTsDb>, threads: usize, secs: f64) -> f64 {
    let server = ApiServer::start(
        svc.clone(),
        ApiServerConfig {
            workers: threads,
            ..ApiServerConfig::default()
        },
    )
    .expect("server start");
    let stop = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicU64::new(0));
    let loaders = spawn_http_load(server.addr(), threads, stop.clone(), requests.clone());
    std::thread::sleep(Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Relaxed);
    for t in loaders {
        let _ = t.join();
    }
    server.stop();
    let rate = requests.load(Ordering::Relaxed) as f64 / secs;
    println!(
        "HTTP: {} requests in {secs:.1} s over {threads} connections = {:.0} req/s",
        requests.load(Ordering::Relaxed),
        rate
    );
    rate
}

/// Measure frame-ingest throughput into the service's store for
/// `secs`, optionally while an HTTP load runs against the same store.
fn ingest_rate(svc: &QueryService<ShardedTsDb>, secs: f64, under_load: Option<usize>) -> f64 {
    let server = under_load.map(|threads| {
        let server = ApiServer::start(
            svc.clone(),
            ApiServerConfig {
                workers: threads,
                ..ApiServerConfig::default()
            },
        )
        .expect("server start");
        let stop = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let loaders = spawn_http_load(server.addr(), threads, stop.clone(), requests.clone());
        (server, stop, loaders)
    });

    let chunk: Vec<f32> = vec![1500.0; 4096];
    let store = svc.store();
    // Start past both the query window (so cached answers stay
    // watermark-valid) and whatever an earlier measurement already
    // wrote to the ingest topics (stale appends are rejected).
    let mut t_sim = {
        let s = store.read();
        let resume = s
            .series_last(&power_topic(0, "ingest"))
            .map_or(0.0, |p| p.t + 1.0);
        (2.0 * WINDOW_S).max(resume)
    };
    let mut samples = 0u64;
    let t = Instant::now();
    let deadline = t + Duration::from_secs_f64(secs);
    while Instant::now() < deadline {
        {
            let mut s = store.write();
            for node in 0..NODES {
                samples += s.append_frame(&power_topic(node, "ingest"), t_sim, 1e-3, &chunk) as u64;
            }
        }
        t_sim += chunk.len() as f64 * 1e-3;
    }
    let rate = samples as f64 / t.elapsed().as_secs_f64();

    if let Some((server, stop, loaders)) = server {
        stop.store(true, Ordering::Relaxed);
        for l in loaders {
            let _ = l.join();
        }
        server.stop();
    }
    rate
}

/// E27 — unified query API under load (three gates).
pub fn e27() {
    header("e27", "Unified query API: service QPS, HTTP, interference");
    let (threads, secs) = if smoke() { (2, 0.5) } else { (4, 3.0) };

    service_qps_gate();

    let svc = preloaded_service();
    let rate = http_gate(&svc, threads, secs);
    let floor = if smoke() { 1e4 } else { 5e4 };
    assert!(
        rate >= floor,
        "HTTP rate {rate:.0} under the {floor:.0} floor"
    );

    // Gate 3: ingest solo vs under concurrent HTTP read load.
    let solo = ingest_rate(&svc, secs, None);
    let loaded = ingest_rate(&svc, secs, Some(threads));
    let kept = loaded / solo;
    println!(
        "ingest: solo {:.1} MS/s, under HTTP load {:.1} MS/s = {:.0} % kept",
        solo / 1e6,
        loaded / 1e6,
        kept * 100.0
    );
    // Full mode holds the paper-grade ≤20 % degradation bound. Smoke
    // runs on whatever CI gives it — on a single core the ingest
    // thread's fair share against `2×threads` busy HTTP threads is
    // ~1/5 of the machine, so the smoke floor only distinguishes
    // "writer still progresses" from writer starvation (~0 %).
    let keep_floor = if smoke() { 0.2 } else { 0.8 };
    assert!(
        kept >= keep_floor,
        "ingest under load kept {:.0} % (< {:.0} % floor)",
        kept * 100.0,
        keep_floor * 100.0
    );

    // The store saw both paths: preloaded queries plus live ingest.
    let n_series = svc.store().read().series_names().len();
    println!("store now carries {n_series} series (query + ingest topics)");
    assert_eq!(n_series, 2 * NODES as usize);
}
