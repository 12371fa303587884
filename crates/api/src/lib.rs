//! # davide-api
//!
//! The unified query front-end of the D.A.V.I.D.E. management node:
//! the one read-path surface through which accounting and monitoring
//! consumers see the cluster (§III-B of the paper describes the
//! management stack this front-end caps).
//!
//! Two layers:
//!
//! * [`service`] — [`QueryService`], a typed, versioned API over any
//!   [`davide_telemetry::SeriesRead`] store plus the scheduler's
//!   [`davide_sched::accounting::EnergyLedger`]: point/range/aggregate
//!   series queries with [`davide_telemetry::QueryCoverage`]
//!   provenance, per-user and per-job energy rollups, decimated job
//!   power profiles with phase detection, health and tier statistics.
//!   Aggregate answers are memoised in a watermark-invalidated LRU
//!   cache so repeated accounting queries never re-scan history.
//! * [`http`] — [`ApiServer`], a std-only blocking HTTP/1.1 server
//!   (thread pool over `TcpListener`, no async runtime) exposing the
//!   service at `/health`, `/metrics`, `/v1/query`,
//!   `/v1/rollup/{user,job}`, `/v1/profile/job` and the observability
//!   surface `/v1/trace/grants`, `/v1/obs/metrics`, `/v1/obs/flight`
//!   (cap-grant causal traces, the federation-wide counter rollup and
//!   the per-rack flight rings of attached
//!   [`ObsHub`](davide_obs::ObsHub)s — see
//!   [`QueryService::attach_rack_obs`]). Every JSON body is
//!   produced by the same deterministic serializer the typed layer
//!   uses, so an HTTP answer is bit-identical to the direct
//!   [`QueryService`] call it wraps — a property the differential
//!   tests in `tests/api_http.rs` enforce.
//!
//! [`types`] holds the request/response DTOs shared by both layers and
//! [`client`] a minimal keep-alive HTTP client used by the test suite,
//! E27's HTTP load and the `perfbench` `serve` workload.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod service;
pub mod types;

pub use client::HttpClient;
pub use http::{ApiServer, ApiServerConfig, RunningServer};
pub use service::{CacheStats, JobIndex, JobRecord, QueryService, QueryServiceConfig};
pub use types::{
    ApiError, FlightEventDto, GrantEventDto, GrantSpanDto, HealthResponse, JobProfileRequest,
    JobProfileResponse, JobRollupRequest, JobRollupResponse, LatencyDto, ObsFlightResponse,
    ObsMetricsResponse, QueryOp, QueryRequest, QueryResponse, RackFlight, RackGrantTrace,
    SeriesAnswer, TraceGrantsResponse, UserRollup, UserRollupRequest, UserRollupResponse,
    API_VERSION,
};
