//! Experiment implementations, grouped by the paper section they
//! reproduce.

pub mod acquisition;
pub mod api;
pub mod applications;
pub mod controlplane;
pub mod fanout;
pub mod federation;
pub mod ingest;
pub mod management;
pub mod monitoring;
pub mod obs;
pub mod storage;
pub mod system;

/// `--smoke` (or the env var it sets) shrinks an experiment for CI.
pub const SMOKE_ENV: &str = "DAVIDE_EXPERIMENTS_SMOKE";

/// Whether the CI-sized variant was requested.
pub(crate) fn smoke() -> bool {
    std::env::var_os(SMOKE_ENV).is_some()
}
