//! # davide-sched
//!
//! The power-aware system management layer of D.A.V.I.D.E. (§III-A2 of
//! the paper): a SLURM-like batch layer extended with per-job power
//! prediction, a proactive power-capped dispatcher, reactive node
//! throttling and per-user energy accounting.
//!
//! * [`job`] — jobs, lifecycle, QoS metrics;
//! * [`workload`] — synthetic trace generation (the production-trace
//!   substitution; see DESIGN.md);
//! * [`policy`] — FCFS, EASY backfill and the power-aware proactive
//!   dispatcher;
//! * [`simulator`] — event-driven cluster simulation with reactive DVFS
//!   capping;
//! * [`power_predictor`] — the trained "EP" models feeding the dispatcher;
//! * [`cap`] — time-varying facility power envelopes ([`CapSchedule`]);
//! * [`controlplane`] — the live closed loop: telemetry → predictor →
//!   dispatcher → per-node capping (Fig. 4 of the paper). It owns no
//!   plant: the `davide-sim` harness supplies one;
//! * [`accounting`] — per-job/per-user energy ledger ("EA");
//! * [`metrics`] — report rows for the E11/E12 experiment tables.

#![warn(missing_docs)]

pub mod accounting;
pub mod cap;
pub mod controlplane;
pub mod job;
pub mod metrics;
pub mod placement;
pub mod policy;
pub mod power_predictor;
pub mod simulator;
pub mod workload;

pub use accounting::{EnergyLedger, Tariff};
pub use cap::CapSchedule;
pub use controlplane::{
    ControlMode, ControlPlane, ControlPlaneConfig, ControlPlaneReport, NodeSnapshot,
};
pub use job::{Job, JobId, JobState};
pub use metrics::{report, SimReport};
pub use placement::{NodePool, PlacementStrategy};
pub use policy::{ClusterView, EasyBackfill, Fcfs, Policy};
pub use power_predictor::{OnlinePowerPredictor, PowerPredictor};
pub use simulator::{simulate, SimConfig, SimOutcome};
pub use workload::{WorkloadConfig, WorkloadGenerator};
