//! # davide-bench
//!
//! The experiment harness: one function per table/figure-level claim of
//! the paper (see DESIGN.md §3 for the full index E1–E30, F1, F4), plus
//! the criterion micro-benchmarks under `benches/`.
//!
//! Run everything with
//! `cargo run -p davide-bench --release --bin experiments`, or a subset
//! with e.g. `... --bin experiments e3 e11`.

#![warn(missing_docs)]

pub mod experiments;

/// One experiment: id, title, and the function that prints its report.
pub struct Experiment {
    /// Identifier (`e1`…`e30`, `f1`, `f4`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Runner.
    pub run: fn(),
}

/// The registry of all experiments, in DESIGN.md order.
pub fn registry() -> Vec<Experiment> {
    use experiments::*;
    vec![
        Experiment {
            id: "e1",
            title: "Node & pilot-system envelope (§II-E, §II-I)",
            run: system::e1,
        },
        Experiment {
            id: "e2",
            title: "Top500/Green500 context (§I, §V-A)",
            run: system::e2,
        },
        Experiment {
            id: "e3",
            title: "Energy error vs monitoring chain (§III-A1, §V-C)",
            run: monitoring::e3,
        },
        Experiment {
            id: "e4",
            title: "ADC & decimation fidelity (§III-A1)",
            run: monitoring::e4,
        },
        Experiment {
            id: "e5",
            title: "PTP vs NTP time sync (§III-A1, [13])",
            run: monitoring::e5,
        },
        Experiment {
            id: "e6",
            title: "MQTT fan-out scaling (§III-A1)",
            run: monitoring::e6,
        },
        Experiment {
            id: "e7",
            title: "Rack PSU consolidation (§II-F)",
            run: system::e7,
        },
        Experiment {
            id: "e8",
            title: "Liquid vs air cooling & throttling (§II-C/G)",
            run: system::e8,
        },
        Experiment {
            id: "e9",
            title: "Node power capping (§III-A2)",
            run: management::e9,
        },
        Experiment {
            id: "e10",
            title: "Job power prediction accuracy ([17][18])",
            run: management::e10,
        },
        Experiment {
            id: "e11",
            title: "Proactive vs reactive scheduling (§III-A2)",
            run: management::e11,
        },
        Experiment {
            id: "e12",
            title: "Per-job/user energy accounting (Fig. 4 EA)",
            run: management::e12,
        },
        Experiment {
            id: "e13",
            title: "Energy-proportionality APIs (§IV)",
            run: management::e13,
        },
        Experiment {
            id: "e14",
            title: "QE proxy: FFT & NVLink (§IV-A)",
            run: applications::e14,
        },
        Experiment {
            id: "e15",
            title: "NEMO proxy: flat memory-bound profile (§IV-B)",
            run: applications::e15,
        },
        Experiment {
            id: "e16",
            title: "SPECFEM3D proxy: SEM scaling (§IV-C)",
            run: applications::e16,
        },
        Experiment {
            id: "e17",
            title: "BQCD proxy: even/odd CG (§IV-D)",
            run: applications::e17,
        },
        Experiment {
            id: "e18",
            title: "TTS vs ETS co-design tradeoff (§IV)",
            run: management::e18,
        },
        Experiment {
            id: "e19",
            title: "Burn-in acceptance suite (§I)",
            run: management::e19,
        },
        Experiment {
            id: "e20",
            title: "Smart profiler: phases & spectra (Fig. 4 Pr)",
            run: management::e20,
        },
        Experiment {
            id: "e21",
            title: "Telemetry ingest throughput (EG → MQTT → TsDb)",
            run: ingest::e21,
        },
        Experiment {
            id: "e22",
            title: "Closed-loop power control plane (Fig. 4)",
            run: controlplane::e22,
        },
        Experiment {
            id: "e23",
            title: "Fault-injection harness (telemetry → control-plane loop)",
            run: controlplane::e23,
        },
        Experiment {
            id: "e24",
            title: "Self-instrumented control loop (obs stack)",
            run: obs::e24,
        },
        Experiment {
            id: "e25",
            title: "Full-rate acquisition (45 EGs × 8 ch × 800 kS/s)",
            run: acquisition::e25,
        },
        Experiment {
            id: "e26",
            title: "Tiered Gorilla-compressed TsDb (storage engine)",
            run: storage::e26,
        },
        Experiment {
            id: "e27",
            title: "Unified query API: service QPS, HTTP, interference",
            run: api::e27,
        },
        Experiment {
            id: "e28",
            title: "Federated petaflops-class sim (multi-rack, global budget)",
            run: federation::e28,
        },
        Experiment {
            id: "e29",
            title: "Cap-grant tracing: overhead A/B + grant-to-actuation latency",
            run: federation::e29,
        },
        Experiment {
            id: "e30",
            title: "Broker fan-out (10k subscribers, QoS 1 end-to-end)",
            run: fanout::e30,
        },
        Experiment {
            id: "f1",
            title: "Fig. 1: cooling-loop state table",
            run: system::f1,
        },
        Experiment {
            id: "f4",
            title: "Fig. 4: end-to-end pipeline demo",
            run: management::f4,
        },
    ]
}

/// Print a section header.
pub fn header(id: &str, title: &str) {
    println!("\n{}", "=".repeat(74));
    println!("[{}] {}", id.to_uppercase(), title);
    println!("{}", "=".repeat(74));
}
