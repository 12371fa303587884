//! NVIDIA Tesla P100 (SXM2, NVLink) accelerator model.
//!
//! Envelope numbers from §II-B of the paper and the Pascal whitepaper:
//! 5.3 TFlops FP64 / 10.6 FP32 / 21.2 FP16, HBM2 at 732 GB/s, 16 GB,
//! 300 W TDP, four NVLink links at 40 GB/s bidirectional each.

use crate::dvfs::{p100_table, DvfsTable};
use crate::error::{CoreError, Result};
use crate::units::{Bytes, GBps, Gflops, Watts};
use serde::{Deserialize, Serialize};

/// Floating-point precision selector for peak-rate queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 64-bit IEEE double.
    Fp64,
    /// 32-bit IEEE single.
    Fp32,
    /// 16-bit IEEE half.
    Fp16,
}

/// Static description of a P100-class accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing/model name.
    pub name: String,
    /// Streaming multiprocessors.
    pub sms: u32,
    /// FP64 CUDA cores (P100: 32/SM × 56 SM = 1792).
    pub fp64_cores: u32,
    /// HBM2 capacity.
    pub memory: Bytes,
    /// HBM2 peak bandwidth.
    pub mem_bandwidth: GBps,
    /// Idle power with the part powered but quiescent.
    pub idle_power: Watts,
    /// Board TDP.
    pub tdp: Watts,
    /// NVLink links on the package (P100: 4).
    pub nvlink_links: u32,
    /// Graphics-clock ladder.
    pub dvfs: DvfsTable,
}

impl GpuSpec {
    /// Tesla P100 SXM2 with NVLink, as deployed in D.A.V.I.D.E.
    pub fn p100() -> Self {
        GpuSpec {
            name: "NVIDIA Tesla P100 SXM2 (NVLink)".to_string(),
            sms: 56,
            fp64_cores: 1792,
            memory: Bytes::from_gb(16.0),
            mem_bandwidth: GBps(732.0),
            idle_power: Watts(30.0),
            tdp: Watts(300.0),
            nvlink_links: 4,
            dvfs: p100_table(),
        }
    }

    /// Peak throughput at boost clock for a precision.
    pub fn peak_gflops(&self, prec: Precision) -> Gflops {
        let boost_ghz = self.dvfs.max().freq.ghz();
        // FMA counts as two flops per FP64 core per cycle.
        let fp64 = 2.0 * self.fp64_cores as f64 * boost_ghz;
        Gflops(match prec {
            Precision::Fp64 => fp64,
            Precision::Fp32 => 2.0 * fp64,
            Precision::Fp16 => 4.0 * fp64,
        })
    }
}

/// Runtime state of one accelerator: clock index, powered or gated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Immutable hardware description.
    pub spec: GpuSpec,
    pstate: usize,
    enabled: bool,
}

impl GpuModel {
    /// New accelerator at nominal (base) clock, powered on.
    pub fn new(spec: GpuSpec) -> Self {
        let pstate = spec.dvfs.nominal_index();
        GpuModel {
            spec,
            pstate,
            enabled: true,
        }
    }

    /// Current ladder index.
    #[inline]
    pub fn pstate(&self) -> usize {
        self.pstate
    }

    /// Energy-proportionality API (§IV): power the board on/off on demand.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Set the graphics-clock operating point.
    pub fn set_pstate(&mut self, idx: usize) -> Result<()> {
        if idx >= self.spec.dvfs.len() {
            return Err(CoreError::InvalidConfig(format!(
                "GPU p-state {idx} out of range (table has {})",
                self.spec.dvfs.len()
            )));
        }
        self.pstate = idx;
        Ok(())
    }

    /// Step the clock down one point; returns the new index.
    pub fn throttle(&mut self) -> usize {
        self.pstate = self.spec.dvfs.step_down(self.pstate);
        self.pstate
    }

    /// Step the clock up one point; returns the new index.
    pub fn unthrottle(&mut self) -> usize {
        self.pstate = self.spec.dvfs.step_up(self.pstate);
        self.pstate
    }

    /// Instantaneous board power at utilisation `util ∈ [0,1]`.
    ///
    /// A gated board draws a trickle (3 W of bridge logic); a powered
    /// board draws idle + dynamic·util·V²f.
    pub fn power(&self, util: f64) -> Watts {
        if !self.enabled {
            return Watts(3.0);
        }
        let util = util.clamp(0.0, 1.0);
        let k = self.spec.dvfs.dynamic_power_factor(self.pstate);
        // At boost clock the V²f factor is >1 and the board may transiently
        // exceed TDP before its own power limiter reacts; clamp at 1.1×TDP
        // which matches the P100 power-limit behaviour.
        let p = self.spec.idle_power + (self.spec.tdp - self.spec.idle_power) * (util * k);
        p.min(self.spec.tdp * 1.1)
    }

    /// Achievable FP64 throughput at utilisation `util`.
    pub fn gflops(&self, util: f64) -> Gflops {
        if !self.enabled {
            return Gflops::ZERO;
        }
        let util = util.clamp(0.0, 1.0);
        let f = self.spec.dvfs.state(self.pstate).freq.ghz();
        Gflops(2.0 * self.spec.fp64_cores as f64 * f * util)
    }

    /// Effective HBM2 bandwidth (memory clock is independent of the
    /// graphics ladder on Pascal, so gating is the only modifier).
    pub fn mem_bandwidth(&self) -> GBps {
        if self.enabled {
            self.spec.mem_bandwidth
        } else {
            GBps::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_published_peaks() {
        let spec = GpuSpec::p100();
        let fp64 = spec.peak_gflops(Precision::Fp64);
        let fp32 = spec.peak_gflops(Precision::Fp32);
        let fp16 = spec.peak_gflops(Precision::Fp16);
        assert!((fp64.tflops() - 5.3).abs() < 0.1, "fp64={fp64}");
        assert!((fp32.tflops() - 10.6).abs() < 0.2, "fp32={fp32}");
        assert!((fp16.tflops() - 21.2).abs() < 0.4, "fp16={fp16}");
    }

    #[test]
    fn power_envelope() {
        let mut gpu = GpuModel::new(GpuSpec::p100());
        assert_eq!(gpu.power(0.0), Watts(30.0));
        // Full util at base clock stays within TDP.
        assert!(gpu.power(1.0) <= Watts(300.0));
        // Boost clock is limited to 1.1 × TDP.
        gpu.set_pstate(gpu.spec.dvfs.len() - 1).unwrap();
        assert!(gpu.power(1.0) <= Watts(330.0) + Watts(1e-9));
    }

    #[test]
    fn gating_kills_power_and_perf() {
        let mut gpu = GpuModel::new(GpuSpec::p100());
        gpu.set_enabled(false);
        assert_eq!(gpu.power(1.0), Watts(3.0));
        assert_eq!(gpu.gflops(1.0), Gflops::ZERO);
        assert_eq!(gpu.mem_bandwidth(), GBps::ZERO);
        gpu.set_enabled(true);
        assert!(gpu.gflops(1.0) > Gflops::ZERO);
    }

    #[test]
    fn throttle_reduces_both_power_and_perf() {
        let mut gpu = GpuModel::new(GpuSpec::p100());
        let p0 = gpu.power(1.0);
        let g0 = gpu.gflops(1.0);
        gpu.throttle();
        gpu.throttle();
        assert!(gpu.power(1.0) < p0);
        assert!(gpu.gflops(1.0) < g0);
        // HBM bandwidth unaffected by graphics clock.
        assert_eq!(gpu.mem_bandwidth(), GBps(732.0));
    }

    #[test]
    fn pstate_bounds_checked() {
        let mut gpu = GpuModel::new(GpuSpec::p100());
        assert!(gpu.set_pstate(100).is_err());
        assert!(gpu.set_pstate(0).is_ok());
        for _ in 0..20 {
            gpu.throttle();
        }
        assert_eq!(gpu.pstate(), 0);
    }

    #[test]
    fn four_nvlink_links() {
        assert_eq!(GpuSpec::p100().nvlink_links, 4);
    }
}
