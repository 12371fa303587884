//! Complete acquisition chains for node power monitoring, including the
//! related-work baselines of §V-C.
//!
//! Each [`MonitorChain`] models sensor → ADC → rate reduction for one
//! monitoring system, so E3 can compare energy-measurement fidelity
//! across: the D.A.V.I.D.E. energy gateway (800 kS/s → 50 kS/s averaged),
//! HDEEM (8 kS/s averaged via FPGA+BMC), PowerInsight and ArduPower
//! (≈1 kS/s instantaneous via external ADCs) and plain IPMI polling
//! (≈1 S/s instantaneous, no timestamps, aliased).

use crate::adc::SarAdc;
use crate::decimation::{boxcar_decimate, pick_decimate};
use crate::sensors::PowerSensor;
use davide_core::power::{energy_error_pct, PowerTrace};
use davide_core::rng::Rng;
use davide_core::units::Joules;

/// How the chain reduces the ADC rate to its reporting rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateReduction {
    /// Hardware averaging (alias-free energy accounting).
    Averaged,
    /// Instantaneous snapshots (aliases).
    Instantaneous,
}

/// A complete monitoring chain.
#[derive(Debug, Clone)]
pub struct MonitorChain {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Analog front-end.
    pub sensor: PowerSensor,
    /// Converter model (None = BMC register readout, no extra
    /// quantisation beyond the sensor).
    pub adc: Option<SarAdc>,
    /// Rate the chain reports samples at, Hz.
    pub report_rate_hz: f64,
    /// Averaging or snapshotting.
    pub reduction: RateReduction,
    /// RMS timestamp error attached to reported samples, seconds.
    pub timestamp_error_s: f64,
}

impl MonitorChain {
    /// The D.A.V.I.D.E. energy gateway: shunt on the DC backplane,
    /// AM335x at 800 kS/s, hardware-averaged ×16 to 50 kS/s,
    /// PTP-hardware timestamps.
    pub fn davide_eg(rng: &mut Rng) -> Self {
        MonitorChain {
            name: "DAVIDE EG (800kS/s→50kS/s avg)",
            sensor: PowerSensor::davide_shunt(rng),
            adc: Some(SarAdc::am335x_power_channel()),
            report_rate_hz: 50_000.0,
            reduction: RateReduction::Averaged,
            timestamp_error_s: 1e-6,
        }
    }

    /// HDEEM \[25\]\[26\]: Hall sensors per power line, FPGA acquisition at
    /// 8 kS/s (alias-free), accurate timestamps, but readout through the
    /// closed BMC.
    pub fn hdeem(rng: &mut Rng) -> Self {
        MonitorChain {
            name: "HDEEM (8kS/s avg via BMC)",
            sensor: PowerSensor::hall_effect(rng),
            adc: Some(SarAdc {
                bits: 16,
                full_scale_min: 0.0,
                full_scale_max: 4000.0,
                sample_rate: 8_000.0,
                aperture_jitter_s: 50e-9,
            }),
            report_rate_hz: 8_000.0,
            reduction: RateReduction::Averaged,
            timestamp_error_s: 5e-6,
        }
    }

    /// PowerInsight \[28\]: BeagleBone + *external* ADCs at 1 kS/s,
    /// instantaneous samples, custom interface.
    pub fn powerinsight(rng: &mut Rng) -> Self {
        MonitorChain {
            name: "PowerInsight (1kS/s inst.)",
            sensor: PowerSensor::davide_shunt(rng),
            adc: Some(SarAdc {
                bits: 12,
                full_scale_min: 0.0,
                full_scale_max: 4000.0,
                sample_rate: 1_000.0,
                aperture_jitter_s: 100e-9,
            }),
            report_rate_hz: 1_000.0,
            reduction: RateReduction::Instantaneous,
            timestamp_error_s: 100e-6,
        }
    }

    /// ArduPower \[27\]: Arduino Mega wattmeter, ~1 kS/s aggregate,
    /// instantaneous, 10-bit ADC.
    pub fn ardupower(rng: &mut Rng) -> Self {
        MonitorChain {
            name: "ArduPower (1kS/s inst., 10-bit)",
            sensor: PowerSensor::hall_effect(rng),
            adc: Some(SarAdc {
                bits: 10,
                full_scale_min: 0.0,
                full_scale_max: 4000.0,
                sample_rate: 1_000.0,
                aperture_jitter_s: 500e-9,
            }),
            report_rate_hz: 1_000.0,
            reduction: RateReduction::Instantaneous,
            timestamp_error_s: 1e-3,
        }
    }

    /// IPMI BMC polling: ~1 S/s, instantaneous register reads, no
    /// timestamping (seconds of uncertainty), coarse resolution.
    pub fn ipmi(rng: &mut Rng) -> Self {
        MonitorChain {
            name: "IPMI BMC (1S/s inst., no ts)",
            sensor: PowerSensor {
                noise_rms_w: 4.0,
                ..PowerSensor::hall_effect(rng)
            },
            adc: Some(SarAdc {
                bits: 8,
                full_scale_min: 0.0,
                full_scale_max: 4000.0,
                sample_rate: 1.0,
                aperture_jitter_s: 1e-6,
            }),
            report_rate_hz: 1.0,
            reduction: RateReduction::Instantaneous,
            timestamp_error_s: 1.0,
        }
    }

    /// Pass a ground-truth trace (rendered at a high rate, ≥ the chain's
    /// ADC rate) through the full chain and return the reported trace.
    pub fn acquire(&self, truth: &PowerTrace, rng: &mut Rng) -> PowerTrace {
        // 1. Analog front-end at the truth rate.
        let analog = self.sensor.acquire(truth, rng);
        // 2. Bring to the ADC sampling grid.
        let adc_rate = self
            .adc
            .as_ref()
            .map_or(truth.sample_rate(), |a| a.sample_rate);
        let at_adc_rate = if (adc_rate - truth.sample_rate()).abs() < 1e-6 {
            analog
        } else {
            let m = (truth.sample_rate() / adc_rate).round() as usize;
            // The converter sees the instantaneous analog value at its
            // sampling instants (anti-aliasing only from the sensor pole).
            pick_decimate(&analog, m.max(1))
        };
        // 3. Quantise.
        let digital = match &self.adc {
            Some(adc) => adc.digitise(&at_adc_rate),
            None => at_adc_rate,
        };
        // 4. Reduce to the report rate.
        let m = (digital.sample_rate() / self.report_rate_hz).round() as usize;
        if m <= 1 {
            digital
        } else {
            match self.reduction {
                RateReduction::Averaged => boxcar_decimate(&digital, m),
                RateReduction::Instantaneous => pick_decimate(&digital, m),
            }
        }
    }

    /// Energy-measurement error (percent) for this chain on `truth`.
    pub fn energy_error(&self, truth: &PowerTrace, rng: &mut Rng) -> f64 {
        let reported = self.acquire(truth, rng);
        energy_error_pct(reported.energy_rect(), truth.energy())
    }

    /// Measured energy for this chain on `truth`.
    pub fn measured_energy(&self, truth: &PowerTrace, rng: &mut Rng) -> Joules {
        self.acquire(truth, rng).energy_rect()
    }
}

/// All five chains, freshly calibrated from `rng`, EG first.
pub fn all_chains(rng: &mut Rng) -> Vec<MonitorChain> {
    vec![
        MonitorChain::davide_eg(&mut rng.fork()),
        MonitorChain::hdeem(&mut rng.fork()),
        MonitorChain::powerinsight(&mut rng.fork()),
        MonitorChain::ardupower(&mut rng.fork()),
        MonitorChain::ipmi(&mut rng.fork()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::WorkloadWaveform;

    fn truth(seed: u64, duration: f64) -> PowerTrace {
        let mut rng = Rng::seed_from(seed);
        WorkloadWaveform::hpc_job(1700.0, 0.7).render(800_000.0, duration, &mut rng)
    }

    #[test]
    fn eg_chain_reports_at_50ksps() {
        let mut rng = Rng::seed_from(1);
        let t = truth(10, 0.2);
        let eg = MonitorChain::davide_eg(&mut rng);
        let out = eg.acquire(&t, &mut rng);
        assert!((out.sample_rate() - 50_000.0).abs() < 1.0);
        assert_eq!(out.len(), 10_000);
    }

    #[test]
    fn eg_energy_error_below_one_percent() {
        let mut rng = Rng::seed_from(2);
        let t = truth(11, 1.0);
        let eg = MonitorChain::davide_eg(&mut rng);
        let err = eg.energy_error(&t, &mut rng);
        assert!(err < 1.0, "EG error {err}% too high");
    }

    #[test]
    fn chain_rates_match_claims() {
        let mut rng = Rng::seed_from(3);
        let rates: Vec<f64> = all_chains(&mut rng)
            .iter()
            .map(|c| c.report_rate_hz)
            .collect();
        assert_eq!(rates, vec![50_000.0, 8_000.0, 1_000.0, 1_000.0, 1.0]);
    }

    #[test]
    fn ipmi_worst_eg_best_on_bursty_load() {
        let mut rng = Rng::seed_from(4);
        let mut gen = Rng::seed_from(12);
        let t = WorkloadWaveform::gpu_burst(1700.0).render(800_000.0, 2.0, &mut gen);
        let chains = all_chains(&mut rng);
        let errs: Vec<f64> = chains
            .iter()
            .map(|c| c.energy_error(&t, &mut rng))
            .collect();
        let eg = errs[0];
        let ipmi = errs[4];
        assert!(eg < 1.0, "EG {eg}%");
        assert!(ipmi > eg * 2.0, "IPMI {ipmi}% vs EG {eg}%");
    }

    #[test]
    fn averaged_chains_beat_instantaneous_at_same_rate() {
        // Build a synthetic pair: same 1 kS/s rate, averaged vs
        // instantaneous, on a phase-switching signal.
        let mut rng = Rng::seed_from(5);
        let mut gen = Rng::seed_from(6);
        let t = WorkloadWaveform::hpc_job(1500.0, 0.11).render(800_000.0, 2.0, &mut gen);
        let mut avg = MonitorChain::powerinsight(&mut rng.fork());
        avg.reduction = RateReduction::Averaged;
        avg.sensor = PowerSensor::ideal();
        let mut inst = MonitorChain::powerinsight(&mut rng.fork());
        inst.sensor = PowerSensor::ideal();
        // Averaged path needs the full-rate stream: give it an ADC at
        // the truth rate that then averages down.
        avg.adc = Some(SarAdc {
            sample_rate: 800_000.0,
            ..SarAdc::am335x_power_channel()
        });
        let e_avg = avg.energy_error(&t, &mut rng);
        let e_inst = inst.energy_error(&t, &mut rng);
        assert!(
            e_avg <= e_inst + 0.05,
            "averaging must not lose to snapshots: {e_avg}% vs {e_inst}%"
        );
    }

    #[test]
    fn timestamp_errors_ordered() {
        let mut rng = Rng::seed_from(7);
        let chains = all_chains(&mut rng);
        assert!(chains[0].timestamp_error_s < chains[1].timestamp_error_s);
        assert!(chains[1].timestamp_error_s < chains[4].timestamp_error_s);
        assert!(chains[4].timestamp_error_s >= 1.0, "IPMI: seconds");
    }
}
