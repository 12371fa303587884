//! The BeagleBone Black's 12-bit SAR ADC (TI AM335x) model.
//!
//! §III-A1: the AM335x integrates a 12-bit successive-approximation ADC
//! supporting up to 1.6 MS/s across 8 multiplexed channels. The energy
//! gateway runs it at 800 kS/s on the power channels and decimates in
//! hardware to 50 kS/s. This module models quantisation, full-scale
//! clipping and aperture jitter; the acquisition path scans the eight
//! channels through [`crate::acquisition::AcquisitionConfig::channels`].

use davide_core::power::PowerTrace;
use davide_core::rng::Rng;
use davide_core::time::SimTime;

/// A successive-approximation ADC channel configuration.
#[derive(Debug, Clone)]
pub struct SarAdc {
    /// Resolution in bits (AM335x: 12).
    pub bits: u32,
    /// Watts mapped to code 0.
    pub full_scale_min: f64,
    /// Watts mapped to the maximum code.
    pub full_scale_max: f64,
    /// Sampling rate in samples/s.
    pub sample_rate: f64,
    /// RMS aperture jitter in seconds.
    pub aperture_jitter_s: f64,
}

impl SarAdc {
    /// The AM335x ADC as configured for a node power channel:
    /// 12 bits over 0–4 kW at 800 kS/s.
    pub fn am335x_power_channel() -> Self {
        SarAdc {
            bits: 12,
            full_scale_min: 0.0,
            full_scale_max: 4000.0,
            sample_rate: 800_000.0,
            aperture_jitter_s: 5e-9,
        }
    }

    /// Per-component channel: finer range for a 400 W rail.
    pub fn am335x_component_channel() -> Self {
        SarAdc {
            bits: 12,
            full_scale_min: 0.0,
            full_scale_max: 400.0,
            sample_rate: 800_000.0,
            aperture_jitter_s: 5e-9,
        }
    }

    /// Number of quantisation codes.
    pub fn codes(&self) -> u32 {
        1u32 << self.bits
    }

    /// LSB size in watts.
    pub fn lsb(&self) -> f64 {
        (self.full_scale_max - self.full_scale_min) / (self.codes() - 1) as f64
    }

    /// Quantise one analog value to a code.
    pub fn quantise(&self, watts: f64) -> u32 {
        let clamped = watts.clamp(self.full_scale_min, self.full_scale_max);
        (((clamped - self.full_scale_min) / self.lsb()).round() as u32).min(self.codes() - 1)
    }

    /// Convert a code back to watts.
    pub fn to_watts(&self, code: u32) -> f64 {
        self.full_scale_min + code as f64 * self.lsb()
    }

    /// Sample a continuous signal `f(t)` for `duration_s` seconds,
    /// applying aperture jitter and quantisation. Returns the digitised
    /// trace at the ADC rate.
    pub fn sample(
        &self,
        mut f: impl FnMut(f64) -> f64,
        duration_s: f64,
        rng: &mut Rng,
    ) -> PowerTrace {
        let n = (self.sample_rate * duration_s).round() as usize;
        let dt = 1.0 / self.sample_rate;
        let samples = (0..n)
            .map(|i| {
                let t = i as f64 * dt + rng.normal(0.0, self.aperture_jitter_s);
                self.to_watts(self.quantise(f(t.max(0.0))))
            })
            .collect();
        PowerTrace::new(SimTime::ZERO, dt, samples)
    }

    /// Re-digitise an already-sampled trace (e.g. after the analog
    /// sensor model), keeping its geometry.
    pub fn digitise(&self, analog: &PowerTrace) -> PowerTrace {
        let samples = analog
            .samples
            .iter()
            .map(|&w| self.to_watts(self.quantise(w)))
            .collect();
        PowerTrace::new(analog.t0, analog.dt, samples)
    }

    /// Ideal quantisation SNR in dB for a full-scale sine:
    /// `6.02·bits + 1.76`.
    pub fn ideal_snr_db(&self) -> f64 {
        6.02 * self.bits as f64 + 1.76
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_adc_parameters() {
        let adc = SarAdc::am335x_power_channel();
        assert_eq!(adc.bits, 12);
        assert_eq!(adc.codes(), 4096);
        assert_eq!(adc.sample_rate, 800_000.0);
        // 12-bit ideal SNR ≈ 74 dB.
        assert!((adc.ideal_snr_db() - 74.0).abs() < 0.1);
        // LSB on the 4 kW range is ~1 W.
        assert!((adc.lsb() - 0.977).abs() < 0.01);
    }

    #[test]
    fn quantise_roundtrip_within_lsb() {
        let adc = SarAdc::am335x_power_channel();
        for w in [0.0, 17.3, 523.9, 1999.5, 3999.9] {
            let got = adc.to_watts(adc.quantise(w));
            assert!((got - w).abs() <= adc.lsb() / 2.0 + 1e-9, "w={w} got={got}");
        }
    }

    #[test]
    fn clipping_at_full_scale() {
        let adc = SarAdc::am335x_power_channel();
        assert_eq!(adc.quantise(-100.0), 0);
        assert_eq!(adc.quantise(9999.0), adc.codes() - 1);
        assert!((adc.to_watts(adc.codes() - 1) - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn component_channel_has_finer_lsb() {
        let node = SarAdc::am335x_power_channel();
        let comp = SarAdc::am335x_component_channel();
        assert!(comp.lsb() < node.lsb() / 5.0);
    }

    #[test]
    fn sampling_a_dc_signal_is_exact_to_lsb() {
        let mut rng = Rng::seed_from(1);
        let adc = SarAdc::am335x_power_channel();
        let tr = adc.sample(|_| 1723.0, 0.01, &mut rng);
        assert_eq!(tr.len(), 8000);
        assert!((tr.mean().0 - 1723.0).abs() < adc.lsb());
    }

    #[test]
    fn quantisation_error_bounded_on_dynamic_signal() {
        let mut rng = Rng::seed_from(2);
        let adc = SarAdc::am335x_power_channel();
        let f = |t: f64| 2000.0 + 500.0 * (2.0 * std::f64::consts::PI * 100.0 * t).sin();
        let tr = adc.sample(f, 0.05, &mut rng);
        for (i, &s) in tr.samples.iter().enumerate() {
            let truth = f(tr.time_of(i));
            assert!(
                (s - truth).abs() < adc.lsb() * 2.0,
                "sample {i}: {s} vs {truth}"
            );
        }
    }
}
