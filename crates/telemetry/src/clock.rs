//! Clock synchronisation: free-running oscillators, NTP-style and
//! PTP-style (IEEE 1588) discipline.
//!
//! §III-A1: the BBB "integrates hardware-support for device
//! synchronization via the Precision Time Protocol", which is what lets
//! D.A.V.I.D.E. correlate power measurements *across* nodes and with
//! application phases. The companion study \[13\] compared synchronisation
//! protocols for exactly this use; E5 reproduces its conclusion: NTP
//! leaves millisecond-scale residuals, hardware-timestamped PTP leaves
//! sub-microsecond ones.

use davide_core::rng::Rng;

/// A free-running crystal oscillator with deterministic drift and
/// random-walk wander.
#[derive(Debug, Clone)]
pub struct Oscillator {
    /// Constant frequency error in parts-per-million.
    pub drift_ppm: f64,
    /// Random-walk intensity in ppm·√s (frequency wander).
    pub wander_ppm: f64,
    /// Current offset from true time, seconds.
    pub offset_s: f64,
    /// Current fractional frequency error (starts at `drift_ppm`).
    freq_error_ppm: f64,
}

impl Oscillator {
    /// A typical uncompensated crystal: ±20 ppm initial tolerance.
    pub fn crystal(rng: &mut Rng) -> Self {
        let drift = rng.uniform_in(-20.0, 20.0);
        Oscillator {
            drift_ppm: drift,
            wander_ppm: 0.02,
            offset_s: rng.uniform_in(-0.5, 0.5),
            freq_error_ppm: drift,
        }
    }

    /// Advance true time by `dt` seconds, accumulating offset.
    pub fn advance(&mut self, dt: f64, rng: &mut Rng) {
        self.freq_error_ppm += rng.normal(0.0, self.wander_ppm * dt.sqrt());
        self.offset_s += self.freq_error_ppm * 1e-6 * dt;
    }

    /// Local timestamp for a true time `t`.
    pub fn read(&self, t: f64) -> f64 {
        t + self.offset_s
    }

    /// Apply a phase (offset) correction.
    pub fn step_phase(&mut self, correction_s: f64) {
        self.offset_s -= correction_s;
    }

    /// Apply a frequency correction in ppm.
    pub fn adjust_frequency(&mut self, correction_ppm: f64) {
        self.freq_error_ppm -= correction_ppm;
    }
}

/// A time-sync protocol's measurement characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncProtocol {
    /// Seconds between synchronisation exchanges.
    pub interval_s: f64,
    /// RMS error of one offset measurement (network jitter +
    /// timestamping resolution).
    pub measurement_noise_s: f64,
    /// Systematic path-asymmetry bias of the offset measurement.
    pub asymmetry_bias_s: f64,
    /// Human name.
    pub name: &'static str,
}

impl SyncProtocol {
    /// Software-timestamped NTP over the management Ethernet: exchanges
    /// every 16 s, hundreds of microseconds of jitter, some asymmetry.
    pub fn ntp() -> Self {
        SyncProtocol {
            interval_s: 16.0,
            measurement_noise_s: 250e-6,
            asymmetry_bias_s: 120e-6,
            name: "NTP (software timestamps)",
        }
    }

    /// Hardware-timestamped PTP (IEEE 1588) on the BBB PHY: exchanges
    /// every second, tens of nanoseconds of jitter, negligible asymmetry
    /// on the switched management network.
    pub fn ptp_hw() -> Self {
        SyncProtocol {
            interval_s: 1.0,
            measurement_noise_s: 60e-9,
            asymmetry_bias_s: 20e-9,
            name: "PTP (hardware timestamps)",
        }
    }

    /// PTP with software timestamps (the degraded fallback measured in
    /// \[13\]): protocol cadence of PTP, jitter closer to NTP.
    pub fn ptp_sw() -> Self {
        SyncProtocol {
            interval_s: 1.0,
            measurement_noise_s: 25e-6,
            asymmetry_bias_s: 8e-6,
            name: "PTP (software timestamps)",
        }
    }

    /// One two-way exchange: returns the *measured* offset of `osc`
    /// versus the grandmaster, corrupted by noise and asymmetry.
    pub fn measure_offset(&self, osc: &Oscillator, rng: &mut Rng) -> f64 {
        osc.offset_s + self.asymmetry_bias_s + rng.normal(0.0, self.measurement_noise_s)
    }
}

/// PI servo disciplining an oscillator from protocol measurements.
#[derive(Debug, Clone)]
pub struct ClockServo {
    /// Protocol supplying measurements.
    pub protocol: SyncProtocol,
    /// Proportional gain: fraction of the measured offset stepped out
    /// each exchange.
    pub kp: f64,
    /// Integral gain: fraction of the inferred frequency error trimmed
    /// each exchange.
    pub ki: f64,
}

impl ClockServo {
    /// Standard gains: correct 70 % of the phase and 30 % of the
    /// inferred frequency error per exchange.
    pub fn new(protocol: SyncProtocol) -> Self {
        ClockServo {
            protocol,
            kp: 0.7,
            ki: 0.3,
        }
    }

    /// Run one exchange: measure, correct phase, trim frequency.
    ///
    /// The persistent part of the per-interval offset is what a constant
    /// frequency error accumulates, so `offset / interval` (in ppm) is
    /// the servo's frequency-error estimate.
    pub fn discipline(&mut self, osc: &mut Oscillator, rng: &mut Rng) {
        let measured = self.protocol.measure_offset(osc, rng);
        osc.step_phase(self.kp * measured);
        let freq_est_ppm = measured / self.protocol.interval_s * 1e6;
        osc.adjust_frequency((self.ki * freq_est_ppm).clamp(-10.0, 10.0));
    }
}

/// Residual-offset statistics from a sync simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncStats {
    /// Mean absolute residual offset, seconds.
    pub mean_abs_s: f64,
    /// RMS residual offset, seconds.
    pub rms_s: f64,
    /// Worst residual offset, seconds.
    pub max_abs_s: f64,
}

/// Simulate `duration_s` of a disciplined clock, sampling the residual
/// offset each second after an initial lock period of 30 exchanges.
pub fn run_sync_sim(protocol: SyncProtocol, duration_s: f64, seed: u64) -> SyncStats {
    let mut rng = Rng::seed_from(seed);
    let mut osc = Oscillator::crystal(&mut rng);
    let mut servo = ClockServo::new(protocol);
    let lock_time = 30.0 * protocol.interval_s;
    let mut residuals = Vec::new();
    let mut t = 0.0;
    let mut next_sync = 0.0;
    let dt = 0.25_f64.min(protocol.interval_s / 4.0);
    while t < duration_s + lock_time {
        if t >= next_sync {
            servo.discipline(&mut osc, &mut rng);
            next_sync += protocol.interval_s;
        }
        osc.advance(dt, &mut rng);
        if t >= lock_time {
            residuals.push(osc.offset_s);
        }
        t += dt;
    }
    let n = residuals.len().max(1) as f64;
    let mean_abs = residuals.iter().map(|r| r.abs()).sum::<f64>() / n;
    let rms = (residuals.iter().map(|r| r * r).sum::<f64>() / n).sqrt();
    let max_abs = residuals.iter().map(|r| r.abs()).fold(0.0, f64::max);
    SyncStats {
        mean_abs_s: mean_abs,
        rms_s: rms,
        max_abs_s: max_abs,
    }
}

/// Cross-node timestamp misalignment: two independently-disciplined
/// clocks stamping the same event differ by the difference of their
/// residual offsets. Returns the RMS misalignment.
pub fn cross_node_misalignment(protocol: SyncProtocol, duration_s: f64, seed: u64) -> f64 {
    let a = run_sync_sim(protocol, duration_s, seed);
    let b = run_sync_sim(protocol, duration_s, seed ^ 0xDEAD_BEEF);
    // Independent residuals add in quadrature.
    (a.rms_s * a.rms_s + b.rms_s * b.rms_s).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_running_oscillator_drifts() {
        let mut rng = Rng::seed_from(1);
        let mut osc = Oscillator::crystal(&mut rng);
        osc.offset_s = 0.0;
        let drift = osc.drift_ppm;
        for _ in 0..3600 {
            osc.advance(1.0, &mut rng);
        }
        // An undisciplined ±20 ppm crystal accumulates ~drift·3600 µs/h.
        let expected = drift * 1e-6 * 3600.0;
        assert!(
            (osc.offset_s - expected).abs() < 0.2e-3,
            "offset {} vs expected {expected}",
            osc.offset_s
        );
        assert!(osc.offset_s.abs() > 1e-6, "drift is not negligible");
    }

    #[test]
    fn read_applies_offset() {
        let mut rng = Rng::seed_from(2);
        let mut osc = Oscillator::crystal(&mut rng);
        osc.offset_s = 0.125;
        assert!((osc.read(100.0) - 100.125).abs() < 1e-12);
        osc.step_phase(0.125);
        assert!((osc.read(100.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn ptp_hw_achieves_sub_microsecond() {
        let stats = run_sync_sim(SyncProtocol::ptp_hw(), 600.0, 42);
        assert!(
            stats.rms_s < 1e-6,
            "hardware PTP must hold sub-µs: rms={}",
            stats.rms_s
        );
        assert!(stats.max_abs_s < 10e-6);
    }

    #[test]
    fn ntp_is_orders_of_magnitude_worse() {
        let ntp = run_sync_sim(SyncProtocol::ntp(), 600.0, 42);
        let ptp = run_sync_sim(SyncProtocol::ptp_hw(), 600.0, 42);
        assert!(
            ntp.rms_s > ptp.rms_s * 50.0,
            "ntp={} ptp={}",
            ntp.rms_s,
            ptp.rms_s
        );
        // NTP residuals sit in the 0.1–10 ms band.
        assert!(ntp.rms_s > 50e-6 && ntp.rms_s < 10e-3, "ntp={}", ntp.rms_s);
    }

    #[test]
    fn ptp_sw_sits_between() {
        let sw = run_sync_sim(SyncProtocol::ptp_sw(), 600.0, 7);
        let hw = run_sync_sim(SyncProtocol::ptp_hw(), 600.0, 7);
        let ntp = run_sync_sim(SyncProtocol::ntp(), 600.0, 7);
        assert!(hw.rms_s < sw.rms_s && sw.rms_s < ntp.rms_s);
    }

    #[test]
    fn cross_node_alignment_supports_50ksps_correlation() {
        // To correlate 50 kS/s (20 µs period) samples across nodes the
        // misalignment must be well below one sample period.
        let mis = cross_node_misalignment(SyncProtocol::ptp_hw(), 600.0, 99);
        assert!(mis < 2e-6, "misalignment {mis} ≥ 2 µs");
        let mis_ntp = cross_node_misalignment(SyncProtocol::ntp(), 600.0, 99);
        assert!(
            mis_ntp > 20e-6,
            "NTP cannot align 50 kS/s streams: {mis_ntp}"
        );
    }

    #[test]
    fn sync_sim_is_deterministic() {
        let a = run_sync_sim(SyncProtocol::ptp_hw(), 120.0, 5);
        let b = run_sync_sim(SyncProtocol::ptp_hw(), 120.0, 5);
        assert_eq!(a, b);
    }
}
