//! Spectral analysis of power traces.
//!
//! The smart profilers of §III-A1 "run data intelligence on the
//! monitored data to identify sources of not-optimality and hazards" —
//! in practice: look at the spectrum. Iteration frequencies, VRM ripple
//! and phase-switching harmonics all show up as lines in the PSD of the
//! 50 kS/s gateway stream. (The FFT kernel is shared with the
//! application proxies in `davide-apps`.)

use davide_apps::fft::fft_inplace;
use davide_apps::C64;
use davide_core::power::PowerTrace;

/// A one-sided power spectral density estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Frequency-bin spacing, Hz.
    pub df: f64,
    /// One-sided PSD values (bin `k` is frequency `k·df`), in W²/Hz.
    pub psd: Vec<f64>,
}

impl Spectrum {
    /// Number of bins.
    pub fn len(&self) -> usize {
        self.psd.len()
    }

    /// True when the spectrum is empty.
    pub fn is_empty(&self) -> bool {
        self.psd.is_empty()
    }

    /// Frequency of bin `k`.
    pub fn freq_of(&self, k: usize) -> f64 {
        k as f64 * self.df
    }

    /// The non-DC bin with the most power, as `(frequency, psd)`.
    pub fn dominant(&self) -> Option<(f64, f64)> {
        let (k, &v) = self
            .psd
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        Some((self.freq_of(k), v))
    }

    /// Total in-band power (integral of the PSD) over `[f_lo, f_hi]`.
    pub fn band_power(&self, f_lo: f64, f_hi: f64) -> f64 {
        self.psd
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = self.freq_of(*k);
                f >= f_lo && f <= f_hi
            })
            .map(|(_, &v)| v * self.df)
            .sum()
    }
}

fn hann(n: usize, i: usize) -> f64 {
    0.5 * (1.0 - (2.0 * std::f64::consts::PI * i as f64 / (n - 1) as f64).cos())
}

/// Periodogram of one (detrended, Hann-windowed, zero-padded) segment.
fn periodogram(samples: &[f64], rate: f64) -> Spectrum {
    let n = samples.len();
    assert!(n >= 4, "need at least 4 samples");
    let mean = samples.iter().sum::<f64>() / n as f64;
    let nfft = n.next_power_of_two();
    let mut buf = vec![C64::ZERO; nfft];
    let mut wss = 0.0; // window sum of squares for PSD normalisation
    for (i, &x) in samples.iter().enumerate() {
        let w = hann(n, i);
        wss += w * w;
        buf[i] = C64::real((x - mean) * w);
    }
    fft_inplace(&mut buf, false);
    let scale = 1.0 / (rate * wss);
    let half = nfft / 2;
    let mut psd = Vec::with_capacity(half + 1);
    for (k, z) in buf.iter().take(half + 1).enumerate() {
        // One-sided: double everything except DC and Nyquist.
        let factor = if k == 0 || k == half { 1.0 } else { 2.0 };
        psd.push(z.norm_sqr() * scale * factor);
    }
    Spectrum {
        df: rate / nfft as f64,
        psd,
    }
}

/// Welch PSD: average periodograms over 50 %-overlapping segments of
/// `segment_len` samples. The standard low-variance estimator a
/// profiler would apply to gateway streams.
pub fn welch_psd(trace: &PowerTrace, segment_len: usize) -> Spectrum {
    assert!(segment_len >= 8, "segment too short");
    assert!(trace.len() >= segment_len, "trace shorter than one segment");
    let rate = trace.sample_rate();
    let hop = segment_len / 2;
    let mut acc: Option<Spectrum> = None;
    let mut count = 0.0;
    let mut start = 0;
    while start + segment_len <= trace.len() {
        let seg = periodogram(&trace.samples[start..start + segment_len], rate);
        match &mut acc {
            None => acc = Some(seg),
            Some(a) => {
                for (x, y) in a.psd.iter_mut().zip(&seg.psd) {
                    *x += y;
                }
            }
        }
        count += 1.0;
        start += hop;
    }
    let mut spec = acc.expect("at least one segment");
    for v in &mut spec.psd {
        *v /= count;
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use davide_core::time::SimTime;

    fn tone_trace(rate: f64, n: usize, f: f64, amp: f64) -> PowerTrace {
        PowerTrace::from_fn(SimTime::ZERO, 1.0 / rate, n, |t| {
            1000.0 + amp * (2.0 * std::f64::consts::PI * f * t).sin()
        })
    }

    #[test]
    fn dominant_frequency_found() {
        let tr = tone_trace(50_000.0, 16_384, 440.0, 80.0);
        let spec = welch_psd(&tr, 4096);
        let (f, _) = spec.dominant().unwrap();
        assert!((f - 440.0).abs() < spec.df * 2.0, "found {f} Hz");
    }

    #[test]
    fn band_power_matches_tone_variance() {
        // A sine of amplitude A has variance A²/2 = 3200 W².
        let tr = tone_trace(50_000.0, 32_768, 1000.0, 80.0);
        let spec = welch_psd(&tr, 8192);
        let band = spec.band_power(900.0, 1100.0);
        assert!(
            (band - 3200.0).abs() / 3200.0 < 0.1,
            "band power {band} vs 3200"
        );
        // Out-of-band has almost nothing.
        let quiet = spec.band_power(5_000.0, 10_000.0);
        assert!(quiet < band * 1e-3, "quiet={quiet}");
    }

    #[test]
    fn psd_scales_with_amplitude_squared() {
        let a = welch_psd(&tone_trace(50_000.0, 16_384, 700.0, 40.0), 4096);
        let b = welch_psd(&tone_trace(50_000.0, 16_384, 700.0, 80.0), 4096);
        let pa = a.band_power(600.0, 800.0);
        let pb = b.band_power(600.0, 800.0);
        assert!((pb / pa - 4.0).abs() < 0.2, "ratio {}", pb / pa);
    }

    #[test]
    fn welch_reduces_variance_vs_single_periodogram() {
        use davide_core::rng::Rng;
        let mut rng = Rng::seed_from(9);
        let n = 32_768;
        let tr = PowerTrace::new(
            SimTime::ZERO,
            1.0 / 50_000.0,
            (0..n).map(|_| 1000.0 + rng.normal(0.0, 10.0)).collect(),
        );
        let single = periodogram(&tr.samples, 50_000.0);
        let welch = welch_psd(&tr, 2048);
        // White-noise PSD should be flat; compare relative spread.
        let spread = |s: &Spectrum| {
            let m = s.psd.iter().sum::<f64>() / s.len() as f64;
            let v = s.psd.iter().map(|x| (x - m).powi(2)).sum::<f64>() / s.len() as f64;
            v.sqrt() / m
        };
        assert!(
            spread(&welch) < spread(&single) / 2.0,
            "welch {} vs single {}",
            spread(&welch),
            spread(&single)
        );
    }

    #[test]
    #[should_panic(expected = "shorter than one segment")]
    fn welch_rejects_short_traces() {
        let tr = tone_trace(50_000.0, 100, 440.0, 10.0);
        welch_psd(&tr, 4096);
    }
}
