//! Sample-rate decimation: 800 kS/s → 50 kS/s in "hardware".
//!
//! §III-A1: the gateway exploits the AM335x ADC's averaging support to
//! sample at 800 kS/s and decimate to 50 kS/s in hardware. Averaging
//! before the rate reduction is what removes the aliasing that plagues
//! instantaneous-sampling monitors (IPMI). Three batch decimators are
//! provided for the E4 ablation: the boxcar (what the BBB hardware
//! does), a windowed-sinc FIR (the textbook anti-alias filter) and a
//! plain pick-every-Nth subsampler (the strawman). The streaming
//! [`Decimator`] is the boxcar alone, as the gateway hardware runs it.

use davide_core::power::PowerTrace;

/// Decimate by integer factor `m` using boxcar averaging — each output
/// sample is the mean of `m` consecutive inputs. DC gain is exactly 1.
///
/// **Tail contract:** when `input.len()` is not a multiple of `m`, the
/// final `input.len() % m` samples (up to `m − 1`) do not fill a whole
/// window and are **silently dropped** — the output covers exactly
/// `(input.len() / m) · m` inputs. Use [`boxcar_remainder`] to size the
/// dropped tail, or the streaming [`Decimator`], which holds the
/// partial window across calls ([`Decimator::pending`]) instead of
/// discarding it.
pub fn boxcar_decimate(input: &PowerTrace, m: usize) -> PowerTrace {
    assert!(m >= 1, "decimation factor must be ≥ 1");
    let n_out = input.len() / m;
    let inv = 1.0 / m as f64;
    let samples: Vec<f64> = (0..n_out)
        .map(|i| input.samples[i * m..(i + 1) * m].iter().sum::<f64>() * inv)
        .collect();
    PowerTrace::new(input.t0, input.dt * m as f64, samples)
}

/// Tail samples [`boxcar_decimate`] drops for a given input length and
/// decimation factor (the last partial window, `input_len % m`).
pub fn boxcar_remainder(input_len: usize, m: usize) -> usize {
    assert!(m >= 1, "decimation factor must be ≥ 1");
    input_len % m
}

/// Decimate by picking every `m`-th sample with no filtering — aliases.
pub fn pick_decimate(input: &PowerTrace, m: usize) -> PowerTrace {
    assert!(m >= 1);
    let samples: Vec<f64> = input.samples.iter().step_by(m).copied().collect();
    PowerTrace::new(input.t0, input.dt * m as f64, samples)
}

/// Design a low-pass windowed-sinc (Blackman) FIR with `taps` taps and
/// normalised cutoff `fc` (fraction of the input sample rate, 0 < fc < 0.5).
pub fn design_lowpass_fir(taps: usize, fc: f64) -> Vec<f64> {
    assert!(taps >= 3 && taps % 2 == 1, "need an odd tap count ≥ 3");
    assert!(fc > 0.0 && fc < 0.5, "cutoff must be in (0, 0.5)");
    let mid = (taps / 2) as f64;
    let mut h: Vec<f64> = (0..taps)
        .map(|i| {
            let x = i as f64 - mid;
            let sinc = if x == 0.0 {
                2.0 * fc
            } else {
                (2.0 * std::f64::consts::PI * fc * x).sin() / (std::f64::consts::PI * x)
            };
            // Blackman window.
            let w = 0.42 - 0.5 * (2.0 * std::f64::consts::PI * i as f64 / (taps - 1) as f64).cos()
                + 0.08 * (4.0 * std::f64::consts::PI * i as f64 / (taps - 1) as f64).cos();
            sinc * w
        })
        .collect();
    // Normalise to unity DC gain.
    let sum: f64 = h.iter().sum();
    for v in &mut h {
        *v /= sum;
    }
    h
}

/// Convolve-and-decimate: apply FIR `h` and keep every `m`-th output.
/// Edge samples use the available partial window (renormalised), so the
/// output has no startup transient bias.
pub fn fir_decimate(input: &PowerTrace, h: &[f64], m: usize) -> PowerTrace {
    assert!(m >= 1);
    let half = h.len() / 2;
    let n = input.len();
    let n_out = n / m;
    let samples: Vec<f64> = (0..n_out)
        .map(|oi| {
            let center = oi * m;
            let mut acc = 0.0;
            let mut wsum = 0.0;
            for (k, &hk) in h.iter().enumerate() {
                let idx = center as isize + k as isize - half as isize;
                if idx >= 0 && (idx as usize) < n {
                    acc += hk * input.samples[idx as usize];
                    wsum += hk;
                }
            }
            if wsum.abs() > 1e-12 {
                acc / wsum
            } else {
                acc
            }
        })
        .collect();
    PowerTrace::new(input.t0, input.dt * m as f64, samples)
}

/// Measure the amplitude of a single tone at `freq` Hz in a trace using
/// the Goertzel algorithm (returns the peak amplitude of the sinusoid).
pub fn tone_amplitude(trace: &PowerTrace, freq: f64) -> f64 {
    let n = trace.len();
    if n == 0 {
        return 0.0;
    }
    let w = 2.0 * std::f64::consts::PI * freq * trace.dt;
    let coeff = 2.0 * w.cos();
    let (mut s1, mut s2) = (0.0, 0.0);
    for &x in &trace.samples {
        let s0 = x + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    let real = s1 - s2 * w.cos();
    let imag = s2 * w.sin();
    2.0 * (real * real + imag * imag).sqrt() / n as f64
}

/// A streaming boxcar decimator: feed input chunks of any size, collect
/// decimated output incrementally. Over a complete stream the
/// concatenated output is **bit-identical** to [`boxcar_decimate`]
/// applied to the concatenated input — the partial tail window is
/// *held* across calls (see [`Decimator::pending`]) rather than silently
/// dropped, so the monitor chain can run continuously without
/// frame-boundary loss.
///
/// Outputs are appended to a caller-owned `Vec`, so the steady state
/// performs no per-call allocation; the state is a running window sum,
/// no stored samples.
#[derive(Debug, Clone)]
pub struct Decimator {
    m: usize,
    inv: f64,
    acc: f64,
    filled: usize,
}

impl Decimator {
    /// Streaming boxcar by factor `m`.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "decimation factor must be ≥ 1");
        Decimator {
            m,
            inv: 1.0 / m as f64,
            acc: 0.0,
            filled: 0,
        }
    }

    /// Decimation factor.
    pub fn factor(&self) -> usize {
        self.m
    }

    /// Absorb an input chunk, appending any completed outputs to `out`.
    pub fn push(&mut self, xs: &[f64], out: &mut Vec<f64>) {
        for &x in xs {
            self.acc += x;
            self.filled += 1;
            if self.filled == self.m {
                out.push(self.acc * self.inv);
                self.acc = 0.0;
                self.filled = 0;
            }
        }
    }

    /// Input samples held in the current partial output window — the
    /// count the equivalent batch call would have dropped from the tail
    /// if the stream ended now.
    pub fn pending(&self) -> usize {
        self.filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use davide_core::time::SimTime;

    fn tone(rate: f64, n: usize, dc: f64, f: f64, a: f64) -> PowerTrace {
        PowerTrace::from_fn(SimTime::ZERO, 1.0 / rate, n, |t| {
            dc + a * (2.0 * std::f64::consts::PI * f * t).sin()
        })
    }

    #[test]
    fn boxcar_preserves_dc_exactly() {
        let tr = PowerTrace::new(SimTime::ZERO, 1e-6, vec![1234.5; 1600]);
        let out = boxcar_decimate(&tr, 16);
        assert_eq!(out.len(), 100);
        for &s in &out.samples {
            assert!((s - 1234.5).abs() < 1e-9);
        }
    }

    #[test]
    fn boxcar_is_linear() {
        let a = tone(800e3, 8000, 100.0, 1000.0, 10.0);
        let b = tone(800e3, 8000, 50.0, 3000.0, 5.0);
        let sum = a.add(&b);
        let lhs = boxcar_decimate(&sum, 16);
        let rhs = boxcar_decimate(&a, 16).add(&boxcar_decimate(&b, 16));
        for (x, y) in lhs.samples.iter().zip(&rhs.samples) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn boxcar_attenuates_above_nyquist_pick_aliases() {
        // A 60 kHz tone is above the 25 kHz output Nyquist. After boxcar
        // decimation its energy must be strongly attenuated; after pick
        // decimation it aliases to 10 kHz at nearly full amplitude.
        let rate = 800e3;
        let tr = tone(rate, 160_000, 1000.0, 60_000.0, 100.0);
        let alias_freq = 60_000.0 % 50_000.0; // 10 kHz in the output band

        let averaged = boxcar_decimate(&tr, 16);
        let picked = pick_decimate(&tr, 16);
        let amp_avg = tone_amplitude(&averaged, alias_freq);
        let amp_pick = tone_amplitude(&picked, alias_freq);
        assert!(
            amp_pick > 90.0,
            "picked alias should be near full 100 W: {amp_pick}"
        );
        assert!(
            amp_avg < amp_pick / 4.0,
            "boxcar must attenuate the alias: {amp_avg} vs {amp_pick}"
        );
    }

    #[test]
    fn in_band_tone_survives_boxcar() {
        // 5 kHz is comfortably inside the 25 kHz output band.
        let tr = tone(800e3, 160_000, 1000.0, 5_000.0, 100.0);
        let out = boxcar_decimate(&tr, 16);
        let amp = tone_amplitude(&out, 5_000.0);
        assert!((amp - 100.0).abs() < 5.0, "amp={amp}");
    }

    #[test]
    fn fir_design_properties() {
        let h = design_lowpass_fir(63, 0.02);
        assert_eq!(h.len(), 63);
        let dc: f64 = h.iter().sum();
        assert!((dc - 1.0).abs() < 1e-12, "unity DC gain");
        // Symmetric (linear phase).
        for i in 0..31 {
            assert!((h[i] - h[62 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn fir_beats_boxcar_on_stopband() {
        // Tone just above the output Nyquist: 27 kHz with 25 kHz Nyquist.
        let rate = 800e3;
        let tr = tone(rate, 320_000, 1000.0, 27_000.0, 100.0);
        let alias = 50_000.0 - 27_000.0; // folds to 23 kHz
        let box_out = boxcar_decimate(&tr, 16);
        // Sharp filter: 1023 taps gives a ≈4 kHz transition band, so the
        // 27 kHz tone (cutoff 22 kHz) sits fully in the stopband.
        let h = design_lowpass_fir(1023, 22_000.0 / rate);
        let fir_out = fir_decimate(&tr, &h, 16);
        let a_box = tone_amplitude(&box_out, alias);
        let a_fir = tone_amplitude(&fir_out, alias);
        assert!(
            a_fir < a_box / 3.0,
            "near-band rejection: fir={a_fir} box={a_box}"
        );
    }

    #[test]
    fn fir_decimate_preserves_dc() {
        let tr = PowerTrace::new(SimTime::ZERO, 1e-6, vec![777.0; 10_000]);
        let h = design_lowpass_fir(101, 0.02);
        let out = fir_decimate(&tr, &h, 16);
        for &s in &out.samples {
            assert!((s - 777.0).abs() < 1e-6, "s={s}");
        }
    }

    #[test]
    fn goertzel_measures_known_tone() {
        let tr = tone(50e3, 50_000, 0.0, 440.0, 42.0);
        let amp = tone_amplitude(&tr, 440.0);
        assert!((amp - 42.0).abs() < 0.5, "amp={amp}");
        let off = tone_amplitude(&tr, 1234.0);
        assert!(off < 1.0, "no energy off-tone: {off}");
    }

    #[test]
    fn boxcar_tail_drop_pinned() {
        // 1605 = 100×16 + 5: the 5-sample tail is dropped, and the kept
        // outputs are unaffected by the tail's values.
        let mut a: Vec<f64> = (0..1605).map(|i| (i % 37) as f64).collect();
        let out_a = boxcar_decimate(&PowerTrace::new(SimTime::ZERO, 1e-6, a.clone()), 16);
        assert_eq!(out_a.len(), 100);
        assert_eq!(boxcar_remainder(1605, 16), 5);
        for v in &mut a[1600..] {
            *v = 9e9; // poison the tail: must not change any output
        }
        let out_b = boxcar_decimate(&PowerTrace::new(SimTime::ZERO, 1e-6, a), 16);
        assert_eq!(out_a.samples, out_b.samples);
        assert_eq!(boxcar_remainder(1600, 16), 0);
    }

    fn chunked(xs: &[f64], sizes: &[usize]) -> Vec<Vec<f64>> {
        let mut chunks = Vec::new();
        let mut i = 0;
        let mut k = 0;
        while i < xs.len() {
            let sz = sizes[k % sizes.len()].min(xs.len() - i);
            chunks.push(xs[i..i + sz].to_vec());
            i += sz;
            k += 1;
        }
        chunks
    }

    #[test]
    fn streaming_boxcar_matches_batch_bit_exact() {
        let tr = tone(800e3, 4003, 1000.0, 7000.0, 80.0);
        let batch = boxcar_decimate(&tr, 16);
        let mut dec = Decimator::new(16);
        let mut out = Vec::new();
        for c in chunked(&tr.samples, &[1, 7, 500, 33]) {
            dec.push(&c, &mut out);
        }
        assert_eq!(out, batch.samples, "streaming == batch, bit-exact");
        assert_eq!(dec.pending(), boxcar_remainder(4003, 16));
        assert_eq!(dec.pending(), 3);
    }

    #[test]
    fn streaming_decimator_continuous_frames() {
        // The monitor-chain use: 500-sample frames at 50 kS/s arriving
        // forever; the decimator carries the window across frames, so a
        // factor that does not divide the frame length loses nothing.
        let mut dec = Decimator::new(7);
        let mut out = Vec::new();
        let frame = vec![100.0; 500];
        for _ in 0..10 {
            dec.push(&frame, &mut out);
        }
        assert_eq!(out.len(), 5000 / 7);
        assert_eq!(dec.pending(), 5000 % 7);
        assert!(out.iter().all(|&v| (v - 100.0).abs() < 1e-9));
        assert_eq!(dec.factor(), 7);
    }
}
