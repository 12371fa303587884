//! Facility power envelopes.
//!
//! A [`CapSchedule`] is the single description of the system power cap
//! shared by the offline simulator ([`SimConfig`](crate::SimConfig)) and
//! the live control plane: constant caps, the MS3-style day/night pair
//! (\[15\] "do less when it's too hot"), and general piecewise-constant
//! profiles over a repeating period.

use serde::{Deserialize, Serialize};

/// Seconds in a day; the period of the built-in day/night schedule.
pub const DAY_S: f64 = 86_400.0;

/// A time-varying facility power envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CapSchedule {
    /// No envelope: [`cap_at`](Self::cap_at) is always `None`.
    Unlimited,
    /// A constant cap, watts.
    Constant(f64),
    /// Day/night pair: `day_w` applies 08:00–20:00, `night_w` for the
    /// remaining (cool/cheap) hours, repeating daily.
    DayNight {
        /// Cap during 08:00–20:00, watts.
        day_w: f64,
        /// Cap during the remaining hours, watts.
        night_w: f64,
    },
    /// Piecewise-constant caps over a repeating period. Each segment is
    /// `(start offset within the period, cap_w)`; the cap in force at
    /// time `t` is that of the last segment whose offset ≤ `t mod
    /// period`, wrapping to the final segment before the first offset
    /// (midnight wrap). Segments sharing an offset collapse to the
    /// later one (zero-length segments contribute no interval).
    Piecewise {
        /// Repeat period, seconds (> 0).
        period_s: f64,
        /// `(offset_s, cap_w)` sorted by offset.
        segments: Vec<(f64, f64)>,
    },
}

impl CapSchedule {
    /// A constant cap.
    pub fn constant(cap_w: f64) -> Self {
        CapSchedule::Constant(cap_w)
    }

    /// The MS3-style day/night pair.
    pub fn day_night(day_w: f64, night_w: f64) -> Self {
        CapSchedule::DayNight { day_w, night_w }
    }

    /// A piecewise-constant profile over `period_s`. Offsets outside
    /// `[0, period_s)` are folded into the period; segments are sorted
    /// by offset (stable, so for equal offsets the later one in
    /// `segments` wins — a zero-length segment).
    ///
    /// # Panics
    /// If `period_s ≤ 0` or `segments` is empty.
    pub fn piecewise(period_s: f64, segments: Vec<(f64, f64)>) -> Self {
        assert!(period_s > 0.0, "period must be positive");
        assert!(!segments.is_empty(), "need at least one segment");
        let mut segments: Vec<(f64, f64)> = segments
            .into_iter()
            .map(|(t, w)| (t.rem_euclid(period_s), w))
            .collect();
        segments.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite offsets"));
        CapSchedule::Piecewise { period_s, segments }
    }

    /// Whether the schedule never constrains power.
    pub fn is_unlimited(&self) -> bool {
        matches!(self, CapSchedule::Unlimited)
    }

    /// The envelope in force at time `t_s`, watts.
    pub fn cap_at(&self, t_s: f64) -> Option<f64> {
        match self {
            CapSchedule::Unlimited => None,
            CapSchedule::Constant(w) => Some(*w),
            CapSchedule::DayNight { day_w, night_w } => {
                let hour = (t_s / 3600.0).rem_euclid(24.0);
                Some(if (8.0..20.0).contains(&hour) {
                    *day_w
                } else {
                    *night_w
                })
            }
            CapSchedule::Piecewise { period_s, segments } => {
                let phase = t_s.rem_euclid(*period_s);
                // Last segment with offset ≤ phase; before the first
                // offset the previous period's final segment is live.
                let idx = segments.partition_point(|s| s.0 <= phase);
                let seg = if idx == 0 {
                    segments.last().expect("non-empty by construction")
                } else {
                    &segments[idx - 1]
                };
                Some(seg.1)
            }
        }
    }

    /// The next instant strictly after `t_s` at which the envelope
    /// *changes value*; `None` for schedules that never change.
    pub fn next_cap_boundary(&self, t_s: f64) -> Option<f64> {
        const EPS: f64 = 1e-6;
        match self {
            CapSchedule::Unlimited | CapSchedule::Constant(_) => None,
            CapSchedule::DayNight { day_w, night_w } => {
                if day_w == night_w {
                    return None;
                }
                let day = (t_s / DAY_S).floor();
                let candidates = [
                    day * DAY_S + 8.0 * 3600.0,
                    day * DAY_S + 20.0 * 3600.0,
                    (day + 1.0) * DAY_S + 8.0 * 3600.0,
                ];
                candidates.into_iter().find(|&c| c > t_s + EPS)
            }
            CapSchedule::Piecewise { period_s, segments } => {
                // Offsets where the effective value changes: collapse
                // duplicate offsets to the last, then drop transitions
                // that keep the cap constant (comparing cyclically).
                let mut effective: Vec<(f64, f64)> = Vec::with_capacity(segments.len());
                for &(t, w) in segments {
                    match effective.last_mut() {
                        Some(last) if last.0 == t => last.1 = w,
                        _ => effective.push((t, w)),
                    }
                }
                let n = effective.len();
                let changes: Vec<f64> = (0..n)
                    .filter(|&i| effective[i].1 != effective[(i + n - 1) % n].1)
                    .map(|i| effective[i].0)
                    .collect();
                if changes.is_empty() {
                    return None;
                }
                let base = (t_s / period_s).floor() * period_s;
                [base, base + period_s]
                    .into_iter()
                    .flat_map(|b| changes.iter().map(move |&c| b + c))
                    .find(|&c| c > t_s + EPS)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_and_constant() {
        assert_eq!(CapSchedule::Unlimited.cap_at(0.0), None);
        assert_eq!(CapSchedule::Unlimited.next_cap_boundary(0.0), None);
        assert!(CapSchedule::Unlimited.is_unlimited());
        let c = CapSchedule::constant(50_000.0);
        assert_eq!(c.cap_at(1e9), Some(50_000.0));
        assert_eq!(c.next_cap_boundary(0.0), None);
        assert!(!c.is_unlimited());
    }

    #[test]
    fn day_night_windows_and_boundaries() {
        let s = CapSchedule::day_night(10_000.0, 20_000.0);
        assert_eq!(s.cap_at(9.0 * 3600.0), Some(10_000.0));
        assert_eq!(s.cap_at(23.0 * 3600.0), Some(20_000.0));
        assert_eq!(s.cap_at(DAY_S + 3.0 * 3600.0), Some(20_000.0));
        assert_eq!(s.next_cap_boundary(0.0), Some(8.0 * 3600.0));
        assert_eq!(s.next_cap_boundary(9.0 * 3600.0), Some(20.0 * 3600.0));
        assert_eq!(
            s.next_cap_boundary(21.0 * 3600.0),
            Some(DAY_S + 8.0 * 3600.0)
        );
    }

    #[test]
    fn day_night_exact_boundary_is_strictly_after() {
        let s = CapSchedule::day_night(10_000.0, 20_000.0);
        // At exactly 08:00 the day cap is already in force and the next
        // change is 20:00 — not 08:00 again.
        assert_eq!(s.cap_at(8.0 * 3600.0), Some(10_000.0));
        assert_eq!(s.next_cap_boundary(8.0 * 3600.0), Some(20.0 * 3600.0));
        assert_eq!(s.cap_at(20.0 * 3600.0), Some(20_000.0));
        assert_eq!(
            s.next_cap_boundary(20.0 * 3600.0),
            Some(DAY_S + 8.0 * 3600.0)
        );
    }

    #[test]
    fn degenerate_day_night_has_no_boundaries() {
        let s = CapSchedule::day_night(15_000.0, 15_000.0);
        assert_eq!(s.cap_at(0.0), Some(15_000.0));
        assert_eq!(s.next_cap_boundary(0.0), None);
    }

    #[test]
    fn piecewise_midnight_wrap() {
        // Cap drops at 06:00, relaxes at 18:00; between midnight and
        // 06:00 the *previous evening's* segment is in force.
        let s = CapSchedule::piecewise(
            DAY_S,
            vec![(6.0 * 3600.0, 9_000.0), (18.0 * 3600.0, 25_000.0)],
        );
        assert_eq!(s.cap_at(3.0 * 3600.0), Some(25_000.0), "pre-dawn wraps");
        assert_eq!(s.cap_at(7.0 * 3600.0), Some(9_000.0));
        assert_eq!(s.cap_at(19.0 * 3600.0), Some(25_000.0));
        assert_eq!(s.cap_at(DAY_S + 3.0 * 3600.0), Some(25_000.0));
        assert_eq!(s.next_cap_boundary(0.0), Some(6.0 * 3600.0));
        assert_eq!(s.next_cap_boundary(7.0 * 3600.0), Some(18.0 * 3600.0));
        assert_eq!(
            s.next_cap_boundary(19.0 * 3600.0),
            Some(DAY_S + 6.0 * 3600.0)
        );
    }

    #[test]
    fn piecewise_exact_boundary() {
        let s = CapSchedule::piecewise(1000.0, vec![(0.0, 100.0), (500.0, 200.0)]);
        // At exactly the offset the new segment is live, and the next
        // boundary is strictly later.
        assert_eq!(s.cap_at(500.0), Some(200.0));
        assert_eq!(s.next_cap_boundary(500.0), Some(1000.0));
        assert_eq!(s.cap_at(1000.0), Some(100.0));
        assert_eq!(s.next_cap_boundary(1000.0), Some(1500.0));
    }

    #[test]
    fn piecewise_zero_length_segment_collapses() {
        // Two segments at the same offset: the later one wins and no
        // phantom boundary is generated for the shadowed value.
        let s = CapSchedule::piecewise(1000.0, vec![(0.0, 100.0), (400.0, 999.0), (400.0, 300.0)]);
        assert_eq!(s.cap_at(400.0), Some(300.0));
        assert_eq!(s.cap_at(399.999), Some(100.0));
        assert_eq!(s.next_cap_boundary(0.0), Some(400.0));
        assert_eq!(s.next_cap_boundary(400.0), Some(1000.0));
    }

    #[test]
    fn piecewise_constant_value_has_no_boundaries() {
        let s = CapSchedule::piecewise(1000.0, vec![(0.0, 100.0), (500.0, 100.0)]);
        assert_eq!(s.cap_at(750.0), Some(100.0));
        assert_eq!(s.next_cap_boundary(0.0), None, "value never changes");
        let single = CapSchedule::piecewise(1000.0, vec![(200.0, 100.0)]);
        assert_eq!(single.cap_at(0.0), Some(100.0));
        assert_eq!(single.next_cap_boundary(0.0), None);
    }

    #[test]
    fn piecewise_negative_time_and_offset_folding() {
        let s = CapSchedule::piecewise(1000.0, vec![(1500.0, 200.0), (0.0, 100.0)]);
        // Offset 1500 folds to 500; negative times fold into the period.
        assert_eq!(s.cap_at(600.0), Some(200.0));
        assert_eq!(s.cap_at(-400.0), Some(200.0));
        assert_eq!(s.cap_at(-600.0), Some(100.0));
    }

    #[test]
    fn day_night_midnight_wrap() {
        let s = CapSchedule::day_night(10_000.0, 20_000.0);
        // Midnight itself, a second before it, and negative time are
        // all night hours; the boundary search crosses the day seam.
        assert_eq!(s.cap_at(DAY_S), Some(20_000.0));
        assert_eq!(s.cap_at(DAY_S - 1.0), Some(20_000.0));
        assert_eq!(s.cap_at(-1.0), Some(20_000.0), "negative time folds");
        assert_eq!(s.next_cap_boundary(DAY_S), Some(DAY_S + 8.0 * 3600.0));
        assert_eq!(
            s.next_cap_boundary(DAY_S - 1.0),
            Some(DAY_S + 8.0 * 3600.0),
            "just before midnight the next change is past the seam"
        );
    }

    #[test]
    fn piecewise_first_offset_after_zero_wraps() {
        // No segment starts at phase 0: before the first offset the
        // final segment of the previous period is in force.
        let s = CapSchedule::piecewise(1000.0, vec![(250.0, 111.0), (750.0, 222.0)]);
        assert_eq!(s.cap_at(0.0), Some(222.0), "pre-first-offset wraps");
        assert_eq!(s.cap_at(250.0), Some(111.0));
        assert_eq!(s.cap_at(1000.0), Some(222.0), "period seam wraps too");
        assert_eq!(s.cap_at(2250.0), Some(111.0), "later periods repeat");
        assert_eq!(s.next_cap_boundary(0.0), Some(250.0));
        assert_eq!(
            s.next_cap_boundary(750.0),
            Some(1250.0),
            "the next change after the last offset is in the next period"
        );
        assert_eq!(s.next_cap_boundary(-100.0), Some(250.0));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn piecewise_rejects_bad_period() {
        CapSchedule::piecewise(0.0, vec![(0.0, 1.0)]);
    }
}
