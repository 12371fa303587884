//! Strongly-typed physical quantities used across the DAVIDE stack.
//!
//! All quantities are thin `f64` newtypes with the arithmetic that is
//! physically meaningful (e.g. `Watts * Seconds = Joules`). They exist to
//! keep hardware-model code honest: the compiler rejects adding a power to
//! a temperature.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Raw `f64` value in the canonical unit.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamp into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// True when the value is finite (not NaN/inf).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

quantity!(
    /// Electrical or thermal power, in watts.
    Watts,
    "W"
);
quantity!(
    /// Energy, in joules.
    Joules,
    "J"
);
quantity!(
    /// Wall-clock or simulated duration, in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Frequency, in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Temperature, in degrees Celsius.
    Celsius,
    "°C"
);
quantity!(
    /// Floating-point throughput, in GFLOP/s (double precision unless noted).
    Gflops,
    "GFlops"
);
quantity!(
    /// Data-movement bandwidth, in GB/s.
    GBps,
    "GB/s"
);
quantity!(
    /// Data volume, in bytes.
    Bytes,
    "B"
);
quantity!(
    /// Coolant mass-flow rate, in kg/s (≈ L/s for water).
    KgPerSec,
    "kg/s"
);

impl Watts {
    /// Kilowatt constructor.
    #[inline]
    pub fn from_kw(kw: f64) -> Self {
        Watts(kw * 1e3)
    }

    /// Value in kilowatts.
    #[inline]
    pub fn kw(self) -> f64 {
        self.0 / 1e3
    }

    /// Value in megawatts.
    #[inline]
    pub fn mw(self) -> f64 {
        self.0 / 1e6
    }
}

impl Joules {
    /// Kilowatt-hour constructor (1 kWh = 3.6 MJ).
    #[inline]
    pub fn from_kwh(kwh: f64) -> Self {
        Joules(kwh * 3.6e6)
    }

    /// Value in kilowatt-hours.
    #[inline]
    pub fn kwh(self) -> f64 {
        self.0 / 3.6e6
    }
}

impl Hertz {
    /// Gigahertz constructor.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }

    /// Value in gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Kilosamples-per-second constructor (for sampling rates).
    #[inline]
    pub fn from_ksps(ksps: f64) -> Self {
        Hertz(ksps * 1e3)
    }

    /// Sampling period for this rate.
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds(1.0 / self.0)
    }
}

impl Gflops {
    /// Teraflops constructor.
    #[inline]
    pub fn from_tflops(tf: f64) -> Self {
        Gflops(tf * 1e3)
    }

    /// Value in teraflops.
    #[inline]
    pub fn tflops(self) -> f64 {
        self.0 / 1e3
    }

    /// Value in petaflops.
    #[inline]
    pub fn pflops(self) -> f64 {
        self.0 / 1e6
    }
}

impl Bytes {
    /// Gibibyte-free, decimal GB constructor.
    #[inline]
    pub fn from_gb(gb: f64) -> Self {
        Bytes(gb * 1e9)
    }

    /// Value in decimal gigabytes.
    #[inline]
    pub fn gb(self) -> f64 {
        self.0 / 1e9
    }
}

// Cross-type physics.

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Energy = power × time.
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Average power = energy / time.
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// Time to spend an energy budget at constant power.
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<GBps> for Bytes {
    type Output = Seconds;
    /// Transfer time = volume / bandwidth.
    #[inline]
    fn div(self, rhs: GBps) -> Seconds {
        Seconds(self.0 / (rhs.0 * 1e9))
    }
}

impl Mul<Seconds> for GBps {
    type Output = Bytes;
    /// Volume moved at a bandwidth over a duration.
    #[inline]
    fn mul(self, rhs: Seconds) -> Bytes {
        Bytes(self.0 * 1e9 * rhs.0)
    }
}

/// Energy efficiency, in GFLOP/s per watt — the Green500 metric.
#[inline]
pub fn gflops_per_watt(perf: Gflops, power: Watts) -> f64 {
    perf.0 / power.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let p = Watts(250.0) + Watts(50.0);
        assert_eq!(p, Watts(300.0));
        assert_eq!(p - Watts(100.0), Watts(200.0));
        assert_eq!(p * 2.0, Watts(600.0));
        assert_eq!(2.0 * p, Watts(600.0));
        assert_eq!(p / 3.0, Watts(100.0));
        assert!((p / Watts(150.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_physics() {
        let e = Watts(2000.0) * Seconds(3600.0);
        assert!((e.kwh() - 2.0).abs() < 1e-12);
        assert_eq!(e / Seconds(3600.0), Watts(2000.0));
        assert_eq!(e / Watts(2000.0), Seconds(3600.0));
    }

    #[test]
    fn transfer_physics() {
        // 80 GB over NVLink at 80 GB/s takes 1 s.
        let t = Bytes::from_gb(80.0) / GBps(80.0);
        assert!((t.0 - 1.0).abs() < 1e-12);
        let v = GBps(12.5) * Seconds(2.0);
        assert!((v.gb() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(Watts::from_kw(2.0), Watts(2000.0));
        assert!((Watts(1.54e7).mw() - 15.4).abs() < 1e-9);
        assert_eq!(Hertz::from_ghz(3.5).ghz(), 3.5);
        assert_eq!(Hertz::from_ksps(800.0), Hertz(800_000.0));
        assert!((Hertz(50.0).period().0 - 0.02).abs() < 1e-15);
        assert_eq!(Gflops::from_tflops(22.0).pflops(), 0.022);
        assert_eq!(Joules::from_kwh(1.0), Joules(3.6e6));
    }

    #[test]
    fn green500_metric() {
        // TaihuLight: 93 PFlops at 15.4 MW ≈ 6 GFlops/W.
        let eff = gflops_per_watt(Gflops(93.0e6), Watts(15.4e6));
        assert!((eff - 6.04).abs() < 0.05);
    }

    #[test]
    fn ordering_and_clamp() {
        assert!(Watts(1.0) < Watts(2.0));
        assert_eq!(Watts(5.0).clamp(Watts(0.0), Watts(3.0)), Watts(3.0));
        assert_eq!(Watts(-1.0).max(Watts::ZERO), Watts::ZERO);
        assert_eq!(Celsius(80.0).min(Celsius(45.0)), Celsius(45.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{:.1}", Watts(123.45)), "123.5 W");
        assert_eq!(format!("{}", Celsius(35.0)), "35 °C");
    }

    #[test]
    fn sum_iterates() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.0)].into_iter().sum();
        assert_eq!(total, Watts(6.0));
    }
}
