//! Cooling and thermal models: direct hot-water liquid cooling versus air,
//! component thermal RC dynamics, and thermally-induced throttling.
//!
//! §II-C/G/I of the paper: D.A.V.I.D.E. uses Cool-IT-style direct liquid
//! cooling on CPUs and GPUs removing 75–80 % of node heat; the remaining
//! 20–25 % goes to heavy-duty low-speed rack fans. Facility water may
//! arrive between 2 °C and 45 °C (it is *hot-water* cooling at 35/40 °C);
//! coolant must stay ≥ 5 °C above dew point and ≤ 45 °C; facility return
//! tops out at 50/55 °C. Flow is ~30 L/min per rack. Air-cooled parts
//! throttle when they hit their maximum junction temperature, degrading
//! performance unevenly across nodes — liquid removes that failure mode.

use crate::error::{CoreError, Result};
use crate::units::{Celsius, KgPerSec, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Specific heat of water, J/(kg·K).
pub const WATER_CP: f64 = 4186.0;

/// How a component sinks its heat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoolingKind {
    /// Passive cold plate in direct contact with the die.
    DirectLiquid,
    /// Chassis airflow from the rack fans.
    Air,
}

/// Thermal RC model for one silicon die + its heat path.
///
/// `dT/dt = P/C − (T − T_sink)/(R·C)` with `R` the die-to-coolant thermal
/// resistance (K/W) and `C` the lumped heat capacity (J/K).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalNode {
    /// Heat-sink path.
    pub kind: CoolingKind,
    /// Die-to-coolant thermal resistance, K/W.
    pub resistance: f64,
    /// Lumped heat capacity, J/K.
    pub capacity: f64,
    /// Junction temperature that triggers throttling.
    pub t_throttle: Celsius,
    /// Absolute maximum junction temperature (safety shutdown).
    pub t_max: Celsius,
    /// Current junction temperature.
    pub temperature: Celsius,
}

impl ThermalNode {
    /// A liquid-cooled processor die (cold plate: R ≈ 0.06 K/W).
    pub fn liquid_cpu() -> Self {
        ThermalNode {
            kind: CoolingKind::DirectLiquid,
            resistance: 0.06,
            capacity: 120.0,
            t_throttle: Celsius(85.0),
            t_max: Celsius(95.0),
            temperature: Celsius(35.0),
        }
    }

    /// A liquid-cooled GPU die (larger die, similar plate).
    pub fn liquid_gpu() -> Self {
        ThermalNode {
            kind: CoolingKind::DirectLiquid,
            resistance: 0.055,
            capacity: 160.0,
            t_throttle: Celsius(83.0),
            t_max: Celsius(92.0),
            temperature: Celsius(35.0),
        }
    }

    /// The same dies on air: much higher die-to-air resistance, and the
    /// effective resistance depends on fan speed (set via
    /// [`ThermalNode::air_resistance`]).
    pub fn air_cpu() -> Self {
        ThermalNode {
            kind: CoolingKind::Air,
            resistance: 0.22,
            capacity: 120.0,
            t_throttle: Celsius(85.0),
            t_max: Celsius(95.0),
            temperature: Celsius(30.0),
        }
    }

    /// Air-cooled GPU.
    pub fn air_gpu() -> Self {
        ThermalNode {
            kind: CoolingKind::Air,
            resistance: 0.20,
            capacity: 160.0,
            t_throttle: Celsius(83.0),
            t_max: Celsius(92.0),
            temperature: Celsius(30.0),
        }
    }

    /// Die-to-air resistance for a fan at `speed ∈ (0,1]` of max RPM
    /// (airflow roughly linear in speed; resistance inversely so).
    pub fn air_resistance(base: f64, speed: f64) -> f64 {
        let speed = speed.clamp(0.05, 1.0);
        base / speed
    }

    /// Advance the die temperature by `dt` seconds with dissipated power
    /// `p` and sink (coolant/air inlet) temperature `t_sink`, using exact
    /// exponential integration of the RC response (unconditionally
    /// stable for any step size).
    pub fn step(&mut self, p: Watts, t_sink: Celsius, dt: Seconds) {
        let t_inf = t_sink.0 + p.0 * self.resistance;
        let tau = self.resistance * self.capacity;
        let alpha = (-dt.0 / tau).exp();
        self.temperature = Celsius(t_inf + (self.temperature.0 - t_inf) * alpha);
    }

    /// Steady-state temperature at power `p` and sink `t_sink`.
    pub fn steady_state(&self, p: Watts, t_sink: Celsius) -> Celsius {
        Celsius(t_sink.0 + p.0 * self.resistance)
    }

    /// True when the die has reached its throttle trip point.
    pub fn must_throttle(&self) -> bool {
        self.temperature >= self.t_throttle
    }
}

/// The rack-level hybrid cooling loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoolingLoop {
    /// Facility water inlet temperature (2–45 °C allowed).
    pub facility_inlet: Celsius,
    /// Secondary (IT) loop coolant temperature delivered to cold plates.
    pub coolant_supply: Celsius,
    /// Coolant mass flow for the rack (30 L/min ≈ 0.5 kg/s).
    pub flow: KgPerSec,
    /// Fraction of IT heat captured by the liquid path (0.75–0.80).
    pub liquid_capture_fraction: f64,
    /// Dew point in the room (condensation guard).
    pub dew_point: Celsius,
    /// Heat-exchanger effectiveness (liquid-liquid, 0..1).
    pub hx_effectiveness: f64,
}

impl CoolingLoop {
    /// D.A.V.I.D.E. nominal operating point: 35 °C hot-water cooling,
    /// 30 L/min per rack, 78 % liquid capture.
    pub fn davide_nominal() -> Self {
        CoolingLoop {
            facility_inlet: Celsius(35.0),
            coolant_supply: Celsius(37.0),
            flow: KgPerSec(0.5),
            liquid_capture_fraction: 0.78,
            dew_point: Celsius(14.0),
            hx_effectiveness: 0.85,
        }
    }

    /// Validate the loop against the paper's installation constraints.
    pub fn validate(&self) -> Result<()> {
        if !(2.0..=45.0).contains(&self.facility_inlet.0) {
            return Err(CoreError::InvalidConfig(format!(
                "facility inlet {} outside 2–45 °C",
                self.facility_inlet
            )));
        }
        if self.coolant_supply.0 < self.dew_point.0 + 5.0 {
            return Err(CoreError::SafetyViolation(format!(
                "coolant {} within 5 °C of dew point {} — condensation risk",
                self.coolant_supply, self.dew_point
            )));
        }
        if self.coolant_supply.0 > 45.0 {
            return Err(CoreError::InvalidConfig(format!(
                "coolant supply {} above 45 °C maximum",
                self.coolant_supply
            )));
        }
        if !(0.0..=1.0).contains(&self.liquid_capture_fraction) {
            return Err(CoreError::InvalidConfig(
                "liquid capture fraction must be in [0,1]".into(),
            ));
        }
        Ok(())
    }

    /// Heat removed by the liquid path for `it_power` of IT load.
    pub fn liquid_heat(&self, it_power: Watts) -> Watts {
        it_power * self.liquid_capture_fraction
    }

    /// Heat left for the air path (rack fans).
    pub fn air_heat(&self, it_power: Watts) -> Watts {
        it_power * (1.0 - self.liquid_capture_fraction)
    }

    /// Coolant return temperature for a rack dissipating `it_power`:
    /// `T_out = T_in + Q_liquid / (ṁ·c_p)`.
    pub fn coolant_return(&self, it_power: Watts) -> Celsius {
        let q = self.liquid_heat(it_power);
        Celsius(self.coolant_supply.0 + q.0 / (self.flow.0 * WATER_CP))
    }

    /// Facility return temperature through the liquid-liquid heat
    /// exchanger (Fig. 1): the facility side picks up the exchanged heat
    /// at the same nominal flow.
    pub fn facility_return(&self, it_power: Watts) -> Celsius {
        let exchanged = self.liquid_heat(it_power) * self.hx_effectiveness;
        Celsius(self.facility_inlet.0 + exchanged.0 / (self.flow.0 * WATER_CP))
    }

    /// Check the facility return stays below the 50/55 °C ceiling.
    pub fn facility_return_ok(&self, it_power: Watts) -> bool {
        self.facility_return(it_power).0 <= 55.0
    }

    /// Fan power needed to move the air-side heat: cube-law fan model
    /// sized so 25 % of a 32 kW rack costs ≈ 550 W of fans at full speed.
    pub fn fan_power(&self, it_power: Watts, rack_capacity: Watts) -> Watts {
        let q_air = self.air_heat(it_power);
        let q_air_max = rack_capacity * (1.0 - self.liquid_capture_fraction);
        if q_air_max.0 <= 0.0 {
            return Watts::ZERO;
        }
        let speed = (q_air / q_air_max).clamp(0.1, 1.0);
        Watts(550.0) * speed.powi(3)
    }

    /// Effective PUE contribution of the rack: (IT + fans + pumps)/IT.
    pub fn rack_pue(&self, it_power: Watts, rack_capacity: Watts) -> f64 {
        if it_power.0 <= 0.0 {
            return 1.0;
        }
        let pumps = Watts(120.0); // redundant circulation pumps per rack
        let overhead = self.fan_power(it_power, rack_capacity) + pumps;
        (it_power + overhead) / it_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_step_converges_to_steady_state() {
        let mut die = ThermalNode::liquid_gpu();
        let p = Watts(300.0);
        let sink = Celsius(37.0);
        for _ in 0..10_000 {
            die.step(p, sink, Seconds(0.1));
        }
        let ss = die.steady_state(p, sink);
        assert!((die.temperature.0 - ss.0).abs() < 0.01);
        // 300 W × 0.055 K/W + 37 = 53.5 °C — comfortably below throttle.
        assert!((ss.0 - 53.5).abs() < 0.01);
        assert!(!die.must_throttle());
    }

    #[test]
    fn exponential_integration_stable_for_huge_steps() {
        let mut die = ThermalNode::liquid_cpu();
        die.step(Watts(190.0), Celsius(37.0), Seconds(1e6));
        let ss = die.steady_state(Watts(190.0), Celsius(37.0));
        assert!((die.temperature.0 - ss.0).abs() < 1e-6, "no oscillation");
    }

    #[test]
    fn air_cooled_gpu_throttles_where_liquid_does_not() {
        // §II-G: air-cooled components hit Tmax under load, liquid ones
        // get uniform adequate cooling even with 37 °C hot-water.
        let p = Watts(300.0);
        let liquid = ThermalNode::liquid_gpu().steady_state(p, Celsius(37.0));
        let air = ThermalNode::air_gpu().steady_state(p, Celsius(30.0));
        assert!(liquid < Celsius(83.0), "liquid stays cool: {liquid}");
        assert!(air > Celsius(83.0), "air trips throttle: {air}");
    }

    #[test]
    fn fan_speed_rescues_air_only_partially() {
        let base = ThermalNode::air_gpu().resistance;
        let full_fan = ThermalNode::air_resistance(base, 1.0);
        let half_fan = ThermalNode::air_resistance(base, 0.5);
        assert!(half_fan > full_fan);
        // Even at full fan the steady state is marginal at hot intake.
        let t = 35.0 + 300.0 * full_fan;
        assert!(t > 83.0, "hot-aisle air cooling cannot hold a P100: {t}");
    }

    #[test]
    fn loop_validation_enforces_paper_limits() {
        let mut l = CoolingLoop::davide_nominal();
        assert!(l.validate().is_ok());
        l.facility_inlet = Celsius(1.0);
        assert!(l.validate().is_err(), "below 2 °C floor");
        l.facility_inlet = Celsius(35.0);
        l.coolant_supply = Celsius(17.0);
        assert!(l.validate().is_err(), "dew-point guard (14+5)");
        l.coolant_supply = Celsius(46.0);
        assert!(l.validate().is_err(), "above 45 °C ceiling");
    }

    #[test]
    fn heat_split_matches_75_80_pct() {
        let l = CoolingLoop::davide_nominal();
        let it = Watts::from_kw(30.0);
        let liq = l.liquid_heat(it);
        let air = l.air_heat(it);
        let frac = liq / it;
        assert!((0.75..=0.80).contains(&frac));
        assert!((liq.0 + air.0 - it.0).abs() < 1e-9, "energy conserved");
    }

    #[test]
    fn coolant_return_below_facility_ceiling() {
        let l = CoolingLoop::davide_nominal();
        let it = Watts::from_kw(30.0); // a busy rack
        let ret = l.coolant_return(it);
        // 23.4 kW into 0.5 kg/s water ≈ +11.2 K → ~48 °C return.
        assert!((ret.0 - 48.18).abs() < 0.2, "return={ret}");
        assert!(l.facility_return_ok(it));
        assert!(l.facility_return(it) > l.facility_inlet);
    }

    #[test]
    fn fan_power_cube_law() {
        let l = CoolingLoop::davide_nominal();
        let cap = Watts::from_kw(32.0);
        let full = l.fan_power(cap, cap);
        let half = l.fan_power(cap * 0.5, cap);
        assert!((full.0 - 550.0).abs() < 1e-9);
        assert!(half.0 < full.0 / 4.0, "cube law: half flow ≤ 1/8 power");
    }

    #[test]
    fn rack_pue_is_modest() {
        let l = CoolingLoop::davide_nominal();
        let cap = Watts::from_kw(32.0);
        let pue = l.rack_pue(Watts::from_kw(30.0), cap);
        assert!(
            pue > 1.0 && pue < 1.05,
            "direct liquid keeps PUE low: {pue}"
        );
    }
}
