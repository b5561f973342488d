//! Vehicle platforms: payload and power budgets.
//!
//! §3 of the paper argues the whole design from payload: indoor-safe
//! drones carry tens of grams, the lightest standalone reader weighs
//! over 0.5 kg, and RFly's 35 g relay fits where a reader cannot. §6.2
//! gives the electrical budget: 5.8 W from the 12 V battery through a
//! DC-DC converter to the relay's 5.5 V rail, under 3 % of the
//! battery's 21.6 A rating.

/// A carrier vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable name.
    pub name: &'static str,
    /// Maximum payload, grams.
    pub max_payload_g: f64,
    /// Battery voltage, volts.
    pub battery_voltage: f64,
    /// Maximum continuous battery current, amperes.
    pub battery_max_current: f64,
    /// Battery capacity, watt-hours.
    pub battery_capacity_wh: f64,
    /// Maximum horizontal speed, m/s.
    pub max_speed_mps: f64,
    /// Safe to operate indoors near people.
    pub indoor_safe: bool,
}

impl Platform {
    /// The Parrot Bebop 2 (§6.2): 200 g payload, 12 V battery rated
    /// 21.6 A, ~32 Wh, indoor-safe.
    pub fn bebop2() -> Self {
        Self {
            name: "Parrot Bebop 2",
            max_payload_g: 200.0,
            battery_voltage: 12.0,
            battery_max_current: 21.6,
            battery_capacity_wh: 32.0,
            max_speed_mps: 16.0,
            indoor_safe: true,
        }
    }

    /// The iRobot Create 2 ground robot used for the §7.3 controlled
    /// microbenchmarks.
    pub fn create2() -> Self {
        Self {
            name: "iRobot Create 2",
            max_payload_g: 9000.0,
            battery_voltage: 14.4,
            battery_max_current: 2.0,
            battery_capacity_wh: 43.0,
            max_speed_mps: 0.5,
            indoor_safe: true,
        }
    }

    /// A delivery-class outdoor drone — what you would need to lift a
    /// 0.5 kg commercial reader (§3's counterfactual).
    pub fn outdoor_heavy_lift() -> Self {
        Self {
            name: "heavy-lift outdoor drone",
            max_payload_g: 2000.0,
            battery_voltage: 22.2,
            battery_max_current: 60.0,
            battery_capacity_wh: 200.0,
            max_speed_mps: 20.0,
            indoor_safe: false,
        }
    }

    /// Whether a payload of `grams` can be carried.
    pub fn can_carry(&self, grams: f64) -> bool {
        grams <= self.max_payload_g
    }

    /// The battery-current fraction a payload drawing `watts` consumes
    /// (through an ideal DC-DC converter), as a ratio in [0, ∞).
    pub fn current_fraction(&self, watts: f64) -> f64 {
        let amps = watts / self.battery_voltage;
        amps / self.battery_max_current
    }

    /// Flight/drive endurance in minutes with a payload drawing
    /// `payload_watts`, assuming `base_watts` of propulsion draw.
    pub fn endurance_minutes(&self, base_watts: f64, payload_watts: f64) -> f64 {
        self.battery_capacity_wh / (base_watts + payload_watts) * 60.0
    }
}

/// RFly's relay payload figures (§6.1–6.2).
#[derive(Debug, Clone, Copy)]
pub struct RelayPayload {
    /// Mass, grams.
    pub mass_g: f64,
    /// Power draw, watts.
    pub power_w: f64,
}

impl RelayPayload {
    /// The prototype: 35 g, 5.8 W (0.49 A from the 12 V battery).
    pub fn prototype() -> Self {
        Self {
            mass_g: 35.0,
            power_w: 5.8,
        }
    }
}

/// A commercial handheld reader payload, for the §3 comparison.
pub fn commercial_reader_mass_g() -> f64 {
    500.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bebop_carries_the_relay_but_not_a_reader() {
        let b = Platform::bebop2();
        let relay = RelayPayload::prototype();
        assert!(b.can_carry(relay.mass_g));
        assert!(!b.can_carry(commercial_reader_mass_g()));
        assert!(b.indoor_safe);
    }

    #[test]
    fn heavy_lift_carries_a_reader_but_is_outdoor_only() {
        let h = Platform::outdoor_heavy_lift();
        assert!(h.can_carry(commercial_reader_mass_g()));
        assert!(!h.indoor_safe);
    }

    #[test]
    fn relay_power_is_under_3_percent_of_battery() {
        // §6.2: 5.8 W → 0.49 A at 12 V, under 3 % of 21.6 A.
        let b = Platform::bebop2();
        let relay = RelayPayload::prototype();
        let frac = b.current_fraction(relay.power_w);
        assert!(frac < 0.03, "fraction = {frac}");
        let amps = relay.power_w / b.battery_voltage;
        assert!((amps - 0.483).abs() < 0.02, "amps = {amps}");
    }

    #[test]
    fn endurance_barely_affected_by_the_relay() {
        let b = Platform::bebop2();
        let base = 80.0; // typical hover draw, W
        let with = b.endurance_minutes(base, RelayPayload::prototype().power_w);
        let without = b.endurance_minutes(base, 0.0);
        assert!(without - with < 2.0, "relay costs {} min", without - with);
        assert!(with > 20.0, "endurance {with} min");
    }

    #[test]
    fn ground_robot_is_slow_and_strong() {
        let c = Platform::create2();
        assert!(c.can_carry(1000.0));
        assert!(c.max_speed_mps < 1.0);
    }
}
