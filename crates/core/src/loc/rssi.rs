//! RSSI-based localization — the baseline of Figs. 13–14.
//!
//! §7.3: "We provide the channels of both the relay-embedded RFID and
//! the target RFID to the RSSI-based technique and apply the free-space
//! propagation model to the RSS measurements for estimating the
//! distance from the target tag to the relay." Position is then the
//! grid point whose distances to the trajectory best match the RSS
//! ranges — multilateration by grid search, sharing the SAR machinery's
//! region so the comparison is apples-to-apples.
//!
//! The paper finds this baseline ~20× worse than SAR (≈1 m median at a
//! 2.5 m aperture): amplitude decays slowly with distance and fading
//! corrupts it, whereas phase turns over every 16 cm.

use rfly_channel::geometry::Point2;
use rfly_dsp::units::Hertz;
use rfly_dsp::Complex;

use super::heatmap::Heatmap;
use super::trajectory::Trajectory;
use crate::pool::Pool;

/// RSSI multilateration over a grid.
#[derive(Debug, Clone)]
pub struct RssiLocalizer {
    /// Carrier frequency of the relay→tag half-link.
    pub frequency: Hertz,
    /// Lower-left corner of the search region.
    pub region_min: Point2,
    /// Upper-right corner of the search region.
    pub region_max: Point2,
    /// Grid cell size, meters.
    pub resolution: f64,
    /// Reference amplitude: |h'| expected at 1 m round-trip. The
    /// experiment calibrates this from the known relay output power and
    /// tag backscatter gain; with disentangled channels normalized by
    /// the embedded tag, it is a system constant.
    pub reference_amplitude_1m: f64,
}

impl RssiLocalizer {
    /// Estimates the tag–relay distance from one channel magnitude via
    /// the free-space model: round-trip amplitude ∝ 1/d², so
    /// `d = √(A₁ₘ / |h|)`.
    pub fn distance_from_amplitude(&self, h: Complex) -> Option<f64> {
        let a = h.abs();
        if a <= 0.0 {
            return None;
        }
        Some((self.reference_amplitude_1m / a).sqrt())
    }

    /// Localizes by minimizing Σ (dist(p, traj_l) − d_l)² over the grid.
    pub fn localize(&self, trajectory: &Trajectory, channels: &[Complex]) -> Option<Point2> {
        self.localize_on(&Pool::global(), trajectory, channels)
    }

    /// [`Self::localize`] on an explicit pool: the costs fill one row per
    /// task, then a serial row-major scan keeps the first strict
    /// minimum, so ties resolve as a serial search would.
    pub(crate) fn localize_on(
        &self,
        pool: &Pool,
        trajectory: &Trajectory,
        channels: &[Complex],
    ) -> Option<Point2> {
        assert_eq!(trajectory.len(), channels.len());
        let ranges: Vec<(Point2, f64)> = trajectory
            .points()
            .iter()
            .zip(channels)
            .filter_map(|(p, h)| self.distance_from_amplitude(*h).map(|d| (*p, d)))
            .collect();
        if ranges.is_empty() {
            return None;
        }
        let mut costs = Heatmap::covering(self.region_min, self.region_max, self.resolution);
        costs.fill_on(pool, |p| {
            ranges
                .iter()
                .map(|(t, d)| {
                    let e = t.distance(p) - d;
                    e * e
                })
                .sum()
        });
        let mut best = (Point2::ORIGIN, f64::MAX);
        for (_, _, p, cost) in costs.iter() {
            if cost < best.1 {
                best = (p, cost);
            }
        }
        Some(best.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F2: Hertz = Hertz(917e6);

    fn localizer() -> RssiLocalizer {
        RssiLocalizer {
            frequency: F2,
            region_min: Point2::new(-0.5, -0.5),
            region_max: Point2::new(4.0, 4.0),
            resolution: 0.05,
            reference_amplitude_1m: 1e-3,
        }
    }

    /// Forward model: ideal free-space round-trip amplitudes, random
    /// phase (RSSI ignores phase).
    fn channels_for(tag: Point2, traj: &Trajectory, loc: &RssiLocalizer) -> Vec<Complex> {
        traj.points()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let d = p.distance(tag);
                let a = loc.reference_amplitude_1m / (d * d);
                Complex::from_polar(a, i as f64 * 2.399) // arbitrary phases
            })
            .collect()
    }

    #[test]
    fn distance_inversion_roundtrip() {
        let loc = localizer();
        for d in [0.5, 1.0, 2.0, 5.0] {
            let a = loc.reference_amplitude_1m / (d * d);
            let est = loc
                .distance_from_amplitude(Complex::from_polar(a, 0.3))
                .unwrap();
            assert!((est - d).abs() < 1e-9, "d = {d}, est = {est}");
        }
        assert!(loc.distance_from_amplitude(Complex::default()).is_none());
    }

    #[test]
    fn clean_amplitudes_localize_coarsely() {
        let loc = localizer();
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 26);
        let tag = Point2::new(1.2, 1.5);
        let ch = channels_for(tag, &traj, &loc);
        let est = loc.localize(&traj, &ch).expect("localizes");
        // Even with *perfect* amplitudes the fix is only as good as the
        // geometry; it should be within a couple of cells here.
        assert!(est.distance(tag) < 0.2, "err {}", est.distance(tag));
    }

    #[test]
    fn amplitude_noise_degrades_rssi_much_more_than_sar_scale() {
        // Inject ±3 dB amplitude ripple (mild fading): the RSSI fix
        // degrades to decimeters–meters, the scale of Fig. 13's RSSI
        // curve.
        let loc = localizer();
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 26);
        let tag = Point2::new(1.2, 1.5);
        let mut ch = channels_for(tag, &traj, &loc);
        // Slow fading: the first half of the pass reads 3 dB hot, the
        // second 3 dB cold (shadowing has meters-scale coherence, so it
        // does NOT average out across adjacent positions).
        let n = ch.len();
        for (i, h) in ch.iter_mut().enumerate() {
            let ripple = if i < n / 2 { 1.41 } else { 0.71 }; // ±3 dB
            *h *= ripple;
        }
        let est = loc.localize(&traj, &ch).expect("localizes");
        let err = est.distance(tag);
        assert!(err > 0.1, "RSSI should be visibly hurt (err {err})");
        assert!(err < 2.5, "but not absurd (err {err})");
    }

    /// The serial search `localize` ran before it filled its costs on
    /// the pool: one row-major pass, first strict minimum wins.
    fn serial_reference(loc: &RssiLocalizer, traj: &Trajectory, ch: &[Complex]) -> Point2 {
        let ranges: Vec<(Point2, f64)> = traj
            .points()
            .iter()
            .zip(ch)
            .filter_map(|(p, h)| loc.distance_from_amplitude(*h).map(|d| (*p, d)))
            .collect();
        let nx = ((loc.region_max.x - loc.region_min.x) / loc.resolution).ceil() as usize + 1;
        let ny = ((loc.region_max.y - loc.region_min.y) / loc.resolution).ceil() as usize + 1;
        let mut best = (Point2::ORIGIN, f64::MAX);
        for iy in 0..ny {
            for ix in 0..nx {
                let p = Point2::new(
                    loc.region_min.x + ix as f64 * loc.resolution,
                    loc.region_min.y + iy as f64 * loc.resolution,
                );
                let cost: f64 = ranges
                    .iter()
                    .map(|(t, d)| {
                        let e = t.distance(p) - d;
                        e * e
                    })
                    .sum();
                if cost < best.1 {
                    best = (p, cost);
                }
            }
        }
        best.0
    }

    #[test]
    fn estimate_matches_the_serial_search_at_any_width() {
        let loc = localizer();
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 26);
        let clean = channels_for(Point2::new(1.2, 1.5), &traj, &loc);
        let faded: Vec<Complex> = clean
            .iter()
            .enumerate()
            .map(|(i, h)| *h * if i < 13 { 1.41 } else { 0.71 })
            .collect();
        for ch in [clean, faded] {
            let reference = serial_reference(&loc, &traj, &ch);
            for workers in [1, 2, 3, 8] {
                let got = loc.localize_on(&Pool::new(workers), &traj, &ch);
                assert_eq!(got, Some(reference), "width {workers}");
            }
        }
    }

    #[test]
    fn tied_cells_resolve_to_the_first_in_row_major_order() {
        // One range of exactly 0.5 m from the origin: cell (i, j) and
        // its mirror (j, i) cost the same, so every minimum is tied and
        // the serial scan keeps the one in the lower row (y < x).
        let loc = RssiLocalizer {
            region_min: Point2::ORIGIN,
            region_max: Point2::new(1.0, 1.0),
            reference_amplitude_1m: 1.0,
            ..localizer()
        };
        let traj = Trajectory::from_points(vec![Point2::ORIGIN]);
        let ch = [Complex::new(4.0, 0.0)];
        let reference = serial_reference(&loc, &traj, &ch);
        assert!(reference.y < reference.x, "{reference}");
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                loc.localize_on(&Pool::new(workers), &traj, &ch),
                Some(reference),
                "width {workers}"
            );
        }
    }

    #[test]
    fn all_silent_channels_fail() {
        let loc = localizer();
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 5);
        assert!(loc.localize(&traj, &[Complex::default(); 5]).is_none());
    }
}
