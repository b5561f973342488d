//! Synthetic-aperture localization: the non-linear projection of
//! Eqs. 11–12.
//!
//! Every candidate point `(x, y)` is scored by how coherently the
//! isolated half-link channels `h'_l` add up after compensating the
//! round-trip phase to each trajectory position:
//!
//! ```text
//! P(x,y) = | Σ_l h'_l · e^{ +j·2π·f₂·2·√((x−x_l)² + (y−y_l)²) / c } |²
//! ```
//!
//! The peak of `P` is the tag estimate in line-of-sight; under
//! multipath, [`super::peaks`] refines the choice. Because the
//! projection is non-linear in position, a 1D trajectory suffices for a
//! 2D fix (one of the paper's observations about Fig. 6).

use rfly_channel::geometry::Point2;
use rfly_dsp::units::Hertz;
use rfly_dsp::{Complex, SPEED_OF_LIGHT};

use super::heatmap::Heatmap;
use super::trajectory::Trajectory;
use crate::pool::Pool;

/// Eq. 12's matched filter with its per-search invariants hoisted: the
/// length check and the round-trip wavenumber run once per search, not
/// once per cell. Shared by the 2D and 3D grid searches.
pub(crate) struct Projection<'a> {
    /// `2k = 2 · 2π·f₂ / c`, the round-trip phase per meter.
    two_k: f64,
    channels: &'a [Complex],
}

impl<'a> Projection<'a> {
    /// Panics unless there is one channel per trajectory position.
    pub(crate) fn new(frequency: Hertz, positions: usize, channels: &'a [Complex]) -> Self {
        assert_eq!(
            positions,
            channels.len(),
            "one channel per trajectory position"
        );
        let k = std::f64::consts::TAU * frequency.as_hz() / SPEED_OF_LIGHT;
        // `k * 2.0 * d` evaluates as `(k * 2.0) * d`, so hoisting the
        // product leaves every phase bit-identical.
        Self {
            two_k: k * 2.0,
            channels,
        }
    }

    /// `P = |Σ_l h'_l · e^{j·2k·d_l}|²` for the distances `d_l` from
    /// each trajectory position (in trajectory order) to the candidate.
    pub(crate) fn power(&self, distances: impl Iterator<Item = f64>) -> f64 {
        let mut acc = Complex::default();
        for (d, h) in distances.zip(self.channels) {
            acc += *h * Complex::cis(self.two_k * d);
        }
        acc.norm_sq()
    }
}

/// Grid-search SAR localizer.
#[derive(Debug, Clone)]
pub struct SarLocalizer {
    /// The frequency of the relay→tag half-link (f₂). The paper notes
    /// (§5.2) that using the reader's f instead changes results by
    /// < 1 % since |f − f₂|/f < 0.01; we use the exact value.
    pub frequency: Hertz,
    /// Lower-left corner of the search region.
    pub region_min: Point2,
    /// Upper-right corner of the search region.
    pub region_max: Point2,
    /// Grid cell size, meters.
    pub resolution: f64,
}

impl SarLocalizer {
    /// Creates a localizer over a rectangular region.
    pub fn new(frequency: Hertz, region_min: Point2, region_max: Point2, resolution: f64) -> Self {
        assert!(region_max.x > region_min.x && region_max.y > region_min.y);
        assert!(resolution > 0.0);
        Self {
            frequency,
            region_min,
            region_max,
            resolution,
        }
    }

    /// The matched-filter score at a single point — `P(x, y)` for one
    /// candidate.
    pub fn score_at(&self, p: Point2, trajectory: &Trajectory, channels: &[Complex]) -> f64 {
        Projection::new(self.frequency, trajectory.len(), channels)
            .power(trajectory.points().iter().map(|pos| pos.distance(p)))
    }

    /// Evaluates `P(x, y)` over the whole grid, one row per task on the
    /// process-wide [`Pool`]. Every cell is the [`Self::score_at`]
    /// expression, so the map is bit-identical at any pool width.
    pub fn heatmap(&self, trajectory: &Trajectory, channels: &[Complex]) -> Heatmap {
        self.heatmap_on(&Pool::global(), trajectory, channels)
    }

    /// [`Self::heatmap`] on an explicit pool.
    pub(crate) fn heatmap_on(
        &self,
        pool: &Pool,
        trajectory: &Trajectory,
        channels: &[Complex],
    ) -> Heatmap {
        let projection = Projection::new(self.frequency, trajectory.len(), channels);
        let points = trajectory.points();
        let mut map = Heatmap::covering(self.region_min, self.region_max, self.resolution);
        map.fill_on(pool, |p| {
            projection.power(points.iter().map(|pos| pos.distance(p)))
        });
        map
    }

    /// Full localization: heatmap → multipath-aware peak selection
    /// (nearest candidate peak to the trajectory, §5.2). Returns the
    /// estimate and the heatmap (for rendering / diagnostics).
    pub fn localize(
        &self,
        trajectory: &Trajectory,
        channels: &[Complex],
    ) -> Option<(Point2, Heatmap)> {
        if channels.is_empty() || channels.iter().all(|h| h.norm_sq() == 0.0) {
            return None;
        }
        let _span = rfly_obs::span("loc.sar.localize");
        rfly_obs::counter_add("loc.sar.passes", 1);
        rfly_obs::counter_add("loc.sar.measurements", channels.len() as u64);
        let map = self.heatmap(trajectory, channels);
        let est = super::peaks::select_nearest_peak(&map, trajectory)?;
        Some((est, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_channel::phasor::{Path, PathSet};
    use rfly_dsp::units::Meters;

    const F2: Hertz = Hertz(917e6);

    /// Ground-truth forward model: the isolated half-link channel at
    /// each trajectory point for a tag at `tag` (round-trip phase).
    fn channels_for(tag: Point2, traj: &Trajectory) -> Vec<Complex> {
        traj.points()
            .iter()
            .map(|p| PathSet::line_of_sight(Meters::new(p.distance(tag)), 1.0).round_trip(F2))
            .collect()
    }

    fn localizer() -> SarLocalizer {
        SarLocalizer::new(F2, Point2::new(-0.5, -0.5), Point2::new(3.0, 3.0), 0.02)
    }

    #[test]
    fn los_localization_is_centimeter_accurate() {
        // Mirrors Fig. 6(a): 3 m aperture, tag ~1.2 m off the path;
        // the paper reports < 7 cm error in LoS.
        let traj = Trajectory::line(Point2::new(-0.25, 0.0), Point2::new(2.75, 0.0), 61);
        let tag = Point2::new(1.3, 1.2);
        let ch = channels_for(tag, &traj);
        let (est, _) = localizer().localize(&traj, &ch).expect("localizes");
        let err = est.distance(tag);
        assert!(err < 0.07, "error {err} m");
    }

    #[test]
    fn score_peaks_at_the_true_location() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.0, 0.0), 41);
        let tag = Point2::new(1.0, 1.0);
        let ch = channels_for(tag, &traj);
        let loc = localizer();
        let at_tag = loc.score_at(tag, &traj, &ch);
        // Perfect coherence: |Σ 1|² = K².
        assert!((at_tag - (41.0f64).powi(2)).abs() < 1e-6);
        for probe in [
            Point2::new(0.2, 2.0),
            Point2::new(2.5, 0.5),
            Point2::new(1.0, 2.5),
        ] {
            assert!(loc.score_at(probe, &traj, &ch) < at_tag);
        }
    }

    #[test]
    fn one_dimensional_trajectory_gives_2d_fix() {
        // The y-coordinate is recoverable from a purely-x trajectory —
        // the non-linearity of the projection at work. The mirror
        // ambiguity y ↔ −y inherent to a linear array is broken by a
        // one-sided search region, as in the paper's setups where the
        // robot drives along a wall/edge of the area of interest.
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 51);
        let one_sided = SarLocalizer::new(F2, Point2::new(-0.5, 0.2), Point2::new(3.0, 3.0), 0.02);
        for tag_y in [0.6, 1.4, 2.2] {
            let tag = Point2::new(1.2, tag_y);
            let ch = channels_for(tag, &traj);
            let (est, _) = one_sided.localize(&traj, &ch).expect("localizes");
            assert!(
                (est.y - tag_y).abs() < 0.08,
                "y error {} at tag_y {tag_y}",
                (est.y - tag_y).abs()
            );
        }
    }

    #[test]
    fn longer_aperture_sharpens_the_fix() {
        // Fig. 13's mechanism: larger aperture → narrower beam → smaller
        // error. Test via the heatmap mainlobe width.
        let tag = Point2::new(1.5, 1.5);
        let mut widths = Vec::new();
        for k in [11usize, 41] {
            let half = if k == 11 { 0.25 } else { 1.25 };
            let traj = Trajectory::line(
                Point2::new(1.5 - half, 0.0),
                Point2::new(1.5 + half, 0.0),
                k,
            );
            let ch = channels_for(tag, &traj);
            let mut map = localizer().heatmap(&traj, &ch);
            map.normalize();
            // Count cells above half power — a proxy for beam area.
            let area = map.iter().filter(|(_, _, _, v)| *v > 0.5).count();
            widths.push(area);
        }
        assert!(
            widths[1] * 2 <= widths[0],
            "aperture 2.5 m ({}) should focus much tighter than 0.5 m ({})",
            widths[1],
            widths[0]
        );
    }

    #[test]
    fn multipath_creates_ghosts_farther_than_truth() {
        // §5.2's insight: reflections travel farther, so ghost peaks lie
        // farther from the trajectory than the true tag. A specular
        // bounce off a wall produces a coherent ghost exactly at the
        // tag's mirror image — here a wall at x = 3 with the direct path
        // badly attenuated by an obstacle (the Fig. 5 scenario), so the
        // ghost is the *global* peak.
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.5, 0.0), 51);
        let tag = Point2::new(1.2, 1.0);
        let image = Point2::new(4.8, 1.0); // mirror across x = 3
        let ch: Vec<Complex> = traj
            .points()
            .iter()
            .map(|p| {
                let ps = PathSet::from_paths(vec![
                    Path::new(Meters::new(p.distance(tag)), 1.0),
                    Path::new(Meters::new(p.distance(image)), 0.7),
                ]);
                ps.round_trip(F2)
            })
            .collect();
        // One-sided region (y ≥ 0): the linear trajectory cannot break
        // the y ↔ −y mirror ambiguity by itself.
        let loc = SarLocalizer::new(F2, Point2::new(-0.5, 0.0), Point2::new(8.5, 4.5), 0.02);
        let (est, map) = loc.localize(&traj, &ch).expect("localizes");
        // The *global* peak is a multipath ghost (the squared two-path
        // channel produces images at the mirror point and at cross-term
        // loci — all farther from the trajectory than the truth)...
        let (global, _) = map.peak();
        assert!(
            global.distance(tag) > 1.0,
            "global peak at {global} should be a far ghost, not the tag {tag}"
        );
        assert!(traj.distance_to(global) > traj.distance_to(tag) + 0.5);
        // ...but nearest-peak selection still lands on the true tag.
        assert!(est.distance(tag) < 0.15, "error {}", est.distance(tag));
    }

    #[test]
    fn silent_channels_do_not_localize() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 11);
        let ch = vec![Complex::default(); 11];
        assert!(localizer().localize(&traj, &ch).is_none());
    }

    /// The serial grid loop `heatmap` ran before it filled rows on the
    /// pool, with the per-cell expression written out as it was then
    /// (wavenumber recomputed per cell, `k * 2.0 * d`).
    fn serial_reference(loc: &SarLocalizer, traj: &Trajectory, ch: &[Complex]) -> Heatmap {
        let nx = ((loc.region_max.x - loc.region_min.x) / loc.resolution).ceil() as usize + 1;
        let ny = ((loc.region_max.y - loc.region_min.y) / loc.resolution).ceil() as usize + 1;
        let mut map = Heatmap::new(loc.region_min, loc.resolution, nx, ny);
        for iy in 0..ny {
            for ix in 0..nx {
                let p = map.position(ix, iy);
                let k = std::f64::consts::TAU * loc.frequency.as_hz() / SPEED_OF_LIGHT;
                let mut acc = Complex::default();
                for (pos, h) in traj.points().iter().zip(ch) {
                    let d = pos.distance(p);
                    acc += *h * Complex::cis(k * 2.0 * d);
                }
                map.set(ix, iy, acc.norm_sq());
            }
        }
        map
    }

    fn assert_bit_identical(got: &Heatmap, want: &Heatmap, what: &str) {
        assert_eq!((got.nx(), got.ny()), (want.nx(), want.ny()), "{what}");
        for ((ix, iy, _, g), (_, _, _, w)) in got.iter().zip(want.iter()) {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell ({ix}, {iy})");
        }
    }

    #[test]
    fn heatmap_is_bit_identical_to_the_serial_loop_at_any_width() {
        let traj = Trajectory::line(Point2::new(-0.25, 0.0), Point2::new(2.75, 0.0), 61);
        let ch = channels_for(Point2::new(1.3, 1.2), &traj);
        let base = localizer();
        let grids = [
            // 176 × 176 cells.
            base.clone(),
            // 29 × 7: 7 rows split unevenly over widths 2, 3 and 8.
            SarLocalizer::new(F2, Point2::new(0.5, 0.9), Point2::new(1.9, 1.2), 0.05),
            // nx == 1: a single column.
            SarLocalizer {
                region_max: Point2::new(base.region_min.x, 3.0),
                ..base.clone()
            },
            // ny == 1: a single row, one task.
            SarLocalizer {
                region_max: Point2::new(3.0, base.region_min.y),
                ..base.clone()
            },
        ];
        for loc in &grids {
            let want = serial_reference(loc, &traj, &ch);
            for workers in [1, 2, 3, 8] {
                let got = loc.heatmap_on(&Pool::new(workers), &traj, &ch);
                let what = format!("{} x {} at width {workers}", want.nx(), want.ny());
                assert_bit_identical(&got, &want, &what);
            }
        }
    }

    #[test]
    fn public_heatmap_follows_the_global_width() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(2.0, 0.0), 21);
        let ch = channels_for(Point2::new(1.0, 1.0), &traj);
        let loc = SarLocalizer::new(F2, Point2::new(0.0, 0.1), Point2::new(2.0, 2.0), 0.05);
        let want = serial_reference(&loc, &traj, &ch);
        let _guard = crate::pool::TEST_WIDTH_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for workers in [1, 3] {
            crate::pool::set_global_workers(workers);
            assert_bit_identical(&loc.heatmap(&traj, &ch), &want, "global width");
        }
        crate::pool::reset_global_workers();
    }

    #[test]
    #[should_panic(expected = "one channel per trajectory position")]
    fn mismatched_heatmap_input_panics_with_the_serial_message() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 5);
        let _ = localizer().heatmap_on(&Pool::new(4), &traj, &[Complex::default()]);
    }

    #[test]
    #[should_panic(expected = "one channel per trajectory position")]
    fn mismatched_lengths_rejected() {
        let traj = Trajectory::line(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), 5);
        let _ = localizer().score_at(Point2::ORIGIN, &traj, &[Complex::default()]);
    }
}
