//! 3D localization extension (§5.2).
//!
//! "While the above localization method was described in 2D for
//! simplicity, it can be extended to 3D if the robot's trajectory is
//! two-dimensional." Same non-linear projection, three coordinates: the
//! drone flies a planar (e.g. lawnmower) pattern and the grid search
//! runs over (x, y, z).

use rfly_channel::geometry::Point3;
use rfly_dsp::units::Hertz;
use rfly_dsp::Complex;

use super::sar::Projection;
use crate::pool::Pool;

/// A 3D trajectory (positions with height).
#[derive(Debug, Clone)]
pub struct Trajectory3 {
    points: Vec<Point3>,
}

impl Trajectory3 {
    /// Builds from explicit points.
    pub fn from_points(points: Vec<Point3>) -> Self {
        assert!(!points.is_empty());
        Self { points }
    }

    /// A planar lawnmower at height `z` — the 2D aperture 3D fixes need.
    pub fn lawnmower_at_height(
        min: rfly_channel::geometry::Point2,
        max: rfly_channel::geometry::Point2,
        z: f64,
        rows: usize,
        k_per_row: usize,
    ) -> Self {
        let t2 = super::trajectory::Trajectory::lawnmower(min, max, rows, k_per_row);
        Self {
            points: t2.points().iter().map(|p| p.with_z(z)).collect(),
        }
    }

    /// The measurement positions.
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no positions (cannot be constructed; for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Distance from a point to the nearest trajectory sample.
    pub fn distance_to(&self, p: Point3) -> f64 {
        self.points
            .iter()
            .map(|t| t.distance(p))
            .fold(f64::MAX, f64::min)
    }
}

/// 3D grid-search SAR localizer.
#[derive(Debug, Clone)]
pub struct Sar3Localizer {
    /// Half-link frequency f₂.
    pub frequency: Hertz,
    /// Minimum corner of the search volume.
    pub region_min: Point3,
    /// Maximum corner of the search volume.
    pub region_max: Point3,
    /// Cell size, meters.
    pub resolution: f64,
}

impl Sar3Localizer {
    /// `P(x, y, z)` at a single point.
    pub fn score_at(&self, p: Point3, trajectory: &Trajectory3, channels: &[Complex]) -> f64 {
        Projection::new(self.frequency, trajectory.len(), channels)
            .power(trajectory.points().iter().map(|pos| pos.distance(p)))
    }

    /// Exhaustive grid search; returns the maximizing point. Candidate
    /// peaks within 50 % of the maximum are filtered by
    /// nearest-to-trajectory, mirroring the 2D rule. The score volume
    /// fills one x-row per task on the process-wide [`Pool`].
    pub fn localize(&self, trajectory: &Trajectory3, channels: &[Complex]) -> Option<Point3> {
        self.localize_on(&Pool::global(), trajectory, channels)
    }

    /// [`Self::localize`] on an explicit pool.
    pub(crate) fn localize_on(
        &self,
        pool: &Pool,
        trajectory: &Trajectory3,
        channels: &[Complex],
    ) -> Option<Point3> {
        if channels.is_empty() || channels.iter().all(|h| h.norm_sq() == 0.0) {
            return None;
        }
        let projection = Projection::new(self.frequency, trajectory.len(), channels);
        let points = trajectory.points();
        let steps = |lo: f64, hi: f64| ((hi - lo) / self.resolution).ceil() as usize + 1;
        let (nx, ny, nz) = (
            steps(self.region_min.x, self.region_max.x),
            steps(self.region_min.y, self.region_max.y),
            steps(self.region_min.z, self.region_max.z),
        );
        let pos_of = |ix: usize, iy: usize, iz: usize| {
            Point3::new(
                self.region_min.x + ix as f64 * self.resolution,
                self.region_min.y + iy as f64 * self.resolution,
                self.region_min.z + iz as f64 * self.resolution,
            )
        };
        let mut scores = vec![0.0f64; nx * ny * nz];
        pool.fill_chunked(&mut scores, nx, |first, row| {
            let (iy, iz) = ((first / nx) % ny, first / (nx * ny));
            for (ix, v) in row.iter_mut().enumerate() {
                let p = pos_of(ix, iy, iz);
                *v = projection.power(points.iter().map(|pos| pos.distance(p)));
            }
        });
        let global = scores.iter().copied().fold(0.0f64, f64::max);
        if global <= 0.0 {
            return None;
        }
        // Candidate peaks: *interior* 26-neighborhood local maxima above
        // the same relative threshold the 2D rule uses; pick the one
        // nearest the trajectory. Raw above-threshold *cells* would be
        // wrong (the mainlobe's shoulder facing the trajectory would
        // always win), and so would boundary cells: the defocused cone
        // between the aperture plane and the focus crosses the region
        // boundary at high values, masquerading as near-trajectory
        // maxima. The search volume must therefore enclose the tag with
        // a margin — the natural setup (the volume is the building).
        let floor = global * super::peaks::CANDIDATE_THRESHOLD;
        let at = |ix: i64, iy: i64, iz: i64| -> Option<f64> {
            if ix < 0 || iy < 0 || iz < 0 || ix >= nx as i64 || iy >= ny as i64 || iz >= nz as i64 {
                None
            } else {
                Some(scores[((iz as usize) * ny + iy as usize) * nx + ix as usize])
            }
        };
        let mut best: Option<(Point3, f64)> = None;
        for iz in 1..nz.saturating_sub(1) as i64 {
            for iy in 1..ny.saturating_sub(1) as i64 {
                for ix in 1..nx.saturating_sub(1) as i64 {
                    let Some(v) = at(ix, iy, iz) else { continue };
                    if v < floor {
                        continue;
                    }
                    let mut is_max = true;
                    'nb: for dz in -1..=1 {
                        for dy in -1..=1 {
                            for dx in -1..=1 {
                                if dx == 0 && dy == 0 && dz == 0 {
                                    continue;
                                }
                                // Interior loop bounds keep every neighbor in range.
                                if at(ix + dx, iy + dy, iz + dz).is_some_and(|n| n > v) {
                                    is_max = false;
                                    break 'nb;
                                }
                            }
                        }
                    }
                    if !is_max {
                        continue;
                    }
                    let p = pos_of(ix as usize, iy as usize, iz as usize);
                    let d = trajectory.distance_to(p);
                    if best.is_none_or(|(bp, _)| d < trajectory.distance_to(bp)) {
                        best = Some((p, v));
                    }
                }
            }
        }
        best.map(|(p, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_channel::geometry::Point2;
    use rfly_dsp::SPEED_OF_LIGHT;

    const F2: Hertz = Hertz(917e6);

    fn channels_for(tag: Point3, traj: &Trajectory3) -> Vec<Complex> {
        let k = std::f64::consts::TAU * F2.as_hz() / SPEED_OF_LIGHT;
        traj.points()
            .iter()
            .map(|p| Complex::cis(-k * 2.0 * p.distance(tag)))
            .collect()
    }

    #[test]
    fn planar_trajectory_fixes_3d_position() {
        // Drone lawnmower at z = 2 m; tag on the floor below. Row and
        // sample spacing ≈ λ/2 (0.17 m): wider spacing creates grating
        // lobes that alias the fix.
        let traj = Trajectory3::lawnmower_at_height(
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 2.0),
            2.0,
            13,
            13,
        );
        let tag = Point3::new(1.1, 0.8, 0.0);
        let ch = channels_for(tag, &traj);
        let loc = Sar3Localizer {
            frequency: F2,
            region_min: Point3::new(0.0, 0.0, -0.5),
            region_max: Point3::new(2.0, 2.0, 1.5),
            resolution: 0.05,
        };
        let est = loc.localize(&traj, &ch).expect("localizes");
        assert!(est.distance(tag) < 0.12, "err {}", est.distance(tag));
        assert!((est.z - 0.0).abs() < 0.12, "height err {}", est.z);
    }

    #[test]
    fn score_peaks_at_truth() {
        let traj = Trajectory3::lawnmower_at_height(
            Point2::new(0.0, 0.0),
            Point2::new(1.5, 1.5),
            2.0,
            4,
            8,
        );
        let tag = Point3::new(0.7, 0.7, 0.3);
        let ch = channels_for(tag, &traj);
        let loc = Sar3Localizer {
            frequency: F2,
            region_min: Point3::new(0.0, 0.0, 0.0),
            region_max: Point3::new(1.5, 1.5, 1.0),
            resolution: 0.1,
        };
        let at_tag = loc.score_at(tag, &traj, &ch);
        assert!((at_tag - (traj.len() as f64).powi(2)).abs() < 1e-6);
        assert!(loc.score_at(Point3::new(0.1, 1.4, 0.9), &traj, &ch) < at_tag);
    }

    #[test]
    fn estimate_is_the_same_at_any_pool_width() {
        // The `planar_trajectory_fixes_3d_position` fixture, coarser:
        // every width must land on the serial estimate, and the volume
        // (nx = 21, ny = 21, nz = 11 rows of x) splits unevenly.
        let traj = Trajectory3::lawnmower_at_height(
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 2.0),
            2.0,
            13,
            13,
        );
        let ch = channels_for(Point3::new(1.1, 0.8, 0.0), &traj);
        let loc = Sar3Localizer {
            frequency: F2,
            region_min: Point3::new(0.0, 0.0, -0.5),
            region_max: Point3::new(2.0, 2.0, 0.5),
            resolution: 0.1,
        };
        let serial = loc.localize_on(&Pool::serial(), &traj, &ch);
        assert!(serial.is_some());
        for workers in [2, 3, 8] {
            let got = loc.localize_on(&Pool::new(workers), &traj, &ch);
            assert_eq!(got, serial, "width {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "one channel per trajectory position")]
    fn mismatched_lengths_rejected() {
        let traj = Trajectory3::from_points(vec![Point3::ORIGIN, Point3::new(1.0, 0.0, 0.0)]);
        let loc = Sar3Localizer {
            frequency: F2,
            region_min: Point3::ORIGIN,
            region_max: Point3::new(1.0, 1.0, 1.0),
            resolution: 0.5,
        };
        let _ = loc.localize_on(&Pool::new(4), &traj, &[Complex::new(1.0, 0.0)]);
    }

    #[test]
    fn silent_channels_fail() {
        let traj = Trajectory3::from_points(vec![Point3::new(0.0, 0.0, 1.0)]);
        let loc = Sar3Localizer {
            frequency: F2,
            region_min: Point3::ORIGIN,
            region_max: Point3::new(1.0, 1.0, 1.0),
            resolution: 0.5,
        };
        assert!(loc.localize(&traj, &[Complex::default()]).is_none());
    }
}
