//! `sar-localize`: one Fig. 12-style building fix through the relay
//! per operation, driven by the same public calls as
//! `rfly_bench::localization_trial` (trajectory inventory →
//! `disentangle_filtered` → `SarLocalizer`), at the 2 cm grid.

use rfly_channel::geometry::Point2;
use rfly_core::loc::disentangle::{disentangle_filtered, PairedMeasurement};
use rfly_core::loc::peaks::select_nearest_peak;
use rfly_core::loc::sar::SarLocalizer;
use rfly_core::loc::trajectory::Trajectory;
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::Complex;
use rfly_protocol::epc::Epc;
use rfly_reader::config::ReaderConfig;
use rfly_reader::inventory::{InventoryController, Medium, TagRead};
use rfly_sim::scene::Scene;
use rfly_sim::world::{PhasorWorld, RelayModel};
use rfly_tag::harvester::Harvester;
use rfly_tag::population::TagPopulation;
use rfly_tag::tag::PassiveTag;

use crate::trace::{self, span, TimedMedium};
use crate::workload::{reader_round, site_seed, Sample, Workload};

const TRAJ_POINTS: usize = 31;
const APERTURE_M: f64 = 3.0;
const READER_OFFSET_M: f64 = 10.0;
const RESOLUTION_M: f64 = 0.02;
/// Gen2 rounds per trajectory point, as in `localization_trial`.
const ROUNDS_PER_POINT: usize = 6;

pub struct SarLocalizeWorkload {
    seed: u64,
    scene: Scene,
}

/// One fix's inputs: a fresh single-tag world and the flight.
pub struct Trial {
    world: PhasorWorld,
    tag: Point2,
    traj: Trajectory,
    region: (Point2, Point2),
    seed: u64,
}

/// One fix's result.
#[derive(Debug, PartialEq)]
pub struct Fix {
    estimate: Option<Point2>,
    truth: Point2,
    region: (Point2, Point2),
    /// Trajectory points with both a tag and an embedded-RFID read.
    paired: usize,
    /// Measurements kept by the disentangling filter.
    used: usize,
}

impl Fix {
    fn cells(&self) -> usize {
        let (lo, hi) = self.region;
        let nx = ((hi.x - lo.x) / RESOLUTION_M).ceil() as usize + 1;
        let ny = ((hi.y - lo.y) / RESOLUTION_M).ceil() as usize + 1;
        nx * ny
    }
}

/// The trajectory inventory's output: per point, the tag's and the
/// embedded RFID's channel when read.
type Tracks = (Vec<Option<Complex>>, Vec<Option<Complex>>);

fn split_reads(reads: Vec<TagRead>, i: usize, tracks: &mut Tracks) {
    for read in reads {
        if read.epc == PhasorWorld::embedded_epc() {
            tracks.1[i] = Some(read.channel);
        } else {
            tracks.0[i] = Some(read.channel);
        }
    }
}

fn controller(config: &ReaderConfig, seed: u64, i: usize) -> InventoryController {
    InventoryController::new(
        config.clone(),
        StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37)),
    )
}

/// Pairs the two tracks, filters them, and returns the kept
/// trajectory and channels (`None` below three pairs).
fn disentangle(trial: &Trial, tracks: &Tracks) -> (usize, Option<(Trajectory, Vec<Complex>)>) {
    let mut pairs = Vec::new();
    let mut pts = Vec::new();
    for (i, (t, e)) in tracks.0.iter().zip(&tracks.1).enumerate() {
        if let (Some(t), Some(e)) = (t, e) {
            pairs.push(PairedMeasurement {
                tag: *t,
                embedded: *e,
            });
            pts.push(trial.traj.points()[i]);
        }
    }
    if pairs.len() < 3 {
        return (pairs.len(), None);
    }
    let (kept, channels) = disentangle_filtered(&pairs);
    let used = Trajectory::from_points(kept.iter().map(|&i| pts[i]).collect());
    (pairs.len(), Some((used, channels)))
}

impl SarLocalizeWorkload {
    pub fn setup(seed: u64) -> Self {
        Self {
            seed,
            scene: Scene::paper_building(),
        }
    }

    fn localizer(&self, trial: &Trial) -> SarLocalizer {
        SarLocalizer::new(
            RelayModel::prototype(ReaderConfig::usrp_default().frequency).f2,
            trial.region.0,
            trial.region.1,
            RESOLUTION_M,
        )
    }
}

impl Workload for SarLocalizeWorkload {
    type Input = Trial;
    type Output = Fix;

    fn prepare(&self, op: usize) -> Result<Trial, String> {
        let seed = site_seed(self.seed, op);
        let mut rng = StdRng::seed_from_u64(seed);
        let spots = &self.scene.tag_spots;
        let spot = spots[rng.gen_range(0..spots.len())];
        // Items sit between 0.15 m and 0.9 m behind the shelf face.
        let tag = Point2::new(
            spot.x + rng.gen_range(-1.0..1.0),
            spot.y + 0.3 - rng.gen_range(0.15..0.9),
        );
        let aisle = self
            .scene
            .aisles
            .iter()
            .min_by(|a, b| {
                a.midpoint()
                    .distance(tag)
                    .total_cmp(&b.midpoint().distance(tag))
            })
            .copied()
            .ok_or("scene has no aisles")?;
        let y = aisle.a.y;
        let half = APERTURE_M / 2.0;
        let traj = Trajectory::line(
            Point2::new(tag.x - half, y),
            Point2::new(tag.x + half, y),
            TRAJ_POINTS,
        );
        let reader = Point2::new((tag.x - READER_OFFSET_M).max(1.0), y);
        // One-sided 6 × 3.9 m region on the tag's side of the aisle.
        let region = if tag.y > y {
            (
                Point2::new(tag.x - 3.0, y + 0.1),
                Point2::new(tag.x + 3.0, y + 4.0),
            )
        } else {
            (
                Point2::new(tag.x - 3.0, y - 4.0),
                Point2::new(tag.x + 3.0, y - 0.1),
            )
        };
        let config = ReaderConfig::usrp_default();
        let mut tags = TagPopulation::new();
        tags.add(
            PassiveTag::new(Epc::from_index(0), seed, tag),
            "trial-tag".into(),
        );
        let relay = RelayModel::prototype(config.frequency);
        let world = PhasorWorld::new(
            self.scene.environment.clone(),
            reader,
            config,
            tags,
            relay,
            seed,
        );
        Ok(Trial {
            world,
            tag,
            traj,
            region,
            seed,
        })
    }

    fn run(&self, mut trial: Trial) -> Result<Fix, String> {
        let n = trial.traj.len();
        let mut tracks: Tracks = (vec![None; n], vec![None; n]);
        let config = trial.world.config.clone();
        for i in 0..n {
            let pos = trial.traj.points()[i];
            trial.world.power_cycle_tags();
            let mut c = controller(&config, trial.seed, i);
            let reads = c.run_until_quiet(&mut trial.world.relayed_medium(pos), ROUNDS_PER_POINT);
            split_reads(reads, i, &mut tracks);
        }
        let (paired, kept) = disentangle(&trial, &tracks);
        let (estimate, used) = match kept {
            Some((used, channels)) => (
                self.localizer(&trial)
                    .localize(&used, &channels)
                    .map(|(est, _)| est),
                used.len(),
            ),
            None => (None, 0),
        };
        Ok(Fix {
            estimate,
            truth: trial.tag,
            region: trial.region,
            paired,
            used,
        })
    }

    fn run_traced(&self, mut trial: Trial) -> Result<Fix, String> {
        let n = trial.traj.len();
        let mut tracks: Tracks = (vec![None; n], vec![None; n]);
        let config = trial.world.config.clone();
        let threshold = Harvester::passive_tag().threshold;
        span("loc.inventory", || {
            for i in 0..n {
                let pos = trial.traj.points()[i];
                trial.world.power_cycle_tags();
                let mut c = controller(&config, trial.seed, i);
                let mut medium = TimedMedium(trial.world.relayed_medium(pos));
                trace::outside_op(|| {
                    let powered = medium.0.incident_at(trial.tag) >= threshold;
                    trace::count("tag.powered", f64::from(u8::from(powered)));
                    trace::count("tag.present", 1.0);
                });
                // `run_until_quiet`, one round at a time.
                let mut reads = Vec::new();
                for _ in 0..ROUNDS_PER_POINT {
                    let stats = reader_round(&mut c, &mut medium as &mut dyn Medium);
                    let activity = stats.singles + stats.collisions;
                    reads.extend(stats.reads);
                    if activity == 0 {
                        break;
                    }
                }
                split_reads(reads, i, &mut tracks);
            }
        });
        let (paired, kept) = span("loc.disentangle", || disentangle(&trial, &tracks));
        let sar = self.localizer(&trial);
        let (estimate, used) = match kept {
            // `SarLocalizer::localize`: reject an all-zero track, then
            // heatmap → nearest peak.
            Some((used, channels)) if channels.iter().any(|h| h.norm_sq() != 0.0) => {
                let map = span("loc.heatmap", || sar.heatmap(&used, &channels));
                trace::count("loc.heatmap_cells", (map.nx() * map.ny()) as f64);
                trace::count(
                    "loc.phasor_evals",
                    (map.nx() * map.ny() * channels.len()) as f64,
                );
                (
                    span("loc.peak_select", || select_nearest_peak(&map, &used)),
                    used.len(),
                )
            }
            Some((used, _)) => (None, used.len()),
            None => (None, 0),
        };
        Ok(Fix {
            estimate,
            truth: trial.tag,
            region: trial.region,
            paired,
            used,
        })
    }

    fn check(&self, fix: &Fix) -> Result<Sample, String> {
        let est = fix.estimate.ok_or_else(|| {
            format!(
                "no fix for the tag at {:?} ({} paired reads)",
                fix.truth, fix.paired
            )
        })?;
        let (lo, hi) = fix.region;
        if !(lo.x..=hi.x).contains(&est.x) || !(lo.y..=hi.y).contains(&est.y) {
            return Err(format!("estimate {est:?} outside the search region"));
        }
        Ok(Sample {
            work: (fix.cells() * fix.used) as f64,
            read_rate: fix.paired as f64 / TRAJ_POINTS as f64,
            error_m: Some(est.distance(fix.truth)),
        })
    }

    fn same(&self, untraced: &Fix, traced: &Fix) -> Result<(), String> {
        if untraced == traced {
            Ok(())
        } else {
            Err(format!(
                "traced fix {:?} differs from SarLocalizer::localize's {:?}",
                traced.estimate, untraced.estimate
            ))
        }
    }
}
