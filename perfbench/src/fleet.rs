//! `fleet-inventory`: one 8-relay paper-building site per operation,
//! flown by `rfly_fleet::inventory::run_mission` — the per-site shape
//! of the 32-relay `ext_fleet_scaling` row.

use rfly_bench::harness::{paper_budget, shelf_items};
use rfly_channel::geometry::Point2;
use rfly_core::relay::gains::IsolationBudget;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::rng::StdRng;
use rfly_dsp::units::{Db, Meters};
use rfly_fleet::channels::{assign, ChannelPlan};
use rfly_fleet::inventory::{mission_world, run_mission, MissionConfig, MissionOutcome};
use rfly_fleet::partition::{partition, Partition};
use rfly_fleet::FleetInventory;
use rfly_reader::inventory::InventoryController;
use rfly_sim::fleet::FleetMedium;
use rfly_sim::medium::FleetRf;
use rfly_sim::scene::Scene;
use rfly_sim::world::PhasorWorld;
use rfly_tag::harvester::Harvester;

use crate::trace::{self, span, TimedMedium};
use crate::workload::{reader_round, site_seed, Sample, Workload};

const SITE_RELAYS: usize = 8;
const SITE_TAGS: usize = 2560;
const RACK_DEPTH_M: f64 = 0.5;
const MARGIN: Db = Db(10.0);
const SAMPLE_INTERVAL_S: f64 = 4.0;
const TIME_BUDGET_S: f64 = 8.0;
const MAX_ROUNDS: usize = 1;
/// The channel plan's seed: fixed, as in `ext_fleet_scaling`, where
/// every site of a row shares one plan. Only the sites vary with the
/// workload seed.
const PLAN_SEED: u64 = 7;

pub struct FleetInventoryWorkload {
    seed: u64,
    scene: Scene,
    cells: Partition,
    plan: ChannelPlan,
    budget: IsolationBudget,
}

/// One site, ready to fly: its world (tags placed, never flown) and
/// mission config.
pub struct Site {
    world: PhasorWorld,
    cfg: MissionConfig,
}

impl FleetInventoryWorkload {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let scene = Scene::paper_building();
        let budget = paper_budget();
        let cells = span("fleet.partition", || {
            partition(&scene, SITE_RELAYS, MotionLimits::indoor_drone())
        })
        .map_err(|e| format!("site partition infeasible: {e:?}"))?;
        let hover: Vec<Point2> = cells.cells.iter().map(|c| c.center()).collect();
        let plan = span("fleet.assign", || {
            assign(&hover, &budget, MARGIN, PLAN_SEED)
        })
        .map_err(|e| format!("no stable channel plan: {e:?}"))?;
        Ok(Self {
            seed,
            scene,
            cells,
            plan,
            budget,
        })
    }

    /// `run_mission`'s loop rebuilt from its public calls, with every
    /// layer boundary wrapped in a span.
    fn fly_traced(&self, site: &mut Site) -> MissionOutcome {
        let (world, cfg) = (&mut site.world, &site.cfg);
        let n = self.cells.len();
        let duration = self
            .cells
            .duration()
            .min(cfg.time_budget_s.unwrap_or(f64::INFINITY));
        let steps = (duration / cfg.sample_interval_s).ceil() as usize + 1;
        let threshold = Harvester::passive_tag().threshold;
        let mut inventory = FleetInventory::new(n);
        for step in 0..steps {
            let t = (step as f64 * cfg.sample_interval_s).min(duration);
            let fleet = span("fleet.plan", || {
                let positions: Vec<Point2> = self
                    .cells
                    .plans
                    .iter()
                    .map(|p| p.position_at(t.min(p.duration())))
                    .collect();
                self.plan.fleet(&self.budget, &positions)
            });
            let rf = span("sim.fleetrf_trace", || FleetRf::trace(world, fleet));
            for serving in 0..n {
                let mut controller = InventoryController::new(
                    world.config.clone(),
                    StdRng::seed_from_u64(cfg.seed ^ (((step as u64) << 8) | serving as u64)),
                );
                let mut medium = TimedMedium(FleetMedium::fleet_planned(world, &rf, serving));
                // `run_until_quiet`, one round at a time.
                let mut reads = Vec::new();
                for _ in 0..cfg.max_rounds {
                    let stats = reader_round(&mut controller, &mut medium);
                    let activity = stats.singles + stats.collisions;
                    reads.extend(stats.reads);
                    if activity == 0 {
                        break;
                    }
                }
                span("fleet.observe", || {
                    for read in &reads {
                        if read.epc != PhasorWorld::embedded_epc() {
                            inventory.observe(read, serving, step);
                        }
                    }
                });
                span("sim.power_cycle", || world.power_cycle_tags());
            }
            // Input property, measured outside the operation span: the
            // share of tags the stop's fleet field can power at all.
            trace::outside_op(|| {
                let positions: Vec<Point2> =
                    world.tags.tags().iter().map(|tag| tag.position()).collect();
                let probe = FleetMedium::fleet_planned(world, &rf, 0);
                let powered = positions
                    .iter()
                    .filter(|&&p| probe.incident_at(p) >= threshold)
                    .count();
                trace::count("tag.powered", powered as f64);
                trace::count("tag.present", positions.len() as f64);
            });
        }
        MissionOutcome {
            inventory,
            steps,
            duration_s: duration,
        }
    }
}

impl Workload for FleetInventoryWorkload {
    type Input = Site;
    type Output = MissionOutcome;

    fn prepare(&self, op: usize) -> Result<Site, String> {
        let seed = site_seed(self.seed, op);
        let cfg = MissionConfig {
            sample_interval_s: SAMPLE_INTERVAL_S,
            max_rounds: MAX_ROUNDS,
            seed,
            time_budget_s: Some(TIME_BUDGET_S),
        };
        let tags = shelf_items(
            &self.scene,
            SITE_TAGS,
            seed,
            Some(Meters::new(RACK_DEPTH_M)),
        );
        let world = mission_world(
            &self.scene,
            Point2::new(1.0, 1.0),
            tags,
            &self.plan,
            &self.budget,
            seed,
        );
        Ok(Site { world, cfg })
    }

    fn run(&self, mut site: Site) -> Result<MissionOutcome, String> {
        Ok(run_mission(
            &mut site.world,
            &self.plan,
            &self.cells,
            &self.budget,
            &site.cfg,
        ))
    }

    fn run_traced(&self, mut site: Site) -> Result<MissionOutcome, String> {
        Ok(self.fly_traced(&mut site))
    }

    fn check(&self, out: &MissionOutcome) -> Result<Sample, String> {
        let inv = &out.inventory;
        let expected_steps =
            (self.cells.duration().min(TIME_BUDGET_S) / SAMPLE_INTERVAL_S).ceil() as usize + 1;
        if out.steps != expected_steps {
            return Err(format!(
                "flew {} stops, expected {expected_steps}",
                out.steps
            ));
        }
        if inv.unique_tags() == 0 || inv.unique_tags() > SITE_TAGS {
            return Err(format!("{} unique tags of {SITE_TAGS}", inv.unique_tags()));
        }
        if let Some(r) = inv.records().find(|r| r.epc == PhasorWorld::embedded_epc()) {
            return Err(format!(
                "embedded EPC {:?} leaked into the inventory",
                r.epc
            ));
        }
        let merged: usize = inv.records().map(|r| r.reads).sum();
        let credited: usize = inv.per_relay_reads.iter().sum();
        if merged != credited {
            return Err(format!(
                "dedup lost reads: {merged} merged vs {credited} credited"
            ));
        }
        Ok(Sample {
            work: (SITE_TAGS * out.steps * self.cells.len()) as f64,
            read_rate: inv.read_rate(SITE_TAGS),
            error_m: None,
        })
    }

    fn same(&self, untraced: &MissionOutcome, traced: &MissionOutcome) -> Result<(), String> {
        if untraced == traced {
            Ok(())
        } else {
            Err("traced mission outcome differs from run_mission's".into())
        }
    }
}
