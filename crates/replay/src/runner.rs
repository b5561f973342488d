//! The deterministic mission runner: a self-contained [`Scenario`]
//! spec that rebuilds the *identical* world from its parameters alone,
//! and drivers that journal every step, kill a mission at a step
//! boundary, and resume it from a checkpoint.
//!
//! The scenario line is the root of reproducibility: a repro file or a
//! journal header carries it verbatim, so a triage session months later
//! reconstructs the same warehouse, tag population, channel plan, and
//! RNG streams from one line of text.

use rfly_channel::geometry::Point2;
use rfly_chaos::durable::Durable;
use rfly_core::relay::gains::IsolationBudget;
use rfly_drone::kinematics::MotionLimits;
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::Db;
use rfly_faults::supervisor::{MissionEnv, MissionState, StepRecord, SupervisorConfig};
use rfly_faults::text::{fmt_f64, Fields, ParseError};
use rfly_faults::{FaultSchedule, ResilientOutcome};
use rfly_fleet::channels::{assign, ChannelPlan};
use rfly_fleet::inventory::{mission_world, MissionConfig};
use rfly_fleet::partition::{partition, Partition};
use rfly_sim::scene::Scene;
use rfly_sim::world::PhasorWorld;
use rfly_tag::population::TagPopulation;

use crate::checkpoint::Checkpoint;
use crate::journal::{header_text, seal_text, Journal, JournalCodec, Seal};

/// Everything needed to rebuild a mission deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Fleet size.
    pub n_relays: usize,
    /// Tag population size.
    pub n_tags: usize,
    /// The master seed: world noise, tag placement, channel hopping.
    pub seed: u64,
    /// Warehouse width, meters.
    pub width_m: f64,
    /// Warehouse depth, meters.
    pub depth_m: f64,
    /// Shelf rows in the warehouse.
    pub shelves: usize,
    /// Seconds of flight between inventory stops.
    pub sample_interval_s: f64,
    /// Gen2 rounds per (stop, relay).
    pub max_rounds: usize,
    /// The Eq. 3 design margin, dB.
    pub margin_db: f64,
    /// Whether the recovery ladder is active.
    pub supervised: bool,
}

impl Scenario {
    /// The small triage scenario: 2 relays, 10 tags, a 16×12 m
    /// warehouse — big enough to exercise every recovery rung, small
    /// enough that a shrink session's dozens of re-runs stay cheap.
    pub fn small(seed: u64) -> Self {
        Self {
            n_relays: 2,
            n_tags: 10,
            seed,
            width_m: 16.0,
            depth_m: 12.0,
            shelves: 2,
            sample_interval_s: 8.0,
            max_rounds: 2,
            margin_db: 10.0,
            supervised: true,
        }
    }

    /// The paper's §6.1 isolation budget.
    pub fn budget(&self) -> IsolationBudget {
        IsolationBudget {
            intra_downlink: Db::new(77.0),
            intra_uplink: Db::new(64.0),
            inter_downlink: Db::new(110.0),
            inter_uplink: Db::new(92.0),
        }
    }

    /// The stable one-line form embedded in journals and repro files.
    pub fn to_line(&self) -> String {
        format!(
            "scenario relays={} tags={} seed={} w={} d={} shelves={} interval={} rounds={} margin={} supervised={}",
            self.n_relays,
            self.n_tags,
            self.seed,
            fmt_f64(self.width_m),
            fmt_f64(self.depth_m),
            self.shelves,
            fmt_f64(self.sample_interval_s),
            self.max_rounds,
            fmt_f64(self.margin_db),
            u8::from(self.supervised),
        )
    }

    /// Parses [`Self::to_line`].
    pub fn from_line(line: &str, line_no: usize) -> Result<Self, ParseError> {
        let mut f = Fields::new(line, line_no);
        f.expect_tok("scenario")?;
        let scn = Self {
            n_relays: f.kv_usize("relays")?,
            n_tags: f.kv_usize("tags")?,
            seed: {
                let v = f.kv("seed")?;
                v.parse().map_err(|_| f.error(format!("bad seed {v:?}")))?
            },
            width_m: f.kv_f64("w")?,
            depth_m: f.kv_f64("d")?,
            shelves: f.kv_usize("shelves")?,
            sample_interval_s: f.kv_f64("interval")?,
            max_rounds: f.kv_usize("rounds")?,
            margin_db: f.kv_f64("margin")?,
            supervised: f.kv_usize("supervised")? != 0,
        };
        f.finish()?;
        Ok(scn)
    }

    /// Builds the full mission context: scene, partition, channel plan,
    /// phasor world, and pacing config — a pure function of `self`.
    pub fn build(&self) -> Result<Mission, String> {
        let scene = Scene::warehouse(self.width_m, self.depth_m, self.shelves);
        let limits = MotionLimits::indoor_drone();
        let part = partition(&scene, self.n_relays, limits)
            .map_err(|e| format!("partition failed: {e:?}"))?;
        let hover: Vec<Point2> = part.cells.iter().map(|c| c.center()).collect();
        let budget = self.budget();
        let plan = assign(&hover, &budget, Db::new(self.margin_db), self.seed)
            .map_err(|e| format!("channel assignment failed: {e:?}"))?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let positions: Vec<Point2> = (0..self.n_tags)
            .map(|_| {
                let spot = scene.tag_spots[rng.gen_range(0..scene.tag_spots.len())];
                Point2::new(spot.x + rng.gen_range(-0.5..0.5), spot.y)
            })
            .collect();
        let tags = TagPopulation::generate(self.n_tags, &positions, self.seed ^ 0xBEEF);
        let world = mission_world(
            &scene,
            Point2::new(1.0, 1.0),
            tags,
            &plan,
            &budget,
            self.seed,
        );
        let cfg = MissionConfig {
            sample_interval_s: self.sample_interval_s,
            max_rounds: self.max_rounds,
            seed: self.seed,
            time_budget_s: None,
        };
        Ok(Mission {
            scene,
            plan,
            part,
            world,
            cfg,
            budget,
            margin: Db::new(self.margin_db),
            limits,
        })
    }
}

/// A built mission: the world plus every static input the supervisor
/// needs.
#[derive(Debug)]
pub struct Mission {
    /// The warehouse floor.
    pub scene: Scene,
    /// The Δf channel plan.
    pub plan: ChannelPlan,
    /// The coverage partition.
    pub part: Partition,
    /// The phasor-level world.
    pub world: PhasorWorld,
    /// Mission pacing.
    pub cfg: MissionConfig,
    /// The relays' isolation budget.
    pub budget: IsolationBudget,
    /// The Eq. 3 design margin.
    pub margin: Db,
    /// Drone motion limits.
    pub limits: MotionLimits,
}

/// A completed, journaled mission.
#[derive(Debug)]
pub struct Run {
    /// The step-by-step record.
    pub journal: Journal,
    /// The mission outcome.
    pub outcome: ResilientOutcome,
}

/// A supervised mission as a durable job.
pub(crate) struct MissionJob<'a> {
    codec: JournalCodec<'a>,
    scenario: &'a Scenario,
    schedule: &'a FaultSchedule,
    sup: SupervisorConfig,
}

/// A mission in flight: its world, supervisor state and journal.
pub(crate) struct InFlight {
    m: Mission,
    state: MissionState,
    journal: Journal,
}

impl InFlight {
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            mission: self.state.snapshot(),
            world: self.m.world.snapshot(),
        }
    }
}

impl<'a> MissionJob<'a> {
    pub(crate) fn new(scenario: &'a Scenario, schedule: &'a FaultSchedule) -> Self {
        Self {
            codec: JournalCodec {
                expect: Some(scenario),
            },
            scenario,
            schedule,
            sup: SupervisorConfig::default(),
        }
    }

    fn sup(&self) -> Option<&SupervisorConfig> {
        self.scenario.supervised.then_some(&self.sup)
    }

    /// Ends the mission: its outcome and the journal sealed with it.
    fn land(&self, f: InFlight) -> Run {
        let env = MissionEnv {
            scene: &f.m.scene,
            budget: f.m.budget,
            margin: f.m.margin,
            limits: f.m.limits,
        };
        let outcome = f.state.into_outcome(&env, self.sup());
        let mut journal = f.journal;
        journal.sealed = Some(Seal {
            steps: outcome.steps,
            duration_s: outcome.duration_s,
        });
        Run { journal, outcome }
    }
}

impl<'a> Durable for MissionJob<'a> {
    type Codec = JournalCodec<'a>;
    type State = InFlight;
    type Checkpoint = Checkpoint;
    type Done = Run;

    fn codec(&self) -> &JournalCodec<'a> {
        &self.codec
    }

    fn header_text(&self) -> String {
        header_text(self.scenario)
    }

    fn start(&self) -> Result<InFlight, String> {
        let m = self.scenario.build()?;
        Ok(InFlight {
            state: MissionState::new(&m.plan, &m.part, &m.cfg),
            m,
            journal: Journal::begin(self.scenario.clone()),
        })
    }

    fn step(&self, f: &mut InFlight) -> Result<Option<StepRecord>, String> {
        if f.state.finished() {
            return Ok(None);
        }
        let m = &mut f.m;
        let env = MissionEnv {
            scene: &m.scene,
            budget: m.budget,
            margin: m.margin,
            limits: m.limits,
        };
        let rec = f
            .state
            .advance(&mut m.world, &env, &m.cfg, self.schedule, self.sup());
        rfly_obs::counter_add("replay.steps_journaled", 1);
        f.journal.push(&rec);
        Ok(Some(rec))
    }

    fn checkpoint_text(&self, f: &InFlight) -> String {
        f.checkpoint().to_text()
    }

    fn decode_checkpoint(&self, text: &str) -> Option<(usize, Checkpoint)> {
        let cp = Checkpoint::from_text(text).ok()?;
        Some((cp.mission.step, cp))
    }

    fn restore(&self, cp: Checkpoint) -> Result<InFlight, String> {
        let mut m = self.scenario.build()?;
        m.world
            .restore(&cp.world)
            .map_err(|e| format!("world restore failed: {e}"))?;
        Ok(InFlight {
            m,
            state: MissionState::from_snapshot(cp.mission),
            journal: Journal::begin(self.scenario.clone()),
        })
    }

    fn absorb(&self, f: &mut InFlight, block: StepRecord) {
        f.journal.steps.push(block);
    }

    fn finish(&self, f: InFlight) -> Result<(String, String, Run), String> {
        let checkpoint = f.checkpoint().to_text();
        let run = self.land(f);
        let seal = run.journal.sealed.as_ref().map(seal_text);
        Ok((seal.unwrap_or_default(), checkpoint, run))
    }
}

/// Flies `scenario` under `schedule` start to finish, journaling every
/// step.
pub fn run_full(scenario: &Scenario, schedule: &FaultSchedule) -> Result<Run, String> {
    let _span = rfly_obs::span("replay.run_full");
    let job = MissionJob::new(scenario, schedule);
    let mut f = job.start()?;
    while job.step(&mut f)?.is_some() {}
    Ok(job.land(f))
}

/// Flies `scenario` under `schedule` until the step boundary
/// `kill_step` (or mission end, whichever first), then "crashes":
/// returns the partial journal and the checkpoint taken at the kill
/// point. The mission state is dropped — resumption must come from the
/// checkpoint alone.
pub fn run_killed(
    scenario: &Scenario,
    schedule: &FaultSchedule,
    kill_step: usize,
) -> Result<(Journal, Checkpoint), String> {
    let job = MissionJob::new(scenario, schedule);
    let mut f = job.start()?;
    while f.state.step() < kill_step && job.step(&mut f)?.is_some() {}
    let checkpoint = f.checkpoint();
    Ok((f.journal, checkpoint))
}

/// Resumes a killed mission: rebuilds the world from the scenario,
/// restores the checkpoint into it, and flies the remainder, appending
/// to `journal` (normally the partial journal [`run_killed`] returned).
pub fn resume(
    scenario: &Scenario,
    schedule: &FaultSchedule,
    checkpoint: &Checkpoint,
    journal: Journal,
) -> Result<Run, String> {
    let _span = rfly_obs::span("replay.resume");
    rfly_obs::counter_add("replay.resumes", 1);
    let job = MissionJob::new(scenario, schedule);
    let mut f = job.restore(checkpoint.clone())?;
    f.journal = journal;
    while job.step(&mut f)?.is_some() {}
    Ok(job.land(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_line_round_trips() {
        let scn = Scenario::small(42);
        let line = scn.to_line();
        let back = Scenario::from_line(&line, 1).expect("parses");
        assert_eq!(back, scn);
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn scenario_line_rejects_garbage() {
        assert!(Scenario::from_line("scenario relays=x", 3).is_err());
        assert!(Scenario::from_line("scene relays=2", 3).is_err());
    }

    #[test]
    fn build_is_deterministic() {
        let scn = Scenario::small(7);
        let a = scn.build().expect("builds");
        let b = scn.build().expect("builds");
        assert_eq!(a.plan.f1, b.plan.f1);
        assert_eq!(a.world.snapshot().rng, b.world.snapshot().rng);
        assert_eq!(a.part.cells.len(), scn.n_relays);
    }
}
