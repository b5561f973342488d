//! `durable-recovery`: one durable job per operation — a supervised
//! fault-storm mission persisted by `rfly_replay::run_stored` plus a
//! 24 h `rfly_ops` campaign persisted by `run_stored_campaign`, both on
//! `MemStorage` with a checkpoint every step. An operation times the
//! two uncrashed writes, then the `recover_stored` +
//! `recover_stored_campaign` calls that heal the files left by crashes
//! at seeded `CrashPoint`s (the crashing itself is untimed), one in
//! each quarter of the job's storage-operation stream; every recovery
//! must be byte-identical to the uncrashed files. Crashing once per
//! quarter keeps an operation's cost from hinging on where a single
//! crash landed.
//!
//! `MemStorage`, because `DiskStorage` fsyncs, and fsync on a shared
//! disk measures the disk.

use rfly_channel::geometry::Point2;
use rfly_chaos::verify::enumerate_crash_points;
use rfly_chaos::{ChaosStorage, CrashPoint, MemStorage, Storage, StorageError};
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::Seconds;
use rfly_faults::supervisor::{MissionEnv, MissionState, SupervisorConfig};
use rfly_faults::{FaultSchedule, ResilientOutcome};
use rfly_ops::persist::salvage_campaign_log;
use rfly_ops::{recover_stored_campaign, run_stored_campaign, CampaignPaths, OpsConfig};
use rfly_replay::journal::{self, Journal};
use rfly_replay::store::{recover_stored, run_stored, salvage_journal, StorePaths};
use rfly_replay::{Checkpoint, Run, Scenario};
use rfly_sim::scene::Scene;

use crate::trace::{count, span, TimedStorage};
use crate::workload::{site_seed, Sample, Workload};

const MISSION_TAGS: usize = 96;
const STORM_EVENTS: usize = 12;
/// Crash points per job and recovery operation.
const CRASHES: usize = 4;
/// Checkpoint cadence for both jobs: every step / tick.
const EVERY: usize = 1;

/// One durable job's inputs.
pub struct Job {
    scn: Scenario,
    schedule: FaultSchedule,
    cfg: OpsConfig,
}

/// The files and results of one completed job.
#[derive(Debug)]
pub struct Written {
    mission_files: MemStorage,
    campaign_files: MemStorage,
    outcome: ResilientOutcome,
    ticks: usize,
    /// The job seed (the campaign config is `OpsConfig::small(seed)`).
    seed: u64,
}

/// A job, its uncrashed files, and the files [`CRASHES`] crashes left.
pub struct Crashed {
    job: Job,
    /// `(mission files, campaign files)` of an uncrashed probe run.
    probe: (MemStorage, MemStorage),
    /// `(mission files, campaign files)` per crash.
    survivors: Vec<(MemStorage, MemStorage)>,
}

/// One operation's results: the uncrashed write, the probe files it
/// must equal, and every recovery, each of which must equal it too.
#[derive(Debug)]
pub struct Durability {
    written: Written,
    probe: (MemStorage, MemStorage),
    recovered: Vec<Written>,
}

fn io(op: &str, e: StorageError) -> String {
    format!("{op}: {e}")
}

/// `durable-recovery`: one operation writes both jobs uncrashed, then
/// heals the files each of [`CRASHES`] crashes left (crashing is
/// untimed preparation).
pub struct DurableRecovery {
    seed: u64,
    campaign_scene: Scene,
    paths: StorePaths,
    cpaths: CampaignPaths,
}

impl DurableRecovery {
    pub fn setup(seed: u64) -> Self {
        let mut campaign_scene = Scene::warehouse(16.0, 12.0, 2);
        campaign_scene.add_dock(Point2::new(1.0, 11.0), 2);
        Self {
            seed,
            campaign_scene,
            paths: StorePaths::default(),
            cpaths: CampaignPaths::default(),
        }
    }

    fn job(&self, op: usize) -> Job {
        let seed = site_seed(self.seed, op);
        let scn = Scenario {
            n_relays: 2,
            n_tags: MISSION_TAGS,
            seed,
            width_m: 24.0,
            depth_m: 16.0,
            shelves: 3,
            sample_interval_s: 8.0,
            max_rounds: 2,
            margin_db: 10.0,
            supervised: true,
        };
        Job {
            schedule: FaultSchedule::storm(seed, scn.n_relays, STORM_EVENTS),
            scn,
            cfg: OpsConfig::small(seed),
        }
    }

    fn write(&self, job: &Job) -> Result<Written, String> {
        let mut mission_files = MemStorage::new();
        let run = run_stored(
            &job.scn,
            &job.schedule,
            &mut mission_files,
            &self.paths,
            EVERY,
        )?;
        let mut campaign_files = MemStorage::new();
        let report = run_stored_campaign(
            &self.campaign_scene,
            &job.cfg,
            &mut campaign_files,
            &self.cpaths,
            EVERY,
        )?;
        Ok(Written {
            mission_files,
            campaign_files,
            outcome: run.outcome,
            ticks: report.ticks,
            seed: job.scn.seed,
        })
    }

    fn write_traced(&self, job: &Job) -> Result<Written, String> {
        let mut mission_files = MemStorage::new();
        let run = self.run_stored_traced(job, &mut TimedStorage(&mut mission_files))?;
        let mut campaign_files = MemStorage::new();
        // `CampaignRun`'s state is crate-private, so the campaign loop
        // cannot be rebuilt from outside: its engine time is this
        // span's self time (everything but the storage calls).
        let report = span("ops.campaign_write", || {
            run_stored_campaign(
                &self.campaign_scene,
                &job.cfg,
                &mut TimedStorage(&mut campaign_files),
                &self.cpaths,
                EVERY,
            )
        })?;
        count("ops.ticks", report.ticks as f64);
        Ok(Written {
            mission_files,
            campaign_files,
            outcome: run.outcome,
            ticks: report.ticks,
            seed: job.scn.seed,
        })
    }

    /// `run_stored` rebuilt from its public calls.
    fn run_stored_traced(&self, job: &Job, storage: &mut dyn Storage) -> Result<Run, String> {
        let (scn, schedule, paths) = (&job.scn, &job.schedule, &self.paths);
        let mut m = span("replay.build", || scn.build())?;
        let sup = SupervisorConfig::default();
        let sup_opt = scn.supervised.then_some(&sup);
        let env = MissionEnv {
            scene: &m.scene,
            budget: m.budget,
            margin: m.margin,
            limits: m.limits,
        };
        let header = span("replay.step_encode", || journal::header_text(scn));
        storage
            .append(&paths.journal, header.as_bytes())
            .map_err(|e| io("journal header append", e))?;
        let mut state = MissionState::new(&m.plan, &m.part, &m.cfg);
        let mut jrnl = Journal::begin(scn.clone());
        while !state.finished() {
            let step = state.step();
            let rec = span("faults.advance", || {
                state.advance(&mut m.world, &env, &m.cfg, schedule, sup_opt)
            });
            let block = span("replay.step_encode", || {
                jrnl.push(&rec);
                journal::step_block(&rec)
            });
            storage
                .append(&paths.journal, block.as_bytes())
                .map_err(|e| io("journal step append", e))?;
            if (step + 1).is_multiple_of(EVERY) {
                let text = span("replay.checkpoint_encode", || {
                    Checkpoint {
                        mission: state.snapshot(),
                        world: m.world.snapshot(),
                    }
                    .to_text()
                });
                storage
                    .write_atomic(&paths.checkpoint, text.as_bytes())
                    .map_err(|e| io("checkpoint write", e))?;
            }
        }
        let final_cp = span("replay.checkpoint_encode", || {
            Checkpoint {
                mission: state.snapshot(),
                world: m.world.snapshot(),
            }
            .to_text()
        });
        let outcome = span("faults.into_outcome", || state.into_outcome(&env, sup_opt));
        let seal = span("replay.step_encode", || {
            jrnl.seal(outcome.steps, Seconds::new(outcome.duration_s));
            jrnl.sealed.as_ref().map(journal::seal_text)
        })
        .ok_or("sealed journal lost its seal")?;
        storage
            .append(&paths.journal, seal.as_bytes())
            .map_err(|e| io("journal seal append", e))?;
        storage
            .write_atomic(&paths.checkpoint, final_cp.as_bytes())
            .map_err(|e| io("final checkpoint write", e))?;
        Ok(Run {
            journal: jrnl,
            outcome,
        })
    }

    /// `recover_stored` rebuilt from its public calls.
    fn recover_stored_traced(&self, job: &Job, storage: &mut dyn Storage) -> Result<Run, String> {
        let (scn, schedule, paths) = (&job.scn, &job.schedule, &self.paths);
        let raw = match storage.read(&paths.journal) {
            Ok(bytes) => bytes,
            Err(StorageError::NotFound(_)) => Vec::new(),
            Err(e) => return Err(io("journal read", e)),
        };
        let salv = span("replay.salvage", || salvage_journal(&raw));
        if let Some(j) = &salv.journal {
            if j.scenario != *scn {
                return Err("salvaged journal is for a different scenario".into());
            }
        }
        let base_text = if salv.journal.is_some() {
            salv.text.clone()
        } else {
            journal::header_text(scn)
        };
        storage
            .write_atomic(&paths.journal, base_text.as_bytes())
            .map_err(|e| io("journal truncate", e))?;
        let cp = match storage.read(&paths.checkpoint) {
            Ok(bytes) => span("replay.checkpoint_decode", || {
                String::from_utf8(bytes)
                    .ok()
                    .and_then(|t| Checkpoint::from_text(&t).ok())
                    .filter(|c| c.mission.step <= salv.steps)
            }),
            Err(_) => None,
        };
        let mut m = span("replay.build", || scn.build())?;
        let sup = SupervisorConfig::default();
        let sup_opt = scn.supervised.then_some(&sup);
        let env = MissionEnv {
            scene: &m.scene,
            budget: m.budget,
            margin: m.margin,
            limits: m.limits,
        };
        let mut state = match &cp {
            Some(cp) => span("replay.checkpoint_decode", || {
                m.world
                    .restore(&cp.world)
                    .map_err(|e| format!("world restore failed: {e}"))
                    .map(|()| MissionState::from_snapshot(cp.mission.clone()))
            })?,
            None => MissionState::new(&m.plan, &m.part, &m.cfg),
        };
        let mut jrnl = match salv.journal {
            Some(j) => j,
            None => Journal::begin(scn.clone()),
        };
        while !state.finished() {
            let step = state.step();
            let rec = span("faults.advance", || {
                state.advance(&mut m.world, &env, &m.cfg, schedule, sup_opt)
            });
            if step < salv.steps {
                let expected = jrnl
                    .steps
                    .get(step)
                    .ok_or_else(|| format!("salvaged journal missing step {step}"))?;
                if *expected != rec {
                    return Err(format!(
                        "recovery diverged from salvaged journal at step {step}"
                    ));
                }
            } else {
                let block = span("replay.step_encode", || {
                    jrnl.push(&rec);
                    journal::step_block(&rec)
                });
                storage
                    .append(&paths.journal, block.as_bytes())
                    .map_err(|e| io("journal step append", e))?;
            }
            if (step + 1).is_multiple_of(EVERY) {
                let text = span("replay.checkpoint_encode", || {
                    Checkpoint {
                        mission: state.snapshot(),
                        world: m.world.snapshot(),
                    }
                    .to_text()
                });
                storage
                    .write_atomic(&paths.checkpoint, text.as_bytes())
                    .map_err(|e| io("checkpoint write", e))?;
            }
        }
        let final_cp = span("replay.checkpoint_encode", || {
            Checkpoint {
                mission: state.snapshot(),
                world: m.world.snapshot(),
            }
            .to_text()
        });
        let outcome = span("faults.into_outcome", || state.into_outcome(&env, sup_opt));
        if salv.sealed {
            let seal = jrnl
                .sealed
                .ok_or("salvage reported sealed but journal has no seal")?;
            if seal.steps != outcome.steps || seal.duration_s != outcome.duration_s {
                return Err("salvaged seal disagrees with recovered outcome".into());
            }
        } else {
            let seal = span("replay.step_encode", || {
                jrnl.seal(outcome.steps, Seconds::new(outcome.duration_s));
                jrnl.sealed.as_ref().map(journal::seal_text)
            })
            .ok_or("sealed journal lost its seal")?;
            storage
                .append(&paths.journal, seal.as_bytes())
                .map_err(|e| io("journal seal append", e))?;
        }
        storage
            .write_atomic(&paths.checkpoint, final_cp.as_bytes())
            .map_err(|e| io("final checkpoint write", e))?;
        Ok(Run {
            journal: jrnl,
            outcome,
        })
    }

    /// Runs `workload` once on a probe store (the uncrashed files),
    /// then once per crash: [`CRASHES`] seeded crash points, one drawn
    /// from each quarter of the probe's crash points in operation order.
    /// Returns the uncrashed files and each crash's surviving files.
    fn crash(
        &self,
        seed: u64,
        workload: &mut dyn FnMut(&mut dyn Storage) -> Result<(), String>,
    ) -> Result<(MemStorage, Vec<MemStorage>), String> {
        let mut probe = ChaosStorage::probe();
        workload(&mut probe)?;
        let points = enumerate_crash_points(probe.ops(), seed);
        let reference = probe.into_survivor();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5);
        let mut survivors = Vec::with_capacity(CRASHES);
        for quarter in 0..CRASHES {
            let lo = quarter * points.len() / CRASHES;
            let hi = ((quarter + 1) * points.len() / CRASHES).max(lo + 1);
            let point: CrashPoint = points[rng.gen_range(lo..hi)];
            let mut storage = ChaosStorage::with_crash(MemStorage::new(), point);
            // The writer stops at the crash with `Err`; a lost-acked
            // final operation can let it finish.
            let _ = workload(&mut storage);
            survivors.push(storage.into_survivor());
        }
        Ok((reference, survivors))
    }

    fn sample(&self, w: &Written) -> Sample {
        Sample {
            work: (w.outcome.steps + w.ticks) as f64,
            read_rate: w.outcome.inventory.read_rate(MISSION_TAGS),
            error_m: None,
        }
    }
}

fn same_written(a: &Written, b: &Written, what: &str) -> Result<(), String> {
    if let Some(d) = a.mission_files.first_difference(&b.mission_files) {
        return Err(format!("{what}: mission files differ: {d}"));
    }
    if let Some(d) = a.campaign_files.first_difference(&b.campaign_files) {
        return Err(format!("{what}: campaign files differ: {d}"));
    }
    if a.outcome != b.outcome || a.ticks != b.ticks || a.seed != b.seed {
        return Err(format!("{what}: outcomes differ"));
    }
    Ok(())
}

impl DurableRecovery {
    /// The written files parse back whole: a sealed journal holding
    /// every step, a final checkpoint at the last step, a sealed
    /// campaign log holding every tick.
    fn check_written(&self, w: &Written) -> Result<(), String> {
        let raw = w
            .mission_files
            .read(&self.paths.journal)
            .map_err(|e| e.to_string())?;
        let salv = salvage_journal(&raw);
        if !salv.sealed || salv.steps != w.outcome.steps || salv.dropped_bytes != 0 {
            return Err(format!(
                "journal salvages to {} of {} steps (sealed {}, {} bytes dropped)",
                salv.steps, w.outcome.steps, salv.sealed, salv.dropped_bytes
            ));
        }
        let ck = w
            .mission_files
            .read(&self.paths.checkpoint)
            .map_err(|e| e.to_string())?;
        let ck = Checkpoint::from_text(&String::from_utf8_lossy(&ck))
            .map_err(|e| format!("final checkpoint does not parse: {e}"))?;
        if ck.mission.step != w.outcome.steps {
            return Err(format!(
                "final checkpoint at step {}, mission flew {}",
                ck.mission.step, w.outcome.steps
            ));
        }
        let log = w
            .campaign_files
            .read(&self.cpaths.log)
            .map_err(|e| e.to_string())?;
        let csalv = salvage_campaign_log(&log, &OpsConfig::small(w.seed));
        if !csalv.header_ok || csalv.sealed != Some(w.ticks) || csalv.blocks.len() != w.ticks {
            return Err(format!(
                "campaign log salvages to {} of {} ticks (sealed {:?})",
                csalv.blocks.len(),
                w.ticks,
                csalv.sealed
            ));
        }
        Ok(())
    }
}

impl Workload for DurableRecovery {
    type Input = Crashed;
    type Output = Durability;

    fn prepare(&self, op: usize) -> Result<Crashed, String> {
        let job = self.job(op);
        let seed = job.scn.seed;
        let (mission_files, mission_survivors) = self.crash(seed, &mut |s| {
            run_stored(&job.scn, &job.schedule, s, &self.paths, EVERY).map(|_| ())
        })?;
        let (campaign_files, campaign_survivors) = self.crash(seed ^ 1, &mut |s| {
            run_stored_campaign(&self.campaign_scene, &job.cfg, s, &self.cpaths, EVERY).map(|_| ())
        })?;
        Ok(Crashed {
            job,
            probe: (mission_files, campaign_files),
            survivors: mission_survivors
                .into_iter()
                .zip(campaign_survivors)
                .collect(),
        })
    }

    fn run(&self, c: Crashed) -> Result<Durability, String> {
        let written = self.write(&c.job)?;
        let mut recovered = Vec::with_capacity(c.survivors.len());
        for (mut mission_files, mut campaign_files) in c.survivors {
            let run = recover_stored(
                &c.job.scn,
                &c.job.schedule,
                &mut mission_files,
                &self.paths,
                EVERY,
            )?;
            let report = recover_stored_campaign(
                &self.campaign_scene,
                &c.job.cfg,
                &mut campaign_files,
                &self.cpaths,
                EVERY,
            )?;
            recovered.push(Written {
                mission_files,
                campaign_files,
                outcome: run.outcome,
                ticks: report.ticks,
                seed: c.job.scn.seed,
            });
        }
        Ok(Durability {
            written,
            probe: c.probe,
            recovered,
        })
    }

    fn run_traced(&self, c: Crashed) -> Result<Durability, String> {
        let written = self.write_traced(&c.job)?;
        let mut recovered = Vec::with_capacity(c.survivors.len());
        for (mut mission_files, mut campaign_files) in c.survivors {
            let run = self.recover_stored_traced(&c.job, &mut TimedStorage(&mut mission_files))?;
            let report = span("ops.recover", || {
                recover_stored_campaign(
                    &self.campaign_scene,
                    &c.job.cfg,
                    &mut TimedStorage(&mut campaign_files),
                    &self.cpaths,
                    EVERY,
                )
            })?;
            count("ops.ticks", report.ticks as f64);
            recovered.push(Written {
                mission_files,
                campaign_files,
                outcome: run.outcome,
                ticks: report.ticks,
                seed: c.job.scn.seed,
            });
        }
        Ok(Durability {
            written,
            probe: c.probe,
            recovered,
        })
    }

    fn check(&self, r: &Durability) -> Result<Sample, String> {
        let w = &r.written;
        self.check_written(w)?;
        if w.mission_files != r.probe.0 || w.campaign_files != r.probe.1 {
            return Err("writer is nondeterministic: probe and clean files differ".into());
        }
        for rec in &r.recovered {
            same_written(rec, w, "recovery vs uncrashed run")?;
        }
        let one = self.sample(w);
        Ok(Sample {
            work: one.work * (1 + r.recovered.len()) as f64,
            ..one
        })
    }

    fn same(&self, untraced: &Durability, traced: &Durability) -> Result<(), String> {
        same_written(&untraced.written, &traced.written, "traced write")?;
        if untraced.recovered.len() != traced.recovered.len() {
            return Err("traced recovery healed a different number of crashes".into());
        }
        for (u, t) in untraced.recovered.iter().zip(&traced.recovered) {
            same_written(u, t, "traced recovery")?;
        }
        Ok(())
    }
}
