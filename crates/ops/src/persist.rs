//! Crash-consistent campaign persistence: resume-after-power-loss for
//! the continuous-operation loop, on the same [`rfly_chaos::durable`]
//! engine `rfly-replay` uses for missions. This module supplies the
//! codecs: the append-only campaign log (magic + config-line header,
//! one [`TickRecord`] block per tick, `end ticks=<n>` seal) and the
//! atomically replaced [`CampaignCheckpoint`] (duty roster, battery
//! charges, cell count, world RNG/Gen2 state). Recovery restores the
//! checkpoint, rebuilds the report aggregates from the salvaged blocks
//! it skipped, and byte-verifies every re-executed tick, so the final
//! files are bit-identical to an uncrashed campaign's.

use rfly_chaos::durable::{self, Durable, Files, LogCodec};
use rfly_chaos::Storage;
use rfly_faults::text::{
    epc_hex, fmt_f64, parse_epc_hex, world_lines, Fields, ParseError, WorldLines,
};
use rfly_fleet::channels::assign;
use rfly_fleet::partition::partition;
use rfly_sim::scene::Scene;
use rfly_sim::world::WorldSnapshot;

use crate::campaign::{CampaignRun, OpsConfig, OpsReport, TickRecord};
use crate::rotation::{Duty, Roster, Rotation};

/// Where a stored campaign keeps its two files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPaths {
    /// The append-only campaign log.
    pub log: String,
    /// The atomically-replaced checkpoint file.
    pub checkpoint: String,
}

impl Default for CampaignPaths {
    fn default() -> Self {
        Self {
            log: "campaign.log".to_string(),
            checkpoint: "campaign.ck".to_string(),
        }
    }
}

impl CampaignPaths {
    fn files(&self) -> Files<'_> {
        Files {
            log: &self.log,
            checkpoint: &self.checkpoint,
        }
    }
}

/// The one-line config fingerprint embedded in the log header: every
/// [`OpsConfig`] and [`crate::energy::EnergyModel`] field in
/// shortest-round-trip form, so a recovery attempt against the wrong
/// config is caught by a string compare.
pub fn config_line(cfg: &OpsConfig) -> String {
    format!(
        "config relays={} cells={} tags={} tick={} dur={} floor={} margin={} rounds={} inv={} \
         seed={} cap={} hoverw={} txw={} refgain={} txdb={} readj={} chargew={} reserve={} ready={}",
        cfg.n_relays,
        cfg.n_cells,
        cfg.n_tags,
        fmt_f64(cfg.tick.value()),
        fmt_f64(cfg.duration.value()),
        fmt_f64(cfg.coverage_floor),
        fmt_f64(cfg.margin.value()),
        cfg.max_rounds,
        cfg.inventory_every,
        cfg.seed,
        fmt_f64(cfg.energy.capacity_j),
        fmt_f64(cfg.energy.hover_w),
        fmt_f64(cfg.energy.tx_w),
        fmt_f64(cfg.energy.ref_gain.value()),
        fmt_f64(cfg.energy.tx_w_per_db),
        fmt_f64(cfg.energy.per_read_j),
        fmt_f64(cfg.energy.charge_w),
        fmt_f64(cfg.energy.reserve_frac),
        fmt_f64(cfg.energy.ready_frac),
    )
}

const MAGIC: &str = "rfly-campaign v1";

/// The campaign log header: magic line + config line.
pub fn header_text(cfg: &OpsConfig) -> String {
    format!("{MAGIC}\n{}\n", config_line(cfg))
}

/// One tick's log block: the `k` summary line, `rot` lines for every
/// rotation, an `n` line when new tags were inventoried, the `b`
/// battery line, and the `e` terminator salvage keys on.
pub fn tick_block(rec: &TickRecord) -> String {
    let mut s = format!(
        "k {} reads={} deaths={} repart={} coverage={}\n",
        rec.tick,
        rec.reads,
        rec.deaths,
        u8::from(rec.repartitioned),
        fmt_f64(rec.coverage),
    );
    for r in &rec.rotations {
        let dock = match r.dock {
            Some(d) => d.to_string(),
            None => "-".to_string(),
        };
        s.push_str(&format!(
            "rot tick={} cell={} incumbent={} standby={} dock={dock}\n",
            r.tick, r.cell, r.incumbent, r.standby,
        ));
    }
    if !rec.new_tags.is_empty() {
        s.push('n');
        for epc in &rec.new_tags {
            s.push(' ');
            s.push_str(&epc_hex(*epc));
        }
        s.push('\n');
    }
    s.push('b');
    for c in &rec.charges {
        s.push(' ');
        s.push_str(&fmt_f64(*c));
    }
    s.push('\n');
    s.push_str("e\n");
    s
}

fn parse_opt_dock(f: &mut Fields<'_>) -> Result<Option<usize>, ParseError> {
    let v = f.kv("dock")?;
    if v == "-" {
        return Ok(None);
    }
    v.parse()
        .map(Some)
        .map_err(|_| f.error(format!("bad dock index {v:?}")))
}

/// Parses one [`tick_block`] back into a [`TickRecord`].
pub fn parse_tick_block(text: &str) -> Result<TickRecord, ParseError> {
    let mut rec: Option<TickRecord> = None;
    let mut have_b = false;
    let mut ended = false;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if ended {
            return Err(ParseError::new(n, "records after the `e` terminator"));
        }
        let first = line.split_whitespace().next().unwrap_or("");
        if first == "k" {
            if rec.is_some() {
                return Err(ParseError::new(n, "duplicate `k` line in tick block"));
            }
            let mut f = Fields::new(line, n);
            f.expect_tok("k")?;
            rec = Some(TickRecord {
                tick: f.usize("tick index")?,
                reads: f.kv_usize("reads")?,
                deaths: f.kv_usize("deaths")?,
                repartitioned: f.kv_usize("repart")? != 0,
                coverage: f.kv_f64("coverage")?,
                rotations: Vec::new(),
                new_tags: Vec::new(),
                charges: Vec::new(),
            });
            f.finish()?;
            continue;
        }
        let Some(rec) = rec.as_mut() else {
            return Err(ParseError::new(n, format!("{first:?} before the `k` line")));
        };
        let mut f = Fields::new(line, n);
        match first {
            "rot" => {
                f.expect_tok("rot")?;
                rec.rotations.push(Rotation {
                    tick: f.kv_usize("tick")?,
                    cell: f.kv_usize("cell")?,
                    incumbent: f.kv_usize("incumbent")?,
                    standby: f.kv_usize("standby")?,
                    dock: parse_opt_dock(&mut f)?,
                });
                f.finish()?;
            }
            "n" => {
                f.expect_tok("n")?;
                while let Some(t) = f.opt_tok() {
                    rec.new_tags.push(parse_epc_hex(t, n)?);
                }
            }
            "b" => {
                f.expect_tok("b")?;
                while let Some(t) = f.opt_tok() {
                    rec.charges.push(
                        t.parse()
                            .map_err(|_| ParseError::new(n, format!("bad charge {t:?}")))?,
                    );
                }
                have_b = true;
            }
            "e" => {
                f.expect_tok("e")?;
                f.finish()?;
                ended = true;
            }
            other => {
                return Err(ParseError::new(
                    n,
                    format!("unknown campaign log record {other:?}"),
                ))
            }
        }
    }
    let rec = rec.ok_or_else(|| ParseError::new(1, "tick block has no `k` line"))?;
    if !have_b || !ended {
        return Err(ParseError::new(
            text.lines().count(),
            "tick block missing its `b` line or `e` terminator",
        ));
    }
    Ok(rec)
}

/// Parses the seal line `end ticks=<n>` found at 1-indexed `line_no`.
fn parse_seal(line: &str, line_no: usize) -> Result<usize, ParseError> {
    let mut f = Fields::new(line, line_no);
    f.expect_tok("end")?;
    let ticks = f.kv_usize("ticks")?;
    f.finish()?;
    Ok(ticks)
}

/// What [`salvage_campaign_log`] kept and dropped.
#[derive(Debug, Clone)]
pub struct CampaignSalvage {
    /// The salvaged text: header + complete tick blocks (+ seal).
    /// Empty when even the header was lost.
    pub text: String,
    /// The parsed blocks, in tick order.
    pub blocks: Vec<TickRecord>,
    /// `Some(ticks)` when the seal footer survived.
    pub sealed: Option<usize>,
    /// Raw bytes not carried into the salvage.
    pub dropped_bytes: usize,
    /// Duplicated tick blocks dropped.
    pub dropped_duplicates: usize,
    /// Whether the header (magic + matching config line) survived.
    pub header_ok: bool,
    /// The header carried a *different* config line — the log belongs
    /// to another campaign and must not be resumed under this one.
    pub foreign_config: bool,
}

/// The campaign log's text form, as the durable engine reads it.
struct CampaignCodec {
    /// The config line this campaign's header must carry.
    config: String,
}

impl LogCodec for CampaignCodec {
    type Block = TickRecord;
    type Seal = ();
    type Id = ();
    const MAGIC: &'static str = MAGIC;

    fn identity(&self, line: &str) -> Result<Option<()>, String> {
        if line == self.config {
            Ok(Some(()))
        } else if line.split_whitespace().next() == Some("config") {
            Err("campaign log belongs to a different config; refusing to resume".into())
        } else {
            Ok(None)
        }
    }

    fn encode_block(&self, block: &TickRecord) -> String {
        tick_block(block)
    }

    fn decode_block(&self, text: &str) -> Option<TickRecord> {
        parse_tick_block(text).ok()
    }

    fn index(block: &TickRecord) -> usize {
        block.tick
    }

    fn decode_seal(&self, line: &str, line_no: usize) -> Option<(usize, ())> {
        Some((parse_seal(line, line_no).ok()?, ()))
    }
}

/// Truncates raw campaign-log bytes to the longest valid prefix of
/// complete tick blocks, dropping a torn tail, a duplicated last
/// block, and anything after the seal. Never fails: unusable input
/// salvages empty (the campaign restarts from tick zero).
pub fn salvage_campaign_log(raw: &[u8], cfg: &OpsConfig) -> CampaignSalvage {
    let codec = CampaignCodec {
        config: config_line(cfg),
    };
    let s = durable::salvage(&codec, raw);
    CampaignSalvage {
        text: s.text,
        blocks: s.blocks,
        sealed: s.seal.map(|(_, ticks, ())| ticks),
        dropped_bytes: s.dropped_bytes,
        dropped_duplicates: s.dropped_duplicates,
        header_ok: s.id.is_some(),
        foreign_config: s.foreign.is_some(),
    }
}

/// A campaign checkpoint: everything the resume path cannot rebuild
/// from `(scene, cfg)` and the salvaged log — the duty roster with
/// battery charges, the current partition size (it shrinks on
/// repartitions), the halt flag, and the world RNG/Gen2 state.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// The next tick to execute.
    pub next_tick: usize,
    /// Current partition size (cells being flown).
    pub cells: usize,
    /// Whether the campaign halted (floor went dark).
    pub halted: bool,
    /// `(duty, charge)` per relay, in relay order.
    pub duties: Vec<(Duty, f64)>,
    /// The world RNG streams and persistent Gen2 flags.
    pub world: WorldSnapshot,
}

impl CampaignCheckpoint {
    /// The full text form.
    pub fn to_text(&self) -> String {
        let mut s = String::from("rfly-campaign-ck v1\n");
        s.push_str(&format!(
            "tick {} cells={} halted={}\n",
            self.next_tick,
            self.cells,
            u8::from(self.halted),
        ));
        for (i, (duty, charge)) in self.duties.iter().enumerate() {
            let (kind, at) = match duty {
                Duty::Serving { cell } => ("serving", cell.to_string()),
                Duty::Docked { dock } => ("docked", dock.to_string()),
                Duty::Dead => ("dead", "-".to_string()),
            };
            s.push_str(&format!(
                "relay {i} duty={kind} at={at} charge={}\n",
                fmt_f64(*charge)
            ));
        }
        s.push_str(&world_lines(&self.world));
        s.push_str("end\n");
        s
    }

    /// Parses [`Self::to_text`].
    pub fn from_text(text: &str) -> Result<Self, ParseError> {
        let mut lines = text.lines().enumerate().map(|(n, l)| (n + 1, l.trim()));
        let (n, header) = lines
            .next()
            .ok_or_else(|| ParseError::new(1, "empty checkpoint text"))?;
        if header != "rfly-campaign-ck v1" {
            return Err(ParseError::new(n, format!("bad header {header:?}")));
        }
        let mut tick: Option<(usize, usize, bool)> = None;
        let mut duties: Vec<(Duty, f64)> = Vec::new();
        let mut world = WorldLines::default();
        let mut ended = false;
        for (n, line) in lines {
            if line.is_empty() {
                continue;
            }
            if line == "end" {
                ended = true;
                break;
            }
            let mut f = Fields::new(line, n);
            match f.tok("record tag")? {
                "tick" => {
                    tick = Some((
                        f.usize("next tick")?,
                        f.kv_usize("cells")?,
                        f.kv_usize("halted")? != 0,
                    ));
                    f.finish()?;
                }
                "relay" => {
                    let i = f.usize("relay index")?;
                    if i != duties.len() {
                        return Err(f.error(format!("relay lines out of order at index {i}")));
                    }
                    let kind = f.kv("duty")?;
                    let at = f.kv("at")?;
                    let duty = match kind {
                        "serving" => Duty::Serving {
                            cell: at
                                .parse()
                                .map_err(|_| ParseError::new(n, format!("bad cell {at:?}")))?,
                        },
                        "docked" => Duty::Docked {
                            dock: at
                                .parse()
                                .map_err(|_| ParseError::new(n, format!("bad dock {at:?}")))?,
                        },
                        "dead" => Duty::Dead,
                        other => return Err(ParseError::new(n, format!("unknown duty {other:?}"))),
                    };
                    let charge = f.kv_f64("charge")?;
                    f.finish()?;
                    duties.push((duty, charge));
                }
                tag @ ("world" | "wtag") => world.record(tag, f)?,
                other => {
                    return Err(ParseError::new(
                        n,
                        format!("unknown checkpoint record {other:?}"),
                    ))
                }
            }
        }
        if !ended {
            return Err(ParseError::new(
                text.lines().count(),
                "missing `end` footer",
            ));
        }
        let (next_tick, cells, halted) =
            tick.ok_or_else(|| ParseError::new(0, "missing tick line"))?;
        Ok(Self {
            next_tick,
            cells,
            halted,
            duties,
            world: world.finish()?,
        })
    }
}

fn checkpoint_of(run: &CampaignRun<'_>) -> CampaignCheckpoint {
    CampaignCheckpoint {
        next_tick: run.tick,
        cells: run.hover.len(),
        halted: run.halted,
        duties: run.roster.duties(),
        world: run.world.snapshot(),
    }
}

/// Folds an already-durable tick's record into a freshly restored
/// run's aggregates — the bookkeeping [`CampaignRun::step`] would have
/// done when it originally executed the tick.
fn apply_salvaged_tick(run: &mut CampaignRun<'_>, rec: &TickRecord) {
    for epc in &rec.new_tags {
        run.seen.insert(*epc);
    }
    run.report.total_reads += rec.reads;
    run.report.deaths += rec.deaths;
    if rec.repartitioned {
        run.report.repartitions += 1;
    }
    run.report.rotations.extend(rec.rotations.iter().copied());
    if rec.coverage < run.report.min_coverage {
        run.report.min_coverage = rec.coverage;
    }
    for (relay, &charge) in rec.charges.iter().enumerate() {
        if let Some(row) = run.report.trace.get_mut(relay) {
            row.push(charge);
        }
    }
}

/// Rebuilds a [`CampaignRun`] at a checkpoint: fresh static state from
/// `(scene, cfg)`, the partition re-derived at the checkpointed cell
/// count, roster and world restored verbatim.
fn restore_run<'s>(
    scene: &'s Scene,
    cfg: &OpsConfig,
    ck: &CampaignCheckpoint,
) -> Result<CampaignRun<'s>, String> {
    let mut run = CampaignRun::new(scene, cfg)?;
    if ck.duties.len() != cfg.n_relays {
        return Err(format!(
            "checkpoint has {} relays, config has {}",
            ck.duties.len(),
            cfg.n_relays
        ));
    }
    if ck.cells == 0 || ck.cells > cfg.n_cells {
        return Err(format!(
            "checkpoint cell count {} out of range (config {})",
            ck.cells, cfg.n_cells
        ));
    }
    if ck.cells != run.hover.len() {
        // The campaign had repartitioned; re-derive the shrunken
        // partition and channel plan exactly as the live loop did.
        let part = partition(scene, ck.cells, run.limits)
            .map_err(|e| format!("repartition during restore failed: {e:?}"))?;
        run.hover = part.cells.iter().map(|c| c.center()).collect();
        run.plan = assign(&run.hover, &run.budget, cfg.margin, cfg.seed)
            .map_err(|e| format!("channel reassignment during restore failed: {e:?}"))?;
    }
    let dock_slots: Vec<usize> = scene.docks.iter().map(|d| d.slots).collect();
    run.roster = Roster::from_duties(&ck.duties, &dock_slots)?;
    run.world
        .restore(&ck.world)
        .map_err(|e| format!("world restore failed: {e}"))?;
    run.tick = ck.next_tick;
    run.halted = ck.halted;
    Ok(run)
}

/// A campaign as a durable job.
struct CampaignJob<'s> {
    scene: &'s Scene,
    cfg: &'s OpsConfig,
    codec: CampaignCodec,
}

impl<'s> CampaignJob<'s> {
    fn new(scene: &'s Scene, cfg: &'s OpsConfig) -> Self {
        Self {
            scene,
            cfg,
            codec: CampaignCodec {
                config: config_line(cfg),
            },
        }
    }
}

impl<'s> Durable for CampaignJob<'s> {
    type Codec = CampaignCodec;
    type State = CampaignRun<'s>;
    type Checkpoint = CampaignCheckpoint;
    type Done = OpsReport;

    fn codec(&self) -> &CampaignCodec {
        &self.codec
    }

    fn header_text(&self) -> String {
        header_text(self.cfg)
    }

    fn start(&self) -> Result<CampaignRun<'s>, String> {
        CampaignRun::new(self.scene, self.cfg)
    }

    fn step(&self, run: &mut CampaignRun<'s>) -> Result<Option<TickRecord>, String> {
        if run.finished() {
            return Ok(None);
        }
        run.step().map(Some)
    }

    fn checkpoint_text(&self, run: &CampaignRun<'s>) -> String {
        checkpoint_of(run).to_text()
    }

    fn decode_checkpoint(&self, text: &str) -> Option<(usize, CampaignCheckpoint)> {
        let ck = CampaignCheckpoint::from_text(text).ok()?;
        Some((ck.next_tick, ck))
    }

    fn restore(&self, ck: CampaignCheckpoint) -> Result<CampaignRun<'s>, String> {
        restore_run(self.scene, self.cfg, &ck)
    }

    fn absorb(&self, run: &mut CampaignRun<'s>, rec: TickRecord) {
        apply_salvaged_tick(run, &rec);
    }

    fn finish(&self, run: CampaignRun<'s>) -> Result<(String, String, OpsReport), String> {
        let seal = format!("end ticks={}\n", run.tick_index());
        let checkpoint = checkpoint_of(&run).to_text();
        Ok((seal, checkpoint, run.into_report()))
    }
}

/// Flies a campaign start to finish, persisting through `storage`:
/// the log as incremental appends (header, one block per tick, seal),
/// a checkpoint atomically replaced every `checkpoint_every` ticks
/// (`0` = final checkpoint only), and a final checkpoint.
pub fn run_stored_campaign(
    scene: &Scene,
    cfg: &OpsConfig,
    storage: &mut dyn Storage,
    paths: &CampaignPaths,
    checkpoint_every: usize,
) -> Result<OpsReport, String> {
    let _span = rfly_obs::span("ops.run_stored_campaign");
    let job = CampaignJob::new(scene, cfg);
    durable::run(&job, storage, paths.files(), checkpoint_every)
}

/// Recovers a crashed [`run_stored_campaign`] from whatever `storage`
/// holds and flies it to completion, leaving the durable files
/// bit-identical to an uncrashed campaign's.
///
/// A log for another config, a re-executed tick or seal whose bytes
/// differ from the durable ones, or a seal that disagrees with the
/// salvaged tick count is real corruption and is reported as `Err`.
pub fn recover_stored_campaign(
    scene: &Scene,
    cfg: &OpsConfig,
    storage: &mut dyn Storage,
    paths: &CampaignPaths,
    checkpoint_every: usize,
) -> Result<OpsReport, String> {
    let _span = rfly_obs::span("ops.recover_stored_campaign");
    let job = CampaignJob::new(scene, cfg);
    durable::recover(&job, storage, paths.files(), checkpoint_every)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_channel::geometry::Point2;
    use rfly_chaos::MemStorage;
    use rfly_dsp::units::Seconds;

    fn docked_scene() -> Scene {
        let mut scene = Scene::warehouse(16.0, 12.0, 2);
        scene.add_dock(Point2::new(1.0, 11.0), 2);
        scene
    }

    fn short_cfg(seed: u64) -> OpsConfig {
        let mut cfg = OpsConfig::small(seed);
        // A 2-hour horizon: long enough for deaths and a repartition
        // on this roster, short enough for the matrix.
        cfg.duration = Seconds::new(7200.0);
        cfg
    }

    fn reference(seed: u64, every: usize) -> (MemStorage, OpsReport) {
        let scene = docked_scene();
        let cfg = short_cfg(seed);
        let mut store = MemStorage::new();
        let report =
            run_stored_campaign(&scene, &cfg, &mut store, &CampaignPaths::default(), every)
                .expect("stored campaign completes");
        (store, report)
    }

    #[test]
    fn stored_campaign_matches_run_campaign() {
        let scene = docked_scene();
        let cfg = short_cfg(11);
        let plain = crate::campaign::run_campaign(&scene, &cfg).expect("runs");
        let (_, stored) = reference(11, 4);
        assert_eq!(stored.trace_text(), plain.trace_text());
        assert_eq!(stored.rotations, plain.rotations);
        assert_eq!(stored.deaths, plain.deaths);
        assert_eq!(stored.repartitions, plain.repartitions);
        assert_eq!(stored.unique_tags, plain.unique_tags);
        assert_eq!(stored.total_reads, plain.total_reads);
        assert_eq!(stored.min_coverage, plain.min_coverage);
    }

    #[test]
    fn tick_blocks_round_trip() {
        let scene = docked_scene();
        let cfg = short_cfg(11);
        let mut run = CampaignRun::new(&scene, &cfg).expect("builds");
        while !run.finished() {
            let rec = run.step().expect("steps");
            let text = tick_block(&rec);
            let back = parse_tick_block(&text).expect("parses");
            assert_eq!(back, rec);
            assert_eq!(tick_block(&back), text, "re-serialization is byte-stable");
        }
    }

    #[test]
    fn campaign_checkpoint_round_trips() {
        let scene = docked_scene();
        let cfg = short_cfg(11);
        let mut run = CampaignRun::new(&scene, &cfg).expect("builds");
        for _ in 0..5 {
            run.step().expect("steps");
        }
        let ck = checkpoint_of(&run);
        let text = ck.to_text();
        let back = CampaignCheckpoint::from_text(&text).expect("parses");
        assert_eq!(back, ck);
        assert_eq!(back.to_text(), text, "re-serialization is byte-stable");
        assert!(CampaignCheckpoint::from_text("").is_err());
        assert!(CampaignCheckpoint::from_text("rfly-campaign-ck v2\nend\n").is_err());
    }

    #[test]
    fn salvage_truncates_torn_campaign_log() {
        let (store, _) = reference(11, 4);
        let cfg = short_cfg(11);
        let raw = store.read("campaign.log").expect("log exists");
        let full = salvage_campaign_log(&raw, &cfg);
        assert!(full.header_ok);
        assert!(full.sealed.is_some());
        assert_eq!(full.dropped_bytes, 0);
        // Tear inside the last block's battery line.
        let text = String::from_utf8(raw.clone()).expect("utf8");
        let cut = text.rfind("\nb ").expect("has a battery line") + 3;
        let torn = salvage_campaign_log(&raw[..cut], &cfg);
        assert!(torn.header_ok);
        assert_eq!(torn.sealed, None);
        assert!(torn.blocks.len() < full.blocks.len());
        assert!(torn.dropped_bytes > 0);
        // A foreign config is refused, not resumed.
        let mut other = cfg.clone();
        other.seed ^= 1;
        let foreign = salvage_campaign_log(&raw, &other);
        assert!(!foreign.header_ok && foreign.foreign_config);
    }

    #[test]
    fn recovery_from_torn_log_is_bit_identical() {
        let (reference_store, report) = reference(11, 4);
        let scene = docked_scene();
        let cfg = short_cfg(11);
        let paths = CampaignPaths::default();
        let raw = reference_store.read(&paths.log).expect("log exists");
        // Crash with half the log durable and no checkpoint.
        let mut crashed = MemStorage::new();
        crashed
            .append(&paths.log, &raw[..raw.len() / 2])
            .expect("seed torn log");
        let recovered = recover_stored_campaign(&scene, &cfg, &mut crashed, &paths, 4)
            .expect("recovery completes");
        assert_eq!(crashed, reference_store, "storage is bit-identical");
        assert_eq!(recovered.trace_text(), report.trace_text());
        assert_eq!(recovered.rotations, report.rotations);
        assert_eq!(recovered.unique_tags, report.unique_tags);
        assert_eq!(recovered.min_coverage, report.min_coverage);
    }

    #[test]
    fn recovery_refuses_a_whole_seal_that_disagrees() {
        let (mut store, report) = reference(11, 4);
        let scene = docked_scene();
        let cfg = short_cfg(11);
        let paths = CampaignPaths::default();
        let raw = store.read(&paths.log).expect("log exists");
        let text = String::from_utf8(raw).expect("utf8");
        let seal = format!("end ticks={}\n", report.ticks);
        let bad = text.replace(&seal, &format!("end ticks={}\n", report.ticks - 1));
        assert_ne!(bad, text);
        let salv = salvage_campaign_log(bad.as_bytes(), &cfg);
        assert_eq!(salv.sealed, Some(report.ticks - 1), "the seal parses");
        let seal_line = text.lines().count();
        store
            .write_atomic(&paths.log, bad.as_bytes())
            .expect("plant");
        let err = recover_stored_campaign(&scene, &cfg, &mut store, &paths, 4)
            .expect_err("a wrong seal must be rejected, not re-sealed");
        assert!(err.contains(&format!("line {seal_line}")), "{err}");
    }

    #[test]
    fn seal_errors_carry_their_line() {
        assert_eq!(parse_seal("end ticks=12", 40), Ok(12));
        for bad in ["end ticks=x", "end", "end ticks=1 more", "fin ticks=1"] {
            assert_eq!(parse_seal(bad, 40).expect_err(bad).line, 40);
        }
    }

    #[test]
    fn recovery_refuses_a_foreign_log() {
        let (mut store, _) = reference(11, 4);
        let scene = docked_scene();
        let mut cfg = short_cfg(11);
        cfg.seed = 12;
        let err = recover_stored_campaign(&scene, &cfg, &mut store, &CampaignPaths::default(), 4)
            .expect_err("foreign config must be refused");
        assert!(err.contains("different config"), "{err}");
    }
}
