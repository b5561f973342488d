//! The one propagation core behind every air interface.
//!
//! [`WorldMedium`] is the **single** `impl Medium` in the workspace
//! that contains propagation physics. Every topology the paper and its
//! extensions exercise is a configuration of this core:
//!
//! * [`WorldMedium::direct`] — reader ↔ tags, no relay (the Fig. 11
//!   baseline);
//! * [`WorldMedium::relayed`] — reader ↔ one drone-borne relay ↔ tags
//!   (a fleet of one);
//! * [`WorldMedium::fleet`] — reader ↔ serving relay ↔ tags with the
//!   rest of the fleet radiating: coherent/incoherent downlink
//!   superposition, Δf-rejected uplink leakage, TDM serving.
//!
//! Everything *around* propagation — fault injection, instrumentation,
//! transaction taps — is a `rfly_reader::medium::MediumLayer` stacked
//! on top (`base.layer(faults).layer(obs).layer(tap)`), so behaviors
//! compose instead of each re-implementing the physics glue.
//!
//! Physics notes (unchanged from the pre-refactor media): every relay
//! radiates its downlink carrier continuously, so a tag hears the
//! *sum* of all relay downlinks — coherent within a shared tag-side
//! frequency f₂ ([`rfly_channel::phasor::coherent_sum`]), incoherent
//! across distinct f₂ ([`rfly_channel::phasor::incoherent_power_sum`]).
//! Inventory is TDM through one serving relay; the other relays'
//! carriers leak into the serving uplink after the chain filters' Δf
//! rejection ([`rfly_core::relay::gains::offset_rejection`]).
//!
//! Each link sweeps its Gen2 commands over a **powered index**
//! ([`TagRows`]). The link's per-tag RF rows are traced once, when it
//! is built, and never change: geometry is frozen while the medium
//! lives. Its first command sweeps every tag, as a real broadcast
//! would, and records the ascending indices of the tags whose own
//! harvester sustains their row's incident power. Every later command
//! sweeps only those tags. This is exact, not an approximation:
//!
//! * After the first command every other tag is cold: it was cold
//!   already, or [`PassiveTag::respond`] power-cycled it on that
//!   command. Under a constant sub-threshold incident power, `respond`
//!   on a cold tag returns `None` without touching any state.
//! * A link's incident power is constant: the rows are set at
//!   construction and nothing re-traces them.
//! * The medium holds the only `&mut PhasorWorld` for its whole life,
//!   so nothing else can move, re-power or reset a tag behind it.
//! * The index is ascending, so replies keep tag order, and the world
//!   RNG (`observe_channel`) is drawn only per reply. Journals,
//!   checkpoints and goldens are therefore byte-identical to a sweep
//!   over the whole population.

use std::collections::BTreeMap;

use rfly_channel::geometry::Point2;
use rfly_channel::phasor::{coherent_sum, incoherent_power_sum};
use rfly_core::relay::gains::offset_rejection;
use rfly_dsp::rng::Rng;
use rfly_dsp::units::{Db, Dbm, Hertz};
use rfly_dsp::Complex;
use rfly_protocol::commands::Command;
use rfly_protocol::tag_state::TagReply;
use rfly_reader::inventory::{Medium, Observation};
use rfly_tag::tag::PassiveTag;

use crate::world::{PhasorWorld, RelayModel};

/// The chain's passband width seen by an offset interferer: twice the
/// default `RelayConfig` BPF half-bandwidth (±200 kHz).
pub const FLEET_PASSBAND: Hertz = Hertz(400e3);

/// One fleet member: a relay build and where its drone hovers.
#[derive(Debug, Clone)]
pub struct FleetRelay {
    /// The relay's phasor-level model (frequencies, gains, caps).
    pub model: RelayModel,
    /// Drone hover position.
    pub pos: Point2,
}

/// Beyond this relay→tag distance a 29 dBm downlink is ≥ 20 dB under
/// the −15 dBm power-up threshold, so the relay's field is left out of
/// a tag's incident sum (on a single-serving link, and in
/// [`WorldMedium::incident_at`], that also skips the relay's
/// environment trace). Rows are traced once per plan or link, not per
/// transaction.
const INCIDENT_CULL_M: f64 = 25.0;

/// Tag counts below this stay on the serial trace path: per-tag work
/// is too small to amortize spawning pool workers (the lesson from the
/// first, bench-level parallelization attempt that lost to serial).
const PAR_MIN_TAGS: usize = 64;

/// Tags per pool task on the parallel trace path: large enough to
/// amortize the per-task claim, small enough to load-balance.
const PAR_CHUNK: usize = 32;

/// The fleet-summed incident power (mW) at one point: groups the relay
/// fields by tag-side frequency, sums each group coherently, then adds
/// group powers incoherently. `channel(i, relay)` is relay `i`'s
/// one-way channel to `at` at its f₂; it is asked only for relays
/// within [`INCIDENT_CULL_M`].
fn fleet_incident_mw(
    relays: &[FleetRelay],
    eirps: &[Dbm],
    at: Point2,
    mut channel: impl FnMut(usize, &FleetRelay) -> Complex,
) -> f64 {
    let mut groups: BTreeMap<u64, Vec<Complex>> = BTreeMap::new();
    for (i, (r, &eirp)) in relays.iter().zip(eirps).enumerate() {
        if r.pos.distance(at) > INCIDENT_CULL_M {
            continue;
        }
        let h2 = channel(i, r);
        let amp = eirp.milliwatts().sqrt();
        groups
            .entry(r.model.f2.as_hz().to_bits())
            .or_default()
            .push(h2 * amp);
    }
    incoherent_power_sum(
        groups
            .into_values()
            .map(|fields| coherent_sum(fields).norm_sq()),
    )
}

/// A link's per-tag RF rows and the powered index over them (see the
/// module docs for why sweeping only the index is exact).
///
/// Row `i` is `(incident, h)` for tag `i`: the power that drives the
/// tag's harvester, and the one-way channel its reply rides back on.
/// On a relayed link that is the fleet-summed incident power and the
/// serving relay's channel; on a direct link, the reader's own
/// incident power and channel.
#[derive(Debug)]
struct TagRows {
    rows: Vec<(Dbm, Complex)>,
    /// Ascending indices of the tags whose harvester sustains their
    /// row's incident power; `None` until the link's first command has
    /// swept every tag.
    powered: Option<Vec<usize>>,
}

impl TagRows {
    fn new(rows: Vec<(Dbm, Complex)>) -> Self {
        Self {
            rows,
            powered: None,
        }
    }

    /// Hands `cmd` to every tag the link can power, in tag order, and
    /// returns each reply with its tag's row. The first call sweeps the
    /// whole population (so a tag powered by an earlier link and now
    /// starved power-cycles here) and builds the index; later calls
    /// sweep only the index.
    fn sweep(&mut self, tags: &mut [PassiveTag], cmd: &Command) -> Vec<(Dbm, Complex, TagReply)> {
        let rows = &self.rows;
        if let Some(index) = &self.powered {
            return index
                .iter()
                .filter_map(|&i| {
                    let (incident, h) = rows[i];
                    let reply = tags[i].respond(cmd, incident)?;
                    Some((incident, h, reply))
                })
                .collect();
        }
        let mut index = Vec::new();
        let replies = tags
            .iter_mut()
            .zip(rows)
            .enumerate()
            .filter_map(|(i, (tag, &(incident, h)))| {
                if tag.sustains(incident) {
                    index.push(i);
                }
                let reply = tag.respond(cmd, incident)?;
                Some((incident, h, reply))
            })
            .collect();
        self.powered = Some(index);
        replies
    }
}

/// The relayed link state: the fleet, the serving index, and the
/// per-stop RF caches (geometry is frozen while the medium lives —
/// tracing once per medium instead of once per transact is what keeps
/// a warehouse mission tractable).
#[derive(Debug)]
struct RelayLink {
    relays: Vec<FleetRelay>,
    serving: usize,
    /// One-way reader→relay channel at each relay's f₁.
    h1: Vec<Complex>,
    /// Cached fleet leakage into the serving uplink, linear mW.
    leakage_mw: f64,
}

/// Relay `i`'s PA-capped downlink output power at its tag-side port.
/// Pure in `(world state, relays, h1)` — shared by the live link and
/// the [`FleetRf`] plan so both compute bit-identical values.
fn relay_output_of(world: &PhasorWorld, relays: &[FleetRelay], h1: &[Complex], i: usize) -> Dbm {
    let r = &relays[i].model;
    let p_in = world.config.tx_power
        + world.config.antenna_gain
        + Db::from_linear(h1[i].norm_sq())
        + r.antenna_gain;
    let amplified = p_in + r.gains.downlink;
    Dbm::new(amplified.value().min(r.pa_limit.value()))
}

/// Radiated downlink EIRP of every relay (output + antenna gain).
fn fleet_eirps(world: &PhasorWorld, relays: &[FleetRelay], h1: &[Complex]) -> Vec<Dbm> {
    (0..relays.len())
        .map(|i| relay_output_of(world, relays, h1, i) + relays[i].model.antenna_gain)
        .collect()
}

/// Interference power reaching the reader through the serving relay's
/// uplink from every other relay's downlink carrier, attenuated by the
/// chain filters' Δf rejection over [`FLEET_PASSBAND`]. Linear
/// milliwatts.
fn fleet_leakage_mw(
    world: &PhasorWorld,
    relays: &[FleetRelay],
    h1: &[Complex],
    serving: usize,
) -> f64 {
    let s = serving;
    let sm = &relays[s].model;
    let reader_side = Db::from_linear(h1[s].norm_sq()) + world.config.antenna_gain;
    incoherent_power_sum((0..relays.len()).filter(|&j| j != s).map(|j| {
        let jm = &relays[j].model;
        let coupling = world.one_way(relays[j].pos, relays[s].pos, jm.f2);
        let offset = jm.f2 - sm.f2;
        let leak = relay_output_of(world, relays, h1, j)
            + jm.antenna_gain
            + Db::from_linear(coupling.norm_sq())
            + sm.antenna_gain
            + sm.gains.uplink
            - offset_rejection(offset, FLEET_PASSBAND)
            + reader_side;
        leak.milliwatts()
    }))
}

/// Traces one serving relay's per-tag RF rows (fleet-summed incident
/// power, serving→tag channel), fanning the pure per-tag traces out
/// over the work pool when the tag count is worth it. Each row is a
/// pure function of frozen geometry, and [`crate::pool::Pool`] merges
/// in tag order, so the result is byte-identical at any worker count.
fn trace_tag_rf(
    world: &PhasorWorld,
    relays: &[FleetRelay],
    eirps: &[Dbm],
    serving: usize,
    positions: &[Point2],
) -> Vec<(Dbm, Complex)> {
    let serving_pos = relays[serving].pos;
    let f2_s = relays[serving].model.f2;
    let row = |&p: &Point2| {
        let h2 = world.one_way(serving_pos, p, f2_s);
        let incident = Dbm::from_milliwatts(fleet_incident_mw(relays, eirps, p, |i, r| {
            if i == serving {
                h2
            } else {
                world.one_way(r.pos, p, r.model.f2)
            }
        }));
        (incident, h2)
    };
    if positions.len() < PAR_MIN_TAGS {
        positions.iter().map(row).collect()
    } else {
        crate::pool::Pool::global().map_chunked(positions.len(), PAR_CHUNK, |range| {
            positions[range].iter().map(row).collect()
        })
    }
}

impl RelayLink {
    /// The serving relay's Eq. 3 stability gate.
    fn stable(&self) -> bool {
        stability_probe(&self.relays[self.serving], self.h1[self.serving])
    }

    /// Relay `i`'s PA-capped downlink output power at its tag-side port.
    fn relay_output(&self, world: &PhasorWorld, i: usize) -> Dbm {
        relay_output_of(world, &self.relays, &self.h1, i)
    }

    /// Relay `i`'s effective downlink amplitude gain after the PA cap.
    fn effective_downlink_gain(&self, world: &PhasorWorld, i: usize) -> Db {
        let r = &self.relays[i].model;
        let p_in = world.config.tx_power
            + world.config.antenna_gain
            + Db::from_linear(self.h1[i].norm_sq())
            + r.antenna_gain;
        Db::new(
            r.gains
                .downlink
                .value()
                .min(r.pa_limit.value() - p_in.value()),
        )
    }

    /// Radiated downlink EIRP of every relay (output + antenna gain).
    fn eirps(&self, world: &PhasorWorld) -> Vec<Dbm> {
        fleet_eirps(world, &self.relays, &self.h1)
    }
}

/// The serving relay's Eq. 3 stability gate, from its already-traced
/// reader channel: path loss at or below the relay's self-interference
/// isolation.
fn stability_probe(relay: &FleetRelay, h1: Complex) -> bool {
    let loss = -Db::from_linear(h1.norm_sq()).value();
    loss <= relay.model.stability_isolation.value()
}

/// A step's fleet RF plan: every *pure* propagation quantity a mission
/// stop needs — reader→relay channels, PA-capped EIRPs, per-tag
/// fleet-summed incident power, every relay→tag channel, and the
/// per-candidate-serving uplink leakage — traced **once** per step and
/// shared across all of the step's TDM servings.
///
/// This is the plan half of the mission engine's
/// plan → parallel-execute → ordered-merge contract: the plan is a
/// pure function of frozen geometry, so its per-tag rows fan out over
/// the [`crate::pool::Pool`] (merged in tag order), while everything
/// stateful — tag protocol machines, RNG draws, inventory merges —
/// stays on the caller's thread in the original serial order. The
/// serving loop then builds one [`WorldMedium::fleet_planned`] per
/// serving without re-tracing, which also removes the old
/// `n_servings × n_tags` re-trace inside a step.
///
/// The plan freezes geometry: it must be re-traced after tags or
/// drones move (`run_mission` re-plans every step).
#[derive(Debug, Clone)]
pub struct FleetRf {
    relays: Vec<FleetRelay>,
    /// One-way reader→relay channel at each relay's f₁.
    h1: Vec<Complex>,
    /// Per-tag fleet-summed incident power (serving-independent:
    /// powering is fleet-wide).
    incident: Vec<Dbm>,
    /// `h2[tag][relay]`: relay→tag one-way channel at that relay's f₂.
    h2: Vec<Vec<Complex>>,
    /// Fleet leakage into the uplink for each candidate serving, mW.
    leakage_mw: Vec<f64>,
}

impl FleetRf {
    /// Traces the full plan for `relays` over the world's current tag
    /// field. Byte-identical at any pool worker count.
    pub fn trace(world: &PhasorWorld, relays: Vec<FleetRelay>) -> Self {
        let h1: Vec<Complex> = relays
            .iter()
            .map(|r| world.one_way(world.reader_pos, r.pos, r.model.f1))
            .collect();
        let eirps = fleet_eirps(world, &relays, &h1);
        let positions: Vec<Point2> = world.tags.tags().iter().map(|t| t.position()).collect();
        let row = |&p: &Point2| {
            let h2 = relays
                .iter()
                .map(|r| world.one_way(r.pos, p, r.model.f2))
                .collect::<Vec<Complex>>();
            let incident =
                Dbm::from_milliwatts(fleet_incident_mw(&relays, &eirps, p, |i, _| h2[i]));
            (incident, h2)
        };
        let rows: Vec<(Dbm, Vec<Complex>)> = if positions.len() < PAR_MIN_TAGS {
            positions.iter().map(row).collect()
        } else {
            crate::pool::Pool::global().map_chunked(positions.len(), PAR_CHUNK, |range| {
                positions[range].iter().map(row).collect()
            })
        };
        let leakage_mw = (0..relays.len())
            .map(|s| fleet_leakage_mw(world, &relays, &h1, s))
            .collect();
        let (incident, h2) = rows.into_iter().unzip();
        Self {
            relays,
            h1,
            incident,
            h2,
            leakage_mw,
        }
    }

    /// The fleet the plan was traced for.
    pub fn relays(&self) -> &[FleetRelay] {
        &self.relays
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.relays.len()
    }

    /// True for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.relays.is_empty()
    }

    /// The Eq. 3 stability gate for candidate serving `s`, from the
    /// plan's already-traced reader channel — exactly the value
    /// [`WorldMedium::stable`] would compute, without building a
    /// medium.
    pub fn stable(&self, s: usize) -> bool {
        stability_probe(&self.relays[s], self.h1[s])
    }
}

/// Which link topology the core is simulating.
#[derive(Debug)]
enum Link {
    /// Reader ↔ tags, no relay.
    Direct,
    /// Reader ↔ serving relay ↔ tags, rest of the fleet radiating.
    Relayed(RelayLink),
}

/// The shared propagation core: the only `impl Medium` carrying
/// physics. See the module docs for the topology constructors.
#[derive(Debug)]
pub struct WorldMedium<'a> {
    world: &'a mut PhasorWorld,
    link: Link,
    rows: TagRows,
}

impl<'a> WorldMedium<'a> {
    /// Reader ↔ tags directly (the no-relay baseline). Traces every
    /// tag's reader channel once.
    pub fn direct(world: &'a mut PhasorWorld) -> Self {
        let rows = world
            .tags
            .tags()
            .iter()
            .map(|tag| direct_row(world, tag.position()))
            .collect();
        Self {
            world,
            link: Link::Direct,
            rows: TagRows::new(rows),
        }
    }

    /// Reader ↔ relay ↔ tags with the world's relay build hovering at
    /// `relay_pos`: a fleet of one.
    pub fn relayed(world: &'a mut PhasorWorld, relay_pos: Point2) -> Self {
        let model = world.relay.clone();
        Self::fleet(
            world,
            vec![FleetRelay {
                model,
                pos: relay_pos,
            }],
            0,
        )
    }

    /// Reader ↔ `relays[serving]` ↔ tags, with every other fleet member
    /// radiating its downlink carrier. Traces reader→relay channels for
    /// every member and caches every tag's RF state.
    pub fn fleet(world: &'a mut PhasorWorld, relays: Vec<FleetRelay>, serving: usize) -> Self {
        assert!(serving < relays.len(), "serving index out of range");
        let h1: Vec<Complex> = relays
            .iter()
            .map(|r| world.one_way(world.reader_pos, r.pos, r.model.f1))
            .collect();
        let eirps = fleet_eirps(world, &relays, &h1);
        let positions: Vec<Point2> = world.tags.tags().iter().map(|t| t.position()).collect();
        let rows = trace_tag_rf(world, &relays, &eirps, serving, &positions);
        let leakage_mw = fleet_leakage_mw(world, &relays, &h1, serving);
        Self {
            world,
            link: Link::Relayed(RelayLink {
                relays,
                serving,
                h1,
                leakage_mw,
            }),
            rows: TagRows::new(rows),
        }
    }

    /// Back-compat constructor (the pre-refactor `FleetMedium::new`
    /// signature): identical to [`Self::fleet`].
    pub fn new(world: &'a mut PhasorWorld, relays: Vec<FleetRelay>, serving: usize) -> Self {
        Self::fleet(world, relays, serving)
    }

    /// Reader ↔ `rf.relays()[serving]` ↔ tags from an already-traced
    /// [`FleetRf`] plan: no propagation runs here, the link is
    /// assembled from the plan's rows and is bit-identical to
    /// [`Self::fleet`] over the same frozen geometry. The world's tag
    /// field must not have moved since [`FleetRf::trace`].
    pub fn fleet_planned(world: &'a mut PhasorWorld, rf: &FleetRf, serving: usize) -> Self {
        assert!(serving < rf.relays.len(), "serving index out of range");
        assert_eq!(
            rf.incident.len(),
            world.tags.tags().len(),
            "fleet RF plan is stale: tag field changed since trace"
        );
        let rows = rf
            .incident
            .iter()
            .zip(&rf.h2)
            .map(|(&incident, row)| (incident, row[serving]))
            .collect();
        let link = RelayLink {
            relays: rf.relays.clone(),
            serving,
            h1: rf.h1.clone(),
            leakage_mw: rf.leakage_mw[serving],
        };
        Self {
            world,
            link: Link::Relayed(link),
            rows: TagRows::new(rows),
        }
    }

    /// The Eq. 3 stability gate for one candidate relay, without
    /// building a medium: traces only that relay's reader channel —
    /// exactly the value `Self::fleet(world, …, s).stable()` computes,
    /// minus the full per-tag RF refresh the constructor would run.
    pub fn probe_stability(world: &PhasorWorld, relay: &FleetRelay) -> bool {
        let h1 = world.one_way(world.reader_pos, relay.pos, relay.model.f1);
        stability_probe(relay, h1)
    }

    /// The serving relay, if this is a relayed link.
    pub fn serving(&self) -> Option<&FleetRelay> {
        match &self.link {
            Link::Direct => None,
            Link::Relayed(link) => Some(&link.relays[link.serving]),
        }
    }

    /// The Eq. 3 stability gate: path loss below the serving relay's
    /// isolation. A direct link is always stable; a ringing relay
    /// forwards nothing useful.
    pub fn stable(&self) -> bool {
        match &self.link {
            Link::Direct => true,
            Link::Relayed(link) => link.stable(),
        }
    }

    /// Total downlink power incident on a tag from the whole fleet:
    /// coherent within each f₂ group, incoherent across groups. On a
    /// direct link, the reader's own EIRP through the scene.
    pub fn incident_at(&self, tag_pos: Point2) -> Dbm {
        match &self.link {
            Link::Direct => direct_row(self.world, tag_pos).0,
            Link::Relayed(link) => {
                let eirps = link.eirps(self.world);
                Dbm::from_milliwatts(fleet_incident_mw(&link.relays, &eirps, tag_pos, |_, r| {
                    self.world.one_way(r.pos, tag_pos, r.model.f2)
                }))
            }
        }
    }
}

/// The direct link's row at `at`: the reader's incident power there and
/// its one-way channel at f₁.
fn direct_row(world: &PhasorWorld, at: Point2) -> (Dbm, Complex) {
    let h = world.one_way(world.reader_pos, at, world.relay.f1);
    (
        world.config.link_budget().eirp() + Db::from_linear(h.norm_sq()),
        h,
    )
}

/// Reader ↔ tags with no relay in the loop.
fn direct_transact(world: &mut PhasorWorld, rows: &mut TagRows, cmd: &Command) -> Vec<Observation> {
    let budget = world.config.link_budget();
    let bs = world.backscatter;
    let replies = rows.sweep(world.tags.tags_mut(), cmd);
    let mut obs = Vec::new();
    for (incident, h, reply) in replies {
        let p_rx = incident + bs.gain() + Db::from_linear(h.norm_sq()) + budget.rx_gain;
        let snr = p_rx - budget.noise_floor();
        let channel = world.observe_channel(h * h * bs.gain().amplitude(), snr);
        obs.push(Observation {
            frame: reply.frame().clone(),
            channel,
            snr,
        });
    }
    obs
}

/// Reader ↔ serving relay ↔ tags, with the rest of the fleet radiating.
fn fleet_transact(
    world: &mut PhasorWorld,
    link: &RelayLink,
    rows: &mut TagRows,
    cmd: &Command,
) -> Vec<Observation> {
    if !link.stable() {
        return Vec::new();
    }
    let s = link.serving;
    let g_dl_eff = link.effective_downlink_gain(world, s);
    let g_ul = link.relays[s].model.gains.uplink;
    let ant = link.relays[s].model.antenna_gain;
    let serving_eirp = link.relay_output(world, s) + link.relays[s].model.antenna_gain;
    let relay_phase = if link.relays[s].model.mirrored {
        link.relays[s].model.hw_constant
    } else {
        Complex::cis(
            world
                .rng
                .gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        )
    };
    let snr_penalty = link.relays[s].model.snr_penalty;
    let bs_gain = world.backscatter.gain();
    let reader_gain = world.config.antenna_gain;
    let h1 = link.h1[s];

    // Effective noise floor: receiver noise plus the fleet's leaked
    // carriers, summed in linear power.
    let noise_floor = world.config.link_budget().noise_floor();
    let denom = Dbm::from_milliwatts(noise_floor.milliwatts() + link.leakage_mw);

    let replies = rows.sweep(world.tags.tags_mut(), cmd);
    let mut obs = Vec::new();
    for (_, h2, reply) in replies {
        // Powering is fleet-wide; the decoded backscatter rides the
        // serving relay's carrier only.
        let incident_serving = serving_eirp + Db::from_linear(h2.norm_sq());
        let p_rx = incident_serving
            + bs_gain
            + Db::from_linear(h2.norm_sq())
            + ant // serving uplink RX antenna
            + g_ul
            + ant // serving uplink TX antenna
            + Db::from_linear(h1.norm_sq())
            + reader_gain;
        let snr = p_rx - denom - snr_penalty;
        let h = h1 * h1 * h2 * h2 * g_dl_eff.amplitude() * g_ul.amplitude() * relay_phase;
        let channel = world.observe_channel(h, snr);
        obs.push(Observation {
            frame: reply.frame().clone(),
            channel,
            snr,
        });
    }

    // The serving relay's embedded RFID (reserved EPC; the fleet
    // inventory engine filters it out of the global inventory).
    if let Some(reply) = world.embedded.handle(cmd) {
        let local = link.relays[s].model.embedded_local;
        let p_rx = link.relay_output(world, s)
            + ant
            + Db::from_linear(local.norm_sq())
            + bs_gain
            + Db::from_linear(local.norm_sq())
            + ant
            + g_ul
            + ant
            + Db::from_linear(h1.norm_sq())
            + reader_gain;
        let snr = p_rx - denom - snr_penalty;
        let h = h1 * h1 * local * local * g_dl_eff.amplitude() * g_ul.amplitude() * relay_phase;
        let channel = world.observe_channel(h, snr);
        obs.push(Observation {
            frame: reply.frame().clone(),
            channel,
            snr,
        });
    }

    obs
}

impl Medium for WorldMedium<'_> {
    fn transact(&mut self, cmd: &Command) -> Vec<Observation> {
        rfly_obs::counter_add("sim.transactions", 1);
        let world = &mut *self.world;
        match &self.link {
            Link::Direct => direct_transact(world, &mut self.rows, cmd),
            Link::Relayed(link) => fleet_transact(world, link, &mut self.rows, cmd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::RelayModel;
    use rfly_channel::environment::Environment;
    use rfly_dsp::rng::StdRng;
    use rfly_protocol::epc::Epc;
    use rfly_protocol::session::{InventoriedFlag, SelFilter, Session};
    use rfly_protocol::tag_state::TagState;
    use rfly_protocol::timing::{DivideRatio, TagEncoding};
    use rfly_reader::config::ReaderConfig;
    use rfly_reader::inventory::{InventoryController, RoundStats};
    use rfly_tag::harvester::Harvester;
    use rfly_tag::population::TagPopulation;

    /// A free-space world with one tag at each of `positions`, each
    /// tag on its own slot-draw seed.
    fn world_at(positions: impl IntoIterator<Item = Point2>, seed: u64) -> PhasorWorld {
        let mut tags = TagPopulation::new();
        for (i, pos) in positions.into_iter().enumerate() {
            tags.add(
                PassiveTag::new(Epc::from_index(i as u64 + 1), 7 + i as u64, pos),
                "test".into(),
            );
        }
        PhasorWorld::new(
            Environment::free_space(),
            Point2::ORIGIN,
            ReaderConfig::usrp_default(),
            tags,
            RelayModel::prototype(Hertz::mhz(915.0)),
            seed,
        )
    }

    fn world_with_tags(n_tags: usize, seed: u64) -> PhasorWorld {
        world_at(
            (0..n_tags).map(|i| Point2::new(44.0 + (i % 10) as f64, (i / 10) as f64 - 3.0)),
            seed,
        )
    }

    fn query() -> Command {
        Command::Query {
            dr: DivideRatio::Dr64over3,
            m: TagEncoding::Fm0,
            trext: false,
            sel: SelFilter::All,
            session: Session::S0,
            target: InventoriedFlag::A,
            q: 0,
        }
    }

    /// A round's outcome by value: slot counts, then each read's EPC,
    /// channel and SNR.
    type RoundPrint = ((usize, usize, usize), Vec<(Epc, f64, f64, f64)>);

    fn round_print(stats: &RoundStats) -> RoundPrint {
        let reads = stats
            .reads
            .iter()
            .map(|r| (r.epc, r.channel.re, r.channel.im, r.snr.value()))
            .collect();
        ((stats.empty, stats.singles, stats.collisions), reads)
    }

    /// Folds every observation the wrapped medium returns, in order,
    /// into an FNV-1a digest: a change in reply order, count or value
    /// changes it, even where the reader's rounds cannot see it.
    struct Digest<'m, 'w>(&'m mut WorldMedium<'w>, u64);

    impl Medium for Digest<'_, '_> {
        fn transact(&mut self, cmd: &Command) -> Vec<Observation> {
            let obs = self.0.transact(cmd);
            for o in &obs {
                for word in [o.channel.re, o.channel.im, o.snr.value()] {
                    for byte in word.to_bits().to_le_bytes() {
                        self.1 = (self.1 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
            obs
        }
    }

    fn fleet_of_three() -> Vec<FleetRelay> {
        [
            (915.0, Point2::new(48.0, 0.0)),
            (920.0, Point2::new(48.0, 6.0)),
            (925.0, Point2::new(48.0, -6.0)),
        ]
        .into_iter()
        .map(|(mhz, pos)| {
            let mut model = RelayModel::prototype(Hertz::mhz(mhz));
            model.f2 = model.f1 + Hertz::mhz(1.0);
            FleetRelay { model, pos }
        })
        .collect()
    }

    /// The planned constructor must assemble the exact link a fresh
    /// trace would: identical cached RF, identical mission
    /// observations (including the shared-RNG draws in transact).
    #[test]
    fn planned_link_matches_fresh_construction() {
        let fleet = fleet_of_three();
        for serving in 0..fleet.len() {
            let run = |planned: bool| {
                let mut w = world_with_tags(12, 9);
                let mut m = if planned {
                    let rf = FleetRf::trace(&w, fleet.clone());
                    WorldMedium::fleet_planned(&mut w, &rf, serving)
                } else {
                    WorldMedium::fleet(&mut w, fleet.clone(), serving)
                };
                let mut c = InventoryController::new(
                    ReaderConfig::usrp_default(),
                    StdRng::seed_from_u64(11),
                );
                format!("{:?}", c.run_until_quiet(&mut m, 6))
            };
            assert_eq!(run(false), run(true), "serving {serving}");
        }
    }

    /// The cached link internals agree row-for-row, bit-for-bit.
    #[test]
    fn planned_rf_rows_are_bit_identical() {
        let fleet = fleet_of_three();
        let mut w = world_with_tags(12, 9);
        let rf = FleetRf::trace(&w, fleet.clone());
        for serving in 0..fleet.len() {
            let medium = WorldMedium::fleet(&mut w, fleet.clone(), serving);
            let fresh_rows = medium.rows.rows;
            let fresh = match medium.link {
                Link::Relayed(link) => link,
                Link::Direct => panic!("fleet constructor built a direct link"),
            };
            let planned: Vec<(Dbm, Complex)> = rf
                .incident
                .iter()
                .zip(&rf.h2)
                .map(|(&incident, row)| (incident, row[serving]))
                .collect();
            assert_eq!(format!("{fresh_rows:?}"), format!("{planned:?}"));
            assert_eq!(
                fresh.leakage_mw.to_bits(),
                rf.leakage_mw[serving].to_bits(),
                "serving {serving}"
            );
            assert_eq!(format!("{:?}", fresh.h1), format!("{:?}", rf.h1));
        }
    }

    /// Tracing is byte-identical at any pool worker count, including
    /// past the parallel threshold.
    #[test]
    fn trace_is_worker_count_invariant() {
        let _guard = crate::pool::TEST_WIDTH_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let fleet = fleet_of_three();
        let w = world_with_tags(PAR_MIN_TAGS + 33, 13);
        let reference = {
            crate::pool::set_global_workers(1);
            format!("{:?}", FleetRf::trace(&w, fleet.clone()))
        };
        for workers in [2, 8] {
            crate::pool::set_global_workers(workers);
            let got = format!("{:?}", FleetRf::trace(&w, fleet.clone()));
            assert_eq!(got, reference, "{workers} workers");
        }
        crate::pool::reset_global_workers();
    }

    /// The h1-only probe agrees with the full medium's gate in both a
    /// stable and an unstable geometry.
    #[test]
    fn probe_agrees_with_full_medium_stability() {
        let fleet = fleet_of_three();
        for (reader, expect_stable) in [(Point2::ORIGIN, true), (Point2::new(-350.0, 0.0), false)] {
            let mut w = world_with_tags(4, 17);
            w.reader_pos = reader;
            let probe = WorldMedium::probe_stability(&w, &fleet[0]);
            let plan = FleetRf::trace(&w, fleet.clone()).stable(0);
            let full = WorldMedium::fleet(&mut w, fleet.clone(), 0).stable();
            assert_eq!(probe, full);
            assert_eq!(plan, full);
            assert_eq!(full, expect_stable, "reader at {reader:?}");
        }
    }

    /// The reset edge the powered index keeps: a tag left powered by
    /// one link (no `power_cycle_tags` in between) and starved by the
    /// next must lose power and protocol state on that link's first
    /// command, as it would under a sweep of the whole population.
    #[test]
    fn first_command_power_cycles_a_tag_the_new_link_starves() {
        let tag_pos = Point2::new(48.0, 2.0);
        let threshold = Harvester::passive_tag().threshold;
        let mut w = world_at([tag_pos], 21);
        WorldMedium::relayed(&mut w, Point2::new(48.0, 0.0)).transact(&query());
        let tag = &w.tags.tags()[0];
        assert!(tag.powered());
        assert_eq!(tag.state(), TagState::Reply);

        let far = vec![FleetRelay {
            model: w.relay.clone(),
            pos: Point2::new(5.0, 0.0),
        }];
        let rf = FleetRf::trace(&w, far);
        let mut m = WorldMedium::fleet_planned(&mut w, &rf, 0);
        assert!(m.stable(), "the starving link must still sweep");
        assert!(m.incident_at(tag_pos) < threshold);
        m.transact(&query());
        let tag = &w.tags.tags()[0];
        assert_eq!(tag.state(), TagState::Ready);
        assert!(!tag.powered());
    }

    /// Tags a link cannot power are never touched: their RNG streams
    /// and persistent flags survive a full inventory round unchanged.
    #[test]
    fn round_leaves_starved_tags_untouched() {
        let threshold = Harvester::passive_tag().threshold;
        let mut w = world_with_tags(20, 5);
        let before: Vec<([u64; 4], u8)> = w
            .tags
            .tags()
            .iter()
            .map(|t| (t.rng_state(), t.flags_snapshot()))
            .collect();
        let positions: Vec<Point2> = w.tags.tags().iter().map(|t| t.position()).collect();
        let mut m = WorldMedium::relayed(&mut w, Point2::new(44.0, -3.0));
        let starved: Vec<usize> = (0..positions.len())
            .filter(|&i| m.incident_at(positions[i]) < threshold)
            .collect();
        assert!(!starved.is_empty() && starved.len() < positions.len());
        let mut c =
            InventoryController::new(ReaderConfig::usrp_default(), StdRng::seed_from_u64(3));
        let stats = c.run_round(&mut m);
        assert!(!stats.reads.is_empty(), "the powered tags must be read");
        for i in starved {
            let t = &w.tags.tags()[i];
            assert_eq!((t.rng_state(), t.flags_snapshot()), before[i], "tag {i}");
        }
    }

    /// Recorded rounds: slot counts (empty, single, collision), then
    /// each read's EPC index (`u64::MAX` is the embedded RFID), channel
    /// re/im and SNR in dB.
    type RecordedRounds = &'static [((usize, usize, usize), &'static [(u64, f64, f64, f64)])];

    #[rustfmt::skip]
    const RELAYED_ROUNDS: RecordedRounds = &[
        ((5, 7, 2), &[
            (5, 8.525357836069265e-5, 0.00012917925777721406, 44.057793540229156),
            (8, 8.522386217020287e-5, 0.00012937759425828984, 44.057793540229156),
            (u64::MAX, -0.008508446461231542, -0.0037119428104629565, 79.60018094979509),
            (4, 8.448917259891861e-5, 0.00013052052729449403, 44.057793540229156),
            (6, 0.0002969895106429882, 0.0005659826941727999, 56.35985049810785),
            (7, 0.0002977311283813125, 0.0005652568815554237, 56.359850498108095),
            (1, 8.494503562455258e-5, 0.00013041403168114637, 44.057793540229156),
        ]),
        ((8, 2, 0), &[
            (2, 0.00029772103147940825, 0.0005664983578962776, 56.35985049810785),
            (3, 0.00029680520631729894, 0.0005658591655034058, 56.359850498108095),
        ]),
        ((2, 0, 0), &[]),
    ];

    #[rustfmt::skip]
    const DIRECT_ROUNDS: RecordedRounds = &[
        ((7, 4, 3), &[
            (5, 0.0008862802709984025, 0.0001820987480557274, 84.0959427654494),
            (8, 9.651556111950078e-5, -6.390662165119036e-5, 66.23562050543232),
            (4, 9.649305006050484e-5, -6.387404941202905e-5, 66.23562050543232),
            (1, 0.000886243194908618, 0.00018204896439194933, 84.0959427654494),
        ]),
        ((5, 4, 1), &[
            (2, -9.399359442431717e-5, -0.0003473579556973255, 76.08589825671663),
            (7, -7.929110054131416e-5, 0.00017161155630195972, 70.49470642547743),
            (6, -9.396833627801697e-5, -0.00034727501738310794, 76.08589825671663),
            (3, -7.927654914324602e-5, 0.0001714974088957517, 70.49470642547743),
        ]),
        ((3, 0, 0), &[]),
    ];

    /// On populations every tag of which the link powers, the indexed
    /// sweep reproduces the whole-population sweep exactly: the rounds
    /// and the digest of every observation, in order, were recorded
    /// from the sweep over every tag on every command.
    #[test]
    fn powered_population_rounds_match_recorded_full_sweep() {
        let threshold = Harvester::passive_tag().threshold;
        let cluster = |cx: f64| {
            (0..8).map(move |i| Point2::new(cx + 0.4 * (i % 4) as f64, 0.5 * (i / 4) as f64 - 0.25))
        };
        let rounds = |m: &mut WorldMedium| {
            let mut c =
                InventoryController::new(ReaderConfig::usrp_default(), StdRng::seed_from_u64(4));
            let mut digest = Digest(m, 0xcbf2_9ce4_8422_2325);
            let prints: Vec<RoundPrint> = (0..3)
                .map(|_| round_print(&c.run_round(&mut digest)))
                .collect();
            (prints, digest.1)
        };

        let mut w = world_at(cluster(47.4), 31);
        let rf = FleetRf::trace(&w, fleet_of_three());
        let positions: Vec<Point2> = cluster(47.4).collect();
        let mut m = WorldMedium::fleet_planned(&mut w, &rf, 0);
        assert!(positions.iter().all(|&p| m.incident_at(p) >= threshold));
        let relayed = rounds(&mut m);

        let mut w = world_at(cluster(0.6), 31);
        let positions: Vec<Point2> = cluster(0.6).collect();
        let mut m = WorldMedium::direct(&mut w);
        assert!(positions.iter().all(|&p| m.incident_at(p) >= threshold));
        let direct = rounds(&mut m);

        let recorded = |rounds: RecordedRounds| -> Vec<RoundPrint> {
            rounds
                .iter()
                .map(|&(counts, reads)| {
                    let reads = reads
                        .iter()
                        .map(|&(k, re, im, snr)| (Epc::from_index(k), re, im, snr))
                        .collect();
                    (counts, reads)
                })
                .collect()
        };
        assert_eq!(relayed.0, recorded(RELAYED_ROUNDS));
        assert_eq!(direct.0, recorded(DIRECT_ROUNDS));
        assert_eq!(
            relayed.1, 0x70e4_1635_bba6_ee01,
            "relayed observation stream"
        );
        assert_eq!(direct.1, 0x67c9_7122_ceaf_8be8, "direct observation stream");
    }
}
