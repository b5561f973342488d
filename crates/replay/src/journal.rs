//! The append-only mission journal.
//!
//! One mission produces one journal: a header naming the scenario, then
//! one block per executed step, then (if the mission ran to completion)
//! a seal footer. Every float is written in shortest-round-trip form,
//! so `Journal::from_text(j.to_text())` reproduces every field bit for
//! bit — the property the divergence detector and the crash-consistency
//! tests lean on.
//!
//! Step block grammar (`<f>` = shortest-round-trip float):
//!
//! ```text
//! s <step>
//! f <id> <step> <relay> <kind…>      fault strike (schedule line form)
//! a <step> <trigger> <action…>       recovery (resilience-log line form)
//! m <i> <j> <margin-db>              worst alive pair margin
//! r <relay> <epc24> <re> <im> <snr>  one environment-tag read
//! g <hex> <hex> <hex> <hex>          world RNG state after the step
//! e <0|1>                            step terminator; 1 = mission done
//! ```
//!
//! The `f` and `a` lines are the fault-schedule and resilience-log line
//! forms *verbatim* — a journal embeds the mission's
//! [`rfly_faults::ResilienceLog`] record stream unchanged, so `grep
//! '^a '` over a journal is exactly the recovery log.
//!
//! A journal whose process was killed simply stops after the last
//! complete step block; [`Journal::from_text`] accepts the missing
//! footer and leaves [`Journal::sealed`] as `None`.

use rfly_chaos::durable::LogCodec;
use rfly_dsp::units::{Db, Seconds};
use rfly_dsp::Complex;
use rfly_faults::supervisor::{ReadRecord, StepRecord};
use rfly_faults::text::{epc_hex, fmt_f64, Fields, ParseError};
use rfly_faults::{FaultEvent, LoggedRecovery};

use crate::runner::Scenario;

/// The completion footer of a sealed journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seal {
    /// Inventory stops flown.
    pub steps: usize,
    /// Mission duration, seconds.
    pub duration_s: f64,
}

/// A mission's step-by-step record.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// The scenario that produced it.
    pub scenario: Scenario,
    /// One record per executed step, in order.
    pub steps: Vec<StepRecord>,
    /// The completion footer; `None` for a journal cut short by a kill.
    pub sealed: Option<Seal>,
}

impl Journal {
    /// An empty journal for `scenario`.
    pub fn begin(scenario: Scenario) -> Self {
        Self {
            scenario,
            steps: Vec::new(),
            sealed: None,
        }
    }

    /// Appends one executed step.
    pub fn push(&mut self, rec: &StepRecord) {
        self.steps.push(rec.clone());
    }

    /// Seals the journal with the mission outcome's totals.
    pub fn seal(&mut self, steps: usize, duration: Seconds) {
        self.sealed = Some(Seal {
            steps,
            duration_s: duration.value(),
        });
    }

    /// The full text form.
    pub fn to_text(&self) -> String {
        let mut s = header_text(&self.scenario);
        for rec in &self.steps {
            s.push_str(&step_block(rec));
        }
        if let Some(seal) = self.sealed {
            s.push_str(&seal_text(&seal));
        }
        s
    }

    /// Parses [`Self::to_text`]. A missing `end` footer is accepted
    /// (the journal of a killed mission); a *truncated step block* is
    /// not — the last line of an accepted journal must be an `e`
    /// terminator or the footer.
    pub fn from_text(text: &str) -> Result<Self, ParseError> {
        let mut lines = text.lines().enumerate().map(|(n, l)| (n + 1, l.trim()));
        let (n, header) = lines
            .next()
            .ok_or_else(|| ParseError::new(1, "empty journal text"))?;
        if header != MAGIC {
            return Err(ParseError::new(n, format!("bad header {header:?}")));
        }
        let (n, scn_line) = lines
            .next()
            .ok_or_else(|| ParseError::new(n + 1, "missing scenario line"))?;
        let scenario = Scenario::from_line(scn_line, n)?;
        let mut journal = Journal::begin(scenario);
        let mut open = None;
        for (n, line) in lines.filter(|(_, l)| !l.is_empty()) {
            if open.is_none() && line.split_whitespace().next() == Some("end") {
                journal.sealed = Some(parse_seal(line, n)?);
                return Ok(journal);
            }
            journal.steps.extend(feed(&mut open, line, n)?);
        }
        match open {
            Some((open_n, _)) => Err(ParseError::new(
                text.lines().count(),
                format!("step block opened at line {open_n} has no `e` terminator"),
            )),
            None => Ok(journal),
        }
    }
}

/// The journal's version line.
pub(crate) const MAGIC: &str = "rfly-journal v1";

/// The journal header: the version line plus the scenario line —
/// exactly the prefix an incremental writer appends before any step.
pub fn header_text(scenario: &Scenario) -> String {
    let mut s = format!("{MAGIC}\n");
    s.push_str(&scenario.to_line());
    s.push('\n');
    s
}

/// The seal footer line a completed mission appends last.
pub fn seal_text(seal: &Seal) -> String {
    format!(
        "end steps={} duration={}\n",
        seal.steps,
        fmt_f64(seal.duration_s)
    )
}

/// Parses the [`seal_text`] line found at 1-indexed `line_no`.
pub(crate) fn parse_seal(line: &str, line_no: usize) -> Result<Seal, ParseError> {
    let mut f = Fields::new(line, line_no);
    f.expect_tok("end")?;
    let seal = Seal {
        steps: f.kv_usize("steps")?,
        duration_s: f.kv_f64("duration")?,
    };
    f.finish()?;
    Ok(seal)
}

/// One step block's text form — the unit an incremental journal writer
/// appends per executed step (and the unit crash salvage keeps or
/// drops whole: a block missing its `e` terminator is torn).
pub fn step_block(rec: &StepRecord) -> String {
    let mut s = format!("s {}\n", rec.step);
    for f in &rec.faults {
        s.push_str(&f.to_line());
        s.push('\n');
    }
    for a in &rec.recoveries {
        s.push_str(&a.to_line());
        s.push('\n');
    }
    if let Some((i, j, m)) = rec.margin {
        s.push_str(&format!("m {i} {j} {}\n", fmt_f64(m)));
    }
    for r in &rec.reads {
        s.push_str(&format!(
            "r {} {} {} {} {}\n",
            r.relay,
            epc_hex(r.epc),
            fmt_f64(r.channel.re),
            fmt_f64(r.channel.im),
            fmt_f64(r.snr.value()),
        ));
    }
    s.push_str(&format!(
        "g {:x} {:x} {:x} {:x}\n",
        rec.rng[0], rec.rng[1], rec.rng[2], rec.rng[3]
    ));
    s.push_str(&format!("e {}\n", u8::from(rec.done)));
    s
}

/// The journal's text form, as the durable engine reads it; with
/// `expect` set, a journal for another scenario is refused.
pub(crate) struct JournalCodec<'a> {
    pub(crate) expect: Option<&'a Scenario>,
}

impl LogCodec for JournalCodec<'_> {
    type Block = StepRecord;
    type Seal = Seal;
    type Id = Scenario;
    const MAGIC: &'static str = MAGIC;

    fn identity(&self, line: &str) -> Result<Option<Scenario>, String> {
        match (Scenario::from_line(line, 2), self.expect) {
            (Ok(found), Some(want)) if found != *want => Err(format!(
                "salvaged journal is for a different scenario: {:?}",
                found.to_line()
            )),
            (found, _) => Ok(found.ok()),
        }
    }

    fn encode_block(&self, block: &StepRecord) -> String {
        step_block(block)
    }

    fn decode_block(&self, text: &str) -> Option<StepRecord> {
        parse_step_block(text).ok()
    }

    fn index(block: &StepRecord) -> usize {
        block.step
    }

    fn decode_seal(&self, line: &str, line_no: usize) -> Option<(usize, Seal)> {
        let seal = parse_seal(line, line_no).ok()?;
        Some((seal.steps, seal))
    }
}

/// Parses one [`step_block`]: its `s` line through its `e` line.
pub(crate) fn parse_step_block(text: &str) -> Result<StepRecord, ParseError> {
    let (mut open, mut done) = (None, None);
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if done.is_some() {
            return Err(ParseError::new(i + 1, "records after the `e` terminator"));
        }
        done = feed(&mut open, line, i + 1)?;
    }
    done.ok_or_else(|| ParseError::new(text.lines().count(), "step block has no `e` terminator"))
}

/// Feeds one trimmed, non-empty line `n` to the step block being
/// parsed (`open`: its first line and record so far); returns the
/// record once its `e` terminator arrives.
fn feed(
    open: &mut Option<(usize, StepRecord)>,
    line: &str,
    n: usize,
) -> Result<Option<StepRecord>, ParseError> {
    let first = line.split_whitespace().next().unwrap_or("");
    let Some((open_n, rec)) = open.as_mut() else {
        if first != "s" {
            return Err(ParseError::new(
                n,
                format!("record {line:?} outside a step block"),
            ));
        }
        let mut f = Fields::new(line, n);
        f.expect_tok("s")?;
        let step = f.usize("step index")?;
        f.finish()?;
        *open = Some((
            n,
            StepRecord {
                step,
                faults: Vec::new(),
                recoveries: Vec::new(),
                margin: None,
                reads: Vec::new(),
                rng: [0; 4],
                done: false,
            },
        ));
        return Ok(None);
    };
    if first == "s" || first == "end" {
        return Err(ParseError::new(
            n,
            format!("step block opened at line {open_n} has no `e` terminator"),
        ));
    }
    if parse_step_line(first, line, n, rec)? {
        return Ok(open.take().map(|(_, rec)| rec));
    }
    Ok(None)
}

/// Parses one in-block journal line into `rec`. Returns `true` when the
/// line was the `e` terminator (the block is complete).
fn parse_step_line(
    first: &str,
    line: &str,
    n: usize,
    rec: &mut StepRecord,
) -> Result<bool, ParseError> {
    match first {
        "f" => rec.faults.push(FaultEvent::from_line(line, n)?),
        "a" => rec.recoveries.push(LoggedRecovery::from_line(line, n)?),
        "m" => {
            let mut f = Fields::new(line, n);
            f.expect_tok("m")?;
            let i = f.usize("relay i")?;
            let j = f.usize("relay j")?;
            let m = f.f64("margin dB")?;
            f.finish()?;
            rec.margin = Some((i, j, m));
        }
        "r" => {
            let mut f = Fields::new(line, n);
            f.expect_tok("r")?;
            let read = ReadRecord {
                relay: f.usize("relay")?,
                epc: f.epc("EPC")?,
                channel: Complex {
                    re: f.f64("channel re")?,
                    im: f.f64("channel im")?,
                },
                snr: Db::new(f.f64("SNR dB")?),
            };
            f.finish()?;
            rec.reads.push(read);
        }
        "g" => {
            let mut f = Fields::new(line, n);
            f.expect_tok("g")?;
            for w in rec.rng.iter_mut() {
                *w = f.hex_u64("RNG word")?;
            }
            f.finish()?;
        }
        "e" => {
            let mut f = Fields::new(line, n);
            f.expect_tok("e")?;
            rec.done = f.usize("done flag")? != 0;
            f.finish()?;
            return Ok(true);
        }
        other => {
            return Err(ParseError::new(
                n,
                format!("unknown journal record {other:?}"),
            ))
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_faults::FaultSchedule;

    #[test]
    fn journal_round_trips_byte_for_byte() {
        let scn = Scenario::small(11);
        let run = crate::runner::run_full(&scn, &FaultSchedule::storm(11, 2, 12)).expect("runs");
        let text = run.journal.to_text();
        let back = Journal::from_text(&text).expect("parses");
        assert_eq!(back, run.journal);
        assert_eq!(back.to_text(), text, "re-serialization is byte-stable");
        assert!(back.sealed.is_some());
        assert!(!back.steps.is_empty());
    }

    #[test]
    fn killed_journal_parses_without_a_footer() {
        let scn = Scenario::small(11);
        let run = crate::runner::run_full(&scn, &FaultSchedule::none()).expect("runs");
        let text = run.journal.to_text();
        // Cut the footer and every line of the last step block.
        let cut: String = {
            let lines: Vec<&str> = text.lines().collect();
            let last_e = lines
                .iter()
                .rposition(|l| l.starts_with("e "))
                .expect("has a step");
            let prev_e = lines[..last_e]
                .iter()
                .rposition(|l| l.starts_with("e "))
                .expect("has two steps");
            lines[..=prev_e].join("\n")
        };
        let partial = Journal::from_text(&cut).expect("partial journal parses");
        assert_eq!(partial.sealed, None);
        assert_eq!(partial.steps.len(), run.journal.steps.len() - 1);
        assert_eq!(partial.steps[..], run.journal.steps[..partial.steps.len()]);
    }

    #[test]
    fn truncated_step_block_is_rejected() {
        let scn = Scenario::small(11);
        let run = crate::runner::run_full(&scn, &FaultSchedule::none()).expect("runs");
        let text = run.journal.to_text();
        let cut: String = {
            let lines: Vec<&str> = text.lines().collect();
            // Drop the footer and the last `e` terminator.
            lines[..lines.len() - 2].join("\n")
        };
        assert!(Journal::from_text(&cut).is_err(), "no `e` terminator");
    }

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        assert!(Journal::from_text("").is_err());
        assert!(Journal::from_text("rfly-journal v2\n").is_err());
        let scn_line = Scenario::small(1).to_line();
        let bad = format!("rfly-journal v1\n{scn_line}\nz 1\n");
        let err = Journal::from_text(&bad).expect_err("unknown record");
        assert_eq!(err.line, 3);
        let orphan = format!("rfly-journal v1\n{scn_line}\nm 0 1 2.5\n");
        assert!(Journal::from_text(&orphan).is_err(), "record outside block");
    }
}
