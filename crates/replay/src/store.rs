//! Crash-consistent mission persistence: the journal and checkpoint
//! codecs run on the [`rfly_chaos::durable`] engine, so a mission
//! killed at *any storage operation* resumes bit-identically. Only
//! unacknowledged step blocks (the torn tail) are lost, and those steps
//! re-execute; a lost-but-acked append heals too, because recovery
//! trusts only what it reads back.

use rfly_chaos::durable::{self, Files};
use rfly_chaos::Storage;
use rfly_faults::FaultSchedule;

use crate::journal::{Journal, JournalCodec};
use crate::runner::{MissionJob, Run, Scenario};

/// Where a stored mission keeps its two files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorePaths {
    /// The append-only journal file.
    pub journal: String,
    /// The atomically-replaced checkpoint file.
    pub checkpoint: String,
}

impl Default for StorePaths {
    fn default() -> Self {
        Self {
            journal: "mission.journal".to_string(),
            checkpoint: "mission.ck".to_string(),
        }
    }
}

impl StorePaths {
    fn files(&self) -> Files<'_> {
        Files {
            log: &self.journal,
            checkpoint: &self.checkpoint,
        }
    }
}

/// What [`salvage_journal`] kept and dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvagedJournal {
    /// The salvaged text: the longest valid prefix of complete step
    /// blocks (duplicates removed). Empty when even the header was lost.
    pub text: String,
    /// The parsed salvage; `None` when nothing usable survived.
    pub journal: Option<Journal>,
    /// Complete step blocks kept.
    pub steps: usize,
    /// Whether the seal footer survived (the mission had completed).
    pub sealed: bool,
    /// Raw bytes not carried into the salvage (torn tail + garbage).
    pub dropped_bytes: usize,
    /// Duplicated step blocks dropped (a crashed duplicated append).
    pub dropped_duplicates: usize,
}

/// Truncates raw journal bytes to the longest valid prefix of complete
/// step blocks, dropping a torn tail line, any block missing its `e`
/// terminator, a duplicated last block, and anything after the seal.
///
/// Never fails: unusable input salvages to the empty journal (the
/// mission restarts from scratch). The salvaged text always re-parses
/// with [`Journal::from_text`] and its step indices are sequential from
/// zero — the two invariants [`recover_stored`] leans on.
pub fn salvage_journal(raw: &[u8]) -> SalvagedJournal {
    let s = durable::salvage(&JournalCodec { expect: None }, raw);
    SalvagedJournal {
        steps: s.blocks.len(),
        sealed: s.seal.is_some(),
        journal: s.id.map(|scenario| Journal {
            scenario,
            steps: s.blocks,
            sealed: s.seal.map(|(_, _, seal)| seal),
        }),
        text: s.text,
        dropped_bytes: s.dropped_bytes,
        dropped_duplicates: s.dropped_duplicates,
    }
}

/// Flies `scenario` under `schedule` start to finish, persisting
/// through `storage`: the journal as incremental appends (header, one
/// block per step, seal), a checkpoint atomically replaced every
/// `checkpoint_every` steps (`0` = final checkpoint only), and a final
/// checkpoint of the completed state.
///
/// Storage errors (including an injected crash) abort mid-protocol and
/// surface as `Err` — exactly the state [`recover_stored`] heals.
pub fn run_stored(
    scenario: &Scenario,
    schedule: &FaultSchedule,
    storage: &mut dyn Storage,
    paths: &StorePaths,
    checkpoint_every: usize,
) -> Result<Run, String> {
    let _span = rfly_obs::span("replay.run_stored");
    let job = MissionJob::new(scenario, schedule);
    durable::run(&job, storage, paths.files(), checkpoint_every)
}

/// Recovers a crashed [`run_stored`] mission from whatever `storage`
/// holds and flies it to completion, leaving the durable files
/// bit-identical to an uncrashed run's.
///
/// A journal for another scenario, a re-executed step or seal whose
/// bytes differ from the durable ones, or a seal that disagrees with
/// the salvaged step count is real corruption, not a crash, and is
/// reported as `Err`.
pub fn recover_stored(
    scenario: &Scenario,
    schedule: &FaultSchedule,
    storage: &mut dyn Storage,
    paths: &StorePaths,
    checkpoint_every: usize,
) -> Result<Run, String> {
    let _span = rfly_obs::span("replay.recover_stored");
    let job = MissionJob::new(scenario, schedule);
    durable::recover(&job, storage, paths.files(), checkpoint_every)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{self, Seal};
    use crate::Checkpoint;
    use rfly_chaos::MemStorage;

    fn stored_run(seed: u64, every: usize) -> (MemStorage, Run) {
        let scn = Scenario::small(seed);
        let storm = FaultSchedule::storm(seed, 2, 12);
        let mut store = MemStorage::new();
        let run = run_stored(&scn, &storm, &mut store, &StorePaths::default(), every)
            .expect("stored run completes");
        (store, run)
    }

    #[test]
    fn stored_journal_matches_to_text() {
        let (store, run) = stored_run(11, 3);
        let paths = StorePaths::default();
        let bytes = store.read(&paths.journal).expect("journal exists");
        assert_eq!(bytes, run.journal.to_text().as_bytes());
        let cp_bytes = store.read(&paths.checkpoint).expect("checkpoint exists");
        let cp = Checkpoint::from_text(&String::from_utf8(cp_bytes).expect("utf8"))
            .expect("final checkpoint parses");
        assert!(cp.mission.done, "final checkpoint is the done state");
        assert_eq!(cp.mission.steps, run.outcome.steps);
    }

    #[test]
    fn stored_run_matches_run_full() {
        let scn = Scenario::small(7);
        let storm = FaultSchedule::storm(7, 2, 12);
        let full = crate::runner::run_full(&scn, &storm).expect("runs");
        let (_, stored) = stored_run(7, 4);
        assert_eq!(stored.journal, full.journal);
        assert_eq!(stored.outcome.steps, full.outcome.steps);
        assert_eq!(stored.outcome.duration_s, full.outcome.duration_s);
    }

    #[test]
    fn salvage_keeps_complete_prefix_and_drops_torn_tail() {
        let (store, run) = stored_run(11, 3);
        let text = run.journal.to_text();
        let full = salvage_journal(text.as_bytes());
        assert_eq!(full.text, text, "an intact journal salvages whole");
        assert!(full.sealed);
        assert_eq!(full.steps, run.journal.steps.len());
        assert_eq!(full.dropped_bytes, 0);
        drop(store);

        // Tear mid-way through the last step block's RNG line: the
        // whole block (and the footer after it) goes.
        let cut = text.rfind("\ng ").expect("has an RNG line") + 3;
        let torn = salvage_journal(&text.as_bytes()[..cut]);
        assert!(!torn.sealed);
        assert!(torn.steps < run.journal.steps.len());
        assert!(torn.dropped_bytes > 0);
        let parsed = torn.journal.expect("salvage parses");
        assert_eq!(parsed.steps.len(), torn.steps);
        assert_eq!(parsed.steps[..], run.journal.steps[..torn.steps]);
    }

    #[test]
    fn salvage_drops_duplicated_last_block() {
        let (_, run) = stored_run(11, 0);
        let rec = run.journal.steps.last().expect("has steps");
        let mut text = journal::header_text(&run.journal.scenario);
        for rec in &run.journal.steps {
            text.push_str(&journal::step_block(rec));
        }
        text.push_str(&journal::step_block(rec)); // duplicated append
        let salv = salvage_journal(text.as_bytes());
        assert_eq!(salv.steps, run.journal.steps.len());
        assert_eq!(salv.dropped_duplicates, 1);
        let parsed = salv.journal.expect("parses");
        assert_eq!(parsed.steps[..], run.journal.steps[..]);
    }

    #[test]
    fn salvage_of_garbage_is_empty() {
        for raw in [
            &b""[..],
            b"rfly-journ",
            b"rfly-journal v1\n",
            b"rfly-journal v1\nscenario relays=",
            b"not a journal at all\n",
        ] {
            let salv = salvage_journal(raw);
            assert_eq!(salv.steps, 0);
            assert!(salv.text.is_empty() || salv.journal.is_some());
            if raw.len() < 17 || !raw.ends_with(b"\n") {
                assert!(salv.journal.is_none());
            }
        }
    }

    #[test]
    fn recover_from_truncated_journal_is_bit_identical() {
        let paths = StorePaths::default();
        let (reference, run) = stored_run(42, 3);
        let text = run.journal.to_text();
        // Crash after an arbitrary byte prefix of the journal, with the
        // checkpoint as of step 3 durable.
        let scn = Scenario::small(42);
        let storm = FaultSchedule::storm(42, 2, 12);
        let mut crashed = MemStorage::new();
        crashed
            .append(&paths.journal, &text.as_bytes()[..text.len() / 2])
            .expect("seed torn journal");
        let recovered =
            recover_stored(&scn, &storm, &mut crashed, &paths, 3).expect("recovery completes");
        assert_eq!(recovered.journal, run.journal);
        assert_eq!(crashed, reference, "recovered storage is bit-identical");
    }

    #[test]
    fn recover_from_empty_storage_runs_from_scratch() {
        let paths = StorePaths::default();
        let (reference, run) = stored_run(7, 4);
        let scn = Scenario::small(7);
        let storm = FaultSchedule::storm(7, 2, 12);
        let mut empty = MemStorage::new();
        let recovered =
            recover_stored(&scn, &storm, &mut empty, &paths, 4).expect("recovery completes");
        assert_eq!(recovered.journal, run.journal);
        assert_eq!(empty, reference);
    }

    #[test]
    fn recover_rejects_a_whole_seal_that_disagrees() {
        let paths = StorePaths::default();
        let (reference, run) = stored_run(11, 3);
        let text = run.journal.to_text();
        let seal = run.journal.sealed.expect("sealed");
        let steps = format!("end steps={} ", seal.steps);
        // A seal covering one step fewer than the journal holds, and a
        // seal with the right count but another duration: neither is a
        // crash state, so both are corruption.
        for bad in [
            text.replace(&steps, &format!("end steps={} ", seal.steps - 1)),
            text.replace(
                &journal::seal_text(&seal),
                &journal::seal_text(&Seal {
                    duration_s: seal.duration_s + 1.0,
                    ..seal
                }),
            ),
        ] {
            assert_ne!(bad, text);
            assert!(salvage_journal(bad.as_bytes()).sealed, "the seal parses");
            let mut store = reference.clone();
            store
                .write_atomic(&paths.journal, bad.as_bytes())
                .expect("plant");
            let err = recover_stored(
                &Scenario::small(11),
                &FaultSchedule::storm(11, 2, 12),
                &mut store,
                &paths,
                3,
            )
            .expect_err("a wrong seal must be rejected");
            assert!(err.contains("seal"), "{err}");
        }
    }

    #[test]
    fn recover_rejects_foreign_scenario() {
        let paths = StorePaths::default();
        let (mut store, _) = stored_run(11, 3);
        let scn = Scenario::small(12); // different seed → different line
        let storm = FaultSchedule::storm(11, 2, 12);
        let err = recover_stored(&scn, &storm, &mut store, &paths, 3)
            .expect_err("scenario mismatch must be rejected");
        assert!(err.contains("different scenario"), "{err}");
    }
}
