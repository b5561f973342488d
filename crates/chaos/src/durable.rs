//! The durable-log engine: the one crash-consistency protocol that both
//! persisted jobs (the replay mission journal, the ops campaign log)
//! run on, over a [`Storage`].
//!
//! A job keeps an append-only **log** — a magic line, an identity line,
//! one block per executed step (its last line starts with `e`), and an
//! `end …` seal — and a **checkpoint** replaced whole with
//! [`Storage::write_atomic`] every `every` steps (`0` = only at the end)
//! and once at the end. [`run`] writes both; [`salvage`] cuts raw log
//! bytes to the longest prefix of complete blocks; [`recover`] resumes
//! a crashed run and leaves the files bit-identical to an uncrashed
//! run's. A re-executed block or seal whose bytes differ from the
//! durable ones, or a whole seal that disagrees with the salvaged block
//! count, cannot come from a crash: recovery reports it as `Err`.

use crate::storage::{Storage, StorageError};

/// How a log's header, blocks and seal read back.
pub trait LogCodec {
    /// One step's record.
    type Block;
    /// The decoded seal.
    type Seal;
    /// What the header's identity line decodes to.
    type Id;
    /// The header's first line.
    const MAGIC: &'static str;

    /// Decodes the (trimmed) identity line: `Ok(None)` when it is no
    /// header (the log salvages empty), `Err(why)` when it names another
    /// job (recovery refuses to resume).
    fn identity(&self, line: &str) -> Result<Option<Self::Id>, String>;
    /// A block's text, ending in its `e` line.
    fn encode_block(&self, block: &Self::Block) -> String;
    /// Decodes one block's text; `None` when malformed.
    fn decode_block(&self, text: &str) -> Option<Self::Block>;
    /// A block's step index.
    fn index(block: &Self::Block) -> usize;
    /// Decodes the (trimmed) seal line at 1-indexed `line_no` into
    /// `(blocks it covers, seal)`; `None` when malformed.
    fn decode_seal(&self, line: &str, line_no: usize) -> Option<(usize, Self::Seal)>;
}

/// A job the engine runs, checkpoints and recovers.
pub trait Durable {
    /// The log codec.
    type Codec: LogCodec;
    /// The live job.
    type State;
    /// A decoded checkpoint.
    type Checkpoint;
    /// What a finished job returns.
    type Done;

    /// The log codec.
    fn codec(&self) -> &Self::Codec;
    /// The log header (magic and identity lines).
    fn header_text(&self) -> String;
    /// The job at step zero.
    fn start(&self) -> Result<Self::State, String>;
    /// Executes the next step; `None` once the job is finished.
    fn step(&self, state: &mut Self::State) -> Result<Option<Block<Self>>, String>;
    /// The checkpoint text of the current state.
    fn checkpoint_text(&self, state: &Self::State) -> String;
    /// Decodes checkpoint text into `(next step, checkpoint)`.
    fn decode_checkpoint(&self, text: &str) -> Option<(usize, Self::Checkpoint)>;
    /// The job restored at a checkpoint.
    fn restore(&self, checkpoint: Self::Checkpoint) -> Result<Self::State, String>;
    /// Folds in a durable block a restored state has already passed.
    fn absorb(&self, state: &mut Self::State, block: Block<Self>);
    /// Ends the job: `(seal line, final checkpoint text, result)`.
    fn finish(&self, state: Self::State) -> Result<(String, String, Self::Done), String>;
}

/// A job's block type.
pub type Block<J> = <<J as Durable>::Codec as LogCodec>::Block;

/// Where a job keeps its two files.
#[derive(Debug, Clone, Copy)]
pub struct Files<'a> {
    /// The append-only log.
    pub log: &'a str,
    /// The atomically replaced checkpoint.
    pub checkpoint: &'a str,
}

/// What [`salvage`] kept of a raw log.
pub struct Salvage<C: LogCodec> {
    /// Header, complete blocks and seal; empty when the header is lost.
    pub text: String,
    /// The header identity, when the header survived.
    pub id: Option<C::Id>,
    /// Why the header names another job, when it does.
    pub foreign: Option<String>,
    /// The decoded blocks, in step order.
    pub blocks: Vec<C::Block>,
    /// The seal with its line and the blocks it covers, when whole.
    pub seal: Option<(usize, usize, C::Seal)>,
    /// Raw bytes not carried into `text`.
    pub dropped_bytes: usize,
    /// Duplicated (double-landed) blocks skipped.
    pub dropped_duplicates: usize,
    /// Where the header, then each block, ends in `text`.
    ends: Vec<usize>,
}

impl<C: LogCodec> Salvage<C> {
    fn block_text(&self, i: usize) -> Option<&str> {
        self.text.get(*self.ends.get(i)?..*self.ends.get(i + 1)?)
    }
}

/// Cuts raw log bytes to the longest valid prefix, decoding each block
/// once: a torn tail line, a block without its `e` line, a malformed or
/// out-of-sequence block and anything after the seal are dropped, and a
/// block repeating the previous one byte for byte is skipped. Never
/// fails: unusable bytes salvage empty.
pub fn salvage<C: LogCodec>(codec: &C, raw: &[u8]) -> Salvage<C> {
    let raw_text = String::from_utf8_lossy(raw);
    let mut out = Salvage {
        text: String::new(),
        id: None,
        foreign: None,
        blocks: Vec::new(),
        seal: None,
        dropped_bytes: 0,
        dropped_duplicates: 0,
        ends: Vec::new(),
    };
    let mut pending = String::new();
    for (i, line) in raw_text.split_inclusive('\n').enumerate() {
        let trimmed = line.trim();
        if !line.ends_with('\n') || out.seal.is_some() {
            break;
        } else if out.text.is_empty() {
            if trimmed != C::MAGIC {
                break;
            }
            out.text.push_str(line);
            continue;
        } else if out.id.is_none() {
            match codec.identity(trimmed) {
                Ok(Some(id)) => out.id = Some(id),
                Ok(None) => break,
                Err(why) => {
                    out.foreign = Some(why);
                    break;
                }
            }
            out.text.push_str(line);
            out.ends.push(out.text.len());
            continue;
        }
        let first = trimmed.split_whitespace().next().unwrap_or("");
        if pending.is_empty() && first == "end" {
            let Some((covers, seal)) = codec.decode_seal(trimmed, i + 1) else {
                break;
            };
            out.text.push_str(line);
            out.seal = Some((i + 1, covers, seal));
            continue;
        }
        pending.push_str(line);
        if first != "e" {
            continue;
        }
        let n = out.blocks.len();
        if n > 0 && out.block_text(n - 1) == Some(pending.as_str()) {
            out.dropped_duplicates += 1;
        } else {
            match codec.decode_block(&pending) {
                Some(block) if C::index(&block) == n => out.blocks.push(block),
                _ => break,
            }
            out.text.push_str(&pending);
            out.ends.push(out.text.len());
        }
        pending.clear();
    }
    if out.id.is_none() {
        out.text.clear();
    }
    out.dropped_bytes = raw.len().saturating_sub(out.text.len());
    out
}

fn io(op: &str, e: StorageError) -> String {
    format!("{op}: {e}")
}

/// Steps `state` to the end: each block is appended, or byte-compared
/// against its copy in `durable`; the checkpoint is written every
/// `every` steps; then the seal is appended (or compared) and the final
/// checkpoint written.
fn drive<J: Durable>(
    job: &J,
    mut state: J::State,
    durable: Option<&Salvage<J::Codec>>,
    storage: &mut dyn Storage,
    files: Files<'_>,
    every: usize,
) -> Result<J::Done, String> {
    while let Some(block) = job.step(&mut state)? {
        let i = <J::Codec as LogCodec>::index(&block);
        let text = job.codec().encode_block(&block);
        match durable.and_then(|s| s.block_text(i)) {
            Some(old) if old != text => {
                return Err(format!(
                    "recovery diverged from the durable log at step {i}"
                ));
            }
            Some(_) => {}
            None => {
                storage
                    .append(files.log, text.as_bytes())
                    .map_err(|e| io("log block append", e))?;
                rfly_obs::counter_add("durable.blocks_appended", 1);
            }
        }
        if every != 0 && (i + 1).is_multiple_of(every) {
            storage
                .write_atomic(files.checkpoint, job.checkpoint_text(&state).as_bytes())
                .map_err(|e| io("checkpoint write", e))?;
        }
    }
    let (seal, checkpoint, done) = job.finish(state)?;
    let durable_seal = durable.and_then(|s| s.seal.as_ref().and(s.text.get(*s.ends.last()?..)));
    match durable_seal {
        Some(old) if old != seal => {
            return Err(format!(
                "durable seal {:?} disagrees with the recovered {:?}",
                old.trim(),
                seal.trim()
            ));
        }
        Some(_) => {}
        None => storage
            .append(files.log, seal.as_bytes())
            .map_err(|e| io("log seal append", e))?,
    }
    storage
        .write_atomic(files.checkpoint, checkpoint.as_bytes())
        .map_err(|e| io("final checkpoint write", e))?;
    Ok(done)
}

/// Runs `job` to the end through `storage`: header, one block per step
/// and the seal as appends, the checkpoint every `every` steps and at
/// the end. A storage error (an injected crash) aborts as `Err`.
pub fn run<J: Durable>(
    job: &J,
    storage: &mut dyn Storage,
    files: Files<'_>,
    every: usize,
) -> Result<J::Done, String> {
    let state = job.start()?;
    storage
        .append(files.log, job.header_text().as_bytes())
        .map_err(|e| io("log header append", e))?;
    drive(job, state, None, storage, files, every)
}

/// Recovers a crashed [`run`] of `job` from what `storage` holds and
/// runs it to the end: salvage the log and write the kept prefix back
/// (so a second crash cannot resurrect the torn tail), restore from the
/// checkpoint when it is not ahead of the salvaged blocks (else start
/// from zero) and absorb the blocks it skipped, re-execute every
/// durable step byte-compared against its block, append the rest live,
/// and seal (or byte-compare the surviving seal).
pub fn recover<J: Durable>(
    job: &J,
    storage: &mut dyn Storage,
    files: Files<'_>,
    every: usize,
) -> Result<J::Done, String> {
    rfly_obs::counter_add("durable.recoveries", 1);
    let raw = match storage.read(files.log) {
        Ok(bytes) => bytes,
        Err(StorageError::NotFound(_)) => Vec::new(),
        Err(e) => return Err(io("log read", e)),
    };
    let mut salv = salvage(job.codec(), &raw);
    if let Some(why) = salv.foreign.take() {
        return Err(why);
    }
    let kept = salv.blocks.len();
    if let Some((line, covers, _)) = salv.seal.as_ref().filter(|s| s.1 != kept) {
        return Err(format!(
            "log line {line}: the seal covers {covers} steps but {kept} survived"
        ));
    }
    rfly_obs::counter_add("durable.salvaged_blocks", kept as u64);
    rfly_obs::counter_add("durable.salvage_dropped_bytes", salv.dropped_bytes as u64);
    let base = match salv.id {
        Some(_) => salv.text.clone(),
        None => job.header_text(),
    };
    storage
        .write_atomic(files.log, base.as_bytes())
        .map_err(|e| io("log truncate", e))?;
    let checkpoint = storage
        .read(files.checkpoint)
        .ok()
        .and_then(|bytes| String::from_utf8(bytes).ok())
        .and_then(|text| job.decode_checkpoint(&text))
        .filter(|(next, _)| *next <= kept);
    let state = match checkpoint {
        Some((next, ck)) => {
            let mut state = job.restore(ck)?;
            for block in salv.blocks.drain(..next) {
                job.absorb(&mut state, block);
            }
            state
        }
        None => job.start()?,
    };
    drive(job, state, Some(&salv), storage, files, every)
}
