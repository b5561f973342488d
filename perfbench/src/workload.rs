//! What every workload provides, and the pieces their traced loops
//! share.

use rfly_reader::inventory::{InventoryController, Medium, RoundStats};

use crate::trace::{count, span};

/// Gen2 rounds stop at this many slots (`InventoryController::run_round`'s
/// runaway guard); a round that reaches it is counted as capped.
const MAX_SLOTS_PER_ROUND: usize = 8192;

/// What one checked operation contributed.
pub struct Sample {
    /// Simulated work units done (tag-servings, SAR phasor
    /// evaluations, or durable records).
    pub work: f64,
    /// Simulated read rate: tags inventoried over tags present.
    pub read_rate: f64,
    /// Simulated localization error against ground truth, metres.
    pub error_m: Option<f64>,
}

/// One closed-loop operation type.
///
/// `prepare` builds an operation's inputs (untimed), `run` performs it
/// through the program's own entry points (timed), `run_traced`
/// performs it through the same entry points' public calls rebuilt
/// with spans, `check` validates an output, and `same` proves the
/// traced output equals the untraced one.
pub trait Workload {
    type Input;
    type Output;

    fn prepare(&self, op: usize) -> Result<Self::Input, String>;
    fn run(&self, input: Self::Input) -> Result<Self::Output, String>;
    fn run_traced(&self, input: Self::Input) -> Result<Self::Output, String>;
    fn check(&self, out: &Self::Output) -> Result<Sample, String>;
    fn same(&self, untraced: &Self::Output, traced: &Self::Output) -> Result<(), String>;
}

/// The per-operation input seed: operations differ, and the same
/// workload seed always yields the same sequence.
pub fn site_seed(seed: u64, op: usize) -> u64 {
    let mut z = seed ^ (op as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One traced `run_round`, with its slot statistics counted.
pub fn reader_round(controller: &mut InventoryController, medium: &mut dyn Medium) -> RoundStats {
    let stats = span("reader.round", || controller.run_round(medium));
    let slots = stats.empty + stats.singles + stats.collisions;
    count("reader.slots_empty", stats.empty as f64);
    count("reader.slots_single", stats.singles as f64);
    count("reader.slots_collision", stats.collisions as f64);
    if slots >= MAX_SLOTS_PER_ROUND {
        count("reader.slot_cap_rounds", 1.0);
    }
    stats
}
