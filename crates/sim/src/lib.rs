#![deny(missing_docs)]
//! # rfly-sim — end-to-end RFly system simulation
//!
//! Glues every substrate into runnable experiments: warehouse [`scene`]s,
//! a phasor-level [`world`] whose single propagation core
//! ([`medium::WorldMedium`]) implements the reader's `Medium` trait
//! in every topology (direct, single relay, fleet) — cross-cutting
//! behaviors stack on it as `rfly_reader::medium` layers — plus
//! high-level [`endtoend`] scenarios
//! (fly → inventory → disentangle → localize), a seeded Monte-Carlo
//! [`experiment`] runner, [`metrics`], and tabular [`report`] output for
//! the per-figure benchmark binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod endtoend;
pub mod experiment;
pub mod fleet;
pub mod medium;
pub mod metrics;
pub mod motion;
pub mod report;
pub mod sample_link;
pub mod scene;
pub mod throughput;
pub mod world;

pub use endtoend::{Scenario, ScenarioBuilder, ScenarioOutcome};
pub use fleet::{FleetMedium, FleetRelay};
pub use medium::{FleetRf, WorldMedium};
/// The deterministic work pool lives in `rfly-core` (the lowest crate
/// that fans work out); re-exported here so every caller reaches the
/// same process-wide width.
pub use rfly_core::pool;
pub use rfly_core::pool::{global_workers, set_global_workers, Pool, PoolError};
pub use scene::Scene;
pub use world::PhasorWorld;
