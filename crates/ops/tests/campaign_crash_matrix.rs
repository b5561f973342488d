//! The campaign store under the chaos crash matrix: every storage
//! operation of a stored campaign — including ticks that rotate,
//! kill, and repartition the fleet — is crashed in every fault mode,
//! and recovery must leave the durable files bit-identical to an
//! uncrashed campaign's — plus the byte-level truncation property
//! (salvage is exactly the longest complete-block prefix at *every*
//! cut) and a planted-bug negative test proving the matrix catches a
//! recovery that keeps the torn tail.

use rfly_channel::geometry::Point2;
use rfly_chaos::{verify_recovery, MemStorage, Recovered, Storage};
use rfly_dsp::units::Seconds;
use rfly_ops::{
    recover_stored_campaign, run_stored_campaign, salvage_campaign_log, CampaignPaths, OpsConfig,
};
use rfly_sim::scene::Scene;

const EVERY: usize = 4;

fn docked_scene() -> Scene {
    let mut scene = Scene::warehouse(16.0, 12.0, 2);
    scene.add_dock(Point2::new(1.0, 11.0), 2);
    scene
}

/// A 2-hour campaign on a standby-short roster: long enough for
/// rotations, deaths, and a repartition — so the matrix crashes
/// storage mid-rotation, not just on quiet ticks.
fn config() -> OpsConfig {
    let mut cfg = OpsConfig::small(11);
    cfg.duration = Seconds::new(7200.0);
    cfg
}

#[test]
fn campaign_store_recovers_at_every_crash_point() {
    let scene = docked_scene();
    let cfg = config();
    let paths = CampaignPaths::default();

    // The reference campaign must actually exercise the interesting
    // paths, or the matrix proves nothing about mid-rotation crashes.
    let mut plain = MemStorage::new();
    let report = run_stored_campaign(&scene, &cfg, &mut plain, &paths, EVERY)
        .expect("reference campaign completes");
    assert!(!report.rotations.is_empty(), "campaign must rotate");
    assert!(report.deaths > 0, "campaign must kill a relay");
    assert!(report.repartitions > 0, "campaign must repartition");

    let mut workload =
        |s: &mut dyn Storage| run_stored_campaign(&scene, &cfg, s, &paths, EVERY).map(|_| ());
    let mut recover = |mut survivor: MemStorage| -> Result<Recovered, String> {
        recover_stored_campaign(&scene, &cfg, &mut survivor, &paths, EVERY)?;
        Ok(Recovered {
            storage: survivor,
            lost_unacked: 0,
        })
    };
    let report = verify_recovery(&mut workload, &mut recover, 11).expect("harness ok");
    assert!(
        report.crash_points > report.ops * 3,
        "matrix too small: {} points over {} ops",
        report.crash_points,
        report.ops
    );
    assert!(
        report.all_recovered(),
        "unrecovered crash point: {:?}",
        report.failures.first()
    );
    assert_eq!(
        report.exact, report.crash_points,
        "recovery re-executes lost ticks, so every point must be exact"
    );
}

fn reference_log() -> Vec<u8> {
    let mut store = MemStorage::new();
    let paths = CampaignPaths::default();
    run_stored_campaign(&docked_scene(), &config(), &mut store, &paths, EVERY)
        .expect("reference campaign completes");
    store.read(&paths.log).expect("log exists")
}

/// The block-boundary offsets of a campaign log: the end of the header
/// (magic + config lines), the end of every tick block, and the end of
/// the seal — computed independently of the salvage code.
fn block_boundaries(text: &str) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut offset = 0usize;
    for (i, line) in text.split_inclusive('\n').enumerate() {
        offset += line.len();
        let first = line.split_whitespace().next().unwrap_or("");
        if i == 1 || (i > 1 && (first == "e" || first == "end")) {
            boundaries.push(offset);
        }
    }
    boundaries
}

#[test]
fn salvage_is_longest_complete_prefix_at_every_truncation() {
    let cfg = config();
    let raw = reference_log();
    let text = String::from_utf8(raw.clone()).expect("utf8");
    let boundaries = block_boundaries(&text);
    assert!(boundaries.len() > 3, "need several blocks to be meaningful");

    for cut in 0..=raw.len() {
        let salv = salvage_campaign_log(&raw[..cut], &cfg);
        // The longest boundary at or before the cut is exactly what
        // salvage must keep; before the header completes, nothing.
        let keep = boundaries
            .iter()
            .copied()
            .filter(|&b| b <= cut)
            .max()
            .unwrap_or(0);
        assert_eq!(
            salv.text.as_bytes(),
            &raw[..keep],
            "cut at byte {cut}: salvage must keep exactly the longest \
             complete-block prefix ({keep} bytes)"
        );
        assert_eq!(salv.dropped_bytes, cut - keep, "cut at byte {cut}");
        assert_eq!(salv.header_ok, keep > 0, "cut at byte {cut}");
        assert_eq!(
            salv.sealed.is_some(),
            keep == raw.len(),
            "cut at byte {cut}"
        );
        let blocks = boundaries.iter().filter(|&&b| b <= keep).count();
        let expected_blocks = blocks.saturating_sub(1 + usize::from(keep == raw.len()));
        assert_eq!(salv.blocks.len(), expected_blocks, "cut at byte {cut}");
        assert!(!salv.foreign_config, "cut at byte {cut}");
    }
}

#[test]
fn planted_bug_keeping_torn_tail_is_caught_by_matrix() {
    let scene = docked_scene();
    let cfg = config();
    let paths = CampaignPaths::default();
    let mut workload =
        |s: &mut dyn Storage| run_stored_campaign(&scene, &cfg, s, &paths, EVERY).map(|_| ());
    // Broken recovery: resumes correctly from the salvage point but
    // "forgets" to truncate — the torn tail stays in the durable log
    // with the re-executed blocks appended after it.
    let mut buggy = |survivor: MemStorage| -> Result<Recovered, String> {
        let raw = survivor.read(&paths.log).unwrap_or_default();
        let salv = salvage_campaign_log(&raw, &cfg);
        let mut scratch = survivor.clone();
        recover_stored_campaign(&scene, &cfg, &mut scratch, &paths, EVERY)?;
        let mut storage = survivor;
        let full = scratch.read(&paths.log).map_err(|e| e.to_string())?;
        let suffix = full.get(salv.text.len()..).unwrap_or_default();
        storage
            .append(&paths.log, suffix)
            .map_err(|e| e.to_string())?;
        let ck = scratch.read(&paths.checkpoint).map_err(|e| e.to_string())?;
        storage
            .write_atomic(&paths.checkpoint, &ck)
            .map_err(|e| e.to_string())?;
        Ok(Recovered {
            storage,
            lost_unacked: 0,
        })
    };
    let report = verify_recovery(&mut workload, &mut buggy, 11).expect("harness ok");
    assert!(
        !report.all_recovered(),
        "the matrix must catch a salvage that keeps the torn tail"
    );
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.point.kind.name() == "torn"),
        "failures must include torn-write points: {:?}",
        report.failures.first()
    );
}
