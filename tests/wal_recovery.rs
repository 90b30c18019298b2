//! Crash-point recovery differential suite.
//!
//! The contract under test is the durability half of the serving layer's
//! crash-safety story: a serving engine logging through the write-ahead
//! log can lose its process at **any byte** of the log, and
//! `recover(checkpoint, wal_prefix)` plus replay of the lost suffix
//! rebuilds labels, handles, per-cluster statistic bits and objective
//! bits **byte-identical** to the run that never crashed. Pinned under
//! pruning off and bounds (both against the unpruned run), at every frame
//! boundary and mid-frame; plus a bit-flip sweep
//! asserting corruption anywhere in the log or checkpoint surfaces as a
//! checked error or reported damage — never a panic, never silent
//! divergence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucpc::core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc::core::serving::{ServingConfig, ServingResponse, ServingUcpc};
use ucpc::core::wal::{
    apply_record, recover, scan_wal, Recovery, SharedVecIo, WalError, WalScan, WAL_HEADER_LEN,
};
use ucpc::core::PruningConfig;
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

/// One scripted serving mutation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Commit(f64, f64),
    /// Remove the `r`-th (mod count) committed handle — possibly stale,
    /// which the serving layer answers without logging.
    Remove(usize),
    Stabilize(usize),
}

fn script(seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|_| match rng.gen_range(0..10u8) {
            0..=5 => Op::Commit(rng.gen_range(-10.0..10.0), rng.gen_range(0.05..0.8)),
            6..=7 => Op::Remove(rng.gen_range(0..64)),
            _ => Op::Stabilize(rng.gen_range(1..3)),
        })
        .collect()
}

fn obj(c: f64, s: f64) -> UncertainObject {
    UncertainObject::new(vec![
        UnivariatePdf::normal(c, s),
        UnivariatePdf::uniform_centered(-c * 0.5, s + 0.1),
    ])
}

/// A settled live window: what the checkpoint captures.
fn settled(pruning: PruningConfig) -> IncrementalUcpc {
    let mut engine = IncrementalUcpc::new(2, 3).unwrap();
    engine.set_pruning(pruning);
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..10 {
        engine
            .insert(&obj(rng.gen_range(-10.0..10.0), 0.3))
            .unwrap();
    }
    engine.stabilize(3);
    engine
}

/// Everything one uninterrupted logged serving run leaves behind: the
/// checkpoint it started from, the full log it wrote, and the final
/// state the recovery at every cut must reproduce.
struct LoggedRun {
    checkpoint: Vec<u8>,
    wal: Vec<u8>,
    serving: ServingUcpc,
}

impl LoggedRun {
    /// The uncut log's frames (records borrow `wal`).
    fn scan(&self) -> WalScan<'_> {
        scan_wal(&self.wal).expect("own log scans")
    }
}

/// Runs the script through a serving engine logging into a shared sink.
/// Mixed micro-batches (batch 4) and a stabilize cadence make the log
/// carry all three frame kinds, including cadence stabilizes.
fn logged_run(pruning: PruningConfig) -> LoggedRun {
    let engine = settled(pruning);
    let checkpoint = engine.snapshot();
    let sink = SharedVecIo::new();
    let mut serving = ServingUcpc::over(
        engine,
        ServingConfig {
            batch: 4,
            queue_capacity: 16,
            deadline: None,
            stabilize_every: 5,
            stabilize_passes: 2,
            top_k: 2,
            ..ServingConfig::default()
        },
    );
    serving.detach_wal();
    serving.attach_wal(sink.clone()).unwrap();
    let mut handles: Vec<ObjectHandle> = Vec::new();
    let drain = |serving: &mut ServingUcpc, handles: &mut Vec<ObjectHandle>| {
        serving.flush();
        while let Some((_, resp)) = serving.pop_response() {
            match resp {
                ServingResponse::Committed { handle, .. } => handles.push(handle),
                ServingResponse::Failed { error } => panic!("faultless sink failed: {error}"),
                _ => {}
            }
        }
    };
    let mut queued = 0usize;
    for op in script(29, 60) {
        match op {
            Op::Commit(c, s) => {
                serving.submit_commit_object(&obj(c, s)).unwrap();
            }
            Op::Remove(r) if !handles.is_empty() => {
                serving.submit_remove(handles[r % handles.len()]).unwrap();
            }
            Op::Remove(_) => continue,
            Op::Stabilize(p) => {
                serving.submit_stabilize(p).unwrap();
            }
        }
        queued += 1;
        if queued == 4 {
            queued = 0;
            drain(&mut serving, &mut handles);
        }
    }
    drain(&mut serving, &mut handles);
    assert!(serving.wal().unwrap().poisoned().is_none());
    let wal = sink.bytes();
    let scan = scan_wal(&wal).expect("own log scans");
    assert!(scan.damage.is_none(), "uncut log reported damage");
    assert_eq!(scan.records.len() as u64, serving.wal().unwrap().frames());
    assert!(
        scan.records.len() > 20,
        "script too small to exercise recovery"
    );
    LoggedRun {
        checkpoint,
        wal,
        serving,
    }
}

/// Every prefix length worth cutting at: 0 (crash before the header),
/// inside the header, every frame boundary, and the midpoint of every
/// frame.
fn cut_points(scan: &WalScan, wal_len: usize) -> Vec<usize> {
    let mut cuts = vec![0, 1, WAL_HEADER_LEN / 2, WAL_HEADER_LEN - 1, WAL_HEADER_LEN];
    let mut prev = WAL_HEADER_LEN as u64;
    for &end in &scan.frame_ends {
        cuts.push(((prev + end) / 2) as usize);
        cuts.push(end as usize);
        prev = end;
    }
    debug_assert_eq!(prev as usize, wal_len);
    cuts
}

#[test]
fn recovery_at_every_cut_point_is_bit_identical_across_the_matrix() {
    let oracle = logged_run(PruningConfig::Off);
    let reference = oracle.serving.engine();
    for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
        let what = format!("{pruning:?}");
        let run = logged_run(pruning);
        assert_eq!(run.wal, oracle.wal, "logged frames diverged: {what}");
        let scan = run.scan();
        for cut in cut_points(&scan, run.wal.len()) {
            let rec = recover(&run.checkpoint, &run.wal[..cut])
                .unwrap_or_else(|e| panic!("{what}, cut {cut}: {e}"));
            // A cut on a frame boundary (or before any log bytes) is a
            // clean prefix; anything else must be reported as damage
            // with the salvage point right at the last boundary.
            let boundary =
                cut == 0 || cut == WAL_HEADER_LEN || scan.frame_ends.contains(&(cut as u64));
            if boundary {
                assert!(rec.damage.is_none(), "{what}, cut {cut}: {:?}", rec.damage);
                assert_eq!(rec.valid_bytes as usize, cut, "{what}, cut {cut}");
            } else {
                assert!(rec.damage.is_some(), "{what}, cut {cut}: damage unreported");
                assert!(rec.valid_bytes as usize <= cut, "{what}, cut {cut}");
            }
            // Finish the script: replay the records the crash cut off.
            let mut engine = rec.engine;
            for r in &scan.records[rec.frames_applied as usize..] {
                apply_record(&mut engine, r).expect("suffix replays");
            }
            assert_eq!(
                engine.live_labels(),
                reference.live_labels(),
                "labels/handles diverged: {what}, cut {cut}"
            );
            assert_eq!(
                engine.cluster_stats(),
                reference.cluster_stats(),
                "cluster statistic bits diverged: {what}, cut {cut}"
            );
            assert_eq!(
                engine.objective().to_bits(),
                reference.objective().to_bits(),
                "objective bits diverged: {what}, cut {cut}"
            );
        }
    }
}

#[test]
fn corruption_anywhere_is_a_checked_error_or_reported_damage() {
    let run = logged_run(PruningConfig::Bounds);
    // Flip bits across the whole log: CRC-32 catches every single-bit
    // flip inside a frame or the header, and flips in the magic/version
    // prefix are hard errors — recovery must never panic and never
    // silently accept a flipped log as fully intact.
    for pos in 0..run.wal.len() {
        let bit = (pos % 8) as u8;
        let mut bent = run.wal.clone();
        bent[pos] ^= 1 << bit;
        match recover(&run.checkpoint, &bent) {
            Err(_) => {}
            Ok(rec) => assert!(
                rec.damage.is_some(),
                "flip at byte {pos} bit {bit} went undetected"
            ),
        }
    }
    // Flip bits across the checkpoint: every byte past the 12-byte
    // head is under a chunk checksum, and head flips fail the magic or
    // version check — always a checked snapshot error.
    for pos in (0..run.checkpoint.len()).step_by(3) {
        let bit = (pos % 8) as u8;
        let mut bent = run.checkpoint.clone();
        bent[pos] ^= 1 << bit;
        assert!(
            recover(&bent, &run.wal).is_err(),
            "checkpoint flip at byte {pos} bit {bit} went undetected"
        );
    }
}

#[test]
fn recovery_from_a_faulted_writer_matches_the_applied_prefix() {
    // Drive a serving engine into an injected ENOSPC mid-flush: the
    // serving layer refuses the unlogged mutations (log-before-apply), and
    // recovery from the torn sink must reproduce exactly the engine the
    // survivor is left holding.
    let engine = settled(PruningConfig::Bounds);
    let checkpoint = engine.snapshot();
    let mut serving = ServingUcpc::over(
        engine,
        ServingConfig {
            batch: 8,
            queue_capacity: 16,
            deadline: None,
            stabilize_every: 0,
            stabilize_passes: 2,
            top_k: 2,
            ..ServingConfig::default()
        },
    );
    serving.detach_wal();
    // Room for the header and exactly two commit frames plus a torn sliver
    // of the third; the rest of the batch hits the wall.
    let sink = SharedVecIo::limited(WAL_HEADER_LEN + 2 * (4 + 1 + 2 * 2 * 8 + 4) + 7);
    serving.attach_wal(sink.clone()).unwrap();
    for c in [0.0, 1.0, 2.0, 3.0, 4.0] {
        serving.submit_commit_object(&obj(c, 0.3)).unwrap();
    }
    serving.flush();
    let mut failed = 0;
    while let Some((_, resp)) = serving.pop_response() {
        if let ServingResponse::Failed { error } = resp {
            assert!(
                matches!(error, WalError::Io(_) | WalError::Poisoned(_)),
                "{error:?}"
            );
            failed += 1;
        }
    }
    assert_eq!(failed, 3, "commits past the wall must be refused");
    let rec = recover(&checkpoint, &sink.bytes()).unwrap();
    assert!(rec.damage.is_some(), "torn tail must be reported");
    assert_eq!(rec.frames_applied, 2);
    assert_eq!(
        rec.engine.live_labels(),
        serving.engine().live_labels(),
        "recovered state diverged from the survivor"
    );
    assert_eq!(
        rec.engine.objective().to_bits(),
        serving.engine().objective().to_bits()
    );
}

#[test]
fn damage_report_carries_offset_and_frame_index_of_first_damaged_frame() {
    let run = logged_run(PruningConfig::Bounds);
    // Damage frame 5 (0-based): its bytes span frame_ends[4]..frame_ends[5].
    let frame_ends = run.scan().frame_ends;
    let start = frame_ends[4];
    let end = frame_ends[5];

    // Mid-frame truncation: the report must name the damaged frame's own
    // byte offset and index, not just flag "damaged somewhere".
    let cut = ((start + end) / 2) as usize;
    let scan = scan_wal(&run.wal[..cut]).expect("valid prefix scans");
    let damage = scan.damage.expect("torn frame must be reported");
    assert_eq!(damage.offset, start, "offset of the first damaged frame");
    assert_eq!(damage.frame_index, 5, "index of the first damaged frame");
    assert_eq!(scan.valid_bytes, start, "salvage stops at the damage");
    assert_eq!(scan.records.len(), 5);

    // Mid-frame corruption in an otherwise complete log: same report,
    // and the intact suffix after the flip is NOT resurrected (a frame
    // boundary can't be trusted past a corrupt frame).
    let mut bent = run.wal.clone();
    let flip = ((start + end) / 2) as usize;
    bent[flip] ^= 0x40;
    let scan = scan_wal(&bent).expect("corrupt frame is damage, not an error");
    let damage = scan.damage.expect("corrupt frame must be reported");
    assert_eq!(damage.offset, start);
    assert_eq!(damage.frame_index, 5);
    assert_eq!(scan.records.len(), 5, "no frames past the corruption");

    // The same report surfaces through full recovery.
    let rec = recover(&run.checkpoint, &bent).expect("recovery salvages the prefix");
    let damage = rec.damage.expect("recovery reports the damage");
    assert_eq!((damage.offset, damage.frame_index), (start, 5));
}

#[test]
fn checkpoint_rotation_under_injected_sync_failure_is_atomic() {
    use ucpc::core::fault::IoFaultPlan;
    use ucpc::core::wal::VecIo;

    let engine = settled(PruningConfig::Bounds);
    let mut serving = ServingUcpc::over(
        engine,
        ServingConfig {
            batch: 2,
            queue_capacity: 16,
            deadline: None,
            stabilize_every: 0,
            stabilize_passes: 1,
            top_k: 1,
            ..ServingConfig::default()
        },
    );
    serving.detach_wal();

    // Poison the attached writer with an injected ENOSPC mid-commit.
    let torn = SharedVecIo::limited(WAL_HEADER_LEN + 10);
    serving.attach_wal(torn).unwrap();
    serving.submit_commit_object(&obj(1.0, 0.3)).unwrap();
    serving.submit_commit_object(&obj(2.0, 0.3)).unwrap();
    serving.flush();
    while serving.pop_response().is_some() {}
    assert!(
        serving.wal().unwrap().poisoned().is_some(),
        "writer must be poisoned by the injected fault"
    );
    let labels_before = serving.engine().live_labels();
    let objective_before = serving.engine().objective().to_bits();

    // Rotation attempt whose snapshot sync fails: a checked error, and
    // NO partial rotation — the poisoned writer stays attached, the
    // fresh log sink is never even created.
    let mut bad_snap = VecIo::with_faults(IoFaultPlan::new().failing_syncs());
    let fresh = SharedVecIo::new();
    let err = serving
        .checkpoint_into(&mut bad_snap, fresh.clone())
        .expect_err("failing snapshot sync must refuse the rotation");
    assert!(matches!(err, WalError::Io(_)), "{err:?}");
    assert!(
        serving.wal().unwrap().poisoned().is_some(),
        "failed rotation must leave the old (poisoned) writer in place"
    );
    assert!(fresh.bytes().is_empty(), "no header in the abandoned log");

    // Same discipline when the fresh log itself cannot be created.
    let mut snap = VecIo::new();
    serving
        .checkpoint_into(&mut snap, SharedVecIo::limited(4))
        .expect_err("unwritable fresh log must refuse the rotation");
    assert!(serving.wal().unwrap().poisoned().is_some());

    // And attach_wal under the same fault: checked error, old writer kept.
    serving
        .attach_wal(SharedVecIo::limited(4))
        .expect_err("unwritable attach must be refused");
    assert!(serving.wal().unwrap().poisoned().is_some());

    // The engine never moved through any of the failed rotations.
    assert_eq!(serving.engine().live_labels(), labels_before);
    assert_eq!(serving.engine().objective().to_bits(), objective_before);

    // A healthy rotation then recovers the pipeline: the poisoned writer
    // comes back out, and the new checkpoint + log pair round-trips.
    let mut snap = VecIo::new();
    let good = SharedVecIo::new();
    let old = serving
        .checkpoint_into(&mut snap, good.clone())
        .expect("healthy rotation succeeds")
        .expect("previous writer is returned");
    assert!(old.poisoned().is_some());
    assert!(serving.wal().unwrap().poisoned().is_none());
    serving.submit_commit_object(&obj(3.0, 0.3)).unwrap();
    serving.flush();
    while serving.pop_response().is_some() {}
    let rec = recover(snap.bytes(), &good.bytes()).expect("rotated pair recovers");
    assert!(rec.damage.is_none());
    assert_eq!(rec.engine.live_labels(), serving.engine().live_labels());
    assert_eq!(
        rec.engine.objective().to_bits(),
        serving.engine().objective().to_bits()
    );
}

/// The two-phase recovery `recover` streams: restore, materialize every
/// intact frame with `scan_wal`, then fold `apply_record` over the
/// records — the reference the streaming walk must equal.
fn two_phase(checkpoint: &[u8], wal: &[u8]) -> Result<Recovery, WalError> {
    let mut engine = IncrementalUcpc::restore(checkpoint).map_err(WalError::Snapshot)?;
    if wal.is_empty() {
        return Ok(Recovery {
            engine,
            frames_applied: 0,
            valid_bytes: 0,
            damage: None,
        });
    }
    let scan = scan_wal(wal)?;
    let dims = engine.cluster_stats()[0].psi().len();
    if let Some(m) = scan.m.filter(|&m| m != dims) {
        return Err(WalError::DimensionMismatch {
            expected: dims,
            found: m,
        });
    }
    for rec in &scan.records {
        apply_record(&mut engine, rec).map_err(WalError::Replay)?;
    }
    Ok(Recovery {
        engine,
        frames_applied: scan.records.len() as u64,
        valid_bytes: scan.valid_bytes,
        damage: scan.damage,
    })
}

/// Every `Recovery` field, and the engine's labels, handles, statistic
/// bits, objective bits and snapshot bytes — or the identical error.
fn assert_same_outcome(
    streamed: &Result<Recovery, WalError>,
    folded: &Result<Recovery, WalError>,
    what: &str,
) {
    match (streamed, folded) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.frames_applied, b.frames_applied, "{what}: frames");
            assert_eq!(a.valid_bytes, b.valid_bytes, "{what}: valid bytes");
            assert_eq!(a.damage, b.damage, "{what}: damage");
            assert_eq!(
                a.engine.live_labels(),
                b.engine.live_labels(),
                "{what}: labels"
            );
            assert_eq!(
                a.engine.cluster_stats(),
                b.engine.cluster_stats(),
                "{what}: statistics"
            );
            assert_eq!(
                a.engine.objective().to_bits(),
                b.engine.objective().to_bits(),
                "{what}: objective"
            );
            assert_eq!(a.engine.snapshot(), b.engine.snapshot(), "{what}: state");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: error"),
        (a, b) => panic!(
            "{what}: streaming gave {:?}, two-phase gave {:?}",
            a.as_ref().map(|r| r.frames_applied),
            b.as_ref().map(|r| r.frames_applied)
        ),
    }
}

#[test]
fn streaming_recovery_equals_scan_then_apply_on_every_cut_and_flip() {
    for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
        let run = logged_run(pruning);
        for cut in cut_points(&run.scan(), run.wal.len()) {
            let log = &run.wal[..cut];
            assert_same_outcome(
                &recover(&run.checkpoint, log),
                &two_phase(&run.checkpoint, log),
                &format!("{pruning:?}, cut {cut}"),
            );
        }
        for pos in 0..run.wal.len() {
            let mut bent = run.wal.clone();
            bent[pos] ^= 1 << (pos % 8);
            assert_same_outcome(
                &recover(&run.checkpoint, &bent),
                &two_phase(&run.checkpoint, &bent),
                &format!("{pruning:?}, flip at {pos}"),
            );
        }
        for pos in (0..run.checkpoint.len()).step_by(7) {
            let mut bent = run.checkpoint.clone();
            bent[pos] ^= 1 << (pos % 8);
            assert_same_outcome(
                &recover(&bent, &run.wal),
                &two_phase(&bent, &run.wal),
                &format!("{pruning:?}, checkpoint flip at {pos}"),
            );
        }
    }
}

#[test]
fn streaming_recovery_keeps_error_precedence() {
    let run = logged_run(PruningConfig::Bounds);
    let engine = settled(PruningConfig::Bounds);
    let mut writer =
        ucpc::core::wal::WalWriter::create(SharedVecIo::new(), 2, ucpc::core::wal::WalFsync::Off)
            .unwrap();
    // Two applicable frames, then a remove of a never-live handle, then a
    // torn tail: the replay error wins over the later damage.
    writer.log_commit(&[1.0, 2.0], &[1.5, 4.5]).unwrap();
    writer.log_stabilize(1).unwrap();
    writer.log_remove(ObjectHandle::new(999, 3)).unwrap();
    writer.log_commit(&[0.5, 0.5], &[0.5, 0.5]).unwrap();
    let mut bad = writer.io().bytes();
    bad.truncate(bad.len() - 3);
    let streamed = recover(&run.checkpoint, &bad);
    assert!(
        matches!(streamed, Err(WalError::Replay(_))),
        "{:?}",
        streamed.as_ref().err()
    );
    assert_same_outcome(&streamed, &two_phase(&run.checkpoint, &bad), "replay error");

    // A header for another dimensionality is refused before any frame.
    let foreign =
        ucpc::core::wal::WalWriter::create(SharedVecIo::new(), 5, ucpc::core::wal::WalFsync::Off)
            .unwrap();
    let mut foreign_log = foreign.io().bytes();
    foreign_log.extend_from_slice(&bad[WAL_HEADER_LEN..]);
    let streamed = recover(&engine.snapshot(), &foreign_log);
    assert_eq!(
        streamed.as_ref().err(),
        Some(&WalError::DimensionMismatch {
            expected: 2,
            found: 5
        })
    );
    assert_same_outcome(
        &streamed,
        &two_phase(&engine.snapshot(), &foreign_log),
        "dimension mismatch",
    );
}
