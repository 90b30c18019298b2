//! Regression + equivalence suite for `IncrementalUcpc` under interleaved
//! inserts, removals and relocation passes.
//!
//! Three pins:
//!
//! 1. **Cache/stat consistency**: a removal mutates a cluster's statistics
//!    between stabilization passes; if a cached bound ignored that edit, it
//!    could skip a scan whose outcome the departed member changed. Edits
//!    are drift-tracked and small-size transitions surgically invalidate
//!    the entries rooted in the touched cluster, so a pruned pass after
//!    edits must agree with the unpruned replay.
//! 2. **Pruning equivalence**: the pruned engine ([`PruningConfig::Bounds`])
//!    must be *byte-identical* to the unpruned oracle
//!    ([`PruningConfig::Off`]) — labels, handles, per-cluster statistics,
//!    objectives — across SIMD backends, under arbitrary interleavings with
//!    slot reuse. A proptest drives random scripts through both and
//!    cross-checks the maintained aggregates against a from-scratch rebuild
//!    after replay.
//! 3. **Aggregate integrity**: the maintained `ClusterStats` stay close to
//!    a from-scratch rebuild after every step of a random interleaving.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use ucpc::core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc::core::objective::ClusterStats;
use ucpc::core::PruningConfig;
use ucpc::uncertain::simd::{self, Backend};
use ucpc::uncertain::{UncertainObject, UnivariatePdf};

fn object(rng: &mut StdRng) -> UncertainObject {
    let c = rng.gen_range(-10.0..10.0);
    UncertainObject::new(vec![
        UnivariatePdf::normal(c, rng.gen_range(0.05..0.8)),
        UnivariatePdf::uniform_centered(-c * 0.5, rng.gen_range(0.1..1.0)),
    ])
}

/// Rebuilds per-cluster statistics from the live objects and labels.
/// Slots are recycled, so objects are recovered through a handle-keyed map
/// rather than by slot index ((slot, generation) pairs are unique within a
/// run).
fn rebuild(
    live: &IncrementalUcpc,
    by_handle: &HashMap<ObjectHandle, UncertainObject>,
) -> Vec<ClusterStats> {
    let mut stats = vec![ClusterStats::empty(2); live.k()];
    for (id, c) in live.live_labels() {
        stats[c].add(by_handle[&id].moments());
    }
    stats
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn aggregates_match_rebuild_after_interleaved_removals_and_passes() {
    for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut live = IncrementalUcpc::new(2, 3).unwrap();
            live.set_pruning(pruning);
            let mut log: HashMap<ObjectHandle, UncertainObject> = HashMap::new();
            let mut ids = Vec::new();

            for step in 0..150 {
                match rng.gen_range(0..10u8) {
                    0..=5 => {
                        let o = object(&mut rng);
                        let h = live.insert(&o).unwrap();
                        ids.push(h);
                        log.insert(h, o);
                    }
                    6..=7 => {
                        if !ids.is_empty() {
                            // The picked handle may already be stale (its
                            // slot possibly recycled); the checked error is
                            // exactly the no-op the old bool API promised.
                            let id = ids[rng.gen_range(0..ids.len())];
                            let _ = live.remove(id);
                        }
                    }
                    _ => {
                        live.stabilize(rng.gen_range(1..4usize));
                    }
                }

                let rebuilt = rebuild(&live, &log);
                for (c, (kept, fresh)) in live.cluster_stats().iter().zip(&rebuilt).enumerate() {
                    assert_eq!(
                        kept.size(),
                        fresh.size(),
                        "cluster {c} size at step {step} (seed {seed}, {pruning:?})"
                    );
                    assert!(
                        close(kept.j(), fresh.j()),
                        "cluster {c} J drifted from rebuild: {} vs {} \
                         (step {step}, seed {seed}, {pruning:?})",
                        kept.j(),
                        fresh.j()
                    );
                    for j in 0..kept.dims() {
                        assert!(close(kept.psi()[j], fresh.psi()[j]), "psi[{j}]");
                        assert!(close(kept.phi()[j], fresh.phi()[j]), "phi[{j}]");
                        assert!(
                            close(kept.mean_sum()[j], fresh.mean_sum()[j]),
                            "mean_sum[{j}]"
                        );
                    }
                }
                let total: f64 = rebuilt.iter().map(ClusterStats::j).sum();
                assert!(close(live.objective(), total), "total objective");
            }
        }
    }
}

#[test]
fn removal_then_stabilize_cannot_reuse_stale_bounds() {
    // Craft the failure stale bounds would cause: warm the cache with a
    // stabilization pass, then remove members so a previously-hopeless
    // relocation could become beneficial, and verify the next pass agrees
    // with an unpruned replay (a stale "skip" would leave the partition
    // frozen). The removals are drift-tracked, and the drained cluster's
    // pass through size < 2 invalidates the entries rooted in it.
    let mut live = IncrementalUcpc::new(1, 2).unwrap();
    live.set_pruning(PruningConfig::Bounds);
    let obj = |c: f64| UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]);

    // Cluster layout after insertions + settle: {0.0, 0.2, 0.4} | {9.0, 9.2, 5.5}.
    let mut ids = Vec::new();
    for c in [0.0, 0.2, 0.4, 9.0, 9.2, 5.5] {
        ids.push(live.insert(&obj(c)).unwrap());
    }
    live.stabilize(10); // warm caches at the settled partition
    let settled: Vec<(ObjectHandle, usize)> = live.live_labels();
    let right = settled
        .iter()
        .find(|&&(id, _)| id == ids[4])
        .expect("9.2 is live")
        .1;

    // Remove the two far-right anchors; 5.5 should now prefer whichever
    // side wins on the remaining data — recompute, don't trust the cache.
    live.remove(ids[3]).unwrap();
    live.remove(ids[4]).unwrap();
    live.stabilize(10);

    let after = live.live_labels();
    let lone = after.iter().find(|&&(id, _)| id == ids[5]).unwrap().1;
    // With {0.0, 0.2, 0.4} on one side and only 5.5 left on the other, a
    // singleton source is pinned by the k-preservation rule; the essential
    // assertion is that the pruned passes scanned and agree with the
    // unpruned twin below.
    let counters = live.pruning_counters();
    assert!(
        counters.full_scans > 0,
        "stabilize after removal must rescan, got {counters:?}"
    );
    assert_eq!(lone, right, "handle bookkeeping survived the removals");

    // And an unpruned twin replaying the same history agrees bitwise.
    let mut twin = IncrementalUcpc::new(1, 2).unwrap();
    twin.set_pruning(PruningConfig::Off);
    let mut twin_ids = Vec::new();
    for c in [0.0, 0.2, 0.4, 9.0, 9.2, 5.5] {
        twin_ids.push(twin.insert(&obj(c)).unwrap());
    }
    twin.stabilize(10);
    twin.remove(twin_ids[3]).unwrap();
    twin.remove(twin_ids[4]).unwrap();
    twin.stabilize(10);
    assert_identical(&live, &twin, "removal then stabilize");
}

/// One scripted streaming session: the op stream every equivalence check
/// replays identically on each configuration under test.
#[derive(Debug, Clone)]
enum Op {
    Insert(f64, f64),
    /// Remove the `r`-th (mod live count) still-live handle.
    Remove(usize),
    Stabilize(usize),
}

fn replay(
    pruning: PruningConfig,
    script: &[Op],
) -> (IncrementalUcpc, HashMap<ObjectHandle, UncertainObject>) {
    let mut live = IncrementalUcpc::new(2, 3).unwrap();
    live.set_pruning(pruning);
    let mut ids: Vec<ObjectHandle> = Vec::new();
    let mut by_handle: HashMap<ObjectHandle, UncertainObject> = HashMap::new();
    for op in script {
        match *op {
            Op::Insert(c, s) => {
                let o = UncertainObject::new(vec![
                    UnivariatePdf::normal(c, s),
                    UnivariatePdf::uniform_centered(-c * 0.5, s + 0.1),
                ]);
                let h = live.insert(&o).unwrap();
                ids.push(h);
                by_handle.insert(h, o);
            }
            Op::Remove(r) => {
                let alive: Vec<ObjectHandle> = ids
                    .iter()
                    .copied()
                    .filter(|&id| live.label_of(id).is_some())
                    .collect();
                if !alive.is_empty() {
                    live.remove(alive[r % alive.len()])
                        .expect("picked handle is live");
                }
            }
            Op::Stabilize(p) => {
                live.stabilize(p);
            }
        }
    }
    (live, by_handle)
}

/// Byte-level equality of two drivers' partitions (handles included) and
/// statistics.
fn assert_identical(a: &IncrementalUcpc, b: &IncrementalUcpc, what: &str) {
    assert_eq!(a.live_labels(), b.live_labels(), "labels diverged: {what}");
    assert_eq!(
        a.cluster_stats(),
        b.cluster_stats(),
        "cluster statistics diverged bitwise: {what}"
    );
    assert_eq!(
        a.objective().to_bits(),
        b.objective().to_bits(),
        "objective bits diverged: {what}"
    );
}

fn churn_script(seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(steps + 8);
    // Seed population so removals and stabilizations have substance.
    for _ in 0..8 {
        script.push(Op::Insert(
            rng.gen_range(-10.0..10.0),
            rng.gen_range(0.05..0.8),
        ));
    }
    for _ in 0..steps {
        script.push(match rng.gen_range(0..10u8) {
            0..=4 => Op::Insert(rng.gen_range(-10.0..10.0), rng.gen_range(0.05..0.8)),
            5..=7 => Op::Remove(rng.gen_range(0..64)),
            _ => Op::Stabilize(rng.gen_range(1..4)),
        });
    }
    script
}

#[test]
fn pruned_churn_is_byte_identical_to_unpruned_across_simd_backends() {
    // {pruning off, bounds} × {scalar, detected SIMD}: every configuration
    // must produce the same handles and labels, bit-identical per-cluster
    // statistics and objective. The SIMD dimension is trivial by the
    // backend bit-identity contract, but asserting it end to end here pins
    // the whole streaming path, slot reuse included.
    let restore = simd::active_backend();
    for seed in 0..4u64 {
        let script = churn_script(seed, 120);
        let mut reference: Option<IncrementalUcpc> = None;
        for simd_backend in [Backend::Scalar, Backend::detect()] {
            simd::force_backend(simd_backend).expect("backend available");
            for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
                let (run, _) = replay(pruning, &script);
                if let Some(r) = &reference {
                    assert_identical(
                        r,
                        &run,
                        &format!("seed {seed}, {pruning:?} / {}", simd_backend.name()),
                    );
                } else {
                    reference = Some(run);
                }
            }
        }
    }
    simd::force_backend(restore).expect("restore prior backend");
}

#[test]
fn stale_handle_errors_are_identical_across_backends() {
    // A remove of an already-removed handle, and of a handle whose slot has
    // been recycled to a later arrival, must return the identical checked
    // error under every pruning × SIMD configuration.
    use ucpc::core::ClusterError;
    let obj = |c: f64| {
        UncertainObject::new(vec![
            UnivariatePdf::normal(c, 0.1),
            UnivariatePdf::uniform_centered(c, 0.5),
        ])
    };
    let restore = simd::active_backend();
    let mut errors: Vec<Vec<ClusterError>> = Vec::new();
    for simd_backend in [Backend::Scalar, Backend::detect()] {
        simd::force_backend(simd_backend).expect("backend available");
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let mut live = IncrementalUcpc::new(2, 2).unwrap();
            live.set_pruning(pruning);
            let a = live.insert(&obj(0.0)).unwrap();
            let b = live.insert(&obj(9.0)).unwrap();
            live.stabilize(2);
            live.remove(a).unwrap();
            let double = live.remove(a).expect_err("double remove is an error");
            // Recycle a's slot; the old handle must still be stale.
            let c = live.insert(&obj(0.5)).unwrap();
            assert_eq!(c.slot(), a.slot(), "slot recycled ({pruning:?})");
            let recycled = live.remove(a).expect_err("recycled slot is stale");
            assert!(matches!(double, ClusterError::StaleHandle { .. }));
            assert_eq!(live.label_of(a), None);
            assert!(live.label_of(b).is_some() && live.label_of(c).is_some());
            assert_eq!(live.len(), 2, "stale removes must not change state");
            errors.push(vec![double, recycled]);
        }
    }
    simd::force_backend(restore).expect("restore prior backend");
    assert!(
        errors.windows(2).all(|w| w[0] == w[1]),
        "every configuration must report identical stale-handle errors: {errors:?}"
    );
}

#[test]
fn surgical_invalidation_skips_more_than_epoch_bumps() {
    // The whole point of the tracked-edit path: cached bounds survive
    // edits (widened) instead of dying. A per-edit epoch bump would leave
    // the first pruned pass after an edit batch with nothing to skip; with
    // surgical invalidation that very pass already skips — and still
    // agrees bitwise with the unpruned replay.
    let mut script = churn_script(99, 200);
    script.push(Op::Stabilize(8));
    let mut rng = StdRng::seed_from_u64(7);
    let mut edits = Vec::new();
    for _ in 0..6 {
        edits.push(Op::Remove(rng.gen_range(0..64)));
        edits.push(Op::Insert(
            rng.gen_range(-10.0..10.0),
            rng.gen_range(0.05..0.8),
        ));
    }
    script.extend(edits);
    let (mut pruned, _) = replay(PruningConfig::Bounds, &script);
    let (mut oracle, _) = replay(PruningConfig::Off, &script);
    let before = pruned.pruning_counters();
    pruned.stabilize(1);
    oracle.stabilize(1);
    let after = pruned.pruning_counters();
    assert!(
        after.skips > before.skips,
        "the first pruned pass after the edit batch skipped nothing: \
         {before:?} -> {after:?}"
    );
    assert_identical(&pruned, &oracle, "first pass after edits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Free-list churn property: random interleavings of
    /// insert/remove/stabilize, with slot reuse, keep the pruned engine
    /// (detected SIMD backend) byte-identical to the unpruned oracle
    /// (scalar backend), and the maintained aggregates consistent with a
    /// from-scratch rebuild.
    #[test]
    fn random_churn_scripts_keep_backends_identical(
        seed in 0u64..1_000_000,
        steps in 10usize..120,
    ) {
        let script = churn_script(seed, steps);
        let restore = simd::active_backend();
        simd::force_backend(Backend::Scalar).expect("scalar backend available");
        let (oracle, _) = replay(PruningConfig::Off, &script);
        simd::force_backend(Backend::detect()).expect("detected backend available");
        let (pruned, by_handle) = replay(PruningConfig::Bounds, &script);
        simd::force_backend(restore).expect("restore prior backend");

        prop_assert_eq!(oracle.live_labels(), pruned.live_labels());
        prop_assert_eq!(oracle.cluster_stats(), pruned.cluster_stats());
        prop_assert_eq!(
            oracle.objective().to_bits(),
            pruned.objective().to_bits()
        );

        // Both agree with a from-scratch statistics rebuild, recovering
        // objects through the handle association (slots are recycled, so
        // slot index is not a payload identity).
        let rebuilt = rebuild(&pruned, &by_handle);
        for (kept, fresh) in pruned.cluster_stats().iter().zip(&rebuilt) {
            prop_assert_eq!(kept.size(), fresh.size());
            prop_assert!(close(kept.j(), fresh.j()));
        }
    }
}
