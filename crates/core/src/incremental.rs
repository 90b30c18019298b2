//! Incremental (online) maintenance of a UCPC clustering.
//!
//! Corollary 1 makes `J` updatable in O(m) per object addition/removal — one
//! fused dot product in the scalar-aggregate kernel form (see
//! [`ucpc_uncertain::arena`]); this
//! module exploits it beyond batch clustering: an [`IncrementalUcpc`] holds a
//! live partition of a stream of uncertain objects, inserting each arrival
//! into the cluster that minimizes the objective increase, removing departed
//! objects, and periodically re-stabilizing with relocation passes (each pass
//! is one iteration of Algorithm 1).
//!
//! This is the natural "moving objects" deployment of the paper's machinery:
//! positions go stale and get refreshed continuously, and re-running batch
//! UCPC from scratch on every update would waste the O(m) incrementality the
//! closed form provides.
//!
//! # Storage
//!
//! Moments live in a [`ucpc_uncertain::SlabArena`]: flat SoA rows recycled
//! through a free-list, so the stabilization scan streams contiguous memory
//! exactly like the batch path, a steady-state insert-after-remove performs
//! zero allocator calls (`tests/streaming_alloc_free.rs`), and edits run
//! through the *drift-tracked* statistic updates so outstanding pruning
//! bounds survive them (surgical invalidation — see below).
//!
//! # Generation-stamped handles
//!
//! The slab recycles storage slots through a LIFO free-list, and
//! [`IncrementalUcpc::insert`] returns an [`ObjectHandle`] — slot plus the
//! slot's generation counter at insertion time (see [`ucpc_uncertain::slab`]
//! for the scheme). Two consequences:
//!
//! * **Bounded state.** Every handle-indexed structure — the label map,
//!   the moment storage, and (with pruning on) the prune cache's entries
//!   and drift-snapshot rows — is indexed by *slot* and therefore capped at
//!   the high-water mark of concurrent liveness, not the total insertion
//!   count. A steady-state insert-after-remove churn loop shows zero net
//!   growth in any of them, for weeks (`tests/streaming_alloc_free.rs` and
//!   the `bench_soak` flat-memory gate pin this).
//! * **Checked staleness.** Using a handle after its `remove` — including
//!   after its slot was recycled to a later arrival — is a checked
//!   [`ClusterError::StaleHandle`], never a silent read of the slot's next
//!   occupant. `label_of` returns `None` for stale handles.
//!
//! For crash recovery and migration, [`IncrementalUcpc::snapshot`] serializes the
//! complete logical state into a versioned byte buffer and
//! [`IncrementalUcpc::restore`] reassembles it bit-identically — see
//! [`crate::snapshot`].
//!
//! # Why pruning never changes the result
//!
//! Edits mutate [`ClusterStats`] through `add_view_tracked` /
//! `remove_view_tracked`, whose statistic updates are bit-identical to the
//! untracked `add_view`/`remove_view` (the drift accumulators are
//! bookkeeping outside the statistics proper). And the pruning shortcuts
//! are exact by construction, so how aggressively the cache is invalidated
//! changes which *scans* run, never which *relocations* apply.
//! `tests/incremental_consistency.rs` pins labels, handles, statistics and
//! objectives bitwise between [`PruningConfig::Off`] and
//! [`PruningConfig::Bounds`] across SIMD backends, and against a
//! from-scratch rebuild.
//!
//! # Surgical invalidation
//!
//! Edits run through the tracked updates — an edit is then just one more
//! transition the drift bounds already cover, and cached bounds *widen*
//! instead of dying. Only a small-size transition (the touched cluster
//! passing through size `< 2`, where the remove-direction coefficients are
//! undefined) taints history, and it taints exactly that cluster's remove
//! direction — so only entries whose `src` is the touched cluster are
//! invalidated, via the per-cluster version counters of [`crate::pruning`]
//! (module docs there derive the soundness). On churny streams this is the
//! difference between every stabilization pass re-scanning all `n` objects
//! and the pass skipping everything the edits provably could not have
//! changed. Cache entries additionally carry the slot's generation stamp,
//! so an entry written for a departed occupant can never serve the slot's
//! next tenant.

use crate::framework::ClusterError;
use crate::objective::{total_objective, ClusterStats};
use crate::pruning::{
    apply_tracked_insert, apply_tracked_relocation, apply_tracked_remove, best_candidate,
    best_candidate_with_second, best_insertion, best_insertion_bounded, fp_scale, DriftTotals,
    PruneCache, PruneCounters, PruneDecision, PruningConfig,
};
use ucpc_uncertain::arena::MomentView;
use ucpc_uncertain::{MomentArena, Moments, SlabArena, UncertainObject};

pub use ucpc_uncertain::ObjectHandle;

/// A live UCPC partition supporting O(k·m) insertions, O(m) removals and
/// on-demand relocation passes. Handles are generation-stamped: using one
/// after its removal is a checked [`ClusterError::StaleHandle`], and all
/// handle-indexed state stays bounded by the live-window high-water mark.
///
/// ```
/// use ucpc_core::incremental::IncrementalUcpc;
/// use ucpc_uncertain::{UncertainObject, UnivariatePdf};
///
/// let mut live = IncrementalUcpc::new(1, 2).unwrap();
/// let mut ids = Vec::new();
/// for c in [0.0, 0.2, 9.0, 9.2] {
///     let o = UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]);
///     ids.push(live.insert(&o).unwrap());
/// }
/// live.stabilize(5);
/// assert_eq!(live.label_of(ids[0]), live.label_of(ids[1]));
/// assert_ne!(live.label_of(ids[0]), live.label_of(ids[2]));
/// live.remove(ids[3]).unwrap();
/// assert!(live.remove(ids[3]).is_err(), "double remove is checked");
/// assert_eq!(live.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalUcpc {
    pub(crate) m: usize,
    pub(crate) k: usize,
    pub(crate) stats: Vec<ClusterStats>,
    /// Moments of every live object, one recycled slab row per slot.
    pub(crate) slab: SlabArena,
    /// Per-slot cluster label (`None` while the slot is free). Indexed by
    /// slot, so it tops out at the live-window high-water mark.
    pub(crate) labels: Vec<Option<usize>>,
    pub(crate) live: usize,
    /// Candidate pruning for [`Self::stabilize`] passes and the bounded
    /// placement scan of [`Self::insert`].
    pub(crate) pruning: PruningConfig,
    /// Prune-cache epoch — the coarse kill-switch, bumped only by
    /// [`Self::set_pruning`]. Edits never need it: they are drift-tracked,
    /// small-size transitions go through the per-cluster `versions` below,
    /// and slot recycling is covered by the cache entries' generation
    /// stamps.
    pub(crate) epoch: u64,
    /// Per-cluster remove-direction version counters — the surgical
    /// invalidation watermarks of [`crate::pruning`].
    pub(crate) versions: Vec<u64>,
    pub(crate) totals: DriftTotals,
    pub(crate) cache: PruneCache,
    pub(crate) counters: PruneCounters,
    /// One reusable moment row that [`Self::insert_staged`] decodes
    /// arrivals into — scratch space, not logical state: snapshots skip
    /// it and its contents never outlive one call.
    pub(crate) staging: MomentArena,
}

impl IncrementalUcpc {
    /// Creates an empty incremental clustering over `m` dimensions with `k`
    /// clusters.
    pub fn new(m: usize, k: usize) -> Result<Self, ClusterError> {
        if k == 0 {
            return Err(ClusterError::InvalidK { k, n: 0 });
        }
        Ok(Self {
            m,
            k,
            stats: vec![ClusterStats::empty(m); k],
            slab: SlabArena::new(),
            labels: Vec::new(),
            live: 0,
            pruning: PruningConfig::default(),
            epoch: 0,
            versions: vec![0; k],
            totals: DriftTotals::default(),
            cache: PruneCache::new(0, k),
            counters: PruneCounters::default(),
            staging: MomentArena::default(),
        })
    }

    /// Enables or disables candidate pruning for subsequent
    /// [`Self::stabilize`] calls; outstanding cached bounds are discarded.
    pub fn set_pruning(&mut self, pruning: PruningConfig) {
        self.pruning = pruning;
        self.epoch += 1;
    }

    /// Reserves capacity for `additional` further insertions (handle maps
    /// and moment rows), so a churn loop staying within the reservation
    /// triggers no reallocation — the contract the steady-state
    /// zero-allocation test pins. With slot recycling, only the *net*
    /// liveness growth consumes the reservation: a steady-state
    /// insert-after-remove loop consumes none of it.
    pub fn reserve_ids(&mut self, additional: usize) {
        self.labels.reserve(additional);
        // Appended rows only; recycled rows need no capacity, so a
        // reservation sized for the worst case (no removals) covers every
        // interleaving.
        self.slab.reserve_rows(additional, self.m);
    }

    /// The per-cluster sufficient statistics of the live partition (the
    /// aggregates the consistency tests cross-check against a from-scratch
    /// rebuild).
    pub fn cluster_stats(&self) -> &[ClusterStats] {
        &self.stats
    }

    /// Candidate-pruning counters accumulated over all stabilization passes
    /// and bounded placement scans.
    pub fn pruning_counters(&self) -> PruneCounters {
        self.counters
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no objects are present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of storage slots ever created — the high-water mark of
    /// concurrent liveness, and the size bound on every handle-indexed
    /// structure (label map, moment rows, prune-cache entries). Under
    /// steady-state churn this stops growing; the flat-memory tests assert
    /// exactly that.
    pub fn slot_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of prune-cache entries currently allocated (0 until the
    /// first pruned stabilization pass; bounded by [`Self::slot_rows`]).
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// Current total objective `Σ_C J(C)`.
    pub fn objective(&self) -> f64 {
        total_objective(&self.stats)
    }

    /// Current cluster of a live object; `None` if the handle is stale.
    pub fn label_of(&self, h: ObjectHandle) -> Option<usize> {
        if !self.slab.contains(h) {
            return None;
        }
        self.labels[h.slot()]
    }

    /// Cluster sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.stats.iter().map(ClusterStats::size).collect()
    }

    /// Inserts an object into the cluster that minimizes the objective
    /// increase (O(k·m) by Corollary 1) and returns its generation-stamped
    /// handle. With pruning off the placement scan is the dot3-batched
    /// [`best_insertion`] kernel over all `k` clusters; with pruning on it
    /// is the Cauchy–Schwarz-bounded [`best_insertion_bounded`] scan, which
    /// prices only the clusters the lower bound cannot exclude and returns
    /// a bit-identical `(cluster, delta)` (shadow-asserted in debug
    /// builds).
    pub fn insert(&mut self, object: &UncertainObject) -> Result<ObjectHandle, ClusterError> {
        self.insert_moments(object.moments())
    }

    /// [`Self::insert`] for an arrival already reduced to its moments — the
    /// pdf-free admission path (serving layers hold moments, not pdfs).
    /// Identical placement, mutation sequence and handle issue as
    /// `insert(&object)` for `object.moments() == mo`. Moments with a NaN
    /// or ±∞ entry (or an overflowing aggregate) are refused with
    /// [`ClusterError::NonFinite`] and change nothing.
    pub fn insert_moments(&mut self, mo: &Moments) -> Result<ObjectHandle, ClusterError> {
        self.insert_view(&mo.view())
    }

    /// [`Self::insert_moments`] for an arrival given as its
    /// `(mu_j, (mu_2)_j)` pairs — WAL replay's path
    /// ([`crate::wal::apply_record`]). The pairs are staged in the engine's
    /// one reusable scratch row through the canonical moment fold, so the
    /// row carries exactly the bits [`Moments::from_mu_mu2`] would give it,
    /// and admitted through [`Self::insert_view`]. No allocation after the
    /// first call.
    pub(crate) fn insert_staged(
        &mut self,
        dims: usize,
        fill: impl FnMut(usize) -> (f64, f64),
    ) -> Result<ObjectHandle, ClusterError> {
        if dims != self.m {
            return Err(ClusterError::DimensionMismatch {
                expected: self.m,
                found: dims,
                index: self.labels.len(),
            });
        }
        // Moved out for the call so its view can be admitted while `self`
        // is borrowed mutably; moving a `MomentArena` allocates nothing.
        let mut staging = std::mem::take(&mut self.staging);
        if staging.is_empty() {
            staging.push_row_with(dims, fill);
        } else {
            staging.overwrite_row_with(0, dims, fill);
        }
        let admitted = self.insert_view(&staging.view(0));
        self.staging = staging;
        admitted
    }

    /// The one admission path behind [`Self::insert_moments`] and
    /// [`Self::insert_staged`]: dimension check, finiteness check,
    /// [`Self::price_insertion`], [`Self::commit_placed`]. The view's bits
    /// are stored verbatim.
    pub(crate) fn insert_view(&mut self, v: &MomentView<'_>) -> Result<ObjectHandle, ClusterError> {
        if v.dims() != self.m {
            return Err(ClusterError::DimensionMismatch {
                expected: self.m,
                found: v.dims(),
                index: self.labels.len(),
            });
        }
        if !v.is_finite() {
            return Err(ClusterError::NonFinite);
        }
        let best = self.price_insertion(v);
        Ok(self.commit_placed(v, best))
    }

    /// The placement scan of [`Self::insert`], factored out so the serving
    /// layer prices arrivals through the identical kernel: with pruning off
    /// the dot3-batched [`best_insertion`] over all `k` clusters, with
    /// pruning on the Cauchy–Schwarz-bounded [`best_insertion_bounded`]
    /// scan, which returns a bit-identical cluster (shadow-asserted in
    /// debug builds). Mutates only the pruning counters.
    pub(crate) fn price_insertion(&mut self, v: &MomentView<'_>) -> usize {
        let (best, _delta) = if self.pruning.is_enabled() {
            let scale = fp_scale(&self.stats);
            let picked = best_insertion_bounded(&self.stats, v, scale, &mut self.counters)
                .expect("k >= 1 clusters");
            #[cfg(debug_assertions)]
            {
                let shadow = best_insertion(&self.stats, v).expect("k >= 1 clusters");
                debug_assert_eq!(
                    picked.0, shadow.0,
                    "bounded placement must pick the full scan's cluster"
                );
                debug_assert_eq!(
                    picked.1.to_bits(),
                    shadow.1.to_bits(),
                    "bounded placement delta must be bit-identical"
                );
            }
            picked
        } else {
            best_insertion(&self.stats, v).expect("k >= 1 clusters")
        };
        best
    }

    /// Applies an already-priced placement: the exact mutation sequence of
    /// [`Self::insert`] after its scan — drift-tracked statistics update,
    /// verbatim store of the arrival's bits ([`SlabArena::insert_view`]),
    /// label write, live count. The serving layer calls this per batched arrival, with
    /// `best` produced by batch pricing that is bit-identical to
    /// [`Self::price_insertion`]; the resulting engine state is therefore
    /// byte-identical to a serial `insert` of the same arrival.
    pub(crate) fn commit_placed(&mut self, v: &MomentView<'_>, best: usize) -> ObjectHandle {
        // Tracked edit: outstanding bounds widen by the accumulated drift
        // instead of dying; only a small-size transition stales
        // (surgically) the entries rooted in this cluster.
        apply_tracked_insert(
            &mut self.stats,
            best,
            v,
            &mut self.totals,
            &mut self.versions,
        );
        let h = self.slab.insert_view(v);
        let slot = h.slot();
        if slot == self.labels.len() {
            self.labels.push(Some(best));
        } else {
            debug_assert!(self.labels[slot].is_none(), "recycled slot must be free");
            self.labels[slot] = Some(best);
        }
        self.live += 1;
        h
    }

    /// Removes a live object in O(m). A stale handle — already removed, or
    /// its slot recycled to a later arrival — returns
    /// [`ClusterError::StaleHandle`] and changes nothing.
    pub fn remove(&mut self, h: ObjectHandle) -> Result<(), ClusterError> {
        if !self.slab.contains(h) {
            return Err(ClusterError::StaleHandle {
                slot: h.slot() as u32,
                generation: h.generation(),
            });
        }
        let slot = h.slot();
        let cluster = self.labels[slot].take().expect("live slot has a label");
        apply_tracked_remove(
            &mut self.stats,
            cluster,
            &self.slab.view(slot),
            &mut self.totals,
            &mut self.versions,
        );
        self.slab.remove(h).expect("contains(h) checked above");
        self.live -= 1;
        Ok(())
    }

    /// Runs up to `passes` relocation passes of Algorithm 1 over the live
    /// objects; returns the number of relocations applied. With pruning
    /// enabled the passes take the exact tier-1/tier-2 shortcuts of
    /// [`crate::pruning`]; the relocation sequence is identical either way.
    pub fn stabilize(&mut self, passes: usize) -> usize {
        const TOLERANCE: f64 = 1e-9;
        let mut relocations = 0usize;
        let pruned = self.pruning.is_enabled();
        if pruned {
            self.cache.grow(self.labels.len());
        }
        for _ in 0..passes {
            let mut moved = false;
            let scale = if pruned { fp_scale(&self.stats) } else { 0.0 };
            for i in 0..self.labels.len() {
                let Some(src) = self.labels[i] else { continue };
                if self.stats[src].size() == 1 {
                    continue;
                }
                // Borrowed straight out of the slab — applied relocations
                // below mutate only `stats`/`totals`/`versions`/`cache`,
                // all disjoint from the moment storage, so no per-move
                // clone of the moments is ever needed.
                let v = self.slab.view(i);

                let decision = if pruned {
                    self.cache.view().decide(
                        i,
                        self.slab.generation(i),
                        self.epoch,
                        &self.stats,
                        self.totals,
                        &self.versions,
                        src,
                        &v,
                        TOLERANCE,
                        scale,
                    )
                } else {
                    PruneDecision::FullScan
                };

                match decision {
                    PruneDecision::Skip => {
                        self.counters.skips += 1;
                    }
                    PruneDecision::ConfirmBest(dst) => {
                        self.counters.confirms += 1;
                        let delta =
                            self.stats[src].delta_j_remove(&v) + self.stats[dst].delta_j_add(&v);
                        if delta < -TOLERANCE {
                            apply_tracked_relocation(
                                &mut self.stats,
                                src,
                                dst,
                                &v,
                                &mut self.totals,
                                &mut self.versions,
                            );
                            self.cache.invalidate(i);
                            self.labels[i] = Some(dst);
                            relocations += 1;
                            moved = true;
                        }
                    }
                    PruneDecision::FullScan => {
                        if pruned {
                            self.counters.full_scans += 1;
                            if let Some((dst, delta, second)) =
                                best_candidate_with_second(&self.stats, src, &v)
                            {
                                if delta < -TOLERANCE {
                                    apply_tracked_relocation(
                                        &mut self.stats,
                                        src,
                                        dst,
                                        &v,
                                        &mut self.totals,
                                        &mut self.versions,
                                    );
                                    self.cache.invalidate(i);
                                    self.labels[i] = Some(dst);
                                    relocations += 1;
                                    moved = true;
                                } else {
                                    self.cache.view().store(
                                        i,
                                        self.slab.generation(i),
                                        self.epoch,
                                        &self.stats,
                                        self.totals,
                                        &self.versions,
                                        src,
                                        dst,
                                        delta,
                                        second,
                                    );
                                }
                            }
                        } else if let Some((dst, delta)) = best_candidate(&self.stats, src, &v) {
                            if delta < -TOLERANCE {
                                self.stats[src].remove_view(&v);
                                self.stats[dst].add_view(&v);
                                self.labels[i] = Some(dst);
                                relocations += 1;
                                moved = true;
                            }
                        }
                    }
                }
            }
            if !moved {
                break;
            }
        }
        relocations
    }

    /// Current handles and labels of all live objects, in slot order. Slot
    /// and generation sequences depend only on the edit script, so they are
    /// comparable across pruning and SIMD configurations.
    pub fn live_labels(&self) -> Vec<(ObjectHandle, usize)> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(slot, l)| {
                l.map(|c| {
                    (
                        ObjectHandle::new(slot as u32, self.slab.generation(slot)),
                        c,
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucpc_uncertain::UnivariatePdf;

    fn obj(c: f64) -> UncertainObject {
        UncertainObject::new(vec![UnivariatePdf::normal(c, 0.2)])
    }

    #[test]
    fn insertions_fill_empty_clusters_first_by_objective() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        let a = inc.insert(&obj(0.0)).unwrap();
        let b = inc.insert(&obj(10.0)).unwrap();
        // Second object prefers the empty cluster (adding to the occupied
        // one increases J by the squared gap; the empty one costs only
        // 2 sigma^2).
        assert_ne!(inc.label_of(a), inc.label_of(b));
    }

    #[test]
    fn stream_with_stabilization_matches_structure() {
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let mut inc = IncrementalUcpc::new(1, 2).unwrap();
            inc.set_pruning(pruning);
            let mut ids = Vec::new();
            for c in [0.0, 0.2, 0.4, 9.0, 9.2, 9.4, 0.1, 9.1] {
                ids.push(inc.insert(&obj(c)).unwrap());
            }
            inc.stabilize(10);
            let l = |i: usize| inc.label_of(ids[i]).unwrap();
            assert_eq!(l(0), l(1));
            assert_eq!(l(0), l(2));
            assert_eq!(l(0), l(6));
            assert_eq!(l(3), l(4));
            assert_eq!(l(3), l(7));
            assert_ne!(l(0), l(3));
        }
    }

    #[test]
    fn removal_is_exact() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        let keep: Vec<ObjectHandle> = [0.0, 0.5, 8.0]
            .iter()
            .map(|&c| inc.insert(&obj(c)).unwrap())
            .collect();
        let gone = inc.insert(&obj(100.0)).unwrap();
        let with = inc.objective();
        inc.remove(gone).unwrap();
        assert!(
            matches!(inc.remove(gone), Err(ClusterError::StaleHandle { .. })),
            "double remove must be a checked error"
        );
        assert_eq!(inc.len(), 3);
        assert!(inc.objective() <= with);
        assert!(keep.iter().all(|&id| inc.label_of(id).is_some()));
    }

    #[test]
    fn stale_handles_cannot_alias_recycled_slots() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        let a = inc.insert(&obj(0.0)).unwrap();
        let b = inc.insert(&obj(9.0)).unwrap();
        inc.remove(a).unwrap();
        // The next arrival recycles a's slot under a newer generation.
        let c = inc.insert(&obj(0.5)).unwrap();
        assert_eq!(c.slot(), a.slot(), "slot must be recycled");
        assert_ne!(c, a);
        assert_eq!(inc.label_of(a), None, "stale handle has no label");
        assert!(
            matches!(inc.remove(a), Err(ClusterError::StaleHandle { .. })),
            "stale remove must not evict the new occupant"
        );
        assert_eq!(inc.len(), 2);
        assert!(inc.label_of(b).is_some());
        assert!(inc.label_of(c).is_some());
    }

    #[test]
    fn pruning_configs_hand_out_identical_handle_sequences() {
        let script: &[(bool, f64)] = &[
            (true, 0.0),
            (true, 9.0),
            (true, 0.2),
            (false, 1.0), // remove the 2nd live handle
            (true, 9.2),
            (false, 0.0), // remove the 1st live handle
            (true, 0.4),
            (true, 9.4),
        ];
        let run = |pruning| {
            let mut inc = IncrementalUcpc::new(1, 2).unwrap();
            inc.set_pruning(pruning);
            let mut live: Vec<ObjectHandle> = Vec::new();
            let mut issued = Vec::new();
            for &(is_insert, x) in script {
                if is_insert {
                    let h = inc.insert(&obj(x)).unwrap();
                    live.push(h);
                    issued.push(h);
                } else {
                    let victim = live.remove(x as usize);
                    inc.remove(victim).unwrap();
                }
                inc.stabilize(2);
            }
            issued
        };
        assert_eq!(
            run(PruningConfig::Off),
            run(PruningConfig::Bounds),
            "slot/generation sequences must match across pruning configs"
        );
    }

    #[test]
    fn objective_matches_batch_rebuild() {
        let mut inc = IncrementalUcpc::new(1, 3).unwrap();
        let objs: Vec<UncertainObject> = [0.0, 0.1, 5.0, 5.1, 10.0, 10.1]
            .iter()
            .map(|&c| obj(c))
            .collect();
        for o in &objs {
            inc.insert(o).unwrap();
        }
        inc.stabilize(20);
        // Rebuild ClusterStats from the live assignment and compare J
        // totals. No removals happened, so slots are insertion order.
        let mut rebuilt = vec![ClusterStats::empty(1); 3];
        for (id, c) in inc.live_labels() {
            rebuilt[c].add(objs[id.slot()].moments());
        }
        let total: f64 = rebuilt.iter().map(ClusterStats::j).sum();
        assert!((inc.objective() - total).abs() < 1e-9);
    }

    #[test]
    fn stabilize_monotonically_improves() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        // Adversarial insertion order.
        for c in [0.0, 9.0, 0.1, 9.1, 0.2, 9.2] {
            inc.insert(&obj(c)).unwrap();
        }
        let before = inc.objective();
        inc.stabilize(10);
        assert!(inc.objective() <= before + 1e-9);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut inc = IncrementalUcpc::new(2, 2).unwrap();
        assert!(matches!(
            inc.insert(&obj(0.0)),
            Err(ClusterError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn slot_maps_stay_bounded_across_churn() {
        let mut inc = IncrementalUcpc::new(1, 2).unwrap();
        let mut ids: Vec<ObjectHandle> = (0..6)
            .map(|i| inc.insert(&obj(i as f64)).unwrap())
            .collect();
        for step in 0..40 {
            let victim = ids.remove(0);
            inc.remove(victim).unwrap();
            ids.push(inc.insert(&obj((step % 7) as f64)).unwrap());
        }
        assert_eq!(inc.len(), 6);
        // The slot high-water mark stays at the peak liveness even though
        // 40 handles were churned through — the label map and moment
        // storage are live-window-bounded.
        assert_eq!(inc.slot_rows(), 6, "slots must be recycled, not appended");
        assert_eq!(inc.slab.rows(), 6, "rows must be recycled, not appended");
        assert!(ids.iter().all(|&id| inc.label_of(id).is_some()));
    }
}
