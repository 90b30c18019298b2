//! # ucpc-core — the paper's primary contribution
//!
//! The U-centroid (Section 4.1), the closed-form cluster-compactness
//! objective it induces (Section 4.2, Theorem 3, Corollary 1), and the UCPC
//! local-search clustering algorithm (Section 4.3, Algorithm 1) from
//! *Uncertain Centroid based Partitional Clustering of Uncertain Data*
//! (Gullo & Tagarelli, VLDB 2012), plus the partitional-clustering framework
//! (partitions, initializers, the [`framework::UncertainClusterer`] trait)
//! shared with every baseline in `ucpc-baselines`.
//!
//! ## Architecture: three layers under the relocation loop
//!
//! The hot path of every driver in this crate ([`ucpc::Ucpc`],
//! [`parallel::ParallelUcpc`], [`incremental::IncrementalUcpc`],
//! [`restarts::BestOfRestarts`]) is Algorithm 1's candidate-relocation
//! scan, built from three layers:
//!
//! * **Moment arena** — object moments live in a flat
//!   [`ucpc_uncertain::MomentArena`] (contiguous rows + precomputed scalar
//!   columns); the arena module docs derive how Corollary 1 collapses each
//!   candidate evaluation to one fused dot product, which
//!   [`ucpc_uncertain::simd`] dispatches to an AVX2/NEON kernel at run time
//!   (env knob `UCPC_SIMD`).
//! * **Delta-`J` kernel** — [`objective::ClusterStats`] maintains
//!   per-cluster sufficient statistics and scalar aggregates so that
//!   [`objective::ClusterStats::delta_j_add`] /
//!   [`objective::ClusterStats::delta_j_remove`] price a relocation in
//!   O(m), and [`pruning::best_candidate`] batches candidate clusters in
//!   threes through the fused `dot3` pass.
//! * **Pruning tiers** — [`pruning`] caches each object's best/second-best
//!   deltas and bounds how much any cluster's delta can have drifted since
//!   (tier 0 globally in O(1), tier 1 per cluster in O(k), tier 2
//!   confirming a still-winning argmin with two dot products), skipping
//!   provably redundant scans *exactly*: pruned runs produce byte-identical
//!   labels (env knob `UCPC_PRUNING`, [`pruning::PruningConfig`]).
//!
//! Everything above those layers is orchestration: initialization
//! ([`init::Initializer`]), restarts, the incremental driver's
//! invalidation bookkeeping, and the shared [`framework`] types. The
//! parallel drivers ([`parallel::ParallelUcpc`]'s propose phase,
//! [`restarts::BestOfRestarts`]'s restart queue) share the work-stealing
//! [`scheduler::WorkPool`] and the `UCPC_THREADS` resolution helper
//! ([`scheduler::resolve_threads`]); [`parallel::SharedStats`] adds
//! per-cluster version counters so the propose phase runs snapshot-free.
//! The streaming driver ([`incremental::IncrementalUcpc`]) stores its live
//! window in a [`ucpc_uncertain::SlabArena`] (free-list row reuse), routes
//! placements through the dot3-batched [`pruning::best_insertion`] scan,
//! and performs edits through the drift-tracked updates so pruning bounds
//! survive them — only a cluster passing through size < 2 surgically
//! invalidates the entries rooted in it, via the per-cluster version
//! counters of [`pruning`]. [`snapshot`] serializes it in one checksummed,
//! chunked format; [`serving`] and [`wal`] put a batched, write-ahead-logged
//! front door on it.
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use ucpc_core::{Ucpc, framework::UncertainClusterer};
//! use ucpc_uncertain::{UncertainObject, UnivariatePdf};
//!
//! // Six uncertain points in two obvious groups.
//! let data: Vec<UncertainObject> = [0.0, 0.2, 0.4, 9.0, 9.2, 9.4]
//!     .iter()
//!     .map(|&c| UncertainObject::new(vec![UnivariatePdf::normal(c, 0.1)]))
//!     .collect();
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let result = Ucpc::default().run(&data, 2, &mut rng).unwrap();
//! assert!(result.converged);
//! assert_eq!(result.clustering.label(0), result.clustering.label(1));
//! assert_ne!(result.clustering.label(0), result.clustering.label(5));
//! ```

#![warn(missing_docs)]

mod crc;
pub mod fault;
pub mod framework;
pub mod incremental;
pub mod init;
pub mod objective;
pub mod parallel;
pub mod pruning;
pub mod restarts;
pub mod scheduler;
pub mod serving;
pub mod snapshot;
pub mod ucentroid;
pub mod ucpc;
pub mod wal;

pub use fault::{IoFaultPlan, ManualClock};

pub use framework::{ClusterError, Clustering, UncertainClusterer};
pub use init::Initializer;
pub use objective::ClusterStats;
pub use pruning::{PruneCounters, PruningConfig};
pub use serving::{
    Clock, PlacementAnswer, ServingConfig, ServingError, ServingResponse, ServingUcpc, SystemClock,
};
pub use snapshot::SnapshotError;
pub use ucentroid::UCentroid;
pub use ucpc::{Ucpc, UcpcResult};
pub use wal::{
    apply_record, recover, scan_wal, DurableIo, IoFault, LeF64s, LoggedMoments, Recovery,
    SharedVecIo, VecIo, WalDamage, WalError, WalFsync, WalRecord, WalScan, WalWriter,
};
