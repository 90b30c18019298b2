//! Per-layer probes for the traced run: single library calls timed in tight
//! loops over the run's own data, plus the operations and bytes each call
//! must compute and move (derived from the shapes, labelled `computed`).

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucpc_core::objective::ClusterStats;
use ucpc_core::pruning::{best_candidate, best_insertion};
use ucpc_core::wal::{VecIo, WalFsync, WalWriter};
use ucpc_uncertain::simd::dot_block;
use ucpc_uncertain::{MomentArena, Moments};

use crate::stats::median;

/// Timed repetitions per probe; the median per-call time is reported.
const REPS: usize = 7;

/// Median over [`REPS`] of `f`'s wall time divided by `calls`, ns per call.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&v)
}

/// Cluster statistics of `labels` over `arena`, rebuilt from scratch.
pub fn stats_of(arena: &MomentArena, labels: &[usize], k: usize) -> Vec<ClusterStats> {
    let mut stats = vec![ClusterStats::empty(arena.dims()); k];
    for (i, &c) in labels.iter().enumerate() {
        stats[c].add_view(&arena.view(i));
    }
    stats
}

/// Relocation-scan probes over a final partition.
#[derive(Debug, Clone, Copy)]
pub struct ScanProbe {
    /// `pruning::best_candidate`, ns per object.
    pub best_candidate_ns: f64,
    /// `ClusterStats::delta_j_remove`, ns per object.
    pub delta_j_remove_ns: f64,
    /// `ClusterStats::add_view`, ns per object.
    pub add_view_ns: f64,
    /// `ClusterStats::remove_view`, ns per object.
    pub remove_view_ns: f64,
}

/// Times the relocation scan's building blocks over every object of
/// `arena` under `labels`.
pub fn scan(arena: &MomentArena, labels: &[usize], k: usize) -> ScanProbe {
    let stats = stats_of(arena, labels, k);
    let n = labels.len();
    let best_candidate_ns = per_call_ns(n, || {
        for (i, &c) in labels.iter().enumerate() {
            black_box(best_candidate(&stats, c, &arena.view(i)));
        }
    });
    let delta_j_remove_ns = per_call_ns(n, || {
        for (i, &c) in labels.iter().enumerate() {
            black_box(stats[c].delta_j_remove(&arena.view(i)));
        }
    });
    let mut work = stats.clone();
    let (mut add, mut remove) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        for (i, &c) in labels.iter().enumerate() {
            work[c].remove_view(&arena.view(i));
        }
        remove.push(t.elapsed().as_nanos() as f64 / n.max(1) as f64);
        let t = Instant::now();
        for (i, &c) in labels.iter().enumerate() {
            work[c].add_view(&arena.view(i));
        }
        add.push(t.elapsed().as_nanos() as f64 / n.max(1) as f64);
    }
    black_box(&work);
    ScanProbe {
        best_candidate_ns,
        delta_j_remove_ns,
        add_view_ns: median(&add),
        remove_view_ns: median(&remove),
    }
}

/// Operations one `best_candidate` call computes: the removal delta and
/// `k − 1` candidate deltas, each one m-long fused dot (2 flops per
/// element).
pub fn best_candidate_ops(m: usize, k: usize) -> f64 {
    (2 * m * k) as f64
}

/// Bytes one `best_candidate` call reads: the object's `mu` row and the
/// `mean_sum` row of all `k` clusters.
pub fn best_candidate_bytes(m: usize, k: usize) -> f64 {
    (8 * m * (k + 1)) as f64
}

/// Rows per `dot_block` call in the probe: the serving micro-batch.
pub const DOT_BLOCK_ROWS: usize = 16;

/// `simd::dot_block` at width `m` on seeded synthetic rows, ns per row.
pub fn dot_block_ns_per_row(m: usize, seed: u64) -> f64 {
    const ROWS: usize = 4_096;
    let mut rng = StdRng::seed_from_u64(seed);
    let mu: Vec<f64> = (0..ROWS * m).map(|_| rng.gen_range(-5.0..5.0)).collect();
    let x: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
    let idx: Vec<u32> = (0..ROWS as u32).collect();
    let mut out = [0.0f64; DOT_BLOCK_ROWS];
    per_call_ns(ROWS, || {
        for block in idx.chunks_exact(DOT_BLOCK_ROWS) {
            dot_block(&x, &mu, block, &mut out);
            black_box(&out);
        }
    })
}

/// Operations one `dot_block` call of [`DOT_BLOCK_ROWS`] rows computes.
pub fn dot_block_ops(m: usize) -> f64 {
    (2 * m * DOT_BLOCK_ROWS) as f64
}

/// Bytes one `dot_block` call moves: the block's rows, the shared row, the
/// row indices and the outputs.
pub fn dot_block_bytes(m: usize) -> f64 {
    (8 * m * (DOT_BLOCK_ROWS + 1) + 4 * DOT_BLOCK_ROWS + 8 * DOT_BLOCK_ROWS) as f64
}

/// `pruning::best_insertion` of every pool arrival against `stats`, ns per
/// arrival.
pub fn best_insertion_ns(stats: &[ClusterStats], pool: &[Moments]) -> f64 {
    per_call_ns(pool.len(), || {
        for mo in pool {
            black_box(best_insertion(stats, &mo.view()));
        }
    })
}

/// WAL framing probes on a fresh `WalWriter<VecIo>` with the run's rows.
#[derive(Debug, Clone, Copy)]
pub struct WalProbe {
    /// `log_commit`, ns per frame.
    pub log_commit_ns: f64,
    /// `group_commit` under the default fsync policy, ns per call.
    pub group_commit_ns: f64,
}

/// Times commit framing over `pool`'s rows, then one group commit per row.
pub fn wal(pool: &[Moments]) -> WalProbe {
    let m = pool.first().map_or(1, Moments::dims);
    let fresh = || WalWriter::create(VecIo::new(), m, WalFsync::default()).expect("in-memory");
    let n = pool.len();
    let log_commit_ns = per_call_ns(n, || {
        let mut w = fresh();
        for mo in pool {
            w.log_commit(mo.mu(), mo.mu2()).expect("in-memory");
        }
        black_box(w.frames());
    });
    let mut w = fresh();
    w.log_commit(pool[0].mu(), pool[0].mu2())
        .expect("in-memory");
    let group_commit_ns = per_call_ns(n, || {
        for _ in 0..n {
            // Opaque to the optimizer, so the calls are not merged.
            black_box(&mut w).group_commit().expect("in-memory");
        }
        black_box(w.io().syncs());
    });
    WalProbe {
        log_commit_ns,
        group_commit_ns,
    }
}
