//! `batch_kdd`: the paper's Fig. 5 workload — UCPC to convergence on the
//! KDD Cup '99 analogue, from a fixed set of initial-partition seeds.
//!
//! The relocation scan (`pruning`, `objective`, `simd`) does nearly all the
//! work here; `serving`, `wal` and `snapshot` do none.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ucpc_core::objective::ClusterStats;
use ucpc_core::{PruneCounters, Ucpc, UcpcResult};
use ucpc_eval::f_measure;
use ucpc_uncertain::{MomentArena, UncertainObject};

use crate::shape::BatchInput;
use crate::tally::Tally;
use crate::trace::Tracer;

/// Base of the fixed initial-partition seed set: seed `s` of the set is
/// `INIT_SEED_BASE + s` whatever the workload seed, so a run's pass counts
/// depend only on the data.
const INIT_SEED_BASE: u64 = 1_000;

/// Relative tolerance of the objective-rebuild check. The search updates
/// cluster statistics in relocation order and the rebuild sums members in
/// index order, so the two agree to rounding, not bit for bit.
const REBUILD_RTOL: f64 = 1e-9;

/// Builds the moment arena from the pdf assignment: the batch phase's part
/// of a set-up (`rep` numbers the set-up in the trace).
pub fn setup(input: &BatchInput, rep: usize, tr: &mut Tracer) -> MomentArena {
    let sp = tr.begin("arena.build", rep as u64);
    let arena = input.assignment.uncertain_arena();
    tr.end(sp);
    arena
}

/// What the batch phase measured, accumulated over the rounds of a run.
#[derive(Debug, Default)]
pub struct BatchOut {
    /// Every timed run (initial partition + search), ms.
    pub run_ms: Vec<f64>,
    /// Per run: the factor scaling its time to the nominal host
    /// ([`crate::host`]), set by [`Self::close_round`].
    pub scale: Vec<f64>,
    /// Runs timed, repeats included.
    pub runs: usize,
    /// Sum of the F-measures against the reference classes (first runs).
    pub fmeasure_sum: f64,
    /// Passes summed over the seeds' first runs.
    pub iterations: u64,
    /// Relocations summed over the seeds' first runs.
    pub relocations: u64,
    /// Pruning counters summed over the seeds' first runs.
    pub counters: PruneCounters,
    /// Run time summed over the seeds' first runs, ms.
    pub first_ms: f64,
    /// Final labels per seed index, once it has run.
    pub labels: Vec<Option<Vec<usize>>>,
}

impl BatchOut {
    /// Sets `scale` on the runs since the last call.
    pub fn close_round(&mut self, scale: f64) {
        self.scale.resize(self.run_ms.len(), scale);
    }

    /// Every run's time scaled to the nominal host, ms.
    pub fn scaled_ms(&self) -> Vec<f64> {
        self.run_ms
            .iter()
            .zip(&self.scale)
            .map(|(t, s)| t * s)
            .collect()
    }

    /// Mean F-measure over the seeds run.
    pub fn fmeasure(&self) -> f64 {
        self.fmeasure_sum / self.labels.iter().flatten().count().max(1) as f64
    }

    /// Final labels of the lowest seed that ran, for probes.
    pub fn first_labels(&self) -> &[usize] {
        self.labels
            .iter()
            .flatten()
            .next()
            .map_or(&[], Vec::as_slice)
    }
}

/// One run: initial partition from seed `INIT_SEED_BASE + s`, then the
/// search to convergence; every output check is counted into `tally`.
fn one_run(
    input: &BatchInput,
    arena: &MomentArena,
    ucpc: &Ucpc,
    s: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Option<(UcpcResult, f64)> {
    let k = input.k;
    let mut rng = StdRng::seed_from_u64(INIT_SEED_BASE + s as u64);
    let root = tr.begin("batch.run", s as u64);
    let t = Instant::now();
    let sp = tr.begin("init.partition", s as u64);
    let labels = ucpc.init.initial_partition(&input.objects, k, &mut rng);
    tr.end(sp);
    let sp = tr.begin("ucpc.run_on_arena", s as u64);
    let result = ucpc.run_on_arena(arena, k, labels);
    tr.end(sp);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(root);
    let res = match result {
        Ok(res) => res,
        Err(e) => {
            tally.record(false, || format!("batch run seed {s}: {e}"));
            return None;
        }
    };
    tally.ok(1);
    tally.check(res.converged, || {
        format!(
            "batch seed {s}: no convergence in {} passes",
            res.iterations
        )
    });
    let monotone = res.objective_trace.windows(2).all(|w| w[1] <= w[0]);
    tally.check(monotone, || {
        format!("batch seed {s}: objective trace increases")
    });
    let rebuilt = rebuilt_objective(&input.objects, res.clustering.labels(), k);
    let tol = REBUILD_RTOL * res.objective.abs().max(1.0);
    tally.check((rebuilt - res.objective).abs() <= tol, || {
        format!(
            "batch seed {s}: objective {} vs rebuild {rebuilt}",
            res.objective
        )
    });
    Some((res, ms))
}

/// Runs each seed index of `seeds` once. A seed's first run records its
/// F-measure, counts and labels; a later run must reproduce the labels.
pub fn run(
    input: &BatchInput,
    arena: &MomentArena,
    seeds: &[usize],
    out: &mut BatchOut,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let ucpc = Ucpc::default();
    for &s in seeds {
        let Some((res, ms)) = one_run(input, arena, &ucpc, s, tr, tally) else {
            continue;
        };
        out.runs += 1;
        if out.labels.len() <= s {
            out.labels.resize(s + 1, None);
        }
        let labels = res.clustering.labels();
        match &out.labels[s] {
            Some(before) => tally.check(before.as_slice() == labels, || {
                format!("batch seed {s}: labels differ between runs of one seed")
            }),
            None => {
                out.fmeasure_sum += f_measure(&res.clustering, &input.classes);
                out.iterations += res.iterations as u64;
                out.relocations += res.relocations as u64;
                out.counters.merge(res.pruning);
                out.first_ms += ms;
                out.labels[s] = Some(labels.to_vec());
            }
        }
        out.run_ms.push(ms);
    }
}

/// Total objective of `labels` rebuilt from scratch with
/// [`ClusterStats::from_members`].
fn rebuilt_objective(objects: &[UncertainObject], labels: &[usize], k: usize) -> f64 {
    let mut members: Vec<Vec<&UncertainObject>> = vec![Vec::new(); k];
    for (o, &c) in objects.iter().zip(labels) {
        members[c].push(o);
    }
    members
        .iter()
        .filter(|m| !m.is_empty())
        .map(|m| ClusterStats::from_members(m.iter().copied()).j())
        .sum()
}
