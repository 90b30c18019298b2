//! Workload shapes and the seeded input generators.
//!
//! A run executes three phases — `batch_kdd`, `serve_open` and `churn_wal` —
//! on the inputs of one [`Shape`]. The program under test receives only the
//! generated inputs: the KDD Cup '99 analogue for the batch phase, and a
//! window plus an arrival pool of Gaussian blobs for the serving phases.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ucpc_datasets::benchmark::{generate, DatasetSpec, LabeledDataset, KDDCUP99};
use ucpc_datasets::uncertainty::{NoiseKind, PdfAssignment, UncertaintyModel};
use ucpc_uncertain::{MomentArena, Moments, UncertainObject};

/// Sizes, rates and limits of one benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Objects of the KDD Cup '99 analogue (m = 42, 23 classes).
    pub batch_n: usize,
    /// Size of the fixed set of `Initializer` seeds the batch phase runs.
    pub batch_seeds: usize,
    /// Objects in the settled serving window.
    pub window_n: usize,
    /// Dimensions of the blob data.
    pub m: usize,
    /// Clusters (and blob classes) of the serving window.
    pub k: usize,
    /// Distinct arrivals the open loop and the churn loop cycle through.
    pub pool: usize,
    /// The open loop's two fixed rates, requests per second.
    pub rate_lo: f64,
    /// See [`Self::rate_lo`].
    pub rate_hi: f64,
    /// First rung of the limit-rate ladder, requests per second.
    pub ladder_start: f64,
    /// Latency limit on the p99, microseconds from the due time.
    pub slo_us: f64,
    /// Edits (remove + commit) per churn session.
    pub churn_edits: usize,
    /// An explicit stabilization is submitted every this many commits.
    pub stabilize_every: usize,
}

impl Shape {
    /// The paper's row widths at a size that stays in a core's L2 cache:
    /// the KDD'99 analogue (m = 42) at n = 2,000, and a window of n = 2,000
    /// blobs with m = 32, k = 20. The SIMD dot kernels are dispatched
    /// (m ≥ 16).
    pub const WIDE: Shape = Shape {
        name: "wide",
        batch_n: 2_000,
        batch_seeds: 160,
        window_n: 2_000,
        m: 32,
        k: 20,
        pool: 4_096,
        rate_lo: 100_000.0,
        rate_hi: 200_000.0,
        ladder_start: 300_000.0,
        slo_us: 200.0,
        churn_edits: 40_000,
        stabilize_every: 1_000,
    };

    /// Narrow rows: the KDD'99 analogue at n = 1,000; a window of
    /// n = 2,000 blobs with m = 8, k = 5. m < 16 takes the undispatched dot
    /// path, and per-request overhead dominates.
    pub const SMALL: Shape = Shape {
        name: "small",
        batch_n: 1_000,
        batch_seeds: 256,
        window_n: 2_000,
        m: 8,
        k: 5,
        pool: 4_096,
        rate_lo: 150_000.0,
        rate_hi: 300_000.0,
        ladder_start: 700_000.0,
        slo_us: 200.0,
        churn_edits: 50_000,
        stabilize_every: 1_000,
    };

    /// A tiny shape for the smoke test: every phase and check, in well under
    /// a second.
    pub const TINY: Shape = Shape {
        name: "tiny",
        batch_n: 300,
        batch_seeds: 6,
        window_n: 200,
        m: 4,
        k: 3,
        pool: 64,
        rate_lo: 5_000.0,
        rate_hi: 20_000.0,
        ladder_start: 10_000.0,
        slo_us: 2_000.0,
        churn_edits: 400,
        stabilize_every: 100,
    };

    /// The shape `--workload name` selects.
    pub fn by_name(name: &str) -> Option<Shape> {
        [Self::WIDE, Self::SMALL]
            .into_iter()
            .find(|s| s.name == name)
    }
}

/// A seed for one independent input stream of a run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finalizer: nearby (seed, stream) pairs give unrelated seeds.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the fixed population every sample is drawn from.
const POPULATION_SEED: u64 = 2012;
/// The population holds this many times the objects a sample needs.
const POPULATION_FACTOR: usize = 2;

/// Draws `n` objects from a fixed population of `spec` (class prototypes
/// and points generated from [`POPULATION_SEED`]), choosing them with
/// `rng`: like the paper's Fig. 5 subsets of the one KDD Cup '99 dataset,
/// seeds change the sample, not the class structure, so figures from
/// different seeds measure the same difficulty. Points come out in random
/// order with their class labels.
fn sample(spec: DatasetSpec, n: usize, rng: &mut StdRng) -> LabeledDataset {
    let population = generate(
        DatasetSpec {
            objects: n * POPULATION_FACTOR,
            ..spec
        },
        &mut StdRng::seed_from_u64(POPULATION_SEED),
    );
    let mut idx: Vec<usize> = (0..population.len()).collect();
    idx.shuffle(rng);
    idx.truncate(n);
    LabeledDataset {
        spec,
        points: idx.iter().map(|&i| population.points[i].clone()).collect(),
        labels: idx.iter().map(|&i| population.labels[i]).collect(),
    }
}

/// Normal pdfs of the paper's uncertainty model over a sample, spread by
/// the sample's own per-dimension deviations.
fn assign(data: &LabeledDataset, rng: &mut StdRng) -> PdfAssignment {
    let model = UncertaintyModel::paper_default(NoiseKind::Normal);
    PdfAssignment::assign(&data.points, &data.dim_std(), &model, rng)
}

/// Inputs of the batch phase: the KDD'99 analogue with Normal pdfs.
pub struct BatchInput {
    /// Case-2 uncertain objects (initial partitions and the rebuild check).
    pub objects: Vec<UncertainObject>,
    /// The pdf assignment the arena is built from during set-up.
    pub assignment: PdfAssignment,
    /// Reference classes for the F-measure.
    pub classes: Vec<usize>,
    /// Clusters requested: the number of classes.
    pub k: usize,
}

/// Generates the batch phase's inputs from `seed`.
pub fn batch_input(shape: &Shape, seed: u64) -> BatchInput {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    let data = sample(KDDCUP99, shape.batch_n, &mut rng);
    let assignment = assign(&data, &mut rng);
    BatchInput {
        objects: assignment.uncertain_objects(),
        assignment,
        classes: data.labels,
        k: KDDCUP99.classes,
    }
}

/// Inputs of the serving phases: a window to settle and an arrival pool.
pub struct WindowInput {
    /// Objects committed during set-up, in order.
    pub window: Vec<Moments>,
    /// Arrivals the measured loops cycle through.
    pub pool: Vec<Moments>,
    /// Dimensions.
    pub m: usize,
    /// Clusters.
    pub k: usize,
}

/// Generates `window_n + pool` Gaussian-blob objects (k classes, Normal pdfs
/// of the paper's uncertainty model) from `seed`.
pub fn window_input(shape: &Shape, seed: u64) -> WindowInput {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let spec = DatasetSpec {
        name: "blobs",
        objects: 0,
        attributes: shape.m,
        classes: shape.k,
    };
    let data = sample(spec, shape.window_n + shape.pool, &mut rng);
    let arena: MomentArena = assign(&data, &mut rng).uncertain_arena();
    let mut all: Vec<Moments> = (0..arena.len())
        .map(|i| Moments::from_mu_mu2(arena.mu_row(i).to_vec(), arena.mu2_row(i).to_vec()))
        .collect();
    let pool = all.split_off(shape.window_n.min(all.len()));
    WindowInput {
        window: all,
        pool,
        m: shape.m,
        k: shape.k,
    }
}
