//! The uncertainty-generation pipeline of Section 5.1.
//!
//! Given a deterministic labelled dataset `D`, the paper:
//!
//! 1. assigns every point `w` a pdf `f_w` (Uniform, Normal or Exponential)
//!    with `E[f_w] = w` and all other parameters random;
//! 2. **Case 1** — builds a *perturbed* deterministic dataset `D'` by adding
//!    to each point noise sampled from `f_w` (Monte Carlo or MCMC);
//! 3. **Case 2** — builds an *uncertain* dataset `D''` whose objects are
//!    `(R, f_w)` with `R` the region containing most (95%) of `f_w`'s mass.
//!
//! Clustering `D'` ignores uncertainty; clustering `D''` models it. The score
//! `Θ = F(C'') − F(C')` then measures the benefit of modelling uncertainty.
//!
//! Spread parameters are drawn relative to each dimension's standard
//! deviation so the injected uncertainty is meaningful at every dataset's
//! scale (the paper leaves the random ranges unspecified).

use rand::Rng;
use rand::RngCore;
use ucpc_uncertain::sampling::Metropolis;
use ucpc_uncertain::{Coverage, MomentArena, PdfFamily, UncertainObject, UnivariatePdf};

/// The pdf family injected into a benchmark dataset (the paper's "U", "N",
/// "E" table columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseKind {
    /// Uniform pdfs.
    Uniform,
    /// Normal pdfs.
    Normal,
    /// (Shifted) Exponential pdfs.
    Exponential,
}

impl NoiseKind {
    /// All three families, paper order.
    pub fn all() -> [NoiseKind; 3] {
        [
            NoiseKind::Uniform,
            NoiseKind::Normal,
            NoiseKind::Exponential,
        ]
    }

    /// Table-column label ("U", "N", "E").
    pub fn label(&self) -> &'static str {
        match self {
            NoiseKind::Uniform => "U",
            NoiseKind::Normal => "N",
            NoiseKind::Exponential => "E",
        }
    }

    /// The corresponding pdf family.
    pub fn family(&self) -> PdfFamily {
        match self {
            NoiseKind::Uniform => PdfFamily::Uniform,
            NoiseKind::Normal => PdfFamily::Normal,
            NoiseKind::Exponential => PdfFamily::Exponential,
        }
    }
}

/// How Case-1 perturbation noise is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PerturbMethod {
    /// Classic Monte Carlo (inverse-CDF draws).
    #[default]
    MonteCarlo,
    /// Markov-Chain Monte Carlo (random-walk Metropolis on the density).
    Mcmc,
}

/// Where the Case-2 uncertain object is centered.
///
/// Section 5.1's text derives `D''` objects directly from the original points
/// (`f = f_w`), which is [`Centering::TrueValue`], the default.
/// [`Centering::Observed`] instead translates the noise model onto the
/// observed (perturbed) value — the representation an application that only
/// ever sees noisy measurements would actually hold. Under observed
/// centering Case 1 and Case 2 share their expected values, so Θ isolates
/// *pure* variance-awareness; under true-value centering Case 2 additionally
/// benefits from noise-free expected values, as in the paper's protocol.
/// DESIGN.md discusses the trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Centering {
    /// Center `f` on the original point (`f = f_w`, the literal Section-5.1
    /// protocol; default).
    #[default]
    TrueValue,
    /// Center `f` on the observed (perturbed) value.
    Observed,
}

/// How the random spread of each assigned pdf scales with the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpreadScaling {
    /// Proportional to the measured value's magnitude (relative/percentage
    /// error — the regime of real sensors and of microarray probe noise,
    /// where uncertainty is informative because it co-varies with the
    /// signal). A floor of 20% of the dimension's standard deviation keeps
    /// near-zero values from becoming deterministic. Default.
    #[default]
    Magnitude,
    /// Proportional to the dimension's standard deviation only (homoscedastic
    /// noise: spreads are pure noise, uninformative about class structure).
    DimStd,
}

/// Uncertainty-generation configuration.
#[derive(Debug, Clone)]
pub struct UncertaintyModel {
    /// Injected pdf family.
    pub kind: NoiseKind,
    /// Spread range: each point/dimension draws a factor uniformly from this
    /// range and multiplies it by the [`SpreadScaling`] base.
    pub spread_range: (f64, f64),
    /// Probability mass the Case-2 domain region must contain (paper: 0.95).
    pub coverage: f64,
    /// Case-1 sampling method.
    pub perturb: PerturbMethod,
    /// Case-2 centering (see [`Centering`]).
    pub centering: Centering,
    /// Spread scaling regime (see [`SpreadScaling`]).
    pub scaling: SpreadScaling,
}

impl UncertaintyModel {
    /// The paper's configuration for a given pdf family: random spreads,
    /// 95% coverage regions, Monte Carlo perturbation, true-value centering,
    /// magnitude-proportional spreads.
    pub fn paper_default(kind: NoiseKind) -> Self {
        Self {
            kind,
            spread_range: (0.15, 0.6),
            coverage: 0.95,
            perturb: PerturbMethod::MonteCarlo,
            centering: Centering::TrueValue,
            scaling: SpreadScaling::Magnitude,
        }
    }
}

/// A paired Case-1/Case-2 dataset sharing one noise realization: `observed`
/// is the perturbed deterministic dataset `D'`, `uncertain` is the uncertain
/// dataset `D''` whose objects carry the noise model that produced the
/// corresponding observation.
#[derive(Debug, Clone)]
pub struct PairedDatasets {
    /// Case 1: point-mass objects at the observed values.
    pub observed: Vec<UncertainObject>,
    /// Case 2: uncertain objects with `coverage`-regions.
    pub uncertain: Vec<UncertainObject>,
}

/// The assigned pdfs `f_w` of every point (one pdf per point per dimension).
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use ucpc_datasets::uncertainty::{NoiseKind, PdfAssignment, UncertaintyModel};
///
/// let points = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
/// let dim_std = vec![1.0, 1.0];
/// let model = UncertaintyModel::paper_default(NoiseKind::Normal);
/// let mut rng = StdRng::seed_from_u64(7);
/// let assignment = PdfAssignment::assign(&points, &dim_std, &model, &mut rng);
///
/// // Section 5.1: every assigned pdf's expected value is the point itself.
/// assert!((assignment.of(0)[0].mean() - 0.0).abs() < 1e-9);
///
/// // Case 1 (perturbed deterministic) and Case 2 (uncertain) datasets:
/// let pair = assignment.paired(&mut rng);
/// assert!(pair.observed[0].is_deterministic());
/// assert!(pair.uncertain[0].total_variance() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PdfAssignment {
    pdfs: Vec<Vec<UnivariatePdf>>,
    coverage: f64,
    perturb: PerturbMethod,
    centering: Centering,
}

impl PdfAssignment {
    /// Step 1 of Section 5.1: assigns every point a pdf with expected value
    /// exactly at the point and random spread scaled by `dim_std`.
    pub fn assign(
        points: &[Vec<f64>],
        dim_std: &[f64],
        model: &UncertaintyModel,
        rng: &mut dyn RngCore,
    ) -> Self {
        assert!(!points.is_empty(), "no points to assign pdfs to");
        let (lo, hi) = model.spread_range;
        assert!(lo > 0.0 && hi >= lo, "invalid spread range ({lo}, {hi})");
        let pdfs = points
            .iter()
            .map(|p| {
                assert_eq!(p.len(), dim_std.len(), "dimension mismatch");
                p.iter()
                    .zip(dim_std)
                    .map(|(&w, &sd_j)| {
                        let base = match model.scaling {
                            SpreadScaling::DimStd => sd_j,
                            SpreadScaling::Magnitude => w.abs().max(0.2 * sd_j),
                        };
                        let spread = rng.gen_range(lo..=hi) * base;
                        match model.kind {
                            NoiseKind::Uniform => {
                                // Half-width so that Var = spread^2/3.
                                UnivariatePdf::uniform_centered(w, spread)
                            }
                            NoiseKind::Normal => UnivariatePdf::normal(w, spread),
                            NoiseKind::Exponential => {
                                // Rate so that sd = spread; mean stays at w.
                                UnivariatePdf::exponential_with_mean(w, 1.0 / spread)
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            pdfs,
            coverage: model.coverage,
            perturb: model.perturb,
            centering: model.centering,
        }
    }

    /// Number of points covered.
    pub fn len(&self) -> usize {
        self.pdfs.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.pdfs.is_empty()
    }

    /// The pdfs of point `i`.
    pub fn of(&self, i: usize) -> &[UnivariatePdf] {
        &self.pdfs[i]
    }

    /// Case 1: the perturbed deterministic dataset `D'` — each point replaced
    /// by one realization of its pdf, drawn by MC or MCMC.
    pub fn perturbed_points(&self, rng: &mut dyn RngCore) -> Vec<Vec<f64>> {
        let mcmc = Metropolis::default();
        self.pdfs
            .iter()
            .map(|dims| {
                dims.iter()
                    .map(|pdf| match self.perturb {
                        PerturbMethod::MonteCarlo => pdf.sample(rng),
                        PerturbMethod::Mcmc => {
                            let init = pdf.mean();
                            mcmc.sample(|x| pdf.density(x), init, 1, rng)[0]
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Case 1 as degenerate uncertain objects (point masses), ready for any
    /// `UncertainClusterer` implementation in `ucpc-core`.
    pub fn perturbed_objects(&self, rng: &mut dyn RngCore) -> Vec<UncertainObject> {
        self.perturbed_points(rng)
            .iter()
            .map(|p| UncertainObject::deterministic(p))
            .collect()
    }

    /// Case 2: the uncertain dataset `D''` — objects `(R, f_w)` with `R` the
    /// region containing `coverage` of the mass and `f_w` renormalized on it
    /// (true-value centering; see [`PdfAssignment::paired`] for the observed
    /// protocol).
    pub fn uncertain_objects(&self) -> Vec<UncertainObject> {
        self.pdfs
            .iter()
            .map(|dims| UncertainObject::with_coverage(dims.clone(), self.coverage))
            .collect()
    }

    /// Case 2 written straight into a borrowed [`MomentArena`] — the
    /// arena-native batch pipeline. Appends one row per assigned point,
    /// bit-identical to `MomentArena::from_objects(&self.uncertain_objects())`
    /// (the same [`UnivariatePdf::truncate_to_coverage`] and
    /// [`UnivariatePdf::moments`], fed through
    /// [`MomentArena::push_row_with`]).
    ///
    /// The work per (point, dimension) is one moment evaluation: the
    /// coverage level's quantiles are evaluated once per call (one
    /// [`Coverage`]), and each truncated pdf's `(mu, mu_2)` comes from one
    /// evaluation of its family's shared terms — four `exp` calls for a
    /// Normal. The fill makes **zero per-object heap allocations**: no
    /// `UncertainObject`, no `Moments`, no pdf vectors — each truncated pdf
    /// lives on the stack just long enough to yield its pair. Capacity for
    /// all rows is reserved up front, so after that single reservation the
    /// fill does not touch the allocator at all (pinned by the
    /// counting-allocator test in `tests/alloc_free_pipeline.rs`).
    pub fn assign_into_arena(&self, arena: &mut MomentArena) {
        let m = self.pdfs.first().map_or(0, Vec::len);
        arena.reserve_rows(self.len(), m);
        let cov = Coverage::new(self.coverage);
        for dims in &self.pdfs {
            arena.push_row_with(dims.len(), |j| {
                let pdf = &dims[j];
                // A point mass is kept as it is, as in
                // `UncertainObject::with_coverage`.
                match pdf.truncate_to_coverage(&cov) {
                    Some(t) => t.moments(),
                    None => pdf.moments(),
                }
            });
        }
    }

    /// Convenience wrapper over [`PdfAssignment::assign_into_arena`]: the
    /// Case-2 dataset as a freshly reserved arena.
    pub fn uncertain_arena(&self) -> MomentArena {
        let m = self.pdfs.first().map_or(0, Vec::len);
        let mut arena = MomentArena::with_capacity(self.len(), m);
        self.assign_into_arena(&mut arena);
        arena
    }

    /// Builds the paired Case-1/Case-2 datasets from **one** shared noise
    /// realization: each point is observed once through its pdf; `D'` holds
    /// the bare observations and `D''` holds uncertain objects centered per
    /// the configured [`Centering`] — on the observation (realistic default:
    /// the noise model travels with the measured value) or on the true point
    /// (the literal Section-5.1 text).
    pub fn paired(&self, rng: &mut dyn RngCore) -> PairedDatasets {
        let observations = self.perturbed_points(rng);
        let observed = observations
            .iter()
            .map(|p| UncertainObject::deterministic(p))
            .collect();
        let uncertain = self
            .pdfs
            .iter()
            .zip(&observations)
            .map(|(dims, obs)| {
                let centered: Vec<UnivariatePdf> = match self.centering {
                    Centering::TrueValue => dims.clone(),
                    Centering::Observed => dims
                        .iter()
                        .zip(obs)
                        .map(|(pdf, &o)| pdf.translate(o - pdf.mean()))
                        .collect(),
                };
                UncertainObject::with_coverage(centered, self.coverage)
            })
            .collect();
        PairedDatasets {
            observed,
            uncertain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid_points() -> (Vec<Vec<f64>>, Vec<f64>) {
        let points: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i % 5) as f64 * 2.0])
            .collect();
        (points, vec![5.0, 3.0])
    }

    #[test]
    fn assigned_pdfs_have_expected_value_at_the_point() {
        let (points, std) = grid_points();
        let mut rng = StdRng::seed_from_u64(60);
        for kind in NoiseKind::all() {
            let model = UncertaintyModel::paper_default(kind);
            let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
            for (i, p) in points.iter().enumerate() {
                for (j, &w) in p.iter().enumerate() {
                    let mu = a.of(i)[j].mean();
                    assert!(
                        (mu - w).abs() < 1e-9,
                        "{kind:?}: E[f_w] = {mu}, want {w} (Section 5.1 requirement)"
                    );
                }
            }
        }
    }

    #[test]
    fn case2_objects_have_finite_regions_with_coverage() {
        let (points, std) = grid_points();
        let mut rng = StdRng::seed_from_u64(61);
        let model = UncertaintyModel::paper_default(NoiseKind::Normal);
        let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
        let objects = a.uncertain_objects();
        assert_eq!(objects.len(), points.len());
        for o in &objects {
            for side in o.region().sides() {
                assert!(side.lo.is_finite() && side.hi.is_finite());
                assert!(side.width() > 0.0);
            }
        }
    }

    #[test]
    fn arena_pipeline_matches_the_object_route_bit_for_bit() {
        let (points, std) = grid_points();
        for (s, kind) in NoiseKind::all().into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(70 + s as u64);
            let model = UncertaintyModel::paper_default(kind);
            let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
            let via_objects = MomentArena::from_objects(&a.uncertain_objects());
            let direct = a.uncertain_arena();
            assert_eq!(
                direct, via_objects,
                "{kind:?}: arena-native fill diverged from the object route"
            );
        }
    }

    #[test]
    fn assign_into_arena_appends_to_an_existing_arena() {
        let (points, std) = grid_points();
        let mut rng = StdRng::seed_from_u64(72);
        let model = UncertaintyModel::paper_default(NoiseKind::Normal);
        let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
        let mut arena = a.uncertain_arena();
        let first = arena.len();
        a.assign_into_arena(&mut arena);
        assert_eq!(arena.len(), 2 * first);
        // Appended rows repeat the first batch exactly.
        for i in 0..first {
            assert_eq!(arena.mu_row(i), arena.mu_row(first + i));
            assert_eq!(arena.var_row(i), arena.var_row(first + i));
        }
    }

    #[test]
    fn case1_monte_carlo_perturbation_is_unbiased() {
        let (points, std) = grid_points();
        let mut rng = StdRng::seed_from_u64(62);
        let model = UncertaintyModel::paper_default(NoiseKind::Uniform);
        let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
        // Average many perturbations of point 0 -> its original position.
        let (mut s0, mut s1) = (0.0, 0.0);
        let n = 20_000;
        for _ in 0..n {
            let d = a.perturbed_points(&mut rng);
            s0 += d[0][0];
            s1 += d[0][1];
        }
        assert!((s0 / n as f64 - points[0][0]).abs() < 0.1);
        assert!((s1 / n as f64 - points[0][1]).abs() < 0.1);
    }

    #[test]
    fn mcmc_perturbation_stays_in_support() {
        let (points, std) = grid_points();
        let mut rng = StdRng::seed_from_u64(63);
        let model = UncertaintyModel {
            perturb: PerturbMethod::Mcmc,
            ..UncertaintyModel::paper_default(NoiseKind::Uniform)
        };
        let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
        let d = a.perturbed_points(&mut rng);
        for (i, p) in d.iter().enumerate() {
            for (j, &x) in p.iter().enumerate() {
                let support = a.of(i)[j].support();
                assert!(support.contains(x), "MCMC perturbation escaped support");
            }
        }
    }

    #[test]
    fn perturbed_objects_are_deterministic() {
        let (points, std) = grid_points();
        let mut rng = StdRng::seed_from_u64(64);
        let model = UncertaintyModel::paper_default(NoiseKind::Exponential);
        let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
        for o in a.perturbed_objects(&mut rng) {
            assert!(o.is_deterministic());
            assert_eq!(o.total_variance(), 0.0);
        }
    }

    #[test]
    fn paired_observed_centering_tracks_observations() {
        let (points, std) = grid_points();
        let mut rng = StdRng::seed_from_u64(66);
        let model = UncertaintyModel {
            centering: Centering::Observed,
            ..UncertaintyModel::paper_default(NoiseKind::Normal)
        };
        let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
        let pair = a.paired(&mut rng);
        assert_eq!(pair.observed.len(), pair.uncertain.len());
        for (obs, unc) in pair.observed.iter().zip(&pair.uncertain) {
            // The uncertain object's mean is the observation, not the truth
            // (symmetric pdfs; exponential shifts are checked separately).
            for j in 0..obs.dims() {
                assert!(
                    (unc.mu()[j] - obs.mu()[j]).abs() < 1e-6,
                    "observed-centered object must sit on the observation"
                );
            }
            assert!(unc.total_variance() > 0.0);
        }
    }

    #[test]
    fn paired_true_value_centering_matches_uncertain_objects() {
        let (points, std) = grid_points();
        let mut rng = StdRng::seed_from_u64(67);
        let model = UncertaintyModel {
            centering: Centering::TrueValue,
            ..UncertaintyModel::paper_default(NoiseKind::Uniform)
        };
        let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
        let pair = a.paired(&mut rng);
        let direct = a.uncertain_objects();
        for (p, d) in pair.uncertain.iter().zip(&direct) {
            assert_eq!(p.mu(), d.mu());
        }
    }

    #[test]
    fn paired_observed_variance_matches_assigned_model() {
        // Translation preserves the noise model's variance.
        let (points, std) = grid_points();
        let mut rng = StdRng::seed_from_u64(68);
        let model = UncertaintyModel {
            centering: Centering::Observed,
            ..UncertaintyModel::paper_default(NoiseKind::Exponential)
        };
        let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
        let pair = a.paired(&mut rng);
        let reference = a.uncertain_objects();
        for (p, r) in pair.uncertain.iter().zip(&reference) {
            assert!(
                (p.total_variance() - r.total_variance()).abs() < 1e-6 * (1.0 + r.total_variance()),
                "translation must preserve truncated variance"
            );
        }
    }

    #[test]
    fn exponential_case2_variance_is_positive_and_bounded() {
        let (points, std) = grid_points();
        let mut rng = StdRng::seed_from_u64(65);
        let model = UncertaintyModel::paper_default(NoiseKind::Exponential);
        let a = PdfAssignment::assign(&points, &std, &model, &mut rng);
        for o in a.uncertain_objects() {
            let v = o.total_variance();
            assert!(v > 0.0 && v.is_finite());
        }
    }
}
