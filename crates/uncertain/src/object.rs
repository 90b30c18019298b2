//! Multivariate uncertain objects (Definition 1).
//!
//! An [`UncertainObject`] is the pair `(R, f)` of the paper: an `m`-dimensional
//! box-shaped domain region and a pdf positive exactly on that region. The pdf
//! factorizes per dimension (the standard multivariate model of the uncertain
//! clustering literature, and all the paper's closed forms only consume
//! per-dimension moments). Moments are computed once at construction.

use crate::moments::Moments;
use crate::pdf::{Coverage, PdfFamily, UnivariatePdf};
use crate::region::{BoxRegion, Interval};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A multivariate uncertain object `o = (R, f)` with precomputed moments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UncertainObject {
    region: BoxRegion,
    dims: Box<[UnivariatePdf]>,
    moments: Moments,
}

impl UncertainObject {
    /// Builds an object from one pdf per dimension. Each pdf is truncated to
    /// its own support if that support is finite; pdfs with unbounded support
    /// are kept as-is and the region records their `central_region(coverage)`
    /// only when constructed through [`UncertainObject::with_coverage`].
    ///
    /// For objects whose region must satisfy Definition 1 exactly (zero
    /// density outside `R`), prefer [`UncertainObject::with_coverage`], which
    /// truncates and renormalizes.
    pub fn new(dims: Vec<UnivariatePdf>) -> Self {
        assert!(
            !dims.is_empty(),
            "uncertain object needs at least one dimension"
        );
        let region = BoxRegion::new(dims.iter().map(|p| p.support()).collect::<Vec<_>>());
        let moments = moments_of(&dims);
        Self {
            region,
            dims: dims.into(),
            moments,
        }
    }

    /// Builds an object whose domain region is the per-dimension central
    /// region containing `coverage` (e.g. `0.95`) of each pdf's mass; every
    /// pdf is truncated and renormalized on that region so that condition (1)
    /// of Definition 1 holds exactly (Section 5.1, Case 2). The level's
    /// quantiles are evaluated once for all dimensions (one [`Coverage`]).
    pub fn with_coverage(dims: Vec<UnivariatePdf>, coverage: f64) -> Self {
        assert!(
            !dims.is_empty(),
            "uncertain object needs at least one dimension"
        );
        let cov = Coverage::new(coverage);
        let truncated: Vec<UnivariatePdf> = dims
            .into_iter()
            .map(|p| p.truncate_to_coverage(&cov).unwrap_or(p))
            .collect();
        Self::new(truncated)
    }

    /// A deterministic point viewed as a degenerate uncertain object
    /// (Case 1 of the evaluation; `sigma^2 = 0`).
    pub fn deterministic(x: &[f64]) -> Self {
        Self::new(
            x.iter()
                .map(|&v| UnivariatePdf::PointMass { x: v })
                .collect(),
        )
    }

    /// Number of dimensions `m`.
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// The domain region `R`.
    pub fn region(&self) -> &BoxRegion {
        &self.region
    }

    /// The per-dimension pdfs.
    pub fn pdfs(&self) -> &[UnivariatePdf] {
        &self.dims
    }

    /// The pdf of dimension `j`.
    pub fn pdf(&self, j: usize) -> &UnivariatePdf {
        &self.dims[j]
    }

    /// Precomputed moments (Line 1 of Algorithm 1).
    pub fn moments(&self) -> &Moments {
        &self.moments
    }

    /// Expected-value vector `mu(o)`.
    pub fn mu(&self) -> &[f64] {
        self.moments.mu()
    }

    /// Second-order moment vector `mu_2(o)`.
    pub fn mu2(&self) -> &[f64] {
        self.moments.mu2()
    }

    /// Variance vector `sigma^2(o)`.
    pub fn variance(&self) -> &[f64] {
        self.moments.variance()
    }

    /// Global scalar variance `sigma^2(o)` of Eq. (6).
    pub fn total_variance(&self) -> f64 {
        self.moments.total_variance()
    }

    /// Whether the object is deterministic (every dimension a point mass).
    pub fn is_deterministic(&self) -> bool {
        self.dims
            .iter()
            .all(|p| matches!(p, UnivariatePdf::PointMass { .. }))
    }

    /// Joint density `f(x)` (product across dimensions).
    pub fn density(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dims(), "dimension mismatch");
        self.dims
            .iter()
            .zip(x)
            .map(|(p, &v)| p.density(v))
            .product()
    }

    /// Draws one deterministic realization of the object.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.dims.iter().map(|p| p.sample(rng)).collect()
    }

    /// Draws `n` realizations as rows.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The pdf families present in this object, deduplicated in dimension
    /// order (useful for reporting).
    pub fn families(&self) -> Vec<PdfFamily> {
        let mut out = Vec::new();
        for p in self.dims.iter() {
            let f = p.family();
            if !out.contains(&f) {
                out.push(f);
            }
        }
        out
    }

    /// The per-dimension support intervals (identical to `region().sides()`).
    pub fn supports(&self) -> Vec<Interval> {
        self.dims.iter().map(|p| p.support()).collect()
    }
}

/// One [`UnivariatePdf::moments`] evaluation per dimension.
fn moments_of(dims: &[UnivariatePdf]) -> Moments {
    let (mu, mu2): (Vec<f64>, Vec<f64>) = dims.iter().map(UnivariatePdf::moments).unzip();
    Moments::from_mu_mu2(mu, mu2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_dim_object() -> UncertainObject {
        UncertainObject::new(vec![
            UnivariatePdf::uniform_centered(1.0, 0.5),
            UnivariatePdf::normal(-1.0, 0.2),
        ])
    }

    #[test]
    fn moments_are_precomputed() {
        let o = two_dim_object();
        assert_eq!(o.mu(), &[1.0, -1.0]);
        assert!((o.variance()[0] - 0.25 / 3.0).abs() < 1e-12);
        assert!((o.variance()[1] - 0.04).abs() < 1e-12);
        assert!(
            (o.total_variance() - (0.25 / 3.0 + 0.04)).abs() < 1e-12,
            "Eq. (6): global variance is the 1-norm of the variance vector"
        );
    }

    #[test]
    fn deterministic_object_is_degenerate() {
        let o = UncertainObject::deterministic(&[3.0, 4.0]);
        assert!(o.is_deterministic());
        assert_eq!(o.total_variance(), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(o.sample(&mut rng), vec![3.0, 4.0]);
    }

    #[test]
    fn with_coverage_truncates_and_keeps_definition_1() {
        let o = UncertainObject::with_coverage(
            vec![
                UnivariatePdf::normal(0.0, 1.0),
                UnivariatePdf::exponential_with_mean(2.0, 1.0),
            ],
            0.95,
        );
        // Region is finite.
        for side in o.region().sides() {
            assert!(side.lo.is_finite() && side.hi.is_finite());
        }
        // Density is zero outside the region (condition (1) of Definition 1).
        let outside = [o.region().side(0).hi + 1.0, o.region().side(1).center()];
        assert_eq!(o.density(&outside), 0.0);
        // Density is positive at the region center.
        let center = o.region().center();
        assert!(o.density(&center) > 0.0);
    }

    #[test]
    fn samples_fall_in_region() {
        let o = UncertainObject::with_coverage(
            vec![
                UnivariatePdf::normal(5.0, 2.0),
                UnivariatePdf::uniform_centered(0.0, 1.0),
            ],
            0.9,
        );
        let mut rng = StdRng::seed_from_u64(42);
        for s in o.sample_n(&mut rng, 5_000) {
            assert!(o.region().contains(&s), "sample {s:?} escaped the region");
        }
    }

    #[test]
    fn empirical_moments_converge_to_exact() {
        let o = two_dim_object();
        let mut rng = StdRng::seed_from_u64(9);
        let samples = o.sample_n(&mut rng, 300_000);
        let emp = Moments::from_samples(&samples);
        for j in 0..2 {
            assert!((emp.mu()[j] - o.mu()[j]).abs() < 5e-3);
            assert!((emp.mu2()[j] - o.mu2()[j]).abs() < 1e-2);
        }
    }

    #[test]
    fn families_are_reported() {
        let o = two_dim_object();
        assert_eq!(o.families(), vec![PdfFamily::Uniform, PdfFamily::Normal]);
    }
}
