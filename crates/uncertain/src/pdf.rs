//! Univariate probability density functions of the uncertainty model.
//!
//! The paper's experiments (Section 5.1) attach to every deterministic point a
//! pdf of one of three families — Uniform, Normal, Exponential — whose expected
//! value equals the point, and then restrict the object's domain region to the
//! area containing "most (e.g. 95%) of the pdf mass". [`UnivariatePdf`]
//! implements those families plus the degenerate point mass (deterministic
//! data, Case 1 of the evaluation) and an empirical discrete pdf (arbitrary
//! sampled distributions), together with *exact* first and second moments for
//! every variant, including the truncated ones.
//!
//! All moments are closed-form; nothing in this module ever samples to obtain
//! a moment. Sampling is inverse-CDF based and therefore exact for the
//! truncated variants as well.
//!
//! **One evaluation per pdf.** A Case-2 object needs, per dimension, the
//! central region at the coverage level, the truncated pdf, and that pdf's
//! `(mu, mu_2)`. The region's standard-normal quantiles depend only on the
//! level, so [`Coverage`] evaluates them once for a whole batch.
//! [`UnivariatePdf::moments`] then evaluates each family's shared terms once
//! — for a truncated Normal `Phi` and `phi` at both bounds, four `exp` calls
//! in all — and `mean`, `second_moment` and `variance` read the same terms,
//! so every moment formula exists in one place. The results are the bits the
//! separate per-moment evaluations would give.
//!
//! **Full coverage.** At `coverage = 1` the central region of a Normal or
//! Exponential is unbounded. The truncated formulas then take the limits of
//! their infinite-bound terms (`x phi(x) -> 0`, `c e^{-rate c} -> 0`), so the
//! moments are finite and equal the untruncated pdf's up to rounding.

use crate::math::{std_normal_cdf, std_normal_pdf, std_normal_quantile};
use crate::region::Interval;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Families of univariate pdfs, as used for uncertainty generation in the
/// paper's Section 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PdfFamily {
    /// Degenerate (deterministic) distribution.
    PointMass,
    /// Uniform over an interval.
    Uniform,
    /// Normal, possibly truncated.
    Normal,
    /// Shifted Exponential, possibly truncated.
    Exponential,
    /// Empirical discrete distribution.
    Discrete,
}

impl std::fmt::Display for PdfFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PdfFamily::PointMass => "point-mass",
            PdfFamily::Uniform => "uniform",
            PdfFamily::Normal => "normal",
            PdfFamily::Exponential => "exponential",
            PdfFamily::Discrete => "discrete",
        };
        f.write_str(s)
    }
}

/// A univariate pdf with exact moments, inverse-CDF sampling, and
/// region-truncation.
///
/// Multivariate uncertain objects combine one `UnivariatePdf` per dimension
/// under the per-dimension independence assumption standard in the uncertain
/// clustering literature (and sufficient for all moment-based formulas of the
/// paper, which only ever consume per-dimension `mu`, `mu2`, `sigma^2`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UnivariatePdf {
    /// Deterministic value: all mass at `x`.
    PointMass {
        /// Location of the atom.
        x: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint (must exceed `lo`).
        hi: f64,
    },
    /// Normal with mean `mean` and standard deviation `sd > 0`.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        sd: f64,
    },
    /// Normal truncated to `[lo, hi]` (renormalized).
    TruncatedNormal {
        /// Mean of the *parent* (untruncated) Normal.
        mean: f64,
        /// Standard deviation of the parent Normal.
        sd: f64,
        /// Lower truncation point.
        lo: f64,
        /// Upper truncation point.
        hi: f64,
    },
    /// Shifted Exponential: density `rate * exp(-rate (x - origin))` for
    /// `x >= origin`. Its mean is `origin + 1/rate`.
    Exponential {
        /// Left endpoint of the support.
        origin: f64,
        /// Rate `lambda > 0`.
        rate: f64,
    },
    /// Shifted Exponential truncated to `[origin, hi]` (renormalized).
    TruncatedExponential {
        /// Left endpoint of the support.
        origin: f64,
        /// Rate `lambda > 0`.
        rate: f64,
        /// Upper truncation point (must exceed `origin`).
        hi: f64,
    },
    /// Empirical discrete pdf over weighted atoms, kept sorted by location.
    /// Weights are normalized at construction.
    Discrete {
        /// Atom locations, ascending.
        xs: Vec<f64>,
        /// Atom probabilities, same length as `xs`, summing to 1.
        ws: Vec<f64>,
    },
}

impl UnivariatePdf {
    /// Uniform pdf centered on `mean` with half-width `h > 0`
    /// (so that its expected value is exactly `mean`, per Section 5.1).
    pub fn uniform_centered(mean: f64, h: f64) -> Self {
        assert!(h > 0.0, "uniform half-width must be positive, got {h}");
        UnivariatePdf::Uniform {
            lo: mean - h,
            hi: mean + h,
        }
    }

    /// Normal pdf with the given mean and standard deviation.
    pub fn normal(mean: f64, sd: f64) -> Self {
        assert!(sd > 0.0, "normal sd must be positive, got {sd}");
        UnivariatePdf::Normal { mean, sd }
    }

    /// Shifted Exponential whose *expected value* is `mean`:
    /// origin is placed at `mean - 1/rate` (Section 5.1 requires
    /// `E[f_w] = w` for every generated pdf).
    pub fn exponential_with_mean(mean: f64, rate: f64) -> Self {
        assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
        UnivariatePdf::Exponential {
            origin: mean - 1.0 / rate,
            rate,
        }
    }

    /// Empirical pdf from weighted atoms. Weights must be non-negative with a
    /// positive sum; they are normalized. Atoms are sorted by location.
    pub fn discrete(points: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let mut atoms: Vec<(f64, f64)> = points.into_iter().collect();
        assert!(!atoms.is_empty(), "discrete pdf needs at least one atom");
        atoms.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = atoms.iter().map(|&(_, w)| w).sum();
        assert!(
            total > 0.0 && atoms.iter().all(|&(_, w)| w >= 0.0),
            "discrete pdf weights must be non-negative with positive sum"
        );
        let (xs, ws) = atoms.into_iter().map(|(x, w)| (x, w / total)).unzip();
        UnivariatePdf::Discrete { xs, ws }
    }

    /// Empirical pdf with equal weights on the given sample points.
    pub fn from_samples(samples: &[f64]) -> Self {
        Self::discrete(samples.iter().map(|&x| (x, 1.0)))
    }

    /// The family of this pdf.
    pub fn family(&self) -> PdfFamily {
        match self {
            UnivariatePdf::PointMass { .. } => PdfFamily::PointMass,
            UnivariatePdf::Uniform { .. } => PdfFamily::Uniform,
            UnivariatePdf::Normal { .. } | UnivariatePdf::TruncatedNormal { .. } => {
                PdfFamily::Normal
            }
            UnivariatePdf::Exponential { .. } | UnivariatePdf::TruncatedExponential { .. } => {
                PdfFamily::Exponential
            }
            UnivariatePdf::Discrete { .. } => PdfFamily::Discrete,
        }
    }

    /// Density at `x`. For [`UnivariatePdf::PointMass`] and
    /// [`UnivariatePdf::Discrete`] this is a probability *mass* (the value
    /// returned for an atom is its weight), which is the convention the
    /// sampling and MCMC substrates expect.
    pub fn density(&self, x: f64) -> f64 {
        match self {
            UnivariatePdf::PointMass { x: a } => {
                if x == *a {
                    1.0
                } else {
                    0.0
                }
            }
            UnivariatePdf::Uniform { lo, hi } => {
                if x >= *lo && x <= *hi {
                    1.0 / (hi - lo)
                } else {
                    0.0
                }
            }
            UnivariatePdf::Normal { mean, sd } => std_normal_pdf((x - mean) / sd) / sd,
            UnivariatePdf::TruncatedNormal { mean, sd, lo, hi } => {
                if x < *lo || x > *hi {
                    return 0.0;
                }
                let z = normal_mass(*mean, *sd, *lo, *hi);
                std_normal_pdf((x - mean) / sd) / (sd * z)
            }
            UnivariatePdf::Exponential { origin, rate } => {
                if x < *origin {
                    0.0
                } else {
                    rate * (-(rate * (x - origin))).exp()
                }
            }
            UnivariatePdf::TruncatedExponential { origin, rate, hi } => {
                if x < *origin || x > *hi {
                    return 0.0;
                }
                let z = 1.0 - (-(rate * (hi - origin))).exp();
                rate * (-(rate * (x - origin))).exp() / z
            }
            UnivariatePdf::Discrete { xs, ws } => xs
                .iter()
                .zip(ws)
                .filter(|&(&a, _)| a == x)
                .map(|(_, &w)| w)
                .sum(),
        }
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        match self {
            UnivariatePdf::PointMass { x: a } => {
                if x >= *a {
                    1.0
                } else {
                    0.0
                }
            }
            UnivariatePdf::Uniform { lo, hi } => ((x - lo) / (hi - lo)).clamp(0.0, 1.0),
            UnivariatePdf::Normal { mean, sd } => std_normal_cdf((x - mean) / sd),
            UnivariatePdf::TruncatedNormal { mean, sd, lo, hi } => {
                if x <= *lo {
                    return 0.0;
                }
                if x >= *hi {
                    return 1.0;
                }
                let a = std_normal_cdf((lo - mean) / sd);
                let b = std_normal_cdf((hi - mean) / sd);
                (std_normal_cdf((x - mean) / sd) - a) / (b - a)
            }
            UnivariatePdf::Exponential { origin, rate } => {
                if x <= *origin {
                    0.0
                } else {
                    1.0 - (-(rate * (x - origin))).exp()
                }
            }
            UnivariatePdf::TruncatedExponential { origin, rate, hi } => {
                if x <= *origin {
                    return 0.0;
                }
                if x >= *hi {
                    return 1.0;
                }
                let z = 1.0 - (-(rate * (hi - origin))).exp();
                (1.0 - (-(rate * (x - origin))).exp()) / z
            }
            UnivariatePdf::Discrete { xs, ws } => xs
                .iter()
                .zip(ws)
                .take_while(|&(&a, _)| a <= x)
                .map(|(_, &w)| w)
                .sum(),
        }
    }

    /// Quantile (generalized inverse CDF) at probability `p` in `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        match self {
            UnivariatePdf::PointMass { x } => *x,
            UnivariatePdf::Uniform { lo, hi } => lo + p * (hi - lo),
            UnivariatePdf::Normal { mean, sd } => mean + sd * std_normal_quantile(p),
            UnivariatePdf::TruncatedNormal { mean, sd, lo, hi } => {
                let a = std_normal_cdf((lo - mean) / sd);
                let b = std_normal_cdf((hi - mean) / sd);
                let q = mean + sd * std_normal_quantile(a + p * (b - a));
                q.clamp(*lo, *hi)
            }
            UnivariatePdf::Exponential { origin, rate } => {
                if p >= 1.0 {
                    f64::INFINITY
                } else {
                    origin - (1.0 - p).ln() / rate
                }
            }
            UnivariatePdf::TruncatedExponential { origin, rate, hi } => {
                let z = 1.0 - (-(rate * (hi - origin))).exp();
                let q = origin - (1.0 - p * z).ln() / rate;
                q.clamp(*origin, *hi)
            }
            UnivariatePdf::Discrete { xs, ws } => {
                let mut acc = 0.0;
                for (x, w) in xs.iter().zip(ws) {
                    acc += w;
                    if acc >= p - 1e-15 {
                        return *x;
                    }
                }
                *xs.last().expect("discrete pdf is non-empty")
            }
        }
    }

    /// Exact expected value and second-order moment `(mu, mu_2)` (Eq. 4),
    /// from one evaluation of the family's shared terms: a truncated Normal
    /// evaluates `Phi` and `phi` once per bound, a truncated Exponential
    /// `e^{-rate c}` once. [`Self::mean`], [`Self::second_moment`] and
    /// [`Self::variance`] read the same terms and agree with this pair bit
    /// for bit. Infinite truncation bounds take their limits (see the
    /// module docs), so the moments stay finite at `coverage = 1`.
    #[inline]
    pub fn moments(&self) -> (f64, f64) {
        match self {
            UnivariatePdf::PointMass { x } => (*x, x * x),
            UnivariatePdf::Uniform { lo, hi } => {
                (0.5 * (lo + hi), (lo * lo + lo * hi + hi * hi) / 3.0)
            }
            UnivariatePdf::Normal { mean, sd } => (*mean, mean * mean + sd * sd),
            UnivariatePdf::TruncatedNormal { mean, sd, lo, hi } => {
                let t = TruncatedNormalTerms::new(*mean, *sd, *lo, *hi);
                let m = t.mean();
                (m, m * m + t.variance())
            }
            UnivariatePdf::Exponential { origin, rate } => {
                let m = origin + 1.0 / rate;
                (m, m * m + 1.0 / (rate * rate))
            }
            UnivariatePdf::TruncatedExponential { origin, rate, hi } => {
                let t = TruncatedExponentialTerms::new(*origin, *rate, *hi);
                (t.mean(), t.second_moment())
            }
            UnivariatePdf::Discrete { xs, ws } => {
                let atoms = || xs.iter().zip(ws);
                (
                    atoms().map(|(&x, &w)| x * w).sum(),
                    atoms().map(|(&x, &w)| x * x * w).sum(),
                )
            }
        }
    }

    /// Exact expected value `mu` (Eq. 4); the first half of [`Self::moments`].
    pub fn mean(&self) -> f64 {
        self.moments().0
    }

    /// Exact second-order moment `mu_2 = E[X^2]` (Eq. 4); the second half of
    /// [`Self::moments`].
    pub fn second_moment(&self) -> f64 {
        self.moments().1
    }

    /// Exact variance `sigma^2 = mu_2 - mu^2` (Eq. 5). Families with a
    /// closed-form variance use it directly; the others take it from
    /// [`Self::moments`], clamped at zero.
    pub fn variance(&self) -> f64 {
        match self {
            UnivariatePdf::PointMass { .. } => 0.0,
            UnivariatePdf::Uniform { lo, hi } => {
                let w = hi - lo;
                w * w / 12.0
            }
            UnivariatePdf::Normal { sd, .. } => sd * sd,
            UnivariatePdf::TruncatedNormal { mean, sd, lo, hi } => {
                TruncatedNormalTerms::new(*mean, *sd, *lo, *hi).variance()
            }
            UnivariatePdf::Exponential { rate, .. } => 1.0 / (rate * rate),
            UnivariatePdf::TruncatedExponential { .. } | UnivariatePdf::Discrete { .. } => {
                let (m, m2) = self.moments();
                (m2 - m * m).max(0.0)
            }
        }
    }

    /// The support of the pdf as an interval. Unbounded supports return
    /// infinite endpoints; callers that need a finite region should use
    /// [`UnivariatePdf::central_region`].
    pub fn support(&self) -> Interval {
        match self {
            UnivariatePdf::PointMass { x } => Interval::point(*x),
            UnivariatePdf::Uniform { lo, hi } => Interval::new(*lo, *hi),
            UnivariatePdf::Normal { .. } => Interval::new(f64::NEG_INFINITY, f64::INFINITY),
            UnivariatePdf::TruncatedNormal { lo, hi, .. } => Interval::new(*lo, *hi),
            UnivariatePdf::Exponential { origin, .. } => Interval::new(*origin, f64::INFINITY),
            UnivariatePdf::TruncatedExponential { origin, hi, .. } => Interval::new(*origin, *hi),
            UnivariatePdf::Discrete { xs, .. } => Interval::new(
                *xs.first().expect("non-empty"),
                *xs.last().expect("non-empty"),
            ),
        }
    }

    /// The smallest probability-symmetric interval containing `coverage`
    /// (e.g. `0.95`) of the mass; for one-sided families (Exponential) the
    /// interval starts at the support's left endpoint.
    ///
    /// This is the "region containing most of the area of `f_w`" used to
    /// build uncertain objects in Section 5.1 (Case 2). Building many
    /// regions at one level, prefer [`Self::truncate_to_coverage`] with one
    /// [`Coverage`], which evaluates the level's quantiles once.
    pub fn central_region(&self, coverage: f64) -> Interval {
        self.central_region_at(&Coverage::new(coverage))
    }

    /// [`Self::central_region`] at a precomputed [`Coverage`]: the Normal
    /// and Exponential families read the level's quantiles from `cov`
    /// instead of evaluating them (same bits as evaluating them here).
    fn central_region_at(&self, cov: &Coverage) -> Interval {
        match self {
            UnivariatePdf::PointMass { x } => Interval::point(*x),
            UnivariatePdf::Normal { mean, sd } => {
                Interval::new(mean + sd * cov.z_lo, mean + sd * cov.z_hi)
            }
            UnivariatePdf::Exponential { origin, rate } => {
                let hi = if cov.level >= 1.0 {
                    f64::INFINITY
                } else {
                    origin - cov.ln_rest / rate
                };
                Interval::new(*origin, hi)
            }
            UnivariatePdf::TruncatedExponential { .. } => {
                Interval::new(self.support().lo, self.quantile(cov.level))
            }
            _ => Interval::new(self.quantile(cov.tail), self.quantile(1.0 - cov.tail)),
        }
    }

    /// The Case-2 pdf of Section 5.1: `self` truncated to its central region
    /// at `cov` and renormalized, or `None` when that region is a single
    /// point (a point mass), which is kept as it is. The region's infinite
    /// bounds at `coverage = 1` are fine: [`Self::moments`] takes their
    /// limits.
    #[inline]
    pub fn truncate_to_coverage(&self, cov: &Coverage) -> Option<UnivariatePdf> {
        let region = self.central_region_at(cov);
        (region.width() > 0.0).then(|| self.truncate(region))
    }

    /// Restricts (truncates) the pdf to `region`, renormalizing its mass, and
    /// returns the truncated pdf. This is how Case-2 uncertain objects are
    /// built so that condition (1) of Definition 1 holds exactly on the
    /// object's finite domain region.
    ///
    /// Panics if the region has no overlap with the support.
    pub fn truncate(&self, region: Interval) -> UnivariatePdf {
        match self {
            UnivariatePdf::PointMass { x } => {
                assert!(region.contains(*x), "region excludes the point mass");
                self.clone()
            }
            UnivariatePdf::Uniform { lo, hi } => {
                let iv = Interval::new(*lo, *hi)
                    .intersect(&region)
                    .expect("region disjoint from uniform support");
                assert!(iv.width() > 0.0, "degenerate truncated uniform");
                UnivariatePdf::Uniform {
                    lo: iv.lo,
                    hi: iv.hi,
                }
            }
            UnivariatePdf::Normal { mean, sd } => UnivariatePdf::TruncatedNormal {
                mean: *mean,
                sd: *sd,
                lo: region.lo,
                hi: region.hi,
            },
            UnivariatePdf::TruncatedNormal { mean, sd, lo, hi } => {
                let iv = Interval::new(*lo, *hi)
                    .intersect(&region)
                    .expect("region disjoint from truncated normal support");
                UnivariatePdf::TruncatedNormal {
                    mean: *mean,
                    sd: *sd,
                    lo: iv.lo,
                    hi: iv.hi,
                }
            }
            UnivariatePdf::Exponential { origin, rate } => {
                assert!(
                    region.hi > *origin,
                    "region disjoint from exponential support"
                );
                UnivariatePdf::TruncatedExponential {
                    origin: origin.max(region.lo),
                    rate: *rate,
                    hi: region.hi,
                }
            }
            UnivariatePdf::TruncatedExponential { origin, rate, hi } => {
                let iv = Interval::new(*origin, *hi)
                    .intersect(&region)
                    .expect("region disjoint from truncated exponential support");
                UnivariatePdf::TruncatedExponential {
                    origin: iv.lo,
                    rate: *rate,
                    hi: iv.hi,
                }
            }
            UnivariatePdf::Discrete { xs, ws } => {
                let atoms: Vec<(f64, f64)> = xs
                    .iter()
                    .zip(ws)
                    .filter(|&(&x, _)| region.contains(x))
                    .map(|(&x, &w)| (x, w))
                    .collect();
                assert!(!atoms.is_empty(), "region excludes all discrete atoms");
                UnivariatePdf::discrete(atoms)
            }
        }
    }

    /// Draws one realization via inverse-CDF sampling (exact for every
    /// variant, including the truncated ones).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            UnivariatePdf::PointMass { x } => *x,
            _ => self.quantile(rng.gen::<f64>()),
        }
    }

    /// The same pdf rigidly translated by `delta` (mean shifts by exactly
    /// `delta`; all central moments unchanged). Used by the Section-5.1
    /// pipeline to re-center a generated noise model on an observed value.
    pub fn translate(&self, delta: f64) -> UnivariatePdf {
        match self {
            UnivariatePdf::PointMass { x } => UnivariatePdf::PointMass { x: x + delta },
            UnivariatePdf::Uniform { lo, hi } => UnivariatePdf::Uniform {
                lo: lo + delta,
                hi: hi + delta,
            },
            UnivariatePdf::Normal { mean, sd } => UnivariatePdf::Normal {
                mean: mean + delta,
                sd: *sd,
            },
            UnivariatePdf::TruncatedNormal { mean, sd, lo, hi } => UnivariatePdf::TruncatedNormal {
                mean: mean + delta,
                sd: *sd,
                lo: lo + delta,
                hi: hi + delta,
            },
            UnivariatePdf::Exponential { origin, rate } => UnivariatePdf::Exponential {
                origin: origin + delta,
                rate: *rate,
            },
            UnivariatePdf::TruncatedExponential { origin, rate, hi } => {
                UnivariatePdf::TruncatedExponential {
                    origin: origin + delta,
                    rate: *rate,
                    hi: hi + delta,
                }
            }
            UnivariatePdf::Discrete { xs, ws } => UnivariatePdf::Discrete {
                xs: xs.iter().map(|x| x + delta).collect(),
                ws: ws.clone(),
            },
        }
    }
}

/// A coverage level (the share of a pdf's mass its Case-2 region holds,
/// e.g. `0.95`) with the family-independent quantiles of that region
/// evaluated once.
///
/// Each Normal region needs `Phi^{-1}` at both tails and each Exponential
/// region needs `ln(1 - coverage)`; none depends on the pdf, so a batch of
/// regions at one level builds one `Coverage` and shares it through
/// [`UnivariatePdf::truncate_to_coverage`].
#[derive(Debug, Clone, Copy)]
pub struct Coverage {
    /// The level itself, in `[0, 1]`.
    level: f64,
    /// Mass in each tail of a two-sided region: `(1 - level) / 2`.
    tail: f64,
    /// `Phi^{-1}(tail)`.
    z_lo: f64,
    /// `Phi^{-1}(1 - tail)`.
    z_hi: f64,
    /// `ln(1 - level)`, the one-sided (Exponential) quantile's log term.
    ln_rest: f64,
}

impl Coverage {
    /// Evaluates the quantiles of `level`. Panics unless `level` is in
    /// `[0, 1]`.
    pub fn new(level: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&level),
            "coverage must be in [0,1], got {level}"
        );
        let tail = 0.5 * (1.0 - level);
        Self {
            level,
            tail,
            z_lo: std_normal_quantile(tail),
            z_hi: std_normal_quantile(1.0 - tail),
            ln_rest: (1.0 - level).ln(),
        }
    }
}

/// Mass of a Normal(mean, sd) on `[lo, hi]`.
fn normal_mass(mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
    std_normal_cdf((hi - mean) / sd) - std_normal_cdf((lo - mean) / sd)
}

/// `x phi(x)`, taking its limit `0` at an infinite truncation bound (where
/// the product would be `inf * 0 = NaN`).
#[inline]
fn x_phi(x: f64, phi: f64) -> f64 {
    if x.is_finite() {
        x * phi
    } else {
        0.0
    }
}

/// The standardized bounds `alpha = (lo - mean) / sd`, `beta` of a Normal
/// truncated to `[lo, hi]`, with `Z = Phi(beta) - Phi(alpha)`, `phi(alpha)`
/// and `phi(beta)`: every moment of the truncated Normal is built from
/// these, each evaluated once.
struct TruncatedNormalTerms {
    mean: f64,
    sd: f64,
    alpha: f64,
    beta: f64,
    z: f64,
    pa: f64,
    pb: f64,
}

impl TruncatedNormalTerms {
    fn new(mean: f64, sd: f64, lo: f64, hi: f64) -> Self {
        let alpha = (lo - mean) / sd;
        let beta = (hi - mean) / sd;
        Self {
            mean,
            sd,
            alpha,
            beta,
            z: std_normal_cdf(beta) - std_normal_cdf(alpha),
            pa: std_normal_pdf(alpha),
            pb: std_normal_pdf(beta),
        }
    }

    /// `mean + sd (phi(alpha) - phi(beta)) / Z`.
    fn mean(&self) -> f64 {
        self.mean + self.sd * (self.pa - self.pb) / self.z
    }

    /// `sd^2 (1 + t1 - t2^2)` with `t1 = (alpha phi(alpha) - beta phi(beta)) / Z`
    /// and `t2 = (phi(alpha) - phi(beta)) / Z`.
    fn variance(&self) -> f64 {
        let t1 = (x_phi(self.alpha, self.pa) - x_phi(self.beta, self.pb)) / self.z;
        let t2 = (self.pa - self.pb) / self.z;
        self.sd * self.sd * (1.0 + t1 - t2 * t2)
    }
}

/// `X = origin + Y` with `Y ~ Exp(rate)` truncated to `[0, c]`,
/// `c = hi - origin`: every moment is built from `e = e^{-rate c}` and
/// `z = 1 - e`, each evaluated once.
struct TruncatedExponentialTerms {
    origin: f64,
    rate: f64,
    z: f64,
    /// `c e / z`.
    ce_z: f64,
    /// `e (c^2 + 2c/rate + 2/rate^2)`.
    e_poly: f64,
}

impl TruncatedExponentialTerms {
    fn new(origin: f64, rate: f64, hi: f64) -> Self {
        let c = hi - origin;
        let e = (-(rate * c)).exp();
        let z = 1.0 - e;
        // Both products of `e` vanish as c -> inf, where evaluating them
        // would give inf * 0 = NaN.
        let (ce, e_poly) = if c.is_finite() {
            (c * e, e * (c * c + 2.0 * c / rate + 2.0 / (rate * rate)))
        } else {
            (0.0, 0.0)
        };
        Self {
            origin,
            rate,
            z,
            ce_z: ce / z,
            e_poly,
        }
    }

    /// `E[X] = origin + 1/rate - c e / z`.
    fn mean(&self) -> f64 {
        self.origin + 1.0 / self.rate - self.ce_z
    }

    /// `E[X^2] = origin^2 + 2 origin E[Y] + E[Y^2]`, with
    /// `E[Y^2] = (2/rate^2 - e (c^2 + 2c/rate + 2/rate^2)) / z`.
    fn second_moment(&self) -> f64 {
        let (origin, rate) = (self.origin, self.rate);
        let ey = 1.0 / rate - self.ce_z;
        let ey2 = (2.0 / (rate * rate) - self.e_poly) / self.z;
        origin * origin + 2.0 * origin * ey + ey2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_moments(pdf: &UnivariatePdf, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = pdf.sample(&mut rng);
            s1 += x;
            s2 += x * x;
        }
        (s1 / n as f64, s2 / n as f64)
    }

    #[test]
    fn uniform_moments() {
        let p = UnivariatePdf::uniform_centered(3.0, 2.0);
        assert!((p.mean() - 3.0).abs() < 1e-12);
        assert!((p.variance() - 16.0 / 12.0).abs() < 1e-12);
        assert!((p.second_moment() - (9.0 + 16.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn normal_moments() {
        let p = UnivariatePdf::normal(-1.0, 0.5);
        assert_eq!(p.mean(), -1.0);
        assert_eq!(p.variance(), 0.25);
        assert!((p.second_moment() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn exponential_mean_placement() {
        // Section 5.1 requires E[f_w] = w for every generated pdf.
        let p = UnivariatePdf::exponential_with_mean(4.0, 2.0);
        assert!((p.mean() - 4.0).abs() < 1e-12);
        assert!((p.variance() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn truncated_normal_symmetric_moments() {
        // Symmetric truncation keeps the mean and shrinks the variance by
        // the classical factor 1 - 2 a phi(a) / (2 Phi(a) - 1).
        let p = UnivariatePdf::normal(2.0, 1.0).truncate(Interval::new(2.0 - 1.96, 2.0 + 1.96));
        assert!((p.mean() - 2.0).abs() < 1e-7, "mean {}", p.mean());
        let a = 1.96;
        let z = 2.0 * std_normal_cdf(a) - 1.0;
        let want = 1.0 - 2.0 * a * std_normal_pdf(a) / z;
        assert!((p.variance() - want).abs() < 1e-6, "var {}", p.variance());
    }

    #[test]
    fn truncated_exponential_moments_match_sampling() {
        let p = UnivariatePdf::exponential_with_mean(1.0, 1.5);
        let region = p.central_region(0.95);
        let t = p.truncate(region);
        let (m, m2) = empirical_moments(&t, 400_000, 7);
        assert!((t.mean() - m).abs() < 5e-3, "mean {} vs {}", t.mean(), m);
        assert!(
            (t.second_moment() - m2).abs() < 1.5e-2,
            "mu2 {} vs {}",
            t.second_moment(),
            m2
        );
    }

    #[test]
    fn truncated_normal_moments_match_sampling() {
        let p = UnivariatePdf::normal(0.0, 2.0).truncate(Interval::new(-1.0, 5.0));
        let (m, m2) = empirical_moments(&p, 400_000, 11);
        assert!((p.mean() - m).abs() < 1e-2);
        assert!((p.second_moment() - m2).abs() < 4e-2);
    }

    #[test]
    fn discrete_moments_and_quantile() {
        let p = UnivariatePdf::discrete(vec![(1.0, 1.0), (3.0, 1.0), (5.0, 2.0)]);
        assert!((p.mean() - (1.0 * 0.25 + 3.0 * 0.25 + 5.0 * 0.5)).abs() < 1e-12);
        assert_eq!(p.quantile(0.1), 1.0);
        assert_eq!(p.quantile(0.3), 3.0);
        assert_eq!(p.quantile(0.9), 5.0);
    }

    #[test]
    fn density_integrates_to_one_uniform_grid() {
        // Trapezoidal check on the continuous variants.
        let pdfs = [
            UnivariatePdf::uniform_centered(0.0, 1.0),
            UnivariatePdf::normal(0.0, 1.0),
            UnivariatePdf::normal(0.0, 1.0).truncate(Interval::new(-1.0, 2.0)),
            UnivariatePdf::exponential_with_mean(0.0, 1.0),
            UnivariatePdf::exponential_with_mean(0.0, 1.0).truncate(Interval::new(-1.0, 3.0)),
        ];
        for p in pdfs {
            let (lo, hi) = (
                p.quantile(1e-9).max(-50.0),
                p.quantile(1.0 - 1e-9).min(50.0),
            );
            let n = 200_000;
            let dx = (hi - lo) / n as f64;
            let mass: f64 = (0..=n)
                .map(|i| {
                    let x = lo + i as f64 * dx;
                    let w = if i == 0 || i == n { 0.5 } else { 1.0 };
                    w * p.density(x)
                })
                .sum::<f64>()
                * dx;
            assert!(
                (mass - 1.0).abs() < 1e-3,
                "{:?} integrates to {mass}",
                p.family()
            );
        }
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let pdfs = [
            UnivariatePdf::uniform_centered(1.0, 0.5),
            UnivariatePdf::normal(-2.0, 0.7),
            UnivariatePdf::normal(0.0, 1.0).truncate(Interval::new(-0.5, 1.5)),
            UnivariatePdf::exponential_with_mean(2.0, 3.0),
            UnivariatePdf::exponential_with_mean(2.0, 3.0).truncate(Interval::new(1.0, 4.0)),
        ];
        for p in pdfs {
            for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
                let x = p.quantile(q);
                assert!(
                    (p.cdf(x) - q).abs() < 1e-5,
                    "{:?}: cdf(quantile({q})) = {}",
                    p.family(),
                    p.cdf(x)
                );
            }
        }
    }

    #[test]
    fn central_region_has_requested_coverage() {
        let pdfs = [
            UnivariatePdf::uniform_centered(0.0, 2.0),
            UnivariatePdf::normal(1.0, 2.0),
            UnivariatePdf::exponential_with_mean(0.0, 0.5),
        ];
        for p in pdfs {
            let r = p.central_region(0.95);
            let mass = p.cdf(r.hi) - p.cdf(r.lo);
            assert!(
                (mass - 0.95).abs() < 1e-6,
                "{:?} region mass {mass}",
                p.family()
            );
        }
    }

    #[test]
    fn translate_shifts_mean_and_preserves_variance() {
        let pdfs = [
            UnivariatePdf::PointMass { x: 1.0 },
            UnivariatePdf::uniform_centered(2.0, 1.0),
            UnivariatePdf::normal(-1.0, 0.7),
            UnivariatePdf::normal(0.0, 1.0).truncate(Interval::new(-1.0, 2.0)),
            UnivariatePdf::exponential_with_mean(3.0, 2.0),
            UnivariatePdf::exponential_with_mean(3.0, 2.0).truncate(Interval::new(2.0, 5.0)),
            UnivariatePdf::discrete(vec![(0.0, 1.0), (2.0, 3.0)]),
        ];
        for p in pdfs {
            let t = p.translate(1.5);
            assert!(
                (t.mean() - (p.mean() + 1.5)).abs() < 1e-9,
                "{:?}: mean {} vs {}",
                p.family(),
                t.mean(),
                p.mean() + 1.5
            );
            assert!(
                (t.variance() - p.variance()).abs() < 1e-9,
                "{:?}: variance changed under translation",
                p.family()
            );
        }
    }

    #[test]
    fn point_mass_degenerate_behaviour() {
        let p = UnivariatePdf::PointMass { x: 2.5 };
        assert_eq!(p.mean(), 2.5);
        assert_eq!(p.variance(), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.sample(&mut rng), 2.5);
        assert_eq!(p.central_region(0.95), Interval::point(2.5));
    }

    #[test]
    fn samples_stay_in_truncated_support() {
        let p = UnivariatePdf::normal(0.0, 1.0).truncate(Interval::new(-0.3, 0.9));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = p.sample(&mut rng);
            assert!((-0.3..=0.9).contains(&x), "sample {x} escaped support");
        }
    }

    #[test]
    fn truncate_uniform_clips_interval() {
        let p = UnivariatePdf::uniform_centered(0.0, 2.0).truncate(Interval::new(-1.0, 5.0));
        assert_eq!(p.support(), Interval::new(-1.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn truncate_disjoint_region_panics() {
        let _ = UnivariatePdf::uniform_centered(0.0, 1.0).truncate(Interval::new(5.0, 6.0));
    }
}
