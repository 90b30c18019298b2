//! Bit contract of the Case-2 moment derivation (Section 5.1).
//!
//! A Case-2 object truncates each attribute's pdf to the central region
//! holding `coverage` of its mass and takes the truncated pdf's exact
//! `(mu, mu_2)` (Eqs. 4–5). The library derives each pair in one evaluation
//! (the level's quantiles once per batch, each family's shared terms once per
//! pdf). The oracle below derives it the long way, one call at a time:
//! quantile → central region → truncate → `mean()`, and `second_moment()` as
//! `mean()` plus `variance()`, each re-evaluating every special function.
//! Every route must reproduce the oracle's bits exactly.
//!
//! The oracle uses only the workspace's scalar special functions, so both
//! sides see the same `erfc` and `exp`; no golden hashes are compared
//! (`f64::exp` comes from the platform's libm).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ucpc::datasets::uncertainty::{NoiseKind, PdfAssignment, UncertaintyModel};
use ucpc::uncertain::math::{std_normal_cdf, std_normal_pdf, std_normal_quantile};
use ucpc::uncertain::{MomentArena, UncertainObject, UnivariatePdf};

/// Mean of Normal(mean, sd) truncated to `[lo, hi]`.
fn truncated_normal_mean(mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
    let alpha = (lo - mean) / sd;
    let beta = (hi - mean) / sd;
    let z = std_normal_cdf(beta) - std_normal_cdf(alpha);
    mean + sd * (std_normal_pdf(alpha) - std_normal_pdf(beta)) / z
}

/// Variance of Normal(mean, sd) truncated to `[lo, hi]`.
fn truncated_normal_variance(mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
    let alpha = (lo - mean) / sd;
    let beta = (hi - mean) / sd;
    let z = std_normal_cdf(beta) - std_normal_cdf(alpha);
    let pa = std_normal_pdf(alpha);
    let pb = std_normal_pdf(beta);
    let t1 = (alpha * pa - beta * pb) / z;
    let t2 = (pa - pb) / z;
    sd * sd * (1.0 + t1 - t2 * t2)
}

/// Mean of `origin + Exp(rate)` truncated to `[origin, hi]`.
fn truncated_exponential_mean(origin: f64, rate: f64, hi: f64) -> f64 {
    let c = hi - origin;
    let e = (-(rate * c)).exp();
    let z = 1.0 - e;
    origin + 1.0 / rate - c * e / z
}

/// Second moment of `origin + Exp(rate)` truncated to `[origin, hi]`.
fn truncated_exponential_second_moment(origin: f64, rate: f64, hi: f64) -> f64 {
    let c = hi - origin;
    let e = (-(rate * c)).exp();
    let z = 1.0 - e;
    let ey = 1.0 / rate - c * e / z;
    let ey2 = (2.0 / (rate * rate) - e * (c * c + 2.0 * c / rate + 2.0 / (rate * rate))) / z;
    origin * origin + 2.0 * origin * ey + ey2
}

/// The Case-2 `(mu, mu_2)` of one untruncated pdf at `coverage` in (0, 1),
/// derived one call at a time.
fn oracle(pdf: &UnivariatePdf, coverage: f64) -> (f64, f64) {
    let tail = 0.5 * (1.0 - coverage);
    match *pdf {
        UnivariatePdf::Uniform { lo, hi } => {
            // Region [quantile(tail), quantile(1 - tail)], intersected with
            // the support.
            let r_lo = lo + tail * (hi - lo);
            let r_hi = lo + (1.0 - tail) * (hi - lo);
            let (a, b) = if r_hi - r_lo > 0.0 {
                (lo.max(r_lo), hi.min(r_hi))
            } else {
                (lo, hi)
            };
            (0.5 * (a + b), (a * a + a * b + b * b) / 3.0)
        }
        UnivariatePdf::Normal { mean, sd } => {
            let lo = mean + sd * std_normal_quantile(tail);
            let hi = mean + sd * std_normal_quantile(1.0 - tail);
            if hi - lo > 0.0 {
                let m = truncated_normal_mean(mean, sd, lo, hi);
                // second_moment() re-runs mean() and adds variance().
                let m_again = truncated_normal_mean(mean, sd, lo, hi);
                let mu2 = m_again * m_again + truncated_normal_variance(mean, sd, lo, hi);
                (m, mu2)
            } else {
                (mean, mean * mean + sd * sd)
            }
        }
        UnivariatePdf::Exponential { origin, rate } => {
            let hi = origin - (1.0 - coverage).ln() / rate;
            if hi - origin > 0.0 {
                (
                    truncated_exponential_mean(origin, rate, hi),
                    truncated_exponential_second_moment(origin, rate, hi),
                )
            } else {
                let m = origin + 1.0 / rate;
                (m, m * m + 1.0 / (rate * rate))
            }
        }
        ref other => panic!("the oracle covers the Section 5.1 families only, got {other:?}"),
    }
}

/// Asserts `(mu, mu_2)` equal the oracle's bits.
fn assert_bits(what: &str, got: (f64, f64), want: (f64, f64)) {
    assert_eq!(
        (got.0.to_bits(), got.1.to_bits()),
        (want.0.to_bits(), want.1.to_bits()),
        "{what}: (mu, mu_2) = {got:?}, oracle {want:?}"
    );
}

const COVERAGES: [f64; 4] = [0.5, 0.9, 0.95, 0.999];

/// Spread factors from 1e-6 to 1e3 of the values (magnitude scaling).
const SPREADS: [(f64, f64); 4] = [(1e-6, 1e-5), (1e-3, 1e-2), (0.15, 0.6), (10.0, 1e3)];

fn seeded_assignment(kind: NoiseKind, spread_range: (f64, f64), coverage: f64) -> PdfAssignment {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let points: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            (0..5)
                .map(|j| (i as f64 - 20.0) * 3.7 + j as f64 * 0.01 - 1e-4 * (i * j) as f64)
                .collect()
        })
        .collect();
    let dim_std = [12.0, 1.0, 0.5, 40.0, 3.0];
    let model = UncertaintyModel {
        spread_range,
        coverage,
        ..UncertaintyModel::paper_default(kind)
    };
    PdfAssignment::assign(&points, &dim_std, &model, &mut rng)
}

#[test]
fn every_case2_route_reproduces_the_oracle_bits() {
    for kind in NoiseKind::all() {
        for spread in SPREADS {
            for coverage in COVERAGES {
                let a = seeded_assignment(kind, spread, coverage);
                let arena = a.uncertain_arena();
                let objects = a.uncertain_objects();
                let paired = a.paired(&mut StdRng::seed_from_u64(1)).uncertain;
                let via_objects = MomentArena::from_objects(&objects);
                assert_eq!(arena, via_objects, "{kind:?}: arena vs object route");
                for i in 0..a.len() {
                    let direct = UncertainObject::with_coverage(a.of(i).to_vec(), coverage);
                    for (j, pdf) in a.of(i).iter().enumerate() {
                        let want = oracle(pdf, coverage);
                        let at =
                            format!("{kind:?} spread {spread:?} coverage {coverage} [{i}][{j}]");
                        assert_bits(
                            &format!("{at} arena"),
                            (arena.mu_row(i)[j], arena.mu2_row(i)[j]),
                            want,
                        );
                        assert_bits(
                            &format!("{at} with_coverage"),
                            (direct.mu()[j], direct.mu2()[j]),
                            want,
                        );
                        assert_bits(
                            &format!("{at} uncertain_objects"),
                            (objects[i].mu()[j], objects[i].mu2()[j]),
                            want,
                        );
                        // paper_default centers on the true value, so the
                        // paired route truncates the same pdfs.
                        assert_bits(
                            &format!("{at} paired"),
                            (paired[i].mu()[j], paired[i].mu2()[j]),
                            want,
                        );
                    }
                }
            }
        }
    }
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// At `coverage = 1` the central region is the whole support, so the
/// truncated pdf is the pdf itself: its moments must be finite and equal the
/// untruncated ones, through every Case-2 route.
#[test]
fn full_coverage_gives_the_untruncated_moments() {
    for kind in NoiseKind::all() {
        let a = seeded_assignment(kind, (0.15, 0.6), 1.0);
        let arena = a.uncertain_arena();
        for i in 0..a.len() {
            let object = UncertainObject::with_coverage(a.of(i).to_vec(), 1.0);
            for (j, pdf) in a.of(i).iter().enumerate() {
                let want = (pdf.mean(), pdf.second_moment());
                for (route, got) in [
                    ("arena", (arena.mu_row(i)[j], arena.mu2_row(i)[j])),
                    ("with_coverage", (object.mu()[j], object.mu2()[j])),
                ] {
                    assert!(
                        got.0.is_finite() && got.1.is_finite(),
                        "{kind:?} {route} [{i}][{j}]: non-finite {got:?}"
                    );
                    assert!(
                        relative_gap(got.0, want.0) <= 1e-12
                            && relative_gap(got.1, want.1) <= 1e-12,
                        "{kind:?} {route} [{i}][{j}]: {got:?}, untruncated {want:?}"
                    );
                }
                assert!(
                    object.variance()[j] > 0.0,
                    "{kind:?} [{i}][{j}]: variance {}",
                    object.variance()[j]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One pdf of each family at a random mean, spread and coverage. Means
    /// span eight decades on both sides of zero, and a quarter of them are
    /// zero: there the truncation's correction terms are the whole mean
    /// instead of being absorbed by rounding against it.
    #[test]
    fn single_pdf_case2_moments_match_the_oracle(
        log10_abs_mean in -4.0..4.0f64,
        sign in 0usize..4,
        log10_spread in -6.0..3.0f64,
        coverage in 0.01..0.9999f64,
        family in 0usize..3,
    ) {
        let mean = [0.0, 1.0, -1.0, 1.0][sign] * 10f64.powf(log10_abs_mean);
        let spread = 10f64.powf(log10_spread) * mean.abs().max(1.0);
        let pdf = match family {
            0 => UnivariatePdf::uniform_centered(mean, spread),
            1 => UnivariatePdf::normal(mean, spread),
            _ => UnivariatePdf::exponential_with_mean(mean, 1.0 / spread),
        };
        let want = oracle(&pdf, coverage);
        let o = UncertainObject::with_coverage(vec![pdf], coverage);
        let got = (o.mu()[0], o.mu2()[0]);
        prop_assert_eq!(
            (got.0.to_bits(), got.1.to_bits()),
            (want.0.to_bits(), want.1.to_bits()),
            "{:?} at coverage {}: {:?} vs oracle {:?}",
            o.pdf(0),
            coverage,
            got,
            want
        );
    }
}
