//! Flat structure-of-arrays storage for per-object moments — the data layout
//! behind the scalar-aggregate delta-`J` kernel.
//!
//! # Why an arena
//!
//! UCPC's entire `O(I·k·n·m)` cost (Proposition 5) is the inner
//! candidate-relocation evaluation. With per-object [`Moments`] stored as
//! three separately heap-allocated slices, every candidate evaluation chases
//! pointers into small scattered allocations and re-reads `mu`, `mu_2` and
//! `sigma^2` once per cluster statistic it updates. [`MomentArena`] stores
//! the moments of a whole dataset as three contiguous row-major `n × m`
//! matrices plus three per-object scalar columns, so the hot loop touches one
//! contiguous row per object and a handful of scalars.
//!
//! # The dot-product form of the Corollary-1 update
//!
//! Theorem 3 writes the cluster objective in per-dimension sufficient
//! statistics (`s_j = Σ_{o∈C} mu_j(o)` is the signed mean sum whose square is
//! the theorem's `Υ_j`):
//!
//! ```text
//! J(C) = Σ_j ( Ψ_j/|C| + Φ_j − s_j²/|C| )
//!      = Ψ_tot/|C| + Φ_tot − S₂/|C|,
//! ```
//!
//! where `Ψ_tot = Σ_j Ψ_j`, `Φ_tot = Σ_j Φ_j` and `S₂ = Σ_j s_j²` are plain
//! scalars. Corollary 1 updates each `Ψ_j`, `Φ_j`, `s_j` in O(1) per
//! dimension; summing those updates over `j` shows how the three aggregates
//! move when one object `o` joins `C`:
//!
//! ```text
//! Ψ_tot' = Ψ_tot + Σ_j sigma²_j(o)          (the scalar `sum_var(o)`)
//! Φ_tot' = Φ_tot + Σ_j (mu_2)_j(o)          (the scalar `sum_mu2(o)`)
//! S₂'    = Σ_j (s_j + mu_j(o))²
//!        = S₂ + 2·Σ_j s_j·mu_j(o) + Σ_j mu_j(o)²
//!        = S₂ + 2·⟨s, mu(o)⟩ + sum_mu_sq(o),
//! ```
//!
//! and symmetrically with flipped signs when `o` leaves. Every term except
//! `⟨s, mu(o)⟩` is a precomputed per-object scalar, so the full objective
//! change of a candidate relocation collapses to **one fused dot product**
//! between the cluster's flat mean-sum vector `s` and the object's contiguous
//! `mu` row — a single O(m) pass, dispatched at run time to an explicit
//! AVX2/NEON kernel by [`crate::simd`] — instead of the naive three O(m)
//! sweeps (`J(C−o)`, `J(C+o)` per candidate cluster, against ~6
//! array reads and 7 flops per dimension each). The same algebra applied to
//! Lemma 1 (`J_UK = Φ_tot − S₂/|C|`) and Proposition 2 (`J_MM = J_UK/|C|`)
//! yields the UK-means and MMVar kernels.
//!
//! The per-object scalars needed by these updates are exactly the columns the
//! arena precomputes at construction:
//!
//! * `sum_mu_sq(o) = Σ_j mu_j(o)²`,
//! * `sum_mu2(o)  = Σ_j (mu_2)_j(o)` (the object's contribution to `Φ_tot`),
//! * `sum_var(o)  = Σ_j sigma²_j(o)` (Eq. 6's global variance; the
//!   contribution to `Ψ_tot`).
//!
//! [`MomentView`] bundles one object's rows and scalars; `ClusterStats` in
//! `ucpc-core` consumes views through its `delta_j_*` methods and keeps the
//! original per-dimension sweeps as the `naive` reference path.

use crate::moments::Moments;
use crate::object::UncertainObject;

/// Borrowed view of one object's moment rows plus its precomputed scalar
/// aggregates — the unit of work of the delta-`J` kernel.
#[derive(Debug, Clone, Copy)]
pub struct MomentView<'a> {
    /// Expected values `mu_j(o)` (contiguous, length `m`).
    pub mu: &'a [f64],
    /// Second-order moments `(mu_2)_j(o)`.
    pub mu2: &'a [f64],
    /// Variances `sigma²_j(o)`.
    pub var: &'a [f64],
    /// `Σ_j mu_j(o)²`.
    pub sum_mu_sq: f64,
    /// `Σ_j (mu_2)_j(o)` — the object's contribution to `Φ_tot`.
    pub sum_mu2: f64,
    /// `Σ_j sigma²_j(o)` — Eq. (6); the object's contribution to `Ψ_tot`.
    pub sum_var: f64,
    /// `‖mu(o)‖ = sqrt(Σ_j mu_j(o)²)` — the Cauchy–Schwarz factor the
    /// candidate-pruning drift bounds multiply against (see
    /// `ucpc_core::pruning`).
    pub norm_mu: f64,
}

impl MomentView<'_> {
    /// Number of dimensions `m`.
    pub fn dims(&self) -> usize {
        self.mu.len()
    }

    /// Whether the object's moments are usable by the delta-`J` kernel: no
    /// entry is NaN or ±∞ and no aggregate overflows. O(1) — the three
    /// precomputed sums are finite exactly then (`Σ mu²` absorbs any
    /// non-finite `mu` or overflowing square, `Σ mu₂` any non-finite
    /// `mu₂`, `Σ σ²` an overflowing variance total).
    pub fn is_finite(&self) -> bool {
        self.sum_mu_sq.is_finite() && self.sum_mu2.is_finite() && self.sum_var.is_finite()
    }
}

/// Contiguous row-major SoA storage of the moments of `n` objects over `m`
/// dimensions, with precomputed per-object scalar aggregates. The default
/// is an empty arena with nothing reserved.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MomentArena {
    n: usize,
    m: usize,
    mu: Vec<f64>,
    mu2: Vec<f64>,
    var: Vec<f64>,
    sum_mu_sq: Vec<f64>,
    sum_mu2: Vec<f64>,
    sum_var: Vec<f64>,
    norm_mu: Vec<f64>,
}

impl MomentArena {
    /// Builds the arena from a dataset of uncertain objects. All objects must
    /// share one dimensionality (callers validate through
    /// `ucpc_core::framework::validate_input`; this panics otherwise).
    pub fn from_objects(data: &[UncertainObject]) -> Self {
        Self::from_moments(data.iter().map(UncertainObject::moments))
    }

    /// Builds the arena from an iterator of per-object moments.
    pub fn from_moments<'a>(moments: impl IntoIterator<Item = &'a Moments>) -> Self {
        let mut arena = Self {
            n: 0,
            m: 0,
            mu: Vec::new(),
            mu2: Vec::new(),
            var: Vec::new(),
            sum_mu_sq: Vec::new(),
            sum_mu2: Vec::new(),
            sum_var: Vec::new(),
            norm_mu: Vec::new(),
        };
        for mo in moments {
            arena.push(mo);
        }
        arena
    }

    /// An empty arena with `n` rows of `m` dimensions pre-reserved — the
    /// entry point of the arena-native batch pipeline (e.g.
    /// `ucpc_datasets::uncertainty::PdfAssignment::assign_into_arena`),
    /// which fills rows with zero further heap allocations.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut arena = Self::from_moments([]);
        arena.reserve_rows(n, m);
        arena
    }

    /// Reserves space for `additional` more rows of `dims` dimensions. Sets
    /// the arena's dimensionality when it is still empty and unset; panics
    /// if `dims` contradicts rows already present.
    pub fn reserve_rows(&mut self, additional: usize, dims: usize) {
        self.prepare_dims(dims);
        self.mu.reserve(additional * dims);
        self.mu2.reserve(additional * dims);
        self.var.reserve(additional * dims);
        self.sum_mu_sq.reserve(additional);
        self.sum_mu2.reserve(additional);
        self.sum_var.reserve(additional);
        self.norm_mu.reserve(additional);
    }

    /// Number of rows the arena can hold before any of its columns
    /// reallocates — the invariant the zero-allocation batch-pipeline test
    /// checks around a reserved fill.
    pub fn row_capacity(&self) -> usize {
        let per_row = self.m.max(1);
        (self.mu.capacity() / per_row)
            .min(self.mu2.capacity() / per_row)
            .min(self.var.capacity() / per_row)
            .min(self.sum_mu_sq.capacity())
            .min(self.sum_mu2.capacity())
            .min(self.sum_var.capacity())
            .min(self.norm_mu.capacity())
    }

    /// Appends one object's moments as a new row.
    pub fn push(&mut self, mo: &Moments) {
        self.prepare_dims(mo.dims());
        self.mu.extend_from_slice(mo.mu());
        self.mu2.extend_from_slice(mo.mu2());
        self.var.extend_from_slice(mo.variance());
        self.sum_mu_sq.push(mo.sum_mu_sq());
        self.sum_mu2.push(mo.sum_mu2());
        self.sum_var.push(mo.total_variance());
        self.norm_mu.push(mo.norm_mu());
        self.n += 1;
    }

    /// Appends one row *without* a [`Moments`] value: `fill(j)` yields the
    /// dimension's `(mu_j, (mu_2)_j)` pair and the arena derives the
    /// variance (`(mu_2 − mu²)⁺`, Eq. 5 with the same
    /// cancellation clamp as [`Moments::from_mu_mu2`]) and the scalar
    /// aggregates through the same fold `Moments::from_mu_mu2` runs — so a
    /// row built here is bit-identical to pushing the equivalent `Moments`,
    /// signed zeros included. This is the
    /// batch pipeline's write path: no per-object vectors exist, and with
    /// capacity reserved ([`Self::with_capacity`] / [`Self::reserve_rows`])
    /// the fill performs no heap allocation at all.
    pub fn push_row_with(&mut self, dims: usize, fill: impl FnMut(usize) -> (f64, f64)) {
        self.prepare_dims(dims);
        let (sum_mu_sq, sum_mu2, sum_var) = fold_row(dims, fill, |_, mu, mu2, var| {
            self.mu.push(mu);
            self.mu2.push(mu2);
            self.var.push(var);
        });
        self.sum_mu_sq.push(sum_mu_sq);
        self.sum_mu2.push(sum_mu2);
        self.sum_var.push(sum_var);
        self.norm_mu.push(sum_mu_sq.sqrt());
        self.n += 1;
    }

    /// Overwrites row `i` in place with another object's moments, scalar
    /// columns included — no column grows or reallocates. The bits written
    /// are exactly the ones [`Self::push`] would have appended, so a reused
    /// row is indistinguishable from a freshly pushed one; this is the
    /// in-place half of the slab free-list reuse contract
    /// (see [`crate::slab::SlabArena`]).
    pub fn overwrite_row(&mut self, i: usize, mo: &Moments) {
        assert!(i < self.n, "row {i} out of bounds (n = {})", self.n);
        assert_eq!(
            mo.dims(),
            self.m,
            "arena rows must share one dimensionality"
        );
        let row = i * self.m..(i + 1) * self.m;
        self.mu[row.clone()].copy_from_slice(mo.mu());
        self.mu2[row.clone()].copy_from_slice(mo.mu2());
        self.var[row].copy_from_slice(mo.variance());
        self.sum_mu_sq[i] = mo.sum_mu_sq();
        self.sum_mu2[i] = mo.sum_mu2();
        self.sum_var[i] = mo.total_variance();
        self.norm_mu[i] = mo.norm_mu();
    }

    /// Appends one row copied **verbatim** from a kernel view — the
    /// [`MomentView`]-sourced counterpart of [`Self::push`], writing the
    /// same bits `push` would write for the `Moments` behind the view
    /// (variance row and all four scalars copied, never re-derived). This
    /// lets a row hop between arenas — e.g. from a serving layer's staging
    /// ring into a slab store — without materialising an owned `Moments`
    /// and without perturbing a single bit.
    pub fn push_row_view(&mut self, v: &MomentView<'_>) {
        self.prepare_dims(v.dims());
        self.mu.extend_from_slice(v.mu);
        self.mu2.extend_from_slice(v.mu2);
        self.var.extend_from_slice(v.var);
        self.sum_mu_sq.push(v.sum_mu_sq);
        self.sum_mu2.push(v.sum_mu2);
        self.sum_var.push(v.sum_var);
        self.norm_mu.push(v.norm_mu);
        self.n += 1;
    }

    /// Overwrites row `i` in place copied **verbatim** from a kernel view —
    /// the [`MomentView`]-sourced counterpart of [`Self::overwrite_row`],
    /// with the same bit-for-bit copy contract as [`Self::push_row_view`].
    pub fn overwrite_row_view(&mut self, i: usize, v: &MomentView<'_>) {
        assert!(i < self.n, "row {i} out of bounds (n = {})", self.n);
        assert_eq!(v.dims(), self.m, "arena rows must share one dimensionality");
        let row = i * self.m..(i + 1) * self.m;
        self.mu[row.clone()].copy_from_slice(v.mu);
        self.mu2[row.clone()].copy_from_slice(v.mu2);
        self.var[row].copy_from_slice(v.var);
        self.sum_mu_sq[i] = v.sum_mu_sq;
        self.sum_mu2[i] = v.sum_mu2;
        self.sum_var[i] = v.sum_var;
        self.norm_mu[i] = v.norm_mu;
    }

    /// Overwrites row `i` in place from a `(mu_j, (mu_2)_j)` fill closure —
    /// the in-place counterpart of [`Self::push_row_with`], with the
    /// identical per-dimension fold order for the derived variance and
    /// scalar aggregates, so an overwritten row is bit-identical to the row
    /// `push_row_with` would have appended from the same fill.
    pub fn overwrite_row_with(
        &mut self,
        i: usize,
        dims: usize,
        fill: impl FnMut(usize) -> (f64, f64),
    ) {
        assert!(i < self.n, "row {i} out of bounds (n = {})", self.n);
        assert_eq!(dims, self.m, "arena rows must share one dimensionality");
        let base = i * self.m;
        let (sum_mu_sq, sum_mu2, sum_var) = fold_row(dims, fill, |j, mu, mu2, var| {
            self.mu[base + j] = mu;
            self.mu2[base + j] = mu2;
            self.var[base + j] = var;
        });
        self.sum_mu_sq[i] = sum_mu_sq;
        self.sum_mu2[i] = sum_mu2;
        self.sum_var[i] = sum_var;
        self.norm_mu[i] = sum_mu_sq.sqrt();
    }

    /// Pins the arena's dimensionality on the first row (with a small
    /// warm-up reservation when nothing was pre-reserved) and checks it on
    /// every later one.
    fn prepare_dims(&mut self, dims: usize) {
        if self.n == 0 && self.m == 0 {
            self.m = dims;
            if self.mu.capacity() == 0 {
                let hint = 64 * dims;
                self.mu.reserve(hint);
                self.mu2.reserve(hint);
                self.var.reserve(hint);
            }
        }
        assert_eq!(dims, self.m, "arena rows must share one dimensionality");
    }

    /// Number of objects `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the arena holds no objects.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of dimensions `m` (0 until the first row is pushed).
    pub fn dims(&self) -> usize {
        self.m
    }

    /// The `mu` row of object `i` (contiguous slice of length `m`).
    pub fn mu_row(&self, i: usize) -> &[f64] {
        &self.mu[i * self.m..(i + 1) * self.m]
    }

    /// The whole `mu` matrix, row-major (`n × m`, row `i` at
    /// `i*m..(i+1)*m`) — the flat operand batched kernels
    /// ([`crate::simd::dot_block`]) index by row number.
    pub fn mu_flat(&self) -> &[f64] {
        &self.mu
    }

    /// The `mu_2` row of object `i`.
    pub fn mu2_row(&self, i: usize) -> &[f64] {
        &self.mu2[i * self.m..(i + 1) * self.m]
    }

    /// The variance row of object `i`.
    pub fn var_row(&self, i: usize) -> &[f64] {
        &self.var[i * self.m..(i + 1) * self.m]
    }

    /// `Σ_j mu_j(o_i)²`.
    pub fn sum_mu_sq(&self, i: usize) -> f64 {
        self.sum_mu_sq[i]
    }

    /// `Σ_j (mu_2)_j(o_i)`.
    pub fn sum_mu2(&self, i: usize) -> f64 {
        self.sum_mu2[i]
    }

    /// `Σ_j sigma²_j(o_i)` (the object's global variance, Eq. 6).
    pub fn sum_var(&self, i: usize) -> f64 {
        self.sum_var[i]
    }

    /// `‖mu(o_i)‖` — the precomputed mean-vector norm consumed by the
    /// pruning drift bounds.
    pub fn norm_mu(&self, i: usize) -> f64 {
        self.norm_mu[i]
    }

    /// The kernel view of object `i`: its three rows plus the scalars.
    pub fn view(&self, i: usize) -> MomentView<'_> {
        let row = i * self.m..(i + 1) * self.m;
        MomentView {
            mu: &self.mu[row.clone()],
            mu2: &self.mu2[row.clone()],
            var: &self.var[row],
            sum_mu_sq: self.sum_mu_sq[i],
            sum_mu2: self.sum_mu2[i],
            sum_var: self.sum_var[i],
            norm_mu: self.norm_mu[i],
        }
    }
}

/// The one canonical per-row fold behind [`Moments::from_mu_mu2`],
/// [`MomentArena::push_row_with`] and [`MomentArena::overwrite_row_with`]:
/// derives each dimension's variance (`(mu_2 − mu²)⁺`, Eq. 5 with a
/// cancellation clamp), hands the triple to `write`, and accumulates the
/// scalar aggregates in dimension order from `+0.0`. Owned, appended and
/// overwritten rows are bit-identical — signed zeros and `m = 0` included —
/// *because this fold exists exactly once*: the three write paths differ
/// only in where `write` puts the values.
#[inline]
pub(crate) fn fold_row(
    dims: usize,
    mut fill: impl FnMut(usize) -> (f64, f64),
    mut write: impl FnMut(usize, f64, f64, f64),
) -> (f64, f64, f64) {
    let mut sum_mu_sq = 0.0f64;
    let mut sum_mu2 = 0.0f64;
    let mut sum_var = 0.0f64;
    for j in 0..dims {
        let (mu, mu2) = fill(j);
        let var = (mu2 - mu * mu).max(0.0);
        write(j, mu, mu2, var);
        sum_mu_sq += mu * mu;
        sum_mu2 += mu2;
        sum_var += var;
    }
    (sum_mu_sq, sum_mu2, sum_var)
}

/// Fused dot product `⟨a, b⟩` — the kernel's single O(m) pass, dispatched
/// at run time to the best SIMD backend the machine supports (see
/// [`crate::simd`] for the backend set, the `UCPC_SIMD` knob, and the
/// bit-identity contract between backends).
///
/// This is the dot product of the Corollary-1 update: with `s` a cluster's
/// per-dimension mean sums, the objective change of adding an object `o`
/// needs exactly `⟨s, mu(o)⟩` beyond precomputed scalars (module docs above
/// derive this). End to end:
///
/// ```
/// use ucpc_uncertain::arena::{dot, MomentArena};
/// use ucpc_uncertain::Moments;
///
/// let arena = MomentArena::from_moments([
///     &Moments::of_point(&[1.0, 2.0]),
///     &Moments::of_point(&[3.0, -1.0]),
/// ]);
///
/// // Cluster C = {o_0}: mean-sum vector s = mu(o_0); candidate o = o_1.
/// let s = arena.mu_row(0).to_vec();
/// let o = arena.view(1);
///
/// // Corollary 1 in scalar-aggregate form: S₂' = S₂ + 2⟨s, mu(o)⟩ + Σ mu(o)²
/// let s_sq: f64 = s.iter().map(|x| x * x).sum();
/// let s_sq_new = s_sq + 2.0 * dot(&s, o.mu) + o.sum_mu_sq;
///
/// // ... which must equal Σ_j (s_j + mu_j(o))² computed from scratch.
/// let rebuilt: f64 = s
///     .iter()
///     .zip(o.mu)
///     .map(|(sj, mj)| (sj + mj) * (sj + mj))
///     .sum();
/// assert!((s_sq_new - rebuilt).abs() < 1e-12);
/// ```
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    crate::simd::dot(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdf::UnivariatePdf;

    fn objects() -> Vec<UncertainObject> {
        vec![
            UncertainObject::new(vec![
                UnivariatePdf::normal(1.0, 0.5),
                UnivariatePdf::uniform_centered(-2.0, 1.0),
                UnivariatePdf::normal(0.25, 2.0),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::exponential_with_mean(0.5, 1.5),
                UnivariatePdf::normal(3.0, 0.1),
                UnivariatePdf::PointMass { x: -4.0 },
            ]),
        ]
    }

    #[test]
    fn rows_match_per_object_moments() {
        let objs = objects();
        let arena = MomentArena::from_objects(&objs);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.dims(), 3);
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(arena.mu_row(i), o.mu());
            assert_eq!(arena.mu2_row(i), o.mu2());
            assert_eq!(arena.var_row(i), o.variance());
        }
    }

    #[test]
    fn scalars_match_row_sums() {
        let objs = objects();
        let arena = MomentArena::from_objects(&objs);
        for i in 0..arena.len() {
            let mu_sq: f64 = arena.mu_row(i).iter().map(|&x| x * x).sum();
            let mu2: f64 = arena.mu2_row(i).iter().sum();
            let var: f64 = arena.var_row(i).iter().sum();
            assert!((arena.sum_mu_sq(i) - mu_sq).abs() < 1e-12);
            assert!((arena.sum_mu2(i) - mu2).abs() < 1e-12);
            assert!((arena.sum_var(i) - var).abs() < 1e-12);
            assert!((arena.norm_mu(i) - mu_sq.sqrt()).abs() < 1e-12);
            let v = arena.view(i);
            assert_eq!(v.dims(), 3);
            assert_eq!(v.mu, arena.mu_row(i));
            assert!((v.sum_mu_sq - mu_sq).abs() < 1e-12);
        }
    }

    #[test]
    fn view_agrees_with_moments_view() {
        let objs = objects();
        let arena = MomentArena::from_objects(&objs);
        for (i, o) in objs.iter().enumerate() {
            let a = arena.view(i);
            let m = o.moments().view();
            assert_eq!(a.mu, m.mu);
            assert_eq!(a.mu2, m.mu2);
            assert_eq!(a.var, m.var);
            assert!((a.sum_mu_sq - m.sum_mu_sq).abs() < 1e-12);
            assert!((a.sum_mu2 - m.sum_mu2).abs() < 1e-12);
            assert!((a.sum_var - m.sum_var).abs() < 1e-12);
        }
    }

    #[test]
    fn dot_matches_naive_for_all_lengths() {
        for n in 0..64usize {
            let a: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 - (i as f64) * 0.25).collect();
            let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-9, "length {n}");
        }
    }

    #[test]
    fn push_row_with_is_bit_identical_to_pushing_moments() {
        let objs = objects();
        let reference = MomentArena::from_objects(&objs);
        let mut built = MomentArena::with_capacity(objs.len(), 3);
        for o in &objs {
            let mo = o.moments();
            built.push_row_with(3, |j| (mo.mu()[j], mo.mu2()[j]));
        }
        assert_eq!(built, reference);
    }

    #[test]
    fn reserved_fill_never_reallocates() {
        let n = 100;
        let mut arena = MomentArena::with_capacity(n, 4);
        let cap = arena.row_capacity();
        assert!(cap >= n);
        for i in 0..n {
            arena.push_row_with(4, |j| {
                let mu = (i * 4 + j) as f64 * 0.25 - 3.0;
                (mu, mu * mu + 0.5)
            });
        }
        assert_eq!(arena.len(), n);
        assert_eq!(
            arena.row_capacity(),
            cap,
            "filling a reserved arena must not grow any column"
        );
    }

    #[test]
    fn reserve_rows_extends_an_existing_arena() {
        let mut arena = MomentArena::from_objects(&objects());
        arena.reserve_rows(500, 3);
        let cap = arena.row_capacity();
        assert!(cap >= arena.len() + 500);
        for _ in 0..500 {
            arena.push_row_with(3, |j| (j as f64, j as f64 * j as f64 + 1.0));
        }
        assert_eq!(arena.row_capacity(), cap);
    }

    #[test]
    fn overwrite_row_matches_push_bit_for_bit() {
        let objs = objects();
        let reference = MomentArena::from_objects(&objs);
        // Build an arena with the rows swapped, then overwrite both rows
        // back: the result must equal the straight-pushed reference exactly.
        let mut arena = MomentArena::from_moments([objs[1].moments(), objs[0].moments()]);
        arena.overwrite_row(0, objs[0].moments());
        arena.overwrite_row(1, objs[1].moments());
        assert_eq!(arena, reference);
    }

    #[test]
    fn overwrite_row_with_matches_push_row_with() {
        let objs = objects();
        let reference = MomentArena::from_objects(&objs);
        let mut arena = MomentArena::from_objects(&objs);
        // Scribble over row 0, then rebuild it through the fill closure.
        arena.overwrite_row_with(0, 3, |_| (1234.5, 1234.5 * 1234.5 + 1.0));
        assert_ne!(arena, reference);
        let mo = objs[0].moments();
        arena.overwrite_row_with(0, 3, |j| (mo.mu()[j], mo.mu2()[j]));
        assert_eq!(arena, reference);
    }

    #[test]
    fn view_writers_match_moments_writers_bit_for_bit() {
        let objs = objects();
        let reference = MomentArena::from_objects(&objs);
        // push_row_view from Moments views.
        let mut pushed = MomentArena::with_capacity(objs.len(), 3);
        for o in &objs {
            pushed.push_row_view(&o.moments().view());
        }
        assert_eq!(pushed, reference);
        // overwrite_row_view from another arena's row views.
        let mut arena = MomentArena::from_moments([objs[1].moments(), objs[0].moments()]);
        let v0 = reference.view(0);
        let v1 = reference.view(1);
        arena.overwrite_row_view(0, &v0);
        arena.overwrite_row_view(1, &v1);
        assert_eq!(arena, reference);
    }

    /// Every field of a view as raw bits (`f64` equality would let a
    /// `-0.0`/`+0.0` split through).
    fn view_bits(v: &MomentView<'_>) -> Vec<u64> {
        let rows = v.mu.iter().chain(v.mu2).chain(v.var);
        let scalars = [v.sum_mu_sq, v.sum_mu2, v.sum_var, v.norm_mu];
        rows.chain(&scalars).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn signed_zero_and_empty_rows_are_bit_identical_across_constructors() {
        let cases: [(Vec<f64>, Vec<f64>); 5] = [
            (vec![0.0, 0.0], vec![-0.0, -0.0]),
            (vec![-0.0, -0.0], vec![-0.0, -0.0]),
            (vec![-0.0, 0.0], vec![0.0, -0.0]),
            (vec![-0.0], vec![-0.0]),
            (vec![], vec![]),
        ];
        for (mu, mu2) in cases {
            let m = mu.len();
            let what = format!("mu {mu:?}, mu2 {mu2:?}");
            let mo = Moments::from_mu_mu2(mu.clone(), mu2.clone());
            let want = view_bits(&mo.view());
            let pushed = MomentArena::from_moments([&mo]);
            let mut filled = MomentArena::with_capacity(1, m);
            filled.push_row_with(m, |j| (mu[j], mu2[j]));
            let mut overwritten =
                MomentArena::from_moments([&Moments::from_mu_mu2(vec![3.0; m], vec![10.0; m])]);
            overwritten.overwrite_row_with(0, m, |j| (mu[j], mu2[j]));
            let mut copied = MomentArena::from_moments([&mo]);
            copied.overwrite_row(0, &mo);
            for (path, arena) in [
                ("push", &pushed),
                ("push_row_with", &filled),
                ("overwrite_row_with", &overwritten),
                ("overwrite_row", &copied),
            ] {
                assert_eq!(view_bits(&arena.view(0)), want, "{path}: {what}");
            }
        }
        // The sums start from +0.0, so an all-negative-zero row sums to +0.0.
        let mo = Moments::from_mu_mu2(vec![0.0, 0.0], vec![-0.0, -0.0]);
        assert_eq!(mo.sum_mu2().to_bits(), 0.0f64.to_bits());
        assert_eq!(Moments::from_mu_mu2(vec![], vec![]).norm_mu().to_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn overwrite_out_of_bounds_panics() {
        let mut arena = MomentArena::from_objects(&objects());
        let mo = Moments::of_point(&[1.0, 2.0, 3.0]);
        arena.overwrite_row(2, &mo);
    }

    #[test]
    #[should_panic(expected = "share one dimensionality")]
    fn mixed_dimensionality_panics() {
        let mut arena = MomentArena::from_objects(&objects());
        let one_dim = Moments::of_point(&[1.0]);
        arena.push(&one_dim);
    }
}
