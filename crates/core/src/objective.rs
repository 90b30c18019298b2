//! Cluster objective functions in closed form (Theorem 3, Corollary 1) and
//! the comparison identities of Propositions 2–3.
//!
//! [`ClusterStats`] holds the per-dimension sufficient statistics of a
//! cluster `C`:
//!
//! * `psi_j  = Σ_i (sigma^2)_j(o_i)`  (Theorem 3's `Ψ`),
//! * `phi_j  = Σ_i (mu_2)_j(o_i)`    (Theorem 3's `Φ`),
//! * `s_j    = Σ_i mu_j(o_i)`        (the *signed* mean sum; Theorem 3's
//!   `Υ_j` is `s_j^2`).
//!
//! Storing the raw sum instead of `Υ` itself is a deliberate deviation from
//! the literal text of Corollary 1, whose `sqrt(Υ)`-based update is undefined
//! for negative mean sums; the raw-sum updates are exact and branch-free and
//! produce identical `J` values (unit-tested).
//!
//! From these, every objective in the paper is O(m):
//!
//! * `J(C)    = Σ_j (psi_j/|C| + phi_j − s_j²/|C|)`          (Theorem 3),
//! * `J_UK(C) = Σ_j (phi_j − s_j²/|C|)`                       (Lemma 1),
//! * `J_MM(C) = J_UK(C)/|C|`                                  (Proposition 2),
//! * `Ĵ(C)    = 2 J_UK(C)`                                    (Proposition 3),
//!
//! and adding/removing one object is O(m) (Corollary 1), which is what gives
//! UCPC its `O(I k n m)` complexity (Proposition 5).
//!
//! # The scalar-aggregate delta-`J` kernel
//!
//! On top of the per-dimension vectors, [`ClusterStats`] incrementally
//! maintains the three scalar aggregates
//!
//! * `Ψ_tot = Σ_j psi_j`,
//! * `Φ_tot = Σ_j phi_j`,
//! * `S₂   = Σ_j s_j²`,
//!
//! which make every objective O(1) (`J = Ψ_tot/|C| + Φ_tot − S₂/|C|`) and
//! collapse each candidate relocation to closed-form scalars plus a single
//! fused dot product `⟨s, mu(o)⟩` over contiguous memory — see the
//! derivation in [`ucpc_uncertain::arena`]. The `delta_j_*` methods are this
//! kernel; the `*_after_add` / `*_after_remove` methods keep the original
//! three-sweep O(m) evaluation as the `naive` reference path that tests and
//! benches compare against.

use ucpc_uncertain::arena::{dot, MomentView};
use ucpc_uncertain::{Moments, UncertainObject};

/// Per-cluster sufficient statistics with O(m) add/remove, O(1) objective
/// evaluation, and the single-dot-product relocation kernel.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    psi: Vec<f64>,
    phi: Vec<f64>,
    mean_sum: Vec<f64>,
    size: usize,
    /// `Ψ_tot = Σ_j psi_j`, maintained incrementally.
    psi_tot: f64,
    /// `Φ_tot = Σ_j phi_j`, maintained incrementally.
    phi_tot: f64,
    /// `S₂ = Σ_j s_j²`, maintained incrementally via the kernel identity
    /// `Σ_j (s_j ± mu_j)² = S₂ ± 2⟨s, mu⟩ + Σ_j mu_j²`.
    s_sq_tot: f64,
    /// Monotone drift accumulators for the pruning bounds (see
    /// [`crate::pruning`]); grown only by [`Self::add_view_tracked`] /
    /// [`Self::remove_view_tracked`], so the plain relocation path pays
    /// nothing for them.
    drift: ClusterDrift,
}

/// Bookkeeping is invisible to equality: two statistics objects describing
/// the same cluster compare equal regardless of how many tracked relocations
/// each has witnessed.
impl PartialEq for ClusterStats {
    fn eq(&self, other: &Self) -> bool {
        self.psi == other.psi
            && self.phi == other.phi
            && self.mean_sum == other.mean_sum
            && self.size == other.size
            && self.psi_tot == other.psi_tot
            && self.phi_tot == other.phi_tot
            && self.s_sq_tot == other.s_sq_tot
    }
}

/// Per-cluster accumulated drift-bound coefficients: for each of the two
/// delta-`J` directions (add a candidate / remove a member), the running sums
/// of the constant, size-coupled and mean-coupled coefficients derived in
/// [`crate::pruning`]. All six sums are monotone non-decreasing within one
/// search, which lets per-object snapshots of them act as watermarks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClusterDrift {
    /// Add-direction constant term `Σ |T(C') − T(C)|`.
    pub add_const: f64,
    /// Add-direction coefficient of `q(o) = sigma²(o) + ‖mu(o)‖²`.
    pub add_size: f64,
    /// Add-direction coefficient of `2‖mu(o)‖`.
    pub add_mean: f64,
    /// Remove-direction constant term `Σ |U(C') − U(C)|`.
    pub rem_const: f64,
    /// Remove-direction coefficient of `q(o)`.
    pub rem_size: f64,
    /// Remove-direction coefficient of `2‖mu(o)‖`.
    pub rem_mean: f64,
}

/// `T(C) = (Ψ_tot − S₂) / (|C| (|C|+1))`, the cluster-only constant of the
/// add-direction delta (zero for an empty cluster).
fn t_term(size: usize, a: f64) -> f64 {
    if size == 0 {
        0.0
    } else {
        a / (size as f64 * (size + 1) as f64)
    }
}

/// `U(C) = (Ψ_tot − S₂) / (|C| (|C|−1))`, the cluster-only constant of the
/// remove-direction delta. Callers guarantee `size >= 2`.
fn u_term(size: usize, a: f64) -> f64 {
    a / (size as f64 * (size - 1) as f64)
}

/// `‖mu(o)·scale − s‖`, the un-normalized mean-sum displacement of a
/// tracked transition, expanded through the already-available scalars:
/// `scale²·Σmu² − 2·scale·⟨s, mu⟩ + ‖s‖²` (clamped against cancellation).
fn displacement(scale: f64, sum_mu_sq: f64, cross: f64, s_sq: f64) -> f64 {
    (scale * scale * sum_mu_sq - 2.0 * scale * cross + s_sq)
        .max(0.0)
        .sqrt()
}

impl ClusterStats {
    /// Empty cluster over `m` dimensions.
    pub fn empty(m: usize) -> Self {
        Self {
            psi: vec![0.0; m],
            phi: vec![0.0; m],
            mean_sum: vec![0.0; m],
            size: 0,
            psi_tot: 0.0,
            phi_tot: 0.0,
            s_sq_tot: 0.0,
            drift: ClusterDrift::default(),
        }
    }

    /// Builds statistics from a set of member objects.
    pub fn from_members<'a>(members: impl IntoIterator<Item = &'a UncertainObject>) -> Self {
        let mut iter = members.into_iter();
        let first = iter
            .next()
            .expect("from_members requires at least one object");
        let mut stats = Self::empty(first.dims());
        stats.add(first.moments());
        for o in iter {
            stats.add(o.moments());
        }
        stats
    }

    /// Number of dimensions `m`.
    pub fn dims(&self) -> usize {
        self.psi.len()
    }

    /// Cluster size `|C|`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// `Ψ_j` values (sum of member variances per dimension).
    pub fn psi(&self) -> &[f64] {
        &self.psi
    }

    /// `Φ_j` values (sum of member second moments per dimension).
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// Signed mean sums `s_j = Σ_i mu_j(o_i)`; `Υ_j = s_j^2`.
    pub fn mean_sum(&self) -> &[f64] {
        &self.mean_sum
    }

    /// `Υ_j = (Σ_i mu_j(o_i))^2` as written in Theorem 3.
    pub fn upsilon(&self, j: usize) -> f64 {
        self.mean_sum[j] * self.mean_sum[j]
    }

    /// Adds one object (Corollary 1, `C+` direction). O(m).
    pub fn add(&mut self, o: &Moments) {
        self.add_view(&o.view());
    }

    /// Removes one member (Corollary 1, `C−` direction). O(m).
    ///
    /// The caller must only remove objects previously added; this is not
    /// checked beyond a size underflow panic.
    pub fn remove(&mut self, o: &Moments) {
        self.remove_view(&o.view());
    }

    /// Adds one object through a kernel view: one fused O(m) pass updates the
    /// per-dimension vectors and the `⟨s, mu⟩` cross term, then the scalar
    /// aggregates move by the view's precomputed scalars.
    pub fn add_view(&mut self, v: &MomentView<'_>) {
        self.add_view_impl(v);
    }

    /// [`Self::add_view`]'s body; returns the `⟨s_pre, mu(o)⟩` cross term
    /// the update already computes, which the drift-tracked wrapper reuses
    /// for the exact normalized-mean displacement.
    fn add_view_impl(&mut self, v: &MomentView<'_>) -> f64 {
        debug_assert_eq!(v.dims(), self.dims(), "dimension mismatch");
        // The ⟨s, mu(o)⟩ cross term goes through the dispatched SIMD kernel
        // — the same code path (and therefore the same bits) as the
        // scan-side `delta_j_*` evaluations and the drift-displacement
        // updates that reuse the returned value.
        let cross = dot(&self.mean_sum, v.mu);
        for j in 0..self.dims() {
            self.psi[j] += v.var[j];
            self.phi[j] += v.mu2[j];
            self.mean_sum[j] += v.mu[j];
        }
        self.psi_tot += v.sum_var;
        self.phi_tot += v.sum_mu2;
        self.s_sq_tot += 2.0 * cross + v.sum_mu_sq;
        self.size += 1;
        cross
    }

    /// Removes one member through a kernel view (see [`Self::add_view`]).
    pub fn remove_view(&mut self, v: &MomentView<'_>) {
        self.remove_view_impl(v);
    }

    /// [`Self::remove_view`]'s body; returns the `⟨s_post, mu(o)⟩` cross
    /// term (so `⟨s_pre, mu(o)⟩ = cross + Σ mu_j²`).
    fn remove_view_impl(&mut self, v: &MomentView<'_>) -> f64 {
        assert!(self.size > 0, "cannot remove from an empty cluster");
        debug_assert_eq!(v.dims(), self.dims(), "dimension mismatch");
        for j in 0..self.dims() {
            self.psi[j] -= v.var[j];
            self.phi[j] -= v.mu2[j];
            self.mean_sum[j] -= v.mu[j];
        }
        // ⟨s_post, mu(o)⟩ through the dispatched SIMD kernel, against the
        // already-updated mean sums.
        let cross = dot(&self.mean_sum, v.mu);
        self.psi_tot -= v.sum_var;
        self.phi_tot -= v.sum_mu2;
        // s' = s − mu, and Σ (s'_j)² = S₂ − 2⟨s', mu⟩ − Σ mu_j² with the
        // cross term taken against the *post-removal* mean sums.
        self.s_sq_tot -= 2.0 * cross + v.sum_mu_sq;
        self.size -= 1;
        if self.size == 0 {
            // Re-zero the aggregates so floating-point residue cannot leak
            // into a reused empty cluster.
            self.psi_tot = 0.0;
            self.phi_tot = 0.0;
            self.s_sq_tot = 0.0;
        }
        cross
    }

    /// Adds one object like [`Self::add_view`] while accumulating the drift
    /// bounds of [`crate::pruning`]. Returns `true` when the transition is
    /// "small" (a cluster size below 2 before or after), in which case the
    /// remove-direction coefficients could not be soundly accumulated and
    /// the caller must invalidate the cache entries rooted in this cluster
    /// (bump its per-cluster version — the add-direction coefficients are
    /// accumulated unconditionally and stay sound, which is what makes the
    /// surgical invalidation of [`crate::pruning`] exact).
    pub fn add_view_tracked(&mut self, v: &MomentView<'_>) -> bool {
        let n = self.size;
        let a_pre = self.psi_tot - self.s_sq_tot;
        let s_sq_pre = self.s_sq_tot;
        // ⟨s_pre, mu(o)⟩, computed inside the update it piggybacks on.
        let cross = self.add_view_impl(v);
        let a_post = self.psi_tot - self.s_sq_tot;
        let w = |scale: f64| displacement(scale, v.sum_mu_sq, cross, s_sq_pre);

        // Add direction (denominators n+1 → n+2): the normalized mean moves
        // by exactly ‖mu(o)·(n+1) − s‖ / ((n+1)(n+2)).
        let inv_pre = 1.0 / (n + 1) as f64;
        let inv_post = 1.0 / (n + 2) as f64;
        self.drift.add_const += (t_term(n + 1, a_post) - t_term(n, a_pre)).abs();
        self.drift.add_size += inv_pre - inv_post;
        self.drift.add_mean += w((n + 1) as f64) * (inv_pre * inv_post);

        // Remove direction (denominators n−1 → n): needs both sizes >= 2.
        if n < 2 {
            return true;
        }
        let rinv_pre = 1.0 / (n - 1) as f64;
        let rinv_post = 1.0 / n as f64;
        self.drift.rem_const += (u_term(n + 1, a_post) - u_term(n, a_pre)).abs();
        self.drift.rem_size += rinv_pre - rinv_post;
        self.drift.rem_mean += w((n - 1) as f64) * (rinv_pre * rinv_post);
        false
    }

    /// Removes one member like [`Self::remove_view`] while accumulating the
    /// drift bounds of [`crate::pruning`]; same `true` ⇒ version-bump
    /// contract as [`Self::add_view_tracked`].
    pub fn remove_view_tracked(&mut self, v: &MomentView<'_>) -> bool {
        let n = self.size;
        let a_pre = self.psi_tot - self.s_sq_tot;
        let s_sq_pre = self.s_sq_tot;
        // remove_view's cross is ⟨s_post, mu(o)⟩; shift back to s_pre.
        let cross = self.remove_view_impl(v) + v.sum_mu_sq;
        let a_post = self.psi_tot - self.s_sq_tot;
        let w = |scale: f64| displacement(scale, v.sum_mu_sq, cross, s_sq_pre);

        // Add direction (denominators n+1 → n): exact displacement
        // ‖s − mu(o)·(n+1)‖ / (n(n+1)); valid down to emptying the cluster.
        let inv_pre = 1.0 / (n + 1) as f64;
        let inv_post = 1.0 / n as f64;
        self.drift.add_const += (t_term(n - 1, a_post) - t_term(n, a_pre)).abs();
        self.drift.add_size += inv_post - inv_pre;
        self.drift.add_mean += w((n + 1) as f64) * (inv_pre * inv_post);

        // Remove direction (denominators n−1 → n−2): needs both sizes >= 2.
        if n < 3 {
            return true;
        }
        let rinv_pre = 1.0 / (n - 1) as f64;
        let rinv_post = 1.0 / (n - 2) as f64;
        self.drift.rem_const += (u_term(n - 1, a_post) - u_term(n, a_pre)).abs();
        self.drift.rem_size += rinv_post - rinv_pre;
        self.drift.rem_mean += w((n - 1) as f64) * (rinv_pre * rinv_post);
        false
    }

    /// The accumulated drift-bound coefficients (see [`crate::pruning`]).
    pub fn drift(&self) -> ClusterDrift {
        self.drift
    }

    /// A magnitude scale for the cluster's aggregates, used to size the
    /// floating-point safety slack of the pruning bounds: cancellation noise
    /// in a delta-`J` evaluation is proportional to the largest aggregate
    /// the subtraction passes through.
    pub fn magnitude(&self) -> f64 {
        self.psi_tot.abs() + self.phi_tot.abs() + self.s_sq_tot.abs()
    }

    /// The UCPC objective `J(C)` of Theorem 3, in scalar-aggregate form:
    /// `Ψ_tot/|C| + Φ_tot − S₂/|C|`. O(1); zero for an empty cluster.
    pub fn j(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let inv = 1.0 / self.size as f64;
        self.psi_tot * inv + self.phi_tot - self.s_sq_tot * inv
    }

    /// `J(C)` recomputed by the original per-dimension sweep — the naive
    /// reference for the scalar-aggregate [`Self::j`].
    pub fn j_naive(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let inv = 1.0 / self.size as f64;
        let mut acc = 0.0;
        for j in 0..self.dims() {
            acc += self.psi[j] * inv + self.phi[j] - self.mean_sum[j] * self.mean_sum[j] * inv;
        }
        acc
    }

    /// The UK-means objective `J_UK(C)` in Lemma 1's closed form, scalar
    /// aggregates: `Φ_tot − S₂/|C|`. O(1); zero for an empty cluster.
    pub fn j_uk(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        self.phi_tot - self.s_sq_tot / self.size as f64
    }

    /// `J_UK(C)` recomputed by the original per-dimension sweep — the naive
    /// reference for the scalar-aggregate [`Self::j_uk`].
    pub fn j_uk_naive(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let inv = 1.0 / self.size as f64;
        let mut acc = 0.0;
        for j in 0..self.dims() {
            acc += self.phi[j] - self.mean_sum[j] * self.mean_sum[j] * inv;
        }
        acc
    }

    /// The MMVar objective `J_MM(C) = sigma^2(C_MM)`; by Proposition 2 this
    /// equals `J_UK(C)/|C|`. Zero for an empty cluster.
    pub fn j_mm(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        self.j_uk() / self.size as f64
    }

    /// The mixed objective `Ĵ(C)` of Eq. (12); by Proposition 3 it equals
    /// `2 J_UK(C)`.
    pub fn j_hat(&self) -> f64 {
        2.0 * self.j_uk()
    }

    /// Objective change `J(C ∪ {o}) − J(C)` evaluated by the
    /// scalar-aggregate kernel: one fused dot product `⟨s, mu(o)⟩` plus O(1)
    /// scalar algebra (see [`ucpc_uncertain::arena`] for the derivation; the
    /// dot product is dispatched to a SIMD backend by
    /// [`ucpc_uncertain::simd`]).
    ///
    /// ```
    /// use ucpc_core::ClusterStats;
    /// use ucpc_uncertain::{MomentArena, Moments};
    ///
    /// let arena = MomentArena::from_moments([
    ///     &Moments::from_mu_mu2(vec![0.0, 1.0], vec![0.5, 2.0]),
    ///     &Moments::from_mu_mu2(vec![1.0, 0.0], vec![1.5, 0.25]),
    ///     &Moments::from_mu_mu2(vec![5.0, 4.0], vec![26.0, 17.0]),
    /// ]);
    /// let mut c = ClusterStats::empty(2);
    /// c.add_view(&arena.view(0));
    /// c.add_view(&arena.view(1));
    ///
    /// // Corollary 1 in dot-product form: the objective change of adding
    /// // o_2 costs one fused ⟨s, mu(o_2)⟩ — no sweep over the cluster.
    /// let predicted = c.j() + c.delta_j_add(&arena.view(2));
    ///
    /// // It must equal J of the cluster rebuilt with o_2 from scratch.
    /// let mut full = c.clone();
    /// full.add_view(&arena.view(2));
    /// assert!((predicted - full.j()).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn delta_j_add(&self, v: &MomentView<'_>) -> f64 {
        debug_assert_eq!(v.dims(), self.dims(), "dimension mismatch");
        self.delta_j_add_with_cross(v, dot(&self.mean_sum, v.mu))
    }

    /// [`Self::delta_j_add`] with the `⟨s, mu(o)⟩` cross term supplied by
    /// the caller — the hook that lets a candidate scan batch several
    /// clusters' cross terms into one fused [`ucpc_uncertain::simd::dot3`]
    /// pass over the object's `mu` row. `cross` must be the dot product of
    /// [`Self::mean_sum`] with `v.mu` computed by the dispatched kernel;
    /// because `dot3`'s components are bit-identical to single `dot` calls,
    /// batched and unbatched scans produce identical deltas.
    #[inline]
    pub fn delta_j_add_with_cross(&self, v: &MomentView<'_>, cross: f64) -> f64 {
        self.delta_j_add_from_parts(v.sum_var, v.sum_mu_sq, v.sum_mu2, cross)
    }

    /// [`Self::delta_j_add_with_cross`] with the object reduced to the three
    /// scalars the formula actually reads (`Σvar`, `‖mu‖²`, `Σμ₂`) — the
    /// hook for batch pricing loops that stage those scalars once per
    /// arrival instead of materializing a [`MomentView`] per (cluster,
    /// arrival) pair. This *is* the Corollary-1 delta: every other add-side
    /// delta entry point delegates here, so all of them are bit-identical
    /// by construction.
    #[inline]
    pub fn delta_j_add_from_parts(
        &self,
        sum_var: f64,
        sum_mu_sq: f64,
        sum_mu2: f64,
        cross: f64,
    ) -> f64 {
        self.add_pricer().price(sum_var, sum_mu_sq, sum_mu2, cross)
    }

    /// The cluster's add-side pricing constants, hoisted for a batch loop:
    /// `1/(|C|+1)` and the base objective `J(C)` cost one division each and
    /// are identical for every arrival priced against the same statistics,
    /// so a `B × k` pricing pass pays them once per cluster instead of once
    /// per (cluster, arrival). [`Self::delta_j_add_from_parts`] delegates to
    /// [`AddPricer::price`], keeping every add-side delta bit-identical by
    /// construction.
    #[inline]
    pub fn add_pricer(&self) -> AddPricer {
        AddPricer {
            new_inv: 1.0 / (self.size + 1) as f64,
            psi_tot: self.psi_tot,
            s_sq_tot: self.s_sq_tot,
            phi_tot: self.phi_tot,
            j_base: self.j(),
        }
    }

    /// An exact lower bound on [`Self::delta_j_add`] that needs **no dot
    /// product**: [`Self::delta_j_add_with_cross`] is strictly decreasing in
    /// the cross term (its coefficient is `−2/(|C|+1)`), and Cauchy–Schwarz
    /// caps the cross term at `⟨s, mu(o)⟩ ≤ ‖s‖·‖mu(o)‖ = sqrt(S₂)·‖mu(o)‖`,
    /// so evaluating the delta at that cap bounds the true value from below.
    /// O(1) per cluster; the bounded placement scan
    /// ([`crate::pruning::best_insertion_bounded`]) uses it to discard
    /// clusters that provably cannot win the placement argmin, guarded by
    /// [`crate::pruning::slack`] against floating-point rounding.
    #[inline]
    pub fn delta_j_add_lower_bound(&self, v: &MomentView<'_>) -> f64 {
        let cross_max = self.s_sq_tot.max(0.0).sqrt() * v.norm_mu;
        self.delta_j_add_with_cross(v, cross_max)
    }

    /// The incrementally-maintained scalar aggregates
    /// `(Ψ_tot, Φ_tot, S₂)` — raw state for the snapshot codec.
    pub(crate) fn scalar_aggregates(&self) -> (f64, f64, f64) {
        (self.psi_tot, self.phi_tot, self.s_sq_tot)
    }

    /// Reassembles statistics from raw serialized state (snapshot restore).
    /// Nothing is re-derived: the parts are installed verbatim, so a value
    /// round-tripped through [`Self::scalar_aggregates`] and the public
    /// accessors is bit-identical to the original.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        psi: Vec<f64>,
        phi: Vec<f64>,
        mean_sum: Vec<f64>,
        size: usize,
        psi_tot: f64,
        phi_tot: f64,
        s_sq_tot: f64,
        drift: ClusterDrift,
    ) -> Self {
        debug_assert_eq!(psi.len(), phi.len());
        debug_assert_eq!(psi.len(), mean_sum.len());
        Self {
            psi,
            phi,
            mean_sum,
            size,
            psi_tot,
            phi_tot,
            s_sq_tot,
            drift,
        }
    }

    /// Objective change `J(C ∖ {o}) − J(C)` evaluated by the
    /// scalar-aggregate kernel. `o` must be a member; `−J(C)` when removing
    /// the last member.
    ///
    /// ```
    /// use ucpc_core::ClusterStats;
    /// use ucpc_uncertain::{MomentArena, Moments};
    ///
    /// let arena = MomentArena::from_moments([
    ///     &Moments::from_mu_mu2(vec![0.0], vec![1.0]),
    ///     &Moments::from_mu_mu2(vec![2.0], vec![4.5]),
    ///     &Moments::from_mu_mu2(vec![-1.0], vec![1.25]),
    /// ]);
    /// let mut c = ClusterStats::empty(1);
    /// for i in 0..3 {
    ///     c.add_view(&arena.view(i));
    /// }
    ///
    /// // One dot product predicts J(C ∖ {o_1}) − J(C) (Corollary 1) ...
    /// let predicted = c.j() + c.delta_j_remove(&arena.view(1));
    ///
    /// // ... matching the cluster rebuilt without o_1.
    /// let mut rest = ClusterStats::empty(1);
    /// rest.add_view(&arena.view(0));
    /// rest.add_view(&arena.view(2));
    /// assert!((predicted - rest.j()).abs() < 1e-12);
    ///
    /// // Removing the last member of a singleton is −J by definition.
    /// let mut single = ClusterStats::empty(1);
    /// single.add_view(&arena.view(0));
    /// assert_eq!(single.delta_j_remove(&arena.view(0)), -single.j());
    /// ```
    #[inline]
    pub fn delta_j_remove(&self, v: &MomentView<'_>) -> f64 {
        debug_assert_eq!(v.dims(), self.dims(), "dimension mismatch");
        assert!(self.size > 0, "cannot remove from an empty cluster");
        if self.size == 1 {
            return -self.j();
        }
        let cross = dot(&self.mean_sum, v.mu);
        let new_inv = 1.0 / (self.size - 1) as f64;
        let psi = self.psi_tot - v.sum_var;
        // ⟨s − mu, mu⟩ = ⟨s, mu⟩ − Σ mu², so against the pre-removal sums:
        // S₂' = S₂ − 2⟨s, mu⟩ + Σ mu².
        let s_sq = self.s_sq_tot - 2.0 * cross + v.sum_mu_sq;
        let j_new = (psi - s_sq) * new_inv + self.phi_tot - v.sum_mu2;
        j_new - self.j()
    }

    /// `J_UK(C ∪ {o}) − J_UK(C)` via the kernel (Lemma 1 analogue of
    /// [`Self::delta_j_add`]).
    #[inline]
    pub fn delta_j_uk_add(&self, v: &MomentView<'_>) -> f64 {
        debug_assert_eq!(v.dims(), self.dims(), "dimension mismatch");
        let cross = dot(&self.mean_sum, v.mu);
        let s_sq = self.s_sq_tot + 2.0 * cross + v.sum_mu_sq;
        let j_new = self.phi_tot + v.sum_mu2 - s_sq / (self.size + 1) as f64;
        j_new - self.j_uk()
    }

    /// `J_UK(C ∖ {o}) − J_UK(C)` via the kernel. `o` must be a member;
    /// `−J_UK(C)` when removing the last member.
    #[inline]
    pub fn delta_j_uk_remove(&self, v: &MomentView<'_>) -> f64 {
        debug_assert_eq!(v.dims(), self.dims(), "dimension mismatch");
        assert!(self.size > 0, "cannot remove from an empty cluster");
        if self.size == 1 {
            return -self.j_uk();
        }
        let cross = dot(&self.mean_sum, v.mu);
        let s_sq = self.s_sq_tot - 2.0 * cross + v.sum_mu_sq;
        let j_new = self.phi_tot - v.sum_mu2 - s_sq / (self.size - 1) as f64;
        j_new - self.j_uk()
    }

    /// `J_MM(C ∪ {o}) − J_MM(C)` via the kernel (Proposition 2:
    /// `J_MM = J_UK/|C|`).
    #[inline]
    pub fn delta_j_mm_add(&self, v: &MomentView<'_>) -> f64 {
        let new_size = (self.size + 1) as f64;
        (self.j_uk() + self.delta_j_uk_add(v)) / new_size - self.j_mm()
    }

    /// `J_MM(C ∖ {o}) − J_MM(C)` via the kernel. `−J_MM(C)` when removing
    /// the last member.
    #[inline]
    pub fn delta_j_mm_remove(&self, v: &MomentView<'_>) -> f64 {
        if self.size <= 1 {
            return -self.j_mm();
        }
        let new_size = (self.size - 1) as f64;
        (self.j_uk() + self.delta_j_uk_remove(v)) / new_size - self.j_mm()
    }

    /// `J` of the cluster with `o` added, computed by the original three
    /// per-dimension sweeps (Corollary 1, Eq. 15). Kept as the `naive`
    /// reference path for the kernel above; tests and the
    /// `relocation_kernel` bench compare the two.
    pub fn j_after_add(&self, o: &Moments) -> f64 {
        debug_assert_eq!(o.dims(), self.dims(), "dimension mismatch");
        let n = (self.size + 1) as f64;
        let inv = 1.0 / n;
        let mut acc = 0.0;
        for j in 0..self.dims() {
            let psi = self.psi[j] + o.variance()[j];
            let phi = self.phi[j] + o.mu2()[j];
            let s = self.mean_sum[j] + o.mu()[j];
            acc += psi * inv + phi - s * s * inv;
        }
        acc
    }

    /// `J` of the cluster with member `o` removed, computed in O(m) without
    /// mutating the statistics (Corollary 1, Eq. 16). Zero if the cluster
    /// would become empty.
    pub fn j_after_remove(&self, o: &Moments) -> f64 {
        debug_assert_eq!(o.dims(), self.dims(), "dimension mismatch");
        assert!(self.size > 0, "cannot remove from an empty cluster");
        if self.size == 1 {
            return 0.0;
        }
        let n = (self.size - 1) as f64;
        let inv = 1.0 / n;
        let mut acc = 0.0;
        for j in 0..self.dims() {
            let psi = self.psi[j] - o.variance()[j];
            let phi = self.phi[j] - o.mu2()[j];
            let s = self.mean_sum[j] - o.mu()[j];
            acc += psi * inv + phi - s * s * inv;
        }
        acc
    }

    /// `J_UK` of the cluster with `o` added, in O(m) (the UK-means analogue
    /// of Corollary 1; MMVar's local search divides it by the new size).
    pub fn j_uk_after_add(&self, o: &Moments) -> f64 {
        debug_assert_eq!(o.dims(), self.dims(), "dimension mismatch");
        let inv = 1.0 / (self.size + 1) as f64;
        let mut acc = 0.0;
        for j in 0..self.dims() {
            let phi = self.phi[j] + o.mu2()[j];
            let s = self.mean_sum[j] + o.mu()[j];
            acc += phi - s * s * inv;
        }
        acc
    }

    /// `J_UK` of the cluster with member `o` removed, in O(m). Zero if the
    /// cluster would become empty.
    pub fn j_uk_after_remove(&self, o: &Moments) -> f64 {
        debug_assert_eq!(o.dims(), self.dims(), "dimension mismatch");
        assert!(self.size > 0, "cannot remove from an empty cluster");
        if self.size == 1 {
            return 0.0;
        }
        let inv = 1.0 / (self.size - 1) as f64;
        let mut acc = 0.0;
        for j in 0..self.dims() {
            let phi = self.phi[j] - o.mu2()[j];
            let s = self.mean_sum[j] - o.mu()[j];
            acc += phi - s * s * inv;
        }
        acc
    }

    /// `J_MM` of the cluster with `o` added, in O(m) (Proposition 2 form).
    pub fn j_mm_after_add(&self, o: &Moments) -> f64 {
        self.j_uk_after_add(o) / (self.size + 1) as f64
    }

    /// `J_MM` of the cluster with member `o` removed, in O(m). Zero if the
    /// cluster would become empty.
    pub fn j_mm_after_remove(&self, o: &Moments) -> f64 {
        if self.size <= 1 {
            return 0.0;
        }
        self.j_uk_after_remove(o) / (self.size - 1) as f64
    }

    /// The UK-means centroid (Eq. 7) — the average of member expected values;
    /// also `mu` of both the MMVar mixture centroid (Lemma 2) and the
    /// U-centroid (Lemma 5).
    pub fn centroid(&self) -> Vec<f64> {
        assert!(self.size > 0, "centroid of an empty cluster is undefined");
        let inv = 1.0 / self.size as f64;
        self.mean_sum.iter().map(|&s| s * inv).collect()
    }

    /// Moments of the MMVar mixture centroid `C_MM` (Lemma 2):
    /// `mu = (1/|C|) Σ mu(o)`, `mu_2 = (1/|C|) Σ mu_2(o)`.
    pub fn mixture_moments(&self) -> Moments {
        assert!(self.size > 0, "mixture of an empty cluster is undefined");
        let inv = 1.0 / self.size as f64;
        Moments::from_mu_mu2(
            self.mean_sum.iter().map(|&s| s * inv).collect(),
            self.phi.iter().map(|&p| p * inv).collect(),
        )
    }

    /// The U-centroid variance of Theorem 2, `(1/|C|^2) Σ_i sigma^2(o_i)`:
    /// the quantity Section 4.2.1 proves *insufficient* as a compactness
    /// criterion (kept for the ablation benchmarks).
    pub fn ucentroid_variance(&self) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        let total_psi: f64 = self.psi.iter().sum();
        total_psi / (self.size * self.size) as f64
    }
}

/// Per-cluster constants of the Corollary-1 add delta, captured once by
/// [`ClusterStats::add_pricer`] so a batch pricing loop pays the two
/// divisions (`1/(|C|+1)` and the one inside `J(C)`) per cluster rather
/// than per (cluster, arrival). [`AddPricer::price`] is *the*
/// implementation of the delta — [`ClusterStats::delta_j_add_from_parts`]
/// (and through it every add-side entry point) delegates here.
#[derive(Debug, Clone, Copy)]
pub struct AddPricer {
    new_inv: f64,
    psi_tot: f64,
    s_sq_tot: f64,
    phi_tot: f64,
    j_base: f64,
}

impl AddPricer {
    /// Objective change of adding an arrival reduced to its three scalars
    /// plus the `⟨s, mu⟩` cross term — operation-for-operation the
    /// Corollary-1 formula of [`ClusterStats::delta_j_add_from_parts`], so
    /// hoisted and unhoisted evaluation produce identical bits.
    #[inline]
    pub fn price(&self, sum_var: f64, sum_mu_sq: f64, sum_mu2: f64, cross: f64) -> f64 {
        let psi = self.psi_tot + sum_var;
        let s_sq = self.s_sq_tot + 2.0 * cross + sum_mu_sq;
        let j_new = (psi - s_sq) * self.new_inv + self.phi_tot + sum_mu2;
        j_new - self.j_base
    }
}

/// Total objective `Σ_C J(C)` of a candidate clustering described by
/// per-cluster statistics.
pub fn total_objective(stats: &[ClusterStats]) -> f64 {
    stats.iter().map(ClusterStats::j).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucentroid::UCentroid;
    use ucpc_uncertain::distance::expected_sq_distance_to_point;
    use ucpc_uncertain::{UncertainObject, UnivariatePdf};

    fn objects() -> Vec<UncertainObject> {
        vec![
            UncertainObject::new(vec![
                UnivariatePdf::normal(0.0, 1.0),
                UnivariatePdf::uniform_centered(2.0, 1.0),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::normal(3.0, 0.5),
                UnivariatePdf::uniform_centered(-1.0, 2.0),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::normal(-2.0, 2.0),
                UnivariatePdf::uniform_centered(0.5, 0.5),
            ]),
            UncertainObject::new(vec![
                UnivariatePdf::exponential_with_mean(1.0, 2.0),
                UnivariatePdf::normal(4.0, 0.25),
            ]),
        ]
    }

    /// Brute-force J(C) = Σ_o ÊD(o, U-centroid) via Lemma 3 on explicit
    /// U-centroid moments.
    fn j_bruteforce(members: &[&UncertainObject]) -> f64 {
        let c = UCentroid::from_cluster(members);
        members
            .iter()
            .map(|o| {
                ucpc_uncertain::distance::expected_sq_distance_from_moments(
                    o.mu(),
                    o.mu2(),
                    c.mu(),
                    c.mu2(),
                )
            })
            .sum()
    }

    #[test]
    fn theorem_3_closed_form_matches_direct_sum() {
        let objs = objects();
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let stats = ClusterStats::from_members(objs.iter());
        assert!(
            (stats.j() - j_bruteforce(&refs)).abs() < 1e-9,
            "Theorem 3: stats J {} vs brute force {}",
            stats.j(),
            j_bruteforce(&refs)
        );
    }

    #[test]
    fn theorem_3_second_identity() {
        // J(C) = (1/|C|) Σ sigma^2(o_i) + J_UK(C).
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        let var_sum: f64 = objs.iter().map(|o| o.total_variance()).sum();
        let want = var_sum / objs.len() as f64 + stats.j_uk();
        assert!((stats.j() - want).abs() < 1e-9);
    }

    #[test]
    fn lemma_1_matches_direct_ukmeans_objective() {
        // J_UK(C) = Σ_o ED(o, centroid) with the Eq. (8) closed form.
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        let c = stats.centroid();
        let direct: f64 = objs
            .iter()
            .map(|o| expected_sq_distance_to_point(o, &c))
            .sum();
        assert!(
            (stats.j_uk() - direct).abs() < 1e-9,
            "Lemma 1: {} vs {}",
            stats.j_uk(),
            direct
        );
    }

    #[test]
    fn proposition_2_jmm_is_juk_over_size() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        assert!((stats.j_mm() - stats.j_uk() / objs.len() as f64).abs() < 1e-12);
        // And J_MM is literally the mixture centroid's variance (Eq. 11).
        let mix = stats.mixture_moments();
        assert!((stats.j_mm() - mix.total_variance()).abs() < 1e-9);
    }

    #[test]
    fn proposition_3_jhat_is_twice_juk() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        assert!((stats.j_hat() - 2.0 * stats.j_uk()).abs() < 1e-12);
        assert!(
            (stats.j_hat() - 2.0 * objs.len() as f64 * stats.j_mm()).abs() < 1e-9,
            "Proposition 3 chain: Ĵ = 2|C| J_MM"
        );
    }

    #[test]
    fn corollary_1_add_matches_rebuild() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs[..3].iter());
        let predicted = stats.j_after_add(objs[3].moments());
        let rebuilt = ClusterStats::from_members(objs.iter()).j();
        assert!(
            (predicted - rebuilt).abs() < 1e-9,
            "Corollary 1 (add): {predicted} vs {rebuilt}"
        );
    }

    #[test]
    fn corollary_1_remove_matches_rebuild() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        let predicted = stats.j_after_remove(objs[1].moments());
        let rebuilt = ClusterStats::from_members(
            objs.iter()
                .enumerate()
                .filter(|&(i, _)| i != 1)
                .map(|(_, o)| o),
        )
        .j();
        assert!(
            (predicted - rebuilt).abs() < 1e-9,
            "Corollary 1 (remove): {predicted} vs {rebuilt}"
        );
    }

    #[test]
    fn incremental_juk_and_jmm_match_rebuild() {
        let objs = objects();
        let partial = ClusterStats::from_members(objs[..3].iter());
        let full = ClusterStats::from_members(objs.iter());
        assert!((partial.j_uk_after_add(objs[3].moments()) - full.j_uk()).abs() < 1e-9);
        assert!((partial.j_mm_after_add(objs[3].moments()) - full.j_mm()).abs() < 1e-9);
        assert!((full.j_uk_after_remove(objs[3].moments()) - partial.j_uk()).abs() < 1e-9);
        assert!((full.j_mm_after_remove(objs[3].moments()) - partial.j_mm()).abs() < 1e-9);
    }

    #[test]
    fn add_remove_round_trip_restores_stats() {
        let objs = objects();
        let mut stats = ClusterStats::from_members(objs[..2].iter());
        let before = stats.clone();
        stats.add(objs[2].moments());
        stats.remove(objs[2].moments());
        assert_eq!(stats.size(), before.size());
        for j in 0..stats.dims() {
            assert!((stats.psi()[j] - before.psi()[j]).abs() < 1e-9);
            assert!((stats.phi()[j] - before.phi()[j]).abs() < 1e-9);
            assert!((stats.mean_sum()[j] - before.mean_sum()[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn negative_mean_sums_are_handled() {
        // The published Corollary-1 update uses sqrt(Υ), undefined for
        // negative sums; storing the raw sum must make this exact.
        let objs = [
            UncertainObject::new(vec![UnivariatePdf::normal(-5.0, 1.0)]),
            UncertainObject::new(vec![UnivariatePdf::normal(-3.0, 0.5)]),
        ];
        let stats = ClusterStats::from_members(objs.iter());
        assert!(stats.mean_sum()[0] < 0.0);
        let extra = UncertainObject::new(vec![UnivariatePdf::normal(-1.0, 0.2)]);
        let predicted = stats.j_after_add(extra.moments());
        let rebuilt = ClusterStats::from_members(objs.iter().chain(std::iter::once(&extra))).j();
        assert!((predicted - rebuilt).abs() < 1e-9);
    }

    #[test]
    fn singleton_and_empty_edge_cases() {
        let objs = objects();
        let mut stats = ClusterStats::empty(2);
        assert_eq!(stats.j(), 0.0);
        stats.add(objs[0].moments());
        // Singleton: J = sigma^2(o) + J_UK(singleton) = sigma^2 + sigma^2... no:
        // J_UK(singleton) = sigma^2(o) (distance of o to its own mean), and
        // (1/1) Σ sigma^2 = sigma^2, so J = 2 sigma^2(o).
        assert!((stats.j() - 2.0 * objs[0].total_variance()).abs() < 1e-9);
        assert_eq!(stats.j_after_remove(objs[0].moments()), 0.0);
    }

    #[test]
    fn ucentroid_variance_matches_theorem_2() {
        let objs = objects();
        let stats = ClusterStats::from_members(objs.iter());
        let refs: Vec<&UncertainObject> = objs.iter().collect();
        let c = UCentroid::from_cluster(&refs);
        assert!((stats.ucentroid_variance() - c.variance()).abs() < 1e-9);
    }

    #[test]
    fn proposition_1_scenario() {
        // Two clusters engineered per the Proposition-1 proof sketch: same
        // size, same Σ mu2, same Σ mu per dim, different Σ mu^2 -> equal J_UK
        // but different variance sums.
        // Cluster A: means {0, 2}; Cluster B: means {1, 1}. Equal mean sums.
        // Give both total mu2 = 6 per object pair by tuning variances.
        // Object mu2 = mu^2 + var.
        // Cluster A: means {0, 2}, mu2 {1, 5} -> Σ mu = 2, Σ mu2 = 6.
        // Cluster B: means {1, 1}, sds {sqrt(3), 1} -> mu2 {4, 2}: same sums.
        let a = [
            UncertainObject::new(vec![UnivariatePdf::normal(0.0, 1.0)]),
            UncertainObject::new(vec![UnivariatePdf::normal(2.0, 1.0)]),
        ];
        let b = [
            UncertainObject::new(vec![UnivariatePdf::normal(1.0, 3.0_f64.sqrt())]),
            UncertainObject::new(vec![UnivariatePdf::normal(1.0, 1.0)]),
        ];
        let sa = ClusterStats::from_members(a.iter());
        let sb = ClusterStats::from_members(b.iter());
        assert!((sa.phi()[0] - sb.phi()[0]).abs() < 1e-12, "equal Σ mu2");
        assert!(
            (sa.mean_sum()[0] - sb.mean_sum()[0]).abs() < 1e-12,
            "equal Σ mu"
        );
        assert!(
            (sa.j_uk() - sb.j_uk()).abs() < 1e-12,
            "Proposition 1: equal J_UK"
        );
        let var_a: f64 = a.iter().map(|o| o.total_variance()).sum();
        let var_b: f64 = b.iter().map(|o| o.total_variance()).sum();
        assert!(
            (var_a - var_b).abs() > 0.5,
            "…despite different cluster variances ({var_a} vs {var_b})"
        );
        // And the UCPC objective *does* separate them (Theorem 3 uses Ψ).
        assert!(
            (sa.j() - sb.j()).abs() > 0.1,
            "J distinguishes the clusters"
        );
    }
}
