//! # ucpc-uncertain — the uncertain-object substrate
//!
//! Implements the uncertainty model of *Uncertain Centroid based Partitional
//! Clustering of Uncertain Data* (Gullo & Tagarelli, VLDB 2012), Section 2.1:
//! multivariate uncertain objects `o = (R, f)` with box-shaped domain regions
//! and per-dimension pdfs, their exact first/second moments (Eqs. 2–6), the
//! expected-distance calculus the paper builds on (Eq. 8, Eq. 13, Lemma 3),
//! and the Monte Carlo / MCMC sampling machinery used by the sample-based
//! baselines and by the uncertainty-generation pipeline of Section 5.1.
//!
//! ## Architecture: from pdfs to the hot loop
//!
//! The crate is layered so that clustering loops never touch a pdf:
//!
//! 1. [`pdf::UnivariatePdf`] / [`object::UncertainObject`] describe the
//!    uncertainty model and integrate it into exact per-dimension moments;
//! 2. [`moments::Moments`] caches those moments per object (Line 1 of
//!    Algorithm 1) together with the scalar aggregates the delta-`J` kernel
//!    consumes;
//! 3. [`arena::MomentArena`] lays the moments of a whole dataset out as
//!    flat row-major matrices plus per-object scalar columns, deriving the
//!    dot-product form of the Corollary-1 update (see the [`arena`] module
//!    docs), so every candidate relocation in `ucpc-core` costs one fused
//!    O(m) dot product; [`slab::SlabArena`] adds free-list row reuse on top
//!    for streaming insert/remove workloads, keeping the same contiguity
//!    with zero steady-state allocation;
//! 4. [`simd`] dispatches that dot product at run time to an explicit
//!    AVX2+FMA or NEON kernel (env knob `UCPC_SIMD`), with every backend
//!    bit-identical to the scalar fallback by construction.
//!
//! ## Quick tour
//!
//! ```
//! use ucpc_uncertain::{UncertainObject, UnivariatePdf};
//! use ucpc_uncertain::distance::expected_sq_distance;
//!
//! // A 2-d sensor reading at (1.0, -2.0) with Normal measurement noise,
//! // restricted to the region holding 95% of its probability mass.
//! let o1 = UncertainObject::with_coverage(
//!     vec![UnivariatePdf::normal(1.0, 0.2), UnivariatePdf::normal(-2.0, 0.4)],
//!     0.95,
//! );
//! let o2 = UncertainObject::deterministic(&[0.5, -1.5]);
//!
//! // Closed-form expected squared distance (Lemma 3) — no integration.
//! let d = expected_sq_distance(&o1, &o2);
//! assert!(d > 0.0);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod correlated;
pub mod distance;
pub mod env;
pub mod math;
pub mod moments;
pub mod object;
pub mod pdf;
pub mod region;
pub mod sampling;
pub mod simd;
pub mod slab;
pub mod stats;

pub use arena::{MomentArena, MomentView};
pub use moments::Moments;
pub use object::UncertainObject;
pub use pdf::{Coverage, PdfFamily, UnivariatePdf};
pub use region::{BoxRegion, Interval};
pub use slab::{ObjectHandle, SlabArena, StaleHandle};
