//! Pluggable density-estimation backends.
//!
//! The classifier core is generic over *how* density bounds are
//! produced: the paper's certified dual-tree traversal is one strategy
//! ([`TreeBackend`]), but in high dimensions its pruning collapses and
//! randomized estimators win. This module defines the
//! [`DensityBackend`] contract every estimator implements plus the
//! three shipped backends:
//!
//! * [`TreeBackend`] — Algorithm 2's traversal (a descent to the
//!   query's leaf, then best-first refinement) with certified bounds
//!   (the default; bit-identical to the pre-trait classifier).
//! * [`HbeBackend`] — Charikar–Siminelakis hashing-based estimator:
//!   E2LSH importance sampling with probabilistic `(ε, δ)` bounds.
//! * [`RffBackend`] — fixed-budget random-Fourier-feature estimator for
//!   the Gaussian kernel.
//!
//! Bound provenance is explicit: [`BoundKind::Certified`] intervals
//! hold deterministically, [`BoundKind::Probabilistic`] intervals hold
//! with probability `1 − δ` per query. The provenance rides through
//! the classifier into serve stats and trace output so clients can
//! never mistake a sampled estimate for a certified answer.

pub mod hbe;
pub mod rff;
pub mod tree;

pub use hbe::HbeBackend;
pub use rff::RffBackend;
pub use tree::TreeBackend;

use crate::bound::DensityBounds;
use crate::qstats::QueryScratch;
use tkdc_kernel::Kernel;

/// Provenance of the density intervals a backend returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundKind {
    /// Intervals hold deterministically (up to f64 rounding): the
    /// paper's contract.
    Certified,
    /// Intervals hold with probability at least `1 − delta` per query
    /// over the backend's internal randomness.
    Probabilistic {
        /// Per-query failure probability.
        delta: f64,
    },
}

impl BoundKind {
    /// Stable lowercase name (serve stats, bench JSON, trace output).
    pub fn as_str(&self) -> &'static str {
        match self {
            BoundKind::Certified => "certified",
            BoundKind::Probabilistic { .. } => "probabilistic",
        }
    }

    /// Whether intervals from this backend are deterministic guarantees.
    pub fn is_certified(&self) -> bool {
        matches!(self, BoundKind::Certified)
    }
}

/// The estimator contract the classifier routes every density query
/// through.
///
/// Implementations are immutable after fitting and `Sync`; per-query
/// mutable state lives in the caller's [`QueryScratch`]. Queries are
/// pre-validated by the classifier (dimension and NaN checks), so the
/// methods here are infallible. Every implementation must be
/// *schedule-invariant*: the result for a query depends only on the
/// query and the fitted state, never on thread count or batch order.
pub trait DensityBackend: Send + Sync {
    /// Stable lowercase backend name (`"tree"`, `"hbe"`, `"rff"`).
    fn name(&self) -> &'static str;

    /// Provenance of the intervals this backend produces.
    fn bound_kind(&self) -> BoundKind;

    /// The kernel (with fitted bandwidths) the density is defined by.
    fn kernel(&self) -> &Kernel;

    /// Dimensionality of the training data.
    fn dim(&self) -> usize {
        self.kernel().dim()
    }

    /// Number of training points behind the density.
    fn n_train(&self) -> usize;

    /// Density interval for `x` against threshold bounds `[t_lo, t_hi]`.
    ///
    /// The tree traversal prunes against the thresholds (Algorithm 2);
    /// fixed-budget estimators ignore them and return their full-budget
    /// interval. Certified backends guarantee `lower ≤ f(x) ≤ upper`;
    /// probabilistic backends guarantee it with probability `1 − δ`.
    /// The lower bound may be negative for probabilistic backends (a
    /// trivially true statement about a non-negative density).
    fn bound_density(
        &self,
        x: &[f64],
        t_lo: f64,
        t_hi: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds;

    /// Density interval refined to relative precision `rtol`
    /// (`upper − lower ≤ rtol·lower`) where the backend supports
    /// refinement; fixed-budget estimators return the same interval as
    /// [`Self::bound_density`].
    fn bound_density_relative(
        &self,
        x: &[f64],
        rtol: f64,
        scratch: &mut QueryScratch,
    ) -> DensityBounds;

    /// Exhaustive (exact) density of `x` over the retained training
    /// points, when the backend retains them. `None` for backends that
    /// persist only sketches (RFF).
    fn exact_density(&self, x: &[f64], scratch: &mut QueryScratch) -> Option<f64>;
}

/// Enum dispatch over the shipped backends. The classifier's model
/// holds one of these; the enum (rather than a boxed trait object)
/// keeps the model `Debug` + deep-cloneable and lets the tree path keep
/// its grid fast path without downcasting.
#[derive(Debug)]
pub(crate) enum BackendImpl {
    /// Certified dual-tree traversal.
    Tree(TreeBackend),
    /// Hashing-based estimator.
    Hbe(HbeBackend),
    /// Random-Fourier-feature estimator.
    Rff(RffBackend),
}

impl BackendImpl {
    /// The active backend as the trait object the generic paths use.
    pub(crate) fn as_dyn(&self) -> &dyn DensityBackend {
        match self {
            BackendImpl::Tree(b) => b,
            BackendImpl::Hbe(b) => b,
            BackendImpl::Rff(b) => b,
        }
    }

    /// The tree backend, when active (grid fast path, model
    /// persistence, LLR diagnostics).
    pub(crate) fn as_tree(&self) -> Option<&TreeBackend> {
        match self {
            BackendImpl::Tree(b) => Some(b),
            _ => None,
        }
    }
}

/// Derives a per-query seed from the model seed and the query
/// coordinates. Mixing the raw coordinate bits makes the randomized
/// backends *deterministic per query* — the same query gets the same
/// estimate regardless of batch order, thread count, or scheduling —
/// while distinct queries get decorrelated sample streams.
pub(crate) fn query_seed(model_seed: u64, x: &[f64]) -> u64 {
    let mut h = model_seed ^ 0x9E37_79B9_7F4A_7C15;
    for &v in x {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= h >> 29;
    }
    h
}

/// Half-width multiplier for a `1 − δ` two-sided confidence interval on
/// a mean estimated from `m` i.i.d. replicates: the normal quantile
/// `z_{1−δ/2}` with a first-order Cornish–Fisher small-sample
/// inflation toward the Student-t quantile (the replicate variance is
/// itself estimated).
pub(crate) fn ci_multiplier(delta: f64, m: usize) -> f64 {
    debug_assert!(m >= 2);
    let z = tkdc_common::special::normal_quantile(1.0 - delta / 2.0);
    z * (1.0 + (z * z + 1.0) / (4.0 * (m as f64 - 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_kind_names() {
        assert_eq!(BoundKind::Certified.as_str(), "certified");
        assert!(BoundKind::Certified.is_certified());
        let p = BoundKind::Probabilistic { delta: 0.01 };
        assert_eq!(p.as_str(), "probabilistic");
        assert!(!p.is_certified());
    }

    #[test]
    fn query_seed_is_coordinate_determined() {
        let a = query_seed(7, &[1.0, 2.0]);
        assert_eq!(a, query_seed(7, &[1.0, 2.0]));
        assert_ne!(a, query_seed(8, &[1.0, 2.0]));
        assert_ne!(a, query_seed(7, &[2.0, 1.0]));
        assert_ne!(a, query_seed(7, &[1.0, 2.0, 0.0]));
    }

    #[test]
    fn ci_multiplier_tracks_student_t() {
        // df = 31 at δ = 0.01: t ≈ 2.744 vs z ≈ 2.576.
        let m = ci_multiplier(0.01, 32);
        assert!(m > 2.70 && m < 2.80, "got {m}");
        // Small replicate counts inflate harder.
        assert!(ci_multiplier(0.01, 8) > m);
        // Large m converges to the plain normal quantile.
        let big = ci_multiplier(0.01, 100_000);
        assert!((big - 2.5758).abs() < 1e-2, "got {big}");
    }
}
