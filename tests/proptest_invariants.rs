//! Property-based tests over the core invariants:
//!
//! * kernel monotonicity and positivity for arbitrary bandwidths,
//! * k-d tree partition correctness for arbitrary point clouds,
//! * density bounds sandwiching the exact density for arbitrary queries,
//!   and at d = 8 for queries at the cloud's own points,
//! * classification agreeing with the exact oracle outside the ε-band,
//!   likewise in both regimes,
//! * batch statistics decomposing exactly: any split of a batch, run
//!   under any `ExecPolicy`, merges to the whole batch's `QueryStats`,
//! * quantile estimates matching full sorts.

use tkdc_sync::OnceLock;

use proptest::prelude::*;
use tkdc::bound::DensityBounder;
use tkdc::{Classifier, ExecPolicy, Optimizations, Params, QueryScratch};
use tkdc_common::order;
use tkdc_common::Matrix;
use tkdc_index::{KdTree, SplitRule};
use tkdc_kernel::{Kernel, KernelKind};

/// Strategy: a small point cloud in up to 3 dimensions.
fn cloud(max_n: usize) -> impl Strategy<Value = (usize, Vec<f64>)> {
    (1usize..=3).prop_flat_map(move |d| {
        proptest::collection::vec(-50.0f64..50.0, d * 5..=d * max_n).prop_map(move |mut v| {
            let n = v.len() / d;
            v.truncate(n * d);
            (d, v)
        })
    })
}

fn naive_density(data: &Matrix, kernel: &Kernel, x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for row in data.iter_rows() {
        acc += kernel.eval_pair(x, row);
    }
    acc / data.rows() as f64
}

/// Strategy: 20 to `max_n` points in `[-3, 3]^8`.
fn cloud_d8(max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-3.0f64..3.0, 8 * 20..=8 * max_n).prop_map(|mut v| {
        v.truncate(v.len() / 8 * 8);
        v
    })
}

/// Bounds at threshold `t` sandwich the exact density of `q` under a
/// Gaussian kernel of bandwidth `h` in every dimension.
fn check_bounds_sandwich(data: &Matrix, h: f64, q: &[f64], t: f64) {
    let tree = KdTree::build(data, 4, SplitRule::TrimmedMidpoint).unwrap();
    let kernel = Kernel::new(KernelKind::Gaussian, vec![h; data.cols()]).unwrap();
    let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
    let mut scratch = QueryScratch::new();
    let b = bounder.bound_density(q, t, t, &mut scratch);
    let exact = naive_density(data, &kernel, q);
    // Allow small floating drift relative to the kernel scale.
    let slack = 1e-9 * kernel.max_value();
    prop_assert!(
        b.lower <= exact + slack,
        "lower {} > exact {}",
        b.lower,
        exact
    );
    prop_assert!(
        b.upper >= exact - slack,
        "upper {} < exact {}",
        b.upper,
        exact
    );
}

/// Classifying `q` against thresholds around its exact density agrees
/// with the exact oracle outside the ε-band.
fn check_agrees_with_oracle(data: &Matrix, h: f64, q: &[f64]) {
    let tree = KdTree::build(data, 4, SplitRule::TrimmedMidpoint).unwrap();
    let kernel = Kernel::new(KernelKind::Gaussian, vec![h; data.cols()]).unwrap();
    let eps = 0.01;
    let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), eps);
    let mut scratch = QueryScratch::new();
    let exact = naive_density(data, &kernel, q);
    // The running add/subtract bound accumulation drifts on the order
    // of f64 epsilon relative to K(0) (the paper's bounds are likewise
    // "exact up to floating point precision"), so the guarantee only
    // holds for thresholds above that noise floor.
    let drift_floor = 1e-9 * kernel.max_value();
    // Pick a threshold near the exact density to stress the rules,
    // plus thresholds decisively above and below.
    for t in [exact * 0.5, exact * 2.0, exact.max(1e-300)] {
        if t < drift_floor {
            continue;
        }
        let b = bounder.bound_density(q, t, t, &mut scratch);
        let high = b.midpoint() > t;
        if exact > t * (1.0 + eps) {
            prop_assert!(high, "exact {} > t(1+ε) {} but LOW", exact, t);
        }
        if exact < t * (1.0 - eps) {
            prop_assert!(!high, "exact {} < t(1−ε) {} but HIGH", exact, t);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_positive_and_monotone(
        h in proptest::collection::vec(0.01f64..10.0, 1..4),
        u1 in 0.0f64..100.0,
        u2 in 0.0f64..100.0,
    ) {
        for kind in [KernelKind::Gaussian, KernelKind::Epanechnikov] {
            let k = Kernel::new(kind, h.clone()).unwrap();
            let (lo, hi) = if u1 < u2 { (u1, u2) } else { (u2, u1) };
            prop_assert!(k.eval_scaled_sq(lo) >= k.eval_scaled_sq(hi));
            prop_assert!(k.eval_scaled_sq(hi) >= 0.0);
            // Bit-identical: max_value is defined as the kernel at zero.
            prop_assert!(k.eval_scaled_sq(0.0).to_bits() == k.max_value().to_bits());
        }
    }

    #[test]
    fn kdtree_partitions_all_points((d, flat) in cloud(40)) {
        let n = flat.len() / d;
        let data = Matrix::from_vec(flat, n, d).unwrap();
        for rule in [SplitRule::TrimmedMidpoint, SplitRule::Median] {
            let tree = KdTree::build(&data, 4, rule).unwrap();
            prop_assert_eq!(tree.len(), n);
            // Sum of per-coordinate values is preserved (multiset check).
            let orig: f64 = data.as_slice().iter().sum();
            let reordered: f64 = tree
                .node_points(tree.root())
                .flat_map(|r| r.iter().copied())
                .sum();
            prop_assert!((orig - reordered).abs() < 1e-6 * orig.abs().max(1.0));
            // Every node's points stay inside its bounding box, counts sum.
            let mut stack = vec![tree.root()];
            while let Some(id) = stack.pop() {
                let lo = tree.box_lo(id);
                let hi = tree.box_hi(id);
                for p in tree.node_points(id) {
                    for c in 0..d {
                        prop_assert!(p[c] >= lo[c] && p[c] <= hi[c]);
                    }
                }
                if let Some((l, r)) = tree.children(id) {
                    prop_assert_eq!(tree.count(l) + tree.count(r), tree.count(id));
                    stack.push(l);
                    stack.push(r);
                }
            }
        }
    }

    #[test]
    fn bounds_sandwich_exact_density(
        (d, flat) in cloud(30),
        qseed in proptest::collection::vec(-60.0f64..60.0, 3),
        t_exp in -6.0f64..0.0,
    ) {
        let n = flat.len() / d;
        let data = Matrix::from_vec(flat, n, d).unwrap();
        check_bounds_sandwich(&data, 1.5, &qseed[..d], 10f64.powf(t_exp));
    }

    /// The same sandwich at d = 8 for queries at the cloud's own points,
    /// where the traversal's descent to the query's leaf settles most
    /// answers.
    #[test]
    fn bounds_sandwich_exact_density_d8(
        flat in cloud_d8(60),
        pick in 0usize..1000,
        t_exp in -6.0f64..0.0,
    ) {
        let n = flat.len() / 8;
        let data = Matrix::from_vec(flat, n, 8).unwrap();
        check_bounds_sandwich(&data, 1.5, data.row(pick % n), 10f64.powf(t_exp));
    }

    #[test]
    fn classification_agrees_with_oracle_outside_band(
        (d, flat) in cloud(30),
        qseed in proptest::collection::vec(-60.0f64..60.0, 3),
    ) {
        let n = flat.len() / d;
        let data = Matrix::from_vec(flat, n, d).unwrap();
        check_agrees_with_oracle(&data, 2.0, &qseed[..d]);
    }

    /// The same oracle agreement at d = 8 for queries at the cloud's own
    /// points.
    #[test]
    fn classification_agrees_with_oracle_outside_band_d8(
        flat in cloud_d8(60),
        pick in 0usize..1000,
    ) {
        let n = flat.len() / 8;
        let data = Matrix::from_vec(flat, n, 8).unwrap();
        check_agrees_with_oracle(&data, 2.0, data.row(pick % n));
    }

    /// A weighted density with integer weights is the same measure as the
    /// unweighted density over the dataset with each point duplicated
    /// `w_i` times — the exhausted (exact) traversal over the weighted
    /// tree must match the naive duplicated-point sum bit-tolerantly.
    #[test]
    fn weighted_density_equals_duplicated_points(
        (d, flat) in cloud(20),
        wseed in proptest::collection::vec(1u32..=4, 60),
        qseed in proptest::collection::vec(-60.0f64..60.0, 3),
    ) {
        let n = flat.len() / d;
        let data = Matrix::from_vec(flat, n, d).unwrap();
        let weights: Vec<f64> = (0..n).map(|i| f64::from(wseed[i % wseed.len()])).collect();
        let mut duplicated = Matrix::with_cols(d);
        for i in 0..n {
            for _ in 0..wseed[i % wseed.len()] {
                duplicated.push_row(data.row(i)).unwrap();
            }
        }
        let tree = KdTree::build_weighted(&data, &weights, 4, SplitRule::TrimmedMidpoint).unwrap();
        let kernel = Kernel::new(KernelKind::Gaussian, vec![1.5; d]).unwrap();
        let bounder = DensityBounder::new(&tree, &kernel, Optimizations::all(), 0.01);
        let mut scratch = QueryScratch::new();
        let q = &qseed[..d];
        // t_lo = 0 and t_hi = ∞ disable every pruning rule, so the
        // traversal runs to exhaustion and the bounds collapse to the
        // exact weighted density.
        let b = bounder.bound_density(q, 0.0, f64::INFINITY, &mut scratch);
        let exact = naive_density(&duplicated, &kernel, q);
        let slack = 1e-9 * kernel.max_value();
        prop_assert!(
            (b.midpoint() - exact).abs() <= slack,
            "weighted {} vs duplicated {}", b.midpoint(), exact
        );
        prop_assert!(b.upper - b.lower <= slack, "traversal did not exhaust");
    }

    /// Coreset construction preserves total mass: compacting `n`
    /// unit-weight points yields weights summing to `n` (up to rounding),
    /// under both compactors.
    #[test]
    fn coreset_weights_sum_to_input_count(
        (d, flat) in cloud(40),
        eps in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        use tkdc_coreset::{CompactorKind, CoresetConfig, StreamingCoreset};
        let n = flat.len() / d;
        let data = Matrix::from_vec(flat, n, d).unwrap();
        for kind in [CompactorKind::Grid, CompactorKind::Sample] {
            let cfg = CoresetConfig { eps, kind, seed, chunk_capacity: None };
            let mut sc = StreamingCoreset::new(d, cfg).unwrap();
            sc.push_matrix(&data).unwrap();
            let cs = sc.finish().unwrap();
            let total: f64 = cs.weights.iter().sum();
            prop_assert!(
                (total - n as f64).abs() <= 1e-9 * n as f64,
                "{:?}: weights sum {} vs {} points in", kind, total, n
            );
            prop_assert!(cs.weights.iter().all(|&w| w > 0.0 && w.is_finite()));
            prop_assert_eq!(cs.stats.points_in, n as u64);
        }
    }

    #[test]
    fn quantile_matches_full_sort(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        p in 0.0f64..=1.0,
    ) {
        let q = order::quantile(&xs, p).unwrap();
        xs.sort_by(f64::total_cmp);
        let rank = ((xs.len() as f64 * p).ceil() as usize).clamp(1, xs.len());
        // Bit-identical: quickselect returns an element of the input.
        prop_assert_eq!(q.to_bits(), xs[rank - 1].to_bits());
    }

    #[test]
    fn radius_query_equals_linear_scan(
        (d, flat) in cloud(30),
        qseed in proptest::collection::vec(-60.0f64..60.0, 3),
        radius in 0.1f64..30.0,
    ) {
        let n = flat.len() / d;
        let data = Matrix::from_vec(flat, n, d).unwrap();
        let tree = KdTree::build(&data, 4, SplitRule::Median).unwrap();
        let inv_h = vec![1.0; d];
        let q = &qseed[..d];
        let mut count = 0usize;
        tree.for_each_in_scaled_radius(q, &inv_h, radius, |_| count += 1);
        let expected = data
            .iter_rows()
            .filter(|row| {
                let mut acc = 0.0;
                for c in 0..d {
                    let z = q[c] - row[c];
                    acc += z * z;
                }
                acc <= radius * radius
            })
            .count();
        prop_assert_eq!(count, expected);
    }
}

/// One fitted classifier + query pool shared by the stats-merge
/// property (fitting per proptest case would dominate the runtime).
fn stats_fixture() -> &'static (Classifier, Matrix) {
    static FIXTURE: OnceLock<(Classifier, Matrix)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = tkdc_common::Rng::seed_from(77);
        let mut data = Matrix::with_cols(2);
        for _ in 0..1500 {
            data.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)])
                .unwrap();
        }
        let clf = Classifier::fit(&data, &Params::default().with_seed(77)).unwrap();
        let mut queries = Matrix::with_cols(2);
        for _ in 0..90 {
            queries
                .push_row(&[rng.normal(0.0, 2.0), rng.normal(0.0, 2.0)])
                .unwrap();
        }
        (clf, queries)
    })
}

/// One fitted classifier per backend plus a shared query pool for the
/// backend-equivalence and bound-coverage properties (fitting per
/// proptest case would dominate the runtime). δ is widened to 0.1 so
/// the probabilistic backends' advertised miss rate is large enough to
/// measure over a 150-query pool.
fn backend_fixture() -> &'static (Vec<Classifier>, Matrix, Matrix) {
    static FIXTURE: OnceLock<(Vec<Classifier>, Matrix, Matrix)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        use tkdc::{BackendSpec, HbeParams, RffParams};
        let mut rng = tkdc_common::Rng::seed_from(99);
        let mut data = Matrix::with_cols(2);
        for _ in 0..1200 {
            data.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)])
                .unwrap();
        }
        let base = Params::default().with_seed(99).with_delta(0.1);
        let clfs = [
            BackendSpec::Tree,
            BackendSpec::Hbe(HbeParams::default()),
            BackendSpec::Rff(RffParams::default()),
        ]
        .into_iter()
        .map(|spec| Classifier::fit(&data, &base.clone().with_backend(spec)).unwrap())
        .collect();
        let mut queries = Matrix::with_cols(2);
        for _ in 0..150 {
            queries
                .push_row(&[rng.normal(0.0, 1.5), rng.normal(0.0, 1.5)])
                .unwrap();
        }
        (clfs, data, queries)
    })
}

/// The probabilistic backends' interval must cover the exact density at
/// (roughly) the advertised `1 − δ` rate. Everything is seeded, so the
/// observed miss rate is deterministic; the cap leaves slack for the
/// small-sample normal approximation behind the interval width.
#[test]
fn estimated_backend_bounds_cover_exact_density() {
    let (clfs, data, queries) = backend_fixture();
    for clf in &clfs[1..] {
        let (bounds, _) = clf
            .bound_density_batch_with(queries, ExecPolicy::Serial)
            .unwrap();
        let mut misses = 0usize;
        for (i, b) in bounds.iter().enumerate() {
            assert!(
                b.lower <= b.upper,
                "{}: inverted interval",
                clf.backend_name()
            );
            let exact = naive_density(data, clf.kernel(), queries.row(i));
            let slack = 1e-12 * clf.kernel().max_value();
            if exact < b.lower - slack || exact > b.upper + slack {
                misses += 1;
            }
        }
        let miss_rate = misses as f64 / bounds.len() as f64;
        assert!(
            miss_rate <= 0.30,
            "{}: exact density escaped the 1 − δ interval on {:.1}% of queries (δ = 0.1)",
            clf.backend_name(),
            100.0 * miss_rate
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tree backend reached through the `DensityBackend` trait must
    /// stay schedule-invariant: labels and merged stats are identical
    /// for every thread count, bit for bit.
    #[test]
    fn tree_backend_via_trait_thread_invariant(threads in 1usize..=8) {
        let (clfs, _, queries) = backend_fixture();
        let tree = &clfs[0];
        prop_assert_eq!(tree.backend_name(), "tree");
        let (serial_labels, serial_stats) = tree
            .classify_batch_with(queries, ExecPolicy::Serial)
            .unwrap();
        let (labels, stats) = tree
            .classify_batch_with(queries, ExecPolicy::Parallel { threads: Some(threads) })
            .unwrap();
        prop_assert_eq!(&labels, &serial_labels, "labels diverged at {} threads", threads);
        prop_assert_eq!(stats, serial_stats, "stats diverged at {} threads", threads);
    }

    /// Same property for the probabilistic backends: the per-query seed
    /// derivation makes their estimates schedule-invariant too.
    #[test]
    fn estimated_backends_thread_invariant(threads in 2usize..=8) {
        let (clfs, _, queries) = backend_fixture();
        for clf in &clfs[1..] {
            let (serial_labels, serial_stats) = clf
                .classify_batch_with(queries, ExecPolicy::Serial)
                .unwrap();
            let (labels, stats) = clf
                .classify_batch_with(queries, ExecPolicy::Parallel { threads: Some(threads) })
                .unwrap();
            prop_assert_eq!(&labels, &serial_labels, "{}: labels diverged", clf.backend_name());
            prop_assert_eq!(stats, serial_stats, "{}: stats diverged", clf.backend_name());
        }
    }

    /// `QueryStats` must be an exact decomposition: splitting a batch at
    /// any point and merging the two halves' stats reproduces the whole
    /// batch's stats, under every execution policy — including across
    /// policies, since per-query work is schedule-independent.
    #[test]
    fn split_batch_stats_merge_to_whole(
        split_frac in 0.0f64..1.0,
        threads in 1usize..5,
    ) {
        let (clf, queries) = stats_fixture();
        let n = queries.rows();
        let split = ((split_frac * n as f64) as usize).min(n); // CAST: in [0, n]
        let mut first = Matrix::with_cols(queries.cols());
        let mut rest = Matrix::with_cols(queries.cols());
        for i in 0..n {
            let target = if i < split { &mut first } else { &mut rest };
            target.push_row(queries.row(i)).unwrap();
        }
        let (_, whole) = clf
            .classify_batch_with(queries, ExecPolicy::Serial)
            .unwrap();
        for policy in [
            ExecPolicy::Serial,
            ExecPolicy::Parallel { threads: Some(threads) },
            ExecPolicy::StaticChunked { threads: Some(threads) },
        ] {
            let (_, a) = clf.classify_batch_with(&first, policy).unwrap();
            let (_, b) = clf.classify_batch_with(&rest, policy).unwrap();
            let mut merged = a;
            merged.merge(&b);
            prop_assert_eq!(merged, whole, "policy {:?}, split {}", policy, split);
        }
    }
}
