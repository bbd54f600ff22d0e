//! Workload definitions and the metric vocabulary.
//!
//! Every workload runs the same pipeline (fit → save → classify → oracle
//! → load/serve); they differ in the inputs, which decide which layer
//! carries the cost. The metric name lists here must match
//! `BENCHMARK.json` exactly: the run refuses to print a result whose
//! metric set differs from them.

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (the layer it stresses).
    pub why: &'static str,
    pub dim: usize,
    /// Training rows (for the coreset workload: rows streamed through
    /// the coreset builder).
    pub n_train: usize,
    /// Held-out queries, drawn from a second seed.
    pub n_queries: usize,
    /// Quantile probability `p` of the classifier.
    pub p: f64,
    /// `Some(ε)` fits a weighted model on a streamed coreset.
    pub coreset_eps: Option<f64>,
    /// Accepted band of the LOW fraction among held-out queries.
    pub low_band: (f64, f64),
    /// Accepted band of grid prunes per query.
    pub grid_band: (f64, f64),
    /// Queries checked against the exact density.
    pub oracle_samples: usize,
    /// Open-loop rate ladder in requests per second, absolute: roughly
    /// 20/35/50% of the closed-loop capacity at two connections, measured
    /// on the otherwise quiet 2-core x86-64 host this benchmark was
    /// defined on. The host's capacity drops by a third when its
    /// neighbours are busy; a 75% rung then failed on a third of runs.
    pub ladder: [f64; 3],
    /// Latency limit on a rung's p99 (µs) for `serve_max_rps`. Generous:
    /// the host's neighbours stall it for tens of milliseconds at a
    /// time, while a rung above the server's capacity builds a backlog
    /// that crosses any limit within the rung.
    pub p99_limit_us: f64,
}

/// An untraced run measures in rounds, at least `MIN_ROUNDS` and more
/// until `--seconds` have passed. Each round times one fit, classify
/// passes for `CLASSIFY_SLICE_S`, serving at the lowest ladder rate for
/// `SERVE_SLICE_S`, and `SETUPS_PER_ROUND` set-ups. The host's speed
/// drifts by a third over tens of seconds; interleaved rounds let every
/// timing sample the whole run instead of one phase of it.
pub const MIN_ROUNDS: u64 = 4;
pub const CLASSIFY_SLICE_S: f64 = 0.5;
pub const SERVE_SLICE_S: f64 = 1.0;
pub const SETUPS_PER_ROUND: usize = 3;
/// Seconds per rung of the rate ladder, which runs after the rounds.
pub const RUNG_S: f64 = 1.5;

/// Points per serve request.
pub const REQUEST_POINTS: usize = 16;
/// One request in this many is a `Density` request; the rest classify.
pub const DENSITY_EVERY: u64 = 10;

/// The workloads `--workload` accepts. `BENCHMARK.json` gates all but
/// `coreset_d2`, which runs with the same checks but whose timings spread
/// past their bound from run to run on the shared 2-core host.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch_d8",
        why: "no grid at d=8: traversal node bounding dominates fit and classify",
        dim: 8,
        n_train: 50_000,
        n_queries: 50_000,
        p: 0.01,
        coreset_eps: None,
        low_band: (0.01, 0.06),
        grid_band: (0.0, 0.5),
        oracle_samples: 192,
        ladder: [260.0, 455.0, 650.0],
        p99_limit_us: 200_000.0,
    },
    Workload {
        name: "serve_d2",
        why: "cheap 16-point requests on a 200k-row model: protocol, handler threads and sockets dominate",
        dim: 2,
        n_train: 200_000,
        n_queries: 200_000,
        p: 0.01,
        coreset_eps: None,
        low_band: (0.005, 0.02),
        grid_band: (0.6, 0.97),
        oracle_samples: 96,
        ladder: [3900.0, 6800.0, 9800.0],
        p99_limit_us: 100_000.0,
    },
    Workload {
        name: "coreset_d2",
        why: "streamed coreset and weighted fit: same classify layer with a weighted tree, no grid, eps-folded UNKNOWN band",
        dim: 2,
        n_train: 1_000_000,
        n_queries: 500_000,
        p: 0.05,
        coreset_eps: Some(1e-4),
        low_band: (0.02, 0.08),
        grid_band: (0.0, 0.97),
        oracle_samples: 64,
        ladder: [2500.0, 4300.0, 6200.0],
        p99_limit_us: 100_000.0,
    },
];

/// End-to-end metrics (printed with `--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("classify_qps", "queries/s"),
    ("serve_p50_us", "us"),
    ("serve_max_rps", "req/s"),
    ("model_bytes", "bytes"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (printed with `--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("threshold.bootstrap_s", "s"),
    ("threshold.bootstrap_bound_evals", "count"),
    ("threshold.backoffs", "count"),
    ("threshold.reestimates", "count"),
    ("fit.threshold_s", "s"),
    ("fit.bound_evals_per_train_query", "count"),
    ("index.tree_build_s", "s"),
    ("index.grid_prune_frac", "ratio"),
    ("bound.traversal_s", "s"),
    ("bound.bound_evals_per_query", "count"),
    ("bound.nodes_expanded_per_query", "count"),
    ("bound.prune_mix.threshold_high", "ratio"),
    ("bound.prune_mix.threshold_low", "ratio"),
    ("bound.prune_mix.tolerance", "ratio"),
    ("bound.prune_mix.exhausted", "ratio"),
    ("kernel.evals_per_query", "count"),
    ("kernel.leaf_sum_s", "s"),
    ("kernel.leaf_sum_busy_share", "ratio"),
    ("kernel.ns_per_row", "ns"),
    ("engine.busy_s", "s"),
    ("engine.idle_s", "s"),
    ("engine.utilization", "ratio"),
    ("engine.chunks_stolen", "count"),
    ("engine.parks", "count"),
    ("engine.dispatch_s", "s"),
    ("engine.reassembly_s", "s"),
    ("model_io.load_s", "s"),
    ("model_io.save_s", "s"),
    ("serve.client_p99_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.wire_gap_us", "us"),
    ("serve.encode_ns_per_point", "ns"),
    ("serve.decode_ns_per_point", "ns"),
    ("serve.exec_share", "ratio"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("serve.gen_lateness_us", "us"),
    ("coreset.compact_s", "s"),
    ("coreset.compression_ratio", "ratio"),
    ("coreset.max_resident_points", "count"),
    ("labels.unknown_frac", "ratio"),
    ("labels.low_frac", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
