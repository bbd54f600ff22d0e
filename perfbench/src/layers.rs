//! Per-layer measurements for the traced run: pool telemetry deltas,
//! direct calls into the kernel and protocol layers, and the figures
//! derived from fit reports, query statistics and spans.

use std::time::Instant;

use tkdc::classifier::FitReport;
use tkdc::engine::{PoolTelemetry, WorkerTelemetry};
use tkdc::{Classifier, Label, QueryStats, Spans};
use tkdc_common::Matrix;
use tkdc_serve::protocol::{read_response, write_request, write_response, Request, Response};

use crate::measure::{err, frac, Res};
use crate::trace;
use crate::workload::Report;

pub fn telemetry_delta(before: &PoolTelemetry, after: &PoolTelemetry) -> (WorkerTelemetry, f64) {
    let sub = |a: &WorkerTelemetry, b: &WorkerTelemetry| WorkerTelemetry {
        tasks_run: a.tasks_run - b.tasks_run,
        chunks_stolen: a.chunks_stolen - b.chunks_stolen,
        parks: a.parks - b.parks,
        unparks: a.unparks - b.unparks,
        busy_ns: a.busy_ns - b.busy_ns,
        idle_ns: a.idle_ns - b.idle_ns,
    };
    let zero = WorkerTelemetry::default();
    let workers = PoolTelemetry {
        workers: after
            .workers
            .iter()
            .enumerate()
            .map(|(i, a)| sub(a, before.workers.get(i).unwrap_or(&zero)))
            .collect(),
        submitters: sub(&after.submitters, &before.submitters),
    };
    (workers.total(), workers.utilization())
}

/// `Kernel::sum_block_soa` over every leaf of the fitted tree for a few
/// held-out queries: nanoseconds per leaf row summed.
pub fn leaf_sweep(clf: &Classifier, queries: &Matrix, spans: &Spans) -> f64 {
    let Some(tree) = clf.tree() else {
        return f64::NAN;
    };
    let kernel = clf.kernel();
    let leaves: Vec<u32> = (0..tree.node_count() as u32)
        .filter(|&id| tree.is_leaf(id))
        .collect();
    let n_queries = (20_000_000 / tree.len().max(1)).clamp(1, queries.rows());
    let _s = spans.enter("kernel.sum_block_soa");
    let t0 = Instant::now();
    let mut total = 0.0;
    let mut rows = 0usize;
    for q in 0..n_queries {
        let x = queries.row(q);
        for &id in &leaves {
            let count = tree.count(id);
            let soa = tree.node_block_soa(id);
            total += match tree.node_weights(id) {
                Some(w) => kernel.sum_block_soa_weighted(x, soa, count, w),
                None => kernel.sum_block_soa(x, soa, count),
            };
            rows += count;
        }
    }
    std::hint::black_box(total);
    t0.elapsed().as_nanos() as f64 / rows.max(1) as f64
}

/// Protocol encode/decode on in-memory buffers, ns per point.
pub fn codec(points: &Matrix, spans: &Spans) -> Res<(f64, f64)> {
    const REPS: usize = 20_000;
    let req = Request::Classify {
        points: points.clone(),
    };
    let mut buf = Vec::with_capacity(4096);
    let t0 = {
        let _s = spans.enter("protocol.write_request");
        let t0 = Instant::now();
        for _ in 0..REPS {
            buf.clear();
            write_request(&mut buf, std::hint::black_box(&req)).map_err(err("encode"))?;
        }
        t0.elapsed()
    };
    let mut resp_buf = Vec::new();
    write_response(
        &mut resp_buf,
        &Response::Labels(vec![Label::High; points.rows()]),
    )
    .map_err(err("encode response"))?;
    let t1 = {
        let _s = spans.enter("protocol.read_response");
        let t1 = Instant::now();
        for _ in 0..REPS {
            let mut r = std::hint::black_box(&resp_buf[..]);
            std::hint::black_box(read_response(&mut r).map_err(err("decode"))?);
        }
        t1.elapsed()
    };
    let per = (REPS * points.rows()) as f64;
    Ok((t0.as_nanos() as f64 / per, t1.as_nanos() as f64 / per))
}

/// `threshold.*`: the bootstrap (Algorithm 3) of the fit that `report`
/// and `spans` come from.
pub fn record_threshold_layers(rep: &mut Report, report: &FitReport, spans: &[trace::Span]) {
    let b = &report.bootstrap;
    rep.metric(
        "threshold.bootstrap_s",
        trace::total_s(spans, "fit.bootstrap"),
    );
    rep.metric(
        "threshold.bootstrap_bound_evals",
        b.stats.bound_evals as f64,
    );
    rep.metric("threshold.backoffs", b.backoffs as f64);
    rep.metric("threshold.reestimates", report.threshold_reestimates as f64);
}

/// `fit.*`: the training-density pass of the measured fit.
pub fn record_fit_layers(rep: &mut Report, report: &FitReport, spans: &[trace::Span]) {
    let ts = &report.training_stats;
    rep.metric("fit.threshold_s", trace::total_s(spans, "fit.threshold"));
    rep.metric(
        "fit.bound_evals_per_train_query",
        frac(ts.bound_evals, ts.queries),
    );
}

pub fn record_classify_layers(
    rep: &mut Report,
    stats: &QueryStats,
    spans: &[trace::Span],
    busy: &WorkerTelemetry,
    utilization: f64,
) {
    let q = stats.queries;
    rep.metric("index.grid_prune_frac", frac(stats.grid_prunes, q));
    rep.metric(
        "bound.traversal_s",
        trace::total_s(spans, "classify.traversal"),
    );
    rep.metric("bound.bound_evals_per_query", frac(stats.bound_evals, q));
    rep.metric(
        "bound.nodes_expanded_per_query",
        frac(stats.nodes_expanded, q),
    );
    rep.metric(
        "bound.prune_mix.threshold_high",
        frac(stats.threshold_high, q),
    );
    rep.metric(
        "bound.prune_mix.threshold_low",
        frac(stats.threshold_low, q),
    );
    rep.metric("bound.prune_mix.tolerance", frac(stats.tolerance, q));
    rep.metric("bound.prune_mix.exhausted", frac(stats.exhausted, q));
    rep.metric("kernel.evals_per_query", frac(stats.kernel_evals, q));
    let leaf_s = trace::total_s(spans, "classify.leaf_sum");
    let busy_s = busy.busy_ns as f64 * 1e-9;
    rep.metric("kernel.leaf_sum_s", leaf_s);
    rep.metric(
        "kernel.leaf_sum_busy_share",
        if busy_s > 0.0 { leaf_s / busy_s } else { 0.0 },
    );
    rep.metric("engine.busy_s", busy_s);
    rep.metric("engine.idle_s", busy.idle_ns as f64 * 1e-9);
    rep.metric("engine.utilization", utilization);
    rep.metric("engine.chunks_stolen", busy.chunks_stolen as f64);
    rep.metric("engine.parks", busy.parks as f64);
}
