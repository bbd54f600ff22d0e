//! One workload run: fit → save → classify → oracle and guards →
//! set-up → measuring rounds → serving ladder → coreset reference check.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics with
//! every span off, in rounds that interleave fits, classify passes,
//! low-rate serving and set-ups over `--seconds`. A traced run (`--trace 1`) repeats the same phases
//! once with spans on, adds direct calls into the layers the end-to-end
//! path goes through, and derives the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tkdc::{model_io, Classifier, ExecPolicy, Label, Params, QueryStats, Spans};
use tkdc_common::Matrix;
use tkdc_coreset::{CompactorKind, CoresetConfig, StreamingCoreset, WeightedCoreset};
use tkdc_index::KdTree;

use crate::checks::{check_coreset, check_full_oracle, guards};
use crate::config::{
    Workload, CLASSIFY_SLICE_S, MIN_ROUNDS, RUNG_S, SERVE_SLICE_S, SETUPS_PER_ROUND,
};
use crate::layers::{
    codec, leaf_sweep, record_classify_layers, record_fit_layers, record_threshold_layers,
    telemetry_delta,
};
use crate::measure::{
    err, frac, gaussian, median, mix, peak_rss_mib, secs, Res, FIT_STREAM, QUERY_STREAM,
    TRAIN_STREAM,
};
use crate::serve::{self, RequestPool, Rung};
use crate::trace;

/// What one run found.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed non-degeneracy guards and correctness checks.
    pub problems: Vec<String>,
    /// Human-readable detail printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts `attempted` checked operations of which `failed` failed.
    pub fn checked(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.lines
            .push(format!("check {what}: {failed} failed of {attempted}"));
        if failed > 0 {
            self.problems
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    pub fn guard(&mut self, what: String, ok: bool) {
        self.lines.push(format!(
            "guard {what}: {}",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            self.problems
                .push(format!("non-degeneracy guard failed: {what}"));
        }
    }
}

/// Run settings fixed by the command line.
pub struct Ctx {
    pub w: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub traced: bool,
    pub out_dir: &'static Path,
}

impl Ctx {
    pub fn policy(&self) -> ExecPolicy {
        ExecPolicy::with_threads(self.threads)
    }

    /// Parameters of fit number `rep`: each timed fit draws its own
    /// bootstrap seed.
    pub fn params(&self, rep: u64) -> Params {
        Params::default()
            .with_p(self.w.p)
            .with_seed(mix(self.seed, FIT_STREAM + rep))
    }
}

/// A fitted model and, for the coreset workload, the compaction behind it.
struct Fitted {
    clf: Classifier,
    secs: f64,
    coreset: Option<(WeightedCoreset, f64)>,
}

/// Streams `rows` through the coreset builder.
fn compact(ctx: &Ctx, rows: &Matrix, eps: f64, spans: &Spans) -> Res<(WeightedCoreset, f64)> {
    let _s = spans.enter("coreset.build");
    let t0 = Instant::now();
    let cfg = CoresetConfig {
        eps,
        kind: CompactorKind::auto_for_dim(ctx.w.dim),
        seed: ctx.seed,
        chunk_capacity: None,
    };
    let mut sc = StreamingCoreset::new(ctx.w.dim, cfg).map_err(err("coreset"))?;
    for row in rows.iter_rows() {
        sc.push(row).map_err(err("coreset push"))?;
    }
    let cs = sc.finish().map_err(err("coreset finish"))?;
    Ok((cs, secs(t0)))
}

/// Raw rows → fitted classifier (for the coreset workload: the rows
/// streamed through the coreset builder, then the weighted fit).
fn fit(ctx: &Ctx, rows: &Matrix, rep: u64, spans: &Spans) -> Res<Fitted> {
    let t0 = Instant::now();
    let (clf, coreset) = match ctx.w.coreset_eps {
        None => {
            let clf = Classifier::fit_with_spans(rows, &ctx.params(rep), ctx.policy(), spans)
                .map_err(err("fit"))?;
            (clf, None)
        }
        Some(eps) => {
            let (cs, compact_s) = compact(ctx, rows, eps, spans)?;
            let clf = Classifier::fit_weighted_with_spans(
                &cs.points,
                &cs.weights,
                eps,
                &ctx.params(rep),
                ctx.policy(),
                spans,
            )
            .map_err(err("weighted fit"))?;
            (clf, Some((cs, compact_s)))
        }
    };
    Ok(Fitted {
        clf,
        secs: secs(t0),
        coreset,
    })
}

/// One pass of every held-out query through `classify_batch_shared`.
fn classify_pass(
    ctx: &Ctx,
    clf: &Classifier,
    queries: &Arc<Matrix>,
    spans: &Spans,
) -> Res<(Vec<Label>, QueryStats, f64)> {
    let t0 = Instant::now();
    let (labels, stats) = if spans.is_enabled() {
        clf.classify_batch_shared_spanned(queries.clone(), ctx.policy(), spans)
    } else {
        clf.classify_batch_shared(queries.clone(), ctx.policy())
    }
    .map_err(err("classify"))?;
    Ok((labels, stats, secs(t0)))
}

/// Wall time of each phase of a run (printed, not reported as metrics).
struct Phases {
    last: Instant,
    done: Vec<(&'static str, f64)>,
}

impl Phases {
    fn new() -> Self {
        Self {
            last: Instant::now(),
            done: Vec::new(),
        }
    }

    fn mark(&mut self, name: &'static str) {
        self.done.push((name, secs(self.last)));
        self.last = Instant::now();
    }

    fn line(&self) -> String {
        let parts: Vec<String> = self
            .done
            .iter()
            .map(|(n, s)| format!("{n} {s:.2} s"))
            .collect();
        format!("phases: {}", parts.join(", "))
    }
}

/// Drains the sink: the events join the run's trace, the closed spans
/// are returned for the phase just finished.
fn drain(spans: &Spans, events: &mut Vec<trace::Event>) -> Vec<trace::Span> {
    let ev = trace::from_records(&spans.take());
    let closed = trace::close(&ev);
    events.extend(ev);
    closed
}

fn rung_line(r: &Rung) -> String {
    format!(
        "rung {:>7.0} req/s: sent {} ok {} failed {} | p50 {:.1} us p99 {:.1} us (worst window {:.1} us) | achieved {:.1} req/s | gen lateness {:.1} us | backlog growth {:.1} us | {}",
        r.rate,
        r.sent,
        r.ok,
        r.failed,
        r.p50_us,
        r.p99_us,
        r.max_window_p99_us,
        r.achieved_rps,
        r.gen_lateness_us,
        r.backlog_growth_us,
        if r.pass { "pass" } else { "FAIL" }
    )
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let w = ctx.w;
    let mut rep = Report::default();
    let policy = ctx.policy();
    let off = Spans::off();
    let spans = if ctx.traced {
        Spans::enabled()
    } else {
        Spans::off()
    };

    let mut phases = Phases::new();
    // Inputs: training rows and held-out queries from separate seeds.
    let train = gaussian(w.n_train, w.dim, mix(ctx.seed, TRAIN_STREAM));
    let queries = Arc::new(gaussian(w.n_queries, w.dim, mix(ctx.seed, QUERY_STREAM)));

    phases.mark("inputs");
    // Fit 0 trains the model every later phase uses. It runs cold, so an
    // untraced run does not count it; its timed fits run in the rounds.
    // A traced run fits once more with spans on.
    let mut fitted = fit(ctx, &train, 0, &off)?;
    let fit0_s = fitted.secs;
    let mut events = Vec::new();
    let mut fit_spans = Vec::new();
    if ctx.traced {
        fitted = fit(ctx, &train, 0, &spans)?;
        fit_spans = drain(&spans, &mut events);
    }
    let clf = &fitted.clf;

    // Save.
    let mut bytes = Vec::new();
    {
        let _s = spans.enter("model_io.save");
        model_io::save_model_to(clf, &mut bytes).map_err(err("save model"))?;
    }

    phases.mark("fit");
    // The first pass warms caches and the pool and is not timed; its
    // labels are the reference every later pass must reproduce. A
    // traced run times one untraced pass (the overhead baseline) and
    // one traced pass.
    let (labels, stats, _) = classify_pass(ctx, clf, &queries, &off)?;
    let mut pass_times = Vec::new();
    let mut differing = 0u64;
    let mut traced_pass_s = f64::NAN;
    if ctx.traced {
        let (l, _, t) = classify_pass(ctx, clf, &queries, &off)?;
        differing += u64::from(l != labels);
        pass_times.push(t);
        let before = clf.pool_telemetry();
        let (l, s, t) = classify_pass(ctx, clf, &queries, &spans)?;
        let after = clf.pool_telemetry();
        traced_pass_s = t;
        rep.checked(
            "traced classify pass gives identical labels",
            1,
            u64::from(l != labels),
        );
        let cls_spans = drain(&spans, &mut events);
        let (busy, util) = telemetry_delta(&before, &after);
        record_classify_layers(&mut rep, &s, &cls_spans, &busy, util);
        fit_spans.extend(cls_spans);
    }

    phases.mark("classify");
    guards(ctx, &mut rep, clf, &labels, &stats);
    if w.coreset_eps.is_none() {
        check_full_oracle(ctx, &mut rep, clf, &queries, &labels)?;
    }

    phases.mark("oracle");
    // The serving daemon every round and rung talks to.
    let pool = RequestPool::build(clf, &queries, ctx.seed, policy)?;
    let warm = Arc::new(pool.first_request().clone());
    let span_file = ctx
        .out_dir
        .join(format!("serve-{}-seed{}.jsonl", w.name, ctx.seed));
    let span_out = ctx.traced.then(|| span_file.clone());
    let (live, first_setup) = serve::start(&bytes, &warm, ctx.threads, span_out, &spans)?;
    let mut setup_steps = vec![first_setup];
    // Warm-up at the middle rate, not reported: the loaded model's pages
    // and the pool's threads settle before anything is measured.
    let warm_up = serve::run_rung(
        &live,
        &pool,
        w.ladder[1],
        RUNG_S / 2.0,
        ctx.threads,
        w.p99_limit_us,
        0,
    );
    let mut next_request = warm_up.sent;
    rep.checked(
        "served answers during warm-up",
        warm_up.sent as u64,
        warm_up.failed as u64,
    );
    phases.mark("setup");

    // Rounds (untraced runs only): fit, classify, serve at the lowest
    // rate, set up. Latency is taken at the lowest rate because queueing
    // at higher load amplifies the host's drift.
    let mut fit_times = Vec::new();
    let mut slices: Vec<Rung> = Vec::new();
    let t_rounds = Instant::now();
    let mut round = 0;
    while !ctx.traced && (round < MIN_ROUNDS || secs(t_rounds) < ctx.seconds) {
        round += 1;
        // Each timed fit trains on a training set of its own, so `fit_s`
        // covers training sets as well as bootstrap paths.
        let rows = gaussian(w.n_train, w.dim, mix(ctx.seed, TRAIN_STREAM + 100 + round));
        fit_times.push(fit(ctx, &rows, round, &off)?.secs);
        drop(rows);
        let t_classify = Instant::now();
        while pass_times.is_empty() || secs(t_classify) < CLASSIFY_SLICE_S {
            let (l, _, t) = classify_pass(ctx, clf, &queries, &off)?;
            differing += u64::from(l != labels);
            pass_times.push(t);
        }
        let slice = serve::run_rung(
            &live,
            &pool,
            w.ladder[0],
            SERVE_SLICE_S,
            ctx.threads,
            w.p99_limit_us,
            next_request,
        );
        next_request += slice.sent;
        slices.push(slice);
        for _ in 0..SETUPS_PER_ROUND {
            let (l, s) = serve::start(&bytes, &warm, ctx.threads, None, &off)?;
            serve::stop(l)?;
            setup_steps.push(s);
        }
    }
    rep.checked(
        "repeated classify passes give identical labels",
        pass_times.len() as u64,
        differing,
    );
    let qps: Vec<f64> = pass_times.iter().map(|t| w.n_queries as f64 / t).collect();
    phases.mark("rounds");

    // The rate ladder for `serve_max_rps`. A traced run drives only the
    // lowest rate, as the rounds do, for the serve layer's figures.
    let ladder: &[f64] = if ctx.traced {
        &w.ladder[..1]
    } else {
        &w.ladder
    };
    let mut rungs = Vec::new();
    for &rate in ladder {
        let _s = spans.enter("client.ladder_rung");
        let r = serve::run_rung(
            &live,
            &pool,
            rate,
            RUNG_S,
            ctx.threads,
            w.p99_limit_us,
            next_request,
        );
        next_request += r.sent;
        rungs.push(r);
        drop(_s);
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let server_stats = serve::stop(live)?;
    for r in &rungs {
        rep.lines.push(rung_line(r));
        for e in &r.errors {
            rep.lines.push(format!("  error: {e}"));
        }
    }
    for r in &slices {
        for e in &r.errors {
            rep.lines.push(format!("  error at {:.0} req/s: {e}", r.rate));
        }
    }
    let served: usize = rungs.iter().chain(&slices).map(|r| r.sent).sum();
    let served_failed: usize = rungs.iter().chain(&slices).map(|r| r.failed).sum();
    rep.checked(
        "served answers equal in-process answers",
        served as u64,
        served_failed as u64,
    );
    let lowest = &rungs[0];
    let peak = peak_rss_mib();
    phases.mark("ladder");

    // The coreset workload's full-data references come after the
    // measured phases, so they do not count in its peak memory.
    let unknown = frac(
        labels.iter().filter(|&&l| l == Label::Unknown).count() as u64,
        labels.len() as u64,
    );
    let low = frac(
        labels.iter().filter(|&&l| l == Label::Low).count() as u64,
        labels.len() as u64,
    );
    let ref_spans = Spans::enabled();
    let reference = match w.coreset_eps {
        Some(_) => Some(check_coreset(
            ctx,
            &mut rep,
            clf,
            &train,
            &queries,
            &labels,
            if ctx.traced { &ref_spans } else { &off },
        )?),
        None => None,
    };

    phases.mark("reference");
    let f = clf.fit_report();
    rep.lines.push(format!(
        "fit report: bootstrap rounds {:?}, backoffs {}, reestimates {}, training bound evals per query {:.1}",
        f.bootstrap.rounds,
        f.bootstrap.backoffs,
        f.threshold_reestimates,
        frac(f.training_stats.bound_evals, f.training_stats.queries)
    ));
    rep.lines.push(phases.line());
    rep.lines.push(format!(
        "classify work per query: bound evals {:.1}, kernel evals {:.1}, grid prunes {:.4}",
        frac(stats.bound_evals, stats.queries),
        frac(stats.kernel_evals, stats.queries),
        frac(stats.grid_prunes, stats.queries),
    ));
    let step =
        |f: fn(&serve::Setup) -> f64| median(&setup_steps.iter().map(f).collect::<Vec<_>>()) * 1e3;
    rep.lines.push(format!(
        "setup steps (median ms): load {:.3}, warm pool {:.3}, bind+spawn {:.3}, first ping {:.3}",
        step(|s| s.load),
        step(|s| s.warm),
        step(|s| s.bind),
        step(|s| s.ping)
    ));
    let setup_times: Vec<f64> = setup_steps.iter().map(|s| s.total).collect();
    let slice_latencies: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.latencies_us.iter().copied())
        .collect();
    if !ctx.traced {
        rep.lines.push(format!(
            "rounds {round}: fit_s {fit_times:?}; classify pass qps {:?} ({} queries each); setup_s {setup_times:?}",
            qps.iter().map(|q| q.round()).collect::<Vec<_>>(),
            w.n_queries
        ));
        rep.lines.push(format!(
            "serve slices at {} req/s: p50 us {:?}; {} requests, pooled p50 {:.1} us",
            w.ladder[0],
            slices
                .iter()
                .map(|s| (s.p50_us * 10.0).round() / 10.0)
                .collect::<Vec<_>>(),
            slice_latencies.len(),
            median(&slice_latencies)
        ));
    }
    rep.lines.push(format!(
        "labels: LOW {low:.4}, UNKNOWN {unknown:.4}; threshold {:.6e}",
        clf.threshold(),
    ));

    if !ctx.traced {
        rep.metric("setup_s", median(&setup_times));
        // The mean, not the median: the cost of one fit is bimodal (a
        // bootstrap backoff in the final round repeats the whole round),
        // and the mean over training sets is its expected cost.
        rep.metric(
            "fit_s",
            fit_times.iter().sum::<f64>() / fit_times.len() as f64,
        );
        rep.metric("classify_qps", median(&qps));
        rep.metric("serve_p50_us", median(&slice_latencies));
        let max_rps = rungs
            .iter()
            .filter(|r| r.pass)
            .map(|r| r.achieved_rps)
            .fold(0.0, f64::max);
        rep.metric("serve_max_rps", max_rps);
        rep.metric("model_bytes", bytes.len() as f64);
        rep.metric("peak_rss_mib", peak.unwrap_or(f64::NAN));
        return Ok(rep);
    }

    // Traced run: direct layer calls and per-layer metrics.
    let mut layer_spans = fit_spans;
    let bench_spans = drain(&spans, &mut events);
    // The weighted fit has no bootstrap: the coreset workload's
    // threshold figures come from its full-data reference fit.
    match &reference {
        Some(r) => {
            record_threshold_layers(&mut rep, r.fit_report(), &drain(&ref_spans, &mut events))
        }
        None => record_threshold_layers(&mut rep, clf.fit_report(), &layer_spans),
    }
    record_fit_layers(&mut rep, clf.fit_report(), &layer_spans);
    layer_spans.extend(bench_spans);

    let tree_s = {
        let p = ctx.params(0);
        let _s = spans.enter("index.kdtree_build");
        let t0 = Instant::now();
        let tree = match &fitted.coreset {
            Some((cs, _)) => {
                KdTree::build_weighted(&cs.points, &cs.weights, p.leaf_size, p.opts.split_rule())
            }
            None => KdTree::build(&train, p.leaf_size, p.opts.split_rule()),
        };
        std::hint::black_box(tree.map_err(err("tree build"))?);
        secs(t0)
    };
    rep.metric("index.tree_build_s", tree_s);
    rep.metric("kernel.ns_per_row", leaf_sweep(clf, &queries, &spans));
    let (enc, dec) = codec(pool.first_request(), &spans)?;
    rep.metric("serve.encode_ns_per_point", enc);
    rep.metric("serve.decode_ns_per_point", dec);

    // A full-data workload has no compaction on its path; the coreset
    // layer is measured directly on its training rows instead.
    let (cstats, compact_s) = match &fitted.coreset {
        Some((cs, s)) => (cs.stats, *s),
        None => {
            let (cs, s) = compact(ctx, &train, 1e-3, &spans)?;
            (cs.stats, s)
        }
    };
    rep.metric("coreset.compact_s", compact_s);
    rep.metric(
        "coreset.compression_ratio",
        frac(cstats.points_in, cstats.points_out),
    );
    rep.metric(
        "coreset.max_resident_points",
        cstats.max_resident_points as f64,
    );
    layer_spans.extend(drain(&spans, &mut events));

    rep.metric(
        "model_io.load_s",
        trace::total_s(&layer_spans, "model_io.load"),
    );
    rep.metric(
        "model_io.save_s",
        trace::total_s(&layer_spans, "model_io.save"),
    );

    // The daemon's spans, drained to its span file at shutdown.
    let served_text = std::fs::read_to_string(&span_file)
        .map_err(|e| format!("read {}: {e}", span_file.display()))?;
    let served_events = trace::parse_v2(&served_text);
    let served_spans = trace::close(&served_events);
    let exec: Vec<&trace::Span> = served_spans
        .iter()
        .filter(|s| s.name == "serve.exec")
        .collect();
    let requests: Vec<f64> = served_spans
        .iter()
        .filter(|s| {
            s.name == "serve.request"
                && exec.iter().any(|e| {
                    e.tid == s.tid
                        && e.start_us >= s.start_us
                        && e.start_us <= s.start_us + s.dur_us
                })
        })
        .map(|s| s.dur_us as f64)
        .collect();
    let server_p50 = median(&requests);
    rep.metric("serve.client_p99_us", lowest.p99_us);
    rep.metric("serve.server_p50_us", server_p50);
    rep.metric(
        "serve.server_p99_us",
        crate::measure::quantile(&requests, 0.99),
    );
    rep.metric("serve.wire_gap_us", lowest.p50_us - server_p50);
    // Dispatch and reassembly take microseconds per batch: summed over
    // the traced pass and every served request, not one batch.
    for (metric, stage) in [
        ("engine.dispatch_s", "classify.dispatch"),
        ("engine.reassembly_s", "classify.reassembly"),
    ] {
        rep.metric(
            metric,
            trace::total_s(&layer_spans, stage) + trace::total_s(&served_spans, stage),
        );
    }
    let exec_us: f64 = exec.iter().map(|s| s.dur_us as f64).sum();
    let req_us: f64 = requests.iter().sum();
    rep.metric(
        "serve.exec_share",
        if req_us > 0.0 { exec_us / req_us } else { 0.0 },
    );
    rep.metric("serve.rejected", server_stats.rejected_over_capacity as f64);
    rep.metric("serve.timeouts", server_stats.timeouts as f64);
    rep.metric("serve.gen_lateness_us", lowest.gen_lateness_us);
    rep.metric("labels.unknown_frac", unknown);
    rep.metric("labels.low_frac", low);
    let untraced = fit0_s + pass_times[0];
    let traced = fitted.secs + traced_pass_s;
    rep.metric("obs.trace_overhead", traced / untraced);

    // Per-layer table, and the spans written out at the end.
    let mut all = layer_spans;
    all.extend(served_spans);
    rep.lines.push(trace::render(
        &format!("per-layer self time ({} spans)", all.len()),
        &trace::table(&all),
    ));
    events.extend(served_events);
    let trace_file = ctx
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", w.name, ctx.seed));
    std::fs::write(&trace_file, trace::v2_lines(&events))
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    rep.lines
        .push(format!("spans written to {}", trace_file.display()));
    Ok(rep)
}
