//! Correctness checks and non-degeneracy guards. Every run makes them;
//! a failure marks the result incorrect.

use std::sync::Arc;

use tkdc::{Classifier, Label, QueryScratch, QueryStats, Spans};
use tkdc_common::{Matrix, Rng};

use crate::measure::{err, frac, mix, Res, SAMPLE_STREAM};
use crate::workload::{Ctx, Report};

/// Seeded oracle sample: half LOW-labelled queries (the rare class),
/// half others, the others biased to queries the grid did not prune.
fn oracle_sample(ctx: &Ctx, clf: &Classifier, queries: &Matrix, labels: &[Label]) -> Vec<usize> {
    let mut rng = Rng::seed_from(mix(ctx.seed, SAMPLE_STREAM));
    let k = ctx.w.oracle_samples;
    let (mut low, mut unpruned, mut pruned) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch = QueryScratch::new();
    for _ in 0..queries.rows() {
        if low.len() >= k / 2 && unpruned.len() + pruned.len() >= k - k / 2 {
            break;
        }
        let i = rng.next_below(queries.rows() as u64) as usize;
        match labels[i] {
            Label::Low if low.len() < k / 2 => low.push(i),
            Label::Low => {}
            _ if unpruned.len() >= k - k / 2 => {}
            _ => {
                scratch.reset_stats();
                if clf.classify_with(queries.row(i), &mut scratch).is_err() {
                    continue;
                }
                if scratch.stats.grid_prunes == 0 {
                    if unpruned.len() < k - k / 2 {
                        unpruned.push(i);
                    }
                } else if pruned.len() < (k - k / 2) / 4 {
                    pruned.push(i);
                }
            }
        }
    }
    low.into_iter().chain(unpruned).chain(pruned).collect()
}

/// Exact densities of `idx` under `clf`, computed on `threads` threads.
fn exact_densities(
    clf: &Classifier,
    queries: &Matrix,
    idx: &[usize],
    threads: usize,
) -> Res<Vec<f64>> {
    let chunk = idx.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = idx
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            clf.exact_density(queries.row(i))
                                .map_err(err("exact density"))
                        })
                        .collect::<Res<Vec<f64>>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(idx.len());
        for h in handles {
            out.extend(h.join().expect("oracle thread panicked")?);
        }
        Ok(out)
    })
}

/// Checks sampled labels against the exact density. A full-data label is
/// decided within the tolerance `ε·t` (Eq. 8), so HIGH is contradicted
/// only below `t(1−ε)` and LOW only above `t(1+ε)`.
pub fn check_full_oracle(
    ctx: &Ctx,
    rep: &mut Report,
    clf: &Classifier,
    queries: &Matrix,
    labels: &[Label],
) -> Res<()> {
    let idx = oracle_sample(ctx, clf, queries, labels);
    let exact = exact_densities(clf, queries, &idx, ctx.threads)?;
    let t = clf.threshold();
    let eps = clf.params().epsilon;
    let slack = 1e-9;
    let bad = idx
        .iter()
        .zip(&exact)
        .filter(|&(&i, &f)| match labels[i] {
            Label::High => f < t * (1.0 - eps) * (1.0 - slack),
            Label::Low => f > t * (1.0 + eps) * (1.0 + slack),
            Label::Unknown => true,
        })
        .count();
    rep.checked("labels vs exact density", idx.len() as u64, bad as u64);
    Ok(())
}

/// The coreset workload's references: a full-data fit on the same rows.
/// Certified coreset labels must agree with it (zero flips) and must
/// hold against the exact full-data density at the coreset threshold.
pub fn check_coreset(
    ctx: &Ctx,
    rep: &mut Report,
    clf: &Classifier,
    train: &Matrix,
    queries: &Arc<Matrix>,
    labels: &[Label],
    spans: &Spans,
) -> Res<Classifier> {
    let reference = Classifier::fit_with_spans(train, &ctx.params(0), ctx.policy(), spans)
        .map_err(err("reference fit"))?;
    let (full, _) = reference
        .classify_batch_shared(queries.clone(), ctx.policy())
        .map_err(err("reference classify"))?;
    let certified: Vec<usize> = (0..labels.len())
        .filter(|&i| labels[i] != Label::Unknown)
        .collect();
    let flips = certified.iter().filter(|&&i| labels[i] != full[i]).count();
    rep.checked(
        "certified coreset labels vs full-data model",
        certified.len() as u64,
        flips as u64,
    );

    let mut rng = Rng::seed_from(mix(ctx.seed, SAMPLE_STREAM));
    let k = ctx.w.oracle_samples;
    let mut idx: Vec<usize> = Vec::with_capacity(k);
    let lows: Vec<usize> = certified
        .iter()
        .copied()
        .filter(|&i| labels[i] == Label::Low)
        .collect();
    for _ in 0..k / 2 {
        if lows.is_empty() {
            break;
        }
        idx.push(lows[rng.next_below(lows.len() as u64) as usize]);
    }
    while idx.len() < k && !certified.is_empty() {
        idx.push(certified[rng.next_below(certified.len() as u64) as usize]);
    }
    let exact = exact_densities(&reference, queries, &idx, ctx.threads)?;
    let t = clf.threshold();
    let slack = 1e-9 * t;
    let bad = idx
        .iter()
        .zip(&exact)
        .filter(|&(&i, &f)| match labels[i] {
            Label::High => f < t - slack,
            Label::Low => f > t + slack,
            Label::Unknown => false,
        })
        .count();
    rep.checked(
        "certified coreset labels vs exact full-data density",
        idx.len() as u64,
        bad as u64,
    );
    Ok(reference)
}

pub fn guards(ctx: &Ctx, rep: &mut Report, clf: &Classifier, labels: &[Label], stats: &QueryStats) {
    let w = ctx.w;
    let n = labels.len() as u64;
    let low = frac(
        labels.iter().filter(|&&l| l == Label::Low).count() as u64,
        n,
    );
    let grid = frac(stats.grid_prunes, stats.queries);
    rep.guard(
        format!("threshold {:.4e} > 0", clf.threshold()),
        clf.threshold() > 0.0,
    );
    rep.guard(
        format!(
            "LOW fraction {low:.4} in [{}, {}] (p = {})",
            w.low_band.0, w.low_band.1, w.p
        ),
        (w.low_band.0..=w.low_band.1).contains(&low),
    );
    rep.guard(
        format!("kernel evals {} > 0", stats.kernel_evals),
        stats.kernel_evals > 0,
    );
    rep.guard(
        format!(
            "grid prunes per query {grid:.4} in [{}, {}]",
            w.grid_band.0, w.grid_band.1
        ),
        (w.grid_band.0..=w.grid_band.1).contains(&grid),
    );
}
