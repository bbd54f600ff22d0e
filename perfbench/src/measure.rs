//! Seeded inputs, order statistics, and process-level measurements.

use std::time::Instant;

use tkdc_common::{Matrix, Rng};

/// Stream tags: each input is drawn from its own seed derived from the
/// workload seed, so training rows and held-out queries never coincide.
pub const TRAIN_STREAM: u64 = 1;
pub const QUERY_STREAM: u64 = 2;
pub const SAMPLE_STREAM: u64 = 3;
pub const REQUEST_STREAM: u64 = 4;
/// Bootstrap seeds of the timed fits: `FIT_STREAM + rep`.
pub const FIT_STREAM: u64 = 16;

pub type Res<T> = Result<T, String>;

/// Maps a library error to this benchmark's error string.
pub fn err(what: &str) -> impl Fn(tkdc_common::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub fn frac(count: u64, of: u64) -> f64 {
    count as f64 / of.max(1) as f64
}

/// splitmix64 finalizer over `seed ^ stream`: decorrelated sub-seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` rows of N(0, I_d) from `seed`.
pub fn gaussian(n: usize, dim: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from(seed);
    let data = (0..n * dim).map(|_| rng.standard_normal()).collect();
    Matrix::from_vec(data, n, dim).expect("row-major buffer matches its shape")
}

/// Linear-interpolated quantile (`q` in [0, 1]) of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host fingerprint recorded with every result.
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub commit: String,
    pub rustc: &'static str,
}

impl Host {
    pub fn probe() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            cores,
            cpu_model,
            commit: commit(),
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

/// JSON string escaping for the few free-text fields we print.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
