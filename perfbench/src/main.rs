//! The repository's benchmark: one command per workload, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! bash perfbench/run.sh --workload batch_d8 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! Lines before it carry the host fingerprint, each check and guard,
//! the serving ladder, sample counts and, when traced, the per-layer
//! self-time table. A run whose guards or checks fail prints its
//! result with `"correct": false` and exits 1.

mod checks;
mod config;
mod layers;
mod measure;
mod serve;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use config::{END_TO_END, PER_LAYER, WORKLOADS};
use measure::{json_num, json_str, Host};
use workload::Ctx;

/// Where traced runs write their span files (inside the checkout).
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1> [--threads <n>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut threads) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value for {flag}: {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            "--threads" => threads = Some(value.parse::<usize>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        threads,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(w) = config::workload(&args.workload) else {
        eprintln!("error: unknown workload {:?}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let host = Host::probe();
    // Threads and connections never exceed the cores: an oversubscribed
    // run measures the scheduler, not the program.
    let threads = args.threads.unwrap_or(host.cores);
    if threads == 0 || threads > host.cores {
        eprintln!(
            "error: refusing to run with {threads} threads/connections on {} cores",
            host.cores
        );
        return ExitCode::from(2);
    }
    let out_dir = Path::new(OUT_DIR);
    if args.trace {
        if let Err(e) = std::fs::create_dir_all(out_dir) {
            eprintln!("error: create {OUT_DIR}: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "host: {{\"cores\": {}, \"cpu_model\": {}, \"commit\": {}, \"rustc\": {}, \"threads\": {threads}, \"connections\": {threads}}}",
        host.cores,
        json_str(&host.cpu_model),
        json_str(&host.commit),
        json_str(host.rustc)
    );
    println!(
        "workload: {} (seed {}, {} s, trace {}) — {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.why
    );
    let ctx = Ctx {
        w,
        seed: args.seed,
        seconds: args.seconds,
        threads,
        traced: args.trace,
        out_dir,
    };
    let report = match workload::run(&ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut problems = report.problems.clone();
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        match report.metrics.get(name) {
            Some(v) if v.is_finite() => {
                println!("metric {name:<34} {v:>16.6} {unit}");
                metrics.push(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                ));
            }
            _ => problems.push(format!("metric {name} was not measured")),
        }
    }
    println!(
        "error_rate: {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for p in &problems {
        println!("problem: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
