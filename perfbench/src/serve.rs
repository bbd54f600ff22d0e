//! The serving side: daemon set-up, the open-loop load generator, and
//! the checks that served answers equal in-process ones.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tkdc::{model_io, Classifier, ExecPolicy, Label, Spans};
use tkdc_common::{Matrix, Rng};
use tkdc_serve::{Client, ServeConfig, Server, ServerHandle, StatsSnapshot};

use crate::config::{DENSITY_EVERY, REQUEST_POINTS};
use crate::measure::{err, median, mix, quantile, Res, REQUEST_STREAM};

/// Distinct requests the generator cycles through.
const POOL_REQUESTS: usize = 256;
/// Requests per window of a rung; the rung's p99 is the median of its
/// windows' p99s.
const WINDOW_REQUESTS: usize = 1000;
/// Per-connection socket timeout; a request slower than this fails.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Request payloads with the answers the in-process engine gives for
/// them (labels for `Classify`, bounds for `Density`).
pub struct RequestPool {
    points: Vec<Matrix>,
    labels: Vec<Vec<Label>>,
    bounds: Vec<Vec<(f64, f64)>>,
    seed: u64,
}

impl RequestPool {
    /// Slices `POOL_REQUESTS` requests of `REQUEST_POINTS` held-out
    /// queries from seeded offsets and answers them in process.
    pub fn build(clf: &Classifier, queries: &Matrix, seed: u64, policy: ExecPolicy) -> Res<Self> {
        let mut rng = Rng::seed_from(mix(seed, REQUEST_STREAM));
        let span = queries.rows() - REQUEST_POINTS;
        let mut all = Matrix::with_cols(queries.cols());
        let mut points = Vec::with_capacity(POOL_REQUESTS);
        for _ in 0..POOL_REQUESTS {
            let start = rng.next_below(span as u64) as usize;
            let mut m = Matrix::with_cols(queries.cols());
            for i in start..start + REQUEST_POINTS {
                m.push_row(queries.row(i)).map_err(err("request row"))?;
                all.push_row(queries.row(i)).map_err(err("request row"))?;
            }
            points.push(m);
        }
        let all = Arc::new(all);
        let (labels, _) = clf
            .classify_batch_shared(all.clone(), policy)
            .map_err(err("in-process classify"))?;
        let (bounds, _) = clf
            .bound_density_batch_shared(all, policy)
            .map_err(err("in-process density"))?;
        Ok(Self {
            points,
            labels: labels.chunks(REQUEST_POINTS).map(<[_]>::to_vec).collect(),
            bounds: bounds
                .chunks(REQUEST_POINTS)
                .map(|c| c.iter().map(|b| (b.lower, b.upper)).collect())
                .collect(),
            seed,
        })
    }

    fn is_density(&self, k: usize) -> bool {
        mix(self.seed, k as u64).is_multiple_of(DENSITY_EVERY)
    }

    /// Sends request `k` and checks the answer against the in-process one.
    fn send(&self, client: &mut Client, k: usize) -> Res<()> {
        let i = k % self.points.len();
        if self.is_density(k) {
            let got = client.density(&self.points[i]).map_err(err("density"))?;
            if got != self.bounds[i] {
                return Err(format!(
                    "served bounds differ from in-process bounds (request {k})"
                ));
            }
        } else {
            let got = client.classify(&self.points[i]).map_err(err("classify"))?;
            if got != self.labels[i] {
                return Err(format!(
                    "served labels differ from in-process labels (request {k})"
                ));
            }
        }
        Ok(())
    }

    pub fn first_request(&self) -> &Matrix {
        &self.points[0]
    }
}

/// A running daemon.
pub struct Live {
    addr: SocketAddr,
    handle: ServerHandle,
}

/// Seconds spent in each step of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub load: f64,
    pub warm: f64,
    pub bind: f64,
    pub ping: f64,
    pub total: f64,
}

/// Set-up as a user pays it: model bytes → loaded classifier with a warm
/// pool → bound, spawned server → first `Ping` answered.
pub fn start(
    bytes: &[u8],
    warm: &Arc<Matrix>,
    threads: usize,
    span_out: Option<PathBuf>,
    spans: &Spans,
) -> Res<(Live, Setup)> {
    let t0 = Instant::now();
    let clf = {
        let _s = spans.enter("model_io.load");
        model_io::load_model_from(bytes).map_err(err("load model"))?
    };
    let t_load = Instant::now();
    {
        let _s = spans.enter("setup.warm_pool");
        clf.classify_batch_shared(warm.clone(), ExecPolicy::with_threads(threads))
            .map_err(err("warm-up batch"))?;
    }
    let t_warm = Instant::now();
    let server = {
        let _s = spans.enter("setup.bind");
        let cfg = ServeConfig {
            threads: Some(threads),
            // The generator's connections plus one control connection.
            max_conns: threads + 1,
            span_out,
            ..ServeConfig::default()
        };
        Server::bind(cfg, clf).map_err(err("bind"))?
    };
    let handle = server.spawn();
    let addr = handle.addr();
    let t_bind = Instant::now();
    let ping = {
        let _s = spans.enter("setup.first_ping");
        Client::connect_with_timeout(&addr.to_string(), CLIENT_TIMEOUT).and_then(|mut c| c.ping())
    };
    let end = Instant::now();
    let live = Live { addr, handle };
    if let Err(e) = ping {
        let _ = stop(live);
        return Err(format!("first ping: {e}"));
    }
    let setup = Setup {
        load: (t_load - t0).as_secs_f64(),
        warm: (t_warm - t_load).as_secs_f64(),
        bind: (t_bind - t_warm).as_secs_f64(),
        ping: (end - t_bind).as_secs_f64(),
        total: (end - t0).as_secs_f64(),
    };
    Ok((live, setup))
}

/// Fetches the final stats over a fresh control connection, then drains
/// the server and joins it.
pub fn stop(live: Live) -> Res<StatsSnapshot> {
    let result = Client::connect_with_timeout(&live.addr.to_string(), CLIENT_TIMEOUT)
        .and_then(|mut c| {
            let stats = c.stats()?;
            c.shutdown()?;
            Ok(stats)
        })
        .map_err(err("stats/shutdown"));
    live.handle.join().map_err(err("server drain"))?;
    result
}

/// Yields until `due`. A sleeping generator lets the host park its
/// virtual CPUs between requests, and waking them costs milliseconds
/// that would be charged to the server; yielding keeps them awake, and
/// the `SCHED_IDLE` class (`idle_priority`) gives the CPU to any
/// runnable server thread.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Moves the calling thread to the `SCHED_IDLE` class: it runs only on a
/// core no other thread wants, and a server thread that wakes takes the
/// core from it at once. A generator thread that waits for its next due
/// time keeps its core awake this way without taking a share of it from
/// the server.
fn idle_priority() -> Res<()> {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` that outlives the
    // call; pid 0 names the calling thread.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setscheduler(SCHED_IDLE): {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// One rung of the rate ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: f64,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub p50_us: f64,
    /// Median over the rung's windows of each window's p99.
    pub p99_us: f64,
    /// The worst window's p99.
    pub max_window_p99_us: f64,
    /// How late the generator sent requests whose connection was free
    /// before they were due (its own health), median.
    pub gen_lateness_us: f64,
    /// Median send lateness over the last fifth of the rung minus the
    /// first fifth: a growing backlog shows as a positive growth.
    pub backlog_growth_us: f64,
    pub achieved_rps: f64,
    pub pass: bool,
    pub errors: Vec<String>,
    /// Every request's latency (µs; a failed request counts as infinite).
    pub latencies_us: Vec<f64>,
}

struct Sample {
    k: usize,
    latency_us: f64,
    lateness_us: f64,
    early: bool,
    ok: bool,
}

/// Drives one rung: requests are due at `k / rate` seconds and claimed
/// in order by `conns` connection threads. A connection sends a request
/// when it is due, or at once when it is already late; latency counts
/// from the due time, so a stall's wait on later requests is measured.
/// Request `k` sends pool request `first + k`, so consecutive rungs
/// continue the request sequence rather than repeat its start.
pub fn run_rung(
    live: &Live,
    pool: &RequestPool,
    rate: f64,
    duration_s: f64,
    conns: usize,
    p99_limit_us: f64,
    first: usize,
) -> Rung {
    let total = ((rate * duration_s).round() as usize).max(1);
    let next = AtomicUsize::new(0);
    let addr = live.addr.to_string();
    let start = Instant::now();
    let per_thread: Vec<(Vec<Sample>, Vec<String>, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut samples = Vec::with_capacity(total / conns + 1);
                    let mut errors: Vec<String> = idle_priority().err().into_iter().collect();
                    let mut client = Client::connect_with_timeout(&addr, CLIENT_TIMEOUT);
                    let mut last_done = start;
                    loop {
                        // ORDERING: the counter only hands out indices.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(k as f64 / rate);
                        let early = Instant::now() < due;
                        wait_until(due);
                        let sent = Instant::now();
                        let result = match client.as_mut() {
                            Ok(c) => pool.send(c, first + k),
                            Err(e) => Err(format!("connect: {e}")),
                        };
                        let done = Instant::now();
                        last_done = done;
                        if let Err(e) = &result {
                            if errors.len() < 4 {
                                errors.push(e.clone());
                            }
                            client = Client::connect_with_timeout(&addr, CLIENT_TIMEOUT);
                        }
                        samples.push(Sample {
                            k,
                            latency_us: done.saturating_duration_since(due).as_secs_f64() * 1e6,
                            lateness_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
                            early,
                            ok: result.is_ok(),
                        });
                    }
                    (samples, errors, last_done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });

    let mut samples: Vec<Sample> = Vec::with_capacity(total);
    let mut errors = Vec::new();
    let mut end = start;
    for (s, e, last) in per_thread {
        samples.extend(s);
        errors.extend(e);
        end = end.max(last);
    }
    samples.sort_by_key(|s| s.k);
    let ok = samples.iter().filter(|s| s.ok).count();
    let failed = samples.len() - ok;
    // A failed request misses every latency limit.
    let latencies: Vec<f64> = samples
        .iter()
        .map(|s| if s.ok { s.latency_us } else { f64::INFINITY })
        .collect();
    let early: Vec<f64> = samples
        .iter()
        .filter(|s| s.early)
        .map(|s| s.lateness_us)
        .collect();
    let fifth = (samples.len() / 5).max(1);
    let lateness = |xs: &[Sample]| median(&xs.iter().map(|s| s.lateness_us).collect::<Vec<_>>());
    let growth = lateness(&samples[samples.len() - fifth..]) - lateness(&samples[..fifth]);
    // p99 as the median of the p99s of consecutive windows of
    // WINDOW_REQUESTS requests (at least ten beyond each window's p99):
    // a stall of the shared host moves the windows it falls in, not the
    // rung's figure.
    let windows = (latencies.len() / WINDOW_REQUESTS).max(1);
    let per_window = latencies.len().div_ceil(windows);
    let window_p99: Vec<f64> = latencies
        .chunks(per_window)
        .map(|w| quantile(w, 0.99))
        .collect();
    let p99 = median(&window_p99);
    Rung {
        rate,
        sent: samples.len(),
        ok,
        failed,
        p50_us: quantile(&latencies, 0.5),
        p99_us: p99,
        max_window_p99_us: window_p99.iter().copied().fold(0.0, f64::max),
        // A generator that is never early is behind on every request;
        // its lateness is then the backlog's.
        gen_lateness_us: if early.is_empty() {
            lateness(&samples)
        } else {
            median(&early)
        },
        backlog_growth_us: growth,
        achieved_rps: ok as f64 / end.duration_since(start).as_secs_f64(),
        pass: failed == 0 && p99 <= p99_limit_us && growth <= p99_limit_us / 2.0,
        errors,
        latencies_us: latencies,
    }
}
