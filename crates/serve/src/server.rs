//! The serving daemon: a multi-threaded TCP accept loop over an
//! immutable fitted [`Classifier`].
//!
//! ## Architecture
//!
//! One thread runs the accept loop; each accepted connection gets its
//! own handler thread (connections are long-lived and micro-batched, so
//! a thread per connection is cheap relative to the work it carries —
//! the *query* parallelism lives inside the work-stealing batch engine,
//! not in the connection fan-out). Shared state is a single
//! [`Arc<Shared>`]: the classifier (read-only after fit), the
//! [`Metrics`] block (lock-free atomics), a shutdown flag, and the
//! bound address used to self-connect and unblock `accept()` when a
//! `Shutdown` request arrives.
//!
//! ## Observability
//!
//! Three optional sinks, all off by default and all zero-cost when off:
//!
//! * **Metrics endpoint** ([`ServeConfig::metrics_addr`]) — a second
//!   listener (see [`crate::http`]) answering `GET /metrics` with the
//!   Prometheus text rendering of the transport counters, the engine
//!   registry, both latency views, and the batch engine's per-worker
//!   pool telemetry.
//! * **Span trace** ([`ServeConfig::span_out`]) — every request runs
//!   under a `serve.request` / `serve.exec` span pair (plus the
//!   classifier's own classify stage spans) on one shared timeline; at
//!   drain the collected events are written as Chrome `trace_event`
//!   JSON (default) or `tkdc-trace/v2` JSONL (`.jsonl` path).
//! * **Slow-query log** ([`ServeConfig::slow_log`]) — requests at or
//!   above [`ServeConfig::slow_ms`] milliseconds append one
//!   `tkdc-slowlog/v1` JSON line with the request's span breakdown.
//!
//! ## Robustness
//!
//! * **Connection cap** — at `max_conns` concurrent connections, new
//!   arrivals receive one `OverCapacity` error frame and are closed;
//!   nothing queues unboundedly. A handler frees its slot from a drop
//!   guard, so even a panicking handler gives its slot back.
//! * **Timeouts** — every connection carries read *and* write timeouts;
//!   an idle or stalled peer gets a `Timeout` error frame and is
//!   dropped instead of pinning a handler forever.
//! * **Graceful drain** — `Shutdown` flips the shutdown flag, wakes the
//!   acceptor, and the accept loop then joins every live handler:
//!   in-flight requests finish, idle handlers notice the flag within
//!   one read-timeout tick, and `run()` returns only when all handler
//!   threads have exited (and any span trace has been flushed).

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tkdc_sync::atomic::{AtomicBool, Ordering};
use tkdc_sync::thread::{self, JoinHandle};
use tkdc_sync::{Arc, Mutex};

use tkdc::{Classifier, ExecPolicy, QueryStats, QueryTrace, Spans, TraceWriter};
use tkdc_common::error::{protocol_error, Error, Result};
use tkdc_obs::span::SpanRecord;
use tkdc_obs::{chrome_trace_json, complete_spans, span_v2_lines, Exposition, Gauge};

use crate::http::{MetricsHandle, MetricsServer};
use crate::metrics::Metrics;
use crate::protocol::{read_request, write_response, ErrorCode, Request, Response};

/// Slow-query threshold used when a slow log is configured without an
/// explicit [`ServeConfig::slow_ms`].
const DEFAULT_SLOW_MS: u64 = 100;

/// Schema tag on every slow-query log line.
pub const SLOWLOG_SCHEMA: &str = "tkdc-slowlog/v1";

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads for each micro-batch (`None` = all available
    /// cores). This sets the [`ExecPolicy`] used per request; it does
    /// not bound the number of connection handler threads. Requests
    /// reuse the classifier's persistent worker pool — threads are
    /// spawned once on the first parallel batch and parked between
    /// requests, never respawned per batch.
    pub threads: Option<usize>,
    /// Maximum concurrent connections before new arrivals are rejected
    /// with an `OverCapacity` error frame.
    pub max_conns: usize,
    /// Per-connection read/write timeout. Also bounds how long an idle
    /// handler takes to notice a shutdown.
    pub timeout: Duration,
    /// Optional JSONL trace sink (`tkdc-trace/v1`): when set, `Classify`
    /// and `Density` batches run with per-query tracing and append
    /// sampled traces here. Trace `query` indices are per-request batch
    /// positions (each micro-batch restarts at 0).
    pub trace_out: Option<PathBuf>,
    /// Trace sampling: record every `trace_every`-th query of each batch
    /// (`1` = all, `0` = tracing off even with a sink configured).
    pub trace_every: u64,
    /// Optional second listener serving `GET /metrics` in Prometheus
    /// text format (`host:port`; port 0 picks an ephemeral port).
    pub metrics_addr: Option<String>,
    /// Slow-query threshold in milliseconds (`0` logs every request);
    /// only meaningful together with [`ServeConfig::slow_log`]. `None`
    /// with a slow log configured defaults to 100 ms.
    pub slow_ms: Option<u64>,
    /// Optional slow-query log sink: one `tkdc-slowlog/v1` JSON line
    /// (with span breakdown) per request at or over the threshold.
    pub slow_log: Option<PathBuf>,
    /// Optional span-trace sink written at drain: Chrome `trace_event`
    /// JSON, or `tkdc-trace/v2` JSONL when the path ends in `.jsonl`.
    pub span_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: None,
            max_conns: 64,
            timeout: Duration::from_secs(10),
            trace_out: None,
            trace_every: 1,
            metrics_addr: None,
            slow_ms: None,
            slow_log: None,
            span_out: None,
        }
    }
}

/// State shared between the accept loop and every connection handler.
struct Shared {
    classifier: Classifier,
    policy: ExecPolicy,
    metrics: Metrics,
    shutdown: AtomicBool,
    addr: SocketAddr,
    max_conns: usize,
    timeout: Duration,
    /// JSONL trace sink shared by every handler thread; the mutex keeps
    /// whole trace lines atomic across concurrent batches.
    trace: Option<Mutex<TraceWriter<BufWriter<File>>>>,
    trace_every: u64,
    /// Common time base for every request's spans, so the drained trace
    /// is one coherent timeline across connections.
    span_base: Instant,
    /// Whether requests run with span recording at all (a span sink or
    /// a slow log is configured).
    collect_spans: bool,
    span_out: Option<PathBuf>,
    /// Span events from finished requests, drained into `span_out` when
    /// the server exits.
    span_events: Mutex<Vec<SpanRecord>>,
    slow_ms: u64,
    slow_log: Option<Mutex<BufWriter<File>>>,
}

/// A bound (but not yet running) serving daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    metrics_endpoint: Option<MetricsServer>,
}

/// Join handle for a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    handle: JoinHandle<Result<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to finish draining and returns its result.
    pub fn join(self) -> Result<()> {
        match self.handle.join() {
            Ok(res) => res,
            Err(_) => Err(protocol_error("server thread panicked")),
        }
    }
}

impl Server {
    /// Binds the listener (and the metrics endpoint, if configured) and
    /// wraps the classifier; call [`Server::run`] or [`Server::spawn`]
    /// to start serving.
    pub fn bind(config: ServeConfig, classifier: Classifier) -> Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let policy = ExecPolicy::Parallel {
            threads: config.threads,
        };
        let trace = match (&config.trace_out, config.trace_every) {
            (Some(path), every) if every > 0 => {
                let file = File::create(path)?;
                Some(Mutex::new(TraceWriter::new(BufWriter::new(file))))
            }
            _ => None,
        };
        let slow_log = match &config.slow_log {
            Some(path) => Some(Mutex::new(BufWriter::new(File::create(path)?))),
            None => None,
        };
        let metrics_endpoint = match &config.metrics_addr {
            Some(addr) => Some(MetricsServer::bind(addr)?),
            None => None,
        };
        let collect_spans = config.span_out.is_some() || slow_log.is_some();
        let shared = Arc::new(Shared {
            classifier,
            policy,
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            addr,
            max_conns: config.max_conns.max(1),
            timeout: config.timeout,
            trace,
            trace_every: config.trace_every,
            span_base: Instant::now(),
            collect_spans,
            span_out: config.span_out.clone(),
            span_events: Mutex::new(Vec::new()),
            slow_ms: config.slow_ms.unwrap_or(DEFAULT_SLOW_MS),
            slow_log,
        });
        Ok(Self {
            listener,
            shared,
            metrics_endpoint,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// The bound metrics-endpoint address, when one is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_endpoint.as_ref().map(|m| m.local_addr())
    }

    /// Runs the accept loop on the calling thread until a `Shutdown`
    /// request drains the server. Returns after every connection
    /// handler has been joined and any span trace has been written.
    pub fn run(self) -> Result<()> {
        let Server {
            listener,
            shared,
            metrics_endpoint,
        } = self;
        let exporter: Option<MetricsHandle> = metrics_endpoint.map(|m| {
            let sh = Arc::clone(&shared);
            m.spawn(Arc::new(move || prometheus_text(&sh)))
        });
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        for conn in listener.incoming() {
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                // Transient accept errors (e.g. the peer vanished
                // between SYN and accept) must not kill the daemon.
                Err(_) => continue,
            };
            handlers.retain(|h| !h.is_finished());
            shared.metrics.connections_accepted.inc();
            // The accept loop is the only incrementer, so load-then-add
            // cannot overshoot the cap.
            let active = shared.metrics.active_connections.get();
            // CAST: usize -> u64 is lossless on 64-bit targets
            if active >= shared.max_conns as u64 {
                reject_over_capacity(stream, &shared);
                continue;
            }
            shared.metrics.active_connections.add(1);
            let sh = Arc::clone(&shared);
            handlers.push(thread::spawn(move || {
                let _slot = ConnectionSlot(&sh.metrics.active_connections);
                handle_connection(stream, &sh);
            }));
        }
        for h in handlers {
            let _ = h.join();
        }
        if let Some(h) = exporter {
            h.shutdown()?;
        }
        write_span_trace(&shared)?;
        Ok(())
    }

    /// Runs the server on a background thread; the returned handle
    /// carries the bound address and joins the drain.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.shared.addr;
        let handle = thread::spawn(move || self.run());
        ServerHandle { addr, handle }
    }
}

/// One taken connection slot. Dropping it frees the slot, so a handler
/// that panics still gives its slot back instead of shrinking the
/// connection cap for the rest of the daemon's life.
struct ConnectionSlot<'a>(&'a Gauge);

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Writes the collected span events to the configured sink: `.jsonl`
/// paths get `tkdc-trace/v2` JSONL, everything else Chrome
/// `trace_event` JSON.
fn write_span_trace(shared: &Shared) -> Result<()> {
    let Some(path) = &shared.span_out else {
        return Ok(());
    };
    let events = match shared.span_events.lock() {
        Ok(mut v) => std::mem::take(&mut *v),
        Err(_) => Vec::new(),
    };
    let text = if path.extension().is_some_and(|e| e == "jsonl") {
        let mut t = span_v2_lines(&events);
        if !t.is_empty() {
            t.push('\n');
        }
        t
    } else {
        chrome_trace_json(&events)
    };
    fs::write(path, text)?;
    Ok(())
}

/// Renders the full Prometheus exposition for one scrape: transport
/// counters, the engine registry (work mix + label mix), both latency
/// views, and the batch engine's per-worker pool telemetry — every
/// series labelled with the served model's backend and bound kind.
fn prometheus_text(shared: &Shared) -> String {
    let m = &shared.metrics;
    let labels: Vec<(&str, String)> = vec![
        ("backend", shared.classifier.backend_name().to_string()),
        (
            "bound_kind",
            shared.classifier.bound_kind().as_str().to_string(),
        ),
    ];
    let mut exp = Exposition::new();
    for (name, value) in [
        ("serve.requests_total", m.requests_total.get()),
        ("serve.errors_total", m.errors_total.get()),
        ("serve.pings", m.pings.get()),
        ("serve.classifies", m.classifies.get()),
        ("serve.densities", m.densities.get()),
        ("serve.stats_requests", m.stats_requests.get()),
        ("serve.points_classified", m.points_classified.get()),
        ("serve.points_bounded", m.points_bounded.get()),
        (
            "serve.rejected_over_capacity",
            m.rejected_over_capacity.get(),
        ),
        ("serve.timeouts", m.timeouts.get()),
        ("serve.connections_accepted", m.connections_accepted.get()),
    ] {
        exp.counter(name, &labels, value);
    }
    // CAST: connection counts are far below 2^53
    exp.gauge(
        "serve.active_connections",
        &labels,
        m.active_connections.get() as f64,
    );
    exp.registry(&m.engine_snapshot(), &labels);
    exp.histogram("serve.request_latency_us", &labels, &m.latency_buckets());
    let mut window_labels = labels.clone();
    window_labels.push(("window_seconds", m.window_seconds().to_string()));
    exp.histogram(
        "serve.request_latency_window_us",
        &window_labels,
        &m.window_latency_buckets(),
    );
    let telemetry = shared.classifier.pool_telemetry();
    for (k, w) in telemetry.workers.iter().enumerate() {
        let mut worker_labels = labels.clone();
        worker_labels.push(("worker", k.to_string()));
        pool_worker_series(&mut exp, &worker_labels, w);
    }
    let mut submitter_labels = labels.clone();
    submitter_labels.push(("worker", "submitter".to_string()));
    pool_worker_series(&mut exp, &submitter_labels, &telemetry.submitters);
    exp.gauge("pool.utilization", &labels, telemetry.utilization());
    exp.finish()
}

/// Appends one worker's (or the submitter aggregate's) pool counters.
fn pool_worker_series(
    exp: &mut Exposition,
    labels: &[(&str, String)],
    w: &tkdc::engine::WorkerTelemetry,
) {
    exp.counter("pool.tasks_run", labels, w.tasks_run);
    exp.counter("pool.chunks_stolen", labels, w.chunks_stolen);
    exp.counter("pool.parks", labels, w.parks);
    exp.counter("pool.unparks", labels, w.unparks);
    exp.counter("pool.busy_ns", labels, w.busy_ns);
    exp.counter("pool.idle_ns", labels, w.idle_ns);
}

/// Writes one `OverCapacity` error frame and drops the connection.
fn reject_over_capacity(mut stream: TcpStream, shared: &Shared) {
    shared.metrics.rejected_over_capacity.inc();
    let _ = stream.set_write_timeout(Some(shared.timeout));
    let _ = write_response(
        &mut stream,
        &Response::Error {
            code: ErrorCode::OverCapacity,
            message: format!(
                "server at its {}-connection capacity; retry later",
                shared.max_conns
            ),
        },
    );
}

/// True when an error is the read/write timeout firing (surfaced by the
/// OS as `WouldBlock` or `TimedOut` depending on platform).
fn is_timeout(e: &Error) -> bool {
    matches!(
        e,
        Error::Io(io) if matches!(
            io.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    )
}

/// Maps a request-decoding failure onto a wire error code.
fn decode_error_code(e: &Error) -> ErrorCode {
    match e {
        Error::Protocol { message } if message.contains("unsupported protocol version") => {
            ErrorCode::UnsupportedVersion
        }
        Error::Protocol { message } if message.contains("byte cap") => ErrorCode::TooLarge,
        _ => ErrorCode::Malformed,
    }
}

/// Maps a classifier failure onto a wire error code: input-shaped
/// errors are the client's fault, anything else is `Internal`.
fn query_error_code(e: &Error) -> ErrorCode {
    match e {
        Error::DimensionMismatch { .. } | Error::EmptyInput(_) | Error::InvalidParameter { .. } => {
            ErrorCode::BadInput
        }
        _ => ErrorCode::Internal,
    }
}

/// Wire-level operation name for the slow-query log.
fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Ping { .. } => "ping",
        Request::Classify { .. } => "classify",
        Request::Density { .. } => "density",
        Request::Stats => "stats",
        Request::Shutdown => "shutdown",
    }
}

/// Serves one connection until EOF, timeout, protocol error, or
/// shutdown. Returns nothing: every exit path has already told the
/// client what happened (or the client is gone).
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.timeout));
    let _ = stream.set_write_timeout(Some(shared.timeout));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            let _ = write_response(
                &mut stream,
                &Response::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining".to_string(),
                },
            );
            return;
        }
        let req = match read_request(&mut stream) {
            Ok(None) => return, // clean close between frames
            Ok(Some(req)) => req,
            Err(e) if is_timeout(&e) => {
                // Idle past the deadline. During a drain this is how
                // parked handlers exit; otherwise it is a client fault.
                if !shared.shutdown.load(Ordering::Acquire) {
                    shared.metrics.timeouts.inc();
                    let _ = write_response(
                        &mut stream,
                        &Response::Error {
                            code: ErrorCode::Timeout,
                            message: format!(
                                "no request within the {:?} read timeout",
                                shared.timeout
                            ),
                        },
                    );
                }
                return;
            }
            Err(e) => {
                shared.metrics.requests_total.inc();
                shared.metrics.errors_total.inc();
                let _ = write_response(
                    &mut stream,
                    &Response::Error {
                        code: decode_error_code(&e),
                        message: e.to_string(),
                    },
                );
                return; // framing is unrecoverable: close
            }
        };
        let op = op_name(&req);
        let batch_points = match &req {
            // CAST: row count widens losslessly to u64.
            Request::Classify { points } | Request::Density { points } => points.rows() as u64,
            _ => 0,
        };
        let spans = if shared.collect_spans {
            Spans::enabled_with_base(shared.span_base)
        } else {
            Spans::off()
        };
        let start = Instant::now();
        let request_span = spans.enter("serve.request");
        let (resp, shutdown_requested) = respond(shared, req, &spans);
        drop(request_span);
        let elapsed = start.elapsed();
        shared.metrics.requests_total.inc();
        if matches!(resp, Response::Error { .. }) {
            shared.metrics.errors_total.inc();
        }
        shared.metrics.record_latency(elapsed);
        finish_observability(shared, &spans, op, batch_points, elapsed);
        if write_response(&mut stream, &resp).is_err() {
            return; // peer gone or stalled past the write timeout
        }
        if shutdown_requested {
            initiate_shutdown(shared);
            return;
        }
    }
}

/// Drains one answered request's spans into the slow-query log (if it
/// crossed the threshold) and the server-wide span collector.
fn finish_observability(
    shared: &Shared,
    spans: &Spans,
    op: &'static str,
    points: u64,
    elapsed: Duration,
) {
    if !shared.collect_spans {
        return;
    }
    let records = spans.take();
    if let Some(log) = &shared.slow_log {
        // CAST: request latencies in milliseconds are far below u64
        if elapsed.as_millis() as u64 >= shared.slow_ms {
            write_slow_entry(log, op, points, elapsed, &records);
        }
    }
    if shared.span_out.is_some() {
        // INVARIANT: the collector mutex is only held for the extend; a
        // poisoned lock just drops this request's spans.
        if let Ok(mut events) = shared.span_events.lock() {
            events.extend(records);
        }
    }
}

/// Appends one `tkdc-slowlog/v1` line. Logging is best-effort
/// diagnostics: a full disk must not fail the query being logged, so
/// write errors are swallowed here. Span names come from the closed
/// [`tkdc_obs::STAGES`] vocabulary and `op` from [`op_name`], so no
/// JSON string escaping is needed.
fn write_slow_entry(
    log: &Mutex<BufWriter<File>>,
    op: &'static str,
    points: u64,
    elapsed: Duration,
    records: &[SpanRecord],
) {
    let breakdown = complete_spans(records)
        .iter()
        .map(|s| format!("{{\"name\":\"{}\",\"dur_us\":{}}}", s.name, s.dur_us))
        .collect::<Vec<_>>()
        .join(",");
    let line = format!(
        "{{\"schema\":\"{SLOWLOG_SCHEMA}\",\"op\":\"{op}\",\"points\":{points},\"elapsed_us\":{},\"spans\":[{breakdown}]}}",
        elapsed.as_micros()
    );
    // INVARIANT: the log mutex is only held for the write; a poisoned
    // lock just drops this entry.
    if let Ok(mut w) = log.lock() {
        let _ = writeln!(w, "{line}");
        // Slow events are rare and each line is evidence someone will
        // want even if the process dies next: flush per entry.
        let _ = w.flush();
    }
}

/// Executes one decoded request against the shared classifier.
fn respond(shared: &Shared, req: Request, spans: &Spans) -> (Response, bool) {
    match req {
        Request::Ping { nonce } => {
            shared.metrics.pings.inc();
            (Response::Pong { nonce }, false)
        }
        Request::Classify { points } => {
            shared.metrics.classifies.inc();
            let exec_span = spans.enter("serve.exec");
            let result = match &shared.trace {
                Some(sink) => shared
                    .classifier
                    .classify_batch_traced_spanned(
                        &points,
                        shared.policy,
                        shared.trace_every,
                        spans,
                    )
                    .map(|(labels, stats, traces)| {
                        write_traces(sink, &traces);
                        (labels, stats)
                    }),
                // The request's owned points ride into the pool job as
                // an Arc — no per-request copy of the batch.
                None => shared.classifier.classify_batch_shared_spanned(
                    Arc::new(points),
                    shared.policy,
                    spans,
                ),
            };
            drop(exec_span);
            match result {
                Ok((labels, stats)) => {
                    record_batch(shared, &stats);
                    shared.metrics.record_labels(&labels);
                    shared.metrics.points_classified.add(labels.len() as u64); // CAST: row count
                    (Response::Labels(labels), false)
                }
                Err(e) => (
                    Response::Error {
                        code: query_error_code(&e),
                        message: e.to_string(),
                    },
                    false,
                ),
            }
        }
        Request::Density { points } => {
            shared.metrics.densities.inc();
            let exec_span = spans.enter("serve.exec");
            let result = match &shared.trace {
                Some(sink) => shared
                    .classifier
                    .bound_density_batch_traced(&points, shared.policy, shared.trace_every)
                    .map(|(bounds, stats, traces)| {
                        write_traces(sink, &traces);
                        (bounds, stats)
                    }),
                None => shared.classifier.bound_density_batch_shared_spanned(
                    Arc::new(points),
                    shared.policy,
                    spans,
                ),
            };
            drop(exec_span);
            match result {
                Ok((bounds, stats)) => {
                    record_batch(shared, &stats);
                    shared.metrics.points_bounded.add(bounds.len() as u64); // CAST: row count
                    let pairs = bounds.iter().map(|b| (b.lower, b.upper)).collect();
                    (Response::Bounds(pairs), false)
                }
                Err(e) => (
                    Response::Error {
                        code: query_error_code(&e),
                        message: e.to_string(),
                    },
                    false,
                ),
            }
        }
        Request::Stats => {
            shared.metrics.stats_requests.inc();
            let mut snap = shared.metrics.snapshot();
            // Model provenance rides in the same frame as the counters,
            // so clients can tell certified answers from probabilistic
            // ones without a second request.
            snap.backend = shared.classifier.backend_name().to_string();
            snap.bound_kind = shared.classifier.bound_kind().as_str().to_string();
            (Response::Stats(snap), false)
        }
        Request::Shutdown => (Response::ShutdownAck, true),
    }
}

/// Folds an answered batch's merged engine statistics into the metrics
/// block, so `Stats` snapshots expose the pruning work mix.
fn record_batch(shared: &Shared, stats: &QueryStats) {
    shared.metrics.record_query_stats(stats);
}

/// Appends a batch's traces to the shared sink. Tracing is best-effort
/// diagnostics: a full disk or revoked file must not fail the query
/// that was being traced, so write errors are swallowed here.
fn write_traces(sink: &Mutex<TraceWriter<BufWriter<File>>>, traces: &[QueryTrace]) {
    if traces.is_empty() {
        return;
    }
    // INVARIANT: trace-writer mutex is only held for the write; a
    // poisoned lock just drops this batch's traces.
    if let Ok(mut w) = sink.lock() {
        let _ = w.write_all(traces);
    }
}

/// Flips the shutdown flag and unblocks the accept loop with a
/// throwaway self-connection (`accept()` has no other wake-up).
fn initiate_shutdown(shared: &Shared) {
    // ORDERING: Release pairs with the Acquire loads in the accept loop
    // and every handler — whatever the shutting-down request observed
    // (e.g. its own response being written) is visible to handlers that
    // see the flag. Model-checked by `serve_drain_*` in
    // tests/model_check.rs.
    shared.shutdown.store(true, Ordering::Release);
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_secs(1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_handler_frees_its_connection_slot() {
        let active = Gauge::new();
        active.add(1);
        let outcome = std::panic::catch_unwind(|| {
            let _slot = ConnectionSlot(&active);
            panic!("handler failed");
        });
        assert!(outcome.is_err());
        assert_eq!(active.get(), 0);
    }
}
