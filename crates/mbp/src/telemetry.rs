//! The live telemetry plane: a std-only HTTP/1.1 server exposing the
//! process's observability surfaces while a run or sweep is in flight.
//!
//! Endpoints:
//!
//! | Path        | Content                                                 |
//! |-------------|---------------------------------------------------------|
//! | `/metrics`  | OpenMetrics text: pipeline domains + H2P rows           |
//! | `/snapshot` | Versioned JSON: pipeline, per-predictor status, config  |
//! | `/healthz`  | `ok` — liveness only                                    |
//!
//! The server is deliberately minimal: one accept thread, one connection
//! at a time, `Connection: close` on every response, no keep-alive, no
//! TLS, no external dependencies — the same spirit as the checkpoint and
//! shutdown machinery. Scrape cost lands entirely on the serving thread
//! (reads of relaxed atomics plus string formatting); the simulation
//! hot path is never locked or signalled. Listening on port 0 picks an
//! ephemeral port; [`TelemetryServer::local_addr`] reports the binding.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mbp_core::SweepStatusBoard;
use mbp_json::{json, Value};

/// Version of the `/snapshot` JSON schema.
///
/// Additive rule: new fields may appear within a version (consumers must
/// ignore unknown keys); the version is bumped only when an existing
/// field changes shape or meaning, or when a new surface is significant
/// enough that consumers should gate on it. v2 added the forensic
/// surfaces: per-predictor `worst_branch` (`null` until the first
/// misprediction, then `{"ip", "mispredictions"}`).
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 2;

/// Everything the snapshot endpoint reports beyond the pipeline statics:
/// what kind of command is running, its resilience configuration, and the
/// live per-predictor board.
#[derive(Clone, Default)]
pub struct TelemetryState {
    /// `"run"` or `"sweep"`.
    pub kind: &'static str,
    /// Per-predictor status board (shared with the sweep workers).
    pub board: Option<Arc<SweepStatusBoard>>,
    /// Per-predictor deadline, seconds.
    pub deadline_secs: Option<f64>,
    /// Checkpoint file path.
    pub checkpoint: Option<String>,
    /// Whether the sweep resumed from its checkpoint.
    pub resume: bool,
    /// Sampling-plan metadata (doc hash, planned fraction, …).
    pub sampling: Option<Value>,
    /// Polled for the `shutdown_requested` field; `None` reports `false`.
    pub shutdown: Option<fn() -> bool>,
}

/// Builds the versioned `/snapshot` document from the live surfaces.
pub fn snapshot_json(state: &TelemetryState, elapsed_s: f64, scrapes: u64) -> Value {
    let pipeline = crate::report::pipeline_json(mbp_stats::pipeline());
    let predictors: Vec<Value> = state
        .board
        .as_ref()
        .map(|board| {
            board
                .snapshot()
                .iter()
                .map(|s| {
                    let worst = match s.worst_branch {
                        Some((ip, mispredictions)) => json!({
                            "ip": ip,
                            "mispredictions": mispredictions,
                        }),
                        None => Value::Null,
                    };
                    json!({
                        "name": s.name.as_str(),
                        "state": s.state.as_str(),
                        "epoch": s.epoch,
                        "instructions": s.instructions,
                        "conditional_branches": s.conditional_branches,
                        "mispredictions": s.mispredictions,
                        "mpki": s.mpki,
                        "worst_branch": worst,
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    let mut doc = json!({
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "kind": state.kind,
        "elapsed_s": elapsed_s,
        "shutdown_requested": state.shutdown.map(|probe| probe()).unwrap_or(false),
        "dropped_events": mbp_stats::events::dropped_events(),
        "scrapes": scrapes,
        "pipeline": pipeline,
        "sweep": {
            "deadline_secs": state.deadline_secs,
            "checkpoint": state.checkpoint.clone(),
            "resume": state.resume,
            "predictors": predictors,
        },
    });
    if let Some(sampling) = &state.sampling {
        if let Some(obj) = doc.as_object_mut() {
            obj.insert("sampling", sampling.clone());
        }
    }
    doc
}

/// A running telemetry listener; create with [`TelemetryServer::start`],
/// stop with [`TelemetryServer::finish`].
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept thread.
    pub fn start(addr: &str, state: TelemetryState) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Non-blocking accept so the thread can observe the stop flag
        // promptly without a connection ever arriving.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let state = Arc::new(state);
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let scrapes = Arc::new(AtomicU64::new(0));
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Serve each connection on its own short-lived
                        // thread so a slow or stalled client (connection
                        // held open, bytes dribbled in) cannot wedge the
                        // accept loop — `/healthz` stays responsive. The
                        // per-connection read/write deadlines bound each
                        // thread's lifetime, so stragglers self-terminate
                        // even after the server stops accepting.
                        let state = Arc::clone(&state);
                        let scrapes = Arc::clone(&scrapes);
                        std::thread::spawn(move || {
                            let _ = serve_connection(stream, &state, &started, &scrapes);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        });
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains the listener: keeps serving for `hold` (so late scrapers can
    /// observe the final state), then stops the accept thread. A pending
    /// shutdown request cuts the hold short.
    pub fn finish(mut self, hold: Duration, shutdown: Option<fn() -> bool>) {
        let deadline = Instant::now() + hold;
        while Instant::now() < deadline {
            if shutdown.map(|probe| probe()).unwrap_or(false) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20).min(hold));
        }
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reads one HTTP/1.1 request, routes it, writes one response, closes.
fn serve_connection(
    stream: TcpStream,
    state: &TelemetryState,
    started: &Instant,
    scrapes: &AtomicU64,
) -> std::io::Result<()> {
    // The listener is non-blocking for prompt stop-flag checks; accepted
    // sockets may inherit that on some platforms, so reset it explicitly —
    // the deadlines below are what bound a slow client, not WouldBlock.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers; the endpoints take no request body.
    let mut header = String::new();
    loop {
        header.clear();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut stream = reader.into_inner();
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n",
        );
    }
    match path {
        "/metrics" => {
            let n = scrapes.fetch_add(1, Ordering::Relaxed) + 1;
            mbp_stats::events::instant(mbp_stats::events::EventName::TelemetryScrape, n);
            let h2p: Vec<mbp_stats::H2pRow> = state
                .board
                .as_ref()
                .map(|board| {
                    board
                        .snapshot()
                        .iter()
                        .map(|s| {
                            let (worst_ip, worst_mispredictions) = match s.worst_branch {
                                Some((ip, n)) => (Some(ip), n),
                                None => (None, 0),
                            };
                            mbp_stats::H2pRow {
                                predictor: s.name.clone(),
                                worst_ip,
                                worst_mispredictions,
                            }
                        })
                        .collect()
                })
                .unwrap_or_default();
            let body = mbp_stats::render_openmetrics(
                mbp_stats::pipeline(),
                mbp_stats::events::dropped_events(),
                &h2p,
            );
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &body)
        }
        "/snapshot" => {
            let n = scrapes.fetch_add(1, Ordering::Relaxed) + 1;
            mbp_stats::events::instant(mbp_stats::events::EventName::TelemetryScrape, n);
            let body = snapshot_json(state, started.elapsed().as_secs_f64(), n).to_pretty_string();
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        "/healthz" => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// Writes a complete `Connection: close` HTTP/1.1 response.
fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Minimal HTTP GET against a telemetry endpoint, used by `mbpsim top`
/// (and tests): returns the response body, or an error on non-200.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response")
    })?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains("200") {
        return Err(std::io::Error::other(format!(
            "unexpected status: {status_line}"
        )));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_core::{simulate, SimConfig, SliceSource};
    use mbp_trace::{Branch, BranchRecord, Opcode};

    /// Settles `slot` on an always-taken run over one not-taken
    /// conditional branch at each address of `misses`, `gap` instructions
    /// apart.
    fn settle_always_taken(board: &SweepStatusBoard, slot: usize, misses: &[u64], gap: u32) {
        let records: Vec<BranchRecord> = (misses.iter())
            .map(|&ip| {
                BranchRecord::new(Branch::new(ip, 0, Opcode::conditional_direct(), false), gap)
            })
            .collect();
        let mut predictor = mbp_predictors::AlwaysTaken;
        let r = simulate(
            &mut SliceSource::new(&records),
            &mut predictor,
            &SimConfig::default(),
        );
        board.settle(slot, &r.unwrap());
    }

    #[test]
    fn serves_all_three_endpoints_then_drains() {
        let state = TelemetryState {
            kind: "run",
            ..TelemetryState::default()
        };
        let server = TelemetryServer::start("127.0.0.1:0", state).unwrap();
        let addr = server.local_addr().to_string();
        let t = Duration::from_secs(2);

        let health = http_get(&addr, "/healthz", t).unwrap();
        assert_eq!(health, "ok\n");

        let metrics = http_get(&addr, "/metrics", t).unwrap();
        assert!(metrics.contains("# TYPE mbp_sim_instructions counter"));
        assert!(metrics.contains("mbp_events_dropped_total"));

        let snapshot = http_get(&addr, "/snapshot", t).unwrap();
        let doc: Value = snapshot.parse().unwrap();
        assert_eq!(doc["schema_version"], Value::from(2));
        assert_eq!(doc["kind"], Value::from("run"));
        assert!(doc["pipeline"]["simulate"].as_object().is_some());

        assert!(
            http_get(&addr, "/nope", t).is_err(),
            "404 surfaces as error"
        );
        server.finish(Duration::ZERO, None);
    }

    #[test]
    fn snapshot_reports_board_states() {
        use mbp_core::{PredictorState, SweepStatusBoard};
        let board = Arc::new(SweepStatusBoard::new(["gshare", "tage"]));
        board.set_state(0, PredictorState::Running);
        // 4 mispredictions in 2 000 instructions, 3 of them at 0x400.
        settle_always_taken(&board, 1, &[0x400, 0x500, 0x400, 0x400], 499);
        let state = TelemetryState {
            kind: "sweep",
            board: Some(board),
            deadline_secs: Some(30.0),
            checkpoint: Some("sweep.ckpt.jsonl".to_string()),
            resume: true,
            ..TelemetryState::default()
        };
        let doc = snapshot_json(&state, 1.5, 3);
        assert_eq!(doc["sweep"]["resume"], Value::from(true));
        assert_eq!(doc["sweep"]["deadline_secs"], Value::from(30.0));
        let preds = doc["sweep"]["predictors"].as_array().unwrap();
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0]["state"], Value::from("running"));
        assert!(
            preds[0]["worst_branch"].is_null(),
            "no misprediction yet => null"
        );
        assert_eq!(preds[1]["state"], Value::from("settled"));
        assert_eq!(preds[1]["mpki"], Value::from(2.0));
        assert_eq!(preds[1]["worst_branch"]["ip"], Value::from(0x400u64));
        assert_eq!(
            preds[1]["worst_branch"]["mispredictions"],
            Value::from(3u64)
        );
        assert_eq!(doc["scrapes"], Value::from(3));
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        // Satellite: the /snapshot schema must deserialize and re-serialize
        // to the exact bytes served, so downstream consumers can archive
        // and diff snapshots without a canonicalization step.
        use mbp_core::SweepStatusBoard;
        let board = Arc::new(SweepStatusBoard::new(["bimodal"]));
        settle_always_taken(&board, 0, &[0x88, 0x90, 0x88], 99);
        let state = TelemetryState {
            kind: "sweep",
            board: Some(board),
            ..TelemetryState::default()
        };
        let served = snapshot_json(&state, 0.25, 1).to_pretty_string();
        let reparsed: Value = served.parse().unwrap();
        assert_eq!(
            reparsed.to_pretty_string(),
            served,
            "snapshot JSON must round-trip byte-identically"
        );
    }

    #[test]
    fn dribbling_client_cannot_wedge_healthz() {
        // Satellite: a client that opens a connection and trickles bytes
        // without ever completing a request must not block other scrapers —
        // each connection is served on its own deadline-bounded thread.
        let server = TelemetryServer::start("127.0.0.1:0", TelemetryState::default()).unwrap();
        let addr = server.local_addr();

        // Open the hostile connection first and keep it alive, dribbling.
        let mut dribbler = TcpStream::connect(addr).unwrap();
        dribbler.write_all(b"G").unwrap();
        dribbler.flush().unwrap();
        // Give the accept loop time to pick it up before probing health.
        std::thread::sleep(Duration::from_millis(100));

        let t0 = Instant::now();
        let health = http_get(&addr.to_string(), "/healthz", Duration::from_secs(1)).unwrap();
        assert_eq!(health, "ok\n");
        assert!(
            t0.elapsed() < Duration::from_millis(900),
            "healthz blocked behind a stalled connection: {:?}",
            t0.elapsed()
        );

        drop(dribbler);
        server.finish(Duration::ZERO, None);
    }
}
