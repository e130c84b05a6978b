//! `claire-cli serve` — a crash-safe, admission-controlled resident
//! engine answering JSON-lines requests on stdin or a socket.
//!
//! One [`ResidentEngine`] lives for the whole session: every request
//! shares its memo tiers, and requests that arrive together are
//! batched into shared evaluations (one flat plan per custom batch,
//! one test table per assign batch). Combined with `--cache-dir`, the
//! first request after a restart is answered at warm-reflow speed.
//!
//! Hardening layers, front to back:
//!
//! * **Front ends** — stdin (the original mode) or `--listen` with a
//!   unix socket path or a `host:port`. Socket connections get one
//!   reader and one writer thread each, both under `--io-timeout-ms`;
//!   a stalled (slow-loris) client earns a typed timeout error and a
//!   closed connection, never a wedged server.
//! * **Admission** — a bounded queue (`--queue`). When it is full the
//!   request is answered immediately with a typed
//!   [`ClaireError::Overloaded`] (exit-code 13 numbering) instead of
//!   queueing unboundedly.
//! * **Deadlines** — a request may declare `"deadline_ms"`, which
//!   admission turns into an absolute deadline. Nothing polls for it:
//!   the dispatcher answers a request whose deadline lapsed while it
//!   was queued `DeadlineExceeded{stage:"queued"}`, and an in-flight
//!   custom evaluation reads the clock at the flat plan's cooperative
//!   checkpoints, stops once the deadline has passed and answers
//!   `stage:"evaluating"`. Completed neighbours in the same batch are
//!   untouched — answers stay bit-identical.
//! * **Crash safety** — with `--cache-dir`, warm state is checkpointed
//!   every `--checkpoint-ms` (atomic tmp+rename, generation-countered,
//!   skipped while the file on disk already holds the memo tiers) and
//!   saved again on SIGINT/SIGTERM after a graceful drain. A `kill -9`
//!   loses at most one checkpoint interval of warmth, never the
//!   snapshot's validity.
//! * **Fault drills** — `--serve-faults SEED[:SPEC]` arms the seeded
//!   serve-layer [`FaultPlan`] classes (dropped connection, slow-loris
//!   client, mid-batch panic, checkpoint write failure). The plan is
//!   consulted by this front end only and never attached to the
//!   engine, so answers stay bit-identical and snapshots still save.
//!
//! Protocol: one JSON object per input line, one JSON object per
//! output line, in request order within a batch (admission-shed and
//! malformed-input errors are answered immediately and may overtake
//! earlier queued work). Every response carries `"ok"` plus either the
//! op's result or a typed `"error"` `{code, detail}` using the CLI
//! exit-code numbering — a failed request never takes the server
//! down. See [`crate::args::USAGE`].

use crate::summary::CustomSummary;
use claire_core::telemetry::{Distribution, Metric};
use claire_core::{
    ClaireError, ClaireOptions, Constraints, CustomRequest, FaultClass, FaultPlan, LifecycleEvent,
    LifecycleStage, ResidentEngine, RobustnessPolicy,
};
use claire_model::parse::{parse_model, InputShape, ParseOptions};
use claire_model::{zoo, Model, ModelClass};
use serde::{Number, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// How often the dispatcher wakes with an empty queue to poll for
/// shutdown and drive periodic checkpoints.
const DISPATCH_TICK: Duration = Duration::from_millis(50);

/// Bounded capacity of the event-log channel between request threads
/// and the logger thread. A full channel drops the event (counted in
/// `serve.events_dropped`) instead of stalling dispatch on a slow
/// disk.
const EVENT_LOG_CHANNEL_CAP: usize = 1024;

/// Serving knobs parsed from the command line (defaults in
/// [`crate::args`]).
pub struct ServeSettings {
    /// `--listen`: a unix socket path (contains `/`) or `host:port`;
    /// `None` serves stdin.
    pub listen: Option<String>,
    /// `--queue`: admission queue capacity before typed shedding.
    pub queue: usize,
    /// `--io-timeout-ms`: per-connection read/write timeout.
    pub io_timeout_ms: u64,
    /// `--checkpoint-ms`: warm-state checkpoint interval (0 disables;
    /// needs `--cache-dir` to have any effect).
    pub checkpoint_ms: u64,
    /// `--serve-faults`: seeded serve-layer fault drill spec.
    pub serve_faults: Option<String>,
    /// `--event-log`: stream one JSON object per request lifecycle
    /// transition to this path (`None` disables).
    pub event_log: Option<String>,
}

/// One parsed request line.
struct Request {
    /// Caller correlation id, echoed back verbatim.
    id: Value,
    /// Per-request Chrome-trace export path.
    trace_out: Option<String>,
    /// Per-request latency budget; lapse answers `DeadlineExceeded`.
    deadline_ms: Option<u64>,
    op: Op,
}

enum Op {
    Custom {
        model: Model,
        policy: Option<RobustnessPolicy>,
    },
    Assign {
        model: Model,
    },
    WhatIf {
        model: Model,
        constraints: Constraints,
    },
    /// In-band introspection: answered at admission, never queued, so
    /// a stats probe is served concurrently with in-flight batches.
    Stats,
}

fn op_label(op: &Op) -> &'static str {
    match op {
        Op::Custom { .. } => "custom",
        Op::Assign { .. } => "assign",
        Op::WhatIf { .. } => "what_if",
        Op::Stats => "stats",
    }
}

/// One admitted request waiting for (or in) evaluation.
struct Job {
    request: Request,
    /// The serve-assigned monotonic trace id, echoed back as
    /// `trace_id` in the response and stamped on every lifecycle
    /// event.
    trace: u64,
    /// Where the response line goes (stdout writer or the
    /// connection's writer thread).
    reply: mpsc::Sender<String>,
    /// Admission time, for the queue-wait and latency digests.
    enqueued: Instant,
    /// Absolute deadline derived from `deadline_ms` at admission.
    deadline: Option<Instant>,
}

/// The event-log writer: a bounded sender into the dedicated logger
/// thread, plus the thread's handle so shutdown can flush-join it.
struct EventLog {
    tx: mpsc::SyncSender<String>,
    logger: std::thread::JoinHandle<()>,
}

/// Everything the front ends and the dispatcher share.
struct ServerState {
    resident: Arc<ResidentEngine>,
    queue: Mutex<VecDeque<Job>>,
    wakeup: Condvar,
    capacity: usize,
    io_timeout: Duration,
    /// stdin closed (stdin mode only); socket mode drains on signal.
    eof: AtomicBool,
    conn_seq: AtomicU64,
    batch_seq: AtomicU64,
    /// The serve-layer fault drill; never attached to the engine.
    faults: Option<FaultPlan>,
    /// The serve epoch every lifecycle timestamp is measured from.
    epoch: Instant,
    /// Requests currently inside engine evaluation (live gauge for
    /// `stats`; the `serve.in_flight` digest records each batch's
    /// size).
    inflight: AtomicU64,
    /// The `--event-log` writer; `None` when disabled, and taken (to
    /// close the channel and join the logger) on shutdown.
    event_log: Mutex<Option<EventLog>>,
    /// Where flight-recorder dumps land: `<cache-dir>/flight-<pid>.json`
    /// (the temp dir when no cache dir is configured).
    flight_path: PathBuf,
    /// One model per [`zoo::TABLE`] entry, built on its first request
    /// and cloned after that: clones share one instance id, so the
    /// engine interns each zoo model once, not once per request.
    zoo_models: Box<[OnceLock<Model>]>,
}

impl ServerState {
    fn telemetry(&self) -> &claire_core::Telemetry {
        self.resident.engine().telemetry()
    }

    /// Microseconds since the serve epoch — the injected clock every
    /// core-side observer call uses.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records one lifecycle transition: streamed to the event log
    /// when armed (dropped — and counted — when the bounded channel is
    /// full, so a slow disk never stalls dispatch), then retained in
    /// the in-memory flight ring and folded into the window rates.
    fn emit(&self, event: LifecycleEvent) {
        if let Some(log) = lock(&self.event_log).as_ref() {
            let line = to_line(&event.to_value());
            if log.tx.try_send(line).is_err() {
                self.telemetry().count(Metric::ServeEventsDropped);
            }
        }
        self.resident.observer().observe(event);
    }

    /// A lifecycle event at the current serve time with no optional
    /// fields; callers fill `batch`/`queue_wait_us`/`outcome`.
    fn lifecycle(
        &self,
        stage: LifecycleStage,
        trace: u64,
        id: &Value,
        op: &'static str,
    ) -> LifecycleEvent {
        LifecycleEvent {
            t_us: self.now_us(),
            stage,
            trace,
            id: id.clone(),
            op,
            batch: None,
            queue_wait_us: None,
            outcome: None,
        }
    }

    /// Atomically dumps the flight ring (tmp + rename, like
    /// snapshots): the post-mortem trail the panic hook, the drain
    /// path, the fault-containment site and every checkpoint leave
    /// behind. Failures are swallowed — the recorder must never take
    /// the server down with it.
    fn dump_flight(&self, reason: &str) {
        let (events, total, evicted) = self.resident.observer().flight_events();
        let value = serde_json::json!({
            "pid": u64::from(std::process::id()),
            "reason": reason,
            "uptime_us": self.now_us(),
            "checkpoint_generation": self.resident.checkpoint_generation(),
            "captured": events.len() as u64,
            "total_events": total,
            "evicted": evicted,
            "events": Value::Array(events),
        });
        let rendered = serde_json::to_string_pretty(&value).unwrap_or_else(|_| "null".into());
        if write_atomic(&self.flight_path, rendered.as_bytes()).is_ok() {
            self.telemetry().count(Metric::ServeFlightDumps);
        }
    }

    /// Writes `--metrics-json` atomically (tmp + rename) if armed —
    /// called on the clean exits and on every crash-containment path,
    /// so a dead serve still leaves final metrics next to its flight
    /// dump.
    fn export_metrics_atomic(&self) {
        let Some(path) = &self.resident.options().telemetry.metrics_out else {
            return;
        };
        let rendered = serde_json::to_string_pretty(&self.resident.engine().metrics_value())
            .unwrap_or_else(|_| "null".into());
        if let Err(e) = write_atomic(path, rendered.as_bytes()) {
            eprintln!("warning: failed to write metrics {}: {e}", path.display());
        }
    }
}

/// Writes `bytes` to `path` via a process-unique temp file and an
/// atomic rename, so readers (and a concurrent panic hook) only ever
/// see complete files.
fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), seq));
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Spawns the dedicated event-log writer thread behind a bounded
/// channel; each line is flushed as it lands so an abrupt death loses
/// at most the lines still queued in the channel.
fn spawn_event_logger(path: &str) -> Result<EventLog, String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("cannot create event log {path}: {e}"))?;
    let (tx, rx) = mpsc::sync_channel::<String>(EVENT_LOG_CHANNEL_CAP);
    let logger = std::thread::spawn(move || {
        let mut out = std::io::BufWriter::new(file);
        for line in rx {
            if writeln!(out, "{line}").is_err() || out.flush().is_err() {
                break;
            }
        }
        let _ = out.flush();
    });
    Ok(EventLog { tx, logger })
}

/// Poison-tolerant lock: a panicking holder must not wedge serving.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

mod signals {
    //! SIGINT/SIGTERM latch. The CLI binary links libc through std, so
    //! the two-line handler is registered with the C `signal` entry
    //! point directly — no new dependency, and the handler only stores
    //! an atomic flag (async-signal-safe).
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    /// Whether a drain-and-save shutdown was requested.
    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the latch for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        #[cfg(unix)]
        unsafe {
            let handler = on_signal as extern "C" fn(i32) as usize;
            signal(2, handler);
            signal(15, handler);
        }
    }
}

/// Runs the resident server until stdin closes (stdin mode) or a
/// SIGINT/SIGTERM drain (either mode). Returns the process exit code
/// (0 — per-request failures are answered, not fatal).
pub fn run(opts: ClaireOptions, settings: &ServeSettings) -> i32 {
    let faults = match settings.serve_faults.as_deref().map(parse_serve_faults) {
        None => None,
        Some(Ok(plan)) => Some(plan),
        Some(Err(msg)) => {
            eprintln!("error: {msg}");
            return 2;
        }
    };

    let event_log = match settings.event_log.as_deref().map(spawn_event_logger) {
        None => None,
        Some(Ok(log)) => Some(log),
        Some(Err(msg)) => {
            eprintln!("error: {msg}");
            return 2;
        }
    };

    let resident = Arc::new(ResidentEngine::new(opts, zoo::training_set()));
    match resident.load_warm_state() {
        Ok(true) => eprintln!("info: warm state loaded"),
        Ok(false) => {}
        Err(e) => eprintln!("warning: {e}; starting cold"),
    }
    signals::install();

    let flight_dir = resident
        .options()
        .cache_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir);
    let flight_path = flight_dir.join(format!("flight-{}.json", std::process::id()));

    let state = Arc::new(ServerState {
        resident: Arc::clone(&resident),
        queue: Mutex::new(VecDeque::new()),
        wakeup: Condvar::new(),
        capacity: settings.queue.max(1),
        io_timeout: Duration::from_millis(settings.io_timeout_ms.max(1)),
        eof: AtomicBool::new(false),
        conn_seq: AtomicU64::new(0),
        batch_seq: AtomicU64::new(0),
        faults,
        epoch: Instant::now(),
        inflight: AtomicU64::new(0),
        event_log: Mutex::new(event_log),
        flight_path,
        zoo_models: zoo::TABLE.iter().map(|_| OnceLock::new()).collect(),
    });

    // The panic hook is the flight recorder's last line: any panic —
    // injected drill or real bug, contained or fatal — atomically
    // dumps the ring and the final metrics before unwinding proceeds.
    {
        let state = Arc::clone(&state);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            state.dump_flight("panic");
            state.export_metrics_atomic();
            previous(info);
        }));
    }

    let stdout_flusher = match &settings.listen {
        Some(addr) => {
            if let Err(msg) = spawn_listener(addr, &state) {
                eprintln!("error: {msg}");
                return 2;
            }
            None
        }
        None => Some(spawn_stdin_frontend(&state)),
    };

    dispatch(&resident, &state, settings);

    if signals::requested() {
        eprintln!("info: shutdown signal received; queue drained, saving warm state");
    }
    // Final save goes through the generation counter too, but skips
    // the fault drill: the shutdown save is the durability anchor the
    // periodic-checkpoint drill is measured against.
    match resident.checkpoint() {
        Ok(Some(generation)) => {
            state.telemetry().count(Metric::ServeCheckpoints);
            eprintln!("info: warm state saved (checkpoint generation {generation})");
        }
        Ok(None) => {}
        Err(e) => eprintln!("warning: failed to save warm state: {e}"),
    }
    state.dump_flight(if signals::requested() {
        "signal_drain"
    } else {
        "eof_drain"
    });
    export_shutdown_telemetry(&state);

    // Close the event-log channel and join the logger so every
    // delivered event is flushed to disk before the process exits.
    if let Some(log) = lock(&state.event_log).take() {
        drop(log.tx);
        let _ = log.logger.join();
    }

    match stdout_flusher {
        // stdin mode after EOF: every sender is gone once the queue is
        // drained, so joining guarantees all responses are flushed.
        Some(flusher) if !signals::requested() => {
            let _ = flusher.join();
        }
        // Signal path (and socket mode): connection readers may still
        // hold reply senders while blocked on their sockets, so a join
        // could hang; a short grace period lets writers flush instead.
        _ => std::thread::sleep(Duration::from_millis(250)),
    }
    0
}

/// Parses `--serve-faults SEED[:SPEC]`: bare `SEED` arms every serve
/// fault class at rate 0.1; `SEED:RATE` arms them all at `RATE`;
/// `SEED:class=rate,...` arms the named classes only (labels as in
/// `fault.*` metrics, e.g. `dropped_connection=1.0`).
fn parse_serve_faults(spec: &str) -> Result<FaultPlan, String> {
    let (seed, rest) = match spec.split_once(':') {
        Some((s, r)) => (s, Some(r)),
        None => (spec, None),
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("bad --serve-faults seed `{seed}`"))?;
    let mut plan = FaultPlan::new(seed);
    match rest {
        None => {
            for class in FaultClass::SERVE {
                plan = plan.with(class, 0.1);
            }
        }
        Some(spec) if spec.contains('=') => {
            for part in spec.split(',') {
                let (label, rate) = part.split_once('=').ok_or_else(|| {
                    format!("bad --serve-faults entry `{part}` (want class=rate)")
                })?;
                let class = FaultClass::from_label(label)
                    .filter(|c| FaultClass::SERVE.contains(c))
                    .ok_or_else(|| format!("unknown serve fault class `{label}`"))?;
                let rate: f64 = rate
                    .parse()
                    .map_err(|_| format!("bad --serve-faults rate `{rate}`"))?;
                plan = plan.with(class, rate);
            }
        }
        Some(rate) => {
            let rate: f64 = rate
                .parse()
                .map_err(|_| format!("bad --serve-faults rate `{rate}`"))?;
            for class in FaultClass::SERVE {
                plan = plan.with(class, rate);
            }
        }
    }
    Ok(plan)
}

// ---------------------------------------------------------------- //
// Front ends: stdin and socket listeners feeding the admission queue.
// ---------------------------------------------------------------- //

/// Stdin front end: a reader thread admitting lines and a stdout
/// writer thread draining response lines. Returns the writer handle so
/// the EOF path can join it before exiting.
fn spawn_stdin_frontend(state: &Arc<ServerState>) -> std::thread::JoinHandle<()> {
    let (tx, rx) = mpsc::channel::<String>();
    let flusher = std::thread::spawn(move || {
        // Locked per answer, never while waiting for the next one, so
        // no other stdout write or flush in the process can block on it.
        for line in rx {
            let mut out = std::io::stdout().lock();
            if writeln!(out, "{line}").is_err() || out.flush().is_err() {
                break;
            }
        }
    });
    let state = Arc::clone(state);
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                admit(&state, trimmed, &tx);
            }
            if signals::requested() {
                break;
            }
        }
        state.eof.store(true, Ordering::SeqCst);
        state.wakeup.notify_all();
    });
    flusher
}

/// Minimal common surface of [`UnixStream`] and [`TcpStream`] the
/// connection handler needs.
trait Conn: Read + Write + Send + Sized + 'static {
    fn try_clone_conn(&self) -> std::io::Result<Self>;
    fn set_io_timeouts(&self, timeout: Duration) -> std::io::Result<()>;
    fn shutdown_both(&self);
}

impl Conn for UnixStream {
    fn try_clone_conn(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_io_timeouts(&self, timeout: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(timeout))?;
        self.set_write_timeout(Some(timeout))
    }
    fn shutdown_both(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

impl Conn for TcpStream {
    fn try_clone_conn(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_io_timeouts(&self, timeout: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(timeout))?;
        self.set_write_timeout(Some(timeout))
    }
    fn shutdown_both(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

/// Binds the `--listen` address (unix socket path when it contains a
/// `/`, else `host:port`) and spawns the accept loop. The bound
/// address is announced on stderr — with `:0` that is how callers
/// learn the chosen port.
fn spawn_listener(addr: &str, state: &Arc<ServerState>) -> Result<(), String> {
    if addr.contains('/') {
        // A stale socket file from a crashed predecessor would make
        // bind fail; serving takes over the path.
        let _ = std::fs::remove_file(addr);
        let listener =
            UnixListener::bind(addr).map_err(|e| format!("cannot bind unix socket {addr}: {e}"))?;
        eprintln!("info: listening on unix socket {addr}");
        let state = Arc::clone(state);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let state = Arc::clone(&state);
                std::thread::spawn(move || handle_connection(stream, &state));
            }
        });
    } else {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        match listener.local_addr() {
            Ok(local) => eprintln!("info: listening on {local}"),
            Err(_) => eprintln!("info: listening on {addr}"),
        }
        let state = Arc::clone(state);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let state = Arc::clone(&state);
                std::thread::spawn(move || handle_connection(stream, &state));
            }
        });
    }
    Ok(())
}

/// One socket connection: a writer thread draining response lines and
/// this thread reading request lines under the io timeout. The seeded
/// fault drill may turn the connection into a slow-loris (typed
/// timeout answer, closed) or drop it abruptly after its first
/// request (client sees EOF; the late answer lands on a dead socket).
fn handle_connection<S: Conn>(stream: S, state: &Arc<ServerState>) {
    let conn_id = state.conn_seq.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_io_timeouts(state.io_timeout);
    let Ok(mut write_half) = stream.try_clone_conn() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        // One write per answer: the line and its newline together.
        for mut line in rx {
            line.push('\n');
            if write_half.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
    });

    if let Some(plan) = &state.faults {
        if plan.slow_loris(conn_id) {
            // Drill: pretend the client stalled mid-line. Same typed
            // answer and close a real slow-loris earns below.
            state
                .telemetry()
                .count(Metric::for_fault(FaultClass::SlowLorisClient));
            let _ = tx.send(plain_error_line(
                2,
                "read timed out waiting for a complete request line; closing connection",
            ));
            return;
        }
    }
    let drop_after_first = state.faults.as_ref().is_some_and(|plan| {
        let drop = plan.drops_connection(conn_id);
        if drop {
            state
                .telemetry()
                .count(Metric::for_fault(FaultClass::DroppedConnection));
        }
        drop
    });

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if signals::requested() {
            break;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                if drop_after_first {
                    // Close both halves before the request can be
                    // answered: the client deterministically sees EOF
                    // (finite), while the work itself still runs and
                    // its late answer lands on the dead socket.
                    reader.get_ref().shutdown_both();
                    admit(state, trimmed, &tx);
                    return;
                }
                admit(state, trimmed, &tx);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let _ = tx.send(plain_error_line(
                    2,
                    "read timed out waiting for a complete request line; closing connection",
                ));
                break;
            }
            Err(_) => break,
        }
    }
}

/// Parses one line and either enqueues it or answers immediately:
/// malformed input gets a typed code-2 error, a full queue sheds the
/// request with [`ClaireError::Overloaded`], and a `stats` probe is
/// answered in-band right here — it never queues, so introspection is
/// concurrent with whatever the dispatcher is evaluating.
///
/// Every line — well-formed or not — is assigned the next monotonic
/// trace id, opens its lifecycle with a `received` event, and carries
/// the id back as `trace_id` on the response.
fn admit(state: &ServerState, line: &str, reply: &mpsc::Sender<String>) {
    let trace = state.resident.observer().next_trace();
    state.telemetry().count(Metric::ServeRequests);
    let request = match parse_request(line, &state.zoo_models) {
        Ok(r) => r,
        Err(msg) => {
            state.emit(state.lifecycle(LifecycleStage::Received, trace, &Value::Null, "invalid"));
            let mut errored =
                state.lifecycle(LifecycleStage::Errored, trace, &Value::Null, "invalid");
            errored.outcome = Some(2);
            state.emit(errored);
            state.telemetry().count(Metric::ServeAnswered);
            let _ = reply.send(plain_error_line_traced(2, &msg, trace));
            return;
        }
    };
    let op = op_label(&request.op);
    state.emit(state.lifecycle(LifecycleStage::Received, trace, &request.id, op));

    if matches!(request.op, Op::Stats) {
        let value = stats_response(state, &request, trace);
        let mut answered = state.lifecycle(LifecycleStage::Answered, trace, &request.id, op);
        answered.outcome = Some(0);
        state.emit(answered);
        state.telemetry().count(Metric::ServeAnswered);
        let _ = reply.send(to_line(&value));
        return;
    }

    let mut queue = lock(&state.queue);
    if queue.len() >= state.capacity {
        let shed = ClaireError::Overloaded {
            queued: queue.len(),
            capacity: state.capacity,
        };
        drop(queue);
        state.telemetry().count(Metric::ServeShed);
        let mut event = state.lifecycle(LifecycleStage::Shed, trace, &request.id, op);
        event.outcome = Some(13);
        state.emit(event);
        state.telemetry().count(Metric::ServeAnswered);
        let mut value = error_value(op, &shed);
        if let Value::Object(fields) = &mut value {
            fields.insert(0, ("id".to_string(), request.id.clone()));
            fields.insert(
                1,
                ("trace_id".to_string(), Value::Number(Number::PosInt(trace))),
            );
        }
        let _ = reply.send(to_line(&value));
        return;
    }
    let now = Instant::now();
    let deadline = request
        .deadline_ms
        .map(|ms| now + Duration::from_millis(ms));
    state.emit(state.lifecycle(LifecycleStage::Admitted, trace, &request.id, op));
    queue.push_back(Job {
        request,
        trace,
        reply: reply.clone(),
        enqueued: now,
        deadline,
    });
    state.wakeup.notify_one();
}

/// Builds the in-band `stats` answer: all counters and gauges, live
/// queue depth / in-flight, uptime, snapshot generation, the exact
/// queue-wait and end-to-end latency quantile summaries, and the
/// 1 s / 10 s / 60 s window rates — all read without pausing dispatch.
fn stats_response(state: &ServerState, request: &Request, trace: u64) -> Value {
    let telemetry = state.telemetry();
    let observer = state.resident.observer();
    let now_us = state.now_us();
    let metrics = state.resident.engine().metrics_value();
    let (requests, sheds, expiries) = observer.rates(now_us);
    let (flight_total, flight_evicted) = observer.flight_counts();
    let stats = serde_json::json!({
        "pid": u64::from(std::process::id()),
        "uptime_us": now_us,
        "queue_depth": lock(&state.queue).len() as u64,
        "in_flight": state.inflight.load(Ordering::Relaxed),
        "snapshot_generation": state.resident.checkpoint_generation(),
        "counters": metrics["counters"].clone(),
        "gauges": metrics["gauges"].clone(),
        "quantiles": serde_json::json!({
            "queue_wait_us": telemetry.distribution(Distribution::QueueWaitUs).to_value(),
            "latency_us": telemetry.distribution(Distribution::LatencyUs).to_value(),
        }),
        "rates": serde_json::json!({
            "requests": requests.to_value(),
            "sheds": sheds.to_value(),
            "deadline_expiries": expiries.to_value(),
        }),
        "event_log": serde_json::json!({
            "enabled": lock(&state.event_log).is_some(),
            "dropped": telemetry.counter(Metric::ServeEventsDropped),
        }),
        "flight": serde_json::json!({
            "path": state.flight_path.display().to_string(),
            "total_events": flight_total,
            "evicted": flight_evicted,
        }),
    });
    serde_json::json!({
        "id": request.id.clone(),
        "trace_id": Value::Number(Number::PosInt(trace)),
        "op": "stats",
        "ok": true,
        "stats": stats,
    })
}

// ---------------------------------------------------------------- //
// The dispatcher: batches, evaluates, checkpoints, survives panics.
// ---------------------------------------------------------------- //

/// The dispatcher loop: drains the admission queue into batches,
/// triages lapsed deadlines, evaluates the rest (containing even a
/// mid-batch panic), and drives periodic warm-state checkpoints. Exits
/// once shutdown was requested (signal, or stdin EOF) and the queue is
/// drained.
fn dispatch(resident: &ResidentEngine, state: &ServerState, settings: &ServeSettings) {
    let telemetry = resident.engine().telemetry();
    let checkpoint_every =
        (settings.checkpoint_ms > 0).then(|| Duration::from_millis(settings.checkpoint_ms));
    let mut last_checkpoint = Instant::now();

    loop {
        let jobs = next_batch(state);
        if jobs.is_empty() {
            if signals::requested() || state.eof.load(Ordering::SeqCst) {
                break;
            }
            maybe_checkpoint(resident, state, checkpoint_every, &mut last_checkpoint);
            continue;
        }
        telemetry.record(Distribution::InFlight, jobs.len() as u64);
        for job in &jobs {
            let waited_us = job.enqueued.elapsed().as_micros() as u64;
            telemetry.record(Distribution::QueueWaitUs, waited_us);
        }

        // Requests whose deadline lapsed while queued are answered
        // without ever touching the engine.
        let now = Instant::now();
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.deadline.is_some_and(|d| now >= d) {
                let mut event = state.lifecycle(
                    LifecycleStage::Dispatched,
                    job.trace,
                    &job.request.id,
                    op_label(&job.request.op),
                );
                event.queue_wait_us = Some(job.enqueued.elapsed().as_micros() as u64);
                state.emit(event);
                let lapsed = ClaireError::DeadlineExceeded {
                    deadline_ms: job.request.deadline_ms.unwrap_or(0),
                    stage: "queued",
                };
                deliver(
                    state,
                    &job,
                    None,
                    error_value(op_label(&job.request.op), &lapsed),
                );
            } else {
                live.push(job);
            }
        }

        if !live.is_empty() {
            let batch_id = state.batch_seq.fetch_add(1, Ordering::Relaxed);
            for job in &live {
                let mut event = state.lifecycle(
                    LifecycleStage::Dispatched,
                    job.trace,
                    &job.request.id,
                    op_label(&job.request.op),
                );
                event.batch = Some(batch_id);
                event.queue_wait_us = Some(job.enqueued.elapsed().as_micros() as u64);
                state.emit(event);
                let mut event = state.lifecycle(
                    LifecycleStage::Evaluating,
                    job.trace,
                    &job.request.id,
                    op_label(&job.request.op),
                );
                event.batch = Some(batch_id);
                state.emit(event);
            }
            state.inflight.store(live.len() as u64, Ordering::Relaxed);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(plan) = &state.faults {
                    if plan.panics_batch(batch_id) {
                        telemetry.count(Metric::for_fault(FaultClass::MidBatchPanic));
                        panic!("injected mid-batch dispatcher panic (serve fault drill)");
                    }
                }
                serve_jobs(resident, &live)
            }));
            state.inflight.store(0, Ordering::Relaxed);
            match outcome {
                Ok(responses) => {
                    for (job, value) in live.iter().zip(responses) {
                        deliver(state, job, Some(batch_id), value);
                    }
                }
                // The batch died mid-evaluation; every member gets a
                // typed answer and the server keeps serving — the memo
                // tiers only ever hold completed exact values. The
                // flight recorder and final metrics are dumped at the
                // containment site (on top of the panic hook's dump)
                // so the post-mortem includes the answers below.
                Err(_) => {
                    for job in &live {
                        let panicked = ClaireError::WorkerPanic {
                            index: 0,
                            message: "serve batch panicked mid-evaluation; request answered, \
                                      server still running"
                                .into(),
                        };
                        deliver(
                            state,
                            job,
                            Some(batch_id),
                            error_value(op_label(&job.request.op), &panicked),
                        );
                    }
                    state.dump_flight("batch_panic_contained");
                    state.export_metrics_atomic();
                }
            }
        }
        maybe_checkpoint(resident, state, checkpoint_every, &mut last_checkpoint);
    }
}

/// Waits up to [`DISPATCH_TICK`] for work, then drains the whole queue
/// as one batch.
fn next_batch(state: &ServerState) -> Vec<Job> {
    let mut queue = lock(&state.queue);
    if queue.is_empty() {
        let (guard, _) = state
            .wakeup
            .wait_timeout(queue, DISPATCH_TICK)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        queue = guard;
    }
    queue.drain(..).collect()
}

/// Runs one periodic checkpoint when the interval lapsed. The fault
/// drill may simulate a write failure — counted, logged, and harmless:
/// the previous snapshot generation on disk stays valid.
fn maybe_checkpoint(
    resident: &ResidentEngine,
    state: &ServerState,
    every: Option<Duration>,
    last: &mut Instant,
) {
    let Some(every) = every else { return };
    if last.elapsed() < every {
        return;
    }
    *last = Instant::now();
    if let Some(plan) = &state.faults {
        if plan.fails_checkpoint(resident.checkpoint_generation() + 1) {
            state
                .telemetry()
                .count(Metric::for_fault(FaultClass::CheckpointWriteFailure));
            eprintln!("warning: checkpoint write failed (injected); serving continues");
            return;
        }
    }
    match resident.checkpoint() {
        Ok(Some(generation)) => {
            state.telemetry().count(Metric::ServeCheckpoints);
            eprintln!("info: warm-state checkpoint generation {generation} written");
        }
        Ok(None) => {}
        Err(e) => eprintln!("warning: checkpoint failed: {e}; serving continues"),
    }
    // Refresh the flight dump alongside the checkpoint: after a
    // kill -9 the loss is bounded by this dump plus the snapshot —
    // at most one checkpoint interval of trail.
    state.dump_flight("checkpoint");
}

/// Serves one batch of admitted jobs, returning responses in job
/// order. Custom requests across the batch share one flat evaluation
/// table (with per-request deadlines); assignment requests share one
/// test table.
fn serve_jobs(resident: &ResidentEngine, jobs: &[Job]) -> Vec<Value> {
    let mut responses: Vec<Option<Value>> = jobs.iter().map(|_| None).collect();

    // Batch all customs into one plan.
    let custom_idx: Vec<usize> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| matches!(j.request.op, Op::Custom { .. }))
        .map(|(i, _)| i)
        .collect();
    if !custom_idx.is_empty() {
        let requests: Vec<CustomRequest> = custom_idx
            .iter()
            .map(|&i| match &jobs[i].request.op {
                Op::Custom { model, policy } => CustomRequest {
                    model: model.clone(),
                    policy: *policy,
                    constraints: None,
                    deadline: jobs[i].deadline,
                    deadline_ms: jobs[i].request.deadline_ms,
                },
                _ => unreachable!("custom_idx filters Op::Custom"),
            })
            .collect();
        for (&i, result) in custom_idx.iter().zip(resident.custom_batch(&requests)) {
            responses[i] = Some(match result {
                Ok(custom) => {
                    let degradation = custom.degradation.as_ref().map(ToString::to_string);
                    serde_json::json!({
                        "op": "custom",
                        "ok": true,
                        "result": CustomSummary::from(&custom),
                        "degradation": degradation,
                    })
                }
                Err(e) => error_value("custom", &e),
            });
        }
    }

    // Batch all assignments into one test table.
    let assign_idx: Vec<usize> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| matches!(j.request.op, Op::Assign { .. }))
        .map(|(i, _)| i)
        .collect();
    if !assign_idx.is_empty() {
        let models: Vec<Model> = assign_idx
            .iter()
            .map(|&i| match &jobs[i].request.op {
                Op::Assign { model } => model.clone(),
                _ => unreachable!("assign_idx filters Op::Assign"),
            })
            .collect();
        match resident.assign_batch(&models) {
            Ok(reports) => {
                for (&i, report) in assign_idx.iter().zip(&reports) {
                    responses[i] = Some(assign_value(resident, report));
                }
            }
            // A whole-batch failure (e.g. one uncoverable model)
            // isolates to per-model retries so the others still get
            // answers.
            Err(_) => {
                for (&i, model) in assign_idx.iter().zip(&models) {
                    responses[i] = Some(match resident.assign(model) {
                        Ok(report) => assign_value(resident, &report),
                        Err(e) => error_value("assign", &e),
                    });
                }
            }
        }
    }

    // What-if probes, individually.
    for (i, job) in jobs.iter().enumerate() {
        if responses[i].is_some() {
            continue;
        }
        responses[i] = Some(match &job.request.op {
            Op::WhatIf { model, constraints } => match resident.what_if(model, *constraints) {
                Ok(report) => serde_json::json!({
                    "op": "what_if",
                    "ok": true,
                    "feasible": report.feasible,
                    "result": report.result.as_ref().map(CustomSummary::from),
                    "infeasibility": report.infeasibility.as_ref().map(ToString::to_string),
                }),
                Err(e) => error_value("what_if", &e),
            },
            // Stats probes are answered at admission and never queue.
            _ => unreachable!("custom/assign answered above; stats never queues"),
        });
    }

    responses
        .into_iter()
        .map(|r| r.unwrap_or(Value::Null))
        .collect()
}

/// Finalizes one response — echoes the id and the serve-assigned
/// `trace_id`, honors the per-request trace export, mirrors deadline
/// answers into the `serve.deadline_expired` counter, records the
/// end-to-end latency in the `serve.latency_us` digest, and closes
/// the request's lifecycle with an `answered`/`errored` event — then
/// sends it to the job's writer.
fn deliver(state: &ServerState, job: &Job, batch: Option<u64>, mut value: Value) {
    let resident = &state.resident;
    if let Value::Object(fields) = &mut value {
        fields.insert(0, ("id".to_string(), job.request.id.clone()));
        fields.insert(
            1,
            (
                "trace_id".to_string(),
                Value::Number(Number::PosInt(job.trace)),
            ),
        );
        if let Some(path) = &job.request.trace_out {
            let note = export_trace(resident, path);
            fields.push(("trace".to_string(), note));
        }
    }
    let error_code = value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_u64);
    let telemetry = state.telemetry();
    if error_code == Some(14) {
        telemetry.count(Metric::ServeDeadlineExpired);
    }
    telemetry.record(
        Distribution::LatencyUs,
        job.enqueued.elapsed().as_micros() as u64,
    );
    let stage = match error_code {
        None => LifecycleStage::Answered,
        Some(_) => LifecycleStage::Errored,
    };
    let mut event = state.lifecycle(stage, job.trace, &job.request.id, op_label(&job.request.op));
    event.batch = batch;
    event.outcome = Some(error_code.unwrap_or(0) as i64);
    state.emit(event);
    telemetry.count(Metric::ServeAnswered);
    let _ = job.reply.send(to_line(&value));
}

/// Serializes one response line.
fn to_line(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_else(|_| "null".into())
}

/// A bare (no-id) typed error line for input that never became a
/// request: malformed JSON, or a connection-level timeout.
fn plain_error_line(code: i64, detail: &str) -> String {
    to_line(&serde_json::json!({
        "ok": false,
        "error": serde_json::json!({ "code": code, "detail": detail }),
    }))
}

/// A typed error line for a received line that failed to parse: it
/// did enter the lifecycle, so the serve-assigned trace id is echoed.
fn plain_error_line_traced(code: i64, detail: &str, trace: u64) -> String {
    to_line(&serde_json::json!({
        "trace_id": Value::Number(Number::PosInt(trace)),
        "ok": false,
        "error": serde_json::json!({ "code": code, "detail": detail }),
    }))
}

/// Writes the session's trace/metrics exports (the `--trace-out` and
/// `--metrics-json` paths) on the way out, so `serve.*` counters and
/// digests survive the process. Metrics go
/// through the atomic writer — the same one the crash paths use.
fn export_shutdown_telemetry(state: &ServerState) {
    let resident = &state.resident;
    if let Some(path) = &resident.options().telemetry.trace_out {
        if let Err(e) = resident.engine().write_trace(path) {
            eprintln!("warning: failed to write trace {}: {e}", path.display());
        }
    }
    state.export_metrics_atomic();
}

/// Writes the engine's trace so far to `path` (the trace spans the
/// resident engine's whole life, not just this request), returning a
/// note for the response.
fn export_trace(resident: &ResidentEngine, path: &str) -> Value {
    if resident.options().telemetry.trace_out.is_none() {
        return Value::String("tracing disabled (start serve with --trace-out to arm)".into());
    }
    match resident.engine().write_trace(std::path::Path::new(path)) {
        Ok(()) => Value::String(format!("written to {path}")),
        Err(e) => Value::String(format!("failed: {e}")),
    }
}

/// The success response for one assignment report.
fn assign_value(resident: &ResidentEngine, report: &claire_core::TestReport) -> Value {
    let assigned = report.assigned_library.and_then(|k| {
        resident
            .train_output()
            .ok()
            .and_then(|t| t.libraries.get(k))
            .map(|l| l.config.name.clone())
    });
    serde_json::json!({
        "op": "assign",
        "ok": true,
        "model": report.model_name,
        "assigned": assigned,
        "similarity": report.similarity,
        "coverage": report.coverage,
        "utilization_library": report.utilization_library,
        "utilization_generic": report.utilization_generic,
        "ppa": report.ppa.library,
    })
}

/// The failure response for a typed pipeline error, with the CLI
/// exit-code numbering.
fn error_value(op: &str, e: &ClaireError) -> Value {
    serde_json::json!({
        "op": op,
        "ok": false,
        "error": serde_json::json!({ "code": crate::exit_code(e), "detail": e.to_string() }),
    })
}

/// Parses one request line into a [`Request`], with a user-facing
/// message on malformed input. Zoo models come from `zoo_models` (see
/// [`ServerState::zoo_models`]).
fn parse_request(line: &str, zoo_models: &[OnceLock<Model>]) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    let obj = value.as_object().ok_or("request must be a JSON object")?;
    for (key, _) in obj {
        if !matches!(
            key.as_str(),
            "id" | "op"
                | "model"
                | "printout"
                | "name"
                | "image"
                | "seq"
                | "degrade"
                | "constraints"
                | "trace_out"
                | "deadline_ms"
        ) {
            return Err(format!("unknown request field `{key}`"));
        }
    }
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    let trace_out = value
        .get("trace_out")
        .map(|v| {
            v.as_str()
                .ok_or("trace_out must be a string")
                .map(str::to_owned)
        })
        .transpose()?;
    let deadline_ms = value
        .get("deadline_ms")
        .map(|v| {
            v.as_u64()
                .ok_or("deadline_ms must be a non-negative integer")
        })
        .transpose()?;
    let op = match value.get("op").and_then(Value::as_str) {
        Some("custom") => Op::Custom {
            model: request_model(&value, zoo_models)?,
            policy: match value.get("degrade").map(Value::as_bool) {
                None => None,
                Some(Some(true)) => Some(RobustnessPolicy::Degrade),
                Some(Some(false)) => Some(RobustnessPolicy::FailFast),
                Some(None) => return Err("degrade must be a boolean".into()),
            },
        },
        Some("assign") => Op::Assign {
            model: request_model(&value, zoo_models)?,
        },
        Some("what_if") => Op::WhatIf {
            model: request_model(&value, zoo_models)?,
            constraints: request_constraints(&value)?,
        },
        // In-band introspection needs no model — only `id` (and `op`)
        // make sense on a stats probe.
        Some("stats") => Op::Stats,
        Some(other) => return Err(format!("unknown op `{other}`")),
        None => return Err("missing `op` (custom | assign | what_if | stats)".into()),
    };
    Ok(Request {
        id,
        trace_out,
        deadline_ms,
        op,
    })
}

/// Resolves the request's model: a zoo name (`"model"`), cloned from
/// its slot of `zoo_models` (one per [`zoo::TABLE`] entry), or an
/// inline `print(model)` dump (`"printout"` with optional `"name"`,
/// `"image": [C,H,W]` or `"seq": [TOKENS,FEATURES]`), parsed afresh.
fn request_model(value: &Value, zoo_models: &[OnceLock<Model>]) -> Result<Model, String> {
    match (value.get("model"), value.get("printout")) {
        (Some(_), Some(_)) => Err("`model` and `printout` are mutually exclusive".into()),
        (Some(name), None) => {
            let name = name.as_str().ok_or("model must be a string")?;
            zoo::TABLE
                .iter()
                .zip(zoo_models)
                .find(|((key, _), _)| *key == name)
                .map(|((_, make), slot)| slot.get_or_init(make).clone())
                .ok_or_else(|| {
                    format!("unknown model `{name}` (see `claire-cli models --extended`)")
                })
        }
        (None, Some(text)) => {
            let text = text.as_str().ok_or("printout must be a string")?;
            let name = match value.get("name") {
                Some(n) => n.as_str().ok_or("name must be a string")?,
                None => "parsed",
            };
            let (input, class) = match (dims(value, "image", 3)?, dims(value, "seq", 2)?) {
                (Some(_), Some(_)) => return Err("image and seq are mutually exclusive".into()),
                (_, Some(s)) => (
                    InputShape::Sequence {
                        tokens: s[0],
                        features: s[1],
                    },
                    ModelClass::Transformer,
                ),
                (Some(i), None) => (
                    InputShape::Image {
                        channels: i[0],
                        height: i[1],
                        width: i[2],
                    },
                    ModelClass::Cnn,
                ),
                (None, None) => (
                    InputShape::Image {
                        channels: 3,
                        height: 224,
                        width: 224,
                    },
                    ModelClass::Cnn,
                ),
            };
            parse_model(name, text, ParseOptions { input, class }).map_err(|e| e.to_string())
        }
        (None, None) => Err("missing `model` or `printout`".into()),
    }
}

/// Reads an optional `[u32; n]` shape field.
fn dims(value: &Value, key: &str, n: usize) -> Result<Option<Vec<u32>>, String> {
    let Some(v) = value.get(key) else {
        return Ok(None);
    };
    let arr = v
        .as_array()
        .ok_or_else(|| format!("{key} must be an array of {n} integers"))?;
    if arr.len() != n {
        return Err(format!("{key} must have exactly {n} elements"));
    }
    arr.iter()
        .map(|e| {
            e.as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| format!("{key} elements must be u32 integers"))
        })
        .collect::<Result<Vec<u32>, String>>()
        .map(Some)
}

/// Builds the what-if constraints: the resident defaults overridden
/// by any fields present in the request's `constraints` object.
fn request_constraints(value: &Value) -> Result<Constraints, String> {
    let Some(c) = value.get("constraints") else {
        return Err("what_if requires a `constraints` object".into());
    };
    let fields = c.as_object().ok_or("constraints must be an object")?;
    let mut out = Constraints::default();
    for (key, v) in fields {
        let num = v
            .as_f64()
            .ok_or_else(|| format!("constraint `{key}` must be a number"))?;
        match key.as_str() {
            "chiplet_area_limit_mm2" => out.chiplet_area_limit_mm2 = num,
            "power_density_limit_w_per_mm2" => out.power_density_limit_w_per_mm2 = num,
            "latency_slack" => out.latency_slack = num,
            other => return Err(format!("unknown constraint `{other}`")),
        }
    }
    Ok(out)
}
