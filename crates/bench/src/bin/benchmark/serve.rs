//! `serve-mixed`: a resident `claire-cli serve --listen <unix socket>`
//! driven over one connection by this process, with at most two
//! threads. The timed window has two halves:
//!
//! * an open loop, requests sent at the arrival times of a seeded
//!   Poisson process at [`OPEN_RATE`], each timed from when it was due;
//! * a closed loop sending a fixed list of requests with
//!   [`CAPACITY_WINDOW`] outstanding, which measures the highest rate
//!   the server sustains.

use crate::host::{report_timings, Reference, Timed};
use crate::inputs::{Request, ServePlan, CAPACITY_WINDOW, OPEN_RATE, PRINTOUTS, SERVE_MODELS};
use crate::oneshot::run_cli;
use crate::oracle::Verdict;
use crate::report::{number, Report};
use crate::stats::{digest, percentile, sorted, tail_percentile};
use crate::{sys, Ctx};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the client waits for any one answer before counting the
/// outstanding requests as failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the server may take to open its socket.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// Servers, each set up and then timed on its share of the window.
/// Each server process keeps a speed of its own for its whole life: the
/// median latencies of the servers of one run range over ±20%. The
/// median over many servers keeps one run's figures near the typical
/// process.
const SERVERS: usize = 48;

/// Reference spawns taken on each side of a server's timed share.
const SPAWNS_PER_SIDE: usize = 20;

/// Request ids of the warm-up pass, the closed loop and stats probes
/// start here; open-loop ids are indices into the schedule.
const WARMUP_IDS: u64 = 1 << 40;
const CAPACITY_IDS: u64 = 2 << 40;
const STATS_IDS: u64 = 3 << 40;

/// A running `claire-cli serve`, killed and reaped when dropped.
pub struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Starts the server on `ctx`'s socket and waits until it accepts
    /// connections. Warm state is neither loaded nor checkpointed, and
    /// the flight recorder writes into the work directory.
    pub fn start(ctx: &Ctx, event_log: Option<&Path>) -> Result<Server, String> {
        let socket = ctx.socket_path();
        let _ = std::fs::remove_file(&socket);
        let tmp = ctx.work.join("tmp");
        std::fs::create_dir_all(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        let stderr = std::fs::File::create(ctx.work.join("serve.err"))
            .map_err(|e| format!("cannot create the server log: {e}"))?;
        let mut args: Vec<String> = ["serve", "--listen"]
            .into_iter()
            .map(str::to_owned)
            .chain([socket.display().to_string()])
            .chain(["--threads", "2", "--checkpoint-ms", "0"].map(str::to_owned))
            .collect();
        if let Some(log) = event_log {
            args.push("--event-log".into());
            args.push(log.display().to_string());
        }
        let child = Command::new(&ctx.cli)
            .args(&args)
            .env("TMPDIR", &tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let mut server = Server { child, socket };
        let deadline = Instant::now() + START_TIMEOUT;
        while UnixStream::connect(&server.socket).is_err() {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("the server exited with {status} before listening"));
            }
            if Instant::now() > deadline {
                return Err("the server did not open its socket in time".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(server)
    }

    /// Opens the one client connection.
    pub fn connect(&self) -> Result<Client, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(ANSWER_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(ANSWER_TIMEOUT)))
            .map_err(|e| format!("socket timeouts: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Stops the server, returning its peak resident set in KiB, read
    /// just before it is killed.
    pub fn stop(mut self) -> Option<u64> {
        let peak = sys::peak_rss_kb(self.child.id());
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        peak
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The client end of the one connection.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn send(writer: &mut UnixStream, line: &str) -> Result<(), String> {
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("no answer within {ANSWER_TIMEOUT:?}: {e}")),
        }
    }

    /// Sends one request and reads its answer.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        Client::send(&mut self.writer, line)?;
        self.recv()
    }

    /// The server's in-band stats.
    fn stats(&mut self, id: u64) -> Result<Value, String> {
        let answer = self.call(&serde_json::json!({"id": id, "op": "stats"}).to_string())?;
        let v: Value = serde_json::from_str(&answer).map_err(|e| format!("stats: {e}"))?;
        Ok(v["stats"].clone())
    }
}

/// An answer split into its request id and its canonical text: compact
/// JSON with the connection-specific `id` and `trace_id` removed.
pub fn canonical(line: &str) -> Result<(u64, String, Value), String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad answer JSON: {e}"))?;
    let id = v["id"]
        .as_u64()
        .ok_or_else(|| format!("answer without an id: {}", line.trim()))?;
    let mut body = v.clone();
    if let Value::Object(fields) = &mut body {
        fields.retain(|(k, _)| k != "id" && k != "trace_id");
    }
    Ok((id, body.to_string(), v))
}

/// Output checks shared by every phase: each answer succeeded, has the
/// request's op, repeats the first answer to the same request, and for
/// a zoo `custom` equals the one-shot `claire-cli custom <m> --json`.
pub struct Answers {
    references: HashMap<&'static str, Value>,
    first: HashMap<String, String>,
    /// Distinct canonical answers of the timed window.
    pub distinct: BTreeSet<String>,
}

impl Answers {
    /// Runs the one-shot reference for every zoo model of the mix.
    pub fn new(ctx: &Ctx) -> Result<Answers, String> {
        let mut references = HashMap::new();
        for model in SERVE_MODELS {
            let args = ["custom", model, "--json", "--threads", "2"].map(str::to_owned);
            let out = run_cli(&ctx.cli, &args)?.out;
            if !out.status.success() {
                return Err(format!(
                    "reference custom {model} exited with {}",
                    out.status
                ));
            }
            let v: Value = serde_json::from_slice(&out.stdout)
                .map_err(|e| format!("reference custom {model}: {e}"))?;
            references.insert(model, v);
        }
        Ok(Answers {
            references,
            first: HashMap::new(),
            distinct: BTreeSet::new(),
        })
    }

    /// Checks one answer to `request`.
    pub fn check(&mut self, request: &Request, body: &str, v: &Value) -> Result<(), String> {
        if v["ok"] != true {
            return Err(format!("{request:?}: error answer {body}"));
        }
        if v["op"] != request.op() {
            return Err(format!("{request:?}: answered as op {}", v["op"]));
        }
        if let Request::Custom(model) = request {
            if self.references.get(model) != Some(&v["result"]) {
                return Err(format!(
                    "custom {model}: differs from claire-cli custom --json"
                ));
            }
        }
        let first = self
            .first
            .entry(format!("{request:?}"))
            .or_insert_with(|| body.to_owned());
        if first != body {
            return Err(format!("{request:?}: answer changed between repeats"));
        }
        Ok(())
    }
}

/// The printout texts, read from the checkout.
pub fn printouts(ctx: &Ctx) -> Result<Vec<String>, String> {
    PRINTOUTS
        .iter()
        .map(|p| {
            std::fs::read_to_string(ctx.root.join(p)).map_err(|e| format!("cannot read {p}: {e}"))
        })
        .collect()
}

/// What the traced run needs from a measured `serve-mixed` run.
pub struct ServeRun {
    /// The seed's plan.
    pub plan: ServePlan,
    /// The printout texts.
    pub printouts: Vec<String>,
    /// Raw answer line of each open-loop request, by schedule index.
    pub answers: Vec<Option<String>>,
    /// Counter deltas over the timed window, from `{"op":"stats"}`.
    pub counters: Value,
}

/// Sends the open-loop requests `range` on their schedule, shifted to
/// start `origin` seconds into it, from a second thread while this one
/// reads the answers. Records each request's answer line and, when the
/// answer passes its checks, its latency from its due time; returns how
/// late each send was, in ms.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    client: &mut Client,
    plan: &ServePlan,
    lines: &[String],
    range: Range<usize>,
    origin: f64,
    answers: &mut Answers,
    latency: &mut [Option<f64>],
    raw: &mut [Option<String>],
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let mut writer = client
        .writer
        .try_clone()
        .map_err(|e| format!("socket clone: {e}"))?;
    // A short lead, so the first arrival is not due before the sender
    // thread runs.
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(plan.open[i].0 - origin);
    let late = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late = Vec::with_capacity(range.len());
            for i in range.clone() {
                let at = due(i);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(Instant::now().duration_since(at).as_secs_f64() * 1e3);
                if Client::send(&mut writer, &lines[i]).is_err() {
                    break;
                }
            }
            late
        });
        for _ in range.clone() {
            let Ok(line) = client.recv() else { break };
            let arrived = Instant::now();
            let outcome = canonical(&line).and_then(|(id, body, v)| {
                let i = usize::try_from(id)
                    .ok()
                    .filter(|i| range.contains(i) && raw[*i].is_none())
                    .ok_or_else(|| format!("unexpected answer id {id}"))?;
                raw[i] = Some(line.clone());
                answers.distinct.insert(body.clone());
                answers.check(&plan.open[i].1, &body, &v)?;
                latency[i] = Some(arrived.duration_since(due(i)).as_secs_f64() * 1e3);
                Ok(())
            });
            report.op(outcome);
        }
        sender.join().expect("the sender thread does not panic")
    });
    for i in range {
        if raw[i].is_none() {
            report.op(Err(format!("open-loop request {i}: no answer")));
        }
    }
    Ok(late)
}

/// Sends `requests`, numbered from `first_id`, keeping
/// [`CAPACITY_WINDOW`] outstanding. Returns the answers that passed
/// their checks and the time they took: the sum of the gaps between
/// successive answers that end in a passing one, which is the whole
/// loop when every answer passes.
fn capacity(
    client: &mut Client,
    requests: &[Request],
    first_id: u64,
    printouts: &[String],
    answers: &mut Answers,
    report: &mut Report,
) -> Result<(u64, Duration), String> {
    let mut outstanding: HashMap<u64, &Request> = HashMap::new();
    let mut pending = requests.iter().zip(first_id..);
    let mut send = |client: &mut Client, outstanding: &mut HashMap<u64, _>| {
        let Some((request, id)) = pending.next() else {
            return Ok(());
        };
        outstanding.insert(id, request);
        Client::send(
            &mut client.writer,
            &request.to_value(id, printouts).to_string(),
        )
    };
    let mut last = Instant::now();
    for _ in 0..CAPACITY_WINDOW {
        send(client, &mut outstanding)?;
    }
    let mut completed = 0u64;
    let mut busy = Duration::ZERO;
    while !outstanding.is_empty() {
        let line = match client.recv() {
            Ok(line) => line,
            Err(e) => {
                for _ in 0..outstanding.len() {
                    report.op(Err(format!("closed loop: {e}")));
                }
                break;
            }
        };
        let outcome = canonical(&line).and_then(|(id, body, v)| {
            let request = outstanding
                .remove(&id)
                .ok_or_else(|| format!("unexpected answer id {id}"))?;
            answers.distinct.insert(body.clone());
            answers.check(request, &body, &v)
        });
        let arrived = Instant::now();
        if outcome.is_ok() {
            completed += 1;
            busy += arrived - last;
        }
        last = arrived;
        report.op(outcome);
        send(client, &mut outstanding)?;
    }
    Ok((completed, busy))
}

/// Adds the counter deltas between two stats snapshots to `sums`.
fn add_deltas(sums: &mut BTreeMap<String, u64>, before: &Value, after: &Value) {
    for (k, v) in after["counters"].as_object().into_iter().flatten() {
        let was = before["counters"][k.as_str()].as_u64().unwrap_or(0);
        *sums.entry(k.clone()).or_default() += v.as_u64().unwrap_or(0).saturating_sub(was);
    }
}

/// Timings of the servers of one run, each scaled by its host speed.
/// The run's figures are medians over servers: the host slows in bursts
/// of a few seconds that raise every latency of the servers they hit,
/// and the median over servers sets those aside.
#[derive(Default)]
struct Segments {
    setup_s: Vec<f64>,
    /// Open-loop latencies of each server, ms.
    latency_ms: Vec<Vec<f64>>,
    /// Closed-loop answers per second of each server.
    per_s: Vec<f64>,
}

impl Segments {
    fn add(&mut self, setup_s: f64, latency_ms: &[f64], completed: u64, busy_s: f64, scale: f64) {
        self.setup_s.push(setup_s * scale);
        self.latency_ms
            .push(latency_ms.iter().map(|ms| ms * scale).collect());
        self.per_s.push(completed as f64 / (busy_s * scale));
    }

    /// The median over servers of each server's set-up, median and 90th
    /// percentile latency, and closed-loop rate.
    fn timed(&self) -> Timed {
        let median = |values: Vec<f64>| percentile(&sorted(&values), 50.0);
        let latency = |q: f64| {
            median(
                self.latency_ms
                    .iter()
                    .filter(|ms| !ms.is_empty())
                    .map(|ms| percentile(&sorted(ms), q))
                    .collect(),
            )
        };
        Timed {
            setup_s: median(self.setup_s.clone()),
            p50_ms: latency(50.0),
            p90_ms: latency(90.0),
            per_s: median(self.per_s.clone()),
        }
    }
}

/// Measures `serve-mixed`. The timed window runs in [`SERVERS`]
/// segments, each on a server of its own: set-up (server start, socket
/// ready, the warm-up pass including lazy training), then the segment's
/// share of the open loop and of the closed loop, then shutdown. Each
/// server process lands at its own speed (memory layout, thread
/// placement), so spreading the window over several keeps one unlucky
/// process from deciding the run. With `event_logs`, each server streams
/// its lifecycle events into a file in that directory.
pub fn measure(
    ctx: &Ctx,
    seed: u64,
    seconds: f64,
    event_logs: Option<&Path>,
) -> Result<(Report, ServeRun), String> {
    let mut report = Report::default();
    let plan = ServePlan::new(seed, seconds);
    let printouts = printouts(ctx)?;
    let lines: Vec<String> = plan
        .open
        .iter()
        .enumerate()
        .map(|(i, (_, r))| r.to_value(i as u64, &printouts).to_string())
        .collect();
    let mut answers = Answers::new(ctx)?;
    let mut reference = Reference::default();
    let mut peaks_kb = Vec::new();
    let mut counters = BTreeMap::new();
    let open_seconds = seconds / 2.0;
    let mut latency_ms = vec![None; lines.len()];
    let mut raw = vec![None; lines.len()];
    let mut late_ms = Vec::new();
    let (mut wall, mut normalized) = (Segments::default(), Segments::default());
    let chunk = plan.capacity.len().div_ceil(SERVERS);
    for k in 0..SERVERS {
        let start = Instant::now();
        let log = event_logs.map(|dir| dir.join(format!("segment-{k}.jsonl")));
        let server = Server::start(ctx, log.as_deref())?;
        let mut client = server.connect()?;
        for (i, request) in plan.warmup.iter().enumerate() {
            let line = request
                .to_value(WARMUP_IDS + i as u64, &printouts)
                .to_string();
            let answer = client.call(&line)?;
            report
                .op(canonical(&answer).and_then(|(_, body, v)| answers.check(request, &body, &v)));
        }
        let setup_s = start.elapsed().as_secs_f64();
        // Reference spawns on either side of the timed share, while the
        // server waits: away from its start and teardown.
        let spawns_before = reference.probe(SPAWNS_PER_SIDE)?;

        let before = client.stats(STATS_IDS)?;
        let [from, to] = [k, k + 1].map(|b| open_seconds * b as f64 / SERVERS as f64);
        let range = plan.open.partition_point(|(t, _)| *t < from)
            ..plan.open.partition_point(|(t, _)| *t < to);
        late_ms.extend(open_loop(
            &mut client,
            &plan,
            &lines,
            range.clone(),
            from,
            &mut answers,
            &mut latency_ms,
            &mut raw,
            &mut report,
        )?);
        let requests = plan.capacity.chunks(chunk).nth(k).unwrap_or_default();
        let first_id = CAPACITY_IDS + (k * chunk) as u64;
        let (n, took) = capacity(
            &mut client,
            requests,
            first_id,
            &printouts,
            &mut answers,
            &mut report,
        )?;
        let spawns_after = reference.probe(SPAWNS_PER_SIDE)?;
        let after = client.stats(STATS_IDS + 1)?;
        add_deltas(&mut counters, &before, &after);
        drop(client);
        peaks_kb.push(server.stop().ok_or("cannot read the server's peak RSS")?);

        let segment: Vec<f64> = latency_ms[range].iter().flatten().copied().collect();
        let scale = reference.scale_over(spawns_before.start..spawns_after.end);
        wall.add(setup_s, &segment, n, took.as_secs_f64(), 1.0);
        normalized.add(setup_s, &segment, n, took.as_secs_f64(), scale);
    }
    let counters = serde_json::json!(counters);

    let answered: Vec<f64> = sorted(&latency_ms.iter().flatten().copied().collect::<Vec<_>>());
    if answered.is_empty() {
        return Err("no open-loop request was answered".into());
    }
    let distinct = answers
        .distinct
        .iter()
        .cloned()
        .collect::<Vec<_>>()
        .join("\n");
    let answers_digest = digest(distinct.as_bytes());
    if seconds == ctx.oracle.serve_seconds() {
        match ctx
            .oracle
            .check("serve-mixed", &seed.to_string(), &answers_digest)
        {
            Verdict::Match => report.op(Ok(())),
            Verdict::Mismatch(pinned) => report.op(Err(format!(
                "serve-mixed seed {seed}: answer digest {answers_digest}, pinned {pinned}"
            ))),
            Verdict::Unpinned => {}
        }
    }

    report_timings(&mut report, &reference, normalized.timed(), wall.timed());
    let peak_kb = peaks_kb.iter().copied().max().unwrap_or(0);
    report.metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");

    let late = sorted(&late_ms);
    let late_p99 = percentile(&late, 99.0);
    report.diagnostic("open_rate_rps", serde_json::json!(OPEN_RATE));
    report.diagnostic("open_requests", serde_json::json!(lines.len() as u64));
    if let Some(q) = tail_percentile(answered.len()) {
        report.diagnostic(
            "wall_latency_ms_tail",
            serde_json::json!({"percentile": q, "value": number(percentile(&answered, q))}),
        );
    }
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for ((_, request), ms) in plan.open.iter().zip(&latency_ms) {
        if let Some(ms) = ms {
            by_kind.entry(request.kind()).or_default().push(*ms);
        }
    }
    report.diagnostic(
        "wall_latency_ms_p50_by_kind",
        Value::Object(
            by_kind
                .into_iter()
                .map(|(kind, ms)| (kind.to_owned(), number(percentile(&sorted(&ms), 50.0))))
                .collect(),
        ),
    );
    report.diagnostic(
        "wall_latency_ms_p50_by_server",
        Value::Array(
            wall.latency_ms
                .iter()
                .filter(|ms| !ms.is_empty())
                .map(|ms| number(percentile(&sorted(ms), 50.0)))
                .collect(),
        ),
    );
    report.diagnostic("gen_late_ms_p99", number(late_p99));
    report.diagnostic("generator_bound", serde_json::json!(late_p99 > 1.0));
    report.diagnostic(
        "capacity_requests",
        serde_json::json!(plan.capacity.len() as u64),
    );
    report.diagnostic(
        "distinct_answers",
        serde_json::json!(answers.distinct.len() as u64),
    );
    report.diagnostic("answers_digest", serde_json::json!(answers_digest));
    report.diagnostic("serve_counter_deltas", counters.clone());
    report.diagnostic(
        "wall_setup_s_each",
        Value::Array(wall.setup_s.iter().map(|&s| number(s)).collect()),
    );
    Ok((
        report,
        ServeRun {
            plan,
            printouts,
            answers: raw,
            counters,
        },
    ))
}
