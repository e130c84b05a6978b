//! End-to-end robustness tests for `claire-cli serve`: every seeded
//! serve-layer fault class ends in a typed wire error or a finite
//! answer (never a dead server), admission control sheds with a typed
//! code-13 answer, deadlines answer code 14, a `kill -9` mid-serve
//! leaves a loadable checkpoint behind, and a signalled shutdown
//! drains and saves.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_claire-cli"))
}

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("claire-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Spawns `serve --listen <unix socket>` with extra args and waits for
/// the socket to accept connections. Every caller reaps the child —
/// through `terminate` or an explicit kill + wait.
#[allow(clippy::zombie_processes)]
fn spawn_listening(socket: &Path, extra: &[&str]) -> Child {
    let child = cli()
        .arg("serve")
        .args(["--listen", socket.to_str().expect("utf8")])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve --listen");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if UnixStream::connect(socket).is_ok() {
            return child;
        }
        assert!(
            Instant::now() < deadline,
            "server never bound {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sends SIGTERM and returns the exit status.
fn terminate(child: &mut Child) -> std::process::ExitStatus {
    Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(Instant::now() < deadline, "server ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One request/one response over a fresh connection. Returns `None`
/// when the server closed the connection without answering (a finite
/// outcome — the dropped-connection drill).
fn round_trip(socket: &Path, request: &str) -> Option<serde_json::Value> {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    stream.write_all(request.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut line = String::new();
    let n = BufReader::new(stream).read_line(&mut line).expect("read");
    if n == 0 {
        return None;
    }
    Some(serde_json::from_str(line.trim()).expect("response is JSON"))
}

#[test]
fn socket_serves_multiple_clients_and_drains_on_sigterm() {
    let dir = scratch("multi");
    let socket = dir.join("claire.sock");
    let mut server = spawn_listening(&socket, &[]);

    let clients: Vec<std::thread::JoinHandle<()>> = (0..3)
        .map(|i| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let request = format!("{{\"id\":{i},\"op\":\"custom\",\"model\":\"Alexnet\"}}");
                let response = round_trip(&socket, &request).expect("answered");
                assert_eq!(response["id"].as_u64(), Some(i));
                assert_eq!(response["ok"].as_bool(), Some(true), "{response}");
                assert_eq!(response["result"]["model"].as_str(), Some("Alexnet"));
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // Malformed input over the socket is a typed code-2 answer, and
    // the server keeps serving afterwards.
    let bad = round_trip(&socket, "{\"op\":\"frobnicate\"}").expect("typed answer");
    assert_eq!(bad["ok"].as_bool(), Some(false));
    assert_eq!(bad["error"]["code"].as_u64(), Some(2));
    let alive =
        round_trip(&socket, "{\"id\":9,\"op\":\"assign\",\"model\":\"VGG16\"}").expect("answered");
    assert_eq!(alive["ok"].as_bool(), Some(true), "{alive}");

    let status = terminate(&mut server);
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dropped_connection_fault_is_finite_and_server_survives() {
    let dir = scratch("drop");
    let socket = dir.join("claire.sock");
    // Rate 1.0: every connection is abruptly dropped after its first
    // request. The client sees EOF — finite — and the server lives on.
    let mut server = spawn_listening(&socket, &["--serve-faults", "7:dropped_connection=1.0"]);

    for _ in 0..3 {
        let answer = round_trip(
            &socket,
            "{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\"}",
        );
        assert!(answer.is_none(), "dropped connection still answered");
    }
    let status = terminate(&mut server);
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_loris_fault_earns_typed_timeout_and_server_survives() {
    let dir = scratch("loris");
    let socket = dir.join("claire.sock");
    let mut server = spawn_listening(&socket, &["--serve-faults", "7:slow_loris_client=1.0"]);

    // The drill stalls the connection before any request is read: the
    // client gets the same typed code-2 timeout answer a real
    // slow-loris earns, then EOF.
    let stream = UnixStream::connect(&socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("typed answer");
    let answer: serde_json::Value = serde_json::from_str(line.trim()).expect("JSON");
    assert_eq!(answer["ok"].as_bool(), Some(false));
    assert_eq!(answer["error"]["code"].as_u64(), Some(2));
    assert!(
        answer["error"]["detail"]
            .as_str()
            .expect("detail")
            .contains("timed out"),
        "{answer}"
    );
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).expect("eof"), 0);

    let status = terminate(&mut server);
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_batch_panic_fault_answers_typed_worker_panic() {
    let dir = scratch("panic");
    let socket = dir.join("claire.sock");
    let mut server = spawn_listening(&socket, &["--serve-faults", "7:mid_batch_panic=1.0"]);

    // Every batch panics mid-dispatch; every request still gets a
    // typed code-7 answer and the server keeps accepting work.
    for _ in 0..3 {
        let answer = round_trip(
            &socket,
            "{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\"}",
        )
        .expect("typed answer despite panic");
        assert_eq!(answer["ok"].as_bool(), Some(false), "{answer}");
        assert_eq!(answer["error"]["code"].as_u64(), Some(7), "{answer}");
    }
    let status = terminate(&mut server);
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_write_failure_fault_never_corrupts_the_snapshot() {
    let dir = scratch("ckpt-fault");
    let socket = dir.join("claire.sock");
    let cache = dir.join("cache");
    let mut server = spawn_listening(
        &socket,
        &[
            "--cache-dir",
            cache.to_str().expect("utf8"),
            "--checkpoint-ms",
            "50",
            "--serve-faults",
            "7:checkpoint_write_failure=0.5",
        ],
    );

    // Warm the tiers across several batches so multiple checkpoint
    // generations run, some injected to fail.
    for (i, model) in ["Alexnet", "Resnet18", "VGG16"].iter().enumerate() {
        let request = format!("{{\"id\":{i},\"op\":\"custom\",\"model\":\"{model}\"}}");
        let answer = round_trip(&socket, &request).expect("answered");
        assert_eq!(answer["ok"].as_bool(), Some(true), "{answer}");
        std::thread::sleep(Duration::from_millis(120));
    }
    let status = terminate(&mut server);
    assert_eq!(status.code(), Some(0));

    // Whatever mix of failed and successful checkpoints ran, the
    // snapshot on disk loads cleanly (exit 0, no rejection warning).
    let out = cli()
        .args([
            "custom",
            "Alexnet",
            "--cache-dir",
            cache.to_str().expect("utf8"),
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("rejected"), "snapshot rejected: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_sheds_with_typed_code_13_and_metrics_record_it() {
    use std::process::Stdio;
    let dir = scratch("shed");
    let metrics = dir.join("metrics.json");
    let mut child = cli()
        .args([
            "serve",
            "--queue",
            "1",
            "--metrics-json",
            metrics.to_str().expect("utf8"),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().expect("stdin");
    // A burst far beyond capacity 1: the reader admits much faster
    // than the dispatcher drains, so most requests are shed with a
    // typed Overloaded answer while at least the first is evaluated.
    const BURST: usize = 200;
    let mut input = String::new();
    for i in 0..BURST {
        input.push_str(&format!(
            "{{\"id\":{i},\"op\":\"custom\",\"model\":\"Alexnet\"}}\n"
        ));
    }
    stdin.write_all(input.as_bytes()).expect("write burst");
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<serde_json::Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("JSON response"))
        .collect();
    assert_eq!(lines.len(), BURST, "every request is answered");
    let ok = lines
        .iter()
        .filter(|l| l["ok"].as_bool() == Some(true))
        .count();
    let shed = lines
        .iter()
        .filter(|l| l["error"]["code"].as_u64() == Some(13))
        .count();
    assert!(ok >= 1, "no request was ever evaluated");
    assert!(shed >= 1, "queue of 1 under a {BURST}-burst never shed");
    assert_eq!(ok + shed, BURST, "answers are either evaluated or shed");
    // Shed answers echo the caller's id so clients can retry.
    let first_shed = lines
        .iter()
        .find(|l| l["error"]["code"].as_u64() == Some(13))
        .expect("shed answer");
    assert!(first_shed["id"].as_u64().is_some(), "{first_shed}");

    // The shed count and queue-wait/in-flight histograms surface in
    // --metrics-json.
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("metrics JSON");
    assert_eq!(
        parsed["counters"]["serve.shed"].as_u64(),
        Some(shed as u64),
        "serve.shed counter disagrees with the wire"
    );
    let histogram_total = |name: &str| -> u64 {
        parsed["histograms"][name]["counts"]
            .as_array()
            .unwrap_or_else(|| panic!("histogram {name} missing: {}", parsed["histograms"]))
            .iter()
            .map(|c| c.as_u64().expect("bucket count"))
            .sum()
    };
    assert!(
        histogram_total("serve.queue_wait_us") >= 1,
        "queue-wait histogram empty"
    );
    assert!(
        histogram_total("serve.in_flight") >= 1,
        "in-flight histogram empty"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_deadline_is_answered_with_code_14_without_contaminating_neighbours() {
    use std::process::Stdio;
    let mut child = cli()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(
            concat!(
                "{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\",\"deadline_ms\":0}\n",
                "{\"id\":2,\"op\":\"custom\",\"model\":\"Alexnet\"}\n",
            )
            .as_bytes(),
        )
        .expect("write requests");
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success());
    let lines: Vec<serde_json::Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("JSON response"))
        .collect();
    assert_eq!(lines.len(), 2);
    let by_id = |id: u64| {
        lines
            .iter()
            .find(|l| l["id"].as_u64() == Some(id))
            .unwrap_or_else(|| panic!("no response with id {id}"))
    };
    let expired = by_id(1);
    assert_eq!(expired["ok"].as_bool(), Some(false));
    assert_eq!(expired["error"]["code"].as_u64(), Some(14), "{expired}");
    assert!(
        expired["error"]["detail"]
            .as_str()
            .expect("detail")
            .contains("deadline"),
        "{expired}"
    );
    // The batch neighbour without a deadline is answered normally —
    // identical to what a solo run produces.
    let survivor = by_id(2);
    assert_eq!(survivor["ok"].as_bool(), Some(true), "{survivor}");
    let solo = cli()
        .args(["custom", "Alexnet", "--json"])
        .output()
        .expect("solo run");
    assert!(solo.status.success());
    let solo_v: serde_json::Value = serde_json::from_slice(&solo.stdout).expect("solo JSON");
    assert_eq!(
        survivor["result"]["ppa"], solo_v["ppa"],
        "deadline neighbour diverged from the solo answer"
    );
}

#[test]
fn kill_nine_mid_serve_leaves_a_loadable_checkpoint() {
    use std::process::Stdio;
    let dir = scratch("kill9");
    let cache = dir.join("cache");
    let mut child = cli()
        .args([
            "serve",
            "--cache-dir",
            cache.to_str().expect("utf8"),
            "--checkpoint-ms",
            "50",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(b"{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\"}\n")
        .expect("write request");
    stdin.flush().expect("flush");
    // Wait for the first answer (tiers warm) ...
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("first answer");
    let answer: serde_json::Value = serde_json::from_str(line.trim()).expect("JSON");
    assert_eq!(answer["ok"].as_bool(), Some(true), "{answer}");
    // ... and for a periodic checkpoint to land on disk.
    let snapshot = cache.join("claire.snapshot");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !snapshot.exists() {
        assert!(Instant::now() < deadline, "no checkpoint was ever written");
        std::thread::sleep(Duration::from_millis(20));
    }
    // SIGKILL mid-serve: no drain, no shutdown save.
    child.kill().expect("kill -9");
    let _ = child.wait();

    // The checkpoint restores a warm engine: no SnapshotInvalid, no
    // rejection warning, and the answer matches a cold run.
    let warm = cli()
        .args([
            "custom",
            "Alexnet",
            "--json",
            "--cache-dir",
            cache.to_str().expect("utf8"),
        ])
        .output()
        .expect("warm run");
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let err = String::from_utf8_lossy(&warm.stderr);
    assert!(!err.contains("rejected"), "snapshot rejected: {err}");
    let cold = cli()
        .args(["custom", "Alexnet", "--json"])
        .output()
        .expect("cold run");
    assert_eq!(warm.stdout, cold.stdout, "post-crash warm answer diverged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_is_answered_mid_serve_and_counters_stay_monotone() {
    let dir = scratch("stats");
    let socket = dir.join("claire.sock");
    let mut server = spawn_listening(&socket, &[]);

    // Fire a real (cold, multi-second) evaluation on one connection…
    let worker = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            round_trip(
                &socket,
                "{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\"}",
            )
            .expect("answered")
        })
    };
    // …and probe stats on another while it is in flight. Stats are
    // answered at admission, so dispatch is never paused for them.
    let first = round_trip(&socket, "{\"id\":\"probe\",\"op\":\"stats\"}").expect("stats answered");
    assert_eq!(first["ok"].as_bool(), Some(true), "{first}");
    assert_eq!(first["id"].as_str(), Some("probe"));
    assert!(first["trace_id"].as_u64().is_some(), "{first}");
    let s1 = &first["stats"];
    assert!(s1["uptime_us"].as_u64().is_some(), "{s1}");
    assert!(s1["queue_depth"].as_u64().is_some(), "{s1}");
    assert!(s1["in_flight"].as_u64().is_some(), "{s1}");
    assert!(s1["snapshot_generation"].as_u64().is_some(), "{s1}");
    assert!(
        s1["counters"]["serve.requests"].as_u64().expect("counter") >= 1,
        "{s1}"
    );
    assert!(s1["gauges"].as_object().is_some(), "{s1}");
    assert!(s1["rates"]["requests"]["total"].as_u64().is_some(), "{s1}");
    assert_eq!(s1["event_log"]["enabled"].as_bool(), Some(false), "{s1}");
    assert!(s1["flight"]["path"].as_str().is_some(), "{s1}");

    let answer = worker.join().expect("worker thread");
    assert_eq!(answer["ok"].as_bool(), Some(true), "{answer}");
    assert!(answer["trace_id"].as_u64().is_some(), "{answer}");

    // A second probe after the evaluation: every counter is monotone,
    // the answered count moved, and the latency quantiles are now
    // populated and ordered.
    let second = round_trip(&socket, "{\"op\":\"stats\"}").expect("stats answered");
    let s2 = &second["stats"];
    for (name, before) in s1["counters"].as_object().expect("counters") {
        let after = s2["counters"][name.as_str()].as_u64().expect("counter");
        assert!(
            after >= before.as_u64().expect("counter"),
            "counter {name} went backwards: {before} -> {after}"
        );
    }
    assert!(
        s2["counters"]["serve.answered"].as_u64().expect("counter")
            > s1["counters"]["serve.answered"].as_u64().expect("counter"),
        "answered never moved"
    );
    let q = &s2["quantiles"]["latency_us"];
    assert!(q["count"].as_u64().expect("count") >= 1, "{q}");
    let (p50, p90, p99, max) = (
        q["p50"].as_u64().expect("p50"),
        q["p90"].as_u64().expect("p90"),
        q["p99"].as_u64().expect("p99"),
        q["max"].as_u64().expect("max"),
    );
    assert!(p50 <= p90 && p90 <= p99 && p99 <= max, "{q}");

    let status = terminate(&mut server);
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_and_metrics_export_report_live_engine_gauges() {
    let dir = scratch("gauges");
    let socket = dir.join("claire.sock");
    let metrics = dir.join("metrics.json");
    let mut server = spawn_listening(
        &socket,
        &[
            "--threads",
            "2",
            "--metrics-json",
            metrics.to_str().expect("utf8"),
        ],
    );
    let answer = round_trip(
        &socket,
        "{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\"}",
    )
    .expect("answered");
    assert_eq!(answer["ok"].as_bool(), Some(true), "{answer}");

    // The in-band probe and the shutdown export both read the engine's
    // gauges as they stand, not as they stood at start-up.
    let probe = round_trip(&socket, "{\"op\":\"stats\"}").expect("stats answered");
    let status = terminate(&mut server);
    assert_eq!(status.code(), Some(0));
    let exported: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).expect("metrics written"))
            .expect("metrics are JSON");
    for gauges in [&probe["stats"]["gauges"], &exported["gauges"]] {
        assert_eq!(gauges["engine.threads"].as_u64(), Some(2), "{gauges}");
        // A `custom` request builds its model's graph and prices it
        // against its shells' edge sequences, so the graph and comm
        // tiers hold entries once it is answered.
        for tier in ["memo.graph.entries", "memo.comm.entries"] {
            assert!(
                gauges[tier].as_u64().expect("gauge") >= 1,
                "{tier}: {gauges}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An answer without its `id` and `trace_id`, which name the request
/// and its arrival rather than the answer.
fn answer_body(answer: serde_json::Value) -> serde_json::Value {
    let serde_json::Value::Object(fields) = answer else {
        panic!("answers are objects: {answer}");
    };
    serde_json::Value::Object(
        fields
            .into_iter()
            .filter(|(key, _)| key != "id" && key != "trace_id")
            .collect(),
    )
}

#[test]
fn serve_builds_each_zoo_model_once_and_answers_as_a_fresh_build() {
    let dir = scratch("zoo-once");
    let socket = dir.join("claire.sock");
    let names = ["Alexnet", "Resnet18"];
    // Each name answered by a server that builds its model for that one
    // request only.
    let fresh: Vec<serde_json::Value> = names
        .iter()
        .map(|name| {
            let line = format!("{{\"op\":\"custom\",\"model\":\"{name}\"}}\n");
            let lines = serve_stdin_lines(&line, &[]);
            assert_eq!(lines.len(), 1, "{lines:?}");
            answer_body(serde_json::from_str(&lines[0]).expect("answer is JSON"))
        })
        .collect();

    let mut server = spawn_listening(&socket, &["--threads", "2"]);
    for i in 0..10 {
        let k = i % names.len();
        let request = format!(
            "{{\"id\":{i},\"op\":\"custom\",\"model\":\"{}\"}}",
            names[k]
        );
        let answer = round_trip(&socket, &request).expect("answered");
        assert_eq!(answer["ok"].as_bool(), Some(true), "{answer}");
        assert_eq!(answer_body(answer), fresh[k], "request {i}");
    }
    let probe = round_trip(&socket, "{\"op\":\"stats\"}").expect("stats answered");
    assert_eq!(terminate(&mut server).code(), Some(0));
    let gauges = &probe["stats"]["gauges"];
    // Ten requests over two zoo names: one model instance per name.
    assert_eq!(
        gauges["engine.struct_entries"].as_u64(),
        Some(2),
        "{gauges}"
    );
    assert_eq!(
        gauges["engine.struct_instances"].as_u64(),
        Some(2),
        "{gauges}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `serve` over stdin with `extra` args, feeds it `input`, and
/// returns its stdout lines sorted (batch composition — and therefore
/// delivery order — may differ run to run; the per-request bytes must
/// not).
fn serve_stdin_lines(input: &str, extra: &[&str]) -> Vec<String> {
    let mut child = cli()
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write input");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

#[test]
fn observability_never_perturbs_pinned_answers() {
    let dir = scratch("obs-identity");
    let events = dir.join("events.jsonl");
    let cache = dir.join("cache");
    let input = concat!(
        "{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\"}\n",
        "{\"id\":2,\"op\":\"assign\",\"model\":\"VGG16\"}\n",
        "{\"id\":3,\"op\":\"what_if\",\"model\":\"Alexnet\",",
        "\"constraints\":{\"chiplet_area_limit_mm2\":50.0}}\n",
    );
    // Observability fully armed (event log streaming, flight recorder
    // dumping into a cache dir) versus bare: the answers — trace ids
    // included — are bit-identical, byte for byte.
    let bare = serve_stdin_lines(input, &[]);
    let observed = serve_stdin_lines(
        input,
        &[
            "--event-log",
            events.to_str().expect("utf8"),
            "--cache-dir",
            cache.to_str().expect("utf8"),
        ],
    );
    assert_eq!(bare, observed, "observability perturbed the answers");
    assert!(events.exists(), "event log never written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn event_log_captures_the_full_lifecycle_with_trace_continuity() {
    let dir = scratch("event-log");
    let events = dir.join("events.jsonl");
    let input = concat!(
        "{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\"}\n",
        "this line is not JSON\n",
        "{\"id\":2,\"op\":\"assign\",\"model\":\"VGG16\"}\n",
    );
    let lines = serve_stdin_lines(input, &["--event-log", events.to_str().expect("utf8")]);
    assert_eq!(lines.len(), 3, "every line is answered");
    let responses: Vec<serde_json::Value> = lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("response JSON"))
        .collect();

    // Every event-log line is one JSON object with the schema fields;
    // group them per trace in file (= wall-clock) order.
    let mut by_trace: std::collections::BTreeMap<u64, Vec<serde_json::Value>> =
        std::collections::BTreeMap::new();
    for line in std::fs::read_to_string(&events)
        .expect("event log readable")
        .lines()
    {
        let event: serde_json::Value = serde_json::from_str(line).expect("event JSON");
        assert!(event["t_us"].as_u64().is_some(), "{event}");
        let stage = event["event"].as_str().expect("stage label");
        assert!(
            [
                "received",
                "admitted",
                "shed",
                "dispatched",
                "evaluating",
                "answered",
                "errored"
            ]
            .contains(&stage),
            "unknown stage {stage}"
        );
        assert!(event["op"].as_str().is_some(), "{event}");
        by_trace
            .entry(event["trace"].as_u64().expect("trace id"))
            .or_default()
            .push(event);
    }

    // Each response's trace id continues through the log: opens with
    // `received`, closes with a terminal stage whose outcome matches
    // the wire answer, and admitted work passes through dispatch and
    // evaluation in order.
    for response in &responses {
        let trace = response["trace_id"].as_u64().expect("trace_id echoed");
        let chain = by_trace
            .get(&trace)
            .unwrap_or_else(|| panic!("trace {trace} missing from event log"));
        let stages: Vec<&str> = chain
            .iter()
            .map(|e| e["event"].as_str().expect("stage"))
            .collect();
        assert_eq!(stages.first().copied(), Some("received"), "{stages:?}");
        let terminal = chain.last().expect("terminal event");
        let wire_code = response["error"]["code"].as_u64().unwrap_or(0);
        match terminal["event"].as_str().expect("stage") {
            "answered" => assert_eq!(wire_code, 0, "{response}"),
            "errored" => assert_eq!(
                terminal["outcome"].as_u64().expect("outcome"),
                wire_code,
                "{terminal} vs {response}"
            ),
            other => panic!("trace {trace} ended on non-terminal stage {other}"),
        }
        if response["ok"].as_bool() == Some(true) {
            let position = |s: &str| {
                stages
                    .iter()
                    .position(|x| *x == s)
                    .unwrap_or_else(|| panic!("trace {trace} missing {s}: {stages:?}"))
            };
            assert!(position("admitted") < position("dispatched"));
            assert!(position("dispatched") < position("evaluating"));
            assert!(position("evaluating") < position("answered"));
            let dispatched = &chain[position("dispatched")];
            assert!(
                dispatched["queue_wait_us"].as_u64().is_some(),
                "{dispatched}"
            );
            assert!(dispatched["batch"].as_u64().is_some(), "{dispatched}");
        }
    }
    // The malformed line is in the log too: an `invalid`-op trace
    // ending errored with outcome 2.
    assert!(
        by_trace.values().any(
            |chain| chain.iter().any(|e| e["op"].as_str() == Some("invalid")
                && e["event"].as_str() == Some("errored")
                && e["outcome"].as_u64() == Some(2))
        ),
        "malformed line left no lifecycle trail"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn contained_panic_then_kill_nine_leaves_a_loadable_flight_dump() {
    use std::process::Stdio;
    let dir = scratch("flight");
    let cache = dir.join("cache");
    let metrics = dir.join("metrics.json");
    std::fs::create_dir_all(&cache).expect("create cache dir");
    let mut child = cli()
        .args([
            "serve",
            "--cache-dir",
            cache.to_str().expect("utf8"),
            "--serve-faults",
            "7:mid_batch_panic=1.0",
            "--metrics-json",
            metrics.to_str().expect("utf8"),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(b"{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\"}\n")
        .expect("write request");
    stdin.flush().expect("flush");
    // The batch panics mid-dispatch; containment answers code 7 …
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("typed answer");
    let answer: serde_json::Value = serde_json::from_str(line.trim()).expect("JSON");
    assert_eq!(answer["error"]["code"].as_u64(), Some(7), "{answer}");
    let trace = answer["trace_id"].as_u64().expect("trace_id echoed");

    // … and the recorder dumps twice: the panic hook fires at the
    // throw (its dump predates the errored events), then the
    // containment site dumps again after delivery. Wait until the
    // on-disk trail includes the terminal event, then SIGKILL: no
    // drain, no shutdown path — the prior dump must already suffice.
    let flight = cache.join(format!("flight-{}.json", child.id()));
    let has_terminal = |dump: &serde_json::Value| {
        dump["events"]
            .as_array()
            .is_some_and(|events| events.iter().any(|e| e["outcome"].as_u64().is_some()))
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if metrics.exists() {
            if let Ok(text) = std::fs::read_to_string(&flight) {
                if serde_json::from_str::<serde_json::Value>(&text).is_ok_and(|d| has_terminal(&d))
                {
                    break;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "containment never dumped flight/metrics"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("kill -9");
    let _ = child.wait();

    // The dump is complete (atomic rename) and loadable, and its
    // trailing events reconcile with what the client observed: the
    // panicking request's trace ends errored with outcome 7.
    let dump: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&flight).expect("flight dump readable"))
            .expect("flight dump is JSON");
    assert_eq!(dump["pid"].as_u64(), Some(u64::from(child.id())), "{dump}");
    assert!(dump["reason"].as_str().is_some(), "{dump}");
    assert!(dump["uptime_us"].as_u64().is_some(), "{dump}");
    let events = dump["events"].as_array().expect("events array");
    assert!(!events.is_empty(), "flight dump captured nothing");
    assert!(
        events.iter().any(|e| e["trace"].as_u64() == Some(trace)
            && e["event"].as_str() == Some("errored")
            && e["outcome"].as_u64() == Some(7)),
        "client-observed code-7 answer missing from the flight trail: {dump}"
    );

    // Satellite: the crash paths also left complete metrics behind,
    // with the flight dump counted.
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).expect("metrics readable"))
            .expect("metrics JSON");
    assert!(
        parsed["counters"]["serve.flight_dumps"]
            .as_u64()
            .expect("counter")
            >= 1,
        "{parsed}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_shutdown_saves_the_snapshot_without_stdin_eof() {
    use std::process::Stdio;
    let dir = scratch("sigterm-save");
    let cache = dir.join("cache");
    let mut child = cli()
        .args([
            "serve",
            "--cache-dir",
            cache.to_str().expect("utf8"),
            // Periodic checkpoints off: only the signal path saves.
            "--checkpoint-ms",
            "0",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(b"{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\"}\n")
        .expect("write request");
    stdin.flush().expect("flush");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("first answer");

    // Stdin stays open: EOF never fires; only the signal can save.
    let status = terminate(&mut child);
    assert_eq!(status.code(), Some(0));
    let snapshot = cache.join("claire.snapshot");
    assert!(
        snapshot.exists(),
        "signal-triggered shutdown saved no snapshot"
    );
    let err = {
        let mut buf = String::new();
        child
            .stderr
            .take()
            .expect("stderr")
            .read_to_string(&mut buf)
            .expect("read stderr");
        buf
    };
    assert!(
        err.contains("shutdown signal received"),
        "no drain message: {err}"
    );
    assert!(err.contains("warm state saved"), "no save message: {err}");
    std::fs::remove_dir_all(&dir).ok();
}
