//! End-to-end tests driving the compiled `claire-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_claire-cli"))
}

#[test]
fn help_succeeds_and_mentions_commands() {
    let out = cli().arg("help").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["models", "custom", "train", "flow", "parse", "init-config"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_exits_2_with_usage() {
    let out = cli().arg("frobnicate").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn options_a_command_does_not_take_exit_2() {
    for (args, stray) in [
        (&["flow", "--config", "tight.json"][..], "--config"),
        (&["custom", "Alexnet", "--frobnicate"], "--frobnicate"),
        // The search is always exhaustive; its old options are gone.
        (&["custom", "Alexnet", "--search", "exhaustive"], "--search"),
        (&["custom", "Alexnet", "--budget", "8"], "--budget"),
        (&["custom", "Alexnet", "--seed", "1"], "--seed"),
    ] {
        let out = cli().args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(stray), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn closed_stdout_is_a_clean_exit() {
    for args in [
        &["models"][..],
        &["describe", "Resnet50"],
        &["flow", "--json"],
        &["custom", "Alexnet", "--json"],
    ] {
        // The reader is gone before the child starts, so its first
        // write to stdout fails with EPIPE.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = cli().args(args).stdout(writer).output().expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn models_lists_the_zoo() {
    let out = cli().args(["models", "--extended"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for (name, _) in &claire_model::zoo::TABLE {
        assert!(
            text.lines().any(|line| line.trim_start().starts_with(name)),
            "missing {name}"
        );
    }
}

#[test]
fn custom_json_is_valid_json() {
    let out = cli()
        .args(["custom", "Alexnet", "--json"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON output");
    assert_eq!(v["model"], "Alexnet");
    assert!(v["ppa"]["latency_ms"].as_f64().expect("latency") > 0.0);
}

#[test]
fn custom_unknown_model_exits_2() {
    let out = cli().args(["custom", "NotAModel"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn parse_round_trip_via_tempfile() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("claire-cli-test-{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "Net(\n  (c): Conv2d(3, 8, kernel_size=(3, 3), stride=(1, 1), padding=(1, 1))\n  (r): ReLU()\n  (f): Linear(in_features=2048, out_features=10, bias=True)\n)\n",
    )
    .expect("write dump");
    let out = cli()
        .args([
            "parse",
            path.to_str().expect("utf8"),
            "--image",
            "3x16x16",
            "--name",
            "Net",
        ])
        .output()
        .expect("run");
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("parsed Net: 3 layers"));
    assert!(text.contains("custom configuration"));
}

#[test]
fn init_config_then_train_with_it() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("claire-cli-cfg-{}.json", std::process::id()));
    let out = cli()
        .args(["init-config", path.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(out.status.success());
    // The written file is valid RunConfig JSON.
    let text = std::fs::read_to_string(&path).expect("config written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
    assert!(v["constraints"]["chiplet_area_limit_mm2"]
        .as_f64()
        .is_some());
    std::fs::remove_file(&path).ok();
}

#[test]
fn export_then_deploy_round_trip() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("claire-cli-lib-{}.json", std::process::id()));
    let out = cli()
        .args([
            "export-library",
            path.to_str().expect("utf8"),
            "--paper-subsets",
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args([
            "deploy",
            "ViT-base",
            "--library",
            path.to_str().expect("utf8"),
            "--json",
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("json");
    assert_eq!(v["coverage"], 1.0);
    assert_eq!(v["config"], "C_3");

    // The composability gap exits with the IncompleteCoverage code
    // and a clear message.
    let out = cli()
        .args([
            "deploy",
            "EfficientNet-B0",
            "--library",
            path.to_str().expect("utf8"),
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(6));
    assert!(String::from_utf8_lossy(&out.stderr).contains("SILU"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn infeasible_constraints_exit_with_distinct_code() {
    // A config whose chiplet-area cap no chiplet can meet: FailFast
    // surfaces NoFeasibleConfiguration as exit 4.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("claire-cli-tight-{}.json", std::process::id()));
    let out = cli()
        .args(["init-config", path.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(out.status.success());
    // Tighten the per-chiplet area cap to an impossible 0.5 mm^2 by
    // rewriting the default value in the emitted JSON.
    let text = std::fs::read_to_string(&path).expect("config written");
    assert!(text.contains("\"chiplet_area_limit_mm2\": 100.0"), "{text}");
    let tight = text.replacen(
        "\"chiplet_area_limit_mm2\": 100.0",
        "\"chiplet_area_limit_mm2\": 0.5",
        1,
    );
    std::fs::write(&path, tight).expect("rewrite");

    let out = cli()
        .args([
            "custom",
            "Alexnet",
            "--config",
            path.to_str().expect("utf8"),
        ])
        .output()
        .expect("run");
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // With --degrade the same run succeeds, flagging the relaxation
    // on stderr and keeping stdout's report intact.
    let out = cli()
        .args([
            "custom",
            "Alexnet",
            "--degrade",
            "--config",
            path.to_str().expect("utf8"),
        ])
        .output()
        .expect("run");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warning"), "{err}");
    assert!(err.contains("degraded"), "{err}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("custom configuration"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn config_with_zero_threads_exits_2_like_the_flag() {
    // `space.threads: 0` is rejected when the config loads, before any
    // engine (or thread) exists, with the exit code `--threads 0` gets.
    let path = std::env::temp_dir().join(format!(
        "claire-cli-zero-threads-{}.json",
        std::process::id()
    ));
    let out = cli()
        .args(["init-config", path.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("config written");
    assert!(text.contains("\"threads\": null"), "{text}");
    std::fs::write(
        &path,
        text.replacen("\"threads\": null", "\"threads\": 0", 1),
    )
    .expect("rewrite");
    let out = cli()
        .args([
            "custom",
            "Alexnet",
            "--config",
            path.to_str().expect("utf8"),
        ])
        .output()
        .expect("run");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`threads`"), "{err}");
    let flag = cli()
        .args(["custom", "Alexnet", "--threads", "0"])
        .output()
        .expect("run");
    assert_eq!(flag.status.code(), Some(2));
}

#[test]
fn usage_documents_exit_codes_and_degrade() {
    let out = cli().arg("help").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--degrade"));
    assert!(text.contains("EXIT CODES"));
}

#[test]
fn simulate_reports_validation() {
    let out = cli()
        .args(["simulate", "Alexnet", "--batch", "8"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("simulated"));
    assert!(text.contains("batch 8"));
}

#[test]
fn describe_prints_profile() {
    let out = cli().args(["describe", "SWIN-T"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GMACs"));
    assert!(text.contains("LINEAR-LINEAR"));
}

#[test]
fn parse_missing_file_exits_2() {
    let out = cli()
        .args(["parse", "/nonexistent/net.txt"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn flow_exports_chrome_trace_and_metrics() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("claire-cli-trace-{}.json", std::process::id()));
    let metrics = dir.join(format!("claire-cli-metrics-{}.json", std::process::id()));
    let out = cli()
        .args([
            "flow",
            "--threads",
            "2",
            "--trace-out",
            trace.to_str().expect("utf8"),
            "--metrics-json",
            metrics.to_str().expect("utf8"),
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&trace).ok();
    let parsed: serde_json::Value = serde_json::from_str(&trace_text).expect("trace reparses");
    let events = parsed["traceEvents"].as_array().expect("traceEvents");
    for stage in [
        "customs",
        "generic",
        "subsets",
        "libraries",
        "algo_ppa",
        "test",
    ] {
        let name = format!("stage.{stage}");
        assert!(
            events.iter().any(|e| e["name"].as_str() == Some(&name)),
            "trace missing {name}"
        );
    }
    assert!(
        events
            .iter()
            .any(|e| e["name"].as_str() == Some("thread_name")),
        "trace missing thread_name metadata"
    );

    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    std::fs::remove_file(&metrics).ok();
    let parsed: serde_json::Value = serde_json::from_str(&metrics_text).expect("metrics reparses");
    for key in ["counters", "stages", "worker_utilization"] {
        assert!(parsed.get(key).is_some(), "metrics missing {key:?}");
    }
}

#[test]
fn trace_out_requires_a_value() {
    let out = cli().args(["flow", "--trace-out"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--trace-out requires a value"));
}

#[test]
fn cache_dir_round_trip_is_bit_identical_and_survives_corruption() {
    let dir = std::env::temp_dir().join(format!("claire-cli-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = dir.to_str().expect("utf8");

    // Cold run: saves a snapshot on exit.
    let cold = cli()
        .args(["custom", "Alexnet", "--json", "--cache-dir", cache])
        .output()
        .expect("run");
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let snapshot = dir.join("claire.snapshot");
    assert!(snapshot.exists(), "cold run saved no snapshot");

    // Warm run: loads the snapshot; the report must be bit-identical.
    let warm = cli()
        .args(["custom", "Alexnet", "--json", "--cache-dir", cache])
        .output()
        .expect("run");
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    assert_eq!(
        cold.stdout, warm.stdout,
        "warm-from-snapshot output diverged from cold"
    );

    // A corrupt snapshot degrades to a cold start with a typed
    // warning — same output, exit 0, never a panic.
    std::fs::write(&snapshot, b"not a snapshot").expect("corrupt");
    let recovered = cli()
        .args(["custom", "Alexnet", "--json", "--cache-dir", cache])
        .output()
        .expect("run");
    assert!(
        recovered.status.success(),
        "{}",
        String::from_utf8_lossy(&recovered.stderr)
    );
    assert_eq!(recovered.stdout, cold.stdout);
    let err = String::from_utf8_lossy(&recovered.stderr);
    assert!(
        err.contains("warm-state snapshot rejected"),
        "no typed warning on corrupt snapshot: {err}"
    );
    // The recovered run overwrote the corrupt file with a fresh,
    // loadable snapshot.
    let again = cli()
        .args(["custom", "Alexnet", "--json", "--cache-dir", cache])
        .output()
        .expect("run");
    assert!(again.status.success());
    assert!(!String::from_utf8_lossy(&again.stderr).contains("rejected"));
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn cache_dir_rewrites_the_snapshot_only_when_it_changed() {
    use std::os::unix::fs::MetadataExt;
    let dir = std::env::temp_dir().join(format!("claire-cli-skip-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = dir.to_str().expect("utf8");
    let snapshot = dir.join("claire.snapshot");
    let run = |model: &str| {
        let out = cli()
            .args(["custom", model, "--json", "--cache-dir", cache])
            .output()
            .expect("run");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{model}: {err}");
        assert!(!err.contains("warning"), "{model}: {err}");
        out.stdout
    };
    let stamp = || {
        let inode = std::fs::metadata(&snapshot).expect("snapshot exists").ino();
        (inode, std::fs::read(&snapshot).expect("snapshot bytes"))
    };

    let cold = run("Alexnet");
    let (inode, bytes) = stamp();

    // A warm run that memoizes nothing leaves the file untouched.
    assert_eq!(run("Alexnet"), cold);
    assert_eq!(
        stamp(),
        (inode, bytes.clone()),
        "an unchanged snapshot was rewritten"
    );

    // New work rewrites it (a fresh file renamed into place).
    run("Resnet18");
    let (grown_inode, grown) = stamp();
    assert_ne!(grown_inode, inode, "new work did not rewrite the snapshot");
    assert_ne!(grown, bytes);

    // The next run loads the rewritten file with no warning (checked
    // by `run`) and, memoizing nothing, leaves it in place.
    run("Resnet18");
    assert_eq!(stamp(), (grown_inode, grown));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_answers_batched_json_lines_requests() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = cli()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().expect("stdin");
    // Three well-formed requests (all three op families) plus one
    // malformed line: the server answers each in order and keeps
    // running.
    stdin
        .write_all(
            concat!(
                "{\"id\":1,\"op\":\"custom\",\"model\":\"Alexnet\"}\n",
                "{\"id\":2,\"op\":\"assign\",\"model\":\"VGG16\"}\n",
                "{\"id\":3,\"op\":\"what_if\",\"model\":\"Alexnet\",",
                "\"constraints\":{\"chiplet_area_limit_mm2\":0.5}}\n",
                "{\"id\":4,\"op\":\"frobnicate\"}\n",
            )
            .as_bytes(),
        )
        .expect("write requests");
    drop(stdin); // EOF ends the session.
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<serde_json::Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("each response line is JSON"))
        .collect();
    assert_eq!(lines.len(), 4, "{lines:?}");

    let by_id = |id: u64| {
        lines
            .iter()
            .find(|l| l["id"].as_u64() == Some(id))
            .unwrap_or_else(|| panic!("no response with id {id}"))
    };
    let custom = by_id(1);
    assert_eq!(custom["ok"].as_bool(), Some(true));
    assert_eq!(custom["result"]["model"].as_str(), Some("Alexnet"));
    let assign = by_id(2);
    assert_eq!(assign["ok"].as_bool(), Some(true));
    assert_eq!(assign["coverage"].as_f64(), Some(1.0));
    let what_if = by_id(3);
    assert_eq!(what_if["ok"].as_bool(), Some(true));
    assert_eq!(what_if["feasible"].as_bool(), Some(false));
    // The malformed request is answered (code 2), not fatal; it has
    // no id field matcher, so find it by ok=false.
    let bad = lines
        .iter()
        .find(|l| l["ok"].as_bool() == Some(false))
        .expect("malformed request answered");
    assert_eq!(bad["error"]["code"].as_u64(), Some(2));
}
