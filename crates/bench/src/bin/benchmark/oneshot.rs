//! The one-shot workloads, `flow-cold`, `flow-warm` and `dse-dense`:
//! closed loop, one client, each operation a whole `claire-cli` process
//! timed from spawn until it has exited and its stdout is fully read.

use crate::host::{report_timings, Reference, Timed, BLOCK};
use crate::inputs::{one_shot_order, Workload, DSE_MODELS, FLOW_VARIANTS};
use crate::oracle::Verdict;
use crate::report::{number, Report};
use crate::stats::{digest, percentile, sorted, tail_percentile};
use crate::{sys, Ctx, SETUP_REPEATS};
use serde_json::Value;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// One input of a one-shot workload: a flow variant or a model.
#[derive(Debug, Clone)]
pub struct Input {
    /// Variant or model name.
    pub name: String,
    /// Arguments after the program name.
    pub args: Vec<String>,
    /// The snapshot a `flow-warm` input reads, with its primed digest.
    pub snapshot: Option<(PathBuf, String)>,
    /// The output every run must reproduce byte for byte.
    pub reference: Vec<u8>,
}

/// One finished CLI process.
pub struct Ran {
    /// Wall time from spawn until exit with stdout and stderr fully read.
    pub took: Duration,
    /// Its exit status and everything it wrote.
    pub out: Output,
    /// Its own peak resident set, KiB.
    pub peak_rss_kb: u64,
}

/// Runs the CLI once and reaps it.
pub fn run_cli(cli: &Path, args: &[String]) -> Result<Ran, String> {
    let start = Instant::now();
    let mut child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    let (mut stdout, mut stderr) = (child.stdout.take(), child.stderr.take());
    // stderr drains on a thread of its own, so that neither pipe fills
    // while the other is read.
    let (stdout, stderr) = std::thread::scope(|scope| {
        let err = scope.spawn(|| read_all(stderr.as_mut()));
        let out = read_all(stdout.as_mut());
        (out, err.join().expect("reading a pipe does not panic"))
    });
    let (status, peak_rss_kb) = sys::wait_with_peak_rss(child)?;
    Ok(Ran {
        took: start.elapsed(),
        out: Output {
            status,
            stdout: stdout?,
            stderr: stderr?,
        },
        peak_rss_kb,
    })
}

fn read_all(pipe: Option<&mut impl Read>) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    if let Some(pipe) = pipe {
        pipe.read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read the child's output: {e}"))?;
    }
    Ok(bytes)
}

fn flow_args(flags: &[&str], cache_dir: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = ["flow", "--json", "--threads", "2"]
        .into_iter()
        .chain(flags.iter().copied())
        .map(str::to_owned)
        .collect();
    if let Some(dir) = cache_dir {
        args.push("--cache-dir".into());
        args.push(dir.display().to_string());
    }
    args
}

/// The `custom` arguments `dse-dense` runs for `model`.
pub fn dense_args(model: &str, config: &Path) -> Vec<String> {
    [
        "custom",
        model,
        "--json",
        "--config",
        &config.display().to_string(),
        "--threads",
        "2",
    ]
    .map(str::to_owned)
    .to_vec()
}

/// Where `dse-dense` writes its 65,536-point run configuration.
pub fn dense_config_path(ctx: &Ctx) -> PathBuf {
    ctx.work.join("dense16.json")
}

/// Runs the CLI once, raising `peak_kb` to its peak resident set.
fn run_tracked(ctx: &Ctx, args: &[String], peak_kb: &mut u64) -> Result<Ran, String> {
    let ran = run_cli(&ctx.cli, args)?;
    *peak_kb = (*peak_kb).max(ran.peak_rss_kb);
    Ok(ran)
}

/// Runs `args` as a reference and checks its output against the pinned
/// digest. A reference that fails to run stops the benchmark: there is
/// nothing to compare the timed runs with.
fn reference(
    ctx: &Ctx,
    report: &mut Report,
    peak_kb: &mut u64,
    section: &str,
    name: &str,
    args: &[String],
) -> Result<Vec<u8>, String> {
    let out = run_tracked(ctx, args, peak_kb)?.out;
    if !out.status.success() {
        return Err(format!(
            "reference `{}` exited with {}: {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let actual = digest(&out.stdout);
    report.op(match ctx.oracle.check(section, name, &actual) {
        Verdict::Match => Ok(()),
        Verdict::Mismatch(pinned) => Err(format!(
            "{section} {name}: output digest {actual}, pinned {pinned}"
        )),
        Verdict::Unpinned => Err(format!("{section} {name}: no pinned digest")),
    });
    Ok(out.stdout)
}

/// The workload's set-up: reference outputs checked against the oracle,
/// and for `flow-warm` one primed snapshot directory per variant. Raises
/// `peak_kb` to the peak resident set of each process it runs.
pub fn prepare(
    ctx: &Ctx,
    workload: Workload,
    report: &mut Report,
    peak_kb: &mut u64,
) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    match workload {
        Workload::FlowCold | Workload::FlowWarm => {
            for (name, flags) in FLOW_VARIANTS {
                let cold = flow_args(flags, None);
                let reference = reference(ctx, report, peak_kb, "flow", name, &cold)?;
                let (args, snapshot) = if workload == Workload::FlowWarm {
                    let dir = ctx.work.join("warm").join(name);
                    let _ = std::fs::remove_dir_all(&dir);
                    let args = flow_args(flags, Some(&dir));
                    let primed = run_tracked(ctx, &args, peak_kb)?.out;
                    report.op(same_output(name, &primed, &reference));
                    let path = dir.join("claire.snapshot");
                    let bytes = std::fs::read(&path)
                        .map_err(|e| format!("priming {name} wrote no snapshot: {e}"))?;
                    (args, Some((path, digest(&bytes))))
                } else {
                    (cold, None)
                };
                inputs.push(Input {
                    name: name.to_owned(),
                    args,
                    snapshot,
                    reference,
                });
            }
        }
        Workload::DseDense => {
            let config = dense_config_path(ctx);
            claire_core::RunConfig {
                space: claire_ppa::DseSpace::dense(16),
                ..claire_core::RunConfig::default()
            }
            .save(&config)
            .map_err(|e| format!("cannot write {}: {e}", config.display()))?;
            for model in DSE_MODELS {
                let args = dense_args(model, &config);
                let reference = reference(ctx, report, peak_kb, "dse-dense", model, &args)?;
                inputs.push(Input {
                    name: model.to_owned(),
                    args,
                    snapshot: None,
                    reference,
                });
            }
        }
        Workload::ServeMixed => unreachable!("serve-mixed is not a one-shot workload"),
    }
    Ok(inputs)
}

/// Checks one run: exit 0, stdout byte-identical to the reference, and
/// for a warm run, a snapshot that loaded without a cold fallback.
fn same_output(name: &str, out: &Output, reference: &[u8]) -> Result<(), String> {
    if !out.status.success() {
        return Err(format!("{name}: exited with {}", out.status));
    }
    if out.stdout != reference {
        return Err(format!("{name}: output differs from the reference run"));
    }
    if String::from_utf8_lossy(&out.stderr).contains("starting cold") {
        return Err(format!("{name}: snapshot rejected, ran cold"));
    }
    Ok(())
}

/// Wall times of the timed window, per input, in milliseconds.
pub struct Timings {
    /// Samples per input, in input order.
    pub per_input: Vec<Vec<f64>>,
}

impl Timings {
    /// The mean over inputs of each input's median: every input weighs
    /// the same, and the figure does not jump between inputs whose
    /// times differ, as a pooled median of a mix would.
    pub fn p50_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .per_input
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| percentile(&sorted(s), 50.0))
            .collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }

    /// Every run's time divided by its input's median, ascending.
    fn relative(&self) -> Vec<f64> {
        let mut ratios = Vec::new();
        for s in self.per_input.iter().filter(|s| !s.is_empty()) {
            let median = percentile(&sorted(s), 50.0);
            ratios.extend(s.iter().map(|t| t / median));
        }
        sorted(&ratios)
    }

    /// Runs timed.
    pub fn runs(&self) -> usize {
        self.per_input.iter().map(Vec::len).sum()
    }

    /// Runs completed per second of running them back to back.
    pub fn runs_per_s(&self) -> f64 {
        let busy_ms: f64 = self.per_input.iter().flatten().sum();
        self.runs() as f64 * 1e3 / busy_ms
    }

    /// The tail at percentile `q`, pooled over inputs as a multiple of
    /// each run's own input median and scaled back by [`Self::p50_ms`].
    pub fn tail_ms(&self, q: f64) -> f64 {
        self.p50_ms() * percentile(&self.relative(), q)
    }
}

/// Runs the workload's inputs back to back for `seconds`, checking
/// every output, with a reference spawn after each run. Returns the
/// normalized and the wall times, and raises `peak_kb` as
/// [`prepare`] does.
pub fn timed_window(
    ctx: &Ctx,
    inputs: &[Input],
    seed: u64,
    seconds: f64,
    reference: &mut Reference,
    report: &mut Report,
    peak_kb: &mut u64,
) -> Result<(Timings, Timings), String> {
    let mut order = one_shot_order(seed, inputs.len());
    let mut wall = vec![Vec::new(); inputs.len()];
    // The reference spawn after each timed run.
    let mut spawn = vec![Vec::new(); inputs.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let i = order.next().expect("rounds never end");
        let input = &inputs[i];
        let ran = run_tracked(ctx, &input.args, peak_kb)?;
        let outcome = same_output(&input.name, &ran.out, &input.reference);
        let after = reference.probe(1)?.start;
        if outcome.is_ok() {
            wall[i].push(ran.took.as_secs_f64() * 1e3);
            spawn[i].push(after);
        }
        report.op(outcome);
    }
    for input in inputs {
        if let Some((path, primed)) = &input.snapshot {
            let now = std::fs::read(path).map(|b| digest(&b)).unwrap_or_default();
            report.op(if &now == primed {
                Ok(())
            } else {
                Err(format!("{}: warm runs changed the snapshot", input.name))
            });
        }
    }
    if wall.iter().all(Vec::is_empty) {
        return Err("no run completed in the timed window".into());
    }
    let normalized = wall
        .iter()
        .zip(&spawn)
        .map(|(ms, at)| {
            ms.iter()
                .zip(at)
                .map(|(ms, &at)| ms * reference.scale_at(at))
                .collect()
        })
        .collect();
    Ok((
        Timings {
            per_input: normalized,
        },
        Timings { per_input: wall },
    ))
}

/// Measures a one-shot workload: set-up repeated [`SETUP_REPEATS`]
/// times, then the timed window. Returns the report and the last
/// set-up's inputs, which the trace replays.
pub fn measure(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Report, Vec<Input>), String> {
    let mut report = Report::default();
    let mut reference = Reference::default();
    let mut setups = Vec::new();
    let mut scaled_setups = Vec::new();
    let mut inputs = Vec::new();
    // The largest peak resident set of this workload's own CLI runs.
    let mut peak_kb = 0;
    for _ in 0..SETUP_REPEATS {
        let before = reference.probe(BLOCK)?;
        let start = Instant::now();
        inputs = prepare(ctx, workload, &mut report, &mut peak_kb)?;
        let took = start.elapsed().as_secs_f64();
        setups.push(took);
        scaled_setups.push(took * reference.scale_over(before));
    }
    let (timings, wall) = timed_window(
        ctx,
        &inputs,
        seed,
        seconds,
        &mut reference,
        &mut report,
        &mut peak_kb,
    )?;
    let timed = |setups: &[f64], t: &Timings| Timed {
        setup_s: percentile(&sorted(setups), 50.0),
        p50_ms: t.p50_ms(),
        p90_ms: t.tail_ms(90.0),
        per_s: t.runs_per_s(),
    };
    report_timings(
        &mut report,
        &reference,
        timed(&scaled_setups, &timings),
        timed(&setups, &wall),
    );
    report.metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    report.diagnostic("runs", serde_json::json!(timings.runs() as u64));
    if let Some(q) = tail_percentile(timings.runs()) {
        report.diagnostic(
            "latency_ms_tail",
            serde_json::json!({"percentile": q, "value": number(timings.tail_ms(q))}),
        );
    }
    report.diagnostic(
        "wall_per_input_p50_ms",
        Value::Object(
            inputs
                .iter()
                .zip(&wall.per_input)
                .filter(|(_, s)| !s.is_empty())
                .map(|(input, s)| (input.name.clone(), number(percentile(&sorted(s), 50.0))))
                .collect(),
        ),
    );
    report.diagnostic(
        "wall_setup_s_each",
        Value::Array(setups.iter().map(|&s| number(s)).collect()),
    );
    Ok((report, inputs))
}
