//! `benchmark` — the repository benchmark. It drives the release
//! `claire-cli` as a black box (one-shot processes and a resident
//! `serve --listen <unix socket>`), checks every output, and for the
//! traced run replays each workload in-process through the crates'
//! public functions. `run.sh` next to this file builds both and passes
//! `--cli` and `--root`; see README.md for the workloads and metrics.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run     [--seed <n>] [--seconds <s>] [--out <dir>]
//! benchmark trace   [--seed <n>] [--seconds <s>] [--out <dir>]
//! benchmark compare <dir A> <dir B>
//! ```

mod compare;
mod host;
mod inputs;
mod oneshot;
mod oracle;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use inputs::Workload;
use oracle::Oracle;
use report::Report;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Run length of `run` and `trace` when `--seconds` is not given; the
/// one `BENCHMARK.json` names.
const DEFAULT_SECONDS: f64 = 20.0;

/// Everything a workload needs to reach the program under test.
pub struct Ctx {
    /// Root of the repository checkout.
    pub root: PathBuf,
    /// The release `claire-cli`.
    pub cli: PathBuf,
    /// Scratch directory of this process, removed when it ends.
    pub work: PathBuf,
    /// Pinned output digests.
    pub oracle: Oracle,
    /// CPUs this process and the program under test may run on.
    pub nproc: usize,
}

impl Ctx {
    /// The server's socket path: relative to the current directory when
    /// the work directory lies below it, which keeps it within the
    /// length a unix socket address allows.
    pub fn socket_path(&self) -> PathBuf {
        let path = self.work.join("serve.sock");
        std::env::current_dir()
            .ok()
            .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
            .unwrap_or(path)
    }
}

/// Parsed command line.
struct Args {
    command: String,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    cli: Option<PathBuf>,
    root: Option<PathBuf>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        cli: None,
        root: None,
        out: None,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--cli" => args.cli = Some(PathBuf::from(value()?)),
            "--root" => args.root = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word if args.command.is_empty() && args.workload.is_none() => {
                args.command = word.to_owned();
            }
            word => args.positional.push(word.to_owned()),
        }
    }
    Ok(args)
}

/// The revision of the checkout: `.git/HEAD` resolved through loose or
/// packed refs, without running git. A checkout without `.git` reads
/// "unknown".
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Checks that `cli` is a release build and returns its digest. Timing
/// a debug build would measure the compiler's checks, not the program.
fn release_cli(cli: &Path) -> Result<String, String> {
    if cfg!(debug_assertions) {
        return Err("the benchmark itself is a debug build; build it with --release".into());
    }
    let profile = cli.parent().and_then(Path::file_name);
    if profile.and_then(|p| p.to_str()) != Some("release") {
        return Err(format!(
            "{} is not a release build (expected it under a `release` directory)",
            cli.display()
        ));
    }
    let bytes = std::fs::read(cli).map_err(|e| format!("cannot read {}: {e}", cli.display()))?;
    Ok(stats::digest(&bytes))
}

/// One measured workload: its report, as the results file records it.
fn results_record(
    ctx: &Ctx,
    cli_digest: &str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &Report,
) -> Value {
    serde_json::json!({
        "workload": workload.name(),
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "nproc": ctx.nproc as u64,
        "git_revision": git_revision(&ctx.root),
        "build_profile": "release",
        "claire_cli": serde_json::json!({
            "path": ctx.cli.display().to_string(),
            "fnv64": cli_digest,
        }),
        "correct": report.correct(),
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": report.problems.clone(),
        "metrics": report.metrics_value(),
        "extras": report.extras_value(),
        "diagnostics": Value::Object(report.diagnostics.clone()),
    })
}

/// Measures one workload and writes its results file into `out`.
fn measure(
    ctx: &Ctx,
    cli_digest: &str,
    out: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Report, String> {
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let base = format!(
        "{}.seed{seed}.{}.{stamp}",
        workload.name(),
        if traced { "trace" } else { "run" }
    );
    let report = if traced {
        trace::run(
            ctx,
            workload,
            seed,
            seconds,
            &out.join(format!("{base}.chrome.json")),
        )?
    } else if workload == Workload::ServeMixed {
        serve::measure(ctx, seed, seconds, None)?.0
    } else {
        oneshot::measure(ctx, workload, seed, seconds)?.0
    };
    let record = results_record(ctx, cli_digest, workload, seed, seconds, traced, &report);
    let path = out.join(format!("{base}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).unwrap_or_default(),
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(report)
}

/// Prints a report's metrics, one per line with its unit, and its
/// failures.
fn print_report(workload: Workload, report: &Report) {
    for m in report.metrics.iter().chain(&report.extras) {
        println!(
            "{:<12} {:<32} {:>16.6} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!(
        "{:<12} attempted {} failed {}",
        workload.name(),
        report.attempted,
        report.failed
    );
    for p in &report.problems {
        println!("{:<12} FAILED: {p}", workload.name());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == [host::REFERENCE_ARG] {
        return;
    }
    match real_main(&argv) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn real_main(argv: &[String]) -> Result<i32, String> {
    let args = parse_args(argv)?;
    let root = args.root.clone().unwrap_or_else(|| PathBuf::from("."));
    if args.command == "compare" {
        let [a, b] = args.positional.as_slice() else {
            return Err("usage: benchmark compare <dir A> <dir B>".into());
        };
        let agree = compare::run(&root.join("BENCHMARK.json"), Path::new(a), Path::new(b))?;
        return Ok(if agree { 0 } else { 1 });
    }

    let cli = args
        .cli
        .clone()
        .ok_or("--cli <path to claire-cli> is required")?;
    let cli_digest = release_cli(&cli)?;
    let target = cli
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the build directory")?;
    let bench_dir = target.join("benchmark");
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| bench_dir.join("results"));
    let work = bench_dir.join(format!("w{}", std::process::id()));
    for dir in [&out, &work] {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let ctx = Ctx {
        root,
        cli,
        work,
        oracle: Oracle::pinned(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let seed = args.seed.unwrap_or_else(|| ctx.oracle.default_seed());
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let result = dispatch(&ctx, &cli_digest, &out, &args, seed, seconds);
    let _ = std::fs::remove_dir_all(&ctx.work);
    result
}

fn dispatch(
    ctx: &Ctx,
    cli_digest: &str,
    out: &Path,
    args: &Args,
    seed: u64,
    seconds: f64,
) -> Result<i32, String> {
    if let Some(name) = &args.workload {
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        if !args.command.is_empty() {
            return Err(format!("unexpected argument `{}`", args.command));
        }
        let report = measure(ctx, cli_digest, out, workload, seed, seconds, args.trace)?;
        print_report(workload, &report);
        println!("{}", report.result_line());
        return Ok(0);
    }
    let traced = match args.command.as_str() {
        "run" => false,
        "trace" => true,
        other => {
            return Err(format!(
                "unknown command `{other}`; see the usage in README.md next to run.sh"
            ))
        }
    };
    let mut all_correct = true;
    for workload in Workload::ALL {
        let report = measure(ctx, cli_digest, out, workload, seed, seconds, traced)?;
        print_report(workload, &report);
        all_correct &= report.correct();
    }
    println!("results in {}", out.display());
    Ok(if all_correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let v: Value = serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_owned(),
                        m["unit"].as_str().unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let per_layer: Vec<(String, String)> = trace::PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(names("per_layer"), per_layer);
        let e2e: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "latency_ms_p50",
                "throughput_per_s",
                "peak_rss_mb"
            ]
        );
        let workloads: Vec<&str> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn workload_arguments_parse() {
        let argv: Vec<String> = [
            "--cli",
            "x/release/claire-cli",
            "--workload",
            "flow-cold",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .map(str::to_owned)
        .to_vec();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("flow-cold"));
        assert_eq!(a.seed, Some(3));
        assert_eq!(a.seconds, Some(10.0));
        assert!(a.trace);
        assert!(a.command.is_empty());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
    }

    #[test]
    fn compare_takes_two_directories() {
        let a = parse_args(&["compare".into(), "a".into(), "b".into()]).unwrap();
        assert_eq!(a.command, "compare");
        assert_eq!(a.positional, ["a", "b"]);
    }

    #[test]
    fn a_debug_directory_is_refused() {
        let err = release_cli(Path::new("target/debug/claire-cli")).unwrap_err();
        assert!(err.contains("debug") || err.contains("release"), "{err}");
    }
}
