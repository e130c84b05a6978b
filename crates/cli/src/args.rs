//! Minimal dependency-free argument parsing for the CLI.

use std::fmt;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `models [--extended]` — list the built-in algorithms.
    Models {
        /// Include the extended test set.
        extended: bool,
    },
    /// `custom <model> [--json] [--config <file>]`.
    Custom {
        /// Algorithm name (zoo lookup).
        model: String,
        /// Emit machine-readable JSON.
        json: bool,
        /// Optional RunConfig JSON file.
        config: Option<String>,
    },
    /// `train [--paper-subsets] [--threshold <t>] [--json] [--config <file>]`.
    Train {
        /// Pin the paper's Table III partition.
        paper_subsets: bool,
        /// Weighted-Jaccard threshold for the algorithmic partition.
        threshold: Option<f64>,
        /// Emit machine-readable JSON.
        json: bool,
        /// Optional RunConfig JSON file.
        config: Option<String>,
    },
    /// `init-config <file>` — write the default RunConfig JSON.
    InitConfig {
        /// Destination path.
        path: String,
    },
    /// `flow [--paper-subsets] [--extended] [--json]` — train + test.
    Flow {
        /// Pin the paper's Table III partition.
        paper_subsets: bool,
        /// Append the extended test set.
        extended: bool,
        /// Emit machine-readable JSON.
        json: bool,
    },
    /// `parse <file> [--image CxHxW] [--seq TOKENSxFEATURES] [--name <n>] [--json]`.
    Parse {
        /// Path to a `print(model)` dump.
        path: String,
        /// Image input shape.
        image: Option<(u32, u32, u32)>,
        /// Sequence input shape.
        seq: Option<(u32, u32)>,
        /// Model name to record.
        name: String,
        /// Emit machine-readable JSON.
        json: bool,
    },
    /// `describe <model>` — per-layer and profile summary.
    Describe {
        /// Algorithm name (zoo lookup).
        model: String,
    },
    /// `export-library <file> [--paper-subsets] [--threshold <t>]` —
    /// train and persist the hardened chiplet library.
    ExportLibrary {
        /// Destination path.
        path: String,
        /// Pin the paper's Table III partition.
        paper_subsets: bool,
        /// Weighted-Jaccard threshold for the algorithmic partition.
        threshold: Option<f64>,
    },
    /// `deploy <model> --library <file> [--json]` — deploy an
    /// algorithm onto a stored library without retraining.
    Deploy {
        /// Algorithm name (zoo lookup).
        model: String,
        /// Library file path.
        library: String,
        /// Emit machine-readable JSON.
        json: bool,
    },
    /// `simulate <model> [--overlap] [--batch <n>]` — run the
    /// discrete-event simulator on a custom configuration.
    Simulate {
        /// Algorithm name (zoo lookup).
        model: String,
        /// Use tile-granular overlapped execution.
        overlap: bool,
        /// Pipelined batch size (1 = single inference).
        batch: usize,
    },
    /// `serve [--config <file>] [--listen <addr>] [--queue <n>]
    /// [--io-timeout-ms <ms>] [--checkpoint-ms <ms>]
    /// [--serve-faults <spec>] [--event-log <path>]` — resident engine
    /// answering JSON-lines requests on stdin or a socket.
    Serve {
        /// Optional RunConfig JSON file.
        config: Option<String>,
        /// Socket address: a unix path (contains `/`) or `host:port`;
        /// `None` serves stdin.
        listen: Option<String>,
        /// Admission queue capacity before typed load shedding.
        queue: usize,
        /// Per-connection read/write timeout, milliseconds.
        io_timeout_ms: u64,
        /// Warm-state checkpoint interval, milliseconds (0 disables).
        checkpoint_ms: u64,
        /// Seeded serve-layer fault drill: `SEED[:RATE|:class=rate,…]`.
        serve_faults: Option<String>,
        /// Stream one JSON object per request lifecycle transition to
        /// this path (`None` disables the structured event log).
        event_log: Option<String>,
    },
    /// `help`.
    Help,
}

/// Argument-parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseArgsError {}

fn err(msg: impl Into<String>) -> ParseArgsError {
    ParseArgsError(msg.into())
}

fn parse_dims2(s: &str) -> Result<(u32, u32), ParseArgsError> {
    let parts: Vec<_> = s.split('x').collect();
    if parts.len() != 2 {
        return Err(err(format!("expected AxB, got `{s}`")));
    }
    Ok((
        parts[0]
            .parse()
            .map_err(|_| err(format!("bad number in `{s}`")))?,
        parts[1]
            .parse()
            .map_err(|_| err(format!("bad number in `{s}`")))?,
    ))
}

fn parse_dims3(s: &str) -> Result<(u32, u32, u32), ParseArgsError> {
    let parts: Vec<_> = s.split('x').collect();
    if parts.len() != 3 {
        return Err(err(format!("expected CxHxW, got `{s}`")));
    }
    let p = |i: usize| -> Result<u32, ParseArgsError> {
        parts[i]
            .parse()
            .map_err(|_| err(format!("bad number in `{s}`")))
    };
    Ok((p(0)?, p(1)?, p(2)?))
}

/// Strips a global `--threads <n>` option (valid with any command)
/// from the raw argument list, returning the worker count and the
/// remaining arguments for [`parse_args`].
///
/// # Errors
///
/// Returns [`ParseArgsError`] when the value is missing, not a
/// number, zero, or above [`claire_ppa::MAX_THREADS`].
pub fn extract_threads(args: &[String]) -> Result<(Option<usize>, Vec<String>), ParseArgsError> {
    let mut threads = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            let v = it.next().ok_or_else(|| err("--threads requires a value"))?;
            let n: usize = v
                .parse()
                .map_err(|_| err(format!("bad thread count `{v}`")))?;
            if n == 0 {
                return Err(err("--threads must be at least 1"));
            }
            if n > claire_ppa::MAX_THREADS {
                return Err(err(format!(
                    "--threads {n} is above the limit of {}",
                    claire_ppa::MAX_THREADS
                )));
            }
            threads = Some(n);
        } else {
            rest.push(a.clone());
        }
    }
    Ok((threads, rest))
}

/// Strips a global `--degrade` flag (valid with any command) from the
/// raw argument list, returning whether graceful degradation was
/// requested and the remaining arguments for [`parse_args`].
pub fn extract_degrade(args: &[String]) -> (bool, Vec<String>) {
    let mut degrade = false;
    let mut rest = Vec::with_capacity(args.len());
    for a in args {
        if a == "--degrade" {
            degrade = true;
        } else {
            rest.push(a.clone());
        }
    }
    (degrade, rest)
}

/// Strips a global `--trace-out <path>` option (valid with any
/// command) from the raw argument list, returning the Chrome-trace
/// export path and the remaining arguments for [`parse_args`].
///
/// # Errors
///
/// Returns [`ParseArgsError`] when the value is missing.
pub fn extract_trace_out(args: &[String]) -> Result<(Option<String>, Vec<String>), ParseArgsError> {
    extract_path_option(args, "--trace-out")
}

/// Strips a global `--metrics-json <path>` option (valid with any
/// command) from the raw argument list, returning the metrics export
/// path and the remaining arguments for [`parse_args`].
///
/// # Errors
///
/// Returns [`ParseArgsError`] when the value is missing.
pub fn extract_metrics_json(
    args: &[String],
) -> Result<(Option<String>, Vec<String>), ParseArgsError> {
    extract_path_option(args, "--metrics-json")
}

/// Strips a global `--cache-dir <dir>` option (valid with any
/// command) from the raw argument list, returning the warm-state
/// snapshot directory and the remaining arguments for [`parse_args`].
/// When set, the engine loads `<dir>/claire.snapshot` before the flow
/// (falling back to a cold start, with a warning, when the file is
/// missing or invalid) and, on success, saves the warmed memo tiers
/// back when they grew or the file is missing or foreign.
///
/// # Errors
///
/// Returns [`ParseArgsError`] when the value is missing.
pub fn extract_cache_dir(args: &[String]) -> Result<(Option<String>, Vec<String>), ParseArgsError> {
    extract_path_option(args, "--cache-dir")
}

fn extract_path_option(
    args: &[String],
    name: &str,
) -> Result<(Option<String>, Vec<String>), ParseArgsError> {
    let mut path = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            let v = it
                .next()
                .ok_or_else(|| err(format!("{name} requires a value")))?;
            path = Some(v.clone());
        } else {
            rest.push(a.clone());
        }
    }
    Ok((path, rest))
}

/// The options each command takes, as its usage line in [`USAGE`]
/// lists them: `(command, flags, options that take a value)`. The
/// global options are stripped before [`parse_args`] runs.
const OPTIONS: &[(&str, &[&str], &[&str])] = &[
    ("models", &["--extended"], &[]),
    ("custom", &["--json"], &["--config"]),
    (
        "train",
        &["--paper-subsets", "--json"],
        &["--threshold", "--config"],
    ),
    ("init-config", &[], &[]),
    ("flow", &["--paper-subsets", "--extended", "--json"], &[]),
    ("parse", &["--json"], &["--image", "--seq", "--name"]),
    ("simulate", &["--overlap"], &["--batch"]),
    ("describe", &[], &[]),
    ("export-library", &["--paper-subsets"], &["--threshold"]),
    ("deploy", &["--json"], &["--library"]),
    (
        "serve",
        &[],
        &[
            "--config",
            "--listen",
            "--queue",
            "--io-timeout-ms",
            "--checkpoint-ms",
            "--serve-faults",
            "--event-log",
        ],
    ),
    ("help", &[], &[]),
];

/// Parses the command line (excluding argv\[0\]).
///
/// # Errors
///
/// Returns [`ParseArgsError`] with a usage-style message on unknown
/// commands, options the command does not take, options missing their
/// value, or malformed values.
pub fn parse_args(args: &[String]) -> Result<Command, ParseArgsError> {
    let mut it = args.iter().map(String::as_str);
    let cmd = match it.next() {
        None | Some("--help" | "-h") => "help",
        Some(cmd) => cmd,
    };
    let rest: Vec<&str> = it.collect();
    let Some(&(_, flags, valued)) = OPTIONS.iter().find(|(name, ..)| *name == cmd) else {
        return Err(err(format!(
            "unknown command `{cmd}` (try `claire-cli help`)"
        )));
    };

    let mut positional = Vec::new();
    let mut args = rest.iter();
    while let Some(&a) = args.next() {
        if valued.contains(&a) {
            args.next()
                .ok_or_else(|| err(format!("{a} requires a value")))?;
        } else if !a.starts_with("--") {
            positional.push(a);
        } else if !flags.contains(&a) {
            return Err(err(format!("`{cmd}` does not take {a}")));
        }
    }
    let flag = |name: &str| rest.contains(&name);
    let value = |name: &str| -> Option<&str> {
        rest.iter()
            .position(|a| *a == name)
            .and_then(|i| rest.get(i + 1).copied())
    };

    match cmd {
        "models" => Ok(Command::Models {
            extended: flag("--extended"),
        }),
        "custom" => {
            let model = positional
                .first()
                .ok_or_else(|| err("usage: custom <model> [--json]"))?;
            Ok(Command::Custom {
                model: (*model).to_owned(),
                json: flag("--json"),
                config: value("--config").map(str::to_owned),
            })
        }
        "train" => Ok(Command::Train {
            paper_subsets: flag("--paper-subsets"),
            threshold: value("--threshold")
                .map(|v| {
                    v.parse::<f64>()
                        .map_err(|_| err(format!("bad threshold `{v}`")))
                })
                .transpose()?,
            json: flag("--json"),
            config: value("--config").map(str::to_owned),
        }),
        "init-config" => {
            let path = positional
                .first()
                .ok_or_else(|| err("usage: init-config <file>"))?;
            Ok(Command::InitConfig {
                path: (*path).to_owned(),
            })
        }
        "flow" => Ok(Command::Flow {
            paper_subsets: flag("--paper-subsets"),
            extended: flag("--extended"),
            json: flag("--json"),
        }),
        "parse" => {
            let path = positional
                .first()
                .ok_or_else(|| err("usage: parse <file> [--image CxHxW | --seq TxF]"))?;
            let image = value("--image").map(parse_dims3).transpose()?;
            let seq = value("--seq").map(parse_dims2).transpose()?;
            if image.is_some() && seq.is_some() {
                return Err(err("--image and --seq are mutually exclusive"));
            }
            Ok(Command::Parse {
                path: (*path).to_owned(),
                image,
                seq,
                name: value("--name").unwrap_or("parsed").to_owned(),
                json: flag("--json"),
            })
        }
        "describe" => {
            let model = positional
                .first()
                .ok_or_else(|| err("usage: describe <model>"))?;
            Ok(Command::Describe {
                model: (*model).to_owned(),
            })
        }
        "export-library" => {
            let path = positional
                .first()
                .ok_or_else(|| err("usage: export-library <file> [--paper-subsets]"))?;
            Ok(Command::ExportLibrary {
                path: (*path).to_owned(),
                paper_subsets: flag("--paper-subsets"),
                threshold: value("--threshold")
                    .map(|v| {
                        v.parse::<f64>()
                            .map_err(|_| err(format!("bad threshold `{v}`")))
                    })
                    .transpose()?,
            })
        }
        "deploy" => {
            let model = positional
                .first()
                .ok_or_else(|| err("usage: deploy <model> --library <file>"))?;
            let library =
                value("--library").ok_or_else(|| err("deploy requires --library <file>"))?;
            Ok(Command::Deploy {
                model: (*model).to_owned(),
                library: library.to_owned(),
                json: flag("--json"),
            })
        }
        "simulate" => {
            let model = positional
                .first()
                .ok_or_else(|| err("usage: simulate <model> [--overlap] [--batch <n>]"))?;
            let batch = value("--batch")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| err(format!("bad batch `{v}`")))
                })
                .transpose()?
                .unwrap_or(1);
            if batch == 0 {
                return Err(err("batch must be at least 1"));
            }
            Ok(Command::Simulate {
                model: (*model).to_owned(),
                overlap: flag("--overlap"),
                batch,
            })
        }
        "serve" => {
            let queue = value("--queue")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| err(format!("bad queue capacity `{v}`")))
                })
                .transpose()?
                .unwrap_or(64);
            if queue == 0 {
                return Err(err("--queue must be at least 1"));
            }
            let io_timeout_ms = value("--io-timeout-ms")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| err(format!("bad io timeout `{v}`")))
                })
                .transpose()?
                .unwrap_or(30_000);
            if io_timeout_ms == 0 {
                return Err(err("--io-timeout-ms must be at least 1"));
            }
            let checkpoint_ms = value("--checkpoint-ms")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| err(format!("bad checkpoint interval `{v}`")))
                })
                .transpose()?
                .unwrap_or(15_000);
            Ok(Command::Serve {
                config: value("--config").map(str::to_owned),
                listen: value("--listen").map(str::to_owned),
                queue,
                io_timeout_ms,
                checkpoint_ms,
                serve_faults: value("--serve-faults").map(str::to_owned),
                event_log: value("--event-log").map(str::to_owned),
            })
        }
        "help" => Ok(Command::Help),
        other => unreachable!("`{other}` is listed in OPTIONS but has no parser"),
    }
}

/// The help text.
pub const USAGE: &str = "\
claire-cli — composable chiplet libraries for AI inference

USAGE:
  claire-cli models [--extended]
      List the built-in algorithm zoo.
  claire-cli custom <model> [--json] [--config <file>]
      Derive a custom chiplet configuration for one algorithm.
  claire-cli train [--paper-subsets] [--threshold <t>] [--json]
             [--config <file>]
      Run the training phase on the 13 Table-I algorithms.
  claire-cli init-config <file>
      Write the default RunConfig JSON (constraints, DSE space, NRE
      calibration) for editing and reuse via --config.
  claire-cli flow [--paper-subsets] [--extended] [--json]
      Full train + test flow (optionally with the extended test set).
  claire-cli parse <file> [--image CxHxW | --seq TOKENSxFEATURES]
             [--name <n>] [--json]
      Parse a PyTorch print(model) dump and derive a custom
      configuration for it.
  claire-cli simulate <model> [--overlap] [--batch <n>]
      Discrete-event simulation of the model on its custom
      configuration (validates the analytical latency).
  claire-cli describe <model>
      Layer inventory, compute profile and arithmetic intensity.
  claire-cli export-library <file> [--paper-subsets] [--threshold <t>]
      Train on the Table-I set and persist the hardened chiplet
      library as a JSON artifact.
  claire-cli deploy <model> --library <file> [--json]
      Deploy an algorithm onto a stored library without retraining.
  claire-cli serve [--config <file>] [--listen <addr>] [--queue <n>]
             [--io-timeout-ms <ms>] [--checkpoint-ms <ms>]
             [--serve-faults <spec>] [--event-log <path>]
      Stay resident and answer JSON-lines requests (one object per
      line, one response per line). Concurrent requests are batched
      into shared evaluations over one warm engine. Without --listen
      the protocol runs on stdin/stdout; --listen binds a multi-client
      socket instead: a unix path when the address contains '/'
      (e.g. /tmp/claire.sock), else host:port (the bound address —
      useful with :0 — is announced on stderr). Ops:
        {\"op\":\"custom\",\"model\":\"Resnet50\"}
        {\"op\":\"custom\",\"printout\":\"<print(model) dump>\",
         \"name\":\"net\",\"image\":[3,224,224]}     (or \"seq\":[T,F])
        {\"op\":\"assign\",\"model\":\"VGG16\"}
        {\"op\":\"what_if\",\"model\":\"Resnet50\",
         \"constraints\":{\"chiplet_area_limit_mm2\":50.0}}
        {\"op\":\"stats\"}   (live introspection: answered immediately,
         mid-serve, without pausing dispatch — counters, queue/
         in-flight gauges, uptime, snapshot generation, exact
         queue-wait/latency quantiles and 1s/10s/60s request/shed/
         deadline-expiry rates)
      Optional per request: \"id\" (echoed back), \"degrade\"
      (true/false overrides the global policy), \"deadline_ms\"
      (latency budget; a lapsed request is answered with error code 14
      — still queued, or cancelled cooperatively mid-evaluation —
      without touching its batch neighbours), \"trace_out\" (write
      the engine trace so far to this path; needs --trace-out to arm
      tracing). Every response and typed error echoes a serve-assigned
      monotonic \"trace_id\" for correlation with the event log and
      flight recorder. Errors come back typed per request:
      {\"ok\":false,\"error\":{\"code\":N,\"detail\":...}} with the
      exit-code numbering below; the server keeps running.
      Robustness knobs:
        --queue <n>           Admission queue capacity (default 64).
                              A full queue answers code 13 instead of
                              queueing unboundedly.
        --io-timeout-ms <ms>  Socket read/write timeout (default
                              30000). A stalled (slow-loris) client
                              gets a typed code-2 answer and a closed
                              connection.
        --checkpoint-ms <ms>  Warm-state checkpoint interval (default
                              15000; 0 disables; needs --cache-dir).
                              Checkpoints are atomic tmp+rename,
                              generation-countered, and skipped while
                              the memo tiers are unchanged. SIGINT/
                              SIGTERM drains the queue and saves once
                              more, so kill -9 loses at most one
                              interval of warmth — never snapshot
                              validity.
        --serve-faults <spec> Seeded serve-layer fault drill:
                              SEED (all classes at 0.1), SEED:RATE,
                              or SEED:class=rate,... over classes
                              dropped_connection, slow_loris_client,
                              mid_batch_panic,
                              checkpoint_write_failure. Faults stay in
                              the serving layer — answers remain
                              bit-identical to a fault-free run.
        --event-log <path>    Stream one JSON object per request
                              lifecycle transition (received ->
                              admitted/shed -> dispatched ->
                              evaluating -> answered/errored) to this
                              path, written by a dedicated logger
                              thread behind a bounded channel; drops
                              under pressure are counted in
                              serve.events_dropped, never silent.
                              Independent of the always-on in-memory
                              flight recorder, which dumps the recent
                              event ring to
                              <cache-dir>/flight-<pid>.json on panic,
                              drain and fault containment.
  claire-cli help
      Show this text.

Any command also accepts --threads <n> to set the evaluation
engine's worker count, at most 256 (else CLAIRE_THREADS, else all
cores), and --degrade to relax constraints (latency slack, then
power density, then chiplet area) instead of failing when the DSE
finds no feasible configuration; degraded results are flagged on
stderr.

Warm-state persistence (also valid with any command):
  --cache-dir <dir>      Load <dir>/claire.snapshot into the engine
                         before the flow and save the warmed memo
                         tiers back after it — only when the run
                         memoized something new, or the file is
                         missing or foreign. Results are bit-identical
                         to a cold run — the snapshot only stores memo
                         entries keyed by their exact inputs. A
                         missing, corrupt or version-mismatched
                         snapshot degrades to a cold start with a
                         warning on stderr; it never fails the run.

Telemetry exports (also valid with any command):
  --trace-out <path>     Write a Chrome Trace Event JSON of the run
                         (load in Perfetto or chrome://tracing; one
                         track per worker thread). Enables tracing.
  --metrics-json <path>  Write the run's counters, gauges, digests
                         ({count, p50, p90, p99, max} per
                         distribution), stage aggregates and
                         per-worker utilization as JSON.
  An export path that cannot be written exits 9 (invalid input).

EXIT CODES:
  0 success (including --degrade fallbacks)   2 usage / bad input file
  3 empty algorithm set      4 no feasible configuration
  5 chiplet area unsatisfiable   6 incomplete coverage
  7 worker panic             8 non-finite metric
  9 invalid input           10 no interposer route
 11 internal invariant violation   12 invalid warm-state snapshot
 13 overloaded (admission queue full, request shed)
 14 deadline exceeded (request budget lapsed)
  1 other errors
";

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn models_with_extended() {
        assert_eq!(
            parse_args(&v(&["models", "--extended"])).unwrap(),
            Command::Models { extended: true }
        );
    }

    #[test]
    fn custom_requires_model() {
        assert!(parse_args(&v(&["custom"])).is_err());
        assert_eq!(
            parse_args(&v(&["custom", "Resnet50", "--json"])).unwrap(),
            Command::Custom {
                model: "Resnet50".into(),
                json: true,
                config: None
            }
        );
        match parse_args(&v(&["custom", "Resnet50", "--config", "run.json"])).unwrap() {
            Command::Custom { config, .. } => assert_eq!(config.as_deref(), Some("run.json")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn train_threshold_parses() {
        match parse_args(&v(&["train", "--threshold", "0.45"])).unwrap() {
            Command::Train { threshold, .. } => assert_eq!(threshold, Some(0.45)),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&v(&["train", "--threshold", "abc"])).is_err());
    }

    #[test]
    fn parse_image_dims() {
        match parse_args(&v(&["parse", "net.txt", "--image", "3x224x224"])).unwrap() {
            Command::Parse { image, seq, .. } => {
                assert_eq!(image, Some((3, 224, 224)));
                assert_eq!(seq, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_seq_dims() {
        match parse_args(&v(&[
            "parse", "net.txt", "--seq", "128x768", "--name", "enc",
        ]))
        .unwrap()
        {
            Command::Parse { seq, name, .. } => {
                assert_eq!(seq, Some((128, 768)));
                assert_eq!(name, "enc");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn image_and_seq_conflict() {
        let e =
            parse_args(&v(&["parse", "n.txt", "--image", "3x8x8", "--seq", "1x2"])).unwrap_err();
        assert!(e.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn threads_is_extracted_from_any_position() {
        let (t, rest) = extract_threads(&v(&["train", "--threads", "4", "--json"])).unwrap();
        assert_eq!(t, Some(4));
        assert_eq!(rest, v(&["train", "--json"]));
        assert_eq!(
            parse_args(&rest).unwrap(),
            Command::Train {
                paper_subsets: false,
                threshold: None,
                json: true,
                config: None
            }
        );
    }

    #[test]
    fn degrade_is_extracted_from_any_position() {
        let (d, rest) = extract_degrade(&v(&["flow", "--degrade", "--json"]));
        assert!(d);
        assert_eq!(rest, v(&["flow", "--json"]));
        let (d, rest) = extract_degrade(&v(&["train"]));
        assert!(!d);
        assert_eq!(rest, v(&["train"]));
    }

    #[test]
    fn telemetry_paths_are_extracted_from_any_position() {
        let (trace, rest) =
            extract_trace_out(&v(&["flow", "--trace-out", "t.json", "--json"])).unwrap();
        assert_eq!(trace.as_deref(), Some("t.json"));
        assert_eq!(rest, v(&["flow", "--json"]));
        let (metrics, rest) =
            extract_metrics_json(&v(&["--metrics-json", "m.json", "train"])).unwrap();
        assert_eq!(metrics.as_deref(), Some("m.json"));
        assert_eq!(rest, v(&["train"]));
        let (none, rest) = extract_trace_out(&v(&["flow"])).unwrap();
        assert_eq!(none, None);
        assert_eq!(rest, v(&["flow"]));
    }

    #[test]
    fn telemetry_paths_require_values() {
        assert!(extract_trace_out(&v(&["flow", "--trace-out"])).is_err());
        assert!(extract_metrics_json(&v(&["flow", "--metrics-json"])).is_err());
    }

    #[test]
    fn threads_rejects_zero_and_garbage() {
        assert!(extract_threads(&v(&["flow", "--threads", "0"])).is_err());
        assert!(extract_threads(&v(&["flow", "--threads", "many"])).is_err());
        assert!(extract_threads(&v(&["flow", "--threads"])).is_err());
    }

    #[test]
    fn threads_rejects_counts_above_the_bound() {
        let e = extract_threads(&v(&["flow", "--threads", "100000"])).unwrap_err();
        assert!(e.to_string().contains("256"), "{e}");
        let max = claire_ppa::MAX_THREADS.to_string();
        let (t, _) = extract_threads(&v(&["flow", "--threads", &max])).unwrap();
        assert_eq!(t, Some(claire_ppa::MAX_THREADS));
    }

    #[test]
    fn cache_dir_is_extracted_from_any_position() {
        let (dir, rest) =
            extract_cache_dir(&v(&["flow", "--cache-dir", ".cache", "--json"])).unwrap();
        assert_eq!(dir.as_deref(), Some(".cache"));
        assert_eq!(rest, v(&["flow", "--json"]));
        let (none, rest) = extract_cache_dir(&v(&["flow"])).unwrap();
        assert_eq!(none, None);
        assert_eq!(rest, v(&["flow"]));
        assert!(extract_cache_dir(&v(&["flow", "--cache-dir"])).is_err());
    }

    #[test]
    fn serve_parses_with_optional_config() {
        assert_eq!(
            parse_args(&v(&["serve"])).unwrap(),
            Command::Serve {
                config: None,
                listen: None,
                queue: 64,
                io_timeout_ms: 30_000,
                checkpoint_ms: 15_000,
                serve_faults: None,
                event_log: None,
            }
        );
        match parse_args(&v(&["serve", "--config", "run.json"])).unwrap() {
            Command::Serve { config, .. } => assert_eq!(config.as_deref(), Some("run.json")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_parses_robustness_knobs() {
        match parse_args(&v(&[
            "serve",
            "--listen",
            "/tmp/claire.sock",
            "--queue",
            "8",
            "--io-timeout-ms",
            "500",
            "--checkpoint-ms",
            "0",
            "--serve-faults",
            "42:mid_batch_panic=1.0",
            "--event-log",
            "events.jsonl",
        ]))
        .unwrap()
        {
            Command::Serve {
                listen,
                queue,
                io_timeout_ms,
                checkpoint_ms,
                serve_faults,
                event_log,
                ..
            } => {
                assert_eq!(listen.as_deref(), Some("/tmp/claire.sock"));
                assert_eq!(queue, 8);
                assert_eq!(io_timeout_ms, 500);
                assert_eq!(checkpoint_ms, 0);
                assert_eq!(serve_faults.as_deref(), Some("42:mid_batch_panic=1.0"));
                assert_eq!(event_log.as_deref(), Some("events.jsonl"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_rejects_degenerate_knobs() {
        assert!(parse_args(&v(&["serve", "--queue", "0"])).is_err());
        assert!(parse_args(&v(&["serve", "--queue", "many"])).is_err());
        assert!(parse_args(&v(&["serve", "--io-timeout-ms", "0"])).is_err());
        assert!(parse_args(&v(&["serve", "--checkpoint-ms", "soon"])).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(parse_args(&v(&["frobnicate"])).is_err());
    }

    /// Each command's usage line in [`USAGE`] (with its continuation
    /// lines) split into the options it lists, each with whether a
    /// value placeholder follows it.
    fn usage_options() -> Vec<(String, Vec<(String, bool)>)> {
        let mut out: Vec<(String, Vec<(String, bool)>)> = Vec::new();
        let mut continues = false;
        for line in USAGE.lines() {
            let words: Vec<&str> = if let Some(rest) = line.strip_prefix("  claire-cli ") {
                let mut words = rest.split_whitespace();
                let cmd = words.next().expect("usage line names a command");
                out.push((cmd.to_owned(), Vec::new()));
                words.collect()
            } else if continues && line.trim_start().starts_with('[') {
                line.split_whitespace().collect()
            } else {
                continues = false;
                continue;
            };
            continues = true;
            let words: Vec<&str> = words.iter().map(|w| w.trim_matches(['[', ']'])).collect();
            let opts = &mut out.last_mut().expect("a usage line came first").1;
            for (i, w) in words.iter().enumerate() {
                if w.starts_with("--") {
                    let next = words.get(i + 1).copied().unwrap_or("--");
                    opts.push(((*w).to_owned(), !next.starts_with("--") && next != "|"));
                }
            }
        }
        out
    }

    /// A command line each command parses without options.
    fn base_args(cmd: &str) -> Vec<String> {
        match cmd {
            "custom" | "describe" | "simulate" => v(&[cmd, "Alexnet"]),
            "deploy" => v(&[cmd, "Alexnet", "--library", "lib.json"]),
            "init-config" | "parse" | "export-library" => v(&[cmd, "file.json"]),
            _ => v(&[cmd]),
        }
    }

    #[test]
    fn every_usage_option_parses_and_strays_are_rejected() {
        let commands = usage_options();
        assert_eq!(commands.len(), OPTIONS.len(), "{commands:?}");
        for ((cmd, opts), (name, flags, valued)) in commands.iter().zip(OPTIONS) {
            assert_eq!(
                cmd, name,
                "USAGE and OPTIONS list the commands in one order"
            );
            let mut listed: Vec<(String, bool)> = flags
                .iter()
                .map(|f| ((*f).to_owned(), false))
                .chain(valued.iter().map(|o| ((*o).to_owned(), true)))
                .collect();
            listed.sort();
            let mut shown = opts.clone();
            shown.sort();
            assert_eq!(shown, listed, "`{cmd}`: USAGE and OPTIONS disagree");
            assert!(parse_args(&base_args(cmd)).is_ok(), "{cmd}");
            for (opt, takes_value) in opts {
                let mut args = base_args(cmd);
                args.push(opt.clone());
                if *takes_value {
                    let sample = match opt.as_str() {
                        "--threshold" => "0.5",
                        "--image" => "3x8x8",
                        "--seq" => "4x8",
                        "--batch" | "--queue" | "--io-timeout-ms" | "--checkpoint-ms" => "2",
                        _ => "x",
                    };
                    args.push(sample.to_owned());
                }
                assert!(parse_args(&args).is_ok(), "{args:?} should parse");
                if *takes_value {
                    args.pop();
                    let e = parse_args(&args).unwrap_err();
                    assert!(e.to_string().contains(opt.as_str()), "{args:?}: {e}");
                }
            }
            let mut stray = base_args(cmd);
            stray.push("--frobnicate".to_owned());
            let e = parse_args(&stray).unwrap_err();
            assert!(e.to_string().contains("--frobnicate"), "{stray:?}: {e}");
        }
        // An option another command takes is stray here.
        let e = parse_args(&v(&["flow", "--config", "tight.json"])).unwrap_err();
        assert!(e.to_string().contains("--config"), "{e}");
    }

    #[test]
    fn flag_values_not_treated_as_positionals() {
        match parse_args(&v(&["parse", "--name", "x", "file.txt"])).unwrap() {
            Command::Parse { path, name, .. } => {
                assert_eq!(path, "file.txt");
                assert_eq!(name, "x");
            }
            other => panic!("{other:?}"),
        }
    }
}
