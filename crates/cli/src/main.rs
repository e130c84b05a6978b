//! `claire-cli` — command-line front-end for the CLAIRE framework.
//!
//! See `claire-cli help` for usage; every command is also available as
//! a library call through the `claire-core` façade.

mod args;
mod serve;
mod summary;

use args::{
    extract_cache_dir, extract_degrade, extract_metrics_json, extract_threads, extract_trace_out,
    parse_args, Command, USAGE,
};
use claire_core::{
    paper_table3_subsets, ChipletLibrary, Claire, ClaireError, ClaireOptions, Degradation, Engine,
    RobustnessPolicy, RunConfig, SubsetStrategy, TelemetryOptions, TrainOutput, WeightScale,
};
use claire_model::parse::{parse_model, InputShape, ParseOptions};
use claire_model::{zoo, Model, ModelClass};
use std::io::{self, Write};
use std::path::PathBuf;
use summary::{CustomSummary, FlowSummary, TrainSummary};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (degrade, argv) = extract_degrade(&argv);
    let parsed = extract_trace_out(&argv).and_then(|(trace, rest)| {
        let (metrics, rest) = extract_metrics_json(&rest)?;
        let (cache_dir, rest) = extract_cache_dir(&rest)?;
        let (threads, rest) = extract_threads(&rest)?;
        Ok((parse_args(&rest)?, threads, trace, metrics, cache_dir))
    });
    let code = match parsed {
        Ok((cmd, threads, trace, metrics, cache_dir)) => {
            let globals = Globals {
                threads,
                degrade,
                cache_dir,
                telemetry: TelemetryOptions {
                    trace_out: trace.map(PathBuf::from),
                    metrics_out: metrics.map(PathBuf::from),
                },
            };
            // Stdout is line-buffered and every write ends a line, so a
            // write error surfaces at the write that hit it; the flush
            // sends whatever is left before the process exits.
            let mut stdout = io::stdout();
            match run(cmd, &globals, &mut stdout).and_then(|code| stdout.flush().map(|()| code)) {
                Ok(code) => code,
                // The reader closed stdout (`claire-cli models | head -1`):
                // it has all the output it wanted.
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
                Err(e) => {
                    eprintln!("error: cannot write to stdout: {e}");
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Maps each [`ClaireError`] variant to a distinct non-zero exit code
/// (documented in [`USAGE`]), so scripts can branch on the failure
/// class without scraping stderr.
fn exit_code(e: &ClaireError) -> i32 {
    match e {
        ClaireError::EmptyAlgorithmSet => 3,
        ClaireError::NoFeasibleConfiguration { .. } => 4,
        ClaireError::ChipletAreaUnsatisfiable { .. } => 5,
        ClaireError::IncompleteCoverage { .. } => 6,
        ClaireError::WorkerPanic { .. } => 7,
        ClaireError::NonFiniteMetric { .. } => 8,
        ClaireError::InvalidInput { .. } => 9,
        ClaireError::NoRoute { .. } => 10,
        ClaireError::Internal { .. } => 11,
        ClaireError::SnapshotInvalid { .. } => 12,
        ClaireError::Overloaded { .. } => 13,
        ClaireError::DeadlineExceeded { .. } => 14,
    }
}

/// Builds the engine a command runs on: tracing armed exactly when a
/// trace export path is set (mirrors the façade's internal policy).
///
/// The engine is leaked, never dropped. Each command that takes one
/// (`custom`, `train`, `flow`, `parse`) exports its telemetry, saves
/// its snapshot and writes its output before `main` ends the process,
/// so a drop would only wake and join the parked pool helper and free
/// every memo tier moments before the process exits.
fn engine_for(claire: &Claire) -> &'static Engine {
    Box::leak(Box::new(
        Engine::for_space(&claire.options().space)
            .with_tracing(claire.options().telemetry.trace_out.is_some()),
    ))
}

/// Loads the warm-state snapshot (if `--cache-dir` names one) into
/// `engine`. A corrupt or incompatible snapshot degrades to a cold
/// start with a warning — it never fails the run, and the staged
/// validation guarantees the engine is untouched.
fn load_warm(claire: &Claire, engine: &Engine) {
    if let Err(e) = claire.load_warm_state(engine) {
        eprintln!("warning: {e}; starting cold");
    }
}

/// Saves the warmed memo tiers back to `--cache-dir` after a
/// successful run, unless the file already holds them. A write
/// failure costs only the warm start of the next run, so it warns
/// instead of failing.
fn save_warm(claire: &Claire, engine: &Engine) {
    if let Err(e) = claire.save_warm_state(engine) {
        eprintln!("warning: failed to save warm state: {e}");
    }
}

/// Prints a pipeline error to stderr and returns its exit code.
fn fail(e: &ClaireError) -> i32 {
    eprintln!("error: {e}");
    exit_code(e)
}

/// Flags a degraded (constraint-relaxed) result on stderr; the exit
/// code stays 0 — the run produced a usable configuration.
fn warn_degraded(subject: &str, d: Option<&Degradation>) {
    if let Some(d) = d {
        eprintln!("warning: {subject}: {d}");
    }
}

fn warn_train(out: &TrainOutput) {
    warn_degraded("generic C_g", out.generic_degradation.as_ref());
    for c in &out.customs {
        warn_degraded(c.model.name(), c.degradation.as_ref());
    }
    for l in &out.libraries {
        warn_degraded(&l.config.name, l.degradation.as_ref());
    }
}

/// The command-agnostic options stripped from argv before command
/// parsing — every command accepts all of them.
struct Globals {
    threads: Option<usize>,
    degrade: bool,
    cache_dir: Option<String>,
    telemetry: TelemetryOptions,
}

fn options(
    paper_subsets: bool,
    threshold: Option<f64>,
    config: Option<&str>,
    g: &Globals,
) -> Result<ClaireOptions, String> {
    let mut opts = match config {
        Some(path) => RunConfig::load(path)
            .map_err(|e| e.to_string())?
            .into_options(),
        None => ClaireOptions::default(),
    };
    if paper_subsets {
        opts.subsets = SubsetStrategy::Fixed(paper_table3_subsets());
    } else if let Some(t) = threshold {
        opts.subsets = SubsetStrategy::WeightedJaccard {
            threshold: t,
            scale: WeightScale::Log,
        };
    }
    // A --threads flag beats the config file's knob.
    if g.threads.is_some() {
        opts.space.threads = g.threads;
    }
    if g.degrade {
        opts.policy = RobustnessPolicy::Degrade;
    }
    opts.telemetry = g.telemetry.clone();
    opts.cache_dir = g.cache_dir.as_ref().map(PathBuf::from);
    Ok(opts)
}

fn run(cmd: Command, g: &Globals, out: &mut impl Write) -> io::Result<i32> {
    Ok(match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            0
        }
        Command::Models { extended } => {
            let mut sections = vec![
                ("training set (Table I):", zoo::TRAINING),
                ("test set:", zoo::TEST),
            ];
            if extended {
                sections.push(("extended test set:", zoo::EXTENDED_TEST));
                sections.push((
                    "more extended models:",
                    zoo::EXTENDED_TEST.end..zoo::TABLE.len(),
                ));
            }
            for (heading, slice) in sections {
                writeln!(out, "{heading}")?;
                for (_, make) in &zoo::TABLE[slice] {
                    describe(&make(), out)?;
                }
            }
            0
        }
        Command::InitConfig { path } => {
            let cfg = RunConfig::default();
            match cfg.save(&path) {
                Ok(()) => {
                    writeln!(out, "wrote default configuration to {path}")?;
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Custom {
            model,
            json,
            config,
        } => {
            let Some(m) = zoo::by_name(&model) else {
                eprintln!("error: unknown model `{model}` (see `claire-cli models --extended`)");
                return Ok(2);
            };
            let opts = match options(false, None, config.as_deref(), g) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(2);
                }
            };
            let claire = Claire::new(opts);
            let engine = engine_for(&claire);
            load_warm(&claire, engine);
            match claire.custom_for_with_engine(&m, engine) {
                Ok(custom) => {
                    if let Err(e) = claire.export_telemetry(engine) {
                        return Ok(fail(&e));
                    }
                    save_warm(&claire, engine);
                    warn_degraded(custom.model.name(), custom.degradation.as_ref());
                    let s = CustomSummary::from(&custom);
                    if json {
                        writeln!(
                            out,
                            "{}",
                            serde_json::to_string_pretty(&s).expect("serialise")
                        )?;
                    } else {
                        writeln!(out, "custom configuration for {}:", s.model)?;
                        writeln!(out, "  hardware: {}", s.hardware)?;
                        for ch in &s.chiplets {
                            writeln!(
                                out,
                                "  {} ({:.1} mm^2): {}",
                                ch.name,
                                ch.area_mm2,
                                ch.classes.join(", ")
                            )?;
                        }
                        writeln!(
                            out,
                            "  {:.3} ms | {:.3} mJ | {:.1} mm^2 | {:.3} W/mm^2",
                            s.ppa.latency_ms,
                            s.ppa.energy_mj,
                            s.ppa.area_mm2,
                            s.ppa.power_density_w_mm2
                        )?;
                    }
                    0
                }
                Err(e) => fail(&e),
            }
        }
        Command::Train {
            paper_subsets,
            threshold,
            json,
            config,
        } => {
            let opts = match options(paper_subsets, threshold, config.as_deref(), g) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(2);
                }
            };
            let claire = Claire::new(opts);
            let engine = engine_for(&claire);
            load_warm(&claire, engine);
            match claire.train_with_engine(&zoo::training_set(), engine) {
                Ok(train) => {
                    if let Err(e) = claire.export_telemetry(engine) {
                        return Ok(fail(&e));
                    }
                    save_warm(&claire, engine);
                    warn_train(&train);
                    let s = TrainSummary::from(&train);
                    if json {
                        writeln!(
                            out,
                            "{}",
                            serde_json::to_string_pretty(&s).expect("serialise")
                        )?;
                    } else {
                        print_train(&s, out)?;
                    }
                    0
                }
                Err(e) => fail(&e),
            }
        }
        Command::Flow {
            paper_subsets,
            extended,
            json,
        } => {
            let opts = match options(paper_subsets, None, None, g) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(2);
                }
            };
            let claire = Claire::new(opts);
            // One explicit engine for both phases, so a --trace-out
            // export covers all six flow stages in a single trace and
            // a --cache-dir snapshot captures both phases' tiers.
            let engine = engine_for(&claire);
            load_warm(&claire, engine);
            let train = match claire.train_with_engine(&zoo::training_set(), engine) {
                Ok(t) => {
                    warn_train(&t);
                    t
                }
                Err(e) => return Ok(fail(&e)),
            };
            let mut tests = zoo::test_set();
            if extended {
                tests.extend(zoo::extended_test_set());
            }
            match claire.evaluate_test_with_engine(&train, &tests, engine) {
                Ok(test) => {
                    if let Err(e) = claire.export_telemetry(engine) {
                        return Ok(fail(&e));
                    }
                    save_warm(&claire, engine);
                    let flow = FlowSummary::new(&train, &test);
                    if json {
                        writeln!(
                            out,
                            "{}",
                            serde_json::to_string_pretty(&flow).expect("serialise")
                        )?;
                    } else {
                        print_train(&flow.train, out)?;
                        writeln!(out, "test deployment:")?;
                        for t in &flow.tests {
                            writeln!(
                                out,
                                "  {:16} -> {:5}  coverage {:>4.0}%  U_k {:.3}  U_g {:.3}",
                                t.model,
                                t.assigned.as_deref().unwrap_or("-"),
                                t.coverage * 100.0,
                                t.utilization_library,
                                t.utilization_generic
                            )?;
                        }
                    }
                    0
                }
                Err(e) => fail(&e),
            }
        }
        Command::Serve {
            config,
            listen,
            queue,
            io_timeout_ms,
            checkpoint_ms,
            serve_faults,
            event_log,
        } => {
            let opts = match options(false, None, config.as_deref(), g) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(2);
                }
            };
            serve::run(
                opts,
                &serve::ServeSettings {
                    listen,
                    queue,
                    io_timeout_ms,
                    checkpoint_ms,
                    serve_faults,
                    event_log,
                },
            )
        }
        Command::Describe { model } => {
            let Some(m) = zoo::by_name(&model) else {
                eprintln!("error: unknown model `{model}`");
                return Ok(2);
            };
            writeln!(out, "{} ({})", m.name(), m.class())?;
            writeln!(
                out,
                "  {} layers | {:.2} GMACs | {:.2} M params | {:.1} MB activations | {:.1} MACs/B",
                m.layer_count(),
                m.macs() as f64 / 1e9,
                m.param_count() as f64 / 1e6,
                m.activation_bytes() as f64 / 1e6,
                m.arithmetic_intensity()
            )?;
            writeln!(out, "  layer classes:")?;
            for (class, n) in m.op_class_counts() {
                writeln!(out, "    {:18} x{n}", class.label())?;
            }
            writeln!(out, "  top edges:")?;
            let mut combos: Vec<_> = m.edge_combination_counts().into_iter().collect();
            combos.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            for ((a, b), n) in combos.into_iter().take(5) {
                writeln!(out, "    {a}-{b} x{n}")?;
            }
            0
        }
        Command::ExportLibrary {
            path,
            paper_subsets,
            threshold,
        } => {
            let opts = match options(paper_subsets, threshold, None, g) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(2);
                }
            };
            let nre = opts.nre;
            let claire = Claire::new(opts);
            let train = match claire.train(&zoo::training_set()) {
                Ok(t) => {
                    warn_train(&t);
                    t
                }
                Err(e) => return Ok(fail(&e)),
            };
            let lib = ChipletLibrary::from_training("claire-library", &train, nre);
            match lib.save(&path) {
                Ok(()) => {
                    writeln!(
                        out,
                        "wrote library with {} configurations to {path}",
                        lib.entries.len()
                    )?;
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Deploy {
            model,
            library,
            json,
        } => {
            let Some(m) = zoo::by_name(&model) else {
                eprintln!("error: unknown model `{model}`");
                return Ok(2);
            };
            let lib = match ChipletLibrary::load(&library) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(2);
                }
            };
            match lib.deploy(&m, WeightScale::Log) {
                Ok(d) => {
                    if json {
                        let v = serde_json::json!({
                            "model": m.name(),
                            "config": d.config_name,
                            "similarity": d.similarity,
                            "coverage": d.coverage,
                            "utilization": d.utilization,
                            "latency_ms": d.ppa.latency_s * 1e3,
                            "energy_mj": d.ppa.energy_j * 1e3,
                            "custom_nre_avoided": d.custom_nre_avoided,
                        });
                        writeln!(out, "{}", serde_json::to_string_pretty(&v).expect("json"))?;
                    } else {
                        writeln!(
                            out,
                            "{} -> {} (similarity {:.3}): coverage {:.0}%, utilization {:.3}",
                            m.name(),
                            d.config_name,
                            d.similarity,
                            d.coverage * 100.0,
                            d.utilization
                        )?;
                        writeln!(
                            out,
                            "  {:.3} ms | {:.3} mJ on hardened silicon; avoided custom NRE {}",
                            d.ppa.latency_s * 1e3,
                            d.ppa.energy_j * 1e3,
                            d.custom_nre_avoided
                                .map(|v| format!("{v:.3} (normalised)"))
                                .unwrap_or_else(|| "n/a".into())
                        )?;
                    }
                    0
                }
                Err(e) => fail(&e),
            }
        }
        Command::Simulate {
            model,
            overlap,
            batch,
        } => {
            let Some(m) = zoo::by_name(&model) else {
                eprintln!("error: unknown model `{model}`");
                return Ok(2);
            };
            let mut opts = ClaireOptions::default();
            if g.threads.is_some() {
                opts.space.threads = g.threads;
            }
            if g.degrade {
                opts.policy = RobustnessPolicy::Degrade;
            }
            opts.telemetry = g.telemetry.clone();
            let claire = Claire::new(opts);
            let custom = match claire.custom_for(&m) {
                Ok(c) => {
                    warn_degraded(c.model.name(), c.degradation.as_ref());
                    c
                }
                Err(e) => return Ok(fail(&e)),
            };
            let mode = if overlap {
                claire_sim::Mode::Overlapped
            } else {
                claire_sim::Mode::Strict
            };
            match claire_sim::simulate(&m, &custom.config, mode) {
                Ok(report) => {
                    writeln!(
                        out,
                        "{}: {:.4} ms simulated ({} tiles, {} transfers) vs {:.4} ms analytical",
                        m.name(),
                        report.latency_s() * 1e3,
                        report.tiles_executed,
                        report.transfers,
                        custom.report.latency_s * 1e3
                    )?;
                    if batch > 1 {
                        match claire_sim::simulate_batch(&m, &custom.config, batch) {
                            Ok(cycles) => {
                                let tput = batch as f64 / (cycles as f64 / 1e9);
                                writeln!(
                                    out,
                                    "batch {batch}: {:.4} ms total, {tput:.0} inferences/s",
                                    cycles as f64 / 1e6
                                )?;
                            }
                            Err(e) => return Ok(fail(&e)),
                        }
                    }
                    0
                }
                Err(e) => fail(&e),
            }
        }
        Command::Parse {
            path,
            image,
            seq,
            name,
            json,
        } => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return Ok(2);
                }
            };
            let (input, class) = match (image, seq) {
                (_, Some((tokens, features))) => (
                    InputShape::Sequence { tokens, features },
                    ModelClass::Transformer,
                ),
                (Some((channels, height, width)), None) => (
                    InputShape::Image {
                        channels,
                        height,
                        width,
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
            let model = match parse_model(&name, &text, ParseOptions { input, class }) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(1);
                }
            };
            writeln!(
                out,
                "parsed {}: {} layers, {:.1} MMACs, {} params",
                model.name(),
                model.layer_count(),
                model.macs() as f64 / 1e6,
                model.param_count()
            )?;
            let opts = match options(false, None, None, g) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(2);
                }
            };
            let claire = Claire::new(opts);
            let engine = engine_for(&claire);
            load_warm(&claire, engine);
            match claire.custom_for_with_engine(&model, engine) {
                Ok(custom) => {
                    if let Err(e) = claire.export_telemetry(engine) {
                        return Ok(fail(&e));
                    }
                    save_warm(&claire, engine);
                    warn_degraded(custom.model.name(), custom.degradation.as_ref());
                    let s = CustomSummary::from(&custom);
                    if json {
                        writeln!(
                            out,
                            "{}",
                            serde_json::to_string_pretty(&s).expect("serialise")
                        )?;
                    } else {
                        writeln!(
                            out,
                            "custom configuration: {} | {} chiplet(s) | {:.3} ms | {:.3} mJ | {:.1} mm^2",
                            s.hardware,
                            s.chiplets.len(),
                            s.ppa.latency_ms,
                            s.ppa.energy_mj,
                            s.ppa.area_mm2
                        )?;
                    }
                    0
                }
                Err(e) => fail(&e),
            }
        }
    })
}

fn describe(m: &Model, out: &mut impl Write) -> io::Result<()> {
    let p = m.param_count() as f64;
    let params = if p >= 1e9 {
        format!("{:.2} B", p / 1e9)
    } else {
        format!("{:.2} M", p / 1e6)
    };
    writeln!(
        out,
        "  {:18} {:12} {:>10}  {} layers",
        m.name(),
        m.class().to_string(),
        params,
        m.layer_count()
    )
}

fn print_train(s: &TrainSummary, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "generic C_g: {} chiplets, {:.1} mm^2",
        s.generic_chiplets, s.generic_area_mm2
    )?;
    for l in &s.libraries {
        writeln!(
            out,
            "{} <- {:?} | {} | {} chiplet(s) | NRE {:.3} vs custom {:.3} ({:.2}x)",
            l.name,
            l.members,
            l.hardware,
            l.chiplets.len(),
            l.nre,
            l.cumulative_custom_nre,
            l.cumulative_custom_nre / l.nre
        )?;
    }
    Ok(())
}
