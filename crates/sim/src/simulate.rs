//! The cycle-approximate simulator.

use crate::engine::EventQueue;
use crate::report::SimReport;
use claire_core::evaluate::edge_transfer;
use claire_core::{ClaireError, DesignConfig};
use claire_model::{LayerKind, Model, OpClass};
use claire_ppa::{layer_cost, SystolicArrayModel};
use std::collections::BTreeMap;

/// Execution semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The paper's analytical semantics: layers strictly sequential,
    /// inter-layer transfers fully serialised after the producer
    /// finishes. Matches [`claire_core::evaluate::evaluate`].
    #[default]
    Strict,
    /// Tile-granular double buffering: a systolic producer streams
    /// each completed tile's output chunk over the interconnect while
    /// later tiles are still computing, hiding transfer serialisation
    /// behind compute. The consumer still waits for the full tensor.
    Overlapped,
}

/// One layer's compute profile as the simulator schedules it.
struct LayerWork {
    class: OpClass,
    /// Sequential weight-reload phases (grouped convolutions reload
    /// the array once per group).
    groups: u64,
    /// Tiles per group.
    tiles_per_group: u64,
    /// Cycles one tile occupies an array.
    per_tile: u64,
    /// Parallel servers (arrays for systolic groups, 1 vector engine
    /// otherwise).
    servers: u64,
    /// Output bytes handed to the next layer.
    out_bytes: u64,
}

/// The unit class executing layer `i`, as a typed error when the
/// configuration lacks it (all entry points pre-check coverage, so
/// the error is defensive rather than reachable).
fn executing(model: &Model, config: &DesignConfig, i: usize) -> Result<OpClass, ClaireError> {
    let class = model.layers()[i].op_class();
    config
        .executing_class(class)
        .ok_or_else(|| ClaireError::IncompleteCoverage {
            algorithm: model.name().to_owned(),
            config: config.name.clone(),
            missing: class.label(),
        })
}

fn work_for(model: &Model, config: &DesignConfig, i: usize) -> Result<LayerWork, ClaireError> {
    let layer = &model.layers()[i];
    let class = executing(model, config, i)?;
    let out_bytes = layer.output_elements();
    let sa = SystolicArrayModel::new(config.hw);
    match &layer.kind {
        LayerKind::Conv2d(c) => {
            let cost = sa.conv2d(c);
            let groups = u64::from(c.groups).max(1);
            let tiles_per_group = cost.tiles / groups;
            let waves_pg = tiles_per_group.div_ceil(u64::from(config.hw.n_sa));
            Ok(LayerWork {
                class,
                groups,
                tiles_per_group,
                per_tile: cost.cycles / (groups * waves_pg).max(1),
                servers: u64::from(config.hw.n_sa),
                out_bytes,
            })
        }
        LayerKind::Conv1d(c) => {
            let cost = sa.conv1d(c);
            let waves = cost.tiles.div_ceil(u64::from(config.hw.n_sa));
            Ok(LayerWork {
                class,
                groups: 1,
                tiles_per_group: cost.tiles,
                per_tile: cost.cycles / waves.max(1),
                servers: u64::from(config.hw.n_sa),
                out_bytes,
            })
        }
        LayerKind::Linear(l) => {
            let cost = sa.linear(l);
            let waves = cost.tiles.div_ceil(u64::from(config.hw.n_sa));
            Ok(LayerWork {
                class,
                groups: 1,
                tiles_per_group: cost.tiles,
                per_tile: cost.cycles / waves.max(1),
                servers: u64::from(config.hw.n_sa),
                out_bytes,
            })
        }
        other => {
            let cost = layer_cost(other, &config.hw);
            Ok(LayerWork {
                class,
                groups: 1,
                tiles_per_group: 1,
                per_tile: cost.cycles,
                servers: 1,
                out_bytes,
            })
        }
    }
}

/// Simulates one inference of `model` on `config`.
///
/// In [`Mode::Strict`] the end-to-end cycle count equals the
/// analytical model's latency (pinned by tests); [`Mode::Overlapped`]
/// is never slower.
///
/// # Errors
///
/// [`ClaireError::IncompleteCoverage`] when the configuration cannot
/// implement one of the model's layers.
pub fn simulate(
    model: &Model,
    config: &DesignConfig,
    mode: Mode,
) -> Result<SimReport, ClaireError> {
    if let Some(missing) = config.first_missing(model) {
        return Err(ClaireError::IncompleteCoverage {
            algorithm: model.name().to_owned(),
            config: config.name.clone(),
            missing: missing.label(),
        });
    }

    let mut now: u64 = 0;
    let mut busy: BTreeMap<OpClass, u64> = BTreeMap::new();
    let mut noc_busy = 0_u64;
    let mut nop_busy = 0_u64;
    let mut transfers = 0_u64;
    let mut tiles_executed = 0_u64;
    let mut energy_pj = 0.0;

    let n_layers = model.layer_count();
    for i in 0..n_layers {
        let work = work_for(model, config, i)?;
        energy_pj += layer_cost(&model.layers()[i].kind, &config.hw).energy_pj;
        let start = now;

        // --- Compute: list-schedule tiles onto the servers via the
        // event queue (earliest-free server first; deterministic).
        let mut tile_completions: Vec<u64> = Vec::new();
        for _g in 0..work.groups {
            let group_start = now;
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut launched = 0_u64;
            let initial = work.tiles_per_group.min(work.servers);
            for _ in 0..initial {
                q.schedule(group_start + work.per_tile, 1);
                launched += 1;
            }
            let mut last = group_start;
            while let Some(ev) = q.pop() {
                last = ev.time;
                tile_completions.push(ev.time);
                tiles_executed += 1;
                if launched < work.tiles_per_group {
                    q.schedule(ev.time + work.per_tile, 1);
                    launched += 1;
                }
            }
            now = last.max(group_start);
        }
        *busy.entry(work.class).or_insert(0) += now - start;

        // --- Transfer to the successor layer.
        if i + 1 == n_layers {
            continue;
        }
        let next_class = executing(model, config, i + 1)?;
        let t = edge_transfer(config, work.class, next_class, work.out_bytes);
        energy_pj += t.noc_pj() + t.nop_pj();
        if t.ser_cycles == 0 && t.fixed_cycles == 0 {
            continue; // same unit group: no interconnect involved
        }
        transfers += 1;
        if t.crosses_chiplet {
            nop_busy += t.ser_cycles / 2;
            noc_busy += t.ser_cycles - t.ser_cycles / 2;
        } else {
            noc_busy += t.ser_cycles;
        }

        match mode {
            Mode::Strict => {
                now += t.ser_cycles + t.fixed_cycles;
            }
            Mode::Overlapped => {
                // Stream one chunk per completed tile; the channel
                // serialises chunks FIFO (total serialisation exactly
                // `ser_cycles`, spread over the chunks), then the
                // fixed hop latency applies once.
                let chunks = tile_completions.len().max(1) as u64;
                let mut channel_free = start;
                let mut sent = 0_u64;
                for (k, &c) in tile_completions.iter().enumerate() {
                    let cum = t.ser_cycles * (k as u64 + 1) / chunks;
                    let chunk_cycles = cum - sent;
                    sent = cum;
                    let s = c.max(channel_free);
                    channel_free = s + chunk_cycles;
                }
                now = now.max(channel_free) + t.fixed_cycles;
            }
        }
    }

    Ok(SimReport {
        cycles: now,
        busy_cycles: busy.into_iter().collect(),
        noc_busy_cycles: noc_busy,
        nop_busy_cycles: nop_busy,
        transfers,
        tiles_executed,
        energy_j: energy_pj * 1e-12,
    })
}

/// One scheduled interval in an execution trace.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TraceSpan {
    /// Layer index within the model.
    pub layer: usize,
    /// Layer (module-path) name.
    pub name: String,
    /// Executing unit class label.
    pub class: String,
    /// Start cycle.
    pub start: u64,
    /// End cycle (compute only).
    pub end: u64,
    /// End cycle including the outgoing transfer.
    pub end_with_transfer: u64,
}

/// Produces the per-layer schedule of a strict-mode execution — a
/// Gantt-style trace for inspection or CSV export. The last span's
/// `end_with_transfer` equals [`simulate`]'s strict cycle count
/// (pinned by tests).
///
/// # Errors
///
/// [`ClaireError::IncompleteCoverage`] as for [`simulate`].
pub fn simulate_trace(model: &Model, config: &DesignConfig) -> Result<Vec<TraceSpan>, ClaireError> {
    if let Some(missing) = config.first_missing(model) {
        return Err(ClaireError::IncompleteCoverage {
            algorithm: model.name().to_owned(),
            config: config.name.clone(),
            missing: missing.label(),
        });
    }
    let n_layers = model.layer_count();
    let mut spans = Vec::with_capacity(n_layers);
    let mut now = 0_u64;
    for i in 0..n_layers {
        let work = work_for(model, config, i)?;
        let waves = work.tiles_per_group.div_ceil(work.servers) * work.groups;
        let start = now;
        let end = start + waves * work.per_tile;
        let mut end_with_transfer = end;
        if i + 1 < n_layers {
            let next_class = executing(model, config, i + 1)?;
            let t = edge_transfer(config, work.class, next_class, work.out_bytes);
            end_with_transfer = end + t.ser_cycles + t.fixed_cycles;
        }
        spans.push(TraceSpan {
            layer: i,
            name: model.layers()[i].name.to_string(),
            class: work.class.label(),
            start,
            end,
            end_with_transfer,
        });
        now = end_with_transfer;
    }
    Ok(spans)
}

/// Ideal steady-state batch throughput, inferences per second, when
/// consecutive inputs are pipelined through the chiplet system under a
/// perfect cyclic schedule.
///
/// The initiation interval is the most-loaded station: the maximum
/// over unit classes of that class's total per-item occupancy
/// (compute + outgoing transfers). This is an *upper bound* on what a
/// causal scheduler achieves — [`simulate_batch`] plays the greedy
/// FIFO schedule and lands between this bound and serial repetition
/// (pinned by tests). A single-unit-class model degenerates to
/// `1 / latency` (no pipelining possible across one resource).
///
/// This is an *extension* of the paper's single-inference analysis to
/// the serving scenario its cloud constraints (Input #4) imply.
///
/// # Errors
///
/// [`ClaireError::IncompleteCoverage`] as for [`simulate`].
pub fn pipelined_throughput(model: &Model, config: &DesignConfig) -> Result<f64, ClaireError> {
    if let Some(missing) = config.first_missing(model) {
        return Err(ClaireError::IncompleteCoverage {
            algorithm: model.name().to_owned(),
            config: config.name.clone(),
            missing: missing.label(),
        });
    }
    let n_layers = model.layer_count();
    // Aggregate stage time per unit class: a pipeline stage is a unit
    // group, and consecutive inputs contend for it.
    let mut class_cycles: BTreeMap<OpClass, u64> = BTreeMap::new();
    for i in 0..n_layers {
        let work = work_for(model, config, i)?;
        let waves = work.tiles_per_group.div_ceil(work.servers) * work.groups;
        let compute = waves * work.per_tile;
        let mut stage = compute;
        if i + 1 < n_layers {
            let next_class = executing(model, config, i + 1)?;
            let t = edge_transfer(config, work.class, next_class, work.out_bytes);
            stage += t.ser_cycles + t.fixed_cycles;
        }
        *class_cycles.entry(work.class).or_insert(0) += stage;
    }
    let interval = class_cycles.values().copied().max().unwrap_or(0).max(1);
    Ok(claire_ppa::tech28::CLOCK_HZ / interval as f64)
}

/// Simulates a pipelined batch of `batch` back-to-back inferences and
/// returns the end-to-end cycles for the whole batch.
///
/// Each unit class is a pipeline station; item `k`'s layer `i` starts
/// once (a) item `k`'s layer `i−1` output has arrived and (b) the
/// station is free. Items are issued FIFO (a causal greedy schedule),
/// so the realised per-item interval sits between
/// [`pipelined_throughput`]'s ideal initiation interval and the serial
/// single-item latency; re-entrant flows (a CNN revisiting its conv
/// station dozens of times per item) sit near the serial end.
///
/// # Errors
///
/// [`ClaireError::IncompleteCoverage`] as for [`simulate`].
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn simulate_batch(
    model: &Model,
    config: &DesignConfig,
    batch: usize,
) -> Result<u64, ClaireError> {
    assert!(batch > 0, "batch must be positive");
    if let Some(missing) = config.first_missing(model) {
        return Err(ClaireError::IncompleteCoverage {
            algorithm: model.name().to_owned(),
            config: config.name.clone(),
            missing: missing.label(),
        });
    }
    let n_layers = model.layer_count();

    // Pre-compute per-layer duration + outgoing transfer.
    let mut durations = Vec::with_capacity(n_layers);
    let mut transfers = Vec::with_capacity(n_layers);
    let mut classes = Vec::with_capacity(n_layers);
    for i in 0..n_layers {
        let work = work_for(model, config, i)?;
        let waves = work.tiles_per_group.div_ceil(work.servers) * work.groups;
        durations.push(waves * work.per_tile);
        classes.push(work.class);
        if i + 1 < n_layers {
            let next_class = executing(model, config, i + 1)?;
            let t = edge_transfer(config, work.class, next_class, work.out_bytes);
            transfers.push(t.ser_cycles + t.fixed_cycles);
        } else {
            transfers.push(0);
        }
    }

    // Station availability per unit class (each class is one shared
    // resource pool: consecutive items serialise on it).
    let mut station_free: BTreeMap<OpClass, u64> = BTreeMap::new();
    // arrival[i] = when the current item's input reaches layer i.
    let mut finish_prev_item = vec![0_u64; n_layers];
    let mut last = 0;
    for _item in 0..batch {
        let mut arrival = 0_u64;
        for i in 0..n_layers {
            let free = station_free.entry(classes[i]).or_insert(0);
            let start = arrival.max(*free);
            let finish = start + durations[i];
            // The producing station stays busy until its output has
            // drained onto the interconnect (output-buffer occupancy) —
            // the same accounting `pipelined_throughput` uses.
            arrival = finish + transfers[i];
            *free = arrival;
            finish_prev_item[i] = finish;
        }
        last = arrival;
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_core::evaluate::evaluate;
    use claire_core::{Claire, ClaireOptions};
    use claire_model::zoo;

    fn custom(model: &Model) -> DesignConfig {
        Claire::new(ClaireOptions::default())
            .custom_for(model)
            .expect("feasible")
            .config
    }

    #[test]
    fn strict_matches_analytical_for_alexnet() {
        let m = zoo::alexnet();
        let cfg = custom(&m);
        let sim = simulate(&m, &cfg, Mode::Strict).unwrap();
        let analytical = evaluate(&m, &cfg).unwrap();
        let rel = (sim.latency_s() - analytical.latency_s).abs() / analytical.latency_s;
        assert!(
            rel < 1e-9,
            "sim {} vs analytical {}",
            sim.latency_s(),
            analytical.latency_s
        );
    }

    #[test]
    fn simulated_energy_matches_analytical() {
        for m in [zoo::alexnet(), zoo::bert_base(), zoo::swin_t()] {
            let cfg = custom(&m);
            let sim = simulate(&m, &cfg, Mode::Strict).unwrap();
            let analytical = evaluate(&m, &cfg).unwrap();
            let rel = (sim.energy_j - analytical.energy_j).abs() / analytical.energy_j;
            assert!(rel < 1e-9, "{}: {rel}", m.name());
        }
    }

    #[test]
    fn strict_matches_analytical_across_zoo() {
        for m in [
            zoo::resnet18(),
            zoo::mobilenet_v2(),
            zoo::bert_base(),
            zoo::gpt2(),
            zoo::swin_t(),
        ] {
            let cfg = custom(&m);
            let sim = simulate(&m, &cfg, Mode::Strict).unwrap();
            let analytical = evaluate(&m, &cfg).unwrap();
            let rel = (sim.latency_s() - analytical.latency_s).abs() / analytical.latency_s;
            assert!(rel < 1e-9, "{}: {rel}", m.name());
        }
    }

    #[test]
    fn overlap_is_never_slower() {
        for m in [zoo::alexnet(), zoo::vit_base(), zoo::resnet50()] {
            let cfg = custom(&m);
            let strict = simulate(&m, &cfg, Mode::Strict).unwrap();
            let overlapped = simulate(&m, &cfg, Mode::Overlapped).unwrap();
            assert!(
                overlapped.cycles <= strict.cycles,
                "{}: {} > {}",
                m.name(),
                overlapped.cycles,
                strict.cycles
            );
        }
    }

    #[test]
    fn overlap_hides_transfer_serialisation() {
        // AlexNet's big conv outputs make transfer serialisation
        // visible; overlapping must recover a measurable fraction.
        let m = zoo::alexnet();
        let cfg = custom(&m);
        let strict = simulate(&m, &cfg, Mode::Strict).unwrap();
        let overlapped = simulate(&m, &cfg, Mode::Overlapped).unwrap();
        assert!(overlapped.cycles < strict.cycles, "no overlap benefit");
    }

    #[test]
    fn busy_cycles_bounded_by_makespan() {
        let m = zoo::resnet18();
        let cfg = custom(&m);
        let sim = simulate(&m, &cfg, Mode::Strict).unwrap();
        for (class, b) in &sim.busy_cycles {
            assert!(*b <= sim.cycles, "{class}: {b} > {}", sim.cycles);
        }
        // The systolic group dominates a CNN's schedule.
        assert!(sim.temporal_utilization(OpClass::Conv2d) > 0.3);
    }

    #[test]
    fn tiles_executed_matches_analytical_node_weights() {
        let m = zoo::alexnet();
        let cfg = custom(&m);
        let sim = simulate(&m, &cfg, Mode::Strict).unwrap();
        let expected: u64 = m
            .layers()
            .iter()
            .map(|l| layer_cost(&l.kind, &cfg.hw).executions)
            .sum();
        // Vector layers count 1 execution per layer in the simulator
        // (single task) vs per-batch in the analytical node weights,
        // so systolic tiles dominate the comparison.
        assert!(sim.tiles_executed > 0);
        assert!(sim.tiles_executed <= expected);
    }

    #[test]
    fn uncovered_model_is_an_error() {
        let m = zoo::alexnet();
        let cfg = DesignConfig::monolithic(
            "linear-only",
            claire_ppa::HwParams::new(32, 32, 16, 16),
            [OpClass::Linear].into_iter().collect(),
        );
        assert!(matches!(
            simulate(&m, &cfg, Mode::Strict),
            Err(ClaireError::IncompleteCoverage { .. })
        ));
    }

    #[test]
    fn throughput_at_least_inverse_latency() {
        // Pipelining across unit groups can only help.
        for m in [zoo::alexnet(), zoo::resnet18(), zoo::bert_base()] {
            let cfg = custom(&m);
            let strict = simulate(&m, &cfg, Mode::Strict).unwrap();
            let tput = pipelined_throughput(&m, &cfg).unwrap();
            let serial = 1.0 / strict.latency_s();
            assert!(tput >= serial * 0.999, "{}: {tput} < {serial}", m.name());
        }
    }

    #[test]
    fn throughput_gains_from_heterogeneous_stages() {
        // A CNN alternates conv/act/pool groups: the pipeline interval
        // (slowest group) beats the end-to-end latency clearly.
        let m = zoo::alexnet();
        let cfg = custom(&m);
        let strict = simulate(&m, &cfg, Mode::Strict).unwrap();
        let tput = pipelined_throughput(&m, &cfg).unwrap();
        assert!(tput > 1.1 / strict.latency_s(), "no pipeline benefit");
    }

    #[test]
    fn throughput_rejects_uncovered_model() {
        let m = zoo::alexnet();
        let cfg = DesignConfig::monolithic(
            "linear-only",
            claire_ppa::HwParams::new(32, 32, 16, 16),
            [OpClass::Linear].into_iter().collect(),
        );
        assert!(pipelined_throughput(&m, &cfg).is_err());
    }

    #[test]
    fn batch_of_one_matches_strict_latency() {
        let m = zoo::alexnet();
        let cfg = custom(&m);
        let strict = simulate(&m, &cfg, Mode::Strict).unwrap();
        let batch1 = simulate_batch(&m, &cfg, 1).unwrap();
        assert_eq!(batch1, strict.cycles);
    }

    #[test]
    fn batch_interval_bracketed_by_bound_and_latency() {
        for m in [zoo::alexnet(), zoo::resnet18(), zoo::bert_base()] {
            let cfg = custom(&m);
            let b1 = simulate_batch(&m, &cfg, 64).unwrap();
            let b2 = simulate_batch(&m, &cfg, 128).unwrap();
            let interval = (b2 - b1) as f64 / 64.0;
            let ideal = claire_ppa::tech28::CLOCK_HZ / pipelined_throughput(&m, &cfg).unwrap();
            let serial = simulate(&m, &cfg, Mode::Strict).unwrap().cycles as f64;
            assert!(
                interval >= ideal * 0.999,
                "{}: beat the ideal bound ({interval} < {ideal})",
                m.name()
            );
            assert!(
                interval <= serial * 1.001,
                "{}: worse than serial ({interval} > {serial})",
                m.name()
            );
        }
    }

    #[test]
    fn batched_execution_beats_serial_repeats() {
        let m = zoo::alexnet();
        let cfg = custom(&m);
        let strict = simulate(&m, &cfg, Mode::Strict).unwrap();
        let b16 = simulate_batch(&m, &cfg, 16).unwrap();
        assert!(b16 < 16 * strict.cycles, "pipelining had no effect");
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_panics() {
        let m = zoo::alexnet();
        let cfg = custom(&m);
        let _ = simulate_batch(&m, &cfg, 0);
    }

    #[test]
    fn trace_is_contiguous_and_matches_strict_total() {
        let m = zoo::alexnet();
        let cfg = custom(&m);
        let trace = simulate_trace(&m, &cfg).unwrap();
        assert_eq!(trace.len(), m.layer_count());
        let mut prev_end = 0;
        for span in &trace {
            assert_eq!(span.start, prev_end, "gap before layer {}", span.layer);
            assert!(span.end >= span.start);
            assert!(span.end_with_transfer >= span.end);
            prev_end = span.end_with_transfer;
        }
        let strict = simulate(&m, &cfg, Mode::Strict).unwrap();
        assert_eq!(trace.last().unwrap().end_with_transfer, strict.cycles);
    }

    #[test]
    fn deterministic() {
        let m = zoo::swin_t();
        let cfg = custom(&m);
        let a = simulate(&m, &cfg, Mode::Overlapped).unwrap();
        let b = simulate(&m, &cfg, Mode::Overlapped).unwrap();
        assert_eq!(a, b);
    }
}
