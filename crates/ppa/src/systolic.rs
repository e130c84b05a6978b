//! Weight-stationary systolic-array timing/energy model.
//!
//! "Convolutional layers are implemented using weight-stationary
//! dataflow on the systolic array. … When there are insufficient
//! systolic arrays available, the layer is partitioned into smaller
//! sub-tasks that fit within the available hardware resources, which
//! are then executed sequentially."
//!
//! The tiling: an `s × s` array holds an `s`(input-channel·kernel
//! window) × `s`(output-channel) weight tile; input pixels stream
//! through, producing one output pixel per cycle per tile after a
//! `2s`-cycle fill/drain. A layer therefore needs
//! `⌈K/s⌉ · ⌈C_out/s⌉` tiles of `P + 2s` cycles each, run in waves of
//! `n_sa` parallel arrays — where `K` is the reduction dimension and
//! `P` the number of output positions.

use crate::params::HwParams;
use crate::tech28;
use claire_model::{Conv1d, Conv2d, Linear};
use serde::{Deserialize, Serialize};

/// Systolic-array dataflow.
///
/// The paper fixes weight-stationary ("Convolutional layers are
/// implemented using weight-stationary dataflow"); the
/// output-stationary alternative is provided for the dataflow
/// ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Dataflow {
    /// Weights pinned in PEs; inputs stream, outputs drain per cycle.
    /// Tile = (reduction × outputs); per-tile time ∝ output positions.
    #[default]
    WeightStationary,
    /// Partial sums pinned in PEs; weights/inputs stream. Tile =
    /// (positions × outputs); per-tile time ∝ reduction depth.
    OutputStationary,
}

/// Timing/energy results for one layer on one systolic module group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystolicCost {
    /// Total execution cycles (sequential waves of parallel tiles).
    pub cycles: u64,
    /// Total tile count — the node weight `w_N` ("the number of times
    /// the node needs to be executed to compute the entire layer").
    pub tiles: u64,
    /// Dynamic energy, pJ (MACs + SRAM traffic).
    pub energy_pj: f64,
}

/// The weight-stationary systolic-array model for a given hardware
/// design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicArrayModel {
    hw: HwParams,
    dataflow: Dataflow,
}

impl SystolicArrayModel {
    /// Creates the model for `hw` with the paper's weight-stationary
    /// dataflow.
    pub fn new(hw: HwParams) -> Self {
        SystolicArrayModel {
            hw,
            dataflow: Dataflow::WeightStationary,
        }
    }

    /// Creates the model with an explicit dataflow.
    pub fn with_dataflow(hw: HwParams, dataflow: Dataflow) -> Self {
        SystolicArrayModel { hw, dataflow }
    }

    /// The underlying parameters.
    pub fn params(&self) -> HwParams {
        self.hw
    }

    /// The dataflow in effect.
    pub fn dataflow(&self) -> Dataflow {
        self.dataflow
    }

    /// Timing of the generic matrix-shaped workload, `(cycles, tiles)`.
    ///
    /// Pure integer tile/wave arithmetic — the single implementation
    /// shared by the exact costing path and the cycles-only
    /// lower-bound accessors ([`Self::conv2d_cycles`] and friends), so
    /// the two can never drift.
    fn matrix_timing(&self, reduction: u64, outputs: u64, positions: u64) -> (u64, u64) {
        let s = u64::from(self.hw.sa_size);
        let (tiles, per_tile) = match self.dataflow {
            Dataflow::WeightStationary => (
                reduction.div_ceil(s) * outputs.div_ceil(s),
                positions + 2 * s, // stream positions + fill/drain
            ),
            Dataflow::OutputStationary => (
                positions.div_ceil(s) * outputs.div_ceil(s),
                reduction + 2 * s, // stream the reduction + fill/drain
            ),
        };
        let waves = tiles.div_ceil(u64::from(self.hw.n_sa));
        (waves * per_tile, tiles)
    }

    /// Generic matrix-shaped workload: `reduction` × `outputs` weight
    /// matrix applied to `positions` input vectors, with dynamic energy
    /// `energy_pj`.
    fn matrix(&self, reduction: u64, outputs: u64, positions: u64, energy_pj: f64) -> SystolicCost {
        let (cycles, tiles) = self.matrix_timing(reduction, outputs, positions);
        SystolicCost {
            cycles,
            tiles,
            energy_pj,
        }
    }

    /// Cost of a 2-D convolution (im2col mapping: reduction dimension
    /// is `C_in/groups · K_x · K_y`, repeated per group).
    pub fn conv2d(&self, c: &Conv2d) -> SystolicCost {
        let (reduction, outputs, positions, groups) = conv2d_shape(c);
        let (cycles, tiles) = self.matrix_timing(reduction, outputs, positions);
        SystolicCost {
            cycles: cycles * groups,
            tiles: tiles * groups,
            energy_pj: conv2d_energy_pj(c),
        }
    }

    /// Execution cycles of a 2-D convolution — [`Self::conv2d`]
    /// without any of the floating-point energy work.
    pub fn conv2d_cycles(&self, c: &Conv2d) -> u64 {
        let (reduction, outputs, positions, groups) = conv2d_shape(c);
        self.matrix_timing(reduction, outputs, positions).0 * groups
    }

    /// Cost of a 1-D convolution.
    pub fn conv1d(&self, c: &Conv1d) -> SystolicCost {
        let (reduction, outputs, positions) = conv1d_shape(c);
        self.matrix(reduction, outputs, positions, conv1d_energy_pj(c))
    }

    /// Execution cycles of a 1-D convolution.
    pub fn conv1d_cycles(&self, c: &Conv1d) -> u64 {
        let (reduction, outputs, positions) = conv1d_shape(c);
        self.matrix_timing(reduction, outputs, positions).0
    }

    /// Cost of a fully connected layer over `tokens` positions.
    pub fn linear(&self, l: &Linear) -> SystolicCost {
        self.matrix(
            u64::from(l.in_features),
            u64::from(l.out_features),
            u64::from(l.tokens),
            linear_energy_pj(l),
        )
    }

    /// Execution cycles of a fully connected layer.
    pub fn linear_cycles(&self, l: &Linear) -> u64 {
        self.matrix_timing(
            u64::from(l.in_features),
            u64::from(l.out_features),
            u64::from(l.tokens),
        )
        .0
    }
}

/// Dynamic energy of a matrix-shaped workload, pJ: its MACs plus its
/// SRAM traffic. It reads the layer's shape only — never the hardware
/// point — so a layer's energy is the same at every design point.
fn matrix_energy_pj(macs: u64, io_bytes: u64) -> f64 {
    macs as f64 * tech28::PE_ENERGY_PJ + io_bytes as f64 * tech28::SRAM_ENERGY_PJ_PER_BYTE
}

/// Dynamic energy of a 2-D convolution, pJ (see [`matrix_energy_pj`]).
pub(crate) fn conv2d_energy_pj(c: &Conv2d) -> f64 {
    let in_bytes = u64::from(c.ifm.0) * u64::from(c.ifm.1) * u64::from(c.in_channels);
    matrix_energy_pj(c.macs(), in_bytes + c.output_elements())
}

/// Dynamic energy of a 1-D convolution, pJ.
pub(crate) fn conv1d_energy_pj(c: &Conv1d) -> f64 {
    let io_bytes = u64::from(c.length) * u64::from(c.in_channels) + c.output_elements();
    matrix_energy_pj(c.macs(), io_bytes)
}

/// Dynamic energy of a fully connected layer, pJ.
pub(crate) fn linear_energy_pj(l: &Linear) -> f64 {
    let io_bytes = u64::from(l.in_features) * u64::from(l.tokens) + l.output_elements();
    matrix_energy_pj(l.macs(), io_bytes)
}

/// The im2col matrix shape of a 2-D convolution:
/// `(reduction, outputs, positions, groups)`.
fn conv2d_shape(c: &Conv2d) -> (u64, u64, u64, u64) {
    let (ox, oy) = c.ofm();
    let positions = u64::from(ox) * u64::from(oy);
    let reduction =
        u64::from(c.in_channels / c.groups) * u64::from(c.kernel.0) * u64::from(c.kernel.1);
    let outputs = u64::from(c.out_channels / c.groups);
    (
        reduction.max(1),
        outputs.max(1),
        positions,
        u64::from(c.groups),
    )
}

/// The matrix shape of a 1-D convolution: `(reduction, outputs, positions)`.
fn conv1d_shape(c: &Conv1d) -> (u64, u64, u64) {
    (
        u64::from(c.in_channels) * u64::from(c.kernel),
        u64::from(c.out_channels),
        u64::from(c.output_length()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HwParams {
        HwParams::new(32, 32, 16, 16)
    }

    fn conv(ic: u32, oc: u32, k: u32, ifm: u32) -> Conv2d {
        Conv2d {
            in_channels: ic,
            out_channels: oc,
            kernel: (k, k),
            stride: (1, 1),
            padding: (k / 2, k / 2),
            ifm: (ifm, ifm),
            groups: 1,
        }
    }

    #[test]
    fn tile_count_matches_formula() {
        let m = SystolicArrayModel::new(hw());
        let c = conv(64, 128, 3, 28);
        let cost = m.conv2d(&c);
        // reduction = 64*9 = 576 -> 18 tiles; outputs 128 -> 4 tiles.
        assert_eq!(cost.tiles, 18 * 4);
    }

    #[test]
    fn cycles_scale_with_waves() {
        let m = SystolicArrayModel::new(hw());
        let c = conv(64, 128, 3, 28);
        // 72 tiles on 32 arrays = 3 waves of (28*28 + 64) cycles.
        assert_eq!(m.conv2d(&c).cycles, 3 * (28 * 28 + 64));
    }

    #[test]
    fn more_arrays_never_slower() {
        let small = SystolicArrayModel::new(HwParams::new(32, 16, 16, 16));
        let big = SystolicArrayModel::new(HwParams::new(32, 64, 16, 16));
        let c = conv(256, 256, 3, 14);
        assert!(big.conv2d(&c).cycles <= small.conv2d(&c).cycles);
    }

    #[test]
    fn energy_is_invariant_to_parallelism() {
        // Same MACs, same energy — parallelism trades latency, not work.
        let a = SystolicArrayModel::new(HwParams::new(32, 16, 16, 16));
        let b = SystolicArrayModel::new(HwParams::new(32, 64, 16, 16));
        let c = conv(128, 128, 3, 28);
        assert_eq!(a.conv2d(&c).energy_pj, b.conv2d(&c).energy_pj);
    }

    #[test]
    fn linear_tiles() {
        let m = SystolicArrayModel::new(hw());
        let l = Linear {
            in_features: 768,
            out_features: 3072,
            tokens: 128,
        };
        // 24 x 96 tiles, 2304 tiles / 32 arrays = 72 waves of 128+64.
        let cost = m.linear(&l);
        assert_eq!(cost.tiles, 24 * 96);
        assert_eq!(cost.cycles, 72 * (128 + 64));
    }

    #[test]
    fn depthwise_conv_handles_groups() {
        let m = SystolicArrayModel::new(hw());
        let mut c = conv(32, 32, 3, 56);
        c.groups = 32;
        let cost = m.conv2d(&c);
        // Each group is a 9x1 tile -> 1 tile per group, 32 groups.
        assert_eq!(cost.tiles, 32);
        assert!(cost.cycles > 0);
    }

    #[test]
    fn conv1d_positions_follow_stride() {
        let m = SystolicArrayModel::new(hw());
        let c = Conv1d {
            in_channels: 128,
            out_channels: 1280,
            kernel: 3,
            stride: 2,
            padding: 1,
            length: 3000,
        };
        let cost = m.conv1d(&c);
        // reduction 384 -> 12 tiles; outputs 1280 -> 40 tiles.
        assert_eq!(cost.tiles, 12 * 40);
        assert!(cost.energy_pj > c.macs() as f64 * 0.5);
    }

    #[test]
    fn dataflows_favour_their_stationary_dimension() {
        let ws = SystolicArrayModel::with_dataflow(hw(), Dataflow::WeightStationary);
        let os = SystolicArrayModel::with_dataflow(hw(), Dataflow::OutputStationary);
        // Single-token deep matmul: WS re-tiles the whole weight matrix
        // (128x128 tiles of 65 cycles = 512 waves) while OS streams the
        // reduction once per output tile (4 waves of 4160 cycles).
        let deep = Linear {
            in_features: 4096,
            out_features: 4096,
            tokens: 1,
        };
        assert!(os.linear(&deep).cycles < ws.linear(&deep).cycles);
        // Many positions over a small weight matrix (single array, to
        // isolate dataflow from tile-level parallelism): WS pins the
        // 2x2 tile set and streams all positions once; OS re-loads
        // partial-sum tiles per position block and pays the fill/drain
        // 1024 times.
        let one = HwParams::new(32, 1, 16, 16);
        let ws1 = SystolicArrayModel::with_dataflow(one, Dataflow::WeightStationary);
        let os1 = SystolicArrayModel::with_dataflow(one, Dataflow::OutputStationary);
        let wide = Linear {
            in_features: 64,
            out_features: 64,
            tokens: 16_384,
        };
        assert!(ws1.linear(&wide).cycles < os1.linear(&wide).cycles);
    }

    #[test]
    fn dataflow_does_not_change_energy() {
        let c = conv(128, 128, 3, 28);
        let ws = SystolicArrayModel::with_dataflow(hw(), Dataflow::WeightStationary);
        let os = SystolicArrayModel::with_dataflow(hw(), Dataflow::OutputStationary);
        assert_eq!(ws.conv2d(&c).energy_pj, os.conv2d(&c).energy_pj);
    }

    #[test]
    fn default_dataflow_is_weight_stationary() {
        assert_eq!(
            SystolicArrayModel::new(hw()).dataflow(),
            Dataflow::WeightStationary
        );
    }

    #[test]
    fn cycles_accessors_match_full_costing() {
        let c1 = Conv1d {
            in_channels: 128,
            out_channels: 1280,
            kernel: 3,
            stride: 2,
            padding: 1,
            length: 3000,
        };
        let l = Linear {
            in_features: 768,
            out_features: 3072,
            tokens: 128,
        };
        let mut dw = conv(32, 32, 3, 56);
        dw.groups = 32;
        for hwp in [
            HwParams::new(16, 4, 8, 8),
            HwParams::new(32, 32, 16, 16),
            HwParams::new(64, 1, 16, 16),
        ] {
            for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
                let m = SystolicArrayModel::with_dataflow(hwp, df);
                let c2 = conv(64, 128, 3, 28);
                assert_eq!(m.conv2d(&c2).cycles, m.conv2d_cycles(&c2));
                assert_eq!(m.conv2d(&dw).cycles, m.conv2d_cycles(&dw));
                assert_eq!(m.conv1d(&c1).cycles, m.conv1d_cycles(&c1));
                assert_eq!(m.linear(&l).cycles, m.linear_cycles(&l));
            }
        }
    }

    #[test]
    fn bigger_array_fewer_tiles_but_more_fill() {
        let c = conv(64, 64, 3, 7); // small spatial extent
        let small = SystolicArrayModel::new(HwParams::new(16, 1, 16, 16));
        let big = SystolicArrayModel::new(HwParams::new(64, 1, 16, 16));
        let ts = small.conv2d(&c);
        let tb = big.conv2d(&c);
        assert!(tb.tiles < ts.tiles);
        // For tiny outputs the fill/drain dominates; the 64x64 array is
        // not proportionally faster.
        let ideal_speedup = ts.tiles as f64 / tb.tiles as f64;
        let real_speedup = ts.cycles as f64 / tb.cycles as f64;
        assert!(real_speedup < ideal_speedup);
    }
}
