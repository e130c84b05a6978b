//! Node-level analytical PPA evaluation (Input #3): latency, energy
//! and area of each hardware unit, parameterised by [`HwParams`].

use crate::params::HwParams;
use crate::systolic::{SystolicArrayModel, SystolicCost};
use crate::tech28;
use claire_model::{
    Activation, ActivationKind, Flatten, LayerKind, OpClass, Permute, Pooling, PoolingKind,
};

/// Latency/energy of executing one layer on its module group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// Execution cycles at [`tech28::CLOCK_HZ`].
    pub cycles: u64,
    /// Dynamic energy, pJ.
    pub energy_pj: f64,
    /// Number of sub-task executions (node weight `w_N` contribution).
    pub executions: u64,
}

impl LayerCost {
    /// Latency in seconds.
    pub fn latency_s(&self) -> f64 {
        self.cycles as f64 / tech28::CLOCK_HZ
    }
}

fn activation_ppa(kind: ActivationKind) -> (f64, f64) {
    match kind {
        ActivationKind::Relu => tech28::activation::RELU,
        ActivationKind::Relu6 => tech28::activation::RELU6,
        ActivationKind::Gelu => tech28::activation::GELU,
        ActivationKind::Silu => tech28::activation::SILU,
        ActivationKind::Tanh => tech28::activation::TANH,
    }
}

fn pooling_ppa(kind: PoolingKind) -> (f64, f64) {
    match kind {
        PoolingKind::MaxPool => tech28::pooling::MAX_POOL,
        PoolingKind::AvgPool => tech28::pooling::AVG_POOL,
        PoolingKind::AdaptiveAvgPool => tech28::pooling::ADAPTIVE_AVG_POOL,
        PoolingKind::LastLevelMaxPool => tech28::pooling::LAST_LEVEL_MAX_POOL,
        PoolingKind::RoiAlign => tech28::pooling::ROI_ALIGN,
    }
}

/// Converts a systolic tiling result into a [`LayerCost`].
pub(crate) fn systolic_layer_cost(s: SystolicCost) -> LayerCost {
    LayerCost {
        cycles: s.cycles,
        energy_pj: s.energy_pj,
        executions: s.tiles,
    }
}

/// Execution cycles of one activation layer — the integer core shared
/// by [`activation_cost`] and the cycles-only lower-bound kernel, so
/// the two can never drift.
pub(crate) fn activation_cycles(a: &Activation, hw: &HwParams) -> u64 {
    a.elements.div_ceil(u64::from(hw.n_act))
}

/// Execution cycles of one pooling layer (see [`activation_cycles`]).
pub(crate) fn pooling_cycles(p: &Pooling, hw: &HwParams) -> u64 {
    p.input_elements.div_ceil(u64::from(hw.n_pool))
}

/// Execution cycles of a reshape drain (flatten / permute).
pub(crate) fn reshape_cycles(elements: u64) -> u64 {
    (elements as f64 / tech28::RESHAPE_ELEMENTS_PER_CYCLE).ceil() as u64
}

/// Dynamic energy of one activation layer, pJ: per element, whatever
/// the unit count — the energy the costing and the batch kernel's
/// once-per-batch energy fold share.
pub(crate) fn activation_energy_pj(a: &Activation) -> f64 {
    a.elements as f64 * activation_ppa(a.kind).1
}

/// Dynamic energy of one pooling layer, pJ (see
/// [`activation_energy_pj`]).
pub(crate) fn pooling_energy_pj(p: &Pooling) -> f64 {
    p.input_elements as f64 * pooling_ppa(p.kind).1
}

/// Dynamic energy of a flatten layer, pJ.
pub(crate) fn flatten_energy_pj(f: &Flatten) -> f64 {
    f.elements as f64 * tech28::FLATTEN.1
}

/// Dynamic energy of a permute layer, pJ.
pub(crate) fn permute_energy_pj(p: &Permute) -> f64 {
    p.elements as f64 * tech28::PERMUTE.1
}

/// Cost of one activation layer: `elements` stream through the
/// `n_act` units of its kind, one element per cycle per unit.
pub(crate) fn activation_cost(a: &Activation, hw: &HwParams) -> LayerCost {
    let cycles = activation_cycles(a, hw);
    LayerCost {
        cycles,
        energy_pj: activation_energy_pj(a),
        executions: cycles,
    }
}

/// Cost of one pooling layer across the `n_pool` units of its kind.
pub(crate) fn pooling_cost(p: &Pooling, hw: &HwParams) -> LayerCost {
    let cycles = pooling_cycles(p, hw);
    LayerCost {
        cycles,
        energy_pj: pooling_energy_pj(p),
        executions: cycles,
    }
}

/// Cost of a flatten (reshape drain) layer.
pub(crate) fn flatten_cost(f: &Flatten) -> LayerCost {
    let cycles = reshape_cycles(f.elements);
    LayerCost {
        cycles,
        energy_pj: flatten_energy_pj(f),
        executions: cycles,
    }
}

/// Cost of a permute (dimension reordering) layer.
pub(crate) fn permute_cost(p: &Permute) -> LayerCost {
    let cycles = reshape_cycles(p.elements);
    LayerCost {
        cycles,
        energy_pj: permute_energy_pj(p),
        executions: cycles,
    }
}

/// Evaluates one layer on the design point `hw`.
///
/// Systolic layers use the weight-stationary tiling model; activation
/// and pooling layers stream one element per cycle per unit across the
/// `n_act`/`n_pool` units of their kind; flatten/permute drain
/// [`tech28::RESHAPE_ELEMENTS_PER_CYCLE`] elements per cycle.
///
/// The per-family formulas are shared with [`crate::LayerBatch`], the
/// batched struct-of-arrays kernel, so the two can never drift apart.
pub fn layer_cost(layer: &LayerKind, hw: &HwParams) -> LayerCost {
    let sa = SystolicArrayModel::new(*hw);
    match layer {
        LayerKind::Conv2d(c) => systolic_layer_cost(sa.conv2d(c)),
        LayerKind::Conv1d(c) => systolic_layer_cost(sa.conv1d(c)),
        LayerKind::Linear(l) => systolic_layer_cost(sa.linear(l)),
        LayerKind::Activation(a) => activation_cost(a, hw),
        LayerKind::Pooling(p) => pooling_cost(p, hw),
        LayerKind::Flatten(f) => flatten_cost(f),
        LayerKind::Permute(p) => permute_cost(p),
    }
}

/// Execution cycles of one layer on the design point `hw` —
/// [`layer_cost`] without any of the floating-point energy work.
///
/// Every arm routes through the same integer cycle helpers the exact
/// costing uses, so `layer_cycles(l, hw) == layer_cost(l, hw).cycles`
/// bit for bit. This is the per-layer core of the compute-only
/// latency **lower bound**: summed over a model it gives the cycles
/// the compute units alone need, ignoring all inter-chiplet transfer
/// latency (i.e. latency at infinite bandwidth).
pub fn layer_cycles(layer: &LayerKind, hw: &HwParams) -> u64 {
    let sa = SystolicArrayModel::new(*hw);
    match layer {
        LayerKind::Conv2d(c) => sa.conv2d_cycles(c),
        LayerKind::Conv1d(c) => sa.conv1d_cycles(c),
        LayerKind::Linear(l) => sa.linear_cycles(l),
        LayerKind::Activation(a) => activation_cycles(a, hw),
        LayerKind::Pooling(p) => pooling_cycles(p, hw),
        LayerKind::Flatten(f) => reshape_cycles(f.elements),
        LayerKind::Permute(p) => reshape_cycles(p.elements),
    }
}

/// Silicon area of one module group of class `class` under `hw`, mm².
///
/// A systolic module group instantiates `n_sa` arrays of
/// `sa_size × sa_size` PEs with peripheral overhead and a local SRAM
/// tile buffer per array; activation/pooling groups instantiate
/// `n_act`/`n_pool` units of their kind; flatten/permute are single
/// buffer units.
pub fn unit_area_mm2(class: OpClass, hw: &HwParams) -> f64 {
    match class {
        OpClass::Conv2d | OpClass::Conv1d | OpClass::Linear => {
            let pes = hw.total_pes() as f64;
            let array_area = pes * tech28::PE_AREA_MM2 * (1.0 + tech28::SA_PERIPHERAL_OVERHEAD);
            let sram = f64::from(hw.n_sa) * tech28::SA_SRAM_BYTES * tech28::SRAM_AREA_MM2_PER_BYTE;
            array_area + sram
        }
        OpClass::Activation(a) => f64::from(hw.n_act) * activation_ppa(a).0,
        OpClass::Pooling(p) => f64::from(hw.n_pool) * pooling_ppa(p).0,
        OpClass::Flatten => tech28::FLATTEN.0,
        OpClass::Permute => tech28::PERMUTE.0,
    }
}

/// Total silicon area of a configuration: the sum of its module
/// groups' areas (NoC router area is added by the NoC model per node).
pub fn config_area_mm2<'a, I>(classes: I, hw: &HwParams) -> f64
where
    I: IntoIterator<Item = &'a OpClass>,
{
    classes.into_iter().map(|&c| unit_area_mm2(c, hw)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_model::{Activation, Conv2d, Flatten, Linear, Pooling};

    fn hw() -> HwParams {
        HwParams::new(32, 32, 16, 16)
    }

    #[test]
    fn systolic_group_area_in_expected_band() {
        // 32x32x32: ~36 mm^2 of PE + ~2.2 mm^2 SRAM.
        let a = unit_area_mm2(OpClass::Conv2d, &hw());
        assert!((30.0..45.0).contains(&a), "{a}");
    }

    #[test]
    fn config_area_within_paper_band() {
        // A CNN-style configuration must land in the paper's
        // "realistic area range of 10-100 mm^2".
        let classes = [
            OpClass::Conv2d,
            OpClass::Activation(ActivationKind::Relu),
            OpClass::Pooling(PoolingKind::MaxPool),
        ];
        let a = config_area_mm2(classes.iter(), &hw());
        assert!((10.0..100.0).contains(&a), "{a}");
    }

    #[test]
    fn oversized_config_exceeds_chip_limit() {
        let big = HwParams::new(64, 64, 32, 32);
        let a = unit_area_mm2(OpClass::Linear, &big);
        assert!(a > 100.0, "{a}");
    }

    #[test]
    fn activation_latency_uses_unit_count() {
        let act = LayerKind::Activation(Activation {
            kind: ActivationKind::Relu,
            elements: 1000,
        });
        let c = layer_cost(&act, &hw());
        assert_eq!(c.cycles, 1000_u64.div_ceil(16));
    }

    #[test]
    fn pooling_energy_scales_with_inputs() {
        let pool = LayerKind::Pooling(Pooling {
            kind: PoolingKind::MaxPool,
            input_elements: 10_000,
            output_elements: 2_500,
        });
        let c = layer_cost(&pool, &hw());
        assert!((c.energy_pj - 10_000.0 * 0.2).abs() < 1e-9);
    }

    #[test]
    fn flatten_is_cheap_but_not_free() {
        let f = LayerKind::Flatten(Flatten { elements: 4096 });
        let c = layer_cost(&f, &hw());
        assert_eq!(c.cycles, 4096 / 32);
        assert!(c.energy_pj > 0.0);
    }

    #[test]
    fn latency_seconds_conversion() {
        let l = LayerKind::Linear(Linear {
            in_features: 32,
            out_features: 32,
            tokens: 1,
        });
        let c = layer_cost(&l, &hw());
        assert!((c.latency_s() - c.cycles as f64 / 1e9).abs() < 1e-18);
    }

    #[test]
    fn conv_cost_decreases_with_more_arrays() {
        let conv = LayerKind::Conv2d(Conv2d {
            in_channels: 256,
            out_channels: 256,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            ifm: (14, 14),
            groups: 1,
        });
        let small = layer_cost(&conv, &HwParams::new(32, 16, 16, 16));
        let big = layer_cost(&conv, &HwParams::new(32, 64, 16, 16));
        assert!(big.cycles < small.cycles);
    }

    #[test]
    fn layer_cycles_matches_layer_cost() {
        let layers = [
            LayerKind::Conv2d(Conv2d {
                in_channels: 64,
                out_channels: 128,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
                ifm: (28, 28),
                groups: 1,
            }),
            LayerKind::Linear(Linear {
                in_features: 768,
                out_features: 3072,
                tokens: 128,
            }),
            LayerKind::Activation(Activation {
                kind: ActivationKind::Gelu,
                elements: 1_000,
            }),
            LayerKind::Pooling(Pooling {
                kind: PoolingKind::MaxPool,
                input_elements: 10_000,
                output_elements: 2_500,
            }),
            LayerKind::Flatten(Flatten { elements: 4097 }),
        ];
        for hwp in [HwParams::new(16, 4, 8, 8), HwParams::new(64, 8, 32, 4)] {
            for l in &layers {
                assert_eq!(layer_cycles(l, &hwp), layer_cost(l, &hwp).cycles, "{l:?}");
            }
        }
    }

    #[test]
    fn unit_areas_grow_along_every_axis() {
        // The DSE area screen stops a row at its first point over the
        // cap; that is sound only while no unit area falls as an axis
        // value grows.
        let base = [16u32, 8, 4, 4];
        for class in OpClass::all() {
            for axis in 0..4 {
                let mut last = 0.0;
                for v in 1..=64 {
                    let mut p = base;
                    p[axis] = v;
                    let area = unit_area_mm2(class, &HwParams::new(p[0], p[1], p[2], p[3]));
                    assert!(area > 0.0 && area >= last, "{class:?} axis {axis} at {v}");
                    last = area;
                }
            }
        }
    }

    #[test]
    fn gelu_energy_dominates_relu() {
        let mk = |kind| {
            layer_cost(
                &LayerKind::Activation(Activation {
                    kind,
                    elements: 1_000,
                }),
                &hw(),
            )
            .energy_pj
        };
        assert!(mk(ActivationKind::Gelu) > 10.0 * mk(ActivationKind::Relu));
    }
}
