//! Layer metadata types — the paper's Step #TR1 extraction schema.
//!
//! Each layer record carries exactly the fields the CLAIRE parser
//! extracts from `print(model)` dumps: layer type, input size
//! (`IFM_x`, `IFM_y`), output size (`OFM_x`, `OFM_y`), input/output
//! channels (`N_IFM`, `N_OFM`), kernel size (`K_x`, `K_y`), stride and
//! padding.

use crate::name::LayerName;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Activation function kinds characterized in the CLAIRE hardware
/// building-block library (paper Input #2 and Table II).
///
/// `Tanh` is listed by the paper as its own layer type ("Conv2d, Linear,
/// Tanh, activation units, and pooling units"); the hardware tanh block
/// is derived from a stochastic-computing implementation and also serves
/// as the core of the GELU unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ActivationKind {
    /// Rectified linear unit.
    Relu,
    /// ReLU clamped at 6 (MobileNetV2).
    Relu6,
    /// Gaussian error linear unit (Transformers).
    Gelu,
    /// Sigmoid linear unit / swish (LLaMA, Mixtral).
    Silu,
    /// Hyperbolic tangent (BERT pooler; characterized separately in the
    /// paper's Input #2).
    Tanh,
}

impl ActivationKind {
    /// All activation kinds, in a stable order.
    pub const ALL: [ActivationKind; 5] = [
        ActivationKind::Relu,
        ActivationKind::Relu6,
        ActivationKind::Gelu,
        ActivationKind::Silu,
        ActivationKind::Tanh,
    ];

    /// The upper-case token used in the paper's Table II (e.g. `RELU6`).
    pub fn token(self) -> &'static str {
        match self {
            ActivationKind::Relu => "RELU",
            ActivationKind::Relu6 => "RELU6",
            ActivationKind::Gelu => "GELU",
            ActivationKind::Silu => "SILU",
            ActivationKind::Tanh => "TANH",
        }
    }
}

impl fmt::Display for ActivationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Pooling unit kinds characterized in the library (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PoolingKind {
    /// Sliding-window max pooling.
    MaxPool,
    /// Sliding-window average pooling.
    AvgPool,
    /// Output-size-driven average pooling (`nn.AdaptiveAvgPool2d`).
    AdaptiveAvgPool,
    /// The extra max-pool level appended to torchvision FPNs
    /// (`LastLevelMaxPool`), used by PEANUT-RCNN.
    LastLevelMaxPool,
    /// Region-of-interest align (detection heads).
    RoiAlign,
}

impl PoolingKind {
    /// All pooling kinds, in a stable order.
    pub const ALL: [PoolingKind; 5] = [
        PoolingKind::MaxPool,
        PoolingKind::AvgPool,
        PoolingKind::AdaptiveAvgPool,
        PoolingKind::LastLevelMaxPool,
        PoolingKind::RoiAlign,
    ];

    /// The upper-case token used in the paper's Table II.
    pub fn token(self) -> &'static str {
        match self {
            PoolingKind::MaxPool => "MAXPOOL",
            PoolingKind::AvgPool => "AVGPOOL",
            PoolingKind::AdaptiveAvgPool => "ADAPTIVEAVGPOOL",
            PoolingKind::LastLevelMaxPool => "LASTLEVELMAXPOOL",
            PoolingKind::RoiAlign => "ROIALIGN",
        }
    }
}

impl fmt::Display for PoolingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A 2-D convolution layer (`nn.Conv2d`), executed on a weight-stationary
/// systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2d {
    /// Input channels (`N_IFM`).
    pub in_channels: u32,
    /// Output channels (`N_OFM`).
    pub out_channels: u32,
    /// Kernel size (`K_x`, `K_y`).
    pub kernel: (u32, u32),
    /// Stride (`Str`).
    pub stride: (u32, u32),
    /// Padding (`Pad`).
    pub padding: (u32, u32),
    /// Input feature-map size (`IFM_x`, `IFM_y`).
    pub ifm: (u32, u32),
    /// Grouped-convolution factor (1 = dense, `in_channels` = depthwise).
    pub groups: u32,
}

impl Conv2d {
    /// Output feature-map size (`OFM_x`, `OFM_y`) under the usual
    /// floor-division convolution arithmetic.
    ///
    /// Total over all field values (degenerate strides are treated as
    /// 1, extreme sizes saturate) so that parsed-then-mutated layer
    /// records can never divide by zero or overflow.
    pub fn ofm(&self) -> (u32, u32) {
        let o = |i: u32, k: u32, s: u32, p: u32| {
            let span = (u64::from(i) + 2 * u64::from(p)).saturating_sub(u64::from(k));
            u32::try_from(span / u64::from(s.max(1)) + 1).unwrap_or(u32::MAX)
        };
        (
            o(self.ifm.0, self.kernel.0, self.stride.0, self.padding.0),
            o(self.ifm.1, self.kernel.1, self.stride.1, self.padding.1),
        )
    }

    /// Trainable parameter count (weights + biases).
    pub fn params(&self) -> u64 {
        let w = u64::from(self.out_channels)
            .saturating_mul(u64::from(self.in_channels / self.groups.max(1)))
            .saturating_mul(u64::from(self.kernel.0))
            .saturating_mul(u64::from(self.kernel.1));
        w.saturating_add(u64::from(self.out_channels))
    }

    /// Multiply-accumulate operations for one inference.
    pub fn macs(&self) -> u64 {
        let (ox, oy) = self.ofm();
        u64::from(ox)
            .saturating_mul(u64::from(oy))
            .saturating_mul(u64::from(self.out_channels))
            .saturating_mul(u64::from(self.in_channels / self.groups.max(1)))
            .saturating_mul(u64::from(self.kernel.0))
            .saturating_mul(u64::from(self.kernel.1))
    }

    /// Number of output activations produced.
    pub fn output_elements(&self) -> u64 {
        let (ox, oy) = self.ofm();
        u64::from(ox)
            .saturating_mul(u64::from(oy))
            .saturating_mul(u64::from(self.out_channels))
    }
}

/// A 1-D convolution layer (`nn.Conv1d`, or the HuggingFace `Conv1D`
/// module used throughout GPT-2 and in the Whisper encoder front-end).
///
/// The paper singles these out: "new models, such as GPT2 and Whisper,
/// use a 1D convolution module, differing from traditional
/// architectures, and are grouped separately".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv1d {
    /// Input channels.
    pub in_channels: u32,
    /// Output channels.
    pub out_channels: u32,
    /// Kernel length.
    pub kernel: u32,
    /// Stride.
    pub stride: u32,
    /// Padding.
    pub padding: u32,
    /// Input sequence length.
    pub length: u32,
}

impl Conv1d {
    /// Output sequence length (total: degenerate strides count as 1,
    /// extreme sizes saturate).
    pub fn output_length(&self) -> u32 {
        let span = (u64::from(self.length) + 2 * u64::from(self.padding))
            .saturating_sub(u64::from(self.kernel));
        u32::try_from(span / u64::from(self.stride.max(1)) + 1).unwrap_or(u32::MAX)
    }

    /// Trainable parameter count.
    pub fn params(&self) -> u64 {
        u64::from(self.out_channels)
            .saturating_mul(u64::from(self.in_channels))
            .saturating_mul(u64::from(self.kernel))
            .saturating_add(u64::from(self.out_channels))
    }

    /// Multiply-accumulate operations for one inference.
    pub fn macs(&self) -> u64 {
        u64::from(self.output_length())
            .saturating_mul(u64::from(self.out_channels))
            .saturating_mul(u64::from(self.in_channels))
            .saturating_mul(u64::from(self.kernel))
    }

    /// Number of output activations produced.
    pub fn output_elements(&self) -> u64 {
        u64::from(self.output_length()).saturating_mul(u64::from(self.out_channels))
    }
}

/// A fully connected layer (`nn.Linear`), executed on the systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Linear {
    /// Input features.
    pub in_features: u32,
    /// Output features.
    pub out_features: u32,
    /// Number of positions the layer is applied to (sequence length ×
    /// batch for transformers, 1 for CNN classifier heads).
    pub tokens: u32,
}

impl Linear {
    /// Trainable parameter count.
    pub fn params(&self) -> u64 {
        u64::from(self.in_features)
            .saturating_mul(u64::from(self.out_features))
            .saturating_add(u64::from(self.out_features))
    }

    /// Multiply-accumulate operations for one inference.
    pub fn macs(&self) -> u64 {
        u64::from(self.in_features)
            .saturating_mul(u64::from(self.out_features))
            .saturating_mul(u64::from(self.tokens))
    }

    /// Number of output activations produced.
    pub fn output_elements(&self) -> u64 {
        u64::from(self.out_features).saturating_mul(u64::from(self.tokens))
    }
}

/// An element-wise activation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Activation {
    /// Which activation function.
    pub kind: ActivationKind,
    /// Number of elements the function is applied to.
    pub elements: u64,
}

/// A pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pooling {
    /// Which pooling operator.
    pub kind: PoolingKind,
    /// Input elements consumed.
    pub input_elements: u64,
    /// Output elements produced.
    pub output_elements: u64,
}

/// A flatten (reshape) layer, printed by e.g. torchvision VGG/Swin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Flatten {
    /// Number of elements moved.
    pub elements: u64,
}

/// A permute (dimension reordering) layer, printed by torchvision Swin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Permute {
    /// Number of elements moved.
    pub elements: u64,
}

/// The layer types considered by the CLAIRE framework.
///
/// This matches the paper's Step #TR1: "The layer types considered
/// include Conv2d, Linear, Tanh, activation units, and pooling units"
/// plus the `FLATTEN`/`PERMUTE` capabilities of Table II and the 1-D
/// convolution module of GPT-2/Whisper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// 1-D convolution.
    Conv1d(Conv1d),
    /// Fully connected layer.
    Linear(Linear),
    /// Element-wise activation (including Tanh).
    Activation(Activation),
    /// Pooling layer.
    Pooling(Pooling),
    /// Reshape.
    Flatten(Flatten),
    /// Dimension permutation.
    Permute(Permute),
}

/// The hardware-unit class a layer maps onto — one class per node type
/// in the CLAIRE graphs (Fig. 2 distinguishes `CONV2D`, `LINEAR`,
/// activation, and pooling node labels).
///
/// Conv2d / Conv1d / Linear all execute on systolic-array hardware but
/// appear as distinct node types because their dataflow configuration
/// (im2col addressing vs. matrix–vector streaming) differs — this is
/// what keeps GPT-2/Whisper in their own library subsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Systolic array configured for 2-D convolution.
    Conv2d,
    /// Systolic array configured for 1-D convolution.
    Conv1d,
    /// Systolic array configured for matrix multiply.
    Linear,
    /// Activation unit of a specific kind.
    Activation(ActivationKind),
    /// Pooling unit of a specific kind.
    Pooling(PoolingKind),
    /// Flatten/reshape unit.
    Flatten,
    /// Permute unit.
    Permute,
}

impl OpClass {
    /// Total number of distinct op classes (3 systolic-array modes +
    /// 5 activations + 5 poolings + flatten + permute).
    pub const COUNT: usize = 15;

    /// All op classes in a stable order (used for similarity vectors).
    pub fn all() -> Vec<OpClass> {
        let mut v = vec![OpClass::Conv2d, OpClass::Conv1d, OpClass::Linear];
        v.extend(ActivationKind::ALL.iter().map(|&a| OpClass::Activation(a)));
        v.extend(PoolingKind::ALL.iter().map(|&p| OpClass::Pooling(p)));
        v.push(OpClass::Flatten);
        v.push(OpClass::Permute);
        v
    }

    /// A stable dense index in `0..Self::COUNT`.
    pub fn index(self) -> usize {
        match self {
            OpClass::Conv2d => 0,
            OpClass::Conv1d => 1,
            OpClass::Linear => 2,
            OpClass::Activation(a) => 3 + a as usize,
            OpClass::Pooling(p) => 8 + p as usize,
            OpClass::Flatten => 13,
            OpClass::Permute => 14,
        }
    }

    /// The class with dense index `i` — the inverse of
    /// [`OpClass::index`] — or `None` when `i >= Self::COUNT`.
    pub fn from_index(i: usize) -> Option<OpClass> {
        Some(match i {
            0 => OpClass::Conv2d,
            1 => OpClass::Conv1d,
            2 => OpClass::Linear,
            3..=7 => OpClass::Activation(ActivationKind::ALL[i - 3]),
            8..=12 => OpClass::Pooling(PoolingKind::ALL[i - 8]),
            13 => OpClass::Flatten,
            14 => OpClass::Permute,
            _ => return None,
        })
    }

    /// This class's bit in a class mask: `1 << self.index()`.
    pub fn bit(self) -> u16 {
        1 << self.index()
    }

    /// The classes whose bits are set in `mask` (see [`OpClass::bit`]),
    /// in index order — which is also `Ord` order.
    pub fn from_mask(mask: u16) -> impl Iterator<Item = OpClass> {
        (0..Self::COUNT)
            .filter(move |&i| mask & (1 << i) != 0)
            .filter_map(OpClass::from_index)
    }

    /// Upper-case label used in graphs and tables (paper Fig. 2 style).
    pub fn label(self) -> String {
        match self {
            OpClass::Conv2d => "CONV2D".to_owned(),
            OpClass::Conv1d => "CONV1D".to_owned(),
            OpClass::Linear => "LINEAR".to_owned(),
            OpClass::Activation(a) => a.token().to_owned(),
            OpClass::Pooling(p) => p.token().to_owned(),
            OpClass::Flatten => "FLATTEN".to_owned(),
            OpClass::Permute => "PERMUTE".to_owned(),
        }
    }

    /// True when this class executes on systolic-array hardware.
    pub fn is_systolic(self) -> bool {
        matches!(self, OpClass::Conv2d | OpClass::Conv1d | OpClass::Linear)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One extracted layer: a name (the module path in the `print(model)`
/// dump) plus typed metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layer {
    /// Module path, e.g. `features.0` or `encoder.layer.3.attention.q`.
    pub name: LayerName,
    /// Typed layer metadata.
    pub kind: LayerKind,
}

impl Layer {
    /// Creates a layer record that owns its name.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Layer {
            name: LayerName::from(name.into()),
            kind,
        }
    }

    /// The hardware-unit class this layer maps onto.
    pub fn op_class(&self) -> OpClass {
        match &self.kind {
            LayerKind::Conv2d(_) => OpClass::Conv2d,
            LayerKind::Conv1d(_) => OpClass::Conv1d,
            LayerKind::Linear(_) => OpClass::Linear,
            LayerKind::Activation(a) => OpClass::Activation(a.kind),
            LayerKind::Pooling(p) => OpClass::Pooling(p.kind),
            LayerKind::Flatten(_) => OpClass::Flatten,
            LayerKind::Permute(_) => OpClass::Permute,
        }
    }

    /// Trainable parameters contributed by this layer.
    pub fn params(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv2d(c) => c.params(),
            LayerKind::Conv1d(c) => c.params(),
            LayerKind::Linear(l) => l.params(),
            _ => 0,
        }
    }

    /// Multiply-accumulate operations for one inference (0 for
    /// non-arithmetic layers; activations/poolings are counted as
    /// element operations, not MACs).
    pub fn macs(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv2d(c) => c.macs(),
            LayerKind::Conv1d(c) => c.macs(),
            LayerKind::Linear(l) => l.macs(),
            _ => 0,
        }
    }

    /// Element-wise operations (activation/pooling work).
    pub fn element_ops(&self) -> u64 {
        match &self.kind {
            LayerKind::Activation(a) => a.elements,
            LayerKind::Pooling(p) => p.input_elements,
            LayerKind::Flatten(f) => f.elements,
            LayerKind::Permute(p) => p.elements,
            _ => 0,
        }
    }

    /// Number of output elements this layer hands to its successor —
    /// the edge weight `w_E` (data communication volume) in the CLAIRE
    /// graphs, in elements (1 byte per element at 8-bit precision).
    pub fn output_elements(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv2d(c) => c.output_elements(),
            LayerKind::Conv1d(c) => c.output_elements(),
            LayerKind::Linear(l) => l.output_elements(),
            LayerKind::Activation(a) => a.elements,
            LayerKind::Pooling(p) => p.output_elements,
            LayerKind::Flatten(f) => f.elements,
            LayerKind::Permute(p) => p.elements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(ic: u32, oc: u32, k: u32, s: u32, p: u32, ifm: u32) -> Conv2d {
        Conv2d {
            in_channels: ic,
            out_channels: oc,
            kernel: (k, k),
            stride: (s, s),
            padding: (p, p),
            ifm: (ifm, ifm),
            groups: 1,
        }
    }

    #[test]
    fn conv2d_ofm_same_padding() {
        // 3x3 stride-1 pad-1 preserves spatial size.
        assert_eq!(conv(64, 64, 3, 1, 1, 56).ofm(), (56, 56));
    }

    #[test]
    fn conv2d_ofm_stride_two() {
        // ResNet stem: 7x7 stride-2 pad-3 on 224 -> 112.
        assert_eq!(conv(3, 64, 7, 2, 3, 224).ofm(), (112, 112));
    }

    #[test]
    fn conv2d_params_include_bias() {
        let c = conv(3, 64, 7, 2, 3, 224);
        assert_eq!(c.params(), 3 * 64 * 49 + 64);
    }

    #[test]
    fn conv2d_depthwise_params() {
        let mut c = conv(32, 32, 3, 1, 1, 112);
        c.groups = 32;
        assert_eq!(c.params(), 32 * 9 + 32);
    }

    #[test]
    fn conv2d_macs_match_formula() {
        let c = conv(64, 128, 3, 1, 1, 28);
        assert_eq!(c.macs(), 28 * 28 * 128 * 64 * 9);
    }

    #[test]
    fn conv1d_length_arithmetic() {
        // Whisper front-end: k3 s2 p1 on 3000 -> 1500.
        let c = Conv1d {
            in_channels: 128,
            out_channels: 1280,
            kernel: 3,
            stride: 2,
            padding: 1,
            length: 3000,
        };
        assert_eq!(c.output_length(), 1500);
        assert_eq!(c.output_elements(), 1500 * 1280);
    }

    #[test]
    fn linear_macs_scale_with_tokens() {
        let l = Linear {
            in_features: 768,
            out_features: 3072,
            tokens: 128,
        };
        assert_eq!(l.macs(), 768 * 3072 * 128);
        assert_eq!(l.params(), 768 * 3072 + 3072);
    }

    #[test]
    fn op_class_indices_are_dense_and_unique() {
        let all = OpClass::all();
        assert_eq!(all.len(), OpClass::COUNT);
        let mut seen = [false; OpClass::COUNT];
        for c in all {
            let i = c.index();
            assert!(!seen[i], "duplicate index {i} for {c}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn op_class_from_index_inverts_index() {
        for c in OpClass::all() {
            assert_eq!(OpClass::from_index(c.index()), Some(c));
        }
        assert_eq!(OpClass::from_index(OpClass::COUNT), None);
    }

    #[test]
    fn class_masks_round_trip_in_ord_order() {
        let all = OpClass::all();
        let mask = all.iter().fold(0u16, |m, c| m | c.bit());
        assert_eq!(OpClass::from_mask(mask).collect::<Vec<_>>(), all);
        let some = OpClass::Flatten.bit() | OpClass::Conv1d.bit();
        assert_eq!(
            OpClass::from_mask(some).collect::<Vec<_>>(),
            [OpClass::Conv1d, OpClass::Flatten]
        );
        assert_eq!(OpClass::from_mask(0).count(), 0);
    }

    #[test]
    fn op_class_labels_match_paper_tokens() {
        assert_eq!(
            OpClass::Pooling(PoolingKind::LastLevelMaxPool).label(),
            "LASTLEVELMAXPOOL"
        );
        assert_eq!(OpClass::Activation(ActivationKind::Relu6).label(), "RELU6");
        assert_eq!(OpClass::Conv2d.label(), "CONV2D");
    }

    #[test]
    fn layer_edge_weight_is_output_volume() {
        let l = Layer::new("conv1", LayerKind::Conv2d(conv(3, 64, 7, 2, 3, 224)));
        assert_eq!(l.output_elements(), 112 * 112 * 64);
        assert_eq!(l.op_class(), OpClass::Conv2d);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_layer_stays_72_bytes() {
        assert_eq!(std::mem::size_of::<LayerName>(), 24);
        assert_eq!(std::mem::size_of::<Layer>(), 72);
    }

    #[test]
    fn systolic_classes() {
        assert!(OpClass::Conv2d.is_systolic());
        assert!(OpClass::Conv1d.is_systolic());
        assert!(OpClass::Linear.is_systolic());
        assert!(!OpClass::Flatten.is_systolic());
        assert!(!OpClass::Activation(ActivationKind::Gelu).is_systolic());
    }
}
