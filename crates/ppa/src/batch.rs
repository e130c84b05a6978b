//! Batched struct-of-arrays layer-cost kernel.
//!
//! The DSE sweep prices the *same* layer list under dozens to
//! thousands of hardware points, and real models repeat identical
//! layer shapes heavily (a transformer is dozens of bit-identical
//! blocks). Per-layer evaluation pays the `LayerKind` dispatch, a
//! fresh [`SystolicArrayModel`] and — when memoized per layer — a
//! locked cache lookup for every repetition, which PR 2's profiling
//! showed costs as much as the analytical kernel itself.
//!
//! [`LayerBatch`] preprocesses a layer list **once**: identical shapes
//! are deduplicated and the distinct shapes are regrouped by unit
//! family into homogeneous pools (struct-of-arrays). Evaluating a
//! hardware point then walks each pool in a tight, dispatch-free loop
//! (one [`SystolicArrayModel`] for the whole batch) and replays the
//! original execution order through a precomputed index sequence.
//!
//! **Bit-exactness.** The per-family formulas are the very functions
//! [`crate::layer_cost`] dispatches to, and the accumulation in
//! [`LayerBatch::compute_sum`] adds per-layer values in the original
//! execution order — the identical sequence of `f64` additions the
//! naive per-layer walk performs — so batched totals are bit-identical
//! to the reference, not merely close.
//!
//! **Per-axis parts.** A batch's cost also splits along the hardware
//! axes. No layer's energy reads the design point
//! ([`LayerBatch::energy_pj`]), and each family's cycles read one
//! axis: systolic layers `(sa_size, n_sa)`, activations `n_act`,
//! pooling `n_pool`, reshapes nothing
//! ([`LayerBatch::systolic_cycles`] and its siblings). A design grid
//! can therefore be priced from one kernel run per axis value rather
//! than one full pass per point.

use crate::analytical::{
    activation_cost, activation_cycles, activation_energy_pj, flatten_cost, flatten_energy_pj,
    permute_cost, permute_energy_pj, pooling_cost, pooling_cycles, pooling_energy_pj,
    reshape_cycles, systolic_layer_cost, LayerCost,
};
use crate::params::HwParams;
use crate::systolic::{conv1d_energy_pj, conv2d_energy_pj, linear_energy_pj, SystolicArrayModel};
use claire_model::{
    Activation, Conv1d, Conv2d, Flatten, FxBuildHasher, LayerKind, Linear, OpClass, Permute,
    Pooling,
};
use std::collections::HashMap;

/// Whole-batch compute totals under one hardware point — the batched
/// equivalent of summing [`crate::layer_cost`] over the layer list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSum {
    /// Total compute cycles across all layers.
    pub cycles: u64,
    /// Total dynamic compute energy, pJ, accumulated in execution
    /// order (bit-identical to the per-layer reference walk).
    pub energy_pj: f64,
}

/// A preprocessed layer list: deduplicated shapes in per-family
/// struct-of-arrays pools plus the execution-order replay sequence.
///
/// Build once per distinct layer structure (the engine interns batches
/// by structural content), evaluate per hardware point.
#[derive(Debug, Clone, Default)]
pub struct LayerBatch {
    // Homogeneous pools of *distinct* layer shapes, in first-seen
    // order within each family. Slot numbering is pool-concatenation
    // order: conv2d, conv1d, linear, act, pool, flatten, permute.
    conv2d: Vec<Conv2d>,
    conv1d: Vec<Conv1d>,
    linear: Vec<Linear>,
    act: Vec<Activation>,
    pool: Vec<Pooling>,
    flatten: Vec<Flatten>,
    permute: Vec<Permute>,
    /// Global slot index per layer, in execution order.
    seq: Vec<u32>,
    /// Per global slot: how many layers of `seq` execute it.
    reps: Vec<u64>,
}

impl LayerBatch {
    /// Preprocesses `kinds` (a model's layer sequence, in execution
    /// order) into the batched form.
    pub fn from_kinds<'a, I>(kinds: I) -> Self
    where
        I: IntoIterator<Item = &'a LayerKind>,
    {
        // First pass: dedupe into pools, recording (family, pool
        // index) per layer; global slots are assigned afterwards once
        // every pool size is known.
        let mut batch = LayerBatch::default();
        let mut interned: HashMap<LayerKind, (u8, u32), FxBuildHasher> = HashMap::default();
        let mut pairs: Vec<(u8, u32)> = Vec::new();
        for kind in kinds {
            let slot = *interned.entry(*kind).or_insert_with(|| match kind {
                LayerKind::Conv2d(c) => {
                    batch.conv2d.push(*c);
                    (0, batch.conv2d.len() as u32 - 1)
                }
                LayerKind::Conv1d(c) => {
                    batch.conv1d.push(*c);
                    (1, batch.conv1d.len() as u32 - 1)
                }
                LayerKind::Linear(l) => {
                    batch.linear.push(*l);
                    (2, batch.linear.len() as u32 - 1)
                }
                LayerKind::Activation(a) => {
                    batch.act.push(*a);
                    (3, batch.act.len() as u32 - 1)
                }
                LayerKind::Pooling(p) => {
                    batch.pool.push(*p);
                    (4, batch.pool.len() as u32 - 1)
                }
                LayerKind::Flatten(f) => {
                    batch.flatten.push(*f);
                    (5, batch.flatten.len() as u32 - 1)
                }
                LayerKind::Permute(p) => {
                    batch.permute.push(*p);
                    (6, batch.permute.len() as u32 - 1)
                }
            });
            pairs.push(slot);
        }
        let bases = batch.family_bases();
        batch.seq = pairs
            .into_iter()
            .map(|(family, idx)| bases[family as usize] + idx)
            .collect();
        batch.reps = vec![0; batch.slot_count()];
        for &slot in &batch.seq {
            batch.reps[slot as usize] += 1;
        }
        batch
    }

    /// Global slot offset of each family under pool-concatenation
    /// order.
    fn family_bases(&self) -> [u32; 7] {
        let mut bases = [0u32; 7];
        let lens = [
            self.conv2d.len(),
            self.conv1d.len(),
            self.linear.len(),
            self.act.len(),
            self.pool.len(),
            self.flatten.len(),
            self.permute.len(),
        ];
        let mut acc = 0u32;
        for (base, len) in bases.iter_mut().zip(lens) {
            *base = acc;
            acc += len as u32;
        }
        bases
    }

    /// Number of layers in the original sequence.
    pub fn layer_count(&self) -> usize {
        self.seq.len()
    }

    /// Number of distinct layer shapes (cost evaluations per point).
    pub fn slot_count(&self) -> usize {
        self.conv2d.len()
            + self.conv1d.len()
            + self.linear.len()
            + self.act.len()
            + self.pool.len()
            + self.flatten.len()
            + self.permute.len()
    }

    /// Number of non-empty layer-family pools — i.e. how many of the
    /// dispatch-free kernel loops a [`LayerBatch::costs_into`] pass
    /// actually runs.
    pub fn family_count(&self) -> usize {
        [
            !self.conv2d.is_empty(),
            !self.conv1d.is_empty(),
            !self.linear.is_empty(),
            !self.act.is_empty(),
            !self.pool.is_empty(),
            !self.flatten.is_empty(),
            !self.permute.is_empty(),
        ]
        .iter()
        .filter(|&&x| x)
        .count()
    }

    /// True when the batch holds no layers.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Evaluates every distinct shape under `hw` into `out`
    /// (slot-ordered; cleared first). One dispatch-free loop per pool,
    /// sharing a single [`SystolicArrayModel`] across the batch.
    pub fn costs_into(&self, hw: &HwParams, out: &mut Vec<LayerCost>) {
        out.clear();
        out.reserve(self.slot_count());
        let sa = SystolicArrayModel::new(*hw);
        out.extend(
            self.conv2d
                .iter()
                .map(|c| systolic_layer_cost(sa.conv2d(c))),
        );
        out.extend(
            self.conv1d
                .iter()
                .map(|c| systolic_layer_cost(sa.conv1d(c))),
        );
        out.extend(
            self.linear
                .iter()
                .map(|l| systolic_layer_cost(sa.linear(l))),
        );
        out.extend(self.act.iter().map(|a| activation_cost(a, hw)));
        out.extend(self.pool.iter().map(|p| pooling_cost(p, hw)));
        out.extend(self.flatten.iter().map(flatten_cost));
        out.extend(self.permute.iter().map(permute_cost));
    }

    /// Per-distinct-shape costs under `hw`, slot-ordered.
    pub fn costs(&self, hw: &HwParams) -> Vec<LayerCost> {
        let mut out = Vec::new();
        self.costs_into(hw, &mut out);
        out
    }

    /// [`LayerBatch::compute_sum`] with a caller-provided scratch
    /// buffer for the per-slot costs (reused across hardware points).
    pub fn compute_sum_with(&self, hw: &HwParams, scratch: &mut Vec<LayerCost>) -> BatchSum {
        self.costs_into(hw, scratch);
        let mut cycles: u64 = 0;
        let mut energy_pj = 0.0;
        for &slot in &self.seq {
            let c = scratch[slot as usize];
            cycles += c.cycles;
            energy_pj += c.energy_pj;
        }
        BatchSum { cycles, energy_pj }
    }

    /// Whole-batch compute totals under `hw`: each distinct shape is
    /// priced once, then the totals replay the original execution
    /// order — bit-identical to the per-layer reference summation.
    pub fn compute_sum(&self, hw: &HwParams) -> BatchSum {
        let mut scratch = Vec::new();
        self.compute_sum_with(hw, &mut scratch)
    }

    /// Whole-batch compute **cycles** under `hw` — the cycles-only
    /// lower-bound kernel: the four family parts
    /// ([`LayerBatch::systolic_cycles`] and its siblings) added with
    /// `wrapping_add`.
    ///
    /// The per-slot cycle formulas are the exact integer cores the
    /// full costing path uses, and `u64` addition is associative, so
    /// `compute_cycles(hw) == compute_sum(hw).cycles` exactly (modulo
    /// 2⁶⁴ should the sum overflow, as a build without overflow checks
    /// computes it). Dividing by the clock gives a **latency lower
    /// bound**: total latency is these compute seconds plus
    /// nonnegative transfer terms. Materially cheaper than
    /// [`LayerBatch::compute_sum`] — systolic cycles are tile/wave
    /// integer math with none of the energy `f64` work, and each
    /// distinct shape counts once, times its repetitions.
    pub fn compute_cycles(&self, hw: &HwParams) -> u64 {
        self.systolic_cycles(hw)
            .wrapping_add(self.activation_cycles(hw))
            .wrapping_add(self.pooling_cycles(hw))
            .wrapping_add(self.reshape_cycles())
    }

    /// Whole-batch dynamic compute energy, pJ: every layer's energy
    /// added in execution order from `0.0`. No layer's energy reads
    /// the hardware point (systolic layers price their MACs and I/O
    /// bytes, the other families their element counts), so this is
    /// [`LayerBatch::compute_sum`]'s `energy_pj`, bit for bit, at
    /// every point.
    pub fn energy_pj(&self) -> f64 {
        let slots: Vec<f64> = self
            .conv2d
            .iter()
            .map(conv2d_energy_pj)
            .chain(self.conv1d.iter().map(conv1d_energy_pj))
            .chain(self.linear.iter().map(linear_energy_pj))
            .chain(self.act.iter().map(activation_energy_pj))
            .chain(self.pool.iter().map(pooling_energy_pj))
            .chain(self.flatten.iter().map(flatten_energy_pj))
            .chain(self.permute.iter().map(permute_energy_pj))
            .collect();
        let mut energy_pj = 0.0;
        for &slot in &self.seq {
            energy_pj += slots[slot as usize];
        }
        energy_pj
    }

    /// Cycles of the batch's systolic layers (conv2d, conv1d, linear)
    /// under `hw`, summed over every layer with `wrapping_add`. Reads
    /// only `hw.sa_size` and `hw.n_sa`.
    ///
    /// The four family parts, added with `wrapping_add`, are
    /// [`LayerBatch::compute_cycles`]: the per-layer cycle sum modulo
    /// 2⁶⁴.
    pub fn systolic_cycles(&self, hw: &HwParams) -> u64 {
        let sa = SystolicArrayModel::new(*hw);
        let cycles = self
            .conv2d
            .iter()
            .map(|c| sa.conv2d_cycles(c))
            .chain(self.conv1d.iter().map(|c| sa.conv1d_cycles(c)))
            .chain(self.linear.iter().map(|l| sa.linear_cycles(l)));
        self.repeated_sum(0, cycles)
    }

    /// Cycles of the batch's activation layers under `hw` (see
    /// [`LayerBatch::systolic_cycles`]). Reads only `hw.n_act`.
    pub fn activation_cycles(&self, hw: &HwParams) -> u64 {
        let cycles = self.act.iter().map(|a| activation_cycles(a, hw));
        self.repeated_sum(3, cycles)
    }

    /// Cycles of the batch's pooling layers under `hw` (see
    /// [`LayerBatch::systolic_cycles`]). Reads only `hw.n_pool`.
    pub fn pooling_cycles(&self, hw: &HwParams) -> u64 {
        let cycles = self.pool.iter().map(|p| pooling_cycles(p, hw));
        self.repeated_sum(4, cycles)
    }

    /// Cycles of the batch's flatten and permute layers, which read no
    /// hardware axis (see [`LayerBatch::systolic_cycles`]).
    pub fn reshape_cycles(&self) -> u64 {
        let cycles = self
            .flatten
            .iter()
            .map(|f| reshape_cycles(f.elements))
            .chain(self.permute.iter().map(|p| reshape_cycles(p.elements)));
        self.repeated_sum(5, cycles)
    }

    /// Per-class execution counts under `hw`, by [`OpClass::index`]:
    /// each slot's executions ([`LayerCost::executions`], tiles for
    /// systolic layers and cycles for the rest) times its repetitions,
    /// summed per class. These are the node weights `w_N` of the
    /// model's graph `G_ini` as exact integers. `None` when a product or
    /// a sum overflows `u64`. Classes with no layer read 0.
    pub fn class_executions(&self, hw: &HwParams) -> Option<[u64; OpClass::COUNT]> {
        let sa = SystolicArrayModel::new(*hw);
        let slots = self
            .conv2d
            .iter()
            .map(|c| (OpClass::Conv2d, systolic_layer_cost(sa.conv2d(c))))
            .chain(
                self.conv1d
                    .iter()
                    .map(|c| (OpClass::Conv1d, systolic_layer_cost(sa.conv1d(c)))),
            )
            .chain(
                self.linear
                    .iter()
                    .map(|l| (OpClass::Linear, systolic_layer_cost(sa.linear(l)))),
            )
            .chain(
                self.act
                    .iter()
                    .map(|a| (OpClass::Activation(a.kind), activation_cost(a, hw))),
            )
            .chain(
                self.pool
                    .iter()
                    .map(|p| (OpClass::Pooling(p.kind), pooling_cost(p, hw))),
            )
            .chain(
                self.flatten
                    .iter()
                    .map(|f| (OpClass::Flatten, flatten_cost(f))),
            )
            .chain(
                self.permute
                    .iter()
                    .map(|p| (OpClass::Permute, permute_cost(p))),
            );
        let mut out = [0u64; OpClass::COUNT];
        for ((class, cost), &reps) in slots.zip(&self.reps) {
            let total = &mut out[class.index()];
            *total = total.checked_add(cost.executions.checked_mul(reps)?)?;
        }
        Some(out)
    }

    /// `Σ cycles × repetitions` over the slots from family `family`'s
    /// base on, in wrapping arithmetic: each slot's cycles added once
    /// per layer that executes it, modulo 2⁶⁴.
    fn repeated_sum(&self, family: usize, cycles: impl Iterator<Item = u64>) -> u64 {
        let base = self.family_bases()[family] as usize;
        cycles
            .zip(&self.reps[base..])
            .fold(0u64, |acc, (c, &n)| acc.wrapping_add(c.wrapping_mul(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytical::layer_cost;
    use claire_model::ActivationKind;

    fn kinds() -> Vec<LayerKind> {
        let conv = LayerKind::Conv2d(Conv2d {
            in_channels: 16,
            out_channels: 32,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            ifm: (28, 28),
            groups: 1,
        });
        let relu = LayerKind::Activation(Activation {
            kind: ActivationKind::Relu,
            elements: 32 * 28 * 28,
        });
        let fc = LayerKind::Linear(Linear {
            in_features: 256,
            out_features: 64,
            tokens: 4,
        });
        let flat = LayerKind::Flatten(Flatten { elements: 4096 });
        // Heavy repetition, interleaved, like a real block stack.
        vec![conv, relu, conv, relu, conv, relu, flat, fc, relu, fc, fc]
    }

    #[test]
    fn dedup_preserves_sequence_length() {
        let k = kinds();
        let b = LayerBatch::from_kinds(k.iter());
        assert_eq!(b.layer_count(), k.len());
        assert_eq!(b.slot_count(), 4, "conv, relu, fc, flatten");
        assert!(!b.is_empty());
    }

    #[test]
    fn batched_sum_is_bit_identical_to_per_layer_walk() {
        let k = kinds();
        let b = LayerBatch::from_kinds(k.iter());
        for hw in [
            HwParams::new(16, 16, 8, 8),
            HwParams::new(32, 32, 16, 16),
            HwParams::new(64, 8, 32, 4),
        ] {
            let mut cycles: u64 = 0;
            let mut energy_pj = 0.0;
            for kind in &k {
                let c = layer_cost(kind, &hw);
                cycles += c.cycles;
                energy_pj += c.energy_pj;
            }
            let got = b.compute_sum(&hw);
            assert_eq!(got.cycles, cycles, "{hw}");
            assert_eq!(got.energy_pj.to_bits(), energy_pj.to_bits(), "{hw}");
        }
    }

    #[test]
    fn slot_costs_match_layer_cost() {
        let k = kinds();
        let b = LayerBatch::from_kinds(k.iter());
        let hw = HwParams::new(32, 32, 16, 16);
        let costs = b.costs(&hw);
        assert_eq!(costs.len(), b.slot_count());
        // Every distinct kind's slot cost equals the reference kernel.
        for kind in &k {
            let reference = layer_cost(kind, &hw);
            assert!(costs.contains(&reference), "no slot matches {kind:?}");
        }
    }

    #[test]
    fn empty_batch_sums_to_zero() {
        let b = LayerBatch::from_kinds(std::iter::empty());
        assert!(b.is_empty());
        let s = b.compute_sum(&HwParams::new(8, 8, 8, 8));
        assert_eq!(s.cycles, 0);
        assert_eq!(s.energy_pj, 0.0);
    }

    #[test]
    fn cycles_kernel_is_bit_identical_to_full_costing() {
        let k = kinds();
        let b = LayerBatch::from_kinds(k.iter());
        for hw in [
            HwParams::new(16, 16, 8, 8),
            HwParams::new(32, 32, 16, 16),
            HwParams::new(64, 8, 32, 4),
            HwParams::new(1, 1, 1, 1),
        ] {
            assert_eq!(b.compute_cycles(&hw), b.compute_sum(&hw).cycles, "{hw}");
        }
    }

    #[test]
    fn cycles_kernel_matches_per_layer_reference() {
        let k = kinds();
        let b = LayerBatch::from_kinds(k.iter());
        let hw = HwParams::new(32, 32, 16, 16);
        let reference: u64 = k.iter().map(|kind| layer_cost(kind, &hw).cycles).sum();
        assert_eq!(b.compute_cycles(&hw), reference);
    }

    #[test]
    fn energy_fold_is_the_batch_energy_at_every_point() {
        let k = kinds();
        let b = LayerBatch::from_kinds(k.iter());
        for hw in [
            HwParams::new(16, 16, 8, 8),
            HwParams::new(64, 8, 32, 4),
            HwParams::new(1, 1, 1, 1),
        ] {
            assert_eq!(
                b.energy_pj().to_bits(),
                b.compute_sum(&hw).energy_pj.to_bits(),
                "{hw}"
            );
        }
    }

    /// The four family parts, added with `wrapping_add`, against a
    /// wrapping fold of [`crate::layer_cycles`] over the layers.
    fn assert_parts_match_wrapping_fold(k: &[LayerKind], hw: &HwParams) -> u64 {
        let b = LayerBatch::from_kinds(k.iter());
        let parts = b
            .systolic_cycles(hw)
            .wrapping_add(b.activation_cycles(hw))
            .wrapping_add(b.pooling_cycles(hw))
            .wrapping_add(b.reshape_cycles());
        let reference = k.iter().fold(0u64, |acc, kind| {
            acc.wrapping_add(crate::analytical::layer_cycles(kind, hw))
        });
        assert_eq!(parts, reference, "{hw}");
        parts
    }

    #[test]
    fn family_parts_sum_to_the_per_layer_cycles() {
        let mut k = kinds();
        k.push(LayerKind::Pooling(Pooling {
            kind: claire_model::PoolingKind::MaxPool,
            input_elements: 4096,
            output_elements: 1024,
        }));
        k.push(LayerKind::Permute(Permute { elements: 777 }));
        for hw in [
            HwParams::new(16, 16, 8, 8),
            HwParams::new(64, 8, 32, 4),
            HwParams::new(1, 1, 1, 1),
        ] {
            let total = assert_parts_match_wrapping_fold(&k, &hw);
            let b = LayerBatch::from_kinds(k.iter());
            assert_eq!(total, b.compute_cycles(&hw), "{hw}");
            assert_eq!(total, b.compute_sum(&hw).cycles, "{hw}");
        }
    }

    #[test]
    fn family_parts_wrap_past_u64_max() {
        // Each layer's cycles fit a u64, but their sum does not: the
        // parts must wrap exactly as the fold does.
        let big = |kind| {
            LayerKind::Activation(Activation {
                kind,
                elements: u64::MAX / 2 + 3,
            })
        };
        let k = vec![
            big(ActivationKind::Relu),
            big(ActivationKind::Gelu),
            big(ActivationKind::Relu),
            LayerKind::Pooling(Pooling {
                kind: claire_model::PoolingKind::AvgPool,
                input_elements: u64::MAX - 5,
                output_elements: 1,
            }),
            LayerKind::Flatten(Flatten { elements: 4096 }),
        ];
        let hw = HwParams::new(1, 1, 1, 1);
        let total = assert_parts_match_wrapping_fold(&k, &hw);
        let unwrapped: u128 = k
            .iter()
            .map(|kind| u128::from(crate::analytical::layer_cycles(kind, &hw)))
            .sum();
        assert!(unwrapped > u128::from(u64::MAX), "the sum must wrap");
        assert_eq!(u128::from(total), unwrapped % (1u128 << 64));
    }

    #[test]
    fn class_executions_match_the_per_layer_sums() {
        let mut k = kinds();
        k.push(LayerKind::Pooling(Pooling {
            kind: claire_model::PoolingKind::MaxPool,
            input_elements: 4096,
            output_elements: 1024,
        }));
        k.push(LayerKind::Permute(Permute { elements: 777 }));
        let b = LayerBatch::from_kinds(k.iter());
        for hw in [
            HwParams::new(16, 16, 8, 8),
            HwParams::new(64, 8, 32, 4),
            HwParams::new(1, 1, 1, 1),
        ] {
            let mut reference = [0u64; OpClass::COUNT];
            for kind in &k {
                let class = claire_model::Layer::new("l", *kind).op_class();
                reference[class.index()] += layer_cost(kind, &hw).executions;
            }
            assert_eq!(b.class_executions(&hw), Some(reference), "{hw}");
        }
    }

    #[test]
    fn class_executions_report_u64_overflow() {
        let big = LayerKind::Activation(Activation {
            kind: ActivationKind::Relu,
            elements: 1 << 62,
        });
        let hw = HwParams::new(1, 1, 1, 1);
        let three = LayerBatch::from_kinds([big, big, big].iter());
        assert_eq!(
            three.class_executions(&hw).map(|e| e[0..5].to_vec()),
            Some(vec![0, 0, 0, 3 << 62, 0])
        );
        let four = LayerBatch::from_kinds([big, big, big, big].iter());
        assert_eq!(four.class_executions(&hw), None, "4 x 2^62 overflows");
    }

    #[test]
    fn scratch_reuse_is_stable() {
        let k = kinds();
        let b = LayerBatch::from_kinds(k.iter());
        let mut scratch = Vec::new();
        let a = b.compute_sum_with(&HwParams::new(16, 16, 8, 8), &mut scratch);
        let c = b.compute_sum_with(&HwParams::new(16, 16, 8, 8), &mut scratch);
        assert_eq!(a, c);
    }
}
