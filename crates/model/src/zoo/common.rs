//! Shared emission helpers for the zoo generators.
//!
//! These keep the per-architecture code close to how the networks are
//! actually written: a helper per recurring motif (conv+act, pooling,
//! transformer encoder block, ...), each updating the running
//! feature-map / sequence shape.
//!
//! Every helper takes its layer's path as a [`LayerPath`]: a literal,
//! `format_args!(…)` for a path with an index, or `prefix.child(…)`
//! under a block prefix written once with [`ModelBuilder::prefix`].
//! None of them allocates a name of its own.

use crate::layer::{
    Activation, ActivationKind, Conv1d, Conv2d, Flatten, LayerKind, Linear, Permute, Pooling,
    PoolingKind,
};
use crate::model::ModelBuilder;
use crate::name::LayerPath;

/// Emits a `Conv2d` layer and returns the output spatial size.
#[allow(clippy::too_many_arguments)] // mirrors the nn.Conv2d signature
pub(crate) fn conv2d(
    b: &mut ModelBuilder,
    name: impl LayerPath,
    in_ch: u32,
    out_ch: u32,
    k: u32,
    s: u32,
    p: u32,
    ifm: (u32, u32),
    groups: u32,
) -> (u32, u32) {
    let c = Conv2d {
        in_channels: in_ch,
        out_channels: out_ch,
        kernel: (k, k),
        stride: (s, s),
        padding: (p, p),
        ifm,
        groups,
    };
    let ofm = c.ofm();
    b.push(name, LayerKind::Conv2d(c));
    ofm
}

/// Emits an activation over `elements` values.
pub(crate) fn act(b: &mut ModelBuilder, name: impl LayerPath, kind: ActivationKind, elements: u64) {
    b.push(name, LayerKind::Activation(Activation { kind, elements }));
}

/// Emits a `Conv2d` followed by an activation named `{name}.act`;
/// returns the output size.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_act(
    b: &mut ModelBuilder,
    name: impl LayerPath,
    in_ch: u32,
    out_ch: u32,
    k: u32,
    s: u32,
    p: u32,
    ifm: (u32, u32),
    groups: u32,
    kind: ActivationKind,
) -> (u32, u32) {
    let ofm = conv2d(b, name, in_ch, out_ch, k, s, p, ifm, groups);
    let conv = b.last_path();
    act(
        b,
        conv.child("act"),
        kind,
        u64::from(ofm.0) * u64::from(ofm.1) * u64::from(out_ch),
    );
    ofm
}

/// Emits a sliding-window pooling layer; returns the output spatial size.
#[allow(clippy::too_many_arguments)] // mirrors the nn.MaxPool2d signature
pub(crate) fn pool2d(
    b: &mut ModelBuilder,
    name: impl LayerPath,
    kind: PoolingKind,
    channels: u32,
    ifm: (u32, u32),
    k: u32,
    s: u32,
    p: u32,
) -> (u32, u32) {
    let o = |i: u32| (i + 2 * p).saturating_sub(k) / s + 1;
    let ofm = (o(ifm.0), o(ifm.1));
    b.push(
        name,
        LayerKind::Pooling(Pooling {
            kind,
            input_elements: u64::from(ifm.0) * u64::from(ifm.1) * u64::from(channels),
            output_elements: u64::from(ofm.0) * u64::from(ofm.1) * u64::from(channels),
        }),
    );
    ofm
}

/// Emits an adaptive average pooling to `out` × `out`.
pub(crate) fn adaptive_avg_pool(
    b: &mut ModelBuilder,
    name: impl LayerPath,
    channels: u32,
    ifm: (u32, u32),
    out: u32,
) {
    b.push(
        name,
        LayerKind::Pooling(Pooling {
            kind: PoolingKind::AdaptiveAvgPool,
            input_elements: u64::from(ifm.0) * u64::from(ifm.1) * u64::from(channels),
            output_elements: u64::from(out) * u64::from(out) * u64::from(channels),
        }),
    );
}

/// Emits a `Linear` layer applied to `tokens` positions.
pub(crate) fn linear(b: &mut ModelBuilder, name: impl LayerPath, inf: u32, outf: u32, tokens: u32) {
    b.push(
        name,
        LayerKind::Linear(Linear {
            in_features: inf,
            out_features: outf,
            tokens,
        }),
    );
}

/// Emits a `Conv1d` layer; returns the output length.
#[allow(clippy::too_many_arguments)] // mirrors the nn.Conv1d signature
pub(crate) fn conv1d(
    b: &mut ModelBuilder,
    name: impl LayerPath,
    in_ch: u32,
    out_ch: u32,
    k: u32,
    s: u32,
    p: u32,
    length: u32,
) -> u32 {
    let c = Conv1d {
        in_channels: in_ch,
        out_channels: out_ch,
        kernel: k,
        stride: s,
        padding: p,
        length,
    };
    let out = c.output_length();
    b.push(name, LayerKind::Conv1d(c));
    out
}

/// Emits a printed `Flatten` module.
pub(crate) fn flatten(b: &mut ModelBuilder, name: impl LayerPath, elements: u64) {
    b.push(name, LayerKind::Flatten(Flatten { elements }));
}

/// Emits a printed `Permute` module (torchvision Swin).
pub(crate) fn permute(b: &mut ModelBuilder, name: impl LayerPath, elements: u64) {
    b.push(name, LayerKind::Permute(Permute { elements }));
}

/// Parameters of a standard post-2017 transformer encoder block as the
/// CLAIRE extraction sees it: Q, K, V, attention-output projections and
/// a two-layer MLP with an activation between (attention score/score×V
/// products are functional `matmul`s, not printed modules, and are
/// therefore absent — exactly why LINEAR-LINEAR is the dominant edge in
/// the paper's Fig. 2).
pub(crate) struct EncoderBlock {
    /// Hidden size d.
    pub d: u32,
    /// MLP inner size.
    pub ffn: u32,
    /// Sequence length the block processes.
    pub tokens: u32,
    /// MLP activation.
    pub act: ActivationKind,
    /// K/V projection width (grouped-query attention uses < d).
    pub kv: u32,
    /// Whether Q/K/V are fused into one printed Linear (DINOv2-style
    /// `qkv`) instead of three separate ones (BERT-style).
    pub fused_qkv: bool,
}

impl EncoderBlock {
    /// A standard multi-head-attention block with square projections.
    pub fn standard(d: u32, ffn: u32, tokens: u32, act: ActivationKind) -> Self {
        EncoderBlock {
            d,
            ffn,
            tokens,
            act,
            kv: d,
            fused_qkv: false,
        }
    }

    /// Emits the block's layers under `prefix`.
    pub fn emit(&self, b: &mut ModelBuilder, prefix: impl LayerPath) {
        let p = b.prefix(prefix);
        let (d, tokens) = (self.d, self.tokens);
        if self.fused_qkv {
            linear(b, p.child("attn.qkv"), d, d + 2 * self.kv, tokens);
        } else {
            linear(b, p.child("attn.q"), d, d, tokens);
            linear(b, p.child("attn.k"), d, self.kv, tokens);
            linear(b, p.child("attn.v"), d, self.kv, tokens);
        }
        linear(b, p.child("attn.out"), d, d, tokens);
        linear(b, p.child("mlp.fc1"), d, self.ffn, tokens);
        act(
            b,
            p.child("mlp.act"),
            self.act,
            u64::from(self.ffn) * u64::from(tokens),
        );
        linear(b, p.child("mlp.fc2"), self.ffn, d, tokens);
    }
}

/// Emits a gated-MLP decoder block (LLaMA / Mixtral expert style):
/// attention projections plus gate/up/down with SiLU.
pub(crate) struct GatedBlock {
    /// Hidden size d.
    pub d: u32,
    /// Gated-MLP inner size.
    pub ffn: u32,
    /// Sequence length.
    pub tokens: u32,
    /// K/V projection width (grouped-query attention).
    pub kv: u32,
}

impl GatedBlock {
    /// Emits attention projections under `prefix`.
    pub fn emit_attention(&self, b: &mut ModelBuilder, prefix: impl LayerPath) {
        let p = b.prefix(prefix);
        linear(b, p.child("q_proj"), self.d, self.d, self.tokens);
        linear(b, p.child("k_proj"), self.d, self.kv, self.tokens);
        linear(b, p.child("v_proj"), self.d, self.kv, self.tokens);
        linear(b, p.child("o_proj"), self.d, self.d, self.tokens);
    }

    /// Emits one gated MLP (gate, up, SiLU, down) under `prefix`.
    pub fn emit_mlp(&self, b: &mut ModelBuilder, prefix: impl LayerPath) {
        let p = b.prefix(prefix);
        linear(b, p.child("gate_proj"), self.d, self.ffn, self.tokens);
        linear(b, p.child("up_proj"), self.d, self.ffn, self.tokens);
        act(
            b,
            p.child("act"),
            ActivationKind::Silu,
            u64::from(self.ffn) * u64::from(self.tokens),
        );
        linear(b, p.child("down_proj"), self.ffn, self.d, self.tokens);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelClass;
    use crate::{LayerKind, OpClass};

    #[test]
    fn encoder_block_emits_six_linears_and_one_act() {
        let mut b = ModelBuilder::new("t", ModelClass::Transformer);
        EncoderBlock::standard(768, 3072, 128, ActivationKind::Gelu).emit(&mut b, "blk");
        let m = b.build();
        let counts = m.op_class_counts();
        assert_eq!(counts[&OpClass::Linear], 6);
        assert_eq!(counts[&OpClass::Activation(ActivationKind::Gelu)], 1);
    }

    #[test]
    fn fused_qkv_emits_four_linears() {
        let mut b = ModelBuilder::new("t", ModelClass::Transformer);
        let mut blk = EncoderBlock::standard(1024, 4096, 257, ActivationKind::Gelu);
        blk.fused_qkv = true;
        blk.emit(&mut b, "blk");
        let m = b.build();
        assert_eq!(m.op_class_counts()[&OpClass::Linear], 4);
        // fused qkv params: d * 3d (+ bias)
        let qkv = &m.layers()[0];
        assert_eq!(qkv.params(), 1024 * 3072 + 3072);
    }

    #[test]
    fn gated_block_params_match_llama_formula() {
        let mut b = ModelBuilder::new("t", ModelClass::Llm);
        let blk = GatedBlock {
            d: 4096,
            ffn: 14336,
            tokens: 1,
            kv: 1024,
        };
        blk.emit_attention(&mut b, "attn");
        blk.emit_mlp(&mut b, "mlp");
        let m = b.build();
        let p = m.param_count() as i64;
        // 2*d^2 + 2*d*kv + 3*d*ffn (+ biases)
        let want = 2 * 4096_i64 * 4096 + 2 * 4096 * 1024 + 3 * 4096 * 14336;
        assert!((p - want).abs() < 100_000, "params {p} vs {want}");
    }

    #[test]
    fn pool_shapes() {
        let mut b = ModelBuilder::new("t", ModelClass::Cnn);
        let o = pool2d(
            &mut b,
            "maxpool",
            PoolingKind::MaxPool,
            64,
            (112, 112),
            3,
            2,
            1,
        );
        assert_eq!(o, (56, 56));
        let m = b.build();
        match &m.layers()[0].kind {
            LayerKind::Pooling(p) => {
                assert_eq!(p.input_elements, 112 * 112 * 64);
                assert_eq!(p.output_elements, 56 * 56 * 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
